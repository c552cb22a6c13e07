"""Dense hermitian-matrix utilities for preconditioned stochastic optimizers.

All matrices here are small (p up to a few hundred).  `matrix_abs` works from
a full spectral decomposition.  `psd_sqrt_shifted` takes its input as the
estimate `run` averages, N_R real coefficients c_r and the row pairs Δ_r,
Δ̃_r of the outer products c_r·Δ_rΔ̃_r†, and never forms it as a p × p
matrix: it orthonormalizes the 2·N_R rows by a QR factorization and
diagonalizes on their span, so the gidi square root costs O(p·N_R²) beyond
forming the p × p result.  It maps each eigenvalue λ to √(λ² + ε) by one
formula that never squares λ, so it stays finite for every finite λ.
`solve_pd` checks positive-definiteness by a Cholesky factorization and
solves by LU.  Real symmetric matrices flow
through the same code paths as complex hermitian ones; callers never need a
separate real-field implementation.

Every factorization calls numpy's LAPACK, the one that ``np.linalg`` uses,
through the gufuncs of ``numpy.linalg._umath_linalg`` that the public
functions wrap: ``qr_r_raw``, ``qr_reduced``, ``eigh_lo``, ``cholesky_lo``
and ``solve1``, in double precision, float64 for a real field and
complex128 for a complex one.  Called directly they skip the wrappers'
argument handling, and they factor a stack of matrices in one call.  At one
BLAS thread and p = 20 complex, that handling adds 3.6 µs to ``cholesky_lo``'s
4.0, 4.1 µs to ``solve1``'s 8.2 and 4.3 µs to a 2 × 2 ``eigh_lo``'s 2.5 (best
of 7 ``timeit`` repeats, 2-core x86-64, numpy 2.4).  The module is private to
numpy, so ``tests/test_linalg.py`` checks that each gufunc named in this file
exists and agrees bit for bit with its public wrapper.  No part of SciPy is
imported: ``tests/test_no_scipy_linalg.py`` refuses every SciPy
import in runs, workers and CLI calls.

`blas_threads` reads the thread count of the OpenBLAS that numpy's wheel
bundles, and `one_blas_thread` pins it to one thread for a block of code,
through the library's ``scipy_openblas_get/set_num_threads64_`` in
``numpy.libs``.  Where numpy has no such library, both do nothing and give
None.
"""

import contextlib
import ctypes
import functools
import math
from pathlib import Path

import numpy as np
from numpy.linalg import _umath_linalg

__all__ = ["blas_threads", "hermitize", "matrix_abs", "one_blas_thread", "psd_sqrt_shifted",
           "solve_pd"]

# Inputs arrive from exact arithmetic on function values, so deviations from
# hermiticity beyond this are programming errors, not roundoff.
HERMITICITY_ATOL = 1e-12


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, through
    ctypes, or None if ``numpy.libs`` holds no such library."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"))
    if not libs:
        return None
    lib = ctypes.CDLL(str(libs[0]))  # the copy numpy loaded: same file, same handle
    get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def blas_threads():
    """The thread count of numpy's bundled OpenBLAS, or None without one."""
    lib = _openblas_threads()
    return None if lib is None else int(lib[0]())


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's bundled OpenBLAS on one thread, then give
    the caller's thread count back, also if the block raises.

    Yields the caller's count, or None, and pins nothing, without a bundled
    OpenBLAS.  A result that OpenBLAS computes with one thread does not
    depend on how many threads the environment grants, whose work split
    changes the roundoff of a multithreaded call.

    A caller already on one thread calls no setter: in a forked child the
    first call restarts OpenBLAS's threads, which spin for about 0.13 s.
    """
    lib = _openblas_threads()
    before = None if lib is None else lib[0]()
    if before in (None, 1):
        yield before
        return
    lib[1](1)
    try:
        yield before
    finally:
        lib[1](before)


def hermitize(matrix):
    """Return the hermitian part (M + M†)/2 of a square matrix.

    For real inputs this reduces to the symmetric part (M + Mᵀ)/2.

    Raises
    ------
    ValueError
        If the input is not a square matrix.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return (m + m.conj().T) / 2


def _require_hermitian(m, op):
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{op}: expected a square matrix, got shape {m.shape}")
    if (m == m.conj().T).all():  # hermitian to the bit, as `hermitize` returns
        return
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    if np.abs(m - m.conj().T).max(initial=0.0) > HERMITICITY_ATOL * scale:
        raise ValueError(f"{op}: matrix is not hermitian within {HERMITICITY_ATOL}")


@np.errstate(all="ignore", invalid="raise")  # as a decorator, a third of the cost of `with`
def _lapack(gufunc, signature, *args, failure):
    """Call one of numpy's LAPACK gufuncs with the loop ``signature``.

    A gufunc reports a failed factorization by NaN output and the invalid
    floating-point flag; that raises ``numpy.linalg.LinAlgError(failure)``
    here.  Any other flag that LAPACK leaves is ignored, as ``np.linalg``
    ignores it.
    """
    try:
        return gufunc(*args, signature=signature)
    except FloatingPointError:
        raise np.linalg.LinAlgError(failure) from None


def matrix_abs(matrix):
    """Matrix absolute value √(M²) of a hermitian matrix.

    Computed as U diag(|λ|) U† from the spectral decomposition, so the result
    shares the eigenbasis of M and is positive semidefinite.
    """
    m = np.asarray(matrix)
    _require_hermitian(m, "matrix_abs")
    c = "D" if m.dtype.kind == "c" else "d"
    w, u = _lapack(_umath_linalg.eigh_lo, f"{c}->d{c}", m,
                   failure="matrix_abs: eigenvalues did not converge")
    return (u * np.abs(w)) @ u.conj().T


def psd_sqrt_shifted(coefficients, rows, epsilon):
    """Return √(M² + εI) for M = Σ_r c_r(Δ_rΔ̃_r† + Δ̃_rΔ_r†)/(2N_R) and finite ε > 0.

    M is the hermitian part of the mean Σ_r c_r·Δ_rΔ̃_r†/N_R of N_R outer
    products, given by their real ``coefficients`` c_r and an (N_R, 2, p)
    array of ``rows`` whose pair r is Δ_r, Δ̃_r.  Any hermitian M = Σ_i λ_i
    v_iv_i† can be given so, as the N coefficients N·λ_i with the pairs
    (v_i, v_i).  M is never formed: its range lies in the span of the 2·N_R
    rows, which are orthonormalized as the columns of the p × m Q factor,
    m = min(p, 2N_R), of a reduced QR factorization, numpy's ``qr_r_raw``
    and ``qr_reduced`` (LAPACK ``geqrf`` with ``orgqr``/``ungqr``).  With
    a_r = Q†Δ_r and b_r = Q†Δ̃_r, the m × m matrix
    Q†MQ = Σ_r (c_r/2N_R)(a_rb_r† + b_ra_r†) = WΛW† is diagonalized, so
    U = QW holds every eigenvector of M with a nonzero eigenvalue.  The
    result is √ε·I + U g(Λ) U† with
    g(λ) = |λ|·(|λ|/(hypot(λ, √ε) + √ε)) = √(λ² + ε) − √ε, a form that
    neither cancels nor squares λ, so it stays finite for every finite λ:
    directions outside the span, and any column of Q that rank-deficient
    rows add, have λ = 0 and get exactly √ε.

    Every eigenvalue of the result is at least √ε, which makes the output
    strictly positive-definite even when M vanishes.

    The eigensolver is numpy's ``eigh_lo`` (LAPACK ``syevd``/``heevd``).
    Every factorization runs in double precision, complex128 if the rows
    are complex and float64 otherwise.  The coefficients must be finite;
    `run` ends a run before a non-finite estimate gets here.

    Raises
    ------
    ValueError
        If ε is not in (0, ∞), or ``rows`` is not an (N_R, 2, p) array
        with one pair per coefficient.
    numpy.linalg.LinAlgError
        If the QR factorization or the eigensolver fails.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    rows = np.asarray(rows)
    if rows.ndim != 3 or rows.shape[:2] != (len(coefficients), 2):
        raise ValueError(f"psd_sqrt_shifted: rows of shape {rows.shape} are not one "
                         f"(Δ, Δ̃) pair for each of the {len(coefficients)} coefficients")
    p = rows.shape[2]
    span = rows.reshape(-1, p).T  # Δ_1, Δ̃_1, …, Δ_NR, Δ̃_NR as columns
    c = "D" if rows.dtype.kind == "c" else "d"
    factors = span.astype(c)  # a copy, which qr_r_raw overwrites
    failure = "psd_sqrt_shifted: QR factorization failed"
    tau = _lapack(_umath_linalg.qr_r_raw, f"{c}->{c}", factors, failure=failure)
    q = _lapack(_umath_linalg.qr_reduced, f"{c}{c}->{c}", factors, tau, failure=failure)
    ab = q.conj().T @ span  # a_1, b_1, …, a_NR, b_NR as columns
    half = (ab[:, 0::2] * (np.asarray(coefficients) / (2 * len(rows)))) @ ab[:, 1::2].conj().T
    w, v = _lapack(_umath_linalg.eigh_lo, f"{c}->d{c}", half + half.conj().T,
                   failure="psd_sqrt_shifted: eigenvalues did not converge")
    u = q @ v
    root = math.sqrt(epsilon)
    a = np.abs(w)
    out = (u * (a * (a / (np.hypot(a, root) + root)))) @ u.conj().T
    out.reshape(-1)[:: p + 1] += root
    return out


def solve_pd(matrix, rhs):
    """Solve H x = v for positive-definite hermitian H without forming H⁻¹.

    A Cholesky factorization of the lower triangle of H (numpy's
    ``cholesky_lo``, LAPACK ``potrf``) checks that H is positive definite;
    an LU solve (``solve1``, LAPACK ``gesv``) then gives x, in double
    precision: float64 if H and v are real, complex128 otherwise.  numpy
    has no triangular solve that would reuse the factor.

    Raises
    ------
    ValueError
        If H or v holds a NaN or an infinity.
    numpy.linalg.LinAlgError
        If H is not positive definite, or the LU solve finds it singular.
        Downstream code treats this as a post-processing bug rather than a
        recoverable condition.
    """
    h = np.asarray(matrix)
    v = np.asarray(rhs)
    if not (np.isfinite(h).all() and np.isfinite(v).all()):
        raise ValueError("solve_pd: matrix and right-hand side must not contain infs or NaNs")
    ch = "D" if h.dtype.kind == "c" else "d"
    _lapack(_umath_linalg.cholesky_lo, f"{ch}->{ch}", h,
            failure="solve_pd: matrix is not positive definite")
    c = "D" if ch == "D" or v.dtype.kind == "c" else "d"
    return _lapack(_umath_linalg.solve1, f"{c}{c}->{c}", h, v,
                   failure="solve_pd: matrix is singular")
