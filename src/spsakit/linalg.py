"""Dense hermitian-matrix utilities for preconditioned stochastic optimizers.

All matrices here are small (p up to a few hundred).  `matrix_abs` works from
a full spectral decomposition.  `psd_sqrt_shifted` diagonalizes only on a
subspace that the caller names as holding the range of its input: the
gidi preconditioner's input has rank ≤ 2·N_R, so its square root costs
O(p·N_R²) beyond forming the p × p result.  It maps each eigenvalue λ to
√(λ² + ε) by one formula that never squares λ, so it stays finite for every
finite λ.  `solve_pd` is a Cholesky solve that calls LAPACK directly.  Real
symmetric matrices flow through the same code paths as complex hermitian
ones; callers never need a separate real-field implementation.

The factorizations call the double-precision routines, ``d`` for a real
field and ``z`` for a complex one, of SciPy's compiled LAPACK wrapper module
``scipy.linalg._flapack``: the very objects ``scipy.linalg.get_lapack_funcs``
returns for float64 and complex128, found by one cached lookup.  They are
loaded without importing ``scipy.linalg``: that import takes about 0.3 s and
16 MB, while the extension alone loads in a few milliseconds.  `load_lapack`
loads it at the first call that needs it, the first `psd_sqrt_shifted` or
`solve_pd`, so first-order and scalar runs, which do no matrix algebra, never
load it.  A pool of forked workers would load it once per worker, so
``bench.run_ensemble`` calls `load_lapack` in the parent before it starts a
pool for a run that needs it, and the workers inherit the loaded module.
"""

import math
import os
import sys
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import numpy as np

__all__ = ["hermitize", "load_lapack", "matrix_abs", "psd_sqrt_shifted", "solve_pd"]

FLAPACK = "scipy.linalg._flapack"

# Inputs arrive from exact arithmetic on function values, so deviations from
# hermiticity beyond this are programming errors, not roundoff.
HERMITICITY_ATOL = 1e-12


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


def matrix_abs(matrix):
    """Matrix absolute value √(M²) of a hermitian matrix.

    Computed as U diag(|λ|) U† from the spectral decomposition, so the result
    shares the eigenbasis of M and is positive semidefinite.
    """
    m = np.asarray(matrix)
    _require_hermitian(m, "matrix_abs")
    w, u = np.linalg.eigh(m)
    return (u * np.abs(w)) @ u.conj().T


def load_lapack():
    """Return SciPy's LAPACK wrapper module ``scipy.linalg._flapack``.

    The module SciPy has already loaded, if it has; otherwise the extension
    is loaded from the ``linalg`` directory of the ``scipy`` package, without
    running ``scipy.linalg``'s package initialization, and registered under
    its own name, so that a later ``import scipy.linalg`` reuses it instead
    of initializing the extension a second time.

    Raises
    ------
    ImportError
        If SciPy is not installed or its ``linalg`` directory holds no
        ``_flapack`` extension for this interpreter.
    """
    module = sys.modules.get(FLAPACK)
    if module is None:
        import scipy  # on some platforms, puts the bundled libraries on the search path

        extensions = (ExtensionFileLoader, EXTENSION_SUFFIXES)
        finder = FileFinder(os.path.join(scipy.__path__[0], "linalg"), extensions)
        spec = finder.find_spec(FLAPACK)
        if spec is None:
            raise ImportError(f"no {FLAPACK} extension in {finder.path}", name=FLAPACK)
        module = module_from_spec(spec)
        sys.modules[FLAPACK] = module
        spec.loader.exec_module(module)
    return module


@lru_cache(maxsize=None)
def _routines(complex_field, *names):
    """The double-precision LAPACK routines ``names``: the ``z`` ones for a
    complex field and the ``d`` ones for a real field, the very routines
    ``scipy.linalg.get_lapack_funcs(names, dtype=...)`` returns for
    complex128 and float64."""
    flapack = load_lapack()
    return tuple(getattr(flapack, ("z" if complex_field else "d") + name) for name in names)


def psd_sqrt_shifted(matrix, epsilon, span):
    """Return √(M² + εI) for hermitian M and finite ε > 0.

    ``span`` is a p × r array whose columns span a subspace that holds the
    range of M, such as the perturbation vectors an outer-product estimate
    was built from; ``np.eye(p)`` spans the whole space.  Its columns are
    orthonormalized into Q, and the r × r matrix Q†MQ = WΛW† is
    diagonalized, so U = QW holds every eigenvector of M with a nonzero
    eigenvalue.  The result is √ε·I + U g(Λ) U† with
    g(λ) = |λ|·(|λ|/(hypot(λ, √ε) + √ε)) = √(λ² + ε) − √ε, a form that
    neither cancels nor squares λ, so it stays finite for every finite λ:
    directions outside the span, and any column of Q that a rank-deficient
    span adds, have λ = 0 and get exactly √ε.

    Every eigenvalue of the result is at least √ε, which makes the output
    strictly positive-definite even when M vanishes.

    The factorizations are LAPACK ``geqrf`` with ``orgqr``/``ungqr`` and
    ``syevd``/``heevd`` in double precision, called directly.  M must be
    finite; `run` ends a run before a non-finite estimate gets here.

    Raises
    ------
    ValueError
        If ε is not in (0, ∞), if M is not square and hermitian, or if
        ``span`` is not a 2-D array with one row per row of M.
    numpy.linalg.LinAlgError
        If the eigensolver does not converge.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    m = np.asarray(matrix)
    _require_hermitian(m, "psd_sqrt_shifted")
    p = m.shape[0]
    basis = np.asarray(span)
    if basis.ndim != 2 or basis.shape[0] != p:
        raise ValueError(f"psd_sqrt_shifted: span of shape {basis.shape} does not "
                         f"have the {p} rows of the matrix")
    complex_field = m.dtype.kind == "c" or basis.dtype.kind == "c"
    names = ("geqrf", "ungqr", "heevd") if complex_field else ("geqrf", "orgqr", "syevd")
    geqrf, ungqr, heevd = _routines(complex_field, *names)
    qr, tau, _, _ = geqrf(basis)
    q, _, _ = ungqr(qr[:, :tau.size], tau, overwrite_a=1)
    w, v, info = heevd(q.conj().T @ m @ q, lower=1, overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError("psd_sqrt_shifted: eigenvalues did not converge")
    u = q @ v
    root = math.sqrt(epsilon)
    a = np.abs(w)
    out = (u * (a * (a / (np.hypot(a, root) + root)))) @ u.conj().T
    out.reshape(-1)[:: p + 1] += root
    return out


def solve_pd(matrix, rhs):
    """Solve H x = v for positive-definite hermitian H without forming H⁻¹.

    A Cholesky factorization from the lower triangle of H (LAPACK ``potrf``)
    and two triangular solves (``potrs``), called directly in double
    precision: for float64 and complex128 inputs the result is bit-identical
    to ``scipy.linalg.cho_solve(cho_factor(H, lower=True), v)``.

    Raises
    ------
    ValueError
        If H or v holds a NaN or an infinity.
    numpy.linalg.LinAlgError
        If H is not positive definite.  Downstream code treats this as a
        post-processing bug rather than a recoverable condition.
    """
    h = np.asarray(matrix)
    v = np.asarray(rhs)
    if not (np.isfinite(h).all() and np.isfinite(v).all()):
        raise ValueError("solve_pd: matrix and right-hand side must not contain infs or NaNs")
    complex_matrix = h.dtype.kind == "c"
    potrf, = _routines(complex_matrix, "potrf")
    potrs, = _routines(complex_matrix or v.dtype.kind == "c", "potrs")
    factor, info = potrf(h, lower=1, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the matrix is not positive definite")
    if info < 0:
        raise ValueError(f"solve_pd: illegal value in argument {-info} of potrf")
    x, info = potrs(factor, v, lower=1)
    if info != 0:
        raise ValueError(f"solve_pd: illegal value in argument {-info} of potrs")
    return x
