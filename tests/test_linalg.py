import inspect
import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg
from scipy.linalg import cho_factor, cho_solve

from spsakit.estimators import sample_perturbation
from spsakit import linalg
from spsakit.linalg import (HERMITICITY_ATOL, _lapack, _require_hermitian, blas_threads,
                            hermitize, matrix_abs, one_blas_thread, psd_sqrt_shifted,
                            solve_pd)


def random_hermitian(p, rng):
    m = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    return (m + m.conj().T) / 2


class TestHermitize:
    def test_real_example(self):
        m = np.array([[-2.0, 2.0], [-2.0, 2.0]])
        np.testing.assert_allclose(hermitize(m), np.diag([-2.0, 2.0]))

    def test_identity_fixed_point(self):
        np.testing.assert_array_equal(hermitize(np.eye(3)), np.eye(3))

    def test_already_hermitian_complex(self):
        m = np.array([[0, 1j], [-1j, 0]])
        np.testing.assert_allclose(hermitize(m), m)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        once = hermitize(m)
        np.testing.assert_allclose(hermitize(once), once, atol=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            hermitize(np.ones((2, 3)))


class TestRequireHermitian:
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_accepts_hermitian_to_the_bit_and_within_tolerance(self, dtype):
        rng = np.random.default_rng(2)
        m = hermitize(rng.standard_normal((6, 6)).astype(dtype))
        _require_hermitian(m, "op")
        m[0, 1] += 0.5 * HERMITICITY_ATOL
        _require_hermitian(m, "op")
        # the tolerance scales with the largest entry
        _require_hermitian(np.array([[1e6, 1e6 + 1e-7], [1e6, 1e6]]), "op")

    @pytest.mark.parametrize("bad", [
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.array([[0.0, 1j], [1j, 0.0]]),
        np.array([[1e6, 1e6 + 1e-5], [1e6, 1e6]]),
    ])
    def test_rejects_beyond_tolerance(self, bad):
        with pytest.raises(ValueError, match=f"op: matrix is not hermitian within "
                                             f"{HERMITICITY_ATOL}"):
            _require_hermitian(bad, "op")

    def test_nan_passes_as_before(self):
        # NaN compares unequal, so the exact test does not decide; the
        # tolerance test lets NaN through, and a later check catches it.
        _require_hermitian(np.array([[np.nan, 1.0], [1.0, 0.0]]), "op")

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="op: expected a square matrix"):
            _require_hermitian(np.ones((2, 3)), "op")


class TestMatrixAbs:
    def test_diagonal_example(self):
        np.testing.assert_allclose(matrix_abs(np.diag([-0.5, 1.5])), np.diag([0.5, 1.5]),
                                   atol=1e-12)

    def test_psd_diagonal_untouched(self):
        np.testing.assert_allclose(matrix_abs(np.diag([4.0, 9.0])), np.diag([4.0, 9.0]),
                                   atol=1e-12)

    def test_zero(self):
        np.testing.assert_allclose(matrix_abs(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_result_is_psd(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = random_hermitian(6, rng)
            w = np.linalg.eigvalsh(matrix_abs(m))
            assert w.min() >= -1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            matrix_abs(np.array([[0.0, 1.0], [0.0, 0.0]]))


def pairs(m):
    """Hermitian M as `psd_sqrt_shifted` takes it: the coefficients p·λ_i and
    the row pairs (v_i, v_i) of its p eigenpairs, so that
    M = Σ_i (p·λ_i)(v_iv_i† + v_iv_i†)/(2p)."""
    w, v = np.linalg.eigh(m)
    return w.size * w, np.stack([v.T, v.T], axis=1)


def diagonal(w):
    """diag(w) as `pairs` gives it, with the unit vectors as rows."""
    e = np.eye(len(w))
    return len(w) * np.asarray(w, dtype=float), np.stack([e, e], axis=1)


class TestPsdSqrtShifted:
    def test_zero_matrix(self):
        out = psd_sqrt_shifted(*diagonal([0.0, 0.0]), 1e-4)
        np.testing.assert_allclose(out, np.diag([1e-2, 1e-2]), atol=1e-14)

    def test_scalar_diagonal(self):
        eps = 1e-3
        out = psd_sqrt_shifted(*diagonal([3.0]), eps)
        np.testing.assert_allclose(out, [[np.sqrt(9.0 + eps)]])

    def test_identity_small_eps_limit(self):
        out = psd_sqrt_shifted(*diagonal([1.0] * 3), 1e-14)
        np.testing.assert_allclose(out, np.eye(3), atol=1e-7)

    def test_min_eigenvalue_at_least_sqrt_eps(self):
        rng = np.random.default_rng(2)
        eps = 1e-4
        for _ in range(20):
            m = random_hermitian(5, rng)
            w = np.linalg.eigvalsh(psd_sqrt_shifted(*pairs(m), eps))
            assert w.min() >= np.sqrt(eps) - 1e-12

    @pytest.mark.parametrize("span", [False, True])
    @pytest.mark.parametrize("huge", [1e160, -1e200, 1e300])
    def test_eigenvalue_whose_square_overflows(self, huge, span):
        # √(λ² + ε) for λ past 1e154, without overflow or a warning; with
        # ``span``, the rows leave out the direction of the zero eigenvalue
        eps = 1e-4
        coefficients, rows = diagonal([huge, 2.0, 0.0])
        if span:
            coefficients, rows = 2 * np.array([huge, 2.0]), rows[:2]
        out = psd_sqrt_shifted(coefficients, rows, eps)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(np.diag(out), [abs(huge), np.sqrt(4.0 + eps), np.sqrt(eps)],
                                   rtol=1e-14)
        assert np.abs(out[~np.eye(3, dtype=bool)]).max() <= 1e-15 * abs(huge)

    @pytest.mark.parametrize("eps", [1e-4, 1e-3])
    def test_within_4_ulps_of_the_root_from_1e_minus_300_to_1e308(self, eps):
        # one formula for every eigenvalue, tiny, near √ε, or past 1e154:
        # each as the one coefficient of a 1 × 1 estimate, M = λ exactly
        magnitudes = np.concatenate([np.logspace(-300, 308, 77), np.geomspace(1e-4, 1e2, 25)])
        w = np.concatenate([-magnitudes, magnitudes])
        got = np.array([psd_sqrt_shifted([lam], np.ones((1, 2, 1)), eps)[0, 0] for lam in w])
        wide = np.longdouble(w)
        expected = np.sqrt(wide * wide + np.longdouble(eps)).astype(np.float64)
        assert np.isfinite(got).all()
        assert (np.abs(got - expected) <= 4 * np.spacing(expected)).all()

    def test_overflowing_eigenvalues_of_a_rotated_matrix(self):
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        w = np.array([-3e250, 1e-3, 2.0, 1e200])
        out = psd_sqrt_shifted(4 * w, np.stack([q.T, q.T], axis=1), 1e-4)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(np.linalg.eigvalsh(out), np.sort(np.abs(w)), rtol=1e-12,
                                   atol=1e-12 * 3e250)

    def test_nonpositive_eps_rejected(self):
        for eps in (0.0, -1e-3, -np.inf):
            with pytest.raises(ValueError, match="epsilon"):
                psd_sqrt_shifted(*diagonal([1.0, 1.0]), eps)

    @pytest.mark.parametrize("eps", [np.inf, np.nan])
    def test_nonfinite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="epsilon"):
            psd_sqrt_shifted(*diagonal([1.0, 1.0]), eps)


class TestSolvePd:
    def test_identity(self):
        v = np.array([1.0 + 2j, -3.0])
        np.testing.assert_allclose(solve_pd(np.eye(2, dtype=complex), v), v)

    def test_diagonal(self):
        np.testing.assert_allclose(solve_pd(np.diag([2.0, 4.0]), np.array([2.0, 4.0])),
                                   [1.0, 1.0])

    def test_matches_dense_inverse(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = a @ a.conj().T + 0.5 * np.eye(2)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        np.testing.assert_allclose(solve_pd(h, v), np.linalg.inv(h) @ v, atol=1e-10)

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        for p in (2, 5, 9):
            a = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
            h = a @ a.conj().T + np.eye(p)
            v = rng.standard_normal(p) + 1j * rng.standard_normal(p)
            x = solve_pd(h, v)
            np.testing.assert_allclose(h @ x, v, rtol=1e-9, atol=1e-9)

    def test_not_pd_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            solve_pd(np.diag([1.0, -1.0]), np.ones(2))


class TestSharedEigenbasis:
    def test_commutes_with_input(self):
        rng = np.random.default_rng(5)
        for p in (2, 8, 16):
            m = random_hermitian(p, rng)
            for result in (matrix_abs(m), psd_sqrt_shifted(*pairs(m), 1e-4)):
                comm = result @ m - m @ result
                assert np.abs(comm).max() <= 1e-10

    def test_matrix_abs_shift_floor(self):
        rng = np.random.default_rng(6)
        eps = 1e-3
        for _ in range(10):
            m = random_hermitian(6, rng)
            w = np.linalg.eigvalsh(matrix_abs(m) + eps * np.eye(6))
            assert w.min() >= eps - 1e-12


def reference_psd_sqrt_shifted(m, epsilon):
    """√(M² + εI) from the full spectral decomposition of M, by `np.linalg.eigh`."""
    w, u = np.linalg.eigh(m)
    return (u * np.sqrt(w * w + epsilon)) @ u.conj().T


# How each δ̃_r relates to its δ_r: drawn independently, or a unit multiple
# of it, which makes δ_r δ̃_r† rank 1 and the span rank-deficient.  The
# imaginary multiples apply to the complex field only.
_TILDE = {"independent": None, "+δ": 1.0, "-δ": -1.0, "+iδ": 1j, "-iδ": -1j}


def outer_product_estimate(field, p, n_r, tilde, seed, repeated=False):
    """The N_R coefficients c_r and (N_R, 2, p) rows Δ_r, Δ̃_r of an estimate
    as `run` hands them over, and its hermitian part formed explicitly,
    M = Σ_r c_r(Δ_rΔ̃_r† + Δ̃_rΔ_r†)/(2N_R).  With ``repeated``, every pair
    is the first one, which makes the span rank-deficient too."""
    rng = np.random.default_rng(seed)
    rows = sample_perturbation(p, field, rng, 2 * n_r).reshape(n_r, 2, p)
    if _TILDE[tilde] is not None:
        rows[:, 1] = _TILDE[tilde] * rows[:, 0]
    if repeated:
        rows[1:] = rows[0]
    coefficients = rng.standard_normal(n_r)
    m = sum(c * (np.outer(d, np.conj(dt)) + np.outer(dt, np.conj(d)))
            for c, (d, dt) in zip(coefficients, rows)) / (2 * n_r)
    return coefficients, rows, m


@st.composite
def _estimates(draw):
    field = draw(st.sampled_from(["real", "complex"]))
    tilde = draw(st.sampled_from(list(_TILDE) if field == "complex" else list(_TILDE)[:3]))
    return (field, draw(st.integers(1, 40)), draw(st.integers(1, 3)), tilde,
            draw(st.integers(0, 2**32 - 1)), draw(st.booleans()))


_EPSILONS = st.sampled_from([1e-8, 1e-4, 1e-2, 1.0])


class TestPsdSqrtShiftedOnASpan:
    @settings(max_examples=120, deadline=None)
    @given(estimate=_estimates(), epsilon=_EPSILONS)
    @example(estimate=("complex", 1, 3, "independent", 0, False), epsilon=1e-4)  # p < 2·N_R
    @example(estimate=("real", 3, 2, "independent", 1, False), epsilon=1e-4)
    @example(estimate=("complex", 40, 3, "+iδ", 2, False), epsilon=1e-4)  # rank 1 per term
    @example(estimate=("real", 40, 1, "-δ", 3, False), epsilon=1e-8)
    @example(estimate=("real", 40, 3, "+δ", 4, True), epsilon=1e-4)  # Δ̃ = Δ, repeated
    @example(estimate=("complex", 2, 3, "independent", 5, True), epsilon=1e-2)
    def test_matches_the_full_decomposition(self, estimate, epsilon):
        coefficients, rows, m = outer_product_estimate(*estimate)
        full = reference_psd_sqrt_shifted(m, epsilon)
        factored = psd_sqrt_shifted(coefficients, rows, epsilon)
        assert factored.dtype == full.dtype
        assert np.abs(factored - full).max() <= 1e-12 * np.abs(full).max()

    @settings(max_examples=120, deadline=None)
    @given(estimate=_estimates(), epsilon=_EPSILONS)
    @example(estimate=("complex", 1, 3, "independent", 0, False), epsilon=1e-4)
    @example(estimate=("complex", 40, 3, "-iδ", 2, False), epsilon=1e-4)
    @example(estimate=("complex", 37, 1, "-δ", 2277, False), epsilon=1e-4)
    def test_hermitian_with_eigenvalues_at_least_sqrt_eps(self, estimate, epsilon):
        coefficients, rows, _ = outer_product_estimate(*estimate)
        out = psd_sqrt_shifted(coefficients, rows, epsilon)
        norm = np.linalg.norm(out, 2)
        assert np.abs(out - out.conj().T).max() <= 1e-12 * norm
        # eigvalsh resolves an eigenvalue of `out` only to about 1e-16·‖out‖,
        # which passes 1e-12·√ε once ‖out‖ ≳ 1e4·√ε (3e-12·√ε at p = 37,
        # ε = 1e-4 for the full decomposition too), so the floor holds to
        # 1e-12 of the larger of √ε and ‖out‖.
        root = np.sqrt(epsilon)
        assert np.linalg.eigvalsh(out).min() >= root - 1e-12 * max(root, norm)

    @settings(max_examples=60, deadline=None)
    @given(field=st.sampled_from(["real", "complex"]), p=st.integers(1, 20),
           seed=st.integers(0, 2**32 - 1), epsilon=_EPSILONS)
    def test_any_hermitian_matrix_as_pairs_gives_the_dense_root(self, field, p, seed,
                                                                 epsilon):
        # M = Σ_i λ_i v_iv_i† as the p coefficients p·λ_i with the pairs
        # (v_i, v_i) gives √(M² + εI) of the dense eigendecomposition
        m = _field_array(field, (p, p), np.random.default_rng(seed))
        m = (m + m.conj().T) / 2
        full = reference_psd_sqrt_shifted(m, epsilon)
        factored = psd_sqrt_shifted(*pairs(m), epsilon)
        assert factored.dtype == full.dtype
        assert np.abs(factored - full).max() <= 1e-12 * np.abs(full).max()

    @pytest.mark.parametrize("n_r", [2, 0])
    def test_vanishing_matrix_gives_sqrt_eps_identity(self, n_r):
        rows = sample_perturbation(5, "complex", np.random.default_rng(0), 4)[:2 * n_r]
        out = psd_sqrt_shifted(np.zeros(n_r), rows.reshape(n_r, 2, 5), 1e-4)
        np.testing.assert_array_equal(out, 1e-2 * np.eye(5))

    @pytest.mark.parametrize("shape", [(2, 5), (1, 3, 5), (2, 2, 5), (5,), (1, 1, 2, 5)])
    def test_rows_with_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="rows"):
            psd_sqrt_shifted([0.5], np.ones(shape), 1e-4)


def _pd_matrix(field, p, rng):
    a = rng.standard_normal((p, p))
    if field == "complex":
        a = a + 1j * rng.standard_normal((p, p))
    return a @ a.conj().T + 0.1 * np.eye(p)


def _vector(field, p, rng):
    v = rng.standard_normal(p)
    return v + 1j * rng.standard_normal(p) if field == "complex" else v


class TestSolvePdAgainstScipy:
    @settings(max_examples=60, deadline=None)
    @given(field=st.sampled_from(["real", "complex"]), p=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    def test_relative_residual_within_p_eps_and_agrees_with_cho_solve(self, field, p, seed):
        # solve_pd checks by Cholesky and solves by LU, so it is no longer
        # bit-identical to SciPy's Cholesky solve.  Its relative residual
        # ‖Hx − v‖/(‖H‖‖x‖ + ‖v‖) stays within p·ε, which cho_solve's own
        # solution also met in 3000 seeded draws (at most 0.97·p·ε, against
        # at most 0.47·p·ε for solve_pd), and the two solutions agree to
        # 4·p·ε·κ(H), within the forward error either may have (at most
        # 1.9·p·ε·κ(H) in those draws).  All norms are ∞-norms.
        rng = np.random.default_rng(seed)
        h, v = _pd_matrix(field, p, rng), _vector(field, p, rng)
        expected = cho_solve(cho_factor(h, lower=True), v)
        got = solve_pd(h, v)
        assert got.dtype == expected.dtype
        eps = np.finfo(np.float64).eps
        norm = partial(np.linalg.norm, ord=np.inf)
        assert norm(h @ got - v) <= p * eps * (norm(h) * norm(got) + norm(v))
        kappa = np.linalg.cond(h, np.inf)
        assert norm(got - expected) <= 4 * p * eps * kappa * norm(expected)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_indefinite_matrix_raises_linalg_error(self, field):
        rng = np.random.default_rng(1)
        h = _pd_matrix(field, 6, rng)
        h[3, 3] = -100.0
        with pytest.raises(np.linalg.LinAlgError):
            solve_pd(h, _vector(field, 6, rng))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["matrix", "rhs"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_non_finite_input_raises_value_error(self, field, where, bad):
        rng = np.random.default_rng(2)
        h, v = _pd_matrix(field, 4, rng), _vector(field, 4, rng)
        if where == "matrix":
            h[1, 2] = bad
        else:
            v[3] = bad
        with pytest.raises(ValueError):
            solve_pd(h, v)


# The float64 and complex128 loops of each numpy LAPACK gufunc the library
# calls.
_LOOPS = {
    "qr_r_raw": ("d->d", "D->D"),
    "qr_reduced": ("dd->d", "DD->D"),
    "eigh_lo": ("d->dd", "D->dD"),
    "cholesky_lo": ("d->d", "D->D"),
    "solve1": ("dd->d", "DD->D"),
}


def _loop(name, field):
    return _LOOPS[name][field == "complex"]


def _call(name, field, *args):
    return _lapack(getattr(_umath_linalg, name), _loop(name, field), *args, failure=name)


def _identical(got, expected):
    return got.dtype == expected.dtype and got.shape == expected.shape and (
        got.tobytes() == expected.tobytes())


def _spans(field, p, rng):
    """p-row spans of an even column count, as the Δ, Δ̃ pairs of an estimate
    give: full rank with 2, p or p + 1 and p + 3 or p + 4 columns, and
    rank-deficient, with a repeated, a scaled and a zero column."""
    yield from (_field_array(field, (p, r + r % 2), rng) for r in (2, p, p + 3))
    span = _field_array(field, (p, 6), rng)
    span[:, 1] = span[:, 0]
    span[:, 3] = -2.5 * span[:, 2]
    span[:, 5] = 0
    yield span


def _field_array(field, shape, rng):
    a = rng.standard_normal(shape)
    return a + 1j * rng.standard_normal(shape) if field == "complex" else a


class TestNumpyLapackContract:
    """``spsakit.linalg`` calls gufuncs of numpy's private
    ``numpy.linalg._umath_linalg`` directly.  A numpy release that renames
    one, drops a loop, or changes what it computes fails here: each must give
    what the public ``np.linalg`` function that wraps it gives, bit for bit."""

    def test_every_gufunc_exists_with_float64_and_complex128_loops(self):
        called = set(re.findall(r"_umath_linalg\.(\w+)", inspect.getsource(linalg)))
        assert called == set(_LOOPS)
        for name, loops in _LOOPS.items():
            gufunc = getattr(_umath_linalg, name)
            assert isinstance(gufunc, np.ufunc)
            assert set(loops) <= set(gufunc.types), name

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_qr_is_np_linalg_qr_and_psd_sqrt_shifted_uses_it(self, monkeypatch, field):
        factored = {}

        def spy(gufunc, signature, *args, failure):
            factored[gufunc.__name__] = _lapack(gufunc, signature, *args, failure=failure)
            return factored[gufunc.__name__]

        monkeypatch.setattr(linalg, "_lapack", spy)
        rng = np.random.default_rng(0)
        for p in range(1, 65):
            for span in _spans(field, p, rng):
                factors = span.astype(_loop("qr_r_raw", field)[0])
                tau = _call("qr_r_raw", field, factors)
                q = _call("qr_reduced", field, factors, tau)
                expected = np.linalg.qr(span).Q
                assert _identical(q, expected), (p, span.shape)
                # the Q of the span's columns as row pairs, which
                # psd_sqrt_shifted factors
                pairs_of_rows = span.T.reshape(-1, 2, p)
                psd_sqrt_shifted(np.zeros(len(pairs_of_rows)), pairs_of_rows, 1e-4)
                assert _identical(factored["qr_reduced"], expected), (p, span.shape)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_eigh_lo_is_np_linalg_eigh_and_matrix_abs_uses_it(self, field):
        rng = np.random.default_rng(1)
        for p in range(1, 65):
            full = hermitize(_field_array(field, (p, p), rng))
            span = next(_spans(field, p, rng))[:, :1]
            low_rank = hermitize(span @ span.conj().T)  # rank 1
            for m in (full, low_rank):
                w, v = _call("eigh_lo", field, m)
                expected_w, expected_v = np.linalg.eigh(m)
                assert _identical(w, expected_w) and _identical(v, expected_v), p
                assert _identical(matrix_abs(m),
                                  (expected_v * np.abs(expected_w)) @ expected_v.conj().T), p

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_cholesky_and_solve_are_np_linalg_and_solve_pd_uses_them(self, field):
        rng = np.random.default_rng(2)
        for p in range(1, 65):
            h, v = _pd_matrix(field, p, rng), _vector(field, p, rng)
            assert _identical(_call("cholesky_lo", field, h), np.linalg.cholesky(h)), p
            expected = np.linalg.solve(h, v)
            assert _identical(_call("solve1", field, h, v), expected), p
            assert _identical(solve_pd(h, v), expected), p
            if field == "complex":  # a real matrix with a complex right-hand side
                assert _identical(solve_pd(h.real, v), np.linalg.solve(h.real, v)), p

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_a_failed_factorization_raises_linalg_error_as_np_linalg_does(self, field):
        rng = np.random.default_rng(3)
        indefinite = _pd_matrix(field, 5, rng)
        indefinite[2, 2] = -100.0
        singular = np.zeros((5, 5), dtype=indefinite.dtype)
        for name, args, public in (("cholesky_lo", (indefinite,), np.linalg.cholesky),
                                   ("solve1", (singular, _vector(field, 5, rng)),
                                    np.linalg.solve)):
            with pytest.raises(np.linalg.LinAlgError):
                public(*args)
            with pytest.raises(np.linalg.LinAlgError, match=f"^{name}$"):
                _call(name, field, *args)


class TestBlasThreads:
    def test_one_thread_inside_and_the_callers_count_after(self):
        before = blas_threads()
        with one_blas_thread() as caller:
            assert caller == before
            assert blas_threads() == (None if before is None else 1)
        assert blas_threads() == before

    def test_count_restored_when_the_block_raises(self):
        before = blas_threads()
        with pytest.raises(RuntimeError):
            with one_blas_thread():
                raise RuntimeError("boom")
        assert blas_threads() == before

    def test_reads_numpys_bundled_openblas(self):
        bundled = list((Path(np.__file__).parent.parent / "numpy.libs").glob(
            "libscipy_openblas64_*"))
        assert (blas_threads() is None) == (not bundled)

    def test_no_op_without_the_library(self, monkeypatch):
        monkeypatch.setattr(linalg, "_openblas_threads", lambda: None)
        assert blas_threads() is None
        with one_blas_thread() as caller:
            assert caller is None
