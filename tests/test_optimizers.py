import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from optimizer_reference import reference_run

import spsakit.linalg as linalg
import spsakit.optimizers as optimizers
from spsakit.applications import VqeProblem
from spsakit.bench import run_single
from spsakit.estimators import (GAIN_PRESETS, GainSchedule, gains_at, resample,
                                sample_perturbation)
from spsakit.linalg import hermitize, matrix_abs, solve_pd
from spsakit.optimizers import (
    OptimizerConfig,
    estimate_blocking_tolerance,
    method_label,
    postprocess_gidi,
    postprocess_spall,
    run,
)

STATIC = GAIN_PRESETS["static"]


I2 = np.eye(2)


def diagonal(w, dtype=float):
    """diag(w) as an estimate's coefficients p·w_i and row pairs (e_i, e_i)."""
    e = np.eye(len(w), dtype=dtype)
    return len(w) * np.asarray(w, dtype=float), np.stack([e, e], axis=1)


def random_estimate(field, p, n_r, rng):
    """N_R random coefficients and (N_R, 2, p) random rows of ``field``."""
    rows = rng.standard_normal((n_r, 2, p))
    if field == "complex":
        rows = rows + 1j * rng.standard_normal((n_r, 2, p))
    return rng.standard_normal(n_r), rows


def dense_estimate(coefficients, rows):
    """The p × p mean Σ_r c_r·Δ_rΔ̃_r†/N_R, summed as `run` summed it before
    estimates were handed over as coefficients and rows."""
    h_sum = 0.0
    for c, (delta, delta_tilde) in zip(coefficients, rows):
        h_sum += c * np.outer(delta, np.conj(delta_tilde))
    return h_sum / len(coefficients)


class TestPostprocessSpall:
    def test_worked_example(self):
        # 2·ΔΔ̃† with Δ = (1, 1), Δ̃ = (−1, 1) is [[−2, 2], [−2, 2]]
        memory, out = postprocess_spall([2.0], [[[1.0, 1.0], [-1.0, 1.0]]], I2, 1, 1e-3)
        np.testing.assert_allclose(memory, np.diag([-0.5, 1.5]))
        np.testing.assert_allclose(out, np.diag([0.501, 1.501]), atol=1e-12)

    def test_identity_fixed_point(self):
        memory = np.eye(3, dtype=complex)
        eps = 1e-3
        for k in range(1, 6):
            memory, out = postprocess_spall(*diagonal([1.0] * 3, complex), memory, k, eps)
            np.testing.assert_allclose(out, (1 + eps) * np.eye(3), atol=1e-12)

    def test_zero_input_first_step(self):
        memory, out = postprocess_spall(*diagonal([0.0, 0.0]), I2, 1, 1e-3)
        np.testing.assert_allclose(memory, 0.5 * np.eye(2))
        np.testing.assert_allclose(out, (0.5 + 1e-3) * np.eye(2), atol=1e-12)

    def test_scalar_mode(self):
        memory, out = postprocess_spall([-1.0, -3.0], None, 1.0, 1, 1e-3)
        assert memory == pytest.approx(-0.5)
        assert out == pytest.approx(0.501)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            postprocess_spall(*diagonal([0.0] * 3), I2, 1, 1e-3)

    def test_memory_stays_hermitian(self):
        rng = np.random.default_rng(0)
        memory = np.eye(4, dtype=complex)
        for k in range(1, 11):
            memory, _ = postprocess_spall(*random_estimate("complex", 4, 2, rng), memory, k,
                                          1e-3)
            np.testing.assert_allclose(memory, memory.conj().T, atol=1e-12)

    @pytest.mark.parametrize("n_r", [1, 2, 3, 7])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_forms_the_old_dense_mean_bit_for_bit(self, field, n_r):
        # the p × p mean summed into 0.0 in resample order, then hermitized,
        # blended and regularized, as before estimates were factored
        rng = np.random.default_rng(n_r)
        p, k, eps = 5, 3, 1e-3
        rows = sample_perturbation(p, field, rng, 2 * n_r).reshape(n_r, 2, p)
        coefficients = list(rng.standard_normal(n_r))
        coefficients[0] = -0.0  # the sum into 0.0 turns -0.0 entries into 0.0
        a = rng.standard_normal((p, p)) + (1j * rng.standard_normal((p, p))
                                           if field == "complex" else 0)
        previous = hermitize(a)
        memory, out = postprocess_spall(coefficients, rows, previous, k, eps)
        blend = (k / (k + 1)) * previous + hermitize(dense_estimate(coefficients, rows)) / (k + 1)
        assert memory.tobytes() == blend.tobytes()
        expected = matrix_abs(blend) + eps * np.eye(p, dtype=blend.dtype)
        assert out.tobytes() == expected.tobytes()


class TestPostprocessGidi:
    def test_zero_input_blend(self):
        eps = 1e-4
        memory = I2
        for k in range(1, 20):
            memory, out = postprocess_gidi(*diagonal([0.0, 0.0]), memory, k, eps)
            w = np.linalg.eigvalsh(out)
            assert w.min() >= np.sqrt(eps) - 1e-12
            assert w.max() <= 1.0 + 1e-12
            # proportional to the identity for vanishing input
            np.testing.assert_allclose(out, out[0, 0] * np.eye(2), atol=1e-12)

    def test_worked_example_small_eps(self):
        _, out = postprocess_gidi(*diagonal([3.0, -3.0]), I2, 1, 1e-12)
        np.testing.assert_allclose(out, np.diag([2.0, 2.0]), atol=1e-5)

    def test_differs_from_spall_on_vanishing_hessian(self):
        eps = 1e-3
        spall_memory = gidi_memory = I2
        estimate = diagonal([0.0, 0.0])
        for k in range(1, 51):
            spall_memory, spall_out = postprocess_spall(*estimate, spall_memory, k, eps)
            gidi_memory, gidi_out = postprocess_gidi(*estimate, gidi_memory, k, eps)
        # spall decays to eps*I, gidi stays lower-bounded by sqrt(eps)*I
        assert np.linalg.eigvalsh(spall_out).max() < 0.05
        assert np.linalg.eigvalsh(gidi_out).min() >= np.sqrt(eps) - 1e-12
        np.testing.assert_allclose(gidi_out, gidi_out[0, 0] * np.eye(2), atol=1e-12)

    def test_scalar_mode(self):
        _, out = postprocess_gidi([0.0], None, 1.0, 1, 1e-4)
        assert out == pytest.approx(0.5 * (1.0 + 1e-2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            postprocess_gidi(*diagonal([0.0] * 3), I2, 1, 1e-4)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_never_forms_or_checks_a_p_by_p_estimate(self, monkeypatch, field):
        def refuse(*args):
            raise AssertionError("the gidi path formed or checked a p × p estimate")

        for name in ("hermitize", "_require_hermitian"):
            monkeypatch.setattr(linalg, name, refuse)
        monkeypatch.setattr(optimizers, "hermitize", refuse)
        monkeypatch.setattr(np, "outer", refuse)
        rng = np.random.default_rng(1)
        memory = np.eye(6, dtype=complex if field == "complex" else float)
        blend, _ = postprocess_gidi(*random_estimate(field, 6, 2, rng), memory, 1, 1e-4)
        assert blend.shape == (6, 6)


def _regularized(postproc, h_prime, epsilon):
    """The summand Ĥ_k each post-processing blends: H′ itself for spall, and
    √(H′² + εI) from a full `eigh` for gidi."""
    if postproc == "spall":
        return h_prime
    if np.isscalar(h_prime):
        return np.sqrt(h_prime * h_prime + epsilon)
    w, u = np.linalg.eigh(h_prime)
    return (u * np.sqrt(w * w + epsilon)) @ u.conj().T


class TestPostprocessingIsPure:
    """Both post-processings return Spall's blend k/(k+1)·H̄ + Ĥ/(k+1) for the
    k they are given, and modify neither the estimate nor the blend."""

    @pytest.mark.parametrize("postproc", ["spall", "gidi"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("k", [1, 2, 7, 1000])
    def test_matrix_blend_for_the_given_k(self, postproc, field, k):
        rng = np.random.default_rng(k)
        dtype = complex if field == "complex" else float
        p, eps = 4, 1e-3
        coefficients, rows = random_estimate(field, p, 2, rng)
        a = rng.standard_normal((p, p)) + (1j * rng.standard_normal((p, p))
                                           if field == "complex" else 0)
        previous = hermitize(a)
        copies = coefficients.copy(), rows.copy(), previous.copy()
        fn = postprocess_spall if postproc == "spall" else postprocess_gidi
        memory, preconditioner = fn(coefficients, rows, previous, k, eps)
        for array, copy in zip((coefficients, rows, previous), copies):
            assert array.tobytes() == copy.tobytes()
        expected = k / (k + 1) * previous + _regularized(
            postproc, hermitize(dense_estimate(coefficients, rows)), eps) / (k + 1)
        assert memory.dtype == np.dtype(dtype)
        np.testing.assert_allclose(memory, expected, rtol=1e-12, atol=1e-12)
        if postproc == "gidi":
            np.testing.assert_array_equal(preconditioner, memory)
        else:
            np.testing.assert_allclose(
                preconditioner, matrix_abs(expected) + eps * np.eye(p), atol=1e-12)

    @pytest.mark.parametrize("postproc", ["spall", "gidi"])
    @pytest.mark.parametrize("k", [1, 3, 50])
    def test_scalar_blend_for_the_given_k(self, postproc, k):
        eps, previous, coefficients = 1e-3, 0.75, [-2.0, -3.0]
        fn = postprocess_spall if postproc == "spall" else postprocess_gidi
        memory, preconditioner = fn(coefficients, None, previous, k, eps)
        expected = k / (k + 1) * previous + _regularized(postproc, -2.5, eps) / (k + 1)
        assert memory == pytest.approx(expected, rel=1e-15)
        assert preconditioner == pytest.approx(
            abs(expected) + eps if postproc == "spall" else expected, rel=1e-15)


class TestSteps:
    """One iteration of `run` from z₀ takes its method's step: z₀ − a₁·g
    first order, z₀ − ā₁·g/h in scalar mode and z₀ − ā₁·H̄⁻¹g otherwise, with
    g and the estimate drawn from the run's seed as `run` draws them, one Δ
    (and Δ̃) per resample, and h or H̄ built by ``postprocess_*``."""

    SEED = 4

    @classmethod
    def _first_estimates(cls, config, f, fid, z0):
        """g, and the coefficients and rows of the estimate (None first
        order), of iteration 1."""
        rng = np.random.default_rng(cls.SEED)
        _, _, b1 = gains_at(config.gains, 1)
        delta = sample_perturbation(z0.size, config.field, rng)
        if config.method == "first_order":
            return resample(config.method, f, fid, z0, b1, delta)[0], None, None
        delta_tilde = sample_perturbation(z0.size, config.field, rng)
        g, c = resample(config.method, f, fid, z0, b1, delta, delta_tilde)
        return g, [c], np.array([[delta, delta_tilde]])

    @classmethod
    def _one_iteration(cls, config, f, z0, fid=None):
        config = dataclasses.replace(config, gains=STATIC, max_iterations=1)
        trace = run(f, config, z0, seed=cls.SEED, fidelity=fid, monitor=f)
        return trace.final_params, config

    def test_first_order_zero_gradient(self):
        z0 = np.array([1.0 + 1.0j, -0.5j])
        final, _ = self._one_iteration(OptimizerConfig(), lambda z: 1.0, z0)
        np.testing.assert_array_equal(final, z0)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_first_order_example(self, field):
        c, f, _ = quadratic_problem(field, p=3)
        z0 = c + (1.0 - 0.5j if field == "complex" else 1.0)
        final, config = self._one_iteration(OptimizerConfig(field=field), f, z0)
        g, _, _ = self._first_estimates(config, f, None, z0)
        a1, _, _ = gains_at(STATIC, 1)
        assert final.tobytes() == (z0 - a1 * g).tobytes()

    @pytest.mark.parametrize("diagonal", [[1.0, 1.0, 1.0], [2.0, 4.0, 0.5]])
    def test_matrix_step_solves_with_the_preconditioner(self, monkeypatch, diagonal):
        # H̄ = I reduces the step to a first-order one with gain ā₁; a
        # diagonal H̄ divides each entry of g by its own eigenvalue
        monkeypatch.setattr(optimizers, "postprocess_spall",
                            lambda coefficients, rows, memory, k, eps: (memory,
                                                                        np.diag(diagonal)))
        c, f, _ = quadratic_problem("real", p=3)
        z0 = c + 1.0
        final, config = self._one_iteration(
            OptimizerConfig(method="second_order", field="real", postproc="spall"), f, z0)
        g, _, _ = self._first_estimates(config, f, None, z0)
        _, abar1, _ = gains_at(STATIC, 1)
        np.testing.assert_allclose(final, z0 - abar1 * g / np.array(diagonal),
                                   rtol=1e-14, atol=0)

    @pytest.mark.parametrize("postproc", ["spall", "gidi"])
    @pytest.mark.parametrize("scalar", [False, True])
    @pytest.mark.parametrize("method", ["second_order", "quantum_natural"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_preconditioned_example(self, field, method, scalar, postproc):
        c, f, fid = quadratic_problem(field, p=3)
        z0 = c + (1.0 - 0.5j if field == "complex" else 1.0)
        final, config = self._one_iteration(
            OptimizerConfig(method=method, field=field, scalar=scalar, postproc=postproc),
            f, z0, fid)
        g, coefficients, rows = self._first_estimates(config, f, fid, z0)
        memory = 1.0 if scalar else np.eye(3, dtype=final.dtype)
        fn = postprocess_spall if postproc == "spall" else postprocess_gidi
        _, h = fn(coefficients, rows, memory, 1, config.effective_epsilon)
        _, abar1, _ = gains_at(STATIC, 1)
        expected = z0 - abar1 * g / h if scalar else z0 - abar1 * solve_pd(h, g)
        np.testing.assert_allclose(final, expected, rtol=1e-12, atol=0)
        if scalar:
            # collinear with g, by a positive real factor
            scale = (z0 - final) / g
            np.testing.assert_allclose(scale, abar1 / h, rtol=1e-12)


class TestBlocking:
    """The blocking criterion inside ``run``: accept the candidate only if
    f(candidate) < f(accepted) + δ."""

    @staticmethod
    def _rising(step=0.01):
        # every call reads `step` higher than the previous one, so each
        # candidate is worse than the accepted point by 3 steps (two
        # gradient evaluations and the candidate evaluation in between)
        calls = []

        def f(z):
            calls.append(1)
            return step * len(calls)

        return f

    def test_accepts_strict_improvement(self):
        f = lambda z: float(z[0] ** 2)
        cfg = OptimizerConfig(method="first_order", field="real", gains=STATIC,
                              blocking=0.0, max_iterations=10)
        trace = run(f, cfg, np.array([2.0]), seed=0, monitor=f)
        assert trace.accepted.all()
        assert abs(trace.final_params[0]) < 2.0

    def test_rejects_worse_candidate(self):
        cfg = OptimizerConfig(method="first_order", field="real", gains=STATIC,
                              blocking=0.0, max_iterations=5)
        z0 = np.array([0.3, -0.2])
        trace = run(self._rising(), cfg, z0, seed=0, monitor=lambda z: 0.0)
        assert not trace.accepted.any()
        np.testing.assert_array_equal(trace.final_params, z0)

    def test_tolerance_admits_slightly_worse(self):
        cfg = OptimizerConfig(method="first_order", field="real", gains=STATIC,
                              blocking=0.1, max_iterations=5)
        z0 = np.array([0.3, -0.2])
        trace = run(self._rising(), cfg, z0, seed=0, monitor=lambda z: 0.0)
        assert trace.accepted.all()
        assert not np.array_equal(trace.final_params, z0)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(blocking=-1.0)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf")])
    def test_non_finite_tolerance_rejected(self, tolerance):
        with pytest.raises(ValueError, match="blocking tolerance"):
            OptimizerConfig(blocking=tolerance)


class TestBlockingTolerance:
    def test_deterministic_objective(self):
        assert estimate_blocking_tolerance(lambda z: 3.14, np.zeros(2)) == 0.0

    def test_bernoulli_noise_level(self):
        rng = np.random.default_rng(5)
        n_shots = 20_000
        f = lambda z: rng.binomial(n_shots, 0.5) / n_shots
        delta = estimate_blocking_tolerance(f, np.zeros(1))
        assert delta == pytest.approx(2.0 * np.sqrt(0.25 / n_shots), rel=0.3)

    def test_default_sample_count_deterministic(self):
        calls = []
        f = lambda z: calls.append(1) or 1.0
        estimate_blocking_tolerance(f, np.zeros(1))
        assert len(calls) == 25


class TestResampleAverage:
    """``run`` averages the gradient over N_R independent perturbations."""

    THETA = np.array([1.0, -2.0, 0.5])

    @staticmethod
    def _f(t):
        return float(t @ t)

    def _first_gradient(self, resampling, seed=0):
        cfg = OptimizerConfig(method="first_order", field="real", gains=STATIC,
                              resampling=resampling, max_iterations=1)
        grads = []
        run(self._f, cfg, self.THETA, seed=seed, monitor=self._f,
            callback=lambda k, z, g, step: grads.append(g.copy()))
        return grads[0]

    def _draws(self, n, seed=0):
        # the perturbations run draws from its seed, one per resample
        rng = np.random.default_rng(seed)
        _, _, b1 = gains_at(STATIC, 1)
        return [resample("first_order", self._f, None, self.THETA, b1,
                         sample_perturbation(3, "real", rng))[0]
                for _ in range(n)]

    def test_single_draw_identity(self):
        np.testing.assert_array_equal(self._first_gradient(1), self._draws(1)[0])

    def test_mean_of_draws(self):
        np.testing.assert_allclose(self._first_gradient(3), np.mean(self._draws(3), axis=0),
                                   rtol=1e-14, atol=0)

    def test_variance_reduction(self):
        # iteration-1 gradient entry variance ~ 1/N_R of the single-draw variance
        singles = np.array([self._first_gradient(1, seed)[0] for seed in range(4000)])
        averaged = np.array([self._first_gradient(5, seed)[0] for seed in range(4000)])
        ratio = averaged.var() / singles.var()
        assert ratio == pytest.approx(0.2, rel=0.2)


def quadratic_problem(field, p=2):
    rng = np.random.default_rng(99)
    if field == "complex":
        c = rng.standard_normal(p) + 1j * rng.standard_normal(p)
    else:
        c = rng.standard_normal(p)
    f = lambda z: float(np.real(np.vdot(z - c, z - c)))
    fid = lambda za, zb: float(np.exp(-2.0 * np.real(np.vdot(za - zb, za - zb))))
    return c, f, fid


class TestRunContracts:
    def test_trace_length_always_max_iterations(self):
        c, f, _ = quadratic_problem("real")
        cfg = OptimizerConfig(method="first_order", field="real", gains=STATIC,
                              max_iterations=17)
        trace = run(f, cfg, np.zeros(2), seed=0, monitor=f)
        assert len(trace.objective) == 17
        assert not trace.diverged
        assert trace.diverged_at is None and trace.diverged_reason is None

    def test_quantum_natural_requires_fidelity(self):
        cfg = OptimizerConfig(method="quantum_natural", field="real", gains=STATIC,
                              max_iterations=3)
        f = lambda z: 0.0
        with pytest.raises(ValueError):
            run(f, cfg, np.zeros(2), seed=0, monitor=f)

    def test_seed_is_an_argument_of_run_alone(self):
        # the config describes a method; each run names its own seed
        f = lambda z: 0.0
        with pytest.raises(TypeError, match="seed"):
            run(f, OptimizerConfig(max_iterations=1), np.zeros(2, dtype=complex), monitor=f)
        with pytest.raises(TypeError, match="seed"):
            OptimizerConfig(seed=1)

    @pytest.mark.parametrize("seed", [None, True, 1.5, -1])
    def test_seed_follows_the_count_rule(self, seed):
        # None would run unseeded, True as seed 1, and numpy's own errors
        # for 1.5 and -1 name no argument
        f = lambda z: 0.0
        with pytest.raises(ValueError, match="^seed must be an integer"):
            run(f, OptimizerConfig(max_iterations=1), np.zeros(2, dtype=complex), seed=seed,
                monitor=f)

    def test_scalar_first_order_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(method="first_order", scalar=True)

    @pytest.mark.parametrize("epsilon", [0.0, -1e-3, float("nan"), float("inf")])
    def test_epsilon_outside_open_positive_reals_rejected(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            OptimizerConfig(method="second_order", epsilon=epsilon)

    def test_invalid_tags_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(method="zeroth_order")
        with pytest.raises(ValueError):
            OptimizerConfig(field="quaternion")
        with pytest.raises(ValueError):
            OptimizerConfig(postproc="magic")
        with pytest.raises(ValueError):
            OptimizerConfig(resampling=0)
        with pytest.raises(ValueError):
            OptimizerConfig(blocking=-0.5)

    @pytest.mark.parametrize("counts", [
        dict(max_iterations=2.5), dict(resampling=1.5), dict(resampling=2**63),
        dict(max_iterations=True), dict(max_iterations="3"), dict(max_iterations=2**20 + 1),
    ])
    def test_counts_follow_the_count_rule(self, counts):
        # an integer from 1 to MAX_COUNT; a fraction used to fail in the run
        with pytest.raises(ValueError, match="must be an integer"):
            OptimizerConfig(**counts)
        assert OptimizerConfig(resampling=np.int64(2), max_iterations=2**20).resampling == 2

    def test_real_field_rejects_complex_start(self):
        cfg = OptimizerConfig(method="first_order", field="real", max_iterations=2)
        f = lambda z: 0.0
        with pytest.raises(ValueError):
            run(f, cfg, np.zeros(2, dtype=complex), seed=0, monitor=f)

    def test_determinism(self):
        c, f, _ = quadratic_problem("complex")
        cfg = OptimizerConfig(method="second_order", field="complex", gains=STATIC,
                              resampling=2, max_iterations=25)
        t1 = run(f, cfg, np.zeros(2, dtype=complex), seed=11, monitor=f)
        t2 = run(f, cfg, np.zeros(2, dtype=complex), seed=11, monitor=f)
        np.testing.assert_array_equal(t1.objective, t2.objective)
        np.testing.assert_array_equal(t1.final_params, t2.final_params)

    def test_divergence_flagged_and_padded(self):
        cfg = OptimizerConfig(method="first_order", field="real",
                              gains=GainSchedule(a=1e6, b=0.01, s=0.0, t=0.0),
                              max_iterations=40)
        # runaway steps push the objective itself to overflow
        f = lambda z: float(np.exp(z[0] ** 2))
        trace = run(f, cfg, np.array([1.0]), seed=0, monitor=f)
        assert trace.diverged
        assert len(trace.objective) == 40
        assert np.isnan(trace.objective).any()
        # the first step overflows the recorded objective exp(z²)
        assert (trace.diverged_at, trace.diverged_reason) == (1, "recorded")

    @pytest.mark.parametrize("scalar", [False, True])
    @pytest.mark.parametrize("postproc", ["spall", "gidi"])
    @pytest.mark.parametrize("method", ["second_order", "quantum_natural"])
    def test_nan_preconditioner_estimate_diverges(self, method, postproc, scalar):
        # The oracle behind the Hessian or metric estimate turns NaN in the
        # third iteration (4 calls per iteration); the NaN estimate must end
        # the run, not reach eigh.
        c, f, fid = quadratic_problem("complex")
        calls = []

        def nan_after_8(oracle):
            def wrapped(*args):
                calls.append(None)
                return oracle(*args) if len(calls) <= 8 else float("nan")
            return wrapped

        if method == "second_order":
            f_run, fid_run = nan_after_8(f), fid
        else:
            f_run, fid_run = f, nan_after_8(fid)
        cfg = OptimizerConfig(method=method, field="complex", scalar=scalar,
                              postproc=postproc, gains=STATIC, max_iterations=5)
        trace = run(f_run, cfg, np.zeros(2, dtype=complex), seed=0, fidelity=fid_run, monitor=f)
        assert trace.diverged
        assert (trace.diverged_at, trace.diverged_reason) == (3, "estimate")
        assert np.isfinite(trace.objective[:2]).all()
        assert np.isnan(trace.objective[2:]).all()
        assert not trace.accepted[2:].any()

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("scalar", [False, True])
    @pytest.mark.parametrize("postproc", ["spall", "gidi"])
    def test_finite_coefficients_whose_sum_overflows_end_the_run_as_estimate(
            self, field, scalar, postproc):
        # f(z + bΔ + bΔ̃) = 2e304 and 0 elsewhere give each of the two
        # resamples c = δ²f/(2b²) = 1e308, finite, and their sum overflows:
        # the estimate is non-finite with its coefficients' mean, in every
        # mode, whatever the signs of the rows' entries
        cfg = OptimizerConfig(method="second_order", field=field, scalar=scalar,
                              postproc=postproc, gains=STATIC, resampling=2,
                              max_iterations=3)
        z0 = np.zeros(2, dtype=complex if field == "complex" else float)
        for seed in range(4):
            for run_fn in (run, reference_run):
                calls = []
                f = lambda z: calls.append(None) or (2e304 if len(calls) % 4 == 3 else 0.0)
                trace = run_fn(f, cfg, z0, seed=seed, monitor=lambda z: 0.0)
                assert (trace.diverged_at, trace.diverged_reason) == (1, "estimate")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("scalar", [False, True])
    @pytest.mark.parametrize("postproc", ["spall", "gidi"])
    @pytest.mark.parametrize("method", ["second_order", "quantum_natural"])
    def test_non_finite_objective_diverges_without_raising(self, method, postproc, scalar,
                                                           field, value):
        # Every objective value is non-finite, so the averaged gradient is too;
        # under quantum_natural the metric stays finite, and the gradient
        # alone must end the run before it reaches the Cholesky solve.
        _, _, fid = quadratic_problem(field, p=3)
        z0 = np.ones(3, dtype=complex if field == "complex" else float)
        cfg = OptimizerConfig(method=method, field=field, scalar=scalar, postproc=postproc,
                              max_iterations=3)
        traces = [run_fn(lambda z: value, cfg, z0, seed=0, fidelity=fid, monitor=lambda z: 0.0)
                  for run_fn in (run, reference_run)]
        for trace in traces:
            assert (trace.diverged_at, trace.diverged_reason) == (1, "estimate")
            assert np.isnan(trace.objective).all()
            assert not trace.accepted.any()
            assert trace.final_params.tobytes() == z0.tobytes()

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("postproc", ["spall", "gidi"])
    @pytest.mark.parametrize("scale", [1e150, 1e200, 1e306, 1e307])
    def test_huge_hessian_estimate_diverges_without_raising(self, scale, postproc, field):
        # A finite estimate of size ~scale/b_k²: its square overflows in the
        # gidi square root at 1e200, and its eigenvalues spread past double
        # precision, so the Cholesky factorization of the step can fail.
        # Near the float maximum the hermitian part and the inertia blend
        # overflow too, and at 1e307 the estimate itself can.  A run either
        # completes or ends as "preconditioner" (or "estimate", where the
        # estimate overflowed), NaN-padded, and the reference loop agrees
        # with it bit for bit.
        z0 = np.ones(3, dtype=complex if field == "complex" else float)
        cfg = OptimizerConfig(method="second_order", field=field, postproc=postproc,
                              max_iterations=20)
        traces = []
        for run_fn in (run, reference_run):
            rng = np.random.default_rng(0)
            f = lambda z: scale * (float(np.vdot(z, z).real) + rng.normal())
            traces.append(run_fn(f, cfg, z0, seed=0, monitor=f))
        trace, ref = traces
        reasons = (None, "preconditioner") + (("estimate",) if scale > 1e300 else ())
        assert trace.diverged_reason in reasons
        if trace.diverged:
            assert np.isfinite(trace.objective[:trace.diverged_at - 1]).all()
            assert np.isnan(trace.objective[trace.diverged_at - 1:]).all()
            assert not trace.accepted[trace.diverged_at - 1:].any()
        assert (ref.diverged_at, ref.diverged_reason) == (trace.diverged_at,
                                                          trace.diverged_reason)
        assert ref.objective.tobytes() == trace.objective.tobytes()
        assert ref.final_params.tobytes() == trace.final_params.tobytes()

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_overflowing_scalar_preconditioner_ends_the_run(self, field):
        # The scalar gidi preconditioner √(h² + ε) of an estimate beyond
        # ~1e154 overflows to inf, which would turn every later step into 0;
        # the run ends at once as "preconditioner", as the reference's does.
        z0 = np.ones(3, dtype=complex if field == "complex" else float)
        cfg = OptimizerConfig(method="second_order", field=field, scalar=True,
                              postproc="gidi", max_iterations=5)
        for run_fn in (run, reference_run):
            rng = np.random.default_rng(0)
            f = lambda z: 1e200 * (float(np.vdot(z, z).real) + rng.normal())
            trace = run_fn(f, cfg, z0, seed=0, monitor=f)
            assert (trace.diverged_at, trace.diverged_reason) == (1, "preconditioner")
            assert np.isnan(trace.objective).all()
            assert trace.final_params.tobytes() == z0.tobytes()

    def test_unfactorable_preconditioner_ends_the_run(self, monkeypatch):
        # The Cholesky solve rejects the preconditioner at iteration 2: the
        # run ends there as "preconditioner" instead of raising.
        calls = []
        solve = optimizers.solve_pd

        def failing_solve(h, v):
            calls.append(None)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("not positive definite")
            return solve(h, v)

        monkeypatch.setattr(optimizers, "solve_pd", failing_solve)
        c, f, _ = quadratic_problem("complex")
        cfg = OptimizerConfig(method="second_order", field="complex", gains=STATIC,
                              max_iterations=4)
        trace = run(f, cfg, np.zeros(2, dtype=complex), seed=0, monitor=f)
        assert (trace.diverged_at, trace.diverged_reason) == (2, "preconditioner")
        assert np.isfinite(trace.objective[0]) and np.isnan(trace.objective[1:]).all()

    def test_shape_errors_of_the_step_still_raise(self, monkeypatch):
        def mismatched_solve(h, v):
            raise ValueError("shape mismatch")

        monkeypatch.setattr(optimizers, "solve_pd", mismatched_solve)
        c, f, _ = quadratic_problem("complex")
        cfg = OptimizerConfig(method="second_order", field="complex", gains=STATIC,
                              max_iterations=2)
        with pytest.raises(ValueError, match="shape"):
            run(f, cfg, np.zeros(2, dtype=complex), seed=0, monitor=f)

    def test_monitor_used_for_trace(self):
        c, f, _ = quadratic_problem("real")
        cfg = OptimizerConfig(method="first_order", field="real", gains=STATIC,
                              max_iterations=5)
        trace = run(f, cfg, c + 1.0, seed=0, monitor=lambda z: 42.0)
        np.testing.assert_array_equal(trace.objective, np.full(5, 42.0))


def noisy_oracles(field, seed, nan_after=None, nan_at=None):
    """Shot-noise-like objective and fidelity on ``quadratic_problem(field, 3)``,
    drawing from their own generator, with the noiseless objective as monitor.
    After ``nan_after`` calls the objective returns NaN; its ``nan_at``-th
    call alone returns NaN."""
    c, f, fid = quadratic_problem(field, p=3)
    rng = np.random.default_rng(seed)
    calls = []

    def objective(z):
        calls.append(None)
        if (nan_after is not None and len(calls) > nan_after) or len(calls) == nan_at:
            return float("nan")
        return f(z) + 0.05 * rng.standard_normal()

    def fidelity(za, zb):
        return min(1.0, max(0.0, fid(za, zb) + 0.01 * rng.standard_normal()))

    return c, objective, fidelity, f


METHOD_VARIANTS = [("first_order", False), ("second_order", False), ("second_order", True),
                   ("quantum_natural", False), ("quantum_natural", True)]


def block_iterations(config, p):
    """The iterations of one perturbation block of ``run``: as many as
    ``PERTURBATION_BLOCK_ENTRIES`` entries hold, at least one."""
    d = 1 if config.method == "first_order" else 2
    return max(1, optimizers.PERTURBATION_BLOCK_ENTRIES // (config.resampling * d * p))


class TestBlockDraws:
    """``run`` draws its perturbations a block of at most
    PERTURBATION_BLOCK_ENTRIES entries at a time, but never less than one
    iteration's draws; its traces must equal, bit for bit, those of
    ``reference_run``, which draws each vector when it needs it."""

    @staticmethod
    def _compare(config, seed, nan_after=None, nan_at=None):
        traces = []
        for run_fn in (run, reference_run):
            c, objective, fidelity, f = noisy_oracles(config.field, seed + 1, nan_after, nan_at)
            z0 = c + (0.5 - 0.25j if config.field == "complex" else 0.5)
            traces.append(run_fn(objective, config, z0, seed=seed, fidelity=fidelity,
                                 monitor=f))
        fast, ref = traces
        for name in ("objective", "accepted", "objective_evals", "fidelity_evals",
                     "final_params"):
            assert getattr(fast, name).tobytes() == getattr(ref, name).tobytes(), name
        assert fast.diverged_at == ref.diverged_at
        assert fast.diverged_reason == ref.diverged_reason
        assert repr(fast.blocking_delta) == repr(ref.blocking_delta)
        return fast

    @pytest.mark.parametrize("blocking", [None, 0.05, "auto"])
    @pytest.mark.parametrize("n_r", [1, 3])
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("method,scalar", METHOD_VARIANTS)
    def test_small_blocks_match_one_draw_per_vector(self, monkeypatch, method, scalar,
                                                    field, n_r, blocking):
        # one entry short of five iterations' draws: blocks of four iterations
        per_iter = n_r * (1 if method == "first_order" else 2) * 3
        monkeypatch.setattr(optimizers, "PERTURBATION_BLOCK_ENTRIES", 5 * per_iter - 1)
        block = 4
        for n_iter in (block - 1, block, block + 1, 2 * block + 1):
            config = OptimizerConfig(method=method, field=field, scalar=scalar,
                                     resampling=n_r, blocking=blocking,
                                     max_iterations=n_iter)
            assert block_iterations(config, 3) == block
            assert not self._compare(config, n_iter).diverged

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("method,scalar", METHOD_VARIANTS)
    def test_library_block_matches_one_draw_per_vector(self, method, scalar, field):
        block = block_iterations(OptimizerConfig(method=method), 3)
        for n_iter in (block - 1, block, block + 1, 2 * block + 1):
            config = OptimizerConfig(method=method, field=field, scalar=scalar,
                                     max_iterations=n_iter)
            assert not self._compare(config, n_iter).diverged

    @staticmethod
    def _spy_on_draws(monkeypatch):
        """The (m, p) of every `sample_perturbation` call that ``run`` makes."""
        draws = []
        original = optimizers.sample_perturbation

        def spy(p, field, rng, m=None):
            draws.append((m, p))
            return original(p, field, rng, m)

        monkeypatch.setattr(optimizers, "sample_perturbation", spy)
        return draws

    @pytest.mark.parametrize("entries", [None, 9, 8])
    @pytest.mark.parametrize("method,per_iter", [("first_order", 3), ("quantum_natural", 6)])
    def test_a_block_holds_at_most_its_entries_but_one_iteration_at_least(
            self, monkeypatch, method, per_iter, entries):
        # N_R = 3 and p = 3: three Δ per first-order iteration, three
        # (Δ, Δ̃) pairs otherwise, so 9 or 18 entries.  The library's bound
        # holds many iterations of either; a bound of 9 one first-order
        # iteration and no quantum-natural one; a bound of 8 neither.
        if entries is not None:
            monkeypatch.setattr(optimizers, "PERTURBATION_BLOCK_ENTRIES", entries)
        bound = optimizers.PERTURBATION_BLOCK_ENTRIES
        config = OptimizerConfig(method=method, resampling=3)
        n_iter = 2 * block_iterations(config, 3) + 1
        config = dataclasses.replace(config, max_iterations=n_iter)
        draws = self._spy_on_draws(monkeypatch)
        c, objective, fidelity, f = noisy_oracles("complex", 3)
        run(objective, config, c, seed=0, fidelity=fidelity, monitor=f)
        rows = [m for m, _ in draws]
        assert len(rows) == 3 and {p for _, p in draws} == {3}
        assert sum(rows) == n_iter * per_iter and all(m % per_iter == 0 for m in rows)
        if per_iter * 3 <= bound:
            assert all(m * 3 <= bound for m in rows)
            # every block but the last as large as the bound admits
            assert all((m + per_iter) * 3 > bound for m in rows[:-1])
        else:
            assert rows == [per_iter] * n_iter

    def test_a_resampled_iteration_past_the_bound_is_one_block(self, monkeypatch):
        # 4096 resamples of p = 6: 24576 entries per iteration, drawn one
        # iteration at a time, where 64-iteration blocks asked for all three
        # iterations' (12288, 6) at once
        draws = self._spy_on_draws(monkeypatch)
        config = OptimizerConfig(resampling=4096, max_iterations=3)
        trace = run_single(VqeProblem(n_qubits=3, shots=math.inf), config, 0)
        assert not trace.diverged
        assert draws == [(4096, 6)] * 3

    @pytest.mark.parametrize("method,reason", [("first_order", "candidate"),
                                               ("second_order", "estimate")])
    def test_divergence_in_mid_block(self, method, reason):
        # NaN from the first objective call of iteration k_nan, which lies
        # inside the second block
        config = OptimizerConfig(method=method, field="complex")
        block = block_iterations(config, 3)
        k_nan = block + block // 2
        calls_per_iter = 2 if method == "first_order" else 4
        config = dataclasses.replace(config, max_iterations=2 * block + 1)
        trace = self._compare(config, 4, nan_after=calls_per_iter * (k_nan - 1))
        assert (trace.diverged_at, trace.diverged_reason) == (k_nan, reason)
        assert np.isfinite(trace.objective[:k_nan - 1]).all()
        assert np.isnan(trace.objective[k_nan - 1:]).all()
        assert trace.recorded == trace.diverged_at - 1
        assert trace.objective_evals[trace.recorded - 1] == calls_per_iter * (k_nan - 1)
        assert not trace.objective_evals[trace.recorded:].any()
        assert not trace.fidelity_evals[trace.recorded:].any()

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("blocking,nan_at", [(0.05, 1), ("auto", 7)])
    def test_non_finite_blocking_reference_ends_the_run(self, field, blocking, nan_at):
        # A NaN f(z₀) (call 1 under a fixed tolerance) or a NaN among the 25
        # samples of "auto" (which makes δ NaN) fails every acceptance test:
        # the run must end as diverged, not reject all 20 candidates.
        config = OptimizerConfig(method="first_order", field=field, blocking=blocking,
                                 max_iterations=20)
        trace = self._compare(config, 5, nan_at=nan_at)
        assert (trace.diverged_at, trace.diverged_reason) == (1, "blocking")
        assert np.isnan(trace.objective).all()
        assert not trace.accepted.any()
        assert trace.recorded == trace.diverged_at - 1 == 0
        assert not trace.objective_evals.any()
        assert not trace.fidelity_evals.any()
        assert np.isnan(trace.blocking_delta) == (blocking == "auto")

    def test_callback_sees_the_same_steps(self):
        for method, scalar in METHOD_VARIANTS:
            config = OptimizerConfig(method=method, scalar=scalar, max_iterations=5)
            seen = []
            for run_fn in (run, reference_run):
                c, objective, fidelity, f = noisy_oracles("complex", 7)
                records = []
                run_fn(objective, config, c + 0.5, seed=2, fidelity=fidelity, monitor=f,
                       callback=lambda k, z, g, step: records.append(
                           (k, z.copy(), g.copy(), step.copy())))
                seen.append(records)
            assert len(seen[0]) == 5
            for (k, z, g, step), (k_ref, z_ref, g_ref, step_ref) in zip(*seen):
                assert k == k_ref
                assert z.tobytes() == z_ref.tobytes()
                # run hands a first-order gradient on without adding it to
                # zeros, so a zero entry may differ from the reference's in
                # sign: equal as numbers, not as bytes.
                np.testing.assert_array_equal(g, g_ref)
                np.testing.assert_array_equal(step, step_ref)


class TestEvaluationAccounting:
    @pytest.mark.parametrize("n_r", [1, 2, 5])
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("method,scalar,obj_per_iter,fid_per_iter", [
        ("first_order", False, 2, 0),
        ("second_order", False, 4, 0),
        ("second_order", True, 4, 0),
        ("quantum_natural", False, 2, 4),
        ("quantum_natural", True, 2, 4),
    ])
    def test_per_iteration_budgets(self, method, scalar, obj_per_iter, fid_per_iter, field,
                                   n_r):
        c, f, fid = quadratic_problem(field)
        cfg = OptimizerConfig(method=method, field=field, scalar=scalar, gains=STATIC,
                              resampling=n_r, max_iterations=4)
        z0 = np.zeros(2, dtype=complex if field == "complex" else float)
        trace = run(f, cfg, z0, seed=0, fidelity=fid, monitor=f)
        expected_obj = obj_per_iter * n_r * np.arange(1, 5)
        expected_fid = fid_per_iter * n_r * np.arange(1, 5)
        np.testing.assert_array_equal(trace.objective_evals, expected_obj)
        np.testing.assert_array_equal(trace.fidelity_evals, expected_fid)

    # 200 examples of the 180 combinations take about 0.5 s on a 2-core x86-64.
    @settings(derandomize=True, max_examples=200, database=None, deadline=None)
    @given(st.sampled_from([("first_order", False), ("second_order", False),
                            ("second_order", True), ("quantum_natural", False),
                            ("quantum_natural", True)]),
           st.sampled_from(["spall", "gidi"]), st.sampled_from(["real", "complex"]),
           st.integers(1, 3), st.sampled_from([None, 0.05, "auto"]))
    def test_evaluation_plan(self, method_scalar, postproc, field, n_r, blocking):
        # every iteration spends N_R × (4 second order, 2 otherwise) objective
        # evaluations, + 1 under blocking, and N_R × 4 fidelity evaluations
        # quantum natural, counted call by call outside run
        method, scalar = method_scalar
        c, f, fid = quadratic_problem(field)
        counts = np.zeros(2, dtype=np.int64)

        def objective(z):
            counts[0] += 1
            return f(z)

        def fidelity(za, zb):
            counts[1] += 1
            return fid(za, zb)

        after = []
        cfg = OptimizerConfig(method=method, field=field, scalar=scalar, gains=STATIC,
                              postproc=postproc, blocking=blocking, resampling=n_r,
                              max_iterations=4)
        trace = run(objective, cfg, c + 1.0, seed=0, fidelity=fidelity, monitor=f,
                    callback=lambda *_: after.append(counts.copy()))
        assert not trace.diverged
        before = {None: 0, 0.05: 1, "auto": 26}[blocking]
        per_iteration = (n_r * (4 if method == "second_order" else 2) + (blocking is not None),
                         4 * n_r if method == "quantum_natural" else 0)
        np.testing.assert_array_equal(
            after, [(before, 0) + k * np.array(per_iteration) for k in range(1, 5)])
        assert trace.objective_evals_before == before
        np.testing.assert_array_equal(trace.objective_evals, [a[0] for a in after])
        np.testing.assert_array_equal(trace.fidelity_evals, [a[1] for a in after])

    def test_scalar_budgets_match_matrix_budgets(self):
        c, f, fid = quadratic_problem("complex")
        for method in ("second_order", "quantum_natural"):
            cfg = OptimizerConfig(method=method, field="complex", scalar=True,
                                  gains=STATIC, max_iterations=3)
            trace = run(f, cfg, np.zeros(2, dtype=complex), seed=0, fidelity=fid, monitor=f)
            expected = (4 if method == "second_order" else 2) * np.arange(1, 4)
            np.testing.assert_array_equal(trace.objective_evals, expected)

    def test_blocking_adds_one_candidate_eval_per_iteration(self):
        c, f, _ = quadratic_problem("real")
        cfg = OptimizerConfig(method="first_order", field="real", gains=STATIC,
                              blocking=0.0, max_iterations=6)
        trace = run(f, cfg, c + 1.0, seed=0, monitor=f)
        # 1 upfront evaluation at z0, then 2 (gradient) + 1 (candidate) per iteration
        np.testing.assert_array_equal(trace.objective_evals, 1 + 3 * np.arange(1, 7))

    def test_auto_blocking_charges_estimation_samples(self):
        c, f, _ = quadratic_problem("real")
        cfg = OptimizerConfig(method="first_order", field="real", gains=STATIC,
                              blocking="auto", max_iterations=2)
        trace = run(f, cfg, c + 1.0, seed=0, monitor=f)
        assert trace.blocking_delta == 0.0  # noiseless objective
        np.testing.assert_array_equal(trace.objective_evals, 25 + 1 + 3 * np.arange(1, 3))

    @pytest.mark.parametrize("blocking", [None, "auto"])
    def test_trace_stores_one_increment_per_counter(self, blocking):
        c, f, fid = quadratic_problem("complex")
        cfg = OptimizerConfig(method="quantum_natural", gains=STATIC, blocking=blocking,
                              resampling=2, max_iterations=5)
        trace = run(f, cfg, c + 1.0, seed=0, fidelity=fid, monitor=f)
        before = 0 if blocking is None else 26
        assert (trace.objective_evals_before, trace.objective_evals_per_iteration) == (
            before, 4 + (blocking is not None))
        assert trace.fidelity_evals_per_iteration == 8
        assert trace.recorded == 5
        with pytest.raises(AttributeError):
            trace.recorded = 4
        assert trace.objective_evals.dtype == trace.fidelity_evals.dtype == np.int64

    @pytest.mark.parametrize("method,estimator", [
        ("first_order", "gradient_estimate"),
        ("second_order", "hessian_estimate"),
        ("quantum_natural", "gradient_estimate"),
        ("quantum_natural", "metric_estimate"),
    ])
    def test_extra_call_at_iteration_3_raises(self, monkeypatch, method, estimator):
        # an oracle that makes one extra call for one estimate would
        # otherwise leave counts in the trace that the run never spent
        original = optimizers.resample
        resamples = []

        def twice_at(oracle, n):
            """``oracle``, calling itself once more at its n-th call."""
            calls = []

            def extra(*args):
                calls.append(None)
                if len(calls) == n:
                    oracle(*args)
                return oracle(*args)
            return extra

        def one_extra(method, f, fid, *args):
            resamples.append(None)
            if len(resamples) == 3:
                # the gradient's calls are the objective's first two, the
                # Hessian's its last two, the metric's the fidelity's four
                if estimator == "metric_estimate":
                    fid = twice_at(fid, 1)
                else:
                    f = twice_at(f, 3 if estimator == "hessian_estimate" else 1)
            return original(method, f, fid, *args)

        monkeypatch.setattr(optimizers, "resample", one_extra)
        c, f, fid = quadratic_problem("complex")
        cfg = OptimizerConfig(method=method, gains=STATIC, max_iterations=5)
        with pytest.raises(RuntimeError, match="iteration 3"):
            run(f, cfg, c + 1.0, seed=0, fidelity=fid, monitor=f)


class TestRunBehavior:
    def test_noiseless_first_order_converges(self):
        c, f, _ = quadratic_problem("real")
        gains = GainSchedule(a=0.05, b=0.01, A=0.0, s=0.0, t=0.0)
        cfg = OptimizerConfig(method="first_order", field="real", gains=gains,
                              max_iterations=1000)
        finals = []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            z0 = c + rng.standard_normal(2)
            trace = run(f, cfg, z0, seed=seed, monitor=f)
            finals.append(np.linalg.norm(trace.final_params - c))
        assert np.median(finals) < 1e-3

    def test_noiseless_second_order_complex_converges(self):
        c, f, _ = quadratic_problem("complex")
        cfg = OptimizerConfig(method="second_order", field="complex", gains=STATIC,
                              postproc="gidi", resampling=5, max_iterations=600)
        finals = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            z0 = c + rng.standard_normal(2) + 1j * rng.standard_normal(2)
            trace = run(f, cfg, z0, seed=seed, monitor=f)
            finals.append(abs(np.linalg.norm(trace.final_params - c)))
        assert np.median(finals) < 1e-6

    def test_blocking_monotone_on_noiseless_objective(self):
        c, f, fid = quadratic_problem("complex")
        for method in ("first_order", "second_order", "quantum_natural"):
            cfg = OptimizerConfig(method=method, field="complex", gains=STATIC,
                                  blocking=0.0, resampling=2, max_iterations=200)
            z0 = c + np.array([1.0 + 0.5j, -0.7j])
            trace = run(f, cfg, z0, seed=3, fidelity=fid, monitor=f)
            diffs = np.diff(trace.objective)
            assert (diffs <= 1e-12).all()

    def test_preconditioner_memory_updates_on_blocked_iterations(self):
        # force rejection of every step with an enormous objective:
        # memory must still advance each iteration
        recorded = []
        c, f, fid = quadratic_problem("complex")
        cfg = OptimizerConfig(method="second_order", field="complex", gains=STATIC,
                              blocking=0.0, max_iterations=8)
        z0 = c  # already optimal: every candidate is rejected
        trace = run(f, cfg, z0, seed=1, monitor=f,
                    callback=lambda k, z, g, step: recorded.append(k))
        assert not trace.accepted.any()
        assert len(recorded) == 8

    def test_scalar_step_collinear_with_gradient(self):
        c, f, fid = quadratic_problem("complex")
        records = []

        def check(k, z, g, step):
            records.append((g.copy(), step.copy()))

        cfg = OptimizerConfig(method="second_order", field="complex", scalar=True,
                              gains=STATIC, postproc="gidi", max_iterations=50)
        run(f, cfg, c + np.ones(2, dtype=complex), seed=7, fidelity=fid, monitor=f,
            callback=check)
        for g, step in records:
            if np.linalg.norm(g) == 0:
                continue
            # step = (abar/h) g with h > 0: exactly collinear, positive scale
            scale = step[np.argmax(np.abs(g))] / g[np.argmax(np.abs(g))]
            assert scale.real > 0
            assert abs(scale.imag) < 1e-15
            np.testing.assert_allclose(step, scale * g, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("postproc", ["spall", "gidi"])
    @pytest.mark.parametrize("method", ["second_order", "quantum_natural"])
    def test_scalar_mode_never_builds_matrices(self, monkeypatch, method, postproc):
        c, f, fid = quadratic_problem("complex", p=6)
        cfg = OptimizerConfig(method=method, field="complex", scalar=True, gains=STATIC,
                              postproc=postproc, max_iterations=5)
        name = "postprocess_" + postproc
        original = getattr(optimizers, name)
        received = []

        def spy(coefficients, rows, memory, k, *args):
            received.append((k, coefficients, memory))
            return original(coefficients, rows, memory, k, *args)

        monkeypatch.setattr(optimizers, name, spy)
        run(f, cfg, c + np.ones(6, dtype=complex), seed=0, fidelity=fid, monitor=f)
        assert [k for k, _, _ in received] == [1, 2, 3, 4, 5]
        assert received[0][2] == 1.0
        for _, coefficients, memory in received:
            assert len(coefficients) == 1 and np.isscalar(coefficients[0])
            assert np.isscalar(memory)

    @pytest.mark.parametrize("postproc", ["spall", "gidi"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_run_passes_each_blend_back_with_its_own_k(self, monkeypatch, field, postproc):
        c, f, _ = quadratic_problem(field, p=3)
        cfg = OptimizerConfig(method="second_order", field=field, gains=STATIC,
                              postproc=postproc, max_iterations=6)
        name = "postprocess_" + postproc
        original = getattr(optimizers, name)
        calls = []

        def spy(coefficients, rows, memory, k, *args):
            out = original(coefficients, rows, memory, k, *args)
            calls.append((k, memory, out[0]))
            return out

        monkeypatch.setattr(optimizers, name, spy)
        run(f, cfg, c + 1.0, seed=2, monitor=f)
        assert [k for k, _, _ in calls] == [1, 2, 3, 4, 5, 6]
        z_dtype = np.complex128 if field == "complex" else np.float64
        assert calls[0][1].tobytes() == np.eye(3, dtype=z_dtype).tobytes()
        for (_, _, blend), (_, memory, _) in zip(calls, calls[1:]):
            assert memory is blend


class TestMethodLabel:
    @pytest.mark.parametrize("method,field,scalar,label", [
        ("first_order", "real", False, "SPSA"),
        ("first_order", "complex", False, "CSPSA"),
        ("second_order", "real", False, "2SPSA"),
        ("second_order", "complex", True, "scalar 2CSPSA"),
        ("quantum_natural", "real", True, "scalar QN-SPSA"),
        ("quantum_natural", "complex", False, "QN-CSPSA"),
    ])
    def test_labels(self, method, field, scalar, label):
        cfg = OptimizerConfig(method=method, field=field, scalar=scalar)
        assert method_label(cfg) == label
