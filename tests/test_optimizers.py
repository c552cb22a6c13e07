import dataclasses

import numpy as np
import pytest

from spsakit.estimators import GAIN_PRESETS, GainSchedule
from spsakit.optimizers import (
    OptimizerConfig,
    PreconditionerState,
    estimate_blocking_tolerance,
    method_label,
    postprocess_gidi,
    postprocess_spall,
    run,
    step_first_order,
    step_preconditioned,
)

STATIC = GAIN_PRESETS["static"]


class TestPostprocessSpall:
    def test_worked_example(self):
        state = PreconditionerState.identity(2, "real")
        h_raw = np.array([[-2.0, 2.0], [-2.0, 2.0]])
        out = postprocess_spall(h_raw, state, 1e-3)
        np.testing.assert_allclose(state.memory, np.diag([-0.5, 1.5]))
        np.testing.assert_allclose(out, np.diag([0.501, 1.501]), atol=1e-12)
        assert state.k == 1

    def test_identity_fixed_point(self):
        state = PreconditionerState.identity(3, "complex")
        eps = 1e-3
        for _ in range(5):
            out = postprocess_spall(np.eye(3, dtype=complex), state, eps)
            np.testing.assert_allclose(out, (1 + eps) * np.eye(3), atol=1e-12)

    def test_zero_input_first_step(self):
        state = PreconditionerState.identity(2, "real")
        out = postprocess_spall(np.zeros((2, 2)), state, 1e-3)
        np.testing.assert_allclose(state.memory, 0.5 * np.eye(2))
        np.testing.assert_allclose(out, (0.5 + 1e-3) * np.eye(2), atol=1e-12)

    def test_scalar_mode(self):
        state = PreconditionerState.identity(1, scalar=True)
        out = postprocess_spall(-2.0, state, 1e-3)
        assert state.memory == pytest.approx(-0.5)
        assert out == pytest.approx(0.501)

    def test_dimension_mismatch(self):
        state = PreconditionerState.identity(2, "real")
        with pytest.raises(ValueError):
            postprocess_spall(np.zeros((3, 3)), state, 1e-3)

    def test_memory_stays_hermitian(self):
        rng = np.random.default_rng(0)
        state = PreconditionerState.identity(4, "complex")
        for _ in range(10):
            raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            postprocess_spall(raw, state, 1e-3)
            np.testing.assert_allclose(state.memory, state.memory.conj().T, atol=1e-12)


class TestPostprocessGidi:
    def test_zero_input_blend(self):
        eps = 1e-4
        state = PreconditionerState.identity(2, "real")
        for k in range(1, 20):
            out = postprocess_gidi(np.zeros((2, 2)), state, eps)
            w = np.linalg.eigvalsh(out)
            assert w.min() >= np.sqrt(eps) - 1e-12
            assert w.max() <= 1.0 + 1e-12
            # proportional to the identity for vanishing input
            np.testing.assert_allclose(out, out[0, 0] * np.eye(2), atol=1e-12)

    def test_worked_example_small_eps(self):
        state = PreconditionerState.identity(2, "real")
        out = postprocess_gidi(np.diag([3.0, -3.0]), state, 1e-12)
        np.testing.assert_allclose(out, np.diag([2.0, 2.0]), atol=1e-5)

    def test_differs_from_spall_on_vanishing_hessian(self):
        eps = 1e-3
        spall_state = PreconditionerState.identity(2, "real")
        gidi_state = PreconditionerState.identity(2, "real")
        h_raw = np.zeros((2, 2))
        for _ in range(50):
            spall_out = postprocess_spall(h_raw, spall_state, eps)
            gidi_out = postprocess_gidi(h_raw, gidi_state, eps)
        # spall decays to eps*I, gidi stays lower-bounded by sqrt(eps)*I
        assert np.linalg.eigvalsh(spall_out).max() < 0.05
        assert np.linalg.eigvalsh(gidi_out).min() >= np.sqrt(eps) - 1e-12
        np.testing.assert_allclose(gidi_out, gidi_out[0, 0] * np.eye(2), atol=1e-12)

    def test_scalar_mode(self):
        state = PreconditionerState.identity(1, scalar=True)
        out = postprocess_gidi(0.0, state, 1e-4)
        assert out == pytest.approx(0.5 * (1.0 + 1e-2))


class TestSteps:
    def test_first_order_zero_gradient(self):
        z = np.array([1.0 + 1.0j])
        np.testing.assert_array_equal(step_first_order(z, 0.5, np.zeros(1)), z)

    def test_first_order_complex_example(self):
        out = step_first_order(np.array([1.0 + 1.0j]), 0.5, np.array([2.0 + 0.0j]))
        np.testing.assert_allclose(out, [1.0j])

    def test_first_order_real_example(self):
        out = step_first_order(np.array([1.0, 0.0]), 1.0, np.array([2.0, -2.0]))
        np.testing.assert_allclose(out, [-1.0, 2.0])

    def test_preconditioned_identity_reduces_to_first_order(self):
        z = np.array([1.0, 2.0])
        g = np.array([0.5, -0.5])
        np.testing.assert_allclose(
            step_preconditioned(z, 0.7, g, np.eye(2)), step_first_order(z, 0.7, g)
        )

    def test_preconditioned_diagonal(self):
        out = step_preconditioned(np.zeros(2), 1.0, np.array([2.0, 4.0]),
                                  np.diag([2.0, 4.0]))
        np.testing.assert_allclose(out, [-1.0, -1.0])

    def test_scalar_mode_collinear(self):
        g = np.array([1.0 + 2.0j, -0.5j])
        out = step_preconditioned(np.zeros(2, dtype=complex), 1.0, g, 2.0)
        np.testing.assert_allclose(out, -g / 2.0)


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
        trace = run(f, cfg, np.array([2.0]), monitor=f)
        assert trace.accepted.all()
        assert abs(trace.final_params[0]) < 2.0

    def test_rejects_worse_candidate(self):
        cfg = OptimizerConfig(method="first_order", field="real", gains=STATIC,
                              blocking=0.0, max_iterations=5)
        z0 = np.array([0.3, -0.2])
        trace = run(self._rising(), cfg, z0, monitor=lambda z: 0.0)
        assert not trace.accepted.any()
        np.testing.assert_array_equal(trace.final_params, z0)

    def test_tolerance_admits_slightly_worse(self):
        cfg = OptimizerConfig(method="first_order", field="real", gains=STATIC,
                              blocking=0.1, max_iterations=5)
        z0 = np.array([0.3, -0.2])
        trace = run(self._rising(), cfg, z0, monitor=lambda z: 0.0)
        assert trace.accepted.all()
        assert not np.array_equal(trace.final_params, z0)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(blocking=-1.0)


class TestBlockingTolerance:
    def test_deterministic_objective(self):
        assert estimate_blocking_tolerance(lambda z: 3.14, np.zeros(2)) == 0.0

    def test_bernoulli_noise_level(self):
        rng = np.random.default_rng(5)
        n_shots = 20_000
        f = lambda z: rng.binomial(n_shots, 0.5) / n_shots
        delta = estimate_blocking_tolerance(f, np.zeros(1), n_samples=50)
        assert delta == pytest.approx(2.0 * np.sqrt(0.25 / n_shots), rel=0.3)

    def test_default_sample_count_deterministic(self):
        calls = []
        f = lambda z: calls.append(1) or 1.0
        estimate_blocking_tolerance(f, np.zeros(1))
        assert len(calls) == 25

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            estimate_blocking_tolerance(lambda z: 0.0, np.zeros(1), n_samples=1)


class TestResampleAverage:
    """``run`` averages the gradient over N_R independent perturbations."""

    THETA = np.array([1.0, -2.0, 0.5])

    @staticmethod
    def _f(t):
        return float(t @ t)

    def _first_gradient(self, resampling, seed=0):
        cfg = OptimizerConfig(method="first_order", field="real", gains=STATIC,
                              resampling=resampling, max_iterations=1, seed=seed)
        grads = []
        run(self._f, cfg, self.THETA, monitor=self._f,
            callback=lambda k, z, g, step: grads.append(g.copy()))
        return grads[0]

    def _draws(self, n, seed=0):
        # the perturbations run draws from its seed, one per resample
        from spsakit.estimators import gains_at, gradient_estimate, sample_perturbation

        rng = np.random.default_rng(seed)
        _, _, b1, _ = gains_at(STATIC, 1)
        return [gradient_estimate(self._f, self.THETA, b1, sample_perturbation(3, "real", rng))[0]
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
        trace = run(f, cfg, np.zeros(2))
        assert len(trace) == 17

    def test_quantum_natural_requires_fidelity(self):
        cfg = OptimizerConfig(method="quantum_natural", field="real", gains=STATIC,
                              max_iterations=3)
        with pytest.raises(ValueError):
            run(lambda z: 0.0, cfg, np.zeros(2))

    def test_scalar_first_order_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(method="first_order", scalar=True)

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

    def test_real_field_rejects_complex_start(self):
        cfg = OptimizerConfig(method="first_order", field="real", max_iterations=2)
        with pytest.raises(ValueError):
            run(lambda z: 0.0, cfg, np.zeros(2, dtype=complex))

    def test_determinism(self):
        c, f, _ = quadratic_problem("complex")
        cfg = OptimizerConfig(method="second_order", field="complex", gains=STATIC,
                              resampling=2, max_iterations=25, seed=11)
        t1 = run(f, cfg, np.zeros(2, dtype=complex))
        t2 = run(f, cfg, np.zeros(2, dtype=complex))
        np.testing.assert_array_equal(t1.objective, t2.objective)
        np.testing.assert_array_equal(t1.final_params, t2.final_params)

    def test_divergence_flagged_and_padded(self):
        cfg = OptimizerConfig(method="first_order", field="real",
                              gains=GainSchedule(a=1e6, b=0.01, s=0.0, t=0.0),
                              max_iterations=40)
        # runaway steps push the objective itself to overflow
        f = lambda z: float(np.exp(z[0] ** 2))
        with np.errstate(over="ignore", invalid="ignore"):
            trace = run(f, cfg, np.array([1.0]))
        assert trace.diverged
        assert len(trace) == 40
        assert np.isnan(trace.objective).any()

    def test_monitor_used_for_trace(self):
        c, f, _ = quadratic_problem("real")
        cfg = OptimizerConfig(method="first_order", field="real", gains=STATIC,
                              max_iterations=5)
        trace = run(f, cfg, c + 1.0, monitor=lambda z: 42.0)
        np.testing.assert_array_equal(trace.objective, np.full(5, 42.0))

    def test_without_monitor_records_through_the_noisy_objective(self):
        # Documented behaviour: the recording call is an uncharged third
        # objective call per iteration, so it draws from the objective's rng.
        c, f, _ = quadratic_problem("real")
        cfg = OptimizerConfig(method="first_order", field="real", gains=STATIC,
                              max_iterations=6)

        def noisy(rng, log):
            def objective(z):
                value = f(z) + 0.1 * rng.standard_normal()
                log.append(value)
                return value
            return objective

        values = []
        trace = run(noisy(np.random.default_rng(1), values), cfg, c + 1.0)
        assert len(values) == 3 * 6
        np.testing.assert_array_equal(trace.objective, values[2::3])
        np.testing.assert_array_equal(trace.objective_evals, 2 * np.arange(1, 7))

        monitored = run(noisy(np.random.default_rng(1), []), cfg, c + 1.0, monitor=f)
        assert not np.array_equal(monitored.final_params, trace.final_params)


class TestEvaluationAccounting:
    @pytest.mark.parametrize("n_r", [1, 2, 5])
    @pytest.mark.parametrize("method,obj_per_iter,fid_per_iter", [
        ("first_order", 2, 0),
        ("second_order", 4, 0),
        ("quantum_natural", 2, 4),
    ])
    def test_per_iteration_budgets(self, method, obj_per_iter, fid_per_iter, n_r):
        c, f, fid = quadratic_problem("complex")
        cfg = OptimizerConfig(method=method, field="complex", gains=STATIC,
                              resampling=n_r, max_iterations=4)
        trace = run(f, cfg, np.zeros(2, dtype=complex), fidelity=fid)
        expected_obj = obj_per_iter * n_r * np.arange(1, 5)
        expected_fid = fid_per_iter * n_r * np.arange(1, 5)
        np.testing.assert_array_equal(trace.objective_evals, expected_obj)
        np.testing.assert_array_equal(trace.fidelity_evals, expected_fid)

    def test_scalar_budgets_match_matrix_budgets(self):
        c, f, fid = quadratic_problem("complex")
        for method in ("second_order", "quantum_natural"):
            cfg = OptimizerConfig(method=method, field="complex", scalar=True,
                                  gains=STATIC, max_iterations=3)
            trace = run(f, cfg, np.zeros(2, dtype=complex), fidelity=fid)
            expected = (4 if method == "second_order" else 2) * np.arange(1, 4)
            np.testing.assert_array_equal(trace.objective_evals, expected)

    def test_blocking_adds_one_candidate_eval_per_iteration(self):
        c, f, _ = quadratic_problem("real")
        cfg = OptimizerConfig(method="first_order", field="real", gains=STATIC,
                              blocking=0.0, max_iterations=6)
        trace = run(f, cfg, c + 1.0)
        # 1 upfront evaluation at z0, then 2 (gradient) + 1 (candidate) per iteration
        np.testing.assert_array_equal(trace.objective_evals, 1 + 3 * np.arange(1, 7))

    def test_auto_blocking_charges_estimation_samples(self):
        c, f, _ = quadratic_problem("real")
        cfg = OptimizerConfig(method="first_order", field="real", gains=STATIC,
                              blocking="auto", max_iterations=2)
        trace = run(f, cfg, c + 1.0)
        assert trace.blocking_delta == 0.0  # noiseless objective
        np.testing.assert_array_equal(trace.objective_evals, 25 + 1 + 3 * np.arange(1, 3))


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
            trace = run(f, dataclasses.replace(cfg, seed=seed), z0)
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
            trace = run(f, dataclasses.replace(cfg, seed=seed), z0)
            finals.append(abs(np.linalg.norm(trace.final_params - c)))
        assert np.median(finals) < 1e-6

    def test_blocking_monotone_on_noiseless_objective(self):
        c, f, fid = quadratic_problem("complex")
        for method in ("first_order", "second_order", "quantum_natural"):
            cfg = OptimizerConfig(method=method, field="complex", gains=STATIC,
                                  blocking=0.0, resampling=2, max_iterations=200,
                                  seed=3)
            z0 = c + np.array([1.0 + 0.5j, -0.7j])
            trace = run(f, cfg, z0, fidelity=fid, monitor=f)
            diffs = np.diff(trace.objective)
            assert (diffs <= 1e-12).all()

    def test_preconditioner_memory_updates_on_blocked_iterations(self):
        # force rejection of every step with an enormous objective:
        # memory must still advance each iteration
        recorded = []
        c, f, fid = quadratic_problem("complex")
        cfg = OptimizerConfig(method="second_order", field="complex", gains=STATIC,
                              blocking=0.0, max_iterations=8, seed=1)
        z0 = c  # already optimal: every candidate is rejected
        trace = run(f, cfg, z0, callback=lambda k, z, g, step: recorded.append(k))
        assert not trace.accepted.any()
        assert len(recorded) == 8

    def test_scalar_step_collinear_with_gradient(self):
        c, f, fid = quadratic_problem("complex")
        records = []

        def check(k, z, g, step):
            records.append((g.copy(), step.copy()))

        cfg = OptimizerConfig(method="second_order", field="complex", scalar=True,
                              gains=STATIC, postproc="gidi", max_iterations=50,
                              seed=7)
        run(f, cfg, c + np.ones(2, dtype=complex), fidelity=fid, callback=check)
        for g, step in records:
            if np.linalg.norm(g) == 0:
                continue
            # step = (abar/h) g with h > 0: exactly collinear, positive scale
            scale = step[np.argmax(np.abs(g))] / g[np.argmax(np.abs(g))]
            assert scale.real > 0
            assert abs(scale.imag) < 1e-15
            np.testing.assert_allclose(step, scale * g, rtol=1e-12, atol=1e-15)

    def test_scalar_mode_never_builds_matrices(self):
        c, f, fid = quadratic_problem("complex", p=6)
        cfg = OptimizerConfig(method="quantum_natural", field="complex", scalar=True,
                              gains=STATIC, max_iterations=5, seed=0)
        import spsakit.optimizers as opt

        state_holder = {}
        original = opt.PreconditionerState.identity

        def spy(p, field="complex", scalar=False):
            state = original(p, field, scalar)
            state_holder["state"] = state
            return state

        opt.PreconditionerState.identity = spy
        try:
            run(f, cfg, c + np.ones(6, dtype=complex), fidelity=fid)
        finally:
            opt.PreconditionerState.identity = original
        assert np.isscalar(state_holder["state"].memory)


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
