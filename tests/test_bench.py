import math
from dataclasses import dataclass

import numpy as np
import pytest

from spsakit.applications import SgqtProblem, VqeProblem, exact_minimum
from spsakit.bench import (
    EnsembleSpec,
    calibrate_first_order_gain,
    run_ensemble,
    run_single,
    summarize_final,
)
from spsakit.estimators import GAIN_PRESETS, GainSchedule
from spsakit.optimizers import OptimizerConfig
from spsakit.quantum import fidelity_with_shots

STATIC = GAIN_PRESETS["static"]


def small_spec(**overrides):
    defaults = dict(
        problem=SgqtProblem(n_qubits=2, shots=1000),
        config=OptimizerConfig(method="first_order", field="complex",
                               gains=GAIN_PRESETS["asymptotic"], max_iterations=20),
        n_runs=4,
        base_seed=7,
    )
    defaults.update(overrides)
    return EnsembleSpec(**defaults)


class TestEnsembleSpec:
    @pytest.mark.parametrize("overrides", [
        dict(n_runs=0), dict(n_runs=-1), dict(workers=0), dict(workers=-3),
    ])
    def test_invalid_sizes_rejected(self, overrides):
        with pytest.raises(ValueError):
            small_spec(**overrides)

    def test_workers_none_means_one_per_cpu(self):
        assert small_spec(workers=None).workers is None


class TestCalibration:
    def test_ratio_example(self):
        # mean sup-norm 2 with target 0.1 gives a = 0.05
        f = lambda z: float(2.0 * z[0])  # gradient estimate is exactly (2, ...) signs
        gains = GainSchedule(a=1.0, b=0.1, s=0.0, t=0.0)
        rng = np.random.default_rng(0)
        a = calibrate_first_order_gain(f, [np.zeros(3)], gains, "real", rng,
                                       target_step=0.1, n_probe=10)
        assert a == pytest.approx(0.05)

    def test_deterministic_given_seed(self):
        f = lambda z: float(np.sum(z.real**2))
        gains = STATIC
        samples = [np.ones(4)]
        a1 = calibrate_first_order_gain(f, samples, gains, "real",
                                        np.random.default_rng(5))
        a2 = calibrate_first_order_gain(f, samples, gains, "real",
                                        np.random.default_rng(5))
        assert a1 == a2

    def test_first_step_near_target(self):
        # resulting first-step sup-norm within 3x of target on a VQE instance
        from spsakit.applications import make_oracles
        from spsakit.estimators import gains_at, gradient_estimate, sample_perturbation

        prob = VqeProblem(n_qubits=3, layers=1, periodic=True, shots=math.inf)
        rng = np.random.default_rng(1)
        samples = [prob.initial_point(rng) for _ in range(8)]
        oracles = make_oracles(prob, rng, "complex")
        target = 0.1
        a = calibrate_first_order_gain(oracles.objective, samples, STATIC, "complex",
                                       rng, target_step=target)
        for seed in range(10):
            check_rng = np.random.default_rng(seed)
            z0 = prob.initial_point(check_rng)
            delta = sample_perturbation(6, "complex", check_rng)
            _, _, b1, _ = gains_at(STATIC, 1)
            g, _ = gradient_estimate(oracles.objective, z0, b1, delta)
            step = a * np.max(np.abs(g))
            assert step <= 3 * target

    def test_vanishing_gradients_raise(self):
        f = lambda z: 1.0
        with pytest.raises(ValueError):
            calibrate_first_order_gain(f, [np.zeros(2)], STATIC, "real",
                                       np.random.default_rng(0))


class TestRunEnsemble:
    def test_single_run_degenerate_statistics(self):
        result = run_ensemble(small_spec(n_runs=1))
        for s in result.stats:
            assert s.std == 0.0
            assert s.q3 - s.q1 == 0.0
            assert s.mean == s.median

    def test_quantile_convention(self):
        # across-run values {1,2,3,4} must give q1=1.75, q3=3.25 (type-7)
        values = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.percentile(values, 25) == pytest.approx(1.75)
        assert np.percentile(values, 75) == pytest.approx(3.25)

    def test_statistics_match_manual_aggregation(self):
        spec = small_spec()
        result = run_ensemble(spec)
        objectives = np.stack([
            run_single(spec.problem, spec.config, spec.base_seed + r).objective
            for r in range(spec.n_runs)
        ])
        k = 10
        s = result.stats[k]
        assert s.mean == pytest.approx(objectives[:, k].mean())
        assert s.median == pytest.approx(np.median(objectives[:, k]))
        assert s.std == pytest.approx(objectives[:, k].std(ddof=1))
        assert s.q1 == pytest.approx(np.percentile(objectives[:, k], 25))
        assert s.q3 == pytest.approx(np.percentile(objectives[:, k], 75))

    def test_run_seeds_are_base_plus_index(self):
        spec = small_spec()
        result = run_ensemble(spec)
        direct = run_single(spec.problem, spec.config, spec.base_seed + 2)
        np.testing.assert_array_equal(result.traces[2].objective, direct.objective)

    def test_determinism(self):
        r1 = run_ensemble(small_spec())
        r2 = run_ensemble(small_spec())
        assert [s.mean for s in r1.stats] == [s.mean for s in r2.stats]
        assert [s.q1 for s in r1.stats] == [s.q1 for s in r2.stats]

    def test_parallel_matches_serial(self):
        serial = run_ensemble(small_spec(workers=1))
        parallel = run_ensemble(small_spec(workers=2))
        assert [s.mean for s in serial.stats] == [s.mean for s in parallel.stats]

    def test_diverged_runs_excluded_with_count(self):
        # enormous static steps overflow the GRAPE propagator: every run
        # diverges, is flagged, and drops out of the statistics
        from spsakit.applications import GrapeProblem

        spec = EnsembleSpec(
            problem=GrapeProblem(n_qubits=2, slices=2, shots=1000),
            config=OptimizerConfig(method="first_order", field="complex",
                                   gains=GainSchedule(a=1e30, b=0.01, s=0.0, t=0.0),
                                   max_iterations=10),
            n_runs=3,
            base_seed=0,
        )
        with np.errstate(all="ignore"):
            result = run_ensemble(spec)
        assert result.n_excluded == 3
        assert all(t.diverged for t in result.traces)
        assert math.isnan(result.stats[-1].mean)

    def test_calibrated_ensemble_reports_a(self):
        spec = small_spec(calibrate=True)
        result = run_ensemble(spec)
        assert result.calibrated_a is not None
        assert result.calibrated_a > 0

    def test_eval_counters_columns(self):
        spec = small_spec()
        result = run_ensemble(spec)
        np.testing.assert_array_equal(result.objective_evals,
                                      2 * np.arange(1, 21))
        np.testing.assert_array_equal(result.fidelity_evals, np.zeros(20))


class TestSummarizeFinal:
    def test_single_run_row_degenerate(self):
        spec = small_spec(n_runs=1)
        result = run_ensemble(spec)
        row = summarize_final(result, 20, spec.config)
        assert row["iqr"] == 0.0
        assert row["std"] == 0.0

    def test_row_schema_order(self):
        spec = small_spec()
        result = run_ensemble(spec)
        row = summarize_final(result, 20, spec.config)
        assert list(row.keys()) == ["method", "gains", "postproc", "resampling",
                                    "blocking", "median", "iqr", "mean", "std"]
        assert row["method"] == "CSPSA"
        assert row["gains"] == "asymptotic"
        assert row["postproc"] == "-"
        assert row["blocking"] == "no"

    def test_out_of_range_iteration(self):
        spec = small_spec()
        result = run_ensemble(spec)
        with pytest.raises(ValueError):
            summarize_final(result, 21, spec.config)


@dataclass(frozen=True)
class PlusStateProblem:
    """A workload defined outside spsakit: steer cos r|0⟩ + e^{iφ} sin r|1⟩,
    with z = r e^{iφ}, toward |+⟩, which it reaches at z = π/4."""

    shots: float = 2000

    def materialize(self, rng):
        return self

    def initial_point(self, rng):
        return np.array([-0.5j + 0.1 * rng.standard_normal()])

    def exact_minimum(self):
        return 0.0

    def state(self, z):
        r = abs(z[0])
        return np.array([math.cos(r), np.sinc(r / math.pi) * z[0]], dtype=np.complex128)

    def measure(self, psi, shots, rng=None):
        plus = np.array([1.0, 1.0], dtype=np.complex128) / math.sqrt(2.0)
        return 1.0 - fidelity_with_shots(plus, psi, shots, rng)


class TestNewWorkload:
    @pytest.mark.parametrize("method", ["first_order", "quantum_natural"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_problem_class_runs_through_the_ensemble(self, method, field):
        # a class with the five Problem methods is a complete workload
        problem = PlusStateProblem()
        config = OptimizerConfig(method=method, field=field,
                                 gains=GainSchedule(a=0.3, b=0.1), max_iterations=200)
        result = run_ensemble(EnsembleSpec(problem=problem, config=config, n_runs=4,
                                           base_seed=3))
        assert result.n_excluded == 0
        assert exact_minimum(problem) == 0.0
        assert result.stats[0].median > 0.2
        assert result.stats[-1].median < 0.1 * result.stats[0].median
