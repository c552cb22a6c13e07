import concurrent.futures
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import spsakit.bench as bench
from spsakit import linalg
from spsakit.applications import SgqtProblem, VqeProblem, exact_minimum
from spsakit.bench import (
    CALIBRATION_TARGET_STEP,
    EnsembleSpec,
    calibrate_first_order_gain,
    run_ensemble,
    run_single,
    summarize_at_budget,
    summarize_final,
)
from spsakit.estimators import GAIN_PRESETS, MAX_COUNT, GainSchedule
from spsakit.optimizers import OptimizerConfig
from spsakit.quantum import fidelity_with_shots

STATIC = GAIN_PRESETS["static"]
SRC = str(Path(bench.__file__).resolve().parent.parent)


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
        dict(base_seed=-1), dict(n_runs=1.5), dict(base_seed=0.5), dict(workers=2.0),
        dict(n_runs=True), dict(n_runs=2**20 + 1), dict(workers=2**63),
    ])
    def test_invalid_sizes_rejected(self, overrides):
        with pytest.raises(ValueError):
            small_spec(**overrides)

    def test_workers_none_means_one_per_cpu(self):
        assert small_spec(workers=None).workers is None

    @pytest.mark.parametrize("method", ["second_order", "quantum_natural"])
    def test_calibration_of_a_preconditioned_method_rejected(self, method):
        # a preconditioned step uses the gain 1/(k+A)^s, which ignores a
        config = OptimizerConfig(method=method, max_iterations=20)
        with pytest.raises(ValueError, match="first_order"):
            small_spec(config=config, calibrate=True)


class TestCalibration:
    def test_ratio_example(self):
        # mean sup-norm 2 with the target step 0.1 gives a = 0.05
        f = lambda z: float(2.0 * z[0])  # gradient estimate is exactly (2, ...) signs
        gains = GainSchedule(a=1.0, b=0.1, s=0.0, t=0.0)
        rng = np.random.default_rng(0)
        a = calibrate_first_order_gain(f, [np.zeros(3)], gains, "real", rng)
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
        from spsakit.estimators import gains_at, resample, sample_perturbation

        prob = VqeProblem(n_qubits=3, layers=1, periodic=True, shots=math.inf)
        rng = np.random.default_rng(1)
        samples = [prob.initial_point(rng) for _ in range(8)]
        oracles = make_oracles(prob, rng, "complex")
        target = CALIBRATION_TARGET_STEP
        a = calibrate_first_order_gain(oracles.objective, samples, STATIC, "complex", rng)
        for seed in range(10):
            check_rng = np.random.default_rng(seed)
            z0 = prob.initial_point(check_rng)
            delta = sample_perturbation(6, "complex", check_rng)
            _, _, b1 = gains_at(STATIC, 1)
            g, _ = resample("first_order", oracles.objective, None, z0, b1, delta)
            step = a * np.max(np.abs(g))
            assert step <= 3 * target

    def test_vanishing_gradients_raise(self):
        f = lambda z: 1.0
        with pytest.raises(ValueError, match="^calibrate:"):
            calibrate_first_order_gain(f, [np.zeros(2)], STATIC, "real",
                                       np.random.default_rng(0))

    @pytest.mark.parametrize("value", [math.inf, math.nan, 1e308])
    def test_non_finite_probe_norms_raise_without_a_warning(self, value):
        # f(z ± b_1Δ) = ±value·Δ_0: the probe differences are inf, NaN or
        # overflow numpy's float64, which warns outside run's rule
        f = lambda z: np.float64(value) * np.sign(z[0])
        with pytest.raises(ValueError, match="^calibrate:"):
            calibrate_first_order_gain(f, [np.zeros(2)], STATIC, "real",
                                       np.random.default_rng(0))

    def test_calibration_holds_one_blas_thread(self, monkeypatch):
        seen = []
        original = bench.calibrate_first_order_gain

        def spy(*args):
            seen.append(linalg.blas_threads())
            return original(*args)

        monkeypatch.setattr(bench, "calibrate_first_order_gain", spy)
        before = linalg.blas_threads()
        result = run_ensemble(small_spec(n_runs=1, calibrate=True))
        assert seen == [None if before is None else 1]
        assert result.calibrated_a is not None


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

    @staticmethod
    def _forbid_pool(monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("the ensemble started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)

    def test_workers_none_counts_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        self._forbid_pool(monkeypatch)
        serial = run_ensemble(small_spec(workers=1))
        pinned = run_ensemble(small_spec(workers=None))
        assert [s.mean for s in pinned.stats] == [s.mean for s in serial.stats]

    def test_workers_none_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        self._forbid_pool(monkeypatch)
        assert run_ensemble(small_spec(workers=None)).n_excluded == 0

    @pytest.mark.parametrize("workers, cpus, n_runs, expected", [
        (MAX_COUNT, 2, 2, 2), (3, 64, 4, 3), (1, 64, 4, 1), (None, 64, 3, 3), (None, 2, 4, 2),
    ])
    def test_resolved_workers_capped_at_the_run_count(self, monkeypatch, workers, cpus,
                                                      n_runs, expected):
        monkeypatch.setattr(bench, "available_cpus", lambda: cpus)
        assert small_spec(workers=workers, n_runs=n_runs).resolved_workers() == expected

    def test_pool_holds_no_more_workers_than_runs(self, monkeypatch):
        # a forked pool starts all its workers at the first submit; this
        # stand-in records the size asked for and runs the jobs in-process
        sizes = []

        class RecordingExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        pooled = run_ensemble(small_spec(workers=MAX_COUNT, n_runs=2))
        assert sizes == [2]
        serial = run_ensemble(small_spec(workers=1, n_runs=2))
        assert sizes == [2]
        assert [s.mean for s in pooled.stats] == [s.mean for s in serial.stats]

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
        result = run_ensemble(spec)
        assert result.n_excluded == 3
        assert all(t.diverged for t in result.traces)
        assert math.isnan(result.stats[-1].mean)

    # Under this repository's error::RuntimeWarning filter a warning would
    # raise: run computes under one floating-point rule, so an overflowing
    # step (a = 1e308) or propagation (a = 1e6) ends the run as diverged.
    @pytest.mark.parametrize("gains, reason", [
        (GainSchedule(a=1e308, b=1e-3), "candidate"),
        (GainSchedule(a=1e6, b=0.01, s=0.0, t=0.0), "recorded"),
    ])
    def test_overflowing_grape_run_diverges_without_a_warning(self, gains, reason):
        from spsakit.applications import GrapeProblem

        trace = run_single(GrapeProblem(n_qubits=2, slices=3),
                           OptimizerConfig(gains=gains, max_iterations=5), 7)
        assert (trace.diverged_at, trace.diverged_reason) == (1, reason)
        assert np.isnan(trace.objective).all()

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

    @pytest.mark.parametrize("method", ["first_order", "quantum_natural"])
    def test_pooled_counts_match_serial_bit_for_bit(self, method):
        # blocking="auto" spends 26 evaluations before iteration 1: the
        # count each trace derives its arrays from must survive the pickling
        config = OptimizerConfig(method=method, blocking="auto", max_iterations=6)
        serial = run_ensemble(small_spec(config=config, workers=1))
        pooled = run_ensemble(small_spec(config=config, workers=2))
        # 25 samples and f(z0), then 2 estimate evaluations and 1 candidate
        assert serial.objective_evals[0] == 25 + 1 + 2 + 1
        for name in ("objective_evals", "fidelity_evals"):
            assert getattr(pooled, name).tobytes() == getattr(serial, name).tobytes()
            for a, b in zip(pooled.traces, serial.traces):
                assert getattr(a, name).dtype == np.int64
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def test_importing_the_cli_leaves_the_process_pool_unimported(self):
        # concurrent.futures costs a fresh interpreter about 18 ms, which
        # only an ensemble on a pool needs: run_ensemble imports it there
        code = ("import sys, spsakit.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('concurrent')))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": SRC})
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_statistics_rows_have_no_instance_dict(self):
        row = run_ensemble(small_spec(n_runs=1)).stats[0]
        assert not hasattr(row, "__dict__")
        with pytest.raises(AttributeError):
            row.mean = 0.0


class TestBlasThreadPin:
    @staticmethod
    def _record_threads(monkeypatch, fail):
        seen = []
        original = bench.run

        def spy(*args, **kwargs):
            seen.append(linalg.blas_threads())
            if fail:
                raise RuntimeError("run failed")
            return original(*args, **kwargs)

        monkeypatch.setattr(bench, "run", spy)
        return seen

    def test_run_holds_one_thread_and_restores_the_callers_count(self, monkeypatch):
        seen = self._record_threads(monkeypatch, fail=False)
        before = linalg.blas_threads()
        spec = small_spec(n_runs=1)
        trace = run_single(spec.problem, spec.config, spec.base_seed)
        assert seen == [None if before is None else 1]
        assert linalg.blas_threads() == before
        assert not trace.diverged

    def test_count_restored_when_the_run_raises(self, monkeypatch):
        seen = self._record_threads(monkeypatch, fail=True)
        before = linalg.blas_threads()
        spec = small_spec(n_runs=1)
        with pytest.raises(RuntimeError, match="run failed"):
            run_single(spec.problem, spec.config, spec.base_seed)
        assert seen == [None if before is None else 1]
        assert linalg.blas_threads() == before

    def test_pool_workers_inherit_one_thread_and_call_no_setter(self, monkeypatch):
        # OpenBLAS's setter restarts a forked worker's threads, which then
        # spin; a worker forked on one thread needs no setter call.
        lib = linalg._openblas_threads()
        if lib is None:
            pytest.skip("numpy has no bundled OpenBLAS")
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("pool workers are not forked, so they inherit nothing")
        get, set_ = lib
        set_calls = []
        monkeypatch.setattr(linalg, "_openblas_threads",
                            lambda: (get, lambda n: set_calls.append(n) or set_(n)))
        original = bench.run

        def spy(*args, **kwargs):
            trace = original(*args, **kwargs)
            trace.seen = (os.getpid(), linalg.blas_threads(), len(set_calls))
            return trace

        monkeypatch.setattr(bench, "run", spy)
        before = get()
        result = run_ensemble(small_spec(workers=2))
        pids = {t.seen[0] for t in result.traces}
        assert os.getpid() not in pids
        # the parent's one setter call precedes the fork; workers add none
        expected_calls = 0 if before == 1 else 1
        assert {t.seen[1:] for t in result.traces} == {(1, expected_calls)}
        assert set_calls == ([] if before == 1 else [1, before])
        assert get() == before


class TestTraceStorage:
    def test_pickled_trace_holds_no_count_arrays(self):
        # a 200-iteration run of the benchmark's 6-qubit SGQT problem, as a
        # pool worker sends it back
        trace = run_single(SgqtProblem(n_qubits=6),
                           OptimizerConfig(method="first_order", max_iterations=200), 1)
        assert not any(isinstance(value, np.ndarray) and value.dtype.kind in "iu"
                       for value in vars(trace).values())
        payload = pickle.dumps(trace)
        assert len(payload) <= 3600
        copy = pickle.loads(payload)
        np.testing.assert_array_equal(copy.objective_evals, 2 * np.arange(1, 201))
        assert not copy.fidelity_evals.any()


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


class TestSummarizeAtBudget:
    """CSPSA spends 2 objective evaluations per iteration; QN-CSPSA spends 2
    objective and 4 fidelity evaluations."""

    @staticmethod
    def _ensembles(**config):
        results = {}
        for method in ("first_order", "quantum_natural"):
            spec = small_spec(config=OptimizerConfig(method=method, max_iterations=10,
                                                     **config))
            results[method] = (run_ensemble(spec), spec.config)
        return results

    @pytest.mark.parametrize("objective_budget,fidelity_budget,expected", [
        (12, None, {"first_order": 6, "quantum_natural": 6}),
        (13, None, {"first_order": 6, "quantum_natural": 6}),
        (12, 12, {"first_order": 6, "quantum_natural": 3}),
        (100, 22, {"first_order": 10, "quantum_natural": 5}),
        (2, 4, {"first_order": 1, "quantum_natural": 1}),
    ])
    def test_last_iteration_within_both_budgets(self, objective_budget, fidelity_budget,
                                                expected):
        for method, (result, config) in self._ensembles().items():
            row = summarize_at_budget(result, config, objective_budget, fidelity_budget)
            k = expected[method]
            assert row == {**summarize_final(result, k, config), "iteration": k}

    def test_counts_before_iteration_1_are_spent_from_the_budget(self):
        # blocking="auto": 26 evaluations at z0, then 3 (CSPSA) per iteration
        results = self._ensembles(blocking="auto")
        result, config = results["first_order"]
        assert summarize_at_budget(result, config, 35)["iteration"] == 3
        with pytest.raises(ValueError, match="iteration 1"):
            summarize_at_budget(result, config, 28)

    @pytest.mark.parametrize("objective_budget,fidelity_budget,method", [
        (1, None, "first_order"),
        (1, None, "quantum_natural"),
        (100, 3, "quantum_natural"),
        (-1, 0, "first_order"),
    ])
    def test_iteration_1_over_budget_raises(self, objective_budget, fidelity_budget, method):
        result, config = self._ensembles()[method]
        with pytest.raises(ValueError, match="iteration 1"):
            summarize_at_budget(result, config, objective_budget, fidelity_budget)

    def test_all_diverged_ensemble_raises(self):
        # enormous steps make every GRAPE run diverge; the ensemble's counts
        # are then all 0, which would fit any budget
        from spsakit.applications import GrapeProblem

        spec = EnsembleSpec(
            problem=GrapeProblem(n_qubits=2, slices=2, shots=1000),
            config=OptimizerConfig(gains=GainSchedule(a=1e30, b=0.01, s=0.0, t=0.0),
                                   max_iterations=10),
            n_runs=2,
        )
        result = run_ensemble(spec)
        assert result.n_excluded == 2
        with pytest.raises(ValueError, match="diverged"):
            summarize_at_budget(result, spec.config, 100)


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
        z = np.asarray(z)[..., 0]  # one state per row of a stack
        r = np.abs(z)
        return np.stack([np.cos(r), np.sinc(r / math.pi) * z], axis=-1).astype(np.complex128)

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
