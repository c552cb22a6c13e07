"""Tests of the benchmark's own arithmetic and instrumentation.

    python3 -m pytest -q perfbench
"""

import json
import multiprocessing
import re
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import spsakit  # noqa: E402
from spsakit import bench  # noqa: E402
from spsakit.applications import GrapeProblem, VqeProblem  # noqa: E402
from spsakit.optimizers import OptimizerConfig  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 6];
# d [20, 22] is a second root.
NAME_IDS = [0, 1, 2, 1, 3]
PARENTS = [-1, 0, 1, 0, -1]
STARTS = [0.0, 1.0, 2.0, 5.0, 20.0]
ENDS = [10.0, 4.0, 3.0, 6.0, 22.0]


def test_self_time_of_nested_spans():
    calls, self_s = spans.span_totals(NAME_IDS, PARENTS, STARTS, ENDS, 4)
    assert calls.tolist() == [1, 2, 1, 1]
    assert self_s.tolist() == [6.0, 3.0, 1.0, 2.0]


def test_untraced_time_is_summed_from_the_gaps_between_roots():
    windows = [(-1.0, 12.0), (19.0, 23.0), (30.0, 31.0)]
    assert spans.untraced_seconds(PARENTS, STARTS, ENDS, windows) == 3.0 + 2.0 + 1.0


@pytest.mark.parametrize("starts, ends, windows, message", [
    # c [2, 5] outlasts its parent b [1, 4]
    (STARTS, [10.0, 4.0, 5.0, 6.0, 22.0], [(0.0, 22.0)], "not inside its parent"),
    # the second b [3.5, 6] starts before the first b [1, 4] ends
    ([0.0, 1.0, 2.0, 3.5, 20.0], ENDS, [(0.0, 22.0)], "overlaps"),
    # d [20, 22] falls outside the single traced window
    (STARTS, ENDS, [(0.0, 10.0)], "outside the traced windows"),
    # a [0, 10] starts before its window does
    (STARTS, ENDS, [(0.5, 10.0), (20.0, 22.0)], "outside the traced windows"),
])
def test_broken_span_sets_fail_the_check(starts, ends, windows, message):
    with pytest.raises(ValueError, match=message):
        spans.untraced_seconds(PARENTS, starts, ends, windows)


def test_layer_metrics_account_for_the_wall_time():
    recorder = spans.SpanRecorder()
    outer = recorder.wrap("bench.run_ensemble", lambda: inner())
    inner = recorder.wrap("linalg.solve_pd", lambda: sum(range(1000)))
    windows = []
    for _ in range(2):
        start = run.perf_counter()
        outer()
        windows.append((start, run.perf_counter()))
    # 0.25 s untraced before the first root span and after the second
    windows = [(windows[0][0] - 0.25, windows[0][1]), (windows[1][0], windows[1][1] + 0.25)]
    metrics, remainder = run.layer_metrics(recorder, windows, 4)
    assert remainder == pytest.approx(0.5, abs=1e-3)
    assert metrics["linalg.solve_pd.calls_per_iter"][0] == 0.5
    assert metrics["bench.run_ensemble.calls_per_iter"][0] == 0.5
    wall = sum(end - start for start, end in windows)
    shares = sum(metrics[f"{layer}.share"][0] for layer in spans.LAYERS)
    assert shares == pytest.approx(1 - remainder / wall)
    assert list(metrics) + ["bench.pool_efficiency", "trace.overhead_frac"] == \
        run.per_layer_names()
    with pytest.raises(run.CheckFailed):
        run.layer_metrics(recorder, windows[1:], 4)


def test_metric_names_are_well_formed_and_declared():
    end_to_end = [m["name"] for m in BENCHMARK["end_to_end"]]
    per_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    assert per_layer == run.per_layer_names()
    names = end_to_end + per_layer + [w["name"] for w in BENCHMARK["workloads"]]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)


def test_reference_on_two_cores_is_timed_and_leaves_no_processes():
    two = run.reference_seconds(2)
    one = run.reference_seconds(1)
    assert 0 < two < 20 * one
    assert multiprocessing.active_children() == []


def _module_attributes():
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == "spsakit" or name.startswith("spsakit.")
            for attr, value in vars(module).items() if callable(value)}


def _tiny_vqe():
    problem = VqeProblem(n_qubits=3, layers=1, periodic=False, shots=100)
    config = OptimizerConfig(method="quantum_natural", max_iterations=3)
    return bench.EnsembleSpec(problem=problem, config=config, n_runs=2, base_seed=7)


def _tiny_grape():
    problem = GrapeProblem(n_qubits=3, slices=4, shots=100)
    config = OptimizerConfig(method="second_order", max_iterations=3)
    return bench.EnsembleSpec(problem=problem, config=config, n_runs=2, base_seed=7)


@pytest.mark.parametrize("make_spec, expected", [
    (_tiny_vqe, {"applications.vqe_state": 11, "applications.objective": 2,
                 "applications.fidelity": 4, "applications.monitor": 1,
                 "quantum.apply_single_qubit_gate": 11 * 6,
                 "linalg.psd_sqrt_shifted": 1, "estimators.metric_estimate": 1}),
    (_tiny_grape, {"applications.grape_final_state": 5, "applications.objective": 4,
                   "applications.fidelity": 0, "applications.monitor": 1,
                   "linalg.psd_sqrt_shifted": 1, "linalg.solve_pd": 1,
                   "estimators.hessian_estimate": 1}),
])
def test_traced_pass_counts_calls_and_restores_every_attribute(make_spec, expected):
    before = _module_attributes()
    untraced = bench.run_ensemble(make_spec())
    recorder = spans.SpanRecorder()
    with spans.instrumented(recorder):
        assert spsakit.optimizers.psd_sqrt_shifted is not before[
            ("spsakit.optimizers", "psd_sqrt_shifted")]
        traced = spsakit.bench.run_ensemble(make_spec())
    assert _module_attributes() == before
    assert run.fingerprint(traced) == run.fingerprint(untraced)

    calls, _ = recorder.totals()
    per_iter = dict(zip(recorder.labels, calls / (2 * 3)))
    for label, count in expected.items():
        assert per_iter[label] == count, label


def test_attributes_restored_when_the_traced_pass_raises():
    before = _module_attributes()
    with pytest.raises(RuntimeError):
        with spans.instrumented(spans.SpanRecorder()):
            raise RuntimeError("boom")
    assert _module_attributes() == before


def test_errors_rejects_an_optimizer_that_got_worse():
    trace = bench.run_single(_tiny_vqe().problem, _tiny_vqe().config, 0)
    result = bench.EnsembleResult(stats=[], traces=[trace], n_excluded=0,
                                  objective_evals=trace.objective_evals,
                                  fidelity_evals=trace.fidelity_evals)
    trace.objective[-1] = trace.objective[0] + 1.0
    with pytest.raises(run.CheckFailed):
        run.errors([result], 0.0)
    trace.objective[-1] = np.nan
    with pytest.raises(run.CheckFailed):
        run.errors([result], 0.0)
