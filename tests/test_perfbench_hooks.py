"""What the benchmark reads of spsakit must exist and behave.

``perfbench/spans.py`` wraps each ``(module, attr)`` of its
``TRACED_FUNCTIONS`` and the oracles ``make_oracles`` returns, and
``perfbench/run.py`` imports ``exact_minimum``; a rename would otherwise only
surface as a crash of a traced benchmark run.  ``perfbench/run.py``'s
``fingerprint`` and ``check_eval_counts`` read the `RunTrace` of every
workload, so a change to the trace would otherwise only surface as a failed
correctness gate.
"""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from spsakit import bench

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves_to_a_callable():
    spans = _load_spans()
    assert spans.TRACED_FUNCTIONS
    for label, module_name, attr in spans.TRACED_FUNCTIONS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), label


def test_oracle_factory_and_exact_minimum_exist():
    applications = importlib.import_module("spsakit.applications")
    assert callable(applications.make_oracles)
    assert callable(applications.exact_minimum)


def test_problem_states_call_the_traced_module_globals(monkeypatch):
    """The traced ``vqe_state`` and ``grape_final_state`` spans count state
    builds only while the problem classes reach them as module globals."""
    applications = importlib.import_module("spsakit.applications")
    calls = []
    for name in ("vqe_state", "grape_final_state"):
        monkeypatch.setattr(applications, name,
                            lambda prob, z, name=name: calls.append(name) or name)
    assert applications.VqeProblem().state(None) == "vqe_state"
    assert applications.GrapeProblem().state(None) == "grape_final_state"
    assert calls == ["vqe_state", "grape_final_state"]


@pytest.mark.parametrize("method, called", [
    ("first_order", ["gradient_estimate"]),
    ("second_order", ["gradient_estimate", "hessian_estimate"]),
    ("quantum_natural", ["gradient_estimate", "metric_estimate"]),
])
def test_resample_calls_the_traced_estimator_globals(monkeypatch, method, called):
    """The traced estimator spans count one call per resample only while
    ``resample`` reaches each estimator once, as a module global."""
    estimators = importlib.import_module("spsakit.estimators")
    calls = []
    for name in ("gradient_estimate", "hessian_estimate", "metric_estimate"):
        monkeypatch.setattr(estimators, name,
                            lambda *values, name=name: calls.append(name) or 0.0)
    delta = np.ones(2)
    estimators.resample(method, lambda z: 0.0, lambda za, zb: 1.0, np.zeros(2), 0.1, delta,
                        None if method == "first_order" else delta)
    assert calls == called


@pytest.fixture(scope="module")
def perfbench_run():
    """``perfbench/run.py`` as a module, with its sibling modules importable
    while the tests of this module run."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in ("spans", "workloads"):
            sys.modules.pop(name, None)


def test_workload_ensembles_pass_the_benchmark_checks(perfbench_run):
    """A serial 2-run, 3-iteration ensemble of each workload, built from its
    flags, fingerprints the same twice and spends what the workload says."""
    assert perfbench_run.workloads.WORKLOADS
    for wl in perfbench_run.workloads.WORKLOADS.values():
        small = dataclasses.replace(wl, flags=wl.flags + ("--iterations", "3"),
                                    runs_per_chunk=2)
        assert small.iterations == 3
        spec = small.spec(small.problem, small.config, seed=1, chunk=0, workers=1)
        first, second = bench.run_ensemble(spec), bench.run_ensemble(spec)
        assert not any(trace.diverged for trace in first.traces), wl.name
        assert perfbench_run.fingerprint(first) == perfbench_run.fingerprint(second), wl.name
        perfbench_run.check_eval_counts(wl, [first])
