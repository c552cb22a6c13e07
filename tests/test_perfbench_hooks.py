"""The names the benchmark's tracer patches must exist in spsakit.

``perfbench/spans.py`` wraps each ``(module, attr)`` of its
``TRACED_FUNCTIONS`` and the oracles ``make_oracles`` returns, and
``perfbench/run.py`` imports ``exact_minimum``; a rename would otherwise only
surface as a crash of a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
