"""The construction contract, property-tested.

A problem, an optimizer config, an ensemble spec or a command line either
raises ``ValueError`` (exit 2 with ``error:`` and no file written, for the
command line) or builds something on which one iteration of every method
runs to a well-formed trace (exit 0 with a well-formed CSV and JSON).

The cases run in a child process whose address space is capped by
``RLIMIT_AS``, so that a bound the library misses fails the test instead of
exhausting the machine.  Every case uses one run, one iteration and at most
three qubits, so that no process pool is ever started.
"""

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spsakit import cli
from spsakit.applications import GrapeProblem, SgqtProblem, VqeProblem
from spsakit.bench import EnsembleSpec, run_single
from spsakit.cli import APPLICATIONS, OPTION_PARSERS, PROBLEM_FIELDS, main
from spsakit.optimizers import OptimizerConfig

ADDRESS_SPACE = 2 * 2**30
QUBITS = 3

# The boundary and junk values of every option: 0, -1, NaN, ±inf, 2^63, an
# empty and an unknown string, as flag text and as config-file JSON values.
FLAG_VALUES = ("0", "-1", "nan", "inf", "-inf", str(2**63), "", "bogus")
FILE_VALUES = (0, -1, math.nan, math.inf, -math.inf, 2**63, "", "bogus")

# One iteration of every method: first order, and each preconditioned method
# in both post-processings, scalar and matrix, all in both fields.
METHODS = [OptimizerConfig(field=field, max_iterations=1) for field in ("real", "complex")] + [
    OptimizerConfig(method=method, field=field, scalar=scalar, postproc=postproc,
                    max_iterations=1)
    for method in ("second_order", "quantum_natural") for field in ("real", "complex")
    for scalar in (False, True) for postproc in ("spall", "gidi")]

SETTINGS = settings(derandomize=True, max_examples=100, database=None, deadline=None,
                    suppress_health_check=list(HealthCheck))


def _application(option, i):
    """An application that takes ``option``, the i-th in turn."""
    takes = [name for name, (cls, _) in APPLICATIONS.items()
             if option not in PROBLEM_FIELDS or option in cli._problem_defaults(cls)]
    return takes[i % len(takes)]


def _check_main(option, value, as_flag, i):
    """``main`` with ``option`` at ``value`` exits 0 with a well-formed CSV and
    JSON, or 2 with ``error:`` and no file written; never anything else."""
    base = {"application": _application(option, i), "qubits": QUBITS, "runs": 1,
            "iterations": 1, "out": "case"}
    if base["application"] == "grape":
        base["slices"] = 3
    base[option] = value
    if as_flag:
        argv = [f"--{name}={text}" for name, text in base.items()]
    else:
        Path("case-config.json").write_text(json.dumps(base))
        argv = ["--config", "case-config.json"]
    before = set(os.listdir("."))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    written = set(os.listdir(".")) - before
    assert code in (0, 2), (argv, code, err.getvalue())
    if code == 2:
        assert "error:" in err.getvalue() and not written, (argv, written)
        return
    out = base["out"]
    assert written == {out + ".csv", out + ".json"}, (argv, written)
    rows = Path(out + ".csv").read_text().splitlines()
    assert rows[0] == "iteration,mean,std,median,q1,q3,obj_evals,fid_evals", argv
    assert [len(row.split(",")) for row in rows[1:]] == [8] * (len(rows) - 1), argv

    def reject(token):
        raise AssertionError(f"{argv}: non-standard JSON token {token}")

    summary = json.loads(Path(out + ".json").read_text(), parse_constant=reject)
    assert len(rows) - 1 == summary["at_iteration"], argv
    for name in written:
        os.remove(name)


def _check_one_iteration(problem):
    """One iteration of every method runs on ``problem`` to a well-formed trace."""
    for config in METHODS:
        trace = run_single(problem, config, seed=0)
        assert trace.objective.shape == trace.accepted.shape == (1,)
        assert trace.objective_evals.shape == trace.fidelity_evals.shape == (1,)
        assert trace.diverged_at in (None, 1) and trace.recorded == (trace.diverged_at is None)
        assert trace.diverged == (trace.diverged_reason is not None)
        assert np.isfinite(trace.final_params).all()
        assert np.isfinite(trace.objective[:trace.recorded]).all()
        assert np.isnan(trace.objective[trace.recorded:]).all()


# Counts: small ones, which construct and run fast, and junk.
_JUNK_COUNTS = [-1, 0, 2**63, -2**63, True, np.True_, None, "2", 2.0, 1.5, math.nan, math.inf,
                np.float64(2.0)]
_COUNTS = st.one_of(st.integers(1, QUBITS), st.integers(0, QUBITS).map(np.int64),
                    st.sampled_from(_JUNK_COUNTS))
# Mostly small valid counts, so that given states meet a valid problem.
_MOSTLY_VALID_COUNTS = st.sampled_from([1, 2, 3] * 5 + [np.int64(2)] + _JUNK_COUNTS)


def _state(draw_values, how):
    """A given state in one of the ways a caller may pass one."""
    values = np.array(draw_values, dtype=np.complex128)
    norm = np.linalg.norm(values)
    unit = values / norm if 0 < norm < math.inf else values
    return {
        "raw": values, "unit": unit, "list": [complex(v) for v in unit],
        "real": unit.real.tolist(), "int": np.round(values.real).astype(np.int64),
        "float32": unit.astype(np.complex64), "2d": unit.reshape(1, -1),
        "column": unit.reshape(-1, 1), "bool": np.abs(values) > 1, "str": unit.astype(str),
        "object": np.array(list(unit) + [None], dtype=object), "scaled": 2.0 * unit,
        "nan": np.where(np.arange(unit.size) == 0, np.nan, unit),
    }[how]


_HOW = ("raw", "unit", "list", "real", "int", "float32", "2d", "column", "bool", "str",
        "object", "scaled", "nan")


@st.composite
def _problem_args(draw):
    """A qubit count, a second count, and a state that mostly has the length
    the qubit count asks for."""
    n_qubits, count = draw(_MOSTLY_VALID_COUNTS), draw(_MOSTLY_VALID_COUNTS)
    valid = type(n_qubits) in (int, np.int64) and 0 <= n_qubits <= QUBITS
    size = 2**int(n_qubits) if valid else 4
    length = draw(st.sampled_from([size, size, size, size + 1, max(size - 1, 1)]))
    values = draw(st.lists(st.complex_numbers(min_magnitude=0.5, max_magnitude=1e3),
                           min_size=length, max_size=length))
    how = draw(st.sampled_from((None,) + _HOW))
    state = None if how is None else _state(values, how)
    return n_qubits, count, state


@SETTINGS
@given(st.sampled_from([name for name in OPTION_PARSERS if name != "out"]),
       st.one_of(st.integers(-3, 3), st.sampled_from([2**63, 2**64, -2**63]),
                 st.floats().map(repr), st.text("0123456789abcdefinxyz.,+-_e ", max_size=8)),
       st.integers(0, 2))
def _main_property(option, value, i):
    _check_main(option, str(value), True, i)


@settings(SETTINGS, max_examples=300)
@given(st.sampled_from(["vqe", "grape", "sgqt"]), _problem_args())
def _problem_property(application, args):
    n_qubits, count, state = args
    make = {
        "vqe": lambda: VqeProblem(n_qubits=n_qubits, layers=count, periodic=False),
        "grape": lambda: GrapeProblem(n_qubits=n_qubits, slices=count, psi0=state),
        "sgqt": lambda: SgqtProblem(n_qubits=n_qubits, unknown=state),
    }[application]
    try:
        problem = make()
    except ValueError:
        return
    assert problem.n_qubits <= QUBITS
    for name in ("psi0", "unknown"):
        given_state = getattr(problem, name, None)
        if given_state is not None:
            assert given_state.dtype == np.complex128 and given_state.shape == (2**n_qubits,)
            assert not given_state.flags.writeable
    _check_one_iteration(problem)


@SETTINGS
@given(_COUNTS, _COUNTS, _COUNTS, _COUNTS, st.one_of(st.none(), _COUNTS))
def _options_property(resampling, max_iterations, n_runs, base_seed, workers):
    try:
        config = OptimizerConfig(resampling=resampling, max_iterations=max_iterations)
        EnsembleSpec(problem=SgqtProblem(n_qubits=1), config=config, n_runs=n_runs,
                     base_seed=base_seed, workers=workers)
    except ValueError:
        return
    for value in (resampling, max_iterations, n_runs, base_seed):
        assert isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    trace = run_single(SgqtProblem(n_qubits=1), config, seed=base_seed)
    assert trace.objective.shape == (max_iterations,)


def _child():
    """Every case, in the child process: each option at each junk value, as a
    flag and in a config file, then the Hypothesis properties."""
    os.chdir(tempfile.mkdtemp())
    for option in OPTION_PARSERS:
        for i, (text, value) in enumerate(zip(FLAG_VALUES, FILE_VALUES)):
            _check_main(option, text, True, i)
            _check_main(option, value, False, i)
    for problem in (SgqtProblem(n_qubits=1, unknown=[1.0, 0.0]),
                    GrapeProblem(n_qubits=2, slices=2, psi0=[0.5, 0.5, 0.5, 0.5])):
        _check_one_iteration(problem)
    _main_property()
    _problem_property()
    _options_property()


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS"), reason="needs RLIMIT_AS")
def test_construction_contract_in_a_memory_capped_child(tmp_path):
    tests = Path(__file__).resolve().parent
    src = tests.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(tests)]),
               TMPDIR=str(tmp_path))
    child = subprocess.run(
        [sys.executable, "-c", "import test_contract; test_contract._child()"],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=600,
        preexec_fn=_limit_address_space)
    assert child.returncode == 0, child.stdout[-4000:] + child.stderr[-8000:]
