"""SciPy's LAPACK extension loads only for runs that do matrix algebra, and
loads without ``scipy.linalg``.

The test modules import ``scipy.linalg`` themselves, so each check runs its
script in a fresh interpreter and reads the script's last line of output.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import spsakit

SRC = str(Path(spsakit.__file__).resolve().parent.parent)

PRELUDE = """
import json, sys
from dataclasses import replace
from functools import partial
from spsakit.applications import SgqtProblem
from spsakit.bench import EnsembleSpec, run_ensemble, run_single
from spsakit.optimizers import OptimizerConfig

def loaded():
    return "scipy.linalg._flapack" in sys.modules

def imported():
    return "scipy.linalg" in sys.modules

problem = SgqtProblem(n_qubits=2, shots=100)
"""


def run_script(body):
    done = subprocess.run([sys.executable, "-c", PRELUDE + body], capture_output=True,
                          text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    return json.loads(done.stdout.splitlines()[-1])


def test_first_order_and_scalar_runs_leave_lapack_unloaded():
    seen = run_script("""
import spsakit.cli
seen = {"import": [loaded(), imported()]}
run_single(problem, OptimizerConfig(max_iterations=3), 0)
seen["first_order"] = [loaded(), imported()]
run_single(problem, OptimizerConfig(method="second_order", scalar=True, max_iterations=3), 0)
seen["scalar"] = [loaded(), imported()]
run_single(problem, OptimizerConfig(method="second_order", max_iterations=3), 0)
seen["second_order"] = [loaded(), imported()]
run_single(problem, OptimizerConfig(method="quantum_natural", max_iterations=3), 0)
seen["quantum_natural"] = [loaded(), imported()]
print(json.dumps(seen))
""")
    assert seen == {"import": [False, False], "first_order": [False, False],
                    "scalar": [False, False], "second_order": [True, False],
                    "quantum_natural": [True, False]}


def test_pooled_ensemble_loads_lapack_in_the_parent_before_the_pool():
    seen = run_script("""
import spsakit.bench as bench
pool_starts = []
in_workers = []

def reporting(job, seed):
    return job(seed), [loaded(), imported()]

class RecordingPool(bench.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        pool_starts.append(loaded())
        super().__init__(*args, **kwargs)

    def map(self, fn, *iterables, **kwargs):
        for trace, flags in super().map(partial(reporting, fn), *iterables, **kwargs):
            in_workers.append(flags)
            yield trace

bench.ProcessPoolExecutor = RecordingPool

def fingerprint(result):
    return [[t.objective.tobytes().hex(), t.final_params.tobytes().hex()]
            for t in result.traces]

spec = EnsembleSpec(problem=problem, config=OptimizerConfig(max_iterations=3), n_runs=2,
                    base_seed=5, workers=2)
run_ensemble(spec)
spec = replace(spec, config=OptimizerConfig(method="quantum_natural", max_iterations=5),
               n_runs=4)
pooled = run_ensemble(spec)
parent = [loaded(), imported()]
serial = run_ensemble(replace(spec, workers=1))
print(json.dumps({"pool_starts": pool_starts, "workers": in_workers, "parent": parent,
                  "same": fingerprint(pooled) == fingerprint(serial)}))
""")
    assert seen == {"pool_starts": [False, True],
                    "workers": [[False, False]] * 2 + [[True, False]] * 4,
                    "parent": [True, False], "same": True}


def test_lapack_loaded_first_is_the_module_scipy_linalg_uses():
    seen = run_script("""
import numpy as np
from spsakit import linalg

rng = np.random.default_rng(11)
a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
cases = {"float64": (a.real @ a.real.T + np.eye(4), rng.normal(size=4)),
         "complex128": (a @ a.conj().T + np.eye(4), rng.normal(size=4) + 1j * rng.normal(size=4))}
cases["real matrix, complex rhs"] = (cases["float64"][0], cases["complex128"][1])
solutions = {name: linalg.solve_pd(h, v) for name, (h, v) in cases.items()}
for h, _ in cases.values():
    linalg.psd_sqrt_shifted(h, 0.1, np.eye(4))
before = [loaded(), imported()]

def identical(xs, ys):
    return all(x is y for x, y in zip(xs, ys, strict=True))

import scipy.linalg
from scipy.linalg import get_lapack_funcs

same = {"registered": scipy.linalg.lapack._flapack is sys.modules["scipy.linalg._flapack"]}
for name, (h, v) in cases.items():
    complex_matrix = h.dtype.kind == "c"
    names = ("geqrf", "ungqr", "heevd") if complex_matrix else ("geqrf", "orgqr", "syevd")
    spectral = get_lapack_funcs(names, dtype=h.dtype)
    potrf, = get_lapack_funcs(("potrf",), (h,))
    factor = scipy.linalg.cho_factor(h, lower=True)
    potrs, = get_lapack_funcs(("potrs",), (factor[0], v))
    complex_rhs = complex_matrix or v.dtype.kind == "c"
    same[name] = [
        identical(linalg._routines(complex_matrix, *names), spectral),
        identical(linalg._routines(complex_matrix, "potrf")
                  + linalg._routines(complex_rhs, "potrs"), (potrf, potrs)),
        solutions[name].tobytes() == scipy.linalg.cho_solve(factor, v).tobytes(),
    ]
print(json.dumps({"before": before, "same": same}))
""")
    assert seen == {"before": [True, False],
                    "same": {"registered": True, "float64": [True] * 3,
                             "complex128": [True] * 3,
                             "real matrix, complex rhs": [True] * 3}}


def test_missing_extension_raises_import_error_and_registers_nothing(tmp_path):
    seen = run_script(f"""
import scipy
from spsakit import linalg

scipy.__path__ = [{str(tmp_path)!r}]
try:
    linalg.load_lapack()
    error = None
except ImportError as exc:
    error = [exc.name, str(exc)]
print(json.dumps({{"error": error, "loaded": loaded()}}))
""")
    assert seen == {"error": ["scipy.linalg._flapack",
                              f"no scipy.linalg._flapack extension in {tmp_path / 'linalg'}"],
                    "loaded": False}
