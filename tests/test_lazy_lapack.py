"""SciPy's LAPACK loads only for runs that do matrix algebra.

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
from spsakit.applications import SgqtProblem
from spsakit.bench import EnsembleSpec, run_ensemble, run_single
from spsakit.optimizers import OptimizerConfig

def loaded():
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
seen = {"import": loaded()}
run_single(problem, OptimizerConfig(max_iterations=3), 0)
seen["first_order"] = loaded()
run_single(problem, OptimizerConfig(method="second_order", scalar=True, max_iterations=3), 0)
seen["scalar"] = loaded()
run_single(problem, OptimizerConfig(method="second_order", max_iterations=3), 0)
seen["second_order"] = loaded()
print(json.dumps(seen))
""")
    assert seen == {"import": False, "first_order": False, "scalar": False,
                    "second_order": True}


def test_pooled_ensemble_loads_lapack_in_the_parent_before_the_pool():
    seen = run_script("""
import spsakit.bench as bench
pool_starts = []

class RecordingPool(bench.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        pool_starts.append(loaded())
        super().__init__(*args, **kwargs)

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
serial = run_ensemble(replace(spec, workers=1))
print(json.dumps({"pool_starts": pool_starts,
                  "same": fingerprint(pooled) == fingerprint(serial)}))
""")
    assert seen == {"pool_starts": [False, True], "same": True}
