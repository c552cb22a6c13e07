"""No run imports any part of ``scipy.linalg``: the library factors through
numpy's LAPACK alone.

The test modules import ``scipy.linalg`` themselves, so the check runs its
script in a fresh interpreter and reads the script's last line of output.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import spsakit

SRC = str(Path(spsakit.__file__).resolve().parent.parent)

SCRIPT = """
import json, sys
from dataclasses import replace
from functools import partial

import spsakit.bench as bench
import spsakit.cli
from spsakit.applications import SgqtProblem
from spsakit.bench import EnsembleSpec, run_ensemble, run_single
from spsakit.optimizers import OptimizerConfig

def scipy_linalg():
    return sorted({"scipy.linalg", "scipy.linalg._flapack"} & set(sys.modules))

class ReportingPool(bench.ProcessPoolExecutor):
    # What each pooled run leaves in its worker's modules.
    def map(self, fn, *iterables, **kwargs):
        for trace, modules in super().map(partial(reporting, fn), *iterables, **kwargs):
            in_workers.append(modules)
            yield trace

def reporting(job, seed):
    return job(seed), scipy_linalg()

bench.ProcessPoolExecutor = ReportingPool
in_workers = []
problem = SgqtProblem(n_qubits=2, shots=100)
seen = {"import": scipy_linalg()}
configs = {
    "first_order": OptimizerConfig(max_iterations=3),
    "scalar": OptimizerConfig(method="second_order", scalar=True, max_iterations=3),
    "quantum_natural": OptimizerConfig(method="quantum_natural", max_iterations=3),
}
for field in ("real", "complex"):
    for postproc in ("gidi", "spall"):
        configs[f"second_order {postproc} {field}"] = OptimizerConfig(
            method="second_order", postproc=postproc, field=field, max_iterations=3)
for name, config in configs.items():
    trace = run_single(problem, config, 0)
    assert not trace.diverged, name
    seen[name] = scipy_linalg()

def fingerprint(result):
    return [[t.objective.tobytes().hex(), t.final_params.tobytes().hex()]
            for t in result.traces]

spec = EnsembleSpec(problem=problem, config=replace(configs["second_order spall complex"],
                                                    max_iterations=5),
                    n_runs=4, base_seed=5, workers=2)
pooled = run_ensemble(spec)
seen["pooled"] = scipy_linalg()
seen["workers"] = in_workers
seen["same"] = fingerprint(pooled) == fingerprint(run_ensemble(replace(spec, workers=1)))
print(json.dumps(seen))
"""


def test_no_run_imports_scipy_linalg():
    done = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          timeout=120, check=True, env={**os.environ, "PYTHONPATH": SRC})
    seen = json.loads(done.stdout.splitlines()[-1])
    runs = ["import", "first_order", "scalar", "quantum_natural",
            *(f"second_order {postproc} {field}"
              for field in ("real", "complex") for postproc in ("gidi", "spall")), "pooled"]
    assert seen == {**{run: [] for run in runs}, "workers": [[]] * 4, "same": True}
