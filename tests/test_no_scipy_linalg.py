"""No run imports SciPy: the library needs numpy alone, and factors through
numpy's LAPACK.

The test modules import SciPy themselves, so the check runs its script in a
fresh interpreter.  Before it imports spsakit, the script puts a finder at
the head of ``sys.meta_path`` that records and refuses every ``scipy`` and
``scipy.*`` import, also in the pool's forked workers, which inherit it.  It
then runs every method, a pooled ensemble, and the CLI for each application
serially and on two workers, and prints a record as its last line of output.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import spsakit

SRC = str(Path(spsakit.__file__).resolve().parent.parent)

SCRIPT = """
import sys

step = "import"
refused = []

class RefuseScipy:
    # Records, with the step that asked, and refuses every SciPy import.
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            refused.append([step, name])
            raise ImportError(f"{name} is refused: spsakit needs numpy alone")
        return None

sys.meta_path.insert(0, RefuseScipy())

import concurrent.futures
import json
from dataclasses import replace
from functools import partial
from pathlib import Path

from spsakit.applications import SgqtProblem
from spsakit.bench import EnsembleSpec, run_ensemble, run_single
from spsakit.cli import main
from spsakit.optimizers import OptimizerConfig

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

class ReportingPool(concurrent.futures.ProcessPoolExecutor):
    # What each pooled run refused and left in its worker's modules.
    def map(self, fn, *iterables, **kwargs):
        for result, report in super().map(partial(reporting, fn), *iterables, **kwargs):
            in_workers.append(report)
            yield result

def reporting(job, seed):
    return job(seed), refused + scipy_modules()

concurrent.futures.ProcessPoolExecutor = ReportingPool
in_workers = []
problem = SgqtProblem(n_qubits=2, shots=100)
seen = {"diverged": [], "exit": {}, "same": {}}
configs = {
    "first_order": OptimizerConfig(max_iterations=3),
    "scalar": OptimizerConfig(method="second_order", scalar=True, max_iterations=3),
    "quantum_natural": OptimizerConfig(method="quantum_natural", max_iterations=3),
}
for field in ("real", "complex"):
    for postproc in ("gidi", "spall"):
        configs[f"second_order {postproc} {field}"] = OptimizerConfig(
            method="second_order", postproc=postproc, field=field, max_iterations=3)
for step, config in configs.items():
    if run_single(problem, config, 0).diverged:
        seen["diverged"].append(step)

def fingerprint(result):
    return [[t.objective.tobytes().hex(), t.final_params.tobytes().hex()]
            for t in result.traces]

step = "ensemble"
spec = EnsembleSpec(problem=problem, config=replace(configs["second_order spall complex"],
                                                    max_iterations=5),
                    n_runs=4, base_seed=5, workers=2)
pooled = run_ensemble(spec)
seen["same"][step] = fingerprint(pooled) == fingerprint(run_ensemble(replace(spec, workers=1)))

cli_flags = {
    "vqe": ["--qubits", "3", "--method", "quantum_natural"],
    "grape": ["--qubits", "2", "--slices", "4", "--method", "second_order",
              "--postproc", "spall"],
    "sgqt": ["--qubits", "2", "--calibrate", "true", "--blocking", "auto"],
}
for application, flags in cli_flags.items():
    for workers in (1, 2):
        step = f"cli {application} {workers}"
        out = Path(sys.argv[1], f"{application}-{workers}")
        seen["exit"][step] = main(["--application", application, *flags, "--runs", "3",
                                   "--iterations", "3", "--workers", str(workers),
                                   "--out", str(out)])
    serial, pooled = (Path(sys.argv[1], f"{application}-{w}.csv").read_bytes() for w in (1, 2))
    seen["same"][f"cli {application}"] = serial == pooled

seen["refused"] = refused
seen["modules"] = scipy_modules()
seen["workers"] = in_workers
print(json.dumps(seen))
"""


def test_no_run_imports_scipy_linalg(tmp_path):
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    applications = ("vqe", "grape", "sgqt")
    assert seen == {
        "diverged": [],
        "exit": {f"cli {app} {workers}": 0 for app in applications for workers in (1, 2)},
        "same": {"ensemble": True, **{f"cli {app}": True for app in applications}},
        "refused": [],
        "modules": [],
        # the pooled ensemble's 4 runs, then 3 runs of each pooled CLI call
        "workers": [[]] * (4 + 3 * len(applications)),
    }
