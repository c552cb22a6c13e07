"""The benchmark's workloads: seeded ensembles at the paper's problem sizes.

Each workload is built from ``spsakit.cli`` flags, so problem sizes and shot
counts are exactly the command-line defaults for the application.  A
workload's runs are split into ``chunks`` ensembles of ``runs_per_chunk``
runs; each chunk is one ``spsakit.bench.run_ensemble`` call and one timing
sample.  Chunk j of seed s has base seed ``s * SEED_STRIDE + j *
runs_per_chunk``, so every run of a workload has its own seed and the same
``--seed`` always yields the same runs.
"""

import os
import sys
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from spsakit.bench import EnsembleSpec  # noqa: E402
from spsakit.cli import parse_config  # noqa: E402

SEED_STRIDE = 1_000_000


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    flags: tuple
    runs_per_chunk: int
    chunks: int
    pooled: bool
    # Oracle calls per iteration fixed by the estimator contract.
    objective_per_iter: int
    fidelity_per_iter: int

    @property
    def experiment(self):
        return parse_config(list(self.flags) + ["--runs", str(self.runs_per_chunk)])

    @property
    def problem(self):
        return self.experiment.problem()

    @property
    def config(self):
        return self.experiment.optimizer_config()

    @property
    def iterations(self) -> int:
        return self.config.max_iterations

    @property
    def workers(self) -> int:
        return nproc() if self.pooled else 1

    def spec(self, problem, config, seed: int, chunk: int, workers: int) -> EnsembleSpec:
        return EnsembleSpec(
            problem=problem,
            config=config,
            n_runs=self.runs_per_chunk,
            base_seed=seed * SEED_STRIDE + chunk * self.runs_per_chunk,
            workers=workers,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="vqe-qn",
            flags=("--application", "vqe", "--method", "quantum_natural",
                   "--field", "complex", "--postproc", "gidi", "--iterations", "150"),
            runs_per_chunk=1,
            chunks=8,
            pooled=False,
            objective_per_iter=2,
            fidelity_per_iter=4,
        ),
        Workload(
            name="grape-cspsa",
            flags=("--application", "grape", "--method", "first_order",
                   "--field", "complex", "--iterations", "6"),
            runs_per_chunk=12,
            chunks=8,
            pooled=False,
            objective_per_iter=2,
            fidelity_per_iter=0,
        ),
        # Each chunk is one process pool serving 25600 iterations; pool
        # start-up and teardown (about 13 ms on 2 cores) are under 2% of it.
        # Pools of 10^5 iterations, the size of a paper ensemble, left too
        # few timing samples in a run for a steady median.
        Workload(
            name="sgqt-cspsa-pool",
            flags=("--application", "sgqt", "--method", "first_order",
                   "--field", "complex", "--iterations", "200"),
            runs_per_chunk=128,
            chunks=16,
            pooled=True,
            objective_per_iter=2,
            fidelity_per_iter=0,
        ),
    )
}
