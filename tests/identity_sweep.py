"""Seeded-trace identity sweep: one digest per seeded configuration, and a
comparison of two sweeps against an allow-list.

    python tests/identity_sweep.py write DIGESTS.json
    python tests/identity_sweep.py compare BASE.json HEAD.json ALLOW.json

with a tree's ``src`` on ``PYTHONPATH``.

``write`` runs the grid below with whichever ``spsakit`` is on the import
path, so the same script sweeps two trees.  It takes about 5 s on two
cores.  It uses only ``bench.run_single``, ``bench.run_ensemble``,
``EnsembleSpec``, ``OptimizerConfig``, ``GainSchedule`` and the three
problem classes, whose signatures it needs unchanged.

The grid: every method × scalar/matrix × spall/gidi × field × blocking
off/auto/0.05 × N_R 1 and 2, on VQE at 3 qubits, GRAPE at 2 qubits and 3
slices and SGQT at 2 qubits; GRAPE at the benchmark's size, 5 qubits and
25 slices, whose 16 × 16 propagator blocks take several squarings, with
first-order and quantum-natural runs in both fields; the two sides of
the perturbation block's entry bound on SGQT at 2 qubits, a first-order
run past the 1024 iterations that one block holds at p = 4 and a gidi
matrix run at N_R = 600, whose one iteration holds more entries than the
bound; GRAPE runs that diverge as ``"recorded"``,
``"candidate"`` and ``"preconditioner"``; and one pooled calibrated ensemble
per application.  A digest hashes each trace's ``objective``, ``accepted``,
``final_params``, ``objective_evals``, ``fidelity_evals``, ``recorded``,
``diverged_at``, ``diverged_reason`` and ``blocking_delta``, and an
ensemble's statistics and calibrated gain.

``compare`` exits 1 when a configuration's digest differs and the allow-list
does not name it, when a configuration the allow-list names did not change,
or when the two sweeps do not hold the same configurations.  The allow-list
is a JSON object from configuration name to the reason it changes.  Compare
sweeps made on one machine: matrix paths round differently under different
OpenBLAS kernels.
"""

import hashlib
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from spsakit.applications import GrapeProblem, SgqtProblem, VqeProblem
from spsakit.bench import EnsembleSpec, run_ensemble, run_single
from spsakit.estimators import GainSchedule
from spsakit.optimizers import OptimizerConfig

ITERATIONS = 70  # past the 54 first-order iterations of one block at GRAPE's p = 75
SEED = 7
WORKERS = 2

PROBLEMS = {
    "vqe3": VqeProblem(n_qubits=3),
    "grape2x3": GrapeProblem(n_qubits=2, slices=3),
    "sgqt2": SgqtProblem(n_qubits=2),
}
GRAPE_BENCHMARK_SIZE = GrapeProblem(n_qubits=5, slices=25)


def _methods():
    """Each method's variants: (label, OptimizerConfig keywords)."""
    yield "first_order", {"method": "first_order"}
    for method in ("second_order", "quantum_natural"):
        for scalar in (False, True):
            for postproc in ("spall", "gidi"):
                label = f"{method}-{'scalar' if scalar else 'matrix'}-{postproc}"
                yield label, {"method": method, "scalar": scalar, "postproc": postproc}


def single_runs():
    """(name, problem, config) of every seeded single run in the grid."""
    for app, problem in PROBLEMS.items():
        for label, method in _methods():
            for field in ("real", "complex"):
                for blocking in (None, "auto", 0.05):
                    for resampling in (1, 2):
                        config = OptimizerConfig(field=field, blocking=blocking,
                                                 resampling=resampling,
                                                 max_iterations=ITERATIONS, **method)
                        yield (f"{app}/{label}/{field}/blocking={blocking}/nr={resampling}",
                               problem, config)
    for field in ("real", "complex"):
        for method in ("first_order", "quantum_natural"):
            config = OptimizerConfig(method=method, field=field, max_iterations=ITERATIONS)
            yield f"grape5x25/{method}/{field}", GRAPE_BENCHMARK_SIZE, config
    sgqt = PROBLEMS["sgqt2"]
    yield "sgqt2/first_order/blocks-of-1024", sgqt, OptimizerConfig(max_iterations=1030)
    yield ("sgqt2/second_order-matrix-gidi/nr=600", sgqt,
           OptimizerConfig(method="second_order", resampling=600, max_iterations=5))
    grape = PROBLEMS["grape2x3"]
    diverging = {
        # a step so long that the iterate's propagators overflow to NaN
        "recorded": OptimizerConfig(gains=GainSchedule(a=1e30, b=0.1), max_iterations=5),
        # a step that overflows the iterate itself
        "candidate": OptimizerConfig(gains=GainSchedule(a=1e308, b=1e-3), max_iterations=5),
        # a perturbation so small that the Hessian estimate is finite, but
        # its hermitian part overflows
        "preconditioner": OptimizerConfig(method="second_order",
                                          gains=GainSchedule(a=1.0, b=3e-155),
                                          max_iterations=5),
    }
    for reason, config in diverging.items():
        yield f"grape2x3/diverges-{reason}", grape, config


def ensembles():
    """(name, spec) of one pooled calibrated ensemble per application."""
    for app, problem in PROBLEMS.items():
        config = OptimizerConfig(max_iterations=ITERATIONS)
        yield (f"{app}/ensemble-calibrated-pooled",
               EnsembleSpec(problem=problem, config=config, n_runs=4, base_seed=SEED,
                            calibrate=True, workers=WORKERS))


def _update(digest, trace):
    for array in (trace.objective, trace.accepted, trace.final_params,
                  trace.objective_evals, trace.fidelity_evals):
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    delta = trace.blocking_delta
    digest.update(repr((trace.recorded, trace.diverged_at, trace.diverged_reason,
                        None if delta is None else float(delta).hex())).encode())


def _run_digest(case):
    name, problem, config = case
    digest = hashlib.sha256()
    trace = run_single(problem, config, SEED)
    _update(digest, trace)
    return name, digest.hexdigest(), trace.diverged_reason


def _ensemble_digest(spec):
    result = run_ensemble(spec)
    digest = hashlib.sha256()
    for trace in result.traces:
        _update(digest, trace)
    stats = np.array([[s.mean, s.std, s.median, s.q1, s.q3] for s in result.stats])
    digest.update(stats.tobytes())
    digest.update(float(result.calibrated_a).hex().encode())
    return digest.hexdigest()


def write(path):
    start = time.perf_counter()
    digests, reasons = {}, {}
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        for name, digest, reason in pool.map(_run_digest, single_runs(), chunksize=4):
            digests[name] = digest
            reasons[name] = reason
    for name, spec in ensembles():
        digests[name] = _ensemble_digest(spec)
    for name, reason in reasons.items():
        expected = name.split("diverges-")[1] if "diverges-" in name else None
        if reason != expected:
            sys.exit(f"{name}: diverged as {reason!r}, not {expected!r}; the grid no longer "
                     "covers what it names")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(digests)} configurations in {time.perf_counter() - start:.1f} s -> {path}")


def compare(base_path, head_path, allow_path):
    with open(base_path, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(head_path, encoding="utf-8") as fh:
        head = json.load(fh)
    with open(allow_path, encoding="utf-8") as fh:
        allowed = json.load(fh)
    problems = [f"only in {base_path}: {name}" for name in sorted(set(base) - set(head))]
    problems += [f"only in {head_path}: {name}" for name in sorted(set(head) - set(base))]
    changed = {name for name in set(base) & set(head) if base[name] != head[name]}
    problems += [f"changed, not in the allow-list: {name}"
                 for name in sorted(changed - set(allowed))]
    problems += [f"in the allow-list, unchanged: {name}"
                 for name in sorted(set(allowed) - changed)]
    for line in problems:
        print(line)
    print(f"{len(base)} configurations, {len(changed)} changed, {len(allowed)} allowed")
    return 1 if problems else 0


if __name__ == "__main__":
    usage = __doc__.split("\n\n")[1]
    if len(sys.argv) == 3 and sys.argv[1] == "write":
        write(sys.argv[2])
    elif len(sys.argv) == 5 and sys.argv[1] == "compare":
        sys.exit(compare(*sys.argv[2:]))
    else:
        sys.exit(f"usage:\n{usage}")
