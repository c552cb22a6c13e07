#!/usr/bin/env python3
"""spsakit benchmark: seeded optimizer ensembles timed end to end, and a traced
pass that splits the time over spsakit's layers.

Run from the repository root:

    python3 perfbench/run.py --workload vqe-qn --seed 1 --seconds 20 --trace 0

Every ensemble goes through ``spsakit.bench.run_ensemble``, the call the
``spsakit`` command line makes.  ``--trace 0`` reports the end-to-end metrics
(tracing off); ``--trace 1`` reports the per-layer metrics of a traced pass
in which every chunk also runs untraced, serially and on the workload's pool,
right before its traced ``workers=1`` run.  Both check the outputs first: a
failed check prints ``"correct": false`` with no metrics and exits 1.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record, environment
included, is written to ``.perfbench_out/``.

The benchmark only reads the BLAS thread counts; it never sets them, so it
measures the environment a user gets.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if __name__ == "__main__" and not (ROOT / "src" / "spsakit" / "__init__.py").is_file():
    print(f"error: no spsakit sources under {ROOT / 'src'}", file=sys.stderr)
    sys.exit(2)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from spsakit import bench  # noqa: E402
from spsakit.applications import exact_minimum  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120


class CheckFailed(Exception):
    """An output of the program under test is wrong."""


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Environment record


def _openblas(package, libs_dir, pattern, suffix):
    """(config string, threads) of a wheel's bundled OpenBLAS, read through ctypes."""
    paths = sorted(glob.glob(str(Path(package.__file__).parent.parent / libs_dir / pattern)))
    if not paths:
        return None, None
    lib = ctypes.CDLL(paths[0])
    get_config = getattr(lib, "scipy_openblas_get_config" + suffix)
    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
    get_threads = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return get_config().decode(), int(get_threads())


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment():
    numpy_blas, numpy_threads = _openblas(np, "numpy.libs", "libscipy_openblas64_*.so", "64_")
    scipy_blas, scipy_threads = _openblas(scipy, "scipy.libs", "libscipy_openblas-*.so", "")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": numpy_blas,
        "openblas_scipy": scipy_blas,
        "blas_threads_numpy": numpy_threads,
        "blas_threads_scipy": scipy_threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": workloads.nproc(),
        "start_method": multiprocessing.get_context().get_start_method(),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# Ensemble passes


def fingerprint(result) -> bytes:
    """Digest of everything an ensemble reports, for bit-identity checks."""
    digest = hashlib.sha256()
    digest.update(np.array([(s.k, s.mean, s.std, s.median, s.q1, s.q3)
                            for s in result.stats]).tobytes())
    digest.update(result.objective_evals.tobytes())
    digest.update(result.fidelity_evals.tobytes())
    digest.update(str(result.n_excluded).encode())
    for trace in result.traces:
        digest.update(trace.objective.tobytes())
        digest.update(np.asarray(trace.final_params).tobytes())
    return digest.digest()


_REF_GATE = np.array([[0.6, 0.8], [0.8, -0.6]], dtype=np.complex128)


def reference_kernel_seconds(_=None):
    """Wall time of a fixed piece of single-threaded work that uses no spsakit
    code and no BLAS: 1000 einsum gate applications on a 10-qubit state and a
    10^5-step Python loop.  On a shared machine its duration tracks how fast
    the machine runs at the moment."""
    start = perf_counter()
    psi = np.full(1024, 1 / 32, dtype=np.complex128)
    for k in range(1000):
        psi = np.einsum("ab,ibj->iaj", _REF_GATE, psi.reshape(-1, 2, 2 ** (k % 10)))
        psi = psi.reshape(1024)
    total = 0
    for i in range(100_000):
        total += i * i
    return perf_counter() - start


def reference_seconds(workers):
    """Reference-kernel duration on as many cores as the workload uses.

    With one worker the kernel runs in this process.  Otherwise it runs once
    in each of ``workers`` processes at the same time, and the result is the
    harmonic mean of their times: a pool's throughput is the sum of its
    workers' speeds, so a neighbour slowing one core shows here as it does in
    the pool.  The pool is forked like the ensemble pool it stands beside; a
    spawned one would start an interpreter per measurement.
    """
    if workers == 1:
        return reference_kernel_seconds()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        times = list(pool.map(reference_kernel_seconds, range(workers)))
    return workers / sum(1 / t for t in times)


@dataclass
class Pass:
    """One sweep over a workload's chunks, plus any timed repeats."""

    results: list = field(default_factory=list)  # first result of each chunk
    digests: list = field(default_factory=list)
    seconds: list = field(default_factory=list)  # every run_ensemble call
    ref_seconds: list = field(default_factory=list)  # before, between and after them
    runs: int = 0
    diverged: int = 0

    def rate(self, iters_per_chunk):
        """Median over chunks of iterations per wall second."""
        return statistics.median(iters_per_chunk / s for s in self.seconds)

    def ref_rate(self, iters_per_chunk):
        """Median over chunks of iterations per reference-kernel duration,
        taking the mean of the reference timings just before and after."""
        return statistics.median(
            iters_per_chunk * (before + after) / 2 / s
            for s, before, after in zip(self.seconds, self.ref_seconds, self.ref_seconds[1:]))


def ensemble_pass(wl, problem, config, seed, workers, min_seconds):
    """Run every chunk once, then repeat chunks in order until ``min_seconds``
    have passed.  A repeated chunk must reproduce its statistics bit for bit.
    The reference kernel is timed before, between and after the chunks."""
    out = Pass()
    begin = perf_counter()
    out.ref_seconds.append(reference_seconds(workers))
    j = 0
    while j < wl.chunks or perf_counter() - begin < min_seconds:
        chunk = j % wl.chunks
        spec = wl.spec(problem, config, seed, chunk, workers)
        start = perf_counter()
        result = bench.run_ensemble(spec)
        out.seconds.append(perf_counter() - start)
        out.ref_seconds.append(reference_seconds(workers))
        out.runs += spec.n_runs
        out.diverged += result.n_excluded
        if j < wl.chunks:
            out.results.append(result)
            out.digests.append(fingerprint(result))
        else:
            check(fingerprint(result) == out.digests[chunk],
                  f"chunk {chunk} gave different statistics when repeated")
        j += 1
    return out


@dataclass
class TracedPass:
    """Chunks run back to back serially untraced, pooled (pooled workloads
    only) and serially traced, with the wall time of each call."""

    recorder: spans.SpanRecorder = field(default_factory=spans.SpanRecorder)
    results: list = field(default_factory=list)  # untraced serial result of each chunk
    pooled_seconds: list = field(default_factory=list)
    serial_seconds: list = field(default_factory=list)
    windows: list = field(default_factory=list)  # (start, end) of each traced call
    runs: int = 0
    diverged: int = 0

    def add(self, result):
        self.runs += len(result.traces)
        self.diverged += result.n_excluded

    @property
    def traced_seconds(self):
        return [end - start for start, end in self.windows]


def timed(spec):
    start = perf_counter()
    result = bench.run_ensemble(spec)
    return result, perf_counter() - start


def traced_pass(wl, problem, config, seed, min_seconds):
    """Run every chunk once, then repeat chunks in order until ``min_seconds``
    have passed.  Each chunk runs serially untraced, then pooled (if the
    workload is pooled), then serially traced.  All runs of a chunk, and
    every repeat of it, must give bit-identical statistics.  Running the
    three back to back lets their ratios cancel the machine's speed."""
    out = TracedPass()
    digests = []
    begin = perf_counter()
    j = 0
    while j < wl.chunks or perf_counter() - begin < min_seconds:
        chunk = j % wl.chunks
        serial_spec = wl.spec(problem, config, seed, chunk, 1)
        serial, seconds = timed(serial_spec)
        out.serial_seconds.append(seconds)
        out.add(serial)
        digest = fingerprint(serial)
        if j < wl.chunks:
            out.results.append(serial)
            digests.append(digest)
        check(digest == digests[chunk], f"chunk {chunk} gave different statistics when repeated")
        if wl.workers > 1:
            pooled, seconds = timed(wl.spec(problem, config, seed, chunk, wl.workers))
            out.pooled_seconds.append(seconds)
            out.add(pooled)
            check(fingerprint(pooled) == digest,
                  "pooled and serial statistics are not bit-identical")
        with spans.instrumented(out.recorder):
            start = perf_counter()
            traced = bench.run_ensemble(serial_spec)
            out.windows.append((start, perf_counter()))
        out.add(traced)
        check(fingerprint(traced) == digest, "traced and untraced statistics are not bit-identical")
        j += 1
    return out


def check_eval_counts(wl, results):
    for result in results:
        for trace in result.traces:
            if trace.diverged:
                continue
            objective = np.diff(trace.objective_evals, prepend=0)
            fidelity = np.diff(trace.fidelity_evals, prepend=0)
            check(np.all(objective == wl.objective_per_iter)
                  and np.all(fidelity == wl.fidelity_per_iter),
                  f"evaluation counts per iteration differ from {wl.objective_per_iter} "
                  f"objective + {wl.fidelity_per_iter} fidelity")


def errors(results, minimum):
    """Median over runs of (monitor value − exact minimum) at the first and last iteration."""
    traces = [t for r in results for t in r.traces
              if not t.diverged and np.all(np.isfinite(t.objective))]
    check(traces, "every run diverged")
    first = float(np.median([t.objective[0] - minimum for t in traces]))
    final = float(np.median([t.objective[-1] - minimum for t in traces]))
    check(np.isfinite(final) and final < first,
          f"final error median {final!r} is not below the first-iteration median {first!r}")
    return first, final


def check_identical(a: Pass, b: Pass, what):
    check(a.digests == b.digests, f"{what} statistics are not bit-identical")


# ---------------------------------------------------------------------------
# Metrics


def setup_seconds(workload_name, seed):
    """Median over fresh interpreters of import + one 1-iteration run_single."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload_name, str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True, cwd=ROOT,
        )
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples), samples


def peak_rss_mb():
    """Largest resident set of this process and of every child waited for so far."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def layer_metrics(recorder, windows, total_iters):
    """Per-function calls and self time per iteration, and each layer's share,
    over traced stretches ``windows`` covering ``total_iters`` iterations."""
    calls, self_s = recorder.totals()
    try:
        untraced_remainder = recorder.untraced_seconds(windows)
    except ValueError as exc:
        raise CheckFailed(str(exc)) from None
    traced_wall = sum(end - start for start, end in windows)
    metrics = {}
    for i, label in enumerate(recorder.labels):
        metrics[f"{label}.calls_per_iter"] = (calls[i] / total_iters, "1/iter")
        metrics[f"{label}.self_ms_per_iter"] = (1e3 * self_s[i] / total_iters, "ms/iter")

    layer_ms = {layer: 0.0 for layer in spans.LAYERS}
    for label in recorder.labels:
        layer_ms[label.split(".")[0]] += metrics[f"{label}.self_ms_per_iter"][0]
    accounted = sum(layer_ms.values()) * total_iters / 1e3 + untraced_remainder
    check(abs(accounted - traced_wall) <= 1e-9 * traced_wall,
          f"layer self times plus remainder give {accounted!r} s, "
          f"traced wall time is {traced_wall!r} s")
    for layer, ms in layer_ms.items():
        metrics[f"{layer}.share"] = (ms * total_iters / 1e3 / traced_wall, "fraction")
    return metrics, untraced_remainder


def per_layer_names():
    names = []
    for label in spans.LABELS:
        names += [f"{label}.calls_per_iter", f"{label}.self_ms_per_iter"]
    names += [f"{layer}.share" for layer in spans.LAYERS]
    return names + ["bench.pool_efficiency", "trace.overhead_frac"]


# ---------------------------------------------------------------------------


def measure(wl, seed, seconds, trace):
    """Run the workload; return (metrics, record, attempted, failed)."""
    problem, config = wl.problem, wl.config
    iters_per_chunk = wl.runs_per_chunk * wl.iterations
    bench.run_single(problem, replace(config, max_iterations=1), seed)  # fill caches
    minimum = exact_minimum(problem)

    if not trace:
        main = ensemble_pass(wl, problem, config, seed, wl.workers, seconds)
        check_eval_counts(wl, main.results)
        first, final = errors(main.results, minimum)
        rss = peak_rss_mb()
        passes = [main]
        if wl.workers > 1:
            result = bench.run_ensemble(wl.spec(problem, config, seed, 0, 1))
            passes.append(Pass(runs=wl.runs_per_chunk, diverged=result.n_excluded))
            check(fingerprint(result) == main.digests[0],
                  "pooled and serial statistics are not bit-identical")
        setup, samples = setup_seconds(wl.name, seed)
        metrics = {
            "iters_per_ref": (main.ref_rate(iters_per_chunk), "1/ref"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (rss, "MB"),
            "final_error_median": (final, "objective"),
        }
        record = dict(iters_per_s=main.rate(iters_per_chunk), first_error_median=first,
                      chunk_seconds=main.seconds, reference_seconds=main.ref_seconds,
                      setup_samples_s=samples)
    else:
        traced = traced_pass(wl, problem, config, seed, seconds)
        check_eval_counts(wl, traced.results)
        errors(traced.results, minimum)
        total_iters = len(traced.windows) * iters_per_chunk
        metrics, remainder = layer_metrics(traced.recorder, traced.windows, total_iters)
        metrics["bench.pool_efficiency"] = (statistics.median(
            serial / (wl.workers * pooled)
            for serial, pooled in zip(traced.serial_seconds, traced.pooled_seconds)
        ) if wl.workers > 1 else 1.0, "fraction")
        metrics["trace.overhead_frac"] = (statistics.median(
            t / u for t, u in zip(traced.traced_seconds, traced.serial_seconds)) - 1.0,
            "fraction")
        passes = [traced]
        record = dict(traced_wall_s=sum(traced.traced_seconds),
                      untraced_remainder_s=remainder,
                      serial_chunk_seconds=traced.serial_seconds,
                      pooled_chunk_seconds=traced.pooled_seconds,
                      traced_chunk_seconds=traced.traced_seconds)

    attempted = sum(p.runs for p in passes)
    failed = sum(p.diverged for p in passes)
    record["diverged_frac"] = failed / attempted
    return metrics, record, attempted, failed


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must be in (0, 120]")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    env = environment()
    try:
        metrics, record, attempted, failed = measure(wl, args.seed, args.seconds, args.trace)
        correct, failure = True, None
    except CheckFailed as exc:
        # A failed check reports no numbers; it counts as one failed attempt.
        correct, failure = False, str(exc)
        metrics, record, attempted, failed = {}, {}, 1, 1
    env["loadavg_end"] = list(os.getloadavg())

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"workers {wl.workers}  {wl.chunks} x {wl.runs_per_chunk} runs x {wl.iterations} iterations")
    if failure:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:52s} {value:.6g} {unit}")
    if correct:
        if not args.trace:
            print(f"  {'iters_per_s':52s} {record['iters_per_s']:.6g} 1/s (raw wall rate)")
        print(f"  {'diverged_frac':52s} {failed / attempted:.6g} fraction "
              f"({failed} of {attempted} runs)")

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    full = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "correct": correct, "failure": failure,
            "attempted": attempted, "failed": failed, "environment": env,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "record": record}
    out_path.write_text(json.dumps(full, indent=2) + "\n")
    print(f"wrote {out_path.relative_to(ROOT)}")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
