"""Ensemble experiment runner, gain calibration, and per-iteration statistics.

Run r of an ensemble is seeded with ``base_seed + r``; optimizer perturbations,
oracle shot noise, and initial-point sampling all derive deterministically from
that seed, so identical specs produce bit-identical statistics.
"""

import os
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .applications import Problem, make_oracles
from .estimators import (MAX_COUNT, REAL, _count, gains_at, gains_label, interleave_complex,
                         resample, sample_perturbation)
from .linalg import one_blas_thread
from .optimizers import OptimizerConfig, RunTrace, method_label, run

__all__ = [
    "EnsembleSpec",
    "IterationStatistics",
    "EnsembleResult",
    "calibrate_first_order_gain",
    "run_single",
    "run_ensemble",
    "summarize_final",
    "summarize_at_budget",
    "available_cpus",
]

# Gain calibration scales a so that the mean sup-norm of this many probe
# first-order steps is the target step.
CALIBRATION_PROBES = 25
CALIBRATION_TARGET_STEP = 0.1


def available_cpus() -> int:
    """The CPUs this process may run on: those of its affinity mask (taskset,
    cpusets) where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True, eq=False)
class EnsembleSpec:
    """An ensemble of independent runs of one optimizer on one problem;
    ``workers=None`` runs one worker per CPU this process may run on, and
    ``calibrate=True`` scales a first-order method's gain a before the runs
    (`calibrate_first_order_gain`).  ``n_runs`` and ``workers`` are counts
    from 1 to ``MAX_COUNT``, and ``base_seed`` one from 0 up, under the count
    rule of `estimators._count`."""

    problem: Problem
    config: OptimizerConfig
    n_runs: int
    base_seed: int = 0
    calibrate: bool = False
    workers: int | None = 1

    def __post_init__(self):
        _count("n_runs", self.n_runs, 1, MAX_COUNT)
        _count("base_seed", self.base_seed, 0)
        if self.workers is not None:
            _count("workers, or None for one per CPU,", self.workers, 1, MAX_COUNT)
        if self.calibrate and self.config.method != "first_order":
            raise ValueError("calibrate applies only to first_order methods: a "
                             f"{self.config.method} step uses the gain 1/(k+A)^s, "
                             "which has no a to calibrate")

    def resolved_workers(self) -> int:
        """The size of the process pool ``run_ensemble`` uses when it is more
        than 1: ``workers``, or the CPUs for None, capped at ``n_runs``, since
        a forked pool starts every worker at its first submit."""
        return min(self.workers or available_cpus(), self.n_runs)


@dataclass(frozen=True, slots=True)
class IterationStatistics:
    """Across-run statistics of the recorded objective at one iteration."""

    k: int
    mean: float
    std: float
    median: float
    q1: float
    q3: float


@dataclass
class EnsembleResult:
    """What `run_ensemble` returns.

    ``stats`` holds one `IterationStatistics` row per iteration, over the
    runs that did not diverge; ``traces`` every run's `RunTrace`, in seed
    order; ``n_excluded`` the number of diverged runs.  The cumulative
    evaluation counts after each iteration, ``objective_evals`` and
    ``fidelity_evals``, are the same for every run of a configuration, so
    they are taken once, from the first run that did not diverge, and are
    zeros if every run diverged.  ``calibrated_a`` is the gain a that
    calibration chose, or None.
    """

    stats: list
    traces: list
    n_excluded: int
    objective_evals: np.ndarray
    fidelity_evals: np.ndarray
    calibrated_a: float | None = None


@np.errstate(over="ignore", invalid="ignore")
def calibrate_first_order_gain(objective, z0_samples, gains, field, rng):
    """Choose the first-order gain a so the first update has sup-norm
    ≈ ``CALIBRATION_TARGET_STEP``.

    Draws ``CALIBRATION_PROBES`` gradient estimates at representative initial
    points with k = 1 gain coefficients and returns
    ``CALIBRATION_TARGET_STEP / mean(‖g‖∞)``.  It computes under `run`'s
    floating-point rule, and raises a ``ValueError`` that starts with
    ``calibrate:`` unless that gain is positive and finite: the probes
    vanished, or overflowed to inf or NaN.
    """
    _count("the number of initial points to calibrate against", len(z0_samples), 1)
    _, _, b1 = gains_at(gains, 1)
    norms = []
    for i in range(CALIBRATION_PROBES):
        z0 = np.asarray(z0_samples[i % len(z0_samples)])
        delta = sample_perturbation(z0.size, field, rng)
        g, _ = resample("first_order", objective, None, z0, b1, delta)
        norms.append(float(np.max(np.abs(g))))
    mean_norm = float(np.mean(norms))
    a = CALIBRATION_TARGET_STEP / mean_norm if mean_norm > 0 else 0.0
    if not 0 < a < np.inf:
        raise ValueError(f"calibrate: probe gradients of mean sup-norm {mean_norm!r} give no gain")
    return a


def _start(problem: Problem, field: str, rng):
    """A run's start: the problem materialized from ``rng``, and then its
    initial point drawn from ``rng``, interleaved for the real field."""
    prob = problem.materialize(rng)
    z0 = prob.initial_point(rng)
    return prob, interleave_complex(z0) if field == REAL else z0


def run_single(problem: Problem, config: OptimizerConfig, seed: int) -> RunTrace:
    """Execute one seeded run: start it (`_start`), bind shot-noise rng
    streams, and run the optimizer, on one BLAS thread
    (`linalg.one_blas_thread`) so that pool workers do not oversubscribe
    the cores."""
    with one_blas_thread():
        prob, z0 = _start(problem, config.field, np.random.default_rng([seed, 1]))
        oracles = make_oracles(prob, np.random.default_rng([seed, 2]), config.field)
        return run(oracles.objective, config, z0, seed=seed, fidelity=oracles.fidelity,
                   monitor=oracles.monitor)


def _calibrated_config(spec: EnsembleSpec):
    """Resolve the ensemble's optimizer config, calibrating gains.a if requested."""
    if not spec.calibrate:
        return spec.config, None
    rng = np.random.default_rng([spec.base_seed, 3])
    samples = [_start(spec.problem, spec.config.field, rng)[1]
               for _ in range(min(CALIBRATION_PROBES, spec.n_runs))]
    probe_problem = spec.problem.materialize(rng)
    oracles = make_oracles(probe_problem, rng, spec.config.field)
    a = calibrate_first_order_gain(
        oracles.objective, samples, spec.config.gains, spec.config.field, rng)
    gains = replace(spec.config.gains, a=a)
    return replace(spec.config, gains=gains), a


def run_ensemble(spec: EnsembleSpec) -> EnsembleResult:
    """Execute the ensemble and aggregate per-iteration statistics.

    Run r is ``run_single(spec.problem, config, spec.base_seed + r)``, in
    seed order on one process or a pool.  Diverged runs are excluded from
    the statistics but counted; quantiles use linear interpolation (numpy's
    default) and STD is the sample standard deviation with divisor n−1.
    """
    seeds = range(spec.base_seed, spec.base_seed + spec.n_runs)
    workers = spec.resolved_workers()
    # Calibration runs on one thread as the runs do.  Forked pool workers
    # inherit the pin, so their runs call no setter.
    with one_blas_thread():
        config, calibrated_a = _calibrated_config(spec)
        job = partial(run_single, spec.problem, config)
        if workers > 1:
            # imported here: it costs a fresh interpreter about 18 ms
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                traces = list(pool.map(job, seeds))
        else:
            traces = list(map(job, seeds))

    included = [t for t in traces if not t.diverged]
    n_excluded = spec.n_runs - len(included)
    n_iter = config.max_iterations

    if included:
        values = np.stack([t.objective for t in included])
        means = values.mean(axis=0)
        stds = (values.std(axis=0, ddof=1) if len(included) > 1
                else np.zeros(n_iter))
        medians = np.median(values, axis=0)
        q1s, q3s = np.percentile(values, [25, 75], axis=0)
        obj_evals = included[0].objective_evals
        fid_evals = included[0].fidelity_evals
    else:
        means = stds = medians = q1s = q3s = np.full(n_iter, np.nan)
        obj_evals = np.zeros(n_iter, dtype=np.int64)
        fid_evals = np.zeros(n_iter, dtype=np.int64)

    stats = [IterationStatistics(k, *map(float, row))
             for k, row in enumerate(zip(means, stds, medians, q1s, q3s), start=1)]
    return EnsembleResult(stats=stats, traces=traces, n_excluded=n_excluded,
                          objective_evals=obj_evals, fidelity_evals=fid_evals,
                          calibrated_a=calibrated_a)


def summarize_final(result: EnsembleResult, at_iteration: int,
                    config: OptimizerConfig) -> dict:
    """One appendix-style summary row at the given iteration (1-indexed).

    Field order follows the reporting tables: method, gains, post-processing,
    resampling, blocking, median, IQR, mean, STD.
    """
    _count("at_iteration", at_iteration, 1, len(result.stats))
    s = result.stats[at_iteration - 1]
    blocking = config.blocking
    return {
        "method": method_label(config),
        "gains": gains_label(config.gains),
        "postproc": config.postproc if config.method != "first_order" else "-",
        "resampling": config.resampling,
        "blocking": "no" if blocking is None else ("auto" if blocking == "auto" else "yes"),
        "median": s.median,
        "iqr": s.q3 - s.q1,
        "mean": s.mean,
        "std": s.std,
    }


def summarize_at_budget(result: EnsembleResult, config: OptimizerConfig,
                        objective_budget: int, fidelity_budget: int | None = None) -> dict:
    """`summarize_final`'s row at the last iteration whose cumulative
    evaluation counts fit the budgets, with that iteration as ``"iteration"``.

    The objective evaluations must be at most ``objective_budget`` and the
    fidelity evaluations at most ``fidelity_budget``; with None, fidelity
    evaluations are not limited.  Methods of different costs per iteration
    are compared at equal cost this way.

    Raises
    ------
    ValueError
        If iteration 1 already exceeds a budget, or if every run diverged,
        which leaves the ensemble no counts.
    """
    if result.n_excluded == len(result.traces):
        raise ValueError("every run diverged, so the ensemble has no evaluation counts")
    fits = result.objective_evals <= objective_budget
    if fidelity_budget is not None:
        fits &= result.fidelity_evals <= fidelity_budget
    if not fits[0]:
        budget = f"{objective_budget} objective" + (
            "" if fidelity_budget is None else f" and {fidelity_budget} fidelity")
        raise ValueError(
            f"iteration 1 spends {result.objective_evals[0]} objective and "
            f"{result.fidelity_evals[0]} fidelity evaluations, beyond the budget of "
            f"{budget} evaluations")
    at_iteration = int(np.flatnonzero(fits)[-1]) + 1
    return {**summarize_final(result, at_iteration, config), "iteration": at_iteration}
