"""Ensemble experiment runner, gain calibration, and per-iteration statistics.

Run r of an ensemble is seeded with ``base_seed + r``; optimizer perturbations,
oracle shot noise, and initial-point sampling all derive deterministically from
that seed, so identical specs produce bit-identical statistics.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .applications import Problem, make_oracles
from .estimators import REAL, gains_at, gradient_estimate, interleave_complex, sample_perturbation
from .optimizers import OptimizerConfig, RunTrace, method_label, run

__all__ = [
    "EnsembleSpec",
    "IterationStatistics",
    "EnsembleResult",
    "calibrate_first_order_gain",
    "run_single",
    "run_ensemble",
    "summarize_final",
]


@dataclass(frozen=True, eq=False)
class EnsembleSpec:
    """An ensemble of independent runs of one optimizer on one problem."""

    problem: Problem
    config: OptimizerConfig
    n_runs: int
    base_seed: int = 0
    calibrate: bool = False
    calibration_target_step: float = 0.1
    calibration_probes: int = 25
    workers: int | None = 1


@dataclass(frozen=True)
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
    stats: list
    traces: list
    n_excluded: int
    objective_evals: np.ndarray
    fidelity_evals: np.ndarray
    calibrated_a: float | None = None


def calibrate_first_order_gain(objective, z0_samples, gains, field, rng,
                               target_step: float = 0.1, n_probe: int = 25):
    """Choose the first-order gain a so the first update has sup-norm ≈ target_step.

    Draws ``n_probe`` gradient estimates at representative initial points with
    k = 1 gain coefficients and returns ``target_step / mean(‖g‖∞)``.
    """
    if n_probe < 1:
        raise ValueError("n_probe must be >= 1")
    if len(z0_samples) == 0:
        raise ValueError("need at least one initial point to calibrate against")
    _, _, b1, _ = gains_at(gains, 1)
    norms = []
    for i in range(n_probe):
        z0 = np.asarray(z0_samples[i % len(z0_samples)])
        delta = sample_perturbation(z0.size, field, rng)
        g, _ = gradient_estimate(objective, z0, b1, delta)
        norms.append(float(np.max(np.abs(g))))
    mean_norm = float(np.mean(norms))
    if mean_norm == 0.0:
        raise ValueError("calibration failed: all probe gradients vanished")
    return target_step / mean_norm


def run_single(problem: Problem, config: OptimizerConfig, seed: int) -> RunTrace:
    """Execute one seeded run: materialize the problem, draw the initial point,
    bind shot-noise rng streams, and run the optimizer."""
    init_rng = np.random.default_rng([seed, 1])
    oracle_rng = np.random.default_rng([seed, 2])
    prob = problem.materialize(init_rng)
    z0 = prob.initial_point(init_rng)
    if config.field == REAL:
        z0 = interleave_complex(z0)
    oracles = make_oracles(prob, oracle_rng, config.field)
    cfg = replace(config, seed=seed)
    return run(oracles.objective, cfg, z0, fidelity=oracles.fidelity,
               monitor=oracles.monitor)


def _run_indexed(args):
    problem, config, seed, index = args
    return index, run_single(problem, config, seed)


def _calibrated_config(spec: EnsembleSpec):
    """Resolve the ensemble's optimizer config, calibrating gains.a if requested."""
    if not spec.calibrate:
        return spec.config, None
    rng = np.random.default_rng([spec.base_seed, 3])
    samples = []
    for _ in range(min(spec.calibration_probes, max(spec.n_runs, 1))):
        samples.append(spec.problem.materialize(rng).initial_point(rng))
    if spec.config.field == REAL:
        samples = [interleave_complex(z) for z in samples]
    probe_problem = spec.problem.materialize(rng)
    oracles = make_oracles(probe_problem, rng, spec.config.field)
    a = calibrate_first_order_gain(
        oracles.objective, samples, spec.config.gains, spec.config.field, rng,
        target_step=spec.calibration_target_step, n_probe=spec.calibration_probes,
    )
    gains = replace(spec.config.gains, a=a)
    return replace(spec.config, gains=gains), a


def run_ensemble(spec: EnsembleSpec) -> EnsembleResult:
    """Execute the ensemble and aggregate per-iteration statistics.

    Diverged runs are excluded from the statistics but counted; quantiles use
    linear interpolation (numpy's default) and STD is the sample standard
    deviation with divisor n−1.
    """
    config, calibrated_a = _calibrated_config(spec)
    workers = spec.workers if spec.workers is not None else (os.cpu_count() or 1)
    jobs = [(spec.problem, config, spec.base_seed + r, r) for r in range(spec.n_runs)]

    traces: list = [None] * spec.n_runs
    if workers > 1 and spec.n_runs > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for index, trace in pool.map(_run_indexed, jobs):
                traces[index] = trace
    else:
        for job in jobs:
            index, trace = _run_indexed(job)
            traces[index] = trace

    included = [t for t in traces
                if not t.diverged and np.all(np.isfinite(t.objective))]
    n_excluded = spec.n_runs - len(included)
    n_iter = config.max_iterations

    if included:
        values = np.stack([t.objective for t in included])
        means = values.mean(axis=0)
        stds = (values.std(axis=0, ddof=1) if len(included) > 1
                else np.zeros(n_iter))
        medians = np.median(values, axis=0)
        q1s = np.percentile(values, 25, axis=0)
        q3s = np.percentile(values, 75, axis=0)
        obj_evals = included[0].objective_evals.copy()
        fid_evals = included[0].fidelity_evals.copy()
    else:
        means = stds = medians = q1s = q3s = np.full(n_iter, np.nan)
        obj_evals = np.zeros(n_iter, dtype=np.int64)
        fid_evals = np.zeros(n_iter, dtype=np.int64)

    stats = [
        IterationStatistics(k=k + 1, mean=float(means[k]), std=float(stds[k]),
                            median=float(medians[k]), q1=float(q1s[k]),
                            q3=float(q3s[k]))
        for k in range(n_iter)
    ]
    return EnsembleResult(stats=stats, traces=traces, n_excluded=n_excluded,
                          objective_evals=obj_evals, fidelity_evals=fid_evals,
                          calibrated_a=calibrated_a)


def _gains_label(config: OptimizerConfig) -> str:
    from .estimators import GAIN_PRESETS

    for name, preset in GAIN_PRESETS.items():
        if config.gains == preset:
            return name
    g = config.gains
    return f"({g.a}, {g.b}, {g.A}, {g.s}, {g.t})"


def summarize_final(result: EnsembleResult, at_iteration: int,
                    config: OptimizerConfig) -> dict:
    """One appendix-style summary row at the given iteration (1-indexed).

    Field order follows the reporting tables: method, gains, post-processing,
    resampling, blocking, median, IQR, mean, STD.
    """
    if not 1 <= at_iteration <= len(result.stats):
        raise ValueError(f"iteration {at_iteration} outside the recorded trace")
    s = result.stats[at_iteration - 1]
    blocking = config.blocking
    return {
        "method": method_label(config),
        "gains": _gains_label(config),
        "postproc": config.postproc if config.method != "first_order" else "-",
        "resampling": config.resampling,
        "blocking": "no" if blocking is None else ("auto" if blocking == "auto" else "yes"),
        "median": s.median,
        "iqr": s.q3 - s.q1,
        "mean": s.mean,
        "std": s.std,
    }
