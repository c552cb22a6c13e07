"""Optimizer state machines for the six stochastic methods and their variants.

Methods are assembled from the estimators module: ``first_order`` uses the
gradient estimate alone, ``second_order`` preconditions with a Hessian
estimate, and ``quantum_natural`` preconditions with a Fubini-Study metric
estimate obtained from fidelity evaluations.  Each exists in the real and the
complex field, optionally in scalar-preconditioned form, with blocking and
resampling as orthogonal switches.  Both switches live only in `run`: it
averages the N_R estimator draws of an iteration and blocks a candidate
against the cached objective value of the accepted iterate.

Random numbers: a run draws its perturbations from one generator seeded with
``config.seed``, and from nothing else.  It draws them ``PERTURBATION_BLOCK``
iterations at a time, one `sample_perturbation` call per block; the rows of a
block are the vectors one draw per vector would give, so a seeded trace does
not depend on the block size.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .estimators import (
    COMPLEX,
    FIELDS,
    REAL,
    EvaluationBudget,
    GainSchedule,
    GAIN_PRESETS,
    gains_at,
    gradient_estimate,
    hessian_estimate,
    metric_estimate,
    metric_second_difference,
    sample_perturbation,
    scalar_preconditioner,
    second_difference,
)
from .linalg import hermitize, matrix_abs, psd_sqrt_shifted, solve_pd

__all__ = [
    "OptimizerConfig",
    "PreconditionerState",
    "RunTrace",
    "postprocess_spall",
    "postprocess_gidi",
    "step_first_order",
    "step_preconditioned",
    "estimate_blocking_tolerance",
    "run",
]

METHODS = ("first_order", "second_order", "quantum_natural")
POSTPROCS = ("spall", "gidi")

# Paper-style defaults: the additive regularizer of the spall pipeline and
# the shift inside the square root of the gidi pipeline play different roles,
# hence the different magnitudes.
DEFAULT_EPSILON = {"spall": 1e-3, "gidi": 1e-4}

# Iterations whose perturbations `run` draws in one `sample_perturbation`
# call.  It bounds the memory of a block, not the result: the draws are
# stream-identical to one call per vector.
PERTURBATION_BLOCK = 64


@dataclass(frozen=True)
class OptimizerConfig:
    """Full description of one optimization method instance."""

    method: str = "first_order"
    field: str = COMPLEX
    scalar: bool = False
    gains: GainSchedule = GAIN_PRESETS["standard"]
    postproc: str = "gidi"
    epsilon: float | None = None
    blocking: float | str | None = None
    resampling: int = 1
    max_iterations: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.field not in FIELDS:
            raise ValueError(f"unknown field {self.field!r}")
        if self.postproc not in POSTPROCS:
            raise ValueError(f"unknown post-processing {self.postproc!r}")
        if self.scalar and self.method == "first_order":
            raise ValueError("scalar preconditioning applies only to second_order "
                             "and quantum_natural methods")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if isinstance(self.blocking, str):
            if self.blocking != "auto":
                raise ValueError("blocking must be None, 'auto', or a tolerance >= 0")
        elif self.blocking is not None and self.blocking < 0:
            raise ValueError("blocking tolerance must be non-negative")
        if self.resampling < 1:
            raise ValueError("resampling N_R must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")

    @property
    def effective_epsilon(self) -> float:
        return DEFAULT_EPSILON[self.postproc] if self.epsilon is None else self.epsilon


@dataclass
class PreconditionerState:
    """Smoothed Hessian/metric memory carried across iterations.

    ``memory`` is a hermitian matrix, or a plain float in scalar mode.  The
    zeroth-iteration memory is the identity.
    """

    memory: np.ndarray | float
    k: int = 0

    @classmethod
    def identity(cls, p: int, field: str = COMPLEX, scalar: bool = False):
        if scalar:
            return cls(memory=1.0)
        dtype = np.complex128 if field == COMPLEX else np.float64
        return cls(memory=np.eye(p, dtype=dtype))


@dataclass
class RunTrace:
    """Per-iteration record of one optimization run.

    ``objective`` holds the recorded objective value at the accepted iterate
    of each iteration; diverged runs are padded with NaN and flagged.
    ``diverged_at`` is the 1-based iteration at which a run diverged, and
    ``diverged_reason`` what turned non-finite there: the Hessian or metric
    ``"estimate"``, the ``"candidate"`` iterate, or the ``"recorded"``
    objective value.  Both are None for a run that completed.
    """

    objective: np.ndarray
    accepted: np.ndarray
    objective_evals: np.ndarray
    fidelity_evals: np.ndarray
    final_params: np.ndarray
    blocking_delta: float | None = None
    diverged_at: int | None = None
    diverged_reason: str | None = None

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None

    def __len__(self):
        return len(self.objective)


def postprocess_spall(h_raw, state: PreconditionerState, epsilon: float):
    """Hermitize, blend with inertia, then regularize as √(H″²) + εI.

    Advances ``state`` by one iteration and stores the blended matrix back
    into it; the returned matrix is positive-definite with eigenvalues ≥ ε.
    """
    state.k += 1
    k = state.k
    if np.isscalar(state.memory):
        h_prime = float(np.real(h_raw))
        h_pp = (k / (k + 1)) * state.memory + h_prime / (k + 1)
        state.memory = h_pp
        return abs(h_pp) + epsilon
    h_prime = hermitize(h_raw)
    if h_prime.shape != state.memory.shape:
        raise ValueError("Hessian estimate dimension does not match preconditioner state")
    h_pp = (k / (k + 1)) * state.memory + h_prime / (k + 1)
    state.memory = h_pp
    p = h_pp.shape[0]
    return matrix_abs(h_pp) + epsilon * np.eye(p, dtype=h_pp.dtype)


def postprocess_gidi(h_raw, state: PreconditionerState, epsilon: float):
    """Hermitize, regularize as √(H′² + εI), then blend with inertia.

    The regularization happens before the inertia blend, so every summand has
    eigenvalues ≥ √ε and a vanishing Hessian yields a preconditioner
    proportional to the identity.
    """
    state.k += 1
    k = state.k
    if np.isscalar(state.memory):
        h_prime = float(np.real(h_raw))
        h_pp = math.sqrt(h_prime * h_prime + epsilon)
        state.memory = (k / (k + 1)) * state.memory + h_pp / (k + 1)
        return state.memory
    h_prime = hermitize(h_raw)
    if h_prime.shape != state.memory.shape:
        raise ValueError("Hessian estimate dimension does not match preconditioner state")
    h_pp = psd_sqrt_shifted(h_prime, epsilon)
    state.memory = (k / (k + 1)) * state.memory + h_pp / (k + 1)
    return state.memory.copy()


def step_first_order(z, a_k, g):
    """First-order update z − a_k g."""
    return z - a_k * g


def step_preconditioned(z, abar_k, g, preconditioner):
    """Preconditioned update z − ā_k H̄⁻¹ g (or z − ā_k g/h in scalar mode)."""
    if np.isscalar(preconditioner):
        return z - (abar_k / preconditioner) * g
    return z - abar_k * solve_pd(preconditioner, g)


def estimate_blocking_tolerance(f, z0, n_samples: int = 25):
    """Twice the sample standard deviation of repeated evaluations at z₀."""
    if n_samples < 2:
        raise ValueError("need at least 2 samples to estimate the noise level")
    values = np.array([f(z0) for _ in range(n_samples)], dtype=np.float64)
    return 2.0 * float(np.std(values, ddof=1))


def _counted(fn, budget, kind):
    if kind == "objective":
        def wrapped(z):
            budget.objective_evals += 1
            return fn(z)
    else:
        def wrapped(za, zb):
            budget.fidelity_evals += 1
            return fn(za, zb)
    return wrapped


def _resample(config, f, fid, z, b_k, bt_k, draws):
    """One resample of an iteration's estimates, from the next rows of ``draws``.

    Returns ``(g, h)``: the gradient estimate and, for a preconditioned
    method, the Hessian or metric estimate (a float in scalar mode); h is
    None for first-order methods.
    """
    delta_vec = next(draws)
    g, pair = gradient_estimate(f, z, b_k, delta_vec)
    if config.method == "first_order":
        return g, None
    delta_tilde = next(draws)
    if config.method == "second_order":
        if config.scalar:
            d2 = second_difference(f, z, b_k, bt_k, delta_vec, delta_tilde, pair)
            return g, scalar_preconditioner(d2, b_k, bt_k, "second_order")
        return g, hessian_estimate(f, z, b_k, bt_k, delta_vec, delta_tilde, pair)
    if config.scalar:
        d2 = metric_second_difference(fid, z, b_k, bt_k, delta_vec, delta_tilde)
        return g, scalar_preconditioner(d2, b_k, bt_k, "quantum_natural")
    return g, metric_estimate(fid, z, b_k, bt_k, delta_vec, delta_tilde)


def run(objective, config: OptimizerConfig, z0, *, fidelity=None, monitor=None,
        callback=None):
    """Execute ``config.max_iterations`` iterations of the configured method.

    Parameters
    ----------
    objective : callable
        Maps a parameter vector to a real value; charged to the evaluation
        budget on every call.
    config : OptimizerConfig
    z0 : array_like
        Initial parameter vector in the configured field.
    fidelity : callable, optional
        ``fidelity(za, zb)`` in [0, 1]; required by quantum_natural methods.
    monitor : callable, optional
        Uncharged objective used to record the trace (typically the noiseless
        version of a shot-noisy oracle).  Defaults to an uncharged call to
        ``objective`` itself: the trace then holds shot-noisy values, and each
        recording call draws from the objective's rng, so a run without a
        monitor sees a different noise stream, and takes different steps,
        than the same run with one.
    callback : callable, optional
        ``callback(k, z, g, step)`` invoked after every parameter update.

    Returns
    -------
    RunTrace with one record per iteration.  If a Hessian or metric
    estimate, an iterate or a recorded objective value turns non-finite the
    run aborts, the remaining records are NaN-padded, and the trace is
    flagged as diverged, with the iteration and the reason.

    Random numbers
    --------------
    The perturbations come from ``np.random.default_rng(config.seed)``, in
    the order Δ, Δ̃ of the first resample, then of the second, and so on;
    first-order methods draw no Δ̃.  They are drawn ``PERTURBATION_BLOCK``
    iterations at a time, the last block cut to the iterations left, so the
    run holds at most one block.  Each block is stream-identical to one
    `sample_perturbation` call per vector, so traces equal those of a loop
    that draws each vector when it needs it.  A run that diverges leaves
    the rest of its block unused.  The oracles draw shot noise from their
    own generators, never from this one.
    """
    if config.method == "quantum_natural" and fidelity is None:
        raise ValueError("quantum_natural methods require a fidelity oracle")

    if config.field == REAL and np.iscomplexobj(np.asarray(z0)):
        raise ValueError("real-field run received a complex initial point")
    dtype = np.complex128 if config.field == COMPLEX else np.float64
    z = np.array(z0, dtype=dtype)
    if z.ndim != 1:
        raise ValueError("initial point must be a 1-D parameter vector")
    p = z.size

    rng = np.random.default_rng(config.seed)
    budget = EvaluationBudget()
    f = _counted(objective, budget, "objective")
    fid = _counted(fidelity, budget, "fidelity") if fidelity is not None else None
    record = monitor if monitor is not None else objective

    preconditioned = config.method != "first_order"
    state = None
    if preconditioned:
        state = PreconditionerState.identity(p, config.field, config.scalar)
    epsilon = config.effective_epsilon

    delta = config.blocking
    if delta == "auto":
        delta = estimate_blocking_tolerance(f, z, 25)
    blocking_on = delta is not None
    f_accepted = f(z) if blocking_on else None

    n_iter = config.max_iterations
    trace = RunTrace(
        objective=np.full(n_iter, np.nan),
        accepted=np.zeros(n_iter, dtype=bool),
        objective_evals=np.zeros(n_iter, dtype=np.int64),
        fidelity_evals=np.zeros(n_iter, dtype=np.int64),
        final_params=z,
        blocking_delta=float(delta) if blocking_on else None,
    )

    n_r = config.resampling
    draws_per_iter = n_r * (2 if preconditioned else 1)
    for k in range(1, n_iter + 1):
        if (k - 1) % PERTURBATION_BLOCK == 0:
            rows = min(PERTURBATION_BLOCK, n_iter - k + 1) * draws_per_iter
            draws = iter(sample_perturbation(p, config.field, rng, rows))
        a_k, abar_k, b_k, bt_k = gains_at(config.gains, k)

        if n_r == 1 and not preconditioned:
            g, _ = _resample(config, f, fid, z, b_k, bt_k, draws)
        else:
            # Preconditioned methods sum into zeros even at N_R = 1: that
            # turns the estimate's -0.0 entries into 0.0, and eigh rounds
            # differently for matrices that differ only in the sign of a zero.
            g_sum = np.zeros(p, dtype=dtype)
            h_sum = 0.0 if (not preconditioned or config.scalar) else np.zeros((p, p), dtype=dtype)
            for _ in range(n_r):
                g, h = _resample(config, f, fid, z, b_k, bt_k, draws)
                g_sum += g
                if preconditioned:
                    h_sum += h
            g = g_sum / n_r
            h_raw = h_sum / n_r

        if preconditioned:
            if not np.all(np.isfinite(h_raw)):
                trace.diverged_at, trace.diverged_reason = k, "estimate"
                break
            post = postprocess_spall if config.postproc == "spall" else postprocess_gidi
            preconditioner = post(h_raw, state, epsilon)
            candidate = step_preconditioned(z, abar_k, g, preconditioner)
        else:
            candidate = step_first_order(z, a_k, g)

        if not np.isfinite(candidate).all():
            trace.diverged_at, trace.diverged_reason = k, "candidate"
            break
        if callback is not None:
            step = z - candidate if preconditioned else a_k * g

        if blocking_on:
            f_candidate = f(candidate)
            accepted = f_candidate < f_accepted + delta
            if accepted:
                z = candidate
                f_accepted = f_candidate
        else:
            accepted = True
            z = candidate

        value = record(z)
        if not np.isfinite(value):
            trace.diverged_at, trace.diverged_reason = k, "recorded"
            break

        i = k - 1
        trace.objective[i] = value
        trace.accepted[i] = accepted
        trace.objective_evals[i] = budget.objective_evals
        trace.fidelity_evals[i] = budget.fidelity_evals
        if callback is not None:
            callback(k, z, g, step)

    trace.final_params = z
    return trace


def method_label(config: OptimizerConfig) -> str:
    """Human-readable method name, e.g. 'scalar QN-CSPSA'."""
    core = {"first_order": "SPSA", "second_order": "2SPSA", "quantum_natural": "QN-SPSA"}
    name = core[config.method]
    if config.field == COMPLEX:
        name = name.replace("SPSA", "CSPSA")
    if config.scalar:
        name = "scalar " + name
    return name
