"""Optimizer state machines for the six stochastic methods and their variants.

Methods are assembled from the estimators module: ``first_order`` uses the
gradient estimate alone, ``second_order`` preconditions with a Hessian
estimate, and ``quantum_natural`` preconditions with a Fubini-Study metric
estimate obtained from fidelity evaluations.  Each exists in the real and the
complex field, optionally in the scalar form of its estimate, with blocking
and resampling as orthogonal switches.  Both switches live only in `run`: it
averages the N_R estimator draws of an iteration and blocks a candidate
against the cached objective value of the accepted iterate.

A curvature estimate is the mean Σ_r c_r·Δ_rΔ̃_r†/N_R of an iteration's
resamples, and it travels in that factored form: `run` keeps the N_R real
coefficients c_r that `estimators.resample` returns and the iteration's
(N_R, 2, p) rows Δ_r, Δ̃_r, and hands both to either post-processing.
Scalar mode uses the coefficients' mean alone, spall forms the p × p mean,
and gidi takes its square root from the factors through
`linalg.psd_sqrt_shifted`, with no p × p estimate.

The preconditioned methods smooth each curvature estimate with Spall's
inertia blend H̄_k = k/(k+1)·H̄_{k−1} + Ĥ_k/(k+1), H̄_0 = I.  `run` keeps
H̄ and k; the post-processings are pure functions of the estimate, H̄_{k−1}
and k.

Random numbers: a run draws its perturbations from one generator seeded with
`run`'s argument ``seed``, and from nothing else.  It draws them a block at
a time, one `sample_perturbation` call per block of at most
``PERTURBATION_BLOCK_ENTRIES`` entries, but never less than one iteration's
draws; the rows of a block are the vectors one draw per vector would give,
so a seeded trace does not depend on the block size.
"""

import math
from dataclasses import dataclass

import numpy as np

from .estimators import (
    COMPLEX,
    FIELDS,
    MAX_COUNT,
    REAL,
    GainSchedule,
    GAIN_PRESETS,
    _count,
    gains_at,
    resample,
    sample_perturbation,
)
from .linalg import hermitize, matrix_abs, psd_sqrt_shifted, solve_pd

__all__ = [
    "OptimizerConfig",
    "RunTrace",
    "postprocess_spall",
    "postprocess_gidi",
    "estimate_blocking_tolerance",
    "run",
]

METHODS = ("first_order", "second_order", "quantum_natural")
POSTPROCS = ("spall", "gidi")

# Paper-style defaults: the additive regularizer of the spall pipeline and
# the shift inside the square root of the gidi pipeline play different roles,
# hence the different magnitudes.
DEFAULT_EPSILON = {"spall": 1e-3, "gidi": 1e-4}

# The entries of the perturbation block that `run` draws in one
# `sample_perturbation` call, unless one iteration's draws take more.  It
# bounds the memory of a block, not the result: the draws are
# stream-identical to one call per vector.
PERTURBATION_BLOCK_ENTRIES = 2**12

# Evaluations at z₀ from which ``blocking="auto"`` estimates the noise level.
BLOCKING_SAMPLES = 25


@dataclass(frozen=True)
class OptimizerConfig:
    """Full description of one optimization method; it holds no randomness.

    ``resampling`` (N_R) and ``max_iterations`` are counts from 1 to
    ``MAX_COUNT`` under the count rule of `estimators._count`.
    """

    method: str = "first_order"
    field: str = COMPLEX
    scalar: bool = False
    gains: GainSchedule = GAIN_PRESETS["standard"]
    postproc: str = "gidi"
    epsilon: float | None = None
    blocking: float | str | None = None
    resampling: int = 1
    max_iterations: int = 100

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
        if self.epsilon is not None and not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if isinstance(self.blocking, str):
            if self.blocking != "auto":
                raise ValueError("blocking must be None, 'auto', or a tolerance >= 0")
        elif self.blocking is not None and not 0 <= self.blocking < math.inf:
            raise ValueError("blocking tolerance must be finite and non-negative")
        _count("resampling N_R", self.resampling, 1, MAX_COUNT)
        _count("max_iterations", self.max_iterations, 1, MAX_COUNT)

    @property
    def effective_epsilon(self) -> float:
        return DEFAULT_EPSILON[self.postproc] if self.epsilon is None else self.epsilon


@dataclass
class RunTrace:
    """Per-iteration record of one optimization run.

    ``objective`` holds the recorded objective value at the accepted iterate
    of each iteration; diverged runs are padded with NaN and flagged.
    ``diverged_at`` is the 1-based iteration at which a run diverged, and
    ``diverged_reason`` what went wrong there: a preconditioned iteration's
    ``"estimate"``, its averaged gradient or the mean of its Hessian or
    metric coefficients, the ``"candidate"`` iterate or the ``"recorded"``
    objective value turned non-finite; the ``"preconditioner"`` of a huge
    but finite estimate overflowed, or a factorization failed: the square
    root's QR or eigensolver, or the step's Cholesky check or LU solve; or
    the ``"blocking"`` reference, which is checked before the first
    iteration: a blocking tolerance or objective value at z₀ that is not
    finite ends the run at iteration 1, with every record NaN, instead of
    letting it reject every candidate.  Both are None for a run that
    completed.

    Evaluation counts are not stored per iteration: the estimator contract
    makes every iteration of a configuration cost the same.  The trace keeps
    the objective evaluations spent before iteration 1 (0, 1 for a fixed
    blocking tolerance's f(z₀), 1 + ``BLOCKING_SAMPLES`` for
    ``blocking="auto"``; none of them call the fidelity) and each counter's
    evaluations per iteration.  `objective_evals` and `fidelity_evals`
    derive the cumulative counts from them and `recorded`.
    """

    objective: np.ndarray
    accepted: np.ndarray
    final_params: np.ndarray
    objective_evals_before: int = 0
    objective_evals_per_iteration: int = 0
    fidelity_evals_per_iteration: int = 0
    blocking_delta: float | None = None
    diverged_at: int | None = None
    diverged_reason: str | None = None

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None

    @property
    def recorded(self) -> int:
        """The number of recorded iterations: all, or those before ``diverged_at``."""
        return len(self.objective) if self.diverged_at is None else self.diverged_at - 1

    @property
    def objective_evals(self) -> np.ndarray:
        """Cumulative objective evaluations after each iteration, as int64;
        0 after the last recorded iteration."""
        return self._cumulative(self.objective_evals_before, self.objective_evals_per_iteration)

    @property
    def fidelity_evals(self) -> np.ndarray:
        """Cumulative fidelity evaluations after each iteration, as
        `objective_evals` counts objective evaluations."""
        return self._cumulative(0, self.fidelity_evals_per_iteration)

    def _cumulative(self, before, per_iteration):
        counts = np.zeros(len(self.objective), dtype=np.int64)
        counts[:self.recorded] = before + per_iteration * np.arange(
            1, self.recorded + 1, dtype=np.int64)
        return counts


def _coefficient_mean(coefficients):
    """Σ_r c_r/N_R, summed in resample order into 0.0, as a float."""
    total = 0.0
    for c in coefficients:
        total += c
    return float(total / len(coefficients))


def _blend(memory, k: int, summand):
    """Spall's inertia blend k/(k+1)·H̄_{k−1} + Ĥ_k/(k+1)."""
    if np.shape(summand) != np.shape(memory):
        raise ValueError("the estimate's dimension does not match the blend")
    return (k / (k + 1)) * memory + summand / (k + 1)


def postprocess_spall(coefficients, rows, memory, k: int, epsilon: float):
    """Hermitize, blend with inertia, then regularize as √(H″²) + εI.

    The estimate is Σ_r c_r·Δ_rΔ̃_r†/N_R, given by its N_R real
    ``coefficients`` c_r and an (N_R, 2, p) array of ``rows`` whose pair r
    is Δ_r, Δ̃_r.  It is formed here as a p × p matrix, the outer products
    summed in resample order into 0.0, whose hermitian part is blended; in
    scalar mode the estimate is the coefficients' mean and ``rows`` is not
    read.  ``memory`` is the previous blend H̄_{k−1}, a hermitian matrix or
    a float in scalar mode.  Returns ``(H″, preconditioner)``: the blend of
    iteration k, and a positive-definite matrix with eigenvalues ≥ ε.
    Raises ``ValueError`` if the estimate's dimension does not match
    ``memory``.
    """
    if np.isscalar(memory):
        h_pp = _blend(memory, k, _coefficient_mean(coefficients))
        return h_pp, abs(h_pp) + epsilon
    # Summing into 0.0 turns the estimate's -0.0 entries into 0.0, and eigh
    # rounds differently for matrices that differ only in the sign of a zero.
    h_sum = 0.0
    for c, (delta, delta_tilde) in zip(coefficients, rows):
        h_sum += c * np.outer(delta, np.conj(delta_tilde))
    h_pp = _blend(memory, k, hermitize(h_sum / len(coefficients)))
    return h_pp, matrix_abs(h_pp) + epsilon * np.eye(h_pp.shape[0], dtype=h_pp.dtype)


def postprocess_gidi(coefficients, rows, memory, k: int, epsilon: float):
    """Regularize the estimate's hermitian part H′ as √(H′² + εI), then
    blend with inertia.

    The estimate, ``memory`` and the scalar mode are those of
    `postprocess_spall`.  The regularization happens before the inertia
    blend, so every summand has eigenvalues ≥ √ε and a vanishing Hessian
    yields a preconditioner proportional to the identity.  The square root
    is `psd_sqrt_shifted` of the coefficients and rows, which forms no p × p
    estimate: H′ has its range in the span of the 2·N_R rows, so it costs
    O(p·N_R²) beyond forming the result.  The blend of iteration k is
    returned twice, as the new blend and as the preconditioner.  Raises
    ``ValueError`` if the estimate's dimension does not match ``memory``.
    """
    if np.isscalar(memory):
        h_prime = _coefficient_mean(coefficients)
        summand = math.sqrt(h_prime * h_prime + epsilon)
    else:
        summand = psd_sqrt_shifted(coefficients, rows, epsilon)
    blend = _blend(memory, k, summand)
    return blend, blend


def estimate_blocking_tolerance(f, z0):
    """Twice the sample standard deviation of ``BLOCKING_SAMPLES``
    evaluations at z₀."""
    values = np.array([f(z0) for _ in range(BLOCKING_SAMPLES)], dtype=np.float64)
    return 2.0 * float(np.std(values, ddof=1))


@np.errstate(over="ignore", invalid="ignore")
def run(objective, config: OptimizerConfig, z0, *, seed, monitor, fidelity=None,
        callback=None):
    """Execute ``config.max_iterations`` iterations of the configured method.

    Parameters
    ----------
    objective : callable
        Maps a parameter vector to a real value; every call is counted.
    config : OptimizerConfig
    z0 : array_like
        Initial parameter vector in the configured field.
    seed : int
        Non-negative seed of the run's perturbations, an int or numpy
        integer, not a bool; see Random numbers.
    monitor : callable
        Uncharged objective that records the trace once per iteration,
        typically the noiseless version of a shot-noisy oracle.
    fidelity : callable, optional
        ``fidelity(za, zb)`` in [0, 1], counted as ``objective`` is;
        required by quantum_natural methods.
        If it has a ``prepare`` attribute, as the fidelity of
        `make_oracles` has, a quantum-natural run hands it to
        `estimators.resample`, which calls ``fidelity.prepare(points)``
        once per resample, uncharged, with the (5, p) stack of the points
        the resample evaluates, before its first oracle call.
    callback : callable, optional
        ``callback(k, z, g, step)`` invoked after every parameter update.

    Returns
    -------
    RunTrace with one record per iteration.  A run that diverges, for any
    of the reasons `RunTrace` lists, aborts; its remaining records are
    NaN-padded, and the trace is flagged with the iteration and the reason.

    Raises
    ------
    ValueError
        If ``seed`` is not a non-negative integer.
    RuntimeError
        If a recorded iteration after the first spends a different number of
        objective or fidelity evaluations than the first: the trace stores
        one increment per counter, so a broken estimator contract would
        otherwise be recorded wrongly.

    Random numbers
    --------------
    The perturbations come from ``np.random.default_rng(seed)``, in
    the order Δ, Δ̃ of the first resample, then of the second, and so on;
    first-order methods draw no Δ̃.  They are drawn a block at a time: as
    many iterations as ``PERTURBATION_BLOCK_ENTRIES`` entries hold, but at
    least one, the last block cut to the iterations left, so the run holds
    at most one block.  A block is read as an (iterations, N_R, d, p) array,
    d = 1 for first-order methods and 2 otherwise, whose slice of one
    iteration gives each resample its rows and the post-processing the
    rows of the estimate; a first-order iteration at N_R = 1 reads its Δ
    as the next row of the block.  Each block is stream-identical to one
    `sample_perturbation` call per vector, so traces equal those of a loop
    that draws each vector when it needs it.  A run that diverges leaves
    the rest of its block unused.  The oracles draw shot noise from their
    own generators, never from this one.

    Floating point
    --------------
    The whole call, the oracles and ``callback`` included, runs under one
    rule, ``np.errstate(over="ignore", invalid="ignore")``: an overflow or
    an invalid operation gives inf or NaN without a warning.  That loses
    nothing, because a non-finite value in a run, from its arithmetic or
    its oracles, already ends it: a non-finite blocking reference,
    estimate, preconditioner, candidate or recorded value ends the run as a
    `RunTrace` divergence record, and under blocking a candidate whose
    objective value is NaN or +inf fails the blocking test and is rejected.
    """
    _count("seed", seed, 0)
    if config.method == "quantum_natural" and fidelity is None:
        raise ValueError("quantum_natural methods require a fidelity oracle")

    if config.field == REAL and np.iscomplexobj(np.asarray(z0)):
        raise ValueError("real-field run received a complex initial point")
    z = np.array(z0, dtype=FIELDS[config.field])
    if z.ndim != 1:
        raise ValueError("initial point must be a 1-D parameter vector")
    p = z.size

    rng = np.random.default_rng(seed)
    prepare = getattr(fidelity, "prepare", None) if config.method == "quantum_natural" else None
    obj_calls = fid_calls = 0

    def f(z):
        nonlocal obj_calls
        obj_calls += 1
        return objective(z)

    def fid(za, zb):
        nonlocal fid_calls
        fid_calls += 1
        return fidelity(za, zb)

    preconditioned = config.method != "first_order"
    memory = 1.0 if config.scalar else np.eye(p, dtype=z.dtype)  # H̄_0 = I
    epsilon = config.effective_epsilon
    postprocess = postprocess_spall if config.postproc == "spall" else postprocess_gidi

    delta = config.blocking
    if delta == "auto":
        delta = estimate_blocking_tolerance(f, z)
    blocking_on = delta is not None
    f_accepted = f(z) if blocking_on else None

    n_iter = config.max_iterations
    obj_before = obj_calls
    trace = RunTrace(
        objective=np.full(n_iter, np.nan),
        accepted=np.zeros(n_iter, dtype=bool),
        final_params=z,
        objective_evals_before=obj_before,
        blocking_delta=float(delta) if blocking_on else None,
    )
    if blocking_on and not (math.isfinite(delta) and math.isfinite(f_accepted)):
        # A NaN tolerance or reference value would reject every candidate.
        trace.diverged_at, trace.diverged_reason = 1, "blocking"
        return trace

    n_r = config.resampling
    d = 2 if preconditioned else 1  # Δ, and Δ̃ if preconditioned, per resample
    block_iterations = max(1, PERTURBATION_BLOCK_ENTRIES // (n_r * d * p))
    for k in range(1, n_iter + 1):
        if (k - 1) % block_iterations == 0:
            iterations = min(block_iterations, n_iter - k + 1)
            block = sample_perturbation(p, config.field, rng, iterations * n_r * d)
            # one view per iteration: a lone Δ, or the (N_R, d, p) rows
            draws = iter(block if n_r * d == 1 else block.reshape(iterations, n_r, d, p))
        rows = next(draws)
        a_k, abar_k, b_k = gains_at(config.gains, k)

        if n_r * d == 1:
            g, _ = resample(config.method, f, fid, z, b_k, rows)
        else:
            g_sum, coefficients = 0.0, []
            for pair in rows:
                g, c = resample(config.method, f, fid, z, b_k, pair[0],
                                pair[1] if preconditioned else None, prepare)
                g_sum += g
                coefficients.append(c)
            g = g_sum / n_r

        if preconditioned:
            # The estimate is non-finite when its coefficients' mean is,
            # also when finite coefficients overflow in their sum.
            if not (np.isfinite(g).all() and math.isfinite(_coefficient_mean(coefficients))):
                trace.diverged_at, trace.diverged_reason = k, "estimate"
                break
            # A huge but finite estimate can overflow in the hermitian part,
            # the inertia blend or the square root, to a preconditioner that
            # is not finite, or fail a factorization in the square root or
            # the step's solve.
            try:
                memory, preconditioner = postprocess(coefficients, rows, memory, k, epsilon)
                if not np.isfinite(preconditioner).all():
                    raise np.linalg.LinAlgError("the preconditioner is not finite")
                candidate = (z - (abar_k / preconditioner) * g if config.scalar
                             else z - abar_k * solve_pd(preconditioner, g))
            except np.linalg.LinAlgError:
                trace.diverged_at, trace.diverged_reason = k, "preconditioner"
                break
        else:
            candidate = z - a_k * g

        if not np.isfinite(candidate).all():
            trace.diverged_at, trace.diverged_reason = k, "candidate"
            break
        if callback is not None:
            step = z - candidate if preconditioned else a_k * g

        if blocking_on:
            f_candidate = f(candidate)
            accepted = f_candidate < f_accepted + delta
        else:
            f_candidate, accepted = None, True
        if accepted:
            z, f_accepted = candidate, f_candidate

        value = monitor(z)
        if not math.isfinite(value):
            trace.diverged_at, trace.diverged_reason = k, "recorded"
            break

        # Every iteration must spend what the first one spent: the trace
        # stores that increment, not the counts.
        obj_spent = obj_calls - obj_before
        if k == 1:
            obj_per_iter = trace.objective_evals_per_iteration = obj_spent
            fid_per_iter = trace.fidelity_evals_per_iteration = fid_calls
        elif obj_spent != k * obj_per_iter or fid_calls != k * fid_per_iter:
            raise RuntimeError(
                f"iteration {k} brought the run to {obj_spent} objective evaluations "
                f"after the {obj_before} before iteration 1 and {fid_calls} fidelity "
                f"evaluations, not {k} times iteration 1's {obj_per_iter} and "
                f"{fid_per_iter}: an estimator broke its evaluation contract")
        i = k - 1
        trace.objective[i] = value
        trace.accepted[i] = accepted
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
