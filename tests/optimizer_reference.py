"""Reference implementation of the optimizer loop in ``spsakit.optimizers.run``.

The library draws the perturbations of many iterations in one
``sample_perturbation`` call, forms the first-order step only for a callback
and averages the resamples only when there are several.  This loop does each
of these the plain way: one ``sample_perturbation(p, field, rng)`` call per
vector, at the point of use, zero-initialized accumulators divided by N_R
on every iteration, and the step on every iteration, so tests can require
the two to give bit-identical traces.  It hands the post-processings the
same estimate as the library, the iteration's coefficients and its
perturbation vectors in draw order as (Δ, Δ̃) row pairs, stacked from the
vectors it drew, where the library passes its slice of a block.

It counts the oracle calls itself and stores the cumulative counts of every
iteration in arrays of its own record, `ReferenceTrace`, where the library
stores one increment per counter and derives the arrays from it; comparing
the two checks the derived counts against a count made call by call.

It forms each resample's points z ± b_kΔ and z ± b_kΔ + b_kΔ̃ and makes its
oracle calls itself, in the order `spsakit.estimators.resample` documents,
and hands the values to the three estimators; a curvature estimate is the
coefficients they return with the rows Δ, Δ̃, and it is non-finite when
the mean of its coefficients is.  So a bit-identical trace checks
``resample``'s points, call order and coefficients against a second writing.

It takes the perturbations' ``seed`` as ``run`` does, and writes the step
formulas itself rather than take them from the code it checks:

* first order: z − a_k·g;
* preconditioned, scalar mode: z − (ā_k/h)·g, h the preconditioner;
* preconditioned, matrix mode: z − ā_k·x with x = `solve_pd`(H̄, g), H̄ the
  preconditioner, after a check that H̄ is finite.
"""

from dataclasses import dataclass

import numpy as np

from spsakit.estimators import (
    COMPLEX,
    gains_at,
    gradient_estimate,
    hessian_estimate,
    metric_estimate,
    sample_perturbation,
)
from spsakit.linalg import solve_pd
from spsakit.optimizers import estimate_blocking_tolerance, postprocess_gidi, postprocess_spall


@dataclass
class ReferenceTrace:
    """`spsakit.optimizers.RunTrace`'s record with the cumulative evaluation
    counts of every iteration stored, 0 after the last recorded one."""

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


def reference_run(objective, config, z0, *, seed, monitor, fidelity=None, callback=None):
    """``run`` with one perturbation draw per vector, in Δ, Δ̃ order per resample."""
    dtype = np.complex128 if config.field == COMPLEX else np.float64
    z = np.array(z0, dtype=dtype)
    p = z.size

    rng = np.random.default_rng(seed)
    calls = {"objective": 0, "fidelity": 0}

    def f(x):
        calls["objective"] += 1
        return objective(x)

    def fid(xa, xb):
        calls["fidelity"] += 1
        return fidelity(xa, xb)

    preconditioned = config.method != "first_order"
    memory = 1.0 if config.scalar else np.eye(p, dtype=dtype)
    epsilon = config.effective_epsilon

    delta = config.blocking
    if delta == "auto":
        delta = estimate_blocking_tolerance(f, z)
    blocking_on = delta is not None
    f_accepted = f(z) if blocking_on else None

    n_iter = config.max_iterations
    trace = ReferenceTrace(
        objective=np.full(n_iter, np.nan),
        accepted=np.zeros(n_iter, dtype=bool),
        objective_evals=np.zeros(n_iter, dtype=np.int64),
        fidelity_evals=np.zeros(n_iter, dtype=np.int64),
        final_params=z,
        blocking_delta=float(delta) if blocking_on else None,
    )
    if blocking_on and not (np.isfinite(delta) and np.isfinite(f_accepted)):
        trace.diverged_at, trace.diverged_reason = 1, "blocking"
        return trace

    for k in range(1, n_iter + 1):
        a_k, abar_k, b_k = gains_at(config.gains, k)

        g_sum = np.zeros(p, dtype=dtype)
        drawn, coefficients = [], []
        for _ in range(config.resampling):
            delta_vec = sample_perturbation(p, config.field, rng)
            drawn.append(delta_vec)
            plus, minus = z + b_k * delta_vec, z - b_k * delta_vec
            f_plus, f_minus = f(plus), f(minus)
            g_sum += gradient_estimate(f_plus, f_minus, b_k, delta_vec)
            if not preconditioned:
                continue
            delta_tilde = sample_perturbation(p, config.field, rng)
            drawn.append(delta_tilde)
            plus_tilde, minus_tilde = plus + b_k * delta_tilde, minus + b_k * delta_tilde
            # arguments are evaluated left to right: in the oracles' call order
            if config.method == "second_order":
                c = hessian_estimate(f(plus_tilde), f_plus, f(minus_tilde), f_minus, b_k)
            else:
                c = metric_estimate(fid(z, plus_tilde), fid(z, plus), fid(z, minus_tilde),
                                    fid(z, minus), b_k)
            coefficients.append(c)
        g = g_sum / config.resampling

        if preconditioned:
            c_sum = 0.0
            for c in coefficients:
                c_sum += c
            rows = np.array(drawn).reshape(config.resampling, 2, p)
            if not (np.all(np.isfinite(g)) and np.isfinite(c_sum / config.resampling)):
                trace.diverged_at, trace.diverged_reason = k, "estimate"
                break
            try:
                # Overflow to a non-finite preconditioner, a failed eigensolver
                # and a failed Cholesky factorization all end the run.
                with np.errstate(over="ignore", invalid="ignore"):
                    postprocess = (postprocess_spall if config.postproc == "spall"
                                   else postprocess_gidi)
                    memory, preconditioner = postprocess(np.array(coefficients), rows, memory,
                                                         k, epsilon)
                if not np.all(np.isfinite(preconditioner)):
                    raise np.linalg.LinAlgError("the preconditioner is not finite")
                if config.scalar:
                    candidate = z - (abar_k / preconditioner) * g
                else:
                    candidate = z - abar_k * solve_pd(preconditioner, g)
            except np.linalg.LinAlgError:
                trace.diverged_at, trace.diverged_reason = k, "preconditioner"
                break
            step = z - candidate
        else:
            candidate = z - a_k * g
            step = a_k * g

        if not np.all(np.isfinite(candidate.view(np.float64))):
            trace.diverged_at, trace.diverged_reason = k, "candidate"
            break

        if blocking_on:
            f_candidate = f(candidate)
            accepted = f_candidate < f_accepted + delta
            if accepted:
                z = candidate
                f_accepted = f_candidate
        else:
            accepted = True
            z = candidate

        value = monitor(z)
        if not np.isfinite(value):
            trace.diverged_at, trace.diverged_reason = k, "recorded"
            break

        i = k - 1
        trace.objective[i] = value
        trace.accepted[i] = accepted
        trace.objective_evals[i] = calls["objective"]
        trace.fidelity_evals[i] = calls["fidelity"]
        if callback is not None:
            callback(k, z, g, step)

    trace.final_params = z
    return trace
