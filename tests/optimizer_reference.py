"""Reference implementation of the optimizer loop in ``spsakit.optimizers.run``.

The library draws the perturbations of many iterations in one
``sample_perturbation`` call, forms the first-order step only for a callback
and averages the resamples only when there are several.  This loop does each
of these the plain way: one ``sample_perturbation(p, field, rng)`` call per
vector, at the point of use, zero-initialized accumulators divided by N_R
on every iteration, and the step on every iteration, so tests can require
the two to give bit-identical traces.
"""

import numpy as np

from spsakit.estimators import (
    COMPLEX,
    EvaluationBudget,
    gains_at,
    gradient_estimate,
    hessian_estimate,
    metric_estimate,
    metric_second_difference,
    sample_perturbation,
    scalar_preconditioner,
    second_difference,
)
from spsakit.optimizers import (
    PreconditionerState,
    RunTrace,
    _counted,
    estimate_blocking_tolerance,
    postprocess_gidi,
    postprocess_spall,
    step_first_order,
    step_preconditioned,
)


def reference_run(objective, config, z0, *, fidelity=None, monitor=None, callback=None):
    """``run`` with one perturbation draw per vector, in Δ, Δ̃ order per resample."""
    dtype = np.complex128 if config.field == COMPLEX else np.float64
    z = np.array(z0, dtype=dtype)
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

    for k in range(1, n_iter + 1):
        a_k, abar_k, b_k, bt_k = gains_at(config.gains, k)

        g_sum = np.zeros(p, dtype=dtype)
        h_sum = 0.0 if (not preconditioned or config.scalar) else np.zeros((p, p), dtype=dtype)
        for _ in range(config.resampling):
            delta_vec = sample_perturbation(p, config.field, rng)
            g, pair = gradient_estimate(f, z, b_k, delta_vec)
            g_sum += g
            if config.method == "second_order":
                delta_tilde = sample_perturbation(p, config.field, rng)
                if config.scalar:
                    d2 = second_difference(f, z, b_k, bt_k, delta_vec, delta_tilde, pair)
                    h_sum += scalar_preconditioner(d2, b_k, bt_k, "second_order")
                else:
                    h_sum += hessian_estimate(f, z, b_k, bt_k, delta_vec, delta_tilde, pair)
            elif config.method == "quantum_natural":
                delta_tilde = sample_perturbation(p, config.field, rng)
                if config.scalar:
                    d2 = metric_second_difference(fid, z, b_k, bt_k, delta_vec, delta_tilde)
                    h_sum += scalar_preconditioner(d2, b_k, bt_k, "quantum_natural")
                else:
                    h_sum += metric_estimate(fid, z, b_k, bt_k, delta_vec, delta_tilde)
        g = g_sum / config.resampling

        if preconditioned:
            h_raw = h_sum / config.resampling
            if not np.all(np.isfinite(h_raw)):
                trace.diverged_at, trace.diverged_reason = k, "estimate"
                break
            post = postprocess_spall if config.postproc == "spall" else postprocess_gidi
            preconditioner = post(h_raw, state, epsilon)
            candidate = step_preconditioned(z, abar_k, g, preconditioner)
            step = z - candidate
        else:
            candidate = step_first_order(z, a_k, g)
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
