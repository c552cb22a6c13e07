"""Gain schedules, perturbation sampling, and simultaneous-perturbation estimators.

The same estimator code serves both fields.  Perturbation entries always have
unit modulus, so the reciprocals appearing in the estimator definitions are
implemented as plain multiplication: 1/Δ = Δ for real ±1 entries and
1/Δ* = Δ for complex entries drawn from {±1, ±i}.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GainSchedule",
    "GAIN_PRESETS",
    "gains_label",
    "EvaluationBudget",
    "gains_at",
    "sample_perturbation",
    "gradient_estimate",
    "second_difference",
    "hessian_estimate",
    "metric_second_difference",
    "metric_estimate",
    "scalar_preconditioner",
    "complex_from_interleaved",
    "interleave_complex",
]

REAL = "real"
COMPLEX = "complex"
FIELDS = (REAL, COMPLEX)


@dataclass(frozen=True)
class GainSchedule:
    """The five gain parameters controlling the coefficient series.

    ``b_tilde`` defaults to ``b``; the second perturbation size shares the
    decay exponent ``t`` with ``b_k``.
    """

    a: float
    b: float
    A: float = 0.0
    s: float = 0.602
    t: float = 0.101
    b_tilde: float | None = None

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("gain parameters a and b must be positive")
        if self.A < 0 or self.s < 0 or self.t < 0:
            raise ValueError("gain parameters A, s, t must be non-negative")
        if self.b_tilde is not None and self.b_tilde <= 0:
            raise ValueError("b_tilde must be positive when given")


GAIN_PRESETS = {
    "standard": GainSchedule(a=3.0, b=0.1, A=0.0, s=0.602, t=0.101),
    "asymptotic": GainSchedule(a=3.0, b=0.1, A=0.0, s=1.0, t=1.0 / 6.0),
    "static": GainSchedule(a=0.01, b=0.01, A=0.0, s=0.0, t=0.0),
}


def gains_label(gains: GainSchedule) -> str:
    """The name of the preset equal to ``gains``, or its ``--gains`` form a,b,A,s,t."""
    for name, preset in GAIN_PRESETS.items():
        if gains == preset:
            return name
    return f"{gains.a},{gains.b},{gains.A},{gains.s},{gains.t}"


@dataclass
class EvaluationBudget:
    """Monotone counters for oracle calls made by one optimization run."""

    objective_evals: int = 0
    fidelity_evals: int = 0


def gains_at(sched: GainSchedule, k: int):
    """Per-iteration coefficients (a_k, ā_k, b_k, b̃_k) at iteration k ≥ 1.

    a_k = a/(k+A)^s drives first-order steps, ā_k = 1/(k+A)^s drives
    preconditioned steps, and b_k = b/k^t, b̃_k = b̃/k^t set the two
    perturbation magnitudes.
    """
    if k < 1:
        raise ValueError("gain schedules are 1-indexed; k must be >= 1")
    denom = (k + sched.A) ** sched.s
    kt = k**sched.t
    b_tilde = sched.b if sched.b_tilde is None else sched.b_tilde
    return sched.a / denom, 1.0 / denom, sched.b / kt, b_tilde / kt


_COMPLEX_ALPHABET = np.array([1.0, -1.0, 1.0j, -1.0j], dtype=np.complex128)


def sample_perturbation(p: int, field: str, rng: np.random.Generator, m: int | None = None):
    """Draw a length-p perturbation with i.i.d. entries uniform on the field's alphabet.

    Real field: {+1, −1}.  Complex field: {+1, −1, +i, −i}.

    With ``m``, draw m perturbations at once as the rows of an (m, p) array.
    The rows are the m vectors that m successive single draws from ``rng``
    would give, in order, and the block leaves ``rng`` in the same state as
    those draws: one ``integers`` call of shape (m, p) consumes the
    generator's stream exactly as m calls of size p do.
    """
    if p < 1:
        raise ValueError("perturbation dimension must be >= 1")
    if m is not None and m < 1:
        raise ValueError("perturbation block size must be >= 1")
    size = p if m is None else (m, p)
    if field == REAL:
        return rng.integers(0, 2, size=size) * 2.0 - 1.0
    if field == COMPLEX:
        return _COMPLEX_ALPHABET[rng.integers(0, 4, size=size)]
    raise ValueError(f"unknown field {field!r}")


def gradient_estimate(f, z, b_k, delta):
    """Two-sided simultaneous-perturbation gradient estimate.

    Returns ``(g, (f_plus, f_minus))``.  The two raw evaluations are part of
    the contract: the Hessian estimator reuses them so that a second-order
    iteration costs exactly four objective evaluations.
    """
    shift = b_k * delta
    f_plus = f(z + shift)
    f_minus = f(z - shift)
    scale = (f_plus - f_minus) / (2.0 * b_k)
    return scale * delta, (f_plus, f_minus)


def second_difference(f, z, b_k, bt_k, delta, delta_tilde, cached_pair):
    """Second difference δ²f reusing the gradient estimator's evaluations.

    Costs exactly two additional objective evaluations.
    """
    f_plus, f_minus = cached_pair
    shift = bt_k * delta_tilde
    return f(z + b_k * delta + shift) - f_plus - f(z - b_k * delta + shift) + f_minus


def hessian_estimate(f, z, b_k, bt_k, delta, delta_tilde, cached_pair):
    """Simultaneous-perturbation Hessian estimate.

    Entrywise δ²f/(2 b_k b̃_k Δ_i Δ̃_j) in the real field and
    δ²f/(2 b_k b̃_k Δ*_i Δ̃_j) in the complex field; both reduce to the outer
    product below because the perturbation entries have unit modulus.
    """
    d2 = second_difference(f, z, b_k, bt_k, delta, delta_tilde, cached_pair)
    return scalar_preconditioner(d2, b_k, bt_k, "second_order") * np.outer(
        delta, np.conj(delta_tilde))


def metric_second_difference(fidelity, z, b_k, bt_k, delta, delta_tilde):
    """Second difference δ²F of the fidelity with the first argument pinned at z.

    Costs exactly four fidelity evaluations and no objective evaluations.
    """
    shift = bt_k * delta_tilde
    return (
        fidelity(z, z + b_k * delta + shift)
        - fidelity(z, z + b_k * delta)
        - fidelity(z, z - b_k * delta + shift)
        + fidelity(z, z - b_k * delta)
    )


def metric_estimate(fidelity, z, b_k, bt_k, delta, delta_tilde):
    """Simultaneous-perturbation estimate of the Fubini-Study metric tensor.

    Entrywise −δ²F/(4 b_k b̃_k Δ_i Δ̃_j), with the conjugated denominator in
    the complex field, written as an outer product as in `hessian_estimate`.
    """
    d2 = metric_second_difference(fidelity, z, b_k, bt_k, delta, delta_tilde)
    return scalar_preconditioner(d2, b_k, bt_k, "quantum_natural") * np.outer(
        delta, np.conj(delta_tilde))


def scalar_preconditioner(d2, b_k, bt_k, kind):
    """Perturbation-free scalar curvature proxy from an existing second difference.

    ``second_order`` maps δ²f to δ²f/(2 b_k b̃_k); ``quantum_natural`` maps
    δ²F to −δ²F/(4 b_k b̃_k).  Downstream post-processing treats the result
    as a 1×1 hermitian matrix.
    """
    if kind == "second_order":
        return d2 / (2.0 * b_k * bt_k)
    if kind == "quantum_natural":
        return -d2 / (4.0 * b_k * bt_k)
    raise ValueError(f"unknown scalar preconditioner kind {kind!r}")


def complex_from_interleaved(theta):
    """View 2p interleaved reals (Re₀, Im₀, Re₁, Im₁, ...) as p complex values."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.size % 2:
        raise ValueError("interleaved real vector must have even length")
    return theta[0::2] + 1.0j * theta[1::2]


def interleave_complex(z):
    """Inverse of `complex_from_interleaved`."""
    z = np.asarray(z, dtype=np.complex128)
    out = np.empty(2 * z.size, dtype=np.float64)
    out[0::2] = z.real
    out[1::2] = z.imag
    return out
