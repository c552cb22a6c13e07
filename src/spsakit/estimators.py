"""Gain schedules, perturbation sampling, and simultaneous-perturbation estimators.

The same estimator code serves both fields.  Perturbation entries always have
unit modulus, so the reciprocals appearing in the estimator definitions are
implemented as plain multiplication: 1/Δ = Δ for real ±1 entries and
1/Δ* = Δ for complex entries drawn from {±1, ±i}.

Each method's estimate is defined once, here; ``scalar=True`` gives the
scalar form of a curvature estimate: its coefficient without ΔΔ̃†.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GainSchedule",
    "GAIN_PRESETS",
    "gains_label",
    "gains_at",
    "sample_perturbation",
    "gradient_estimate",
    "hessian_estimate",
    "metric_estimate",
    "quantum_natural_points",
    "complex_from_interleaved",
    "interleave_complex",
]

REAL = "real"
COMPLEX = "complex"
FIELDS = (REAL, COMPLEX)

# The cap on runs, iterations, resamples and workers: 200 times the paper's
# longest run (5000 iterations) and 10^4 times its ensembles (100 runs).  It
# keeps every array sized from a product of counts, such as an ensemble's
# runs × iterations or a perturbation block's rows × parameters, far inside
# numpy's index range.
MAX_COUNT = 2**20


def _count(name, value, low, high=math.inf):
    """The one count rule: ``value`` as an int if it is an int or numpy
    integer, not a bool, from ``low`` to ``high``; ``ValueError`` otherwise."""
    if type(value) is bool or not isinstance(value, (int, np.integer)) or not low <= value <= high:
        raise ValueError(f"{name} must be an integer from {low} to {high}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class GainSchedule:
    """The five gain parameters controlling the coefficient series.

    Both perturbations have size b_k: the second perturbation size b̃_k of
    the curvature estimates equals b_k, as in the paper.
    """

    a: float
    b: float
    A: float = 0.0
    s: float = 0.602
    t: float = 0.101

    def __post_init__(self):
        if not (0 < self.a < math.inf and 0 < self.b < math.inf):
            raise ValueError("gains a and b must be positive and finite")
        if not all(0 <= v < math.inf for v in (self.A, self.s, self.t)):
            raise ValueError("gains A, s, t must be non-negative and finite")


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


def gains_at(sched: GainSchedule, k: int):
    """Per-iteration coefficients (a_k, ā_k, b_k) at iteration k ≥ 1.

    a_k = a/(k+A)^s drives first-order steps, ā_k = 1/(k+A)^s drives
    preconditioned steps, and b_k = b/k^t is the size of both perturbations.
    """
    if k < 1:
        raise ValueError("gain schedules are 1-indexed; k must be >= 1")
    denom = (k + sched.A) ** sched.s
    return sched.a / denom, 1.0 / denom, sched.b / k**sched.t


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
    _count("perturbation dimension", p, 1)
    if m is not None:
        _count("perturbation block size", m, 1)
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


def hessian_estimate(f, z, b_k, delta, delta_tilde, cached_pair, scalar=False):
    """Simultaneous-perturbation Hessian estimate δ²f/(2 b_k²) · ΔΔ̃†.

    The second difference δ²f reuses the gradient estimator's
    ``cached_pair`` and costs exactly two more objective evaluations.  The
    entries δ²f/(2 b_k² Δ_i Δ̃_j), with Δ*_i in the complex field, form the
    outer product because the perturbation entries have unit modulus.  With
    ``scalar``, the coefficient δ²f/(2 b_k²) alone: a 1×1 hermitian matrix.
    """
    f_plus, f_minus = cached_pair
    shift = b_k * delta_tilde
    d2 = f(z + b_k * delta + shift) - f_plus - f(z - b_k * delta + shift) + f_minus
    coefficient = d2 / (2.0 * b_k * b_k)
    return coefficient if scalar else coefficient * np.outer(delta, np.conj(delta_tilde))


def metric_estimate(fidelity, z, b_k, delta, delta_tilde, scalar=False):
    """Simultaneous-perturbation Fubini-Study metric estimate −δ²F/(4 b_k²) · ΔΔ̃†.

    The second difference δ²F of the fidelity, its first argument pinned at
    z, costs exactly four fidelity evaluations and no objective evaluations.
    With ``scalar``, the coefficient −δ²F/(4 b_k²) alone, as in
    `hessian_estimate`.
    """
    shift = b_k * delta_tilde
    plus, minus = z + b_k * delta, z - b_k * delta
    d2 = (fidelity(z, plus + shift) - fidelity(z, plus)
          - fidelity(z, minus + shift) + fidelity(z, minus))
    coefficient = -d2 / (4.0 * b_k * b_k)
    return coefficient if scalar else coefficient * np.outer(delta, np.conj(delta_tilde))


def quantum_natural_points(z, b_k, delta, delta_tilde):
    """The (5, p) stack of the points one quantum-natural resample evaluates:
    z, z + b_kΔ, z − b_kΔ, z + b_kΔ + b_kΔ̃ and z − b_kΔ + b_kΔ̃.

    Each row is computed as `gradient_estimate` and `metric_estimate`
    compute it, so its bytes equal those of the argument they pass.
    """
    shift = b_k * delta
    plus, minus = z + shift, z - shift
    tilde = b_k * delta_tilde
    return np.array([z, plus, minus, plus + tilde, minus + tilde])


def complex_from_interleaved(theta):
    """View 2p interleaved reals (Re₀, Im₀, Re₁, Im₁, ...) as p complex values,
    sharing ``theta``'s memory unless it has to be copied into a contiguous
    float64 array first.  Leading axes are kept, so a stack of interleaved
    vectors in the rows of ``theta`` gives the stack of their complex views.
    Raises ``ValueError`` unless the last axis has even length."""
    theta = np.ascontiguousarray(theta, dtype=np.float64)
    if theta.ndim == 0 or theta.shape[-1] % 2:
        raise ValueError("interleaved real parameters need a last axis of even length")
    return theta.view(np.complex128)


def interleave_complex(z):
    """Inverse of `complex_from_interleaved`: the float64 view of a copy of ``z``."""
    return np.array(z, dtype=np.complex128, ndmin=1).view(np.float64)
