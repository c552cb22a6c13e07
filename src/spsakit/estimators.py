"""Gain schedules, perturbation sampling, and simultaneous-perturbation estimators.

The same estimator code serves both fields.  Perturbation entries always have
unit modulus, so the reciprocals appearing in the estimator definitions are
implemented as plain multiplication: 1/Δ = Δ for real ±1 entries and
1/Δ* = Δ for complex entries drawn from {±1, ±i}.

`resample` is the one place that forms the points of a resample and calls
the oracles on them.  The three estimators are arithmetic on the oracle
values it hands them: `gradient_estimate` returns the gradient estimate,
`hessian_estimate` and `metric_estimate` the real coefficient c of a
curvature estimate c·ΔΔ̃†.  `resample` returns c and nothing larger: the
estimate travels as its coefficients and its Δ, Δ̃ rows, and no p × p
matrix is formed here.
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
    "resample",
    "gradient_estimate",
    "hessian_estimate",
    "metric_estimate",
    "complex_from_interleaved",
    "interleave_complex",
]

REAL = "real"
COMPLEX = "complex"
# Each field and the dtype of its parameters.
FIELDS = {REAL: np.float64, COMPLEX: np.complex128}

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


def resample(method, f, fid, z, b_k, delta, delta_tilde=None, prepare=None):
    """One resample of an iteration's estimates: the one place that forms
    the points z ± b_kΔ and z ± b_kΔ + b_kΔ̃ and calls the oracles on them.

    Returns ``(g, c)``: the gradient estimate and, for ``"second_order"`` or
    ``"quantum_natural"``, the real coefficient c of the Hessian or metric
    estimate c·ΔΔ̃† from the second perturbation ``delta_tilde``; c is None
    for ``"first_order"``.  A preconditioned resample hands ``prepare``, if
    given, the (5, p) stack z, z + b_kΔ, z − b_kΔ, z + b_kΔ + b_kΔ̃,
    z − b_kΔ + b_kΔ̃ before its first oracle call; every point the oracles
    then receive has the bytes of one of its rows.

    The objective ``f`` is called at z + b_kΔ and z − b_kΔ, then, second
    order, at z + b_kΔ + b_kΔ̃ and z − b_kΔ + b_kΔ̃: 2 or 4 calls.  The
    fidelity ``fid``, its first argument pinned at z, is called by the
    quantum-natural method alone, at z + b_kΔ + b_kΔ̃, z + b_kΔ,
    z − b_kΔ + b_kΔ̃ and z − b_kΔ, in this order.
    """
    shift = b_k * delta
    plus, minus = z + shift, z - shift
    if method == "first_order":
        return gradient_estimate(f(plus), f(minus), b_k, delta), None
    tilde = b_k * delta_tilde
    plus_tilde, minus_tilde = plus + tilde, minus + tilde
    if prepare is not None:
        prepare(np.array([z, plus, minus, plus_tilde, minus_tilde]))
    f_plus, f_minus = f(plus), f(minus)
    g = gradient_estimate(f_plus, f_minus, b_k, delta)
    if method == "second_order":
        return g, hessian_estimate(f(plus_tilde), f_plus, f(minus_tilde), f_minus, b_k)
    return g, metric_estimate(fid(z, plus_tilde), fid(z, plus), fid(z, minus_tilde),
                              fid(z, minus), b_k)


def gradient_estimate(f_plus, f_minus, b_k, delta):
    """Two-sided simultaneous-perturbation gradient estimate
    (f(z + b_kΔ) − f(z − b_kΔ))/(2 b_k) · Δ, from the two objective values."""
    return (f_plus - f_minus) / (2.0 * b_k) * delta


def hessian_estimate(f_plus_tilde, f_plus, f_minus_tilde, f_minus, b_k):
    """The coefficient δ²f/(2 b_k²) of the simultaneous-perturbation Hessian
    estimate δ²f/(2 b_k²) · ΔΔ̃†, from the four terms of the second difference
    δ²f = f(z + b_kΔ + b_kΔ̃) − f(z + b_kΔ) − f(z − b_kΔ + b_kΔ̃) + f(z − b_kΔ).

    The entries δ²f/(2 b_k² Δ_i Δ̃_j), with Δ*_i in the complex field, form
    the outer product because the perturbation entries have unit modulus.
    """
    d2 = f_plus_tilde - f_plus - f_minus_tilde + f_minus
    return d2 / (2.0 * b_k * b_k)


def metric_estimate(fid_plus_tilde, fid_plus, fid_minus_tilde, fid_minus, b_k):
    """The coefficient −δ²F/(4 b_k²) of the simultaneous-perturbation
    Fubini-Study metric estimate −δ²F/(4 b_k²) · ΔΔ̃†, from the four fidelity
    terms of δ²F, ordered as `hessian_estimate`'s, each F(z, ·) pinned at z.
    """
    d2 = fid_plus_tilde - fid_plus - fid_minus_tilde + fid_minus
    return -d2 / (4.0 * b_k * b_k)


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
