"""The three benchmark problems packaged as shot-noisy objective oracles.

Every problem is natively parameterized by a flat complex vector; real-field
optimizers see the same problem through an interleaved (Re, Im) adapter, so
both fields optimize exactly the same landscape.  ``shots=math.inf`` makes
any oracle exact.

Uniform problem interface
-------------------------
Each problem class implements the ``Problem`` protocol: ``materialize`` and
``initial_point`` draw the per-run random inputs, ``exact_minimum`` gives the
known lower bound of the objective, ``state`` builds the state of a parameter
vector, or one state per row of a stack of them, and ``measure`` estimates
the objective of a state from shots.  ``make_oracles`` builds every
problem's objective, fidelity and monitor from these methods alone, so a new
workload is one new class; once the fidelity's ``prepare`` has run, one memo
of the last resample's states serves all three, and a quantum-natural
resample builds the states it lacks as one stack.

Construction contract
---------------------
A problem constructor either raises ``ValueError`` or builds a problem on
which one iteration of every method runs to a well-formed trace, given the
memory its size needs.  Every field is checked in ``__post_init__``: a
count is an int or numpy integer, not a bool, within its bounds
(`estimators._count`); a shot budget is read by ``quantum._shot_count``;
and the size rule (``_require_common``) caps every problem at
``MAX_DENSE_QUBITS`` = 12 qubits and 2^12 parameters, SGQT's parameter
count at that cap, because the problems use dense operators and the
preconditioned methods hold p × p matrices, 268 MB each at 13 qubits or
2^12 parameters.  A given state, GRAPE's ``psi0`` or SGQT's
``unknown``, is stored as a read-only complex128 copy of shape (2^n,),
finite and nonzero, and SGQT's of unit norm within 1e-12 (``_given_state``).
VQE's couplings must keep the sum of the Hamiltonian's |coefficients|
finite, which bounds every matrix entry and every eigenvalue.
"""

import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, NamedTuple, Protocol

import numpy as np

from .estimators import COMPLEX, FIELDS, REAL, _count, complex_from_interleaved
from .linalg import one_blas_thread
from .quantum import (
    MAX_DENSE_QUBITS,
    PauliTermSum,
    _basis_bits,
    _kron_halves,
    _read_only,
    _shot_count,
    exact_ground_energy,
    expectation_with_shots,
    fidelity_with_shots,
    haar_random_state,
    heisenberg_hamiltonian,
    w_gate,
)

__all__ = [
    "Problem",
    "VqeProblem",
    "GrapeProblem",
    "SgqtProblem",
    "Oracles",
    "entangling_layer",
    "vqe_state",
    "grape_final_state",
    "make_oracles",
    "exact_minimum",
]


class Problem(Protocol):
    """What the benchmark harness needs of a workload.

    ``shots``, a positive integer or ``math.inf`` (exact), is the shot budget
    of each objective and fidelity evaluation.  A problem dataclass reaches
    the ``spsakit`` command line through one row of ``cli.APPLICATIONS``:
    each field a problem flag names (``--qubits`` names ``n_qubits``) becomes
    an option with the field's default.

    Fields are checked at construction, in ``__post_init__``, under the
    module's construction contract: a problem that constructs runs one
    iteration of every method to a well-formed trace, so a bad value fails
    before any run, not inside one.  Given states are stored as read-only
    copies.  The size caps, ``MAX_DENSE_QUBITS`` qubits and
    2^``MAX_DENSE_QUBITS`` parameters, hold because the problems build dense
    operators and the preconditioned methods hold p × p matrices.
    """

    shots: float

    def materialize(self, rng) -> "Problem":
        """The problem with any per-run random inputs drawn from ``rng``."""

    def initial_point(self, rng) -> np.ndarray:
        """The complex initial parameter vector of one run."""

    def exact_minimum(self) -> float:
        """Known lower bound of the objective."""

    def state(self, z) -> np.ndarray:
        """The normalized state of the complex parameter vector ``z``.

        ``z`` may have leading axes, a stack of parameter vectors in its
        rows; the result then has the same leading axes and one state per
        row, each bit for bit the state of its row built alone.
        ``make_oracles`` builds the points of a quantum-natural resample
        as one stack.
        """

    def measure(self, psi, shots, rng=None) -> float:
        """The objective of the state ``psi`` from ``shots`` samples; NaN for a
        state with NaN amplitudes."""


def _require_common(problem, size_field, parameters):
    """The rules every problem shares: a shot budget that `_shot_count` reads,
    and the size rule, at most ``MAX_DENSE_QUBITS`` qubits and at most
    2^``MAX_DENSE_QUBITS`` parameters, SGQT's parameter count at that cap.
    VQE's exact minimum diagonalizes dense popcount blocks of the
    Hamiltonian (``exact_ground_energy``), GRAPE's sector generators and
    propagators are dense 2^(n−1) × 2^(n−1) complex matrices, and the
    preconditioned methods hold p × p matrices: 268 MB each at 13 qubits or
    at 2^12 parameters.  ``parameters(n)`` is the parameter count at n
    qubits; it is called only once n is known to be within the cap.  An
    error on it names ``size_field``, the field the count grows with."""
    if _count("n_qubits", problem.n_qubits, 1) > MAX_DENSE_QUBITS:
        raise ValueError(f"at most {MAX_DENSE_QUBITS} qubits (dense), got {problem.n_qubits}")
    _count(f"{size_field}: the parameter count", parameters(problem.n_qubits), 1,
           2**MAX_DENSE_QUBITS)
    _shot_count(problem.shots)


def _given_state(state, n_qubits, name, unit_norm=False):
    """The state rule: a given ``state`` as a read-only complex128 copy of
    shape (2^n,), finite and nonzero and, if ``unit_norm``, of unit norm
    within 1e-12, a roundoff bound; None stays None."""
    if state is None:
        return None
    given = np.asarray(state)
    if given.dtype.kind not in "biufc" or given.shape != (2**n_qubits,):
        raise ValueError(f"{name}: need {2**n_qubits} amplitudes, got {given.dtype} {given.shape}")
    copy = _read_only(given.astype(np.complex128))
    norm = np.linalg.norm(copy)
    if not (abs(norm - 1.0) <= 1e-12 if unit_norm else 0.0 < norm < math.inf):
        raise ValueError(f"{name} must be finite, nonzero{', of unit norm' if unit_norm else ''}")
    return copy


@dataclass(frozen=True)
class VqeProblem:
    """Ground-energy search for the Heisenberg model with a layered ansatz.

    ``entangler`` selects the entangling layer between single-qubit gate
    layers: ``ccz_ring`` (default) tiles the qubit ring with three-qubit
    doubly-controlled-Z gates, ``cz_ring`` with two-qubit controlled-Z gates.
    """

    n_qubits: int = 10
    layers: int = 1
    j: float = 1.0
    h: float = 0.3
    periodic: bool = True
    shots: float = 2e4
    entangler: str = "ccz_ring"

    def __post_init__(self):
        _require_common(self, "layers", lambda n: n * (_count("layers", self.layers, 0) + 1))
        if self.entangler not in ENTANGLERS:
            raise ValueError(f"unknown entangler {self.entangler!r}")
        # Σ|h_i| bounds every matrix entry and eigenvalue; building the
        # Hamiltonian also applies the ring rule
        if not math.isfinite(sum(abs(c) for c, _ in self._hamiltonian().terms)):
            raise ValueError(f"couplings must give a finite Σ|h_i|, got j={self.j}, h={self.h}")
        if self.layers:
            entangling_layer(self.n_qubits, self.entangler)

    def materialize(self, rng):
        return self

    def initial_point(self, rng):
        p = self.n_qubits * (self.layers + 1)
        return (rng.standard_normal(p) + 1j * rng.standard_normal(p)) / math.sqrt(2.0)

    def exact_minimum(self):
        """The exact ground energy, computed with numpy's OpenBLAS on one
        thread (`one_blas_thread`), so that its last bits do not depend on
        the thread count of the environment."""
        with one_blas_thread():
            return exact_ground_energy(self._hamiltonian())

    def state(self, z):
        return vqe_state(self, z)

    def measure(self, psi, shots, rng=None):
        """Energy of ``psi`` from ``shots`` samples per Pauli term."""
        return expectation_with_shots(psi, self._hamiltonian(), shots, rng)

    def _hamiltonian(self):
        return _heisenberg(self.n_qubits, self.j, self.h, self.periodic)


@dataclass(frozen=True, eq=False)
class GrapeProblem:
    """Piecewise-constant control of Heisenberg couplings toward |0…0⟩.

    Each of the ``slices`` slices lasts ``dt`` = 1.  ``psi0=None`` means
    ``materialize`` draws a Haar-random initial state per run; a given one
    must be a finite nonzero vector of 2**n_qubits amplitudes, and is stored
    as a read-only complex128 copy.
    """

    n_qubits: int = 5
    slices: int = 25
    periodic: bool = False
    shots: float = 2**13
    psi0: np.ndarray | None = None

    dt = 1.0  # the slice duration: a class constant, not a field

    def __post_init__(self):
        _require_common(self, "slices", lambda n: 3 * _count("slices", self.slices, 1))
        _heisenberg(self.n_qubits, 1.0, 0.0, self.periodic)  # the ring rule
        object.__setattr__(self, "psi0", _given_state(self.psi0, self.n_qubits, "psi0"))

    def materialize(self, rng):
        if self.psi0 is None:
            return replace(self, psi0=haar_random_state(self.n_qubits, rng))
        return self

    def initial_point(self, rng):
        return np.zeros(3 * self.slices, dtype=np.complex128)

    def exact_minimum(self):
        return 0.0

    def state(self, z):
        if np.ndim(z) > 1:
            return _row_by_row(self.state, z)
        return grape_final_state(self, z)

    def measure(self, psi, shots, rng=None):
        """Infidelity 1 − |⟨0…0|ψ⟩|² from ``shots`` samples."""
        target = np.zeros(2**self.n_qubits, dtype=np.complex128)
        target[0] = 1.0
        return 1.0 - fidelity_with_shots(target, psi, shots, rng)


@dataclass(frozen=True, eq=False)
class SgqtProblem:
    """Pure-state estimation by direct minimization of measured infidelity.

    The parameters are the amplitudes of the guess, up to scale: ``state``
    normalizes them.  ``unknown=None`` means ``materialize`` draws a
    Haar-random unknown state per run; a given one must be a vector of
    2**n_qubits amplitudes whose norm is 1 within 1e-12, a roundoff bound,
    and is stored as a read-only complex128 copy.
    """

    n_qubits: int = 6
    shots: float = 2e4
    unknown: np.ndarray | None = None

    def __post_init__(self):
        _require_common(self, "n_qubits", lambda n: 2**n)
        # a longer vector's clamped overlap would read infidelity 0 at other guesses
        unknown = _given_state(self.unknown, self.n_qubits, "unknown", unit_norm=True)
        object.__setattr__(self, "unknown", unknown)

    def materialize(self, rng):
        if self.unknown is None:
            return replace(self, unknown=haar_random_state(self.n_qubits, rng))
        return self

    def initial_point(self, rng):
        return haar_random_state(self.n_qubits, rng)

    def exact_minimum(self):
        return 0.0

    def state(self, z):
        amps = np.asarray(z, dtype=np.complex128)
        if amps.ndim > 1:
            return _row_by_row(self.state, amps)
        if amps.size != 2**self.n_qubits:
            raise ValueError(f"expected {2**self.n_qubits} amplitudes")
        # what np.linalg.norm computes for a complex vector, bit for bit,
        # without its dispatch cost
        re, im = amps.real, amps.imag
        norm = math.sqrt(re.dot(re) + im.dot(im))
        if norm == 0.0:
            raise ValueError("guess amplitudes must not be the zero vector")
        return amps / norm

    def measure(self, psi, shots, rng=None):
        """Infidelity 1 − |⟨unknown|ψ⟩|² from ``shots`` samples."""
        if self.unknown is None:
            raise ValueError("SgqtProblem.unknown is unset; materialize the problem first")
        return 1.0 - fidelity_with_shots(self.unknown, psi, shots, rng)


def _row_by_row(build, z):
    """The states of a stack ``z`` of parameter vectors, one ``build`` call
    per row, with ``z``'s leading axes."""
    z = np.asarray(z)
    states = [build(row) for row in z.reshape(-1, z.shape[-1])]
    return np.stack(states).reshape(z.shape[:-1] + (-1,))


# ---------------------------------------------------------------------------
# VQE


ENTANGLERS = ("ccz_ring", "cz_ring")


@lru_cache(maxsize=64)
def entangling_layer(n: int, kind: str = "ccz_ring"):
    """Diagonal of the entangling layer (both kinds are computational-basis
    diagonal), entries ±1 of length 2**n, read-only.

    ``cz_ring`` places controlled-Z gates on qubit pairs (q, q+1 mod n);
    ``ccz_ring`` places doubly-controlled-Z gates on consecutive triples
    (q, q+1, q+2 mod n).  Duplicate gate supports from the ring closure are
    applied once, so a two-qubit layer is a single CZ for either kind.  Every
    gate is an involution and all commute, hence the layer squares to the
    identity.
    """
    if n < 2:
        raise ValueError("entangling layer needs at least 2 qubits")
    if kind not in ENTANGLERS:
        raise ValueError(f"unknown entangler {kind!r}")
    if kind == "ccz_ring" and n > 2:
        groups = {tuple(sorted({q % n, (q + 1) % n, (q + 2) % n})) for q in range(n)}
    else:
        groups = {tuple(sorted({q % n, (q + 1) % n})) for q in range(n)}
    bits = _basis_bits(n)
    parity = sum(bits[list(qubits)].all(axis=0) for qubits in groups) % 2
    return _read_only(np.where(parity, -1.0, 1.0).astype(np.complex128))


@lru_cache(maxsize=64)
def _heisenberg(n, j, h, periodic):
    return heisenberg_hamiltonian(n, j, h, periodic)


def vqe_state(prob: VqeProblem, z):
    """Build the ansatz state: alternating single-qubit W layers and entanglers.

    Layer l of the parameter vector occupies ``z[..., l*n:(l+1)*n]``.  One
    closed-form call gives all W gates, and one batched pass the Kronecker
    factors A_l and B_l of every layer's two qubit halves (``_kron_halves``).
    The state is the 2^⌈n/2⌉ × 2^⌊n/2⌋ matrix Ψ whose row index is the
    first ⌈n/2⌉ qubits, so ``Ψ.ravel()`` is the state with no reordering:
    the first layer acts on |0…0⟩, so Ψ is the outer product of the first
    columns of A_0 and B_0, and each later layer maps Ψ to A_l (E ∘ Ψ) B_lᵀ,
    with E the entangler's diagonal reshaped to Ψ's shape.

    ``z`` may have leading axes, flattened into one batch axis: the result
    then has the same leading axes and one state per row.  The gates and
    Kronecker factors are elementwise and the batched matrix products run
    one GEMM per matrix, so each row is bit for bit the state of that row
    built alone.
    """
    n, d = prob.n_qubits, prob.layers
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim == 0 or z.shape[-1] != n * (d + 1):
        raise ValueError(f"expected {n * (d + 1)} complex parameters per state, "
                         f"got shape {z.shape}")
    a, b = _kron_halves(w_gate(z).reshape(-1, n, 2, 2))
    a = a.reshape((-1, d + 1) + a.shape[1:])
    b = b.reshape((-1, d + 1) + b.shape[1:])
    psi = a[:, 0, :, :1] * b[:, 0, None, :, 0]
    for layer in range(1, d + 1):
        psi = (a[:, layer] @ (entangling_layer(n, prob.entangler).reshape(psi.shape[1:]) * psi)
               @ b[:, layer].swapaxes(-1, -2))
    return psi.reshape(z.shape[:-1] + (-1,))


# ---------------------------------------------------------------------------
# GRAPE


@lru_cache(maxsize=16)
def _bond_sectors(n, periodic):
    """GRAPE's operator table: the three coupling operators
    B_k = Σ_{<a,b>} σᵏ_a σᵏ_b of ``_heisenberg(n, 1, 0, periodic)``,
    k = x, y, z, by parity sector, and their row-sum norm table.

    Every σᵏ_a σᵏ_b flips zero or two bits, so each B_k commutes with the
    parity ∏Z: it has no entries between basis states of even and odd
    popcount.  Each also commutes with the global flip ∏X, which for odd n
    maps the even-popcount states one-to-one onto the odd-popcount ones.

    Returns read-only ``(index, generators, triples, counts)``.
    ``generators`` is the complex (3, nb·h·h) right factor of the slice
    generators' GEMM, h = 2^(n−1): ``generators.reshape(3, nb, h, h)[k, b]``
    is B_k on the b-th distinct parity sector, built by
    ``PauliTermSum.block`` (real, and bit for bit the same entries of the
    dense B_k), so no 2^n × 2^n operator is formed.  ``index`` has shape
    (nb, h, 2 // nb) and lists, for block b, the basis states its rows act
    on, so that ``psi[index]`` gathers a state into columns each block
    multiplies at once.

    For even n the two sectors differ: nb = 2, block 0 acts on the
    even-popcount states and block 1 on the odd ones, both in ascending
    order.  For odd n the odd sector is ordered as the complements
    i ^ (2^n − 1) of the even states; since ∏X commutes with every B_k, both
    sector blocks are then the same matrix, so nb = 1 and the even and odd
    amplitudes are the two columns of one (h, 2) array.

    ``triples`` and ``counts`` are the distinct rows of the sector blocks.
    Entry (i, j) of a sector generator is c·t, with c the slice's three
    scaled couplings and t = (B_x, B_y, B_z)[i, j] one of a few distinct
    integer triples, so a row's sum Σ_j |c·t| is Σ_t count·|c·t| over the
    triples of that row.  ``triples`` is the complex (3, K) array of the
    distinct triples, zero included where a row has zeros, and ``counts``
    the float (K, R) array whose column r counts each triple in the r-th
    distinct row type, so that ``(np.abs(c @ triples) @ counts).max()`` is
    the largest row-sum norm of the slices whose couplings are the rows of
    ``c``.
    """
    states = np.arange(2**n)
    popcount = _basis_bits(n).sum(axis=0)
    even = states[popcount % 2 == 0]
    if n % 2:
        index = np.stack([even, even ^ (2**n - 1)], axis=-1)[None]
        sectors = [even]
    else:
        sectors = [even, states[popcount % 2 == 1]]
        index = np.stack(sectors)[:, :, None]
    terms = _heisenberg(n, 1.0, 0.0, periodic).terms
    blocks = np.empty((3, len(sectors), even.size, even.size), dtype=np.complex128)
    for k, pauli in enumerate("XYZ"):
        bond = PauliTermSum(n, tuple(t for t in terms if pauli in t[1]))
        for b, sector in enumerate(sectors):
            blocks[k, b] = bond.block(sector)
    # the (B_x, B_y, B_z) triples of each row, counted in Python: building
    # the table with np.unique on rows raised a 5-qubit GRAPE process's peak
    # RSS by about 1 MB
    entries = blocks.real.reshape(3, -1, even.size).transpose(1, 2, 0).tolist()
    rows = [Counter(map(tuple, row)) for row in entries]
    triples = sorted(set().union(*rows))
    types = sorted({tuple(row[t] for t in triples) for row in rows})
    return (_read_only(index), _read_only(blocks.reshape(3, -1)),
            _read_only(np.array(triples, dtype=np.complex128).T.copy()),
            _read_only(np.array(types, dtype=np.float64).T.copy()))


# The degree-18 Taylor polynomial T18 of Bader, Blanes & Casas (2019,
# Mathematics 7:1174) in five products.  Row i holds the coefficients of
# B_{i+1} on (I, A, A², A³, A⁶); then A9 = B1·B5 + B4 and
# T18 = B2 + (B3 + A9)·A9 = Σ_{k≤18} A^k/k! up to the rounding of these
# decimals (the coefficient test multiplies them out exactly).
_T18 = _read_only(np.array([
    [0.0, -0.10036558103014462001, -0.00802924648241156960, -0.00089213849804572995, 0.0],
    [0.0, 0.39784974949964507614, 1.36783778460411719922, 0.49828962252538267755,
     -0.00063789819459472463],
    [-10.9676396052962062593, 1.68015813878906197182, 0.05717798464788655127,
     -0.00698210122488052084, 0.00003349750170860705],
    [-0.09043168323908105619, -0.06764045190713819075, 0.06759613017704596460,
     0.02955525704293155274, -0.00001391802575160607],
    [0.0, 0.0, -0.09233646193671185927, -0.01693649390020817171, -0.00001400867981820361],
]))
# B1, B4, B5 (for A9) and B2, B3 (for T18): each one real GEMM on the powers
_T18_A9 = _read_only(_T18[[0, 3, 4]])
_T18_OUT = _read_only(_T18[[1, 2]])
# Scaled norms up to θ18 keep the Taylor tail Σ_{k≥19} θ^k/k! within
# Σ_{k≥13} 1/k! ≈ 1.73e-10, the tail of a degree-12 sum at norm 1; θ18 is
# the largest such θ to four decimals.
_THETA_18 = 2.4126
# Norms above θ18·2^_MAX_SQUARINGS give NaN.
_MAX_SQUARINGS = 60


def _expm_stack(a, norm):
    """exp(A_m) for a stack of small square complex matrices, batched over the leading axis.

    The degree-18 Taylor polynomial T18 of Bader, Blanes & Casas (2019,
    *Mathematics* 7:1174) with scaling and squaring; much faster than
    per-slice scipy.linalg.expm at the sizes used here.  One squaring count
    s serves the whole stack: the smallest with ν·2^−s ≤ θ18 = 2.4126,
    where ``norm`` is ν, the largest row-sum norm of the stack, which the
    caller computes once and also uses for GRAPE's rescaling.  With ν =
    m·2^e (½ ≤ m < 1, from ``math.frexp``) and ½ ≤ θ18/4 < 1, s is e − 2 for
    m ≤ θ18/4 and e − 1 otherwise, at least 0.  The Taylor remainder at
    a scaled norm ≤ θ18 is at most Σ_{k≥19} θ18^k/k! ≤ Σ_{k≥13} 1/k! ≈
    1.73e-10 relative, and each squaring roughly doubles the error, so the
    bound is about 2^s·1.73e-10.  Measured against scipy.linalg.expm on the
    16 × 16 GRAPE blocks of ``test_expm_stack_matches_scipy``: a relative
    error of 3.0e-16 at norm 1, 8.9e-16 at 8, 4.0e-15 at 32, 1.4e-14 at 64
    and 4.1e-14 at 256; for the 1 × 1 stack [−i·2^20], 2.2e-6.  A stack whose
    norm is non-finite or needs more than ``_MAX_SQUARINGS`` squarings gives
    NaN, which the GRAPE oracles report as a diverged evaluation.

    The 5 + s batched matrix products are A², A³, A⁶, B1·B5, (B3 + A9)·A9
    and s squarings.  Besides them the kernel makes a few passes over the
    stack: the scaling multiplies by 2^−s, which is exact and bit-identical
    to dividing by 2^s; (B1, B4, B5) and then (B2, B3) are each one real
    GEMM of their coefficients on the float view of (A, A², A³, A⁶), and
    the identity terms of B4 and B3, the only nonzero ones, one update of
    the stacked diagonals each; and three additions form A9, B3 + A9 and
    T18.
    """
    if not math.isfinite(norm):
        return np.full_like(a, np.nan)
    mantissa, exponent = math.frexp(norm)
    squarings = max(0, exponent - 1 - (mantissa <= _THETA_18 / 4))
    if squarings > _MAX_SQUARINGS:
        return np.full_like(a, np.nan)
    # All work arrays come from one block.  At 5 qubits, some 30 separate
    # 100 KB temporaries could be trimmed from the heap top and faulted back
    # in on every call, depending on the heap layout: 170 page faults and 30%
    # of a build on a 2-core x86-64 machine.  glibc serves an 800 KB block
    # from the heap without trimming it once the first one has been freed.
    work = np.empty((8,) + a.shape, dtype=np.complex128)
    a1, a2, a3, a6, b1, b4, b5, a9 = work
    np.multiply(a, 2.0**-squarings, out=a1)
    np.matmul(a1, a1, out=a2)
    np.matmul(a2, a1, out=a3)
    np.matmul(a3, a3, out=a6)
    # A9 = B1·B5 + B4, with (B1, B4, B5) in adjacent slots
    _combine(_T18_A9, work)
    np.matmul(b1, b5, out=a9)
    a9 += b4
    # T18 = B2 + (B3 + A9)·A9, with (B2, B3) in the slots of B1 and B4
    b2, b3 = b1, b4
    _combine(_T18_OUT, work)
    b3 += a9
    out, spare = np.matmul(b3, a9, out=b5), a9
    out += b2
    for _ in range(squarings):
        out, spare = np.matmul(out, out, out=spare), out
    return out


def _combine(coeffs, work):
    """Write Σ_j coeffs[i, j]·P_j, P = (I, A, A², A³, A⁶), to ``work[4 + i]``,
    with A…A⁶ in ``work[:4]``.

    Complex powers times real coefficients are one GEMM on the float view.
    A real identity term goes on the real parts of the diagonals, every
    2(h + 1)-th float of each flattened h × h block, and only where it is
    nonzero: in a 25-slice 16 × 16 build, adding to every complex diagonal
    of the three and the two slots took 9 and 7 µs, and this 4 each.
    """
    rows, h = len(coeffs), work.shape[-1]
    slots = work[4:4 + rows]
    powers = work[:4].reshape(4, -1).view(np.float64)
    np.matmul(coeffs[:, 1:], powers, out=slots.reshape(rows, -1).view(np.float64))
    for slot, identity in zip(slots, coeffs[:, 0]):
        if identity:
            diagonal = slot.reshape(-1, h * h).view(np.float64)[:, ::2 * (h + 1)]
            np.add(diagonal, identity, out=diagonal)


# ln of the factor by which GRAPE's state norm may grow or shrink between two
# rescalings.  ‖ψ‖² then stays within e^{±600} of 1, a factor of about 1e47
# inside the normal doubles (e^{-708.4} to e^{709.8}), which leaves room for
# the 2^n terms of its sum and for an initial state of norm within 1e20 of 1.
_MAX_GROWTH = 300.0


def grape_final_state(prob: GrapeProblem, controls):
    """Evolve psi0 through the M piecewise-constant slices and normalize.

    Slice m uses the three complex couplings ``controls[3m:3m+3]`` as written
    in the control Hamiltonian, so the generator is complex symmetric rather
    than hermitian: imaginary control parts drive non-unitary amplitude
    shaping.  Only the final direction matters (and hence any fidelity), so
    the state is rescaled only as often as the float range needs.  Each
    sector generator block A_m is complex symmetric, so ‖A_m‖₂ ≤ ‖A_m‖∞ ≤ ν,
    the largest row-sum norm of the stack, and every slice changes ‖ψ‖ by a
    factor between e^{−ν} and e^{ν}.  The state is therefore rescaled to
    unit norm after every k = max(1, ⌊L/ν⌋) slices, L = ``_MAX_GROWTH``, and
    after the last; ν = 0 leaves only the final normalization, and a stack
    with ν ≥ L is rescaled after every slice.  Floating point is
    scale-invariant away from overflow and underflow, so the result equals
    that of normalizing after every slice up to roundoff.  A zero or
    non-finite norm at any rescaling gives the all-NaN state, as does a
    propagator stack that ``_expm_stack`` reports as NaN.

    Every generator is block diagonal in the parity sectors of
    ``_bond_sectors``, so the propagation never forms a 2^n × 2^n matrix.
    All M·nb sector generators are one (M × 3) @ (3 × nb·h·h) GEMM of the
    scaled couplings against that table, and are exponentiated in one
    ``_expm_stack`` call.  Its row-sum norm ν, shared with the rescaling
    rule, and hence its squaring count equal those of the full generators.
    ν is read from the norm table of ``_bond_sectors`` rather than from the
    stack: each entry is the slice's scaled couplings times one of a few
    integer triples, so ν is the largest over slices and distinct row types
    of Σ count·|c·t|, two small GEMMs in place of a pass over all M·nb·h·h
    entries.  It equals the stack's row-sum norm up to a few ulps, from the
    order of the sums, and is non-finite exactly where that norm is.  The
    state is gathered into its sector columns, each slice is one batched
    product ``u @ psi``, and the result is scattered back to the
    computational basis order.
    """
    controls = np.asarray(controls, dtype=np.complex128)
    if controls.size != 3 * prob.slices:
        raise ValueError(f"expected {3 * prob.slices} complex controls, got {controls.size}")
    if prob.psi0 is None:
        raise ValueError("GrapeProblem.psi0 is unset; materialize the problem first")
    index, generators, triples, counts = _bond_sectors(prob.n_qubits, prob.periodic)
    nb, h = index.shape[:2]
    # exp(-i dt H_m) with H_m = -(1/2) sum_k J_k B_k
    couplings = (0.5j * prob.dt) * controls.reshape(prob.slices, 3)
    stack = (couplings @ generators).reshape(-1, h, h)
    nu = float((np.abs(couplings @ triples) @ counts).max())
    propagators = _expm_stack(stack, nu).reshape(prob.slices, nb, h, h)
    # ν = 0 needs only the final normalization, and a non-finite ν has given
    # NaN propagators, which the final rescaling catches; L/ν is capped before
    # the conversion because it is inf for a subnormal ν
    every = prob.slices
    if 0.0 < nu < math.inf:
        every = max(1, int(min(_MAX_GROWTH / nu, every)))
    psi = prob.psi0[index]
    for start in range(0, prob.slices, every):
        for u in propagators[start:start + every]:
            psi = u @ psi
        norm = math.sqrt(np.vdot(psi, psi).real)
        if not 0.0 < norm < math.inf:
            return np.full_like(prob.psi0, np.nan)
        # a real product on the float view: cheaper than a complex division
        # and bit-identical to psi /= norm, a product with the reciprocal
        floats = psi.view(np.float64)
        floats *= 1.0 / norm
    out = np.empty_like(prob.psi0)
    out[index] = psi
    return out


# ---------------------------------------------------------------------------
# Uniform problem interface used by the benchmark harness


class Oracles(NamedTuple):
    objective: Callable
    fidelity: Callable
    monitor: Callable


def exact_minimum(problem: Problem):
    """Known lower bound of the problem's objective."""
    return problem.exact_minimum()


def make_oracles(problem: Problem, rng, field: str = COMPLEX) -> Oracles:
    """Build (objective, fidelity, monitor) callables over the chosen field.

    The objective measures the state of its argument and the fidelity
    estimates |⟨ψ(za)|ψ(zb)⟩|², both from ``problem.shots`` shots drawn from
    the given rng; the monitor measures exactly and draws nothing.  Real-field
    oracles read parameters as interleaved (Re, Im) pairs and hand
    ``problem.state`` their complex view (`complex_from_interleaved`).

    Every oracle builds its states directly until the fidelity's
    ``prepare(points)`` attribute first runs, the one switch, and from then
    on takes them from one rng-free memo of read-only states, keyed by the
    parameter bytes in the field's dtype, which for interleaved reals are
    the complex parameter bytes.  The memo keeps what a run needs next:
    each ``prepare`` keeps exactly the states of the rows of ``points``,
    reusing those the memo holds and dropping the rest, and builds the
    states it lacks in one ``problem.state`` call on the stack of those
    rows; a state built after a ``prepare`` stays until the next one.
    ``prepare`` draws nothing and is charged to no budget.  `run` calls it
    once per quantum-natural resample, through `estimators.resample`, with
    z, z ± b_kΔ and z ± b_kΔ + b_kΔ̃, the points that resample's oracle
    calls then evaluate.  The metric estimate pins the
    fidelity's first argument at the iterate, which the monitor built at
    the end of the previous iteration, and shares z ± b_kΔ with the
    gradient estimate, so a quantum-natural iteration builds 5 states, 4 of
    them in one stack, where building each evaluation's states would take
    11, with the same values and random draws; the memo then holds at most
    6 states, the resample's 5 and the blocking candidate's or the
    monitor's iterate's.  Runs that never call ``prepare`` never form a
    key.  ``prepare`` raises ``ValueError`` when ``problem.state`` does not
    return one state per row of a stack.
    """
    if field not in FIELDS:
        raise ValueError(f"unknown field {field!r}")
    dtype = FIELDS[field]
    state, measure, shots = problem.state, problem.measure, problem.shots
    if field == REAL:
        state = lambda theta: problem.state(complex_from_interleaved(theta))
    kept = {}  # parameter bytes -> state: the last prepare's and those built since

    def memo(z):
        key = np.asarray(z, dtype=dtype).tobytes()
        psi = kept.get(key)
        if psi is None:
            psi = kept[key] = state(z)
            psi.flags.writeable = False
        return psi

    def prepare(points):
        nonlocal build, kept
        build = memo
        points = np.asarray(points, dtype=dtype)
        previous, kept = kept, {}
        missing = {}  # parameter bytes -> the first row that has them
        for i, row in enumerate(points):
            key = row.tobytes()
            if key in previous:
                kept[key] = previous[key]
            else:
                missing.setdefault(key, i)
        if not missing:
            return
        states = state(points[list(missing.values())])
        if states.shape[:-1] != (len(missing),):
            raise ValueError(f"Problem.state returned shape {states.shape} for a stack of "
                             f"{len(missing)} parameter vectors; it must return one state "
                             "per row")
        states.flags.writeable = False
        kept.update(zip(missing, states))

    build = state  # how every oracle builds a state: directly until prepare runs

    def fid(za, zb):
        return fidelity_with_shots(build(za), build(zb), shots, rng)

    fid.prepare = prepare
    obj = lambda z: measure(build(z), shots, rng)
    mon = lambda z: measure(build(z), math.inf)
    return Oracles(objective=obj, fidelity=fid, monitor=mon)
