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
vector and ``measure`` estimates the objective of a state from shots.
``make_oracles`` builds every problem's objective, fidelity and monitor from
these methods alone, so a new workload is one new class.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, NamedTuple, Protocol

import numpy as np

from .estimators import COMPLEX, REAL, complex_from_interleaved
from .quantum import (
    PauliTermSum,
    _apply_product_layer,
    _product_state,
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

    ``shots`` is the per-evaluation shot budget of the objective and of the
    fidelity; ``math.inf`` makes both exact.
    """

    shots: float

    def materialize(self, rng) -> "Problem":
        """The problem with any per-run random inputs drawn from ``rng``."""

    def initial_point(self, rng) -> np.ndarray:
        """The complex initial parameter vector of one run."""

    def exact_minimum(self) -> float:
        """Known lower bound of the objective."""

    def state(self, z) -> np.ndarray:
        """The normalized state of the complex parameter vector ``z``."""

    def measure(self, psi, shots, rng=None) -> float:
        """The objective of the state ``psi`` from ``shots`` samples; NaN for a
        state with NaN amplitudes."""


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

    def materialize(self, rng):
        return self

    def initial_point(self, rng):
        p = self.n_qubits * (self.layers + 1)
        return (rng.standard_normal(p) + 1j * rng.standard_normal(p)) / math.sqrt(2.0)

    def exact_minimum(self):
        """The exact ground energy."""
        return exact_ground_energy(self._hamiltonian())

    def state(self, z):
        return vqe_state(self, z)

    def measure(self, psi, shots, rng=None):
        """Energy of ``psi`` from ``shots`` samples per Pauli term."""
        return expectation_with_shots(psi, self._hamiltonian(), shots, rng)

    def _hamiltonian(self):
        return _vqe_hamiltonian(self.n_qubits, self.j, self.h, self.periodic)


@dataclass(frozen=True, eq=False)
class GrapeProblem:
    """Piecewise-constant control of Heisenberg couplings toward a target state.

    ``psi0=None`` means ``materialize`` draws a Haar-random initial state per
    run; ``target=None`` means the all-zeros state.
    """

    n_qubits: int = 5
    slices: int = 25
    total_time: float | None = None
    periodic: bool = False
    shots: float = 2**13
    psi0: np.ndarray | None = None
    target: np.ndarray | None = None

    @property
    def dt(self) -> float:
        total = self.slices if self.total_time is None else self.total_time
        return total / self.slices

    def materialize(self, rng):
        if self.psi0 is None:
            return replace(self, psi0=haar_random_state(self.n_qubits, rng))
        return self

    def initial_point(self, rng):
        return np.zeros(3 * self.slices, dtype=np.complex128)

    def exact_minimum(self):
        return 0.0

    def state(self, z):
        return grape_final_state(self, z)

    def measure(self, psi, shots, rng=None):
        """Infidelity 1 − |⟨target|ψ⟩|² from ``shots`` samples."""
        if self.target is None:
            target = np.zeros(2**self.n_qubits, dtype=np.complex128)
            target[0] = 1.0
        else:
            target = np.asarray(self.target, dtype=np.complex128)
        return 1.0 - fidelity_with_shots(target, psi, shots, rng)


@dataclass(frozen=True, eq=False)
class SgqtProblem:
    """Pure-state estimation by direct minimization of measured infidelity.

    The parameters are the amplitudes of the guess, up to scale: ``state``
    normalizes them.  ``unknown=None`` means ``materialize`` draws a
    Haar-random unknown state per run.
    """

    n_qubits: int = 6
    shots: float = 2e4
    unknown: np.ndarray | None = None

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
        if amps.size != 2**self.n_qubits:
            raise ValueError(f"expected {2**self.n_qubits} amplitudes")
        norm = np.linalg.norm(amps)
        if norm == 0.0:
            raise ValueError("guess amplitudes must not be the zero vector")
        return amps / norm

    def measure(self, psi, shots, rng=None):
        """Infidelity 1 − |⟨unknown|ψ⟩|² from ``shots`` samples."""
        if self.unknown is None:
            raise ValueError("SgqtProblem.unknown is unset; materialize the problem first")
        return 1.0 - fidelity_with_shots(self.unknown, psi, shots, rng)


# ---------------------------------------------------------------------------
# VQE


ENTANGLERS = ("ccz_ring", "cz_ring")


@lru_cache(maxsize=64)
def entangling_layer(n: int, kind: str = "ccz_ring"):
    """Diagonal of the entangling layer (both kinds are computational-basis
    diagonal), entries ±1 of length 2**n.

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
    idx = np.arange(2**n)
    parity = np.zeros(2**n, dtype=np.int64)
    for qubits in groups:
        mask = np.ones(2**n, dtype=np.int64)
        for q in qubits:
            mask &= (idx >> (n - q - 1)) & 1
        parity += mask
    return np.where(parity % 2, -1.0, 1.0).astype(np.complex128)


@lru_cache(maxsize=64)
def _vqe_hamiltonian(n, j, h, periodic):
    return heisenberg_hamiltonian(n, j, h, periodic)


def vqe_state(prob: VqeProblem, z):
    """Build the ansatz state: alternating single-qubit W layers and entanglers.

    Layer l of the parameter vector occupies ``z[l*n:(l+1)*n]``.  All W gates
    come from one vectorized closed-form call.  The first layer acts on
    |0…0⟩, so it is the product of the gates' first columns; each later layer
    follows its entangler as one Kronecker-factored product layer.
    """
    n, d = prob.n_qubits, prob.layers
    z = np.asarray(z, dtype=np.complex128)
    if z.size != n * (d + 1):
        raise ValueError(f"expected {n * (d + 1)} complex parameters, got {z.size}")
    gates = w_gate(z).reshape(d + 1, n, 2, 2)
    psi = _product_state(gates[0, :, :, 0])
    if d >= 1:
        ent = entangling_layer(n, prob.entangler)
        for layer_gates in gates[1:]:
            psi = _apply_product_layer(layer_gates, ent * psi)
    return psi


# ---------------------------------------------------------------------------
# GRAPE


@lru_cache(maxsize=16)
def _bond_operators(n, periodic):
    """Stack of the three coupling operators Σ_{<a,b>} σᵏ_a σᵏ_b (real symmetric).

    Every σᵏ_a σᵏ_b flips zero or two bits, so each operator commutes with
    the parity ∏Z: it has no entries between basis states of even and odd
    popcount.  Each also commutes with the global flip ∏X, which for odd n
    maps the even-popcount states one-to-one onto the odd-popcount ones.
    """
    ham = heisenberg_hamiltonian(n, 1.0, 0.0, periodic)
    ops = []
    for pauli in "XYZ":
        dense = PauliTermSum(
            n_qubits=n,
            terms=tuple((c, lab) for c, lab in ham.terms if pauli in lab),
        ).to_dense()
        ops.append(dense.real)
    return np.stack(ops)


@lru_cache(maxsize=16)
def _bond_sectors(n, periodic):
    """Parity-sector form of ``_bond_operators(n, periodic)``.

    Returns ``(index, blocks)``.  ``blocks`` has shape (nb, 3, h, h) with
    h = 2^(n−1): the three bond operators restricted to each distinct
    parity sector.  ``index`` has shape (nb, h, 2 // nb) and lists, for
    block b, the basis states its rows act on, so that ``psi[index]``
    gathers a state into columns each block multiplies at once.

    For even n the two sectors differ: nb = 2, block 0 acts on the
    even-popcount states and block 1 on the odd ones, both in ascending
    order.  For odd n the odd sector is ordered as the complements
    i ^ (2^n − 1) of the even states; since ∏X commutes with every bond
    operator, both sector blocks are then the same matrix, so nb = 1 and the
    even and odd amplitudes are the two columns of one (h, 2) array.
    """
    bonds = _bond_operators(n, periodic)
    states = np.arange(2**n)
    popcount = np.array([bin(i).count("1") for i in states])
    even = states[popcount % 2 == 0]
    if n % 2:
        index = np.stack([even, even ^ (2**n - 1)], axis=-1)[None]
        sectors = [even]
    else:
        sectors = [even, states[popcount % 2 == 1]]
        index = np.stack(sectors)[:, :, None]
    blocks = np.stack([bonds[:, s[:, None], s[None, :]] for s in sectors])
    for cached in (index, blocks):
        cached.flags.writeable = False
    return index, blocks


_TAYLOR_INV = tuple(1.0 / math.factorial(j) for j in range(13))
# Norms above 2^_MAX_SQUARINGS would leave the scaled matrix outside the
# unit ball where the degree-12 Taylor sum is accurate.
_MAX_SQUARINGS = 60


def _expm_stack(a):
    """exp(A_m) for a stack of small square matrices, batched over the leading axis.

    Degree-12 Taylor in Paterson-Stockmeyer form with scaling and squaring;
    much faster than per-slice scipy.expm for the sizes used here.  One
    squaring count s serves the whole stack: the smallest that brings the
    largest row-sum norm to ≤ 1.  The Taylor remainder at a scaled norm ≤ 1
    is at most about 1/13! ≈ 1.6e-10 relative, and each squaring roughly
    doubles the error, so the bound is about 2^s·1.6e-10.  Measured against
    scipy.linalg.expm on 16 × 16 GRAPE blocks: a relative error of ~1e-12 at
    norm 1 and ~1e-9 at norm 32; for the 1 × 1 stack [−i·2^20], 1.7e-4.  A
    stack whose norm is non-finite or needs more than ``_MAX_SQUARINGS``
    squarings gives NaN, which the GRAPE oracles report as a diverged
    evaluation.
    """
    norm = float(np.abs(a).sum(axis=-1).max(initial=0.0))
    if not math.isfinite(norm):
        return np.full_like(a, np.nan)
    squarings = max(0, math.ceil(math.log2(norm))) if norm > 1.0 else 0
    if squarings > _MAX_SQUARINGS:
        return np.full_like(a, np.nan)
    # All work arrays come from one block.  At 5 qubits, some 30 separate
    # 100 KB temporaries could be trimmed from the heap top and faulted back
    # in on every call, depending on the heap layout: 170 page faults and 30%
    # of a build on a 2-core x86-64 machine.  glibc serves an 800 KB block
    # from the heap without trimming it once the first one has been freed.
    b, b2, b3, p0, p1, p2, p3, t = np.empty((8,) + a.shape, dtype=a.dtype)
    np.divide(a, 2.0**squarings, out=b)
    np.matmul(b, b, out=b2)
    np.matmul(b2, b, out=b3)
    inv = _TAYLOR_INV
    for p, i in ((p0, 1), (p1, 4), (p2, 7), (p3, 10)):
        np.multiply(b, inv[i], out=p)
        p += np.multiply(b2, inv[i + 1], out=t)
    p3 += np.multiply(b3, inv[12], out=t)
    # identity terms go on the diagonals: adding a broadcast eye is far slower
    for p, c in ((p0, 1.0), (p1, inv[3]), (p2, inv[6]), (p3, inv[9])):
        np.einsum("...ii->...i", p)[...] += c
    # p0 + b3 @ (p1 + b3 @ (p2 + b3 @ p3)), summed in place
    p2 += np.matmul(b3, p3, out=t)
    p1 += np.matmul(b3, p2, out=t)
    p0 += np.matmul(b3, p1, out=t)
    out, spare = p0, t
    for _ in range(squarings):
        out, spare = np.matmul(out, out, out=spare), out
    return out


def grape_final_state(prob: GrapeProblem, controls):
    """Evolve psi0 through the M piecewise-constant slices.

    Slice m uses the three complex couplings ``controls[3m:3m+3]`` as written
    in the control Hamiltonian, so the generator is complex symmetric rather
    than hermitian: imaginary control parts drive non-unitary amplitude
    shaping.  The state is renormalized after every slice, which leaves the
    final direction (and hence any fidelity) unchanged.

    Every generator is block diagonal in the parity sectors of
    ``_bond_sectors``, so the propagation never forms a 2^n × 2^n matrix:
    all M·nb sector generators are exponentiated in one ``_expm_stack``
    call, whose row-sum norm and hence squaring count equal those of the
    full generators.  The state is gathered into its sector columns, each
    slice is one batched product renormalized by the joint norm, and the
    result is scattered back to the computational basis order.
    """
    controls = np.asarray(controls, dtype=np.complex128)
    if controls.size != 3 * prob.slices:
        raise ValueError(f"expected {3 * prob.slices} complex controls, got {controls.size}")
    if prob.psi0 is None:
        raise ValueError("GrapeProblem.psi0 is unset; materialize the problem first")
    psi0 = np.asarray(prob.psi0, dtype=np.complex128)
    if psi0.size != 2**prob.n_qubits:
        raise ValueError(f"expected psi0 of {2**prob.n_qubits} amplitudes, got {psi0.size}")
    index, blocks = _bond_sectors(prob.n_qubits, prob.periodic)
    coeffs = controls.reshape(prob.slices, 3)
    # exp(-i dt H_m) with H_m = -(1/2) sum_k J_k B_k
    generators = np.tensordot((0.5j * prob.dt) * coeffs, blocks, axes=(1, 1))
    h = blocks.shape[-1]
    propagators = _expm_stack(generators.reshape(-1, h, h)).reshape(generators.shape)
    psi = psi0[index]
    for u in propagators:
        psi = u @ psi
        norm = math.sqrt(np.vdot(psi, psi).real)
        if not 0.0 < norm < math.inf:
            return np.full_like(psi0, np.nan)
        psi /= norm
    out = np.empty_like(psi0)
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
    oracles read parameters as interleaved (Re, Im) pairs.

    The fidelity's first argument and the monitor's argument go through one
    rng-free memo of the last state built.  The metric estimate pins the
    first fidelity argument at the current iterate, which the monitor built
    at the end of the previous iteration, so a quantum-natural iteration
    builds 7 states instead of 11 with the same values and random draws.
    """
    state, measure, shots = problem.state, problem.measure, problem.shots
    last = [None, None]  # the exact parameter bytes and the state of the last pinned build

    def pinned(z):
        key = np.asarray(z, dtype=np.complex128).tobytes()
        if key != last[0]:
            last[:] = key, state(z)
        return last[1]

    obj = lambda z: measure(state(z), shots, rng)
    fid = lambda za, zb: fidelity_with_shots(pinned(za), state(zb), shots, rng)
    mon = lambda z: measure(pinned(z), math.inf)

    if field == REAL:
        c_obj, c_fid, c_mon = obj, fid, mon
        obj = lambda theta: c_obj(complex_from_interleaved(theta))
        fid = lambda ta, tb: c_fid(
            complex_from_interleaved(ta), complex_from_interleaved(tb)
        )
        mon = lambda theta: c_mon(complex_from_interleaved(theta))
    elif field != COMPLEX:
        raise ValueError(f"unknown field {field!r}")
    return Oracles(objective=obj, fidelity=fid, monitor=mon)
