"""Dense statevector simulator: gates, Pauli-sum Hamiltonians,
Haar sampling, and shot-noise measurement of expectations and fidelities.

States are plain complex ndarrays of length 2**n_qubits, normalized to unit
norm, with qubit 0 the most significant bit of the basis index.  Shot counts
accept ``math.inf`` as a sentinel for exact (noiseless) evaluation.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "PauliTermSum",
    "haar_random_state",
    "w_gate",
    "apply_single_qubit_gate",
    "heisenberg_hamiltonian",
    "exact_ground_energy",
    "pauli_expectation",
    "expectation_with_shots",
    "fidelity_with_shots",
]

_PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}

MAX_DENSE_QUBITS = 12


def _num_qubits(psi):
    n = int(round(math.log2(psi.size)))
    if 2**n != psi.size:
        raise ValueError(f"state length {psi.size} is not a power of two")
    return n


@dataclass(frozen=True)
class PauliTermSum:
    """Hermitian operator Σ_i h_i σ_i given as real-weighted Pauli strings."""

    n_qubits: int
    terms: tuple

    def __post_init__(self):
        for coeff, label in self.terms:
            if len(label) != self.n_qubits:
                raise ValueError(f"Pauli string {label!r} does not match {self.n_qubits} qubits")
            if any(c not in "IXYZ" for c in label):
                raise ValueError(f"invalid Pauli string {label!r}")
            if np.iscomplexobj(coeff):
                raise ValueError("coefficients must be real for a hermitian operator")

    def to_dense(self):
        dim = 2**self.n_qubits
        out = np.zeros((dim, dim), dtype=np.complex128)
        for coeff, label in self.terms:
            term = np.array([[coeff]], dtype=np.complex128)
            for c in label:
                term = np.kron(term, _PAULI[c])
            out += term
        return out


def haar_random_state(n: int, rng: np.random.Generator):
    """Haar-uniform pure state from normalized i.i.d. complex Gaussians."""
    if n < 1:
        raise ValueError("need at least one qubit")
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return v / np.linalg.norm(v)


def w_gate(z):
    """Single-qubit gate exp(−i(z σ₊ + z* σ₋)) with σ± = σˣ ± iσʸ.

    The generator is the hermitian matrix [[0, 2z], [2z*, 0]], so the
    exponential has the closed form below with rotation angle 2|z|.  An array
    of parameters gives the stack of gates, shape ``z.shape + (2, 2)``.
    """
    z = np.asarray(z, dtype=np.complex128)
    r = np.abs(z)
    # sin(2r)/r is a real quotient, so subnormal |z| cannot overflow it.
    sinc = np.divide(np.sin(2.0 * r), r, out=np.zeros_like(r), where=r > 0)
    out = np.empty(z.shape + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = out[..., 1, 1] = np.cos(2.0 * r)
    out[..., 0, 1] = -1j * sinc * z
    out[..., 1, 0] = -1j * sinc * np.conj(z)
    return out


def apply_single_qubit_gate(gate, qubit: int, psi):
    """Apply a 2×2 gate to one qubit of a dense state."""
    n = _num_qubits(psi)
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")
    right = 2 ** (n - qubit - 1)
    t = psi.reshape(-1, 2, right)
    out = np.einsum("ab,ibj->iaj", gate, t)
    return out.reshape(psi.shape)


def _product_state(amplitudes):
    """Kronecker product of single-qubit states, row q on qubit q.

    ``amplitudes`` has shape (n, 2); the result has length 2**n and is built
    by n − 1 broadcast outer products.
    """
    psi = np.array(amplitudes[0], dtype=np.complex128)
    for v in amplitudes[1:]:
        psi = (psi[:, None] * v[None, :]).ravel()
    return psi


def _kron_factor(gates):
    """G_0 ⊗ G_1 ⊗ … for a (k, 2, 2) stack, by broadcasting; 1 × 1 for k = 0."""
    out = np.ones((1, 1), dtype=np.complex128)
    for g in gates:
        m = out.shape[0]
        out = (out[:, None, :, None] * g[None, :, None, :]).reshape(2 * m, 2 * m)
    return out


def _kron_halves(gates):
    """Kronecker factors of the first ⌊n/2⌋ and of the remaining gates."""
    half = len(gates) // 2
    return _kron_factor(gates[:half]), _kron_factor(gates[half:])


def _apply_kron_halves(a, b, psi):
    return (a @ psi.reshape(a.shape[0], b.shape[0]) @ b.T).reshape(psi.shape)


def _apply_product_layer(gates, psi):
    """Apply G_0 ⊗ G_1 ⊗ … ⊗ G_{n−1} (gate q on qubit q) to a dense state.

    ``gates`` has shape (n, 2, 2).  The state is viewed as a
    2^⌊n/2⌋ × 2^⌈n/2⌉ matrix Ψ (row index: the first ⌊n/2⌋ qubits) and
    mapped to A Ψ Bᵀ, with A and B the Kronecker products of the first
    ⌊n/2⌋ and of the remaining gates.
    """
    n = _num_qubits(psi)
    if np.shape(gates) != (n, 2, 2):
        raise ValueError(f"expected {n} single-qubit gates for {n} qubits")
    return _apply_kron_halves(*_kron_halves(gates), psi)


def heisenberg_hamiltonian(n: int, j: float, h: float, periodic: bool = False):
    """Nearest-neighbor XX+YY+ZZ couplings with strength j plus a σᶻ field h.

    ``periodic`` adds the closing (n−1, 0) bond of the ring; it requires
    n ≥ 3 because a two-site ring would duplicate the single existing bond.
    Terms with exactly zero coefficient are omitted.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    if periodic and n < 3:
        raise ValueError("periodic boundary requires n >= 3 (bond duplication otherwise)")
    bonds = [(m, m + 1) for m in range(n - 1)]
    if periodic:
        bonds.append((n - 1, 0))
    terms = []
    if j != 0:
        for m, mm in bonds:
            for pauli in "XYZ":
                label = "".join(pauli if q in (m, mm) else "I" for q in range(n))
                terms.append((float(j), label))
    if h != 0:
        for m in range(n):
            label = "".join("Z" if q == m else "I" for q in range(n))
            terms.append((float(h), label))
    return PauliTermSum(n_qubits=n, terms=tuple(terms))


def exact_ground_energy(hamiltonian: PauliTermSum):
    """Minimum eigenvalue of the dense matrix; limited to small qubit counts."""
    if hamiltonian.n_qubits > MAX_DENSE_QUBITS:
        raise ValueError(f"dense diagonalization limited to {MAX_DENSE_QUBITS} qubits")
    dense = hamiltonian.to_dense()
    if np.abs(dense.imag).max(initial=0.0) < 1e-14:
        return float(np.linalg.eigvalsh(dense.real)[0])
    return float(np.linalg.eigvalsh(dense)[0])


@lru_cache(maxsize=256)
def _pauli_action(label: str):
    """Precompute P|b⟩ = phase[b] · |perm[b]⟩ for a Pauli string on basis states."""
    n = len(label)
    dim = 2**n
    idx = np.arange(dim)
    perm = np.zeros(dim, dtype=np.int64)
    phase = np.ones(dim, dtype=np.complex128)
    flip = 0
    for q, c in enumerate(label):
        bit = 1 << (n - q - 1)
        if c in "XY":
            flip ^= bit
        if c == "Y":
            # Y|0> = i|1>, Y|1> = -i|0>
            phase = phase * np.where(idx & bit, -1j, 1j)
        elif c == "Z":
            phase = phase * np.where(idx & bit, -1.0, 1.0)
    perm = idx ^ flip
    return perm, phase


def pauli_expectation(psi, label: str):
    """Exact ⟨ψ|P|ψ⟩ for one Pauli string (always real)."""
    perm, phase = _pauli_action(label)
    # <psi|P|psi> = sum_b psi*[perm[b]] phase[b] psi[b]
    return float(np.real(np.sum(np.conj(psi[perm]) * phase * psi)))


def _is_exact(shots):
    return shots is None or (isinstance(shots, float) and math.isinf(shots))


_HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0)
# V with V P V† = Z for each letter P: measuring Z after V measures P.
_BASIS_CHANGE = {
    "I": np.eye(2, dtype=np.complex128),
    "Z": np.eye(2, dtype=np.complex128),
    "X": _HADAMARD,
    "Y": _HADAMARD @ np.diag([1.0, -1.0j]),
}


@lru_cache(maxsize=64)
def _measurement_groups(hamiltonian: PauliTermSum):
    """Coefficients and qubit-wise-commuting measurement groups of the terms.

    Terms are placed greedily, in term order, into the first group whose
    basis agrees with them on every qubit where both are not I.  Each group
    is ``(rotation, index, signs)``: the product-layer basis change as the
    Kronecker factors ``_apply_product_layer`` would build (None when every
    letter is Z or I), the positions of the group's terms in ``terms``, and
    the ±1 eigenvalue of each of them on every computational basis state
    after the rotation, one row per term.
    """
    n = hamiltonian.n_qubits
    bases, members = [], []
    for i, (_, label) in enumerate(hamiltonian.terms):
        for basis, index in zip(bases, members):
            if all(a == "I" or b == "I" or a == b for a, b in zip(label, basis)):
                basis[:] = [b if a == "I" else a for a, b in zip(label, basis)]
                index.append(i)
                break
        else:
            bases.append(list(label))
            members.append([i])

    idx = np.arange(2**n)
    groups = []
    for basis, index in zip(bases, members):
        signs = np.empty((len(index), idx.size))
        for row, i in enumerate(index):
            parity = np.zeros(idx.size, dtype=np.int64)
            for q, c in enumerate(hamiltonian.terms[i][1]):
                if c != "I":
                    parity ^= (idx >> (n - q - 1)) & 1
            signs[row] = 1.0 - 2.0 * parity
        rotation = None
        if any(c in "XY" for c in basis):
            rotation = _kron_halves(np.stack([_BASIS_CHANGE[c] for c in basis]))
        groups.append((rotation, np.array(index), signs))
    coeffs = np.array([float(c) for c, _ in hamiltonian.terms])
    return coeffs, tuple(groups)


def _pauli_term_means(psi, hamiltonian: PauliTermSum):
    """Exact ⟨ψ|P_i|ψ⟩ of every term, in term order.

    Each qubit-wise-commuting group of terms costs one product-layer basis
    change of ψ and one ±1 sign-matrix product with the rotated |ψ|².
    """
    _, groups = _measurement_groups(hamiltonian)
    means = np.empty(len(hamiltonian.terms))
    for rotation, index, signs in groups:
        phi = psi if rotation is None else _apply_kron_halves(*rotation, psi)
        means[index] = signs @ (phi.real**2 + phi.imag**2)
    return means


def expectation_with_shots(psi, hamiltonian: PauliTermSum, shots, rng=None):
    """Energy estimate measuring each Pauli term independently.

    Every term receives the full ``shots`` budget: the exact two-outcome
    distribution over its ±1 eigenvalues is sampled binomially, one draw per
    term in term order, and the weighted sample means are added.  The exact
    term means come from ``_pauli_term_means``; grouping the terms by
    measurement basis only speeds up that computation and changes no draw.
    ``math.inf`` shots returns the exact expectation from the same means.
    A state with NaN amplitudes gives NaN.
    """
    coeffs, _ = _measurement_groups(hamiltonian)
    means = _pauli_term_means(psi, hamiltonian)
    if _is_exact(shots):
        return float(coeffs @ means)
    shots = int(shots)
    if shots < 1:
        raise ValueError("shots must be >= 1")
    p_plus = np.clip((1.0 + means) / 2.0, 0.0, 1.0)
    if np.isnan(p_plus).any():
        return float("nan")
    successes = rng.binomial(shots, p_plus)
    return float(coeffs @ (2.0 * successes / shots - 1.0))


def fidelity_with_shots(psi, phi, shots, rng=None):
    """Estimate |⟨ψ|φ⟩|² from a binomial sample of the given ensemble size.

    A non-finite overlap, as from a state with NaN or infinite amplitudes,
    gives NaN without drawing from ``rng``.
    """
    if psi.shape != phi.shape:
        raise ValueError("states must have the same number of qubits")
    p = float(abs(np.vdot(psi, phi)) ** 2)
    if not math.isfinite(p):
        return float("nan")
    p = min(1.0, max(0.0, p))
    if _is_exact(shots):
        return p
    shots = int(shots)
    if shots < 1:
        raise ValueError("shots must be >= 1")
    return rng.binomial(shots, p) / shots
