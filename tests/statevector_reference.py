"""Reference implementations of the VQE, GRAPE and SGQT oracle paths.

The library builds each VQE layer as one Kronecker-factored product layer,
measures Pauli terms in qubit-wise-commuting groups, propagates GRAPE states
in the parity sectors of the bond operators and memoizes the states of the
oracles.  These helpers compute the same quantities one gate, one term and
one state at a time from ``apply_single_qubit_gate``, ``w_gate`` and
``pauli_expectation``, build dense Pauli sums as Kronecker chains
(``reference_to_dense``), evolve GRAPE states with full 2^n × 2^n
generators, summed from the dense coupling operators of ``bond_operators``,
through ``scipy.linalg.expm``, and normalize every SGQT guess
anew, so tests can compare the two.  ``apply_product_layer`` applies one
product layer through the library's Kronecker factors in complex arithmetic
(``apply_kron_halves``), for tests of those factors, and ``reference_w_gate`` keeps the W gate's closed form with every
product written out, for a bit-for-bit test of the library's shared factors.
"""

import math
from functools import lru_cache

import numpy as np
import scipy.linalg

from spsakit.applications import (
    _MAX_SQUARINGS,
    _TAYLOR_INV,
    GrapeProblem,
    Oracles,
    SgqtProblem,
    VqeProblem,
    entangling_layer,
)
from spsakit.estimators import REAL, complex_from_interleaved
from spsakit.quantum import (
    PauliTermSum,
    _kron_halves,
    _num_qubits,
    apply_single_qubit_gate,
    fidelity_with_shots,
    heisenberg_hamiltonian,
    w_gate,
)


def apply_kron_halves(a, b, psi):
    """A Ψ Bᵀ in complex arithmetic, Ψ the 2^⌈n/2⌉ × 2^⌊n/2⌋ state matrix."""
    return (a @ psi.reshape(a.shape[0], b.shape[0]) @ b.T).reshape(psi.shape)


def apply_product_layer(gates, psi):
    """Apply G_0 ⊗ G_1 ⊗ … ⊗ G_{n−1} (gate q on qubit q) to a dense state.

    ``gates`` has shape (n, 2, 2).  The state is viewed as a
    2^⌈n/2⌉ × 2^⌊n/2⌋ matrix Ψ (row index: the first ⌈n/2⌉ qubits) and
    mapped to A Ψ Bᵀ, with A and B the Kronecker products of the first
    ⌈n/2⌉ and of the remaining gates.
    """
    n = _num_qubits(psi)
    if np.shape(gates) != (n, 2, 2):
        raise ValueError(f"expected {n} single-qubit gates for {n} qubits")
    return apply_kron_halves(*_kron_halves(gates), psi)


def reference_w_gate(z):
    """``w_gate`` as the closed form reads, each product written out in full."""
    z = np.asarray(z, dtype=np.complex128)
    r = np.abs(z)
    sinc = np.divide(np.sin(2.0 * r), r, out=np.zeros_like(r), where=r > 0)
    out = np.empty(z.shape + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = out[..., 1, 1] = np.cos(2.0 * r)
    out[..., 0, 1] = -1j * sinc * z
    out[..., 1, 0] = -1j * sinc * np.conj(z)
    return out


def reference_vqe_state(prob: VqeProblem, z):
    """Ansatz state built one W gate at a time."""
    n = prob.n_qubits
    z = np.asarray(z, dtype=np.complex128)
    psi = np.zeros(2**n, dtype=np.complex128)
    psi[0] = 1.0
    for layer in range(prob.layers + 1):
        if layer:
            psi = entangling_layer(n, prob.entangler) * psi
        for q in range(n):
            psi = apply_single_qubit_gate(w_gate(z[layer * n + q]), q, psi)
    return psi


_PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def reference_to_dense(hamiltonian):
    """Σ_i h_i σ_i as a complex 2^n × 2^n matrix: each term a full Kronecker
    chain of its 2 × 2 factors, added in term order."""
    dim = 2**hamiltonian.n_qubits
    out = np.zeros((dim, dim), dtype=np.complex128)
    for coeff, label in hamiltonian.terms:
        term = np.array([[coeff]], dtype=np.complex128)
        for c in label:
            term = np.kron(term, _PAULI[c])
        out += term
    return out


@lru_cache(maxsize=256)
def _pauli_action(label: str):
    """Precompute P|b⟩ = phase[b] · |perm[b]⟩ for a Pauli string on basis states."""
    n = len(label)
    dim = 2**n
    idx = np.arange(dim)
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


def reference_expectation(psi, hamiltonian, shots, rng=None):
    """Energy estimate with one exact mean and one binomial draw per term, in order."""
    if math.isinf(shots):
        return sum(c * pauli_expectation(psi, label) for c, label in hamiltonian.terms)
    total = 0.0
    for coeff, label in hamiltonian.terms:
        mean = pauli_expectation(psi, label)
        p_plus = min(1.0, max(0.0, (1.0 + mean) / 2.0))
        successes = rng.binomial(int(shots), p_plus)
        total += coeff * (2.0 * successes / int(shots) - 1.0)
    return total


def evolve_piecewise(psi0, slices):
    """Apply exp(−i Δt_m H_m) for each (H_m, Δt_m) in sequence, index 0 first.

    Generators must be hermitian; each exponential is computed from a
    spectral decomposition.
    """
    psi = np.asarray(psi0, dtype=np.complex128)
    for generator, dt in slices:
        g = np.asarray(generator)
        if g.shape != (psi.size, psi.size):
            raise ValueError("generator dimension does not match the state")
        scale = max(1.0, float(np.abs(g).max(initial=0.0)))
        if np.abs(g - g.conj().T).max(initial=0.0) > 1e-10 * scale:
            raise ValueError("evolve_piecewise requires hermitian generators")
        w, u = np.linalg.eigh(g)
        psi = u @ (np.exp(-1j * dt * w) * (u.conj().T @ psi))
    return psi


def reference_expm_stack(a):
    """The stacked degree-12 Taylor exponential with one pass per term.

    The same scaling and squaring rule, ``_MAX_SQUARINGS`` cap and
    Paterson-Stockmeyer evaluation as ``applications._expm_stack``, with the
    scaling written as a division, each block p_i summed one scaled power at
    a time and each identity term added to its own diagonal.
    """
    norm = float(np.abs(a).sum(axis=-1).max(initial=0.0))
    if not math.isfinite(norm):
        return np.full_like(a, np.nan)
    mantissa, exponent = math.frexp(norm)  # norm = mantissa·2^exponent, ½ ≤ mantissa < 1
    squarings = max(0, exponent - 1 if mantissa == 0.5 else exponent)
    if squarings > _MAX_SQUARINGS:
        return np.full_like(a, np.nan)
    b, b2, b3, p0, p1, p2, p3, t = np.empty((8,) + a.shape, dtype=a.dtype)
    np.divide(a, 2.0**squarings, out=b)
    np.matmul(b, b, out=b2)
    np.matmul(b2, b, out=b3)
    inv = _TAYLOR_INV
    for p, i in ((p0, 1), (p1, 4), (p2, 7), (p3, 10)):
        np.multiply(b, inv[i], out=p)
        p += np.multiply(b2, inv[i + 1], out=t)
    p3 += np.multiply(b3, inv[12], out=t)
    for p, c in ((p0, 1.0), (p1, inv[3]), (p2, inv[6]), (p3, inv[9])):
        np.einsum("...ii->...i", p)[...] += c
    p2 += np.matmul(b3, p3, out=t)
    p1 += np.matmul(b3, p2, out=t)
    p0 += np.matmul(b3, p1, out=t)
    out, spare = p0, t
    for _ in range(squarings):
        out, spare = np.matmul(out, out, out=spare), out
    return out


def bond_operators(n, periodic):
    """Stack of GRAPE's three real symmetric 2^n × 2^n coupling operators
    B_k = Σ_{<a,b>} σᵏ_a σᵏ_b over the bonds of ``heisenberg_hamiltonian``,
    k = x, y, z, each the real part of its Kronecker chain."""
    terms = heisenberg_hamiltonian(n, 1.0, 0.0, periodic).terms
    return np.stack([
        reference_to_dense(PauliTermSum(n_qubits=n, terms=tuple(t for t in terms if pauli in t[1])))
        for pauli in "XYZ"
    ]).real


def reference_grape_final_state(prob: GrapeProblem, controls):
    """GRAPE final state from one full 2^n × 2^n generator per slice.

    Slice m applies scipy's exp(−i Δt H_m) with H_m = −½ Σ_k J_k B_k, where
    B_k sums σᵏσᵏ over the bonds of ``heisenberg_hamiltonian``, and then
    renormalizes; a non-finite or zero norm gives an all-NaN state.
    """
    bonds = bond_operators(prob.n_qubits, prob.periodic)
    psi = np.asarray(prob.psi0, dtype=np.complex128)
    for couplings in np.asarray(controls, dtype=np.complex128).reshape(prob.slices, 3):
        h_m = -0.5 * sum(j * b for j, b in zip(couplings, bonds))
        psi = scipy.linalg.expm(-1j * prob.dt * h_m) @ psi
        norm = np.linalg.norm(psi)
        if not np.isfinite(norm) or norm == 0.0:
            return np.full_like(psi, np.nan)
        psi = psi / norm
    return psi


def _finite(psi):
    return bool(np.all(np.isfinite(psi.view(np.float64))))


def reference_grape_infidelity(prob: GrapeProblem, controls, shots, rng=None):
    """1 − |⟨0…0|ψ_f⟩|² of the reference final state; NaN if it is non-finite."""
    psi = reference_grape_final_state(prob, controls)
    if not _finite(psi):
        return float("nan")
    target = np.zeros_like(psi)
    target[0] = 1.0
    return 1.0 - fidelity_with_shots(target, psi, shots, rng)


def reference_oracles(problem, rng, field):
    """Oracles that rebuild every state they use: no memo, no grouping."""
    if isinstance(problem, VqeProblem):
        ham = heisenberg_hamiltonian(problem.n_qubits, problem.j, problem.h, problem.periodic)
        state = lambda z: reference_vqe_state(problem, z)
        obj = lambda z: reference_expectation(state(z), ham, problem.shots, rng)
        mon = lambda z: reference_expectation(state(z), ham, math.inf)
    elif isinstance(problem, GrapeProblem):
        state = lambda z: reference_grape_final_state(problem, z)
        obj = lambda z: reference_grape_infidelity(problem, z, problem.shots, rng)
        mon = lambda z: reference_grape_infidelity(problem, z, math.inf)
    elif isinstance(problem, SgqtProblem):
        state = lambda z: np.asarray(z, dtype=np.complex128) / np.linalg.norm(z)
        obj = lambda z: 1.0 - fidelity_with_shots(problem.unknown, state(z), problem.shots, rng)
        mon = lambda z: 1.0 - fidelity_with_shots(problem.unknown, state(z), math.inf)
    else:
        raise TypeError(type(problem).__name__)

    def fid(za, zb):
        psi_a, psi_b = state(za), state(zb)
        if not (_finite(psi_a) and _finite(psi_b)):
            return float("nan")
        return fidelity_with_shots(psi_a, psi_b, problem.shots, rng)

    if field == REAL:
        return Oracles(
            objective=lambda t: obj(complex_from_interleaved(t)),
            fidelity=lambda ta, tb: fid(complex_from_interleaved(ta),
                                        complex_from_interleaved(tb)),
            monitor=lambda t: mon(complex_from_interleaved(t)),
        )
    return Oracles(objective=obj, fidelity=fid, monitor=mon)
