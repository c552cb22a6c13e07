"""Reference implementations of the VQE, GRAPE and SGQT oracle paths.

The library builds each VQE layer as one Kronecker-factored product layer,
measures Pauli terms in qubit-wise-commuting groups, propagates GRAPE states
in the parity sectors of the bond operators and memoizes the states of the
oracles.  These helpers compute the same quantities one gate, one term and
one state at a time from ``apply_single_qubit_gate``, ``w_gate`` and
``pauli_expectation``, build dense Pauli sums as Kronecker chains
(``reference_to_dense``), evolve GRAPE states with full 2^n × 2^n
generators, summed from the dense coupling operators of ``bond_operators``,
through ``scipy.linalg.expm``, read GRAPE's row-sum norm from every
entry of a stack (``row_sum_norm``), and normalize every SGQT guess
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
    _T18,
    _THETA_18,
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


def row_sum_norm(a):
    """The largest row-sum norm ‖A_m‖∞ of a stack of square matrices, from
    every entry."""
    return float(np.abs(a).sum(axis=-1).max(initial=0.0))


def reference_expm_stack(a):
    """The stacked degree-18 Taylor exponential T18 with one pass per term.

    The same scaling and squaring rule, θ18, ``_MAX_SQUARINGS`` cap and
    Bader-Blanes-Casas evaluation as ``applications._expm_stack``: the
    squaring count found by halving the norm until it is at most θ18, the
    scaling written as a division, each B_i summed one scaled power at a
    time with its identity term added to its own diagonal, then
    A9 = B1·B5 + B4 and T18 = B2 + (B3 + A9)·A9.

    Each power's term is added as a fused multiply-add, c·P plus the sum
    so far rounded once (here in long double, which on x86-64 rounds to 64
    bits and then to 53), which is how the FMA kernels of BLAS GEMM
    accumulate the library's B_i, in term order.
    Summing rounded products instead moves a B_i by an ulp, and T18's
    evaluation, through B3 + A9 ≈ −11·I, amplifies that to about 2e-13
    relative after 7 or 8 squarings on complex 1 × 1 stacks.
    """
    norm = row_sum_norm(a)
    if not math.isfinite(norm):
        return np.full_like(a, np.nan)
    squarings = 0
    while math.ldexp(norm, -squarings) > _THETA_18:
        squarings += 1
    if squarings > _MAX_SQUARINGS:
        return np.full_like(a, np.nan)
    x = np.divide(a, 2.0**squarings)
    x2 = np.matmul(x, x)
    x3 = np.matmul(x2, x)
    x6 = np.matmul(x3, x3)
    b = []
    for coeffs in _T18:
        term = np.zeros_like(x)
        for c, power in zip(coeffs[1:], (x, x2, x3, x6)):
            term = (term + np.longdouble(c) * power).astype(x.dtype)
        np.einsum("...ii->...i", term)[...] += coeffs[0]
        b.append(term)
    b1, b2, b3, b4, b5 = b
    a9 = np.matmul(b1, b5) + b4
    out = b2 + np.matmul(b3 + a9, a9)
    for _ in range(squarings):
        out = np.matmul(out, out)
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
