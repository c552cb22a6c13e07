"""Reference implementations of the VQE, GRAPE and SGQT oracle paths.

The library builds each VQE layer as one Kronecker-factored product layer,
measures Pauli terms in qubit-wise-commuting groups, propagates GRAPE states
in the parity sectors of the bond operators and memoizes the pinned state of
the fidelity oracle.  These helpers compute the same quantities one gate, one
term and one state at a time from ``apply_single_qubit_gate``, ``w_gate`` and
``pauli_expectation``, evolve GRAPE states with full 2^n × 2^n generators
through ``scipy.linalg.expm``, and normalize every SGQT guess anew, so tests
can compare the two.
"""

import math

import numpy as np
import scipy.linalg

from spsakit.applications import (
    GrapeProblem,
    Oracles,
    SgqtProblem,
    VqeProblem,
    entangling_layer,
)
from spsakit.estimators import REAL, complex_from_interleaved
from spsakit.quantum import (
    PauliTermSum,
    apply_single_qubit_gate,
    fidelity_with_shots,
    heisenberg_hamiltonian,
    pauli_expectation,
    w_gate,
)


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


def reference_grape_final_state(prob: GrapeProblem, controls):
    """GRAPE final state from one full 2^n × 2^n generator per slice.

    Slice m applies scipy's exp(−i Δt H_m) with H_m = −½ Σ_k J_k B_k, where
    B_k sums σᵏσᵏ over the bonds of ``heisenberg_hamiltonian``, and then
    renormalizes; a non-finite or zero norm gives an all-NaN state.
    """
    n = prob.n_qubits
    terms = heisenberg_hamiltonian(n, 1.0, 0.0, prob.periodic).terms
    bonds = [
        PauliTermSum(n_qubits=n, terms=tuple(t for t in terms if pauli in t[1])).to_dense()
        for pauli in "XYZ"
    ]
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
