"""Gate-by-gate reference implementations of the VQE and GRAPE oracle paths.

The library builds each VQE layer as one Kronecker-factored product layer,
measures Pauli terms in qubit-wise-commuting groups and memoizes the pinned
state of the fidelity oracle.  These helpers compute the same quantities one
gate, one term and one state at a time from ``apply_single_qubit_gate``,
``w_gate``, ``pauli_expectation`` and ``grape_final_state``, so tests can
compare the two.
"""

import math

import numpy as np

from spsakit.applications import (
    GrapeProblem,
    Oracles,
    VqeProblem,
    entangling_layer,
    grape_final_state,
    grape_infidelity_exact,
    grape_objective,
)
from spsakit.estimators import REAL, complex_from_interleaved
from spsakit.quantum import (
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


def _finite(psi):
    return bool(np.all(np.isfinite(psi.view(np.float64))))


def reference_oracles(problem, rng, field):
    """Oracles that rebuild every state they use: no memo, no grouping."""
    if isinstance(problem, VqeProblem):
        ham = heisenberg_hamiltonian(problem.n_qubits, problem.j, problem.h, problem.periodic)
        state = lambda z: reference_vqe_state(problem, z)
        obj = lambda z: reference_expectation(state(z), ham, problem.shots, rng)
        mon = lambda z: reference_expectation(state(z), ham, math.inf)
    elif isinstance(problem, GrapeProblem):
        state = lambda z: grape_final_state(problem, z)
        obj = lambda z: grape_objective(problem, z, rng)
        mon = lambda z: grape_infidelity_exact(problem, z)
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
