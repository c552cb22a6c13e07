"""Dense statevector simulator: gates, Pauli-sum Hamiltonians,
Haar sampling, and shot-noise measurement of expectations and fidelities.

States are plain complex ndarrays of length 2**n_qubits, normalized to unit
norm.  ``_basis_bits`` is the one place that fixes the qubit order: qubit 0
is the most significant bit of the basis index.  Product layers act on the
state as a matrix through the Kronecker factors of ``_kron_halves``.  A
measurement basis change is a diagonal phase for its Y letters and real
Kronecker factors of H and I, applied in real arithmetic to the float view
of the state (``_measurement_groups``).  A shot budget is a positive
integer up to ``MAX_SHOTS`` or ``math.inf``, the sentinel for exact
(noiseless) evaluation; ``_shot_count`` is the one place that reads it.
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
    "expectation_with_shots",
    "fidelity_with_shots",
]

MAX_DENSE_QUBITS = 12


def _num_qubits(psi):
    n = int(round(math.log2(psi.size)))
    if 2**n != psi.size:
        raise ValueError(f"state length {psi.size} is not a power of two")
    return n


def _read_only(a):
    """``a``, marked read-only: what every cached array is."""
    a.flags.writeable = False
    return a


@lru_cache(maxsize=64)
def _basis_bits(n):
    """(n, 2**n) array: row q holds qubit q's bit of every basis index, qubit
    0 being the most significant bit."""
    return _read_only((np.arange(2**n) >> np.arange(n - 1, -1, -1)[:, None]) & 1)


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

    def _term_actions(self, states):
        """Each term, in term order, as ``(x, values)``: it maps |states[k]⟩
        to values[k]·|states[k] ⊕ x⟩.

        A Pauli string is a signed permutation: with x the mask of its X and
        Y qubits (the qubits it flips) and z the mask of its Z and Y qubits,
        the term h·σ maps |i⟩ to h·i^{#Y}·(−1)^{popcount(i & z)}·|i ⊕ x⟩.
        """
        n = self.n_qubits
        bits = _basis_bits(n)[:, states]
        for coeff, label in self.terms:
            flip = sum(1 << (n - 1 - q) for q, c in enumerate(label) if c in "XY")
            phased = [q for q, c in enumerate(label) if c in "YZ"]
            signs = 1.0 - 2.0 * (bits[phased].sum(axis=0) % 2)
            phase = (1, 1j, -1, -1j)[label.count("Y") % 4]
            yield flip, (coeff * phase) * signs

    def block(self, states):
        """The operator restricted to the distinct basis states ``states``:
        entry (r, c) is ⟨states[r]|Σ_i h_i σ_i|states[c]⟩.

        Each term is written as its signed permutation (``_term_actions``),
        keeping the entries whose row is also in ``states``, and the terms
        are added in term order.  The method holds the m × m result and a few
        arrays of length m or 2^n.  The result is float64 when every term has
        an even number of Y letters, and complex128 otherwise.  For finite
        coefficients it equals, entry for entry and bit for bit, the same
        entries of the sum in term order of the Kronecker products of the
        terms' 2 × 2 factors.
        """
        states = np.asarray(states)
        odd_y = any(label.count("Y") % 2 for _, label in self.terms)
        out = np.zeros((states.size, states.size),
                       dtype=np.complex128 if odd_y else np.float64)
        position = np.full(2**self.n_qubits, -1)
        position[states] = np.arange(states.size)
        for flip, values in self._term_actions(states):
            rows = position[states ^ flip]
            kept = np.flatnonzero(rows >= 0)
            out[rows[kept], kept] += values[kept]
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
    angle = 2.0 * r
    # sin(2r)/r is a real quotient, so subnormal |z| cannot overflow it.
    sinc = np.divide(np.sin(angle), r, out=np.zeros_like(r), where=r > 0)
    # −i·sinc once for both off-diagonal entries: the products below group
    # as (−1j·sinc)·z did, so the entries keep their bits.
    s = -1j * sinc
    out = np.empty(z.shape + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = out[..., 1, 1] = np.cos(angle)
    out[..., 0, 1] = s * z
    out[..., 1, 0] = s * np.conj(z)
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


def _kron_left(g, x):
    """G ⊗ X of stacked 2 × 2 G and square X, as x·g (numpy may round g·x otherwise)."""
    m = x.shape[-1]
    out = x[..., None, :, None, :] * g[..., :, None, :, None]
    return out.reshape(out.shape[:-4] + (2 * m, 2 * m))


def _kron_halves(gates):
    """Kronecker factors A = G_0 ⊗ … ⊗ G_{m−1} and B = G_m ⊗ … ⊗ G_{n−1} of
    the two qubit halves, m = ⌈n/2⌉, so that a product layer maps the state
    matrix Ψ (2^m × 2^⌊n/2⌋, row index: the first m qubits) to A Ψ Bᵀ.

    ``gates`` has shape (..., n, 2, 2), and A and B keep its leading axes
    and its dtype.  One batched pass over a (..., half) axis walks both
    halves from their last qubit to their first and puts each gate
    outermost, so every product runs over whole contiguous rows.  Every
    product is elementwise, so the factors of each leading index are bit for
    bit those of its gates alone.  For odd n, G_0 goes outermost on A last;
    for n = 1, B is the 1 × 1 identity.
    """
    n = gates.shape[-3]
    half = n // 2
    pairs = gates[..., n % 2 :, :, :].reshape(gates.shape[:-3] + (2, half, 2, 2))
    out = np.ones(pairs.shape[:-3] + (1, 1), dtype=gates.dtype)
    for q in reversed(range(half)):
        out = _kron_left(pairs[..., q, :, :], out)
    a, b = out[..., 0, :, :], out[..., 1, :, :]
    if n % 2:
        a = _kron_left(gates[..., 0, :, :], a)
    return a, b


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
    """Minimum eigenvalue of the operator; limited to ``MAX_DENSE_QUBITS``.

    The terms that flip the same qubits x are added, in term order, into the
    entries (i ⊕ x, i) of the dense matrix.  When every one of these sums is
    exactly zero wherever i ⊕ x and i differ in popcount, the operator
    conserves the popcount of the basis index (the total magnetization of a
    spin model such as ``heisenberg_hamiltonian``), and the result is the
    smallest of the ``eigvalsh`` ground energies of its n + 1 popcount
    blocks, each at most C(n, ⌊n/2⌋) states square, built by ``block``
    with the states in ascending order.  Any other operator is one block of
    all 2^n states, bit for bit ``eigvalsh(block(np.arange(2**n)))[0]``.
    """
    n = hamiltonian.n_qubits
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"dense diagonalization limited to {MAX_DENSE_QUBITS} qubits")
    states = np.arange(2**n)
    popcount = _basis_bits(n).sum(axis=0)
    sums = {}
    for flip, values in hamiltonian._term_actions(states):
        sums[flip] = sums.get(flip, 0) + values
    conserving = not any(values[popcount[states ^ flip] != popcount].any()
                         for flip, values in sums.items())
    blocks = [states[popcount == k] for k in range(n + 1)] if conserving else [states]
    return min(float(np.linalg.eigvalsh(hamiltonian.block(s))[0]) for s in blocks)


# The largest budget ``rng.binomial`` takes: its trial count is a C long.
MAX_SHOTS = 2**63 - 1
# Bools compare as 0 and 1 but are no shot budget; a type lookup in this
# tuple is the cheapest test on the path of every measurement.
_BOOLS = (bool, np.bool_)


def _shot_count(shots):
    """The int shot count of a budget, None for ``math.inf`` (exact); raises
    ``ValueError`` for anything else, such as zero, a fraction, −inf, NaN, a
    bool or a count past ``MAX_SHOTS``."""
    if shots == math.inf:
        return None
    if type(shots) in _BOOLS or not (1 <= shots <= MAX_SHOTS and shots == int(shots)):
        raise ValueError(f"shots must be a positive integer or math.inf, at most "
                         f"2**63 - 1 shots, got {shots!r}")
    return int(shots)


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


@lru_cache(maxsize=64)
def _measurement_groups(hamiltonian: PauliTermSum):
    """Coefficients and qubit-wise-commuting measurement groups of the terms.

    Terms are placed greedily, in term order, into the first group whose
    basis agrees with them on every qubit where both are not I.  Each group
    is ``(rotation, index, signs)``: the group's basis change, the positions
    of its terms in ``terms``, and the ±1 eigenvalue of each of them on every
    computational basis state after the rotation, one row per term, from the
    qubits' ``_basis_bits``.

    Measuring Z after V = H·diag(1, −i) measures Y, and after H measures X,
    so a group's basis change V = ⊗_q V_q is the diagonal phase (−i)^k, k
    the number of its Y qubits whose bit is 1, followed by the product layer
    of H on its X and Y qubits and I elsewhere.  ``rotation`` is None when every letter is Z or
    I, and otherwise ``(phase, A, B)``: the complex phase vector, None
    without Y letters, and the real Kronecker factors of ``_kron_halves``.
    ``_pauli_term_means`` leaves the probabilities of a rotated state in
    the transposed order of the state matrix, index c·2^⌈n/2⌉ + r for
    basis state r·2^⌊n/2⌋ + c, so the sign rows of a rotated group are
    stored in that order.  Every returned array is read-only.
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

    bits = _basis_bits(n)
    groups = []
    for basis, index in zip(bases, members):
        signs = np.empty((len(index), 2**n))
        for row, i in enumerate(index):
            support = [q for q, c in enumerate(hamiltonian.terms[i][1]) if c != "I"]
            signs[row] = 1.0 - 2.0 * (bits[support].sum(axis=0) % 2)
        rotation = None
        if any(c in "XY" for c in basis):
            y = [q for q, c in enumerate(basis) if c == "Y"]
            phase = None
            if y:
                phase = _read_only(np.array([1, -1j, -1, 1j])[bits[y].sum(axis=0) % 4])
            gates = np.stack([_HADAMARD if c in "XY" else np.eye(2) for c in basis])
            rotation = (phase,) + tuple(map(_read_only, _kron_halves(gates)))
            transposed = signs.reshape(len(index), 2 ** (n - n // 2), -1).swapaxes(1, 2)
            signs = transposed.reshape(len(index), -1)
        groups.append((rotation, _read_only(np.array(index)), _read_only(signs)))
    coeffs = np.array([float(c) for c, _ in hamiltonian.terms])
    return _read_only(coeffs), tuple(groups)


def _pauli_term_means(psi, measurement):
    """Exact ⟨ψ|P_i|ψ⟩ of every term, in term order.

    ``measurement`` is ``_measurement_groups(hamiltonian)``, looked up by the
    caller.  Each qubit-wise-commuting group of terms costs one ±1
    sign-matrix product with the probabilities |Vψ|² of its basis change V.
    V is applied in real arithmetic: after the group's phase, if any, the
    state matrix Ψ (2^⌈n/2⌉ × 2^⌊n/2⌋) is read as floats, real and imaginary
    parts side by side.  One real GEMM forms (A Ψ)ᵀ, laid out as (column,
    part, row), and one batched real GEMM multiplies each part by B, which
    gives the real and the imaginary part of (A Ψ Bᵀ)ᵀ: the probabilities
    come out in the transposed order the group's signs are stored in.
    """
    coeffs, groups = measurement
    psi = np.ascontiguousarray(psi, dtype=np.complex128)
    means = np.empty(coeffs.size)
    for rotation, index, signs in groups:
        if rotation is None:
            probs = psi.real**2 + psi.imag**2
        else:
            phase, a, b = rotation
            phi = psi if phase is None else psi * phase
            floats = phi.view(np.float64).reshape(a.shape[0], -1)
            parts = b @ (floats.T @ a.T).reshape(b.shape[0], 2, -1).swapaxes(0, 1)
            probs = parts[0] ** 2 + parts[1] ** 2
        means[index] = signs @ probs.ravel()
    return means


def expectation_with_shots(psi, hamiltonian: PauliTermSum, shots, rng=None):
    """Energy estimate measuring each Pauli term independently.

    Every term receives the full ``shots`` budget: the exact two-outcome
    distribution over its ±1 eigenvalues is sampled binomially, one draw per
    term in term order, and the weighted sample means are added.  The exact
    term means come from ``_pauli_term_means``; grouping the terms by
    measurement basis only speeds up that computation and changes no draw.
    ``math.inf`` shots returns the exact expectation from the same means.
    Any other budget must be a positive integer (`_shot_count`).
    A state with NaN amplitudes gives NaN.
    """
    shots = _shot_count(shots)
    measurement = _measurement_groups(hamiltonian)
    coeffs, _ = measurement
    means = _pauli_term_means(psi, measurement)
    if shots is None:
        return float(coeffs @ means)
    p_plus = np.clip((1.0 + means) / 2.0, 0.0, 1.0)
    if np.isnan(p_plus).any():
        return float("nan")
    successes = rng.binomial(shots, p_plus)
    return float(coeffs @ (2.0 * successes / shots - 1.0))


def fidelity_with_shots(psi, phi, shots, rng=None):
    """Estimate |⟨ψ|φ⟩|² from a binomial sample of ``shots`` draws, a positive
    integer, or exactly for ``math.inf`` shots (`_shot_count`).

    A non-finite overlap, as from a state with NaN or infinite amplitudes,
    gives NaN without drawing from ``rng``.
    """
    if psi.shape != phi.shape:
        raise ValueError("states must have the same number of qubits")
    shots = _shot_count(shots)
    p = float(abs(np.vdot(psi, phi)) ** 2)
    if not math.isfinite(p):
        return float("nan")
    p = min(1.0, max(0.0, p))
    if shots is None:
        return p
    return rng.binomial(shots, p) / shots
