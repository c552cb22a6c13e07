import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from statevector_reference import (
    apply_product_layer,
    evolve_piecewise,
    pauli_expectation,
    reference_expectation,
    reference_to_dense,
    reference_w_gate,
)

from spsakit.quantum import (
    PauliTermSum,
    apply_single_qubit_gate,
    exact_ground_energy,
    expectation_with_shots,
    fidelity_with_shots,
    haar_random_state,
    heisenberg_hamiltonian,
    w_gate,
)
from spsakit.quantum import (
    _kron_halves,
    _measurement_groups,
    _pauli_term_means,
)


def _full_block(hamiltonian):
    """The 2^n × 2^n matrix Σ_i h_i σ_i: ``block`` over every basis state."""
    return hamiltonian.block(np.arange(2**hamiltonian.n_qubits))


class TestHaarRandomState:
    def test_normalized(self):
        rng = np.random.default_rng(0)
        for n in (1, 3, 6):
            psi = haar_random_state(n, rng)
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-10

    def test_mean_overlap_with_basis_state(self):
        rng = np.random.default_rng(1)
        n = 3
        overlaps = [abs(haar_random_state(n, rng)[0]) ** 2 for _ in range(10_000)]
        assert np.mean(overlaps) == pytest.approx(1 / 2**n, rel=0.05)

    def test_different_seeds_differ(self):
        a = haar_random_state(2, np.random.default_rng(1))
        b = haar_random_state(2, np.random.default_rng(2))
        assert not np.allclose(a, b)


class TestWGate:
    def test_zero_is_identity(self):
        np.testing.assert_array_equal(w_gate(0.0), np.eye(2))

    def test_quarter_pi_maps_zero_to_one(self):
        out = w_gate(np.pi / 4) @ np.array([1.0, 0.0])
        np.testing.assert_allclose(out, [0.0, -1.0j], atol=1e-12)

    def test_unitary_for_random_arguments(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            z = rng.standard_normal() + 1j * rng.standard_normal()
            w = w_gate(z)
            np.testing.assert_allclose(w.conj().T @ w, np.eye(2), atol=1e-12)

    def test_matches_dense_exponential(self):
        from scipy.linalg import expm

        z = 0.4 - 0.7j
        gen = np.array([[0, 2 * z], [2 * np.conj(z), 0]])
        np.testing.assert_allclose(w_gate(z), expm(-1j * gen), atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-300, 1e-3, 1.0, 1e3]))
    def test_gate_stack_bit_identical_to_reference_formula(self, seed, scale):
        rng = np.random.default_rng(seed)
        z = scale * (rng.standard_normal(20) + 1j * rng.standard_normal(20))
        z = np.concatenate([z, [0.0, 5e-324, -5e-324j, 1e3, 1e3j, 600 - 800j]])
        assert w_gate(z).tobytes() == reference_w_gate(z).tobytes()
        assert w_gate(z[3]).tobytes() == reference_w_gate(z[3]).tobytes()


class TestHeisenbergHamiltonian:
    def test_single_site_field_only(self):
        ham = heisenberg_hamiltonian(1, 1.0, 0.3)
        assert ham.terms == ((0.3, "Z"),)
        assert exact_ground_energy(ham) == pytest.approx(-0.3)

    def test_two_site_spectrum(self):
        ham = heisenberg_hamiltonian(2, 1.0, 0.0)
        w = np.linalg.eigvalsh(_full_block(ham))
        np.testing.assert_allclose(w, [-3.0, 1.0, 1.0, 1.0], atol=1e-12)
        assert exact_ground_energy(ham) == pytest.approx(-3.0)

    def test_ring_term_count(self):
        ham = heisenberg_hamiltonian(10, 1.0, 0.3, periodic=True)
        coupling = [t for t in ham.terms if t[1].count("Z") != 1 or "X" in t[1] or "Y" in t[1]]
        field = [t for t in ham.terms if sorted(t[1]) == sorted("Z" + "I" * 9)]
        assert len(field) == 10
        assert len(ham.terms) - len(field) == 30  # 10 bonds x (XX, YY, ZZ)
        assert len(ham.terms) == 40

    def test_periodic_two_sites_rejected(self):
        with pytest.raises(ValueError):
            heisenberg_hamiltonian(2, 1.0, 0.0, periodic=True)

    def test_three_site_ring_matches_dense_oracle(self):
        ham = heisenberg_hamiltonian(3, 1.0, 0.0, periodic=True)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        y = np.array([[0, -1j], [1j, 0]])
        z = np.diag([1.0, -1.0]).astype(complex)
        eye = np.eye(2)
        dense = np.zeros((8, 8), dtype=complex)
        for a, b in [(0, 1), (1, 2), (2, 0)]:
            for op in (x, y, z):
                mats = [eye, eye, eye]
                mats[a] = op
                mats[b] = op
                dense += np.kron(np.kron(mats[0], mats[1]), mats[2])
        expected = np.linalg.eigvalsh(dense)[0]
        assert exact_ground_energy(ham) == pytest.approx(expected, abs=1e-10)

    def test_ring_spectrum_invariant_under_cyclic_relabeling(self):
        ham = heisenberg_hamiltonian(4, 1.0, 0.3, periodic=True)
        spectrum = np.linalg.eigvalsh(_full_block(ham))
        # shift every string cyclically by one qubit
        shifted = PauliTermSum(
            n_qubits=4,
            terms=tuple((c, label[-1] + label[:-1]) for c, label in ham.terms),
        )
        np.testing.assert_allclose(np.linalg.eigvalsh(_full_block(shifted)), spectrum,
                                   atol=1e-10)

    def test_too_many_qubits_for_dense(self):
        ham = heisenberg_hamiltonian(13, 1.0, 0.0)
        with pytest.raises(ValueError):
            exact_ground_energy(ham)


class TestPauliExpectation:
    def test_matches_dense_on_random_states(self):
        rng = np.random.default_rng(3)
        for n in (2, 4, 6):
            ham = heisenberg_hamiltonian(n, 0.7, -0.2, periodic=n > 2)
            dense = _full_block(ham)
            for _ in range(5):
                psi = haar_random_state(n, rng)
                exact = float(np.real(np.vdot(psi, dense @ psi)))
                total = sum(c * pauli_expectation(psi, lab) for c, lab in ham.terms)
                assert total == pytest.approx(exact, abs=1e-10)


class TestExpectationWithShots:
    def test_eigenstate_exact_regardless_of_shots(self):
        ham = PauliTermSum(n_qubits=1, terms=((0.7, "Z"),))
        psi = np.array([1.0, 0.0], dtype=complex)
        rng = np.random.default_rng(4)
        assert expectation_with_shots(psi, ham, 10, rng) == pytest.approx(0.7)

    def test_plus_state_binomial_noise(self):
        ham = PauliTermSum(n_qubits=1, terms=((1.0, "Z"),))
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        rng = np.random.default_rng(5)
        shots = 20_000
        est = expectation_with_shots(plus, ham, shots, rng)
        assert abs(est) <= 3.0 / np.sqrt(shots)

    def test_infinite_shots_matches_dense(self):
        rng = np.random.default_rng(6)
        for n in (2, 5):
            ham = heisenberg_hamiltonian(n, 1.0, 0.5, periodic=n > 2)
            dense = _full_block(ham)
            psi = haar_random_state(n, rng)
            expected = float(np.real(np.vdot(psi, dense @ psi)))
            assert expectation_with_shots(psi, ham, math.inf) == pytest.approx(expected, abs=1e-10)

    def test_nan_state_gives_nan(self):
        ham = heisenberg_hamiltonian(2, 1.0, 0.3)
        psi = np.full(4, np.nan, dtype=complex)
        assert math.isnan(expectation_with_shots(psi, ham, 100, np.random.default_rng(0)))
        assert math.isnan(expectation_with_shots(psi, ham, math.inf))

    def test_none_shots_rejected(self):
        # math.inf is the only spelling of exact measurement
        psi = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(TypeError):
            expectation_with_shots(psi, heisenberg_hamiltonian(1, 1.0, 0.3), None)

    @pytest.mark.parametrize("shots", [-math.inf, 0, 2.5, math.nan])
    def test_invalid_shot_budget_rejected(self, shots):
        psi = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(ValueError, match="shots must be a positive integer or math.inf"):
            expectation_with_shots(psi, heisenberg_hamiltonian(1, 1.0, 0.3), shots,
                                   np.random.default_rng(0))


@st.composite
def _pauli_sums(draw):
    n = draw(st.integers(1, 6))
    labels = draw(st.lists(st.text("IXYZ", min_size=n, max_size=n), min_size=1, max_size=12))
    coeffs = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(labels), max_size=len(labels)))
    return PauliTermSum(n_qubits=n, terms=tuple(zip(coeffs, labels)))


_MIXED = PauliTermSum(n_qubits=4, terms=(
    (0.5, "XYZI"), (-1.0, "IIII"), (0.25, "YYII"),
    (2.0, "XIZZ"), (0.7, "IYZI"), (-0.3, "ZZZZ"),
))


class TestGroupedMeasurement:
    @settings(max_examples=80, deadline=None)
    @given(ham=_pauli_sums(), seed=st.integers(0, 2**32 - 1))
    @example(ham=_MIXED, seed=0)
    @example(ham=PauliTermSum(n_qubits=3, terms=((1.0, "III"), (-2.0, "III"))), seed=1)
    def test_term_means_match_per_term_expectations(self, ham, seed):
        psi = haar_random_state(ham.n_qubits, np.random.default_rng(seed))
        expected = [pauli_expectation(psi, label) for _, label in ham.terms]
        means = _pauli_term_means(psi, _measurement_groups(ham))
        np.testing.assert_allclose(means, expected, rtol=0, atol=1e-12)

    def test_one_group_lookup_per_measurement(self):
        ham = heisenberg_hamiltonian(6, 1.0, 0.3, periodic=True)
        psi = haar_random_state(6, np.random.default_rng(3))
        rng = np.random.default_rng(4)

        def lookups():
            info = _measurement_groups.cache_info()
            return info.hits + info.misses

        for shots in (100, math.inf, 100):
            before = lookups()
            expectation_with_shots(psi, ham, shots, rng)
            assert lookups() == before + 1

    @settings(max_examples=80, deadline=None)
    @given(p=st.lists(st.floats(0.0, 1.0), max_size=40),
           shots=st.integers(1, 10**6), seed=st.integers(0, 2**32 - 1))
    def test_vectorized_binomial_matches_sequential_draws(self, p, shots, seed):
        vec_rng, seq_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        vectorized = vec_rng.binomial(shots, np.array(p, dtype=np.float64))
        sequential = [seq_rng.binomial(shots, pi) for pi in p]
        assert vectorized.tolist() == sequential
        assert vec_rng.random() == seq_rng.random()

    @settings(max_examples=40, deadline=None)
    @given(ham=_pauli_sums(), shots=st.integers(1, 10**5), seed=st.integers(0, 2**32 - 1))
    @example(ham=_MIXED, shots=2 * 10**4, seed=0)
    def test_shot_estimate_matches_per_term_sampling(self, ham, shots, seed):
        psi = haar_random_state(ham.n_qubits, np.random.default_rng(seed))
        rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        got = expectation_with_shots(psi, ham, shots, rng)
        assert got == pytest.approx(reference_expectation(psi, ham, shots, ref_rng),
                                    rel=1e-12, abs=1e-12)
        assert rng.random() == ref_rng.random()

    def test_product_layer_matches_gate_by_gate(self):
        rng = np.random.default_rng(20)
        for n in (1, 2, 5):
            gates = w_gate(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            psi = haar_random_state(n, rng)
            expected = psi
            for q in range(n):
                expected = apply_single_qubit_gate(gates[q], q, expected)
            np.testing.assert_allclose(apply_product_layer(gates, psi), expected, atol=1e-12)
        with pytest.raises(ValueError):
            apply_product_layer(gates[:2], psi)

    def test_batched_kron_halves_match_per_layer_kron(self):
        rng = np.random.default_rng(21)
        one = np.ones((1, 1))
        for n in (1, 2, 3, 6, 7):
            z = rng.standard_normal((2, 3, n)) + 1j * rng.standard_normal((2, 3, n))
            gates = w_gate(z)
            m = n - n // 2
            factors = _kron_halves(gates)
            assert factors[0].shape == (2, 3, 2**m, 2**m)
            assert factors[1].shape == (2, 3, 2 ** (n - m), 2 ** (n - m))
            for layer, a, b in zip(gates.reshape(6, n, 2, 2),
                                   *(f.reshape((6,) + f.shape[2:]) for f in factors)):
                for got, halve in ((a, layer[:m]), (b, layer[m:])):
                    np.testing.assert_allclose(got, reduce(np.kron, halve, one),
                                               rtol=0, atol=1e-15)
                # each leading index is bit for bit the factors of its gates alone
                for got, alone in zip((a, b), _kron_halves(layer)):
                    assert got.tobytes() == alone.tobytes()
            real = _kron_halves(gates.real)
            assert real[0].dtype == real[1].dtype == np.float64


class TestFidelityWithShots:
    def test_identical_states(self):
        psi = haar_random_state(3, np.random.default_rng(7))
        assert fidelity_with_shots(psi, psi, 100, np.random.default_rng(0)) == 1.0

    def test_orthogonal_states(self):
        a = np.array([1.0, 0.0], dtype=complex)
        b = np.array([0.0, 1.0], dtype=complex)
        assert fidelity_with_shots(a, b, 100, np.random.default_rng(0)) == 0.0

    def test_binomial_moments(self):
        a = np.array([1.0, 0.0], dtype=complex)
        b = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)  # p = 0.5
        rng = np.random.default_rng(8)
        shots = 20_000
        samples = [fidelity_with_shots(a, b, shots, rng) for _ in range(400)]
        assert np.mean(samples) == pytest.approx(0.5, abs=3 * 3.5e-3)
        assert np.std(samples) == pytest.approx(np.sqrt(0.25 / shots), rel=0.25)

    def test_unbiased(self):
        rng = np.random.default_rng(9)
        a = haar_random_state(2, rng)
        b = haar_random_state(2, rng)
        p = abs(np.vdot(a, b)) ** 2
        shots = 1000
        n = 10_000
        samples = [fidelity_with_shots(a, b, shots, rng) for _ in range(n)]
        se = np.sqrt(p * (1 - p) / shots / n)
        assert np.mean(samples) == pytest.approx(p, abs=3 * se)

    def test_exact_sentinel(self):
        rng = np.random.default_rng(10)
        a = haar_random_state(2, rng)
        b = haar_random_state(2, rng)
        assert fidelity_with_shots(a, b, math.inf) == pytest.approx(abs(np.vdot(a, b)) ** 2)

    def test_none_shots_rejected(self):
        # math.inf is the only spelling of exact measurement
        a = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(TypeError):
            fidelity_with_shots(a, a, None)

    @pytest.mark.parametrize("shots", [-math.inf, 0, 2.5, math.nan])
    def test_invalid_shot_budget_rejected(self, shots):
        a = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(ValueError, match="shots must be a positive integer or math.inf"):
            fidelity_with_shots(a, a, shots, np.random.default_rng(0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity_with_shots(np.ones(2) / np.sqrt(2), np.ones(4) / 2.0, 10,
                                np.random.default_rng(0))

    @pytest.mark.parametrize("shots", [math.inf, 100])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_state_gives_nan_without_drawing(self, bad, shots):
        a = np.array([1.0, 0.0], dtype=complex)
        rng = np.random.default_rng(11)
        before = rng.bit_generator.state
        for b in (np.array([bad, 0.5], dtype=complex), np.array([0.5, bad], dtype=complex)):
            with np.errstate(invalid="ignore"):
                assert math.isnan(fidelity_with_shots(a, b, shots, rng))
                assert math.isnan(fidelity_with_shots(b, a, shots, rng))
        assert rng.bit_generator.state == before


class TestEvolvePiecewise:
    def test_zero_generators_identity(self):
        psi = haar_random_state(2, np.random.default_rng(11))
        out = evolve_piecewise(psi, [(np.zeros((4, 4)), 1.0)] * 3)
        np.testing.assert_allclose(out, psi, atol=1e-12)

    def test_pauli_z_full_period(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        psi = np.array([1.0, 0.0], dtype=complex)
        out = evolve_piecewise(psi, [(z, np.pi)])
        assert abs(np.vdot(psi, out)) == pytest.approx(1.0)
        np.testing.assert_allclose(out, -psi, atol=1e-12)  # global phase e^{-i pi}

    def test_norm_preserved_random_slices(self):
        rng = np.random.default_rng(12)
        psi = haar_random_state(5, rng)
        slices = []
        for _ in range(25):
            m = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
            slices.append(((m + m.conj().T) / 2, 0.1))
        out = evolve_piecewise(psi, slices)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-9

    def test_non_hermitian_rejected(self):
        psi = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(ValueError):
            evolve_piecewise(psi, [(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)])

    def test_order_of_application(self):
        # X then Z on |0>: Z X |0> = Z|1> = -|1>; generators scaled to quarter turns
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0, -1.0]).astype(complex)
        psi = np.array([1.0, 0.0], dtype=complex)
        out = evolve_piecewise(psi, [(x, np.pi / 2), (z, np.pi / 2)])
        # e^{-i pi/2 X} |0> = -i|1>, then e^{-i pi/2 Z}(-i|1>) = -i e^{i pi/2}|1> = |1>
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)


class TestPauliTermSum:
    def test_rejects_bad_strings(self):
        with pytest.raises(ValueError):
            PauliTermSum(n_qubits=2, terms=((1.0, "XQ"),))
        with pytest.raises(ValueError):
            PauliTermSum(n_qubits=2, terms=((1.0, "X"),))

    def test_dense_is_hermitian(self):
        ham = heisenberg_hamiltonian(3, 0.8, 0.1)
        dense = _full_block(ham)
        np.testing.assert_allclose(dense, dense.conj().T, atol=1e-14)


def _random_pauli_sum(n, kind, rng):
    """A few terms with random letters and coefficients of mixed sign and
    size; ``kind`` adds identity-only terms, forces an odd number of Y
    letters into one term, or repeats labels."""
    labels = ["".join(rng.choice(list("IXYZ"), n)) for _ in range(4)]
    if kind == "identity":
        labels += ["I" * n] * 2
    elif kind == "odd_y":
        labels[0] = "Y" + labels[0][1:].replace("Y", "X")
    elif kind == "repeated":
        labels += [labels[0], labels[1], labels[0]]
    coeffs = rng.standard_normal(len(labels)) * 10.0 ** rng.integers(-3, 4, len(labels))
    return PauliTermSum(n_qubits=n, terms=tuple(zip(coeffs.tolist(), labels)))


def _reference_dense(hamiltonian):
    """The Kronecker-chain matrix, as its real part when the imaginary part
    vanishes below 1e-14."""
    dense = reference_to_dense(hamiltonian)
    if np.abs(dense.imag).max(initial=0.0) < 1e-14:
        return np.ascontiguousarray(dense.real)
    return dense


def _reference_sector_ground_energy(hamiltonian):
    """The smallest ``eigvalsh`` ground energy of the popcount blocks sliced,
    in ascending state order, from the Kronecker-chain matrix."""
    dense = _reference_dense(hamiltonian)
    popcount = np.array([bin(i).count("1") for i in range(dense.shape[0])])
    return min(float(np.linalg.eigvalsh(dense[np.ix_(s, s)])[0])
               for s in (np.flatnonzero(popcount == k)
                         for k in range(hamiltonian.n_qubits + 1)))


def _conserves_popcount(dense):
    popcount = np.array([bin(i).count("1") for i in range(dense.shape[0])])
    return not dense[popcount[:, None] != popcount].any()


class TestToDense:
    @pytest.mark.parametrize("kind", ["random", "identity", "odd_y", "repeated"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_bit_identical_to_the_kronecker_chain(self, n, kind):
        rng = np.random.default_rng([n, len(kind)])
        for _ in range(5):
            ham = _random_pauli_sum(n, kind, rng)
            dense, ref = _full_block(ham), reference_to_dense(ham)
            if dense.dtype == np.float64:
                assert not ref.imag.any()
                ref = np.ascontiguousarray(ref.real)
            assert dense.shape == (2**n, 2**n)
            assert dense.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("terms, dtype", [
        ((), np.float64),
        (((1.0, "II"),), np.float64),
        (((0.5, "XZ"), (-2.0, "YY")), np.float64),
        (((1.0, "YY"), (0.3, "YI")), np.complex128),
        (((1.0, "XY"),), np.complex128),
        (((1.0, "YYY"),), np.complex128),
    ])
    def test_float64_exactly_when_every_term_has_an_even_number_of_y(self, terms, dtype):
        n = len(terms[0][1]) if terms else 3
        assert _full_block(PauliTermSum(n_qubits=n, terms=terms)).dtype == dtype

    @pytest.mark.parametrize("n, periodic", [(n, periodic) for n in range(2, 11)
                                             for periodic in (False, True)
                                             if n >= 3 or not periodic])
    def test_heisenberg_ground_energy_bit_identical(self, n, periodic):
        # bit for bit against the popcount blocks of the Kronecker chain; the
        # full spectrum agrees to roundoff, and the ground energy's last bits
        # depend on the BLAS thread count, so the 10-qubit ring's value is
        # pinned only to 1e-12
        ham = heisenberg_hamiltonian(n, 1.0, 0.3, periodic)
        energy = exact_ground_energy(ham)
        assert energy == _reference_sector_ground_energy(ham)
        full = float(np.linalg.eigvalsh(_reference_dense(ham))[0])
        assert energy == pytest.approx(full, rel=1e-12)
        if n == 10 and periodic:
            assert energy == pytest.approx(-18.0617854179682, rel=0, abs=1e-12)


class TestBlock:
    @pytest.mark.parametrize("kind", ["random", "identity", "odd_y", "repeated"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_bit_identical_to_slices_of_the_dense_matrix(self, n, kind):
        rng = np.random.default_rng([n, len(kind), 1])
        for _ in range(5):
            ham = _random_pauli_sum(n, kind, rng)
            dense = _full_block(ham)
            for size in (0, 1, rng.integers(1, 2**n + 1), 2**n):
                states = rng.permutation(2**n)[:size]
                block = ham.block(states)
                assert block.dtype == dense.dtype
                assert block.shape == (size, size)
                assert block.tobytes() == dense[np.ix_(states, states)].tobytes()


class TestExactGroundEnergyBySector:
    @pytest.mark.parametrize("terms", [
        ((1.0, "XX"),),
        ((1.0, "XX"), (0.5, "YY")),
        ((1.0, "XI"), (0.3, "ZZ")),
        ((0.7, "XY"), (0.7, "YX"), (0.2, "ZI")),
        ((1.0, "XXI"), (1.0, "YYI"), (0.5, "IXX")),
    ])
    def test_operator_that_changes_popcount_is_one_block(self, terms):
        ham = PauliTermSum(n_qubits=len(terms[0][1]), terms=terms)
        dense = _full_block(ham)
        assert not _conserves_popcount(dense)
        assert exact_ground_energy(ham) == float(np.linalg.eigvalsh(dense)[0])

    @pytest.mark.parametrize("kind", ["random", "identity", "odd_y", "repeated"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_random_pauli_sums(self, n, kind):
        # bit for bit the full spectrum's minimum unless the sum happens to
        # conserve popcount (only I and Z letters, say); then the sector
        # blocks of the Kronecker chain, and the full spectrum to roundoff
        rng = np.random.default_rng([n, len(kind), 2])
        one_block = 0
        for _ in range(5):
            ham = _random_pauli_sum(n, kind, rng)
            dense = _full_block(ham)
            energy = exact_ground_energy(ham)
            full = float(np.linalg.eigvalsh(dense)[0])
            if _conserves_popcount(dense):
                assert energy == _reference_sector_ground_energy(ham)
                assert energy == pytest.approx(full, rel=1e-12, abs=1e-12 * abs(dense).max())
            else:
                one_block += 1
                assert energy == full
        assert one_block >= 3

    @pytest.mark.parametrize("ham, sizes", [
        (heisenberg_hamiltonian(10, 1.0, 0.3, periodic=True), [math.comb(10, k) for k in range(11)]),
        (heisenberg_hamiltonian(3, 0.0, 0.0), [1, 3, 3, 1]),
        (PauliTermSum(n_qubits=3, terms=((1.0, "XXI"), (0.3, "ZZZ"))), [8]),
    ])
    def test_blocks_built(self, monkeypatch, ham, sizes):
        # n + 1 popcount blocks in ascending popcount, or one of all states
        built, block = [], PauliTermSum.block
        monkeypatch.setattr(PauliTermSum, "block",
                            lambda self, states: built.append(len(states)) or block(self, states))
        exact_ground_energy(ham)
        assert built == sizes

    def test_complex_operator_that_conserves_popcount(self):
        # XY − YX (a Dzyaloshinskii-Moriya coupling) moves one spin up and
        # one down, so its sums cancel on the popcount-changing entries
        ham = PauliTermSum(n_qubits=3, terms=((0.7, "XYI"), (-0.7, "YXI"), (0.4, "IXY"),
                                              (-0.4, "IYX"), (0.2, "ZII")))
        dense = _reference_dense(ham)
        assert dense.dtype == np.complex128 and _conserves_popcount(dense)
        energy = exact_ground_energy(ham)
        assert energy == _reference_sector_ground_energy(ham)
        assert energy == pytest.approx(float(np.linalg.eigvalsh(dense)[0]), rel=1e-12)

    @pytest.mark.parametrize("j, h", [(1.0, 0.3), (-1.0, 0.3), (1.0, -0.3), (-0.5, -2.0),
                                      (0.0, 0.3), (0.0, -0.3), (1.0, 0.0), (-1.0, 0.0),
                                      (0.0, 0.0)])
    @pytest.mark.parametrize("n, periodic", [(1, False), (2, False), (5, False), (5, True),
                                             (6, True), (8, True)])
    def test_heisenberg_conserves_popcount(self, n, periodic, j, h):
        ham = heisenberg_hamiltonian(n, j, h, periodic)
        dense = _reference_dense(ham)
        assert _conserves_popcount(dense)
        energy = exact_ground_energy(ham)
        assert energy == _reference_sector_ground_energy(ham)
        assert energy == pytest.approx(float(np.linalg.eigvalsh(dense)[0]), rel=1e-12)
