import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.linalg
from statevector_reference import (
    evolve_piecewise,
    reference_grape_final_state,
    reference_oracles,
    reference_vqe_state,
)

import spsakit.applications as applications
from spsakit.applications import (
    ENTANGLERS,
    GrapeProblem,
    SgqtProblem,
    VqeProblem,
    entangling_layer,
    grape_final_state,
    make_oracles,
    vqe_state,
)
from spsakit.bench import run_single
from spsakit.estimators import (
    COMPLEX,
    REAL,
    gradient_estimate,
    interleave_complex,
    sample_perturbation,
)
from spsakit.optimizers import OptimizerConfig, run
from spsakit.quantum import exact_ground_energy, haar_random_state, heisenberg_hamiltonian


class TestEntanglingLayer:
    def test_preserves_all_zeros(self):
        for kind in ("cz_ring", "ccz_ring"):
            diag = entangling_layer(4, kind)
            assert diag[0] == 1.0

    def test_cz_on_two_qubits(self):
        diag = entangling_layer(2, "cz_ring")
        np.testing.assert_array_equal(diag, [1, 1, 1, -1])

    def test_squares_to_identity(self):
        for kind in ("cz_ring", "ccz_ring"):
            for n in (2, 3, 5):
                diag = entangling_layer(n, kind)
                np.testing.assert_array_equal(diag * diag, np.ones(2**n))

    def test_entangles_plus_states(self):
        # applying the layer to |+...+> must leave the product manifold
        n = 3
        for kind in ("cz_ring", "ccz_ring"):
            diag = entangling_layer(n, kind)
            psi = diag * np.full(2**n, 2 ** (-n / 2), dtype=complex)
            rho = psi.reshape(2, 4)
            s = np.linalg.svd(rho, compute_uv=False)
            assert (s > 1e-9).sum() > 1

    def test_single_qubit_rejected(self):
        with pytest.raises(ValueError):
            entangling_layer(1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            entangling_layer(3, "swap_net")


_PARAMETER = st.one_of(
    st.just(0j),
    st.floats(-3.0, 3.0).map(complex),
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def _vqe_inputs(draw):
    layers = draw(st.integers(0, 3))
    n = draw(st.integers(2 if layers else 1, 8))
    entangler = draw(st.sampled_from(ENTANGLERS))
    size = n * (layers + 1)
    z = draw(st.lists(_PARAMETER, min_size=size, max_size=size))
    return VqeProblem(n_qubits=n, layers=layers, entangler=entangler), np.array(z)


class TestVqe:
    def test_parameter_count(self):
        rng = np.random.default_rng(0)
        assert VqeProblem(n_qubits=10, layers=1).initial_point(rng).shape == (20,)
        assert VqeProblem(n_qubits=4, layers=3).initial_point(rng).shape == (16,)

    def test_zero_parameters_energy(self):
        # W(0) = I and diagonal entangler leave |0...0>; ZZ terms give +1 each
        for periodic, bonds in ((True, 4), (False, 3)):
            prob = VqeProblem(n_qubits=4, layers=1, j=1.0, h=0.3, periodic=periodic,
                              shots=math.inf)
            energy = make_oracles(prob, None).objective(np.zeros(8, dtype=complex))
            assert energy == pytest.approx(bonds * 1.0 + 4 * 0.3)

    def test_exact_oracle_matches_shot_oracle_at_infinity(self):
        prob = VqeProblem(n_qubits=3, layers=1, j=1.0, h=0.3, periodic=True,
                          shots=math.inf)
        rng = np.random.default_rng(0)
        z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        oracles = make_oracles(prob, None)
        assert oracles.objective(z) == pytest.approx(oracles.monitor(z), abs=1e-12)

    def test_energy_bounded_below_by_ground_energy(self):
        prob = VqeProblem(n_qubits=4, layers=2, shots=math.inf)
        ham = heisenberg_hamiltonian(4, 1.0, 0.3, True)
        e0 = exact_ground_energy(ham)
        assert prob.exact_minimum() == e0
        monitor = make_oracles(prob, None).monitor
        rng = np.random.default_rng(1)
        for _ in range(20):
            z = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            assert monitor(z) >= e0 - 1e-10

    def test_wrong_parameter_count_rejected(self):
        prob = VqeProblem(n_qubits=4, layers=1)
        with pytest.raises(ValueError):
            vqe_state(prob, np.zeros(7, dtype=complex))

    def test_fidelity_identical_params(self):
        prob = VqeProblem(n_qubits=3, layers=1, shots=math.inf)
        rng = np.random.default_rng(2)
        z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert make_oracles(prob, None).fidelity(z, z) == pytest.approx(1.0)

    def test_fidelity_matches_exact_overlap(self):
        prob = VqeProblem(n_qubits=3, layers=1, shots=math.inf)
        rng = np.random.default_rng(3)
        za = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        zb = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        expected = abs(np.vdot(vqe_state(prob, za), vqe_state(prob, zb))) ** 2
        assert make_oracles(prob, None).fidelity(za, zb) == pytest.approx(expected, abs=1e-10)

    def test_shot_noise_scale(self):
        prob = VqeProblem(n_qubits=2, layers=1, j=1.0, h=0.0, periodic=False,
                          shots=2e4)
        rng = np.random.default_rng(4)
        z = 0.3 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        oracles = make_oracles(prob, rng)
        exact = oracles.monitor(z)
        samples = [oracles.objective(z) for _ in range(200)]
        # three terms, each bounded by binomial noise on 2e4 shots
        assert np.mean(samples) == pytest.approx(exact, abs=5e-3)

    @settings(max_examples=60, deadline=None)
    @given(_vqe_inputs())
    def test_state_matches_gate_by_gate_build(self, inputs):
        prob, z = inputs
        psi = vqe_state(prob, z)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(psi, reference_vqe_state(prob, z), rtol=0, atol=1e-12)


class TestGrape:
    def test_parameter_count(self):
        z0 = GrapeProblem(n_qubits=5, slices=25).initial_point(np.random.default_rng(0))
        np.testing.assert_array_equal(z0, np.zeros(75))

    def test_zero_controls_identity(self):
        rng = np.random.default_rng(5)
        psi0 = haar_random_state(2, rng)
        prob = GrapeProblem(n_qubits=2, slices=5, shots=math.inf, psi0=psi0)
        controls = np.zeros(15, dtype=complex)
        out = grape_final_state(prob, controls)
        np.testing.assert_allclose(out, psi0, atol=1e-12)
        target = np.zeros(4, dtype=complex)
        target[0] = 1.0
        expected = 1.0 - abs(np.vdot(target, psi0)) ** 2
        assert make_oracles(prob, None).objective(controls) == pytest.approx(expected, abs=1e-12)

    def test_target_start_zero_infidelity(self):
        target = np.zeros(4, dtype=complex)
        target[0] = 1.0
        prob = GrapeProblem(n_qubits=2, slices=3, shots=math.inf, psi0=target)
        assert make_oracles(prob, None).objective(np.zeros(9, dtype=complex)) == pytest.approx(0.0)

    def test_real_controls_match_hermitian_evolution(self):
        # with real couplings the generator is hermitian: compare against
        # the generic piecewise evolution
        from spsakit.applications import _bond_operators

        rng = np.random.default_rng(6)
        psi0 = haar_random_state(2, rng)
        prob = GrapeProblem(n_qubits=2, slices=4, shots=math.inf, psi0=psi0)
        controls = rng.standard_normal(12).astype(complex)
        out = grape_final_state(prob, controls)
        bonds = _bond_operators(2, False)
        slices = []
        for m in range(4):
            h_m = -0.5 * sum(controls[3 * m + k].real * bonds[k] for k in range(3))
            slices.append((h_m, prob.dt))
        expected = evolve_piecewise(psi0, slices)
        phase = np.vdot(expected, out)
        np.testing.assert_allclose(out, expected * np.sign(phase), atol=1e-10)

    def test_shots_inf_matches_dense_computation(self):
        rng = np.random.default_rng(7)
        psi0 = haar_random_state(2, rng)
        prob = GrapeProblem(n_qubits=2, slices=3, shots=math.inf, psi0=psi0)
        controls = 0.4 * (rng.standard_normal(9) + 1j * rng.standard_normal(9))
        out = grape_final_state(prob, controls)
        target = np.zeros(4, dtype=complex)
        target[0] = 1.0
        expected = 1.0 - abs(np.vdot(target, out)) ** 2
        oracles = make_oracles(prob, None)
        assert oracles.objective(controls) == pytest.approx(expected, abs=1e-12)
        assert oracles.monitor(controls) == pytest.approx(expected, abs=1e-12)

    def test_imaginary_controls_change_the_state(self):
        rng = np.random.default_rng(8)
        psi0 = haar_random_state(2, rng)
        prob = GrapeProblem(n_qubits=2, slices=1, shots=math.inf, psi0=psi0)
        real_ctrl = np.array([0.3, 0.2, -0.4], dtype=complex)
        out_real = grape_final_state(prob, real_ctrl)
        out_mixed = grape_final_state(prob, real_ctrl + 0.5j * np.ones(3))
        assert abs(abs(np.vdot(out_real, out_mixed)) - 1.0) > 1e-3

    def test_wrong_length_rejected(self):
        prob = GrapeProblem(n_qubits=2, slices=5, psi0=np.array([1, 0, 0, 0], complex))
        with pytest.raises(ValueError):
            make_oracles(prob, None).objective(np.zeros(14, dtype=complex))

    def test_single_slice_single_pair_solvable(self):
        # 2-qubit, one slice, ZZ control only: |psi0> = e^{+i t ZZ/2}|target>
        # is driven exactly back onto the target by J_z = t / dt
        from spsakit.applications import _bond_operators

        bonds = _bond_operators(2, False)
        target = np.zeros(4, dtype=complex)
        target[0] = 1.0
        t = 0.7
        w, u = np.linalg.eigh(-0.5 * bonds[2])
        psi0 = u @ (np.exp(1j * t * w) * (u.conj().T @ target))
        prob = GrapeProblem(n_qubits=2, slices=1, shots=math.inf, psi0=psi0)
        controls = np.array([0.0, 0.0, t / prob.dt], dtype=complex)
        assert make_oracles(prob, None).objective(controls) == pytest.approx(0.0, abs=1e-12)

    def test_propagator_norm_beyond_squaring_cap_gives_nan(self):
        from spsakit.applications import _expm_stack

        theta = 2.5 * 2.0**60  # needs 62 squarings; the cap is 60
        out = _expm_stack(np.array([[[-1j * theta]], [[0.5j]]]))
        assert np.isnan(out).all()
        ok = _expm_stack(np.array([[[-12j]], [[0.5j]]]))
        np.testing.assert_allclose(ok[:, 0, 0], np.exp([-12j, 0.5j]), atol=1e-8)

    @pytest.mark.parametrize("n, periodic", [
        (n, periodic) for n in range(1, 8) for periodic in (False, True)
        if n >= 3 or not periodic
    ])
    def test_bond_operators_preserve_parity_and_flip_symmetry(self, n, periodic):
        # no entries between even- and odd-popcount states; for odd n the
        # odd sector, ordered as complements of the even states, carries
        # the same matrices as the even sector
        from spsakit.applications import _bond_operators

        parity = np.array([bin(i).count("1") % 2 for i in range(2**n)])
        bonds = _bond_operators(n, periodic)
        assert np.count_nonzero(bonds[:, parity[:, None] != parity]) == 0
        if n % 2:
            even = np.flatnonzero(parity == 0)
            odd = even ^ (2**n - 1)
            np.testing.assert_array_equal(bonds[:, odd[:, None], odd],
                                          bonds[:, even[:, None], even])

    @pytest.mark.parametrize("n, periodic", [
        (n, periodic) for n in range(1, 8) for periodic in (False, True)
        if n >= 3 or not periodic
    ])
    def test_bond_sectors_rebuild_the_full_operators(self, n, periodic):
        from spsakit.applications import _bond_operators, _bond_sectors

        index, blocks = _bond_sectors(n, periodic)
        h = 2 ** (n - 1)
        nb = 1 if n % 2 else 2
        assert index.shape == (nb, h, 2 // nb)
        assert blocks.shape == (nb, 3, h, h)
        np.testing.assert_array_equal(np.sort(index, axis=None), np.arange(2**n))
        full = np.zeros((3, 2**n, 2**n))
        for b in range(nb):
            for states in index[b].T:
                full[:, states[:, None], states] = blocks[b]
        np.testing.assert_array_equal(full, _bond_operators(n, periodic))

    @staticmethod
    def _grape_inputs(bound):
        # n = 1-7 open or periodic (n >= 3), 1-4 slices, complex controls
        # whose real and imaginary parts lie in [-bound, bound] or are 0
        part = st.one_of(st.just(0.0), st.floats(-bound, bound))

        @st.composite
        def inputs(draw):
            n = draw(st.integers(1, 7))
            periodic = n >= 3 and draw(st.booleans())
            slices = draw(st.integers(1, 4))
            re, im = (np.array(draw(st.lists(part, min_size=3 * slices,
                                             max_size=3 * slices))) for _ in "ri")
            psi0 = haar_random_state(n, np.random.default_rng(draw(st.integers(0, 2**16))))
            prob = GrapeProblem(n_qubits=n, slices=slices, periodic=periodic, psi0=psi0)
            return prob, re + 1j * im

        return inputs()

    @settings(max_examples=80, deadline=None)
    @given(_grape_inputs(0.05))
    def test_final_state_matches_dense_expm_reference(self, inputs):
        # |parts| <= 0.05 keeps every generator's row-sum norm below 3/4
        # (0.5 * sqrt(2) * 0.05 * 21 at n = 7 periodic), where the degree-12
        # Taylor sum errs by < 1e-11; larger norms are covered below
        prob, controls = inputs
        out = grape_final_state(prob, controls)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(out, reference_grape_final_state(prob, controls),
                                   rtol=0, atol=1e-10)

    @settings(max_examples=80, deadline=None)
    @given(_grape_inputs(3.0))
    def test_sector_propagation_matches_full_space_propagation(self, inputs):
        # the same exponential on the full 2^n x 2^n generators: equal up to
        # roundoff at any norm, since both stacks get the same squaring count
        from spsakit.applications import _bond_operators, _expm_stack

        prob, controls = inputs
        coeffs = (0.5j * prob.dt) * controls.reshape(prob.slices, 3)
        propagators = _expm_stack(
            np.einsum("mk,kij->mij", coeffs, _bond_operators(prob.n_qubits, prob.periodic)))
        psi = prob.psi0
        for u in propagators:
            psi = u @ psi
            psi = psi / np.linalg.norm(psi)
        np.testing.assert_allclose(grape_final_state(prob, controls), psi, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("norm", [0.5, 1.0, 3.0, 8.0, 32.0, 64.0])
    def test_expm_stack_matches_scipy(self, norm):
        # 16 x 16 parity blocks of 5-qubit GRAPE generators, scaled to a
        # given largest row-sum norm
        from spsakit.applications import _bond_sectors, _expm_stack

        _, blocks = _bond_sectors(5, False)
        rng = np.random.default_rng(20)
        coeffs = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        a = np.tensordot(0.5j * coeffs, blocks[0], axes=1)
        a *= norm / np.abs(a).sum(axis=-1).max()
        out = _expm_stack(a)
        ref = np.stack([scipy.linalg.expm(m) for m in a])
        err = np.linalg.norm(out - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))
        assert err.max() < 1e-8

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("slot, value", [
        (2, 2.0**63),  # ZZ coupling past the squaring cap
        (1, 1e3j),  # imaginary YY coupling whose propagator overflows
    ])
    def test_overflowing_control_is_nan_for_odd_n(self, n, slot, value):
        rng = np.random.default_rng(21)
        prob = GrapeProblem(n_qubits=n, slices=3, shots=100).materialize(rng)
        controls = np.zeros(9, dtype=complex)
        controls[3 + slot] = value
        assert np.isnan(grape_final_state(prob, controls)).all()
        oracles = make_oracles(prob, rng)
        assert math.isnan(oracles.objective(controls))
        assert math.isnan(oracles.monitor(controls))
        assert math.isnan(oracles.fidelity(np.zeros(9, dtype=complex), controls))

    def test_overflowing_control_is_nan_and_diverges(self):
        rng = np.random.default_rng(19)
        prob = GrapeProblem(n_qubits=2, slices=2, shots=100).materialize(rng)
        controls = np.zeros(6, dtype=complex)
        controls[2] = 2.0**63  # ZZ coupling; generator norm 2^62
        oracles = make_oracles(prob, rng)
        assert math.isnan(oracles.objective(controls))
        assert math.isnan(oracles.monitor(controls))
        config = OptimizerConfig(method="first_order", max_iterations=3)
        trace = run(oracles.objective, config, controls, monitor=oracles.monitor)
        assert trace.diverged


class TestSgqt:
    def test_parameter_count(self):
        assert SgqtProblem(n_qubits=6).initial_point(np.random.default_rng(0)).shape == (64,)

    def test_true_state_gives_zero(self):
        rng = np.random.default_rng(9)
        unknown = haar_random_state(3, rng)
        prob = SgqtProblem(n_qubits=3, shots=math.inf, unknown=unknown)
        assert make_oracles(prob, None).objective(2.5 * unknown) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_guess_gives_one(self):
        unknown = np.zeros(4, dtype=complex)
        unknown[0] = 1.0
        guess = np.zeros(4, dtype=complex)
        guess[1] = 1.0
        prob = SgqtProblem(n_qubits=2, shots=math.inf, unknown=unknown)
        assert make_oracles(prob, None).objective(guess) == pytest.approx(1.0)

    def test_scale_and_phase_invariance(self):
        rng = np.random.default_rng(10)
        unknown = haar_random_state(2, rng)
        guess = haar_random_state(2, rng)
        prob = SgqtProblem(n_qubits=2, shots=math.inf, unknown=unknown)
        objective = make_oracles(prob, None).objective
        base = objective(guess)
        for c in (2.0, -0.3, 1.7j, 0.2 - 0.9j):
            assert objective(c * guess) == pytest.approx(base, abs=1e-12)

    def test_zero_vector_rejected(self):
        prob = SgqtProblem(n_qubits=2, unknown=np.array([1, 0, 0, 0], complex))
        with pytest.raises(ValueError):
            make_oracles(prob, None).objective(np.zeros(4, dtype=complex))

    @pytest.mark.parametrize("shots", [math.inf, 100])
    def test_nan_amplitude_gives_nan(self, shots):
        # the NaN must reach the optimizer, not read as a finite infidelity
        rng = np.random.default_rng(22)
        prob = SgqtProblem(n_qubits=2, shots=shots).materialize(rng)
        guess = haar_random_state(2, rng)
        guess[1] = np.nan
        before = rng.bit_generator.state
        oracles = make_oracles(prob, rng)
        with np.errstate(invalid="ignore"):
            assert math.isnan(oracles.objective(guess))
            assert math.isnan(oracles.monitor(guess))
            assert math.isnan(oracles.fidelity(guess, guess))
        assert rng.bit_generator.state == before


class TestOracleSuite:
    def test_materialize_resolves_haar_states(self):
        rng = np.random.default_rng(11)
        grape = GrapeProblem(n_qubits=2, slices=3).materialize(rng)
        assert grape.psi0 is not None
        assert grape.materialize(rng) is grape
        sgqt = SgqtProblem(n_qubits=2).materialize(rng)
        assert sgqt.unknown is not None
        assert sgqt.materialize(rng) is sgqt
        vqe = VqeProblem(n_qubits=2, periodic=False)
        assert vqe.materialize(rng) is vqe

    def test_initial_point_shapes(self):
        rng = np.random.default_rng(12)
        assert VqeProblem(n_qubits=4, layers=1).initial_point(rng).shape == (8,)
        grape0 = GrapeProblem(n_qubits=2, slices=5).initial_point(rng)
        np.testing.assert_array_equal(grape0, np.zeros(15))
        sgqt0 = SgqtProblem(n_qubits=3).initial_point(rng)
        assert abs(np.linalg.norm(sgqt0) - 1.0) < 1e-10

    def test_objective_counts_one_eval_per_call(self):
        from spsakit.estimators import EvaluationBudget
        from spsakit.optimizers import _counted

        rng = np.random.default_rng(13)
        prob = SgqtProblem(n_qubits=2, shots=100).materialize(rng)
        oracles = make_oracles(prob, rng)
        budget = EvaluationBudget()
        counted = _counted(oracles.objective, budget, "objective")
        z = prob.initial_point(rng)
        counted(z)
        counted(z)
        assert budget.objective_evals == 2

    def test_real_field_adapter_same_landscape(self):
        rng = np.random.default_rng(14)
        prob = SgqtProblem(n_qubits=2, shots=math.inf).materialize(rng)
        oracles_c = make_oracles(prob, rng, "complex")
        oracles_r = make_oracles(prob, rng, "real")
        z = haar_random_state(2, np.random.default_rng(15))
        assert oracles_r.objective(interleave_complex(z)) == pytest.approx(
            oracles_c.objective(z), abs=1e-12)
        assert oracles_r.monitor(interleave_complex(z)) == pytest.approx(
            oracles_c.monitor(z), abs=1e-12)

    def test_noiseless_objectives_bounded(self):
        rng = np.random.default_rng(16)
        grape = GrapeProblem(n_qubits=2, slices=3, shots=math.inf).materialize(rng)
        sgqt = SgqtProblem(n_qubits=2, shots=math.inf).materialize(rng)
        grape_objective = make_oracles(grape, None).objective
        sgqt_objective = make_oracles(sgqt, None).objective
        for _ in range(20):
            ctrl = 0.5 * (rng.standard_normal(9) + 1j * rng.standard_normal(9))
            v = grape_objective(ctrl)
            assert 0.0 <= v <= 1.0
            amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v = sgqt_objective(amps)
            assert 0.0 <= v <= 1.0

    @pytest.mark.parametrize("problem_factory", [
        lambda rng: SgqtProblem(n_qubits=2, shots=math.inf).materialize(rng),
        lambda rng: GrapeProblem(n_qubits=2, slices=2, shots=math.inf).materialize(rng),
        lambda rng: VqeProblem(n_qubits=2, layers=1, periodic=False, shots=math.inf),
    ])
    def test_sp_gradient_matches_finite_differences(self, problem_factory):
        # exhaustively averaged simultaneous-perturbation estimate vs central
        # differences of the noiseless objective, on the realified landscape
        import itertools

        rng = np.random.default_rng(17)
        prob = problem_factory(rng)
        oracles = make_oracles(prob, rng, "real")
        p = 2 * prob.initial_point(np.random.default_rng(0)).size
        theta = 0.4 * np.random.default_rng(18).standard_normal(p)
        if isinstance(prob, SgqtProblem):
            theta += interleave_complex(prob.initial_point(rng))

        eps = 1e-5
        fd = np.zeros(p)
        for i in range(p):
            e = np.zeros(p)
            e[i] = eps
            fd[i] = (oracles.monitor(theta + e) - oracles.monitor(theta - e)) / (2 * eps)

        total = np.zeros(p)
        count = 0
        for signs in itertools.product([1.0, -1.0], repeat=p):
            delta = np.array(signs)
            g, _ = gradient_estimate(oracles.monitor, theta, 1e-4, delta)
            total += g
            count += 1
        est = total / count
        scale = max(np.linalg.norm(fd), 1e-6)
        assert np.linalg.norm(est - fd) / scale < 0.02


class TestPinnedStateMemo:
    """make_oracles reuses the pinned fidelity state and the monitored state."""

    @staticmethod
    def _count_builds(monkeypatch, name):
        original = getattr(applications, name)
        calls = []

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(applications, name, counting)
        return calls

    @pytest.mark.parametrize("field", [COMPLEX, REAL])
    @pytest.mark.parametrize("problem, state_fn", [
        (VqeProblem(n_qubits=4, layers=1, shots=1000), "vqe_state"),
        (GrapeProblem(n_qubits=3, slices=4, shots=1000), "grape_final_state"),
    ])
    def test_quantum_natural_builds_seven_states_per_iteration(
            self, monkeypatch, problem, state_fn, field):
        k = 6
        calls = self._count_builds(monkeypatch, state_fn)
        config = OptimizerConfig(method="quantum_natural", field=field, max_iterations=k)
        trace = run_single(problem, config, seed=3)
        assert not trace.diverged
        assert len(calls) == 7 * k + 1
        iters = np.arange(1, k + 1)
        np.testing.assert_array_equal(trace.objective_evals, 2 * iters)
        np.testing.assert_array_equal(trace.fidelity_evals, 4 * iters)

    @staticmethod
    def _traces(problem, config, z0, seed):
        """Seeded runs through make_oracles and through reference_oracles."""
        traces = []
        for build in (make_oracles, reference_oracles):
            oracles = build(problem, np.random.default_rng(seed + 2), config.field)
            traces.append(run(oracles.objective, config, z0, fidelity=oracles.fidelity,
                              monitor=oracles.monitor))
        return traces

    @pytest.mark.parametrize("field", [COMPLEX, REAL])
    @pytest.mark.parametrize("problem", [
        VqeProblem(n_qubits=4, layers=1, shots=1000),
        VqeProblem(n_qubits=3, layers=2, shots=500, periodic=False, entangler="cz_ring"),
        GrapeProblem(n_qubits=3, slices=4, shots=1000),
        SgqtProblem(n_qubits=3, shots=1000),
    ])
    def test_traces_match_reference_oracles(self, problem, field):
        seed, k = 5, 40
        problem = problem.materialize(np.random.default_rng(seed))
        z0 = problem.initial_point(np.random.default_rng(seed + 1))
        if field == REAL:
            z0 = interleave_complex(z0)
        config = OptimizerConfig(method="quantum_natural", field=field, max_iterations=k,
                                 seed=seed)
        fast, ref = self._traces(problem, config, z0, seed)
        assert not fast.diverged and not ref.diverged
        np.testing.assert_allclose(fast.objective, ref.objective, rtol=1e-9, atol=0)
        np.testing.assert_allclose(fast.final_params, ref.final_params, rtol=1e-9, atol=1e-12)
        np.testing.assert_array_equal(fast.objective_evals, ref.objective_evals)
        np.testing.assert_array_equal(fast.fidelity_evals, ref.fidelity_evals)

    @pytest.mark.parametrize("method", ["first_order", "quantum_natural"])
    def test_five_qubit_grape_traces_match_reference_oracles(self, method):
        seed, k = 9, 12
        problem = GrapeProblem(n_qubits=5, slices=25, shots=2**13).materialize(
            np.random.default_rng(seed))
        z0 = problem.initial_point(np.random.default_rng(seed + 1))
        config = OptimizerConfig(method=method, max_iterations=k, seed=seed)
        fast, ref = self._traces(problem, config, z0, seed)
        assert not fast.diverged and not ref.diverged
        np.testing.assert_allclose(fast.objective, ref.objective, rtol=0, atol=1e-10)
        np.testing.assert_allclose(fast.final_params, ref.final_params, rtol=0, atol=1e-10)
        np.testing.assert_array_equal(fast.objective_evals, ref.objective_evals)
        np.testing.assert_array_equal(fast.fidelity_evals, ref.fidelity_evals)
