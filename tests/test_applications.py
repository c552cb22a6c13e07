import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import scipy.linalg
from statevector_reference import (
    bond_operators,
    evolve_piecewise,
    reference_expm_stack,
    reference_grape_final_state,
    reference_oracles,
    reference_vqe_state,
    row_sum_norm,
)

import spsakit.applications as applications
import spsakit.quantum as quantum
from spsakit.applications import (
    ENTANGLERS,
    GrapeProblem,
    SgqtProblem,
    VqeProblem,
    _expm_stack,
    entangling_layer,
    grape_final_state,
    make_oracles,
    vqe_state,
)
from spsakit.bench import run_single
from spsakit.estimators import (
    COMPLEX,
    REAL,
    complex_from_interleaved,
    interleave_complex,
    resample,
    sample_perturbation,
)
from spsakit.optimizers import OptimizerConfig, run
from spsakit.quantum import exact_ground_energy, haar_random_state, heisenberg_hamiltonian


# Small arguments for every lru_cache'd function of the statevector layer.
_CACHED_CALLS = {
    "spsakit.quantum._basis_bits": (3,),
    "spsakit.quantum._measurement_groups": (heisenberg_hamiltonian(3, 1.0, 0.3, periodic=True),),
    "spsakit.applications.entangling_layer": (4, "ccz_ring"),
    "spsakit.applications._heisenberg": (3, 1.0, 0.3, True),
    "spsakit.applications._bond_sectors": (4, True),
}


def _sector_blocks(n, periodic):
    """The (nb, 3, h, h) real sector blocks of the three bond operators, taken
    from GRAPE's operator table ``_bond_sectors``."""
    index, generators, _, _ = applications._bond_sectors(n, periodic)
    nb, h = index.shape[:2]
    return generators.real.reshape(3, nb, h, h).swapaxes(0, 1)


def _arrays(value):
    """Every ndarray inside nested tuples, lists and dataclasses."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _arrays(getattr(value, field.name))


def _assert_stacks_match_single_builds(problem, z):
    """``problem.state`` of the (m, p) stack ``z``, of its rows as a (2, m/2, p)
    stack, and of their interleaved real views, is each row's own state,
    bit for bit."""
    singles = np.stack([problem.state(row) for row in z])
    stack = problem.state(z)
    assert stack.shape == singles.shape
    assert stack.tobytes() == singles.tobytes()
    assert problem.state(z.reshape(2, -1, z.shape[-1])).tobytes() == singles.tobytes()
    theta = np.stack([interleave_complex(row) for row in z])
    assert problem.state(complex_from_interleaved(theta)).tobytes() == singles.tobytes()


def test_every_cached_array_is_read_only():
    # a writable cached array lets one caller silently change every later result
    cached = {
        f"{f.__module__}.{f.__qualname__}": f
        for module in (quantum, applications)
        for f in vars(module).values()
        if hasattr(f, "cache_info")
    }
    assert set(cached) == set(_CACHED_CALLS), "update _CACHED_CALLS for every cache"
    for name, f in cached.items():
        for array in _arrays(f(*_CACHED_CALLS[name])):
            assert not array.flags.writeable, name
    with pytest.raises(ValueError):
        entangling_layer(4)[0] *= -1


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
    prob = VqeProblem(n_qubits=n, layers=layers, periodic=n >= 3, entangler=entangler)
    return prob, np.array(z)


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

    def test_exact_minimum_independent_of_blas_threads(self):
        # The 10-qubit ring's largest magnetization block, 252 states square,
        # is diagonalized multithreaded at default threads; exact_minimum
        # pins one thread, so both interpreters give the same bits, and
        # hands the caller's thread count back.
        script = ("import json; from spsakit.applications import VqeProblem; "
                  "from spsakit.linalg import blas_threads; before = blas_threads(); "
                  "e = VqeProblem(n_qubits=10).exact_minimum(); "
                  "print(json.dumps([before, repr(e), blas_threads()]))")
        src = str(Path(applications.__file__).resolve().parent.parent)
        env = {key: value for key, value in os.environ.items()
               if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = src
        seen = []
        for threads in (None, "1"):
            extra = {} if threads is None else {"OPENBLAS_NUM_THREADS": threads}
            done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                  text=True, timeout=120, check=True, env={**env, **extra})
            seen.append(json.loads(done.stdout.splitlines()[-1]))
        (default_before, default_e, default_after), (one_before, one_e, one_after) = seen
        assert default_e == one_e
        assert (default_after, one_after) == (default_before, one_before)
        assert one_before in (None, 1)

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
        for z in (np.zeros(7, dtype=complex), np.zeros((2, 7), dtype=complex), 1j):
            with pytest.raises(ValueError):
                vqe_state(prob, z)

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

    @pytest.mark.parametrize("n, layers", [(n, layers) for n in range(1, 9)
                                           for layers in range(4) if n > 1 or not layers])
    def test_stacked_build_matches_single_builds_bit_for_bit(self, n, layers):
        rng = np.random.default_rng(10 * n + layers)
        p = n * (layers + 1)
        z = rng.standard_normal((4, p)) + 1j * rng.standard_normal((4, p))
        z[1] = 0.0  # W(0) = I: the exact zeros of |0…0⟩ through every layer
        for entangler in ENTANGLERS:
            for periodic in {False, n >= 3}:
                prob = VqeProblem(n_qubits=n, layers=layers, periodic=periodic,
                                  entangler=entangler)
                _assert_stacks_match_single_builds(prob, z)

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
        rng = np.random.default_rng(6)
        psi0 = haar_random_state(2, rng)
        prob = GrapeProblem(n_qubits=2, slices=4, shots=math.inf, psi0=psi0)
        controls = rng.standard_normal(12).astype(complex)
        out = grape_final_state(prob, controls)
        bonds = bond_operators(2, False)
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

    @pytest.mark.parametrize("n", [3, 4])
    def test_stacked_build_matches_single_builds_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        prob = GrapeProblem(n_qubits=n, slices=5, shots=math.inf).materialize(rng)
        z = rng.standard_normal((4, 15)) + 1j * rng.standard_normal((4, 15))
        z[1] = 0.0
        _assert_stacks_match_single_builds(prob, z)

    def test_wrong_length_rejected(self):
        prob = GrapeProblem(n_qubits=2, slices=5, psi0=np.array([1, 0, 0, 0], complex))
        with pytest.raises(ValueError):
            make_oracles(prob, None).objective(np.zeros(14, dtype=complex))

    def test_single_slice_single_pair_solvable(self):
        # 2-qubit, one slice, ZZ control only: |psi0> = e^{+i t ZZ/2}|target>
        # is driven exactly back onto the target by J_z = t / dt
        bonds = bond_operators(2, False)
        target = np.zeros(4, dtype=complex)
        target[0] = 1.0
        t = 0.7
        w, u = np.linalg.eigh(-0.5 * bonds[2])
        psi0 = u @ (np.exp(1j * t * w) * (u.conj().T @ target))
        prob = GrapeProblem(n_qubits=2, slices=1, shots=math.inf, psi0=psi0)
        controls = np.array([0.0, 0.0, t / prob.dt], dtype=complex)
        assert make_oracles(prob, None).objective(controls) == pytest.approx(0.0, abs=1e-12)

    def test_propagator_norm_beyond_squaring_cap_gives_nan(self):
        # 2.5 * 2^60 > theta18 * 2^60 needs 61 squarings; the cap is 60
        norm = 2.5 * 2.0**60
        assert applications._THETA_18 * 2.0**60 < norm <= applications._THETA_18 * 2.0**61
        a = np.array([[[-1j * norm]], [[0.5j]]])
        assert np.isnan(_expm_stack(a, row_sum_norm(a))).all()
        a = np.array([[[-12j]], [[0.5j]]])
        ok = _expm_stack(a, row_sum_norm(a))
        np.testing.assert_allclose(ok[:, 0, 0], np.exp([-12j, 0.5j]), atol=1e-8)

    @pytest.mark.parametrize("n, periodic", [
        (n, periodic) for n in range(1, 8) for periodic in (False, True)
        if n >= 3 or not periodic
    ])
    def test_bond_operators_preserve_parity_and_flip_symmetry(self, n, periodic):
        # no entries between even- and odd-popcount states; for odd n the
        # odd sector, ordered as complements of the even states, carries
        # the same matrices as the even sector
        parity = np.array([bin(i).count("1") % 2 for i in range(2**n)])
        bonds = bond_operators(n, periodic)
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
        index, generators, _, _ = applications._bond_sectors(n, periodic)
        h = 2 ** (n - 1)
        nb = 1 if n % 2 else 2
        assert index.shape == (nb, h, 2 // nb)
        assert generators.shape == (3, nb * h * h)
        assert generators.dtype == np.complex128 and not generators.imag.any()
        assert not index.flags.writeable and not generators.flags.writeable
        blocks = _sector_blocks(n, periodic)
        np.testing.assert_array_equal(np.sort(index, axis=None), np.arange(2**n))
        full = np.zeros((3, 2**n, 2**n))
        for b in range(nb):
            for states in index[b].T:
                full[:, states[:, None], states] = blocks[b]
        np.testing.assert_array_equal(full, bond_operators(n, periodic))

    @pytest.mark.parametrize("n, periodic", [
        (n, periodic) for n in range(1, 8) for periodic in (False, True)
        if n >= 3 or not periodic
    ])
    def test_bond_sectors_bit_identical_to_slices_of_the_dense_operators(self, n, periodic):
        # the table as sliced out of the full 2^n x 2^n operators, which the
        # library no longer forms
        bonds = bond_operators(n, periodic)
        parity = np.array([bin(i).count("1") % 2 for i in range(2**n)])
        even = np.flatnonzero(parity == 0)
        if n % 2:
            sectors = [even]
            expected_index = np.stack([even, even ^ (2**n - 1)], axis=-1)[None]
        else:
            sectors = [even, np.flatnonzero(parity == 1)]
            expected_index = np.stack(sectors)[:, :, None]
        expected = np.stack([bonds[:, s[:, None], s] for s in sectors], axis=1)
        expected = expected.reshape(3, -1).astype(np.complex128)
        index, generators, _, _ = applications._bond_sectors(n, periodic)
        assert index.dtype == expected_index.dtype
        assert index.tobytes() == expected_index.tobytes()
        assert generators.shape == expected.shape
        assert generators.tobytes() == expected.tobytes()

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
        # (0.5 * sqrt(2) * 0.05 * 21 at n = 7 periodic), which needs no
        # squaring and where the degree-18 Taylor sum's tail is < 1e-19;
        # larger norms are covered below
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
        prob, controls = inputs
        coeffs = (0.5j * prob.dt) * controls.reshape(prob.slices, 3)
        full = np.einsum("mk,kij->mij", coeffs, bond_operators(prob.n_qubits, prob.periodic))
        propagators = _expm_stack(full, row_sum_norm(full))
        psi = prob.psi0
        for u in propagators:
            psi = u @ psi
            psi = psi / np.linalg.norm(psi)
        np.testing.assert_allclose(grape_final_state(prob, controls), psi, rtol=0, atol=1e-12)

    @staticmethod
    def _sector_propagators(prob, controls):
        """GRAPE's gather index and its (M, nb, h, h) propagator stack."""
        index, generators, _, _ = applications._bond_sectors(prob.n_qubits, prob.periodic)
        nb, h = index.shape[:2]
        stack = (0.5j * prob.dt) * controls.reshape(prob.slices, 3) @ generators
        stack = stack.reshape(-1, h, h)
        propagators = _expm_stack(stack, row_sum_norm(stack))
        return index, stack, propagators.reshape(prob.slices, nb, h, h)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 6), st.booleans(), st.integers(31, 80), st.data())
    def test_rescaled_propagation_matches_per_slice_normalization(
            self, n, periodic, slices, data):
        # n = 3, 5 propagate one (h, 2) block (nb = 1), n = 4, 6 two (h, 1)
        # blocks.  The controls are scaled so that the largest row-sum norm
        # is nu = L / (k + 1/2), L = _MAX_GROWTH, which rescales after every
        # k < slices slices.  k >= 30 keeps nu below 10: a slice with norm nu
        # can amplify the roundoff of either propagation by up to e^(2 nu),
        # so larger norms compare two roundoff-dominated results.
        seed = data.draw(st.integers(0, 2**16))
        every = data.draw(st.integers(30, slices - 1))
        rng = np.random.default_rng(seed)
        psi0 = haar_random_state(n, rng)
        prob = GrapeProblem(n_qubits=n, slices=slices, periodic=periodic, psi0=psi0)
        controls = rng.standard_normal(3 * slices) + 1j * rng.standard_normal(3 * slices)
        _, stack, _ = self._sector_propagators(prob, controls)
        nu = applications._MAX_GROWTH / (every + 0.5)
        controls *= nu / np.abs(stack).sum(axis=-1).max()
        index, stack, propagators = self._sector_propagators(prob, controls)
        assert int(applications._MAX_GROWTH / np.abs(stack).sum(axis=-1).max()) == every
        psi = psi0[index]
        for u in propagators:
            psi = u @ psi
            psi = psi / np.linalg.norm(psi)
        expected = np.empty_like(psi0)
        expected[index] = psi
        out = grape_final_state(prob, controls)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("value", [0.0, 1e-310])
    def test_zero_controls_return_the_initial_state(self, n, value):
        # nu = 0: identity propagators and only the final normalization; a
        # subnormal nu, where L / nu is inf, rescales only at the end too
        psi0 = haar_random_state(n, np.random.default_rng(n))
        prob = GrapeProblem(n_qubits=n, slices=7, psi0=psi0)
        np.testing.assert_allclose(grape_final_state(prob, np.full(21, value, complex)), psi0,
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [3, 4])
    def test_growth_beyond_the_float_range_is_rescaled(self, n):
        # Equal imaginary couplings make every generator the same real
        # symmetric matrix, so the state turns to its top eigenvector and
        # grows by about e^nu per slice: ||psi||^2 would pass 1e308 long
        # before the last of 60 slices without the rescaling in between.
        slices, nu = 60, 20.0
        psi0 = haar_random_state(n, np.random.default_rng(n))
        prob = GrapeProblem(n_qubits=n, slices=slices, psi0=psi0)
        controls = np.full(3 * slices, 1j)
        _, stack, _ = self._sector_propagators(prob, controls)
        controls *= nu / np.abs(stack).sum(axis=-1).max()
        index, _, propagators = self._sector_propagators(prob, controls)
        psi, growth = psi0[index], 0.0
        for u in propagators:
            psi = u @ psi
            growth += math.log(np.linalg.norm(psi))
            psi = psi / np.linalg.norm(psi)
        assert growth > 400
        expected = np.empty_like(psi0)
        expected[index] = psi
        np.testing.assert_allclose(grape_final_state(prob, controls), expected,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("norm", [0.5, 1.0, 3.0, 8.0, 32.0, 64.0, 128.0, 256.0])
    def test_expm_stack_matches_scipy(self, norm):
        # 16 x 16 parity blocks of 5-qubit GRAPE generators, scaled to a
        # given largest row-sum norm
        blocks = _sector_blocks(5, False)
        rng = np.random.default_rng(20)
        coeffs = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        a = np.tensordot(0.5j * coeffs, blocks[0], axes=1)
        a *= norm / np.abs(a).sum(axis=-1).max()
        out = _expm_stack(a, row_sum_norm(a))
        ref = np.stack([scipy.linalg.expm(m) for m in a])
        err = np.linalg.norm(out - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))
        assert err.max() < 1e-12

    @pytest.mark.parametrize("length", [1, 25, 50])
    @pytest.mark.parametrize("n", [1, 2, 4, 5, 6])  # blocks of 1, 2, 8, 16 and 32
    def test_expm_stack_matches_reference_kernel(self, n, length):
        # stacks laid out as grape_final_state lays them out: for even n the
        # blocks alternate between the two parity sectors; n = 1 has no
        # bonds, so its 1 x 1 blocks are random complex numbers times i
        blocks = _sector_blocks(n, False)
        nb = blocks.shape[0]
        rng = np.random.default_rng(23)
        for exponent in range(-4, 9):  # largest row-sum norm 2^-4 ... 2^8
            coeffs = rng.standard_normal((length, 3)) + 1j * rng.standard_normal((length, 3))
            if n == 1:
                a = 1j * coeffs[:, :1, None]
            else:
                a = np.stack([np.tensordot(0.5j * c, blocks[m % nb], axes=1)
                              for m, c in enumerate(coeffs)])
            a *= 2.0**exponent / np.abs(a).sum(axis=-1).max()
            a.flags.writeable = False
            before = a.copy()
            out, ref = _expm_stack(a, row_sum_norm(a)), reference_expm_stack(a)
            np.testing.assert_array_equal(a, before)
            err = np.linalg.norm(out - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))
            assert err.max() <= 1e-13, (exponent, err.max())

    @pytest.mark.parametrize("value, nan", [
        (np.nan, True),
        (complex(0.0, np.inf), True),
        (complex(-np.inf, 1.0), True),
        (applications._THETA_18 * 2.0**60, False),  # exactly 60 squarings: the cap
        (applications._THETA_18 * 2.0**60 * (1 + 2.0**-40), True),  # just past the cap
        # one ulp past the cap: 61 squarings
        (math.nextafter(applications._THETA_18 * 2.0**60, math.inf), True),
        (2.5 * 2.0**60, True),
    ])
    def test_expm_stack_is_nan_exactly_where_the_reference_is(self, value, nan):
        # a real negative entry, whose exponential underflows through the
        # squarings: exp(-i x) at x = theta18 * 2^60 is unitary, but 60
        # squarings of T18(-i theta18), of modulus 1 + 1.1e-10, overflow
        a = np.zeros((3, 2, 2), dtype=complex)
        a[:, 0, 1] = a[:, 1, 0] = 0.5j
        a[1, 0, 0] = -value
        out, ref = _expm_stack(a, row_sum_norm(a)), reference_expm_stack(a)
        assert np.isnan(out).all() == np.isnan(ref).all() == nan
        if not nan:
            assert np.isfinite(out).all()

    def test_squaring_count_is_the_smallest_that_reaches_theta(self, monkeypatch):
        # A count past the cap gives NaN, so moving the cap reads the count:
        # finite at cap s and NaN at cap s - 1 means exactly s squarings.
        # For k >= 0, theta18 * 2^k is the largest norm that needs k
        # squarings and one ulp more needs k + 1; the norms one ulp below
        # and the powers of two with their next ulps lie inside a count's
        # range.
        import statevector_reference

        theta = applications._THETA_18
        for k in range(-3, 61):
            edge = theta * 2.0**k
            for norm in (edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf),
                         2.0**k, 2.0**k * (1 + 2.0**-52)):
                s = 0
                while norm * 2.0**-s > theta:
                    s += 1
                if norm == edge:
                    assert s == max(0, k)
                elif norm > edge:
                    assert s == max(0, k + 1)
                # real and negative, so that the squarings underflow rather
                # than overflow (see the test above)
                a = np.array([[[-norm + 0j]]])
                for cap, nan in ((s, False), (s - 1, True)):
                    if cap < 0:
                        continue
                    for module in (applications, statevector_reference):
                        monkeypatch.setattr(module, "_MAX_SQUARINGS", cap)
                    for out in (_expm_stack(a, row_sum_norm(a)), reference_expm_stack(a)):
                        assert np.isnan(out).all() == nan, (k, norm, cap)

    def test_t18_coefficients_give_the_degree_18_taylor_polynomial(self):
        # the stored float64 coefficients multiplied out exactly: every
        # coefficient of x^0 ... x^18 is 1/k! within 2e-15 relative
        def poly(row):
            p = [Fraction(0)] * 7
            for power, c in zip((0, 1, 2, 3, 6), row):
                p[power] = Fraction(float(c))
            return p

        def add(p, q):
            size = max(len(p), len(q))
            return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                    for i in range(size)]

        def mul(p, q):
            out = [Fraction(0)] * (len(p) + len(q) - 1)
            for i, a in enumerate(p):
                for j, b in enumerate(q):
                    out[i + j] += a * b
            return out

        b1, b2, b3, b4, b5 = (poly(row) for row in applications._T18)
        a9 = add(mul(b1, b5), b4)
        t18 = add(b2, mul(add(b3, a9), a9))
        while t18[-1] == 0:
            t18.pop()
        assert len(t18) == 19
        for k, c in enumerate(t18):
            exact = Fraction(1, math.factorial(k))
            assert abs(c - exact) <= Fraction(2e-15) * exact, k

    def test_theta18_keeps_the_taylor_tail_within_the_degree_12_bound(self):
        # sum_{k>=19} theta^k / k! <= sum_{k>=13} 1 / k!, the tail of the
        # degree-12 sum at norm 1, and theta18 is the largest such theta to
        # four decimals.  Both sums are cut at k = 80; the terms after
        # shrink by a factor below 1/2, so the tail's rest is at most twice
        # its first term, and dropping the bound's rest only lowers it.
        def tail(theta):
            theta = Fraction(theta)
            terms = [theta**k / math.factorial(k) for k in range(19, 82)]
            return sum(terms[:-1]) + 2 * terms[-1]

        bound = sum(Fraction(1, math.factorial(k)) for k in range(13, 81))
        assert float(bound) == pytest.approx(1.7287667e-10)
        theta = applications._THETA_18
        assert tail(theta) <= bound < tail(theta + 1e-4)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 7), st.booleans(), st.integers(1, 6),
           st.sampled_from([0.0, 1e-300, 1e-3, 1.0, 1e3, 1e150, 1e306, 1e307, 3e307, 1e308]),
           st.integers(0, 2**32 - 1),
           st.sampled_from([None, np.nan, np.inf, -np.inf, complex(0.0, np.inf),
                            complex(np.nan, 1.0)]))
    # finite entries whose row sums overflow; a largest row sum of 1.76e308;
    # a NaN and an infinite control
    @example(7, True, 2, 3e307, 0, None)
    @example(5, False, 2, 3e307, 1, None)
    @example(4, True, 3, 1.0, 0, np.nan)
    @example(6, False, 3, 1.0, 0, complex(0.0, np.inf))
    def test_norm_table_gives_the_dense_row_sum_norm(self, n, periodic, slices, scale, seed,
                                                     special):
        # the stack's row-sum norm as grape_final_state reads it from the
        # norm table of _bond_sectors, against every entry of the stack:
        # equal within a few ulps, and non-finite exactly where the dense
        # norm is (a NaN or infinite control, or entries whose row sums
        # overflow)
        periodic = periodic and n >= 3
        index, generators, triples, counts = applications._bond_sectors(n, periodic)
        h = index.shape[1]
        rng = np.random.default_rng(seed)
        with np.errstate(over="ignore", invalid="ignore"):
            controls = (rng.standard_normal((slices, 3))
                        + 1j * rng.standard_normal((slices, 3))) * scale
            if special is not None:
                controls.flat[rng.integers(controls.size)] = special
            couplings = (0.5j * GrapeProblem.dt) * controls
            dense = row_sum_norm((couplings @ generators).reshape(-1, h, h))
            table = float((np.abs(couplings @ triples) @ counts).max())
        assert math.isfinite(table) == math.isfinite(dense), (dense, table)
        if math.isfinite(dense):
            assert abs(table - dense) <= 4 * np.spacing(dense), (dense, table)

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("slot, value", [
        (2, 2.0**63),  # ZZ coupling past the squaring cap
        (1, 1e3j),  # imaginary YY coupling whose propagator overflows
    ])
    @pytest.mark.filterwarnings("ignore:.* encountered in matmul:RuntimeWarning")
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
        trace = run(oracles.objective, config, controls, seed=0, monitor=oracles.monitor)
        assert trace.diverged


class TestProblemValidation:
    @pytest.mark.parametrize("make", [
        lambda: VqeProblem(n_qubits=2),  # periodic by default: a duplicated bond
        lambda: VqeProblem(n_qubits=0, periodic=False),
        lambda: VqeProblem(n_qubits=1, layers=1, periodic=False),
        lambda: VqeProblem(n_qubits=4, layers=-1),
        lambda: VqeProblem(n_qubits=4, entangler="swap_net"),
        lambda: VqeProblem(n_qubits=4, layers=0, entangler="swap_net"),
        lambda: GrapeProblem(n_qubits=2, periodic=True),
        lambda: GrapeProblem(n_qubits=0),
        lambda: GrapeProblem(slices=0),
        lambda: GrapeProblem(n_qubits=2, psi0=np.ones(8, complex)),
        lambda: SgqtProblem(n_qubits=0),
        lambda: VqeProblem(n_qubits=3, j=math.inf),
        lambda: VqeProblem(n_qubits=3, j=-math.inf),
        lambda: VqeProblem(n_qubits=3, h=math.nan),
        # each of these used to construct and then fail in the first run
        lambda: GrapeProblem(n_qubits=2, slices=2, psi0=np.ones((2, 2), complex) / 2),
        lambda: GrapeProblem(n_qubits=2, slices=2, psi0=np.zeros(4, complex)),
        lambda: GrapeProblem(n_qubits=2, slices=2, psi0=np.full(4, math.nan, complex)),
        lambda: GrapeProblem(n_qubits=2, slices=2, psi0=np.array(["1", "0", "0", "0"])),
        lambda: GrapeProblem(n_qubits=2, slices=2, psi0=np.array([1, 0, 0, None], object)),
        lambda: VqeProblem(n_qubits=3, j=1e308),
        lambda: VqeProblem(n_qubits=3, h=1e308),
        # counts are integers, not floats, bools or strings
        lambda: VqeProblem(layers=1.5),
        lambda: VqeProblem(n_qubits=3, layers=True),
        lambda: GrapeProblem(slices=2.5),
        lambda: SgqtProblem(n_qubits=2.0),
        lambda: SgqtProblem(n_qubits="2"),
        # at most 2^12 parameters
        lambda: VqeProblem(n_qubits=3, layers=2**63),
        lambda: VqeProblem(n_qubits=12, layers=341),
        lambda: GrapeProblem(n_qubits=2, slices=1366),
    ])
    def test_invalid_fields_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("cls", [VqeProblem, GrapeProblem, SgqtProblem])
    @pytest.mark.parametrize("n", [quantum.MAX_DENSE_QUBITS + 1, 64])
    def test_dense_sizes_past_the_limit_rejected_before_any_allocation(self, cls, n):
        # past the limit, VQE's exact minimum, GRAPE's dense sector
        # operators and SGQT's 2^n-parameter matrices are refused before
        # any is built
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"at most {quantum.MAX_DENSE_QUBITS} qubits"):
                cls(n_qubits=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("shots", [0, 0.5, 2.5, -1, -math.inf, math.nan, 2**63,
                                       True, np.True_])
    @pytest.mark.parametrize("cls", [VqeProblem, GrapeProblem, SgqtProblem])
    def test_invalid_shots_rejected(self, cls, shots):
        # at construction: a run, or a pool worker, would otherwise fail at
        # its first measurement, or silently measure with int(shots) shots;
        # rng.binomial takes at most 2**63 - 1 trials, and a bool is no
        # count, as under every count rule
        with pytest.raises(ValueError, match="shots must be a positive integer or math.inf"):
            cls(n_qubits=3, shots=shots)

    @pytest.mark.parametrize("shots", [1, 2**13, 2e4, np.int64(7), 2**63 - 1, math.inf])
    @pytest.mark.parametrize("cls", [VqeProblem, GrapeProblem, SgqtProblem])
    def test_valid_shots_accepted(self, cls, shots):
        assert cls(n_qubits=3, shots=shots).shots == shots

    @pytest.mark.parametrize("make", [
        lambda: VqeProblem(n_qubits=12, layers=340),
        lambda: VqeProblem(n_qubits=3, layers=np.int64(2)),
        lambda: GrapeProblem(n_qubits=2, slices=1365),
        lambda: SgqtProblem(n_qubits=np.int64(12)),
    ])
    def test_largest_and_numpy_counts_accepted(self, make):
        make()

    @pytest.mark.parametrize("cls, name", [(GrapeProblem, "psi0"), (SgqtProblem, "unknown")])
    def test_given_states_are_read_only_complex128_copies(self, cls, name):
        given = [0.6, 0.8j]
        problem = cls(n_qubits=1, **{name: given})
        state = getattr(problem, name)
        assert state.dtype == np.complex128 and state.shape == (2,)
        assert not state.flags.writeable
        np.testing.assert_array_equal(state, given)
        array = np.array(given)
        assert getattr(cls(n_qubits=1, **{name: array}), name) is not array

    def test_materialize_keeps_valid_problems_valid(self):
        rng = np.random.default_rng(0)
        assert GrapeProblem(n_qubits=3, slices=2).materialize(rng).psi0.shape == (8,)
        assert SgqtProblem(n_qubits=2).materialize(rng).unknown.shape == (4,)
        assert VqeProblem(n_qubits=1, layers=0, periodic=False).materialize(rng).layers == 0


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

    def test_stacked_build_matches_single_builds_bit_for_bit(self):
        rng = np.random.default_rng(12)
        prob = SgqtProblem(n_qubits=3, shots=math.inf).materialize(rng)
        z = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
        _assert_stacks_match_single_builds(prob, z)

    @pytest.mark.parametrize("unknown, match", [
        # infidelity would read 0.0 wherever |⟨unknown|ψ⟩|² ≥ 1
        (np.array([2, 0, 0, 0], complex), "unit norm"),
        (np.array([1, 0, 0, 1e-3], complex), "unit norm"),
        (np.array([np.nan, 0, 0, 0], complex), "unit norm"),
        (np.array([1, 0, 0, 0, 0, 0, 0, 0], complex), "4 amplitudes"),
        (np.array([[1, 0], [0, 0]], complex), "4 amplitudes"),
    ])
    def test_invalid_unknown_rejected(self, unknown, match):
        with pytest.raises(ValueError, match=match):
            SgqtProblem(n_qubits=2, unknown=unknown)

    @pytest.mark.parametrize("n", [1, 6, 12])
    def test_materialized_haar_states_accepted(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            unknown = SgqtProblem(n_qubits=n).materialize(rng).unknown
            given = SgqtProblem(n_qubits=n, unknown=unknown).unknown
            assert not given.flags.writeable
            np.testing.assert_array_equal(given, unknown)

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
        # one first-order iteration: the gradient's two calls, and under
        # blocking f(z0) before it and the candidate's call after it
        rng = np.random.default_rng(13)
        prob = SgqtProblem(n_qubits=2, shots=100).materialize(rng)
        oracles = make_oracles(prob, rng)
        z0 = prob.initial_point(rng)
        for blocking, evals in ((None, 2), (0.05, 1 + 3)):
            config = OptimizerConfig(blocking=blocking, max_iterations=1)
            trace = run(oracles.objective, config, z0, seed=0, fidelity=oracles.fidelity,
                        monitor=oracles.monitor)
            assert trace.objective_evals.tolist() == [evals]
            assert trace.fidelity_evals.tolist() == [0]

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
            g, _ = resample("first_order", oracles.monitor, None, theta, 1e-4, delta)
            total += g
            count += 1
        est = total / count
        scale = max(np.linalg.norm(fd), 1e-6)
        assert np.linalg.norm(est - fd) / scale < 0.02


class TestPinnedStateMemo:
    """make_oracles reuses built states through one memo once the fidelity's
    prepare has run: each prepare keeps exactly the states of its points."""

    @staticmethod
    def _count_builds(monkeypatch, name):
        """One entry per call of ``applications.<name>``: the states it built."""
        original = getattr(applications, name)
        calls = []

        def counting(prob, z):
            calls.append(math.prod(np.shape(z)[:-1]))
            return original(prob, z)

        monkeypatch.setattr(applications, name, counting)
        return calls

    BUILDERS = [
        (VqeProblem(n_qubits=4, layers=1, shots=1000), "vqe_state"),
        (GrapeProblem(n_qubits=3, slices=4, shots=1000), "grape_final_state"),
    ]

    @pytest.mark.parametrize("field", [COMPLEX, REAL])
    @pytest.mark.parametrize("problem, state_fn", BUILDERS)
    def test_quantum_natural_builds_five_states_per_iteration(
            self, monkeypatch, problem, state_fn, field):
        k = 6
        calls = self._count_builds(monkeypatch, state_fn)
        config = OptimizerConfig(method="quantum_natural", field=field, max_iterations=k)
        trace = run_single(problem, config, seed=3)
        assert not trace.diverged
        # the first iteration also builds the iterate, which no monitor call
        # has built yet
        assert sum(calls) == 5 * k + 1
        # VQE builds each resample's points as one stack, and the monitor's
        # state alone; GRAPE builds a stack one state at a time
        assert len(calls) == (2 * k if state_fn == "vqe_state" else 5 * k + 1)
        iters = np.arange(1, k + 1)
        np.testing.assert_array_equal(trace.objective_evals, 2 * iters)
        np.testing.assert_array_equal(trace.fidelity_evals, 4 * iters)

    @pytest.mark.parametrize("blocking", [0.05, "auto"])
    @pytest.mark.parametrize("field", [COMPLEX, REAL])
    @pytest.mark.parametrize("problem, state_fn", BUILDERS)
    def test_blocking_quantum_natural_builds_five_states_per_iteration(
            self, monkeypatch, problem, state_fn, field, blocking):
        # the candidate's build serves the monitor, whether it is accepted
        # or the memo still holds the rejected iterate
        calls = self._count_builds(monkeypatch, state_fn)
        problem = problem.materialize(np.random.default_rng(2))
        z0 = problem.initial_point(np.random.default_rng(3))
        if field == REAL:
            z0 = interleave_complex(z0)
        oracles = make_oracles(problem, np.random.default_rng(4), field)
        config = OptimizerConfig(method="quantum_natural", field=field, max_iterations=8,
                                 blocking=blocking)
        fidelity = oracles.fidelity
        prepare, at_prepare = fidelity.prepare, []
        fidelity.prepare = lambda points: (at_prepare.append(sum(calls)), prepare(points))
        builds = []
        trace = run(oracles.objective, config, z0, seed=5, fidelity=fidelity,
                    monitor=oracles.monitor, callback=lambda *_: builds.append(sum(calls)))
        assert not trace.diverged
        # ψ(z₀) is built directly for the reference value, and for the 25
        # measurements of the tolerance under "auto"; the first iteration
        # then builds its 5 points and the candidate through the memo
        assert at_prepare[0] == (26 if blocking == "auto" else 1)
        assert builds[0] == at_prepare[0] + 6
        np.testing.assert_array_equal(np.diff(builds), 5)

    @pytest.mark.parametrize("field", [COMPLEX, REAL])
    def test_monitor_bypasses_memo_until_first_prepare(self, monkeypatch, field):
        problem = SgqtProblem(n_qubits=2, shots=100).materialize(np.random.default_rng(4))
        builds = []
        original = SgqtProblem.state

        def counting(self, z):
            if np.ndim(z) == 1:  # a stack builds its rows through this method
                builds.append(1)
            return original(self, z)

        monkeypatch.setattr(SgqtProblem, "state", counting)
        oracles = make_oracles(problem, np.random.default_rng(5), field)
        z = problem.initial_point(np.random.default_rng(6))
        w = problem.initial_point(np.random.default_rng(7))
        if field == REAL:
            z, w = interleave_complex(z), interleave_complex(w)
        oracles.monitor(z)
        oracles.monitor(z)
        oracles.objective(z)
        assert len(builds) == 3  # before prepare, each call builds its state
        oracles.fidelity(z, w)
        assert len(builds) == 5  # and a fidelity call builds both arguments
        oracles.monitor(z)
        assert len(builds) == 6  # the fidelity did not turn the memo on
        oracles.fidelity.prepare(np.stack([z, w]))
        assert len(builds) == 8
        oracles.monitor(z)
        oracles.objective(w)
        oracles.fidelity(z, w)
        oracles.fidelity(w, z)
        assert len(builds) == 8  # the monitor and both fidelity arguments reuse the memo

    @pytest.mark.parametrize("field", [COMPLEX, REAL])
    def test_prepare_keeps_exactly_the_states_of_its_points(self, monkeypatch, field):
        calls = self._count_builds(monkeypatch, "vqe_state")
        problem = VqeProblem(n_qubits=3, shots=100)
        oracles = make_oracles(problem, np.random.default_rng(5), field)
        z, w, v = (problem.initial_point(np.random.default_rng(seed)) for seed in (6, 7, 8))
        if field == REAL:
            z, w, v = interleave_complex(z), interleave_complex(w), interleave_complex(v)
        oracles.fidelity.prepare(np.stack([z, w]))
        oracles.fidelity.prepare(np.stack([z, v]))
        assert sum(calls) == 3  # the second prepare reuses z
        oracles.objective(z)
        oracles.fidelity(z, v)
        assert sum(calls) == 3
        oracles.objective(w)
        assert sum(calls) == 4  # the second prepare dropped w
        oracles.monitor(w)
        assert sum(calls) == 4  # a state built after a prepare stays
        oracles.fidelity.prepare(np.stack([z, v]))
        oracles.monitor(w)
        assert sum(calls) == 5  # until the next one

    @staticmethod
    def _memo(oracles):
        """The states the memo holds: the ``kept`` that the fidelity's
        prepare closes over."""
        return inspect.getclosurevars(oracles.fidelity.prepare).nonlocals["kept"]

    @pytest.mark.parametrize("blocking", [None, 0.05])
    @pytest.mark.parametrize("resampling", [1, 2])
    def test_run_holds_at_most_six_states(self, resampling, blocking):
        # a resample's 5 points, and the candidate the blocking test or the
        # monitor built; the monitor's call is the last before a prepare
        problem = VqeProblem(n_qubits=3, shots=1000)
        oracles = make_oracles(problem, np.random.default_rng(4))
        sizes = []

        def monitor(z):
            value = oracles.monitor(z)
            sizes.append(len(self._memo(oracles)))
            return value

        config = OptimizerConfig(method="quantum_natural", max_iterations=6,
                                 resampling=resampling, blocking=blocking)
        trace = run(oracles.objective, config, problem.initial_point(np.random.default_rng(3)),
                    seed=5, fidelity=oracles.fidelity, monitor=monitor)
        assert not trace.diverged
        assert sizes == [6] * 6

    @pytest.mark.parametrize("field", [COMPLEX, REAL])
    def test_first_argument_changed_in_place_is_rebuilt(self, field):
        problem = SgqtProblem(n_qubits=2, shots=100).materialize(np.random.default_rng(4))
        oracles = make_oracles(problem, np.random.default_rng(5), field)
        fresh = make_oracles(problem, np.random.default_rng(5), field)
        z = problem.initial_point(np.random.default_rng(6))
        if field == REAL:
            z = interleave_complex(z)
        before = oracles.monitor(z)
        assert oracles.monitor(z) == before
        z[0] += 0.5
        assert oracles.monitor(z) == fresh.monitor(z.copy()) != before

    def test_memoized_states_are_read_only(self, monkeypatch):
        problem = SgqtProblem(n_qubits=2, shots=100).materialize(np.random.default_rng(4))
        original = SgqtProblem.measure

        def scribbling(self, psi, shots, rng=None):
            psi *= 1.0
            return original(self, psi, shots, rng)

        monkeypatch.setattr(SgqtProblem, "measure", scribbling)
        oracles = make_oracles(problem, np.random.default_rng(5))
        z = problem.initial_point(np.random.default_rng(6))
        w = problem.initial_point(np.random.default_rng(7))
        oracles.monitor(z)  # a direct build, so the write lands in a private array
        oracles.objective(w)
        oracles.fidelity.prepare(np.stack([z, w]))
        with pytest.raises(ValueError):
            oracles.monitor(z)
        with pytest.raises(ValueError):
            oracles.objective(w)

    # The points of each resample are built as one stack by the fidelity's
    # prepare; without it the memo builds them one call at a time.
    @pytest.mark.parametrize("postproc, scalar", [
        ("gidi", False), ("spall", False), ("gidi", True), ("spall", True),
    ])
    @pytest.mark.parametrize("blocking", [None, 0.05, "auto"])
    @pytest.mark.parametrize("resampling", [1, 3])
    @pytest.mark.parametrize("field", [COMPLEX, REAL])
    @pytest.mark.parametrize("problem", [
        VqeProblem(n_qubits=3, layers=2, shots=1000, entangler="cz_ring"),
        GrapeProblem(n_qubits=3, slices=4, shots=1000),
        SgqtProblem(n_qubits=3, shots=1000),
    ], ids=["vqe", "grape", "sgqt"])
    def test_prepare_leaves_quantum_natural_traces_bit_identical(
            self, problem, field, resampling, blocking, postproc, scalar):
        k = 8
        problem = problem.materialize(np.random.default_rng(1))
        z0 = problem.initial_point(np.random.default_rng(2))
        if field == REAL:
            z0 = interleave_complex(z0)
        config = OptimizerConfig(method="quantum_natural", field=field, max_iterations=k,
                                 resampling=resampling, blocking=blocking,
                                 postproc=postproc, scalar=scalar)
        traces, stacks = [], []
        for with_prepare in (True, False):
            oracles = make_oracles(problem, np.random.default_rng(4), field)
            fidelity = oracles.fidelity
            if with_prepare:
                prepare = fidelity.prepare
                fidelity.prepare = lambda points: (stacks.append(points.shape),
                                                   prepare(points))
            else:
                fidelity = lambda za, zb, fid=fidelity: fid(za, zb)
            traces.append(run(oracles.objective, config, z0, seed=3, fidelity=fidelity,
                              monitor=oracles.monitor))
        stacked, alone = traces
        assert not stacked.diverged
        assert stacks == [(5, z0.size)] * (k * resampling)
        assert stacked.blocking_delta == alone.blocking_delta
        for name in ("objective", "accepted", "objective_evals", "fidelity_evals",
                     "final_params"):
            assert getattr(stacked, name).tobytes() == getattr(alone, name).tobytes(), name

    def test_prepare_rejects_a_problem_that_builds_single_vectors_only(self):
        class SingleVectorProblem(SgqtProblem):
            def state(self, z):
                return SgqtProblem.state(self, np.reshape(z, (-1, 4))[0])

        problem = SingleVectorProblem(n_qubits=2, shots=100).materialize(
            np.random.default_rng(4))
        oracles = make_oracles(problem, np.random.default_rng(5))
        z = problem.initial_point(np.random.default_rng(6))
        assert oracles.fidelity(z, z) == 1.0  # single vectors work
        with pytest.raises(ValueError, match="Problem.state"):
            oracles.fidelity.prepare(np.stack([z, 2 * z]))
        config = OptimizerConfig(method="quantum_natural", max_iterations=2)
        with pytest.raises(ValueError, match="Problem.state"):
            run(oracles.objective, config, z, seed=0, fidelity=oracles.fidelity,
                monitor=oracles.monitor)

    @staticmethod
    def _traces(problem, config, z0, seed):
        """Seeded runs through make_oracles and through reference_oracles."""
        traces = []
        for build in (make_oracles, reference_oracles):
            oracles = build(problem, np.random.default_rng(seed + 2), config.field)
            traces.append(run(oracles.objective, config, z0, seed=seed,
                              fidelity=oracles.fidelity, monitor=oracles.monitor))
        return traces

    PROBLEMS = [
        VqeProblem(n_qubits=4, layers=1, shots=1000),
        VqeProblem(n_qubits=3, layers=2, shots=500, periodic=False, entangler="cz_ring"),
        GrapeProblem(n_qubits=3, slices=4, shots=1000),
        SgqtProblem(n_qubits=3, shots=1000),
    ]

    def _assert_traces_match(self, problem, field, method, **options):
        seed, k = 5, 40
        problem = problem.materialize(np.random.default_rng(seed))
        z0 = problem.initial_point(np.random.default_rng(seed + 1))
        if field == REAL:
            z0 = interleave_complex(z0)
        config = OptimizerConfig(method=method, field=field, max_iterations=k, **options)
        fast, ref = self._traces(problem, config, z0, seed)
        assert not fast.diverged and not ref.diverged
        np.testing.assert_allclose(fast.objective, ref.objective, rtol=1e-9, atol=0)
        np.testing.assert_allclose(fast.final_params, ref.final_params, rtol=1e-9, atol=1e-12)
        np.testing.assert_array_equal(fast.objective_evals, ref.objective_evals)
        np.testing.assert_array_equal(fast.fidelity_evals, ref.fidelity_evals)
        np.testing.assert_array_equal(fast.accepted, ref.accepted)

    @pytest.mark.parametrize("field", [COMPLEX, REAL])
    @pytest.mark.parametrize("problem", PROBLEMS)
    def test_traces_match_reference_oracles(self, problem, field):
        self._assert_traces_match(problem, field, "quantum_natural")

    # Resampling and blocking reorder and repeat the points each iteration
    # touches, and the blocking candidate is built through the memo.
    @pytest.mark.parametrize("options", [
        {"resampling": 3}, {"blocking": 0.05}, {"blocking": "auto"},
    ], ids=["resampling3", "blocking0.05", "blocking_auto"])
    @pytest.mark.parametrize("field", [COMPLEX, REAL])
    @pytest.mark.parametrize("problem", PROBLEMS)
    def test_resampled_and_blocked_traces_match_reference_oracles(self, problem, field,
                                                                  options):
        self._assert_traces_match(problem, field, "quantum_natural", **options)

    # The monitor bypasses the memo until the fidelity's first call, so these
    # runs, which never call it, build every state directly.
    @pytest.mark.parametrize("method", ["first_order", "second_order"])
    @pytest.mark.parametrize("field", [COMPLEX, REAL])
    @pytest.mark.parametrize("problem", PROBLEMS)
    def test_first_and_second_order_traces_match_reference_oracles(self, problem, field,
                                                                   method):
        self._assert_traces_match(problem, field, method)

    # Seven points against a memo of five: the calls repeat and evict states.
    @settings(max_examples=40, deadline=None)
    @given(problem=st.sampled_from(PROBLEMS), field=st.sampled_from([COMPLEX, REAL]),
           calls=st.lists(st.tuples(st.sampled_from(["objective", "fidelity", "monitor"]),
                                    st.integers(0, 6), st.integers(0, 6)), max_size=40),
           seed=st.integers(0, 2**16))
    def test_any_call_sequence_matches_reference_oracles(self, problem, field, calls, seed):
        problem = problem.materialize(np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        size = problem.initial_point(rng).size
        base = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        pool = []
        for _ in range(7):  # like perturbed points, each differs from base in one entry
            z = base.copy()
            z[rng.integers(size)] += rng.standard_normal() + 1j * rng.standard_normal()
            pool.append(z)
        if field == REAL:
            pool = [interleave_complex(z) for z in pool]
        fast_rng, ref_rng = np.random.default_rng(seed + 2), np.random.default_rng(seed + 2)
        fast = make_oracles(problem, fast_rng, field)
        ref = reference_oracles(problem, ref_rng, field)
        for kind, i, j in calls:
            args = (pool[i], pool[j]) if kind == "fidelity" else (pool[i],)
            np.testing.assert_allclose(getattr(fast, kind)(*args), getattr(ref, kind)(*args),
                                       rtol=1e-9, atol=1e-12, err_msg=kind)
        assert fast_rng.random() == ref_rng.random()

    @pytest.mark.parametrize("method", ["first_order", "quantum_natural"])
    def test_five_qubit_grape_traces_match_reference_oracles(self, method):
        seed, k = 9, 12
        problem = GrapeProblem(n_qubits=5, slices=25, shots=2**13).materialize(
            np.random.default_rng(seed))
        z0 = problem.initial_point(np.random.default_rng(seed + 1))
        config = OptimizerConfig(method=method, max_iterations=k)
        fast, ref = self._traces(problem, config, z0, seed)
        assert not fast.diverged and not ref.diverged
        np.testing.assert_allclose(fast.objective, ref.objective, rtol=0, atol=1e-10)
        np.testing.assert_allclose(fast.final_params, ref.final_params, rtol=0, atol=1e-10)
        np.testing.assert_array_equal(fast.objective_evals, ref.objective_evals)
        np.testing.assert_array_equal(fast.fidelity_evals, ref.fidelity_evals)
