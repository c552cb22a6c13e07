import itertools

import numpy as np
import pytest

from spsakit.estimators import (
    GAIN_PRESETS,
    GainSchedule,
    complex_from_interleaved,
    gains_at,
    gradient_estimate,
    hessian_estimate,
    interleave_complex,
    metric_estimate,
    metric_second_difference,
    sample_perturbation,
    scalar_preconditioner,
    second_difference,
)


class TestGainSchedule:
    def test_presets(self):
        std = GAIN_PRESETS["standard"]
        assert (std.a, std.b, std.A, std.s, std.t) == (3.0, 0.1, 0.0, 0.602, 0.101)
        asym = GAIN_PRESETS["asymptotic"]
        assert (asym.a, asym.b, asym.A, asym.s, asym.t) == (3.0, 0.1, 0.0, 1.0, 1.0 / 6.0)
        static = GAIN_PRESETS["static"]
        assert (static.a, static.b, static.A, static.s, static.t) == (0.01, 0.01, 0.0, 0.0, 0.0)

    def test_standard_at_k1(self):
        a_k, abar_k, b_k, bt_k = gains_at(GAIN_PRESETS["standard"], 1)
        assert a_k == 3.0 and b_k == 0.1
        assert abar_k == 1.0 and bt_k == 0.1

    def test_static_is_constant(self):
        for k in (1, 7, 1000):
            a_k, abar_k, b_k, _ = gains_at(GAIN_PRESETS["static"], k)
            assert a_k == 0.01 and b_k == 0.01 and abar_k == 1.0

    def test_asymptotic_at_64(self):
        _, _, b_k, bt_k = gains_at(GAIN_PRESETS["asymptotic"], 64)
        assert b_k == pytest.approx(0.05)
        assert bt_k == pytest.approx(0.05)

    def test_b_tilde_override(self):
        sched = GainSchedule(a=1.0, b=0.1, b_tilde=0.2, s=0.0, t=0.0)
        _, _, b_k, bt_k = gains_at(sched, 5)
        assert (b_k, bt_k) == (0.1, 0.2)

    def test_zero_indexed_rejected(self):
        with pytest.raises(ValueError):
            gains_at(GAIN_PRESETS["standard"], 0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GainSchedule(a=0.0, b=0.1)
        with pytest.raises(ValueError):
            GainSchedule(a=1.0, b=0.1, s=-0.1)


class TestSamplePerturbation:
    def test_real_alphabet_and_determinism(self):
        d1 = sample_perturbation(4, "real", np.random.default_rng(42))
        d2 = sample_perturbation(4, "real", np.random.default_rng(42))
        np.testing.assert_array_equal(d1, d2)
        assert set(d1) <= {-1.0, 1.0}

    def test_complex_alphabet(self):
        d = sample_perturbation(1000, "complex", np.random.default_rng(0))
        np.testing.assert_allclose(np.abs(d), 1.0)
        assert set(np.round(d, 12)) <= {1, -1, 1j, -1j}

    def test_complex_symbol_frequencies(self):
        rng = np.random.default_rng(7)
        d = sample_perturbation(100_000, "complex", rng)
        for symbol in (1, -1, 1j, -1j):
            freq = np.mean(d == symbol)
            assert freq == pytest.approx(0.25, abs=0.01)

    def test_real_mean(self):
        rng = np.random.default_rng(8)
        d = sample_perturbation(100_000, "real", rng)
        assert abs(d.mean()) <= 0.02

    def test_invalid_inputs(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_perturbation(0, "real", rng)
        with pytest.raises(ValueError):
            sample_perturbation(3, "rational", rng)
        with pytest.raises(ValueError):
            sample_perturbation(3, "real", rng, 0)

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("p,m", [(1, 1), (3, 7), (64, 500), (65, 3)])
    def test_block_equals_stacked_single_draws(self, field, p, m):
        block_rng, single_rng = np.random.default_rng(8), np.random.default_rng(8)
        # an odd-sized draw first, so a block need not start on a fresh 64-bit word
        sample_perturbation(3, field, block_rng)
        sample_perturbation(3, field, single_rng)
        block = sample_perturbation(p, field, block_rng, m)
        singles = np.stack([sample_perturbation(p, field, single_rng) for _ in range(m)])
        assert block.shape == (m, p)
        assert block.dtype == singles.dtype
        np.testing.assert_array_equal(block, singles)
        assert block_rng.bit_generator.state == single_rng.bit_generator.state


class TestGradientEstimate:
    def test_real_quadratic_example(self):
        f = lambda t: float(t @ t)
        theta = np.array([1.0, 0.0])
        delta = np.array([1.0, -1.0])
        g, pair = gradient_estimate(f, theta, 0.1, delta)
        np.testing.assert_allclose(g, [2.0, -2.0], atol=1e-12)
        assert pair == (pytest.approx(1.22), pytest.approx(0.82))

    def test_constant_function(self):
        g, _ = gradient_estimate(lambda t: 5.0, np.zeros(3), 0.1, np.ones(3))
        np.testing.assert_array_equal(g, np.zeros(3))

    def test_complex_single_perturbation(self):
        f = lambda z: float(abs(z[0]) ** 2)
        z = np.array([1.0 + 0.0j])
        g, _ = gradient_estimate(f, z, 0.3, np.array([1.0j]))
        np.testing.assert_allclose(g, [0.0], atol=1e-12)

    def test_complex_enumeration_average_is_wirtinger_gradient(self):
        f = lambda z: float(abs(z[0]) ** 2)
        z = np.array([1.0 + 0.0j])
        avg = np.zeros(1, dtype=complex)
        for sym in (1, -1, 1j, -1j):
            g, _ = gradient_estimate(f, z, 0.2, np.array([sym], dtype=complex))
            avg += g
        np.testing.assert_allclose(avg / 4, [1.0 + 0.0j], atol=1e-12)

    def test_real_unbiasedness_quadratic(self):
        # f(theta) = theta^T A theta + c^T theta has exact estimator mean 2A theta + c
        rng = np.random.default_rng(11)
        a = np.array([[1.0, 0.3, 0.0], [0.3, 2.0, -0.2], [0.0, -0.2, 1.5]])
        c = np.array([0.5, -1.0, 2.0])
        theta = np.array([0.7, -0.4, 1.1])
        f = lambda t: float(t @ a @ t + c @ t)
        expected = 2 * a @ theta + c
        total = np.zeros(3)
        n = 100_000
        for _ in range(n):
            delta = sample_perturbation(3, "real", rng)
            g, _ = gradient_estimate(f, theta, 1e-3, delta)
            total += g
        np.testing.assert_allclose(total / n, expected, rtol=0.01)

    def test_complex_unbiasedness_hermitian_quadratic(self):
        # f(z) = z^dag M z has estimator mean df/dz* = M z
        rng = np.random.default_rng(12)
        m = np.array([[2.0, 0.4 + 0.2j], [0.4 - 0.2j, 1.0]])
        z = np.array([1.0 + 0.5j, -0.8 + 0.3j])
        f = lambda w: float(np.real(np.conj(w) @ m @ w))
        expected = m @ z
        total = np.zeros(2, dtype=complex)
        n = 100_000
        for _ in range(n):
            delta = sample_perturbation(2, "complex", rng)
            g, _ = gradient_estimate(f, z, 1e-3, delta)
            total += g
        np.testing.assert_allclose(total / n, expected, rtol=0.01)


class TestHessianEstimate:
    def test_single_pair_example(self):
        a = np.diag([1.0, 2.0])
        f = lambda t: float(t @ a @ t)
        theta = np.zeros(2)
        delta = np.array([1.0, 1.0])
        delta_t = np.array([1.0, -1.0])
        _, pair = gradient_estimate(f, theta, 0.1, delta)
        d2 = second_difference(f, theta, 0.1, 0.1, delta, delta_t, pair)
        assert d2 == pytest.approx(-0.04)
        h = hessian_estimate(f, theta, 0.1, 0.1, delta, delta_t, pair)
        np.testing.assert_allclose(h, [[-2.0, 2.0], [-2.0, 2.0]], atol=1e-9)

    def test_linear_function_gives_zero(self):
        f = lambda t: float(3.0 * t[0] - 2.0 * t[1] + 1.0)
        theta = np.array([0.3, -0.6])
        delta = np.array([1.0, -1.0])
        delta_t = np.array([-1.0, -1.0])
        _, pair = gradient_estimate(f, theta, 0.1, delta)
        h = hessian_estimate(f, theta, 0.1, 0.1, delta, delta_t, pair)
        np.testing.assert_allclose(h, np.zeros((2, 2)), atol=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_real_enumeration_average_is_exact(self, p):
        rng = np.random.default_rng(p)
        sym = rng.standard_normal((p, p))
        a = (sym + sym.T) / 2
        f = lambda t: float(t @ a @ t)
        theta = rng.standard_normal(p)
        total = np.zeros((p, p))
        count = 0
        for delta in itertools.product([1.0, -1.0], repeat=p):
            for delta_t in itertools.product([1.0, -1.0], repeat=p):
                d = np.array(delta)
                dt = np.array(delta_t)
                _, pair = gradient_estimate(f, theta, 0.1, d)
                total += hessian_estimate(f, theta, 0.1, 0.1, d, dt, pair)
                count += 1
        np.testing.assert_allclose(total / count, 2 * a, atol=1e-10)

    @pytest.mark.parametrize("p", [1, 2])
    def test_complex_enumeration_average_is_exact(self, p):
        rng = np.random.default_rng(p + 10)
        raw = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        m = (raw + raw.conj().T) / 2
        f = lambda z: float(np.real(np.conj(z) @ m @ z))
        z0 = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        alphabet = [1, -1, 1j, -1j]
        total = np.zeros((p, p), dtype=complex)
        count = 0
        for delta in itertools.product(alphabet, repeat=p):
            for delta_t in itertools.product(alphabet, repeat=p):
                d = np.array(delta, dtype=complex)
                dt = np.array(delta_t, dtype=complex)
                _, pair = gradient_estimate(f, z0, 0.1, d)
                total += hessian_estimate(f, z0, 0.1, 0.1, d, dt, pair)
                count += 1
        np.testing.assert_allclose(total / count, m, atol=1e-10)


class TestMetricEstimate:
    @staticmethod
    def bloch_fidelity(theta, theta_prime):
        # |<psi(a)|psi(b)>|^2 for cos(t/2)|0> + sin(t/2)|1>
        return float(np.cos((theta_prime[0] - theta[0]) / 2.0) ** 2)

    def test_single_qubit_family_quarter(self):
        rng = np.random.default_rng(3)
        b = 1e-3
        theta = np.array([0.7])
        total = 0.0
        n = 200
        for _ in range(n):
            d = sample_perturbation(1, "real", rng)
            dt = sample_perturbation(1, "real", rng)
            total += metric_estimate(self.bloch_fidelity, theta, b, b, d, dt)[0, 0]
        assert total / n == pytest.approx(0.25, rel=0.05)

    def test_constant_fidelity_gives_zero(self):
        f = lambda a, b: 1.0
        d = np.array([1.0])
        h = metric_estimate(f, np.zeros(1), 0.1, 0.1, d, d)
        np.testing.assert_allclose(h, [[0.0]])

    def test_sign_swap_invariance(self):
        theta = np.array([0.4])
        d = np.array([1.0])
        dt = np.array([-1.0])
        h1 = metric_estimate(self.bloch_fidelity, theta, 0.05, 0.05, d, dt)
        h2 = metric_estimate(self.bloch_fidelity, theta, 0.05, 0.05, -d, -dt)
        np.testing.assert_allclose(h1, h2, atol=1e-12)

    def test_uses_four_fidelity_evaluations(self):
        calls = []
        f = lambda a, b: calls.append(1) or 1.0
        metric_second_difference(f, np.zeros(2), 0.1, 0.1, np.ones(2), np.ones(2))
        assert len(calls) == 4


class TestScalarPreconditioner:
    def test_second_order_example(self):
        assert scalar_preconditioner(-0.04, 0.1, 0.1, "second_order") == pytest.approx(-2.0)

    def test_zero(self):
        assert scalar_preconditioner(0.0, 0.1, 0.1, "quantum_natural") == 0.0

    def test_quantum_natural_example(self):
        assert scalar_preconditioner(-0.004, 0.1, 0.1, "quantum_natural") == pytest.approx(0.1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            scalar_preconditioner(1.0, 0.1, 0.1, "third_order")


class TestInterleaving:
    def test_round_trip(self):
        z = np.array([1.0 + 2.0j, -0.5 - 0.25j, 3.0j])
        np.testing.assert_array_equal(complex_from_interleaved(interleave_complex(z)), z)

    def test_layout(self):
        theta = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(complex_from_interleaved(theta), [1 + 2j, 3 + 4j])

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            complex_from_interleaved(np.ones(3))
