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
    resample,
    sample_perturbation,
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
        a_k, abar_k, b_k = gains_at(GAIN_PRESETS["standard"], 1)
        assert a_k == 3.0 and b_k == 0.1
        assert abar_k == 1.0

    def test_static_is_constant(self):
        for k in (1, 7, 1000):
            a_k, abar_k, b_k = gains_at(GAIN_PRESETS["static"], k)
            assert a_k == 0.01 and b_k == 0.01 and abar_k == 1.0

    def test_asymptotic_at_64(self):
        _, _, b_k = gains_at(GAIN_PRESETS["asymptotic"], 64)
        assert b_k == pytest.approx(0.05)

    def test_zero_indexed_rejected(self):
        with pytest.raises(ValueError):
            gains_at(GAIN_PRESETS["standard"], 0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GainSchedule(a=0.0, b=0.1)
        with pytest.raises(ValueError):
            GainSchedule(a=1.0, b=0.1, s=-0.1)

    @pytest.mark.parametrize("name", ["a", "b", "A", "s", "t"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_parameters_rejected(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            GainSchedule(**{"a": 1.0, "b": 0.1, name: value})


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


def gradient(f, z, b, delta):
    """The gradient estimate of one first-order resample."""
    return resample("first_order", f, None, z, b, delta)[0]


def curvature(method, f, fid, z, b, delta, delta_tilde, scalar=False):
    """The Hessian or metric estimate of one preconditioned resample: its
    coefficient c in scalar mode, else the matrix c·ΔΔ̃†."""
    c = resample(method, f, fid, z, b, delta, delta_tilde)[1]
    return c if scalar else c * np.outer(delta, np.conj(delta_tilde))


def hessian(f, z, b, delta, delta_tilde, scalar=False):
    return curvature("second_order", f, None, z, b, delta, delta_tilde, scalar)


def metric(fid, z, b, delta, delta_tilde, scalar=False):
    return curvature("quantum_natural", lambda x: 0.0, fid, z, b, delta, delta_tilde, scalar)


class TestGradientEstimate:
    def test_real_quadratic_example(self):
        values = []
        f = lambda t: values.append(float(t @ t)) or values[-1]
        theta = np.array([1.0, 0.0])
        delta = np.array([1.0, -1.0])
        g, h = resample("first_order", f, None, theta, 0.1, delta)
        np.testing.assert_allclose(g, [2.0, -2.0], atol=1e-12)
        assert h is None
        assert values == [pytest.approx(1.22), pytest.approx(0.82)]
        assert gradient_estimate(*values, 0.1, delta).tobytes() == g.tobytes()

    def test_constant_function(self):
        g = gradient(lambda t: 5.0, np.zeros(3), 0.1, np.ones(3))
        np.testing.assert_array_equal(g, np.zeros(3))

    def test_complex_single_perturbation(self):
        f = lambda z: float(abs(z[0]) ** 2)
        z = np.array([1.0 + 0.0j])
        g = gradient(f, z, 0.3, np.array([1.0j]))
        np.testing.assert_allclose(g, [0.0], atol=1e-12)

    def test_complex_enumeration_average_is_wirtinger_gradient(self):
        f = lambda z: float(abs(z[0]) ** 2)
        z = np.array([1.0 + 0.0j])
        avg = np.zeros(1, dtype=complex)
        for sym in (1, -1, 1j, -1j):
            avg += gradient(f, z, 0.2, np.array([sym], dtype=complex))
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
            total += gradient(f, theta, 1e-3, sample_perturbation(3, "real", rng))
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
            total += gradient(f, z, 1e-3, sample_perturbation(2, "complex", rng))
        np.testing.assert_allclose(total / n, expected, rtol=0.01)


class TestHessianEstimate:
    def test_single_pair_example(self):
        a = np.diag([1.0, 2.0])
        f = lambda t: float(t @ a @ t)
        theta = np.zeros(2)
        delta = np.array([1.0, 1.0])
        delta_t = np.array([1.0, -1.0])
        # the second difference δ²f is -0.04
        h_scalar = hessian(f, theta, 0.1, delta, delta_t, scalar=True)
        assert h_scalar == pytest.approx(-0.04 / (2 * 0.1 * 0.1))
        h = hessian(f, theta, 0.1, delta, delta_t)
        np.testing.assert_allclose(h, [[-2.0, 2.0], [-2.0, 2.0]], atol=1e-9)

    def test_linear_function_gives_zero(self):
        f = lambda t: float(3.0 * t[0] - 2.0 * t[1] + 1.0)
        theta = np.array([0.3, -0.6])
        delta = np.array([1.0, -1.0])
        delta_t = np.array([-1.0, -1.0])
        h = hessian(f, theta, 0.1, delta, delta_t)
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
                total += hessian(f, theta, 0.1, np.array(delta), np.array(delta_t))
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
                total += hessian(f, z0, 0.1, d, dt)
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
            total += metric(self.bloch_fidelity, theta, b, d, dt)[0, 0]
        assert total / n == pytest.approx(0.25, rel=0.05)

    def test_constant_fidelity_gives_zero(self):
        f = lambda a, b: 1.0
        d = np.array([1.0])
        h = metric(f, np.zeros(1), 0.1, d, d)
        np.testing.assert_allclose(h, [[0.0]])

    def test_sign_swap_invariance(self):
        theta = np.array([0.4])
        d = np.array([1.0])
        dt = np.array([-1.0])
        h1 = metric(self.bloch_fidelity, theta, 0.05, d, dt)
        h2 = metric(self.bloch_fidelity, theta, 0.05, -d, -dt)
        np.testing.assert_allclose(h1, h2, atol=1e-12)


class TestResample:
    """`resample` forms each point once, hands ``prepare`` the stack of them
    and calls the oracles on those points, in a fixed order."""

    @staticmethod
    def _logged(method, field, prepare=True):
        """The calls one resample at a random point makes, in order, each
        with the bytes of its arguments, and the stack handed to prepare."""
        rng = np.random.default_rng(8)
        z = rng.standard_normal(5)
        if field == "complex":
            z = z + 1j * rng.standard_normal(5)
        d, dt = sample_perturbation(5, field, rng, 2)
        log, stacks = [], []
        f = lambda x: log.append(("f", x.tobytes())) or 0.5
        fid = lambda xa, xb: log.append(("fid", xa.tobytes(), xb.tobytes())) or 0.5

        def record(points):
            stacks.append(points.copy())
            log.append(("prepare",))

        resample(method, f, fid, z, 0.07, d, None if method == "first_order" else dt,
                 record if prepare else None)
        return z, d, dt, log, stacks

    @pytest.mark.parametrize("method", ["second_order", "quantum_natural"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_prepare_rows_are_the_points_the_oracles_receive(self, method, field):
        z, d, dt, log, (points,) = self._logged(method, field)
        assert points.shape == (5, 5) and points.dtype == z.dtype
        b = 0.07
        expected = [z, z + b * d, z - b * d, z + b * d + b * dt, z - b * d + b * dt]
        assert [row.tobytes() for row in points] == [x.tobytes() for x in expected]
        at, plus, minus, plus_tilde, minus_tilde = (row.tobytes() for row in points)
        second = ([("f", plus_tilde), ("f", minus_tilde)] if method == "second_order" else
                  [("fid", at, plus_tilde), ("fid", at, plus), ("fid", at, minus_tilde),
                   ("fid", at, minus)])
        assert log == [("prepare",), ("f", plus), ("f", minus)] + second

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_first_order_calls_the_objective_twice_and_never_prepares(self, field):
        z, d, _, log, stacks = self._logged("first_order", field)
        assert stacks == []
        assert log == [("f", (z + 0.07 * d).tobytes()), ("f", (z - 0.07 * d).tobytes())]

    @pytest.mark.parametrize("method,calls", [
        ("first_order", {"f": 2}),
        ("second_order", {"f": 4}),
        ("quantum_natural", {"f": 2, "fid": 4}),
    ])
    def test_evaluation_counts(self, method, calls):
        log = self._logged(method, "complex", prepare=False)[3]
        assert {kind: sum(e[0] == kind for e in log) for kind in calls} == calls
        assert len(log) == sum(calls.values())


def replay(values):
    """An oracle that returns ``values`` in order, whatever its arguments."""
    it = iter(values)
    return lambda *args: next(it)


class TestScalarPreconditioner:
    """The scalar forms map a second difference d2 to d2/(2 b_k²) for the
    Hessian and to −d2/(4 b_k²) for the metric."""

    def test_second_order_example(self):
        # δ²f = f(z+bΔ+bΔ̃) − f₊ − f(z−bΔ+bΔ̃) + f₋ = −0.04 − 0 − 0 + 0
        assert hessian_estimate(-0.04, 0.0, 0.0, 0.0, 0.1) == pytest.approx(-2.0)
        d = np.ones(2)
        h = hessian(replay([0.0, 0.0, -0.04, 0.0]), np.zeros(2), 0.1, d, d, scalar=True)
        assert h == pytest.approx(-2.0)

    def test_zero(self):
        assert metric_estimate(0.0, 0.0, 0.0, 0.0, 0.1) == 0.0
        d = np.ones(2)
        assert metric(replay([0.0] * 4), np.zeros(2), 0.1, d, d, scalar=True) == 0.0

    def test_quantum_natural_example(self):
        # δ²F = F(z, z+bΔ+bΔ̃) − F(z, z+bΔ) − F(z, z−bΔ+bΔ̃) + F(z, z−bΔ)
        assert metric_estimate(-0.004, 0.0, 0.0, 0.0, 0.1) == pytest.approx(0.1)
        d = np.ones(2)
        h = metric(replay([-0.004, 0.0, 0.0, 0.0]), np.zeros(2), 0.1, d, d, scalar=True)
        assert h == pytest.approx(0.1)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_resample_returns_the_real_coefficient_alone(self, field):
        # the coefficient c of c·ΔΔ̃†, as the estimator gives it from the
        # oracle values at the resample's points; no matrix is formed
        rng = np.random.default_rng(5)
        p, b = 4, 0.1
        raw = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        m = (raw + raw.conj().T) / 2
        f = lambda z: float(np.real(np.vdot(z, m @ z)))
        fid = lambda za, zb: float(abs(np.vdot(za, zb)) ** 2
                                   / (np.vdot(za, za).real * np.vdot(zb, zb).real))
        z = rng.standard_normal(p) + (1j * rng.standard_normal(p) if field == "complex" else 0)
        for _ in range(10):
            d = sample_perturbation(p, field, rng)
            dt = sample_perturbation(p, field, rng)
            plus, minus = z + b * d, z - b * d
            plus_tilde, minus_tilde = plus + b * dt, minus + b * dt
            for method, expected in (
                    ("second_order", hessian_estimate(f(plus_tilde), f(plus), f(minus_tilde),
                                                      f(minus), b)),
                    ("quantum_natural", metric_estimate(fid(z, plus_tilde), fid(z, plus),
                                                        fid(z, minus_tilde), fid(z, minus), b))):
                c = resample(method, f, fid, z, b, d, dt)[1]
                assert np.isscalar(c) and np.isrealobj(c)
                assert c == expected


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

    @pytest.mark.parametrize("theta", [np.ones((2, 3)), np.ones((1, 5)), np.float64(1.0)])
    def test_scalar_or_odd_rows_rejected(self, theta):
        with pytest.raises(ValueError):
            complex_from_interleaved(theta)

    @pytest.mark.parametrize("shape", [(1, 4), (5, 6), (2, 3, 8)])
    def test_stack_gives_the_complex_view_of_each_row(self, shape):
        theta = np.random.default_rng(5).standard_normal(shape)
        z = complex_from_interleaved(theta)
        assert z.shape == shape[:-1] + (shape[-1] // 2,)
        assert np.shares_memory(z, theta)
        for row, got in zip(theta.reshape(-1, shape[-1]), z.reshape(-1, z.shape[-1])):
            assert got.tobytes() == complex_from_interleaved(row).tobytes()

    def test_round_trips_bit_for_bit_with_signed_zeros(self):
        rng = np.random.default_rng(4)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1.7976931348623157e308]
        theta = np.concatenate([rng.standard_normal(40), special, special[::-1]])
        z = complex_from_interleaved(theta)
        assert z.tobytes() == theta.tobytes()
        assert interleave_complex(z).tobytes() == theta.tobytes()
        w = np.array([complex(-0.0, -0.0), complex(-0.0, 0.0), complex(0.0, -0.0), 1 - 2j])
        assert interleave_complex(w).tobytes() == w.tobytes()
        assert complex_from_interleaved(interleave_complex(w)).tobytes() == w.tobytes()
        assert np.signbit(interleave_complex(w)[:6]).tolist() == [True, True, True, False,
                                                                  False, True]

    def test_contiguous_input_is_aliased_not_copied(self):
        theta = np.arange(6.0)
        z = complex_from_interleaved(theta)
        assert np.shares_memory(z, theta)
        theta[3] = 7.0
        assert z[1] == 2 + 7j

    def test_strided_input_gives_the_same_values(self):
        base = np.arange(16.0)
        strided = base[::2]
        z = complex_from_interleaved(strided)
        assert z.tobytes() == complex_from_interleaved(strided.copy()).tobytes()
        assert not np.shares_memory(z, base)

    def test_interleave_returns_a_copy(self):
        z = np.array([1 + 2j, 3 - 4j])
        theta = interleave_complex(z)
        assert not np.shares_memory(theta, z)
        theta[0] = 9.0
        assert z[0] == 1 + 2j
        assert interleave_complex(1 - 1j).tolist() == [1.0, -1.0]
