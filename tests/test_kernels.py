import math

import numpy as np
import pytest
from scipy.special import dawsn

import wavecauchy.fields as fields
import wavecauchy.kernels as kernels
from wavecauchy.errors import ConfigError, EvaluationError
from wavecauchy.geometry import (
    Dimension,
    _omega,
    _radial_rule,
    solution_constant,
    sphere_quadrature_for_order,
    unit_ball_volume,
)
from wavecauchy.kernels import (
    DistributionFunctional,
    KernelQuery,
    _osc_nodes,
    distribution_fourier_check,
    identity_record,
    identity_sweep,
    normalization_constant,
    sinc_kernel,
)
from wavecauchy.radial import MeanSeries, RadialDerivativeSpec, chain_apply, stencil_radii
from wavecauchy.solvers import CauchyProblem, means_series, solve_point, weighted_ball_mean


def random_query(rng, n, max_product=20.0):
    radius = rng.uniform(0.5, 2.0)
    knorm = rng.uniform(0.0, max_product / radius)
    direction = rng.standard_normal(n)
    xi = direction * (knorm / np.linalg.norm(direction))
    return KernelQuery(xi, radius, Dimension(n))


def sphere_average(q, n):
    """R^(n-2) times the mean of e^{-i x.xi} over the sphere of radius R in
    R^n: the means path at a degree-0 stencil, whose one radius is R."""
    rule = _radial_rule(n, n, _osc_nodes(q.knorm * q.radius))
    wave = lambda points: np.exp(-1j * q.knorm * points[..., 0])
    return complex(means_series(wave, 0.0, rule, q.radius, 0, q.radius).values[0])


def ball_by_descent(q):
    """R^n times the weighted ball mean of e^{-i x.xi}, by descent: the
    means over S^n, scaled by omega_(n+1) / (2 v_n)."""
    n = q.dim.n
    return _omega(n + 1) / (2.0 * unit_ball_volume(n)) * sphere_average(q, n + 1)


def direct_ball_wave(q, radius, nodes, length_scale=math.inf):
    """R^n times the direct weighted ball mean of the real part of the plane
    wave, cos(|xi| y_1), at radius R on the reduced rule of `nodes` nodes."""
    n = q.dim.n
    wave = fields.ScalarField(lambda points: np.cos(q.knorm * points[..., 0]), n,
                              length_scale=length_scale)
    return radius**n * weighted_ball_mean(wave, np.zeros(n), radius, _radial_rule(n, n, nodes))


class TestSincKernel:
    def test_examples(self):
        assert sinc_kernel(np.zeros(3), 2.0) == 2.0
        xi = np.array([math.pi, 0.0, 0.0])
        assert sinc_kernel(xi, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert sinc_kernel(np.array([1.0]), math.pi / 2.0) == pytest.approx(1.0, rel=1e-15)

    def test_series_branch_accuracy(self):
        # both sides of the series cutoff must match sin(z)/z to rounding
        for z in (1e-6, 5e-5, 9.9e-5, 1.01e-4, 1e-3):
            got = sinc_kernel(np.array([z, 0.0]), 1.0)
            assert got == pytest.approx(math.sin(z) / z, rel=1e-14)

    def test_radius_guard(self):
        with pytest.raises(ValueError):
            sinc_kernel(np.zeros(2), 0.0)


class TestExponentialAverages:
    def test_sphere_zero_frequency_is_power(self):
        q = KernelQuery(np.zeros(3), 2.0, Dimension(3))
        assert sphere_average(q, 3) == pytest.approx(2.0, rel=1e-13)
        q5 = KernelQuery(np.zeros(5), 1.5, Dimension(5))
        assert sphere_average(q5, 5) == pytest.approx(1.5**3, rel=1e-13)

    def test_sphere_n3_closed_form(self):
        # n = 3: the average itself equals sin(R|xi|)/|xi| (no derivative)
        rng = np.random.default_rng(42)
        for _ in range(20):
            q = random_query(rng, 3)
            got = sphere_average(q, 3)
            assert got.real == pytest.approx(sinc_kernel(q.xi, q.radius), abs=1e-12)
        qpi = KernelQuery(np.array([math.pi, 0.0, 0.0]), 1.0, Dimension(3))
        assert abs(sphere_average(qpi, 3)) < 1e-14

    def test_ball_zero_frequency(self):
        # n = 2, R = 1: (1/pi) 2 pi int_0^1 r (1-r^2)^(-1/2) dr = 2
        q = KernelQuery(np.zeros(2), 1.0, Dimension(2))
        assert ball_by_descent(q) == pytest.approx(2.0, rel=1e-12)
        assert direct_ball_wave(q, 1.0, 64) == pytest.approx(2.0, rel=1e-12)

    def test_ball_n2_vanishes_at_pi(self):
        # m' = 0 for n = 2, so the average equals sinc/d_2; at R|xi| = pi it is 0
        q = KernelQuery(np.array([math.pi, 0.0]), 1.0, Dimension(2))
        assert abs(ball_by_descent(q)) < 1e-12

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_sphere_parity(self, n):
        rng = np.random.default_rng(n)
        for _ in range(100):
            q = random_query(rng, n)
            value = sphere_average(q, n)
            assert abs(value.imag) <= 1e-12

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_ball_parity(self, n):
        rng = np.random.default_rng(n)
        for _ in range(100):
            q = random_query(rng, n)
            value = ball_by_descent(q)
            assert abs(value.imag) <= 1e-10

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_descent_matches_direct(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(25):
            q = random_query(rng, n)
            a = ball_by_descent(q)
            b = direct_ball_wave(q, q.radius, _osc_nodes(q.knorm * q.radius))
            assert abs(a - b) <= 1e-8 * max(abs(a), 1.0)

    def test_direct_theta_rule_follows_the_length_scale(self):
        # R|xi| = 160: 64 theta nodes leave 1.8e-6 here; the rule sized from
        # R / length_scale, as the oscillatory rules are, leaves rounding
        q = KernelQuery(np.array([160.0, 0.0]), 1.0, Dimension(2))
        b = direct_ball_wave(q, q.radius, _osc_nodes(q.knorm * q.radius), 1.0 / q.knorm)
        assert abs(ball_by_descent(q) - b) <= 1e-12 * max(abs(b), 1.0)


class TestIdentities:
    def test_odd_zero_frequency(self):
        q = KernelQuery(np.zeros(5), 1.0, Dimension(5))
        assert identity_record(q).residual <= 1e-10

    def test_odd_n3_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            q = random_query(rng, 3)
            assert identity_record(q).residual <= 1e-10

    def test_odd_n5_against_refined_oracle(self):
        q = KernelQuery(np.array([2.0, 0, 0, 0, 0]), 1.0, Dimension(5))
        assert identity_record(q).residual <= 1e-8
        # doubled-resolution oracle: twice the nodes, half the spacing, two
        # extra fit degrees; the residual target must hold there too
        spec = RadialDerivativeSpec(1, 0.0125, 8)
        assert identity_record(q, spec, 128).residual <= 1e-10

    def test_even_zero_frequency(self):
        q = KernelQuery(np.zeros(4), 1.0, Dimension(4))
        assert identity_record(q).residual <= 1e-8

    def test_even_n2_sweep(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            q = random_query(rng, 2)
            assert identity_record(q).residual <= 1e-8

    def test_even_n4_against_refined_oracle(self):
        q = KernelQuery(np.array([3.0, 0, 0, 0]), 1.0, Dimension(4))
        assert identity_record(q).residual <= 1e-6
        # the refined residual on the direct weighted ball mean, not the descent
        spec = RadialDerivativeSpec(1, 0.008, 8)
        spec.validate_radius(q.radius)
        radii = stencil_radii(q.radius, spec.degree, spec.h)
        series = MeanSeries(radii, np.array([direct_ball_wave(q, r, 128) for r in radii]))
        value = solution_constant(4) * chain_apply(series, 1, q.radius, spec.h)
        assert abs(sinc_kernel(q.xi, q.radius) - value) <= 1e-8

    def test_residual_refinement_order(self):
        # residual drops at (at least) order degree - m when h halves
        q = KernelQuery(np.array([3.0, 0, 0, 0, 0]), 1.0, Dimension(5))
        m, degree = 1, 6
        residuals = [identity_record(q, RadialDerivativeSpec(m, h, degree)).residual
                     for h in (0.1, 0.05, 0.025)]
        orders = [math.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
        assert min(orders) >= degree - m

    def test_high_frequency_node_scaling(self):
        # past R|xi| = 30 the 1-D rules grow linearly with the phase range;
        # the n = 3 identity stays at quadrature accuracy
        q = KernelQuery(np.array([25.0, 0.0, 0.0]), 2.0, Dimension(3))
        rec = identity_record(q)
        assert rec.nodes > 64
        assert rec.residual <= 1e-10

    def test_identity_sweep_records(self):
        records = identity_sweep(3, 10, seed=3)
        assert len(records) == 10
        assert max(r.residual for r in records) <= 1e-10
        assert max(r.imag_residual for r in records) <= 1e-10
        assert all(r.radius * r.knorm <= 20.0 + 1e-12 for r in records)

    def test_parity_dispatch_errors(self):
        with pytest.raises(ValueError):
            identity_record(KernelQuery(np.zeros(5), 1.0, Dimension(5)),
                            spec=RadialDerivativeSpec(2, 0.01, 8))


class TestConstantsTwoWays:
    # c_3 = 1, c_5 = 1/3, c_7 = 1/15; d_2 = 1/2, d_4 = 1/8, d_6 = 1/48. Even n
    # recovers c_(n+1) = 1/(n-1)!! by descent and scales it by 2 v_n / omega_(n+1)
    @pytest.mark.parametrize("n,expected", [
        (3, 1.0), (5, 1.0 / 3.0), (7, 1.0 / 15.0), (9, 1.0 / 105.0), (11, 1.0 / 945.0),
        (2, 0.5), (4, 0.125), (6, 1.0 / 48.0), (8, 1.0 / 384.0), (10, 1.0 / 3840.0),
    ])
    def test_product_and_normalization_agree(self, n, expected):
        assert solution_constant(n) == pytest.approx(expected, rel=1e-15)
        for radius in (0.3, 1.0, 2.5):
            assert normalization_constant(n, radius) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("n", [4, 6])
    def test_degenerate_radius_is_an_evaluation_error(self, n):
        # at R = 1e-300 the chain underflows to 0 (n = 4) or overflows (n = 6)
        with pytest.raises(EvaluationError):
            normalization_constant(n, radius=1e-300)


class TestDistributionFunctional:
    def test_compact_support(self):
        # a bump living entirely outside B(0, R + 0.1) is invisible
        T = DistributionFunctional(1.0, Dimension(3))
        outside = fields.bump(3, radius=0.4, center=[2.0, 0.0, 0.0])
        assert abs(T.action(outside)) <= 1e-10
        T2 = DistributionFunctional(1.0, Dimension(2))
        outside2 = fields.bump(2, radius=0.4, center=[2.0, 0.0])
        assert abs(T2.action(outside2)) <= 1e-10

    def test_linearity(self):
        T = DistributionFunctional(0.8, Dimension(3))
        f = fields.gaussian(3, sigma=1.0)
        g = fields.bump(3, radius=1.5)
        a, b = 2.25, -0.5

        def combo(pts):
            return a * f(pts) + b * g(pts)

        lhs = T.action(combo)
        rhs = a * T.action(f) + b * T.action(g)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("radius", [0.6, 1.3])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_action_is_the_solver_psi_term(self, n, radius):
        # a field with neither centre nor degree takes the default product rule
        # in both, so T_R(f) is the solution of u(0) = 0, u_t(0) = f at x = 0
        gauss = fields.gaussian(n, sigma=0.9, center=np.linspace(0.4, -0.3, n))
        f = fields.ScalarField(gauss.evaluator, n)
        u = solve_point(CauchyProblem(fields.zero(n), f, Dimension(n)), np.zeros(n), radius,
                        with_error=False).u
        action = DistributionFunctional(radius, Dimension(n)).action(f)
        assert abs(action - u) <= 1e-12 * abs(u)

    def test_guards(self):
        with pytest.raises(ValueError):
            DistributionFunctional(0.0, Dimension(3))
        with pytest.raises(ValueError):
            DistributionFunctional(1.0, Dimension(1))


class TestFourierDuality:
    def test_zero_function(self):
        T = DistributionFunctional(1.0, Dimension(2))
        zero = fields.ScalarField(lambda pts: np.zeros(pts.shape[:-1]), 2,
                                  support_radius=1.0)
        lhs, rhs = distribution_fourier_check(T, zero, nodes_per_axis=16)
        assert lhs == pytest.approx(0.0, abs=1e-14)
        assert rhs == pytest.approx(0.0, abs=1e-14)

    def test_gaussian_n2_with_analytic_value(self):
        # both quadrature sides must also match 2 pi Dawson(R/2), the closed
        # form of the radial integral for exp(-|xi|^2)
        T = DistributionFunctional(1.0, Dimension(2))
        phi = fields.gaussian(2, sigma=math.sqrt(0.5))
        lhs, rhs = distribution_fourier_check(T, phi)
        analytic = 2.0 * math.pi * float(dawsn(0.5))
        assert abs(lhs - rhs) <= 1e-6 * abs(rhs)
        assert rhs == pytest.approx(analytic, rel=1e-10)

    def test_gaussian_n3_with_analytic_value(self):
        T = DistributionFunctional(1.0, Dimension(3))
        phi = fields.gaussian(3, sigma=math.sqrt(0.5))
        lhs, rhs = distribution_fourier_check(T, phi, nodes_per_axis=48)
        analytic = math.pi**1.5 * math.exp(-0.25)
        assert abs(lhs - rhs) <= 1e-6 * abs(rhs)
        assert rhs == pytest.approx(analytic, rel=1e-10)

    def test_scaling_linearity(self):
        T = DistributionFunctional(0.5, Dimension(2))
        phi = fields.gaussian(2, sigma=math.sqrt(0.5))
        scaled = fields.gaussian(2, sigma=math.sqrt(0.5), amplitude=3.5)
        lhs1, rhs1 = distribution_fourier_check(T, phi)
        lhs2, rhs2 = distribution_fourier_check(T, scaled)
        assert lhs2 == pytest.approx(3.5 * lhs1, rel=1e-12)
        assert rhs2 == pytest.approx(3.5 * rhs1, rel=1e-12)

    def test_support_box_too_small(self):
        T = DistributionFunctional(1.0, Dimension(2))
        wide = fields.gaussian(2, sigma=1.0)
        # lie about the support: the boundary check must catch it
        shrunk = fields.ScalarField(wide.evaluator, 2, support_radius=2.0)
        with pytest.raises(ConfigError):
            distribution_fourier_check(T, shrunk, nodes_per_axis=16)

    def test_infinite_support_rejected(self):
        T = DistributionFunctional(1.0, Dimension(2))
        with pytest.raises(ConfigError):
            distribution_fourier_check(T, fields.harmonic(2, "linear"))

    @pytest.mark.parametrize("n", [2, 4])
    def test_even_n_builds_only_the_means_sphere_rule(self, n, monkeypatch):
        # the order-25 rule is built on S^n, where descent sums it, and no
        # S^(n-1) rule is built to be replaced
        calls = []

        def recording(dim, order):
            calls.append((dim, order))
            return sphere_quadrature_for_order(dim, order)

        monkeypatch.setattr(kernels, "sphere_quadrature_for_order", recording)
        T = DistributionFunctional(1.0, Dimension(n))
        distribution_fourier_check(T, fields.bump(n, radius=1.0), nodes_per_axis=4)
        assert calls == [(n + 1, 25)]

    def test_dimension_mismatch(self):
        T = DistributionFunctional(1.0, Dimension(3))
        with pytest.raises(ValueError):
            distribution_fourier_check(T, fields.gaussian(2))
