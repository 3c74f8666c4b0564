import dataclasses
import math
import struct
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import jv

import wavecauchy._kernels as _kernels
import wavecauchy.fields as fields
import wavecauchy.solvers as solvers
from wavecauchy.errors import DomainSizeError, EvaluationError, StencilError
from wavecauchy.geometry import (
    Dimension,
    descent_rule,
    sphere_quadrature,
    sphere_quadrature_for_order,
    sphere_sums,
    unit_sphere_area,
)
from wavecauchy.kernels import DistributionFunctional
from wavecauchy.radial import RadialDerivativeSpec, default_spec
from wavecauchy.solvers import (
    CauchyProblem,
    GridSpec,
    hermitian_defect,
    solve_dalembert_point,
    solve_point,
    solve_points,
    spectral_energy,
    spectral_probes,
    spectral_solve,
    spectral_state,
    wave_residual,
    weighted_ball_mean,
)


def problem(n, phi=None, psi=None):
    return CauchyProblem(phi or fields.zero(n), psi or fields.zero(n), Dimension(n))


def sphere_mean(psi, x, t):
    """psi's mean over the sphere of radius t about x, on the default rule."""
    n = psi.dim
    return float(sphere_sums(psi, x, np.array([t]), sphere_quadrature(n))[0]
                 / unit_sphere_area(n))


class TestSphericalMean:
    def test_constant(self):
        assert sphere_mean(fields.constant(3, 1.0), np.zeros(3), 1.7) == pytest.approx(
            1.0, rel=1e-13)

    def test_harmonic_mean_value_property(self):
        psi = fields.harmonic(3, "linear")
        x = np.array([0.7, 0.2, -0.1])
        assert sphere_mean(psi, x, 1.3) == pytest.approx(0.7, abs=1e-13)

    def test_radial_square(self):
        sq = fields.ScalarField(lambda pts: np.einsum("...i,...i->...", pts, pts), 3)
        assert sphere_mean(sq, np.zeros(3), 1.5) == pytest.approx(1.5**2, rel=1e-13)
        # general center: |x|^2 + t^2
        x = np.array([0.3, -0.4, 0.1])
        expected = float(x @ x) + 0.8**2
        assert sphere_mean(sq, x, 0.8) == pytest.approx(expected, rel=1e-13)


class TestWeightedBallMean:
    def test_constant_n2(self):
        assert weighted_ball_mean(fields.constant(2, 1.0), np.zeros(2), 0.5) == pytest.approx(
            2.0 / 0.5, rel=1e-12)

    def test_constant_n4(self):
        # (4/t) int_0^(pi/2) sin^3 = (4/t)(2/3) = 8/(3t)
        assert weighted_ball_mean(fields.constant(4, 1.0), np.zeros(4), 1.5) == pytest.approx(
            8.0 / (3.0 * 1.5), rel=1e-12)

    def test_zero(self):
        assert weighted_ball_mean(fields.zero(2), np.zeros(2), 1.0) == 0.0

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            weighted_ball_mean(fields.constant(3, 1.0), np.zeros(3), 1.0)


class TestMeansSolvers:
    def test_kirchhoff_constant(self):
        p = problem(3, psi=fields.constant(3, 1.0))
        s = solve_point(p, np.zeros(3), 2.0)
        assert s.method == "spherical_means"
        assert s.u == pytest.approx(2.0, rel=1e-12)
        assert s.error_estimate < 1e-10

    def test_poisson_constant(self):
        p = problem(2, psi=fields.constant(2, 1.0))
        s = solve_point(p, np.zeros(2), 2.0)
        assert s.method == "weighted_means"
        assert s.u == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_harmonic_data_odd(self, n):
        phi = fields.harmonic(n, "saddle", offset=3.0)
        psi = fields.harmonic(n, "bilinear", offset=2.0)
        p = CauchyProblem(phi, psi, Dimension(n))
        rule = sphere_quadrature_for_order(n, 7)
        rng = np.random.default_rng(n)
        for t in (0.5, 1.0, 2.0):
            x = rng.uniform(-1.0, 1.0, n)
            exact = float(phi(x[None, :])[0]) + t * float(psi(x[None, :])[0])
            s = solve_point(p, x, t, rule=rule, with_error=False)
            assert abs(s.u - exact) <= 1e-8 * abs(exact)

    @pytest.mark.parametrize("n", [2, 4])
    def test_harmonic_data_even(self, n):
        phi = fields.harmonic(n, "saddle", offset=3.0)
        psi = fields.harmonic(n, "bilinear", offset=2.0)
        p = CauchyProblem(phi, psi, Dimension(n))
        rule = sphere_quadrature_for_order(n, 7)
        rng = np.random.default_rng(n)
        for t in (0.5, 1.0, 2.0):
            x = rng.uniform(-1.0, 1.0, n)
            exact = float(phi(x[None, :])[0]) + t * float(psi(x[None, :])[0])
            s = solve_point(p, x, t, rule=rule, with_error=False)
            assert abs(s.u - exact) <= 1e-8 * abs(exact)

    def test_linearity(self):
        n = 3
        rng = np.random.default_rng(12)
        a, b = rng.uniform(-2, 2, 2)
        phi1, psi1 = fields.gaussian(n, sigma=1.0), fields.bump(n, radius=1.5)
        phi2, psi2 = fields.bump(n, radius=2.0), fields.gaussian(n, sigma=0.8)

        def combo_field(f1, f2):
            return fields.ScalarField(lambda pts: a * f1(pts) + b * f2(pts), n,
                                      support_radius=max(f1.support_radius, f2.support_radius))

        p_combo = CauchyProblem(combo_field(phi1, phi2), combo_field(psi1, psi2), Dimension(n))
        p1 = CauchyProblem(phi1, psi1, Dimension(n))
        p2 = CauchyProblem(phi2, psi2, Dimension(n))
        x = np.array([0.2, -0.3, 0.4])
        t = 1.2
        u_combo = solve_point(p_combo, x, t, with_error=False).u
        u_split = (a * solve_point(p1, x, t, with_error=False).u
                   + b * solve_point(p2, x, t, with_error=False).u)
        assert u_combo == pytest.approx(u_split, rel=1e-10)

    def test_linearity_even(self):
        n = 2
        rng = np.random.default_rng(21)
        a, b = rng.uniform(-2, 2, 2)
        psi1, psi2 = fields.gaussian(n, sigma=1.0), fields.bump(n, radius=1.5)
        combo = fields.ScalarField(lambda pts: a * psi1(pts) + b * psi2(pts), n,
                                   support_radius=max(psi1.support_radius,
                                                      psi2.support_radius))
        x = np.array([0.4, -0.1])
        t = 0.9
        u_combo = solve_point(problem(n, psi=combo), x, t, with_error=False).u
        u_split = (a * solve_point(problem(n, psi=psi1), x, t, with_error=False).u
                   + b * solve_point(problem(n, psi=psi2), x, t, with_error=False).u)
        assert u_combo == pytest.approx(u_split, rel=1e-10)

    def test_time_zero_returns_phi(self):
        phi = fields.gaussian(3, sigma=1.0)
        p = problem(3, phi=phi)
        x = np.array([0.1, 0.2, 0.3])
        assert solve_point(p, x, 0.0).u == pytest.approx(float(phi(x[None, :])[0]))

    def test_initial_condition_recovery(self):
        # u(x, t) - phi(x) = O(t^2): the quadratic-coefficient estimates from
        # t in {0.01, 0.02, 0.04} must agree within 10 percent
        phi = fields.gaussian(3, sigma=1.0)
        p = problem(3, phi=phi)
        x = np.array([0.3, -0.2, 0.5])
        phix = float(phi(x[None, :])[0])
        cs = []
        for t in (0.01, 0.02, 0.04):
            s = solve_point(p, x, t, with_error=False)
            cs.append(abs(s.u - phix) / t**2)
        mid = sorted(cs)[1]
        assert max(abs(c - mid) for c in cs) <= 0.1 * mid

    def test_bad_stencil_spec(self):
        p = problem(3, psi=fields.constant(3, 1.0))
        with pytest.raises(StencilError):
            solve_point(p, np.zeros(3), 1.0, spec=RadialDerivativeSpec(0, 0.5, 4))
        with pytest.raises(ValueError):
            solve_point(p, np.zeros(3), 1.0, spec=RadialDerivativeSpec(2, 0.01, 8))

    @pytest.mark.parametrize("psi", [fields.gaussian(3, sigma=1.0),
                                     fields.harmonic(3, "saddle"),
                                     fields.ScalarField(lambda pts: pts[..., 0] ** 4, 3)],
                             ids=["reduced_rule", "degree_rule", "product_rule"])
    def test_stencil_reaching_nonpositive_radius(self, psi):
        # h = 0.1 passes validate_radius at t = 1 (m = 0), but the degree-30
        # stencil reaches 1 - 15 h = -0.5: no sphere of negative radius is summed
        with pytest.raises(StencilError, match="reaches radius -0.5"):
            solve_point(problem(3, psi=psi), np.zeros(3), 1.0,
                        spec=RadialDerivativeSpec(0, 0.1, 30))

    def test_error_estimate_tracks_truth(self):
        psi = fields.gaussian(2, sigma=1.0)
        p = problem(2, psi=psi)
        s = solve_point(p, np.array([0.2, 0.1]), 1.0)
        assert math.isfinite(s.error_estimate)
        assert s.error_estimate < 1e-8


def counting(field):
    """field with an evaluator that records how many points it was given."""
    calls = []

    def evaluate(points):
        calls.append(points.shape[:-1])
        return field(points)

    return fields.ScalarField(evaluate, field.dim), calls


def gaussian_wave_hankel(n, sigma, x, t, velocity=True):
    """u(x, t) for phi = 0, psi = exp(-|y|^2 / (2 sigma^2)) by the radial
    inverse Fourier (Hankel) integral of psi_hat(k) sin(k t) / k; with
    velocity=False, for phi that Gaussian and psi = 0 (cos(k t) for sin(k t) / k)."""
    r = float(np.linalg.norm(x))

    def integrand(k):
        time_factor = math.sin(k * t) if velocity else k * math.cos(k * t)
        return (sigma**n * math.exp(-0.5 * (sigma * k) ** 2) * time_factor
                * jv(n / 2 - 1, k * r) * k ** (n / 2 - 1))

    value, _ = quad(integrand, 0.0, 40.0 / sigma, limit=400, epsabs=1e-15, epsrel=1e-13)
    return r ** (1 - n / 2) * value


class TestDescent:
    def test_n2_matches_weighted_ball_mean(self):
        psi = fields.gaussian(2, sigma=0.8, center=[0.3, -0.2])
        x = np.array([0.4, 0.1])
        for t in (0.5, 1.0, 2.0):
            u = solve_point(problem(2, psi=psi), x, t, with_error=False).u
            oracle = 0.5 * t * t * weighted_ball_mean(psi, x, t)
            assert u == pytest.approx(oracle, rel=1e-10)

    def test_n4_gaussian_matches_hankel_integral(self):
        # the default stencil leaves 2e-7 to 7e-7 relative truncation here; a finer one
        # isolates the descent quadrature
        psi = fields.gaussian(4, sigma=1.0)
        p = problem(4, psi=psi)
        for x, t in ((np.array([0.3, -0.2, 0.1, 0.4]), 0.9),
                     (np.array([0.5, 0.0, 0.2, -0.1]), 1.5)):
            spec = RadialDerivativeSpec(1, t / 24.0, 8)
            u = solve_point(p, x, t, spec=spec, with_error=False).u
            assert u == pytest.approx(gaussian_wave_hankel(4, 1.0, x, t), rel=1e-8)

    def test_n4_field_points(self):
        psi, calls = counting(fields.gaussian(4, sigma=1.0))
        t = 1.2
        solve_point(problem(4, psi=psi), np.full(4, 0.1), t, with_error=False)
        radii = default_spec(1, t).degree + 1  # psi's stencil
        expected = radii * sphere_quadrature(5).nodes.shape[0]
        assert sum(math.prod(shape) for shape in calls) == expected

    def test_lower_rule_replaced_by_same_order(self):
        low = sphere_quadrature_for_order(2, 7)
        assert descent_rule(2, low) is sphere_quadrature_for_order(3, 7)
        assert descent_rule(4) is sphere_quadrature(5)
        psi, calls = counting(fields.gaussian(2, sigma=1.0))
        p = problem(2, psi=psi)
        x = np.array([0.2, 0.3])
        a = solve_point(p, x, 1.0, rule=low, with_error=False).u
        b = solve_point(p, x, 1.0, rule=sphere_quadrature_for_order(3, 7),
                        with_error=False).u
        assert a == b
        assert calls[0][-1] == sphere_quadrature_for_order(3, 7).nodes.shape[0]
        with pytest.raises(ValueError):
            descent_rule(2, sphere_quadrature(5))

    def test_n12_rejected(self):
        with pytest.raises(ValueError, match="n <= 10"):
            solve_point(problem(12, psi=fields.constant(12, 1.0)), np.zeros(12), 1.0)
        with pytest.raises(ValueError, match="n <= 10"):
            DistributionFunctional(1.0, Dimension(12)).action(lambda pts: pts[..., 0])


class TestSphereSums:
    def test_product_rule_solve_memory(self):
        # one chunk's points are built in place within geometry._CHUNK_BYTES
        # (8 MB); the evaluator's temporaries add a fraction of that. The
        # cubic without its degree takes the default product rule, as any
        # callable does.
        cubic = fields.harmonic(7, "cubic")
        assert cubic.degree == 3
        p = problem(7, psi=fields.ScalarField(cubic.evaluator, 7))
        x = np.full(7, 0.1)
        solve_point(p, x, 1.0)  # builds the memoized product rule
        tracemalloc.start()
        try:
            solve_point(p, x, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20


def batch_cases(n):
    """(label, phi, psi) initial data for comparing solve_points with solve_point."""
    plain = fields.harmonic(n, "bilinear")
    cases = [
        ("gaussians", fields.gaussian(n, 0.9, amplitude=1.3), fields.gaussian(n, 1.1)),
        ("off-centre", fields.zero(n), fields.gaussian(n, 0.8, center=np.linspace(0.4, -0.3, n))),
        ("bump", fields.bump(n, 1.5, center=0.1), fields.zero(n)),
        ("constants", fields.constant(n, 0.4), fields.constant(n, -1.2)),
        ("radial psi, harmonic phi", fields.harmonic(n, "saddle", 1.1, 0.3),
         fields.gaussian(n, 1.0)),
        # a bare callable takes the default product rule, or the caller's
        ("plain", fields.ScalarField(plain.evaluator, n), fields.zero(n)),
    ]
    for name in fields.harmonic_names():
        if n >= 3 or name != "triple":
            cases.append((name, fields.harmonic(n, name, 0.9, 1.5),
                          fields.harmonic(n, "linear", 0.5, 2.0)))
    return cases


class TestSolvePoints:
    """solve_points sums each field once for all points and gives each point
    the solve_point value, to the bit."""

    @staticmethod
    def assert_same(batch, single):
        assert len(batch) == len(single)
        for b, s in zip(batch, single):
            assert b.u == s.u or (math.isnan(b.u) and math.isnan(s.u)), (b.u, s.u)
            assert (b.error_estimate == s.error_estimate
                    or (math.isnan(b.error_estimate) and math.isnan(s.error_estimate)))
            assert np.array_equal(b.x, s.x) and b.t == s.t and b.method == s.method

    @pytest.mark.parametrize("n", range(2, 8))
    def test_bitwise_equal_to_one_point_at_a_time(self, n):
        rng = np.random.default_rng(40 + n)
        xs = rng.uniform(-1.0, 1.0, size=(4, n))
        small = sphere_quadrature_for_order(n, 5)
        for label, phi, psi in batch_cases(n):
            p = CauchyProblem(phi, psi, Dimension(n))
            kwargs = [{"with_error": False}, {"rule": small}]
            if label != "plain":  # its estimate on the default rule takes seconds at n >= 5
                kwargs.append({})
            for t in (0.0, 0.9):
                for kw in kwargs:
                    self.assert_same(solve_points(p, xs, t, **kw),
                                     [solve_point(p, x, t, **kw) for x in xs])
            spec = RadialDerivativeSpec(Dimension(n).derivative_order, 0.05,
                                        default_spec(Dimension(n).derivative_order, 1.4).degree)
            self.assert_same(solve_points(p, xs, 1.4, spec=spec, rule=small),
                             [solve_point(p, x, 1.4, spec=spec, rule=small) for x in xs])

    def test_dalembert_points(self):
        p = problem(1, phi=fields.gaussian(1, 0.7), psi=fields.bump(1, 1.2))
        xs = np.array([[-0.3], [0.0], [0.8]])
        self.assert_same(solve_points(p, xs, 0.6), [solve_point(p, x, 0.6) for x in xs])

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_no_points_evaluate_no_field(self, n):
        psi, calls = counted(fields.gaussian(n, 1.0))
        phi, phi_calls = counted(fields.harmonic(n, "linear"))
        assert solve_points(problem(n, phi=phi, psi=psi), np.empty((0, n)), 1.0) == []
        assert calls == [] and phi_calls == []

    def test_shapes_and_errors(self):
        p = problem(3, psi=fields.gaussian(3, 1.0))
        with pytest.raises(ValueError, match=r"shape \(P, 3\)"):
            solve_points(p, np.zeros(3), 1.0)
        with pytest.raises(ValueError, match="3 components"):
            solve_point(p, np.zeros((1, 3)), 1.0)
        with pytest.raises(ValueError, match="non-negative"):
            solve_points(p, np.zeros((2, 3)), -1.0)
        with pytest.raises(StencilError):
            solve_points(p, np.zeros((2, 3)), 1.0, spec=RadialDerivativeSpec(0, 0.5, 4))

    def test_one_sphere_sum_call_per_radius_set(self):
        # all points share each sphere_sums call: the n = 3 reduced rule of
        # 64 nodes at 5 psi radii keeps 40 points within one group
        psi, calls = counted(fields.gaussian(3, 1.0))
        solve_points(problem(3, psi=psi), np.random.default_rng(1).uniform(-1, 1, (40, 3)),
                     1.0, with_error=False)
        assert calls == [40 * 5 * 64]


def counted(field):
    """field, metadata kept, with an evaluator that records how many points it was given."""
    calls = []

    def evaluate(points):
        calls.append(math.prod(points.shape[:-1]))
        return field(points)

    return dataclasses.replace(field, evaluator=evaluate), calls


class TestPolynomialData:
    """Fields with a degree take the product rule of that order, which sums them
    exactly: u = phi + t psi for harmonic data (criterion 06) with no rule given."""

    @pytest.mark.parametrize("n", range(2, 12))
    def test_harmonic_solves_are_exact(self, n):
        rng = np.random.default_rng(100 + n)
        for name in fields.harmonic_names():
            if n < 3 and name == "triple":
                continue
            phi = fields.harmonic(n, name, offset=3.0)
            psi = fields.harmonic(n, name, amplitude=0.5, offset=2.0)
            p = CauchyProblem(phi, psi, Dimension(n))
            x, t = rng.uniform(-1.0, 1.0, n), rng.uniform(0.5, 2.0)
            exact = float(phi(x[None, :])[0]) + t * float(psi(x[None, :])[0])
            s = solve_point(p, x, t)
            assert abs(s.u - exact) <= 1e-8 * abs(exact), (name, s.u, exact)
            assert abs(s.u - exact) <= s.error_estimate, (name, s.u, exact)

    def test_error_estimate_bounds_error_on_random_draws(self):
        # the error of exactly summed data is rounding, which the h against
        # h / 2 difference alone misses on about one draw in twenty
        rng = np.random.default_rng(20261018)
        names = fields.harmonic_names()
        for _ in range(60):
            n = int(rng.integers(2, 12))
            pool = [name for name in names if n >= 3 or name != "triple"]
            phi, psi = (fields.harmonic(n, str(rng.choice(pool)), amplitude=rng.uniform(-2, 2),
                                        offset=rng.uniform(-2, 2)) for _ in range(2))
            x, t = rng.uniform(-1.0, 1.0, n), rng.uniform(0.2, 3.0)
            s = solve_point(CauchyProblem(phi, psi, Dimension(n)), x, t)
            exact = float(phi(x[None, :])[0]) + t * float(psi(x[None, :])[0])
            assert abs(s.u - exact) <= s.error_estimate, (n, phi.label, psi.label, x, t)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_constant_data(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(3):
            a, b = rng.uniform(0.5, 3.0, 2)
            x, t = rng.uniform(-2.0, 2.0, n), rng.uniform(0.2, 4.0)
            s = solve_point(CauchyProblem(fields.constant(n, a), fields.constant(n, b),
                                          Dimension(n)), x, t)
            assert abs(s.u - (a + t * b)) <= 1e-12 * (a + t * b)
            assert abs(s.u - (a + t * b)) <= s.error_estimate

    @pytest.mark.parametrize("n, name", [(3, "saddle"), (4, "triple"), (7, "cubic"),
                                         (3, "linear")])
    def test_field_points_of_the_order_d_rule(self, n, name):
        f, calls = counted(fields.harmonic(n, name))
        t = 1.2
        solve_point(problem(n, psi=f), np.full(n, 0.1), t, with_error=False)
        radii = default_spec(Dimension(n).derivative_order, t).degree + 1
        means_n = n + 1 - n % 2
        rule = sphere_quadrature_for_order(means_n, f.degree)
        assert sum(calls) == radii * rule.nodes.shape[0]
        assert rule.nodes.shape[0] < sphere_quadrature(means_n).nodes.shape[0]

    def test_constant_takes_the_order_0_rule(self):
        # a constant is radial too; its degree wins
        c, calls = counted(fields.constant(3, 2.0))
        solve_point(problem(3, psi=c), np.full(3, 0.1), 1.0, with_error=False)
        radii = default_spec(0, 1.0).degree + 1
        assert sum(calls) == radii * sphere_quadrature_for_order(3, 0).nodes.shape[0]

    @pytest.mark.parametrize("n, degree", [(3, 96), (4, 24), (11, 8)])
    def test_degree_above_the_default_order_takes_the_default_rule(self, n, degree, monkeypatch):
        # a degree's rule would be larger than the default one: it is never built
        means_n = n + 1 - n % 2
        default = sphere_quadrature(n) if n % 2 else descent_rule(n)
        if n == 11:
            # the default n = 11 rule has 2^21 nodes; a small rule stands in for it
            default = sphere_quadrature_for_order(11, 1)
            monkeypatch.setattr(solvers, "sphere_quadrature", lambda k: default)

        def refuse(k, order):
            raise AssertionError(f"built the order-{order} rule on S^{k - 1}")

        monkeypatch.setattr(solvers, "sphere_quadrature_for_order", refuse)
        cubic = fields.harmonic(n, "cubic")
        f, calls = counted(fields.ScalarField(cubic.evaluator, n, degree=degree))
        t = 1.2
        solve_point(problem(n, psi=f), np.full(n, 0.1), t, with_error=False)
        radii = default_spec(Dimension(n).derivative_order, t).degree + 1
        assert default.n == means_n
        assert sum(calls) == radii * default.nodes.shape[0]

    def test_lift_keeps_the_degree(self):
        assert solvers._lift(fields.harmonic(4, "triple")).degree == 3
        assert solvers._lift(fields.constant(2, 1.0)).degree == 0

    @pytest.mark.parametrize("n", [3, 4])
    def test_explicit_rule_is_honoured(self, n):
        f, calls = counted(fields.harmonic(n, "saddle", offset=1.0))
        rule = sphere_quadrature_for_order(n, 7)
        x, t = np.full(n, 0.1), 1.2
        s = solve_point(problem(n, psi=f), x, t, rule=rule, with_error=False)
        radii = default_spec(Dimension(n).derivative_order, t).degree + 1
        means_rule = rule if n % 2 else descent_rule(n, rule)
        assert sum(calls) == radii * means_rule.nodes.shape[0]
        assert s.u == pytest.approx(t * float(f(x[None, :])[0]), rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4])
    def test_field_without_degree_takes_the_default_rule(self, n):
        # the same cubic without its degree: the default product rule, as before
        cubic = fields.harmonic(n, "cubic", offset=1.0)
        plain = fields.ScalarField(cubic.evaluator, n)
        x, t = np.full(n, 0.2), 0.9
        default = sphere_quadrature(n) if n % 2 else descent_rule(n)
        assert (solve_point(problem(n, psi=plain), x, t).u
                == solve_point(problem(n, psi=plain), x, t, rule=default).u)


def kirchhoff_offset_gaussian(sigma, offset, t):
    """n = 3, phi = 0, psi = exp(-|y - c|^2 / (2 sigma^2)) with |x - c| = offset:
    t times the elementary sphere mean of the Gaussian."""
    return sigma**2 / (2.0 * offset) * (math.exp(-((t - offset) ** 2) / (2.0 * sigma**2))
                                        - math.exp(-((t + offset) ** 2) / (2.0 * sigma**2)))


def probe(n, offset):
    """(0.1, ..., 0.1) when offset is None, else offset * e_1."""
    if offset is None:
        return np.full(n, 0.1)
    x = np.zeros(n)
    x[0] = offset
    return x


#: (n, sigma, t, probe offset): the cases the product rule got 0.4 % to 140 %
#: wrong with an error_estimate near 1e-7
HANKEL_CASES = [(6, 0.5, 2.0, None), (8, 0.5, 2.0, None), (10, 0.5, 2.0, None),
                (4, 0.3, 3.0, None), (7, 0.5, 2.0, 1.5), (9, 0.5, 2.0, 1.5)]

#: the Hankel reference's own quadrature tolerance, relative to the data's amplitude
REFERENCE_TOL = 1e-12


class TestRadialReduction:
    """Radial data take the single-coordinate reduction (two coordinates by
    descent); the references are independent of the program's quadrature."""

    @pytest.mark.parametrize("n, sigma, t, offset", HANKEL_CASES)
    def test_matches_hankel_integral(self, n, sigma, t, offset):
        x = probe(n, offset)
        s = solve_point(problem(n, psi=fields.gaussian(n, sigma=sigma)), x, t)
        ref = gaussian_wave_hankel(n, sigma, x, t)
        assert abs(s.u - ref) <= 1e-3 * abs(ref)
        assert abs(s.u - ref) <= s.error_estimate + REFERENCE_TOL

    def test_error_estimate_bounds_error_on_random_draws(self):
        rng = np.random.default_rng(20261018)
        for _ in range(12):
            n = int(rng.integers(2, 11))
            s_phi, s_psi = rng.uniform(0.4, 1.2, size=2)
            t = rng.uniform(0.5, 3.0)
            x = rng.standard_normal(n)
            x *= rng.uniform(0.0, 1.5) / np.linalg.norm(x)
            p = CauchyProblem(fields.gaussian(n, sigma=s_phi), fields.gaussian(n, sigma=s_psi),
                              Dimension(n))
            s = solve_point(p, x, t)
            ref = (gaussian_wave_hankel(n, s_phi, x, t, velocity=False)
                   + gaussian_wave_hankel(n, s_psi, x, t))
            assert abs(s.u - ref) <= s.error_estimate + REFERENCE_TOL, (n, s_phi, s_psi, t, x)

    def test_estimate_bounds_the_rounding_of_kirchhoff_means(self):
        # n = 3 velocity data: the chain is the sample at t, which h and h / 2
        # share, so only the rounding term sees the error. The reference is
        # the closed form t * (sphere mean) in 40 digits.
        rng = np.random.default_rng(4)
        for _ in range(100):
            sigma, t = rng.uniform(0.4, 1.2), rng.uniform(0.2, 3.0)
            x, c = rng.uniform(-1.0, 1.0, (2, 3))
            s = solve_point(problem(3, psi=fields.gaussian(3, sigma=sigma, center=c)), x, t)
            with mpmath.workdps(40):
                d, sig, tt = (mpmath.mpf(float(v)) for v in (np.linalg.norm(x - c), sigma, t))
                exact = sig**2 / (2 * d) * (mpmath.exp(-(tt - d) ** 2 / (2 * sig**2))
                                            - mpmath.exp(-(tt + d) ** 2 / (2 * sig**2)))
                error = abs(float(mpmath.mpf(s.u) - exact))
            assert error <= s.error_estimate, (sigma, t, x, c)

    def test_near_front_matches_kirchhoff(self):
        # a narrow Gaussian six units off, sampled as its front reaches the probe
        psi = fields.gaussian(3, sigma=0.15, center=[6.0, 0.0, 0.0])
        s = solve_point(problem(3, psi=psi), np.zeros(3), 6.0)
        ref = kirchhoff_offset_gaussian(0.15, 6.0, 6.0)
        assert abs(s.u - ref) <= 1e-8 * ref
        assert abs(s.u - ref) <= s.error_estimate + REFERENCE_TOL

    def test_quadrature_estimate_reports_a_short_rule(self):
        # a length scale 4 t / 64 holds the rule at 64 nodes, which misses the
        # near-front value by about 4 %; the 64-against-32 difference shows it
        psi = dataclasses.replace(fields.gaussian(3, sigma=0.15, center=[6.0, 0.0, 0.0]),
                                  length_scale=6.0 * 4.0 / 64.0)
        assert solvers.radial_node_count(psi, 6.0) == 64
        s = solve_point(problem(3, psi=psi), np.zeros(3), 6.0)
        error = abs(s.u - kirchhoff_offset_gaussian(0.15, 6.0, 6.0))
        assert error > 1e-2 * s.u
        assert s.error_estimate >= error

    @pytest.mark.parametrize("n", range(2, 8))
    def test_quadrature_estimate_bounds_short_rules(self, n):
        # narrow off-centre Gaussians whose forced length scale t / 16 holds
        # the rule at 64 nodes, short of the 4 t / sigma = 60 to 240 they
        # need, at a stencil spacing of sigma / 8 that leaves the quadrature
        # error the larger part
        rng = np.random.default_rng(300 + n)
        m = Dimension(n).derivative_order
        for _ in range(4):
            sigma, offset = rng.uniform(0.1, 0.2), rng.uniform(3.0, 6.0)
            t = offset + rng.uniform(-1.5, 1.5) * sigma
            direction = rng.standard_normal(n)
            center = offset * direction / np.linalg.norm(direction)
            g = dataclasses.replace(fields.gaussian(n, sigma=sigma, center=center),
                                    length_scale=t / 16.0)
            assert solvers.radial_node_count(g, t) == 64
            velocity = bool(rng.integers(2))
            p = problem(n, psi=g) if velocity else problem(n, phi=g)
            spec = RadialDerivativeSpec(m, sigma / 8.0, default_spec(m, t).degree)
            s = solve_point(p, np.zeros(n), t, spec=spec)
            ref = gaussian_wave_hankel(n, sigma, -center, t, velocity=velocity)
            assert abs(s.u - ref) <= s.error_estimate + REFERENCE_TOL, (sigma, offset, t, velocity)

    @pytest.mark.xfail(strict=True, reason="the L / 2 check misses a rule short by 2x when "
                       "u_(L/2) lands near u_L: here the estimate is 5x below the error")
    def test_quadrature_estimate_bounds_a_rule_short_by_half(self):
        # found by a wider seeded sweep of the test above (1 draw of 120); its
        # sizing asks 4 t / sigma = 134 nodes, the forced length scale gives 64
        n, sigma, t = 5, 0.106, 3.557
        center = np.zeros(n)
        center[0] = 3.634
        psi = dataclasses.replace(fields.gaussian(n, sigma=sigma, center=center),
                                  length_scale=t / 16.0)
        spec = RadialDerivativeSpec(1, sigma / 8.0, default_spec(1, t).degree)
        s = solve_point(problem(n, psi=psi), np.zeros(n), t, spec=spec)
        ref = gaussian_wave_hankel(n, sigma, -center, t)
        assert abs(s.u - ref) <= s.error_estimate + REFERENCE_TOL

    def test_node_count_rule(self):
        g = fields.gaussian(3, sigma=0.5)
        assert solvers.radial_node_count(g, 2.0) == 64
        assert solvers.radial_node_count(g, 8.5) == 128  # 4 t / sigma = 68
        assert solvers.radial_node_count(fields.constant(3, 1.0), 100.0) == 64

    @pytest.mark.parametrize("n", [3, 4])
    def test_node_count_beyond_the_cap(self, n):
        # 4 t / sigma = 4e150 nodes: refused before any rule is built
        psi = fields.gaussian(n, sigma=1e-150)
        with pytest.raises(EvaluationError):
            solve_point(problem(n, psi=psi), np.zeros(n), 1.0)
        assert solvers.radial_node_count(fields.gaussian(n, sigma=1.0), 512.0) == 2048
        with pytest.raises(EvaluationError):
            solvers.radial_node_count(fields.gaussian(n, sigma=1.0), 513.0)

    @pytest.mark.parametrize("n", [3, 5, 4, 6])
    def test_field_points(self, n):
        # the counting wrapper keeps the radial metadata, as dataclasses.replace does
        calls = []
        psi = fields.gaussian(n, sigma=0.8)

        def evaluate(points):
            calls.append(points.shape[:-1])
            return psi(points)

        counted = dataclasses.replace(psi, evaluator=evaluate)
        t = 1.2
        solve_point(problem(n, psi=counted), np.full(n, 0.1), t, with_error=False)
        radii = default_spec(Dimension(n).derivative_order, t).degree + 1
        count = solvers.radial_node_count(psi, t)
        per_radius = count if n % 2 else count * (count // 2)  # zeta folded onto zeta > 0
        assert sum(math.prod(shape) for shape in calls) == radii * per_radius

    @pytest.mark.parametrize("n", [9, 10])
    def test_radial_data_build_no_product_rule(self, n, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("radial data must not build a product rule")

        monkeypatch.setattr(solvers, "sphere_quadrature", refuse)
        monkeypatch.setattr(solvers, "descent_rule", refuse)
        p = CauchyProblem(fields.gaussian(n, sigma=0.8),
                          fields.bump(n, radius=1.5, center=[0.2] * n), Dimension(n))
        assert math.isfinite(solve_point(p, np.full(n, 0.1), 1.0).u)

    def test_lift_keeps_the_centre(self):
        lifted = solvers._lift(fields.gaussian(4, sigma=0.6, center=[0.1, 0.2, 0.3, 0.4]))
        assert lifted.dim == 5
        assert lifted.radial_center == (0.1, 0.2, 0.3, 0.4)
        assert lifted.length_scale == 0.6

    @pytest.mark.parametrize("x", [[0.3, -0.2, 0.1, 0.7], [-0.5, 0.4, 0.2, -1.1]])
    def test_partial_centre_takes_the_product_rule(self, x):
        # exp(-|y_1..3|^2) in R^4, radial in its first three coordinates only:
        # the lifted field drops the centre. The data ignore y_4, so the 3-D
        # solution of the same data at x[:3] is the reference.
        g3 = fields.gaussian(3, sigma=math.sqrt(0.5))
        g4 = fields.ScalarField(lambda pts: g3(pts[..., :3]), 4, radial_center=(0.0, 0.0, 0.0),
                                length_scale=g3.length_scale)
        assert solvers._lift(g4).radial_center is None
        x, t = np.array(x), 1.1
        s4 = solve_point(problem(4, psi=g4, phi=g4), x, t)
        s3 = solve_point(problem(3, psi=g3, phi=g3), x[:3], t)
        assert abs(s4.u - s3.u) <= s4.error_estimate + s3.error_estimate


def _lattice_probes(grid, n, indices):
    """(point, lattice index) pairs on the grid's diagonal."""
    axis = grid.axis()
    return [(np.array([axis[i]] * n), (i,) * n) for i in indices]


def field_points(p, x, t, calls, **kwargs):
    """Points the fields in calls were given by one solve_point."""
    for record in calls:
        record.clear()
    solve_point(p, x, t, **kwargs)
    return sum(sum(record) for record in calls)


class TestEstimateCost:
    """The error estimate's passes cost at most the solution's, in field
    points: the h / 2 stencil sums its odd offsets only, the reduced rule is
    checked at half the nodes per coordinate, and polynomial data take
    |field| from the values the h pass evaluates."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_gaussian_data(self, n):
        phi, phi_calls = counted(fields.gaussian(n, sigma=0.7))
        psi, psi_calls = counted(fields.gaussian(n, sigma=0.9, amplitude=0.5))
        p, x, t = CauchyProblem(phi, psi, Dimension(n)), np.full(n, 0.1), 1.2
        solution = field_points(p, x, t, [phi_calls, psi_calls], with_error=False)
        assert field_points(p, x, t, [phi_calls, psi_calls]) <= 2 * solution

    @pytest.mark.parametrize("n", [3, 7])
    def test_harmonic_data(self, n):
        phi, phi_calls = counted(fields.harmonic(n, "triple", offset=1.0))
        psi, psi_calls = counted(fields.harmonic(n, "linear", amplitude=0.5))
        p, x, t = CauchyProblem(phi, psi, Dimension(n)), np.full(n, 0.1), 1.2
        solution = field_points(p, x, t, [phi_calls, psi_calls], with_error=False)
        assert 2 * field_points(p, x, t, [phi_calls, psi_calls]) <= 3 * solution


class TestAgainstSpectralOracle:
    """Both sphere-sum paths against the periodic FFT oracle at lattice points."""

    @pytest.mark.parametrize("n, points", [(2, 256), (3, 64)])
    def test_two_offset_gaussians_take_the_product_rule(self, n, points):
        g1 = fields.gaussian(n, sigma=0.8, center=[0.5] + [0.0] * (n - 1))
        g2 = fields.gaussian(n, sigma=0.7, center=[-0.3, 0.4] + [0.0] * (n - 2), amplitude=0.6)
        psi = fields.ScalarField(lambda pts: g1(pts) + g2(pts), n,
                                 support_radius=max(g1.support_radius, g2.support_radius))
        assert psi.radial_center is None
        p = problem(n, psi=psi)
        grid = GridSpec(12.0, points, n)
        t = 1.1
        sol = spectral_solve(p, grid, t)
        scale = float(np.max(np.abs(sol.values)))
        for x, idx in _lattice_probes(grid, n, (points // 2, points // 2 + 1)):
            u = solve_point(p, x, t, with_error=False).u
            assert abs(u - sol.values[idx]) <= 1e-5 * scale

    @pytest.mark.parametrize("n, points", [(2, 256), (3, 128)])
    def test_bump(self, n, points):
        psi = fields.bump(n, radius=1.5, center=[0.3] + [0.0] * (n - 1))
        phi = fields.bump(n, radius=2.0, sharpness=2.0)
        p = CauchyProblem(phi, psi, Dimension(n))
        grid = GridSpec(4.0, points, n)
        t = 1.3
        sol = spectral_solve(p, grid, t)
        scale = float(np.max(np.abs(sol.values)))
        fine = RadialDerivativeSpec(0, t / 40.0, 4)  # the default h = t / 10 leaves 1e-3
        for x, idx in _lattice_probes(grid, n, (points // 2, points // 2 + points // 16)):
            oracle = sol.values[idx]
            s = solve_point(p, x, t)
            assert abs(s.u - oracle) <= s.error_estimate
            assert abs(solve_point(p, x, t, spec=fine).u - oracle) <= 1e-5 * scale


class TestDalembert:
    def test_linear_phi(self):
        phi = fields.harmonic(1, "linear")
        p = CauchyProblem(phi, fields.zero(1), Dimension(1))
        s = solve_dalembert_point(p, 0.7, 2.0)
        assert s.method == "dalembert"
        assert s.u == pytest.approx(0.7, rel=1e-13)

    def test_constant_psi(self):
        p = problem(1, psi=fields.constant(1, 1.0))
        assert solve_dalembert_point(p, 0.3, 1.8).u == pytest.approx(1.8, rel=1e-12)

    def test_sine_phi(self):
        phi = fields.ScalarField(lambda pts: np.sin(pts[..., 0]), 1, periodic=True)
        p = CauchyProblem(phi, fields.zero(1), Dimension(1))
        for x, t in ((0.4, 0.9), (-1.2, 2.5)):
            assert solve_dalembert_point(p, x, t).u == pytest.approx(
                math.sin(x) * math.cos(t), rel=1e-12)

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            solve_dalembert_point(problem(2), 0.0, 1.0)

    def test_dispatch(self):
        p = problem(1, psi=fields.constant(1, 1.0))
        assert solve_point(p, 0.0, 1.0).method == "dalembert"
        p3 = problem(3, psi=fields.constant(3, 1.0))
        assert solve_point(p3, np.zeros(3), 1.0).method == "spherical_means"
        p2 = problem(2, psi=fields.constant(2, 1.0))
        assert solve_point(p2, np.zeros(2), 1.0).method == "weighted_means"


class TestSpectral:
    def test_single_lattice_mode(self):
        grid = GridSpec(8.0, 256, 1)
        k = 2.0 * math.pi * 3.0 / 16.0
        mode = fields.ScalarField(lambda pts: np.cos(k * pts[..., 0]), 1, periodic=True)
        p = CauchyProblem(mode, fields.zero(1), Dimension(1))
        sol = spectral_solve(p, grid, 0.7)
        exact = np.cos(k * grid.axis()) * math.cos(k * 0.7)
        np.testing.assert_allclose(sol.values, exact, atol=1e-13)

    def test_constant_velocity_mode(self):
        grid = GridSpec(8.0, 128, 2)
        p = problem(2, psi=fields.constant(2, 2.5))
        sol = spectral_solve(p, grid, 0.6)
        np.testing.assert_allclose(sol.values, 2.5 * 0.6, atol=1e-12)

    def test_gaussian_matches_dalembert(self):
        phi = fields.gaussian(1, sigma=1.0)
        p = CauchyProblem(phi, fields.gaussian(1, sigma=0.8), Dimension(1))
        grid = GridSpec(16.0, 4096, 1)
        sol = spectral_solve(p, grid, 1.5)
        axis = grid.axis()
        for i in np.nonzero(np.abs(axis) < 3.0)[0][::101]:
            d = solve_dalembert_point(p, axis[i], 1.5)
            assert abs(d.u - sol.values[i]) <= 1e-6

    def test_wraparound_guard(self):
        p = problem(1, phi=fields.gaussian(1, sigma=1.0))
        with pytest.raises(DomainSizeError):
            spectral_solve(p, GridSpec(4.0, 128, 1), 1.0)
        with pytest.raises(DomainSizeError):
            spectral_solve(problem(1, phi=fields.harmonic(1, "linear")),
                           GridSpec(8.0, 128, 1), 1.0)

    def test_hermitian_symmetry(self):
        p = CauchyProblem(fields.gaussian(2, sigma=1.0),
                          fields.bump(2, radius=1.0, center=[0.3, 0.0]), Dimension(2))
        grid = GridSpec(10.0, 64, 2)
        state = spectral_state(p, grid)
        scale = max(np.max(np.abs(state.phi_hat)), np.max(np.abs(state.psi_hat)))
        assert hermitian_defect(p, grid) <= 1e-12 * scale

    def test_energy_conservation(self):
        p = CauchyProblem(fields.gaussian(1, sigma=1.0), fields.gaussian(1, sigma=0.5),
                          Dimension(1))
        state = spectral_state(p, GridSpec(16.0, 4096, 1))
        base = spectral_energy(state, 0.0)
        for t in (0.5, 1.5, 3.0, 6.0):
            assert spectral_energy(state, t) == pytest.approx(base, rel=1e-10)

    def test_grid_lookup(self):
        grid = GridSpec(4.0, 64, 2)
        p = problem(2, psi=fields.constant(2, 1.0))
        sol = spectral_solve(p, grid, 0.5)
        assert sol.values[10, 20] == pytest.approx(0.5, rel=1e-12)

    def test_zero_field_not_evaluated(self):
        def refuse(points):
            raise AssertionError("a zero field must not be sampled")

        grid = GridSpec(8.0, 32, 2)
        silent = fields.ScalarField(refuse, 2, is_zero=True)
        state = spectral_state(CauchyProblem(silent, fields.gaussian(2, sigma=1.0),
                                             Dimension(2)), grid)
        assert state.phi_hat.shape == (32, 17)
        assert not np.any(state.phi_hat)
        reference = spectral_state(problem(2, psi=fields.gaussian(2, sigma=1.0)), grid)
        np.testing.assert_array_equal(state.psi_hat, reference.psi_hat)

    def test_state_reuse(self):
        phi = fields.gaussian(1, sigma=1.0)
        p = CauchyProblem(phi, fields.zero(1), Dimension(1))
        grid = GridSpec(12.0, 512, 1)
        state = spectral_state(p, grid)
        a = spectral_solve(p, grid, 1.0, state=state)
        b = spectral_solve(p, grid, 1.0)
        np.testing.assert_array_equal(a.values, b.values)

    def test_state_from_other_grid_rejected(self):
        # irfftn(s=...) would pad the coarser half spectrum without complaint
        p = CauchyProblem(fields.gaussian(2, sigma=1.0), fields.zero(2), Dimension(2))
        state = spectral_state(p, GridSpec(12.0, 64, 2))
        with pytest.raises(ValueError):
            spectral_solve(p, GridSpec(12.0, 128, 2), 1.0, state=state)

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 64, 1)
        with pytest.raises(ValueError):
            GridSpec(4.0, 1, 1)

    def test_mean_guards(self):
        with pytest.raises(ValueError):
            weighted_ball_mean(fields.constant(2, 1.0), np.zeros(2), -1.0)


def _full_lattice(n, points, t):
    """Off-centre data (complex spectra) on an (N,)^n grid, |k| and the full
    fftn spectra on the full lattice, and the velocity factor sin(|k| t)/|k|."""
    centre = [0.5, -0.3, 0.2][:n]
    p = CauchyProblem(fields.gaussian(n, sigma=0.6, center=centre),
                      fields.gaussian(n, sigma=0.8, center=centre[::-1]), Dimension(n))
    grid = GridSpec(10.0, points, n)
    k = 2.0 * math.pi * np.fft.fftfreq(points, d=grid.spacing)
    knorm = np.sqrt(sum(g * g for g in np.meshgrid(*([k] * n), indexing="ij")))
    phi_hat = np.fft.fftn(grid.sample(p.phi))
    psi_hat = np.fft.fftn(grid.sample(p.psi))
    safe = np.where(knorm == 0.0, 1.0, knorm)
    psi_factor = np.where(knorm == 0.0, t, np.sin(knorm * t) / safe)
    return p, grid, knorm, phi_hat, psi_hat, psi_factor


class TestShells:
    """The |k|^2 shells of the half lattice against |k| summed by broadcasting
    the 1-D frequency axes."""

    @pytest.mark.parametrize("n, points", [(1, 64), (1, 63), (2, 32), (2, 31),
                                           (3, 16), (3, 15)])
    def test_radii_match_broadcast_norm(self, n, points):
        grid = GridSpec(10.0, points, n)
        k = 2.0 * math.pi * np.fft.fftfreq(points, d=grid.spacing)
        k_half = 2.0 * math.pi * np.fft.rfftfreq(points, d=grid.spacing)
        knorm = np.zeros(())
        for axis in [k] * (n - 1) + [k_half]:
            knorm = knorm[..., None] + axis * axis
        knorm = np.sqrt(knorm)
        shell, radii = grid.shells()
        assert shell.dtype == np.int32 and shell.shape == knorm.shape
        assert np.all(np.abs(radii[shell] - knorm) <= 4 * np.spacing(knorm))
        assert radii[0] == 0.0 and np.all(np.diff(radii) > 0)
        assert np.array_equal(np.unique(shell), np.arange(len(radii)))

    def test_one_dimension_needs_no_quadratic_table(self):
        # max m = (N/2)^2: a table over it would take 2^42 bytes here, where
        # each half-axis mode is its own shell
        points = 1 << 22
        tracemalloc.start()
        try:
            shell, radii = GridSpec(10.0, points, 1).shells()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert shell.shape == radii.shape == (points // 2 + 1,)
        assert peak < 4 * radii.nbytes
        assert np.array_equal(shell, np.arange(points // 2 + 1))


class TestHalfSpectrum:
    """The rfftn oracle against an inline full-lattice fftn reference."""

    @pytest.mark.parametrize("n, points", [(1, 64), (1, 63), (2, 32), (2, 31),
                                           (3, 16), (3, 15)])
    def test_solve_matches_full_fft(self, n, points):
        t = 1.3
        p, grid, knorm, phi_hat, psi_hat, psi_factor = _full_lattice(n, points, t)
        reference = np.fft.ifftn(phi_hat * np.cos(knorm * t) + psi_hat * psi_factor).real
        sol = spectral_solve(p, grid, t)
        assert sol.values.shape == (points,) * n
        scale = np.max(np.abs(reference))
        np.testing.assert_allclose(sol.values, reference, rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("n, points", [(1, 64), (1, 63), (2, 32), (2, 31)])
    def test_energy_matches_full_parseval_sum(self, n, points):
        t = 0.9
        p, grid, knorm, phi_hat, psi_hat, psi_factor = _full_lattice(n, points, t)
        u_hat = phi_hat * np.cos(knorm * t) + psi_hat * psi_factor
        ut_hat = -phi_hat * knorm * np.sin(knorm * t) + psi_hat * np.cos(knorm * t)
        reference = float(np.sum(np.abs(ut_hat) ** 2 + (knorm * np.abs(u_hat)) ** 2))
        state = spectral_state(p, grid)
        half = (points,) * (n - 1) + (points // 2 + 1,)
        assert state.shell.shape == state.phi_hat.shape == half
        assert spectral_energy(state, t) == pytest.approx(reference, rel=1e-12)


def _stacked_mesh(grid):
    return np.stack(np.meshgrid(*[grid.axis()] * grid.dim, indexing="ij"), axis=-1)


class TestLeanSpectral:
    """Slab sampling and the in-place transforms give the bits of the
    whole-lattice computations they replace, and hold no full temporaries."""

    @pytest.mark.parametrize("n, points, chunk", [
        (1, 63, None), (2, 31, None), (3, 15, None),
        (1, 63, 8 * 10), (2, 31, 2 * 31 * 8 * 4), (3, 15, 3 * 15 * 15 * 8 * 4),
    ], ids=["n1", "n2", "n3", "n1-partial", "n2-partial", "n3-partial"])
    def test_sample_matches_stacked_meshgrid(self, monkeypatch, n, points, chunk):
        # the small caps give slabs of 10 or 4 rows: 63, 31 and 15 rows end
        # in a partial slab
        if chunk is not None:
            monkeypatch.setattr(solvers, "_CHUNK_BYTES", chunk)
        grid = GridSpec(5.0, points, n)
        field = fields.gaussian(n, sigma=0.7, center=[0.3, -0.2, 0.1][:n])
        np.testing.assert_array_equal(grid.sample(field), field(_stacked_mesh(grid)))

    @pytest.mark.parametrize("n, points", [(1, 64), (1, 63), (2, 32), (2, 31),
                                           (3, 16), (3, 15)])
    def test_solve_matches_irfftn(self, monkeypatch, n, points):
        # slabs of two or three rows, so the multiplier takes several, the
        # last of them partial for some N
        monkeypatch.setattr(_kernels, "_SLAB_BYTES", 2 * 16 * points ** (n - 1))
        t = 1.3
        p, grid = _full_lattice(n, points, t)[:2]
        state = spectral_state(p, grid)
        u_hat = _kernels.wave_multiplier(state.phi_hat, state.psi_hat, state.shell,
                                         state.radii, t)
        reference = np.fft.irfftn(u_hat, s=(points,) * n, axes=tuple(range(n)))
        np.testing.assert_array_equal(spectral_solve(p, grid, t, state=state).values,
                                      reference)

    def test_memory_within_three_half_spectra(self, monkeypatch):
        # caps of one row, so the slabs' temporaries are small against the
        # lattice and the peak shows the full-lattice arrays alone: the real
        # samples, the evolved spectrum and the solution, never together
        # with a copy per axis
        monkeypatch.setattr(solvers, "_CHUNK_BYTES", 1)
        monkeypatch.setattr(_kernels, "_SLAB_BYTES", 1)
        p = CauchyProblem(fields.gaussian(3, sigma=1.0), fields.gaussian(3, sigma=0.8),
                          Dimension(3))
        grid = GridSpec(12.0, 64, 3)
        tracemalloc.start()
        try:
            state = spectral_state(p, grid)
            spectral_solve(p, grid, 1.0, state=state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        live = (state.phi_hat.nbytes + state.psi_hat.nbytes + state.shell.nbytes
                + state.radii.nbytes)
        assert peak - live < 3 * state.phi_hat.nbytes

    def test_probes_hold_no_lattice_array(self, monkeypatch):
        # one-row slabs: the probe path's slab temporaries and its
        # (N,) * (n - 1) + (P,) partial sums stay far below one half spectrum,
        # so a full-lattice u_hat or u on the probe path shows
        monkeypatch.setattr(solvers, "_CHUNK_BYTES", 1)
        monkeypatch.setattr(_kernels, "_SLAB_BYTES", 1)
        p = CauchyProblem(fields.gaussian(3, sigma=1.0), fields.gaussian(3, sigma=0.8),
                          Dimension(3))
        grid = GridSpec(12.0, 64, 3)
        state = spectral_state(p, grid)
        index = [[32, 32, 32], [40, 20, 33], [0, 63, 5], [17, 17, 60]]
        tracemalloc.start()  # after the state, so the peak leaves the live state out
        try:
            spectral_probes(p, grid, 1.0, index, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < state.phi_hat.nbytes / 4


class TestSpectralProbes:
    @pytest.mark.parametrize("t", [0.0, 1.3])
    @pytest.mark.parametrize("n, points", [(1, 64), (1, 63), (2, 32), (2, 31),
                                           (3, 16), (3, 15)])
    def test_matches_the_full_inverse(self, monkeypatch, n, points, t):
        # slabs of 2 or 3 rows, so the last one is partial at n >= 2 (at n = 1
        # the half spectrum is one row)
        rows = 3 if points % 3 else 2
        monkeypatch.setattr(_kernels, "_SLAB_BYTES",
                            rows * 16 * points ** max(n - 2, 0) * (points // 2 + 1))
        p, grid = _full_lattice(n, points, t)[:2]
        state = spectral_state(p, grid)
        # near the data, where u is far above the tolerance
        index = points // 2 + np.random.default_rng(10 * points + n).integers(-2, 3, size=(7, n))
        values, estimate = spectral_probes(p, grid, t, index, state)
        sol = spectral_solve(p, grid, t, state=state)
        scale = 2.0  # A_phi + A_psi, unit amplitudes
        np.testing.assert_allclose(values, sol.values[tuple(index.T)], rtol=0,
                                   atol=1e-13 * scale)
        assert sol.error_estimate <= estimate <= 1e-12 * scale

    def test_guards(self):
        p = problem(1, phi=fields.gaussian(1, sigma=1.0))
        with pytest.raises(DomainSizeError):
            spectral_probes(p, GridSpec(4.0, 128, 1), 1.0, [[3]])
        with pytest.raises(ValueError):
            spectral_probes(p, GridSpec(8.0, 128, 1), -1.0, [[3]])


class TestPropagation:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_finite_speed(self, n):
        phi = fields.bump(n, radius=0.5)
        psi = fields.bump(n, radius=0.5)
        p = CauchyProblem(phi, psi, Dimension(n))
        x = np.zeros(n)
        x[0] = 3.0
        t = 1.5  # |x| > 0.5 + t: still quiet
        if n == 1:
            s = solve_dalembert_point(p, 3.0, t)
        else:
            s = solve_point(p, x, t, with_error=False)
        assert abs(s.u) <= 1e-6

    def test_huygens_sharp_rear_front(self):
        psi = fields.bump(3, radius=0.5)
        p = problem(3, psi=psi)
        x = np.array([3.0, 0.0, 0.0])
        for t in (1.0, 2.0, 4.0, 5.0):
            assert abs(solve_point(p, x, t, with_error=False).u) <= 1e-6
        assert abs(solve_point(p, x, 3.0, with_error=False).u) > 1e-3

    @pytest.mark.parametrize("n", [3, 5])
    def test_huygens_inner_cone_quiet(self, n):
        # odd dimensions only: once the shell has passed (|x| < t - a) the
        # solution vanishes again, sphere-supported means see no data
        psi = fields.bump(n, radius=0.5)
        p = problem(n, psi=psi)
        x = np.zeros(n)
        for t in (2.0, 4.0):
            assert abs(solve_point(p, x, t, with_error=False).u) <= 1e-6

    def test_even_wake_persists(self):
        psi = fields.bump(2, radius=0.5)
        p = problem(2, psi=psi)
        for t in (2.0, 4.0, 8.0):
            assert solve_point(p, np.zeros(2), t, with_error=False).u > 1e-4


class TestWaveResidual:
    def test_trivial_solutions(self):
        h = 0.1
        x = h * np.arange(5)
        t = h * np.arange(3)
        tt, xx = np.meshgrid(t, x, indexing="ij")
        assert wave_residual(tt * xx, h, h) <= 1e-12
        assert wave_residual(xx**2 + tt**2, h, h) <= 1e-10

    def test_coscos_second_order(self):
        res = []
        for h in (0.2, 0.1):
            x = h * np.arange(7)
            t = 1.0 + (h / 2.0) * np.array([-1.0, 0.0, 1.0])
            tt, xx = np.meshgrid(t, x, indexing="ij")
            res.append(wave_residual(np.cos(xx) * np.cos(tt), h, h / 2.0))
        assert res[0] / res[1] == pytest.approx(4.0, rel=0.05)

    def test_slab_too_thin(self):
        with pytest.raises(ValueError):
            wave_residual(np.zeros((2, 5)), 0.1, 0.1)
        with pytest.raises(ValueError):
            wave_residual(np.zeros((3, 2)), 0.1, 0.1)

    @pytest.mark.parametrize("n", [2, 3])
    def test_means_solution_satisfies_pde(self, n):
        psi = fields.gaussian(n, sigma=1.0)
        p = problem(n, psi=psi)
        rule = sphere_quadrature(n)
        res = []
        for h in (0.2, 0.1):
            pts = 3
            axis = h * (np.arange(pts) - pts // 2)
            tvals = 1.0 + h * np.array([-1.0, 0.0, 1.0])
            slab = np.empty((3,) + (pts,) * n)
            for it, t in enumerate(tvals):
                for idx in np.ndindex(*(pts,) * n):
                    x = np.array([axis[i] for i in idx])
                    slab[(it,) + idx] = solve_point(p, x, t, rule=rule,
                                                    with_error=False).u
            res.append(wave_residual(slab, h, h))
        assert res[0] / res[1] == pytest.approx(4.0, rel=0.25)


class TestSerialization:
    def test_binary_round_trip(self, tmp_path):
        # the documented little-endian layout: magic, version, n and N per
        # axis as u32, L and t as f64, then the values as f64 in C order
        grid = GridSpec(4.0, 16, 2)
        p = problem(2, psi=fields.constant(2, 1.0))
        sol = spectral_solve(p, grid, 0.5)
        path = tmp_path / "sol.wave"
        sol.to_binary(path)
        raw = path.read_bytes()
        assert raw[:4] == b"WAVE"
        assert struct.unpack_from("<4I", raw, 4) == (1, 2, 16, 16)
        assert struct.unpack_from("<dd", raw, 20) == (grid.half_width, sol.t)
        back = np.frombuffer(raw, dtype="<f8", offset=36).reshape(16, 16)
        np.testing.assert_array_equal(back, sol.values)
