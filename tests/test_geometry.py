import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import jv, roots_gegenbauer

import wavecauchy
from wavecauchy import fields, geometry
from wavecauchy.errors import EvaluationError
from wavecauchy.geometry import (
    MAX_DIMENSION,
    MAX_OSC_NODES,
    Dimension,
    _gauss_gegenbauer,
    _leggauss,
    _omega,
    _unit_gegenbauer,
    double_factorial,
    reduce_ball_integral,
    reduce_sphere_integral,
    solution_constant,
    sphere_quadrature,
    sphere_quadrature_for_order,
    sphere_sums,
    unit_ball_volume,
    unit_sphere_area,
)
from wavecauchy.montecarlo import ball_monte_carlo, sphere_monte_carlo


def sphere_cos_exact(radius, n):
    # Bessel closed form of the reduced integral: independent of the
    # quadrature path under test
    return (unit_sphere_area(n - 1) * math.sqrt(math.pi) * math.gamma((n - 1) / 2.0)
            * radius ** (n - 1) * (2.0 / radius) ** ((n - 2) / 2.0) * jv((n - 2) / 2.0, radius))


def ball_cos_exact(radius, n):
    return (unit_sphere_area(n - 1) * math.sqrt(math.pi) * math.gamma((n - 1) / 2.0)
            * 2.0 ** ((n - 2) / 2.0) * radius ** (n / 2.0) * jv(n / 2.0, radius))


class TestConstants:
    def test_sphere_area_examples(self):
        assert unit_sphere_area(1) == 2.0
        assert unit_sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
        assert unit_sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)

    def test_ball_volume_examples(self):
        assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-15)
        assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_area_volume_identity(self, n):
        assert n * unit_ball_volume(n) == pytest.approx(unit_sphere_area(n), rel=1e-13)

    def test_dimension_guards(self):
        with pytest.raises(ValueError):
            unit_sphere_area(0)
        with pytest.raises(ValueError):
            unit_ball_volume(0)
        with pytest.raises(ValueError):
            unit_sphere_area(13)

    def test_double_factorial(self):
        assert [double_factorial(k) for k in (-1, 0, 1, 2, 5, 6)] == [1, 1, 1, 2, 15, 48]

    def test_solution_constants(self):
        assert solution_constant(3) == 1.0
        assert solution_constant(5) == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert solution_constant(7) == pytest.approx(1.0 / 15.0, rel=1e-15)
        assert solution_constant(2) == 0.5
        assert solution_constant(4) == 0.125
        assert solution_constant(6) == pytest.approx(1.0 / 48.0, rel=1e-15)

    def test_dimension_type(self):
        d = Dimension(5)
        assert d.parity == "odd" and d.derivative_order == 1
        assert Dimension(4).derivative_order == 1
        assert Dimension(2).derivative_order == 0
        with pytest.raises(ValueError):
            Dimension(0)
        with pytest.raises(ValueError):
            Dimension(1).derivative_order


def legendre_reference(count, guesses):
    """40-digit Gauss-Legendre nodes and weights: mpmath Newton on the
    recurrence from each guess, weights 2 / ((1 - x^2) P'(x)^2)."""
    def evaluate(x):
        prev, value = mpmath.mpf(1), x
        for j in range(1, count):
            prev, value = value, ((2 * j + 1) * x * value - j * prev) / (j + 1)
        return value, count * (prev - x * value) / (1 - x * x)

    nodes, weights = [], []
    with mpmath.workdps(40):
        for guess in guesses:
            x = mpmath.mpf(float(guess))
            for _ in range(2):  # quadratic from a double: 1e-32, then 1e-64
                value, slope = evaluate(x)
                x -= value / slope
            _, slope = evaluate(x)
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * slope * slope))
    return nodes, weights


def assert_well_formed(x, w, count):
    assert x.shape == w.shape == (count,)
    assert -1.0 < x[0] and x[-1] < 1.0 and np.all(np.diff(x) > 0)
    assert np.all(w > 0)


class TestGaussRules:
    """`_gauss_gegenbauer`, the one source of every Gauss rule: Legendre
    (lam = 1/2) for the 1-D rules and lam = p/2 for the product rules' polar
    nodes."""

    @pytest.mark.parametrize("count, picks", [
        (64, range(32)),
        (256, range(128)),
        (2048, list(range(16)) + list(range(64, 1024, 128))),
    ], ids=["64", "256", "2048"])
    def test_legendre_against_mpmath(self, count, picks):
        # the lower half and the end nodes, where the weights are worst
        # conditioned; the upper half is the mirror image
        x, w = _gauss_gegenbauer(count, 0.5)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        picks = list(picks)
        nodes, weights = legendre_reference(count, x[picks])
        for i, node, weight in zip(picks, nodes, weights):
            assert abs(float(x[i] - node)) <= 2.3e-16
            # a node rounded by eps moves its weight by up to ~count^2 eps
            # relative, near the ends where 1 - x^2 ~ count^-2
            assert abs(float(w[i] / weight - 1)) <= 1e-16 * count * count

    @pytest.mark.parametrize("p", range(1, MAX_DIMENSION - 1))
    def test_gegenbauer_against_scipy(self, p):
        # scipy's roots_gegenbauer as an oracle, for every polar rule a
        # product rule can ask for: sin-power p up to MAX_DIMENSION - 2, and
        # at most 64 polar nodes
        for count in range(1, 65):
            x, w = _gauss_gegenbauer(count, p / 2.0)
            x_ref, w_ref = roots_gegenbauer(count, p / 2.0)
            assert_well_formed(x, w, count)
            np.testing.assert_allclose(x, x_ref, rtol=0, atol=4.5e-16)
            np.testing.assert_allclose(w, w_ref, rtol=1e-11, atol=0)

    @pytest.mark.parametrize("p", range(1, MAX_DIMENSION - 1))
    def test_even_moments(self, p):
        # exact for degree <= 2 count - 1: sum w x^(2j) against
        # integral x^(2j) (1 - x^2)^(lam - 1/2) = B(j + 1/2, lam + 1/2)
        lam = p / 2.0
        for count in range(1, 65):
            x, w = _gauss_gegenbauer(count, lam)
            j = np.arange(count)
            moments = [math.exp(math.lgamma(k + 0.5) + math.lgamma(lam + 0.5)
                                - math.lgamma(k + lam + 1.0)) for k in j]
            np.testing.assert_allclose(w @ x[:, None] ** (2 * j), moments, rtol=1e-13)

    @pytest.mark.parametrize("count", [1, 2, 3, 127, 2048, MAX_OSC_NODES])
    def test_legendre_well_formed(self, count):
        assert_well_formed(*_gauss_gegenbauer(count, 0.5), count)

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(geometry, "_GAUSS_STEPS", 1)
        with pytest.raises(EvaluationError, match="did not converge"):
            _gauss_gegenbauer(64, 0.5)

    @pytest.mark.parametrize("count, match", [(16, "did not converge"), (32, "out of order")])
    def test_plain_newton_is_refused(self, monkeypatch, count, match):
        # without the Aberth correction, Newton at lam = 5 wanders (16 nodes)
        # or lets two nodes fall onto one zero (32): no rule either way
        monkeypatch.setattr(geometry, "_aberth_sums", np.zeros_like)
        with pytest.raises(EvaluationError, match=match):
            _gauss_gegenbauer(count, 5.0)


class TestGegenbauerRule:
    """The unit rule for the weight (1 - s^2)^((n-3)/2) that the reductions run on."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
    def test_total_mass(self, n, radius):
        # scaled to (-R, R): nodes R s, weights R^(n-2) v, against the closed form
        # of integral_{-R}^{R} (R^2 - s^2)^((n-3)/2) ds
        _, weights = _unit_gegenbauer(n, 64)
        assert radius ** (n - 2) * weights.sum() == pytest.approx(
            radius ** (n - 2) * _omega(n) / _omega(n - 1), rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 6, 7])
    def test_symmetry(self, n):
        nodes, weights = _unit_gegenbauer(n, 64)
        np.testing.assert_allclose(nodes, -nodes[::-1], atol=1e-15)
        np.testing.assert_allclose(weights, weights[::-1], rtol=1e-14)
        assert np.all(weights > 0)
        assert np.all(np.abs(nodes) < 1.0)

    @pytest.mark.parametrize("count", [1, 2, 27, 64, 65, 116, 117, 977])
    def test_mirrored_to_the_bit(self, count):
        # the folded zeta rule and the Fourier evaluator's tables take each lower
        # node as its mirror's negative; 116 and more are oscillatory counts
        for nodes, weights in [_leggauss(count)] + [_unit_gegenbauer(n, count)
                                                    for n in range(2, 9)]:
            assert np.array_equal(nodes, -nodes[::-1])
            assert np.array_equal(weights, weights[::-1])


class TestReductionFormulas:
    def test_ball_examples(self):
        one = lambda s: np.ones_like(s)
        assert reduce_ball_integral(one, 1.0, 3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)
        assert reduce_ball_integral(lambda s: s, 1.7, 5) == pytest.approx(0.0, abs=1e-13)
        # s^2 over the unit 3-ball: 2*pi * int_0^1 (2 rho^4 / 3) d(rho) = 4*pi/15,
        # also (1/3) of the radial moment omega_3/5
        assert reduce_ball_integral(lambda s: s * s, 1.0, 3) == pytest.approx(
            4.0 * math.pi / 15.0, rel=1e-12)

    def test_sphere_examples(self):
        one = lambda s: np.ones_like(s)
        assert reduce_sphere_integral(one, 1.0, 3) == pytest.approx(4.0 * math.pi, rel=1e-12)
        assert reduce_sphere_integral(lambda s: s, 0.8, 7) == pytest.approx(0.0, abs=1e-13)
        assert reduce_sphere_integral(lambda s: s * s, 1.0, 3) == pytest.approx(
            4.0 * math.pi / 3.0, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 7])
    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
    def test_cosine_closed_forms(self, n, radius):
        ball = reduce_ball_integral(np.cos, radius, n)
        sphere = reduce_sphere_integral(np.cos, radius, n)
        assert ball == pytest.approx(ball_cos_exact(radius, n), rel=1e-12)
        assert sphere == pytest.approx(sphere_cos_exact(radius, n), rel=1e-12)

    def test_monomial_moments(self):
        # int over B(0,R) of x_n^2 = omega_n R^(n+2) / (n (n+2))
        for n, radius in ((4, 1.0), (5, 2.0), (7, 0.5)):
            expected = unit_sphere_area(n) * radius ** (n + 2) / (n * (n + 2))
            assert reduce_ball_integral(lambda s: s * s, radius, n) == pytest.approx(
                expected, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_radius_derivative_consistency(self, n):
        # d/dR of the ball integral is the sphere integral; check the central
        # difference converges at second order
        radius = 1.2
        f = np.cos
        sphere = reduce_sphere_integral(f, radius, n)
        errs = []
        for h in (1e-2, 5e-3):
            fd = (reduce_ball_integral(f, radius + h, n)
                  - reduce_ball_integral(f, radius - h, n)) / (2.0 * h)
            errs.append(abs(fd - sphere))
        assert errs[0] == pytest.approx(errs[1] * 4.0, rel=0.05)

    def test_nonfinite_rejected(self):
        with pytest.raises(EvaluationError):
            reduce_sphere_integral(lambda s: np.where(s > 0, np.inf, 1.0), 1.0, 3)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            reduce_ball_integral(np.cos, 1.0, 2)

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 8, 9])
    def test_monte_carlo_cross_check(self, n):
        # the stated oracle: fixed-seed MC agreeing within 3 sigma
        f = lambda pts: np.cos(pts[:, n - 1])
        quad_ball = reduce_ball_integral(np.cos, 1.0, n)
        est = ball_monte_carlo(f, 1.0, n, samples=200_000, seed=11 * n)
        assert est.z_score(quad_ball) < 3.0
        quad_sphere = reduce_sphere_integral(np.cos, 1.0, n)
        ests = sphere_monte_carlo(f, 1.0, n, samples=200_000, seed=13 * n)
        assert ests.z_score(quad_sphere) < 3.0


class TestSphereQuadrature:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_rule_invariants(self, n):
        rule = sphere_quadrature(n)
        omega = unit_sphere_area(n)
        assert rule.weights.sum() == pytest.approx(omega, rel=1e-12)
        assert np.all(rule.weights > 0)
        norms = np.linalg.norm(rule.nodes, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-14)
        for k in range(n):
            assert abs(float(rule.weights @ rule.nodes[:, k])) <= 1e-12 * omega

    @pytest.mark.parametrize("n", [3, 4, 5, 7])
    def test_single_axis_monomial_exactness(self, n):
        # x_k^a has the same sphere integral as x_n^a (rotate the axis), and
        # that reduces to the 1-D weighted integral
        rule = sphere_quadrature_for_order(n, 8)
        for a in range(rule.order + 1):
            expected = reduce_sphere_integral(lambda s: s**a, 1.0, n)
            for k in (0, n - 1):
                got = float(rule.weights @ rule.nodes[:, k] ** a)
                assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_mixed_monomial_vs_monte_carlo(self, n):
        rule = sphere_quadrature_for_order(n, 8)
        alpha = [2, 4] + [0] * (n - 2)

        def monomial(pts):
            out = np.ones(pts.shape[0])
            for k, a in enumerate(alpha):
                if a:
                    out *= pts[:, k] ** a
            return out

        got = float(rule.weights @ monomial(rule.nodes))
        est = sphere_monte_carlo(monomial, 1.0, n, samples=400_000, seed=7 * n)
        assert est.z_score(got) < 3.0

    def test_integrate_on_sphere_examples(self):
        rule = sphere_quadrature(3)

        def integrate(g, radius):
            return radius ** 2 * float(sphere_sums(g, np.zeros(3), np.array([radius]), rule)[0])

        one = lambda pts: np.ones(pts.shape[:-1])
        assert integrate(one, 2.0) == pytest.approx(unit_sphere_area(3) * 4.0, rel=1e-12)
        x3sq = lambda pts: pts[..., 2] ** 2
        assert integrate(x3sq, 1.0) == pytest.approx(
            reduce_sphere_integral(lambda s: s * s, 1.0, 3), rel=1e-12)
        x1 = lambda pts: pts[..., 0]
        assert integrate(x1, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_integrate_on_sphere_errors(self):
        rule = sphere_quadrature(3)
        with pytest.raises(EvaluationError):
            sphere_sums(lambda p: np.full(p.shape[:-1], np.nan), np.zeros(3), np.array([1.0]),
                        rule)

    @pytest.mark.parametrize("rule, radii, centers, calls", [
        # 40 radii on the 27,648 nodes of the n = 4 default rule: five node
        # chunks of one centre each
        (sphere_quadrature(4), np.linspace(0.5, 2.0, 40), 3, 15),
        # 5 radii on a 128-node rule: groups of 68 centres within 1 MB
        (sphere_quadrature_for_order(3, 15), np.linspace(0.8, 1.2, 5), 150, 3),
    ], ids=["chunked", "grouped"])
    def test_batched_centres_equal_single_centres(self, rule, radii, centers, calls):
        xs = np.random.default_rng(rule.n).uniform(-1.0, 1.0, (centers, rule.n))
        sizes = []

        def g(points):
            sizes.append(points.nbytes)
            return np.exp(-np.einsum("...i,...i->...", points, points)) + 1j * points[..., 0]

        batched = sphere_sums(g, xs, radii, rule)
        # the batched point arrays stay within the 8 MB of one chunk
        assert len(sizes) == calls and max(sizes) <= geometry._CHUNK_BYTES
        single = np.array([sphere_sums(g, x, radii, rule) for x in xs])
        assert batched.shape == (centers, len(radii))
        assert np.array_equal(batched, single)

    def test_radius_row_per_centre_equals_single_centres(self):
        # a radius row per centre: runs of 3, 70 and 77 adjacent centres with one
        # row each, in groups of at most 68 (5 radii on a 128-node rule), so
        # five point arrays: 3, then 68 + 2, then 68 + 9
        rule = sphere_quadrature_for_order(3, 15)
        xs = np.random.default_rng(5).uniform(-1.0, 1.0, (150, 3))
        rows = np.linspace(0.8, 1.2, 5), np.linspace(1.1, 1.9, 5)
        radii = np.array([rows[0]] * 3 + [rows[1]] * 70 + [rows[0]] * 77)
        sizes = []

        def g(points):
            sizes.append(points.shape[0])
            return np.exp(-np.einsum("...i,...i->...", points, points))

        batched = sphere_sums(g, xs, radii, rule)
        assert sizes == [3, 68, 2, 68, 9]
        single = np.array([sphere_sums(g, x, r, rule) for x, r in zip(xs, radii)])
        assert batched.shape == (150, 5) and np.array_equal(batched, single)

    @pytest.mark.parametrize("rule, radii, centers, kind", [
        # 40 radii on the 27,648 nodes of the n = 4 default rule: five chunks
        (sphere_quadrature(4), np.linspace(0.5, 2.0, 40), None, "real"),
        # 5 radii on a 128-node rule: groups of 68 centres within 1 MB
        (sphere_quadrature_for_order(3, 15), np.linspace(0.8, 1.2, 5), 150, "real"),
        (geometry._radial_rule(5, 5, 64), np.linspace(0.3, 1.1, 9), 4, "real"),
        # the descent rule of radial data at n = 2, a tensor rule in R^3
        (geometry._radial_rule(2, 3, 64), np.linspace(0.3, 1.1, 7), 6, "real"),
        (sphere_quadrature(3), np.array([0.7, 1.3]), None, "complex"),
        # |field| stacked on axis -3, as the means solver's rounding pass does
        (sphere_quadrature_for_order(3, 15), np.linspace(0.8, 1.2, 5), 150, "magnitude"),
        (geometry._radial_rule(2, 3, 64), np.linspace(0.3, 1.1, 7), None, "magnitude"),
    ], ids=["chunked", "grouped", "radial-n5", "descent-n2", "complex", "magnitude-grouped",
            "magnitude-descent"])
    def test_coordinate_planes_and_row_major_sums(self, rule, radii, centers, kind):
        # g gets contiguous coordinate planes, and the sums are, to the bit,
        # those of row-major points r node + c over the same node chunks
        n = rule.n
        field = fields.gaussian(n, sigma=0.9, center=np.linspace(-0.3, 0.3, n))
        g = {"real": field,
             "complex": lambda points: field(points) * np.exp(1j * points[..., 0]),
             "magnitude": lambda points: np.stack([v := field(points) - 0.5, np.abs(v)],
                                                  axis=-3)}[kind]
        center = np.random.default_rng(n).uniform(-1.0, 1.0, n if centers is None
                                                  else (centers, n))
        seen = []

        def spy(points):
            seen.append((points.dtype.name, points.shape[-1],
                         all(points[..., i].flags.c_contiguous for i in range(n))))
            return g(points)

        got = sphere_sums(spy, center, radii, rule)
        assert rule.nodes.T.flags.c_contiguous and set(seen) == {("float64", n, True)}
        chunk = max(1, geometry._CHUNK_BYTES // (len(radii) * n * 8))
        lead = center if centers is None else center[:, None, None, :]
        want = 0.0
        for first in range(0, len(rule.weights), chunk):
            points = radii[:, None, None] * rule.nodes[first:first + chunk] + lead
            want = want + g(points) @ rule.weights[first:first + chunk]
        assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("k, n, count", [(5, 5, 64), (2, 3, 64)])
    def test_null_sums_leave_the_sums_alone(self, k, n, count):
        # the null sums are a separate product on each chunk's values, so the
        # sums keep their bits, chunked or not
        rule, null = geometry._radial_rule(k, n, count), geometry._null_weights(k, n, count)
        field = fields.gaussian(n, sigma=0.4, center=np.linspace(-0.3, 0.3, n))
        centers = np.random.default_rng(k).uniform(-1.0, 1.0, (3, n))
        radii = np.linspace(0.3, 1.1, 7)
        sums, nulls = sphere_sums(field, centers, radii, rule, null)
        assert np.array_equal(sums, sphere_sums(field, centers, radii, rule))
        values = field(radii[:, None, None] * rule.nodes + centers[:, None, None, :])
        assert nulls.shape == (3, 7, null.shape[1])
        np.testing.assert_allclose(nulls, values @ null, rtol=1e-12, atol=1e-15)

    def test_memoized(self):
        assert sphere_quadrature(3) is sphere_quadrature(3)
        # 8 polar and 16 azimuth nodes
        assert sphere_quadrature_for_order(3, 15) is sphere_quadrature_for_order(3, 15)

    def test_nodes_read_only(self):
        rule = sphere_quadrature(3)
        with pytest.raises(ValueError):
            rule.nodes[0, 0] = 2.0

    def test_csv_export(self, tmp_path):
        rule = sphere_quadrature_for_order(3, 7)  # 4 polar and 8 azimuth nodes
        path = tmp_path / "rule.csv"
        rule.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "x1", "x2", "x3", "weight"]
        assert len(rows) - 1 == len(rule.weights)
        total = sum(float(r[-1]) for r in rows[1:])
        assert total == pytest.approx(unit_sphere_area(3), rel=1e-12)


def test_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(wavecauchy.__file__).resolve().parent.parent))
    code = ("import sys, wavecauchy; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


def test_rules_load_no_scipy_special(tmp_path):
    # the sphere and Gauss rules are the package's own: identities over
    # n = 2..7, a duality check and a solve on a product rule with polar
    # nodes leave scipy.special unimported
    env = dict(os.environ, PYTHONPATH=str(Path(wavecauchy.__file__).resolve().parent.parent))
    code = f"""
import sys
from pathlib import Path
from wavecauchy import cli, fields, kernels
from wavecauchy.geometry import Dimension

tmp = Path({str(tmp_path)!r})
configs = {{
    "verify-identities": "[run]\\ncommand = verify-identities\\n\\n"
                         "[identities]\\ndims = 2, 3, 4, 5, 6, 7\\ncount = 5\\n",
    "solve": "[run]\\ncommand = solve\\ndim = 5\\n\\n"
             "[data]\\nphi = harmonic\\nphi_poly = triple\\npsi = harmonic\\npsi_poly = saddle\\n\\n"
             "[solve]\\ntimes = 0.6\\nprobes = 0.1 0.2 0.3 0 0\\n",
}}
for name, text in configs.items():
    config = tmp / (name + ".ini")
    config.write_text(text)
    assert cli.main([name, "--config", str(config), "--out", str(tmp / (name + ".csv"))]) == 0
lhs, rhs = kernels.distribution_fourier_check(
    kernels.DistributionFunctional(0.8, Dimension(3)), fields.gaussian(3, 0.7), nodes_per_axis=24)
assert abs(lhs - rhs) <= 1e-8 * abs(rhs), (lhs, rhs)
print("scipy.special" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip().splitlines()[-1] == "False"


class TestNullRules:
    """The null rules of a reduced rule (`geometry._null_weights`) sum every
    low-degree polynomial to zero, to rounding: in s on the rules of odd and
    even k, and after descent in s and in zeta^2."""

    @staticmethod
    def coordinates(rule):
        """Each node's s and zeta^2 (zeta the last coordinate)."""
        y = rule.nodes
        return y[:, 0] / np.hypot(y[:, 0], y[:, 1]), y[:, -1] ** 2

    @pytest.mark.parametrize("k, n, count", [
        (3, 3, 64), (5, 5, 64), (7, 7, 128), (11, 11, 256), (4, 4, 64), (10, 10, 128),
        (3, 3, 2048), (2, 3, 64), (4, 5, 64), (6, 7, 65), (10, 11, 256)])
    def test_low_degrees_vanish(self, k, n, count):
        rule, null = geometry._radial_rule(k, n, count), geometry._null_weights(k, n, count)
        s, zeta2 = self.coordinates(rule)
        assert null.shape == (len(rule.weights), 4 if k == n else 8)
        # rounding in sums of count terms, each up to about sqrt(count) times |value|
        tol = 64 * np.finfo(np.float64).eps * math.sqrt(count)
        for a in range(7):
            for b in range(7) if k != n else [0]:
                values = s ** a * zeta2 ** b
                scale = np.abs(values) @ rule.weights
                assert np.abs(values @ null).max() <= tol * scale, (a, b)
        # not every function: |s| and |zeta| have slowly falling tails
        for values, columns in ((np.abs(s), slice(0, 4)), (np.sqrt(zeta2), slice(4, 8))):
            if k != n or columns.start == 0:
                scale = np.abs(values) @ rule.weights
                assert np.abs(values @ null[:, columns]).max() >= 1e-9 * scale

    def test_sums_of_the_top_degree_read_its_coefficient(self):
        # on the n = 3 rule (Gauss-Legendre in s) the null rule of degree j sums
        # the orthonormal Legendre polynomial of degree j to sqrt(2) omega_2
        count = 64
        rule, null = geometry._radial_rule(3, 3, count), geometry._null_weights(3, 3, count)
        s, _ = self.coordinates(rule)
        for column, j in enumerate(range(count - 4, count)):
            p = math.sqrt(j + 0.5) * np.polynomial.legendre.Legendre.basis(j)(s)
            got = p @ null
            assert got[column] == pytest.approx(math.sqrt(2.0) * _omega(2), rel=1e-12)
            assert np.abs(np.delete(got, column)).max() <= 1e-12

    def test_memoized_and_read_only(self):
        null = geometry._null_weights(4, 5, 64)
        assert geometry._null_weights(4, 5, 64) is null
        with pytest.raises(ValueError):
            null[0, 0] = 1.0
