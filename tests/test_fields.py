import math

import numpy as np
import pytest

from wavecauchy.fields import (
    ScalarField,
    _squared_distance,
    bump,
    constant,
    gaussian,
    harmonic,
    harmonic_names,
    make_field,
    zero,
)


def numeric_laplacian(field, x, h=1e-4):
    """Second-difference Laplacian; the oracle for harmonicity."""
    total = 0.0
    fx = float(field(x[None, :])[0])
    for k in range(field.dim):
        e = np.zeros(field.dim)
        e[k] = h
        total += (float(field((x + e)[None, :])[0]) - 2.0 * fx
                  + float(field((x - e)[None, :])[0])) / (h * h)
    return total


class TestGaussian:
    def test_peak_and_decay(self):
        f = gaussian(3, sigma=0.7, center=[0.5, 0.0, 0.0], amplitude=2.0)
        assert float(f(np.array([[0.5, 0.0, 0.0]]))[0]) == pytest.approx(2.0)
        assert math.isfinite(f.support_radius)

    def test_support_radius_invariant(self):
        f = gaussian(2, sigma=1.3)
        rng = np.random.default_rng(0)
        directions = rng.standard_normal((50, 2))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        pts = directions * (f.support_radius * rng.uniform(1.0, 3.0, size=(50, 1)))
        assert np.max(np.abs(f(pts))) <= 1e-14

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            gaussian(2, sigma=0.0)


class TestBump:
    def test_exactly_zero_outside(self):
        f = bump(3, radius=0.5)
        pts = np.array([[0.5, 0.0, 0.0], [0.6, 0.0, 0.0], [5.0, 0.0, 0.0]])
        assert np.all(f(pts) == 0.0)

    def test_center_amplitude(self):
        f = bump(2, radius=1.0, amplitude=3.0)
        assert float(f(np.zeros((1, 2)))[0]) == pytest.approx(3.0)

    def test_smooth_positive_inside(self):
        f = bump(2, radius=1.0)
        r = np.linspace(0.0, 0.99, 25)
        pts = np.column_stack([r, np.zeros_like(r)])
        vals = f(pts)
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) <= 0.0)  # radially decreasing


def _einsum_squared_distance(points, c):
    """|points - c|^2 as the evaluators computed it before the axis-by-axis
    sum: the reference, whose summation order may differ in the last bits."""
    d = points - c
    return np.einsum("...i,...i->...", d, d)


def _layouts(n):
    """A contiguous (4, 25, n) batch, the lifted strided view points[..., :n]
    of an (..., n + 1) batch, and a single point of shape (n,)."""
    rng = np.random.default_rng(n)
    lifted = rng.uniform(-1.0, 1.0, size=(40, n + 1))
    return {"contiguous": rng.uniform(-1.0, 1.0, size=(4, 25, n)),
            "lifted": lifted[..., :n], "single": lifted[0, :n].copy()}


class TestSquaredDistanceEvaluators:
    """gaussian and bump against the einsum expression they replace, to
    1e-15 n relative: the sums differ only in their order."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_first_square_keeps_the_zero_pass_bits(self, n):
        # the first coordinate's square is written, not added to zeros: the
        # same bits, as +0.0 + x = x for x >= +0, on contiguous batches, the
        # lifted view, strided coordinate-major views (the solvers' layout)
        # and 0-d point sets, which must stay arrays
        def zero_pass(points, c):
            out = np.zeros(points.shape[:-1])
            for i, ci in enumerate(c):
                out += np.square(points[..., i] - ci)
            return out

        rng = np.random.default_rng(100 + n)
        center = rng.uniform(-1.0, 1.0, n)
        layouts = _layouts(n)
        layouts["coordinate_major"] = np.moveaxis(rng.uniform(-2.0, 2.0, (n, 3, 7)), 0, -1)
        layouts["on_centre"] = center.copy()
        for name, points in layouts.items():
            got = _squared_distance(points, center)
            assert isinstance(got, np.ndarray) and got.shape == points.shape[:-1], name
            np.testing.assert_array_equal(got, zero_pass(points, center), err_msg=name)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_gaussian_matches_einsum(self, n):
        # sigma grows with n, so exp(-q) has q <= 1.4 and stays far from 0
        sigma, center = 0.8 * math.sqrt(n), np.linspace(-0.3, 0.4, n)
        f = gaussian(n, sigma=sigma, center=center, amplitude=2.0)
        for name, points in _layouts(n).items():
            expected = 2.0 * np.exp(-_einsum_squared_distance(points, center)
                                    / (2.0 * sigma * sigma))
            got = f(points)
            assert got.shape == points.shape[:-1], name
            np.testing.assert_allclose(got, expected, rtol=1e-15 * n, atol=0, err_msg=name)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_bump_matches_einsum(self, n):
        # rho^2 <= 0.43 inside, away from the edge where the bump's exponent
        # would amplify a last-bit difference; the appended point lies outside
        radius, center = 2.0 * math.sqrt(n), np.linspace(-0.3, 0.4, n)
        f = bump(n, radius=radius, sharpness=1.5, center=center, amplitude=3.0)
        layouts = _layouts(n)
        layouts["outside"] = np.vstack([layouts["contiguous"][0], center + 3.0 * radius])
        for name, points in layouts.items():
            rho2 = _einsum_squared_distance(points, center) / (radius * radius)
            expected = np.zeros(rho2.shape)
            inside = rho2 < 1.0
            expected[inside] = 3.0 * np.exp(1.5 - 1.5 / (1.0 - rho2[inside]))
            got = f(points)
            assert got.shape == points.shape[:-1], name
            np.testing.assert_allclose(got, expected, rtol=1e-15 * n, atol=0, err_msg=name)
        assert f(layouts["outside"])[-1] == 0.0


class TestHarmonic:
    @pytest.mark.parametrize("name", harmonic_names())
    def test_numerically_harmonic(self, name):
        dim = {"linear": 2, "bilinear": 2, "saddle": 2, "cubic": 3, "triple": 3}[name]
        f = harmonic(dim, name, amplitude=1.5, offset=2.0)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, dim)
            assert abs(numeric_laplacian(f, x)) < 1e-5

    def test_offset_constant(self):
        f = harmonic(3, "saddle", offset=4.0)
        assert float(f(np.zeros((1, 3)))[0]) == pytest.approx(4.0)

    def test_unknown_poly(self):
        with pytest.raises(ValueError):
            harmonic(3, "nope")
        with pytest.raises(ValueError):
            harmonic(1, "bilinear")  # needs 2 coordinates


class TestConstantsAndShapes:
    def test_zero_flags(self):
        z = zero(4)
        assert z.is_zero and z.periodic and z.support_radius == 0.0
        c = constant(4, 2.0)
        assert not c.is_zero and c.periodic and math.isinf(c.support_radius)

    def test_vectorized_shapes(self):
        f = gaussian(3)
        assert f(np.zeros((5, 4, 3))).shape == (5, 4)
        assert f(np.zeros(3)).shape == ()

    def test_dimension_mismatch(self):
        f = gaussian(3)
        with pytest.raises(ValueError):
            f(np.zeros((5, 2)))

    def test_make_field_dispatch(self):
        assert make_field("gaussian", 2, sigma=0.5).dim == 2
        assert make_field("zero", 3).is_zero
        with pytest.raises(ValueError):
            make_field("wavelet", 2)

    def test_custom_field(self):
        f = ScalarField(lambda pts: pts[..., 0] ** 2, 2, support_radius=1.0)
        assert float(f(np.array([[3.0, 0.0]]))[0]) == 9.0


class TestRadialMetadata:
    def test_library_fields(self):
        g = gaussian(3, sigma=0.7, center=[0.5, 0.0, -1.0])
        assert g.radial_center == (0.5, 0.0, -1.0) and g.length_scale == 0.7
        b = bump(2, radius=1.0, center=[0.2, 0.1])
        assert b.radial_center == (0.2, 0.1) and 0.0 < b.length_scale < 1.0
        assert constant(4, 2.0).radial_center == (0.0,) * 4
        assert harmonic(3, "linear").radial_center is None
        assert ScalarField(lambda pts: pts[..., 0], 2).radial_center is None

    def test_survives_dataclasses_replace(self):
        import dataclasses

        g = gaussian(3, sigma=0.4, center=[1.0, 0.0, 0.0])
        wrapped = dataclasses.replace(g, evaluator=lambda pts: 2.0 * g(pts))
        assert wrapped.radial_center == g.radial_center
        assert wrapped.length_scale == g.length_scale
        assert float(wrapped(np.array([[1.0, 0.0, 0.0]]))[0]) == pytest.approx(2.0)

    def test_invalid_metadata(self):
        with pytest.raises(ValueError):
            ScalarField(lambda pts: pts[..., 0], 3, radial_center=(0.0,))
        with pytest.raises(ValueError):
            ScalarField(lambda pts: pts[..., 0], 3, radial_center=(0.0,) * 3, length_scale=0.0)


class TestDegreeMetadata:
    DEGREES = {"linear": 1, "bilinear": 2, "saddle": 2, "cubic": 3, "triple": 3}

    def test_library_degrees(self):
        assert {name: harmonic(3, name, offset=1.0).degree
                for name in harmonic_names()} == self.DEGREES
        assert constant(4, 2.0).degree == 0 and zero(2).degree == 0
        assert gaussian(3).degree is None and bump(2).degree is None
        assert ScalarField(lambda pts: pts[..., 0], 2).degree is None

    @pytest.mark.parametrize("name", harmonic_names())
    def test_degree_is_the_polynomial_degree(self, name):
        # along a random line a polynomial of degree d has a vanishing
        # (d + 1)-th difference and, for these, a d-th difference away from zero
        f = harmonic(4, name, amplitude=1.3, offset=0.7)
        x, v = np.array([0.3, -0.5, 0.2, 0.8]), np.array([0.9, -0.8, 0.7, 0.6])
        values = f(x + np.arange(f.degree + 2)[:, None] * v)
        assert abs(np.diff(values, f.degree + 1)[0]) <= 1e-12
        assert abs(np.diff(values, f.degree)).min() > 0.1

    def test_survives_dataclasses_replace(self):
        import dataclasses

        f = harmonic(3, "cubic")
        assert dataclasses.replace(f, evaluator=lambda pts: f(pts)).degree == 3

    def test_invalid_degree(self):
        for bad in (-1, 1.5, "2", True):
            with pytest.raises(ValueError):
                ScalarField(lambda pts: pts[..., 0], 2, degree=bad)

    def test_numpy_integer_degree_is_stored_as_int(self):
        f = ScalarField(lambda pts: pts[..., 0] ** 2, 2, degree=np.int64(2))
        assert f.degree == 2 and type(f.degree) is int
