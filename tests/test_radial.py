import math
import warnings

import numpy as np
import pytest
import sympy

from wavecauchy.errors import EvaluationError, StencilError
from wavecauchy.geometry import sphere_quadrature
from wavecauchy.radial import (
    _fit_matrix,
    RadialDerivativeSpec,
    chain_apply,
    chain_weights,
    default_spec,
    radial_chain_coefficients,
    stencil_offsets,
    stencil_radii,
)
from wavecauchy.solvers import means_series


def sympy_radial_operator(expr, t_sym, m):
    """Oracle: apply (1/t d/dt) symbolically m times."""
    out = expr
    for _ in range(m):
        out = sympy.diff(out, t_sym) / t_sym
    return sympy.simplify(out)


def richardson_radial_derivative(f, m, t, h0=1e-2, steps=4):
    """Independent oracle: nested central differences with Richardson
    extrapolation, composing (1/t d/dt) numerically per stage."""

    def one_stage(g):
        def dg(tau, h):
            return (g(tau + h) - g(tau - h)) / (2.0 * h * tau)

        def extrapolated(tau):
            table = [dg(tau, h0 / 2**k) for k in range(steps)]
            for level in range(1, steps):
                factor = 4.0**level
                table = [(factor * table[i + 1] - table[i]) / (factor - 1.0)
                         for i in range(len(table) - 1)]
            return table[0]

        return extrapolated

    g = f
    for _ in range(m):
        g = one_stage(g)
    return g(t)


class TestFitMatrix:
    @pytest.mark.parametrize("degree", [4, 6, 8, 10, 14])
    def test_is_the_exact_inverse_rounded_once(self, degree):
        nodes = [sympy.Rational(2 * k - degree, degree) for k in range(degree + 1)]
        exact = sympy.Matrix(degree + 1, degree + 1, lambda i, j: nodes[i] ** j).inv()
        # p / q of Python ints is the float nearest the rational
        expected = np.array([[r.p / r.q for r in exact.row(j)] for j in range(degree + 1)])
        got = _fit_matrix(degree)
        np.testing.assert_array_equal(got, expected)
        assert not got.flags.writeable


class TestChainCoefficients:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_against_sympy(self, m):
        t = sympy.Symbol("t", positive=True)
        chain = radial_chain_coefficients(m)
        for k in (2 * m, 2 * m + 1, 2 * m + 4, 9):
            expected = sympy_radial_operator(t**k, t, m)
            got = sum(a * t ** (j - 2 * m) * sympy.diff(t**k, t, j) for j, a in chain)
            assert sympy.simplify(got - expected) == 0

    def test_known_values(self):
        assert radial_chain_coefficients(0) == ((0, 1),)
        assert radial_chain_coefficients(1) == ((1, 1),)
        assert radial_chain_coefficients(2) == ((1, -1), (2, 1))
        assert radial_chain_coefficients(3) == ((1, 3), (2, -3), (3, 1))


def radial_derivative(profile, spec, t):
    """(1/t d/dt)^m of a vectorized profile at t, composed from the library
    steps the solvers take: validate the radius, sample, apply the chain."""
    spec.validate_radius(t)
    radii = stencil_radii(t, spec.degree, spec.h)
    return chain_apply(profile(radii), spec.iterations, t, spec.h)


class TestIteratedDerivative:
    def test_polynomial_exactness(self):
        spec = RadialDerivativeSpec(1, 0.05, 4)
        assert radial_derivative(lambda t: t**2, spec, 1.7) == pytest.approx(
            2.0, abs=1e-12)
        spec2 = RadialDerivativeSpec(2, 0.05, 8)
        assert radial_derivative(lambda t: t**4, spec2, 1.3) == pytest.approx(
            8.0, abs=1e-11)
        # (1/t d/dt) t^3 = 3 t, so the value at t = 2 is 6
        assert radial_derivative(lambda t: t**3, spec, 2.0) == pytest.approx(
            6.0, abs=1e-12)

    def test_matches_richardson_oracle(self):
        f = lambda t: np.exp(np.sin(2.0 * t))
        for m, t in ((1, 1.5), (2, 2.0)):
            spec = default_spec(m, t, oscillation=4.0)
            got = radial_derivative(f, spec, t)
            oracle = richardson_radial_derivative(lambda x: math.exp(math.sin(2.0 * x)), m, t)
            assert got == pytest.approx(oracle, rel=1e-8)

    def test_matches_sympy_oracle(self):
        t_sym = sympy.Symbol("t", positive=True)
        expr = sympy.exp(-t_sym**2) * sympy.cos(t_sym)
        for m, t0 in ((1, 1.2), (2, 0.9)):
            exact = float(sympy_radial_operator(expr, t_sym, m).subs(t_sym, t0))
            spec = default_spec(m, t0, oscillation=3.0)
            got = radial_derivative(
                lambda t: np.exp(-(t**2)) * np.cos(t), spec, t0)
            assert got == pytest.approx(exact, rel=1e-9)

    def test_complex_profiles(self):
        spec = default_spec(1, 1.0, oscillation=3.0)
        got = radial_derivative(lambda t: np.exp(1j * 3.0 * t), spec, 1.0)
        exact = 3j * np.exp(3j) / 1.0
        assert isinstance(got, complex)
        assert got == pytest.approx(complex(exact), rel=1e-9)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_time_derivative_is_the_next_order_times_t(self, m):
        # d/dt (1/t d/dt)^m = t (1/t d/dt)^(m+1), phi's term in the solver: on
        # r^k, k(k-2)..(k-2m) t^(k-2m-1), exact for every k up to the fit degree
        # of phi's stencil. The error is relative to the sum's magnitude
        # sum_i |w_i F_i|, as the value vanishes at k = 0, 2, .., 2m.
        times = (1.3, 0.7)
        specs = [default_spec(m, t0) for t0 in times]
        degree = specs[0].degree + 2
        both = []
        for t0, spec in zip(times, specs):
            radii = stencil_radii(t0, degree, spec.h)
            weights = t0 * chain_weights(degree, m + 1, t0, spec.h)
            samples = np.stack([radii**k for k in range(degree + 1)], axis=1)
            got = t0 * chain_apply(samples, m + 1, t0, spec.h)
            alone = [t0 * chain_apply(samples[:, k], m + 1, t0, spec.h)
                     for k in range(degree + 1)]
            np.testing.assert_array_equal(got, alone)
            for k, value in enumerate(alone):
                exact = math.prod(k - 2 * i for i in range(m + 1)) * t0 ** (k - 2 * m - 1)
                magnitude = np.abs(weights) @ np.abs(samples[:, k])
                assert abs(value - exact) <= 1e-12 * magnitude, (k, value, exact)
            both.append((samples, got))
        # two profiles at different t in one call: each one its scalar call's bits
        t, h = np.array(times), np.array([spec.h for spec in specs])
        for k in range(degree + 1):
            pair = np.stack([samples[:, k] for samples, _ in both], axis=1)
            got = t * chain_apply(pair, m + 1, t, h)
            np.testing.assert_array_equal(got, [scalar[k] for _, scalar in both])

    @pytest.mark.parametrize("m", range(6))
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_every_sample_layout_rounds_alike(self, m, dtype):
        # C, Fortran and strided views of one (R, P) sample array give the same
        # bits, at one t and h or one per profile: chain_apply lays each profile
        # out as one contiguous row itself
        rng = np.random.default_rng(m)
        degree = 2 * m + 4
        for size in (1, 2, 37, 1000):
            wide = rng.standard_normal((degree + 1, 2 * size)).astype(dtype)
            if dtype is complex:
                wide += 1j * rng.standard_normal(wide.shape)
            strided = wide[:, ::2]
            layouts = (np.ascontiguousarray(strided), np.asfortranarray(strided), strided)
            t = rng.uniform(0.5, 2.0, size)
            for tt, h in ((1.3, 1.3 / (2 * m + 10)), (t, t / (2 * m + 10))):
                got = [chain_apply(values, m, tt, h).tobytes() for values in layouts]
                assert got[1:] == got[:1] * 2, (size, np.ndim(tt))

    def test_overflowing_chain_is_an_evaluation_error(self):
        # t ** (j - 2m) at t = 1e-150 and m = 2 is beyond the float range
        t0 = 1e-150
        spec = RadialDerivativeSpec(2, t0 / 20.0, 8)
        radii = stencil_radii(t0, spec.degree, spec.h)
        with pytest.raises(EvaluationError):
            chain_apply(radii * radii, 2, t0, spec.h)

    @pytest.mark.parametrize("t0, h", [(1e-150, 5e-152), (1.0, 1e-170)],
                             ids=["power", "quotient"])
    def test_overflowing_weights_raise_with_no_warning(self, t0, h):
        # t ** (j - 2m) overflows, or scale^j underflows to 0 under the quotient:
        # a float raises, numpy's arrays give a weight that is not finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for args in ((t0, h), (np.array([1.0, t0]), np.array([0.05, h]))):
                with pytest.raises(EvaluationError, match="overflows"):
                    chain_weights(8, 2, *args)

    def test_convergence_order(self):
        # halving h: the even-degree symmetric fit should gain at least
        # 2^(degree - m) per refinement
        f = lambda t: np.sin(3.0 * t)
        m, degree, t0 = 1, 6, 2.0
        exact = 3.0 * math.cos(3.0 * t0) / t0
        errs = []
        for h in (0.08, 0.04, 0.02):
            spec = RadialDerivativeSpec(m, h, degree)
            errs.append(abs(radial_derivative(f, spec, t0) - exact))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= degree - m

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RadialDerivativeSpec(-1, 0.1, 4)
        with pytest.raises(ValueError):
            RadialDerivativeSpec(1, 0.0, 4)
        with pytest.raises(ValueError):
            RadialDerivativeSpec(2, 0.1, 3)  # degree below m + 2

    def test_stencil_errors(self):
        spec = RadialDerivativeSpec(1, 0.2, 4)
        with pytest.raises(StencilError):
            radial_derivative(lambda t: t, spec, 1.0)  # h >= t/(2m+6)
        with pytest.raises(StencilError):
            radial_derivative(lambda t: t, spec, -1.0)
        # spacing fine, but a very wide stencil would cross t = 0
        wide = RadialDerivativeSpec(0, 0.15, 16)
        with pytest.raises(StencilError):
            radial_derivative(lambda t: t, wide, 1.0)

    def test_conditioning_warning(self):
        spec = RadialDerivativeSpec(1, 1e-8, 4)
        with pytest.warns(RuntimeWarning):
            radial_derivative(lambda t: t**2, spec, 1.0)

    def test_nonfinite_samples(self):
        # the samples are checked where they are summed, in geometry.sphere_sums
        nan = lambda points: np.full(points.shape[:-1], np.nan)
        with pytest.raises(EvaluationError):
            means_series(nan, np.zeros(3), sphere_quadrature(3), 1.0, 4, 0.05)

    def test_offsets_symmetric(self):
        for degree in (4, 5, 6, 8):
            off = stencil_offsets(degree)
            assert len(off) == degree + 1
            np.testing.assert_allclose(off, -off[::-1], atol=0)


class TestChainWeights:
    @pytest.mark.parametrize("m", range(6))
    def test_batch_rows_are_the_scalar_calls(self, m):
        rng = np.random.default_rng(10 + m)
        degree = 2 * m + 4
        t = rng.uniform(0.3, 3.0, 25)
        h = t / rng.uniform(2 * m + 7, 40.0, 25)
        rows = chain_weights(degree, m, t, h)
        assert rows.shape == (25, degree + 1)
        for row, tt, hh in zip(rows, t.tolist(), h.tolist()):
            assert row.tobytes() == chain_weights(degree, m, tt, hh).tobytes()

    @pytest.mark.parametrize("m", range(6))
    def test_unit_samples_give_the_weights(self, m):
        degree, t0 = 2 * m + 6, 1.3
        h = t0 / (2 * m + 10)
        weights = chain_weights(degree, m, t0, h)
        np.testing.assert_array_equal(chain_apply(np.eye(degree + 1), m, t0, h), weights)
        t = np.array([t0, 0.7])
        pairs = chain_apply(np.eye(degree + 1)[:, [3, 3]], m, t, t / (2 * m + 10))
        np.testing.assert_array_equal(pairs, chain_weights(degree, m, t, t / (2 * m + 10))[:, 3])

    @pytest.mark.parametrize("m", range(6))
    def test_powers_up_to_the_degree_are_exact(self, m):
        # (1/t d/dt)^m r^k = k (k - 2) .. (k - 2m + 2) t^(k - 2m): exact up to the
        # fit degree, to 1e-12 of the sum's magnitude sum_i |w_i r_i^k|
        for t0 in (1.3, 0.7):
            spec = default_spec(m, t0)
            radii = stencil_radii(t0, spec.degree, spec.h)
            weights = chain_weights(spec.degree, m, t0, spec.h)
            for k in range(spec.degree + 1):
                exact = math.prod(k - 2 * i for i in range(m)) * t0 ** (k - 2 * m)
                magnitude = np.abs(weights) @ np.abs(radii**k)
                assert abs(weights @ radii**k - exact) <= 1e-12 * magnitude, (t0, k)
