"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS/FAIL line (also collected into the terminal summary
via conftest). Run with `pytest tests/test_acceptance.py -v`.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.special import jv

import wavecauchy.fields as fields
from wavecauchy.geometry import (
    Dimension,
    _omega,
    _radial_rule,
    reduce_ball_integral,
    reduce_sphere_integral,
    solution_constant,
    sphere_quadrature_for_order,
    unit_ball_volume,
    unit_sphere_area,
)
from wavecauchy.kernels import (
    DistributionFunctional,
    _osc_nodes,
    distribution_fourier_check,
    identity_sweep,
    normalization_constant,
)
from wavecauchy.montecarlo import ball_monte_carlo, sphere_monte_carlo
from wavecauchy.solvers import (
    CauchyProblem,
    GridSpec,
    hermitian_defect,
    means_series,
    solve_points,
    spectral_energy,
    spectral_solve,
    spectral_state,
    wave_residual,
    weighted_ball_mean,
)

from conftest import ACCEPTANCE_RESULTS


def u_alone(problem, x, t, **kwargs):
    """u at the point x, solved alone, without its error estimate."""
    return float(solve_points(problem, [x], t, with_error=False, **kwargs)[0][0])


@contextmanager
def criterion(name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        ACCEPTANCE_RESULTS.append((name, False, elapsed))
        print(f"FAIL  {name}  ({elapsed:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    ACCEPTANCE_RESULTS.append((name, True, elapsed))
    print(f"PASS  {name}  ({elapsed:.1f}s)")


def test_01_constants_two_ways():
    with criterion("01 solution constants, product vs normalization"):
        expected = {3: 1.0, 5: 1.0 / 3.0, 7: 1.0 / 15.0,
                    2: 0.5, 4: 0.125, 6: 1.0 / 48.0}
        for n, value in expected.items():
            product = solution_constant(n)
            recovered = normalization_constant(n)
            assert product == pytest.approx(value, rel=1e-12)
            assert abs(recovered - product) <= 1e-10 * abs(product)


def test_02_reduction_formulas():
    with criterion("02 reduction formulas vs closed forms and Monte Carlo"):
        functions = {
            "one": lambda s: np.ones_like(s),
            "square": lambda s: s * s,
            "cosine": np.cos,
        }

        def exact(name, radius, n, target):
            omega = unit_sphere_area(n)
            if name == "one":
                return (unit_ball_volume(n) * radius**n if target == "ball"
                        else omega * radius ** (n - 1))
            if name == "square":
                return (omega * radius ** (n + 2) / (n * (n + 2)) if target == "ball"
                        else omega * radius ** (n + 1) / n)
            prefix = (unit_sphere_area(n - 1) * math.sqrt(math.pi)
                      * math.gamma((n - 1) / 2.0))
            if target == "ball":
                return prefix * 2.0 ** ((n - 2) / 2.0) * radius ** (n / 2.0) * jv(n / 2.0, radius)
            return (prefix * radius ** (n - 1) * (2.0 / radius) ** ((n - 2) / 2.0)
                    * jv((n - 2) / 2.0, radius))

        case = 0
        for n in (3, 4, 5, 7):
            for radius in (0.5, 1.0, 2.0):
                for name, f in functions.items():
                    ball = reduce_ball_integral(f, radius, n)
                    sphere = reduce_sphere_integral(f, radius, n)
                    for target, got in (("ball", ball), ("sphere", sphere)):
                        reference = exact(name, radius, n, target)
                        assert abs(got - reference) <= 1e-10 * max(abs(reference), 1e-30)
                    profile = lambda pts: f(pts[:, n - 1])
                    assert ball_monte_carlo(profile, radius, n, samples=10**6,
                                            seed=20000 + case).z_score(ball) < 3.0
                    assert sphere_monte_carlo(profile, radius, n, samples=10**6,
                                              seed=30000 + case).z_score(sphere) < 3.0
                    case += 1


def test_03_odd_identity_sweeps():
    with criterion("03 odd identity, 200 draws per n in {3, 5, 7}"):
        for n, tol in ((3, 1e-10), (5, 1e-8), (7, 1e-8)):
            records = identity_sweep(n, 200, seed=101 + n, max_product=20.0)
            worst = records.residual.max()
            assert worst <= tol, f"n={n}: worst residual {worst:.3e} > {tol:g}"


def test_04_even_identity_sweeps():
    with criterion("04 even identity sweeps and descent agreement"):
        for n in (2, 4, 6):
            records = identity_sweep(n, 200, seed=211 + n, max_product=20.0)
            worst = records.residual.max()
            assert worst <= 1e-6, f"n={n}: worst residual {worst:.3e} > 1e-6"
        # R^n times the weighted ball mean of the plane wave e^{-i |xi| y_1}:
        # the means path on S^n scaled by omega_(n+1) / (2 v_n), against the
        # direct weighted ball mean of its real part
        rng = np.random.default_rng(77)
        for n in (2, 4, 6):
            for _ in range(25):
                radius = rng.uniform(0.5, 2.0)
                knorm = rng.uniform(0.0, 20.0 / radius)
                direction = rng.standard_normal(n)
                xi = direction * (knorm / np.linalg.norm(direction))
                knorm = float(np.linalg.norm(xi))
                nodes = _osc_nodes(knorm * radius)
                means = means_series(lambda points: np.exp(-1j * knorm * points[..., 0]), 0.0,
                                     _radial_rule(n + 1, n + 1, nodes), radius, 0, radius)
                a = _omega(n + 1) / (2.0 * unit_ball_volume(n)) * complex(means[0])
                wave = fields.ScalarField(lambda points: np.cos(knorm * points[..., 0]), n)
                b = radius**n * weighted_ball_mean(wave, np.zeros(n), radius,
                                                   _radial_rule(n, n, nodes))
                assert abs(a - b) <= 1e-8 * max(abs(a), 1.0)


def test_05_distribution_duality():
    with criterion("05 duality T(phi_hat) vs sinc integral"):
        for n in (2, 3):
            nodes = 64 if n == 2 else 48
            test_functions = (fields.gaussian(n, sigma=math.sqrt(0.5)),
                              fields.bump(n, radius=1.0))
            for radius in (0.5, 1.0):
                functional = DistributionFunctional(radius, Dimension(n))
                for phi in test_functions:
                    lhs, rhs = distribution_fourier_check(functional, phi,
                                                          nodes_per_axis=nodes)
                    assert abs(lhs - rhs) <= 1e-6 * max(abs(rhs), 1e-30), (
                        f"n={n} R={radius} {phi.label}: lhs={lhs!r} rhs={rhs!r}")


def test_06_harmonic_data_exactness():
    with criterion("06 harmonic data: u = phi + t psi"):
        for n in (2, 3, 4, 5, 7):
            phi = fields.harmonic(n, "saddle", offset=3.0)
            psi = fields.harmonic(n, "bilinear", offset=2.0)
            problem = CauchyProblem(phi, psi, Dimension(n))
            rule = sphere_quadrature_for_order(n, 7)
            rng = np.random.default_rng(500 + n)
            probes = rng.uniform(-1.0, 1.0, size=(20, n))
            for t in (0.5, 1.0, 2.0):
                for x in probes:
                    exact = float(phi(x[None, :])[0]) + t * float(psi(x[None, :])[0])
                    assert abs(u_alone(problem, x, t, rule=rule) - exact) <= 1e-8 * abs(exact)


def test_07_oracle_agreement():
    with criterion("07 means solvers vs spectral oracle (Gaussian data)"):
        t = 1.5
        # n = 1: d'Alembert vs a 4096-point spectral grid, the axis points one batch
        problem1 = CauchyProblem(fields.gaussian(1, sigma=1.0),
                                 fields.gaussian(1, sigma=0.8), Dimension(1))
        grid1 = GridSpec(16.0, 4096, 1)
        sol1 = spectral_solve(problem1, grid1, t)
        near1 = np.nonzero(np.abs(grid1.axis()) < 3.0)[0][::29]
        u1, _ = solve_points(problem1, grid1.axis()[near1, None], t)
        assert np.max(np.abs(u1 - sol1.values[near1])) <= 1e-6

        # n = 2: weighted means vs a 256^2 grid, 50 lattice probes
        problem2 = CauchyProblem(fields.gaussian(2, sigma=1.0), fields.zero(2),
                                 Dimension(2))
        grid2 = GridSpec(12.0, 256, 2)
        sol2 = spectral_solve(problem2, grid2, t)
        rng = np.random.default_rng(72)
        near2 = np.nonzero(np.abs(grid2.axis()) < 2.0)[0]
        diffs, scale = [], 0.0
        for _ in range(50):
            idx = tuple(rng.choice(near2) for _ in range(2))
            x = np.array([grid2.axis()[i] for i in idx])
            u = u_alone(problem2, x, t)
            diffs.append(abs(u - sol2.values[idx]))
            scale = max(scale, abs(u))
        assert max(diffs) <= 1e-3 * scale

        # n = 3: spherical means vs a 128^3 grid, 50 lattice probes
        problem3 = CauchyProblem(fields.zero(3), fields.gaussian(3, sigma=1.0),
                                 Dimension(3))
        grid3 = GridSpec(12.0, 128, 3)
        sol3 = spectral_solve(problem3, grid3, t)
        near3 = np.nonzero(np.abs(grid3.axis()) < 2.0)[0]
        diffs, scale = [], 0.0
        for _ in range(50):
            idx = tuple(rng.choice(near3) for _ in range(3))
            x = np.array([grid3.axis()[i] for i in idx])
            u = u_alone(problem3, x, t)
            diffs.append(abs(u - sol3.values[idx]))
            scale = max(scale, abs(u))
        assert max(diffs) <= 1e-3 * scale


def test_08_huygens_and_wake():
    with criterion("08 Huygens sharp fronts (n=3) and wake (n=2)"):
        psi3 = fields.bump(3, radius=0.5)
        problem3 = CauchyProblem(fields.zero(3), psi3, Dimension(3))
        probe = np.array([3.0, 0.0, 0.0])
        for t in (1.0, 2.0, 4.0, 5.0):
            assert abs(u_alone(problem3, probe, t)) <= 1e-6
        assert abs(u_alone(problem3, probe, 3.0)) > 1e-3

        psi2 = fields.bump(2, radius=0.5)
        problem2 = CauchyProblem(fields.zero(2), psi2, Dimension(2))
        for t in (2.0, 4.0, 8.0):
            assert u_alone(problem2, np.zeros(2), t) > 1e-4


def test_09_pde_residual_order():
    with criterion("09 means solutions satisfy the wave equation at O(h^2)"):
        for n in (2, 3):
            problem = CauchyProblem(fields.zero(n), fields.gaussian(n, sigma=1.0),
                                    Dimension(n))
            residuals = []
            for h in (0.2, 0.1, 0.05):
                pts = 3
                axis = h * (np.arange(pts) - pts // 2)
                tvals = 1.0 + h * np.array([-1.0, 0.0, 1.0])
                slab = np.empty((3,) + (pts,) * n)
                for it, tv in enumerate(tvals):
                    for idx in np.ndindex(*(pts,) * n):
                        x = np.array([axis[i] for i in idx])
                        slab[(it,) + idx] = u_alone(problem, x, tv)
                residuals.append(wave_residual(slab, h, h))
            orders = [math.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
            fitted = sum(orders) / len(orders)
            assert fitted >= 1.7, f"n={n}: fitted order {fitted:.2f} < 1.7"


def test_10_spectral_invariants():
    with criterion("10 Hermitian symmetry and energy conservation"):
        problem = CauchyProblem(fields.gaussian(1, sigma=1.0),
                                fields.gaussian(1, sigma=0.5), Dimension(1))
        grid = GridSpec(16.0, 4096, 1)
        state = spectral_state(problem, grid)
        assert hermitian_defect(problem, grid) <= 1e-12
        base = spectral_energy(state, 0.0)
        for t in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
            drift = abs(spectral_energy(state, t) - base) / base
            assert drift <= 1e-10
