import numpy as np
import pytest

from wavecauchy import montecarlo
from wavecauchy.geometry import unit_ball_volume, unit_sphere_area
from wavecauchy.montecarlo import ball_monte_carlo, sphere_monte_carlo


class TestBallMonteCarlo:
    @pytest.mark.parametrize("n,radius", [(3, 1.0), (5, 0.5), (7, 2.0)])
    def test_volume_within_three_sigma(self, n, radius):
        one = lambda pts: np.ones(pts.shape[0])
        est = ball_monte_carlo(one, radius, n, samples=200_000, seed=n)
        exact = unit_ball_volume(n) * radius**n
        assert est.z_score(exact) < 3.0
        assert est.sigma > 0.0

    def test_sigma_shrinks_with_samples(self):
        one = lambda pts: np.ones(pts.shape[0])
        small = ball_monte_carlo(one, 1.0, 3, samples=10_000, seed=0)
        large = ball_monte_carlo(one, 1.0, 3, samples=160_000, seed=0)
        assert large.sigma == pytest.approx(small.sigma / 4.0, rel=0.15)

    def test_deterministic_for_seed(self):
        f = lambda pts: pts[:, 0] ** 2
        a = ball_monte_carlo(f, 1.0, 4, samples=50_000, seed=9)
        b = ball_monte_carlo(f, 1.0, 4, samples=50_000, seed=9)
        assert a == b

    def test_guards(self):
        with pytest.raises(ValueError):
            ball_monte_carlo(lambda p: p[:, 0], 0.0, 3)


class TestSphereMonteCarlo:
    @pytest.mark.parametrize("n,radius", [(3, 1.0), (4, 2.0), (7, 0.5)])
    def test_area_within_three_sigma(self, n, radius):
        one = lambda pts: np.ones(pts.shape[0])
        est = sphere_monte_carlo(one, radius, n, samples=100_000, seed=n)
        exact = unit_sphere_area(n) * radius ** (n - 1)
        # f == 1 has zero variance for the direction sampler
        assert est.value == pytest.approx(exact, rel=1e-12)
        assert est.sigma == pytest.approx(0.0, abs=1e-12)

    def test_moment_within_three_sigma(self):
        f = lambda pts: pts[:, 2] ** 2
        est = sphere_monte_carlo(f, 1.0, 3, samples=200_000, seed=3)
        exact = unit_sphere_area(3) / 3.0
        assert est.z_score(exact) < 3.0

    def test_batching_matches_single_pass(self, monkeypatch):
        f = lambda pts: np.cos(pts[:, 0])
        monkeypatch.setattr(montecarlo, "_BATCH", 7_000)
        a = sphere_monte_carlo(f, 1.0, 3, samples=40_000, seed=5)
        monkeypatch.setattr(montecarlo, "_BATCH", 40_000)
        b = sphere_monte_carlo(f, 1.0, 3, samples=40_000, seed=5)
        # same seed, different batching: same draws in a different split
        assert a.value == pytest.approx(b.value, rel=1e-12)


class TestRecordedDraws:
    """Estimates recorded with repr when each oracle kept its own sampling
    loop: the shared loop must keep every draw, to the bit, whether the
    samples come in one batch or in three (10,000 + 10,000 + 5,000)."""

    @pytest.mark.parametrize("oracle, batch, value, sigma", [
        (ball_monte_carlo, 10_000, 19.64021571461277, 0.1968360525332582),
        (ball_monte_carlo, 1_000_000, 19.640215714612772, 0.19683605253325817),
        (sphere_monte_carlo, 10_000, 45.71556033837803, 0.12393148502059687),
        (sphere_monte_carlo, 1_000_000, 45.715560338378026, 0.123931485020597),
    ], ids=["ball_three_batches", "ball_one_batch", "sphere_three_batches",
            "sphere_one_batch"])
    def test_n4_cos_seed_9(self, monkeypatch, oracle, batch, value, sigma):
        monkeypatch.setattr(montecarlo, "_BATCH", batch)
        f = lambda pts: np.cos(pts[:, 0] + 0.5 * pts[:, 1])
        est = oracle(f, 1.5, 4, samples=25_000, seed=9)
        assert (est.value, est.sigma, est.samples) == (value, sigma, 25_000)
