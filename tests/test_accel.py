import numpy as np
import pytest

from wavecauchy import _kernels, fields, kernels


class TestNumpyPath:
    def test_sinc_ratio_values(self):
        z = np.array([0.0, 1e-9, 1e-5, 0.5, 3.0, -2.0])
        got = _kernels.sinc_ratio(z)
        assert got[0] == 1.0
        np.testing.assert_allclose(got[3:], np.sin(z[3:]) / z[3:], rtol=1e-15)

    def test_wave_multiplier(self):
        rng = np.random.default_rng(1)
        phi_hat = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        psi_hat = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        # 64 modes on 16 shells, shell 0 at |k| = 0
        radii = np.sort(np.abs(rng.standard_normal(16))) * 3.0
        radii[0] = 0.0  # the sinc limit: t * sinc(0) = t
        shell = rng.integers(1, 16, 64, dtype=np.int32)
        shell[0] = 0
        knorm = radii[shell]
        t = 0.7
        got = _kernels.wave_multiplier(phi_hat, psi_hat, shell, radii, t)
        assert got[0] == phi_hat[0] + psi_hat[0] * t
        k = knorm[1:]
        expected = phi_hat[1:] * np.cos(k * t) + psi_hat[1:] * np.sin(k * t) / k
        np.testing.assert_allclose(got[1:], expected, rtol=1e-12)

    def test_wave_multiplier_slabs(self, monkeypatch):
        # slabs of 3 rows over 10: the whole-lattice expression, bit for bit,
        # with the factors gathered from 30 shells
        rng = np.random.default_rng(2)
        shape = (10, 4, 3)
        phi_hat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        psi_hat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        radii = np.sort(np.abs(rng.standard_normal(30))) * 3.0
        radii[0] = 0.0
        shell = rng.integers(1, 30, shape, dtype=np.int32)
        shell[0, 0, 0] = 0
        knorm = radii[shell]
        t = 0.7
        zt = knorm * t
        psi_factor = np.full(shape, t)
        np.divide(np.sin(zt), knorm, out=psi_factor, where=knorm != 0)
        expected = phi_hat * np.cos(zt) + psi_hat * psi_factor
        monkeypatch.setattr(_kernels, "_SLAB_BYTES", 3 * 4 * 3 * 16)
        np.testing.assert_array_equal(
            _kernels.wave_multiplier(phi_hat, psi_hat, shell, radii, t), expected)


class TestFourierEvaluator:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("nodes_per_axis", [16, 27, 40])
    def test_mirrored_tables_keep_the_bits(self, n, nodes_per_axis):
        # the tables are cos/sin on the upper half of the nodes and conjugates
        # below: the same bits as the complex exp of every row, zeros' signs too
        phi = fields.gaussian(n, sigma=0.6, center=[0.5, -0.3, 0.2][:n])
        evaluator, nodes, coeffs = kernels.make_fourier_evaluator(phi, nodes_per_axis)
        axis_nodes = nodes[:nodes_per_axis, -1]
        points = np.random.default_rng(n).uniform(-3.0, 3.0, size=(40, n))
        points[0] = 0.0
        tables = [np.exp(-1j * np.outer(axis_nodes, points[:, d])) for d in range(n)]
        table_coeffs = coeffs.astype(np.complex128).reshape(-1, nodes_per_axis)
        expected = _kernels.contract_axes(table_coeffs @ tables[-1], tables[:-1])
        assert np.array_equal(evaluator(points).view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("n, nodes_per_axis", [(1, 24), (2, 16), (3, 10)],
                             ids=["n1", "n2", "n3"])
    def test_matches_brute_force(self, monkeypatch, n, nodes_per_axis):
        # small chunks, so the points span several of them and a partial one
        monkeypatch.setattr(kernels, "FOURIER_CHUNK_ELEMENTS", 2000)
        chunk = 2000 // nodes_per_axis ** max(n - 1, 1)
        # off centre, so a swapped axis or a sign flip in the phase shows
        phi = fields.gaussian(n, sigma=0.6, center=[0.5, -0.3, 0.2][:n])
        evaluator, nodes, coeffs = kernels.make_fourier_evaluator(phi, nodes_per_axis)
        rng = np.random.default_rng(n)
        points = rng.uniform(-2.0, 2.0, size=(3, chunk + 5, n))
        got = evaluator(points)
        assert got.shape == points.shape[:-1]
        brute = np.exp(-1j * points @ nodes.T) @ coeffs
        np.testing.assert_allclose(got, brute, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(brute)))
