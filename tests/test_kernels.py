import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import dawsn

import wavecauchy._kernels as _kernels
import wavecauchy.fields as fields
import wavecauchy.kernels as kernels
import wavecauchy.solvers as solvers
from wavecauchy.errors import ConfigError, EvaluationError, StencilError
from wavecauchy.geometry import (
    _CHUNK_BYTES,
    MAX_DIMENSION,
    MAX_OSC_NODES,
    Dimension,
    _omega,
    _radial_rule,
    solution_constant,
    sphere_quadrature_for_order,
    unit_ball_volume,
)
from wavecauchy.kernels import (
    DistributionFunctional,
    IdentityRecord,
    _osc_nodes,
    distribution_fourier_check,
    identity_records,
    identity_sweep,
    make_fourier_evaluator,
    normalization_constant,
)
from wavecauchy.radial import (RadialDerivativeSpec, chain_apply, chain_support, default_spec,
                              stencil_radii)
from wavecauchy.solvers import (MAX_GRID_POINTS, CauchyProblem, means_series, solve_points,
                                weighted_ball_mean)


def random_draws(rng, count, max_product=20.0):
    """(R, |xi|) arrays drawn as `identity_sweep` draws them: R in [0.5, 2) and |xi| in
    [0, max_product / R), draw i from the generator's doubles 2i and 2i + 1."""
    u = rng.random((count, 2))
    radius = 0.5 + 1.5 * u[:, 0]
    return radius, max_product / radius * u[:, 1]


def sphere_average(radius, knorm, n):
    """R^(n-2) times the mean of e^{-i x.xi} over the sphere of radius R in
    R^n: the means path at a degree-0 stencil, whose one radius is R."""
    rule = _radial_rule(n, n, _osc_nodes(knorm * radius))
    wave = lambda points: np.exp(-1j * knorm * points[..., 0])
    return complex(means_series(wave, 0.0, rule, radius, 0, radius)[0])


def ball_by_descent(radius, knorm, n):
    """R^n times the weighted ball mean of e^{-i x.xi}, by descent: the
    means over S^n, scaled by omega_(n+1) / (2 v_n)."""
    return _omega(n + 1) / (2.0 * unit_ball_volume(n)) * sphere_average(radius, knorm, n + 1)


def direct_ball_wave(knorm, n, radius, nodes, length_scale=math.inf):
    """R^n times the direct weighted ball mean of the real part of the plane
    wave, cos(|xi| y_1), at radius R on the reduced rule of `nodes` nodes."""
    wave = fields.ScalarField(lambda points: np.cos(knorm * points[..., 0]), n,
                              length_scale=length_scale)
    return radius**n * weighted_ball_mean(wave, np.zeros(n), radius, _radial_rule(n, n, nodes))


class TestSincKernel:
    """The kernel sin(R|xi|)/|xi| as the identities take it: R sinc(R|xi|)."""

    def test_examples(self):
        assert 2.0 * _kernels.sinc_ratio(np.zeros(3))[0] == 2.0
        assert _kernels.sinc_ratio(np.array([math.pi]))[0] == pytest.approx(0.0, abs=1e-15)
        half_pi = math.pi / 2.0
        assert half_pi * _kernels.sinc_ratio(np.array([half_pi]))[0] == \
            pytest.approx(1.0, rel=1e-15)

    def test_quotient_within_two_ulp(self):
        # sin(z)/z has no cancellation, so the plain quotient is accurate at every
        # z != 0, however small: within 2 ulp of math's, either sign; 1 at +-0
        zs = np.array([1e-300, 1e-12, 1e-6, 5e-5, 9.9e-5, 1.01e-4, 1e-3, math.pi])
        zs = np.concatenate([zs, -zs])
        got = _kernels.sinc_ratio(zs)
        want = np.array([math.sin(z) / z for z in zs])
        assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 2
        assert _kernels.sinc_ratio(np.array([0.0, -0.0])).tolist() == [1.0, 1.0]


class TestExponentialAverages:
    def test_sphere_zero_frequency_is_power(self):
        assert sphere_average(2.0, 0.0, 3) == pytest.approx(2.0, rel=1e-13)
        assert sphere_average(1.5, 0.0, 5) == pytest.approx(1.5**3, rel=1e-13)

    def test_sphere_n3_closed_form(self):
        # n = 3: the average itself equals sin(R|xi|)/|xi| (no derivative)
        for radius, knorm in zip(*random_draws(np.random.default_rng(42), 20)):
            got = sphere_average(radius, knorm, 3)
            assert got.real == pytest.approx(math.sin(radius * knorm) / knorm, abs=1e-12)
        assert abs(sphere_average(1.0, math.pi, 3)) < 1e-14

    def test_ball_zero_frequency(self):
        # n = 2, R = 1: (1/pi) 2 pi int_0^1 r (1-r^2)^(-1/2) dr = 2
        assert ball_by_descent(1.0, 0.0, 2) == pytest.approx(2.0, rel=1e-12)
        assert direct_ball_wave(0.0, 2, 1.0, 64) == pytest.approx(2.0, rel=1e-12)

    def test_ball_n2_vanishes_at_pi(self):
        # m' = 0 for n = 2, so the average equals sinc/d_2; at R|xi| = pi it is 0
        assert abs(ball_by_descent(1.0, math.pi, 2)) < 1e-12

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_sphere_parity(self, n):
        for radius, knorm in zip(*random_draws(np.random.default_rng(n), 100)):
            value = sphere_average(radius, knorm, n)
            assert abs(value.imag) <= 1e-12

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_ball_parity(self, n):
        for radius, knorm in zip(*random_draws(np.random.default_rng(n), 100)):
            value = ball_by_descent(radius, knorm, n)
            assert abs(value.imag) <= 1e-10

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_descent_matches_direct(self, n):
        for radius, knorm in zip(*random_draws(np.random.default_rng(100 + n), 25)):
            a = ball_by_descent(radius, knorm, n)
            b = direct_ball_wave(knorm, n, radius, _osc_nodes(knorm * radius))
            assert abs(a - b) <= 1e-8 * max(abs(a), 1.0)

    def test_direct_theta_rule_follows_the_length_scale(self):
        # R|xi| = 160: 64 theta nodes leave 1.8e-6 here; the rule sized from
        # R / length_scale, as the oscillatory rules are, leaves rounding
        b = direct_ball_wave(160.0, 2, 1.0, _osc_nodes(160.0), 1.0 / 160.0)
        assert abs(ball_by_descent(1.0, 160.0, 2) - b) <= 1e-12 * max(abs(b), 1.0)


class TestIdentities:
    def test_odd_zero_frequency(self):
        assert identity_records(5, [1.0], [0.0]).residual[0] <= 1e-10

    def test_odd_n3_sweep(self):
        radius, knorm = random_draws(np.random.default_rng(7), 50)
        assert identity_records(3, radius, knorm).residual.max() <= 1e-10

    def test_odd_n5_against_refined_oracle(self):
        assert identity_records(5, [1.0], [2.0]).residual[0] <= 1e-8
        # doubled-resolution oracle: twice the nodes, half the spacing, two
        # extra fit degrees; the residual target must hold there too
        spec = RadialDerivativeSpec(1, 0.0125, 8)
        assert identity_records(5, [1.0], [2.0], [spec], 128).residual[0] <= 1e-10

    def test_even_zero_frequency(self):
        assert identity_records(4, [1.0], [0.0]).residual[0] <= 1e-8

    def test_even_n2_sweep(self):
        radius, knorm = random_draws(np.random.default_rng(8), 50)
        assert identity_records(2, radius, knorm).residual.max() <= 1e-8

    def test_even_n4_against_refined_oracle(self):
        assert identity_records(4, [1.0], [3.0]).residual[0] <= 1e-6
        # the refined residual on the direct weighted ball mean, not the descent
        spec = RadialDerivativeSpec(1, 0.008, 8)
        spec.validate_radius(1.0)
        radii = stencil_radii(1.0, spec.degree, spec.h)
        samples = np.array([direct_ball_wave(3.0, 4, r, 128) for r in radii])
        value = solution_constant(4) * chain_apply(samples, 1, 1.0, spec.h)
        assert abs(math.sin(3.0) / 3.0 - value) <= 1e-8

    def test_residual_refinement_order(self):
        # residual drops at (at least) order degree - m when h halves
        m, degree = 1, 6
        specs = [RadialDerivativeSpec(m, h, degree) for h in (0.1, 0.05, 0.025)]
        residuals = identity_records(5, [1.0] * 3, [3.0] * 3, specs).residual
        orders = [math.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
        assert min(orders) >= degree - m

    def test_high_frequency_node_scaling(self):
        # past R|xi| = 30 the 1-D rules grow linearly with the phase range;
        # the n = 3 identity stays at quadrature accuracy
        rec = identity_records(3, [2.0], [25.0])
        assert rec.nodes[0] > 64
        assert rec.residual[0] <= 1e-10

    def test_identity_sweep_records(self):
        records = identity_sweep(3, 10, seed=3)
        assert records.n == 3 and len(records.residual) == 10
        assert records.residual.max() <= 1e-10
        assert records.imag_residual.max() <= 1e-10
        assert (records.radius * records.knorm <= 20.0 + 1e-12).all()

    def test_parity_dispatch_errors(self):
        with pytest.raises(ValueError):
            identity_records(5, [1.0], [0.0], [RadialDerivativeSpec(2, 0.01, 8)])


COLUMNS = ("radius", "knorm", "residual", "imag_residual", "h", "nodes")


def entry(record, i):
    """Draw i of a record of columns."""
    return SimpleNamespace(n=record.n, **{name: getattr(record, name)[i] for name in COLUMNS})


def assert_same_record(batched, alone):
    """Everything but the residuals equal, the residuals within 1e-15 absolute.
    The batched sums, fit and chain take each draw's own operations, so they
    agree to the bit where a matrix-vector product rounds each row alike
    whatever the number of rows; the bound allows for a BLAS that does not."""
    assert (batched.n, batched.radius, batched.knorm, batched.h, batched.nodes) == \
        (alone.n, alone.radius, alone.knorm, alone.h, alone.nodes)
    assert abs(batched.residual - alone.residual) <= 1e-15
    assert abs(batched.imag_residual - alone.imag_residual) <= 1e-15


def alone(n, radius, knorm, spec=None):
    """The record of one draw by itself, as an entry."""
    return entry(identity_records(n, [radius], [knorm], None if spec is None else [spec]), 0)


def count_sphere_sums(monkeypatch):
    """A list that grows by one entry per `sphere_sums` call of the means path."""
    calls = []
    original = solvers.sphere_sums

    def counted(*args, **kwargs):
        calls.append(args[2].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(solvers, "sphere_sums", counted)
    return calls


class TestBatchedIdentities:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_a_shorter_sweep_is_a_prefix(self, n):
        full = identity_sweep(n, 200, seed=20 + n)
        for count in (1, 37):
            short = identity_sweep(n, count, seed=20 + n)
            assert len(short.residual) == count
            for i in range(count):
                assert_same_record(entry(full, i), entry(short, i))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_each_record_is_its_query_alone(self, n, monkeypatch):
        calls = count_sphere_sums(monkeypatch)
        records = identity_sweep(n, 200, seed=30 + n)
        assert len(calls) == 1  # 200 draws at 64 nodes: one block
        radius, knorm = random_draws(np.random.default_rng(30 + n), 200)
        for i in range(200):
            assert_same_record(entry(records, i), alone(n, radius[i], knorm[i]))

    @pytest.mark.parametrize("max_product", [20.0, 100.0])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_sweep_draws(self, n, max_product):
        # the benchmark's row check: 0.5 <= R < 2, |xi| >= 0, R|xi| <= max_product
        records = identity_sweep(n, 200, seed=50 + n, max_product=max_product)
        radius, knorm = records.radius, records.knorm
        assert (0.5 <= radius).all() and (radius < 2.0).all() and (knorm >= 0.0).all()
        assert (radius * knorm <= max_product * (1 + 1e-12)).all()
        want = random_draws(np.random.default_rng(50 + n), 200, max_product)
        assert radius.tolist() == want[0].tolist() and knorm.tolist() == want[1].tolist()

    @pytest.mark.parametrize("n", [3, 4])
    def test_node_groups_out_of_draw_order(self, n):
        records = identity_sweep(n, 40, seed=5, max_product=100.0)
        nodes = records.nodes.tolist()
        # several node counts, interleaved in draw order
        assert len(set(nodes)) > 3
        assert any(a > b for a, b in zip(nodes, nodes[1:]))
        radius, knorm = random_draws(np.random.default_rng(5), 40, 100.0)
        for i in range(40):
            assert_same_record(entry(records, i), alone(n, radius[i], knorm[i]))

    def test_a_sweep_over_two_blocks(self, monkeypatch):
        # 9 stencil radii of 7 coordinates at 64 nodes: 260 draws fill a block
        calls = count_sphere_sums(monkeypatch)
        records = identity_sweep(7, 261, seed=4)
        assert calls == [(260 * 9,), (9,)]
        radius, knorm = random_draws(np.random.default_rng(4), 261)
        for i in (0, 259, 260):
            assert_same_record(entry(records, i), alone(7, radius[i], knorm[i]))

    @pytest.mark.parametrize("n", [3, 4])
    def test_zero_frequency_in_a_batch(self, n):
        radius, knorm = random_draws(np.random.default_rng(11), 3)
        radius, knorm = np.insert(radius, 1, 1.3), np.insert(knorm, 1, 0.0)
        records = kernels.identity_records(n, radius, knorm)
        assert records.knorm[1] == 0.0
        # the sinc side is its limit R, which the chain meets to the tolerance
        assert records.residual[1] <= (1e-10 if n % 2 else 1e-8)
        for i in range(4):
            assert_same_record(entry(records, i), alone(n, radius[i], knorm[i]))

    def test_an_oversized_draw_fails_before_any_sum(self, monkeypatch):
        calls = count_sphere_sums(monkeypatch)
        radius, knorm = random_draws(np.random.default_rng(12), 4)
        with pytest.raises(EvaluationError, match="oscillatory quadrature nodes"):
            kernels.identity_records(3, np.append(radius, 1.0), np.append(knorm, 2000.0))
        assert calls == []

    def test_bad_draws_fail_before_any_sum(self, monkeypatch):
        calls = count_sphere_sums(monkeypatch)
        spec = RadialDerivativeSpec(1, 0.05, 6)
        with pytest.raises(ValueError, match="one R, one"):  # lengths differ
            identity_records(3, [1.0, 1.2], [2.0])
        with pytest.raises(ValueError, match="one R, one"):  # one spec for two draws
            identity_records(5, [1.0, 1.2], [2.0, 2.0], [spec])
        with pytest.raises(ValueError, match="non-negative"):
            identity_records(3, [1.0, 1.2], [2.0, -2.0])
        for bad in (0.0, -1.0):
            with pytest.raises(StencilError, match="positive"):
                identity_records(3, [1.0, bad], [2.0, 2.0])
            with pytest.raises(StencilError, match="positive"):
                identity_records(5, [bad], [2.0], [spec])
        with pytest.raises(ValueError, match="n = 1"):
            identity_records(1, [1.0], [2.0])
        assert calls == []

    def test_specs_per_query(self):
        specs = [RadialDerivativeSpec(1, h, 6) for h in (0.1, 0.05, 0.025)]
        records = kernels.identity_records(5, [1.0] * 3, [3.0] * 3, specs)
        assert records.h.tolist() == [0.1, 0.05, 0.025]
        for i, spec in enumerate(specs):
            assert_same_record(entry(records, i), alone(5, 1.0, 3.0, spec))
        with pytest.raises(ValueError):  # one spec short
            kernels.identity_records(5, [1.0] * 3, [3.0] * 3, specs[:2])


def exp_sweep(n, count, seed, max_product=20.0):
    """identity_sweep with a spec per draw and the plane wave by complex exp, with the
    draws grouped and blocked as `identity_records` groups them."""
    m, n_means = Dimension(n).derivative_order, n + 1 - n % 2
    radius, knorm = random_draws(np.random.default_rng(seed), count, max_product)
    h, nodes, groups = np.empty(count), np.empty(count, dtype=int), {}
    for i in range(count):
        spec = default_spec(m, radius[i], oscillation=knorm[i])
        spec.validate_radius(radius[i])
        h[i] = spec.h
        nodes[i] = _osc_nodes(knorm[i] * (radius[i] + spec.h * spec.degree / 2.0))
        groups.setdefault((spec.degree, nodes[i]), []).append(i)
    residual, imag = np.empty(count), np.empty(count)
    for (degree, count_nodes), members in sorted(groups.items()):
        block = max(1, _CHUNK_BYTES // ((degree + 1) * n_means * 8 * count_nodes))
        for first in range(0, len(members), block):
            index = np.array(members[first:first + block])
            t, k = radius[index], knorm[index]
            support = chain_support(degree, m)  # the radii the chain weighs
            wave = np.repeat(k, support.sum())[:, None]
            samples = means_series(lambda points: np.exp(-1j * wave * points[..., 0]), 0.0,
                                   _radial_rule(n_means, n_means, count_nodes), t, degree,
                                   h[index], support=support)
            value = solution_constant(n_means) * chain_apply(samples, m, t, h[index])
            residual[index] = abs(t * _kernels.sinc_ratio(t * k) - value.real)
            imag[index] = abs(value.imag)
    return IdentityRecord(n, radius, knorm, residual, imag, h, nodes)


def record_bits(record):
    return [(record.n, int(nodes)) + tuple(float.hex(float(v)) for v in values)
            for nodes, *values in zip(record.nodes, record.radius, record.knorm,
                                      record.residual, record.imag_residual, record.h)]


class TestIdentityBits:
    """The array sweep against a per-draw reference on the complex exp: the same bits,
    as cos/sin of the real phase are what exp takes at real part +-0."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("count, max_product", [(50, 20.0), (40, 100.0)],
                             ids=["default", "node-groups"])
    def test_sweep_equals_the_exp_reference(self, n, count, max_product):
        records = identity_sweep(n, count, seed=40 + n, max_product=max_product)
        assert record_bits(records) == record_bits(exp_sweep(n, count, 40 + n, max_product))

    def test_two_blocks_equal_the_exp_reference(self):
        records = identity_sweep(7, 261, seed=4)
        assert record_bits(records) == record_bits(exp_sweep(7, 261, 4))

    def test_a_bad_spec_fails_before_any_sum(self, monkeypatch):
        calls = count_sphere_sums(monkeypatch)
        specs = [RadialDerivativeSpec(1, h, 6) for h in (0.05, 0.2, 0.3)]
        with pytest.raises(StencilError, match="h = 0.2 too large"):
            identity_records(5, [1.0] * 3, [3.0] * 3, specs)
        with pytest.warns(RuntimeWarning, match="h = 1e-07 below"):
            identity_records(5, [1.0] * 2, [3.0] * 2,
                             [RadialDerivativeSpec(1, h, 6) for h in (0.05, 1e-7)])
        assert len(calls) == 1  # only the warned batch reached its sum


class TestMirroredPlaneWave:
    """The identity plane wave takes `_cis` on the upper half of the reduced rule's
    nodes and conjugates for the lower half: the bits of `_cis` on every node."""

    @staticmethod
    def cis_on_every_node(monkeypatch):
        monkeypatch.setattr(kernels, "_plane_wave",
                            lambda wave, y1, count: kernels._cis(wave * y1))

    @pytest.mark.parametrize("max_product", [20.0, 100.0])
    @pytest.mark.parametrize("base_nodes", [1, 3, 5, 33, 64, 65])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_records_equal_cis_on_every_node(self, monkeypatch, n, base_nodes, max_product):
        mirrored = identity_sweep(n, 30, seed=60 + n, max_product=max_product,
                                  base_nodes=base_nodes)
        self.cis_on_every_node(monkeypatch)
        full = identity_sweep(n, 30, seed=60 + n, max_product=max_product,
                              base_nodes=base_nodes)
        assert record_bits(mirrored) == record_bits(full)
        assert base_nodes in mirrored.nodes.tolist()

    @pytest.mark.parametrize("n", range(2, MAX_DIMENSION + 1))
    def test_one_chunk_at_the_node_cap(self, n):
        # the block sizing of identity_records keeps a rule in one sphere_sums chunk
        # when one draw of the default degree 2 m + 4 fits at the most nodes
        m = Dimension(n).derivative_order
        assert (2 * m + 5) * (n + 1 - n % 2) * 8 * MAX_OSC_NODES <= _CHUNK_BYTES

    def test_a_draw_at_the_node_cap(self, monkeypatch):
        # R |xi| = 1274.5, just under the cap of MAX_OSC_NODES nodes
        mirrored = identity_records(11, [1.0], [1274.5])
        assert mirrored.nodes[0] == MAX_OSC_NODES
        self.cis_on_every_node(monkeypatch)
        assert record_bits(mirrored) == record_bits(identity_records(11, [1.0], [1274.5]))

    def test_a_rule_split_over_chunks_is_refused(self):
        y1 = np.zeros((2, 3))
        with pytest.raises(AssertionError, match="split"):
            kernels._plane_wave(np.ones((2, 1)), y1, 5)


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
        u = solve_points(CauchyProblem(fields.zero(n), f, Dimension(n)), [np.zeros(n)], radius,
                         with_error=False)[0].u
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

    def test_a_grid_over_the_cap_is_refused_before_phi(self):
        # 64^5 nodes would be five 8.6 GB coordinate arrays: the grid is refused
        # above the spectral grid's cap before phi is called or anything is built
        class Called(Exception):
            pass

        def refuse(points):
            raise Called

        for n, nodes in ((5, 64), (3, 257)):
            with pytest.raises(ValueError, match="Fourier grid"):
                make_fourier_evaluator(fields.ScalarField(refuse, n, support_radius=1.0), nodes)
        with pytest.raises(ValueError, match="Fourier grid"):
            distribution_fourier_check(DistributionFunctional(1.0, Dimension(5)),
                                       fields.ScalarField(refuse, 5, support_radius=1.0))
        # 64^4 and 256^3 nodes are at the cap: phi is called, by the support check
        assert 64**4 == 256**3 == MAX_GRID_POINTS
        for n, nodes in ((4, 64), (3, 256)):
            with pytest.raises(Called):
                make_fourier_evaluator(fields.ScalarField(refuse, n, support_radius=1.0), nodes)

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
