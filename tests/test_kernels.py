import math

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
    KernelQuery,
    _osc_nodes,
    distribution_fourier_check,
    identity_records,
    identity_sweep,
    normalization_constant,
)
from wavecauchy.radial import RadialDerivativeSpec, chain_apply, default_spec, stencil_radii
from wavecauchy.solvers import CauchyProblem, means_series, solve_points, weighted_ball_mean


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
    return complex(means_series(wave, 0.0, rule, q.radius, 0, q.radius)[0])


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
            assert got.real == pytest.approx(math.sin(q.radius * q.knorm) / q.knorm, abs=1e-12)
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
        assert identity_records([q])[0].residual <= 1e-10

    def test_odd_n3_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            q = random_query(rng, 3)
            assert identity_records([q])[0].residual <= 1e-10

    def test_odd_n5_against_refined_oracle(self):
        q = KernelQuery(np.array([2.0, 0, 0, 0, 0]), 1.0, Dimension(5))
        assert identity_records([q])[0].residual <= 1e-8
        # doubled-resolution oracle: twice the nodes, half the spacing, two
        # extra fit degrees; the residual target must hold there too
        spec = RadialDerivativeSpec(1, 0.0125, 8)
        assert identity_records([q], [spec], 128)[0].residual <= 1e-10

    def test_even_zero_frequency(self):
        q = KernelQuery(np.zeros(4), 1.0, Dimension(4))
        assert identity_records([q])[0].residual <= 1e-8

    def test_even_n2_sweep(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            q = random_query(rng, 2)
            assert identity_records([q])[0].residual <= 1e-8

    def test_even_n4_against_refined_oracle(self):
        q = KernelQuery(np.array([3.0, 0, 0, 0]), 1.0, Dimension(4))
        assert identity_records([q])[0].residual <= 1e-6
        # the refined residual on the direct weighted ball mean, not the descent
        spec = RadialDerivativeSpec(1, 0.008, 8)
        spec.validate_radius(q.radius)
        radii = stencil_radii(q.radius, spec.degree, spec.h)
        samples = np.array([direct_ball_wave(q, r, 128) for r in radii])
        value = solution_constant(4) * chain_apply(samples, 1, q.radius, spec.h)
        assert abs(math.sin(3.0) / 3.0 - value) <= 1e-8

    def test_residual_refinement_order(self):
        # residual drops at (at least) order degree - m when h halves
        q = KernelQuery(np.array([3.0, 0, 0, 0, 0]), 1.0, Dimension(5))
        m, degree = 1, 6
        residuals = [identity_records([q], [RadialDerivativeSpec(m, h, degree)])[0].residual
                     for h in (0.1, 0.05, 0.025)]
        orders = [math.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
        assert min(orders) >= degree - m

    def test_high_frequency_node_scaling(self):
        # past R|xi| = 30 the 1-D rules grow linearly with the phase range;
        # the n = 3 identity stays at quadrature accuracy
        q = KernelQuery(np.array([25.0, 0.0, 0.0]), 2.0, Dimension(3))
        rec = identity_records([q])[0]
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
            identity_records([KernelQuery(np.zeros(5), 1.0, Dimension(5))],
                             [RadialDerivativeSpec(2, 0.01, 8)])


def assert_same_record(batched, alone):
    """Everything but the residuals equal, the residuals within 1e-15 absolute.
    The batched sums, fit and chain take each query's own operations, so they
    agree to the bit where a matrix-vector product rounds each row alike
    whatever the number of rows; the bound allows for a BLAS that does not."""
    assert (batched.n, batched.radius, batched.knorm, batched.h, batched.nodes) == \
        (alone.n, alone.radius, alone.knorm, alone.h, alone.nodes)
    assert abs(batched.residual - alone.residual) <= 1e-15
    assert abs(batched.imag_residual - alone.imag_residual) <= 1e-15


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
            for batched, short in zip(full, identity_sweep(n, count, seed=20 + n)):
                assert_same_record(batched, short)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_each_record_is_its_query_alone(self, n, monkeypatch):
        calls = count_sphere_sums(monkeypatch)
        records = identity_sweep(n, 200, seed=30 + n)
        assert len(calls) == 1  # 200 draws at 64 nodes: one block
        rng = np.random.default_rng(30 + n)
        for rec in records:
            assert_same_record(rec, identity_records([random_query(rng, n)])[0])

    @pytest.mark.parametrize("n", [3, 4])
    def test_node_groups_out_of_draw_order(self, n):
        records = identity_sweep(n, 40, seed=5, max_product=100.0)
        nodes = [rec.nodes for rec in records]
        # several node counts, interleaved in draw order
        assert len(set(nodes)) > 3
        assert any(a > b for a, b in zip(nodes, nodes[1:]))
        rng = np.random.default_rng(5)
        for rec in records:
            assert_same_record(rec, identity_records([random_query(rng, n, 100.0)])[0])

    def test_a_sweep_over_two_blocks(self, monkeypatch):
        # 9 stencil radii of 7 coordinates at 64 nodes: 260 draws fill a block
        calls = count_sphere_sums(monkeypatch)
        records = identity_sweep(7, 261, seed=4)
        assert calls == [(260 * 9,), (9,)]
        rng = np.random.default_rng(4)
        queries = [random_query(rng, 7) for _ in range(261)]
        for index in (0, 259, 260):
            assert_same_record(records[index], identity_records([queries[index]])[0])

    @pytest.mark.parametrize("n", [3, 4])
    def test_zero_frequency_in_a_batch(self, n):
        rng = np.random.default_rng(11)
        queries = [random_query(rng, n) for _ in range(3)]
        queries.insert(1, KernelQuery(np.zeros(n), 1.3, Dimension(n)))
        records = kernels.identity_records(queries)
        assert records[1].knorm == 0.0
        # the sinc side is its limit R, which the chain meets to the tolerance
        assert records[1].residual <= (1e-10 if n % 2 else 1e-8)
        for rec, q in zip(records, queries):
            assert_same_record(rec, identity_records([q])[0])

    def test_an_oversized_draw_fails_before_any_sum(self, monkeypatch):
        calls = count_sphere_sums(monkeypatch)
        rng = np.random.default_rng(12)
        queries = [random_query(rng, 3) for _ in range(4)]
        queries.append(KernelQuery(np.array([2000.0, 0.0, 0.0]), 1.0, Dimension(3)))
        with pytest.raises(EvaluationError, match="oscillatory quadrature nodes"):
            kernels.identity_records(queries)
        assert calls == []

    def test_specs_per_query(self):
        q = KernelQuery(np.array([3.0, 0, 0, 0, 0]), 1.0, Dimension(5))
        specs = [RadialDerivativeSpec(1, h, 6) for h in (0.1, 0.05, 0.025)]
        records = kernels.identity_records([q] * 3, specs)
        assert [rec.h for rec in records] == [0.1, 0.05, 0.025]
        for rec, spec in zip(records, specs):
            assert_same_record(rec, identity_records([q], [spec])[0])
        with pytest.raises(ValueError):  # one spec short
            kernels.identity_records([q] * 3, specs[:2])


def exp_sweep(n, count, seed, max_product=20.0):
    """identity_sweep as a KernelQuery per draw, a spec per draw and the plane wave by
    complex exp, with the draws grouped and blocked as the array core groups them."""
    rng = np.random.default_rng(seed)
    m, n_means = Dimension(n).derivative_order, n + 1 - n % 2
    groups = {}
    for i in range(count):
        q = random_query(rng, n, max_product)
        spec = default_spec(m, q.radius, oscillation=q.knorm)
        spec.validate_radius(q.radius)
        nodes = _osc_nodes(q.knorm * (q.radius + spec.h * spec.degree / 2.0))
        groups.setdefault((spec.degree, nodes), []).append((i, q.radius, q.knorm, spec.h))
    records = [None] * count
    for (degree, nodes), members in sorted(groups.items()):
        block = max(1, _CHUNK_BYTES // ((degree + 1) * n_means * 8 * nodes))
        for first in range(0, len(members), block):
            index, t, k, h = (np.array(column) for column in zip(*members[first:first + block]))
            wave = np.repeat(k, degree + 1)[:, None]
            samples = means_series(lambda points: np.exp(-1j * wave * points[..., 0]), 0.0,
                                   _radial_rule(n_means, n_means, nodes), t, degree, h)
            value = solution_constant(n_means) * chain_apply(samples, m, t, h)
            residual = abs(t * _kernels.sinc_ratio(t * k) - value.real)
            for row in zip(index, t, k, residual, abs(value.imag), h):
                records[row[0]] = IdentityRecord(n, *row[1:], nodes)
    return records


def record_bits(records):
    return [(r.n, r.nodes) + tuple(float.hex(float(v)) for v in
                                   (r.radius, r.knorm, r.residual, r.imag_residual, r.h))
            for r in records]


class TestIdentityBits:
    """The array sweep against a per-draw reference on the complex exp: the same bits,
    as cos/sin of the real phase are what exp takes at real part +-0, and
    math.sqrt(v.dot(v)) is np.linalg.norm(v)."""

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
        q = KernelQuery(np.array([3.0, 0, 0, 0, 0]), 1.0, Dimension(5))
        specs = [RadialDerivativeSpec(1, h, 6) for h in (0.05, 0.2, 0.3)]
        with pytest.raises(StencilError, match="h = 0.2 too large"):
            identity_records([q] * 3, specs)
        with pytest.warns(RuntimeWarning, match="h = 1e-07 below"):
            identity_records([q] * 2, [RadialDerivativeSpec(1, h, 6) for h in (0.05, 1e-7)])
        assert len(calls) == 1  # only the warned batch reached its sum

    def test_one_dimension_per_call(self):
        queries = [KernelQuery(np.zeros(3), 1.0, Dimension(3)),
                   KernelQuery(np.zeros(5), 1.0, Dimension(5))]
        with pytest.raises(ValueError, match="one dimension"):
            identity_records(queries)


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
        assert base_nodes in {rec.nodes for rec in mirrored}

    @pytest.mark.parametrize("n", range(2, MAX_DIMENSION + 1))
    def test_one_chunk_at_the_node_cap(self, n):
        # the block sizing of _identity_core keeps a rule in one sphere_sums chunk
        # when one draw of the default degree 2 m + 4 fits at the most nodes
        m = Dimension(n).derivative_order
        assert (2 * m + 5) * (n + 1 - n % 2) * 8 * MAX_OSC_NODES <= _CHUNK_BYTES

    def test_a_draw_at_the_node_cap(self, monkeypatch):
        xi = np.zeros(11)
        xi[0] = 1274.5  # R |xi| just under the cap of MAX_OSC_NODES nodes
        query = KernelQuery(xi, 1.0, Dimension(11))
        mirrored = identity_records([query])
        assert mirrored[0].nodes == MAX_OSC_NODES
        self.cis_on_every_node(monkeypatch)
        assert record_bits(mirrored) == record_bits(identity_records([query]))

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
