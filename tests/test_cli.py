import collections
import csv
import io
import math
import re
import struct

import numpy as np
import pytest

import wavecauchy.cli as cli
from wavecauchy.cli import COMMANDS, build_parser, load_config, main, run
from wavecauchy import fields, geometry, solvers
from wavecauchy.errors import ConfigError
from wavecauchy.geometry import MAX_OSC_NODES, Dimension
from wavecauchy.kernels import identity_records
from wavecauchy.radial import RadialDerivativeSpec
from wavecauchy.solvers import CauchyProblem, solve_points


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_report(path):
    comments, rows = [], []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line.strip())
            else:
                rows.append(line.rstrip("\n"))
    header = rows[0].split(",")
    body = [dict(zip(header, next(csv.reader([line])))) for line in rows[1:]]
    return comments, header, body


class TestConstantsCommand:
    def test_table_and_exit_code(self, tmp_path):
        out = tmp_path / "constants.csv"
        cfg = write_config(tmp_path, f"""
[run]
command = constants
seed = 1
output = {out}

[constants]
dims = 2, 3, 4, 5, 6, 7
tolerance = 1e-10
""")
        assert main(["constants", "--config", cfg]) == 0
        comments, header, body = read_report(out)
        assert header == ["n", "parity", "surface_area", "ball_volume", "constant_product",
                          "constant_normalization", "rel_diff", "tol", "pass", "violated"]
        table = {int(r["n"]): float(r["constant_product"]) for r in body}
        assert table[3] == 1.0
        assert table[5] == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert table[2] == 0.5
        assert table[4] == 0.125
        assert all(r["pass"] == "yes" for r in body)
        assert any(c.startswith("# config_sha256=") for c in comments)

    def test_rule_export(self, tmp_path):
        out = tmp_path / "constants.csv"
        rule_out = tmp_path / "rule.csv"
        cfg = write_config(tmp_path, f"""
[run]
command = constants
output = {out}

[constants]
dims = 3
export_rule_dim = 3
export_rule_path = {rule_out}
""")
        assert main(["constants", "--config", cfg]) == 0
        header = rule_out.read_text().splitlines()[0]
        assert header == "index,x1,x2,x3,weight"


class TestSolveCommand:
    def test_kirchhoff_constant_case(self, tmp_path):
        out = tmp_path / "solve.csv"
        cfg = write_config(tmp_path, f"""
[run]
command = solve
dim = 3
seed = 42
output = {out}

[data]
phi = zero
psi = constant
psi_value = 1.0

[solve]
times = 2.0
probes = random
probe_count = 5
probe_radius = 1.0
expect_value = 2.0
expect_tol = 1e-8
""")
        assert main(["solve", "--config", cfg]) == 0
        _, header, body = read_report(out)
        assert header[:4] == ["x1", "x2", "x3", "t"]
        assert len(body) == 5
        for row in body:
            assert float(row["u"]) == pytest.approx(2.0, abs=1e-9)
            assert row["method"] == "spherical_means"

    def test_explicit_probes_and_failure_exit(self, tmp_path):
        out = tmp_path / "solve.csv"
        cfg = write_config(tmp_path, f"""
[run]
command = solve
dim = 2
output = {out}

[data]
psi = constant
psi_value = 1.0

[solve]
times = 1.0
probes = 0 0, 0.5 0.25
expect_value = 99.0
expect_tol = 1e-8
""")
        assert main(["solve", "--config", cfg]) == 1
        _, _, body = read_report(out)
        assert len(body) == 2
        assert all(row["pass"] == "no" for row in body)
        assert all("solve.expect_value" in row["violated"] for row in body)

    def test_dalembert_dispatch(self, tmp_path):
        out = tmp_path / "solve1d.csv"
        cfg = write_config(tmp_path, f"""
[run]
command = solve
dim = 1
output = {out}

[data]
psi = constant
psi_value = 1.0

[solve]
times = 1.5
probes = 0.0, 0.5
expect_value = 1.5
expect_tol = 1e-10
""")
        assert main(["solve", "--config", cfg]) == 0
        _, _, body = read_report(out)
        assert all(row["method"] == "dalembert" for row in body)

    def test_weighted_means_dispatch(self, tmp_path):
        out = tmp_path / "solve2d.csv"
        cfg = write_config(tmp_path, f"""
[run]
command = solve
dim = 2
output = {out}

[data]
psi = constant
psi_value = 1.0

[solve]
times = 1.5, 0.5
probes = 0 0, 0.5 -0.25
expect_value = 1.5
expect_tol = 1e-10
""")
        assert main(["solve", "--config", cfg]) == 1  # t = 0.5 gives u = 0.5
        _, _, body = read_report(out)
        assert [row["pass"] for row in body] == ["yes", "yes", "no", "no"]
        assert [row["method"] for row in body] == ["weighted_means"] * 4

    def test_spectral_method_with_binary(self, tmp_path):
        out = tmp_path / "solve.csv"
        binary = tmp_path / "grid.wave"
        cfg = write_config(tmp_path, f"""
[run]
command = solve
dim = 1
output = {out}

[data]
psi = constant
psi_value = 2.0

[solve]
method = spectral
times = 0.5
grid_half_width = 8.0
grid_points = 64
probes = 0, 1 ; snapped to the lattice
expect_value = 1.0
expect_tol = 1e-9
binary_out = {binary}
""")
        assert main(["solve", "--config", cfg]) == 0
        assert binary.read_bytes()[:4] == b"WAVE"

    def test_spectral_probes_match_the_binary_grid(self, tmp_path):
        # the rows come from the probe sums, the binary from the full inverse
        # at the last time: each last-time row is its snapped lattice value
        out = tmp_path / "solve.csv"
        binary = tmp_path / "grid.wave"
        cfg = write_config(tmp_path, f"""
[run]
command = solve
dim = 2
output = {out}

[data]
phi = gaussian
phi_sigma = 0.9
phi_center = 0.3, -0.2
psi = gaussian
psi_sigma = 0.8

[solve]
method = spectral
times = 0.4, 1.2
grid_half_width = 12.0
grid_points = 32
probes = 0.1 0.2, -1.3 0.7, 2.9 -2.2
binary_out = {binary}
""")
        assert main(["solve", "--config", cfg]) == 0
        raw = binary.read_bytes()
        version, n, points, points2 = struct.unpack_from("<IIII", raw, 4)
        half_width, t = struct.unpack_from("<dd", raw, 20)
        assert (version, n, points, points2, half_width, t) == (1, 2, 32, 32, 12.0, 1.2)
        values = np.frombuffer(raw, dtype="<f8", offset=36).reshape(points, points)
        _, _, body = read_report(out)
        last = [row for row in body if float(row["t"]) == t]
        assert len(body) == 6 and len(last) == 3
        spacing = 2.0 * half_width / points
        for row in last:
            index = tuple(round((float(row[f"x{k}"]) + half_width) / spacing) for k in (1, 2))
            assert abs(float(row["u"]) - values[index]) <= 1e-13 * 2.0  # A_phi + A_psi


class TestBatchedMeans:
    """solve makes one solve_points call over every (probe, time) pair and
    converge one over every ladder level's; the rows are those of one
    solve_points call per point, to the bit."""

    @pytest.mark.parametrize("dim, data", [
        (2, "phi = gaussian\nphi_sigma = 0.9\npsi = harmonic\npsi_poly = saddle"),
        (3, "phi = bump\nphi_radius = 1.5\npsi = gaussian\npsi_sigma = 0.8\n"
            "psi_center = 0.3, 0, -0.2"),
        (5, "phi = harmonic\nphi_poly = triple\npsi = gaussian\npsi_sigma = 1.1"),
    ], ids=["n2", "n3", "n5"])
    def test_solve_report_matches_point_loop(self, tmp_path, dim, data):
        out = tmp_path / "solve.csv"
        cfg = write_config(tmp_path, f"""
[run]
command = solve
dim = {dim}
seed = 5
output = {out}

[data]
{data}

[solve]
times = 0.7, 1.3
probes = random
probe_count = 4
""")
        assert main(["solve", "--config", cfg]) == 0
        _, _, body = read_report(out)
        problem = cli._problem(load_config(cfg, "solve", {}), dim, "run.dim")
        rng = np.random.default_rng(5)
        probes = [rng.uniform(-1.0, 1.0, size=dim) for _ in range(4)]
        # times outer, probes inner
        expected = [(x, t, *solve_points(problem, [x], t)) for t in (0.7, 1.3) for x in probes]
        assert len(body) == len(expected)
        for row, (x, t, u, err) in zip(body, expected):
            assert [row[f"x{k + 1}"] for k in range(dim)] == [repr(float(c)) for c in x]
            assert (row["t"], row["u"], row["error_estimate"]) == (
                repr(t), repr(float(u[0])), repr(float(err[0])))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_means_slab_matches_point_loop(self, dim):
        problem = CauchyProblem(fields.gaussian(dim, 1.2, amplitude=0.6),
                                fields.gaussian(dim, 1.0, amplitude=0.8), Dimension(dim))
        points, t0, hs = 3, 1.0, [0.1, 0.05, 0.025]
        slabs = cli._means_slabs(problem, points, t0, hs)
        assert slabs.shape == (3, 3) + (points,) * dim
        for slab, h in zip(slabs, hs):
            axis = h * (np.arange(points) - points // 2)
            sites = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
            times = t0 + h * np.array([-1.0, 0.0, 1.0])
            # the level's own batch, one call per level as before the ladder batch
            level, _ = solve_points(problem, np.tile(sites, (3, 1)),
                                    np.repeat(times, len(sites)), with_error=False)
            assert np.array_equal(slab.ravel(), level)
            for it, t in enumerate(times):
                for idx in np.ndindex(*slab.shape[1:]):
                    x = axis[list(idx)]
                    assert slab[(it,) + idx] == solve_points(problem, [x], t,
                                                             with_error=False)[0][0]
                # and the slab of one solve_points call per time, the batch before pairs
                per_time, _ = solve_points(problem, sites, t, with_error=False)
                assert np.array_equal(slab[it].ravel(), per_time)

    @pytest.mark.parametrize("dim, data", [
        (2, "phi = gaussian\nphi_sigma = 0.9\npsi = harmonic\npsi_poly = saddle"),
        (3, "psi = gaussian\npsi_sigma = 0.1\npsi_center = 0.3, 0, -0.2"),
    ], ids=["n2", "n3-node-counts"])
    def test_two_time_solve_equals_one_time_solves(self, tmp_path, dim, data):
        # at n = 3 the two times need 64 and 128 nodes per coordinate
        def data_rows(times):
            out = tmp_path / f"solve-{times}.csv"
            cfg = write_config(tmp_path, f"[run]\ncommand = solve\ndim = {dim}\nseed = 9\n"
                               f"output = {out}\n[data]\n{data}\n[solve]\ntimes = {times}\n"
                               "probe_count = 3\n", name=f"{times}.ini")
            assert main(["solve", "--config", cfg]) == 0
            return [line for line in out.read_text().splitlines()
                    if not line.startswith("#")][1:]

        rows = data_rows("0.8, 2.5")
        assert len(rows) == 6 and rows == data_rows("0.8") + data_rows("2.5")

    def test_one_solve_points_call_per_command_and_level(self, tmp_path, monkeypatch):
        calls = []

        def spy(problem, xs, t, **kwargs):
            calls.append(len(xs))
            return solve_points(problem, xs, t, **kwargs)

        monkeypatch.setattr(cli, "solve_points", spy)
        cfg = write_config(tmp_path, "[run]\ncommand = solve\ndim = 3\n[data]\npsi = gaussian\n"
                           "[solve]\ntimes = 0.5, 1.0, 1.5\nprobe_count = 4\n")
        assert main(["solve", "--config", cfg]) == 0
        assert calls == [12]
        calls.clear()
        cfg = write_config(tmp_path, "[run]\ncommand = converge\n[data]\npsi = gaussian\n"
                           "[converge]\ntarget = pde-residual\ndim = 2\npoints = 3\n")
        main(["converge", "--config", cfg])
        assert calls == [3 * 3 * 9]  # every level of the ladder in one batch

    @pytest.mark.parametrize("dim, data, times", [
        # the second time needs 4000 nodes per coordinate, above the cap
        (3, "psi = gaussian\npsi_sigma = 0.005", "0.1, 5.0"),
        # the second time overflows the radial chain
        (7, "psi = gaussian", "1.0, 1e-150"),
    ], ids=["node_count", "tiny_time"])
    def test_one_refused_time_exits_one(self, tmp_path, capsys, dim, data, times):
        out = tmp_path / "solve.csv"
        cfg = write_config(tmp_path, f"""
[run]
command = solve
dim = {dim}
output = {out}

[data]
{data}

[solve]
times = {times}
probe_count = 3
""")
        assert main(["solve", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()


class TestReductionCommand:
    def test_closed_forms_and_monte_carlo(self, tmp_path):
        out = tmp_path / "reduction.csv"
        cfg = write_config(tmp_path, f"""
[run]
command = verify-reduction
seed = 3
output = {out}

[reduction]
dims = 3
radii = 1
functions = square
mc_samples = 60000
""")
        assert main(["verify-reduction", "--config", cfg]) == 0
        _, _, body = read_report(out)
        values = {row["target"]: float(row["quadrature"]) for row in body}
        assert values["ball"] == pytest.approx(4.0 * math.pi / 15.0, rel=1e-12)
        assert values["sphere"] == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)
        assert all(float(row["mc_z"]) < 3.0 for row in body)

    @pytest.mark.parametrize("settings", [
        "dims = 3\nradii = 1e160\nfunctions = one",
        "dims = 11\nradii = 1e30\nfunctions = one\nmc_samples = 10",
    ], ids=["closed_form", "monte_carlo_box"])
    def test_radius_beyond_float_range_is_a_config_error(self, tmp_path, capsys, settings):
        # R^n beyond the float range, in the closed form or the Monte Carlo box
        # (2 R)^n, is refused before any quadrature, with no traceback
        text = f"[run]\ncommand = verify-reduction\n[reduction]\n{settings}\n"
        cfg = write_config(tmp_path, text)
        assert main(["verify-reduction", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "reduction.radii" in err
        assert "Traceback" not in err


class TestIdentitiesCommand:
    def test_sweep_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        cfg = write_config(tmp_path, f"""
[run]
command = verify-identities
seed = 9
output = {out1}

[identities]
dims = 3, 5
count = 10
""")
        assert main(["verify-identities", "--config", cfg]) == 0
        assert main(["verify-identities", "--config", cfg, "--out", str(out2)]) == 0
        a = out1.read_text()
        b = out2.read_text()
        assert a == b  # byte-identical rows for identical config + seed
        _, _, body = read_report(out1)
        assert len(body) == 20
        assert all(float(r["residual_real"]) <= float(r["tol"]) for r in body)

    def test_even_dimensions(self, tmp_path):
        out = tmp_path / "even.csv"
        cfg = write_config(tmp_path, f"""
[run]
command = verify-identities
seed = 4
output = {out}

[identities]
dims = 2, 4
count = 8
""")
        assert main(["verify-identities", "--config", cfg]) == 0
        _, _, body = read_report(out)
        assert {row["n"] for row in body} == {"2", "4"}
        assert all(float(r["tol"]) == 1e-6 for r in body)

    def test_tolerance_override_can_fail(self, tmp_path):
        out = tmp_path / "strict.csv"
        cfg = write_config(tmp_path, f"""
[run]
command = verify-identities
seed = 9
output = {out}

[identities]
dims = 5
count = 5
""")
        assert main(["verify-identities", "--config", cfg, "--tol", "1e-18"]) == 1
        _, _, body = read_report(out)
        assert any(row["violated"] == "identities.tolerance" for row in body)

    @pytest.mark.parametrize("value", [0.1, -0.0, 5e-324, 1e22, 2.0 ** 0.5, math.inf])
    def test_cells_format_floats_as_numpy_floats(self, value):
        # a plain float takes its own branch; np.float64 the isinstance chain
        assert cli._fmt(value) == cli._fmt(np.float64(value)) == repr(value)
        assert [cli._fmt(v) for v in (True, np.bool_(False), 64, np.int64(7), None, "x")] == \
            ["yes", "no", "64", "7", "", "x"]


class TestConvergeCommand:
    def test_wave_residual_order(self, tmp_path):
        out = tmp_path / "conv.csv"
        cfg = write_config(tmp_path, f"""
[run]
command = converge
output = {out}

[converge]
target = wave-residual
profile = coscos
levels = 3
h0 = 0.2
expected_order = 2.0
order_tol = 0.2
""")
        assert main(["converge", "--config", cfg]) == 0
        _, _, body = read_report(out)
        orders = [float(r["observed_order"]) for r in body if r["observed_order"]]
        assert all(abs(o - 2.0) <= 0.2 for o in orders)

    def test_pde_residual_ladder(self, tmp_path):
        out = tmp_path / "conv.csv"
        cfg = write_config(tmp_path, f"""
[run]
command = converge
output = {out}

[data]
psi = gaussian
psi_sigma = 1.0

[converge]
target = pde-residual
dim = 2
points = 3
levels = 3
h0 = 0.2
expected_order = 2.0
order_tol = 0.3
""")
        assert main(["converge", "--config", cfg]) == 0
        _, _, body = read_report(out)
        residuals = [float(r["residual"]) for r in body]
        assert residuals[0] > residuals[1] > residuals[2]

    @staticmethod
    def _pde_ladder(tmp_path, dim, data, t0):
        cfg = write_config(tmp_path, f"""
[run]
command = converge

[data]
{data}

[converge]
target = pde-residual
dim = {dim}
points = 3
levels = 3
h0 = 0.2
t0 = {t0}
""")
        return run(load_config(cfg, "converge", {}))

    def test_pde_residual_ladder_two_gaussians_n2(self, tmp_path):
        report = self._pde_ladder(tmp_path, 2, "phi = gaussian\nphi_sigma = 1.18\n"
                                  "psi = gaussian\npsi_sigma = 1.10", 1.14)
        assert report.passed
        assert report.summary["fitted_order"] >= 1.7

    @pytest.mark.xfail(strict=True, reason="at points = 3 the residual is taken at the "
                       "single interior point, where its h^2 term and the higher-order "
                       "ones cancel near h0 = 0.2 (residual 2.6e-7, then 9.1e-6 at h0 / 2), "
                       "so the ladder is not monotone")
    def test_pde_residual_ladder_gaussian_psi_n3(self, tmp_path):
        report = self._pde_ladder(tmp_path, 3, "psi = gaussian\npsi_sigma = 0.92", 1.25)
        assert report.passed

    def test_expected_order_keeps_the_levels_own_violations(self, tmp_path):
        # level 1 of this ladder is not monotone (see the xfail above); an order off
        # the expected one adds its violation to that one instead of replacing it
        text = ("[run]\ncommand = converge\n\n[data]\npsi = gaussian\npsi_sigma = 0.92\n\n"
                "[converge]\ntarget = pde-residual\ndim = 3\nt0 = 1.25\nh0 = 0.2\n"
                "points = 3\nlevels = 3\n")
        violated = []
        for extra in ("", "expected_order = 4\norder_tol = 0.1\n"):
            out = tmp_path / "conv.csv"
            cfg = write_config(tmp_path, text + extra)
            assert main(["converge", "--config", cfg, "--out", str(out)]) == 1
            violated.append([(row["pass"], row["violated"]) for row in read_report(out)[2]])
        assert violated[0] == [("yes", ""), ("no", "converge.monotone"), ("yes", "")]
        assert violated[1] == [("no", "converge.expected_order"),
                               ("no", "converge.monotone;converge.expected_order"),
                               ("no", "converge.expected_order")]

    def test_identity_ladder_decreases(self, tmp_path):
        out = tmp_path / "conv.csv"
        cfg = write_config(tmp_path, f"""
[run]
command = converge
output = {out}

[converge]
target = odd-identity
dim = 5
xi_norm = 3.0
levels = 3
h0 = 0.1
""")
        assert main(["converge", "--config", cfg]) == 0
        _, _, body = read_report(out)
        residuals = [float(r["residual"]) for r in body]
        assert residuals[0] > residuals[1] > residuals[2]

    @pytest.mark.parametrize("target, dim", [("odd-identity", 5), ("even-identity", 4)])
    def test_identity_ladder_is_the_per_level_records(self, tmp_path, target, dim):
        out = tmp_path / "conv.csv"
        cfg = write_config(tmp_path, f"""
[run]
command = converge
output = {out}

[converge]
target = {target}
dim = {dim}
xi_norm = 2.5
radius = 1.2
levels = 4
h0 = 0.1
""")
        main(["converge", "--config", cfg])
        _, _, body = read_report(out)
        for row in body:
            h = 0.1 / 2 ** int(row["level"])
            spec = RadialDerivativeSpec(1, h, 6)
            alone = identity_records(dim, [1.2], [2.5], [spec]).residual[0]
            assert float(row["h"]) == h
            assert abs(float(row["residual"]) - alone) <= 1e-15

    @pytest.mark.parametrize("target, dim", [("odd-identity", 5), ("even-identity", 4)])
    def test_identity_ladder_reads_the_norm_of_xi(self, tmp_path, target, dim):
        # the identity depends on xi only through |xi|: -2.5 writes the rows of 2.5
        bodies = []
        for xi_norm in (2.5, -2.5):
            out = tmp_path / f"conv{xi_norm}.csv"
            cfg = write_config(tmp_path, f"[run]\ncommand = converge\noutput = {out}\n\n"
                                         f"[converge]\ntarget = {target}\ndim = {dim}\n"
                                         f"xi_norm = {xi_norm}\nlevels = 3\n",
                               name=f"conv{xi_norm}.ini")
            assert main(["converge", "--config", cfg]) == 0
            bodies.append(read_report(out)[2])
        assert bodies[0] == bodies[1] and len(bodies[0]) == 3

    @pytest.mark.parametrize("target, dim", [("odd-identity", 3), ("even-identity", 2)])
    def test_identity_ladder_without_derivative_is_config_error(self, tmp_path, capsys,
                                                                target, dim):
        # m = 0 at n = 2 and 3: the chain is the centre sample, so every level
        # would read the same residual and the ladder could show no order
        cfg = write_config(tmp_path, f"[run]\ncommand = converge\n\n[converge]\n"
                                     f"target = {target}\ndim = {dim}\n")
        assert main(["converge", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "converge.dim" in err

    def test_identity_ladder_takes_quad_nodes(self, tmp_path):
        cfg = write_config(tmp_path, """
[run]
command = converge

[converge]
target = odd-identity
dim = 5
xi_norm = 12
levels = 3
""")
        residuals = []
        for flags in ([], ["--quad-nodes", "16"]):
            out = tmp_path / f"conv{len(flags)}.csv"
            assert main(["converge", "--config", cfg, "--out", str(out)] + flags) in (0, 1)
            residuals.append([float(row["residual"]) for row in read_report(out)[2]])
        assert len(residuals[1]) == 3
        assert residuals[0] != residuals[1]

    def test_saturated_ladder(self, tmp_path):
        out = tmp_path / "conv.csv"
        cfg = write_config(tmp_path, f"""
[run]
command = converge
output = {out}

[converge]
target = wave-residual
profile = quadratic
levels = 3
h0 = 0.2
""")
        assert main(["converge", "--config", cfg]) == 0
        comments, _, body = read_report(out)
        assert all(r["note"] == "saturated" for r in body)

    def test_nan_ladder_fails(self, tmp_path):
        # h0 = 1e-300: h^2 underflows and every residual is 0/0
        out = tmp_path / "conv.csv"
        cfg = write_config(tmp_path, f"""
[run]
command = converge
output = {out}

[converge]
target = wave-residual
h0 = 1e-300
""")
        assert main(["converge", "--config", cfg]) == 1
        _, _, body = read_report(out)
        assert all(r["residual"] == "nan" and r["pass"] == "no" for r in body)
        assert all("converge.finite" in r["violated"] for r in body)

    def test_too_few_levels(self, tmp_path):
        cfg = write_config(tmp_path, """
[run]
command = converge

[converge]
target = wave-residual
levels = 2
""")
        assert main(["converge", "--config", cfg]) == 2



def csv_module_report(report) -> str:
    """The report as csv.writer with a "\\n" line end writes its cells through _fmt."""
    out = io.StringIO()
    out.writelines(f"# {key}={report.provenance[key]}\n" for key in sorted(report.provenance))
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(report.columns)
    writer.writerows([cli._fmt(cell) for cell in row]
                     for row in zip(*map(report.column, report.columns)))
    return out.getvalue()


class TestReportBytes:
    """The columnar writer against the csv module: the same bytes for every command."""

    # each text goes on under [run] command = ...: leading keys are [run] keys
    CONFIGS = {
        "solve-means": ("solve", "dim = 3\nseed = 5\n[data]\nphi = gaussian\n"
                        "psi = gaussian\npsi_sigma = 0.7\n[solve]\ntimes = 0.5, 1.5\n"
                        "probe_count = 3\nexpect_value = 0.1\nexpect_tol = 0.05\n"),
        "solve-spectral": ("solve", "dim = 2\n[data]\npsi = gaussian\n[solve]\n"
                           "method = spectral\ngrid_points = 16\ngrid_half_width = 10\n"
                           "times = 0.5, 1.0\nprobes = 0 0, 0.5 -1\n"),
        "verify-identities": ("verify-identities", "seed = 3\n[identities]\n"
                              "dims = 2, 3, 5\ncount = 12\n"),
        "verify-reduction": ("verify-reduction", "[reduction]\ndims = 3, 4\nradii = 0.5, 2\n"),
        "verify-reduction-mc": ("verify-reduction", "seed = 2\n[reduction]\ndims = 3\n"
                                "radii = 1\nfunctions = one, cosine\nmc_samples = 500\n"),
        "constants": ("constants", "[constants]\ndims = 2, 3, 4, 5\n"),
        "converge-saturated": ("converge", "[converge]\nprofile = quadratic\n"),
        "converge-override": ("converge", "[data]\npsi = gaussian\npsi_sigma = 0.92\n"
                              "[converge]\ntarget = pde-residual\ndim = 3\nt0 = 1.25\n"
                              "points = 3\nexpected_order = 4\norder_tol = 0.1\n"),
    }

    @pytest.mark.parametrize("case", list(CONFIGS))
    def test_command_report_equals_the_csv_module(self, tmp_path, case):
        command, text = self.CONFIGS[case]
        out = tmp_path / "report.csv"
        cfg = write_config(tmp_path, f"[run]\ncommand = {command}\noutput = {out}\n" + text)
        report = run(load_config(cfg, command, {}))
        assert len(report.column("pass")) > 1
        with open(out, newline="") as fh:
            assert fh.read() == csv_module_report(report)

    def test_command_reports_cover_none_and_combined_cells(self, tmp_path):
        cells = {}
        for case in ("verify-reduction", "converge-saturated", "converge-override"):
            command, text = self.CONFIGS[case]
            cfg = write_config(tmp_path, f"[run]\ncommand = {command}\n" + text)
            report = run(load_config(cfg, command, {}))
            cells[case] = {name: report.column(name) for name in report.columns}
        assert set(cells["verify-reduction"]["mc_z"]) == {None}
        assert cells["converge-saturated"]["ratio"][0] is None
        assert set(cells["converge-saturated"]["note"]) == {"saturated"}
        assert "converge.monotone;converge.expected_order" in cells["converge-override"]["violated"]

    def test_hand_built_columns(self, tmp_path):
        values = [None, True, np.bool_(False), np.float64(0.1), 7, np.int64(-3), -0.0,
                  math.nan, math.inf, -math.inf, 5e-324, "a,b", 'say "hi"', "two\nlines", ""]
        report = cli.Report("x", ["mixed", "floats", "shared", "quoted", "absent", "pass",
                                  "text"])
        p = len(values)
        report.extend([True] * p, mixed=values, floats=[0.1 * k for k in range(p)],
                      shared=np.float64(2.5), quoted='x, "y"', text=values[::-1])
        report.extend([False, True], mixed=[1.5, 2.5], floats=[math.nan, -0.0], shared=None,
                      quoted="plain", text="z")
        report.provenance["seed"] = 4
        out = tmp_path / "hand.csv"
        report.write_csv(out)
        with open(out, newline="") as fh:
            text = fh.read()
        assert text == csv_module_report(report)
        rows = list(csv.reader(io.StringIO(text.split("\n", 1)[1])))
        assert [len(row) for row in rows] == [7] * (p + 3)
        assert [row[0] for row in rows[1:p + 1]] == [cli._fmt(v) for v in values]
        assert report.column("absent") == [None] * (p + 2)
        assert report.column("shared") == [2.5] * p + [None] * 2
        assert not report.passed


class TestConfigValidation:
    def test_offending_keys_listed(self, tmp_path):
        cfg = write_config(tmp_path, """
[run]
command = solve
dim = zzz

[solve]
times = -1
""")
        with pytest.raises(ConfigError) as err:
            run(load_config(cfg, "solve", {}))
        assert "run.dim" in err.value.keys
        assert main(["solve", "--config", cfg]) == 2

    def test_command_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, """
[run]
command = constants
""")
        assert main(["solve", "--config", cfg]) == 2

    def test_nonpositive_tolerance_rejected(self, tmp_path):
        cfg = write_config(tmp_path, """
[run]
command = constants

[constants]
dims = 3
tolerance = -1e-10
""")
        assert main(["constants", "--config", cfg]) == 2
        assert main(["constants", "--config", cfg, "--tol", "-1"]) == 2

    def test_unknown_field_kind(self, tmp_path):
        cfg = write_config(tmp_path, """
[run]
command = solve
dim = 2

[data]
psi = vortex

[solve]
times = 1.0
""")
        assert main(["solve", "--config", cfg]) == 2

    def test_empty_dims_rejected(self, tmp_path):
        cfg = write_config(tmp_path, """
[run]
command = verify-reduction

[reduction]
dims =
""")
        assert main(["verify-reduction", "--config", cfg]) == 2

    def test_unknown_reduction_function(self, tmp_path):
        cfg = write_config(tmp_path, """
[run]
command = verify-reduction

[reduction]
functions = one, sawtooth
""")
        assert main(["verify-reduction", "--config", cfg]) == 2

    def test_non_numeric_probe(self, tmp_path, capsys):
        cfg = write_config(tmp_path, """
[run]
command = solve
dim = 3

[data]
psi = constant

[solve]
probes = 0 0 x
""")
        assert main(["solve", "--config", cfg]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, settings, key", [
        ("solve", "dim = 3\n[data]\nphi = gaussian\nphi_amplitude = inf", "data.phi_amplitude"),
        ("converge", "[converge]\ntarget = odd-identity\ndim = 5\nradius = -1",
         "converge.radius"),
        ("verify-identities", "[identities]\nmax_product = nan", "identities.max_product"),
        ("solve", "dim = 3\n[data]\npsi = constant\n[solve]\nprobes = 0 inf 0", "solve.probes"),
        ("converge", "[data]\npsi = gaussian\n[converge]\ntarget = pde-residual\nt0 = 0.1\n"
         "h0 = 0.2", "converge.t0"),
        ("converge", "[converge]\npoints = 2", "converge.points"),
        ("converge", "[converge]\ntarget = odd-identity\ndim = 1", "converge.dim"),
        ("converge", "[converge]\nh0 = -0.2", "converge.h0"),
        ("converge", "[converge]\nh0 = 0", "converge.h0"),
        ("constants", "[constants]\ndims = 3\nradius = -1", "constants.radius"),
        ("constants", "[constants]\ndims = 3\nradius = 0", "constants.radius"),
        ("solve", "dim = 3\nseed = -1\n[data]\npsi = constant", "run.seed"),
        ("constants", "quad_nodes = 0\n[constants]\ndims = 3", "run.quad_nodes"),
        ("constants", "quad_nodes = -3\n[constants]\ndims = 3", "run.quad_nodes"),
        ("solve", "dim = 3\n[data]\npsi = constant\n[solve]\nprobe_count = 0",
         "solve.probe_count"),
        ("verify-reduction", "[reduction]\ndims = 3\nmc_samples = -5", "reduction.mc_samples"),
        ("verify-reduction", "[reduction]\ndims = 3\nmc_sigmas = -1", "reduction.mc_sigmas"),
        ("verify-identities", "[identities]\ncount = 0", "identities.count"),
        ("solve", "dim = 3\n[data]\npsi = gaussian\npsi_sigam = 0.1", "data.psi_sigam"),
        ("solve", "dim = 3\n[data]\npsi = constant\n[solve]\nmethod = dalembert",
         "solve.method"),
    ], ids=["infinite_amplitude", "negative_radius", "nan_max_product", "infinite_probe",
            "t0_below_h0", "two_points", "odd_identity_dim_1", "negative_h0", "zero_h0",
            "negative_constants_radius", "zero_constants_radius", "negative_seed",
            "zero_quad_nodes", "negative_quad_nodes", "zero_probe_count",
            "negative_mc_samples", "negative_mc_sigmas", "zero_identity_count",
            "misspelt_data_key", "dalembert_method"])
    def test_non_finite_or_nonpositive_float(self, tmp_path, capsys, command, settings, key):
        cfg = write_config(tmp_path, f"[run]\ncommand = {command}\n{settings}\n")
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert key in err

    @pytest.mark.parametrize("data, solve, key", [
        ("", "method = spectral\ngrid_points = 1", "solve.grid_points"),
        ("", "method = spectral\ngrid_half_width = -12", "solve.grid_half_width"),
        ("psi = gaussian\npsi_sigma = 1e-200", "", "data.psi"),
    ], ids=["one_grid_point", "negative_half_width", "underflowing_sigma"])
    def test_degenerate_grid_or_width(self, tmp_path, capsys, data, solve, key):
        cfg = write_config(tmp_path, "[run]\ncommand = solve\ndim = 2\n"
                           f"[data]\nphi = gaussian\n{data}\n[solve]\n{solve}\n")
        assert main(["solve", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert key in err

    def test_probe_count_above_the_cap(self, tmp_path, capsys, monkeypatch):
        # every pair goes into one batch, so the count is capped; refused before
        # any probe is drawn or any data built
        def refuse(*args, **kwargs):
            raise AssertionError("nothing may be built for too many probes")

        monkeypatch.setattr(cli, "_run_solve", refuse)
        text = "[run]\ncommand = solve\ndim = 3\n[data]\npsi = gaussian\n[solve]\nprobe_count = "
        cfg = write_config(tmp_path, text + f"{cli.MAX_PAIRS + 1}\n")
        assert main(["solve", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "solve.probe_count" in err
        cfg = write_config(tmp_path, text + f"{cli.MAX_PAIRS}\n", name="at-cap.ini")
        assert load_config(cfg, "solve", {})["solve"]["probe_count"] == 2**20

    def test_identity_count_above_the_cap(self, tmp_path, capsys, monkeypatch):
        # each dimension's draws are one array batch, so count x dims is capped
        # as solve's pairs are, and refused before any draw
        def refuse(*args, **kwargs):
            raise AssertionError("no draw may be made for too many rows")

        monkeypatch.setattr(cli, "identity_sweep", refuse)
        text = "[run]\ncommand = verify-identities\n[identities]\ndims = 3, 5\ncount = "
        cfg = write_config(tmp_path, text + f"{cli.MAX_PAIRS // 2 + 1}\n")
        assert main(["verify-identities", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "identities.count" in err
        cfg = write_config(tmp_path, text + f"{cli.MAX_PAIRS // 2}\n", name="at-cap.ini")
        assert load_config(cfg, "verify-identities", {})["identities"]["count"] == 2**19

    @pytest.mark.parametrize("probes, key", [
        ("probe_count = 524289\ntimes = 1.0, 2.0", "solve.probe_count"),
        ("probes = 0 0 0, 1 0 0, 0 1 0\ntimes = 1.0, 2.0", "solve.probes"),
    ], ids=["random", "explicit"])
    def test_pairs_above_the_cap(self, tmp_path, capsys, monkeypatch, probes, key):
        # the cap bounds probes x times, the pairs of the one batch: 2^19 + 1
        # random probes at two times, or three explicit ones at two times under
        # a cap of 4, are refused before anything is built; the cap itself loads
        def refuse(*args, **kwargs):
            raise AssertionError("nothing may be built for too many pairs")

        monkeypatch.setattr(cli, "_run_solve", refuse)
        if key == "solve.probes":
            monkeypatch.setattr(cli, "MAX_PAIRS", 4)
        text = "[run]\ncommand = solve\ndim = 3\n[data]\npsi = gaussian\n[solve]\n"
        cfg = write_config(tmp_path, text + probes + "\n")
        assert main(["solve", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err and "solve.times" in err
        at_cap = probes.replace("524289", "524288").replace(", 0 1 0", "")
        cfg = write_config(tmp_path, text + at_cap + "\n", name="at-cap.ini")
        assert len(load_config(cfg, "solve", {})["solve"]["times"]) == 2

    def test_spectral_grid_above_the_point_cap(self, tmp_path, capsys, monkeypatch):
        # 10^15 points would end in an allocation error; refused before any
        # grid, field sample or spectrum is made
        def refuse(*args, **kwargs):
            raise AssertionError("nothing may be built for an oversized grid")

        for name in ("GridSpec", "evolution_state", "_problem"):
            monkeypatch.setattr(cli, name, refuse)
        cfg = write_config(tmp_path, "[run]\ncommand = solve\ndim = 3\n[data]\npsi = gaussian\n"
                           "[solve]\nmethod = spectral\ngrid_points = 100000\n")
        assert main(["solve", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "solve.grid_points" in err

    @pytest.mark.parametrize("sigma, settings", [
        (1.0, "grid_points = 256\ngrid_half_width = 3\ntimes = 1.0"),
        (0.8, "grid_points = 32\ngrid_half_width = 12\ntimes = 0.5, 6.0"),
    ], ids=["every_time", "last_time_only"])
    def test_spectral_wrap_refused_before_sampling(self, tmp_path, capsys, monkeypatch,
                                                   sigma, settings):
        # the wrap-around guard runs for the largest time before the lattice
        # is sampled, so a refused config never samples or transforms it
        def refuse(*args, **kwargs):
            raise AssertionError("the lattice may not be sampled for a refused config")

        monkeypatch.setattr(solvers.GridSpec, "sample", refuse)
        cfg = write_config(tmp_path, "[run]\ncommand = solve\ndim = 3\n[data]\npsi = gaussian\n"
                           f"psi_sigma = {sigma}\n[solve]\nmethod = spectral\nprobes = 0 0 0\n"
                           f"{settings}\n")
        assert main(["solve", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "solve.grid_half_width" in err

    @pytest.mark.parametrize("command, settings, key", [
        ("solve", "dim = 20\n[data]\npsi = constant", None),
        ("constants", "[constants]\ndims = 20", None),
        ("verify-identities", "[identities]\ndims = 20", None),
        ("verify-reduction", "[reduction]\ndims = 20", None),
        # even n = 12 is within MAX_DIMENSION, but its descent to n + 1 is not
        ("constants", "[constants]\ndims = 3, 12", "constants.dims"),
        ("verify-identities", "[identities]\ndims = 3, 12", "identities.dims"),
        ("converge", "[converge]\ntarget = even-identity\ndim = 12", "converge.dim"),
    ], ids=["solve", "constants", "identities", "reduction", "constants-even-12",
            "identities-even-12", "converge-even-12"])
    def test_dimension_above_maximum(self, tmp_path, capsys, command, settings, key):
        cfg = write_config(tmp_path, f"[run]\ncommand = {command}\n{settings}\n")
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert key is None or ("up to 10" in err and key in err)

    def test_non_numeric_rule_export_dim(self, tmp_path, capsys):
        cfg = write_config(tmp_path, f"""
[run]
command = constants

[constants]
dims = 3
export_rule_dim = three
export_rule_path = {tmp_path / "rule.csv"}
""")
        assert main(["constants", "--config", cfg]) == 2
        assert "constants.export_rule_dim" in capsys.readouterr().err

    def test_means_solve_even_dimension_12(self, tmp_path, capsys):
        cfg = write_config(tmp_path, """
[run]
command = solve
dim = 12

[data]
psi = constant
""")
        assert main(["solve", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "up to 10" in err

    def test_quad_nodes_override_recorded(self, tmp_path):
        out = tmp_path / "ident.csv"
        cfg = write_config(tmp_path, f"""
[run]
command = verify-identities
seed = 9
output = {out}

[identities]
dims = 3
count = 3
""")
        assert main(["verify-identities", "--config", cfg, "--quad-nodes", "96"]) == 0
        _, _, body = read_report(out)
        assert all(int(row["nodes"]) == 96 for row in body)

    def test_parser_surface(self):
        parser = build_parser()
        args = parser.parse_args(["constants", "--config", "x.ini", "--seed", "7",
                                  "--quad-nodes", "32", "--tol", "1e-8"])
        assert args.command == "constants"
        assert args.seed == 7
        assert args.quad_nodes == 32
        assert args.tol == 1e-8
        assert "verify-identities" in build_parser().format_help()

    def test_parser_built_once_keeps_no_override(self, tmp_path):
        # main's parser is built once per process; a second call in the same
        # process without --seed reports the config's seed, not the first call's
        assert build_parser() is build_parser()
        out = tmp_path / "constants.csv"
        cfg = write_config(tmp_path, f"[run]\ncommand = constants\nseed = 3\noutput = {out}\n"
                                     "[constants]\ndims = 3\n")
        seeds = []
        for flags in (["--seed", "7"], []):
            assert main(["constants", "--config", cfg, *flags]) == 0
            comments, _, _ = read_report(out)
            seeds += [line for line in comments if line.startswith("# seed=")]
        assert seeds == ["# seed=7", "# seed=3"]

    @pytest.mark.parametrize("flag, value", [
        ("--quad-nodes", "0"), ("--quad-nodes", "-3"), ("--seed", "-1"), ("--tol", "nan"),
    ])
    def test_invalid_override(self, tmp_path, capsys, flag, value):
        cfg = write_config(tmp_path, "[run]\ncommand = constants\n[constants]\ndims = 3\n")
        assert main(["constants", "--config", cfg, flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert flag in err

    @pytest.mark.parametrize("command, setting, flags, key", [
        ("solve", "", ["--tol", "10"], "--tol"),
        ("solve", "", ["--quad-nodes", "32"], "--quad-nodes"),
        ("solve", "quad_nodes = 32\n", [], "run.quad_nodes"),
        ("converge", "", ["--tol", "100"], "--tol"),
    ], ids=["solve_tol", "solve_quad_nodes", "solve_quad_nodes_key", "converge_tol"])
    def test_unread_override_or_key(self, tmp_path, capsys, command, setting, flags, key):
        # neither command has a tolerance key, and solve reads no quad_nodes:
        # an override that would do nothing (here on a failing check it might
        # seem to loosen) is refused as an unread key is
        body = ("dim = 3\n[data]\npsi = constant\n[solve]\nprobes = 0 0 0\n"
                "expect_value = 2.0\nexpect_tol = 1e-9\n" if command == "solve"
                else "[converge]\nexpected_order = 5\n")
        cfg = write_config(tmp_path, f"[run]\ncommand = {command}\n{setting}{body}")
        assert main([command, "--config", cfg, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert key in err

    @pytest.mark.parametrize("setting, flags, key", [
        ("", ["--quad-nodes", "3"], "--quad-nodes"),
        ("quad_nodes = 5\n", [], "run.quad_nodes"),
    ], ids=["override", "config_key"])
    @pytest.mark.parametrize("target", ["wave-residual", "pde-residual"])
    def test_residual_ladder_refuses_quad_nodes(self, tmp_path, capsys, target, setting,
                                                flags, key):
        # only the identity ladders build a quadrature rule; these two
        # targets would run unchanged, so the node count is an unread key
        cfg = write_config(tmp_path, f"[run]\ncommand = converge\n{setting}[data]\n"
                                     f"psi = gaussian\n[converge]\ntarget = {target}\n")
        assert main(["converge", "--config", cfg, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert key in err

    @pytest.mark.parametrize("setting, flags, key", [
        (f"quad_nodes = {MAX_OSC_NODES + 1}\n", [], "run.quad_nodes"),
        ("", ["--quad-nodes", "10000000"], "--quad-nodes"),
    ], ids=["config_key", "override"])
    def test_quad_nodes_above_cap(self, tmp_path, capsys, monkeypatch, setting, flags, key):
        # a Gauss rule costs O(count^2) work: the cap is a config error,
        # raised before any rule is built
        def refuse(count, lam):
            raise AssertionError(f"a {count}-node Gauss rule was built")

        monkeypatch.setattr(geometry, "_gauss_gegenbauer", refuse)
        cfg = write_config(tmp_path, f"[run]\ncommand = verify-reduction\n{setting}"
                                     "[reduction]\ndims = 3\n")
        assert main(["verify-reduction", "--config", cfg, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert key in err

    def test_help_lists_every_key_and_column(self):
        text = build_parser().format_help()
        for name, (_, columns, sections) in COMMANDS.items():
            block = re.search(rf"^{re.escape(name)}:\n((?:  .*\n?)+)", text, re.M).group(1)
            listed = re.search(r"columns: (.*?)(?=\n  \S|\Z)", block, re.S).group(1)
            assert listed.replace(",", " ").split() == columns.split()
            listed = dict(re.findall(r"\[(\S+)\] (.*?)(?=\n  \S|\Z)", block, re.S))
            assert listed.keys() == sections.keys()
            for section, keys in sections.items():
                entries = " ".join(listed[section].split()).split("; ")
                assert [re.match(r"\w+", e).group() for e in entries] == list(keys)


class TestErrorExits:
    @pytest.mark.parametrize("command, settings", [
        ("constants", "[constants]\ndims = 4\nradius = 1e-300"),
        ("constants", "[constants]\ndims = 6\nradius = 1e-300"),
        ("solve", "dim = 3\n[data]\npsi = gaussian\npsi_sigma = 1e-150\n[solve]\nprobes = 0 0 0"),
        ("solve", "dim = 4\n[data]\npsi = gaussian\npsi_sigma = 1e-150\n[solve]\n"
                  "probes = 0 0 0 0"),
        ("solve", "dim = 7\n[data]\npsi = gaussian\n[solve]\ntimes = 1e-150\n"
                  "probes = 0 0 0 0 0 0 0"),
        ("verify-identities", "[identities]\ndims = 3\nmax_product = 1e300"),
        ("converge", "[converge]\ntarget = odd-identity\nradius = 1e300"),
        ("solve", "dim = 3\n[data]\npsi = gaussian\n[solve]\ntimes = 5e-324\nprobes = 0 0 0"),
    ], ids=["chain_underflow", "chain_overflow", "odd_rule_beyond_cap", "even_rule_beyond_cap",
            "tiny_time", "oscillatory_rule_beyond_cap", "identity_radius_beyond_cap",
            "subnormal_time"])
    def test_solver_error_exits_one(self, tmp_path, capsys, command, settings):
        cfg = write_config(tmp_path, f"[run]\ncommand = {command}\n{settings}\n")
        assert main([command, "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_velocity_overflowing_at_t_exits_one(self, tmp_path, capsys):
        # at n = 3 psi is summed on the sphere of radius t alone, the one sample its
        # chain weighs; data that overflow there are still refused
        cfg = write_config(tmp_path, "[run]\ncommand = solve\ndim = 3\n[data]\npsi = harmonic\n"
                                     "psi_poly = cubic\npsi_amplitude = 1e300\n[solve]\n"
                                     "probes = 1e3 1e3 1e3\n")
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert main(["solve", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("error: g returned non-finite values")


#: one small config per command (and converge target) that the fuzz mutates
FUZZ_BASES = {
    "constants": {"constants": {"dims": "3, 6", "radius": "1.0", "tolerance": "1e-10"}},
    "verify-reduction": {"reduction": {"dims": "3", "radii": "1", "functions": "square",
                                       "mc_samples": "100", "mc_sigmas": "3.0",
                                       "tolerance": "1e-10"}},
    "verify-identities": {"run": {"quad_nodes": "32"},
                          "identities": {"dims": "3, 4", "count": "3", "max_product": "20.0"}},
    "solve": {"run": {"dim": "5"},
              "data": {"phi": "bump", "phi_radius": "1.0", "psi": "gaussian", "psi_sigma": "1.0"},
              "solve": {"times": "1.0", "probes": "0 0 0 0 0", "expect_value": "0.5",
                        "expect_tol": "10"}},
    "spectral": {"run": {"dim": "2"},
                 "data": {"psi": "gaussian", "psi_sigma": "0.5"},
                 "solve": {"method": "spectral", "times": "0.5", "grid_points": "32",
                           "grid_half_width": "8.0", "probe_count": "2", "probe_radius": "1.0"}},
    "wave-residual": {"converge": {"target": "wave-residual", "profile": "coscos", "levels": "3",
                                   "h0": "0.2", "points": "9", "expected_order": "2.0",
                                   "order_tol": "0.5"}},
    "pde-residual": {"data": {"psi": "gaussian", "psi_sigma": "1.0"},
                     "converge": {"target": "pde-residual", "dim": "1", "points": "3",
                                  "levels": "3", "h0": "0.2", "t0": "1.0"}},
    "odd-identity": {"converge": {"target": "odd-identity", "dim": "5", "xi_norm": "3.0",
                                  "levels": "3", "h0": "0.1", "radius": "1.0"}},
}

#: values a mutation writes; no large counts or grids
FUZZ_POOL = ["", "0", "-1", "nan", "inf", "1e-300", "1e-150", "13", "abc", "1, 2"]


class TestConfigFuzz:
    def test_mutated_configs_exit_0_1_or_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # an output path mutated to "13" lands here
        rng = np.random.default_rng(7)
        codes = collections.Counter()
        for draw in range(300):
            base = sorted(FUZZ_BASES)[rng.integers(len(FUZZ_BASES))]
            command = base if base in COMMANDS else "solve" if base == "spectral" else "converge"
            sections = {"run": {"command": command, "seed": "3"}}
            for section, keys in FUZZ_BASES[base].items():
                sections.setdefault(section, {}).update(keys)
            slots = [(s, k) for s in sections for k in sections[s] if k != "command"]
            for i in rng.choice(len(slots), size=rng.integers(1, 3), replace=False):
                section, key = slots[i]
                sections[section][key] = FUZZ_POOL[rng.integers(len(FUZZ_POOL))]
            text = "".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                           for s, keys in sections.items())
            cfg = write_config(tmp_path, text)
            try:
                code = main([command, "--config", cfg])
            except Exception as exc:  # name the config that broke through
                pytest.fail(f"draw {draw} raised {type(exc).__name__}: {exc}\n{text}")
            assert code in (0, 1, 2), text
            codes[code] += 1
        capsys.readouterr()
        assert set(codes) == {0, 1, 2}
