"""Configuration-driven entry point.

Config files are plain INI: ``key = value`` lines under bracketed section
headers, lists comma-separated. Every command writes a CSV report whose rows
are deterministic for a fixed config + seed (no timestamps anywhere), with
provenance (config hash, seed, version) in leading ``#`` comment lines.

Commands and their fixed CSV column orders:

constants:
    n, parity, surface_area, ball_volume, constant_product,
    constant_normalization, rel_diff, tol, pass, violated
verify-reduction:
    n, R, function, target, quadrature, closed_form, rel_err,
    mc_value, mc_sigma, mc_z, tol, pass, violated
verify-identities:
    n, R, xi_norm, residual_real, residual_imag, h, nodes, tol, pass, violated
solve:
    x1..xn, t, u, method, error_estimate, pass, violated
converge:
    level, h, residual, ratio, observed_order, note, pass, violated
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import ConfigError, DomainSizeError
from .fields import ScalarField, make_field
from .geometry import (
    MAX_DESCENT_DIMENSION,
    MAX_DIMENSION,
    Dimension,
    solution_constant,
    sphere_quadrature,
    unit_ball_volume,
    unit_sphere_area,
    reduce_ball_integral,
    reduce_sphere_integral,
)
from .kernels import (
    KernelQuery,
    identity_record,
    identity_sweep,
    normalization_constant,
)
from .montecarlo import ball_monte_carlo, sphere_monte_carlo
from .radial import RadialDerivativeSpec
from .solvers import (
    CauchyProblem,
    GridSpec,
    SolutionSample,
    solve_point,
    spectral_solve,
    spectral_state,
    wave_residual,
)

COMMANDS = ("solve", "verify-identities", "verify-reduction", "constants", "converge")


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    command: str
    seed: int
    output: str | None
    quad_nodes: int | None
    tol_override: float | None
    sections: configparser.ConfigParser
    sha256: str

    def get(self, section: str, key: str, default=None) -> str | None:
        if self.sections.has_option(section, key):
            return self.sections.get(section, key)
        return default

    def parse(self, section: str, key: str, default, kind, errors: list[str], valid=None):
        """section.key (or default) through _parse_scalar; None when both are absent."""
        raw = self.get(section, key, default)
        return None if raw is None else _parse_scalar(raw, kind, section, key, errors, valid)


def _parse_scalar(raw: str, kind, section: str, key: str, errors: list[str], valid=None):
    """kind(raw); when the cast fails, gives a non-finite float, or valid(value)
    is false, section.key goes to errors and the result is None."""
    try:
        value = kind(raw)
    except (TypeError, ValueError):
        value = None
    if isinstance(value, float) and not math.isfinite(value):
        value = None
    if value is None or valid is not None and not valid(value):
        errors.append(f"{section}.{key}")
        return None
    return value


def _ints(raw: str) -> list[int]:
    return [int(part) for part in raw.split(",") if part.strip()]


def _floats(raw: str) -> list[float]:
    values = [float(part) for part in raw.split(",") if part.strip()]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"non-finite entry in {raw!r}")
    return values


def _positive(value) -> bool:
    return value > 0


def _dimension(value) -> bool:
    return 1 <= value <= MAX_DIMENSION


def _check_means_dimension(n: int, key: str) -> None:
    """Even n reaches the means solvers by descent, on a rule on S^n."""
    if n % 2 == 0 and n > MAX_DESCENT_DIMENSION:
        raise ConfigError(f"means solvers cover even dimensions up to {MAX_DESCENT_DIMENSION} "
                          f"(descent needs a sphere rule in R^{n + 1}), got {n}", keys=[key])


def load_config(path: str, command: str, overrides: dict) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.optionxform = str
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    parser.read_string(text)
    errors: list[str] = []

    cfg_command = parser.get("run", "command", fallback=command)
    if cfg_command != command:
        raise ConfigError(
            f"config says command = {cfg_command!r} but {command!r} was requested",
            keys=["run.command"],
        )
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}", keys=["run.command"])

    seed = overrides.get("seed")
    if seed is None:
        seed = _parse_scalar(parser.get("run", "seed", fallback="0"), int, "run", "seed", errors)
    output = overrides.get("out") or parser.get("run", "output", fallback=None)
    quad_nodes = overrides.get("quad_nodes")
    if quad_nodes is None and parser.has_option("run", "quad_nodes"):
        quad_nodes = _parse_scalar(parser.get("run", "quad_nodes"), int, "run", "quad_nodes", errors)
    tol_override = overrides.get("tol")
    if tol_override is not None and tol_override <= 0:
        raise ConfigError("tolerance override must be positive", keys=["tol"])
    if errors:
        raise ConfigError("invalid run settings", keys=errors)
    return RunConfig(
        command=command,
        seed=int(seed),
        output=output,
        quad_nodes=quad_nodes,
        tol_override=tol_override,
        sections=parser,
        sha256=hashlib.sha256(text.encode()).hexdigest(),
    )


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "yes" if value else "no"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


@dataclass
class Report:
    command: str
    columns: list[str]
    rows: list[list] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        if not self.rows:
            return False
        flag = self.columns.index("pass")
        return all(bool(row[flag]) for row in self.rows)

    def add(self, passed: bool, **cells) -> None:
        cells["pass"] = bool(passed)
        self.rows.append([cells.get(c) for c in self.columns])

    def write_csv(self, path) -> None:
        import csv as _csv

        with open(path, "w", newline="") as fh:
            for key in sorted(self.provenance):
                fh.write(f"# {key}={self.provenance[key]}\n")
            writer = _csv.writer(fh, lineterminator="\n")
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow([_fmt(cell) for cell in row])


def _finish(report: Report, config: RunConfig) -> Report:
    report.provenance.update(
        command=config.command,
        config_sha256=config.sha256,
        seed=config.seed,
        version=__version__,
    )
    failures = sum(1 for row in report.rows if not row[report.columns.index("pass")])
    report.summary.update(cases=len(report.rows), failures=failures)
    if config.output:
        report.write_csv(config.output)
    return report


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


#: numeric parameters of each field kind, read as data.<role>_<key>; center is a list
_FIELD_KEYS = {
    "gaussian": ("sigma", "amplitude", "center"),
    "bump": ("radius", "sharpness", "amplitude", "center"),
    "harmonic": ("amplitude", "offset"),
    "constant": ("value",),
    "zero": (),
}


def _field_from_config(config: RunConfig, role: str, dim: int, errors: list[str]) -> ScalarField:
    kind = config.get("data", role, "zero")
    if kind not in _FIELD_KEYS:
        errors.append(f"data.{role}")
        return make_field("zero", dim)
    params: dict = {"value": 1.0} if kind == "constant" else {}
    if kind == "harmonic" and config.get("data", f"{role}_poly"):
        params["name"] = config.get("data", f"{role}_poly")
    for key in _FIELD_KEYS[kind]:
        value = config.parse("data", f"{role}_{key}", None,
                             _floats if key == "center" else float, errors)
        if value is not None:
            params[key] = value
    try:
        return make_field(kind, dim, **params)
    except (TypeError, ValueError):
        errors.append(f"data.{role}")
        return make_field("zero", dim)


def _probes(config: RunConfig, section: str, dim: int, rng: np.random.Generator,
            errors: list[str]) -> list[np.ndarray]:
    raw = config.get(section, "probes", "random")
    if raw.strip() == "random":
        count = config.parse(section, "probe_count", "5", int, errors) or 5
        radius = config.parse(section, "probe_radius", "1.0", float, errors) or 1.0
        return [rng.uniform(-radius, radius, size=dim) for _ in range(count)]
    probes = []
    for chunk in raw.split(","):
        comps = chunk.split()
        if len(comps) != dim:
            errors.append(f"{section}.probes")
            return []
        try:
            probes.append(np.array(_floats(",".join(comps))))
        except ValueError:
            errors.append(f"{section}.probes")
            return []
    return probes


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _run_constants(config: RunConfig) -> Report:
    errors: list[str] = []
    dims = config.parse("constants", "dims", "2, 3, 4, 5, 6, 7", _ints, errors) or []
    tol = config.tol_override or config.parse("constants", "tolerance", "1e-10", float, errors,
                                              _positive)
    radius = config.parse("constants", "radius", "1.0", float, errors)
    rule_dim = config.parse("constants", "export_rule_dim", None, int, errors, _dimension)
    if errors or not dims or any(not 2 <= d <= MAX_DIMENSION for d in dims):
        raise ConfigError("invalid constants settings",
                          keys=errors or ["constants.dims"])

    report = Report(config.command, [
        "n", "parity", "surface_area", "ball_volume", "constant_product",
        "constant_normalization", "rel_diff", "tol", "pass", "violated",
    ])
    for n in dims:
        product = solution_constant(n)
        recovered = normalization_constant(n, radius=radius,
                                           base_nodes=config.quad_nodes or 64)
        rel = abs(recovered - product) / abs(product)
        ok = rel <= tol
        report.add(ok, n=n, parity=Dimension(n).parity, surface_area=unit_sphere_area(n),
                   ball_volume=unit_ball_volume(n), constant_product=product,
                   constant_normalization=recovered, rel_diff=rel, tol=tol,
                   violated="" if ok else "constants.tolerance")
    report.summary["max_rel_diff"] = max(row[6] for row in report.rows)

    rule_path = config.get("constants", "export_rule_path")
    if rule_dim and rule_path:
        sphere_quadrature(rule_dim).to_csv(rule_path)
    return report


_REDUCTION_FUNCTIONS = {
    "one": lambda s: np.ones_like(s),
    "square": lambda s: s * s,
    "cosine": np.cos,
}


def _reduction_closed_form(name: str, radius: float, n: int, target: str) -> float:
    from scipy.special import jv

    omega = unit_sphere_area(n)
    if name == "one":
        return unit_ball_volume(n) * radius**n if target == "ball" else omega * radius ** (n - 1)
    if name == "square":
        if target == "ball":
            return omega * radius ** (n + 2) / (n * (n + 2))
        return omega * radius ** (n + 1) / n
    if name == "cosine":
        prefix = unit_sphere_area(n - 1) * math.sqrt(math.pi) * math.gamma((n - 1) / 2.0)
        if target == "ball":
            return prefix * 2.0 ** ((n - 2) / 2.0) * radius ** (n / 2.0) * jv(n / 2.0, radius)
        return (prefix * radius ** (n - 1) * (2.0 / radius) ** ((n - 2) / 2.0)
                * jv((n - 2) / 2.0, radius))
    raise ConfigError(f"unknown reduction function {name!r}", keys=["reduction.functions"])


def _run_reduction(config: RunConfig) -> Report:
    errors: list[str] = []
    dims = config.parse("reduction", "dims", "3, 4, 5, 7", _ints, errors) or []
    radii = config.parse("reduction", "radii", "0.5, 1, 2", _floats, errors) or []
    names = [s.strip() for s in config.get("reduction", "functions", "one, square, cosine").split(",")]
    tol = config.tol_override or config.parse("reduction", "tolerance", "1e-10", float, errors,
                                              _positive)
    mc_samples = config.parse("reduction", "mc_samples", "0", int, errors)
    mc_sigmas = config.parse("reduction", "mc_sigmas", "3.0", float, errors)
    bad = [name for name in names if name not in _REDUCTION_FUNCTIONS]
    if errors or bad or not dims or not radii or any(not 3 <= d <= MAX_DIMENSION for d in dims) \
            or any(r <= 0 for r in radii):
        raise ConfigError("invalid reduction settings",
                          keys=errors or ["reduction.functions" if bad else "reduction.dims"])

    count = config.quad_nodes or 64
    report = Report(config.command, [
        "n", "R", "function", "target", "quadrature", "closed_form", "rel_err",
        "mc_value", "mc_sigma", "mc_z", "tol", "pass", "violated",
    ])
    case = 0
    for n in dims:
        for radius in radii:
            for name in names:
                f = _REDUCTION_FUNCTIONS[name]
                for target in ("ball", "sphere"):
                    if target == "ball":
                        quad = reduce_ball_integral(f, radius, n, count=count)
                    else:
                        quad = reduce_sphere_integral(f, radius, n, count=count)
                    exact = _reduction_closed_form(name, radius, n, target)
                    scale = max(abs(exact), 1e-300)
                    rel = abs(quad - exact) / scale
                    ok = rel <= tol
                    violated = [] if ok else ["reduction.tolerance"]
                    mc_value = mc_sigma = mc_z = None
                    if mc_samples:
                        fn = lambda pts: f(pts[:, n - 1])
                        sampler = ball_monte_carlo if target == "ball" else sphere_monte_carlo
                        est = sampler(fn, radius, n, samples=mc_samples,
                                      seed=config.seed + case)
                        mc_value, mc_sigma = est.value, est.sigma
                        mc_z = est.z_score(quad)
                        if mc_z > mc_sigmas:
                            ok = False
                            violated.append("reduction.mc_sigmas")
                    report.add(ok, n=n, R=radius, function=name, target=target,
                               quadrature=quad, closed_form=exact, rel_err=rel,
                               mc_value=mc_value, mc_sigma=mc_sigma, mc_z=mc_z, tol=tol,
                               violated=";".join(violated))
                    case += 1
    report.summary["max_rel_err"] = max(row[6] for row in report.rows)
    return report


def _identity_tolerance(config: RunConfig, n: int, errors: list[str]) -> float:
    if config.tol_override:
        return config.tol_override
    for key in (f"tolerance_{n}", "tolerance"):
        if config.get("identities", key) is not None:
            return config.parse("identities", key, None, float, errors, _positive)
    if n % 2 == 0:
        return 1e-6
    return 1e-10 if n == 3 else 1e-8


def _run_identities(config: RunConfig) -> Report:
    errors: list[str] = []
    dims = config.parse("identities", "dims", "3, 5, 7", _ints, errors) or []
    count = config.parse("identities", "count", "200", int, errors)
    max_product = config.parse("identities", "max_product", "20.0", float, errors, _positive)
    if errors or not dims or any(not 2 <= d <= MAX_DIMENSION for d in dims) or not count or count < 1:
        raise ConfigError("invalid identities settings", keys=errors or ["identities.dims"])

    report = Report(config.command, [
        "n", "R", "xi_norm", "residual_real", "residual_imag", "h", "nodes",
        "tol", "pass", "violated",
    ])
    for n in dims:
        tol = _identity_tolerance(config, n, errors)
        if errors:
            raise ConfigError("invalid identities settings", keys=errors)
        records = identity_sweep(n, count, seed=config.seed + n,
                                 max_product=max_product,
                                 base_nodes=config.quad_nodes or 64)
        for rec in records:
            ok = rec.residual <= tol
            report.add(ok, n=rec.n, R=rec.radius, xi_norm=rec.knorm,
                       residual_real=rec.residual, residual_imag=rec.imag_residual,
                       h=rec.h, nodes=rec.nodes, tol=tol,
                       violated="" if ok else "identities.tolerance")
    report.summary["max_residual"] = max(row[3] for row in report.rows)
    return report


def _run_solve(config: RunConfig) -> Report:
    errors: list[str] = []
    dim = config.parse("run", "dim", "3", int, errors, _dimension)
    times = config.parse("solve", "times", "1.0", _floats, errors) or []
    method = config.get("solve", "method", "auto")
    expect = config.parse("solve", "expect_value", None, float, errors)
    expect_tol = config.parse("solve", "expect_tol", "1e-6", float, errors, _positive)
    if errors or not dim or any(t <= 0 for t in times) or not times:
        raise ConfigError("invalid solve settings", keys=errors or ["solve.times"])
    if method != "spectral":
        _check_means_dimension(dim, "run.dim")

    rng = np.random.default_rng(config.seed)
    phi = _field_from_config(config, "phi", dim, errors)
    psi = _field_from_config(config, "psi", dim, errors)
    probes = _probes(config, "solve", dim, rng, errors)
    if errors or not probes:
        raise ConfigError("invalid solve settings", keys=errors or ["solve.probes"])
    problem = CauchyProblem(phi, psi, Dimension(dim))

    report = Report(config.command, [f"x{k + 1}" for k in range(dim)]
                    + ["t", "u", "method", "error_estimate", "pass", "violated"])

    samples: list[SolutionSample] = []
    if method == "spectral":
        half_width = config.parse("solve", "grid_half_width", "8.0", float, errors, _positive)
        points = config.parse("solve", "grid_points", "128", int, errors,
                              lambda value: value >= 2)
        if errors:
            raise ConfigError("invalid solve settings", keys=errors)
        grid = GridSpec(half_width, points, dim)
        state = spectral_state(problem, grid)
        for t in times:
            try:
                sol = spectral_solve(problem, grid, t, state=state)
            except DomainSizeError as exc:
                raise ConfigError(str(exc), keys=["solve.grid_half_width"]) from exc
            for probe in probes:
                idx = tuple(int(round((c + half_width) / grid.spacing)) % points for c in probe)
                lattice_point = -half_width + grid.spacing * np.array(idx)
                samples.append(SolutionSample(lattice_point, t, sol.value_at_index(idx),
                                              "spectral", sol.error_estimate))
        binary_out = config.get("solve", "binary_out")
        if binary_out:
            sol.to_binary(binary_out)
    else:
        if method not in ("auto", "means", "dalembert"):
            raise ConfigError(f"unknown solve method {method!r}", keys=["solve.method"])
        for t in times:
            for probe in probes:
                samples.append(solve_point(problem, probe, t))

    for s in samples:
        ok = math.isfinite(s.u)
        violated = [] if ok else ["solve.finite"]
        if expect is not None and abs(s.u - expect) > expect_tol:
            ok = False
            violated.append("solve.expect_value")
        cells = {f"x{k + 1}": float(c) for k, c in enumerate(s.x)}
        cells.update(t=s.t, u=s.u, method=s.method, error_estimate=s.error_estimate,
                     violated=";".join(violated))
        report.add(ok, **cells)
    return report


# --- converge ---------------------------------------------------------------


def _analytic_slab(profile: str, h: float, points: int):
    # time step h/2: with equal steps the second-difference errors of
    # separable products like cos(x)cos(t) cancel identically
    x = h * (np.arange(points) - points // 2)
    t0 = 1.0
    t = t0 + (h / 2.0) * np.array([-1.0, 0.0, 1.0])
    tt, xx = np.meshgrid(t, x, indexing="ij")
    if profile == "coscos":
        return np.cos(xx) * np.cos(tt)
    if profile == "quadratic":
        return xx * xx + tt * tt
    if profile == "linear":
        return tt * xx
    raise ConfigError(f"unknown converge profile {profile!r}", keys=["converge.profile"])


def _rounding_floor(slab: np.ndarray, h_t: float) -> float:
    # second differences amplify rounding by ~eps |u| / h^2
    return 64.0 * np.finfo(float).eps * float(np.max(np.abs(slab))) / (h_t * h_t)


def _converge_residuals(config: RunConfig, target: str, levels: int,
                        errors: list[str]) -> tuple[list[float], list[float], list[float]]:
    h0 = config.parse("converge", "h0", "0.2", float, errors)
    if errors:
        raise ConfigError("invalid converge settings", keys=errors)
    hs = [h0 / 2**level for level in range(levels)]

    if target == "wave-residual":
        profile = config.get("converge", "profile", "coscos")
        points = config.parse("converge", "points", "9", int, errors) or 9
        res, floors = [], []
        for h in hs:
            slab = _analytic_slab(profile, h, points)
            res.append(wave_residual(slab, h, h / 2.0))
            floors.append(_rounding_floor(slab, h / 2.0))
        return hs, res, floors

    if target == "pde-residual":
        dim = config.parse("converge", "dim", "2", int, errors, _dimension)
        if errors:
            raise ConfigError("invalid converge settings", keys=errors)
        _check_means_dimension(dim, "converge.dim")
        phi = _field_from_config(config, "phi", dim, errors)
        psi = _field_from_config(config, "psi", dim, errors)
        problem = CauchyProblem(phi, psi, Dimension(dim))
        points = config.parse("converge", "points", "5", int, errors) or 5
        t0 = config.parse("converge", "t0", "1.0", float, errors)
        res, floors = [], []
        for h in hs:
            axis = h * (np.arange(points) - points // 2)
            tvals = t0 + h * np.array([-1.0, 0.0, 1.0])
            shape = (3,) + (points,) * dim
            slab = np.empty(shape)
            for it, t in enumerate(tvals):
                for flat_idx in np.ndindex(*(points,) * dim):
                    x = np.array([axis[i] for i in flat_idx])
                    slab[(it,) + flat_idx] = solve_point(problem, x, t, with_error=False).u
            res.append(wave_residual(slab, h, h))
            floors.append(_rounding_floor(slab, h))
        return hs, res, floors

    if target in ("odd-identity", "even-identity"):
        dim = config.parse("converge", "dim", "5" if target == "odd-identity" else "4", int,
                           errors, _dimension)
        xi_norm = config.parse("converge", "xi_norm", "3.0", float, errors)
        radius = config.parse("converge", "radius", "1.0", float, errors, _positive)
        if errors:
            raise ConfigError("invalid converge settings", keys=errors)
        d = Dimension(dim)
        if (target == "odd-identity") != d.is_odd:
            raise ConfigError("converge.dim parity does not match the identity",
                              keys=["converge.dim"])
        xi = np.zeros(dim)
        xi[0] = xi_norm
        query = KernelQuery(xi, radius, d)
        m = d.derivative_order
        degree = 2 * m + 4
        res = []
        h0_eff = min(h0, 0.9 * radius / (2 * m + 6))
        hs = [h0_eff / 2**level for level in range(levels)]
        for h in hs:
            spec = RadialDerivativeSpec(m, h, degree)
            res.append(identity_record(query, spec).residual)
        return hs, res, [1e-12] * levels

    raise ConfigError(f"unknown converge target {target!r}", keys=["converge.target"])


def converge(config: RunConfig) -> Report:
    """Run a refinement ladder and fit the observed convergence order."""
    errors: list[str] = []
    target = config.get("converge", "target", "wave-residual")
    levels = config.parse("converge", "levels", "3", int, errors)
    if errors or not levels or levels < 3:
        raise ConfigError("converge needs at least 3 ladder levels",
                          keys=errors or ["converge.levels"])
    expected_order = config.parse("converge", "expected_order", None, float, errors)
    order_tol = config.parse("converge", "order_tol", "0.5", float, errors, _positive)

    hs, residuals, floors = _converge_residuals(config, target, levels, errors)

    report = Report(config.command, [
        "level", "h", "residual", "ratio", "observed_order", "note", "pass", "violated",
    ])
    orders = []
    for level, (h, res) in enumerate(zip(hs, residuals)):
        ratio = residuals[level - 1] / res if level and res > 0 else None
        saturated = res <= floors[level]
        order = None
        if ratio is not None and not saturated and residuals[level - 1] > floors[level - 1]:
            order = math.log2(ratio)
            orders.append(order)
        note = "saturated" if saturated else ""
        ok = True
        violated = []
        if not saturated and level > 0 and res >= residuals[level - 1]:
            ok = False
            violated.append("converge.monotone")
        report.add(ok, level=level, h=h, residual=res, ratio=ratio, observed_order=order,
                   note=note, violated=";".join(violated))

    fitted = sum(orders) / len(orders) if orders else None
    report.summary["fitted_order"] = fitted if fitted is not None else "saturated"
    if expected_order is not None and fitted is not None and abs(fitted - expected_order) > order_tol:
        for row in report.rows:
            row[report.columns.index("pass")] = False
            row[report.columns.index("violated")] = "converge.expected_order"
    return report


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run(config: RunConfig) -> Report:
    """Dispatch the configured command and write its report."""
    dispatch = {
        "constants": _run_constants,
        "verify-reduction": _run_reduction,
        "verify-identities": _run_identities,
        "solve": _run_solve,
        "converge": converge,
    }
    report = dispatch[config.command](config)
    return _finish(report, config)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavecauchy",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the INI run configuration")
    parser.add_argument("--out", help="override the report output path")
    parser.add_argument("--seed", type=int, help="override the RNG seed")
    parser.add_argument("--quad-nodes", type=int, dest="quad_nodes",
                        help="override 1-D quadrature node counts")
    parser.add_argument("--tol", type=float, help="override the pass/fail tolerance")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {"out": args.out, "seed": args.seed, "quad_nodes": args.quad_nodes,
                 "tol": args.tol}
    try:
        config = load_config(args.config, args.command, overrides)
        report = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    status = "PASS" if report.passed else "FAIL"
    summary = ", ".join(f"{k}={v}" for k, v in sorted(report.summary.items()))
    print(f"{report.command}: {status} ({summary})")
    if config.output:
        print(f"report written to {config.output}")
    return 0 if report.passed else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
