"""Configuration-driven entry point.

Config files are plain INI: ``key = value`` lines under bracketed section
headers, lists comma-separated. Every command writes a CSV report whose rows
are deterministic for a fixed config + seed (no timestamps anywhere), with
provenance (config hash, seed, version) in leading ``#`` comment lines.

Each command reads the config keys listed below and no others. The whole
config is checked before any work and every offending key is reported at
once (exit 2, ``config error:``); a solver failure exits 1 (``error:``).
The list comes from `COMMANDS`, the one table of each command's runner,
report columns and keys.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import itertools
import math
import re
import sys
import textwrap
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import ConfigError, DomainSizeError, EvaluationError, StencilError
from .fields import make_field
from .geometry import (
    MAX_DESCENT_DIMENSION,
    MAX_DIMENSION,
    MAX_OSC_NODES,
    Dimension,
    solution_constant,
    sphere_quadrature,
    unit_ball_volume,
    unit_sphere_area,
    reduce_ball_integral,
    reduce_sphere_integral,
)
from .kernels import KernelQuery, identity_records, identity_sweep, normalization_constant
from .montecarlo import ball_monte_carlo, sphere_monte_carlo
from .radial import RadialDerivativeSpec
from .solvers import (
    MAX_GRID_POINTS,
    CauchyProblem,
    GridSpec,
    SolutionSample,
    evolution_state,
    solve_points,
    spectral_probes,
    spectral_solve,
    wave_residual,
)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    """section -> key -> typed value (None for an unset optional key)."""

    command: str
    values: dict
    sha256: str

    def __getitem__(self, section: str) -> dict:
        return self.values[section]


def _list(kind):
    """Parse comma-separated entries with kind, skipping blank ones."""
    return lambda raw: [kind(part.strip()) for part in raw.split(",") if part.strip()]


_ints, _floats, _words = _list(int), _list(float), _list(str)


def _points(raw: str):
    """``random``, or comma-separated points of space-separated coordinates."""
    if raw.strip() == "random":
        return "random"
    return [np.array(_floats(",".join(chunk.split()))) for chunk in raw.split(",")]


def _positive(value) -> bool:
    return value > 0


def _between(low, high=math.inf):
    return lambda value: low <= value <= high


def _checked(value, valid):
    """value, if each entry of it (a list: at least one) is finite and passes
    valid, a predicate or a tuple of choices; ValueError otherwise."""
    accepts = valid.__contains__ if isinstance(valid, tuple) else valid or (lambda item: True)
    items = value if isinstance(value, list) else (value,)
    if not items or not all(map(accepts, items)) or not all(
            math.isfinite(x) if type(x) is float else np.all(np.isfinite(x))
            for x in items if isinstance(x, (float, np.ndarray))):
        raise ValueError(value)
    return value


def load_config(path: str, command: str, overrides: dict) -> RunConfig:
    """Parse and validate every key of the config file against the command's
    schema. The overrides out, seed and quad_nodes replace run.output,
    run.seed and run.quad_nodes, and tol replaces the command's tolerance; an
    override of a key the command does not read is an error, as that key is."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    parser.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        parser.read_string(text)
    except (OSError, UnicodeError, configparser.Error) as exc:
        raise ConfigError(f"cannot read the config: {exc}", keys=["--config"]) from exc

    cfg_command = parser.get("run", "command", fallback=command)
    if cfg_command != command or command not in COMMANDS:
        raise ConfigError(f"config says command = {cfg_command!r} but {command!r} was requested",
                          keys=["run.command"])
    schema = COMMANDS[command][2]
    errors = [f"{section}.{key}" for section in parser.sections() for key in parser[section]
              if key not in schema.get(section, {})]
    values = {}
    for section, keys in schema.items():
        got = values[section] = {}
        given = dict(parser.items(section, raw=True)) if parser.has_section(section) else {}
        for key, (parse, default, valid) in keys.items():
            raw = given.get(key, default)
            if isinstance(raw, dict):
                raw = raw.get(got.get("target"))
            try:
                got[key] = None if raw is None else _checked(parse(raw), valid)
            except (TypeError, ValueError):
                got[key] = None
                errors.append(f"{section}.{key}")

    values["run"]["output"] = overrides.get("out") or values["run"]["output"]
    if values.get("converge", {}).get("target") in ("wave-residual", "pde-residual"):
        del values["run"]["quad_nodes"]  # only the identity ladders build a quadrature rule
        if parser.has_option("run", "quad_nodes") and "run.quad_nodes" not in errors:
            errors.append("run.quad_nodes")
    for flag, key, value in (("--seed", "seed", overrides.get("seed")),
                             ("--quad-nodes", "quad_nodes", overrides.get("quad_nodes")),
                             ("--tol", "tolerance", overrides.get("tol"))):
        if value is None:
            continue
        taken = [keys for keys in values.values() if key in keys]
        if not (taken and value < math.inf
                and (_RUN[key][2] if key in _RUN else _positive)(value)):
            errors.append(flag)
        for keys in taken:
            keys[key] = value
    solve = values.get("solve", {})
    if None not in (solve.get("probes"), solve.get("probe_count"), solve.get("times")):
        # each (probe, time) pair is a sample, and the means pairs are one batch
        random = solve["probes"] == "random"
        probes = solve["probe_count"] if random else len(solve["probes"])
        if probes * len(solve["times"]) > MAX_PAIRS:
            errors += ["solve.probe_count" if random else "solve.probes", "solve.times"]
    ident = values.get("identities", {})  # each dimension's draws are one array batch
    if None not in (ident.get("dims"), ident.get("count")) and \
            ident["count"] * len(ident["dims"]) > MAX_PAIRS:
        errors.append("identities.count")
    if errors:
        raise ConfigError(f"invalid {command} config", keys=errors)
    return RunConfig(command, values, hashlib.sha256(text.encode()).hexdigest())


# ---------------------------------------------------------------------------
# Report and commands
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if type(value) is float:  # most cells; np.float64, a float subclass, goes below
        return float.__repr__(value)
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "yes" if value else "no"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _texts(cells, rows: int = 1) -> list[str]:
    """A column's CSV cells: one float.__repr__ pass over a list of floats, one `_fmt`
    call for a value shared by all rows, else `_fmt` per cell, quoted as csv.QUOTE_MINIMAL
    quotes a text holding , " or a newline."""
    if type(cells) is not list:
        return _texts([cells]) * rows
    try:
        return list(map(float.__repr__, cells))  # no float's text needs quotes
    except TypeError:  # a cell that is not a float
        texts = list(map(_fmt, cells))
    if re.search('[,"\n]', "".join(texts)):
        texts = ['"' + t.replace('"', '""') + '"' if re.search('[,"\n]', t) else t for t in texts]
    return texts


@dataclass
class Report:
    """Rows as blocks (rows, column -> a list of one cell a row, or one shared cell)."""

    command: str
    columns: list[str]
    blocks: list[tuple[int, dict]] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def extend(self, passed: list, **cells) -> None:
        """len(passed) rows: each cell a list of one entry a row, or a value for all; a
        column not given is empty."""
        self.blocks.append((len(passed), {**cells, "pass": passed}))

    def column(self, name: str) -> list:
        """Every row's cell of the named column."""
        return [cell for rows, cells in self.blocks for cell in
                (cells[name] if type(cells.get(name)) is list else [cells.get(name)] * rows)]

    @property
    def passed(self) -> bool:
        flags = self.column("pass")
        return bool(flags) and all(flags)

    def write_csv(self, path) -> None:
        lines = [f"# {key}={self.provenance[key]}" for key in sorted(self.provenance)]
        lines.append(",".join(_texts(self.columns)))
        for rows, cells in self.blocks:
            lines += map(",".join, zip(*[_texts(cells.get(name), rows) for name in self.columns]))
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")


#: parameters of each field kind, read as data.<role>_<key>
_FIELD_KEYS = {
    "gaussian": ("sigma", "amplitude", "center"),
    "bump": ("radius", "sharpness", "amplitude", "center"),
    "harmonic": ("poly", "amplitude", "offset"),
    "constant": ("value",),
    "zero": (),
}


def _check_means_dims(dims: list[int], key: str) -> None:
    """A config error naming key for an even dim beyond the descent of the
    means path, which the solvers and the kernel identities share."""
    for dim in dims:
        if dim % 2 == 0 and dim > MAX_DESCENT_DIMENSION:
            raise ConfigError(f"means solvers cover even dimensions up to "
                              f"{MAX_DESCENT_DIMENSION} (descent needs a sphere rule in "
                              f"R^{dim + 1}), got {dim}", keys=[key])


def _problem(config: RunConfig, dim: int, means_key: str | None) -> CauchyProblem:
    """The Cauchy problem of the [data] section. A parameter the field kind
    does not take, or one make_field rejects, is a config error; so is, with
    means_key, an even dim beyond the means solvers' descent."""
    if means_key:
        _check_means_dims([dim], means_key)
    data, fields, errors = config["data"], [], []
    for role in ("phi", "psi"):
        kind = data[role]
        given = {key.split("_", 1)[1]: value for key, value in data.items()
                 if key.startswith(f"{role}_") and value is not None}
        errors += [f"data.{role}_{key}" for key in given if key not in _FIELD_KEYS[kind]]
        try:
            fields.append(make_field(kind, dim, **{"name" if key == "poly" else key: value
                                                   for key, value in given.items()}))
        except (TypeError, ValueError):
            errors.append(f"data.{role}")
    if errors:
        raise ConfigError("invalid data settings", keys=errors)
    return CauchyProblem(*fields, Dimension(dim))


def _run_constants(config: RunConfig, report: Report) -> None:
    keys = config["constants"]
    dims, tol = keys["dims"], keys["tolerance"]
    _check_means_dims(dims, "constants.dims")
    product = list(map(solution_constant, dims))
    recovered = [normalization_constant(n, keys["radius"], config["run"]["quad_nodes"])
                 for n in dims]
    rel = [abs(got - want) / abs(want) for got, want in zip(recovered, product)]
    passed = [r <= tol for r in rel]
    report.extend(passed, n=dims, parity=[Dimension(n).parity for n in dims],
                  surface_area=list(map(unit_sphere_area, dims)),
                  ball_volume=list(map(unit_ball_volume, dims)), constant_product=product,
                  constant_normalization=recovered, rel_diff=rel, tol=tol,
                  violated=["" if ok else "constants.tolerance" for ok in passed])
    report.summary["max_rel_diff"] = max(rel)

    if keys["export_rule_dim"] and keys["export_rule_path"]:
        sphere_quadrature(keys["export_rule_dim"]).to_csv(keys["export_rule_path"])


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
    prefix = unit_sphere_area(n - 1) * math.sqrt(math.pi) * math.gamma((n - 1) / 2.0)
    if target == "ball":
        return prefix * 2.0 ** ((n - 2) / 2.0) * radius ** (n / 2.0) * jv(n / 2.0, radius)
    return (prefix * radius ** (n - 1) * (2.0 / radius) ** ((n - 2) / 2.0)
            * jv((n - 2) / 2.0, radius))


def _run_reduction(config: RunConfig, report: Report) -> None:
    keys, seed = config["reduction"], config["run"]["seed"]
    tol, mc_samples = keys["tolerance"], keys["mc_samples"]
    # a closed form or Monte Carlo box beyond the float range is refused before any quadrature
    for n, radius, name, target in itertools.product(
            keys["dims"], keys["radii"], keys["functions"], ("ball", "sphere")):
        try:
            sizes = (_reduction_closed_form(name, radius, n, target),
                     (2.0 * radius) ** n if mc_samples else 0.0)
        except OverflowError:
            sizes = (math.inf,)
        if any(map(math.isinf, sizes)):
            raise ConfigError(f"radius {radius:g} in dimension {n}: the {name} {target} integral "
                              "or the Monte Carlo box overflows a float", keys=["reduction.radii"])
    targets = (("ball", reduce_ball_integral, ball_monte_carlo),
               ("sphere", reduce_sphere_integral, sphere_monte_carlo))
    rows = []
    for case, (n, radius, name, (target, reduce, sampler)) in enumerate(itertools.product(
            keys["dims"], keys["radii"], keys["functions"], targets)):
        f = _REDUCTION_FUNCTIONS[name]
        quad = reduce(f, radius, n, count=config["run"]["quad_nodes"])
        exact = _reduction_closed_form(name, radius, n, target)
        rel = abs(quad - exact) / max(abs(exact), 1e-300)
        violated = [] if rel <= tol else ["reduction.tolerance"]
        mc_value = mc_sigma = mc_z = None
        if mc_samples:
            est = sampler(lambda pts: f(pts[:, n - 1]), radius, n, samples=mc_samples,
                          seed=seed + case)
            mc_value, mc_sigma, mc_z = est.value, est.sigma, est.z_score(quad)
            if mc_z > keys["mc_sigmas"]:
                violated.append("reduction.mc_sigmas")
        rows.append((n, radius, name, target, quad, exact, rel, mc_value, mc_sigma, mc_z,
                     ";".join(violated)))
    cells = dict(zip(("n", "R", "function", "target", "quadrature", "closed_form", "rel_err",
                      "mc_value", "mc_sigma", "mc_z", "violated"), map(list, zip(*rows))))
    report.extend([not v for v in cells["violated"]], tol=tol, **cells)
    report.summary["max_rel_err"] = max(cells["rel_err"])


def _run_identities(config: RunConfig, report: Report) -> None:
    keys = config["identities"]
    _check_means_dims(keys["dims"], "identities.dims")
    for n in keys["dims"]:
        tol = keys["tolerance"] or (1e-6 if n % 2 == 0 else 1e-10 if n == 3 else 1e-8)
        records = identity_sweep(n, keys["count"], seed=config["run"]["seed"] + n,
                                 max_product=keys["max_product"],
                                 base_nodes=config["run"]["quad_nodes"])
        residual = [rec.residual for rec in records]
        passed = [res <= tol for res in residual]
        report.extend(passed, n=n, R=[rec.radius for rec in records],
                      xi_norm=[rec.knorm for rec in records], residual_real=residual,
                      residual_imag=[rec.imag_residual for rec in records],
                      h=[rec.h for rec in records], nodes=[rec.nodes for rec in records],
                      tol=tol, violated=["" if ok else "identities.tolerance" for ok in passed])
    report.summary["max_residual"] = max(report.column("residual_real"))


def _run_solve(config: RunConfig, report: Report) -> None:
    dim, keys = config["run"]["dim"], config["solve"]
    method, probes = keys["method"], keys["probes"]
    if method == "spectral" and keys["grid_points"] ** dim > MAX_GRID_POINTS:
        raise ConfigError(f"a {dim}-D grid of {keys['grid_points']} points per axis has more "
                          f"than {MAX_GRID_POINTS} points", keys=["solve.grid_points"])
    problem = _problem(config, dim, None if method == "spectral" else "run.dim")
    if probes == "random":
        rng = np.random.default_rng(config["run"]["seed"])
        radius = keys["probe_radius"]
        probes = [rng.uniform(-radius, radius, size=dim) for _ in range(keys["probe_count"])]
    elif any(len(probe) != dim for probe in probes):
        raise ConfigError(f"each probe needs {dim} coordinates", keys=["solve.probes"])

    times = keys["times"]
    if method == "spectral":
        half_width, points = keys["grid_half_width"], keys["grid_points"]
        grid = GridSpec(half_width, points, dim)
        try:  # the largest time's guard, before the lattice is sampled
            state = evolution_state(problem, grid, max(times))
        except DomainSizeError as exc:
            raise ConfigError(str(exc), keys=["solve.grid_half_width"]) from exc
        index = np.rint((np.array(probes) + half_width) / grid.spacing).astype(int) % points
        # one pass over the half spectrum for every time, time-major as the report's rows
        values, estimates = spectral_probes(problem, grid, times, index, state)
        samples = [SolutionSample(-half_width + grid.spacing * idx, t, float(u), "spectral", e)
                   for t, row, e in zip(times, values, estimates.tolist())
                   for idx, u in zip(index, row)]
        if keys["binary_out"]:  # the one full inverse, for the last time's grid
            spectral_solve(problem, grid, times[-1], state=state).to_binary(keys["binary_out"])
    else:
        # one batch of every (probe, time) pair, time-major as the report's rows
        samples = solve_points(problem, np.tile(probes, (len(times), 1)),
                               np.repeat(times, len(probes)))

    expect, expect_tol = keys["expect_value"], keys["expect_tol"]
    violated = [";".join(name for name, bad in (
        ("solve.finite", not math.isfinite(s.u)),
        ("solve.expect_value", expect is not None and abs(s.u - expect) > expect_tol)) if bad)
        for s in samples]
    coordinates = np.array([s.x for s in samples], dtype=np.float64).T.tolist()
    report.extend([not v for v in violated], **{f"x{k + 1}": c for k, c in enumerate(coordinates)},
                  t=[s.t for s in samples], u=[s.u for s in samples],
                  method=[s.method for s in samples],
                  error_estimate=[s.error_estimate for s in samples], violated=violated)


# --- converge ---------------------------------------------------------------


def _analytic_slab(profile: str, h: float, points: int):
    # time step h/2: with equal steps the second-difference errors of
    # separable products like cos(x)cos(t) cancel identically
    x = h * (np.arange(points) - points // 2)
    t = 1.0 + (h / 2.0) * np.array([-1.0, 0.0, 1.0])
    tt, xx = np.meshgrid(t, x, indexing="ij")
    if profile == "coscos":
        return np.cos(xx) * np.cos(tt)
    if profile == "quadratic":
        return xx * xx + tt * tt
    return tt * xx


def _means_slabs(problem: CauchyProblem, points: int, t0: float, hs: list[float]) -> np.ndarray:
    """Means solutions on each h's slab of times t0 - h, t0, t0 + h and points^n sites
    spaced h around the origin, shape (len(hs), 3) + (points,) * n: every slab's
    3 points^n pairs in one batch, which sums the (origin, t0) sphere they share once."""
    n, offsets = problem.dim.n, np.arange(points) - points // 2
    sites = [np.stack(np.meshgrid(*[h * offsets] * n, indexing="ij"), axis=-1).reshape(-1, n)
             for h in hs]
    times = np.repeat(t0 + np.outer(hs, [-1.0, 0.0, 1.0]).ravel(), points ** n)
    samples = solve_points(problem, np.concatenate([np.tile(x, (3, 1)) for x in sites]), times,
                           with_error=False)
    return np.reshape([s.u for s in samples], (len(hs), 3) + (points,) * n)


def _identity_ladder(config: RunConfig) -> tuple[list[float], list[float], list[float]]:
    keys = config["converge"]
    target, dim, radius = keys["target"], keys["dim"], keys["radius"]
    d = Dimension(dim)
    # at n = 2 and 3 the derivative order is 0: the chain is the centre sample,
    # so no level's residual depends on h
    if (target == "odd-identity") != d.is_odd or dim < 4:
        parity = "an odd dimension >= 5" if target == "odd-identity" else "an even dimension >= 4"
        raise ConfigError(f"{target} needs {parity}", keys=["converge.dim"])
    _check_means_dims([dim], "converge.dim")
    xi = np.zeros(dim)
    xi[0] = keys["xi_norm"]
    query = KernelQuery(xi, radius, d)
    m = d.derivative_order
    h0 = min(keys["h0"], 0.9 * radius / (2 * m + 6))
    hs = [h0 / 2**level for level in range(keys["levels"])]
    specs = [RadialDerivativeSpec(m, h, 2 * m + 4) for h in hs]
    records = identity_records([query] * len(hs), specs, base_nodes=config["run"]["quad_nodes"])
    res = [rec.residual for rec in records]
    return hs, res, [1e-12] * len(hs)


def _converge_residuals(config: RunConfig) -> tuple[list[float], list[float], list[float]]:
    """(h, residual, rounding floor) of each level of the target's ladder."""
    keys = config["converge"]
    target, h0, points = keys["target"], keys["h0"], keys["points"]
    if target.endswith("identity"):
        return _identity_ladder(config)
    hs = [h0 / 2**level for level in range(keys["levels"])]
    if target == "wave-residual":
        slabs = [(_analytic_slab(keys["profile"], h, points), h / 2.0) for h in hs]
    else:
        if keys["t0"] < h0:
            raise ConfigError("the first slab reaches back to t0 - h0, so t0 must be at "
                              "least h0", keys=["converge.t0", "converge.h0"])
        problem = _problem(config, keys["dim"], "converge.dim")
        slabs = list(zip(_means_slabs(problem, points, keys["t0"], hs), hs))
    # second differences amplify rounding by ~eps |u| / h^2
    return (hs, [wave_residual(slab, h, h_t) for h, (slab, h_t) in zip(hs, slabs)],
            [64.0 * np.finfo(float).eps * float(np.max(np.abs(slab))) / (h_t * h_t)
             for slab, h_t in slabs])


def _run_converge(config: RunConfig, report: Report) -> None:
    """Run a refinement ladder and fit the observed convergence order."""
    keys = config["converge"]
    hs, residuals, floors = _converge_residuals(config)
    orders, rows = [], []
    for level, (h, res) in enumerate(zip(hs, residuals)):
        ratio = residuals[level - 1] / res if level and res > 0 else None
        saturated = res <= floors[level]
        order = None
        if ratio is not None and not saturated and residuals[level - 1] > floors[level - 1]:
            order = math.log2(ratio)
            orders.append(order)
        violated = [] if math.isfinite(res) else ["converge.finite"]
        if not saturated and level > 0 and res >= residuals[level - 1]:
            violated.append("converge.monotone")
        rows.append((level, h, res, ratio, order, "saturated" if saturated else "", violated))

    fitted = sum(orders) / len(orders) if orders else None
    report.summary["fitted_order"] = fitted if fitted is not None else "saturated"
    expected = keys["expected_order"]
    off = expected is not None and fitted is not None and abs(fitted - expected) > keys["order_tol"]
    cells = dict(zip(("level", "h", "residual", "ratio", "observed_order", "note", "violated"),
                     map(list, zip(*rows))))
    # an order off the expected one fails every level, after the level's own violations
    violated = [";".join(v + ["converge.expected_order"] * off) for v in cells.pop("violated")]
    report.extend([not v for v in violated], violated=violated, **cells)


#: most (probe, time) pairs a solve may take, and (dimension, draw) pairs a
#: verify-identities sweep: the means pairs go into one solve_points batch, which
#: peaks at about 0.8 KB a pair at n = 3 and 1.1 KB at n = 7 (tracemalloc,
#: samples included), about 1 GB at this count; the draws at about 0.6 KB each
#: (peak RSS of 5e4 draws at n = 7, report included)
MAX_PAIRS = 1 << 20

_RUN = {
    "command": (str, None, None),
    "seed": (int, "0", _between(0)),
    "output": (str, None, None),
    "quad_nodes": (int, "64", _between(1, MAX_OSC_NODES)),
}

_DATA = {role: (str, "zero", tuple(_FIELD_KEYS)) for role in ("phi", "psi")}
_DATA.update({f"{role}_{key}": ({"center": _floats, "poly": str}.get(key, float), None, None)
              for role in ("phi", "psi")
              for key in sorted({key for keys in _FIELD_KEYS.values() for key in keys})})

#: command -> (runner, report columns, config keys as section -> key ->
#: (parse, default, validator)). A default is the raw text to parse, None for
#: an optional key, or a dict keyed by the section's target.
COMMANDS = {
    "solve": (_run_solve, "x1..xn t u method error_estimate pass violated", {
        "run": {**{key: _RUN[key] for key in ("command", "seed", "output")},
                "dim": (int, "3", _between(1, MAX_DIMENSION))},
        "data": _DATA,
        "solve": {
            "method": (str, "auto", ("auto", "spectral")),
            "times": (_floats, "1.0", _positive),
            "probes": (_points, "random", None),
            "probe_count": (int, "5", _between(1, MAX_PAIRS)),
            "probe_radius": (float, "1.0", _positive),
            "expect_value": (float, None, None),
            "expect_tol": (float, "1e-6", _positive),
            "grid_half_width": (float, "8.0", _positive),
            "grid_points": (int, "128", _between(2)),
            "binary_out": (str, None, None),
        }}),
    "verify-identities": (_run_identities, "n R xi_norm residual_real residual_imag h nodes tol "
                                           "pass violated", {
        "run": _RUN,
        "identities": {
            "dims": (_ints, "3, 5, 7", _between(2, MAX_DIMENSION)),
            "count": (int, "200", _positive),
            "max_product": (float, "20.0", _positive),
            "tolerance": (float, None, _positive),
        }}),
    "verify-reduction": (_run_reduction, "n R function target quadrature closed_form rel_err "
                                         "mc_value mc_sigma mc_z tol pass violated", {
        "run": _RUN,
        "reduction": {
            "dims": (_ints, "3, 4, 5, 7", _between(3, MAX_DIMENSION)),
            "radii": (_floats, "0.5, 1, 2", _positive),
            "functions": (_words, "one, square, cosine", tuple(_REDUCTION_FUNCTIONS)),
            "tolerance": (float, "1e-10", _positive),
            "mc_samples": (int, "0", _between(0)),
            "mc_sigmas": (float, "3.0", _positive),
        }}),
    "constants": (_run_constants, "n parity surface_area ball_volume constant_product "
                                  "constant_normalization rel_diff tol pass violated", {
        "run": _RUN,
        "constants": {
            "dims": (_ints, "2, 3, 4, 5, 6, 7", _between(2, MAX_DIMENSION)),
            "tolerance": (float, "1e-10", _positive),
            "radius": (float, "1.0", _positive),
            "export_rule_dim": (int, None, _between(1, MAX_DIMENSION)),
            "export_rule_path": (str, None, None),
        }}),
    "converge": (_run_converge, "level h residual ratio observed_order note pass violated", {
        "run": _RUN,
        "data": _DATA,
        "converge": {
            "target": (str, "wave-residual", ("wave-residual", "pde-residual", "odd-identity",
                                              "even-identity")),
            "levels": (int, "3", _between(3)),
            "h0": (float, "0.2", _positive),
            "expected_order": (float, None, None),
            "order_tol": (float, "0.5", _positive),
            "profile": (str, "coscos", ("coscos", "quadratic", "linear")),
            "points": (int, {"wave-residual": "9", "pde-residual": "5"}, _between(3)),
            "dim": (int, {"pde-residual": "2", "odd-identity": "5", "even-identity": "4"},
                    _between(1, MAX_DIMENSION)),
            "t0": (float, "1.0", _positive),
            "xi_norm": (float, "3.0", None),
            "radius": (float, "1.0", _positive),
        }}),
}


@functools.cache
def _schema_help() -> str:
    """Each command's report columns and config keys, as key=default(choices)."""
    def entry(key, default, valid):
        if isinstance(default, dict):
            default = ",".join(f"{target}:{value}" for target, value in default.items())
        text = key if default is None else f"{key}={default.replace(' ', '')}"
        return text + (f"({'|'.join(valid)})" if isinstance(valid, tuple) else "")

    wrap = textwrap.TextWrapper(79, subsequent_indent="    ", break_long_words=False,
                                break_on_hyphens=False)
    lines = ["report columns and config keys (key=default(choices)) of each command:"]
    for name, (_, columns, sections) in COMMANDS.items():
        wrap.initial_indent = "  columns: "
        lines += [f"{name}:", wrap.fill(", ".join(columns.split()))]
        for section, keys in sections.items():
            wrap.initial_indent = f"  [{section}] "
            lines.append(wrap.fill("; ".join(entry(key, *spec[1:]) for key, spec in keys.items())))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run(config: RunConfig) -> Report:
    """Run the configured command and write its report."""
    runner, columns, _ = COMMANDS[config.command]
    coordinates = " ".join(f"x{k + 1}" for k in range(config["run"].get("dim", 0)))
    report = Report(config.command, columns.replace("x1..xn", coordinates).split())
    runner(config, report)
    report.provenance.update(command=config.command, config_sha256=config.sha256,
                             seed=config["run"]["seed"], version=__version__)
    flags = report.column("pass")
    report.summary.update(cases=len(flags), failures=flags.count(False))
    if config["run"]["output"]:
        report.write_csv(config["run"]["output"])
    return report


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once: parse_args leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="wavecauchy",
        description=__doc__,
        epilog=_schema_help(),
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
    try:
        config = load_config(args.config, args.command, vars(args))
        report = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (EvaluationError, StencilError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    status = "PASS" if report.passed else "FAIL"
    summary = ", ".join(f"{k}={v}" for k, v in sorted(report.summary.items()))
    print(f"{report.command}: {status} ({summary})")
    if config["run"]["output"]:
        print(f"report written to {config['run']['output']}")
    return 0 if report.passed else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
