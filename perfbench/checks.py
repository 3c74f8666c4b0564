"""Row checks: every output row of every operation against a reference.

The tolerances, and why each has its size:

MEANS_RTOL, MEANS_ATOL (means and near-front rows)
    |u - ref| <= 1e-3 |ref| + 1e-4 (A_phi + A_psi). Over 160 seeded draws
    at n = 2, 3, 5, 7 the default stencil's truncation error was at most
    1.8e-5 absolute and 1.3e-4 relative, and matched the solver's own
    error_estimate; the bound is at least five times that. The near-front
    fault (3.9e-4 absolute, 21 % relative, on unit amplitude) and any
    loss of more than a few parts in a thousand still fail.
SPECTRAL_RTOL, SPECTRAL_ATOL, SPECTRAL_IMAG (spectral lattice rows)
    The periodic oracle is exact per Fourier mode; on these grids and data
    its error is spectral truncation plus rounding, far below 1e-8.
    |u - ref| <= 1e-8 |ref| + 1e-10 (A_phi + A_psi), and the reported
    max |Im u| (real data has a Hermitian spectrum) <= 1e-12 (A_phi + A_psi),
    about 100 times the FFT rounding seen at 128^3.
HARMONIC_RTOL (harmonic rows)
    u must equal phi + t psi; criterion 06 holds it to 1e-8 relative. The
    scale is the sum of the magnitudes of the terms, so a cancellation
    between phi and t psi cannot shrink the bound below rounding.
MIN_ORDER (pde-residual ladders)
    Criterion 09: the fitted observed order of the discrete wave-operator
    residual is at least 1.7, and the residual falls at every level.
IDENTITY_TOL (identity rows)
    Criteria 03 and 04: the residual against sin(R|xi|)/|xi| is at most
    1e-10 at n = 3, 1e-8 at n = 5 and 7, 1e-6 at even n; the imaginary part,
    zero for the real kernel, is held to the same bound.
DUALITY_RTOL (duality rows)
    Criterion 05: both T(phi_hat) and the program's sinc integral within
    1e-6 relative of the benchmark's own radial integral of sinc * phi.
"""

from __future__ import annotations

import csv
import math

import reference
import workloads

MEANS_RTOL, MEANS_ATOL = 1e-3, 1e-4
SPECTRAL_RTOL, SPECTRAL_ATOL, SPECTRAL_IMAG = 1e-8, 1e-10, 1e-12
HARMONIC_RTOL = 1e-8
MIN_ORDER = 1.7
IDENTITY_TOL = {2: 1e-6, 3: 1e-10, 4: 1e-6, 5: 1e-8, 6: 1e-6, 7: 1e-8}
DUALITY_RTOL = 1e-6


def read_report(path) -> list[dict]:
    """Rows of a CLI CSV report, comment lines skipped."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _harmonic(poly: str, x: list[float]) -> float:
    if poly == "linear":
        return x[0]
    if poly == "bilinear":
        return x[0] * x[1]
    if poly == "saddle":
        return x[0] ** 2 - x[1] ** 2
    if poly == "cubic":
        return x[0] ** 3 - 3.0 * x[0] * x[1] ** 2
    if poly == "triple":
        return x[0] * x[1] * x[2]
    raise ValueError(poly)


class Checker:
    """Checks rows; references are computed once per distinct input."""

    def __init__(self):
        self._refs: dict = {}
        self.worst: dict[str, str] = {}  # op label -> last failure, for diagnostics

    def _ref(self, op, key, compute):
        key = (op.label, repr(op.params)) + key
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]

    def check(self, op: workloads.Op, outcome, report=None) -> list[bool]:
        """One flag per row the operation must produce.

        outcome is the CLI exit code (the rows are then read from `report`),
        the library call's return value, or the exception it raised. A crash,
        a config error or a missing or malformed report fails every row.
        """
        if isinstance(outcome, Exception):
            self.worst[op.label] = f"raised {outcome!r}"
            return [False] * op.rows
        if op.command and outcome == 2:
            self.worst[op.label] = f"config error (exit 2) from {op.command}"
            return [False] * op.rows
        try:
            result = read_report(report) if op.command else outcome
            flags = getattr(self, "_" + op.kind.replace("-", "_"))(op, result)
        except (KeyError, ValueError, TypeError, OSError) as exc:
            self.worst[op.label] = f"unreadable result: {exc!r}"
            return [False] * op.rows
        if len(flags) != op.rows:
            self.worst[op.label] = f"{len(flags)} rows, expected {op.rows}"
            return [False] * op.rows
        return flags

    def _fail(self, op, message) -> bool:
        self.worst[op.label] = message
        return False

    @staticmethod
    def _point(row, n) -> tuple[list[float], float]:
        x = [float(row[f"x{k + 1}"]) for k in range(n)]
        return x, float(row["t"])

    def _solve_gaussian(self, op, rows) -> list[bool]:
        n, phi, psi = op.params["n"], op.params["phi"], op.params["psi"]
        scale = phi[0] + psi[0]
        flags = []
        for row in rows:
            x, t = self._point(row, n)
            d = math.sqrt(sum(c * c for c in x))
            ref = self._ref(op, (d, t), lambda: reference.radial_gaussian_solution(
                n, phi, psi, d, t))
            u, est = float(row["u"]), float(row["error_estimate"])
            if row["method"] == "spectral":
                ok = (abs(u - ref) <= SPECTRAL_RTOL * abs(ref) + SPECTRAL_ATOL * scale
                      and abs(est) <= SPECTRAL_IMAG * scale)
            else:
                ok = abs(u - ref) <= MEANS_RTOL * abs(ref) + MEANS_ATOL * scale
            flags.append(ok or self._fail(op, f"x={x} t={t}: u={u!r} ref={ref!r} est={est!r}"))
        return flags

    def _solve_harmonic(self, op, rows) -> list[bool]:
        n = op.params["n"]
        flags = []
        for row in rows:
            x, t = self._point(row, n)
            terms = []
            for role, weight in (("phi", 1.0), ("psi", t)):
                poly, amp, offset = op.params[role]
                terms += [weight * amp * _harmonic(poly, x), weight * offset]
            exact = sum(terms)
            u = float(row["u"])
            ok = abs(u - exact) <= HARMONIC_RTOL * sum(abs(v) for v in terms)
            flags.append(ok or self._fail(op, f"x={x} t={t}: u={u!r} exact={exact!r}"))
        return flags

    def _near_front(self, op, rows) -> list[bool]:
        p = op.params
        ref = reference.kirchhoff_offset_gaussian(p["amplitude"], p["sigma"], p["offset"], p["t"])
        flags = []
        for row in rows:
            u = float(row["u"])
            ok = abs(u - ref) <= MEANS_RTOL * abs(ref) + MEANS_ATOL * p["amplitude"]
            flags.append(ok or self._fail(
                op, f"u={u!r} Kirchhoff={ref!r} error_estimate={row['error_estimate']}"))
        return flags

    def _converge(self, op, rows) -> list[bool]:
        residuals = [float(r["residual"]) for r in rows]
        orders = [float(r["observed_order"]) for r in rows if r["observed_order"]]
        falling = all(math.isfinite(r) and r > 0 for r in residuals) and all(
            b < a for a, b in zip(residuals, residuals[1:]))
        fitted = sum(orders) / len(orders) if orders else float("nan")
        ok = falling and fitted >= MIN_ORDER
        if not ok:
            self._fail(op, f"residuals={residuals} fitted order={fitted}")
        return [ok] * len(rows)

    def _identities(self, op, rows) -> list[bool]:
        flags = []
        for row in rows:
            n = int(row["n"])
            tol = IDENTITY_TOL[n]
            radius, knorm = float(row["R"]), float(row["xi_norm"])
            ok = (n in op.params["dims"]
                  and abs(float(row["residual_real"])) <= tol
                  and abs(float(row["residual_imag"])) <= tol
                  and radius * knorm <= op.params["max_product"] * (1 + 1e-12))
            flags.append(ok or self._fail(op, f"row {row}"))
        return flags

    def _duality(self, op, result) -> list[bool]:
        lhs, rhs = result
        p = op.params
        ref = self._ref(op, (), lambda: reference.sinc_gaussian_integral(
            p["n"], p["amplitude"], p["sigma"], p["radius"]))
        ok = (abs(lhs - ref) <= DUALITY_RTOL * abs(ref)
              and abs(rhs - ref) <= DUALITY_RTOL * abs(ref))
        return [ok or self._fail(op, f"lhs={lhs!r} rhs={rhs!r} ref={ref!r}")]
