"""One benchmark process: warm up, run whole rounds, check every row.

Run by run.py, never by hand. With --setup-only it imports the program,
runs the workload's warm-up, prints READY, then times calibration units and
prints their mean; run.py times the interval up to READY. Otherwise it runs
rounds for --seconds and writes its result as JSON to --result.

Machine speed on small shared hosts drifts by a fifth or more over tens of
seconds, the same for CPU time as for wall time. So the worker brackets
every operation with a fixed calibration kernel, a quarter of the
operation's time split before and after it, and scales the operation's time
by CALIB_REF_S / (median calibration unit time): the time it would have taken
on a machine that runs the kernel in CALIB_REF_S. The kernel is the
benchmark's own code, so a change to the program moves the job's time and
not the kernel's. The rate is rows per round over the sum, across the
round's operations, of each operation's median scaled time.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]

#: calibration: share of job time, units per setup probe, reference unit time
CALIB_SHARE = 0.25
CALIB_SETUP_UNITS = 20
CALIB_REF_S = 0.0057

_CAL_A = np.random.default_rng(1).standard_normal(1000)
_CAL_M = np.random.default_rng(2).standard_normal((30, 30))
_CAL_S = np.full(1_500_000, 0.5)


def calib_unit() -> float:
    """Three kinds of work, about equal in time: an interpreter loop, numpy
    calls on 1000-element arrays, and a pass over a 12 MB array.

    Each kind alone tracked the workloads' time poorly: each shifts by about
    5 % between processes, and the host's slow phases slow memory-bound and
    interpreter-bound work by different amounts. Over ten runs of means-odd
    the spread of rows_per_s was 0.072 raw, 0.06 to 0.073 scaled by any one
    or two of the kinds, and 0.027 scaled by all three.
    """
    acc = 0.0
    for i in range(20_000):
        acc += (i & 7) * 0.5
    for _ in range(120):
        v = np.exp(-_CAL_A * _CAL_A)
        acc += float(np.einsum("i,i->", v, v)) + float((_CAL_M @ _CAL_M)[0, 0])
    return acc + float(np.add.reduce(_CAL_S * 0.5))


def calibrate(seconds: float, min_units: int = 1) -> list[float]:
    """Run units for about `seconds`, at least min_units; their times."""
    times = []
    while len(times) < min_units or sum(times) < seconds:
        start = time.perf_counter()
        calib_unit()
        times.append(time.perf_counter() - start)
    return times


class FieldCounter:
    """Counts the points at which the program evaluates initial data.

    Wraps the fields the workload builds: the CLI's make_field at the name
    cli.py looks up, and the benchmark's own duality test functions.
    """

    def __init__(self):
        self.points = 0
        self.tracer = None

    def wrap(self, field):
        inner = field.evaluator

        def counted(points):
            self.points += int(np.size(points)) // field.dim
            return inner(points)

        evaluator = counted
        if self.tracer is not None and self.tracer.active:
            evaluator = self.tracer.span("fields.eval", counted, spans.field_points)
        return dataclasses.replace(field, evaluator=evaluator)

    def install(self, cli):
        make_field = cli.make_field

        def counting_make_field(*args, **kwargs):
            return self.wrap(make_field(*args, **kwargs))

        cli.make_field = counting_make_field


class Program:
    """The program under test, driven the way its users drive it."""

    def __init__(self, run_dir: Path):
        from wavecauchy import cli, fields, geometry, kernels

        self.cli, self.fields, self.geometry, self.kernels = cli, fields, geometry, kernels
        self.run_dir = run_dir
        self.counter = FieldCounter()
        self.counter.install(cli)
        self.tracer = None
        self._sink = io.StringIO()

    def paths(self, op):
        return self.run_dir / f"{op.label}.ini", self.run_dir / f"{op.label}.csv"

    def prepare(self, op):
        """Write the op's config and remove its stale report (untimed)."""
        if op.command:
            config, report = self.paths(op)
            config.write_text(op.config)
            report.unlink(missing_ok=True)

    def run(self, op):
        """Run one operation; returns the CLI exit code or the duality pair."""
        traced = self.tracer is not None and self.tracer.active
        if op.command:
            config, report = self.paths(op)
            main = self.tracer.span("cli.main", self.cli.main) if traced else self.cli.main
            self._sink.seek(0)
            self._sink.truncate()
            with contextlib.redirect_stdout(self._sink):
                return main([op.command, "--config", str(config), "--out", str(report)])
        p = op.params
        phi = self.counter.wrap(self.fields.gaussian(p["n"], sigma=p["sigma"],
                                                     amplitude=p["amplitude"]))
        functional = self.kernels.DistributionFunctional(p["radius"],
                                                         self.geometry.Dimension(p["n"]))
        check = self.kernels.distribution_fourier_check
        if traced:
            check = self.tracer.span("kernels.fourier_check", check)
        return check(functional, phi, nodes_per_axis=p["nodes"])


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import wavecauchy

    if Path(wavecauchy.__file__).resolve().parent != (src / "wavecauchy").resolve():
        raise SystemExit(f"wavecauchy imported from {wavecauchy.__file__}, not {src}")


def warmed_program(args, run_dir: Path):
    """The program after the workload's untimed warm-up, and the round's ops.

    With --trace 1 the warm-up is traced too: it is where sphere rules are
    built (geometry.rule_s).
    """
    _import_program()
    ops, warm_ops = workloads.build(args.workload, args.seed)
    program = Program(run_dir)
    tracer = None
    if args.trace:
        tracer = spans.Tracer(spans.targets(sys.modules))
        program.tracer = program.counter.tracer = tracer
        tracer.install()
    for op in warm_ops:
        program.prepare(op)
        program.run(op)
    if tracer:
        tracer.uninstall()
    return program, ops


def setup_only(args, run_dir: Path):
    warmed_program(args, run_dir)
    print("READY", flush=True)
    calibrate(0.0)  # the first unit runs on cold caches
    print(f"CALIB {statistics.median(calibrate(0.0, CALIB_SETUP_UNITS))!r}", flush=True)


def _layer_metrics(stats: dict, setup_stats: dict) -> dict:
    """Per-layer values of one traced round: name -> (value, unit)."""
    def get(name, i):
        return stats.get(name, (0.0, 0.0, 0, 0))[i]

    field_calls = get("fields.eval", 2)
    return {
        "cli.self_s": (get("cli.main", 1), "s"),
        "fields.eval_s": (get("fields.eval", 0), "s"),
        "fields.calls": (field_calls, "count"),
        "fields.points_per_call": (get("fields.eval", 3) / field_calls if field_calls else 0.0,
                                   "points"),
        "geometry.rule_s": (setup_stats.get("geometry.sphere_rule", (0.0,))[0], "s"),
        "geometry.rule_nodes": (get("geometry.sphere_rule", 3), "points"),
        "radial.chain_s": (get("radial.chain_apply", 0), "s"),
        "radial.chain_calls": (get("radial.chain_apply", 2), "count"),
        "solvers.means_self_s": (get("solvers.solve_point", 1), "s"),
        "solvers.means_calls": (get("solvers.solve_point", 2), "count"),
        "solvers.state_self_s": (get("solvers.spectral_state", 1), "s"),
        "solvers.spectral_self_s": (get("solvers.spectral_solve", 1), "s"),
        "solvers.fft_s": (get("solvers.fft", 0), "s"),
        "solvers.fft_points": (get("solvers.fft", 3), "points"),
        "hotkernels.multiplier_s": (get("_kernels.wave_multiplier", 0), "s"),
        "hotkernels.multiplier_elems": (get("_kernels.wave_multiplier", 3), "points"),
        "hotkernels.dft_s": (get("_kernels.dft_at_points", 0), "s"),
        "hotkernels.dft_pairs": (get("_kernels.dft_at_points", 3), "count"),
        "kernels.identity_self_s": (get("kernels.identity_record", 1), "s"),
        "kernels.identity_calls": (get("kernels.identity_record", 2), "count"),
        "kernels.action_self_s": (get("kernels.action", 1), "s"),
    }


def timed_run(args, run_dir: Path) -> dict:
    program, ops = warmed_program(args, run_dir)
    tracer = program.tracer
    import checks  # scipy.integrate is the benchmark's, kept out of set-up probes

    checker = checks.Checker()
    last = {op.label: 0.0 for op in ops}  # previous time of each op, to size its calibration
    rounds = []
    loop_start = time.perf_counter()
    while True:
        index = len(rounds)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.round = index
            tracer.install()
        points_before = program.counter.points
        flags, job, scaled, ratios = [], [], [], []
        for op in ops:
            program.prepare(op)
            before = calibrate(0.5 * CALIB_SHARE * last[op.label])
            start = time.perf_counter()
            try:
                outcome = program.run(op)
            except Exception as exc:  # a crash fails the op's rows, not the run
                outcome = exc
            elapsed = time.perf_counter() - start
            after = calibrate(CALIB_SHARE * elapsed - sum(before))
            last[op.label] = elapsed
            ratio = statistics.median(before + after) / CALIB_REF_S
            job.append(elapsed)
            scaled.append(elapsed / ratio)
            ratios.append(ratio)
            flags.extend(checker.check(op, outcome, program.paths(op)[1] if op.command else None))
        if traced:
            tracer.uninstall()
        rows = len(flags)
        rounds.append({"rows": rows, "failed": flags.count(False), "job": job, "scaled": scaled,
                       "calib_ratio": statistics.median(ratios),
                       "points": program.counter.points - points_before, "traced": traced})
        done = time.perf_counter() - loop_start >= args.seconds
        if done and (tracer is None or len(rounds) % 2 == 0):
            break

    def rate(rnds, key):
        """Rows per round over the sum of the ops' median times."""
        per_op = zip(*(r[key] for r in rnds))
        return rnds[0]["rows"] / sum(statistics.median(times) for times in per_op)

    plain = [r for r in rounds if not r["traced"]]
    result = {
        "attempted": sum(r["rows"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "failures": checker.worst,
        "rounds": len(rounds),
        "round_rows": rounds[0]["rows"],
        "metrics": {
            "rows_per_s": rate(plain, "scaled"),
            "field_points": statistics.median(r["points"] for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "info": {
            "raw_rows_per_s": rate(plain, "job"),
            "calib_ratio": statistics.median(r["calib_ratio"] for r in rounds),
            "job_s": sum(sum(r["job"]) for r in rounds),
            "rounds": [[r["rows"] / sum(r["job"]), r["rows"] / sum(r["scaled"]), r["traced"]]
                       for r in rounds],
        },
    }
    if tracer:
        traced_rounds = [r for r in rounds if r["traced"]]
        per_round = [_layer_metrics(tracer.round_stats(r), tracer.round_stats(-1))
                     for r in range(len(rounds)) if rounds[r]["traced"]]
        layers = {k: (statistics.median(m[k][0] for m in per_round), unit)
                  for k, (_, unit) in per_round[0].items()}
        traced_rate = rate(traced_rounds, "scaled")
        layers["trace.overhead_pct"] = (
            100.0 * (1.0 - traced_rate / result["metrics"]["rows_per_s"]), "%")
        layers["machine.calib_ratio"] = (result["info"]["calib_ratio"], "ratio")
        layers["job.raw_rows_per_s"] = (result["info"]["raw_rows_per_s"], "1/s")
        result["layers"] = layers
        tracer.write(run_dir / "spans.json")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result")
    args = parser.parse_args(argv)
    run_dir = Path(args.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    if args.setup_only:
        setup_only(args, run_dir)
        return 0
    result = timed_run(args, run_dir)
    Path(args.result).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
