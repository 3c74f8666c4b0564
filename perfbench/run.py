"""wavecauchy benchmark: one workload per process, from a seed.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: means-odd, means-even, spectral, verify (see README.md). Run from
the root of a checkout; the program is imported from its src/ directory.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics (setup_s, rows_per_s, field_points, peak_rss_mb); with
--trace 1 it holds the per-layer metrics of a traced run instead. Both carry
`correct`, `attempted` and `failed` row counts. Run outputs (configs, CSV
reports, the result and the traced run's spans) go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

#: set-up samples per run; set-up time is their median
SETUP_PROBES = 3
#: the whole run, set-up probes included, must end well inside 180 s
DEADLINE_S = 170.0


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def _worker_args(args, run_dir: Path) -> list[str]:
    return [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--run-dir", str(run_dir)]


def setup_sample(args, run_dir: Path, timeout: float) -> float:
    """Seconds from spawning a fresh interpreter to the end of its warm-up,
    scaled to the reference machine speed by the calibration it runs after."""
    start = time.perf_counter()
    proc = subprocess.Popen(_worker_args(args, run_dir) + ["--setup-only"],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    ready = unit = None
    try:
        for line in proc.stdout:
            if line.startswith("READY"):
                ready = time.perf_counter() - start
            elif line.startswith("CALIB "):
                unit = float(line.split()[1])
        proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None or unit is None:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    from worker import CALIB_REF_S

    return ready * CALIB_REF_S / unit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.perf_counter() + DEADLINE_S
    src = ROOT / "src" / "wavecauchy"
    if not (src / "__init__.py").is_file():
        return _fail(f"no program source at {src}")
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; have {', '.join(workloads.WORKLOADS)}")
    run_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    # byte-compile first, so that no set-up sample pays for it
    compileall.compile_dir(str(src), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)

    setup = []
    try:
        if not args.trace:
            for i in range(SETUP_PROBES):
                setup.append(setup_sample(args, run_dir / f"probe{i}",
                                          deadline - time.perf_counter()))
        result_path = run_dir / "worker.json"
        subprocess.run(_worker_args(args, run_dir) + ["--result", str(result_path)],
                       stdout=subprocess.DEVNULL, cwd=ROOT, check=True,
                       timeout=max(1.0, deadline - time.perf_counter()))
    except (RuntimeError, subprocess.SubprocessError) as exc:
        return _fail(str(exc))
    worker = json.loads(result_path.read_text())

    for label, message in sorted(worker["failures"].items()):
        print(f"failed rows in {label}: {message}", file=sys.stderr)
    correct = set(worker["failures"]) <= workloads.KNOWN_FAULTS
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in worker["layers"].items()}
    else:
        m = worker["metrics"]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "rows_per_s": {"value": m["rows_per_s"], "unit": "1/s"},
            "field_points": {"value": m["field_points"], "unit": "points"},
            "peak_rss_mb": {"value": m["peak_rss_mb"], "unit": "MB"},
        }
    summary = {"correct": correct, "attempted": worker["attempted"], "failed": worker["failed"],
               "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps(
        dict(summary, rounds=worker["rounds"], setup_samples=setup, info=worker["info"]),
        indent=1))
    print(f"{args.workload} seed {args.seed}: {worker['rounds']} rounds of "
          f"{worker['round_rows']} rows, raw {worker['info']['raw_rows_per_s']:.4g} rows/s, "
          f"calibration ratio {worker['info']['calib_ratio']:.4g}")
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
