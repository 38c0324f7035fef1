"""pnrlidar benchmark: run one workload and print one JSON result line.

Usage:
    python3 perfbench/run.py --workload NAME --seconds S [--seed N]
                             [--trace 0|1] [--out FILE]

Run from the root of a source checkout; the package is imported from
``src/``.  One closed-loop caller, in this process and on one thread, drives
``pnrlidar.cli.main(argv)`` and sends the next operation only when the last
has returned.  Every operation's output is checked (checks.py); an operation
fails if main returns non-zero, raises, or fails its check.

--trace 0 measures the end-to-end metrics, tracing off:
    setup_s        median over fresh interpreters of import + argv parsing +
                   config or grid resolution (probe.py)
    wall_s         fastest warm operation
    throughput     work units per second at wall_s (units per workload)
    peak_alloc_mb  tracemalloc peak of one more operation, never timed
and prints, without a bound, wall_s_median and wall_s_tail (the highest
percentile with at least ten operations above it).  Other tenants of the
host slow operations by up to 2x for seconds to tens of seconds at a
time, so the median and the tail of a run measure the neighbours as much as
the program; the fastest operation is the steadiest time (README.md).
--trace 1 alternates untraced and traced operations and reports per-layer
metrics per traced operation (tracer.py), with consistency checks.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
--out appends a fuller record (environment, samples, checks) as one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1234
SETUP_PROBES = 11
TAIL_BEYOND = 10
STRONG_TARGET_CFG = HERE / "strong_target.cfg"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "simulation" or "analysis": which photon_stats caller must stay silent
    argvs: Callable[[int], list]  # seed -> argv of each main() call in one operation
    units: int  # work units per operation
    unit: str
    check: Callable[[list], int]  # outputs -> data rows emitted; raises CheckFailed
    noise_levels: int = 0  # (threshold, noise level) cells a boundary scan visits


def _read_cfg(path: Path) -> dict:
    values = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.split("#", 1)[0].partition("=")
        if sep:
            values[key.strip()] = value.strip()
    return {
        "num_bins": int(values["num_bins"]),
        "noise_mean": float(values["noise_mean"]),
        "targets": [(int(b), float(m)) for b, m in (t.split(":") for t in values["targets"].split(","))],
        "thresholds": [int(n) for n in values["thresholds"].split(",")],
        "repetitions": int(values["repetitions"]),
    }


def _workloads() -> dict:
    import numpy as np

    import checks

    # The bundled paper_fig4.cfg scenario; its expectations live here so a
    # change to the bundled file shows as a failed check.
    fig4 = {"num_bins": 50, "noise_mean": 1.0, "thresholds": [2, 5],
            "targets": [(10, 0.5), (20, 1.0), (30, 3.0), (40, 10.0)]}
    fig4_reps = 200_000
    strong = _read_cfg(STRONG_TARGET_CFG)
    deep_n = list(range(2, 21))
    sweep_grid = np.geomspace(0.01, 100.0, 200)
    boundary_n = [2, 3, 4, 5]
    nth_grid = np.geomspace(0.2, 40.0, 60)

    def simulation(scenario):
        keys = ("num_bins", "noise_mean", "targets", "thresholds")
        return lambda outputs: checks.check_simulation(outputs[0], *(scenario[k] for k in keys))

    return {w.name: w for w in [
        Workload(
            "fig4_sim", "simulation",
            lambda seed: [["simulate", "--config", "paper_fig4", "--repetitions", str(fig4_reps),
                           "--seed", str(seed)]],
            fig4_reps * fig4["num_bins"], "draws", simulation(fig4)),
        Workload(
            "strong_target_sim", "simulation",
            lambda seed: [["simulate", "--config", str(STRONG_TARGET_CFG), "--seed", str(seed)]],
            strong["repetitions"] * strong["num_bins"], "draws", simulation(strong)),
        Workload(
            "boundary_map", "analysis",
            lambda seed: [["boundary", "--thresholds", "2..5", "--nth-min", "0.2", "--nth-max", "40",
                           "--nth-points", "60"]],
            len(boundary_n) * len(nth_grid), "cells",
            lambda outputs: checks.check_boundary(outputs[0], boundary_n, nth_grid),
            noise_levels=len(boundary_n) * len(nth_grid)),
        Workload(
            "deep_threshold_scan", "analysis",
            lambda seed: [["sweep", "--n-th", "1", "--thresholds", "2..20", "--grid-min", "0.01",
                           "--grid-max", "100", "--grid-points", "200", "--grid-scale", "log"],
                          ["optimum", "--n-th", "1", "--thresholds", "2..20"]],
            len(deep_n) * (len(sweep_grid) + 1), "rows",
            lambda outputs: (checks.check_sweep(outputs[0], 1.0, deep_n, sweep_grid)
                             + checks.check_optimum(outputs[1], 1.0, deep_n))),
    ]}


# --- operations ---


class Ledger:
    """Runs and checks operations; counts attempts and failures."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.argvs = workload.argvs(seed)
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def op(self, call, around=None):
        """One operation through ``call``; returns (seconds, rows) or None if it failed.

        Only the main() calls are timed, inside ``around`` if given; the
        output check runs after.
        """
        self.attempted += 1
        try:
            with around or contextlib.nullcontext():
                start = time.perf_counter()
                outputs = [_call(call, argv) for argv in self.argvs]
                elapsed = time.perf_counter() - start
            return elapsed, self.workload.check(outputs)
        except (Exception, SystemExit) as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append("".join(traceback.format_exception_only(type(exc), exc)).strip())
            return None


def _call(call, argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = call(argv)
    if code != 0:
        raise RuntimeError(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


class _PeakAlloc:
    def __enter__(self):
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        self.peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


def _setup_time(argv) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), str(SRC), json.dumps(argv)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def _tail(times: list) -> tuple:
    """(value, percentile): highest order statistic with TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        return ordered[-1], 100.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


# --- the two kinds of run ---


def end_to_end(workload: Workload, ledger: Ledger, main, seconds: float, report: dict) -> dict:
    ledger.op(main)  # warm-up: caches, lazy imports
    times, setup = [], []
    start = time.perf_counter()
    while True:
        result = ledger.op(main)
        if result:
            times.append(result[0])
        elapsed = time.perf_counter() - start
        # Probes are spread over the run, like the operations, so that one
        # burst of interference does not set the whole median.
        if len(setup) < SETUP_PROBES and elapsed >= len(setup) * seconds / SETUP_PROBES:
            setup.append(_setup_time(ledger.argvs[0]))
        if elapsed >= seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(_setup_time(ledger.argvs[0]))
    if not times:
        return {}
    gc.collect()  # same collector state at the start of every measured peak
    peak = _PeakAlloc()
    ledger.op(main, around=peak)
    wall = min(times)
    tail, percentile = _tail(times)
    report["samples"] = {"op_s": times, "setup_s": setup}
    report["unbounded"] = {"wall_s_median": (statistics.median(times), "s"), "wall_s_tail": (tail, "s")}
    report["notes"] = [
        f"wall_s: fastest of {len(times)} operations",
        f"wall_s_tail: p{percentile:.1f} of {len(times)} operations",
        f"throughput: {workload.units} {workload.unit} per operation",
        f"setup_s: median of {len(setup)} fresh interpreters",
    ]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "throughput": (workload.units / wall, "units/s"),
        "peak_alloc_mb": (getattr(peak, "peak", 0) / 1e6, "MB"),
    }


def per_layer(workload: Workload, ledger: Ledger, main, seconds: float, report: dict) -> dict:
    from tracer import Patch, Tracer

    tracer = Tracer()
    traced_main = tracer.wrap(main, "cli")
    ledger.op(main)  # warm-up
    plain, traced, rows = [], [], 0
    start = time.perf_counter()
    while True:
        result = ledger.op(main)
        if result:
            plain.append(result[0])
        with Patch(tracer.wrap):
            result = ledger.op(traced_main)
        if result:
            traced.append(result[0])
            rows += result[1]
        if time.perf_counter() - start >= seconds:
            break
    if not traced or not plain:
        return {}

    n = len(traced)
    wall = sum(traced)
    self_s = tracer.self_seconds()
    bench_self = wall - tracer.root[1]
    kernel_calls, kernel_s, _, _ = tracer.calls_between("snr_analysis", "photon_stats")
    sampler_calls, sampler_s, draws, sampler_bytes = tracer.calls_between("rangefinder_sim", "photon_stats")
    ratio_evals = tracer.elements_of("snr_analysis.snr_ratio")

    checks = []
    layer_sum = sum(self_s.values()) + bench_self
    checks.append((
        f"layer self times + bench = {layer_sum:.6f} s, traced wall = {wall:.6f} s",
        abs(layer_sum - wall) <= 1e-6 * wall,
    ))
    predicted_zero = {"simulation": ("photon_stats.kernel_calls", kernel_calls),
                      "analysis": ("photon_stats.sampler_calls", sampler_calls)}[workload.kind]
    checks.append((f"{predicted_zero[0]} = {predicted_zero[1]} (predicted 0)", predicted_zero[1] == 0))
    report["checks"] = [{"check": text, "ok": ok} for text, ok in checks]
    report["samples"] = {"untraced_op_s": plain, "traced_op_s": traced}
    report["notes"] = [f"per traced operation, over {n} traced and {len(plain)} untraced operations"]
    report["spans"] = [
        {"caller": caller, "callee": callee, "calls": row[0], "total_s": row[1], "self_s": row[1] - row[2]}
        for (caller, callee), row in sorted(tracer.table.items())
    ]
    return {
        "cli.self_s": (self_s.get("cli", 0.0) / n, "s"),
        "snr_analysis.self_s": (self_s.get("snr_analysis", 0.0) / n, "s"),
        "snr_analysis.ratio_evals": (ratio_evals / n, "count"),
        "snr_analysis.evals_per_point": (ratio_evals / rows if rows else 0.0, "count"),
        "snr_analysis.crossing_yield": (
            rows / (n * workload.noise_levels) if workload.noise_levels else 0.0, "ratio"),
        "rangefinder_sim.self_s": (self_s.get("rangefinder_sim", 0.0) / n, "s"),
        "photon_stats.self_s": (self_s.get("photon_stats", 0.0) / n, "s"),
        "photon_stats.kernel_calls": (kernel_calls / n, "count"),
        "photon_stats.kernel_s": (kernel_s / n, "s"),
        "photon_stats.kernel_us_per_call": (1e6 * kernel_s / kernel_calls if kernel_calls else 0.0, "us"),
        "photon_stats.sampler_calls": (sampler_calls / n, "count"),
        "photon_stats.sampler_s": (sampler_s / n, "s"),
        "photon_stats.draws": (draws / n, "count"),
        "photon_stats.draws_per_s": (draws / sampler_s if sampler_s else 0.0, "1/s"),
        "photon_stats.sampler_bytes": (sampler_bytes / n, "B"),
        "bench.self_s": (bench_self / n, "s"),
        "trace.overhead_s": (min(traced) - min(plain), "s"),
        "trace.violations": (sum(not ok for _, ok in checks), "count"),
    }


# --- environment ---


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    cpu = {}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in ("model name", "cache size") and key not in cpu:
                    cpu[key] = value.strip()
    except OSError:
        pass
    return {
        "cpu_model": cpu.get("model name", "unknown"),
        "cache_size": cpu.get("cache size", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
    }


# --- entry point ---


def main() -> int:
    workloads = _workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="simulation seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="append a full JSON record here")
    args = parser.parse_args()

    if not (SRC / "pnrlidar" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'pnrlidar'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from pnrlidar.cli import main as cli_main

    workload = workloads[args.workload]
    ledger = Ledger(workload, args.seed)
    report: dict = {}
    run = per_layer if args.trace else end_to_end
    metrics = run(workload, ledger, cli_main, args.seconds, report)
    if not metrics:
        print(f"perfbench: every operation failed: {ledger.failures}", file=sys.stderr)
        return 1

    env = environment()
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    for name, (value, unit) in report.get("unbounded", {}).items():
        print(f"  {name:34s} {value:.6g} {unit} (printed only, no bound)")
    print(f"  {'error_rate':34s} {ledger.failed / ledger.attempted:.6g} "
          f"({ledger.failed} of {ledger.attempted} operations)")
    for note in report.get("notes", []):
        print("  # " + note)
    for check in report.get("checks", []):
        print(f"  check {'ok  ' if check['ok'] else 'VIOLATED'} {check['check']}")
    for failure in ledger.failures:
        print("  failed: " + failure)

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.out is not None:
        record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env, "result": result, **report}
        with args.out.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
