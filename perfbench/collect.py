"""Run the benchmark over several seeds and workloads into one record file.

Usage:
    python3 perfbench/collect.py --out FILE [--seeds 1..10] [--workloads a,b]
                                 [--trace 0|1]

Each run is a fresh ``perfbench/run.py`` process measuring BENCHMARK.json's
``run_seconds``; it appends one JSON line to FILE.  Seeds are the outer
loop, so the workloads interleave in time.  Read FILE with compare.py.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    if ".." in text:
        lo, _, hi = text.partition("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1..10"))
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    failures = 0
    for seed in args.seeds:
        for name in args.workloads.split(","):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
                   "--out", str(args.out)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
            ok = proc.returncode == 0 and json.loads(last[0]).get("correct") is True
            failures += not ok
            print(f"seed {seed:4d}  {name:22s} {'ok' if ok else 'FAILED'}", flush=True)
            if not ok:
                print(proc.stdout[-2000:] + proc.stderr[-2000:], flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
