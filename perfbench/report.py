"""Run every workload of BENCHMARK.json once and print its metrics.

    python3 perfbench/report.py [--seed 1] [--trace 0|1] [--seconds N]

One table row per (workload, metric) with value and unit, and one line per
workload with its correctness flag and failed/attempted operation counts.
Exits non-zero if any run fails or is incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args()
    cmd = [sys.executable if c == "python3" else c for c in spec["command"]]
    ok = True
    for w in spec["workloads"]:
        proc = subprocess.run(
            cmd + ["--workload", w["name"], "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1]) if lines else None
        if proc.returncode != 0 or res is None:
            print(f"{w['name']}: run failed (exit {proc.returncode})")
            ok = False
            continue
        ok &= res["correct"]
        print(f"{w['name']}: correct={res['correct']} "
              f"failed={res['failed']}/{res['attempted']} operations")
        for name, m in res["metrics"].items():
            print(f"  {name:40s} {m['value']:14.4f} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
