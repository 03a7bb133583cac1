"""Benchmark entry point: one seeded, time-limited run of one workload.

Run from the repository root:

    python3 perfbench/run.py --ray-cpus 3 --workload batch_validate \\
        --seed 1 --seconds 20 --trace 0

Workloads: batch_validate, serve_window (see
perfbench/README.md). ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones. The last stdout line is the result:

    {"correct": true, "attempted": 4, "failed": 0, "metrics": {...}}

The run itself happens in a child process (perfbench/worker.py) with its own
Ray session. Before it starts, leftover Ray processes are killed; the child
runs under a hard time limit, and a run that overruns it is killed and
reported as failed. Everything the run writes stays under
``.perfbench_runs/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch_validate", "serve_window")
RUN_LIMIT_S = 170.0
# AF_UNIX socket paths are limited to 107 bytes; Ray appends about 65
# ("/session_<date>_<time>_<pid>/sockets/plasma_store") to its temp dir
RAY_TMP_MAX = 40
# process names (not command lines, which a shell running this script may
# contain): Ray workers retitle themselves "ray::<task>"
RAY_PROCESSES = ("^ray::", "^raylet$", "^gcs_server$")


def ray_processes() -> bool:
    return any(subprocess.run(["pgrep", p], stdout=subprocess.DEVNULL
                              ).returncode == 0 for p in RAY_PROCESSES)


def stop_ray() -> None:
    """Kill leftover Ray workers, ``ray stop --force``, and wait until no
    Ray process is left."""
    subprocess.run(["pkill", "-9", "^ray::"])
    subprocess.run([sys.executable, "-m", "ray.scripts.scripts", "stop",
                    "--force"], stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=60)
    deadline = time.monotonic() + 20
    while ray_processes() and time.monotonic() < deadline:
        time.sleep(0.2)


def failed_result(attempted: int = 1) -> dict:
    return {"correct": False, "attempted": attempted, "failed": attempted,
            "metrics": {}}


def parse_result(stdout: str) -> dict | None:
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(res, dict) or set(res) != {"correct", "attempted",
                                                 "failed", "metrics"}:
        return None
    return res


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ray-cpus", type=int, default=3,
                   help="Ray logical CPUs (at least 3: fit() runs two "
                        "featurize actors plus a read slot)")
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: the smallest inputs, for the self-test")
    args = p.parse_args()
    t0 = time.monotonic()
    if args.ray_cpus < 3:
        p.error("--ray-cpus must be at least 3")
    for need in ("__ray_entry__.py",
                 "serverless_covariate_drift_detection_ray/__init__.py"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"perfbench: {need} not found under {ROOT}; run from a "
                  "checkout of the engine", file=sys.stderr)
            return 2

    if ray_processes():  # leftovers of an earlier, killed run
        stop_ray()
    runs = os.path.join(ROOT, ".perfbench_runs")
    run_dir = os.path.join(
        runs, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    for sub in ("tmp", "scratch"):
        os.makedirs(os.path.join(run_dir, sub))
    ray_tmp = os.path.join(ROOT, ".pbr")
    if len(ray_tmp) > RAY_TMP_MAX:  # checkout path too long for Ray sockets
        ray_tmp = tempfile.mkdtemp(prefix="pbr-")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [ROOT] + [x for x in [os.environ.get("PYTHONPATH")] if x]),
               PERFBENCH_RUN_DIR=run_dir, RAY_TMPDIR=ray_tmp,
               TMPDIR=os.path.join(run_dir, "tmp"),
               SCDD_SCRATCH_ROOT=os.path.join(run_dir, "scratch"))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--ray-cpus", str(args.ray_cpus), "--size", args.size]
    log_path = os.path.join(run_dir, "worker.log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=log, text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(
                timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - t0)))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, _ = proc.communicate()
            print(f"perfbench: run exceeded {RUN_LIMIT_S:.0f} s and was "
                  "killed", file=sys.stderr)
    if ray_processes():
        stop_ray()
    shutil.rmtree(ray_tmp, ignore_errors=True)
    for name in os.listdir(run_dir):  # keep only the log and the trace
        path = os.path.join(run_dir, name)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
    res = parse_result(out or "")
    if proc.returncode != 0 or res is None:
        with open(log_path) as fh:
            sys.stderr.write("".join(fh.readlines()[-40:]))
        print(json.dumps(failed_result()))
        return 1
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
