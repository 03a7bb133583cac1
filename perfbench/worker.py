"""One benchmark run inside its own Ray session.

Started by ``perfbench/run.py``, which prepares the run directory and the
environment (``PERFBENCH_RUN_DIR``, ``RAY_TMPDIR``, ``PYTHONPATH``) and
enforces the time limit. Prints the run's result as the last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import numpy as np  # noqa: E402

from perfbench.trace import Tracer  # noqa: E402

MAX_FAILED_OPS = 3


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS counter so it covers the timed part."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def steal_share() -> tuple[int, int]:
    """(steal ticks, all ticks) of the host's CPUs so far."""
    with open("/proc/stat") as fh:
        v = [int(x) for x in fh.readline().split()[1:]]
    return v[7], sum(v)


def measure(wl, seconds: float, alternate: bool = False) -> dict:
    """Closed loop: operations back to back until ``seconds`` have passed.
    With ``alternate``, operations run in pairs, untraced and traced by
    turns, so host drift moves both alike and each side serves as many
    clean as drifted windows; their latencies are kept apart."""
    tracer = wl.ctx.tracer
    lat: list[float] = []
    traced: list[float] = []
    spans = 0
    items = attempted = failed = 0
    st0 = steal_share()
    t_end = time.perf_counter() + seconds
    i = 0
    while True:
        attempted += 1
        if alternate:
            tracer.enabled = i // 2 % 2 == 1
        n_spans = len(tracer.spans)
        try:
            wl.before(i)
            t = time.perf_counter()
            with tracer.span("op", workload=wl.name, i=i):
                n = wl.op(i)
            dt = time.perf_counter() - t
            wl.after(i)
        except Exception:  # one failed op is counted, the run goes on
            failed += 1
            traceback.print_exc()
        else:
            if alternate and tracer.enabled:
                traced.append(dt)
                spans += len(tracer.spans) - n_spans
            else:
                lat.append(dt)
            items += n
        i += 1
        if failed >= MAX_FAILED_OPS:
            break
        if time.perf_counter() >= t_end and (not alternate or traced):
            break
    if alternate:
        tracer.enabled = True
    st1 = steal_share()
    log(f"host steal {(st1[0] - st0[0]) / max(1, st1[1] - st0[1]):.3f} of "
        "CPU time during the timed loop")
    return {"lat": lat, "traced": traced, "spans": spans, "items": items,
            "attempted": attempted, "failed": failed}


def span_cost_s(n: int = 20000) -> float:
    """Seconds one recorded span costs, on a throwaway tracer."""
    tracer = Tracer(True, "span-cost")
    t = time.perf_counter()
    for _ in range(n):
        with tracer.span("x"):
            pass
    return (time.perf_counter() - t) / n


def overhead(m: dict) -> dict:
    """Tracing overhead, two ways: traced against untraced operations of
    the same loop (noise-bound when a run holds few operations), and the
    spans a traced operation records times the measured cost of one span."""
    p50 = statistics.median
    plain = p50(m["lat"])
    per_op = m["spans"] / len(m["traced"]) * span_cost_s()
    return {
        "trace.overhead_pct": {"value": 100.0 * (p50(m["traced"]) / plain
                                                 - 1.0), "unit": "%"},
        "trace.span_cost_pct": {"value": 100.0 * per_op / plain,
                                "unit": "%"},
    }


def end_to_end(m: dict, setup_s: float, rss_mb: float) -> dict:
    ms = np.asarray(m["lat"]) * 1000.0
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_p50_ms": {"value": float(np.median(ms)), "unit": "ms"},
        "items_per_s": {"value": m["items"] / float(np.sum(m["lat"])),
                        "unit": "1/s"},
        "driver_peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def run(args) -> dict:
    import ray
    from ray.data import DataContext

    from perfbench.workloads import WORKLOADS, Context

    run_dir = os.environ["PERFBENCH_RUN_DIR"]
    tracer = Tracer(bool(args.trace), f"{args.workload}-s{args.seed}")
    t = time.perf_counter()
    with tracer.span("setup.ray_init"):
        ray.init(address="local", num_cpus=args.ray_cpus, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=512 * 1024 * 1024,
                 _temp_dir=os.environ["RAY_TMPDIR"])
    ray_init_s = time.perf_counter() - t
    try:
        DataContext.get_current().enable_progress_bars = False
        ctx = Context(run_dir, args.seed, args.size, tracer)
        wl = WORKLOADS[args.workload](ctx)
        t = time.perf_counter()
        wl.prepare()
        log(f"inputs {time.perf_counter() - t:.2f} s, ray.init {ray_init_s:.2f} s")
        setup_s = ray_init_s + wl.setup()
        log(f"setup_s {setup_s:.2f}")
        reset_peak_rss()
        # traced: half the time, the layer probes need the rest
        m = measure(wl, args.seconds / 2 if args.trace else args.seconds,
                    alternate=bool(args.trace))
        rss = peak_rss_mb()
        if not m["lat"]:
            raise RuntimeError("no operation succeeded")
        log(f"measured {len(m['lat'] + m['traced'])} ops: "
            + " ".join(f"{x:.3f}" for x in m["lat"] + m["traced"]))
        wl.finish()
        if args.trace:
            from perfbench.layers import probe_layers

            metrics = probe_layers(ctx)
            metrics.update(overhead(m))
            tracer.write(os.path.join(run_dir, "trace.json"))
        else:
            metrics = end_to_end(m, setup_s, rss)
    finally:
        ray.shutdown()
    for e in ctx.errors:
        print(f"correctness: {e}", file=sys.stderr)
    return {"correct": not ctx.errors and m["failed"] == 0,
            "attempted": m["attempted"], "failed": m["failed"],
            "metrics": metrics}


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ray-cpus", type=int, required=True)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    result = run(p.parse_args())
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
