"""The main validation DAG (SURVEY.md §3.2):

    read(images) [read_blocks: >= one task a CPU, >= 1,024 rows a task;
                  finished partitions skipped]
      → map_batches(featurize_task)   [the ONE scan of the image files, read
                                       fused in; stateless tasks; bytes
                                       never shuffle]
      → split: violations | per-block partials | keys (one row per image)
      → partials → merge per partition → drift   [stripe tasks, drift fused in,
                                                  submitted first so they run
                                                  while the driver checks the
                                                  keys]
      → keys → uniqueness + near-dup    [driver kernels on the key table]
      → violations = domain ++ uniqueness ++ near-dup  [Arrow concat]
      → one writer per partition (_write_partition_violations; clean
        partitions get an empty file)
      → quarantine from the written files        [cfg.quarantine]
      → per-partition commit (verdicts + column_stats + lineage)

Past its driver cap each keyed step runs the same kernel in the buckets of
the one keyed exchange (``functions.exchange._key_shuffle``): the merge
and the key checks (the split's caps in fit.py) and the violations writer
(``VIOLATIONS_DRIVER_MAX``).

A ``validate(resume=False)`` within the split's driver cap runs one Ray Data
execution, the featurize pass; a resumed run adds one key-column read of the
skipped partitions, because uniqueness is table-wide. Block counts come from
the manifest (``sources.fragmented.read_blocks``) and are reported as
``summary["read_blocks"]``.

The violations cap only decides where each partition's rows are gathered:
both sides hand them to the same writer, so the files, the per-check counts,
the quarantine and the commit do not depend on which side ran
(``summary["violations_streamed"]`` says which did).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions.exchange import _as_table, _key_shuffle
from ..sources.fragmented import TableManifest, read_blocks, read_images
from ..stages.constraints import (KEY_SCHEMA, VIOLATION_SCHEMA, check_neardup,
                                  check_uniqueness)
from ..stages.drift import TS_FORMAT, VERDICT_SCHEMA
from ..state.atomic import atomic_publish
from ..state.checkpoint import CheckpointStore, config_fingerprint
from ..state.partials import PartialState
from .config import EngineConfig
from .fit import featurize_partials, merge_per_partition, split_reduced

CONSTRAINT_CHECKS = ("unique_image_id", "neardup_phash")


# total violation rows collected to the driver (cheaper than any exchange at
# small sizes, measured); beyond this, the writers run in the buckets of a
# _key_shuffle on partition_id (set 0 to force that side)
VIOLATIONS_DRIVER_MAX = 1_000_000

# what _write_partition_violations returns: one row per constraint check plus
# "__domain__" for every other check
VIOLATION_COUNTS_SCHEMA = pa.schema([("partition_id", pa.int32()),
                                     ("check", pa.string()),
                                     ("n", pa.int64())])


def _write_partition_violations(store: CheckpointStore, t: pa.Table) -> pa.Table:
    """The one violations writer, on both sides of the size gate: sort one
    partition's rows by (check, image_id) — byte-stable output (SURVEY.md
    §7 "hard parts") — publish them as its violations.parquet
    (``CheckpointStore.write_violations``) and return its per-check counts
    (VIOLATION_COUNTS_SCHEMA)."""
    pid = int(t["partition_id"][0].as_py())
    t = t.sort_by([("check", "ascending"), ("image_id", "ascending")])
    store.write_violations(pid, t)
    checks = t["check"].to_numpy(zero_copy_only=False)
    names = list(CONSTRAINT_CHECKS)
    counts = [int((checks == c).sum()) for c in names]
    return pa.table({
        "partition_id": pa.array([pid] * (len(names) + 1), pa.int32()),
        "check": pa.array(names + ["__domain__"]),
        "n": pa.array(counts + [len(checks) - sum(counts)], pa.int64()),
    }, schema=VIOLATION_COUNTS_SCHEMA)


COLUMN_STATS_SCHEMA = pa.schema(
    [
        ("partition_id", pa.int32()),
        ("column", pa.string()),
        ("count", pa.int64()),
        ("null_count", pa.int64()),
        ("min", pa.float64()),
        ("max", pa.float64()),
        ("mean", pa.float64()),
        ("std", pa.float64()),
        ("p50", pa.float64()),
        ("p95", pa.float64()),
        ("distinct_est", pa.float64()),
    ]
)


def _column_stats_rows(pid: int, ps: PartialState) -> list[dict]:
    rows = []
    for col, st in ps.stats.items():
        q = ps.digests[col].quantile([0.5, 0.95])
        rows.append({
            "partition_id": pid, "column": col, "count": st.count,
            "null_count": st.nulls,
            "min": st.minv if st.count else float("nan"),
            "max": st.maxv if st.count else float("nan"),
            "mean": st.mean, "std": st.std,
            "p50": float(q[0]), "p95": float(q[1]),
            "distinct_est": float("nan"),
        })
    rows.append({
        "partition_id": pid, "column": "image_id", "count": ps.n_rows, "null_count": 0,
        "min": float("nan"), "max": float("nan"), "mean": float("nan"),
        "std": float("nan"), "p50": float("nan"), "p95": float("nan"),
        "distinct_est": ps.id_hll.estimate(),
    })
    rows.append({
        "partition_id": pid, "column": "phash", "count": ps.n_rows, "null_count": 0,
        "min": float("nan"), "max": float("nan"), "mean": float("nan"),
        "std": float("nan"), "p50": float("nan"), "p95": float("nan"),
        "distinct_est": ps.phash_hll.estimate(),
    })
    return rows


def _swap_quarantine_partitions(qroot: str, qtmp: str, todo) -> None:
    """Per-partition atomic swap: a partial/resume run must replace ONLY the
    partitions it just validated, never clobber the rest; partitions in
    ``todo`` with no freshly-written dir have their stale dirs cleared."""
    import shutil

    os.makedirs(qroot, exist_ok=True)
    written = {d for d in os.listdir(qtmp) if d.startswith("partition_id=")}
    for pid in todo:
        name = f"partition_id={pid}"
        dst = os.path.join(qroot, name)
        stale = dst + ".old"
        shutil.rmtree(stale, ignore_errors=True)
        if os.path.exists(dst):
            os.rename(dst, stale)
        if name in written:
            os.rename(os.path.join(qtmp, name), dst)
        shutil.rmtree(stale, ignore_errors=True)
    shutil.rmtree(qtmp, ignore_errors=True)


def _quarantine(manifest: TableManifest, store: CheckpointStore, todo) -> int:
    """Dead-letter job: each partition's quarantine is built FROM ITS OWN
    written violations.parquet by a remote task — read the partition's
    violating ids, zone-map-prune its fragments, re-read only those that
    can match, filter, write. Runs after the violations writer and before
    any lineage marker. The one global piece of state is the
    DUPLICATED-KEY id set (check == unique_image_id): a duplicate violation
    is recorded once at its min-partition locus, so the other partitions'
    copies can only be found with a cross-partition id set. Those ids are
    collected by a first wave of tiny per-partition tasks over EVERY
    partition's file (ids only) — the locus may be a resumed partition
    whose committed file holds the row — and broadcast via ray.put;
    everything else stays per-partition. Output is
    quarantine/partition_id=N/quarantine.parquet, swapped in per partition
    (_swap_quarantine_partitions)."""
    import shutil

    import ray

    qroot = os.path.join(store.out_dir, "quarantine")
    qtmp = f"{qroot}.tmp.{os.getpid()}"
    shutil.rmtree(qtmp, ignore_errors=True)
    os.makedirs(qtmp, exist_ok=True)

    frags_of: dict[int, list[tuple[str, tuple | None]]] = {}
    for f in manifest.fragments:
        frags_of.setdefault(f.partition_id, []).append(
            (os.path.join(manifest.root, f.file), (f.stats or {}).get("image_id")))

    @ray.remote
    def dup_ids_of(pid: int) -> np.ndarray:
        vfile = store.violations_path(pid)
        if not os.path.exists(vfile):
            return np.empty(0, dtype=object)
        t = pq.read_table(vfile, columns=["image_id", "check"])
        t = t.filter(pc.equal(t["check"], "unique_image_id"))
        return (t["image_id"].drop_null()
                .to_numpy(zero_copy_only=False).astype(object))

    dup_parts = ray.get([dup_ids_of.remote(pid)
                         for pid in manifest.partition_ids()])
    dup_ids = np.unique(np.concatenate([p for p in dup_parts if p.size])
                        ) if any(p.size for p in dup_parts) else \
        np.empty(0, dtype=object)
    dup_ref = ray.put(dup_ids)

    @ray.remote
    def quarantine_partition(pid: int) -> int:
        vfile = store.violations_path(pid)
        own = np.empty(0, dtype=object)
        if os.path.exists(vfile):
            # null ids (image_id_nonnull violations) can't be re-identified
            # by key — drop before the object-dtype sort-based unique
            own = (pq.read_table(vfile, columns=["image_id"])["image_id"]
                   .drop_null().to_numpy(zero_copy_only=False).astype(object))
        bad = np.unique(np.concatenate([own, ray.get(dup_ref)]))
        if not bad.size:
            return 0
        sorted_bad = np.sort(bad)
        parts = []
        for path, st in frags_of.get(pid, []):
            if st is not None:  # zone-map prune
                lo_i = int(np.searchsorted(sorted_bad, st[0], side="left"))
                if not (lo_i < sorted_bad.size and sorted_bad[lo_i] <= st[1]):
                    continue
            elif not own.size:
                # stats-less legacy fragment: only a partition with its own
                # violations is searched
                continue
            t = pq.read_table(path)
            m = np.isin(t["image_id"].to_numpy(zero_copy_only=False), bad)
            if m.any():
                parts.append(t.filter(pa.array(m)))
        if not parts:
            return 0
        out = pa.concat_tables(parts)
        if "partition_id" in out.column_names:  # hive layout drops the key col
            out = out.drop_columns(["partition_id"])
        d = os.path.join(qtmp, f"partition_id={pid}")
        os.makedirs(d, exist_ok=True)
        atomic_publish(os.path.join(d, "quarantine.parquet"),
                       lambda tmp: pq.write_table(out, tmp))
        return out.num_rows

    counts = ray.get([quarantine_partition.remote(pid) for pid in todo])
    _swap_quarantine_partitions(qroot, qtmp, todo)
    return int(sum(counts))


def validate(
    manifest_dir: str,
    ref_state_dir: str,
    out_dir: str,
    cfg: EngineConfig | None = None,
    resume: bool = True,
) -> dict:
    """Run the full validation pass; returns a summary dict.

    ``summary["stages"]`` holds wall seconds per step, in the order they
    run: ``featurize`` (the one scan), ``split`` (featurize output into
    violations, partials and keys), ``bg_ids_read`` (the key table
    complete: the resumed partitions' keys read back, ~0 on a fresh run),
    ``bg_uniq_setup`` and ``bg_neardup_setup`` (``check_uniqueness`` and
    ``check_neardup`` on the keys: the whole checks on the driver, the
    checks' driver side and their exchanges past the cap),
    ``constraints_join`` (the three violation sources joined) and
    ``constraints`` (the joined Dataset executed; 0 on the driver),
    ``merge_partials`` (with the drift checks; ``drift`` stays 0.0: the
    driver's submit and final wait, the stripe tasks running on the workers
    while the driver checks the keys between them),
    ``commit_io``, ``quarantine`` (when on) and ``commit`` (the rest).
    The ``bg_`` names date from when these ran on a helper thread."""
    import ray.data

    cfg = cfg or EngineConfig()
    t0 = time.time()
    manifest = TableManifest.load(manifest_dir)
    store = CheckpointStore(out_dir)
    cfg_hash = config_fingerprint(cfg)
    finished = store.finished_partitions(cfg_hash) if resume else set()
    todo = [p for p in manifest.partition_ids() if p not in finished]
    summary = {
        "partitions_total": len(manifest.partition_ids()),
        "partitions_skipped": len(finished),
        "partitions_processed": len(todo),
        "rows_processed": 0,
    }
    if not todo:
        if cfg.quarantine:
            # sink options are excluded from the resume fingerprint, so a
            # fully-resumed run produces NO dead-letter output — say so
            # instead of silently returning an empty/absent quarantine dir
            summary["quarantine_skipped"] = (
                "all partitions resumed; rerun with resume=False to "
                "produce quarantine output")
        summary["wall_s"] = time.time() - t0
        return summary
    rows_todo = sum(f.rows for f in manifest.fragments if f.partition_id not in finished)
    summary["rows_processed"] = rows_todo

    # broadcast the referential universe once (SURVEY.md §2.5)
    broadcast = None
    manifest_ids_path = os.path.join(manifest_dir, "truth", "manifest_ids.parquet")
    if os.path.exists(manifest_ids_path):
        from ..functions.hashing import hash64

        ids = pq.read_table(manifest_ids_path)["image_id"].to_numpy(zero_copy_only=False)
        # hash + sort once on the driver; ship the sorted uint64 probe array
        broadcast = {"ref": ray.put(np.sort(hash64(ids.astype(object))))}

    stage_t = {}
    # the layout this run reads with: the featurize read's planned blocks
    summary["read_blocks"] = {
        "images": read_blocks(manifest.select_fragments(set(todo)), None)}

    # ---- the one scan of the image files: featurize + sketch partials +
    # constraint keys, the parquet read fused in; the broadcast id-set
    # probes referential integrity inside the same pass ----
    ds = read_images(manifest, skip_partitions=finished)
    t1 = time.time()
    reduced = featurize_partials(ds, cfg, broadcast)
    stage_t["featurize"] = time.time() - t1

    # violations | per-block partials | keys: tables on the driver while the
    # reduced stream fits, Datasets beyond (fit.split_reduced)
    t1 = time.time()
    domain_viol, partials, keys = split_reduced(reduced, rows_todo)
    stage_t["split"] = time.time() - t1

    # ---- merge sketch partials per partition, with the drift checks vs
    # the frozen reference fused into the merge tasks (stateless tasks over
    # the WARM featurize worker processes, the reference window loaded once
    # per worker via the module cache in stages.drift — the reference's
    # SingletonMeta contract). The stripe tasks are submitted here and run
    # while the driver checks the keys below; the groupby side runs when
    # waited on ----
    t1 = time.time()
    merged = merge_per_partition(partials, cfg, ref_state_dir)
    t_merge = time.time() - t1

    # uniqueness is table-wide: a resumed partition's keys still count, so
    # they are read back (key columns only) when partitions were skipped
    t1 = time.time()
    if finished:
        done = read_images(manifest, columns=KEY_SCHEMA.names,
                           skip_partitions=set(todo))
        if isinstance(keys, pa.Table):
            keys = pa.concat_tables([keys, *(
                t.select(KEY_SCHEMA.names).cast(KEY_SCHEMA)
                for t in ray.get(done.to_arrow_refs()) if t.num_rows)])
        else:
            keys = keys.union(done)
    stage_t["bg_ids_read"] = time.time() - t1

    # ---- the constraint checks, on the driver when the keys are a table ----
    t1 = time.time()
    uniq_viol = check_uniqueness(keys)
    stage_t["bg_uniq_setup"] = time.time() - t1
    t1 = time.time()
    neardup_viol = check_neardup(keys, cfg)
    stage_t["bg_neardup_setup"] = time.time() - t1

    t1 = time.time()
    if isinstance(domain_viol, pa.Table):
        violations = pa.concat_tables([domain_viol, uniq_viol, neardup_viol])
    else:
        violations = domain_viol.union(uniq_viol, neardup_viol)
    stage_t["constraints_join"] = time.time() - t1
    t1 = time.time()
    if isinstance(violations, pa.Table):
        n_viol = violations.num_rows
    else:
        violations = violations.materialize()
        n_viol = violations.count()
    stage_t["constraints"] = time.time() - t1

    t1 = time.time()
    per_part, verdicts = merged()
    stage_t["merge_partials"] = t_merge + time.time() - t1
    stage_t["drift"] = 0.0  # fused into merge_partials

    ts = cfg.freeze_time or time.strftime("%d/%m/%Y %H:%M:%S.000000", time.gmtime())
    assert TS_FORMAT  # format documented in stages.drift

    # ---- violations: the size gate only picks how each partition's rows
    # reach the one writer; every todo partition's file lands before the
    # quarantine reads it and before any lineage marker. commit_io times
    # the writes; it leaves out the driver collect but holds the exchange's
    # split tasks, whose fold tasks are the writers ----
    streamed = n_viol > VIOLATIONS_DRIVER_MAX
    with ThreadPoolExecutor(max_workers=8) as wpool:
        if streamed:
            todo_set = set(todo)

            def write_bucket(t: pa.Table) -> pa.Table:
                # a duplicate's min locus can be a resumed partition: its
                # committed file stays, as on the driver side
                pids = np.unique(t["partition_id"].to_numpy())
                return pa.concat_tables([VIOLATION_COUNTS_SCHEMA.empty_table(), *(
                    _write_partition_violations(
                        store, t.filter(pc.equal(t["partition_id"], pid)))
                    for pid in pids.tolist() if pid in todo_set)])

            t1 = time.time()
            counts = _as_table(_key_shuffle(
                violations, ["partition_id"], write_bucket, None,
                "pyarrow")).to_pylist()
        else:
            collected = violations if isinstance(violations, pa.Table) else \
                pa.concat_tables([VIOLATION_SCHEMA.empty_table(), *(
                    violations.iter_batches(batch_size=1 << 16,
                                            batch_format="pyarrow"))])

            def write_slice(pid: int) -> list[dict]:
                t = collected.filter(pc.equal(collected["partition_id"], pid))
                return (_write_partition_violations(store, t).to_pylist()
                        if t.num_rows else [])

            t1 = time.time()
            counts = [r for rows in wpool.map(write_slice, todo) for r in rows]
        viol_counts = {pid: {"total": 0, "domain": 0,
                             **{c: 0 for c in CONSTRAINT_CHECKS}} for pid in todo}
        for r in counts:
            d = viol_counts[r["partition_id"]]
            d["domain" if r["check"] == "__domain__" else r["check"]] += r["n"]
            d["total"] += r["n"]
        # clean partitions get an empty file, which also replaces any file a
        # prior run left there
        list(wpool.map(
            lambda pid: store.write_violations(pid, VIOLATION_SCHEMA.empty_table()),
            [pid for pid in todo if not viol_counts[pid]["total"]]))
    stage_t["commit_io"] = time.time() - t1

    # constraint verdict rows (per partition × constraint check)
    c_rows = []
    for pid in todo:
        cnts = viol_counts[pid]
        for check in CONSTRAINT_CHECKS:
            n_bad = cnts[check]
            c_rows.append({
                "partition_id": pid, "check": check, "column": "image_id" if "unique" in check else "phash",
                "statistic": float(n_bad), "p_value": float("nan"), "alpha": cfg.alpha,
                "passed": n_bad == 0, "n_ref": 0, "n_test": 0, "datetime": ts,
            })
        c_rows.append({
            "partition_id": pid, "check": "schema_domain", "column": "*",
            "statistic": float(cnts["domain"]), "p_value": float("nan"), "alpha": cfg.alpha,
            "passed": cnts["domain"] == 0, "n_ref": 0, "n_test": 0, "datetime": ts,
        })
    verdicts = pa.concat_tables(
        [verdicts, pa.Table.from_pylist(c_rows, schema=VERDICT_SCHEMA)]
    ).sort_by([("partition_id", "ascending"), ("check", "ascending"), ("column", "ascending")])

    # ---- quarantine (dead-letter) sink: violating rows' FULL payloads,
    # re-read from only the fragments that can hold a violating id, so a
    # repair job can re-ingest exactly what failed. Row payloads never ride
    # through the validation shuffles. The gate counts violation ROWS, an
    # upper bound on the violating ids ----
    summary["quarantined"] = 0
    if cfg.quarantine:
        tq = time.time()
        if n_viol <= cfg.quarantine_max_rows:
            summary["quarantined"] = _quarantine(manifest, store, todo)
        else:
            summary["quarantine_skipped"] = "violations exceed quarantine_max_rows"
            import shutil

            qroot = os.path.join(out_dir, "quarantine")
            for pid in todo:  # stale dead-letter rows would mislead repair
                shutil.rmtree(os.path.join(qroot, f"partition_id={pid}"),
                              ignore_errors=True)
        stage_t["quarantine"] = time.time() - tq

    # ---- per-partition commit with lineage (I/O-bound → thread pool) ----
    states = dict(zip(per_part["partition_id"].to_pylist(),
                      per_part["state"].to_pylist()))
    wall = time.time() - t0

    def commit_one(pid: int) -> None:
        ps = PartialState.from_bytes(states[pid]) if pid in states else None
        col_stats = pa.Table.from_pylist(
            _column_stats_rows(pid, ps) if ps else [], schema=COLUMN_STATS_SCHEMA
        )
        store.commit_partition(
            partition_id=pid,
            fragment_ids=manifest.fragments_of(pid),
            verdicts=verdicts.filter(pc.equal(verdicts["partition_id"], pid)),
            violations=None,  # already written above
            column_stats=col_stats,
            stats_blob=states.get(pid, b""),
            wall_s=wall / max(len(todo), 1),
            violation_count=viol_counts[pid]["total"],
            config_hash=cfg_hash,
        )

    t1 = time.time()
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(commit_one, todo))
    stage_t["commit_io"] += time.time() - t1

    stage_t["commit"] = time.time() - t0 - sum(stage_t.values())
    summary["stages"] = {k: round(v, 2) for k, v in stage_t.items()}
    summary.update({
        "wall_s": wall,
        "rows_per_s": rows_todo / wall if wall > 0 else float("nan"),
        "verdicts": verdicts.num_rows,
        "violations": n_viol,
        "violations_streamed": streamed,
        "drift_flagged": int(
            pc.sum(
                pc.and_(pc.invert(verdicts["passed"]),
                        pc.is_in(verdicts["check"], value_set=pa.array(["ks", "chi2", "mmd"])))
            ).as_py() or 0
        ),
    })
    return summary
