"""Fit job, and the featurize + merge passes every pipeline shares.

``read(reference partitions) → featurize_partials → split_reduced →
merge_per_partition → merge in partition_id order → median-heuristic σ →
save reference_state/``. ``validate()`` runs the same three passes over the
partitions it tests (with the drift checks fused into the merge), and
``score_window`` fans large windows out through ``featurize_partials``.

The reference analogue: encode the detector split and ``detector.fit(X_ref)``
(/root/reference/ml/training.py:423-460).
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.fragmented import TableManifest, read_images
from ..stages.constraints import KEY_SCHEMA, VIOLATION_SCHEMA
from ..stages.drift import VERDICT_SCHEMA, drift_verdicts_batch
from ..stages.featurize import OUT_SCHEMA, featurize_task
from ..state.partials import PartialState
from ..state.reference import ReferenceState
from .config import EngineConfig

# partial + domain-violation rows the driver will collect; beyond this the
# split/merge and the constraint checks run distributed (a pathological
# partition where every row violates must not ride through the driver)
REDUCED_DRIVER_MAX = 500_000

# key rows (one per input row, ~30 B each in KEY_SCHEMA) the driver will
# collect with them: the checks' driver kernels then take the key table
KEYS_DRIVER_MAX = 5_000_000

# the block-size bound featurize_partials declares for its output: a
# 1,024-row stage call writes ~100 KB of partials and ~40 KB of key rows
FEATURIZE_BLOCK_BYTES = 8 << 20

# partial-state rows above which the per-partition merge runs as a distributed
# groupby instead of driver-submitted stripe tasks (~100 KB per partial row)
DRIVER_MERGE_MAX_PARTIALS = 20_000

# one merged sketch state per partition: what the drift checks and the
# commit consume
STATE_ROW_SCHEMA = pa.schema([("partition_id", pa.int32()),
                              ("state", pa.binary()), ("n_rows", pa.int64())])


def merge_partials_table(batch: pa.Table, cfg: EngineConfig) -> PartialState:
    states = [PartialState.from_bytes(blob.as_py()) for blob in batch["state"]]
    if not states:
        return PartialState(cfg.marginals, cfg.fmt_categories)
    return PartialState.merge_many(states, cfg.ref_sample_cap)


def _merged_state_row(pid: int, merged: PartialState) -> pa.Table:
    """THE single-row ``STATE_ROW_SCHEMA`` table — one definition shared by
    both merge branches so the shape can't silently fork."""
    return pa.table({"partition_id": [int(pid)], "state": [merged.to_bytes()],
                     "n_rows": [merged.n_rows]}, schema=STATE_ROW_SCHEMA)


def featurize_partials(ds, cfg: EngineConfig,
                       manifest_broadcast: dict | None = None):
    """THE featurize pass: stateless ``featurize_task`` tasks over ``ds``,
    materialized. The map takes whole blocks (``batch_size=None``): Ray
    will not fuse a read into a ``map_batches`` that sets a batch size, so
    this is what makes the plan one ``ReadParquet->MapBatches(
    featurize_task)`` operator, one task per read block, with the image
    bytes never written to the object store. ``cfg.batch_size`` caps the
    rows of one stage call inside the task. A read split finer than its
    fragments stays unfused (``sources.fragmented.read_blocks``) and runs
    one featurize task per split block.

    The output is KB-scale per block (sketch partials, violation rows and
    one key row per input row), so the bytes never enter a shuffle, and the
    pass tells Ray so: until a task finishes, Ray prices each running
    task's output at ``target_max_block_size`` times the streaming
    generator's 2-block buffer
    (``ray/data/_internal/execution/interfaces/op_runtime_metrics.py:585-604``),
    256 MiB at the default, which under a 512 MiB object store admits one
    featurize task at a time. ``FEATURIZE_BLOCK_BYTES`` is set on this
    Dataset's own ``DataContext`` (each Dataset holds a private copy), so
    every CPU gets a task from the start and the global context is left as
    it was.

    The same private context keeps the output blocks in read order
    (``preserve_order``): the partials reach ``merge_per_partition`` in that
    order, and the sketch merge's float sums and t-digest compression depend
    on it, so a rerun of the same layout writes the same stats bytes. The
    outputs are KB-scale and materialized whole, so holding an early
    finisher until its predecessors land costs nothing measurable."""
    out = ds.map_batches(
        partial(featurize_task, cfg=cfg, manifest_broadcast=manifest_broadcast),
        batch_format="pyarrow",
        batch_size=None,
        zero_copy_batch=True,
    )
    out.context.target_max_block_size = FEATURIZE_BLOCK_BYTES
    out.context.execution_options.preserve_order = True
    return out.materialize()


# what split_reduced returns, in order: each row kind and its schema
_SPLIT = (("violation", VIOLATION_SCHEMA), ("partial", STATE_ROW_SCHEMA),
          ("key", KEY_SCHEMA))


def _kind_rows(kind: str, schema: pa.Schema):
    """Featurize output -> its ``kind`` rows in ``schema``."""
    def fn(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch["kind"], kind)).select(
            schema.names).cast(schema)
    return fn


def split_reduced(reduced, n_keys: int):
    """Split the featurize output of ``n_keys`` input rows (one key row
    each, so the manifest's row count) into (violation rows, partial rows,
    key rows).

    While the partials and violations fit (``REDUCED_DRIVER_MAX`` rows) and
    the keys do too (``KEYS_DRIVER_MAX``), the stream is collected once and
    split on the driver, and all three come back as ``pa.Table``s
    (``VIOLATION_SCHEMA``, ``STATE_ROW_SCHEMA``, ``KEY_SCHEMA``). Beyond
    either bound the split stays distributed and all three come back as
    Datasets."""
    if reduced.count() - n_keys <= REDUCED_DRIVER_MAX and \
            n_keys <= KEYS_DRIVER_MAX:
        tbl = pa.concat_tables([OUT_SCHEMA.empty_table(), *(
            reduced.iter_batches(batch_size=1 << 16, batch_format="pyarrow"))])
        return tuple(_kind_rows(kind, schema)(tbl)
                     for kind, schema in _SPLIT)
    return tuple(reduced.map_batches(_kind_rows(kind, schema),
                                     batch_format="pyarrow",
                                     zero_copy_batch=True)
                 for kind, schema in _SPLIT)


def _merge_stripe(tbl: pa.Table, pids: list, cfg: EngineConfig,
                  ref_state_dir: str | None) -> tuple:
    out = [_merged_state_row(pid, merge_partials_table(
        tbl.filter(pc.equal(tbl["partition_id"], int(pid))), cfg))
        for pid in pids]
    merged = pa.concat_tables(out)
    if ref_state_dir is None:
        return merged, VERDICT_SCHEMA.empty_table()
    return merged, drift_verdicts_batch(merged, cfg=cfg,
                                        ref_state_dir=ref_state_dir)


def merge_per_partition(partials, cfg: EngineConfig,
                        ref_state_dir: str | None = None):
    """Merge the partial rows into one state row per partition. Submits
    the merge and returns the function that waits for its result:
    ``(per-partition rows sorted by partition_id, drift verdicts)``, the
    verdicts empty unless ``ref_state_dir`` is given. The driver-side
    stripe tasks run while the caller does other driver work before the
    wait; the groupby side runs when waited on.

    Driver-collected partials within DRIVER_MERGE_MAX_PARTIALS merge in a
    handful of stripe tasks — the merge is GIL-bound Python (driver threads
    measured 1.5 s serial vs 3.1 s under an 8-thread pool), so parallelism
    must be process-level, and stripes rather than per-partition tasks
    keep the submit overhead down. With ``ref_state_dir`` each stripe runs
    the drift checks on its merged rows as soon as its merge finishes (the
    stateless ``drift_verdicts_batch`` kernel, warm-worker module cache).
    Beyond the gate — or when the split stayed distributed — the same merge
    runs as a groupby on ``partition_id``."""
    import ray

    if isinstance(partials, pa.Table) and \
            partials.num_rows <= DRIVER_MERGE_MAX_PARTIALS:
        pids = np.unique(partials["partition_id"].to_numpy())
        n_stripes = min(8, pids.size)
        tbl_ref = ray.put(partials)
        stripe = ray.remote(_merge_stripe)
        refs = [stripe.remote(tbl_ref, pids[i::n_stripes].tolist(), cfg,
                              ref_state_dir) for i in range(n_stripes)]

        def wait() -> tuple:
            chunks = ray.get(refs)
            return _merged([m for m, _ in chunks], [v for _, v in chunks])
        return wait

    def run_groupby() -> tuple:
        import ray.data

        ds = ray.data.from_arrow(partials) if isinstance(partials, pa.Table) \
            else partials

        def merge_group(batch: pa.Table) -> pa.Table:
            pid = int(batch["partition_id"][0].as_py())
            return _merged_state_row(pid, merge_partials_table(batch, cfg))

        grouped = ds.groupby("partition_id").map_groups(
            merge_group, batch_format="pyarrow").materialize()
        rows = list(grouped.iter_batches(batch_size=None,
                                         batch_format="pyarrow"))
        verdicts = [] if ref_state_dir is None else list(grouped.map_batches(
            partial(drift_verdicts_batch, cfg=cfg, ref_state_dir=ref_state_dir),
            batch_format="pyarrow", batch_size=None,
        ).iter_batches(batch_size=None, batch_format="pyarrow"))
        return _merged(rows, verdicts)
    return run_groupby


def _merged(rows: list, verdicts: list) -> tuple:
    per_part = pa.concat_tables(
        [STATE_ROW_SCHEMA.empty_table(), *rows]).sort_by("partition_id")
    return per_part, pa.concat_tables(
        [VERDICT_SCHEMA.empty_table(),
         *(v.cast(VERDICT_SCHEMA) for v in verdicts)])


def _merged_partition_state(manifest: TableManifest, pids: set[int],
                            cfg: EngineConfig) -> PartialState:
    """Featurize+sketch the given partitions and return ONE merged state:
    the per-partition rows merged in partition_id order."""
    skip = set(manifest.partition_ids()) - pids
    reduced = featurize_partials(read_images(manifest, skip_partitions=skip), cfg)
    _, partials, _ = split_reduced(
        reduced, sum(f.rows for f in manifest.select_fragments(pids)))
    per_part, _ = merge_per_partition(partials, cfg)()
    return merge_partials_table(per_part, cfg)


def fit(manifest_dir: str, out_state_dir: str, cfg: EngineConfig | None = None,
        reference_kinds: tuple[str, ...] = ("reference",)) -> ReferenceState:
    cfg = cfg or EngineConfig()
    manifest = TableManifest.load(manifest_dir)
    ref_pids = {
        pid for pid, meta in manifest.partitions.items() if meta.get("kind") in reference_kinds
    }
    if not ref_pids:
        raise ValueError(f"no partitions of kind {reference_kinds} in manifest")
    merged = _merged_partition_state(manifest, ref_pids, cfg)
    ref = ReferenceState.fit(
        merged,
        meta={"reference_partitions": sorted(ref_pids), "source": manifest_dir,
              "seed": cfg.seed},
    )
    ref.save(out_state_dir)
    return ref


def extend_reference(manifest_dir: str, state_dir: str,
                     partition_ids: list[int],
                     cfg: EngineConfig | None = None) -> ReferenceState:
    """Grow the frozen reference window in place: featurize ONLY the new
    partitions, merge their sketch state into the existing reference state
    (every accumulator is mergeable by construction), and re-derive the
    median-heuristic σ from the merged deterministic sample — the
    operational refit loop (the reference repo refits its detector on a new
    window; here the window EXTENDS without re-reading old partitions).
    Merge associativity: extend(fit(A), B) equals fit(A ∪ B) exactly for
    every count/histogram/HLL/CMS/sample accumulator and σ; t-digest
    centroids and running float sums are merge-tree-dependent at the
    epsilon/ulp level (pinned precisely in tests)."""
    cfg = cfg or EngineConfig()
    manifest = TableManifest.load(manifest_dir)
    existing = ReferenceState.load(state_dir)
    # sketch-shape guard: merging states fit under DIFFERENT marginal specs
    # or fmt domains would positionally add misaligned histogram bins with
    # no error anywhere downstream
    if existing.state.marginal_spec != {
            k: tuple(v) for k, v in cfg.marginals.items()}:
        raise ValueError(
            "config marginals do not match the fitted reference state "
            f"({existing.state.marginal_spec} vs {cfg.marginals})")
    if tuple(existing.state.fmt_categories) != tuple(cfg.fmt_categories):
        raise ValueError(
            "config fmt_categories do not match the fitted reference state")
    already = set(existing.meta.get("reference_partitions", []))
    new_pids = set(int(p) for p in partition_ids)
    overlap = new_pids & already
    if overlap:
        raise ValueError(f"partitions already in the reference window: "
                         f"{sorted(overlap)}")
    missing = new_pids - set(manifest.partition_ids())
    if missing:
        raise ValueError(f"unknown partitions: {sorted(missing)}")
    new_state = _merged_partition_state(manifest, new_pids, cfg)
    both = pa.table({
        "partition_id": pa.array([0, 1], pa.int32()),
        "state": pa.array([existing.state.to_bytes(), new_state.to_bytes()],
                          pa.binary()),
        "n_rows": pa.array([existing.state.n_rows, new_state.n_rows],
                           pa.int64()),
    })
    merged = merge_partials_table(both, cfg)
    ref = ReferenceState.fit(
        merged,
        meta={"reference_partitions": sorted(already | new_pids),
              "source": manifest_dir, "seed": cfg.seed},
    )
    ref.save(state_dir)
    return ref
