"""Fit job, and the featurize + merge passes every pipeline shares.

``read(reference partitions) → featurize_partials → split_reduced →
merge_per_partition → merge in partition_id order → median-heuristic σ →
save reference_state/``. ``validate()`` runs the same three passes over the
partitions it tests (with the drift checks fused into the merge).

The reference analogue: encode the detector split and ``detector.fit(X_ref)``
(/root/reference/ml/training.py:423-460).
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.exchange import _as_table, _key_shuffle
from ..sources.fragmented import TableManifest, read_images
from ..stages.constraints import KEY_SCHEMA, VIOLATION_SCHEMA
from ..stages.drift import VERDICT_SCHEMA, drift_verdicts_batch
from ..stages.featurize import featurize_task
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

# one merged sketch state per partition: what the drift checks and the
# commit consume
STATE_ROW_SCHEMA = pa.schema([("partition_id", pa.int32()),
                              ("state", pa.binary()), ("n_rows", pa.int64())])

# a merge task's output: its state rows (kind "state") and drift verdicts
# (kind "verdict") in one table
MERGED_SCHEMA = pa.schema([("kind", pa.string()), *STATE_ROW_SCHEMA, *(
    f for f in VERDICT_SCHEMA if f.name != "partition_id")])


def merge_partials_table(batch: pa.Table, cfg: EngineConfig) -> PartialState:
    states = [PartialState.from_bytes(blob.as_py()) for blob in batch["state"]]
    if not states:
        return PartialState(cfg.marginals, cfg.fmt_categories)
    return PartialState.merge_many(states, cfg.ref_sample_cap)


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
        # each block cut to its kinds' columns as it lands, so the key rows
        # never travel in the wide featurize schema
        blocks = [b for b in reduced.iter_batches(batch_size=None,
                                                  batch_format="pyarrow")
                  if b.num_rows]
        return tuple(pa.concat_tables([schema.empty_table(), *(
            _kind_rows(kind, schema)(b) for b in blocks)])
            for kind, schema in _SPLIT)
    return tuple(reduced.map_batches(_kind_rows(kind, schema),
                                     batch_format="pyarrow",
                                     zero_copy_batch=True)
                 for kind, schema in _SPLIT)


def _merge_stripe(tbl: pa.Table, pids: list, cfg: EngineConfig,
                  ref_state_dir: str | None) -> pa.Table:
    """THE merge kernel, run by a stripe task and by a ``_key_shuffle``
    bucket alike: each of ``pids``' partial rows in ``tbl`` merged into one
    state row (kind "state"), then, with ``ref_state_dir``, the drift
    checks on those rows (kind "verdict"), in one ``MERGED_SCHEMA`` table."""
    states = [merge_partials_table(
        tbl.filter(pc.equal(tbl["partition_id"], pid)), cfg) for pid in pids]
    rows = pa.table({
        "partition_id": pa.array(pids, pa.int32()),
        "state": pa.array([s.to_bytes() for s in states], pa.binary()),
        "n_rows": pa.array([s.n_rows for s in states], pa.int64())})
    verdicts = (drift_verdicts_batch(rows, cfg=cfg, ref_state_dir=ref_state_dir)
                if ref_state_dir and pids else VERDICT_SCHEMA.empty_table())
    return pa.concat_tables([MERGED_SCHEMA.empty_table(), *(
        t.append_column("kind", pa.array([kind] * t.num_rows, pa.string()))
        for kind, t in (("state", rows), ("verdict", verdicts)))],
        promote_options="default")


def merge_per_partition(partials, cfg: EngineConfig,
                        ref_state_dir: str | None = None):
    """Merge the partial rows into one state row per partition. Submits
    the merge and returns the function that waits for its result:
    ``(per-partition rows sorted by partition_id, drift verdicts)``, the
    verdicts empty unless ``ref_state_dir`` is given. The driver-side
    stripe tasks run while the caller does other driver work before the
    wait; the exchange runs when waited on.

    A partials table the split collected merges in a handful of stripe
    tasks over one ``ray.put`` of it — the merge is GIL-bound Python
    (driver threads measured 1.5 s serial vs 3.1 s under an 8-thread
    pool), so parallelism must be process-level, and stripes rather than
    per-partition tasks keep the submit overhead down. A Dataset of
    partials (the split stayed distributed) meets in one ``_key_shuffle``
    on partition_id, each bucket a stripe. Either way a task runs the
    drift checks on the partitions it merged (the stateless
    ``drift_verdicts_batch`` kernel, warm-worker module cache), and a
    partition's partials merge in the order they are given."""
    import ray

    if isinstance(partials, pa.Table):
        pids = np.unique(partials["partition_id"].to_numpy())
        n_stripes = min(8, pids.size)
        tbl_ref = ray.put(partials)
        stripe = ray.remote(_merge_stripe)
        refs = [stripe.remote(tbl_ref, pids[i::n_stripes].tolist(), cfg,
                              ref_state_dir) for i in range(n_stripes)]
        return lambda: _merged(ray.get(refs))

    def bucket(t: pa.Table) -> pa.Table:
        pids = np.unique(t["partition_id"].to_numpy()).tolist()
        return _merge_stripe(t, pids, cfg, ref_state_dir)

    return lambda: _merged([_as_table(_key_shuffle(
        partials, ["partition_id"], bucket, None, "pyarrow",
        schema=MERGED_SCHEMA))])


def _merged(parts: list) -> tuple:
    t = pa.concat_tables([MERGED_SCHEMA.empty_table(), *parts])
    return (_kind_rows("state", STATE_ROW_SCHEMA)(t).sort_by("partition_id"),
            _kind_rows("verdict", VERDICT_SCHEMA)(t))


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
