"""Shuffle-based constraints: PK uniqueness and phash near-duplicate clusters.

These are the engine's wide operations (SURVEY.md §2.7 items 2 and 4). Both run
over the key table (``KEY_SCHEMA``: image_id, phash, partition_id), which
the featurize pass emits as its 'key' rows — only keys ever enter a shuffle;
the heavy ``bytes`` column never does. Each check takes the keys as a
Dataset, or as a ``pa.Table`` the driver already holds, and returns the same
kind. Both kinds run the same kernels, so the input kind never changes the
output. Every exchange of a Dataset input is the engine's keyed one
(``functions.exchange``); near-dup alone keeps a size gate
(``NEARDUP_DRIVER_MAX``) between a driver search over a Dataset's distinct
phash values and the fully distributed one.

  * Uniqueness: per-block (image_id → count, min partition) partials, folded
    by one function. A driver-held table is screened first (only ids whose
    hash repeats become partials) and folded on the driver; a Dataset's
    partials fold in ``_key_shuffle`` buckets on image_id.
  * Near-dup: band keys are 21/21/22-bit phash slices — two images within
    Hamming distance ≤ 2 share ≥ 1 band (pigeonhole). Both paths sort a
    band's distinct values by band key, pair each band group with
    ``graph.run_pairs`` and keep the pairs within Hamming distance
    (``hamming_leq_pairs``); connected components over the verified edges
    weighted by row multiplicity give the clusters. A band group of more
    than ``HOT_RUN_CAP`` values (the skew escape hatch) pairs its smallest
    ``HOT_RUN_CAP`` values all-pairs and checks each larger value against
    the group's smallest only.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.exchange import _as_dataset, _key_fold, _key_shuffle
from ..functions.graph import (HOT_RUN_CAP, cc_labels, connected_components,
                               run_pairs)
from ..functions.hashing import hash64, probe_sorted
from ..functions.phash import hamming_leq_pairs, phash_bands
from ..pipelines.config import EngineConfig

VIOLATION_SCHEMA = pa.schema(
    [
        ("partition_id", pa.int32()),
        ("image_id", pa.string()),
        ("check", pa.string()),
        ("column", pa.string()),
        ("observed", pa.string()),
        ("expected", pa.string()),
    ]
)

# the constraint checks' input: one row per table row
KEY_SCHEMA = pa.schema([("image_id", pa.string()), ("phash", pa.int64()),
                        ("partition_id", pa.int32())])

NEARDUP_DRIVER_MAX = 50_000_000  # distinct phash values the driver will hold (8 B each)


def _empty_violations() -> "ray.data.Dataset":  # noqa: F821
    import ray.data

    return ray.data.from_arrow(VIOLATION_SCHEMA.empty_table())


def _id_partials(batch: pa.Table) -> pa.Table:
    """Per-block (image_id, cnt, min partition_id) partials over non-null ids
    (SQL PK semantics: null never equals null — featurize's image_id_nonnull
    check flags them)."""
    batch = batch.filter(pc.is_valid(batch["image_id"]))
    g = batch.group_by("image_id", use_threads=False).aggregate(
        [("image_id", "count"), ("partition_id", "min")])
    return pa.table({"image_id": g["image_id"], "cnt": g["image_id_count"],
                     "partition_id": g["partition_id_min"]})


def _fold_partials(t: pa.Table) -> pa.Table:
    """Sum ``cnt`` and take the min partition per image_id; one violation row
    per id counted more than once. Exact: counts key on the real image_id,
    so a 64-bit hash collision between two distinct ids never pools them."""
    g = t.group_by("image_id", use_threads=False).aggregate(
        [("cnt", "sum"), ("partition_id", "min")])
    g = g.filter(pc.greater(g["cnt_sum"], 1))
    n = g.num_rows
    return pa.table({
        "partition_id": g["partition_id_min"].cast(pa.int32()),
        "image_id": g["image_id"],
        "check": pa.array(["unique_image_id"] * n),
        "column": pa.array(["image_id"] * n),
        "observed": g["cnt_sum"].cast(pa.string()),
        "expected": pa.array(["1"] * n),
    }, schema=VIOLATION_SCHEMA)


def check_uniqueness(ds):
    """image_id PK check: violations for every id appearing more than once.

    A driver-held key table runs the screen, the partials and the fold
    right here and returns a table: a numpy unique over the id hashes
    (8 B/id) finds the repeated ones, and only rows with a repeated hash
    become partials. A Dataset is one ``_key_shuffle`` on image_id: each
    block's partials (``_id_partials``) meet in their id's bucket, so the
    in-bucket sum (``_fold_partials``) is the global count. A Dataset in
    gives a Dataset out.
    """
    if isinstance(ds, pa.Table):
        # nulls excluded first: two nulls hash alike and would screen as a
        # duplicate
        ds = ds.filter(pc.is_valid(ds["image_id"]))
        h = hash64(ds["image_id"].to_numpy(zero_copy_only=False))
        u, n = np.unique(h, return_counts=True)
        return _fold_partials(_id_partials(
            ds.filter(pa.array(probe_sorted(u[n > 1], h)))))
    return _as_dataset(_key_shuffle(ds, ["image_id"], _fold_partials,
                                    _id_partials, "pyarrow",
                                    schema=VIOLATION_SCHEMA))


def _block_uniques(batch: pa.Table) -> pa.Table:
    """Per-block distinct (phash, count) partials — dups collapse before
    leaving the workers. drop_null BEFORE to_numpy: a null upcasts the
    column to float64, which aliases 64-bit phash values (null rows are
    flagged separately by phash_nonnull). Shared by both near-dup paths."""
    ph = batch["phash"].drop_null().to_numpy(zero_copy_only=False)
    v, c = np.unique(ph.astype(np.int64), return_counts=True)
    return pa.table({"v": pa.array(v, pa.int64()),
                     "c": pa.array(c.astype(np.int64))})


def check_neardup(ds, cfg: EngineConfig):
    """phash near-duplicate clusters (SURVEY.md §2.7 item 4), driver-coordinated.

    The phash column is 8 B/row, so up to ``NEARDUP_DRIVER_MAX`` rows the
    whole candidate search runs as vectorized numpy on the driver
    (``_flag_clusters``). A driver-held key table is flagged right here
    (``_flag_rows``) and a table returned; for a Dataset only the final
    violation-row emit is distributed (broadcast flagged values → filter
    per batch), and a Dataset returned. Beyond the driver bound,
    ``check_neardup_distributed`` runs the same algorithm — same output
    contract.
    """
    hmax = cfg.neardup_hamming_max
    if isinstance(ds, pa.Table):
        u = _block_uniques(ds)
        flag_vals, reps = _flag_clusters(u["v"].to_numpy(), u["c"].to_numpy(),
                                         cfg)
        return _flag_rows(ds, flag_vals, reps, hmax)

    # choose the path BEFORE collecting anything: row count bounds the
    # distinct-phash count, so the driver collect is provably bounded
    if ds.count() > NEARDUP_DRIVER_MAX:
        return check_neardup_distributed(ds, cfg)

    # to_pandas (one bulk transfer) — iter_batches has ~10x per-batch driver
    # overhead at this row count (measured round 2)
    part = ds.select_columns(["phash"]).map_batches(
        _block_uniques, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    vals, mult = np.empty(0, np.int64), np.empty(0, np.int64)
    if len(part):
        vals, inv = np.unique(part.v.to_numpy(np.int64), return_inverse=True)
        mult = np.zeros(vals.size, dtype=np.int64)
        np.add.at(mult, inv, part.c.to_numpy(np.int64))
    return _emit_flagged(ds, *_flag_clusters(vals, mult, cfg), hmax)


def _flag_clusters(vals: np.ndarray, mult: np.ndarray,
                   cfg: EngineConfig) -> tuple[np.ndarray, np.ndarray]:
    """The driver near-dup search over distinct phash ``vals`` (ascending)
    with row multiplicities ``mult``: band the values, pair each band
    group (``run_pairs``), keep the pairs within ``neardup_hamming_max``,
    then connected components by scatter-min
    label propagation. Returns the flagged values (sorted) and their
    cluster reps."""
    # vals ascend, so a stable argsort per band keeps each group's indices
    # in value order
    pair_a, pair_b = [], []
    for keys in phash_bands(vals, 3).T:
        order = np.argsort(keys, kind="stable")
        i, j = run_pairs(keys[order], HOT_RUN_CAP)
        a, b = order[i], order[j]
        close = hamming_leq_pairs(vals, a, b, cfg.neardup_hamming_max)
        pair_a.append(a[close])
        pair_b.append(b[close])
    a, b = np.concatenate(pair_a), np.concatenate(pair_b)

    # connected components: shared scatter-min + pointer-jumping kernel
    labels = cc_labels(vals.size, a, b)
    csize = np.bincount(labels, weights=mult.astype(np.float64))
    flagged = csize[labels] >= cfg.neardup_min_cluster
    # labels are min indices and vals ascend: the cluster rep is its
    # smallest phash value; flagged values come out sorted
    return vals[flagged], vals[labels[flagged]]


def _flag_rows(batch: pa.Table, flag_vals: np.ndarray, reps: np.ndarray,
               hmax: int) -> pa.Table:
    """One violation row per ``batch`` row whose phash is in the sorted
    int64 ``flag_vals``, observed = "cluster-%016x" of its value's aligned
    int64 cluster rep in ``reps``. Null phash rows never match
    (phash_nonnull flags them)."""
    if flag_vals.size == 0:
        return VIOLATION_SCHEMA.empty_table()
    ph_null = pc.is_null(batch["phash"]).to_numpy(zero_copy_only=False)
    # fill_null BEFORE to_numpy: a null would upcast the column to
    # float64 and drop low bits of 64-bit values (lossy ≥ 2^53)
    ph = pc.fill_null(batch["phash"], 0).to_numpy(
        zero_copy_only=False).astype(np.int64)
    pos = np.minimum(np.searchsorted(flag_vals, ph), flag_vals.size - 1)
    mask = (flag_vals[pos] == ph) & ~ph_null
    hit = batch.filter(pa.array(mask))
    n = hit.num_rows
    if n == 0:
        return VIOLATION_SCHEMA.empty_table()
    return pa.table({
        "partition_id": hit["partition_id"].cast(pa.int32()),
        "image_id": hit["image_id"],
        "check": pa.array(["neardup_phash"] * n),
        "column": pa.array(["phash"] * n),
        "observed": pa.array(["cluster-%016x" % (r & 0xFFFFFFFFFFFFFFFF)
                              for r in reps[pos[mask]].tolist()]),
        "expected": pa.array([f"hamming>{hmax}"] * n),
    }, schema=VIOLATION_SCHEMA)


def _emit_flagged(ds, flag_vals: np.ndarray, reps: np.ndarray,
                  hmax: int) -> "ray.data.Dataset":  # noqa: F821
    """Broadcast flagged-value emit shared by BOTH Dataset near-dup paths:
    ``_flag_rows`` over every block, so crossing the driver/distributed
    gate never changes the output contract."""
    import ray

    if flag_vals.size == 0:
        return _empty_violations()
    wrapped = {"ref": ray.put((flag_vals, reps))}

    def emit_violations(batch: pa.Table) -> pa.Table:
        # stateless task: the broadcast probe is a shared-memory zero-copy
        # ray.get per call (no actor spawn, scales with free CPUs and reuses
        # warm workers — a 2-actor pool ceiling cost ~2s of the commit tail)
        return _flag_rows(batch, *ray.get(wrapped["ref"]), hmax)

    return ds.map_batches(emit_violations, batch_format="pyarrow",
                          zero_copy_batch=True)


def check_neardup_distributed(ds, cfg: EngineConfig) -> "ray.data.Dataset":  # noqa: F821
    """At-scale near-dup path with DRIVER-IDENTICAL semantics: distinct
    (phash, multiplicity) by ``_key_fold`` → band-explode the distinct values
    → one ``_key_shuffle`` on the band key pairing each band group with
    ``run_pairs`` and verifying the pairs into EDGES over values (16 B/pair)
    → one GLOBAL
    ``connected_components`` over those edges and every distinct value,
    weighted by multiplicity → components of weight ≥ min_cluster flag
    their values → the same broadcast flagged-value emit as the driver path.

    CC is global, so chain clusters linked pair by pair through DIFFERENT
    bands are assembled, and ``observed`` carries the same "cluster-%016x"
    min-phash rep as the driver path.
    """
    hmax, min_cluster = cfg.neardup_hamming_max, cfg.neardup_min_cluster

    # (node = distinct phash value, w = its row multiplicity)
    distinct = _key_fold(ds, ["node"], {"w": ("w", "sum")}, lambda b:
                         _block_uniques(b).rename_columns(["node", "w"]))

    def explode(batch: pa.Table) -> pa.Table:
        v = batch["node"].to_numpy().astype(np.int64)
        return pa.table({"band_key": phash_bands(v, 3).ravel(),  # band in bits 58+
                         "v": np.repeat(v, 3)})

    def edges_bucket(t: pa.Table) -> pa.Table:
        # a bucket holds EVERY row of its band keys (values are distinct
        # here, so a key's rows are its full band group)
        bk = t["band_key"].to_numpy()
        v = t["v"].to_numpy().astype(np.int64)
        order = np.lexsort((v, bk))  # per band, values ascending
        i, j = run_pairs(bk[order], HOT_RUN_CAP)
        a, b = order[i], order[j]
        close = hamming_leq_pairs(v, a, b, hmax)
        return pa.table({"va": pa.array(v[a[close]], pa.int64()),
                         "vb": pa.array(v[b[close]], pa.int64())})

    edges = _key_shuffle(distinct, ["band_key"], edges_bucket, explode,
                         "pyarrow")

    def flag(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["size"], min_cluster)).select(
            ["node", "lab"])

    # the flagged set collects to the driver for the broadcast emit — its
    # size is bounded by the ACTUAL near-dup violation count (16 B/value)
    fl = connected_components(edges, distinct).map_batches(
        flag, batch_format="pyarrow").to_pandas()
    if not len(fl):
        return _empty_violations()
    flagged_v = fl["node"].to_numpy(np.int64)
    order = np.argsort(flagged_v, kind="stable")
    return _emit_flagged(ds, flagged_v[order],
                         fl["lab"].to_numpy(np.int64)[order], hmax)
