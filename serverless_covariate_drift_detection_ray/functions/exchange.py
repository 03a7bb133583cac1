"""The engine's one keyed exchange: grouped work in two recipes
(SURVEY.md §2.3 / guide "Aggregation at scale"). Queries, the constraint
checks and the connected-components solve (``functions.graph``) all move
rows between tasks through here, and no other module picks a bucket count.

``_group_fold``, for a key domain bounded by the query (flags, statuses,
event types, fixed bins), never by the row count: each block is folded by
Arrow's group_by in the map task; the partials (at most blocks x groups
rows) fold again on the driver with each op's merge op; the query keeps
only its projection and its finish.

``_key_shuffle``, for keys that grow with the data (users, documents,
hashes, join keys, graph nodes) and for per-key row queries (top-n, ranks,
samples per key): each block is projected (often a partial fold) and split
by one NULL-safe hash of the keys into ``_salt_buckets`` buckets; each
bucket is one call of the kernel, which sees every row of its keys.
``_key_fold`` is ``_group_fold``'s partials folded in those buckets instead
of on the driver.

NULL contract, both recipes: NULL is one key, equal to itself, as in SQL's
GROUP BY and PARTITION BY. Arrow's group_by keeps it as a group; a pandas
kernel must pass dropna=False (pandas' groupby drops it), and Ray's sort
groupby raises on a NULL string key, so neither recipe uses it.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.fragmented import cluster_cpus


def _pa_from_pandas(df, **kw):
    """``pa.Table.from_pandas`` minus the ``b'pandas'`` schema metadata:
    pyarrow-16 schemas carrying that metadata are UNHASHABLE, which defeats
    Ray's schema-dedup early exit at EVERY exchange these tables feed (and
    logs a 'Failed to hash the schemas' warning per unify). Columns and
    dtypes are untouched."""
    return pa.Table.from_pandas(df, **kw).replace_schema_metadata(None)


def _salt_buckets(n_rows: int) -> int:
    """Bucket count of a ``_key_shuffle`` over ``n_rows`` measured rows
    (also the range count of the range-bucketed scans): one bucket a CPU,
    one more a ~1M rows, so every CPU folds a bucket and a bucket's kernel
    stays in memory as the data grows. No call site tunes it."""
    return max(cluster_cpus(), n_rows // 1_000_000)


# the op that folds an op's partials: counts add up, min/max fold by themselves
_MERGE_OP = {"sum": "sum", "count": "sum", "count_all": "sum",
             "min": "min", "max": "max"}


def _arrow_fold(t: pa.Table, keys: list[str], aggs: dict, merge: bool = False
                ) -> pa.Table:
    """One Arrow ``group_by(keys)`` over ``t``: each of ``aggs``' ops on its
    input column, or with ``merge`` each op's merge op on its output column
    (partials folding again). Keys first, then ``aggs`` in order."""
    spec = [(n, _MERGE_OP[op]) if merge else ([] if c is None else c, op)
            for n, (c, op) in aggs.items()]
    g = t.group_by(keys).aggregate(spec)
    # pyarrow puts the keys first, then the aggregates in spec order
    return pa.table(g.columns, names=[*keys, *aggs])


def _group_fold(ds, keys: list[str], aggs: dict[str, tuple[str | None, str]],
                project=None) -> pa.Table:
    """GROUP BY ``keys`` over ``ds`` (after ``project(batch)``, if given):
    ``aggs`` maps each output column to ``(input column, op)``, op one of
    sum / count / count_all / min / max (count_all takes ``None``). Returns
    one row per group, keys first; a NULL key is its own group. An input
    with no rows gives the typed empty result (``project`` applied to the
    source schema)."""
    def partial(batch: pa.Table) -> pa.Table:
        return _arrow_fold(batch if project is None else project(batch),
                           keys, aggs)

    parts = [b for b in ds.map_batches(partial, batch_format="pyarrow",
                                       zero_copy_batch=True).iter_batches(
                 batch_format="pyarrow", batch_size=None)
             if b.num_columns]  # skip schema-less 0-row blocks
    if not parts:  # no block at all: type the result from the source schema
        src = ds.schema()
        if src is None:
            return pa.table({c: pa.nulls(0) for c in [*keys, *aggs]})
        parts = [partial(src.base_schema.empty_table())]
    return _arrow_fold(pa.concat_tables(parts), keys, aggs, merge=True)


def _key_fold(ds, keys: list[str], aggs: dict[str, tuple[str | None, str]],
              project=None, finish=None):
    """``_group_fold`` for keys that grow with the data: the per-block
    partials meet in ``_key_shuffle`` buckets and fold again there, so no
    step holds every group. ``finish`` (Arrow table -> Arrow table), if
    given, runs on each bucket's folded groups: a projection, or a cut such
    as a per-bucket top-k. Returns what ``_key_shuffle`` returns."""
    def partial(batch: pa.Table) -> pa.Table:
        return _arrow_fold(batch if project is None else project(batch),
                           keys, aggs)

    def fold(t: pa.Table) -> pa.Table:
        g = _arrow_fold(t, keys, aggs, True)
        return g if finish is None else finish(g)

    return _key_shuffle(ds, keys, fold, partial, "pyarrow")


def _key_hash(t: pa.Table, keys: list[str]) -> np.ndarray:
    """One NULL-safe uint64 hash over the ``keys`` columns of ``t``: equal
    key tuples hash equal, NULL equal to NULL. Integer and temporal columns
    hash as int64, so an int32 key of one join side meets the int64 key of
    the other; a float key hashes by its bits, so join sides must not mix
    float and integer keys."""
    from .hashing import hash64, splitmix64

    h = np.zeros(t.num_rows, dtype=np.uint64)
    for k in keys:
        col = t[k]
        if pa.types.is_integer(col.type) or pa.types.is_temporal(col.type):
            col = col.cast(pa.int64())
        valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
        if pa.types.is_integer(col.type):
            v = hash64(pc.fill_null(col, 0).to_numpy())
        else:
            v = hash64(col.to_numpy(zero_copy_only=False))
        h = splitmix64(h ^ np.where(valid, v, np.uint64(0x5EED)))
    return h


def _split_block(block, project, keys: list[str], nb: int):
    """Map side of ``_key_shuffle``: ``project`` the block, then its rows
    per bucket (each slice typed, even when empty) and the bucket row
    counts."""
    from ray.data.block import BlockAccessor

    t = BlockAccessor.for_block(block).to_arrow()
    t = t if project is None else project(t)
    b = (_key_hash(t, keys) % np.uint64(nb)).astype(np.int64)
    order = np.argsort(b, kind="stable")
    ends = np.searchsorted(b[order], np.arange(1, nb + 1))
    return (*[t.take(p) for p in np.split(order, ends[:-1])],
            np.diff(ends, prepend=0))


def _fold_bucket(fn, batch_format: str, *parts):
    """Reduce side of ``_key_shuffle``: one ``fn`` call over a bucket's
    slices, and the output's row count."""
    from ray.data.block import BlockAccessor

    t = pa.concat_tables(parts, promote_options="default")
    out = fn(BlockAccessor.for_block(t).to_pandas()
             if batch_format == "pandas" else t)
    return out, len(out)


def _key_shuffle(ds, keys: list[str], fn, project=None,
                 batch_format: str = "pandas", schema: pa.Schema | None = None):
    """Every row with equal ``keys`` (NULL equal to NULL, as in SQL's GROUP
    BY and PARTITION BY) reaches the same ``fn`` call; one call holds many
    keys. ``project`` (Arrow table -> Arrow table: a partial fold, a join
    side's key column) runs on each block first. ``ds`` may be a list of
    datasets, a join's sides, with ``project`` a matching list. ``fn`` gets
    a bucket as a pandas frame or, with ``batch_format="pyarrow"``, an Arrow
    table, and returns the same kind.

    The exchange runs on Ray tasks over the executed input blocks: one
    split task a block projects it and hashes its keys (``_key_hash``) into
    typed bucket slices; one fold task a non-empty bucket calls ``fn``. The
    bucket count is derived from the measured input: one bucket a CPU, one
    more a ~1M rows. Returns a Dataset of the non-empty outputs; with none
    (an empty input, or every call returning 0 rows), ``fn``'s typed empty
    output as a ``pa.Table``. When no side carries a schema either (every
    block a schema-less 0-row one, as Ray's repartition of 0 rows makes),
    that empty output is ``schema.empty_table()``: callers whose input can
    be such a Dataset pass the result ``schema``."""
    import ray

    sides = list(zip(ds, project)) if isinstance(ds, list) else [(ds, project)]
    sides = [(ray.data.from_arrow(d) if isinstance(d, pa.Table) else d, p)
             for d, p in sides]
    blocks = []  # (project ref, block ref, rows) of every non-empty block
    for d, p in sides:
        p_ref = ray.put(p)
        blocks += [(p_ref, ref, meta.num_rows)
                   for bundle in d.iter_internal_ref_bundles()
                   for ref, meta in bundle.blocks if meta.num_rows]
    nb = _salt_buckets(sum(n for *_, n in blocks))
    split = _remote(_split_block).options(num_returns=nb + 1)
    pieces = [split.remote(block, p, keys, nb) for p, block, _ in blocks]
    counts = np.sum(ray.get([s[-1] for s in pieces]), axis=0) if pieces else []
    fold = _remote(_fold_bucket).options(num_returns=2)
    fn_ref = ray.put(fn)
    outs = [fold.remote(fn_ref, batch_format, *[s[j] for s in pieces])
            for j in np.flatnonzero(counts)]
    refs = [o for (o, _), n in zip(outs, ray.get([n for _, n in outs])) if n]
    if refs:
        return (ray.data.from_pandas_refs(refs) if batch_format == "pandas"
                else ray.data.from_arrow_refs(refs))
    # a Dataset of 0-row blocks reads back with no columns: hand on the
    # typed empty table itself
    if outs:
        out = ray.get(outs[0][0])
    else:  # typed by the sides whose (empty) blocks still carry a schema
        typed = [t if p is None else p(t) for t, p in
                 ((d.schema().base_schema.empty_table(), p) for d, p in sides
                  if d.schema() is not None)]
        if not typed and schema is not None:
            return schema.empty_table()
        empty = pa.concat_tables(typed, promote_options="default")
        out = fn(empty.to_pandas() if batch_format == "pandas" else empty)
    return (_pa_from_pandas(out, preserve_index=False)
            if isinstance(out, pd.DataFrame) else out)


def _as_dataset(out):
    """A ``_key_shuffle`` result as a Dataset, its typed empty table too."""
    import ray.data

    return ray.data.from_arrow(out) if isinstance(out, pa.Table) else out


def _as_table(out) -> pa.Table:
    """A ``_key_shuffle`` result of Arrow outputs as one table on the driver."""
    import ray

    return out if isinstance(out, pa.Table) else \
        pa.concat_tables(ray.get(out.to_arrow_refs()))


@functools.cache
def _remote(f):
    """``ray.remote(f)``, made once a process."""
    import ray

    return ray.remote(f)
