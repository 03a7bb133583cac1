"""Driver-facing query suite over the testdata tables (TESTDATA.md).

Each function maps one engine capability from SURVEY.md §2 onto the generic
TPC-H-ish tables so the driver can verify it against a DuckDB oracle
(``__ray_entry__.oracle_sql``). The implementations are Ray-Data-first: column
pruning at the read, vectorized Arrow/numpy batch kernels, partial aggregation
before anything moves, broadcast small-side joins, key-shuffled large joins.

Grouped work goes through the engine's one exchange, ``functions.exchange``:
``_group_fold`` for bounded-key GROUP BYs, ``_key_shuffle`` and ``_key_fold``
for keys that grow with the data and for per-key row queries. Both treat
NULL as one key, as SQL's GROUP BY and PARTITION BY do.

Float determinism: every float that reaches the driver's value-hash is rounded
with ``floor(x * 10^d + 0.5) / 10^d`` — the same IEEE ops the oracle SQL uses
(``FLOOR(x * 10^d + 0.5) / 10^d``) — so Ray and DuckDB produce bit-identical
values despite different summation orders.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.exchange import (_as_dataset, _as_table, _group_fold,
                                  _key_fold, _key_shuffle, _pa_from_pandas,
                                  _salt_buckets)
from ..functions.graph import run_pairs
from ..functions.stats import chi2_test_counts, ks_2samp
from ..sources.fragmented import cluster_cpus, data_blocks
from .config import scratch_root


def _read(sf_dir: str, table: str, columns: list[str] | None = None):
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def _read_blocked(sf_dir: str, table: str, columns: list[str] | None = None,
                  rows_per_block: int = 262_144, floor: int = 4):
    """Read with a row-count-scaled block count from parquet metadata (no
    data read): ``sources.fragmented.data_blocks``, the one policy the
    image-table key reads share. Ray's default split hands a shuffle 64+
    blocks per side even for a 15k-row table."""
    import pyarrow.parquet as pq

    import ray.data

    pf = pq.ParquetFile(f"{sf_dir}/{table}.parquet")
    n = pf.metadata.num_rows
    # explicit metadata-FREE schema: the testdata files carry b'pandas'
    # schema metadata, and such schemas are unhashable in pyarrow 16 —
    # which defeats Ray's schema-dedup early exit at every exchange these
    # blocks feed and logs a warning per unify. Passing schema= strips it
    # at the source (no extra map stage); _read keeps the bare read
    # because its callers rely on metadata-only .count().
    sch = pf.schema_arrow.remove_metadata()
    if columns is not None:
        sch = pa.schema([sch.field(c) for c in columns])
    return ray.data.read_parquet(
        f"{sf_dir}/{table}.parquet", columns=columns, schema=sch,
        override_num_blocks=data_blocks(n, rows_per_block, floor))


def _read_cpu_blocked(sf_dir: str, table: str,
                      columns: list[str] | None = None):
    """Blocked read whose floor is the CLUSTER width — for COMPUTE-bound
    per-row/group kernels (quadratic DP, tokenization) where the exchange's
    output parallelism (= input block count) must track CPUs, not just rows
    (measured on the fuzzy join: 4 blocks -> 13 s, 32 -> 3 s on the same
    input). The data-scaled term still takes over at corpus scale."""
    return _read_blocked(sf_dir, table, columns, floor=max(4, cluster_cpus()))


def _num_rows(sf_dir: str, table: str) -> int:
    """``table``'s row count from its parquet footer (no data read)."""
    import pyarrow.parquet as pq

    return pq.ParquetFile(f"{sf_dir}/{table}.parquet").metadata.num_rows


def _round(x, d: int):
    """floor(x*10^d + 0.5)/10^d — matches the oracle's FLOOR-based rounding."""
    s = 10.0**d
    return np.floor(np.asarray(x, dtype=np.float64) * s + 0.5) / s


def _ensure_staged_cache(out_dir: str, write_fn) -> None:
    """Content-fingerprinted sink cache (``_staged_sink``): per-process
    staging + atomic rename. Stale sibling fingerprints of the same table
    prefix are pruned before writing (regenerated fixtures change
    size/mtime and would otherwise accumulate dead dirs forever), and the
    rename fallback re-checks the published marker — an OSError there is
    only benign when a concurrent writer actually won; anything else
    re-raises instead of leaving a confusing missing-dir failure later.
    The staging dir exists before ``write_fn`` runs: Ray's writers create
    none for an empty dataset, and an empty table still publishes."""
    import os
    import shutil

    marker = os.path.join(out_dir, "_SUCCESS")
    if os.path.exists(marker):
        return
    parent = os.path.dirname(out_dir)
    prefix = os.path.basename(out_dir).rsplit("_", 2)[0] + "_"
    if os.path.isdir(parent):
        for d in os.listdir(parent):
            # never touch live staging dirs (*.tmp.<pid>) or the target
            if (d.startswith(prefix) and ".tmp." not in d
                    and os.path.join(parent, d) != out_dir):
                shutil.rmtree(os.path.join(parent, d), ignore_errors=True)
    tmp = f"{out_dir}.tmp.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    write_fn(tmp)
    open(os.path.join(tmp, "_SUCCESS"), "w").close()
    try:
        os.rename(tmp, out_dir)
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.path.exists(marker):  # not a concurrent winner
            raise


# ---------------------------------------------------------------------------
# IO roundtrips (the resumable-output contract, SURVEY §2.1 S4): one staged
# sink, one content-keyed block writer, one read-back fold (_io_roundtrip).
# ---------------------------------------------------------------------------


def _staged_sink(sf_dir: str, table: str, kind: str, name: str, write) -> str:
    """Publish ``write(tmp)``'s output once per source content (the
    parquet's size + mtime_ns, so a same-row-count regenerated fixture
    can't serve stale output) via ``_ensure_staged_cache``, and return
    ``{scratch_root()}/scdd_{kind}/{tag}/{name}_{st_size}_{st_mtime_ns}``."""
    import os

    st = os.stat(f"{sf_dir}/{table}.parquet")
    tag = os.path.basename(os.path.normpath(sf_dir))
    out_dir = (f"{scratch_root()}/scdd_{kind}/{tag}/"
               f"{name}_{st.st_size}_{st.st_mtime_ns}")
    _ensure_staged_cache(out_dir, write)
    return out_dir


def _write_keyed_blocks(ds, tmp: str, key_col: str, ext: str,
                        write_table) -> None:
    """Sink for a format Ray Data cannot write (ray 2.49 has no ORC or IPC
    writer): ``write_table(block, path)`` runs once per block as a
    ``map_batches`` side effect. File names are CONTENT-keyed on the
    block's ``key_col``, so a retried task rewrites its own file instead of
    adding one, and each file lands via ``.tmp`` + ``os.replace``, so a
    mid-write crash never publishes a truncated file."""
    import os

    def write_block(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            # never manufacture 0-row files: an empty decode block
            # would infer a null-typed string column downstream
            return pa.table({"n": pa.array([0], pa.int64())})
        from ..functions.hashing import hash64, splitmix64

        ids = batch[key_col].to_numpy().astype(np.int64)
        # Each id's hash is remixed with its POSITION before the xor
        # fold — an order/position-invariant sum can cancel across
        # structured key sets, a position-mixed fold only collides on
        # a genuine 64-bit hash collision.
        mixed = splitmix64(hash64(ids).astype(np.uint64)
                           + splitmix64(np.arange(ids.size, dtype=np.uint64)))
        key = int(np.bitwise_xor.reduce(mixed)
                  ^ np.uint64(ids.size)) & 0xFFFFFFFFFFFFFFFF
        path = os.path.join(tmp, f"part-{key:016x}.{ext}")
        os.makedirs(tmp, exist_ok=True)  # task may land on another node
        write_table(batch, path + ".tmp")
        os.replace(path + ".tmp", path)
        return pa.table({"n": pa.array([batch.num_rows], pa.int64())})

    ds.map_batches(write_block, batch_format="pyarrow",
                   zero_copy_batch=True).sum("n")  # forces execution


def _native_io(fmt: str, **read_kw):
    """(write, read) for a format Ray Data writes and reads itself;
    ``read_kw`` goes to ``ray.data.read_{fmt}``."""
    import ray.data

    return (lambda ds, tmp, key_col: getattr(ds, f"write_{fmt}")(tmp),
            lambda out_dir, src_rows: getattr(ray.data, f"read_{fmt}")(
                out_dir, file_extensions=[fmt], **read_kw))


def _keyed_io(ext: str, write_table, nrows, read_table):
    """(write, read) for a format Ray Data cannot write: the sink is
    ``_write_keyed_blocks``, the source ``read_binary_files`` + a per-blob
    ``read_table(buffer)``. The rows on disk (``nrows(path)``, footers
    only) must equal the source's row count first, so a lost or collided
    block file is loud instead of silently diverging from the oracle."""
    def read(out_dir: str, src_rows: int):
        import os

        import ray.data

        paths = [os.path.join(out_dir, f) for f in sorted(os.listdir(out_dir))
                 if f.endswith("." + ext)]
        disk_rows = sum(nrows(p) for p in paths)
        if disk_rows != src_rows:
            raise RuntimeError(
                f"{ext} roundtrip: {disk_rows} rows on disk != {src_rows} "
                f"source rows in {out_dir} — stale or collided staging; "
                "delete the dir")

        def decode(batch: pa.Table) -> pa.Table:
            # zero-copy: each blob's buffer feeds the reader directly
            return pa.concat_tables([read_table(pa.BufferReader(b.as_buffer()))
                                     for b in batch["bytes"]])

        # one block per file: Ray's default split pads the read with
        # 0-row blocks, which the decode map passes on without a schema
        return ray.data.read_binary_files(
            paths, override_num_blocks=len(paths)).map_batches(
            decode, batch_format="pyarrow")

    return (lambda ds, tmp, key_col: _write_keyed_blocks(
        ds, tmp, key_col, ext, write_table), read)


def _io_roundtrip(sf_dir: str, table: str, columns: list[str], project,
                  kind: str, io, group: str, key: str,
                  measures: dict[str, tuple[str, str]]):
    """The roundtrip recipe: ``project`` the ``columns`` of ``table``,
    publish them with ``io``'s write through ``_staged_sink(kind)``, read
    them back with ``io``'s read, and ``_group_fold`` per ``group``: ``n``,
    ``sum_hash = Σ((key % 2^31) · 2654435761 mod 2^32)`` and each
    ``measures`` entry ``name: (int64 column, "sum" | "min" | "max")``; a
    NULL ``group`` is a group of its own. A source with 0 rows returns the
    typed empty result without touching Ray, as the oracle's GROUP BY
    does."""
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(f"{sf_dir}/{table}.parquet")
    src_rows = pf.metadata.num_rows
    if src_rows == 0:
        return pa.schema(
            [pf.schema_arrow.field(group)]
            + [(c, pa.int64()) for c in ("n", "sum_hash", *measures)]
        ).empty_table()
    write, read = io
    ds = _read_blocked(sf_dir, table, columns).map_batches(
        project, batch_format="pyarrow", zero_copy_batch=True)
    out_dir = _staged_sink(sf_dir, table, kind, table,
                           lambda tmp: write(ds, tmp, key))

    def hashed(batch: pa.Table) -> pa.Table:
        ids = batch[key].to_numpy().astype(np.int64)
        return pa.table({
            group: batch[group],
            "sum_hash": ((ids % 2147483648) * 2654435761) % 4294967296,
            **{m: batch[c].to_numpy().astype(np.int64)
               for m, (c, _) in measures.items()}})

    return _group_fold(read(out_dir, src_rows), [group], {
        "n": (None, "count_all"), "sum_hash": ("sum_hash", "sum"),
        **{m: (m, op) for m, (_, op) in measures.items()}}, hashed)


def _footer_minmax(sf_dir: str, table: str, col: str) -> tuple[float, float]:
    """Column [min, max] from parquet row-group footer statistics — no data
    read. One definition (the quantile engine, MAD and the distributed
    PageRank's node-domain guard), and a file missing the statistics is a
    named error, never a silently skipped guard."""
    import pyarrow.parquet as pq_

    pf = pq_.ParquetFile(f"{sf_dir}/{table}.parquet")
    ci = pf.schema_arrow.get_field_index(col)
    stats = [pf.metadata.row_group(g).column(ci).statistics
             for g in range(pf.metadata.num_row_groups)]
    if any(st is None or st.min is None or st.max is None for st in stats):
        raise ValueError(
            f"{table}.parquet: column {col!r} lacks min/max statistics in at "
            "least one row group — rewrite the file with statistics enabled")
    return (min(float(st.min) for st in stats),
            max(float(st.max) for st in stats))


def _round_cols(df: pd.DataFrame, spec: dict[str, int]) -> pd.DataFrame:
    for col, d in spec.items():
        df[col] = _round(df[col].to_numpy(), d)
    return df


def q1_pricing_summary(sf_dir: str):
    """TPC-H Q1 shape: the canonical partial-aggregate groupby."""
    def project(batch: pa.Table) -> pa.Table:
        disc = pc.multiply(batch["l_extendedprice"],
                           pc.subtract(pa.scalar(1.0), batch["l_discount"]))
        return batch.append_column("disc_price", disc)

    df = _group_fold(_read_blocked(
        sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_quantity",
                             "l_extendedprice", "l_discount"]),
        ["l_returnflag", "l_linestatus"],
        {"sum_qty": ("l_quantity", "sum"),
         "sum_base_price": ("l_extendedprice", "sum"),
         "sum_disc_price": ("disc_price", "sum"),
         "count_order": (None, "count_all")}, project).to_pandas()
    df["avg_qty"] = df.sum_qty / df.count_order
    df["avg_price"] = df.sum_base_price / df.count_order
    df = _round_cols(df, {"sum_qty": 2, "sum_base_price": 2, "sum_disc_price": 2,
                          "avg_qty": 4, "avg_price": 4})
    return _pa_from_pandas(df, preserve_index=False)


Q1_SQL = """
SELECT l_returnflag, l_linestatus,
  FLOOR(SUM(l_quantity)*100+0.5)/100 AS sum_qty,
  FLOOR(SUM(l_extendedprice)*100+0.5)/100 AS sum_base_price,
  FLOOR(SUM(l_extendedprice*(1-l_discount))*100+0.5)/100 AS sum_disc_price,
  COUNT(*) AS count_order,
  FLOOR(SUM(l_quantity)/COUNT(*)*10000+0.5)/10000 AS avg_qty,
  FLOOR(SUM(l_extendedprice)/COUNT(*)*10000+0.5)/10000 AS avg_price
FROM lineitem GROUP BY l_returnflag, l_linestatus
"""


def _pricing_grouping_sets(sf_dir: str, sets: list[list[str]]) -> pa.Table:
    """GROUP BY ROLLUP / CUBE (returnflag, linestatus) as ``sets``: the wide
    input is folded ONCE at the leaf level; every coarser grouping set
    re-folds the (group-cardinality-sized) leaf on the driver — no second
    scan. A subtotal key surfaces as 'ALL' and a data NULL key as '(null)'
    (distinguished via GROUPING() in the oracle), so the key columns never
    collide; count_order is a row count (COUNT(*))."""
    keys = ["l_returnflag", "l_linestatus"]

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({**{k: pc.fill_null(batch[k], "(null)") for k in keys},
                         "l_quantity": batch["l_quantity"]})

    leaf = _group_fold(_read_blocked(sf_dir, "lineitem", [*keys, "l_quantity"]),
                       keys, {"sum_qty": ("l_quantity", "sum"),
                              "count_order": (None, "count_all")}, project)
    out = []
    for kept in [keys, *sets]:
        g = leaf.group_by(kept).aggregate([("sum_qty", "sum"),
                                           ("count_order", "sum")])
        out.append(pa.table({
            **{k: g[k] if k in kept else pa.array(["ALL"] * g.num_rows, pa.string())
               for k in keys},
            "sum_qty": _round(g["sum_qty_sum"], 2),
            "count_order": g["count_order_sum"]}))
    return pa.concat_tables(out)


def rollup_pricing_summary(sf_dir: str):
    """GROUP BY ROLLUP (returnflag, linestatus): the multi-level aggregate."""
    return _pricing_grouping_sets(sf_dir, [["l_returnflag"], []])


ROLLUP_SQL = """
SELECT
  CASE WHEN GROUPING(l_returnflag) = 1 THEN 'ALL'
       ELSE COALESCE(l_returnflag, '(null)') END AS l_returnflag,
  CASE WHEN GROUPING(l_linestatus) = 1 THEN 'ALL'
       ELSE COALESCE(l_linestatus, '(null)') END AS l_linestatus,
  FLOOR(SUM(l_quantity)*100+0.5)/100 AS sum_qty,
  COUNT(*) AS count_order
FROM lineitem GROUP BY ROLLUP (l_returnflag, l_linestatus)
"""


# ---------------------------------------------------------------------------
# Row-level map + filter + projection (SURVEY.md §2.2)
# ---------------------------------------------------------------------------


def filter_project_revenue(sf_dir: str):
    """Vectorized predicate + computed column, row-level output."""
    ds = _read_blocked(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_shipdate", "l_discount",
                "l_extendedprice"])

    def fn(batch: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.greater_equal(batch["l_shipdate"], pa.scalar(np.datetime64("1995-07-01", "us"))),
            pc.greater(batch["l_discount"], 0.05),
        )
        t = batch.filter(mask)
        rev = _round(
            t["l_extendedprice"].to_numpy() * (1.0 - t["l_discount"].to_numpy()), 2
        )
        return pa.table({
            "l_orderkey": t["l_orderkey"],
            "l_linenumber": t["l_linenumber"],
            "revenue": pa.array(rev, pa.float64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


FILTER_PROJECT_SQL = """
SELECT l_orderkey, l_linenumber,
  FLOOR(l_extendedprice*(1-l_discount)*100+0.5)/100 AS revenue
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1995-07-01' AND l_discount > 0.05
"""


# ---------------------------------------------------------------------------
# Broadcast (small-side) join — SURVEY.md §2.5
# ---------------------------------------------------------------------------


def join_broadcast_nation_revenue(sf_dir: str):
    """Broadcast join: the customer→nation dimension is ray.put once and
    each stateless map task reads it zero-copy and probes it with one
    searchsorted (inner join: an order without a customer drops out)."""
    import pyarrow.parquet as pq
    import ray

    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"])
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
    dim = cust.join(nation, "c_nationkey", "n_nationkey").sort_by("c_custkey")
    wrapped = {"ref": ray.put((dim["c_custkey"].to_numpy(), dim["n_name"]))}

    def probe(batch: pa.Table) -> pa.Table:
        keys, names = ray.get(wrapped["ref"])
        k = batch["o_custkey"].to_numpy()
        pos = np.minimum(np.searchsorted(keys, k), max(keys.size - 1, 0))
        hit = keys[pos] == k if keys.size else np.zeros(k.size, bool)
        return pa.table({"n_name": names.take(pos[hit]),
                         "o_totalprice": batch["o_totalprice"].filter(
                             pa.array(hit))})

    df = _group_fold(_read_blocked(sf_dir, "orders", ["o_custkey", "o_totalprice"]),
                     ["n_name"], {"total_price": ("o_totalprice", "sum"),
                                  "n_orders": (None, "count_all")},
                     probe).to_pandas()
    return _pa_from_pandas(_round_cols(df, {"total_price": 2}),
                           preserve_index=False)


JOIN_BROADCAST_SQL = """
SELECT n_name,
  FLOOR(SUM(o_totalprice)*100+0.5)/100 AS total_price,
  COUNT(*) AS n_orders
FROM orders
JOIN customer ON o_custkey = c_custkey
JOIN nation ON c_nationkey = n_nationkey
GROUP BY n_name
"""


# ---------------------------------------------------------------------------
# Large-large join: one sort on the key, one join per range partition
# ---------------------------------------------------------------------------


def join_large_priority_revenue(sf_dir: str):
    """Large-large join + grouped fold: lineitem revenue (pre-summed per
    orderkey inside each block) and orders union into one table; one sort
    on the order key puts every row of a key in one range partition, and
    the fold's projection joins each partition's two sides with one
    searchsorted. Ray's ``Dataset.join`` starts aggregator actors: 3.9-4.2 s
    a call at sf0.01 on 3 CPUs of a 4-vCPU host, against ~0.45 s for this
    shape."""
    empty = _typed_empty(sf_dir, ["lineitem", "orders"], pa.schema(
        [("o_orderpriority", pa.string()), ("revenue", pa.float64())]))
    if empty is not None:
        return empty
    schema = pa.schema([("k", pa.int64()), ("revenue", pa.float64()),
                        ("pri", pa.string())])

    def li_side(batch: pa.Table) -> pa.Table:
        # lineitem is clustered by orderkey: summing revenue per key inside
        # the block shrinks the shuffle input ~4x
        r = (batch["l_extendedprice"].to_numpy()
             * (1.0 - batch["l_discount"].to_numpy()))
        uk, inv = np.unique(batch["l_orderkey"].to_numpy(), return_inverse=True)
        return pa.table([uk, np.bincount(inv, weights=r, minlength=uk.size),
                         pa.nulls(uk.size, pa.string())], schema=schema)

    def order_side(batch: pa.Table) -> pa.Table:
        return pa.table([batch["o_orderkey"],
                         pa.nulls(batch.num_rows, pa.float64()),
                         batch["o_orderpriority"]], schema=schema)

    def join(t: pa.Table) -> pa.Table:
        is_li = pc.is_valid(t["revenue"])
        li, od = t.filter(is_li), t.filter(pc.invert(is_li))
        order = np.argsort(od["k"].to_numpy())
        ok, lk = od["k"].to_numpy()[order], li["k"].to_numpy()
        pos = np.minimum(np.searchsorted(ok, lk), max(ok.size - 1, 0))
        hit = ok[pos] == lk if ok.size else np.zeros(lk.size, bool)
        return pa.table({"o_orderpriority": od["pri"].take(order[pos[hit]]),
                         "revenue": li["revenue"].filter(pa.array(hit))})

    both = _read_blocked(sf_dir, "lineitem", [
        "l_orderkey", "l_extendedprice", "l_discount"]).map_batches(
        li_side, batch_format="pyarrow", zero_copy_batch=True).union(
        _read_blocked(sf_dir, "orders", ["o_orderkey", "o_orderpriority"]
                      ).map_batches(order_side, batch_format="pyarrow",
                                    zero_copy_batch=True))
    df = _group_fold(both.sort("k"), ["o_orderpriority"],
                     {"revenue": ("revenue", "sum")}, join).to_pandas()
    return _pa_from_pandas(_round_cols(df, {"revenue": 2}),
                           preserve_index=False)


JOIN_LARGE_SQL = """
SELECT o_orderpriority,
  FLOOR(SUM(l_extendedprice*(1-l_discount))*100+0.5)/100 AS revenue
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY o_orderpriority
"""


# ---------------------------------------------------------------------------
# Sort / top-k / distinct — SURVEY.md §2.6
# ---------------------------------------------------------------------------


def topk_orders(sf_dir: str, k: int = 10):
    """Global top-k: per-block partial top-k first, so the all-to-all sort
    sees only blocks*k rows instead of the whole table."""
    ds = _read_blocked(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def block_topk(batch: pa.Table) -> pa.Table:
        p = batch["o_totalprice"].to_numpy()
        if len(p) > k:
            idx = np.lexsort((batch["o_orderkey"].to_numpy(), -p))[:k]
            batch = batch.take(pa.array(idx))
        return batch

    out = ds.map_batches(block_topk, batch_format="pyarrow", zero_copy_batch=True
                         ).sort(["o_totalprice", "o_orderkey"],
                                descending=[True, False]).limit(k)
    df = _round_cols(out.to_pandas(), {"o_totalprice": 2})
    return _pa_from_pandas(df, preserve_index=False)


TOPK_SQL = """
SELECT o_orderkey, FLOOR(o_totalprice*100+0.5)/100 AS o_totalprice
FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
"""


def distinct_flag_status(sf_dir: str):
    """Distinct (flag, status) pairs with counts: each block folds to the
    category cross product (<= ~12 rows) before anything moves."""
    return _group_fold(
        _read_blocked(sf_dir, "lineitem", ["l_returnflag", "l_linestatus"]),
        ["l_returnflag", "l_linestatus"], {"n": (None, "count_all")})


DISTINCT_SQL = """
SELECT l_returnflag, l_linestatus, COUNT(*) AS n
FROM lineitem GROUP BY l_returnflag, l_linestatus
"""


def heavy_hitter_users(sf_dir: str):
    """Exact top-5 heavy hitters (the CMS sketch is the at-scale screen —
    tested against this exact answer in unit tests): per-user ``_key_fold``
    counts, each bucket cut to its top 5, their top 5 on the driver."""
    def top(t: pa.Table) -> pa.Table:
        return t.sort_by([("n", "descending"),
                          ("user_id", "ascending")]).slice(0, 5)

    cuts = _key_fold(_read_blocked(sf_dir, "events", ["user_id"]),
                     ["user_id"], {"n": (None, "count_all")}, finish=top)
    return top(_as_table(cuts))


HEAVY_HITTERS_SQL = """
SELECT user_id, COUNT(*) AS n FROM events GROUP BY user_id
ORDER BY n DESC, user_id LIMIT 5
"""


# ---------------------------------------------------------------------------
# Windowed / stream-shaped aggregates over the events log
# ---------------------------------------------------------------------------


def window_tumbling_events(sf_dir: str):
    """Tumbling 1-hour event-time windows: (hour, event_type) grows with
    the time span, so the per-block Arrow partials fold through
    ``_key_fold`` (a bucketed shuffle), never one Ray group per key."""
    def project(batch: pa.Table) -> pa.Table:
        return pa.table({"hour": pc.floor_temporal(batch["ts"], unit="hour"),
                         "event_type": batch["event_type"],
                         "value": batch["value"]})

    # count_all = COUNT(*) row semantics (plain 'count' skips nulls and
    # would diverge from the COUNT(*) oracle on nullable input)
    out = _key_fold(_read_blocked(sf_dir, "events", ["ts", "event_type", "value"]),
                    ["hour", "event_type"], {"n": (None, "count_all"),
                                             "sum_value": ("value", "sum")},
                    project)
    df = _round_cols(out.to_pandas(), {"sum_value": 2})
    # floor_temporal coarsens the unit to [s]; the oracle keeps [us]
    df["hour"] = df["hour"].astype("datetime64[us]")
    return _pa_from_pandas(df, preserve_index=False)


WINDOW_SQL = """
SELECT date_trunc('hour', ts) AS hour, event_type, COUNT(*) AS n,
  FLOOR(SUM(value)*100+0.5)/100 AS sum_value
FROM events GROUP BY 1, 2
"""


def chi2_by_window_events(sf_dir: str):
    """STREAMING drift: per-tumbling-window Chi² of the event-type mix
    against the stream's global mix — the engine's per-window drift path
    (the reference scores drift per incoming window of production traffic,
    detector_api/app/api.py; here the window is event-time instead of a
    request batch).

    Shape: per-block (hour, type) counts fold through ``_key_fold`` (hours
    grow with the stream), then a windows x types driver finish
    (metadata-sized by construction). A NULL type counts in its hour's and
    the stream's totals but observes 0 in its own cell, as the twin's
    LEFT JOIN on the type matches no NULL."""
    def project(batch: pa.Table) -> pa.Table:
        return pa.table({"hour": pc.floor_temporal(batch["ts"], unit="hour"),
                         "event_type": batch["event_type"]})

    c = _key_fold(_read_blocked(sf_dir, "events", ["ts", "event_type"]),
                  ["hour", "event_type"], {"n": (None, "count_all")},
                  project).to_pandas()
    types = np.sort(c.event_type.dropna().unique())
    t_idx = pd.Categorical(c.event_type, categories=types).codes
    t_idx = np.where(t_idx < 0, types.size, t_idx)  # NULL: the last column
    hours, h_idx = np.unique(c.hour.to_numpy(), return_inverse=True)
    cnt = np.zeros((hours.size, t_idx.max(initial=-1) + 1))
    np.add.at(cnt, (h_idx, t_idx), c.n.to_numpy(np.float64))  # (H, T)
    g_type = cnt.sum(axis=0)                                   # (T,)
    hn = cnt.sum(axis=1)                                       # (H,)
    obs = cnt.copy()
    obs[:, types.size:] = 0
    exp = hn[:, None] * (g_type[None, :] / g_type.sum())
    chi2 = ((obs - exp) ** 2 / exp).sum(axis=1)
    return pa.table({
        "hour": pa.array(hours.astype("datetime64[us]")),
        "n": pa.array(hn.astype(np.int64)),
        "chi2": pa.array(_round(chi2, 4)),
    })


def ks_by_window_events(sf_dir: str, bins: int = 256, lo: float = 0.0,
                        hi: float = 500.0, alpha: float = 0.01):
    """Per-window KS drift of ``value`` vs the stream's global distribution
    — the numeric twin of ``chi2_by_window_events``, using the flagship's
    histogram-KS path (binned ECDFs, asymptotic two-sample p-value) so the
    exchange is per-window BIN COUNTS, never raw values. Oracled end to end
    (KS_WINDOW_SQL): the asymptotic p-value is itself a truncated 100-term
    series (functions/stats.py kolmogorov_sf), reproduced term-for-term in
    DuckDB via range(1,101).

    Shape: per-block (hour -> int64[bins] blob) partials → ``_key_shuffle``
    merge per hour → windows x bins driver finish."""
    ds = _read_blocked(sf_dir, "events", ["ts", "value"])
    width = (hi - lo) / bins

    def partial(batch: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(batch["ts"], unit="hour").cast(
            pa.timestamp("us")).cast(pa.int64()).to_numpy()
        v = batch["value"].to_numpy()
        binned = np.clip(((v - lo) / width).astype(np.int64), 0, bins - 1)
        hours, inv = np.unique(hour, return_inverse=True)
        flat = np.zeros(hours.size * bins, dtype=np.int64)
        np.add.at(flat, inv * bins + binned, 1)
        blobs = [flat[i * bins:(i + 1) * bins].tobytes()
                 for i in range(hours.size)]
        return pa.table({"hour": pa.array(hours),
                         "h": pa.array(blobs, pa.binary())})

    def bucket_merge(df: pd.DataFrame) -> pd.DataFrame:
        hours, inv = np.unique(df.hour.to_numpy(), return_inverse=True)
        acc = np.zeros((hours.size, bins), dtype=np.int64)
        for i, blob in zip(inv, df.h):
            acc[i] += np.frombuffer(blob, dtype=np.int64)
        return pd.DataFrame({"hour": hours,
                             "h": [a.tobytes() for a in acc]})

    merged = _key_shuffle(ds, ["hour"], bucket_merge, partial).to_pandas()
    # windows x bins — metadata-sized by construction
    return ks_windows_finish(merged.hour.to_numpy(),
                             merged.h.to_numpy(), bins, alpha)


def ks_windows_finish(hours: np.ndarray, blobs: np.ndarray, bins: int,
                      alpha: float) -> pa.Table:
    """Driver finish of ``ks_by_window_events``: stack the per-hour
    histogram blobs and test each window against the REST of
    the stream (global minus the window itself — a window included in its
    own reference halves the measured D and double-counts its rows in the
    p-value's sample sizes). windows x bins — metadata-sized."""
    from ..functions.stats import ks_pvalue_from_d

    order = np.argsort(hours, kind="mergesort")
    hist = np.stack([np.frombuffer(b, dtype=np.int64)
                     for b in np.asarray(blobs, dtype=object)[order]])
    hours = np.asarray(hours)[order]
    g = hist.sum(axis=0)
    n_hour = hist.sum(axis=1)
    rest = g[None, :] - hist
    n_rest = np.maximum(rest.sum(axis=1), 1)
    rest_cdfs = np.cumsum(rest, axis=1) / n_rest[:, None]
    cdfs = np.cumsum(hist, axis=1) / np.maximum(n_hour, 1)[:, None]
    d = np.abs(cdfs - rest_cdfs).max(axis=1)
    p = np.array([ks_pvalue_from_d(float(di), int(ni), int(mi))
                  for di, ni, mi in zip(d, n_hour, n_rest)])
    return pa.table({
        "hour": pa.array(hours.astype("datetime64[us]")),
        "n": pa.array(n_hour),
        "ks_d": pa.array(_round(d, 6)),
        "p_value": pa.array(_round(p, 6)),
        "is_drift": pa.array(p <= alpha),
    })


CHI2_WINDOW_SQL = """
WITH c AS (SELECT date_trunc('hour', ts) AS h, event_type AS t,
                  COUNT(*)::DOUBLE AS n FROM events GROUP BY 1, 2),
gt AS (SELECT t, SUM(n) AS gn FROM c GROUP BY 1),
ga AS (SELECT SUM(n) AS g_all FROM c),
ht AS (SELECT h, SUM(n) AS hn FROM c GROUP BY 1),
grid AS (SELECT ht.h, ht.hn, gt.t, gt.gn FROM ht CROSS JOIN gt),
j AS (SELECT grid.h, grid.hn, grid.gn,
             COALESCE(c.n, 0) AS n
      FROM grid LEFT JOIN c ON c.h = grid.h AND c.t = grid.t)
SELECT j.h AS hour, CAST(j.hn AS BIGINT) AS n,
  FLOOR(SUM(POWER(j.n - j.hn * j.gn / ga.g_all, 2)
            / (j.hn * j.gn / ga.g_all)) * 10000 + 0.5) / 10000 AS chi2
FROM j, ga GROUP BY 1, 2
"""


# SQL twin of ks_by_window_events + ks_windows_finish: window-bucketed bin
# counts -> per-window ECDF vs rest-of-stream ECDF sup-distance, then the
# SAME truncated asymptotic Kolmogorov series the engine uses
# (functions/stats.py kolmogorov_sf: 2 Σ_{j=1..100} (-1)^{j-1} e^{-2 j² λ²},
# λ = (√n_e + 0.12 + 0.11/√n_e)·D, n_e = n·m/(n+m)) — term form and clamps
# mirrored exactly so the 1e-6 rounding matches.
KS_WINDOW_SQL = """
WITH c AS (
  SELECT date_trunc('hour', ts) AS hour,
         LEAST(GREATEST(CAST(trunc(value / (500.0 / 256)) AS BIGINT), 0), 255) AS bin,
         COUNT(*)::DOUBLE AS n
  FROM events GROUP BY 1, 2),
grid AS (
  SELECT h.hour, b.range AS bin
  FROM (SELECT DISTINCT hour FROM c) h CROSS JOIN range(0, 256) b),
f AS (
  SELECT g.hour, g.bin, COALESCE(c.n, 0) AS n
  FROM grid g LEFT JOIN c ON c.hour = g.hour AND c.bin = g.bin),
gl AS (SELECT bin, SUM(n) AS gn FROM f GROUP BY 1),
hn AS (SELECT hour, SUM(n) AS nh FROM f GROUP BY 1),
cum AS (
  SELECT f.hour, f.bin,
         SUM(f.n) OVER (PARTITION BY f.hour ORDER BY f.bin) AS ch,
         SUM(gl.gn - f.n) OVER (PARTITION BY f.hour ORDER BY f.bin) AS cr
  FROM f JOIN gl ON gl.bin = f.bin),
d AS (
  SELECT cum.hour, hn.nh,
         -- clamp like the engine's n_rest = max(rest, 1): a single-window
         -- stream otherwise yields nr = 0 and lam divides 0.11 by SQRT(0)
         GREATEST((SELECT SUM(x.n) FROM f x) - hn.nh, 1) AS nr,
         MAX(ABS(cum.ch / GREATEST(hn.nh, 1)
                 - cum.cr / GREATEST((SELECT SUM(x.n) FROM f x) - hn.nh, 1))) AS ks_d
  FROM cum JOIN hn ON hn.hour = cum.hour
  GROUP BY cum.hour, hn.nh),
lam AS (
  SELECT hour, nh, ks_d,
         (SQRT(nh * nr / GREATEST(nh + nr, 1)) + 0.12
          + 0.11 / SQRT(nh * nr / GREATEST(nh + nr, 1))) * ks_d AS l
  FROM d),
p AS (
  SELECT lam.hour, lam.nh, lam.ks_d,
         CASE WHEN lam.l < 1e-10 THEN 1.0 ELSE LEAST(GREATEST(
           (SELECT SUM(2.0 * POWER(-1.0, j.range - 1)
                      * EXP(-2.0 * j.range * j.range * lam.l * lam.l))
            FROM range(1, 101) j), 0.0), 1.0) END AS pv
  FROM lam)
SELECT hour, CAST(nh AS BIGINT) AS n,
       FLOOR(ks_d * 1000000 + 0.5) / 1000000 AS ks_d,
       FLOOR(pv * 1000000 + 0.5) / 1000000 AS p_value,
       pv <= 0.01 AS is_drift
FROM p
"""


def _hourly_mean_frame(sf_dir: str) -> pd.DataFrame:
    """Shared scaffold of the sequential monitors (CUSUM / EWMA): per-block
    (hour, type) → (n, sum) partials folded through ``_key_fold``, and a
    (event_type, hour)-sorted driver frame with the per-window mean — hours
    × types rows, metadata-sized by construction; raw values never leave
    their blocks. NULL values count in neither the sum nor ``n`` (SQL
    ``AVG`` semantics; the twins filter ``value IS NOT NULL``); a NULL type
    is a group of its own."""
    def project(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch["value"]))
        # exact INTEGER micro-unit sums (FLOOR(v*1e6+0.5) is the same
        # double→int map in both engines, and int64 addition is
        # order-independent) — a raw float SUM(value) differs from
        # DuckDB's by summation order, and at sf0.1 one hourly mean of
        # 3600 landed exactly on a 1e-6 FLOOR boundary and flipped the
        # rounded bucket cross-engine
        v6 = np.floor(batch["value"].to_numpy(zero_copy_only=False)
                      .astype(np.float64) * 1e6 + 0.5).astype(np.int64)
        return pa.table({"hour": pc.floor_temporal(batch["ts"], unit="hour"),
                         "event_type": batch["event_type"],
                         "v6": pa.array(v6)})

    c = _key_fold(_read_blocked(sf_dir, "events", ["ts", "event_type", "value"]),
                  ["hour", "event_type"], {"n": (None, "count_all"),
                                           "s6": ("v6", "sum")},
                  project).to_pandas()
    # int64 micro-unit sums wrap silently past 2^63 while the DuckDB twin
    # promotes to HUGEINT: with |value| ≤ ~1e3 (v6 ≤ 1e9) the guard admits
    # ~4.6e9 rows per (hour, type) cell — beyond it, raise rather than
    # diverge cross-engine (the fix at that scale is a wider accumulator
    # or sub-hour pre-buckets)
    if len(c) and np.abs(c.s6.to_numpy(np.int64)).max() > np.int64(2**62):
        raise OverflowError(
            "hourly micro-unit sum near int64 range — shrink the "
            "bucket span or widen the accumulator")
    c = c.sort_values(["event_type", "hour"], kind="mergesort")
    # same op order as the SQL twin: (int_sum / 1e6) / n
    c["m"] = (c.s6.to_numpy(np.float64) / 1e6) / c.n.to_numpy(np.float64)
    return c


def cusum_changepoint_events(sf_dir: str, slack: float = 0.25,
                             threshold: float = 4.0):
    """Sequential change-point detection (two-sided standardized CUSUM,
    Page 1954) on the hourly mean of ``value`` per event_type — the
    accumulate-small-shifts complement to the per-window two-sample tests
    (chi2/ks_by_window score each window independently; CUSUM flags a
    persistent mean shift that no single window can).

    Shape: ``_hourly_mean_frame`` + a driver finish. The recursion
    ``s_k = max(0, s_{k-1} + z_k - slack)`` is evaluated in closed form as
    ``cum_k - min(0, min_{j<=k} cum_j)`` over cumulative (z - slack),
    which is exactly how the SQL twin expresses it with running-sum /
    running-min windows — same op order, so the 1e-6 rounding matches."""
    c = _hourly_mean_frame(sf_dir)
    c = c[c.event_type.notna()]  # the twin's JOIN on the type drops NULL
    m = c.m.to_numpy(np.float64)
    types = c.event_type.to_numpy()
    s_pos = np.zeros(len(c))
    s_neg = np.zeros(len(c))
    for t in np.unique(types):
        sel = types == t
        mt = m[sel]
        mu = mt.mean()
        sd = np.sqrt(((mt - mu) ** 2).mean())
        z = (mt - mu) / sd if sd > 0 else np.zeros_like(mt)
        cum_p = np.cumsum(z - slack)
        cum_n = np.cumsum(-z - slack)
        s_pos[sel] = cum_p - np.minimum(np.minimum.accumulate(cum_p), 0.0)
        s_neg[sel] = cum_n - np.minimum(np.minimum.accumulate(cum_n), 0.0)
    return pa.table({
        "event_type": pa.array(types),
        "hour": pa.array(c.hour.to_numpy().astype("datetime64[us]")),
        "n": pa.array(c.n.to_numpy().astype(np.int64)),
        "mean_value": pa.array(_round(m, 6)),
        "cusum_pos": pa.array(_round(s_pos, 6)),
        "cusum_neg": pa.array(_round(s_neg, 6)),
        "is_alarm": pa.array((s_pos > threshold) | (s_neg > threshold)),
    })


def ewma_control_events(sf_dir: str, lam: float = 0.2, big_l: float = 3.0):
    """EWMA control chart (Roberts 1959) on the hourly mean of ``value``
    per event_type — the third classic sequential monitor next to the
    per-window tests and CUSUM: the exponentially-weighted smoother reacts
    to small sustained shifts faster than a Shewhart rule and, unlike
    CUSUM, carries a closed-form time-varying control limit.

    Same distributed shape as cusum_changepoint_events
    (``_hourly_mean_frame`` + a driver finish). The recursion
    ``s_k = lam*x_k + (1-lam)*s_{k-1}`` (s_0 = the
    type's mean of hourly means) and the limit
    ``L*sd*sqrt(lam/(2-lam)*(1-(1-lam)^(2k)))`` are mirrored term-for-term
    in the SQL twin's recursive CTE so the 1e-6 rounding matches;
    out-of-control additionally requires sd > 0 (a constant series differs
    from its mean only by float round-off of the recursion itself)."""
    c = _hourly_mean_frame(sf_dir)
    c = c[c.event_type.notna()]  # the twin's JOIN on the type drops NULL
    m = c.m.to_numpy(np.float64)
    types = c.event_type.to_numpy()
    ewma = np.zeros(len(c))
    limit = np.zeros(len(c))
    ooc = np.zeros(len(c), dtype=bool)
    for t in np.unique(types):
        sel = np.flatnonzero(types == t)
        mt = m[sel]
        mu = mt.mean()
        sd = np.sqrt(((mt - mu) ** 2).mean())
        s = mu
        for i, x in enumerate(mt):
            s = lam * x + (1 - lam) * s
            ewma[sel[i]] = s
        k = np.arange(1, mt.size + 1, dtype=np.float64)
        lim = big_l * sd * np.sqrt(
            lam / (2 - lam) * (1 - (1 - lam) ** (2 * k)))
        limit[sel] = lim
        ooc[sel] = (sd > 0) & (np.abs(ewma[sel] - mu) > lim)
    return pa.table({
        "event_type": pa.array(types),
        "hour": pa.array(c.hour.to_numpy().astype("datetime64[us]")),
        "n": pa.array(c.n.to_numpy().astype(np.int64)),
        "mean_value": pa.array(_round(m, 6)),
        "ewma": pa.array(_round(ewma, 6)),
        "limit": pa.array(_round(limit, 6)),
        "is_ooc": pa.array(ooc),
    })


# SQL twin of ewma_control_events: the smoother as a recursive CTE stepping
# k → k+1 per event_type with the identical lam*x + (1-lam)*s arithmetic.
EWMA_SQL = """
WITH RECURSIVE m AS (
  SELECT event_type, date_trunc('hour', ts) AS hour,
         COUNT(*)::BIGINT AS n,
         SUM(CAST(FLOOR(value * 1000000 + 0.5) AS BIGINT))::DOUBLE
           / 1000000 / COUNT(*) AS mv
  FROM events WHERE value IS NOT NULL GROUP BY 1, 2),
st AS (
  SELECT event_type, AVG(mv) AS mu, SQRT(VAR_POP(mv)) AS sd
  FROM m GROUP BY 1),
o AS (
  SELECT m.*, ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY hour) AS k
  FROM m),
r(event_type, k, s) AS (
  SELECT o.event_type, o.k, 0.2 * o.mv + 0.8 * st.mu
  FROM o JOIN st USING (event_type) WHERE o.k = 1
  UNION ALL
  SELECT o.event_type, o.k, 0.2 * o.mv + 0.8 * r.s
  FROM r JOIN o ON o.event_type = r.event_type AND o.k = r.k + 1)
SELECT o.event_type, o.hour, o.n,
  FLOOR(o.mv * 1000000 + 0.5) / 1000000 AS mean_value,
  FLOOR(r.s * 1000000 + 0.5) / 1000000 AS ewma,
  FLOOR(3.0 * st.sd * SQRT(0.2 / 1.8 * (1 - POWER(0.8, 2 * o.k)))
        * 1000000 + 0.5) / 1000000 AS "limit",
  (st.sd > 0 AND ABS(r.s - st.mu)
     > 3.0 * st.sd * SQRT(0.2 / 1.8 * (1 - POWER(0.8, 2 * o.k)))) AS is_ooc
FROM o JOIN st USING (event_type) JOIN r ON r.event_type = o.event_type
                                        AND r.k = o.k
"""


def seasonality_profile_events(sf_dir: str, z: float = 3.0):
    """Hour-of-day seasonal profile per event_type with residual-anomaly
    counts: the per-(type, hod) mean/sd of the HOURLY means, plus how many
    individual hours in that cell deviate more than ``z`` profile-sds —
    the seasonal-baseline companion to the sequential monitors (CUSUM/EWMA
    catch sustained shifts; this catches hours that break their own
    daily pattern). Reuses ``_hourly_mean_frame`` (hours × types rows,
    metadata-sized); the profile grid is |types| × 24."""
    c = _hourly_mean_frame(sf_dir)
    hod = pd.to_datetime(c.hour).dt.hour.to_numpy().astype(np.int64)
    mv = c.m.to_numpy(np.float64)
    types = c.event_type.to_numpy()
    null = c.event_type.isna().to_numpy()
    rows = []
    for t in [*np.unique(types[~null]), *([None] if null.any() else [])]:
        sel = null if t is None else types == t
        for h in np.unique(hod[sel]):
            cell = mv[sel & (hod == h)]
            pm = cell.mean()
            ps = np.sqrt(((cell - pm) ** 2).mean())
            anom = int(((ps > 0) & (np.abs(cell - pm) > z * ps)).sum())
            rows.append({
                "event_type": t, "hod": int(h),
                "n_hours": int(cell.size),
                "mean_value": float(np.floor(pm * 1e6 + 0.5) / 1e6),
                "sd_value": float(np.floor(ps * 1e6 + 0.5) / 1e6),
                # the twin's correlated count matches no NULL type
                "n_anomalous": None if t is None else anom,
            })
    return pa.Table.from_pylist(rows, schema=pa.schema([
        ("event_type", pa.string()), ("hod", pa.int64()),
        ("n_hours", pa.int64()), ("mean_value", pa.float64()),
        ("sd_value", pa.float64()), ("n_anomalous", pa.int64())]))


SEASONALITY_SQL = """
WITH m AS (
  SELECT event_type, date_trunc('hour', ts) AS hour,
         SUM(CAST(FLOOR(value * 1000000 + 0.5) AS BIGINT))::DOUBLE
           / 1000000 / COUNT(*) AS mv
  FROM events WHERE value IS NOT NULL GROUP BY 1, 2),
h AS (SELECT event_type, EXTRACT(hour FROM hour) AS hod, mv FROM m),
p AS (SELECT event_type, hod, AVG(mv) AS pm, SQRT(VAR_POP(mv)) AS ps,
             COUNT(*)::BIGINT AS nh
      FROM h GROUP BY 1, 2)
SELECT p.event_type, CAST(p.hod AS BIGINT) AS hod, p.nh AS n_hours,
  FLOOR(p.pm * 1e6 + 0.5) / 1e6 AS mean_value,
  FLOOR(p.ps * 1e6 + 0.5) / 1e6 AS sd_value,
  (SELECT SUM(CASE WHEN p.ps > 0 AND ABS(h2.mv - p.pm) > 3.0 * p.ps
              THEN 1 ELSE 0 END)::BIGINT
   FROM h h2 WHERE h2.event_type = p.event_type AND h2.hod = p.hod)
    AS n_anomalous
FROM p
"""


# SQL twin of cusum_changepoint_events: the max(0, s+y) recursion as
# running-sum minus clamped running-min per event_type, mirrored op-for-op.
CUSUM_SQL = """
WITH m AS (
  SELECT event_type, date_trunc('hour', ts) AS hour,
         COUNT(*)::BIGINT AS n,
         SUM(CAST(FLOOR(value * 1000000 + 0.5) AS BIGINT))::DOUBLE
           / 1000000 / COUNT(*) AS mv
  FROM events WHERE value IS NOT NULL GROUP BY 1, 2),
st AS (
  SELECT event_type, AVG(mv) AS mu, SQRT(VAR_POP(mv)) AS sd
  FROM m GROUP BY 1),
z AS (
  SELECT m.event_type, m.hour, m.n, m.mv,
         CASE WHEN st.sd > 0 THEN (m.mv - st.mu) / st.sd ELSE 0.0 END AS z
  FROM m JOIN st ON st.event_type = m.event_type),
c AS (
  SELECT event_type, hour, n, mv,
         SUM(z - 0.25) OVER w AS cp, SUM(-z - 0.25) OVER w AS cn
  FROM z WINDOW w AS (PARTITION BY event_type ORDER BY hour
                      ROWS UNBOUNDED PRECEDING)),
s AS (
  SELECT event_type, hour, n, mv,
         cp - LEAST(0, MIN(cp) OVER w) AS s_pos,
         cn - LEAST(0, MIN(cn) OVER w) AS s_neg
  FROM c WINDOW w AS (PARTITION BY event_type ORDER BY hour
                      ROWS UNBOUNDED PRECEDING))
SELECT event_type, hour, n,
       FLOOR(mv * 1000000 + 0.5) / 1000000 AS mean_value,
       FLOOR(s_pos * 1000000 + 0.5) / 1000000 AS cusum_pos,
       FLOOR(s_neg * 1000000 + 0.5) / 1000000 AS cusum_neg,
       (s_pos > 4.0 OR s_neg > 4.0) AS is_alarm
FROM s
"""


def _ts_us(series: pd.Series) -> np.ndarray:
    """Timestamp column → int64 microseconds, unit-safe: an explicit
    datetime64[us] cast first, so a ns-stored batch (older pandas /
    coerce_temporal_nanoseconds) can't silently scale windows 1000x."""
    return series.to_numpy().astype("datetime64[us]").astype(np.int64)


def _user_time_key(d: pd.DataFrame, extra_us: int = 0):
    """Collision-free (user, time) composite int64 key over a frame sorted
    by (user_id, ts, ...): dense_uid * span + rel_ts with span exceeding
    max(rel_ts) + extra, so a probe that underflows one user's range still
    lands strictly above every other user's keys. Returns (dense, ts_us,
    key). Overflow is guarded in python ints (no int64 wrap)."""
    uid = d.user_id.to_numpy()
    _, dense = np.unique(uid, return_inverse=True)
    ts = _ts_us(d.ts)
    rel = ts - ts.min() if len(ts) else ts
    span = (int(rel.max()) if len(rel) else 0) + extra_us + 2
    if (int(dense.max(initial=0)) + 1) * span >= 2**63:
        raise ValueError("user-time composite key overflow: raise the "
                         "bucket count (users/bucket x time span too large)")
    return dense, ts, dense.astype(np.int64) * span + rel


def sessionize_events(sf_dir: str, gap_minutes: int = 30):
    """Session windows (gap-based) per user — the Ray Data shape for
    stream-style windows (ray guide "Streaming-shaped workloads"), salt-
    bucketed so the shuffle has a fixed group count; within a bucket ONE
    vectorized pass sessionizes every user (session break = first event of
    a user OR gap > threshold on the (user, ts, event_id)-sorted frame)."""
    ds = _read_blocked(sf_dir, "events", ["user_id", "ts", "event_id"])

    gap = np.timedelta64(gap_minutes * 60 * 1000 * 1000, "us")

    def sessions(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        ts = d.ts.to_numpy()
        uid = d.user_id.to_numpy()
        new = np.ones(len(d), dtype=bool)
        if len(d) > 1:
            new[1:] = (uid[1:] != uid[:-1]) | ((ts[1:] - ts[:-1]) > gap)
        g = pd.DataFrame({"user_id": uid, "new": new}).groupby(
            "user_id", sort=False)
        return pd.DataFrame({
            "n_sessions": g.new.sum().astype(np.int64),
            "n_events": g.size().astype(np.int64),
        }).reset_index()

    return _key_shuffle(ds, ["user_id"], sessions)


SESSIONIZE_SQL = """
WITH marked AS (
  SELECT user_id,
    CASE WHEN ts - LAG(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)
              > INTERVAL 30 MINUTE OR
              LAG(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) IS NULL
         THEN 1 ELSE 0 END AS new_session
  FROM events)
SELECT user_id, SUM(new_session)::BIGINT AS n_sessions, COUNT(*) AS n_events
FROM marked GROUP BY user_id
"""


def running_sum_events(sf_dir: str):
    """Per-user running sum ordered by (ts, event_id) — cumulative window;
    ``_key_shuffle`` on the user, one vectorized grouped-cumsum a bucket."""
    ds = _read_blocked(sf_dir, "events", ["user_id", "ts", "event_id", "value"])

    def run(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        rs = d.groupby("user_id", sort=False).value.cumsum().to_numpy()
        return pd.DataFrame({
            "event_id": d.event_id.to_numpy(),
            "user_id": d.user_id.to_numpy(),
            "run_sum": _round(rs, 2),
        })

    return _key_shuffle(ds, ["user_id"], run)


RUNNING_SUM_SQL = """
SELECT event_id, user_id,
  FLOOR(SUM(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
        ROWS UNBOUNDED PRECEDING)*100+0.5)/100 AS run_sum
FROM events
"""


def _running_totals(users: np.ndarray, values: np.ndarray):
    """Per-user (user, total, max running sum) of a time-ordered stream.

    Stable-sort segments the stream by user (equal keys keep arrival =
    time order), then computes every running value EXACTLY as a
    sequential ``s += v`` loop would: one cumsum per segment when segments
    are few and long, rounds-wise vectorized adds (round j adds each
    active segment's j-th value) when segments are many and short,
    whichever needs fewer Python iterations. Both keep each user's exact
    left-to-right float association, so the result does not depend on
    which other users share the input. (A single global cumsum differenced
    at segment starts, or pandas' grouped cumsum, which compensates its
    summation, is NOT the sequential sum.) ``np.maximum.reduceat`` takes
    each segment's running peak."""
    if not len(users):
        return users, np.empty(0), np.empty(0)
    order = np.argsort(users, kind="stable")
    u = users[order]
    v = values[order].astype(np.float64)
    starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
    ends = np.r_[starts[1:], u.size]
    seg_len = ends - starts
    maxlen = int(seg_len.max())
    run = np.empty_like(v)
    if starts.size <= maxlen:
        for st, en in zip(starts, ends):
            run[st:en] = np.cumsum(v[st:en])
    else:
        cur = np.zeros(starts.size)
        for j in range(maxlen):
            act = seg_len > j
            idx = starts[act] + j
            cur[act] = cur[act] + v[idx]
            run[idx] = cur[act]
    return u[starts], run[ends - 1], np.maximum.reduceat(run, starts)


def streaming_running_totals(sf_dir: str):
    """Per-user total + peak running sum over the (ts, event_id)-ordered
    events log: key-shuffled like ``running_sum_events``, one sequential
    per-user sum per bucket (``_running_totals``). NULL values add
    nothing, as in SQL ``SUM``; a user whose values are all NULL keeps
    NULL total and peak."""
    ds = _read_blocked(sf_dir, "events", ["user_id", "ts", "event_id", "value"])

    def totals(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        uid = d.user_id.to_numpy(np.int64)
        v = d.value.to_numpy(np.float64, na_value=np.nan)
        ok = ~np.isnan(v)
        users, total, peak = _running_totals(uid[ok], v[ok])
        return pd.DataFrame(
            {"total": _round(total, 2), "max_running": _round(peak, 2)},
            index=pd.Index(users, name="user_id"),
        ).reindex(pd.Index(np.unique(uid), name="user_id")).reset_index()

    return _key_shuffle(ds, ["user_id"], totals)


STREAMING_TOTALS_SQL = """
WITH rs AS (
  SELECT user_id, value,
    SUM(value) OVER (PARTITION BY user_id ORDER BY ts, event_id
                     ROWS UNBOUNDED PRECEDING) AS run
  FROM events)
SELECT user_id,
  FLOOR(SUM(value)*100+0.5)/100 AS total,
  FLOOR(MAX(run)*100+0.5)/100 AS max_running
FROM rs GROUP BY user_id
"""


# ---------------------------------------------------------------------------
# Validation-engine checks expressed over the generic tables
# ---------------------------------------------------------------------------


def column_stats_lineitem(sf_dir: str):
    """Per-column exact stats (NumericStats shape): the four columns melt
    into (col_name, v) rows and fold per column name."""
    cols = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]

    def melt(batch: pa.Table) -> pa.Table:
        return pa.table({
            "col_name": pa.array(np.repeat(cols, batch.num_rows)),
            "v": pa.concat_arrays([batch[c].combine_chunks() for c in cols])})

    df = _group_fold(_read_blocked(sf_dir, "lineitem", cols), ["col_name"],
                     {"count": ("v", "count"), "rows": (None, "count_all"),
                      "min": ("v", "min"), "max": ("v", "max"),
                      "vsum": ("v", "sum")}, melt).to_pandas()
    df["null_count"] = df.pop("rows") - df["count"]
    df["mean"] = df.pop("vsum") / df["count"]
    df = _round_cols(df, {"min": 4, "max": 4, "mean": 4})
    return _pa_from_pandas(df, preserve_index=False)


COLUMN_STATS_SQL = """
SELECT col_name, count, null_count,
  FLOOR(vmin*10000+0.5)/10000 AS min, FLOOR(vmax*10000+0.5)/10000 AS max,
  FLOOR(vsum/count*10000+0.5)/10000 AS mean
FROM (
  SELECT 'l_quantity' AS col_name, COUNT(l_quantity) AS count,
         COUNT(*)-COUNT(l_quantity) AS null_count, MIN(l_quantity) AS vmin,
         MAX(l_quantity) AS vmax, SUM(l_quantity) AS vsum FROM lineitem
  UNION ALL
  SELECT 'l_extendedprice', COUNT(l_extendedprice), COUNT(*)-COUNT(l_extendedprice),
         MIN(l_extendedprice), MAX(l_extendedprice), SUM(l_extendedprice) FROM lineitem
  UNION ALL
  SELECT 'l_discount', COUNT(l_discount), COUNT(*)-COUNT(l_discount),
         MIN(l_discount), MAX(l_discount), SUM(l_discount) FROM lineitem
  UNION ALL
  SELECT 'l_tax', COUNT(l_tax), COUNT(*)-COUNT(l_tax),
         MIN(l_tax), MAX(l_tax), SUM(l_tax) FROM lineitem
)
"""


def uniqueness_pk(sf_dir: str):
    """PK uniqueness over four tables: partial per-block key counts → ONE
    ``_key_shuffle`` on (table index, key) — the engine's unique_image_id
    check generalized (SURVEY.md §2.7 item 2). The four tables feed a
    single exchange, so the query pays one shuffle's fixed latency instead
    of four, and the driver sums per-bucket, per-table counts."""
    specs = [("orders", "o_orderkey"), ("part", "p_partkey"),
             ("documents", "doc_id"), ("events", "event_id")]

    def precount(ti: int):
        def fn(batch: pa.Table) -> pa.Table:
            v, c = np.unique(batch.column(0).to_numpy(), return_counts=True)
            return pa.table({"ti": pa.array(np.full(v.size, ti, np.int64)),
                             "k": pa.array(v), "c": pa.array(c.astype(np.int64))})
        return fn

    def bucket_sum(df: pd.DataFrame) -> pd.DataFrame:
        tot = df.groupby(["ti", "k"], sort=False).c.sum().reset_index()
        return tot.assign(keys=1, dup_keys=(tot.c > 1).astype(np.int64)).groupby(
            "ti", as_index=False).agg(rows=("c", "sum"), keys=("keys", "sum"),
                                      dup_keys=("dup_keys", "sum"))

    agg = _key_shuffle(
        [_read_blocked(sf_dir, table, [key]) for table, key in specs],
        ["ti", "k"], bucket_sum, [precount(ti) for ti in range(len(specs))]
    ).to_pandas().groupby("ti").sum().reindex(range(len(specs)), fill_value=0)
    rows = [{"table_name": table, "n_rows": int(agg.loc[ti, "rows"]),
             "n_keys": int(agg.loc[ti, "keys"]),
             "n_dup_keys": int(agg.loc[ti, "dup_keys"])}
            for ti, (table, _key) in enumerate(specs)]
    return pa.Table.from_pylist(rows)


UNIQUENESS_SQL = """
SELECT 'orders' AS table_name, COUNT(*) AS n_rows, COUNT(DISTINCT o_orderkey) AS n_keys,
  (SELECT COUNT(*) FROM (SELECT o_orderkey FROM orders GROUP BY 1 HAVING COUNT(*)>1)) AS n_dup_keys FROM orders
UNION ALL
SELECT 'part', COUNT(*), COUNT(DISTINCT p_partkey),
  (SELECT COUNT(*) FROM (SELECT p_partkey FROM part GROUP BY 1 HAVING COUNT(*)>1)) FROM part
UNION ALL
SELECT 'documents', COUNT(*), COUNT(DISTINCT doc_id),
  (SELECT COUNT(*) FROM (SELECT doc_id FROM documents GROUP BY 1 HAVING COUNT(*)>1)) FROM documents
UNION ALL
SELECT 'events', COUNT(*), COUNT(DISTINCT event_id),
  (SELECT COUNT(*) FROM (SELECT event_id FROM events GROUP BY 1 HAVING COUNT(*)>1)) FROM events
"""


def referential_orphans(sf_dir: str):
    """Broadcast anti-join referential checks (engine referential_image_id)."""
    import pyarrow.parquet as pq
    import ray

    from ..functions.hashing import hash64

    specs = [
        ("orders_to_customer", "orders", "o_custkey", "customer", "c_custkey"),
        ("lineitem_to_orders", "lineitem", "l_orderkey", "orders", "o_orderkey"),
        ("lineitem_to_part", "lineitem", "l_partkey", "part", "p_partkey"),
    ]
    def build_relation(name, fact, fk, dim, pk):
        keys = pq.read_table(f"{sf_dir}/{dim}.parquet", columns=[pk])[pk].to_numpy()
        probe = np.sort(hash64(keys))
        wrapped = {"ref": ray.put(probe)}

        def anti_join(batch: pa.Table, fk=fk) -> pa.Table:
            # stateless task: shared-memory zero-copy ray.get of the probe
            # per call — no actor spawn, scales with free CPUs
            probe = ray.get(wrapped["ref"])
            h = hash64(batch[fk].to_numpy())
            pos = np.minimum(np.searchsorted(probe, h), probe.size - 1)
            miss = int((probe[pos] != h).sum())
            return pa.table({"orphans": pa.array([miss], pa.int64())})

        ds = _read_blocked(sf_dir, fact, [fk])
        return ds.map_batches(anti_join, batch_format="pyarrow", zero_copy_batch=True)

    def finish(name, counted) -> dict:
        total = counted.to_pandas()["orphans"].sum()
        return {"relation": name, "n_orphans": int(total)}

    # independent broadcast probes — build plans serially (lazy-import
    # safety), overlap execution from driver threads
    built = [(s[0], build_relation(*s)) for s in specs]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=len(built)) as pool:
        rows = list(pool.map(lambda s: finish(*s), built))
    return pa.Table.from_pylist(rows)


REFERENTIAL_SQL = """
SELECT 'orders_to_customer' AS relation,
  (SELECT COUNT(*) FROM orders o LEFT JOIN customer c ON o.o_custkey=c.c_custkey
   WHERE c.c_custkey IS NULL) AS n_orphans
UNION ALL
SELECT 'lineitem_to_orders',
  (SELECT COUNT(*) FROM lineitem l LEFT JOIN orders o ON l.l_orderkey=o.o_orderkey
   WHERE o.o_orderkey IS NULL)
UNION ALL
SELECT 'lineitem_to_part',
  (SELECT COUNT(*) FROM lineitem l LEFT JOIN part p ON l.l_partkey=p.p_partkey
   WHERE p.p_partkey IS NULL)
"""


def chi2_event_type(sf_dir: str):
    """Two-sample Chi² homogeneity: event_type mix of first vs second half of
    the event stream (split by median event_id) — the engine's fmt Chi² drift
    check over a generic categorical. The contingency table is one fold:
    per event_type, the row counts of each half."""
    half = _num_rows(sf_dir, "events") // 2

    def sides(batch: pa.Table) -> pa.Table:
        a = (batch["event_id"].to_numpy() < half).astype(np.int64)
        return pa.table({"event_type": batch["event_type"], "a": a, "b": 1 - a})

    cont = _group_fold(_read_blocked(sf_dir, "events", ["event_id", "event_type"]),
                       ["event_type"], {"a": ("a", "sum"), "b": ("b", "sum")},
                       sides).sort_by("event_type")
    stat, dof, p = chi2_test_counts(cont["a"].to_numpy(), cont["b"].to_numpy())
    return pa.Table.from_pylist([{
        "column": "event_type", "statistic": float(_round(stat, 6)), "dof": dof,
    }])


CHI2_SQL = """
WITH tot AS (SELECT COUNT(*) AS n FROM events),
cont AS (
  SELECT event_type,
    SUM(CASE WHEN event_id < (SELECT n//2 FROM tot) THEN 1 ELSE 0 END)::DOUBLE AS a,
    SUM(CASE WHEN event_id >= (SELECT n//2 FROM tot) THEN 1 ELSE 0 END)::DOUBLE AS b
  FROM events GROUP BY event_type),
sums AS (SELECT SUM(a) AS sa, SUM(b) AS sb, SUM(a)+SUM(b) AS grand FROM cont)
SELECT 'event_type' AS column,
  FLOOR(SUM( POWER(a - (a+b)*sa/grand, 2) / ((a+b)*sa/grand)
           + POWER(b - (a+b)*sb/grand, 2) / ((a+b)*sb/grand) )*1000000+0.5)/1000000 AS statistic,
  COUNT(*)::BIGINT - 1 AS dof
FROM cont, sums
"""


def ks_purchase_click(sf_dir: str):
    """Two-sample KS on the value distributions of two event types. The
    samples are collected per-type via column-pruned reads (bounded size); the
    statistic is the engine's exact-sample KS (stats.ks_2samp)."""
    ds = _read_blocked(sf_dir, "events", ["event_type", "value"])

    def split(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        keep = df[df.event_type.isin(["purchase", "click"])]
        return _pa_from_pandas(keep, preserve_index=False)

    small = ds.map_batches(split, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    a = small[small.event_type == "purchase"].value.to_numpy()
    b = small[small.event_type == "click"].value.to_numpy()
    d, _ = ks_2samp(a, b)
    return pa.Table.from_pylist([{
        "column": "value", "d_stat": float(_round(d, 6)),
        "n_a": int(a.size), "n_b": int(b.size),
    }])


KS_SQL = """
WITH a AS (SELECT value AS v FROM events WHERE event_type='purchase'),
b AS (SELECT value AS v FROM events WHERE event_type='click'),
na AS (SELECT COUNT(*)::DOUBLE AS n FROM a), nb AS (SELECT COUNT(*)::DOUBLE AS n FROM b),
pooled AS (SELECT v, 1 AS s FROM a UNION ALL SELECT v, 0 FROM b),
cum AS (
  SELECT v,
    SUM(s) OVER (ORDER BY v RANGE UNBOUNDED PRECEDING)::DOUBLE AS ca,
    SUM(1-s) OVER (ORDER BY v RANGE UNBOUNDED PRECEDING)::DOUBLE AS cb
  FROM pooled)
SELECT 'value' AS column,
  FLOOR(MAX(ABS(ca/(SELECT n FROM na) - cb/(SELECT n FROM nb)))*1000000+0.5)/1000000 AS d_stat,
  (SELECT n FROM na)::BIGINT AS n_a, (SELECT n FROM nb)::BIGINT AS n_b
FROM cum
"""


def _sorted_column(sf_dir: str, table: str, col: str) -> np.ndarray:
    """Driver-side sorted copy of ONE pruned column — the oracle-exact fit
    path shared by the exact-quantile and quantile-binning ops (the t-digest
    sketch is the at-scale default; accuracy pinned in unit tests)."""
    ds = _read_blocked(sf_dir, table, [col])
    return np.sort(np.concatenate([
        b[col].to_numpy()
        for b in ds.iter_batches(batch_size=65536, batch_format="pyarrow")
    ]))


QFIT_DRIVER_MAX_ROWS = 50_000_000  # one pruned float64 column, ~400 MB


def _fit_bounds_gated(sf_dir: str, table: str, col: str, qs) -> np.ndarray:
    """Quantile-boundary fit shared by the discretize/winsorize ops:
    driver-exact sort of the ONE pruned column below QFIT_DRIVER_MAX_ROWS
    (the oracle anchor — discrete data values, bit-identical comparisons),
    per-block t-digest partials merged on the driver above it (one ~2 KB
    digest per block; approximate, accuracy pinned in tests)."""
    n = _num_rows(sf_dir, table)
    if n <= QFIT_DRIVER_MAX_ROWS:
        vals = _sorted_column(sf_dir, table, col)
        return np.array([float(vals[max(int(np.ceil(q * n)) - 1, 0)])
                         for q in qs])
    from ..state.sketches import TDigest

    ds = _read_blocked(sf_dir, table, [col])

    def partial(batch: pa.Table) -> pa.Table:
        td = TDigest()
        td.update(batch[col].to_numpy())
        return pa.table({"blob": pa.array([td.to_bytes()], pa.binary())})

    blobs = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    merged = TDigest.merge_many([TDigest.from_bytes(b) for b in blobs.blob])
    return np.asarray(merged.quantile(list(qs)), dtype=np.float64)


def quantiles_extendedprice(sf_dir: str):
    """Exact quantiles (driver-side on one pruned column; the t-digest sketch
    is the at-scale path — its accuracy is pinned in unit tests)."""
    vals = _sorted_column(sf_dir, "lineitem", "l_extendedprice")
    qs = [0.25, 0.5, 0.75, 0.95]
    out = np.quantile(vals, qs)  # linear interpolation == quantile_cont
    return pa.table({
        "q": pa.array(qs, pa.float64()),
        "value": pa.array(_round(out, 4), pa.float64()),
    })


QUANTILES_SQL = """
SELECT 0.25 AS q, FLOOR(quantile_cont(l_extendedprice, 0.25)*10000+0.5)/10000 AS value FROM lineitem
UNION ALL
SELECT 0.5, FLOOR(quantile_cont(l_extendedprice, 0.5)*10000+0.5)/10000 FROM lineitem
UNION ALL
SELECT 0.75, FLOOR(quantile_cont(l_extendedprice, 0.75)*10000+0.5)/10000 FROM lineitem
UNION ALL
SELECT 0.95, FLOOR(quantile_cont(l_extendedprice, 0.95)*10000+0.5)/10000 FROM lineitem
"""


# ---------------------------------------------------------------------------
# Seeded split / deterministic random sample (SURVEY.md §2.6) — the engine
# analogue of the reference's seeded 5-way proportional split
# (/root/reference/ml/training.py:248-270). Randomness is a Knuth
# multiplicative hash of the key, computed identically in numpy and SQL
# (modular arithmetic kept within int64), so assignment is deterministic at
# any parallelism and oracle-checkable — the scale-correct replacement for a
# stateful shuffle-based split (no data movement at all).
# ---------------------------------------------------------------------------

SPLIT_FRACTIONS = (("train", 60), ("val", 10), ("test", 15), ("cal", 5), ("detect", 10))


def _knuth_bucket(keys: np.ndarray) -> np.ndarray:
    """((key % 4096) * 2654435761) % 2^32 → [0, 100) bucket. int64-safe."""
    r = ((keys.astype(np.int64) % 4096) * 2654435761) % 4294967296
    return (r * 100) // 4294967296


def grouped_split_events(sf_dir: str):
    """GROUP-integrity train/val/test split of events: the split key is the
    USER, not the row, so no user's events straddle splits — the leakage
    hygiene a per-row split violates (a user in both train and test leaks
    their behavior into evaluation). 80/10/10 by the Knuth bucket of
    user_id (same deterministic hash the row-split ops use, so the oracle
    mirrors it in SQL). Output per split: row count, EXACT distinct user
    count, plus the measured (not assumed) cross-split user leak count —
    structurally zero, verified by the same pass.

    Shape: per-block (split, n_rows) partials + per-block distinct
    (user, split) pairs → ``_key_shuffle`` on the user, where each bucket
    counts its distinct users per split and any user seen under > 1 split
    — exact because a user's rows all reach one bucket."""
    ds = _read_blocked(sf_dir, "events", ["user_id"])

    def assign(u: np.ndarray) -> np.ndarray:
        b = _knuth_bucket(u)
        s = np.empty(u.size, dtype=object)
        s[b < 80] = "train"
        s[(b >= 80) & (b < 90)] = "val"
        s[b >= 90] = "test"
        return s

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            # explicitly typed: a pandas-built empty frame would carry a
            # null-typed 'split' column
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "split": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        u = batch["user_id"].to_numpy().astype(np.int64)
        s = assign(u)
        uu = np.unique(u)
        out = pd.DataFrame({"user_id": uu, "split": assign(uu)})
        out["n"] = 0
        cnt = pd.DataFrame({"split": s}).groupby("split", sort=False
                                                 ).size().to_dict()
        rows = [{"user_id": -1, "split": k, "n": int(v)}
                for k, v in cnt.items()]
        return _pa_from_pandas(
            pd.concat([out, pd.DataFrame(rows)], ignore_index=True),
            preserve_index=False)

    def bucket_fold(df: pd.DataFrame) -> pd.DataFrame:
        rows = df[df.user_id < 0]
        users = df[df.user_id >= 0]
        out = rows.groupby("split", sort=False).n.sum().reset_index()
        out["n_users"] = 0
        out["leaked"] = 0
        if len(users):
            g = users.groupby("user_id", sort=False).split
            per_user = g.nunique()
            first = g.first()
            uc = first[per_user == 1].value_counts()
            u_out = pd.DataFrame({"split": uc.index, "n": 0,
                                  "n_users": uc.to_numpy().astype(np.int64),
                                  "leaked": 0})
            leak = int((per_user > 1).sum())
            if leak:
                u_out = pd.concat([u_out, pd.DataFrame(
                    [{"split": "train", "n": 0, "n_users": 0,
                      "leaked": leak}])], ignore_index=True)
            out = pd.concat([out, u_out], ignore_index=True)
        return out

    # per-bucket partials are split-bounded (<= 3-4 rows each): merge on
    # the driver — a second Ray exchange charged a full sort shuffle to
    # sum tens of rows
    part = _key_shuffle(ds, ["user_id"], bucket_fold, partial).to_pandas()
    df = part.groupby("split", as_index=False).agg(
        n_rows=("n", "sum"), n_users=("n_users", "sum"), lk=("leaked", "sum"))
    leaked_total = int(df.lk.sum())
    return pa.table({
        "split": pa.array(df.split.to_numpy(dtype=object), pa.string()),
        "n_rows": pa.array(df.n_rows.to_numpy(np.int64)),
        "n_users": pa.array(df.n_users.to_numpy(np.int64)),
        "leaked_users": pa.array(
            np.full(len(df), leaked_total, dtype=np.int64)),
    })


_UHASH_SQL = "(((user_id % 4096) * 2654435761) % 4294967296 * 100) // 4294967296"

GROUPED_SPLIT_SQL = f"""
WITH a AS (
  SELECT user_id,
         CASE WHEN {_UHASH_SQL} < 80 THEN 'train'
              WHEN {_UHASH_SQL} < 90 THEN 'val'
              ELSE 'test' END AS split
  FROM events)
SELECT split, COUNT(*)::BIGINT AS n_rows,
       COUNT(DISTINCT user_id)::BIGINT AS n_users,
       (SELECT COUNT(*) FROM (
          SELECT user_id FROM a GROUP BY user_id
          HAVING COUNT(DISTINCT split) > 1))::BIGINT AS leaked_users
FROM a GROUP BY split
"""


def split_proportions_orders(sf_dir: str):
    """5-way proportional split of orders; per-split row count + revenue
    checksum proves identical assignment vs the oracle."""
    def assign(batch: pa.Table) -> pa.Table:
        b = _knuth_bucket(batch["o_orderkey"].to_numpy())
        names = np.empty(len(b), dtype=object)
        lo = 0
        for name, pct in SPLIT_FRACTIONS:
            names[(b >= lo) & (b < lo + pct)] = name
            lo += pct
        return pa.table({"split": pa.array(names, pa.string()),
                         "price": batch["o_totalprice"]})

    df = _group_fold(_read_blocked(sf_dir, "orders", ["o_orderkey", "o_totalprice"]),
                     ["split"], {"n": (None, "count_all"),
                                 "total": ("price", "sum")}, assign).to_pandas()
    return _pa_from_pandas(_round_cols(df, {"total": 2}), preserve_index=False)


_HASH_SQL = "((o_orderkey % 4096) * 2654435761) % 4294967296"
_BUCKET_SQL = f"(({_HASH_SQL}) * 100) // 4294967296"

SPLIT_SQL = f"""
WITH b AS (SELECT o_totalprice, {_BUCKET_SQL} AS bkt FROM orders)
SELECT CASE
    WHEN bkt < 60 THEN 'train' WHEN bkt < 70 THEN 'val' WHEN bkt < 85 THEN 'test'
    WHEN bkt < 90 THEN 'cal' ELSE 'detect' END AS split,
  COUNT(*) AS n,
  FLOOR(SUM(o_totalprice) * 100 + 0.5) / 100 AS total
FROM b GROUP BY 1
"""


def sample_random_orders(sf_dir: str, k: int = 100):
    """Deterministic 'random' k-sample: global top-k by the multiplicative
    hash (distributed sort + limit) — order-free sampling at any scale."""
    ds = _read_blocked(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def add_key(batch: pa.Table) -> pa.Table:
        keys = batch["o_orderkey"].to_numpy()
        r = ((keys.astype(np.int64) % 4096) * 2654435761) % 4294967296
        if len(r) > k:  # per-block partial top-k: the sort sees blocks*k rows
            idx = np.lexsort((keys, r))[:k]
            batch = batch.take(pa.array(idx))
            r = r[idx]
        return batch.append_column("r", pa.array(r))

    out = ds.map_batches(add_key, batch_format="pyarrow", zero_copy_batch=True
                         ).sort(["r", "o_orderkey"]).limit(k)

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": batch["o_orderkey"],
            "o_totalprice": pa.array(_round(batch["o_totalprice"].to_numpy(), 2)),
        })

    return out.map_batches(finish, batch_format="pyarrow")


SAMPLE_SQL = f"""
SELECT o_orderkey, FLOOR(o_totalprice * 100 + 0.5) / 100 AS o_totalprice
FROM orders
ORDER BY {_HASH_SQL}, o_orderkey
LIMIT 100
"""


def stratified_sample_orders(sf_dir: str, k: int = 20):
    """Per-stratum deterministic sample: smallest-k by multiplicative hash
    WITHIN each o_orderpriority — the class-balanced sample/split the
    reference performs per label (seeded per-class split,
    /root/reference/ml/training.py:248-270). Per-block partial top-k per
    stratum first, so the ``_key_shuffle`` on the stratum sees <= blocks *
    strata * k rows instead of the table. A NULL priority is a stratum of
    its own."""
    ds = _read_blocked(sf_dir, "orders",
                       ["o_orderkey", "o_totalprice", "o_orderpriority"])

    def partial(batch: pa.Table) -> pa.Table:
        keys = batch["o_orderkey"].to_numpy()
        r = ((keys.astype(np.int64) % 4096) * 2654435761) % 4294967296
        pr, _ = pd.factorize(batch["o_orderpriority"].to_numpy(
            zero_copy_only=False), use_na_sentinel=False)
        order = np.lexsort((keys, r, pr))  # by (stratum, hash, key)
        pr_s = pr[order]
        starts = np.flatnonzero(np.r_[True, pr_s[1:] != pr_s[:-1]])
        ends = np.r_[starts[1:], pr_s.size]
        take = np.concatenate([order[s:min(s + k, e)]
                               for s, e in zip(starts, ends)])
        return batch.take(pa.array(take)).append_column(
            "r", pa.array(r[take]))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["r", "o_orderkey"], kind="mergesort").groupby(
            "o_orderpriority", dropna=False, sort=False).head(k)
        return pd.DataFrame({
            "o_orderkey": df.o_orderkey.to_numpy(),
            "o_orderpriority": df.o_orderpriority.to_numpy(),
            "o_totalprice": _round(df.o_totalprice.to_numpy(), 2),
        })

    return _key_shuffle(ds, ["o_orderpriority"], finish, partial)


STRATIFIED_SAMPLE_SQL = f"""
SELECT o_orderkey, o_orderpriority,
       FLOOR(o_totalprice * 100 + 0.5) / 100 AS o_totalprice
FROM orders
QUALIFY ROW_NUMBER() OVER (PARTITION BY o_orderpriority
                           ORDER BY {_HASH_SQL}, o_orderkey) <= 20
"""


def shuffle_orders(sf_dir: str, seed: int = 42):
    """Seeded global ``random_shuffle`` (the reference's loader shuffling,
    ml/training.py:272-283; SURVEY.md §2.6). A shuffle is a permutation, so
    the oracle checks content preservation (count + key checksum); fixed-seed
    order determinism is pinned by a test, not SQL (the permutation itself is
    executor-defined)."""
    ds = _read_blocked(sf_dir, "orders", ["o_orderkey"]).random_shuffle(seed=seed)
    return _group_fold(ds, [], {"n": (None, "count_all"),
                                "key_sum": ("o_orderkey", "sum")})


SHUFFLE_SQL = """
SELECT COUNT(*)::BIGINT AS n, SUM(o_orderkey)::BIGINT AS key_sum FROM orders
"""


# ---------------------------------------------------------------------------
# Sketch-default variants of KS / quantiles (the at-scale paths; VERDICT r1).
# The exact-sample versions above stay as the oracle anchors; these stream
# bounded per-block sketch partials instead of collecting raw columns.
# ---------------------------------------------------------------------------

KS_HIST_BINS = 1024


def _purchase_click_bins(batch: pa.Table, bin_of) -> pa.Table:
    """(bin, a, b) rows of the purchase (a) and click (b) events, binned by
    ``bin_of(value)``: the projection both histogram drift statistics fold
    per bin."""
    et = batch["event_type"].to_numpy(zero_copy_only=False)
    sel = (et == "purchase") | (et == "click")
    return pa.table({"bin": bin_of(batch["value"].to_numpy()[sel]),
                     "a": (et[sel] == "purchase").astype(np.int64),
                     "b": (et[sel] == "click").astype(np.int64)})


def ks_purchase_click_hist(sf_dir: str):
    """Histogram-KS over a fixed binning of the value domain: one fold of
    per-bin (purchase, click) counts -> D at bin boundaries. The binning
    arithmetic is identical in SQL, so this sketch path is itself
    oracle-checked (bin width from the domain min/max fold)."""
    ds = _read_blocked(sf_dir, "events", ["event_type", "value"])
    dom = _group_fold(ds, [], {"lo": ("value", "min"), "hi": ("value", "max")})
    lo, hi = dom["lo"][0].as_py(), dom["hi"][0].as_py()
    width = (hi - lo) / KS_HIST_BINS or 1.0

    hist = _group_fold(ds, ["bin"], {"a": ("a", "sum"), "b": ("b", "sum")},
                       lambda b: _purchase_click_bins(b, lambda v: np.clip(
                           ((v - lo) / width).astype(np.int64), 0, KS_HIST_BINS - 1)))
    full = np.zeros((KS_HIST_BINS, 2), dtype=np.float64)
    full[hist["bin"].to_numpy(), 0] = hist["a"].to_numpy()
    full[hist["bin"].to_numpy(), 1] = hist["b"].to_numpy()
    na, nb = full[:, 0].sum(), full[:, 1].sum()
    d = float(np.abs(full[:, 0].cumsum() / max(na, 1) - full[:, 1].cumsum() / max(nb, 1)).max())
    return pa.Table.from_pylist([{
        "column": "value", "d_stat": float(_round(d, 6)),
        "n_a": int(na), "n_b": int(nb),
    }])


KS_HIST_SQL = f"""
WITH dom AS (SELECT MIN(value) AS lo, (MAX(value) - MIN(value)) / {KS_HIST_BINS} AS w
             FROM events),
binned AS (
  SELECT LEAST(GREATEST(CAST(FLOOR((value - dom.lo) / dom.w) AS BIGINT), 0), {KS_HIST_BINS - 1}) AS bin,
    CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END AS a,
    CASE WHEN event_type = 'click' THEN 1 ELSE 0 END AS b
  FROM events, dom WHERE event_type IN ('purchase', 'click')),
hist AS (SELECT bin, SUM(a)::DOUBLE AS a, SUM(b)::DOUBLE AS b FROM binned GROUP BY bin),
tot AS (SELECT SUM(a) AS na, SUM(b) AS nb FROM hist),
cum AS (
  SELECT SUM(a) OVER (ORDER BY bin) AS ca, SUM(b) OVER (ORDER BY bin) AS cb
  FROM hist)
SELECT 'value' AS column,
  FLOOR(MAX(ABS(ca/(SELECT na FROM tot) - cb/(SELECT nb FROM tot)))*1000000+0.5)/1000000 AS d_stat,
  (SELECT na FROM tot)::BIGINT AS n_a, (SELECT nb FROM tot)::BIGINT AS n_b
FROM cum
"""


def quantiles_extendedprice_tdigest(sf_dir: str):
    """t-digest quantiles: per-block digest partials merged on the driver
    (bounded: one ~2 KB digest per block) — the at-scale default for the
    exact driver-side sort above. Rows-only (approximate); accuracy vs exact
    is pinned in tests."""
    from ..state.sketches import TDigest

    ds = _read_blocked(sf_dir, "lineitem", ["l_extendedprice"])

    def partial(batch: pa.Table) -> pa.Table:
        td = TDigest()
        td.update(batch["l_extendedprice"].to_numpy())
        return pa.table({"blob": pa.array([td.to_bytes()], pa.binary())})

    blobs = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    merged = TDigest.merge_many([TDigest.from_bytes(b) for b in blobs.blob])
    qs = [0.25, 0.5, 0.75, 0.95]
    return pa.table({
        "q": pa.array(qs, pa.float64()),
        "value": pa.array(_round(merged.quantile(qs), 4), pa.float64()),
    })


# ---------------------------------------------------------------------------
# Histogram-divergence drift statistics (functions/divergence.py): PSI / JS /
# Hellinger / Wasserstein-1 between two event-type value distributions, all
# from ONE fixed-bin histogram pass — per-block (bin, r, t) count partials ->
# tiny groupby -> 25-cell driver math. The same statistics back the "psi",
# "js", "hellinger", "wasserstein" Check plugins in the image pipeline.
# ---------------------------------------------------------------------------

DIVERGENCE_BINS = 25
DIVERGENCE_WIDTH = 20.0  # value domain [0, 500) in the events fixture


def divergence_purchase_click(sf_dir: str):
    """All four bin divergences (ref=purchase, test=click) over a fixed
    binning of `value` — sketch-state-only drift scoring, SQL-oracled."""
    from ..functions import divergence as dv

    hist = _group_fold(_read_blocked(sf_dir, "events", ["event_type", "value"]),
                       ["bin"], {"a": ("a", "sum"), "b": ("b", "sum")},
                       lambda b: _purchase_click_bins(b, lambda v: np.clip(
                           np.floor(v / DIVERGENCE_WIDTH).astype(np.int64),
                           0, DIVERGENCE_BINS - 1)))
    full = np.zeros((DIVERGENCE_BINS, 2), dtype=np.int64)
    full[hist["bin"].to_numpy(), 0] = hist["a"].to_numpy()
    full[hist["bin"].to_numpy(), 1] = hist["b"].to_numpy()
    r, t = full[:, 0], full[:, 1]
    return pa.Table.from_pylist([{
        "column": "value",
        "psi": float(_round(dv.psi(r, t), 6)),
        "js": float(_round(dv.js_divergence(r, t), 6)),
        "hellinger": float(_round(dv.hellinger(r, t), 6)),
        "w1": float(_round(dv.wasserstein1_binned(r, t, DIVERGENCE_WIDTH), 6)),
        "n_ref": int(r.sum()), "n_test": int(t.sum()),
    }])


DIVERGENCE_SQL = f"""
WITH binned AS (
  SELECT LEAST(GREATEST(CAST(FLOOR(value / {DIVERGENCE_WIDTH}) AS BIGINT), 0),
               {DIVERGENCE_BINS - 1}) AS bin,
    CASE WHEN event_type='purchase' THEN 1 ELSE 0 END AS r,
    CASE WHEN event_type='click' THEN 1 ELSE 0 END AS t
  FROM events WHERE event_type IN ('purchase', 'click')),
grid AS (SELECT UNNEST(range({DIVERGENCE_BINS})) AS bin),
hist AS (
  SELECT g.bin, COALESCE(SUM(b.r), 0)::DOUBLE AS r, COALESCE(SUM(b.t), 0)::DOUBLE AS t
  FROM grid g LEFT JOIN binned b ON b.bin = g.bin GROUP BY g.bin),
tot AS (SELECT SUM(r) AS nr, SUM(t) AS nt FROM hist),
p AS (
  SELECT bin,
    (r + 0.5) / ((SELECT nr FROM tot) + {DIVERGENCE_BINS} * 0.5) AS pr,
    (t + 0.5) / ((SELECT nt FROM tot) + {DIVERGENCE_BINS} * 0.5) AS pt,
    r / (SELECT nr FROM tot) AS ur, t / (SELECT nt FROM tot) AS ut
  FROM hist),
cum AS (
  SELECT SUM(ur) OVER (ORDER BY bin) - SUM(ut) OVER (ORDER BY bin) AS cd FROM p)
SELECT 'value' AS column,
  FLOOR((SELECT SUM((pr - pt) * LN(pr / pt)) FROM p) * 1000000 + 0.5) / 1000000 AS psi,
  FLOOR((SELECT SUM(0.5 * pr * LN(pr / ((pr + pt) / 2)) + 0.5 * pt * LN(pt / ((pr + pt) / 2))) FROM p)
        * 1000000 + 0.5) / 1000000 AS js,
  FLOOR(SQRT(0.5 * (SELECT SUM(POWER(SQRT(pr) - SQRT(pt), 2)) FROM p))
        * 1000000 + 0.5) / 1000000 AS hellinger,
  FLOOR((SELECT {DIVERGENCE_WIDTH} * SUM(ABS(cd)) FROM cum) * 1000000 + 0.5) / 1000000 AS w1,
  (SELECT nr FROM tot)::BIGINT AS n_ref, (SELECT nt FROM tot)::BIGINT AS n_test
"""


# ---------------------------------------------------------------------------
# Custom operators Ray Data lacks natively: as-of join + hopping windows
# (SURVEY.md §2.9 engine-new stream shapes).
# ---------------------------------------------------------------------------


def asof_join_purchase_click(sf_dir: str):
    """As-of join: for each 'purchase' event, the most recent 'click' by the
    same user at or before its timestamp.

    The Ray Data shape: filter each block (no raw-row shuffle of other
    event types) -> ``_key_shuffle`` on user_id (never one Ray group per
    user) -> within a bucket ONE vectorized
    searchsorted merge over the (user, time) composite key covers every
    user: a purchase probe only matches clicks in its own user's key range
    by construction."""
    ds = _read_blocked(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def keep(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.is_in(batch["event_type"], value_set=pa.array(["purchase", "click"])))

    def asof(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        dense, ts, key = _user_time_key(d)
        is_click = (d.event_type == "click").to_numpy()
        idx = np.searchsorted(key[is_click], key[~is_click],
                              side="right") - 1
        sel = idx >= 0
        # same-user check: a probe below its user's first click resolves to
        # another user's range — mask those out
        sel[sel] = dense[is_click][idx[sel]] == dense[~is_click][sel]
        p = d[~is_click][sel]
        ci = idx[sel]
        c_eid = d.event_id.to_numpy()[is_click][ci]
        c_ts = ts[is_click][ci]
        return pd.DataFrame({
            "event_id": p.event_id.to_numpy(),
            "user_id": p.user_id.to_numpy(),
            "click_event_id": c_eid,
            "gap_us": (_ts_us(p.ts) - c_ts).astype(np.int64),
        })

    return _key_shuffle(ds, ["user_id"], asof, keep)


ASOF_SQL = """
SELECT p.event_id, p.user_id, c.event_id AS click_event_id,
  epoch_us(p.ts) - epoch_us(c.ts) AS gap_us
FROM (SELECT * FROM events WHERE event_type = 'purchase') p
ASOF JOIN (SELECT * FROM events WHERE event_type = 'click') c
  ON p.user_id = c.user_id AND p.ts >= c.ts
"""


def window_hopping_events(sf_dir: str):
    """Hopping (sliding) 2-hour windows advancing 1 hour: each event belongs
    to exactly two windows, assigned by DUPLICATION inside the block (no
    self-join, no shuffle amplification beyond the 2x row fan-out), then the
    tumbling path's ``_key_fold``."""
    hop = pa.scalar(3_600_000_000, pa.duration("us"))

    def assign(batch: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(batch["ts"], unit="hour").cast(pa.timestamp("us"))
        return pa.concat_tables([
            pa.table({"window_start": ws, "event_type": batch["event_type"],
                      "value": batch["value"]})
            for ws in (hour, pc.subtract(hour, hop))])

    out = _key_fold(_read_blocked(sf_dir, "events", ["ts", "event_type", "value"]),
                    ["window_start", "event_type"],
                    {"n": (None, "count_all"), "sum_value": ("value", "sum")},
                    assign)
    df = _round_cols(out.to_pandas(), {"sum_value": 2})
    df["window_start"] = df["window_start"].astype("datetime64[us]")
    return _pa_from_pandas(df, preserve_index=False)


WINDOW_HOP_SQL = """
WITH x AS (
  SELECT date_trunc('hour', ts) AS window_start, event_type, value FROM events
  UNION ALL
  SELECT date_trunc('hour', ts) - INTERVAL 1 HOUR, event_type, value FROM events)
SELECT window_start, event_type, COUNT(*) AS n,
  FLOOR(SUM(value)*100+0.5)/100 AS sum_value
FROM x GROUP BY 1, 2
"""


def rolling_1h_events(sf_dir: str):
    """Per-user rolling 1-hour window (count + sum of value over [ts-1h, ts]):
    ``_key_shuffle`` on the user; within a bucket ONE searchsorted + cumsum
    pass over the (user, time) composite key covers every user — window
    probes that underflow a user's range land between users by
    construction, so no per-user loop and no boundary mask."""
    ds = _read_blocked(sf_dir, "events", ["event_id", "ts", "user_id", "value"])
    hour_us = 3_600_000_000

    def roll(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        _, _, key = _user_time_key(d, extra_us=hour_us)
        lo = np.searchsorted(key, key - hour_us, side="left")
        hi = np.searchsorted(key, key, side="right")
        cs = np.concatenate([[0.0], np.cumsum(d.value.to_numpy())])
        return pd.DataFrame({
            "event_id": d.event_id.to_numpy(),
            "user_id": d.user_id.to_numpy(),
            "n_1h": (hi - lo).astype(np.int64),
            "sum_1h": _round(cs[hi] - cs[lo], 2),
        })

    return _key_shuffle(ds, ["user_id"], roll)


ROLLING_SQL = """
SELECT event_id, user_id, COUNT(*) OVER w AS n_1h,
  FLOOR(SUM(value) OVER w * 100 + 0.5) / 100 AS sum_1h
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts
             RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
"""


def topn_orders_per_priority(sf_dir: str, n: int = 3):
    """Grouped top-N (window ROW_NUMBER shape): one per-key top-N kernel
    runs on each block (the partial top-k-before-shuffle pattern, so only
    n x n_blocks x n_keys rows move) and again per ``_key_shuffle``
    bucket; a NULL priority is a partition of its own."""
    def top(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True])
        return df.groupby("o_orderpriority", dropna=False, sort=False).head(n)

    return _key_shuffle(
        _read_blocked(sf_dir, "orders",
                      ["o_orderpriority", "o_orderkey", "o_totalprice"]),
        ["o_orderpriority"], top,
        lambda t: _pa_from_pandas(top(t.to_pandas()), preserve_index=False))


TOPN_PER_KEY_SQL = """
SELECT o_orderpriority, o_orderkey, o_totalprice FROM orders
QUALIFY ROW_NUMBER() OVER (PARTITION BY o_orderpriority
                           ORDER BY o_totalprice DESC, o_orderkey) <= 3
"""


# ---------------------------------------------------------------------------
# Set operations over key sets — SURVEY.md §2.6 (engine-new: distinct /
# union / intersect / except as one distributed pass)
# ---------------------------------------------------------------------------


def setops_customer_orders(sf_dir: str):
    """UNION / INTERSECT / EXCEPT cardinalities of {c_custkey} vs
    {distinct o_custkey} in one shuffle: per-block unique partials tagged by
    side meet in ``_key_shuffle`` buckets (all copies of one key land in one
    bucket), vectorized per-bucket set algebra, tiny final sum. No
    driver-side key materialization — the at-scale shape for DISTINCT-based
    set ops."""
    def tag(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            k = np.unique(batch.column(0).to_numpy())
            return pa.table({"k": pa.array(k.astype(np.int64)),
                             "side": pa.array(np.full(k.size, side, np.int64))})
        return fn

    def bucket_setops(df: pd.DataFrame) -> pd.DataFrame:
        a = np.unique(df.k.to_numpy()[df.side.to_numpy() == 0])
        b = np.unique(df.k.to_numpy()[df.side.to_numpy() == 1])
        inter = np.intersect1d(a, b, assume_unique=True).size
        return pd.DataFrame({
            "n_customers": [int(a.size)],
            "n_order_custkeys": [int(b.size)],
            "n_union": [int(a.size + b.size - inter)],
            "n_intersect": [int(inter)],
            "n_cust_only": [int(a.size - inter)],
            "n_orders_only": [int(b.size - inter)],
        })

    out = _key_shuffle(
        [_read_blocked(sf_dir, "customer", ["c_custkey"]),
         _read_blocked(sf_dir, "orders", ["o_custkey"])],
        ["k"], bucket_setops, [tag(0), tag(1)]).to_pandas().sum()
    return pa.Table.from_pylist([{c: int(out[c]) for c in out.index}])


SETOPS_SQL = """
SELECT
  (SELECT COUNT(DISTINCT c_custkey) FROM customer) AS n_customers,
  (SELECT COUNT(DISTINCT o_custkey) FROM orders) AS n_order_custkeys,
  (SELECT COUNT(*) FROM (SELECT c_custkey FROM customer
                         UNION SELECT o_custkey FROM orders)) AS n_union,
  (SELECT COUNT(*) FROM (SELECT c_custkey FROM customer
                         INTERSECT SELECT DISTINCT o_custkey FROM orders)) AS n_intersect,
  (SELECT COUNT(*) FROM (SELECT c_custkey FROM customer
                         EXCEPT SELECT o_custkey FROM orders)) AS n_cust_only,
  (SELECT COUNT(*) FROM (SELECT DISTINCT o_custkey FROM orders
                         EXCEPT SELECT c_custkey FROM customer)) AS n_orders_only
"""


# ---------------------------------------------------------------------------
# Range (interval) join — SURVEY.md §2 custom operators: small interval
# table broadcast, probe side streams (non-overlapping intervals)
# ---------------------------------------------------------------------------

PRICE_BANDS = [  # (band, lo incl, hi excl) — non-overlapping, sorted
    ("budget", 900.0, 925.0),
    ("mid", 925.0, 950.0),
    ("upper", 950.0, 975.0),
    ("premium", 975.0, 1000.0),
]


def range_join_price_bands(sf_dir: str):
    """Interval join part→price band: the band table is broadcast (it is
    small by construction) and each batch probes it with one searchsorted
    against the sorted interval edges — the canonical Ray shape for a
    range join with a small build side. Rows outside every band drop out
    (inner join semantics)."""
    lows = np.array([b[1] for b in PRICE_BANDS])
    highs = np.array([b[2] for b in PRICE_BANDS])
    names = np.array([b[0] for b in PRICE_BANDS])

    def probe(batch: pa.Table) -> pa.Table:
        p = batch["p_retailprice"].to_numpy()
        idx = np.searchsorted(lows, p, side="right") - 1
        ok = (idx >= 0) & (p < highs[np.clip(idx, 0, len(PRICE_BANDS) - 1)])
        return pa.table({"band": pa.array(names[idx[ok]], pa.string()),
                         "price": p[ok]})

    df = _group_fold(_read_blocked(sf_dir, "part", ["p_retailprice"]), ["band"],
                     {"n": (None, "count_all"), "price_sum": ("price", "sum")},
                     probe).to_pandas()
    df["avg_price"] = _round(df.pop("price_sum") / df["n"], 2)
    return _pa_from_pandas(df, preserve_index=False)


RANGE_JOIN_SQL = """
SELECT band, COUNT(*) AS n,
  FLOOR(AVG(p_retailprice)*100+0.5)/100 AS avg_price
FROM part
JOIN (VALUES ('budget', 900.0, 925.0), ('mid', 925.0, 950.0),
             ('upper', 950.0, 975.0), ('premium', 975.0, 1000.0))
     AS b(band, lo, hi)
  ON p_retailprice >= lo AND p_retailprice < hi
GROUP BY band
"""


# ---------------------------------------------------------------------------
# LAG/LEAD window shape: per-user event time deltas — SURVEY.md §2.9
# ---------------------------------------------------------------------------


def event_gaps_per_user(sf_dir: str):
    """Per-user inter-event gap stats (the LAG() window shape): users meet
    in ``_key_shuffle`` buckets, and within a bucket the per-user sort +
    diff is one vectorized pandas pass — never one Ray group per user."""
    ds = _read_blocked(sf_dir, "events", ["user_id", "ts"])

    def bucket_gaps(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["user_id", "ts"], kind="mergesort")
        gap = d.ts.diff().dt.total_seconds()
        gap[d.user_id.ne(d.user_id.shift())] = np.nan  # first event per user
        d = d.assign(gap=gap)
        g = d.groupby("user_id", sort=False)
        out = pd.DataFrame({
            "n_events": g.size(),
            "avg_gap_s": _round(g.gap.mean().to_numpy(), 2),
            "max_gap_s": _round(g.gap.max().to_numpy(), 2),
        }).reset_index()
        out["n_events"] = out["n_events"].astype(np.int64)
        return out[out.n_events > 1]

    return _key_shuffle(ds, ["user_id"], bucket_gaps)


EVENT_GAPS_SQL = """
SELECT user_id, COUNT(*) AS n_events,
  FLOOR(AVG(gap)*100+0.5)/100 AS avg_gap_s,
  FLOOR(MAX(gap)*100+0.5)/100 AS max_gap_s
FROM (
  SELECT user_id,
    EPOCH(ts - LAG(ts) OVER (PARTITION BY user_id ORDER BY ts)) AS gap
  FROM events
)
GROUP BY user_id HAVING COUNT(*) > 1
"""


DEBOUNCE_WINDOW_S = 3600


def dedup_events_debounce(sf_dir: str, window_s: int = DEBOUNCE_WINDOW_S):
    """Windowed event dedup (debounce): keep an event only if it starts a new
    burst — more than ``window_s`` after the previous event of the same
    (user, event_type) — the streaming-ingest sibling of the document dedups
    (duplicate clicks, retried webhooks). Same shape as sessionization: one
    ``_key_shuffle`` on the user co-locates every (user, type) stream, and
    the burst predicate is a vectorized shift-compare inside the bucket (a
    NULL type is one stream, as in PARTITION BY)."""
    ds = _read_blocked(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])

    def keep_burst_starts(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["user_id", "event_type", "ts", "event_id"],
                           kind="mergesort")
        gap = d.ts.diff().dt.total_seconds()
        et, prev = d.event_type, d.event_type.shift()
        same = (d.user_id.eq(d.user_id.shift())
                & (et.eq(prev) | (et.isna() & prev.isna())))
        keep = ~(same & (gap <= window_s))
        out = d.loc[keep, ["event_id", "user_id", "event_type"]]
        return out.reset_index(drop=True)

    return _key_shuffle(ds, ["user_id"], keep_burst_starts)


DEBOUNCE_SQL = f"""
WITH g AS (
  SELECT event_id, user_id, event_type,
    EPOCH(ts - LAG(ts) OVER (PARTITION BY user_id, event_type
                             ORDER BY ts, event_id)) AS gap
  FROM events)
SELECT event_id, user_id, event_type
FROM g WHERE gap IS NULL OR gap > {DEBOUNCE_WINDOW_S}
"""


# ---------------------------------------------------------------------------
# Grouped exact quantiles (PERCENTILE_DISC shape) — SURVEY.md §2.7.5
# ---------------------------------------------------------------------------


def grouped_quantiles_flag(sf_dir: str):
    """Exact discrete per-group quantiles of l_extendedprice by returnflag:
    each ``_key_shuffle`` bucket sorts each of its flags' values once (the
    t-digest sketch path is the at-scale default; this is the oracle-exact
    variant, same split as quantiles_extendedprice). A NULL flag is a group
    of its own."""
    ds = _read_blocked(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])

    def qtiles(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for _, g in df.groupby("l_returnflag", dropna=False, sort=False):
            v = np.sort(g.l_extendedprice.to_numpy())
            # PERCENTILE_DISC: smallest value with cume_dist >= q
            idx = [max(int(np.ceil(q * v.size)) - 1, 0) for q in (0.25, 0.5, 0.75)]
            rows.append([g.l_returnflag.iloc[0], *v[idx]])
        return pd.DataFrame(rows, columns=["l_returnflag", "p25", "p50", "p75"]
                            ).astype({q: np.float64 for q in ("p25", "p50", "p75")})

    return _key_shuffle(ds, ["l_returnflag"], qtiles)


GROUPED_QUANTILES_SQL = """
SELECT l_returnflag,
  QUANTILE_DISC(l_extendedprice, 0.25) AS p25,
  QUANTILE_DISC(l_extendedprice, 0.50) AS p50,
  QUANTILE_DISC(l_extendedprice, 0.75) AS p75
FROM lineitem GROUP BY l_returnflag
"""


# ---------------------------------------------------------------------------
# Pivot (wide categorical aggregate) — SURVEY.md §2.3
# ---------------------------------------------------------------------------


def pivot_status_by_priority(sf_dir: str):
    """Orders count pivoted to one column per o_orderstatus, rows keyed by
    priority: each status column is a per-row indicator summed by one
    priority-keyed fold — the wide step never leaves the projection."""
    statuses = ("F", "O", "P")

    def indicators(batch: pa.Table) -> pa.Table:
        st = batch["o_orderstatus"].to_numpy(zero_copy_only=False)
        return pa.table({"o_orderpriority": batch["o_orderpriority"],
                         **{f"n_{s}": (st == s).astype(np.int64)
                            for s in statuses}})

    return _group_fold(
        _read_blocked(sf_dir, "orders", ["o_orderpriority", "o_orderstatus"]),
        ["o_orderpriority"], {f"n_{s}": (f"n_{s}", "sum") for s in statuses},
        indicators)


PIVOT_SQL = """
SELECT o_orderpriority,
  COUNT(*) FILTER (o_orderstatus = 'F') AS "n_F",
  COUNT(*) FILTER (o_orderstatus = 'O') AS "n_O",
  COUNT(*) FILTER (o_orderstatus = 'P') AS "n_P"
FROM orders GROUP BY o_orderpriority
"""


# ---------------------------------------------------------------------------
# Broadcast semi-join — SURVEY.md §2.5 (the anti-join's sibling)
# ---------------------------------------------------------------------------


def semijoin_orders_build_nation(sf_dir: str, nation: str = "NATION_7"):
    """Orders whose customer is in one nation: the small side (custkeys of
    that nation) broadcasts as a sorted hash probe; the fact table streams
    through a membership filter — no shuffle (same probe as
    referential_orphans, semi instead of anti)."""
    import pyarrow.parquet as pq
    import ray

    from ..functions.hashing import hash64

    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"])
    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"])
    nkey = nat.filter(pa.compute.equal(nat["n_name"], nation))["n_nationkey"]
    nk = nkey[0].as_py() if len(nkey) else -1
    keys = cust.filter(pa.compute.equal(cust["c_nationkey"], nk))["c_custkey"]
    probe = np.sort(hash64(keys.to_numpy()))
    wrapped = {"ref": ray.put(probe)}

    def semi_join(batch: pa.Table) -> pa.Table:
        # stateless task; probe read zero-copy from the object store per call
        probe = ray.get(wrapped["ref"])
        h = hash64(batch["o_custkey"].to_numpy())
        pos = np.minimum(np.searchsorted(probe, h), max(probe.size - 1, 0))
        mask = (probe[pos] == h) if probe.size else np.zeros(len(h), bool)
        hit = batch.filter(pa.array(mask))
        return pa.table({
            "n": pa.array([hit.num_rows], pa.int64()),
            "total": pa.array([float(pa.compute.sum(hit["o_totalprice"]).as_py()
                                     or 0.0)]),
        })

    ds = _read_blocked(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    parts = ds.map_batches(semi_join, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    return pa.Table.from_pylist([{
        "n_orders": int(parts["n"].sum()),
        "total_price": float(_round(parts["total"].sum(), 2)),
    }])


SEMIJOIN_SQL = """
SELECT COUNT(*) AS n_orders,
  FLOOR(SUM(o_totalprice)*100+0.5)/100 AS total_price
FROM orders WHERE o_custkey IN (
  SELECT c_custkey FROM customer JOIN nation ON c_nationkey = n_nationkey
  WHERE n_name = 'NATION_7')
"""


# ---------------------------------------------------------------------------
# Grouped Pearson correlation — SURVEY.md §2.3 (pure partial+combiner)
# ---------------------------------------------------------------------------


def corr_price_quantity_by_flag(sf_dir: str):
    """corr(l_extendedprice, l_quantity) per returnflag from moment folds
    (n, Σx, Σy, Σxx, Σyy, Σxy) — nothing but 6 numbers per (block, group)
    ever leaves a map task; the classic mergeable-moments shape."""
    def moments(batch: pa.Table) -> pa.Table:
        x = batch["l_extendedprice"].to_numpy()
        y = batch["l_quantity"].to_numpy()
        return pa.table({"l_returnflag": batch["l_returnflag"], "sx": x, "sy": y,
                         "sxx": x * x, "syy": y * y, "sxy": x * y})

    m = ["sx", "sy", "sxx", "syy", "sxy"]
    df = _group_fold(_read_blocked(
        sf_dir, "lineitem", ["l_returnflag", "l_extendedprice", "l_quantity"]),
        ["l_returnflag"], {"n": (None, "count_all"), **{c: (c, "sum") for c in m}},
        moments).to_pandas()
    n = df.n.to_numpy().astype(np.float64)
    cov = df.sxy.to_numpy() - df.sx.to_numpy() * df.sy.to_numpy() / n
    vx = df.sxx.to_numpy() - df.sx.to_numpy() ** 2 / n
    vy = df.syy.to_numpy() - df.sy.to_numpy() ** 2 / n
    out = pd.DataFrame({
        "l_returnflag": df.l_returnflag,
        "n": df.n.astype(np.int64),
        "corr_xy": _round(cov / np.sqrt(vx * vy), 6),
    })
    return _pa_from_pandas(out, preserve_index=False)


def corr_matrix_lineitem(sf_dir: str):
    """Full pairwise correlation matrix over the numeric lineitem columns in
    ONE streaming pass: each block contributes (n, Σx, XᵀX) moment partials
    (d + d² doubles regardless of block height — the PCA-partial shape,
    functions/pca.py), the driver merge is O(blocks · d²), and every pairwise
    corr falls out of the merged covariance. The one-pass-all-pairs sibling
    of corr_price_quantity_by_flag."""
    from ..functions.pca import pca_partials

    cols = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]
    d = len(cols)
    ds = _read_blocked(sf_dir, "lineitem", cols)

    def partial(batch: pa.Table) -> pa.Table:
        x = np.column_stack([batch[c].to_numpy() for c in cols])
        n, s, g = pca_partials(x)
        return pa.table({"n": pa.array([n], pa.int64()),
                         "s": pa.array([s.tobytes()], pa.binary()),
                         "g": pa.array([g.tobytes()], pa.binary())})

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    # sort partials before summing: float addition is not associative and
    # blocks arrive in task-completion order (the _moments_dataset rule)
    parts = parts.sort_values(["n", "s", "g"], kind="mergesort").reset_index(drop=True)
    n = int(parts.n.sum())
    s = np.sum([np.frombuffer(b, np.float64) for b in parts.s], axis=0)
    g = np.sum([np.frombuffer(b, np.float64).reshape(d, d) for b in parts.g],
               axis=0)
    cov = g - np.outer(s, s) / max(n, 1)
    sd = np.sqrt(np.diag(cov))
    corr = cov / np.outer(sd, sd)
    ia, ib = np.triu_indices(d, k=1)
    return pa.table({
        "col_a": pa.array([cols[i] for i in ia]),
        "col_b": pa.array([cols[j] for j in ib]),
        "n": pa.array(np.full(ia.size, n, dtype=np.int64)),
        "corr": pa.array(_round(corr[ia, ib], 6)),
    })


CORR_MATRIX_SQL = """
SELECT 'l_quantity' AS col_a, 'l_extendedprice' AS col_b, COUNT(*) AS n,
  FLOOR(CORR(l_quantity, l_extendedprice)*1000000+0.5)/1000000 AS corr FROM lineitem
UNION ALL SELECT 'l_quantity', 'l_discount', COUNT(*),
  FLOOR(CORR(l_quantity, l_discount)*1000000+0.5)/1000000 FROM lineitem
UNION ALL SELECT 'l_quantity', 'l_tax', COUNT(*),
  FLOOR(CORR(l_quantity, l_tax)*1000000+0.5)/1000000 FROM lineitem
UNION ALL SELECT 'l_extendedprice', 'l_discount', COUNT(*),
  FLOOR(CORR(l_extendedprice, l_discount)*1000000+0.5)/1000000 FROM lineitem
UNION ALL SELECT 'l_extendedprice', 'l_tax', COUNT(*),
  FLOOR(CORR(l_extendedprice, l_tax)*1000000+0.5)/1000000 FROM lineitem
UNION ALL SELECT 'l_discount', 'l_tax', COUNT(*),
  FLOOR(CORR(l_discount, l_tax)*1000000+0.5)/1000000 FROM lineitem
"""


def entropy_categoricals(sf_dir: str):
    """Shannon entropy of categorical columns (event_type, o_orderpriority):
    both tables union into one tagged (column_name, v) fold, so only
    (distinct-value × block) rows reach the driver — the cardinality
    profiler behind column-drift scoring."""
    specs = [("events", "event_type"), ("orders", "o_orderpriority")]

    def tagged(table: str, col: str):
        return _read_blocked(sf_dir, table, [col]).map_batches(
            lambda b: pa.table({"column_name": pa.array([col] * b.num_rows),
                                "v": b[col]}),
            batch_format="pyarrow", zero_copy_batch=True)

    agg = _group_fold(tagged(*specs[0]).union(tagged(*specs[1])),
                      ["column_name", "v"], {"c": (None, "count_all")})
    rows = []
    for _, col in specs:
        c = agg.filter(pc.equal(agg["column_name"], col))["c"].to_numpy(
            ).astype(np.float64)
        p = c / c.sum()
        rows.append({"column_name": col, "n": int(c.sum()),
                     "entropy": float(_round(-(p * np.log(p)).sum(), 6))})
    return pa.Table.from_pylist(rows)


ENTROPY_SQL = """
WITH e AS (SELECT event_type AS v, COUNT(*)::DOUBLE AS c FROM events GROUP BY 1),
o AS (SELECT o_orderpriority AS v, COUNT(*)::DOUBLE AS c FROM orders GROUP BY 1)
SELECT 'event_type' AS column_name, SUM(c)::BIGINT AS n,
  FLOOR(-SUM((c / (SELECT SUM(c) FROM e)) * ln(c / (SELECT SUM(c) FROM e)))
        * 1000000 + 0.5) / 1000000 AS entropy
FROM e
UNION ALL
SELECT 'o_orderpriority', SUM(c)::BIGINT,
  FLOOR(-SUM((c / (SELECT SUM(c) FROM o)) * ln(c / (SELECT SUM(c) FROM o)))
        * 1000000 + 0.5) / 1000000
FROM o
"""


CORR_SQL = """
SELECT l_returnflag, COUNT(*) AS n,
  FLOOR(CORR(l_extendedprice, l_quantity)*1000000+0.5)/1000000 AS corr_xy
FROM lineitem GROUP BY l_returnflag
"""


# ---------------------------------------------------------------------------
# Grouped approximate distinct (HLL) — SURVEY.md §2.7.5, the sketch-default
# path for COUNT(DISTINCT) per group (rows-only: approximate by design; the
# accuracy bound is pinned by a test against the exact answer)
# ---------------------------------------------------------------------------


def approx_distinct_users_by_type(sf_dir: str):
    """Distinct user_id per event_type via mergeable HyperLogLog partials:
    each block emits one serialized HLL per group (4 KB regardless of group
    size), each ``_key_shuffle`` bucket merges its types' registers — the
    only shape that survives 10^12 rows of high-cardinality COUNT(DISTINCT).
    A NULL type is a group of its own."""
    from ..state.sketches import HyperLogLog

    ds = _read_blocked(sf_dir, "events", ["event_type", "user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        types, blobs = [], []
        for _, g in df.groupby("event_type", dropna=False, sort=False):
            h = HyperLogLog()
            h.update(g.user_id.to_numpy())
            types.append(g.event_type.iloc[0])
            blobs.append(h.to_bytes())
        return pa.table({"event_type": pa.array(types, pa.string()),
                         "hll": pa.array(blobs, pa.binary())})

    def merge_groups(df: pd.DataFrame) -> pd.DataFrame:
        from functools import reduce

        types, users = [], []
        for _, g in df.groupby("event_type", dropna=False, sort=False):
            merged = reduce(lambda a, b: a.merge(b),
                            [HyperLogLog.from_bytes(b) for b in g.hll])
            types.append(g.event_type.iloc[0])
            users.append(int(round(merged.estimate())))
        return pd.DataFrame({"event_type": types, "approx_users": users})

    out = _key_shuffle(ds, ["event_type"], merge_groups, partial).to_pandas()
    out = out.sort_values("event_type").reset_index(drop=True)
    return _pa_from_pandas(out, preserve_index=False)


APPROX_DISTINCT_EXACT_SQL = """
SELECT event_type, COUNT(DISTINCT user_id) AS exact_users
FROM events GROUP BY event_type ORDER BY event_type
"""


# ---------------------------------------------------------------------------
# IQR outlier counts — SURVEY.md §2.7.5 (exact quartiles + fence counts on
# one driver-resident pruned read; the t-digest sketch is the at-scale twin)
# ---------------------------------------------------------------------------


def outlier_counts_lineitem(sf_dir: str):
    """Tukey-fence outlier counts per numeric column, oracle-exact variant:
    ONE pruned read materializes the three numeric columns driver-side and
    both the exact Q1/Q3 and the fence counts come from that frame. This is
    deliberately the driver-resident exact twin — the t-digest sketch path
    (quantiles_extendedprice_tdigest / column_stats) is the at-scale
    variant of this audit."""
    cols = ["l_quantity", "l_extendedprice", "l_discount"]
    # ONE read for everything (was 2 executions per column — the
    # per-execution fixed cost dominated): the exact-quantile variant
    # already materializes the pruned columns driver-side, so the fence
    # counts come from the same frame; the t-digest sketch path is the
    # at-scale variant of this audit.
    df = _read_blocked(sf_dir, "lineitem", cols).to_pandas()
    rows = []
    for col in cols:
        v = np.sort(df[col].to_numpy())
        # PERCENTILE_DISC semantics to match QUANTILE_DISC in the oracle
        q1 = v[max(int(np.ceil(0.25 * v.size)) - 1, 0)]
        q3 = v[max(int(np.ceil(0.75 * v.size)) - 1, 0)]
        lo, hi = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
        rows.append({"column_name": col, "q1": float(q1), "q3": float(q3),
                     "n_outliers": int(((v < lo) | (v > hi)).sum())})
    return pa.Table.from_pylist(rows)


OUTLIER_SQL = """
WITH q AS (
  SELECT 'l_quantity' AS column_name,
    QUANTILE_DISC(l_quantity, 0.25) AS q1, QUANTILE_DISC(l_quantity, 0.75) AS q3
  FROM lineitem
  UNION ALL
  SELECT 'l_extendedprice', QUANTILE_DISC(l_extendedprice, 0.25),
    QUANTILE_DISC(l_extendedprice, 0.75) FROM lineitem
  UNION ALL
  SELECT 'l_discount', QUANTILE_DISC(l_discount, 0.25),
    QUANTILE_DISC(l_discount, 0.75) FROM lineitem
)
SELECT q.column_name, q.q1, q.q3,
  CASE q.column_name
    WHEN 'l_quantity' THEN (SELECT COUNT(*) FROM lineitem
      WHERE l_quantity < q.q1 - 1.5*(q.q3-q.q1) OR l_quantity > q.q3 + 1.5*(q.q3-q.q1))
    WHEN 'l_extendedprice' THEN (SELECT COUNT(*) FROM lineitem
      WHERE l_extendedprice < q.q1 - 1.5*(q.q3-q.q1) OR l_extendedprice > q.q3 + 1.5*(q.q3-q.q1))
    ELSE (SELECT COUNT(*) FROM lineitem
      WHERE l_discount < q.q1 - 1.5*(q.q3-q.q1) OR l_discount > q.q3 + 1.5*(q.q3-q.q1))
  END AS n_outliers
FROM q
"""


def histogram_extendedprice(sf_dir: str, n_bins: int = 16):
    """Exact equi-width histogram: fold 1 is the min/max (two scalars), fold
    2 counts rows per bucket — the exact anchor for the sketch histogram
    the validation DAG uses. Bucket math is pure IEEE double
    subtract/divide/floor, identical expressions in both engines, so parity
    is bit-exact for non-degenerate input (no rounding gate needed, unlike
    log-based scores); the constant-column case is handled on both sides
    (engine w==0 branch, oracle GREATEST guard → bucket 0)."""
    ds = _read_blocked(sf_dir, "lineitem", ["l_extendedprice"])
    mm = _group_fold(ds, [], {"mn": ("l_extendedprice", "min"),
                              "mx": ("l_extendedprice", "max")})
    mn, mx = mm["mn"][0].as_py(), mm["mx"][0].as_py()
    if mn is None:  # empty input: no occupied buckets
        return pa.table({"bucket": pa.array([], pa.int64()),
                         "lo": pa.array([], pa.float64()),
                         "n": pa.array([], pa.int64())})
    w = (mx - mn) / n_bins

    def bucket(batch: pa.Table) -> pa.Table:
        x = batch["l_extendedprice"].to_numpy()
        if w == 0.0:  # constant column: everything lands in bucket 0
            return pa.table({"bucket": np.zeros(x.size, dtype=np.int64)})
        return pa.table({"bucket": np.minimum(
            np.floor((x - mn) / w).astype(np.int64), n_bins - 1)})

    df = _group_fold(ds, ["bucket"], {"n": (None, "count_all")}, bucket).to_pandas()
    df["lo"] = _round(mn + df.bucket.to_numpy() * w, 6)
    return _pa_from_pandas(df[["bucket", "lo", "n"]], preserve_index=False)


HISTOGRAM_SQL = """
WITH b AS (
  SELECT MIN(l_extendedprice) AS mn, MAX(l_extendedprice) AS mx FROM lineitem),
h AS (
  -- GREATEST guards the constant-column case (mx == mn): 0/tiny = 0, so
  -- every row lands in bucket 0, matching the engine's w==0 branch
  SELECT LEAST(FLOOR((l_extendedprice - b.mn)
                     / GREATEST((b.mx - b.mn) / 16, 1e-300))::BIGINT,
               15) AS bucket
  FROM lineitem, b)
SELECT bucket,
  FLOOR(((SELECT mn FROM b) + bucket * (((SELECT mx FROM b) - (SELECT mn FROM b)) / 16))
        * 1000000 + 0.5) / 1000000 AS lo,
  COUNT(*)::BIGINT AS n
FROM h GROUP BY bucket
"""


# ---------------------------------------------------------------------------
# Sequential funnel — SURVEY.md §2.9 (ordered multi-step per-key predicate)
# ---------------------------------------------------------------------------


def funnel_view_click_purchase(sf_dir: str):
    """Per-user sequential funnel view -> click -> purchase (each later step
    strictly after the earlier one's FIRST occurrence). Users meet in
    ``_key_shuffle`` buckets (never one Ray group per user); inside a
    bucket the step timestamps reduce with one groupby-min pandas pass."""
    ds = _read_blocked(sf_dir, "events", ["user_id", "ts", "event_type"])

    def steps(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(
            batch["event_type"], value_set=pa.array(["view", "click", "purchase"])))

    def bucket_funnel(df: pd.DataFrame) -> pd.DataFrame:
        # first ts per (user, step), then ordered comparisons
        first = df.groupby(["user_id", "event_type"], sort=False).ts.min().unstack()
        for c in ("view", "click", "purchase"):
            if c not in first.columns:
                first[c] = pd.NaT
        v = first["view"].notna()
        c_ = v & first["click"].notna() & (first["click"] > first["view"])
        p = c_ & first["purchase"].notna() & (first["purchase"] > first["click"])
        return pd.DataFrame({"n_view": [int(v.sum())],
                             "n_view_click": [int(c_.sum())],
                             "n_view_click_purchase": [int(p.sum())]})

    out = _key_shuffle(ds, ["user_id"], bucket_funnel, steps).to_pandas().sum()
    return pa.Table.from_pylist([{k: int(out[k]) for k in
                                  ("n_view", "n_view_click",
                                   "n_view_click_purchase")}])


FUNNEL_SQL = """
WITH first_ts AS (
  SELECT user_id,
    MIN(ts) FILTER (event_type = 'view') AS t_view,
    MIN(ts) FILTER (event_type = 'click') AS t_click,
    MIN(ts) FILTER (event_type = 'purchase') AS t_purchase
  FROM events GROUP BY user_id
)
SELECT
  COUNT(*) FILTER (t_view IS NOT NULL) AS n_view,
  COUNT(*) FILTER (t_view IS NOT NULL AND t_click > t_view) AS n_view_click,
  COUNT(*) FILTER (t_view IS NOT NULL AND t_click > t_view
                   AND t_purchase > t_click) AS n_view_click_purchase
FROM first_ts
"""


# ---------------------------------------------------------------------------
# Coverage widening (round 2, session 3): grouping sets (CUBE), date
# bucketing, window DENSE_RANK, JSON/regex field extraction, UNPIVOT,
# distributed anti-join, argmax-per-key (SURVEY.md §2.2 / §2.6).
# ---------------------------------------------------------------------------


def cube_pricing_summary(sf_dir: str):
    """GROUP BY CUBE (returnflag, linestatus): all four grouping sets, the
    same one-scan shape as ``rollup_pricing_summary``."""
    return _pricing_grouping_sets(
        sf_dir, [["l_returnflag"], ["l_linestatus"], []])


CUBE_SQL = """
SELECT
  CASE WHEN GROUPING(l_returnflag) = 1 THEN 'ALL'
       ELSE COALESCE(l_returnflag, '(null)') END AS l_returnflag,
  CASE WHEN GROUPING(l_linestatus) = 1 THEN 'ALL'
       ELSE COALESCE(l_linestatus, '(null)') END AS l_linestatus,
  FLOOR(SUM(l_quantity)*100+0.5)/100 AS sum_qty,
  COUNT(*) AS count_order
FROM lineitem GROUP BY CUBE (l_returnflag, l_linestatus)
"""


def month_histogram_orders(sf_dir: str):
    """Date-bucketed aggregate (DATE_TRUNC shape): a month-keyed fold over
    the 'YYYY-MM' truncation — the time-series histogram every log
    pipeline needs. The truncation is a vectorized Arrow strftime, never a
    Python per-row date walk."""
    def month(batch: pa.Table) -> pa.Table:
        return pa.table({"month": pc.strftime(batch["o_orderdate"], format="%Y-%m"),
                         "o_totalprice": batch["o_totalprice"]})

    out = _group_fold(_read_blocked(sf_dir, "orders", ["o_orderdate", "o_totalprice"]),
                      ["month"], {"sum_price": ("o_totalprice", "sum"),
                                  "n_orders": (None, "count_all")}, month).to_pandas()
    out["sum_price"] = _round(out.sum_price, 2)
    return _pa_from_pandas(out, preserve_index=False)


MONTH_HIST_SQL = """
SELECT strftime(o_orderdate, '%Y-%m') AS month,
  FLOOR(SUM(o_totalprice)*100+0.5)/100 AS sum_price,
  COUNT(*) AS n_orders
FROM orders GROUP BY 1
"""


def rank_orders_dense(sf_dir: str, n: int = 3):
    """Window DENSE_RANK() <= n per key, ties kept (unlike
    ``topn_orders_per_priority``'s ROW_NUMBER head-n). Partial-safe: a price
    in the global top-n DISTINCT prices of its key is necessarily in its
    block's top-n distinct, so each block pre-filters with a vectorized
    pandas dense rank and only candidate rows reach the ``_key_shuffle``
    merge. A NULL priority is a partition of its own."""
    ds = _read_blocked(sf_dir, "orders", ["o_orderpriority", "o_orderkey", "o_totalprice"])

    def dense_filter(df: pd.DataFrame) -> pd.DataFrame:
        rnk = df.groupby("o_orderpriority", dropna=False).o_totalprice.rank(
            method="dense", ascending=False)
        df = df.assign(rnk=rnk.astype(np.int64))
        return df[df.rnk <= n]

    def partial(batch: pa.Table) -> pa.Table:
        return _pa_from_pandas(
            dense_filter(batch.to_pandas()).drop(columns="rnk"),
            preserve_index=False)

    return _key_shuffle(ds, ["o_orderpriority"], dense_filter, partial)


RANK_DENSE_SQL = """
SELECT o_orderpriority, o_orderkey, o_totalprice, rnk FROM (
  SELECT o_orderpriority, o_orderkey, o_totalprice,
    DENSE_RANK() OVER (PARTITION BY o_orderpriority
                       ORDER BY o_totalprice DESC) AS rnk
  FROM orders) WHERE rnk <= 3
"""


def json_extract_events(sf_dir: str):
    """Semi-structured field extraction: pull the integer ``k`` out of the
    JSON ``props`` string with one vectorized Arrow ``extract_regex`` per
    batch, then an event_type-keyed fold. Rows without the field become
    NULL and drop out of the aggregates, matching SQL semantics."""
    def extract(batch: pa.Table) -> pa.Table:
        ex = pc.extract_regex(batch["props"], pattern=r'"k": (?P<k>\d+)')
        return pa.table({"event_type": batch["event_type"],
                         "k": pc.cast(pc.struct_field(ex, "k"), pa.int64())})

    out = _group_fold(_read_blocked(sf_dir, "events", ["event_type", "props"]),
                      ["event_type"], {"sum_k": ("k", "sum"), "max_k": ("k", "max"),
                                       "n": ("k", "count")}, extract).to_pandas()
    out["avg_k"] = _round(out.pop("sum_k") / out.n, 4)
    return _pa_from_pandas(out, preserve_index=False)


JSON_EXTRACT_SQL = """
SELECT event_type, MAX(k) AS max_k, COUNT(k) AS n,
  FLOOR(SUM(k)::DOUBLE / COUNT(k) * 10000 + 0.5) / 10000 AS avg_k
FROM (SELECT event_type,
        CAST(NULLIF(regexp_extract(props, '"k": ([0-9]+)', 1), '')
             AS BIGINT) AS k
      FROM events)
GROUP BY event_type
"""


def unpivot_lineitem_measures(sf_dir: str):
    """UNPIVOT/melt: four measure columns become (measure, value) rows in
    ONE scan and one measure-keyed fold (4 groups). The oracle's UNION ALL
    re-scans per measure; the engine does not."""
    cols = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]

    def melt(batch: pa.Table) -> pa.Table:
        return pa.table({
            "measure": pa.array(np.repeat([c[2:] for c in cols], batch.num_rows)),
            "v": pa.concat_arrays([batch[c].combine_chunks() for c in cols])})

    out = _group_fold(_read_blocked(sf_dir, "lineitem", cols), ["measure"],
                      {"sum_value": ("v", "sum"), "n": ("v", "count")},
                      melt).to_pandas()
    out["avg_value"] = _round(out.sum_value / out.n, 4)
    out["sum_value"] = _round(out.sum_value, 2)
    return _pa_from_pandas(out, preserve_index=False)


UNPIVOT_SQL = """
WITH u AS (
  SELECT 'quantity' AS measure, l_quantity AS v FROM lineitem UNION ALL
  SELECT 'extendedprice', l_extendedprice FROM lineitem UNION ALL
  SELECT 'discount', l_discount FROM lineitem UNION ALL
  SELECT 'tax', l_tax FROM lineitem)
SELECT measure, FLOOR(SUM(v)*100+0.5)/100 AS sum_value, COUNT(v) AS n,
  FLOOR(SUM(v)/COUNT(v)*10000+0.5)/10000 AS avg_value
FROM u GROUP BY measure
"""


def antijoin_customers_no_orders(sf_dir: str):
    """Distributed anti-join WITHOUT a broadcast (the big-big shape
    ``referential_orphans`` can't use when the dim side outgrows the object
    store): both sides meet in ``_key_shuffle`` buckets on the key, the
    probe side filtered + pre-distinct-ed per block, and each bucket drops
    matched customers with one vectorized isin. Per-bucket per-segment
    partial counts roll up into a segment-cardinality final. The URGENT
    filter keeps the result non-empty at every scale (every customer has
    *some* order)."""
    def tag_cust(batch: pa.Table) -> pa.Table:
        return pa.table({"key": batch["c_custkey"],
                         "seg": batch["c_mktsegment"],
                         "side": pa.array(np.zeros(batch.num_rows, np.int8))})

    def tag_orders(batch: pa.Table) -> pa.Table:
        mask = pc.equal(batch["o_orderpriority"], "1-URGENT")
        k = np.unique(batch.filter(mask)["o_custkey"].to_numpy())
        return pa.table({"key": pa.array(k),
                         "seg": pa.array([""] * len(k), pa.string()),
                         "side": pa.array(np.ones(len(k), np.int8))})

    def bucket_anti(df: pd.DataFrame) -> pd.DataFrame:
        have = df.key[df.side == 1].unique()
        miss = df[(df.side == 0) & ~df.key.isin(have)]
        out = miss.groupby("seg", dropna=False).size().reset_index(
            name="n_customers")
        return out.rename(columns={"seg": "c_mktsegment"})

    part = _key_shuffle(
        [_read_blocked(sf_dir, "customer", ["c_custkey", "c_mktsegment"]),
         _read_blocked(sf_dir, "orders", ["o_custkey", "o_orderpriority"])],
        ["key"], bucket_anti, [tag_cust, tag_orders]).to_pandas()
    res = part.groupby("c_mktsegment", as_index=False,
                       dropna=False).n_customers.sum()
    res["n_customers"] = res.n_customers.astype(np.int64)
    return _pa_from_pandas(res, preserve_index=False)


ANTIJOIN_SQL = """
SELECT c_mktsegment, COUNT(*) AS n_customers
FROM customer c
WHERE NOT EXISTS (SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey
                  AND o.o_orderpriority = '1-URGENT')
GROUP BY c_mktsegment
"""


def latest_order_per_customer(sf_dir: str):
    """Argmax-per-key (max_by / QUALIFY ROW_NUMBER()=1 shape): each block
    keeps only its per-customer latest row (vectorized sort +
    drop_duplicates keep-last), so the shuffle moves at most one row per
    (block, customer); the ``_key_shuffle`` merge repeats the same
    reduction. Output is one row per customer — proportional to key
    cardinality, which is inherent to the operator."""
    ds = _read_blocked(sf_dir, "orders",
               ["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().sort_values(
            ["o_custkey", "o_orderdate", "o_orderkey"], kind="mergesort")
        return _pa_from_pandas(df.drop_duplicates("o_custkey", keep="last"),
                               preserve_index=False)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["o_custkey", "o_orderdate", "o_orderkey"],
                            kind="mergesort")
        return df.drop_duplicates("o_custkey", keep="last")

    return _key_shuffle(ds, ["o_custkey"], merge, partial)


LATEST_ORDER_SQL = """
SELECT o_custkey, o_orderkey, o_orderdate, o_totalprice
FROM orders
QUALIFY ROW_NUMBER() OVER (PARTITION BY o_custkey
                           ORDER BY o_orderdate DESC, o_orderkey DESC) = 1
"""


def interval_join_purchase_clicks(sf_dir: str, window_s: int = 300):
    """Interval (windowed stream-stream) join: for each purchase, how many
    clicks the same user made in the preceding ``window_s`` seconds
    (window (t-w, t]), reported as the n_clicks distribution.

    Ray shape: filter each block, ``_key_shuffle`` on user_id (never one
    Ray group per user), then ONE vectorized two-searchsorted pass per
    bucket over a collision-free
    (dense_uid * span + rel_ts) composite int64 key. span exceeds
    max(rel_ts) + window, so a lower bound that underflows a user's range
    still lands strictly above every other user's keys — no per-user loop,
    no clamp. Output size is bounded by the window's click-count support.
    The composite key needs users_per_bucket * (time_span + window) < 2^63
    — asserted per bucket."""
    w_us = window_s * 1_000_000
    ds = _read_blocked(sf_dir, "events", ["ts", "user_id", "event_type"])

    def keep(batch: pa.Table) -> pa.Table:
        m = pc.is_in(batch["event_type"],
                     value_set=pa.array(["purchase", "click"]))
        return batch.filter(m)

    def bucket_count(df: pd.DataFrame) -> pd.DataFrame:
        ts = _ts_us(df.ts)
        is_click = (df.event_type == "click").to_numpy()
        _, dense = np.unique(df.user_id.to_numpy(), return_inverse=True)
        rel = ts - ts.min()
        span = int(rel.max()) + w_us + 2
        if (int(dense.max(initial=0)) + 1) * span >= 2**63:  # python ints: no wrap
            raise ValueError("interval-join composite key overflow: "
                             "users/bucket x time span too large")
        key = dense.astype(np.int64) * span + rel
        ck = np.sort(key[is_click])
        pk = key[~is_click]
        n = (np.searchsorted(ck, pk, side="right")
             - np.searchsorted(ck, pk - w_us, side="right"))
        out = pd.DataFrame({"n_clicks": n.astype(np.int64)})
        return out.groupby("n_clicks").size().reset_index(name="n_purchases")

    part = _key_shuffle(ds, ["user_id"], bucket_count, keep).to_pandas()
    res = part.groupby("n_clicks", as_index=False).n_purchases.sum()
    res["n_purchases"] = res.n_purchases.astype(np.int64)
    return _pa_from_pandas(res, preserve_index=False)


INTERVAL_JOIN_SQL = """
WITH p AS (SELECT user_id, ts FROM events WHERE event_type = 'purchase'),
     c AS (SELECT user_id, ts FROM events WHERE event_type = 'click')
SELECT n_clicks, COUNT(*) AS n_purchases FROM (
  SELECT (SELECT COUNT(*) FROM c WHERE c.user_id = p.user_id
          AND c.ts > p.ts - INTERVAL 300 SECOND AND c.ts <= p.ts) AS n_clicks
  FROM p)
GROUP BY n_clicks
"""


def grouped_quantiles_tdigest(sf_dir: str):
    """Per-group t-digest quantiles — the at-scale path for
    ``grouped_quantiles_flag``: each block emits one ~2 KB digest PER GROUP
    (mergeable), each ``_key_shuffle`` bucket merges its flags' digests, and
    no stage ever holds a group's raw values in one worker. A NULL flag is
    a group of its own. Rows-only (approximate); accuracy vs the exact
    variant is pinned in tests."""
    from ..state.sketches import TDigest

    ds = _read_blocked(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        rows = []
        for _, g in df.groupby("l_returnflag", dropna=False, sort=False):
            td = TDigest()
            td.update(g.l_extendedprice.to_numpy())
            rows.append({"l_returnflag": g.l_returnflag.iloc[0],
                         "blob": td.to_bytes()})
        return pa.table({"l_returnflag": pa.array(
                             [r["l_returnflag"] for r in rows], pa.string()),
                         "blob": pa.array([r["blob"] for r in rows], pa.binary())})

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for _, g in df.groupby("l_returnflag", dropna=False, sort=False):
            merged = TDigest.merge_many([TDigest.from_bytes(b) for b in g.blob])
            rows.append([g.l_returnflag.iloc[0],
                         *merged.quantile([0.25, 0.5, 0.75])])
        return pd.DataFrame(rows, columns=["l_returnflag", "p25", "p50", "p75"])

    return _key_shuffle(ds, ["l_returnflag"], merge, partial)


def profile_table(sf_dir: str, table: str = "orders"):
    """Whole-table single-scan auto-profiler (schema-driven, the
    SUMMARIZE/describe shape): every column gets count + null count;
    numeric and timestamp columns get min/max/mean (timestamps as epoch
    seconds); string columns get an exact distinct count via per-batch
    unique-set partials (cap-guarded — profile-grade string columns are
    low-cardinality by assumption; ``approx_distinct_users_by_type``'s HLL
    is the high-cardinality default). ONE pass over the table, mergeable
    partials, the driver holds one partial row per (block, column)."""
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/{table}.parquet")
    schema = ds.schema()
    dtypes = {f: str(t) for f, t in zip(schema.names, schema.types)}
    # string-vs-numeric decided from the SAME arrow-type predicates the
    # per-block partial branches on — never from dtype-string prefixes
    # (a float16 prints 'halffloat' and would misclassify)
    str_cols = {f for f, t in zip(schema.names, schema.types)
                if not (pa.types.is_integer(t) or pa.types.is_floating(t)
                        or pa.types.is_timestamp(t))}
    cap = 10_000

    def partial(batch: pa.Table) -> pa.Table:
        rows = []
        for c in batch.column_names:
            col = batch[c]
            t = col.type
            n_null = col.null_count
            row = {"col_name": c, "n": len(col) - n_null, "n_null": n_null,
                   "min_v": np.nan, "max_v": np.nan, "sum_v": np.nan,
                   "sum_i": None, "uniques": []}
            if pa.types.is_integer(t):
                v = pc.drop_null(col).to_numpy(zero_copy_only=False)
                if v.size:
                    # exact per-block int sum shipped as decimal STRING
                    # (arrow int64-with-nulls would round-trip to float64
                    # via pandas); the driver re-parses and accumulates in
                    # python ints so the mean matches the oracle's HUGEINT
                    # arithmetic even past 2^53. The numpy fast path wraps
                    # silently past 2^63, so it only runs when the bound
                    # |max| * n proves it can't overflow.
                    # python-int bound (np.abs wraps on INT64_MIN)
                    if max(abs(int(v.min())), abs(int(v.max()))) * v.size < 2**63:
                        s = int(v.sum(dtype=np.int64))
                    else:
                        s = sum(int(x) for x in v)
                    row.update(min_v=float(v.min()), max_v=float(v.max()),
                               sum_i=str(s))
            elif pa.types.is_floating(t):
                v = pc.drop_null(col).to_numpy(zero_copy_only=False
                                               ).astype(np.float64)
                if v.size:
                    row.update(min_v=float(v.min()), max_v=float(v.max()),
                               sum_v=float(v.sum()))
            elif pa.types.is_timestamp(t):
                v = pc.drop_null(col).cast(pa.int64()).to_numpy(
                    zero_copy_only=False).astype(np.float64) / 1e6
                if v.size:
                    row.update(min_v=float(v.min()), max_v=float(v.max()),
                               sum_v=float(v.sum()))
            else:
                u = pc.unique(pc.drop_null(col)).to_pylist()
                if len(u) > cap:
                    raise ValueError(
                        f"profile: string column {c} exceeds {cap} distinct "
                        "values per block — use the HLL sketch path instead")
                row["uniques"] = u
            rows.append(row)
        return pa.Table.from_pylist(rows)

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    out = []
    for c, dt in dtypes.items():
        g = parts[parts.col_name == c]
        uniq = set().union(*g.uniques)
        if len(uniq) > cap:
            raise ValueError(f"profile: string column {c} exceeds {cap} "
                             "distinct values — use the HLL sketch path")
        n = int(g.n.sum())
        is_str = c in str_cols
        has_num = g.min_v.notna().any()
        if g.sum_i.notna().any():
            # exact python-int accumulation, then ONE cast to double before
            # the divide — the oracle's SUM()::DOUBLE / COUNT() order
            total = float(sum(int(s) for s in g.sum_i.dropna()))
        else:
            total = float(g.sum_v.sum())
        out.append({
            "col_name": c, "dtype": dt, "n": n,
            "n_null": int(g.n_null.sum()),
            "min_v": float(g.min_v.min()) if has_num else np.nan,
            "max_v": float(g.max_v.max()) if has_num else np.nan,
            "avg_v": float(_round(total / n, 4)) if has_num else np.nan,
            "n_distinct": float(len(uniq)) if is_str else np.nan,
        })
    return pa.Table.from_pylist(out)


def profile_table_orders(sf_dir: str):
    return profile_table(sf_dir, "orders")


_PROFILE_COL = """
SELECT '{c}' AS col_name, '{t}' AS dtype, COUNT({c}) AS n,
  COUNT(*) - COUNT({c}) AS n_null, {minv} AS min_v, {maxv} AS max_v,
  {avgv} AS avg_v, {nd} AS n_distinct
FROM orders
"""


def _profile_sql() -> str:
    num = dict(minv="MIN({c})::DOUBLE", maxv="MAX({c})::DOUBLE",
               avgv="FLOOR(SUM({c})::DOUBLE / COUNT({c}) * 10000 + 0.5) / 10000",
               nd="CAST(NULL AS DOUBLE)")
    ts = dict(minv="epoch(MIN({c}))", maxv="epoch(MAX({c}))",
              avgv="FLOOR(SUM(epoch({c})) / COUNT({c}) * 10000 + 0.5) / 10000",
              nd="CAST(NULL AS DOUBLE)")
    s = dict(minv="CAST(NULL AS DOUBLE)", maxv="CAST(NULL AS DOUBLE)",
             avgv="CAST(NULL AS DOUBLE)",
             nd="CAST(COUNT(DISTINCT {c}) AS DOUBLE)")
    cols = [("o_orderkey", "int64", num), ("o_custkey", "int64", num),
            ("o_orderstatus", "string", s), ("o_totalprice", "double", num),
            ("o_orderdate", "timestamp[us]", ts),
            ("o_orderpriority", "string", s)]
    return " UNION ALL ".join(
        _PROFILE_COL.format(c=c, t=t, **{k: v.format(c=c)
                                         for k, v in spec.items()})
        for c, t, spec in cols)


PROFILE_SQL = _profile_sql()


def partition_roundtrip_events(sf_dir: str):
    """Partitioned-sink + pruned-source roundtrip (the resumable-output
    contract, SURVEY §2.1 S4): events stream to hive-partitioned parquet —
    one directory per event_type, never one giant file — and the readback
    opens ONLY the wanted partition's directory, so the probe is file-level
    pruning, not a full-table scan + filter. The write goes through
    ``_staged_sink`` (a killed writer leaves no half partition), cached per
    source content so repeated calls measure the pruned read."""
    import os

    import ray.data

    root = _staged_sink(sf_dir, "events", "query", "events_by_type",
                        lambda tmp: _read_blocked(
                            sf_dir, "events", ["event_type", "value"]
                        ).write_parquet(tmp, partition_cols=["event_type"]))

    part_dir = f"{root}/event_type=purchase"
    if not os.path.isdir(part_dir):  # no purchase rows: match the oracle
        return pa.table({"event_type": pa.array(["purchase"], pa.string()),
                         "n": pa.array([0], pa.int64()),
                         "sum_value": pa.array([None], pa.float64())})
    part = ray.data.read_parquet(part_dir)

    def agg(batch: pa.Table) -> pa.Table:
        return pa.table({"n": pa.array([len(batch)], pa.int64()),
                         "s": pa.array([pc.sum(batch["value"]).as_py()],
                                       pa.float64())})

    p = part.map_batches(agg, batch_format="pyarrow",
                         zero_copy_batch=True).to_pandas()
    # NULL only when every block's sum is NULL, as SQL SUM
    s = p.s.sum(min_count=1)
    return pa.table({"event_type": pa.array(["purchase"], pa.string()),
                     "n": pa.array([int(p.n.sum())], pa.int64()),
                     "sum_value": pa.array([float(_round(s, 2))],
                                           pa.float64(), from_pandas=True)})


PARTITION_ROUNDTRIP_SQL = """
SELECT 'purchase' AS event_type, COUNT(*) AS n,
  FLOOR(SUM(value) * 100 + 0.5) / 100 AS sum_value
FROM events WHERE event_type = 'purchase'
"""


def bin_prices_quartile(sf_dir: str):
    """Quantile feature binning (the discretization step of feature
    engineering): PERCENTILE_DISC quartile boundaries are fit once via
    _fit_bounds_gated — driver-exact on the one pruned column below the
    row gate (oracle exactness), merged t-digest partials above it
    (accuracy pinned in tests) — then broadcast, and the bin assignment is
    a per-batch searchsorted folded per bin. Discrete (data-value)
    boundaries keep the <= comparisons bit-identical on both engines."""
    bounds = _fit_bounds_gated(sf_dir, "lineitem", "l_extendedprice",
                               (0.25, 0.5, 0.75))
    labels = np.array(["q1", "q2", "q3", "q4"])

    def assign(batch: pa.Table) -> pa.Table:
        b = np.searchsorted(bounds, batch["l_extendedprice"].to_numpy(), side="left")
        return pa.table({"bin": pa.array(labels[b], pa.string())})

    return _group_fold(_read_blocked(sf_dir, "lineitem", ["l_extendedprice"]),
                       ["bin"], {"n": (None, "count_all")}, assign)


BIN_QUARTILE_SQL = """
WITH b AS (
  SELECT quantile_disc(l_extendedprice, 0.25) AS p25,
         quantile_disc(l_extendedprice, 0.50) AS p50,
         quantile_disc(l_extendedprice, 0.75) AS p75
  FROM lineitem)
SELECT CASE WHEN l_extendedprice <= p25 THEN 'q1'
            WHEN l_extendedprice <= p50 THEN 'q2'
            WHEN l_extendedprice <= p75 THEN 'q3'
            ELSE 'q4' END AS bin,
       COUNT(*) AS n
FROM lineitem, b GROUP BY 1
"""


def upsert_orders_scd(sf_dir: str):
    """MERGE INTO / SCD-1 upsert: apply a change-set to a base table with
    last-write-wins-by-key, then summarize the merged state. Base and delta
    are derived deterministically from orders (base: keys not divisible by
    10; delta: keys divisible by 3, price bumped) so the op is self-
    contained and oracle-exact.

    Ray shape: ONE scan emits both sides tagged with a priority column
    (base + delta per block), ``_key_shuffle`` on the key (never one Ray
    group per key), and each bucket resolves winners with one vectorized
    sort + drop_duplicates — at most one survivor row per key leaves the
    bucket, already pre-aggregated per status (a NULL status included)."""
    cols = ["o_orderkey", "o_orderstatus", "o_totalprice"]

    def tag_side(t: pa.Table, bump: float, pri: int) -> pa.Table:
        return pa.table({
            "key": t["o_orderkey"], "status": t["o_orderstatus"],
            "price": pc.add(t["o_totalprice"], pa.scalar(bump)),
            "pri": pa.array(np.full(len(t), pri, np.int8)),
        })

    def tag_both(batch: pa.Table) -> pa.Table:
        # base and delta derive from the SAME scan: one read + one tagged
        # block per input block instead of two full reads unioned (the
        # union doubled the sort exchange's block count for no information)
        k = batch["o_orderkey"].to_numpy()
        return pa.concat_tables([
            tag_side(batch.filter(pa.array(k % 10 != 0)), 0.0, 0),
            tag_side(batch.filter(pa.array(k % 3 == 0)), 1.0, 1),
        ])

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["key", "pri"], kind="mergesort"
                           ).drop_duplicates("key", keep="last")
        return d.groupby("status", sort=False, dropna=False).agg(
            n=("key", "size"), sum_price=("price", "sum")).reset_index()

    part = _key_shuffle(_read_blocked(sf_dir, "orders", cols), ["key"],
                        resolve, tag_both).to_pandas()
    out = part.groupby("status", as_index=False, dropna=False).agg(
        n=("n", "sum"), sum_price=("sum_price", "sum"))
    out = out.rename(columns={"status": "o_orderstatus"})
    out["n"] = out.n.astype(np.int64)
    out["sum_price"] = _round(out.sum_price, 2)
    return _pa_from_pandas(out, preserve_index=False)


UPSERT_SQL = """
WITH base AS (
  SELECT o_orderkey, o_orderstatus, o_totalprice, 0 AS pri
  FROM orders WHERE o_orderkey % 10 <> 0),
delta AS (
  SELECT o_orderkey, o_orderstatus, o_totalprice + 1 AS o_totalprice, 1 AS pri
  FROM orders WHERE o_orderkey % 3 = 0),
merged AS (
  SELECT * FROM (SELECT * FROM base UNION ALL SELECT * FROM delta)
  QUALIFY ROW_NUMBER() OVER (PARTITION BY o_orderkey ORDER BY pri DESC) = 1)
SELECT o_orderstatus, COUNT(*) AS n,
  FLOOR(SUM(o_totalprice) * 100 + 0.5) / 100 AS sum_price
FROM merged GROUP BY o_orderstatus
"""


# ---------------------------------------------------------------------------
# Multi-table join pipeline (TPC-H Q3 shape): dimension filter broadcast,
# fact-fact key-shuffle join, grouped aggregate, global top-k
# ---------------------------------------------------------------------------


def q3_shipping_priority(sf_dir: str, k: int = 10,
                         segment: str = "BUILDING",
                         cutoff: str = "1998-01-01"):
    """customer ⋈ orders ⋈ lineitem with filters on all three tables, revenue
    per order, global top-k — the classic 3-table analytical join.

    Ray shape: (1) the filtered customer keys (smallest side after its
    selective filter) are collected as ONE sorted int64 array and broadcast
    via ``ray.put`` — a searchsorted probe inside the orders scan replaces a
    full shuffle join (at 10^9+ customers this side would instead reuse the
    key-shuffle join below). (2) orders and lineitem never meet in a Ray
    ``join`` operator: both are filtered + projected at the read, lineitem is
    pre-aggregated to (orderkey, revenue-partial) per block, and ONE
    ``_key_shuffle`` on the orderkey co-locates each order with all its
    lineitem partials. (3) each bucket emits only its local top-k, so the
    driver merges n_buckets × k rows."""
    import ray

    cut = np.datetime64(cutoff, "us")

    cust = _read_blocked(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def ckeys(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["c_mktsegment"], pa.scalar(segment)))
        return t.select(["c_custkey"])

    blocks = [b["c_custkey"].to_numpy() for b in
              cust.map_batches(ckeys, batch_format="pyarrow",
                               zero_copy_batch=True
                               ).iter_batches(batch_format="pyarrow")]
    ck = np.sort(np.concatenate(blocks)) if blocks else np.empty(0, np.int64)
    ck_ref = {"ref": ray.put(ck)}

    orders = _read_blocked(sf_dir, "orders",
                           ["o_orderkey", "o_custkey", "o_orderdate",
                            "o_orderpriority"])

    def otag(batch: pa.Table) -> pa.Table:
        keys = ray.get(ck_ref["ref"])
        od = batch["o_orderdate"].to_numpy().astype("datetime64[us]")
        keep = od < cut
        ckey = batch["o_custkey"].to_numpy()
        if keys.size:
            pos = np.searchsorted(keys, ckey)
            keep &= (pos < keys.size) & (keys[np.minimum(pos, keys.size - 1)]
                                         == ckey)
        else:
            keep[:] = False
        t = batch.filter(pa.array(keep))
        ok = t["o_orderkey"].to_numpy()
        dates = pc.strftime(t["o_orderdate"], format="%Y-%m-%d")
        return pa.table({
            "key": pa.array(ok.astype(np.int64)),
            "rev": pa.array(np.zeros(ok.size, np.float64)),
            "o_orderdate": dates,
            "o_orderpriority": t["o_orderpriority"],
            "side": pa.array(np.ones(ok.size, np.int8)),
        })

    li = _read_blocked(sf_dir, "lineitem",
                       ["l_orderkey", "l_shipdate", "l_extendedprice",
                        "l_discount"])

    def ltag(batch: pa.Table) -> pa.Table:
        sd = batch["l_shipdate"].to_numpy().astype("datetime64[us]")
        t = batch.filter(pa.array(sd > cut))
        keys = t["l_orderkey"].to_numpy()
        r = t["l_extendedprice"].to_numpy() * (1.0 - t["l_discount"].to_numpy())
        uk, inv = np.unique(keys, return_inverse=True)
        partial = np.bincount(inv, weights=r, minlength=uk.size)
        return pa.table({
            "key": pa.array(uk.astype(np.int64)),
            "rev": pa.array(partial),
            "o_orderdate": pa.array([""] * uk.size, pa.string()),
            "o_orderpriority": pa.array([""] * uk.size, pa.string()),
            "side": pa.array(np.zeros(uk.size, np.int8)),
        })

    def bucket_join(df: pd.DataFrame) -> pd.DataFrame:
        ords = df[df.side == 1]
        rev = df[df.side == 0].groupby("key", sort=False).rev.sum()
        m = ords.drop(columns=["rev", "side"]).merge(
            rev.rename("revenue"), left_on="key", right_index=True)
        m["revenue"] = _round(m.revenue, 2)
        m = m.sort_values(["revenue", "key"], ascending=[False, True],
                          kind="mergesort").head(k)
        return m.rename(columns={"key": "l_orderkey"})

    part = _key_shuffle([orders, li], ["key"], bucket_join,
                        [otag, ltag]).to_pandas()
    out = part.sort_values(["revenue", "l_orderkey"],
                           ascending=[False, True], kind="mergesort").head(k)
    return _pa_from_pandas(
        out[["l_orderkey", "revenue", "o_orderdate", "o_orderpriority"]],
        preserve_index=False)


Q3_SQL = """
SELECT l_orderkey,
  FLOOR(SUM(l_extendedprice*(1-l_discount))*100+0.5)/100 AS revenue,
  strftime(o_orderdate, '%Y-%m-%d') AS o_orderdate,
  o_orderpriority
FROM customer
JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = 'BUILDING'
  AND o_orderdate < TIMESTAMP '1998-01-01'
  AND l_shipdate > TIMESTAMP '1998-01-01'
GROUP BY l_orderkey, o_orderdate, o_orderpriority
ORDER BY revenue DESC, l_orderkey
LIMIT 10
"""


# ---------------------------------------------------------------------------
# Grouped mode / argmax-count (low-cardinality categorical summary)
# ---------------------------------------------------------------------------


def mode_priority_by_status(sf_dir: str):
    """Most frequent o_orderpriority per o_orderstatus (ties → lexicographic
    smallest): one (status, priority) fold, then an argmax per status on
    the driver. The contract holds at scale because the fold is bounded by
    the CATEGORY cross product, not the row count."""
    tot = _group_fold(
        _read_blocked(sf_dir, "orders", ["o_orderstatus", "o_orderpriority"]),
        ["o_orderstatus", "o_orderpriority"], {"n": (None, "count_all")})
    # the oracle's ORDER BY COUNT(*) DESC, o_orderpriority (NULLs last)
    tot = tot.sort_by([("n", "descending"), ("o_orderpriority", "ascending")])
    first = np.unique(_codes(tot["o_orderstatus"])[0], return_index=True)[1]
    return pa.table({"o_orderstatus": tot["o_orderstatus"].take(first),
                     "mode_priority": tot["o_orderpriority"].take(first),
                     "n": tot["n"].take(first)})


MODE_SQL = """
SELECT o_orderstatus, o_orderpriority AS mode_priority, n FROM (
  SELECT o_orderstatus, o_orderpriority, COUNT(*) AS n,
         ROW_NUMBER() OVER (PARTITION BY o_orderstatus
                            ORDER BY COUNT(*) DESC, o_orderpriority) AS rn
  FROM orders GROUP BY o_orderstatus, o_orderpriority)
WHERE rn = 1
"""


# ---------------------------------------------------------------------------
# Bloom-filter screened semi-join (screen-then-exact, SURVEY §2.5) — the
# broadcast-side compression for semi-joins whose key set outgrows ray.put
# ---------------------------------------------------------------------------


def bloom_semijoin_lineitem(sf_dir: str, priority: str = "1-URGENT"):
    """Revenue by returnflag for lineitems of urgent orders, as a Bloom-
    screened semi-join: (1) the filtered order keys build a Bloom filter via
    per-block PARTIAL BITSETS OR-merged on the driver (~m/8 bytes per block,
    never the keys themselves), (2) the ~1.2-bytes/key filter is broadcast
    and probed vectorized inside the lineitem scan — survivors are
    pre-aggregated per (orderkey, flag) per block, (3) false positives are
    removed by an EXACT ``_key_shuffle`` semi-join of the survivors against
    the key set, (4) a tiny final groupby sums per flag (a NULL flag too).
    At 10^9 build keys the exact set is GBs but the filter is ~1 GB→MBs
    tunable via fpp; the screen's job is shrinking the shuffle input to
    (2)'s survivors."""
    import ray

    from ..functions.bloom import BloomFilter

    _LN2SQ = float(np.log(2.0)) ** 2

    orders = _read_blocked(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])

    def keys_only(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["o_orderpriority"],
                                  pa.scalar(priority)))
        return t.select(["o_orderkey"])

    keys_ds = orders.map_batches(keys_only, batch_format="pyarrow",
                                 zero_copy_batch=True).materialize()
    n_keys = max(1, keys_ds.count())
    fpp = 0.01
    m_bits = int(-n_keys * np.log(fpp) / _LN2SQ) + 1
    k_hashes = max(1, int(round(m_bits / n_keys * np.log(2.0))))

    def block_bits(batch: pa.Table) -> pa.Table:
        bf = BloomFilter(m_bits, k_hashes)
        bf.add(batch["o_orderkey"].to_numpy())
        return pa.table({"bits": pa.array([bf.bits], pa.list_(pa.uint64()))})

    bf = BloomFilter(m_bits, k_hashes)
    for b in keys_ds.map_batches(block_bits, batch_format="pyarrow",
                                 zero_copy_batch=True
                                 ).iter_batches(batch_format="pyarrow"):
        for row in b["bits"]:
            bf.bits |= np.asarray(row.as_py(), dtype=np.uint64)
    bf_ref = {"ref": ray.put(bf)}

    def probe(batch: pa.Table) -> pa.Table:
        filt: BloomFilter = ray.get(bf_ref["ref"])
        keys = batch["l_orderkey"].to_numpy()
        hit = filt.contains(keys)
        t = batch.filter(pa.array(hit))
        keys = t["l_orderkey"].to_numpy()
        rev = t["l_extendedprice"].to_numpy() * (1.0 - t["l_discount"].to_numpy())
        df = pd.DataFrame({"key": keys, "flag": t["l_returnflag"].to_pandas(),
                           "rev": rev})
        g = df.groupby(["key", "flag"], sort=False, dropna=False).agg(
            rev=("rev", "sum"), n=("rev", "size")).reset_index()
        g["side"] = np.int8(0)
        return _pa_from_pandas(g, preserve_index=False)

    def tag_keys(batch: pa.Table) -> pa.Table:
        kk = batch["o_orderkey"].to_numpy()
        return pa.table({
            "key": pa.array(kk.astype(np.int64)),
            "flag": pa.array([""] * kk.size, pa.string()),
            "rev": pa.array(np.zeros(kk.size, np.float64)),
            "n": pa.array(np.zeros(kk.size, np.int64)),
            "side": pa.array(np.ones(kk.size, np.int8)),
        })

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        real = df[df.side == 1].key.unique()
        s = df[df.side == 0]
        s = s[np.isin(s.key.to_numpy(), real)]
        return s.groupby("flag", sort=False, dropna=False).agg(
            revenue=("rev", "sum"), n_items=("n", "sum")).reset_index()

    li = _read_blocked(sf_dir, "lineitem", ["l_orderkey", "l_returnflag",
                                            "l_extendedprice", "l_discount"])
    part = _key_shuffle([li, keys_ds], ["key"], verify,
                        [probe, tag_keys]).to_pandas()
    out = part.groupby("flag", as_index=False, dropna=False).agg(
        revenue=("revenue", "sum"), n_items=("n_items", "sum"))
    out = out.rename(columns={"flag": "l_returnflag"})
    out["revenue"] = _round(out.revenue, 2)
    out["n_items"] = out.n_items.astype(np.int64)
    return _pa_from_pandas(out, preserve_index=False)


BLOOM_SEMIJOIN_SQL = """
SELECT l_returnflag,
  FLOOR(SUM(l_extendedprice*(1-l_discount))*100+0.5)/100 AS revenue,
  COUNT(*) AS n_items
FROM lineitem
WHERE l_orderkey IN (SELECT o_orderkey FROM orders
                     WHERE o_orderpriority = '1-URGENT')
GROUP BY l_returnflag
"""


# ---------------------------------------------------------------------------
# Ordered collect per key (STRING_AGG ... ORDER BY): event-path assembly
# ---------------------------------------------------------------------------


def event_path_per_user(sf_dir: str):
    """Per-user ordered event-type path (the thread/conversation-assembly
    shape an LLM data pipeline uses to stitch per-key records into one
    training document): ``_key_shuffle`` on user_id — never one Ray group
    per user — and each bucket does ONE (user, ts, event_id) mergesort, then
    a per-user join of the already-ordered slices. As SQL's ``STRING_AGG``,
    the join skips NULL types, and a user with only NULL types gets a NULL
    path."""
    ds = _read_blocked(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])

    def paths(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        n = d.groupby("user_id", sort=False).size().astype(np.int64)
        path = d[d.event_type.notna()].groupby(
            "user_id", sort=False).event_type.agg(">".join).reindex(n.index)
        return pd.DataFrame({"path": path.where(path.notna(), None),
                             "n_events": n}).reset_index()

    return _key_shuffle(ds, ["user_id"], paths)


EVENT_PATH_SQL = """
SELECT user_id, STRING_AGG(event_type, '>' ORDER BY ts, event_id) AS path,
       COUNT(*) AS n_events
FROM events GROUP BY user_id
"""


# ---------------------------------------------------------------------------
# Regex redaction (PII-scrub shape): masked projection + per-row match count
# ---------------------------------------------------------------------------


def redact_numbers_events(sf_dir: str):
    """Mask every digit run in the props payload ('#') and count the masked
    runs — the PII-scrub operator shape (emails/phones/ids at a real corpus;
    the pattern here is RE2/Python-re agreeing `[0-9]+`). Pure stateless
    map_batches over two pruned columns; vectorized pandas str kernels."""
    ds = _read_blocked(sf_dir, "events", ["event_id", "props"])

    def redact(batch: pa.Table) -> pa.Table:
        s = batch["props"].to_pandas()
        return pa.table({
            "event_id": batch["event_id"],
            "props_redacted": pa.array(
                s.str.replace(r"[0-9]+", "#", regex=True), pa.string()),
            "n_masked": pa.array(
                s.str.count(r"[0-9]+").astype(np.int64)),
        })

    return ds.map_batches(redact, batch_format="pyarrow", zero_copy_batch=True)


REDACT_SQL = """
SELECT event_id, REGEXP_REPLACE(props, '[0-9]+', '#', 'g') AS props_redacted,
       LEN(REGEXP_EXTRACT_ALL(props, '[0-9]+'))::BIGINT AS n_masked
FROM events
"""


# ---------------------------------------------------------------------------
# Pareto skyline (dominance frontier) — engine-new; SURVEY.md §2.6.
# ---------------------------------------------------------------------------


def _skyline_mask(prices: np.ndarray, dates: np.ndarray) -> np.ndarray:
    """Boolean mask of rows on the (maximize price, minimize date) frontier.

    A row is dominated iff another row has price >= AND date <= with one
    strict. One lexsort (price desc, date asc) + prefix mins — O(n log n),
    no pairwise comparisons. Equal (price, date) duplicates all survive
    (no strict inequality), matching the SQL NOT EXISTS semantics.
    """
    n = len(prices)
    if n == 0:
        return np.zeros(0, bool)
    order = np.lexsort((dates, -prices))
    p, d = prices[order], dates[order]
    new_grp = np.empty(n, bool)
    new_grp[0] = True
    new_grp[1:] = p[1:] != p[:-1]
    grp_start = np.maximum.accumulate(np.where(new_grp, np.arange(n), 0))
    cm = np.minimum.accumulate(d)
    prev_min = np.where(grp_start > 0, cm[np.maximum(grp_start - 1, 0)],
                        np.iinfo(np.int64).max)
    keep = (prev_min > d) & (d == d[grp_start])  # date asc within group
    mask = np.zeros(n, bool)
    mask[order] = keep
    return mask


def skyline_orders(sf_dir: str):
    """2-D Pareto skyline of orders (maximize o_totalprice, minimize
    o_orderdate): per-block local skyline inside map_batches (the skyline of
    a union is a subset of the union of local skylines), then one final
    exact pass over the tiny survivor set. Only frontier candidates ever
    shuffle — for independent dimensions the local skyline is O(log n) rows
    per block, so the final pass input is ~blocks x log(block_rows) rows
    regardless of table size."""
    ds = _read_blocked(sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderdate"])

    def local(batch: pa.Table) -> pa.Table:
        prices = batch["o_totalprice"].to_numpy()
        dates = batch["o_orderdate"].cast(pa.int64()).to_numpy()
        return batch.filter(pa.array(_skyline_mask(prices, dates)))

    def final(batch: pa.Table) -> pa.Table:
        return local(batch)

    return ds.map_batches(local, batch_format="pyarrow", zero_copy_batch=True
                          ).repartition(1).map_batches(
        final, batch_format="pyarrow")


SKYLINE_SQL = """
WITH s AS (
  SELECT o_orderkey, o_totalprice, o_orderdate,
    MIN(o_orderdate) OVER (ORDER BY o_totalprice DESC
      RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW EXCLUDE GROUP) AS m_gt,
    MIN(o_orderdate) OVER (PARTITION BY o_totalprice) AS m_eq
  FROM orders)
SELECT o_orderkey, o_totalprice, o_orderdate FROM s
WHERE (m_gt IS NULL OR m_gt > o_orderdate) AND o_orderdate = m_eq
"""


# ---------------------------------------------------------------------------
# NTILE via distributed ordered rank — the two-level prefix-sum pattern
# (same scan shape as pack_sequences_documents) on a range-bucketed sort key.
# ---------------------------------------------------------------------------


def _ranked_orders(sf_dir: str, make_cols):
    """Shared distributed-rank machinery: global 0-based row number i and
    per-priority total n for ORDER BY (o_totalprice, o_orderkey) PARTITION BY
    o_orderpriority, without a global sort. Rows are range-bucketed on the
    ORDER BY prefix (order-preserving between buckets), per-(priority,
    bucket) counts fold on the driver and are exclusive-prefix-summed there
    (one tiny row per cell), and each ``_key_shuffle`` call numbers its
    cells' rows with one vectorized sort. A NULL priority is a partition of
    its own. ``make_cols(i, n)`` maps (row numbers, per-row totals) to the
    output column dict; backs NTILE / PERCENT_RANK / CUME_DIST."""
    import ray

    ds = _read_blocked(sf_dir, "orders",
               ["o_orderkey", "o_orderpriority", "o_totalprice"])
    # one combined fold, not two full-table scans
    agg = _group_fold(ds, [], {"lo": ("o_totalprice", "min"),
                               "hi": ("o_totalprice", "max")})
    lo, hi = (agg[c][0].as_py() or 0.0 for c in ("lo", "hi"))  # NULL: no rows
    n_ranges = _salt_buckets(_num_rows(sf_dir, "orders"))
    scale = n_ranges / max(hi - lo, 1e-9)
    cell = ["o_orderpriority", "rng"]

    def tag(batch: pa.Table) -> pa.Table:
        p = batch["o_totalprice"].to_numpy()
        rng = np.clip((p - lo) * scale, 0, n_ranges - 1).astype(np.int64)
        return batch.append_column("rng", pa.array(rng))

    counts = _group_fold(ds, cell, {"n": (None, "count_all")}, tag).to_pandas(
        ).sort_values(cell, kind="mergesort")
    g = counts.groupby("o_orderpriority", dropna=False, sort=False).n
    counts["base"] = g.cumsum() - counts.n
    counts["total"] = g.transform("sum")
    shared = ray.put(counts[[*cell, "base", "total"]])

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([*cell, "o_totalprice", "o_orderkey"],
                            kind="mergesort")
        at = df.groupby(cell, dropna=False, sort=False).cumcount().to_numpy()
        # a left merge keeps the left order; NULL keys match NULL keys
        m = df[cell].merge(ray.get(shared), how="left", on=cell)
        return pd.DataFrame({"o_orderkey": df.o_orderkey.to_numpy(),
                             "o_orderpriority": df.o_orderpriority.to_numpy(),
                             **make_cols(m.base.to_numpy() + at,
                                         m.total.to_numpy())})

    return _key_shuffle(ds, cell, assign, tag)


def ntile_orders(sf_dir: str, tiles: int = 4):
    """NTILE(4) OVER (PARTITION BY o_orderpriority ORDER BY o_totalprice,
    o_orderkey) via the distributed rank scan; NTILE's uneven-tile rule
    (first n%k tiles get one extra row) is applied from the per-priority
    totals."""

    def cols(i: np.ndarray, n: np.ndarray) -> dict:
        q, r = np.divmod(n, tiles)
        big = r * (q + 1)
        tile = np.where(i < big, i // np.maximum(q + 1, 1) + 1,
                        r + (i - big) // np.maximum(q, 1) + 1)
        return {"tile": tile.astype(np.int64)}

    return _ranked_orders(sf_dir, cols)


def percent_rank_orders(sf_dir: str):
    """PERCENT_RANK and CUME_DIST over the same partitioned order — the
    rank-to-quantile projections ((rank-1)/(n-1) and rownum/n). The ORDER BY
    key is unique (o_orderkey tie-break), so RANK == ROW_NUMBER and both
    divisions are single exactly-rounded IEEE ops, hash-identical to the
    oracle."""

    def cols(i: np.ndarray, n: np.ndarray) -> dict:
        pr = np.where(n > 1, i / np.maximum(n - 1, 1), 0.0)
        return {"pct_rank": pr, "cume_dist": (i + 1) / n}

    return _ranked_orders(sf_dir, cols)


PERCENT_RANK_SQL = """
SELECT o_orderkey, o_orderpriority,
       PERCENT_RANK() OVER w AS pct_rank,
       CUME_DIST() OVER w AS cume_dist
FROM orders
WINDOW w AS (PARTITION BY o_orderpriority ORDER BY o_totalprice, o_orderkey)
"""


NTILE_SQL = """
SELECT o_orderkey, o_orderpriority,
       NTILE(4) OVER (PARTITION BY o_orderpriority
                      ORDER BY o_totalprice, o_orderkey)::BIGINT AS tile
FROM orders
"""


# ---------------------------------------------------------------------------
# Table content fingerprint (anti-entropy checksum) — engine-new. The
# validation-engine use case: compare two replicas / a table before and
# after a migration without moving rows (order-independent SUM + XOR of a
# deterministic per-row hash; one tiny partial per block).
# ---------------------------------------------------------------------------


def checksum_orders(sf_dir: str):
    """Per-status order-independent content checksum of orders: each row
    hashes (orderkey, custkey, cents(totalprice), epoch_us(orderdate)) into
    a 32-bit lane with exact integer ops shared by the SQL oracle, then SUM
    and BIT_XOR fold per o_orderstatus. BIT_XOR folds as 32 per-bit counts
    (bit i of the xor is the parity of its count), so the whole checksum
    is one fold; bit-identical across engines and row orders."""
    M = np.int64(4294967296)
    bits = [f"b{i}" for i in range(32)]

    def lanes(batch: pa.Table) -> pa.Table:
        k = batch["o_orderkey"].to_numpy().astype(np.int64)
        c = batch["o_custkey"].to_numpy().astype(np.int64)
        cents = np.floor(batch["o_totalprice"].to_numpy() * 100 + 0.5
                         ).astype(np.int64)
        ep = batch["o_orderdate"].cast(pa.int64()).to_numpy() % M
        # pre-reduce mod 2^31 before the Knuth multiply: max product
        # (2^31-1)*3266489917 < 2^63, so the int64 math never wraps and
        # the DuckDB oracle (which raises on BIGINT overflow) agrees at
        # any key magnitude
        R = np.int64(2147483648)
        h = (((k % R) * 2654435761) % M) ^ (((c % R) * 2246822519) % M) \
            ^ (((cents % R) * 3266489917) % M) ^ ep
        return pa.table({"o_orderstatus": batch["o_orderstatus"], "h": h,
                         **{b: (h >> i) & 1 for i, b in enumerate(bits)}})

    out = _group_fold(_read_blocked(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice",
                           "o_orderdate", "o_orderstatus"]),
        ["o_orderstatus"], {"n_rows": (None, "count_all"), "sum_hash": ("h", "sum"),
                            **{b: (b, "sum") for b in bits}}, lanes)
    xor = sum((out[b].to_numpy() & 1) << i for i, b in enumerate(bits))
    return pa.table({"o_orderstatus": out["o_orderstatus"],
                     "n_rows": out["n_rows"], "sum_hash": out["sum_hash"],
                     "xor_hash": pa.array(xor, pa.int64())})


CHECKSUM_SQL = """
WITH h AS (
  SELECT o_orderstatus,
    xor(xor(xor(((o_orderkey % 2147483648) * 2654435761) % 4294967296,
                ((o_custkey % 2147483648) * 2246822519) % 4294967296),
            ((CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) % 2147483648)
             * 3266489917) % 4294967296),
        epoch_us(o_orderdate) % 4294967296) AS rh
  FROM orders)
SELECT o_orderstatus, COUNT(*)::BIGINT AS n_rows,
       SUM(rh)::BIGINT AS sum_hash, BIT_XOR(rh)::BIGINT AS xor_hash
FROM h GROUP BY o_orderstatus
"""


# ---------------------------------------------------------------------------
# Deterministic weighted (priority) sample — Duffield/Lund/Thorup priority
# sampling with a hash-derived uniform, so the Ray and SQL sides pick the
# identical k rows (only exactly-rounded IEEE ops: one divide per row).
# ---------------------------------------------------------------------------


def weighted_sample_orders(sf_dir: str, k: int = 100):
    """Weight-proportional k-row sample of orders (weight = o_totalprice):
    priority = u / w with u = hash(o_orderkey) in (0,1]; the k smallest
    priorities win. Per-block bottom-k partials (argpartition) -> one tiny
    final bottom-k — the exact top-k exchange shape, ~k x n_blocks rows
    moved total."""
    ds = _read_blocked(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    M = np.int64(4294967296)

    def bottomk(batch: pa.Table) -> pa.Table:
        keys = batch["o_orderkey"].to_numpy().astype(np.int64)
        w = batch["o_totalprice"].to_numpy()
        # mod-2^31 pre-reduction keeps the multiply int64-safe (see
        # checksum_orders); identical expression in the SQL oracle
        u = ((((keys % 2147483648) * 2654435761) % M) + 1
             ).astype(np.float64) / 4294967296.0
        pri = u / w
        if len(pri) > k:
            idx = np.argpartition(pri, k)[:k]
        else:
            idx = np.arange(len(pri))
        return pa.table({"o_orderkey": pa.array(keys[idx]),
                         "o_totalprice": pa.array(w[idx]),
                         "priority": pa.array(pri[idx])})

    def final(batch: pa.Table) -> pa.Table:
        pri = batch["priority"].to_numpy()
        idx = np.argpartition(pri, k)[:k] if len(pri) > k else np.arange(len(pri))
        return batch.take(pa.array(np.sort(idx)))

    return ds.map_batches(bottomk, batch_format="pyarrow",
                          zero_copy_batch=True).repartition(1).map_batches(
        final, batch_format="pyarrow")


WEIGHTED_SAMPLE_SQL = """
SELECT o_orderkey, o_totalprice,
       ((((o_orderkey % 2147483648) * 2654435761) % 4294967296) + 1)
         / 4294967296.0 / o_totalprice AS priority
FROM orders
ORDER BY priority LIMIT 100
"""


# ---------------------------------------------------------------------------
# Blocked fuzzy self-join (edit-distance near-dup) — engine-new; the
# record-linkage operator shape (block -> pair -> verify).
# ---------------------------------------------------------------------------


LEN_BAND_W = 8  # length-band width; must exceed max_dist (see proof below)


def _len_band_explode(batch: pa.Table, max_dist: int, w: int) -> pa.Table:
    """Composite-blocking explode for the Levenshtein family: each part row
    lands NATIVE in block ``(p_brand, len // w)`` and, when its length sits
    within ``max_dist`` of the band's lower boundary (``len mod w <
    max_dist``), ALSO as a BORROWED copy in the band below. Exactness for
    ``w > max_dist``: a pair with |len diff| <= max_dist either shares a
    band (found native×native, exactly once) or spans adjacent bands — then
    the upper row's ``len mod w`` is < max_dist, so its borrowed copy meets
    the lower row natively (exactly once; borrowed×borrowed pairs are
    skipped because both appear native one band up). Bands further apart
    can't pair (|diff| <= max_dist < w). Row inflation is bounded by
    ``max_dist / w`` (25% at the defaults).

    The block key is an int64 ``hash(brand) ⊕ band`` (cheaper through the
    sort-shuffle than a composite string); a hash COLLISION merely merges
    two blocks — the pair kernel re-checks brand equality, so exactness
    never rests on hash uniqueness."""
    from ..functions.hashing import hash64

    names = batch["p_name"].to_numpy(zero_copy_only=False)
    lens = np.fromiter((len(s) for s in names), np.int64, len(names))
    band = lens // w
    bh = (hash64(batch["p_brand"].to_numpy(zero_copy_only=False))
          % np.uint64(1 << 32)).astype(np.int64)
    bm = (lens % w < max_dist) & (band > 0)
    idx = np.flatnonzero(bm)

    def emit(sel, bands, native):
        t = batch.take(pa.array(sel)) if sel is not None else batch
        return t.append_column("_len", pa.array(lens[sel] if sel is not None
                                                else lens)) \
                .append_column("_native",
                               pa.array(np.full(t.num_rows, native))) \
                .append_column("blk", pa.array(
                    (bh[sel] if sel is not None else bh) * 256 + bands))

    native = emit(None, band, True)
    if idx.size == 0:
        return native
    borrowed = emit(idx, band[idx] - 1, False)
    return pa.concat_tables([native, borrowed])


def fuzzy_match_parts(sf_dir: str, max_dist: int = 2):
    """Same-brand part-name pairs within Levenshtein distance 2: one
    ``_key_shuffle`` on the COMPOSITE blocking key (p_brand, length band —
    see ``_len_band_explode`` for the exactness argument), all-pairs-within-
    block candidate generation pre-filtered by |len diff| <= max_dist, then
    the vectorized shared-shape DP kernel (functions/editdist.py) verifies
    every candidate in a handful of numpy passes. The secondary length-band
    key bounds the quadratic term by the per-(brand, band) count instead of
    the full brand group — a synthetically hot brand splits across its
    length distribution (property-pinned in tests) — at the cost of a
    bounded 25% row inflation from the cross-band boundary copies."""
    from ..functions.editdist import levenshtein_pairs

    # COMPUTE-bound group kernel (quadratic DP per block): the shared
    # CPU-floored read (see _read_cpu_blocked for the measurement)
    ds = _read_cpu_blocked(sf_dir, "part", ["p_partkey", "p_name", "p_brand"])
    w = max(LEN_BAND_W, max_dist + 1)

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("blk", kind="stable")
        keys = df.p_partkey.to_numpy()
        names = df.p_name.to_numpy()
        brands = df.p_brand.to_numpy()
        lens = df._len.to_numpy()
        nat = df._native.to_numpy()
        i, j = run_pairs(df.blk.to_numpy())
        # borrowed×borrowed pairs replay one band up — natives only there;
        # brand equality re-checked so a blk-hash collision stays harmless
        keep = ((np.abs(lens[i] - lens[j]) <= max_dist) & (nat[i] | nat[j])
                & (brands[i] == brands[j]))
        i, j = i[keep], j[keep]
        # contract: key_a < key_b
        swap = keys[i] > keys[j]
        i, j = np.where(swap, j, i), np.where(swap, i, j)
        d = levenshtein_pairs(names[i], names[j], max_dist=max_dist)
        hit = d <= max_dist
        return pd.DataFrame({
            "key_a": keys[i][hit].astype(np.int64),
            "key_b": keys[j][hit].astype(np.int64),
            "name_a": names[i][hit],
            "name_b": names[j][hit],
            "dist": d[hit],
        })

    return _key_shuffle(ds, ["blk"], bucket_pairs,
                        lambda b: _len_band_explode(b, max_dist, w))


FUZZY_SQL = """
SELECT a.p_partkey AS key_a, b.p_partkey AS key_b,
       a.p_name AS name_a, b.p_name AS name_b,
       levenshtein(a.p_name, b.p_name)::BIGINT AS dist
FROM part a JOIN part b
  ON a.p_brand = b.p_brand AND a.p_partkey < b.p_partkey
 AND abs(length(a.p_name) - length(b.p_name)) <= 2
WHERE levenshtein(a.p_name, b.p_name) <= 2
"""


def _head_key(t: pa.Table, keys: list[str]) -> tuple | None:
    """A sorted range partition's first sort key: its identity in a carry."""
    return tuple(t[k][0].as_py() for k in keys) if t.num_rows else None


def _partition_heads(ranges, keys: list[str], summarize) -> dict:
    """``{head key: summarize(partition)}`` in key order over ``ranges``, a
    materialized ``sort(keys)``: the per-partition inputs an ordered scan
    folds into each partition's carry. Sorting on a near-unique key keeps
    every range partition non-empty."""
    import pickle

    def head(t: pa.Table) -> pa.Table:
        return pa.table({"h": pa.array(
            [pickle.dumps((_head_key(t, keys), summarize(t)))] if t.num_rows
            else [], pa.binary())})

    rows = [pickle.loads(b) for batch in ranges.map_batches(
                head, batch_format="pyarrow").iter_batches(
                batch_format="pyarrow", batch_size=None)
            if batch.num_columns for b in batch["h"].to_pylist()]
    return dict(sorted(rows, key=lambda r: r[0]))


def _typed_empty(sf_dir: str, tables: list[str], schema: pa.Schema):
    """``schema``'s empty table when any of ``tables`` has no rows (parquet
    metadata, no data read), else None. A query that sorts before its fold
    needs it for SQL's typed empty GROUP BY: Ray's sort hands an empty
    range a schema-less block, so nothing typed reaches the fold."""
    if any(_num_rows(sf_dir, t) == 0 for t in tables):
        return schema.empty_table()
    return None


# ---------------------------------------------------------------------------
# Validation-suite profile checks (SURVEY.md §2.7 family, engine-new):
# FK-cardinality profile, freshness lag, and time-coverage gap detection —
# the three table-health checks a production validation run adds on top of
# stats/drift/uniqueness.
# ---------------------------------------------------------------------------


def fk_cardinality_customers(sf_dir: str):
    """Distribution of orders-per-customer INCLUDING zero-order customers
    (the FK fan-out profile; a spike at 0 or a long tail flags ingest bugs).
    One sort on the customer key co-locates each customer row with its
    orders' per-block counts (a sort partition holds every row of its key
    range); each partition emits one n_orders row per customer, folded into
    the histogram. No driver-side key set, no broadcast of the big side."""
    empty = _typed_empty(sf_dir, ["customer"], pa.schema(
        [("n_orders", pa.int64()), ("n_customers", pa.int64())]))
    if empty is not None:
        return empty

    def cust_tag(batch: pa.Table) -> pa.Table:
        k = batch["c_custkey"].to_numpy().astype(np.int64)
        return pa.table({"k": k, "n": np.zeros(k.size, np.int64),
                         "is_cust": np.ones(k.size, np.int64)})

    def order_partial(batch: pa.Table) -> pa.Table:
        k, c = np.unique(batch["o_custkey"].to_numpy().astype(np.int64),
                         return_counts=True)
        return pa.table({"k": k, "n": c.astype(np.int64),
                         "is_cust": np.zeros(k.size, np.int64)})

    def per_customer(t: pa.Table) -> pa.Table:
        g = t.group_by(["k"]).aggregate([("n", "sum"), ("is_cust", "max")])
        # LEFT-join semantics: keys must be customers
        return pa.table({"n_orders": g["n_sum"].filter(
            pc.equal(g["is_cust_max"], 1))})

    both = _read_blocked(sf_dir, "customer", ["c_custkey"]).map_batches(
        cust_tag, batch_format="pyarrow", zero_copy_batch=True).union(
        _read_blocked(sf_dir, "orders", ["o_custkey"]).map_batches(
            order_partial, batch_format="pyarrow", zero_copy_batch=True))
    # sort on the near-unique key itself, not a salt bucket: Ray's sort
    # draws its range boundaries from samples, and with about as many
    # bucket ids as partitions two boundaries collide and the empty range
    # comes back as a schema-less block
    return _group_fold(both.sort("k"), ["n_orders"],
                       {"n_customers": (None, "count_all")}, per_customer)


FK_CARDINALITY_SQL = """
WITH n AS (
  SELECT c_custkey, count(o_orderkey) AS n_orders
  FROM customer LEFT JOIN orders ON o_custkey = c_custkey
  GROUP BY c_custkey)
SELECT n_orders, count(*)::BIGINT AS n_customers FROM n GROUP BY n_orders
"""


def freshness_events(sf_dir: str):
    """Per-source freshness check: event count, latest timestamp, and lag
    (µs) behind the globally freshest source — one event_type fold of
    (count, max ts); the global max is a driver-side max over the handful
    of type rows. The stalest source is the broken feed."""
    per_type = _group_fold(_read_blocked(sf_dir, "events", ["event_type", "ts"]),
                           ["event_type"], {"n": (None, "count_all"),
                                            "latest": ("ts", "max")})
    mx = per_type["latest"].cast(pa.int64()).to_numpy()
    return pa.table({"event_type": per_type["event_type"], "n": per_type["n"],
                     "latest": per_type["latest"],
                     "lag_us": pa.array(mx.max(initial=0) - mx, pa.int64())})


FRESHNESS_SQL = """
SELECT event_type, count(*)::BIGINT AS n, max(ts) AS latest,
       (epoch_us((SELECT max(ts) FROM events)) - epoch_us(max(ts)))::BIGINT
         AS lag_us
FROM events GROUP BY event_type
"""


def gap_hours_events(sf_dir: str):
    """Time-coverage completeness: per event_type, hours with zero events
    inside the type's own [min, max] span (ingest-gap detection). One
    (type, hour) fold — bounded by types x span-hours, independent of row
    count — whose finish counts distinct hours against the span width."""
    HOUR = np.int64(3_600_000_000)

    def hours(batch: pa.Table) -> pa.Table:
        return pa.table({"event_type": batch["event_type"],
                         "h": batch["ts"].cast(pa.int64()).to_numpy() // HOUR})

    cells = _group_fold(_read_blocked(sf_dir, "events", ["event_type", "ts"]),
                        ["event_type", "h"], {"n": (None, "count_all")}, hours)
    per_type = cells.group_by(["event_type"]).aggregate(
        [("h", "count"), ("h", "min"), ("h", "max")])
    n = per_type["h_count"].to_numpy()
    span = per_type["h_max"].to_numpy() - per_type["h_min"].to_numpy() + 1
    return pa.table({"event_type": per_type["event_type"],
                     "n_hours": pa.array(n, pa.int64()),
                     "n_gap_hours": pa.array(span - n, pa.int64())})


GAP_HOURS_SQL = """
SELECT event_type,
       count(DISTINCT date_trunc('hour', ts))::BIGINT AS n_hours,
       (datediff('hour', date_trunc('hour', min(ts)),
                 date_trunc('hour', max(ts))) + 1
        - count(DISTINCT date_trunc('hour', ts)))::BIGINT AS n_gap_hours
FROM events GROUP BY event_type
"""


# ---------------------------------------------------------------------------
# Snapshot diff (CDC shape) — the row-level complement of checksum_orders:
# once the anti-entropy checksum says two snapshots differ, this finds the
# rows. Snapshot B is derived deterministically from orders (hash-selected
# deletes, +1.00 price updates, negative-key inserts) so the Ray and SQL
# sides diff identical inputs.
# ---------------------------------------------------------------------------


def table_diff_orders(sf_dir: str):
    """FULL-OUTER-JOIN diff of two snapshots keyed on o_orderkey, emitting
    (key, change_type, price_a, price_b) for added / removed / changed rows
    only. One pass derives BOTH sides from each input block (no second
    read), then one ``_key_shuffle`` co-locates each key's two sides;
    per-bucket compare is a vectorized pandas merge. Unchanged rows never
    leave their bucket — output is proportional to the delta, not the
    table."""
    ds = _read_blocked(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    M = np.int64(4294967296)

    def both_sides(batch: pa.Table) -> pa.Table:
        k = batch["o_orderkey"].to_numpy().astype(np.int64)
        p = batch["o_totalprice"].to_numpy()
        h = ((k % 2147483648) * 2654435761) % M  # int64-safe pre-reduce
        # side A: the base snapshot, verbatim
        ka, pa_, sa = k, p, np.zeros(k.size, np.int64)
        # side B: deletes (h%37==0), +1.00 updates (h%41==0), inserts
        # (negative keys for h%43==0 rows)
        keep = h % 37 != 0
        kb = k[keep]
        pb = np.where(h[keep] % 41 == 0, p[keep] + 1.0, p[keep])
        ins = h % 43 == 0
        ki, pi = -k[ins], p[ins]
        return pa.table({
            "k": pa.array(np.concatenate([ka, kb, ki])),
            "price": pa.array(np.concatenate([pa_, pb, pi])),
            "side": pa.array(np.concatenate(
                [sa, np.ones(kb.size + ki.size, np.int64)])),
        })

    def diff(df: pd.DataFrame) -> pd.DataFrame:
        a = df[df.side == 0].set_index("k").price
        b = df[df.side == 1].set_index("k").price
        m = a.to_frame("price_a").join(b.to_frame("price_b"), how="outer")
        m = m[~(m.price_a == m.price_b)]  # NaN != NaN keeps added/removed
        ct = np.where(m.price_a.isna(), "added",
                      np.where(m.price_b.isna(), "removed", "changed"))
        return pd.DataFrame({"o_orderkey": m.index.to_numpy(np.int64),
                             "change_type": ct,
                             "price_a": m.price_a.to_numpy(),
                             "price_b": m.price_b.to_numpy()})

    return _key_shuffle(ds, ["k"], diff, both_sides)


TABLE_DIFF_SQL = """
WITH a AS (SELECT o_orderkey, o_totalprice FROM orders),
h AS (SELECT o_orderkey, o_totalprice,
             ((o_orderkey % 2147483648) * 2654435761) % 4294967296
               AS hh FROM orders),
b AS (
  SELECT o_orderkey,
         CASE WHEN hh % 41 = 0 THEN o_totalprice + 1.0
              ELSE o_totalprice END AS o_totalprice
  FROM h WHERE hh % 37 <> 0
  UNION ALL
  SELECT -o_orderkey, o_totalprice FROM h WHERE hh % 43 = 0),
j AS (
  SELECT COALESCE(a.o_orderkey, b.o_orderkey) AS o_orderkey,
         a.o_totalprice AS price_a, b.o_totalprice AS price_b
  FROM a FULL OUTER JOIN b ON a.o_orderkey = b.o_orderkey)
SELECT o_orderkey,
       CASE WHEN price_a IS NULL THEN 'added'
            WHEN price_b IS NULL THEN 'removed'
            ELSE 'changed' END AS change_type,
       price_a, price_b
FROM j WHERE price_a IS DISTINCT FROM price_b
"""


# ---------------------------------------------------------------------------
# Watermark / late-data accounting (streaming semantics, engine-new). The
# watermark is the running max event-time over ARRIVAL order (event_id)
# minus an allowed lateness; an event is late when it arrives after the
# watermark passed its timestamp. Same two-level ordered-scan shape as
# pack_sequences: order-preserving range buckets, one tiny carry row per
# bucket through the driver, vectorized in-bucket prefix max.
# ---------------------------------------------------------------------------


def late_events_watermark(sf_dir: str, lateness_s: int = 300):
    """Per-type count and worst lateness of events arriving behind the
    watermark (running prior max ts over ARRIVAL order, minus
    ``lateness_s``). The synthetic log is written in event-time order, so
    arrival is modeled as the deterministic hash shuffle of event_id —
    the out-of-order network-arrival case watermarks exist for. One sort
    on arrival cuts the stream into ordered range partitions; the driver
    holds one (first key, max ts) row per partition and broadcasts each
    partition's carry; a fold counts the late rows per type."""
    import ray

    empty = _typed_empty(sf_dir, ["events"], pa.schema(
        [("event_type", pa.string()), ("n_late", pa.int64()),
         ("max_lateness_us", pa.int64())]))
    if empty is not None:
        return empty

    M = np.int64(4294967296)
    D = np.int64(lateness_s * 1_000_000)

    def tag(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy().astype(np.int64)
        # arrival sequence = int64-safe hash of event_id (pre-reduced
        # mod 2^31 so the multiply never wraps; matches the SQL oracle)
        return pa.table({"arrival": ((ids % 2147483648) * 2654435761) % M,
                         "event_id": ids, "event_type": batch["event_type"],
                         "t": batch["ts"].cast(pa.int64())})

    ranges = _read_blocked(sf_dir, "events", ["event_id", "event_type", "ts"]
                           ).map_batches(tag, batch_format="pyarrow",
                                         zero_copy_batch=True).sort(
        ["arrival", "event_id"]).materialize()
    heads = _partition_heads(ranges, ["arrival", "event_id"],
                             lambda t: pc.max(t["t"]).as_py())
    run = np.maximum.accumulate([np.iinfo(np.int64).min // 2, *heads.values()])
    prior_ref = ray.put(dict(zip(heads, run[:-1].tolist())))

    def late_rows(t: pa.Table) -> pa.Table:
        base = ray.get(prior_ref).get(_head_key(t, ["arrival", "event_id"]), 0)
        t_ = t["t"].to_numpy()
        # running max of every EARLIER arrival: the carry, then this range
        wm_src = np.maximum.accumulate(np.concatenate(([base], t_)))[:-1]
        late = t_ < wm_src - D
        return pa.table({"event_type": t["event_type"].filter(pa.array(late)),
                         "lateness": (wm_src - D - t_)[late]})

    return _group_fold(ranges, ["event_type"], {
        "n_late": (None, "count_all"), "max_lateness_us": ("lateness", "max")},
        late_rows)


LATE_EVENTS_SQL = """
WITH s AS (
  SELECT event_type, ts,
    MAX(ts) OVER (ORDER BY ((event_id % 2147483648) * 2654435761)
                               % 4294967296, event_id
                  ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS wm_src
  FROM events)
SELECT event_type, count(*)::BIGINT AS n_late,
       max(epoch_us(wm_src) - 300000000 - epoch_us(ts))::BIGINT
         AS max_lateness_us
FROM s WHERE ts < wm_src - INTERVAL 300 SECONDS
GROUP BY event_type
"""


# ---------------------------------------------------------------------------
# Trailing-envelope anomaly detection — ordered scan with BOUNDED carry
# (engine-new): unlike the prefix-sum scans (pack/watermark) whose carry is
# one scalar per bucket, a trailing-window statistic needs the previous
# bucket's last W rows. The carry is still O(W x types x buckets), driver-
# bounded and row-count-independent.
# ---------------------------------------------------------------------------


def envelope_anomalies_events(sf_dir: str, window: int = 100):
    """Per-type count of events whose value breaches the min/max envelope of
    the trailing ``window`` events (event-time order). Min/max comparisons
    on raw doubles are exactly reproducible cross-engine (no accumulation),
    so the oracle is hash-exact — unlike a rolling mean/std rule. One sort
    on (ts, event_id) cuts the stream into ordered range partitions; the
    driver gathers each partition's last ``window`` values per type, each
    partition's carry is that suffix over all earlier partitions, and a fold
    counts the breaches of a vectorized pandas rolling min/max per type."""
    import ray

    empty = _typed_empty(sf_dir, ["events"], pa.schema(
        [("event_type", pa.string()), ("n_breaches", pa.int64()),
         ("n", pa.int64())]))
    if empty is not None:
        return empty

    keys = ["t", "event_id"]

    def tag(batch: pa.Table) -> pa.Table:
        return pa.table({"t": batch["ts"].cast(pa.int64()),
                         "event_id": batch["event_id"],
                         "event_type": batch["event_type"],
                         "value": batch["value"]})

    def per_type(t: pa.Table) -> dict:
        codes, types = _codes(t["event_type"])
        v = t["value"].to_numpy()
        return {et: v[codes == c] for c, et in enumerate(types)}

    ranges = _read_blocked(sf_dir, "events",
                           ["event_id", "event_type", "ts", "value"]).map_batches(
        tag, batch_format="pyarrow", zero_copy_batch=True).sort(keys).materialize()
    carry, seen = {}, {}
    for head, tails in _partition_heads(ranges, keys, lambda t: {
            et: v[-window:] for et, v in per_type(t).items()}).items():
        carry[head] = dict(seen)
        for et, v in tails.items():
            seen[et] = np.concatenate([seen.get(et, v[:0]), v])[-window:]
    carry_ref = ray.put(carry)

    def breaches(t: pa.Table) -> pa.Table:
        carried = ray.get(carry_ref).get(_head_key(t, keys), {})
        codes, types = _codes(t["event_type"])
        v = t["value"].to_numpy()
        brk = np.zeros(v.size, np.int64)
        for c, et in enumerate(types):
            idx = np.flatnonzero(codes == c)
            pre = carried.get(et, v[:0])
            s = pd.Series(np.concatenate([pre, v[idx]]))
            mx = s.rolling(window, min_periods=1).max().shift(1).to_numpy()[pre.size:]
            mn = s.rolling(window, min_periods=1).min().shift(1).to_numpy()[pre.size:]
            brk[idx] = ~np.isnan(mx) & ((v[idx] > mx) | (v[idx] < mn))
        return pa.table({"event_type": t["event_type"], "brk": brk})

    return _group_fold(ranges, ["event_type"], {
        "n_breaches": ("brk", "sum"), "n": (None, "count_all")}, breaches)


ENVELOPE_SQL = """
WITH s AS (
  SELECT event_type, value,
    MAX(value) OVER w AS mx, MIN(value) OVER w AS mn
  FROM events
  WINDOW w AS (PARTITION BY event_type ORDER BY ts, event_id
               ROWS BETWEEN 100 PRECEDING AND 1 PRECEDING))
SELECT event_type,
       count(*) FILTER (mx IS NOT NULL AND (value > mx OR value < mn))::BIGINT
         AS n_breaches,
       count(*)::BIGINT AS n
FROM s GROUP BY event_type
"""


def above_avg_customers(sf_dir: str):
    """Correlated-subquery shape (HAVING vs a global aggregate): how many
    customers' total spend exceeds the average per-customer total. One
    ``_key_shuffle`` builds per-customer totals (per-block partial sums
    first); the driver takes the global average (rounded to cents on both
    engines so the threshold is bit-identical) and counts the customers
    above it."""
    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({"k": batch["o_custkey"].to_numpy().astype(np.int64),
                           "p": batch["o_totalprice"].to_numpy()})
        g = df.groupby("k", sort=False).p.sum()
        return pa.table({"k": pa.array(g.index.to_numpy(np.int64)),
                         "total": pa.array(g.to_numpy())})

    def totals(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("k", sort=False).total.sum().reset_index()

    total = _key_shuffle(
        _read_blocked(sf_dir, "orders", ["o_custkey", "o_totalprice"]),
        ["k"], totals, partial).to_pandas().total.to_numpy()
    threshold = _round(total.sum() / total.size, 2)
    return pd.DataFrame({"n_above": [np.int64((_round(total, 2) > threshold).sum())],
                         "n_customers": [np.int64(total.size)],
                         "avg_total": [float(threshold)]})


ABOVE_AVG_SQL = """
WITH t AS (
  SELECT o_custkey, SUM(o_totalprice) AS total
  FROM orders GROUP BY o_custkey),
a AS (SELECT FLOOR(AVG(total) * 100 + 0.5) / 100 AS thr FROM t)
SELECT count(*) FILTER (FLOOR(total * 100 + 0.5) / 100
                        > (SELECT thr FROM a))::BIGINT AS n_above,
       count(*)::BIGINT AS n_customers,
       (SELECT thr FROM a) AS avg_total
FROM t
"""


# ---------------------------------------------------------------------------
# Entity resolution (block -> pair -> cluster): the fuzzy join's pair graph
# collapsed into entity clusters by connected components — the full
# record-linkage composition, on the one CC entry that also backs semantic
# dedup and the phash clusters (functions/graph.py connected_components).
# ---------------------------------------------------------------------------


def entity_clusters_parts(sf_dir: str):
    """Cluster ids for every part that fuzzy-matches another (same brand,
    Levenshtein <= 2): fuzzy pairs -> ``connected_components`` ->
    (p_partkey, cluster_id = component min key, cluster_size). Singletons
    (no match) are omitted — they are their own entity. The oracle walks
    the same pair graph with a recursive CTE."""
    from ..functions.graph import connected_components

    return connected_components(fuzzy_match_parts(sf_dir)).rename_columns(
        ["p_partkey", "cluster_id", "cluster_size"])


ENTITY_CLUSTERS_SQL = """
WITH RECURSIVE pairs AS (
  SELECT a.p_partkey AS u, b.p_partkey AS v
  FROM part a JOIN part b
    ON a.p_brand = b.p_brand AND a.p_partkey < b.p_partkey
   AND abs(length(a.p_name) - length(b.p_name)) <= 2
  WHERE levenshtein(a.p_name, b.p_name) <= 2),
edges AS (SELECT u, v FROM pairs UNION ALL SELECT v AS u, u AS v FROM pairs),
nodes AS (SELECT DISTINCT u AS node FROM edges),
walk(node, rep) AS (
  SELECT node, node FROM nodes
  UNION
  SELECT e.v AS node, w.rep FROM walk w JOIN edges e ON e.u = w.node),
label AS (SELECT node, MIN(rep) AS rep FROM walk GROUP BY node),
sizes AS (SELECT rep, COUNT(*)::BIGINT AS cluster_size FROM label GROUP BY rep)
SELECT l.node AS p_partkey, l.rep AS cluster_id, s.cluster_size
FROM label l JOIN sizes s ON s.rep = l.rep
"""


# ---------------------------------------------------------------------------
# PageRank — fixed-iteration distributed message passing, the canonical
# iterative join-aggregate graph shape (k-means covers iterative broadcast;
# connected components covers label propagation; this adds degree-normalized
# rank flow with dangling-mass redistribution). Engine-new per the build
# brief; the reference has no graph ops.
# ---------------------------------------------------------------------------

PAGERANK_ITERS = 5


PAGERANK_DRIVER_MAX_EDGES = 5_000_000


def pagerank_customers(sf_dir: str, iters: int = PAGERANK_ITERS, k: int = 20):
    """Top-k PageRank over a deterministic customer referral graph.

    Edges: one per order, src = o_custkey, dst = int64-safe Knuth hash of
    o_orderkey mod |customer| (same expression in the SQL oracle). Damping
    0.85, ``iters`` fixed iterations, dangling mass redistributed uniformly.

    Scale gate (the entity-resolution / uniqueness-screen pattern): an edge
    list under PAGERANK_DRIVER_MAX_EDGES (two int64 columns, ~80 MB at the
    gate — known from parquet metadata, nothing is collected to decide) runs
    the numpy driver kernel; larger graphs run the distributed loop
    (``pagerank_customers_distributed``), whose per-iteration cost is two
    key shuffles — parity between the paths is pinned in tests.
    Rank values round to 8 decimals (FP summation-order noise ~1e-15)."""
    if _num_rows(sf_dir, "orders") > PAGERANK_DRIVER_MAX_EDGES:
        return pagerank_customers_distributed(sf_dir, iters, k)
    N = _num_rows(sf_dir, "customer")
    M = np.int64(4294967296)
    t = _read_blocked(sf_dir, "orders", ["o_orderkey", "o_custkey"]).to_pandas()
    src = t.o_custkey.to_numpy().astype(np.int64)
    if src.size and (src.min() < 0 or src.max() >= N):
        # the referral graph's node domain is [0, N): both engine paths AND
        # the SQL oracle hash into that range, so a 1-based or sparse key
        # space would silently mint edges to nonexistent customers — fail
        # loudly instead (the cc 2^53-guard convention)
        raise ValueError("pagerank_customers requires 0-based contiguous "
                         "c_custkey in [0, N)")
    okey = t.o_orderkey.to_numpy().astype(np.int64)
    dst = ((((okey % 2147483648) * 2654435761) % M) % N).astype(np.int64)
    deg = np.bincount(src, minlength=N).astype(np.float64)
    r = np.full(N, 1.0 / N)
    dangling = deg == 0.0
    safe_deg = np.where(dangling, 1.0, deg)
    for _ in range(iters):
        dm = float(r[dangling].sum())
        contrib = np.bincount(dst, weights=r[src] / safe_deg[src], minlength=N)
        r = 0.15 / N + 0.85 * (contrib + dm / N)
    pr = _round(r, 8)
    order = np.lexsort((np.arange(N), -pr))[:k]
    return pa.table({"c_custkey": pa.array(order.astype(np.int64)),
                     "pagerank": pa.array(pr[order])})


def pagerank_customers_distributed(sf_dir: str, iters: int = PAGERANK_ITERS,
                                   k: int = 20):
    """Distributed PageRank: per iteration (1) the dangling mass is one tiny
    partial aggregate over the state table; (2) contributions co-locate
    edges with their source's (rank, degree) in a ``_key_shuffle`` hash
    join (Ray's join operator has ~10 s fixed aggregator cost), with a
    per-bucket combiner summing contributions by dst BEFORE the second
    shuffle; (3) the new state joins contribution sums back onto the node
    table the same way. State and edges never leave their buckets whole;
    the driver only sees the per-iteration dangling scalar. A shuffle's
    output has at most one block a bucket, so block counts stay capped
    every round (the iterative-Dataset geometric-blowup gotcha)."""
    N = _num_rows(sf_dir, "customer")
    # same node-domain guard as the driver path, from parquet FOOTER min/max
    # (no data read): a 1-based or sparse key space would silently route rank
    # mass to nonexistent nodes exactly at the scale this path is chosen for
    lo, hi = _footer_minmax(sf_dir, "orders", "o_custkey")
    if lo < 0 or hi >= N:
        raise ValueError("pagerank_customers requires 0-based contiguous "
                         "c_custkey in [0, N)")
    M = np.int64(4294967296)

    def mk_edges(batch: pa.Table) -> pa.Table:
        src = batch["o_custkey"].to_numpy().astype(np.int64)
        okey = batch["o_orderkey"].to_numpy().astype(np.int64)
        dst = ((((okey % 2147483648) * 2654435761) % M) % N).astype(np.int64)
        return pa.table({"key": pa.array(src), "dst": pa.array(dst),
                         "r": pa.nulls(src.size, pa.float64()),
                         "deg": pa.nulls(src.size, pa.float64())})

    edges = _read_blocked(sf_dir, "orders", ["o_orderkey", "o_custkey"]).map_batches(
        mk_edges, batch_format="pyarrow", zero_copy_batch=True).materialize()

    # ---- init state: every customer node, out-degree, uniform rank ----
    def node_rows(batch: pa.Table) -> pa.Table:
        ids = batch["c_custkey"].to_numpy().astype(np.int64)
        return pa.table({"node": pa.array(ids),
                         "cnt": pa.array(np.zeros(ids.size, np.int64))})

    def deg_partial(batch: pa.Table) -> pa.Table:
        u, c = np.unique(batch["key"].to_numpy().astype(np.int64),
                         return_counts=True)
        return pa.table({"node": pa.array(u), "cnt": pa.array(c)})

    def init_merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("node", sort=False).cnt.sum()
        nodes = g.index.to_numpy().astype(np.int64)
        return pd.DataFrame({"node": nodes,
                             "deg": g.to_numpy().astype(np.float64),
                             "r": np.full(nodes.size, 1.0 / N)})

    state = _key_shuffle([_read_blocked(sf_dir, "customer", ["c_custkey"]),
                          edges], ["node"], init_merge, [node_rows, deg_partial])

    def dangling_partial(batch: pa.Table) -> pa.Table:
        deg = batch["deg"].to_numpy()
        r = batch["r"].to_numpy()
        return pa.table({"dr": pa.array([float(r[deg == 0.0].sum())])})

    def tag_state(batch: pa.Table) -> pa.Table:
        n_ = batch["node"].to_numpy().astype(np.int64)
        return pa.table({"key": pa.array(n_),
                         "dst": pa.nulls(n_.size, pa.int64()),
                         "r": batch["r"], "deg": batch["deg"]})

    def contrib_merge(df: pd.DataFrame) -> pd.DataFrame:
        is_state = df.dst.isna()
        st = df.loc[is_state, ["key", "r", "deg"]]
        ed = df.loc[~is_state, ["key", "dst"]]
        m = ed.merge(st, on="key", how="inner")
        c = m.r.to_numpy() / m.deg.to_numpy()  # deg >= 1: src has this edge
        # per-bucket combiner: sum by dst before the next shuffle
        g = pd.DataFrame({"dst": m.dst.to_numpy().astype(np.int64),
                          "c": c}).groupby("dst", sort=False).c.sum()
        nodes = g.index.to_numpy().astype(np.int64)
        return pd.DataFrame({"node": nodes, "c": g.to_numpy(),
                             "deg": np.full(nodes.size, np.nan),
                             "r": np.full(nodes.size, np.nan)})

    for _ in range(iters):
        dm = float(state.map_batches(
            dangling_partial, batch_format="pyarrow").sum("dr") or 0.0)

        contrib = _key_shuffle([edges, state], ["key"], contrib_merge,
                               [None, tag_state])

        def tag_contrib(batch: pa.Table) -> pa.Table:
            n_ = batch["node"].to_numpy().astype(np.int64)
            return pa.table({"node": pa.array(n_), "c": batch["c"],
                             "deg": pa.nulls(n_.size, pa.float64()),
                             "r": pa.nulls(n_.size, pa.float64())})

        def tag_base(batch: pa.Table) -> pa.Table:
            n_ = batch["node"].to_numpy().astype(np.int64)
            return pa.table({"node": pa.array(n_),
                             "c": pa.nulls(n_.size, pa.float64()),
                             "deg": batch["deg"], "r": batch["r"]})

        def apply_rank(df: pd.DataFrame, dm: float = dm) -> pd.DataFrame:
            base = df[df.deg.notna()]
            cs = df[df.deg.isna()].groupby("node", sort=False).c.sum()
            contrib_sum = base.node.map(cs).fillna(0.0).to_numpy()
            r_new = 0.15 / N + 0.85 * (contrib_sum + dm / N)
            return pd.DataFrame({
                "node": base.node.to_numpy().astype(np.int64),
                "deg": base.deg.to_numpy().astype(np.float64),
                "r": r_new})

        state = _key_shuffle([contrib, state], ["node"], apply_rank,
                             [tag_contrib, tag_base])

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": batch["node"].cast(pa.int64()),
            "pagerank": pa.array(_round(batch["r"].to_numpy(), 8))})

    return state.map_batches(project, batch_format="pyarrow").sort(
        ["pagerank", "c_custkey"], descending=[True, False]).limit(k)


def _pagerank_sql(iters: int = PAGERANK_ITERS, k: int = 20) -> str:
    head = """WITH nodes AS (SELECT c_custkey AS node FROM customer),
cnt AS (SELECT COUNT(*)::DOUBLE AS n FROM nodes),
e AS (SELECT o_custkey AS src,
        (((o_orderkey % 2147483648) * 2654435761) % 4294967296)
          % (SELECT COUNT(*) FROM nodes) AS dst
      FROM orders),
deg AS (SELECT src, COUNT(*)::DOUBLE AS deg FROM e GROUP BY src),
r0 AS (SELECT node, 1.0 / (SELECT n FROM cnt) AS r FROM nodes)"""
    parts = [head]
    prev = "r0"
    for i in range(1, iters + 1):
        parts.append(f""",
d{i} AS (SELECT COALESCE(SUM(r), 0) AS dm FROM {prev}
         WHERE node NOT IN (SELECT src FROM deg)),
c{i} AS (SELECT e.dst AS node, SUM(p.r / g.deg) AS c
         FROM e JOIN {prev} p ON p.node = e.src
                JOIN deg g ON g.src = e.src
         GROUP BY e.dst),
r{i} AS (SELECT n.node,
        0.15 / (SELECT n FROM cnt)
        + 0.85 * (COALESCE(c.c, 0) + (SELECT dm FROM d{i}) / (SELECT n FROM cnt)) AS r
      FROM nodes n LEFT JOIN c{i} c ON c.node = n.node)""")
        prev = f"r{i}"
    parts.append(f"""
SELECT node AS c_custkey, FLOOR(r * 1e8 + 0.5) / 1e8 AS pagerank
FROM {prev} ORDER BY pagerank DESC, c_custkey LIMIT {k}""")
    return "".join(parts)


PAGERANK_SQL = _pagerank_sql()


# ---------------------------------------------------------------------------
# Data-profiling checks: functional-dependency discovery, shuffle-key skew
# diagnostics, categorical association (mutual information). Validation-tier
# operators in the Metanome/profiler tradition; all reduce to per-block
# partials + one tiny final aggregate, so they run as one streaming pass at
# any scale.
# ---------------------------------------------------------------------------


def fd_check_orders(sf_dir: str):
    """Functional-dependency check o_custkey -> o_orderpriority: how many
    keys map to more than one dependent value. Per-block DISTINCT pair
    projection (pairs are bounded by keys x |priority| = 5), per-key
    distinct count in ``_key_shuffle`` buckets (a key never spans buckets),
    tiny driver sum."""
    def pair_partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "k": batch["o_custkey"].to_numpy().astype(np.int64),
            "d": batch["o_orderpriority"].to_pandas()}).drop_duplicates()
        return pa.table({"k": pa.array(df.k.to_numpy()),
                         "d": pa.array(df.d.to_numpy(), pa.string())})

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        nd = df.drop_duplicates(["k", "d"]).groupby("k", sort=False).size()
        return pd.DataFrame({
            "n_keys": [np.int64(nd.size)],
            "n_violating_keys": [np.int64((nd > 1).sum())]})

    parts = _key_shuffle(
        _read_blocked(sf_dir, "orders", ["o_custkey", "o_orderpriority"]),
        ["k"], per_bucket, pair_partial).to_pandas()
    nk, nv = int(parts.n_keys.sum()), int(parts.n_violating_keys.sum())
    return pa.table({
        "n_keys": pa.array([nk], pa.int64()),
        "n_violating_keys": pa.array([nv], pa.int64()),
        "violation_rate": pa.array(
            [float(np.floor(nv * 1e6 / nk + 0.5) / 1e6)], pa.float64())})


FD_CHECK_SQL = """
WITH pairs AS (SELECT DISTINCT o_custkey, o_orderpriority FROM orders),
per_key AS (SELECT o_custkey, COUNT(*) AS n_dep FROM pairs GROUP BY o_custkey)
SELECT COUNT(*)::BIGINT AS n_keys,
       SUM(CASE WHEN n_dep > 1 THEN 1 ELSE 0 END)::BIGINT AS n_violating_keys,
       FLOOR(SUM(CASE WHEN n_dep > 1 THEN 1 ELSE 0 END) * 1e6
             / COUNT(*) + 0.5) / 1e6 AS violation_rate
FROM per_key
"""


def benford_check_orders(sf_dir: str):
    """Benford's-law first-digit audit of o_totalprice — the classic
    fabricated/corrupted-numeric-data screen. Digit extraction is
    integer-exact on both engines (FLOOR(x*100+0.5) cents → decimal string
    → first char), never via log10, whose 1-ulp disagreement at powers of
    ten would flip a digit between numpy and the oracle. One digit-keyed
    fold; the driver sees <= 9 counts per block. Emits the per-digit
    observed/expected fractions and each digit's Pearson χ² contribution
    (the statistic is their sum — left unreduced so the output pins WHERE
    the deviation lives). Never-observed digits have no row, as in the
    oracle's GROUP BY."""
    def digit(batch: pa.Table) -> pa.Table:
        cents = np.floor(batch["o_totalprice"].to_numpy() * 100 + 0.5).astype(np.int64)
        s = cents[cents > 0].astype("U1")  # first decimal digit of the integer
        return pa.table({"digit": s.view(np.uint32).astype(np.int64) - ord("0")})

    df = _group_fold(_read_blocked(sf_dir, "orders", ["o_totalprice"]), ["digit"],
                     {"n": (None, "count_all")}, digit).sort_by("digit")
    n = df["n"].to_numpy().astype(np.float64)
    tot = n.sum()
    exp = np.log10(1.0 + 1.0 / df["digit"].to_numpy().astype(np.float64))
    obs = n / tot
    contrib = (obs - exp) ** 2 / exp * tot
    return pa.table({
        "digit": df["digit"], "n": df["n"],
        "obs_frac": pa.array(_round(obs, 6)),
        "exp_frac": pa.array(_round(exp, 6)),
        "chi2_contrib": pa.array(_round(contrib, 6)),
    })


BENFORD_SQL = """
WITH d AS (
  SELECT CAST(SUBSTR(CAST(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)
                          AS VARCHAR), 1, 1) AS BIGINT) AS digit
  FROM orders WHERE FLOOR(o_totalprice * 100 + 0.5) > 0),
c AS (SELECT digit, COUNT(*)::DOUBLE AS n FROM d GROUP BY digit),
t AS (SELECT SUM(n) AS tot FROM c)
SELECT c.digit, CAST(c.n AS BIGINT) AS n,
  FLOOR(c.n / t.tot * 1e6 + 0.5) / 1e6 AS obs_frac,
  FLOOR(LOG10(1.0 + 1.0 / c.digit) * 1e6 + 0.5) / 1e6 AS exp_frac,
  FLOOR(POWER(c.n / t.tot - LOG10(1.0 + 1.0 / c.digit), 2)
        / LOG10(1.0 + 1.0 / c.digit) * t.tot * 1e6 + 0.5) / 1e6
    AS chi2_contrib
FROM c, t
"""


def zipf_fit_documents(sf_dir: str, top_k: int = 1000):
    """Zipf-law fit over the corpus token distribution: least-squares slope
    and intercept of ln(freq) on ln(rank) for the top_k most frequent
    tokens — natural-language corpora sit near slope -1, so a collapsed
    slope is a cheap corpus-health / generated-text signal.

    Shape: per-block (token-hash, count) partials → ``_key_shuffle`` exact
    sums with per-bucket local top-k (a token lives wholly in one bucket,
    so the global top-k is inside the union of local top-ks) → driver
    merge of buckets × k rows. Rank ties are regression-invariant: within
    a tie group y = ln(freq) is constant and the SET of ranks is fixed, so
    every tie permutation yields identical regression sums — no tie-break
    needs to match the oracle."""
    from ..functions.hashing import hash64
    from .textops import _tokens

    ds = _read_blocked(sf_dir, "documents", ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        toks = _tokens(batch["text"].to_pandas())
        reps = toks.map(len).to_numpy()
        if not reps.sum():
            return pa.table({"h": pa.array([], pa.int64()),
                             "c": pa.array([], pa.int64())})
        allw = np.concatenate([np.asarray(ws, dtype=object) for ws in toks])
        h, c = np.unique(hash64(allw).astype(np.int64), return_counts=True)
        return pa.table({"h": pa.array(h), "c": pa.array(c.astype(np.int64))})

    def bucket_topk(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("h", sort=False).c.sum().reset_index()
        return g.nlargest(top_k, "c")[["h", "c"]]

    top = _key_shuffle(ds, ["h"], bucket_topk, partial).to_pandas()
    top = top.nlargest(top_k, "c")
    c = np.sort(top.c.to_numpy(np.float64))[::-1]
    x = np.log(np.arange(1, c.size + 1, dtype=np.float64))
    y = np.log(c)
    # same moment-form arithmetic as the SQL twin
    mx, my = x.mean(), y.mean()
    mxy, mxx = (x * y).mean(), (x * x).mean()
    slope = (mxy - mx * my) / (mxx - mx * mx)
    intercept = my - slope * mx
    return pa.Table.from_pylist([{
        "n_terms": int(c.size),
        "slope": float(_round(slope, 6)),
        "intercept": float(_round(intercept, 6)),
    }])


ZIPF_SQL = f"""
WITH tok AS (
  SELECT UNNEST(list_filter(string_split(text, ' '), x -> x <> '')) AS w
  FROM documents),
c AS (SELECT w, COUNT(*)::DOUBLE AS n FROM tok GROUP BY w
      ORDER BY n DESC LIMIT 1000),
r AS (SELECT LN(ROW_NUMBER() OVER (ORDER BY n DESC)) AS x, LN(n) AS y FROM c),
m AS (SELECT AVG(x) AS mx, AVG(y) AS my, AVG(x * y) AS mxy,
             AVG(x * x) AS mxx, COUNT(*)::BIGINT AS k FROM r)
SELECT k AS n_terms,
  FLOOR((mxy - mx * my) / (mxx - mx * mx) * 1e6 + 0.5) / 1e6 AS slope,
  FLOOR((my - (mxy - mx * my) / (mxx - mx * mx) * mx) * 1e6 + 0.5) / 1e6
    AS intercept
FROM m
"""


def skew_profile_orders(sf_dir: str):
    """Shuffle-key skew diagnostics for o_custkey — the planning signal the
    engine's own key shuffles exist to defeat. Per-key counts via per-block
    partials + ``_key_shuffle`` merge; skew statistics (peak-to-mean,
    coefficient of variation, top-1 share) come from per-bucket MOMENT
    partials over the key counts, so nothing key-shaped reaches the driver."""
    ds = _read_blocked(sf_dir, "orders", ["o_custkey"])

    def count_partial(batch: pa.Table) -> pa.Table:
        u, c = np.unique(batch["o_custkey"].to_numpy().astype(np.int64),
                         return_counts=True)
        return pa.table({"k": pa.array(u), "cnt": pa.array(c)})

    def moments(df: pd.DataFrame) -> pd.DataFrame:
        cnt = df.groupby("k", sort=False).cnt.sum().to_numpy().astype(np.float64)
        return pd.DataFrame({
            "n": [np.int64(cnt.size)], "s": [float(cnt.sum())],
            "sxx": [float((cnt * cnt).sum())], "mx": [float(cnt.max())]})

    parts = _key_shuffle(ds, ["k"], moments, count_partial).to_pandas()
    n, sm = float(parts.n.sum()), float(parts.s.sum())
    sxx, mx = float(parts.sxx.sum()), float(parts.mx.max())
    mean = sm / n
    var = sxx / n - mean * mean
    return pa.table({
        "n_keys": pa.array([int(n)], pa.int64()),
        "peak_to_mean": pa.array([float(_round(mx / mean, 6))]),
        "cv": pa.array([float(_round(np.sqrt(max(var, 0.0)) / mean, 6))]),
        "top1_share": pa.array([float(_round(mx / sm, 6))])})


SKEW_PROFILE_SQL = """
WITH per_key AS (
  SELECT o_custkey, COUNT(*)::DOUBLE AS cnt FROM orders GROUP BY o_custkey),
m AS (SELECT COUNT(*)::DOUBLE AS n, SUM(cnt) AS s, SUM(cnt * cnt) AS sxx,
             MAX(cnt) AS mx FROM per_key)
SELECT n::BIGINT AS n_keys,
       FLOOR(mx / (s / n) * 1e6 + 0.5) / 1e6 AS peak_to_mean,
       FLOOR(sqrt(GREATEST(sxx / n - (s / n) * (s / n), 0)) / (s / n) * 1e6
             + 0.5) / 1e6 AS cv,
       FLOOR(mx / s * 1e6 + 0.5) / 1e6 AS top1_share
FROM m
"""


def _codes(col) -> tuple[np.ndarray, list]:
    """(dense integer codes, the value of each code) of a key column, a
    NULL key its own code with value None — the GROUP BY semantics
    ``_group_fold`` keeps, for per-key work outside a fold."""
    enc = pc.dictionary_encode(col, null_encoding="encode").combine_chunks()
    return enc.indices.to_numpy(), enc.dictionary.to_pylist()


def mutual_info_documents(sf_dir: str):
    """Mutual information and normalized MI between the lang and source
    columns — the categorical-association drift signal (a change in MI flags
    a shifted joint distribution even when both marginals hold). One
    (lang, source) fold of joint counts; the entropy math runs on the driver
    over the bounded cell table (|lang| x |source|, category-bounded like
    chi2_event_type)."""
    cells = _group_fold(_read_blocked(sf_dir, "documents", ["lang", "source"]),
                        ["lang", "source"], {"cnt": (None, "count_all")})
    c = cells["cnt"].to_numpy().astype(np.float64)
    n = c.sum()
    li, si = _codes(cells["lang"])[0], _codes(cells["source"])[0]
    pl, ps = np.bincount(li, weights=c) / n, np.bincount(si, weights=c) / n
    pij = c / n
    # the oracle joins the marginals back by key, which no NULL key matches
    both = pc.and_(pc.is_valid(cells["lang"]), pc.is_valid(cells["source"])
                   ).to_numpy(zero_copy_only=False)
    mi = float((pij * np.log(pij / (pl[li] * ps[si])))[both].sum())
    h_lang = float(-(pl * np.log(pl)).sum())
    h_source = float(-(ps * np.log(ps)).sum())
    nmi = mi / min(h_lang, h_source) if min(h_lang, h_source) > 0 else 0.0
    return pa.table({
        "mi": pa.array([float(_round(mi, 6))]),
        "h_lang": pa.array([float(_round(h_lang, 6))]),
        "h_source": pa.array([float(_round(h_source, 6))]),
        "nmi": pa.array([float(_round(nmi, 6))])})


MUTUAL_INFO_SQL = """
WITH j AS (SELECT lang, source, COUNT(*)::DOUBLE AS c FROM documents
           GROUP BY lang, source),
n AS (SELECT SUM(c) AS n FROM j),
pl AS (SELECT lang, SUM(c) AS cl FROM j GROUP BY lang),
ps AS (SELECT source, SUM(c) AS cs FROM j GROUP BY source),
mi AS (
  SELECT SUM((j.c / n.n) * ln((j.c / n.n) / ((pl.cl / n.n) * (ps.cs / n.n))))
           AS mi
  FROM j, n JOIN pl ON TRUE JOIN ps ON TRUE
  WHERE pl.lang = j.lang AND ps.source = j.source),
hl AS (SELECT -SUM((cl / n.n) * ln(cl / n.n)) AS h FROM pl, n),
hs AS (SELECT -SUM((cs / n.n) * ln(cs / n.n)) AS h FROM ps, n)
SELECT FLOOR(mi.mi * 1e6 + 0.5) / 1e6 AS mi,
       FLOOR(hl.h * 1e6 + 0.5) / 1e6 AS h_lang,
       FLOOR(hs.h * 1e6 + 0.5) / 1e6 AS h_source,
       CASE WHEN LEAST(hl.h, hs.h) = 0 THEN 0.0
            ELSE FLOOR(mi.mi / LEAST(hl.h, hs.h) * 1e6 + 0.5) / 1e6
       END AS nmi
FROM mi, hl, hs
"""


# ---------------------------------------------------------------------------
# Prep staples: mean imputation, stable categorical encoding, JSONL source
# roundtrip. The imputation mask is hash-derived (the table_diff convention:
# the testdata has no physical nulls, so missingness is synthesized
# deterministically with the int64-safe Knuth hash both engines share).
# ---------------------------------------------------------------------------


def impute_value_events(sf_dir: str):
    """Per-type mean imputation audit: rows with hash(event_id) % 17 == 0
    are treated as missing; the fill value is the per-event_type mean of the
    surviving values. Reports fill value, post-imputation mean and variance
    per type — all derived from one fold of moments (the imputed aggregate
    is algebra over (n, sum, sumsq, n_missing); no second pass touches the
    data)."""
    M = np.int64(4294967296)

    def moments(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"].to_numpy().astype(np.int64)
        miss = (((ids % 2147483648) * 2654435761) % M) % 17 == 0
        v = np.where(miss, 0.0, batch["value"].to_numpy())
        return pa.table({"event_type": batch["event_type"],
                         "n_ok": (~miss).astype(np.int64), "s": v, "sxx": v * v,
                         "n_miss": miss.astype(np.int64)})

    a = _group_fold(_read_blocked(sf_dir, "events", ["event_id", "event_type", "value"]),
                    ["event_type"], {c: (c, "sum") for c in ("n_ok", "s", "sxx", "n_miss")},
                    moments).to_pandas()
    fill = a.s / a.n_ok
    n = a.n_ok + a.n_miss
    mean_after = (a.s + a.n_miss * fill) / n
    var_after = (a.sxx + a.n_miss * fill * fill) / n - mean_after * mean_after
    return _pa_from_pandas(pd.DataFrame({
        "event_type": a.event_type, "n_missing": a.n_miss,
        "fill_value": _round(fill, 6), "mean_after": _round(mean_after, 6),
        "var_after": _round(var_after, 6)}), preserve_index=False)


IMPUTE_SQL = """
WITH m AS (
  SELECT event_type, value,
         (((event_id % 2147483648) * 2654435761) % 4294967296) % 17 = 0
           AS miss
  FROM events),
a AS (
  SELECT event_type,
         SUM(CASE WHEN NOT miss THEN 1 ELSE 0 END)::BIGINT AS n_ok,
         SUM(CASE WHEN NOT miss THEN value ELSE 0 END) AS s,
         SUM(CASE WHEN NOT miss THEN value * value ELSE 0 END) AS sxx,
         SUM(CASE WHEN miss THEN 1 ELSE 0 END)::BIGINT AS n_miss
  FROM m GROUP BY event_type)
SELECT event_type, n_miss AS n_missing,
  FLOOR(s / n_ok * 1e6 + 0.5) / 1e6 AS fill_value,
  FLOOR((s + n_miss * (s / n_ok)) / (n_ok + n_miss) * 1e6 + 0.5) / 1e6
    AS mean_after,
  FLOOR(((sxx + n_miss * (s / n_ok) * (s / n_ok)) / (n_ok + n_miss)
         - ((s + n_miss * (s / n_ok)) / (n_ok + n_miss))
           * ((s + n_miss * (s / n_ok)) / (n_ok + n_miss))) * 1e6 + 0.5) / 1e6
    AS var_after
FROM a
"""


def encode_categories_orders(sf_dir: str):
    """Stable categorical encoding: o_orderpriority -> its alphabetical
    index, identical on every partition and across runs (the label-encoder
    fit-transform shape: a bounded distinct fold builds the vocabulary, the
    code map rides into a stateless projection). NULL sorts last, as in
    the twin's ``DENSE_RANK``, so it gets the code after the last value."""
    ds = _read_blocked(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    keys = _group_fold(ds, ["o_orderpriority"], {"n": (None, "count_all")})
    vocab = pc.drop_null(keys["o_orderpriority"]).sort()

    def encode(batch: pa.Table) -> pa.Table:
        code = pc.index_in(batch["o_orderpriority"], value_set=vocab)
        return pa.table({
            "o_orderkey": batch["o_orderkey"].cast(pa.int64()),
            "o_orderpriority": batch["o_orderpriority"],
            "priority_code": pc.fill_null(code, len(vocab)).cast(pa.int64())})

    if not keys.num_rows:  # an empty table: the typed empty result
        return encode(ds.schema().base_schema.empty_table())
    return ds.map_batches(encode, batch_format="pyarrow")


ENCODE_CATEGORIES_SQL = """
SELECT o_orderkey, o_orderpriority,
       DENSE_RANK() OVER (ORDER BY o_orderpriority) - 1 AS priority_code
FROM orders
"""


def jsonl_roundtrip_events(sf_dir: str):
    """JSONL sink + source roundtrip (``_io_roundtrip``): Ray's
    ``write_json`` and ``read_json`` over timestamps as epoch microseconds
    (JSON has no timestamp type); per-type counts, id checksum, ts range."""

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": batch["event_id"].cast(pa.int64()),
            "event_type": batch["event_type"],
            "ts_us": batch["ts"].cast(pa.int64())})

    return _io_roundtrip(sf_dir, "events", ["event_id", "event_type", "ts"],
                         project, "jsonl", _native_io("json"),
                         "event_type", "event_id",
                         {"min_ts_us": ("ts_us", "min"),
                          "max_ts_us": ("ts_us", "max")})


JSONL_ROUNDTRIP_SQL = """
SELECT event_type, COUNT(*)::BIGINT AS n,
       SUM(((event_id % 2147483648) * 2654435761) % 4294967296)::BIGINT
         AS sum_hash,
       MIN(epoch_us(ts))::BIGINT AS min_ts_us,
       MAX(epoch_us(ts))::BIGINT AS max_ts_us
FROM events GROUP BY event_type
"""


# ---------------------------------------------------------------------------
# TPC-H Q5 shape — 6-table join (region/nation dim filters, two broadcast
# dimension probes, one fact-fact key-shuffle co-location with a
# same-nation join condition). The widest relational pipeline in the repo.
# ---------------------------------------------------------------------------


def q5_local_supplier_volume(sf_dir: str, region: str = "ASIA",
                             date_lo: str = "1996-01-01",
                             date_hi: str = "1998-01-01"):
    """Revenue by nation where the customer and supplier share the nation
    (TPC-H Q5). Ray plan: (1) region -> nation-set and the supplier and
    customer key->nation maps are bounded dimension reads, broadcast once
    via ``ray.put`` as sorted-key probe arrays (at 10^9-row dimensions the
    probe side becomes another key-shuffle join, the q3 caveat); (2)
    orders (date-filtered) tag each o_orderkey with the customer's nation,
    lineitem tags each l_orderkey row with the supplier's nation — both
    project to slim int columns at the read; (3) ONE ``_key_shuffle`` on
    the orderkey co-locates them; each bucket inner-merges on
    (orderkey, nation-equality) and emits per-nation revenue partials, so
    the final exchange is nations x buckets rows."""
    import pyarrow.parquet as pq_
    import ray

    lo = np.datetime64(date_lo, "us")
    hi = np.datetime64(date_hi, "us")

    nat = pq_.read_table(f"{sf_dir}/nation.parquet",
                         columns=["n_nationkey", "n_regionkey", "n_name"]
                         ).to_pandas()
    reg = pq_.read_table(f"{sf_dir}/region.parquet",
                         columns=["r_regionkey", "r_name"]).to_pandas()
    rkey = reg.loc[reg.r_name == region, "r_regionkey"]
    nat = nat[nat.n_regionkey.isin(set(rkey))]
    nation_keys = np.sort(nat.n_nationkey.to_numpy().astype(np.int64))
    name_of = dict(zip(nat.n_nationkey.to_numpy(), nat.n_name))

    def keymap(table: str, kcol: str, ncol: str):
        t = pq_.read_table(f"{sf_dir}/{table}.parquet", columns=[kcol, ncol])
        k = t[kcol].to_numpy().astype(np.int64)
        n = t[ncol].to_numpy().astype(np.int64)
        keep = np.isin(n, nation_keys)
        k, n = k[keep], n[keep]
        order = np.argsort(k, kind="stable")
        return k[order], n[order]

    sup_ref = ray.put(keymap("supplier", "s_suppkey", "s_nationkey"))
    cust_ref = ray.put(keymap("customer", "c_custkey", "c_nationkey"))

    def probe(keys: np.ndarray, probe_k: np.ndarray, probe_v: np.ndarray):
        if probe_k.size == 0:  # empty dimension side: nothing joins
            return (np.zeros(keys.size, bool),
                    np.full(keys.size, -1, np.int64))
        pos = np.searchsorted(probe_k, keys)
        ok = (pos < probe_k.size) & (
            probe_k[np.minimum(pos, probe_k.size - 1)] == keys)
        return ok, np.where(ok, probe_v[np.minimum(pos, probe_k.size - 1)], -1)

    def otag(batch: pa.Table) -> pa.Table:
        ck, cn = ray.get(cust_ref)
        od = batch["o_orderdate"].to_numpy().astype("datetime64[us]")
        t = batch.filter(pa.array((od >= lo) & (od < hi)))
        ok_mask, nk = probe(t["o_custkey"].to_numpy().astype(np.int64), ck, cn)
        t = t.filter(pa.array(ok_mask))
        okey = t["o_orderkey"].to_numpy().astype(np.int64)
        return pa.table({
            "key": pa.array(okey), "nat": pa.array(nk[ok_mask]),
            "rev": pa.array(np.zeros(okey.size, np.float64)),
            "side": pa.array(np.zeros(okey.size, np.int8))})

    def ltag(batch: pa.Table) -> pa.Table:
        sk, sn = ray.get(sup_ref)
        keys = batch["l_suppkey"].to_numpy().astype(np.int64)
        ok_mask, nk = probe(keys, sk, sn)
        t = batch.filter(pa.array(ok_mask))
        okey = t["l_orderkey"].to_numpy().astype(np.int64)
        rev = t["l_extendedprice"].to_numpy() * (
            1.0 - t["l_discount"].to_numpy())
        # per-block combiner: collapse to (orderkey, nation) partials
        df = pd.DataFrame({"key": okey, "nat": nk[ok_mask], "rev": rev})
        g = df.groupby(["key", "nat"], sort=False).rev.sum().reset_index()
        k2 = g.key.to_numpy().astype(np.int64)
        return pa.table({
            "key": pa.array(k2), "nat": pa.array(g.nat.to_numpy().astype(np.int64)),
            "rev": pa.array(g.rev.to_numpy()),
            "side": pa.array(np.ones(k2.size, np.int8))})

    orders = _read_blocked(sf_dir, "orders",
                           ["o_orderkey", "o_custkey", "o_orderdate"])
    li = _read_blocked(sf_dir, "lineitem",
                       ["l_orderkey", "l_suppkey", "l_extendedprice",
                        "l_discount"])

    def bucket_join(df: pd.DataFrame) -> pd.DataFrame:
        o = df[df.side == 0][["key", "nat"]]
        l = df[df.side == 1][["key", "nat", "rev"]]
        m = l.merge(o, on=["key", "nat"], how="inner")  # same-nation join
        g = m.groupby("nat", sort=False).rev.sum()
        return pd.DataFrame({"nat": g.index.to_numpy().astype(np.int64),
                             "revenue": g.to_numpy()})

    parts = _key_shuffle([orders, li], ["key"], bucket_join,
                         [otag, ltag]).to_pandas()
    g = parts.groupby("nat", sort=False).revenue.sum()
    out = pd.DataFrame({"n_name": [name_of[int(n)] for n in g.index],
                        "revenue": _round(g.to_numpy(), 2)})
    return _pa_from_pandas(out.sort_values(["revenue", "n_name"],
                                           ascending=[False, True]),
                           preserve_index=False)


Q5_SQL = """
SELECT n_name,
       FLOOR(SUM(l_extendedprice * (1 - l_discount)) * 100 + 0.5) / 100
         AS revenue
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = 'ASIA'
  AND o_orderdate >= DATE '1996-01-01' AND o_orderdate < DATE '1998-01-01'
GROUP BY n_name ORDER BY revenue DESC, n_name
"""


def winsorize_lineitem(sf_dir: str, p_lo: float = 0.01, p_hi: float = 0.99):
    """Winsorization audit: clip l_extendedprice at the discrete p01/p99
    boundaries (fit via _fit_bounds_gated: driver-exact on the one pruned
    column below the row gate — the oracle anchor — merged t-digest
    partials above it), then report clipped counts and the post-clip
    mean/std from one pass of moment partials over the CLIPPED values —
    the robust-stats companion to impute_value_events."""
    ds = _read_blocked(sf_dir, "lineitem", ["l_extendedprice"])
    lo, hi = (float(b) for b in _fit_bounds_gated(
        sf_dir, "lineitem", "l_extendedprice", (p_lo, p_hi)))

    def partial(batch: pa.Table) -> pa.Table:
        v = batch["l_extendedprice"].to_numpy()
        c = np.clip(v, lo, hi)
        return pa.table({
            "n": pa.array([np.int64(v.size)]),
            "n_lo": pa.array([np.int64((v < lo).sum())]),
            "n_hi": pa.array([np.int64((v > hi).sum())]),
            "s": pa.array([float(c.sum())]),
            "sxx": pa.array([float((c * c).sum())])})

    def final(batch: pa.Table) -> pa.Table:
        nn = float(batch["n"].to_numpy().sum())
        sm = float(batch["s"].to_numpy().sum())
        sxx = float(batch["sxx"].to_numpy().sum())
        mean = sm / nn
        var = sxx / nn - mean * mean
        return pa.table({
            "lo_bound": pa.array([lo]), "hi_bound": pa.array([hi]),
            "n_clipped_lo": pa.array(
                [int(batch["n_lo"].to_numpy().sum())], pa.int64()),
            "n_clipped_hi": pa.array(
                [int(batch["n_hi"].to_numpy().sum())], pa.int64()),
            "mean_after": pa.array([float(_round(mean, 6))]),
            "std_after": pa.array(
                [float(_round(np.sqrt(max(var, 0.0)), 6))])})

    return ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True).repartition(1).map_batches(
        final, batch_format="pyarrow", batch_size=None)


WINSORIZE_SQL = """
WITH b AS (
  SELECT quantile_disc(l_extendedprice, 0.01) AS lo,
         quantile_disc(l_extendedprice, 0.99) AS hi
  FROM lineitem),
c AS (
  SELECT GREATEST(LEAST(l_extendedprice, hi), lo) AS v,
         (l_extendedprice < lo)::INT AS clo,
         (l_extendedprice > hi)::INT AS chi, lo, hi
  FROM lineitem, b)
SELECT ANY_VALUE(lo) AS lo_bound, ANY_VALUE(hi) AS hi_bound,
       SUM(clo)::BIGINT AS n_clipped_lo, SUM(chi)::BIGINT AS n_clipped_hi,
       FLOOR(SUM(v) / COUNT(*) * 1e6 + 0.5) / 1e6 AS mean_after,
       FLOOR(sqrt(GREATEST(SUM(v * v) / COUNT(*)
                           - (SUM(v) / COUNT(*)) * (SUM(v) / COUNT(*)), 0))
             * 1e6 + 0.5) / 1e6 AS std_after
FROM c
"""


def _cents_projection(key: str, group: str, price: str, out: str):
    """Roundtrip projection (key as int64, group, ``price`` as integer cents
    named ``out``): float text roundtrips are lossy, cents are exact."""
    def project(batch: pa.Table) -> pa.Table:
        return pa.table({
            key: batch[key].cast(pa.int64()), group: batch[group],
            out: pa.array(np.floor(batch[price].to_numpy() * 100 + 0.5
                                   ).astype(np.int64))})

    return project


def csv_roundtrip_orders(sf_dir: str):
    """CSV sink + source roundtrip (``_io_roundtrip``): Ray's ``write_csv``
    and ``read_csv``; per-status counts, cent sums and key checksum. The
    writer quotes every string and leaves a NULL as an empty unquoted
    field, so only that field reads back as NULL."""
    from pyarrow import csv

    return _io_roundtrip(sf_dir, "orders",
                         ["o_orderkey", "o_orderstatus", "o_totalprice"],
                         _cents_projection("o_orderkey", "o_orderstatus",
                                           "o_totalprice", "cents"),
                         "csv", _native_io("csv", convert_options=(
                             csv.ConvertOptions(
                                 strings_can_be_null=True,
                                 quoted_strings_can_be_null=False))),
                         "o_orderstatus", "o_orderkey",
                         {"sum_cents": ("cents", "sum")})


CSV_ROUNDTRIP_SQL = """
SELECT o_orderstatus, COUNT(*)::BIGINT AS n,
       SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT))::BIGINT
         AS sum_cents,
       SUM(((o_orderkey % 2147483648) * 2654435761) % 4294967296)::BIGINT
         AS sum_hash
FROM orders GROUP BY o_orderstatus
"""


def orc_roundtrip_lineitem(sf_dir: str):
    """ORC sink + source roundtrip (``_io_roundtrip``), a format Ray Data
    can neither write nor read (ray 2.49 has no ``read_orc``): keyed
    pyarrow.orc blocks, rows on disk from the ORC footers, a zero-copy
    pyarrow.orc decode per blob; per-returnflag counts, quantity cents and
    key checksum."""
    from pyarrow import orc

    return _io_roundtrip(sf_dir, "lineitem",
                         ["l_orderkey", "l_returnflag", "l_quantity"],
                         _cents_projection("l_orderkey", "l_returnflag",
                                           "l_quantity", "qty"),
                         "orc",
                         _keyed_io("orc", orc.write_table,
                                   lambda p: orc.ORCFile(p).nrows,
                                   orc.read_table),
                         "l_returnflag", "l_orderkey",
                         {"sum_qty_cents": ("qty", "sum")})


ORC_ROUNDTRIP_SQL = """
SELECT l_returnflag, COUNT(*)::BIGINT AS n,
       SUM(CAST(FLOOR(l_quantity * 100 + 0.5) AS BIGINT))::BIGINT
         AS sum_qty_cents,
       SUM(((l_orderkey % 2147483648) * 2654435761) % 4294967296)::BIGINT
         AS sum_hash
FROM lineitem GROUP BY l_returnflag
"""


def _ipc_write(t: pa.Table, path: str) -> None:
    with pa.OSFile(path, "wb") as sink:
        with pa.ipc.new_file(sink, t.schema) as writer:
            writer.write_table(t)


def _ipc_nrows(path: str) -> int:
    with pa.memory_map(path, "r") as mm:
        r = pa.ipc.open_file(mm)
        return sum(r.get_batch(i).num_rows
                   for i in range(r.num_record_batches))


def ipc_roundtrip_orders(sf_dir: str):
    """Arrow IPC (Feather v2) sink + source roundtrip (``_io_roundtrip``):
    the zero-copy interchange format a Ray-native pipeline hands to other
    Arrow consumers (DuckDB, polars, another Ray job). Keyed ``.arrow``
    blocks, rows on disk summed over each file's record batches,
    ``pa.ipc.open_file`` over each blob's buffer (the batches alias it).
    Engine-new: the reference has no columnar-interchange IO (its services
    exchange JSON, e.g. detector_api/app/schemas/detector.py)."""
    return _io_roundtrip(sf_dir, "orders",
                         ["o_orderkey", "o_orderstatus", "o_totalprice"],
                         _cents_projection("o_orderkey", "o_orderstatus",
                                           "o_totalprice", "cents"),
                         "ipc",
                         _keyed_io("arrow", _ipc_write, _ipc_nrows,
                                   lambda buf: pa.ipc.open_file(buf).read_all()),
                         "o_orderstatus", "o_orderkey",
                         {"sum_price_cents": ("cents", "sum")})


IPC_ROUNDTRIP_SQL = """
SELECT o_orderstatus, COUNT(*)::BIGINT AS n,
       SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT))::BIGINT
         AS sum_price_cents,
       SUM(((o_orderkey % 2147483648) * 2654435761) % 4294967296)::BIGINT
         AS sum_hash
FROM orders GROUP BY o_orderstatus
"""


# ---------------------------------------------------------------------------
# Product-analytics shapes: co-occurrence pair mining, Markov transitions,
# retention cohorts. Each is a key-shuffle co-location (the key never
# spans buckets) + vectorized in-bucket pass + a bounded final exchange.
# ---------------------------------------------------------------------------


def _order_parts(batch: pa.Table) -> pa.Table:
    """(order, part) int64 rows of a lineitem block."""
    return pa.table({"o": batch["l_orderkey"].cast(pa.int64()),
                     "p": batch["l_partkey"].cast(pa.int64())})


def copurchase_parts(sf_dir: str, k: int = 20):
    """Market-basket co-occurrence: the k most frequent unordered part
    pairs appearing in the same order. Per-order pair expansion happens
    inside ``_key_shuffle`` buckets on the orderkey (pairs per order are
    quadratic in the ITEMS-PER-ORDER, which TPC-H bounds at 7 — total output
    stays linear in rows); pair counts then shuffle once more on the pair
    with per-bucket local top-k, so the driver merges buckets x k rows."""
    ds = _read_blocked(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def expand_pairs(df: pd.DataFrame) -> pd.DataFrame:
        d = df[["o", "p"]].drop_duplicates()
        m = d.merge(d, on="o")
        m = m[m.p_x < m.p_y]
        g = m.groupby(["p_x", "p_y"], sort=False).size().reset_index(name="n")
        return pd.DataFrame({"p1": g.p_x.to_numpy().astype(np.int64),
                             "p2": g.p_y.to_numpy().astype(np.int64),
                             "n": g.n.to_numpy().astype(np.int64)})

    def bucket_topk(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["p1", "p2"], sort=False).n.sum().reset_index()
        g = g.sort_values(["n", "p1", "p2"],
                          ascending=[False, True, True]).head(k)
        return g[["p1", "p2", "n"]]

    parts = _key_shuffle(_key_shuffle(ds, ["o"], expand_pairs, _order_parts),
                         ["p1", "p2"], bucket_topk).to_pandas()
    g = parts.sort_values(["n", "p1", "p2"], ascending=[False, True, True]).head(k)
    return pa.table({c: pa.array(g[c].to_numpy().astype(np.int64))
                     for c in ("p1", "p2", "n")})


COPURCHASE_SQL = """
WITH d AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
p AS (SELECT a.l_partkey AS p1, b.l_partkey AS p2
      FROM d a JOIN d b
        ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
c AS (SELECT p1, p2, COUNT(*)::BIGINT AS n FROM p GROUP BY p1, p2)
SELECT p1, p2, n FROM c ORDER BY n DESC, p1, p2 LIMIT 20
"""


TRIANGLE_BROADCAST_MAX_EDGES = 10_000_000  # 16 B/edge -> <=160 MB probe set


def triangle_count_parts(sf_dir: str, min_support: int = 2):
    """Global triangle count + transitivity over the SUPPORTED co-purchase
    graph (part pairs sharing >= ``min_support`` orders — the standard
    market-basket support threshold; the raw >=1 graph is a hairball whose
    wedge volume is all noise) — the classic graph-health statistic
    alongside PageRank and connected components. Exact, no caps (the
    oracle pays the same wedge volume).

    Shape: (1) distinct edges u<v via per-order pair expansion inside
    ``_key_shuffle`` buckets on the order + a distinct shuffle on the pair;
    (2) wedges AND degrees in ONE bucket pass on the center over symmetric
    edge copies —
    each center's run gives the full-degree C(d,2) wedge denominator and
    its oriented (neighbors > center) closure pairs, so no separate
    groupby("node") degree exchange exists; (3) closure probe: below
    TRIANGLE_BROADCAST_MAX_EDGES each wedge bucket probes a ray.put sorted
    composite-key array of the driver-resident edge list; above it a
    composite-key ``_key_shuffle`` join — either way only per-bucket COUNTS
    reach the driver. Composite keys are exact (u * 2^31 + v,
    guarded), never hashes — a hash collision would overcount closures."""
    import ray

    ds = _read_blocked(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def order_pairs(df: pd.DataFrame) -> pd.DataFrame:
        # per-bucket (pair, n_orders) partials: an order lives wholly in
        # one bucket, so summing partials over the pair shuffle gives each
        # pair's exact global order-support
        d = df[["o", "p"]].drop_duplicates()
        m = d.merge(d, on="o")
        m = m[m.p_x < m.p_y]
        g = m.groupby(["p_x", "p_y"], sort=False).size().reset_index(name="c")
        return pd.DataFrame({"u": g.p_x.to_numpy().astype(np.int64),
                             "v": g.p_y.to_numpy().astype(np.int64),
                             "c": g.c.to_numpy().astype(np.int64)})

    def edge_support(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["u", "v"], sort=False).c.sum().reset_index()
        return g.loc[g.c >= min_support, ["u", "v"]]

    edges = _key_shuffle(_key_shuffle(ds, ["o"], order_pairs, _order_parts),
                         ["u", "v"], edge_support)
    # an empty exchange hands on a typed empty table, not a Dataset
    n_edges = edges.count() if isinstance(edges, ray.data.Dataset) else 0
    if n_edges == 0:
        return pa.Table.from_pylist([{
            "n_edges": 0, "n_wedges": 0, "n_triangles": 0,
            "transitivity": 0.0}])

    def key_of(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        if u.size and (int(u.max()) >= (1 << 31) or int(v.max()) >= (1 << 31)
                       or int(min(u.min(), v.min())) < 0):
            raise ValueError("triangle_count: node id outside [0, 2^31) — "
                             "widen the composite probe key")
        return u * np.int64(1 << 31) + v

    # Wedge + degree pass, one exchange: edges are emitted SYMMETRICALLY
    # (both endpoints as "center"), bucketed on the center — a center's
    # full adjacency lands in one bucket, so the bucket kernel gets BOTH
    # the wedge denominator (full degree d -> C(d,2); replaces the old
    # groupby("node") aggregate + extra wedge-sum plan) and the oriented
    # closure pairs (neighbors > center only, so each triangle {a<b<c}
    # probes exactly once, at apex a) in a single run scan.
    def wedge_rows(c: np.ndarray, o: np.ndarray):
        """Shared bucket kernel core: (wedge denominator, probe pairs),
        the pairs of each center's oriented neighbor run
        (``graph.run_pairs``)."""
        order = np.lexsort((o, c))
        c, o = c[order], o[order]
        starts = np.flatnonzero(np.r_[True, c[1:] != c[:-1]])
        sizes = np.diff(np.r_[starts, c.size]).astype(np.float64)
        denom = float((sizes * (sizes - 1) / 2).sum())
        m = o > c  # oriented adjacency; run order and o-sortedness survive
        c2, o2 = c[m], o[m]
        i, j = run_pairs(c2)
        return denom, o2[i], o2[j]

    def tag_sym(batch: pa.Table) -> pa.Table:
        bu = batch["u"].to_numpy(zero_copy_only=False).astype(np.int64)
        bv = batch["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"c": pa.array(np.concatenate([bu, bv])),
                         "o": pa.array(np.concatenate([bv, bu]))})

    if n_edges <= TRIANGLE_BROADCAST_MAX_EDGES:
        # the edge list fits the driver: each wedge bucket probes a ray.put
        # sorted key array, and no closure join runs
        ep = edges.to_pandas()
        probe_ref = ray.put(np.sort(key_of(ep.u.to_numpy(np.int64),
                                           ep.v.to_numpy(np.int64))))

        def probe_bucket(df: pd.DataFrame) -> pd.DataFrame:
            denom, va, vb = wedge_rows(df.c.to_numpy(np.int64),
                                       df.o.to_numpy(np.int64))
            k = key_of(va, vb)
            pr = ray.get(probe_ref)
            closed = 0
            if k.size and pr.size:
                pos = np.searchsorted(pr, k)
                pos[pos >= pr.size] = pr.size - 1
                closed = int((pr[pos] == k).sum())
            return pd.DataFrame({"closed": [closed], "wed": [denom]})

        joined = _key_shuffle(edges, ["c"], probe_bucket, tag_sym).to_pandas()
    else:
        # at-scale path: one exchange on the center for wedges+degrees,
        # then the composite-key join probes closure — only per-bucket
        # COUNTS (plus the marker denominator rows) reach the driver
        def wedges_bucket(df: pd.DataFrame) -> pd.DataFrame:
            denom, va, vb = wedge_rows(df.c.to_numpy(np.int64),
                                       df.o.to_numpy(np.int64))
            k = key_of(va, vb)
            # marker row k=-1 carries the bucket's wedge denominator
            # (composite keys are always >= 0, so -1 cannot collide)
            return pd.DataFrame({
                "k": np.r_[k, np.int64(-1)],
                "wed": np.r_[np.zeros(k.size), denom]})

        bucketed = _key_shuffle(edges, ["c"], wedges_bucket, tag_sym)

        def tag_wedge(batch: pa.Table) -> pa.Table:
            k = batch["k"].to_numpy().astype(np.int64)
            return pa.table({"k": pa.array(k), "wed": batch["wed"],
                             "is_edge": pa.array(np.zeros(k.size, np.int8))})

        def tag_edge(batch: pa.Table) -> pa.Table:
            k = key_of(
                batch["u"].to_numpy(zero_copy_only=False).astype(np.int64),
                batch["v"].to_numpy(zero_copy_only=False).astype(np.int64))
            return pa.table({"k": pa.array(k),
                             "wed": pa.array(np.zeros(k.size, np.float64)),
                             "is_edge": pa.array(np.ones(k.size, np.int8))})

        def count_closed(df: pd.DataFrame) -> pd.DataFrame:
            wed = float(df.wed.sum())
            kk = df.k.to_numpy(np.int64)
            isedge = df.is_edge.to_numpy()
            real = kk >= 0
            ek = np.sort(kk[real & (isedge == 1)])
            wk = kk[real & (isedge == 0)]
            closed = 0
            if ek.size and wk.size:
                pos = np.searchsorted(ek, wk)
                pos[pos >= ek.size] = ek.size - 1
                closed = int((ek[pos] == wk).sum())
            return pd.DataFrame({"closed": pd.array([closed], dtype="int64"),
                                 "wed": [wed]})

        joined = _key_shuffle([bucketed, edges], ["k"], count_closed,
                              [tag_wedge, tag_edge]).to_pandas()
    n_tri = int(joined.closed.sum())
    n_wedges = float(joined.wed.sum())
    # under the u<v orientation each triangle {a<b<c} closes exactly ONE
    # wedge (apex a with pair (b, c)), so n_tri is the plain triangle count;
    # transitivity multiplies by 3 because the denominator counts wedges at
    # every apex of the UNDIRECTED graph (3 per triangle)
    trans = 0.0 if n_wedges == 0 else 3.0 * n_tri / n_wedges
    return pa.Table.from_pylist([{
        "n_edges": int(n_edges), "n_wedges": int(n_wedges),
        "n_triangles": int(n_tri),
        "transitivity": float(np.floor(trans * 1e6 + 0.5) / 1e6),
    }])


TRIANGLE_SQL = """
WITH d AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
e AS (SELECT a.l_partkey AS u, b.l_partkey AS v
      FROM d a JOIN d b
        ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
      GROUP BY 1, 2 HAVING COUNT(*) >= 2),
deg AS (SELECT node, COUNT(*)::DOUBLE AS dg
        FROM (SELECT u AS node FROM e UNION ALL SELECT v AS node FROM e)
        GROUP BY node),
w AS (SELECT SUM(dg * (dg - 1) / 2) AS wedges FROM deg),
tri AS (SELECT COUNT(*)::BIGINT AS t
        FROM e e1 JOIN e e2 ON e2.u = e1.u AND e2.v > e1.v
                  JOIN e e3 ON e3.u = e1.v AND e3.v = e2.v)
SELECT (SELECT COUNT(*) FROM e)::BIGINT AS n_edges,
       CAST(w.wedges AS BIGINT) AS n_wedges,
       tri.t AS n_triangles,
       CASE WHEN w.wedges = 0 THEN 0.0
            ELSE FLOOR(3.0 * tri.t / w.wedges * 1e6 + 0.5) / 1e6
       END AS transitivity
FROM w, tri
"""


def transition_counts_events(sf_dir: str):
    """First-order Markov transition counts over each user's event stream
    (the session-flow model fit). Users meet in ``_key_shuffle`` buckets
    (a user never spans one), each bucket sorts once by (user, ts,
    event_id) and shifts — the transition table is category-bounded
    (|types|^2), so the final merge is tiny. As in the twin's ``prev IS
    NOT NULL``, a step from a NULL type counts nowhere; a step to one is
    its own cell."""
    ds = _read_blocked(sf_dir, "events",
                       ["event_id", "user_id", "event_type", "ts"])

    def tag(batch: pa.Table) -> pa.Table:
        return pa.table({
            "u": batch["user_id"].cast(pa.int64()),
            "e": batch["event_id"].cast(pa.int64()),
            "et": batch["event_type"],
            "t": pa.array(batch["ts"].cast(pa.int64()).to_numpy())})

    def transitions(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["u", "t", "e"], kind="mergesort")
        prev_u = df.u.shift()
        prev_t = df.et.shift()
        keep = (prev_u == df.u) & prev_t.notna()
        sub = pd.DataFrame({"from_type": prev_t[keep],
                            "to_type": df.et[keep]})
        g = sub.groupby(["from_type", "to_type"], sort=False,
                        dropna=False).size()
        out = g.reset_index(name="n")
        out["n"] = out.n.astype(np.int64)
        return out

    # per-bucket partials are CATEGORY-bounded (<= |types|^2 rows each), so
    # the final merge is a driver pandas groupby — a second Ray exchange
    # here charged a full sort shuffle to sum a few hundred rows
    part = _key_shuffle(ds, ["u"], transitions, tag).to_pandas()
    out = part.groupby(["from_type", "to_type"], as_index=False,
                       dropna=False).n.sum()
    return pa.table({"from_type": pa.array(out.from_type, pa.string()),
                     "to_type": pa.array(out.to_type, pa.string()),
                     "n": pa.array(out.n.to_numpy(np.int64))})


TRANSITIONS_SQL = """
WITH s AS (
  SELECT user_id, event_type,
    LAG(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev
  FROM events)
SELECT prev AS from_type, event_type AS to_type, COUNT(*)::BIGINT AS n
FROM s WHERE prev IS NOT NULL GROUP BY prev, event_type
"""


def _monday_str(ts_us: np.ndarray) -> np.ndarray:
    """Vectorized DATE_TRUNC('week') -> 'YYYY-MM-DD' string (Monday start,
    matching DuckDB; epoch day 0 = Thursday, so Monday offset = (d+3) % 7)."""
    days = ts_us // 86_400_000_000
    monday = days - ((days + 3) % 7)
    dates = monday.astype("datetime64[D]")
    return np.datetime_as_string(dates, unit="D")


def retention_cohorts_events(sf_dir: str):
    """Retention cohort matrix: users bucketed by first-seen week (cohort),
    counted once per (cohort week, activity week). Users meet in
    ``_key_shuffle`` buckets, so first-seen AND the per-user distinct
    activity weeks resolve inside one bucket pass; the final merge is the
    weeks x weeks count table."""
    ds = _read_blocked(sf_dir, "events", ["user_id", "ts"])

    def tag(batch: pa.Table) -> pa.Table:
        return pa.table({
            "u": batch["user_id"].cast(pa.int64()),
            "t": pa.array(batch["ts"].cast(pa.int64()).to_numpy())})

    def cohortize(df: pd.DataFrame) -> pd.DataFrame:
        t = df.t.to_numpy()
        week = _monday_str(t)
        d = pd.DataFrame({"u": df.u.to_numpy(), "aw": week}).drop_duplicates()
        first = df.groupby("u", sort=False).t.min()
        cw = pd.Series(_monday_str(first.to_numpy()), index=first.index)
        d["cw"] = d.u.map(cw)
        g = d.groupby(["cw", "aw"], sort=False).size().reset_index(name="n")
        g["n"] = g.n.astype(np.int64)
        return g

    # per-bucket partials are bounded by weeks x weeks (calendar-bounded,
    # not row-bounded): merge on the driver instead of a second exchange
    part = _key_shuffle(ds, ["u"], cohortize, tag).to_pandas()
    out = part.groupby(["cw", "aw"], as_index=False).n.sum()
    return pa.table({"cohort_week": pa.array(out.cw, pa.string()),
                     "activity_week": pa.array(out.aw, pa.string()),
                     "n": pa.array(out.n.to_numpy(np.int64))})


RETENTION_SQL = """
WITH f AS (SELECT user_id, DATE_TRUNC('week', MIN(ts)) AS cw
           FROM events GROUP BY user_id),
a AS (SELECT DISTINCT user_id, DATE_TRUNC('week', ts) AS aw FROM events),
j AS (SELECT f.cw, a.aw, COUNT(*)::BIGINT AS n
      FROM f JOIN a USING (user_id) GROUP BY f.cw, a.aw)
SELECT strftime(cw, '%Y-%m-%d') AS cohort_week,
       strftime(aw, '%Y-%m-%d') AS activity_week, n
FROM j
"""


# ---------------------------------------------------------------------------
# Declarative expectation suite — the Great-Expectations-style surface: a
# config list of named row-level predicates, ALL evaluated in ONE streaming
# pass of vectorized per-block pass-counts (adding an expectation adds a
# numpy lambda + an SQL predicate string, nothing else).
# ---------------------------------------------------------------------------

ORDERS_EXPECTATIONS = [
    ("orderkey_not_null",
     lambda b: pc.is_valid(b["o_orderkey"]).to_numpy(zero_copy_only=False),
     "o_orderkey IS NOT NULL"),
    ("totalprice_in_range",
     lambda b: ((b["o_totalprice"].to_numpy() > 0.0)
                & (b["o_totalprice"].to_numpy() <= 1e7)),
     "o_totalprice > 0.0 AND o_totalprice <= 1e7"),
    ("status_in_domain",
     lambda b: np.isin(b["o_orderstatus"].to_numpy(zero_copy_only=False),
                       np.array(["O", "F", "P"], dtype=object)),
     "o_orderstatus IN ('O', 'F', 'P')"),
    ("orderdate_in_window",
     lambda b: ((b["o_orderdate"].cast(pa.int64()).to_numpy()
                 >= np.datetime64("1990-01-01", "us").astype(np.int64))
                & (b["o_orderdate"].cast(pa.int64()).to_numpy()
                   < np.datetime64("2005-01-01", "us").astype(np.int64))),
     "o_orderdate >= TIMESTAMP '1990-01-01' "
     "AND o_orderdate < TIMESTAMP '2005-01-01'"),
]


def expectation_suite_orders(sf_dir: str):
    """Evaluate the ORDERS_EXPECTATIONS suite in one scan: each expectation
    is a per-row pass indicator, melted to (expectation, pass) rows and
    folded per expectation (|suite| groups). success requires a perfect
    pass rate."""
    names = [name for name, _, _ in ORDERS_EXPECTATIONS]

    def melt(batch: pa.Table) -> pa.Table:
        return pa.table({
            "expectation": pa.array(np.repeat(names, batch.num_rows)),
            "p": np.concatenate([np.asarray(pred(batch), np.int64)
                                 for _, pred, _ in ORDERS_EXPECTATIONS])})

    out = _group_fold(_read_blocked(
        sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderstatus",
                           "o_orderdate"]),
        ["expectation"], {"n_pass": ("p", "sum"), "n": (None, "count_all")},
        melt).to_pandas()
    out["pass_rate"] = np.floor(out.n_pass * 1e6 / out.n + 0.5) / 1e6
    out["success"] = out.n_pass == out.n
    return _pa_from_pandas(out, preserve_index=False)


def _expectation_sql() -> str:
    blocks = []
    for name, _, sql_pred in ORDERS_EXPECTATIONS:
        blocks.append(f"""
SELECT '{name}' AS expectation,
       SUM(CASE WHEN {sql_pred} THEN 1 ELSE 0 END)::BIGINT AS n_pass,
       COUNT(*)::BIGINT AS n,
       FLOOR(SUM(CASE WHEN {sql_pred} THEN 1 ELSE 0 END) * 1e6
             / COUNT(*) + 0.5) / 1e6 AS pass_rate,
       SUM(CASE WHEN {sql_pred} THEN 1 ELSE 0 END) = COUNT(*) AS success
FROM orders""")
    return "\nUNION ALL\n".join(blocks)


EXPECTATION_SUITE_SQL = _expectation_sql()


# ---------------------------------------------------------------------------
# Exact distributed quantiles by iterative range refinement — the at-scale
# EXACT path (t-digest is approximate; the driver-sort variant is gated).
# Each round one streaming pass histograms only the still-candidate value
# range per target (256 bins), the driver narrows each target's range from
# the tiny (targets x bins) count table, and the final pass collects only
# the few values left inside the narrowed ranges. log_256(range) rounds,
# O(targets x bins) driver state, never more than COLLECT_CAP raw values
# on the driver.
# ---------------------------------------------------------------------------

QREFINE_BINS = 256
QREFINE_COLLECT_CAP = 65536  # per-target DISTINCT-value budget for the final pass
QREFINE_MAX_ROUNDS = 8


def _refined_quantiles(sf_dir: str, table: str, col: str,
                       gcol: str | None, qs: tuple,
                       values_fn=None, bounds: tuple | None = None,
                       rank_fn=None, counts_out: dict | None = None):
    """Shared exact-quantile engine: iterative 256-bin range refinement
    with one (group, q) target per requested quantile (group = "" when
    ``gcol`` is None). Round 1 histograms the FULL value range PER GROUP,
    which discovers the groups AND their row counts in the same scan that
    starts the refinement — no separate counting pass. Later rounds
    histogram only each target's still-candidate range; the final pass
    collects (distinct value, count) partials inside the padded ranges and
    recomputes the below-rank offset exactly with the same comparison the
    mask uses, so float bin-boundary placement can never silently pick the
    wrong element (loud guard otherwise). Returns [(group, q, value)].

    ``values_fn(batch) -> np.ndarray`` swaps in a DERIVED value column
    (e.g. |value - per-group-median| for MAD) — it must be row-aligned
    with the batch; ``bounds`` then supplies the value range the footer
    stats can't know."""
    cols = [col] if gcol is None else [gcol, col]
    # blocked read: every refinement round re-executes this dataset, so the
    # per-block fixed cost is paid rounds+2 times — track data, not CPUs
    ds = _read_blocked(sf_dir, table, cols)
    B = QREFINE_BINS
    vals_of = values_fn or (lambda b: b[col].to_numpy())
    if bounds is not None:
        vmin, vmax = float(bounds[0]), float(bounds[1])
    else:
        vmin, vmax = _footer_minmax(sf_dir, table, col)

    # ---- round 1: full-range histogram per group == discovery + counts ----
    w0 = (vmax - vmin) / B

    def first_partial(batch: pa.Table) -> pa.Table:
        v = vals_of(batch)
        if not v.size:  # zero-row block: mirror hist_partial's empty guard
            return pa.table({"g": pa.array([], pa.string()),
                             "b": pa.array([], pa.int64()),
                             "c": pa.array([], pa.int64())})
        gv = (batch[gcol].to_numpy(zero_copy_only=False) if gcol
              else np.full(v.size, "", dtype=object))
        idx = np.minimum(((v - vmin) / max(w0, 1e-300)).astype(np.int64),
                         B - 1)
        gs, bins, cnts = [], [], []
        for g in pd.unique(gv):  # NULL (None) is a group of its own
            c = np.bincount(idx[gv == g], minlength=B)
            nz = np.nonzero(c)[0]
            gs.append(np.full(nz.size, g, dtype=object))
            bins.append(nz.astype(np.int64))
            cnts.append(c[nz].astype(np.int64))
        return pa.table({"g": pa.array(np.concatenate(gs), pa.string()),
                         "b": pa.array(np.concatenate(bins)),
                         "c": pa.array(np.concatenate(cnts))})

    first = ds.map_batches(first_partial, batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    groups = sorted(first.g.drop_duplicates(), key=lambda g: (g is None, g))
    hist0 = {}
    for g in groups:
        sub = first[first.g.isna() if g is None else first.g == g]
        hist0[g] = np.bincount(sub.b.to_numpy(), weights=sub.c.to_numpy(),
                               minlength=B).astype(np.int64)
    counts = {g: int(hist0[g].sum()) for g in groups}
    if counts_out is not None:
        # expose the SCAN-derived group counts (the same n the ranks use)
        # so callers computing rank-derived quantities (quantiles_cont's
        # interpolation fraction) share one authority with the elements
        counts_out.update(counts)

    targets = [(g, q) for g in groups for q in qs]
    T = len(targets)
    # rank_fn(q, n) -> 1-based target rank; q is passed through verbatim
    # (it may be a richer tag, e.g. quantiles_cont's ("lo"|"hi", q) pairs —
    # the engine only ever hands it to rank_fn and back to the caller).
    # Default is QUANTILE_DISC semantics (ceil(q*n)).
    if rank_fn is None:
        def rank_fn(q, n):
            return max(int(np.ceil(q * n)), 1)
    ranks = np.array([min(max(int(rank_fn(q, counts[g])), 1), counts[g])
                      for g, q in targets], np.int64)
    tgt_group = np.array([g for g, _ in targets], dtype=object)
    lo = np.full(T, vmin)
    hi = np.full(T, vmax)
    offset = np.zeros(T, np.int64)

    def narrow(i: int, full: np.ndarray) -> int:
        """Pick the target's bin from its current-range histogram; returns
        the in-bin count. Clamp: float boundary misplacement can push
        rank - offset past cum[-1] by a whisker; the final pass recomputes
        the offset exactly, so landing in the last bin is always safe."""
        cum = np.cumsum(full)
        k = min(int(np.searchsorted(cum, ranks[i] - offset[i])), B - 1)
        offset[i] += int(cum[k - 1]) if k > 0 else 0
        w = (hi[i] - lo[i]) / B
        new_lo = lo[i] + k * w
        new_hi = hi[i] if k == B - 1 else lo[i] + (k + 1) * w
        lo[i], hi[i] = new_lo, new_hi
        return int(full[k])

    done = True
    for i, (g, _) in enumerate(targets):
        if narrow(i, hist0[g]) > QREFINE_COLLECT_CAP and lo[i] < hi[i]:
            done = False

    for _ in range(QREFINE_MAX_ROUNDS - 1):
        if done:
            break
        live = np.nonzero(lo < hi)[0]
        if live.size == 0:
            break
        lo_l, hi_l = lo[live].copy(), hi[live].copy()
        grp_l = tgt_group[live].copy()
        width = (hi_l - lo_l) / B

        def hist_partial(batch: pa.Table, lo_=lo_l, hi_=hi_l, w_=width,
                         gl=grp_l) -> pa.Table:
            v = vals_of(batch)
            gv = (batch[gcol].to_numpy(zero_copy_only=False) if gcol
                  else np.full(v.size, "", dtype=object))
            ts, bins, cnts = [], [], []
            for i in range(lo_.size):
                m = (v >= lo_[i]) & (v <= hi_[i])
                if gcol:
                    m &= gv == gl[i]
                if not m.any():
                    continue
                idx = np.minimum(((v[m] - lo_[i]) / w_[i]).astype(np.int64),
                                 B - 1)
                c = np.bincount(idx, minlength=B)
                nz = np.nonzero(c)[0]
                ts.append(np.full(nz.size, i, np.int64))
                bins.append(nz.astype(np.int64))
                cnts.append(c[nz].astype(np.int64))
            if not ts:
                return pa.table({"t": pa.array([], pa.int64()),
                                 "b": pa.array([], pa.int64()),
                                 "c": pa.array([], pa.int64())})
            return pa.table({"t": pa.array(np.concatenate(ts)),
                             "b": pa.array(np.concatenate(bins)),
                             "c": pa.array(np.concatenate(cnts))})

        # partials are metadata-sized (<= blocks x nonzero bins); merge on
        # the driver — a Ray groupby would charge ~2 ms/group per round
        cdf = ds.map_batches(hist_partial, batch_format="pyarrow",
                             zero_copy_batch=True).to_pandas()
        done = True
        for j, i in enumerate(live):
            sub = cdf[cdf.t == j]
            full = np.bincount(sub.b.to_numpy(), weights=sub.c.to_numpy(),
                               minlength=B).astype(np.int64)
            if narrow(i, full) > QREFINE_COLLECT_CAP and lo[i] < hi[i]:
                done = False

    # ---- final bounded collect. Float rounding in floor((v-lo)/w) can
    # place a boundary-exact value one bin off, so (a) the collect range
    # expands by one bin width each side — the true element is then
    # guaranteed inside — and (b) the rank offset is recomputed EXACTLY
    # here with the identical `<` comparison, discarding the histogram's
    # approximate bookkeeping. (value, count) partials: duplicate-heavy
    # columns ship one row per DISTINCT in-range value per block.
    pad = (hi - lo) / B
    lo_f, hi_f = lo - pad, hi + pad

    def collect_partial(batch: pa.Table) -> pa.Table:
        v = vals_of(batch)
        gv = (batch[gcol].to_numpy(zero_copy_only=False) if gcol
              else np.full(v.size, "", dtype=object))
        ts, vals, cnts, blw = [], [], [], []
        for i in range(T):
            gm = (gv == tgt_group[i]) if gcol else np.ones(v.size, bool)
            m = gm & (v >= lo_f[i]) & (v <= hi_f[i])
            if m.any():
                u, c = np.unique(v[m], return_counts=True)
                ts.append(np.full(u.size, i, np.int64))
                vals.append(u)
                cnts.append(c.astype(np.int64))
            blw.append(int((gm & (v < lo_f[i])).sum()))
        below = pa.table({"t": pa.array(np.arange(T)),
                          "v": pa.array(np.full(T, np.nan)),
                          "c": pa.array(np.zeros(T, np.int64)),
                          "below": pa.array(np.asarray(blw, np.int64))})
        if not ts:
            return below
        data = pa.table({"t": pa.array(np.concatenate(ts)),
                         "v": pa.array(np.concatenate(vals)),
                         "c": pa.array(np.concatenate(cnts)),
                         "below": pa.array(
                             np.zeros(sum(len(x) for x in vals), np.int64))})
        return pa.concat_tables([data, below])

    rem = ds.map_batches(collect_partial, batch_format="pyarrow",
                         zero_copy_batch=True).to_pandas()
    out = []
    for i, (g, q) in enumerate(targets):
        sub = rem[rem.t == i]
        below = int(sub.below.sum())
        vs = sub[~np.isnan(sub.v.to_numpy())]
        agg = vs.groupby("v", sort=True).c.sum()
        need = ranks[i] - below
        if need <= 0 or need > int(agg.sum()):
            # pad + exact below-count make this unreachable; fail loudly
            # rather than silently index the wrong element
            raise RuntimeError(
                f"quantile refinement rank out of range (group={g!r}, "
                f"q={q}, need={need}, in_range={int(agg.sum())})")
        cumv = agg.cumsum().to_numpy()
        out.append((g, q, float(agg.index.to_numpy()[
            int(np.searchsorted(cumv, need))])))
    return out


def mad_outliers_events(sf_dir: str, k: float = 3.0):
    """Robust per-type outlier audit: EXACT median and MAD (median absolute
    deviation, the robust scale immune to the outliers it hunts — Tukey
    fences and z-scores both move with the contamination) and the count of
    rows with |value - median| > k * 1.4826 * MAD (1.4826 = the normal
    consistency constant).

    Three bounded passes, all through the shared refinement engine so the
    medians are exact data elements at ANY scale (bit-identical to the
    oracle's quantile_disc — no float-computation drift in the thresholds):
    (1) per-type median of value; (2) per-type median of the DERIVED
    |value - median| column (values_fn + computed bounds — footer stats
    can't know the deviation range); (3) one scan of per-block outlier
    count partials against the broadcast thresholds."""
    med_rows = _refined_quantiles(sf_dir, "events", "value", "event_type",
                                  (0.5,))
    med = {g: v for g, _, v in med_rows}
    vmin, vmax = _footer_minmax(sf_dir, "events", "value")
    dmax = max(max(vmax - m, m - vmin) for m in med.values())

    def absdev(batch: pa.Table) -> np.ndarray:
        v = batch["value"].to_numpy()
        g = pd.Series(batch["event_type"].to_numpy(zero_copy_only=False))
        return np.abs(v - g.map(med).to_numpy(np.float64))

    mad_rows = _refined_quantiles(sf_dir, "events", "value", "event_type",
                                  (0.5,), values_fn=absdev,
                                  bounds=(0.0, dmax))
    mad = {g: v for g, _, v in mad_rows}
    thr = {g: k * 1.4826 * mad[g] for g in mad}

    def outliers(batch: pa.Table) -> pa.Table:
        g = pd.Series(batch["event_type"].to_numpy(zero_copy_only=False))
        d = absdev(batch)
        return pa.table({"event_type": batch["event_type"],
                         "o": (d > g.map(thr).to_numpy(np.float64)).astype(np.int64)})

    df = _group_fold(_read_blocked(sf_dir, "events", ["event_type", "value"]),
                     ["event_type"], {"n": (None, "count_all"),
                                      "n_outliers": ("o", "sum")}, outliers)
    # the oracle joins the per-type medians back USING (event_type), which
    # no NULL type matches
    df = df.filter(pc.is_valid(df["event_type"])).to_pandas()
    types = df.event_type.to_numpy(dtype=object)
    return pa.table({
        "event_type": pa.array(types, pa.string()),
        "n": pa.array(df.n.to_numpy(np.int64)),
        "median": pa.array(_round(np.array([med[t] for t in types]), 4)),
        "mad": pa.array(_round(np.array([mad[t] for t in types]), 4)),
        "n_outliers": pa.array(df.n_outliers.to_numpy(np.int64)),
    })


MAD_OUTLIERS_SQL = """
WITH med AS (
  SELECT event_type, quantile_disc(value, 0.5) AS med
  FROM events GROUP BY 1),
dev AS (
  SELECT e.event_type, e.value, m.med, ABS(e.value - m.med) AS d
  FROM events e JOIN med m USING (event_type)),
mad AS (SELECT event_type, quantile_disc(d, 0.5) AS mad FROM dev GROUP BY 1)
SELECT dev.event_type, COUNT(*)::BIGINT AS n,
  FLOOR(ANY_VALUE(dev.med) * 10000 + 0.5) / 10000 AS median,
  FLOOR(ANY_VALUE(mad.mad) * 10000 + 0.5) / 10000 AS mad,
  SUM(CASE WHEN dev.d > 3.0 * 1.4826 * mad.mad THEN 1 ELSE 0 END)::BIGINT
    AS n_outliers
FROM dev JOIN mad USING (event_type)
GROUP BY dev.event_type
"""


def quantiles_exact_refine(sf_dir: str, table: str = "lineitem",
                           col: str = "l_extendedprice",
                           qs: tuple = (0.25, 0.5, 0.75, 0.95)):
    """quantile_disc-exact quantiles without a driver sort at any scale —
    thin wrapper over the shared refinement engine (one constant group)."""
    rows = _refined_quantiles(sf_dir, table, col, None, qs)
    return pa.table({
        "q": pa.array([q for _, q, _ in rows], pa.float64()),
        "value": pa.array(_round(np.asarray([v for _, _, v in rows]), 4))})

QREFINE_SQL = """
SELECT 0.25 AS q, FLOOR(quantile_disc(l_extendedprice, 0.25)*10000+0.5)/10000 AS value FROM lineitem
UNION ALL
SELECT 0.5, FLOOR(quantile_disc(l_extendedprice, 0.5)*10000+0.5)/10000 FROM lineitem
UNION ALL
SELECT 0.75, FLOOR(quantile_disc(l_extendedprice, 0.75)*10000+0.5)/10000 FROM lineitem
UNION ALL
SELECT 0.95, FLOOR(quantile_disc(l_extendedprice, 0.95)*10000+0.5)/10000 FROM lineitem
"""


def quantiles_cont_lineitem(sf_dir: str, qs: tuple = (0.25, 0.5, 0.75, 0.95)):
    """PERCENTILE_CONT (linearly interpolated) quantiles without a driver
    sort at any scale: ONE refinement-engine pass fetches the two EXACT
    data elements per q at ranks floor((n-1)*q)+1 and ceil((n-1)*q)+1
    (tagged ("lo"|"hi", q) targets — the engine refines all 2|qs| ranks in
    the same scans), and the interpolation x_lo + frac*(x_hi - x_lo) runs
    with the IDENTICAL float expression the oracle SQL spells out. Both
    the ranks AND frac's n come from the engine's scan-derived count —
    one authority, so a null-bearing column can't silently skew frac
    against the picked elements."""

    def rank_fn(tag, cnt):
        kind, q = tag
        h = (cnt - 1) * q
        return (int(np.floor(h)) if kind == "lo" else int(np.ceil(h))) + 1

    tags = tuple(("lo", q) for q in qs) + tuple(("hi", q) for q in qs)
    counts: dict = {}
    rows = _refined_quantiles(sf_dir, "lineitem", "l_extendedprice", None,
                              tags, rank_fn=rank_fn, counts_out=counts)
    val = {tag: v for _, tag, v in rows}
    n = counts[""]
    out_q, out_v = [], []
    for q in qs:
        h = (n - 1) * q
        frac = h - np.floor(h)
        out_q.append(q)
        out_v.append(val[("lo", q)] + frac * (val[("hi", q)] - val[("lo", q)]))
    return pa.table({"q": pa.array(out_q, pa.float64()),
                     "value": pa.array(_round(np.asarray(out_v), 4))})


QCONT_SQL = """
WITH n AS (SELECT COUNT(*)::DOUBLE AS c FROM lineitem),
r AS (SELECT l_extendedprice AS x,
             ROW_NUMBER() OVER (ORDER BY l_extendedprice) AS rn
      FROM lineitem),
qq(q) AS (VALUES (0.25), (0.5), (0.75), (0.95)),
h AS (SELECT q, (c-1)*q AS h,
             FLOOR((c-1)*q)+1 AS lo_rn, CEIL((c-1)*q)+1 AS hi_rn
      FROM qq, n),
v AS (SELECT h.q,
             MAX(CASE WHEN r.rn = h.lo_rn THEN r.x END) AS xlo,
             MAX(CASE WHEN r.rn = h.hi_rn THEN r.x END) AS xhi,
             ANY_VALUE(h.h - FLOOR(h.h)) AS frac
      FROM h JOIN r ON r.rn = h.lo_rn OR r.rn = h.hi_rn
      GROUP BY h.q)
SELECT q, FLOOR((xlo + frac*(xhi - xlo))*10000+0.5)/10000 AS value FROM v
"""


def grouped_quantiles_exact(sf_dir: str, qs: tuple = (0.5, 0.95)):
    """Per-group exact quantiles at any scale over l_returnflag — the same
    shared refinement engine with one (group, q) target per group; group
    discovery and counts fold into round 1's full-range histogram scan."""
    rows = _refined_quantiles(sf_dir, "lineitem", "l_extendedprice",
                              "l_returnflag", qs)
    return pa.table({
        "l_returnflag": pa.array([g for g, _, _ in rows], pa.string()),
        "q": pa.array([q for _, q, _ in rows], pa.float64()),
        "value": pa.array(_round(np.asarray([v for _, _, v in rows]), 4))})

GROUPED_QEXACT_SQL = """
SELECT l_returnflag, 0.5 AS q,
       FLOOR(quantile_disc(l_extendedprice, 0.5)*10000+0.5)/10000 AS value
FROM lineitem GROUP BY l_returnflag
UNION ALL
SELECT l_returnflag, 0.95,
       FLOOR(quantile_disc(l_extendedprice, 0.95)*10000+0.5)/10000
FROM lineitem GROUP BY l_returnflag
"""


def overlap_estimate_orders_customers(sf_dir: str):
    """HLL set-overlap estimate between the orders' customer keys and the
    customer table's keys — the sketch answer to "what fraction of the FK
    domain is live" that needs NO join and NO shuffle at any scale: each
    side folds to 4 KB of registers via per-block partials; union comes
    from a register max; intersection by inclusion-exclusion.
    ``est_pk_coverage`` = intersection / |PK| (fraction of customers with
    at least one order). Rows-only (estimates); error bounds pinned in
    tests."""
    from ..functions.hashing import hash64
    from ..state.sketches import HyperLogLog

    def side(table: str, col: str) -> HyperLogLog:
        ds = _read_blocked(sf_dir, table, [col])

        def partial(batch: pa.Table) -> pa.Table:
            h = HyperLogLog()
            h.update_hashes(hash64(batch[col].to_numpy().astype(np.int64)
                                   ).astype(np.uint64))
            return pa.table({"regs": pa.array([h.registers.tobytes()],
                                              pa.binary())})

        acc = HyperLogLog()
        for blob in ds.map_batches(partial, batch_format="pyarrow",
                                   zero_copy_batch=True).to_pandas().regs:
            other = HyperLogLog()
            other.registers = np.frombuffer(blob, np.uint8).copy()
            acc.merge(other)
        return acc

    a = side("orders", "o_custkey")
    b = side("customer", "c_custkey")
    na, nb = a.estimate(), b.estimate()
    u = HyperLogLog()
    u.merge(a).merge(b)
    nu = u.estimate()
    inter = max(na + nb - nu, 0.0)
    return pa.table({
        "distinct_fk": pa.array([float(_round(na, 1))]),
        "distinct_pk": pa.array([float(_round(nb, 1))]),
        "distinct_union": pa.array([float(_round(nu, 1))]),
        "est_intersection": pa.array([float(_round(inter, 1))]),
        "est_pk_coverage": pa.array(
            [float(_round(inter / max(nb, 1.0), 4))])})
