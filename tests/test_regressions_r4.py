"""Regression tests for the round-4 advice fixes (ADVICE.md r3→r4).

Each test pins a specific hardening that landed this round:
  * ``_footer_minmax`` raises a clear ValueError (naming table + column)
    when a parquet row group lacks min/max statistics, instead of a
    confusing ``AttributeError`` deep inside the quantile engine.
  * ``write_plots`` refuses to sum histogram counts across partition
    stats blobs whose (lo, hi, bins) configs disagree — a stale or
    mixed-run blob directory must fail loudly, not render a wrong
    run-wide marginal.
  * the ORC and IPC roundtrips' staged caches cross-check rows ON DISK
    (file footers) against the source row count, so a lost or collided
    block file surfaces as a RuntimeError instead of silently diverging
    from the oracle; their content-keyed sink rewrites the same files
    when run twice.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from conftest import _schema_changes

SF_DIR = "/root/testdata/sf0.001"


def test_footer_minmax_missing_statistics_raises(tmp_path):
    from serverless_covariate_drift_detection_ray.pipelines.queries import _footer_minmax

    t = pa.table({"x": pa.array(np.arange(100, dtype=np.int64))})
    pq.write_table(t, str(tmp_path / "t.parquet"), write_statistics=False)
    with pytest.raises(ValueError, match=r"t\.parquet.*'x'.*statistics"):
        _footer_minmax(str(tmp_path), "t", "x")
    # sanity: the same file WITH statistics resolves the true range
    pq.write_table(t, str(tmp_path / "t.parquet"))
    assert _footer_minmax(str(tmp_path), "t", "x") == (0.0, 99.0)


def test_write_plots_rejects_mixed_histogram_configs(tmp_path):
    from serverless_covariate_drift_detection_ray.pipelines.plots import write_plots
    from serverless_covariate_drift_detection_ray.state.partials import PartialState

    out_dir = str(tmp_path / "out")
    blob_dir = os.path.join(out_dir, "stats_blobs")
    os.makedirs(blob_dir)
    a = PartialState({"w": (0.0, 100.0, 8)}, fmt_categories=("png",))
    a.update_numeric("w", np.array([1.0, 50.0]))
    b = PartialState({"w": (0.0, 200.0, 8)}, fmt_categories=("png",))  # other range
    b.update_numeric("w", np.array([150.0]))
    for name, st in (("p0.bin", a), ("p1.bin", b)):
        with open(os.path.join(blob_dir, name), "wb") as fh:
            fh.write(st.to_bytes())
    with pytest.raises(ValueError, match="incompatible histogram config"):
        write_plots(out_dir)
    # compatible blobs render fine (and produce the histogram SVG)
    with open(os.path.join(blob_dir, "p1.bin"), "wb") as fh:
        fh.write(a.to_bytes())
    written = write_plots(out_dir)
    assert any(p.endswith("hist_w.svg") for p in written)


def test_uniqueness_dup_fold_gate_parity(ray_session, caplog):
    """The PK-uniqueness Dataset path (one key shuffle on image_id) must
    emit exactly what the driver table path (id-hash screen + driver fold)
    emits: one row per duplicated KEY, observed = exact global count,
    partition_id = min locus; the shuffle logs no block schema change."""
    import ray.data

    from serverless_covariate_drift_detection_ray.stages import constraints as C

    ids = (["dup-a"] * 3 + ["dup-b"] * 2 + [f"u{i}" for i in range(40)]
           + [None, None])
    parts = [3, 1, 2, 0, 2] + [i % 4 for i in range(40)] + [1, 2]
    t = pa.table({"image_id": pa.array(ids, pa.string()),
                  "partition_id": pa.array(parts, pa.int32())})
    ds = ray.data.from_arrow(t).repartition(5).materialize()

    def ordered(df):
        return (df.sort_values("image_id").reset_index(drop=True)
                if len(df) else df)

    fold = ordered(C.check_uniqueness(t).to_pandas())
    out = []
    changes = _schema_changes(
        caplog, lambda: out.append(C.check_uniqueness(ds).to_pandas()))
    shuffled = ordered(out[0])
    assert list(fold.image_id) == ["dup-a", "dup-b"]
    assert list(fold.observed) == ["3", "2"]
    assert list(fold.partition_id) == [1, 0]  # min partition locus
    pd.testing.assert_frame_equal(fold, shuffled)
    assert not changes, changes


@pytest.mark.parametrize("ids,dups", [([], []), ([None, None], []),
                                      (["a", "a", "b"], ["a"])],
                         ids=["empty", "all_null", "empty_blocks"])
def test_uniqueness_on_sparse_blocks(ray_session, ids, dups):
    """A table with no non-null image_id has no PK duplicate, and 0-row
    blocks (more blocks than rows, some without a schema) must not break
    the key shuffle: it types an empty result from VIOLATION_SCHEMA."""
    import ray.data

    from serverless_covariate_drift_detection_ray.stages import constraints as C

    t = pa.table({"image_id": pa.array(ids, pa.string()),
                  "partition_id": pa.array(range(len(ids)), pa.int32())})
    ds = ray.data.from_arrow(t).repartition(6).materialize()
    assert [r["image_id"] for r in C.check_uniqueness(ds).take_all()] == dups


@pytest.mark.parametrize("fmt", ["orc", "ipc"])
def test_orc_roundtrip_detects_rows_lost_on_disk(ray_session, fmt):
    from serverless_covariate_drift_detection_ray.pipelines import queries
    from serverless_covariate_drift_detection_ray.pipelines.config import (
        scratch_root)

    run, table, ext = {
        "orc": (queries.orc_roundtrip_lineitem, "lineitem", ".orc"),
        "ipc": (queries.ipc_roundtrip_orders, "orders", ".arrow")}[fmt]
    st = os.stat(f"{SF_DIR}/{table}.parquet")
    out_dir = (f"{scratch_root()}/scdd_{fmt}/sf0.001/"
               f"{table}_{st.st_size}_{st.st_mtime_ns}")
    try:
        run(SF_DIR)  # populates + passes the cross-check
        block_files = sorted(f for f in os.listdir(out_dir) if f.endswith(ext))
        assert block_files, "staged dir should hold at least one block file"
        os.remove(os.path.join(out_dir, block_files[0]))  # a lost block
        with pytest.raises(RuntimeError, match="rows on disk"):
            run(SF_DIR)
    finally:
        # leave no poisoned cache behind: the next caller must rebuild
        shutil.rmtree(out_dir, ignore_errors=True)


@pytest.mark.parametrize("ext", ["orc", "arrow"])
def test_keyed_blocks_rewrite_is_idempotent(ray_session, tmp_path, ext):
    """The content-keyed ORC/IPC sink run twice over the same dataset into
    one directory (a retried write) rewrites the same files: the same name
    set, no extra files (no duplicate blocks, no stray .tmp), and the rows
    on disk equal the source row count."""
    from pyarrow import orc

    from serverless_covariate_drift_detection_ray.pipelines import queries

    write_table, nrows = {
        "orc": (orc.write_table, lambda p: orc.ORCFile(p).nrows),
        "arrow": (queries._ipc_write, queries._ipc_nrows)}[ext]
    ds = queries._read_blocked(SF_DIR, "orders",
                               ["o_orderkey", "o_orderstatus"])
    out = str(tmp_path / "blocks")
    os.makedirs(out)
    queries._write_keyed_blocks(ds, out, "o_orderkey", ext, write_table)
    first = sorted(os.listdir(out))
    queries._write_keyed_blocks(ds, out, "o_orderkey", ext, write_table)
    second = sorted(os.listdir(out))
    assert len(first) > 1
    assert second == first
    assert all(f.startswith("part-") and f.endswith(f".{ext}")
               for f in second)
    src_rows = pq.ParquetFile(f"{SF_DIR}/orders.parquet").metadata.num_rows
    assert sum(nrows(os.path.join(out, f)) for f in second) == src_rows
