"""Fragment-addressable table layout (sources/fragmented.py): compaction,
clustering, zone-map pruning, schema evolution and the read block plan."""

import os

import pyarrow as pa


def test_compact_fragments_preserves_table(ray_session, tmp_path):
    """Compaction coalesces small fragments per partition, rewrites the
    fragment_id column, flips the manifest atomically, removes old files,
    and never changes the logical table content or partition membership."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from serverless_covariate_drift_detection_ray.sources.fragmented import (
        FragmentInfo,
        TableManifest,
        compact_fragments,
        write_fragment,
    )

    root = str(tmp_path)
    man = TableManifest(root=root)
    for fid in range(6):
        pid = fid // 3
        t = pa.table({
            "image_id": [f"im{fid}_{i}" for i in range(10)],
            "v": pa.array(range(fid * 10, fid * 10 + 10), pa.int64()),
            "fragment_id": pa.array([fid] * 10, pa.int64()),
            "partition_id": pa.array([pid] * 10, pa.int32()),
        })
        man.fragments.append(write_fragment(root, fid, pid, t))
    man.partitions = {0: {}, 1: {}}
    man.save()

    def snapshot(m):
        import pandas as pd
        parts = [pq.read_table(f"{root}/{f.file}").to_pandas()
                 for f in m.fragments]
        return pd.concat(parts).sort_values("image_id").reset_index(drop=True)

    before = snapshot(man)[["image_id", "v", "partition_id"]]
    man2 = compact_fragments(root, target_rows=25, gc=True)
    # 3 x 10-row fragments per partition, target 25 -> one 30-row bin each
    assert len(man2.fragments) == 2
    assert sorted(f.partition_id for f in man2.fragments) == [0, 1]
    assert man2.num_rows == 60
    after_full = snapshot(man2)
    after = after_full[["image_id", "v", "partition_id"]]
    import pandas as pd
    pd.testing.assert_frame_equal(before, after)
    # fragment_id column rewritten to the new manifest ids
    for f in man2.fragments:
        t = pq.read_table(f"{root}/{f.file}")
        assert set(t["fragment_id"].to_pylist()) == {f.id}
    # old files removed; manifest round-trips
    import os
    on_disk = {p for p in os.listdir(root) if p.endswith(".parquet")}
    assert on_disk == {f.file for f in man2.fragments}
    assert TableManifest.load(root).num_rows == 60
    # an already-compacted table is a no-op (single-fragment bins untouched)
    man3 = compact_fragments(root, target_rows=25)
    assert [f.file for f in man3.fragments] == [f.file for f in man2.fragments]
    # default (no gc) keeps old files for in-flight readers; gc_orphans
    # reclaims them later and converges over interrupted-run leaks
    from serverless_covariate_drift_detection_ray.sources.fragmented import (
        gc_orphans,
    )
    open(os.path.join(root, "frag-99999.parquet"), "wb").close()  # fake leak
    removed = gc_orphans(root)
    assert removed == ["frag-99999.parquet"]


def test_zone_map_pruning(ray_session, tmp_path):
    """Manifest zone maps prune fragments whose [min, max] cannot match the
    predicate, the scan-level pushdown drops remaining non-matching rows,
    and legacy stats-less fragments are never pruned."""
    import numpy as np
    import pyarrow as pa

    from serverless_covariate_drift_detection_ray.sources.fragmented import (
        TableManifest,
        read_images,
        write_fragment,
    )

    root = str(tmp_path / "zm")
    os.makedirs(root)
    man = TableManifest(root=root)
    # 4 fragments range-partitioned on v: [0..9], [10..19], [20..29], [30..39]
    for fid in range(4):
        v = np.arange(fid * 10, fid * 10 + 10, dtype=np.int64)
        t = pa.table({
            "image_id": pa.array([f"i{x:03d}" for x in v]),
            "v": pa.array(v),
            "fragment_id": pa.array(np.full(10, fid, np.int64)),
            "partition_id": pa.array(np.zeros(10, np.int32)),
        })
        man.fragments.append(write_fragment(root, fid, 0, t))
    man.partitions = {0: {}}
    man.save()

    man = TableManifest.load(root)  # stats survive the JSON round-trip
    assert man.fragments[0].stats["v"] == [0, 9]
    assert man.fragments[0].stats["image_id"] == ["i000", "i009"]
    assert "bytes" not in (man.fragments[0].stats or {})

    # prune: v >= 25 can only live in fragments 2 and 3
    sel = man.select_fragments(predicate=("v", ">=", 25))
    assert [f.id for f in sel] == [2, 3]
    ds = read_images(man, columns=["image_id", "v"], predicate=("v", ">=", 25))
    vals = sorted(r["v"] for r in ds.take_all())
    assert vals == list(range(25, 40))  # row-level pushdown inside frag 2

    # equality hits exactly one fragment
    assert [f.id for f in man.select_fragments(predicate=("v", "==", 15))] == [1]
    # out-of-range predicate prunes everything
    assert man.select_fragments(predicate=("v", ">", 100)) == []
    assert read_images(man, predicate=("v", ">", 100)).count() == 0

    # a legacy fragment without stats is always kept
    man.fragments[0].stats = None
    assert [f.id for f in man.select_fragments(predicate=("v", "==", 15))] == [0, 1]


def test_read_images_blocks_follow_manifest(ray_session, tmp_path):
    """read_images' contract: the block count comes from the manifest, not
    Ray's CPU-scaled split. A key read (no ``bytes``) gets
    ``max(4, rows // 262_144)`` blocks; a bytes read
    ``min(max(fragments, CPUs), max(CPUs, ceil(rows / 1024)))``: one block
    a CPU at least, no more blocks than fragments past that, and whole
    fragments grouped until a block holds 1,024 rows. Resume
    (``skip_partitions``) and pruned (``predicate``) reads follow the same
    rule over the fragments they keep, and every row survives."""
    import numpy as np

    from serverless_covariate_drift_detection_ray.sources.fragmented import (
        FragmentInfo,
        TableManifest,
        cluster_cpus,
        read_blocks,
        read_images,
        write_fragment,
    )

    ncpu = cluster_cpus()
    n_frags = ncpu + 2  # more fragments than CPUs; pairs per partition
    root = str(tmp_path / "blocks")
    os.makedirs(root)
    man = TableManifest(root=root)
    for fid in range(n_frags):
        v = np.arange(fid * 10, fid * 10 + 10, dtype=np.int64)
        t = pa.table({
            "image_id": pa.array([f"i{x:03d}" for x in v]),
            "bytes": pa.array([bytes([x % 256]) * 64 for x in v], pa.binary()),
            "v": pa.array(v),
            "fragment_id": pa.array(np.full(10, fid, np.int64)),
            "partition_id": pa.array(np.full(10, fid // 2, np.int32)),
        })
        man.fragments.append(write_fragment(root, fid, fid // 2, t))
    man.partitions = {p: {} for p in range(n_frags // 2)}
    man.save()
    man = TableManifest.load(root)
    rows = 10 * n_frags

    def read(**kw):
        ds = read_images(man, **kw).materialize()
        return ds.num_blocks(), ds.count()

    # key read: the data-scaled floor, whatever the fragment count
    assert read(columns=["image_id", "partition_id"]) == (4, rows)
    # bytes read of ncpu + 2 fragments and 10 * (ncpu + 2) rows: one block
    # a CPU, the fragments grouped
    assert read() == (ncpu, rows)
    assert read(columns=["image_id", "bytes"]) == (ncpu, rows)
    # resume keeps 2 fragments (< CPUs): raised to the CPU count
    skip = set(range(1, n_frags // 2))
    assert read(skip_partitions=skip) == (ncpu, 20)
    assert read(columns=["image_id"], skip_partitions=skip) == (4, 20)
    # zone-map pruning keeps fragments 3.. (rows filtered inside fragment 2
    # do not change the manifest-sized count)
    kept = n_frags - 2
    assert read(predicate=("v", ">=", 25)) == (max(kept, ncpu), rows - 25)
    assert read(columns=["image_id", "v"], predicate=("v", ">=", 25)) \
        == (4, rows - 25)
    # the data term takes over past 4 x 262_144 key rows
    big = [FragmentInfo(id=i, file="", rows=262_144 * 3, partition_id=0)
           for i in range(3)]
    assert read_blocks(big, ["image_id"]) == 9
    # bytes: 3 fragments of 786,432 rows are 2,304 1,024-row tasks, cut
    # back to max(3 fragments, CPUs)
    assert read_blocks(big, None) == max(3, ncpu)
    # many small fragments group to the 1,024-row floor, never below a
    # block a CPU
    small = [FragmentInfo(id=i, file="", rows=288, partition_id=0)
             for i in range(40)]
    assert read_blocks(small, None) == max(ncpu, 12)
    assert read_blocks(small[:9], None) == ncpu


def test_schema_evolution_old_fragment_null_fills(ray_session, tmp_path):
    """A fragment written before a column existed (schema evolution) reads
    back null-filled through the manifest path — evolution is tolerated at
    the read; the validation pass is what surfaces the missing values."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from serverless_covariate_drift_detection_ray.sources.fragmented import (
        TableManifest,
        read_images,
        write_fragment,
    )

    root = str(tmp_path)
    man = TableManifest(root=root)
    new_schema = pa.table({
        "image_id": ["a", "b"], "caption": ["one", "two"],
        "fragment_id": pa.array([0, 0], pa.int64()),
        "partition_id": pa.array([0, 0], pa.int32())})
    old_schema = pa.table({  # pre-caption era fragment
        "image_id": ["c"],
        "fragment_id": pa.array([1], pa.int64()),
        "partition_id": pa.array([0], pa.int32())})
    man.fragments.append(write_fragment(root, 0, 0, new_schema))
    man.fragments.append(write_fragment(root, 1, 0, old_schema))
    man.partitions = {0: {}}
    man.save()

    df = read_images(TableManifest.load(root)).to_pandas()
    assert sorted(df.image_id) == ["a", "b", "c"]
    assert df[df.image_id == "c"].caption.isna().all()
    assert df[df.image_id != "c"].caption.notna().all()


def test_cluster_fragments_tightens_zone_maps(ray_session, tmp_path):
    """CLUSTER BY rewrites each partition as key-sorted fragment ranges:
    logical content identical, partition membership preserved, zone maps
    on the cluster key become disjoint so a point predicate opens one
    fragment per partition (pre-cluster: interleaved keys kept ALL)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from serverless_covariate_drift_detection_ray.sources.fragmented import (
        TableManifest,
        cluster_fragments,
        gc_orphans,
        write_fragment,
    )

    root = str(tmp_path / "cl")
    os.makedirs(root)
    man = TableManifest(root=root)
    rng = np.random.Generator(np.random.PCG64(5))
    # 2 partitions x 3 fragments, phash keys interleaved across fragments
    fid = 0
    for pid in range(2):
        keys = rng.permutation(np.arange(60, dtype=np.int64) + pid * 1000)
        for j in range(3):
            v = keys[j * 20:(j + 1) * 20]
            t = pa.table({
                "image_id": pa.array([f"p{pid}i{x}" for x in v]),
                "phash": pa.array(v),
                "fragment_id": pa.array(np.full(20, fid, np.int64)),
                "partition_id": pa.array(np.full(20, pid, np.int32)),
            })
            man.fragments.append(write_fragment(root, fid, pid, t))
            fid += 1
    man.partitions = {0: {}, 1: {}}
    man.save()

    # interleaved keys: an equality probe keeps every fragment of pid 0
    pre = TableManifest.load(root)
    probe = ("phash", "==", 30)
    assert len([f for f in pre.select_fragments({0}, probe)]) == 3

    def content(m):
        import pandas as pd
        parts = [pq.read_table(f"{root}/{f.file}").to_pandas()
                 for f in m.fragments]
        return (pd.concat(parts)[["image_id", "phash", "partition_id"]]
                .sort_values("image_id").reset_index(drop=True))

    before = content(pre)
    old_files = {f.file for f in pre.fragments}
    man2 = cluster_fragments(root, by="phash", target_rows=20)
    # same rows, same partition membership
    import pandas as pd
    pd.testing.assert_frame_equal(before, content(man2))
    # new files first, atomic manifest flip, gc later: a reader holding the
    # pre-cluster manifest still reads it whole until gc_orphans runs
    assert old_files.isdisjoint(f.file for f in man2.fragments)
    pd.testing.assert_frame_equal(before, content(pre))
    assert set(gc_orphans(root)) == old_files
    assert man2.num_rows == 120
    assert sorted({f.partition_id for f in man2.fragments}) == [0, 1]
    # per partition: 3 fragments with DISJOINT, sorted phash ranges
    for pid in range(2):
        frs = sorted((f for f in man2.fragments if f.partition_id == pid),
                     key=lambda f: f.stats["phash"][0])
        assert len(frs) == 3
        for a, b in zip(frs, frs[1:]):
            assert a.stats["phash"][1] < b.stats["phash"][0]
        # fragment rows are actually sorted on disk
        t = pq.read_table(f"{root}/{frs[0].file}")
        ph = t["phash"].to_numpy()
        assert (np.diff(ph) >= 0).all()
        # fragment_id column rewritten to the new id
        assert set(t["fragment_id"].to_pylist()) == {frs[0].id}
    # the same probe now opens exactly one fragment of pid 0
    assert len(man2.select_fragments({0}, probe)) == 1
    # idempotent: re-clustering keeps content + layout shape
    man3 = cluster_fragments(root, by="phash", target_rows=20, gc=True)
    pd.testing.assert_frame_equal(before, content(man3))
    assert len(man3.fragments) == len(man2.fragments)


def test_cluster_and_compact_handle_schema_evolution(ray_session, tmp_path):
    """Fragments written across a schema change (old one lacks a column)
    must rewrite cleanly under both compaction and clustering — the concat
    promotes and null-fills, matching the read path's semantics."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from serverless_covariate_drift_detection_ray.sources.fragmented import (
        TableManifest,
        cluster_fragments,
        compact_fragments,
        write_fragment,
    )

    for sub, fn in (("ev_cl", cluster_fragments), ("ev_co", compact_fragments)):
        root = str(tmp_path / sub)
        os.makedirs(root)
        man = TableManifest(root=root)
        old = pa.table({  # pre-caption era
            "image_id": pa.array([f"o{i}" for i in range(10)]),
            "phash": pa.array(np.arange(10, dtype=np.int64)),
            "fragment_id": pa.array(np.zeros(10, np.int64)),
            "partition_id": pa.array(np.zeros(10, np.int32)),
        })
        new = pa.table({
            "image_id": pa.array([f"n{i}" for i in range(10)]),
            "phash": pa.array(np.arange(10, 20, dtype=np.int64)),
            "caption": pa.array([f"c{i}" for i in range(10)]),
            "fragment_id": pa.array(np.ones(10, np.int64)),
            "partition_id": pa.array(np.zeros(10, np.int32)),
        })
        man.fragments.append(write_fragment(root, 0, 0, old))
        man.fragments.append(write_fragment(root, 1, 0, new))
        man.partitions = {0: {}}
        man.save()
        out = (fn(root, by="phash", target_rows=100, gc=True)
               if fn is cluster_fragments
               else fn(root, target_rows=100, gc=True))
        assert out.num_rows == 20
        t = pq.read_table(f"{root}/{out.fragments[0].file}")
        assert "caption" in t.column_names
        # old rows null-filled, exactly like the manifest read path
        cap = t.to_pandas().set_index("image_id")["caption"]
        assert cap.loc[[f"o{i}" for i in range(10)]].isna().all()
        assert (cap.loc[[f"n{i}" for i in range(10)]] ==
                [f"c{i}" for i in range(10)]).all()


def test_cluster_fragments_edge_shapes(ray_session, tmp_path):
    """Degenerate layouts: a single-row partition, target_rows=1 (one
    fragment per row), and a partition smaller than target — content and
    id allocation stay exact, fragments never collide across partitions."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from serverless_covariate_drift_detection_ray.sources.fragmented import (
        TableManifest,
        cluster_fragments,
        write_fragment,
    )

    root = str(tmp_path / "edge")
    os.makedirs(root)
    man = TableManifest(root=root)
    # partition 0: one row; partition 1: 5 rows shuffled
    t0 = pa.table({"image_id": ["solo"], "phash": pa.array([7], pa.int64()),
                   "fragment_id": pa.array([0], pa.int64()),
                   "partition_id": pa.array([0], pa.int32())})
    man.fragments.append(write_fragment(root, 0, 0, t0))
    v = np.array([5, 3, 9, 1, 4], dtype=np.int64)
    t1 = pa.table({"image_id": [f"r{x}" for x in v], "phash": pa.array(v),
                   "fragment_id": pa.array(np.ones(5, np.int64)),
                   "partition_id": pa.array(np.ones(5, np.int32))})
    man.fragments.append(write_fragment(root, 1, 1, t1))
    man.partitions = {0: {}, 1: {}}
    man.save()

    man2 = cluster_fragments(root, by="phash", target_rows=1, gc=True)
    # one fragment per row, per partition
    assert sorted(f.rows for f in man2.fragments) == [1, 1, 1, 1, 1, 1]
    assert len({f.id for f in man2.fragments}) == 6  # no id collisions
    # partition 1's fragments are sorted, disjoint singletons
    p1 = sorted((f for f in man2.fragments if f.partition_id == 1),
                key=lambda f: f.stats["phash"][0])
    assert [f.stats["phash"][0] for f in p1] == [1, 3, 4, 5, 9]
    # a second pass with a large target coalesces back to 1 per partition
    man3 = cluster_fragments(root, by="phash", target_rows=100, gc=True)
    assert len(man3.fragments) == 2
    got = sorted(pq.read_table(f"{root}/{f.file}")["image_id"].to_pylist()
                 for f in man3.fragments)
    assert got == [["r1", "r3", "r4", "r5", "r9"], ["solo"]]
