"""Lance-style fragment-addressable table layout (parquet fallback in-sandbox).

A dataset directory holds numbered fragment files plus a JSON manifest:

    images/
      frag-00000.parquet ... frag-NNNNN.parquet
      manifest.json   {"fragments": [{"id", "file", "rows", "partition_id"}, ...],
                       "partitions": {"0": {"kind": "reference"}, ...}}

``lance`` is not importable in-sandbox (SURVEY.md §7), so reads go through
``ray.data.read_parquet`` over the manifest's fragment file list; when the
``lance`` package is present the same manifest maps onto Lance fragment ids and
``ray.data.read_lance`` — lineage records carry ``fragment_ids`` either way, so
swapping storage is mechanical. Every fragment file carries ``partition_id``
and ``fragment_id`` columns so partition identity survives block splitting.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq

from ..pipelines.config import STAGE_ROWS
from ..state.atomic import atomic_write_json

MANIFEST = "manifest.json"

IMAGES_SCHEMA = pa.schema(
    [
        ("image_id", pa.string()),
        ("bytes", pa.binary()),
        ("w", pa.int32()),
        ("h", pa.int32()),
        ("fmt", pa.string()),
        ("caption", pa.string()),
        ("phash", pa.int64()),
        ("fragment_id", pa.int64()),
        ("partition_id", pa.int32()),
    ]
)


@dataclass
class FragmentInfo:
    id: int
    file: str
    rows: int
    partition_id: int
    # zone map: {column: [min, max]} over JSON-representable scalar columns;
    # None on fragments written before stats existed (never pruned)
    stats: dict | None = None


_PRUNE_OPS = {
    "==": lambda lo, hi, v: lo <= v <= hi,
    ">=": lambda lo, hi, v: hi >= v,
    ">": lambda lo, hi, v: hi > v,
    "<=": lambda lo, hi, v: lo <= v,
    "<": lambda lo, hi, v: lo < v,
}


def _column_stats(table: pa.Table) -> dict:
    """Per-column [min, max] zone map for scalar columns (the Lance/parquet
    footer-stats analogue, lifted into the manifest so pruning needs no file
    opens). Binary/nested columns and all-null columns are skipped."""
    import pyarrow.compute as pc

    stats: dict = {}
    for name in table.column_names:
        col = table[name]
        t = col.type
        if not (pa.types.is_integer(t) or pa.types.is_floating(t)
                or pa.types.is_string(t)):
            continue
        if col.null_count == len(col):
            continue
        mm = pc.min_max(col)
        lo, hi = mm["min"].as_py(), mm["max"].as_py()
        if lo is not None and hi is not None:
            stats[name] = [lo, hi]
    return stats


@dataclass
class TableManifest:
    root: str
    fragments: list[FragmentInfo] = field(default_factory=list)
    partitions: dict[int, dict] = field(default_factory=dict)

    def select_fragments(self, partition_ids: set[int] | None = None,
                         predicate: tuple | None = None) -> list[FragmentInfo]:
        """Fragments surviving partition selection + zone-map pruning.

        ``predicate`` is ``(column, op, value)`` with op in ``== >= > <= <``;
        a fragment is skipped only when its [min, max] for that column proves
        no row can match. Fragments without stats (legacy manifests, pruned
        columns) are always kept — pruning is an optimization, never a
        filter."""
        frags = [f for f in self.fragments
                 if partition_ids is None or f.partition_id in partition_ids]
        if predicate is None:
            return frags
        col, op, val = predicate
        keep_fn = _PRUNE_OPS[op]
        out = []
        for f in frags:
            s = (f.stats or {}).get(col)
            if s is None or keep_fn(s[0], s[1], val):
                out.append(f)
        return out

    def partition_ids(self) -> list[int]:
        return sorted({f.partition_id for f in self.fragments})

    def fragments_of(self, partition_id: int) -> list[int]:
        return [f.id for f in self.fragments if f.partition_id == partition_id]

    @property
    def num_rows(self) -> int:
        return sum(f.rows for f in self.fragments)

    def save(self) -> None:
        payload = {
            "fragments": [
                {"id": f.id, "file": f.file, "rows": f.rows,
                 "partition_id": f.partition_id,
                 **({"stats": f.stats} if f.stats else {})}
                for f in self.fragments
            ],
            "partitions": {str(k): v for k, v in self.partitions.items()},
        }
        atomic_write_json(os.path.join(self.root, MANIFEST), payload, indent=1)

    @classmethod
    def load(cls, root: str) -> "TableManifest":
        with open(os.path.join(root, MANIFEST)) as fh:
            payload = json.load(fh)
        return cls(
            root=root,
            fragments=[FragmentInfo(**f) for f in payload["fragments"]],
            partitions={int(k): v for k, v in payload["partitions"].items()},
        )


def write_fragment(root: str, fragment_id: int, partition_id: int, table: pa.Table,
                   row_group_rows: int | None = None) -> FragmentInfo:
    fname = f"frag-{fragment_id:05d}.parquet"
    # the bytes column holds already-compressed codec payloads (PNG/lossy8):
    # zstd on top saved a measured 0.3% size while charging a full
    # decompress of the table's dominant column on EVERY read — store it
    # uncompressed, keep zstd for the (compressible) metadata columns
    comp = {c: ("NONE" if c == "bytes" else "ZSTD") for c in table.column_names}
    kwargs = {"row_group_size": row_group_rows} if row_group_rows else {}
    pq.write_table(table, os.path.join(root, fname), compression=comp, **kwargs)
    return FragmentInfo(id=fragment_id, file=fname, rows=table.num_rows,
                        partition_id=partition_id, stats=_column_stats(table))


def data_blocks(rows: int, rows_per_block: int = 262_144, floor: int = 4) -> int:
    """Row-count-scaled block count for reads that feed shuffles. Ray's
    default split (~2 blocks/CPU, more when files are few) hands an exchange
    dozens of tiny blocks, and the sort exchange charges per (block x
    partition) — measured ~2 s of pure fixed cost on a 165k-row anti-join.
    Blocks must track DATA, not CPUs, on the shuffle feed side."""
    return max(floor, rows // rows_per_block)


def cluster_cpus() -> int:
    import ray

    return int(ray.cluster_resources().get("CPU", 8))


def read_blocks(fragments: list[FragmentInfo], columns: list[str] | None) -> int:
    """Block count ``read_images`` reads ``fragments`` with, from the
    manifest alone.

    A key read (no ``bytes`` column: ids, hashes, partition ids) is KB-scale
    and gets ``data_blocks`` — Ray's split cut 9 single-row-group fragments
    into 54 blocks of 48 rows. A bytes read feeds featurize, one task per
    block: ``min(max(fragments, CPUs), max(CPUs, ceil(rows / STAGE_ROWS)))``.
    That is at least one task per CPU; past that, no task below
    ``STAGE_ROWS`` rows (one stage call at the default ``batch_size``), and
    never more tasks than fragments once fragments outnumber CPUs. The rule
    sizes tasks by the default call, not the run's ``batch_size``: a smaller
    call cap cuts a task's rows into more calls, not the table into more
    tasks. A small table thus runs
    in one wave of fragment groups (the 9-fragment, 2,592-row perfbench
    table in 3 tasks at 3 CPUs) instead of queueing short tasks behind
    Ray's 0.1 s dispatch poll (``ray.wait(..., timeout=0.1)``,
    ``ray/data/_internal/execution/streaming_executor_state.py:499-504``).

    Fewer blocks than fragments group whole fragments into one read task,
    which Ray still fuses into the featurize map. A count above the
    fragments (fewer fragments than CPUs) splits fragments after the read,
    and Ray does not fuse a read with a split factor above 1 into the map
    after it: that read stays its own operator, its blocks cross the object
    store, and featurize runs one task per split block."""
    rows = sum(f.rows for f in fragments)
    if columns is not None and "bytes" not in columns:
        return data_blocks(rows)
    cpus = cluster_cpus()
    return min(max(len(fragments), cpus), max(cpus, -(-rows // STAGE_ROWS)))


def read_images(
    manifest: TableManifest,
    columns: list[str] | None = None,
    skip_partitions: set[int] | None = None,
    predicate: tuple | None = None,
):
    """Ray Dataset over the table's fragments, with column pruning at the read.

    ``skip_partitions`` implements resume: finished partitions never leave disk
    (the driver filters the fragment list before the read — SURVEY.md §4).
    ``predicate=(col, op, value)`` prunes whole fragments via the manifest's
    zone maps before any file opens, then pushes the same predicate down to
    the parquet scan so surviving fragments drop non-matching row groups and
    rows — the scan-level half of the filter, so the returned Dataset
    contains exactly the matching rows. The block count follows
    ``read_blocks`` over the surviving fragments.
    """
    import ray.data

    keep = None
    if skip_partitions:
        keep = {p for p in manifest.partition_ids() if p not in skip_partitions}
    frags = manifest.select_fragments(keep, predicate)
    paths = [os.path.join(manifest.root, f.file) for f in frags]
    if not paths:
        empty = IMAGES_SCHEMA.empty_table()
        if columns:  # match the projected schema of the non-empty path
            empty = empty.select(columns)
        return ray.data.from_arrow(empty)
    kwargs = {}
    if predicate is not None:
        import pyarrow.compute as pc

        col, op, val = predicate
        f = pc.field(col)
        expr = {"==": f == val, ">=": f >= val, ">": f > val,
                "<=": f <= val, "<": f < val}[op]
        kwargs["filter"] = expr
    return ray.data.read_parquet(
        paths, columns=columns,
        override_num_blocks=read_blocks(frags, columns), **kwargs)


def gc_orphans(root: str) -> list[str]:
    """Delete every ``frag-*.parquet`` the head manifest does not
    reference: the reclamation step for compaction and clustering (old
    fragments stay on disk by default so in-flight readers of the
    pre-rewrite manifest never lose files; run GC once no reader can hold
    the old manifest). Converges: covers files leaked by any earlier
    interrupted rewrite too."""
    live = {f.file for f in TableManifest.load(root).fragments}
    removed = []
    for name in os.listdir(root):
        if name.startswith("frag-") and name.endswith(".parquet") \
                and name not in live:
            try:
                os.remove(os.path.join(root, name))
                removed.append(name)
            except OSError:
                pass
    return removed


def compact_fragments(root: str, target_rows: int = 1_000_000,
                      target_bytes: int = 512 << 20,
                      row_group_rows: int = 10_000,
                      gc: bool = False) -> TableManifest:
    """OPTIMIZE / small-file compaction: coalesce adjacent small fragments
    into ~``target_rows``-row / ~``target_bytes``-file fragments WITHOUT
    crossing partition boundaries (the partition is the lineage/resume
    unit, so compaction must not change partition membership). Bins close
    on whichever cap hits first — the byte cap (from on-disk file sizes)
    bounds the rewrite task's memory for wide-row tables like the images
    table. Single-fragment bins are left untouched — no gratuitous rewrite.

    Each bin rewrites as an independent Ray task (read N small files → one
    new fragment, ``fragment_id`` column rewritten, bounded
    ``row_group_rows`` row groups so the post-compaction read still splits
    into streamable blocks). Crash-safe ordering: new files land first, the
    manifest flips via its atomic tmp+rename ``save()``. Old files are NOT
    deleted by default — a long-running reader that resolved the old
    manifest keeps its files; reclamation is ``gc_orphans`` (or
    ``gc=True`` when no concurrent reader exists), which also converges
    over files leaked by interrupted runs."""
    import ray

    man = TableManifest.load(root)
    next_id = max((f.id for f in man.fragments), default=-1) + 1
    plan: list[tuple[int, list[FragmentInfo], int]] = []
    keep: list[FragmentInfo] = []

    def close_bin(pid: int, bin_: list[FragmentInfo]) -> None:
        nonlocal next_id
        if len(bin_) > 1:
            plan.append((pid, bin_, next_id))
            next_id += 1
        else:
            keep.extend(bin_)

    for pid in man.partition_ids():
        bin_, rows, nbytes = [], 0, 0
        for f in (f for f in man.fragments if f.partition_id == pid):
            bin_.append(f)
            rows += f.rows
            nbytes += os.path.getsize(os.path.join(root, f.file))
            if rows >= target_rows or nbytes >= target_bytes:
                close_bin(pid, bin_)
                bin_, rows, nbytes = [], 0, 0
        if bin_:
            close_bin(pid, bin_)
    if not plan:
        if gc:
            gc_orphans(root)
        return man

    @ray.remote
    def rewrite(root: str, pid: int, files: list[str], new_id: int) -> dict:
        import numpy as np

        # promote: fragments written across a schema change differ (the
        # read path null-fills old fragments; the rewrite must match)
        t = pa.concat_tables(
            [pq.read_table(os.path.join(root, f)) for f in files],
            promote_options="default")
        if "fragment_id" in t.column_names:
            idx = t.column_names.index("fragment_id")
            t = t.set_column(idx, "fragment_id", pa.array(
                np.full(t.num_rows, new_id, dtype=np.int64)))
        info = write_fragment(root, new_id, pid, t,
                              row_group_rows=row_group_rows)
        return {"id": info.id, "file": info.file, "rows": info.rows,
                "partition_id": info.partition_id, "stats": info.stats}

    results = ray.get([rewrite.remote(root, pid, [f.file for f in bin_], nid)
                       for pid, bin_, nid in plan])
    man.fragments = sorted(keep + [FragmentInfo(**r) for r in results],
                           key=lambda f: f.id)
    man.save()
    if gc:
        gc_orphans(root)
    return man


def cluster_fragments(root: str, by: str = "phash",
                      target_rows: int = 1_000_000,
                      row_group_rows: int = 10_000,
                      gc: bool = False) -> TableManifest:
    """CLUSTER BY / layout optimization: re-sort each partition's rows by
    ``by`` and rewrite its fragments as contiguous key ranges, so the
    manifest zone maps on that column become tight and pairwise disjoint —
    a point/range predicate then opens ~1 fragment per partition instead
    of all of them (the quarantine and violation re-read paths both prune
    on exactly such predicates). The clustering never crosses partition
    boundaries: the partition is the lineage/resume unit, and a global
    sort would also be an avoidable ALL-fragment exchange — within-
    partition runs capture ~all of the pruning benefit because predicate
    reads already select partitions first.

    Each partition rewrites as one independent Ray task (read its
    fragments → one arrow sort_indices take → range-sliced fragment
    writes); per-task memory is one partition, the same bound
    ``compact_fragments``'s bins accept. For partitions beyond single-task
    memory, pre-split them with ``compact_fragments`` range bins or run
    the same slice-write over ``read_images(...).sort(by)`` — the
    manifest/commit protocol below is unchanged either way. Crash-safe
    ordering matches compaction: new files land first, the manifest flips
    via atomic save, and the old files stay on disk for readers of the old
    manifest until ``gc_orphans`` (or ``gc=True``)."""
    import ray

    man = TableManifest.load(root)
    next_id = max((f.id for f in man.fragments), default=-1) + 1

    @ray.remote
    def rewrite_sorted(root: str, pid: int, files: list[str],
                       first_id: int) -> list[dict]:
        import numpy as np
        import pyarrow.compute as pc

        t = pa.concat_tables(
            [pq.read_table(os.path.join(root, f)) for f in files],
            promote_options="default")  # schema-evolved fragments null-fill
        t = t.take(pc.sort_indices(t, sort_keys=[(by, "ascending")]))
        if t.num_rows == 0:  # keep the (empty) partition present
            info = write_fragment(root, first_id, pid, t,
                                  row_group_rows=row_group_rows)
            return [{"id": info.id, "file": info.file, "rows": info.rows,
                     "partition_id": info.partition_id, "stats": info.stats}]
        out = []
        n_chunks = max(1, -(-t.num_rows // target_rows))
        step = -(-t.num_rows // n_chunks)
        for j, lo in enumerate(range(0, t.num_rows, step)):
            chunk = t.slice(lo, step)
            new_id = first_id + j
            if "fragment_id" in chunk.column_names:
                idx = chunk.column_names.index("fragment_id")
                chunk = chunk.set_column(idx, "fragment_id", pa.array(
                    np.full(chunk.num_rows, new_id, dtype=np.int64)))
            info = write_fragment(root, new_id, pid, chunk,
                                  row_group_rows=row_group_rows)
            out.append({"id": info.id, "file": info.file, "rows": info.rows,
                        "partition_id": info.partition_id,
                        "stats": info.stats})
        return out

    jobs = []
    for pid in man.partition_ids():
        files = [f.file for f in man.fragments if f.partition_id == pid]
        rows = sum(f.rows for f in man.fragments if f.partition_id == pid)
        n_out = max(1, -(-rows // target_rows))
        jobs.append(rewrite_sorted.remote(root, pid, files, next_id))
        next_id += n_out
    results = [FragmentInfo(**r) for batch in ray.get(jobs) for r in batch]
    man.fragments = sorted(results, key=lambda f: f.id)
    man.save()
    if gc:
        gc_orphans(root)
    return man
