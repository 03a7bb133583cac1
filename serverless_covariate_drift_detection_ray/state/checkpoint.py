"""Per-partition lineage checkpointing — what makes a killed run resumable.

Layout under the run's output directory:

    out/
      verdicts/partition_id=N/verdicts.parquet
      violations/partition_id=N/violations.parquet
      column_stats/partition_id=N/column_stats.parquet
      lineage/N.json        # written LAST, atomically (tmp+rename)

A partition is "finished" iff its lineage JSON exists; on resume the driver
lists finished partitions and filters their fragments out of the read
(SURVEY.md §4 "Checkpoint / resume"). Data files are written before the lineage
marker, so a crash mid-partition leaves no marker and the partition reruns.
"""

from __future__ import annotations

import json
import os
import time

import pyarrow as pa
import pyarrow.parquet as pq

from .. import __version__
from .atomic import atomic_publish, atomic_write_bytes, atomic_write_json

LINEAGE_DIR = "lineage"


def config_fingerprint(cfg) -> str:
    """Stable hash of the validation config + engine version: resume must
    NOT skip partitions committed under a different config (e.g. a changed
    drift-check set would otherwise serve stale verdicts). Custom Check
    INSTANCES fingerprint by module-qualified class name plus their field
    values (dataclass fields / instance ``__dict__``) — read from the
    ORIGINAL cfg object, because ``dataclasses.asdict`` recursively turns
    dataclass check instances into plain dicts first, which previously
    collapsed every dataclass check to the qualname ``'dict'`` and made
    two different custom checks fingerprint identically."""
    import dataclasses
    import hashlib

    def check_key(s) -> str:
        if isinstance(s, str):
            return s
        name = f"{type(s).__module__}.{type(s).__qualname__}"
        if dataclasses.is_dataclass(s):
            return f"{name}:{sorted(dataclasses.asdict(s).items())!r}"
        if getattr(s, "__dict__", None):
            return f"{name}:{sorted(vars(s).items())!r}"
        return name

    orig_checks = getattr(cfg, "drift_checks", None) or \
        (cfg.get("drift_checks", ()) if isinstance(cfg, dict) else ())
    d = dataclasses.asdict(cfg) if dataclasses.is_dataclass(cfg) else dict(cfg)
    # sink-only options do not change any committed verdict/violation/stat,
    # so toggling them must not invalidate finished partitions
    d.pop("quarantine", None)
    d.pop("quarantine_max_rows", None)
    d["drift_checks"] = [check_key(s) for s in orig_checks]
    blob = json.dumps({"v": __version__, **{k: repr(v) for k, v in sorted(d.items())}},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class CheckpointStore:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        os.makedirs(os.path.join(out_dir, LINEAGE_DIR), exist_ok=True)

    def finished_partitions(self, config_hash: str | None = None) -> set[int]:
        """Partitions with a lineage marker; with ``config_hash`` given, only
        those committed under the SAME config (missing/mismatched hash =
        stale output → the partition reruns)."""
        d = os.path.join(self.out_dir, LINEAGE_DIR)
        out = set()
        for name in os.listdir(d):
            if not name.endswith(".json"):
                continue
            try:
                pid = int(name[:-5])
            except ValueError:
                continue
            if config_hash is not None:
                try:
                    with open(os.path.join(d, name)) as fh:
                        if json.load(fh).get("config_hash") != config_hash:
                            continue
                except (OSError, json.JSONDecodeError):
                    continue
            out.add(pid)
        return out

    def _part_path(self, sub: str, partition_id: int, fname: str) -> str:
        return os.path.join(self.out_dir, sub, f"partition_id={partition_id}", fname)

    def _write_part(self, sub: str, partition_id: int, table: pa.Table, fname: str) -> None:
        path = self._part_path(sub, partition_id, fname)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        atomic_publish(path, lambda tmp: pq.write_table(table, tmp, compression="zstd"))

    def violations_path(self, partition_id: int) -> str:
        return self._part_path("violations", partition_id, "violations.parquet")

    def write_violations(self, partition_id: int, table: pa.Table) -> None:
        """Publish one partition's violations.parquet atomically (zstd)."""
        self._write_part("violations", partition_id, table, "violations.parquet")

    def commit_partition(
        self,
        partition_id: int,
        fragment_ids: list[int],
        verdicts: pa.Table,
        violations: pa.Table | None,
        column_stats: pa.Table,
        stats_blob: bytes,
        wall_s: float,
        violation_count: int | None = None,
        config_hash: str | None = None,
    ) -> None:
        """``violations=None`` means the partition's violation file is already
        in the layout and only ``violation_count`` is recorded; it is the
        only form ``validate()`` uses, because its one violations writer
        runs before the quarantine. A table is written as the partition's
        violations.parquet, for direct callers."""
        self._write_part("verdicts", partition_id, verdicts, "verdicts.parquet")
        if violations is not None:
            self.write_violations(partition_id, violations)
            if violation_count is None:
                violation_count = violations.num_rows
        self._write_part("column_stats", partition_id, column_stats, "column_stats.parquet")
        blob_dir = os.path.join(self.out_dir, "stats_blobs")
        os.makedirs(blob_dir, exist_ok=True)
        atomic_write_bytes(os.path.join(blob_dir, f"{partition_id}.bin"),
                           stats_blob)
        lineage = {
            "partition_id": partition_id,
            "fragment_ids": fragment_ids,
            "status": "done",
            "verdict_count": verdicts.num_rows,
            "violation_count": int(violation_count or 0),
            "wall_s": round(wall_s, 3),
            "engine_version": __version__,
            "config_hash": config_hash,
            "completed_at": time.time(),
        }
        # the lineage marker publishes LAST: everything it vouches for is
        # already durable by the time a resume can observe it
        atomic_write_json(
            os.path.join(self.out_dir, LINEAGE_DIR, f"{partition_id}.json"),
            lineage, indent=1)

    def read_all(self, sub: str) -> pa.Table | None:
        """Concatenate all committed per-partition tables of one kind."""
        root = os.path.join(self.out_dir, sub)
        if not os.path.isdir(root):
            return None
        tables = []
        for part in sorted(os.listdir(root)):
            d = os.path.join(root, part)
            for f in sorted(os.listdir(d)):
                if f.endswith(".parquet"):
                    tables.append(pq.read_table(os.path.join(d, f)))
        return pa.concat_tables(tables) if tables else None
