"""Per-partition drift testing against the frozen reference state.

``DriftTestActor`` is the engine's analogue of the reference's Drift Detection
Service: one frozen detector state per worker process, independent two-sample
tests per window (/root/reference/detector_api/app/detector.py:16-70). Each
input row is one partition's merged ``PartialState``; each output row is a
verdict matching the reference's verdict record shape
(alpha / distance / p_value / is_drift / datetime,
/root/reference/detector_api/app/detector.py:62-70).

Determinism: the permutation RNG is seeded by (run seed ^ partition_id) only —
never task order — so verdicts are identical under resume and at any
parallelism level (SURVEY.md §4).
"""

from __future__ import annotations

import threading
from datetime import datetime, timezone

import pyarrow as pa

from ..pipelines.config import EngineConfig
from ..state.partials import PartialState
from ..state.reference import ReferenceState
from .checks import resolve_checks

VERDICT_SCHEMA = pa.schema(
    [
        ("partition_id", pa.int32()),
        ("check", pa.string()),
        ("column", pa.string()),
        ("statistic", pa.float64()),
        ("p_value", pa.float64()),
        ("alpha", pa.float64()),
        ("passed", pa.bool_()),
        ("n_ref", pa.int64()),
        ("n_test", pa.int64()),
        ("datetime", pa.string()),
    ]
)

# reference timestamp format: /root/reference/detector_api/app/detector.py:64-66
TS_FORMAT = "%d/%m/%Y %H:%M:%S.%f"


class DriftTestActor:
    """Callable-class stage: ``__init__`` loads the frozen reference state
    once (the load-once-per-process singleton pattern,
    /root/reference/detector_api/app/detector.py:38-42; the worker cache in
    ``cached_tester`` keeps one per process); ``__call__`` tests each
    partition-state row against it."""

    def __init__(self, cfg: EngineConfig, ref_state_dir: str):
        self.cfg = cfg
        self.ref = ReferenceState.load(ref_state_dir)
        # sketch-shape guard: a state fit under a different fmt domain or
        # marginal spec would otherwise surface as an opaque numpy broadcast
        # error deep inside chi2/KS (obs and ref vectors of different
        # lengths) — e.g. any reference fit before a fmt_categories change.
        rs = self.ref.state
        if tuple(rs.fmt_categories) != tuple(cfg.fmt_categories):
            raise ValueError(
                f"reference state in {ref_state_dir} was fit with "
                f"fmt_categories={tuple(rs.fmt_categories)} but the current "
                f"config has {tuple(cfg.fmt_categories)}; re-fit the "
                "reference window or set cfg.fmt_categories to match")
        if ({c: tuple(v) for c, v in rs.marginal_spec.items()}
                != {c: tuple(v) for c, v in cfg.marginals.items()}):
            raise ValueError(
                f"reference state in {ref_state_dir} was fit with marginal "
                f"spec {rs.marginal_spec} but the current config has "
                f"{cfg.marginals}; re-fit the reference window or set "
                "cfg.marginals to match")
        # check plugin resolution (SURVEY.md §2.10): registered names and/or
        # custom Check instances carried in the config — see stages/checks.py
        self.checks = resolve_checks(cfg.drift_checks)

    def _now(self) -> str:
        if self.cfg.freeze_time:
            return self.cfg.freeze_time
        return datetime.now(timezone.utc).strftime(TS_FORMAT)

    def verdicts_for_partition(self, pid: int, ps: PartialState,
                               pool=None) -> list[dict]:
        """Every check's verdict rows for one partition, in check order.
        With ``pool`` (a ``concurrent.futures.ThreadPoolExecutor``) each
        check's ``compare`` runs as one pool task; each seeds its own RNG
        from (run seed, partition id), so the rows are the same either way."""
        ts = self._now()

        def compare(chk) -> list[dict]:
            return chk.compare(pid, self.ref, ps, self.cfg, ts)

        runs = map(compare, self.checks) if pool is None else pool.map(
            compare, self.checks)
        return [row for rows in runs for row in rows]

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows: list[dict] = []
        for i in range(batch.num_rows):
            pid = int(batch["partition_id"][i].as_py())
            ps = PartialState.from_bytes(batch["state"][i].as_py())
            rows.extend(self.verdicts_for_partition(pid, ps))
        if not rows:
            return VERDICT_SCHEMA.empty_table()
        return pa.Table.from_pylist(rows, schema=VERDICT_SCHEMA)


# ---------------------------------------------------------------------------
# Task-pool variant: same load-once-per-process contract, but via a module-
# level cache so the drift pass reuses the WARM worker processes left over
# from the featurize stage instead of paying fresh actor spawns for a
# seconds-long stage. This is the closest Ray analogue of the reference's
# SingletonMeta per-process model cache
# (/root/reference/detector_api/app/utils.py:4-14): any task landing on a
# worker loads the frozen reference state at most once.
# ---------------------------------------------------------------------------

_WORKER_CACHE: dict = {}
_CACHE_LOCK = threading.Lock()


def cached_tester(cfg: EngineConfig, ref_state_dir: str) -> DriftTestActor:
    """This process's ``DriftTestActor`` for ``ref_state_dir``, loaded once
    per (directory, stored state, cfg) and shared by the merge stripes'
    drift tasks and ``serve.score_window``: a refit or ``extend_reference``
    into the same directory writes a new ``state_sha``, and the next call
    reloads. One live reference is kept, which bounds memory."""
    with _CACHE_LOCK:  # windows may be scored from several threads
        tester = _WORKER_CACHE.get(ref_state_dir)
        # dataclass equality re-validates the config per call (unpickled
        # copies compare by value; custom Check instances without __eq__
        # force a rebuild — correct, just slower for that exotic path)
        if (tester is None or tester.cfg != cfg
                or tester.ref.meta.get("state_sha")
                != ReferenceState.stored_sha(ref_state_dir)):
            tester = DriftTestActor(cfg, ref_state_dir)
            _WORKER_CACHE.clear()
            _WORKER_CACHE[ref_state_dir] = tester
        return tester


def drift_verdicts_batch(batch: pa.Table, *, cfg: EngineConfig,
                         ref_state_dir: str) -> pa.Table:
    """Stateless-task drift stage, run by the merge stripes, against the
    worker's cached tester (``cached_tester``)."""
    return cached_tester(cfg, ref_state_dir)(batch)
