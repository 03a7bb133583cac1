"""Ordered-log streaming with incremental actor state (SURVEY §2.9).

Ray Data has no event-time windows or watermarks; the engine's window
queries (pipelines/queries.py) therefore run as salted ``groupby(key)``
+ in-bucket sorts. This module adds the OTHER stream execution shape the
Ray guide describes: treat the input as an ordered, partitioned log and
feed time-ordered micro-batches to stateful bucket actors — the pattern a
true incremental / can't-rebuffer stream needs (state survives across
batches; each actor sees its keys' events in global ts order).

Shape: ``ds.sort(ts_key)`` range-partitions the log; the driver streams
the sorted batches (``iter_batches`` — nothing materializes) and routes
each batch's per-bucket slice to one of N ``@ray.remote`` bucket actors.
Ray guarantees in-order execution of tasks from one submitter to one
actor, so every actor observes its slice of the log in ts order. On a
multi-node cluster the driver loop becomes one feeder per log partition
(document: the partitioning key must then co-locate a user's events in
one partition — the same assumption Kafka consumers make).

Raw actors are justified here (SURVEY §7 "hard parts"): Dataset
``map_batches`` gives no cross-batch state or ordering guarantee, and
``map_groups`` rebuffers a whole group — exactly what a streaming
pipeline cannot do.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.hashing import hash64
from .queries import _pa_from_pandas, _read_blocked, _round

N_STREAM_BUCKETS = 8
STREAM_BATCH_ROWS = 4096


class _RunningTotals:
    """Per-bucket incremental state: user_id -> (running_sum, max_running).

    Plain class decorated at use site (ray.remote(cls)) so the kernel stays
    unit-testable without Ray."""

    def __init__(self):
        self.sum: dict[int, float] = {}
        self.peak: dict[int, float] = {}

    def process(self, users: np.ndarray, values: np.ndarray) -> int:
        """Consume one time-ordered micro-batch slice: stable-sort segments
        the batch by user (equal keys keep arrival = ts order), then compute
        every running value EXACTLY as a sequential ``s += v`` loop would —
        per-segment cumsum seeded with the carried base when segments are
        few and long, rounds-wise vectorized adds (round j adds each active
        segment's j-th value) when segments are many and short, whichever
        needs fewer Python iterations. Both preserve each user's exact
        left-to-right float association, so results are bit-identical
        regardless of how the stream is batched or which other users share
        the micro-batch — the property the multi-feeder parity test and the
        SUM() OVER (... ROWS UNBOUNDED PRECEDING) DuckDB oracle rely on.
        (A single global cumsum differenced at segment starts is faster but
        NOT associativity-safe.) np.maximum.reduceat takes each segment's
        running peak; one dict update per distinct user, never per row."""
        if not len(users):
            return 0
        order = np.argsort(users, kind="stable")
        u = users[order]
        v = values[order].astype(np.float64)
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        ends = np.r_[starts[1:], u.size]
        uniq = u[starts]
        s, p = self.sum, self.peak
        base = np.array([s.get(int(x), 0.0) for x in uniq])
        seg_len = ends - starts
        maxlen = int(seg_len.max())
        run = np.empty_like(v)
        if starts.size <= maxlen:
            # few long segments: one exact cumsum per segment
            for i in range(starts.size):
                st, en = starts[i], ends[i]
                seg = np.cumsum(np.concatenate(([base[i]], v[st:en])))
                run[st:en] = seg[1:]
        else:
            # many short segments (the high-cardinality shape): rounds-wise
            # vectorized adds — round j adds each active segment's j-th value
            # to its running total, so every user's adds happen in exactly
            # the sequential left-to-right order
            cur = base.copy()
            for j in range(maxlen):
                act = seg_len > j
                idx = starts[act] + j
                cur[act] = cur[act] + v[idx]
                run[idx] = cur[act]
        finals = run[ends - 1]
        peaks = np.maximum.reduceat(run, starts)
        for x, fin, pk in zip(uniq.tolist(), finals.tolist(), peaks.tolist()):
            s[x] = fin
            if pk > p.get(x, -np.inf):
                p[x] = pk
        return len(users)

    def finish(self) -> pd.DataFrame:
        users = sorted(self.sum)
        return pd.DataFrame({
            "user_id": np.asarray(users, dtype=np.int64),
            "total": np.asarray([self.sum[u] for u in users]),
            "max_running": np.asarray([self.peak[u] for u in users]),
        })


def _route(keys: np.ndarray, *cols: np.ndarray):
    """Bucket router for ``_feed_bucketed``: rows go to actor
    ``hash64(keys) % N_STREAM_BUCKETS``; yields ``(bucket, sliced cols)``
    per bucket present. Same-submitter -> same-actor tasks run in
    submission order, so each actor sees its keys' rows in log order."""
    bkt = (hash64(keys) % N_STREAM_BUCKETS).astype(np.int64)
    for b in np.unique(bkt):
        sel = bkt == b
        yield b, tuple(c[sel] for c in cols)


def _route_user_values(batch: pa.Table):
    users = batch["user_id"].to_numpy()
    return _route(users, users, batch["value"].to_numpy())


def _finish_running_totals(actors: list) -> pa.Table:
    """Concatenate the ``_RunningTotals`` actors' state, rounded as the
    oracle rounds, in user_id order."""
    import ray

    out = pd.concat(ray.get([a.finish.remote() for a in actors]),
                    ignore_index=True)
    out["total"] = _round(out["total"].to_numpy(), 2)
    out["max_running"] = _round(out["max_running"].to_numpy(), 2)
    return _pa_from_pandas(out.sort_values("user_id").reset_index(drop=True),
                           preserve_index=False)


def _feed_bucketed(ds, actors: list, route):
    """Shared ordered-feed scaffold: stream ``ds`` batches in order, route
    each batch's rows to bucket actors via ``route(batch) -> (bkt, calls)``
    where ``calls[b]`` is the argument tuple for actors[b].process, with
    4x-actor-count backpressure. preserve_order is REQUIRED while the
    iterator drains: without it the streaming executor may yield sorted
    blocks out of completion order, breaking every consumer whose state is
    order-sensitive (running sums; window-close emission)."""
    import ray
    from ray.data import DataContext

    pending: list = []
    ctx = DataContext.get_current()
    prior = ctx.execution_options.preserve_order
    ctx.execution_options.preserve_order = True
    try:
        for batch in ds.iter_batches(batch_size=STREAM_BATCH_ROWS,
                                     batch_format="pyarrow"):
            for b, args in route(batch):
                pending.append(actors[int(b)].process.remote(*args))
            if len(pending) > 4 * len(actors):  # backpressure the feed
                ready, pending = ray.wait(pending,
                                          num_returns=len(pending) // 2)
                list(ready)
        ray.get(pending)
    finally:
        ctx.execution_options.preserve_order = prior


def _feed_partitioned(make_partition_ds, actors: list, route,
                      n_feeders: int) -> None:
    """Multi-node ordered feed: one feeder TASK per log partition, each
    streaming ITS partition's rows in ts order through the same
    ``_feed_bucketed`` scaffold (same in-order-per-submitter guarantee,
    now per feeder). Correctness requires the Kafka-consumer assumption
    the module docstring names: the partitioning key must co-locate a
    key's events in ONE log partition, so per-key order is preserved even
    though different feeders' calls interleave at each actor. On a real
    cluster each feeder runs next to its partition's storage; here the
    partitions are hash-filtered reads of the same parquet."""
    import ray

    @ray.remote(num_cpus=0.5)
    def feeder(fid: int) -> int:
        _feed_bucketed(make_partition_ds(fid), actors, route)
        return fid

    ray.get([feeder.remote(f) for f in range(n_feeders)])


def streaming_running_totals_partitioned(sf_dir: str, n_feeders: int = 2):
    """Multi-feeder twin of ``streaming_running_totals``: the log is
    partitioned by hash(user_id) % n_feeders (a user's events live wholly
    in one partition), each feeder task streams its partition ts-ordered
    to the SAME bucket actors. Must equal the single-feeder path exactly
    (pinned in tests) — per-user running order is preserved inside one
    feeder, and cross-user interleaving never affects per-user state."""
    import ray

    actor_cls = ray.remote(_RunningTotals)
    actors = [actor_cls.remote() for _ in range(N_STREAM_BUCKETS)]

    def make_partition_ds(fid: int):
        def part_filter(batch: pa.Table) -> pa.Table:
            sel = (hash64(batch["user_id"].to_numpy(), seed=5)
                   % n_feeders) == fid
            return batch.filter(pa.array(sel))

        return (_read_blocked(sf_dir, "events", ["user_id", "ts", "event_id", "value"])
                .map_batches(part_filter, batch_format="pyarrow",
                             zero_copy_batch=True)
                .sort(["ts", "event_id"]))

    _feed_partitioned(make_partition_ds, actors, _route_user_values,
                      n_feeders)
    return _finish_running_totals(actors)


def streaming_running_totals(sf_dir: str):
    """Per-user total + peak running sum over the ts-ordered events log,
    computed INCREMENTALLY by bucket actors fed in stream order — the
    stateful-streaming twin of ``running_sum_events`` (which rebuffers each
    user's history per group). Oracled via SQL window functions."""
    import ray

    ds = (_read_blocked(sf_dir, "events", ["user_id", "ts", "event_id", "value"])
          .sort(["ts", "event_id"]))

    actor_cls = ray.remote(_RunningTotals)
    actors = [actor_cls.remote() for _ in range(N_STREAM_BUCKETS)]

    _feed_bucketed(ds, actors, _route_user_values)
    return _finish_running_totals(actors)


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
# Streaming drift monitor — the reference's SERVING mode (its detector API
# scores batches as they arrive) re-expressed as incremental actor state:
# per-hour value histograms accumulate in bucket actors while the ordered
# log streams through; completed windows are KS-tested against the rest of
# the stream with the exact same finish as the batch query, so the two
# paths are bit-identical (pinned in tests).
# ---------------------------------------------------------------------------


class _WindowHists:
    """Per-bucket incremental state: hour -> int64[bins] value histogram.

    Windows are bucketed by hash(hour), so one actor owns each window
    outright — no cross-actor merge. Histogram accumulation commutes, so
    correctness never depends on arrival order; the shared feeder still
    preserves ts order, so window-close verdict emission would be sound."""

    def __init__(self, bins: int):
        self.bins = bins
        self.h: dict[int, np.ndarray] = {}

    def process(self, hours: np.ndarray, binned: np.ndarray) -> int:
        for hr in np.unique(hours):
            acc = self.h.get(int(hr))
            if acc is None:
                acc = self.h[int(hr)] = np.zeros(self.bins, np.int64)
            acc += np.bincount(binned[hours == hr], minlength=self.bins)
        return len(self.h)

    def finish(self) -> pd.DataFrame:
        hours = sorted(self.h)
        return pd.DataFrame({
            "hour": np.asarray(hours, np.int64),
            "h": [self.h[hr].tobytes() for hr in hours]})


def streaming_drift_monitor(sf_dir: str, bins: int = 256, lo: float = 0.0,
                            hi: float = 500.0, alpha: float = 0.01):
    """Incremental per-window KS drift over the ts-ordered events log —
    must equal ``ks_by_window_events`` exactly (same histograms, same
    finish)."""
    import pyarrow.compute as pc
    import ray

    from .queries import ks_windows_finish

    width = (hi - lo) / bins
    ds = (_read_blocked(sf_dir, "events", ["ts", "value"]).sort("ts"))

    actor_cls = ray.remote(_WindowHists)
    actors = [actor_cls.remote(bins) for _ in range(N_STREAM_BUCKETS)]

    def route(batch: pa.Table):
        hour = pc.floor_temporal(batch["ts"], unit="hour").cast(
            pa.timestamp("us")).cast(pa.int64()).to_numpy()
        v = batch["value"].to_numpy()
        binned = np.clip(((v - lo) / width).astype(np.int64), 0, bins - 1)
        return _route(hour, hour, binned)

    _feed_bucketed(ds, actors, route)
    merged = pd.concat(ray.get([a.finish.remote() for a in actors]),
                       ignore_index=True)
    return ks_windows_finish(merged.hour.to_numpy(), merged.h.to_numpy(),
                             bins, alpha)
