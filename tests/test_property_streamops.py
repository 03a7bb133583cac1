"""Hypothesis property tests for the stream-op kernels added in round 2
session 3: the (user, time) composite key (the machinery under rolling /
as-of / interval joins) and the chunking offset arithmetic. These are pure
numpy/pandas kernels — no Ray session needed."""

import numpy as np
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from serverless_covariate_drift_detection_ray.pipelines.queries import (
    _user_time_key,
)
from serverless_covariate_drift_detection_ray.pipelines.textops import chunk_counts

US = 10**6


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 10**10)),
                min_size=1, max_size=200))
def test_user_time_key_orders_like_lexicographic(pairs):
    """key order == lexicographic (user_id, ts) order, so one global
    searchsorted over the key equals a per-user searchsorted over ts."""
    df = pd.DataFrame(pairs, columns=["user_id", "ts_i"])
    df["ts"] = pd.to_datetime(df.ts_i, unit="us")
    d = df.sort_values(["user_id", "ts"], kind="mergesort")
    _, _, key = _user_time_key(d)
    assert (np.diff(key) >= 0).all()
    # strictly increasing exactly where (user, ts) strictly increases
    u = d.user_id.to_numpy()
    t = d.ts_i.to_numpy()
    strict = (u[1:] != u[:-1]) | (t[1:] != t[:-1])
    assert ((np.diff(key) > 0) == strict).all()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 10**9)),
                min_size=2, max_size=200),
       st.integers(1, 10**6))
def test_user_time_key_window_probe_never_crosses_users(pairs, w):
    """A lower-bound probe key-w*span-units below a user's first event must
    land at that user's segment start — never inside another user."""
    df = pd.DataFrame(pairs, columns=["user_id", "ts_i"])
    df["ts"] = pd.to_datetime(df.ts_i, unit="us")
    d = df.sort_values(["user_id", "ts"], kind="mergesort")
    dense, ts, key = _user_time_key(d, extra_us=w)
    lo = np.searchsorted(key, key - w, side="left")
    # per-element: everything in [lo_i, i] must be the same user
    assert (dense[lo] == dense).all()
    # and the probe excludes nothing inside the window: element at lo_i - 1
    # is either a different user or outside the window
    prev = lo - 1
    ok = (prev < 0) | (dense[np.maximum(prev, 0)] != dense) | (
        ts[np.maximum(prev, 0)] < ts - w)
    assert ok.all()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 500), st.integers(1, 64), st.integers(1, 64))
def test_chunk_count_formula_matches_reference_loop(n, window, stride):
    """The PRODUCTION chunk_counts kernel == the naive loop count of starts
    0, stride, 2*stride, ... until a chunk reaches the end."""
    fast = int(chunk_counts(np.array([n]), window, stride)[0])
    starts, s = [], 0
    while True:
        starts.append(s)
        if s + window >= n:
            break
        s += stride
    assert fast == len(starts)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6),
                          st.floats(-100, 100, allow_nan=False)),
                min_size=0, max_size=120))
def test_running_totals_kernel_matches_naive_loop(rows):
    """The vectorized _running_totals (stable-sort segment + cumsum +
    maximum.reduceat) == a naive per-row loop over one multi-user
    time-ordered stream."""
    from serverless_covariate_drift_detection_ray.pipelines.queries import (
        _running_totals,
    )

    users = np.array([u for u, _ in rows], dtype=np.int64)
    values = np.array([v for _, v in rows], dtype=np.float64)
    ssum: dict[int, float] = {}
    speak: dict[int, float] = {}
    for u, v in rows:
        ns = ssum.get(u, 0.0) + v
        ssum[u] = ns
        if ns > speak.get(u, -np.inf):
            speak[u] = ns
    got_u, got_sum, got_peak = _running_totals(users, values)
    assert got_u.tolist() == sorted(ssum)
    assert got_sum.tolist() == [ssum[u] for u in sorted(ssum)]
    assert got_peak.tolist() == [speak[u] for u in sorted(ssum)]
