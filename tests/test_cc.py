"""Property tests for the shared graph kernels (functions/graph.py): the
candidate-pair kernel of every blocked all-pairs step must equal a
brute-force enumeration of each run's pairs, and the connected-components
labels (semantic dedup, entity clusters, the phash cluster passes) must
equal a ground-truth union-find over arbitrary edge lists, on both sides
of the driver-solve gate."""

import numpy as np
import pytest
from conftest import _schema_changes
from hypothesis import given, settings
from hypothesis import strategies as st

from serverless_covariate_drift_detection_ray.functions.graph import cc_min_label as _cc_min_label
from serverless_covariate_drift_detection_ray.functions.graph import run_pairs, unique_pairs


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-2**63, 2**63 - 1), st.integers(0, 40)),
                max_size=12, unique_by=lambda r: r[0]),
       st.integers(1, 6))
def test_run_pairs_match_brute_force(runs, cap):
    """Sorted keys with runs of 0-40 rows: uncapped, every two rows of a
    run pair once with i < j; capped, a run's first ``cap`` rows pair
    all-pairs and each later row pairs with the run's first row only."""
    runs = sorted(runs)
    keys = np.repeat(np.array([k for k, _ in runs], np.int64),
                     [m for _, m in runs])
    rows, start = [], 0
    for _, m in runs:
        rows.append(list(range(start, start + m)))
        start += m

    def got(c):
        i, j = run_pairs(keys, c)
        return sorted(zip(i.tolist(), j.tolist()))

    assert got(None) == sorted((r[x], r[y]) for r in rows
                               for x in range(len(r))
                               for y in range(x + 1, len(r)))
    assert got(cap) == sorted(
        [(r[x], r[y]) for r in rows for x in range(min(cap, len(r)))
         for y in range(x + 1, min(cap, len(r)))]
        + [(r[0], r[y]) for r in rows for y in range(cap, len(r))])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                max_size=40))
def test_unique_pairs_keep_each_first(pairs):
    a = np.array([p for p, _ in pairs], np.int64) * (1 << 40)
    b = np.array([q for _, q in pairs], np.int64) * (1 << 40)
    first = unique_pairs(a, b)
    assert [pairs[k] for k in first] == sorted(set(pairs))
    assert first.tolist() == [pairs.index(p) for p in sorted(set(pairs))]


def _union_find(a, b):
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in zip(a, b):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return {x: find(x) for x in parent}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                min_size=1, max_size=120))
def test_cc_matches_union_find(edges):
    a = np.array([u for u, _ in edges], dtype=np.int64)
    b = np.array([v for _, v in edges], dtype=np.int64)
    nodes, reps = _cc_min_label(a, b)
    truth = _union_find(a.tolist(), b.tolist())
    # every touched node appears exactly once with the component-min rep
    assert sorted(nodes.tolist()) == sorted(truth)
    got = dict(zip(nodes.tolist(), reps.tolist()))
    # rep of each truth-component must be its min member in both
    comp = {}
    for n, r in truth.items():
        comp.setdefault(r, []).append(n)
    for members in comp.values():
        m = min(members)
        for n in members:
            assert got[n] == m


def test_cc_self_loops_and_duplicates():
    a = np.array([5, 5, 7, 9, 9], dtype=np.int64)
    b = np.array([5, 6, 6, 9, 8], dtype=np.int64)
    nodes, reps = _cc_min_label(a, b)
    got = dict(zip(nodes.tolist(), reps.tolist()))
    assert got == {5: 5, 6: 5, 7: 5, 8: 8, 9: 8}


def test_distributed_cc_dedup_matches_driver_path(ray_session, monkeypatch,
                                                  caplog):
    """Forcing the edge gate to 0 routes semantic dedup through the
    distributed Pregel-style CC; survivors and cluster sizes must match the
    driver-kernel path exactly, and Ray logs no block schema change."""
    import pandas as pd

    from serverless_covariate_drift_detection_ray.functions import graph
    from serverless_covariate_drift_detection_ray.pipelines import ann

    sf = "/root/testdata/sf0.001"
    a = ann.dedup_semantic_embeddings(sf).to_pandas().sort_values(
        "vec_id").reset_index(drop=True)
    monkeypatch.setattr(graph, "CC_DRIVER_MAX_EDGES", 0)
    out = []
    changes = _schema_changes(caplog, lambda: out.append(
        ann.dedup_semantic_embeddings(sf).to_pandas()))
    b = out[0].sort_values("vec_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b[a.columns], check_dtype=True)
    assert not changes, changes


@pytest.mark.parametrize("gate", [10**9, -1], ids=["driver", "rounds"])
@pytest.mark.parametrize("case", ["chain", "empty", "isolated"])
def test_cc_min_label_distributed_full_int64_range(ray_session, monkeypatch,
                                                   case, gate):
    """``connected_components`` must match the driver kernel on both sides
    of its edge gate: on ids spanning the FULL signed-int64 domain (|id| >=
    2^53 would alias through a pandas float64 round-trip), on a long chain
    (adversarial diameter for plain propagation), with duplicate and self
    edges; with no edge at all; and with isolated ``nodes``, which come
    back labelled by themselves with size 1 (``nodes`` that are also
    endpoints come back once)."""
    import pyarrow as pa
    import ray.data

    from serverless_covariate_drift_detection_ray.functions import graph

    rng = np.random.default_rng(11)
    ids = np.unique(rng.integers(-2**63, 2**63 - 1, size=120, dtype=np.int64))
    chain = ids[:17]
    a = list(chain[:-1]) + [int(ids[0])]          # chain + a self edge
    b = list(chain[1:]) + [int(ids[0])]
    for _ in range(60):
        i, j = rng.integers(0, ids.size, 2)
        a.append(int(ids[i]))
        b.append(int(ids[j]))
    a += a[:10]                                    # duplicate edges
    b += b[:10]
    a = np.array(a if case != "empty" else [], np.int64)
    b = np.array(b if case != "empty" else [], np.int64)
    nodes_ref, rep_ref = _cc_min_label(a, b)
    _, inv, counts = np.unique(rep_ref, return_inverse=True, return_counts=True)
    size_ref = counts[inv]
    nodes = None
    if case == "isolated":
        iso = np.setdiff1d(np.array([-2**63, -5, 0, 2**53 + 1, 2**63 - 1],
                                    np.int64), nodes_ref)
        nodes = pa.table({"id": np.concatenate([iso, nodes_ref[:3]])})
        order = np.argsort(np.concatenate([nodes_ref, iso]), kind="stable")
        nodes_ref = np.concatenate([nodes_ref, iso])[order]
        rep_ref = np.concatenate([rep_ref, iso])[order]
        size_ref = np.concatenate([size_ref, np.ones(iso.size, np.int64)])[order]
    monkeypatch.setattr(graph, "CC_DRIVER_MAX_EDGES", gate)
    pairs = ray.data.from_arrow(
        pa.table({"va": pa.array(a), "vb": pa.array(b)}))
    if a.size:  # Ray's repartition of 0 rows drops the schema
        pairs = pairs.repartition(4)
    cc = graph.connected_components(pairs, nodes)
    assert cc.schema().names == ["node", "lab", "size"]
    out = (cc.to_pandas().sort_values("node").reset_index(drop=True)
           if nodes_ref.size else cc.to_pandas())
    assert len(out) == nodes_ref.size
    if nodes_ref.size:
        assert np.array_equal(out["node"].to_numpy(), nodes_ref)
        assert np.array_equal(out["lab"].to_numpy(), rep_ref)
        assert np.array_equal(out["size"].to_numpy(), size_ref)


def test_cc_rounds_on_schemaless_empty_edges(ray_session, monkeypatch):
    """Ray's repartition of 0 rows hands on blocks without a schema; the
    distributed rounds then type their empty labels from the schema they
    pass the exchange, and an empty graph comes back as the typed empty
    result."""
    import pyarrow as pa
    import ray.data

    from serverless_covariate_drift_detection_ray.functions import graph

    monkeypatch.setattr(graph, "CC_DRIVER_MAX_EDGES", -1)
    typed_empty = pa.table({"va": pa.array([], pa.int64()),
                            "vb": pa.array([], pa.int64())})
    cc = graph.connected_components(
        ray.data.from_arrow(typed_empty).repartition(4))
    assert cc.schema().names == ["node", "lab", "size"]
    assert cc.count() == 0
