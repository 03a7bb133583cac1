"""Candidate pairs and connected components — the shared blocking and
clustering kernels.

``run_pairs`` is the one all-pairs step of every blocked pair search: the
phash near-dup band groups (stages/constraints.py), MinHash band buckets
and set-Jaccard groups (pipelines/textops.py), fuzzy-match blocks and
triangle wedges (pipelines/queries.py). It pairs the rows of each run of
equal keys in a sorted key array, the banding recipe of *Mining of Massive
Datasets* ch. 3. Its one hot-run policy: a run longer than the caller's
cap (``HOT_RUN_CAP`` for the approximate searches, none for the exact
ones) pairs its first ``cap`` rows all-pairs and links each later row to
the run's first row, so a hot run costs O(cap² + M) pairs and stays one
component. ``unique_pairs`` keeps each distinct pair once.

One entry, ``connected_components``, serves every clustering path: the
phash near-dup clusters (stages/constraints.py), semantic dedup
(pipelines/ann.py) and entity resolution (pipelines/queries.py). Both of
its solves are min-label propagation with pointer jumping: ``cc_min_label``
in numpy on the driver up to ``CC_DRIVER_MAX_EDGES`` edges, and
``_cc_rounds`` over the keyed exchange (``functions.exchange``) above.
Convergence is O(log n) rounds thanks to the pointer-jumping contraction;
``max_rounds=64`` is an ample safety cap (2^64 nodes).
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import _as_dataset, _key_shuffle, _remote

CC_DRIVER_MAX_EDGES = 5_000_000  # 16 B/edge -> <= 80 MB edge list on driver
HOT_RUN_CAP = 512  # rows of a run paired all-pairs; later rows star-link

log = logging.getLogger(__name__)


def run_pairs(keys: np.ndarray, cap: int | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(i, j)``, ``i < j``, of every two rows in the same run
    of equal adjacent ``keys`` (sorted, so a run is a key's every row).

    Runs of one size batch into one ``triu_indices`` matrix. A run longer
    than ``cap`` pairs its first ``cap`` rows all-pairs and links each
    later row to the run's first row, logged once per capped run size.
    Callers pass ``cap`` from their own module, so a Ray task's kernel
    carries the value its driver set."""
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    sizes = np.diff(np.r_[starts, keys.size])
    pair_i, pair_j = [], []
    for m in np.unique(sizes):
        if m < 2:
            continue
        first = starts[sizes == m]
        head = int(m) if cap is None else min(int(m), cap)
        iu, ju = np.triu_indices(head, 1)
        pair_i.append((first[:, None] + iu).ravel())
        pair_j.append((first[:, None] + ju).ravel())
        if head < m:
            log.warning("run_pairs: %d runs of %d rows pair their first %d "
                        "rows; the rest star-link to the run's first row",
                        first.size, m, head)
            pair_i.append(np.repeat(first, m - head))
            pair_j.append((first[:, None] + np.arange(head, m)).ravel())
    if not pair_i:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(pair_i), np.concatenate(pair_j)


def unique_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Positions of the first occurrence of each distinct pair
    ``(a[k], b[k])`` of two int64 columns, ordered by ``(a, b)``: any ids,
    as no two are packed into one key."""
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    keep = np.ones(a.size, bool)
    keep[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return order[keep]


def cc_labels(n: int, ai: np.ndarray, bi: np.ndarray,
              max_rounds: int = 64) -> np.ndarray:
    """Component labels for ``n`` nodes (0..n-1) and index-space undirected
    edges ``(ai, bi)``. Returns per-node labels where each label is the
    minimum node index of its component (isolated nodes label themselves)."""
    labels = np.arange(n, dtype=np.int64)
    for _ in range(max_rounds):
        before = labels.copy()
        np.minimum.at(labels, ai, labels[bi])
        np.minimum.at(labels, bi, labels[ai])
        labels = labels[labels]  # pointer jumping halves tree depth per round
        if np.array_equal(labels, before):
            break
    return labels


def cc_min_label(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Node-id-space wrapper: edges given as arbitrary int64 node ids.

    Returns ``(nodes sorted ascending, component rep id per node)`` where the
    rep is the minimum node id in the component."""
    nodes = np.unique(np.concatenate([a, b]))
    ai = np.searchsorted(nodes, a)
    bi = np.searchsorted(nodes, b)
    lab = cc_labels(nodes.size, ai, bi)
    return nodes, nodes[lab]


def connected_components(edges, nodes=None):
    """Connected components of the undirected graph ``edges``, a Dataset or
    Arrow table whose first two columns are the int64 endpoints of one edge
    a row (other columns are not read; duplicate and self edges are
    harmless). ``nodes``, if given, is a Dataset or Arrow table of node ids
    (first column) that belong to the graph even when in no edge, with an
    optional int64 weight (second column; 1 when absent).

    Returns a Dataset ``(node, lab, size)``, one row for every edge endpoint
    and every node of ``nodes``: ``lab`` is the component's minimum id under
    signed int64 order (a node in no edge labels itself) and ``size`` the
    sum of its members' weights, their count when unweighted. Ids stay
    int64 throughout, never through pandas' float64, so full-range ids
    (|id| >= 2^53, e.g. phash values) stay bit-exact.

    Up to ``CC_DRIVER_MAX_EDGES`` edges the edge list is collected and
    solved by ``cc_min_label``, and the labels stay on the driver: they are
    broadcast to ``nodes`` (``_label_nodes``) and the driver sums each
    component's size. Above it ``_cc_rounds`` solves it where the edges
    are; the labels then meet ``nodes`` in one ``_key_shuffle`` on the
    node, and one on the label sums each component's size. ``nodes`` lists
    each id once."""
    import ray
    import ray.data

    if isinstance(edges, pa.Table):
        edges = ray.data.from_arrow(edges)
    edges = edges.materialize()
    if edges.count() <= CC_DRIVER_MAX_EDGES:
        # 0-row blocks may come back without a schema: skip them
        parts = [t for t in ray.get(edges.to_arrow_refs()) if t.num_rows]
        a, b = (np.concatenate([_ids(t.column(i)) for t in parts] or
                               [np.empty(0, np.int64)]) for i in (0, 1))
        node, lab = cc_min_label(a, b)
        labels = pa.table({"node": node, "lab": lab})
    else:
        labels = _cc_rounds(edges)
    if isinstance(labels, pa.Table):  # solved on the driver: size it there
        return (ray.data.from_arrow(_sized(labels)) if nodes is None
                else _label_nodes(labels, nodes))
    if nodes is not None:
        labels = _key_shuffle([labels, nodes], ["node"], _adopt,
                              [_label_rows, _node_rows], "pyarrow")
    return _as_dataset(_key_shuffle(labels, ["lab"], _sized, None, "pyarrow"))


def _label_nodes(labels: pa.Table, nodes):
    """``connected_components``' output from the driver's ``labels`` (node,
    lab; sorted by node) and ``nodes``, with no exchange: a task a nodes
    block looks its ids up in the broadcast labels (``_split_nodes``), and
    the labeled nodes' weights, bounded by the label table, come back to
    the driver, which sizes the components (an endpoint that ``nodes`` does
    not list weighs 1)."""
    import ray
    import ray.data

    if isinstance(nodes, pa.Table):
        nodes = ray.data.from_arrow(nodes)
    split = _remote(_split_nodes).options(num_returns=2)
    lab_ref = ray.put(labels)
    parts = [split.remote(ref, lab_ref)
             for bundle in nodes.iter_internal_ref_bundles()
             for ref, meta in bundle.blocks if meta.num_rows]
    node, w = _ids(labels["node"]), np.ones(labels.num_rows, np.int64)
    for t in ray.get([listed for _, listed in parts]):
        w[np.searchsorted(node, _ids(t["node"]))] = _ids(t["w"])
    sized = _sized(labels.append_column("w", pa.array(w)))
    return ray.data.from_arrow_refs([ray.put(sized), *(p for p, _ in parts)])


def _split_nodes(block, labels: pa.Table) -> tuple:
    """One nodes block against the labels: its nodes in no edge, each a
    component of its own ``(node, lab = node, size = w)``, and its labeled
    nodes' ``(node, w)``."""
    from ray.data.block import BlockAccessor

    t = _node_rows(BlockAccessor.for_block(block).to_arrow())
    hit = pc.is_in(t["node"], value_set=labels.column("node").combine_chunks())
    alone = t.filter(pc.invert(hit))
    return (pa.table({"node": alone["node"], "lab": alone["node"],
                      "size": alone["w"]}), t.filter(hit).select(["node", "w"]))


def _ids(col) -> np.ndarray:
    return col.to_numpy(zero_copy_only=False).astype(np.int64)


def _label_rows(t: pa.Table) -> pa.Table:
    return pa.table({"node": t["node"].cast(pa.int64()),
                     "lab": t["lab"].cast(pa.int64()),
                     "w": pa.nulls(t.num_rows, pa.int64())})


def _node_rows(t: pa.Table) -> pa.Table:
    w = (t.column(1).cast(pa.int64()) if t.num_columns > 1
         else pa.array(np.ones(t.num_rows, np.int64)))
    return pa.table({"node": t.column(0).cast(pa.int64()),
                     "lab": pa.nulls(t.num_rows, pa.int64()), "w": w})


def _adopt(t: pa.Table) -> pa.Table:
    """Node-keyed bucket of label rows (``lab`` set) and node rows (``w``
    set): every node adopts its label, or itself when it is in no edge, and
    sums its weights (1 for an endpoint that ``nodes`` does not list)."""
    g = t.group_by("node", use_threads=False).aggregate(
        [("lab", "min"), ("w", "sum")])
    return pa.table({"node": g["node"],
                     "lab": pc.coalesce(g["lab_min"], g["node"]),
                     "w": pc.coalesce(g["w_sum"], pa.scalar(1, pa.int64()))})


def _sized(t: pa.Table) -> pa.Table:
    """Label-keyed bucket: every member of a component is here, so the sum
    of their weights is the component's size."""
    lab = _ids(t["lab"])
    w = _ids(t["w"]) if "w" in t.column_names else np.ones(lab.size, np.int64)
    u, inv = np.unique(lab, return_inverse=True)
    size = np.zeros(u.size, np.int64)
    np.add.at(size, inv, w)
    return pa.table({"node": pa.array(_ids(t["node"])),
                     "lab": pa.array(lab), "size": pa.array(size[inv])})


# (node, lab) label rows; the edges of an empty graph may carry no schema
_LABEL_SCHEMA = pa.schema([("node", pa.int64()), ("lab", pa.int64())])


def _cc_rounds(edges, max_rounds: int = 64):
    """Labels ``(node, lab)`` of every endpoint of ``edges`` by Pregel-style
    rounds of three ``_key_shuffle`` calls: each label reaches its node's
    neighbours (edges and labels joined on the source), each node takes the
    minimum of what reached it (messages and labels on the node), then a
    pointer-jumping shortcut ``lab <- lab[lab]`` (pointers and their
    authorities on the label). The driver sees only the changed count of a
    round. Every kernel joins by numpy searchsorted over int64 arrays."""
    labels = _key_shuffle(edges, ["node"], _distinct_nodes, _endpoints,
                          "pyarrow", _LABEL_SCHEMA)
    for _ in range(max_rounds):
        msgs = _key_shuffle([edges, labels], ["j"], _join_msgs,
                            [_sym_edges, _label_src], "pyarrow")
        merged = _key_shuffle([msgs, labels], ["node"], _min_merge,
                              [None, _old_label], "pyarrow")
        if not _as_dataset(merged).sum("changed"):  # None: no edge at all
            return merged
        labels = _key_shuffle([merged, merged], ["k"], _shortcut,
                              [_ptr_rows, _auth_rows], "pyarrow")
    return labels


def _endpoints(t: pa.Table) -> pa.Table:
    return pa.table({"node": np.unique(np.concatenate(
        [_ids(t.column(0)), _ids(t.column(1))]))})


def _distinct_nodes(t: pa.Table) -> pa.Table:
    u = np.unique(_ids(t["node"]))
    return pa.table({"node": u, "lab": u})


def _sym_edges(t: pa.Table) -> pa.Table:
    # both directions, keyed on the source j
    a, b = _ids(t.column(0)), _ids(t.column(1))
    return pa.table({"j": np.concatenate([a, b]), "dst": np.concatenate([b, a]),
                     "lab": pa.nulls(2 * a.size, pa.int64())})


def _label_src(t: pa.Table) -> pa.Table:
    return pa.table({"j": t["node"], "dst": pa.nulls(t.num_rows, pa.int64()),
                     "lab": t["lab"]})


def _join_msgs(t: pa.Table) -> pa.Table:
    # label rows (lab non-null) joined to edge rows (dst non-null) on j:
    # emit (node = dst, cand = lab[src]); every src has a label row.
    # NB: to_numpy on a WITH-NULLS int64 column yields float64 (lossy
    # >= 2^53) — drop_null() first keeps int64 exact and aligns with the
    # validity mask because nulls are exactly the other row kind
    is_lab = pc.is_valid(t["lab"]).to_numpy(zero_copy_only=False)
    j = _ids(t["j"])
    jl = j[is_lab]
    lab = _ids(t["lab"].drop_null())
    order = np.argsort(jl, kind="stable")
    jl, lab = jl[order], lab[order]
    dst = _ids(t["dst"].drop_null())
    cand = lab[np.searchsorted(jl, j[~is_lab])]
    return pa.table({"node": dst, "cand": cand,
                     "old": pa.nulls(dst.size, pa.int64())})


def _old_label(t: pa.Table) -> pa.Table:
    return pa.table({"node": t["node"], "cand": t["lab"], "old": t["lab"]})


def _min_merge(t: pa.Table) -> pa.Table:
    node = _ids(t["node"])
    cand = _ids(t["cand"])  # never null
    if not node.size:  # the typed empty output of an empty graph
        return pa.table({"node": node, "lab": node, "changed": node})
    has_old = pc.is_valid(t["old"]).to_numpy(zero_copy_only=False)
    order = np.argsort(node, kind="stable")
    ns, cs = node[order], cand[order]
    starts = np.flatnonzero(np.r_[True, ns[1:] != ns[:-1]])
    nodes_u = ns[starts]
    new = np.minimum.reduceat(cs, starts)
    # exactly one old (label) row per node; align by node sort
    node_old = node[has_old]
    old = _ids(t["old"].drop_null())
    oo = np.argsort(node_old, kind="stable")
    node_old, old = node_old[oo], old[oo]
    assert old.size == nodes_u.size and np.array_equal(node_old, nodes_u), \
        "label row missing for a node"
    return pa.table({"node": nodes_u, "lab": new,
                     "changed": (new < old).astype(np.int64)})


def _ptr_rows(t: pa.Table) -> pa.Table:
    # pointer rows meet their LABEL's own label row
    return pa.table({"k": t["lab"], "node": t["node"],
                     "plab": pa.nulls(t.num_rows, pa.int64())})


def _auth_rows(t: pa.Table) -> pa.Table:
    return pa.table({"k": t["node"], "node": pa.nulls(t.num_rows, pa.int64()),
                     "plab": t["lab"]})


def _shortcut(t: pa.Table) -> pa.Table:
    # lab <- lab[lab]: every label value is itself a node id, so each
    # pointer row finds its authority row in the same bucket
    is_auth = pc.is_valid(t["plab"]).to_numpy(zero_copy_only=False)
    k = _ids(t["k"])
    ka = k[is_auth]
    pl = _ids(t["plab"].drop_null())
    order = np.argsort(ka, kind="stable")
    ka, pl = ka[order], pl[order]
    nd = _ids(t["node"].drop_null())
    return pa.table({"node": nd, "lab": pl[np.searchsorted(ka, k[~is_auth])]})
