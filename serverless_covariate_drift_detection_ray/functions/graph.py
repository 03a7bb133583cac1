"""Connected components over edge lists — the shared clustering kernel.

One implementation of vectorized min-label propagation with pointer
jumping, used by every near-dup clustering path (phash band clusters in
stages/constraints.py, embedding-cosine semantic dedup in pipelines/ann.py).
Convergence is O(log n) rounds thanks to the pointer-jumping contraction;
``max_rounds=64`` is an ample safety cap (2^64 nodes), matching the
original inline kernels.
"""

from __future__ import annotations

import numpy as np


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


def cc_min_label_distributed(edges_ds, max_rounds: int = 64):
    """Distributed connected components over an edge Dataset with int64
    columns ``va``/``vb`` — the at-scale analogue of :func:`cc_min_label`
    for edge lists too large for one driver collect.

    One distributed CC for every caller: the phash near-dup clusters
    (stages/constraints.py), semantic dedup (pipelines/ann.py) and entity
    resolution (pipelines/queries.py). Pregel-style rounds (min-label
    propagation plus a pointer-jumping shortcut, three salted-bucket
    shuffles per round, O(log n) rounds), and every bucket merge runs in
    **pyarrow batch format with numpy searchsorted joins** — node ids never
    round-trip through pandas nullable-int → float64, so full-range 64-bit
    ids (|id| ≥ 2^53, e.g. phash values) stay bit-exact. Duplicate / self
    edges are harmless (min-label is idempotent).

    Returns a ``(node, lab)`` Dataset covering every edge endpoint
    (isolated nodes are absent — callers treat them as singletons); ``lab``
    is the component's minimum id under signed int64 order, matching
    :func:`cc_min_label`. The driver sees only per-round changed counts.
    """
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from .hashing import splitmix64

    n_edges = edges_ds.count()
    if n_edges == 0:
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], pa.int64()), "lab": pa.array([], pa.int64())
        }))
    n_buckets = max(8, n_edges // 2_000_000)

    def bkt_of(x: np.ndarray) -> np.ndarray:
        return (splitmix64(x.astype(np.uint64))
                % np.uint64(n_buckets)).astype(np.int64)

    # symmetrized edges tagged for the join-on-source shuffle:
    # (j = src, dst, lab = null, bkt = h(src))
    def sym(batch: pa.Table) -> pa.Table:
        a = batch["va"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["vb"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        return pa.table({
            "j": pa.array(src), "dst": pa.array(dst),
            "lab": pa.nulls(src.size, pa.int64()),
            "bkt": pa.array(bkt_of(src)),
        })

    edges = edges_ds.map_batches(sym, batch_format="pyarrow",
                                 zero_copy_batch=True).materialize()

    # labels init: one (node, lab=node) row per distinct endpoint —
    # per-block uniques merged exactly inside each node-hash bucket
    def init_part(batch: pa.Table) -> pa.Table:
        u = np.unique(batch["j"].to_numpy())
        return pa.table({"node": pa.array(u), "bkt": pa.array(bkt_of(u))})

    def init_merge(t: pa.Table) -> pa.Table:
        u = np.unique(t["node"].to_numpy())
        return pa.table({"node": pa.array(u), "lab": pa.array(u)})

    labels = (edges.map_batches(init_part, batch_format="pyarrow")
              .groupby("bkt").map_groups(init_merge, batch_format="pyarrow")
              .materialize())

    def tag_labels_as_src(batch: pa.Table) -> pa.Table:
        n = batch["node"].to_numpy().astype(np.int64)
        return pa.table({
            "j": pa.array(n), "dst": pa.nulls(n.size, pa.int64()),
            "lab": batch["lab"].cast(pa.int64()), "bkt": pa.array(bkt_of(n)),
        })

    def join_msgs(t: pa.Table) -> pa.Table:
        # label rows (lab non-null) joined to edge rows (dst non-null) on j:
        # emit (node = dst, cand = lab[src]); every src has a label row.
        # NB: to_numpy on a WITH-NULLS int64 column yields float64 (lossy
        # ≥ 2^53) — drop_null() first keeps int64 exact and aligns with the
        # validity mask because nulls are exactly the other row kind
        is_lab = pc.is_valid(t["lab"]).to_numpy(zero_copy_only=False)
        j = t["j"].to_numpy()
        jl = j[is_lab]
        lab = t["lab"].drop_null().to_numpy().astype(np.int64)
        order = np.argsort(jl, kind="stable")
        jl, lab = jl[order], lab[order]
        je = j[~is_lab]
        dst = t["dst"].drop_null().to_numpy().astype(np.int64)
        cand = lab[np.searchsorted(jl, je)]
        return pa.table({"node": pa.array(dst), "cand": pa.array(cand),
                         "old": pa.nulls(dst.size, pa.int64()),
                         "nbkt": pa.array(bkt_of(dst))})

    def tag_old(batch: pa.Table) -> pa.Table:
        n = batch["node"].to_numpy().astype(np.int64)
        lab = batch["lab"].cast(pa.int64())
        return pa.table({"node": pa.array(n), "cand": lab, "old": lab,
                         "nbkt": pa.array(bkt_of(n))})

    def min_merge(t: pa.Table) -> pa.Table:
        node = t["node"].to_numpy().astype(np.int64)
        cand = t["cand"].to_numpy().astype(np.int64)  # never null
        has_old = pc.is_valid(t["old"]).to_numpy(zero_copy_only=False)
        order = np.argsort(node, kind="stable")
        ns, cs = node[order], cand[order]
        starts = np.flatnonzero(np.r_[True, ns[1:] != ns[:-1]])
        nodes_u = ns[starts]
        new = np.minimum.reduceat(cs, starts)
        # exactly one old (label) row per node; align by node sort —
        # drop_null keeps the int64 dtype exact (see join_msgs note)
        node_old = node[has_old]
        old = t["old"].drop_null().to_numpy().astype(np.int64)
        oo = np.argsort(node_old, kind="stable")
        node_old, old = node_old[oo], old[oo]
        assert old.size == nodes_u.size and np.array_equal(node_old, nodes_u), \
            "label row missing for a node"
        changed = (new < old).astype(np.int64)
        return pa.table({"node": pa.array(nodes_u), "lab": pa.array(new),
                         "changed": pa.array(changed)})

    def tag_ptr(batch: pa.Table) -> pa.Table:
        # pointer rows co-located with their LABEL's own label row
        lab = batch["lab"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "k": pa.array(lab), "node": batch["node"].cast(pa.int64()),
            "plab": pa.nulls(lab.size, pa.int64()), "sbkt": pa.array(bkt_of(lab)),
        })

    def tag_auth(batch: pa.Table) -> pa.Table:
        n = batch["node"].to_numpy().astype(np.int64)
        return pa.table({
            "k": pa.array(n), "node": pa.nulls(n.size, pa.int64()),
            "plab": batch["lab"].cast(pa.int64()), "sbkt": pa.array(bkt_of(n)),
        })

    def shortcut(t: pa.Table) -> pa.Table:
        # lab ← lab[lab]: every label value is itself a node id, so each
        # pointer row finds its authority row in the same bucket
        is_auth = pc.is_valid(t["plab"]).to_numpy(zero_copy_only=False)
        k = t["k"].to_numpy()
        ka = k[is_auth]
        pl = t["plab"].drop_null().to_numpy().astype(np.int64)
        order = np.argsort(ka, kind="stable")
        ka, pl = ka[order], pl[order]
        kp = k[~is_auth]
        nd = t["node"].drop_null().to_numpy().astype(np.int64)
        newlab = pl[np.searchsorted(ka, kp)]
        return pa.table({"node": pa.array(nd), "lab": pa.array(newlab)})

    for _ in range(max_rounds):
        # repartition each round's output back to n_buckets blocks: the
        # union→sort→union→sort chain otherwise multiplies the block count
        # ~4x per round (geometric — round 8 would shuffle thousands of
        # near-empty blocks and the fixed per-block sort cost dominates)
        merged = (edges.union(labels.map_batches(
            tag_labels_as_src, batch_format="pyarrow"))
            .groupby("bkt").map_groups(join_msgs, batch_format="pyarrow")
            .union(labels.map_batches(tag_old, batch_format="pyarrow"))
            .groupby("nbkt").map_groups(min_merge, batch_format="pyarrow")
            .repartition(n_buckets)
            .materialize())
        n_changed = merged.sum("changed")
        new_labels = merged.drop_columns(["changed"])
        if not n_changed:
            return new_labels
        labels = (new_labels.map_batches(tag_ptr, batch_format="pyarrow")
                  .union(new_labels.map_batches(tag_auth, batch_format="pyarrow"))
                  .groupby("sbkt").map_groups(shortcut, batch_format="pyarrow")
                  .repartition(n_buckets)
                  .materialize())
    return labels
