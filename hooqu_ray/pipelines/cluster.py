"""Connected-components clustering over duplicate pairs — the step that
turns near-dup PAIRS (MinHash/SimHash/embedding LSH → ``verify_pairs``)
into dedup CLUSTERS, so a corpus can keep exactly one representative per
group of mutual near-duplicates (pair-level dedup alone under-deletes:
A~B and B~C does not emit (A, C), but all three are one document).

The reference (``mfcabrera/hooqu``) has no graph operators at all; this
is engine-extension tier (SURVEY.md §8), built for the 100-TB shape:

- **Distributed min-label propagation ("hash-to-min")** — per sweep,
  each node's label is joined onto its edges through ONE hash exchange
  (``shuffle.hash_exchange``) of the tagged union of label and edge rows
  on the source node, with a local Arrow (Acero) join per bucket; the new
  label is a ``tree_group_sum`` min per node (a second exchange, of
  per-block partial mins).  Only slim ``(node, label)``
  / ``(src, dst)`` integer-or-string rows ever move; neither the edge set
  nor the label set is EVER collected to the driver or broadcast.  The
  exchange sizes its buckets from the cluster and the input, and its
  output is one block per bucket, so no sweep compounds the block count.
- Labels are elementwise non-increasing, so the label MULTISET changes
  iff any label changed (no permutation can preserve the multiset under
  a strict decrease).  Convergence is therefore detected by a per-sweep
  signature — the wrapping sum of ``stable_hash64(label)`` — computed
  per block and summed on the driver; no old-vs-new join needed.
- Plain min-propagation needs O(graph diameter) sweeps.  Dedup graphs
  are unions of near-cliques (LSH buckets) and stars — diameter is
  small in practice; ``max_iters`` bounds the worst case and a
  non-converged exit raises a ``UserWarning`` instead of returning a
  silently-wrong labeling.
"""

from __future__ import annotations

import warnings
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_SLOT_LABEL = 0
_SLOT_EDGE = 1


def _empty_components(id_type) -> "pa.Table":
    return pa.table(
        {"node": pa.array([], id_type), "cluster_id": pa.array([], id_type)}
    )


def _bucket_join(g: pa.Table) -> pa.Table:
    """One exchange bucket (complete source nodes): attach each source
    node's current label to its outgoing edges with a local Acero hash
    join, emit label candidates — ``(dst, label(src))`` per edge plus the
    self candidate ``(node, label)`` per node — then COMBINE locally: one
    Arrow ``group_by(node).min`` per bucket, so the following global min
    per node folds one row per (bucket, node) instead of one per edge
    endpoint (≈ (V + 2E) → ≤ V·avg-buckets-per-node rows; ~4× slimmer on
    near-clique dedup graphs)."""
    lab = g.filter(
        pc.equal(g.column("slot"), _SLOT_LABEL)
    ).select(["node", "lbl"])
    edg = g.filter(
        pc.equal(g.column("slot"), _SLOT_EDGE)
    ).select(["node", "peer"])
    id_type = lab.schema.field("lbl").type
    if len(edg) and len(lab):
        joined = edg.join(lab, keys="node", join_type="inner")
        peer = joined.column("peer").combine_chunks()
        peer_lbl = joined.column("lbl").combine_chunks()
    else:
        peer = pa.array([], id_type)
        peer_lbl = pa.array([], id_type)
    cand = pa.table(
        {
            "node": pa.concat_arrays(
                [lab.column("node").combine_chunks(), peer]
            ),
            "cand": pa.concat_arrays(
                [lab.column("lbl").combine_chunks(), peer_lbl]
            ),
        }
    )
    return cand.group_by("node").aggregate([("cand", "min")]).rename_columns(
        ["node", "cand"]
    )


def _label_signature(t: pa.Table) -> pa.Table:
    """Per-block wrapping hash-sum of the label multiset (uint64 —
    deterministic across workers via stable_hash64)."""
    from ..util import stable_hash64

    s = np.uint64(stable_hash64(t.column("label")).sum())
    return pa.table({"sig": pa.array([s], pa.uint64())})


def connected_components(pairs, id_a: str = "id_a", id_b: str = "id_b", *,
                         max_iters: int = 25,
                         id_type: Optional[pa.DataType] = None):
    """Label every node of the undirected pair graph with the MINIMUM node
    id reachable from it (its connected component's canonical id).

    ``pairs``: a ``ray.data.Dataset`` with columns ``id_a``/``id_b``
    (e.g. the output of :func:`~hooqu_ray.pipelines.dedup.verify_pairs`).
    Rows where either id is null are dropped — this also absorbs the
    oversized-bucket FLAG rows the LSH pair stages interleave (null ids
    with ``__oversized_bucket`` metadata); note that dropping a flag row
    means that bucket's pairs were never enumerated, so its components may
    be split (same recall caveat as ``verify_pairs``).

    ``id_type``: optional Arrow type to cast both id columns to (e.g.
    ``pa.int64()`` when upstream empty pandas blocks inferred float64).

    Returns a ``ray.data.Dataset`` with one row per node that appears in
    any pair: ``(node, cluster_id)``; singleton documents (no pairs) are
    absent, as in the SQL reachability closure.  ``cluster_id`` ==
    component-minimum id, so representatives are ``node == cluster_id``
    (see :func:`cluster_representatives`).  Each sweep is one hash
    exchange on the source node, one tree min fold and one signature
    collect (module docstring)."""
    import ray.data as rd

    from ..functions.shuffle import hash_exchange, tree_distinct, tree_group_sum
    from ..util import collect_arrow

    def norm(t: pa.Table) -> pa.Table:
        a, b = t.column(id_a), t.column(id_b)
        keep = pc.and_(pc.is_valid(a), pc.is_valid(b))
        t = t.filter(keep)
        a, b = t.column(id_a), t.column(id_b)
        if id_type is not None:
            a, b = a.cast(id_type), b.cast(id_type)
        return pa.table({"u": a, "v": b})

    # Edges are re-consumed every sweep — materialize ONCE (slim 2-column
    # rows, distributed in the object store; a lazy dataset would re-run
    # the whole upstream LSH+verify lineage per sweep).
    edges = pairs.map_batches(norm, batch_format="pyarrow").materialize()
    if edges.count() == 0:
        return rd.from_arrow(_empty_components(id_type or pa.int64()))

    def explode_nodes(t: pa.Table) -> pa.Table:
        return pa.table({"node": pa.concat_arrays(
            [t.column("u").combine_chunks(), t.column("v").combine_chunks()]
        )})

    def init_labels(t: pa.Table) -> pa.Table:
        return pa.table({"node": t.column("node"), "label": t.column("node")})

    # Distinct node set via tree_distinct; L0(u) = u.
    labels = (
        tree_distinct(
            edges.map_batches(explode_nodes, batch_format="pyarrow"),
            ["node"])
        .map_batches(init_labels, batch_format="pyarrow")
        .materialize()
    )

    # Both sides share one schema; the slot tag tells the rows apart, and
    # the column a side does not use carries its node ids (never read).
    def lab_side(t: pa.Table) -> pa.Table:
        node = t.column("node")
        return pa.table({
            "node": node, "peer": node, "lbl": t.column("label"),
            "slot": pa.array(np.full(len(t), _SLOT_LABEL, dtype=np.int32)),
        })

    def edge_side(t: pa.Table) -> pa.Table:
        u = t.column("u").combine_chunks()
        v = t.column("v").combine_chunks()
        src = pa.concat_arrays([u, v])
        return pa.table({
            "node": src, "peer": pa.concat_arrays([v, u]), "lbl": src,
            "slot": pa.array(np.full(len(src), _SLOT_EDGE, dtype=np.int32)),
        })

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {"node": t.column("node"), "label": t.column("cand")}
        )

    def signature(lbl_ds) -> int:
        sigs = collect_arrow(
            lbl_ds.map_batches(_label_signature, batch_format="pyarrow"))
        return 0 if sigs is None else int(
            sigs.column("sig").to_numpy().sum(dtype=np.uint64))

    sig = signature(labels)
    converged = False
    for _ in range(max_iters):
        unioned = labels.map_batches(lab_side, batch_format="pyarrow").union(
            edges.map_batches(edge_side, batch_format="pyarrow")
        )
        labels = (
            tree_group_sum(hash_exchange(unioned, ["node"], _bucket_join),
                           ["node"], ["cand"], funcs=["min"])
            .map_batches(finish, batch_format="pyarrow")
            .materialize()  # consumed twice: signature + next sweep
        )
        new_sig = signature(labels)
        if new_sig == sig:
            converged = True
            break
        sig = new_sig
    if not converged:
        warnings.warn(
            f"connected_components: not converged after {max_iters} sweeps "
            "(graph diameter exceeds max_iters) — labels are an upper bound "
            "on the true component minimum; raise max_iters",
            UserWarning,
            stacklevel=2,
        )

    def out(t: pa.Table) -> pa.Table:
        return pa.table(
            {"node": t.column("node"), "cluster_id": t.column("label")}
        )

    return labels.map_batches(out, batch_format="pyarrow")


def cluster_representatives(components):
    """Filter a :func:`connected_components` result to its canonical
    representatives (``node == cluster_id`` — the minimum id of each
    component): one streaming vectorized pass, no shuffle.  The kept set
    for cluster-level dedup is (corpus − clustered nodes) ∪ representatives
    — combine with the broadcast/sharded anti-join machinery in
    ``pipelines/dedup.py`` for the corpus-side filter."""
    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t.column("node"), t.column("cluster_id")))

    return components.map_batches(keep, batch_format="pyarrow")


def dedup_keep_best(docs, pairs, id_col: str = "doc_id",
                    score_col: str = "score", id_a: str = "id_a",
                    id_b: str = "id_b", id_type: Optional[pa.DataType] = None,
                    max_iters: int = 25):
    """End-to-end near-dup cluster collapse: given a document corpus and its
    verified near-duplicate PAIRS (``verify_pairs`` / ``simhash_near_pairs``
    output), keep only the highest-``score_col`` member of every connected
    near-dup cluster (ties broken by ascending id — fully deterministic)
    and drop the rest.  This is the "keep best, not first" dedup policy a
    quality-aware training-data pipeline wants: exact dedup keeps the
    min-id copy, this keeps the best-quality copy.

    Composition of existing scale-shaped stages — nothing new shuffles:

    1. :func:`connected_components` labels the pair graph (slim int
       shuffles only).
    2. The component table (O(#near-dup docs), the same size class as every
       winner broadcast) ships once via ``ray.put`` and an inner
       ``enrich_join`` stamps each member's cluster label onto a
       two-column (id, score) projection — the corpus never shuffles.
    3. :func:`~hooqu_ray.pipelines.relational.grouped_top_k` (k=1) picks
       each cluster's winner; everyone else becomes a loser id.
    4. Loser ids (the collected component table minus the winners) ship
       as one broadcast set (``functions.broadcast``, hash-range shards
       past ``broadcast.ROWS_PER_SHARD``) and one anti-membership filter
       streams over the full corpus.

    Returns the filtered docs Dataset (all original columns).  Documents in
    no pair are untouched; a cluster's members missing from ``docs`` simply
    can't win.  Null scores sort below any real score (pandas sort puts
    NaN last at every tier of the top-k merge)."""
    from ..functions.broadcast import BroadcastSet
    from ..functions.joins import enrich_join
    from ..util import collect_arrow
    from .relational import grouped_top_k

    comp_tbl = collect_arrow(connected_components(
        pairs, id_a, id_b, id_type=id_type, max_iters=max_iters))
    if comp_tbl is None or len(comp_tbl) == 0:
        return docs

    proj = docs.map_batches(
        lambda t: t.select([id_col, score_col]), batch_format="pyarrow"
    )
    labeled = enrich_join(
        proj, comp_tbl.rename_columns([id_col, "label"]),
        on=id_col, dim_key=id_col, cols=["label"], how="inner",
    )
    winners = collect_arrow(
        grouped_top_k(labeled, "label", score_col, 1, tie_col=id_col))
    win_ids = (
        winners.column(id_col).combine_chunks()
        if winners is not None and len(winners)
        else pa.array([], comp_tbl.column("node").type)
    )

    # the component table is already on the driver: losers need no pass
    node = comp_tbl.column("node")
    lost = pc.and_(pc.invert(pc.is_in(node, value_set=win_ids)),
                   pc.is_valid(node))
    losers = BroadcastSet.put(comp_tbl.select(["node"]).filter(lost), "node")
    return losers.anti(docs, id_col)


def split_by_cluster(docs, pairs, id_col: str = "doc_id", *,
                     splits=(("train", 80), ("val", 10), ("test", 10)),
                     out_col: str = "split",
                     id_type: Optional[pa.DataType] = None,
                     max_iters: int = 25):
    """Leakage-safe train/val/test split: near-duplicate documents NEVER
    straddle splits.  Plain content-hash splitting
    (:func:`~hooqu_ray.pipelines.relational.split_assign`) sends a test
    document's 0.9-Jaccard near-copy to train with probability ~0.9 — the
    classic train/test contamination.  Here every document's split is the
    md5 bucket of its near-dup CLUSTER's canonical id (the component
    minimum from :func:`connected_components`; documents in no pair use
    their own id), so a whole near-dup cluster always lands in ONE split.

    Composition of existing scale-shaped stages:

    1. :func:`connected_components` labels the verified pair graph (slim
       int shuffles only, never text);
    2. the component table — O(#near-dup docs), the same size class as the
       accepted winner broadcasts — ships once via ``ray.put`` and a
       left :func:`~hooqu_ray.functions.joins.enrich_join` stamps each
       row's cluster id (null = singleton, falls back to its own id);
       for adversarial duplicate cardinality shard it by key hash range
       (``util.shard_codes``) and union per-shard passes;
    3. the split is the same md5-percentile bucket convention as
       ``split_assign``, so a pair-free corpus reduces to it EXACTLY.

    The corpus itself never shuffles — one broadcast-lookup pass appends
    ``out_col``.  Deterministic across runs, engines and data orderings."""
    from ..functions.joins import enrich_join
    from ..util import collect_arrow
    from .relational import md5_bucket

    names = [s[0] for s in splits]
    bounds = np.cumsum([int(s[1]) for s in splits])
    if bounds[-1] > 100:
        raise ValueError("split weights must sum to <= 100")
    bounds = bounds[:-1]  # last split takes the remainder
    names_arr = np.array(names, dtype=object)

    comp = connected_components(
        pairs, id_type=id_type, max_iters=max_iters).materialize()
    comp_tbl = collect_arrow(comp)
    have_clusters = comp_tbl is not None and len(comp_tbl) > 0
    if have_clusters:
        labeled = enrich_join(
            docs, comp_tbl.rename_columns([id_col, "__cluster_rep"]),
            on=id_col, dim_key=id_col, cols=["__cluster_rep"], how="left",
        )
    else:
        labeled = docs

    def assign(t: pa.Table) -> pa.Table:
        if "__cluster_rep" in t.column_names:
            rep = pc.coalesce(
                pc.cast(t.column("__cluster_rep"), t.schema.field(id_col).type),
                t.column(id_col))
            t = t.drop_columns(["__cluster_rep"])
        else:
            rep = t.column(id_col)
        b = md5_bucket(rep) % 100
        idx = np.searchsorted(bounds, b, side="right")
        return t.append_column(out_col, pa.array(names_arr[idx], pa.string()))

    return labeled.map_batches(assign, batch_format="pyarrow")
