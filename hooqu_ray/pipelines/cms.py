"""Count-min-sketch heavy hitters: estimate the top-k most frequent values
of a column in BOUNDED memory — the scale path when the value universe is
too large for the exact combiner of ``textstats.top_ngrams`` (whose partial
tables grow with #distinct values; a CMS is ``depth × width`` counters no
matter what).

Standard guarantees (Cormode & Muthukrishnan): every estimate OVERCOUNTS
(``est ≥ true``) and with width ``w`` the overshoot is ≤ e·N/w with
probability 1 − e^−depth per query.  Pipeline:

1. **Sketch pass** — each block hashes its values once (``stable_hash64``)
   and derives ``depth`` row hashes via independent odd-constant
   multiply-shift mixes; ``np.add.at`` accumulates a local ``depth × width``
   counter block, emitted SPARSE as ``(cell_idx, count)`` rows.  One slim
   ``tree_group_sum`` folds all blocks; the ≤ depth·width-row result
   collects to a dense driver matrix and broadcasts via ``ray.put``.
2. **Candidate pass** — each block emits its exact LOCAL top-m values
   (Arrow ``group_by`` count + partition), so at most ``#blocks × m`` slim
   candidate rows exist; a true global heavy hitter is heavy in at least
   one block, so generous ``m`` (default 8k) makes missing one vanishingly
   unlikely at real skew.  Candidates dedupe through ``tree_distinct`` and
   each is estimated against the broadcast sketch (vectorized min over
   rows); the global top-k by estimate returns.

Everything is deterministic: fixed hash constants, ties broken by value.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# splitmix64-style odd multipliers, one per sketch row (extend for depth > 8)
_ROW_MIX = (
    0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
    0xD6E8FEB86659FD93, 0xA5A5A5A5A5A5A5A5 | 1, 0x27D4EB2F165667C5,
    0x94D049BB133111EB, 0xBF58476D1CE4E5B9,
)


def _row_buckets(h: np.ndarray, depth: int, width: int) -> np.ndarray:
    """(depth, n) bucket indices from one base hash per value."""
    out = np.empty((depth, h.size), dtype=np.int64)
    for d in range(depth):
        x = h * np.uint64(_ROW_MIX[d])
        x ^= x >> np.uint64(29)
        out[d] = (x % np.uint64(width)).astype(np.int64)
    return out


def _sketch_rows(t: pa.Table, col: str, depth: int, width: int) -> pa.Table:
    """Sparse (cell, count) rows of one block's local CMS."""
    from ..util import stable_hash64

    empty = pa.table(
        {"__cell": pa.array([], pa.int64()), "__cnt": pa.array([], pa.int64())}
    )
    v = t.column(col)
    if isinstance(v, pa.ChunkedArray):
        v = v.combine_chunks()
    v = v.drop_null()
    if len(v) == 0:
        return empty
    h = stable_hash64(v)
    buckets = _row_buckets(h, depth, width)
    counts = np.zeros(depth * width, dtype=np.int64)
    for d in range(depth):
        np.add.at(counts, d * width + buckets[d], 1)
    nz = np.flatnonzero(counts)
    return pa.table(
        {"__cell": pa.array(nz, pa.int64()), "__cnt": pa.array(counts[nz], pa.int64())}
    )


def _local_candidates(t: pa.Table, col: str, m: int) -> pa.Table:
    """Exact local top-m values of one block by count (Arrow group_by)."""
    v = t.column(col)
    if isinstance(v, pa.ChunkedArray):
        v = v.combine_chunks()
    v = v.drop_null()
    if len(v) == 0:
        return pa.table({col: v.slice(0, 0)})
    counted = pa.table({col: v}).group_by([col], use_threads=False).aggregate(
        [([], "count_all")]
    )
    if len(counted) > m:
        order = pc.select_k_unstable(
            counted, k=m, sort_keys=[("count_all", "descending")]
        )
        counted = counted.take(order)
    return counted.select([col])


class _EstimateCms:
    """map_batches stage: CMS point estimate (min over rows) per candidate
    against the broadcast dense counter matrix."""

    def __init__(self, cms_ref, col: str, depth: int, width: int):
        self.cms_ref = cms_ref
        self.col = col
        self.depth = depth
        self.width = width
        self._cms = None

    def __call__(self, t: pa.Table) -> pa.Table:
        from ..util import stable_hash64

        if self._cms is None:
            import ray

            obj = self.cms_ref
            self._cms = obj if isinstance(obj, np.ndarray) else ray.get(obj)
        v = t.column(self.col)
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        h = stable_hash64(v)
        buckets = _row_buckets(h, self.depth, self.width)
        ests = np.min(
            np.stack(
                [self._cms[d * self.width + buckets[d]] for d in range(self.depth)]
            ),
            axis=0,
        )
        return pa.table(
            {self.col: v, "est_count": pa.array(ests.astype(np.int64), pa.int64())}
        )


def heavy_hitters(ds, col: str, k: int, width: int = 8192, depth: int = 4,
                  candidates_per_block: int = 8192):
    """Top-``k`` most frequent values of ``col`` by count-min-sketch
    estimate — bounded memory regardless of value cardinality.  Returns a
    local Arrow table ``(col, est_count)`` sorted by estimate DESC (value
    ASC ties), ≤ k rows.  ``est_count ≥`` the true count always; see the
    module docstring for the overshoot bound and the candidate-recall
    assumption."""
    import ray

    if k < 1:
        raise ValueError(f"heavy_hitters: k must be ≥ 1, got {k}")
    if depth < 1 or depth > len(_ROW_MIX):
        raise ValueError(f"heavy_hitters: depth must be in [1, {len(_ROW_MIX)}]")
    from ..functions.shuffle import tree_distinct, tree_group_sum
    from ..util import collect_arrow

    tbl = collect_arrow(tree_group_sum(
        ds.map_batches(
            lambda t: _sketch_rows(t, col, depth, width), batch_format="pyarrow"
        ),
        ["__cell"], ["__cnt"], drop_null_keys=True,
    ))
    cms = np.zeros(depth * width, dtype=np.int64)
    if tbl is not None:
        cms[tbl.column("__cell").to_numpy()] = tbl.column("__cnt").to_numpy()
    cms_ref = ray.put(cms)

    cands = tree_distinct(  # dedupe across blocks
        ds.map_batches(
            lambda t: _local_candidates(t, col, candidates_per_block),
            batch_format="pyarrow",
        ),
        [col],
    )
    est = cands.map_batches(
        _EstimateCms(cms_ref, col, depth, width), batch_format="pyarrow"
    )
    out = collect_arrow(est)
    if out is None or len(out) == 0:
        return pa.table(
            {col: pa.array([], pa.string()), "est_count": pa.array([], pa.int64())}
        )
    order = pc.select_k_unstable(
        out, k=min(k, len(out)),
        sort_keys=[("est_count", "descending"), (col, "ascending")],
    )
    return out.take(order)
