"""The one sorted-scan primitive behind every per-key ordered operator.

Shape: project, drop rows with a null key (or a null in any other column
the op names), ONE distributed range ``sort([key, *order])``, materialize,
then two map passes over the sorted blocks and a boundary repair, unioned.
After a range sort a key interior to a block appears in no other block, so
only each block's first and last key can straddle a block edge: per-block
work is final for every interior key and the repair sees at most two keys
per block (O(#blocks) groups, never O(#keys)).  This is the per-block
partial state merged across blocks of the Deequ state monoid, with the
sort making the merge local to block edges.

Two boundary policies:

- **kernel re-apply** (default): ``kernel`` maps a table of COMPLETE,
  order-sorted key groups to output rows.  It runs per block on the
  interior keys, and once more per boundary key over that key's rows from
  every block it touches.  The repair group is the whole key, so a key
  holding a meaningful fraction of the corpus lands in one task.
- **custom block/merge**, for ops whose keys can be hot: ``block(t, emit)``
  maps a sorted block to its final rows (``emit="finals"``) or to the
  bounded boundary state the repair needs (``emit="pend"``: a few context
  rows, or per-block partials), and ``merge(group)`` turns one key's
  boundary state into final rows.

Two repair arms share each op's ``merge``, so every op gets both with no
per-op code.  The boundary state materializes once; when its size (block
metadata, no extra execution) is at most ``DRIVER_REPAIR_MAX_BYTES`` it is
collected and merged key by key on the driver, and the finals union with
one ``from_arrow`` block.  Above it, the repair is the distributed
``groupby(key).map_groups``.  The driver arm saves the groupby exchange,
which on small inputs costs more than the merge itself.  The bound is in
bytes, not keys or rows: the state holds O(#blocks) keys, but under kernel
re-apply a hot key brings ALL of its rows, so only the byte size bounds
what the driver must hold (the FP-Hadoop hot-key argument); a state that
large goes to the distributed arm.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# Boundary state up to this size repairs on the driver (module docstring).
DRIVER_REPAIR_MAX_BYTES = 32 << 20


def sort_projection(ds, cols: Optional[Sequence[str]], key: str,
                    order: Sequence[str], *,
                    descending: Union[bool, Sequence[bool]] = False,
                    non_null: Sequence[str] = ()):
    """Project ``cols`` (every column when None), drop rows whose ``key``
    or any ``non_null`` column is null, and range-sort on
    ``[key, *order]`` (``descending``: one flag, or one per sort column).
    The result is materialized: both block passes and any number of
    kernels (``conversation_reports``) read it without a second sort."""
    required = [key, *non_null]

    def prep(t: pa.Table) -> pa.Table:
        if cols is not None:
            t = t.select(list(cols))
        mask = pc.is_valid(t.column(required[0]))
        for c in required[1:]:
            mask = pc.and_(mask, pc.is_valid(t.column(c)))
        return t.filter(mask)

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .sort([key, *order], descending=descending)
        .materialize()
    )


def edge_mask(t: pa.Table, key: str):
    """Rows of the block's first and last key — the only keys of a
    range-sorted block that can continue in a neighbouring block."""
    keys = t.column(key)
    return pc.or_(pc.equal(keys, keys[0]), pc.equal(keys, keys[-1]))


def edge_rows(sorted_ds, key: str):
    """Each block's first/last-key rows as :func:`_repair_input` state: the
    default repair input, which callers sharing one sorted dataset across
    kernels build once."""
    return _repair_input(sorted_ds.map_batches(
        lambda t: t.filter(edge_mask(t, key)), batch_format="pyarrow",
        batch_size=None))


def _repair_input(pend):
    """Materialize the boundary state ``pend``.  Return it collected as one
    Arrow table when it fits ``DRIVER_REPAIR_MAX_BYTES`` (driver arm), else
    the materialized Dataset (distributed arm)."""
    from ..util import collect_arrow

    pend = pend.materialize()
    if pend.size_bytes() > DRIVER_REPAIR_MAX_BYTES:
        return pend
    t = collect_arrow(pend)
    return t if t is not None else pa.table({})


def _repair(pend, key: str, merge: Callable):
    """``merge`` over each key's boundary rows: ``groupby(key)`` on a
    Dataset, key runs of the sorted table on the driver.  None when a
    collected state holds no rows."""
    if not isinstance(pend, pa.Table):
        return pend.groupby(key).map_groups(lambda g: merge(g),
                                            batch_format="pyarrow")
    if len(pend) == 0:
        return None
    import ray.data as rd

    pend = pend.take(pc.sort_indices(pend, [(key, "ascending")]))
    keys = pend.column(key).combine_chunks()
    n = len(pend)
    new_key = pc.not_equal(keys.slice(1), keys.slice(0, n - 1)).to_numpy(
        zero_copy_only=False)
    cuts = np.r_[0, np.flatnonzero(new_key) + 1, n]
    parts = [merge(pend.slice(a, b - a)) for a, b in zip(cuts[:-1], cuts[1:])]
    return rd.from_arrow(pa.concat_tables(parts, promote_options="default"))


def scan_sorted(sorted_ds, key: str, order: Sequence[str],
                kernel: Optional[Callable] = None, *,
                descending: Union[bool, Sequence[bool]] = False,
                block: Optional[Callable] = None,
                merge: Optional[Callable] = None, pend=None):
    """Finals of every block unioned with the boundary-key repair (driver
    or ``groupby(key)`` arm, see module docstring), over a
    :func:`sort_projection` output.  Pass ``kernel`` for the kernel
    re-apply policy (``pend``: precomputed :func:`edge_rows`), or a
    ``block``/``merge`` pair (see module docstring); ``order``/
    ``descending`` must match the sort."""
    if kernel is not None:
        desc = ([descending] * (1 + len(order))
                if isinstance(descending, bool) else list(descending))
        sort_keys = [(c, "descending" if d else "ascending")
                     for c, d in zip(order, desc[1:])]

        def block(t: pa.Table, emit: str) -> pa.Table:
            return kernel(t.filter(pc.invert(edge_mask(t, key))))

        def merge(g: pa.Table) -> pa.Table:
            return kernel(g.sort_by(sort_keys))

        if pend is None:
            pend = edge_rows(sorted_ds, key)
    else:
        pend = _repair_input(sorted_ds.map_batches(
            lambda t: block(t, "pend"), batch_format="pyarrow",
            batch_size=None))
    finals = sorted_ds.map_batches(
        lambda t: block(t, "finals"), batch_format="pyarrow", batch_size=None)
    repaired = _repair(pend, key, merge)
    return finals if repaired is None else finals.union(repaired)


def sorted_scan(ds, cols: Optional[Sequence[str]], key: str,
                order: Sequence[str], kernel: Optional[Callable] = None,
                *, descending: Union[bool, Sequence[bool]] = False,
                non_null: Sequence[str] = (),
                block: Optional[Callable] = None,
                merge: Optional[Callable] = None):
    """:func:`sort_projection` then :func:`scan_sorted` — the whole
    per-key ordered scaffold in one call."""
    sorted_ds = sort_projection(ds, cols, key, order, descending=descending,
                                non_null=non_null)
    return scan_sorted(sorted_ds, key, order, kernel, descending=descending,
                       block=block, merge=merge)

