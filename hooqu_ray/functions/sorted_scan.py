"""The one sorted-scan primitive behind every per-key ordered operator.

Shape: project, drop rows with a null key (or a null in any other column
the op names), ONE distributed range ``sort([key, *order])``, materialize,
then two map passes over the sorted blocks and a ``groupby(key)`` boundary
repair, unioned.  After a range sort a key interior to a block appears in
no other block, so only each block's first and last key can straddle a
block edge: per-block work is final for every interior key and the repair
sees at most two keys per block (O(#blocks) groups, never O(#keys)).  This
is the per-block partial state merged across blocks of the Deequ state
monoid, with the sort making the merge local to block edges.

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
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import pyarrow as pa
import pyarrow.compute as pc


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
    """Each block's first/last-key rows: the default repair input, which
    callers sharing one sorted dataset across kernels materialize once."""
    return sorted_ds.map_batches(
        lambda t: t.filter(edge_mask(t, key)) if len(t) else t,
        batch_format="pyarrow", batch_size=None)


def scan_sorted(sorted_ds, key: str, order: Sequence[str],
                kernel: Optional[Callable] = None, *,
                descending: Union[bool, Sequence[bool]] = False,
                block: Optional[Callable] = None,
                merge: Optional[Callable] = None, pend=None):
    """Finals of every block unioned with the ``groupby(key)`` repair of
    the boundary keys, over a :func:`sort_projection` output.  Pass
    ``kernel`` for the kernel re-apply policy (``pend``: precomputed
    :func:`edge_rows`), or a ``block``/``merge`` pair (see module
    docstring); ``order``/``descending`` must match the sort."""
    if kernel is not None:
        desc = ([descending] * (1 + len(order))
                if isinstance(descending, bool) else list(descending))
        sort_keys = [(c, "descending" if d else "ascending")
                     for c, d in zip(order, desc[1:])]

        def block(t: pa.Table, emit: str) -> pa.Table:
            return kernel(t.filter(pc.invert(edge_mask(t, key))) if len(t)
                          else t)

        def merge(g: pa.Table) -> pa.Table:
            return kernel(g.sort_by(sort_keys))

        if pend is None:
            pend = edge_rows(sorted_ds, key)
    else:
        pend = sorted_ds.map_batches(
            lambda t: block(t, "pend"), batch_format="pyarrow",
            batch_size=None)
    finals = sorted_ds.map_batches(
        lambda t: block(t, "finals"), batch_format="pyarrow", batch_size=None)
    return finals.union(pend.groupby(key).map_groups(
        lambda g: merge(g), batch_format="pyarrow"))


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

