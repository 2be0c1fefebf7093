"""The one sorted-scan primitive behind every per-key ordered operator.

Every op first projects its columns and drops rows with a null key (or a
null in any other column the op names).  This is the per-block partial
state merged across blocks of the Deequ state monoid; two policies decide
how the rows of one key meet:

- **kernel** (complete keys, the default): ``kernel`` maps a table of
  COMPLETE key groups, sorted on ``[key, *order]``, to output rows.  The
  rows take the hash exchange on the key (``shuffle.hash_exchange``): each
  bucket holds whole keys, sorts them with the op's ``descending`` flags
  and runs ``kernel`` once in its fold task.  No range exchange runs and
  no boundary needs repair.  A key lands whole in one fold.  The
  projection and null filter ride the exchange's split tasks (its
  ``pre``), not a Ray Data map: an op pays one Ray Data execution, the
  input's materialize, and none on a materialized input.
  :func:`partition_by_key` is the same exchange with no kernel, for
  callers (``conversation_reports``) that map several kernels over one
  key-partitioned output.  The output is materialized, and typed when
  empty (``kernel`` of the typed empty projection).

  Scale bound to watch: the input materializes with ALL its columns,
  not only the projection, so a wide input holds its unused columns in
  the object store for the exchange.  Fusing a ``select_columns`` into
  the read instead costs an extra Ray Data operator (+0.08 s per
  ``sft_dq`` iteration, 2 Ray CPUs on one core), so it is not done; revisit
  if the object store, not the execution count, becomes the cost.
- **custom block/merge**, for ops whose keys can be hot (windows,
  sessions): ONE range exchange on ``[key, *order]``
  (``shuffle.range_exchange``, the projection and null filter as its
  ``pre``), whose blocks are sorted ranges in range order.  A key
  interior to a range appears in no other range, so only each block's
  first and last key can straddle a block edge.
  ``block(t, emit)`` maps a sorted block to its final rows
  (``emit="finals"``) or to the bounded boundary state the repair needs
  (``emit="pend"``: a few context rows, or per-block partials), and
  ``merge(group)`` turns one key's boundary state into final rows.  A hot
  key spanning many blocks thus reaches the repair as O(#blocks) bounded
  partials, never as all of its rows.

The block/merge repair has two arms sharing each op's ``merge``, both
the run-cutting fold ``shuffle.per_key_fold`` (sort by key, merge each
key's run).  The boundary state materializes once; when its size (block
metadata, no extra execution) is at most ``DRIVER_REPAIR_MAX_BYTES`` it
is collected and folded on the driver, and the finals union with one
``from_arrow`` block.  Above it, the fold runs in the buckets of a hash
exchange on the key.  The driver arm saves the exchange's tasks, which on
small inputs cost more than the merge itself.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import pyarrow as pa
import pyarrow.compute as pc

# Boundary state up to this size repairs on the driver (module docstring).
DRIVER_REPAIR_MAX_BYTES = 32 << 20


def _project(cols: Optional[Sequence[str]], key: str,
             non_null: Sequence[str]) -> Callable[[pa.Table], pa.Table]:
    """The Arrow step that projects ``cols`` (every column when None) and
    drops rows whose ``key`` or any ``non_null`` column is null."""
    required = [key, *non_null]

    def prep(t: pa.Table) -> pa.Table:
        if cols is not None:
            t = t.select(list(cols))
        mask = pc.is_valid(t.column(required[0]))
        for c in required[1:]:
            mask = pc.and_(mask, pc.is_valid(t.column(c)))
        return t.filter(mask)

    return prep


def _sort_keys(key: str, order: Sequence[str],
               descending: Union[bool, Sequence[bool]]):
    """Arrow sort keys of ``[key, *order]`` (``descending``: one flag, or
    one per column)."""
    desc = ([descending] * (1 + len(order)) if isinstance(descending, bool)
            else list(descending))
    return [(c, "descending" if d else "ascending")
            for c, d in zip([key, *order], desc)]


def partition_by_key(ds, cols: Optional[Sequence[str]], key: str,
                     order: Sequence[str], kernel: Optional[Callable] = None,
                     *, descending: Union[bool, Sequence[bool]] = False,
                     non_null: Sequence[str] = ()):
    """Project ``cols``, drop null ``key``/``non_null`` rows and hash-
    exchange on ``key``: every output block holds complete keys sorted on
    ``[key, *order]`` (``descending``: one flag, or one per sort column),
    mapped through ``kernel`` when given.  The projection and the null
    filter are the exchange's ``pre``, run in its split tasks, so the only
    Ray Data execution is materializing ``ds`` (none when it already is).
    When no row survives, the result is one block (the exchange's typed
    empty): ``kernel`` of the typed empty projection, or that projection
    itself; of a 0-row table with no columns when ``ds`` has no schema.
    Materialized, so any number of ``map_batches(..., batch_size=None)``
    kernels read it with no second exchange."""
    from .shuffle import hash_exchange

    sort_keys = _sort_keys(key, order, descending)

    def fold(t: pa.Table) -> pa.Table:
        if len(t):  # the exchange's typed empty may lack the sort columns
            t = t.take(pc.sort_indices(t, sort_keys=sort_keys))
        return t if kernel is None else kernel(t)

    return hash_exchange(ds, [key], fold, pre=_project(cols, key, non_null))


def _repair_input(pend):
    """Materialize the boundary state ``pend``.  Return None when it holds
    no rows, the state collected as one Arrow table when it fits
    ``DRIVER_REPAIR_MAX_BYTES`` (driver arm), else the materialized Dataset
    (distributed arm)."""
    from ..util import collect_arrow

    pend = pend.materialize()
    if pend.count() == 0:
        return None
    if pend.size_bytes() > DRIVER_REPAIR_MAX_BYTES:
        return pend
    return collect_arrow(pend)


def _repair(pend, key: str, merge: Callable):
    """``merge`` over each key's boundary rows, as one run-cutting fold
    (``shuffle.per_key_fold``: sort by ``key``, cut at key changes, merge
    each run) on both arms: applied to the collected table on the driver,
    or as the fold of a hash exchange on ``key`` over a Dataset.  Neither
    arm plans a Ray Data sort or groupby.  None when there is no state."""
    import ray.data as rd

    from .shuffle import hash_exchange, per_key_fold

    if pend is None:
        return None
    fold = per_key_fold([key], merge)
    if isinstance(pend, pa.Table):
        return rd.from_arrow(fold(pend))
    return hash_exchange(pend, [key], fold)


def sorted_scan(ds, cols: Optional[Sequence[str]], key: str,
                order: Sequence[str], kernel: Optional[Callable] = None,
                *, descending: Union[bool, Sequence[bool]] = False,
                non_null: Sequence[str] = (),
                block: Optional[Callable] = None,
                merge: Optional[Callable] = None):
    """The whole per-key ordered scaffold in one call: ``kernel`` for the
    complete-key policy (:func:`partition_by_key`), or a ``block``/
    ``merge`` pair for the range exchange with boundary repair (module
    docstring)."""
    from .shuffle import range_exchange

    if kernel is not None:
        return partition_by_key(ds, cols, key, order, kernel,
                                descending=descending, non_null=non_null)
    sorted_ds = range_exchange(ds, _sort_keys(key, order, descending),
                               pre=_project(cols, key, non_null))
    pend = _repair_input(sorted_ds.map_batches(
        lambda t: block(t, "pend"), batch_format="pyarrow", batch_size=None))
    finals = sorted_ds.map_batches(
        lambda t: block(t, "finals"), batch_format="pyarrow", batch_size=None)
    repaired = _repair(pend, key, merge)
    return finals if repaired is None else finals.union(repaired)
