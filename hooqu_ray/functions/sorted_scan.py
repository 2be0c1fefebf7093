"""The one sorted-scan primitive behind every per-key ordered operator.

Every op first projects its columns and drops rows with a null key (or a
null in any other column the op names), then runs one ``kernel``: a map
from a table sorted on ``[key, *order]`` to the op's output rows.  Where
the rows of one key meet depends on whether the op gives a ``tail``:

- **complete keys** (no ``tail``, the default): the rows take the hash
  exchange on the key (``shuffle.hash_exchange``): each bucket holds
  whole keys, sorts them with the op's ``descending`` flags and runs
  ``kernel`` once in its fold task.  A key lands whole in one fold.  The
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
- **ranges with a halo** (``tail``), for ops whose keys can be hot
  (windows, lag/lead): ONE range exchange on ``[key, *order]``
  (``shuffle.range_exchange``, the projection and null filter as its
  ``pre``).  ``tail(sorted table)`` returns the rows a later range may
  need (the last w - 1 rows for a w-row window); the exchange composes
  each range's halo, ``tail`` of all earlier ranges, from its split
  tasks' tails.  The fold runs ``kernel`` on the halo plus the range and
  drops the halo's rows, so ``kernel`` must map each input row to one
  output row, in order.  A hot key spans many ranges and never lands
  whole in one task, and no boundary needs repair: the same Ray Data
  execution count as the hash path.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import pyarrow as pa
import pyarrow.compute as pc


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


def sorted_scan(ds, cols: Optional[Sequence[str]], key: str,
                order: Sequence[str], kernel: Callable,
                *, descending: Union[bool, Sequence[bool]] = False,
                non_null: Sequence[str] = (),
                tail: Optional[Callable] = None):
    """The whole per-key ordered scaffold in one call: ``kernel`` over
    complete keys (:func:`partition_by_key`), or over each range of the
    range exchange plus its halo when ``tail`` is given (module
    docstring)."""
    from .shuffle import range_exchange

    if tail is None:
        return partition_by_key(ds, cols, key, order, kernel,
                                descending=descending, non_null=non_null)

    def fold(t: pa.Table, before: int, halo: pa.Table) -> pa.Table:
        n = len(halo)
        if n:
            t = pa.concat_tables([halo, t], promote_options="permissive")
        return kernel(t).slice(n)

    return range_exchange(ds, _sort_keys(key, order, descending), fold,
                          pre=_project(cols, key, non_null), tail=tail)
