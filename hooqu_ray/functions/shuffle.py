"""The engine's one grouped fold and its two exchanges: every keyed
aggregate and every keyed or ordered exchange in ``hooqu_ray`` runs
through this module, never through Ray's ``groupby().aggregate``,
``groupby().map_groups`` or ``sort``.

:func:`hash_exchange` is the keyed exchange, on Ray core tasks (the only
ones in the engine): S split tasks, one per contiguous run of blocks of
about equal bytes, map each block through the caller's per-block ``pre``
step and split the run by ``hash64(key tuple) % B``; B fold tasks fold
each bucket once.  B follows the cluster and the input: one bucket per
CPU, more only when a bucket would otherwise exceed ``BUCKET_MAX_ROWS``
rows or ``BUCKET_MAX_BYTES`` bytes.  S is min(#non-empty blocks, B).
Each task costs Ray overhead whatever its size, so a small cluster pays
for no more tasks than it can run at once.  A fold sees complete keys,
so any per-bucket merge that is correct on a set of whole keys is a fold
(a tagged-union join, a set diff, a label join).
:func:`range_exchange` is the ordered exchange on the same split and
fold tasks, after one sample wave: bucket b is the b-th range of a sort
order, each fold sorts its range and also receives the row count (or a
weight total) of all earlier ranges, so a global row number or stream
offset is assigned inside the fold, and, given a ``tail``, the halo: the
rows of the earlier ranges that the range may need, composed on the
driver from each split task's tails.  The folds on top of them:

- :func:`tree_group_sum` — the default entry point for sum/min/max (count
  = sum of a ones column): the exchange with the same Arrow ``group_by``
  combine as ``pre`` and ``fold``.  Each block combines in its split
  task, so a hot key moves as at most one partial row per block, and
  each bucket combines once.  :func:`tree_distinct` is its
  de-duplication form (no aggregate).
- :func:`bucketed_group_fold` — the fold on :func:`hash_exchange`, called
  directly only where the keys are corpus-cardinality by construction
  (near-unique ids, content hashes, full-row set keys).
- :func:`per_key_fold` — the run-cutting fold for logic that must see
  exactly one key at a time (a per-LSH-bucket pair scan, one index file
  per bucket): sort the bucket by the keys, cut it at key changes, call
  ``fn`` once per run and concatenate.

Order-dependent per-key logic (turn-order checks, windows) runs on
``sorted_scan``: a kernel over complete keys on :func:`hash_exchange`,
or, for keys that can be hot, the same kernel over each range plus its
halo on :func:`range_exchange`.  A top-n needs no exchange:
:func:`top_n` per block, then once more over the candidates on the
driver.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


# Narrow integer keys pyarrow 16.1 groups correctly only once widened.
_WIDEN = {pa.int8(): pa.int32(), pa.int16(): pa.int32(),
          pa.uint8(): pa.uint32(), pa.uint16(): pa.uint32()}


def _key_rank(typ: pa.DataType):
    """Sort rank of a key column for :func:`group_by`: wider fixed-width
    types first, then variable-width, then boolean."""
    if pa.types.is_boolean(typ):
        return (2, 0)
    if pa.types.is_dictionary(typ):
        typ = typ.index_type
    try:
        return (0, -typ.bit_width)
    except ValueError:  # variable width: string, binary, lists
        return (1, 0)


def group_by(t: pa.Table, keys: Sequence[str], aggs, *,
             use_threads: bool = False) -> pa.Table:
    """``t.group_by(keys).aggregate(aggs)``, with the groups SQL and pandas
    ``dropna=False`` give.  With several keys and nulls, pyarrow 16.1 splits
    one group into many (up to one per null row) when a key precedes a wider
    fixed-width one (``[string, int64]``, ``[int32, int64]``), a boolean
    precedes any other, or an 8/16-bit integer meets a string.  Grouping
    with narrow integers widened and the keys in :func:`_key_rank` order
    gives the right groups; the result has the key columns back in ``keys``
    order and types, then the aggregates."""
    keys = list(keys)
    if len(keys) < 2:
        return t.group_by(keys, use_threads=use_threads).aggregate(aggs)
    narrow = {k: t.schema.field(k).type for k in keys
              if t.schema.field(k).type in _WIDEN}
    for k, typ in narrow.items():
        t = t.set_column(t.column_names.index(k), k, t.column(k).cast(_WIDEN[typ]))
    order = sorted(keys, key=lambda k: _key_rank(t.schema.field(k).type))
    out = t.group_by(order, use_threads=use_threads).aggregate(aggs)
    out = out.select([order.index(k) for k in keys]
                     + list(range(len(keys), out.num_columns)))
    for k, typ in narrow.items():
        i = keys.index(k)
        out = out.set_column(i, k, out.column(i).cast(typ))
    return out


def _tree_combine_factory(keys: Sequence[str], agg_cols: Sequence[str],
                          funcs: Sequence[str], drop_null_keys: bool):
    """Per-block ``group_by(keys).aggregate`` that preserves the input
    column names and order (pyarrow emits keys first, then ``{col}_{fn}``).
    ``drop_null_keys`` filters null-key rows before grouping; Arrow's
    ``group_by`` otherwise keeps null as its own group (SQL GROUP BY /
    Ray-groupby parity)."""
    keys = list(keys)
    agg_cols = list(agg_cols)
    proj = keys + agg_cols
    spec = [(c, f) for c, f in zip(agg_cols, funcs)]

    def combine(t: pa.Table) -> pa.Table:
        if not set(proj).issubset(t.column_names):
            # bucketed_group_fold's no-schema path folds an empty table
            return pa.table({})
        t = t.select(proj)
        if drop_null_keys:
            mask = pc.is_valid(t.column(keys[0]))
            for k in keys[1:]:
                mask = pc.and_(mask, pc.is_valid(t.column(k)))
            t = t.filter(mask)
        return group_by(t, keys, spec, use_threads=True).rename_columns(proj)

    return combine


def _row_hash64(t: pa.Table, keys: Sequence[str]) -> np.ndarray:
    """Deterministic uint64 hash of each row's key TUPLE, identical across
    Ray workers (polars ``hash_rows`` at a fixed seed is process-stable for
    a fixed polars version — the same contract ``dedup._text_hash63``
    already relies on cross-block; builtin ``hash`` is PYTHONHASHSEED-random
    per worker and must never be used here).  Nulls hash stably, so null
    keys ride the exchange like any other group."""
    sub = t.select(list(keys)).combine_chunks()
    if len(sub) == 0:
        return np.empty(0, dtype=np.uint64)
    try:
        import polars as pl

        return pl.from_arrow(sub).hash_rows(seed=0).to_numpy().astype(np.uint64)
    except ImportError:  # pragma: no cover - slow deterministic fallback
        import hashlib

        parts = [pc.cast(sub.column(k), pa.string()).to_pylist() for k in keys]
        out = np.empty(len(sub), dtype=np.uint64)
        for i, vals in enumerate(zip(*parts)):
            payload = "\x1f".join("\x00" if v is None else v for v in vals)
            out[i] = int.from_bytes(
                hashlib.blake2b(payload.encode("utf-8"), digest_size=8).digest(),
                "little")
        return out


def _as_arrow(block) -> pa.Table:
    """A Ray block as an Arrow table (``from_pandas`` blocks are pandas)."""
    if isinstance(block, pa.Table):
        return block
    return pa.Table.from_pandas(block, preserve_index=False)


def sort_indices(t: pa.Table, sort_keys) -> pa.Array:
    """``pc.sort_indices(t, sort_keys)`` in SQL order (the DuckDB oracles'):
    nulls last in either direction, and NaN above every other float, so
    first when descending (Arrow puts it last both ways).  ``sort_keys``
    are Arrow ``(column, "ascending" | "descending")`` pairs; the sort is
    stable."""
    cols, keys = {}, []
    for i, (c, order) in enumerate(sort_keys):
        col = t.column(c)
        if pa.types.is_floating(col.type):
            cols[f"nan{i}"] = pc.is_nan(col)
            keys.append((f"nan{i}", order))
        cols[f"k{i}"] = col
        keys.append((f"k{i}", order))
    return pc.sort_indices(pa.table(cols), sort_keys=keys,
                           null_placement="at_end")


def top_n(t: pa.Table, sort_keys, n: int) -> pa.Table:
    """The first ``n`` rows of ``t`` in :func:`sort_indices` order."""
    return t.take(sort_indices(t, sort_keys)[:n])


def _hash_route(keys, num_buckets, t: pa.Table):
    """Rows of ``t`` cut into :func:`hash_exchange`'s buckets
    (``hash64(keys) % B``): the stable argsort on the bucket, so each
    bucket's rows stay in input order, and the row count of each bucket."""
    b = (_row_hash64(t, keys) % np.uint64(num_buckets)).astype(np.int64)
    return np.argsort(b, kind="stable"), np.bincount(b, minlength=num_buckets)


def _range_route(sort_keys, bounds: pa.Table, t: pa.Table):
    """Rows of ``t`` cut into :func:`range_exchange`'s ranges: the rows in
    :func:`sort_indices` order of their ``sort_keys`` tuples, and the row
    count of each range.  A row's range is the number of boundary tuples
    at or before its tuple, from one sort over the rows plus the
    boundaries (a boundary sorts before the rows equal to it, so equal
    tuples share a range), so each range's rows are a sorted slice."""
    n = len(t)
    both = pa.concat_tables([t.select(bounds.column_names), bounds],
                            promote_options="permissive")
    both = both.append_column("__row", pa.array(
        np.r_[np.ones(n, np.int8), np.zeros(len(bounds), np.int8)]))
    order = sort_indices(both, [*sort_keys, ("__row", "ascending")]).to_numpy()
    row = order < n
    return order[row], np.bincount(np.cumsum(~row)[row],
                                   minlength=len(bounds) + 1)


def _pre_each(pres, blocks):
    """Each block as an Arrow table through its ``pre`` (None keeps it)."""
    return [t if p is None else p(t)
            for p, t in zip(pres, map(_as_arrow, blocks))]


def _split_block(route, weight, tail, pres, *blocks):
    """Split task of both exchanges over a contiguous run of blocks: each
    block through its ``pre`` (``pres``, one per block), the results
    concatenated in block order, then cut into one part per bucket in the
    ``route`` order (input order for a hash bucket, sorted for a range).
    Returns the per-bucket row counts and ``weight`` column totals (the
    counts again when ``weight`` is None) as one ``(2, B)`` array, paired
    with each non-empty part's ``tail`` (None for an empty part) when
    ``tail`` is given, then one table per bucket."""
    ts = _pre_each(pres, blocks)
    # a block that ``pre`` empties sends no rows, so its schema never
    # meets the others (as in the fold, which sees only non-empty parts)
    t = pa.concat_tables([t for t in ts if len(t)] or ts[:1],
                         promote_options="permissive")
    order, counts = route(t)
    ends = np.cumsum(counts)
    sums = counts
    if weight is not None:
        w = pc.fill_null(t.column(weight), 0).to_numpy()
        cum = np.r_[0, np.cumsum(w[order], dtype=np.int64)]
        sums = cum[ends] - cum[ends - counts]
    parts = [t.take(order[e - c:e]) for c, e in zip(counts, ends)]
    head = np.stack([counts, sums])
    if tail is not None:
        head = (head, [tail(p) if len(p) else None for p in parts])
    return (head, *parts)


def _sample_run(cols, size, pres, *blocks):
    """Sample task of :func:`range_exchange` over a run of blocks: each
    block through its ``pre``, then ``cols`` of up to ``size`` evenly
    spaced rows, and the run's row count."""
    ts = _pre_each(pres, blocks)
    t = pa.concat_tables([t.select(cols) for t in ts if len(t)] or
                         [ts[0].select(cols)], promote_options="permissive")
    n = len(t)
    k = min(n, size)
    return t.take(np.arange(k, dtype=np.int64) * n // max(k, 1)), n


def _boundaries(samples, sort_keys, num_buckets: int) -> pa.Table:
    """B - 1 boundary tuples cutting the sampled rows, each standing for
    its run's rows over its run's sample size, into B ranges of about
    equal row counts."""
    samples = [(s, n) for s, n in samples if len(s)]
    t = pa.concat_tables([s for s, _ in samples], promote_options="permissive")
    w = np.concatenate([np.full(len(s), n / len(s)) for s, n in samples])
    order = sort_indices(t, sort_keys).to_numpy()
    cum = np.cumsum(w[order])
    cuts = np.searchsorted(cum, cum[-1] * np.arange(1, num_buckets) / num_buckets)
    return t.take(order[np.minimum(cuts, len(order) - 1)])


def _sorted_fold(sort_keys, fold, t: pa.Table, before: int,
                 *halo) -> pa.Table:
    """Fold of :func:`range_exchange`: sort the range, then ``fold(t,
    before)``, or ``fold(t, before, halo)`` with a tail (the range itself
    when ``fold`` is None)."""
    if len(t):
        t = t.take(sort_indices(t, sort_keys))
    elif t.num_columns == 0:  # the input had no schema: no fold
        return t
    return t if fold is None else fold(t, before, *halo)


def _halos(sort_keys, tail, tails, num_buckets: int) -> list:
    """The halo of each range for :func:`range_exchange`: ``tail`` of the
    sorted rows of all earlier ranges.  Tails compose, tail(A ∪ B) =
    tail(tail(A) ∪ tail(B)), so range b's halo is ``tail`` of the previous
    halo plus the split tasks' tails of range b - 1, never of the ranges'
    rows.  A non-empty range with no earlier rows gets a 0-row halo; an
    empty range, which has no fold, gets None."""
    halos, halo = [], None
    for b in range(num_buckets):
        parts = [tl[b] for tl in tails if tl[b] is not None]
        if not parts:
            halos.append(None)
            continue
        halos.append(parts[0].slice(0, 0) if halo is None else halo)
        both = pa.concat_tables(([] if halo is None else [halo]) + parts,
                                promote_options="permissive")
        halo = (tail(both.take(sort_indices(both, sort_keys))) if len(both)
                else both)
    return halos


def _contiguous_runs(sizes, runs: int) -> np.ndarray:
    """Bounds ``[0, ..., len(sizes)]`` of ``runs`` contiguous runs of
    blocks, each at least one block, cut so the runs' ``sizes`` sums are
    about equal; ``[0]`` for no runs."""
    if runs == 0:
        return np.zeros(1, dtype=np.int64)
    n = len(sizes)
    k = np.arange(1, runs)
    cum = np.cumsum(sizes)
    ends = np.searchsorted(cum, cum[-1] * k / runs) + 1
    # ``ends - k`` non-decreasing within [0, n - runs]: no run is empty
    ends = np.maximum.accumulate(np.clip(ends - k, 0, n - runs)) + k
    return np.r_[0, ends, n]


def _fold_bucket(fold, before, halo, *parts):
    """Fold task of both exchanges: one bucket's parts, folded once (with
    ``before``, the weight of the earlier ranges, unless it is None, and
    the range's ``halo`` unless it is None)."""
    t = pa.concat_tables(parts, promote_options="permissive")
    if before is None:
        return fold(t)
    return fold(t, before) if halo is None else fold(t, before, halo)


def key_runs(t: pa.Table, keys: Sequence[str]) -> np.ndarray:
    """Bounds of the runs of equal ``keys`` tuples in a table sorted on
    them: ``[0, *run starts, len(t)]`` (null equals null); ``[0]`` for no
    rows, so ``bounds[:-1]`` are the run starts."""
    n = len(t)
    if n == 0:
        return np.zeros(1, dtype=np.int64)
    new = np.zeros(n - 1, dtype=bool)
    for k in keys:
        c = t.column(k).combine_chunks()
        a, b = c.slice(1), c.slice(0, n - 1)
        new |= pc.or_(pc.fill_null(pc.not_equal(a, b), False),
                      pc.not_equal(pc.is_null(a), pc.is_null(b))).to_numpy(
                          zero_copy_only=False)
    return np.r_[0, np.flatnonzero(new) + 1, n]


def per_key_fold(keys: Sequence[str], fn: Callable[[pa.Table], pa.Table]):
    """The run-cutting fold: sort a table by ``keys``, cut it at key
    changes, call ``fn`` once per run (one key's rows) and concatenate.
    ``fn`` receives a 0-row table as is, once, so an empty input still
    folds to ``fn``'s typed output.  Used as a :func:`hash_exchange`
    ``fold`` (complete keys per bucket) or on a driver table directly."""
    keys = list(keys)
    sort_keys = [(k, "ascending") for k in keys]

    def fold(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return fn(t)
        t = t.take(pc.sort_indices(t, sort_keys=sort_keys))
        cuts = key_runs(t, keys)
        return pa.concat_tables(
            [fn(t.slice(a, b - a)) for a, b in zip(cuts[:-1], cuts[1:])],
            promote_options="default")

    return fold


@functools.lru_cache(maxsize=None)
def _remote(fn):
    import ray

    return ray.remote(fn)


# A bucket holds at most this many input bytes (Ray Data's default target
# block size) and about this many input rows, so a fold stays a bounded task;
# past MAX_BUCKETS the per-task scheduling overhead dominates.
BUCKET_MAX_BYTES = 128 << 20
BUCKET_MAX_ROWS = 250_000
MAX_BUCKETS = 4096


def _cluster_cpus() -> int:
    try:
        import ray

        if ray.is_initialized():
            return max(1, int(ray.cluster_resources().get("CPU", 4)))
    except Exception:  # pragma: no cover
        pass
    return 4


def _default_buckets(n_rows: int) -> int:
    """#buckets of :func:`hash_exchange` by rows: one per cluster CPU,
    raised so a bucket averages at most ``BUCKET_MAX_ROWS`` input rows.
    No fixed floor: each bucket costs a fold task, one part per split
    task and a metadata task, so buckets beyond the CPU count add Ray
    overhead and no parallelism."""
    return max(_cluster_cpus(), -(-int(n_rows) // BUCKET_MAX_ROWS))


def hash_exchange(ds, keys: Sequence[str],
                  fold: Callable[[pa.Table], pa.Table],
                  pre: Optional[Callable[[pa.Table], pa.Table]] = None):
    """The engine's one keyed exchange: every row of a key reaches one
    task, which folds it.  Runs on Ray core tasks over the materialized
    input, not as a Ray Data plan:

    - S = min(#non-empty blocks, B) split tasks (``num_returns`` = B + 1),
      each over a contiguous run of blocks cut so the tasks get about
      equal bytes (:func:`_contiguous_runs`): a task maps each block
      through ``pre`` (the block as is when None), concatenates them in
      block order, hashes the key tuple once (:func:`_row_hash64`; null
      keys hash like any value) and cuts the rows into B parts with one
      stable argsort on the bucket;
    - one fold task per non-empty bucket concatenates that bucket's parts
      in run order and applies ``fold`` exactly once, so ``fold`` sees
      complete keys, each bucket's rows in input order, and need not be
      self-mergeable.

    An exchange costs S + B tasks and S × B parts, not one split task and
    B parts per block: like a fold, a split task's input averages at
    most a bucket's bound, and no more split tasks run than the folds
    that follow, whose count already covers the cluster's CPUs.

    B is :func:`_default_buckets` of the row count (one bucket per cluster
    CPU, more above ``BUCKET_MAX_ROWS`` rows a bucket), raised so that no
    bucket averages more than ``BUCKET_MAX_BYTES`` of input, capped at
    ``MAX_BUCKETS``: a fold's input is bounded by rows and bytes, and no
    fixed bucket count adds tasks whose Ray overhead exceeds a small
    bucket's Arrow work.  Fold parallelism is B whatever the input's block
    count, and split parallelism is S.  A bucket holds ~1/B of the key
    space, not of the rows: a hot key lands whole in one fold, so callers
    with row-skewed keys pre-combine per block first.
    ``pre`` is any per-block Arrow → Arrow step that feeds the exchange (a
    projection ``lambda t: t.select(cols)``, a null-key filter, per-block
    partials); it runs once per block, never on a run's concatenation.
    Run in the split task it costs no Ray Data execution: a
    ``map_batches`` in front would cost one (~0.1 s on a small cluster,
    more than these steps' Arrow work), so on a materialized input the
    whole exchange runs none.  The price is that the input materializes
    with every column, and B is sized by the rows and bytes before
    ``pre``.
    The driver drops its refs to the parts once the folds are submitted,
    so each fold frees its inputs as it finishes.  Returns the fold
    outputs, one block per non-empty bucket, as a ``MaterializedDataset``.
    Every fold output shares one schema: the blocks must concatenate, so
    a fold casts its output to its op's declared types.  When no row
    reaches a fold, the result is one block folded on the driver:
    ``fold(pre(typed empty input))`` when the input has a schema, else
    ``fold`` of a 0-row table with no columns (a map over all-empty
    blocks has no schema).  So ``fold`` must accept a 0-row table that
    may lack columns, and returns its op's typed empty result."""
    inputs, runs, num_buckets = _plan(ds, pre)
    route = functools.partial(_hash_route, list(keys), num_buckets)
    return _exchange(inputs, runs, num_buckets, route, fold)


def _plan(ds, pre):
    """The materialized inputs, their non-empty blocks cut into S
    contiguous runs of about equal bytes, each run a ``(pres, refs)``
    pair (one ``pre`` per block), and B.  ``ds`` is a Dataset with its
    per-block ``pre``, or a list of Datasets with a list of one ``pre``
    each: the exchange then reads the union of their blocks, each block
    through its own input's ``pre``, where a Ray Data ``union`` would cost
    an execution."""
    inputs = list(zip(ds, pre)) if isinstance(ds, list) else [(ds, pre)]
    inputs = [(d.materialize(), p) for d, p in inputs]
    blocks = [(ref, meta.size_bytes or 0, p) for d, p in inputs
              for bundle in d.iter_internal_ref_bundles()
              for ref, meta in bundle.blocks if meta.num_rows != 0]
    num_buckets = int(min(MAX_BUCKETS, max(
        _default_buckets(sum(d.count() for d, _ in inputs)),
        -(-sum(d.size_bytes() for d, _ in inputs) // BUCKET_MAX_BYTES))))
    bounds = _contiguous_runs(np.maximum([n for _, n, _ in blocks], 1),
                              min(len(blocks), num_buckets))
    runs = [([p for _, _, p in blocks[a:b]], [r for r, _, _ in blocks[a:b]])
            for a, b in zip(bounds[:-1], bounds[1:])]
    return inputs, runs, num_buckets


def _exchange(inputs, runs, num_buckets, route, fold, weight=None,
              sort_keys=None, tail=None):
    """Split each run by ``route`` and fold each non-empty bucket once.
    With ``sort_keys`` (a range exchange) the fold of range b also
    receives the ``weight`` total of ranges < b, and with ``tail`` their
    halo (:func:`_halos`).  Returns the folds in bucket order, or the fold
    of the typed empty input when no row reaches one (see
    :func:`hash_exchange`)."""
    import ray
    import ray.data as rd

    from ..util import dataset_arrow_schema

    ranged = sort_keys is not None
    split = _remote(_split_block).options(num_returns=num_buckets + 1)
    splits = [split.remote(route, weight, tail, pres, *refs)
              for pres, refs in runs]
    counts = ray.get([s[0] for s in splits])
    halos = [None] * num_buckets
    if tail is not None and counts:
        counts, tails = zip(*counts)
        halos = _halos(sort_keys, tail, tails, num_buckets)
    before = np.zeros(num_buckets, dtype=np.int64)
    if counts and ranged:
        before[1:] = np.cumsum(np.sum(counts, axis=0)[1])[:-1]
    fold_ref = ray.put(fold)
    folds = [
        _remote(_fold_bucket).remote(
            fold_ref, int(before[b]) if ranged else None, halos[b],
            *[s[1 + b] for s, c in zip(splits, counts) if c[0, b]])
        for b in range(num_buckets) if any(c[0, b] for c in counts)]
    del splits, fold_ref
    if not folds:
        empty = pa.table({})  # no schema: e.g. a map over all-empty blocks
        for d, pre in inputs:
            schema = dataset_arrow_schema(d)
            if schema is not None:
                empty = schema.empty_table()
                empty = empty if pre is None else pre(empty)
                break
        return rd.from_arrow(_fold_bucket(
            fold, 0 if ranged else None,
            empty if tail is not None else None, empty))
    return rd.from_arrow_refs(folds)


def range_exchange(ds, sort_keys, fold=None, *, pre=None,
                   weight: Optional[str] = None, tail=None):
    """The engine's one ordered exchange, on :func:`hash_exchange`'s split
    and fold tasks: its output blocks are ranges of the ``sort_keys``
    order (Arrow ``(column, "ascending" | "descending")`` pairs, in
    :func:`sort_indices` order: nulls last, NaN above every float), in
    range order, each sorted, which is what ``sort(...).materialize()``
    returns.

    - a sample wave of S tasks (one per run of blocks, as the split
      tasks) maps each block through ``pre`` and returns the ``sort_keys``
      columns of evenly spaced rows with the run's row count; the driver
      cuts B - 1 boundary tuples (:func:`_boundaries`);
    - S split tasks route each row to its range with one
      :func:`sort_indices` over the run plus the boundaries (equal tuples
      share a range, so a tuple never straddles two ranges), cut the
      sorted run into one slice per range, and return beside the row
      counts each range's total of the ``weight`` column (row counts when
      None) and, with a ``tail``, the ``tail`` of each slice;
    - one fold task per non-empty range sorts it (stable) and calls
      ``fold(t, before)``, where ``before`` is the ``weight`` total of all
      earlier ranges, so a global row number or stream offset is
      ``before`` plus a local cumsum.  No ``fold`` returns the sorted range.

    ``tail(sorted table) -> table`` names the rows of a range that a later
    range may need (the last w - 1 rows for a w-row window), and must
    compose: tail(A ∪ B) = tail(tail(A) ∪ tail(B)).  With it the driver
    composes each range's halo, ``tail`` of all earlier ranges' rows, from
    the split tasks' tails (:func:`_halos`), and the fold is ``fold(t,
    before, halo)`` with the halo sorted and of ``t``'s columns.  So a
    range needs no boundary repair, and a hot key still spreads over many
    ranges instead of landing whole in one fold.

    ``ds`` may be a list of Datasets with ``pre`` a list of one step each
    (a tagged union: :func:`_plan`).  Costs S sample + S split + B fold
    tasks and one ``ray.get`` of about 16·B sampled rows (and the tails),
    a wave more than :func:`hash_exchange`, and no Ray Data execution on
    a materialized input; ``pre`` runs twice per block.  B, S and the
    typed empty result (``fold(pre(typed empty), 0)``, with a 0-row halo)
    are as there, except that an input with no schema gives a 0-row table
    with no columns, unfolded.  A range holds about 1/B of the rows,
    except that one tuple's rows stay in one range."""
    import ray

    inputs, runs, num_buckets = _plan(ds, pre)
    cols = [c for c, _ in sort_keys]
    # about 16 sampled rows per range in all, whatever S
    size = -(-16 * num_buckets // max(len(runs), 1))
    sample = _remote(_sample_run)
    samples = ray.get([sample.remote(cols, size, pres, *refs)
                       for pres, refs in runs])
    route = None
    if any(len(s) for s, _ in samples):
        route = functools.partial(_range_route, list(sort_keys),
                                  _boundaries(samples, sort_keys, num_buckets))
    else:  # no row survives ``pre``
        runs = []
    return _exchange(inputs, runs, num_buckets, route,
                     functools.partial(_sorted_fold, list(sort_keys), fold),
                     weight, list(sort_keys), tail)


def bucketed_group_fold(ds, keys, cols, funcs: Optional[Sequence[str]] = None,
                        *, drop_null_keys: bool = False,
                        finalize: Optional[Callable[[pa.Table], pa.Table]] = None,
                        combine: Optional[Callable[[pa.Table], pa.Table]] = None):
    """Corpus-cardinality ``groupby(keys).agg(cols)`` on
    :func:`hash_exchange`: only the slim ``keys + cols`` projection moves
    (the exchange's ``pre``, applied in its split tasks),
    and each bucket folds with ONE vectorized Arrow ``group_by`` — the
    replacement for Ray's sort-based groupby, whose reduce tasks pay a
    per-GROUP Python cost (~5 µs/row at near-unique keys, CLAUDE.md
    gotcha).  Rows of a key share a bucket (the hash is cross-worker
    deterministic) and buckets partition the key space, so the per-bucket
    folds are exact and independent.  No Ray Data sort or groupby runs.
    The exchange sizes B (one bucket per cluster CPU, raised by rows and
    bytes), so a fold over few rows runs as few tasks as the cluster has
    CPUs.

    Called directly only where the keys are corpus-cardinality by
    construction (near-unique ids, content hashes, full-row set keys);
    callers with row-skewed keys pre-combine per block first
    (``_ProjectKeys`` / ``_tree_combine_factory`` pattern), after which a
    hot key contributes at most one row per block.

    ``funcs`` are the self-mergeable "sum"/"min"/"max" (inputs may already
    be per-block partials).  ``drop_null_keys=False`` (default) keeps null
    keys as their own group (SQL/Arrow parity); True drops them.
    ``finalize`` (optional) maps each bucket's FOLDED table (columns
    ``keys + cols``, one row per key) to an arbitrary summary table —
    frequency reductions use it to emit one scalar-summary row per bucket
    so the folded table itself never moves again.  ``combine`` (optional)
    replaces the column-wise ``funcs`` fold with a custom per-bucket
    reduction over ``keys + cols`` (e.g. the runner's frequency fold,
    which also carries serialized states).  It runs EXACTLY ONCE
    per bucket, on that bucket's complete rows, so it need not be
    self-mergeable (``decontam.cross_source_overlap``'s ``bucket_pairs``
    relies on this: re-applied to its own output it would return
    nothing).  ``funcs`` and ``drop_null_keys`` are then ignored — the
    callable owns its own semantics, including the empty-input guard.
    Returns a ``MaterializedDataset`` of the per-bucket outputs; an input
    with no rows gives one block, the fold of the typed empty projection,
    and one with no typed key columns the fold of an empty table."""
    import ray.data as rd

    from ..util import dataset_arrow_schema

    keys = [keys] if isinstance(keys, str) else list(keys)
    cols = list(cols)
    funcs = list(funcs) if funcs is not None else ["sum"] * len(cols)
    if combine is None:
        combine = _tree_combine_factory(keys, cols, funcs, drop_null_keys)

    def fold(t: pa.Table) -> pa.Table:
        folded = combine(t)
        return finalize(folded) if finalize is not None else folded

    ds = ds.materialize()
    schema = dataset_arrow_schema(ds)
    proj = keys + cols
    if schema is None or not set(proj).issubset(schema.names):
        # no typed block anywhere holds the key columns — nothing to fold
        return rd.from_arrow(fold(pa.table({})))
    return hash_exchange(ds, keys, fold, pre=lambda t: t.select(proj))


def tree_group_sum(ds, keys, sum_cols, *, funcs: Optional[Sequence[str]] = None,
                   drop_null_keys: bool = True):
    """``groupby(keys).sum(sum_cols)``: one :func:`hash_exchange` whose
    ``pre`` and ``fold`` are the same per-table Arrow combine
    (:func:`_tree_combine_factory`).  Each block combines in its split
    task, so a hot key moves as at most one partial row per block, and
    each bucket combines its complete keys once.  On a materialized input
    it runs no Ray Data execution.

    ``funcs`` generalizes to per-column "sum"/"min"/"max" (algebraic,
    self-mergeable — a min of mins is the min).  ``drop_null_keys=True``
    (default) drops null-key rows — NOTE this is a deliberate divergence
    from Ray's ``groupby``, which (like SQL GROUP BY and Arrow's
    ``group_by``) KEEPS null as its own group; it matches the engine's
    grouped ops, whose call sites pre-filter null keys anyway.  Pass
    ``drop_null_keys=False`` for SQL GROUP BY parity: null keys hash like
    any value and keep their group.  Output columns keep their INPUT
    names, one row per distinct key, in no particular order.  Returns a
    ``MaterializedDataset`` with one block per non-empty bucket (typed
    when empty, see :func:`hash_exchange`); collect it with
    ``util.collect_arrow``, which runs no execution."""
    keys = list(keys) if not isinstance(keys, str) else [keys]
    sum_cols = list(sum_cols)
    funcs = list(funcs) if funcs is not None else ["sum"] * len(sum_cols)
    if len(funcs) != len(sum_cols):
        raise ValueError("funcs must match sum_cols")
    if any(f not in ("sum", "min", "max") for f in funcs):
        raise ValueError(f"unsupported tree aggregate in {funcs}: only "
                         "self-mergeable sum/min/max fold")
    combine = _tree_combine_factory(keys, sum_cols, funcs, drop_null_keys)
    return hash_exchange(ds, keys, combine, pre=combine)


def tree_distinct(ds, cols):
    """DISTINCT ``cols`` tuples: :func:`tree_group_sum` with no aggregate,
    since grouping by ``cols`` alone yields the distinct tuples — the
    shared helper behind the "distinct set" pattern (connected-components
    node init, pivot column scan, document frequency).  Null-key tuples
    drop (the grouped-op convention).  Returns a ``MaterializedDataset``
    with exactly ``cols``, one block per non-empty bucket."""
    cols = list(cols) if not isinstance(cols, str) else [cols]
    return tree_group_sum(ds, cols, [])
