"""The one broadcast key set behind every small-side semi/anti join and
keyed lookup.

Shape: collect a slim key table on the driver, ``ray.put`` it in
hash-range shards (``util.shard_codes`` of the key), and probe every batch
against it in ONE stage.  A key lives in exactly one shard, so a probe
against the set is a join over the UNION ALL of its shards (*Joins over
UNION ALL Queries*, SIGMOD 2018): the per-shard hits OR together.  Never
chain one semi-filter per shard — the chained keep masks AND to the empty
intersection the moment a second shard exists.

Shards bound what the driver holds while collecting (one shard at a time)
and the size of each plasma object; a worker fetches the shards lazily,
once per task, on its first probe.  Each probe picks its direction from
the shard's size like ``util.isin_mask`` (*Adaptive Execution of Compiled
Queries*, ICDE 2018): up to ``util._DIRECT_ISIN_MAX`` keys it hashes the
shard, above it hashes the batch's few distinct keys and streams the
shard through them once — a per-batch hash build of a multi-million-key
shard is the 12 s → 84 s cost ``isin_mask`` documents.

Null keys never match (SQL ``IN`` / ``NOT IN``): ``isin`` is False and
``lookup`` misses on a null.  An op that keeps null-key rows through an
anti-join says so at its call site (``transcripts.dedup_conversations``).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import util

# Rows per shard: ≈64 MB of two int64 columns, so an adversarial key-set
# cardinality neither OOMs the driver nor exceeds one plasma object.
ROWS_PER_SHARD = 4_000_000


def hash_shards(ds, key: str, n_rows: int, rows_per_shard: int):
    """The members of ``ds`` as a UNION ALL of ``stable_hash64`` ranges of
    ``key`` holding about ``rows_per_shard`` of its ``n_rows`` rows each:
    ``ds`` itself when one shard is enough (no extra stage), else one
    ``util.ShardFilter`` view per shard.  A key lives in exactly one
    shard, so a per-shard result set is disjoint from every other's."""
    n_shards = max(1, -(-int(n_rows) // rows_per_shard))
    if n_shards == 1:
        yield ds
        return
    for s in range(n_shards):
        yield ds.map_batches(util.ShardFilter(key, n_shards, s),
                             batch_format="pyarrow")


class BroadcastSet:
    """A key table broadcast as hash-range shards of ``key`` (module
    docstring).  Build it with :meth:`collect` (a dataset) or :meth:`put`
    (a driver table); it is empty — falsy, no shards — when no row
    survives.  Pickles as its object refs only, so a stage closing over
    it ships the refs and fetches the tables in the task."""

    def __init__(self, refs: Sequence, key: str):
        self.refs = list(refs)
        self.key = key
        self._tables = None

    @classmethod
    def collect(cls, ds, key: str):
        """Materialize ``ds`` once and count it.  Up to ``ROWS_PER_SHARD``
        rows collect as one shard with no further execution; above it, one
        ``stable_hash64`` shard of ``key`` is collected at a time."""
        import ray

        ds = ds.materialize()
        parts = (util.collect_arrow(shard) for shard in
                 hash_shards(ds, key, ds.count(), ROWS_PER_SHARD))
        return cls([ray.put(t) for t in parts if t is not None and len(t)],
                   key)

    @classmethod
    def put(cls, table: pa.Table, key: str):
        """The same set from a table already on the driver."""
        import ray

        n_shards = -(-len(table) // ROWS_PER_SHARD)
        parts = [table]
        if n_shards > 1:
            codes = util.shard_codes(table.column(key), n_shards)
            order = np.argsort(codes, kind="stable")
            cuts = np.searchsorted(codes[order], np.arange(n_shards + 1))
            parts = [table.take(order[a:b]) for a, b in zip(cuts, cuts[1:])]
        return cls([ray.put(t.combine_chunks()) for t in parts if len(t)],
                   key)

    def __bool__(self) -> bool:
        return bool(self.refs)

    def __getstate__(self):
        return {**self.__dict__, "_tables": None}

    def tables(self) -> List[pa.Table]:
        """The shard tables, fetched once per process (task) on first use."""
        if self._tables is None:
            import ray

            self._tables = ray.get(self.refs)
        return self._tables

    def isin(self, col) -> pa.Array:
        """Membership mask of ``col``: the per-shard ``util.isin_mask``
        hits ORed; a null key is False.  An empty ``col`` fetches no
        shard."""
        if len(col) == 0:
            return pa.array([], pa.bool_())
        mask = pa.array(np.zeros(len(col), bool))
        for w in self.tables():
            mask = pc.or_(mask, util.isin_mask(col, w.column(self.key)))
        return pc.and_(mask, pc.is_valid(col))

    def lookup(self, t: pa.Table, key: str, cols: Sequence[str]) -> pa.Table:
        """Inner lookup: the rows of ``t`` whose ``key`` is in the set, in
        ``t``'s order, with the matching set row's ``cols`` appended.  On
        an empty set the appended columns are empty and null-typed."""
        col = t.column(key)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        rows, hits = [], []
        for w in self.tables():
            if len(w) > util._DIRECT_ISIN_MAX:  # inverted probe
                w = w.filter(pc.is_in(w.column(self.key),
                                      value_set=pc.unique(col)))
            pos = pc.index_in(col, value_set=w.column(self.key),
                              skip_nulls=True)
            hit = pc.is_valid(pos)
            rows.append(np.flatnonzero(hit.to_numpy(zero_copy_only=False)))
            hits.append(w.select(cols).take(pos.filter(hit)))
        if not rows:
            out = t.slice(0, 0)
            for c in cols:
                out = out.append_column(c, pa.nulls(0))
            return out
        row = np.concatenate(rows)
        found = pa.concat_tables(hits)
        if len(rows) > 1:  # shards hit disjoint rows: restore t's order
            order = np.argsort(row, kind="stable")
            row, found = row[order], found.take(order)
        out = t.take(row)
        for c in cols:
            out = out.append_column(c, found.column(c))
        return out

    def semi(self, ds, col: str):
        """Rows of ``ds`` whose ``col`` is in the set (SQL ``IN``), typed
        like ``ds`` when no row survives (``util.map_typed``)."""
        return util.map_typed(
            ds, lambda t: t.filter(self.isin(t.column(col))))

    def anti(self, ds, col: str):
        """Rows of ``ds`` whose ``col`` is not in the set (SQL ``NOT IN``:
        a null key is neither, and drops), typed like ``ds`` when no row
        survives (``util.map_typed``)."""

        def keep(t: pa.Table) -> pa.Table:
            c = t.column(col)
            return t.filter(pc.and_(pc.invert(self.isin(c)), pc.is_valid(c)))

        return util.map_typed(ds, keep)
