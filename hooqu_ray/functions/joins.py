"""Broadcast semi/anti joins.

The reference has no join surface at all (SURVEY §2.3 "Joins / lookups:
none"); a large-scale pipeline needs at least the filter-joins.  Ray 2.49's
``Dataset.join`` is unusable in hot paths (its hash partitioner is a per-row
Python loop and it crashes on empty partitions — see CLAUDE.md), so the
small-side joins are expressed as a ``broadcast.BroadcastSet`` + a
streaming membership filter: the set ships once via ``ray.put`` (in
hash-range shards past ``broadcast.ROWS_PER_SHARD`` keys) and every batch
is probed by a vectorized C hash lookup.
"""

from __future__ import annotations

from typing import Optional

import pyarrow as pa
import pyarrow.compute as pc

from .broadcast import BroadcastSet


def _key_set(keys, col: str, key_col: Optional[str] = None) -> BroadcastSet:
    """Normalize the small side to a broadcast set of its distinct keys,
    named ``col``."""
    if isinstance(keys, pa.Table):
        if key_col is None:
            raise ValueError("key_col is required when keys is a Table")
        keys = keys.column(key_col)
    elif hasattr(keys, "to_arrow_refs"):  # ray.data.Dataset small side
        from ..util import collect_arrow

        tbl = collect_arrow(keys)
        keys = (pa.array([]) if tbl is None
                else tbl.column(key_col or tbl.column_names[0]))
    elif not isinstance(keys, (pa.Array, pa.ChunkedArray)):
        keys = pa.array(list(keys))
    return BroadcastSet.put(pa.table({col: pc.unique(keys)}), col)


def semi_join(ds, keys, col: str, key_col: Optional[str] = None):
    """Rows of ``ds`` whose ``col`` appears in the (small) key side (SQL
    ``IN``: null keys drop).

    ``keys``: an Arrow array/table, a Python iterable, or a small
    ``ray.data.Dataset`` (collected to a compact key array)."""
    return _key_set(keys, col, key_col).semi(ds, col)


def anti_join(ds, keys, col: str, key_col: Optional[str] = None):
    """Rows of ``ds`` whose ``col`` does NOT appear in the (small) key side
    (SQL ``NOT IN``: null keys drop)."""
    return _key_set(keys, col, key_col).anti(ds, col)


def _dim_table(dim, dim_key: str, cols) -> pa.Table:
    """Normalize the dimension side to one local Arrow table with a UNIQUE,
    non-null key column (a lookup join is only well-defined against a
    primary key — duplicate keys would silently multiply fact rows in SQL
    but can only pick one arbitrary match here, so they are an error).
    A Dataset dim with no rows (e.g. a fold over empty input, whose
    blocks carry no schema) matches nothing: its ``cols`` are null."""
    if hasattr(dim, "to_arrow_refs"):  # ray.data.Dataset small side
        from ..util import collect_arrow

        dim = collect_arrow(dim)
        if dim is None:
            dim = pa.table({c: pa.array([]) for c in [dim_key, *cols]})
    elif not isinstance(dim, pa.Table):
        dim = pa.Table.from_pandas(dim, preserve_index=False)
    dim = dim.combine_chunks()
    keys = dim.column(dim_key)
    if keys.null_count:
        dim = dim.filter(pc.is_valid(keys))
        keys = dim.column(dim_key)
    if len(pc.unique(keys)) != len(keys):
        raise ValueError(
            f"enrich_join: dimension key {dim_key!r} has duplicate values"
        )
    return dim


class _EnrichBatch:
    """``map_batches`` stage: vectorized dictionary lookup of a broadcast
    dim table.  ``pc.index_in`` maps each fact key to its dim row (null for
    a miss), ``take`` gathers the dim columns — null indices gather nulls,
    which is exactly LEFT-join semantics; ``how='inner'`` drops misses."""

    def __init__(self, dim_ref, on: str, dim_key: str, cols, how: str):
        self.dim_ref = dim_ref
        self.on = on
        self.dim_key = dim_key
        self.cols = cols
        self.how = how
        self._dim = None
        self._keys = None

    def __call__(self, t: pa.Table) -> pa.Table:
        if self._dim is None:
            import ray

            obj = self.dim_ref
            self._dim = obj if isinstance(obj, pa.Table) else ray.get(obj)
            self._keys = self._dim.column(self.dim_key).combine_chunks()
        idx = pc.index_in(t.column(self.on), value_set=self._keys)
        if self.how == "inner":
            mask = pc.is_valid(idx)
            t = t.filter(mask)
            idx = idx.filter(mask)
        for c in self.cols:
            t = t.append_column(c, self._dim.column(c).take(idx))
        return t


def enrich_join(ds, dim, on: str, dim_key: str, cols, how: str = "left"):
    """Dimension-enrichment (broadcast lookup) join: append ``cols`` of a
    small unique-keyed ``dim`` table to every fact row whose ``on`` value
    matches ``dim_key`` (``how='left'`` keeps misses with nulls,
    ``'inner'`` drops them) — the star-schema fact→dim join.

    The dim table ships ONCE via ``ray.put`` (zero-copy plasma read per
    worker); each fact batch pays one vectorized ``index_in`` + ``take``
    per appended column, and the fact side never shuffles.  The dim side
    must fit in a worker's heap — for a larger dim side shard it by key
    hash range and union per-shard passes (``util.shard_codes``), or
    co-partition both sides by key instead."""
    import ray

    if how not in ("left", "inner"):
        raise ValueError(f"enrich_join: how must be 'left' or 'inner', got {how!r}")
    cols = list(cols)
    dim_tbl = _dim_table(dim, dim_key, cols)
    missing = [c for c in cols if c not in dim_tbl.column_names]
    if missing:
        raise KeyError(f"enrich_join: dim columns not found: {missing}")
    ref = ray.put(dim_tbl.select([dim_key, *cols]))
    return ds.map_batches(
        _EnrichBatch(ref, on, dim_key, cols, how), batch_format="pyarrow"
    )


def referential_integrity(child_ds, parent_ds, fk: str, pk: str) -> float:
    """Fraction of child rows whose foreign key exists in the parent's key
    set (a null foreign key is a violation, matching SQL ``EXISTS``).

    The parent key set is collected once as a deduplicated broadcast set;
    the child streams through one counting pass (per-batch ``isin`` + two
    int partials summed on the driver) — no shuffle of either table.
    Returns NaN for an empty child."""
    from ..util import collect_arrow

    parent = _key_set(parent_ds, fk, pk)

    def count_matches(t: pa.Table) -> pa.Table:
        matched = pc.sum(pc.cast(parent.isin(t.column(fk)), pa.int64()))
        return pa.table({"matched": pa.array([matched.as_py() or 0], pa.int64()),
                         "total": pa.array([len(t)], pa.int64())})

    counts = collect_arrow(
        child_ds.map_batches(count_matches, batch_format="pyarrow"))
    if counts is None:
        return float("nan")
    total = pc.sum(counts.column("total")).as_py() or 0
    if total == 0:
        return float("nan")
    matched = pc.sum(counts.column("matched")).as_py() or 0
    return matched / total


def hash_join(left, right, on: str, right_on: Optional[str] = None,
              how: str = "inner", suffix: str = "_r",
              bloom_prefilter: Optional[str] = None,
              bloom_m_bits: int = 1 << 22,
              salt_keys=None, salt_factor: int = 8):
    """General distributed equi-join of TWO LARGE datasets — the exchange
    (shuffle) join Ray Data 2.49 lacks a usable native form of (its
    ``Dataset.join`` hash-partitions via a per-row Python loop and crashes
    on empty partitions; see CLAUDE.md).

    Both sides emit one common join-key column ``__hk`` (the key cast to
    one type for both sides) and a side tag, union under one schema (each
    side's columns null on the other side's rows) and take ONE
    ``shuffle.hash_exchange`` on ``__hk``; each bucket then runs one local
    Arrow (Acero) join of its left rows against its right rows.  Only the
    two projected tables move, once each.  ``how``: ``'inner'``,
    ``'left'``, ``'right'`` or ``'full'``.  Null join keys never match
    (SQL semantics, including in the outer forms: the retaining side keeps
    its null-key rows unmatched); ``on`` is coalesced across sides (SQL
    ``USING``), so right-only rows still carry their key.

    The right key column is dropped from the output (SQL ``USING``);
    other right columns colliding with a left name get ``suffix``.  Every
    column keeps its input type (an outer join's unmatched side is null,
    never a pandas float promotion); ``on`` takes the common key type
    under ``'right'``/``'full'``, where right keys fill it.

    Scale notes — the partitioning assumptions this relies on:
    - Every row of key *k* lands in the bucket of ``hash(k)``; the
      exchange sizes B from the cluster and the input (rows and bytes
      per bucket), so no bucket count is set here.  A single SKEWED hot
      key still lands whole in one bucket (join correctness requires
      co-location): pass it in ``salt_keys`` (below), or use
      :func:`enrich_join` when one side is broadcastable.
    - Many-to-many keys multiply output rows inside the bucket join,
      exactly as in SQL.

    ``salt_keys`` + ``salt_factor``: split each listed HOT key across
    ``salt_factor`` exchange keys — left rows of a hot key take a
    deterministic salt in ``[0, S)`` and the right side REPLICATES its
    hot-key rows once per salt; the salt is part of the exchange and join
    key (``[__hk, __salt]``), so every (key, salt) pair still co-locates
    and the hot key's work spreads over up to S buckets instead of
    melting one task.  Only valid for ``how ∈ {inner, left}`` (a
    replicated right row that found no match would otherwise appear S
    times); find candidates with :func:`detect_hot_keys` (count-min heavy
    hitters).  Null keys are never hot.

    ``bloom_prefilter`` (``'left'``, ``'right'`` or ``'both'``): before the
    exchange, summarize the OTHER side's keys into a Bloom bitmap
    (``pipelines/bloom.py``, ``bloom_m_bits`` sized to its key count) and
    drop rows that provably cannot match.  A 100-TB lever for SELECTIVE
    joins: the dropped rows never enter the shuffle.  Bloom has no false
    negatives, so results are exactly unchanged; a side may only be
    prefiltered when its unmatched rows wouldn't be retained anyway
    (left needs ``how ∈ {inner, right}``, right needs ``how ∈ {inner,
    left}`` — violating that raises).  Costs one extra pruned scan of the
    summarized side; off by default."""
    import numpy as np
    import ray

    from ..pipelines.bloom import _probe_positions, _test_bits, build_bloom
    from ..util import dataset_arrow_schema, stable_hash64
    from .shuffle import hash_exchange

    if how not in ("inner", "left", "right", "full"):
        raise ValueError(
            f"hash_join: how must be 'inner', 'left', 'right' or 'full', got {how!r}"
        )
    rkey = right_on or on
    lschema = dataset_arrow_schema(left)
    rschema = dataset_arrow_schema(right)
    if lschema is None or rschema is None:
        raise ValueError("hash_join: a side has no schema (empty dataset)")
    lnames = list(lschema.names)
    if on not in lnames:
        raise KeyError(f"hash_join: left key {on!r} not in {lnames}")
    if rkey not in rschema.names:
        raise KeyError(f"hash_join: right key {rkey!r} not in {list(rschema.names)}")
    # One join-key type for both sides: a pandas-promoted float64 key must
    # meet its int64 counterpart (ints ≤ 2^53 are exact in float64; larger
    # keys must arrive as int64 or string on BOTH sides).
    ltype, rtype = lschema.field(on).type, rschema.field(rkey).type
    if pa.types.is_floating(ltype) or pa.types.is_floating(rtype):
        hash_cast: Optional[pa.DataType] = pa.float64()
    elif pa.types.is_integer(ltype) and pa.types.is_integer(rtype):
        hash_cast = pa.int64()
    else:
        hash_cast = None  # same-family types (e.g. string/string)
    key_type = hash_cast or ltype
    if bloom_prefilter is not None:
        if bloom_prefilter not in ("left", "right", "both"):
            raise ValueError(
                "hash_join: bloom_prefilter must be 'left', 'right' or 'both', "
                f"got {bloom_prefilter!r}"
            )
        want = ("left", "right") if bloom_prefilter == "both" else (bloom_prefilter,)
        allowed = {"left": ("inner", "right"), "right": ("inner", "left")}
        for side in want:
            if how not in allowed[side]:
                raise ValueError(
                    f"hash_join: bloom_prefilter={side!r} would drop retained "
                    f"{side}-side rows under how={how!r}"
                )

        def _key_proj(ds_, keycol):
            def f(t: pa.Table) -> pa.Table:
                return pa.table({"__k": t.column(keycol).cast(key_type)})

            return ds_.map_batches(f, batch_format="pyarrow")

        class _KeepMaybeMatching:
            """Drop rows whose key is provably absent from the other side
            (Bloom has no false negatives → join output is unchanged)."""

            def __init__(self, ref, keycol):
                self.ref = ref
                self.keycol = keycol
                self._bm = None

            def __call__(self, t: pa.Table) -> pa.Table:
                if self._bm is None:
                    obj = self.ref
                    self._bm = obj if isinstance(obj, np.ndarray) else ray.get(obj)
                if len(t) == 0:
                    return t
                h = stable_hash64(t.column(self.keycol).cast(key_type))
                maybe = _test_bits(
                    self._bm, _probe_positions(h, bloom_m_bits, 4)
                )
                return t.filter(pa.array(maybe))

        if "left" in want:
            bm = build_bloom(_key_proj(right, rkey), "__k", m_bits=bloom_m_bits)
            left = left.map_batches(
                _KeepMaybeMatching(ray.put(bm), on), batch_format="pyarrow"
            )
        if "right" in want:
            bm = build_bloom(_key_proj(left, on), "__k", m_bits=bloom_m_bits)
            right = right.map_batches(
                _KeepMaybeMatching(ray.put(bm), rkey), batch_format="pyarrow"
            )

    rout = []  # (source_name, out_name) for non-key right columns
    for nm in rschema.names:
        if nm == rkey:
            continue
        rout.append((nm, nm + suffix if nm in lnames else nm))

    salt_list = list(salt_keys) if salt_keys is not None else []
    if salt_list:
        if salt_factor < 2:
            raise ValueError(
                f"hash_join: salt_factor must be ≥ 2, got {salt_factor}"
            )
        if how not in ("inner", "left"):
            raise ValueError(
                "hash_join: salt_keys requires how ∈ {'inner', 'left'} — a "
                f"replicated unmatched right row would be retained under {how!r}"
            )
    keys = ["__hk", "__salt"] if salt_list else ["__hk"]

    def _hot_mask(hk):
        hot = pa.array(salt_list).cast(hk.type)
        return pc.fill_null(pc.is_in(hk, value_set=hot), False).to_numpy(
            zero_copy_only=False
        )

    def tagged(key, slot: int, salt, lcols, rcols) -> pa.Table:
        """One side's rows under the union schema: join key, side tag,
        salt, then every left and right output column (null when the
        side has none)."""
        n = len(key)
        hk = key.cast(key_type)
        cols = {"__hk": hk,
                "__slot": pa.repeat(pa.scalar(slot, pa.int32()), n)}
        if salt_list:
            if salt is None:
                salt = np.zeros(n, dtype=np.int64)
                idx = np.flatnonzero(_hot_mask(hk))
                salt[idx] = np.arange(idx.size) % salt_factor  # even spread
            cols["__salt"] = pa.array(salt, pa.int64())
        cols["__rkey"] = rcols.get("__rkey", pa.nulls(n, rtype))
        for nm in lnames:
            cols[nm] = lcols.get(nm, pa.nulls(n, lschema.field(nm).type))
        for src, out in rout:
            cols[out] = rcols.get(out, pa.nulls(n, rschema.field(src).type))
        return pa.table(cols)

    def left_side(t: pa.Table) -> pa.Table:
        # null keys never match; drop them unless this side is retained
        if how in ("inner", "right") and t.column(on).null_count:
            t = t.filter(pc.is_valid(t.column(on)))
        return tagged(t.column(on), 0, None,
                      {nm: t.column(nm) for nm in lnames}, {})

    def right_side(t: pa.Table) -> pa.Table:
        if how in ("inner", "left") and t.column(rkey).null_count:
            t = t.filter(pc.is_valid(t.column(rkey)))
        salt = np.zeros(len(t), dtype=np.int64) if salt_list else None
        if salt_list and len(t):
            hot_idx = np.flatnonzero(_hot_mask(t.column(rkey).cast(key_type)))
            if hot_idx.size:
                # replicate each hot row once per extra salt so every
                # (key, salt) pair sees the full right side of that key
                sel = np.r_[
                    np.arange(len(t), dtype=np.int64),
                    np.tile(hot_idx, salt_factor - 1),
                ]
                salt = np.r_[
                    salt,
                    np.repeat(
                        np.arange(1, salt_factor, dtype=np.int64), hot_idx.size
                    ),
                ]
                t = t.take(pa.array(sel, pa.int64()))
        rcols = {out: t.column(src) for src, out in rout}
        rcols["__rkey"] = t.column(rkey)
        return tagged(t.column(rkey), 1, salt, {}, rcols)

    out_key_type = key_type if how in ("right", "full") else ltype
    out_schema = pa.schema(
        [(nm, out_key_type if nm == on else lschema.field(nm).type)
         for nm in lnames]
        + [(out, rschema.field(src).type) for src, out in rout])
    join_type = {"inner": "inner", "left": "left outer",
                 "right": "right outer", "full": "full outer"}[how]

    def bucket_join(t: pa.Table) -> pa.Table:
        """One bucket: an Acero join of row indices on the join key (nulls
        never match; an outer side's unmatched rows get a null index),
        then one ``take`` per side, so every column keeps its type."""
        if len(t) == 0:  # the exchange's typed empty (may lack columns)
            return out_schema.empty_table()
        slot = t.column("__slot")
        lt = t.filter(pc.equal(slot, 0))
        rt = t.filter(pc.equal(slot, 1))

        def index(side: pa.Table, name: str) -> pa.Table:
            return side.select(keys).append_column(
                name, pa.array(np.arange(len(side), dtype=np.int64)))

        m = index(lt, "__li").join(index(rt, "__ri"), keys=keys,
                                   join_type=join_type)
        lt = lt.take(m.column("__li"))
        rt = rt.take(m.column("__ri"))
        cols = ([lt.column(nm) for nm in lnames]
                + [rt.column(out) for _, out in rout])
        if how in ("right", "full"):
            # SQL USING: right-only rows keep their key value
            i = lnames.index(on)
            cols[i] = pc.coalesce(cols[i].cast(out_key_type),
                                  rt.column("__rkey").cast(out_key_type))
        return pa.Table.from_arrays(cols, schema=out_schema)

    unioned = left.map_batches(left_side, batch_format="pyarrow").union(
        right.map_batches(right_side, batch_format="pyarrow")
    )
    return hash_exchange(unioned, keys, bucket_join)


def detect_hot_keys(ds, col: str, n_buckets: int = 64, factor: float = 4.0,
                    k: int = 64):
    """Skew-key candidates for ``hash_join(salt_keys=...)``: the values
    whose estimated frequency (count-min heavy hitters — never an
    undercount, so no hot key is missed) exceeds ``factor ×`` the even
    per-bucket share ``N / n_buckets``.  Diagnostic helper: costs one
    sketch pass + one count of ``ds``; run it once on a sample or a prior
    snapshot and reuse the list."""
    from ..pipelines.cms import heavy_hitters

    hh = heavy_hitters(ds, col, k)
    total = ds.count()
    threshold = factor * total / max(n_buckets, 1)
    return [
        v
        for v, e in zip(
            hh.column(col).to_pylist(), hh.column("est_count").to_pylist()
        )
        if e >= threshold
    ]
