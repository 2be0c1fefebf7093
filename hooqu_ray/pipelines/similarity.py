"""Similarity search over an embedding column (``list<float>``).

- ``knn_brute_force``: exact top-k cosine.  The query matrix is broadcast
  once (``ray.put``); each block computes a float64 matmul against it and
  emits only its LOCAL top-k per query (tiny), which the driver merges.
  Data volume returned: O(num_blocks · q · k), independent of dataset size.
- ``knn_ivf``: scale path — k-means-style coarse quantizer (deterministic
  seeded init, trained on a sample), vectors bucketed by nearest centroid
  via ``groupby``; queries probe the ``nprobe`` nearest centroids only.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _normalize(m: np.ndarray) -> np.ndarray:
    return m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)


class _BlockTopK:
    """Per-block partial top-k: (query_idx, vec_id, cosine) rows."""

    def __init__(self, queries_ref, k: int, emb_col: str, id_col: str,
                 exclude_ids: Optional[frozenset] = None):
        self.queries_ref = queries_ref
        self.k = k
        self.emb_col = emb_col
        self.id_col = id_col
        self.exclude_ids = exclude_ids or frozenset()
        self._q: Optional[np.ndarray] = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self._q is None:
            import ray

            q = self.queries_ref
            self._q = q if isinstance(q, np.ndarray) else ray.get(q)
        from ..util import embedding_matrix

        ids = np.asarray(batch.column(self.id_col).to_pylist())
        emb = _normalize(embedding_matrix(batch.column(self.emb_col), np.float64))
        sims = self._q @ emb.T  # (n_queries, n_block)
        k = min(self.k, sims.shape[1])
        idx = np.argpartition(-sims, k - 1, axis=1)[:, :k]
        out_q, out_id, out_s = [], [], []
        for qi in range(sims.shape[0]):
            for col in idx[qi]:
                if ids[col] in self.exclude_ids:
                    continue
                out_q.append(qi)
                out_id.append(ids[col])
                out_s.append(sims[qi, col])
        return pa.table(
            {
                "query_idx": pa.array(out_q, pa.int64()),
                self.id_col: pa.array(out_id),
                "cosine": pa.array(out_s, pa.float64()),
            }
        )


def knn_brute_force(ds, queries: np.ndarray, k: int = 10,
                    emb_col: str = "embedding", id_col: str = "vec_id",
                    query_ids=None) -> pa.Table:
    """Exact top-k cosine neighbors for each query row.

    ``queries``: (q, dim) float array (unnormalized ok).  Returns an Arrow
    table (query_idx, id_col, cosine) with exactly k rows per query (ties
    broken by ascending id for determinism).  ``query_ids``: ids to exclude
    from their own result (self-matches)."""
    import ray

    qn = _normalize(np.asarray(queries, dtype=np.float64))
    ref = ray.put(qn)
    # fetch one extra local candidate per block when self-matches get
    # excluded later: the self row may displace the true k-th neighbor
    # inside its own block
    k_local = k + 1 if query_ids is not None else k
    partials = ds.map_batches(
        _BlockTopK(ref, k_local, emb_col, id_col), batch_format="pyarrow"
    )
    # Driver merge of tiny partials — one vectorized stable sort + grouped
    # head(k) instead of a per-row Python heap.  Ties break by ascending id
    # for ANY id dtype (the round-1 heap keyed string ids by hash(), which
    # depends on PYTHONHASHSEED across processes).
    import pandas as pd

    df = partials.to_pandas()
    if query_ids is not None and len(df):
        self_of = pd.Series(dict(enumerate(query_ids)))
        df = df[df[id_col] != df["query_idx"].map(self_of)]
    df = df.sort_values(
        ["query_idx", "cosine", id_col],
        ascending=[True, False, True],
        kind="mergesort",
        ignore_index=True,
    )
    top = df.groupby("query_idx", sort=True, as_index=False).head(k)
    return pa.Table.from_pandas(top, preserve_index=False).select(
        ["query_idx", id_col, "cosine"]
    )


# ---------------------------------------------------------------------------
# IVF-style scale path
# ---------------------------------------------------------------------------


def train_centroids(sample: np.ndarray, n_centroids: int, iters: int = 10,
                    seed: int = 5) -> np.ndarray:
    """Deterministic mini k-means on a driver-side sample (normalized)."""
    rng = np.random.default_rng(seed)
    s = _normalize(np.asarray(sample, dtype=np.float64))
    cent = s[rng.choice(len(s), size=min(n_centroids, len(s)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(s @ cent.T, axis=1)
        for c in range(len(cent)):
            members = s[assign == c]
            if len(members):
                cent[c] = members.mean(axis=0)
        cent = _normalize(cent)
    return cent


class _AssignCentroid:
    def __init__(self, centroids_ref, emb_col: str):
        self.centroids_ref = centroids_ref
        self.emb_col = emb_col
        self._c = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self._c is None:
            import ray

            c = self.centroids_ref
            self._c = c if isinstance(c, np.ndarray) else ray.get(c)
        from ..util import embedding_matrix

        emb = _normalize(embedding_matrix(batch.column(self.emb_col), np.float64))
        assign = np.argmax(emb @ self._c.T, axis=1)
        return batch.append_column("centroid", pa.array(assign, pa.int32()))


class IvfIndex:
    """A centroid-partitioned on-disk IVF index.

    ``root`` holds one hive directory per coarse cell
    (``centroid=<c>/*.parquet``), so probing reads ONLY the
    ``nprobe``/``n_centroids`` slice of the corpus from storage — column
    pruning at the read replaces the round-2 full filter-scan per query
    batch.  The layout is also the resumable-output shape: a failed build
    re-runs the one partitioned write; queries never mutate the index."""

    def __init__(self, root: str, centroids: np.ndarray, emb_col: str,
                 id_col: str):
        self.root = root
        self.centroids = centroids
        self.emb_col = emb_col
        self.id_col = id_col

    def probe_paths(self, queries: np.ndarray, nprobe: int):
        """Partition directories the given queries touch (union of each
        query's ``nprobe`` nearest cells) — exposed so callers/tests can
        assert the read really is pruned."""
        import os

        qn = _normalize(np.asarray(queries, dtype=np.float64))
        probe = np.argsort(-(qn @ self.centroids.T), axis=1)[:, :nprobe]
        wanted = sorted({int(c) for row in probe for c in row})
        paths = [os.path.join(self.root, f"centroid={c}") for c in wanted]
        return [p for p in paths if os.path.isdir(p)]

    def probe_files(self, queries: np.ndarray, nprobe: int):
        """Parquet files under the probed partitions (Ray 2.49's
        ``read_parquet`` rejects a LIST of directories — expand to files)."""
        import os

        return [
            os.path.join(d, f)
            for d in self.probe_paths(queries, nprobe)
            for f in sorted(os.listdir(d))
            if f.endswith(".parquet")
        ]

    def search(self, queries: np.ndarray, k: int = 10, nprobe: int = 4,
               query_ids=None) -> pa.Table:
        """Brute-force top-k over the probed partitions only."""
        import ray.data as rd

        files = self.probe_files(queries, nprobe)
        sub = rd.read_parquet(files, columns=[self.id_col, self.emb_col])
        return knn_brute_force(
            sub, queries, k, self.emb_col, self.id_col, query_ids=query_ids
        )


def build_ivf_index(ds, n_centroids: int = 16, emb_col: str = "embedding",
                    id_col: str = "vec_id", sample_size: int = 2048,
                    index_dir: Optional[str] = None) -> IvfIndex:
    """Train a coarse quantizer and write the corpus hive-partitioned by
    nearest centroid (``centroid=<c>/``) — ONE pass over the data, streamed
    through ``write_parquet`` (never materialized).  Default ``index_dir``
    is a fresh mkdtemp under ``$HOOQU_SCRATCH_DIR`` / ``/tmp`` (same
    multi-node shared-storage rule as the flagship scratch: workers write
    remotely, the driver lists the result)."""
    import os
    import tempfile

    import ray

    if index_dir is None:
        root_env = os.environ.get("HOOQU_SCRATCH_DIR")
        if root_env is None and len(ray.nodes()) > 1:
            raise ValueError(
                "build_ivf_index on a multi-node cluster needs shared "
                "storage: pass index_dir= or set HOOQU_SCRATCH_DIR"
            )
        if root_env is not None:
            os.makedirs(root_env, exist_ok=True)
        index_dir = tempfile.mkdtemp(prefix="hooqu_ivf_", dir=root_env or "/tmp")
        # default index dir is transient scratch — reclaim on process exit
        import atexit
        import shutil

        atexit.register(shutil.rmtree, index_dir, ignore_errors=True)
    else:
        os.makedirs(index_dir, exist_ok=True)
        if os.listdir(index_dir):
            raise ValueError(
                f"index_dir {index_dir!r} is not empty: refusing to merge a "
                "new index into stale partitions"
            )
    sample = np.stack(
        [r[emb_col] for r in ds.take(sample_size)]
    ).astype(np.float64)
    cent = train_centroids(sample, n_centroids)
    ref = ray.put(cent)
    ds.map_batches(
        _AssignCentroid(ref, emb_col), batch_format="pyarrow"
    ).write_parquet(index_dir, partition_cols=["centroid"])
    return IvfIndex(index_dir, cent, emb_col, id_col)


def knn_ivf(ds, queries: np.ndarray, k: int = 10, n_centroids: int = 16,
            nprobe: int = 4, emb_col: str = "embedding", id_col: str = "vec_id",
            sample_size: int = 2048, query_ids=None,
            index_dir: Optional[str] = None) -> pa.Table:
    """Approximate top-k: build the centroid-partitioned index (one
    streaming pass + partitioned parquet write), then probe only each
    query's ``nprobe`` nearest cells — the read touches
    nprobe/n_centroids of the corpus, not all of it.  For repeated query
    batches call ``build_ivf_index`` once and ``IvfIndex.search`` per
    batch."""
    index = build_ivf_index(
        ds, n_centroids, emb_col, id_col, sample_size, index_dir
    )
    return index.search(queries, k, nprobe, query_ids=query_ids)


def kmeans(ds, n_clusters: int, n_iters: int = 5,
           emb_col: str = "embedding", id_col: str = "vec_id",
           fanout: int = 64):
    """Distributed spherical k-means (Lloyd's) over the FULL corpus — the
    iterative-refinement counterpart of ``train_centroids`` (which fits a
    driver-side sample).  Per iteration:

    1. centroids broadcast once via ``ray.put`` (k×dim floats);
    2. every block computes its assignments vectorized (one matmul) and
       reduces to ONE partial row: flattened per-centroid vector sums,
       per-centroid counts, and the block's total cosine objective;
    3. partials tree-ADD (``batch_size=fanout`` passes, the Bloom tree-OR
       shape) so the driver only ever folds ≤ fanout rows;
    4. new centroids = normalized means (an empty cluster keeps its old
       centroid — deterministic, no resample).

    Both steps of Lloyd's are objective-non-decreasing for the spherical
    objective (total cosine of each vector to its centroid), so
    ``objective_history`` must be monotone — the property the driver gate
    asserts.  Init is deterministic: the k corpus vectors with the
    smallest ``stable_hash64(id)`` (per-block local top-k, then a
    #blocks×k driver merge).  Returns ``(centroids, assignments Dataset
    (id, centroid), objective_history)``."""
    import ray

    from ..util import dataset_arrow_schema, embedding_matrix, stable_hash64

    # The loop consumes ``ds`` n_iters+2 times; materialize the slim
    # projected input ONCE so a derived lineage (filters, normalization)
    # is not re-executed per iteration (CLAUDE.md: a lazy pipeline
    # consumed twice re-executes its whole lineage).
    schema = dataset_arrow_schema(ds)
    if schema is not None and {id_col, emb_col} <= set(schema.names):
        ds = ds.map_batches(
            lambda t: t.select([id_col, emb_col]), batch_format="pyarrow"
        )
    ds = ds.materialize()

    # Pool size: each block emits its local smallest-hash top-P rows, so
    # the GLOBAL top-P over the collected union is exactly the corpus-wide
    # top-P regardless of block layout — seeding is layout-invariant.
    pool = max(4 * n_clusters, 64)

    def block_seed(t: pa.Table) -> pa.Table:
        h = stable_hash64(t.column(id_col))
        order = np.argsort(h, kind="stable")[:pool]
        idx = pa.array(order.astype(np.int64))
        emb = embedding_matrix(t.column(emb_col), np.float64)[order]
        dim = emb.shape[1] if emb.size else 0
        offsets = pa.array(np.arange(len(order) + 1, dtype=np.int32) * dim)
        return pa.table(
            {
                id_col: t.column(id_col).take(idx),
                "__h": pa.array(h[order], pa.uint64()),
                emb_col: pa.ListArray.from_arrays(
                    offsets, pa.array(emb.ravel(), pa.float64())
                ),
            }
        )

    from ..util import collect_arrow

    seeds = collect_arrow(ds.map_batches(block_seed, batch_format="pyarrow"))
    if seeds is None or len(seeds) == 0:
        raise ValueError("kmeans: empty input dataset")
    hs = seeds.column("__h").to_numpy(zero_copy_only=False)
    order = np.argsort(hs, kind="stable")[:pool]
    cand = _normalize(
        embedding_matrix(seeds.column(emb_col), np.float64)[order]
    )
    # Greedy farthest-point (k-center) seeding over the candidate pool:
    # start from the smallest-hash vector, then repeatedly take the
    # candidate with the LOWEST maximum cosine to the chosen set.
    # Deterministic, and unlike plain smallest-k-hashes it does not drop
    # two seeds into one dense cluster (which leaves Lloyd's in a
    # merged-clusters local optimum).
    chosen = [0]
    if len(cand) > 1:
        max_sim = cand @ cand[0]
        while len(chosen) < min(n_clusters, len(cand)):
            nxt = int(np.argmin(max_sim))
            chosen.append(nxt)
            max_sim = np.maximum(max_sim, cand @ cand[nxt])
    cent = cand[chosen]
    k, dim = cent.shape

    def partials(cent_ref):
        class _Partial:
            def __init__(self):
                self._c = None

            def __call__(self, t: pa.Table) -> pa.Table:
                if self._c is None:
                    obj = cent_ref
                    self._c = obj if isinstance(obj, np.ndarray) else ray.get(obj)
                sums = np.zeros((k, dim), dtype=np.float64)
                emb = _normalize(
                    embedding_matrix(t.column(emb_col), np.float64)
                )
                sims = emb @ self._c.T
                assign = np.argmax(sims, axis=1)
                obj_sum = float(sims[np.arange(len(emb)), assign].sum())
                np.add.at(sums, assign, emb)
                counts = np.bincount(assign, minlength=k).astype(np.int64)
                return pa.table(
                    {
                        "sums": pa.array([sums.tobytes()], pa.large_binary()),
                        "counts": pa.array([counts.tobytes()], pa.large_binary()),
                        "obj": pa.array([obj_sum], pa.float64()),
                    }
                )

        return _Partial()

    def tree_add(t: pa.Table) -> pa.Table:
        s = np.zeros(k * dim, dtype=np.float64)
        c = np.zeros(k, dtype=np.int64)
        o = 0.0
        for i in range(len(t)):
            s += np.frombuffer(t.column("sums")[i].as_py(), dtype=np.float64)
            c += np.frombuffer(t.column("counts")[i].as_py(), dtype=np.int64)
            o += t.column("obj")[i].as_py()
        return pa.table(
            {"sums": pa.array([s.tobytes()], pa.large_binary()),
             "counts": pa.array([c.tobytes()], pa.large_binary()),
             "obj": pa.array([o], pa.float64())}
        )

    from ..util import tree_reduce

    history = []
    for _ in range(n_iters):
        ref = ray.put(cent)
        merged = tree_reduce(
            ds.map_batches(
                partials(ref), batch_format="pyarrow", batch_size=None
            ),
            tree_add, fanout=fanout,
        )
        if merged is None or len(merged) == 0:
            s = np.zeros(k * dim, dtype=np.float64)
            c = np.zeros(k, dtype=np.int64)
            o = 0.0
        else:
            s = np.frombuffer(merged.column("sums")[0].as_py(), np.float64).copy()
            c = np.frombuffer(merged.column("counts")[0].as_py(), np.int64).copy()
            o = merged.column("obj")[0].as_py()
        history.append(o)
        sums = s.reshape(k, dim)
        nonempty = c > 0
        new_cent = cent.copy()
        new_cent[nonempty] = sums[nonempty] / c[nonempty, None]
        cent = _normalize(new_cent)

    ref = ray.put(cent)
    assignments = ds.map_batches(
        _AssignCentroid(ref, emb_col), batch_format="pyarrow"
    ).map_batches(
        lambda t: t.select([id_col, "centroid"]), batch_format="pyarrow"
    )
    return cent, assignments, history


def grouped_vector_mean(ds, vec_col: str = "embedding",
                        group_col: str = "label"):
    """Per-group mean embedding in EXPLODED form — one row per
    ``(group, pos)`` with the mean of that vector position.  This is the
    centroid computation every embedding pipeline needs (class prototypes,
    cluster re-centering, per-source embedding drift) expressed as a fully
    distributed aggregate: no step ever holds a vector per GROUP MEMBER,
    only per group.

    Per block: zero-copy matrix ingestion (``util.embedding_matrix``,
    FixedSizeList flatten-reshape), a stable argsort by group and ONE
    ``np.add.reduceat`` produce per-(block, group) sum vectors; those
    explode to slim ``(group, pos, s, n)`` rows — #groups_in_block × dim
    per block, never #rows × dim — and ``tree_group_sum`` finishes.  Rows
    with a null group or null vector are dropped (SQL GROUP BY over an
    UNNEST join).  Downstream consumers that want the
    vector form re-assemble with a slim O(#groups × dim) collect or a
    ``sort(group, pos)`` + block rebuild."""
    from ..functions.shuffle import tree_group_sum
    from ..util import embedding_matrix

    def block_partials(t: pa.Table) -> pa.Table:
        mask = pc.and_(pc.is_valid(t.column(group_col)),
                       pc.is_valid(t.column(vec_col)))
        sub = t.select([group_col, vec_col]).filter(mask)
        m = embedding_matrix(sub.column(vec_col), dtype=np.float64)
        if m.size == 0:
            return pa.table({group_col: sub.column(group_col).slice(0, 0),
                             "pos": pa.array([], pa.int64()),
                             "__s": pa.array([], pa.float64()),
                             "__n": pa.array([], pa.int64())})
        grp = sub.column(group_col)
        if isinstance(grp, pa.ChunkedArray):
            grp = grp.combine_chunks()
        enc = grp.dictionary_encode()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(codes, kind="stable")
        c_s = codes[order]
        starts = np.flatnonzero(np.r_[True, c_s[1:] != c_s[:-1]])
        sums = np.add.reduceat(m[order], starts, axis=0)  # (g, dim)
        counts = np.diff(np.r_[starts, len(c_s)])
        g, dim = sums.shape
        grp_keys = enc.dictionary.take(pa.array(c_s[starts], pa.int64()))
        rep = np.repeat(np.arange(g, dtype=np.int64), dim)
        return pa.table({
            group_col: grp_keys.take(pa.array(rep, pa.int64())),
            "pos": pa.array(np.tile(np.arange(dim, dtype=np.int64), g)),
            "__s": pa.array(sums.ravel()),
            "__n": pa.array(np.repeat(counts.astype(np.int64), dim)),
        })

    folded = tree_group_sum(
        ds.map_batches(block_partials, batch_format="pyarrow"),
        [group_col, "pos"], ["__s", "__n"], drop_null_keys=True)

    def finish(t: pa.Table) -> pa.Table:
        n = pc.cast(t.column("__n"), pa.float64())
        return pa.table({group_col: t.column(group_col),
                         "pos": t.column("pos"),
                         "mean": pc.round(pc.divide(t.column("__s"), n),
                                          ndigits=6)})

    return folded.map_batches(finish, batch_format="pyarrow")


def l2_normalize(ds, vec_col: str = "embedding",
                 out_col: str = "embedding"):
    """Row-wise L2 normalization of an embedding column — the prep step
    cosine-similarity pipelines want exactly once, upstream, instead of
    per-query (after it, cosine is a plain dot product).  Zero-norm
    vectors normalize to all zeros (not NaN), matching the convention of
    the k-NN ops here.

    Embarrassingly parallel: zero-copy matrix ingestion
    (``util.embedding_matrix``), one vectorized norm + divide in float64,
    and a ``FixedSizeListArray`` rebuild — no shuffle at any scale.
    Output values are rounded to 6 decimals (float64) so the transform is
    SQL-reproducible."""
    from ..util import embedding_matrix

    def norm_block(t: pa.Table) -> pa.Table:
        col = t.column(vec_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n = len(t)
        if n == 0:
            return t
        m = embedding_matrix(col, dtype=np.float64)
        dim = m.shape[1] if m.ndim == 2 and m.size else 0
        if dim == 0:
            return t
        norms = np.sqrt((m * m).sum(axis=1))
        out = np.divide(m, norms[:, None], out=np.zeros_like(m),
                        where=norms[:, None] > 0)
        arr = pa.FixedSizeListArray.from_arrays(
            pa.array(np.round(out, 6).ravel(), pa.float64()), dim)
        if out_col in t.column_names:
            return t.set_column(
                t.schema.get_field_index(out_col), out_col, arr)
        return t.append_column(out_col, arr)

    return ds.map_batches(norm_block, batch_format="pyarrow")


def quantize_int8(ds, vec_col: str = "embedding",
                  qvec_col: str = "qvec", scale_col: str = "scale"):
    """Symmetric per-vector int8 quantization: ``scale = max(|v|)``,
    ``q_i = trunc(v_i / scale × 127)`` — the standard 4× memory cut for
    ANN index storage (dequantize ≈ ``q × scale / 127``).  TRUNC (toward
    zero) rather than round-half-even so the transform is bit-identical
    to SQL ``TRUNC`` on every engine.  Zero vectors get scale 0 and an
    all-zero code.

    Embarrassingly parallel, zero-copy in, one vectorized pass, no
    shuffle.  Appends ``qvec_col`` (fixed-size list<int8>) and
    ``scale_col`` (float64, rounded to 6)."""
    from ..util import embedding_matrix

    def quant_block(t: pa.Table) -> pa.Table:
        col = t.column(vec_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n = len(t)
        if n == 0:
            return t
        m = embedding_matrix(col, dtype=np.float64)
        dim = m.shape[1] if m.ndim == 2 and m.size else 0
        if dim == 0:
            return t
        scale = np.abs(m).max(axis=1)
        # (v / scale) * 127, in exactly this order: the max element divides
        # to 1.0 exactly, so its code is 127 on every engine — v*127/scale
        # can land at 126.999… and TRUNC one code lower than SQL
        q = np.trunc(
            np.divide(m, scale[:, None],
                      out=np.zeros_like(m), where=scale[:, None] > 0) * 127.0
        ).astype(np.int8)
        qarr = pa.FixedSizeListArray.from_arrays(
            pa.array(q.ravel(), pa.int8()), dim)
        return t.append_column(qvec_col, qarr).append_column(
            scale_col, pa.array(np.round(scale, 6), pa.float64()))

    return ds.map_batches(quant_block, batch_format="pyarrow")


def hashed_doc_vectors(ds, k: int = 64, *, text_col: str = "text",
                       id_col: str = "doc_id", hash_fn: str = "fast"):
    """Hashing-trick document featurization (Weinberger et al. 2009):
    each document becomes a ``k``-dim hashed term-count vector — the
    cheap, vocabulary-free doc representation for clustering / near-dup
    / drift triage when no learned embeddings exist.  Emitted SPARSE in
    the engine's exploded contract form ``(id, dim, value)`` — only
    non-zero dims, ready for :func:`grouped_vector_mean`-style
    consumers or a dense gather.

    ``hash_fn='fast'`` (default): the cross-worker-deterministic polars
    63-bit token hash (``dedup._text_hash63``) — the at-scale path, no
    Python per token.  ``hash_fn='md5'``: dim = first-8-hex-digits md5
    of the token mod ``k`` — ~1 µs/token Python, but exactly
    SQL-reproducible (the same md5 expression DuckDB evaluates), which
    is what the driver oracle checks.  Both are pure functions of the
    token text, so vectors are stable across runs/engines.  Map-only —
    a document is one row, so the per-doc counts never leave their
    block.  ``id_col`` keeps its input dtype (row-position arithmetic,
    not a numeric cast).  Null text → no rows; null ids drop."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if hash_fn not in ("fast", "md5"):
        raise ValueError(f"hash_fn must be 'fast' or 'md5', got {hash_fn!r}")
    import ray.data as rd

    from ..util import dataset_arrow_schema
    from .textstats import _tokenize_block

    in_schema = dataset_arrow_schema(ds)
    id_type = (in_schema.field(id_col).type if in_schema is not None
               and id_col in in_schema.names else pa.int64())
    typed_empty = pa.table({id_col: pa.array([], id_type),
                            "dim": pa.array([], pa.int64()),
                            "value": pa.array([], pa.int64())})

    def vectors(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column(id_col)))
        flat, parent = _tokenize_block(t.column(text_col))
        if len(flat) == 0:
            return typed_empty
        if hash_fn == "fast":
            from .dedup import _text_hash63

            dims = (_text_hash63(flat).astype(np.uint64)
                    % np.uint64(k)).astype(np.int64)
        else:
            from .relational import md5_bucket

            dims = (md5_bucket(flat) % k).astype(np.int64)
        # key on ROW POSITION (a doc is one row) — any id dtype works
        key = parent * k + dims
        u, c = np.unique(key, return_counts=True)
        ids = t.column(id_col)
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        return pa.table({id_col: ids.take(pa.array(u // k, pa.int64())),
                         "dim": pa.array(u % k, pa.int64()),
                         "value": pa.array(c.astype(np.int64))})

    return ds.map_batches(vectors, batch_format="pyarrow").union(
        rd.from_arrow(typed_empty))
