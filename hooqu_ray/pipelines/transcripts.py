"""Flagship pipeline: transcript quality-filter + PII/toxicity scrub.

Ray-Data-native realization of BASELINE.json's north_star: hooqu's
Check/Compliance model fused with a training-data quality filter over
multi-turn conversation transcripts
``(conv_id, turn_idx, role, text, tool, ts)``.

Stages (all streaming, no full materialization):

1. ``compute_features`` — stateless ``map_batches`` (Arrow in/out):
   heuristic features (symbol ratio, repetition, stopword density, …) +
   compiled-regex PII/toxicity scrub → ``text_scrubbed``.
2. ``QualityScorer`` — char-ngram language-ID + bigram perplexity.  Stages
   1–3 are ONE stateless task (``score_turns``) that builds the model
   tables (< 1 ms) once per worker process: an actor pool would cost a
   worker spawn per ``Dataset`` execution (≈1 s on one core).
3. ``apply_policy`` — per-turn keep/drop: every rule is a hooqu-style
   Compliance predicate over the feature columns, compiled once per
   worker process; the SAME rule expressions feed ``quality_report`` so the
   VerificationSuite metrics and the keep mask cannot drift apart.
4. conversation-level pass — per-block (conv_id, kept, total) partials
   fold on the driver (past a size gate: ``shuffle.bucketed_group_fold``);
   the text never moves.  The small verdict table broadcasts back via
   ``ray.put`` + per-batch lookup.  At 10^12-turn scale the
   broadcast side switches to a partitioned join on conv_id hash; the
   projection trick keeps the heavy table out of the shuffle either way.
5. output — ``keep`` column on every turn; ``filtered(ds)`` selects kept
   rows, re-sorted by (conv_id, turn_idx) for the stable order the
   north_rule requires.

The independent single-process oracle for F1/byte-equality lives in
``tests/reference_impl.py`` (pure pandas + ``re`` over the same spec).
"""

from __future__ import annotations

import functools
import tempfile
from typing import Dict, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.expr import Predicate
from ..functions.shuffle import group_by
from ..functions.sorted_scan import partition_by_key, sorted_scan
from ..functions.strings import whitespace_token_counts
from ..stages import spec
from ..stages.heuristics import compute_features
from ..stages.models import CharBigramLM, TrigramLangID

# ---------------------------------------------------------------------------
# Rules: (name, predicate over feature columns).  Shared by the keep mask,
# the VerificationSuite report, and (conceptually) the oracle.
# ---------------------------------------------------------------------------

TURN_RULES: Tuple[Tuple[str, str], ...] = (
    ("non_empty", f"n_chars >= {spec.MIN_CHARS}"),
    ("word_count", f"n_words >= {spec.MIN_WORDS} and n_words <= {spec.MAX_WORDS}"),
    (
        "mean_word_len",
        f"mean_word_len >= {spec.MIN_MEAN_WORD_LEN} and mean_word_len <= {spec.MAX_MEAN_WORD_LEN}",
    ),
    ("symbol_ratio", f"symbol_ratio <= {spec.MAX_SYMBOL_RATIO}"),
    ("repetition", f"dup_2gram <= {spec.MAX_DUP_2GRAM_FRACTION}"),
    (
        "stopword",
        f"n_words < {spec.STOPWORD_MIN_WORDS} or stopword_ratio >= {spec.MIN_STOPWORD_RATIO}",
    ),
    ("language", "lang == 'en'"),
    ("perplexity", f"ppl <= {spec.MAX_PERPLEXITY}"),
    ("toxicity", "not has_toxic"),
)


class QualityScorer:
    """Language ID + perplexity.  Model tables are built in ``__init__``
    (< 1 ms), once per worker process (``_score_stages``); ``__call__``
    scores a zero-copy Arrow batch with vectorized numpy."""

    def __init__(self) -> None:
        self.lm = CharBigramLM()
        self.lid = TrigramLangID()

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..stages.models import _byte_codes_arrow

        # one zero-copy pass over the Arrow string buffers feeds BOTH models
        codes, offsets = _byte_codes_arrow(batch.column("text"))
        langs, margin = self.lid.predict_codes(codes, offsets)
        ppl = self.lm.perplexity_codes(codes, offsets)
        return (
            batch.append_column("lang", pa.array(langs, pa.string()))
            .append_column("lang_margin", pa.array(margin, pa.float64()))
            .append_column("ppl", pa.array(ppl, pa.float64()))
        )


class _PolicyStage:
    """Compiled per-turn rule masks + AND-combined ``keep_turn``."""

    def __init__(self) -> None:
        self.predicates = [(name, Predicate(expr)) for name, expr in TURN_RULES]

    def __call__(self, batch: pa.Table) -> pa.Table:
        keep = np.ones(len(batch), dtype=bool)
        for name, pred in self.predicates:
            mask = pred.mask(batch)
            mask_np = pc.fill_null(mask, False).to_numpy(zero_copy_only=False)
            batch = batch.append_column(f"rule_{name}", pa.array(mask_np, pa.bool_()))
            keep &= mask_np
        return batch.append_column("keep_turn", pa.array(keep, pa.bool_()))


class _ConvVerdictLookup:
    """Per-batch vectorized lookup of the broadcast DROPPED-conversation set
    (an Arrow array shipped once via ``ray.put``).

    ``pc.is_in`` rebuilds a hash set of its ``value_set`` on EVERY call, so
    probing batch rows directly against a multi-million-entry dropped set
    costs a full set build per block (measured: the whole verdict pass went
    from 12s to 84s at 25M turns / 1.6M dropped convs).  ``util.isin_mask``
    inverts the probe for large sets: hash the batch's few-thousand unique
    conv_ids (cheap build), stream the dropped set through it once, then
    filter against the tiny intersection."""

    def __init__(self, dropped_ref):
        self.dropped_ref = dropped_ref
        self._dropped: Optional[pa.Array] = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self._dropped is None:
            import ray

            obj = self.dropped_ref
            self._dropped = obj if isinstance(obj, pa.Array) else ray.get(obj)
        from ..util import isin_mask

        conv_dropped = isin_mask(batch.column("conv_id"), self._dropped)
        keep = pc.and_(
            batch.column("keep_turn"), pc.invert(conv_dropped)
        )
        return batch.append_column("keep", keep)


# Above this many BYTES of dropped-conversation ids the verdict stamp stops
# shipping the set as one ray.put broadcast (pinned whole in every node's
# object store for the life of the job) and switches to a partitioned hash
# join: the set is written once as hash-bucketed, hash-sorted Arrow IPC
# files under scratch, and each verdict task memory-maps ONLY the buckets
# its batches touch — membership is a binary search per unique conv_id, the
# per-node cost is evictable page cache instead of pinned heap.
_VERDICT_BROADCAST_MAX_BYTES = 1_000_000_000
_VERDICT_INDEX_BUCKETS = 64


def _write_bucket_file(out_dir: str, bucket: int, h: np.ndarray,
                       conv_ids: pa.Array) -> None:
    """One hash bucket of the dropped-conversation index as an Arrow IPC
    file sorted by hash (``np.searchsorted``-probeable over a zero-copy
    memory map).  Atomic rename: a re-run (task retry on the distributed
    write path) overwrites its own bucket instead of corrupting it."""
    import os

    order = np.argsort(h, kind="stable")
    t = pa.table(
        {
            "h": pa.array(h[order], pa.uint64()),
            "conv_id": conv_ids.take(pa.array(order)),
        }
    )
    tmp = os.path.join(out_dir, f".cvb={int(bucket)}.tmp")
    with pa.OSFile(tmp, "wb") as f, pa.ipc.new_file(f, t.schema) as w:
        w.write_table(t)
    os.replace(tmp, os.path.join(out_dir, f"cvb={int(bucket)}.arrow"))


def _write_dropped_index(dropped: pa.Array, out_dir: str, n_buckets: int) -> None:
    """Driver-side index write (the dropped set is already local): bucket by
    ``util.stable_hash64 % n_buckets`` and write each bucket sorted."""
    import os

    from ..util import stable_hash64

    os.makedirs(out_dir, exist_ok=True)
    dropped = dropped.drop_null()
    h = stable_hash64(dropped)
    codes = (h % np.uint64(n_buckets)).astype(np.int64)
    for b in np.unique(codes):
        sel = np.nonzero(codes == b)[0]
        _write_bucket_file(out_dir, int(b), h[sel], dropped.take(pa.array(sel)))


class _PartitionedVerdictLookup:
    """Verdict stamp for dropped sets too big to broadcast, passed to
    ``map_batches`` as an instance (a stateless task, one call per block).

    Each instance lazily memory-maps the hash buckets its batches touch
    (zero-copy Arrow IPC: the cached tables are views into the OS page
    cache, not heap copies) and resolves membership of the batch's UNIQUE
    conv_ids by binary search on the sorted hash column, then verifies the
    few hash hits by exact string compare — an exact partitioned hash join
    with O(u log n) probes and no pinned broadcast.  The cache lives per
    task, so each block re-maps its buckets (measured ~13 ms for all 64
    buckets of a 667k-id index on one Xeon core): noise next to the
    worker spawn an actor pool costs per execution.  On a multi-node cluster the bucket files live on the
    same shared scratch storage as the scored-turn spill."""

    def __init__(self, dropped_dir: str, n_buckets: int):
        self.dropped_dir = dropped_dir
        self.n_buckets = n_buckets
        self._buckets: Dict[int, Optional[Tuple[np.ndarray, pa.Array]]] = {}

    def _bucket(self, b: int):
        if b not in self._buckets:
            import os

            path = os.path.join(self.dropped_dir, f"cvb={b}.arrow")
            if not os.path.exists(path):
                self._buckets[b] = None
            else:
                t = pa.ipc.open_file(pa.memory_map(path)).read_all()
                self._buckets[b] = (
                    t.column("h").combine_chunks().to_numpy(),
                    t.column("conv_id").combine_chunks(),
                )
        return self._buckets[b]

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch.column("conv_id")
        uniq = pc.unique(
            col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        ).drop_null()
        hit: list = []
        if len(uniq):
            from ..util import stable_hash64

            h = stable_hash64(uniq)
            codes = (h % np.uint64(self.n_buckets)).astype(np.int64)
            for b in np.unique(codes):
                entry = self._bucket(int(b))
                if entry is None:
                    continue
                hb, convb = entry
                sel = np.nonzero(codes == b)[0]
                lo = np.searchsorted(hb, h[sel], "left")
                hi = np.searchsorted(hb, h[sel], "right")
                # exact-verify the (rare) hash hits by string compare
                for i in np.nonzero(hi > lo)[0].tolist():
                    u = uniq[int(sel[i])].as_py()
                    for j in range(int(lo[i]), int(hi[i])):
                        if convb[j].as_py() == u:
                            hit.append(u)
                            break
        conv_dropped = pc.is_in(col, value_set=pa.array(hit, pa.string()))
        keep = pc.and_(batch.column("keep_turn"), pc.invert(conv_dropped))
        return batch.append_column("keep", keep)


def _conv_ok(kept, total) -> np.ndarray:
    """Vectorized conversation verdicts (a Python dict loop costs seconds
    per million conversations); k/t >= FRAC ⇔ k >= FRAC·t for t > 0."""
    kept = np.asarray(kept, dtype=np.int64)
    total = np.asarray(total, dtype=np.int64)
    return (
        (kept >= spec.CONV_MIN_KEPT_TURNS)
        & (total > 0)
        & (kept >= spec.CONV_MIN_KEPT_FRACTION * total)
    )


def _write_dropped_index_distributed(partials_dir: str, out_dir: str,
                                     n_buckets: int) -> None:
    """Fully distributed dropped-index build for the 10^12-turn path:
    bucketed fold of the conv-stat partials (one row per (block, conv)
    already, so a hot conversation is bounded by #blocks; null convs drop)
    → one hash exchange on the index bucket ``cvb`` (the verdict filter
    is its per-block ``pre``) whose folds sort and write one IPC file per
    ``cvb`` (``shuffle.per_key_fold``).  #convs rows never touch the
    driver; per-task memory is one exchange bucket of dropped ids.
    ``n_buckets`` is the on-disk index layout (``cvb=<b>.arrow`` files the
    verdict lookup opens), not a parallelism setting."""
    import os

    import ray.data as rd

    from ..functions.shuffle import bucketed_group_fold, hash_exchange, per_key_fold
    from ..util import stable_hash64

    os.makedirs(out_dir, exist_ok=True)

    def drop_rows(t: pa.Table) -> pa.Table:
        kept = t.column("kept_partial").to_numpy(zero_copy_only=False)
        total = t.column("total_partial").to_numpy(zero_copy_only=False)
        sub = t.filter(pa.array(~_conv_ok(kept, total))).column("conv_id")
        sub = pc.cast(sub, pa.string())
        h = stable_hash64(sub)
        return pa.table(
            {
                "conv_id": sub,
                "h": pa.array(h, pa.uint64()),
                "cvb": pa.array(
                    (h % np.uint64(n_buckets)).astype(np.int64), pa.int64()
                ),
            }
        )

    def write_bucket(g: pa.Table) -> pa.Table:
        """One ``cvb`` run → its index file; returns the written bucket."""
        if len(g) == 0:  # the exchange's typed empty (may lack columns)
            return pa.table({"cvb": pa.array([], pa.int64())})
        _write_bucket_file(
            out_dir, g.column("cvb")[0].as_py(),
            g.column("h").to_numpy().astype(np.uint64),
            g.column("conv_id").combine_chunks())
        return g.select(["cvb"]).slice(0, 1)

    stats = bucketed_group_fold(
        rd.read_parquet(partials_dir), ["conv_id"],
        ["kept_partial", "total_partial"], drop_null_keys=True)
    # the folds run (and write) before the exchange returns
    hash_exchange(stats, ["cvb"], per_key_fold(["cvb"], write_bucket),
                  pre=drop_rows)


@functools.lru_cache(maxsize=1)
def _score_stages() -> Tuple[QualityScorer, _PolicyStage]:
    """Built once per worker process (Ray reuses task workers)."""
    return QualityScorer(), _PolicyStage()


def _score_block(batch: pa.Table) -> pa.Table:
    scorer, policy = _score_stages()
    return policy(scorer(compute_features(batch)))


def score_turns(ds):
    """Stages 1–3 (features + scrub, scoring, policy) as one stateless task.
    No ``concurrency=``: Ray fuses task operators only when their pool
    sizes match, and this one fuses with the sidecar + spill write."""
    return ds.map_batches(_score_block, batch_format="pyarrow")


# Above this many bytes of conv-stat partials the fold stops happening on
# the driver and goes through the distributed bucketed fold (skew-safe: the
# partials are already one row per (block, conv)).
# The right gate is PARTIAL volume, not turn count: partials are one row per
# (block, conv), so a billion-turn job with short conversations per block
# still folds locally in seconds, while two Ray shuffles over the same rows
# cost minutes of fixed overhead.
_CONV_STATS_DRIVER_MAX_BYTES = 2_000_000_000


def filter_and_scrub(ds, scorer_concurrency: Optional[Tuple[int, int]] = None,
                     scratch_dir: Optional[str] = None):
    """Full pipeline: returns the dataset with per-turn ``keep`` + scrubbed
    text columns (all turns retained so metrics/oracles can inspect drops).
    ``scorer_concurrency`` has no effect (scoring is a task, ``score_turns``).

    Two consumers need the scored turns (conversation stats + the final
    verdict stamp), so the feature/scoring stages must run once.  Instead of
    pinning the whole scored table in the object store (the round-1
    ``materialize()`` — a 100-TB scale-killer), the scored turns stream to
    partitioned parquet under ``scratch_dir`` and BOTH consumers re-read
    from disk: the conv-stats pass prunes its read to two columns
    (``conv_id``, ``keep_turn``), and the verdict pass streams the full
    partitions through the broadcast-verdict lookup.  Nothing is ever held
    in memory beyond the in-flight blocks."""
    import os

    import ray
    import ray.data as rd

    turns = score_turns(ds)
    if scratch_dir is None:
        root = os.environ.get("HOOQU_SCRATCH_DIR")
        if root is None and len(ray.nodes()) > 1:
            # node-local /tmp is NOT visible to the driver on a multi-node
            # cluster: the conv-stat partials and scored partitions written
            # by remote workers would be silently missed
            raise ValueError(
                "filter_and_scrub on a multi-node cluster needs shared "
                "storage: pass scratch_dir= or set HOOQU_SCRATCH_DIR to a "
                "path visible from every node"
            )
        if root is not None:
            os.makedirs(root, exist_ok=True)
        scratch = tempfile.mkdtemp(prefix="hooqu_scored_", dir=root or "/tmp")
        # default scratch is transient: reclaim it when this process exits
        # (the returned dataset lazily re-reads it until then); a
        # caller-provided scratch_dir is the caller's to manage
        import atexit
        import shutil

        atexit.register(shutil.rmtree, scratch, ignore_errors=True)
    else:
        # a FRESH subdirectory per run: reusing a non-empty data/partials
        # dir from a previous run would merge stale parquet with this run's
        # output — duplicated scored turns and double-counted conv partials
        # with no error. The parent stays the caller's to manage/clean.
        os.makedirs(scratch_dir, exist_ok=True)
        scratch = tempfile.mkdtemp(prefix="hooqu_scored_", dir=scratch_dir)
    data_dir = os.path.join(scratch, "data")
    partials_dir = os.path.join(scratch, "partials")
    os.makedirs(data_dir, exist_ok=True)
    os.makedirs(partials_dir, exist_ok=True)
    # ONE streaming pass: each block's conv-stat partials land as an
    # idempotent sidecar file while the scored turns spill to parquet.
    turns.map_batches(
        _SidecarPartials(partials_dir), batch_format="pyarrow", batch_size=None
    ).write_parquet(data_dir)

    if not any(f.endswith(".parquet") for f in os.listdir(data_dir)):
        # zero-block input: nothing was written; the (empty) lazy pipeline
        # itself is the cheapest thing to hand back
        return turns
    scored = rd.read_parquet(data_dir)
    import pyarrow.dataset as pads

    partials_bytes = sum(e.stat().st_size for e in os.scandir(partials_dir))
    dropped_dir = os.path.join(scratch, "dropped")

    def stamp_broadcast(dropped: pa.Array):
        dropped_ref = ray.put(dropped)
        # batch_size=None: one call per block — the dropped-set probe has
        # per-call costs that must not be paid per 1024-row slice
        return scored.map_batches(
            _ConvVerdictLookup(dropped_ref), batch_format="pyarrow", batch_size=None
        )

    if partials_bytes <= _CONV_STATS_DRIVER_MAX_BYTES:
        # the partial files are small (one row per block × conv): a local
        # read + MULTITHREADED Arrow group_by beats a distributed shuffle's
        # fixed cost by an order of magnitude (and the single-threaded
        # pandas fold it replaces by ~6x at 5M partial rows — this fold is
        # a serial Amdahl term of the whole pipeline)
        pt = pads.dataset(partials_dir, format="parquet").to_table()
        agg = pt.group_by("conv_id", use_threads=True).aggregate(
            [("kept_partial", "sum"), ("total_partial", "sum")]
        )
        conv_ids = agg.column("conv_id").to_numpy(zero_copy_only=False)
        kept = agg.column("kept_partial_sum").to_numpy(zero_copy_only=False)
        total = agg.column("total_partial_sum").to_numpy(zero_copy_only=False)
        ok = _conv_ok(kept, total)
        dropped = pa.array(np.asarray(conv_ids)[~ok], pa.string())
        if dropped.nbytes <= _VERDICT_BROADCAST_MAX_BYTES:
            return stamp_broadcast(dropped)
        # dropped set too big to pin in every node's object store for the
        # whole job — spill it as a hash-bucketed sorted index instead
        _write_dropped_index(dropped, dropped_dir, _VERDICT_INDEX_BUCKETS)
        del dropped
    else:
        # 10^12-turn path: distributed read of the partials + bucketed
        # fold (a mega-conversation contributes ≤ #blocks partial rows, so
        # its bucket stays bounded) + per-block verdict filter +
        # one-task-per-bucket index write — #convs rows never touch the
        # driver
        _write_dropped_index_distributed(
            partials_dir, dropped_dir, _VERDICT_INDEX_BUCKETS
        )
        idx_bytes = sum(e.stat().st_size for e in os.scandir(dropped_dir))
        if idx_bytes <= _VERDICT_BROADCAST_MAX_BYTES:
            # the dropped set turned out broadcastable: read the small
            # index back (driver memory is bounded by the gate, not #convs)
            parts = [
                pa.ipc.open_file(
                    pa.memory_map(os.path.join(dropped_dir, f))
                ).read_all()
                for f in sorted(os.listdir(dropped_dir))
                if f.endswith(".arrow")
            ]
            dropped = (
                pa.concat_tables(parts).column("conv_id").combine_chunks()
                if parts
                else pa.array([], pa.string())
            )
            return stamp_broadcast(dropped)
    # stamp verdicts via mmap binary search against the bucketed index
    return scored.map_batches(
        _PartitionedVerdictLookup(dropped_dir, _VERDICT_INDEX_BUCKETS),
        batch_format="pyarrow", batch_size=None)


def filtered_output(ds, scorer_concurrency=None, scratch_dir=None):
    """Kept turns only, scrubbed text as ``text``, in ``(conv_id,
    turn_idx)`` order: one range exchange, materialized
    (``scorer_concurrency`` has no effect)."""
    from ..functions.shuffle import range_exchange

    full = filter_and_scrub(ds, scorer_concurrency, scratch_dir)
    kept = full.map_batches(_SelectKept(), batch_format="pyarrow")
    return range_exchange(kept, [("conv_id", "ascending"),
                                 ("turn_idx", "ascending")])


class _SidecarPartials:
    """Pass-through stage that also writes each block's conv-stat partials
    (``_ProjectConvKeep``) to a sidecar parquet file in the same streaming
    pass that spills the scored turns — no second scoring pass, no separate
    Ray execution for the conv stats.

    The file name derives from block CONTENT — an order-dependent fold of
    process-stable per-row hashes over the full (conv_id, turn_idx,
    keep_turn) projection (polars ``hash_rows``; layout-independent, unlike
    hashing Arrow buffers of possibly-sliced arrays) — so it is STABLE
    across task retries: a re-executed block atomically overwrites its own
    partial instead of double-counting (write-temp-then-rename, the
    checkpoint commit pattern).  Content-derived naming is deliberately
    chosen over a per-task unique id: a retried task gets a NEW task id and
    would double-count.  Collisions now require two distinct blocks with
    identical full (conv_id, turn_idx, keep) row sequences — i.e. input
    blocks that are duplicates row-for-row, the irreducible case (earlier
    rounds keyed on boundary rows + aggregate sums, which dirty inputs with
    duplicated (conv_id, turn_idx) rows could collide).  On a multi-node
    cluster the sidecar dir lives on the same shared storage as the
    scored-turn partitions (enforced by filter_and_scrub's scratch
    check)."""

    def __init__(self, partials_dir: str):
        self.partials_dir = partials_dir

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch):
            import hashlib
            import os

            import pyarrow.parquet as pq

            import polars as pl

            part = _ProjectConvKeep(batch)
            row_hashes = (
                pl.from_arrow(batch.select(["conv_id", "turn_idx", "keep_turn"]))
                .hash_rows(seed=0)
                .to_numpy()
            )
            name = hashlib.blake2b(
                row_hashes.tobytes(), digest_size=12
            ).hexdigest()
            tmp = os.path.join(self.partials_dir, f".{name}.tmp")
            pq.write_table(part, tmp)
            os.replace(tmp, os.path.join(self.partials_dir, f"{name}.parquet"))
        return batch


def _ProjectConvKeep(batch: pa.Table) -> pa.Table:
    """Per-block partial aggregation (combiner): the conv-stats shuffle then
    moves one row per (block, conv) instead of one per turn."""
    t = pa.table(
        {
            "conv_id": batch.column("conv_id"),
            "keep_turn": pc.cast(batch.column("keep_turn"), pa.int64()),
        }
    )
    return (
        t.group_by("conv_id", use_threads=False)
        .aggregate([("keep_turn", "sum"), ("keep_turn", "count")])
        .rename_columns(["conv_id", "kept_partial", "total_partial"])
    )


class _SelectKept:
    def __call__(self, batch: pa.Table) -> pa.Table:
        kept = batch.filter(batch.column("keep"))
        out = kept.select(["conv_id", "turn_idx", "role", "text_scrubbed", "tool", "ts"])
        return out.rename_columns(["conv_id", "turn_idx", "role", "text", "tool", "ts"])


class _DocsToTranscriptsN:
    """Replicated variant: each doc yields ``replicate`` conversations (the
    bench uses this to scale turn volume deterministically)."""

    def __init__(self, replicate: int = 1):
        self.replicate = replicate

    def __call__(self, batch: pa.Table) -> pa.Table:
        base = _DocsToTranscripts(batch)  # chunk once; replicas only re-key
        tables = [base]
        for r in range(1, self.replicate):
            conv = pc.binary_join_element_wise(
                base.column("conv_id"), pa.scalar(f"r{r}"), "-"
            )
            tables.append(base.set_column(0, "conv_id", conv))
        return pa.concat_tables(tables)


def _DocsToTranscripts(batch: pa.Table) -> pa.Table:
    """Deterministically explode a documents batch into transcript turns:
    each doc becomes one conversation; its text is chunked into ~12-word
    turns with alternating user/assistant roles.  Pure function of the
    input, so every scale factor yields a reproducible transcript table."""
    doc_ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    conv, tidx, role, text, tool, ts = [], [], [], [], [], []
    base = np.datetime64("2025-01-01T00:00:00", "us")
    for doc_id, doc_text in zip(doc_ids, texts):
        words = (doc_text or "").split()
        chunks = [" ".join(words[i : i + 12]) for i in range(0, len(words), 12)] or [""]
        t0 = base + np.timedelta64(int(doc_id) * 60, "s")
        for i, chunk in enumerate(chunks):
            conv.append(f"conv-{doc_id:08d}")
            tidx.append(i)
            role.append("user" if i % 2 == 0 else "assistant")
            text.append(chunk)
            tool.append(None)
            ts.append(t0 + np.timedelta64(i * 30, "s"))
    return pa.table(
        {
            "conv_id": pa.array(conv, pa.string()),
            "turn_idx": pa.array(tidx, pa.int32()),
            "role": pa.array(role, pa.string()),
            "text": pa.array(text, pa.string()),
            "tool": pa.array(tool, pa.string()),
            "ts": pa.array(ts, pa.timestamp("us")),
        }
    )


def transcripts_from_documents(docs_ds, replicate: int = 1):
    """documents table → deterministic transcript table (flagship input)."""
    if replicate <= 1:
        return docs_ds.map_batches(_DocsToTranscripts, batch_format="pyarrow")
    return docs_ds.map_batches(_DocsToTranscriptsN(replicate), batch_format="pyarrow")


_CORE_ROLES = ("user", "assistant")

_CONV_FEATURE_SCHEMA = pa.schema([
    ("conv_id", pa.string()),
    ("n_turns", pa.int64()),
    ("role_alternates", pa.bool_()),
    ("ts_monotone", pa.bool_()),
    ("first_role", pa.string()),
])


def _conv_features_table(batch: pa.Table) -> pa.Table:
    """Vectorized conversation features over COMPLETE, (conv_id,
    turn_idx)-sorted conversations: one row per conversation, zero Python
    per conversation.  ``role_alternates`` checks the core-role
    (user/assistant) subsequence only; ``ts_monotone`` that ts never
    decreases in turn order."""
    n = len(batch)
    if n == 0:
        return _CONV_FEATURE_SCHEMA.empty_table()
    keys = batch.column("conv_id").to_numpy(zero_copy_only=False)
    roles = batch.column("role").to_numpy(zero_copy_only=False)
    us = (
        batch.column("ts").to_numpy(zero_copy_only=False)
        .astype("datetime64[us]").astype(np.int64)
    )
    new_key = np.r_[True, keys[1:] != keys[:-1]]
    starts = np.flatnonzero(new_key)
    ends = np.r_[starts[1:], n]
    seg_id = np.cumsum(new_key) - 1
    # within-conversation ts monotonicity: conversation starts forced True
    mono = np.logical_and.reduceat(np.r_[True, us[1:] >= us[:-1]] | new_key,
                                   starts)
    # alternation over the core-role subsequence of each conversation
    core_idx = np.flatnonzero((roles == _CORE_ROLES[0])
                              | (roles == _CORE_ROLES[1]))
    alt = np.ones(len(starts), dtype=bool)
    cseg = seg_id[core_idx]
    crole = roles[core_idx]
    viol = (cseg[1:] == cseg[:-1]) & (crole[1:] == crole[:-1])
    alt[cseg[1:][viol]] = False
    return pa.table(
        {
            "conv_id": pa.array(keys[starts]),
            "n_turns": pa.array((ends - starts).astype(np.int64), pa.int64()),
            "role_alternates": pa.array(alt, pa.bool_()),
            "ts_monotone": pa.array(mono, pa.bool_()),
            "first_role": pa.array(roles[starts].astype(object), pa.string()),
        },
        schema=_CONV_FEATURE_SCHEMA,
    )


def conversation_features(ds):
    """Per-conversation sequence features that genuinely need every turn of
    a conversation together, in turn order: role-alternation validity and
    timestamp monotonicity.

    The shared sorted scan (:mod:`hooqu_ray.functions.sorted_scan`): ONE
    hash exchange on ``conv_id`` over a FOUR-COLUMN projection (the text
    never moves), then the vectorized :func:`_conv_features_table` kernel
    once per bucket of complete, turn-sorted conversations.  Rows with a null
    conv_id/turn_idx are dropped (SQL GROUP BY semantics, like
    :func:`validate_conversations`)."""
    return sorted_scan(ds, ["conv_id", "turn_idx", "role", "ts"], "conv_id",
                       ["turn_idx"], _conv_features_table,
                       non_null=["turn_idx"])


_VALIDATE_SCHEMA = pa.schema([
    ("conv_id", pa.string()),
    ("n_turns", pa.int64()),
    ("starts_with_user", pa.bool_()),
    ("ends_with_assistant", pa.bool_()),
    ("dense_index", pa.bool_()),
    ("has_empty_text", pa.bool_()),
    ("valid", pa.bool_()),
])


def _validate_table(batch: pa.Table) -> pa.Table:
    """Vectorized per-conversation validation rows over COMPLETE,
    (conv_id, turn_idx)-sorted conversations (see
    :func:`validate_conversations` for the flags)."""
    n = len(batch)
    if n == 0:
        return _VALIDATE_SCHEMA.empty_table()
    keys = batch.column("conv_id").to_numpy(zero_copy_only=False)
    tidx = batch.column("turn_idx").to_numpy(zero_copy_only=False).astype(np.int64)
    text = batch.column("text")
    empty = pc.or_kleene(
        pc.is_null(text), pc.equal(pc.utf8_length(text), 0)
    ).to_numpy(zero_copy_only=False).astype(bool)
    new_key = np.r_[True, keys[1:] != keys[:-1]]
    starts = np.flatnonzero(new_key)
    ends = np.r_[starts[1:], n]
    ok_adj = np.r_[True, tidx[1:] == tidx[:-1] + 1] | new_key
    dense = pa.array(np.logical_and.reduceat(ok_adj, starts)
                     & (tidx[starts] == 0))
    has_empty = pa.array(np.logical_or.reduceat(empty, starts))
    roles = batch.column("role")
    swu = pc.equal(roles.take(pa.array(starts)), "user")
    ewa = pc.equal(roles.take(pa.array(ends - 1)), "assistant")
    valid = pc.and_(pc.and_(swu, ewa), pc.and_(dense, pc.invert(has_empty)))
    return pa.table(
        [pa.array(keys[starts]), pa.array(ends - starts), swu, ewa, dense,
         has_empty, valid],
        schema=_VALIDATE_SCHEMA,
    )


def validate_conversations(ds):
    """Per-conversation schema-validation report for transcript tables:

    - ``starts_with_user`` / ``ends_with_assistant`` — role at the
      first / last turn_idx,
    - ``dense_index`` — turn_idx is exactly 0..n_turns-1 (no gap, no
      duplicate; equivalently min=0, max=n-1, all distinct),
    - ``has_empty_text`` — any turn with null or zero-length text,
    - ``valid`` — all of the above hold (and no empty turn).

    Same scale shape as ``conversation_features``: the shared sorted scan
    over a four-column projection with the vectorized
    :func:`_validate_table` kernel.  Rows with null conv_id/turn_idx are
    dropped (SQL GROUP BY semantics)."""
    return sorted_scan(ds, ["conv_id", "turn_idx", "role", "text"], "conv_id",
                       ["turn_idx"], _validate_table, non_null=["turn_idx"])


def quality_metrics_analyzers():
    """Analyzers checkpointed per partition by the resumable job: keep rate,
    per-rule pass fractions, mean perplexity — all over the scored output."""
    from ..analyzers.scan import Compliance, Mean, Size

    analyzers = [Size(), Compliance("keep_rate", "keep"), Mean("ppl")]
    analyzers += [Compliance(f"pass_{name}", f"rule_{name}") for name, _ in TURN_RULES]
    return analyzers


def checkpointed_filter_scrub(fragments, out_dir: str):
    """The flagship as a RESUMABLE job: one output partition per input
    fragment, atomic commits, per-partition quality-metric states with
    lineage (spec fingerprint — a threshold change invalidates partitions).

    Returns (run, counters); corpus-level metrics via ``run.merged_metrics()``
    merge the saved per-partition states without touching the data again."""
    from ..state.checkpoint import CheckpointedRun

    run = CheckpointedRun(
        out_dir,
        analyzers=quality_metrics_analyzers(),
        transform=filter_and_scrub,
        config_tag=spec.spec_fingerprint(),
    )
    counters = run.run(fragments)
    return run, counters


def quality_report(ds):
    """hooqu VerificationSuite over the scored turns: every rule as a
    Compliance constraint (fraction of turns passing), plus dataset-level
    metrics — the keep/drop decision and this report share TURN_RULES."""
    from ..checks import Check, CheckLevel
    from ..verification import VerificationSuite

    check = Check(CheckLevel.WARNING, "transcript quality")
    for name, expr in TURN_RULES:
        check = check.satisfies(expr, name, lambda v: v >= 0.5)
    check = check.has_completeness("text", lambda v: v > 0.9)
    scored = score_turns(ds)
    return VerificationSuite().on_data(scored).add_check(check).run()


def truncate_conversations(ds, max_tokens: int, *, conv_col: str = "conv_id",
                           idx_col: str = "turn_idx", text_col: str = "text"):
    """Context-window truncation: per conversation, keep the maximal SUFFIX
    of turns (highest ``turn_idx``) whose total whitespace-token count fits
    ``max_tokens`` — the standard "keep the most recent context" trim run
    before packing multi-turn transcripts into fixed training sequences.

    Exact SQL semantics::

        SUM(n_tok) OVER (PARTITION BY conv ORDER BY turn_idx DESC) <= budget

    so a single turn longer than the budget is dropped together with every
    turn before it (its running suffix total already exceeds the budget).

    The shared sorted scan (:mod:`hooqu_ray.functions.sorted_scan`): ONE
    hash exchange on ``conv``, then the vectorized
    :func:`_suffix_truncate_table` kernel (a padded cumsum difference — no
    descending sort) once per bucket of complete conversations sorted on
    ``(conv, idx)``.  Rows with a null conv id or turn idx are
    dropped; ``n_tok`` counts ``\\S+`` runs
    (``strings.whitespace_token_counts``), nulls count 0.

    Returns the input columns plus ``suffix_tokens`` (the running
    suffix-token total including the row itself, int64).  Scale note: the
    exchange moves the turn text once.  At
    extreme scale a slimmer plan projects ``(conv, idx, n_tok)`` only,
    derives one cutoff row per conversation, and stamps it back with the
    size-gated broadcast/hash join used by ``relational.cohort_retention``
    — half the data movement, at the cost of a join; not needed below
    ~10^11 turns."""
    if max_tokens < 0:
        raise ValueError(f"truncate_conversations: max_tokens must be >= 0,"
                         f" got {max_tokens}")
    return sorted_scan(
        ds, None, conv_col, [idx_col],
        lambda t: _suffix_truncate_table(t, conv_col, idx_col, text_col,
                                         max_tokens)[0],
        non_null=[idx_col])


def _boilerplate_drop(ds, min_convs: int, conv_col: str, text_col: str,
                      min_chars: int):
    """``(src, drop_hot)``: ``ds`` materialized (its one Ray Data
    execution; none when it already is) and the boilerplate filter of
    :func:`drop_boilerplate_turns` over it, an Arrow step dropping the
    eligible turns whose text hash is hot (None when no text is).  The
    per-block capped pairs are the hash exchange's ``pre``, and the
    exchange folds them straight into the hot-hash set."""
    from .dedup import _text_hash63
    from ..functions.broadcast import BroadcastSet
    from ..functions.shuffle import hash_exchange

    if min_convs < 1:
        raise ValueError(
            f"drop_boilerplate_turns: min_convs must be >= 1, got {min_convs}")
    src = ds.materialize()

    def _eligible_mask(t: pa.Table):
        ln = pc.fill_null(pc.utf8_length(t.column(text_col)), 0)
        return pc.and_(pc.greater_equal(ln, pa.scalar(min_chars)),
                       pc.is_valid(t.column(conv_col)))

    def capped_pairs(t: pa.Table) -> pa.Table:
        t = t.filter(_eligible_mask(t))
        pairs = group_by(pa.table({
            "__th": pa.array(_text_hash63(t.column(text_col)), pa.int64()),
            conv_col: t.column(conv_col),
        }), ["__th", conv_col], [])
        th = pairs.column("__th").to_numpy()
        order = np.argsort(th, kind="stable")
        th = th[order]
        first = np.ones(len(th), bool)
        first[1:] = th[1:] != th[:-1]
        pos = np.arange(len(th))
        rank = pos - np.maximum.accumulate(np.where(first, pos, 0))
        return pairs.take(pa.array(order[rank < min_convs]))

    def hot_hashes(t: pa.Table) -> pa.Table:
        if len(t) == 0:  # the exchange's typed empty (may lack columns)
            return pa.table({"__th": pa.array([], pa.int64())})
        vc = pc.value_counts(
            group_by(t, ["__th", conv_col], []).column("__th"))
        hot = pc.greater_equal(vc.field("counts"), pa.scalar(min_convs))
        return pa.table({"__th": vc.field("values").filter(hot)})

    hot = BroadcastSet.collect(
        hash_exchange(src, ["__th"], hot_hashes, pre=capped_pairs), "__th")
    if not hot:  # no text spans min_convs conversations
        return src, None

    def drop_hot(t: pa.Table) -> pa.Table:
        th = pa.array(_text_hash63(t.column(text_col)), pa.int64())
        return t.filter(pc.invert(pc.and_(_eligible_mask(t), hot.isin(th))))

    return src, drop_hot


def drop_boilerplate_turns(ds, min_convs: int = 2, *, conv_col: str = "conv_id",
                           text_col: str = "text", min_chars: int = 10):
    """Cross-conversation boilerplate-turn removal: every turn whose exact
    text (of at least ``min_chars`` characters) appears in at least
    ``min_convs`` DISTINCT conversations is dropped from ALL of them —
    templated greetings, canned tool banners, repeated system blurbs (the
    turn-granularity analogue of ``dedup.line_filter_frequent``, which
    counts occurrences; this counts conversations, so a text repeated many
    times inside ONE conversation is not boilerplate).

    Scale shape: the input materializes once (the op's one Ray Data
    execution before the filter pass; none when it is materialized), then
    one keyed exchange of slim int pairs (turn text never shuffles):

    1. Per block, in the exchange's split task (``shuffle.hash_exchange``
       ``pre``), the distinct ``(text_hash, conv)`` pairs of eligible
       turns, at most ``min_convs`` per hash.
    2. The exchange keyed on the hash (Ray core tasks): each fold sees
       every pair of its hashes, counts the distinct conversations and
       keeps the hashes with at least ``min_convs``.
    3. The hot-hash set — O(#boilerplate texts) — collects into one
       broadcast set (``functions.broadcast``) and one filter pass over
       the materialized input drops the eligible turns whose hash is in
       it.

    The per-block cap is exact for any partition of the rows into blocks:
    a block that hits it for a hash alone holds ``min_convs`` distinct
    conversations of that hash, so the hash is hot whatever the other
    blocks send; if no block hits it, every block sent all its pairs and
    the count is exact.  A hot text therefore moves at most ``min_convs`` ×
    #blocks rows (FP-Hadoop's hot-key bound).  Turns shorter than
    ``min_chars`` (or with a null text/conv) are never candidates and
    always survive."""
    src, drop_hot = _boilerplate_drop(ds, min_convs, conv_col, text_col,
                                      min_chars)
    if drop_hot is None:
        return src
    return src.map_batches(drop_hot, batch_format="pyarrow")


def _merge_runs_table(t: pa.Table, conv_col: str, idx_col: str, role_col: str,
                      text_col: str, ts_col, sep: str) -> pa.Table:
    """Vectorized same-role run merge over a (conv, idx)-sorted table: run
    detection via dictionary codes (null role == null role -> same run),
    per-run text join through a zero-copy ListArray + ``binary_join``,
    first idx/role/ts per run and the run length as ``n_merged``."""
    n = len(t)
    if n == 0:
        def typed(col, default):  # keep empty blocks union-compatible
            return (t.column(col).slice(0, 0) if col in t.column_names
                    else pa.array([], default))

        cols = {
            conv_col: typed(conv_col, pa.string()),
            idx_col: pa.array([], pa.int64()),
            role_col: typed(role_col, pa.string()),
            text_col: typed(text_col, pa.string()),
            "n_merged": pa.array([], pa.int64()),
        }
        if ts_col:
            cols[ts_col] = typed(ts_col, pa.timestamp("us"))
        return pa.table(cols)

    def codes(col) -> np.ndarray:
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        enc = col.dictionary_encode()
        idx = enc.indices
        return np.asarray(pc.fill_null(idx, -1), dtype=np.int64)

    cc = codes(t.column(conv_col))
    rc = codes(t.column(role_col))
    brk = np.r_[True, (cc[1:] != cc[:-1]) | (rc[1:] != rc[:-1])]
    starts = np.flatnonzero(brk)
    offsets = pa.array(np.r_[starts, n].astype(np.int32))
    text = t.column(text_col)
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    joined = pc.binary_join(
        pa.ListArray.from_arrays(offsets, pc.fill_null(text, "")), sep)
    merged_n = np.diff(np.r_[starts, n])
    first = pa.array(starts.astype(np.int64))
    cols = {
        conv_col: t.column(conv_col).take(first),
        idx_col: pc.cast(t.column(idx_col).take(first), pa.int64()),
        role_col: t.column(role_col).take(first),
        text_col: joined,
        "n_merged": pa.array(merged_n, pa.int64()),
    }
    if ts_col:
        cols[ts_col] = t.column(ts_col).take(first)
    return pa.table(cols)


def merge_consecutive_turns(ds, *, conv_col: str = "conv_id",
                            idx_col: str = "turn_idx", role_col: str = "role",
                            text_col: str = "text",
                            ts_col: Optional[str] = "ts", sep: str = "\n"):
    """Merge each run of CONSECUTIVE same-role turns within a conversation
    into one turn — the alternation-normalization pass run before training
    on role-structured transcripts (repeated assistant tool steps, split
    user messages).  Output per run: the first turn's ``turn_idx`` /
    ``role`` / ``ts``, the run's texts joined with ``sep`` (nulls join as
    ``''``), and ``n_merged`` (run length).  A null role equals a null
    role (they form one run); rows with a null conv or idx are dropped.

    The shared sorted scan (:mod:`hooqu_ray.functions.sorted_scan`): one
    hash exchange on ``conv`` and the vectorized :func:`_merge_runs_table`
    kernel (dictionary-code break detection, zero-copy ListArray text
    join) once per bucket of complete, ``(conv, idx)``-sorted
    conversations."""
    proj = [conv_col, idx_col, role_col, text_col] + ([ts_col] if ts_col else [])
    return sorted_scan(
        ds, proj, conv_col, [idx_col],
        lambda t: _merge_runs_table(t, conv_col, idx_col, role_col, text_col,
                                    ts_col, sep),
        non_null=[idx_col])


def _context_examples_table(t: pa.Table, conv_col: str, idx_col: str,
                            role_col: str, text_col: str, target_role: str,
                            max_tokens: int, sep: str,
                            max_context_turns=None,
                            ntok: Optional[np.ndarray] = None) -> pa.Table:
    """Vectorized SFT-example extraction over a (conv, idx)-sorted table:
    one row per ``target_role`` turn whose own token count fits
    ``max_tokens``; its prompt is the maximal contiguous run of preceding
    same-conversation turns such that prompt + target stays within the
    budget (also capped at ``max_context_turns`` turns when given — the
    guard against zero-token turns, which cost no budget and would
    otherwise stretch windows quadratically).  Window starts come from ONE
    ``np.searchsorted`` over the padded global token cumsum (monotone, so
    per-target binary search needs no per-conv loop); prompt joins
    materialize through a gather index + int64-offset ``LargeListArray`` +
    ``binary_join`` — output-sized, never per-row Python, and safe past
    2^31 total gathered context rows.  ``ntok`` is each row's token count
    when the caller already has it (:func:`whitespace_token_counts` of
    ``text_col``)."""
    # typed from the input schema so empty blocks union cleanly with real
    # ones whatever the conv/idx types are
    conv_type = (t.schema.field(conv_col).type
                 if conv_col in t.column_names else pa.string())
    empty = pa.table({
        conv_col: pa.array([], conv_type),
        idx_col: pa.array([], pa.int64()),
        "prompt": pa.array([], pa.string()),
        "target": pa.array([], pa.string()),
        "n_context_turns": pa.array([], pa.int64()),
        "n_tokens": pa.array([], pa.int64()),
    })
    n = len(t)
    if n == 0:
        return empty
    text = t.column(text_col)
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    if ntok is None:
        ntok = whitespace_token_counts(text)
    text = pc.fill_null(text, "")
    conv = t.column(conv_col)
    if isinstance(conv, pa.ChunkedArray):
        conv = conv.combine_chunks()
    cc = np.asarray(pc.fill_null(conv.dictionary_encode().indices, -1),
                    dtype=np.int64)
    new_conv = np.r_[True, cc[1:] != cc[:-1]]
    run_start = np.flatnonzero(new_conv)[np.cumsum(new_conv) - 1]
    cs = np.r_[0, np.cumsum(ntok)]  # cs[j] = tokens before row j

    role = t.column(role_col)
    if isinstance(role, pa.ChunkedArray):
        role = role.combine_chunks()
    is_target = pc.fill_null(pc.equal(role, pa.scalar(target_role)),
                             False).to_numpy(zero_copy_only=False)
    tgt = np.flatnonzero(is_target & (ntok <= max_tokens))
    if tgt.size == 0:
        return empty
    # first j with cs[j] >= cs[i+1] - budget, clamped into the target's conv
    lo = np.searchsorted(cs, cs[tgt + 1] - max_tokens, side="left")
    lo = np.maximum(lo, run_start[tgt])
    if max_context_turns is not None:
        lo = np.maximum(lo, tgt - int(max_context_turns))
    ctx_len = tgt - lo
    total = int(ctx_len.sum())
    cum0 = np.r_[0, np.cumsum(ctx_len)[:-1]].astype(np.int64)
    gather = (np.arange(total, dtype=np.int64)
              - np.repeat(cum0, ctx_len) + np.repeat(lo, ctx_len))
    prompts = pc.binary_join(
        pa.LargeListArray.from_arrays(
            pa.array(np.r_[cum0, total].astype(np.int64)),
            text.take(pa.array(gather))),
        sep)
    tgt_pa = pa.array(tgt)
    return pa.table({
        conv_col: conv.take(tgt_pa),
        idx_col: pc.cast(t.column(idx_col).take(tgt_pa), pa.int64()),
        "prompt": prompts,
        "target": text.take(tgt_pa),
        "n_context_turns": pa.array(ctx_len, pa.int64()),
        "n_tokens": pa.array(
            (cs[tgt + 1] - cs[lo]).astype(np.int64), pa.int64()),
    })


def extract_training_examples(ds, max_tokens: int, *,
                              target_role: str = "assistant",
                              conv_col: str = "conv_id",
                              idx_col: str = "turn_idx",
                              role_col: str = "role",
                              text_col: str = "text", sep: str = "\n",
                              max_context_turns=None):
    """Turn transcripts into supervised (prompt, target) pairs: one example
    per ``target_role`` turn, its prompt the maximal run of immediately
    preceding same-conversation turns such that prompt + target fits
    ``max_tokens`` whitespace tokens — the extraction step between corpus
    hygiene and sequence packing.  Targets whose own token count exceeds
    the budget are dropped (SQL inner-join semantics); a target whose
    context is fully squeezed out keeps an empty prompt.  Null texts count
    0 tokens and join as ``''``; rows with a null conv or idx are dropped.

    Output blows up to the sum of window lengths by design (that is what
    SFT extraction produces); everything else follows the
    :func:`truncate_conversations` discipline — one hash exchange on
    ``conv`` and a vectorized kernel once per bucket of complete,
    ``(conv, idx)``-sorted conversations."""
    if max_tokens < 0:
        raise ValueError(
            f"extract_training_examples: max_tokens must be >= 0, got {max_tokens}")

    def kernel(t: pa.Table) -> pa.Table:
        return _context_examples_table(t, conv_col, idx_col, role_col,
                                       text_col, target_role, max_tokens, sep,
                                       max_context_turns)

    return sorted_scan(
        ds, [conv_col, idx_col, role_col, text_col], conv_col, [idx_col],
        kernel, non_null=[idx_col])


# odd multipliers for combining (idx, lo, hi, n) into fingerprints; the
# mixing tail itself is the ONE shared util.splitmix64
_FP_MIX1 = np.uint64(0x9E3779B97F4A7C15)
_FP_MIX2 = np.uint64(0xC2B2AE3D27D4EB4F)
_FP_MIX3 = np.uint64(0x165667B19E3779F9)


def _conversation_fingerprints(ds, conv_col: str, idx_col: str,
                               text_col: str, conv_type) -> "object":
    """Order-sensitive per-conversation fingerprint Dataset
    ``(conv, __fp)``: each turn hashes (63-bit polars text hash mixed
    with its turn index), a per-block Arrow ``group_by(conv)`` sums the
    halves (int64-overflow-safe below 2^31 turns/conv), ``groupby(conv).
    sum`` folds across blocks, and (sum_lo, sum_hi, n_turns) mix into one
    int64 key.  Equal (turn_idx, text) sequences ⇒ equal fingerprints;
    the converse holds up to the 63-bit collision class every dedup op
    here documents.  The corpus never sorts and text never shuffles.
    Shared by :func:`dedup_conversations` (whole-sequence key) and
    :func:`conversation_fork_groups` (prefix key)."""
    from ..functions.shuffle import tree_group_sum
    from ..util import splitmix64
    from .dedup import _text_hash63

    def partials(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column(conv_col)))
        th = _text_hash63(t.column(text_col)).astype(np.uint64)
        ix = np.asarray(
            pc.fill_null(pc.cast(t.column(idx_col), pa.int64()), -1)
        ).astype(np.uint64)
        x = splitmix64(th ^ (ix * _FP_MIX1))
        sub = pa.table({
            conv_col: t.column(conv_col),
            "__lo": pa.array((x & np.uint64(0xFFFFFFFF)).astype(np.int64)),
            "__hi": pa.array((x >> np.uint64(32)).astype(np.int64)),
            "__n": pa.array(np.ones(len(t), np.int64)),
        })
        return sub.group_by(conv_col).aggregate(
            [("__lo", "sum"), ("__hi", "sum"), ("__n", "sum")]
        ).rename_columns([conv_col, "__lo", "__hi", "__n"])

    # per-(block, conv) partials fold in tree_group_sum's one exchange
    folded = tree_group_sum(
        ds.map_batches(partials, batch_format="pyarrow"),
        [conv_col], ["__lo", "__hi", "__n"])

    def fingerprint(t: pa.Table) -> pa.Table:
        lo = np.asarray(t.column("__lo")).astype(np.uint64)
        hi = np.asarray(t.column("__hi")).astype(np.uint64)
        n = np.asarray(t.column("__n")).astype(np.uint64)
        fp = splitmix64(lo * _FP_MIX1 ^ hi * _FP_MIX2 ^ n * _FP_MIX3)
        fp = (fp & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)
        return pa.table({conv_col: t.column(conv_col),
                         "__fp": pa.array(fp, pa.int64())})

    return folded.map_batches(fingerprint, batch_format="pyarrow")


def dedup_conversations(ds, *, conv_col: str = "conv_id",
                        idx_col: str = "turn_idx", text_col: str = "text"):
    """Drop duplicate CONVERSATIONS: when two or more conversations have the
    identical (turn_idx, text) sequence, only the one with the minimum conv
    id keeps its turns — whole-transcript exact dedup, the conversation
    analogue of ``dedup.exact_dedup``.

    Scale shape — the corpus never sorts and turn text never shuffles:

    1. Each turn hashes ORDER-SENSITIVELY (63-bit polars text hash mixed
       with its ``turn_idx``); a per-block Arrow ``group_by(conv)`` sums
       the hashes split into two int32 halves (so int64 sums cannot
       overflow below 2^31 turns per conversation) — one slim partial row
       per (block, conv).
    2. ``tree_group_sum`` folds the partials; each conversation's
       fingerprint mixes (sum_lo, sum_hi, n_turns) into one int64 key.
       Equal sequences ⇒ equal fingerprints; the converse holds up to the
       same hash-collision class every 63-bit dedup op here documents.
    3. a min/count fold per fingerprint (``_fp_group_table``) finds
       duplicate groups; the winner table — O(#duplicate groups) —
       broadcasts (``functions.broadcast``), losers are extracted per batch
       (a keyed lookup + winner compare), and the loser conv set drives one
       NOT-IN pass over the original turns.
       Rows with a null conv are never candidates and always survive."""
    from ..functions.broadcast import BroadcastSet
    from ..util import column_type

    conv_type = column_type(ds, conv_col, pa.string())

    fp_rows = _conversation_fingerprints(
        ds, conv_col, idx_col, text_col, conv_type
    ).materialize()  # consumed by winners AND loser probe

    winners = BroadcastSet.collect(
        _fp_group_table(fp_rows, conv_col, conv_type).map_batches(
            lambda t: t.filter(pc.greater(t.column("__c"), pa.scalar(1)))
            .select(["__fp", "__w"]),
            batch_format="pyarrow"), "__fp")
    if not winners:  # no duplicate conversations
        return ds

    def losing_convs(t: pa.Table) -> pa.Table:
        # a conv loses if its fingerprint's group has a DIFFERENT winner
        hit = winners.lookup(t, "__fp", ["__w"])
        return hit.filter(pc.not_equal(hit.column(conv_col),
                                       hit.column("__w"))).select([conv_col])

    losers = BroadcastSet.collect(
        fp_rows.map_batches(losing_convs, batch_format="pyarrow"), conv_col)
    # NOT IN over the losers; a null conv is in no set and survives
    return ds.map_batches(
        lambda t: t.filter(pc.invert(losers.isin(t.column(conv_col)))),
        batch_format="pyarrow")


def conversation_texts(ds, *, conv_col: str = "conv_id",
                       idx_col: str = "turn_idx", text_col: str = "text",
                       sep: str = "\n"):
    """Assemble ONE text row per conversation (turns joined in ``idx``
    order with ``sep``) — the adapter that lets every document-granularity
    operator (MinHash LSH, SimHash, embedding dedup, quality filters) run
    at conversation granularity.  Reuses
    :func:`merge_consecutive_turns` with a constant role, so each
    conversation collapses to a single run under the same sort + vectorized
    block + boundary-repair machinery.  Returns
    ``(conv_col, text, n_turns)``."""

    def addconst(t: pa.Table) -> pa.Table:
        return t.append_column(
            "__r", pa.array(np.full(len(t), "x"), pa.string()))

    merged = merge_consecutive_turns(
        ds.map_batches(addconst, batch_format="pyarrow"),
        conv_col=conv_col, idx_col=idx_col, role_col="__r",
        text_col=text_col, ts_col=None, sep=sep)

    def proj(t: pa.Table) -> pa.Table:
        return pa.table({
            conv_col: t.column(conv_col),
            text_col: t.column(text_col),
            "n_turns": t.column("n_merged"),
        })

    return merged.map_batches(proj, batch_format="pyarrow")


def tool_usage_stats(ds, *, conv_col: str = "conv_id",
                     tool_col: str = "tool"):
    """Per-conversation tool-usage profile over agent transcripts:
    ``(conv, n_tool_calls, n_distinct_tools)`` counting turns with a
    non-null ``tool``.  Conversations without tool calls are absent (SQL
    ``GROUP BY`` over non-null tools).

    One streaming pass: each block pre-aggregates distinct
    ``(conv, tool, n)`` triples with Arrow ``group_by`` (vectorized C),
    ``groupby(conv, tool).sum`` folds them across blocks, and a final slim
    ``groupby(conv)`` turns pair rows into the distinct count (row count)
    and call count (sum) — the shuffles move one row per distinct
    (conv, tool) pair, never per turn."""

    def pair_partials(t: pa.Table) -> pa.Table:
        mask = pc.and_(pc.is_valid(t.column(conv_col)),
                       pc.is_valid(t.column(tool_col)))
        sub = t.select([conv_col, tool_col]).filter(mask)
        return group_by(sub, [conv_col, tool_col], [([], "count_all")]
                        ).rename_columns([conv_col, tool_col, "__n"])

    from ..functions.shuffle import tree_group_sum

    pairs = tree_group_sum(
        ds.map_batches(pair_partials, batch_format="pyarrow"),
        [conv_col, tool_col], ["__n"])

    def pair_proj(t: pa.Table) -> pa.Table:
        return pa.table({conv_col: t.column(conv_col),
                         "__n": pc.cast(t.column("__n"), pa.int64()),
                         "__one": pa.array(np.ones(len(t), np.int64))})

    folded = tree_group_sum(
        pairs.map_batches(pair_proj, batch_format="pyarrow"),
        [conv_col], ["__n", "__one"])

    def rename(t: pa.Table) -> pa.Table:
        return pa.table({
            conv_col: t.column(conv_col),
            "n_tool_calls": pc.cast(t.column("__n"), pa.int64()),
            "n_distinct_tools": pc.cast(t.column("__one"), pa.int64()),
        })

    return folded.map_batches(rename, batch_format="pyarrow")


def pack_sft_examples(ds, max_len: int, *, id_col: str = "example_id",
                      prompt_col: str = "prompt", target_col: str = "target"):
    """Loss-mask-aware packing PLAN for SFT examples: concatenate
    (prompt, target) pairs in deterministic ``id_col`` order into one
    global token stream cut into ``max_len``-token sequences, and record
    each example's TARGET token interval — the span a trainer unmasks for
    loss while the prompt stays masked.  Returns one row per example:
    ``(id, n_prompt_tokens, n_tokens, token_start, target_start,
    target_end, seq_start, seq_end)`` with ``target_*`` absolute offsets in
    the stream (``seq_* = offset // max_len``).

    Same shape as :func:`~hooqu_ray.pipelines.relational.pack_sequences`:
    one range exchange on ``id_col`` whose split tasks count each
    example's tokens (its ``pre``) and whose folds get the token total of
    all earlier ranges, so each fold's exclusive cumsum plus that total is
    the global stream offset.  ``id_col`` must be unique and non-null;
    null prompts/targets count 0 tokens."""
    from ..functions.shuffle import range_exchange

    if max_len < 1:
        raise ValueError(
            f"pack_sft_examples: max_len must be >= 1, got {max_len}")

    def proj(t: pa.Table) -> pa.Table:
        n_prompt = whitespace_token_counts(t.column(prompt_col))
        return pa.table({
            id_col: t.column(id_col),
            "n_prompt_tokens": pa.array(n_prompt),
            "n_tokens": pa.array(
                n_prompt + whitespace_token_counts(t.column(target_col))),
        })

    def assign(t: pa.Table, base: int) -> pa.Table:
        np_ = np.asarray(t.column("n_prompt_tokens"), dtype=np.int64)
        n = np.asarray(t.column("n_tokens"), dtype=np.int64)
        end = base + np.cumsum(n)
        start = end - n
        seq_start = start // max_len
        seq_end = np.where(n > 0, (end - 1) // max_len, seq_start)
        return pa.table({
            id_col: t.column(id_col),
            "n_prompt_tokens": pa.array(np_),
            "n_tokens": pa.array(n),
            "token_start": pa.array(start),
            "target_start": pa.array(start + np_),
            "target_end": pa.array(end),
            "seq_start": pa.array(seq_start),
            "seq_end": pa.array(seq_end),
        })

    return range_exchange(ds, [(id_col, "ascending")], assign, pre=proj,
                          weight="n_tokens")


def dedup_turns(ds, *, conv_col: str = "conv_id", idx_col: str = "turn_idx",
                text_col: str = "text"):
    """Within-conversation exact turn dedup: keep only the FIRST occurrence
    (minimum ``idx_col``) of each exact turn text inside a conversation —
    retried tool calls, repeated error banners, duplicated user sends.
    Cross-conversation repeats are untouched (that is
    :func:`drop_boilerplate_turns`'s job).

    Pure composition: a compound ``conv\\x1ftext`` key column feeds
    :func:`~hooqu_ray.pipelines.dedup.exact_dedup` with the turn index as
    the winner id, inheriting its combiner shuffle + sharded
    winner-broadcast scale shape (one slim row per (block, dup key); turn
    text never shuffles).  Null texts dedup within their conversation via
    a sentinel; null conv ids form ONE group (SQL ``GROUP BY`` null
    semantics).  Key caveat: a conv id containing ``\\x1f`` or a text
    equal to the null sentinel can alias — the same class of documented
    risk as the 63-bit content hashes."""
    from .dedup import exact_dedup

    def addkey(t: pa.Table) -> pa.Table:
        ct = pc.binary_join_element_wise(
            pc.cast(t.column(conv_col), pa.string()),
            pc.fill_null(t.column(text_col), "\x00<null-text>"),
            "\x1f")
        return t.append_column("__ct", ct)

    out = exact_dedup(ds.map_batches(addkey, batch_format="pyarrow"),
                      text_col="__ct", id_col=idx_col)
    return out.map_batches(lambda t: t.drop_columns(["__ct"]),
                           batch_format="pyarrow")


def _suffix_truncate_table(t: pa.Table, conv_col: str, idx_col: str,
                           text_col: str, budget: int):
    """In-kernel context-window truncation: keep each conversation's
    maximal turn suffix whose whitespace-token total fits ``budget`` and
    append that running suffix total as ``suffix_tokens``.  Requires every
    conversation in ``t`` to be COMPLETE and (conv, idx)-sorted — the
    sorted-scan kernel contract — so the reverse running sum is one padded
    cumsum difference, no second (descending) sort.  Returns the kept
    table and the kept rows' token counts, so a kernel downstream does
    not count them again."""
    n = len(t)
    if n == 0:
        return (t.append_column("suffix_tokens", pa.array([], pa.int64())),
                np.zeros(0, np.int64))
    ntok = whitespace_token_counts(t.column(text_col))
    conv = t.column(conv_col)
    if isinstance(conv, pa.ChunkedArray):
        conv = conv.combine_chunks()
    cc = np.asarray(pc.fill_null(conv.dictionary_encode().indices, -1),
                    dtype=np.int64)
    new_conv = np.r_[True, cc[1:] != cc[:-1]]
    starts = np.flatnonzero(new_conv)
    ordinal = np.cumsum(new_conv) - 1
    ends = np.r_[starts[1:], n][ordinal]  # exclusive conv end per row
    cs = np.r_[0, np.cumsum(ntok)]
    suffix = cs[ends] - cs[np.arange(n)]  # tokens from this row to conv end
    keep = suffix <= budget
    return (t.filter(pa.array(keep)).append_column(
        "suffix_tokens", pa.array(suffix[keep], pa.int64())), ntok[keep])


def sft_prepare(ds, *, boilerplate_min_convs: int = 2,
                context_budget: int = 96, example_budget: int = 48,
                target_role: str = "assistant"):
    """End-to-end SFT data preparation over raw transcripts:

    1. :func:`drop_boilerplate_turns` — remove turns whose exact text
       spans ``boilerplate_min_convs`` conversations (templates, banners);
    2. context-window truncation — keep each conversation's most recent
       ``context_budget``-token suffix;
    3. example extraction — one (prompt, target) pair per ``target_role``
       turn within ``example_budget`` tokens.

    All three stages run in ONE kernel over the scan's hash exchange: the
    hot boilerplate turns drop, then :func:`_suffix_truncate_table` and
    :func:`_context_examples_table` run inside the same
    :func:`partition_by_key` fold — semantically identical to
    ``extract_training_examples(truncate_conversations(
    drop_boilerplate_turns(x)))`` but the corpus text moves ONCE (measured
    49 s → the fused cost of one sort at 3.2M turns, before the exchange
    replaced the sort).  Boilerplate turns cross the exchange and drop in
    the fold.  Building the result runs ONE Ray Data execution, the
    input's materialize (none when it is materialized): the boilerplate
    pairs and the scan's projection are per-block steps inside the two
    hash exchanges' split tasks on Ray core tasks.  The result is
    materialized, so consuming it runs none.  Returns the example Dataset
    (``conv_id, turn_idx, prompt, target, n_context_turns, n_tokens``);
    feed :func:`pack_sft_examples` for the loss-mask packing plan.
    Exact-dedup stages (:func:`dedup_conversations`, :func:`dedup_turns`)
    compose in front when the corpus needs them."""
    src, drop_hot = _boilerplate_drop(ds, boilerplate_min_convs,
                                      conv_col="conv_id", text_col="text",
                                      min_chars=10)

    def kernel(t: pa.Table) -> pa.Table:
        if drop_hot is not None:
            t = drop_hot(t)
        kept, ntok = _suffix_truncate_table(t, "conv_id", "turn_idx", "text",
                                            context_budget)
        return _context_examples_table(kept, "conv_id", "turn_idx", "role",
                                       "text", target_role, example_budget,
                                       "\n", ntok=ntok)

    return partition_by_key(
        src, ["conv_id", "turn_idx", "role", "text"], "conv_id",
        ["turn_idx"], kernel, non_null=["turn_idx"])


# -- PII detection report ---------------------------------------------------

# Detection patterns: EMAIL/URL are the reference's public patterns verbatim
# (``patterns.py``; both are backref-free, so RE2-safe); CREDITCARD uses the
# RE2 variant (``patterns.CREDITCARD_RE2``) because pyarrow's
# ``count_substring_regex`` — the vectorized scale path — cannot run the
# backreferenced original.  Keys double as output column names.
def _pii_detect_patterns() -> "Dict[str, str]":
    from .. import patterns

    return {
        "n_email": patterns.EMAIL.pattern,
        "n_url": patterns.URL.pattern,
        "n_cc": patterns.CREDITCARD_RE2,
    }


def _regex_report(ds, pats: "Dict[str, str]", turns_col: str, *,
                  conv_col: str = "conv_id", text_col: str = "text",
                  prefilter: "Optional[Dict[str, str]]" = None):
    """Shared core of :func:`pii_stats` / :func:`toxicity_stats`: count
    each RE2 pattern's matches per conversation plus the number of turns
    containing ANY match (``turns_col``); emit only conversations with at
    least one match — the report is O(match incidence), not O(corpus).

    One streaming pass: per block, ``pc.count_substring_regex`` (RE2,
    vectorized C) counts each category over the raw ``text_col``, an Arrow
    ``group_by`` folds the block's turns to per-conversation partials, and
    a final ``groupby(conv).sum`` merges across blocks — the shuffle moves
    one slim count row per (block, conversation), never the text.

    ``prefilter``: optional {category: literal} — a row whose text lacks
    the literal cannot match the category's regex (e.g. an email needs
    ``@``), so the expensive pattern only runs on the (vectorized,
    ``match_substring``-selected) candidate subset.  On a mostly-clean
    corpus this cuts the dominant regex cost to the PII incidence rate;
    correctness is unchanged because the literal is a necessary
    condition."""

    cat_cols = list(pats)

    def block_partials(t: pa.Table) -> pa.Table:
        sub = t.select([conv_col, text_col]).filter(
            pc.is_valid(t.column(conv_col)))
        text = pc.fill_null(pc.cast(sub.column(text_col), pa.string()), "")
        n = len(text)

        def count_cat(k, p):
            lit = (prefilter or {}).get(k)
            if lit is None:
                return pc.cast(
                    pc.count_substring_regex(text, pattern=p), pa.int64())
            cand = pc.match_substring(text, lit).to_numpy(
                zero_copy_only=False)
            idx = np.flatnonzero(cand)
            full = np.zeros(n, dtype=np.int64)
            if idx.size:
                full[idx] = pc.count_substring_regex(
                    text.take(pa.array(idx, pa.int64())), pattern=p
                ).to_numpy(zero_copy_only=False)
            return pa.array(full)

        counts = {k: count_cat(k, p) for k, p in pats.items()}
        total = counts[cat_cols[0]]
        for k in cat_cols[1:]:
            total = pc.add(total, counts[k])
        # rows with NO match contribute nothing to any output conversation
        # (the report emits only convs with >= 1 hit) — drop them BEFORE
        # the combiner so a clean corpus shuffles NOTHING: the conv-key
        # groupby cost scales with match incidence, not corpus size
        hit_mask = pc.greater(total, 0)
        flat = pa.table({conv_col: sub.column(conv_col), **counts,
                         turns_col: pc.cast(hit_mask, pa.int64())}
                        ).filter(hit_mask)
        agg = flat.group_by([conv_col]).aggregate(
            [(c, "sum") for c in cat_cols + [turns_col]])
        return agg.rename_columns([conv_col] + cat_cols + [turns_col])

    out_cols = cat_cols + [turns_col]

    def project(t: pa.Table) -> pa.Table:
        cols = {conv_col: t.column(conv_col)}
        for c in out_cols:
            cols[c] = pc.cast(t.column(c), pa.int64())
        out = pa.table(cols)
        total = out.column(cat_cols[0])
        for c in cat_cols[1:]:
            total = pc.add(total, out.column(c))
        return out.filter(pc.greater(total, 0))

    from ..functions.shuffle import tree_group_sum

    # incidence-bounded partials: tree_group_sum combines them per block,
    # then folds them in one hash exchange on the conversation
    return tree_group_sum(
        ds.map_batches(block_partials, batch_format="pyarrow"),
        [conv_col], out_cols,
    ).map_batches(project, batch_format="pyarrow")


def pii_stats(ds, *, conv_col: str = "conv_id", text_col: str = "text"):
    """Per-conversation PII detection report over transcript turns:
    ``(conv, n_email, n_url, n_cc, n_pii_turns)`` counting regex matches
    per category plus turns containing ANY match; only conversations with
    at least one match are emitted.

    This is the REPORT side of the flagship's scrub (north-star rule:
    "PII/toxicity scrub"; reference patterns ``hooqu/patterns.py:5-12``):
    the scrub rewrites text, this measures exposure without touching it —
    the audit you run BEFORE deciding scrub policy.  Execution shape:
    :func:`_regex_report`."""
    return _regex_report(
        ds, _pii_detect_patterns(), "n_pii_turns", conv_col=conv_col,
        text_col=text_col,
        # necessary-condition literals: an email needs '@', a URL its
        # scheme separator (credit cards have no single literal —
        # match_substring takes no character class)
        prefilter={"n_email": "@", "n_url": "://"})


def toxicity_stats(ds, *, conv_col: str = "conv_id", text_col: str = "text"):
    """Per-conversation toxicity exposure report:
    ``(conv, n_toxic, n_toxic_turns)`` counting matches of the spec's
    toxic-term lexicon (``stages/spec.py TOXIC_WORDS`` — the same terms
    the flagship scrubs to ``[TOX]``), case-insensitively via an inline
    ``(?i)`` RE2 flag.  Only conversations with at least one hit are
    emitted.  Execution shape: :func:`_regex_report` (vectorized RE2 +
    per-block conversation combiner, text never shuffles)."""
    from ..stages import spec

    return _regex_report(ds, {"n_toxic": "(?i)" + spec.TOXIC_RE.pattern},
                         "n_toxic_turns", conv_col=conv_col,
                         text_col=text_col)


def conversation_majority_lang(ds, *, conv_col: str = "conv_id",
                               text_col: str = "text"):
    """Per-conversation dominant language over transcript turns:
    ``(conv, major_lang, n_major_turns)`` — the trigram language-ID model
    (north-star rule: "fastText langid" stand-in, ``stages/models``)
    scores every turn in a stateless task (zero-copy byte-codes scoring),
    a block combiner + :func:`~hooqu_ray.functions.shuffle.tree_group_sum`
    over ``(conv, lang)`` folds to slim language counts (≤ #langs rows per
    conversation — the text never shuffles), and
    :func:`~hooqu_ray.pipelines.relational.grouped_top_k` (k=1, ties to
    the lexicographically smallest language) picks each conversation's
    majority with its scale-gated merge.

    Mixed-language detection composes without new machinery:
    ``tool_usage_stats(scored, tool_col='pred_lang')`` yields per-conv
    distinct-language counts.  Returns a Dataset of ``(conv,
    major_lang, n_major_turns)``."""

    import ray.data as rd

    from ..util import column_type, map_typed
    from .relational import grouped_top_k
    from .textstats import LangIdStage

    scored = ds.map_batches(LangIdStage(text_col), batch_format="pyarrow")

    def pair_partials(t: pa.Table) -> pa.Table:
        sub = t.select([conv_col, "pred_lang"]).filter(
            pc.is_valid(t.column(conv_col)))
        agg = group_by(sub, [conv_col, "pred_lang"], [([], "count_all")])
        return agg.rename_columns([conv_col, "pred_lang", "__n"])

    from ..functions.shuffle import tree_group_sum

    pairs = tree_group_sum(
        scored.map_batches(pair_partials, batch_format="pyarrow"),
        [conv_col, "pred_lang"], ["__n"])

    def proj(t: pa.Table) -> pa.Table:
        return pa.table({conv_col: t.column(conv_col),
                         "pred_lang": t.column("pred_lang"),
                         "__n": pc.cast(t.column("__n"), pa.int64())})

    # typed anchor: an input with no counted turn keeps its conv type
    anchor = pa.table({conv_col: pa.array([], column_type(ds, conv_col,
                                                          pa.string())),
                       "pred_lang": pa.array([], pa.string()),
                       "__n": pa.array([], pa.int64())})
    top = grouped_top_k(
        pairs.map_batches(proj, batch_format="pyarrow").union(
            rd.from_arrow(anchor)),
        conv_col, "__n", 1, tie_col="pred_lang",
    )
    out_names = {conv_col: conv_col, "pred_lang": "major_lang",
                 "__n": "n_major_turns"}

    def rename(t: pa.Table) -> pa.Table:
        return pa.table({out_names[c]: t.column(c)
                         for c in [conv_col, "pred_lang", "__n"]})

    return map_typed(top, rename)


def turn_gap_stats(ds, *, conv_col: str = "conv_id", ts_col: str = "ts",
                   order_col: str = "turn_idx"):
    """Per-conversation inter-turn latency profile: ``(conv, max_gap_s,
    mean_gap_s, n_gaps)`` over the time deltas between consecutive turns
    in ``order_col`` order — the response-latency / staleness signal an
    agent-transcript pipeline filters on (a conversation resumed days
    later is usually two sessions; sub-second uniform gaps smell like a
    bot).

    Composition: :func:`~hooqu_ray.pipelines.windows.lag_delta` (one
    range exchange; a vectorized shift over each range plus its halo)
    yields the per-turn delta in seconds; null deltas (each
    conversation's first turn) are filtered, each block folds them to
    per-conversation sum/max/count partials, and ``tree_group_sum``
    (one hash exchange) combines the partials.  Single-turn
    conversations are absent, as in SQL ``GROUP BY`` over non-null
    ``LAG`` deltas."""

    from .windows import lag_delta

    def proj(t: pa.Table) -> pa.Table:
        us = pc.cast(t.column(ts_col), pa.int64())
        return pa.table({
            conv_col: t.column(conv_col),
            order_col: t.column(order_col),
            "__tie": t.column(order_col),
            "__ts_s": pc.divide(pc.cast(us, pa.float64()), 1e6),
        })

    lag = lag_delta(
        ds.map_batches(proj, batch_format="pyarrow"),
        key=conv_col, ts_col=order_col, tie="__tie", value_col="__ts_s",
    )

    def keep_gaps(t: pa.Table) -> pa.Table:
        sub = t.filter(pc.is_valid(t.column("delta")))
        return pa.table({conv_col: sub.column(conv_col),
                         "delta": pc.cast(sub.column("delta"), pa.float64())})

    def gap_partials(t: pa.Table) -> pa.Table:
        return t.group_by(conv_col).aggregate(
            [("delta", "sum"), ("delta", "max"), ([], "count_all")]
        ).rename_columns([conv_col, "__s", "__mx", "__n"])

    from ..functions.shuffle import tree_group_sum

    folded = tree_group_sum(
        lag.map_batches(keep_gaps, batch_format="pyarrow")
        .map_batches(gap_partials, batch_format="pyarrow"),
        [conv_col], ["__s", "__mx", "__n"], funcs=["sum", "max", "sum"])

    def finish(t: pa.Table) -> pa.Table:
        n = pc.cast(t.column("__n"), pa.float64())
        return pa.table({
            conv_col: t.column(conv_col),
            "max_gap_s": pc.round(
                pc.cast(t.column("__mx"), pa.float64()), ndigits=6),
            "mean_gap_s": pc.round(
                pc.divide(pc.cast(t.column("__s"), pa.float64()), n),
                ndigits=6),
            "n_gaps": pc.cast(t.column("__n"), pa.int64()),
        })

    return folded.map_batches(finish, batch_format="pyarrow")


def conversation_fork_groups(ds, prefix_turns: int, *,
                             conv_col: str = "conv_id",
                             idx_col: str = "turn_idx",
                             text_col: str = "text"):
    """Retry/fork detection over agent transcripts: conversations sharing
    an IDENTICAL first-``prefix_turns`` (turn_idx, text) sequence — the
    signature of a retried or branched agent run (same task prompt and
    opening exchange, diverging tails).  Returns one row per conversation
    in a fork group: ``(conv, fork_group, n_convs)`` where ``fork_group``
    is the group's minimum conv id and ``n_convs`` its size; singletons
    are absent.

    Scale shape: filter to ``turn_idx < prefix_turns`` (embarrassingly
    parallel), then the shared order-sensitive fingerprint fold
    (:func:`_conversation_fingerprints` — slim hash partials, text never
    shuffles), a min/count fold per fingerprint finds groups, and
    the O(#fork groups) winner table broadcasts (``functions.broadcast``)
    for a per-batch keyed stamp.  Conversations with FEWER than
    ``prefix_turns`` turns key on their full (shorter) sequence — two
    3-turn twins still group under ``prefix_turns=5``; a 3-turn
    conversation never groups with a 5-turn one sharing those 3 turns
    (n_turns mixes into the fingerprint)."""
    import ray.data as rd

    from ..functions.broadcast import BroadcastSet
    from ..util import column_type

    if prefix_turns < 1:
        raise ValueError(
            f"prefix_turns must be >= 1, got {prefix_turns}")
    conv_type = column_type(ds, conv_col, pa.string())

    def prefix_only(t: pa.Table) -> pa.Table:
        return t.filter(pc.less(pc.cast(t.column(idx_col), pa.int64()),
                                prefix_turns))

    fp_rows = _conversation_fingerprints(
        ds.map_batches(prefix_only, batch_format="pyarrow"),
        conv_col, idx_col, text_col, conv_type,
    ).materialize()  # consumed by the group table AND the stamp probe

    def keep_groups(t: pa.Table) -> pa.Table:
        sub = t.filter(pc.greater(t.column("__c"), pa.scalar(1)))
        return pa.table({"__fp": sub.column("__fp"),
                         "fork_group": sub.column("__w"),
                         "n_convs": sub.column("__c")})

    groups = BroadcastSet.collect(
        _fp_group_table(fp_rows, conv_col, conv_type).map_batches(
            keep_groups, batch_format="pyarrow"), "__fp")
    out_cols = [conv_col, "fork_group", "n_convs"]
    if not groups:  # no fork group
        return rd.from_arrow(pa.schema([
            (conv_col, conv_type), ("fork_group", conv_type),
            ("n_convs", pa.int64())]).empty_table())
    return fp_rows.map_batches(
        lambda t: groups.lookup(t, "__fp", out_cols[1:]).select(out_cols),
        batch_format="pyarrow")


def _fp_group_table(fp_rows, conv_col: str, conv_type,
                    max_col: Optional[str] = None):
    """Hot-group-proof fold over per-conversation fingerprint rows:
    per-block Arrow ``group_by(__fp)`` partials (min conv, count, optional
    max) collapse a skewed fingerprint to ≤1 row per block BEFORE the
    ``tree_group_sum`` fold (min/sum/max over partials) — so a
    pathological fork group with millions of members cannot straggle one
    reducer.  Output columns: ``__fp``, ``__w`` (min conv), ``__c``
    (member count)[, ``__m`` (max ``max_col``)]."""
    from ..functions.shuffle import tree_group_sum

    specs = [(conv_col, "min"), ([], "count_all")]
    names = ["__fp", "__w", "__c"]
    funcs = ["min", "sum"]
    if max_col is not None:
        specs.append((max_col, "max"))
        names.append("__m")
        funcs.append("max")

    def partials(t: pa.Table) -> pa.Table:
        out = t.group_by("__fp", use_threads=False).aggregate(specs)
        return out.rename_columns(names)

    return tree_group_sum(
        fp_rows.map_batches(partials, batch_format="pyarrow"),
        ["__fp"], names[1:], funcs=funcs)


def preference_pairs(ds, prefix_turns: int, *,
                     conv_col: str = "conv_id",
                     idx_col: str = "turn_idx",
                     role_col: str = "role",
                     text_col: str = "text",
                     chosen_role: str = "assistant"):
    """DPO-style preference-pair extraction from retry-fork groups: for
    each group of conversations sharing an identical first-``prefix_turns``
    prefix (same grouping rule as :func:`conversation_fork_groups` —
    retried agent runs on the same task), score every member by the total
    character length of its ``chosen_role`` turns in the DIVERGENT tail
    (``turn_idx >= prefix_turns``), pick the best branch (max score, ties
    to the minimum conv id) and emit one ``(fork_group, chosen_conv,
    rejected_conv, chosen_score, rejected_score, n_convs)`` row per
    non-chosen member — the chosen/rejected pair table a
    preference-tuning run consumes.

    Scale shape — ONE pruned-column pass over the turn table and TWO
    O(#convs) shuffles total (profiled: each 640k-group Ray aggregate on
    this box costs ~10 s regardless of key type, so the round-3 five-
    aggregate DAG paid that floor five times):

    1. per block, ONE ``pa.Table.group_by(conv)`` folds the prefix
       fingerprint halves AND the tail char score as a 4th Sum rider
       (text hashes/lengths are computed per block; text never shuffles);
    2. ``tree_group_sum`` (4 sums) folds partials across blocks — the only
       O(#convs)-group full-width fold;
    3. one min/count/max fold per fingerprint (``_fp_group_table``) finds
       groups, winners AND group-max scores in one slim int64-keyed
       aggregate;
    4. the O(#fork groups) group table broadcasts in hash-range shards
       for the member stamp; the tie-break min-conv fold per fingerprint
       runs over max-score candidates only (≈ #groups rows), and the
       chosen table broadcasts back for the final emit.

    Driver peak is one ``broadcast.ROWS_PER_SHARD`` shard, same escape
    hatch as every broadcast set (``functions.broadcast``)."""
    import ray.data as rd

    from ..functions.broadcast import BroadcastSet
    from ..util import column_type, splitmix64
    from .dedup import _text_hash63

    if prefix_turns < 1:
        raise ValueError(f"prefix_turns must be >= 1, got {prefix_turns}")
    conv_type = column_type(ds, conv_col, pa.string())

    out_schema = pa.schema([
        ("fork_group", conv_type), ("chosen_conv", conv_type),
        ("rejected_conv", conv_type), ("chosen_score", pa.int64()),
        ("rejected_score", pa.int64()), ("n_convs", pa.int64()),
    ])
    part_schema = pa.schema([
        (conv_col, conv_type), ("__lo", pa.int64()), ("__hi", pa.int64()),
        ("__n", pa.int64()), ("__chars", pa.int64()),
    ])

    def combined_partials(t: pa.Table) -> pa.Table:
        """Per-block: prefix fingerprint halves + tail chosen-role char
        sums, folded together by one local group_by(conv)."""
        t = t.filter(pc.is_valid(t.column(conv_col)))
        if len(t) == 0:
            return part_schema.empty_table()
        idxv = pc.cast(t.column(idx_col), pa.int64())
        pre = t.filter(pc.less(idxv, prefix_turns))  # null idx drops
        tail = t.filter(pc.and_(
            pc.greater_equal(idxv, prefix_turns),
            pc.equal(t.column(role_col), chosen_role)))
        parts = []
        if len(pre):
            th = _text_hash63(pre.column(text_col)).astype(np.uint64)
            ix = np.asarray(
                pc.cast(pre.column(idx_col), pa.int64())).astype(np.uint64)
            x = splitmix64(th ^ (ix * _FP_MIX1))
            parts.append(pa.table({
                conv_col: pre.column(conv_col),
                "__lo": pa.array(
                    (x & np.uint64(0xFFFFFFFF)).astype(np.int64)),
                "__hi": pa.array((x >> np.uint64(32)).astype(np.int64)),
                "__n": pa.array(np.ones(len(pre), np.int64)),
                "__chars": pa.array(np.zeros(len(pre), np.int64)),
            }))
        if len(tail):
            zeros = np.zeros(len(tail), np.int64)
            parts.append(pa.table({
                conv_col: tail.column(conv_col),
                "__lo": pa.array(zeros),
                "__hi": pa.array(zeros),
                "__n": pa.array(zeros),
                "__chars": pc.coalesce(
                    pc.cast(pc.utf8_length(tail.column(text_col)),
                            pa.int64()),
                    pa.scalar(0, pa.int64())),
            }))
        if not parts:
            return part_schema.empty_table()
        both = pa.concat_tables(parts)
        return both.group_by(conv_col, use_threads=False).aggregate(
            [("__lo", "sum"), ("__hi", "sum"), ("__n", "sum"),
             ("__chars", "sum")]
        ).rename_columns([conv_col, "__lo", "__hi", "__n", "__chars"])

    from ..functions.shuffle import tree_group_sum

    folded = tree_group_sum(
        ds.map_batches(combined_partials, batch_format="pyarrow"),
        [conv_col], ["__lo", "__hi", "__n", "__chars"])

    fp_schema = pa.schema([(conv_col, conv_type), ("__fp", pa.int64()),
                           ("__score", pa.int64())])

    def fp_score(t: pa.Table) -> pa.Table:
        # a conversation with NO prefix turns (only null/deep indices)
        # never fingerprints — same absence as the prefix-filtered fold
        t = t.filter(pc.greater(t.column("__n"), pa.scalar(0)))
        if len(t) == 0:
            return fp_schema.empty_table()
        lo = np.asarray(t.column("__lo")).astype(np.uint64)
        hi = np.asarray(t.column("__hi")).astype(np.uint64)
        n = np.asarray(t.column("__n")).astype(np.uint64)
        fp = splitmix64(lo * _FP_MIX1 ^ hi * _FP_MIX2 ^ n * _FP_MIX3)
        fp = (fp & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)
        return pa.table({
            conv_col: t.column(conv_col),
            "__fp": pa.array(fp, pa.int64()),
            "__score": pc.cast(t.column("__chars"), pa.int64()),
        })

    fp_rows = folded.map_batches(
        fp_score, batch_format="pyarrow").materialize()  # stamp + emit

    def keep_groups(t: pa.Table) -> pa.Table:
        sub = t.filter(pc.greater(t.column("__c"), pa.scalar(1)))
        return pa.table({"__fp": sub.column("__fp"),
                         "fork_group": sub.column("__w"),
                         "n_convs": sub.column("__c"),
                         "__gmax": pc.cast(sub.column("__m"), pa.int64())})

    groups = BroadcastSet.collect(
        _fp_group_table(fp_rows, conv_col, conv_type, max_col="__score")
        .map_batches(keep_groups, batch_format="pyarrow"), "__fp")
    if not groups:  # no fork group, no pair
        return rd.from_arrow(out_schema.empty_table())

    # members only (singleton fps drop): O(#forked convs) rows flow on
    scores = fp_rows.map_batches(
        lambda t: groups.lookup(t, "__fp", ["fork_group", "n_convs", "__gmax"]),
        batch_format="pyarrow").materialize()  # consumed twice

    # tie-break: min conv id among max-score members — an aggregate over
    # candidates only (≈ one row per group unless scores tie)
    def candidates(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t.column("__score"), t.column("__gmax")))

    chosen = BroadcastSet.collect(tree_group_sum(
        scores.map_batches(candidates, batch_format="pyarrow")
        .map_batches(lambda t: t.select(["__fp", conv_col]),
                     batch_format="pyarrow"),
        ["__fp"], [conv_col], funcs=["min"]).map_batches(
        lambda t: pa.table({"__fp": t.column("__fp"),
                            "__chosen": t.column(conv_col)}),
        batch_format="pyarrow"), "__fp")

    def emit_pairs(t: pa.Table) -> pa.Table:
        hit = chosen.lookup(t, "__fp", ["__chosen"])
        rej = hit.filter(pc.not_equal(hit.column(conv_col),
                                      hit.column("__chosen")))
        return pa.table({
            "fork_group": rej.column("fork_group"),
            "chosen_conv": rej.column("__chosen"),
            "rejected_conv": rej.column(conv_col),
            "chosen_score": rej.column("__gmax"),
            "rejected_score": rej.column("__score"),
            "n_convs": rej.column("n_convs"),
        })

    return scores.map_batches(emit_pairs, batch_format="pyarrow").union(
        rd.from_arrow(out_schema.empty_table()))  # schema anchor


def _make_loop_kernel(conv_col: str, min_run: int, out_schema: pa.Schema):
    """Run-length kernel over complete, (conv, idx)-sorted ``loop_role``
    rows carrying an ``__th`` text-hash column (null text → ``-1``): one
    ``(conv, max_run, n_loops, n_role_turns)`` row per conversation
    present.  Vectorized ``np.maximum.reduceat`` over run breaks — zero
    Python per conversation.  Shared by :func:`assistant_loop_stats` and
    :func:`conversation_reports`."""

    def kernel(t: pa.Table) -> pa.Table:
        n = len(t)
        if n == 0:
            return out_schema.empty_table()
        keys = t.column(conv_col).to_numpy(zero_copy_only=False)
        text = t.column("__th").to_numpy(zero_copy_only=False)
        new_conv = np.r_[True, keys[1:] != keys[:-1]]
        prev_eq = np.r_[False, text[1:] == text[:-1]]
        new_run = new_conv | ~prev_eq
        run_id = np.cumsum(new_run) - 1
        run_len = np.bincount(run_id)
        run_start = np.flatnonzero(new_run)
        conv_ord = np.cumsum(new_conv) - 1
        run_conv_ord = conv_ord[run_start]
        first_run = np.flatnonzero(
            np.r_[True, run_conv_ord[1:] != run_conv_ord[:-1]])
        conv_starts = np.flatnonzero(new_conv)
        return pa.table({
            conv_col: pa.array(keys[conv_starts],
                               t.schema.field(conv_col).type),
            "max_run": pa.array(
                np.maximum.reduceat(run_len, first_run).astype(np.int64)),
            "n_loops": pa.array(np.add.reduceat(
                (run_len >= min_run).astype(np.int64), first_run)),
            "n_role_turns": pa.array(
                np.diff(np.r_[conv_starts, n]).astype(np.int64)),
        })

    return kernel


def assistant_loop_stats(ds, min_run: int = 2, *,
                         conv_col: str = "conv_id",
                         idx_col: str = "turn_idx",
                         role_col: str = "role",
                         text_col: str = "text",
                         loop_role: str = "assistant"):
    """Stuck-agent (retry-loop) detection over agent transcripts: per
    conversation, the longest run of CONSECUTIVE identical ``loop_role``
    turn texts (in turn order, ignoring interleaved other-role turns) plus
    how many maximal runs reach ``min_run`` — the signature of an agent
    re-emitting the same output round after round.  Returns one
    ``(conv, max_run, n_loops, n_role_turns)`` row per conversation with
    at least one ``loop_role`` turn; null texts group together (None is
    treated equal to None, like SQL window PARTITION BY).

    Scale shape: role prefilter (embarrassingly parallel, drops ~half the
    rows before the exchange), then the shared
    :func:`sorted_scan` scaffold — ONE hash exchange on the
    conversation, a fully vectorized run-length kernel per bucket
    (``np.maximum.reduceat`` over run breaks, zero Python per
    conversation).  The kernel only ever tests adjacent-text
    EQUALITY, so (like :func:`echo_stats`) the text column is projected
    to an 8-byte content hash (``dedup._text_hash63``; null → ``-1``, a
    value the non-negative 63-bit hash cannot take, so null == null and
    null != any text) BEFORE the sort — the all-to-all moves (conv, idx,
    int64) rows, never text bytes.  Same output up to the 2⁻⁶³
    hash-collision class every hash-keyed dedup op here documents."""
    if min_run < 1:
        raise ValueError(f"min_run must be >= 1, got {min_run}")

    from ..util import column_type
    from .dedup import _text_hash63

    conv_type = column_type(ds, conv_col, pa.string())
    out_schema = pa.schema([
        (conv_col, conv_type), ("max_run", pa.int64()),
        ("n_loops", pa.int64()), ("n_role_turns", pa.int64()),
    ])

    kernel = _make_loop_kernel(conv_col, min_run, out_schema)

    def role_hash_proj(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column(role_col), loop_role))
        text = t.column(text_col)
        h = np.asarray(_text_hash63(text))
        valid = pc.is_valid(text).to_numpy(zero_copy_only=False)
        return pa.table({
            conv_col: t.column(conv_col),
            idx_col: t.column(idx_col),
            "__th": pa.array(np.where(valid, h, np.int64(-1)), pa.int64()),
        })

    return sorted_scan(
        ds.map_batches(role_hash_proj, batch_format="pyarrow"),
        [conv_col, idx_col, "__th"], conv_col, [idx_col], kernel,
        non_null=[idx_col])


_FILTER_REASONS = ("too_few_turns", "no_user_start", "no_assistant_end",
                   "sparse_index", "empty_text")


def conversation_filter_report(ds, *, min_turns: int = 2,
                               require_user_start: bool = True,
                               require_assistant_end: bool = False,
                               require_dense_index: bool = True,
                               allow_empty_text: bool = False):
    """Conversation-granularity keep/drop report with reason codes — the
    conversation-level analog of the document ``quality_filter``: one
    ``(conv_id, n_turns, keep, reason)`` row per conversation, ``reason``
    the FIRST failing rule in priority order ``too_few_turns``,
    ``no_user_start``, ``no_assistant_end``, ``sparse_index``,
    ``empty_text`` (``'ok'`` when kept).  Disabled rules never fire.

    Scale shape: everything rides on :func:`validate_conversations` (one
    hash exchange + vectorized segment pass); the verdict is a per-batch
    ``np.select`` over the slim per-conversation report."""
    report = validate_conversations(ds)
    # validate_conversations canonicalizes conv ids to STRING for any
    # input type (its partial-segment schema is string-typed), so the
    # string anchor below matches the verdict blocks exactly
    out_schema = pa.schema([
        ("conv_id", pa.string()), ("n_turns", pa.int64()),
        ("keep", pa.bool_()), ("reason", pa.string()),
    ])

    def _fails(col, fill):
        # a null flag (e.g. starts_with_user when the first role is null)
        # must NOT fire the rule — SQL `WHEN NOT flag` is not-true on NULL
        # (and inverting None through an object array raises TypeError)
        return ~np.asarray(pc.fill_null(col, fill), dtype=bool)

    def verdict(t: pa.Table) -> pa.Table:
        n = t.column("n_turns").to_numpy(zero_copy_only=False).astype(
            np.int64)
        false_ = np.zeros(len(t), dtype=bool)
        fails = [
            n < min_turns,
            _fails(t.column("starts_with_user"), True)
            if require_user_start else false_,
            _fails(t.column("ends_with_assistant"), True)
            if require_assistant_end else false_,
            _fails(t.column("dense_index"), True)
            if require_dense_index else false_,
            np.asarray(pc.fill_null(t.column("has_empty_text"), False),
                       dtype=bool)
            if not allow_empty_text else false_,
        ]
        reason = np.select(fails, _FILTER_REASONS, default="ok")
        keep = reason == "ok"
        return pa.table({
            "conv_id": t.column("conv_id"),
            "n_turns": pa.array(n),
            "keep": pa.array(keep),
            "reason": pa.array(reason.astype(object), pa.string()),
        })

    import ray.data as rd

    return report.map_batches(verdict, batch_format="pyarrow").union(
        rd.from_arrow(out_schema.empty_table()))


def filter_conversations(ds, **rules):
    """Drop WHOLE conversations failing the structural rules of
    :func:`conversation_filter_report` and return the surviving turn rows
    (all columns, order preserved).  Rows with a null conv id are dropped
    (they belong to no conversation — SQL ``NOT IN`` semantics).

    Scale shape: the dropped-conversation id set is O(#dropped convs),
    collected into one broadcast set (``functions.broadcast``) and applied
    as one per-batch anti-join filter — the turn table itself never
    shuffles."""
    from ..functions.broadcast import BroadcastSet
    from ..util import column_type

    conv_type = column_type(ds, "conv_id", pa.string())

    rep = conversation_filter_report(ds, **rules)

    def dropped_ids(t: pa.Table) -> pa.Table:
        ids = t.filter(pc.invert(t.column("keep"))).column("conv_id")
        # the report canonicalizes conv ids to string; cast back so the
        # anti-join probes the turn table's ACTUAL key dtype (a string
        # set probed against int64 keys would match nothing)
        return pa.table({"conv_id": pc.cast(ids, conv_type)})

    dropped = BroadcastSet.collect(
        rep.map_batches(dropped_ids, batch_format="pyarrow"), "conv_id")
    return dropped.anti(ds, "conv_id")


def echo_stats(ds, *, conv_col: str = "conv_id",
               idx_col: str = "turn_idx",
               role_col: str = "role",
               text_col: str = "text"):
    """Assistant-parroting detection over agent transcripts: per
    conversation, count assistant turns whose text EXACTLY equals the
    immediately preceding user turn's text (an agent echoing its input —
    a classic degenerate-output signature).  Returns one ``(conv,
    n_echoes, n_pairs)`` row per conversation with at least one adjacent
    user→assistant turn pair; ``n_pairs`` is the number of such adjacent
    pairs (denominator for an echo rate).  Null texts never count as an
    echo (SQL ``=`` three-valued semantics).

    Scale shape: the shared :func:`sorted_scan` scaffold,
    but the kernel only ever tests adjacent-text EQUALITY, so the text
    column is projected to an 8-byte content hash (dedup's
    ``_text_hash63``) + a validity flag BEFORE the exchange — the
    all-to-all moves (conv, idx, role, int64, bool) rows, never text
    bytes.  Same output up to the 2⁻⁶³ hash-collision class every
    hash-keyed dedup op here documents."""
    from ..util import column_type
    from .dedup import _text_hash63

    conv_type = column_type(ds, conv_col, pa.string())
    out_schema = pa.schema([
        (conv_col, conv_type), ("n_echoes", pa.int64()),
        ("n_pairs", pa.int64()),
    ])

    def hash_proj(t: pa.Table) -> pa.Table:
        text = t.column(text_col)
        return pa.table({
            conv_col: t.column(conv_col),
            idx_col: t.column(idx_col),
            role_col: t.column(role_col),
            "__th": pa.array(_text_hash63(text)),
            "__tv": pc.is_valid(text),
        })

    kernel = _make_echo_kernel(conv_col, role_col, out_schema)

    return sorted_scan(
        ds.map_batches(hash_proj, batch_format="pyarrow"),
        [conv_col, idx_col, role_col, "__th", "__tv"], conv_col, [idx_col],
        kernel, non_null=[idx_col])


def _make_echo_kernel(conv_col: str, role_col: str, out_schema: pa.Schema):
    """Adjacent user→assistant echo kernel over complete, (conv, idx)-
    sorted rows carrying ``__th`` (text hash) + ``__tv`` (text validity):
    one ``(conv, n_echoes, n_pairs)`` row per conversation with ≥1 pair.
    Shared by :func:`echo_stats` and :func:`conversation_reports`."""

    def kernel(t: pa.Table) -> pa.Table:
        n = len(t)
        if n == 0:
            return out_schema.empty_table()
        keys = t.column(conv_col).to_numpy(zero_copy_only=False)
        roles = t.column(role_col).to_numpy(zero_copy_only=False)
        th = t.column("__th").to_numpy(zero_copy_only=False)
        new_conv = np.r_[True, keys[1:] != keys[:-1]]
        is_pair = np.r_[
            False,
            (roles[1:] == "assistant") & (roles[:-1] == "user"),
        ] & ~new_conv
        valid = t.column("__tv").to_numpy(zero_copy_only=False)
        nn = np.r_[False, valid[1:] & valid[:-1]]
        echo = is_pair & nn & np.r_[False, th[1:] == th[:-1]]
        conv_starts = np.flatnonzero(new_conv)
        n_pairs = np.add.reduceat(is_pair.astype(np.int64), conv_starts)
        n_echoes = np.add.reduceat(echo.astype(np.int64), conv_starts)
        keepc = n_pairs > 0
        return pa.table({
            conv_col: pa.array(keys[conv_starts][keepc],
                               t.schema.field(conv_col).type),
            "n_echoes": pa.array(n_echoes[keepc]),
            "n_pairs": pa.array(n_pairs[keepc]),
        })

    return kernel


def clip_turn_texts(ds, max_tokens: int, *, text_col: str = "text"):
    """Per-turn token-budget clipping: any turn whose whitespace-token
    count exceeds ``max_tokens`` has its text replaced by the first
    ``max_tokens`` tokens joined with single spaces (original whitespace
    is NOT preserved on rewritten turns — same normalization as
    ``array_to_string(regexp_extract_all(text, '\\S+')[:n], ' ')``);
    turns within budget pass through byte-identical.  Adds a ``clipped``
    bool column.  Null text is never clipped.

    Scale shape: embarrassingly parallel — one vectorized ``map_batches``
    (byte-level token count, split/slice/join only on the over-budget
    subset), no shuffle."""
    if max_tokens < 1:
        raise ValueError(f"max_tokens must be >= 1, got {max_tokens}")

    def clip(t: pa.Table) -> pa.Table:
        text = t.column(text_col)
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        # null text counts 0 tokens, so it is never over a budget >= 1
        over = pa.array(whitespace_token_counts(text) > max_tokens)
        if not pc.any(over).as_py():
            return t.append_column(
                "clipped", pa.array(np.zeros(len(t), dtype=bool)))
        # rebuild only the over-budget rows: trim EXACTLY the RE2 \s set
        # — {space, \t, \n, \f, \r}; NOT \x0b and NOT Unicode whitespace
        # like NBSP, both of which \S+ tokenization keeps (so the trim
        # stays byte-equal to the regexp_extract_all oracle) → split on
        # \s+ (no empty tokens possible after the trim) → slice → join
        # compute the rebuild in pa.string(): binary_join has no
        # list<large_string> kernel; the final column is cast back to the
        # input type below
        sub = pc.cast(text.filter(over), pa.string())
        toks = pc.split_pattern_regex(
            pc.utf8_trim(sub, " \t\n\f\r"), pattern=r"\s+")
        short = pc.binary_join(
            pc.list_slice(toks, 0, max_tokens), pa.scalar(" "))
        new_text = np.asarray(text, dtype=object)
        new_text[np.asarray(over, dtype=bool)] = np.asarray(
            short, dtype=object)
        # rebuild with the INPUT column's type: the under-budget fast path
        # above passes the column through untouched, so a large_string (or
        # other string-family) input would otherwise yield mixed block
        # schemas across batches and fail at union/consume time
        return t.set_column(
            t.column_names.index(text_col), text_col,
            pa.array(new_text, t.schema.field(text_col).type),
        ).append_column("clipped", over)

    return ds.map_batches(clip, batch_format="pyarrow")


_ROLE_BALANCE_COLS = ["n_user", "n_assistant", "n_other",
                      "user_chars", "assistant_chars"]


def role_balance_stats(ds, *, conv_col: str = "conv_id",
                       role_col: str = "role",
                       text_col: str = "text"):
    """Per-conversation role-balance profile: turn counts by role bucket
    (``user`` / ``assistant`` / anything else including null) and total
    text characters on each core role — the shape check for chat-format
    training data (a conversation that is 95% user chars teaches
    nothing).  One row per conversation (null conv ids dropped).

    Scale shape: combiner-first — per-block Arrow ``group_by(conv)``
    partials (one row per conversation per block), then a slim
    ``groupby(conv).sum`` fold; the text never shuffles."""

    from ..util import column_type

    conv_type = column_type(ds, conv_col, pa.string())
    part_cols = [conv_col] + _ROLE_BALANCE_COLS
    empty = pa.table(
        {conv_col: pa.array([], conv_type),
         **{c: pa.array([], pa.int64()) for c in _ROLE_BALANCE_COLS}})

    def partials(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column(conv_col)))
        if len(t) == 0:
            return empty
        roles = t.column(role_col)
        is_u = pc.cast(pc.fill_null(pc.equal(roles, "user"), False),
                       pa.int64())
        is_a = pc.cast(pc.fill_null(pc.equal(roles, "assistant"), False),
                       pa.int64())
        ones = pa.array(np.ones(len(t), np.int64))
        chars = pc.coalesce(
            pc.cast(pc.utf8_length(t.column(text_col)), pa.int64()),
            pa.scalar(0, pa.int64()))
        sub = pa.table({
            conv_col: t.column(conv_col),
            "n_user": is_u,
            "n_assistant": is_a,
            "n_other": pc.subtract(pc.subtract(ones, is_u), is_a),
            "user_chars": pc.multiply(chars, is_u),
            "assistant_chars": pc.multiply(chars, is_a),
        })
        return sub.group_by(conv_col).aggregate(
            [(c, "sum") for c in _ROLE_BALANCE_COLS]
        ).rename_columns(part_cols)

    from ..functions.shuffle import tree_group_sum

    folded = tree_group_sum(
        ds.map_batches(partials, batch_format="pyarrow"),
        [conv_col], list(_ROLE_BALANCE_COLS))

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table(
            {conv_col: t.column(conv_col),
             **{c: pc.cast(t.column(c), pa.int64())
                for c in _ROLE_BALANCE_COLS}})

    import ray.data as rd

    return folded.map_batches(finalize, batch_format="pyarrow").union(
        rd.from_arrow(empty))  # schema anchor


def _make_tool_pairs_kernel(conv_col: str, tool_col: str,
                            out_schema: pa.Schema):
    """Adjacent tool-pair pre-count kernel over complete, (conv, idx)-
    sorted tool-call rows: per-block partial ``(tool_from, tool_to, __n)``
    counts (folded globally by the caller).  Shared by
    :func:`tool_transition_counts` and :func:`conversation_reports`."""

    def kernel(t: pa.Table) -> pa.Table:
        n = len(t)
        if n < 2:
            return out_schema.empty_table()
        keys = t.column(conv_col).to_numpy(zero_copy_only=False)
        tools = t.column(tool_col).to_numpy(zero_copy_only=False)
        same = keys[1:] == keys[:-1]
        if not same.any():
            return out_schema.empty_table()
        pairs = pa.table({
            "tool_from": pa.array(tools[:-1][same], pa.string()),
            "tool_to": pa.array(tools[1:][same], pa.string()),
        })
        part = group_by(pairs, ["tool_from", "tool_to"], [([], "count_all")])
        return part.rename_columns(["tool_from", "tool_to", "__n"])

    return kernel


def tool_transition_counts(ds, *, conv_col: str = "conv_id",
                           idx_col: str = "turn_idx",
                           tool_col: str = "tool"):
    """Tool-call transition matrix over agent transcripts: for each
    conversation take the subsequence of turns with a non-null ``tool``
    (in turn order) and count adjacent ``(tool_from, tool_to)`` pairs
    across the whole corpus — which tool follows which, the raw table for
    agent-behavior mining.  Conversations with fewer than two tool calls
    contribute nothing.

    Scale shape: tool-only prefilter (usually drops most turns), the
    shared :func:`sorted_scan` one-sort scaffold with a
    vectorized shift-pair kernel that pre-counts per block, then a slim
    global ``groupby(from, to).sum`` over O(#distinct transitions ×
    blocks) partial rows."""

    out_schema = pa.schema([
        ("tool_from", pa.string()), ("tool_to", pa.string()),
        ("__n", pa.int64()),
    ])
    kernel = _make_tool_pairs_kernel(conv_col, tool_col, out_schema)

    def tool_only(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_valid(t.column(tool_col)))

    from ..functions.shuffle import tree_group_sum

    partials = sorted_scan(
        ds.map_batches(tool_only, batch_format="pyarrow"),
        [conv_col, idx_col, tool_col], conv_col, [idx_col], kernel,
        non_null=[idx_col])
    folded = tree_group_sum(partials, ["tool_from", "tool_to"], ["__n"])

    empty = pa.table({"tool_from": pa.array([], pa.string()),
                      "tool_to": pa.array([], pa.string()),
                      "n": pa.array([], pa.int64())})

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table({"tool_from": t.column("tool_from"),
                         "tool_to": t.column("tool_to"),
                         "n": pc.cast(t.column("__n"), pa.int64())})

    import ray.data as rd

    # typed empty anchor: a tool-free corpus otherwise yields a
    # zero-block dataset whose schema is lost
    return folded.map_batches(finalize, batch_format="pyarrow").union(
        rd.from_arrow(empty))


def _make_role_segment_kernel(conv_col: str, role_col: str,
                              out_schema: pa.Schema):
    """Role-balance kernel over complete, (conv, idx)-sorted rows carrying
    an ``__chars`` text-length column: one ``(conv, n_user, n_assistant,
    n_other, user_chars, assistant_chars)`` row per conversation —
    ``np.add.reduceat`` over conversation segments, zero Python per
    conversation.  Used by :func:`conversation_reports` (the standalone
    :func:`role_balance_stats` keeps its sort-free combiner path)."""

    def kernel(t: pa.Table) -> pa.Table:
        n = len(t)
        if n == 0:
            return out_schema.empty_table()
        keys = t.column(conv_col).to_numpy(zero_copy_only=False)
        roles = t.column(role_col).to_numpy(zero_copy_only=False)
        chars = t.column("__chars").to_numpy(zero_copy_only=False).astype(
            np.int64)
        new_conv = np.r_[True, keys[1:] != keys[:-1]]
        starts = np.flatnonzero(new_conv)
        is_u = (roles == "user")
        is_a = (roles == "assistant")
        n_user = np.add.reduceat(is_u.astype(np.int64), starts)
        n_assistant = np.add.reduceat(is_a.astype(np.int64), starts)
        n_total = np.diff(np.r_[starts, n]).astype(np.int64)
        return pa.table({
            conv_col: pa.array(keys[starts], t.schema.field(conv_col).type),
            "n_user": pa.array(n_user),
            "n_assistant": pa.array(n_assistant),
            "n_other": pa.array(n_total - n_user - n_assistant),
            "user_chars": pa.array(np.add.reduceat(chars * is_u, starts)),
            "assistant_chars": pa.array(
                np.add.reduceat(chars * is_a, starts)),
        })

    return kernel


def _make_alternation_kernel(conv_col: str, role_col: str,
                             out_schema: pa.Schema):
    """Adjacent-role alternation kernel over complete, (conv, idx)-sorted
    rows: one ``(conv, n_adj, n_switches)`` row per conversation —
    ``n_adj`` counts every adjacent turn pair, ``n_switches`` the pairs
    whose roles are BOTH non-null and differ (the SQL ``role <> prev``
    null rule).  Every conversation emits (a single-turn conv has
    ``n_adj = 0``) — the ping-pong health probe for agent transcripts
    (a low switch ratio flags role collapse / consecutive same-role
    spam).  Used by :func:`conversation_reports`."""

    def kernel(t: pa.Table) -> pa.Table:
        n = len(t)
        if n == 0:
            return out_schema.empty_table()
        keys = t.column(conv_col).to_numpy(zero_copy_only=False)
        roles = t.column(role_col).to_numpy(zero_copy_only=False)
        rvalid = pc.is_valid(t.column(role_col)).to_numpy(
            zero_copy_only=False)
        new_conv = np.r_[True, keys[1:] != keys[:-1]]
        adj = ~new_conv
        switch = adj & np.r_[False, rvalid[1:] & rvalid[:-1]] \
            & np.r_[False, roles[1:] != roles[:-1]]
        starts = np.flatnonzero(new_conv)
        return pa.table({
            conv_col: pa.array(keys[starts], t.schema.field(conv_col).type),
            "n_adj": pa.array(np.add.reduceat(adj.astype(np.int64), starts)),
            "n_switches": pa.array(
                np.add.reduceat(switch.astype(np.int64), starts)),
        })

    return kernel


_REPORT_NAMES = ("loop", "echo", "role_balance", "alternation",
                 "tool_transitions")


def conversation_reports(ds, which=_REPORT_NAMES, *, min_run: int = 2,
                         conv_col: str = "conv_id",
                         idx_col: str = "turn_idx",
                         role_col: str = "role",
                         text_col: str = "text",
                         tool_col: str = "tool",
                         loop_role: str = "assistant"):
    """The fused per-conversation report family: ``loop``
    (:func:`assistant_loop_stats`), ``echo`` (:func:`echo_stats`),
    ``role_balance`` (:func:`role_balance_stats`), ``alternation``
    (adjacent-role switch counts — fused-only, no standalone op) and
    ``tool_transitions`` (:func:`tool_transition_counts`) computed from
    ONE corpus hash exchange instead of one per report.  Returns
    ``{name: Dataset}`` for the requested ``which``, each row-identical
    to its standalone op (up to the same hash-collision classes those
    ops document).

    Scale shape: one slim projection rides the single all-to-all — conv,
    idx, role, an 8-byte text hash + validity (loop/echo), text char
    length (role_balance) and the tool label (tool_transitions); text
    bytes never shuffle.  Each report is then a vectorized ``map_batches``
    consumer (``batch_size=None``) of the SAME materialized
    key-partitioned output (``sorted_scan.partition_by_key``: every block
    holds complete, turn-sorted conversations), so adding a report to the
    family costs map passes, not another exchange.
    Per-report differences from the standalone ops, both immaterial on
    well-formed transcripts: rows with a null ``idx_col`` are dropped for
    every report here (the ordered scaffold needs the index; standalone
    ``role_balance_stats`` keeps them), and when ``echo`` or
    ``role_balance`` is requested the loop/tool role/tool prefilters
    happen after the exchange (those two families need every turn row, so
    the fused exchange moves each row once — cheaper than per-report exchanges of
    overlapping subsets).  When the request is loop/tool_transitions only,
    the subset rows are pruned BEFORE the all-to-all, exactly like the
    standalone ops."""
    which = [which] if isinstance(which, str) else list(which)
    unknown = set(which) - set(_REPORT_NAMES)
    if unknown:
        raise ValueError(f"unknown report(s) {sorted(unknown)}; "
                         f"choose from {_REPORT_NAMES}")
    if min_run < 1:
        raise ValueError(f"min_run must be >= 1, got {min_run}")

    import ray.data as rd

    from ..util import column_type
    from .dedup import _text_hash63

    conv_type = column_type(ds, conv_col, pa.string())
    need_hash = "loop" in which or "echo" in which
    need_chars = "role_balance" in which
    need_tool = "tool_transitions" in which
    # role feeds the loop prefilter and the echo/role_balance/alternation
    # kernels; a tool_transitions-only request must not impose a role
    # column the standalone op never reads
    need_role = bool({"loop", "echo", "role_balance",
                      "alternation"} & set(which))

    # families that consume a SUBSET of the turn table can prune it BEFORE
    # the all-to-all (the standalone ops' shape); echo/role_balance need
    # every row, so any request including them ships the full table once
    subset_masks = {
        "loop": lambda t: pc.equal(t.column(role_col), loop_role),
        "tool_transitions": lambda t: pc.is_valid(t.column(tool_col)),
    }
    prefilter_masks = ([subset_masks[f] for f in which]
                       if set(which) <= set(subset_masks) else None)

    proj_cols = [conv_col, idx_col]
    proj_cols += [role_col] if need_role else []
    proj_cols += ["__th", "__tv"] if need_hash else []
    proj_cols += ["__chars"] if need_chars else []
    proj_cols += [tool_col] if need_tool else []

    def proj(t: pa.Table) -> pa.Table:
        if prefilter_masks is not None and len(t):
            mask = prefilter_masks[0](t)
            for m in prefilter_masks[1:]:
                mask = pc.or_kleene(mask, m(t))
            t = t.filter(pc.fill_null(mask, False))
        cols = {conv_col: t.column(conv_col), idx_col: t.column(idx_col)}
        if need_role:
            cols[role_col] = t.column(role_col)
        if need_hash:
            text = t.column(text_col)
            cols["__th"] = pa.array(_text_hash63(text))
            cols["__tv"] = pc.is_valid(text)
        if need_chars:
            cols["__chars"] = pc.coalesce(
                pc.cast(pc.utf8_length(t.column(text_col)), pa.int64()),
                pa.scalar(0, pa.int64()))
        if need_tool:
            cols[tool_col] = t.column(tool_col)
        return pa.table(cols)

    # one hash exchange on the conversation: every block holds complete,
    # turn-sorted conversations, and each family kernel maps over it
    parts = partition_by_key(
        ds.map_batches(proj, batch_format="pyarrow"),
        proj_cols, conv_col, [idx_col], non_null=[idx_col])

    # --- the wide per-conversation kernel: loop + echo + role_balance in
    # ONE pass over a block of complete sorted conversations.  Family
    # sub-tables (each one row per conv, conv-sorted) align onto the
    # block's conversation spine with np.searchsorted; families a
    # conversation doesn't qualify for are NULL on its wide row.
    # canonical family order: the wide kernel emits columns in this order
    per_conv = [f for f in ("loop", "echo", "role_balance", "alternation")
                if f in which]
    loop_schema = pa.schema([
        (conv_col, conv_type), ("max_run", pa.int64()),
        ("n_loops", pa.int64()), ("n_role_turns", pa.int64())])
    echo_schema = pa.schema([
        (conv_col, conv_type), ("n_echoes", pa.int64()),
        ("n_pairs", pa.int64())])
    rb_schema = pa.schema(
        [(conv_col, conv_type)]
        + [(c, pa.int64()) for c in _ROLE_BALANCE_COLS])
    alt_schema = pa.schema([
        (conv_col, conv_type), ("n_adj", pa.int64()),
        ("n_switches", pa.int64())])
    fam_cols = {"loop": ["max_run", "n_loops", "n_role_turns"],
                "echo": ["n_echoes", "n_pairs"],
                "role_balance": list(_ROLE_BALANCE_COLS),
                "alternation": ["n_adj", "n_switches"]}
    wide_schema = pa.schema(
        [(conv_col, conv_type)]
        + [(c, pa.int64()) for f in per_conv for c in fam_cols[f]])
    base_loop = _make_loop_kernel(conv_col, min_run, loop_schema)
    base_echo = _make_echo_kernel(conv_col, role_col, echo_schema)
    base_rb = _make_role_segment_kernel(conv_col, role_col, rb_schema)
    base_alt = _make_alternation_kernel(conv_col, role_col, alt_schema)

    def wide_kernel(t: pa.Table) -> pa.Table:
        n = len(t)
        if n == 0:
            return wide_schema.empty_table()
        keys = t.column(conv_col).to_numpy(zero_copy_only=False)
        spine_idx = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        spine = keys[spine_idx]
        cols = {conv_col: pa.array(spine, t.schema.field(conv_col).type)}

        def align(fam_tbl: pa.Table, names):
            fc = fam_tbl.column(conv_col).to_numpy(zero_copy_only=False)
            pos = np.searchsorted(spine, fc)
            for name in names:
                vals = np.zeros(len(spine), np.int64)
                mask = np.ones(len(spine), bool)
                vals[pos] = fam_tbl.column(name).to_numpy(
                    zero_copy_only=False)
                mask[pos] = False
                cols[name] = pa.array(vals, pa.int64(), mask=mask)

        if "loop" in per_conv:
            lt = t.filter(pc.equal(t.column(role_col), loop_role))
            th = lt.column("__th").to_numpy(zero_copy_only=False)
            tv = lt.column("__tv").to_numpy(zero_copy_only=False)
            # standalone op's null sentinel: null text hashes to -1
            # (unreachable for the non-negative 63-bit hash)
            align(base_loop(pa.table({
                conv_col: lt.column(conv_col),
                "__th": pa.array(
                    np.where(tv.astype(bool), th, np.int64(-1)),
                    pa.int64()),
            })), fam_cols["loop"])
        if "echo" in per_conv:
            align(base_echo(t), fam_cols["echo"])
        if "role_balance" in per_conv:
            align(base_rb(t), fam_cols["role_balance"])
        if "alternation" in per_conv:
            align(base_alt(t), fam_cols["alternation"])
        return pa.table(cols)

    out = {}
    if per_conv:
        wide = parts.map_batches(
            wide_kernel, batch_format="pyarrow", batch_size=None).union(
            rd.from_arrow(wide_schema.empty_table()))
        if len(per_conv) > 1:
            wide = wide.materialize()  # consumed once per family below

        def family_view(fam):
            names = fam_cols[fam]
            sel = [conv_col] + names
            fam_schema = pa.schema([(conv_col, conv_type)]
                                   + [(c, pa.int64()) for c in names])

            def proj_fam(t: pa.Table) -> pa.Table:
                t = t.select(sel)
                # a conv absent from the family (no loop_role turn / no
                # adjacent pair) is NULL on its wide row — drop it, like
                # the standalone op
                return t.filter(pc.is_valid(t.column(names[0])))

            return wide.map_batches(
                proj_fam, batch_format="pyarrow").union(
                rd.from_arrow(fam_schema.empty_table()))  # schema anchor

        for fam in per_conv:
            out[fam] = family_view(fam)
    if "tool_transitions" in which:
        from ..functions.shuffle import tree_group_sum

        part_schema = pa.schema([
            ("tool_from", pa.string()), ("tool_to", pa.string()),
            ("__n", pa.int64())])
        base_tool = _make_tool_pairs_kernel(conv_col, tool_col, part_schema)

        def tool_kernel(t: pa.Table) -> pa.Table:
            return base_tool(t.filter(pc.is_valid(t.column(tool_col))))

        partials = parts.map_batches(tool_kernel, batch_format="pyarrow",
                                     batch_size=None)
        folded = tree_group_sum(partials, ["tool_from", "tool_to"], ["__n"])
        empty = pa.table({"tool_from": pa.array([], pa.string()),
                          "tool_to": pa.array([], pa.string()),
                          "n": pa.array([], pa.int64())})

        def finalize(t: pa.Table) -> pa.Table:
            return pa.table({"tool_from": t.column("tool_from"),
                             "tool_to": t.column("tool_to"),
                             "n": pc.cast(t.column("__n"), pa.int64())})

        out["tool_transitions"] = folded.map_batches(
            finalize, batch_format="pyarrow").union(rd.from_arrow(empty))
    return out


def curate_conversations(ds, *, clip_tokens: int | None = None, **rules):
    """Composed conversation-curation DAG — the transcript analogue of
    :func:`sft_prepare`: structural keep/drop filter
    (:func:`filter_conversations`, whole conversations dropped with
    reason-code rules) → whole-conversation exact dedup
    (:func:`dedup_conversations`, identical (turn_idx, text) sequences
    keep the minimum conv id) → optional per-turn token-budget clipping
    (:func:`clip_turn_texts` when ``clip_tokens`` is set, which also adds
    the ``clipped`` column).  Returns the surviving turn rows.

    Scale note: each stage is the already-audited distributed op; the
    dedup stage re-reads its input lineage twice (fingerprint fold +
    NOT-IN pass), so the filter's anti-join probes execute twice — cheap
    per batch, and at 100 TB the alternative (materializing the filtered
    corpus) costs more than the second pruned pass."""
    out = filter_conversations(ds, **rules)
    out = dedup_conversations(out)
    if clip_tokens is not None:
        out = clip_turn_texts(out, clip_tokens)
    return out


def split_by_fork_group(ds, prefix_turns: int,
                        splits=(("train", 80), ("val", 10), ("test", 10)),
                        *, conv_col: str = "conv_id",
                        idx_col: str = "turn_idx",
                        text_col: str = "text"):
    """Leakage-safe train/val/test split for agent transcripts: retried /
    forked conversations (identical first-``prefix_turns`` prefix — see
    :func:`conversation_fork_groups`) always land in the SAME split, so a
    task's retry can never leak from train into eval.  Returns one
    ``(conv, group_id, split)`` row per conversation: ``group_id`` is the
    fork group's minimum conv id for members and the conversation's own id
    otherwise; ``split`` uses the engine-standard md5-percentile bucket
    (``relational.split_assign`` rule, SQL-reproducible).

    Scale shape: the fork-member table (O(#forked convs)) broadcasts
    (``functions.broadcast``); the distinct-conversation list folds through
    a slim ``groupby(conv)``; everything else is an embarrassingly parallel
    per-batch stamp — the md5 decision hash runs once per CONVERSATION,
    never per turn."""
    from ..functions.broadcast import BroadcastSet
    from ..util import column_type
    from .relational import split_assign

    # split_assign validates the same way, but only after the expensive
    # fork-group fingerprint pass below has already run — fail first
    if sum(int(s[1]) for s in splits) > 100:
        raise ValueError("split weights must sum to <= 100")

    conv_type = column_type(ds, conv_col, pa.string())

    members = BroadcastSet.collect(conversation_fork_groups(
        ds, prefix_turns, conv_col=conv_col, idx_col=idx_col,
        text_col=text_col).select_columns(
        [conv_col, "fork_group"]), conv_col)

    def conv_partials(t: pa.Table) -> pa.Table:
        conv = t.column(conv_col)
        u = pc.unique(conv.combine_chunks()
                      if isinstance(conv, pa.ChunkedArray) else conv)
        u = u.filter(pc.is_valid(u))
        return pa.table({conv_col: u,
                         "__n": pa.array(np.ones(len(u), np.int64))})

    from ..functions.shuffle import tree_group_sum

    convs = tree_group_sum(ds.map_batches(conv_partials,
                                          batch_format="pyarrow"),
                           [conv_col], ["__n"])

    grouped_schema = pa.schema([
        (conv_col, conv_type), ("group_id", conv_type),
    ])

    def stamp_group(t: pa.Table) -> pa.Table:
        # a member takes its fork group; any other conv is its own group
        conv = t.column(conv_col).combine_chunks()
        rows = pa.table({conv_col: conv,
                         "__row": pa.array(np.arange(len(conv)))})
        hit = members.lookup(rows, conv_col, ["fork_group"])
        group = np.asarray(conv, dtype=object).copy()
        group[np.asarray(hit.column("__row"))] = np.asarray(
            hit.column("fork_group"), dtype=object)
        return pa.table({conv_col: conv,
                         "group_id": pa.array(group, conv_type)})

    import ray.data as rd

    # the actual split decision is relational.split_assign on the GROUP id
    # — one source of truth for the md5-percentile rule, so 'same key →
    # same split' holds across both APIs by construction
    grouped = convs.map_batches(
        stamp_group, batch_format="pyarrow").union(
        rd.from_arrow(grouped_schema.empty_table()))  # schema anchor
    return split_assign(grouped, "group_id", splits)


def reindex_turns(ds, *, conv_col: str = "conv_id",
                  idx_col: str = "turn_idx"):
    """Re-densify turn indices after turn-level filtering: within each
    conversation, replace ``turn_idx`` with its 0-based rank in the
    original turn order (ties impossible — (conv, idx) is the table key),
    so downstream consumers that require a dense 0..n-1 index (packing,
    SFT extraction, :func:`validate_conversations`) accept filtered
    output.  All other columns pass through unchanged; the original index
    is preserved in ``orig_turn_idx``.  Rows with a null ``conv_col`` or
    ``idx_col`` are DROPPED (they have no position in any conversation's
    order — same explicit null-key contract as
    :func:`filter_conversations`), so the output may have fewer rows than
    the input.

    Scale shape: the shared :func:`sorted_scan` one-sort
    scaffold; the kernel is a pure vectorized arange per conversation
    segment."""
    from ..util import dataset_arrow_schema

    in_schema = dataset_arrow_schema(ds)
    proj_cols = (list(in_schema.names) if in_schema is not None
                 else [conv_col, idx_col])
    if "orig_turn_idx" in proj_cols:
        raise ValueError(
            "input already has an 'orig_turn_idx' column (double "
            "re-indexing would shadow the true original index) — drop or "
            "rename it first")

    def kernel(t: pa.Table) -> pa.Table:
        n = len(t)
        idx_type = t.schema.field(idx_col).type
        if n == 0:
            return t.append_column("orig_turn_idx",
                                   pa.array([], idx_type))
        keys = t.column(conv_col).to_numpy(zero_copy_only=False)
        new_conv = np.r_[True, keys[1:] != keys[:-1]]
        starts = np.flatnonzero(new_conv)
        # rank within conversation = position - segment start
        rank = np.arange(n, dtype=np.int64) - np.repeat(
            starts, np.diff(np.r_[starts, n]))
        orig = t.column(idx_col)
        t = t.set_column(t.column_names.index(idx_col), idx_col,
                         pc.cast(pa.array(rank), idx_type))
        return t.append_column("orig_turn_idx", orig)

    return sorted_scan(
        ds, proj_cols, conv_col, [idx_col], kernel, non_null=[idx_col])


def conversation_diff(old_ds, new_ds, *, conv_col: str = "conv_id",
                      idx_col: str = "turn_idx",
                      text_col: str = "text"):
    """Conversation-granularity delta between two transcript snapshots —
    the incremental-ingest primitive for agent logs: one row per conv id
    that differs, status ``'added'`` (only in new), ``'removed'`` (only
    in old) or ``'changed'`` (present in both with a different
    order-sensitive (turn_idx, text) sequence).  Unchanged conversations
    emit nothing, so the output is delta-sized and yesterday's processed
    corpus never reprocesses.

    Scale shape: each side folds to one slim ``(conv, fingerprint)`` row
    per conversation (:func:`_conversation_fingerprints` — hash partials,
    text never shuffles), then :func:`dedup.snapshot_diff` classifies via
    ONE bucketed exchange.  Equal sequences ⇒ equal fingerprints; a
    spurious 'unchanged' requires a 63-bit hash collision (the same
    collision class every dedup op here documents)."""
    from ..util import column_type
    from .dedup import snapshot_diff

    conv_type = column_type(old_ds, conv_col)
    if conv_type is None:
        conv_type = column_type(new_ds, conv_col, pa.string())

    old_fp = _conversation_fingerprints(
        old_ds, conv_col, idx_col, text_col, conv_type)
    new_fp = _conversation_fingerprints(
        new_ds, conv_col, idx_col, text_col, conv_type)
    return _diff_output(
        snapshot_diff(old_fp, new_fp, conv_col, ["__fp"]), conv_type, conv_col)


def fork_index_write(ds, prefix_turns: int, path: str, *,
                     conv_col: str = "conv_id",
                     idx_col: str = "turn_idx",
                     text_col: str = "text"):
    """Persist a transcript corpus's fork-prefix fingerprint index for
    later incremental probing (:func:`fork_index_probe`) — the
    agent-transcript counterpart of ``dedup.minhash_index_write``:
    ``{path}/prefixes`` holds one slim ``(conv, __fp)`` row per
    conversation (order-sensitive fingerprint of the first
    ``prefix_turns`` turns).  A streaming multi-file ``write_parquet``
    sink; fingerprints are deterministic (seeded polars hash), so any
    later run with the same ``prefix_turns`` compares exactly."""
    from ..util import column_type

    if prefix_turns < 1:
        raise ValueError(f"prefix_turns must be >= 1, got {prefix_turns}")
    _require_fresh_sink(path, "prefixes")
    conv_type = column_type(ds, conv_col, pa.string())

    def prefix_only(t: pa.Table) -> pa.Table:
        return t.filter(pc.less(pc.cast(t.column(idx_col), pa.int64()),
                                prefix_turns))

    _conversation_fingerprints(
        ds.map_batches(prefix_only, batch_format="pyarrow"),
        conv_col, idx_col, text_col, conv_type,
    ).write_parquet(f"{path}/prefixes")
    return path


def fork_index_probe(new_ds, path: str, prefix_turns: int, *,
                     conv_col: str = "conv_id",
                     idx_col: str = "turn_idx",
                     text_col: str = "text"):
    """Which NEW conversations retry an ALREADY-COLLECTED task?  Probe a
    new transcript shard against a persisted fork-prefix index
    (:func:`fork_index_write`): returns one ``(conv, matched_conv)`` row
    per new conversation whose first-``prefix_turns`` fingerprint exists
    in the index, ``matched_conv`` the MINIMUM indexed conv id with that
    prefix (stable witness).  Non-matching conversations are absent — at
    typical retry rates the output is a small fraction of the shard.

    Scale shape: the new shard folds to slim ``(conv, fp)`` rows; the
    NEW fp set (usually ≪ index) broadcasts (``functions.broadcast``) and
    the index scans ONCE against it with pruned columns; matches reduce via
    ``groupby(fp).Min`` and the O(#matched prefixes) witness table
    broadcasts back for the final stamp — the index is never collected
    whole."""
    import ray.data as rd

    from ..functions.broadcast import BroadcastSet
    from ..util import column_type

    if prefix_turns < 1:
        raise ValueError(f"prefix_turns must be >= 1, got {prefix_turns}")
    conv_type = column_type(new_ds, conv_col, pa.string())

    def prefix_only(t: pa.Table) -> pa.Table:
        return t.filter(pc.less(pc.cast(t.column(idx_col), pa.int64()),
                                prefix_turns))

    new_fp = _conversation_fingerprints(
        new_ds.map_batches(prefix_only, batch_format="pyarrow"),
        conv_col, idx_col, text_col, conv_type,
    ).materialize()  # consumed by the fp value set AND the final stamp

    # the witness column carries INDEX conv ids — resolve its type from the
    # persisted index's own parquet schema (an int-keyed index probed by a
    # string-keyed shard, or vice versa, keeps each side's true type; a
    # hardcoded pa.string() witness would diverge from conversation_diff's
    # key-type-preserving contract)
    import pyarrow.dataset as pads

    wit_type = pads.dataset(f"{path}/prefixes").schema.field(conv_col).type
    out_schema = pa.schema([(conv_col, conv_type),
                            ("matched_conv", wit_type)])
    empty = rd.from_arrow(out_schema.empty_table())
    new_fps = BroadcastSet.collect(new_fp, "__fp")
    if not new_fps:
        return empty

    from ..functions.shuffle import tree_group_sum

    witness = tree_group_sum(
        new_fps.semi(rd.read_parquet(f"{path}/prefixes"), "__fp")
        .select_columns(["__fp", conv_col]),
        ["__fp"], [conv_col], funcs=["min"])

    def wit_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "__fp": t.column("__fp"),
            "matched_conv": pc.cast(t.column(conv_col), wit_type),
        })

    witnesses = BroadcastSet.collect(
        witness.map_batches(wit_rows, batch_format="pyarrow"), "__fp")
    if not witnesses:
        return empty
    return new_fp.map_batches(
        lambda t: witnesses.lookup(t, "__fp", ["matched_conv"])
        .select([conv_col, "matched_conv"]),
        batch_format="pyarrow").union(empty)  # schema anchor


# Most candidate rows sample_conversations merges on the driver; above it
# the op raises instead of collecting.
SAMPLE_DRIVER_MAX_ROWS = 2_000_000


def sample_conversations(ds, n: int, *, conv_col: str = "conv_id"):
    """Reproducible fixed-size corpus subset at CONVERSATION granularity:
    keep the ``n`` conversations with the smallest ``(md5_bucket(conv),
    conv)`` rank — a pure function of the ids, so the same subset comes
    back across runs, engines and data orderings (and is exactly
    SQL-checkable, unlike a random sample).  Returns the selected
    conversations' turn rows, all columns intact.

    Scale shape: per-block distinct convs reduce to a LOCAL top-``n``
    by hash rank, so at most ``#blocks × n`` slim rows reach the driver
    merge (guarded by ``SAMPLE_DRIVER_MAX_ROWS`` — for subsets too large for
    that bound use :func:`relational.split_assign` rates instead); the
    selected id set broadcasts (``functions.broadcast``) for the final
    per-batch semi-join."""
    from ..functions.broadcast import BroadcastSet
    from ..util import collect_arrow, dataset_arrow_schema
    from .relational import md5_bucket

    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    in_schema = dataset_arrow_schema(ds)
    conv_type = (in_schema.field(conv_col).type
                 if in_schema is not None and conv_col in in_schema.names
                 else pa.string())

    def block_candidates(t: pa.Table) -> pa.Table:
        conv = t.column(conv_col)
        u = pc.unique(conv.combine_chunks()
                      if isinstance(conv, pa.ChunkedArray) else conv)
        u = u.filter(pc.is_valid(u))
        if len(u) == 0:
            return pa.table({conv_col: pa.array([], conv_type),
                             "__rank": pa.array([], pa.int64())})
        rank = md5_bucket(u)
        order = np.lexsort((np.asarray(u, dtype=object), rank))[:n]
        return pa.table({conv_col: u.take(pa.array(order)),
                         "__rank": pa.array(rank[order])})

    partials = ds.map_batches(
        block_candidates, batch_format="pyarrow").materialize()

    # gate BEFORE the driver collect — counting the materialized partials
    # is free, and collecting first would be the OOM the gate exists for
    n_cand = partials.count()
    if n_cand > SAMPLE_DRIVER_MAX_ROWS:
        raise ValueError(
            f"candidate merge would hold {n_cand} rows on the driver "
            f"(> {SAMPLE_DRIVER_MAX_ROWS}); for subsets this large use "
            "relational.split_assign with a rate instead of an exact n")
    cand = collect_arrow(partials)
    if cand is None or len(cand) == 0:
        import ray.data as rd

        return rd.from_arrow(
            in_schema.empty_table() if in_schema is not None
            else pa.table({conv_col: pa.array([], conv_type)}))
    df = cand.to_pandas().drop_duplicates(conv_col)
    df = df.sort_values(["__rank", conv_col], kind="mergesort").head(n)
    keep = pa.table({conv_col: pa.array(df[conv_col].to_numpy(), conv_type)})
    return BroadcastSet.put(keep, conv_col).semi(ds, conv_col)


def filter_pii_conversations(ds, max_matches: int = 0, *,
                             conv_col: str = "conv_id",
                             text_col: str = "text"):
    """Drop WHOLE conversations whose total PII match count (emails +
    URLs + credit cards, :func:`pii_stats`) exceeds ``max_matches`` and
    return the surviving turn rows — the conversation-granularity policy
    lever next to the flagship's per-turn scrub: scrubbing rewrites the
    matched spans, this removes conversations too exposed to keep at
    all.  Rows with a null conv id are dropped (SQL ``NOT IN``
    semantics, same contract as :func:`filter_conversations`).

    Scale shape: the report is already O(match-bearing conversations);
    the over-threshold id set is a further subset, collected into one
    broadcast set (``functions.broadcast``) and applied as one per-batch
    anti-join — the turn table never shuffles."""
    from ..functions.broadcast import BroadcastSet
    from ..util import column_type

    if max_matches < 0:
        raise ValueError(f"max_matches must be >= 0, got {max_matches}")

    conv_type = column_type(ds, conv_col, pa.string())

    rep = pii_stats(ds, conv_col=conv_col, text_col=text_col)

    def over(t: pa.Table) -> pa.Table:
        total = pc.add(pc.add(t.column("n_email"), t.column("n_url")),
                       t.column("n_cc"))
        kept = t.filter(pc.greater(total, max_matches))
        return pa.table({conv_col: pc.cast(kept.column(conv_col),
                                           conv_type)})

    dropped = BroadcastSet.collect(
        rep.map_batches(over, batch_format="pyarrow"), conv_col)
    return dropped.anti(ds, conv_col)


def conversation_index_write(ds, path: str, *,
                             conv_col: str = "conv_id",
                             idx_col: str = "turn_idx",
                             text_col: str = "text"):
    """Persist a transcript corpus's WHOLE-SEQUENCE fingerprint index —
    ``{path}/fingerprints`` holds one slim ``(conv, __fp)`` row per
    conversation (order-sensitive over every (turn_idx, text)) — so later
    snapshots can diff against it (:func:`conversation_diff_against_index`)
    without ever re-reading this corpus.  The full-sequence sibling of
    :func:`fork_index_write`'s prefix index; streaming multi-file
    ``write_parquet`` sink, deterministic seeded hashes."""
    from ..util import column_type

    _require_fresh_sink(path, "fingerprints")
    conv_type = column_type(ds, conv_col, pa.string())
    _conversation_fingerprints(
        ds, conv_col, idx_col, text_col, conv_type,
    ).write_parquet(f"{path}/fingerprints")
    return path


def conversation_diff_against_index(new_ds, path: str, *,
                                    conv_col: str = "conv_id",
                                    idx_col: str = "turn_idx",
                                    text_col: str = "text"):
    """Incremental :func:`conversation_diff`: classify a NEW transcript
    snapshot against a PERSISTED fingerprint index
    (:func:`conversation_index_write`) — added / removed / changed per
    conv id — without re-scanning yesterday's corpus.  Day-N ingest costs
    O(new corpus + slim index read) instead of re-fingerprinting
    everything already collected.

    Scale shape: the new side folds to slim ``(conv, fp)`` rows; the
    index IS already that shape on disk (a pruned two-column parquet
    read); both feed :func:`dedup.snapshot_diff`'s one bucketed
    exchange."""
    import ray.data as rd

    from ..util import column_type
    from .dedup import snapshot_diff

    conv_type = column_type(new_ds, conv_col, pa.string())

    old_fp = rd.read_parquet(f"{path}/fingerprints",
                             columns=[conv_col, "__fp"])
    new_fp = _conversation_fingerprints(
        new_ds, conv_col, idx_col, text_col, conv_type)
    return _diff_output(
        snapshot_diff(old_fp, new_fp, conv_col, ["__fp"]), conv_type, conv_col)


def turn_diff(old_ds, new_ds, *, conv_col: str = "conv_id",
              idx_col: str = "turn_idx", text_col: str = "text"):
    """Turn-granular delta between two transcript snapshots — the
    drill-down companion to :func:`conversation_diff`: one row per
    (conv, turn_idx) that differs, status ``'added'`` / ``'removed'`` /
    ``'changed'`` (text differs by deterministic content hash; null and
    ''/missing are distinct states).  Run it on the conversations the
    conversation-level diff flagged to see WHICH turns moved.

    Scale shape: each side projects to slim ``(composite key, text)``
    rows (key = conv ⊕ ':' ⊕ turn_idx, vectorized ``binary_join``), then
    :func:`dedup.snapshot_diff`'s one bucketed exchange; the key splits
    back vectorized on output."""
    from .dedup import snapshot_diff

    def keyed(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column(conv_col)))
        # null turn_idx keys as -1 — the same fill the fingerprint fold
        # uses, so every turn the conversation-level diff saw is visible
        # to the drill-down too
        idx = pc.fill_null(pc.cast(t.column(idx_col), pa.int64()),
                           pa.scalar(-1, pa.int64()))
        key = pc.binary_join_element_wise(
            pc.cast(t.column(conv_col), pa.string()),
            pc.cast(idx, pa.string()),
            "\x1f")
        return pa.table({"__tk": key, text_col: t.column(text_col)})

    diff = snapshot_diff(
        old_ds.map_batches(keyed, batch_format="pyarrow"),
        new_ds.map_batches(keyed, batch_format="pyarrow"),
        "__tk", [text_col])

    out_schema = pa.schema([
        (conv_col, pa.string()), (idx_col, pa.int64()),
        ("status", pa.string()),
    ])

    def split_key(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t.column("key"), pattern="\x1f",
                                 max_splits=1, reverse=True)
        return pa.table({
            conv_col: pc.list_element(parts, 0),
            idx_col: pc.cast(pc.list_element(parts, 1), pa.int64()),
            "status": t.column("status"),
        })

    import ray.data as rd

    return diff.map_batches(split_key, batch_format="pyarrow").union(
        rd.from_arrow(out_schema.empty_table()))  # schema anchor


def _require_fresh_sink(path: str, sub: str) -> None:
    """Ray's ``write_parquet`` APPENDS uniquely-named files to an existing
    directory, so re-writing an index into a non-empty target would leave
    stale fingerprints beside the new ones (duplicate keys →
    ``snapshot_diff`` raises; stale prefixes silently keep matching).
    Refuse up front.  Local paths check via os; URI sinks (s3://, gs://,
    hdfs://, ...) check via ``pyarrow.fs.FileSystem.from_uri`` — and if the
    scheme can't be resolved we RAISE rather than silently skipping the
    guard (a skipped check would reintroduce the stale-fingerprint append
    hazard this helper exists to prevent)."""
    import os

    if "://" in path:
        from pyarrow import fs as pafs

        try:
            filesystem, base = pafs.FileSystem.from_uri(path)
            info = filesystem.get_file_info(
                pafs.FileSelector(f"{base.rstrip('/')}/{sub}",
                                  allow_not_found=True))
        except Exception as ex:  # noqa: BLE001 - unknown scheme/unreachable
            raise ValueError(
                f"cannot verify that index sink {path}/{sub} is fresh "
                f"({ex}); the fresh-sink check is required because "
                "write_parquet appends rather than replaces") from ex
        if info:
            raise ValueError(
                f"index sink {path}/{sub} already contains files; write to "
                "a fresh directory or remove the stale index first "
                "(write_parquet appends, it does not replace)")
        return
    d = os.path.join(path, sub)
    if os.path.isdir(d) and os.listdir(d):
        raise ValueError(
            f"index sink {d} already contains files; write to a fresh "
            "directory or remove the stale index first (write_parquet "
            "appends, it does not replace)")


def _diff_output(diff, conv_type, conv_col: str):
    """Shared tail of the direct and index-based conversation diffs:
    rename snapshot_diff's generic (key, status) to the conv column and
    anchor the schema — ONE definition so the two ops cannot diverge
    (their oracles are literally the same SQL)."""
    import ray.data as rd

    out_schema = pa.schema([(conv_col, conv_type),
                            ("status", pa.string())])

    def rename(t: pa.Table) -> pa.Table:
        return t.rename_columns([conv_col, "status"])

    return diff.map_batches(rename, batch_format="pyarrow").union(
        rd.from_arrow(out_schema.empty_table()))


def split_conversations_by_gap(ds, gap_seconds: float, *,
                               conv_col: str = "conv_id",
                               idx_col: str = "turn_idx",
                               ts_col: str = "ts",
                               out_col: str = "sub_conv"):
    """Split long agent logs into sub-conversations at INACTIVITY gaps:
    every turn gets ``out_col`` = the number of strictly-greater-than-
    ``gap_seconds`` jumps between consecutive turns (in ``idx_col``
    order) before it — SQL ``SUM(CASE WHEN ts − LAG(ts) > gap THEN 1
    ELSE 0 END) OVER (PARTITION BY conv ORDER BY idx)``.  The transcript
    analogue of event sessionization (``sessions.py``): a crawl that
    concatenates a user's sessions under one conv id is re-segmented so
    downstream per-conversation ops (dedup, SFT extraction, reports)
    see coherent units — ``(conv_col, out_col)`` is the new conversation
    key.

    One hash exchange via the shared whole-conversation scaffold
    (:func:`sorted_scan`) and a vectorized cumsum kernel per bucket of
    complete conversations.  All input columns ride the exchange and come
    back stamped (the
    ``truncate_conversations`` discipline).  A null or non-monotone
    timestamp produces no break at that junction (SQL null/compare
    rule); rows with a null conv or idx are dropped."""
    if gap_seconds <= 0:
        raise ValueError(f"gap_seconds must be > 0, got {gap_seconds}")
    from ..util import dataset_arrow_schema

    in_schema = dataset_arrow_schema(ds)
    if in_schema is not None and out_col in in_schema.names:
        # re-splitting already-stamped output would duplicate the column
        # (the documented "'exists 2 times'" failure class) — same guard
        # as reindex_turns
        raise ValueError(
            f"input already has a {out_col!r} column — drop or rename it "
            "before re-splitting")
    proj_cols = (list(in_schema.names) if in_schema is not None
                 else [conv_col, idx_col, ts_col])

    def kernel(t: pa.Table) -> pa.Table:
        n = len(t)
        if n == 0:
            return t.append_column(out_col, pa.array([], pa.int64()))
        keys = t.column(conv_col).to_numpy(zero_copy_only=False)
        ts = t.column(ts_col).to_numpy(zero_copy_only=False)
        new_conv = np.r_[True, keys[1:] != keys[:-1]]
        if ts.dtype.kind == "M":
            thresh = np.timedelta64(int(round(gap_seconds * 1e6)), "us")
        else:
            thresh = gap_seconds
        with np.errstate(invalid="ignore"):
            brk = np.r_[False, (ts[1:] - ts[:-1]) > thresh] & ~new_conv
        c = np.cumsum(brk.astype(np.int64))
        starts = np.flatnonzero(new_conv)
        run_start = starts[np.cumsum(new_conv) - 1]
        return t.append_column(
            out_col, pa.array(c - c[run_start], pa.int64()))

    return sorted_scan(ds, proj_cols, conv_col, [idx_col], kernel,
                       non_null=[idx_col])
