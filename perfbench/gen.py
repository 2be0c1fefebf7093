"""Seeded input generator for the benchmark's jobs.

Writes multi-file Parquet for one (job, seed, size) plus the oracle's
expected output next to it, so the timed program only ever reads generated
files.  ``run.py`` starts it as a separate process, which keeps generation
and the oracle out of the measured process and its peak memory::

    python3 perfbench/gen.py --job flagship_pii --seed 3 --size 128 --out DIR

``job`` is ``flagship_pii``, ``conv_sft`` or ``dq_suite``.  ``size`` is
the number of base documents (transcript jobs) or
``lineitem`` rows (``dq_suite``).  The same arguments always give the same
bytes.

Transcripts are made the way the engine's own flagship input is: a
``documents`` table ``(doc_id, text)`` exploded by
``transcripts._DocsToTranscriptsN`` (12-word turns, alternating roles,
replica ``r`` re-keyed as ``<conv>-r<r>``).  The PII leg is the contract
queries' ``__ray_entry__._pii_inject``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Each document becomes REPLICATE conversations that differ only in conv_id
# (the flagship bench's replicate trick), so the oracle runs on replica 0.
REPLICATE = 16
DOCS_PER_FILE = 64
LINEITEM_ROWS_PER_FILE = 25_000
WORDS_PER_TURN = 12  # the chunking of transcripts._DocsToTranscripts

# Extra words of the synthetic documents (the flavour of the repo's test
# data), plus stopwords so most English turns pass the stopword rule.
TECH_WORDS = (
    "join filter window row stream customer data group sort merge fast key "
    "query line vector batch agg small value hash order big slow table part "
    "column spark scan"
).split()
STOP_WORDS = "the a and of to is in for with on".split()
SYMBOL_WORDS = "## @@ %% && ** !! $$ ^^".split()
# shares of documents by kind: English, German/French, symbols, one word
KIND_SHARES = (0.82, 0.08, 0.05, 0.05)
# 12-word openers shared by many documents: each becomes one whole turn
BOILERPLATE = (
    "hello and welcome to the support chat how can i help you today",
    "this conversation may be recorded for quality and training purposes only",
    "thank you for contacting us please rate this conversation when you finish",
)
# toxic-word leg: about this share of turns, a deterministic function of
# (seed, doc, turn_idx) so every replica of a turn gets the same word
TOXIC_PER_MILLE = 20
# conv_sft: LONG_CONVS conversations, each as many turns as this many
# input files, a quarter of the rows each at the default size, so after the
# range sort they straddle block boundaries and take the boundary repair
LONG_CONV_FILES = 1
LONG_CONVS = 2
# rows of the first input file that the untimed warm-up runs on
WARM_ROWS = 2048


def _spec():
    from hooqu_ray.stages import spec

    return spec


def documents(seed: int, n_docs: int, *, boilerplate: bool = False) -> pa.Table:
    """``(doc_id, text)``: mostly English-like text, with noise legs
    (German/French, symbol soup, one repeated word) that the quality
    filter drops, so both keep and drop verdicts occur.  The seed picks
    the words and which document gets which kind and length; the kind
    counts and the multiset of lengths are fixed, so every seed gives the
    same number of turns."""
    spec = _spec()
    rng = np.random.default_rng(seed)
    en = np.array(spec.LM_CORPORA["en"].split() + TECH_WORDS + STOP_WORDS * 3,
                  dtype=object)
    other = np.array(spec.LM_CORPORA["de"].split()
                     + spec.LM_CORPORA["fr"].split(), dtype=object)
    sym = np.array(SYMBOL_WORDS, dtype=object)
    noise = [round(n_docs * f) for f in KIND_SHARES[1:]]
    kind = rng.permutation(np.repeat(np.arange(len(KIND_SHARES)),
                                     [n_docs - sum(noise)] + noise))
    lengths = rng.permutation(np.linspace(20, 120, n_docs).astype(np.int64))
    opener = rng.permutation(np.arange(n_docs) < n_docs // 10)
    which = rng.integers(len(BOILERPLATE), size=n_docs)
    texts = []
    for i, (k, n) in enumerate(zip(kind.tolist(), lengths.tolist())):
        if k == 0:
            words = rng.choice(en, n).tolist()
        elif k == 1:
            words = rng.choice(other, n).tolist()
        elif k == 2:
            words = rng.choice(sym, n).tolist()
        else:
            words = [str(rng.choice(en))] * n
        if boilerplate and opener[i]:
            words = BOILERPLATE[int(which[i])].split() + words
        texts.append(" ".join(words))
    return pa.table({"doc_id": pa.array(np.arange(n_docs), pa.int64()),
                     "text": pa.array(texts, pa.string())})


def long_documents(seed: int, first_id: int, n_docs: int,
                   n_turns: int) -> pa.Table:
    spec = _spec()
    rng = np.random.default_rng(seed + 1)
    en = np.array(spec.LM_CORPORA["en"].split() + STOP_WORDS, dtype=object)
    texts = [" ".join(rng.choice(en, n_turns * WORDS_PER_TURN).tolist())
             for _ in range(n_docs)]
    return pa.table({"doc_id": pa.array(np.arange(n_docs) + first_id, pa.int64()),
                     "text": pa.array(texts, pa.string())})


def _doc_ids(t: pa.Table) -> np.ndarray:
    return pc.cast(pc.utf8_slice_codeunits(t.column("conv_id"), 5, 13),
                   pa.int64()).to_numpy(zero_copy_only=False)


def inject_toxic(t: pa.Table, seed: int) -> pa.Table:
    """Append a ``spec.TOXIC_WORDS`` word to a seeded ~2% of turns."""
    words = _spec().TOXIC_WORDS
    idx = np.asarray(t.column("turn_idx"), dtype=np.int64)
    h = (_doc_ids(t) * 2654435761 + idx * 40503 + seed * 97) % 1000
    hit = h < TOXIC_PER_MILLE
    text = t.column("text").to_numpy(zero_copy_only=False).astype(object)
    text[hit] = text[hit] + np.array([" " + words[v % len(words)]
                                      for v in h[hit].tolist()], dtype=object)
    return t.set_column(t.schema.get_field_index("text"), "text",
                        pa.array(text, pa.string()))


def transcript_files(job: str, seed: int, n_docs: int) -> tuple:
    """The job's transcript table, one entry per input file, and the
    same turns without PII or toxic injection (``flagship_pii`` only, for
    the traced run's clean-input kernel pass; else ``None``)."""
    from hooqu_ray.pipelines.transcripts import (_DocsToTranscripts,
                                                 _DocsToTranscriptsN)

    docs = documents(seed, n_docs, boilerplate=job == "conv_sft")
    explode = _DocsToTranscriptsN(REPLICATE)
    files = [explode(docs.slice(off, DOCS_PER_FILE))
             for off in range(0, n_docs, DOCS_PER_FILE)]
    twin = None
    if job == "flagship_pii":
        from __ray_entry__ import _pii_inject

        twin = files
        files = [inject_toxic(_pii_inject(t), seed) for t in files]
    elif job == "conv_sft":
        rows_per_file = max(len(t) for t in files)
        longs = _DocsToTranscripts(long_documents(
            seed, n_docs, LONG_CONVS, LONG_CONV_FILES * rows_per_file))
        files.append(longs)
    return files, twin


def lineitem(seed: int, n_rows: int) -> pa.Table:
    """``lineitem``-shaped table: ~1% duplicated (orderkey, linenumber)
    keys, ~1% null return flags, ~2% discounts outside the 0..0.1 rule."""
    rng = np.random.default_rng(seed)
    row = np.arange(n_rows, dtype=np.int64)
    orderkey = row // 4 + 1
    linenumber = (row % 4 + 1).astype(np.int32)
    dup = rng.random(n_rows) < 0.01
    dup[0] = False
    orderkey[dup] = orderkey[np.flatnonzero(dup) - 1]
    linenumber[dup] = linenumber[np.flatnonzero(dup) - 1]
    qty = rng.integers(1, 51, n_rows).astype(np.float64)
    price = np.round(qty * rng.uniform(900.0, 2100.0, n_rows), 2)
    disc = rng.integers(0, 11, n_rows) / 100.0
    disc[rng.random(n_rows) < 0.02] = 0.12
    flag = rng.choice(np.array(["A", "N", "R"], dtype=object), n_rows)
    flag[rng.random(n_rows) < 0.01] = None
    return pa.table({
        "l_orderkey": pa.array(orderkey, pa.int64()),
        "l_linenumber": pa.array(linenumber, pa.int32()),
        "l_quantity": pa.array(qty, pa.float64()),
        "l_extendedprice": pa.array(price, pa.float64()),
        "l_discount": pa.array(disc, pa.float64()),
        "l_returnflag": pa.array(flag, pa.string()),
    })


def write_files(tables: list, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for i, t in enumerate(tables):
        pq.write_table(t, os.path.join(out_dir, f"part-{i:05d}.parquet"))


def generate(job: str, seed: int, size: int, out: str) -> None:
    """Write ``out/input/*.parquet``, the warm-up slice ``out/warm/``, the
    clean twin ``out/twin/`` (``flagship_pii``) and ``out/expected.*``;
    ``out/_DONE`` marks a complete cache entry."""
    import oracles

    if job == "dq_suite":
        t = lineitem(seed, size)
        files = [t.slice(off, LINEITEM_ROWS_PER_FILE)
                 for off in range(0, size, LINEITEM_ROWS_PER_FILE)]
        expected = oracles.dq_expected(t)
    else:
        files, twin = transcript_files(job, seed, size)
        full = pa.concat_tables(files)
        if twin is not None:
            write_files(twin, os.path.join(out, "twin"))
        if job == "conv_sft":
            expected = oracles.sft_expected(full, REPLICATE + 1)
        else:
            pq.write_table(oracles.flagship_expected(full, REPLICATE),
                           os.path.join(out, "expected.parquet"))
            expected = {"rows": len(full)}
    write_files(files, os.path.join(out, "input"))
    write_files([files[0].slice(0, WARM_ROWS)], os.path.join(out, "warm"))
    with open(os.path.join(out, "expected.json"), "w") as f:
        json.dump(expected, f)
    with open(os.path.join(out, "_DONE"), "w") as f:
        f.write("ok\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--job", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", type=int, required=True)
    ap.add_argument("--out", required=True)
    a = ap.parse_args()
    sys.path[:0] = [HERE, ROOT]
    generate(a.job, a.seed, a.size, a.out)


if __name__ == "__main__":
    main()
