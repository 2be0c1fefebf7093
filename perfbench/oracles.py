"""Oracles for the benchmark workloads, independent of the engine.

* flagship: the repository's single-process pandas + ``re`` reference
  (``tests/reference_impl.oracle_pipeline``), run on one replica;
* ``dq_suite``: DuckDB SQL, exact metrics to 6 decimals, the HLL estimate
  within its error bound;
* ``conv_sft``: DuckDB SQL of the composed SFT DAG, reduced to an
  order-independent digest.

The ``expected_*`` functions run once per generated input (in ``gen.py``);
the ``check_*`` functions run after every measured iteration.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os

import pyarrow as pa
import pyarrow.compute as pc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# HyperLogLog relative error allowed for ApproxCountDistinct (several
# standard errors at the engine's sketch precision)
HLL_REL_TOL = 0.05

DQ_ANALYZERS = (
    # (metric key, DuckDB expression over table li)
    ("completeness", "count(l_returnflag) * 1.0 / count(*)"),
    ("mean", "avg(l_quantity)"),
    ("minimum", "min(l_extendedprice)"),
    ("std", "stddev_pop(l_quantity)"),
    ("correlation", "corr(l_quantity, l_extendedprice)"),
    ("compliance", "avg(CASE WHEN l_discount >= 0.0 AND l_discount <= 0.1 "
                   "THEN 1.0 ELSE 0.0 END)"),
    ("approx_distinct", "count(DISTINCT l_orderkey)"),
)

_QUANTILE_SQL = """
WITH s AS (SELECT l_extendedprice AS v FROM li WHERE l_extendedprice IS NOT NULL),
     n AS (SELECT count(*) AS c FROM s),
     i AS (SELECT CAST(floor(0.5 * (c - 1)) AS BIGINT) AS k0,
                  0.5 * (c - 1) - floor(0.5 * (c - 1)) AS frac FROM n),
     kk AS (SELECT k0 + (CASE WHEN frac > 0.5 THEN 1
                              WHEN frac = 0.5 AND k0 % 2 = 1 THEN 1
                              ELSE 0 END) AS k FROM i),
     r AS (SELECT v, row_number() OVER (ORDER BY v) AS rn FROM s)
SELECT v FROM r, kk WHERE rn = k + 1
"""

_UNIQUENESS_SQL = """
WITH f AS (SELECT l_orderkey, l_linenumber, count(*) AS cnt FROM li
           GROUP BY l_orderkey, l_linenumber)
SELECT sum(CASE WHEN cnt = 1 THEN 1 ELSE 0 END) * 1.0 / sum(cnt) FROM f
"""

# sft_pipeline_transcripts from the contract's oracle SQL, reading the
# transcript table directly instead of deriving it from documents
_SFT_SQL = """
WITH turn AS (SELECT conv_id, CAST(turn_idx AS BIGINT) AS turn_idx, role, text
              FROM tr WHERE conv_id IS NOT NULL AND turn_idx IS NOT NULL),
hot AS (SELECT text FROM turn WHERE length(text) >= 10
        GROUP BY text HAVING count(DISTINCT conv_id) >= {min_convs}),
clean AS (SELECT * FROM turn WHERE text IS NULL OR text NOT IN (SELECT text FROM hot)),
ct AS (SELECT *, len(regexp_extract_all(COALESCE(text, ''), '\\S+')) AS ntok FROM clean),
rs AS (SELECT *, SUM(ntok) OVER (PARTITION BY conv_id ORDER BY turn_idx DESC) AS sfx
       FROM ct),
kept AS (SELECT conv_id, turn_idx, role, text, ntok FROM rs WHERE sfx <= 96),
rc AS (SELECT *, SUM(ntok) OVER (PARTITION BY conv_id ORDER BY turn_idx) AS c2
       FROM kept)
SELECT a.conv_id, a.turn_idx,
       COALESCE(string_agg(CASE WHEN b.turn_idx < a.turn_idx THEN b.text END,
                           chr(10) ORDER BY b.turn_idx), '') AS prompt,
       ANY_VALUE(a.text) AS target,
       CAST(COUNT(*) - 1 AS BIGINT) AS n_context_turns,
       CAST(SUM(b.ntok) AS BIGINT) AS n_tokens
FROM rc a JOIN rc b ON a.conv_id = b.conv_id
 AND b.turn_idx <= a.turn_idx AND a.c2 - b.c2 + b.ntok <= 48
WHERE a.role = 'assistant' GROUP BY a.conv_id, a.turn_idx
"""

SFT_COLUMNS = ("conv_id", "turn_idx", "prompt", "target", "n_context_turns",
               "n_tokens")


def _reference_impl():
    spec = importlib.util.spec_from_file_location(
        "reference_impl", os.path.join(ROOT, "tests", "reference_impl.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def flagship_expected(full: pa.Table, replicate: int) -> pa.Table:
    """Per-turn ``keep`` and ``text_scrubbed`` of every row of ``full``,
    sorted by ``(conv_id, turn_idx)``.  Replicas of a document differ only
    in the conv id suffix after ``conv-<8 digits>``, so the oracle runs on
    replica 0 (``1/replicate`` of the rows) and is joined back on
    ``(document conv id, turn_idx)``."""
    base_conv = pc.utf8_slice_codeunits(full.column("conv_id"), 0, 13)
    rep0 = full.filter(pc.equal(pc.utf8_length(full.column("conv_id")), 13))
    if len(rep0) * replicate != len(full):
        raise ValueError("input is not replicate-many copies of replica 0")
    out = _reference_impl().oracle_pipeline(rep0.to_pandas())
    verdicts = pa.table({
        "base": pa.array(out["conv_id"], pa.string()),
        "turn_idx": pa.array(out["turn_idx"], pa.int32()),
        "keep": pa.array(out["keep"].astype(bool), pa.bool_()),
        "text_scrubbed": pa.array(out["text_scrubbed"], pa.string()),
    })
    keys = pa.table({"conv_id": full.column("conv_id"), "base": base_conv,
                     "turn_idx": full.column("turn_idx")})
    return sorted_flagship(keys.join(verdicts, ["base", "turn_idx"]))


def sorted_flagship(t: pa.Table) -> pa.Table:
    t = t.select(["conv_id", "turn_idx", "keep", "text_scrubbed"])
    return t.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")]
                     ).combine_chunks()


def check_flagship(out: pa.Table, expected_sorted: pa.Table) -> bool:
    """Exact ``keep`` and ``text_scrubbed`` per ``(conv_id, turn_idx)``."""
    got = sorted_flagship(out)
    got = got.cast(expected_sorted.schema)
    return got.equals(expected_sorted)


def dq_expected(t: pa.Table) -> dict:
    import duckdb

    con = duckdb.connect()
    con.register("li", t)
    exprs = ", ".join(e for _, e in DQ_ANALYZERS)
    row = con.execute(f"SELECT {exprs} FROM li").fetchone()
    out = {k: float(v) for (k, _), v in zip(DQ_ANALYZERS, row)}
    out["quantile"] = float(con.execute(_QUANTILE_SQL).fetchone()[0])
    out["uniqueness"] = float(con.execute(_UNIQUENESS_SQL).fetchone()[0])
    con.close()
    return out


def check_dq(metrics: dict, expected: dict) -> bool:
    """Exact metrics equal to 6 decimals; the HLL estimate within
    :data:`HLL_REL_TOL` of the exact distinct count."""
    if set(metrics) != set(expected):
        return False
    for k, want in expected.items():
        got = metrics[k]
        if k == "approx_distinct":
            if abs(got - want) > HLL_REL_TOL * want:
                return False
        elif round(got, 6) != round(want, 6):
            return False
    return True


def digest(t: pa.Table) -> dict:
    """Order-independent digest of the SFT example rows: row count plus
    the sum (mod 2^64) of a 64-bit hash per canonicalised row."""
    cols = [t.column(c).to_pylist() for c in SFT_COLUMNS]
    acc = 0
    for row in zip(*cols):
        key = "\x1f".join("" if v is None else str(v) for v in row)
        acc += int.from_bytes(
            hashlib.blake2b(key.encode(), digest_size=8).digest(), "little")
    return {"rows": len(t), "sum": acc % (1 << 64)}


def sft_expected(transcripts: pa.Table, min_convs: int) -> dict:
    import duckdb

    con = duckdb.connect()
    con.register("tr", transcripts)
    out = con.execute(_SFT_SQL.format(min_convs=min_convs)).arrow()
    con.close()
    return digest(out)


def check_sft(out: pa.Table, expected: dict) -> bool:
    return digest(out) == expected


def scrub_changed_rows(t: pa.Table) -> int:
    """Rows whose scrubbed text differs from the input text."""
    ne = pc.not_equal(t.column("text_scrubbed"), t.column("text"))
    return int(pc.sum(pc.cast(pc.fill_null(ne, False), pa.int64())).as_py() or 0)
