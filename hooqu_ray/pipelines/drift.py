"""Distribution drift between two corpus snapshots (PSI report).

Extends the reference's scalar anomaly detection (``state/anomaly.py``
watches ONE metric over time — reference surface at
/root/reference/hooqu/analyzers/runners/analysis_runner.py plans only
scalar metric repositories) to WHOLE DISTRIBUTIONS: the population
stability index per equal-width bucket of a reference snapshot's value
range — the standard feature-drift gate in front of a training run.

Scale shape: the reference snapshot is scanned once for (min, max)
(shared-scan analyzers), the breakpoints are a k-float broadcast, and each
side then reduces block→bucket-counts via one vectorized ``np.bincount``
combiner before a bucket-cardinality ``tree_group_sum`` — the values
themselves never shuffle, and both sides stream.  Out-of-range values in
the comparison snapshot clamp into the edge buckets (LEAST/GREATEST in the
SQL oracle).  Zero proportions substitute ``eps`` inside the log (the
conventional PSI guard), mirrored exactly in the oracle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _bucket_counts(ds, col: str, lo: float, width: float, k: int):
    """Per-side histogram: block combiner (clip + bincount) then one
    k-row ``tree_group_sum`` — returns a length-k int64 numpy array."""
    from ..functions.shuffle import tree_group_sum
    from ..util import collect_arrow

    def block_counts(t: pa.Table) -> pa.Table:
        v = t.column(col)
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        v = pc.cast(v.drop_null(), pa.float64()).to_numpy(zero_copy_only=False)
        codes = np.clip(
            np.floor((v - lo) / width).astype(np.int64), 0, k - 1
        )
        counts = np.bincount(codes, minlength=k)
        nz = np.flatnonzero(counts)
        return pa.table(
            {
                "bucket": pa.array(nz, pa.int64()),
                "n": pa.array(counts[nz], pa.int64()),
            }
        )

    tbl = collect_arrow(tree_group_sum(
        ds.map_batches(block_counts, batch_format="pyarrow"), ["bucket"],
        ["n"], drop_null_keys=True))
    out = np.zeros(k, dtype=np.int64)
    if tbl is not None:
        out[tbl.column("bucket").to_numpy()] = tbl.column("n").to_numpy()
    return out


def drift_report(ds_ref, ds_new, col: str, n_buckets: int = 10,
                 eps: float = 1e-6):
    """PSI drift of ``col`` between a reference and a new snapshot.

    Buckets are ``n_buckets`` equal-width intervals over the REFERENCE
    snapshot's [min, max] (new-snapshot values outside it clamp to the
    edge buckets).  Returns one Arrow table row per bucket:
    ``bucket, lo, hi, n_ref, n_new, p_ref, p_new, psi`` — total PSI is
    ``sum(psi)``; the conventional gates are 0.1 (drift warning) and 0.25
    (retrain/investigate).  Proportions that are exactly 0 enter the log
    as ``eps``.  Raises on an empty or constant reference column (no
    range to bucket)."""
    from ..analyzers.scan import Maximum, Minimum
    from ..runner import do_analysis_run

    mn, mx = Minimum(col), Maximum(col)
    ctx = do_analysis_run(ds_ref, [mn, mx])
    lo = ctx.metric_map[mn].value.get()
    hi = ctx.metric_map[mx].value.get()
    if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
        raise ValueError(
            f"drift_report: reference column {col!r} has no bucketable "
            f"range (min={lo}, max={hi})"
        )
    width = (hi - lo) / n_buckets
    n_ref = _bucket_counts(ds_ref, col, lo, width, n_buckets)
    n_new = _bucket_counts(ds_new, col, lo, width, n_buckets)
    tot_ref, tot_new = int(n_ref.sum()), int(n_new.sum())
    p_ref = n_ref / tot_ref if tot_ref else np.zeros(n_buckets)
    p_new = n_new / tot_new if tot_new else np.zeros(n_buckets)
    pr = np.where(p_ref == 0.0, eps, p_ref)
    pn = np.where(p_new == 0.0, eps, p_new)
    psi = (pr - pn) * np.log(pr / pn)
    edges = lo + width * np.arange(n_buckets + 1)
    return pa.table(
        {
            "bucket": pa.array(np.arange(n_buckets), pa.int64()),
            "lo": pa.array(edges[:-1], pa.float64()),
            "hi": pa.array(edges[1:], pa.float64()),
            "n_ref": pa.array(n_ref, pa.int64()),
            "n_new": pa.array(n_new, pa.int64()),
            "p_ref": pa.array(p_ref, pa.float64()),
            "p_new": pa.array(p_new, pa.float64()),
            "psi": pa.array(psi, pa.float64()),
        }
    )
