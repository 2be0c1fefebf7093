"""The benchmark's own tests: a tiny-size pass of every workload with the
output checks on, plus the generator and oracle contracts.

    python3 -m pytest perfbench/test_perfbench.py -q

Run it with no other Ray session live; each workload pass starts and stops
its own local cluster.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pyarrow as pa
import pyarrow.compute as pc
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, ROOT]

import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402


def _per_layer_names():
    return set(run.benchmark_metrics(trace=True))


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_passes_its_checks(workload, trace):
    try:
        line, meta = run.measure(workload, seed=5, seconds=0.1, trace=trace,
                                 sizes=run.TINY_SIZES)
    finally:
        run.reap_children()
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == set(run.benchmark_metrics(trace))
    values = {k: v["value"] for k, v in line["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    assert meta["span_coverage"] > 0.9
    jobs = run.WORKLOADS[workload]
    if "flagship_pii" in jobs:
        assert values["stages.heuristics.scrub_changed_rows"] > 0
        assert values["pipelines.transcripts.score_spill_s"] > 0
    if "dq_suite" in jobs:
        assert values["runner.quantile_s"] > 0
    if "conv_sft" in jobs:
        assert values["pipelines.transcripts.sort_scaffold_s"] > 0


def test_every_layer_is_measured_by_some_workload():
    moved = set(run.LAYER_MOVES) - {"ray_data.*"}
    names = _per_layer_names()
    assert moved <= names
    assert {n for n in names if not n.startswith("ray_data.")} == moved


def test_documents_are_seeded_and_seed_invariant_in_size():
    a, b = gen.documents(1, 96), gen.documents(1, 96)
    c = gen.documents(2, 96)
    assert a.equals(b) and not a.equals(c)
    words = [pc.sum(pc.list_value_length(pc.utf8_split_whitespace(
        t.column("text")))).as_py() for t in (a, c)]
    assert words[0] == words[1]


def test_pii_twin_differs_only_by_injection():
    files, twin = gen.transcript_files("flagship_pii", 3, 64)
    assert len(files) == len(twin) == 1
    got, clean = files[0], twin[0]
    assert got.column("conv_id").equals(clean.column("conv_id"))
    changed = pc.sum(pc.cast(pc.not_equal(got.column("text"),
                                          clean.column("text")), pa.int64()))
    assert changed.as_py() > 0.2 * len(got)


def test_flagship_check_rejects_a_wrong_verdict():
    files, _ = gen.transcript_files("flagship_pii", 4, 16)
    full = pa.concat_tables(files)
    want = oracles.flagship_expected(full, gen.REPLICATE)
    assert oracles.check_flagship(want, want)
    keep = want.column("keep").to_pylist()
    keep[0] = not keep[0]
    bad = want.set_column(want.schema.get_field_index("keep"), "keep",
                          pa.array(keep, pa.bool_()))
    assert not oracles.check_flagship(bad, want)


def test_dq_check_tolerances():
    want = oracles.dq_expected(gen.lineitem(6, 5000))
    assert oracles.check_dq(dict(want), want)
    off = dict(want, mean=want["mean"] + 1e-3)
    assert not oracles.check_dq(off, want)
    approx = dict(want, approx_distinct=want["approx_distinct"] * 1.01)
    assert oracles.check_dq(approx, want)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.load(open(tmp_path / "BENCHMARK.json"))
    r = subprocess.run(spec["command"] + ["--workload", "sft_dq", "--seed", "1",
                                          "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True,
                       timeout=180)
    assert r.returncode != 0 and r.stdout.strip() == ""
