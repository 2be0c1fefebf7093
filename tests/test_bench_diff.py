"""``scripts/bench_diff.py`` on hand-made perfbench result files."""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))

import bench_diff  # noqa: E402


def _write(path, wall, rows, meta):
    metrics = {"wall_s": {"value": wall, "unit": "s"},
               "rows_per_s": {"value": rows, "unit": "1/s"}}
    line = {"correct": True, "attempted": 5, "failed": 0, "metrics": metrics}
    with open(path, "w") as f:
        if meta:  # .perfbench/results metadata
            json.dump({"workload": "sft_dq", "result": line}, f)
        else:  # saved stdout: log lines, then the result line
            f.write("iteration 1: 2.9 s\n" + json.dumps(line) + "\n")
    return str(path)


def test_ratios_wins_and_iqr(tmp_path, capsys):
    parent = [_write(tmp_path / f"p{i}", w, 100 / w, meta=i % 2)
              for i, w in enumerate([2.8, 2.9, 3.0, 3.1])]
    change = [_write(tmp_path / f"c{i}", w, 100 / w, meta=False)
              for i, w in enumerate([2.2, 2.1, 3.2, 2.0])]
    assert bench_diff.main(["--parent", *parent, "--change", *change]) == 0
    rows = {ln.split()[0]: ln.split() for ln in
            capsys.readouterr().out.splitlines()[1:]}
    # medians 2.95 → 2.15; the change wins 3 of 4 pairs in both directions
    assert rows["wall_s"][1:4] == ["2.95", "2.15", "0.729"]
    assert rows["wall_s"][-2:] == ["3/4", "yes"]
    assert rows["rows_per_s"][-2:] == ["3/4", "yes"]


def test_unpaired_runs_are_refused(tmp_path):
    import pytest

    p = _write(tmp_path / "p", 3.0, 1.0, meta=False)
    with pytest.raises(SystemExit):
        bench_diff.main(["--parent", p, p, "--change", p])
