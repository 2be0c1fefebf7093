"""Compare perfbench runs of a parent and a change, metric by metric.

Each input file is one ``perfbench/run.py`` run: either its saved stdout
(the last line is the result JSON) or its
``.perfbench/results/<workload>-s<seed>-t<trace>.json`` metadata.  Runs pair
up by position: the i-th ``--parent`` file with the i-th ``--change`` file,
so interleave the runs (parent, change, parent, ...) and pass them in run
order.  Usage::

    python scripts/bench_diff.py --parent p1.out p2.out ... \\
        --change c1.out c2.out ...

For every metric present in both sides it prints the parent and change
medians, their ratio, the parent's quartiles, how many pairs the change
wins (by the metric's ``better`` direction in ``BENCHMARK.json``; lower
when unlisted) and whether the medians differ by more than the parent's
interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_metrics(path: str) -> Dict[str, float]:
    """``{metric: value}`` of one run's stdout or metadata file."""
    with open(path) as f:
        text = f.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        lines = [ln for ln in text.splitlines() if ln.strip()]
        doc = json.loads(lines[-1])
    metrics = doc.get("result", doc)["metrics"]
    return {k: float(v["value"]) for k, v in metrics.items()}


def directions() -> Dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["better"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def quartiles(xs: List[float]):
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    a = ap.parse_args(argv)
    if len(a.parent) != len(a.change):
        ap.error("--parent and --change need the same number of runs")
    parent = [load_metrics(p) for p in a.parent]
    change = [load_metrics(p) for p in a.change]
    better = directions()
    names = [n for n in parent[0] if all(n in r for r in parent + change)]
    print(f"{'metric':<48} {'parent':>10} {'change':>10} {'ratio':>7} "
          f"{'parent q1..q3':>21} {'wins':>6}  gain > IQR")
    for name in names:
        p = [r[name] for r in parent]
        c = [r[name] for r in change]
        pm, cm = statistics.median(p), statistics.median(c)
        q1, q3 = quartiles(p)
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        wins = sum(sign * (y - x) > 0 for x, y in zip(p, c))
        ratio = cm / pm if pm else float("nan")
        beyond = sign * (cm - pm) > q3 - q1
        print(f"{name:<48} {pm:>10.4g} {cm:>10.4g} {ratio:>7.3f} "
              f"{q1:>10.4g}..{q3:<10.4g} {wins:>3}/{len(p):<2}  "
              f"{'yes' if beyond else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
