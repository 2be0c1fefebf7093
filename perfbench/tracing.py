"""Outside-in tracing for the benchmark's traced run.

Spans are recorded by the benchmark around its calls into the engine's
public functions (name, start, end, parent, run id), kept in memory and
dumped as JSON when the run ends.  Counts are recorded at the same
boundaries.  Nothing here touches the engine itself.
"""

from __future__ import annotations

import contextlib
import json
import re
import time
from typing import Dict, List, Optional


class Tracer:
    """In-memory span and count recorder for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[dict] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        """Record a count at the current span boundary."""
        self.counts[name] = value
        if self._stack:
            self.spans[self._stack[-1]].setdefault("counts", {})[name] = value

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> Dict[int, float]:
        """Span duration minus the part of it its child spans cover."""
        child: Dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + (
                    s["end"] - s["start"])
        return {s["id"]: s["end"] - s["start"] - child.get(s["id"], 0.0)
                for s in self.spans}

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        self_t = self.self_times()
        spans = [dict(s, self_s=self_t[s["id"]]) for s in self.spans]
        with open(path, "w") as f:
            json.dump({"run": self.run_id, "spans": spans,
                       "counts": self.counts, **(extra or {})}, f, indent=1)


_OP_RE = re.compile(r"^Operator \d+ (.+?):")
_FIELDS = {
    "wall_s": re.compile(r"\* Remote wall time: .*? ([\d.]+)(us|ms|s) total"),
    "udf_s": re.compile(r"\* UDF time: .*? ([\d.]+)(us|ms|s) total"),
    "rows_out": re.compile(r"\* Output num rows per block: .*? (\d+) total"),
    "bytes_out": re.compile(r"\* Output size bytes per block: .*? (\d+) total"),
}
_SCALE = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def parse_dataset_stats(text: str) -> Dict[str, Dict[str, float]]:
    """Per-operator ``wall_s``/``udf_s``/``rows_out``/``bytes_out`` from
    the text of the public ``Dataset.stats()``."""
    ops: Dict[str, Dict[str, float]] = {}
    cur: Optional[Dict[str, float]] = None
    for line in text.splitlines():
        line = line.strip()
        m = _OP_RE.match(line)
        if m:
            cur = ops.setdefault(m.group(1), {k: 0.0 for k in _FIELDS})
            continue
        if cur is None:
            continue
        for key, rx in _FIELDS.items():
            m = rx.search(line)
            if m:
                val = float(m.group(1))
                if key.endswith("_s"):
                    val *= _SCALE[m.group(2)]
                cur[key] += val
    return ops
