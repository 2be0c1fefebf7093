"""hooqu_ray benchmark: seeded single-box workloads, one command.

Run from the root of a checkout::

    python3 perfbench/run.py --workload flagship_pii --seed 1 --seconds 10 --trace 0

A workload is one or more jobs run back to back as one iteration:

* ``flagship_pii``: ``transcripts.filter_and_scrub`` over transcripts with
  seeded PII and toxic words, so the Python scrub is on the clock;
* ``sft_dq``: ``transcripts.sft_prepare`` over transcripts with a few
  conversations long enough to span blocks, then a ``VerificationSuite``
  check over ``lineitem``-shaped rows.  Neither job runs a scorer kernel.

Each run generates its inputs from ``--seed`` (``gen.py``, a separate
process, cached under ``.perfbench/cache``), starts a local Ray cluster of
``RAY_CPUS`` logical CPUs with the flagship's scorer pool pinned to
``SCORER_POOL`` actors, and repeats the workload for ``--seconds`` seconds,
checking every iteration's output against an independent oracle
(``oracles.py``).  The last line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json``:
``wall_s``, the median iteration time; ``rows_per_s``, input rows over
that; ``setup_s``, imports plus the median of ``SETUP_CYCLES`` cold
starts (Ray start and a warm-up pass over a slice of the input); and
``peak_rss_mb``, the driver's peak resident memory through the first
timed iteration.  Times are net of hypervisor steal (``Stopwatch``); the
raw times go to the run metadata.

``--trace 1`` runs the workload with tracing off and on, times each layer
from outside (``tracing.py``) and reports the ``per_layer`` metrics.
Layers a workload does not exercise report 0.  Run metadata (machine,
versions, source digest, seed, every sample) goes to
``.perfbench/results/<workload>-s<seed>-t<trace>.json`` and the spans of a
traced run to ``.perfbench/results/<workload>-s<seed>-spans.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")

# The smallest cluster the flagship runs on: two logical CPUs (on any
# number of cores), one scorer actor, so one CPU stays free for the
# upstream read.
RAY_CPUS = 2
SCORER_POOL = 1
OBJECT_STORE_BYTES = 300 * 2**20
SETUP_CYCLES = 3  # setup_s is the median of this many cold starts

# Input size per job: base documents (each exploded into REPLICATE
# conversations) or lineitem rows.  On one core an iteration of either
# workload takes about 2.5-3.5 s, much of it fixed per-call cost (actor
# start, spill, exchanges), so a 20 s run holds six or more samples.
JOB_SIZES = {"flagship_pii": 128, "conv_sft": 128, "dq_suite": 200_000}
TINY_SIZES = {"flagship_pii": 32, "conv_sft": 32, "dq_suite": 20_000}
WORKLOADS = {
    "flagship_pii": ("flagship_pii",),
    "sft_dq": ("conv_sft", "dq_suite"),
}

# Which end-to-end metric, on which workload, each per-layer metric should
# move.  "-" marks a workload where it is predicted not to move.
LAYER_MOVES = {
    "sources.read_s": "wall_s on every workload (read floor)",
    "stages.heuristics.features_us_per_row": "wall_s on flagship_pii; - on sft_dq",
    "stages.heuristics.features_clean_us_per_row": "none: the same kernel on the flagship input without PII, the scrub-free baseline",
    "stages.models.scorer_us_per_row": "wall_s on flagship_pii; - on sft_dq",
    "pipelines.transcripts.policy_us_per_row": "wall_s on flagship_pii; - on sft_dq",
    "stages.heuristics.scrub_changed_rows": "wall_s on flagship_pii",
    "stages.models.scorer_init_s": "setup_s on flagship_pii",
    "pipelines.transcripts.score_spill_s": "wall_s on flagship_pii",
    "pipelines.transcripts.verdict_s": "wall_s on flagship_pii",
    "pipelines.transcripts.kernel_share": "wall_s on flagship_pii",
    "pipelines.transcripts.spill_bytes_per_row": "wall_s, peak_rss_mb on flagship_pii",
    "pipelines.transcripts.partials_rows_per_conv": "wall_s, peak_rss_mb on flagship_pii",
    "pipelines.transcripts.dropped_convs": "peak_rss_mb on flagship_pii",
    "runner.do_analysis_run_s": "wall_s on sft_dq; - on flagship_pii",
    "runner.scan_s": "wall_s on sft_dq",
    "runner.grouping_s": "wall_s on sft_dq",
    "runner.quantile_s": "wall_s on sft_dq",
    "verification.evaluate_s": "wall_s on sft_dq",
    "pipelines.transcripts.sft_prepare_s": "wall_s on sft_dq",
    "pipelines.transcripts.sft_examples_s": "wall_s on sft_dq",
    "pipelines.transcripts.boilerplate_s": "wall_s on sft_dq",
    "pipelines.transcripts.sort_scaffold_s": "wall_s on sft_dq",
    "functions.shuffle.tree_group_sum_s": "wall_s on sft_dq; - on flagship_pii",
    "pipelines.relational.grouped_count_distinct_s": "wall_s on sft_dq; - on flagship_pii",
    "ray_data.*": "wall_s of the workload whose datasets they parse",
    "unattributed_s": "none: the part of traced wall_s no span covers",
    "trace_overhead_frac": "none: traced over untraced wall_s, minus 1",
}

FLAGSHIP_COLUMNS = ["conv_id", "turn_idx", "text", "keep", "text_scrubbed"]


def log(*args) -> None:
    print(*args, file=sys.stderr, flush=True)


# -- run hygiene -------------------------------------------------------------

def _proc_table() -> Dict[int, tuple]:
    """pid -> (ppid, argv) of every visible live (not zombie) process."""
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            with open(f"/proc/{d}/cmdline", "rb") as f:
                argv = f.read().decode(errors="replace").split("\0")
        except (OSError, IndexError, ValueError):
            continue
        if fields[0] != "Z":
            out[int(d)] = (int(fields[1]), argv)
    return out


def _is_ray_or_pytest(argv: List[str]) -> bool:
    """A Ray daemon or worker, or a pytest run, judged by the program it
    runs (not by its arguments, which may merely mention one)."""
    names = [os.path.basename(a) for a in argv[:3]]
    return (names[0] in ("raylet", "gcs_server") or argv[0].startswith("ray::")
            or "pytest" in names[:2] or argv[1:3] == ["-m", "pytest"])


def conflicting_processes() -> List[str]:
    """Live Ray sessions or pytest runs, which skew every timing."""
    me = os.getpid()
    return [f"{pid}: {' '.join(argv)[:120]}"
            for pid, (_, argv) in _proc_table().items()
            if pid != me and _is_ray_or_pytest(argv)]


def descendants() -> List[int]:
    table = _proc_table()
    kids: Dict[int, List[int]] = {}
    for pid, (ppid, _) in table.items():
        kids.setdefault(ppid, []).append(pid)
    out, todo = [], [os.getpid()]
    while todo:
        for k in kids.get(todo.pop(), []):
            out.append(k)
            todo.append(k)
    return out


def _reap_zombies() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def adopt_orphans() -> None:
    """Make this process the reaper of orphans among its descendants
    (Linux ``PR_SET_CHILD_SUBREAPER``).  A Ray worker outlives its raylet
    by a moment; adopted, it stays in this run's process tree, so
    ``reap_children`` waits for it instead of leaving it to init."""
    import ctypes

    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _exit_on_signal(signum, frame) -> None:
    raise SystemExit(128 + signum)


def reap_children(timeout: float = 20.0) -> None:
    """Wait for every process this run started to end; kill stragglers."""
    deadline = time.monotonic() + timeout
    killed = False
    while True:
        _reap_zombies()
        live = descendants()
        if not live:
            return
        if time.monotonic() > deadline:
            if killed:
                log(f"processes still alive after kill: {live}")
                return
            for pid in live:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed, deadline = True, time.monotonic() + 10.0
        time.sleep(0.1)


def source_digest() -> str:
    """Digest of the engine sources (the checkout need not be a git repo)."""
    h = hashlib.blake2b(digest_size=10)
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "hooqu_ray"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as f:
                    h.update(name.encode() + f.read())
    return h.hexdigest()


def git_sha() -> Optional[str]:
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def run_metadata(workload: str, seed: int, sizes: Dict[str, int]) -> dict:
    import duckdb
    import numpy
    import polars
    import pyarrow
    import ray

    return {
        "workload": workload, "seed": seed, "sizes": sizes,
        "cpus_usable": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"), "ray_cpus": RAY_CPUS,
        "scorer_pool": SCORER_POOL, "python": platform.python_version(),
        "versions": {"ray": ray.__version__, "pyarrow": pyarrow.__version__,
                     "numpy": numpy.__version__, "polars": polars.__version__,
                     "duckdb": duckdb.__version__},
        "git_sha": git_sha(), "source_digest": source_digest(),
    }


# -- inputs ------------------------------------------------------------------

def ensure_inputs(job: str, seed: int, size: int) -> str:
    """Generate (or reuse) the input of one (job, seed, size)."""
    out = os.path.join(WORK, "cache", f"{job}-s{seed}-n{size}")
    if not os.path.exists(os.path.join(out, "_DONE")):
        shutil.rmtree(out, ignore_errors=True)
        subprocess.run([sys.executable, os.path.join(HERE, "gen.py"),
                        "--job", job, "--seed", str(seed),
                        "--size", str(size), "--out", out],
                       check=True, timeout=150, stdout=sys.stderr)
    return out


def _ray_temp_dir() -> Optional[str]:
    """A Ray session dir inside the checkout, when its socket paths fit the
    107-byte unix-socket limit (else Ray's default)."""
    path = os.path.join(WORK, "ray")
    return path if len(path) <= 40 else None


def start_ray() -> None:
    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=RAY_CPUS, include_dashboard=False,
             log_to_driver=False, object_store_memory=OBJECT_STORE_BYTES,
             _temp_dir=_ray_temp_dir(), configure_logging=False)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


def consume(ds):
    """Execute ``ds`` and return its rows as one Arrow table."""
    import pyarrow as pa
    import ray

    tables = ray.get(ds.to_arrow_refs())
    tables = [t for t in tables if t.num_columns]
    return pa.concat_tables(tables) if tables else pa.table({})


def _null_span(name: str):
    import contextlib

    return contextlib.nullcontext()


def benchmark_metrics(trace: bool) -> Dict[str, str]:
    """name -> unit of the metrics ``BENCHMARK.json`` asks this run for."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


# -- jobs ----------------------------------------------------------------------

class Job:
    """One job over its generated input.  ``iteration(span)`` runs it once,
    calling ``span(name)`` around each layer call that partitions it, and
    returns the output ``check`` verifies."""

    def __init__(self, cache: str, scratch: str):
        self.cache = cache
        self.input = os.path.join(cache, "input")
        self.scratch = scratch
        self.last_stats = ""
        with open(os.path.join(cache, "expected.json")) as f:
            self.expected = json.load(f)

    def files(self, sub: str = "input") -> List[str]:
        d = os.path.join(self.cache, sub)
        return sorted(os.path.join(d, f) for f in os.listdir(d))

    def rows(self) -> int:
        import pyarrow.parquet as pq

        return sum(pq.ParquetFile(f).metadata.num_rows for f in self.files())

    def warm_up(self) -> None:
        """A cold pass over a slice of the input: worker start, imports,
        scorer build."""
        self.iteration(_null_span, os.path.join(self.cache, "warm"))

    def cleanup(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def counts(self, out) -> Dict[str, float]:
        """Per-layer counts read from outside after a checked iteration."""
        return {}

    def layers(self, tracer) -> Dict[str, float]:
        """Traced run only: extra per-layer measurements of this job."""
        return {}


class Flagship(Job):
    def __init__(self, cache: str, scratch: str):
        super().__init__(cache, scratch)
        import pyarrow.parquet as pq

        from oracles import sorted_flagship

        self.expected_out = sorted_flagship(
            pq.read_table(os.path.join(cache, "expected.parquet")))

    def iteration(self, span, path=None):
        import ray.data as rd

        from hooqu_ray.pipelines import transcripts as tp

        with span("pipelines.transcripts.score_spill_s"):
            ds = tp.filter_and_scrub(rd.read_parquet(path or self.input),
                                     scorer_concurrency=SCORER_POOL,
                                     scratch_dir=self.scratch)
        with span("pipelines.transcripts.verdict_s"):
            out = consume(ds.select_columns(FLAGSHIP_COLUMNS))
        if path is None:
            self.last_stats = ds.stats()
        return out

    def check(self, out) -> bool:
        from oracles import check_flagship

        return check_flagship(out, self.expected_out)

    def counts(self, out) -> Dict[str, float]:
        """Spill and partials volume, read from the scratch dir."""
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        (run_dir,) = [os.path.join(self.scratch, d)
                      for d in os.listdir(self.scratch)]
        spill = sum(e.stat().st_size
                    for e in os.scandir(os.path.join(run_dir, "data")))
        partial_rows = sum(pq.ParquetFile(e.path).metadata.num_rows
                           for e in os.scandir(os.path.join(run_dir, "partials"))
                           if e.name.endswith(".parquet"))
        convs = pc.count_distinct(out.column("conv_id")).as_py()
        kept = out.filter(out.column("keep")).column("conv_id")
        kept_convs = pc.count_distinct(kept).as_py() if len(kept) else 0
        return {
            "pipelines.transcripts.spill_bytes_per_row": spill / max(len(out), 1),
            "pipelines.transcripts.partials_rows_per_conv":
                partial_rows / max(convs, 1),
            "pipelines.transcripts.dropped_convs": float(convs - kept_convs),
        }

    def layers(self, tracer) -> Dict[str, float]:
        m = kernel_pass(self.files(), tracer)
        clean = kernel_pass(self.files("twin"), tracer)
        m["stages.heuristics.features_clean_us_per_row"] = clean[
            "stages.heuristics.features_us_per_row"]
        m["pipelines.transcripts.kernel_share"] = m.pop("kernel_s") / statistics.median(
            tracer.durations("pipelines.transcripts.score_spill_s"))
        return m


class DQSuite(Job):
    KEYS = {"Completeness": "completeness", "Mean": "mean",
            "Minimum": "minimum", "StandardDeviation": "std",
            "Correlation": "correlation", "Compliance": "compliance",
            "ApproxCountDistinct": "approx_distinct",
            "Quantile": "quantile", "Uniqueness": "uniqueness"}

    def make_check(self):
        from hooqu_ray.checks import Check, CheckLevel

        return (Check(CheckLevel.ERROR, "lineitem integrity")
                .has_completeness("l_returnflag", lambda v: v > 0.9)
                .has_mean("l_quantity", lambda v: 20 < v < 30)
                .has_min("l_extendedprice", lambda v: v > 0)
                .has_standard_deviation("l_quantity", lambda v: v > 0)
                .has_correlation("l_quantity", "l_extendedprice",
                                 lambda v: v > 0.5)
                .satisfies("l_discount >= 0.0 and l_discount <= 0.1",
                           "discount_range", lambda v: v > 0.9)
                .has_approx_count_distinct("l_orderkey", lambda v: v > 0)
                .has_quantile("l_extendedprice", 0.5, lambda v: v > 0)
                .has_uniqueness(["l_orderkey", "l_linenumber"],
                                lambda v: v > 0.5))

    def iteration(self, span, path=None):
        import ray.data as rd

        from hooqu_ray.checks import CheckStatus
        from hooqu_ray.runner import do_analysis_run
        from hooqu_ray.verification import VerificationSuite

        check = self.make_check()
        with span("runner.do_analysis_run_s"):
            ctx = do_analysis_run(rd.read_parquet(path or self.input),
                                  check.required_analyzers())
        with span("verification.evaluate_s"):
            result = VerificationSuite().evaluate([check], ctx)
        metrics = {self.KEYS[type(a).__name__]: m.value.get()
                   for a, m in result.metrics.items()}
        return {"ok": result.status == CheckStatus.SUCCESS, "metrics": metrics}

    def check(self, out) -> bool:
        from oracles import check_dq

        return out["ok"] and check_dq(out["metrics"], self.expected)

    def layers(self, tracer) -> Dict[str, float]:
        """One analysis run per analyzer class: shared scan, grouping
        (bucketed exchange) and exact quantile (selection passes)."""
        import ray.data as rd

        from hooqu_ray.analyzers.base import (GroupingAnalyzer,
                                              ScanShareableAnalyzer)
        from hooqu_ray.analyzers.quantile import Quantile
        from hooqu_ray.runner import do_analysis_run

        analyzers = self.make_check().required_analyzers()
        m = {}
        for name, kind in (("runner.scan_s", ScanShareableAnalyzer),
                           ("runner.grouping_s", GroupingAnalyzer),
                           ("runner.quantile_s", Quantile)):
            group = [a for a in analyzers if isinstance(a, kind)]
            with tracer.span(name) as s:
                do_analysis_run(rd.read_parquet(self.input), group)
            tracer.count(name[:-2] + "_analyzers", len(group))
            m[name] = s["end"] - s["start"]
        return m


class ConvSFT(Job):
    def __init__(self, cache: str, scratch: str):
        super().__init__(cache, scratch)
        from gen import REPLICATE

        # replicate + 1: replication alone does not make a turn boilerplate
        self.min_convs = REPLICATE + 1

    def iteration(self, span, path=None):
        import ray.data as rd

        from hooqu_ray.pipelines import transcripts as tp

        with span("pipelines.transcripts.sft_prepare_s"):
            ds = tp.sft_prepare(rd.read_parquet(path or self.input),
                                boilerplate_min_convs=self.min_convs)
        with span("pipelines.transcripts.sft_examples_s"):
            out = consume(ds)
        if path is None:
            self.last_stats = ds.stats()
        return out

    def check(self, out) -> bool:
        from oracles import check_sft

        return check_sft(out, self.expected)

    def layers(self, tracer) -> Dict[str, float]:
        """The SFT DAG's stages one at a time, each over the whole input."""
        import pyarrow as pa
        import ray.data as rd

        from hooqu_ray.functions.shuffle import tree_group_sum
        from hooqu_ray.pipelines import transcripts as tp
        from hooqu_ray.pipelines.relational import grouped_count_distinct

        def read():
            return rd.read_parquet(self.input)

        ones = read().map_batches(
            lambda t: pa.table({"conv_id": t.column("conv_id"),
                                "n": pa.array([1] * len(t), pa.int64())}),
            batch_format="pyarrow")
        stages = (
            ("pipelines.transcripts.boilerplate_s",
             lambda: tp.drop_boilerplate_turns(read(), self.min_convs)),
            ("pipelines.transcripts.sort_scaffold_s",
             lambda: tp.truncate_conversations(read(), 96)),
            ("functions.shuffle.tree_group_sum_s",
             lambda: tree_group_sum(ones, ["conv_id"], ["n"])),
            ("pipelines.relational.grouped_count_distinct_s",
             lambda: grouped_count_distinct(read(), "text", "conv_id")),
        )
        m = {}
        for name, make in stages:
            with tracer.span(name) as s:
                n = len(consume(make()))
            tracer.count(name[:-2] + ".rows_out", n)
            m[name] = s["end"] - s["start"]
        return m


JOBS: Dict[str, Callable[[str, str], Job]] = {
    "flagship_pii": Flagship,
    "conv_sft": ConvSFT,
    "dq_suite": DQSuite,
}


class Workload:
    """The jobs of one workload, run back to back as one iteration."""

    def __init__(self, jobs: List[Job]):
        self.jobs = jobs

    def rows(self) -> int:
        return sum(j.rows() for j in self.jobs)

    def warm_up(self) -> None:
        for j in self.jobs:
            j.warm_up()

    def iteration(self, span) -> list:
        return [j.iteration(span) for j in self.jobs]

    def check(self, outs: list) -> bool:
        return all(j.check(o) for j, o in zip(self.jobs, outs))

    def cleanup(self) -> None:
        for j in self.jobs:
            j.cleanup()

    def counts(self, outs: list) -> Dict[str, float]:
        m = {}
        for j, o in zip(self.jobs, outs):
            m.update(j.counts(o))
        return m


# -- measurement ---------------------------------------------------------------

def _host_ticks() -> tuple:
    """(busy, stolen) clock ticks summed over the machine's CPUs, from the
    aggregate line of ``/proc/stat``; (0, 0) where there is none."""
    try:
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return v[0] + v[1] + v[2] + v[5] + v[6], v[7]


class Stopwatch:
    """Elapsed wall time, and the same net of hypervisor steal.

    On a shared virtual machine the host can take the CPUs away for
    seconds at a time (steal time) and slow a run by 2x.  ``net`` scales the wall time by the share of the CPUs' runnable time
    they actually ran, ``1 - steal / (busy + steal)`` over all CPUs during
    the interval.  Where nothing is stolen ``net`` is the wall time."""

    def __enter__(self) -> "Stopwatch":
        self._ticks = _host_ticks()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.wall = time.perf_counter() - self._t0
        busy, steal = (b - a for a, b in zip(self._ticks, _host_ticks()))
        self.steal_share = steal / (busy + steal) if busy + steal > 0 else 0.0
        self.net = self.wall * (1.0 - self.steal_share)
        return False


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_loop(wl: Workload, seconds: float, tracer=None) -> dict:
    """Repeat the workload until ``seconds`` of iteration time has passed;
    check every output (untimed).  The garbage collector runs between
    iterations, not inside them.  ``first_rss_mb`` is the driver's peak
    resident memory through the first timed iteration: the driver's memory
    grows with every further iteration, so a peak over the whole run would
    depend on how many iterations fit in it.  With a tracer each iteration is a span
    and the layer calls inside it are its children."""
    span = tracer.span if tracer else _null_span
    walls, nets, shares, covered, failed, counts = [], [], [], [], 0, {}
    while not walls or sum(walls) < seconds:
        gc.collect()
        gc.disable()
        with Stopwatch() as sw, span("iteration") as it:
            try:
                out = wl.iteration(span)
            except Exception as ex:  # noqa: BLE001 -- a failed iteration is a result
                log(f"iteration failed: {type(ex).__name__}: {ex}")
                out = None
        gc.enable()
        if not walls:
            first_rss_mb = peak_rss_mb()
        walls.append(sw.wall)
        nets.append(sw.net)
        shares.append(sw.steal_share)
        try:
            ok = out is not None and wl.check(out)
        except Exception as ex:  # noqa: BLE001
            log(f"check failed: {type(ex).__name__}: {ex}")
            ok = False
        failed += not ok
        log(f"iteration {len(walls)}: {sw.wall:.3f} s, "
            f"steal {sw.steal_share:.2f}, ok={ok}")
        if tracer:
            covered.append(sum(s["end"] - s["start"] for s in tracer.spans
                               if s["parent"] == it["id"]))
            if ok and not counts:
                counts = wl.counts(out)
        wl.cleanup()
    return {"walls": walls, "nets": nets, "steal_shares": shares,
            "failed": failed, "covered": covered, "counts": counts,
            "first_rss_mb": first_rss_mb}


def kernel_pass(files: List[str], tracer) -> Dict[str, float]:
    """Features, scorer and policy kernels in this process over the same
    blocks (the input files), with the scrub count."""
    import pyarrow.parquet as pq

    from hooqu_ray.pipelines import transcripts as tp
    from hooqu_ray.stages.heuristics import compute_features

    from oracles import scrub_changed_rows

    with tracer.span("stages.models.scorer_init_s") as init:
        scorer = tp.QualityScorer()
    policy = tp._PolicyStage()
    spent = {"features": 0.0, "scorer": 0.0, "policy": 0.0}
    rows = changed = 0
    with tracer.span("kernels"):
        for path in files:
            block = pq.read_table(path)
            t0 = time.perf_counter()
            feats = compute_features(block)
            t1 = time.perf_counter()
            scored = scorer(feats)
            t2 = time.perf_counter()
            policy(scored)
            t3 = time.perf_counter()
            spent["features"] += t1 - t0
            spent["scorer"] += t2 - t1
            spent["policy"] += t3 - t2
            rows += len(block)
            changed += scrub_changed_rows(feats)
    tracer.count("kernels.rows", rows)
    return {
        "stages.heuristics.features_us_per_row": 1e6 * spent["features"] / rows,
        "stages.models.scorer_us_per_row": 1e6 * spent["scorer"] / rows,
        "pipelines.transcripts.policy_us_per_row": 1e6 * spent["policy"] / rows,
        "stages.heuristics.scrub_changed_rows": float(changed),
        "stages.models.scorer_init_s": init["end"] - init["start"],
        "kernel_s": sum(spent.values()),
    }


def op_kind(name: str) -> str:
    if name.startswith("Read"):
        return "read"
    if any(k in name for k in ("Sort", "Aggregate", "Repartition", "Shuffle",
                               "Union", "Zip", "Join", "Limit")):
        return "exchange"
    return "map"


def ray_data_metrics(stats_texts: List[str]) -> Dict[str, float]:
    from tracing import parse_dataset_stats

    out = {}
    for text in stats_texts:
        for op, fields in parse_dataset_stats(text).items():
            for f, v in fields.items():
                key = f"ray_data.{op_kind(op)}.{f}"
                out[key] = out.get(key, 0.0) + v
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            sizes: Optional[Dict[str, int]] = None) -> tuple:
    """Run one benchmark; return (result line, metadata)."""
    jobs = WORKLOADS[workload]
    sizes = {j: (sizes or JOB_SIZES)[j] for j in jobs}
    units = benchmark_metrics(trace)
    t0 = time.perf_counter()
    caches = {j: ensure_inputs(j, seed, sizes[j]) for j in jobs}
    log(f"inputs ready in {time.perf_counter() - t0:.2f} s")

    with Stopwatch() as imports:
        import ray

        import hooqu_ray.pipelines.transcripts  # noqa: F401
        import hooqu_ray.verification  # noqa: F401

    meta = run_metadata(workload, seed, sizes)
    scratch = os.path.join(WORK, "scratch", f"{workload}-{os.getpid()}")
    wl = Workload([JOBS[j](caches[j], os.path.join(scratch, j)) for j in jobs])
    rows = wl.rows()
    setups = []
    try:
        for c in range(1 if trace else SETUP_CYCLES):
            if c:
                ray.shutdown()
                reap_children()  # each cold start begins with no old cluster
            with Stopwatch() as sw:
                start_ray()
                wl.warm_up()
            setups.append(sw)
            log(f"setup cycle {c}: {sw.wall:.2f} s, steal {sw.steal_share:.2f}")
            wl.cleanup()
        if trace:
            metrics, attempted, failed = traced(wl, seconds, meta)
        else:
            res = timed_loop(wl, seconds)
            metrics = {
                "wall_s": statistics.median(res["nets"]),
                "rows_per_s": statistics.median(rows / w for w in res["nets"]),
                "setup_s": imports.net + statistics.median(
                    sw.net for sw in setups),
                "peak_rss_mb": res["first_rss_mb"],
            }
            meta.update(walls=res["walls"], net_walls=res["nets"],
                        steal_shares=res["steal_shares"],
                        setups=[sw.wall for sw in setups],
                        net_setups=[sw.net for sw in setups],
                        import_s=imports.wall, peak_rss_end_mb=peak_rss_mb())
            attempted, failed = len(res["walls"]), res["failed"]
    finally:
        wl.cleanup()
        ray.shutdown()
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(metrics.get(k, 0.0)), "unit": u}
                        for k, u in units.items()}}
    meta.update(rows=rows, trace=int(trace), result=line)
    return line, meta


def traced(wl: Workload, seconds: float, meta: dict) -> tuple:
    """Untraced then traced iterations, then each layer on its own."""
    import ray.data as rd

    from tracing import Tracer

    tracer = Tracer(run_id=f"{meta['workload']}-s{meta['seed']}")
    plain = timed_loop(wl, seconds / 2)
    res = timed_loop(wl, seconds / 2, tracer)
    walls, failed = res["walls"], plain["failed"] + res["failed"]
    m: Dict[str, float] = dict(res["counts"])
    for name in {s["name"] for s in tracer.spans} - {"iteration"}:
        m[name] = statistics.median(tracer.durations(name))
    wall = statistics.median(walls)
    m["unattributed_s"] = wall - statistics.median(res["covered"])
    m["trace_overhead_frac"] = (statistics.median(res["nets"])
                                / statistics.median(plain["nets"]) - 1.0)

    stats = [j.last_stats for j in wl.jobs if j.last_stats]
    with tracer.span("sources.read_s") as read:
        for j in wl.jobs:
            ds = rd.read_parquet(j.input)
            consume(ds)
            stats.append(ds.stats())
    m["sources.read_s"] = read["end"] - read["start"]
    for j in wl.jobs:
        m.update(j.layers(tracer))
    m.update(ray_data_metrics(stats))
    meta.update(walls=walls, untraced_walls=plain["walls"],
                span_coverage=statistics.median(res["covered"]) / wall,
                counts=tracer.counts, layer_moves=LAYER_MOVES)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    tracer.dump(os.path.join(WORK, "results",
                             f"{meta['workload']}-s{meta['seed']}-spans.json"),
                extra={"wall_s": wall, "unattributed_s": m["unattributed_s"]})
    return m, len(walls) + len(plain["walls"]), failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    # a terminated run still shuts Ray down and waits for its processes
    for sig in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, _exit_on_signal)
    adopt_orphans()
    needed = ("hooqu_ray/__init__.py", "tests/reference_impl.py",
              "__ray_entry__.py")
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        log(f"not a hooqu_ray checkout (missing {', '.join(missing)})")
        return 2
    deadline = time.monotonic() + 20.0
    while conflicting_processes() and time.monotonic() < deadline:
        time.sleep(1.0)
    live = conflicting_processes()
    if live:
        log("refusing to run beside a live Ray session or pytest:\n  "
            + "\n  ".join(live))
        return 3
    # no Ray session is live, so earlier sessions' logs can go
    shutil.rmtree(os.path.join(WORK, "ray"), ignore_errors=True)
    sys.path[:0] = [HERE, ROOT]
    try:
        line, meta = measure(a.workload, a.seed, a.seconds, bool(a.trace))
    finally:
        reap_children()
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results",
                           f"{a.workload}-s{a.seed}-t{a.trace}.json"), "w") as f:
        json.dump(meta, f, indent=1)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
