"""Structural guard: every adaptive size arm chooses itself.

A driver-memory gate or shard size is a module constant read on the driver
at call time (tests force an arm by monkeypatching it), never a parameter:
with one value in use, each parameter would only double the configurations
to cover.  An exchange's bucket count is no parameter either:
``shuffle.hash_exchange`` sizes it from the cluster and the input.  And every loop over ``stable_hash64`` key-range shards is
``functions.broadcast.hash_shards``, the one place a ``util.ShardFilter``
is built."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1] / "hooqu_ray"

SIZE_PARAMS = frozenset({
    "rows_per_shard", "direct_max", "num_buckets", "rows_per_bucket",
    "max_fold_rows", "fanin", "driver_max_rows", "winner_rows_per_shard",
    "driver_bands_max", "surv_rows_per_shard", "pairs_per_shard",
    "new_rows_per_shard", "driver_hot_grams_max", "driver_max_groups",
    "broadcast_max_keys", "n_buckets"})
# hash_shards takes the shard size each caller reads from its constant.
SIZE_PARAM_OWNERS = {("functions/broadcast.py", "hash_shards")}
# Same name, not a bucket count of an exchange: a histogram width
# (quantile_buckets, drift_report) and a skew threshold (detect_hot_keys).
NOT_SIZE_PARAMS = {
    ("pipelines/relational.py", "quantile_buckets", "n_buckets"),
    ("pipelines/drift.py", "drift_report", "n_buckets"),
    ("functions/joins.py", "detect_hot_keys", "n_buckets")}
SHARD_FILTER_OWNERS = {("functions/broadcast.py", "hash_shards")}


def _public_functions(tree):
    """(qualified name, node) of module-level public functions and the
    public methods of public module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item


def _size_params(path: pathlib.Path, rel: str):
    found = []
    for name, fn in _public_functions(ast.parse(path.read_text())):
        if (rel, name) in SIZE_PARAM_OWNERS:
            continue
        a = fn.args
        found += [(fn.lineno, f"{name}({arg.arg}=)")
                  for arg in a.posonlyargs + a.args + a.kwonlyargs
                  if arg.arg in SIZE_PARAMS
                  and (rel, name, arg.arg) not in NOT_SIZE_PARAMS]
    return found


def _shard_filters(path: pathlib.Path, rel: str):
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)
            if isinstance(child, ast.Call):
                f = child.func
                name = (f.id if isinstance(f, ast.Name)
                        else f.attr if isinstance(f, ast.Attribute) else None)
                if (name == "ShardFilter"
                        and (rel, owner) not in SHARD_FILTER_OWNERS):
                    found.append((child.lineno, f"ShardFilter in {owner}"))
            visit(child, inner)

    visit(ast.parse(path.read_text()), None)
    return found


def _scan(root: pathlib.Path, check):
    hits = {}
    for p in sorted(root.rglob("*.py")):
        rel = p.relative_to(root).as_posix()
        if found := check(p, rel):
            hits[rel] = found
    return hits


def test_no_public_size_parameters():
    assert _scan(ROOT, _size_params) == {}


# The exchange bucket counts the keyed ops once took; the check above must
# flag each of them if it came back.
REMOVED_BUCKET_KNOBS = [
    ("functions/joins.py", "hash_join"),
    ("pipelines/cluster.py", "connected_components"),
    ("pipelines/cluster.py", "dedup_keep_best"),
    ("pipelines/cluster.py", "split_by_cluster"),
    ("pipelines/dedup.py", "snapshot_diff"),
    ("pipelines/transcripts.py", "conversation_diff"),
    ("pipelines/transcripts.py", "conversation_diff_against_index"),
    ("pipelines/transcripts.py", "turn_diff")]


@pytest.mark.parametrize("rel, name", REMOVED_BUCKET_KNOBS)
def test_removed_bucket_knob_would_be_flagged(tmp_path, rel, name):
    p = tmp_path / "m.py"
    p.write_text(f"def {name}(ds, key, *, n_buckets=64):\n    return ds\n")
    assert _size_params(p, rel) == [(1, f"{name}(n_buckets=)")]


def test_histogram_and_skew_widths_are_not_bucket_knobs(tmp_path):
    for rel, name, _ in sorted(NOT_SIZE_PARAMS):
        p = tmp_path / "m.py"
        p.write_text(f"def {name}(ds, col, n_buckets=10):\n    return ds\n")
        assert _size_params(p, rel) == []


def test_shard_filter_built_only_by_hash_shards():
    assert _scan(ROOT, _shard_filters) == {}


def test_structural_checks_catch_planted_violations(tmp_path):
    src = ("def op(ds, key, rows_per_shard=4):\n"
           "    return ds\n"
           "def _helper(ds, surv_rows_per_shard):\n"
           "    return util.ShardFilter('k', 2, 0)\n"
           "class Fold:\n"
           "    def run(self, ds, *, max_fold_rows=8, fanin=2):\n"
           "        return ds\n"
           "    def _inner(self, fanin):\n"
           "        return fanin\n"
           "def hash_shards(ds, key, n_rows, rows_per_shard):\n"
           "    return ShardFilter(key, n_rows, 0)\n")
    p = tmp_path / "m.py"
    p.write_text(src)
    assert _size_params(p, "m.py") == [
        (1, "op(rows_per_shard=)"), (6, "Fold.run(max_fold_rows=)"),
        (6, "Fold.run(fanin=)"), (10, "hash_shards(rows_per_shard=)")]
    assert _shard_filters(p, "m.py") == [
        (4, "ShardFilter in _helper"), (11, "ShardFilter in hash_shards")]
    # the one owner is exempt from both checks
    assert _size_params(p, "functions/broadcast.py")[-1] == (
        6, "Fold.run(fanin=)")
    assert _shard_filters(p, "functions/broadcast.py") == [
        (4, "ShardFilter in _helper")]
