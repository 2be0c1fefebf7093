"""Structural guard: every broadcast key set goes through
``functions.broadcast``.

A slim key set collected on the driver and probed per batch has one
primitive, ``BroadcastSet``: one collector (hash-range shards) and one probe
stage that ORs the per-shard hits.  Hand-copied lazy-``ray.get`` probe
classes drifted apart: chained per-shard semi-filters AND to the empty set,
and keyed stamps rebuilt a hash set of the whole shard on every batch.  So
the retired collectors and probes stay deleted, and no class nested in a
function fetches a broadcast with ``ray.get`` unless it ships a payload that
is not a key set (``ALLOWED``)."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

DELETED = {
    # collectors
    "sharded_value_refs", "_sharded_refs", "_collect_arrow",
    # membership probes
    "BroadcastIsInFilter", "_MembershipAny", "_KeepFilter", "_TextsSide",
    "_CountMatches",
    # keyed lookup stamps
    "_LoserProbe", "_GroupStamp", "_StampMembers", "_EmitPairs",
    "_StampGroup", "_StampMatch",
}

ALLOWED = {
    "similarity._Partial": "broadcasts a centroid matrix, not a key set",
    "joins._KeepMaybeMatching": "broadcasts a Bloom bitmap, not a key set",
}


def _sources():
    return sorted((ROOT / "hooqu_ray").rglob("*.py")) + [
        ROOT / "__ray_entry__.py"]


def _deleted_names(path: pathlib.Path):
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [(a.asname or a.name).split(".")[-1] for a in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        found += [(node.lineno, n) for n in names if n in DELETED]
    return found


def _calls_ray_get(cls: ast.ClassDef) -> bool:
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
               and n.func.attr == "get" and isinstance(n.func.value, ast.Name)
               and n.func.value.id == "ray" for n in ast.walk(cls))


def _nested_ray_get_classes(path: pathlib.Path):
    found = set()
    for fn in ast.walk(ast.parse(path.read_text())):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found |= {f"{path.stem}.{c.name}" for c in ast.walk(fn)
                      if isinstance(c, ast.ClassDef) and _calls_ray_get(c)}
    return found


def test_deleted_broadcast_helpers_stay_deleted():
    bad = {str(p.relative_to(ROOT)): hits for p in _sources()
           if (hits := _deleted_names(p))}
    assert bad == {}


def test_no_nested_probe_class_fetches_a_broadcast():
    found = set().union(*(_nested_ray_get_classes(p)
                          for p in sorted((ROOT / "hooqu_ray").rglob("*.py"))))
    assert found == set(ALLOWED)


def test_structural_checks_catch_a_hand_copied_probe(tmp_path):
    src = ("import ray\n"
           "from .util import sharded_value_refs\n"
           "def op(ds, refs):\n"
           "    class _Probe:\n"
           "        def __call__(self, t):\n"
           "            return ray.get(refs[0])\n"
           "    return util.BroadcastIsInFilter(refs)\n"
           "class _TopLevel:\n"
           "    def __call__(self, t):\n"
           "        return ray.get(t)\n")
    p = tmp_path / "m.py"
    p.write_text(src)
    assert _deleted_names(p) == [(2, "sharded_value_refs"),
                                 (7, "BroadcastIsInFilter")]
    assert _nested_ray_get_classes(p) == {"m._Probe"}
