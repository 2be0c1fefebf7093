"""Structural guard: every engine ``map_batches`` stage is a stateless task.

An actor pool costs one worker spawn per Dataset execution, and a
``concurrency=`` argument keeps a stage from fusing with its neighbours.
So a stage class is passed to ``map_batches`` as an instance, never as the
class itself, and no engine call sizes or picks a compute strategy."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1] / "hooqu_ray"

_POOL_KWARGS = ("concurrency", "compute", "fn_constructor_args",
                "fn_constructor_kwargs")


def _class_names(paths):
    return {node.name for p in paths for node in ast.walk(ast.parse(p.read_text()))
            if isinstance(node, ast.ClassDef)}


def _pool_map_batches(path: pathlib.Path, class_names):
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "map_batches"):
            continue
        found += [(node.lineno, f"{kw.arg}=") for kw in node.keywords
                  if kw.arg in _POOL_KWARGS]
        udf = node.args[0] if node.args else next(
            (kw.value for kw in node.keywords if kw.arg == "fn"), None)
        name = (udf.id if isinstance(udf, ast.Name)
                else udf.attr if isinstance(udf, ast.Attribute) else None)
        if name in class_names:
            found.append((node.lineno, f"class {name}"))
    return found


def test_no_actor_pool_map_batches_in_engine():
    paths = sorted(ROOT.rglob("*.py"))
    classes = _class_names(paths)
    bad = {str(p.relative_to(ROOT)): hits for p in paths
           if (hits := _pool_map_batches(p, classes))}
    assert bad == {}


def test_structural_check_catches_an_actor_pool(tmp_path):
    src = ("class Stage:\n"
           "    def __call__(self, t):\n"
           "        return t\n"
           "def f(ds, mod):\n"
           "    ds.map_batches(Stage, batch_format='pyarrow')\n"
           "    ds.map_batches(Stage(), concurrency=(1, 8))\n"
           "    ds.map_batches(fn=mod.Stage, fn_constructor_kwargs={})\n"
           "    ds.map_batches(g, compute='actors')\n"
           "    return ds.map_batches(Stage(), batch_format='pyarrow')\n")
    p = tmp_path / "m.py"
    p.write_text(src)
    assert sorted(_pool_map_batches(p, _class_names([p]))) == [
        (5, "class Stage"), (6, "concurrency="), (7, "class Stage"),
        (7, "fn_constructor_kwargs="), (8, "compute=")]
