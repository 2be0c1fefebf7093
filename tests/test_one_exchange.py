"""Structural guards: ``functions/shuffle.py`` is the one place in the
engine that runs Ray core tasks, and ``shuffle.hash_exchange`` is the one
keyed exchange.

Every keyed exchange goes through ``shuffle.hash_exchange``; a second
hand-built task graph elsewhere would be a second exchange to keep
correct (null keys, empty buckets, typed-empty results, ref release).
So ``ray.remote`` — as an attribute, a decorator or an imported name —
appears in ``hooqu_ray/`` only in that module, and Ray Data's
``groupby(...).map_groups`` (a range sort of the key plus a Python call
per group) appears nowhere.  Nor does a Ray Data ``sort``, in
``hooqu_ray/`` or ``__ray_entry__.py``: ordered steps run on
``shuffle.range_exchange``, top-n steps on ``shuffle.top_n`` per block
and once more on the driver.  ``shuffle.py`` itself calls no Ray Data
``repartition``, ``map_batches``, ``sort`` or ``groupby``: its folds run
on the exchange's tasks, so a second fold route (a coalesce tree) cannot
grow back there.  Nor do ``functions/sorted_scan.py``,
``pipelines/sessions.py`` and ``pipelines/asof.py`` call ``map_batches``:
their kernels run in the exchanges' folds, each range with its halo, so
the post-exchange block passes and their boundary repair cannot grow
back.

Likewise every ``\\S+`` token count runs on the one byte-level kernel,
``functions/strings.whitespace_token_counts``: no engine module counts
``TOKEN_PATTERN`` with ``count_substring_regex``."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1] / "hooqu_ray"
OWNER = "functions/shuffle.py"


def _remote_uses(path: pathlib.Path):
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and node.attr == "remote"
                and isinstance(node.value, ast.Name)
                and node.value.id == "ray"):
            found.append((node.lineno, "ray.remote"))
        elif (isinstance(node, ast.ImportFrom) and node.module == "ray"
                and any(a.name == "remote" for a in node.names)):
            found.append((node.lineno, "from ray import remote"))
    return sorted(found)


def _scan(root: pathlib.Path):
    return {rel: hits for p in sorted(root.rglob("*.py"))
            if (rel := p.relative_to(root).as_posix()) != OWNER
            and (hits := _remote_uses(p))}


def test_ray_remote_only_in_shuffle():
    assert _scan(ROOT) == {}
    assert _remote_uses(ROOT / OWNER), "the exchange's tasks live here"


def test_structural_check_catches_planted_remote(tmp_path):
    (tmp_path / "functions").mkdir()
    (tmp_path / "functions" / "shuffle.py").write_text(
        "import ray\nsplit = ray.remote(lambda t: t)\n")
    (tmp_path / "m.py").write_text(
        "import ray\n"
        "from ray import remote\n"
        "@ray.remote\n"
        "def task(t):\n"
        "    return t\n"
        "def run(refs):\n"
        "    f = ray.remote(num_cpus=1)(task)\n"
        "    return [task.remote(r) for r in refs]\n")
    assert _scan(tmp_path) == {"m.py": [
        (2, "from ray import remote"), (3, "ray.remote"), (7, "ray.remote")]}


def _map_groups_uses(path: pathlib.Path):
    return sorted(node.lineno for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Attribute)
                  and node.attr == "map_groups")


def test_no_map_groups_in_engine():
    assert {rel: hits for p in sorted(ROOT.rglob("*.py"))
            if (hits := _map_groups_uses(p))
            and (rel := p.relative_to(ROOT).as_posix())} == {}


def test_structural_check_catches_planted_map_groups(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("def f(ds, g):\n"
                 "    # map_groups in a comment is fine\n"
                 "    out = ds.groupby('k').map_groups(g)\n"
                 "    fn = ds.groupby(['a', 'b']).map_groups\n"
                 "    return out, fn\n")
    assert _map_groups_uses(p) == [3, 4]


def _dataset_sort_calls(path: pathlib.Path):
    """Lines of every ``.sort(...)`` method call except numpy's
    (``np.sort``/``numpy.sort``): the engine holds no Python ``list.sort``,
    so such a call is a Ray Data sort.  Arrow's ``sort_by`` and
    ``sort_indices`` are other names."""
    return sorted(node.lineno for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "sort"
                  and not (isinstance(node.func.value, ast.Name)
                           and node.func.value.id in ("np", "numpy")))


def test_no_dataset_sort_in_engine():
    files = [*sorted(ROOT.rglob("*.py")), ROOT.parent / "__ray_entry__.py"]
    assert {p.name: hits for p in files if (hits := _dataset_sort_calls(p))} \
        == {}


def test_structural_check_catches_planted_sort(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("import numpy as np\n"
                 "def f(ds, t, a):\n"
                 "    # ds.sort('k') in a comment is fine\n"
                 "    top = ds.sort(['v', 'id'], descending=[True, False])\n"
                 "    out = ds.map_batches(g).sort('k').materialize()\n"
                 "    return top, out, np.sort(a), t.sort_by('k'), \\\n"
                 "        ds.sort(key='k')\n")
    assert _dataset_sort_calls(p) == [4, 5, 7]


_DATASET_OPS = {"repartition", "map_batches", "sort", "groupby"}


def _dataset_op_calls(path: pathlib.Path):
    """``(line, name)`` of every call of a Ray Data ``repartition``,
    ``map_batches``, ``sort`` or ``groupby`` method."""
    return sorted((node.lineno, node.func.attr)
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _DATASET_OPS)


def test_shuffle_runs_no_dataset_fold_route():
    assert _dataset_op_calls(ROOT / OWNER) == []


def test_structural_check_catches_planted_dataset_ops(tmp_path):
    p = tmp_path / "shuffle.py"
    p.write_text("def fold(ds, combine):\n"
                 "    # ds.repartition(2) in a comment is fine\n"
                 "    ds = ds.repartition(2).map_batches(combine)\n"
                 "    out = ds.sort('k').groupby('k').count()\n"
                 "    return out, ds.map_batches\n")
    assert _dataset_op_calls(p) == [
        (3, "map_batches"), (3, "repartition"), (4, "groupby"), (4, "sort")]


# the sorted scan and its range-exchange callers with no own exchange code
NO_MAPS = ("functions/sorted_scan.py", "pipelines/sessions.py",
           "pipelines/asof.py")


def _maps_after_exchange(root: pathlib.Path):
    """Lines of every ``map_batches`` call in the ``NO_MAPS`` files under
    ``root`` that exist."""
    return {rel: hits for rel in NO_MAPS if (root / rel).exists()
            and (hits := [line for line, name in
                          _dataset_op_calls(root / rel)
                          if name == "map_batches"])}


def test_no_map_batches_after_the_exchange():
    assert _maps_after_exchange(ROOT) == {}


def test_structural_check_catches_planted_map_batches(tmp_path):
    (tmp_path / "pipelines").mkdir()
    (tmp_path / "pipelines" / "sessions.py").write_text(
        "def scan(ds, block):\n"
        "    # ds.map_batches(block) in a comment is fine\n"
        "    pend = ds.map_batches(lambda t: block(t, 'pend'))\n"
        "    return pend, ds.map_batches\n")
    assert _maps_after_exchange(tmp_path) == {"pipelines/sessions.py": [3]}


def _token_regex_counts(path: pathlib.Path):
    """Lines that count ``\\S+`` tokens with a regex: a
    ``count_substring_regex`` call whose pattern is ``TOKEN_PATTERN`` or
    the literal ``\\S+``.  The engine counts them with
    ``strings.whitespace_token_counts``."""
    def is_token_pattern(node):
        return ((isinstance(node, ast.Name) and node.id == "TOKEN_PATTERN")
                or (isinstance(node, ast.Attribute)
                    and node.attr == "TOKEN_PATTERN")
                or (isinstance(node, ast.Constant) and node.value == r"\S+"))

    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")
        pats = node.args[1:2] + [k.value for k in node.keywords
                                 if k.arg == "pattern"]
        if name == "count_substring_regex" and any(map(is_token_pattern, pats)):
            found.append(node.lineno)
    return sorted(found)


def test_no_token_regex_counting_in_engine():
    assert {rel: hits for p in sorted(ROOT.rglob("*.py"))
            if (hits := _token_regex_counts(p))
            and (rel := p.relative_to(ROOT).as_posix())} == {}


def test_structural_check_catches_planted_token_regex(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("import pyarrow.compute as pc\n"
                 "from .textstats import TOKEN_PATTERN, textstats\n"
                 "def f(text):\n"
                 "    a = pc.count_substring_regex(text, pattern=TOKEN_PATTERN)\n"
                 "    b = pc.count_substring_regex(text, r'\\S+')\n"
                 "    c = count_substring_regex(text, textstats.TOKEN_PATTERN)\n"
                 "    d = pc.count_substring_regex(text, pattern=r'\\s+')\n"
                 "    return a, b, c, d\n")
    assert _token_regex_counts(p) == [4, 5, 6]
