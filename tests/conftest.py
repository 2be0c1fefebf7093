"""Shared fixtures: reference golden micro-frames
(semantics from /root/reference/hooqu/tests/fixtures.py:9-110) and a
session-scoped Ray session for the distributed-path tests."""

import pandas as pd
import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            log_to_driver=False,
        )
    yield ray
    ray.shutdown()


@pytest.fixture
def df_missing():
    rows = [
        (1, "a", "f"), (2, "b", "d"), (3, None, "f"), (4, "a", None),
        (5, "a", "f"), (6, None, "d"), (7, None, "d"), (8, "b", None),
        (9, "a", "f"), (10, None, None), (11, None, "f"), (12, None, "d"),
    ]
    return pd.DataFrame(rows, columns=["item", "att1", "att2"])


@pytest.fixture
def df_full():
    rows = [(1, "a", "c"), (2, "a", "c"), (3, "a", "c"), (4, "b", "d")]
    return pd.DataFrame(rows, columns=["item", "att1", "att2"])


@pytest.fixture
def df_with_numeric_values():
    rows = [
        (1, 1, 0, 0), (2, 2, 0, 0), (3, 3, 0, 0),
        (4, 4, 5, 4), (5, 5, 6, 6), (6, 6, 7, 7),
    ]
    return pd.DataFrame(rows, columns=("item", "att1", "att2", "att3"))


@pytest.fixture
def df_comp_incomp():
    rows = [
        (1, "a", "f"), (2, "b", "d"), (3, "a", None),
        (4, "a", "f"), (5, "b", None), (6, "a", "f"),
    ]
    return pd.DataFrame(rows, columns=("item", "att1", "att2"))


@pytest.fixture
def df_with_unique_columns():
    rows = [
        (1, 0, 3, 1, 5, 0),
        (2, 0, 3, 2, 6, 0),
        (3, 0, 3, None, 7, 0),
        (4, 5, None, 3, 0, 4),
        (5, 6, None, 4, 0, 5),
        (6, 7, None, 5, 0, 6),
    ]
    return pd.DataFrame(
        rows,
        columns=(
            "unique",
            "nonUnique",
            "nonUniqueWithNulls",
            "uniqueWithNulls",
            "onlyUniqueWithOtherNonUnique",
            "halfUniqueCombinedWithNonUnique",
        ),
    )


@pytest.fixture
def df_with_distinct_values():
    rows = [("a", None), ("a", None), (None, "x"), ("b", "x"), ("b", "x"), ("c", "y")]
    return pd.DataFrame(rows, columns=("att1", "att2"))


@pytest.fixture
def sample_product_data():
    rows = [
        (1, "Thingy A", "awesome thing.", "high", 0),
        (2, "Thingy B", "available at http://thingb.com", None, 0),
        (3, None, None, "low", 5),
        (4, "Thingy D", "checkout https://thingd.ca", "low", 10),
        (5, "Thingy E", None, "high", 12),
    ]
    return pd.DataFrame(
        rows, columns=["id", "productName", "description", "priority", "numViews"]
    )


@pytest.fixture
def executions(monkeypatch):
    """Count Ray Data plan executions: every ``StreamingExecutor.execute``
    call on the driver appends to the returned list (``len`` it)."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)

    calls = []
    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        calls.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    return calls


@pytest.fixture
def exchange_tasks(monkeypatch):
    """Ray tasks ``shuffle.hash_exchange`` submits on the driver while the
    test runs, by task function name, plus ``"exchanges"``: one per
    exchange (each builds its split handle once)."""
    import collections

    from hooqu_ray.functions import shuffle

    counts = collections.Counter()
    remote = shuffle._remote

    class Counted:
        def __init__(self, handle, name):
            self.handle, self.name = handle, name

        def options(self, **kwargs):
            return Counted(self.handle.options(**kwargs), self.name)

        def remote(self, *args, **kwargs):
            counts[self.name] += 1
            return self.handle.remote(*args, **kwargs)

    def spy(fn):
        if fn is shuffle._split_block:
            counts["exchanges"] += 1
        return Counted(remote(fn), fn.__name__)

    monkeypatch.setattr(shuffle, "_remote", spy)
    return counts


@pytest.fixture
def shard_counts(monkeypatch):
    """Shard count of every ``BroadcastSet`` built while the test runs."""
    from hooqu_ray.functions.broadcast import BroadcastSet

    counts = []
    init = BroadcastSet.__init__

    def spy(self, refs, key):
        init(self, refs, key)
        counts.append(len(self.refs))

    monkeypatch.setattr(BroadcastSet, "__init__", spy)
    return counts


@pytest.fixture
def hash_shard_counts(monkeypatch):
    """Shards yielded by every ``broadcast.hash_shards`` call while the test
    runs: a test that forces a shard arm asserts ``max(...) >= 2``."""
    from hooqu_ray.functions import broadcast

    counts = []
    hash_shards = broadcast.hash_shards

    def spy(*args):
        shards = list(hash_shards(*args))
        counts.append(len(shards))
        return iter(shards)

    monkeypatch.setattr(broadcast, "hash_shards", spy)
    return counts
