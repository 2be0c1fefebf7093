"""Replicates the driver's correctness gate locally: run every queries()
entry at a given sf and compare row-count / schema / sorted value hash with
its oracle_sql() DuckDB result.  Each line also gives the query's wall time
and its Ray Data execution count (``StreamingExecutor.execute`` calls on
the driver, as the tests' ``executions`` fixture counts them); the last
line gives the total.  Usage:
python scripts/check_contract.py [sf_dir] [only_query1,only_query2,...]"""

import hashlib
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)


def norm_table(obj):
    import pandas as pd
    import pyarrow as pa

    if isinstance(obj, pa.Table):
        df = obj.to_pandas()
    elif isinstance(obj, pd.DataFrame):
        df = obj
    else:  # ray Dataset
        df = obj.to_pandas()
    df = df[sorted(df.columns)]
    df = df.sort_values(list(df.columns), ignore_index=True)
    return df


def value_hash(df):
    payload = df.to_csv(index=False, float_format="%.6f").encode()
    return hashlib.md5(payload).hexdigest()


def count_executions():
    """Patch ``StreamingExecutor.execute`` to append to the returned list
    on every Ray Data execution."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)

    calls = []
    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        calls.append(1)
        return execute(self, *args, **kwargs)

    StreamingExecutor.execute = counted
    return calls


def main(sf_dir: str = "/root/testdata/sf0.01", only: str = ""):
    import duckdb
    import ray

    sf_dir = os.path.abspath(sf_dir)
    if not ray.is_initialized():
        # the workers import the package too: the driver's sys.path insert
        # does not reach them when run from outside the checkout root
        pythonpath = os.pathsep.join(
            p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 log_to_driver=False,
                 runtime_env={"env_vars": {"PYTHONPATH": pythonpath}})
    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem events "
              "documents embeddings").split():
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    qs = entrymod.queries()
    if only:
        wanted = set(only.split(","))
        missing = wanted - set(qs)
        if missing:
            print(f"unknown query names: {sorted(missing)}")
            return 1
        qs = {k: v for k, v in qs.items() if k in wanted}
    oracles = entrymod.oracle_sql()
    executions = count_executions()
    n_pass = n_fail = n_rows_only = n_executions = 0
    for name, fn in qs.items():
        t0 = time.time()
        executions.clear()
        try:
            mine = norm_table(fn(sf_dir))
        except Exception as ex:  # noqa: BLE001
            print(f"FAIL {name}: query raised {type(ex).__name__}: {ex}")
            n_fail += 1
            continue
        cost = f"({time.time()-t0:.1f}s, {len(executions)} executions)"
        n_executions += len(executions)
        if name not in oracles:
            print(f"rows-only {name}: {len(mine)} rows  {cost}")
            n_rows_only += 1
            continue
        try:
            oracle = norm_table(con.execute(oracles[name]).df())
        except Exception as ex:  # noqa: BLE001
            print(f"FAIL {name}: oracle SQL raised {ex}")
            n_fail += 1
            continue
        ok_rows = len(mine) == len(oracle)
        ok_cols = list(mine.columns) == list(oracle.columns)
        ok_hash = ok_rows and ok_cols and value_hash(mine) == value_hash(oracle)
        if ok_hash:
            print(f"PASS {name}  {cost}")
            n_pass += 1
        else:
            print(f"FAIL {name}: rows {len(mine)}/{len(oracle)} cols {list(mine.columns)}"
                  f"/{list(oracle.columns)} hash_eq={ok_hash}")
            if ok_rows and ok_cols:
                merged = mine.compare(oracle) if mine.shape == oracle.shape else None
                if merged is not None and len(merged):
                    print(merged.head(5))
            n_fail += 1
    print(f"\n{n_pass} pass, {n_fail} fail, {n_rows_only} rows-only, "
          f"{n_executions} Ray Data executions")
    ray.shutdown()
    return n_fail


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]) and 1)
