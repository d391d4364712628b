"""Local simulation of the driver's correctness gate: run every
``queries()`` entry and compare against ``oracle_sql()`` via DuckDB
(row count + schema + order-insensitive value hash).

Usage: python scripts/check_oracle.py [sf_dir] [query ...]

Every result line is flushed as it is printed: with stdout redirected
to a file, a run that Ray's C++ core aborts would otherwise lose the
lines still in the buffer.
"""

import hashlib
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_pandas(obj):
    import pandas as pd
    import pyarrow as pa

    if isinstance(obj, pd.DataFrame):
        return obj
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj.to_pandas()  # ray Dataset


def value_hash(df):
    import pandas as pd

    df = df.reindex(sorted(df.columns), axis=1)
    rows = sorted(tuple(str(v) for v in r) for r in df.itertuples(index=False))
    h = hashlib.sha256()
    for r in rows:
        h.update("\x1f".join(r).encode())
        h.update(b"\x1e")
    return h.hexdigest()[:16]


def main():
    sys.stdout.reconfigure(line_buffering=True)
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = sys.argv[2:] or None
    import duckdb
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as E

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{sf_dir}/{t}.parquet')")

    qs = E.queries()
    oracles = E.oracle_sql()
    n_pass = n_fail = n_rows_only = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            mine = to_pandas(fn(sf_dir))
        except Exception as ex:
            print(f"FAIL  {name}: query raised {type(ex).__name__}: {ex}")
            n_fail += 1
            continue
        dt = time.perf_counter() - t0
        if name not in oracles:
            print(f"rows  {name}: {len(mine)} rows ({dt:.1f}s)")
            n_rows_only += 1
            continue
        try:
            exp = con.sql(oracles[name]).df()
        except Exception as ex:
            print(f"FAIL  {name}: oracle raised {type(ex).__name__}: {ex}")
            n_fail += 1
            continue
        ok_rows = len(mine) == len(exp)
        ok_schema = sorted(map(str, mine.columns)) == sorted(map(str, exp.columns))
        ok_hash = ok_rows and ok_schema and value_hash(mine) == value_hash(exp)
        if ok_hash:
            print(f"pass  {name}: {len(mine)} rows ({dt:.1f}s)")
            n_pass += 1
        else:
            print(f"FAIL  {name}: rows {len(mine)} vs {len(exp)}, "
                  f"schema_ok={ok_schema} "
                  f"cols mine={sorted(mine.columns)} exp={sorted(exp.columns)}")
            if ok_rows and ok_schema:
                merged = mine.reindex(sorted(mine.columns), axis=1)
                expp = exp.reindex(sorted(exp.columns), axis=1)
                print("   mine head:", merged.head(3).to_dict("records"))
                print("   exp  head:", expp.head(3).to_dict("records"))
            n_fail += 1
    print(f"== {n_pass} pass / {n_fail} fail / {n_rows_only} rows-only ==")
    ray.shutdown()
    return 1 if n_fail else 0


if __name__ == "__main__":
    raise SystemExit(main())
