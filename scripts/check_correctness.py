"""Local simulation of the driver's correctness gate: run every
queries() entry at a given sf_dir and compare against oracle_sql() via
DuckDB — row count, column names, and exact values (rows sorted by all
columns, columns sorted by name), mirroring the driver's
order-insensitive value-hash.

Every line also carries ``q=`` (and, where an oracle ran, ``o=``): the
first 16 hex digits of the sha256 of the canonical query (oracle)
result, so a diff of two runs (say, a parent and a change) shows which
names changed output.  The digest covers dtypes (64 and 64.0 hash
apart) and the comparison does not, so a pass line's q and o may differ.

Usage: python scripts/check_correctness.py [sf_dir] [name_filter]
"""

import hashlib
import os
import sys
import time

import duckdb
import pandas as pd


def to_pandas(res):
    import pyarrow as pa
    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()  # ray Dataset


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    df = df.sort_values(by=list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def digest(df: pd.DataFrame) -> str:
    """sha256 prefix of a canonical result: header + rows as CSV, floats
    written round-trip exact."""
    return hashlib.sha256(df.to_csv(index=False).encode()).hexdigest()[:16]


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    name_filter = sys.argv[2] if len(sys.argv) > 2 else ""

    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    import ray.data
    ray.data.DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import __ray_entry__ as e

    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem "
              "events documents embeddings").split():
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    qs, oracles = e.queries(), e.oracle_sql()
    n_pass = n_fail = n_rows_only = 0
    for name, fn in qs.items():
        if name_filter and not any(f in name
                                   for f in name_filter.split(",") if f):
            continue
        t0 = time.time()
        try:
            mine = canon(to_pandas(fn(sf_dir)))
        except Exception as ex:
            print(f"FAIL  {name}: query raised {type(ex).__name__}: {ex} "
                  f"q=-")
            n_fail += 1
            continue
        dt = time.time() - t0
        qd = f"q={digest(mine)}"
        sql = oracles.get(name)
        if sql is None:
            print(f"rows  {name}: {len(mine)} rows ({dt:.1f}s) [rows-only] "
                  f"{qd}")
            n_rows_only += 1
            continue
        try:
            ref = canon(con.execute(sql).df())
        except Exception as ex:
            print(f"FAIL  {name}: oracle SQL raised {type(ex).__name__}: "
                  f"{ex} {qd} o=-")
            n_fail += 1
            continue
        qd += f" o={digest(ref)}"
        ok = True
        if list(mine.columns) != list(ref.columns):
            print(f"FAIL  {name}: columns {list(mine.columns)} != "
                  f"{list(ref.columns)} {qd}")
            ok = False
        elif len(mine) != len(ref):
            print(f"FAIL  {name}: rows {len(mine)} != {len(ref)} {qd}")
            ok = False
        else:
            try:
                pd.testing.assert_frame_equal(mine, ref, check_dtype=False,
                                              check_exact=True)
            except AssertionError as ex:
                print(f"FAIL  {name}: values differ: {qd}: "
                      f"{str(ex)[:400]}")
                ok = False
        if ok:
            print(f"pass  {name}: {len(mine)} rows ({dt:.1f}s) {qd}")
            n_pass += 1
        else:
            n_fail += 1
    print(f"\n{n_pass} pass, {n_fail} fail, {n_rows_only} rows-only")
    return 1 if n_fail else 0


if __name__ == "__main__":
    sys.exit(main())
