"""Every relational query answers zero-row inputs.

Each ``relational.QUERIES`` name runs on zero-row copies of the sf0.001
tables (same schemas) and must equal its DuckDB oracle on the same
copies: the same rows, and the same columns when the result is a
``pa.Table`` (a zero-row lazy Dataset carries no schema to compare).
"""

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from mee_ray.pipelines import relational
from test_pipelines import SF, TABLES, _canon, _to_pandas


@pytest.fixture(scope="session")
def empty_sf(tmp_path_factory):
    d = tmp_path_factory.mktemp("sf_empty")
    for t in TABLES:
        schema = pq.read_schema(f"{SF}/{t}.parquet")
        pq.write_table(schema.empty_table(), str(d / f"{t}.parquet"))
    return str(d)


@pytest.fixture(scope="session")
def empty_ducks(empty_sf):
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"'{empty_sf}/{t}.parquet'")
    return con


@pytest.mark.parametrize("name", sorted(relational.QUERIES))
def test_empty_input_matches_oracle(ray_session, empty_sf, empty_ducks,
                                    name):
    res = relational.QUERIES[name](empty_sf)
    mine = _to_pandas(res)
    ref = empty_ducks.execute(relational.ORACLE[name]).df()
    assert len(mine) == len(ref)
    if isinstance(res, pa.Table):
        assert sorted(mine.columns) == sorted(ref.columns)
    if len(ref):
        pd.testing.assert_frame_equal(_canon(mine), _canon(ref),
                                      check_dtype=False, check_exact=True)
