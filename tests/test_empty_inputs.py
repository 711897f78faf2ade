"""Every relational, text, vector, cluster, geo, sketch and docbuild
query answers zero-row and tiny inputs.

Each ``relational.QUERIES`` name runs on zero-row copies of the sf0.001
tables (same schemas) and must equal its DuckDB oracle on the same
copies: the same rows, and the same columns when the result is a
``pa.Table`` (a zero-row lazy Dataset carries no schema to compare).
A crafted two-row lineitem checks Q14's inner join with part.  Each
``text.QUERIES`` name runs on a zero-row ``documents`` table and on a
6-doc corpus of texts of at most 3 tokens (no passage, no shingle
window, no foreground term): it must equal its oracle when it has
one, and return without raising when it is rows-only.  Each
``vector.QUERIES`` name runs the same way on a zero-row ``embeddings``
table and on its first 3 vectors (fewer vectors than IVF clusters,
near-dup assignments or the top-k).  Each ``cluster``, ``geo``,
``sketches`` and ``docbuild`` name runs on the zero-row copies: it
must equal its oracle when it has one, and return without raising when
it is rows-only.  Two crafted sf0.001 copies leave one side of a hash
join empty (Q3 without a BUILDING customer, Q8 without a PROMO part).
"""

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from mee_ray.pipelines import (cluster, docbuild, geo, relational,
                                sketches, text, vector)
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


def _assert_matches(res, ref):
    mine = _to_pandas(res)
    assert len(mine) == len(ref)
    if isinstance(res, pa.Table):
        assert sorted(mine.columns) == sorted(ref.columns)
    if len(ref):
        pd.testing.assert_frame_equal(_canon(mine), _canon(ref),
                                      check_dtype=False, check_exact=True)


@pytest.mark.parametrize("name", sorted(relational.QUERIES))
def test_empty_input_matches_oracle(ray_session, empty_sf, empty_ducks,
                                    name):
    _assert_matches(relational.QUERIES[name](empty_sf),
                    empty_ducks.execute(relational.ORACLE[name]).df())


FAMILIES = (cluster, geo, sketches, docbuild)


@pytest.mark.parametrize(
    "name", sorted(n for m in FAMILIES for n in m.QUERIES))
def test_family_query_on_empty_tables(ray_session, empty_sf, empty_ducks,
                                      name):
    mod = next(m for m in FAMILIES if name in m.QUERIES)
    res = mod.QUERIES[name](empty_sf)
    if name not in mod.ORACLE:
        _to_pandas(res)
        return
    _assert_matches(res, empty_ducks.execute(mod.ORACLE[name]).df())


@pytest.mark.parametrize("name,table,column,value", [
    ("q3_shipping_priority", "customer", "c_mktsegment", "AUTOMOBILE"),
    ("q8_market_share", "part", "p_type", "STANDARD")])
def test_hash_join_with_an_empty_side(ray_session, tmp_path, name, table,
                                      column, value):
    """Every ``column`` value of ``table`` replaced by ``value``, so the
    query's filter empties one side of its hash join: the empty join,
    equal to the oracle on the same copy."""
    con = duckdb.connect()
    for t in TABLES:
        tab = pq.read_table(f"{SF}/{t}.parquet")
        if t == table:
            tab = tab.set_column(
                tab.schema.get_field_index(column), column,
                pa.array([value] * tab.num_rows, tab.schema.field(column).type))
        pq.write_table(tab, str(tmp_path / f"{t}.parquet"))
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"'{tmp_path}/{t}.parquet'")
    _assert_matches(relational.QUERIES[name](str(tmp_path)),
                    con.execute(relational.ORACLE[name]).df())


TINY_TEXTS = ["the fast key", "the fast key", "", "a b", "join",
              "Data row"]


@pytest.fixture(scope="session")
def docs_sfs(tmp_path_factory):
    """{"empty": dir, "tiny": dir}, each with one documents.parquet of
    the sf0.001 schema."""
    schema = pq.read_schema(f"{SF}/documents.parquet")
    tiny = pa.table({
        "doc_id": pa.array(range(len(TINY_TEXTS)), pa.int64()),
        "text": TINY_TEXTS,
        "lang": ["en", "en", "de", "fr", "en", "es"],
        "source": ["src0", "src0", "src1", "src2", "src3", "src4"],
        "n_chars": pa.array([len(x) for x in TINY_TEXTS], pa.int64())},
        schema=schema)
    out = {}
    for kind, t in (("empty", schema.empty_table()), ("tiny", tiny)):
        d = tmp_path_factory.mktemp(f"docs_{kind}")
        pq.write_table(t, str(d / "documents.parquet"))
        out[kind] = str(d)
    return out


@pytest.mark.parametrize("kind", ["empty", "tiny"])
@pytest.mark.parametrize("name", sorted(text.QUERIES))
def test_text_query_on_small_corpus(ray_session, docs_sfs, kind, name):
    sf = docs_sfs[kind]
    res = text.QUERIES[name](sf)
    if name not in text.ORACLE:
        _to_pandas(res)
        return
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"'{sf}/documents.parquet'")
    _assert_matches(res, con.execute(text.ORACLE[name]).df())


@pytest.fixture(scope="session")
def emb_sfs(tmp_path_factory):
    """{"empty": dir, "three": dir}, each with one embeddings.parquet
    of the sf0.001 schema: zero rows, and the first 3 vectors."""
    t = pq.read_table(f"{SF}/embeddings.parquet")
    out = {}
    for kind, rows in (("empty", t.schema.empty_table()),
                       ("three", t.slice(0, 3))):
        d = tmp_path_factory.mktemp(f"emb_{kind}")
        pq.write_table(rows, str(d / "embeddings.parquet"))
        out[kind] = str(d)
    return out


@pytest.mark.parametrize("kind", ["empty", "three"])
@pytest.mark.parametrize("name", sorted(vector.QUERIES))
def test_vector_query_on_small_table(ray_session, emb_sfs, kind, name):
    sf = emb_sfs[kind]
    res = vector.QUERIES[name](sf)
    if name not in vector.ORACLE:
        _to_pandas(res)
        return
    con = duckdb.connect()
    con.execute(f"CREATE VIEW embeddings AS SELECT * FROM "
                f"'{sf}/embeddings.parquet'")
    _assert_matches(res, con.execute(vector.ORACLE[name]).df())


@pytest.mark.parametrize("n_dangling", [1, 2])
def test_q14_drops_lineitems_without_a_part(ray_session, tmp_path,
                                            n_dangling):
    """Q14 inner-joins part: a lineitem whose l_partkey has no part row
    counts in neither sum, and a window of only such rows is SQL's
    NULLs."""
    from datetime import datetime

    part = pq.read_table(f"{SF}/part.parquet")
    li = pq.read_table(f"{SF}/lineitem.parquet").slice(0, 2)
    known = part["p_partkey"].to_pylist()
    keys = known[:2 - n_dangling] + [max(known) + 1 + i
                                     for i in range(n_dangling)]
    li = li.set_column(
        li.schema.get_field_index("l_partkey"), "l_partkey",
        pa.array(keys, li.schema.field("l_partkey").type))
    li = li.set_column(
        li.schema.get_field_index("l_shipdate"), "l_shipdate",
        pa.array([datetime(1997, 9, 15)] * 2,
                 li.schema.field("l_shipdate").type))
    pq.write_table(li, str(tmp_path / "lineitem.parquet"))
    pq.write_table(part, str(tmp_path / "part.parquet"))
    con = duckdb.connect()
    for t in ("lineitem", "part"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"'{tmp_path}/{t}.parquet'")
    mine = _to_pandas(relational.q14_promo_revenue(str(tmp_path)))
    ref = con.execute(relational.Q14_SQL).df()
    assert ref["total_cents"].isna().all() == (n_dangling == 2)
    pd.testing.assert_frame_equal(_canon(mine), _canon(ref),
                                  check_dtype=False, check_exact=True)
