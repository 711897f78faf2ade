"""Config-driven document builder: filter semantics, join/nested
shapes, and the negative-fixture validation battery (mirroring the
reference's IllegalConfigException tests, handlerconfig tests §5.1)."""

import pyarrow as pa
import pytest

from mee_ray.pipelines.docbuild import (DocSpec, IllegalDocSpec, JoinSpec,
                                        NestedSpec, _filter_mask,
                                        build_documents)

SF = "/root/testdata/sf0.001"


# ---- validation (negative fixtures) ---------------------------------

def test_duplicate_output_fields_rejected():
    spec = DocSpec(master="customer", key="c_custkey",
                   mappings={"x": "c_custkey"},
                   joins=(JoinSpec("nation", "n_nationkey", "c_nationkey",
                                   {"x": "n_name"}),))
    with pytest.raises(IllegalDocSpec, match="duplicate"):
        spec.validate()


def test_non_identifier_output_rejected():
    spec = DocSpec(master="customer", key="c_custkey",
                   mappings={"bad name": "c_custkey"})
    with pytest.raises(IllegalDocSpec, match="identifier"):
        spec.validate()


def test_empty_mappings_rejected():
    with pytest.raises(IllegalDocSpec, match="mapping"):
        DocSpec(master="customer", key="c_custkey").validate()


def test_bad_dsl_expr_fails_at_compile(ray_session):
    spec = DocSpec(master="customer", key="c_custkey",
                   mappings={"x": "not_a_function(c_acctbal)"})
    from mee_ray.functions.scalar import ExprError
    with pytest.raises(ExprError):
        build_documents(SF, spec)


def test_unknown_filter_op_rejected():
    t = pa.table({"a": pa.array([1, 2])})
    with pytest.raises(IllegalDocSpec, match="unknown filter op"):
        _filter_mask(t, {"a": {"~=": 1}})


# ---- filter truth table (reference filterData semantics) ------------

def test_filter_semantics():
    t = pa.table({"a": pa.array([1, 2, 3, 4]),
                  "s": pa.array(["x", "y", "x", "z"])})
    assert _filter_mask(t, {"a": 2}).to_pylist() == [False, True, False, False]
    assert _filter_mask(t, {"s": ["x", "z"]}).to_pylist() == \
        [True, False, True, True]
    assert _filter_mask(t, {"a": {">": 1, "<=": 3}}).to_pylist() == \
        [False, True, True, False]
    # missing column rejects every row (reference: missing key => reject)
    assert _filter_mask(t, {"nope": 1}).to_pylist() == [False] * 4


# ---- end-to-end shapes ----------------------------------------------

def test_join_miss_yields_null(ray_session, tmp_path):
    import pyarrow.parquet as pq

    d = tmp_path
    pq.write_table(pa.table({"mk": pa.array([1, 2], pa.int64()),
                             "v": pa.array(["a", "b"])}),
                   str(d / "master.parquet"))
    pq.write_table(pa.table({"jk": pa.array([1], pa.int64()),
                             "name": pa.array(["one"])}),
                   str(d / "side.parquet"))
    spec = DocSpec(master="master", key="mk",
                   mappings={"mk_out": "mk", "v_out": "v"},
                   joins=(JoinSpec("side", "jk", "mk", {"side_name": "name"}),))
    t = pa.concat_tables(build_documents(str(d), spec)
                         .to_pandas().pipe(lambda df: [pa.Table.from_pandas(df)]))
    rows = {r["mk_out"]: r for r in t.to_pylist()}
    assert rows[1]["side_name"] == "one"
    assert rows[2]["side_name"] is None  # miss => null (null_value analog)


def test_nested_cap_and_order(ray_session, tmp_path):
    import pyarrow.parquet as pq

    d = tmp_path
    pq.write_table(pa.table({"mk": pa.array([7], pa.int64()),
                             "v": pa.array(["m"])}),
                   str(d / "master.parquet"))
    pq.write_table(pa.table({
        "pk": pa.array([7] * 5, pa.int64()),
        "ord": pa.array([5, 3, 1, 4, 2], pa.int64()),
    }), str(d / "child.parquet"))
    spec = DocSpec(master="master", key="mk",
                   mappings={"mk_out": "mk"},
                   nested=(NestedSpec("child", "pk", "mk", fields=["ord"],
                                      out="kids", order_by="ord", limit=3),))
    rows = build_documents(str(d), spec).to_pandas().to_dict("records")
    assert len(rows) == 1
    kids = rows[0]["kids"]
    assert [k["ord"] for k in kids] == [1, 2, 3]  # ordered + capped at 3


# ---- incremental slave-table propagation (J3 write side) ------------

def _slave_spec():
    from mee_ray.pipelines.docbuild import DocSpec, JoinSpec, NestedSpec
    return DocSpec(
        master="customer", key="c_custkey",
        mappings={"cust_id": "c_custkey", "cust_name": "c_name"},
        joins=(JoinSpec("nation", "n_nationkey", "c_nationkey",
                        {"nation_name": "n_name"}),),
        nested=(NestedSpec("orders", "o_custkey", "c_custkey",
                           fields=["o_orderkey", "o_totalprice"],
                           out="orders", order_by="o_orderkey", limit=50),))


def _overlaid(base, key_col, upserts, deletes):
    import pyarrow.compute as pc
    drop = set(deletes) | (set(upserts[key_col].to_pylist()) if upserts else set())
    if drop:
        base = base.filter(pc.invert(pc.is_in(
            base[key_col], value_set=pa.array(sorted(drop), base[key_col].type))))
    if upserts is not None:
        base = pa.concat_tables([base, upserts.select(base.column_names)])
    return base


def _canon_docs(df):
    import json
    df = df.copy()
    df["orders"] = df["orders"].map(lambda subs: json.dumps(
        [dict(s) for s in subs], sort_keys=True))
    return df.sort_values("cust_id").reset_index(drop=True)[sorted(df.columns)]


def test_apply_join_delta_matches_full_rebuild(ray_session, tmp_path):
    """Incremental re-emit == full rebuild over the materialized
    modified tables, restricted to the affected master set — including
    a child MOVED between parents (old AND new parent re-emitted)."""
    import random
    import shutil

    import pandas as pd
    import pyarrow.parquet as pq

    from mee_ray.pipelines.docbuild import SlaveChange, apply_join_delta

    spec = _slave_spec()
    orders = pq.read_table(f"{SF}/orders.parquet",
                           columns=["o_orderkey", "o_custkey", "o_totalprice"])
    custs = pq.read_table(f"{SF}/customer.parquet",
                          columns=["c_custkey"])["c_custkey"].to_pylist()
    rng = random.Random(42)
    rows = {orders["o_orderkey"][i].as_py():
            (orders["o_custkey"][i].as_py(), orders["o_totalprice"][i].as_py())
            for i in rng.sample(range(orders.num_rows), 8)}
    oids = sorted(rows)
    changed_price = oids[:3]          # price change, same parent
    moved = oids[3:5]                 # moved to a different customer
    deleted = tuple(oids[5:])         # deleted children
    up_rows = []
    moved_pairs = []
    for oid in changed_price:
        ck, price = rows[oid]
        up_rows.append((oid, ck, round(price * 2, 2)))
    for oid in moved:
        ck, price = rows[oid]
        new_ck = custs[(custs.index(ck) + 7) % len(custs)]
        moved_pairs.append((ck, new_ck))
        up_rows.append((oid, new_ck, price))
    ups_orders = pa.table({
        "o_orderkey": pa.array([r[0] for r in up_rows],
                               orders["o_orderkey"].type),
        "o_custkey": pa.array([r[1] for r in up_rows],
                              orders["o_custkey"].type),
        "o_totalprice": pa.array([r[2] for r in up_rows],
                                 orders["o_totalprice"].type),
    })
    nat = pq.read_table(f"{SF}/nation.parquet",
                        columns=["n_nationkey", "n_name"])
    ups_nation = pa.table({
        "n_nationkey": pa.array([1], nat["n_nationkey"].type),
        "n_name": pa.array(["RENAMED_NATION"]),
    })
    changes = [SlaveChange("orders", upserts=ups_orders,
                           delete_keys=deleted, child_key="o_orderkey"),
               SlaveChange("nation", upserts=ups_nation, delete_keys=(7,))]

    inc = apply_join_delta(SF, spec, changes).to_pandas()

    # expected: full rebuild over materialized modified tables
    mod = str(tmp_path / "mod")
    import os
    os.makedirs(mod)
    shutil.copy(f"{SF}/customer.parquet", f"{mod}/customer.parquet")
    pq.write_table(_overlaid(orders, "o_orderkey", ups_orders, deleted),
                   f"{mod}/orders.parquet")
    pq.write_table(_overlaid(nat, "n_nationkey", ups_nation, (7,)),
                   f"{mod}/nation.parquet")
    full = build_documents(mod, spec).to_pandas()

    # affected set: every old+new parent of changed/moved/deleted
    # children plus customers of changed nations
    aff_parents = {rows[oid][0] for oid in oids} | {p[1] for p in moved_pairs}
    cust_t = pq.read_table(f"{SF}/customer.parquet",
                           columns=["c_custkey", "c_nationkey"])
    aff_nation_custs = {c for c, nk in zip(cust_t["c_custkey"].to_pylist(),
                                           cust_t["c_nationkey"].to_pylist())
                        if nk in (1, 7)}
    expected_keys = aff_parents | aff_nation_custs
    assert set(inc["cust_id"]) == expected_keys
    exp = full[full["cust_id"].isin(expected_keys)]
    pd.testing.assert_frame_equal(_canon_docs(inc), _canon_docs(exp))


def test_apply_join_delta_validation(ray_session):
    from mee_ray.pipelines.docbuild import SlaveChange, apply_join_delta
    spec = _slave_spec()
    with pytest.raises(IllegalDocSpec, match="not a joined table"):
        apply_join_delta(SF, spec, SlaveChange("lineitem"))
    with pytest.raises(IllegalDocSpec, match="child_key"):
        apply_join_delta(SF, spec, SlaveChange(
            "orders", upserts=pa.table({"o_orderkey": pa.array([1])})))


def test_apply_join_delta_empty_change(ray_session):
    from mee_ray.pipelines.docbuild import SlaveChange, apply_join_delta
    spec = _slave_spec()
    out = apply_join_delta(
        SF, spec, SlaveChange("nation", delete_keys=(999999,)))
    # no master references the changed key -> re-emit set may be empty
    # or (if some orphan customer references it) tiny; never the corpus
    assert out.count() <= 5


def test_apply_master_delta_filter_boundary(ray_session):
    """Reference filter-boundary rewrite: an after-image leaving the
    filter lands in the deleted set (no document emitted); one entering
    it produces a document; a master delete lands in the deleted set."""
    import numpy as np
    import pyarrow.parquet as pq

    from mee_ray.pipelines.docbuild import (DocSpec, JoinSpec, SlaveChange,
                                            apply_master_delta)

    spec = DocSpec(
        master="customer", key="c_custkey",
        mappings={"cust_id": "c_custkey", "cust_name": "c_name"},
        filter={"c_acctbal": {">": 0.0}},
        joins=(JoinSpec("nation", "n_nationkey", "c_nationkey",
                        {"nation_name": "n_name"}),))

    cols = ["c_custkey", "c_name", "c_acctbal", "c_nationkey"]
    cust = pq.read_table(f"{SF}/customer.parquet", columns=cols)
    k = cust["c_custkey"].to_numpy(zero_copy_only=False)
    leave_key, enter_key, stay_key, del_key = 10, 11, 12, 13
    sel = np.isin(k, [leave_key, enter_key, stay_key])
    up = cust.filter(pa.array(sel))
    uk = up["c_custkey"].to_numpy(zero_copy_only=False)
    acct = np.select([uk == leave_key, uk == enter_key, uk == stay_key],
                     [-1.0, 42.0, 7.0])
    upserts = pa.table({
        "c_custkey": up["c_custkey"], "c_name": up["c_name"],
        "c_acctbal": pa.array(acct, pa.float64()),
        "c_nationkey": up["c_nationkey"],
    })
    docs, deleted = apply_master_delta(
        SF, spec, SlaveChange("customer", upserts=upserts,
                              delete_keys=(del_key,)))
    out = docs.to_pandas()
    assert set(out["cust_id"]) == {enter_key, stay_key}
    assert set(deleted["c_custkey"].to_pylist()) == {leave_key, del_key}
    # re-emitted docs carry the after-image values + live joins
    assert out[out.cust_id == enter_key].iloc[0]["nation_name"] is not None

    # wrong-table guard
    with pytest.raises(Exception, match="spec master"):
        apply_master_delta(SF, spec, SlaveChange("nation"))


def test_empty_lookup_table_yields_all_nulls(ray_session, tmp_path):
    """A join against an EMPTY slave table (zero rows on disk, or a
    SlaveChange that deleted every row) must emit all-null join fields
    per the missing ⇒ nulls contract — not ArrowIndexError from
    take([0,...]) on a 0-row array."""
    import pyarrow.parquet as pq

    from mee_ray.pipelines.docbuild import SlaveChange

    d = tmp_path
    pq.write_table(pa.table({"mk": pa.array([1, 2], pa.int64()),
                             "v": pa.array(["a", "b"])}),
                   str(d / "master.parquet"))
    pq.write_table(pa.table({"jk": pa.array([], pa.int64()),
                             "name": pa.array([], pa.string())}),
                   str(d / "side.parquet"))
    spec = DocSpec(master="master", key="mk",
                   mappings={"mk_out": "mk"},
                   joins=(JoinSpec("side", "jk", "mk",
                                   {"side_name": "name"}),))
    df = build_documents(str(d), spec).to_pandas()
    assert sorted(df["mk_out"]) == [1, 2]
    assert df["side_name"].isna().all()

    # same via an overlay that deletes the only slave row
    pq.write_table(pa.table({"jk": pa.array([1], pa.int64()),
                             "name": pa.array(["one"])}),
                   str(d / "side.parquet"))
    df2 = build_documents(
        str(d), spec,
        _overlays={"side": SlaveChange("side", delete_keys=(1,))}
    ).to_pandas()
    assert df2["side_name"].isna().all()


def test_nested_string_parent_key_buckets(ray_session, tmp_path):
    """String parent keys must bucket (crc32), not crash in
    astype(int64)."""
    import pyarrow.parquet as pq

    from mee_ray.pipelines.docbuild import NestedSpec

    d = tmp_path
    pq.write_table(pa.table({"mk": pa.array(["alpha", "beta"]),
                             "v": pa.array([1, 2], pa.int64())}),
                   str(d / "master.parquet"))
    pq.write_table(pa.table({
        "pk": pa.array(["alpha", "alpha", "beta"]),
        "cid": pa.array([1, 2, 3], pa.int64()),
        "val": pa.array(["x", "y", "z"])}),
        str(d / "kids.parquet"))
    spec = DocSpec(master="master", key="mk",
                   mappings={"mk_out": "mk"},
                   nested=(NestedSpec("kids", "pk", "mk", ("val",),
                                      out="children", order_by="cid"),))
    df = build_documents(str(d), spec).to_pandas()
    rows = {r["mk_out"]: r["children"]
            for r in df.to_dict(orient="records")}
    assert [c["val"] for c in rows["alpha"]] == ["x", "y"]
    assert [c["val"] for c in rows["beta"]] == ["z"]


# ---- on_parent_delete parity (reference eval_on_deleted,
# commonhandler.py:996-1007) ------------------------------------------

@pytest.mark.parametrize("mode,deleted_name,untouched_name", [
    # eval_on_deleted=True analog: the lookup re-evaluates against the
    # post-change table, so the re-upserted same-key row resolves
    ("reeval", "NEW_NAME", "OLD_B"),
    # eval_on_deleted=False analog: the delete deliberately resets the
    # mapped fields to null, even though re-evaluation would find the
    # re-upserted row
    ("null", None, "OLD_B"),
])
def test_on_parent_delete_modes(ray_session, tmp_path, mode,
                                deleted_name, untouched_name):
    import pyarrow.parquet as pq

    from mee_ray.pipelines.docbuild import SlaveChange, apply_join_delta

    d = tmp_path
    pq.write_table(pa.table({
        "mk": pa.array([10, 11, 12], pa.int64()),
        "fk": pa.array([1, 2, 1], pa.int64())}),
        str(d / "master.parquet"))
    pq.write_table(pa.table({
        "sk": pa.array([1, 2], pa.int64()),
        "name": pa.array(["OLD_A", "OLD_B"])}),
        str(d / "slave.parquet"))
    spec = DocSpec(master="master", key="mk",
                   mappings={"mk_out": "mk"},
                   joins=(JoinSpec("slave", "sk", "fk",
                                   {"slave_name": "name"},
                                   on_parent_delete=mode),))
    # one batch: DELETE slave key 1 AND re-upsert it with a new name
    ch = SlaveChange("slave",
                     upserts=pa.table({"sk": pa.array([1], pa.int64()),
                                       "name": pa.array(["NEW_NAME"])}),
                     delete_keys=(1,))
    docs = apply_join_delta(str(d), spec, ch).to_pandas()
    got = dict(zip(docs["mk_out"], docs["slave_name"]))
    # masters 10 and 12 reference the deleted key; 11 is unaffected and
    # is not re-emitted (blast radius is key-bounded)
    assert set(got) == {10, 12}
    for mk in (10, 12):
        if deleted_name is None:
            assert got[mk] is None or got[mk] != got[mk]  # null/NaN
        else:
            assert got[mk] == deleted_name


def test_on_parent_delete_validation():
    spec = DocSpec(master="master", key="mk", mappings={"x": "mk"},
                   joins=(JoinSpec("slave", "sk", "fk", {"y": "name"},
                                   on_parent_delete="bogus"),))
    with pytest.raises(IllegalDocSpec, match="on_parent_delete"):
        spec.validate()


def test_multiple_changes_per_table_rejected(ray_session):
    from mee_ray.pipelines.docbuild import SlaveChange, apply_join_delta
    spec = _slave_spec()
    with pytest.raises(IllegalDocSpec, match="multiple SlaveChanges"):
        apply_join_delta(SF, spec, [SlaveChange("nation", delete_keys=(1,)),
                                    SlaveChange("nation", delete_keys=(2,))])


def test_nested_summary_rounds_half_cents_away_from_zero(ray_session,
                                                         tmp_path):
    """spend_cents is SQL ``round(o_totalprice * 100)``: a price on a
    half cent (0.125 → 12.5 cents) rounds away from zero, as the
    oracle's DuckDB round does, not to the even cent."""
    import duckdb
    import pyarrow.parquet as pq

    from mee_ray.pipelines.docbuild import (DOCBUILD_NESTED_SQL,
                                            docbuild_nested_summary)
    pq.write_table(pa.table({"c_custkey": pa.array([1, 2, 3], pa.int64())}),
                   str(tmp_path / "customer.parquet"))
    pq.write_table(pa.table({
        "o_orderkey": pa.array([10, 11, 12, 13], pa.int64()),
        "o_custkey": pa.array([1, 1, 2, 2], pa.int64()),
        "o_totalprice": pa.array([0.125, 0.625, 0.375, 2.0])}),
        str(tmp_path / "orders.parquet"))
    con = duckdb.connect()
    for t in ("customer", "orders"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"'{tmp_path}/{t}.parquet'")
    ref = con.execute(DOCBUILD_NESTED_SQL).df().sort_values("cust_id")
    got = docbuild_nested_summary(str(tmp_path)).to_pandas() \
        .sort_values("cust_id")
    assert ref["spend_cents"].tolist()[:2] == [76, 238]
    assert got["spend_cents"].tolist()[:2] == [76, 238]
    assert got["n_orders"].tolist() == [2, 2, 0]
    assert got["spend_cents"].isna().tolist() == [False, False, True]
