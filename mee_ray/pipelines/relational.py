"""Relational operator pipelines over the driver's TPC-H-ish tables.

Each function is one operator capability from SURVEY.md §2, expressed
Ray-Data-first (pruned reads, vectorized pyarrow batch kernels,
partial aggregation before the shuffle, broadcast joins for small
sides).  The matching DuckDB oracle SQL lives in ``ORACLE`` with
IDENTICAL column names and expression trees; float *aggregates* are
rounded on both sides (sum order differs across engines), while
per-row float arithmetic is left unrounded (bit-deterministic when the
expression tree matches).

Reference capability map (SURVEY.md §2):
  M1/M2 filters → filter_ops_events;  M3 projection + M5/M6 scalar
  functions → scalar_funcs_lineitem / filter_project_revenue;
  A1/M7 grouped aggregates → q1_pricing_summary / agg_pushdown_counts;
  J1 lookup join → join_revenue_by_nation;  J2 one-to-many rollup →
  order_lineitem_rollup;  U3 latest-wins → latest_event_per_user;
  §2.9 streaming windows → tumbling_window_events;  M10 routing →
  event_type_routing;  semi/anti joins → semi/anti_join_events.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _read(sf_dir: str, table: str, columns=None):
    import ray.data
    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def _int_scaled(t: pa.Table, cols: dict[str, float]) -> pa.Table:
    """Replace float aggregate columns by BIGINT fixed-point values
    (``rint(x * scale)``).  Float aggregates differ across engines by
    summation order (ULPs), and even `round(x, 2)` can yield doubles
    differing by 1 ULP between pyarrow and DuckDB for the same decimal
    — integers make the driver's value-hash stable.  SQL mirror:
    ``CAST(round(x * scale) AS BIGINT)``."""
    for name, scale in cols.items():
        i = t.schema.get_field_index(name)
        # pc.round(half_towards_infinity) == SQL round() EXACTLY —
        # floor(abs(x)+0.5) is not: a double one ulp below a .5
        # boundary has x+0.5 round UP to the boundary in FP, rounding
        # where SQL doesn't
        v = pc.cast(pc.round(
            pc.multiply(t[name], pa.scalar(float(scale))),
            options=pc.RoundOptions(round_mode="half_towards_infinity")),
            pa.int64())
        t = t.set_column(i, name, v)
    return t


# ---------------------------------------------------------------- Q1 --

def q1_pricing_summary(sf_dir: str):
    """TPC-H Q1 shape with explicit partial aggregation: per-batch
    pyarrow group_by combiners, then a small groupby of partials — the
    pre-aggregate-before-shuffle pattern (what the reference pushes to
    MySQL per-row via executeSQL, common.py:150-169, done right)."""
    from ray.data.aggregate import Sum

    cutoff = pa.scalar(np.datetime64("1998-09-02", "us"))

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t["l_shipdate"], cutoff))
        if t.num_rows == 0:
            return pa.table({"l_returnflag": pa.array([], pa.string()),
                             "l_linestatus": pa.array([], pa.string()),
                             "s_qty": pa.array([], pa.float64()),
                             "s_base": pa.array([], pa.int64()),
                             "s_disc": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        # money sums in PER-ROW integer cents: integer addition is
        # order-independent, so partial/shuffle merge order can never
        # move a result across a rounding boundary (a float-summed
        # total differed from DuckDB by one cent at sf0.001).
        # half_towards_infinity == SQL round()'s half-away-from-zero.
        half_away = pc.RoundOptions(round_mode="half_towards_infinity")
        disc_price = pc.multiply(t["l_extendedprice"],
                                 pc.subtract(pa.scalar(1.0), t["l_discount"]))
        disc_cents = pc.cast(pc.round(pc.multiply(disc_price, pa.scalar(100.0)),
                                      options=half_away), pa.int64())
        base_cents = pc.cast(pc.round(pc.multiply(t["l_extendedprice"],
                                                  pa.scalar(100.0)),
                                      options=half_away), pa.int64())
        t = (t.append_column("disc_cents", disc_cents)
             .append_column("base_cents", base_cents))
        g = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("l_quantity", "sum"), ("base_cents", "sum"),
             ("disc_cents", "sum"), ("l_quantity", "count")])
        return g.rename_columns(["l_returnflag", "l_linestatus", "s_qty",
                                 "s_base", "s_disc", "n"])

    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice", "l_discount", "l_shipdate"])
    partials = li.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    agg = partials.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("s_qty", alias_name="sum_qty"),
        Sum("s_base", alias_name="sum_base_price"),
        Sum("s_disc", alias_name="sum_disc_price"),
        Sum("n", alias_name="count_order"))

    def finish(t: pa.Table) -> pa.Table:
        t = t.append_column("avg_qty", pc.divide(t["sum_qty"],
                                                 pc.cast(t["count_order"], pa.float64())))
        # avg_price from the exact integer cent sum: cents/row × 1e4
        # equals price × 1e6 scale, and the ratio of two exactly-
        # representable integers is bit-deterministic
        t = t.append_column("avg_price",
                            pc.divide(pc.cast(t["sum_base_price"],
                                              pa.float64()),
                                      pc.cast(t["count_order"],
                                              pa.float64())))
        return _int_scaled(t, {"sum_qty": 1, "avg_qty": 1e6,
                               "avg_price": 1e4})

    return agg.map_batches(finish, batch_format="pyarrow")


Q1_SQL = """
WITH c AS (
  SELECT l_returnflag, l_linestatus, l_quantity,
         CAST(round(l_extendedprice * 100) AS BIGINT) AS base_cents,
         CAST(round(l_extendedprice * (1 - l_discount) * 100) AS BIGINT)
           AS disc_cents
  FROM lineitem WHERE l_shipdate <= TIMESTAMP '1998-09-02'
)
SELECT l_returnflag, l_linestatus,
       CAST(round(sum(l_quantity)) AS BIGINT)                     AS sum_qty,
       CAST(sum(base_cents) AS BIGINT)                            AS sum_base_price,
       CAST(sum(disc_cents) AS BIGINT)                            AS sum_disc_price,
       count(*)                                                   AS count_order,
       CAST(round(sum(l_quantity) / count(*) * 1000000) AS BIGINT) AS avg_qty,
       CAST(round(sum(base_cents) / count(*) * 10000.0) AS BIGINT) AS avg_price
FROM c GROUP BY l_returnflag, l_linestatus
"""


# ------------------------------------------------- filter + project --

def filter_project_revenue(sf_dir: str):
    """M1/M2/M3: vectorized predicate + computed projection; pruned read."""
    lo = pa.scalar(np.datetime64("1997-01-01", "us"))

    def f(t: pa.Table) -> pa.Table:
        mask = pc.and_(pc.and_(pc.greater_equal(t["l_shipdate"], lo),
                               pc.less(t["l_quantity"], pa.scalar(24.0))),
                       pc.and_(pc.greater_equal(t["l_discount"], pa.scalar(0.05)),
                               pc.less_equal(t["l_discount"], pa.scalar(0.07))))
        t = t.filter(mask)
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "l_linenumber": t["l_linenumber"],
                         "revenue": rev})

    return _read(sf_dir, "lineitem",
                 ["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice",
                  "l_discount", "l_shipdate"]).map_batches(
        f, batch_format="pyarrow", zero_copy_batch=True)


FILTER_PROJECT_SQL = """
SELECT l_orderkey, l_linenumber,
       l_extendedprice * (1 - l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1997-01-01'
  AND l_quantity < 24
  AND l_discount BETWEEN 0.05 AND 0.07
"""


# --------------------------------------------------- broadcast join --

def join_revenue_by_nation(sf_dir: str):
    """J1 lookup join, Ray-style: the two dimension tables are read
    once on the driver, composed into a custkey→nation_name dict,
    ray.put once, and probed inside map_batches — no shuffle (the
    reference does this join as one MySQL query per document,
    commonhandler.py:388-418)."""
    import ray
    import pyarrow.parquet as pq
    from ray.data.aggregate import Count, Sum

    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"])
    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"])
    nk_to_name = dict(zip(nat["n_nationkey"].to_pylist(), nat["n_name"].to_pylist()))
    ck = cust["c_custkey"].to_numpy(zero_copy_only=False)
    cnames = np.array([nk_to_name[k] for k in
                       cust["c_nationkey"].to_pylist()], dtype=object)
    order_idx = np.argsort(ck)
    ref = ray.put((ck[order_idx], cnames[order_idx]))

    def lookup(t: pa.Table) -> pa.Table:
        keys, names = ray.get(ref)
        ok = t["o_custkey"].to_numpy(zero_copy_only=False)
        pos = np.minimum(np.searchsorted(keys, ok),
                         max(0, len(keys) - 1))
        # inner-join semantics like the oracle: a dangling o_custkey
        # must DROP the row, not credit the nearest customer's nation
        hit = (keys[pos] == ok) if len(keys) else \
            np.zeros(len(ok), dtype=bool)
        t = t.filter(pa.array(hit))
        pos = pos[hit]
        # per-row integer cents: money sums stay order-independent
        # (half_towards_infinity == SQL round)
        cents = pc.cast(pc.round(
            pc.multiply(t["o_totalprice"], pa.scalar(100.0)),
            options=pc.RoundOptions(round_mode="half_towards_infinity")),
            pa.int64())
        return pa.table({"n_name": pa.array(names[pos].tolist(), pa.string()),
                         "cents": cents})

    return (_read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
            .map_batches(lookup, batch_format="pyarrow", zero_copy_batch=True)
            .groupby("n_name")
            .aggregate(Sum("cents", alias_name="total_revenue_cents"),
                       Count(alias_name="n_orders")))


JOIN_NATION_SQL = """
SELECT n_name,
       CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
         AS total_revenue_cents,
       count(*) AS n_orders
FROM orders JOIN customer ON o_custkey = c_custkey
            JOIN nation   ON c_nationkey = n_nationkey
GROUP BY n_name
"""


# -------------------------------------------------- grouped rollups --

def order_lineitem_rollup(sf_dir: str):
    """J2 one-to-many rollup (nested-doc analog, commonhandler.py:367-386):
    per-order aggregate with per-batch combiners (sums of integral
    doubles are exact, so no rounding is needed)."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by("l_orderkey").aggregate(
            [("l_quantity", "sum"), ("l_quantity", "count")])
        return g.rename_columns(["l_orderkey", "s_qty", "n"])

    return (_read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])
            .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
            .groupby("l_orderkey")
            .aggregate(Sum("n", alias_name="n_items"),
                       Sum("s_qty", alias_name="sum_qty")))


ROLLUP_SQL = """
SELECT l_orderkey, count(*) AS n_items, sum(l_quantity) AS sum_qty
FROM lineitem GROUP BY l_orderkey
"""


def agg_pushdown_counts(sf_dir: str):
    """M7/A1: the reference runs `select count(*) ... where status in
    (...)` per master row against MySQL (common.py:150-169,
    index_carteam_user.yml:165-181); here it is one grouped aggregate
    with conditional counters."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        is_open = pc.cast(pc.equal(t["o_orderstatus"], pa.scalar("O")), pa.int64())
        is_fin = pc.cast(pc.equal(t["o_orderstatus"], pa.scalar("F")), pa.int64())
        t2 = pa.table({"o_custkey": t["o_custkey"], "one": pa.array(
            np.ones(t.num_rows, dtype=np.int64)), "is_open": is_open, "is_fin": is_fin})
        g = t2.group_by("o_custkey").aggregate(
            [("one", "sum"), ("is_open", "sum"), ("is_fin", "sum")])
        return g.rename_columns(["o_custkey", "n_orders", "n_open", "n_finished"])

    return (_read(sf_dir, "orders", ["o_custkey", "o_orderstatus"])
            .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
            .groupby("o_custkey")
            .aggregate(Sum("n_orders", alias_name="n_orders"),
                       Sum("n_open", alias_name="n_open"),
                       Sum("n_finished", alias_name="n_finished")))


AGG_PUSHDOWN_SQL = """
SELECT o_custkey, count(*) AS n_orders,
       CAST(sum(CASE WHEN o_orderstatus = 'O' THEN 1 ELSE 0 END) AS BIGINT) AS n_open,
       CAST(sum(CASE WHEN o_orderstatus = 'F' THEN 1 ELSE 0 END) AS BIGINT) AS n_finished
FROM orders GROUP BY o_custkey
"""


# ------------------------------------------------------ sort / topk --

def topk_orders(sf_dir: str):
    """Global sort + limit with deterministic tie-break."""
    return (_read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
            .sort(["o_totalprice", "o_orderkey"], descending=[True, False])
            .limit(10))


TOPK_SQL = """
SELECT o_orderkey, o_custkey, o_totalprice
FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
"""


def distinct_priorities(sf_dir: str):
    """Set op: distinct values (shuffle)."""
    ds = _read(sf_dir, "orders", ["o_orderpriority"])
    vals = sorted(ds.unique("o_orderpriority"))
    return pa.table({"o_orderpriority": pa.array(vals, pa.string())})


DISTINCT_SQL = "SELECT DISTINCT o_orderpriority FROM orders"


# --------------------------------------------------------- filters --

def json_extract_events(sf_dir: str):
    """JSON payload extraction + aggregate (reference M11: the event
    pipeline's JSON (de)serialization step, commonhandler's row-dict
    parsing) — ``props`` holds a JSON object per event; extract the
    numeric ``k`` field and aggregate per event type.  Parse happens
    inside map_batches (per-string like tokenization; a SIMD JSON /
    Arrow-native kernel is the drop-in upgrade at scale), and only
    per-(event_type) partials cross the exchange."""
    import json as _json

    from ray.data.aggregate import Max, Sum

    def partial(t: pa.Table) -> pa.Table:
        # events whose JSON lacks k are invisible (SQL: WHERE k IS NOT
        # NULL) — the NULL-group semantics of sum/max don't survive a
        # partial-aggregate plan, so exclusion is the exact contract
        raw = [_json.loads(s).get("k") for s in t["props"].to_pylist()]
        keep = pa.array([v is not None for v in raw])
        ks = np.array([v for v in raw if v is not None], dtype=np.int64)
        t2 = pa.table({"event_type": t["event_type"].filter(keep),
                       "k": pa.array(ks, pa.int64()),
                       "one": pa.array(np.ones(len(ks), np.int64))})
        g = t2.group_by("event_type").aggregate(
            [("one", "sum"), ("k", "sum"), ("k", "max")])
        return g.rename_columns(["event_type", "n", "sum_k", "max_k"])

    out = (_read(sf_dir, "events", ["event_type", "props"])
           .map_batches(partial, batch_format="pyarrow",
                        zero_copy_batch=True)
           .groupby("event_type")
           .aggregate(Sum("n", alias_name="n"),
                      Sum("sum_k", alias_name="sum_k"),
                      Max("max_k", alias_name="max_k")))
    t = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow")))
    t = pa.table({"event_type": t["event_type"],
                  "n": t["n"].cast(pa.int64()),
                  "sum_k": t["sum_k"].cast(pa.int64()),
                  "max_k": t["max_k"].cast(pa.int64())})
    return t.take(pc.sort_indices(t, sort_keys=[
        ("event_type", "ascending")]))


JSON_EXTRACT_SQL = """
WITH ext AS (
  SELECT event_type,
         CAST(json_extract(props, '$.k') AS BIGINT) AS k
  FROM events)
SELECT event_type,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(k) AS BIGINT) AS sum_k,
       CAST(max(k) AS BIGINT) AS max_k
FROM ext
WHERE k IS NOT NULL
GROUP BY event_type
ORDER BY event_type
"""


def filter_ops_events(sf_dir: str):
    """M2 filter-predicate semantics: IN-list + range ops, vectorized
    (the reference's per-row filterData dict walk,
    commonhandler.py:1398-1444)."""
    def f(t: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.is_in(t["event_type"], value_set=pa.array(["click", "purchase"])),
            pc.and_(pc.greater_equal(t["value"], pa.scalar(50.0)),
                    pc.less(t["value"], pa.scalar(95.0))))
        return t.filter(mask).select(["event_id", "user_id", "event_type", "value"])

    return _read(sf_dir, "events",
                 ["event_id", "user_id", "event_type", "value"]).map_batches(
        f, batch_format="pyarrow", zero_copy_batch=True)


FILTER_OPS_SQL = """
SELECT event_id, user_id, event_type, value
FROM events
WHERE event_type IN ('click', 'purchase') AND value >= 50 AND value < 95
"""


def scalar_funcs_lineitem(sf_dir: str):
    """M5/M6 scalar-function surface (max/min/sum/abs over same-row
    fields, common.py:129-148) as pyarrow kernels."""
    def f(t: pa.Table) -> pa.Table:
        charge = pc.multiply(pc.multiply(t["l_extendedprice"],
                                         pc.add(pa.scalar(1.0), t["l_tax"])),
                             pc.subtract(pa.scalar(1.0), t["l_discount"]))
        qty_over = pc.max_element_wise(pc.subtract(t["l_quantity"], pa.scalar(10.0)),
                                       pa.scalar(0.0))
        disc_mag = pc.abs(pc.subtract(t["l_discount"], pa.scalar(0.05)))
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "l_linenumber": t["l_linenumber"],
                         "charge": charge, "qty_over": qty_over,
                         "disc_mag": disc_mag})

    return _read(sf_dir, "lineitem",
                 ["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice",
                  "l_discount", "l_tax"]).map_batches(
        f, batch_format="pyarrow", zero_copy_batch=True)


SCALAR_FUNCS_SQL = """
SELECT l_orderkey, l_linenumber,
       l_extendedprice * (1 + l_tax) * (1 - l_discount) AS charge,
       greatest(l_quantity - 10.0, 0.0)                 AS qty_over,
       abs(l_discount - 0.05)                           AS disc_mag
FROM lineitem
"""


def scalar_dsl_lineitem(sf_dir: str):
    """M5 scalar-function *DSL* (the reference's nested-call mini
    language, common.py:32-127) compiled ONCE to vectorized pyarrow
    closures in mee_ray.functions, then applied per batch."""
    from mee_ray.functions import compile_expr

    exprs = {
        "qty_capped": compile_expr("min(l_quantity, echo(30.0))"),
        "best_rate": compile_expr("max(l_discount, l_tax)"),
        "spread": compile_expr("abs(sum(l_discount, -l_tax))"),
    }

    def f(t: pa.Table) -> pa.Table:
        cols = {"l_orderkey": t["l_orderkey"], "l_linenumber": t["l_linenumber"]}
        for name, fn in exprs.items():
            cols[name] = fn(t)
        return pa.table(cols)

    return _read(sf_dir, "lineitem",
                 ["l_orderkey", "l_linenumber", "l_quantity",
                  "l_discount", "l_tax"]).map_batches(
        f, batch_format="pyarrow", zero_copy_batch=True)


SCALAR_DSL_SQL = """
SELECT l_orderkey, l_linenumber,
       least(l_quantity, 30.0)        AS qty_capped,
       greatest(l_discount, l_tax)    AS best_rate,
       abs(l_discount + (-l_tax))     AS spread
FROM lineitem
"""


# --------------------------------------- latest-wins / windows / CDC --

def session_windows_events(sf_dir: str, gap_minutes: int = 30,
                           n_buckets: int = 64):
    """Gap-based sessionization (SURVEY.md §2.9 streaming semantics):
    per user, a new session starts when the gap to the previous event
    exceeds ``gap_minutes``.

    Shuffle granularity: grouping by RAW user_id makes one Python
    map_groups call per user (thousands of tiny groups — measured 4×
    slower); instead users hash into ``n_buckets`` shuffle keys and
    each group handles MANY users in one vectorized pass (new-session
    mask = user-change OR gap, then diff/cumsum — no per-event loop)."""
    gap_us = gap_minutes * 60 * 1_000_000

    def bucket(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        return t.append_column("bucket",
                               pa.array(uid % n_buckets, pa.int64()))

    def sessions(g: pa.Table) -> pa.Table:
        order = pc.sort_indices(g, sort_keys=[("user_id", "ascending"),
                                              ("ts", "ascending"),
                                              ("event_id", "ascending")])
        g = g.take(order)
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        us = g["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        n = len(uid)
        new_sess = np.ones(n, dtype=bool)
        if n > 1:
            new_sess[1:] = (uid[1:] != uid[:-1]) | (np.diff(us) > gap_us)
        starts = np.flatnonzero(new_sess)
        ends = np.append(starts[1:], n) - 1
        # per-user 1-based session numbering: global session ordinal
        # minus the ordinal of the user's first session
        sess_ord = np.arange(1, len(starts) + 1)
        user_first = np.ones(len(starts), dtype=bool)
        if len(starts) > 1:
            user_first[1:] = uid[starts[1:]] != uid[starts[:-1]]
        first_ord = np.maximum.accumulate(np.where(user_first, sess_ord, 0))
        return pa.table({
            "user_id": pa.array(uid[starts], pa.int64()),
            "session_id": pa.array(sess_ord - first_ord + 1, pa.int64()),
            "n_events": pa.array(ends - starts + 1, pa.int64()),
            "duration_us": pa.array(us[ends] - us[starts], pa.int64()),
        })

    return (_read(sf_dir, "events", ["user_id", "event_id", "ts"])
            .map_batches(bucket, batch_format="pyarrow", zero_copy_batch=True)
            .groupby("bucket").map_groups(sessions, batch_format="pyarrow"))


def asof_join_purchase_click(sf_dir: str, n_buckets: int = 64):
    """AS-OF join — a custom operator Ray Data lacks (task brief):
    each purchase event joins the LATEST click of the same user at or
    before its timestamp.

    Plan: one groupby(user-bucket) shuffle co-locates each user's
    purchases and clicks; inside a group both sides sort once and a
    vectorized ``np.searchsorted`` finds every purchase's predecessor
    click (no per-row loop, no window re-scan).  Partitioning
    assumption documented per the brief: correctness requires both
    sides of one user in one group — guaranteed by bucketing on
    user_id alone."""

    def bucket(t: pa.Table) -> pa.Table:
        mask = pc.is_in(t["event_type"],
                        value_set=pa.array(["purchase", "click"]))
        t = t.filter(mask)
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        return t.append_column("bucket", pa.array(uid % n_buckets, pa.int64()))

    def asof(g: pa.Table) -> pa.Table:
        # vectorized membership (a Python loop over every event string
        # was the dominant non-vectorized cost in this operator)
        is_p = pc.fill_null(
            pc.equal(g["event_type"], pa.scalar("purchase")),
            False).to_numpy(zero_copy_only=False)
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        us = g["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)

        # clicks sorted by (user, ts, event_id): ties on ts resolve to
        # the largest event_id — mirrored in the oracle's dedup CTE
        ci = np.flatnonzero(~is_p)
        pi = np.flatnonzero(is_p)
        if len(pi) == 0:
            return pa.table({
                "user_id": pa.array([], pa.int64()),
                "purchase_id": pa.array([], pa.int64()),
                "purchase_us": pa.array([], pa.int64()),
                "click_id": pa.array([], pa.int64()),
                "gap_us": pa.array([], pa.int64()),
            })
        corder = ci[np.lexsort((eid[ci], us[ci], uid[ci]))]
        cu, cts, cid = uid[corder], us[corder], eid[corder]
        porder = pi[np.lexsort((eid[pi], us[pi], uid[pi]))]
        pu, pts, pid = uid[porder], us[porder], eid[porder]

        # per-user block binary search: user boundaries once, then one
        # vectorized searchsorted per user (users per bucket is small;
        # events per user is not — the inner step stays vectorized)
        click_id = np.full(len(pu), -1, dtype=np.int64)
        gap_us = np.full(len(pu), -1, dtype=np.int64)
        pu_vals, pu_starts = np.unique(pu, return_index=True)
        pu_ends = np.append(pu_starts[1:], len(pu))
        for u, plo, phi in zip(pu_vals, pu_starts, pu_ends):
            clo = np.searchsorted(cu, u, side="left")
            chi = np.searchsorted(cu, u, side="right")
            if clo == chi:
                continue
            pos = np.searchsorted(cts[clo:chi], pts[plo:phi],
                                  side="right") - 1
            hit = pos >= 0
            idx = clo + np.maximum(pos, 0)
            click_id[plo:phi] = np.where(hit, cid[idx], -1)
            gap_us[plo:phi] = np.where(hit, pts[plo:phi] - cts[idx], -1)
        return pa.table({
            "user_id": pa.array(pu, pa.int64()),
            "purchase_id": pa.array(pid, pa.int64()),
            "purchase_us": pa.array(pts, pa.int64()),
            "click_id": pa.array(click_id),
            "gap_us": pa.array(gap_us),
        })

    return (_read(sf_dir, "events", ["user_id", "event_id", "ts", "event_type"])
            .map_batches(bucket, batch_format="pyarrow", zero_copy_batch=True)
            .groupby("bucket").map_groups(asof, batch_format="pyarrow"))


ASOF_SQL = """
WITH purchases AS (
  SELECT user_id, event_id AS purchase_id, epoch_us(ts) AS purchase_us
  FROM events WHERE event_type = 'purchase'
), clicks AS (
  -- dedupe ts ties to the largest event_id so the as-of pick is
  -- deterministic on both engines
  SELECT user_id, epoch_us(ts) AS click_us,
         max(event_id) AS click_id
  FROM events WHERE event_type = 'click'
  GROUP BY user_id, epoch_us(ts)
)
SELECT p.user_id, p.purchase_id, p.purchase_us,
       coalesce(c.click_id, -1)                  AS click_id,
       coalesce(p.purchase_us - c.click_us, -1)  AS gap_us
FROM purchases p
ASOF LEFT JOIN clicks c
  ON p.user_id = c.user_id AND p.purchase_us >= c.click_us
"""


SESSION_SQL = """
WITH ordered AS (
  SELECT user_id, event_id, ts,
         CASE WHEN epoch_us(ts) - lag(epoch_us(ts))
                   OVER (PARTITION BY user_id ORDER BY ts, event_id)
                   > 30 * 60 * 1000000
              OR lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)
                 IS NULL
              THEN 1 ELSE 0 END AS is_new
  FROM events
), numbered AS (
  SELECT user_id, ts,
         CAST(sum(is_new) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id
  FROM ordered
)
SELECT user_id, session_id,
       count(*) AS n_events,
       max(epoch_us(ts)) - min(epoch_us(ts)) AS duration_us
FROM numbered
GROUP BY user_id, session_id
"""

def latest_event_per_user(sf_dir: str, n_buckets: int = 64):
    """U3 latest-wins by (ts, event_id) per key — the delta
    last-writer-wins semantic (SURVEY.md §2.9).

    Same shuffle discipline as session_windows_events: users hash into
    ``n_buckets`` groups (not one tiny Python group per user) and each
    group resolves MANY users in one vectorized pass — sort by
    (user, ts, event_id), keep each user's last row via a boundary
    mask.  Per-batch combiners shrink the exchange to ≤1 row per user
    per batch before the groupby."""

    def bucket_and_combine(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((t["event_id"].to_numpy(zero_copy_only=False),
                            t["ts"].cast(pa.int64())
                            .to_numpy(zero_copy_only=False), uid))
        t = t.take(pa.array(order))
        uid = uid[order]
        last = np.ones(len(uid), dtype=bool)
        last[:-1] = uid[1:] != uid[:-1]
        t = t.filter(pa.array(last))
        return t.append_column(
            "bucket", pa.array(t["user_id"].to_numpy(zero_copy_only=False)
                               % n_buckets, pa.int64()))

    def latest_of_bucket(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((g["event_id"].to_numpy(zero_copy_only=False),
                            g["ts"].cast(pa.int64())
                            .to_numpy(zero_copy_only=False), uid))
        g = g.take(pa.array(order))
        uid = uid[order]
        last = np.ones(len(uid), dtype=bool)
        last[:-1] = uid[1:] != uid[:-1]
        return g.filter(pa.array(last)).select(
            ["user_id", "event_id", "event_type", "value"])

    return (_read(sf_dir, "events", ["user_id", "event_id", "ts",
                                     "event_type", "value"])
            .map_batches(bucket_and_combine, batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby("bucket")
            .map_groups(latest_of_bucket, batch_format="pyarrow"))


LATEST_SQL = """
SELECT user_id, event_id, event_type, value
FROM events
QUALIFY row_number() OVER (PARTITION BY user_id ORDER BY ts DESC, event_id DESC) = 1
"""


def tumbling_window_events(sf_dir: str):
    """Streaming-shaped tumbling window (1h) as a grouped aggregate —
    Ray Data has no watermarks; the event-time bucket IS the key
    (SURVEY.md §2.9)."""
    from ray.data.aggregate import Count, Sum

    def bucket(t: pa.Table) -> pa.Table:
        # per-batch COMBINER: pre-aggregate (user, hour) partials with
        # pyarrow's C++ group_by before the shuffle — only one row per
        # key per batch crosses the exchange.  Sum in integer cents so
        # partial-sum order cannot perturb the float result
        # (half_towards_infinity == SQL round; np.rint's half-to-even
        # diverges on exact .5 products).
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        cents = pc.cast(pc.round(
            pc.multiply(t["value"], pa.scalar(100.0)),
            options=pc.RoundOptions(round_mode="half_towards_infinity")),
            pa.int64()).to_numpy(zero_copy_only=False)
        part = pa.table({"user_id": t["user_id"],
                         "hour_bucket": pa.array(us // 3_600_000_000, pa.int64()),
                         "cents": pa.array(cents)})
        g = part.group_by(["user_id", "hour_bucket"]).aggregate(
            [("cents", "count"), ("cents", "sum")])
        return g.rename_columns(["user_id", "hour_bucket", "n_part",
                                 "cents_part"])

    out = (_read(sf_dir, "events", ["user_id", "ts", "value"])
           .map_batches(bucket, batch_format="pyarrow", zero_copy_batch=True)
           .groupby(["user_id", "hour_bucket"])
           .aggregate(Sum("n_part", alias_name="n_events"),
                      Sum("cents_part", alias_name="sum_value_cents")))

    def finish(t: pa.Table) -> pa.Table:
        return t.set_column(t.schema.get_field_index("n_events"), "n_events",
                            t["n_events"].cast(pa.int64()))

    return out.map_batches(finish, batch_format="pyarrow")


TUMBLING_SQL = """
-- floor() division: DuckDB's integer // truncates toward zero, while
-- the engine's numpy // floors — they differ on pre-1970 timestamps
SELECT user_id,
       CAST(floor(epoch_us(ts) / 3600000000.0) AS BIGINT) AS hour_bucket,
       count(*) AS n_events,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS sum_value_cents
FROM events GROUP BY user_id, hour_bucket
"""


def event_type_routing(sf_dir: str):
    """M10 trigger routing (INSERT|UPDATE|DELETE bitmask,
    modules/handlers/__init__.py:37-52) as a vectorized CASE + count."""
    from ray.data.aggregate import Sum

    def f(t: pa.Table) -> pa.Table:
        et = t["event_type"].to_numpy(zero_copy_only=False)
        route = np.select([np.isin(et, ["signup", "purchase"]),
                           np.isin(et, ["click", "view"])],
                          ["mutate", "read"], default="other")
        t2 = pa.table({"route": pa.array(route.tolist(), pa.string()),
                       "one": pa.array(np.ones(len(et), dtype=np.int64))})
        return (t2.group_by("route").aggregate([("one", "sum")])
                .rename_columns(["route", "n"]))

    return (_read(sf_dir, "events", ["event_type"])
            .map_batches(f, batch_format="pyarrow", zero_copy_batch=True)
            .groupby("route").aggregate(Sum("n", alias_name="n")))


ROUTING_SQL = """
SELECT CASE WHEN event_type IN ('signup', 'purchase') THEN 'mutate'
            WHEN event_type IN ('click', 'view') THEN 'read'
            ELSE 'other' END AS route,
       count(*) AS n
FROM events GROUP BY route
"""


# --------------------------------------------------- semi/anti join --

def _custkey_set(sf_dir: str) -> np.ndarray:
    import pyarrow.parquet as pq
    ck = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey"])
    keys = ck["c_custkey"].to_numpy(zero_copy_only=False)
    return np.sort(keys[keys < 100])


def _events_by_membership(sf_dir: str, keep_members: bool):
    """Broadcast key-set semi/anti join (the guide's Bloom/keyset
    pattern): no shuffle of the fact table."""
    import ray
    from ray.data.aggregate import Sum

    ref = ray.put(_custkey_set(sf_dir))

    def f(t: pa.Table) -> pa.Table:
        keys = ray.get(ref)
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        member = np.isin(uid, keys)
        t = t.filter(pa.array(member if keep_members else ~member))
        g = (pa.table({"event_type": t["event_type"],
                       "one": pa.array(np.ones(t.num_rows, dtype=np.int64))})
             .group_by("event_type").aggregate([("one", "sum")]))
        return g.rename_columns(["event_type", "n"])

    out = (_read(sf_dir, "events", ["user_id", "event_type"])
           .map_batches(f, batch_format="pyarrow", zero_copy_batch=True)
           .groupby("event_type").aggregate(Sum("n", alias_name="n")))
    # tiny result; materialize with a guaranteed schema (an empty Ray
    # groupby result otherwise drops the column names entirely)
    schema = pa.schema([("event_type", pa.string()), ("n", pa.int64())])
    batches = [b.cast(schema) for b in out.iter_batches(batch_format="pyarrow",
                                                        batch_size=1 << 20)]
    return pa.concat_tables(batches or [schema.empty_table()])


def semi_join_events_customers(sf_dir: str):
    return _events_by_membership(sf_dir, True)


def anti_join_events_customers(sf_dir: str):
    return _events_by_membership(sf_dir, False)


SEMI_SQL = """
SELECT event_type, count(*) AS n FROM events
WHERE user_id IN (SELECT c_custkey FROM customer WHERE c_custkey < 100)
GROUP BY event_type
"""

ANTI_SQL = """
SELECT event_type, count(*) AS n FROM events
WHERE user_id NOT IN (SELECT c_custkey FROM customer WHERE c_custkey < 100)
GROUP BY event_type
"""


def quantiles_events(sf_dir: str):
    """Exact distributed quantiles over a bounded-precision value
    (A-family depth: percentile aggregates).

    100-TB shape: values are integer cents, so the EXACT quantile is
    computable from a histogram — per-batch pyarrow combiners emit
    (event_type, cent, count) partials, the only shuffle carries
    distinct (type, cent) pairs (bounded by the value range, not the
    row count), and a tiny driver finish does cumsum + threshold.  The
    quantile rule is order-statistic-exact and SQL-expressible: the
    smallest cent whose running count reaches ceil(q·n)."""
    from ray.data.aggregate import Sum

    def cent_counts(t: pa.Table) -> pa.Table:
        # half_towards_infinity == SQL round()'s half-away-from-zero
        # (pyarrow's default half_to_even would diverge on exact .5)
        cents = pc.cast(pc.round(pc.multiply(t["value"], 100.0),
                                 options=pc.RoundOptions(
                                     round_mode="half_towards_infinity")),
                        pa.int64())
        g = (pa.table({"event_type": t["event_type"], "cent": cents})
             .group_by(["event_type", "cent"]).aggregate([([], "count_all")]))
        return g.rename_columns(["event_type", "cent", "n_part"])

    hist = (_read(sf_dir, "events", ["event_type", "value"])
            .map_batches(cent_counts, batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby(["event_type", "cent"])
            .aggregate(Sum("n_part", alias_name="cnt")))
    blocks = list(hist.iter_batches(batch_format="pyarrow",
                                    batch_size=1 << 20))
    if not blocks:
        return pa.table({"event_type": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64()),
                         "p50_cents": pa.array([], pa.int64()),
                         "p90_cents": pa.array([], pa.int64()),
                         "p99_cents": pa.array([], pa.int64())})
    t = pa.concat_tables(blocks)
    ets = np.asarray(t["event_type"].to_pylist(), dtype=object)
    cents = t["cent"].to_numpy(zero_copy_only=False)
    cnts = t["cnt"].to_numpy(zero_copy_only=False)
    order = np.lexsort((cents, ets))
    ets, cents, cnts = ets[order], cents[order], cnts[order]
    out = {"event_type": [], "n": [], "p50_cents": [], "p90_cents": [],
           "p99_cents": []}
    import math
    for et in sorted(set(ets.tolist())):
        m = ets == et
        c, k = cents[m], cnts[m]
        run = np.cumsum(k)
        n = int(run[-1])
        out["event_type"].append(et)
        out["n"].append(n)
        for q, col in ((0.5, "p50_cents"), (0.9, "p90_cents"),
                       (0.99, "p99_cents")):
            need = math.ceil(q * n)
            out[col].append(int(c[np.searchsorted(run, need)]))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "n": pa.array(out["n"], pa.int64()),
        "p50_cents": pa.array(out["p50_cents"], pa.int64()),
        "p90_cents": pa.array(out["p90_cents"], pa.int64()),
        "p99_cents": pa.array(out["p99_cents"], pa.int64()),
    })


QUANTILES_SQL = """
WITH c AS (
  SELECT event_type, CAST(round(value * 100) AS BIGINT) AS cent
  FROM events
), tot AS (
  SELECT event_type, count(*) AS n FROM c GROUP BY event_type
), cum AS (
  SELECT event_type, cent,
         sum(count(*)) OVER (PARTITION BY event_type ORDER BY cent) AS run
  FROM c GROUP BY event_type, cent
)
SELECT tot.event_type, tot.n,
  CAST(min(CASE WHEN run >= CAST(ceil(0.5  * n) AS BIGINT) THEN cent END) AS BIGINT) AS p50_cents,
  CAST(min(CASE WHEN run >= CAST(ceil(0.9  * n) AS BIGINT) THEN cent END) AS BIGINT) AS p90_cents,
  CAST(min(CASE WHEN run >= CAST(ceil(0.99 * n) AS BIGINT) THEN cent END) AS BIGINT) AS p99_cents
FROM cum JOIN tot USING (event_type)
GROUP BY tot.event_type, tot.n
"""


def extended_stats_events(sf_dir: str):
    """ES ``extended_stats`` aggregation per event_type: count, sum,
    min, max, avg, POPULATION variance, std deviation, and sum of
    squares.  Exact-integer discipline: per-batch combiners emit int64
    partial (n, Σcents, Σcents², min, max); only one row per type per
    batch crosses the exchange; the float finish (mean, variance =
    Σc²/n − mean², std = √variance) applies ONCE to the exact integers
    with the oracle's identical IEEE expression tree, so values are
    bit-equal.  Σcents² stays well inside int64 here (|cent| ≤ ~10⁵ ⇒
    10¹⁰/row); a 100-TB run would split the square into hi/lo int64
    lanes or a float128 lane — documented, not needed at bench scale."""
    from ray.data.aggregate import Max, Min, Sum

    def partial(t: pa.Table) -> pa.Table:
        cents = _cents_of(t["value"])
        sq = pc.multiply(cents, cents)
        g = (pa.table({"event_type": t["event_type"], "c": cents,
                       "sq": sq})
             .group_by("event_type")
             .aggregate([("c", "count"), ("c", "sum"), ("sq", "sum"),
                         ("c", "min"), ("c", "max")]))
        return g.rename_columns(["event_type", "n_p", "s_p", "sq_p",
                                 "mn_p", "mx_p"])

    agg = (_read(sf_dir, "events", ["event_type", "value"])
           .map_batches(partial, batch_format="pyarrow",
                        zero_copy_batch=True)
           .groupby("event_type")
           .aggregate(Sum("n_p", alias_name="n"),
                      Sum("s_p", alias_name="sum_cents"),
                      Sum("sq_p", alias_name="sumsq_cents"),
                      Min("mn_p", alias_name="min_cents"),
                      Max("mx_p", alias_name="max_cents")))
    blocks = list(agg.iter_batches(batch_format="pyarrow"))
    cols = ["event_type", "n", "sum_cents", "sumsq_cents", "min_cents",
            "max_cents", "avg_cents", "variance_cents", "std_cents"]
    if not blocks:
        return pa.table({c: pa.array([], pa.string() if c == "event_type"
                                     else pa.float64() if "_cents" in c
                                     and c not in ("sum_cents",
                                                   "sumsq_cents",
                                                   "min_cents",
                                                   "max_cents")
                                     else pa.int64()) for c in cols})
    t = pa.concat_tables(blocks).sort_by("event_type")
    n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
    s = t["sum_cents"].to_numpy(zero_copy_only=False).astype(np.float64)
    sq = t["sumsq_cents"].to_numpy(zero_copy_only=False
                                   ).astype(np.float64)
    mean = s / n
    # clamp: Σc²/n − mean² can round to −ε on a (near-)constant group
    # once Σc² is large; DuckDB's sqrt(−ε) hard-errors and numpy's is
    # NaN, so both sides clamp with the same greatest(var, 0) form
    var = np.maximum(sq / n - mean * mean, 0.0)
    return pa.table({
        "event_type": t["event_type"],
        "n": t["n"], "sum_cents": t["sum_cents"],
        "sumsq_cents": t["sumsq_cents"],
        "min_cents": t["min_cents"], "max_cents": t["max_cents"],
        "avg_cents": pa.array(mean, pa.float64()),
        "variance_cents": pa.array(var, pa.float64()),
        "std_cents": pa.array(np.sqrt(var), pa.float64())})


# the float finish is written with the engine's exact op order —
# (Σc²/n) − (Σc/n)·(Σc/n) — so IEEE determinism gives bit-equality
EXTENDED_STATS_SQL = """
WITH c AS (
  SELECT event_type, CAST(round(value * 100) AS BIGINT) AS cent
  FROM events),
agg AS (
  SELECT event_type,
         count(*) AS n,
         CAST(sum(cent) AS BIGINT) AS sum_cents,
         CAST(sum(cent * cent) AS BIGINT) AS sumsq_cents,
         min(cent) AS min_cents, max(cent) AS max_cents
  FROM c GROUP BY event_type)
SELECT event_type, n, sum_cents, sumsq_cents, min_cents, max_cents,
       CAST(sum_cents AS DOUBLE) / n AS avg_cents,
       greatest(CAST(sumsq_cents AS DOUBLE) / n
                - (CAST(sum_cents AS DOUBLE) / n)
                  * (CAST(sum_cents AS DOUBLE) / n), 0) AS variance_cents,
       sqrt(greatest(CAST(sumsq_cents AS DOUBLE) / n
                     - (CAST(sum_cents AS DOUBLE) / n)
                       * (CAST(sum_cents AS DOUBLE) / n), 0)) AS std_cents
FROM agg
"""


def mad_events(sf_dir: str):
    """ES ``median_absolute_deviation`` aggregation per event_type —
    EXACT (ES's is TDigest-approximate): median = the smallest cent
    whose running count reaches ceil(n/2) (the quantiles_events order
    statistic), MAD = the same statistic over |cent − median|.  The
    only shuffle carries distinct (type, cent) pairs — the deviation
    histogram is derived on the driver from that same bounded table
    (re-bucketing |cent − med| needs no second pass over the data)."""
    from ray.data.aggregate import Sum

    def cent_counts(t: pa.Table) -> pa.Table:
        cents = _cents_of(t["value"])
        g = (pa.table({"event_type": t["event_type"], "cent": cents})
             .group_by(["event_type", "cent"])
             .aggregate([([], "count_all")]))
        return g.rename_columns(["event_type", "cent", "n_part"])

    hist = (_read(sf_dir, "events", ["event_type", "value"])
            .map_batches(cent_counts, batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby(["event_type", "cent"])
            .aggregate(Sum("n_part", alias_name="cnt")))
    blocks = list(hist.iter_batches(batch_format="pyarrow",
                                    batch_size=1 << 20))
    if not blocks:
        return pa.table({"event_type": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64()),
                         "median_cents": pa.array([], pa.int64()),
                         "mad_cents": pa.array([], pa.int64())})
    import math
    t = pa.concat_tables(blocks)
    ets = np.asarray(t["event_type"].to_pylist(), dtype=object)
    cents = t["cent"].to_numpy(zero_copy_only=False)
    cnts = t["cnt"].to_numpy(zero_copy_only=False)
    order = np.lexsort((cents, ets))
    ets, cents, cnts = ets[order], cents[order], cnts[order]

    def order_stat(c: np.ndarray, k: np.ndarray, q: float) -> int:
        run = np.cumsum(k)
        need = math.ceil(q * int(run[-1]))
        return int(c[np.searchsorted(run, need)])

    out = {"event_type": [], "n": [], "median_cents": [],
           "mad_cents": []}
    for et in sorted(set(ets.tolist())):
        m = ets == et
        c, k = cents[m], cnts[m]
        med = order_stat(c, k, 0.5)
        dev = np.abs(c - med)
        dorder = np.argsort(dev, kind="stable")
        dev, dk = dev[dorder], k[dorder]
        uniq, first = np.unique(dev, return_index=True)
        dcnt = np.add.reduceat(dk, first)
        out["event_type"].append(et)
        out["n"].append(int(k.sum()))
        out["median_cents"].append(med)
        out["mad_cents"].append(order_stat(uniq, dcnt, 0.5))
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "n": pa.array(out["n"], pa.int64()),
        "median_cents": pa.array(out["median_cents"], pa.int64()),
        "mad_cents": pa.array(out["mad_cents"], pa.int64())})


MAD_SQL = """
WITH c AS (
  SELECT event_type, CAST(round(value * 100) AS BIGINT) AS cent
  FROM events),
tot AS (SELECT event_type, count(*) AS n FROM c GROUP BY event_type),
cum AS (
  SELECT event_type, cent,
         sum(count(*)) OVER (PARTITION BY event_type ORDER BY cent)
           AS run
  FROM c GROUP BY event_type, cent),
med AS (
  SELECT cum.event_type,
         CAST(min(CASE WHEN run >= CAST(ceil(0.5 * n) AS BIGINT)
                       THEN cent END) AS BIGINT) AS med
  FROM cum JOIN tot USING (event_type)
  GROUP BY cum.event_type),
dev AS (
  SELECT c.event_type, abs(c.cent - med.med) AS d
  FROM c JOIN med ON med.event_type = c.event_type),
dcum AS (
  SELECT event_type, d,
         sum(count(*)) OVER (PARTITION BY event_type ORDER BY d)
           AS run
  FROM dev GROUP BY event_type, d)
SELECT tot.event_type, tot.n, med.med AS median_cents,
       CAST(min(CASE WHEN run >= CAST(ceil(0.5 * n) AS BIGINT)
                     THEN d END) AS BIGINT) AS mad_cents
FROM dcum
JOIN tot USING (event_type)
JOIN med ON med.event_type = dcum.event_type
GROUP BY tot.event_type, tot.n, med.med
"""


def top_metrics_events(sf_dir: str):
    """ES ``top_metrics`` aggregation per event_type: the metric
    (``value``, emitted as exact cents) of the row at the TOP of the
    sort (ts desc, event_id desc — the deterministic tie-break ES
    leaves unspecified).  Same combiner discipline as
    latest_event_per_user: per-batch argmax keeps ≤1 row per type per
    batch before one tiny groupby."""

    def argmax_per_type(t: pa.Table) -> pa.Table:
        et = np.asarray(t["event_type"].to_pylist(), dtype=object)
        order = np.lexsort((t["event_id"].to_numpy(zero_copy_only=False),
                            t["ts"].cast(pa.int64())
                            .to_numpy(zero_copy_only=False), et))
        t = t.take(pa.array(order))
        et = et[order]
        last = np.ones(len(et), dtype=bool)
        last[:-1] = et[1:] != et[:-1]
        return t.filter(pa.array(last))

    def finish(g: pa.Table) -> pa.Table:
        g = argmax_per_type(g)
        cents = _cents_of(g["value"])
        return pa.table({"event_type": g["event_type"],
                         "top_ts_us": g["ts"].cast(pa.int64()),
                         "top_event_id": g["event_id"],
                         "top_value_cents": cents})

    return (_read(sf_dir, "events", ["event_type", "event_id", "ts",
                                     "value"])
            .map_batches(argmax_per_type, batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby("event_type")
            .map_groups(finish, batch_format="pyarrow"))


TOP_METRICS_SQL = """
SELECT event_type,
       epoch_us(ts) AS top_ts_us,
       event_id AS top_event_id,
       CAST(round(value * 100) AS BIGINT) AS top_value_cents
FROM (SELECT *, row_number() OVER (PARTITION BY event_type
                                   ORDER BY ts DESC, event_id DESC)
                  AS rn
      FROM events)
WHERE rn = 1
"""


# fixed-interval ladder for auto_date_histogram (micros); ES also
# offers calendar intervals (months/years) — deliberately out of
# scope, the fixed ladder is the deterministic distributed-friendly
# subset
_AUTO_HIST_LADDER_US = [60_000_000, 300_000_000, 1_800_000_000,
                        3_600_000_000, 10_800_000_000,
                        43_200_000_000, 86_400_000_000,
                        604_800_000_000]
_AUTO_HIST_TARGET = 40


def auto_date_histogram_events(sf_dir: str,
                               target_buckets: int = _AUTO_HIST_TARGET):
    """ES ``auto_date_histogram``: pick the SMALLEST interval from a
    fixed ladder whose floor-grid bucket count over [min ts, max ts]
    stays ≤ ``target_buckets``, then one date_histogram at that
    interval.  The min/max probe is one tiny aggregate (metadata-
    scale); the choice rule — ``floor(mx/iv) − floor(mn/iv) + 1 ≤
    target``, largest ladder entry as fallback — is deterministic and
    mirrored verbatim in SQL."""
    import ray.data
    from ray.data.aggregate import Max, Min, Sum

    def to_us(t: pa.Table) -> pa.Table:
        return pa.table({"us": t["ts"].cast(pa.int64())})

    bounds = (_read(sf_dir, "events", ["ts"])
              .map_batches(to_us, batch_format="pyarrow",
                           zero_copy_batch=True)
              .aggregate(Min("us"), Max("us")))
    mn, mx = int(bounds["min(us)"]), int(bounds["max(us)"])
    iv = _AUTO_HIST_LADDER_US[-1]
    for cand_iv in _AUTO_HIST_LADDER_US:
        if mx // cand_iv - mn // cand_iv + 1 <= target_buckets:
            iv = cand_iv
            break

    def bucket(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        part = pa.table({"bucket_us": pa.array((us // iv) * iv,
                                               pa.int64())})
        g = part.group_by("bucket_us").aggregate([([], "count_all")])
        return g.rename_columns(["bucket_us", "n_part"])

    out = (_read(sf_dir, "events", ["ts"])
           .map_batches(bucket, batch_format="pyarrow",
                        zero_copy_batch=True)
           .groupby("bucket_us")
           .aggregate(Sum("n_part", alias_name="n_events")))
    return out.map_batches(
        lambda t: t.append_column(
            "interval_us", pa.array([iv] * len(t), pa.int64())),
        batch_format="pyarrow")


def _auto_hist_sql() -> str:
    ladder = _AUTO_HIST_LADDER_US
    pick = f"{ladder[-1]}"
    for cand_iv in reversed(ladder[:-1]):
        pick = (f"CASE WHEN mx // {cand_iv} - mn // {cand_iv} + 1 "
                f"<= {_AUTO_HIST_TARGET} THEN {cand_iv} "
                f"ELSE {pick} END")
    return f"""
WITH b AS (SELECT min(epoch_us(ts)) AS mn, max(epoch_us(ts)) AS mx
           FROM events),
iv AS (SELECT ({pick}) AS us FROM b)
SELECT (epoch_us(ts) // iv.us) * iv.us AS bucket_us,
       CAST(count(*) AS BIGINT) AS n_events,
       iv.us AS interval_us
FROM events, iv
GROUP BY 1, 3
"""


AUTO_DATE_HISTOGRAM_SQL = _auto_hist_sql()


def topk_orders_per_customer(sf_dir: str, k: int = 3,
                             n_buckets: int = 64):
    """Windowed ranking (§2.7 depth): each customer's top-k orders by
    (o_totalprice DESC, o_orderkey ASC), with the rank emitted.

    Same bucketed-vectorized shuffle discipline as sessionization:
    per-batch combiners keep ≤k rows per customer per batch, customers
    hash into n_buckets groups, and each group ranks MANY customers in
    one lexsort + segmented-cumcount pass — no per-customer Python."""

    def topk_of(t: pa.Table, with_bucket: bool) -> pa.Table:
        cust = t["o_custkey"].to_numpy(zero_copy_only=False)
        price = t["o_totalprice"].to_numpy(zero_copy_only=False)
        okey = t["o_orderkey"].to_numpy(zero_copy_only=False)
        order = np.lexsort((okey, -price, cust))
        cust_s = cust[order]
        new = np.ones(len(cust_s), dtype=bool)
        new[1:] = cust_s[1:] != cust_s[:-1]
        # rank within customer = position - position of group start
        pos = np.arange(len(cust_s))
        start = np.maximum.accumulate(np.where(new, pos, 0))
        rank = pos - start + 1
        keep = rank <= k
        t = t.take(pa.array(order[keep]))
        t = t.append_column("rank", pa.array(rank[keep], pa.int64()))
        if with_bucket:
            t = t.append_column(
                "bucket", pa.array(t["o_custkey"]
                                   .to_numpy(zero_copy_only=False)
                                   % n_buckets, pa.int64()))
        return t

    def combine(t: pa.Table) -> pa.Table:
        return topk_of(t, with_bucket=True).drop_columns(["rank"])

    def finish(g: pa.Table) -> pa.Table:
        return topk_of(g, with_bucket=False).select(
            ["o_custkey", "rank", "o_orderkey", "o_totalprice"])

    return (_read(sf_dir, "orders",
                  ["o_custkey", "o_orderkey", "o_totalprice"])
            .map_batches(combine, batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby("bucket")
            .map_groups(finish, batch_format="pyarrow"))


TOPK_PER_CUST_SQL = """
SELECT o_custkey, rank, o_orderkey, o_totalprice
FROM (SELECT o_custkey, o_orderkey, o_totalprice,
             row_number() OVER (PARTITION BY o_custkey
                                ORDER BY o_totalprice DESC, o_orderkey)
               AS rank
      FROM orders)
WHERE rank <= 3
"""


# ------------------------------------- hopping windows / range / lag --

HOP_US = 600_000_000          # 10-minute hop
WINDOW_HOPS = 3               # 30-minute window = 3 hops


def hopping_window_events(sf_dir: str):
    """Sliding/hopping window aggregate (size 30 min, hop 10 min):
    every event lands in ``WINDOW_HOPS`` overlapping windows.  The
    fan-out happens INSIDE the per-batch combiner — each batch emits
    ≤ windows×keys partial rows, never windows×events — then one
    small groupby finishes.  Money in integer cents so partial-sum
    order cannot perturb the result (same discipline as tumbling)."""
    from ray.data.aggregate import Sum

    def combine(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        hop = us // HOP_US
        cents = pc.cast(pc.round(
            pc.multiply(t["value"], pa.scalar(100.0)),
            options=pc.RoundOptions(round_mode="half_towards_infinity")),
            pa.int64()).to_numpy(zero_copy_only=False)
        parts = []
        for i in range(WINDOW_HOPS):
            parts.append(pa.table({
                "win_start_hop": pa.array(hop - i, pa.int64()),
                "one": pa.array(np.ones(len(us), dtype=np.int64)),
                "cents": pa.array(cents)}))
        g = (pa.concat_tables(parts).group_by("win_start_hop")
             .aggregate([("one", "sum"), ("cents", "sum")]))
        return g.rename_columns(["win_start_hop", "n_part", "cents_part"])

    out = (_read(sf_dir, "events", ["ts", "value"])
           .map_batches(combine, batch_format="pyarrow",
                        zero_copy_batch=True)
           .groupby("win_start_hop")
           .aggregate(Sum("n_part", alias_name="n_events"),
                      Sum("cents_part", alias_name="sum_value_cents")))

    def finish(t: pa.Table) -> pa.Table:
        for c in ("n_events", "sum_value_cents"):
            i = t.schema.get_field_index(c)
            t = t.set_column(i, c, t[c].cast(pa.int64()))
        return t

    return out.map_batches(finish, batch_format="pyarrow")


HOPPING_SQL = """
SELECT (CAST(floor(epoch_us(ts) / 600000000.0) AS BIGINT) - offs.i)
           AS win_start_hop,
       count(*) AS n_events,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
           AS sum_value_cents
FROM events CROSS JOIN (VALUES (0), (1), (2)) AS offs(i)
GROUP BY win_start_hop
"""


# Static band table for the range join: half-open [lo, hi) intervals,
# deliberately OVERLAPPING (promo straddles mid/premium) so the
# operator is a true interval join, not a bucketing searchsorted.
PRICE_BANDS: list[tuple[str, float, float]] = [
    ("budget", 0.0, 100_000.0),
    ("mid", 100_000.0, 250_000.0),
    ("premium", 250_000.0, 1e9),
    ("promo_100k_300k", 100_000.0, 300_000.0),
]


def range_join_orders_bands(sf_dir: str):
    """Range (interval) join — an operator Ray Data lacks (task brief):
    orders match every band whose [lo, hi) contains o_totalprice.
    The band table is tiny → broadcast semantics: each batch evaluates
    one vectorized mask per band (O(bands) kernels, no shuffle, no
    per-row loop); output is one row per (order, band) match."""

    def probe(t: pa.Table) -> pa.Table:
        v = t["o_totalprice"].to_numpy(zero_copy_only=False)
        outs = []
        for band, lo, hi in PRICE_BANDS:
            mask = (v >= lo) & (v < hi)
            if mask.any():
                m = t.filter(pa.array(mask))
                outs.append(pa.table({
                    "o_orderkey": m["o_orderkey"],
                    "band": pa.array([band] * m.num_rows, pa.string()),
                    "o_totalprice": m["o_totalprice"]}))
        if not outs:
            return pa.table({"o_orderkey": pa.array([], pa.int64()),
                             "band": pa.array([], pa.string()),
                             "o_totalprice": pa.array([], pa.float64())})
        return pa.concat_tables(outs)

    return (_read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
            .map_batches(probe, batch_format="pyarrow",
                         zero_copy_batch=True))


RANGE_JOIN_SQL = """
SELECT o_orderkey, b.band, o_totalprice
FROM orders
JOIN (VALUES ('budget', 0.0, 100000.0),
             ('mid', 100000.0, 250000.0),
             ('premium', 250000.0, 1000000000.0),
             ('promo_100k_300k', 100000.0, 300000.0)) AS b(band, lo, hi)
  ON o_totalprice >= b.lo AND o_totalprice < b.hi
"""


def event_gaps_per_user(sf_dir: str, n_buckets: int = 64):
    """lag()-style gap computation: per user, time since the previous
    event (ordered by ts, event_id).  Needs each user's full history
    co-located, so users hash into ``n_buckets`` groups (one shuffle)
    and each group resolves MANY users in one vectorized lexsort +
    boundary-mask pass — the session_windows shuffle discipline, never
    one Python group per user."""

    def add_bucket(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        return t.append_column("bucket",
                               pa.array(uid % n_buckets, pa.int64()))

    def gaps(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        us = g["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, us, uid))
        uid, eid, us = uid[order], eid[order], us[order]
        first = np.ones(len(uid), dtype=bool)
        first[1:] = uid[1:] != uid[:-1]
        prev_eid = np.zeros_like(eid)
        prev_eid[1:] = eid[:-1]
        gap = np.zeros_like(us)
        gap[1:] = us[1:] - us[:-1]
        # null out each user's first row (lag() semantics) — numpy
        # mask straight into Arrow validity, no per-row loop
        return pa.table({
            "event_id": pa.array(eid),
            "user_id": pa.array(uid),
            "prev_event_id": pa.array(prev_eid, mask=first),
            "gap_us": pa.array(gap, mask=first),
        })

    return (_read(sf_dir, "events", ["event_id", "user_id", "ts"])
            .map_batches(add_bucket, batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby("bucket")
            .map_groups(gaps, batch_format="pyarrow"))


LAG_SQL = """
SELECT event_id, user_id,
       lag(event_id) OVER w AS prev_event_id,
       epoch_us(ts) - lag(epoch_us(ts)) OVER w AS gap_us
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


def shuffle_join_lineitem_orders(sf_dir: str,
                                 num_partitions: int | None = None):
    """Large×large co-partitioned hash join: lineitem ⋈ orders on
    orderkey via Ray Data's native hash-shuffle join — both sides are
    hash-partitioned on the key into ``num_partitions`` co-located
    partitions and each partition joins independently, so peak memory
    is bounded by the largest single partition, never a whole side.
    The broadcast-join family above (J1/semi/anti) covers the
    small-side case; this is the path when BOTH sides exceed
    object-store broadcast (the reference's per-row MySQL lookups,
    modules/handlers/v1/commonhandler.py:406, have no large×large
    story at all — each probe is one round-trip).

    Scale notes: size ``num_partitions`` ≈ input_bytes /
    target_partition_bytes (both sides stream through the exchange —
    nothing materializes driver-side); a single hot key concentrates
    its partition, the engine's salting approach (ids.py) is the
    documented mitigation.  Row-level output: every joined row is
    value-checked by the driver (revenue per lineitem + the matched
    order's date and priority)."""
    import ray
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_extendedprice",
                "l_discount"])
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_orderpriority"])
    # The aggregator pool must NOT consume every CPU slot: Ray Data
    # spawns one long-lived aggregator actor per partition (1 CPU each
    # by default), and on a small cluster the pool grabs every slot
    # and deadlocks against the upstream read/map tasks (observed live
    # at num_cpus=4: 4/4 CPUs held by aggregators, "2+ pending tasks"
    # forever).  Default the partition count to cpus // 2 with 0.5-CPU
    # aggregators so the pool holds at most a quarter of the cluster
    # and producers always have slots; at real scale callers pass
    # num_partitions explicitly (≈ input_bytes / target_partition_
    # bytes) on a cluster wide enough to hold the pool.
    if num_partitions is None:
        cpus = int(ray.cluster_resources().get("CPU", 8))
        num_partitions = max(2, cpus // 2)
    j = li.join(orders, join_type="inner", num_partitions=num_partitions,
                on=("l_orderkey",), right_on=("o_orderkey",),
                aggregator_ray_remote_args={"num_cpus": 0.5})

    def finish(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "l_linenumber": t["l_linenumber"],
                         "revenue": rev,
                         "o_orderdate": t["o_orderdate"],
                         "o_orderpriority": t["o_orderpriority"]})

    return j.map_batches(finish, batch_format="pyarrow")


SHUFFLE_JOIN_SQL = """
SELECT l_orderkey, l_linenumber,
       l_extendedprice * (1 - l_discount) AS revenue,
       o_orderdate, o_orderpriority
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
"""


def q3_shipping_priority(sf_dir: str):
    """TPC-H Q3 shape (three-table join + filtered agg + top-10):
    customer(segment) ⋉ orders(date) via a broadcast KEY set (the
    small side after the filter), lineitem pre-aggregated per order
    INSIDE map_batches before the co-partitioned hash join with the
    filtered orders, then per-batch top-10 combiners + a ≤10-rows-per-
    block driver merge — the full ranking never materializes."""
    import ray
    from ray.data.aggregate import Sum

    cutoff = pa.scalar(np.datetime64("1995-03-15", "us"))
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    ckeys = np.sort(np.concatenate([
        b["c_custkey"].to_numpy(zero_copy_only=False)
        for b in cust.map_batches(
            lambda t: t.filter(pc.equal(t["c_mktsegment"],
                                        pa.scalar("BUILDING")))
                       .select(["c_custkey"]),
            batch_format="pyarrow", zero_copy_batch=True)
        .iter_batches(batch_format="pyarrow")] or
        [np.empty(0, np.int64)]))
    ckeys_ref = ray.put(ckeys)

    def filter_orders(t: pa.Table) -> pa.Table:
        ck = ray.get(ckeys_ref)
        keep = pc.and_(pc.less(t["o_orderdate"], cutoff),
                       pa.array(np.isin(
                           t["o_custkey"].to_numpy(zero_copy_only=False),
                           ck)))
        return t.filter(keep).select(
            ["o_orderkey", "o_orderdate", "o_orderpriority"])

    orders = (_read(sf_dir, "orders",
                    ["o_orderkey", "o_custkey", "o_orderdate",
                     "o_orderpriority"])
              .map_batches(filter_orders, batch_format="pyarrow",
                           zero_copy_batch=True))

    def li_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["l_shipdate"], cutoff))
        half_away = pc.RoundOptions(round_mode="half_towards_infinity")
        cents = pc.cast(pc.round(pc.multiply(
            pc.multiply(t["l_extendedprice"],
                        pc.subtract(pa.scalar(1.0), t["l_discount"])),
            pa.scalar(100.0)), options=half_away), pa.int64())
        part = pa.table({"l_orderkey": t["l_orderkey"], "cents": cents})
        g = part.group_by("l_orderkey").aggregate([("cents", "sum")])
        return g.rename_columns(["l_orderkey", "cents"])

    li = (_read(sf_dir, "lineitem",
                ["l_orderkey", "l_extendedprice", "l_discount",
                 "l_shipdate"])
          .map_batches(li_partial, batch_format="pyarrow",
                       zero_copy_batch=True))

    cpus = int(ray.cluster_resources().get("CPU", 8))
    j = li.join(orders, join_type="inner",
                num_partitions=max(2, cpus // 2),
                on=("l_orderkey",), right_on=("o_orderkey",),
                aggregator_ray_remote_args={"num_cpus": 0.5})

    agg = (j.groupby(["l_orderkey", "o_orderdate", "o_orderpriority"])
           .aggregate(Sum("cents", alias_name="revenue_cents")))

    def topk_part(t: pa.Table) -> pa.Table:
        t = t.select(["l_orderkey", "o_orderdate", "o_orderpriority",
                      "revenue_cents"])
        idx = pc.sort_indices(t, sort_keys=[
            ("revenue_cents", "descending"), ("o_orderdate", "ascending"),
            ("l_orderkey", "ascending")])[:10]
        return t.take(idx)

    parts = agg.map_batches(topk_part, batch_format="pyarrow")
    merged = pa.concat_tables(
        list(parts.iter_batches(batch_format="pyarrow")))
    idx = pc.sort_indices(merged, sort_keys=[
        ("revenue_cents", "descending"), ("o_orderdate", "ascending"),
        ("l_orderkey", "ascending")])[:10]
    out = merged.take(idx)
    return out.set_column(
        out.schema.get_field_index("revenue_cents"), "revenue_cents",
        out["revenue_cents"].cast(pa.int64()))


Q3_SQL = """
SELECT l_orderkey, o_orderdate, o_orderpriority,
       CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 100)
                     AS BIGINT)) AS BIGINT) AS revenue_cents
FROM customer
JOIN orders   ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = 'BUILDING'
  AND o_orderdate < TIMESTAMP '1995-03-15'
  AND l_shipdate  > TIMESTAMP '1995-03-15'
GROUP BY l_orderkey, o_orderdate, o_orderpriority
ORDER BY revenue_cents DESC, o_orderdate, l_orderkey
LIMIT 10
"""


Q18_MIN_QTY = 250


def q18_large_volume_customers(sf_dir: str):
    """TPC-H Q18 shape (aggregate → HAVING → enrich → top-k): orders
    whose total lineitem quantity exceeds {Q18_MIN_QTY}, enriched with
    customer name via broadcast lookup, top-100 by (qty desc, key).
    The HAVING filter runs on the REDUCED per-order aggregate, and the
    (tiny) survivor set is what joins — the aggregate-then-join order
    is the whole point at scale."""
    import ray
    from ray.data.aggregate import Sum

    def li_partial(t: pa.Table) -> pa.Table:
        qty = pc.cast(pc.round(t["l_quantity"], options=pc.RoundOptions(
            round_mode="half_towards_infinity")), pa.int64())
        part = pa.table({"l_orderkey": t["l_orderkey"], "qty": qty})
        g = part.group_by("l_orderkey").aggregate([("qty", "sum")])
        return g.rename_columns(["l_orderkey", "qty"])

    per_order = (_read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])
                 .map_batches(li_partial, batch_format="pyarrow",
                              zero_copy_batch=True)
                 .groupby("l_orderkey")
                 .aggregate(Sum("qty", alias_name="total_qty")))

    big = per_order.map_batches(
        lambda t: t.filter(pc.greater(t["total_qty"],
                                      pa.scalar(Q18_MIN_QTY))),
        batch_format="pyarrow")
    # survivors are few (HAVING prunes hard) — one bounded driver
    # gather, then broadcast lookups against the dimension tables
    parts = list(big.iter_batches(batch_format="pyarrow"))
    if not parts:
        return pa.table({"c_name": pa.array([], pa.string()),
                         "o_orderkey": pa.array([], pa.int64()),
                         "o_orderdate": pa.array([], pa.timestamp("us")),
                         "total_qty": pa.array([], pa.int64())})
    bt = pa.concat_tables(parts)
    keys = set(bt["l_orderkey"].to_pylist())
    qty = dict(zip(bt["l_orderkey"].to_pylist(),
                   bt["total_qty"].to_pylist()))
    keys_ref = ray.put(np.array(sorted(keys), dtype=np.int64))

    def match_orders(t: pa.Table) -> pa.Table:
        ks = ray.get(keys_ref)
        return t.filter(pa.array(np.isin(
            t["o_orderkey"].to_numpy(zero_copy_only=False), ks)))

    ot = pa.concat_tables(list(
        _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
        .map_batches(match_orders, batch_format="pyarrow",
                     zero_copy_batch=True)
        .iter_batches(batch_format="pyarrow")))
    ct = pa.concat_tables(list(
        _read(sf_dir, "customer", ["c_custkey", "c_name"])
        .iter_batches(batch_format="pyarrow")))
    cname = dict(zip(ct["c_custkey"].to_pylist(),
                     ct["c_name"].to_pylist()))
    rows = sorted(
        ((-qty[ok], ok, cname.get(ck), od)
         for ok, ck, od in zip(ot["o_orderkey"].to_pylist(),
                               ot["o_custkey"].to_pylist(),
                               ot["o_orderdate"].to_pylist())),
    )[:100]
    return pa.table({
        "c_name": pa.array([r[2] for r in rows], pa.string()),
        "o_orderkey": pa.array([r[1] for r in rows], pa.int64()),
        "o_orderdate": pa.array([r[3] for r in rows],
                                pa.timestamp("us")),
        "total_qty": pa.array([-r[0] for r in rows], pa.int64())})


Q18_SQL = f"""
WITH big AS (
  SELECT l_orderkey,
         CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT)
           AS total_qty
  FROM lineitem GROUP BY l_orderkey
  HAVING total_qty > {Q18_MIN_QTY})
SELECT c_name, o_orderkey, o_orderdate, total_qty
FROM big
JOIN orders   ON o_orderkey = big.l_orderkey
JOIN customer ON c_custkey = o_custkey
ORDER BY total_qty DESC, o_orderkey
LIMIT 100
"""


SALT_FACTOR = 8
HOT_KEY_COUNT = 16


def salted_join_lineitem_orders(sf_dir: str,
                                num_partitions: int | None = None):
    """The shuffle join with EXPLICIT hot-key salting — the skew
    mitigation the north rule asks for, demonstrated end-to-end and
    oracle-checked equal to the unsalted plan.  Hot keys (detected on
    a bounded driver-side sample; ANY subset is correct, detection
    only affects balance) fan their probe rows across {SALT_FACTOR}
    salted partitions; the build side replicates ONLY its hot rows
    ×{SALT_FACTOR}.  Join key = orderkey*{SALT_FACTOR}+salt, so a hot
    key's partition shrinks by the salt factor while cold keys pay
    nothing."""
    import ray

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_extendedprice",
                "l_discount"])
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_orderpriority"])

    # detection sample must not be the file head (parquet is written
    # in key order — a head sample only ever sees the lowest keys):
    # a seeded row-level random_sample spreads the probe across the
    # blocks take_batch pulls.  Detection quality only affects
    # BALANCE; the joined rows are identical for any hot set.
    sample = (li.random_sample(0.2, seed=13)
              .take_batch(65536, batch_format="pyarrow"))
    keys, counts = np.unique(
        sample["l_orderkey"].to_numpy(zero_copy_only=False),
        return_counts=True)
    hot = keys[np.argsort(-counts)[:HOT_KEY_COUNT]]
    hot_ref = ray.put(np.sort(hot))

    def salt_probe(t: pa.Table) -> pa.Table:
        h = ray.get(hot_ref)
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False)
        ln = t["l_linenumber"].to_numpy(zero_copy_only=False)
        is_hot = np.isin(ok, h)
        salt = np.where(is_hot, ln % SALT_FACTOR, 0)
        return t.append_column(
            "jk", pa.array(ok * SALT_FACTOR + salt, pa.int64()))

    def replicate_build(t: pa.Table) -> pa.Table:
        h = ray.get(hot_ref)
        ok = t["o_orderkey"].to_numpy(zero_copy_only=False)
        is_hot = np.isin(ok, h)
        cold = t.filter(pa.array(~is_hot))
        cold = cold.append_column(
            "jk", pa.array(
                cold["o_orderkey"].to_numpy(zero_copy_only=False)
                * SALT_FACTOR, pa.int64()))
        hot_rows = t.filter(pa.array(is_hot))
        if hot_rows.num_rows == 0:
            return cold
        reps = []
        hk = hot_rows["o_orderkey"].to_numpy(zero_copy_only=False)
        for salt in range(SALT_FACTOR):
            reps.append(hot_rows.append_column(
                "jk", pa.array(hk * SALT_FACTOR + salt, pa.int64())))
        return pa.concat_tables([cold, *reps], promote_options="none")

    if num_partitions is None:
        cpus = int(ray.cluster_resources().get("CPU", 8))
        num_partitions = max(2, cpus // 2)
    j = (li.map_batches(salt_probe, batch_format="pyarrow",
                        zero_copy_batch=True)
         .join(orders.map_batches(replicate_build,
                                  batch_format="pyarrow",
                                  zero_copy_batch=True),
               join_type="inner", num_partitions=num_partitions,
               on=("jk",),
               aggregator_ray_remote_args={"num_cpus": 0.5}))

    def finish(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "l_linenumber": t["l_linenumber"],
                         "revenue": rev,
                         "o_orderdate": t["o_orderdate"],
                         "o_orderpriority": t["o_orderpriority"]})

    return j.map_batches(finish, batch_format="pyarrow")


def distinct_users_per_event_type(sf_dir: str):
    """Exact COUNT(DISTINCT) per group: batch-level pair dedup
    (pyarrow group_by — shrinks the exchange to unique pairs per
    batch), one (type, user) groupby to finish the global dedup, then
    per-batch per-type counts into a tiny second groupby.  This is
    the canonical two-shuffle exact-distinct plan; the HLL sketch
    (hll_distinct_counts) is the one-shuffle approximate variant."""
    from ray.data.aggregate import Count, Sum

    def pair_dedup(t: pa.Table) -> pa.Table:
        return (t.select(["event_type", "user_id"])
                .group_by(["event_type", "user_id"]).aggregate([]))

    pairs = (_read(sf_dir, "events", ["event_type", "user_id"])
             .map_batches(pair_dedup, batch_format="pyarrow",
                          zero_copy_batch=True)
             .groupby(["event_type", "user_id"])
             .aggregate(Count(alias_name="_n")))

    def per_type_partial(t: pa.Table) -> pa.Table:
        g = (t.select(["event_type"])
             .group_by("event_type").aggregate([("event_type", "count")]))
        return g.rename_columns(["event_type", "n_part"])

    agg = (pairs.map_batches(per_type_partial, batch_format="pyarrow")
           .groupby("event_type")
           .aggregate(Sum("n_part", alias_name="n_users")))

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({"event_type": t["event_type"],
                         "n_users": pc.cast(t["n_users"], pa.int64())})

    return agg.map_batches(finish, batch_format="pyarrow")


DISTINCT_USERS_SQL = """
SELECT event_type, count(DISTINCT user_id) AS n_users
FROM events GROUP BY event_type
"""


def running_total_orders(sf_dir: str, n_buckets: int = 64):
    """Cumulative window sum: per customer, running total of order
    price (cents) ordered by (o_orderdate, o_orderkey).  Customers
    hash into ``n_buckets`` groups (one shuffle); each group resolves
    MANY customers in one vectorized lexsort + segmented-cumsum pass
    (the event_gaps_per_user discipline — never one Python group per
    key).  Integer cents keep the running sums exact."""

    def add_bucket(t: pa.Table) -> pa.Table:
        ck = t["o_custkey"].to_numpy(zero_copy_only=False)
        cents = pc.cast(pc.round(
            pc.multiply(t["o_totalprice"], pa.scalar(100.0)),
            options=pc.RoundOptions(round_mode="half_towards_infinity")),
            pa.int64())
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "o_custkey": t["o_custkey"],
                         "o_orderdate": t["o_orderdate"],
                         "cents": cents,
                         "bucket": pa.array(ck % n_buckets, pa.int64())})

    def cumsum(g: pa.Table) -> pa.Table:
        ck = g["o_custkey"].to_numpy(zero_copy_only=False)
        ok = g["o_orderkey"].to_numpy(zero_copy_only=False)
        od = g["o_orderdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        cents = g["cents"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ok, od, ck))
        ck, ok, cents = ck[order], ok[order], cents[order]
        first = np.ones(len(ck), dtype=bool)
        first[1:] = ck[1:] != ck[:-1]
        cs = np.cumsum(cents)
        # segmented cumsum: subtract each group's prefix-before-start
        grp = np.cumsum(first) - 1
        base = (cs - cents)[np.flatnonzero(first)][grp]
        return pa.table({"o_orderkey": pa.array(ok),
                         "o_custkey": pa.array(ck),
                         "running_cents": pa.array(cs - base, type=pa.int64())})

    return (_read(sf_dir, "orders",
                  ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])
            .map_batches(add_bucket, batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby("bucket")
            .map_groups(cumsum, batch_format="pyarrow"))


RUNNING_TOTAL_SQL = """
SELECT o_orderkey, o_custkey,
       CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
         OVER (PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey)
         AS BIGINT) AS running_cents
FROM orders
"""


def dense_rank_orders(sf_dir: str):
    """dense_rank() of order price (desc) within each order priority.
    The partition key has tiny cardinality (5 priorities), so each
    partition IS one group and ranks vectorize as a change-mask cumsum
    over the sorted prices.  Skew note: a rank over a low-cardinality
    partition key is inherently one task per partition value — at
    100 TB you'd range-partition each priority by price and offset the
    per-range dense ranks by prefix counts of distinct values."""

    def rank_group(g: pa.Table) -> pa.Table:
        price = g["o_totalprice"].to_numpy(zero_copy_only=False)
        ok = g["o_orderkey"].to_numpy(zero_copy_only=False)
        pr = g["o_orderpriority"]
        order = np.lexsort((ok, -price))
        ps = price[order]
        newval = np.ones(len(ps), dtype=bool)
        newval[1:] = ps[1:] != ps[:-1]
        return pa.table({"o_orderkey": pa.array(ok[order]),
                         "o_orderpriority": pr.take(pa.array(order)),
                         "price_rank": pa.array(np.cumsum(newval),
                                                type=pa.int64())})

    return (_read(sf_dir, "orders",
                  ["o_orderkey", "o_orderpriority", "o_totalprice"])
            .groupby("o_orderpriority")
            .map_groups(rank_group, batch_format="pyarrow"))


DENSE_RANK_SQL = """
SELECT o_orderkey, o_orderpriority,
       dense_rank() OVER (PARTITION BY o_orderpriority
                          ORDER BY o_totalprice DESC) AS price_rank
FROM orders
"""


# ------------------------------------------- rollup / pivot / dates --

def rollup_pricing_totals(sf_dir: str):
    """GROUP BY ROLLUP(l_returnflag, l_linestatus): base cells plus
    per-flag subtotals plus the grand total, NULL-marked like SQL
    ROLLUP.  The super-aggregate levels are derived from the already-
    reduced base aggregate (|flags|×|statuses| rows — never a second
    pass over lineitem), so the only wide operation is the one small
    groupby shuffle."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        # half_towards_infinity == SQL round()'s half-away-from-zero
        # (pyarrow's default half-to-even diverges on exact .5)
        qty = pc.cast(pc.round(t["l_quantity"], options=pc.RoundOptions(
            round_mode="half_towards_infinity")), pa.int64())
        part = pa.table({"l_returnflag": t["l_returnflag"],
                         "l_linestatus": t["l_linestatus"],
                         "qty": qty})
        g = part.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("qty", "sum"), ("qty", "count")])
        return g.rename_columns(["l_returnflag", "l_linestatus", "q", "n"])

    base = (_read(sf_dir, "lineitem",
                  ["l_returnflag", "l_linestatus", "l_quantity"])
            .map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby(["l_returnflag", "l_linestatus"])
            .aggregate(Sum("q", alias_name="sum_qty"),
                       Sum("n", alias_name="count_order")))

    def widen(t: pa.Table) -> pa.Table:
        # runs on the reduced aggregate after repartition(1)
        if t.num_rows == 0:
            # SQL ROLLUP on an empty table still emits the grand-total
            # row: (NULL, NULL, NULL sum, 0 count)
            return pa.table({
                "l_returnflag": pa.array([None], pa.string()),
                "l_linestatus": pa.array([None], pa.string()),
                "sum_qty": pa.array([None], pa.int64()),
                "count_order": pa.array([0], pa.int64())})
        rows = list(zip(t["l_returnflag"].to_pylist(),
                        t["l_linestatus"].to_pylist(),
                        t["sum_qty"].to_pylist(),
                        t["count_order"].to_pylist()))
        per_flag: dict[str, list[int]] = {}
        for f, _, q, n in rows:
            a = per_flag.setdefault(f, [0, 0])
            a[0] += q; a[1] += n
        out = rows + [(f, None, a[0], a[1])
                      for f, a in per_flag.items()]
        out.append((None, None, sum(a[0] for a in per_flag.values()),
                    sum(a[1] for a in per_flag.values())))
        return pa.table({
            "l_returnflag": pa.array([r[0] for r in out], pa.string()),
            "l_linestatus": pa.array([r[1] for r in out], pa.string()),
            "sum_qty": pa.array([r[2] for r in out], pa.int64()),
            "count_order": pa.array([r[3] for r in out], pa.int64())})

    return base.repartition(1).map_batches(widen, batch_format="pyarrow")


ROLLUP_TOTALS_SQL = """
SELECT l_returnflag, l_linestatus,
       CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty,
       count(*) AS count_order
FROM lineitem
GROUP BY ROLLUP(l_returnflag, l_linestatus)
"""


def date_histogram_events(sf_dir: str):
    """ES date_histogram with min_doc_count=0 / extended bounds: one
    row per DAY between the corpus's first and last event, empty days
    emitted with zero counts.  Gap fill runs on the reduced per-day
    aggregate (≤ a few thousand rows for years of data), vectorized
    with searchsorted."""
    from ray.data.aggregate import Sum

    def bucket(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        cents = pc.cast(pc.round(
            pc.multiply(t["value"], pa.scalar(100.0)),
            options=pc.RoundOptions(round_mode="half_towards_infinity")),
            pa.int64())
        part = pa.table({"day_bucket": pa.array(us // 86_400_000_000,
                                                pa.int64()),
                         "cents": cents})
        g = part.group_by(["day_bucket"]).aggregate(
            [("cents", "count"), ("cents", "sum")])
        return g.rename_columns(["day_bucket", "n_part", "cents_part"])

    agg = (_read(sf_dir, "events", ["ts", "value"])
           .map_batches(bucket, batch_format="pyarrow",
                        zero_copy_batch=True)
           .groupby("day_bucket")
           .aggregate(Sum("n_part", alias_name="n_events"),
                      Sum("cents_part", alias_name="sum_value_cents")))

    def fill(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"day_bucket": pa.array([], pa.int64()),
                             "n_events": pa.array([], pa.int64()),
                             "sum_value_cents": pa.array([], pa.int64())})
        d = t["day_bucket"].to_numpy(zero_copy_only=False)
        n = t["n_events"].to_numpy(zero_copy_only=False)
        s = t["sum_value_cents"].to_numpy(zero_copy_only=False)
        full = np.arange(d.min(), d.max() + 1, dtype=np.int64)
        nf = np.zeros(full.size, np.int64)
        sf = np.zeros(full.size, np.int64)
        pos = np.searchsorted(full, d)
        nf[pos] = n; sf[pos] = s
        return pa.table({"day_bucket": pa.array(full),
                         "n_events": pa.array(nf),
                         "sum_value_cents": pa.array(sf)})

    return agg.repartition(1).map_batches(fill, batch_format="pyarrow")


def composite_agg_events(sf_dir: str, page_size: int = 64):
    """ES composite aggregation with after-key paging: buckets keyed
    (event_type asc, day asc) carrying doc count + exact integer-cent
    value sums.  Each page is a STATELESS distributed recompute with
    the after-cursor pushed into the per-batch combiner — rows at or
    before the cursor never enter a partial aggregate, so per-page
    work shrinks as paging advances (the ES composite contract:
    deterministic key order, no server-side scroll state).  Returns
    the stitched pages, which must reconstruct the full GROUP BY
    bit-exactly — exactly what the SQL oracle checks."""
    from ray.data.aggregate import Sum

    def make_bucket(after):
        def day_of(tbl: pa.Table) -> pa.Array:
            # numpy floor division, NOT pc.divide (trunc-toward-zero):
            # pre-epoch timestamps must bucket like date_histogram and
            # the oracle's floor()
            us = tbl["ts"].cast(pa.int64()).to_numpy(
                zero_copy_only=False)
            return pa.array(us // 86_400_000_000, pa.int64())

        def bucket(t: pa.Table) -> pa.Table:
            day = day_of(t)
            if after is not None:
                a_et, a_day = after
                keep = pc.or_(
                    pc.greater(t["event_type"], pa.scalar(a_et)),
                    pc.and_(pc.equal(t["event_type"], pa.scalar(a_et)),
                            pc.greater(day, pa.scalar(a_day))))
                t = t.filter(keep)
                day = day_of(t)
            cents = pc.cast(pc.round(
                pc.multiply(t["value"], pa.scalar(100.0)),
                options=pc.RoundOptions(
                    round_mode="half_towards_infinity")), pa.int64())
            part = pa.table({"event_type": t["event_type"],
                             "day_bucket": day.cast(pa.int64()),
                             "cents": cents})
            g = part.group_by(["event_type", "day_bucket"]).aggregate(
                [("cents", "count"), ("cents", "sum")])
            return g.rename_columns(["event_type", "day_bucket",
                                     "n_part", "cents_part"])
        return bucket

    pages = []
    after = None
    while True:
        agg = (_read(sf_dir, "events", ["ts", "event_type", "value"])
               .map_batches(make_bucket(after), batch_format="pyarrow",
                            zero_copy_batch=True)
               .groupby(["event_type", "day_bucket"])
               .aggregate(Sum("n_part", alias_name="n_events"),
                          Sum("cents_part",
                              alias_name="sum_value_cents")))
        batches = list(agg.iter_batches(batch_format="pyarrow"))
        t = pa.concat_tables(batches) if batches else None
        if t is None or t.num_rows == 0:
            break
        t = t.take(pc.sort_indices(t, sort_keys=[
            ("event_type", "ascending"), ("day_bucket", "ascending")]))
        page = t.slice(0, page_size)
        pages.append(page)
        if t.num_rows <= page_size:
            break
        after = (page["event_type"][-1].as_py(),
                 int(page["day_bucket"][-1].as_py()))
    if not pages:
        return pa.table({"event_type": pa.array([], pa.string()),
                         "day_bucket": pa.array([], pa.int64()),
                         "n_events": pa.array([], pa.int64()),
                         "sum_value_cents": pa.array([], pa.int64())})
    out = pa.concat_tables(pages)
    return pa.table({"event_type": out["event_type"],
                     "day_bucket": out["day_bucket"].cast(pa.int64()),
                     "n_events": out["n_events"].cast(pa.int64()),
                     "sum_value_cents":
                         out["sum_value_cents"].cast(pa.int64())})


COMPOSITE_AGG_SQL = """
SELECT event_type,
       CAST(floor(epoch_us(ts) / 86400000000.0) AS BIGINT) AS day_bucket,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
         AS sum_value_cents
FROM events
GROUP BY event_type, day_bucket
ORDER BY event_type, day_bucket
"""


DATE_HISTOGRAM_SQL = """
WITH b AS (
  SELECT CAST(floor(epoch_us(ts) / 86400000000.0) AS BIGINT) AS d,
         CAST(round(value * 100) AS BIGINT) AS cents
  FROM events),
agg AS (SELECT d, count(*) AS n, CAST(sum(cents) AS BIGINT) AS s
        FROM b GROUP BY d),
days AS (SELECT unnest(generate_series((SELECT min(d) FROM agg),
                                       (SELECT max(d) FROM agg))) AS d)
SELECT days.d AS day_bucket,
       coalesce(agg.n, 0) AS n_events,
       coalesce(agg.s, 0) AS sum_value_cents
FROM days LEFT JOIN agg ON agg.d = days.d
"""


def derivative_events(sf_dir: str):
    """ES ``derivative`` pipeline aggregation: day-over-day change of
    the gap-filled daily event count.  The parent histogram is the
    distributed date_histogram; the derivative itself is one
    vectorized diff over the REDUCED per-day table (O(days)), exactly
    like the moving-window pipeline agg.  The first bucket has no
    predecessor — ES emits no derivative there; we emit NULL so every
    day keeps its row (min_doc_count=0 shape)."""

    def diff(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"day_bucket": pa.array([], pa.int64()),
                             "n_events": pa.array([], pa.int64()),
                             "deriv": pa.array([], pa.int64())})
        d = t["day_bucket"].to_numpy(zero_copy_only=False)
        n = t["n_events"].to_numpy(zero_copy_only=False)
        order = np.argsort(d)
        d, n = d[order], n[order]
        deriv = np.empty(len(n), dtype=np.int64)
        deriv[1:] = n[1:] - n[:-1]
        mask = np.ones(len(n), dtype=bool)
        mask[0] = False            # no predecessor for the first day
        return pa.table({"day_bucket": pa.array(d, pa.int64()),
                         "n_events": pa.array(n, pa.int64()),
                         "deriv": pa.array(np.where(mask, deriv, 0),
                                           pa.int64(), mask=~mask)})

    return (date_histogram_events(sf_dir)
            .repartition(1)
            .map_batches(diff, batch_format="pyarrow"))


DERIVATIVE_SQL = """
WITH b AS (
  SELECT CAST(floor(epoch_us(ts) / 86400000000.0) AS BIGINT) AS d
  FROM events),
agg AS (SELECT d, count(*) AS n FROM b GROUP BY d),
days AS (SELECT unnest(generate_series((SELECT min(d) FROM agg),
                                       (SELECT max(d) FROM agg))) AS d),
hist AS (SELECT days.d AS day_bucket,
                coalesce(agg.n, 0) AS n_events
         FROM days LEFT JOIN agg ON agg.d = days.d)
SELECT day_bucket,
       CAST(n_events AS BIGINT) AS n_events,
       CAST(n_events - lag(n_events) OVER (ORDER BY day_bucket)
            AS BIGINT) AS deriv
FROM hist
"""


SERIAL_DIFF_LAG = 7


def serial_diff_events(sf_dir: str):
    """ES ``serial_diff`` pipeline aggregation (lag = {SERIAL_DIFF_LAG}):
    the daily event count minus the count {SERIAL_DIFF_LAG} buckets
    earlier, over the gap-filled histogram — the seasonality-removal
    shape (``derivative`` is the lag-1 special case).  Buckets without
    a lagged predecessor emit NULL, keeping every day's row.  Runs on
    the REDUCED per-day table: one vectorized shifted subtraction,
    O(days)."""
    lag = SERIAL_DIFF_LAG

    def sdiff(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"day_bucket": pa.array([], pa.int64()),
                             "n_events": pa.array([], pa.int64()),
                             "sdiff": pa.array([], pa.int64())})
        d = t["day_bucket"].to_numpy(zero_copy_only=False)
        n = t["n_events"].to_numpy(zero_copy_only=False)
        order = np.argsort(d)
        d, n = d[order], n[order]
        out = np.zeros(len(n), dtype=np.int64)
        mask = np.zeros(len(n), dtype=bool)
        if len(n) > lag:
            out[lag:] = n[lag:] - n[:-lag]
            mask[lag:] = True
        return pa.table({"day_bucket": pa.array(d, pa.int64()),
                         "n_events": pa.array(n, pa.int64()),
                         "sdiff": pa.array(out, pa.int64(),
                                           mask=~mask)})

    return (date_histogram_events(sf_dir)
            .repartition(1)
            .map_batches(sdiff, batch_format="pyarrow"))


SERIAL_DIFF_SQL = f"""
WITH b AS (
  SELECT CAST(floor(epoch_us(ts) / 86400000000.0) AS BIGINT) AS d
  FROM events),
agg AS (SELECT d, count(*) AS n FROM b GROUP BY d),
days AS (SELECT unnest(generate_series((SELECT min(d) FROM agg),
                                       (SELECT max(d) FROM agg))) AS d),
hist AS (SELECT days.d AS day_bucket,
                coalesce(agg.n, 0) AS n_events
         FROM days LEFT JOIN agg ON agg.d = days.d)
SELECT day_bucket,
       CAST(n_events AS BIGINT) AS n_events,
       CAST(n_events - lag(n_events, {SERIAL_DIFF_LAG})
                       OVER (ORDER BY day_bucket) AS BIGINT) AS sdiff
FROM hist
"""


def bucket_script_events(sf_dir: str):
    """ES ``bucket_script`` + ``bucket_selector`` pipeline aggs over
    the daily histogram: per-bucket scripted metric ``avg_cents``
    (value-sum cents / count, float64) and a selector keeping only
    buckets whose count exceeds the corpus-wide daily mean — the
    relative threshold is scale-independent, so the selector always
    discriminates.  Both run on the REDUCED per-day table (the parent
    histogram is the distributed aggregation); the mean is one more
    reduction over O(days) rows, never a second corpus pass."""

    def script(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"day_bucket": pa.array([], pa.int64()),
                             "n_events": pa.array([], pa.int64()),
                             "avg_cents": pa.array([], pa.float64())})
        d = t["day_bucket"].to_numpy(zero_copy_only=False)
        n = t["n_events"].to_numpy(zero_copy_only=False)
        s = t["sum_value_cents"].to_numpy(zero_copy_only=False)
        # bucket_selector: count > mean daily count (float64 compare,
        # mirrored by the oracle's avg())
        mean = n.sum() / len(n)
        keep = n > mean
        d, n, s = d[keep], n[keep], s[keep]
        avg = s.astype(np.float64) / n
        return pa.table({"day_bucket": pa.array(d, pa.int64()),
                         "n_events": pa.array(n, pa.int64()),
                         "avg_cents": pa.array(avg, pa.float64())})

    return (date_histogram_events(sf_dir)
            .repartition(1)
            .map_batches(script, batch_format="pyarrow"))


BUCKET_SCRIPT_SQL = """
WITH b AS (
  SELECT CAST(floor(epoch_us(ts) / 86400000000.0) AS BIGINT) AS d,
         CAST(round(value * 100) AS BIGINT) AS cents
  FROM events),
agg AS (SELECT d, count(*) AS n, CAST(sum(cents) AS BIGINT) AS s
        FROM b GROUP BY d),
days AS (SELECT unnest(generate_series((SELECT min(d) FROM agg),
                                       (SELECT max(d) FROM agg))) AS d),
hist AS (SELECT days.d AS day_bucket,
                coalesce(agg.n, 0) AS n_events,
                coalesce(agg.s, 0) AS s
         FROM days LEFT JOIN agg ON agg.d = days.d)
SELECT day_bucket,
       CAST(n_events AS BIGINT) AS n_events,
       CAST(s AS DOUBLE) / n_events AS avg_cents
FROM hist
WHERE n_events > (SELECT CAST(sum(n_events) AS DOUBLE) / count(*)
                  FROM hist)
"""


MOVING_DAYS = 7


def moving_window_events(sf_dir: str):
    """Pipeline aggregation (the ES ``moving_fn``/``cumulative_sum``
    family): trailing {MOVING_DAYS}-day event count and value sum over
    the gap-filled daily histogram.  The windowing runs on the REDUCED
    per-day table (one row per day — the same reduced-table discipline
    as date_histogram_events); a sliding-window cumsum-difference is
    O(days), vectorized.  Integer cents keep the sums exact."""

    hist = date_histogram_events(sf_dir)

    def slide(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"day_bucket": pa.array([], pa.int64()),
                             "n_7d": pa.array([], pa.int64()),
                             "sum_cents_7d": pa.array([], pa.int64())})
        d = t["day_bucket"].to_numpy(zero_copy_only=False)
        order = np.argsort(d)
        d = d[order]
        n = t["n_events"].to_numpy(zero_copy_only=False)[order]
        s = t["sum_value_cents"].to_numpy(zero_copy_only=False)[order]
        # gap-filled histogram ⇒ consecutive days ⇒ ROWS window ==
        # RANGE window; trailing sum = cumsum(i) - cumsum(i - w)
        w = MOVING_DAYS

        def trail(vals: np.ndarray) -> np.ndarray:
            c = np.cumsum(vals)
            out = c.copy()
            if len(c) > w:
                out[w:] = c[w:] - c[:-w]
            return out

        n7, s7 = trail(n), trail(s)
        return pa.table({"day_bucket": pa.array(d),
                         "n_7d": pa.array(n7, type=pa.int64()),
                         "sum_cents_7d": pa.array(s7, type=pa.int64())})

    return hist.repartition(1).map_batches(slide, batch_format="pyarrow")


MOVING_WINDOW_SQL = f"""
WITH b AS (
  SELECT CAST(floor(epoch_us(ts) / 86400000000.0) AS BIGINT) AS d,
         CAST(round(value * 100) AS BIGINT) AS cents
  FROM events),
agg AS (SELECT d, count(*) AS n, CAST(sum(cents) AS BIGINT) AS s
        FROM b GROUP BY d),
days AS (SELECT unnest(generate_series((SELECT min(d) FROM agg),
                                       (SELECT max(d) FROM agg))) AS d),
hist AS (SELECT days.d, coalesce(agg.n, 0) AS n, coalesce(agg.s, 0) AS s
         FROM days LEFT JOIN agg ON agg.d = days.d)
SELECT d AS day_bucket,
       CAST(sum(n) OVER w AS BIGINT) AS n_7d,
       CAST(sum(s) OVER w AS BIGINT) AS sum_cents_7d
FROM hist
WINDOW w AS (ORDER BY d ROWS BETWEEN {MOVING_DAYS - 1} PRECEDING
             AND CURRENT ROW)
"""


# fixed column set so an sf where a status is absent still emits the
# column (both sides agree by construction)
PIVOT_STATUSES = ("F", "O", "P")


def pivot_orders_status(sf_dir: str):
    """PIVOT: one row per o_orderpriority, one count column per
    o_orderstatus (fixed F/O/P column set).  Per-batch (priority,
    status) combiners → small groupby → widen on the reduced table."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        g = (t.select(["o_orderpriority", "o_orderstatus"])
             .group_by(["o_orderpriority", "o_orderstatus"])
             .aggregate([("o_orderstatus", "count")]))
        return g.rename_columns(["o_orderpriority", "o_orderstatus", "n"])

    agg = (_read(sf_dir, "orders", ["o_orderpriority", "o_orderstatus"])
           .map_batches(partial, batch_format="pyarrow",
                        zero_copy_batch=True)
           .groupby(["o_orderpriority", "o_orderstatus"])
           .aggregate(Sum("n", alias_name="n")))

    def widen(t: pa.Table) -> pa.Table:
        counts: dict[str, dict[str, int]] = {}
        for p, st, n in zip(t["o_orderpriority"].to_pylist(),
                            t["o_orderstatus"].to_pylist(),
                            t["n"].to_pylist()):
            counts.setdefault(p, {})[st] = n
        prios = sorted(counts)
        cols: dict[str, object] = {
            "o_orderpriority": pa.array(prios, pa.string())}
        for st in PIVOT_STATUSES:
            cols[f"n_{st.lower()}"] = pa.array(
                [counts[p].get(st, 0) for p in prios], pa.int64())
        return pa.table(cols)

    return agg.repartition(1).map_batches(widen, batch_format="pyarrow")


def _pivot_sql() -> str:
    cols = ",\n       ".join(
        f"CAST(sum(CASE WHEN o_orderstatus = '{st}' THEN 1 ELSE 0 END)"
        f" AS BIGINT) AS n_{st.lower()}" for st in PIVOT_STATUSES)
    return f"""
SELECT o_orderpriority,
       {cols}
FROM orders GROUP BY o_orderpriority
"""


# ------------------------------------------------------------- CUBE --

def cube_pricing_totals(sf_dir: str):
    """GROUP BY CUBE(l_returnflag, l_linestatus): the four grouping
    classes (base cells, per-flag, per-status, grand total), NULL-
    marked like SQL CUBE.  Same discipline as ROLLUP: every super-
    aggregate level derives from the already-reduced base aggregate —
    one small groupby shuffle total."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        qty = pc.cast(pc.round(t["l_quantity"], options=pc.RoundOptions(
            round_mode="half_towards_infinity")), pa.int64())
        part = pa.table({"l_returnflag": t["l_returnflag"],
                         "l_linestatus": t["l_linestatus"],
                         "qty": qty})
        g = part.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("qty", "sum"), ("qty", "count")])
        return g.rename_columns(["l_returnflag", "l_linestatus", "q", "n"])

    base = (_read(sf_dir, "lineitem",
                  ["l_returnflag", "l_linestatus", "l_quantity"])
            .map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby(["l_returnflag", "l_linestatus"])
            .aggregate(Sum("q", alias_name="sum_qty"),
                       Sum("n", alias_name="count_order")))

    def widen(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({
                "l_returnflag": pa.array([None], pa.string()),
                "l_linestatus": pa.array([None], pa.string()),
                "sum_qty": pa.array([None], pa.int64()),
                "count_order": pa.array([0], pa.int64())})
        rows = list(zip(t["l_returnflag"].to_pylist(),
                        t["l_linestatus"].to_pylist(),
                        t["sum_qty"].to_pylist(),
                        t["count_order"].to_pylist()))
        per_flag: dict[str, list[int]] = {}
        per_status: dict[str, list[int]] = {}
        for f, st, q, n in rows:
            a = per_flag.setdefault(f, [0, 0])
            a[0] += q; a[1] += n
            b = per_status.setdefault(st, [0, 0])
            b[0] += q; b[1] += n
        out = rows
        out += [(f, None, a[0], a[1]) for f, a in per_flag.items()]
        out += [(None, st, b[0], b[1]) for st, b in per_status.items()]
        out.append((None, None, sum(a[0] for a in per_flag.values()),
                    sum(a[1] for a in per_flag.values())))
        return pa.table({
            "l_returnflag": pa.array([r[0] for r in out], pa.string()),
            "l_linestatus": pa.array([r[1] for r in out], pa.string()),
            "sum_qty": pa.array([r[2] for r in out], pa.int64()),
            "count_order": pa.array([r[3] for r in out], pa.int64())})

    return base.repartition(1).map_batches(widen, batch_format="pyarrow")


CUBE_TOTALS_SQL = """
SELECT l_returnflag, l_linestatus,
       CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty,
       count(*) AS count_order
FROM lineitem
GROUP BY CUBE(l_returnflag, l_linestatus)
"""


# ------------------------------------------------------------ NTILE --

NTILE_N = 4


def ntile_orders(sf_dir: str):
    """NTILE({NTILE_N}) of order price within each order priority —
    the quartile-assignment window function.  Deterministic order key
    (o_totalprice, o_orderkey) makes the SQL tile assignment unique.
    Same partition discipline as dense_rank_orders: low-cardinality
    partition key ⇒ one vectorized group per priority; the NTILE
    formula (first n%k tiles get one extra row) is applied to the
    sorted positions with pure arithmetic."""

    def tile_group(g: pa.Table) -> pa.Table:
        price = g["o_totalprice"].to_numpy(zero_copy_only=False)
        ok = g["o_orderkey"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ok, price))
        n = len(order)
        size, rem = divmod(n, NTILE_N)
        i = np.arange(n, dtype=np.int64)
        cut = rem * (size + 1)
        tile = np.where(i < cut,
                        i // (size + 1) + 1,
                        rem + (i - cut) // max(size, 1) + 1)
        return pa.table({
            "o_orderkey": pa.array(ok[order]),
            "o_orderpriority": g["o_orderpriority"].take(pa.array(order)),
            "tile": pa.array(tile, pa.int64())})

    return (_read(sf_dir, "orders",
                  ["o_orderkey", "o_orderpriority", "o_totalprice"])
            .groupby("o_orderpriority")
            .map_groups(tile_group, batch_format="pyarrow"))


NTILE_SQL = f"""
SELECT o_orderkey, o_orderpriority,
       ntile({NTILE_N}) OVER (PARTITION BY o_orderpriority
                              ORDER BY o_totalprice, o_orderkey) AS tile
FROM orders
"""


# ----------------------------------------------------- TPC-H Q6 shape --

def q6_forecast_revenue(sf_dir: str):
    """TPC-H Q6 shape (pure filter + global aggregate): the
    no-shuffle degenerate case — per-batch filters + integer-cent
    partial sums, one global Sum.  At 100 TB this is a single
    streaming pass; nothing ever concentrates."""
    from ray.data.aggregate import Sum

    lo = pa.scalar(np.datetime64("1996-01-01", "us"))
    hi = pa.scalar(np.datetime64("1997-01-01", "us"))

    def partial(t: pa.Table) -> pa.Table:
        half_away = pc.RoundOptions(round_mode="half_towards_infinity")
        keep = pc.and_(
            pc.and_(pc.greater_equal(t["l_shipdate"], lo),
                    pc.less(t["l_shipdate"], hi)),
            pc.and_(pc.and_(pc.greater_equal(t["l_discount"],
                                             pa.scalar(0.05)),
                            pc.less_equal(t["l_discount"],
                                          pa.scalar(0.07))),
                    pc.less(t["l_quantity"], pa.scalar(24.0))))
        t = t.filter(keep)
        cents = pc.cast(pc.round(pc.multiply(
            pc.multiply(t["l_extendedprice"], t["l_discount"]),
            pa.scalar(100.0)), options=half_away), pa.int64())
        s = pc.sum(cents).as_py() or 0
        return pa.table({"cents": pa.array([s], pa.int64()),
                         "n": pa.array([t.num_rows], pa.int64())})

    agg = (_read(sf_dir, "lineitem",
                 ["l_shipdate", "l_discount", "l_quantity",
                  "l_extendedprice"])
           .map_batches(partial, batch_format="pyarrow",
                        zero_copy_batch=True)
           .aggregate(Sum("cents", alias_name="revenue_cents"),
                      Sum("n", alias_name="n_items")))
    return pa.table({
        "revenue_cents": pa.array([int(agg["revenue_cents"] or 0)],
                                  pa.int64()),
        "n_items": pa.array([int(agg["n_items"] or 0)], pa.int64())})


Q6_SQL = """
SELECT CAST(sum(CAST(round(l_extendedprice * l_discount * 100)
                     AS BIGINT)) AS BIGINT) AS revenue_cents,
       count(*) AS n_items
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate <  TIMESTAMP '1997-01-01'
  AND l_discount BETWEEN 0.05 AND 0.07
  AND l_quantity < 24
"""


# ---------------------------------------------------- TPC-H Q14 shape --

def q14_promo_revenue(sf_dir: str):
    """TPC-H Q14 shape (broadcast dimension join + conditional
    aggregate ratio): part's promo flag is broadcast ONCE as a sorted
    key array + boolean flags (`ray.put`), each lineitem batch probes
    it with searchsorted — the fact table never shuffles.  The promo
    share is a single division of two exact integer-cent sums, so the
    scaled ratio is bit-deterministic."""
    import ray
    from ray.data.aggregate import Sum

    lo = pa.scalar(np.datetime64("1997-09-01", "us"))
    hi = pa.scalar(np.datetime64("1997-10-01", "us"))

    pt = pa.concat_tables(list(
        _read(sf_dir, "part", ["p_partkey", "p_type"])
        .iter_batches(batch_format="pyarrow")))
    order = pc.sort_indices(pt["p_partkey"])
    keys = pt["p_partkey"].take(order).to_numpy(zero_copy_only=False)
    promo = pc.starts_with(pt["p_type"].take(order).combine_chunks(),
                           "PROMO").to_numpy(zero_copy_only=False)
    dim_ref = ray.put((keys, promo))

    def partial(t: pa.Table) -> pa.Table:
        half_away = pc.RoundOptions(round_mode="half_towards_infinity")
        ks, pr = ray.get(dim_ref)
        keep = pc.and_(pc.greater_equal(t["l_shipdate"], lo),
                       pc.less(t["l_shipdate"], hi))
        t = t.filter(keep)
        cents = pc.cast(pc.round(pc.multiply(
            pc.multiply(t["l_extendedprice"],
                        pc.subtract(pa.scalar(1.0), t["l_discount"])),
            pa.scalar(100.0)), options=half_away), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        pk = t["l_partkey"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(ks, pk)
        pos = np.clip(pos, 0, len(ks) - 1)
        is_promo = (ks[pos] == pk) & pr[pos]
        return pa.table({
            "promo_cents": pa.array([int(cents[is_promo].sum())],
                                    pa.int64()),
            "total_cents": pa.array([int(cents.sum())], pa.int64())})

    agg = (_read(sf_dir, "lineitem",
                 ["l_partkey", "l_extendedprice", "l_discount",
                  "l_shipdate"])
           .map_batches(partial, batch_format="pyarrow",
                        zero_copy_batch=True)
           .aggregate(Sum("promo_cents", alias_name="promo_cents"),
                      Sum("total_cents", alias_name="total_cents")))
    pc_, tc = int(agg["promo_cents"] or 0), int(agg["total_cents"] or 0)
    # floor(x+0.5) = the oracle's half-away round() for this ≥ 0 ratio
    # (np.round is half-to-even — the percentile_ranks exactness rule)
    share = int(np.floor(1e6 * 100.0 * pc_ / tc + 0.5)) if tc else 0
    return pa.table({"promo_cents": pa.array([pc_], pa.int64()),
                     "total_cents": pa.array([tc], pa.int64()),
                     "promo_share_ppm": pa.array([share], pa.int64())})


def funnel_events(sf_dir: str):
    """Ordered-funnel conversion (view → click → purchase): per user,
    stage i+1 counts only if it happens STRICTLY AFTER the user's
    earliest stage-i completion — the product-analytics funnel.  Users
    hash into buckets (one shuffle); inside each bucket every stage is
    vectorized: lexsort by (user, ts) + first-per-user boundary mask
    gives the stage timestamps, and a searchsorted map checks the
    strictly-after constraint against the previous stage — no
    per-user Python loop.  Only one (n_view, n_click, n_purchase) row
    per bucket crosses the final exchange."""
    from ray.data.aggregate import Sum

    N_BUCKETS = 64
    STAGES = ("view", "click", "purchase")

    def add_bucket(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["event_type"],
                              value_set=pa.array(STAGES)))
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "__bucket": pa.array(uid % N_BUCKETS, pa.int64()),
            "user_id": t["user_id"],
            "ts": t["ts"].cast(pa.int64()),
            "event_type": t["event_type"]})

    def funnel_bucket(g: pa.Table) -> pa.Table:
        u = g["user_id"].to_numpy(zero_copy_only=False)
        ts = g["ts"].to_numpy(zero_copy_only=False)
        et = np.asarray(g["event_type"].to_pylist())

        def first_after(stage: str, prev_users, prev_t):
            m = et == stage
            su, sts = u[m], ts[m]
            if prev_users is not None:
                if len(prev_users) == 0 or len(su) == 0:
                    return (np.empty(0, np.int64),
                            np.empty(0, np.int64))
                pos = np.clip(np.searchsorted(prev_users, su),
                              0, len(prev_users) - 1)
                ok = (prev_users[pos] == su) & (sts > prev_t[pos])
                su, sts = su[ok], sts[ok]
            if len(su) == 0:
                return np.empty(0, np.int64), np.empty(0, np.int64)
            o = np.lexsort((sts, su))
            su, sts = su[o], sts[o]
            first = np.ones(len(su), dtype=bool)
            first[1:] = su[1:] != su[:-1]
            return su[first], sts[first]

        users_v, t1 = first_after("view", None, None)
        users_c, t2 = first_after("click", users_v, t1)
        users_p, _ = first_after("purchase", users_c, t2)
        return pa.table({
            "n_view": pa.array([len(users_v)], pa.int64()),
            "n_click": pa.array([len(users_c)], pa.int64()),
            "n_purchase": pa.array([len(users_p)], pa.int64())})

    agg = (_read(sf_dir, "events", ["user_id", "ts", "event_type"])
           .map_batches(add_bucket, batch_format="pyarrow",
                        zero_copy_batch=True)
           .groupby("__bucket")
           .map_groups(funnel_bucket, batch_format="pyarrow")
           .aggregate(Sum("n_view", alias_name="n_view"),
                      Sum("n_click", alias_name="n_click"),
                      Sum("n_purchase", alias_name="n_purchase")))
    return pa.table({
        "n_view": pa.array([int(agg["n_view"] or 0)], pa.int64()),
        "n_click": pa.array([int(agg["n_click"] or 0)], pa.int64()),
        "n_purchase": pa.array([int(agg["n_purchase"] or 0)],
                               pa.int64())})


FUNNEL_SQL = """
WITH v AS (SELECT user_id, min(ts) AS t1 FROM events
           WHERE event_type = 'view' GROUP BY user_id),
c AS (SELECT e.user_id, min(e.ts) AS t2
      FROM events e JOIN v ON v.user_id = e.user_id
      WHERE e.event_type = 'click' AND e.ts > v.t1
      GROUP BY e.user_id),
p AS (SELECT e.user_id, min(e.ts) AS t3
      FROM events e JOIN c ON c.user_id = e.user_id
      WHERE e.event_type = 'purchase' AND e.ts > c.t2
      GROUP BY e.user_id)
SELECT CAST((SELECT count(*) FROM v) AS BIGINT) AS n_view,
       CAST((SELECT count(*) FROM c) AS BIGINT) AS n_click,
       CAST((SELECT count(*) FROM p) AS BIGINT) AS n_purchase
"""


def ks_test_events(sf_dir: str):
    """ES bucket_count_ks_test analog: the two-sample Kolmogorov-
    Smirnov statistic between the value distributions of 'view' and
    'purchase' events, EXACT — D = max|F_v − F_p| over the pooled
    support is a rational with denominator n_v·n_p, so the output is
    the integer numerator plus one single division both engines
    perform on the same two integers (bit-identical doubles).  ES
    reports ks p-values from a simulation; the statistic itself is the
    deterministic part and the one worth an oracle.  Shape: per-batch
    (cents, n_v, n_p) partials (bounded by distinct cents per batch) →
    one groupby over the cents support → a driver cumulative over the
    support table (bounded by the value domain × scale, NOT by corpus
    rows).  p-value intentionally omitted (needs exp(); see the DSIR
    ln() note — transcendentals don't value-hash across engines)."""
    from ray.data.aggregate import Sum

    A, B = "view", "purchase"

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["event_type"],
                              value_set=pa.array([A, B])))
        t = _int_scaled(t, {"value": 100})
        cents = t["value"].to_numpy(zero_copy_only=False)
        is_a = np.asarray(
            pc.equal(t["event_type"], pa.scalar(A)).combine_chunks()
            .to_numpy(zero_copy_only=False), dtype=bool)
        u, inv = np.unique(cents, return_inverse=True)
        nv = np.bincount(inv[is_a], minlength=len(u))
        npur = np.bincount(inv[~is_a], minlength=len(u))
        return pa.table({"cents": pa.array(u, pa.int64()),
                         "n_v": pa.array(nv.astype(np.int64)),
                         "n_p": pa.array(npur.astype(np.int64))})

    g = (_read(sf_dir, "events", ["event_type", "value"])
         .map_batches(partial, batch_format="pyarrow",
                      zero_copy_batch=True)
         .groupby("cents")
         .aggregate(Sum("n_v", alias_name="n_v"),
                    Sum("n_p", alias_name="n_p")))
    empty = pa.table({"cents": pa.array([], pa.int64()),
                      "n_v": pa.array([], pa.int64()),
                      "n_p": pa.array([], pa.int64())})
    t = pa.concat_tables(
        list(g.iter_batches(batch_format="pyarrow", batch_size=1 << 20))
        or [empty])
    cents = t["cents"].to_numpy(zero_copy_only=False)
    order = np.argsort(cents, kind="stable")
    nv = t["n_v"].to_numpy(zero_copy_only=False)[order]
    npp = t["n_p"].to_numpy(zero_copy_only=False)[order]
    cv, cp = np.cumsum(nv), np.cumsum(npp)
    if not len(cv):
        # no event of either class: the oracle's empty cross join
        return pa.table({"n_view": pa.array([], pa.int64()),
                         "n_purchase": pa.array([], pa.int64()),
                         "d_num": pa.array([], pa.int64()),
                         "d": pa.array([], pa.float64())})
    tot_v, tot_p = int(cv[-1]), int(cp[-1])
    d_num = int(np.abs(cv * tot_p - cp * tot_v).max())
    d = (d_num / float(tot_v * tot_p)) if tot_v and tot_p else 0.0
    return pa.table({"n_view": pa.array([tot_v], pa.int64()),
                     "n_purchase": pa.array([tot_p], pa.int64()),
                     "d_num": pa.array([d_num], pa.int64()),
                     "d": pa.array([d], pa.float64())})


KS_TEST_SQL = """
WITH c AS (SELECT CAST(round(value * 100) AS BIGINT) AS cents,
                  event_type
           FROM events WHERE event_type IN ('view', 'purchase')),
g AS (SELECT cents,
             CAST(sum(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END)
                  AS BIGINT) AS nv,
             CAST(sum(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0
                      END) AS BIGINT) AS np
      FROM c GROUP BY cents),
cum AS (SELECT cents,
               CAST(sum(nv) OVER (ORDER BY cents) AS BIGINT) AS cv,
               CAST(sum(np) OVER (ORDER BY cents) AS BIGINT) AS cp
        FROM g),
tot AS (SELECT CAST(sum(nv) AS BIGINT) AS nv,
               CAST(sum(np) AS BIGINT) AS np FROM g)
SELECT tot.nv AS n_view, tot.np AS n_purchase,
       CAST(max(abs(cum.cv * tot.np - cum.cp * tot.nv)) AS BIGINT)
         AS d_num,
       CASE WHEN tot.nv * tot.np = 0 THEN 0.0
            ELSE CAST(max(abs(cum.cv * tot.np - cum.cp * tot.nv))
                      AS BIGINT) / CAST(tot.nv * tot.np AS DOUBLE)
       END AS d
FROM cum, tot
GROUP BY tot.nv, tot.np
"""


_WEEK_US = 7 * 86_400_000_000


def retention_cohorts_events(sf_dir: str):
    """Cohort retention (the product-analytics transform ES ships as a
    `transform` + date_histogram pivot): cohort_week = the ISO-epoch
    week of a user's FIRST event, week_offset = any later active week
    minus it, n_users = DISTINCT users from that cohort active at that
    offset.  All integer (microsecond floor-division weeks), so the
    oracle is exact.  Shape: users hash into buckets (ONE corpus-sized
    shuffle, the funnel pattern); inside a bucket everything is
    lexsort + boundary masks, and only bounded (cohort, offset, count)
    partials cross the final exchange."""
    from ray.data.aggregate import Sum

    N_BUCKETS = 64

    def add_bucket(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        wk = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False) \
            // _WEEK_US
        return pa.table({
            "__bucket": pa.array(uid % N_BUCKETS, pa.int64()),
            "user_id": pa.array(uid, pa.int64()),
            "wk": pa.array(wk, pa.int64())})

    def cohort_bucket(g: pa.Table) -> pa.Table:
        u = g["user_id"].to_numpy(zero_copy_only=False)
        wk = g["wk"].to_numpy(zero_copy_only=False)
        order = np.lexsort((wk, u))
        u, wk = u[order], wk[order]
        first = np.ones(len(u), dtype=bool)
        first[1:] = u[1:] != u[:-1]
        cohort_of_user = wk[first]          # min week per user (sorted)
        users = u[first]
        # distinct (user, week) rows
        dedup = np.ones(len(u), dtype=bool)
        dedup[1:] = (u[1:] != u[:-1]) | (wk[1:] != wk[:-1])
        du, dwk = u[dedup], wk[dedup]
        cw = cohort_of_user[np.searchsorted(users, du)]
        off = dwk - cw
        key = cw * 10_000 + off             # offsets ≪ 10k by range
        ukey, cnt = np.unique(key, return_counts=True)
        return pa.table({
            "cohort_week": pa.array(ukey // 10_000, pa.int64()),
            "week_offset": pa.array(ukey % 10_000, pa.int64()),
            "n_users": pa.array(cnt.astype(np.int64))})

    return (_read(sf_dir, "events", ["user_id", "ts"])
            .map_batches(add_bucket, batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby("__bucket")
            .map_groups(cohort_bucket, batch_format="pyarrow")
            .groupby(["cohort_week", "week_offset"])
            .aggregate(Sum("n_users", alias_name="n_users")))


RETENTION_SQL = f"""
WITH e AS (SELECT user_id,
                  CAST(epoch_us(ts) AS BIGINT) // {_WEEK_US} AS wk
           FROM events),
f AS (SELECT user_id, min(wk) AS cw FROM e GROUP BY user_id),
uw AS (SELECT DISTINCT e.user_id, f.cw, e.wk - f.cw AS off
       FROM e JOIN f USING (user_id))
SELECT cw AS cohort_week, off AS week_offset,
       CAST(count(*) AS BIGINT) AS n_users
FROM uw GROUP BY cw, off
"""


PR_TARGETS_CENTS = (1_000, 5_000, 20_000)   # $10 / $50 / $200


def percentile_ranks_events(sf_dir: str):
    """ES percentile_ranks aggregation: for each target value, the
    fraction of events at or below it — the inverse of the quantiles
    query.  Exact: per-batch (n_le per target, n_total) integer
    combiners (one tiny row per batch crosses the exchange), one
    driver division rounded to ppm identically on both sides."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        half_away = pc.RoundOptions(round_mode="half_towards_infinity")
        cents = pc.cast(pc.round(pc.multiply(t["value"],
                                             pa.scalar(100.0)),
                                 options=half_away), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.table({
            "value_cents": pa.array(PR_TARGETS_CENTS, pa.int64()),
            "n_le": pa.array([int((cents <= v).sum())
                              for v in PR_TARGETS_CENTS], pa.int64()),
            "n_total": pa.array([len(cents)] * len(PR_TARGETS_CENTS),
                                pa.int64())})

    agg = (_read(sf_dir, "events", ["value"])
           .map_batches(partial, batch_format="pyarrow",
                        zero_copy_batch=True)
           .groupby("value_cents")
           .aggregate(Sum("n_le", alias_name="n_le"),
                      Sum("n_total", alias_name="n_total")))
    t = pa.concat_tables(list(agg.iter_batches(batch_format="pyarrow")))
    v = t["value_cents"].to_numpy(zero_copy_only=False)
    n_le = t["n_le"].to_numpy(zero_copy_only=False)
    n_tot = t["n_total"].to_numpy(zero_copy_only=False)
    # np.round is half-to-even; SQL round() is half-away — ppm ≥ 0 so
    # floor(x + 0.5) IS half-away here (the repo's exactness rule)
    ppm = np.floor(1_000_000.0 * n_le / np.maximum(n_tot, 1) + 0.5) \
        .astype(np.int64)
    out = pa.table({"value_cents": pa.array(v, pa.int64()),
                    "n_le": pa.array(n_le, pa.int64()),
                    "n_total": pa.array(n_tot, pa.int64()),
                    "rank_ppm": pa.array(ppm, pa.int64())})
    return out.take(pc.sort_indices(out, sort_keys=[
        ("value_cents", "ascending")]))


PERCENTILE_RANKS_SQL = f"""
WITH c AS (SELECT CAST(round(value * 100) AS BIGINT) AS cents
           FROM events),
t(v) AS (VALUES {", ".join(f"({v})" for v in PR_TARGETS_CENTS)}),
agg AS (
  SELECT v,
         CAST(sum(CASE WHEN cents <= v THEN 1 ELSE 0 END) AS BIGINT)
           AS n_le,
         CAST(count(*) AS BIGINT) AS n_total
  FROM c, t GROUP BY v)
SELECT CAST(v AS BIGINT) AS value_cents, n_le, n_total,
       CAST(round(1000000.0 * n_le / n_total) AS BIGINT) AS rank_ppm
FROM agg ORDER BY value_cents
"""


# ----------------------------------------------------- TPC-H Q7 shape --

def q7_volume_shipping(sf_dir: str):
    """TPC-H Q7 shape (multi-join: one large×large edge + two
    broadcast dimension chains): lineitem joins orders through the
    co-partitioned hash-shuffle join — the ONLY shuffle; the
    supplier→nation and customer→nation chains collapse to broadcast
    probe maps (suppkey→nation name, custkey→nation name) built from
    the small dimension tables.  Revenue by (supp_nation,
    cust_nation, year) for the two nation pairs, exact integer
    cents."""
    import ray
    from ray.data.aggregate import Sum

    n1, n2 = "NATION_3", "NATION_19"
    lo = pa.scalar(np.datetime64("1996-01-01", "us"))
    hi = pa.scalar(np.datetime64("1998-01-01", "us"))

    import pyarrow.parquet as _pq
    nat = _pq.read_table(f"{sf_dir}/nation.parquet",
                         columns=["n_nationkey", "n_name"])
    nmap = dict(zip(nat["n_nationkey"].to_pylist(),
                    nat["n_name"].to_pylist()))
    sup = _pq.read_table(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_nationkey"])
    cus = _pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"])

    # broadcast compact int64 key→nationkey maps (the Q5 precedent);
    # names resolve ONCE on the tiny final aggregate, never per row —
    # a |customer|-sized unicode broadcast is pure object-store waste
    rev = {v: k for k, v in nmap.items()}
    nk1, nk2 = rev[n1], rev[n2]

    def sorted_map(keys_arr, nk_arr):
        k = keys_arr.to_numpy(zero_copy_only=False)
        order = np.argsort(k)
        nk = nk_arr.to_numpy(zero_copy_only=False).astype(np.int64)
        return k[order], nk[order]

    s_keys, s_nk = sorted_map(sup["s_suppkey"], sup["s_nationkey"])
    c_keys, c_nk = sorted_map(cus["c_custkey"], cus["c_nationkey"])
    dim_ref = ray.put((s_keys, s_nk, c_keys, c_nk))

    def li_partial(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.greater_equal(t["l_shipdate"], lo),
                       pc.less(t["l_shipdate"], hi))
        t = t.filter(keep)
        half_away = pc.RoundOptions(round_mode="half_towards_infinity")
        cents = pc.cast(pc.round(pc.multiply(pc.multiply(
            t["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), t["l_discount"])),
            pa.scalar(100.0)), options=half_away), pa.int64())
        year = pc.year(t["l_shipdate"]).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "l_suppkey": t["l_suppkey"],
                         "cents": cents,
                         "l_year": pa.array(year, pa.int64())})

    li = (_read(sf_dir, "lineitem",
                ["l_orderkey", "l_suppkey", "l_extendedprice",
                 "l_discount", "l_shipdate"])
          .map_batches(li_partial, batch_format="pyarrow",
                       zero_copy_batch=True))
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    cpus = int(ray.cluster_resources().get("CPU", 8))
    j = li.join(orders, join_type="inner",
                num_partitions=max(2, cpus // 2),
                on=("l_orderkey",), right_on=("o_orderkey",),
                aggregator_ray_remote_args={"num_cpus": 0.5})

    def rev_partial(t: pa.Table) -> pa.Table:
        sk, snk, ck, cnk = ray.get(dim_ref)
        sup_k = t["l_suppkey"].to_numpy(zero_copy_only=False)
        cus_k = t["o_custkey"].to_numpy(zero_copy_only=False)
        spos = np.clip(np.searchsorted(sk, sup_k), 0, len(sk) - 1)
        cpos = np.clip(np.searchsorted(ck, cus_k), 0, len(ck) - 1)
        s_nat = snk[spos]
        c_nat = cnk[cpos]
        ok = (((s_nat == nk1) & (c_nat == nk2))
              | ((s_nat == nk2) & (c_nat == nk1)))
        ok &= (sk[spos] == sup_k) & (ck[cpos] == cus_k)
        t2 = pa.table({"supp_nk": pa.array(s_nat[ok], pa.int64()),
                       "cust_nk": pa.array(c_nat[ok], pa.int64()),
                       "l_year": t["l_year"].filter(pa.array(ok)),
                       "cents": t["cents"].filter(pa.array(ok))})
        g = t2.group_by(["supp_nk", "cust_nk", "l_year"]) \
              .aggregate([("cents", "sum")])
        return g.rename_columns(["supp_nk", "cust_nk",
                                 "l_year", "cents_part"])

    agg = (j.map_batches(rev_partial, batch_format="pyarrow")
           .groupby(["supp_nk", "cust_nk", "l_year"])
           .aggregate(Sum("cents_part", alias_name="revenue_cents")))
    batches = list(agg.iter_batches(batch_format="pyarrow"))
    if not batches:
        return pa.table({"supp_nation": pa.array([], pa.string()),
                         "cust_nation": pa.array([], pa.string()),
                         "l_year": pa.array([], pa.int64()),
                         "revenue_cents": pa.array([], pa.int64())})
    t = pa.concat_tables(batches)
    t = pa.table({"supp_nation": pa.array(
                      [nmap[x] for x in t["supp_nk"].to_pylist()],
                      pa.string()),
                  "cust_nation": pa.array(
                      [nmap[x] for x in t["cust_nk"].to_pylist()],
                      pa.string()),
                  "l_year": t["l_year"].cast(pa.int64()),
                  "revenue_cents": t["revenue_cents"].cast(pa.int64())})
    return t.take(pc.sort_indices(t, sort_keys=[
        ("supp_nation", "ascending"), ("cust_nation", "ascending"),
        ("l_year", "ascending")]))


Q7_SQL = """
SELECT s_nat.n_name AS supp_nation,
       c_nat.n_name AS cust_nation,
       CAST(year(l_shipdate) AS BIGINT) AS l_year,
       CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 100)
                     AS BIGINT)) AS BIGINT) AS revenue_cents
FROM lineitem
JOIN orders   ON o_orderkey = l_orderkey
JOIN customer ON c_custkey = o_custkey
JOIN supplier ON s_suppkey = l_suppkey
JOIN nation s_nat ON s_nat.n_nationkey = s_nationkey
JOIN nation c_nat ON c_nat.n_nationkey = c_nationkey
WHERE l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate <  TIMESTAMP '1998-01-01'
  AND ((s_nat.n_name = 'NATION_3' AND c_nat.n_name = 'NATION_19')
    OR (s_nat.n_name = 'NATION_19' AND c_nat.n_name = 'NATION_3'))
GROUP BY supp_nation, cust_nation, l_year
ORDER BY supp_nation, cust_nation, l_year
"""


# ---------------------------------------------------- TPC-H Q8 shape --


def q8_market_share(sf_dir: str):
    """TPC-H Q8 (national market share): the target nation's share of
    region-wide revenue for one part type, by order year.

    Plan (the Q7 discipline): lineitem pre-filtered by a broadcast
    PROMO-part key set, orders pre-filtered to the two-year window
    BEFORE the one co-partitioned hash-shuffle join; supplier→nation
    and customer→nation→region collapse to broadcast int probe maps.
    Share = the float64 quotient of two exact integer-cent sums — the
    identical division the oracle performs, so the ratio is
    bit-identical, and both sums ship in the output anyway."""
    import ray
    from ray.data.aggregate import Sum

    import pyarrow.parquet as _pq

    target_nation, region_name, p_type = "NATION_3", "ASIA", "PROMO"
    lo = pa.scalar(np.datetime64("1995-01-01", "us"))
    hi = pa.scalar(np.datetime64("1997-01-01", "us"))

    nat = _pq.read_table(f"{sf_dir}/nation.parquet",
                         columns=["n_nationkey", "n_name", "n_regionkey"])
    reg = _pq.read_table(f"{sf_dir}/region.parquet",
                         columns=["r_regionkey", "r_name"])
    rkey = {r: k for k, r in zip(reg["r_regionkey"].to_pylist(),
                                 reg["r_name"].to_pylist())}[region_name]
    nk_target = {n: k for k, n in zip(nat["n_nationkey"].to_pylist(),
                                      nat["n_name"].to_pylist())}[target_nation]
    region_nations = np.sort(np.array(
        [k for k, rk in zip(nat["n_nationkey"].to_pylist(),
                            nat["n_regionkey"].to_pylist()) if rk == rkey],
        dtype=np.int64))

    part = _pq.read_table(f"{sf_dir}/part.parquet",
                          columns=["p_partkey", "p_type"])
    pkeys = np.sort(part.filter(pc.equal(part["p_type"], p_type))
                    ["p_partkey"].to_numpy(zero_copy_only=False)
                    .astype(np.int64))
    sup = _pq.read_table(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_nationkey"])
    cus = _pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"])

    def _sorted_map(keys_arr, val_arr):
        k = keys_arr.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(k)
        return k[order], (val_arr.to_numpy(zero_copy_only=False)
                          .astype(np.int64)[order])

    s_keys, s_nk = _sorted_map(sup["s_suppkey"], sup["s_nationkey"])
    c_keys, c_nk = _sorted_map(cus["c_custkey"], cus["c_nationkey"])
    dim_ref = ray.put((pkeys, s_keys, s_nk, c_keys, c_nk,
                       region_nations))

    def li_partial(t: pa.Table) -> pa.Table:
        pk, sk, snk, _, _, _ = ray.get(dim_ref)
        lp = t["l_partkey"].to_numpy(zero_copy_only=False)
        if len(pk):
            pos = np.clip(np.searchsorted(pk, lp), 0, len(pk) - 1)
            keep = pk[pos] == lp
        else:
            keep = np.zeros(len(lp), dtype=bool)
        t = t.filter(pa.array(keep))
        half_away = pc.RoundOptions(round_mode="half_towards_infinity")
        cents = pc.cast(pc.round(pc.multiply(pc.multiply(
            t["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), t["l_discount"])),
            pa.scalar(100.0)), options=half_away), pa.int64())
        sup_k = t["l_suppkey"].to_numpy(zero_copy_only=False)
        spos = np.clip(np.searchsorted(sk, sup_k), 0, len(sk) - 1)
        is_target = (sk[spos] == sup_k) & (snk[spos] == nk_target)
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "cents": cents,
                         "is_target": pa.array(is_target)})

    def ord_partial(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.greater_equal(t["o_orderdate"], lo),
                       pc.less(t["o_orderdate"], hi))
        t = t.filter(keep)
        year = pc.year(t["o_orderdate"]).cast(pa.int64())
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "o_custkey": t["o_custkey"],
                         "o_year": year})

    li = (_read(sf_dir, "lineitem",
                ["l_orderkey", "l_partkey", "l_suppkey",
                 "l_extendedprice", "l_discount"])
          .map_batches(li_partial, batch_format="pyarrow",
                       zero_copy_batch=True))
    orders = (_read(sf_dir, "orders",
                    ["o_orderkey", "o_custkey", "o_orderdate"])
              .map_batches(ord_partial, batch_format="pyarrow",
                           zero_copy_batch=True))
    cpus = int(ray.cluster_resources().get("CPU", 8))
    j = li.join(orders, join_type="inner",
                num_partitions=max(2, cpus // 2),
                on=("l_orderkey",), right_on=("o_orderkey",),
                aggregator_ray_remote_args={"num_cpus": 0.5})

    def share_partial(t: pa.Table) -> pa.Table:
        _, _, _, ck, cnk, rnat = ray.get(dim_ref)
        cus_k = t["o_custkey"].to_numpy(zero_copy_only=False)
        cpos = np.clip(np.searchsorted(ck, cus_k), 0, len(ck) - 1)
        c_nat = cnk[cpos]
        rpos = np.clip(np.searchsorted(rnat, c_nat), 0, len(rnat) - 1)
        ok = (ck[cpos] == cus_k) & (rnat[rpos] == c_nat)
        cents = t["cents"].to_numpy(zero_copy_only=False)[ok]
        is_t = t["is_target"].to_numpy(zero_copy_only=False)[ok]
        year = t["o_year"].to_numpy(zero_copy_only=False)[ok]
        t2 = pa.table({"o_year": pa.array(year, pa.int64()),
                       "nat": pa.array(np.where(is_t, cents, 0),
                                       pa.int64()),
                       "tot": pa.array(cents, pa.int64())})
        g = t2.group_by("o_year").aggregate([("nat", "sum"),
                                             ("tot", "sum")])
        return g.rename_columns(["o_year", "nat_part", "tot_part"])

    agg = (j.map_batches(share_partial, batch_format="pyarrow")
           .groupby("o_year")
           .aggregate(Sum("nat_part", alias_name="nation_cents"),
                      Sum("tot_part", alias_name="total_cents")))
    batches = list(agg.iter_batches(batch_format="pyarrow"))
    if not batches:
        return pa.table({"o_year": pa.array([], pa.int64()),
                         "nation_cents": pa.array([], pa.int64()),
                         "total_cents": pa.array([], pa.int64()),
                         "mkt_share": pa.array([], pa.float64())})
    t = pa.concat_tables(batches)
    nc = t["nation_cents"].cast(pa.int64())
    tc = t["total_cents"].cast(pa.int64())
    share = pc.divide(nc.cast(pa.float64()), tc.cast(pa.float64()))
    t = pa.table({"o_year": t["o_year"].cast(pa.int64()),
                  "nation_cents": nc, "total_cents": tc,
                  "mkt_share": share})
    return t.take(pc.sort_indices(t, sort_keys=[("o_year", "ascending")]))


Q8_SQL = """
WITH vol AS (
  SELECT CAST(year(o_orderdate) AS BIGINT) AS o_year,
         CAST(round(l_extendedprice * (1 - l_discount) * 100)
              AS BIGINT) AS cents,
         s_nat.n_name AS supp_nation
  FROM lineitem
  JOIN part     ON p_partkey = l_partkey AND p_type = 'PROMO'
  JOIN orders   ON o_orderkey = l_orderkey
  JOIN customer ON c_custkey = o_custkey
  JOIN nation c_nat ON c_nat.n_nationkey = c_nationkey
  JOIN region   ON r_regionkey = c_nat.n_regionkey AND r_name = 'ASIA'
  JOIN supplier ON s_suppkey = l_suppkey
  JOIN nation s_nat ON s_nat.n_nationkey = s_nationkey
  WHERE o_orderdate >= TIMESTAMP '1995-01-01'
    AND o_orderdate <  TIMESTAMP '1997-01-01')
SELECT o_year,
       CAST(sum(CASE WHEN supp_nation = 'NATION_3' THEN cents ELSE 0 END)
            AS BIGINT) AS nation_cents,
       CAST(sum(cents) AS BIGINT) AS total_cents,
       CAST(sum(CASE WHEN supp_nation = 'NATION_3' THEN cents ELSE 0 END)
            AS DOUBLE) / CAST(sum(cents) AS DOUBLE) AS mkt_share
FROM vol GROUP BY o_year ORDER BY o_year
"""


# ---------------------------------------------------- TPC-H Q21 shape --


def q21_waiting_suppliers(sf_dir: str, late_days: int = 365):
    """TPC-H Q21 shape (suppliers who kept orders waiting): for
    finished multi-supplier orders, find the supplier who was the
    ONLY late one — the EXISTS(other supplier) / NOT EXISTS(other
    late supplier) correlated pair, composed from one shuffle join
    plus one bucketed groupby.

    ADAPTED PREDICATE (documented): the reference TPC-H lateness
    l_receiptdate > l_commitdate uses columns this corpus does not
    carry; here late = l_shipdate > o_orderdate + ``late_days`` days.
    The operator composition (fact⋈fact join, per-order correlated
    quantifiers, per-supplier count) is the point, and the oracle
    applies the identical predicate.

    Vectorized per bucket: lexsort (orderkey, suppkey) → per-pair
    any-late collapse → per-order distinct/late counts → emit the
    lone late supplier of each qualifying order."""
    import ray
    from ray.data.aggregate import Sum

    import pyarrow.parquet as _pq

    late = np.timedelta64(late_days, "D")

    def ord_f(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["o_orderstatus"], "F"))
        return t.select(["o_orderkey", "o_orderdate"])

    orders = (_read(sf_dir, "orders",
                    ["o_orderkey", "o_orderdate", "o_orderstatus"])
              .map_batches(ord_f, batch_format="pyarrow",
                           zero_copy_batch=True))
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_shipdate"])
    cpus = int(ray.cluster_resources().get("CPU", 8))
    j = li.join(orders, join_type="inner",
                num_partitions=max(2, cpus // 2),
                on=("l_orderkey",), right_on=("o_orderkey",),
                aggregator_ray_remote_args={"num_cpus": 0.5})

    N_BUCKETS = 64

    def bucket(t: pa.Table) -> pa.Table:
        ok = t["l_orderkey"].to_numpy(zero_copy_only=False)
        ship = t["l_shipdate"].to_numpy(zero_copy_only=False)
        odate = t["o_orderdate"].to_numpy(zero_copy_only=False)
        is_late = (ship > odate + late)
        return pa.table({
            "bucket": pa.array((ok % N_BUCKETS).astype(np.int32)),
            "l_orderkey": pa.array(ok, pa.int64()),
            "l_suppkey": t["l_suppkey"],
            "late": pa.array(is_late.astype(np.int8))})

    def lone_late_of_group(g: pa.Table) -> pa.Table:
        ok = g["l_orderkey"].to_numpy(zero_copy_only=False)
        sk = g["l_suppkey"].to_numpy(zero_copy_only=False)
        lt = g["late"].to_numpy(zero_copy_only=False)
        order = np.lexsort((sk, ok))
        ok, sk, lt = ok[order], sk[order], lt[order]
        # collapse to one row per (order, supplier): any-late
        pstart = np.flatnonzero(np.r_[True, (ok[1:] != ok[:-1])
                                      | (sk[1:] != sk[:-1])])
        p_ok = ok[pstart]
        p_sk = sk[pstart]
        p_lt = np.maximum.reduceat(lt, pstart)
        # per-order segments over the collapsed pairs
        ostart = np.flatnonzero(np.r_[True, p_ok[1:] != p_ok[:-1]])
        n_supp = np.diff(np.r_[ostart, len(p_ok)])
        n_late = np.add.reduceat(p_lt, ostart)
        seg = np.cumsum(np.r_[False, p_ok[1:] != p_ok[:-1]])
        keep = (p_lt == 1) & (n_supp[seg] >= 2) & (n_late[seg] == 1)
        t2 = pa.table({"l_suppkey": pa.array(p_sk[keep], pa.int64()),
                       "one": pa.array(np.ones(int(keep.sum()),
                                               dtype=np.int64))})
        g2 = t2.group_by("l_suppkey").aggregate([("one", "sum")])
        return g2.rename_columns(["l_suppkey", "wait_part"])

    agg = (j.map_batches(bucket, batch_format="pyarrow")
           .groupby("bucket")
           .map_groups(lone_late_of_group, batch_format="pyarrow")
           .groupby("l_suppkey")
           .aggregate(Sum("wait_part", alias_name="numwait")))
    batches = list(agg.iter_batches(batch_format="pyarrow"))
    sup = _pq.read_table(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_name"])
    smap = dict(zip(sup["s_suppkey"].to_pylist(),
                    sup["s_name"].to_pylist()))
    if not batches:
        return pa.table({"s_name": pa.array([], pa.string()),
                         "numwait": pa.array([], pa.int64())})
    t = pa.concat_tables(batches)
    t = pa.table({"s_name": pa.array(
                      [smap[k] for k in t["l_suppkey"].to_pylist()],
                      pa.string()),
                  "numwait": t["numwait"].cast(pa.int64())})
    return t.take(pc.sort_indices(t, sort_keys=[
        ("numwait", "descending"), ("s_name", "ascending")]))


Q21_SQL = """
WITH l AS (
  SELECT l_orderkey, l_suppkey, l_shipdate, o_orderdate
  FROM lineitem
  JOIN orders ON o_orderkey = l_orderkey AND o_orderstatus = 'F'),
per AS (
  SELECT l_orderkey, l_suppkey,
         max(CASE WHEN l_shipdate > o_orderdate + INTERVAL 365 DAY
                  THEN 1 ELSE 0 END) AS late
  FROM l GROUP BY 1, 2),
ord AS (SELECT l_orderkey, count(*) AS n_supp, sum(late) AS n_late
        FROM per GROUP BY 1),
waiting AS (
  SELECT p.l_suppkey FROM per p JOIN ord o USING (l_orderkey)
  WHERE p.late = 1 AND o.n_supp >= 2 AND o.n_late = 1)
SELECT s_name, CAST(count(*) AS BIGINT) AS numwait
FROM waiting JOIN supplier ON s_suppkey = l_suppkey
GROUP BY s_name ORDER BY numwait DESC, s_name
"""


# ---------------------------------------------------- TPC-H Q15 shape --

def q15_top_supplier(sf_dir: str):
    """TPC-H Q15 shape (argmax over an aggregate view, ties kept):
    revenue per supplier from one partial-agg groupby (per-batch
    supplier sums, one row per supplier crosses the exchange), then
    the max and the equality filter run on the reduced table — the
    'create view + where total = (select max)' plan with no second
    scan of the fact table."""
    from ray.data.aggregate import Sum

    lo = pa.scalar(np.datetime64("1996-01-01", "us"))
    hi = pa.scalar(np.datetime64("1996-04-01", "us"))

    def partial(t: pa.Table) -> pa.Table:
        half_away = pc.RoundOptions(round_mode="half_towards_infinity")
        keep = pc.and_(pc.greater_equal(t["l_shipdate"], lo),
                       pc.less(t["l_shipdate"], hi))
        t = t.filter(keep)
        cents = pc.cast(pc.round(pc.multiply(pc.multiply(
            t["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), t["l_discount"])),
            pa.scalar(100.0)), options=half_away), pa.int64())
        t2 = pa.table({"l_suppkey": t["l_suppkey"], "cents": cents})
        g = t2.group_by("l_suppkey").aggregate([("cents", "sum")])
        return g.rename_columns(["l_suppkey", "cents_part"])

    agg = (_read(sf_dir, "lineitem",
                 ["l_suppkey", "l_extendedprice", "l_discount",
                  "l_shipdate"])
           .map_batches(partial, batch_format="pyarrow",
                        zero_copy_batch=True)
           .groupby("l_suppkey")
           .aggregate(Sum("cents_part", alias_name="total_revenue_cents")))
    batches = list(agg.iter_batches(batch_format="pyarrow"))
    if not batches:
        return pa.table({"s_suppkey": pa.array([], pa.int64()),
                         "s_name": pa.array([], pa.string()),
                         "total_revenue_cents": pa.array([], pa.int64())})
    t = pa.concat_tables(batches)
    rev = t["total_revenue_cents"].to_numpy(zero_copy_only=False)
    best = t.filter(pa.array(rev == rev.max()))
    import pyarrow.parquet as _pq
    sup = _pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"],
        filters=[("s_suppkey", "in",
                  sorted(best["l_suppkey"].to_pylist()))])
    smap = dict(zip(sup["s_suppkey"].to_pylist(),
                    sup["s_name"].to_pylist()))
    out = pa.table({
        "s_suppkey": best["l_suppkey"].cast(pa.int64()),
        "s_name": pa.array([smap[x] for x
                            in best["l_suppkey"].to_pylist()],
                           pa.string()),
        "total_revenue_cents":
            best["total_revenue_cents"].cast(pa.int64())})
    return out.take(pc.sort_indices(out, sort_keys=[
        ("s_suppkey", "ascending")]))


Q15_SQL = """
WITH revenue AS (
  SELECT l_suppkey AS supplier_no,
         CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 100)
                       AS BIGINT)) AS BIGINT) AS total_revenue_cents
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate <  TIMESTAMP '1996-04-01'
  GROUP BY l_suppkey)
SELECT s_suppkey, s_name, total_revenue_cents
FROM supplier JOIN revenue ON s_suppkey = supplier_no
WHERE total_revenue_cents = (SELECT max(total_revenue_cents)
                             FROM revenue)
ORDER BY s_suppkey
"""


# ---------------------------------------------------- TPC-H Q17 shape --

def q17_small_quantity_revenue(sf_dir: str):
    """TPC-H Q17 shape (correlated per-key average threshold): the
    per-part quantity average is computed as EXACT integer pairs
    (sum_q100, n) in one partial-agg groupby over the brand-filtered
    lineitems, joined back by broadcast; the threshold test is the
    cross-multiplication ``5·q·n < sum_q100`` (0.2·avg without float
    division — quantities carried ×100).  Revenue of qualifying rows
    ÷ 7, returned as exact integer milli-cents-per-7."""
    import ray
    from ray.data.aggregate import Sum

    brand = "Brand#23"

    pt = pa.concat_tables(list(
        _read(sf_dir, "part", ["p_partkey", "p_brand"])
        .iter_batches(batch_format="pyarrow")))
    keep = pc.equal(pt["p_brand"], brand)
    bkeys = np.sort(pt.filter(keep)["p_partkey"].to_numpy(
        zero_copy_only=False))
    bref = ray.put(bkeys)

    def q_partial(t: pa.Table) -> pa.Table:
        bk = ray.get(bref)
        pk = t["l_partkey"].to_numpy(zero_copy_only=False)
        if len(bk) == 0:
            hit = np.zeros(len(pk), dtype=bool)
        else:
            pos = np.clip(np.searchsorted(bk, pk), 0, len(bk) - 1)
            hit = bk[pos] == pk
        q100 = np.floor(t["l_quantity"].to_numpy(
            zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)
        t2 = pa.table({"l_partkey": pa.array(pk[hit], pa.int64()),
                       "q100": pa.array(q100[hit], pa.int64()),
                       "one": pa.array(np.ones(int(hit.sum()),
                                               np.int64))})
        g = t2.group_by("l_partkey").aggregate(
            [("q100", "sum"), ("one", "sum")])
        return g.rename_columns(["l_partkey", "sum_q100", "n"])

    # pass 1 reads only the two columns it uses; l_extendedprice is
    # decoded only by the revenue pass
    avg_batches = list(
        (_read(sf_dir, "lineitem", ["l_partkey", "l_quantity"])
         .map_batches(q_partial, batch_format="pyarrow",
                      zero_copy_batch=True)
         .groupby("l_partkey")
         .aggregate(Sum("sum_q100", alias_name="sum_q100"),
                    Sum("n", alias_name="n")))
        .iter_batches(batch_format="pyarrow"))
    if not avg_batches:   # brand matches nothing → sum is 0, like the
        return pa.table({  # oracle's coalesce(sum(cents), 0)
            "sum_cents": pa.array([0], pa.int64()),
            "avg_yearly_millicents": pa.array([0], pa.int64())})
    avg_t = pa.concat_tables(avg_batches)
    ak = avg_t["l_partkey"].to_numpy(zero_copy_only=False)
    order = np.argsort(ak)
    avg_ref = ray.put((
        ak[order],
        avg_t["sum_q100"].to_numpy(zero_copy_only=False)[order],
        avg_t["n"].to_numpy(zero_copy_only=False)[order]))

    def rev_partial(t: pa.Table) -> pa.Table:
        keys, sq, n = ray.get(avg_ref)
        pk = t["l_partkey"].to_numpy(zero_copy_only=False)
        if len(keys) == 0:
            hit = np.zeros(len(pk), dtype=bool)
            pos = np.zeros(len(pk), dtype=np.int64)
        else:
            pos = np.clip(np.searchsorted(keys, pk), 0, len(keys) - 1)
            hit = keys[pos] == pk
        q100 = np.floor(t["l_quantity"].to_numpy(
            zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)
        # qty < 0.2·avg  ⇔  q100/100 < (sq/100)/(5n)  ⇔  5·q100·n < sq
        ok = hit & (5 * q100 * n[pos] < sq[pos])
        half_away = pc.RoundOptions(round_mode="half_towards_infinity")
        cents = pc.cast(pc.round(pc.multiply(
            t["l_extendedprice"], pa.scalar(100.0)),
            options=half_away), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.table({"cents": pa.array([int(cents[ok].sum())],
                                           pa.int64())})

    agg = (_read(sf_dir, "lineitem",
                 ["l_partkey", "l_quantity", "l_extendedprice"])
           .map_batches(rev_partial, batch_format="pyarrow",
                        zero_copy_batch=True)
           .aggregate(Sum("cents", alias_name="cents")))
    total = int(agg["cents"] or 0)
    # avg yearly = sum/7: carry ×1000 to stay integer-exact
    half = np.floor(1000.0 * total / 7.0 + 0.5)
    return pa.table({"sum_cents": pa.array([total], pa.int64()),
                     "avg_yearly_millicents":
                         pa.array([int(half)], pa.int64())})


Q17_SQL = """
WITH avg_q AS (
  SELECT l_partkey,
         CAST(sum(CAST(round(l_quantity * 100) AS BIGINT)) AS BIGINT)
           AS sum_q100,
         CAST(count(*) AS BIGINT) AS n
  FROM lineitem JOIN part ON p_partkey = l_partkey
  WHERE p_brand = 'Brand#23'
  GROUP BY l_partkey),
hits AS (
  SELECT CAST(round(l_extendedprice * 100) AS BIGINT) AS cents
  FROM lineitem
  JOIN avg_q ON avg_q.l_partkey = lineitem.l_partkey
  WHERE 5 * CAST(round(l_quantity * 100) AS BIGINT) * n < sum_q100)
SELECT CAST(coalesce(sum(cents), 0) AS BIGINT) AS sum_cents,
       CAST(round(1000.0 * coalesce(sum(cents), 0) / 7.0) AS BIGINT)
         AS avg_yearly_millicents
FROM hits
"""


# ---------------------------------------------------- TPC-H Q13 shape --

def q13_customer_distribution(sf_dir: str):
    """TPC-H Q13 shape (left-join count distribution): orders reduce
    to per-customer counts FIRST (two-level partial groupby — one row
    per customer crosses the shuffle, never one per order); the
    zero-order bucket is derived as n_customers − matched, so no
    materialized left join ever exists.  (Adapted predicate: this
    corpus has no o_comment — non-urgent orders play the 'not special
    requests' role.)"""
    from ray.data.aggregate import Sum

    def o_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.invert(pc.equal(t["o_orderpriority"],
                                        "1-URGENT")))
        g = (t.select(["o_custkey"]).group_by("o_custkey")
             .aggregate([("o_custkey", "count")]))
        return g.rename_columns(["o_custkey", "n"])

    counts = (_read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])
              .map_batches(o_partial, batch_format="pyarrow",
                           zero_copy_batch=True)
              .groupby("o_custkey")
              .aggregate(Sum("n", alias_name="c_count")))

    def hist_partial(t: pa.Table) -> pa.Table:
        g = (t.select(["c_count"]).group_by("c_count")
             .aggregate([("c_count", "count")]))
        return g.rename_columns(["c_count", "n"])

    hist = (counts.map_batches(hist_partial, batch_format="pyarrow")
            .groupby("c_count").aggregate(Sum("n", alias_name="custdist")))
    empty = pa.table({"c_count": pa.array([], pa.int64()),
                      "custdist": pa.array([], pa.int64())})
    batches = list(hist.iter_batches(batch_format="pyarrow"))
    # all orders filtered away → empty aggregate, distribution is one
    # all-zero bucket (the left join keeps every customer)
    t = pa.concat_tables(batches) if batches else empty
    n_cust = _read(sf_dir, "customer", ["c_custkey"]).count()
    matched = int(pc.sum(t["custdist"]).as_py() or 0)
    t = pa.table({"c_count": t["c_count"].cast(pa.int64()),
                  "custdist": t["custdist"].cast(pa.int64())})
    if n_cust - matched > 0:
        t = pa.concat_tables([t, pa.table({
            "c_count": pa.array([0], pa.int64()),
            "custdist": pa.array([n_cust - matched], pa.int64())})])
    return t.take(pc.sort_indices(t, sort_keys=[
        ("custdist", "descending"), ("c_count", "descending")]))


Q13_SQL = """
WITH c_orders AS (
  SELECT c_custkey, count(o_orderkey) AS c_count
  FROM customer LEFT JOIN orders
    ON c_custkey = o_custkey AND o_orderpriority <> '1-URGENT'
  GROUP BY c_custkey)
SELECT CAST(c_count AS BIGINT) AS c_count,
       CAST(count(*) AS BIGINT) AS custdist
FROM c_orders
GROUP BY c_count
ORDER BY custdist DESC, c_count DESC
"""


# ---------------------------------------------------- TPC-H Q19 shape --

def q19_discounted_revenue(sf_dir: str):
    """TPC-H Q19 shape (disjunctive multi-branch join predicate):
    part's (brand, size) attributes broadcast ONCE as sorted arrays
    (`ray.put`); each lineitem batch evaluates the three OR branches
    as vectorized masks over the probed dimension — the fact table
    never shuffles and the result is one exact integer-cent sum."""
    import ray
    from ray.data.aggregate import Sum

    pt = pa.concat_tables(list(
        _read(sf_dir, "part", ["p_partkey", "p_brand", "p_size"])
        .iter_batches(batch_format="pyarrow")))
    order = pc.sort_indices(pt["p_partkey"])
    keys = pt["p_partkey"].take(order).to_numpy(zero_copy_only=False)
    brand = np.asarray(pt["p_brand"].take(order).to_pylist())
    size = pt["p_size"].take(order).to_numpy(zero_copy_only=False)
    dim_ref = ray.put((keys, brand, size))

    branches = (("Brand#12", 1, 15, 1.0, 11.0),
                ("Brand#23", 1, 25, 10.0, 20.0),
                ("Brand#34", 1, 35, 20.0, 30.0))

    def partial(t: pa.Table) -> pa.Table:
        half_away = pc.RoundOptions(round_mode="half_towards_infinity")
        ks, br, sz = ray.get(dim_ref)
        pk = t["l_partkey"].to_numpy(zero_copy_only=False)
        pos = np.clip(np.searchsorted(ks, pk), 0, max(len(ks) - 1, 0))
        hit = ks[pos] == pk if len(ks) else np.zeros(len(pk), dtype=bool)
        qty = t["l_quantity"].to_numpy(zero_copy_only=False)
        mask = np.zeros(len(pk), dtype=bool)
        for b, s_lo, s_hi, q_lo, q_hi in branches:
            mask |= (hit & (br[pos] == b)
                     & (sz[pos] >= s_lo) & (sz[pos] <= s_hi)
                     & (qty >= q_lo) & (qty <= q_hi))
        cents = pc.cast(pc.round(pc.multiply(pc.multiply(
            t["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), t["l_discount"])),
            pa.scalar(100.0)), options=half_away), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.table({"revenue_cents":
                         pa.array([int(cents[mask].sum())], pa.int64())})

    agg = (_read(sf_dir, "lineitem",
                 ["l_partkey", "l_quantity", "l_extendedprice",
                  "l_discount"])
           .map_batches(partial, batch_format="pyarrow",
                        zero_copy_batch=True)
           .aggregate(Sum("revenue_cents", alias_name="revenue_cents")))
    return pa.table({"revenue_cents":
                     pa.array([int(agg["revenue_cents"] or 0)],
                              pa.int64())})


Q19_SQL = """
SELECT CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 100)
                     AS BIGINT)) AS BIGINT) AS revenue_cents
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE (p_brand = 'Brand#12' AND p_size BETWEEN 1 AND 15
       AND l_quantity BETWEEN 1 AND 11)
   OR (p_brand = 'Brand#23' AND p_size BETWEEN 1 AND 25
       AND l_quantity BETWEEN 10 AND 20)
   OR (p_brand = 'Brand#34' AND p_size BETWEEN 1 AND 35
       AND l_quantity BETWEEN 20 AND 30)
"""


# ---------------------------------------------------- TPC-H Q22 shape --

def q22_sales_opportunity(sf_dir: str):
    """TPC-H Q22 shape (scalar-subquery threshold + anti join): the
    positive-balance average is carried as EXACT integers
    (sum_cents, n) and the threshold test is the cross-multiplication
    ``cents·n > sum_cents`` — no float division anywhere, so the
    boundary customers cannot flip vs the oracle; the exclusion set
    (customers with urgent orders) is a broadcast sorted distinct-key
    array, bounded by the customer count.  (Adapted: no c_phone in
    this corpus — nationkey plays the country-code role, urgent
    orders play the existing-business role.)"""
    import ray
    from ray.data.aggregate import Sum

    def cents_of(col) -> np.ndarray:
        # RoundOptions constructed inside the task fn — the pyarrow
        # options object does not pickle into Ray Data transform fns
        half_away = pc.RoundOptions(round_mode="half_towards_infinity")
        return pc.cast(pc.round(pc.multiply(col, pa.scalar(100.0)),
                                options=half_away), pa.int64()) \
            .to_numpy(zero_copy_only=False)

    def bal_partial(t: pa.Table) -> pa.Table:
        cents = cents_of(t["c_acctbal"])
        pos = cents > 0
        return pa.table({"s": pa.array([int(cents[pos].sum())], pa.int64()),
                         "n": pa.array([int(pos.sum())], pa.int64())})

    agg = (_read(sf_dir, "customer", ["c_acctbal"])
           .map_batches(bal_partial, batch_format="pyarrow",
                        zero_copy_batch=True)
           .aggregate(Sum("s", alias_name="s"), Sum("n", alias_name="n")))
    s_total, n_total = int(agg["s"] or 0), int(agg["n"] or 0)

    def u_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["o_orderpriority"], "1-URGENT"))
        return pa.table({"o_custkey": pc.unique(t["o_custkey"])})

    urgent_parts = [b["o_custkey"].to_numpy(zero_copy_only=False)
                    for b in _read(sf_dir, "orders",
                                   ["o_custkey", "o_orderpriority"])
                    .map_batches(u_partial, batch_format="pyarrow",
                                 zero_copy_batch=True)
                    .iter_batches(batch_format="pyarrow")]
    urgent = (np.unique(np.concatenate(urgent_parts)) if urgent_parts
              else np.empty(0, dtype=np.int64))
    urgent_ref = ray.put(urgent)

    def partial(t: pa.Table) -> pa.Table:
        u = ray.get(urgent_ref)
        cents = cents_of(t["c_acctbal"])
        ck = t["c_custkey"].to_numpy(zero_copy_only=False)
        if len(u):
            pos = np.clip(np.searchsorted(u, ck), 0, len(u) - 1)
            has_urgent = u[pos] == ck
        else:
            has_urgent = np.zeros(len(ck), dtype=bool)
        keep = (cents * n_total > s_total) & ~has_urgent
        t2 = pa.table({"c_nationkey": t["c_nationkey"].filter(
                           pa.array(keep)),
                       "cents": pa.array(cents[keep], pa.int64()),
                       "one": pa.array(np.ones(int(keep.sum()),
                                               dtype=np.int64))})
        g = t2.group_by("c_nationkey").aggregate(
            [("one", "sum"), ("cents", "sum")])
        return g.rename_columns(["c_nationkey", "numcust",
                                 "totacctbal_cents"])

    out = (_read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey", "c_acctbal"])
           .map_batches(partial, batch_format="pyarrow",
                        zero_copy_batch=True)
           .groupby("c_nationkey")
           .aggregate(Sum("numcust", alias_name="numcust"),
                      Sum("totacctbal_cents",
                          alias_name="totacctbal_cents")))
    t = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow")))
    t = pa.table({"c_nationkey": t["c_nationkey"].cast(pa.int64()),
                  "numcust": t["numcust"].cast(pa.int64()),
                  "totacctbal_cents":
                      t["totacctbal_cents"].cast(pa.int64())})
    return t.take(pc.sort_indices(t, sort_keys=[
        ("c_nationkey", "ascending")]))


Q22_SQL = """
WITH bal AS (
  SELECT CAST(sum(CASE WHEN cents > 0 THEN cents ELSE 0 END) AS BIGINT) AS s,
         CAST(sum(CASE WHEN cents > 0 THEN 1 ELSE 0 END) AS BIGINT) AS n
  FROM (SELECT CAST(round(c_acctbal * 100) AS BIGINT) AS cents
        FROM customer)),
eligible AS (
  SELECT c_nationkey, CAST(round(c_acctbal * 100) AS BIGINT) AS cents
  FROM customer, bal
  WHERE CAST(round(c_acctbal * 100) AS BIGINT) * bal.n > bal.s
    AND NOT EXISTS (SELECT 1 FROM orders o
                    WHERE o.o_custkey = c_custkey
                      AND o.o_orderpriority = '1-URGENT'))
SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey,
       CAST(count(*) AS BIGINT) AS numcust,
       CAST(sum(cents) AS BIGINT) AS totacctbal_cents
FROM eligible
GROUP BY c_nationkey
ORDER BY c_nationkey
"""


Q14_SQL = """
WITH c AS (
  SELECT CAST(round(l_extendedprice * (1 - l_discount) * 100) AS BIGINT)
           AS cents,
         p_type LIKE 'PROMO%' AS is_promo
  FROM lineitem JOIN part ON p_partkey = l_partkey
  WHERE l_shipdate >= TIMESTAMP '1997-09-01'
    AND l_shipdate <  TIMESTAMP '1997-10-01')
SELECT CAST(sum(CASE WHEN is_promo THEN cents ELSE 0 END) AS BIGINT)
         AS promo_cents,
       CAST(sum(cents) AS BIGINT) AS total_cents,
       CAST(round(1000000.0 * 100.0
                  * sum(CASE WHEN is_promo THEN cents ELSE 0 END)
                  / sum(cents)) AS BIGINT) AS promo_share_ppm
FROM c
"""


# ----------------------------------------------------- TPC-H Q5 shape --

def q5_local_supplier_volume(sf_dir: str):
    """TPC-H Q5 shape (fact-fact shuffle join + broadcast dimension
    closure): lineitem ⋈ orders is the only all-to-all exchange; the
    dimension chain customer→nation→region and supplier→nation rides
    along as broadcast sorted-key arrays probed per batch.  The
    'local' predicate (customer and supplier share a nation inside the
    target region) is evaluated vectorized after the join.  At scale:
    dimensions are O(nations×customers-per-nation) — customer is the
    largest and is reduced to a custkey→nationkey int map before
    broadcast."""
    import ray
    from ray.data.aggregate import Sum

    lo = pa.scalar(np.datetime64("1996-01-01", "us"))
    hi = pa.scalar(np.datetime64("1997-01-01", "us"))

    region = pa.concat_tables(list(
        _read(sf_dir, "region").iter_batches(batch_format="pyarrow")))
    asia = region.filter(pc.equal(region["r_name"], "ASIA"))
    rkey = asia["r_regionkey"][0].as_py()
    nat = pa.concat_tables(list(
        _read(sf_dir, "nation").iter_batches(batch_format="pyarrow")))
    nat_in_region = nat.filter(pc.equal(nat["n_regionkey"],
                                        pa.scalar(rkey, pa.int32())))
    nkeys = nat_in_region["n_nationkey"].to_numpy(zero_copy_only=False)
    nnames = nat_in_region["n_name"].to_pylist()
    name_of = dict(zip(nkeys.tolist(), nnames))

    def _sorted_map(ds, kcol, vcol):
        t = pa.concat_tables(list(
            ds.iter_batches(batch_format="pyarrow")))
        order = pc.sort_indices(t[kcol])
        return (t[kcol].take(order).to_numpy(zero_copy_only=False),
                t[vcol].take(order).to_numpy(zero_copy_only=False)
                .astype(np.int64))

    ck, cn = _sorted_map(_read(sf_dir, "customer",
                               ["c_custkey", "c_nationkey"]),
                         "c_custkey", "c_nationkey")
    sk, sn = _sorted_map(_read(sf_dir, "supplier",
                               ["s_suppkey", "s_nationkey"]),
                         "s_suppkey", "s_nationkey")
    dim_ref = ray.put((ck, cn, sk, sn, np.sort(nkeys).astype(np.int64)))

    def filter_orders(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.greater_equal(t["o_orderdate"], lo),
                       pc.less(t["o_orderdate"], hi))
        return t.filter(keep).select(["o_orderkey", "o_custkey"])

    orders = (_read(sf_dir, "orders",
                    ["o_orderkey", "o_custkey", "o_orderdate"])
              .map_batches(filter_orders, batch_format="pyarrow",
                           zero_copy_batch=True))

    def li_project(t: pa.Table) -> pa.Table:
        half_away = pc.RoundOptions(round_mode="half_towards_infinity")
        cents = pc.cast(pc.round(pc.multiply(
            pc.multiply(t["l_extendedprice"],
                        pc.subtract(pa.scalar(1.0), t["l_discount"])),
            pa.scalar(100.0)), options=half_away), pa.int64())
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "l_suppkey": t["l_suppkey"],
                         "cents": cents})

    li = (_read(sf_dir, "lineitem",
                ["l_orderkey", "l_suppkey", "l_extendedprice",
                 "l_discount"])
          .map_batches(li_project, batch_format="pyarrow",
                       zero_copy_batch=True))

    cpus = int(ray.cluster_resources().get("CPU", 8))
    j = li.join(orders, join_type="inner",
                num_partitions=max(2, cpus // 2),
                on=("l_orderkey",), right_on=("o_orderkey",),
                aggregator_ray_remote_args={"num_cpus": 0.5})

    def local_partial(t: pa.Table) -> pa.Table:
        from mee_ray.ids import positions_in_sorted
        ck_, cn_, sk_, sn_, nk_ = ray.get(dim_ref)
        if ck_.size == 0 or sk_.size == 0:
            return pa.table({"nationkey": pa.array([], pa.int64()),
                             "cents": pa.array([], pa.int64())})
        cust = t["o_custkey"].to_numpy(zero_copy_only=False)
        supp = t["l_suppkey"].to_numpy(zero_copy_only=False)
        # checked probes (inner-join semantics): a dangling key drops
        # the row, never credits the lexically nearest customer /
        # supplier's nation (and an out-of-range key cannot IndexError)
        cpos, chit = positions_in_sorted(cust, ck_)
        spos, shit = positions_in_sorted(supp, sk_)
        cnat = cn_[cpos]
        snat = sn_[spos]
        keep = chit & shit & (cnat == snat) & np.isin(cnat, nk_)
        if not keep.any():
            return pa.table({"nationkey": pa.array([], pa.int64()),
                             "cents": pa.array([], pa.int64())})
        part = pa.table({
            "nationkey": pa.array(cnat[keep], pa.int64()),
            "cents": t["cents"].filter(pa.array(keep))})
        g = part.group_by("nationkey").aggregate([("cents", "sum")])
        return g.rename_columns(["nationkey", "cents"])

    agg = (j.map_batches(local_partial, batch_format="pyarrow")
           .groupby("nationkey")
           .aggregate(Sum("cents", alias_name="revenue_cents")))
    t = pa.concat_tables(list(
        agg.iter_batches(batch_format="pyarrow")))
    names = pa.array([name_of[k] for k in
                      t["nationkey"].to_pylist()], pa.string())
    out = pa.table({"n_name": names,
                    "revenue_cents": t["revenue_cents"].cast(pa.int64())})
    return out.take(pc.sort_indices(out, sort_keys=[
        ("revenue_cents", "descending"), ("n_name", "ascending")]))


Q5_SQL = """
SELECT n_name,
       CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 100)
                     AS BIGINT)) AS BIGINT) AS revenue_cents
FROM customer
JOIN orders   ON c_custkey  = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
JOIN supplier ON l_suppkey  = s_suppkey AND c_nationkey = s_nationkey
JOIN nation   ON s_nationkey = n_nationkey
JOIN region   ON n_regionkey = r_regionkey
WHERE r_name = 'ASIA'
  AND o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate <  TIMESTAMP '1997-01-01'
GROUP BY n_name
ORDER BY revenue_cents DESC, n_name
"""


# ----------------------------------------------------- TPC-H Q4 shape --

def q4_order_priority(sf_dir: str):
    """TPC-H Q4 shape (large×large EXISTS semi-join): the existential
    lineitem predicate is first REDUCED per order inside map_batches
    (max shipdate per orderkey — an exists-witness aggregate), so the
    semi-join shuffles one row per order instead of one per lineitem;
    the reduced witness table then hash-joins the quarter's orders and
    the priority histogram is a tiny groupby.  (Adapted predicate:
    this corpus has no commit/receipt dates — 'a lineitem shipped
    after the order date' plays the late-lineitem role.)"""
    import ray
    from ray.data.aggregate import Max, Sum

    lo = pa.scalar(np.datetime64("1996-07-01", "us"))
    hi = pa.scalar(np.datetime64("1996-10-01", "us"))

    def li_partial(t: pa.Table) -> pa.Table:
        g = (t.select(["l_orderkey", "l_shipdate"])
             .group_by("l_orderkey")
             .aggregate([("l_shipdate", "max")]))
        return g.rename_columns(["l_orderkey", "max_ship"])

    witness = (_read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
               .map_batches(li_partial, batch_format="pyarrow",
                            zero_copy_batch=True)
               .groupby("l_orderkey")
               .aggregate(Max("max_ship", alias_name="max_ship")))

    def filter_orders(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.greater_equal(t["o_orderdate"], lo),
                       pc.less(t["o_orderdate"], hi))
        return t.filter(keep).select(
            ["o_orderkey", "o_orderdate", "o_orderpriority"])

    orders = (_read(sf_dir, "orders",
                    ["o_orderkey", "o_orderdate", "o_orderpriority"])
              .map_batches(filter_orders, batch_format="pyarrow",
                           zero_copy_batch=True))

    cpus = int(ray.cluster_resources().get("CPU", 8))
    j = orders.join(witness, join_type="inner",
                    num_partitions=max(2, cpus // 2),
                    on=("o_orderkey",), right_on=("l_orderkey",),
                    aggregator_ray_remote_args={"num_cpus": 0.5})

    def count_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["max_ship"], t["o_orderdate"]))
        g = (t.select(["o_orderpriority"])
             .group_by("o_orderpriority")
             .aggregate([("o_orderpriority", "count")]))
        return g.rename_columns(["o_orderpriority", "n"])

    agg = (j.map_batches(count_partial, batch_format="pyarrow")
           .groupby("o_orderpriority")
           .aggregate(Sum("n", alias_name="order_count")))
    t = pa.concat_tables(list(
        agg.iter_batches(batch_format="pyarrow")))
    t = pa.table({"o_orderpriority": t["o_orderpriority"],
                  "order_count": t["order_count"].cast(pa.int64())})
    return t.take(pc.sort_indices(t, sort_keys=[
        ("o_orderpriority", "ascending")]))


Q4_SQL = """
SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS order_count
FROM orders
WHERE o_orderdate >= TIMESTAMP '1996-07-01'
  AND o_orderdate <  TIMESTAMP '1996-10-01'
  AND EXISTS (SELECT 1 FROM lineitem
              WHERE l_orderkey = o_orderkey
                AND l_shipdate > o_orderdate)
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""


# ---------------------------------------------------- TPC-H Q10 shape --

def q10_returned_items(sf_dir: str):
    """TPC-H Q10 shape (returned-item revenue, top-20 customers):
    lineitem is filtered to returnflag='R' and pre-aggregated per
    order BEFORE the fact-fact shuffle join with the quarter's orders;
    the per-customer rollup is a second small groupby, and only the
    ≤20 survivors touch the (broadcastable) customer/nation dimension
    names."""
    import ray
    from ray.data.aggregate import Sum

    lo = pa.scalar(np.datetime64("1996-01-01", "us"))
    hi = pa.scalar(np.datetime64("1996-04-01", "us"))

    def li_partial(t: pa.Table) -> pa.Table:
        half_away = pc.RoundOptions(round_mode="half_towards_infinity")
        t = t.filter(pc.equal(t["l_returnflag"], "R"))
        cents = pc.cast(pc.round(pc.multiply(
            pc.multiply(t["l_extendedprice"],
                        pc.subtract(pa.scalar(1.0), t["l_discount"])),
            pa.scalar(100.0)), options=half_away), pa.int64())
        part = pa.table({"l_orderkey": t["l_orderkey"], "cents": cents})
        g = part.group_by("l_orderkey").aggregate([("cents", "sum")])
        return g.rename_columns(["l_orderkey", "cents"])

    li = (_read(sf_dir, "lineitem",
                ["l_orderkey", "l_returnflag", "l_extendedprice",
                 "l_discount"])
          .map_batches(li_partial, batch_format="pyarrow",
                       zero_copy_batch=True))

    def filter_orders(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.greater_equal(t["o_orderdate"], lo),
                       pc.less(t["o_orderdate"], hi))
        return t.filter(keep).select(["o_orderkey", "o_custkey"])

    orders = (_read(sf_dir, "orders",
                    ["o_orderkey", "o_custkey", "o_orderdate"])
              .map_batches(filter_orders, batch_format="pyarrow",
                           zero_copy_batch=True))

    cpus = int(ray.cluster_resources().get("CPU", 8))
    j = li.join(orders, join_type="inner",
                num_partitions=max(2, cpus // 2),
                on=("l_orderkey",), right_on=("o_orderkey",),
                aggregator_ray_remote_args={"num_cpus": 0.5})

    per_cust = (j.groupby("o_custkey")
                .aggregate(Sum("cents", alias_name="revenue_cents")))

    def topk_part(t: pa.Table) -> pa.Table:
        idx = pc.sort_indices(t, sort_keys=[
            ("revenue_cents", "descending"),
            ("o_custkey", "ascending")])[:20]
        return t.take(idx).select(["o_custkey", "revenue_cents"])

    parts = per_cust.map_batches(topk_part, batch_format="pyarrow")
    merged = pa.concat_tables(list(
        parts.iter_batches(batch_format="pyarrow")))
    idx = pc.sort_indices(merged, sort_keys=[
        ("revenue_cents", "descending"), ("o_custkey", "ascending")])[:20]
    top = merged.take(idx)

    cust = pa.concat_tables(list(
        _read(sf_dir, "customer",
              ["c_custkey", "c_name", "c_nationkey"])
        .iter_batches(batch_format="pyarrow")))
    nat = pa.concat_tables(list(
        _read(sf_dir, "nation", ["n_nationkey", "n_name"])
        .iter_batches(batch_format="pyarrow")))
    cmap = {k: (nm, nk) for k, nm, nk in zip(
        cust["c_custkey"].to_pylist(), cust["c_name"].to_pylist(),
        cust["c_nationkey"].to_pylist())}
    nmap = dict(zip(nat["n_nationkey"].to_pylist(),
                    nat["n_name"].to_pylist()))
    cks = top["o_custkey"].to_pylist()
    return pa.table({
        "c_custkey": pa.array(cks, pa.int64()),
        "c_name": pa.array([cmap[k][0] for k in cks], pa.string()),
        "n_name": pa.array([nmap[cmap[k][1]] for k in cks], pa.string()),
        "revenue_cents": top["revenue_cents"].cast(pa.int64())})


Q10_SQL = """
SELECT c_custkey, c_name, n_name,
       CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 100)
                     AS BIGINT)) AS BIGINT) AS revenue_cents
FROM customer
JOIN orders   ON c_custkey  = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
JOIN nation   ON c_nationkey = n_nationkey
WHERE o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate <  TIMESTAMP '1996-04-01'
  AND l_returnflag = 'R'
GROUP BY c_custkey, c_name, n_name
ORDER BY revenue_cents DESC, c_custkey
LIMIT 20
"""


def matrix_stats_lineitem(sf_dir: str):
    """matrix_stats aggregation (the ES matrix_stats analog): per
    l_returnflag, the covariance and Pearson correlation between
    quantity and price cents, from EXACT integer moment sums —
    per-batch partial sums of (x, y, x², y², xy) fold through one tiny
    groupby, and the float statistics are computed ONCE from the exact
    integers with the same expression tree the oracle states (n·sxy −
    sx·sy over the sqrt products), so values match bit-for-bit.  At
    sums beyond int64 (≳10^18 — petabyte-scale cent squares) the fold
    would switch to a two-limb accumulator; DuckDB's HUGEINT already
    covers the oracle side."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        half_away = pc.RoundOptions(round_mode="half_towards_infinity")
        x = pc.cast(pc.round(t["l_quantity"]), pa.int64())
        y = pc.cast(pc.round(pc.multiply(
            t["l_extendedprice"], pa.scalar(100.0)),
            options=half_away), pa.int64())
        t2 = pa.table({
            "l_returnflag": t["l_returnflag"],
            "n": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            "sx": x, "sy": y,
            "sxx": pc.multiply(x, x),
            "syy": pc.multiply(y, y),
            "sxy": pc.multiply(x, y)})
        g = t2.group_by("l_returnflag").aggregate(
            [("n", "sum"), ("sx", "sum"), ("sy", "sum"),
             ("sxx", "sum"), ("syy", "sum"), ("sxy", "sum")])
        return g.rename_columns(["l_returnflag", "n", "sx", "sy",
                                 "sxx", "syy", "sxy"])

    agg = (_read(sf_dir, "lineitem",
                 ["l_returnflag", "l_quantity", "l_extendedprice"])
           .map_batches(partial, batch_format="pyarrow",
                        zero_copy_batch=True)
           .groupby("l_returnflag")
           .aggregate(Sum("n", alias_name="n"),
                      Sum("sx", alias_name="sx"),
                      Sum("sy", alias_name="sy"),
                      Sum("sxx", alias_name="sxx"),
                      Sum("syy", alias_name="syy"),
                      Sum("sxy", alias_name="sxy")))
    batches = list(agg.iter_batches(batch_format="pyarrow"))
    EMPTY = pa.table({"l_returnflag": pa.array([], pa.string()),
                      "n": pa.array([], pa.int64()),
                      "mean_qty": pa.array([], pa.float64()),
                      "mean_cents": pa.array([], pa.float64()),
                      "covariance": pa.array([], pa.float64()),
                      "correlation": pa.array([], pa.float64())})
    if not batches:
        return EMPTY
    t = pa.concat_tables(batches)
    import math
    rows = []
    for r in t.to_pylist():
        n = float(r["n"])
        sx, sy = float(r["sx"]), float(r["sy"])
        sxx, syy, sxy = (float(r["sxx"]), float(r["syy"]),
                         float(r["sxy"]))
        cov = (n * sxy - sx * sy) / (n * n)
        den = math.sqrt(n * sxx - sx * sx) * math.sqrt(n * syy - sy * sy)
        corr = (n * sxy - sx * sy) / den if den > 0 else 0.0
        rows.append((r["l_returnflag"], int(r["n"]), sx / n, sy / n,
                     cov, corr))
    rows.sort()
    return pa.table({
        "l_returnflag": pa.array([x[0] for x in rows], pa.string()),
        "n": pa.array([x[1] for x in rows], pa.int64()),
        "mean_qty": pa.array([x[2] for x in rows], pa.float64()),
        "mean_cents": pa.array([x[3] for x in rows], pa.float64()),
        "covariance": pa.array([x[4] for x in rows], pa.float64()),
        "correlation": pa.array([x[5] for x in rows], pa.float64())})


MATRIX_STATS_SQL = """
WITH m AS (
  SELECT l_returnflag,
         CAST(count(*) AS DOUBLE) AS n,
         CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS DOUBLE) AS sx,
         CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT))
              AS DOUBLE) AS sy,
         CAST(sum(CAST(round(l_quantity) AS BIGINT)
                  * CAST(round(l_quantity) AS BIGINT)) AS DOUBLE) AS sxx,
         CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                  * CAST(round(l_extendedprice * 100) AS BIGINT))
              AS DOUBLE) AS syy,
         CAST(sum(CAST(round(l_quantity) AS BIGINT)
                  * CAST(round(l_extendedprice * 100) AS BIGINT))
              AS DOUBLE) AS sxy
  FROM lineitem GROUP BY l_returnflag)
SELECT l_returnflag, CAST(n AS BIGINT) AS n,
       sx / n AS mean_qty,
       sy / n AS mean_cents,
       (n * sxy - sx * sy) / (n * n) AS covariance,
       CASE WHEN sqrt(n * sxx - sx * sx) * sqrt(n * syy - sy * sy) > 0
            THEN (n * sxy - sx * sy)
                 / (sqrt(n * sxx - sx * sx) * sqrt(n * syy - sy * sy))
            ELSE 0.0 END AS correlation
FROM m ORDER BY l_returnflag
"""


def weighted_avg_lineitem(sf_dir: str):
    """weighted_avg aggregation (the ES ``weighted_avg``): per
    l_returnflag, the quantity-weighted average price —
    Σ(cents·qty)/Σ(qty) from exact integer partial sums folded through
    one tiny groupby, the float division applied ONCE to the exact
    integers with the oracle's identical tree (bit-exact values, no
    rounding)."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        half_away = pc.RoundOptions(round_mode="half_towards_infinity")
        q = pc.cast(pc.round(t["l_quantity"]), pa.int64())
        cents = pc.cast(pc.round(pc.multiply(
            t["l_extendedprice"], pa.scalar(100.0)),
            options=half_away), pa.int64())
        t2 = pa.table({"l_returnflag": t["l_returnflag"],
                       "wsum": pc.multiply(cents, q), "w": q})
        g = t2.group_by("l_returnflag").aggregate(
            [("wsum", "sum"), ("w", "sum")])
        return g.rename_columns(["l_returnflag", "wsum_p", "w_p"])

    agg = (_read(sf_dir, "lineitem",
                 ["l_returnflag", "l_quantity", "l_extendedprice"])
           .map_batches(partial, batch_format="pyarrow",
                        zero_copy_batch=True)
           .groupby("l_returnflag")
           .aggregate(Sum("wsum_p", alias_name="wsum"),
                      Sum("w_p", alias_name="w")))
    batches = list(agg.iter_batches(batch_format="pyarrow"))
    if not batches:
        return pa.table({"l_returnflag": pa.array([], pa.string()),
                         "total_weight": pa.array([], pa.int64()),
                         "weighted_avg_cents": pa.array([], pa.float64())})
    t = pa.concat_tables(batches)
    rows = sorted((r["l_returnflag"], int(r["w"]),
                   float(r["wsum"]) / float(r["w"]))
                  for r in t.to_pylist())
    return pa.table({
        "l_returnflag": pa.array([x[0] for x in rows], pa.string()),
        "total_weight": pa.array([x[1] for x in rows], pa.int64()),
        "weighted_avg_cents": pa.array([x[2] for x in rows],
                                       pa.float64())})


WEIGHTED_AVG_SQL = """
SELECT l_returnflag,
       CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT)
         AS total_weight,
       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                * CAST(round(l_quantity) AS BIGINT)) AS DOUBLE)
       / CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS DOUBLE)
         AS weighted_avg_cents
FROM lineitem
GROUP BY l_returnflag
ORDER BY l_returnflag
"""


# ---------------------------------------------- TPC-H Q12 shape --
# (the testdata lineitem has no l_shipmode/l_commitdate/l_receiptdate,
# so the Q12 class columns are adapted: group = l_linestatus, window =
# l_shipdate year — the SHAPE is intact: large×large join + grouped
# conditional two-way counts)


def q12_priority_classes(sf_dir: str):
    """TPC-H Q12 shape: lineitem ⋈ orders (co-partitioned hash
    shuffle, the only wide step), then per-group conditional counts —
    how many lines of each status belong to high-priority orders
    (1-URGENT / 2-HIGH) vs the rest, for one ship year.  Partial
    counts fold inside map_batches; the final groupby moves ≤
    #statuses × #partitions tiny rows."""
    import ray
    from ray.data.aggregate import Sum

    lo = pa.scalar(np.datetime64("1997-01-01", "us"))
    hi = pa.scalar(np.datetime64("1998-01-01", "us"))

    def li_filter(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.greater_equal(t["l_shipdate"], lo),
                       pc.less(t["l_shipdate"], hi))
        t = t.filter(keep)
        return t.select(["l_orderkey", "l_linestatus"])

    li = (_read(sf_dir, "lineitem", ["l_orderkey", "l_linestatus",
                                     "l_shipdate"])
          .map_batches(li_filter, batch_format="pyarrow",
                       zero_copy_batch=True))
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    cpus = int(ray.cluster_resources().get("CPU", 8))
    j = li.join(orders, join_type="inner",
                num_partitions=max(2, cpus // 2),
                on=("l_orderkey",), right_on=("o_orderkey",),
                aggregator_ray_remote_args={"num_cpus": 0.5})

    def partial(t: pa.Table) -> pa.Table:
        hi_m = pc.is_in(t["o_orderpriority"],
                        value_set=pa.array(["1-URGENT", "2-HIGH"]))
        hi_i = pc.cast(hi_m, pa.int64())
        lo_i = pc.subtract(pa.scalar(1, pa.int64()), hi_i)
        t2 = pa.table({"l_linestatus": t["l_linestatus"],
                       "hi": hi_i, "lo": lo_i})
        g = t2.group_by("l_linestatus").aggregate(
            [("hi", "sum"), ("lo", "sum")])
        return g.rename_columns(["l_linestatus", "hi_part", "lo_part"])

    agg = (j.map_batches(partial, batch_format="pyarrow")
           .groupby("l_linestatus")
           .aggregate(Sum("hi_part", alias_name="high_line_count"),
                      Sum("lo_part", alias_name="low_line_count")))

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_linestatus": t["l_linestatus"],
            "high_line_count": pc.cast(t["high_line_count"], pa.int64()),
            "low_line_count": pc.cast(t["low_line_count"], pa.int64())})

    batches = list(agg.map_batches(finish, batch_format="pyarrow")
                   .iter_batches(batch_format="pyarrow"))
    if not batches:
        return pa.table({"l_linestatus": pa.array([], pa.string()),
                         "high_line_count": pa.array([], pa.int64()),
                         "low_line_count": pa.array([], pa.int64())})
    return pa.concat_tables(batches).sort_by("l_linestatus")


Q12_SQL = """
SELECT l_linestatus,
       CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                     THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count,
       CAST(sum(CASE WHEN o_orderpriority NOT IN ('1-URGENT', '2-HIGH')
                     THEN 1 ELSE 0 END) AS BIGINT) AS low_line_count
FROM lineitem JOIN orders ON o_orderkey = l_orderkey
WHERE l_shipdate >= TIMESTAMP '1997-01-01'
  AND l_shipdate <  TIMESTAMP '1998-01-01'
GROUP BY l_linestatus
ORDER BY l_linestatus
"""


# ----------------------------------------------- TPC-H Q9 shape --
# (no partsupp/ps_supplycost in the testdata, so profit = revenue —
# the SHAPE is intact: LIKE-filtered part class, lineitem ⋈ orders
# large×large, supplier→nation chain, group by (nation, year))


def q9_product_profit(sf_dir: str):
    """TPC-H Q9 shape (product-class profit by nation and year): parts
    whose name contains 'widget' (broadcast key set), revenue cents per
    (supplier nation, order year).  lineitem ⋈ orders is the one
    shuffle (o_orderdate must ride the join); part and supplier→nation
    collapse to broadcast probe maps like Q5/Q7."""
    import pyarrow.parquet as _pq
    import ray
    from ray.data.aggregate import Sum

    part = _pq.read_table(f"{sf_dir}/part.parquet",
                          columns=["p_partkey", "p_name"])
    pk = part.filter(pc.match_substring(part["p_name"], "widget"))[
        "p_partkey"].to_numpy(zero_copy_only=False)
    pk = np.sort(pk)
    nat = _pq.read_table(f"{sf_dir}/nation.parquet",
                         columns=["n_nationkey", "n_name"])
    nmap = dict(zip(nat["n_nationkey"].to_pylist(),
                    nat["n_name"].to_pylist()))
    sup = _pq.read_table(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_nationkey"])
    sk = sup["s_suppkey"].to_numpy(zero_copy_only=False)
    order = np.argsort(sk)
    s_keys = sk[order]
    s_nk = sup["s_nationkey"].to_numpy(zero_copy_only=False) \
        .astype(np.int64)[order]
    dim_ref = ray.put((pk, s_keys, s_nk))

    def li_partial(t: pa.Table) -> pa.Table:
        from mee_ray.ids import positions_in_sorted
        keys, skeys, snk = ray.get(dim_ref)
        if skeys.size == 0:
            keys = keys[:0]      # no suppliers ⇒ no joinable rows
        lp = t["l_partkey"].to_numpy(zero_copy_only=False)
        _, ok = positions_in_sorted(lp, keys)
        t = t.filter(pa.array(ok))
        half_away = pc.RoundOptions(round_mode="half_towards_infinity")
        cents = pc.cast(pc.round(pc.multiply(pc.multiply(
            t["l_extendedprice"],
            pc.subtract(pa.scalar(1.0), t["l_discount"])),
            pa.scalar(100.0)), options=half_away), pa.int64())
        sup_k = t["l_suppkey"].to_numpy(zero_copy_only=False)
        # checked probe: a dangling l_suppkey drops (inner join), it
        # must not inherit the nearest supplier's nation
        spos, sok = positions_in_sorted(sup_k, skeys)
        out = pa.table({"l_orderkey": t["l_orderkey"],
                        "nat_k": pa.array(snk[spos], pa.int64()),
                        "cents": cents})
        if not sok.all():
            out = out.filter(pa.array(sok))
        return out

    li = (_read(sf_dir, "lineitem",
                ["l_orderkey", "l_partkey", "l_suppkey",
                 "l_extendedprice", "l_discount"])
          .map_batches(li_partial, batch_format="pyarrow",
                       zero_copy_batch=True))
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])
    cpus = int(ray.cluster_resources().get("CPU", 8))
    j = li.join(orders, join_type="inner",
                num_partitions=max(2, cpus // 2),
                on=("l_orderkey",), right_on=("o_orderkey",),
                aggregator_ray_remote_args={"num_cpus": 0.5})

    def rev_partial(t: pa.Table) -> pa.Table:
        year = pc.year(t["o_orderdate"]).cast(pa.int64())
        t2 = pa.table({"nat_k": t["nat_k"], "o_year": year,
                       "cents": t["cents"]})
        g = t2.group_by(["nat_k", "o_year"]).aggregate([("cents", "sum")])
        return g.rename_columns(["nat_k", "o_year", "cents_part"])

    agg = (j.map_batches(rev_partial, batch_format="pyarrow")
           .groupby(["nat_k", "o_year"])
           .aggregate(Sum("cents_part", alias_name="profit_cents")))
    batches = list(agg.iter_batches(batch_format="pyarrow"))
    if not batches:
        return pa.table({"nation": pa.array([], pa.string()),
                         "o_year": pa.array([], pa.int64()),
                         "profit_cents": pa.array([], pa.int64())})
    t = pa.concat_tables(batches)
    t = pa.table({"nation": pa.array(
                      [nmap[x] for x in t["nat_k"].to_pylist()],
                      pa.string()),
                  "o_year": t["o_year"].cast(pa.int64()),
                  "profit_cents": t["profit_cents"].cast(pa.int64())})
    return t.take(pc.sort_indices(t, sort_keys=[
        ("nation", "ascending"), ("o_year", "descending")]))


Q9_SQL = """
SELECT n_name AS nation,
       CAST(year(o_orderdate) AS BIGINT) AS o_year,
       CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 100)
                     AS BIGINT)) AS BIGINT) AS profit_cents
FROM lineitem
JOIN orders   ON o_orderkey = l_orderkey
JOIN part     ON p_partkey  = l_partkey
JOIN supplier ON s_suppkey  = l_suppkey
JOIN nation   ON n_nationkey = s_nationkey
WHERE p_name LIKE '%widget%'
GROUP BY n_name, o_year
ORDER BY n_name, o_year DESC
"""


# ---------------------------------------------- TPC-H Q16 shape --
# (lineitem stands in for partsupp as the part↔supplier relation)


def q16_supplier_part_cnt(sf_dir: str):
    """TPC-H Q16 shape: COUNT(DISTINCT supplier) per part class
    (brand, type, size), over a negated part filter, excluding a
    NOT-IN supplier set (name-pattern analog of the 'complaints'
    subquery).  Plan: broadcast qualifying-part map + excluded-key
    set; per-batch (class, suppkey) dedup shrinks the exchange; one
    groupby finishes the global dedup and a second tiny groupby
    counts — the canonical two-shuffle exact-distinct plan
    (distinct_users_per_event_type precedent)."""
    import pyarrow.parquet as _pq
    import ray
    from ray.data.aggregate import Count, Sum

    part = _pq.read_table(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_brand", "p_type", "p_size"])
    keep = pc.and_(pc.and_(
        pc.not_equal(part["p_brand"], "Brand#13"),
        pc.not_equal(part["p_type"], "PROMO")),
        pc.is_in(part["p_size"],
                 value_set=pa.array([1, 14, 23, 45],
                                    part["p_size"].type)))
    part = part.filter(keep)
    pk = part["p_partkey"].to_numpy(zero_copy_only=False)
    order = np.argsort(pk)
    p_keys = pk[order]
    p_attrs = part.take(pa.array(order))
    sup = _pq.read_table(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_name"])
    bad = np.sort(sup.filter(pc.match_like(sup["s_name"], "%7"))[
        "s_suppkey"].to_numpy(zero_copy_only=False))
    dim_ref = ray.put((p_keys,
                       p_attrs["p_brand"].to_numpy(zero_copy_only=False),
                       p_attrs["p_type"].to_numpy(zero_copy_only=False),
                       p_attrs["p_size"].to_numpy(zero_copy_only=False),
                       bad))

    def class_pairs(t: pa.Table) -> pa.Table:
        keys, brand, ptype, size, badk = ray.get(dim_ref)
        lp = t["l_partkey"].to_numpy(zero_copy_only=False)
        ls = t["l_suppkey"].to_numpy(zero_copy_only=False)
        if len(keys) == 0:
            ok = np.zeros(len(lp), dtype=bool)
            pos = np.zeros(len(lp), dtype=np.int64)
        else:
            pos = np.clip(np.searchsorted(keys, lp), 0, len(keys) - 1)
            ok = keys[pos] == lp
        if len(badk):
            bpos = np.clip(np.searchsorted(badk, ls), 0, len(badk) - 1)
            ok &= badk[bpos] != ls
        pos, ls = pos[ok], ls[ok]
        t2 = pa.table({"p_brand": pa.array(brand[pos]),
                       "p_type": pa.array(ptype[pos]),
                       "p_size": pa.array(size[pos]),
                       "l_suppkey": pa.array(ls)})
        return t2.group_by(
            ["p_brand", "p_type", "p_size", "l_suppkey"]).aggregate([])

    pairs = (_read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])
             .map_batches(class_pairs, batch_format="pyarrow",
                          zero_copy_batch=True)
             .groupby(["p_brand", "p_type", "p_size", "l_suppkey"])
             .aggregate(Count(alias_name="_n")))

    def per_class_partial(t: pa.Table) -> pa.Table:
        g = (t.select(["p_brand", "p_type", "p_size"])
             .group_by(["p_brand", "p_type", "p_size"])
             .aggregate([("p_brand", "count")]))
        return g.rename_columns(["p_brand", "p_type", "p_size", "n_part"])

    agg = (pairs.map_batches(per_class_partial, batch_format="pyarrow")
           .groupby(["p_brand", "p_type", "p_size"])
           .aggregate(Sum("n_part", alias_name="supplier_cnt")))
    batches = list(agg.iter_batches(batch_format="pyarrow"))
    if not batches:
        return pa.table({"p_brand": pa.array([], pa.string()),
                         "p_type": pa.array([], pa.string()),
                         "p_size": pa.array([], pa.int64()),
                         "supplier_cnt": pa.array([], pa.int64())})
    t = pa.concat_tables(batches)
    t = pa.table({"p_brand": t["p_brand"],
                  "p_type": t["p_type"],
                  "p_size": t["p_size"].cast(pa.int64()),
                  "supplier_cnt": t["supplier_cnt"].cast(pa.int64())})
    return t.take(pc.sort_indices(t, sort_keys=[
        ("supplier_cnt", "descending"), ("p_brand", "ascending"),
        ("p_type", "ascending"), ("p_size", "ascending")]))


Q16_SQL = """
SELECT p_brand, p_type, CAST(p_size AS BIGINT) AS p_size,
       CAST(count(DISTINCT l_suppkey) AS BIGINT) AS supplier_cnt
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE p_brand <> 'Brand#13' AND p_type <> 'PROMO'
  AND p_size IN (1, 14, 23, 45)
  AND l_suppkey NOT IN (SELECT s_suppkey FROM supplier
                        WHERE s_name LIKE '%7')
GROUP BY p_brand, p_type, p_size
ORDER BY supplier_cnt DESC, p_brand, p_type, p_size
"""


# ---------------------------------------------- TPC-H Q11 shape --
# (value of a part = its lineitem revenue; partsupp stands replaced)


def q11_important_parts(sf_dir: str, ppm: int = 600):
    """TPC-H Q11 shape (important stock): per-part total value with a
    HAVING threshold against a GLOBAL scalar aggregate — keep parts
    whose value exceeds ``ppm``/1e6 of the total.  Per-batch partial
    sums → one groupby; the global total is the sum of the (|part|-
    sized, tiny) aggregate itself; threshold compares integers exactly
    (value_cents × 1e6 > total_cents × ppm), no float epsilon."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        half_away = pc.RoundOptions(round_mode="half_towards_infinity")
        cents = pc.cast(pc.round(pc.multiply(
            t["l_extendedprice"], pa.scalar(100.0)),
            options=half_away), pa.int64())
        t2 = pa.table({"l_partkey": t["l_partkey"], "cents": cents})
        g = t2.group_by("l_partkey").aggregate([("cents", "sum")])
        return g.rename_columns(["l_partkey", "cents_part"])

    agg = (_read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice"])
           .map_batches(partial, batch_format="pyarrow",
                        zero_copy_batch=True)
           .groupby("l_partkey")
           .aggregate(Sum("cents_part", alias_name="value_cents")))
    batches = list(agg.iter_batches(batch_format="pyarrow"))
    if not batches:
        return pa.table({"l_partkey": pa.array([], pa.int64()),
                         "value_cents": pa.array([], pa.int64())})
    t = pa.concat_tables(batches)
    vals = t["value_cents"].to_numpy(zero_copy_only=False).astype(np.int64)
    total = int(vals.sum())
    keep = vals.astype(object) * 1_000_000 > total * ppm
    t = pa.table({"l_partkey": t["l_partkey"].cast(pa.int64()),
                  "value_cents": t["value_cents"].cast(pa.int64())}
                 ).filter(pa.array(keep.astype(bool)))
    return t.take(pc.sort_indices(t, sort_keys=[
        ("value_cents", "descending"), ("l_partkey", "ascending")]))


Q11_SQL = """
SELECT l_partkey,
       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT))
            AS BIGINT) AS value_cents
FROM lineitem
GROUP BY l_partkey
HAVING sum(CAST(round(l_extendedprice * 100) AS BIGINT)) * 1000000
       > (SELECT sum(CAST(round(l_extendedprice * 100) AS BIGINT))
          FROM lineitem) * 600
ORDER BY value_cents DESC, l_partkey
"""


# ---------------------------------------------- TPC-H Q20 shape --


def q20_excess_suppliers(sf_dir: str):
    """TPC-H Q20 shape (suppliers holding excess stock): suppliers
    whose shipped quantity of 'red %' parts in 1997 exceeds half the
    per-supplier average of that quantity.  Broadcast red-part key
    set; per-batch partial quantity sums → one small groupby
    (≤ |supplier| rows); the global average is computed on that tiny
    aggregate and the comparison is integer-exact
    (2 × qty × n_suppliers > total)."""
    import pyarrow.parquet as _pq
    import ray
    from ray.data.aggregate import Sum

    part = _pq.read_table(f"{sf_dir}/part.parquet",
                          columns=["p_partkey", "p_name"])
    pk = np.sort(part.filter(pc.match_like(part["p_name"], "red %"))[
        "p_partkey"].to_numpy(zero_copy_only=False))
    pk_ref = ray.put(pk)
    lo = pa.scalar(np.datetime64("1997-01-01", "us"))
    hi = pa.scalar(np.datetime64("1998-01-01", "us"))

    def partial(t: pa.Table) -> pa.Table:
        keys = ray.get(pk_ref)
        keep = pc.and_(pc.greater_equal(t["l_shipdate"], lo),
                       pc.less(t["l_shipdate"], hi))
        t = t.filter(keep)
        lp = t["l_partkey"].to_numpy(zero_copy_only=False)
        if len(keys) == 0:
            ok = np.zeros(len(lp), dtype=bool)
        else:
            pos = np.clip(np.searchsorted(keys, lp), 0, len(keys) - 1)
            ok = keys[pos] == lp
        t = t.filter(pa.array(ok))
        # l_quantity values are integral doubles — the sum is exact in
        # any order, so int64 quantities survive the shuffle losslessly
        q = pc.cast(pc.round(t["l_quantity"]), pa.int64())
        t2 = pa.table({"l_suppkey": t["l_suppkey"], "q": q})
        g = t2.group_by("l_suppkey").aggregate([("q", "sum")])
        return g.rename_columns(["l_suppkey", "q_part"])

    agg = (_read(sf_dir, "lineitem",
                 ["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"])
           .map_batches(partial, batch_format="pyarrow",
                        zero_copy_batch=True)
           .groupby("l_suppkey")
           .aggregate(Sum("q_part", alias_name="qty")))
    batches = list(agg.iter_batches(batch_format="pyarrow"))
    EMPTY = pa.table({"s_name": pa.array([], pa.string()),
                      "n_name": pa.array([], pa.string())})
    if not batches:
        return EMPTY
    t = pa.concat_tables(batches)
    qty = t["qty"].to_numpy(zero_copy_only=False).astype(np.int64)
    n = len(qty)
    total = int(qty.sum())
    keep = 2 * qty.astype(object) * n > total
    winners = t.filter(pa.array(keep.astype(bool)))["l_suppkey"] \
        .to_pylist()
    sup = _pq.read_table(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_name", "s_nationkey"])
    nat = _pq.read_table(f"{sf_dir}/nation.parquet",
                         columns=["n_nationkey", "n_name"])
    nmap = dict(zip(nat["n_nationkey"].to_pylist(),
                    nat["n_name"].to_pylist()))
    smap = {k: (nm, nmap[nk]) for k, nm, nk in
            zip(sup["s_suppkey"].to_pylist(), sup["s_name"].to_pylist(),
                sup["s_nationkey"].to_pylist())}
    rows = sorted(smap[k] for k in winners)
    return pa.table({"s_name": pa.array([r[0] for r in rows], pa.string()),
                     "n_name": pa.array([r[1] for r in rows], pa.string())})


Q20_SQL = """
WITH sq AS (
  SELECT l_suppkey, CAST(sum(CAST(round(l_quantity) AS BIGINT))
                         AS BIGINT) AS qty
  FROM lineitem JOIN part ON p_partkey = l_partkey
  WHERE p_name LIKE 'red %'
    AND l_shipdate >= TIMESTAMP '1997-01-01'
    AND l_shipdate <  TIMESTAMP '1998-01-01'
  GROUP BY l_suppkey)
SELECT s_name, n_name
FROM sq
JOIN supplier ON s_suppkey = l_suppkey
JOIN nation   ON n_nationkey = s_nationkey
WHERE 2 * qty * (SELECT count(*) FROM sq) > (SELECT sum(qty) FROM sq)
ORDER BY s_name, n_name
"""


# ----------------------------------------------- TPC-H Q2 shape --
# (unit price from lineitem stands in for ps_supplycost)


def q2_min_cost_supplier(sf_dir: str):
    """TPC-H Q2 shape (min-cost supplier per part): for LARGE-type
    parts and EUROPE-region suppliers, the per-(part, supplier) MIN
    unit price (cents), keeping every supplier that achieves the
    part's global minimum (the correlated-min subquery; ties kept,
    as in Q2).  Per-batch partial mins → one groupby on the composite
    key; the argmin-per-part runs on the tiny aggregate."""
    import pyarrow.parquet as _pq
    import ray
    from ray.data.aggregate import Min

    part = _pq.read_table(f"{sf_dir}/part.parquet",
                          columns=["p_partkey", "p_name", "p_type"])
    part = part.filter(pc.equal(part["p_type"], "LARGE"))
    pk = part["p_partkey"].to_numpy(zero_copy_only=False)
    order = np.argsort(pk)
    p_keys = pk[order]
    pname = {int(k): n for k, n in zip(part["p_partkey"].to_pylist(),
                                       part["p_name"].to_pylist())}
    nat = _pq.read_table(f"{sf_dir}/nation.parquet",
                         columns=["n_nationkey", "n_name", "n_regionkey"])
    reg = _pq.read_table(f"{sf_dir}/region.parquet",
                         columns=["r_regionkey", "r_name"])
    eu = {reg["r_regionkey"][i].as_py() for i in range(reg.num_rows)
          if reg["r_name"][i].as_py() == "EUROPE"}
    eu_nat = {nat["n_nationkey"][i].as_py(): nat["n_name"][i].as_py()
              for i in range(nat.num_rows)
              if nat["n_regionkey"][i].as_py() in eu}
    sup = _pq.read_table(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_name", "s_nationkey"])
    s_info = {k: (nm, eu_nat[nk]) for k, nm, nk in
              zip(sup["s_suppkey"].to_pylist(), sup["s_name"].to_pylist(),
                  sup["s_nationkey"].to_pylist()) if nk in eu_nat}
    sk = np.sort(np.array(sorted(s_info), dtype=np.int64))
    dim_ref = ray.put((p_keys, sk))

    def partial(t: pa.Table) -> pa.Table:
        keys, skeys = ray.get(dim_ref)
        lp = t["l_partkey"].to_numpy(zero_copy_only=False)
        ls = t["l_suppkey"].to_numpy(zero_copy_only=False)
        ok = np.zeros(len(lp), dtype=bool)
        if len(keys) and len(skeys):
            pos = np.clip(np.searchsorted(keys, lp), 0, len(keys) - 1)
            spos = np.clip(np.searchsorted(skeys, ls), 0, len(skeys) - 1)
            ok = (keys[pos] == lp) & (skeys[spos] == ls)
        t = t.filter(pa.array(ok))
        half_away = pc.RoundOptions(round_mode="half_towards_infinity")
        unit = pc.cast(pc.round(pc.multiply(pc.divide(
            t["l_extendedprice"], t["l_quantity"]),
            pa.scalar(100.0)), options=half_away), pa.int64())
        t2 = pa.table({"l_partkey": t["l_partkey"],
                       "l_suppkey": t["l_suppkey"], "unit": unit})
        g = t2.group_by(["l_partkey", "l_suppkey"]).aggregate(
            [("unit", "min")])
        return g.rename_columns(["l_partkey", "l_suppkey", "unit_part"])

    agg = (_read(sf_dir, "lineitem",
                 ["l_partkey", "l_suppkey", "l_extendedprice",
                  "l_quantity"])
           .map_batches(partial, batch_format="pyarrow",
                        zero_copy_batch=True)
           .groupby(["l_partkey", "l_suppkey"])
           .aggregate(Min("unit_part", alias_name="unit_cents")))
    batches = list(agg.iter_batches(batch_format="pyarrow"))
    EMPTY = pa.table({"p_partkey": pa.array([], pa.int64()),
                      "p_name": pa.array([], pa.string()),
                      "s_name": pa.array([], pa.string()),
                      "n_name": pa.array([], pa.string()),
                      "min_unit_cents": pa.array([], pa.int64())})
    if not batches:
        return EMPTY
    t = pa.concat_tables(batches)
    # argmin-with-ties per part on the tiny aggregate
    pkv = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    skv = t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    uv = t["unit_cents"].to_numpy(zero_copy_only=False).astype(np.int64)
    o = np.lexsort((skv, uv, pkv))
    pkv, skv, uv = pkv[o], skv[o], uv[o]
    first = np.concatenate(([True], pkv[1:] != pkv[:-1]))
    gmin = uv[first]                       # per-part min (groups sorted)
    gid = np.cumsum(first) - 1
    keep = uv == gmin[gid]
    pkv, skv, uv = pkv[keep], skv[keep], uv[keep]
    rows = sorted(
        (int(p), pname[int(p)], s_info[int(s)][0], s_info[int(s)][1],
         int(u)) for p, s, u in zip(pkv, skv, uv))
    return pa.table({
        "p_partkey": pa.array([r[0] for r in rows], pa.int64()),
        "p_name": pa.array([r[1] for r in rows], pa.string()),
        "s_name": pa.array([r[2] for r in rows], pa.string()),
        "n_name": pa.array([r[3] for r in rows], pa.string()),
        "min_unit_cents": pa.array([r[4] for r in rows], pa.int64())})


Q2_SQL = """
WITH unit AS (
  SELECT l_partkey, l_suppkey,
         min(CAST(round(l_extendedprice / l_quantity * 100) AS BIGINT))
           AS unit_cents
  FROM lineitem
  JOIN part     ON p_partkey = l_partkey
  JOIN supplier ON s_suppkey = l_suppkey
  JOIN nation   ON n_nationkey = s_nationkey
  JOIN region   ON r_regionkey = n_regionkey
  WHERE p_type = 'LARGE' AND r_name = 'EUROPE'
  GROUP BY l_partkey, l_suppkey)
SELECT p_partkey, p_name, s_name, n_name,
       unit_cents AS min_unit_cents
FROM unit
JOIN part     ON p_partkey = l_partkey
JOIN supplier ON s_suppkey = l_suppkey
JOIN nation   ON n_nationkey = s_nationkey
WHERE unit_cents = (SELECT min(u2.unit_cents) FROM unit u2
                    WHERE u2.l_partkey = unit.l_partkey)
ORDER BY p_partkey, s_name
"""


# ------------------------------------------------- parent-child (ES) --

# ES join-field queries — the document-relation feature family next to
# the reference's `nested` configs (README.md:11-13): `has_child`
# returns PARENT docs where enough children match a child query,
# scored by an aggregate over matching-child scores (score_mode
# max/sum + min_children); `has_parent` returns CHILD docs whose
# parent matches, with the parent's score propagated (score=true).
# Child/parent "scores" are integer cents so every mode is value-exact.

_HAS_CHILD_MIN_CHILDREN = 3


def has_child_orders(sf_dir: str):
    """`has_child` over parent=orders / child=lineitem: parents with ≥
    min_children children matching (returnflag R, qty > 25),
    score_mode max AND sum over child revenue cents, plus the ES
    `inner_hits` top child (the max-revenue child's linenumber,
    ties to the lowest linenumber via packed argmax — child scores are
    cents ints so the 3-bit pack is collision-free).

    Scale shape: per-batch pyarrow combiners shrink lineitem to one
    partial row per (batch, orderkey) BEFORE the exchange, the global
    groupby carries only partials, and the parent fetch is the
    co-partitioned hash join — nothing materializes driver-side."""
    import ray
    from ray.data.aggregate import Max, Sum

    def partial(t: pa.Table) -> pa.Table:
        mask = pc.and_(pc.is_in(t["l_returnflag"],
                                value_set=pa.array(["R"])),
                       pc.greater(t["l_quantity"], pa.scalar(25.0)))
        t = t.filter(mask)
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        cents = pc.cast(pc.floor(pc.add(pc.multiply(rev, pa.scalar(100.0)),
                                        pa.scalar(0.5))), pa.int64())
        # argmax-with-tiebreak pack: maximize (cents, -linenumber);
        # linenumber is 1..7 so (8 - ln) fits in 3 bits
        packed = pc.add(pc.multiply(cents, pa.scalar(8, pa.int64())),
                        pc.subtract(pa.scalar(8, pa.int64()),
                                    pc.cast(t["l_linenumber"], pa.int64())))
        t2 = pa.table({"l_orderkey": t["l_orderkey"],
                       "one": pa.array(np.ones(t.num_rows, dtype=np.int64)),
                       "cents": cents, "packed": packed})
        g = t2.group_by("l_orderkey").aggregate(
            [("one", "sum"), ("cents", "max"), ("cents", "sum"),
             ("packed", "max")])
        return g.rename_columns(["l_orderkey", "n", "mx", "sm", "pk"])

    agg = (_read(sf_dir, "lineitem",
                 ["l_orderkey", "l_linenumber", "l_returnflag", "l_quantity",
                  "l_extendedprice", "l_discount"])
           .map_batches(partial, batch_format="pyarrow",
                        zero_copy_batch=True)
           .groupby("l_orderkey")
           .aggregate(Sum("n", alias_name="n_matching"),
                      Max("mx", alias_name="score_max_cents"),
                      Sum("sm", alias_name="score_sum_cents"),
                      Max("pk", alias_name="pk")))

    def min_children(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(
            t["n_matching"], pa.scalar(_HAS_CHILD_MIN_CHILDREN,
                                       pa.int64())))
        best_ln = pc.subtract(
            pa.scalar(8, pa.int64()),
            pc.bit_wise_and(t["pk"], pa.scalar(7, pa.int64())))
        return t.drop_columns(["pk"]).append_column(
            "best_child_linenumber", best_ln)

    parents = _read(sf_dir, "orders",
                    ["o_orderkey", "o_orderdate", "o_orderpriority"])
    cpus = int(ray.cluster_resources().get("CPU", 8))
    j = (agg.map_batches(min_children, batch_format="pyarrow")
         .join(parents, join_type="inner",
               num_partitions=max(2, cpus // 2),
               on=("l_orderkey",), right_on=("o_orderkey",),
               aggregator_ray_remote_args={"num_cpus": 0.5}))

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": t["l_orderkey"],
            "o_orderdate": t["o_orderdate"],
            "o_orderpriority": t["o_orderpriority"],
            "n_matching": t["n_matching"],
            "score_max_cents": t["score_max_cents"],
            "score_sum_cents": t["score_sum_cents"],
            "best_child_linenumber": t["best_child_linenumber"],
        })

    return j.map_batches(finish, batch_format="pyarrow")


HAS_CHILD_SQL = f"""
SELECT o_orderkey, o_orderdate, o_orderpriority, n_matching,
       score_max_cents, score_sum_cents,
       8 - (pk % 8) AS best_child_linenumber
FROM orders JOIN (
  SELECT l_orderkey,
         count(*) AS n_matching,
         max(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                  AS BIGINT)) AS score_max_cents,
         CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                       AS BIGINT)) AS BIGINT) AS score_sum_cents,
         max(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                  AS BIGINT) * 8 + (8 - l_linenumber)) AS pk
  FROM lineitem
  WHERE l_returnflag IN ('R') AND l_quantity > 25
  GROUP BY l_orderkey
) ON l_orderkey = o_orderkey
WHERE n_matching >= {_HAS_CHILD_MIN_CHILDREN}
"""


def has_parent_lineitems(sf_dir: str):
    """`has_parent` (score=true): child lineitems whose parent order
    matches (1-URGENT, totalprice > 150k), each child carrying the
    parent's score (totalprice cents).  The parent side filters BEFORE
    the exchange — only matching parents enter the co-partitioned
    join."""
    import ray

    def parent_query(t: pa.Table) -> pa.Table:
        mask = pc.and_(pc.equal(t["o_orderpriority"],
                                pa.scalar("1-URGENT")),
                       pc.greater(t["o_totalprice"],
                                  pa.scalar(150_000.0)))
        t = t.filter(mask)
        cents = pc.cast(pc.floor(pc.add(pc.multiply(t["o_totalprice"],
                                                    pa.scalar(100.0)),
                                        pa.scalar(0.5))), pa.int64())
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "parent_score_cents": cents})

    parents = (_read(sf_dir, "orders",
                     ["o_orderkey", "o_orderpriority", "o_totalprice"])
               .map_batches(parent_query, batch_format="pyarrow",
                            zero_copy_batch=True))
    children = _read(sf_dir, "lineitem",
                     ["l_orderkey", "l_linenumber", "l_returnflag"])
    cpus = int(ray.cluster_resources().get("CPU", 8))
    j = children.join(parents, join_type="inner",
                      num_partitions=max(2, cpus // 2),
                      on=("l_orderkey",), right_on=("o_orderkey",),
                      aggregator_ray_remote_args={"num_cpus": 0.5})

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "l_linenumber": t["l_linenumber"],
                         "l_returnflag": t["l_returnflag"],
                         "parent_score_cents": t["parent_score_cents"]})

    return j.map_batches(finish, batch_format="pyarrow")


HAS_PARENT_SQL = """
SELECT l_orderkey, l_linenumber, l_returnflag,
       CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS parent_score_cents
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
WHERE o_orderpriority = '1-URGENT' AND o_totalprice > 150000
"""


# ---------------------------------------------------- ES agg family --
# filters / multi_terms / date_range / rate / cumulative_cardinality /
# diversified sampler / string_stats — the remaining ES aggregation
# surfaces, each with the exact-integer partial-aggregate discipline
# (cents cross the exchange, never raw doubles) and a SQL mirror.

_DAY_US = 86_400_000_000
# (_WEEK_US is defined once, above retention_cohorts_events)


def _cents_of(col: pa.ChunkedArray) -> pa.ChunkedArray:
    """SQL ``CAST(round(value * 100) AS BIGINT)`` exactly (half away
    from zero) — the module's one cents-rounding contract, shared by
    extended_stats/mad/top_metrics and the ES agg family."""
    return pc.cast(pc.round(pc.multiply(col, 100.0),
                            options=pc.RoundOptions(
                                round_mode="half_towards_infinity")),
                   pa.int64())


def filters_agg_events(sf_dir: str):
    """ES ``filters`` aggregation with ``other_bucket``: one NAMED
    bucket per predicate — high_value (value ≥ 100), clicks
    (event_type = 'click'), weekend (day-of-week ∈ {Sat, Sun} on the
    epoch-day grid: Monday=0, so 1970-01-01 (a Thursday) maps to 3 and
    weekend = dow ≥ 5) — plus ``other`` for
    events matching none.  ES buckets are NOT disjoint (an event can
    land in several); each batch emits exactly one 4-row partial
    (count + exact cents sum per bucket), so the exchange carries 4
    rows per batch regardless of input size."""
    from ray.data.aggregate import Sum

    names = ["high_value", "clicks", "weekend", "other"]

    def partial(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        dow = (us // _DAY_US + 3) % 7
        value = t["value"].to_numpy(zero_copy_only=False)
        cents = _cents_of(t["value"]).to_numpy(zero_copy_only=False)
        et_click = pc.equal(t["event_type"], pa.scalar("click")) \
            .to_numpy(zero_copy_only=False)
        masks = [value >= 100.0, et_click, dow >= 5]
        masks.append(~(masks[0] | masks[1] | masks[2]))
        return pa.table({
            "bucket": pa.array(names, pa.string()),
            "n_part": pa.array([int(m.sum()) for m in masks], pa.int64()),
            "s_part": pa.array([int(cents[m].sum()) for m in masks],
                               pa.int64())})

    return (_read(sf_dir, "events", ["ts", "event_type", "value"])
            .map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby("bucket")
            .aggregate(Sum("n_part", alias_name="n_events"),
                       Sum("s_part", alias_name="sum_value_cents")))


def _filters_sql() -> str:
    arms = {
        "high_value": "value >= 100.0",
        "clicks": "event_type = 'click'",
        "weekend": "dow >= 5",
        "other": ("NOT (value >= 100.0 OR event_type = 'click' "
                  "OR dow >= 5)"),
    }
    selects = [
        f"SELECT '{name}' AS bucket, count(*) AS n_events, "
        f"CAST(coalesce(sum(cent), 0) AS BIGINT) AS sum_value_cents "
        f"FROM c WHERE {cond}"
        for name, cond in arms.items()]
    return ("WITH c AS (SELECT event_type, value, "
            "CAST(round(value * 100) AS BIGINT) AS cent, "
            f"(epoch_us(ts) // {_DAY_US} + 3) % 7 AS dow FROM events)\n"
            + "\nUNION ALL\n".join(selects))


FILTERS_AGG_SQL = _filters_sql()

_MULTI_TERMS_K = 10


def multi_terms_events(sf_dir: str, k: int = _MULTI_TERMS_K):
    """ES ``multi_terms`` aggregation: buckets keyed by the TUPLE
    (event_type, day-of-week), ordered by doc count desc (key asc as
    the deterministic tie-break ES applies), top ``k`` only, each
    carrying count + exact cents sum.  Bucket space is the key-tuple
    cross product (|types| × 7) — the final sort runs on that
    metadata-scale table, not on events."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        g = (pa.table({"event_type": t["event_type"],
                       "dow": pa.array((us // _DAY_US + 3) % 7,
                                       pa.int64()),
                       "cent": _cents_of(t["value"])})
             .group_by(["event_type", "dow"])
             .aggregate([([], "count_all"), ("cent", "sum")]))
        return g.rename_columns(["event_type", "dow", "n_part",
                                 "s_part"])

    agg = (_read(sf_dir, "events", ["ts", "event_type", "value"])
           .map_batches(partial, batch_format="pyarrow",
                        zero_copy_batch=True)
           .groupby(["event_type", "dow"])
           .aggregate(Sum("n_part", alias_name="n_events"),
                      Sum("s_part", alias_name="sum_value_cents")))
    blocks = list(agg.iter_batches(batch_format="pyarrow"))
    t = pa.concat_tables(blocks) if blocks else pa.table(
        {"event_type": pa.array([], pa.string()),
         "dow": pa.array([], pa.int64()),
         "n_events": pa.array([], pa.int64()),
         "sum_value_cents": pa.array([], pa.int64())})
    et = np.asarray(t["event_type"].to_pylist(), dtype=object)
    dow = t["dow"].to_numpy(zero_copy_only=False)
    n = t["n_events"].to_numpy(zero_copy_only=False)
    order = np.lexsort((dow, et, -n))[:k]
    t = t.take(pa.array(order))
    return t.add_column(0, "rank",
                        pa.array(np.arange(1, len(t) + 1), pa.int64()))


MULTI_TERMS_SQL = f"""
WITH b AS (
  SELECT event_type,
         (epoch_us(ts) // {_DAY_US} + 3) % 7 AS dow,
         count(*) AS n_events,
         CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
           AS sum_value_cents
  FROM events GROUP BY 1, 2)
SELECT CAST(row_number() OVER (ORDER BY n_events DESC, event_type, dow)
            AS BIGINT) AS rank,
       event_type, dow, n_events, sum_value_cents
FROM b
QUALIFY rank <= {_MULTI_TERMS_K}
"""

# date_range bucket edges (us since epoch); None = unbounded, the ES
# from/to contract (from inclusive, to exclusive)
_DATE_RANGE_EDGES = [
    int(np.datetime64(d, "us").astype(np.int64))
    for d in ("2024-01-08", "2024-01-15", "2024-01-22")]


def _range_bucket_partial(edges: np.ndarray, labels: dict, key_fn,
                          weight_fn=None):
    """Shared [from, to) range-bucket partial — the ES range-agg
    family's combiner (date_range / ip_range / geo_distance rings):
    each batch emits exactly ONE (len(edges)+1)-row partial — bucket
    id via searchsorted(side="right") over the contiguous edges,
    counts via bincount, optional weight sums via float64 bincount
    (exact while the per-batch |Σ| < 2^53; the cross-batch sum stays
    int64 in the groupby)."""
    n_b = len(edges) + 1

    def partial(t: pa.Table) -> pa.Table:
        idx = np.searchsorted(edges, key_fn(t), side="right")
        cols = dict(labels)
        cols["n_part"] = pa.array(
            np.bincount(idx, minlength=n_b).astype(np.int64), pa.int64())
        if weight_fn is not None:
            cols["s_part"] = pa.array(
                np.bincount(idx, weights=weight_fn(t).astype(np.float64),
                            minlength=n_b).astype(np.int64), pa.int64())
        return pa.table(cols)

    return partial


def _materialize_range_agg(ds, labels: dict, agg_names: list) -> pa.Table:
    """Collect a fixed-bucket range agg.  On zero input batches the
    map stage never runs, so the engine would emit no rows while the
    UNION-ALL oracle still emits every bucket with count 0 — mirror
    that with the statically known zero table."""
    tabs = list(ds.iter_batches(batch_format="pyarrow"))
    if tabs:
        return pa.concat_tables(tabs)
    n = len(next(iter(labels.values())))
    cols = dict(labels)
    for a in agg_names:
        cols[a] = pa.array([0] * n, pa.int64())
    return pa.table(cols)


def date_range_agg_events(sf_dir: str):
    """ES ``date_range`` aggregation: explicit [from, to) buckets —
    here the unbounded head, two interior weeks, and the unbounded
    tail around {_DATE_RANGE_EDGES}.  Contiguous edges make the bucket
    id one ``searchsorted`` per batch; every batch emits exactly one
    4-row partial like filters_agg."""
    from ray.data.aggregate import Sum

    edges = np.asarray(_DATE_RANGE_EDGES, dtype=np.int64)
    n_b = len(edges) + 1
    labels = {"bucket": pa.array([f"r{i}" for i in range(n_b)],
                                 pa.string()),
              "from_us": pa.array([None] + _DATE_RANGE_EDGES, pa.int64()),
              "to_us": pa.array(_DATE_RANGE_EDGES + [None], pa.int64())}
    partial = _range_bucket_partial(
        edges, labels,
        lambda t: t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False),
        lambda t: _cents_of(t["value"]).to_numpy(zero_copy_only=False))

    ds = (_read(sf_dir, "events", ["ts", "value"])
          .map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True)
          .groupby(["bucket", "from_us", "to_us"])
          .aggregate(Sum("n_part", alias_name="n_events"),
                     Sum("s_part", alias_name="sum_value_cents")))
    return _materialize_range_agg(ds, labels,
                                  ["n_events", "sum_value_cents"])


def _date_range_sql() -> str:
    edges = _DATE_RANGE_EDGES
    bounds = list(zip([None] + edges, edges + [None]))
    selects = []
    for i, (lo, hi) in enumerate(bounds):
        conds = []
        if lo is not None:
            conds.append(f"epoch_us(ts) >= {lo}")
        if hi is not None:
            conds.append(f"epoch_us(ts) < {hi}")
        lo_s = "CAST(NULL AS BIGINT)" if lo is None else str(lo)
        hi_s = "CAST(NULL AS BIGINT)" if hi is None else str(hi)
        selects.append(
            f"SELECT 'r{i}' AS bucket, {lo_s} AS from_us, "
            f"{hi_s} AS to_us, count(*) AS n_events, "
            f"CAST(coalesce(sum(CAST(round(value * 100) AS BIGINT)), 0)"
            f" AS BIGINT) AS sum_value_cents "
            f"FROM events WHERE {' AND '.join(conds)}")
    return "\nUNION ALL\n".join(selects)


DATE_RANGE_AGG_SQL = _date_range_sql()


# ES ip_range aggregation: the testdata has no IP column, so each
# event's client address is DERIVED deterministically from user_id by
# the Knuth multiplicative hash mod 2^32 (the random_sampler / geo
# precedent) — pure int64 arithmetic, identical in numpy and SQL.
_IP_EDGES = [64 * 2 ** 24, 128 * 2 ** 24, 192 * 2 ** 24]
_KNUTH_M = 2654435761            # shared by _derived_ip and _IP_EXPR


def _dotted(v) -> str:
    return (f"{v >> 24 & 255}.{v >> 16 & 255}.{v >> 8 & 255}.{v & 255}"
            if v is not None else None)


def _derived_ip(t: pa.Table) -> np.ndarray:
    """user_id → 32-bit address, pre-reduced mod 2^32 before the
    Knuth multiply so the product stays < 2^64 (uint64-exact here,
    HUGEINT in the SQL mirror) for ids of any magnitude."""
    uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
    return (((uid % np.uint64(2 ** 32)) * np.uint64(_KNUTH_M))
            % np.uint64(2 ** 32)).astype(np.int64)


def ip_range_events(sf_dir: str):
    """ES ``ip_range`` aggregation: [from, to) buckets over the
    derived 32-bit address, one searchsorted + bincount partial per
    batch (the shared range-bucket combiner); dotted-quad labels are
    rendered from the shared constants on both sides."""
    from ray.data.aggregate import Sum

    edges = np.asarray(_IP_EDGES, dtype=np.int64)
    n_b = len(edges) + 1
    bounds = list(zip([None] + _IP_EDGES, _IP_EDGES + [None]))
    labels = {
        "bucket": pa.array([f"b{i}" for i in range(n_b)], pa.string()),
        "from_ip": pa.array([_dotted(lo) for lo, _ in bounds],
                            pa.string()),
        "to_ip": pa.array([_dotted(hi) for _, hi in bounds],
                          pa.string())}
    partial = _range_bucket_partial(edges, labels, _derived_ip)

    ds = (_read(sf_dir, "events", ["user_id"])
          .map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True)
          .groupby(["bucket", "from_ip", "to_ip"])
          .aggregate(Sum("n_part", alias_name="cnt")))
    return _materialize_range_agg(ds, labels, ["cnt"])


_IP_EXPR = (f"((CAST(user_id AS HUGEINT) % 4294967296) * {_KNUTH_M})"
            " % 4294967296")


def _ip_range_sql() -> str:
    bounds = list(zip([None] + _IP_EDGES, _IP_EDGES + [None]))
    selects = []
    for i, (lo, hi) in enumerate(bounds):
        conds = []
        if lo is not None:
            conds.append(f"{_IP_EXPR} >= {lo}")
        if hi is not None:
            conds.append(f"{_IP_EXPR} < {hi}")
        lo_s = ("CAST(NULL AS VARCHAR)" if lo is None
                else f"'{_dotted(lo)}'")
        hi_s = ("CAST(NULL AS VARCHAR)" if hi is None
                else f"'{_dotted(hi)}'")
        selects.append(
            f"SELECT 'b{i}' AS bucket, {lo_s} AS from_ip, "
            f"{hi_s} AS to_ip, CAST(count(*) AS BIGINT) AS cnt "
            f"FROM events WHERE {' AND '.join(conds)}")
    return "\nUNION ALL\n".join(selects)


IP_RANGE_SQL = _ip_range_sql()


def ip_prefix_events(sf_dir: str):
    """ES ``ip_prefix`` aggregation (prefix_length=8, IPv4): bucket
    the derived 32-bit address by its first octet.  Per-batch partial
    is one np.unique over ``addr >> 24`` (≤256 rows whatever the batch
    size); labels render from the octet on both sides."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        octet = _derived_ip(t) >> 24
        vals, cnts = np.unique(octet, return_counts=True)
        return pa.table({"octet": pa.array(vals, pa.int64()),
                         "n_part": pa.array(cnts, pa.int64())})

    def finish(t: pa.Table) -> pa.Table:
        oct_ = t["octet"].to_numpy(zero_copy_only=False)
        return pa.table({
            "octet": t["octet"],
            "prefix": pa.array([f"{o}.0.0.0/8" for o in oct_],
                               pa.string()),
            "cnt": t["cnt"]})

    return (_read(sf_dir, "events", ["user_id"])
            .map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby("octet")
            .aggregate(Sum("n_part", alias_name="cnt"))
            .map_batches(finish, batch_format="pyarrow"))


IP_PREFIX_SQL = f"""
SELECT octet,
       CAST(octet AS VARCHAR) || '.0.0.0/8' AS prefix,
       CAST(count(*) AS BIGINT) AS cnt
FROM (SELECT CAST(({_IP_EXPR}) // 16777216 AS BIGINT) AS octet
      FROM events)
GROUP BY octet ORDER BY octet
"""


def children_agg_orders(sf_dir: str):
    """ES ``children`` aggregation: terms buckets on a PARENT field
    (o_orderpriority) with a child-side sub-agg drilling into the
    join relation — per priority: all parents, parents having
    children, child count, exact child-quantity cents sum.  Child
    rows shrink to one partial per (batch, orderkey) before any
    exchange, and the parent attach is the bucketed UNION-GROUPBY
    join (the pagerank rank⋈edge pattern): parent rows and child
    partials union-tagged into ONE groupby(o_orderkey), so the merge
    is group-local, zero-child parents keep their bucket (the
    oracle's LEFT JOIN), and no join operator is involved —
    schema-stable even on degenerate/empty inputs."""
    from ray.data.aggregate import Max, Sum

    def parent_rows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "prio": t["o_orderpriority"],
                         "np": pa.array(np.ones(n, np.int64)),
                         "nc": pa.array(np.zeros(n, np.int64)),
                         "qc": pa.array(np.zeros(n, np.int64))})

    def child_rows(t: pa.Table) -> pa.Table:
        qc = _cents_of(t["l_quantity"])
        g = (pa.table({"o_orderkey": t["l_orderkey"],
                       "one": pa.array(np.ones(t.num_rows, np.int64)),
                       "qc": qc})
             .group_by("o_orderkey")
             .aggregate([("one", "sum"), ("qc", "sum")]))
        g = g.rename_columns(["o_orderkey", "nc", "qc"])
        n = g.num_rows
        return pa.table({"o_orderkey": g["o_orderkey"],
                         # "" sorts below every real priority, so the
                         # per-key Max picks the parent's label
                         "prio": pa.array([""] * n, pa.string()),
                         "np": pa.array(np.zeros(n, np.int64)),
                         "nc": g["nc"], "qc": g["qc"]})

    both = (_read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
            .map_batches(parent_rows, batch_format="pyarrow",
                         zero_copy_batch=True)
            .union(_read(sf_dir, "lineitem",
                         ["l_orderkey", "l_quantity"])
                   .map_batches(child_rows, batch_format="pyarrow",
                                zero_copy_batch=True)))

    per_order = (both.groupby("o_orderkey")
                 .aggregate(Max("prio", alias_name="prio"),
                            Sum("np", alias_name="np"),
                            Sum("nc", alias_name="nc"),
                            Sum("qc", alias_name="qc")))

    def prio_partial(t: pa.Table) -> pa.Table:
        # np == 0 would be an orphan child (no parent row) — outside
        # the parent relation, like the oracle's FROM orders LEFT JOIN
        t = t.filter(pc.greater(t["np"], pa.scalar(0)))
        has = pc.cast(pc.greater(t["nc"], pa.scalar(0)), pa.int64())
        g = (pa.table({"o_orderpriority": t["prio"],
                       "one": pc.cast(t["np"], pa.int64()),
                       "has": has,
                       "nc": pc.cast(t["nc"], pa.int64()),
                       "qc": pc.cast(t["qc"], pa.int64())})
             .group_by("o_orderpriority")
             .aggregate([("one", "sum"), ("has", "sum"),
                         ("nc", "sum"), ("qc", "sum")]))
        return g.rename_columns(
            ["o_orderpriority", "p_part", "h_part", "c_part", "q_part"])

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderpriority": t["o_orderpriority"],
            "n_parents": pc.cast(t["n_parents"], pa.int64()),
            "n_parents_with_children": pc.cast(
                t["n_parents_with_children"], pa.int64()),
            "n_children": pc.cast(t["n_children"], pa.int64()),
            "sum_child_qty_cents": pc.cast(t["sum_child_qty_cents"],
                                           pa.int64())})

    return (per_order.map_batches(prio_partial, batch_format="pyarrow")
            .groupby("o_orderpriority")
            .aggregate(Sum("p_part", alias_name="n_parents"),
                       Sum("h_part",
                           alias_name="n_parents_with_children"),
                       Sum("c_part", alias_name="n_children"),
                       Sum("q_part", alias_name="sum_child_qty_cents"))
            .map_batches(finish, batch_format="pyarrow"))


CHILDREN_AGG_SQL = """
SELECT o.o_orderpriority,
       CAST(count(*) AS BIGINT) AS n_parents,
       CAST(count(c.n_children) AS BIGINT) AS n_parents_with_children,
       CAST(coalesce(sum(c.n_children), 0) AS BIGINT) AS n_children,
       CAST(coalesce(sum(c.qty_cents), 0) AS BIGINT)
         AS sum_child_qty_cents
FROM orders o
LEFT JOIN (SELECT l_orderkey, count(*) AS n_children,
                  sum(CAST(round(l_quantity * 100) AS BIGINT))
                    AS qty_cents
           FROM lineitem GROUP BY l_orderkey) c
  ON c.l_orderkey = o.o_orderkey
GROUP BY o.o_orderpriority ORDER BY o.o_orderpriority
"""


def parent_agg_lineitem(sf_dir: str):
    """ES ``parent`` aggregation (the reverse drill): bucket CHILD
    docs by l_returnflag, then aggregate over their DISTINCT parents
    — per flag: distinct parent count + exact parent-totalprice cents
    sum with each parent counted once.  Join-free: the flag domain is
    discovered by a key-only groupby (bounded vocabulary — the
    frequent_item_sets precedent), child rows collapse to one-hot
    has_<flag> columns combined per (batch, orderkey), and the parent
    attach is the bucketed union-groupby with Max-as-OR merge, so the
    plan is schema-stable on degenerate inputs and ships one bounded
    row per parent."""
    from ray.data.aggregate import Max, Sum

    li = _read(sf_dir, "lineitem", ["l_returnflag", "l_orderkey"])
    flags = sorted(
        b["l_returnflag"]
        for t in (li.groupby("l_returnflag").count()
                  .iter_batches(batch_format="pyarrow"))
        for b in t.to_pylist())
    hcols = [f"h{i}" for i in range(len(flags))]
    empty = pa.schema([("l_returnflag", pa.string()),
                       ("n_parents", pa.int64()),
                       ("sum_parent_price_cents", pa.int64())])
    if not flags:
        import ray.data
        return ray.data.from_arrow(empty.empty_table())

    def child_rows(t: pa.Table) -> pa.Table:
        fl = t["l_returnflag"]
        cols = {"o_orderkey": t["l_orderkey"]}
        for f, h in zip(flags, hcols):
            cols[h] = pc.cast(pc.equal(fl, pa.scalar(f)), pa.int64())
        g = (pa.table(cols).group_by("o_orderkey")
             .aggregate([(h, "max") for h in hcols]))
        g = g.rename_columns(["o_orderkey"] + hcols)
        n = g.num_rows
        return g.append_column(
            "pcents", pa.array(np.zeros(n, np.int64))).append_column(
            "np", pa.array(np.zeros(n, np.int64)))

    def parent_rows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        cols = {"o_orderkey": t["o_orderkey"]}
        for h in hcols:
            cols[h] = pa.array(np.zeros(n, np.int64))
        cols["pcents"] = _cents_of(t["o_totalprice"])
        cols["np"] = pa.array(np.ones(n, np.int64))
        return pa.table(cols)

    both = (li.map_batches(child_rows, batch_format="pyarrow",
                           zero_copy_batch=True)
            .union(_read(sf_dir, "orders",
                         ["o_orderkey", "o_totalprice"])
                   .map_batches(parent_rows, batch_format="pyarrow",
                                zero_copy_batch=True)))

    per_order = (both.groupby("o_orderkey")
                 .aggregate(*([Max(h, alias_name=h) for h in hcols]
                              + [Max("pcents", alias_name="pcents"),
                                 Max("np", alias_name="np")])))

    def flag_partial(t: pa.Table) -> pa.Table:
        # np == 0 → orphan child rows with no parent in orders: not a
        # parent to aggregate (the oracle's inner join drops them)
        t = t.filter(pc.greater(t["np"], pa.scalar(0)))
        outs = []
        for f, h in zip(flags, hcols):
            hv = pc.cast(t[h], pa.int64())
            outs.append(pa.table({
                "l_returnflag": pa.array([f], pa.string()),
                "n_part": pa.array(
                    [pc.sum(hv).as_py() or 0], pa.int64()),
                "c_part": pa.array(
                    [pc.sum(pc.multiply(hv, pc.cast(
                        t["pcents"], pa.int64()))).as_py() or 0],
                    pa.int64())}))
        return pa.concat_tables(outs)

    def finish(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["n_parents"], pa.scalar(0)))
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "n_parents": pc.cast(t["n_parents"], pa.int64()),
            "sum_parent_price_cents": pc.cast(
                t["sum_parent_price_cents"], pa.int64())})

    return (per_order.map_batches(flag_partial, batch_format="pyarrow")
            .groupby("l_returnflag")
            .aggregate(Sum("n_part", alias_name="n_parents"),
                       Sum("c_part",
                           alias_name="sum_parent_price_cents"))
            .map_batches(finish, batch_format="pyarrow"))


PARENT_AGG_SQL = """
SELECT l_returnflag,
       CAST(count(*) AS BIGINT) AS n_parents,
       CAST(sum(pcents) AS BIGINT) AS sum_parent_price_cents
FROM (SELECT DISTINCT l_returnflag, l_orderkey FROM lineitem) p
JOIN (SELECT o_orderkey,
             CAST(round(o_totalprice * 100) AS BIGINT) AS pcents
      FROM orders) o
  ON o.o_orderkey = p.l_orderkey
GROUP BY l_returnflag ORDER BY l_returnflag
"""


# derived-optional-field rule for the missing agg: the label exists
# only when event_id % 7 >= 2 (the testdata carries no NULL columns;
# deterministic derived fields are the geo/ip precedent)
_MISSING_MOD, _MISSING_LT = 7, 2


def missing_agg_events(sf_dir: str):
    """ES ``missing`` aggregation (+ the present-side stats a real
    request pairs it with): per event_type, how many docs lack the
    derived optional field, how many carry it, and the exact cents
    sum over the present side.  One vectorized mask per batch; only
    (event_type, 3×int64) partials cross the exchange."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        present = (eid % _MISSING_MOD) >= _MISSING_LT
        cents = _cents_of(t["value"]).to_numpy(zero_copy_only=False)
        g = (pa.table({
            "event_type": t["event_type"],
            "miss": pa.array((~present).astype(np.int64)),
            "pres": pa.array(present.astype(np.int64)),
            "c": pa.array(np.where(present, cents, 0))})
             .group_by("event_type")
             .aggregate([("miss", "sum"), ("pres", "sum"),
                         ("c", "sum")]))
        return g.rename_columns(
            ["event_type", "m_part", "p_part", "c_part"])

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return pa.table({
            "event_type": t["event_type"],
            "n_missing": pc.cast(t["n_missing"], pa.int64()),
            "n_present": pc.cast(t["n_present"], pa.int64()),
            "sum_present_cents": pc.cast(t["sum_present_cents"],
                                         pa.int64())})

    return (_read(sf_dir, "events", ["event_id", "event_type", "value"])
            .map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby("event_type")
            .aggregate(Sum("m_part", alias_name="n_missing"),
                       Sum("p_part", alias_name="n_present"),
                       Sum("c_part", alias_name="sum_present_cents"))
            .map_batches(finish, batch_format="pyarrow"))


MISSING_AGG_SQL = f"""
SELECT event_type,
       CAST(sum(CASE WHEN event_id % {_MISSING_MOD} < {_MISSING_LT}
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_missing,
       CAST(sum(CASE WHEN event_id % {_MISSING_MOD} >= {_MISSING_LT}
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_present,
       CAST(sum(CASE WHEN event_id % {_MISSING_MOD} >= {_MISSING_LT}
                     THEN CAST(round(value * 100) AS BIGINT)
                     ELSE 0 END) AS BIGINT) AS sum_present_cents
FROM events GROUP BY event_type ORDER BY event_type
"""


def rate_agg_events(sf_dir: str):
    """ES ``rate`` aggregation (unit=day) inside a weekly
    date_histogram: per epoch-week bucket, count, exact cents sum, and
    the day-rate = sum / 7 — ONE float division applied identically on
    both sides of the oracle, so the doubles are bit-equal."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        g = (pa.table({"week_us": pa.array((us // _WEEK_US) * _WEEK_US,
                                           pa.int64()),
                       "cent": _cents_of(t["value"])})
             .group_by("week_us")
             .aggregate([([], "count_all"), ("cent", "sum")]))
        return g.rename_columns(["week_us", "n_part", "s_part"])

    agg = (_read(sf_dir, "events", ["ts", "value"])
           .map_batches(partial, batch_format="pyarrow",
                        zero_copy_batch=True)
           .groupby("week_us")
           .aggregate(Sum("n_part", alias_name="n_events"),
                      Sum("s_part", alias_name="sum_value_cents")))

    def finish(t: pa.Table) -> pa.Table:
        rate = pc.divide(pc.cast(t["sum_value_cents"], pa.float64()),
                         pa.scalar(7.0))
        return t.append_column("rate_cents_per_day", rate)

    return agg.map_batches(finish, batch_format="pyarrow")


RATE_AGG_SQL = f"""
SELECT (epoch_us(ts) // {_WEEK_US}) * {_WEEK_US} AS week_us,
       count(*) AS n_events,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
         AS sum_value_cents,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS DOUBLE) / 7.0
         AS rate_cents_per_day
FROM events GROUP BY 1
"""


def cumulative_cardinality_events(sf_dir: str):
    """ES ``cumulative_cardinality`` pipeline aggregation over a daily
    date_histogram: per day, the running count of DISTINCT users seen
    so far — EXACT (ES's is HLL-approximate) via the first-seen-day
    rewrite: cum_users(d) = |{u : first_day(u) ≤ d}|, so the wide work
    is one groupby(user).min(day) whose exchange carries one row per
    distinct user per batch, plus the daily count histogram.  The
    cumulative sum runs on the day-bucket table (bounded by corpus
    time span — metadata-scale), never on events."""
    from ray.data.aggregate import Min, Sum

    def day_counts(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        g = (pa.table({"day": pa.array(us // _DAY_US, pa.int64())})
             .group_by("day").aggregate([([], "count_all")]))
        return g.rename_columns(["day", "n_part"])

    def first_seen_partial(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        g = (pa.table({"user_id": t["user_id"],
                       "day": pa.array(us // _DAY_US, pa.int64())})
             .group_by("user_id").aggregate([("day", "min")]))
        return g.rename_columns(["user_id", "day_p"])

    days = (_read(sf_dir, "events", ["ts"])
            .map_batches(day_counts, batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby("day").aggregate(Sum("n_part",
                                          alias_name="n_events")))
    first = (_read(sf_dir, "events", ["ts", "user_id"])
             .map_batches(first_seen_partial, batch_format="pyarrow",
                          zero_copy_batch=True)
             .groupby("user_id").aggregate(Min("day_p",
                                               alias_name="day")))

    def new_user_counts(t: pa.Table) -> pa.Table:
        g = (t.select(["day"]).group_by("day")
             .aggregate([([], "count_all")]))
        return g.rename_columns(["day", "nu_part"])

    new_users = (first.map_batches(new_user_counts,
                                   batch_format="pyarrow")
                 .groupby("day").aggregate(Sum("nu_part",
                                               alias_name="new_users")))

    dt = pa.concat_tables(list(days.iter_batches(
        batch_format="pyarrow"))).sort_by("day")
    nt = pa.concat_tables(list(new_users.iter_batches(
        batch_format="pyarrow")))
    nu_map = dict(zip(nt["day"].to_pylist(), nt["new_users"].to_pylist()))
    day = dt["day"].to_numpy(zero_copy_only=False)
    nu = np.array([nu_map.get(int(d), 0) for d in day], dtype=np.int64)
    return pa.table({
        "bucket_us": pa.array(day * _DAY_US, pa.int64()),
        "n_events": dt["n_events"],
        "new_users": pa.array(nu, pa.int64()),
        "cum_users": pa.array(np.cumsum(nu), pa.int64())})


CUMULATIVE_CARDINALITY_SQL = f"""
WITH d AS (
  SELECT epoch_us(ts) // {_DAY_US} AS day, count(*) AS n_events
  FROM events GROUP BY 1),
f AS (
  SELECT user_id, min(epoch_us(ts) // {_DAY_US}) AS day
  FROM events GROUP BY user_id),
nu AS (SELECT day, count(*) AS new_users FROM f GROUP BY day)
SELECT d.day * {_DAY_US} AS bucket_us,
       CAST(d.n_events AS BIGINT) AS n_events,
       CAST(coalesce(nu.new_users, 0) AS BIGINT) AS new_users,
       CAST(sum(coalesce(nu.new_users, 0)) OVER (ORDER BY d.day)
            AS BIGINT) AS cum_users
FROM d LEFT JOIN nu USING (day)
"""

_SAMPLER_PER_SOURCE = 3
_SAMPLER_SIZE = 50


def diversified_sample_documents(sf_dir: str,
                                 per_source: int = _SAMPLER_PER_SOURCE,
                                 sample: int = _SAMPLER_SIZE):
    """ES ``diversified_sampler`` aggregation, made deterministic:
    walk documents in global order (n_chars DESC, doc_id ASC — "best
    first"), keep a doc only while fewer than ``per_source`` docs of
    its source are kept, stop after ``sample``.  Equivalent closed
    form (provable because docs are only ever skipped for the source
    cap): survivors = within-source rank ≤ per_source, then the first
    ``sample`` survivors in global order.  The per-source top-k is the
    same combiner/finish discipline as topk_orders_per_customer; only
    |sources| × per_source rows reach the driver for the final
    (bounded) cut."""

    def topk_per_source(t: pa.Table) -> pa.Table:
        src = np.asarray(t["source"].to_pylist(), dtype=object)
        order = np.lexsort((t["doc_id"].to_numpy(zero_copy_only=False),
                            -t["n_chars"].to_numpy(zero_copy_only=False),
                            src))
        src_s = src[order]
        new = np.ones(len(src_s), dtype=bool)
        new[1:] = src_s[1:] != src_s[:-1]
        pos = np.arange(len(src_s))
        start = np.maximum.accumulate(np.where(new, pos, 0))
        keep = pos - start < per_source
        return t.take(pa.array(order[keep]))

    survivors = (_read(sf_dir, "documents",
                       ["doc_id", "source", "n_chars"])
                 .map_batches(topk_per_source, batch_format="pyarrow",
                              zero_copy_batch=True)
                 .groupby("source")
                 .map_groups(topk_per_source, batch_format="pyarrow"))
    t = pa.concat_tables(list(survivors.iter_batches(
        batch_format="pyarrow")))
    order = np.lexsort((t["doc_id"].to_numpy(zero_copy_only=False),
                        -t["n_chars"].to_numpy(zero_copy_only=False)))
    t = t.take(pa.array(order[:sample]))
    return t.add_column(0, "rank",
                        pa.array(np.arange(1, len(t) + 1), pa.int64()))


DIVERSIFIED_SAMPLE_SQL = f"""
WITH r AS (
  SELECT doc_id, source, n_chars,
         row_number() OVER (PARTITION BY source
                            ORDER BY n_chars DESC, doc_id) AS rs
  FROM documents),
s AS (
  SELECT doc_id, source, n_chars,
         CAST(row_number() OVER (ORDER BY n_chars DESC, doc_id)
              AS BIGINT) AS rank
  FROM r WHERE rs <= {_SAMPLER_PER_SOURCE})
SELECT rank, doc_id, source, n_chars FROM s
WHERE rank <= {_SAMPLER_SIZE}
"""


def string_stats_documents(sf_dir: str):
    """ES ``string_stats`` aggregation (show_distribution analog) per
    lang over ``text``: doc count, min/max/avg length (chars), the
    EXACT distinct-codepoint count, and the Shannon entropy of the
    character distribution in micro-bits.  Two bounded exchanges: the
    length stats move one row per (lang) per batch; the character
    histogram moves one row per (lang, codepoint) per batch — the
    codepoint alphabet, not the corpus.  Entropy finishes on the
    driver from the final histogram summed in codepoint order; it is
    a rounded float aggregate (module convention — sum order across
    engines differs by ULPs, ×10⁶-and-round makes the hash stable)."""
    from ray.data.aggregate import Max, Min, Sum

    def len_partial(t: pa.Table) -> pa.Table:
        ln = pc.utf8_length(t["text"])
        g = (pa.table({"lang": t["lang"], "ln": ln})
             .group_by("lang")
             .aggregate([([], "count_all"), ("ln", "sum"),
                         ("ln", "min"), ("ln", "max")]))
        return g.rename_columns(["lang", "n_p", "s_p", "mn_p", "mx_p"])

    def char_partial(t: pa.Table) -> pa.Table:
        langs, cps, cnts = [], [], []
        for lang, text in zip(t["lang"].to_pylist(),
                              t["text"].to_pylist()):
            # per-doc decode is vectorized (numpy over utf-32 bytes);
            # only (lang, codepoint, count) rows leave the batch
            arr = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
            u, c = np.unique(arr, return_counts=True)
            langs.append(np.full(len(u), lang, dtype=object))
            cps.append(u.astype(np.int64))
            cnts.append(c.astype(np.int64))
        if not langs:
            return pa.table({"lang": pa.array([], pa.string()),
                             "cp": pa.array([], pa.int64()),
                             "c_p": pa.array([], pa.int64())})
        g = (pa.table({"lang": pa.array(np.concatenate(langs)),
                       "cp": pa.array(np.concatenate(cps)),
                       "c": pa.array(np.concatenate(cnts))})
             .group_by(["lang", "cp"]).aggregate([("c", "sum")]))
        return g.rename_columns(["lang", "cp", "c_p"])

    lens = (_read(sf_dir, "documents", ["lang", "text"])
            .map_batches(len_partial, batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby("lang")
            .aggregate(Sum("n_p", alias_name="n_docs"),
                       Sum("s_p", alias_name="sum_len"),
                       Min("mn_p", alias_name="min_len"),
                       Max("mx_p", alias_name="max_len")))
    hist = (_read(sf_dir, "documents", ["lang", "text"])
            .map_batches(char_partial, batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby(["lang", "cp"])
            .aggregate(Sum("c_p", alias_name="cnt")))

    lt = pa.concat_tables(list(lens.iter_batches(
        batch_format="pyarrow"))).sort_by("lang")
    ht = pa.concat_tables(list(hist.iter_batches(
        batch_format="pyarrow")))
    hl = np.asarray(ht["lang"].to_pylist(), dtype=object)
    hcp = ht["cp"].to_numpy(zero_copy_only=False)
    hc = ht["cnt"].to_numpy(zero_copy_only=False)
    n_distinct, ent_micro = [], []
    for lang in lt["lang"].to_pylist():
        m = hl == lang
        cp, c = hcp[m], hc[m].astype(np.float64)
        # a lang whose docs are all '' has no histogram rows: 0
        # distinct chars, entropy 0 (the oracle's LEFT JOIN + coalesce)
        if not len(c):
            n_distinct.append(0)
            ent_micro.append(0)
            continue
        order = np.argsort(cp)
        c = c[order]
        total = c.sum()
        # H = log2(N) − Σ c·log2(c) / N, summed in codepoint order
        h = np.log2(total) - float(np.dot(c, np.log2(c))) / total
        n_distinct.append(int(m.sum()))
        ent_micro.append(int(np.floor(h * 1e6 + 0.5)))
    return pa.table({
        "lang": lt["lang"], "n_docs": lt["n_docs"],
        "sum_len": lt["sum_len"], "min_len": lt["min_len"],
        "max_len": lt["max_len"],
        "avg_len": pc.divide(pc.cast(lt["sum_len"], pa.float64()),
                             pc.cast(lt["n_docs"], pa.float64())),
        "n_distinct_chars": pa.array(n_distinct, pa.int64()),
        "entropy_microbits": pa.array(ent_micro, pa.int64())})


STRING_STATS_SQL = """
WITH l AS (
  SELECT lang, count(*) AS n_docs,
         CAST(sum(length(text)) AS BIGINT) AS sum_len,
         min(length(text)) AS min_len, max(length(text)) AS max_len
  FROM documents GROUP BY lang),
ch AS (
  SELECT lang, unnest(split(text, '')) AS chr FROM documents),
hist AS (
  SELECT lang, chr, count(*) AS c FROM ch GROUP BY lang, chr),
ent AS (
  SELECT lang, count(*) AS n_distinct_chars,
         log2(sum(c)) - sum(c * log2(c)) / sum(c) AS h
  FROM hist GROUP BY lang)
SELECT l.lang, l.n_docs, l.sum_len, l.min_len, l.max_len,
       CAST(l.sum_len AS DOUBLE) / CAST(l.n_docs AS DOUBLE) AS avg_len,
       CAST(coalesce(ent.n_distinct_chars, 0) AS BIGINT)
         AS n_distinct_chars,
       CAST(floor(coalesce(ent.h, 0) * 1000000 + 0.5) AS BIGINT)
         AS entropy_microbits
FROM l LEFT JOIN ent USING (lang)
"""


# ------------------------------------------------- ES agg family II --
# boxplot / histogram(offset, min_doc_count=0) / bucket_sort /
# normalize — same exact-integer discipline as family I.

def boxplot_events(sf_dir: str):
    """ES ``boxplot`` aggregation per event_type over ``value`` —
    EXACT (ES's is TDigest-approximate): quartiles are the discrete
    order statistic mad_events uses (smallest cent whose running
    count reaches ceil(q·n) — all int64, no interpolation ULPs), and
    the Tukey whiskers are the nearest actual values inside
    q1 − 1.5·IQR / q3 + 1.5·IQR, compared in quarter-cents
    (4·cent vs 4·q ∓ 6·IQR) so the 1.5× factor never leaves the
    integers.  The only shuffle carries distinct (type, cent) pairs —
    the same bounded histogram exchange as mad_events."""
    from ray.data.aggregate import Sum

    def cent_counts(t: pa.Table) -> pa.Table:
        g = (pa.table({"event_type": t["event_type"],
                       "cent": _cents_of(t["value"])})
             .group_by(["event_type", "cent"])
             .aggregate([([], "count_all")]))
        return g.rename_columns(["event_type", "cent", "n_part"])

    hist = (_read(sf_dir, "events", ["event_type", "value"])
            .map_batches(cent_counts, batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby(["event_type", "cent"])
            .aggregate(Sum("n_part", alias_name="cnt")))
    import math
    t = pa.concat_tables(list(hist.iter_batches(
        batch_format="pyarrow", batch_size=1 << 20)))
    ets = np.asarray(t["event_type"].to_pylist(), dtype=object)
    cents = t["cent"].to_numpy(zero_copy_only=False)
    cnts = t["cnt"].to_numpy(zero_copy_only=False)
    order = np.lexsort((cents, ets))
    ets, cents, cnts = ets[order], cents[order], cnts[order]
    out = {k: [] for k in ("event_type", "n", "min_cents", "max_cents",
                           "q1_cents", "q2_cents", "q3_cents",
                           "lower_whisker_cents",
                           "upper_whisker_cents")}
    for et in sorted(set(ets.tolist())):
        m = ets == et
        c, k = cents[m], cnts[m]
        run = np.cumsum(k)
        n = int(run[-1])
        q1, q2, q3 = (int(c[np.searchsorted(run, math.ceil(q * n))])
                      for q in (0.25, 0.5, 0.75))
        iqr = q3 - q1
        lo_ok = 4 * c >= 4 * q1 - 6 * iqr
        hi_ok = 4 * c <= 4 * q3 + 6 * iqr
        out["event_type"].append(et)
        out["n"].append(n)
        out["min_cents"].append(int(c[0]))
        out["max_cents"].append(int(c[-1]))
        out["q1_cents"].append(q1)
        out["q2_cents"].append(q2)
        out["q3_cents"].append(q3)
        out["lower_whisker_cents"].append(int(c[lo_ok].min()))
        out["upper_whisker_cents"].append(int(c[hi_ok].max()))
    return pa.table({k: pa.array(v, pa.string() if k == "event_type"
                                 else pa.int64())
                     for k, v in out.items()})


BOXPLOT_SQL = """
WITH c AS (
  SELECT event_type, CAST(round(value * 100) AS BIGINT) AS cent
  FROM events),
tot AS (SELECT event_type, count(*) AS n,
               min(cent) AS min_cents, max(cent) AS max_cents
        FROM c GROUP BY event_type),
cum AS (
  SELECT event_type, cent,
         sum(count(*)) OVER (PARTITION BY event_type ORDER BY cent)
           AS run
  FROM c GROUP BY event_type, cent),
q AS (
  SELECT cum.event_type,
         CAST(min(CASE WHEN run >= CAST(ceil(0.25 * n) AS BIGINT)
                       THEN cent END) AS BIGINT) AS q1_cents,
         CAST(min(CASE WHEN run >= CAST(ceil(0.5 * n) AS BIGINT)
                       THEN cent END) AS BIGINT) AS q2_cents,
         CAST(min(CASE WHEN run >= CAST(ceil(0.75 * n) AS BIGINT)
                       THEN cent END) AS BIGINT) AS q3_cents
  FROM cum JOIN tot USING (event_type)
  GROUP BY cum.event_type),
w AS (
  SELECT c.event_type,
         min(CASE WHEN 4 * c.cent >=
                       4 * q.q1_cents - 6 * (q.q3_cents - q.q1_cents)
                  THEN c.cent END) AS lo_w,
         max(CASE WHEN 4 * c.cent <=
                       4 * q.q3_cents + 6 * (q.q3_cents - q.q1_cents)
                  THEN c.cent END) AS hi_w
  FROM c JOIN q USING (event_type)
  GROUP BY c.event_type)
SELECT event_type, tot.n, tot.min_cents, tot.max_cents,
       q.q1_cents, q.q2_cents, q.q3_cents,
       CAST(w.lo_w AS BIGINT) AS lower_whisker_cents,
       CAST(w.hi_w AS BIGINT) AS upper_whisker_cents
FROM tot JOIN q USING (event_type) JOIN w USING (event_type)
ORDER BY event_type
"""

_HIST_INTERVAL = 2500              # cents
_HIST_OFFSET = 300


def histogram_events(sf_dir: str, interval: int = _HIST_INTERVAL,
                     offset: int = _HIST_OFFSET):
    """ES numeric ``histogram`` aggregation with ``offset`` and
    ``min_doc_count: 0``: bucket key = offset + interval·⌊(cent −
    offset)/interval⌋ (true floor division, negative-safe), count +
    exact cents sum per bucket, and EMPTY buckets emitted between the
    min and max occupied keys (the gap fill runs on the bounded
    bucket table on the driver, mirroring the oracle's range() join,
    never on events)."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        cents = _cents_of(t["value"]).to_numpy(zero_copy_only=False)
        key = offset + interval * ((cents - offset) // interval)
        g = (pa.table({"key_cents": pa.array(key, pa.int64()),
                       "cent": pa.array(cents, pa.int64())})
             .group_by("key_cents")
             .aggregate([([], "count_all"), ("cent", "sum")]))
        return g.rename_columns(["key_cents", "n_part", "s_part"])

    agg = (_read(sf_dir, "events", ["value"])
           .map_batches(partial, batch_format="pyarrow",
                        zero_copy_batch=True)
           .groupby("key_cents")
           .aggregate(Sum("n_part", alias_name="n_events"),
                      Sum("s_part", alias_name="sum_value_cents")))
    t = pa.concat_tables(list(agg.iter_batches(
        batch_format="pyarrow"))).sort_by("key_cents")
    if not len(t):
        return t
    keys = t["key_cents"].to_numpy(zero_copy_only=False)
    full = np.arange(keys[0], keys[-1] + 1, interval, dtype=np.int64)
    # every occupied key sits exactly on the arange grid by
    # construction (key = offset + interval*floor), so a direct
    # scatter fills the gaps
    idx = (keys - full[0]) // interval
    n = np.zeros(len(full), dtype=np.int64)
    s = np.zeros(len(full), dtype=np.int64)
    n[idx] = t["n_events"].to_numpy(zero_copy_only=False)
    s[idx] = t["sum_value_cents"].to_numpy(zero_copy_only=False)
    return pa.table({"key_cents": pa.array(full, pa.int64()),
                     "n_events": pa.array(n, pa.int64()),
                     "sum_value_cents": pa.array(s, pa.int64())})


HISTOGRAM_SQL = f"""
WITH c AS (
  SELECT CAST(round(value * 100) AS BIGINT) AS cent FROM events),
b AS (
  SELECT {_HIST_OFFSET} + {_HIST_INTERVAL} *
           CAST(floor((cent - {_HIST_OFFSET})
                      / {_HIST_INTERVAL}.0) AS BIGINT) AS key_cents,
         count(*) AS n_events,
         CAST(sum(cent) AS BIGINT) AS sum_value_cents
  FROM c GROUP BY 1),
span AS (SELECT min(key_cents) AS lo, max(key_cents) AS hi FROM b),
grid AS (
  SELECT CAST(unnest(range(lo, hi + 1, {_HIST_INTERVAL})) AS BIGINT)
           AS key_cents
  FROM span)
SELECT grid.key_cents,
       CAST(coalesce(b.n_events, 0) AS BIGINT) AS n_events,
       CAST(coalesce(b.sum_value_cents, 0) AS BIGINT)
         AS sum_value_cents
FROM grid LEFT JOIN b USING (key_cents)
ORDER BY key_cents
"""

_BUCKET_SORT_FROM = 1
_BUCKET_SORT_SIZE = 3


def _event_type_cents_agg(sf_dir: str) -> pa.Table:
    """Shared exact per-event_type (count, cents-sum) exchange:
    int64 partials inside map_batches, one |types|-row groupby —
    the bucket table every terms-agg pipeline stage starts from."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        g = (pa.table({"event_type": t["event_type"],
                       "cent": _cents_of(t["value"])})
             .group_by("event_type")
             .aggregate([([], "count_all"), ("cent", "sum")]))
        return g.rename_columns(["event_type", "n_part", "s_part"])

    agg = (_read(sf_dir, "events", ["event_type", "value"])
           .map_batches(partial, batch_format="pyarrow",
                        zero_copy_batch=True)
           .groupby("event_type")
           .aggregate(Sum("n_part", alias_name="n_events"),
                      Sum("s_part", alias_name="sum_value_cents")))
    return pa.concat_tables(list(agg.iter_batches(
        batch_format="pyarrow")))


def bucket_sort_events(sf_dir: str, from_: int = _BUCKET_SORT_FROM,
                       size: int = _BUCKET_SORT_SIZE):
    """ES ``bucket_sort`` pipeline aggregation over the event_type
    terms agg: order buckets by exact cents sum DESC (event_type ASC
    as the deterministic tie-break), skip ``from``, keep ``size`` —
    the truncation runs on the bucket table (|types| rows), the
    events-sized work is one combined groupby."""
    t = _event_type_cents_agg(sf_dir)
    et = np.asarray(t["event_type"].to_pylist(), dtype=object)
    s = t["sum_value_cents"].to_numpy(zero_copy_only=False)
    order = np.lexsort((et, -s))[from_:from_ + size]
    t = t.take(pa.array(order))
    return t.add_column(0, "rank", pa.array(
        np.arange(from_ + 1, from_ + 1 + len(t)), pa.int64()))


BUCKET_SORT_SQL = f"""
WITH b AS (
  SELECT event_type, count(*) AS n_events,
         CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
           AS sum_value_cents
  FROM events GROUP BY event_type)
SELECT CAST(row_number() OVER (ORDER BY sum_value_cents DESC,
                               event_type) AS BIGINT) AS rank,
       event_type, n_events, sum_value_cents
FROM b
QUALIFY rank > {_BUCKET_SORT_FROM}
    AND rank <= {_BUCKET_SORT_FROM + _BUCKET_SORT_SIZE}
ORDER BY rank
"""


def normalize_events(sf_dir: str):
    """ES ``normalize`` pipeline aggregation (method percent_of_sum)
    over the event_type terms agg: each bucket's share of the total
    count and of the total cents sum, in ppm — ONE driver division
    per bucket, floor(x + 0.5) on non-negative ratios = SQL round()
    half-away (the repo's exactness rule)."""
    t = _event_type_cents_agg(sf_dir).sort_by("event_type")
    n = t["n_events"].to_numpy(zero_copy_only=False)
    s = t["sum_value_cents"].to_numpy(zero_copy_only=False)
    n_ppm = np.floor(1e6 * n / max(int(n.sum()), 1) + 0.5) \
        .astype(np.int64)
    s_ppm = np.floor(1e6 * s / max(int(s.sum()), 1) + 0.5) \
        .astype(np.int64)
    return pa.table({"event_type": t["event_type"],
                     "n_events": t["n_events"],
                     "sum_value_cents": t["sum_value_cents"],
                     "count_ppm": pa.array(n_ppm, pa.int64()),
                     "sum_ppm": pa.array(s_ppm, pa.int64())})


NORMALIZE_SQL = """
WITH b AS (
  SELECT event_type, count(*) AS n_events,
         CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
           AS sum_value_cents
  FROM events GROUP BY event_type)
SELECT event_type, n_events, sum_value_cents,
       CAST(round(1000000.0 * n_events
                  / sum(n_events) OVER ()) AS BIGINT) AS count_ppm,
       CAST(round(1000000.0 * sum_value_cents
                  / sum(sum_value_cents) OVER ()) AS BIGINT) AS sum_ppm
FROM b ORDER BY event_type
"""


_MOVPCT_WINDOW = 7


def moving_percentiles_events(sf_dir: str,
                              window: int = _MOVPCT_WINDOW):
    """ES ``moving_percentiles`` pipeline aggregation — EXACT (ES
    merges per-bucket TDigest sketches): for each day of the
    gap-filled daily histogram, the p50/p90 of ``value`` over the
    trailing ``window`` days (partial at the head, NULL on an empty
    window), as the discrete order statistic mad_events uses.  The
    only shuffle carries distinct (day, cent) pairs — per-day
    histograms ARE the mergeable sketch, so the windowed merge runs
    on the bounded bucket table on the driver, never on events."""
    from ray.data.aggregate import Sum

    def cent_counts(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        g = (pa.table({"day": pa.array(us // _DAY_US, pa.int64()),
                       "cent": _cents_of(t["value"])})
             .group_by(["day", "cent"])
             .aggregate([([], "count_all")]))
        return g.rename_columns(["day", "cent", "n_part"])

    hist = (_read(sf_dir, "events", ["ts", "value"])
            .map_batches(cent_counts, batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby(["day", "cent"])
            .aggregate(Sum("n_part", alias_name="cnt")))
    import math
    t = pa.concat_tables(list(hist.iter_batches(
        batch_format="pyarrow", batch_size=1 << 20)))
    empty = pa.table({"bucket_us": pa.array([], pa.int64()),
                      "n_window": pa.array([], pa.int64()),
                      "p50_cents": pa.array([], pa.int64()),
                      "p90_cents": pa.array([], pa.int64())})
    if not len(t):
        return empty
    day = t["day"].to_numpy(zero_copy_only=False)
    cent = t["cent"].to_numpy(zero_copy_only=False)
    cnt = t["cnt"].to_numpy(zero_copy_only=False)
    order = np.lexsort((cent, day))
    day, cent, cnt = day[order], cent[order], cnt[order]
    full = np.arange(day.min(), day.max() + 1, dtype=np.int64)
    starts = np.searchsorted(day, full)          # row range per day
    ends = np.searchsorted(day, full, side="right")
    out_n, out_p50, out_p90 = [], [], []
    for i in range(len(full)):
        lo = starts[max(0, i - window + 1)]
        hi = ends[i]
        c, k = cent[lo:hi], cnt[lo:hi]
        if not len(c):
            out_n.append(0)
            out_p50.append(None)
            out_p90.append(None)
            continue
        co = np.argsort(c, kind="stable")
        c, k = c[co], k[co]
        uniq, first = np.unique(c, return_index=True)
        kk = np.add.reduceat(k, first)
        run = np.cumsum(kk)
        n = int(run[-1])
        out_n.append(n)
        out_p50.append(int(uniq[np.searchsorted(
            run, math.ceil(0.5 * n))]))
        out_p90.append(int(uniq[np.searchsorted(
            run, math.ceil(0.9 * n))]))
    return pa.table({"bucket_us": pa.array(full * _DAY_US, pa.int64()),
                     "n_window": pa.array(out_n, pa.int64()),
                     "p50_cents": pa.array(out_p50, pa.int64()),
                     "p90_cents": pa.array(out_p90, pa.int64())})


MOVING_PERCENTILES_SQL = f"""
WITH c AS (
  SELECT epoch_us(ts) // {_DAY_US} AS day,
         CAST(round(value * 100) AS BIGINT) AS cent
  FROM events),
span AS (SELECT min(day) AS lo, max(day) AS hi FROM c),
grid AS (
  SELECT CAST(unnest(range(lo, hi + 1)) AS BIGINT) AS day FROM span),
win AS (
  SELECT g.day AS day, c.cent
  FROM grid g JOIN c
    ON c.day BETWEEN g.day - {_MOVPCT_WINDOW - 1} AND g.day),
tot AS (SELECT day, count(*) AS n FROM win GROUP BY day),
cum AS (
  SELECT day, cent,
         sum(count(*)) OVER (PARTITION BY day ORDER BY cent) AS run
  FROM win GROUP BY day, cent),
pct AS (
  SELECT cum.day,
         CAST(min(CASE WHEN run >= CAST(ceil(0.5 * n) AS BIGINT)
                       THEN cent END) AS BIGINT) AS p50_cents,
         CAST(min(CASE WHEN run >= CAST(ceil(0.9 * n) AS BIGINT)
                       THEN cent END) AS BIGINT) AS p90_cents
  FROM cum JOIN tot USING (day)
  GROUP BY cum.day)
SELECT grid.day * {_DAY_US} AS bucket_us,
       CAST(coalesce(tot.n, 0) AS BIGINT) AS n_window,
       pct.p50_cents, pct.p90_cents
FROM grid
LEFT JOIN tot USING (day)
LEFT JOIN pct USING (day)
ORDER BY bucket_us
"""


# -------------------------------------------- ES agg family III --
# t_test / sibling bucket aggs / scripted_metric / change_point /
# variable_width_histogram / frequent_item_sets — same exact-integer
# exchange discipline: int64 partials cross the shuffle, the float
# finish (where one exists) applies ONCE on the driver with the
# oracle's identical IEEE expression tree.

_TTEST_A, _TTEST_B = "purchase", "click"


def t_test_events(sf_dir: str):
    """ES ``t_test`` aggregation (type ``welch``, ES 7.8+): unpaired
    Welch's t between the {_TTEST_A} and {_TTEST_B} populations over
    ``value``.  Distributed part = the extended_stats int64 partial
    exchange ((n, Σcents, Σcents²) per type, two rows total); the
    t statistic and Welch degrees-of-freedom are ONE float finish on
    those exact integers, with the oracle's identical tree (all-DOUBLE
    so no int64 S² overflow at any scale)."""
    from ray.data.aggregate import Sum

    keep = pa.array([_TTEST_A, _TTEST_B], pa.string())

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["event_type"], value_set=keep))
        cents = _cents_of(t["value"])
        g = (pa.table({"event_type": t["event_type"], "c": cents,
                       "sq": pc.multiply(cents, cents)})
             .group_by("event_type")
             .aggregate([("c", "count"), ("c", "sum"), ("sq", "sum")]))
        return g.rename_columns(["event_type", "n_p", "s_p", "sq_p"])

    agg = (_read(sf_dir, "events", ["event_type", "value"])
           .map_batches(partial, batch_format="pyarrow",
                        zero_copy_batch=True)
           .groupby("event_type")
           .aggregate(Sum("n_p", alias_name="n"),
                      Sum("s_p", alias_name="s"),
                      Sum("sq_p", alias_name="sq")))
    rows = {r["event_type"]: r for r in
            pa.concat_tables(list(agg.iter_batches(
                batch_format="pyarrow"))).to_pylist()}
    a = rows.get(_TTEST_A, {"n": None, "s": None, "sq": None})
    b = rows.get(_TTEST_B, {"n": None, "s": None, "sq": None})

    # DuckDB NULL mirror: x/0 and NULL-op-anything are NULL, and
    # greatest(NULL, 0) is 0 — so degenerate inputs (missing type,
    # n==1, zero pooled variance) produce the oracle's exact NULLs
    # instead of a driver crash
    def div(x, y):
        return None if (x is None or y is None or y == 0) else x / y

    def var_of(r, m):
        raw = (None if (r["sq"] is None or r["s"] is None or m is None)
               else div(r["sq"] - r["s"] * m, r["n"] - 1))
        return 0.0 if raw is None else max(raw, 0.0)

    m1, m2 = div(a["s"], a["n"]), div(b["s"], b["n"])
    v1, v2 = var_of(a, m1), var_of(b, m2)
    se1, se2 = div(v1, a["n"]), div(v2, b["n"])
    if se1 is None or se2 is None or m1 is None or m2 is None:
        t_stat = None
    else:
        t_stat = div(m1 - m2, math.sqrt(se1 + se2))
    num = None if (se1 is None or se2 is None) \
        else (se1 + se2) * (se1 + se2)
    d1 = None if se1 is None else div(se1 * se1, a["n"] - 1)
    d2 = None if se2 is None else div(se2 * se2, b["n"] - 1)
    den = None if (d1 is None or d2 is None) else d1 + d2
    df = div(num, den)
    out: dict[str, object] = {
        "n_a": a["n"], "n_b": b["n"],
        "sum_a_cents": a["s"], "sum_b_cents": b["s"],
        "mean_a_cents": m1, "mean_b_cents": m2,
        "var_a_cents": v1, "var_b_cents": v2,
        "t_stat": t_stat, "welch_df": df}
    ints = {"n_a", "n_b", "sum_a_cents", "sum_b_cents"}
    return pa.table({k: pa.array([v], pa.int64() if k in ints
                                 else pa.float64())
                     for k, v in out.items()})


T_TEST_SQL = f"""
WITH c AS (
  SELECT event_type, CAST(round(value * 100) AS BIGINT) AS cent
  FROM events
  WHERE event_type IN ('{_TTEST_A}', '{_TTEST_B}')),
agg AS (
  SELECT event_type, count(*) AS n,
         CAST(sum(cent) AS BIGINT) AS s,
         CAST(sum(cent * cent) AS BIGINT) AS sq
  FROM c GROUP BY event_type),
f AS (
  SELECT
    max(CASE WHEN event_type = '{_TTEST_A}' THEN n END) AS n_a,
    max(CASE WHEN event_type = '{_TTEST_B}' THEN n END) AS n_b,
    max(CASE WHEN event_type = '{_TTEST_A}' THEN s END) AS s_a,
    max(CASE WHEN event_type = '{_TTEST_B}' THEN s END) AS s_b,
    max(CASE WHEN event_type = '{_TTEST_A}' THEN sq END) AS sq_a,
    max(CASE WHEN event_type = '{_TTEST_B}' THEN sq END) AS sq_b
  FROM agg),
m AS (
  SELECT *, CAST(s_a AS DOUBLE) / n_a AS m1,
            CAST(s_b AS DOUBLE) / n_b AS m2
  FROM f),
v AS (
  SELECT *,
    greatest((CAST(sq_a AS DOUBLE) - CAST(s_a AS DOUBLE) * m1)
             / (n_a - 1), 0) AS v1,
    greatest((CAST(sq_b AS DOUBLE) - CAST(s_b AS DOUBLE) * m2)
             / (n_b - 1), 0) AS v2
  FROM m),
se AS (SELECT *, v1 / n_a AS se1, v2 / n_b AS se2 FROM v)
SELECT n_a, n_b, s_a AS sum_a_cents, s_b AS sum_b_cents,
       m1 AS mean_a_cents, m2 AS mean_b_cents,
       v1 AS var_a_cents, v2 AS var_b_cents,
       (m1 - m2) / sqrt(se1 + se2) AS t_stat,
       ((se1 + se2) * (se1 + se2))
         / (se1 * se1 / (n_a - 1) + se2 * se2 / (n_b - 1)) AS welch_df
FROM se
"""


def _daily_counts(sf_dir: str):
    """Day-sorted (day, count) arrays off the shared distributed
    gap-filled date_histogram — the O(days) driver table every
    histogram-parented pipeline agg starts from."""
    hist = pa.concat_tables(list(date_histogram_events(sf_dir)
                                 .iter_batches(batch_format="pyarrow")))
    d = hist["day_bucket"].to_numpy(zero_copy_only=False)
    n = hist["n_events"].to_numpy(zero_copy_only=False)
    order = np.argsort(d)
    return d[order], n[order]


# the matching oracle prologue: gap-filled daily counts (shared by
# STATS_BUCKET_SQL / CHANGE_POINT_SQL; same CTE shape as DERIVATIVE_SQL)
_DAILY_HIST_CTES = """
WITH b AS (
  SELECT CAST(floor(epoch_us(ts) / 86400000000.0) AS BIGINT) AS d
  FROM events),
agg AS (SELECT d, count(*) AS n FROM b GROUP BY d),
days AS (SELECT unnest(generate_series((SELECT min(d) FROM agg),
                                       (SELECT max(d) FROM agg))) AS d),
hist AS (SELECT days.d, CAST(coalesce(agg.n, 0) AS BIGINT) AS n
         FROM days LEFT JOIN agg ON agg.d = days.d)"""


def stats_bucket_events(sf_dir: str):
    """ES sibling pipeline aggregations over the gap-filled daily
    date_histogram — ``stats_bucket`` (count/min/max/sum/avg of the
    per-day event counts) + ``percentiles_bucket`` p50 (the repo's
    exact smallest-value-reaching-ceil order statistic) + the
    ``min_bucket``/``max_bucket`` keys (first day attaining each
    extreme).  Driver work is O(days) on the already-reduced bucket
    table; the events-sized work is the shared date_histogram."""
    d, n = _daily_counts(sf_dir)
    nb = len(n)
    srt = np.sort(n)
    p50 = int(srt[math.ceil(0.5 * nb) - 1])
    return pa.table({
        "n_buckets": pa.array([nb], pa.int64()),
        "min_n": pa.array([int(n.min())], pa.int64()),
        "max_n": pa.array([int(n.max())], pa.int64()),
        "sum_n": pa.array([int(n.sum())], pa.int64()),
        "avg_n": pa.array([float(int(n.sum()) / nb)], pa.float64()),
        "p50_n": pa.array([p50], pa.int64()),
        "min_day": pa.array([int(d[np.argmin(n)])], pa.int64()),
        "max_day": pa.array([int(d[np.argmax(n)])], pa.int64())})


STATS_BUCKET_SQL = f"""
{_DAILY_HIST_CTES},
run AS (SELECT n, sum(count(*)) OVER (ORDER BY n) AS r
        FROM hist GROUP BY n),
tot AS (SELECT count(*) AS nb, min(n) AS min_n, max(n) AS max_n,
               CAST(sum(n) AS BIGINT) AS sum_n
        FROM hist)
SELECT tot.nb AS n_buckets, tot.min_n, tot.max_n, tot.sum_n,
       CAST(tot.sum_n AS DOUBLE) / tot.nb AS avg_n,
       (SELECT CAST(min(CASE WHEN r >= CAST(ceil(0.5 * tot.nb)
                                        AS BIGINT)
                             THEN n END) AS BIGINT)
        FROM run) AS p50_n,
       (SELECT min(d) FROM hist WHERE n = tot.min_n) AS min_day,
       (SELECT min(d) FROM hist WHERE n = tot.max_n) AS max_day
FROM tot
"""


_SCRIPTED_CAP = 50.0


def scripted_metric_events(sf_dir: str):
    """ES ``scripted_metric`` aggregation, the map/combine/reduce
    shape expressed through the engine's scalar-function DSL
    (mee_ray.functions, the reference's common.py:32-127 mini
    language): map_script = ``min(value, echo({cap}))`` compiled ONCE
    per actor, combine = per-batch int64 (count, Σcents) partials,
    reduce = the global groupby sum.  Raw values never cross the
    exchange — exactly ES's state→combine→reduce contract, with the
    repo's exact-cents discipline instead of float accumulation."""
    from ray.data.aggregate import Sum
    from mee_ray.functions import compile_expr

    expr = compile_expr(f"min(value, echo({_SCRIPTED_CAP}))")

    def partial(t: pa.Table) -> pa.Table:
        capped = expr(t)
        g = (pa.table({"event_type": t["event_type"],
                       "c": _cents_of(capped)})
             .group_by("event_type")
             .aggregate([("c", "count"), ("c", "sum")]))
        return g.rename_columns(["event_type", "n_p", "s_p"])

    agg = (_read(sf_dir, "events", ["event_type", "value"])
           .map_batches(partial, batch_format="pyarrow",
                        zero_copy_batch=True)
           .groupby("event_type")
           .aggregate(Sum("n_p", alias_name="n"),
                      Sum("s_p", alias_name="sum_capped_cents")))
    t = pa.concat_tables(list(agg.iter_batches(
        batch_format="pyarrow"))).sort_by("event_type")
    n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
    s = t["sum_capped_cents"].to_numpy(zero_copy_only=False
                                       ).astype(np.float64)
    return t.append_column("avg_capped_cents",
                           pa.array(s / n, pa.float64()))


SCRIPTED_METRIC_SQL = f"""
WITH c AS (
  SELECT event_type,
         CAST(round(least(value, {_SCRIPTED_CAP}) * 100) AS BIGINT)
           AS cent
  FROM events)
SELECT event_type, count(*) AS n,
       CAST(sum(cent) AS BIGINT) AS sum_capped_cents,
       CAST(sum(cent) AS DOUBLE) / count(*) AS avg_capped_cents
FROM c GROUP BY event_type ORDER BY event_type
"""


def change_point_events(sf_dir: str):
    """ES ``change_point`` aggregation over the gap-filled daily
    event-count series — EXACT deterministic variant (ES's is a
    p-value heuristic): the change day maximizes the between-segment
    variance B(k) = (S₁n₂ − S₂n₁)²/(n₁n₂D), quantized to the integer
    score ⌊(S₁n₂ − S₂n₁)²·10⁶ / (n₁n₂D)⌋ so both engines compare
    exact integers (Python bigints here, HUGEINT in the oracle —
    the square exceeds int64 at scale).  Ties break on the earlier
    day.  Driver work is O(days) over the reduced bucket table."""
    d, n = _daily_counts(sf_dir)
    total = int(n.sum())
    nb = len(n)
    cols = ["change_day", "score", "n_before", "n_after",
            "sum_before", "sum_after"]
    if nb < 2:                      # no valid split — oracle emits 0 rows
        return pa.table({c: pa.array([], pa.int64()) for c in cols})
    best = None                     # (score, day, n1, n2, s1, s2)
    s1 = 0
    for k in range(1, nb):          # split BEFORE index k; both non-empty
        s1 += int(n[k - 1])
        n1, n2 = k, nb - k
        s2 = total - s1
        a = s1 * n2 - s2 * n1
        score = (a * a * 10**6) // (n1 * n2 * nb)
        key = (-score, int(d[k]))
        if best is None or key < best[0]:
            best = (key, int(d[k]), score, n1, n2, s1, s2)
    _, day, score, n1, n2, sa, sb = best
    return pa.table({"change_day": pa.array([day], pa.int64()),
                     "score": pa.array([score], pa.int64()),
                     "n_before": pa.array([n1], pa.int64()),
                     "n_after": pa.array([n2], pa.int64()),
                     "sum_before": pa.array([sa], pa.int64()),
                     "sum_after": pa.array([sb], pa.int64())})


CHANGE_POINT_SQL = f"""
{_DAILY_HIST_CTES},
cum AS (
  SELECT d,
         CAST(row_number() OVER (ORDER BY d) AS BIGINT) - 1 AS n1,
         CAST(coalesce(sum(n) OVER (ORDER BY d
                  ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
              0) AS BIGINT) AS s1,
         CAST(count(*) OVER () AS BIGINT) AS nb,
         CAST(sum(n) OVER () AS BIGINT) AS total
  FROM hist),
scored AS (
  SELECT d, n1, nb - n1 AS n2, s1, total - s1 AS s2,
         CAST(((CAST(s1 AS HUGEINT) * (nb - n1)
                - CAST(total - s1 AS HUGEINT) * n1)
               * (CAST(s1 AS HUGEINT) * (nb - n1)
                  - CAST(total - s1 AS HUGEINT) * n1)
               * 1000000)
              // (CAST(n1 AS HUGEINT) * (nb - n1) * nb)
              AS BIGINT) AS score
  FROM cum WHERE n1 >= 1)
SELECT d AS change_day, score, n1 AS n_before, n2 AS n_after,
       s1 AS sum_before, s2 AS sum_after
FROM scored ORDER BY score DESC, change_day LIMIT 1
"""


_VWH_BUCKETS = 5


def variable_width_histogram_events(sf_dir: str,
                                    buckets: int = _VWH_BUCKETS):
    """ES ``variable_width_histogram`` — deterministic exact variant
    (ES's is an order-dependent streaming clusterer): bucket
    boundaries sit at the {buckets}−1 LARGEST gaps between consecutive
    distinct cents (ties → the lower cent wins), yielding the same
    natural-break clustering the ES agg approximates.  The only
    shuffle carries the distinct-cent histogram (bounded); min/max/
    count/centroid per bucket all derive from that table on the
    driver."""
    from ray.data.aggregate import Sum

    def cent_counts(t: pa.Table) -> pa.Table:
        g = (pa.table({"cent": _cents_of(t["value"])})
             .group_by("cent").aggregate([([], "count_all")]))
        return g.rename_columns(["cent", "n_part"])

    hist = (_read(sf_dir, "events", ["value"])
            .map_batches(cent_counts, batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby("cent").aggregate(Sum("n_part", alias_name="cnt")))
    t = pa.concat_tables(list(hist.iter_batches(
        batch_format="pyarrow"))).sort_by("cent")
    c = t["cent"].to_numpy(zero_copy_only=False)
    k = t["cnt"].to_numpy(zero_copy_only=False)
    gaps = c[1:] - c[:-1]           # gap i belongs to upper cent c[i+1]
    nb = min(buckets - 1, len(gaps))
    # top nb gaps, ties to the LOWER upper-cent: sort by (-gap, cent)
    top = np.lexsort((c[1:], -gaps))[:nb]
    bnd = np.sort(c[1:][top])
    bucket = np.searchsorted(bnd, c, side="right")
    g = (pa.table({"bucket": pa.array(bucket, pa.int64()),
                   "cent": pa.array(c, pa.int64()),
                   "cnt": pa.array(k, pa.int64()),
                   "wsum": pa.array(c * k, pa.int64())})
         .group_by("bucket")
         .aggregate([("cent", "min"), ("cent", "max"),
                     ("cnt", "sum"), ("wsum", "sum")])
         .rename_columns(["bucket", "min_cents", "max_cents",
                          "n_events", "wsum"])
         .sort_by("bucket"))
    n = g["n_events"].to_numpy(zero_copy_only=False).astype(np.float64)
    w = g["wsum"].to_numpy(zero_copy_only=False).astype(np.float64)
    return (g.drop_columns(["wsum"])
            .append_column("centroid_cents",
                           pa.array(w / n, pa.float64())))


VARIABLE_WIDTH_HISTOGRAM_SQL = f"""
WITH c AS (
  SELECT CAST(round(value * 100) AS BIGINT) AS cent FROM events),
dist AS (SELECT cent, count(*) AS cnt FROM c GROUP BY cent),
gaps AS (
  SELECT cent, cent - lag(cent) OVER (ORDER BY cent) AS g
  FROM dist),
bnd AS (
  SELECT cent FROM gaps WHERE g IS NOT NULL
  QUALIFY row_number() OVER (ORDER BY g DESC, cent)
          <= {_VWH_BUCKETS - 1}),
tagged AS (
  SELECT d.cent, d.cnt,
         (SELECT count(*) FROM bnd WHERE bnd.cent <= d.cent) AS bucket
  FROM dist d)
SELECT CAST(bucket AS BIGINT) AS bucket,
       min(cent) AS min_cents, max(cent) AS max_cents,
       CAST(sum(cnt) AS BIGINT) AS n_events,
       CAST(sum(cent * cnt) AS DOUBLE) / sum(cnt) AS centroid_cents
FROM tagged GROUP BY bucket ORDER BY bucket
"""


_FIS_MIN_SUPPORT_RATIO = 0.5


def frequent_item_sets_events(sf_dir: str):
    """ES ``frequent_item_sets`` aggregation (8.x) over the per-user
    event_type baskets, pair-size itemsets: support(a,b) = number of
    users whose basket holds both, kept when ≥ ceil(ratio·|users|).
    Distributed shape: distinct (user, type) groupby → per-user
    bitmask over the (bounded, globally discovered) item vocabulary →
    per-batch vectorized pair counts (T·(T−1)/2 int64 counters) →
    one tiny groupby.  No per-user Python, no basket ever leaves its
    batch."""
    from ray.data.aggregate import Sum

    # bounded item vocabulary, discovered with a key-only groupby
    vocab = sorted(r["event_type"] for r in
                   _read(sf_dir, "events", ["event_type"])
                   .groupby("event_type").count().take_all())
    if len(vocab) > 63:
        # wide-vocabulary path: the int64 bitmask runs out of lanes,
        # so fall back to per-user pair explosion (still bucketed +
        # vectorized — see _fis_pair_explosion)
        return _fis_pair_explosion(sf_dir, vocab)
    idx = {v: i for i, v in enumerate(vocab)}
    T = len(vocab)
    pairs = [(i, j) for i in range(T) for j in range(i + 1, T)]

    def to_bit(t: pa.Table) -> pa.Table:
        # distinct (user, type) within the batch, type → bit value
        g = (pa.table({"user_id": t["user_id"],
                       "event_type": t["event_type"]})
             .group_by(["user_id", "event_type"])
             .aggregate([([], "count_all")]))
        bits = np.array([1 << idx[v] for v in
                         g["event_type"].to_pylist()], dtype=np.int64)
        return pa.table({"user_id": g["user_id"],
                         "bit": pa.array(bits, pa.int64())})

    # distinct (user, bit) globally, then OR = Sum over distinct bits
    masks = (_read(sf_dir, "events", ["user_id", "event_type"])
             .map_batches(to_bit, batch_format="pyarrow",
                          zero_copy_batch=True)
             .groupby(["user_id", "bit"])
             .aggregate(Sum("bit", alias_name="_drop"))
             .drop_columns(["_drop"])
             .groupby("user_id")
             .aggregate(Sum("bit", alias_name="mask"))
             .materialize())        # consumed twice: pair counts + count

    def pair_counts(t: pa.Table) -> pa.Table:
        m = t["mask"].to_numpy(zero_copy_only=False)
        cnts = [int(((m >> i) & (m >> j) & 1).sum()) for i, j in pairs]
        return pa.table({"pair": pa.array(range(len(pairs)), pa.int64()),
                         "n_part": pa.array(cnts, pa.int64())})

    agg = (masks.map_batches(pair_counts, batch_format="pyarrow")
           .groupby("pair").aggregate(Sum("n_part", alias_name="support")))
    t = pa.concat_tables(list(agg.iter_batches(batch_format="pyarrow")))
    n_users = int(masks.count())
    thresh = math.ceil(_FIS_MIN_SUPPORT_RATIO * n_users)
    p = t["pair"].to_numpy(zero_copy_only=False)
    s = t["support"].to_numpy(zero_copy_only=False)
    keep = s >= thresh
    p, s = p[keep], s[keep]
    order = np.lexsort((p, -s))
    p, s = p[order], s[order]
    return pa.table({
        "item_a": pa.array([vocab[pairs[int(i)][0]] for i in p],
                           pa.string()),
        "item_b": pa.array([vocab[pairs[int(i)][1]] for i in p],
                           pa.string()),
        "support": pa.array(s, pa.int64())})


def _fis_pair_explosion(sf_dir: str, vocab: list[str]) -> pa.Table:
    """frequent_item_sets for vocabularies wider than the 63 int64
    bitmask lanes: per-user distinct-item baskets explode to (a, b)
    item-index pairs INSIDE user-bucketed groups (many users per
    group, fully vectorized segment combinatorics — no per-user
    Python), pair partials combine per group, and one tiny
    groupby(a, b) finalizes support.  Exchange volume is bounded by
    Σ|basket|² over users, never by the vocabulary size.  Same output
    contract (item_a < item_b, support ≥ ceil(ratio·|users|), support
    DESC order) as the bitmask path — asserted equal on a crafted
    >63-item fixture in test_agg_edge_cases.py."""
    from ray.data.aggregate import Sum

    from mee_ray.pipelines.gramhash import mix64

    vocab_arr = pa.array(vocab, pa.string())
    _N_UB = 64

    def to_items(t: pa.Table) -> pa.Table:
        g = (pa.table({"user_id": t["user_id"],
                       "event_type": t["event_type"]})
             .group_by(["user_id", "event_type"])
             .aggregate([([], "count_all")]))
        item = pc.index_in(g["event_type"],
                           value_set=vocab_arr).cast(pa.int64())
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        bucket = (mix64(uid) % np.uint64(_N_UB)).astype(np.int32)
        return pa.table({"bucket": pa.array(bucket),
                         "user_id": pa.array(uid, pa.int64()),
                         "item": item})

    def pairs_of_group(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        it = g["item"].to_numpy(zero_copy_only=False)
        # global distinct (user, item): batch-level combiners can
        # re-emit the same pair from different batches
        order = np.lexsort((it, uid))
        uid, it = uid[order], it[order]
        keep = np.ones(len(uid), dtype=bool)
        keep[1:] = (uid[1:] != uid[:-1]) | (it[1:] != it[:-1])
        uid, it = uid[keep], it[keep]
        n = len(uid)
        if n == 0:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64()),
                             "n_part": pa.array([], pa.int64())})
        starts = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
        sizes = np.diff(np.r_[starts, n])
        # all i<j pairs within each user segment, vectorized: row k is
        # the FIRST element of (size - loc - 1) pairs
        loc = np.arange(n) - np.repeat(starts, sizes)
        first_cnt = np.repeat(sizes, sizes) - loc - 1
        P = int(first_cnt.sum())
        A = np.repeat(np.arange(n), first_cnt)
        csum = np.cumsum(first_cnt) - first_cnt
        B = A + (np.arange(P) - np.repeat(csum, first_cnt)) + 1
        t = (pa.table({"a": pa.array(it[A], pa.int64()),
                       "b": pa.array(it[B], pa.int64())})
             .group_by(["a", "b"]).aggregate([([], "count_all")]))
        return t.rename_columns(["a", "b", "n_part"])

    # ONE events read: the per-batch-distinct item stream is
    # materialized (bounded: distinct (user, item) partials) and feeds
    # BOTH the pair aggregation and the distinct-user count — every
    # user with an event appears in it (review finding r4#5; the
    # bitmask path reuses its masks table the same way)
    items = (_read(sf_dir, "events", ["user_id", "event_type"])
             .map_batches(to_items, batch_format="pyarrow",
                          zero_copy_batch=True)
             .materialize())
    agg = (items.groupby("bucket")
           .map_groups(pairs_of_group, batch_format="pyarrow")
           .groupby(["a", "b"])
           .aggregate(Sum("n_part", alias_name="support")))
    parts = list(agg.iter_batches(batch_format="pyarrow"))
    t = pa.concat_tables(parts) if parts else pa.table(
        {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
         "support": pa.array([], pa.int64())})
    n_users = int(items.groupby("user_id").count().count())
    thresh = math.ceil(_FIS_MIN_SUPPORT_RATIO * n_users)
    a = t["a"].to_numpy(zero_copy_only=False)
    b = t["b"].to_numpy(zero_copy_only=False)
    s = t["support"].to_numpy(zero_copy_only=False)
    keep = s >= thresh
    a, b, s = a[keep], b[keep], s[keep]
    order = np.lexsort((b, a, -s))
    a, b, s = a[order], b[order], s[order]
    return pa.table({
        "item_a": pa.array([vocab[int(i)] for i in a], pa.string()),
        "item_b": pa.array([vocab[int(i)] for i in b], pa.string()),
        "support": pa.array(s, pa.int64())})


FREQUENT_ITEM_SETS_SQL = f"""
WITH d AS (SELECT DISTINCT user_id, event_type FROM events),
u AS (SELECT count(DISTINCT user_id) AS n_users FROM events)
SELECT a.event_type AS item_a, b.event_type AS item_b,
       count(*) AS support
FROM d a JOIN d b ON a.user_id = b.user_id
                 AND a.event_type < b.event_type
GROUP BY 1, 2
HAVING count(*) >= (SELECT CAST(ceil({_FIS_MIN_SUPPORT_RATIO} * n_users)
                                AS BIGINT) FROM u)
ORDER BY support DESC, item_a, item_b
"""


_SAMPLER_MULT = 2654435761          # Knuth multiplicative hash
_SAMPLER_MOD = 1000
_SAMPLER_RATE_PML = 100             # ES probability: 0.1


def random_sampler_events(sf_dir: str):
    """ES ``random_sampler`` aggregation (8.2): a deterministic
    hash-based row sample ((event_id·KNUTH) mod {mod} < {rate}) feeds
    the child aggregation — per-type count + exact cents sum — and the
    ES-style scale-back estimate (×1/p, exact: rate divides the
    modulus).  The sample predicate is a vectorized mask inside
    map_batches; only sampled rows' int64 partials cross the
    exchange.  ids pre-reduce mod {mod} before the multiply —
    congruent (identical sample) and overflow-free at any id
    magnitude."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        ids = t["event_id"].to_numpy(zero_copy_only=False)
        keep = (((ids % _SAMPLER_MOD) * _SAMPLER_MULT)
                % _SAMPLER_MOD < _SAMPLER_RATE_PML)
        t = t.filter(pa.array(keep))
        g = (pa.table({"event_type": t["event_type"],
                       "c": _cents_of(t["value"])})
             .group_by("event_type")
             .aggregate([("c", "count"), ("c", "sum")]))
        return g.rename_columns(["event_type", "n_p", "s_p"])

    agg = (_read(sf_dir, "events", ["event_id", "event_type", "value"])
           .map_batches(partial, batch_format="pyarrow",
                        zero_copy_batch=True)
           .groupby("event_type")
           .aggregate(Sum("n_p", alias_name="n_sampled"),
                      Sum("s_p", alias_name="sum_sampled_cents")))
    t = pa.concat_tables(list(agg.iter_batches(
        batch_format="pyarrow"))).sort_by("event_type")
    scale = _SAMPLER_MOD // _SAMPLER_RATE_PML
    return t.append_column(
        "est_n", pc.multiply(t["n_sampled"], pa.scalar(scale, pa.int64())))


RANDOM_SAMPLER_SQL = f"""
WITH s AS (
  SELECT event_type, CAST(round(value * 100) AS BIGINT) AS cent
  FROM events
  WHERE ((event_id % {_SAMPLER_MOD}) * {_SAMPLER_MULT}) % {_SAMPLER_MOD}
        < {_SAMPLER_RATE_PML})
SELECT event_type, count(*) AS n_sampled,
       CAST(sum(cent) AS BIGINT) AS sum_sampled_cents,
       count(*) * {_SAMPLER_MOD // _SAMPLER_RATE_PML} AS est_n
FROM s GROUP BY event_type ORDER BY event_type
"""


QUERIES = {
    "q1_pricing_summary": q1_pricing_summary,
    "filter_project_revenue": filter_project_revenue,
    "join_revenue_by_nation": join_revenue_by_nation,
    "order_lineitem_rollup": order_lineitem_rollup,
    "agg_pushdown_counts": agg_pushdown_counts,
    "topk_orders": topk_orders,
    "distinct_priorities": distinct_priorities,
    "filter_ops_events": filter_ops_events,
    "json_extract_events": json_extract_events,
    "composite_agg_events": composite_agg_events,
    "q7_volume_shipping": q7_volume_shipping,
    "q8_market_share": q8_market_share,
    "derivative_events": derivative_events,
    "serial_diff_events": serial_diff_events,
    "bucket_script_events": bucket_script_events,
    "q21_waiting_suppliers": q21_waiting_suppliers,
    "percentile_ranks_events": percentile_ranks_events,
    "funnel_events": funnel_events,
    "retention_cohorts_events": retention_cohorts_events,
    "ks_test_events": ks_test_events,
    "q15_top_supplier": q15_top_supplier,
    "q17_small_quantity_revenue": q17_small_quantity_revenue,
    "scalar_funcs_lineitem": scalar_funcs_lineitem,
    "scalar_dsl_lineitem": scalar_dsl_lineitem,
    "latest_event_per_user": latest_event_per_user,
    "tumbling_window_events": tumbling_window_events,
    "session_windows_events": session_windows_events,
    "asof_join_purchase_click": asof_join_purchase_click,
    "event_type_routing": event_type_routing,
    "semi_join_events_customers": semi_join_events_customers,
    "anti_join_events_customers": anti_join_events_customers,
    "quantiles_events": quantiles_events,
    "extended_stats_events": extended_stats_events,
    "mad_events": mad_events,
    "top_metrics_events": top_metrics_events,
    "auto_date_histogram_events": auto_date_histogram_events,
    "topk_orders_per_customer": topk_orders_per_customer,
    "hopping_window_events": hopping_window_events,
    "range_join_orders_bands": range_join_orders_bands,
    "event_gaps_per_user": event_gaps_per_user,
    "shuffle_join_lineitem_orders": shuffle_join_lineitem_orders,
    "rollup_pricing_totals": rollup_pricing_totals,
    "date_histogram_events": date_histogram_events,
    "pivot_orders_status": pivot_orders_status,
    "running_total_orders": running_total_orders,
    "dense_rank_orders": dense_rank_orders,
    "distinct_users_per_event_type": distinct_users_per_event_type,
    "moving_window_events": moving_window_events,
    "salted_join_lineitem_orders": salted_join_lineitem_orders,
    "q3_shipping_priority": q3_shipping_priority,
    "q18_large_volume_customers": q18_large_volume_customers,
    "q4_order_priority": q4_order_priority,
    "q5_local_supplier_volume": q5_local_supplier_volume,
    "q6_forecast_revenue": q6_forecast_revenue,
    "q10_returned_items": q10_returned_items,
    "q14_promo_revenue": q14_promo_revenue,
    "q13_customer_distribution": q13_customer_distribution,
    "q19_discounted_revenue": q19_discounted_revenue,
    "q22_sales_opportunity": q22_sales_opportunity,
    "cube_pricing_totals": cube_pricing_totals,
    "ntile_orders": ntile_orders,
    "q2_min_cost_supplier": q2_min_cost_supplier,
    "q9_product_profit": q9_product_profit,
    "q11_important_parts": q11_important_parts,
    "q12_priority_classes": q12_priority_classes,
    "q16_supplier_part_cnt": q16_supplier_part_cnt,
    "q20_excess_suppliers": q20_excess_suppliers,
    "matrix_stats_lineitem": matrix_stats_lineitem,
    "weighted_avg_lineitem": weighted_avg_lineitem,
    "has_child_orders": has_child_orders,
    "has_parent_lineitems": has_parent_lineitems,
    "filters_agg_events": filters_agg_events,
    "multi_terms_events": multi_terms_events,
    "date_range_agg_events": date_range_agg_events,
    "ip_range_events": ip_range_events,
    "ip_prefix_events": ip_prefix_events,
    "missing_agg_events": missing_agg_events,
    "children_agg_orders": children_agg_orders,
    "parent_agg_lineitem": parent_agg_lineitem,
    "rate_agg_events": rate_agg_events,
    "cumulative_cardinality_events": cumulative_cardinality_events,
    "diversified_sample_documents": diversified_sample_documents,
    "string_stats_documents": string_stats_documents,
    "moving_percentiles_events": moving_percentiles_events,
    "t_test_events": t_test_events,
    "stats_bucket_events": stats_bucket_events,
    "scripted_metric_events": scripted_metric_events,
    "change_point_events": change_point_events,
    "variable_width_histogram_events": variable_width_histogram_events,
    "frequent_item_sets_events": frequent_item_sets_events,
    "random_sampler_events": random_sampler_events,
    "boxplot_events": boxplot_events,
    "histogram_events": histogram_events,
    "bucket_sort_events": bucket_sort_events,
    "normalize_events": normalize_events,
}

ORACLE = {
    "q1_pricing_summary": Q1_SQL,
    "filter_project_revenue": FILTER_PROJECT_SQL,
    "join_revenue_by_nation": JOIN_NATION_SQL,
    "order_lineitem_rollup": ROLLUP_SQL,
    "agg_pushdown_counts": AGG_PUSHDOWN_SQL,
    "topk_orders": TOPK_SQL,
    "distinct_priorities": DISTINCT_SQL,
    "filter_ops_events": FILTER_OPS_SQL,
    "json_extract_events": JSON_EXTRACT_SQL,
    "composite_agg_events": COMPOSITE_AGG_SQL,
    "q7_volume_shipping": Q7_SQL,
    "q8_market_share": Q8_SQL,
    "derivative_events": DERIVATIVE_SQL,
    "serial_diff_events": SERIAL_DIFF_SQL,
    "bucket_script_events": BUCKET_SCRIPT_SQL,
    "q21_waiting_suppliers": Q21_SQL,
    "percentile_ranks_events": PERCENTILE_RANKS_SQL,
    "funnel_events": FUNNEL_SQL,
    "retention_cohorts_events": RETENTION_SQL,
    "ks_test_events": KS_TEST_SQL,
    "q15_top_supplier": Q15_SQL,
    "q17_small_quantity_revenue": Q17_SQL,
    "scalar_funcs_lineitem": SCALAR_FUNCS_SQL,
    "scalar_dsl_lineitem": SCALAR_DSL_SQL,
    "latest_event_per_user": LATEST_SQL,
    "tumbling_window_events": TUMBLING_SQL,
    "session_windows_events": SESSION_SQL,
    "asof_join_purchase_click": ASOF_SQL,
    "event_type_routing": ROUTING_SQL,
    "semi_join_events_customers": SEMI_SQL,
    "anti_join_events_customers": ANTI_SQL,
    "quantiles_events": QUANTILES_SQL,
    "extended_stats_events": EXTENDED_STATS_SQL,
    "mad_events": MAD_SQL,
    "top_metrics_events": TOP_METRICS_SQL,
    "auto_date_histogram_events": AUTO_DATE_HISTOGRAM_SQL,
    "topk_orders_per_customer": TOPK_PER_CUST_SQL,
    "hopping_window_events": HOPPING_SQL,
    "range_join_orders_bands": RANGE_JOIN_SQL,
    "event_gaps_per_user": LAG_SQL,
    "shuffle_join_lineitem_orders": SHUFFLE_JOIN_SQL,
    "rollup_pricing_totals": ROLLUP_TOTALS_SQL,
    "date_histogram_events": DATE_HISTOGRAM_SQL,
    "pivot_orders_status": _pivot_sql(),
    "running_total_orders": RUNNING_TOTAL_SQL,
    "dense_rank_orders": DENSE_RANK_SQL,
    "distinct_users_per_event_type": DISTINCT_USERS_SQL,
    "moving_window_events": MOVING_WINDOW_SQL,
    # identical result contract to the unsalted plan — the salt must
    # be invisible in the output
    "salted_join_lineitem_orders": SHUFFLE_JOIN_SQL,
    "q3_shipping_priority": Q3_SQL,
    "q18_large_volume_customers": Q18_SQL,
    "q4_order_priority": Q4_SQL,
    "q5_local_supplier_volume": Q5_SQL,
    "q6_forecast_revenue": Q6_SQL,
    "q10_returned_items": Q10_SQL,
    "q14_promo_revenue": Q14_SQL,
    "q13_customer_distribution": Q13_SQL,
    "q19_discounted_revenue": Q19_SQL,
    "q22_sales_opportunity": Q22_SQL,
    "cube_pricing_totals": CUBE_TOTALS_SQL,
    "ntile_orders": NTILE_SQL,
    "q2_min_cost_supplier": Q2_SQL,
    "q9_product_profit": Q9_SQL,
    "q11_important_parts": Q11_SQL,
    "q12_priority_classes": Q12_SQL,
    "q16_supplier_part_cnt": Q16_SQL,
    "q20_excess_suppliers": Q20_SQL,
    "matrix_stats_lineitem": MATRIX_STATS_SQL,
    "weighted_avg_lineitem": WEIGHTED_AVG_SQL,
    "has_child_orders": HAS_CHILD_SQL,
    "has_parent_lineitems": HAS_PARENT_SQL,
    "filters_agg_events": FILTERS_AGG_SQL,
    "multi_terms_events": MULTI_TERMS_SQL,
    "date_range_agg_events": DATE_RANGE_AGG_SQL,
    "ip_range_events": IP_RANGE_SQL,
    "ip_prefix_events": IP_PREFIX_SQL,
    "missing_agg_events": MISSING_AGG_SQL,
    "children_agg_orders": CHILDREN_AGG_SQL,
    "parent_agg_lineitem": PARENT_AGG_SQL,
    "rate_agg_events": RATE_AGG_SQL,
    "cumulative_cardinality_events": CUMULATIVE_CARDINALITY_SQL,
    "diversified_sample_documents": DIVERSIFIED_SAMPLE_SQL,
    "string_stats_documents": STRING_STATS_SQL,
    "moving_percentiles_events": MOVING_PERCENTILES_SQL,
    "t_test_events": T_TEST_SQL,
    "stats_bucket_events": STATS_BUCKET_SQL,
    "scripted_metric_events": SCRIPTED_METRIC_SQL,
    "change_point_events": CHANGE_POINT_SQL,
    "variable_width_histogram_events": VARIABLE_WIDTH_HISTOGRAM_SQL,
    "frequent_item_sets_events": FREQUENT_ITEM_SETS_SQL,
    "random_sampler_events": RANDOM_SAMPLER_SQL,
    "boxplot_events": BOXPLOT_SQL,
    "histogram_events": HISTOGRAM_SQL,
    "bucket_sort_events": BUCKET_SORT_SQL,
    "normalize_events": NORMALIZE_SQL,
}
