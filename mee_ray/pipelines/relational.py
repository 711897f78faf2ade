"""Relational operator pipelines over the driver's TPC-H-ish tables.

Each function is one operator capability from SURVEY.md §2, expressed
Ray-Data-first (pruned reads, vectorized pyarrow batch kernels,
partial aggregation before the shuffle, broadcast joins for small
sides).  The matching DuckDB oracle SQL lives in ``ORACLE`` with
IDENTICAL column names and expression trees; float *aggregates* are
rounded on both sides (sum order differs across engines), while
per-row float arithmetic is left unrounded (bit-deterministic when the
expression tree matches).

Adding a query: state only its predicate, keys and finish, and take
every mechanic from the helpers below —
  ``_read`` / ``_dim`` (pruned Ray / driver reads), ``_map`` (one
  pyarrow batch function), ``_cents_of`` / ``_int_scaled`` (SQL
  ``CAST(round(x * 100) AS BIGINT)``, oracle side ``_cents_sql``),
  ``_fold`` (per-batch combiner + one Ray groupby), ``stages.collect``
  (the driver collect, typed and answered on empty input),
  ``_sorted_map`` + ``positions_in_sorted`` (broadcast dimension
  probes), ``_by_bucket`` (the per-key window shuffle),
  ``_cent_hist`` / ``_order_stat`` (exact quantiles) and
  ``stages.hash_join`` (the one large×large join);
then add the name to ``QUERIES`` and ``ORACLE``, and to
``tests/test_pipelines.py::SQL_CHECKED``.  ``tests/test_empty_inputs.py``
runs every name on zero-row tables against its oracle.

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

from mee_ray.ids import positions_in_sorted
from mee_ray.stages import collect, hash_join
from mee_ray.stages import schema as _schema
from mee_ray.stages import table as _table

_N_BUCKETS = 64      # shuffle groups of every per-key window operator
_DAY_US = 86_400_000_000
_WEEK_US = 7 * _DAY_US


def _read(sf_dir: str, table: str, columns=None):
    import ray.data
    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def _dim(sf_dir: str, table: str, columns: str) -> pa.Table:
    """A dimension table read whole on the driver (small by design)."""
    import pyarrow.parquet as pq
    return pq.read_table(f"{sf_dir}/{table}.parquet", columns=columns.split())


def _np(col) -> np.ndarray:
    return col if isinstance(col, np.ndarray) else \
        col.to_numpy(zero_copy_only=False)


def _ones(n: int) -> pa.Array:
    return pa.array(np.ones(n, np.int64))


def _map(ds, fn):
    """``fn`` over every batch of ``ds`` as a pyarrow table."""
    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def _cents_of(col, scale: float = 100.0):
    """SQL ``CAST(round(col * scale) AS BIGINT)`` exactly — the module's
    one rounding contract.  pc.round(half_towards_infinity) IS SQL
    round()'s half away from zero; floor(x + 0.5) is not (a double one
    ulp below a .5 boundary has x + 0.5 round UP to it in FP), nor is
    pyarrow's default half-to-even.  Money sums run over these per-row
    integers, so no partial/shuffle merge order can move a total across
    a rounding boundary.  The options object is built per call (it does
    not pickle into Ray Data transform fns)."""
    return pc.cast(pc.round(pc.multiply(col, pa.scalar(float(scale))),
                            options=pc.RoundOptions(
                                round_mode="half_towards_infinity")),
                   pa.int64())


def _int_scaled(t: pa.Table, cols: dict[str, float]) -> pa.Table:
    """Replace float aggregate columns by BIGINT fixed-point values
    (``_cents_of(x, scale)``).  Float aggregates differ across engines
    by summation order (ULPs), and even `round(x, 2)` can yield doubles
    differing by 1 ULP between pyarrow and DuckDB for the same decimal
    — integers make the driver's value-hash stable."""
    for name, scale in cols.items():
        t = t.set_column(t.schema.get_field_index(name), name,
                         _cents_of(t[name], scale))
    return t


def _revenue(t: pa.Table):
    """``l_extendedprice * (1 - l_discount)`` per row."""
    return pc.multiply(t["l_extendedprice"],
                       pc.subtract(pa.scalar(1.0), t["l_discount"]))


def _cents_sql(expr: str) -> str:
    """The oracle mirror of ``_cents_of``."""
    return f"CAST(round({expr} * 100) AS BIGINT)"


_VALUE_CENTS = _cents_sql("value")
_PRICE_CENTS = _cents_sql("l_extendedprice")
_REV_CENTS = _cents_sql("l_extendedprice * (1 - l_discount)")


def _fold(ds, partial, keys: str, aggs: str):
    """The grouped partial-aggregate fold.  ``partial(batch)`` returns
    the ``keys`` columns and one per-row value column per ``aggs``
    entry (``name``: sum, ``name:min``, ``name:max``); each batch is
    pre-aggregated per key with pyarrow, so one row per key per batch
    crosses the exchange, and one Ray groupby(keys) folds the partials
    into the lazy Dataset ``keys + aggs``.  With no keys it is the
    global fold: a dict name → value (None when no row contributed,
    SQL's NULL)."""
    from ray.data.aggregate import Max, Min, Sum
    ks = keys.split()
    ops = [(n, op or "sum") for n, _, op in
           (a.partition(":") for a in aggs.split())]

    def combine(t: pa.Table) -> pa.Table:
        return (partial(t).group_by(ks).aggregate(ops)
                .rename_columns(ks + [n for n, _ in ops]))

    folds = [{"sum": Sum, "min": Min, "max": Max}[op](n, alias_name=n)
             for n, op in ops]
    parts = _map(ds, combine)
    return parts.groupby(ks).aggregate(*folds) if ks else \
        parts.aggregate(*folds)


def _sorted_map(keys, *values) -> tuple[np.ndarray, ...]:
    """A broadcast dimension map: the int64 ``keys`` sorted, each value
    column aligned.  Probe it with ``_probe``: a dangling key must drop
    its row (inner join), never take the nearest key's values."""
    k = _np(keys).astype(np.int64)
    order = np.argsort(k, kind="stable")
    return (k[order],) + tuple(_np(v)[order] for v in values)


def _probe(smap: tuple, ids: np.ndarray) -> tuple[np.ndarray, ...]:
    """(hit mask, each value column at ``ids``) of a ``_sorted_map``;
    a missed id carries an arbitrary value that the caller drops."""
    keys, *values = smap
    pos, hit = positions_in_sorted(ids, keys)
    if not len(keys):
        return (hit, *(np.zeros(len(ids), v.dtype) for v in values))
    return (hit, *(v[pos] for v in values))


def _has_rows(sf_dir: str, tables: str) -> bool:
    """Whether every named input table has rows (parquet metadata)."""
    import pyarrow.parquet as pq
    return all(pq.ParquetFile(f"{sf_dir}/{t}.parquet").metadata.num_rows
               for t in tables.split())


def _join(sf_dir: str, tables: str, left, right, on: str, right_on: str):
    """``stages.hash_join`` of two sides read from ``tables``.  Ray's
    hash join fails when a side has no rows at all (its aggregator
    builds a partition without columns), so on an empty input table
    the answer is the empty inner join: ``left`` with no rows."""
    if not _has_rows(sf_dir, tables):
        return left.limit(0)
    return hash_join(left, right, on, right_on)


def _top(t: pa.Table, sort_keys: list, k: int) -> pa.Table:
    return t.take(pc.sort_indices(t, sort_keys=sort_keys)[:k])


def _by_bucket(ds, key: str, fn):
    """The per-key window shuffle: ``key`` hashes into ``_N_BUCKETS``
    groups and ``fn`` resolves every key of a group in one vectorized
    pass.  Grouping by the raw key would make one Python map_groups
    call per key (thousands of tiny groups, measured 4× slower)."""
    def bucket(t: pa.Table) -> pa.Table:
        return t.append_column("bucket", pa.array(
            _np(t[key]) % _N_BUCKETS, pa.int64()))
    return (_map(ds, bucket).groupby("bucket")
            .map_groups(fn, batch_format="pyarrow"))


def _cent_hist(sf_dir: str, key: str = "event_type:str",
               columns=("event_type", "value"),
               key_of=lambda t: t["event_type"]) -> pa.Table:
    """events.value as the exact (key, cent) → cnt histogram, collected
    and sorted by (key, cent).  The only exchange carries distinct
    (key, cent) pairs — bounded by the value range, not the row count
    — and the order statistics finish on the driver."""
    name = key.partition(":")[0]

    def partial(t: pa.Table) -> pa.Table:
        return pa.table({name: key_of(t), "cent": _cents_of(t["value"]),
                         "cnt": _ones(t.num_rows)})
    t = collect(_fold(_read(sf_dir, "events", list(columns)), partial,
                       f"{name} cent", "cnt"), f"{key} cent cnt")
    return t.sort_by([(name, "ascending"), ("cent", "ascending")])


def _groups(t: pa.Table, key: str):
    """(key, cents, counts) per key of a sorted ``_cent_hist`` table."""
    ks = np.asarray(t[key].to_pylist(), dtype=object)
    cents, cnts = _np(t["cent"]), _np(t["cnt"])
    for v in sorted(set(ks.tolist())):
        m = ks == v
        yield v, cents[m], cnts[m]


def _order_stat(cents: np.ndarray, counts: np.ndarray, q: float) -> int:
    """The exact discrete quantile over a cent-sorted histogram: the
    smallest cent whose running count reaches ceil(q·n) (SQL: min(CASE
    WHEN run >= ceil(q * n) THEN cent END))."""
    run = np.cumsum(counts)
    return int(cents[np.searchsorted(run, math.ceil(q * int(run[-1])))])


def _order_stat_sql(q: float, col: str) -> str:
    """The oracle mirror of ``_order_stat`` over running counts ``run``
    and group sizes ``n``."""
    return (f"CAST(min(CASE WHEN run >= CAST(ceil({q} * n) AS BIGINT) "
            f"THEN {col} END) AS BIGINT)")


# ---------------------------------------------------------------- Q1 --

def q1_pricing_summary(sf_dir: str):
    """TPC-H Q1 shape with explicit partial aggregation: per-batch
    pyarrow group_by combiners, then a small groupby of partials — the
    pre-aggregate-before-shuffle pattern (what the reference pushes to
    MySQL per-row via executeSQL, common.py:150-169, done right)."""
    cutoff = pa.scalar(np.datetime64("1998-09-02", "us"))

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t["l_shipdate"], cutoff))
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"], "sum_qty": t["l_quantity"],
            "sum_base_price": _cents_of(t["l_extendedprice"]),
            "sum_disc_price": _cents_of(_revenue(t)),
            "count_order": _ones(t.num_rows)})

    agg = _fold(_read(sf_dir, "lineitem",
                      ["l_returnflag", "l_linestatus", "l_quantity",
                       "l_extendedprice", "l_discount", "l_shipdate"]),
                partial, "l_returnflag l_linestatus",
                "sum_qty sum_base_price sum_disc_price count_order")

    def finish(t: pa.Table) -> pa.Table:
        n = pc.cast(t["count_order"], pa.float64())
        t = t.append_column("avg_qty", pc.divide(t["sum_qty"], n))
        # avg_price from the exact integer cent sum: cents/row × 1e4
        # equals price × 1e6 scale, and the ratio of two exactly-
        # representable integers is bit-deterministic
        t = t.append_column("avg_price", pc.divide(
            pc.cast(t["sum_base_price"], pa.float64()), n))
        return _int_scaled(t, {"sum_qty": 1, "avg_qty": 1e6,
                               "avg_price": 1e4})

    return agg.map_batches(finish, batch_format="pyarrow")


Q1_SQL = f"""
WITH c AS (
  SELECT l_returnflag, l_linestatus, l_quantity,
         {_cents_sql("l_extendedprice")} AS base_cents,
         {_REV_CENTS} AS disc_cents
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
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "l_linenumber": t["l_linenumber"],
                         "revenue": _revenue(t)})

    return _map(_read(sf_dir, "lineitem",
                      ["l_orderkey", "l_linenumber", "l_quantity",
                       "l_extendedprice", "l_discount", "l_shipdate"]), f)


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

    nat = _dim(sf_dir, "nation", "n_nationkey n_name")
    cust = _dim(sf_dir, "customer", "c_custkey c_nationkey")
    nk_to_name = dict(zip(nat["n_nationkey"].to_pylist(),
                          nat["n_name"].to_pylist()))
    ref = ray.put(_sorted_map(cust["c_custkey"], np.array(
        [nk_to_name[k] for k in cust["c_nationkey"].to_pylist()],
        dtype=object)))

    def lookup(t: pa.Table) -> pa.Table:
        # inner-join semantics like the oracle: a dangling o_custkey
        # must DROP the row, not credit the nearest customer's nation
        hit, names = _probe(ray.get(ref), _np(t["o_custkey"]))
        t = t.filter(pa.array(hit))
        return pa.table({"n_name": pa.array(names[hit].tolist(), pa.string()),
                         "total_revenue_cents": _cents_of(t["o_totalprice"]),
                         "n_orders": _ones(t.num_rows)})

    return _fold(_read(sf_dir, "orders", ["o_custkey", "o_totalprice"]),
                 lookup, "n_name", "total_revenue_cents n_orders")


JOIN_NATION_SQL = f"""
SELECT n_name,
       CAST(sum({_cents_sql("o_totalprice")}) AS BIGINT)
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
    def partial(t: pa.Table) -> pa.Table:
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "n_items": _ones(t.num_rows),
                         "sum_qty": t["l_quantity"]})

    return _fold(_read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"]),
                 partial, "l_orderkey", "n_items sum_qty")


ROLLUP_SQL = """
SELECT l_orderkey, count(*) AS n_items, sum(l_quantity) AS sum_qty
FROM lineitem GROUP BY l_orderkey
"""


def agg_pushdown_counts(sf_dir: str):
    """M7/A1: the reference runs `select count(*) ... where status in
    (...)` per master row against MySQL (common.py:150-169,
    index_carteam_user.yml:165-181); here it is one grouped aggregate
    with conditional counters."""
    def partial(t: pa.Table) -> pa.Table:
        st = t["o_orderstatus"]
        return pa.table({
            "o_custkey": t["o_custkey"], "n_orders": _ones(t.num_rows),
            "n_open": pc.cast(pc.equal(st, pa.scalar("O")), pa.int64()),
            "n_finished": pc.cast(pc.equal(st, pa.scalar("F")), pa.int64())})

    return _fold(_read(sf_dir, "orders", ["o_custkey", "o_orderstatus"]),
                 partial, "o_custkey", "n_orders n_open n_finished")


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
    vals = _read(sf_dir, "orders", ["o_orderpriority"]).unique(
        "o_orderpriority")
    return pa.table({"o_orderpriority": pa.array(sorted(vals or []),
                                                 pa.string())})


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

    def partial(t: pa.Table) -> pa.Table:
        # events whose JSON lacks k are invisible (SQL: WHERE k IS NOT
        # NULL) — the NULL-group semantics of sum/max don't survive a
        # partial-aggregate plan, so exclusion is the exact contract
        raw = [_json.loads(s).get("k") for s in t["props"].to_pylist()]
        keep = pa.array([v is not None for v in raw], pa.bool_())
        ks = pa.array([v for v in raw if v is not None], pa.int64())
        return pa.table({"event_type": t["event_type"].filter(keep),
                         "n": _ones(len(ks)), "sum_k": ks, "max_k": ks})

    return collect(_fold(_read(sf_dir, "events", ["event_type", "props"]),
                          partial, "event_type", "n sum_k max_k:max"),
                    "event_type:str n sum_k max_k").sort_by("event_type")


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

    return _map(_read(sf_dir, "events",
                      ["event_id", "user_id", "event_type", "value"]), f)


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

    return _map(_read(sf_dir, "lineitem",
                      ["l_orderkey", "l_linenumber", "l_quantity",
                       "l_extendedprice", "l_discount", "l_tax"]), f)


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

    return _map(_read(sf_dir, "lineitem",
                      ["l_orderkey", "l_linenumber", "l_quantity",
                       "l_discount", "l_tax"]), f)


SCALAR_DSL_SQL = """
SELECT l_orderkey, l_linenumber,
       least(l_quantity, 30.0)        AS qty_capped,
       greatest(l_discount, l_tax)    AS best_rate,
       abs(l_discount + (-l_tax))     AS spread
FROM lineitem
"""


# --------------------------------------- latest-wins / windows / CDC --

SESSION_GAP_US = 30 * 60 * 1_000_000        # SESSION_SQL's 30 minutes


def session_windows_events(sf_dir: str):
    """Gap-based sessionization (SURVEY.md §2.9 streaming semantics):
    per user, a new session starts when the gap to the previous event
    exceeds 30 minutes.  Each ``_by_bucket`` group handles MANY users
    in one vectorized pass (new-session mask = user-change OR gap,
    then diff/cumsum — no per-event loop)."""

    def sessions(g: pa.Table) -> pa.Table:
        order = pc.sort_indices(g, sort_keys=[("user_id", "ascending"),
                                              ("ts", "ascending"),
                                              ("event_id", "ascending")])
        g = g.take(order)
        uid = _np(g["user_id"])
        us = _np(g["ts"].cast(pa.int64()))
        n = len(uid)
        new_sess = np.ones(n, dtype=bool)
        if n > 1:
            new_sess[1:] = ((uid[1:] != uid[:-1])
                            | (np.diff(us) > SESSION_GAP_US))
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

    return _by_bucket(_read(sf_dir, "events", ["user_id", "event_id", "ts"]),
                      "user_id", sessions)


def asof_join_purchase_click(sf_dir: str):
    """AS-OF join — a custom operator Ray Data lacks (task brief):
    each purchase event joins the LATEST click of the same user at or
    before its timestamp.

    Plan: one ``_by_bucket`` shuffle co-locates each user's purchases
    and clicks; inside a group both sides sort once and a vectorized
    ``np.searchsorted`` finds every purchase's predecessor click (no
    per-row loop, no window re-scan).  Partitioning assumption
    documented per the brief: correctness requires both sides of one
    user in one group — guaranteed by bucketing on user_id alone."""

    def purchases_and_clicks(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["event_type"],
                                 value_set=pa.array(["purchase", "click"])))

    def asof(g: pa.Table) -> pa.Table:
        # vectorized membership (a Python loop over every event string
        # was the dominant non-vectorized cost in this operator)
        is_p = _np(pc.fill_null(
            pc.equal(g["event_type"], pa.scalar("purchase")), False))
        uid = _np(g["user_id"])
        us = _np(g["ts"].cast(pa.int64()))
        eid = _np(g["event_id"])

        # clicks sorted by (user, ts, event_id): ties on ts resolve to
        # the largest event_id — mirrored in the oracle's dedup CTE
        ci = np.flatnonzero(~is_p)
        pi = np.flatnonzero(is_p)
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

    return _by_bucket(_map(_read(sf_dir, "events",
                                 ["user_id", "event_id", "ts", "event_type"]),
                           purchases_and_clicks), "user_id", asof)


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

def latest_event_per_user(sf_dir: str):
    """U3 latest-wins by (ts, event_id) per key — the delta
    last-writer-wins semantic (SURVEY.md §2.9).

    The session_windows_events shuffle: each ``_by_bucket`` group
    resolves MANY users in one vectorized pass — sort by (user, ts,
    event_id), keep each user's last row via a boundary mask.  The
    same pass as a per-batch combiner shrinks the exchange to ≤1 row
    per user per batch first."""

    def last_per_user(t: pa.Table) -> pa.Table:
        uid = _np(t["user_id"])
        order = np.lexsort((_np(t["event_id"]),
                            _np(t["ts"].cast(pa.int64())), uid))
        uid = uid[order]
        last = np.ones(len(uid), dtype=bool)
        last[:-1] = uid[1:] != uid[:-1]
        return t.take(pa.array(order)).filter(pa.array(last))

    return _by_bucket(
        _map(_read(sf_dir, "events", ["user_id", "event_id", "ts",
                                      "event_type", "value"]), last_per_user),
        "user_id", lambda g: last_per_user(g).select(
            ["user_id", "event_id", "event_type", "value"]))


LATEST_SQL = """
SELECT user_id, event_id, event_type, value
FROM events
QUALIFY row_number() OVER (PARTITION BY user_id ORDER BY ts DESC, event_id DESC) = 1
"""


def tumbling_window_events(sf_dir: str):
    """Streaming-shaped tumbling window (1h) as a grouped aggregate —
    Ray Data has no watermarks; the event-time bucket IS the key
    (SURVEY.md §2.9)."""
    def partial(t: pa.Table) -> pa.Table:
        # per-batch COMBINER over (user, hour) keys: only one row per
        # key per batch crosses the exchange, summed in integer cents
        us = _np(t["ts"].cast(pa.int64()))
        return pa.table({"user_id": t["user_id"],
                         "hour_bucket": pa.array(us // 3_600_000_000,
                                                 pa.int64()),
                         "n_events": _ones(len(us)),
                         "sum_value_cents": _cents_of(t["value"])})

    return _fold(_read(sf_dir, "events", ["user_id", "ts", "value"]),
                 partial, "user_id hour_bucket", "n_events sum_value_cents")


TUMBLING_SQL = f"""
-- floor() division: DuckDB's integer // truncates toward zero, while
-- the engine's numpy // floors — they differ on pre-1970 timestamps
SELECT user_id,
       CAST(floor(epoch_us(ts) / 3600000000.0) AS BIGINT) AS hour_bucket,
       count(*) AS n_events,
       CAST(sum({_VALUE_CENTS}) AS BIGINT) AS sum_value_cents
FROM events GROUP BY user_id, hour_bucket
"""


def event_type_routing(sf_dir: str):
    """M10 trigger routing (INSERT|UPDATE|DELETE bitmask,
    modules/handlers/__init__.py:37-52) as a vectorized CASE + count."""
    def f(t: pa.Table) -> pa.Table:
        et = _np(t["event_type"])
        route = np.select([np.isin(et, ["signup", "purchase"]),
                           np.isin(et, ["click", "view"])],
                          ["mutate", "read"], default="other")
        return pa.table({"route": pa.array(route.tolist(), pa.string()),
                         "n": _ones(len(et))})

    return _fold(_read(sf_dir, "events", ["event_type"]), f, "route", "n")


ROUTING_SQL = """
SELECT CASE WHEN event_type IN ('signup', 'purchase') THEN 'mutate'
            WHEN event_type IN ('click', 'view') THEN 'read'
            ELSE 'other' END AS route,
       count(*) AS n
FROM events GROUP BY route
"""


# --------------------------------------------------- semi/anti join --

def _custkey_set(sf_dir: str) -> np.ndarray:
    keys = _np(_dim(sf_dir, "customer", "c_custkey")["c_custkey"])
    return np.sort(keys[keys < 100])


def _events_by_membership(sf_dir: str, keep_members: bool):
    """Broadcast key-set semi/anti join (the guide's Bloom/keyset
    pattern): no shuffle of the fact table."""
    import ray

    ref = ray.put(_custkey_set(sf_dir))

    def f(t: pa.Table) -> pa.Table:
        member = np.isin(_np(t["user_id"]), ray.get(ref))
        t = t.filter(pa.array(member if keep_members else ~member))
        return pa.table({"event_type": t["event_type"],
                         "n": _ones(t.num_rows)})

    return collect(_fold(_read(sf_dir, "events", ["user_id", "event_type"]),
                          f, "event_type", "n"), "event_type:str n")


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
    rows = [(et, int(k.sum()), *(_order_stat(c, k, q)
                                 for q in (0.5, 0.9, 0.99)))
            for et, c, k in _groups(_cent_hist(sf_dir), "event_type")]
    return _table(rows, "event_type:str n p50_cents p90_cents p99_cents")


QUANTILES_SQL = f"""
WITH c AS (
  SELECT event_type, {_VALUE_CENTS} AS cent
  FROM events
), tot AS (
  SELECT event_type, count(*) AS n FROM c GROUP BY event_type
), cum AS (
  SELECT event_type, cent,
         sum(count(*)) OVER (PARTITION BY event_type ORDER BY cent) AS run
  FROM c GROUP BY event_type, cent
)
SELECT tot.event_type, tot.n,
  {_order_stat_sql(0.5, "cent")} AS p50_cents,
  {_order_stat_sql(0.9, "cent")} AS p90_cents,
  {_order_stat_sql(0.99, "cent")} AS p99_cents
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
    def partial(t: pa.Table) -> pa.Table:
        c = _cents_of(t["value"])
        return pa.table({"event_type": t["event_type"],
                         "n": _ones(t.num_rows), "sum_cents": c,
                         "sumsq_cents": pc.multiply(c, c),
                         "min_cents": c, "max_cents": c})

    t = collect(_fold(_read(sf_dir, "events", ["event_type", "value"]),
                       partial, "event_type",
                       "n sum_cents sumsq_cents min_cents:min max_cents:max"),
                 "event_type:str n sum_cents sumsq_cents min_cents max_cents"
                 ).sort_by("event_type")
    n = _np(t["n"]).astype(np.float64)
    mean = _np(t["sum_cents"]).astype(np.float64) / n
    # clamp: Σc²/n − mean² can round to −ε on a (near-)constant group
    # once Σc² is large; DuckDB's sqrt(−ε) hard-errors and numpy's is
    # NaN, so both sides clamp with the same greatest(var, 0) form
    var = np.maximum(_np(t["sumsq_cents"]).astype(np.float64) / n
                     - mean * mean, 0.0)
    for name, v in (("avg_cents", mean), ("variance_cents", var),
                    ("std_cents", np.sqrt(var))):
        t = t.append_column(name, pa.array(v, pa.float64()))
    return t


# the float finish is written with the engine's exact op order —
# (Σc²/n) − (Σc/n)·(Σc/n) — so IEEE determinism gives bit-equality
EXTENDED_STATS_SQL = f"""
WITH c AS (
  SELECT event_type, {_VALUE_CENTS} AS cent
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
    rows = []
    for et, c, k in _groups(_cent_hist(sf_dir), "event_type"):
        med = _order_stat(c, k, 0.5)
        dev = np.abs(c - med)
        dorder = np.argsort(dev, kind="stable")
        uniq, first = np.unique(dev[dorder], return_index=True)
        rows.append((et, int(k.sum()), med, _order_stat(
            uniq, np.add.reduceat(k[dorder], first), 0.5)))
    return _table(rows, "event_type:str n median_cents mad_cents")


MAD_SQL = f"""
WITH c AS (
  SELECT event_type, {_VALUE_CENTS} AS cent
  FROM events),
tot AS (SELECT event_type, count(*) AS n FROM c GROUP BY event_type),
cum AS (
  SELECT event_type, cent,
         sum(count(*)) OVER (PARTITION BY event_type ORDER BY cent)
           AS run
  FROM c GROUP BY event_type, cent),
med AS (
  SELECT cum.event_type,
         {_order_stat_sql(0.5, "cent")} AS med
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
       {_order_stat_sql(0.5, "d")} AS mad_cents
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
        order = np.lexsort((_np(t["event_id"]),
                            _np(t["ts"].cast(pa.int64())), et))
        et = et[order]
        last = np.ones(len(et), dtype=bool)
        last[:-1] = et[1:] != et[:-1]
        return t.take(pa.array(order)).filter(pa.array(last))

    def finish(g: pa.Table) -> pa.Table:
        g = argmax_per_type(g)
        return pa.table({"event_type": g["event_type"],
                         "top_ts_us": g["ts"].cast(pa.int64()),
                         "top_event_id": g["event_id"],
                         "top_value_cents": _cents_of(g["value"])})

    return (_map(_read(sf_dir, "events",
                       ["event_type", "event_id", "ts", "value"]),
                 argmax_per_type)
            .groupby("event_type")
            .map_groups(finish, batch_format="pyarrow"))


TOP_METRICS_SQL = f"""
SELECT event_type,
       epoch_us(ts) AS top_ts_us,
       event_id AS top_event_id,
       {_VALUE_CENTS} AS top_value_cents
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


def auto_date_histogram_events(sf_dir: str):
    """ES ``auto_date_histogram``: pick the SMALLEST interval from a
    fixed ladder whose floor-grid bucket count over [min ts, max ts]
    stays ≤ ``_AUTO_HIST_TARGET``, then one date_histogram at that
    interval.  The min/max probe is one tiny aggregate (metadata-
    scale); the choice rule — ``floor(mx/iv) − floor(mn/iv) + 1 ≤
    target``, largest ladder entry as fallback (and on empty input) —
    is deterministic and mirrored verbatim in SQL."""
    from ray.data.aggregate import Max, Min

    bounds = (_map(_read(sf_dir, "events", ["ts"]),
                   lambda t: pa.table({"us": t["ts"].cast(pa.int64())}))
              .aggregate(Min("us"), Max("us")))
    mn, mx = bounds["min(us)"], bounds["max(us)"]
    iv = next((v for v in _AUTO_HIST_LADDER_US if mn is not None
               and int(mx) // v - int(mn) // v + 1 <= _AUTO_HIST_TARGET),
              _AUTO_HIST_LADDER_US[-1])

    def partial(t: pa.Table) -> pa.Table:
        us = _np(t["ts"].cast(pa.int64()))
        return pa.table({"bucket_us": pa.array((us // iv) * iv, pa.int64()),
                         "n_events": _ones(len(us))})

    return _fold(_read(sf_dir, "events", ["ts"]), partial, "bucket_us",
                 "n_events").map_batches(
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


_TOPK_PER_CUST = 3


def topk_orders_per_customer(sf_dir: str):
    """Windowed ranking (§2.7 depth): each customer's top-3 orders by
    (o_totalprice DESC, o_orderkey ASC), with the rank emitted.

    The sessionization shuffle: per-batch combiners keep ≤3 rows per
    customer per batch, and each ``_by_bucket`` group ranks MANY
    customers in one lexsort + segmented-cumcount pass — no
    per-customer Python."""

    def topk_of(t: pa.Table) -> pa.Table:
        cust = _np(t["o_custkey"])
        order = np.lexsort((_np(t["o_orderkey"]), -_np(t["o_totalprice"]),
                            cust))
        cust_s = cust[order]
        new = np.ones(len(cust_s), dtype=bool)
        new[1:] = cust_s[1:] != cust_s[:-1]
        # rank within customer = position - position of group start
        pos = np.arange(len(cust_s))
        start = np.maximum.accumulate(np.where(new, pos, 0))
        rank = pos - start + 1
        keep = rank <= _TOPK_PER_CUST
        return t.take(pa.array(order[keep])).append_column(
            "rank", pa.array(rank[keep], pa.int64()))

    return _by_bucket(
        _map(_read(sf_dir, "orders",
                   ["o_custkey", "o_orderkey", "o_totalprice"]),
             lambda t: topk_of(t).drop_columns(["rank"])),
        "o_custkey", lambda g: topk_of(g).select(
            ["o_custkey", "rank", "o_orderkey", "o_totalprice"]))


TOPK_PER_CUST_SQL = f"""
SELECT o_custkey, rank, o_orderkey, o_totalprice
FROM (SELECT o_custkey, o_orderkey, o_totalprice,
             row_number() OVER (PARTITION BY o_custkey
                                ORDER BY o_totalprice DESC, o_orderkey)
               AS rank
      FROM orders)
WHERE rank <= {_TOPK_PER_CUST}
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
    def partial(t: pa.Table) -> pa.Table:
        hop = _np(t["ts"].cast(pa.int64())) // HOP_US
        cents = _cents_of(t["value"])
        return pa.concat_tables([
            pa.table({"win_start_hop": pa.array(hop - i, pa.int64()),
                      "n_events": _ones(len(hop)),
                      "sum_value_cents": cents})
            for i in range(WINDOW_HOPS)])

    return _fold(_read(sf_dir, "events", ["ts", "value"]), partial,
                 "win_start_hop", "n_events sum_value_cents")


HOPPING_SQL = f"""
SELECT (CAST(floor(epoch_us(ts) / 600000000.0) AS BIGINT) - offs.i)
           AS win_start_hop,
       count(*) AS n_events,
       CAST(sum({_VALUE_CENTS}) AS BIGINT) AS sum_value_cents
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
        v = _np(t["o_totalprice"])
        outs = [_table([], "o_orderkey band:str o_totalprice:f64")]
        for band, lo, hi in PRICE_BANDS:
            m = t.filter(pa.array((v >= lo) & (v < hi)))
            outs.append(pa.table({
                "o_orderkey": m["o_orderkey"],
                "band": pa.array([band] * m.num_rows, pa.string()),
                "o_totalprice": m["o_totalprice"]}))
        return pa.concat_tables(outs)

    return _map(_read(sf_dir, "orders", ["o_orderkey", "o_totalprice"]),
                probe)


RANGE_JOIN_SQL = """
SELECT o_orderkey, b.band, o_totalprice
FROM orders
JOIN (VALUES ('budget', 0.0, 100000.0),
             ('mid', 100000.0, 250000.0),
             ('premium', 250000.0, 1000000000.0),
             ('promo_100k_300k', 100000.0, 300000.0)) AS b(band, lo, hi)
  ON o_totalprice >= b.lo AND o_totalprice < b.hi
"""


def event_gaps_per_user(sf_dir: str):
    """lag()-style gap computation: per user, time since the previous
    event (ordered by ts, event_id).  Needs each user's full history
    co-located: one ``_by_bucket`` shuffle, and each group resolves
    MANY users in one vectorized lexsort + boundary-mask pass, never
    one Python group per user."""

    def gaps(g: pa.Table) -> pa.Table:
        uid, eid = _np(g["user_id"]), _np(g["event_id"])
        us = _np(g["ts"].cast(pa.int64()))
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

    return _by_bucket(_read(sf_dir, "events", ["event_id", "user_id", "ts"]),
                      "user_id", gaps)


LAG_SQL = """
SELECT event_id, user_id,
       lag(event_id) OVER w AS prev_event_id,
       epoch_us(ts) - lag(epoch_us(ts)) OVER w AS gap_us
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


def _revenue_rows(t: pa.Table) -> pa.Table:
    """A joined lineitem ⋈ orders row as SHUFFLE_JOIN_SQL selects it."""
    return pa.table({"l_orderkey": t["l_orderkey"],
                     "l_linenumber": t["l_linenumber"],
                     "revenue": _revenue(t),
                     "o_orderdate": t["o_orderdate"],
                     "o_orderpriority": t["o_orderpriority"]})


def shuffle_join_lineitem_orders(sf_dir: str):
    """Large×large co-partitioned hash join: lineitem ⋈ orders on
    orderkey via Ray Data's native hash-shuffle join
    (``stages.hash_join``) — both sides are hash-partitioned on the
    key into co-located partitions and each partition joins
    independently, so peak memory is bounded by the largest single
    partition, never a whole side.  The broadcast-join family above
    (J1/semi/anti) covers the small-side case; this is the path when
    BOTH sides exceed object-store broadcast (the reference's per-row
    MySQL lookups, modules/handlers/v1/commonhandler.py:406, have no
    large×large story at all — each probe is one round-trip).

    Scale notes: both sides stream through the exchange — nothing
    materializes driver-side; a single hot key concentrates its
    partition, the salted join below is the mitigation.  Row-level
    output: every joined row is value-checked by the driver (revenue
    per lineitem + the matched order's date and priority)."""
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_extendedprice",
                "l_discount"])
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_orderpriority"])
    return _map(_join(sf_dir, "lineitem orders", li, orders, "l_orderkey",
                      "o_orderkey"), _revenue_rows)


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

    cutoff = pa.scalar(np.datetime64("1995-03-15", "us"))
    cust = _dim(sf_dir, "customer", "c_custkey c_mktsegment")
    ckeys_ref = ray.put(np.sort(_np(cust.filter(pc.equal(
        cust["c_mktsegment"], "BUILDING"))["c_custkey"])))

    def filter_orders(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.less(t["o_orderdate"], cutoff), pa.array(
            np.isin(_np(t["o_custkey"]), ray.get(ckeys_ref))))
        return t.filter(keep).select(
            ["o_orderkey", "o_orderdate", "o_orderpriority"])

    def li_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["l_shipdate"], cutoff))
        return (pa.table({"l_orderkey": t["l_orderkey"],
                          "cents": _cents_of(_revenue(t))})
                .group_by("l_orderkey").aggregate([("cents", "sum")])
                .rename_columns(["l_orderkey", "cents"]))

    orders = _map(_read(sf_dir, "orders", ["o_orderkey", "o_custkey",
                                           "o_orderdate", "o_orderpriority"]),
                  filter_orders)
    li = _map(_read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice",
                                         "l_discount", "l_shipdate"]),
              li_partial)
    j = _join(sf_dir, "customer orders lineitem", li, orders,
              "l_orderkey", "o_orderkey")
    keys = "l_orderkey o_orderdate o_orderpriority"
    agg = _fold(j, lambda t: pa.table({
        **{k: t[k] for k in keys.split()}, "revenue_cents": t["cents"]}),
        keys, "revenue_cents")
    top = [("revenue_cents", "descending"), ("o_orderdate", "ascending"),
           ("l_orderkey", "ascending")]
    # per-batch top-10 combiners, then a ≤10-rows-per-block driver merge
    return _top(collect(_map(agg, lambda t: _top(t, top, 10)),
                         "l_orderkey o_orderdate:ts o_orderpriority:str "
                         "revenue_cents"), top, 10)


Q3_SQL = f"""
SELECT l_orderkey, o_orderdate, o_orderpriority,
       CAST(sum({_REV_CENTS}) AS BIGINT) AS revenue_cents
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

    def li_partial(t: pa.Table) -> pa.Table:
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "total_qty": _cents_of(t["l_quantity"], 1)})

    per_order = _fold(_read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"]),
                      li_partial, "l_orderkey", "total_qty")
    # survivors are few (HAVING prunes hard) — one bounded driver
    # gather, then broadcast lookups against the dimension tables
    bt = collect(_map(per_order, lambda t: t.filter(pc.greater(
        t["total_qty"], pa.scalar(Q18_MIN_QTY)))), "l_orderkey total_qty")
    qty = dict(zip(bt["l_orderkey"].to_pylist(),
                   bt["total_qty"].to_pylist()))
    keys_ref = ray.put(np.array(sorted(qty), dtype=np.int64))

    def match_orders(t: pa.Table) -> pa.Table:
        return t.filter(pa.array(np.isin(_np(t["o_orderkey"]),
                                         ray.get(keys_ref))))

    ot = collect(_map(_read(sf_dir, "orders",
                             ["o_orderkey", "o_custkey", "o_orderdate"]),
                       match_orders), "o_orderkey o_custkey o_orderdate:ts")
    ct = _dim(sf_dir, "customer", "c_custkey c_name")
    cname = dict(zip(ct["c_custkey"].to_pylist(), ct["c_name"].to_pylist()))
    rows = sorted(
        (-qty[ok], ok, cname.get(ck), od)
        for ok, ck, od in zip(ot["o_orderkey"].to_pylist(),
                              ot["o_custkey"].to_pylist(),
                              ot["o_orderdate"].to_pylist()))[:100]
    return _table([(r[2], r[1], r[3], -r[0]) for r in rows],
                  "c_name:str o_orderkey o_orderdate:ts total_qty")


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


def salted_join_lineitem_orders(sf_dir: str):
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
    if not _has_rows(sf_dir, "lineitem orders"):
        return li.limit(0)             # the empty inner join

    # detection sample must not be the file head (parquet is written
    # in key order — a head sample only ever sees the lowest keys):
    # a seeded row-level random_sample spreads the probe across the
    # blocks take_batch pulls.  Detection quality only affects
    # BALANCE; the joined rows are identical for any hot set.
    sample = (li.random_sample(0.2, seed=13)
              .take_batch(65536, batch_format="pyarrow"))
    keys, counts = np.unique(_np(sample["l_orderkey"]), return_counts=True)
    hot_ref = ray.put(np.sort(keys[np.argsort(-counts)[:HOT_KEY_COUNT]]))

    def salt_probe(t: pa.Table) -> pa.Table:
        ok = _np(t["l_orderkey"])
        salt = np.where(np.isin(ok, ray.get(hot_ref)),
                        _np(t["l_linenumber"]) % SALT_FACTOR, 0)
        return t.append_column(
            "jk", pa.array(ok * SALT_FACTOR + salt, pa.int64()))

    def replicate_build(t: pa.Table) -> pa.Table:
        ok = _np(t["o_orderkey"])
        is_hot = np.isin(ok, ray.get(hot_ref))
        # cold rows once with salt 0, hot rows once per salt
        return pa.concat_tables([
            t.filter(pa.array(m)).append_column(
                "jk", pa.array(ok[m] * SALT_FACTOR + salt, pa.int64()))
            for salt, m in [(0, ~is_hot)] + [(s, is_hot) for s in
                                             range(SALT_FACTOR)]])

    return _map(hash_join(_map(li, salt_probe),
                          _map(orders, replicate_build), "jk"),
                _revenue_rows)


def distinct_users_per_event_type(sf_dir: str):
    """Exact COUNT(DISTINCT) per group: batch-level pair dedup
    (pyarrow group_by — shrinks the exchange to unique pairs per
    batch), one (type, user) groupby to finish the global dedup, then
    per-batch per-type counts into a tiny second groupby.  This is
    the canonical two-shuffle exact-distinct plan; the HLL sketch
    (hll_distinct_counts) is the one-shuffle approximate variant."""
    from ray.data.aggregate import Count

    pairs = (_map(_read(sf_dir, "events", ["event_type", "user_id"]),
                  lambda t: t.group_by(["event_type", "user_id"]).aggregate([]))
             .groupby(["event_type", "user_id"])
             .aggregate(Count(alias_name="_n")))
    return _fold(pairs, lambda t: pa.table({"event_type": t["event_type"],
                                            "n_users": _ones(t.num_rows)}),
                 "event_type", "n_users")


DISTINCT_USERS_SQL = """
SELECT event_type, count(DISTINCT user_id) AS n_users
FROM events GROUP BY event_type
"""


def running_total_orders(sf_dir: str):
    """Cumulative window sum: per customer, running total of order
    price (cents) ordered by (o_orderdate, o_orderkey).  One
    ``_by_bucket`` shuffle; each group resolves MANY customers in one
    vectorized lexsort + segmented-cumsum pass (the event_gaps_per_user
    discipline — never one Python group per key).  Integer cents keep
    the running sums exact."""

    def with_cents(t: pa.Table) -> pa.Table:
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "o_custkey": t["o_custkey"],
                         "o_orderdate": t["o_orderdate"],
                         "cents": _cents_of(t["o_totalprice"])})

    def cumsum(g: pa.Table) -> pa.Table:
        ck, ok = _np(g["o_custkey"]), _np(g["o_orderkey"])
        od = _np(g["o_orderdate"].cast(pa.int64()))
        cents = _np(g["cents"])
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

    return _by_bucket(_map(_read(sf_dir, "orders", ["o_orderkey", "o_custkey",
                                                    "o_orderdate",
                                                    "o_totalprice"]),
                           with_cents), "o_custkey", cumsum)


RUNNING_TOTAL_SQL = f"""
SELECT o_orderkey, o_custkey,
       CAST(sum({_cents_sql("o_totalprice")})
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

def _grouping_sets(sf_dir: str, sets) -> pa.Table:
    """GROUP BY ROLLUP / CUBE over (l_returnflag, l_linestatus): the
    base cells plus one NULL-marked super-aggregate row per cell of
    each grouping set in ``sets`` (``(keep_flag, keep_status)``
    pairs).  Every level derives on the driver from the already-
    reduced base aggregate (|flags|×|statuses| rows — never a second
    pass over lineitem), so the only wide operation is the one small
    groupby shuffle."""
    spec = "l_returnflag:str l_linestatus:str sum_qty count_order"

    def partial(t: pa.Table) -> pa.Table:
        return pa.table({"l_returnflag": t["l_returnflag"],
                         "l_linestatus": t["l_linestatus"],
                         "sum_qty": _cents_of(t["l_quantity"], 1),
                         "count_order": _ones(t.num_rows)})

    base = collect(_fold(_read(sf_dir, "lineitem", ["l_returnflag",
                                                     "l_linestatus",
                                                     "l_quantity"]),
                          partial, "l_returnflag l_linestatus",
                          "sum_qty count_order"), spec)
    rows = list(zip(*(base[c].to_pylist() for c in base.column_names)))
    if not rows:
        # SQL ROLLUP/CUBE on an empty table still emits the grand-total
        # row: (NULL, NULL, NULL sum, 0 count)
        return _table([(None, None, None, 0)], spec)
    out = list(rows)
    for keep_flag, keep_status in sets:
        acc: dict = {}
        for f, st, q, n in rows:
            a = acc.setdefault((f if keep_flag else None,
                                st if keep_status else None), [0, 0])
            a[0] += q
            a[1] += n
        out += [(*k, q, n) for k, (q, n) in acc.items()]
    return _table(out, spec)


def rollup_pricing_totals(sf_dir: str):
    """GROUP BY ROLLUP(l_returnflag, l_linestatus): base cells plus
    per-flag subtotals plus the grand total, NULL-marked like SQL
    ROLLUP (``_grouping_sets``)."""
    return _grouping_sets(sf_dir, [(True, False), (False, False)])


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
    def partial(t: pa.Table) -> pa.Table:
        us = _np(t["ts"].cast(pa.int64()))
        return pa.table({"day_bucket": pa.array(us // _DAY_US, pa.int64()),
                         "n_events": _ones(len(us)),
                         "sum_value_cents": _cents_of(t["value"])})

    agg = _fold(_read(sf_dir, "events", ["ts", "value"]), partial,
                "day_bucket", "n_events sum_value_cents")

    def fill(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return _table([], "day_bucket n_events sum_value_cents")
        d = _np(t["day_bucket"])
        full = np.arange(d.min(), d.max() + 1, dtype=np.int64)
        pos = np.searchsorted(full, d)
        nf = np.zeros(full.size, np.int64)
        sf = np.zeros(full.size, np.int64)
        nf[pos] = _np(t["n_events"])
        sf[pos] = _np(t["sum_value_cents"])
        return pa.table({"day_bucket": pa.array(full),
                         "n_events": pa.array(nf),
                         "sum_value_cents": pa.array(sf)})

    return agg.repartition(1).map_batches(fill, batch_format="pyarrow")


_COMPOSITE_PAGE = 64


def composite_agg_events(sf_dir: str):
    """ES composite aggregation with after-key paging: buckets keyed
    (event_type asc, day asc) carrying doc count + exact integer-cent
    value sums, pages of ``_COMPOSITE_PAGE``.  Each page is a
    STATELESS distributed recompute with the after-cursor pushed into
    the per-batch combiner — rows at or before the cursor never enter
    a partial aggregate, so per-page work shrinks as paging advances
    (the ES composite contract: deterministic key order, no
    server-side scroll state).  Returns the stitched pages, which must
    reconstruct the full GROUP BY bit-exactly — exactly what the SQL
    oracle checks."""
    spec = "event_type:str day_bucket n_events sum_value_cents"

    def after_cursor(after):
        def partial(t: pa.Table) -> pa.Table:
            # numpy floor division, NOT pc.divide (trunc-toward-zero):
            # pre-epoch timestamps must bucket like date_histogram and
            # the oracle's floor()
            p = pa.table({"event_type": t["event_type"],
                          "day_bucket": pa.array(
                              _np(t["ts"].cast(pa.int64())) // _DAY_US,
                              pa.int64()),
                          "n_events": _ones(t.num_rows),
                          "sum_value_cents": _cents_of(t["value"])})
            if after is None:
                return p
            a_et, a_day = after
            return p.filter(pc.or_(
                pc.greater(p["event_type"], pa.scalar(a_et)),
                pc.and_(pc.equal(p["event_type"], pa.scalar(a_et)),
                        pc.greater(p["day_bucket"], pa.scalar(a_day)))))
        return partial

    pages, after = [], None
    while True:
        t = collect(_fold(_read(sf_dir, "events", ["ts", "event_type",
                                                    "value"]),
                           after_cursor(after), "event_type day_bucket",
                           "n_events sum_value_cents"), spec)
        if not t.num_rows:
            break
        t = t.sort_by([("event_type", "ascending"),
                       ("day_bucket", "ascending")])
        pages.append(t.slice(0, _COMPOSITE_PAGE))
        if t.num_rows <= _COMPOSITE_PAGE:
            break
        after = (pages[-1]["event_type"][-1].as_py(),
                 int(pages[-1]["day_bucket"][-1].as_py()))
    return pa.concat_tables(pages or [_schema(spec).empty_table()])


COMPOSITE_AGG_SQL = f"""
SELECT event_type,
       CAST(floor(epoch_us(ts) / 86400000000.0) AS BIGINT) AS day_bucket,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum({_VALUE_CENTS}) AS BIGINT) AS sum_value_cents
FROM events
GROUP BY event_type, day_bucket
ORDER BY event_type, day_bucket
"""


# the gap-filled daily histogram hist(d, n, s): the oracle prologue of
# date_histogram and of every pipeline agg parented by it
_DAILY_HIST_CTES = f"""
WITH b AS (
  SELECT CAST(floor(epoch_us(ts) / 86400000000.0) AS BIGINT) AS d,
         {_VALUE_CENTS} AS cents
  FROM events),
agg AS (SELECT d, count(*) AS n, CAST(sum(cents) AS BIGINT) AS s
        FROM b GROUP BY d),
days AS (SELECT unnest(generate_series((SELECT min(d) FROM agg),
                                       (SELECT max(d) FROM agg))) AS d),
hist AS (SELECT days.d, CAST(coalesce(agg.n, 0) AS BIGINT) AS n,
                CAST(coalesce(agg.s, 0) AS BIGINT) AS s
         FROM days LEFT JOIN agg ON agg.d = days.d)"""

DATE_HISTOGRAM_SQL = f"""{_DAILY_HIST_CTES}
SELECT d AS day_bucket, n AS n_events, s AS sum_value_cents FROM hist
"""


def _daily(sf_dir: str):
    """The gap-filled daily histogram collected on the driver, day-
    sorted: (day, n_events, sum_value_cents) arrays — the O(days)
    table every histogram-parented pipeline agg finishes on, never a
    second pass over events."""
    t = collect(date_histogram_events(sf_dir),
                 "day_bucket n_events sum_value_cents").sort_by("day_bucket")
    return _np(t["day_bucket"]), _np(t["n_events"]), \
        _np(t["sum_value_cents"])


def derivative_events(sf_dir: str):
    """ES ``derivative`` pipeline aggregation: day-over-day change of
    the gap-filled daily event count — one vectorized diff over the
    reduced per-day table (``_daily``).  The first bucket has no
    predecessor — ES emits no derivative there; we emit NULL so every
    day keeps its row (min_doc_count=0 shape)."""
    d, n, _ = _daily(sf_dir)
    deriv = np.zeros(len(n), dtype=np.int64)
    deriv[1:] = n[1:] - n[:-1]
    return pa.table({"day_bucket": pa.array(d, pa.int64()),
                     "n_events": pa.array(n, pa.int64()),
                     "deriv": pa.array(deriv, pa.int64(),
                                       mask=np.arange(len(n)) == 0)})


DERIVATIVE_SQL = f"""{_DAILY_HIST_CTES}
SELECT d AS day_bucket, n AS n_events,
       CAST(n - lag(n) OVER (ORDER BY d) AS BIGINT) AS deriv
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
    d, n, _ = _daily(sf_dir)
    lag = SERIAL_DIFF_LAG
    out = np.zeros(len(n), dtype=np.int64)
    out[lag:] = n[lag:] - n[:-lag] if len(n) > lag else 0
    return pa.table({"day_bucket": pa.array(d, pa.int64()),
                     "n_events": pa.array(n, pa.int64()),
                     "sdiff": pa.array(out, pa.int64(),
                                       mask=np.arange(len(n)) < lag)})


SERIAL_DIFF_SQL = f"""{_DAILY_HIST_CTES}
SELECT d AS day_bucket, n AS n_events,
       CAST(n - lag(n, {SERIAL_DIFF_LAG}) OVER (ORDER BY d) AS BIGINT) AS sdiff
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

    d, n, s = _daily(sf_dir)
    # bucket_selector: count > mean daily count (float64 compare,
    # mirrored by the oracle's avg())
    keep = n > n.sum() / len(n) if len(n) else n > 0
    return pa.table({"day_bucket": pa.array(d[keep], pa.int64()),
                     "n_events": pa.array(n[keep], pa.int64()),
                     "avg_cents": pa.array(s[keep].astype(np.float64)
                                           / n[keep], pa.float64())})


BUCKET_SCRIPT_SQL = f"""{_DAILY_HIST_CTES}
SELECT d AS day_bucket, n AS n_events, CAST(s AS DOUBLE) / n AS avg_cents
FROM hist
WHERE n > (SELECT CAST(sum(n) AS DOUBLE) / count(*) FROM hist)
"""


MOVING_DAYS = 7


def moving_window_events(sf_dir: str):
    """Pipeline aggregation (the ES ``moving_fn``/``cumulative_sum``
    family): trailing {MOVING_DAYS}-day event count and value sum over
    the gap-filled daily histogram.  The windowing runs on the REDUCED
    per-day table (one row per day — the same reduced-table discipline
    as date_histogram_events); a sliding-window cumsum-difference is
    O(days), vectorized.  Integer cents keep the sums exact."""

    d, n, s = _daily(sf_dir)
    # gap-filled histogram ⇒ consecutive days ⇒ ROWS window == RANGE
    # window; trailing sum = cumsum(i) - cumsum(i - w)
    w = MOVING_DAYS

    def trail(vals: np.ndarray) -> np.ndarray:
        c = np.cumsum(vals)
        out = c.copy()
        if len(c) > w:
            out[w:] = c[w:] - c[:-w]
        return out

    return pa.table({"day_bucket": pa.array(d, pa.int64()),
                     "n_7d": pa.array(trail(n), type=pa.int64()),
                     "sum_cents_7d": pa.array(trail(s), type=pa.int64())})


MOVING_WINDOW_SQL = f"""{_DAILY_HIST_CTES}
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
    agg = _fold(_read(sf_dir, "orders", ["o_orderpriority", "o_orderstatus"]),
                lambda t: pa.table({"o_orderpriority": t["o_orderpriority"],
                                    "o_orderstatus": t["o_orderstatus"],
                                    "n": _ones(t.num_rows)}),
                "o_orderpriority o_orderstatus", "n")

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
    marked like SQL CUBE — the ROLLUP plan (``_grouping_sets``) with
    one more grouping set."""
    return _grouping_sets(sf_dir, [(True, False), (False, True),
                                   (False, False)])


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
    lo = pa.scalar(np.datetime64("1996-01-01", "us"))
    hi = pa.scalar(np.datetime64("1997-01-01", "us"))

    def partial(t: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.and_(pc.greater_equal(t["l_shipdate"], lo),
                    pc.less(t["l_shipdate"], hi)),
            pc.and_(pc.and_(pc.greater_equal(t["l_discount"],
                                             pa.scalar(0.05)),
                            pc.less_equal(t["l_discount"],
                                          pa.scalar(0.07))),
                    pc.less(t["l_quantity"], pa.scalar(24.0))))
        t = t.filter(keep)
        return pa.table({"revenue_cents": _cents_of(pc.multiply(
                             t["l_extendedprice"], t["l_discount"])),
                         "n_items": _ones(t.num_rows)})

    agg = _fold(_read(sf_dir, "lineitem", ["l_shipdate", "l_discount",
                                           "l_quantity", "l_extendedprice"]),
                partial, "", "revenue_cents n_items")
    # no qualifying row: SQL's sum is NULL, its count 0
    return _table([(agg["revenue_cents"], agg["n_items"] or 0)],
                  "revenue_cents n_items")


Q6_SQL = f"""
SELECT CAST(sum({_cents_sql("l_extendedprice * l_discount")})
            AS BIGINT) AS revenue_cents,
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

    lo = pa.scalar(np.datetime64("1997-09-01", "us"))
    hi = pa.scalar(np.datetime64("1997-10-01", "us"))
    pt = _dim(sf_dir, "part", "p_partkey p_type")
    dim_ref = ray.put(_sorted_map(pt["p_partkey"],
                                  pc.starts_with(pt["p_type"], "PROMO")))

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.greater_equal(t["l_shipdate"], lo),
                             pc.less(t["l_shipdate"], hi)))
        hit, promo = _probe(ray.get(dim_ref), _np(t["l_partkey"]))
        # the inner join: a lineitem with no part row counts nowhere
        cents = _np(_cents_of(_revenue(t)))[hit]
        return pa.table({"promo_cents": np.where(promo[hit], cents, 0),
                         "total_cents": cents})

    agg = _fold(_read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice",
                                           "l_discount", "l_shipdate"]),
                partial, "", "promo_cents total_cents")
    pc_, tc = agg["promo_cents"], agg["total_cents"]
    # floor(x+0.5) = the oracle's half-away round() for this ≥ 0 ratio
    # (np.round is half-to-even — the percentile_ranks exactness rule);
    # no row at all: SQL's sums and ratio are NULL
    share = (None if tc is None else
             int(np.floor(1e6 * 100.0 * pc_ / tc + 0.5)) if tc else 0)
    return _table([(pc_, tc, share)],
                  "promo_cents total_cents promo_share_ppm")


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
    STAGES = ("view", "click", "purchase")

    def stage_events(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["event_type"], value_set=pa.array(STAGES)))
        return pa.table({"user_id": t["user_id"],
                         "ts": t["ts"].cast(pa.int64()),
                         "event_type": t["event_type"]})

    def funnel_bucket(g: pa.Table) -> pa.Table:
        u = _np(g["user_id"])
        ts = _np(g["ts"])
        et = np.asarray(g["event_type"].to_pylist())

        def first_after(stage: str, prev_users, prev_t):
            m = et == stage
            su, sts = u[m], ts[m]
            if prev_users is not None:
                pos, hit = positions_in_sorted(su, prev_users)
                ok = hit & (sts > prev_t[pos]) if len(prev_users) else hit
                su, sts = su[ok], sts[ok]
            o = np.lexsort((sts, su))
            su, sts = su[o], sts[o]
            first = np.ones(len(su), dtype=bool)
            first[1:] = su[1:] != su[:-1]
            return su[first], sts[first]

        users_v, t1 = first_after("view", None, None)
        users_c, t2 = first_after("click", users_v, t1)
        users_p, _ = first_after("purchase", users_c, t2)
        return pa.table({"n_view": [len(users_v)], "n_click": [len(users_c)],
                         "n_purchase": [len(users_p)]})

    cols = "n_view n_click n_purchase"
    agg = _fold(_by_bucket(_map(_read(sf_dir, "events",
                                      ["user_id", "ts", "event_type"]),
                                stage_events), "user_id", funnel_bucket),
                lambda t: t, "", cols)
    return _table([tuple(int(agg[c] or 0) for c in cols.split())], cols)


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
    A, B = "view", "purchase"

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["event_type"], value_set=pa.array([A, B])))
        is_a = pc.cast(pc.equal(t["event_type"], pa.scalar(A)), pa.int64())
        return pa.table({"cents": _cents_of(t["value"]), "n_v": is_a,
                         "n_p": pc.subtract(pa.scalar(1, pa.int64()), is_a)})

    t = collect(_fold(_read(sf_dir, "events", ["event_type", "value"]),
                       partial, "cents", "n_v n_p"),
                 "cents n_v n_p").sort_by("cents")
    cv, cp = np.cumsum(_np(t["n_v"])), np.cumsum(_np(t["n_p"]))
    if not len(cv):
        # no event of either class: the oracle's empty cross join
        return _table([], "n_view n_purchase d_num d:f64")
    tot_v, tot_p = int(cv[-1]), int(cp[-1])
    d_num = int(np.abs(cv * tot_p - cp * tot_v).max())
    d = (d_num / float(tot_v * tot_p)) if tot_v and tot_p else 0.0
    return _table([(tot_v, tot_p, d_num, d)], "n_view n_purchase d_num d:f64")


KS_TEST_SQL = f"""
WITH c AS (SELECT {_VALUE_CENTS} AS cents,
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
    def user_weeks(t: pa.Table) -> pa.Table:
        return pa.table({"user_id": t["user_id"], "wk": pa.array(
            _np(t["ts"].cast(pa.int64())) // _WEEK_US, pa.int64())})

    def cohort_bucket(g: pa.Table) -> pa.Table:
        u, wk = _np(g["user_id"]), _np(g["wk"])
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
        key = cw * 10_000 + (dwk - cw)      # offsets ≪ 10k by range
        ukey, cnt = np.unique(key, return_counts=True)
        return pa.table({
            "cohort_week": pa.array(ukey // 10_000, pa.int64()),
            "week_offset": pa.array(ukey % 10_000, pa.int64()),
            "n_users": pa.array(cnt.astype(np.int64))})

    return _fold(_by_bucket(_map(_read(sf_dir, "events", ["user_id", "ts"]),
                                 user_weeks), "user_id", cohort_bucket),
                 lambda t: t, "cohort_week week_offset", "n_users")


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
    def partial(t: pa.Table) -> pa.Table:
        cents = _np(_cents_of(t["value"]))
        return pa.table({
            "value_cents": pa.array(PR_TARGETS_CENTS, pa.int64()),
            "n_le": pa.array([int((cents <= v).sum())
                              for v in PR_TARGETS_CENTS], pa.int64()),
            "n_total": pa.array([len(cents)] * len(PR_TARGETS_CENTS),
                                pa.int64())})

    t = collect(_fold(_read(sf_dir, "events", ["value"]), partial,
                       "value_cents", "n_le n_total"),
                 "value_cents n_le n_total").sort_by("value_cents")
    # np.round is half-to-even; SQL round() is half-away — ppm ≥ 0 so
    # floor(x + 0.5) IS half-away here (the repo's exactness rule)
    ppm = np.floor(1_000_000.0 * _np(t["n_le"])
                   / np.maximum(_np(t["n_total"]), 1) + 0.5)
    return t.append_column("rank_ppm", pa.array(ppm.astype(np.int64)))


PERCENTILE_RANKS_SQL = f"""
WITH c AS (SELECT {_VALUE_CENTS} AS cents
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

    n1, n2 = "NATION_3", "NATION_19"
    lo = pa.scalar(np.datetime64("1996-01-01", "us"))
    hi = pa.scalar(np.datetime64("1998-01-01", "us"))

    nat = _dim(sf_dir, "nation", "n_nationkey n_name")
    nmap = dict(zip(nat["n_nationkey"].to_pylist(),
                    nat["n_name"].to_pylist()))
    # broadcast compact int64 key→nationkey maps (the Q5 precedent);
    # names resolve ONCE on the tiny final aggregate, never per row —
    # a |customer|-sized unicode broadcast is pure object-store waste
    nk1, nk2 = ({v: k for k, v in nmap.items()}.get(n, -1) for n in (n1, n2))
    sup = _dim(sf_dir, "supplier", "s_suppkey s_nationkey")
    cus = _dim(sf_dir, "customer", "c_custkey c_nationkey")
    dim_ref = ray.put((_sorted_map(sup["s_suppkey"], sup["s_nationkey"]),
                       _sorted_map(cus["c_custkey"], cus["c_nationkey"])))

    def li_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.greater_equal(t["l_shipdate"], lo),
                             pc.less(t["l_shipdate"], hi)))
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "l_suppkey": t["l_suppkey"],
                         "cents": _cents_of(_revenue(t)),
                         "l_year": pc.year(t["l_shipdate"]).cast(pa.int64())})

    def rev_partial(t: pa.Table) -> pa.Table:
        smap, cmap = ray.get(dim_ref)
        s_hit, s_nat = _probe(smap, _np(t["l_suppkey"]))
        c_hit, c_nat = _probe(cmap, _np(t["o_custkey"]))
        ok = pa.array(s_hit & c_hit & (((s_nat == nk1) & (c_nat == nk2))
                                       | ((s_nat == nk2) & (c_nat == nk1))))
        return pa.table({"supp_nk": pa.array(s_nat, pa.int64()).filter(ok),
                         "cust_nk": pa.array(c_nat, pa.int64()).filter(ok),
                         "l_year": t["l_year"].filter(ok),
                         "revenue_cents": t["cents"].filter(ok)})

    li = _map(_read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey",
                                         "l_extendedprice", "l_discount",
                                         "l_shipdate"]), li_partial)
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    j = _join(sf_dir, "lineitem orders", li, orders, "l_orderkey",
              "o_orderkey")
    t = collect(_fold(j, rev_partial, "supp_nk cust_nk l_year",
                       "revenue_cents"),
                 "supp_nk cust_nk l_year revenue_cents")
    t = pa.table({"supp_nation": pa.array(
                      [nmap[x] for x in t["supp_nk"].to_pylist()],
                      pa.string()),
                  "cust_nation": pa.array(
                      [nmap[x] for x in t["cust_nk"].to_pylist()],
                      pa.string()),
                  "l_year": t["l_year"],
                  "revenue_cents": t["revenue_cents"]})
    return t.sort_by([("supp_nation", "ascending"),
                      ("cust_nation", "ascending"), ("l_year", "ascending")])


Q7_SQL = f"""
SELECT s_nat.n_name AS supp_nation,
       c_nat.n_name AS cust_nation,
       CAST(year(l_shipdate) AS BIGINT) AS l_year,
       CAST(sum({_REV_CENTS}) AS BIGINT) AS revenue_cents
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

    target_nation, region_name, p_type = "NATION_3", "ASIA", "PROMO"
    lo = pa.scalar(np.datetime64("1995-01-01", "us"))
    hi = pa.scalar(np.datetime64("1997-01-01", "us"))

    nat = _dim(sf_dir, "nation", "n_nationkey n_name n_regionkey")
    reg = _dim(sf_dir, "region", "r_regionkey r_name")
    rkeys = reg.filter(pc.equal(reg["r_name"], region_name))["r_regionkey"]
    region_nations = np.sort(_np(nat.filter(pc.is_in(
        nat["n_regionkey"], value_set=rkeys.combine_chunks()))["n_nationkey"]
        ).astype(np.int64))
    nk_target = {n: k for k, n in zip(nat["n_nationkey"].to_pylist(),
                                      nat["n_name"].to_pylist())
                 }.get(target_nation, -1)
    part = _dim(sf_dir, "part", "p_partkey p_type")
    pkeys = np.sort(_np(part.filter(pc.equal(part["p_type"], p_type))
                        ["p_partkey"]).astype(np.int64))
    sup = _dim(sf_dir, "supplier", "s_suppkey s_nationkey")
    cus = _dim(sf_dir, "customer", "c_custkey c_nationkey")
    dim_ref = ray.put((pkeys,
                       _sorted_map(sup["s_suppkey"], sup["s_nationkey"]),
                       _sorted_map(cus["c_custkey"], cus["c_nationkey"]),
                       region_nations))

    def li_partial(t: pa.Table) -> pa.Table:
        pk, smap, _, _ = ray.get(dim_ref)
        t = t.filter(pa.array(positions_in_sorted(_np(t["l_partkey"]), pk)[1]))
        s_hit, s_nat = _probe(smap, _np(t["l_suppkey"]))
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "cents": _cents_of(_revenue(t)),
                         "is_target": pa.array(s_hit & (s_nat == nk_target))})

    def ord_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.greater_equal(t["o_orderdate"], lo),
                             pc.less(t["o_orderdate"], hi)))
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "o_custkey": t["o_custkey"],
                         "o_year": pc.year(t["o_orderdate"]).cast(pa.int64())})

    def share_partial(t: pa.Table) -> pa.Table:
        _, _, cmap, rnat = ray.get(dim_ref)
        c_hit, c_nat = _probe(cmap, _np(t["o_custkey"]))
        ok = c_hit & np.isin(c_nat, rnat)
        cents = _np(t["cents"])[ok]
        return pa.table({"o_year": pa.array(_np(t["o_year"])[ok], pa.int64()),
                         "nation_cents": pa.array(np.where(
                             _np(t["is_target"])[ok], cents, 0), pa.int64()),
                         "total_cents": pa.array(cents, pa.int64())})

    li = _map(_read(sf_dir, "lineitem", ["l_orderkey", "l_partkey",
                                         "l_suppkey", "l_extendedprice",
                                         "l_discount"]), li_partial)
    orders = _map(_read(sf_dir, "orders",
                        ["o_orderkey", "o_custkey", "o_orderdate"]),
                  ord_partial)
    j = _join(sf_dir, "lineitem orders part", li, orders, "l_orderkey",
              "o_orderkey")
    t = collect(_fold(j, share_partial, "o_year",
                       "nation_cents total_cents"),
                 "o_year nation_cents total_cents").sort_by("o_year")
    return t.append_column("mkt_share", pc.divide(
        pc.cast(t["nation_cents"], pa.float64()),
        pc.cast(t["total_cents"], pa.float64())))


Q8_SQL = f"""
WITH vol AS (
  SELECT CAST(year(o_orderdate) AS BIGINT) AS o_year,
         {_REV_CENTS} AS cents,
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


_Q21_LATE_DAYS = 365          # Q21_SQL's INTERVAL 365 DAY


def q21_waiting_suppliers(sf_dir: str):
    """TPC-H Q21 shape (suppliers who kept orders waiting): for
    finished multi-supplier orders, find the supplier who was the
    ONLY late one — the EXISTS(other supplier) / NOT EXISTS(other
    late supplier) correlated pair, composed from one shuffle join
    plus one bucketed groupby.

    ADAPTED PREDICATE (documented): the reference TPC-H lateness
    l_receiptdate > l_commitdate uses columns this corpus does not
    carry; here late = l_shipdate > o_orderdate + 365 days.  The
    operator composition (fact⋈fact join, per-order correlated
    quantifiers, per-supplier count) is the point, and the oracle
    applies the identical predicate.

    Vectorized per ``_by_bucket`` group of orders: lexsort (orderkey,
    suppkey) → per-pair any-late collapse → per-order distinct/late
    counts → emit the lone late supplier of each qualifying order."""
    late = np.timedelta64(_Q21_LATE_DAYS, "D")

    def finished(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["o_orderstatus"], "F")).select(
            ["o_orderkey", "o_orderdate"])

    def flag_late(t: pa.Table) -> pa.Table:
        is_late = _np(t["l_shipdate"]) > _np(t["o_orderdate"]) + late
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "l_suppkey": t["l_suppkey"],
                         "late": pa.array(is_late.astype(np.int8))})

    def lone_late_of_group(g: pa.Table) -> pa.Table:
        ok, sk, lt = _np(g["l_orderkey"]), _np(g["l_suppkey"]), _np(g["late"])
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
        return pa.table({"l_suppkey": pa.array(p_sk[keep], pa.int64()),
                         "numwait": _ones(int(keep.sum()))})

    orders = _map(_read(sf_dir, "orders",
                        ["o_orderkey", "o_orderdate", "o_orderstatus"]),
                  finished)
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_shipdate"])
    j = _join(sf_dir, "lineitem orders", li, orders, "l_orderkey",
              "o_orderkey")
    t = collect(_fold(_by_bucket(_map(j, flag_late), "l_orderkey",
                                  lone_late_of_group),
                       lambda t: t, "l_suppkey", "numwait"),
                 "l_suppkey numwait")
    sup = _dim(sf_dir, "supplier", "s_suppkey s_name")
    smap = dict(zip(sup["s_suppkey"].to_pylist(), sup["s_name"].to_pylist()))
    t = pa.table({"s_name": pa.array(
                      [smap[k] for k in t["l_suppkey"].to_pylist()],
                      pa.string()),
                  "numwait": t["numwait"]})
    return t.sort_by([("numwait", "descending"), ("s_name", "ascending")])


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
    lo = pa.scalar(np.datetime64("1996-01-01", "us"))
    hi = pa.scalar(np.datetime64("1996-04-01", "us"))

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.greater_equal(t["l_shipdate"], lo),
                             pc.less(t["l_shipdate"], hi)))
        return pa.table({"l_suppkey": t["l_suppkey"],
                         "total_revenue_cents": _cents_of(_revenue(t))})

    t = collect(_fold(_read(sf_dir, "lineitem", ["l_suppkey",
                                                  "l_extendedprice",
                                                  "l_discount", "l_shipdate"]),
                       partial, "l_suppkey", "total_revenue_cents"),
                 "l_suppkey total_revenue_cents")
    rev = t["total_revenue_cents"]
    best = t.filter(pc.equal(rev, pc.max(rev)))
    sup = _dim(sf_dir, "supplier", "s_suppkey s_name")
    smap = dict(zip(sup["s_suppkey"].to_pylist(), sup["s_name"].to_pylist()))
    return pa.table({
        "s_suppkey": best["l_suppkey"],
        "s_name": pa.array([smap[x] for x in best["l_suppkey"].to_pylist()],
                           pa.string()),
        "total_revenue_cents": best["total_revenue_cents"]}
        ).sort_by("s_suppkey")


Q15_SQL = f"""
WITH revenue AS (
  SELECT l_suppkey AS supplier_no,
         CAST(sum({_REV_CENTS}) AS BIGINT) AS total_revenue_cents
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

    pt = _dim(sf_dir, "part", "p_partkey p_brand")
    bref = ray.put(np.sort(_np(pt.filter(pc.equal(
        pt["p_brand"], "Brand#23"))["p_partkey"])))

    def q100_of(t: pa.Table) -> np.ndarray:
        return np.floor(_np(t["l_quantity"]) * 100.0 + 0.5).astype(np.int64)

    def q_partial(t: pa.Table) -> pa.Table:
        pk = _np(t["l_partkey"])
        hit = positions_in_sorted(pk, ray.get(bref))[1]
        return pa.table({"l_partkey": pa.array(pk[hit], pa.int64()),
                         "sum_q100": pa.array(q100_of(t)[hit], pa.int64()),
                         "n": _ones(int(hit.sum()))})

    # pass 1 reads only the two columns it uses; l_extendedprice is
    # decoded only by the revenue pass
    avg_t = collect(_fold(_read(sf_dir, "lineitem",
                                 ["l_partkey", "l_quantity"]),
                           q_partial, "l_partkey", "sum_q100 n"),
                     "l_partkey sum_q100 n")
    if not avg_t.num_rows:   # brand matches nothing → sum is 0, like the
        return _table([(0, 0)],   # oracle's coalesce(sum(cents), 0)
                      "sum_cents avg_yearly_millicents")
    avg_ref = ray.put(_sorted_map(avg_t["l_partkey"], avg_t["sum_q100"],
                                  avg_t["n"]))

    def rev_partial(t: pa.Table) -> pa.Table:
        hit, sq, n = _probe(ray.get(avg_ref), _np(t["l_partkey"]))
        # qty < 0.2·avg  ⇔  q100/100 < (sq/100)/(5n)  ⇔  5·q100·n < sq
        ok = hit & (5 * q100_of(t) * n < sq)
        return pa.table({"cents": _np(_cents_of(t["l_extendedprice"]))[ok]})

    total = _fold(_read(sf_dir, "lineitem", ["l_partkey", "l_quantity",
                                             "l_extendedprice"]),
                  rev_partial, "", "cents")["cents"] or 0
    # avg yearly = sum/7: carry ×1000 to stay integer-exact
    return _table([(int(total), int(np.floor(1000.0 * total / 7.0 + 0.5)))],
                  "sum_cents avg_yearly_millicents")


Q17_SQL = f"""
WITH avg_q AS (
  SELECT l_partkey,
         CAST(sum({_cents_sql("l_quantity")}) AS BIGINT) AS sum_q100,
         CAST(count(*) AS BIGINT) AS n
  FROM lineitem JOIN part ON p_partkey = l_partkey
  WHERE p_brand = 'Brand#23'
  GROUP BY l_partkey),
hits AS (
  SELECT {_cents_sql("l_extendedprice")} AS cents
  FROM lineitem
  JOIN avg_q ON avg_q.l_partkey = lineitem.l_partkey
  WHERE 5 * {_cents_sql("l_quantity")} * n < sum_q100)
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
    def o_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.invert(pc.equal(t["o_orderpriority"], "1-URGENT")))
        return pa.table({"o_custkey": t["o_custkey"],
                         "c_count": _ones(t.num_rows)})

    counts = _fold(_read(sf_dir, "orders", ["o_custkey", "o_orderpriority"]),
                   o_partial, "o_custkey", "c_count")
    # all orders filtered away → empty aggregate, distribution is one
    # all-zero bucket (the left join keeps every customer)
    t = collect(_fold(counts, lambda t: pa.table({
        "c_count": t["c_count"], "custdist": _ones(t.num_rows)}),
        "c_count", "custdist"), "c_count custdist")
    n_zero = (_read(sf_dir, "customer", ["c_custkey"]).count()
              - int(pc.sum(t["custdist"]).as_py() or 0))
    if n_zero > 0:
        t = pa.concat_tables([t, _table([(0, n_zero)], "c_count custdist")])
    return t.sort_by([("custdist", "descending"), ("c_count", "descending")])


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

    pt = _dim(sf_dir, "part", "p_partkey p_brand p_size")
    dim_ref = ray.put(_sorted_map(pt["p_partkey"], pt["p_brand"],
                                  pt["p_size"]))
    branches = (("Brand#12", 1, 15, 1.0, 11.0),
                ("Brand#23", 1, 25, 10.0, 20.0),
                ("Brand#34", 1, 35, 20.0, 30.0))

    def partial(t: pa.Table) -> pa.Table:
        hit, br, sz = _probe(ray.get(dim_ref), _np(t["l_partkey"]))
        qty = _np(t["l_quantity"])
        mask = np.zeros(len(qty), dtype=bool)
        for b, s_lo, s_hi, q_lo, q_hi in branches:
            mask |= (hit & (br == b) & (sz >= s_lo) & (sz <= s_hi)
                     & (qty >= q_lo) & (qty <= q_hi))
        return pa.table({"revenue_cents": _np(_cents_of(_revenue(t)))[mask]})

    # no qualifying row: SQL's sum is NULL
    return _table([(_fold(_read(sf_dir, "lineitem",
                                ["l_partkey", "l_quantity",
                                 "l_extendedprice", "l_discount"]),
                          partial, "", "revenue_cents")["revenue_cents"],)],
                  "revenue_cents")


Q19_SQL = f"""
SELECT CAST(sum({_REV_CENTS}) AS BIGINT) AS revenue_cents
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

    def bal_partial(t: pa.Table) -> pa.Table:
        cents = _np(_cents_of(t["c_acctbal"]))
        pos = cents > 0
        return pa.table({"s": cents[pos], "n": pos[pos].astype(np.int64)})

    bal = _fold(_read(sf_dir, "customer", ["c_acctbal"]), bal_partial, "",
                "s n")
    s_total, n_total = int(bal["s"] or 0), int(bal["n"] or 0)

    def u_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["o_orderpriority"], "1-URGENT"))
        return pa.table({"o_custkey": pc.unique(t["o_custkey"])})

    urgent_ref = ray.put(np.unique(_np(collect(_map(
        _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"]), u_partial),
        "o_custkey")["o_custkey"])))

    def partial(t: pa.Table) -> pa.Table:
        cents = _np(_cents_of(t["c_acctbal"]))
        has_urgent = positions_in_sorted(_np(t["c_custkey"]),
                                         ray.get(urgent_ref))[1]
        keep = (cents * n_total > s_total) & ~has_urgent
        return pa.table({"c_nationkey": t["c_nationkey"].filter(
                             pa.array(keep)),
                         "numcust": _ones(int(keep.sum())),
                         "totacctbal_cents": pa.array(cents[keep],
                                                      pa.int64())})

    return collect(_fold(_read(sf_dir, "customer",
                                ["c_custkey", "c_nationkey", "c_acctbal"]),
                          partial, "c_nationkey", "numcust totacctbal_cents"),
                    "c_nationkey numcust totacctbal_cents"
                    ).sort_by("c_nationkey")


Q22_SQL = f"""
WITH bal AS (
  SELECT CAST(sum(CASE WHEN cents > 0 THEN cents ELSE 0 END) AS BIGINT) AS s,
         CAST(sum(CASE WHEN cents > 0 THEN 1 ELSE 0 END) AS BIGINT) AS n
  FROM (SELECT {_cents_sql("c_acctbal")} AS cents
        FROM customer)),
eligible AS (
  SELECT c_nationkey, {_cents_sql("c_acctbal")} AS cents
  FROM customer, bal
  WHERE {_cents_sql("c_acctbal")} * bal.n > bal.s
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


Q14_SQL = f"""
WITH c AS (
  SELECT {_REV_CENTS} AS cents,
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

    lo = pa.scalar(np.datetime64("1996-01-01", "us"))
    hi = pa.scalar(np.datetime64("1997-01-01", "us"))

    region = _dim(sf_dir, "region", "r_regionkey r_name")
    nat = _dim(sf_dir, "nation", "n_nationkey n_name n_regionkey")
    nat = nat.filter(pc.is_in(nat["n_regionkey"], value_set=region.filter(
        pc.equal(region["r_name"], "ASIA"))["r_regionkey"].combine_chunks()))
    nkeys = _np(nat["n_nationkey"])
    name_of = dict(zip(nkeys.tolist(), nat["n_name"].to_pylist()))
    cus = _dim(sf_dir, "customer", "c_custkey c_nationkey")
    sup = _dim(sf_dir, "supplier", "s_suppkey s_nationkey")
    dim_ref = ray.put((_sorted_map(cus["c_custkey"], cus["c_nationkey"]),
                       _sorted_map(sup["s_suppkey"], sup["s_nationkey"]),
                       np.sort(nkeys)))

    def filter_orders(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.greater_equal(t["o_orderdate"], lo),
                       pc.less(t["o_orderdate"], hi))
        return t.filter(keep).select(["o_orderkey", "o_custkey"])

    def li_project(t: pa.Table) -> pa.Table:
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "l_suppkey": t["l_suppkey"],
                         "cents": _cents_of(_revenue(t))})

    def local_partial(t: pa.Table) -> pa.Table:
        cmap, smap, nk = ray.get(dim_ref)
        # checked probes (inner-join semantics): a dangling key drops
        # the row, never credits the lexically nearest customer /
        # supplier's nation
        chit, cnat = _probe(cmap, _np(t["o_custkey"]))
        shit, snat = _probe(smap, _np(t["l_suppkey"]))
        keep = chit & shit & (cnat == snat) & np.isin(cnat, nk)
        return pa.table({"nationkey": pa.array(cnat[keep], pa.int64()),
                         "revenue_cents": t["cents"].filter(pa.array(keep))})

    orders = _map(_read(sf_dir, "orders",
                        ["o_orderkey", "o_custkey", "o_orderdate"]),
                  filter_orders)
    li = _map(_read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey",
                                         "l_extendedprice", "l_discount"]),
              li_project)
    j = _join(sf_dir, "lineitem orders", li, orders, "l_orderkey",
              "o_orderkey")
    t = collect(_fold(j, local_partial, "nationkey", "revenue_cents"),
                 "nationkey revenue_cents")
    return pa.table({"n_name": pa.array([name_of[k] for k in
                                         t["nationkey"].to_pylist()],
                                        pa.string()),
                     "revenue_cents": t["revenue_cents"]}).sort_by(
        [("revenue_cents", "descending"), ("n_name", "ascending")])


Q5_SQL = f"""
SELECT n_name,
       CAST(sum({_REV_CENTS}) AS BIGINT) AS revenue_cents
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
    lo = pa.scalar(np.datetime64("1996-07-01", "us"))
    hi = pa.scalar(np.datetime64("1996-10-01", "us"))

    witness = _fold(_read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"]),
                    lambda t: pa.table({"l_orderkey": t["l_orderkey"],
                                        "max_ship": t["l_shipdate"]}),
                    "l_orderkey", "max_ship:max")

    def filter_orders(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.greater_equal(t["o_orderdate"], lo),
                       pc.less(t["o_orderdate"], hi))
        return t.filter(keep).select(
            ["o_orderkey", "o_orderdate", "o_orderpriority"])

    def count_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["max_ship"], t["o_orderdate"]))
        return pa.table({"o_orderpriority": t["o_orderpriority"],
                         "order_count": _ones(t.num_rows)})

    orders = _map(_read(sf_dir, "orders",
                        ["o_orderkey", "o_orderdate", "o_orderpriority"]),
                  filter_orders)
    j = _join(sf_dir, "orders lineitem", orders, witness, "o_orderkey",
              "l_orderkey")
    return collect(_fold(j, count_partial, "o_orderpriority", "order_count"),
                    "o_orderpriority:str order_count"
                    ).sort_by("o_orderpriority")


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
    lo = pa.scalar(np.datetime64("1996-01-01", "us"))
    hi = pa.scalar(np.datetime64("1996-04-01", "us"))

    def li_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["l_returnflag"], "R"))
        return (pa.table({"l_orderkey": t["l_orderkey"],
                          "cents": _cents_of(_revenue(t))})
                .group_by("l_orderkey").aggregate([("cents", "sum")])
                .rename_columns(["l_orderkey", "cents"]))

    def filter_orders(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.greater_equal(t["o_orderdate"], lo),
                       pc.less(t["o_orderdate"], hi))
        return t.filter(keep).select(["o_orderkey", "o_custkey"])

    li = _map(_read(sf_dir, "lineitem", ["l_orderkey", "l_returnflag",
                                         "l_extendedprice", "l_discount"]),
              li_partial)
    orders = _map(_read(sf_dir, "orders",
                        ["o_orderkey", "o_custkey", "o_orderdate"]),
                  filter_orders)
    j = _join(sf_dir, "lineitem orders", li, orders, "l_orderkey",
              "o_orderkey")
    per_cust = _fold(j, lambda t: pa.table({"o_custkey": t["o_custkey"],
                                            "revenue_cents": t["cents"]}),
                     "o_custkey", "revenue_cents")
    by = [("revenue_cents", "descending"), ("o_custkey", "ascending")]
    top = _top(collect(_map(per_cust, lambda t: _top(t, by, 20)),
                        "o_custkey revenue_cents"), by, 20)

    cust = _dim(sf_dir, "customer", "c_custkey c_name c_nationkey")
    nat = _dim(sf_dir, "nation", "n_nationkey n_name")
    cmap = {k: (nm, nk) for k, nm, nk in zip(
        cust["c_custkey"].to_pylist(), cust["c_name"].to_pylist(),
        cust["c_nationkey"].to_pylist())}
    nmap = dict(zip(nat["n_nationkey"].to_pylist(),
                    nat["n_name"].to_pylist()))
    cks = top["o_custkey"].to_pylist()
    return pa.table({
        "c_custkey": top["o_custkey"],
        "c_name": pa.array([cmap[k][0] for k in cks], pa.string()),
        "n_name": pa.array([nmap[cmap[k][1]] for k in cks], pa.string()),
        "revenue_cents": top["revenue_cents"]})


Q10_SQL = f"""
SELECT c_custkey, c_name, n_name,
       CAST(sum({_REV_CENTS}) AS BIGINT) AS revenue_cents
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
    def partial(t: pa.Table) -> pa.Table:
        x = _cents_of(t["l_quantity"], 1)
        y = _cents_of(t["l_extendedprice"])
        return pa.table({"l_returnflag": t["l_returnflag"],
                         "n": _ones(t.num_rows), "sx": x, "sy": y,
                         "sxx": pc.multiply(x, x), "syy": pc.multiply(y, y),
                         "sxy": pc.multiply(x, y)})

    t = collect(_fold(_read(sf_dir, "lineitem", ["l_returnflag",
                                                  "l_quantity",
                                                  "l_extendedprice"]),
                       partial, "l_returnflag", "n sx sy sxx syy sxy"),
                 "l_returnflag:str n sx sy sxx syy sxy")
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
    return _table(sorted(rows), "l_returnflag:str n mean_qty:f64 "
                  "mean_cents:f64 covariance:f64 correlation:f64")


MATRIX_STATS_SQL = f"""
WITH m AS (
  SELECT l_returnflag,
         CAST(count(*) AS DOUBLE) AS n,
         CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS DOUBLE) AS sx,
         CAST(sum({_PRICE_CENTS})
              AS DOUBLE) AS sy,
         CAST(sum(CAST(round(l_quantity) AS BIGINT)
                  * CAST(round(l_quantity) AS BIGINT)) AS DOUBLE) AS sxx,
         CAST(sum({_PRICE_CENTS}
                  * {_PRICE_CENTS})
              AS DOUBLE) AS syy,
         CAST(sum(CAST(round(l_quantity) AS BIGINT)
                  * {_PRICE_CENTS})
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
    def partial(t: pa.Table) -> pa.Table:
        q = _cents_of(t["l_quantity"], 1)
        return pa.table({"l_returnflag": t["l_returnflag"],
                         "wsum": pc.multiply(_cents_of(t["l_extendedprice"]),
                                             q), "w": q})

    t = collect(_fold(_read(sf_dir, "lineitem", ["l_returnflag",
                                                  "l_quantity",
                                                  "l_extendedprice"]),
                       partial, "l_returnflag", "wsum w"),
                 "l_returnflag:str wsum w")
    return _table(sorted((r["l_returnflag"], int(r["w"]),
                          float(r["wsum"]) / float(r["w"]))
                         for r in t.to_pylist()),
                  "l_returnflag:str total_weight weighted_avg_cents:f64")


WEIGHTED_AVG_SQL = f"""
SELECT l_returnflag,
       CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT)
         AS total_weight,
       CAST(sum({_PRICE_CENTS}
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
    lo = pa.scalar(np.datetime64("1997-01-01", "us"))
    hi = pa.scalar(np.datetime64("1998-01-01", "us"))

    def li_filter(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.greater_equal(t["l_shipdate"], lo),
                       pc.less(t["l_shipdate"], hi))
        return t.filter(keep).select(["l_orderkey", "l_linestatus"])

    def partial(t: pa.Table) -> pa.Table:
        hi_i = pc.cast(pc.is_in(t["o_orderpriority"], value_set=pa.array(
            ["1-URGENT", "2-HIGH"])), pa.int64())
        return pa.table({"l_linestatus": t["l_linestatus"],
                         "high_line_count": hi_i,
                         "low_line_count": pc.subtract(
                             pa.scalar(1, pa.int64()), hi_i)})

    li = _map(_read(sf_dir, "lineitem", ["l_orderkey", "l_linestatus",
                                         "l_shipdate"]), li_filter)
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    j = _join(sf_dir, "lineitem orders", li, orders, "l_orderkey",
              "o_orderkey")
    return collect(_fold(j, partial, "l_linestatus",
                          "high_line_count low_line_count"),
                    "l_linestatus:str high_line_count low_line_count"
                    ).sort_by("l_linestatus")


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
    import ray

    part = _dim(sf_dir, "part", "p_partkey p_name")
    pk = np.sort(_np(part.filter(pc.match_substring(
        part["p_name"], "widget"))["p_partkey"]))
    nat = _dim(sf_dir, "nation", "n_nationkey n_name")
    nmap = dict(zip(nat["n_nationkey"].to_pylist(),
                    nat["n_name"].to_pylist()))
    sup = _dim(sf_dir, "supplier", "s_suppkey s_nationkey")
    dim_ref = ray.put((pk, _sorted_map(sup["s_suppkey"], sup["s_nationkey"])))

    def li_partial(t: pa.Table) -> pa.Table:
        keys, smap = ray.get(dim_ref)
        t = t.filter(pa.array(positions_in_sorted(_np(t["l_partkey"]),
                                                  keys)[1]))
        # checked probe: a dangling l_suppkey drops (inner join), it
        # must not inherit the nearest supplier's nation
        hit, nat_k = _probe(smap, _np(t["l_suppkey"]))
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "nat_k": pa.array(nat_k, pa.int64()),
                         "cents": _cents_of(_revenue(t))}
                        ).filter(pa.array(hit))

    li = _map(_read(sf_dir, "lineitem", ["l_orderkey", "l_partkey",
                                         "l_suppkey", "l_extendedprice",
                                         "l_discount"]), li_partial)
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])
    j = _join(sf_dir, "lineitem orders", li, orders, "l_orderkey",
              "o_orderkey")
    t = collect(_fold(j, lambda t: pa.table({
        "nat_k": t["nat_k"], "o_year": pc.year(t["o_orderdate"]).cast(
            pa.int64()), "profit_cents": t["cents"]}),
        "nat_k o_year", "profit_cents"), "nat_k o_year profit_cents")
    t = pa.table({"nation": pa.array(
                      [nmap[x] for x in t["nat_k"].to_pylist()],
                      pa.string()),
                  "o_year": t["o_year"], "profit_cents": t["profit_cents"]})
    return t.sort_by([("nation", "ascending"), ("o_year", "descending")])


Q9_SQL = f"""
SELECT n_name AS nation,
       CAST(year(o_orderdate) AS BIGINT) AS o_year,
       CAST(sum({_REV_CENTS}) AS BIGINT) AS profit_cents
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
    import ray
    from ray.data.aggregate import Count

    part = _dim(sf_dir, "part", "p_partkey p_brand p_type p_size")
    part = part.filter(pc.and_(pc.and_(
        pc.not_equal(part["p_brand"], "Brand#13"),
        pc.not_equal(part["p_type"], "PROMO")),
        pc.is_in(part["p_size"],
                 value_set=pa.array([1, 14, 23, 45], part["p_size"].type))))
    sup = _dim(sf_dir, "supplier", "s_suppkey s_name")
    bad = np.sort(_np(sup.filter(pc.match_like(sup["s_name"], "%7"))
                      ["s_suppkey"]))
    dim_ref = ray.put((_sorted_map(part["p_partkey"], part["p_brand"],
                                   part["p_type"], part["p_size"]), bad))
    cls = ["p_brand", "p_type", "p_size"]

    def class_pairs(t: pa.Table) -> pa.Table:
        pmap, badk = ray.get(dim_ref)
        ls = _np(t["l_suppkey"])
        ok, brand, ptype, size = _probe(pmap, _np(t["l_partkey"]))
        ok &= ~positions_in_sorted(ls, badk)[1]
        t2 = pa.table({"p_brand": pa.array(brand[ok]),
                       "p_type": pa.array(ptype[ok]),
                       "p_size": pa.array(size[ok]),
                       "l_suppkey": pa.array(ls[ok])})
        return t2.group_by(cls + ["l_suppkey"]).aggregate([])

    pairs = (_map(_read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"]),
                  class_pairs)
             .groupby(cls + ["l_suppkey"])
             .aggregate(Count(alias_name="_n")))
    return collect(_fold(pairs, lambda t: pa.table(
        {**{c: t[c] for c in cls}, "supplier_cnt": _ones(t.num_rows)}),
        " ".join(cls), "supplier_cnt"),
        "p_brand:str p_type:str p_size supplier_cnt").sort_by(
        [("supplier_cnt", "descending"), ("p_brand", "ascending"),
         ("p_type", "ascending"), ("p_size", "ascending")])


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


_Q11_PPM = 600                # Q11_SQL's threshold: 600 ppm of the total


def q11_important_parts(sf_dir: str):
    """TPC-H Q11 shape (important stock): per-part total value with a
    HAVING threshold against a GLOBAL scalar aggregate — keep parts
    whose value exceeds ``_Q11_PPM``/1e6 of the total.  Per-batch
    partial sums → one groupby; the global total is the sum of the
    (|part|-sized, tiny) aggregate itself; threshold compares integers
    exactly (value_cents × 1e6 > total_cents × ppm), no float
    epsilon."""
    t = collect(_fold(_read(sf_dir, "lineitem", ["l_partkey",
                                                  "l_extendedprice"]),
                       lambda t: pa.table({
                           "l_partkey": t["l_partkey"],
                           "value_cents": _cents_of(t["l_extendedprice"])}),
                       "l_partkey", "value_cents"),
                 "l_partkey value_cents")
    vals = _np(t["value_cents"]).astype(np.int64)
    keep = vals.astype(object) * 1_000_000 > int(vals.sum()) * _Q11_PPM
    return t.filter(pa.array(keep.astype(bool))).sort_by(
        [("value_cents", "descending"), ("l_partkey", "ascending")])


Q11_SQL = f"""
SELECT l_partkey,
       CAST(sum({_PRICE_CENTS})
            AS BIGINT) AS value_cents
FROM lineitem
GROUP BY l_partkey
HAVING sum({_PRICE_CENTS}) * 1000000
       > (SELECT sum({_PRICE_CENTS})
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
    import ray

    part = _dim(sf_dir, "part", "p_partkey p_name")
    pk_ref = ray.put(np.sort(_np(part.filter(pc.match_like(
        part["p_name"], "red %"))["p_partkey"])))
    lo = pa.scalar(np.datetime64("1997-01-01", "us"))
    hi = pa.scalar(np.datetime64("1998-01-01", "us"))

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.and_(pc.greater_equal(t["l_shipdate"], lo),
                             pc.less(t["l_shipdate"], hi)))
        t = t.filter(pa.array(positions_in_sorted(_np(t["l_partkey"]),
                                                  ray.get(pk_ref))[1]))
        # l_quantity values are integral doubles — the sum is exact in
        # any order, so int64 quantities survive the shuffle losslessly
        return pa.table({"l_suppkey": t["l_suppkey"],
                         "qty": pc.cast(pc.round(t["l_quantity"]),
                                        pa.int64())})

    t = collect(_fold(_read(sf_dir, "lineitem", ["l_partkey", "l_suppkey",
                                                  "l_quantity", "l_shipdate"]),
                       partial, "l_suppkey", "qty"), "l_suppkey qty")
    qty = _np(t["qty"]).astype(np.int64)
    keep = 2 * qty.astype(object) * len(qty) > int(qty.sum())
    winners = t.filter(pa.array(keep.astype(bool)))["l_suppkey"].to_pylist()
    sup = _dim(sf_dir, "supplier", "s_suppkey s_name s_nationkey")
    nat = _dim(sf_dir, "nation", "n_nationkey n_name")
    nmap = dict(zip(nat["n_nationkey"].to_pylist(),
                    nat["n_name"].to_pylist()))
    smap = {k: (nm, nmap[nk]) for k, nm, nk in
            zip(sup["s_suppkey"].to_pylist(), sup["s_name"].to_pylist(),
                sup["s_nationkey"].to_pylist())}
    return _table(sorted(smap[k] for k in winners), "s_name:str n_name:str")


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
    import ray

    part = _dim(sf_dir, "part", "p_partkey p_name p_type")
    part = part.filter(pc.equal(part["p_type"], "LARGE"))
    pname = dict(zip(part["p_partkey"].to_pylist(),
                     part["p_name"].to_pylist()))
    nat = _dim(sf_dir, "nation", "n_nationkey n_name n_regionkey")
    reg = _dim(sf_dir, "region", "r_regionkey r_name")
    eu = set(reg.filter(pc.equal(reg["r_name"], "EUROPE"))
             ["r_regionkey"].to_pylist())
    eu_nat = {k: n for k, n, r in zip(nat["n_nationkey"].to_pylist(),
                                      nat["n_name"].to_pylist(),
                                      nat["n_regionkey"].to_pylist())
              if r in eu}
    sup = _dim(sf_dir, "supplier", "s_suppkey s_name s_nationkey")
    s_info = {k: (nm, eu_nat[nk]) for k, nm, nk in
              zip(sup["s_suppkey"].to_pylist(), sup["s_name"].to_pylist(),
                  sup["s_nationkey"].to_pylist()) if nk in eu_nat}
    dim_ref = ray.put((np.sort(_np(part["p_partkey"])),
                       np.array(sorted(s_info), dtype=np.int64)))

    def partial(t: pa.Table) -> pa.Table:
        keys, skeys = ray.get(dim_ref)
        t = t.filter(pa.array(
            positions_in_sorted(_np(t["l_partkey"]), keys)[1]
            & positions_in_sorted(_np(t["l_suppkey"]), skeys)[1]))
        return pa.table({"l_partkey": t["l_partkey"],
                         "l_suppkey": t["l_suppkey"],
                         "unit_cents": _cents_of(pc.divide(
                             t["l_extendedprice"], t["l_quantity"]))})

    t = collect(_fold(_read(sf_dir, "lineitem", ["l_partkey", "l_suppkey",
                                                  "l_extendedprice",
                                                  "l_quantity"]),
                       partial, "l_partkey l_suppkey", "unit_cents:min"),
                 "l_partkey l_suppkey unit_cents")
    # argmin-with-ties per part on the tiny aggregate
    pkv, skv, uv = (_np(t[c]) for c in t.column_names)
    o = np.lexsort((skv, uv, pkv))
    pkv, skv, uv = pkv[o], skv[o], uv[o]
    first = np.ones(len(pkv), dtype=bool)
    first[1:] = pkv[1:] != pkv[:-1]
    keep = uv == uv[first][np.cumsum(first) - 1]
    return _table(sorted(
        (int(p), pname[int(p)], *s_info[int(s)], int(u))
        for p, s, u in zip(pkv[keep], skv[keep], uv[keep])),
        "p_partkey p_name:str s_name:str n_name:str min_unit_cents")


Q2_SQL = f"""
WITH unit AS (
  SELECT l_partkey, l_suppkey,
         min({_cents_sql("l_extendedprice / l_quantity")})
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
    def partial(t: pa.Table) -> pa.Table:
        mask = pc.and_(pc.is_in(t["l_returnflag"],
                                value_set=pa.array(["R"])),
                       pc.greater(t["l_quantity"], pa.scalar(25.0)))
        t = t.filter(mask)
        cents = pc.cast(pc.floor(pc.add(pc.multiply(_revenue(t),
                                                    pa.scalar(100.0)),
                                        pa.scalar(0.5))), pa.int64())
        # argmax-with-tiebreak pack: maximize (cents, -linenumber);
        # linenumber is 1..7 so (8 - ln) fits in 3 bits
        packed = pc.add(pc.multiply(cents, pa.scalar(8, pa.int64())),
                        pc.subtract(pa.scalar(8, pa.int64()),
                                    pc.cast(t["l_linenumber"], pa.int64())))
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "n_matching": _ones(t.num_rows),
                         "score_max_cents": cents, "score_sum_cents": cents,
                         "pk": packed})

    agg = _fold(_read(sf_dir, "lineitem",
                      ["l_orderkey", "l_linenumber", "l_returnflag",
                       "l_quantity", "l_extendedprice", "l_discount"]),
                partial, "l_orderkey",
                "n_matching score_max_cents:max score_sum_cents pk:max")

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
    j = _join(sf_dir, "lineitem orders", _map(agg, min_children), parents,
              "l_orderkey", "o_orderkey")
    cols = ["o_orderdate", "o_orderpriority", "n_matching",
            "score_max_cents", "score_sum_cents", "best_child_linenumber"]
    return _map(j, lambda t: pa.table(
        {"o_orderkey": t["l_orderkey"], **{c: t[c] for c in cols}}))


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

    parents = _map(_read(sf_dir, "orders",
                         ["o_orderkey", "o_orderpriority", "o_totalprice"]),
                   parent_query)
    children = _read(sf_dir, "lineitem",
                     ["l_orderkey", "l_linenumber", "l_returnflag"])
    return _map(_join(sf_dir, "lineitem orders", children, parents,
                      "l_orderkey", "o_orderkey"),
                lambda t: t.select(["l_orderkey", "l_linenumber",
                                    "l_returnflag", "parent_score_cents"]))


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
    names = ["high_value", "clicks", "weekend", "other"]

    def partial(t: pa.Table) -> pa.Table:
        us = _np(t["ts"].cast(pa.int64()))
        dow = (us // _DAY_US + 3) % 7
        value = _np(t["value"])
        cents = _np(_cents_of(t["value"]))
        masks = [value >= 100.0,
                 _np(pc.equal(t["event_type"], pa.scalar("click"))),
                 dow >= 5]
        masks.append(~(masks[0] | masks[1] | masks[2]))
        return pa.table({
            "bucket": pa.array(names, pa.string()),
            "n_events": pa.array([int(m.sum()) for m in masks], pa.int64()),
            "sum_value_cents": pa.array([int(cents[m].sum()) for m in masks],
                                        pa.int64())})

    # every bucket is answered, with 0s on empty input (the oracle's
    # UNION ALL of coalesced aggregates)
    return _materialize_range_agg(
        _fold(_read(sf_dir, "events", ["ts", "event_type", "value"]),
              partial, "bucket", "n_events sum_value_cents"),
        {"bucket": pa.array(names, pa.string())},
        ["n_events", "sum_value_cents"])


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
            f"{_VALUE_CENTS} AS cent, "
            f"(epoch_us(ts) // {_DAY_US} + 3) % 7 AS dow FROM events)\n"
            + "\nUNION ALL\n".join(selects))


FILTERS_AGG_SQL = _filters_sql()

_MULTI_TERMS_K = 10


def multi_terms_events(sf_dir: str):
    """ES ``multi_terms`` aggregation: buckets keyed by the TUPLE
    (event_type, day-of-week), ordered by doc count desc (key asc as
    the deterministic tie-break ES applies), top ``_MULTI_TERMS_K``
    only, each carrying count + exact cents sum.  Bucket space is the
    key-tuple cross product (|types| × 7) — the final sort runs on
    that metadata-scale table, not on events."""

    def partial(t: pa.Table) -> pa.Table:
        us = _np(t["ts"].cast(pa.int64()))
        return pa.table({"event_type": t["event_type"],
                         "dow": pa.array((us // _DAY_US + 3) % 7, pa.int64()),
                         "n_events": _ones(len(us)),
                         "sum_value_cents": _cents_of(t["value"])})

    t = collect(_fold(_read(sf_dir, "events", ["ts", "event_type", "value"]),
                       partial, "event_type dow", "n_events sum_value_cents"),
                 "event_type:str dow n_events sum_value_cents")
    et = np.asarray(t["event_type"].to_pylist(), dtype=object)
    order = np.lexsort((_np(t["dow"]), et, -_np(t["n_events"])))
    t = t.take(pa.array(order[:_MULTI_TERMS_K]))
    return t.add_column(0, "rank",
                        pa.array(np.arange(1, len(t) + 1), pa.int64()))


MULTI_TERMS_SQL = f"""
WITH b AS (
  SELECT event_type,
         (epoch_us(ts) // {_DAY_US} + 3) % 7 AS dow,
         count(*) AS n_events,
         CAST(sum({_VALUE_CENTS}) AS BIGINT)
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
    edges = np.asarray(_DATE_RANGE_EDGES, dtype=np.int64)
    labels = {"bucket": pa.array([f"r{i}" for i in range(len(edges) + 1)],
                                 pa.string()),
              "from_us": pa.array([None] + _DATE_RANGE_EDGES, pa.int64()),
              "to_us": pa.array(_DATE_RANGE_EDGES + [None], pa.int64())}
    partial = _range_bucket_partial(
        edges, labels, lambda t: _np(t["ts"].cast(pa.int64())),
        lambda t: _np(_cents_of(t["value"])))
    aggs = ["n_events", "sum_value_cents"]
    return _materialize_range_agg(
        _fold(_read(sf_dir, "events", ["ts", "value"]),
              lambda t: partial(t).rename_columns([*labels, *aggs]),
              " ".join(labels), " ".join(aggs)), labels, aggs)


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
            f"CAST(coalesce(sum({_VALUE_CENTS}), 0)"
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
    edges = np.asarray(_IP_EDGES, dtype=np.int64)
    bounds = list(zip([None] + _IP_EDGES, _IP_EDGES + [None]))
    labels = {
        "bucket": pa.array([f"b{i}" for i in range(len(bounds))],
                           pa.string()),
        "from_ip": pa.array([_dotted(lo) for lo, _ in bounds], pa.string()),
        "to_ip": pa.array([_dotted(hi) for _, hi in bounds], pa.string())}
    partial = _range_bucket_partial(edges, labels, _derived_ip)
    return _materialize_range_agg(
        _fold(_read(sf_dir, "events", ["user_id"]),
              lambda t: partial(t).rename_columns([*labels, "cnt"]),
              " ".join(labels), "cnt"), labels, ["cnt"])


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
    def partial(t: pa.Table) -> pa.Table:
        vals, cnts = np.unique(_derived_ip(t) >> 24, return_counts=True)
        return pa.table({"octet": pa.array(vals, pa.int64()),
                         "cnt": pa.array(cnts, pa.int64())})

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "octet": t["octet"],
            "prefix": pa.array([f"{o}.0.0.0/8" for o in _np(t["octet"])],
                               pa.string()),
            "cnt": t["cnt"]})

    return _fold(_read(sf_dir, "events", ["user_id"]), partial, "octet",
                 "cnt").map_batches(finish, batch_format="pyarrow")


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
                         "np": _ones(n),
                         "nc": pa.array(np.zeros(n, np.int64)),
                         "qc": pa.array(np.zeros(n, np.int64))})

    def child_rows(t: pa.Table) -> pa.Table:
        g = (pa.table({"o_orderkey": t["l_orderkey"], "nc": _ones(t.num_rows),
                       "qc": _cents_of(t["l_quantity"])})
             .group_by("o_orderkey").aggregate([("nc", "sum"), ("qc", "sum")])
             .rename_columns(["o_orderkey", "nc", "qc"]))
        n = g.num_rows
        return pa.table({"o_orderkey": g["o_orderkey"],
                         # "" sorts below every real priority, so the
                         # per-key Max picks the parent's label
                         "prio": pa.array([""] * n, pa.string()),
                         "np": pa.array(np.zeros(n, np.int64)),
                         "nc": g["nc"], "qc": g["qc"]})

    both = _map(_read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"]),
                parent_rows).union(
        _map(_read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"]),
             child_rows))
    per_order = (both.groupby("o_orderkey")
                 .aggregate(Max("prio", alias_name="prio"),
                            Sum("np", alias_name="np"),
                            Sum("nc", alias_name="nc"),
                            Sum("qc", alias_name="qc")))

    def prio_partial(t: pa.Table) -> pa.Table:
        # np == 0 would be an orphan child (no parent row) — outside
        # the parent relation, like the oracle's FROM orders LEFT JOIN
        t = t.filter(pc.greater(t["np"], pa.scalar(0)))
        return pa.table({
            "o_orderpriority": t["prio"],
            "n_parents": pc.cast(t["np"], pa.int64()),
            "n_parents_with_children": pc.cast(
                pc.greater(t["nc"], pa.scalar(0)), pa.int64()),
            "n_children": pc.cast(t["nc"], pa.int64()),
            "sum_child_qty_cents": pc.cast(t["qc"], pa.int64())})

    return _fold(per_order, prio_partial, "o_orderpriority",
                 "n_parents n_parents_with_children n_children "
                 "sum_child_qty_cents")


CHILDREN_AGG_SQL = f"""
SELECT o.o_orderpriority,
       CAST(count(*) AS BIGINT) AS n_parents,
       CAST(count(c.n_children) AS BIGINT) AS n_parents_with_children,
       CAST(coalesce(sum(c.n_children), 0) AS BIGINT) AS n_children,
       CAST(coalesce(sum(c.qty_cents), 0) AS BIGINT)
         AS sum_child_qty_cents
FROM orders o
LEFT JOIN (SELECT l_orderkey, count(*) AS n_children,
                  sum({_cents_sql("l_quantity")})
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
    from ray.data.aggregate import Max

    li = _read(sf_dir, "lineitem", ["l_returnflag", "l_orderkey"])
    flags = sorted(collect(li.groupby("l_returnflag").count(),
                            "l_returnflag:str")["l_returnflag"].to_pylist())
    hcols = [f"h{i}" for i in range(len(flags))]
    spec = "l_returnflag:str n_parents sum_parent_price_cents"
    if not flags:
        return _table([], spec)

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
        cols["np"] = _ones(n)
        return pa.table(cols)

    both = _map(li, child_rows).union(
        _map(_read(sf_dir, "orders", ["o_orderkey", "o_totalprice"]),
             parent_rows))
    per_order = (both.groupby("o_orderkey")
                 .aggregate(*[Max(c, alias_name=c)
                              for c in hcols + ["pcents", "np"]]))

    def flag_partial(t: pa.Table) -> pa.Table:
        # np == 0 → orphan child rows with no parent in orders: not a
        # parent to aggregate (the oracle's inner join drops them)
        t = t.filter(pc.greater(t["np"], pa.scalar(0)))
        pcents = pc.cast(t["pcents"], pa.int64())
        return _table([(f, pc.sum(pc.cast(t[h], pa.int64())).as_py() or 0,
                        pc.sum(pc.multiply(pc.cast(t[h], pa.int64()),
                                           pcents)).as_py() or 0)
                       for f, h in zip(flags, hcols)], spec)

    return _map(_fold(per_order, flag_partial, "l_returnflag",
                      "n_parents sum_parent_price_cents"),
                lambda t: t.filter(pc.greater(t["n_parents"], pa.scalar(0))))


PARENT_AGG_SQL = f"""
SELECT l_returnflag,
       CAST(count(*) AS BIGINT) AS n_parents,
       CAST(sum(pcents) AS BIGINT) AS sum_parent_price_cents
FROM (SELECT DISTINCT l_returnflag, l_orderkey FROM lineitem) p
JOIN (SELECT o_orderkey,
             {_cents_sql("o_totalprice")} AS pcents
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
    def partial(t: pa.Table) -> pa.Table:
        present = (_np(t["event_id"]) % _MISSING_MOD) >= _MISSING_LT
        cents = _np(_cents_of(t["value"]))
        return pa.table({
            "event_type": t["event_type"],
            "n_missing": pa.array((~present).astype(np.int64)),
            "n_present": pa.array(present.astype(np.int64)),
            "sum_present_cents": pa.array(np.where(present, cents, 0))})

    return _fold(_read(sf_dir, "events", ["event_id", "event_type", "value"]),
                 partial, "event_type",
                 "n_missing n_present sum_present_cents")


MISSING_AGG_SQL = f"""
SELECT event_type,
       CAST(sum(CASE WHEN event_id % {_MISSING_MOD} < {_MISSING_LT}
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_missing,
       CAST(sum(CASE WHEN event_id % {_MISSING_MOD} >= {_MISSING_LT}
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_present,
       CAST(sum(CASE WHEN event_id % {_MISSING_MOD} >= {_MISSING_LT}
                     THEN {_VALUE_CENTS}
                     ELSE 0 END) AS BIGINT) AS sum_present_cents
FROM events GROUP BY event_type ORDER BY event_type
"""


def rate_agg_events(sf_dir: str):
    """ES ``rate`` aggregation (unit=day) inside a weekly
    date_histogram: per epoch-week bucket, count, exact cents sum, and
    the day-rate = sum / 7 — ONE float division applied identically on
    both sides of the oracle, so the doubles are bit-equal."""
    def partial(t: pa.Table) -> pa.Table:
        us = _np(t["ts"].cast(pa.int64()))
        return pa.table({"week_us": pa.array((us // _WEEK_US) * _WEEK_US,
                                             pa.int64()),
                         "n_events": _ones(len(us)),
                         "sum_value_cents": _cents_of(t["value"])})

    def finish(t: pa.Table) -> pa.Table:
        rate = pc.divide(pc.cast(t["sum_value_cents"], pa.float64()),
                         pa.scalar(7.0))
        return t.append_column("rate_cents_per_day", rate)

    return _fold(_read(sf_dir, "events", ["ts", "value"]), partial,
                 "week_us", "n_events sum_value_cents").map_batches(
        finish, batch_format="pyarrow")


RATE_AGG_SQL = f"""
SELECT (epoch_us(ts) // {_WEEK_US}) * {_WEEK_US} AS week_us,
       count(*) AS n_events,
       CAST(sum({_VALUE_CENTS}) AS BIGINT)
         AS sum_value_cents,
       CAST(sum({_VALUE_CENTS}) AS DOUBLE) / 7.0
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
    def day_of(t: pa.Table) -> pa.Array:
        return pa.array(_np(t["ts"].cast(pa.int64())) // _DAY_US, pa.int64())

    days = collect(_fold(_read(sf_dir, "events", ["ts"]),
                          lambda t: pa.table({"day": day_of(t),
                                              "n_events": _ones(t.num_rows)}),
                          "day", "n_events"), "day n_events").sort_by("day")
    first = _fold(_read(sf_dir, "events", ["ts", "user_id"]),
                  lambda t: pa.table({"user_id": t["user_id"],
                                      "day": day_of(t)}),
                  "user_id", "day:min")
    nt = collect(_fold(first, lambda t: pa.table({
        "day": t["day"], "new_users": _ones(t.num_rows)}), "day", "new_users"),
        "day new_users")
    nu_map = dict(zip(nt["day"].to_pylist(), nt["new_users"].to_pylist()))
    day = _np(days["day"])
    nu = np.array([nu_map.get(int(d), 0) for d in day], dtype=np.int64)
    return pa.table({
        "bucket_us": pa.array(day * _DAY_US, pa.int64()),
        "n_events": days["n_events"],
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


def diversified_sample_documents(sf_dir: str):
    """ES ``diversified_sampler`` aggregation, made deterministic:
    walk documents in global order (n_chars DESC, doc_id ASC — "best
    first"), keep a doc only while fewer than ``_SAMPLER_PER_SOURCE``
    docs of its source are kept, stop after ``_SAMPLER_SIZE``.
    Equivalent closed form (provable because docs are only ever
    skipped for the source cap): survivors = within-source rank ≤
    per_source, then the first ``_SAMPLER_SIZE`` survivors in global
    order.  The per-source top-k is the same combiner/finish
    discipline as topk_orders_per_customer; only |sources| ×
    per_source rows reach the driver for the final (bounded) cut."""

    def topk_per_source(t: pa.Table) -> pa.Table:
        src = np.asarray(t["source"].to_pylist(), dtype=object)
        order = np.lexsort((_np(t["doc_id"]), -_np(t["n_chars"]), src))
        src_s = src[order]
        new = np.ones(len(src_s), dtype=bool)
        new[1:] = src_s[1:] != src_s[:-1]
        pos = np.arange(len(src_s))
        start = np.maximum.accumulate(np.where(new, pos, 0))
        return t.take(pa.array(order[pos - start < _SAMPLER_PER_SOURCE]))

    t = collect(_map(_read(sf_dir, "documents",
                            ["doc_id", "source", "n_chars"]), topk_per_source)
                 .groupby("source")
                 .map_groups(topk_per_source, batch_format="pyarrow"),
                 "doc_id source:str n_chars")
    order = np.lexsort((_np(t["doc_id"]), -_np(t["n_chars"])))
    t = t.take(pa.array(order[:_SAMPLER_SIZE]))
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
    def len_partial(t: pa.Table) -> pa.Table:
        ln = pc.utf8_length(t["text"])
        return pa.table({"lang": t["lang"], "n_docs": _ones(t.num_rows),
                         "sum_len": ln, "min_len": ln, "max_len": ln})

    def char_partial(t: pa.Table) -> pa.Table:
        langs, cps, cnts = ([np.empty(0, dt)] for dt in (object, np.int64,
                                                         np.int64))
        for lang, text in zip(t["lang"].to_pylist(), t["text"].to_pylist()):
            # per-doc decode is vectorized (numpy over utf-32 bytes);
            # only (lang, codepoint, count) rows leave the batch
            u, c = np.unique(np.frombuffer(text.encode("utf-32-le"),
                                           dtype=np.uint32),
                             return_counts=True)
            langs.append(np.full(len(u), lang, dtype=object))
            cps.append(u.astype(np.int64))
            cnts.append(c)
        return pa.table({"lang": pa.array(np.concatenate(langs), pa.string()),
                         "cp": pa.array(np.concatenate(cps)),
                         "cnt": pa.array(np.concatenate(cnts))})

    lt = collect(_fold(_read(sf_dir, "documents", ["lang", "text"]),
                        len_partial, "lang",
                        "n_docs sum_len min_len:min max_len:max"),
                  "lang:str n_docs sum_len min_len max_len").sort_by("lang")
    ht = collect(_fold(_read(sf_dir, "documents", ["lang", "text"]),
                        char_partial, "lang cp", "cnt"), "lang:str cp cnt")
    hl = np.asarray(ht["lang"].to_pylist(), dtype=object)
    hcp, hc = _np(ht["cp"]), _np(ht["cnt"])
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
        c = c[np.argsort(cp)]
        total = c.sum()
        # H = log2(N) − Σ c·log2(c) / N, summed in codepoint order
        h = np.log2(total) - float(np.dot(c, np.log2(c))) / total
        n_distinct.append(int(m.sum()))
        ent_micro.append(int(np.floor(h * 1e6 + 0.5)))
    return lt.append_column("avg_len", pc.divide(
        pc.cast(lt["sum_len"], pa.float64()),
        pc.cast(lt["n_docs"], pa.float64()))).append_column(
        "n_distinct_chars", pa.array(n_distinct, pa.int64())).append_column(
        "entropy_microbits", pa.array(ent_micro, pa.int64()))


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
    rows = []
    for et, c, k in _groups(_cent_hist(sf_dir), "event_type"):
        q1, q2, q3 = (_order_stat(c, k, q) for q in (0.25, 0.5, 0.75))
        iqr = q3 - q1
        lo_ok = 4 * c >= 4 * q1 - 6 * iqr
        hi_ok = 4 * c <= 4 * q3 + 6 * iqr
        rows.append((et, int(k.sum()), int(c[0]), int(c[-1]), q1, q2, q3,
                     int(c[lo_ok].min()), int(c[hi_ok].max())))
    return _table(rows, "event_type:str n min_cents max_cents q1_cents "
                  "q2_cents q3_cents lower_whisker_cents upper_whisker_cents")


BOXPLOT_SQL = f"""
WITH c AS (
  SELECT event_type, {_VALUE_CENTS} AS cent
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
         {_order_stat_sql(0.25, "cent")} AS q1_cents,
         {_order_stat_sql(0.5, "cent")} AS q2_cents,
         {_order_stat_sql(0.75, "cent")} AS q3_cents
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


def histogram_events(sf_dir: str):
    """ES numeric ``histogram`` aggregation with ``offset`` and
    ``min_doc_count: 0``: bucket key = offset + interval·⌊(cent −
    offset)/interval⌋ (true floor division, negative-safe), count +
    exact cents sum per bucket, and EMPTY buckets emitted between the
    min and max occupied keys (the gap fill runs on the bounded
    bucket table on the driver, mirroring the oracle's range() join,
    never on events)."""
    iv, off = _HIST_INTERVAL, _HIST_OFFSET

    def partial(t: pa.Table) -> pa.Table:
        cents = _cents_of(t["value"])
        return pa.table({"key_cents": pa.array(
                             off + iv * ((_np(cents) - off) // iv), pa.int64()),
                         "n_events": _ones(t.num_rows),
                         "sum_value_cents": cents})

    t = collect(_fold(_read(sf_dir, "events", ["value"]), partial,
                       "key_cents", "n_events sum_value_cents"),
                 "key_cents n_events sum_value_cents").sort_by("key_cents")
    if not len(t):
        return t
    keys = _np(t["key_cents"])
    full = np.arange(keys[0], keys[-1] + 1, iv, dtype=np.int64)
    # every occupied key sits exactly on the arange grid by
    # construction (key = offset + interval*floor), so a direct
    # scatter fills the gaps
    idx = (keys - full[0]) // iv
    n = np.zeros(len(full), dtype=np.int64)
    s = np.zeros(len(full), dtype=np.int64)
    n[idx] = _np(t["n_events"])
    s[idx] = _np(t["sum_value_cents"])
    return pa.table({"key_cents": pa.array(full, pa.int64()),
                     "n_events": pa.array(n, pa.int64()),
                     "sum_value_cents": pa.array(s, pa.int64())})


HISTOGRAM_SQL = f"""
WITH c AS (
  SELECT {_VALUE_CENTS} AS cent FROM events),
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
    return collect(_fold(_read(sf_dir, "events", ["event_type", "value"]),
                          lambda t: pa.table({
                              "event_type": t["event_type"],
                              "n_events": _ones(t.num_rows),
                              "sum_value_cents": _cents_of(t["value"])}),
                          "event_type", "n_events sum_value_cents"),
                    "event_type:str n_events sum_value_cents")


def bucket_sort_events(sf_dir: str):
    """ES ``bucket_sort`` pipeline aggregation over the event_type
    terms agg: order buckets by exact cents sum DESC (event_type ASC
    as the deterministic tie-break), skip ``_BUCKET_SORT_FROM``, keep
    ``_BUCKET_SORT_SIZE`` — the truncation runs on the bucket table
    (|types| rows), the events-sized work is one combined groupby."""
    lo, hi = _BUCKET_SORT_FROM, _BUCKET_SORT_FROM + _BUCKET_SORT_SIZE
    t = _event_type_cents_agg(sf_dir)
    et = np.asarray(t["event_type"].to_pylist(), dtype=object)
    t = t.take(pa.array(np.lexsort((et, -_np(t["sum_value_cents"])))[lo:hi]))
    return t.add_column(0, "rank", pa.array(np.arange(lo + 1, lo + 1 + len(t)),
                                            pa.int64()))


BUCKET_SORT_SQL = f"""
WITH b AS (
  SELECT event_type, count(*) AS n_events,
         CAST(sum({_VALUE_CENTS}) AS BIGINT)
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


NORMALIZE_SQL = f"""
WITH b AS (
  SELECT event_type, count(*) AS n_events,
         CAST(sum({_VALUE_CENTS}) AS BIGINT)
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


def moving_percentiles_events(sf_dir: str):
    """ES ``moving_percentiles`` pipeline aggregation — EXACT (ES
    merges per-bucket TDigest sketches): for each day of the
    gap-filled daily histogram, the p50/p90 of ``value`` over the
    trailing ``_MOVPCT_WINDOW`` days (partial at the head, NULL on an
    empty window), as the discrete order statistic ``_order_stat``.
    The only shuffle carries distinct (day, cent) pairs — per-day
    histograms ARE the mergeable sketch, so the windowed merge runs on
    the bounded bucket table on the driver, never on events."""
    t = _cent_hist(sf_dir, "day", ["ts", "value"], lambda t: pa.array(
        _np(t["ts"].cast(pa.int64())) // _DAY_US, pa.int64()))
    day, cent, cnt = _np(t["day"]), _np(t["cent"]), _np(t["cnt"])
    full = np.arange(day.min(), day.max() + 1, dtype=np.int64) \
        if len(day) else day
    starts = np.searchsorted(day, full)          # row range per day
    ends = np.searchsorted(day, full, side="right")
    rows = []
    for i in range(len(full)):
        lo = starts[max(0, i - _MOVPCT_WINDOW + 1)]
        c, k = cent[lo:ends[i]], cnt[lo:ends[i]]
        if not len(c):
            rows.append((int(full[i]) * _DAY_US, 0, None, None))
            continue
        co = np.argsort(c, kind="stable")
        uniq, first = np.unique(c[co], return_index=True)
        kk = np.add.reduceat(k[co], first)
        rows.append((int(full[i]) * _DAY_US, int(kk.sum()),
                     _order_stat(uniq, kk, 0.5), _order_stat(uniq, kk, 0.9)))
    return _table(rows, "bucket_us n_window p50_cents p90_cents")


MOVING_PERCENTILES_SQL = f"""
WITH c AS (
  SELECT epoch_us(ts) // {_DAY_US} AS day,
         {_VALUE_CENTS} AS cent
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
         {_order_stat_sql(0.5, "cent")} AS p50_cents,
         {_order_stat_sql(0.9, "cent")} AS p90_cents
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
    keep = pa.array([_TTEST_A, _TTEST_B], pa.string())

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["event_type"], value_set=keep))
        c = _cents_of(t["value"])
        return pa.table({"event_type": t["event_type"],
                         "n": _ones(t.num_rows), "s": c,
                         "sq": pc.multiply(c, c)})

    rows = {r["event_type"]: r for r in collect(
        _fold(_read(sf_dir, "events", ["event_type", "value"]), partial,
              "event_type", "n s sq"), "event_type:str n s sq").to_pylist()}
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
  SELECT event_type, {_VALUE_CENTS} AS cent
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


def stats_bucket_events(sf_dir: str):
    """ES sibling pipeline aggregations over the gap-filled daily
    date_histogram — ``stats_bucket`` (count/min/max/sum/avg of the
    per-day event counts) + ``percentiles_bucket`` p50 (the repo's
    exact smallest-value-reaching-ceil order statistic) + the
    ``min_bucket``/``max_bucket`` keys (first day attaining each
    extreme).  Driver work is O(days) on the already-reduced bucket
    table; the events-sized work is the shared date_histogram."""
    d, n, _ = _daily(sf_dir)
    nb = len(n)
    spec = "n_buckets min_n max_n sum_n avg_n:f64 p50_n min_day max_day"
    if not nb:                 # the oracle's one all-NULL row, count 0
        return _table([(0,) + (None,) * 7], spec)
    return _table([(nb, int(n.min()), int(n.max()), int(n.sum()),
                    float(int(n.sum()) / nb),
                    int(np.sort(n)[math.ceil(0.5 * nb) - 1]),
                    int(d[np.argmin(n)]), int(d[np.argmax(n)]))], spec)


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
    from mee_ray.functions import compile_expr

    expr = compile_expr(f"min(value, echo({_SCRIPTED_CAP}))")

    def partial(t: pa.Table) -> pa.Table:
        return pa.table({"event_type": t["event_type"],
                         "n": _ones(t.num_rows),
                         "sum_capped_cents": _cents_of(expr(t))})

    t = collect(_fold(_read(sf_dir, "events", ["event_type", "value"]),
                       partial, "event_type", "n sum_capped_cents"),
                 "event_type:str n sum_capped_cents").sort_by("event_type")
    return t.append_column("avg_capped_cents", pa.array(
        _np(t["sum_capped_cents"]).astype(np.float64)
        / _np(t["n"]).astype(np.float64), pa.float64()))


SCRIPTED_METRIC_SQL = f"""
WITH c AS (
  SELECT event_type,
         {_cents_sql(f"least(value, {_SCRIPTED_CAP})")} AS cent
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
    d, n, _ = _daily(sf_dir)
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


def variable_width_histogram_events(sf_dir: str):
    """ES ``variable_width_histogram`` — deterministic exact variant
    (ES's is an order-dependent streaming clusterer): bucket
    boundaries sit at the ``_VWH_BUCKETS`` − 1 LARGEST gaps between
    consecutive distinct cents (ties → the lower cent wins), yielding
    the same natural-break clustering the ES agg approximates.  The
    only shuffle carries the distinct-cent histogram (bounded); min/
    max/count/centroid per bucket all derive from that table on the
    driver."""
    t = collect(_fold(_read(sf_dir, "events", ["value"]),
                       lambda t: pa.table({"cent": _cents_of(t["value"]),
                                           "cnt": _ones(t.num_rows)}),
                       "cent", "cnt"), "cent cnt").sort_by("cent")
    c, k = _np(t["cent"]), _np(t["cnt"])
    gaps = c[1:] - c[:-1]           # gap i belongs to upper cent c[i+1]
    # top gaps, ties to the LOWER upper-cent: sort by (-gap, cent)
    top = np.lexsort((c[1:], -gaps))[:min(_VWH_BUCKETS - 1, len(gaps))]
    bucket = np.searchsorted(np.sort(c[1:][top]), c, side="right")
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
    n = _np(g["n_events"]).astype(np.float64)
    w = _np(g["wsum"]).astype(np.float64)
    return (g.drop_columns(["wsum"])
            .append_column("centroid_cents",
                           pa.array(w / n, pa.float64())))


VARIABLE_WIDTH_HISTOGRAM_SQL = f"""
WITH c AS (
  SELECT {_VALUE_CENTS} AS cent FROM events),
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
        m = _np(t["mask"])
        return pa.table({"pair": pa.array(range(len(pairs)), pa.int64()),
                         "support": pa.array([int(((m >> i) & (m >> j) & 1)
                                                  .sum()) for i, j in pairs],
                                             pa.int64())})

    t = collect(_fold(masks, pair_counts, "pair", "support"), "pair support")
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
    t = collect(agg, "a b support")
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
    def partial(t: pa.Table) -> pa.Table:
        ids = _np(t["event_id"])
        t = t.filter(pa.array(((ids % _SAMPLER_MOD) * _SAMPLER_MULT)
                              % _SAMPLER_MOD < _SAMPLER_RATE_PML))
        return pa.table({"event_type": t["event_type"],
                         "n_sampled": _ones(t.num_rows),
                         "sum_sampled_cents": _cents_of(t["value"])})

    t = collect(_fold(_read(sf_dir, "events", ["event_id", "event_type",
                                                "value"]),
                       partial, "event_type", "n_sampled sum_sampled_cents"),
                 "event_type:str n_sampled sum_sampled_cents"
                 ).sort_by("event_type")
    return t.append_column("est_n", pc.multiply(t["n_sampled"], pa.scalar(
        _SAMPLER_MOD // _SAMPLER_RATE_PML, pa.int64())))


RANDOM_SAMPLER_SQL = f"""
WITH s AS (
  SELECT event_type, {_VALUE_CENTS} AS cent
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
