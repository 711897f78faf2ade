"""Mergeable sketches: HyperLogLog distinct counts, heavy-hitter term
summaries and KLL-style quantiles, each beside its exact companion.

Distributed distinct-count WITHOUT a distinct shuffle: each map_batches
task folds its rows into 2^p max-registers (vectorized numpy — hash,
index bits, leading-zero rank), so the exchange carries ONE 2^p-byte
vector per batch regardless of row count, and merging is an
elementwise max (associative + commutative + idempotent — batch
boundaries, retries, and merge order cannot change the result).
Standard error ≈ 1.04/√(2^p) (~1.6 % at p = 12); small cardinalities
fall back to linear counting over the zero registers, making counts
below ~2.5·2^p near-exact.  Public-knowledge algorithm (Flajolet et
al., HyperLogLog; ``gramhash.mix64``, the splitmix64 finalizer, is
the hash).

The exact companions (``count(DISTINCT ...)``, exact top terms) are
SQL-expressible, so the oracle gate checks the exact side; the
sketches themselves are rows-only, verified by error-bound and
merge-identity tests.

Adding a query: state only its own rule.  The helpers:
``stages.read`` (every scan), ``DISTINCT_COLUMNS`` (the columns both
distinct counts answer), ``_term_counts`` (a batch's term counts via
``text._term_ids``, first-seen order), ``_top_terms`` (the one
(count desc, term asc) top-k), ``stages.fold`` and ``stages.collect``;
then add the name to ``QUERIES`` (and ``ORACLE`` when SQL can check
it).
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from mee_ray import stages
from mee_ray.pipelines.gramhash import mix64

HLL_P = 12                      # 4096 registers ≈ 1.6 % standard error
_M = 1 << HLL_P
# the (table, column) pairs both distinct-count queries answer
DISTINCT_COLUMNS = [("events", "user_id"), ("events", "event_id"),
                    ("lineitem", "l_orderkey"), ("orders", "o_custkey")]


def _clz64(x: np.ndarray) -> np.ndarray:
    """Vectorized count-leading-zeros of uint64 (64 for x == 0 — the
    shift accumulation alone tops out at 63, so zero is special-cased
    to honor the contract)."""
    zero = x == 0
    x = x.copy()
    clz = np.zeros(len(x), dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        m = x < (np.uint64(1) << np.uint64(64 - s))
        clz += np.where(m, s, 0)
        x = np.where(m, x << np.uint64(s), x)
    return np.where(zero, 64, clz)


def hll_fold(values: np.ndarray, registers: np.ndarray) -> np.ndarray:
    """Fold int64/uint64 values into 2^p uint8 registers (in place)."""
    h = mix64(values)
    idx = (h >> np.uint64(64 - HLL_P)).astype(np.int64)
    w = h << np.uint64(HLL_P)        # remaining 64-p bits, left-aligned
    rho = np.minimum(_clz64(w), 64 - HLL_P).astype(np.uint8) + np.uint8(1)
    np.maximum.at(registers, idx, rho)
    return registers


def hll_estimate(registers: np.ndarray) -> float:
    """Bias-corrected estimate with the linear-counting small-range
    fallback."""
    m = float(_M)
    alpha = 0.7213 / (1.0 + 1.079 / m)
    e = alpha * m * m / np.sum(np.exp2(-registers.astype(np.float64)))
    zeros = int(np.sum(registers == 0))
    if e <= 2.5 * m and zeros > 0:
        e = m * np.log(m / zeros)
    return float(e)


def hll_sketch_column(ds, column: str) -> np.ndarray:
    """Sketch a Ray Dataset column: per-batch register partials (one
    2^p-byte row per batch crosses the wire), elementwise-max merge on
    the driver."""

    def partial(t: pa.Table, col=column) -> pa.Table:
        reg = np.zeros(_M, dtype=np.uint8)
        # drop nulls ARROW-side: a nullable int64 column converts to
        # float64-with-NaN in numpy (not object), and NaN→uint64 is a
        # platform-dependent bit pattern that would both count NULL as
        # a distinct value and break merge determinism
        vals = pc.drop_null(t[col]).to_numpy(zero_copy_only=False)
        hll_fold(vals.astype(np.int64, copy=False)
                 if vals.dtype.kind in "fiu" else vals, reg)
        return pa.table({"registers": pa.array([reg.tobytes()],
                                               pa.binary())})

    merged = np.zeros(_M, dtype=np.uint8)
    for b in (ds.map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True)
              .iter_batches(batch_format="pyarrow", batch_size=1 << 10)):
        for buf in b["registers"].to_pylist():
            np.maximum(merged, np.frombuffer(buf, dtype=np.uint8),
                       out=merged)
    return merged


def hll_distinct_counts(sf_dir: str):
    """Approximate distinct counts over several columns, one sketch
    per column (rows-only: the estimate is approximate by design; the
    exact companions are separate oracle-checked queries and the error
    bound is asserted in tests)."""
    return pa.table({
        "column": pa.array([f"{t}.{c}" for t, c in DISTINCT_COLUMNS],
                           pa.string()),
        "hll_estimate": pa.array([int(round(hll_estimate(hll_sketch_column(
            stages.read(sf_dir, t, [c]), c)))) for t, c in DISTINCT_COLUMNS],
            pa.int64())})


def exact_distinct_counts(sf_dir: str):
    """Exact distributed companion (groupby-distinct then count) for
    the same columns — SQL-expressible, value-hash-checked."""

    def distinct_part(t: pa.Table) -> pa.Table:
        # Arrow-native distinct: SQL count(DISTINCT) excludes NULLs,
        # and numpy's unique would either crash on object arrays
        # containing None or count NaN as a value
        c = t.column_names[0]
        return pa.table({c: pc.unique(pc.drop_null(t[c].combine_chunks()))})

    return pa.table({
        "column": pa.array([f"{t}.{c}" for t, c in DISTINCT_COLUMNS],
                           pa.string()),
        "n_distinct": pa.array([
            stages.read(sf_dir, t, [c])
            .map_batches(distinct_part, batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby(c).count().count() for t, c in DISTINCT_COLUMNS],
            pa.int64())})


EXACT_DISTINCT_SQL = """
SELECT * FROM (
  SELECT 'events.user_id' AS column, count(DISTINCT user_id) AS n_distinct FROM events
  UNION ALL
  SELECT 'events.event_id', count(DISTINCT event_id) FROM events
  UNION ALL
  SELECT 'lineitem.l_orderkey', count(DISTINCT l_orderkey) FROM lineitem
  UNION ALL
  SELECT 'orders.o_custkey', count(DISTINCT o_custkey) FROM orders
)
"""

# ------------------------------------------------- heavy hitters ----

HH_CAPACITY = 512     # per-batch summary size m
HH_TOPK = 30


def _term_counts(t: pa.Table):
    """(distinct terms in first-seen order, their counts) of a batch's
    ``text`` — ``re.findall(TOKEN_PATTERN, text.lower())`` counted."""
    from mee_ray.pipelines.text import _term_ids
    _, tid, terms, _ = _term_ids(t["text"])
    return terms, np.bincount(tid, minlength=len(terms)).astype(np.int64)


def _top_terms(t: pa.Table, n: str) -> pa.Table:
    """The ``HH_TOPK`` rows of ``t`` by (``n`` desc, term asc)."""
    terms = np.array(t["term"].to_pylist(), dtype=object)
    order = np.lexsort((terms, -t[n].to_numpy(zero_copy_only=False)))
    return t.take(pa.array(order[:HH_TOPK], pa.int64()))


def heavy_hitters_terms(sf_dir: str):
    """Approximate top terms by total occurrence count with
    deterministic error BOUNDS: for every emitted term,
    ``count_min ≤ true count ≤ count_max`` (count_min sums the counts
    of summaries that kept the term; count_max adds each dropping
    summary's error).  Rows-only by design — the exact companion
    ``exact_top_terms`` is the oracle-checked side, and the bounds
    invariant is asserted in tests.

    Each batch is one truncated-counter summary (SpaceSaving-style,
    Metwally et al.): exact batch term counts cut to the top
    ``HH_CAPACITY`` in ``Counter.most_common`` order (count desc, then
    first occurrence), plus the count of the heaviest DROPPED term as
    the batch's error bound.  Each summary is ≤ m rows regardless of
    batch size — the same bounded-transport discipline as the HLL
    registers."""
    import os

    def summary(t: pa.Table) -> pa.Table:
        terms, c = _term_counts(t)
        order = np.argsort(-c, kind="stable")
        kept = order[:HH_CAPACITY]
        err = int(c[order[HH_CAPACITY]]) if len(c) > HH_CAPACITY else 0
        # unique summary id: Ray Data may coalesce several batch
        # outputs into ONE block, and naively treating a block as one
        # summary would drop duplicate terms' counts (breaking the
        # count_max ≥ true-count bound) — the id keeps each summary
        # self-delimiting through any block re-bundling
        return pa.table({
            "sid": pa.array([os.urandom(8).hex()] * len(kept), pa.string()),
            "term": terms.take(pa.array(kept, pa.int64())),
            "cnt": pa.array(c[kept], pa.int64()),
            "err": pa.array(np.full(len(kept), err, np.int64))})

    rows = stages.collect(
        stages.read(sf_dir, "documents", ["text"]).map_batches(
            summary, batch_format="pyarrow", zero_copy_batch=True),
        "sid:str term:str cnt err")
    # count_max = count_min + the errors of the summaries that dropped
    # the term = count_min + (all errors − the keeping summaries' ones)
    total_err = pc.sum(rows.group_by("sid").aggregate([("err", "max")])
                       ["err_max"]).as_py() or 0
    per = rows.group_by("term").aggregate([("cnt", "sum"), ("err", "sum")])
    low = per["cnt_sum"].to_numpy(zero_copy_only=False)
    return _top_terms(pa.table({
        "term": per["term"], "count_min": pa.array(low, pa.int64()),
        "count_max": pa.array(low + total_err - per["err_sum"].to_numpy(
            zero_copy_only=False), pa.int64())}), "count_min")


def exact_top_terms(sf_dir: str):
    """Exact distributed companion: total term-occurrence counts →
    top-``HH_TOPK`` by (count desc, term asc).  No global sort: after
    the groupby every term lives in exactly one block, so the union of
    per-block top-k contains the global top-k and the driver merges a
    few k-row partials."""
    def counts(t: pa.Table) -> pa.Table:
        terms, c = _term_counts(t)
        return pa.table({"term": terms, "n": pa.array(c, pa.int64())})

    t = _top_terms(stages.collect(
        stages.fold(stages.read(sf_dir, "documents", ["text"]), counts,
                    "term", "n")
        .map_batches(lambda b: _top_terms(b, "n"), batch_format="pyarrow"),
        "term:str n"), "n")
    return t.append_column("rank", pa.array(
        np.arange(1, t.num_rows + 1), pa.int64()))


def _exact_top_terms_sql() -> str:
    from mee_ray.pipelines.text import TOKEN_PATTERN
    return f"""
SELECT term, CAST(n AS BIGINT) AS n,
       row_number() OVER (ORDER BY n DESC, term) AS rank
FROM (SELECT term, count(*) AS n
      FROM (SELECT unnest(regexp_extract_all(lower(text), '{TOKEN_PATTERN}'))
                   AS term
            FROM documents)
      GROUP BY term)
ORDER BY n DESC, term
LIMIT {HH_TOPK}
"""


EXACT_TOP_TERMS_SQL = _exact_top_terms_sql()


# --- KLL-style quantile sketch ---------------------------------------------
#
# Mergeable rank sketch (Karnin–Lang–Liberty shape, deterministic
# variant): level-l values carry weight 2^l; when a level buffer
# exceeds K it is sorted and every SECOND element promotes one level.
# Real KLL randomizes the even/odd choice; here the choice alternates
# deterministically per compaction (tracked per level), which keeps the
# pipeline reproducible across runs/partitionings at slightly worse
# error constants.  Space O(K log(n/K)) per key, single pass, and the
# per-batch partial that crosses the exchange is the sketch itself —
# never raw values.

KLL_K = 256


def _kll_compact(levels: list[np.ndarray], parity: int) -> int:
    """Compact in place: promote every second element of each
    overfull level.  ``parity`` alternates the kept offset."""
    li = 0
    while li < len(levels):
        if len(levels[li]) > KLL_K:
            buf = np.sort(levels[li])
            keep = buf[(parity & 1)::2]
            parity += 1
            levels[li] = np.empty(0, dtype=np.float64)
            if li + 1 == len(levels):
                levels.append(keep)
            else:
                levels[li + 1] = np.concatenate([levels[li + 1], keep])
        li += 1
    return parity


def _kll_add(levels: list[np.ndarray], vals: np.ndarray,
             parity: int) -> int:
    levels[0] = np.concatenate([levels[0], vals.astype(np.float64)])
    return _kll_compact(levels, parity)


def _kll_merge(a: list[np.ndarray], b: list[np.ndarray],
               parity: int) -> int:
    while len(a) < len(b):
        a.append(np.empty(0, dtype=np.float64))
    for li, buf in enumerate(b):
        a[li] = np.concatenate([a[li], buf])
    return _kll_compact(a, parity)


def _kll_quantile(levels: list[np.ndarray], q: float) -> float:
    vals = np.concatenate([b for b in levels if len(b)] or
                          [np.empty(0, dtype=np.float64)])
    wts = np.concatenate(
        [np.full(len(b), 1 << li, dtype=np.int64)
         for li, b in enumerate(levels) if len(b)] or
        [np.empty(0, dtype=np.int64)])
    if not len(vals):
        return float("nan")
    order = np.argsort(vals, kind="stable")
    vals, wts = vals[order], wts[order]
    cum = np.cumsum(wts)
    target = q * cum[-1]
    return float(vals[np.searchsorted(cum, target, side="left")
                      .clip(0, len(vals) - 1)])


def quantile_sketch_events(sf_dir: str):
    """Approximate per-event-type value quantiles from ONE pass of
    mergeable KLL-style sketches (rows-only: approximate by design —
    the exact order-statistic companion is `quantiles_events`, and the
    rank-error bound is asserted in tests).  Per-batch partials are
    (event_type, level, values) rows; the driver folds sketches, not
    data."""
    def partial(t: pa.Table) -> pa.Table:
        out_k, out_l, out_v = [], [], []
        tt = pa.table({"k": t["event_type"], "v": t["value"]})
        for key in pc.unique(tt["k"]).to_pylist():
            vals = tt.filter(pc.equal(tt["k"], key))["v"] \
                .to_numpy(zero_copy_only=False)
            levels: list[np.ndarray] = [np.empty(0, dtype=np.float64)]
            _kll_add(levels, vals, 0)
            for li, buf in enumerate(levels):
                if len(buf):
                    out_k.append(key)
                    out_l.append(li)
                    out_v.append(buf.tolist())
        return pa.table({"k": pa.array(out_k, pa.string()),
                         "level": pa.array(out_l, pa.int32()),
                         "vals": pa.array(out_v,
                                          pa.list_(pa.float64()))})

    sketches: dict[str, list[np.ndarray]] = {}
    parities: dict[str, int] = {}
    ds = stages.read(sf_dir, "events", ["event_type", "value"])
    for b in (ds.map_batches(partial, batch_format="pyarrow",
                             zero_copy_batch=True)
              .iter_batches(batch_format="pyarrow")):
        for key, li, vals in zip(b["k"].to_pylist(),
                                 b["level"].to_pylist(),
                                 b["vals"].to_pylist()):
            cur = sketches.setdefault(
                key, [np.empty(0, dtype=np.float64)])
            other = [np.empty(0, dtype=np.float64)] * li \
                + [np.asarray(vals, dtype=np.float64)]
            parities[key] = _kll_merge(cur, other,
                                       parities.get(key, 0))
    keys = sorted(sketches)
    return pa.table({
        "event_type": pa.array(keys, pa.string()),
        "p50": pa.array([_kll_quantile(sketches[k], 0.50)
                         for k in keys], pa.float64()),
        "p90": pa.array([_kll_quantile(sketches[k], 0.90)
                         for k in keys], pa.float64()),
        "p99": pa.array([_kll_quantile(sketches[k], 0.99)
                         for k in keys], pa.float64()),
    })


QUERIES = {
    "hll_distinct_counts": hll_distinct_counts,
    "quantile_sketch_events": quantile_sketch_events,
    "exact_distinct_counts": exact_distinct_counts,
    "heavy_hitters_terms": heavy_hitters_terms,
    "exact_top_terms": exact_top_terms,
}

ORACLE = {
    "exact_distinct_counts": EXACT_DISTINCT_SQL,
    "exact_top_terms": EXACT_TOP_TERMS_SQL,
    # heavy_hitters_terms: rows-only (approximate by design; bounds
    # invariant vs the exact counts asserted in tests)
    # hll_distinct_counts: rows-only (approximate by design; error
    # bound + merge identity verified in tests/test_pipelines.py)
}
