"""Geo query/aggregation family — ES geo_bounding_box / geo_distance /
geohash_grid / geo_centroid analogs (reference scope: the ES search
surface the mee pipeline's consumers query; geo fields are a standard
ES mapping type the engine should serve).

The testdata carries no coordinates, so each event gets a
DETERMINISTIC location derived from its keys by a Knuth
multiplicative hash in plain int64 arithmetic (the random_sampler
precedent) — exactly reproducible in both numpy and ANSI SQL, no
floats anywhere:

    lat_micro = (((event_id % 180000001) * 2654435761)
                 % 180000001) - 90000000
    lon_micro = (((event_id % 360000001) * 40503
                  + (user_id % 360000001) * 2654435761)
                 % 360000001) - 180000000

(ids are pre-reduced mod the modulus BEFORE the multiply — the
congruence is unchanged and every intermediate stays < 2^60, so the
identity holds for ids of any magnitude on both sides; a bare
``event_id * 2654435761`` would silently wrap in numpy and throw in
DuckDB beyond ids ~3.5e9)

Microdegree fixed-point keeps every comparison, cell id, centroid
partial and squared distance in int64 (max |coord| 1.8e8 → d² ≤
6.5e16 < 2^63), so results are bit-deterministic under any batch or
merge order and the DuckDB oracles share the identical integer tree.
Distance ranking uses squared planar microdegree distance — the
standard flat-earth small-region surrogate; a haversine variant would
only reorder near-antipodal ties and would put IEEE trig inside the
exchange, which this repo's exactness discipline forbids.

Scale shape: one pruned scan (event_id, user_id, event_type), coords
materialized per batch and never shuffled; only bounded partials
cross the exchange (per-type counts / centroid sums, per-cell counts
— cell grid ≤ 37×73, per-batch top-k candidate rows).

Adding a query: state only its predicate, keys and finish.  The
helpers: ``_coords`` (the one derivation), ``_in_box`` / ``_d2`` (the
box and distance predicates), ``_fold(sf_dir, partial, keys, aggs,
spec)`` (``stages.fold`` of a per-row ``partial(batch, lat, lon)``
over the events scan, collected as ``spec`` and sorted by the keys),
``_count_per_type(sf_dir, mask_of)`` with its oracle
``_count_sql(where)`` (per-event_type counts under a mask), and
``stages.range_bucket_partial`` + ``stages.range_agg`` (fixed
ring buckets).  Oracles build on ``_COORDS_CTE`` (``_COORDS_SQL``,
``_BOX_SQL``, ``_D2_SQL`` are the SQL mirrors); add the name to
``QUERIES`` and ``ORACLE``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from mee_ray import stages

_KNUTH = 2654435761
_LAT_MOD = 180000001
_LON_MOD = 360000001
_CELL = 5_000_000                 # 5° cells for the grid agg

# geo_bounding_box corners (microdegrees)
_BOX = {"lat_lo": 10_000_000, "lat_hi": 60_000_000,
        "lon_lo": -30_000_000, "lon_hi": 90_000_000}
# geo_distance query point + radius (microdegrees / squared)
_Q_LAT, _Q_LON = 25_000_000, 50_000_000
_RADIUS = 40_000_000
_TOPK = 20
# convex polygon for the geo_shape query, CCW (lon, lat) microdegrees
_POLY = [(-60_000_000, -30_000_000), (60_000_000, -50_000_000),
         (80_000_000, 40_000_000), (-40_000_000, 50_000_000)]
_POLY_EDGES = list(zip(_POLY, _POLY[1:] + _POLY[:1]))


def _coords(t: pa.Table):
    eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    lat = ((eid % _LAT_MOD) * _KNUTH) % _LAT_MOD - 90_000_000
    lon = (((eid % _LON_MOD) * 40503 + (uid % _LON_MOD) * _KNUTH)
           % _LON_MOD) - 180_000_000
    return lat, lon


def _in_box(lat, lon) -> np.ndarray:
    return ((lat >= _BOX["lat_lo"]) & (lat <= _BOX["lat_hi"])
            & (lon >= _BOX["lon_lo"]) & (lon <= _BOX["lon_hi"]))


def _d2(lat, lon) -> np.ndarray:
    """Squared planar distance to the query point."""
    return (lat - _Q_LAT) ** 2 + (lon - _Q_LON) ** 2


def _events(sf_dir: str, columns=("event_id", "user_id", "event_type")):
    return stages.read(sf_dir, "events", list(columns))


def _fold(sf_dir: str, partial, keys: str, aggs: str, spec: str):
    """``stages.fold`` of ``partial(batch, lat, lon)`` over the events
    scan, collected as ``spec`` and sorted by ``keys``."""
    t = stages.collect(stages.fold(
        _events(sf_dir), lambda b: partial(b, *_coords(b)), keys, aggs),
        spec)
    return t.sort_by([(k, "ascending") for k in keys.split()])


def _count_per_type(sf_dir: str, mask_of) -> pa.Table:
    """Events whose coordinates pass ``mask_of(lat, lon)``, counted per
    event_type."""
    def partial(t: pa.Table, lat, lon) -> pa.Table:
        m = pa.array(mask_of(lat, lon))
        return pa.table({"event_type": t["event_type"].filter(m),
                         "cnt": pa.array(np.ones(m.true_count, np.int64))})
    return _fold(sf_dir, partial, "event_type", "cnt", "event_type:str cnt")


# the coordinate derivation in SQL: one definition for every oracle
_LAT_SQL = f"(((event_id % {_LAT_MOD}) * {_KNUTH}) % {_LAT_MOD})"
_LON_SQL = (f"(((event_id % {_LON_MOD}) * 40503"
            f" + (user_id % {_LON_MOD}) * {_KNUTH}) % {_LON_MOD})")
_COORDS_SQL = (f"{_LAT_SQL} - 90000000 AS lat,"
               f" {_LON_SQL} - 180000000 AS lon")
_COORDS_CTE = f"""
WITH coords AS (
  SELECT event_type, event_id, {_COORDS_SQL}
  FROM events)
"""
_BOX_SQL = (f"lat BETWEEN {_BOX['lat_lo']} AND {_BOX['lat_hi']}"
            f" AND lon BETWEEN {_BOX['lon_lo']} AND {_BOX['lon_hi']}")
_D2_SQL = (f"(lat - {_Q_LAT}) * (lat - {_Q_LAT})"
           f" + (lon - {_Q_LON}) * (lon - {_Q_LON})")


def _count_sql(where: str) -> str:
    """The oracle of :func:`_count_per_type` under ``where``."""
    return (_COORDS_CTE
            + "SELECT event_type, CAST(count(*) AS BIGINT) AS cnt\n"
              f"FROM coords WHERE {where}\n"
              "GROUP BY event_type ORDER BY event_type")


def geo_bounding_box_events(sf_dir: str) -> pa.Table:
    """geo_bounding_box filter + terms agg: events inside the box,
    counted per event_type."""
    return _count_per_type(sf_dir, _in_box)


GEO_BBOX_SQL = _count_sql(_BOX_SQL)


def geo_grid_events(sf_dir: str) -> pa.Table:
    """geohash_grid analog: bucket events into fixed 5° cells (the
    grid id is pure integer math — shift to non-negative before the
    division so floor == truncate in numpy AND SQL), count + centroid
    partial sums per cell.  Cell count is bounded (≤ 37×73), so the
    exchange carries at most one row per (batch, cell)."""
    def partial(t: pa.Table, lat, lon) -> pa.Table:
        return pa.table({
            "cell_lat": pa.array((lat + 90_000_000) // _CELL, pa.int64()),
            "cell_lon": pa.array((lon + 180_000_000) // _CELL, pa.int64()),
            "cnt": pa.array(np.ones(len(lat), np.int64)),
            "lat_sum": pa.array(lat, pa.int64()),
            "lon_sum": pa.array(lon, pa.int64())})
    return _fold(sf_dir, partial, "cell_lat cell_lon", "cnt lat_sum lon_sum",
                 "cell_lat cell_lon cnt lat_sum lon_sum")


GEO_GRID_SQL = _COORDS_CTE + f"""
SELECT (lat + 90000000) // {_CELL} AS cell_lat,
       (lon + 180000000) // {_CELL} AS cell_lon,
       CAST(count(*) AS BIGINT) AS cnt,
       CAST(sum(lat) AS BIGINT) AS lat_sum,
       CAST(sum(lon) AS BIGINT) AS lon_sum
FROM coords GROUP BY 1, 2 ORDER BY 1, 2
"""


def geo_centroid_events(sf_dir: str) -> pa.Table:
    """geo_centroid agg per event_type: exact int64 partial sums +
    count (the centroid's numerator/denominator — the IEEE division
    is the caller's one-line finish, kept out of the exchange per the
    repo's exactness discipline)."""
    def partial(t: pa.Table, lat, lon) -> pa.Table:
        return pa.table({"event_type": t["event_type"],
                         "cnt": pa.array(np.ones(len(lat), np.int64)),
                         "lat_sum": pa.array(lat, pa.int64()),
                         "lon_sum": pa.array(lon, pa.int64())})
    return _fold(sf_dir, partial, "event_type", "cnt lat_sum lon_sum",
                 "event_type:str cnt lat_sum lon_sum")


GEO_CENTROID_SQL = _COORDS_CTE + """
SELECT event_type, CAST(count(*) AS BIGINT) AS cnt,
       CAST(sum(lat) AS BIGINT) AS lat_sum,
       CAST(sum(lon) AS BIGINT) AS lon_sum
FROM coords GROUP BY event_type ORDER BY event_type
"""


def geo_distance_count_events(sf_dir: str) -> pa.Table:
    """geo_distance filter: events within the radius of the query
    point (squared-planar test, exact int64), counted per
    event_type."""
    return _count_per_type(
        sf_dir, lambda lat, lon: _d2(lat, lon) <= _RADIUS * _RADIUS)


GEO_DIST_COUNT_SQL = _count_sql(f"{_D2_SQL} <= {_RADIUS * _RADIUS}")


def geo_distance_topk_events(sf_dir: str) -> pa.Table:
    """geo_distance sort: the {_TOPK} events nearest the query point,
    (d², event_id)-ordered (deterministic tie-break).  Each batch
    emits only its own top-k candidates, so the final sort+limit runs
    over ≤ k·n_batches rows — the knn partial-top-k idiom."""

    def partial(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        d2 = _d2(*_coords(t))
        keep = np.lexsort((eid, d2))[:_TOPK]
        return pa.table({"event_id": pa.array(eid[keep], pa.int64()),
                         "d2": pa.array(d2[keep], pa.int64())})

    ds = (_events(sf_dir)
          .map_batches(partial, batch_format="pyarrow")
          .sort(["d2", "event_id"])
          .limit(_TOPK))
    return stages.collect(ds, "event_id d2")


GEO_DIST_TOPK_SQL = _COORDS_CTE + f"""
SELECT event_id,
       {_D2_SQL} AS d2
FROM coords ORDER BY d2, event_id LIMIT {_TOPK}
"""


def geo_polygon_events(sf_dir: str) -> pa.Table:
    """ES geo_shape (polygon, relation=within) analog: containment in
    a fixed convex CCW polygon is the AND of per-edge cross-product
    signs — (x2−x1)(py−y1) − (y2−y1)(px−x1) ≥ 0 — pure int64 (products
    ≤ ~1.3e17), so the engine mask and the SQL WHERE share the
    identical condition list; counted per event_type."""
    def inside(lat, lon) -> np.ndarray:
        m = np.ones(len(lat), dtype=bool)
        for (x1, y1), (x2, y2) in _POLY_EDGES:
            m &= ((x2 - x1) * (lat - y1) - (y2 - y1) * (lon - x1)) >= 0
        return m
    return _count_per_type(sf_dir, inside)


GEO_POLYGON_SQL = _count_sql("\n  AND ".join(
    f"({x2 - x1}) * (lat - ({y1})) - ({y2 - y1}) * (lon - ({x1})) >= 0"
    for (x1, y1), (x2, y2) in _POLY_EDGES))


_LINE_N = 12                      # geo_line size (max points per track)


def geo_line_events(sf_dir: str) -> pa.Table:
    """ES ``geo_line`` aggregation analog: per user, the travel track
    — points sorted by (ts, event_id), truncated to the first
    {_LINE_N} (ES's ``size``), rendered as 'lat,lon' pairs joined by
    ' ' (integer microdegrees, so the track string is bit-exact on
    both sides).  The ORDER-SENSITIVE reduction is made exchange-safe
    the usual way: each batch keeps only its ≤{_LINE_N} earliest rows
    per user (one lexsort + segment-head mask — no Python loop), so
    the shuffle carries at most batches × users × {_LINE_N} rows, and
    the per-user merge re-sorts that bounded survivor set."""

    def partial(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        tsu = t["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]"
                                                            ).astype(np.int64)
        order = np.lexsort((eid, tsu, uid))
        u_s, e_s, t_s = uid[order], eid[order], tsu[order]
        starts = np.r_[0, np.nonzero(u_s[1:] != u_s[:-1])[0] + 1]
        counts = np.diff(np.r_[starts, len(u_s)])
        rank = np.arange(len(u_s)) - np.repeat(starts, counts)
        keep = rank < _LINE_N
        return pa.table({"user_id": pa.array(u_s[keep]),
                         "event_id": pa.array(e_s[keep]),
                         "ts_us": pa.array(t_s[keep])})

    def finish(g: pa.Table) -> pa.Table:
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        tsu = g["ts_us"].to_numpy(zero_copy_only=False)
        uid0 = int(g["user_id"][0].as_py())
        order = np.lexsort((eid, tsu))[:_LINE_N]
        eid = eid[order]
        # one derivation rule for the whole family: go through _coords
        lat, lon = _coords(pa.table({
            "event_id": pa.array(eid, pa.int64()),
            "user_id": pa.array(np.full(len(eid), uid0, np.int64))}))
        track = " ".join(f"{a},{o}" for a, o in zip(lat, lon))
        return pa.table({"user_id": pa.array([uid0], pa.int64()),
                         "n_points": pa.array([len(eid)], pa.int64()),
                         "track": pa.array([track], pa.string())})

    ds = (_events(sf_dir, ("event_id", "user_id", "ts"))
          .map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True)
          .groupby("user_id")
          .map_groups(finish, batch_format="pyarrow"))
    t = stages.collect(ds, "user_id n_points track:str")
    return t.sort_by("user_id")


GEO_LINE_SQL = f"""
WITH pts AS (
  SELECT user_id, {_COORDS_SQL},
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn
  FROM events)
SELECT user_id, CAST(count(*) AS BIGINT) AS n_points,
       string_agg(CAST(lat AS VARCHAR) || ',' || CAST(lon AS VARCHAR),
                  ' ' ORDER BY rn) AS track
FROM pts WHERE rn <= {_LINE_N}
GROUP BY user_id ORDER BY user_id
"""


def geo_bounds_events(sf_dir: str) -> pa.Table:
    """ES geo_bounds aggregation: the tightest lat/lon box per
    event_type — int64 min/max partials per batch (associative +
    idempotent, so batch boundaries and merge order can't change the
    box)."""
    def partial(t: pa.Table, lat, lon) -> pa.Table:
        lat, lon = pa.array(lat, pa.int64()), pa.array(lon, pa.int64())
        return pa.table({"event_type": t["event_type"], "min_lat": lat,
                         "max_lat": lat, "min_lon": lon, "max_lon": lon})
    return _fold(sf_dir, partial, "event_type",
                 "min_lat:min max_lat:max min_lon:min max_lon:max",
                 "event_type:str min_lat max_lat min_lon max_lon")


GEO_BOUNDS_SQL = _COORDS_CTE + """
SELECT event_type,
       CAST(min(lat) AS BIGINT) AS min_lat,
       CAST(max(lat) AS BIGINT) AS max_lat,
       CAST(min(lon) AS BIGINT) AS min_lon,
       CAST(max(lon) AS BIGINT) AS max_lon
FROM coords GROUP BY event_type ORDER BY event_type
"""


_RINGS = [20_000_000, 60_000_000, 120_000_000]   # ring radii (microdeg)


def geo_distance_rings_events(sf_dir: str) -> pa.Table:
    """ES geo_distance AGGREGATION: concentric rings around the query
    point, from ≤ d < to per bucket.  Squared thresholds keep the
    test int64-exact (d < r ⟺ d² < r²); each batch emits exactly one
    4-row partial via the shared range-bucket combiner."""
    edges2 = np.array([r * r for r in _RINGS], np.int64)
    labels = {"ring": pa.array([f"ring{i}" for i in range(len(_RINGS) + 1)],
                               pa.string()),
              "from_r": pa.array([0] + _RINGS, pa.int64()),
              "to_r": pa.array(_RINGS + [None], pa.int64())}
    partial = stages.range_bucket_partial(edges2, labels,
                                          lambda t: _d2(*_coords(t)))
    ds = stages.fold(_events(sf_dir),
                     lambda t: partial(t).rename_columns([*labels, "cnt"]),
                     " ".join(labels), "cnt")
    return stages.range_agg(ds, labels, ["cnt"]).sort_by("ring")


def _geo_rings_sql() -> str:
    bounds = list(zip([0] + _RINGS, _RINGS + [None]))
    selects = []
    for i, (lo, hi) in enumerate(bounds):
        conds = [f"{_D2_SQL} >= {lo * lo}"]
        if hi is not None:
            conds.append(f"{_D2_SQL} < {hi * hi}")
        hi_s = "CAST(NULL AS BIGINT)" if hi is None else str(hi)
        selects.append(
            f"SELECT 'ring{i}' AS ring, CAST({lo} AS BIGINT) AS from_r, "
            f"{hi_s} AS to_r, CAST(count(*) AS BIGINT) AS cnt "
            f"FROM coords WHERE {' AND '.join(conds)}")
    return _COORDS_CTE + "\nUNION ALL\n".join(selects)


GEO_RINGS_SQL = _geo_rings_sql()


# ------------------------------------------- Z-order partitioning ---
# Space-filling-curve bucketing (the Morton/Z-order layout Delta/
# Iceberg use for multi-dimensional partition pruning): 16-bit cell
# coordinates interleave into a 32-bit code; a range predicate over
# (lat, lon) touches only the Z-buckets whose cell ranges intersect
# it, so a partitioned store can skip the rest.  Everything is int64
# bit arithmetic, mirrored term-for-term in SQL (the interleave
# expression is GENERATED so engine and oracle share one definition).

_ZCELL = 6_000                     # 0.006° cells → <2^16 per axis
_ZBUCKET_SHIFT = 22                # 32-bit code → 1024 partitions


def _morton_expr(cx: str, cy: str) -> str:
    """The 16-bit interleave as a SQL expression over columns."""
    return " + ".join(
        f"((({cx} >> {i}) & 1) << {2 * i})"
        f" + ((({cy} >> {i}) & 1) << {2 * i + 1})"
        for i in range(16))


def _morton_np(cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    code = np.zeros(len(cx), dtype=np.int64)
    for i in range(16):
        code |= ((cx >> i) & 1) << (2 * i)
        code |= ((cy >> i) & 1) << (2 * i + 1)
    return code


def zorder_partitions_events(sf_dir: str) -> pa.Table:
    """Per Z-bucket: total events and events inside the reference
    bounding box — the pruning table a partitioned layout consults
    (buckets with n_in_box = 0 are skippable for the box query).
    Per-batch partials are ≤1024 rows regardless of batch size."""
    def partial(t: pa.Table, lat, lon) -> pa.Table:
        cx = (lon + 180_000_000) // _ZCELL
        cy = (lat + 90_000_000) // _ZCELL
        return pa.table({
            "zbucket": pa.array(_morton_np(cx, cy) >> _ZBUCKET_SHIFT,
                                pa.int64()),
            "n_events": pa.array(np.ones(len(lat), np.int64)),
            "n_in_box": pa.array(_in_box(lat, lon).astype(np.int64))})
    return _fold(sf_dir, partial, "zbucket", "n_events n_in_box",
                 "zbucket n_events n_in_box")


ZORDER_SQL = f"""
{_COORDS_CTE},
cells AS (
  SELECT (lon + 180000000) // {_ZCELL} AS cx,
         (lat + 90000000) // {_ZCELL} AS cy,
         lat, lon
  FROM coords),
z AS (
  SELECT ({_morton_expr("cx", "cy")}) >> {_ZBUCKET_SHIFT} AS zbucket,
         CASE WHEN {_BOX_SQL} THEN 1 ELSE 0 END AS in_box
  FROM cells)
SELECT zbucket, CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(in_box) AS BIGINT) AS n_in_box
FROM z GROUP BY zbucket
"""


QUERIES = {
    "zorder_partitions_events": zorder_partitions_events,
    "geo_line_events": geo_line_events,
    "geo_polygon_events": geo_polygon_events,
    "geo_bounds_events": geo_bounds_events,
    "geo_distance_rings_events": geo_distance_rings_events,
    "geo_bounding_box_events": geo_bounding_box_events,
    "geo_grid_events": geo_grid_events,
    "geo_centroid_events": geo_centroid_events,
    "geo_distance_count_events": geo_distance_count_events,
    "geo_distance_topk_events": geo_distance_topk_events,
}

ORACLE = {
    "zorder_partitions_events": ZORDER_SQL,
    "geo_line_events": GEO_LINE_SQL,
    "geo_polygon_events": GEO_POLYGON_SQL,
    "geo_bounds_events": GEO_BOUNDS_SQL,
    "geo_distance_rings_events": GEO_RINGS_SQL,
    "geo_bounding_box_events": GEO_BBOX_SQL,
    "geo_grid_events": GEO_GRID_SQL,
    "geo_centroid_events": GEO_CENTROID_SQL,
    "geo_distance_count_events": GEO_DIST_COUNT_SQL,
    "geo_distance_topk_events": GEO_DIST_TOPK_SQL,
}
