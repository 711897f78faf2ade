"""Ray Data stages, and the plumbing every pipeline family shares.
Each mechanic has one helper here; an operator states only its own
predicate, keys and finish:

- :func:`read` — the pruned parquet scan of one ``sf_dir`` table;
- :func:`fold` — the grouped partial-aggregate fold (per-batch pyarrow
  combiner + one Ray groupby; no keys = the global fold);
- :func:`collect` — the typed driver collect of a small result, a
  zero-row table on empty input; :func:`schema` / :func:`table` are
  the column specs results are built from;
- :func:`cents_of` — SQL ``CAST(round(x * 100) AS BIGINT)``, the one
  rounding contract of money sums;
- :func:`by_bucket` — the bucketed shuffle: a key hashes
  (``gramhash.mix64``) into the caller's bucket count and one call
  resolves every key of a bucket;
- :func:`hash_join` — the one large×large join, ``inner`` or
  ``left_semi``, answered with the empty join when a side has no rows;
- :func:`range_bucket_partial` / :func:`range_agg` — fixed ``[from,
  to)`` range buckets (date/ip ranges, geo distance rings);
- :func:`actor_pool` — the one sizing rule of every actor pool."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_TYPES = {"": pa.int64(), "str": pa.string(), "f64": pa.float64(),
          "ts": pa.timestamp("us")}


def read(sf_dir: str, table: str, columns=None):
    """``sf_dir/table.parquet`` as a lazy Dataset of ``columns``."""
    import ray.data
    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def schema(spec: str) -> pa.Schema:
    """The schema ``spec`` names: columns in order, each ``name``
    (int64), ``name:str``, ``name:f64`` or ``name:ts`` (timestamp[us])."""
    return pa.schema([(n, _TYPES[t]) for n, _, t in
                      (c.partition(":") for c in spec.split())])


def table(rows, spec: str) -> pa.Table:
    """Row tuples → a table of the ``spec`` schema."""
    s = schema(spec)
    cols = list(zip(*rows)) if rows else [()] * len(s)
    return pa.table([pa.array(list(c), f.type) for f, c in zip(s, cols)],
                    schema=s)


def collect(ds, spec) -> pa.Table:
    """The one driver collect, for results small by construction
    (reduced aggregates, top-k survivors): every non-empty batch of
    ``ds`` as the ``spec`` schema (a ``schema`` spec string or a
    pa.Schema; columns selected in order and cast), and a zero-row
    table of that schema when there is none — an empty Ray groupby
    yields no batch, or batches without columns."""
    s = spec if isinstance(spec, pa.Schema) else schema(spec)
    return pa.concat_tables(
        [b.select(s.names).cast(s) for b in
         ds.iter_batches(batch_format="pyarrow", batch_size=None)
         if b.num_rows] or [s.empty_table()])


def cents_of(col, scale: float = 100.0):
    """SQL ``CAST(round(col * scale) AS BIGINT)`` exactly.
    pc.round(half_towards_infinity) IS SQL round()'s half away from
    zero; floor(x + 0.5) is not (a double one ulp below a .5 boundary
    has x + 0.5 round UP to it in FP), nor is pyarrow's default or
    Python's half-to-even.  Money sums run over these per-row
    integers, so no partial/shuffle merge order can move a total
    across a rounding boundary.  The options object is built per call
    (it does not pickle into Ray Data transform fns)."""
    return pc.cast(pc.round(pc.multiply(col, pa.scalar(float(scale))),
                            options=pc.RoundOptions(
                                round_mode="half_towards_infinity")),
                   pa.int64())


def fold(ds, partial, keys: str, aggs: str):
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
    parts = ds.map_batches(combine, batch_format="pyarrow",
                           zero_copy_batch=True)
    return parts.groupby(ks).aggregate(*folds) if ks else \
        parts.aggregate(*folds)


def by_bucket(ds, key: str, fn, n_buckets: int):
    """The bucketed shuffle: ``key`` hashes into ``n_buckets`` groups
    (``gramhash.mix64`` of the integer key; other keys hash through
    ``gramhash.token_hash64`` of their text first) and ``fn`` resolves
    every key of a group in one vectorized pass; the group carries an
    extra ``bucket`` column.  Grouping by the raw key would make one
    Python map_groups call per key (thousands of tiny groups, measured
    4× slower)."""
    from mee_ray.pipelines.gramhash import mix64, token_hash64

    def bucket(t: pa.Table) -> pa.Table:
        k = t[key]
        h = (pc.fill_null(k, 0).to_numpy(zero_copy_only=False)
             if pa.types.is_integer(k.type) else
             token_hash64(pc.fill_null(pc.cast(k, pa.string()), "")))
        return t.append_column("bucket", pa.array(
            (mix64(h) % np.uint64(n_buckets)).astype(np.int64)))
    return (ds.map_batches(bucket, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("bucket").map_groups(fn, batch_format="pyarrow"))


def range_bucket_partial(edges: np.ndarray, labels: dict, key_fn,
                         weight_fn=None):
    """The ``[from, to)`` range-bucket partial of the ES range-agg
    family (date_range / ip_range / geo distance rings): each batch
    emits exactly ONE (len(edges)+1)-row partial — bucket id via
    searchsorted(side="right") over the contiguous edges, counts via
    bincount, optional weight sums via float64 bincount (exact while
    the per-batch |Σ| < 2^53; the cross-batch sum stays int64)."""
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


def range_agg(ds, labels: dict, agg_names: list) -> pa.Table:
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


def actor_pool(max_size: int, min_size: int = 1) -> dict:
    """``map_batches`` keywords for a pool of ``min_size``..``max_size``
    actors that never holds the cluster's last CPU.

    Ray Data gives each actor one CPU unless told otherwise, and the
    read or map tasks that feed the pool need one too: on a 1-CPU
    cluster the first actor takes the only CPU and the pipeline makes
    no progress.  So each actor asks for an equal share of all CPUs
    but one, at most one CPU (0 on a 1-CPU cluster)."""
    import ray
    cpus = ray.cluster_resources().get("CPU", 1.0)
    return {"concurrency": (min_size, max_size),
            "num_cpus": min(1.0, max(0.0, cpus - 1) / max_size)}


def hash_join(left, right, on: str, right_on: str | None = None,
              join_type: str = "inner"):
    """Hash-shuffle join of two Datasets, ``left.on ==
    right.right_on`` (``right_on`` defaults to ``on``): ``inner``
    (left and right columns, the right key dropped) or ``left_semi``
    (the left rows that have a match, left columns only).  Both sides
    hash-partition on the key and each partition joins on its own, so
    peak memory is one partition, never a whole side.

    Ray's join fails when a side has no rows at all (its aggregator
    builds a partition without columns), and both join types are
    empty then: each side is probed for one row first, and an empty
    side answers ``left`` with no rows.

    Ray Data runs one long-lived aggregator actor per partition.  With
    a whole CPU each, the pool takes every CPU and starves the read and
    map tasks that feed it (observed at 4 CPUs; at 1 CPU even 0.25 CPU
    per aggregator stalls).  So there are ``max(2, cpus // 2)``
    partitions, and each aggregator asks for an equal share of all
    CPUs but one, at most half a CPU (0 on a 1-CPU cluster)."""
    import ray
    if not (left.limit(1).count() and right.limit(1).count()):
        return left.limit(0)
    cpus = ray.cluster_resources().get("CPU", 8.0)
    parts = max(2, int(cpus) // 2)
    return left.join(
        right, join_type=join_type, num_partitions=parts, on=(on,),
        right_on=(right_on,) if right_on else None,
        aggregator_ray_remote_args={
            "num_cpus": min(0.5, max(0.0, cpus - 1) / parts)})
