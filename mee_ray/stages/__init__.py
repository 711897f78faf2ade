"""Ray Data stages, and the plumbing every pipeline family shares: the
one sizing rule of every actor pool (these stages, the fulltext
broadcast scans, BPE): :func:`actor_pool`; the one sizing rule of every
hash-shuffle join (relational): :func:`hash_join`; the column-spec
tables query results are built from: :func:`schema`, :func:`table`;
and the one typed driver collect of a small result (relational,
text): :func:`collect`."""

import pyarrow as pa

_TYPES = {"": pa.int64(), "str": pa.string(), "f64": pa.float64(),
          "ts": pa.timestamp("us")}


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


def collect(ds, spec: str) -> pa.Table:
    """The one driver collect, for results small by construction
    (reduced aggregates, top-k survivors): every non-empty batch of
    ``ds`` as the ``spec`` schema (columns selected in order and cast),
    and a zero-row table of that schema when there is none — an empty
    Ray groupby yields no batch, or batches without columns."""
    s = schema(spec)
    return pa.concat_tables(
        [b.select(s.names).cast(s) for b in
         ds.iter_batches(batch_format="pyarrow", batch_size=None)
         if b.num_rows] or [s.empty_table()])


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


def hash_join(left, right, on: str, right_on: str | None = None):
    """Inner hash-shuffle join of two Datasets, ``left.on ==
    right.right_on`` (``right_on`` defaults to ``on``): both sides
    hash-partition on the key and each partition joins on its own, so
    peak memory is one partition, never a whole side.

    Ray Data runs one long-lived aggregator actor per partition.  With
    a whole CPU each, the pool takes every CPU and starves the read and
    map tasks that feed it (observed at 4 CPUs; at 1 CPU even 0.25 CPU
    per aggregator stalls).  So there are ``max(2, cpus // 2)``
    partitions, and each aggregator asks for an equal share of all
    CPUs but one, at most half a CPU (0 on a 1-CPU cluster)."""
    import ray
    cpus = ray.cluster_resources().get("CPU", 8.0)
    parts = max(2, int(cpus) // 2)
    return left.join(
        right, join_type="inner", num_partitions=parts, on=(on,),
        right_on=(right_on,) if right_on else None,
        aggregator_ray_remote_args={
            "num_cpus": min(0.5, max(0.0, cpus - 1) / parts)})
