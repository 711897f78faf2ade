"""Distributed near-duplicate CLUSTERING: connected components over
candidate-pair edges, plus edge generation from shared token n-grams.

Why this exists: the reference deduplicates by document identity only
(upsert by _id — modules/handlers/v1/commonhandler.py:68-83), and this
engine's pair generators (minhash_lsh_candidates, simhash_dup_pairs,
ngram_jaccard_adjacent) stop at *edges*.  A training-data pipeline
needs the closure: partition the corpus into duplicate clusters and
pick one canonical representative per cluster.  That closure is a
connected-components computation, which Ray Data has no primitive for
— so it is built here from groupby shuffles.

Algorithm: alternating Large-Star / Small-Star (Kiveris, Lattanzi,
Mirrokni, Rastogi, Vassilvitskii — "Connected Components in MapReduce
and Beyond", SoCC'14; a public-paper MapReduce algorithm).  Each round
is two hash-bucketed groupby shuffles of the edge list plus one
dedup/probe pass; the edge list only shrinks (toward a star forest
rooted at each component's minimum node id) and the paper bounds the
round count at O(log^2 n) — in practice a handful.

Scale shape (the 100-TB lens):
* edges live in a Ray Dataset end-to-end and are only touched through
  hash-bucketed groupbys — no driver-side adjacency, no take_all of
  the edge list.
* each bucket group processes MANY nodes in one vectorized pass
  (lexsort + segment boundaries + ``np.minimum.reduceat``) — the
  bucketed-groupby discipline used across this repo (never a Python
  group per node).
* the only driver state is the per-round convergence probe — one
  (count, xor-of-hashes) pair of int64s per round.
* ``materialize()`` between rounds is REQUIRED, not a smell: the next
  round's input must not re-execute the previous rounds' lineage.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from mee_ray.pipelines.gramhash import unique_rows

_N_BUCKETS = 64
_EDGE_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64())])
# multiplicative mix for the bucket/probe hashes (splitmix64 constant)
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _mix64(x: np.ndarray) -> np.ndarray:
    # single definition lives in gramhash (review finding r4#8 —
    # two hand-synced copies of the finalizer risked silent bucket
    # divergence); this alias keeps the historical local name
    from mee_ray.pipelines.gramhash import mix64
    return mix64(x)


def _edges_table(a: np.ndarray, b: np.ndarray) -> pa.Table:
    return pa.table({"a": pa.array(a.astype(np.int64), pa.int64()),
                     "b": pa.array(b.astype(np.int64), pa.int64())})


def _large_star(edges):
    """One Large-Star round: for every node u, connect each LARGER
    neighbor v to m(u) = min(neighbors(u) + {u}).

    Input/output edges are canonical (a < b).  The symmetric view
    (both directions of every edge) is materialized per batch in the
    bucket mapper; each bucket group then resolves all of its nodes in
    one vectorized pass."""

    def to_sym(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        u = np.concatenate([a, b])
        v = np.concatenate([b, a])
        bucket = (_mix64(u) % np.uint64(_N_BUCKETS)).astype(np.int32)
        return pa.table({"bucket": pa.array(bucket),
                         "u": pa.array(u, pa.int64()),
                         "v": pa.array(v, pa.int64())})

    def star_of_group(g: pa.Table) -> pa.Table:
        u = g["u"].to_numpy(zero_copy_only=False)
        v = g["v"].to_numpy(zero_copy_only=False)
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        seg_min = np.minimum(np.minimum.reduceat(v, starts), u[starts])
        # repeat each segment's m across its rows, keep rows v > u
        seg_id = np.cumsum(np.r_[False, u[1:] != u[:-1]])
        m = seg_min[seg_id]
        keep = v > u
        return _edges_table(m[keep], v[keep])

    return (edges.map_batches(to_sym, batch_format="pyarrow",
                              zero_copy_batch=True)
            .groupby("bucket")
            .map_groups(star_of_group, batch_format="pyarrow"))


def _small_star(edges):
    """One Small-Star round: orient every edge (a < b) toward its
    larger endpoint b; for each b connect all smaller neighbors (and b
    itself) to their minimum."""

    def to_bucketed(t: pa.Table) -> pa.Table:
        b = t["b"].to_numpy(zero_copy_only=False)
        bucket = (_mix64(b) % np.uint64(_N_BUCKETS)).astype(np.int32)
        return pa.table({"bucket": pa.array(bucket),
                         "u": t["b"], "v": t["a"]})

    def star_of_group(g: pa.Table) -> pa.Table:
        u = g["u"].to_numpy(zero_copy_only=False)   # larger endpoint
        v = g["v"].to_numpy(zero_copy_only=False)   # smaller neighbors
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        seg_min = np.minimum.reduceat(v, starts)    # all v < u already
        seg_id = np.cumsum(np.r_[False, u[1:] != u[:-1]])
        m = seg_min[seg_id]
        keep = v > m                                 # (m, v) for v != m
        out_a = np.concatenate([m[keep], seg_min])
        out_b = np.concatenate([v[keep], u[starts]])  # plus (m, u)
        return _edges_table(*unique_rows(out_a, out_b))

    return (edges.map_batches(to_bucketed, batch_format="pyarrow",
                              zero_copy_batch=True)
            .groupby("bucket")
            .map_groups(star_of_group, batch_format="pyarrow"))


def _global_dedup(edges):
    """Exact global pair dedup: same pair always hashes to the same
    bucket, so a per-bucket sort-dedupe is globally exact."""

    def to_bucketed(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        bucket = (_mix64(_mix64(a) ^ np.uint64(3) * _mix64(b))
                  % np.uint64(_N_BUCKETS)).astype(np.int32)
        return pa.table({"bucket": pa.array(bucket),
                         "a": t["a"], "b": t["b"]})

    def dedup_group(g: pa.Table) -> pa.Table:
        a = g["a"].to_numpy(zero_copy_only=False)
        b = g["b"].to_numpy(zero_copy_only=False)
        return _edges_table(*unique_rows(a, b))

    return (edges.map_batches(to_bucketed, batch_format="pyarrow",
                              zero_copy_batch=True)
            .groupby("bucket")
            .map_groups(dedup_group, batch_format="pyarrow"))


def _probe(edges) -> tuple[int, int]:
    """(count, xor-of-pair-hashes) of a deduped edge set — the
    convergence fingerprint.  Per-batch partials only; the driver
    folds one small row per block."""

    def partial(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        h = _mix64(_mix64(a) + np.uint64(7) * _mix64(b))
        x = np.bitwise_xor.reduce(h) if len(h) else np.uint64(0)
        return pa.table({"n": pa.array([len(a)], pa.int64()),
                         "x": pa.array([int(x)], pa.uint64())})

    n, x = 0, 0
    for t in edges.map_batches(partial, batch_format="pyarrow",
                               zero_copy_batch=True).iter_batches(
                                   batch_format="pyarrow"):
        n += sum(t["n"].to_pylist())
        for v in t["x"].to_pylist():
            x ^= int(v)
    return n, x


def connected_components(edges, max_iters: int = 50) -> pa.Table:
    """Connected components of an undirected edge Dataset.

    ``edges``: Ray Dataset with int64 columns ``a``, ``b`` (orientation
    and duplicates irrelevant; self-loops ignored).  Returns a
    pa.Table (node, root) covering every node that appears in an edge,
    root = the component's minimum node id.  Nodes absent from the
    edge set are singletons — callers union those in themselves
    (see :func:`neardup_gram_clusters` for the bucketed-join pattern).

    The RESULT is materialized (one row per clustered node — the
    deliverable of the computation, bounded by the duplicate count,
    not the corpus); the ITERATIONS never materialize on the driver.
    """

    def drop_self(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        keep = a != b
        lo = np.minimum(a[keep], b[keep])
        hi = np.maximum(a[keep], b[keep])
        return _edges_table(lo, hi)

    cur = _global_dedup(
        edges.map_batches(drop_self, batch_format="pyarrow",
                          zero_copy_batch=True)).materialize()
    prev = _probe(cur)
    if prev[0] == 0:
        return pa.Table.from_pylist(
            [], schema=pa.schema([("node", pa.int64()),
                                  ("root", pa.int64())]))
    for _ in range(max_iters):
        cur = _global_dedup(_small_star(_large_star(cur))).materialize()
        sig = _probe(cur)
        if sig == prev:
            break
        prev = sig
    else:
        raise RuntimeError(
            f"connected_components: no convergence in {max_iters} rounds")

    # converged star forest: every edge is (root, node); roots map to
    # themselves
    parts = [t for t in cur.iter_batches(batch_format="pyarrow")]
    t = pa.concat_tables(parts) if parts else _edges_table(
        np.empty(0, np.int64), np.empty(0, np.int64))
    a = t["a"].to_numpy(zero_copy_only=False)
    b = t["b"].to_numpy(zero_copy_only=False)
    roots = np.unique(a)
    node = np.concatenate([b, roots])
    root = np.concatenate([a, roots])
    order = np.argsort(node, kind="stable")
    return pa.table({"node": pa.array(node[order], pa.int64()),
                     "root": pa.array(root[order], pa.int64())})


# ------------------------------------------------- edge generation


def gram_dup_edges(sf_dir: str, n: int = 8, max_df: int = 50):
    """Candidate edges over the full documents table — see
    :func:`gram_dup_edges_ds` (this just binds the source)."""
    from mee_ray.pipelines.text import _read_docs
    return gram_dup_edges_ds(_read_docs(sf_dir, ["doc_id", "text"]),
                             n=n, max_df=max_df)


def gram_dup_edges_ds(docs, n: int = 8, max_df: int = 50):
    """Candidate edges: documents sharing at least one token ``n``-gram
    whose document frequency is in [2, max_df].

    ``docs``: Ray Dataset with (doc_id, text) columns — the full
    corpus or any curated subset (df counts are relative to the input).

    The df cap is the standard dedup hygiene step: a gram shared by
    thousands of documents is boilerplate, and its all-pairs (or even
    star) edge set would fuse unrelated documents into one mega
    cluster.  STAR edges (min doc of the gram → each other doc)
    preserve exactly the same connected components as all-pairs within
    a gram while emitting O(df) instead of O(df²) rows.

    Distributed shape: one map_batches pass explodes documents to
    (gram_key, doc_id) rows (per-doc distinct); ONE bucketed groupby
    co-locates each gram's documents; each bucket group resolves MANY
    grams vectorized.  `text` never leaves the tokenize task.

    The explode is fully vectorized via the
    :mod:`mee_ray.pipelines.gramhash` kernel (Arrow tokenize +
    SipHash-per-unique-token + FNV window fold — no Python per row,
    no per-gram md5).  The retired legacy string/md5 path's output is
    frozen as a golden fixture (tests/golden/gram_edges_sf0001.parquet)
    that test_gramhash.py still asserts bit-identity against."""

    def explode_hashed(t: pa.Table) -> pa.Table:
        from mee_ray.pipelines.gramhash import (gram_hash64,
                                                token_hash64,
                                                tokenize_flat)
        flat, _, lens = tokenize_flat(t["text"], mode="space")
        th = token_hash64(flat)
        didx, _, g = gram_hash64(th, lens, n)
        dids = t["doc_id"].to_numpy(zero_copy_only=False)
        d, g = unique_rows(dids[didx], g)    # per-doc distinct grams
        bucket = (_mix64(g) % np.uint64(_N_BUCKETS)).astype(np.int32)
        return pa.table({"bucket": pa.array(bucket),
                         "g": pa.array(g, pa.int64()),
                         "doc_id": pa.array(d, pa.int64())})

    def star_edges(t: pa.Table, cap: int = max_df) -> pa.Table:
        g = t["g"].to_numpy(zero_copy_only=False)
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        g, d = unique_rows(g, d)      # distinct (gram, doc)
        if len(g) == 0:
            return pa.Table.from_pylist([], schema=_EDGE_SCHEMA)
        starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
        sizes = np.diff(np.r_[starts, len(g)])
        seg_id = np.cumsum(np.r_[False, g[1:] != g[:-1]])
        seg_min = d[starts]             # d sorted within each gram
        keep = (sizes[seg_id] >= 2) & (sizes[seg_id] <= cap) \
            & (d != seg_min[seg_id])
        return _edges_table(seg_min[seg_id][keep], d[keep])

    return (docs
            .map_batches(explode_hashed,
                         batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby("bucket")
            .map_groups(star_edges, batch_format="pyarrow"))


# ------------------------------------------------- driver queries


def _clusters_with_singletons(sf_dir: str, cc: pa.Table,
                              id_source=None,
                              id_col: str = "doc_id") -> pa.Table:
    """(id, root) for EVERY row of the id table: clustered nodes get
    their component root, the rest map to themselves.  One bucketed
    groupby joins the (small) cluster mapping to the (large) id scan —
    no corpus-sized broadcast.  ``id_source``/``id_col`` override the
    default documents table (e.g. the embeddings table's vec_id)."""
    import ray.data

    from mee_ray.pipelines.text import _read_docs

    def tag_docs(t: pa.Table) -> pa.Table:
        d = t[id_col].to_numpy(zero_copy_only=False)
        bucket = (_mix64(d) % np.uint64(_N_BUCKETS)).astype(np.int32)
        return pa.table({"bucket": pa.array(bucket),
                         "doc_id": pa.array(d, pa.int64()),
                         "root": pa.array(
                             np.full(len(d), -1, dtype=np.int64)),
                         "is_map": pa.array(
                             np.zeros(len(d), dtype=np.int8))})

    def tag_map(t: pa.Table) -> pa.Table:
        d = t["node"].to_numpy(zero_copy_only=False)
        bucket = (_mix64(d) % np.uint64(_N_BUCKETS)).astype(np.int32)
        return pa.table({"bucket": pa.array(bucket),
                         "doc_id": pa.array(d, pa.int64()),
                         "root": t["root"],
                         "is_map": pa.array(
                             np.ones(len(d), dtype=np.int8))})

    def resolve(g: pa.Table) -> pa.Table:
        d = g["doc_id"].to_numpy(zero_copy_only=False)
        r = g["root"].to_numpy(zero_copy_only=False)
        is_map = g["is_map"].to_numpy(zero_copy_only=False).astype(bool)
        mk, mv = d[is_map], r[is_map]
        order = np.argsort(mk, kind="stable")
        mk, mv = mk[order], mv[order]
        dd = d[~is_map]
        root = dd.copy()
        if len(mk):
            pos = np.searchsorted(mk, dd)
            pos_c = np.clip(pos, 0, len(mk) - 1)
            hit = mk[pos_c] == dd
            root[hit] = mv[pos_c[hit]]
        return pa.table({"doc_id": pa.array(dd, pa.int64()),
                         "root": pa.array(root, pa.int64())})

    ids_ds = (id_source if id_source is not None
              else _read_docs(sf_dir, ["doc_id"]))
    docs_side = ids_ds.map_batches(
        tag_docs, batch_format="pyarrow", zero_copy_batch=True)
    map_side = ray.data.from_arrow(cc).map_batches(
        tag_map, batch_format="pyarrow")
    both = docs_side.union(map_side)
    parts = list(both.groupby("bucket")
                 .map_groups(resolve, batch_format="pyarrow")
                 .iter_batches(batch_format="pyarrow"))
    out = pa.concat_tables(parts) if parts else pa.table(
        {"doc_id": pa.array([], pa.int64()),
         "root": pa.array([], pa.int64())})
    out = out.sort_by("doc_id")
    if id_col != "doc_id":
        out = out.rename_columns([id_col, "root"])
    return out


def neardup_gram_clusters(sf_dir: str) -> pa.Table:
    """Near-dup cluster assignment over shared token 8-grams
    (df ≤ 50): every document → its component's min doc_id.

    SQL-oracle-checkable end-to-end: the oracle reproduces the edge
    rule with a gram self-join and the closure with a recursive CTE."""
    cc = connected_components(gram_dup_edges(sf_dir, n=8, max_df=50))
    return _clusters_with_singletons(sf_dir, cc)


def neardup_representatives(sf_dir: str) -> pa.Table:
    """The curated keep-list: one canonical representative (min
    doc_id) per near-dup cluster + all singletons — i.e. the rows a
    dedup stage would feed to training."""
    t = neardup_gram_clusters(sf_dir)
    d = t["doc_id"].to_numpy(zero_copy_only=False)
    r = t["root"].to_numpy(zero_copy_only=False)
    keep = d == r
    return pa.table({"doc_id": pa.array(d[keep], pa.int64())})


def embedding_neardup_clusters(sf_dir: str) -> pa.Table:
    """Cluster assignment over the embedding-cosine near-dup pair set
    (IVF-bucketed candidates, exact cosine ≥ τ): the semantic-dedup
    closure.  Completes the near-dup family — every pair generator
    (gram, MinHash, embedding) now ends in components + canonical
    representatives.  Rows-only driver check; the pair generator has
    its own exactness/recall tests."""
    import ray.data

    from mee_ray.pipelines.vector import embedding_neardup
    pairs = embedding_neardup(sf_dir)     # Ray Dataset (a, b, cosine)
    edges = (ray.data.from_arrow(pairs.select(["a", "b"]))
             if isinstance(pairs, pa.Table)
             else pairs.select_columns(["a", "b"]))
    cc = connected_components(edges)
    emb_ids = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                    columns=["vec_id"])
    return _clusters_with_singletons(sf_dir, cc, id_source=emb_ids,
                                     id_col="vec_id")


def minhash_neardup_clusters(sf_dir: str) -> pa.Table:
    """Cluster assignment over the MinHash-LSH verified pair set (the
    probabilistic edge rule; rows-only driver check — the pair
    generator is verified against a brute-force oracle in tests)."""
    import ray.data

    from mee_ray.pipelines.text import minhash_lsh_candidates
    pairs = minhash_lsh_candidates(sf_dir)      # Dataset (distributed verify)
    cc = connected_components(pairs.select_columns(["a", "b"]))
    return _clusters_with_singletons(sf_dir, cc)


NEARDUP_CLUSTERS_SQL = """
WITH RECURSIVE
tok AS (SELECT doc_id, string_split(text, ' ') AS ts FROM documents),
grams AS (
  SELECT DISTINCT doc_id, md5(array_to_string(list_slice(ts, i, i+7), ' ')) AS g
  FROM tok, LATERAL (SELECT unnest(generate_series(1, len(ts)-7)) AS i) s
),
gd AS (
  SELECT g, list_sort(list(DISTINCT doc_id)) AS ds
  FROM grams GROUP BY g
  HAVING count(DISTINCT doc_id) BETWEEN 2 AND 50
),
edges AS (
  SELECT DISTINCT ds[1] AS a, u.b AS b
  FROM gd, LATERAL (SELECT unnest(ds) AS b) u
  WHERE u.b != ds[1]
),
sym AS (SELECT a, b FROM edges UNION SELECT b AS a, a AS b FROM edges),
reach AS (
  SELECT doc_id AS node, doc_id AS r FROM documents
  UNION
  SELECT s.b AS node, reach.r FROM reach JOIN sym s ON s.a = reach.node
)
SELECT node AS doc_id, CAST(min(r) AS BIGINT) AS root
FROM reach GROUP BY node
"""

NEARDUP_REPRESENTATIVES_SQL = """
WITH RECURSIVE
tok AS (SELECT doc_id, string_split(text, ' ') AS ts FROM documents),
grams AS (
  SELECT DISTINCT doc_id, md5(array_to_string(list_slice(ts, i, i+7), ' ')) AS g
  FROM tok, LATERAL (SELECT unnest(generate_series(1, len(ts)-7)) AS i) s
),
gd AS (
  SELECT g, list_sort(list(DISTINCT doc_id)) AS ds
  FROM grams GROUP BY g
  HAVING count(DISTINCT doc_id) BETWEEN 2 AND 50
),
edges AS (
  SELECT DISTINCT ds[1] AS a, u.b AS b
  FROM gd, LATERAL (SELECT unnest(ds) AS b) u
  WHERE u.b != ds[1]
),
sym AS (SELECT a, b FROM edges UNION SELECT b AS a, a AS b FROM edges),
reach AS (
  SELECT doc_id AS node, doc_id AS r FROM documents
  UNION
  SELECT s.b AS node, reach.r FROM reach JOIN sym s ON s.a = reach.node
)
SELECT node AS doc_id FROM reach GROUP BY node HAVING min(r) = node
"""

# ------------------------------------------------- PageRank (fixed-point)

_PR_ITERS = 5
_PR_FP = 10 ** 12                    # fixed-point ONE


def pagerank_users(sf_dir: str, iters: int = _PR_ITERS) -> pa.Table:
    """PageRank over the user-succession graph — the iterative link
    analysis a crawl-quality weighting pipeline runs (alongside the
    connected-components dedup this module already owns).

    Graph: within each event_type's (ts, event_id)-ordered stream,
    each event links its user to the NEXT event's user (self-loops
    dropped); multiplicity is the edge weight.  Rank: damped power
    method in INT64 FIXED-POINT — every contribution is
    ``((r·85) // (100·w_out)) · w`` (divide-before-multiply keeps the
    product ≤ 0.85·r, overflow-safe at any scale), teleport
    ``(15·FP) // (100·N)`` — so sums are order-independent, iterations
    are bit-deterministic under any parallelism, and the oracle is an
    UNROLLED {iters}-step SQL CTE chain with the identical integer
    tree.  Dangling mass is dropped (the standard simplification),
    documented here and mirrored by the oracle.

    Distribution: edge weights, the out-weight denominator and the
    join tag are all finalized inside ONE bucketed groupby — the
    bucket is mix64(src) % {_N_BUCKETS}, so every row of a src lands
    in the same group and the (src,dst)→w merge and per-src wout sum
    are group-local (per-batch combiner before the exchange).  The
    per-iteration rank⋈edge uses the repo's bucketed union-groupby
    join (co-partition + vectorized searchsorted inside map_groups —
    the minhash-attach idiom; Ray Data's native join operator
    currently trips over the empty schema-less blocks aggregate
    stages emit), contributions reduce with per-bucket int64 partials
    before the groupby; ranks re-materialize each round (the
    connected_components lineage-cut pattern).  Edge generation is
    HOT-TYPE SAFE: the stream groups by (event_type, DAY) — day is
    monotone in ts, so per-day sorts plus a tiny cross-day boundary
    stitch (one row per slice, linked per type in a second
    ≤types×days-row groupby) reproduce the whole-type ordering
    exactly while no task ever sorts a full type's stream
    (test_cluster.py::test_pagerank_hot_type_day_split)."""
    import ray.data
    from ray.data.aggregate import Sum

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet",
                               columns=["event_type", "ts", "event_id",
                                        "user_id"])

    def _bucket_of(key: np.ndarray) -> np.ndarray:
        return (_mix64(key) % np.uint64(_N_BUCKETS)).astype(np.int32)

    _DAY_US = 86_400_000_000

    def add_day(t: pa.Table) -> pa.Table:
        d = (t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
             // _DAY_US)
        return t.append_column("day", pa.array(d, pa.int64()))

    def _pair_rows(etype, day, side, src, dst, w) -> pa.Table:
        n = len(src)
        return pa.table({
            "etype": pa.array(etype, pa.string()),
            "day": pa.array(day, pa.int64()),
            "side": pa.array(np.full(n, side, np.int8)),
            "src": pa.array(src, pa.int64()),
            "dst": pa.array(dst, pa.int64()),
            "w_part": pa.array(w, pa.int64()),
            "bucket": pa.array(_bucket_of(np.asarray(src, np.int64)),
                               pa.int32())})

    def pairs(g: pa.Table) -> pa.Table:
        """One (event_type, DAY) slice — the hot-type split: a type's
        stream shards across days so no task sorts the whole type.
        day = ts // 1d is monotone in ts, so per-day (ts, event_id)
        sorts + a boundary stitch reproduce the global order exactly.
        Emits intra-day succession pairs pre-combined (side 0) plus
        ONE boundary row (side 1) carrying the slice's first (dst)
        and last (src) user for the cross-day stitch."""
        ts = g["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts))
        u = uid[order]
        src, dst = u[:-1], u[1:]
        keep = src != dst
        src, dst = src[keep], dst[keep]
        # per-batch combiner: merge duplicate (src,dst) before the
        # exchange, tag with the src bucket
        t = (pa.table({"src": pa.array(src, pa.int64()),
                       "dst": pa.array(dst, pa.int64())})
             .group_by(["src", "dst"]).aggregate([([], "count_all")])
             .rename_columns(["src", "dst", "w_part"]))
        intra = _pair_rows(
            [""] * len(t), np.zeros(len(t), np.int64), 0,
            t["src"].to_numpy(zero_copy_only=False),
            t["dst"].to_numpy(zero_copy_only=False),
            t["w_part"].to_numpy(zero_copy_only=False))
        bound = _pair_rows(
            [g["event_type"][0].as_py()],
            np.array([g["day"][0].as_py()], np.int64), 1,
            np.array([u[-1]], np.int64),      # slice's LAST user
            np.array([u[0]], np.int64),       # slice's FIRST user
            np.ones(1, np.int64))
        return pa.concat_tables([intra, bound])

    def stitch(g: pa.Table) -> pa.Table:
        """One event_type's boundary rows (≤ one per day — tiny):
        link each day's last user to the next present day's first
        user, self-loops dropped, duplicates combined — exactly the
        pairs a whole-type sort would have formed across the cuts."""
        order = np.argsort(g["day"].to_numpy(zero_copy_only=False),
                           kind="stable")
        last = g["src"].to_numpy(zero_copy_only=False)[order]
        first = g["dst"].to_numpy(zero_copy_only=False)[order]
        src, dst = last[:-1], first[1:]
        keep = src != dst
        src, dst = src[keep], dst[keep]
        t = (pa.table({"src": pa.array(src, pa.int64()),
                       "dst": pa.array(dst, pa.int64())})
             .group_by(["src", "dst"]).aggregate([([], "count_all")])
             .rename_columns(["src", "dst", "w_part"]))
        return _pair_rows(
            [""] * len(t), np.zeros(len(t), np.int64), 0,
            t["src"].to_numpy(zero_copy_only=False),
            t["dst"].to_numpy(zero_copy_only=False),
            t["w_part"].to_numpy(zero_copy_only=False))

    # union-row schema for the bucketed joins:
    # (bucket, key, dst, w, aux, side) — side 0 = edge, 1 = lookup
    def _row_table(bucket, key, dst, w, aux, side):
        n = len(key)
        return pa.table({
            "bucket": pa.array(bucket, pa.int32()),
            "key": pa.array(key, pa.int64()),
            "dst": pa.array(dst if dst is not None
                            else np.zeros(n, np.int64), pa.int64()),
            "w": pa.array(w if w is not None
                          else np.zeros(n, np.int64), pa.int64()),
            "aux": pa.array(aux, pa.int64()),
            "side": pa.array(np.full(n, side, np.int8))})

    def tag_lookup(key_col: str, aux_col: str):
        def f(t: pa.Table) -> pa.Table:
            k = t[key_col].to_numpy(zero_copy_only=False)
            return _row_table(_bucket_of(k), k, None, None,
                              t[aux_col].to_numpy(zero_copy_only=False),
                              1)
        return f

    def edge_rows(g: pa.Table) -> pa.Table:
        """One src-bucket: merge (src,dst) partial weights, compute
        each src's out-weight (group-local — the bucket owns ALL rows
        of its srcs), emit join-tagged edge rows (wout in aux)."""
        g = (g.select(["src", "dst", "w_part"]).combine_chunks()
             .group_by(["src", "dst"]).aggregate([("w_part", "sum")]))
        src = g["src"].to_numpy(zero_copy_only=False)
        w = g["w_part_sum"].to_numpy(zero_copy_only=False)
        order = np.argsort(src, kind="stable")
        ssrc, sw = src[order], w[order]
        uniq, idx = np.unique(ssrc, return_index=True)
        sums = np.add.reduceat(sw, idx) if len(sw) else sw
        wout = np.empty(len(src), np.int64)
        wout[order] = np.repeat(
            sums, np.diff(np.append(idx, len(ssrc))))
        return _row_table(_bucket_of(src), src,
                          g["dst"].to_numpy(zero_copy_only=False),
                          w, wout, 0)

    # edge rows with the out-weight denominator attached.  The pair
    # stream is pre-combined per (type, day) slice and materialized
    # ONCE (bounded: distinct (src,dst) partials + one boundary row
    # per slice); the stitch side is types×days rows.
    slices = (ev.map_batches(add_day, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby(["event_type", "day"])
              .map_groups(pairs, batch_format="pyarrow")
              .materialize())
    intra = slices.map_batches(
        lambda t: t.filter(pc.equal(t["side"], 0)),
        batch_format="pyarrow", zero_copy_batch=True)
    stitched = (slices.map_batches(
        lambda t: t.filter(pc.equal(t["side"], 1)),
        batch_format="pyarrow", zero_copy_batch=True)
        .groupby("etype")
        .map_groups(stitch, batch_format="pyarrow"))
    ew_tagged = (intra.union(stitched)
                 .groupby("bucket")
                 .map_groups(edge_rows, batch_format="pyarrow")
                 .materialize())

    # separate 1-column pruned scan: the ev lineage would re-read all
    # four columns just to project one
    nodes = (ray.data.read_parquet(f"{sf_dir}/events.parquet",
                                   columns=["user_id"])
             .groupby("user_id").count()
             .drop_columns(["count()"])
             .materialize())
    n_nodes = nodes.count()
    if n_nodes == 0:
        return pa.table({"user_id": pa.array([], pa.int64()),
                         "rank_fp": pa.array([], pa.int64())})
    teleport = (15 * _PR_FP) // (100 * n_nodes)
    init = _PR_FP // n_nodes

    zero_rows = nodes.map_batches(
        lambda t: pa.table({
            "user_id": t["user_id"],
            "c_part": pa.array(np.zeros(t.num_rows, np.int64))}),
        batch_format="pyarrow").materialize()

    def with_rank(r_fp: int):
        def f(t: pa.Table) -> pa.Table:
            return t.append_column(
                "r", pa.array(np.full(t.num_rows, r_fp), pa.int64()))
        return f

    ranks = nodes.map_batches(with_rank(init),
                              batch_format="pyarrow").materialize()

    def contrib_group(g: pa.Table) -> pa.Table:
        """One bucket: edge rows (wout in the aux lane) + rank rows
        (r in aux); contribution per edge, partial-summed by dst."""
        g = g.combine_chunks()
        side = g["side"].to_numpy(zero_copy_only=False)
        key = g["key"].to_numpy(zero_copy_only=False)
        er = np.flatnonzero(side == 0)
        lk = np.flatnonzero(side == 1)
        empty = pa.table({"user_id": pa.array([], pa.int64()),
                          "c_part": pa.array([], pa.int64())})
        if not len(er) or not len(lk):
            return empty
        lkk = key[lk]
        order = np.argsort(lkk, kind="stable")
        lkk, lko = lkk[order], lk[order]
        pos = np.clip(np.searchsorted(lkk, key[er]), 0, len(lkk) - 1)
        ok = lkk[pos] == key[er]
        er, pos = er[ok], pos[ok]
        if not len(er):
            return empty
        aux = g["aux"].to_numpy(zero_copy_only=False)
        r = aux[lko[pos]]                       # rank of src
        wout = aux[er]                          # edge rows carry wout
        w = g["w"].to_numpy(zero_copy_only=False)[er]
        dst = g["dst"].to_numpy(zero_copy_only=False)[er]
        c = ((r * 85) // (100 * wout)) * w
        t = (pa.table({"user_id": pa.array(dst, pa.int64()),
                       "c": pa.array(c, pa.int64())})
             .group_by("user_id").aggregate([("c", "sum")]))
        return t.rename_columns(["user_id", "c_part"])

    for _ in range(iters):
        inflow = (ew_tagged.union(
            ranks.map_batches(tag_lookup("user_id", "r"),
                              batch_format="pyarrow"))
            .groupby("bucket")
            .map_groups(contrib_group, batch_format="pyarrow"))
        ranks = (inflow.union(zero_rows)
                 .groupby("user_id")
                 .aggregate(Sum("c_part", alias_name="c"))
                 .map_batches(
                     lambda t: pa.table({
                         "user_id": t["user_id"],
                         "r": pc.add(t["c"],
                                     pa.scalar(teleport, pa.int64()))}),
                     batch_format="pyarrow")
                 .materialize())

    t = pa.concat_tables(list(ranks.iter_batches(
        batch_format="pyarrow"))).sort_by("user_id")
    return t.rename_columns(["user_id", "rank_fp"])


def _pagerank_sql(iters: int = _PR_ITERS) -> str:
    head = f"""
WITH seq AS (
  SELECT event_type, ts, event_id, user_id,
         lag(user_id) OVER (PARTITION BY event_type
                            ORDER BY ts, event_id) AS prev_user
  FROM events),
e0 AS (SELECT prev_user AS src, user_id AS dst FROM seq
       WHERE prev_user IS NOT NULL AND prev_user <> user_id),
edges AS (SELECT src, dst, CAST(count(*) AS BIGINT) AS w
          FROM e0 GROUP BY src, dst),
outw AS (SELECT src, CAST(sum(w) AS BIGINT) AS wout
         FROM edges GROUP BY src),
nodes AS (SELECT DISTINCT user_id FROM events),
nn AS (SELECT count(*) AS n FROM nodes),
pr0 AS (SELECT user_id,
               CAST({_PR_FP} // (SELECT n FROM nn) AS BIGINT) AS r
        FROM nodes)"""
    steps = []
    for i in range(1, iters + 1):
        steps.append(f"""
pr{i} AS (
  SELECT nd.user_id,
         CAST((15 * CAST({_PR_FP} AS BIGINT))
              // (100 * (SELECT n FROM nn))
              + coalesce(c.s, 0) AS BIGINT) AS r
  FROM nodes nd LEFT JOIN (
    SELECT e.dst AS user_id,
           CAST(sum(((p.r * 85) // (100 * o.wout)) * e.w) AS BIGINT)
             AS s
    FROM edges e
    JOIN pr{i - 1} p ON p.user_id = e.src
    JOIN outw o ON o.src = e.src
    GROUP BY e.dst) c USING (user_id))""")
    return (head + "," + ",".join(steps)
            + f"\nSELECT user_id, r AS rank_fp FROM pr{iters} "
              f"ORDER BY user_id")


PAGERANK_SQL = _pagerank_sql()


QUERIES = {
    "pagerank_users": pagerank_users,
    "neardup_gram_clusters": neardup_gram_clusters,
    "neardup_representatives": neardup_representatives,
    "minhash_neardup_clusters": minhash_neardup_clusters,
    "embedding_neardup_clusters": embedding_neardup_clusters,
}

ORACLE = {
    "pagerank_users": PAGERANK_SQL,
    "neardup_gram_clusters": NEARDUP_CLUSTERS_SQL,
    "neardup_representatives": NEARDUP_REPRESENTATIVES_SQL,
}
