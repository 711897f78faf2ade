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

Adding a query: state only its own rule and take each mechanic from
one helper — ``stages.read`` (every scan), ``stages.by_bucket`` over
``_N_BUCKETS`` groups (every shuffle: star rounds, pair dedup, gram
co-location, pagerank's per-src edges), ``_runs`` (the run starts of
sorted keys, shared by both star rounds, the gram stars and the
out-weights), ``gramhash.unique_rows`` (sort-and-dedupe),
``_clusters_with_singletons`` (a broadcast ``ids.positions_in_sorted``
probe of the cluster map over an id scan), ``stages.hash_join``,
``stages.fold`` and ``stages.collect``; then add the name to
``QUERIES`` (and ``ORACLE`` when SQL can check it).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from mee_ray import stages
from mee_ray.ids import positions_in_sorted
from mee_ray.pipelines.gramhash import (gram_hash64, mix64, token_hash64,
                                        tokenize_flat, unique_rows)

_N_BUCKETS = 64


def _np(col) -> np.ndarray:
    return col.to_numpy(zero_copy_only=False)


def _edges_table(a: np.ndarray, b: np.ndarray) -> pa.Table:
    return pa.table({"a": pa.array(a.astype(np.int64), pa.int64()),
                     "b": pa.array(b.astype(np.int64), pa.int64())})


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(start of each run, run id of each row) of the runs of equal
    values in the sorted ``keys``."""
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    return np.flatnonzero(new), np.cumsum(new) - 1


def _star_round(edges, star):
    """One star round: the ``(u, v)`` rows bucketed by u, and every
    node of a bucket resolved by ``star(u, v, *_runs(u))`` over the
    rows sorted by (u, v)."""
    def of_group(g: pa.Table) -> pa.Table:
        u, v = _np(g["u"]), _np(g["v"])
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        return star(u, v, *_runs(u))
    return stages.by_bucket(edges, "u", of_group, _N_BUCKETS)


def _large_star(edges):
    """One Large-Star round: for every node u, connect each LARGER
    neighbor v to m(u) = min(neighbors(u) + {u}).

    Input/output edges are canonical (a < b).  The symmetric view
    (both directions of every edge) is materialized per batch; each
    bucket group then resolves all of its nodes in one vectorized
    pass."""
    def to_sym(t: pa.Table) -> pa.Table:
        a, b = _np(t["a"]), _np(t["b"])
        return pa.table({"u": pa.array(np.concatenate([a, b]), pa.int64()),
                         "v": pa.array(np.concatenate([b, a]), pa.int64())})

    def star(u, v, starts, run):
        m = np.minimum(np.minimum.reduceat(v, starts), u[starts])[run]
        keep = v > u
        return _edges_table(m[keep], v[keep])

    return _star_round(edges.map_batches(to_sym, batch_format="pyarrow",
                                         zero_copy_batch=True), star)


def _small_star(edges):
    """One Small-Star round: orient every edge (a < b) toward its
    larger endpoint b; for each b connect all smaller neighbors (and b
    itself) to their minimum."""
    def star(u, v, starts, run):
        seg_min = np.minimum.reduceat(v, starts)     # all v < u already
        m = seg_min[run]
        keep = v > m                                 # (m, v) for v != m
        return _edges_table(*unique_rows(
            np.concatenate([m[keep], seg_min]),
            np.concatenate([v[keep], u[starts]])))   # plus (m, u)

    return _star_round(edges.rename_columns({"b": "u", "a": "v"}), star)


def _global_dedup(edges):
    """Exact global pair dedup: the same pair always lands in the
    bucket of its ``b``, so a per-bucket sort-dedupe is globally
    exact."""
    return stages.by_bucket(
        edges, "b", lambda g: _edges_table(*unique_rows(
            _np(g["a"]), _np(g["b"]))), _N_BUCKETS)


def _probe(edges) -> tuple[int, int]:
    """(count, xor-of-pair-hashes) of a deduped edge set — the
    convergence fingerprint.  Per-batch partials only; the driver
    folds one small row per block."""

    def partial(t: pa.Table) -> pa.Table:
        h = mix64(mix64(_np(t["a"])) + np.uint64(7) * mix64(_np(t["b"])))
        x = np.bitwise_xor.reduce(h) if len(h) else np.uint64(0)
        return pa.table({"n": pa.array([len(h)], pa.int64()),
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
    edge set are singletons — callers add those themselves
    (:func:`_clusters_with_singletons`).

    The RESULT is materialized (one row per clustered node — the
    deliverable of the computation, bounded by the duplicate count,
    not the corpus); the ITERATIONS never materialize on the driver.
    """

    def drop_self(t: pa.Table) -> pa.Table:
        a, b = _np(t["a"]), _np(t["b"])
        keep = a != b
        return _edges_table(np.minimum(a[keep], b[keep]),
                            np.maximum(a[keep], b[keep]))

    cur = _global_dedup(
        edges.map_batches(drop_self, batch_format="pyarrow",
                          zero_copy_batch=True)).materialize()
    prev, sig, rounds = None, _probe(cur), 0
    while sig[0] and sig != prev:
        if rounds == max_iters:
            raise RuntimeError(f"connected_components: no convergence "
                               f"in {max_iters} rounds")
        cur = _global_dedup(_small_star(_large_star(cur))).materialize()
        prev, sig, rounds = sig, _probe(cur), rounds + 1

    # converged star forest: every edge is (root, node); roots map to
    # themselves
    t = stages.collect(cur, "a b")
    a, b = _np(t["a"]), _np(t["b"])
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
    return gram_dup_edges_ds(
        stages.read(sf_dir, "documents", ["doc_id", "text"]),
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
        flat, _, lens = tokenize_flat(t["text"], mode="space")
        didx, _, g = gram_hash64(token_hash64(flat), lens, n)
        d, g = unique_rows(_np(t["doc_id"])[didx], g)   # per-doc distinct
        return pa.table({"g": pa.array(g, pa.int64()),
                         "doc_id": pa.array(d, pa.int64())})

    def star_edges(t: pa.Table, cap: int = max_df) -> pa.Table:
        g, d = unique_rows(_np(t["g"]), _np(t["doc_id"]))  # distinct
        starts, run = _runs(g)
        sizes = np.diff(np.r_[starts, len(g)])[run]
        seg_min = d[starts][run]          # d sorted within each gram
        keep = (sizes >= 2) & (sizes <= cap) & (d != seg_min)
        return _edges_table(seg_min[keep], d[keep])

    return stages.by_bucket(
        docs.map_batches(explode_hashed, batch_format="pyarrow",
                         zero_copy_batch=True), "g", star_edges, _N_BUCKETS)


# ------------------------------------------------- driver queries


def _clusters_with_singletons(sf_dir: str, cc: pa.Table,
                              id_source=None,
                              id_col: str = "doc_id") -> pa.Table:
    """(id, root) for EVERY row of the id table: clustered nodes get
    their component root, the rest map to themselves.  The cluster
    mapping ``cc`` (node-sorted, bounded by the duplicate count) is
    broadcast once and probed by every batch of the id scan — no
    shuffle.  ``id_source``/``id_col`` override the default documents
    table (e.g. the embeddings table's vec_id)."""
    import ray

    ref = ray.put((_np(cc["node"]), _np(cc["root"])))
    ids = (id_source if id_source is not None
           else stages.read(sf_dir, "documents", [id_col]))

    def resolve(t: pa.Table) -> pa.Table:
        node, root = ray.get(ref)
        d = _np(t[id_col])
        pos, hit = positions_in_sorted(d, node)
        r = d.copy()
        r[hit] = root[pos[hit]]
        return pa.table({id_col: pa.array(d, pa.int64()),
                         "root": pa.array(r, pa.int64())})

    return stages.collect(
        ids.map_batches(resolve, batch_format="pyarrow"),
        f"{id_col} root").sort_by(id_col)


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
    return t.filter(pc.equal(t["doc_id"], t["root"])).select(["doc_id"])


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
    return _clusters_with_singletons(
        sf_dir, connected_components(edges),
        id_source=stages.read(sf_dir, "embeddings", ["vec_id"]),
        id_col="vec_id")


def minhash_neardup_clusters(sf_dir: str) -> pa.Table:
    """Cluster assignment over the MinHash-LSH verified pair set (the
    probabilistic edge rule; rows-only driver check — the pair
    generator is verified against a brute-force oracle in tests)."""
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

    Distribution: edge weights and the out-weight denominator are
    finalized inside ONE bucketed shuffle on src (``stages.by_bucket``),
    so every row of a src lands in the same group and the (src,dst)→w
    merge and per-src wout sum are group-local (per-batch combiner
    before the exchange).  Each iteration is one ``stages.hash_join``
    of the edges with the ranks on src, a per-batch contribution map,
    and one ``stages.fold`` of the contributions per dst; ranks
    re-materialize each round (the connected_components lineage-cut
    pattern).  Edge generation is HOT-TYPE SAFE: the stream groups by
    (event_type, DAY) — day is monotone in ts, so per-day sorts plus a
    tiny cross-day boundary stitch (one row per slice, linked per type
    in a second ≤types×days-row groupby) reproduce the whole-type
    ordering exactly while no task ever sorts a full type's stream
    (test_cluster.py::test_pagerank_hot_type_day_split)."""
    ev = stages.read(sf_dir, "events",
                     ["event_type", "ts", "event_id", "user_id"])
    _DAY_US = 86_400_000_000

    def add_day(t: pa.Table) -> pa.Table:
        d = _np(t["ts"].cast(pa.int64())) // _DAY_US
        return t.append_column("day", pa.array(d, pa.int64()))

    def _pair_rows(src, dst, w, side=0, etype="", day=0) -> pa.Table:
        n = len(src)
        return pa.table({
            "etype": pa.array([etype] * n, pa.string()),
            "day": pa.array(np.full(n, day, np.int64)),
            "side": pa.array(np.full(n, side, np.int8)),
            "src": pa.array(src, pa.int64()),
            "dst": pa.array(dst, pa.int64()),
            "w_part": pa.array(w, pa.int64())})

    def links(src: np.ndarray, dst: np.ndarray) -> pa.Table:
        """The pair rows of the links src[i] → dst[i]: self-loops
        dropped, duplicate (src, dst) counted."""
        keep = src != dst
        t = (pa.table({"src": pa.array(src[keep], pa.int64()),
                       "dst": pa.array(dst[keep], pa.int64())})
             .group_by(["src", "dst"]).aggregate([([], "count_all")]))
        return _pair_rows(_np(t["src"]), _np(t["dst"]), _np(t["count_all"]))

    def pairs(g: pa.Table) -> pa.Table:
        """One (event_type, DAY) slice — the hot-type split: a type's
        stream shards across days so no task sorts the whole type.
        day = ts // 1d is monotone in ts, so per-day (ts, event_id)
        sorts + a boundary stitch reproduce the global order exactly.
        Emits intra-day succession pairs pre-combined (side 0) plus
        ONE boundary row (side 1) carrying the slice's first (dst)
        and last (src) user for the cross-day stitch."""
        u = _np(g["user_id"])[np.lexsort((_np(g["event_id"]),
                                          _np(g["ts"].cast(pa.int64()))))]
        return pa.concat_tables([links(u[:-1], u[1:]), _pair_rows(
            [u[-1]], [u[0]], [1], 1, g["event_type"][0].as_py(),
            g["day"][0].as_py())])

    def stitch(g: pa.Table) -> pa.Table:
        """One event_type's boundary rows (≤ one per day — tiny):
        link each day's last user to the next present day's first
        user — exactly the pairs a whole-type sort would have formed
        across the cuts."""
        order = np.argsort(_np(g["day"]), kind="stable")
        last, first = _np(g["src"])[order], _np(g["dst"])[order]
        return links(last[:-1], first[1:])

    def edge_rows(g: pa.Table) -> pa.Table:
        """One src-bucket: merge (src,dst) partial weights, compute
        each src's out-weight (group-local — the bucket owns ALL rows
        of its srcs)."""
        g = (g.group_by(["src", "dst"]).aggregate([("w_part", "sum")])
             .sort_by("src"))
        w = _np(g["w_part_sum"])
        starts, run = _runs(_np(g["src"]))
        return pa.table({"src": g["src"], "dst": g["dst"],
                         "w": pa.array(w, pa.int64()),
                         "wout": pa.array(np.add.reduceat(w, starts)[run]
                                          if len(w) else w, pa.int64())})

    # edge rows with the out-weight denominator attached.  The pair
    # stream is pre-combined per (type, day) slice and materialized
    # ONCE (bounded: distinct (src,dst) partials + one boundary row
    # per slice); the stitch side is types×days rows.
    slices = (ev.map_batches(add_day, batch_format="pyarrow",
                             zero_copy_batch=True)
              .groupby(["event_type", "day"])
              .map_groups(pairs, batch_format="pyarrow")
              .materialize())

    def side(k: int):
        return slices.map_batches(lambda t: t.filter(pc.equal(t["side"], k)),
                                  batch_format="pyarrow",
                                  zero_copy_batch=True)
    edges = stages.by_bucket(
        side(0).union(side(1).groupby("etype").map_groups(
            stitch, batch_format="pyarrow")),
        "src", edge_rows, _N_BUCKETS).materialize()

    # separate 1-column pruned scan: the ev lineage would re-read all
    # four columns just to project one
    nodes = (stages.read(sf_dir, "events", ["user_id"])
             .groupby("user_id").count()
             .drop_columns(["count()"])
             .materialize())
    n_nodes = nodes.count()
    if n_nodes == 0:
        return stages.table([], "user_id rank_fp")
    teleport = (15 * _PR_FP) // (100 * n_nodes)
    zero_rows = nodes.map_batches(
        lambda t: t.append_column("c", pa.array(np.zeros(t.num_rows,
                                                         np.int64))),
        batch_format="pyarrow")

    def contrib(t: pa.Table) -> pa.Table:
        """Each edge's contribution to its dst, at its src's rank."""
        r, wout, w = _np(t["r"]), _np(t["wout"]), _np(t["w"])
        return pa.table({"user_id": t["dst"],
                         "c": pa.array(((r * 85) // (100 * wout)) * w,
                                       pa.int64())})

    ranks = nodes.map_batches(
        lambda t: t.append_column("r", pa.array(
            np.full(t.num_rows, _PR_FP // n_nodes), pa.int64())),
        batch_format="pyarrow").materialize()
    for _ in range(iters):
        inflow = stages.hash_join(edges, ranks, "src", "user_id") \
            .map_batches(contrib, batch_format="pyarrow")
        ranks = (stages.fold(inflow.union(zero_rows), lambda t: t,
                             "user_id", "c")
                 .map_batches(lambda t: pa.table({
                     "user_id": t["user_id"],
                     "r": pc.add(t["c"], pa.scalar(teleport, pa.int64()))}),
                     batch_format="pyarrow")
                 .materialize())
    t = stages.collect(ranks, "user_id r").sort_by("user_id")
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
