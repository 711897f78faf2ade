"""Similarity search over the ``embeddings`` table (list<float> × 64).

- brute-force cosine top-k: the exact baseline — broadcast query
  matrix (`ray.put` once), numpy matmul per batch, per-batch top-k
  partials, global merge on the driver (the per-shard-heap →
  global-heap pattern of the BM25 query path, applied to vectors).
- IVF / SQ / PQ / IVF-PQ: quantizers fit on a bounded hash-rank
  sample and broadcast; queries probe the nearest ``N_PROBE`` clusters
  or score codes — the 100 TB scale path where scanning every vector
  per query at full precision is off the table.
- embedding near-dup, k-means and SemDeDup: √n coarse clusters fitted
  on a sample, the cluster groupby is the only shuffle.

Adding a query: state only its own scoring rule, and take every
mechanic from the helpers below —
  ``_read_emb(sf_dir, extra)`` (the one embeddings read),
  ``_emb_matrix`` / ``_unit_emb`` (a batch's ids and float64 matrix;
  zero rows give a (0, 0) matrix), ``_unit``, ``_load_queries`` (a
  sorted, unit-normalized query set), ``_scan_topk`` (the one embedding
  scan: a batch states its ids, its (rows, queries) score matrix and
  its keep mask; ``_cosine`` is the exact one), ``_topk`` (the one
  segmented top-k by (score desc, id asc), per batch and in
  ``_rank_merge``), ``_nearest`` (the one nearest-centroid
  assignment), ``_sample`` (the bounded fit sample) with ``IVFIndex``,
  ``_sq`` and ``_pq_fit``, ``_pq_lut`` + ``_adc`` (PQ lookup tables and
  their sum) and ``_sqrt_clusters`` (the √n cluster count);
fixed sizes are module constants (a test that needs another value
monkeypatches the constant; operators read them on the driver, so Ray
workers see the patched value).  Then add the name to ``QUERIES`` (and
its SQL to ``ORACLE``).  ``tests/test_empty_inputs.py`` runs every name
on a zero-row and a 3-vector table.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from mee_ray.pipelines.sampling import hash_sample
from mee_ray.stages import collect, table

N_QUERIES = 5        # the query set: vec_id < N_QUERIES
TOP_K = 10
IVF_CLUSTERS = 16    # coarse clusters: IVF fits, k-means, vecindex_topk
IVF_ITERS = 8
IVF_SEED = 42
FIT_SAMPLE = 4096    # rows of the bounded quantizer fit sample
N_PROBE = 4          # clusters an IVF query scans
REFINE_FACTOR = 4    # ann_ivfpq_refine_topk re-scores TOP_K × this
FILTER_LABEL = 1     # knn_filtered's label
GROUPED_QUERIES = 3  # knn_grouped: top-GROUPED_K per label, vec_id < 3
GROUPED_K = 3
MMR_K = 5
MMR_POOL = 20
MMR_LAMBDA = 0.5
NEARDUP_COSINE = 0.35   # near-dup τ of embedding_neardup and SemDeDup
NEARDUP_ASSIGN = 4      # clusters each vector is multi-assigned to
SQ_BITS = 8
PQ_SUBSPACES = 16    # m sub-quantizers (d=64 → 4 dims each)
PQ_CENTROIDS = 128   # per-subspace codebook size (7-bit codes)


def _read_emb(sf_dir: str, extra=()):
    import ray.data
    return ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                 columns=["vec_id", "embedding", *extra])


def _emb_matrix(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """(vec_ids, float64 matrix) of a table's ``embedding`` rows; zero
    rows give a (0, 0) matrix."""
    ids = t["vec_id"].to_numpy(zero_copy_only=False)
    flat = np.asarray(t["embedding"].combine_chunks().flatten(),
                      dtype=np.float64)
    return ids, flat.reshape(len(ids), len(flat) // max(len(ids), 1))


def _unit(mat: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(mat, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return mat / n


def _unit_emb(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    ids, mat = _emb_matrix(t)
    return ids, _unit(mat)


def _load_queries(sf_dir: str, where: tuple, extra=()):
    """(sorted query ids, their unit-normalized matrix, then each
    ``extra`` column as int64) of the rows matching the pyarrow filter
    ``where`` — one pruned row-filtered read, never a full-table scan,
    and ONE ordering/normalization convention for every query set."""
    import pyarrow.parquet as pq
    qt = pq.read_table(f"{sf_dir}/embeddings.parquet",
                       columns=["vec_id", "embedding", *extra],
                       filters=[where])
    ids, mat = _emb_matrix(qt)
    order = np.argsort(ids)
    return (ids[order], _unit(mat[order]),
            *(qt[c].to_numpy()[order].astype(np.int64) for c in extra))


def _topk(groups: list, score: np.ndarray, ids: np.ndarray, k: int
          ) -> tuple[np.ndarray, np.ndarray]:
    """The one segmented top-k: (rows, ranks) of the ≤k best rows of
    each group by (score desc, id asc), in (group, rank) order.
    ``groups`` are key arrays, primary first: one lexsort, then a rank
    within each run of equal keys.  The per-batch cut orders by the
    SAME key as the driver merge, so a boundary tie never drops the
    lowest id the global tie-break ranks."""
    order = np.lexsort((ids, -score, *groups[::-1]))
    pos = np.arange(len(order))
    new = pos == 0
    for g in groups:
        g = g[order]
        new[1:] |= g[1:] != g[:-1]
    rank = pos - np.maximum.accumulate(np.where(new, pos, 0))
    keep = rank < k
    return order[keep], rank[keep] + 1


def _rank_merge(partials, k: int, groups=()) -> pa.Table:
    """The driver merge: per-batch (query_id, *groups, neighbor_id,
    sim) partials → (query_id, *groups, rank, neighbor_id), ≤k per
    (query, group) by (sim desc, neighbor_id asc).  Transport is
    bounded at batches × queries × groups × k rows."""
    keys = ["query_id", *groups]
    t = collect(partials, " ".join(keys) + " neighbor_id sim:f64")
    col = {c: t[c].to_numpy() for c in t.column_names}
    rows, rank = _topk([col[c] for c in keys], col["sim"],
                       col["neighbor_id"], k)
    return pa.table({**{c: col[c][rows] for c in keys}, "rank": rank,
                     "neighbor_id": col["neighbor_id"][rows]})


def _scan_topk(ds, q_ids: np.ndarray, score, k: int, shared=(),
               groups=()) -> pa.Table:
    """The one embedding scan of every ranked operator: ``(q_ids,
    *shared)`` is broadcast once (``ray.put``); each batch ``t`` of
    ``ds`` states ``score(t, q_ids, *shared) -> (ids, sims, keep)`` —
    its row ids, its (rows, queries) score matrix and keep mask (None:
    every cell) — and keeps its ≤k best rows per query and ``groups``
    column of ``t``; the driver ranks them."""
    import ray
    ref = ray.put((q_ids, *shared))

    def batch_topk(t: pa.Table) -> pa.Table:
        qids, *rest = ray.get(ref)
        ids, sims, keep = score(t, qids, *rest)
        cells = {"query_id": qids[None, :], "neighbor_id": ids[:, None],
                 "sim": sims,
                 **{g: t[g].to_numpy().astype(np.int64)[:, None]
                    for g in groups}}
        m = np.ones(sims.shape, bool) if keep is None else keep
        cols = {c: np.broadcast_to(v, sims.shape)[m]
                for c, v in cells.items()}
        rows, _ = _topk([cols[c] for c in ("query_id", *groups)],
                        cols["sim"], cols["neighbor_id"], k)
        return pa.table({c: v[rows] for c, v in cols.items()})

    return _rank_merge(ds.map_batches(batch_topk, batch_format="pyarrow",
                                      zero_copy_batch=True), k, groups)


def _cosine(t: pa.Table, q_ids: np.ndarray, q_mat: np.ndarray):
    """Exact cosine of every row to every query, the query itself
    excluded."""
    ids, u = _unit_emb(t)
    return ids, u @ q_mat.T, ids[:, None] != q_ids


def _nearest(u: np.ndarray, cents: np.ndarray, n: int | None = None
             ) -> np.ndarray:
    """Each row's nearest centroid by cosine, or its ``n`` nearest,
    nearest first — the one assignment of the IVF fit, every IVF
    scan, the persisted index and the clustering operators."""
    if not len(u):           # zero rows, whose width may be 0
        return np.zeros(0 if n is None else (0, n), np.intp)
    s = u @ cents.T
    return s.argmax(axis=1) if n is None else np.argsort(-s, axis=1)[:, :n]


def knn_bruteforce(sf_dir: str, n_queries: int = N_QUERIES,
                   k: int = TOP_K):
    """Exact cosine top-k for query vectors vec_id < n_queries.
    Output: (query_id, rank, neighbor_id) — rank-only so the oracle
    compare is integer-stable."""
    q_ids, q_mat = _load_queries(sf_dir, ("vec_id", "<", n_queries))
    return _scan_topk(_read_emb(sf_dir), q_ids, _cosine, k, (q_mat,))


KNN_SQL = """
WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings WHERE vec_id < 5),
     s AS (SELECT q.query_id, e.vec_id AS neighbor_id,
                  list_cosine_similarity(e.embedding, q.qe) AS sim
           FROM embeddings e CROSS JOIN q
           WHERE e.vec_id <> q.query_id)
SELECT query_id, rank, neighbor_id
FROM (SELECT query_id, neighbor_id,
             row_number() OVER (PARTITION BY query_id
                                ORDER BY sim DESC, neighbor_id) AS rank
      FROM s)
WHERE rank <= 10
"""


def vecindex_topk(sf_dir: str):
    """The PERSISTED vector-index path (mee_ray.vecindex lifecycle:
    build → publish → VectorSearcher) at full probe depth — exact
    cosine over the float32-quantized stored vectors, so ranks match
    the SQL oracle wherever neighbors aren't closer than ~1e-7 apart
    (random embeddings: never).  Same query/tie-break convention as
    knn_bruteforce.  The index lives in a temporary directory removed
    when the call returns, so no call leaves an index behind."""
    import tempfile

    from mee_ray.vecindex import VectorSearcher, build_vector_index

    rows = []
    with tempfile.TemporaryDirectory(prefix="mee_vec_index-") as root:
        build_vector_index(_read_emb(sf_dir), root, "ep1",
                           n_clusters=IVF_CLUSTERS)
        s = VectorSearcher(root)
        for qid, q in zip(*_load_queries(sf_dir,
                                         ("vec_id", "<", N_QUERIES))):
            hits = [d for d, _ in s.search(q, k=TOP_K + 1,
                                           nprobe=IVF_CLUSTERS)
                    if d != qid][:TOP_K]
            rows += [(int(qid), r, d) for r, d in enumerate(hits, 1)]
    return table(rows, "query_id rank neighbor_id")


def embedding_dims(sf_dir: str):
    """Schema sanity over the vector column (ints only)."""
    from ray.data.aggregate import Count, Max, Min

    def dims(t: pa.Table) -> pa.Table:
        lens = pc.list_value_length(t["embedding"]).cast(pa.int64())
        return pa.table({"label": t["label"], "dim": lens})

    return (_read_emb(sf_dir, ["label"])
            .map_batches(dims, batch_format="pyarrow", zero_copy_batch=True)
            .groupby("label")
            .aggregate(Count(alias_name="n"),
                       Min("dim", alias_name="min_dim"),
                       Max("dim", alias_name="max_dim")))


EMB_DIMS_SQL = """
SELECT label, count(*) AS n, min(len(embedding)) AS min_dim,
       max(len(embedding)) AS max_dim
FROM embeddings GROUP BY label
"""


def _sqrt_clusters(sf_dir: str) -> int:
    """√n coarse clusters, clipped to [16, 4096]: a FIXED 16 clusters
    makes a per-cluster exact pass O(n²/16) in one task regardless of
    n (a 500 GB sims matrix at n=1M); √n keeps the expected cluster
    size ~√n, so per-task work grows linearly in n, not quadratically."""
    return int(np.clip(np.sqrt(max(1, _read_emb(sf_dir).count())),
                       16, 4096))


def embedding_neardup(sf_dir: str):
    """Embedding-cosine near-dup pairs (a < b, sim ≥ τ) behind an IVF
    candidate step: every vector is multi-assigned to its
    ``NEARDUP_ASSIGN`` nearest of √n coarse clusters (broadcast
    centroids fitted on a sample), the cluster groupby is the only
    shuffle, exact cosine runs inside each cluster, and a final (a, b)
    groupby dedupes pairs caught by more than one shared cluster.
    Approximate by design (a pair split across all clusters is missed
    — multi-assignment is the recall knob); every REPORTED pair
    carries its exact cosine."""
    import ray
    from ray.data.aggregate import Max

    ivf = IVFIndex(_sqrt_clusters(sf_dir)).fit_dataset(_read_emb(sf_dir))
    cent_ref = ray.put(ivf.centroids)

    def assign_rows(t: pa.Table, n_assign=NEARDUP_ASSIGN) -> pa.Table:
        ids, u = _unit_emb(t)
        near = _nearest(u, ray.get(cent_ref), n_assign)
        n = near.shape[1]        # fewer fitted centroids than n_assign
        return pa.table({
            "cluster": pa.array(near.reshape(-1).astype(np.int64)),
            "vec_id": pa.array(np.repeat(ids, n).astype(np.int64)),
            "embedding": pa.array(list(np.repeat(u, n, axis=0)),
                                  pa.list_(pa.float64()))})

    def pairs_of_cluster(g: pa.Table, tau=NEARDUP_COSINE) -> pa.Table:
        ids, u = _emb_matrix(g)
        uniq, first = np.unique(ids, return_index=True)
        u = u[first]
        sims = u @ u.T
        iu = np.triu_indices(len(uniq), k=1)
        hit = sims[iu] >= tau
        return pa.table({
            "a": pa.array(uniq[iu[0][hit]].astype(np.int64)),
            "b": pa.array(uniq[iu[1][hit]].astype(np.int64)),
            "sim": pa.array(np.round(sims[iu][hit], 6), pa.float64())})

    pairs = (_read_emb(sf_dir)
             .map_batches(assign_rows, batch_format="pyarrow",
                          zero_copy_batch=True)
             .groupby("cluster")
             .map_groups(pairs_of_cluster, batch_format="pyarrow"))
    # dedupe pairs that share several clusters (sim identical; Max picks one)
    return pairs.groupby(["a", "b"]).aggregate(Max("sim", alias_name="sim"))


class IVFIndex:
    """Seeded k-means-lite coarse quantizer (pure numpy, deterministic).
    fit() on a sample; centroids broadcast to assignment tasks."""

    def __init__(self, n_clusters: int = IVF_CLUSTERS):
        self.n_clusters = n_clusters
        self.centroids: np.ndarray | None = None

    def fit(self, mat: np.ndarray) -> "IVFIndex":
        rng = np.random.default_rng(IVF_SEED)
        u = _unit(mat)
        idx = rng.choice(len(u), size=min(self.n_clusters, len(u)),
                         replace=False)
        c = u[np.sort(idx)].copy()
        for _ in range(IVF_ITERS):
            assign = _nearest(u, c)
            for j in range(len(c)):
                members = u[assign == j]
                if len(members):
                    c[j] = members.mean(axis=0)
            c = _unit(c)
        self.centroids = c
        return self

    def assign(self, mat: np.ndarray) -> np.ndarray:
        return _nearest(_unit(mat), self.centroids)

    def fit_dataset(self, ds) -> "IVFIndex":
        """Fit on a few hundred sampled rows per centroid: k-means
        quality saturates long before the full table matters."""
        return self.fit(_sample(ds, max(self.n_clusters * 256, 2048)))


def _sample(ds, n: int) -> np.ndarray:
    """The bounded UNBIASED fit sample of every quantizer — the 10^12
    path: never the full table, ``n`` rows drawn by mix64 hash rank
    (deterministic AND independent of file order — see
    pipelines/sampling.py)."""
    return _emb_matrix(hash_sample(ds, n, "vec_id"))[1]


def _probe_mask(q_mat: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """(queries, clusters) mask of each query's ``N_PROBE`` nearest
    clusters."""
    m = np.zeros((len(q_mat), len(cents)), bool)
    np.put_along_axis(m, _nearest(q_mat, cents, N_PROBE), True, axis=1)
    return m


def ann_ivf_topk(sf_dir: str):
    """IVF approximate top-k: probe the ``N_PROBE`` nearest clusters
    only.  The quantizer fits on a bounded sample and queries come from
    a pruned read — the full table only streams through the
    assign-and-score stage.  Rows-only (approximate by design); recall
    vs the exact path is asserted in tests."""
    cents = IVFIndex().fit_dataset(_read_emb(sf_dir)).centroids
    q_ids, q_mat = _load_queries(sf_dir, ("vec_id", "<", N_QUERIES))

    def score(t, q_ids, q_mat, cents, probe):
        ids, u = _unit_emb(t)
        return (ids, u @ q_mat.T,
                (ids[:, None] != q_ids) & probe[:, _nearest(u, cents)].T)

    return _scan_topk(_read_emb(sf_dir), q_ids, score, TOP_K,
                      (q_mat, cents, _probe_mask(q_mat, cents)))


def kmeans_assign_embeddings(sf_dir: str):
    """Distributed k-means clustering (the training-data corpus-
    clustering op): Lloyd iterations fit on a bounded unbiased
    hash-rank sample (the quantizer never sees the full table),
    centroids broadcast ONCE via ray.put, assignment streamed through
    map_batches — the only full-table pass is embarrassingly parallel.
    Output (vec_id, cluster_id).  Rows-only by design (iterative
    algorithm); determinism, coverage and the nearest-centroid
    invariant are asserted in tests/test_pipelines.py."""
    import ray

    cent_ref = ray.put(IVFIndex().fit_dataset(_read_emb(sf_dir)).centroids)

    def assign(t: pa.Table) -> pa.Table:
        ids, u = _unit_emb(t)
        return pa.table({"vec_id": pa.array(ids, pa.int64()),
                         "cluster_id": pa.array(
                             _nearest(u, ray.get(cent_ref)).astype(np.int64))})

    return _read_emb(sf_dir).map_batches(assign, batch_format="pyarrow",
                                         zero_copy_batch=True)


# ------------------------------------------------------- SemDeDup --

def _semdedup_greedy(u: np.ndarray, tau: float) -> np.ndarray:
    """Greedy prefix rule over rows of a unit matrix already in visit
    order: keep row i iff its max cosine to every EARLIER KEPT row is
    < tau.  Blockwise so memory stays O(block × kept) — one matmul per
    block against the kept set, one block×block matmul for the
    intra-block sequential dependency."""
    m = len(u)
    keep = np.zeros(m, dtype=bool)
    B = 1024
    for s in range(0, m, B):
        blk = u[s:s + B]
        kept_prior = np.flatnonzero(keep[:s])
        vs_kept = blk @ u[kept_prior].T if len(kept_prior) \
            else np.zeros((len(blk), 0))
        S = blk @ blk.T
        for j in range(len(blk)):
            if vs_kept[j].size and vs_kept[j].max() >= tau:
                continue
            prior = keep[s:s + j]
            if prior.any() and S[j, :j][prior].max() >= tau:
                continue
            keep[s + j] = True
    return keep


def semdedup_embeddings(sf_dir: str):
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): k-means the
    embedding space on a bounded sample, then inside each cluster
    greedily drop every item whose cosine to an already-kept item is
    ≥ τ.  Members are visited in (sim-to-centroid ASC, vec_id) order,
    so each duplicate group's survivor is the member FARTHEST from the
    centroid — the paper's diversity-preserving choice.  √n clusters
    (``_sqrt_clusters``) keep expected per-cluster work linear in n;
    the cluster groupby is the only shuffle.  Rows-only for the driver
    (iterative float fit); bit-equal to a driver recompute and checked
    for both greedy invariants in tests."""
    import ray

    ivf = IVFIndex(_sqrt_clusters(sf_dir)).fit_dataset(_read_emb(sf_dir))
    cent_ref = ray.put(ivf.centroids)

    def assign_rows(t: pa.Table) -> pa.Table:
        cents = ray.get(cent_ref)
        ids, u = _unit_emb(t)
        cl = _nearest(u, cents)
        return pa.table({
            "cluster": pa.array(cl.astype(np.int64)),
            "vec_id": pa.array(ids.astype(np.int64)),
            "sim_c": pa.array((u @ cents.T)[np.arange(len(ids)), cl],
                              pa.float64()),
            "embedding": pa.array(list(u), pa.list_(pa.float64()))})

    def dedup_cluster(g: pa.Table, tau=NEARDUP_COSINE) -> pa.Table:
        ids, u = _emb_matrix(g)
        order = np.lexsort((ids, g["sim_c"].to_numpy()))
        return pa.table({
            "vec_id": pa.array(ids[order].astype(np.int64)),
            "cluster_id": pa.array(np.full(len(ids), g["cluster"][0].as_py(),
                                           np.int64)),
            "keep": pa.array(_semdedup_greedy(u[order], tau), pa.bool_())})

    return (_read_emb(sf_dir)
            .map_batches(assign_rows, batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby("cluster")
            .map_groups(dedup_cluster, batch_format="pyarrow"))


# -------------------------------------------------- quantized ANN --

def _sq_params(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension (lo, scale) for {SQ_BITS}-bit quantization (an
    empty sample fits an empty codec)."""
    lo = mat.min(axis=0, initial=np.inf)
    hi = mat.max(axis=0, initial=-np.inf)
    scale = (hi - lo) / ((1 << SQ_BITS) - 1)
    scale[scale == 0] = 1.0
    return lo, scale


def _sq(mat: np.ndarray, lo: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """``mat`` through the {SQ_BITS}-bit codec: encoded, then decoded."""
    codes = np.clip(np.round((mat - lo) / scale), 0,
                    (1 << SQ_BITS) - 1).astype(np.uint8)
    return codes.astype(np.float64) * scale + lo


def ann_sq_topk(sf_dir: str):
    """Scalar-quantized ANN (the int8 memory-scale path: 8× smaller
    than float64 residency, the FAISS SQ8 shape): per-dimension
    (lo, scale) fit on a bounded unbiased hash-rank sample, broadcast
    with the query matrix; each batch quantizes, de-quantizes and
    scores — the ranking error is bounded by the quantization step.
    Queries go through the SAME codec (symmetric distance).  Same
    output contract as knn_bruteforce; recall vs the exact ranking is
    asserted in tests (rows-only for the driver — approximate by
    design)."""
    lo, scale = _sq_params(_unit(_sample(_read_emb(sf_dir), FIT_SAMPLE)))
    q_ids, q_unit = _load_queries(sf_dir, ("vec_id", "<", N_QUERIES))

    def score(t, q_ids, q_deq, lo, scale):
        ids, u = _unit_emb(t)
        return ids, _sq(u, lo, scale) @ q_deq.T, ids[:, None] != q_ids

    return _scan_topk(_read_emb(sf_dir), q_ids, score, TOP_K,
                      (_sq(q_unit, lo, scale), lo, scale))


def _pq_codes(sub: np.ndarray, cent: np.ndarray) -> np.ndarray:
    """Nearest codebook entry of each row: argmin ||x−c||² = argmin
    (||c||² − 2x·cᵀ), one (n, k) matmul, never the (n, k, d_sub)
    broadcast-difference tensor (~4 KB/row transient at k=128)."""
    d2 = (cent * cent).sum(axis=1)[None, :] - 2.0 * (sub @ cent.T)
    return d2.argmin(axis=1) if len(d2) else np.zeros(0, np.intp)


def _pq_fit(sample: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-subspace Lloyd k-means codebooks (12 iterations, seed 7) on
    a bounded sample.  Returns (dim splits, codebooks)."""
    rng = np.random.default_rng(7)
    splits = np.array_split(np.arange(sample.shape[1]), PQ_SUBSPACES)
    books = []
    for idx in splits:
        sub = sample[:, idx]
        k_eff = min(PQ_CENTROIDS, len(sub))
        cent = sub[rng.choice(len(sub), size=k_eff, replace=False)]
        for _ in range(12):
            assign = _pq_codes(sub, cent)
            for c in range(k_eff):
                hit = assign == c
                if hit.any():
                    cent[c] = sub[hit].mean(axis=0)
        books.append(cent)
    return splits, books


def _pq_encode(mat: np.ndarray, splits, books) -> np.ndarray:
    return np.stack([_pq_codes(mat[:, idx], cent)
                     for idx, cent in zip(splits, books)],
                    axis=1).astype(np.uint8)


def _pq_lut(q_mat: np.ndarray, splits, books) -> np.ndarray:
    """Per-query lookup tables: (n_q, m, ks) inner products of each
    query's subvectors with each codebook entry."""
    return np.stack([q_mat[:, idx] @ cent.T
                     for idx, cent in zip(splits, books)], axis=1)


def _adc(lut: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """(n_q, batch) asymmetric-distance scores Σ_j lut[:, j, codes_j]:
    cosine on unit vectors decomposes additively across subspaces, so
    scoring is one fancy-index sum per subspace, no decode."""
    sims = np.zeros((len(lut), len(codes)))
    for j in range(codes.shape[1]):
        sims += lut[:, j, codes[:, j]]
    return sims


def ann_pq_topk(sf_dir: str):
    """Product-quantized ANN with asymmetric distance (the FAISS
    PQ/ADC memory-scale path: d float64s → m bytes per vector, 32×
    smaller residency at d=64, m=16): per-subspace codebooks fit on a
    bounded hash-rank sample and broadcast; each batch encodes its
    vectors to codes and scores them against per-query lookup tables
    (``_adc``).  Queries stay float (asymmetric).  Same output
    contract as knn_bruteforce; approximate by design (rows-only for
    the driver, recall floor asserted in tests)."""
    splits, books = _pq_fit(_unit(_sample(_read_emb(sf_dir), FIT_SAMPLE)))
    q_ids, q_mat = _load_queries(sf_dir, ("vec_id", "<", N_QUERIES))

    def score(t, q_ids, lut, splits, books):
        ids, u = _unit_emb(t)
        return (ids, _adc(lut, _pq_encode(u, splits, books)).T,
                ids[:, None] != q_ids)

    return _scan_topk(_read_emb(sf_dir), q_ids, score, TOP_K,
                      (_pq_lut(q_mat, splits, books), splits, books))


def _ivfpq_topk(sf_dir: str, refine: int) -> pa.Table:
    """IVF-PQ with asymmetric distance — the canonical billion-scale
    ANN composition (FAISS IVFxx,PQyy): a coarse quantizer routes each
    vector to a cluster, PQ codebooks fit on RESIDUALS (vector − its
    centroid) encode it to m bytes, and a query scans only its
    ``N_PROBE`` nearest clusters scoring codes via lookup tables:
    ``sim(q, x̂) = q·c_cluster + Σ_j LUT_q[j][code_j]`` (inner product
    decomposes across the centroid and the residual subspaces).  Both
    stages fit on ONE bounded sample and broadcast; the full table
    only streams through the encode/score stage.

    ``refine > 0`` adds the FAISS RefineFlat step IN-STREAM: each batch
    keeps its top k·refine candidates per query by ADC score and
    re-scores exactly THOSE with the exact dot product — the vectors
    are already in the batch, so the refine costs zero extra I/O, and
    the global merge ranks by EXACT similarity."""
    sample = _sample(_read_emb(sf_dir), FIT_SAMPLE)
    cents = IVFIndex().fit(sample).centroids
    us = _unit(sample)
    splits, books = _pq_fit(us - cents[_nearest(us, cents)])
    q_ids, q_mat = _load_queries(sf_dir, ("vec_id", "<", N_QUERIES))
    depth = TOP_K * refine

    def score(t, q_ids, q_mat, cents, probe, base, lut, splits, books):
        ids, u = _unit_emb(t)
        cl = _nearest(u, cents)
        s = (base[:, cl]
             + _adc(lut, _pq_encode(u - cents[cl], splits, books))).T
        keep = (ids[:, None] != q_ids) & probe[:, cl].T
        if not depth:
            return ids, s, keep
        r, q = np.nonzero(keep)
        cut, _ = _topk([q], s[r, q], ids[r], depth)
        r, q = r[cut], q[cut]
        exact = np.zeros(s.shape)
        for j in np.unique(q):     # each query's candidates, ADC order
            exact[r[q == j], j] = u[r[q == j]] @ q_mat[j]
        keep = np.zeros(s.shape, bool)
        keep[r, q] = True
        return ids, exact, keep

    return _scan_topk(_read_emb(sf_dir), q_ids, score, TOP_K,
                      (q_mat, cents, _probe_mask(q_mat, cents),
                       q_mat @ cents.T, _pq_lut(q_mat, splits, books),
                       splits, books))


def ann_ivfpq_topk(sf_dir: str):
    """IVF-PQ top-k (see ``_ivfpq_topk``).  Approximate by design —
    recall floor and probe subset asserted in tests, rows-only for the
    driver."""
    return _ivfpq_topk(sf_dir, 0)


def ann_ivfpq_refine_topk(sf_dir: str):
    """The FAISS IVFPQ+RefineFlat composition (see ``_ivfpq_topk``):
    recall can only improve over ann_ivfpq_topk — the per-batch pool
    is ``REFINE_FACTOR``× wider and the final ordering is exact."""
    return _ivfpq_topk(sf_dir, REFINE_FACTOR)


def knn_filtered(sf_dir: str):
    """Filtered vector search (ES kNN with a filter clause): exact
    cosine top-k restricted to vectors with label ``FILTER_LABEL`` —
    the filter is part of the per-batch keep mask, so a filtered-out
    row never reaches the top-k, the same restrict-never-rescale
    stance as the BM25 filter-context path.  Exact, SQL-oracled."""
    def score(t, q_ids, q_mat, label):
        ids, sims, keep = _cosine(t, q_ids, q_mat)
        return ids, sims, keep & (t["label"].to_numpy() == label)[:, None]

    q_ids, q_mat = _load_queries(sf_dir, ("vec_id", "<", N_QUERIES))
    return _scan_topk(_read_emb(sf_dir, ["label"]), q_ids, score, TOP_K,
                      (q_mat, FILTER_LABEL))


KNN_FILTERED_SQL = """
WITH q AS (SELECT vec_id AS query_id, embedding AS qe
           FROM embeddings WHERE vec_id < 5),
     s AS (SELECT q.query_id, e.vec_id AS neighbor_id,
                  list_cosine_similarity(e.embedding, q.qe) AS sim
           FROM embeddings e CROSS JOIN q
           WHERE e.vec_id <> q.query_id AND e.label = 1)
SELECT query_id, rank, neighbor_id
FROM (SELECT query_id, neighbor_id,
             row_number() OVER (PARTITION BY query_id
                                ORDER BY sim DESC, neighbor_id) AS rank
      FROM s)
WHERE rank <= 10
"""


def hard_negatives_embeddings(sf_dir: str):
    """Hard-negative mining (the contrastive-training data op): for
    each query vector, the exact cosine top-k among vectors whose
    label DIFFERS from the query's own — the highest-similarity
    wrong-class examples a contrastive loss wants.  Unlike
    knn_filtered's fixed label, the exclusion is PER QUERY; the label
    vector rides the same broadcast as the query matrix."""
    def score(t, q_ids, q_mat, q_labels):
        ids, sims, keep = _cosine(t, q_ids, q_mat)
        lab = t["label"].to_numpy().astype(np.int64)
        return ids, sims, keep & (lab[:, None] != q_labels)

    q_ids, q_mat, q_labels = _load_queries(
        sf_dir, ("vec_id", "<", N_QUERIES), ["label"])
    return _scan_topk(_read_emb(sf_dir, ["label"]), q_ids, score, TOP_K,
                      (q_mat, q_labels))


HARD_NEGATIVES_SQL = """
WITH q AS (SELECT vec_id AS query_id, embedding AS qe, label AS ql
           FROM embeddings WHERE vec_id < 5),
     s AS (SELECT q.query_id, e.vec_id AS neighbor_id,
                  list_cosine_similarity(e.embedding, q.qe) AS sim
           FROM embeddings e CROSS JOIN q
           WHERE e.vec_id <> q.query_id AND e.label <> q.ql)
SELECT query_id, rank, neighbor_id
FROM (SELECT query_id, neighbor_id,
             row_number() OVER (PARTITION BY query_id
                                ORDER BY sim DESC, neighbor_id) AS rank
      FROM s)
WHERE rank <= 10
"""


def mmr_rerank_embeddings(sf_dir: str):
    """Maximal Marginal Relevance diversification (Carbonell &
    Goldstein 1998): greedily pick ``MMR_K`` of the exact
    top-``MMR_POOL`` candidates by λ·sim(q,d) − (1−λ)·max_sim(d,
    selected).  The DISTRIBUTED part is the exact top-pool retrieval
    (knn_bruteforce); the greedy runs on the driver over a
    pool-bounded candidate set — k·pool scalar ops per query, never
    corpus-sized.  Rows-only (iterative float greedy is not SQL);
    bit-equal to a driver recompute in tests.  Output: (query_id,
    rank, neighbor_id)."""
    base = knn_bruteforce(sf_dir, N_QUERIES, MMR_POOL)
    qids = base["query_id"].to_numpy()
    nids = base["neighbor_id"].to_numpy()
    # fetch ONLY the needed vectors (queries + candidates): a pruned
    # row-filtered read bounded by n_queries × (pool + 1)
    need = sorted(set(nids.tolist()) | set(qids.tolist()))
    ids, u = _load_queries(sf_dir, ("vec_id", "in", need))
    vec = dict(zip(ids.tolist(), u))

    def gain(q, c, sel):
        div = max((float(vec[c] @ vec[s]) for s in sel), default=0.0)
        return MMR_LAMBDA * float(vec[q] @ vec[c]) - (1 - MMR_LAMBDA) * div

    rows = []
    for q in np.unique(qids).tolist():
        cand, sel = nids[qids == q].tolist(), []
        while cand and len(sel) < MMR_K:
            sel.append(min(cand, key=lambda c: (-gain(q, c, sel), c)))
            cand.remove(sel[-1])
        rows += [(q, r, d) for r, d in enumerate(sel, 1)]
    return table(rows, "query_id rank neighbor_id")


def knn_grouped(sf_dir: str):
    """Grouped vector search (diversified retrieval: top-k PER label
    per query — the ES collapse/inner_hits analog on the vector side):
    ``_scan_topk`` grouped by label, so each batch keeps ≤k per
    (query, label) and the driver merge ranks within (query, label).
    Exact, SQL-oracled."""
    q_ids, q_mat = _load_queries(sf_dir, ("vec_id", "<", GROUPED_QUERIES))
    return _scan_topk(_read_emb(sf_dir, ["label"]), q_ids, _cosine,
                      GROUPED_K, (q_mat,), ["label"])


KNN_GROUPED_SQL = """
WITH q AS (SELECT vec_id AS query_id, embedding AS qe
           FROM embeddings WHERE vec_id < 3),
     s AS (SELECT q.query_id, CAST(e.label AS BIGINT) AS label,
                  e.vec_id AS neighbor_id,
                  list_cosine_similarity(e.embedding, q.qe) AS sim
           FROM embeddings e CROSS JOIN q
           WHERE e.vec_id <> q.query_id)
SELECT query_id, label, rank, neighbor_id
FROM (SELECT query_id, label, neighbor_id,
             row_number() OVER (PARTITION BY query_id, label
                                ORDER BY sim DESC, neighbor_id) AS rank
      FROM s)
WHERE rank <= 3
"""


QUERIES = {
    "knn_bruteforce": knn_bruteforce,
    "ann_pq_topk": ann_pq_topk,
    "ann_ivfpq_topk": ann_ivfpq_topk,
    "knn_filtered": knn_filtered,
    "hard_negatives_embeddings": hard_negatives_embeddings,
    "mmr_rerank_embeddings": mmr_rerank_embeddings,
    "knn_grouped": knn_grouped,
    "embedding_dims": embedding_dims,
    "embedding_neardup": embedding_neardup,
    "vecindex_topk": vecindex_topk,
    "ann_ivf_topk": ann_ivf_topk,
    "kmeans_assign_embeddings": kmeans_assign_embeddings,
    "semdedup_embeddings": semdedup_embeddings,
    "ann_ivfpq_refine_topk": ann_ivfpq_refine_topk,
    "ann_sq_topk": ann_sq_topk,
}

ORACLE = {
    "knn_bruteforce": KNN_SQL,
    "vecindex_topk": KNN_SQL,
    "knn_filtered": KNN_FILTERED_SQL,
    "hard_negatives_embeddings": HARD_NEGATIVES_SQL,
    "knn_grouped": KNN_GROUPED_SQL,
    "embedding_dims": EMB_DIMS_SQL,
    # embedding_neardup / ann_ivf_topk: rows-only (pair set depends on
    # float ULPs at the τ boundary / approximation by design)
}
