"""Hybrid retrieval: Reciprocal Rank Fusion over the BM25 and vector
rankings of the SAME corpus.

The ES 8.8+ ``rrf`` retriever analog (public algorithm: Cormack,
Clarke, Büttcher — "Reciprocal Rank Fusion outperforms Condorcet and
individual rank learning methods", SIGIR 2009): each retriever
contributes ``1 / (K + rank)`` per document, fused score is the sum,
ties break on doc_id.  The reference system has no hybrid path (it
predates ES vector search) — this extends the engine the way a user
of the reference would extend it today.

Deterministic query pairing (the corpus embeds 1:1, doc_id == vec_id):
text query ``qid`` fuses with query vector ``vec_id = qid - 1`` — a
deterministic stand-in for "the embedded form of the same query"
(this sandbox has no text-embedding model; the pairing is the
documented fixture convention, not a semantic claim).

Distribution shape: the BM25 side runs through the built index
(distributed build, Searcher top-k); the vector side is the
knn_bruteforce streamed scan (per-batch exact top-k partials +
bounded merge).  The FUSION itself touches only the two bounded rank
tables (n_queries × k rows each) — driver-side by design.

Rows-only for the driver (BM25 is not SQL-expressible); exactness is
asserted in tests by an independent driver-side RRF recompute over
the two component rankings, which are themselves oracle-checked
(bm25_topk_documents value-exact vs the BM25 SQL tree, knn_bruteforce
vs KNN_SQL).

:func:`rrf_fuse` is the one fusion of both hybrid names: this module's
``rrf_hybrid_topk`` and ``fulltext.hybrid_rrf_documents`` (text ranking
first, so its sums run in the order of that name's SQL oracle).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from mee_ray.stages import table

RRF_K = 60          # the standard k of Cormack et al. / ES default


def rrf_fuse(rankings: list[pa.Table], k: int) -> pa.Table:
    """Fuse rank tables with columns (query_id, rank, doc_id) —
    score(q, d) = Σ_r 1/(RRF_K + rank_r(q, d)), summed in ``rankings``
    order; top-k per query by (score DESC, doc_id ASC).  Pure
    driver-side math over bounded inputs; one definition shared by
    both hybrid names (rrf_hybrid_topk, fulltext.hybrid_rrf_documents)
    and the test."""
    qs: dict[int, dict[int, float]] = {}
    for t in rankings:
        for q, r, d in zip(t["query_id"].to_pylist(),
                           t["rank"].to_pylist(),
                           t["doc_id"].to_pylist()):
            qs.setdefault(q, {}).setdefault(d, 0.0)
            qs[q][d] += 1.0 / (RRF_K + r)
    rows = []
    for q in sorted(qs):
        items = sorted(qs[q].items(), key=lambda kv: (-kv[1], kv[0]))
        rows += [(q, rank, d, sc)
                 for rank, (d, sc) in enumerate(items[:k], start=1)]
    return table(rows, "query_id rank doc_id rrf_score:f64")


def rrf_hybrid_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """RRF fusion of bm25_topk_documents and knn_bruteforce for the
    reference query set — output (query_id, rank, doc_id, rrf_score)."""
    from mee_ray.pipelines.fulltext import (REFERENCE_QUERIES,
                                            bm25_topk_documents)
    from mee_ray.pipelines.vector import knn_bruteforce

    # plumb k through BOTH component rankings so the fused lists have
    # equal depth at any k (ADVICE r4: BM25 side was pinned at TOP_K)
    text = bm25_topk_documents(sf_dir, k=k)
    vec = knn_bruteforce(sf_dir, n_queries=len(REFERENCE_QUERIES), k=k)
    # align: vector query_id v pairs with text qid v+1; rename the
    # neighbor column into the shared (query_id, rank, doc_id) shape
    vec = pa.table({"query_id": pc.add(vec["query_id"], 1),
                    "rank": vec["rank"], "doc_id": vec["neighbor_id"]})
    return rrf_fuse([text, vec], k)
