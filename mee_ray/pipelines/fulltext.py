"""Engine-backed fulltext pipelines over the driver's ``documents``
table, mapped into the corpus schema (mee_ray.corpus.documents_as_corpus)
and indexed by the REAL engine (build → segments → manifest → search).

The BM25 oracle here is pure ANSI SQL: DuckDB recomputes tf/df/dl/
avgdl with the identical tokenizer regex and the identical BM25
formula, so the correctness gate exercises the whole distributed index
machinery end-to-end.  The index is built once per sf_dir into /tmp
and reused across driver calls via the engine's own resume checkpoints.

Adding a ranked query takes two statements: one :func:`_ranked` call
(a query set plus the ONE Searcher call each query makes) and one
oracle through :func:`_ranked_sql` (stating only what differs from the
plain BM25 ranking: an extra CTE, a HAVING clause, a filter join or a
different k).  Index-side scans over the docs table go through
:func:`_broadcast_scan`.
"""

from __future__ import annotations

import binascii
import functools
import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from mee_ray.build import build_index
from mee_ray.config import EngineConfig, TokenizerConfig
from mee_ray.corpus import documents_as_corpus
from mee_ray.pipelines.hybrid import RRF_K, rrf_fuse
from mee_ray.pipelines.text import TOKEN_PATTERN
from mee_ray import manifest as mf
from mee_ray.stages import table as _table

# Fixed reference query set over the documents vocabulary.
REFERENCE_QUERIES: list[tuple[int, list[str]]] = [
    (1, ["merge", "sort"]),
    (2, ["window"]),
    (3, ["customer", "join", "fast"]),
    (4, ["spark", "stream"]),
    (5, ["the", "slow"]),
    (6, ["vector", "hash", "scan", "batch"]),
]
TOP_K = 10


def _index_root(sf_dir: str) -> str:
    from mee_ray.postings import FORMAT_VERSION
    # cache key = sf_dir + FORMAT_VERSION + positions marker + a
    # CONTENT fingerprint of the source parquet (size + mtime): a
    # regenerated documents.parquet at the same path must invalidate
    # the cached index, or every fulltext query would rank the OLD
    # corpus against a fresh SQL oracle
    src = f"{sf_dir}/documents.parquet"
    try:
        st = os.stat(src)
        fp = f"{st.st_size}_{int(st.st_mtime_ns)}"
    except OSError:
        fp = "nosrc"
    tag = hashlib.sha1(f"{sf_dir}|{fp}".encode()).hexdigest()[:16]
    return f"/tmp/mee_ft_index/v{FORMAT_VERSION}p_{tag}"


def _ensure_index(sf_dir: str) -> str:
    """Build (or resume) the documents index for this sf_dir. The
    engine's stage checkpoints make repeated calls near-free."""
    root = _index_root(sf_dir)
    cfg = EngineConfig(tokenizer=TokenizerConfig.simple(),
                       store_positions=True)
    if mf.current_epoch(root) is None:
        corpus = documents_as_corpus(sf_dir)
        # (repo, path, commit) is unique per doc here → dedup off
        build_index(corpus, root, "ep1", cfg, dedup=False)
    return root


def _orig_id(path: str) -> int:
    """The one parser of the deterministic corpus path
    'src/doc_<id>.txt' → original documents.doc_id (the inverse of
    corpus.documents_as_corpus_batch)."""
    return int(path.split("doc_")[1].split(".")[0])


def _orig_id_map(root: str) -> dict[int, int]:
    """engine doc_id → original documents.doc_id."""
    out = {}
    for f in _docs_files(root):
        t = pq.read_table(f, columns=["doc_id", "path"])
        for did, p in zip(t["doc_id"].to_pylist(), t["path"].to_pylist()):
            out[did] = _orig_id(p)
    return out


def _docs_files(root: str) -> list[str]:
    return mf.docs_files(root, mf.current_epoch(root))


def _rank_rows(query_results, idmap: dict[int, int], cap: int,
               adjust=None) -> list[tuple[int, int, int]]:
    """Shared re-rank/emit: (query_id, engine ranking) pairs →
    (query_id, rank, original_doc_id) rows.

    The engine's native tie-break is its own sha-derived doc_id; the
    SQL oracle can only tie-break on the ORIGINAL documents.doc_id, so
    every fulltext query maps to original ids and re-ranks by
    (score desc, original id asc).  Exact score ties are common in
    this corpus (tiny vocabulary → identical (tf, dl) profiles), and
    both engines produce bit-identical float64 scores, so the ordering
    is well-defined on both sides.  ``adjust(orig_ids, scores)``, when
    given, rescores each ranking in original-id space first (the
    function_score / rank_feature / decay family)."""
    rows: list[tuple[int, int, int]] = []
    for qid, ranked in query_results:
        if not ranked:
            continue
        ids = np.array([idmap[d] for d, _ in ranked], dtype=np.int64)
        scores = np.array([sc for _, sc in ranked], dtype=np.float64)
        if adjust is not None:
            scores = adjust(ids, scores)
        order = np.lexsort((ids, -scores))[:cap]
        for rank, j in enumerate(order, start=1):
            rows.append((qid, rank, int(ids[j])))
    return rows


class _Run:
    """One open fulltext index: ``root`` (the documents index unless
    given), ONE Searcher over it, the full ranking depth ``k`` and the
    engine → original id map (read on first use)."""

    def __init__(self, sf_dir: str, root: str | None = None):
        from mee_ray.query import Searcher
        self.root = root or _ensure_index(sf_dir)
        self.s = Searcher(self.root)
        self.k = self.s.n_docs or 1

    @functools.cached_property
    def idmap(self) -> dict[int, int]:
        return _orig_id_map(self.root)

    def results(self, queries, call) -> list[tuple[int, list]]:
        """(qid, ranking) per query spec ``(qid, *args)``: ONE Searcher
        call ``call(s, k, *args)`` at full depth."""
        return [(qid, call(self.s, self.k, *args))
                for qid, *args in queries]

    def rows(self, queries, call, cap: int = TOP_K, adjust=None):
        return _rank_rows(self.results(queries, call), self.idmap, cap,
                          adjust)


def _ranked(sf_dir: str, queries, call, cap: int = TOP_K, adjust=None,
            root: str | None = None) -> pa.Table:
    """The fulltext query runner: open the cached index, make one
    Searcher call per query (see :meth:`_Run.results`), map to original
    ids and re-rank (see :func:`_rank_rows`), emitted as
    (query_id, rank, doc_id)."""
    return _table(_Run(sf_dir, root).rows(queries, call, cap, adjust),
                  "query_id rank doc_id")


# Shared SQL fragments: ONE copy of the tokenizer + BM25 stats CTEs
# and ONE copy of the score expression, composed by every bm25 oracle
# builder below — a k1/b or tokenizer change edits exactly one string.
# _SCORE_TERM is one term's contribution (idf × tfn, in that product
# order — the engine's w*tf_norm); the weighted oracle multiplies a
# boost onto it, everything else sums it as-is.
_TFN_EXPR = """((tf.tf * (1.2 + 1)) /
                (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl /
                                (CAST(s.total_tokens AS DOUBLE) / s.n_docs))))"""
_SCORE_TERM = f"""ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
             * {_TFN_EXPR}"""
_SCORE_SUM = f"sum({_SCORE_TERM}) AS score"
_TOKENS = f"regexp_extract_all(lower(text), '{TOKEN_PATTERN}')"


def _base_ctes(with_positions: bool = False, tokens: str = _TOKENS) -> str:
    tok = ("SELECT doc_id, unnest(ts) AS term, "
           "generate_subscripts(ts, 1) AS i FROM tokl"
           if with_positions else
           "SELECT doc_id, unnest(ts) AS term FROM tokl")
    return f"""WITH tokl AS (
  SELECT doc_id, {tokens} AS ts
  FROM documents),
tok AS ({tok}),
dl AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
stats AS (SELECT (SELECT count(*) FROM documents) AS n_docs,
                 (SELECT count(*) FROM tok) AS total_tokens),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term)"""


def _q_values(query_set) -> str:
    return ", ".join(f"({qid}, '{t}')"
                     for qid, terms in query_set
                     for t in sorted(set(terms)))


def _sql_head(queries=REFERENCE_QUERIES, q: str | None = None,
              positions: bool = False, base: str | None = None) -> str:
    """The oracle header: the tokenizer + BM25 stats CTEs (``base``
    replaces them) and ``q(query_id, term)`` over ``queries`` (``q``
    replaces it — any CTE chain that ends in a ``q`` CTE)."""
    q = q or f"q(query_id, term) AS (VALUES {_q_values(queries)})"
    return f"\n{base or _base_ctes(positions)},\n{q}"


def _scores_cte(score: str = _SCORE_SUM, select: str = "",
                joins: str = "", having: str = "", name: str = "scores",
                tables=("tf", "df", "dl", "stats")) -> str:
    """The standard BM25 join: per (query_id, doc_id) the summed score
    of the matching ``q`` terms, plus ``select`` columns, ``joins`` and
    a ``having`` clause; ``tables`` swaps in another field's
    tf/df/dl/stats CTEs."""
    tf, df, dl, st = tables
    return f"""{name} AS (
  SELECT q.query_id, tf.doc_id,
         {score}{select}
  FROM q
  JOIN {tf} tf ON tf.term = q.term
  JOIN {df} df ON df.term = q.term
  JOIN {dl} dl ON dl.doc_id = tf.doc_id{joins}
  CROSS JOIN {st} s
  GROUP BY q.query_id, tf.doc_id{having})"""


def _top_sql(source: str = "scores", k: int = TOP_K, restrict: str = "",
             cols: str = "query_id, rank, doc_id") -> str:
    """The ranked tail: ``source`` rows (alias ``sc``, restricted by the
    joins/WHERE in ``restrict``) numbered per query by (score desc,
    doc_id) and cut at ``k``."""
    return f"""SELECT {cols}
FROM (SELECT sc.query_id, sc.doc_id,
             row_number() OVER (PARTITION BY sc.query_id
                                ORDER BY sc.score DESC, sc.doc_id) AS rank
      FROM {source} sc{restrict})
WHERE rank <= {k}"""


def _ranked_sql(queries=REFERENCE_QUERIES, *, q: str | None = None,
                positions: bool = False, base: str | None = None,
                ctes: str = "", post: str = "", source: str = "scores",
                restrict: str = "", k: int = TOP_K, tail: str | None = None,
                **scores) -> str:
    """The ranked-oracle builder: :func:`_sql_head`, then ``ctes``, the
    ``scores`` CTE (:func:`_scores_cte` with ``scores`` keywords), the
    ``post`` CTEs, and the :func:`_top_sql` tail over ``source`` (or a
    whole ``tail`` SELECT; ``""`` leaves it to the caller)."""
    parts = [_sql_head(queries, q, positions, base), ctes,
             _scores_cte(**scores), post]
    return (",\n".join(p for p in parts if p) + "\n"
            + (_top_sql(source, k, restrict) if tail is None else tail)
            + "\n")


def _text_search(s, k: int, terms: list[str]) -> list:
    """The full-depth disjunctive ranking of one query through the
    partials path — ONE contract shared by topk / hybrid / snippets /
    search_template and every rescoring query, so the k convention and
    the partials path cannot desynchronize between them."""
    from mee_ray.query import merge_partials
    return merge_partials([s.term_partials(sorted(set(terms)))], terms,
                          k=k)


def bm25_topk_documents(sf_dir: str, k: int = TOP_K):
    """Full engine path: build → Searcher → top-k, emitted as
    (query_id, rank, doc_id) with original document ids (re-ranked by
    original id for the oracle tie-break — see _rank_rows).  ``k``
    sets the per-query depth (default TOP_K; rrf_hybrid_topk plumbs
    its fusion depth through so both component lists match — ADVICE
    r4)."""
    return _ranked(sf_dir, REFERENCE_QUERIES, _text_search, cap=k)


# --- ES search-template analog ---------------------------------------
# Stored query templates rendered against a params document by the
# %-interpolation DSL (M4, functions/interp.py) — the same
# compile-once closures that drive docbuild field mapping.  Omitted
# params take the template's default (the reference's echo semantics,
# modules/handlers/common.py:129-135); a template referencing a param
# with neither value nor default fails AT COMPILE (the module's eager
# validation contract).  Queries 1-3 render to reference queries, so
# template indirection provably changes nothing; query 4 is a novel
# combination.

SEARCH_TEMPLATES: list[tuple[int, str, dict]] = [
    (1, "%first %second", {"first": "merge", "second": "sort"}),
    (2, "%only:(window)", {}),                       # default fires
    (3, "%a %b %c:(fast)", {"a": "customer", "b": "join"}),
    (4, "%a %b:(stream)", {"a": "spark", "b": "batch"}),  # overridden
]


def _rendered_template_queries() -> list[tuple[int, list[str]]]:
    from mee_ray.functions.interp import (compile_template,
                                          template_columns)
    out = []
    for qid, tmpl, params in SEARCH_TEMPLATES:
        cols = [c for c in template_columns(tmpl) if c in params]
        ns = (pa.table({c: pa.array([params[c]], pa.string())
                        for c in cols})
              if cols else pa.table({"__no_params": pa.array([0])}))
        rendered = compile_template(tmpl)(ns)[0].as_py()
        out.append((qid, rendered.split()))
    return out


def bm25_search_template_documents(sf_dir: str):
    """Render SEARCH_TEMPLATES, then run the SHARED full-depth
    ranking loop — output contract identical to bm25_topk_documents."""
    return _ranked(sf_dir, _rendered_template_queries(), _text_search)


def bm25_conjunctive_documents(sf_dir: str):
    """Conjunctive (operator="and") engine path over the same
    reference query set: only documents matching EVERY query term are
    ranked; scores equal the disjunctive scores of the surviving docs
    (idf stays full-index, conjunction filters rather than rescales).
    Emitted as (query_id, rank, doc_id) with original ids, ranked by
    (score desc, original id) like bm25_topk_documents."""
    return _ranked(sf_dir, REFERENCE_QUERIES, lambda s, k, terms:
                   s.search(terms, k=k, operator="and"))


# minimum_should_match per reference query: require 2 matching terms
# where the query has >= 2 (1-term queries degenerate to OR, on
# purpose — the contract says m<=1 is plain disjunction).
MIN_MATCH: dict[int, int] = {
    qid: min(2, len(terms)) for qid, terms in REFERENCE_QUERIES}

# per-term boosts: 2^position in sorted-term order.  Powers of two
# make the boost multiply EXACT in float64, so engine and oracle
# scores stay bit-identical exactly as in the unboosted queries.
QUERY_BOOSTS: dict[int, dict[str, float]] = {
    qid: {t: float(1 << i) for i, t in enumerate(sorted(set(terms)))}
    for qid, terms in REFERENCE_QUERIES}


def bm25_min_match_documents(sf_dir: str):
    """minimum_should_match BM25 top-k (ES bool should +
    minimum_should_match): only documents matching >= MIN_MATCH[qid]
    distinct query terms are ranked; survivors keep their full
    disjunctive scores (the threshold filters, it never rescales).
    Emitted as (query_id, rank, doc_id) with the shared tie-break."""
    queries = [(qid, terms, MIN_MATCH[qid])
               for qid, terms in REFERENCE_QUERIES]
    return _ranked(sf_dir, queries, lambda s, k, terms, m:
                   s.search_min_match(terms, k=k, min_match=m))


def _bm25_min_match_sql() -> str:
    mm = ", ".join(f"({qid}, {m})" for qid, m in sorted(MIN_MATCH.items()))
    return _ranked_sql(
        ctes=f"qm(query_id, mm) AS (VALUES {mm})",
        joins="\n  JOIN qm ON qm.query_id = q.query_id",
        having="\n  HAVING count(DISTINCT tf.term) >= min(qm.mm)")


TERMS_SET_DL_THRESHOLD = 60   # tokens: short docs need 1 match, long 2


def bm25_terms_set_documents(sf_dir: str):
    """ES ``terms_set``: per-DOCUMENT dynamic minimum_should_match
    read from indexed per-doc data (minimum_should_match_field) — the
    indexed document length here: docs under
    {TERMS_SET_DL_THRESHOLD} tokens need 1 distinct query term, longer
    docs need 2.  Survivors keep full disjunctive scores."""
    return _ranked(sf_dir, REFERENCE_QUERIES, lambda s, k, terms:
                   s.search_terms_set(
                       terms, k=k, dl_threshold=TERMS_SET_DL_THRESHOLD))


def _bm25_terms_set_sql() -> str:
    return _ranked_sql(having=f"""
  HAVING count(DISTINCT tf.term) >=
         CASE WHEN min(dl.dl) < {TERMS_SET_DL_THRESHOLD}
              THEN 1 ELSE 2 END""")


# script_score: replace BM25 with a doc-length-damped rescore, written
# in the engine's scalar-function DSL (the reference's resolver
# surface, modules/handlers/common.py:32-127) — compiled once, applied
# vectorized over every match's (_score, dl) batch
SCRIPT_SCORE_EXPR = "div(mul(_score, dl), sum(dl, 10))"


def bm25_script_score_documents(sf_dir: str):
    """ES ``script_score`` query: the matching-doc BM25 score is
    replaced by a script — here ``score * dl / (dl + 10)`` expressed
    in the scalar DSL — and the top-k re-ranked by the scripted value.
    Exhaustive disjunctive matching by design (an arbitrary script
    voids WAND's monotone bounds, the stance ES documents)."""
    return _ranked(sf_dir, REFERENCE_QUERIES, lambda s, k, terms:
                   s.search_script_score(terms, SCRIPT_SCORE_EXPR, k=k))


def _bm25_script_score_sql() -> str:
    # SQL mirror of SCRIPT_SCORE_EXPR: left-to-right (score*dl)/(dl+10)
    return _ranked_sql(
        select=",\n         min(dl.dl) AS dlv",
        post="""scripted AS (
  SELECT query_id, doc_id, score * dlv / (dlv + 10) AS score
  FROM scores)""", source="scripted")


COMMON_TERMS_CUTOFF = 0.5   # df/n_docs above this ⇒ high-frequency

# 'dup' is the one genuinely rare corpus term (df ≈ 0.05·n_docs vs the
# ~0.77 plateau of the rest) — the natural low-frequency anchor
COMMON_TERMS_QUERIES: list[tuple[int, list[str]]] = [
    (1, ["dup", "merge", "sort"]),
    (2, ["dup", "window"]),
    (3, ["the", "slow"]),                  # all high → OR fallback
    (4, ["dup", "customer", "join", "fast"]),
    (5, ["zzz_absent", "scan"]),           # absent low term → empty
    (6, ["dup", "data", "group"]),
]


def bm25_common_terms_documents(sf_dir: str):
    """ES ``common_terms`` (cutoff-frequency) query: low-df terms are
    required, high-df terms only contribute score to survivors, all
    high-df degrades to plain OR — the stopword-tolerant match shape."""
    return _ranked(sf_dir, COMMON_TERMS_QUERIES, lambda s, k, terms:
                   s.search_common_terms(
                       terms, cutoff_frequency=COMMON_TERMS_CUTOFF, k=k))


def _bm25_common_terms_sql() -> str:
    cut = COMMON_TERMS_CUTOFF
    return _ranked_sql(COMMON_TERMS_QUERIES, ctes=f"""qc AS (
  SELECT q.query_id, q.term,
         CASE WHEN coalesce(df.df, 0) > {cut} * s.n_docs
              THEN 1 ELSE 0 END AS hi
  FROM q LEFT JOIN df ON df.term = q.term CROSS JOIN stats s),
nlow AS (SELECT query_id, count(*) FILTER (WHERE hi = 0) AS n_low
         FROM qc GROUP BY query_id),
lowmatch AS (
  SELECT qc.query_id, tf.doc_id, count(DISTINCT tf.term) AS n
  FROM qc JOIN tf ON tf.term = qc.term
  WHERE qc.hi = 0
  GROUP BY qc.query_id, tf.doc_id)""", restrict="""
      JOIN nlow ON nlow.query_id = sc.query_id
      LEFT JOIN lowmatch lm ON lm.query_id = sc.query_id
                           AND lm.doc_id = sc.doc_id
      WHERE nlow.n_low = 0 OR coalesce(lm.n, 0) = nlow.n_low""")


def bm25_weighted_documents(sf_dir: str):
    """Per-term boosted BM25 top-k (ES ``term^boost``): each term's
    contribution is scaled by QUERY_BOOSTS before the sorted-term
    accumulation — score = Σ_t boost_t·idf_t·tfn_t.  Emitted as
    (query_id, rank, doc_id) with the shared tie-break."""
    return _ranked(sf_dir, QUERY_BOOSTS.items(), lambda s, k, boosts:
                   s.search_weighted(boosts, k=k))


def _bm25_weighted_sql() -> str:
    values = ", ".join(f"({qid}, '{t}', {b:.1f})"
                       for qid, boosts in sorted(QUERY_BOOSTS.items())
                       for t, b in sorted(boosts.items()))
    return _ranked_sql(
        q=f"q(query_id, term, boost) AS (VALUES {values})",
        score=f"sum({_SCORE_TERM} * q.boost) AS score")


def percolate_documents(sf_dir: str):
    """Percolator (the ES reverse search): the REFERENCE_QUERIES are
    the STORED queries; every document is tested against all of them
    and (doc_id, query_id) is emitted where the doc contains EVERY
    query term (operator=and percolation — the useful alerting
    semantics).

    Ray shape: one distributed ``map_batches`` pass over the
    documents table — per batch, ONE vectorized RE2 boundary-match per
    distinct stored term (pyarrow match_substring_regex over the
    lowered text; `[^a-z0-9_]`-bounded, exactly token-set membership
    under the `{TOKEN_PATTERN}` tokenizer), then a numpy AND-reduce
    per stored query.  No index, no shuffle, no driver-side text; the
    stored-query set is a compiled constant inside the task."""
    import re

    from mee_ray.pipelines.text import _read_docs

    uterms = sorted({t for _, ts in REFERENCE_QUERIES for t in ts})
    pats = {t: f"(^|[^a-z0-9_]){re.escape(t)}([^a-z0-9_]|$)"
            for t in uterms}

    def per_batch(b: pa.Table) -> pa.Table:
        low = pc.utf8_lower(b["text"])
        masks = {t: pc.match_substring_regex(low, pats[t])
                 .to_numpy(zero_copy_only=False) for t in uterms}
        dids = b["doc_id"].to_numpy(zero_copy_only=False)
        out_d: list[int] = []
        out_q: list[int] = []
        for qid, ts in REFERENCE_QUERIES:
            m = np.logical_and.reduce([masks[t] for t in sorted(set(ts))])
            hit = dids[m]
            out_d.extend(hit.tolist())
            out_q.extend([qid] * len(hit))
        return pa.table({"doc_id": pa.array(out_d, pa.int64()),
                         "query_id": pa.array(out_q, pa.int64())})

    parts = list(_read_docs(sf_dir, ["doc_id", "text"])
                 .map_batches(per_batch, batch_format="pyarrow",
                              zero_copy_batch=True)
                 .iter_batches(batch_format="pyarrow",
                               batch_size=1 << 20))
    t = pa.concat_tables(parts) if parts else pa.table(
        {"doc_id": pa.array([], pa.int64()),
         "query_id": pa.array([], pa.int64())})
    return t.sort_by([("doc_id", "ascending"), ("query_id", "ascending")])


# per reference query its term count (nq) and, per matching doc, how
# many of its terms the doc holds (m) — percolate and _count share it
_MATCH_COUNTS_SQL = _sql_head() + """,
nq AS (SELECT query_id, count(DISTINCT term) AS nt FROM q
       GROUP BY query_id),
m AS (SELECT q.query_id, tf.doc_id, count(DISTINCT tf.term) AS c
      FROM q JOIN tf ON tf.term = q.term
      GROUP BY q.query_id, tf.doc_id)"""


def _percolate_sql() -> str:
    return f"""{_MATCH_COUNTS_SQL}
SELECT m.doc_id, m.query_id
FROM m JOIN nq ON nq.query_id = m.query_id
WHERE m.c = nq.nt
ORDER BY m.doc_id, m.query_id
"""


def bm25_match_counts(sf_dir: str):
    """Match counts without scoring (the ES ``_count`` API): per
    reference query, how many documents contain ANY term (``n_or``)
    and how many contain EVERY term (``n_and``).  Posting id-set math
    only — no scores, no heap."""
    s = _Run(sf_dir).s
    return _table([(qid, s.count(t, "or"), s.count(t, "and"))
                   for qid, t in REFERENCE_QUERIES], "query_id n_or n_and")


def _bm25_counts_sql() -> str:
    return f"""{_MATCH_COUNTS_SQL}
SELECT nq.query_id,
       CAST(count(m.doc_id) AS BIGINT) AS n_or,
       CAST(COALESCE(sum(CASE WHEN m.c = nq.nt THEN 1 ELSE 0 END), 0)
            AS BIGINT) AS n_and
FROM nq LEFT JOIN m ON m.query_id = nq.query_id
GROUP BY nq.query_id
"""


SIG_DOCS = 30     # foreground sample: top-ranked docs per query
SIG_MIN_FG = 3    # ES min_doc_count analog: drop one-off terms
SIG_K = 10        # significant terms emitted per query


def bm25_significant_terms(sf_dir: str):
    """Significant-terms aggregation (ES ``significant_terms`` in
    query context): foreground = each reference query's top-{SIG_DOCS}
    documents (the shared (score desc, original id) ranking),
    background = the full corpus.  A term's significance is its lift
    ``(fg/{SIG_DOCS}) / (bg_df/n_docs)``; terms in fewer than
    {SIG_MIN_FG} foreground docs are dropped (the min_doc_count
    stance).  Stored-field fetch is bounded to the foreground ids via
    a distributed pruned scan (the snippets pattern); background dfs
    are dictionary-only lookups.  Foreground text is analyzed with
    the INDEX'S tokenizer (not a parallel regex), so every counted
    term exists in the dictionary and bg_df > 0 by construction.
    Emitted as (query_id, rank, term, fg_count)."""
    run = _Run(sf_dir)
    s = run.s
    top = run.rows(REFERENCE_QUERIES, _text_search, SIG_DOCS)
    tok = s._tokenizer()
    term_sets = {d: set(tok.counts(x))
                 for d, x in _fetch_texts(sf_dir, top).items()}

    by_query: dict[int, list[int]] = {}
    for qid, _, did in top:
        by_query.setdefault(qid, []).append(did)
    out = []
    n_docs_f = float(s.n_docs)
    for qid in sorted(by_query):
        fg: dict[str, int] = {}
        for did in by_query[qid]:
            for t in term_sets[did]:
                fg[t] = fg.get(t, 0) + 1
        sig = []
        for t, c in fg.items():
            if c < SIG_MIN_FG:
                continue
            bg = s.term_df(t)
            if bg == 0:   # unreachable with the index tokenizer;
                continue  # defensive against analyzer drift
            lift = (c / float(SIG_DOCS)) / (bg / n_docs_f)
            sig.append((-lift, t, c))
        sig.sort()
        out += [(qid, rank, t, c)
                for rank, (_, t, c) in enumerate(sig[:SIG_K], start=1)]
    return _table(out, "query_id rank term:str fg_count")


def _bm25_sig_terms_sql() -> str:
    return _ranked_sql(post=f"""top AS (
{_top_sql(k=SIG_DOCS, cols="query_id, doc_id")}),
fg AS (
  SELECT t.query_id, tf.term, count(*) AS fg
  FROM top t JOIN tf ON tf.doc_id = t.doc_id
  GROUP BY t.query_id, tf.term
  HAVING count(*) >= {SIG_MIN_FG}),
sig AS (
  SELECT fg.query_id, fg.term, fg.fg,
         (CAST(fg.fg AS DOUBLE) / {SIG_DOCS})
         / (CAST(df.df AS DOUBLE) / s.n_docs) AS lift
  FROM fg JOIN df ON df.term = fg.term CROSS JOIN stats s)""", tail=f"""\
SELECT query_id, rank, term, fg_count
FROM (SELECT query_id, term, fg AS fg_count,
             row_number() OVER (PARTITION BY query_id
                                ORDER BY lift DESC, term) AS rank
      FROM sig)
WHERE rank <= {SIG_K}""")


DISMAX_TB = 0.5   # exact power of two: the tb multiply stays exact
PAGE_SIZE = 97    # deliberately awkward page size — splits tie runs
PAGED_K = 20      # emitted depth of the stitched-pages query


def bm25_dismax_documents(sf_dir: str):
    """Dis-max BM25 top-k (ES ``dis_max``): score = best single-term
    contribution + {DISMAX_TB} × the remaining contributions.  Emitted
    as (query_id, rank, doc_id) with the shared tie-break."""
    return _ranked(sf_dir, REFERENCE_QUERIES, lambda s, k, terms:
                   s.search_dismax(terms, k=k, tie_breaker=DISMAX_TB))


def _bm25_dismax_sql() -> str:
    return f"""{_sql_head()},
contrib AS (
  SELECT q.query_id, tf.doc_id, {_SCORE_TERM} AS st
  FROM q
  JOIN tf ON tf.term = q.term
  JOIN df ON df.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s),
scores AS (
  SELECT query_id, doc_id,
         max(st) + {DISMAX_TB} * (sum(st) - max(st)) AS score
  FROM contrib GROUP BY query_id, doc_id)
{_top_sql()}
"""


def bm25_search_after_documents(sf_dir: str):
    """Cursor pagination (ES ``search_after``): each reference query's
    FULL ranking is reconstructed by stitching {PAGE_SIZE}-sized
    cursor pages (the page size deliberately splits exact-tie runs),
    then re-ranked by (score desc, original id) and emitted to depth
    {PAGED_K}.  Any page-boundary duplicate or drop near the top
    surfaces as an oracle mismatch; exact whole-ranking reconstruction
    is asserted by the pytest suite."""
    def stitched(s, k, terms):
        pages, cursor = [], None
        while page := s.search_after(terms, size=PAGE_SIZE, after=cursor):
            pages.extend(page)
            cursor = page[-1]
        return pages

    return _ranked(sf_dir, REFERENCE_QUERIES, stitched, cap=PAGED_K)


# more_like_this seed documents (original doc_ids; the corpus is
# 0..499 at every sf) and the number of tf·idf-selected query terms.
MLT_SEEDS = [3, 77, 154, 231, 308, 462]
MLT_TERMS = 5


def bm25_mlt_documents(sf_dir: str):
    """more_like_this (ES MLT analog): each seed document's text is
    re-analyzed with the index tokenizer, its top-{MLT_TERMS} terms by
    tf·idf (ties by term asc) become a disjunctive query, and the seed
    itself is excluded from the ranking.  Emitted as
    (query_id = seed original id, rank, doc_id) with the shared
    tie-break."""
    run = _Run(sf_dir)
    rev = {orig: eng for eng, orig in run.idmap.items()}
    seeds = pq.read_table(f"{sf_dir}/documents.parquet",
                          columns=["doc_id", "text"],
                          filters=[("doc_id", "in", MLT_SEEDS)])
    texts = dict(zip(seeds["doc_id"].to_pylist(),
                     seeds["text"].to_pylist()))
    return _table(run.rows(
        [(sid, texts[sid], rev[sid]) for sid in MLT_SEEDS],
        lambda s, k, text, eng: s.more_like_this(
            text, k=k, max_terms=MLT_TERMS, exclude_doc_ids=[eng])),
        "query_id rank doc_id")


def _bm25_mlt_sql() -> str:
    seeds = ", ".join(f"({sid})" for sid in MLT_SEEDS)
    # the seed's own row only ever scores the seed, so it is dropped
    # after scoring
    return _ranked_sql(q=f"""seeds(seed_id) AS (VALUES {seeds}),
q AS (
  SELECT seed_id AS query_id, term FROM (
    SELECT se.seed_id, tf.term,
           row_number() OVER (
             PARTITION BY se.seed_id
             ORDER BY tf.tf * ln(1 + (s.n_docs - df.df + 0.5)
                                     / (df.df + 0.5)) DESC,
                      tf.term) AS r
    FROM seeds se
    JOIN tf ON tf.doc_id = se.seed_id
    JOIN df ON df.term = tf.term
    CROSS JOIN stats s)
  WHERE r <= {MLT_TERMS})""",
                       restrict="\n      WHERE sc.doc_id <> sc.query_id")


# Filter-context query set: each reference query restricted to one
# `lang` value (the ES bool {must: match, filter: {term: lang}} shape
# the reference's ES backend serves).  df/idf/avgdl stay FULL-index —
# a filter restricts the result set, it never rescales scores.
# DERIVED from REFERENCE_QUERIES (lang cycle) so adding a reference
# query cannot leave the two constants out of lock-step.
_LANG_CYCLE = ["en", "zh", "es", "de", "fr"]
FILTER_LANGS: dict[int, str] = {
    qid: _LANG_CYCLE[i % len(_LANG_CYCLE)]
    for i, (qid, _) in enumerate(REFERENCE_QUERIES)}


def _allowed_ids_by_lang(root: str, langs: set[str]) -> dict[str, "object"]:
    """lang → sorted engine doc_id array, from ONE distributed pruned
    scan of the docs table (doc_id + lang columns only).  The driver
    collects ids-only rows for the requested langs (~8 B/doc — the
    id-set analog of an ES filter bitset; a roaring-bitmap carrier is
    the documented upgrade when filters match billions of docs)."""
    import ray.data

    files = _docs_files(root)
    value_set = pa.array(sorted(langs), pa.string())

    def pick(t: pa.Table) -> pa.Table:
        mask = pc.is_in(t["lang"], value_set=value_set)
        return t.filter(mask)

    ds = ray.data.read_parquet(files, columns=["doc_id", "lang"]) \
        .map_batches(pick, batch_format="pyarrow")
    by_lang: dict[str, list] = {lg: [] for lg in langs}
    for b in ds.iter_batches(batch_format="pyarrow"):
        for lg in langs:
            ids = b.filter(pc.equal(b["lang"], lg))["doc_id"] \
                .to_numpy(zero_copy_only=False)
            if len(ids):
                by_lang[lg].append(ids)
    return {lg: (np.sort(np.concatenate(chunks)) if chunks
                 else np.empty(0, np.int64))
            for lg, chunks in by_lang.items()}


def bm25_filtered_documents(sf_dir: str):
    """Filtered BM25 top-k: each reference query ranked only over
    documents whose `lang` matches its filter (FILTER_LANGS), scores
    identical to the unfiltered ranking (full-index idf/avgdl — the
    ES filter-context contract).  Emitted as (query_id, rank, doc_id)
    with original ids, ranked by (score desc, original id) like the
    other fulltext queries so the SQL oracle can mirror the
    tie-break."""
    root = _ensure_index(sf_dir)
    allowed = _allowed_ids_by_lang(root, set(FILTER_LANGS.values()))
    queries = [(qid, terms, allowed[FILTER_LANGS[qid]])
               for qid, terms in REFERENCE_QUERIES]
    return _ranked(sf_dir, queries, lambda s, k, terms, ids:
                   s.search_filtered(terms, k=k, allowed_doc_ids=ids))


def _bm25_filtered_sql() -> str:
    flts = ", ".join(f"({qid}, '{lang}')"
                     for qid, lang in FILTER_LANGS.items())
    return _ranked_sql(ctes=f"flt(query_id, lang) AS (VALUES {flts})",
                       joins="""
  JOIN flt ON flt.query_id = q.query_id
  JOIN documents doc ON doc.doc_id = tf.doc_id AND doc.lang = flt.lang""")


# docs holding any ``nq`` (must_not) term, and the tail filter that
# drops them — boolean and simple_query_string share both
_EXCL_CTE = """excl AS (SELECT DISTINCT nq.query_id, tf.doc_id
         FROM nq JOIN tf ON tf.term = nq.term)"""
_NOT_EXCLUDED = """
      WHERE NOT EXISTS (SELECT 1 FROM excl e
                        WHERE e.query_id = sc.query_id
                          AND e.doc_id = sc.doc_id)"""


# Boolean query set: (query_id, must terms, must_not terms).  must_not
# is filter-context (ES bool must_not): survivors keep their exact
# disjunctive scores.
BOOLEAN_QUERIES: list[tuple[int, list[str], list[str]]] = [
    (1, ["merge", "sort"], ["slow"]),
    (2, ["window"], ["spark"]),
    (3, ["customer", "join", "fast"], ["stream"]),
    (4, ["spark", "stream"], ["vector", "hash"]),
    (5, ["the", "slow"], ["merge"]),
    (6, ["vector", "hash", "scan", "batch"], ["customer"]),
]


def bm25_boolean_documents(sf_dir: str):
    """Boolean must/must_not top-k (ES bool {should, must_not}):
    disjunctive ranking over the must terms, docs containing ANY
    must_not term removed, survivor scores identical to the
    unfiltered ranking.  Emitted as (query_id, rank, doc_id) with
    original ids, tie-broken by (score desc, original id) like the
    other fulltext queries."""
    return _ranked(sf_dir, BOOLEAN_QUERIES, lambda s, k, must, must_not:
                   s.search_boolean(must, must_not, k=k))


def _bm25_boolean_sql() -> str:
    nvalues = ", ".join(f"({qid}, '{t}')"
                        for qid, _, must_not in BOOLEAN_QUERIES
                        for t in sorted(set(must_not)))
    # an all-empty must_not set would interpolate 'VALUES )' — invalid
    # SQL that fails the whole oracle suite with a parse error; fail
    # here with a message that names the actual editing mistake
    assert nvalues, ("BOOLEAN_QUERIES must contain at least one "
                     "must_not term (else use bm25_topk_documents)")
    return _ranked_sql(
        [(qid, must) for qid, must, _ in BOOLEAN_QUERIES],
        ctes=f"""nq(query_id, term) AS (VALUES {nvalues}),
{_EXCL_CTE}""", restrict=_NOT_EXCLUDED)


class _BroadcastStage:
    """Shared base of the query-context actor stages (_FacetCounter,
    _SortByField, _RangeAgg, _StatsAgg, _GroupTopHits): dereferences
    the per-query broadcast ONCE per actor (a ray.put ref, or the plain dict in
    direct/test use) into ``self.sets``, and centralizes the
    sorted-membership probe — previously each stage hand-rolled the
    searchsorted/clamp/compare idiom."""

    def __init__(self, ref):
        import ray
        self.sets = ray.get(ref) \
            if isinstance(ref, ray.ObjectRef) else ref

    @staticmethod
    def _probe(ids, sorted_ids):
        """(clamped positions, membership mask) — mee_ray.ids rule."""
        from mee_ray.ids import positions_in_sorted
        return positions_in_sorted(ids, sorted_ids)


def _broadcast_scan(files, columns: list[str], stage, payload, *args):
    """read → stage → collect, the one plumbing of the query-context
    scans: ``columns`` of ``files`` stream through an actor pool of
    ``stage``, built with the ``payload`` broadcast ONCE via ray.put
    (deserialized per actor, not per batch) plus ``args``; yields the
    stage's bounded per-batch partials for a tiny driver merge."""
    import ray
    import ray.data

    from mee_ray.stages import actor_pool
    return (ray.data.read_parquet(files, columns=columns)
            .map_batches(stage, fn_constructor_args=[ray.put(payload), *args],
                         batch_format="pyarrow", **actor_pool(4))
            .iter_batches(batch_format="pyarrow"))


class _FacetCounter(_BroadcastStage):
    """Actor-pool facet stage: holds the per-query matched-id arrays
    (broadcast ONCE via ray.put — deserialized per actor, not per
    batch) and emits per-batch partial counts (query_id, lang, n) —
    bounded transport: ≤ queries × langs rows per batch, like the
    sketch combiners.  It keeps ONLY arrow value sets — holding the
    numpy dict too would double the actor's resident copy of the
    broadcast."""

    def __init__(self, matched_ref):
        super().__init__(matched_ref)
        self.sets = {qid: pa.array(ids, pa.int64())
                     for qid, ids in self.sets.items()}

    def __call__(self, t: pa.Table) -> pa.Table:
        rows = []
        for qid, vs in self.sets.items():
            if len(vs) == 0:
                continue
            hit = t.filter(pc.is_in(t["doc_id"], value_set=vs))
            if hit.num_rows == 0:
                continue
            rows += [(qid, item["values"].as_py(), item["counts"].as_py())
                     for item in pc.value_counts(hit["lang"])]
        return _table(rows, "query_id lang:str n")


def bm25_facet_counts(sf_dir: str):
    """Facet aggregation (the ES terms-aggregation-in-query-context
    analog): for each reference query, count matching documents (ANY
    query term, live postings) per `lang`.  The matched-id sets come
    from the index (posting unions — bounded by the query terms' df);
    the counting pass is a distributed pruned docs-table scan with the
    matched sets broadcast once, per-batch partial counts, and a tiny
    driver merge — the docs table itself never concentrates
    anywhere."""
    run = _Run(sf_dir)
    matched = {qid: run.s.matched_doc_ids(terms)
               for qid, terms in REFERENCE_QUERIES}
    acc: dict[tuple[int, str], int] = {}
    for b in _broadcast_scan(_docs_files(run.root), ["doc_id", "lang"],
                             _FacetCounter, matched):
        for qid, lang, n in zip(b["query_id"].to_pylist(),
                                b["lang"].to_pylist(),
                                b["n"].to_pylist()):
            acc[(qid, lang)] = acc.get((qid, lang), 0) + n
    return _table([(*key, acc[key]) for key in sorted(acc)],
                  "query_id lang:str n_docs")


# docs matching ANY reference query term, per query — the facet /
# constant_score / sort / range / stats oracles all start here
_MATCHED_SQL = _sql_head() + """,
matched AS (SELECT DISTINCT q.query_id, tok.doc_id
            FROM q JOIN tok ON tok.term = q.term)"""


def _bm25_facets_sql() -> str:
    return f"""{_MATCHED_SQL}
SELECT m.query_id, d.lang, count(*) AS n_docs
FROM matched m JOIN documents d ON d.doc_id = m.doc_id
GROUP BY m.query_id, d.lang
"""


# Prefix / fuzzy query sets: expansion against the index term
# dictionary (Searcher.vocabulary), scored disjunctively with each
# expanded term's own df/idf — the ES wildcard / fuzziness analogs.
PREFIX_QUERIES: list[tuple[int, str]] = [
    (1, "mer"), (2, "win"), (3, "cus"), (4, "s"), (5, "ta"), (6, "vec"),
]
FUZZY_QUERIES: list[tuple[int, str]] = [
    (1, "mergd"), (2, "windoe"), (3, "custoner"),
    (4, "sparc"), (5, "slaw"), (6, "vectr"),
]


SUGGEST_N = 5


def term_suggest_documents(sf_dir: str):
    """Term suggester (ES "did you mean"): for each misspelled
    FUZZY_QUERIES input, the top-{SUGGEST_N} dictionary terms within
    edit distance 1 ranked by df desc (most common close spelling
    first), ties by term asc.  Emitted as
    (query_id, rank, term, df)."""
    return _term_list(sf_dir, FUZZY_QUERIES,
                      lambda s, term: s.suggest(term, n=SUGGEST_N))


def _term_list(sf_dir: str, queries, call) -> pa.Table:
    """(query_id, rank, term, df) rows of the (df, term) lists the
    dictionary-only ``call(s, arg)`` returns per ``(qid, arg)``."""
    s = _Run(sf_dir).s
    return _table([(qid, rank, t, df) for qid, arg in queries
                   for rank, (df, t) in enumerate(call(s, arg), start=1)],
                  "query_id rank term:str df")


def _fuzzy_q_values() -> str:
    return ", ".join(f"({qid}, '{t}')" for qid, t in FUZZY_QUERIES)


def _term_list_sql(q: str, match: str, n: int) -> str:
    """The suggester oracle: per query the top-``n`` dictionary terms
    satisfying ``match`` (over ``df`` and ``q``), by df desc, term."""
    return f"""{_sql_head(q=q)},
cand AS (
  SELECT q.query_id, df.term, df.df
  FROM q JOIN df ON {match})
SELECT query_id, rank, term, df
FROM (SELECT query_id, term, df,
             row_number() OVER (PARTITION BY query_id
                                ORDER BY df DESC, term) AS rank
      FROM cand)
WHERE rank <= {n}
"""


def _term_suggest_sql() -> str:
    return _term_list_sql(
        f"q(query_id, term) AS (VALUES {_fuzzy_q_values()})",
        "levenshtein(df.term, q.term) <= 1 AND df.term <> q.term",
        SUGGEST_N)


def bm25_prefix_documents(sf_dir: str):
    """Prefix-expanded BM25 top-k (ES wildcard `pre*`): dictionary
    terms starting with each query's prefix, scored as an OR query
    over the expansion.  Emitted as (query_id, rank, doc_id) with the
    shared (score desc, original id) tie-break."""
    return _ranked(sf_dir, PREFIX_QUERIES, lambda s, k, prefix:
                   s.search_prefix(prefix, k=k))


def _expansion_sql(q0: str, pred: str) -> str:
    """Shared oracle shape for dictionary-expansion queries (prefix /
    fuzzy / wildcard / regexp): the query CTE ``q0`` (query_id, pat)
    expands to every dictionary term satisfying ``pred`` (over df.term
    and q0.pat); scoring/rank/tie-break are ONE definition so they
    cannot drift apart."""
    return _ranked_sql(q=f"""q0(query_id, pat) AS (VALUES {q0}),
q AS (SELECT q0.query_id, df.term FROM q0 JOIN df ON {pred})""")


def _bm25_prefix_sql() -> str:
    return _expansion_sql(
        ", ".join(f"({qid}, '{p}')" for qid, p in PREFIX_QUERIES),
        "df.term LIKE q0.pat || '%'")


def bm25_match_bool_prefix_documents(sf_dir: str):
    """ES ``match_bool_prefix``: the query's full terms are term
    clauses and a trailing partial token is a prefix clause, all
    OR-combined — the as-you-type search shape.  The prefix expands
    against the live dictionary; expansion terms and full terms
    dedup as a SET (a doc scores each distinct term once), so a
    survivor's score equals the plain OR query over the unioned term
    set."""
    from mee_ray.query import prefix_terms
    prefixes = dict(PREFIX_QUERIES)
    queries = [(qid, terms, prefixes[qid]) for qid, terms in REFERENCE_QUERIES]
    return _ranked(sf_dir, queries, lambda s, k, terms, prefix: _text_search(
        s, k, sorted(set(terms) | set(prefix_terms(s.vocabulary(), prefix)))))


def _bm25_match_bool_prefix_sql() -> str:
    pvals = ", ".join(f"({qid}, '{p}')" for qid, p in PREFIX_QUERIES)
    return _ranked_sql(q=f"""\
q0(query_id, term) AS (VALUES {_q_values(REFERENCE_QUERIES)}),
qp(query_id, prefix) AS (VALUES {pvals}),
q AS (SELECT query_id, term FROM q0
      UNION
      SELECT qp.query_id, df.term FROM qp
      JOIN df ON df.term LIKE qp.prefix || '%')""")


def bm25_fuzzy_documents(sf_dir: str):
    """Fuzzy BM25 top-k (ES match with fuzziness=1): dictionary terms
    within plain Levenshtein distance 1 of each (intentionally
    misspelled) query term, scored as an OR query over the expansion.
    The engine's banded-DP metric and the oracle's levenshtein() are
    the same plain unit-cost distance — no transpositions."""
    return _ranked(sf_dir, FUZZY_QUERIES, lambda s, k, term:
                   s.search_fuzzy(term, k=k))


def _bm25_fuzzy_sql() -> str:
    return _expansion_sql(_fuzzy_q_values(),
                          "levenshtein(df.term, q0.pat) <= 1")


class _SearchStage:
    """Actor-pool search stage: a Searcher built ONCE per actor
    (dictionary + LRU live across batches), queries stream through as
    rows — the search-as-batch-operator shape used to score millions
    of queries against an index (hard-negative mining, relevance
    labeling) where per-query driver calls would never scale."""

    def __init__(self, index_root: str, k: int):
        from mee_ray.query import Searcher
        self.s = Searcher(index_root)
        self.k = k

    def __call__(self, t: pa.Table) -> pa.Table:
        return _table([(qid, eng_id, score)
                       for qid, terms in zip(t["query_id"].to_pylist(),
                                             t["terms"].to_pylist())
                       for eng_id, score in self.s.search(list(terms),
                                                          self.k)],
                      "query_id eng_id score:f64")


def bm25_batch_rank_documents(sf_dir: str):
    """Queries-as-data: the reference query set streamed as a Ray
    Dataset through a Searcher actor pool (map_batches, per-actor
    index state), results re-ranked to original ids.  Result-identical
    to bm25_topk_documents — same oracle — but through the batch
    plumbing that scales to millions of queries."""
    import ray.data

    from mee_ray.stages import actor_pool
    root = _ensure_index(sf_dir)
    n_docs = mf.live_stats(mf.load_manifest(root))[0] or 1
    qt = pa.table({
        "query_id": pa.array([qid for qid, _ in REFERENCE_QUERIES],
                             pa.int64()),
        "terms": pa.array([sorted(set(ts))
                           for _, ts in REFERENCE_QUERIES],
                          pa.list_(pa.string()))})
    rows = pa.concat_tables(list(
        ray.data.from_arrow(qt)
        .map_batches(_SearchStage, fn_constructor_args=[root, n_docs],
                     batch_format="pyarrow", **actor_pool(2))
        .iter_batches(batch_format="pyarrow")))
    results = {}
    for qid, e, sc in zip(rows["query_id"].to_pylist(),
                          rows["eng_id"].to_pylist(),
                          rows["score"].to_pylist()):
        results.setdefault(qid, []).append((e, sc))
    return _table(_rank_rows(sorted(results.items()), _orig_id_map(root),
                             TOP_K), "query_id rank doc_id")


# ES boosting query: positive disjunctive ranking, docs matching any
# negative term keep their score DEMOTED by negative_boost (they stay
# in the results — unlike must_not, which drops them).
NEGATIVE_BOOST = 0.5
BOOSTING_QUERIES: list[tuple[int, list[str], list[str]]] = [
    (1, ["merge", "sort"], ["slow"]),
    (2, ["window"], ["batch"]),
    (3, ["customer", "join"], ["dup", "slow"]),
    (4, ["stream", "spark"], ["the"]),
]


def bm25_boosting_documents(sf_dir: str):
    """Boosting query (ES ``boosting``): rank by the positive terms;
    a doc matching ANY negative term keeps score × NEGATIVE_BOOST
    (0.5 — demotion, not exclusion, the counterpart of must_not).
    Both sides multiply the SAME base score by the same power-of-two
    constant, so ordering stays well-defined.  Emitted as
    (query_id, rank, doc_id)."""
    def demoted(s, k, pos, neg):
        neg_ids = set(s.excluded_doc_ids(neg).tolist())
        return [(d, sc * NEGATIVE_BOOST if d in neg_ids else sc)
                for d, sc in s.search(pos, k=k)]

    return _ranked(sf_dir, BOOSTING_QUERIES, demoted)


def _bm25_boosting_sql() -> str:
    neg_values = ", ".join(f"({qid}, '{t}')"
                           for qid, _, neg in BOOSTING_QUERIES
                           for t in sorted(set(neg)))
    return _ranked_sql(
        [(qid, pos) for qid, pos, _ in BOOSTING_QUERIES],
        ctes=f"nq(query_id, term) AS (VALUES {neg_values})",
        source="demoted", post=f"""demoted AS (
  SELECT sc.query_id, sc.doc_id,
         CASE WHEN EXISTS (SELECT 1 FROM nq JOIN tf t2
                           ON t2.term = nq.term
                           WHERE nq.query_id = sc.query_id
                             AND t2.doc_id = sc.doc_id)
              THEN sc.score * {NEGATIVE_BOOST} ELSE sc.score END
           AS score
  FROM scores sc)""")


def bm25_constant_score_documents(sf_dir: str):
    """Constant-score query (ES ``constant_score``): every doc
    matching ANY query term gets the SAME score (the filter-context
    degenerate) — output is the matched-id set ranked by doc_id, the
    ordering ES falls back to when scores tie.  Emitted as
    (query_id, rank, doc_id)."""
    return _ranked(sf_dir, REFERENCE_QUERIES, lambda s, k, terms:
                   [(int(d), 0.0) for d in s.matched_doc_ids(terms)])


def _bm25_constant_score_sql() -> str:
    return f"""{_MATCHED_SQL}
{_top_sql("(SELECT *, 0.0 AS score FROM matched)")}
"""


COMPLETE_N = 5


def completion_suggest_documents(sf_dir: str):
    """Completion suggester (ES completion / prefix autocomplete):
    for each PREFIX_QUERIES prefix, the top-{COMPLETE_N} dictionary
    terms starting with it, ranked by live df desc then term asc —
    the prefix run is a binary-searched slice of the sorted resident
    dictionary, df is a dictionary-only lookup (no posting decode
    unless tombstones are pending).  Emitted as
    (query_id, rank, term, df)."""
    return _term_list(sf_dir, PREFIX_QUERIES,
                      lambda s, prefix: s.complete(prefix, COMPLETE_N))


def _completion_sql() -> str:
    values = ", ".join(f"({qid}, '{p}')" for qid, p in PREFIX_QUERIES)
    return _term_list_sql(f"q(query_id, prefix) AS (VALUES {values})",
                          "df.term LIKE q.prefix || '%'", COMPLETE_N)


def bm25_corrected_documents(sf_dir: str):
    """Spell-corrected search (the suggest-then-retry UX pattern over
    the ES term suggester): each FUZZY_QUERIES term is misspelled
    (df = 0); replace it with its BEST suggestion (max live df within
    edit distance 1, ties by term asc) and rank normally.  A term
    with no suggestion contributes nothing (empty result for that
    query).  Emitted as (query_id, rank, doc_id)."""
    def corrected(s, k, term):
        sug = s.suggest(term, n=1)
        return s.search([sug[0][1]], k=k) if sug else []

    return _ranked(sf_dir, FUZZY_QUERIES, corrected)


def _bm25_corrected_sql() -> str:
    return _ranked_sql(q=f"""\
q0(query_id, term) AS (VALUES {_fuzzy_q_values()}),
q AS (
  SELECT query_id, term FROM (
    SELECT q0.query_id, df.term,
           row_number() OVER (PARTITION BY q0.query_id
                              ORDER BY df.df DESC, df.term) AS rn
    FROM q0 JOIN df ON levenshtein(df.term, q0.term) <= 1
                   AND df.term <> q0.term)
  WHERE rn = 1)""")


# Query-time synonym expansion (the ES search-time synonym_graph
# analog): each query term expands to itself + its synonym row; every
# expanded term keeps its OWN df/idf (ES expand=true semantics).
SYNONYMS: dict[str, list[str]] = {
    "merge": ["join"],
    "row": ["line"],
    "fast": ["quick"],       # absent from the corpus on purpose —
                             # a synonym with no postings must be a no-op
    "window": ["frame"],     # ditto
    "customer": ["client"],  # ditto
}


def _expand_synonyms(terms: list[str]) -> list[str]:
    out = set()
    for t in terms:
        out.add(t)
        out.update(SYNONYMS.get(t, ()))
    return sorted(out)


def bm25_synonym_documents(sf_dir: str):
    """Synonym-expanded BM25 top-k: REFERENCE_QUERIES with each term
    OR-expanded through the SYNONYMS table before the standard
    disjunctive ranking.  Emitted as (query_id, rank, doc_id)."""
    return _ranked(sf_dir, REFERENCE_QUERIES, lambda s, k, terms:
                   s.search(_expand_synonyms(terms), k=k))


def _bm25_synonym_sql() -> str:
    return _ranked_sql([(qid, _expand_synonyms(terms))
                        for qid, terms in REFERENCE_QUERIES])


class _GroupTopHitsStage(_BroadcastStage):
    """Actor-pool per-(query, lang) top-``k`` stage: holds the
    per-query (sorted engine ids, scores) arrays (broadcast ONCE) and
    emits per-batch best-k-per-group partials by (score desc, orig id
    asc) — bounded transport: ≤ queries × langs × k rows per batch
    (the _FacetCounter discipline).  ``k=1`` is field collapsing; the
    top_hits aggregation uses k={TOP_HITS_PER_GROUP}."""

    def __init__(self, scores_ref, k: int = 1):
        super().__init__(scores_ref)
        self.k = int(k)

    def __call__(self, t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        langs = np.asarray(t["lang"].to_pylist(), dtype=object)
        orig = np.array([_orig_id(p) for p in t["path"].to_pylist()],
                        dtype=np.int64)
        rows = []
        for qid, (sid, ssc) in self.sets.items():
            safe, valid = self._probe(ids, sid)
            if not valid.any():
                continue
            sc, lg, og = ssc[safe[valid]], langs[valid], orig[valid]
            for lang in np.unique(lg):
                m = lg == lang
                rows += [(qid, str(lang), float(sc[m][j]), int(og[m][j]))
                         for j in np.lexsort((og[m], -sc[m]))[:self.k]]
        return _table(rows, "query_id lang:str score:f64 orig_id")


def bm25_collapse_documents(sf_dir: str):
    """Field collapsing (ES ``collapse`` on ``lang``): for each query,
    the single best-scoring live hit per lang, langs ranked by their
    best hit's (score desc, doc_id).  Scores come from the index
    (full-depth ranking); the lang resolution pass is a distributed
    pruned docs-table scan with the score arrays broadcast once and
    per-batch best-per-group partials — a tiny driver merge, never a
    docs-table concentration.  Emitted as
    (query_id, rank, lang, doc_id)."""
    best = _group_top_hits(sf_dir, 1)
    rows = []
    for qid in sorted({q for q, _ in best}):
        hits = sorted((*best[(q, lang)][0], lang)
                      for q, lang in best if q == qid)
        rows += [(qid, rank, lang, og)
                 for rank, (_, og, lang) in enumerate(hits, start=1)]
    return _table(rows, "query_id rank lang:str doc_id")


def _group_top_hits(sf_dir: str, k: int) -> dict[tuple[int, str], list]:
    """(query_id, lang) → its best ``k`` hits as sorted (-score,
    original id) pairs: the full-depth ranking broadcast to a
    :class:`_GroupTopHitsStage` scan of the docs table, per-batch
    partials merged on the driver."""
    run = _Run(sf_dir)
    qs: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for qid, ranked in run.results(REFERENCE_QUERIES, _text_search):
        ids = np.array([d for d, _ in ranked], dtype=np.int64)
        sc = np.array([x for _, x in ranked], dtype=np.float64)
        order = np.argsort(ids)
        qs[qid] = (ids[order], sc[order])
    best: dict[tuple[int, str], list[tuple[float, int]]] = {}
    for b in _broadcast_scan(_docs_files(run.root),
                             ["doc_id", "lang", "path"],
                             _GroupTopHitsStage, qs, k):
        for qid, lang, sc, og in zip(b["query_id"].to_pylist(),
                                     b["lang"].to_pylist(),
                                     b["score"].to_pylist(),
                                     b["orig_id"].to_pylist()):
            lst = best.setdefault((qid, lang), [])
            lst.append((-sc, og))
            lst.sort()
            del lst[k:]
    return best


# a best-per-(query, lang) ranking: the collapse and top_hits oracles
_GROUP_RANKED_SQL = _ranked_sql(tail="", post="""\
js AS (SELECT sc.query_id, sc.doc_id, sc.score, d.lang
       FROM scores sc JOIN documents d ON d.doc_id = sc.doc_id),
ranked AS (
  SELECT query_id, lang, doc_id, score,
         row_number() OVER (PARTITION BY query_id, lang
                            ORDER BY score DESC, doc_id) AS hit_rank
  FROM js)""")


def _bm25_collapse_sql() -> str:
    return f"""{_GROUP_RANKED_SQL}SELECT query_id,
       row_number() OVER (PARTITION BY query_id
                          ORDER BY score DESC, doc_id) AS rank,
       lang, doc_id
FROM ranked WHERE hit_rank = 1
"""


# ES multi_match most_fields: title^2 + body, where "title" is the
# deterministic first-TITLE_LEN-token prefix of each document (both
# sides derive it with the same tokenizer expression).  Each field is
# its OWN index with its own dl/avgdl/df statistics — most_fields
# semantics sum the per-field BM25 scores.
TITLE_LEN = 6
TITLE_WEIGHT = 2.0


def _ensure_field_index(sf_dir: str, suffix: str, field) -> str:
    """Build (or reuse) a field index: same corpus identity
    (repo/path/commit ⇒ identical engine doc_ids as the body index),
    content replaced by ``field(tokens)`` of each document's tokens."""
    import re
    root = _index_root(sf_dir) + suffix
    if mf.current_epoch(root) is None:
        rx = re.compile(TOKEN_PATTERN)

        def to_field(t: pa.Table) -> pa.Table:
            out = [field(rx.findall(x.lower()))
                   for x in t["content"].to_pylist()]
            return t.set_column(t.schema.get_field_index("content"),
                                "content", pa.array(out, pa.string()))

        corpus = documents_as_corpus(sf_dir).map_batches(
            to_field, batch_format="pyarrow")
        build_index(corpus, root, "ep1",
                    EngineConfig(tokenizer=TokenizerConfig.simple()),
                    dedup=False)
    return root


def _ensure_title_index(sf_dir: str) -> str:
    """Second field index: content truncated to the first {TITLE_LEN}
    tokens."""
    return _ensure_field_index(sf_dir, "_title",
                               lambda toks: " ".join(toks[:TITLE_LEN]))


def bm25_multifield_documents(sf_dir: str):
    """Multi-field search (ES multi_match most_fields, title^2 body):
    combined = {TITLE_WEIGHT}·bm25_title + bm25_body, each field
    scored full-depth against its own index (own df/dl/avgdl).  Both
    per-field scores are bit-identical to the SQL CTEs, and the
    weighted sum performs the identical float64 ops, so the ordering
    is well-defined.  Emitted as (query_id, rank, doc_id)."""
    title = _Run(sf_dir, _ensure_title_index(sf_dir))

    def most_fields(s, k, terms):
        comb = dict(_text_search(s, k, terms))
        for d, sc in _text_search(title.s, title.k, terms):
            comb[d] = comb.get(d, 0.0) + TITLE_WEIGHT * sc
        return list(comb.items())

    return _ranked(sf_dir, REFERENCE_QUERIES, most_fields)


# the title field's tokens/dl/stats/tf/df CTEs, over _base_ctes' tokl
_TITLE_CTES = f"""ttok AS (
  SELECT doc_id, unnest(list_slice(ts, 1, {TITLE_LEN})) AS term FROM tokl),
tdl AS (SELECT doc_id, count(*) AS dl FROM ttok GROUP BY doc_id),
tstats AS (SELECT (SELECT count(*) FROM documents) AS n_docs,
                  (SELECT count(*) FROM ttok) AS total_tokens),
ttf AS (SELECT doc_id, term, count(*) AS tf FROM ttok
        GROUP BY doc_id, term),
tdf AS (SELECT term, count(*) AS df FROM ttf GROUP BY term)"""


def _bm25_multifield_sql() -> str:
    tscores = _scores_cte(name="tscores",
                          tables=("ttf", "tdf", "tdl", "tstats"))
    return _ranked_sql(ctes=_TITLE_CTES, name="bscores", source="comb",
                       post=f"""{tscores},
comb AS (
  SELECT coalesce(b.query_id, t.query_id) AS query_id,
         coalesce(b.doc_id, t.doc_id) AS doc_id,
         coalesce(b.score, 0) + {TITLE_WEIGHT} * coalesce(t.score, 0)
           AS score
  FROM bscores b
  FULL OUTER JOIN tscores t
    ON t.query_id = b.query_id AND t.doc_id = b.doc_id)""")


def bm25_cross_fields_documents(sf_dir: str):
    """Multi-field search, blended mode (ES multi_match
    ``cross_fields``): title and body are matched as if they were ONE
    field — per term the df blends as max(df_title, df_body) giving a
    single idf, a doc's tf-norm for the term is its BEST per-field
    tf-norm, and the score is Σ_terms blended_idf × best_tfn
    (sorted-term accumulation).  Unlike most_fields (which rewards a
    doc for matching the same term in many fields), cross_fields
    rewards covering MANY terms across any fields — the ES contract
    for name-like queries split over columns."""
    from mee_ray.postings import tf_norm
    from mee_ray.query import term_hash
    from mee_ray.scoring import idf
    st_ = _Run(sf_dir, _ensure_title_index(sf_dir)).s

    def cross_fields(sb, k, terms):
        acc: dict[int, float] = {}
        for t in sorted(set(terms)):
            ids_b, tfs_b, dls_b = sb._live_postings(
                term_hash(t) % sb.num_shards, t)
            ids_t, tfs_t, dls_t = st_._live_postings(
                term_hash(t) % st_.num_shards, t)
            if len(ids_b) == 0 and len(ids_t) == 0:
                continue
            w = idf(max(len(ids_b), len(ids_t)), sb.n_docs)
            parts_i, parts_v = [], []
            if len(ids_b):
                parts_i.append(ids_b)
                parts_v.append(tf_norm(tfs_b, dls_b, sb.avgdl,
                                       sb.k1, sb.b))
            if len(ids_t):
                parts_i.append(ids_t)
                parts_v.append(tf_norm(tfs_t, dls_t, st_.avgdl,
                                       st_.k1, st_.b))
            all_ids = np.concatenate(parts_i)
            all_tfn = np.concatenate(parts_v)
            order = np.lexsort((-all_tfn, all_ids))
            ids_s, tfn_s = all_ids[order], all_tfn[order]
            first = np.ones(len(ids_s), dtype=bool)
            first[1:] = ids_s[1:] != ids_s[:-1]
            for d, v in zip(ids_s[first].tolist(),
                            (w * tfn_s[first]).tolist()):
                acc[d] = acc.get(d, 0.0) + v
        return list(acc.items())

    return _ranked(sf_dir, REFERENCE_QUERIES, cross_fields)


def _bm25_cross_fields_sql() -> str:
    return f"""{_sql_head()},
{_TITLE_CTES},
bnorm AS (
  SELECT q.query_id, q.term, tf.doc_id, {_TFN_EXPR} AS tfn
  FROM q JOIN tf ON tf.term = q.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s),
tnorm AS (
  SELECT q.query_id, q.term, tf.doc_id, {_TFN_EXPR} AS tfn
  FROM q JOIN ttf tf ON tf.term = q.term
  JOIN tdl dl ON dl.doc_id = tf.doc_id
  CROSS JOIN tstats s),
blended_df AS (
  SELECT q.query_id, q.term,
         greatest(coalesce(bdf.df, 0), coalesce(tdf2.df, 0)) AS df
  FROM q
  LEFT JOIN df bdf ON bdf.term = q.term
  LEFT JOIN tdf tdf2 ON tdf2.term = q.term),
best AS (
  SELECT query_id, term, doc_id, max(tfn) AS tfn
  FROM (SELECT * FROM bnorm UNION ALL SELECT * FROM tnorm)
  GROUP BY query_id, term, doc_id),
scores AS (
  SELECT best.query_id, best.doc_id,
         sum(ln(1 + (s.n_docs - bd.df + 0.5) / (bd.df + 0.5))
             * best.tfn) AS score
  FROM best
  JOIN blended_df bd ON bd.query_id = best.query_id
                    AND bd.term = best.term
  CROSS JOIN stats s
  WHERE bd.df > 0
  GROUP BY best.query_id, best.doc_id)
{_top_sql()}
"""


def _ensure_combined_index(sf_dir: str) -> str:
    """Third field index: the BM25F *combined pseudo-field* (Lucene
    CombinedFieldQuery's model) for fields body^1 + title^{int(TITLE_WEIGHT)}
    — the pseudo-document is the body followed by the title repeated
    TITLE_WEIGHT times, so a STANDARD BM25 index over it yields exactly
    tf_c = tf_body + w·tf_title, dl_c = dl_body + w·dl_title, one
    blended df/idf and one combined avgdl.  Same corpus identity
    (repo/path/commit) as the body/title indexes."""
    w = int(TITLE_WEIGHT)
    return _ensure_field_index(sf_dir, "_combined", lambda toks: (
        " ".join(toks) + (" " + " ".join(toks[:TITLE_LEN])) * w
        if toks else ""))


def bm25_combined_fields_documents(sf_dir: str):
    """ES ``combined_fields`` query (Lucene CombinedFieldQuery /
    simplified BM25F): unlike most_fields (per-field BM25 summed,
    bm25_multifield) or cross_fields (per-term best-field tf-norm under
    a blended idf), combined_fields scores ONE pseudo-field whose term
    statistics merge the fields up front — tf and dl are
    weight-summed, idf and avgdl come from the merged field.  Realized
    here as a real engine index over the pseudo-field (body + title
    repeated {int(TITLE_WEIGHT)}×), so the full distributed path
    (build → segments → WAND search) serves it; no new scoring kernel
    is needed because the pseudo-field construction IS the BM25F
    transform.  Emitted as (query_id, rank, doc_id), shared tie-break."""
    return _ranked(sf_dir, REFERENCE_QUERIES, _text_search,
                   root=_ensure_combined_index(sf_dir))


def _bm25_combined_fields_sql() -> str:
    # the combined pseudo-field in SQL: cts = ts || title || title
    title_rep = " || ".join([f"list_slice({_TOKENS}, 1, {TITLE_LEN})"]
                            * int(TITLE_WEIGHT))
    return _ranked_sql(base=_base_ctes(tokens=f"{_TOKENS} || {title_rep}"))


# ES rescore: re-rank only the top-RESCORE_WINDOW of the base
# (disjunctive) ranking with a secondary query — here an all-terms
# match bonus.  The bonus multiplies the doc's OWN base score
# (final = score + w·score for all-terms docs), so both sides perform
# the identical float64 ops and stay bit-comparable.
RESCORE_WINDOW = 30
RESCORE_WEIGHT = 0.5


def bm25_rescore_documents(sf_dir: str):
    """Rescore query (ES ``rescore`` with ``window_size``): rank by
    disjunctive BM25, then within the top-{RESCORE_WINDOW} window add
    a conjunctive (matches-every-term) bonus of
    {RESCORE_WEIGHT}×score; docs outside the window can never enter
    the final top-k (window > k), exactly the ES contract.  Emitted
    as (query_id, rank, doc_id)."""
    from mee_ray.ids import term_hash
    run = _Run(sf_dir)

    def rescored(s, k, terms):
        win = sorted(_text_search(s, k, terms),
                     key=lambda r: (-r[1], run.idmap[r[0]]))[:RESCORE_WINDOW]
        eng = np.array([d for d, _ in win], dtype=np.int64)
        # all-terms membership for the ≤window docs only: per-term
        # posting-id isin (postings are already in the decode LRU from
        # the ranking pass) — never a full-corpus AND materialization
        matched_all = np.ones(len(win), dtype=bool)
        for t_ in sorted(set(terms)):
            sh = term_hash(t_) % s.num_shards
            t_ids = (s._live_postings(sh, t_)[0] if s.owns(sh)
                     else np.empty(0, np.int64))
            matched_all &= np.isin(eng, t_ids)
        return [(d, sc + (RESCORE_WEIGHT * sc if m else 0.0))
                for (d, sc), m in zip(win, matched_all)]

    return _table(run.rows(REFERENCE_QUERIES, rescored),
                  "query_id rank doc_id")


# per query its term count (qn.n_terms) and per scored doc how many of
# them it holds (n_matched): the all-terms test of conj / rescore /
# rank_eval
_N_MATCHED = dict(
    ctes="qn AS (SELECT query_id, count(*) AS n_terms FROM q "
         "GROUP BY query_id)",
    select=",\n         count(DISTINCT q.term) AS n_matched")


def _bm25_rescore_sql() -> str:
    return _ranked_sql(**_N_MATCHED, source="resc", post=f"""win AS (
  SELECT sc.query_id, sc.doc_id, sc.score, sc.n_matched, qn.n_terms,
         row_number() OVER (PARTITION BY sc.query_id
                            ORDER BY sc.score DESC, sc.doc_id) AS rn
  FROM scores sc JOIN qn ON qn.query_id = sc.query_id),
resc AS (
  SELECT query_id, doc_id,
         score + CASE WHEN n_matched = n_terms
                      THEN {RESCORE_WEIGHT} * score ELSE 0 END AS score
  FROM win WHERE rn <= {RESCORE_WINDOW})""")


# ES wildcard (`*` any run / `?` one char) and regexp queries; the
# regexp set stays inside the RE2 ∩ Python-re common subset so the
# engine (re.fullmatch over the dictionary) and the oracle
# (regexp_full_match over df.term) apply the SAME language.
WILDCARD_QUERIES: list[tuple[int, str]] = [
    (1, "s*"), (2, "b?g"), (3, "c*er"), (4, "*ow"), (5, "*a*"),
    (6, "qu?ry"),
]
REGEXP_QUERIES: list[tuple[int, str]] = [
    (1, "(join|merge|sort)"), (2, "b(ig|atch)"), (3, "[a-f].*"),
    (4, "gr.up"), (5, ".*(ow|ey)"), (6, "va[l]?ue"),
]


def bm25_wildcard_documents(sf_dir: str):
    """Wildcard-expanded BM25 top-k (ES ``wildcard`` query):
    dictionary terms matching each ``*``/``?`` pattern, scored as an
    OR query over the expansion (reference query semantics:
    modules/query parity via commonhandler-style term expansion).
    Emitted as (query_id, rank, doc_id)."""
    return _ranked(sf_dir, WILDCARD_QUERIES, lambda s, k, pat:
                   s.search_wildcard(pat, k=k))


def _bm25_wildcard_sql() -> str:
    from mee_ray.query import wildcard_regex
    return _expansion_sql(", ".join(f"({qid}, '{wildcard_regex(p)}')"
                                    for qid, p in WILDCARD_QUERIES),
                          "regexp_full_match(df.term, q0.pat)")


def bm25_regexp_documents(sf_dir: str):
    """Regexp-expanded BM25 top-k (ES ``regexp`` query, implicitly
    anchored full-match): dictionary terms fully matching each
    pattern, scored as an OR query over the expansion."""
    return _ranked(sf_dir, REGEXP_QUERIES, lambda s, k, pat:
                   s.search_regexp(pat, k=k))


def _bm25_regexp_sql() -> str:
    return _expansion_sql(", ".join(f"({qid}, '{p}')"
                                    for qid, p in REGEXP_QUERIES),
                          "regexp_full_match(df.term, q0.pat)")


# function_score field_value_factor: multiplier derived from the
# document's own id so it is deterministic and SQL-replicable.
FUNCTION_SCORE_MOD = 7
FUNCTION_SCORE_SCALE = 10.0

# pinned query: promoted original doc ids, surfaced in THIS order
# ahead of every organic hit (ES `pinned` semantics: returned whether
# or not they match the organic query)
PINNED_IDS = (13, 5, 21)

# rank_feature saturation: S(f) = f / (f + pivot) in [0, 1), added to
# the text score with a weight — docs must still MATCH the query (the
# feature boosts, it never recalls)
RANK_FEATURE_PIVOT = 256
RANK_FEATURE_WEIGHT = 2.0

# simple_query_string fixtures: the ES mini-language subset
# `+must  bare-should  -must_not` over the reference vocabulary
SQS_QUERIES: list[tuple[int, str]] = [
    (1, "+merge sort -slow"),
    (2, "window stream"),
    (3, "+customer +join fast"),
    (4, "spark -vector -hash stream"),
    (5, "+the slow -merge"),
    (6, "vector hash +scan batch -customer"),
]


def parse_simple_query_string(qs: str
                              ) -> tuple[list[str], list[str], list[str]]:
    """``+term`` → must, ``-term`` → must_not, bare → should (the ES
    simple_query_string operator subset; a lone '+'/'-' is a bare
    token).  Raises ValueError on an empty positive clause — a query
    of only exclusions matches nothing rankable."""
    must, should, nots = [], [], []
    for tok in qs.split():
        if tok.startswith("+") and len(tok) > 1:
            must.append(tok[1:])
        elif tok.startswith("-") and len(tok) > 1:
            nots.append(tok[1:])
        else:
            should.append(tok.lstrip("+-") or tok)
    if not must and not should:
        raise ValueError(f"simple_query_string needs at least one "
                         f"positive clause: {qs!r}")
    return must, should, nots


def bm25_simple_query_string(sf_dir: str):
    """simple_query_string (the ES mini-language): parse
    ``+must bare -not`` clauses, rank by disjunctive BM25 over the
    positive terms, require every ``+`` term (conjunction filter,
    restrict-never-rescale), drop docs matching any ``-`` term.
    Emitted as (query_id, rank, doc_id)."""
    from mee_ray.query import merge_partials

    def sqs(s, k, qs):
        must, should, nots = parse_simple_query_string(qs)
        terms = sorted(set(must + should))
        partials = s.term_partials(terms)
        excl = s.excluded_doc_ids(nots) if nots else None
        ranked = merge_partials([partials], terms, k=k,
                                exclude_sorted=excl)
        if must and ranked:
            cand = None
            for t in sorted(set(must)):
                ids = s.term_raw_postings(t)[0]
                cand = ids if cand is None else np.intersect1d(cand, ids)
                if cand.size == 0:
                    break
            cs = set(cand.tolist()) if cand is not None else set()
            ranked = [(d, sc) for d, sc in ranked if d in cs]
        return ranked

    return _ranked(sf_dir, SQS_QUERIES, sqs)


def _bm25_sqs_sql() -> str:
    parsed = [(qid, *parse_simple_query_string(qs))
              for qid, qs in SQS_QUERIES]
    q_vals = ", ".join(f"({qid}, '{t}')" for qid, must, should, _ in parsed
                       for t in sorted(set(must + should)))
    m_vals = ", ".join(f"({qid}, '{t}')" for qid, must, _, _ in parsed
                       for t in sorted(set(must)))
    n_vals = ", ".join(f"({qid}, '{t}')" for qid, _, _, nots in parsed
                       for t in sorted(set(nots)))
    assert q_vals and m_vals and n_vals, "SQS fixture needs all clause kinds"
    return _ranked_sql(q=f"q(query_id, term) AS (VALUES {q_vals})", ctes=f"""\
mq(query_id, term) AS (VALUES {m_vals}),
nq(query_id, term) AS (VALUES {n_vals}),
mqn AS (SELECT query_id, count(DISTINCT term) AS n FROM mq GROUP BY query_id),
mmatch AS (SELECT mq.query_id, tf.doc_id, count(DISTINCT mq.term) AS nm
           FROM mq JOIN tf ON tf.term = mq.term GROUP BY 1, 2),
{_EXCL_CTE}""", restrict="""
      LEFT JOIN mqn ON mqn.query_id = sc.query_id
      LEFT JOIN mmatch mm ON mm.query_id = sc.query_id
                         AND mm.doc_id = sc.doc_id""" + _NOT_EXCLUDED + """
        AND coalesce(mqn.n, 0) = coalesce(mm.nm, 0)""")


def _by_n_chars(sf_dir: str, fn):
    """A :func:`_rank_rows` ``adjust`` that rescores by the docs'
    ``n_chars`` field: ``fn(scores, n_chars as float64)``."""
    ft = pq.read_table(f"{sf_dir}/documents.parquet",
                       columns=["doc_id", "n_chars"])
    fmap = dict(zip(ft["doc_id"].to_pylist(), ft["n_chars"].to_pylist()))
    return lambda ids, sc: fn(sc, np.array([fmap[int(i)] for i in ids],
                                           dtype=np.float64))


def _rescored_sql(expr: str) -> str:
    """The plain BM25 ranking rescored per doc by ``expr`` over the
    score ``sc.score`` and the doc's ``documents`` row ``d``."""
    return _ranked_sql(source="final", post=f"""final AS (
  SELECT sc.query_id, sc.doc_id,
         {expr} AS score
  FROM scores sc JOIN documents d ON d.doc_id = sc.doc_id)""")


def bm25_rank_feature_documents(sf_dir: str):
    """Rank-feature query (the ES ``rank_feature`` saturation analog):
    final score = bm25 + {RANK_FEATURE_WEIGHT} × n_chars /
    (n_chars + {RANK_FEATURE_PIVOT}) over the matching docs.  Both
    sides compute the identical float64 expression (exact int inputs,
    one division, one multiply, one add), so the ordering is
    well-defined.  Emitted as (query_id, rank, doc_id)."""
    return _ranked(sf_dir, REFERENCE_QUERIES, _text_search,
                   adjust=_by_n_chars(sf_dir, lambda sc, f: sc + (
                       RANK_FEATURE_WEIGHT * (f / (f + RANK_FEATURE_PIVOT)))))


# linear decay (the ES function_score `linear` decay analog, chosen
# over gauss/exp because its arithmetic is EXACT — no transcendental
# whose last ulp could differ between libm and the SQL engine):
# multiplier = max(0, 1 - |n_chars - origin| / scale)
DECAY_ORIGIN = 300
DECAY_SCALE = 400.0


def bm25_decay_documents(sf_dir: str):
    """Decay-scored BM25 top-k: final = bm25 × max(0, 1 −
    |n_chars − {DECAY_ORIGIN}| / {DECAY_SCALE}) — documents far from
    the origin length decay to zero (still ranked, by id, like ES's
    zeroed decay hits).  Exact float64 on both sides.  Emitted as
    (query_id, rank, doc_id)."""
    return _ranked(sf_dir, REFERENCE_QUERIES, _text_search,
                   adjust=_by_n_chars(sf_dir, lambda sc, f: sc * np.maximum(
                       0.0, 1.0 - np.abs(f - DECAY_ORIGIN) / DECAY_SCALE)))


def _bm25_decay_sql() -> str:
    return _rescored_sql(f"""sc.score * greatest(0.0,
             1.0 - abs(CAST(d.n_chars AS DOUBLE) - {DECAY_ORIGIN})
                   / {DECAY_SCALE})""")


def _bm25_rank_feature_sql() -> str:
    return _rescored_sql(f"""sc.score + {RANK_FEATURE_WEIGHT} *
           (CAST(d.n_chars AS DOUBLE) /
            (CAST(d.n_chars AS DOUBLE) + {RANK_FEATURE_PIVOT}))""")


# distance_feature: additive proximity boost, the ES query that
# replaces function_score for "closer to origin ranks higher".
# Integer n_chars keeps |f − origin| exact in float64; both sides
# apply the identical boost·(pivot/(pivot+dist)) expression tree.
DISTANCE_FEATURE_ORIGIN = 250
DISTANCE_FEATURE_PIVOT = 100.0
DISTANCE_FEATURE_BOOST = 3.0


def bm25_distance_feature_documents(sf_dir: str):
    """ES ``distance_feature`` query on the numeric ``n_chars``
    field: final = bm25 + {boost} × pivot / (pivot + |n_chars −
    origin|) over the matching docs — documents near the origin
    length get the largest additive boost.  Exact float64 on both
    sides (one abs, one add, one divide, one multiply, one add).
    Emitted as (query_id, rank, doc_id)."""
    return _ranked(sf_dir, REFERENCE_QUERIES, _text_search,
                   adjust=_by_n_chars(sf_dir, lambda sc, f: sc + (
                       DISTANCE_FEATURE_BOOST * (DISTANCE_FEATURE_PIVOT / (
                           DISTANCE_FEATURE_PIVOT
                           + np.abs(f - DISTANCE_FEATURE_ORIGIN))))))


def _bm25_distance_feature_sql() -> str:
    return _rescored_sql(f"""sc.score + {DISTANCE_FEATURE_BOOST} *
           ({DISTANCE_FEATURE_PIVOT} /
            ({DISTANCE_FEATURE_PIVOT} +
             abs(CAST(d.n_chars AS DOUBLE)
                 - {DISTANCE_FEATURE_ORIGIN})))""")


def bm25_pinned_documents(sf_dir: str):
    """Pinned query (the ES ``pinned`` analog): the fixed promoted ids
    rank first, in list order, for EVERY query — including queries
    with zero organic matches — and organic BM25 hits follow with the
    pinned ids excluded.  Emitted as (query_id, rank, doc_id) at
    TOP_K."""
    run = _Run(sf_dir)
    # organic depth TOP_K + |pinned|: after exclusion at least TOP_K
    # organic rows remain for the tail
    organic = run.rows(REFERENCE_QUERIES, _text_search,
                       cap=TOP_K + len(PINNED_IDS))
    by_q: dict[int, list[int]] = {}
    for qid, _rank, did in organic:
        by_q.setdefault(qid, []).append(did)
    live = set(run.idmap.values())
    pinned_live = [p for p in PINNED_IDS if p in live]
    rows = []
    for qid, _terms in REFERENCE_QUERIES:
        hits = list(pinned_live)
        hits += [d for d in by_q.get(qid, []) if d not in pinned_live]
        rows += [(qid, rank, did)
                 for rank, did in enumerate(hits[:TOP_K], start=1)]
    return _table(rows, "query_id rank doc_id")


def _bm25_pinned_sql() -> str:
    pin_vals = ", ".join(f"({p}, {i})"
                         for i, p in enumerate(PINNED_IDS, start=1))
    return _ranked_sql(ctes=f"""\
qids AS (SELECT DISTINCT query_id FROM q),
pin(pid, pos) AS (VALUES {pin_vals})""", post="""\
organic AS (
  SELECT query_id, doc_id,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score DESC, doc_id) AS orank
  FROM scores
  WHERE doc_id NOT IN (SELECT pid FROM pin)),
allhits AS (
  SELECT qids.query_id, pin.pid AS doc_id, 0 AS tier,
         CAST(pin.pos AS BIGINT) AS orank
  FROM qids CROSS JOIN pin
  WHERE pin.pid IN (SELECT doc_id FROM documents)
  UNION ALL
  SELECT query_id, doc_id, 1 AS tier, orank FROM organic)""", tail=f"""\
SELECT query_id, rank, doc_id FROM (
  SELECT query_id, doc_id,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY tier, orank) AS rank
  FROM allhits)
WHERE rank <= {TOP_K}""")


def bm25_function_score_documents(sf_dir: str):
    """Function-scored BM25 top-k (the ES ``function_score`` /
    ``field_value_factor`` analog): final score = bm25 ×
    (1 + (doc_id % {FUNCTION_SCORE_MOD}) / {FUNCTION_SCORE_SCALE}),
    re-ranked at full depth.  Both sides compute the identical float64
    product (bm25 scores are bit-identical; the factor is an exact
    small-integer / 10 division), so the ordering is well-defined.
    Emitted as (query_id, rank, doc_id)."""
    return _ranked(sf_dir, REFERENCE_QUERIES, _text_search,
                   adjust=lambda ids, sc: sc * (1.0 + (
                       ids % FUNCTION_SCORE_MOD) / FUNCTION_SCORE_SCALE))


def _bm25_function_score_sql() -> str:
    return _rescored_sql(f"""sc.score
           * (1.0 + (sc.doc_id % {FUNCTION_SCORE_MOD})
                    / {FUNCTION_SCORE_SCALE})""")


RRF_POOL = 50   # per-side candidate pool depth feeding the fusion


def hybrid_rrf_documents(sf_dir: str):
    """Hybrid retrieval with reciprocal-rank fusion: each reference
    query pairs its BM25 text ranking with a cosine kNN ranking over
    the ``embeddings`` table (query vector = the embedding whose
    vec_id equals the query_id), fused by ``hybrid.rrf_fuse`` as
    ``Σ_side 1/({RRF_K} + rank)`` over each side's top-{RRF_POOL}
    pool — the standard hybrid-search shape (ES rrf retriever analog).

    Distributed shape: the text side is the index partials path; the
    vector side is ``vector._scan_topk`` (the query matrix broadcast
    once, per-batch top-{RRF_POOL} partials, bounded transport).
    Fusion itself touches only 2 × {RRF_POOL} rows per query, text
    side first — the oracle's COALESCE(t) + COALESCE(v) order.
    Emitted as (query_id, rank, doc_id), fused score ties broken by
    doc_id."""
    from mee_ray.pipelines.vector import (_load_queries, _read_emb,
                                          _scan_topk, _unit_emb)

    def score(t, q_ids, q_mat):          # every row, the query's own too
        ids, u = _unit_emb(t)
        return ids, u @ q_mat.T, None

    text = _table(_Run(sf_dir).rows(REFERENCE_QUERIES, _text_search,
                                    RRF_POOL), "query_id rank doc_id")
    q_ids, q_mat = _load_queries(
        sf_dir, ("vec_id", "in", sorted(q for q, _ in REFERENCE_QUERIES)))
    vec = _scan_topk(_read_emb(sf_dir), q_ids, score, RRF_POOL, (q_mat,))
    vec = vec.rename_columns(["query_id", "rank", "doc_id"])
    return rrf_fuse([text, vec], TOP_K).select(["query_id", "rank",
                                                "doc_id"])


def _hybrid_rrf_sql() -> str:
    qids = ", ".join(str(qid) for qid, _ in REFERENCE_QUERIES)
    pool = dict(k=RRF_POOL, cols="query_id, doc_id, rank AS r")
    return _ranked_sql(source="fused", post=f"""\
t AS ({_top_sql(**pool)}),
vq AS (SELECT vec_id AS query_id, embedding AS qe
       FROM embeddings WHERE vec_id IN ({qids})),
vsim AS (SELECT vq.query_id, e.vec_id AS doc_id,
                list_cosine_similarity(e.embedding, vq.qe) AS score
         FROM embeddings e CROSS JOIN vq),
v AS ({_top_sql("vsim", **pool)}),
fused AS (
  SELECT COALESCE(t.query_id, v.query_id) AS query_id,
         COALESCE(t.doc_id, v.doc_id)     AS doc_id,
         COALESCE(1.0 / ({RRF_K} + t.r), 0.0)
         + COALESCE(1.0 / ({RRF_K} + v.r), 0.0) AS score
  FROM t FULL OUTER JOIN v
    ON v.query_id = t.query_id AND v.doc_id = t.doc_id)""")


SNIPPET_K = 3          # docs per query carrying a snippet
SNIPPET_RADIUS = 3     # tokens of context either side of the hit


def bm25_snippets_documents(sf_dir: str):
    """Snippet generation (the ES highlight analog): for each
    reference query's top-{SNIPPET_K} documents, a ±{SNIPPET_RADIUS}-
    token window around the FIRST occurrence of any query term
    (tokenizer positions, lowercased tokens — byte-identical to the
    SQL oracle's token reconstruction).

    Stored-field fetch is bounded: only the top-k docs' texts are
    read, via a distributed pruned scan of the source table filtered
    by the top-k id set — never a full-table driver read.  Ranking
    and tie-breaks mirror bm25_topk_documents (score desc, original
    id)."""
    import re

    # rank exactly like bm25_topk_documents, keep SNIPPET_K per query
    top = _Run(sf_dir).rows(REFERENCE_QUERIES, _text_search, SNIPPET_K)
    texts = _fetch_texts(sf_dir, top)
    tok = re.compile(TOKEN_PATTERN)
    qterms = {qid: set(terms) for qid, terms in REFERENCE_QUERIES}
    rows = []
    for qid, rank, did in top:
        toks = tok.findall(texts[did].lower())
        hits = [i for i, t in enumerate(toks) if t in qterms[qid]]
        p = hits[0]          # top-ranked docs always contain ≥1 term
        lo = max(0, p - SNIPPET_RADIUS)
        rows.append((qid, rank, did,
                     " ".join(toks[lo:p + SNIPPET_RADIUS + 1])))
    return _table(rows, "query_id rank doc_id snippet:str")


def _fetch_texts(sf_dir: str, rows) -> dict[int, str]:
    """doc_id → text for the doc ids of ``rows`` (query_id, rank,
    doc_id): a distributed pruned scan of the source table filtered by
    the id set — never a full-table driver read."""
    from mee_ray.pipelines.text import _read_docs
    vs = pa.array(sorted({d for _, _, d in rows}), pa.int64())

    def pick(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["doc_id"], value_set=vs))

    texts: dict[int, str] = {}
    for b in (_read_docs(sf_dir, ["doc_id", "text"])
              .map_batches(pick, batch_format="pyarrow")
              .iter_batches(batch_format="pyarrow")):
        texts.update(zip(b["doc_id"].to_pylist(), b["text"].to_pylist()))
    return texts


def _bm25_snippets_sql() -> str:
    return _ranked_sql(positions=True, post=f"""\
ranked AS ({_top_sql(k=SNIPPET_K, cols="query_id, doc_id, rank")}),
hit AS (
  SELECT q.query_id, tok.doc_id, min(tok.i) AS p
  FROM q JOIN tok ON tok.term = q.term
  GROUP BY q.query_id, tok.doc_id)""", tail=f"""\
SELECT r.query_id, r.rank, r.doc_id,
       (SELECT string_agg(t2.term, ' ' ORDER BY t2.i)
        FROM tok t2
        WHERE t2.doc_id = r.doc_id
          AND t2.i BETWEEN h.p - {SNIPPET_RADIUS}
                       AND h.p + {SNIPPET_RADIUS}) AS snippet
FROM ranked r
JOIN hit h ON h.query_id = r.query_id AND h.doc_id = r.doc_id""")


# Phrase query set: token sequences (the engine verifies adjacency in
# the term-position index; the SQL oracle verifies adjacency with a
# regex — two tokens are adjacent iff only non-token characters
# separate them, because the tokenizer's [a-z0-9_]+ runs are maximal).
PHRASE_QUERIES: list[tuple[int, list[str]]] = [
    (1, ["merge", "group"]),
    (2, ["window", "join"]),
    (3, ["customer", "join"]),
    (4, ["data", "slow"]),
    (5, ["order", "fast"]),
    (6, ["part", "filter", "scan"]),
]


def _phrase_regex(terms: list[str]) -> str:
    sep = "[^a-z0-9_]+"
    return ("(^|[^a-z0-9_])" + sep.join(terms)
            + "([^a-z0-9_]|$)")


def bm25_phrase_documents(sf_dir: str):
    """Exact phrase top-k over the positional index: docs containing
    the token sequence at consecutive positions, scored like
    conjunctive (idf full-index — phrase filters, never rescales),
    ranked by (score desc, ORIGINAL doc_id) like the other fulltext
    queries so the SQL oracle can reproduce the tie-break."""
    # full ranking straight from the engine path (candidate pushdown
    # included); re-ranked by ORIGINAL doc id in _rank_rows
    return _ranked(sf_dir, PHRASE_QUERIES, lambda s, k, terms:
                   s.search_phrase(terms, k=k))


def _regex_member_sql(pats: str, queries) -> str:
    """Scored oracle of a query whose matching docs are those whose
    lowered text matches the query's regex in ``pats`` (query_id, pat
    VALUES) — the adjacency test of the phrase family — scored over the
    ``queries`` terms."""
    return _member_sql(f"""pat(query_id, pat) AS (VALUES {pats}),
span_docs AS (
  SELECT pat.query_id, d.doc_id
  FROM pat JOIN documents d ON regexp_matches(lower(d.text), pat.pat))""",
                       queries, positions=False)


def _bm25_phrase_sql() -> str:
    return _regex_member_sql(", ".join(
        f"({qid}, '{_phrase_regex(terms)}')"
        for qid, terms in PHRASE_QUERIES), PHRASE_QUERIES)


# match_phrase_prefix (search-as-you-type): fixed terms adjacent in
# order, then ANY token starting with the prefix.  The pipeline runs
# with max_expansions high enough to be exhaustive at this corpus size
# so the uncapped regex oracle is exact (the cap is ES's documented
# truncation contract, exercised separately in tests).
PHRASE_PREFIX_QUERIES: list[tuple[int, list[str]]] = [
    (1, ["merge", "gro"]),
    (2, ["window", "jo"]),
    (3, ["customer", "jo"]),
    (4, ["data", "slo"]),
    (5, ["order", "fas"]),
    (6, ["part", "filter", "sc"]),
]


def _phrase_prefix_regex(terms: list[str]) -> str:
    sep = "[^a-z0-9_]+"
    return ("(^|[^a-z0-9_])" + sep.join(terms[:-1]) + sep
            + terms[-1] + "[a-z0-9_]*")


def bm25_phrase_prefix_documents(sf_dir: str):
    """match_phrase_prefix top-k: fixed terms at consecutive
    positions followed by any token starting with the prefix, scored
    conjunctively over the fixed terms (membership-gating expansion,
    the documented simplification of ES's blended multi-term weight),
    ranked (score desc, ORIGINAL doc_id)."""
    return _ranked(sf_dir, PHRASE_PREFIX_QUERIES, lambda s, k, terms:
                   s.search_phrase_prefix(terms, k=k,
                                          max_expansions=100_000))


def _bm25_phrase_prefix_sql() -> str:
    return _regex_member_sql(
        ", ".join(f"({qid}, '{_phrase_prefix_regex(terms)}')"
                  for qid, terms in PHRASE_PREFIX_QUERIES),
        [(qid, terms[:-1]) for qid, terms in PHRASE_PREFIX_QUERIES])


# span_near: ordered proximity with a per-consecutive-gap bound.  The
# SQL oracle states the predicate positionally (chained self-joins on
# the tokenized-with-subscripts CTE), completely independent of the
# engine's reachable-set key packing.
SPAN_NEAR_QUERIES: list[tuple[int, list[str], int]] = [
    (1, ["merge", "group"], 1),
    (2, ["window", "join"], 2),
    (3, ["customer", "join"], 3),
    (4, ["data", "slow"], 2),
    (5, ["order", "fast"], 0),       # slop=0 ≡ exact phrase
    (6, ["part", "filter", "scan"], 2),
]


def bm25_span_near_documents(sf_dir: str):
    """Ordered-proximity top-k (ES/Lucene span_near, in_order=true)
    over the positional index: terms in order with ≤ slop intervening
    tokens between each consecutive pair, scored like conjunctive
    restricted to the matching docs, ranked by (score desc, ORIGINAL
    doc_id) like the other fulltext queries."""
    return _ranked(sf_dir, SPAN_NEAR_QUERIES, lambda s, k, terms, slop:
                   s.search_span_near(terms, slop, k=k))


def _span_chain(qid: int, terms: list[str], slop: int) -> str:
    joins = " ".join(
        f"JOIN tok t{i} ON t{i}.doc_id = t0.doc_id "
        f"AND t{i}.term = '{terms[i]}' "
        f"AND t{i}.i - t{i - 1}.i BETWEEN 1 AND {slop + 1}"
        for i in range(1, len(terms)))
    return (f"SELECT DISTINCT {qid} AS query_id, t0.doc_id "
            f"FROM tok t0 {joins} WHERE t0.term = '{terms[0]}'")


def _bm25_span_near_sql() -> str:
    return _span_scored_sql(
        [_span_chain(qid, terms, slop)
         for qid, terms, slop in SPAN_NEAR_QUERIES],
        [(qid, terms) for qid, terms, _ in SPAN_NEAR_QUERIES])


# (qid, distinct terms, max_gaps, ordered) — the TOTAL gap budget is
# the semantic difference from SPAN_NEAR_QUERIES' per-pair slop
INTERVALS_QUERIES: list[tuple[int, list[str], int, bool]] = [
    (1, ["merge", "sort"], 2, True),
    (2, ["window", "join"], 1, False),
    (3, ["customer", "join", "fast"], 4, False),
    (4, ["data", "slow"], 0, True),      # 0 gaps ordered ≡ adjacent
    (5, ["group", "scan"], 3, False),
    (6, ["part", "filter", "scan"], 3, True),
]


def bm25_intervals_documents(sf_dir: str):
    """ES ``intervals`` query (match rule): all terms inside a window
    with at most ``max_gaps`` TOTAL non-matching tokens, optionally in
    order — the whole-interval budget span_near cannot express.
    Survivors score conjunctively (filter-context stance), ranked by
    (score desc, ORIGINAL doc_id) like the other fulltext queries."""
    return _ranked(sf_dir, INTERVALS_QUERIES, lambda s, k, terms, g, o:
                   s.search_intervals(terms, max_gaps=g, ordered=o, k=k))


def _intervals_docs_subquery(qid: int, terms: list[str], g: int,
                             ordered: bool) -> str:
    n = len(terms)
    width = n - 1 + g
    if ordered:
        joins = " ".join(
            f"JOIN tok t{i} ON t{i}.doc_id = t0.doc_id "
            f"AND t{i}.term = '{terms[i]}' AND t{i}.i > t{i - 1}.i"
            for i in range(1, n))
        cond = f"t{n - 1}.i - t0.i <= {width}"
    else:
        joins = " ".join(
            f"JOIN tok t{i} ON t{i}.doc_id = t0.doc_id "
            f"AND t{i}.term = '{terms[i]}'"
            for i in range(1, n))
        cols = ", ".join(f"t{i}.i" for i in range(n))
        cond = f"greatest({cols}) - least({cols}) <= {width}"
    return (f"SELECT DISTINCT {qid} AS query_id, t0.doc_id "
            f"FROM tok t0 {joins} "
            f"WHERE t0.term = '{terms[0]}' AND {cond}")


def _bm25_intervals_sql() -> str:
    return _span_scored_sql(
        [_intervals_docs_subquery(qid, terms, g, o)
         for qid, terms, g, o in INTERVALS_QUERIES],
        [(qid, terms) for qid, terms, _, _ in INTERVALS_QUERIES])


# span composition family: span_containing / span_within (a big
# span_near span containing a little-term occurrence, boundaries
# inclusive) and span_near over span_or slots.  SQL states each
# predicate positionally over the tok CTE, independent of the
# engine's packed-key kernels.
SPAN_CONTAINING_QUERIES: list[tuple[int, list[str], int, str]] = [
    (1, ["merge", "group"], 4, "part"),
    (2, ["window", "join"], 5, "order"),
    (3, ["fast", "scan"], 6, "key"),
    (4, ["data", "stream"], 3, "join"),
    (5, ["batch", "hash"], 4, "slow"),
]

SPAN_OR_QUERIES: list[tuple[int, list[list[str]], int]] = [
    (1, [["merge", "sort"], ["group", "join"]], 2),
    (2, [["window"], ["join", "scan"]], 3),
    (3, [["fast", "slow"], ["batch"], ["hash", "key"]], 2),
    (4, [["order"], ["customer", "part"]], 1),
]


def bm25_span_containing_documents(sf_dir: str):
    """ES/Lucene ``span_containing``: a big ``span_near`` span
    contains a little-term occurrence (boundaries inclusive).
    Survivors score conjunctively over the BIG terms (the clause ES
    returns), ranked by (score desc, ORIGINAL doc_id)."""
    return _ranked(sf_dir, SPAN_CONTAINING_QUERIES,
                   lambda s, k, big, slop, little:
                   s.search_span_containing(big, slop, little, k=k))


def bm25_span_within_documents(sf_dir: str):
    """ES/Lucene ``span_within`` — the same containment predicate as
    :func:`bm25_span_containing_documents` but scored over the LITTLE
    clause only."""
    return _ranked(sf_dir, SPAN_CONTAINING_QUERIES,
                   lambda s, k, big, slop, little:
                   s.search_span_within(little, big, slop, k=k))


def bm25_span_or_near_documents(sf_dir: str):
    """``span_near`` whose slots are ``span_or`` clauses (any
    alternative per slot, in order, per-gap slop).  Survivors score
    disjunctively over ALL alternatives restricted to the matches."""
    return _ranked(sf_dir, SPAN_OR_QUERIES, lambda s, k, slots, slop:
                   s.search_span_or_near(slots, slop, k=k))


def _span_containing_subquery(qid: int, big: list[str], slop: int,
                              little: str) -> str:
    n = len(big)
    joins = " ".join(
        f"JOIN tok t{i} ON t{i}.doc_id = t0.doc_id "
        f"AND t{i}.term = '{big[i]}' "
        f"AND t{i}.i - t{i - 1}.i BETWEEN 1 AND {slop + 1}"
        for i in range(1, n))
    return (f"SELECT DISTINCT {qid} AS query_id, t0.doc_id "
            f"FROM tok t0 {joins} "
            f"JOIN tok tl ON tl.doc_id = t0.doc_id "
            f"AND tl.term = '{little}' "
            f"AND tl.i BETWEEN t0.i AND t{n - 1}.i "
            f"WHERE t0.term = '{big[0]}'")


def _member_sql(members: str, queries=None, q: str | None = None,
                positions: bool = True) -> str:
    """Shared membership-scored oracle shape: ``members`` CTEs ending in
    span_docs(query_id, doc_id) restrict the standard per-term score
    sum.  The scoring term set comes either from ``queries`` or (for
    dictionary-expanded spans like span_multi) a full ``q`` CTE."""
    return _ranked_sql(queries, q=q, positions=positions, ctes=members,
                       joins="""
  JOIN span_docs sd ON sd.query_id = q.query_id
                   AND sd.doc_id = tf.doc_id""")


def _span_scored_sql(chains: list[str], queries=None,
                     q: str | None = None) -> str:
    """:func:`_member_sql` over the UNION of positional subqueries."""
    joined = "\n  UNION ALL\n  ".join(chains)
    return _member_sql(f"span_docs AS (\n  {joined})", queries, q)


def _bm25_span_containing_sql() -> str:
    return _span_scored_sql(
        [_span_containing_subquery(qid, big, slop, little)
         for qid, big, slop, little in SPAN_CONTAINING_QUERIES],
        [(qid, big) for qid, big, _, _ in SPAN_CONTAINING_QUERIES])


def _bm25_span_within_sql() -> str:
    return _span_scored_sql(
        [_span_containing_subquery(qid, big, slop, little)
         for qid, big, slop, little in SPAN_CONTAINING_QUERIES],
        [(qid, [little]) for qid, _, _, little in SPAN_CONTAINING_QUERIES])


def _span_or_subquery(qid: int, slots: list[list[str]], slop: int
                      ) -> str:
    def inlist(slot: list[str]) -> str:
        return ", ".join(f"'{t}'" for t in sorted(set(slot)))

    joins = " ".join(
        f"JOIN tok t{i} ON t{i}.doc_id = t0.doc_id "
        f"AND t{i}.term IN ({inlist(slots[i])}) "
        f"AND t{i}.i - t{i - 1}.i BETWEEN 1 AND {slop + 1}"
        for i in range(1, len(slots)))
    return (f"SELECT DISTINCT {qid} AS query_id, t0.doc_id "
            f"FROM tok t0 {joins} "
            f"WHERE t0.term IN ({inlist(slots[0])})")


def _bm25_span_or_sql() -> str:
    return _span_scored_sql(
        [_span_or_subquery(qid, slots, slop)
         for qid, slots, slop in SPAN_OR_QUERIES],
        [(qid, [t for slot in slots for t in slot])
         for qid, slots, _ in SPAN_OR_QUERIES])


# span_multi (Lucene SpanMultiTermQueryWrapper, reference ES mapping
# surface): a span_near whose slots may be PREFIX multi-term queries,
# rewritten at query time against the live dictionary into span_or
# slots — exactly Lucene's rewrite.  A slot is either a list[str] of
# literal alternatives or a str prefix.
SPAN_MULTI_QUERIES: list[tuple[int, list, int]] = [
    (1, [["merge"], "gro"], 3),
    (2, ["win", ["join", "scan"]], 3),
    (3, [["fast"], "ba", ["hash", "key"]], 2),
    (4, ["ord", "cus"], 2),
]


def bm25_span_multi_documents(sf_dir: str):
    """ES ``span_multi`` inside ``span_near``: prefix slots expand
    against the dictionary (``prefix_terms``, the match_bool_prefix
    expansion) into span_or alternatives, then the span_or_near
    kernel runs unchanged; an empty expansion kills the whole span
    (Lucene's empty-rewrite contract).  Survivors score disjunctively
    over all alternatives restricted to the matches, ranked by
    (score desc, original id)."""
    from mee_ray.query import prefix_terms

    def span_multi(s, k, slots, slop):
        expanded = [slot if isinstance(slot, list)
                    else prefix_terms(s.vocabulary(), slot)
                    for slot in slots]
        if any(not sl for sl in expanded):
            return []
        return s.search_span_or_near(expanded, slop, k=k)

    return _ranked(sf_dir, SPAN_MULTI_QUERIES, span_multi)


def _span_multi_subquery(qid: int, slots: list, slop: int) -> str:
    def pred(alias: str, slot) -> str:
        if isinstance(slot, list):
            inl = ", ".join(f"'{t}'" for t in sorted(set(slot)))
            return f"{alias}.term IN ({inl})"
        return f"{alias}.term LIKE '{slot}%'"

    joins = " ".join(
        f"JOIN tok t{i} ON t{i}.doc_id = t0.doc_id "
        f"AND {pred(f't{i}', slots[i])} "
        f"AND t{i}.i - t{i - 1}.i BETWEEN 1 AND {slop + 1}"
        for i in range(1, len(slots)))
    return (f"SELECT DISTINCT {qid} AS query_id, t0.doc_id "
            f"FROM tok t0 {joins} WHERE {pred('t0', slots[0])}")


def _bm25_span_multi_sql() -> str:
    arms = []
    for qid, slots, _ in SPAN_MULTI_QUERIES:
        lits = sorted({t for sl in slots if isinstance(sl, list)
                       for t in sl})
        if lits:
            vals = ", ".join(f"({qid}, '{t}')" for t in lits)
            arms.append(f"SELECT * FROM (VALUES {vals})"
                        f" v(query_id, term)")
        arms.extend(
            f"SELECT {qid} AS query_id, term FROM df "
            f"WHERE term LIKE '{sl}%'"
            for sl in slots if isinstance(sl, str))
    q_cte = ("q(query_id, term) AS (\n  SELECT DISTINCT query_id, "
             "term FROM (\n  "
             + "\n  UNION ALL\n  ".join(arms) + "))")
    return _span_scored_sql([_span_multi_subquery(qid, slots, slop)
                             for qid, slots, slop in SPAN_MULTI_QUERIES],
                            q=q_cte)


def _bm25_conj_sql() -> str:
    return _ranked_sql(**_N_MATCHED, restrict="""
      JOIN qn ON qn.query_id = sc.query_id
      WHERE sc.n_matched = qn.n_terms""")


# --- ES sort / range-agg / stats-agg / top_hits family ---------------
#
# All four share one discipline: matched-id sets come from the index
# (posting unions, bounded by the query terms' dfs), are mapped to
# ORIGINAL document ids once on the driver, broadcast via ray.put, and
# the documents table is then scanned DISTRIBUTED with per-batch
# bounded partials (top-k rows / bucket counts / min-max-sum triples)
# — the table never concentrates on the driver.

def _matched_orig_sets(sf_dir: str) -> dict[int, "object"]:
    """Per reference query: np.sorted array of matched ORIGINAL doc
    ids (ANY query term, live postings)."""
    run = _Run(sf_dir)
    return {qid: np.sort(np.array([run.idmap[d] for d in
                                   run.s.matched_doc_ids(terms)],
                                  dtype=np.int64))
            for qid, terms in REFERENCE_QUERIES}


def _n_chars_scan(sf_dir: str, stage):
    """:func:`_broadcast_scan` of the source table's (doc_id, n_chars)
    through ``stage`` with the matched original-id sets broadcast."""
    return _broadcast_scan(f"{sf_dir}/documents.parquet",
                           ["doc_id", "n_chars"], stage,
                           _matched_orig_sets(sf_dir))


SORT_TOP_K = 10


class _NCharsStage(_BroadcastStage):
    """Shared shape of the n_chars scans: per query, the batch's
    matched (doc_id, n_chars) arrays → ``rows(qid, ids, nch)`` partial
    rows, typed by ``SPEC`` (see :func:`_table`)."""

    SPEC = ""

    def __call__(self, t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        nch = t["n_chars"].to_numpy(zero_copy_only=False)
        out = []
        for qid, sids in self.sets.items():
            _, hit = self._probe(ids, sids)
            if hit.any():
                out += self.rows(qid, ids[hit], nch[hit])
        return _table(out, self.SPEC)


class _SortByFieldStage(_NCharsStage):
    """Per-batch top-{SORT_TOP_K} partial per query, ordered by
    (n_chars desc, doc_id asc) — ≤ queries × k rows cross the wire
    per batch."""

    SPEC = "query_id doc_id n_chars"

    @staticmethod
    def rows(qid, ids, nch):
        order = np.lexsort((ids, -nch))[:SORT_TOP_K]
        return [(qid, d, n) for d, n in zip(ids[order].tolist(),
                                           nch[order].tolist())]


def bm25_sort_by_field(sf_dir: str):
    """Field-sorted search (the ES ``sort: [{n_chars: desc}]`` analog
    — ranking by a stored field instead of score): for each query the
    top-{SORT_TOP_K} matched docs by (n_chars desc, doc_id asc)."""
    rows: dict[int, list[tuple[int, int]]] = {}
    for b in _n_chars_scan(sf_dir, _SortByFieldStage):
        for qid, did, nc in zip(b["query_id"].to_pylist(),
                                b["doc_id"].to_pylist(),
                                b["n_chars"].to_pylist()):
            rows.setdefault(qid, []).append((-nc, did))
    return _table([(qid, rank, did, -neg) for qid in sorted(rows)
                   for rank, (neg, did) in enumerate(
                       sorted(rows[qid])[:SORT_TOP_K], start=1)],
                  "query_id rank doc_id n_chars")


def _bm25_sort_sql() -> str:
    return f"""{_MATCHED_SQL},
ranked AS (
  SELECT m.query_id, d.doc_id, d.n_chars,
         row_number() OVER (PARTITION BY m.query_id
                            ORDER BY d.n_chars DESC, d.doc_id) AS rank
  FROM matched m JOIN documents d ON d.doc_id = m.doc_id)
SELECT query_id, rank, doc_id, CAST(n_chars AS BIGINT) AS n_chars
FROM ranked WHERE rank <= {SORT_TOP_K}
"""


RANGE_EDGES = (200, 350)  # buckets: [0,200) [200,350) [350,inf)


class _RangeAggStage(_NCharsStage):
    """Per-batch (query_id, bucket, n) partial counts — ≤ queries × 3
    rows per batch."""

    SPEC = "query_id bucket_i n"

    @staticmethod
    def rows(qid, ids, nch):
        bucket = np.digitize(nch, RANGE_EDGES)
        return [(qid, int(b), int((bucket == b).sum()))
                for b in np.unique(bucket)]


_BUCKET_NAMES = (f"lt{RANGE_EDGES[0]}",
                 f"{RANGE_EDGES[0]}_{RANGE_EDGES[1]}",
                 f"ge{RANGE_EDGES[1]}")


def bm25_range_agg(sf_dir: str):
    """Range aggregation in query context (the ES ``range`` agg on a
    numeric field): matched docs per query bucketed by n_chars into
    [0,{RANGE_EDGES[0]}), [{RANGE_EDGES[0]},{RANGE_EDGES[1]}),
    [{RANGE_EDGES[1]},∞)."""
    acc: dict[tuple[int, int], int] = {}
    for b in _n_chars_scan(sf_dir, _RangeAggStage):
        for qid, bi, n in zip(b["query_id"].to_pylist(),
                              b["bucket_i"].to_pylist(),
                              b["n"].to_pylist()):
            acc[(qid, bi)] = acc.get((qid, bi), 0) + n
    return _table([(qid, _BUCKET_NAMES[bi], acc[(qid, bi)])
                   for qid, bi in sorted(acc)],
                  "query_id bucket:str n_docs")


def _bm25_range_agg_sql() -> str:
    lo, hi = RANGE_EDGES
    return f"""{_MATCHED_SQL}
SELECT m.query_id,
       CASE WHEN d.n_chars < {lo} THEN '{_BUCKET_NAMES[0]}'
            WHEN d.n_chars < {hi} THEN '{_BUCKET_NAMES[1]}'
            ELSE '{_BUCKET_NAMES[2]}' END AS bucket,
       count(*) AS n_docs
FROM matched m JOIN documents d ON d.doc_id = m.doc_id
GROUP BY 1, 2
"""


class _StatsAggStage(_NCharsStage):
    """Per-batch (query_id, n, mn, mx, sm) partials — one row per
    query per batch."""

    SPEC = "query_id n mn mx sm"

    @staticmethod
    def rows(qid, ids, nch):
        return [(qid, len(nch), int(nch.min()), int(nch.max()),
                 int(nch.sum()))]


def bm25_stats_agg(sf_dir: str):
    """Stats aggregation in query context (the ES ``stats`` agg):
    count/min/max/sum of n_chars over each query's matched docs, plus
    avg as exact parts-per-million (integer — the sum and count are
    exact, so the scaled ratio is bit-deterministic)."""
    acc: dict[int, list[int]] = {}
    for b in _n_chars_scan(sf_dir, _StatsAggStage):
        for qid, n, mn, mx, sm in zip(b["query_id"].to_pylist(),
                                      b["n"].to_pylist(),
                                      b["mn"].to_pylist(),
                                      b["mx"].to_pylist(),
                                      b["sm"].to_pylist()):
            cur = acc.get(qid)
            if cur is None:
                acc[qid] = [n, mn, mx, sm]
            else:
                cur[0] += n
                cur[1] = min(cur[1], mn)
                cur[2] = max(cur[2], mx)
                cur[3] += sm
    qids = sorted(acc)
    return pa.table({
        "query_id": pa.array(qids, pa.int64()),
        "n_docs": pa.array([acc[q][0] for q in qids], pa.int64()),
        "min_chars": pa.array([acc[q][1] for q in qids], pa.int64()),
        "max_chars": pa.array([acc[q][2] for q in qids], pa.int64()),
        "sum_chars": pa.array([acc[q][3] for q in qids], pa.int64()),
        # floor(x+0.5): np.round is half-to-even but the oracle's SQL
        # round() is half-away; ppm ≥ 0 so this IS half-away (the
        # repo's exactness rule, relational.py percentile_ranks)
        "avg_chars_ppm": pa.array(
            [int(np.floor(1e6 * acc[q][3] / acc[q][0] + 0.5))
             for q in qids],
            pa.int64())})


def _bm25_stats_agg_sql() -> str:
    return f"""{_MATCHED_SQL}
SELECT m.query_id,
       count(*)                    AS n_docs,
       CAST(min(d.n_chars) AS BIGINT) AS min_chars,
       CAST(max(d.n_chars) AS BIGINT) AS max_chars,
       CAST(sum(d.n_chars) AS BIGINT) AS sum_chars,
       CAST(round(1000000.0 * sum(d.n_chars) / count(*)) AS BIGINT)
         AS avg_chars_ppm
FROM matched m JOIN documents d ON d.doc_id = m.doc_id
GROUP BY 1
"""


TOP_HITS_PER_GROUP = 2


# the top_hits aggregation's stage IS _GroupTopHitsStage with
# k=TOP_HITS_PER_GROUP (see bm25_top_hits)


def bm25_top_hits(sf_dir: str):
    """Top-hits sub-aggregation (the ES ``top_hits`` inside a terms
    agg): for each query and each lang bucket, the
    {TOP_HITS_PER_GROUP} best-scoring matched docs.  Same machinery
    as field collapsing with k>1 kept per group per batch; the driver
    merge keeps the global top-{TOP_HITS_PER_GROUP} per (query, lang).
    Emitted as (query_id, lang, hit_rank, doc_id)."""
    best = _group_top_hits(sf_dir, TOP_HITS_PER_GROUP)
    return _table([(qid, lang, rank, og) for qid, lang in sorted(best)
                   for rank, (_, og) in enumerate(best[(qid, lang)],
                                                  start=1)],
                  "query_id lang:str hit_rank doc_id")


def _bm25_top_hits_sql() -> str:
    return f"""{_GROUP_RANKED_SQL}SELECT query_id, lang, hit_rank, doc_id
FROM ranked WHERE hit_rank <= {TOP_HITS_PER_GROUP}
"""


def index_term_stats(sf_dir: str):
    """Global index statistics straight from the built index's manifest
    + segments, cross-checked by a pure-SQL recount."""
    root = _ensure_index(sf_dir)
    m = mf.load_manifest(root)
    terms = set()
    n_postings = 0
    for seg in m["segments"]:
        t = pq.read_table(seg["path"], columns=["term", "df"])
        terms.update(t["term"].to_pylist())
        n_postings += sum(t["df"].to_pylist())
    return pa.table({"n_docs": pa.array([m["n_docs"]], pa.int64()),
                     "total_tokens": pa.array([m["total_tokens"]], pa.int64()),
                     "n_terms": pa.array([len(terms)], pa.int64()),
                     "n_postings": pa.array([n_postings], pa.int64())})


INDEX_STATS_SQL = f"""
{_base_ctes()}
SELECT (SELECT count(*) FROM documents)       AS n_docs,
       (SELECT count(*) FROM tok)             AS total_tokens,
       (SELECT count(DISTINCT term) FROM tok) AS n_terms,
       (SELECT count(*) FROM tf)              AS n_postings
"""


def corpus_docs_table(sf_dir: str):
    """The docs-table build path: per-row identity + sha256 invariant
    (BASELINE.json input_hint), checked column-for-column in SQL."""
    root = _ensure_index(sf_dir)
    tabs = [pq.read_table(f, columns=["repo", "path", "commit", "lang",
                                      "length", "content_sha256"])
            for f in _docs_files(root)]
    t = pa.concat_tables(tabs)
    sha_hex = [binascii.hexlify(x).decode() for x in t["content_sha256"].to_pylist()]
    return pa.table({"repo": t["repo"], "path": t["path"],
                     "commit_sha": t["commit"], "lang": t["lang"],
                     "n_tokens": t["length"].cast(pa.int64()),
                     "sha_hex": pa.array(sha_hex, pa.string())})


def bm25_rank_eval(sf_dir: str) -> pa.Table:
    """ES ``_rank_eval`` analog: ranking-quality metrics of the BM25
    top-10 against a deterministic judgment set.

    Judgment rule (derivable on both sides, no human labels in a
    sandbox): a document is RELEVANT to a query iff it contains every
    query term — the conjunctive member set.  Metrics per query:
    ``p_at_10`` (relevant in the top-10 window / 10) and ``rr``
    (reciprocal rank of the first relevant hit in the window, 0 if
    none), plus the judgment-set size.  Both sides compute the same
    1/rank and hits/10 divisions on the same integers, so the doubles
    are bit-identical."""
    run = _Run(sf_dir)
    s, k, idmap = run.s, run.k, run.idmap
    out = []
    for qid, terms in REFERENCE_QUERIES:
        rel = {idmap[d] for d, _ in s.search(terms, k=k, operator="and")}
        window = _rank_rows([(qid, s.search(terms, k=k))], idmap, TOP_K)
        hit_ranks = [rank for (_, rank, oid) in window if oid in rel]
        out.append((qid, len(rel), len(hit_ranks) / 10.0,
                    (1.0 / min(hit_ranks)) if hit_ranks else 0.0))
    return _table(out, "query_id n_relevant p_at_10:f64 rr:f64")


_SPAN_FIRST_END = 5


def bm25_span_first_documents(sf_dir: str) -> pa.Table:
    """ES ``span_first`` path: each reference query's FIRST term must
    occur within the document's first {END} tokens; survivors keep the
    term's plain BM25 contribution (membership gates, never rescales).
    Full-depth + original-id re-rank like every fulltext query."""
    return _ranked(sf_dir, REFERENCE_QUERIES, lambda s, k, terms:
                   s.search_span_first(terms[0], _SPAN_FIRST_END, k=k))


def _span_first_sql() -> str:
    return _member_sql(f"""span_docs AS (
  SELECT q.query_id, tok.doc_id
  FROM q JOIN tok ON tok.term = q.term
  GROUP BY q.query_id, tok.doc_id
  HAVING min(tok.i) <= {_SPAN_FIRST_END})""",
                       [(qid, [terms[0]]) for qid, terms in REFERENCE_QUERIES])


# Named term-filters for the adjacency-matrix aggregation.
ADJACENCY_FILTERS: list[tuple[str, str]] = [
    ("merges", "merge"),
    ("joins", "join"),
    ("scans", "scan"),
    ("windows", "window"),
    ("never", "zzz_never_matches"),
]


def adjacency_matrix_documents(sf_dir: str) -> pa.Table:
    """Adjacency-matrix aggregation (the ES ``adjacency_matrix``):
    document counts for every named term-filter and every pairwise
    intersection (a&&b, a < b), empty buckets dropped like ES.  The
    matched-id set per filter comes straight from the index (one
    posting read per filter term — the docs table is never scanned);
    intersections are sorted-array intersects on the driver, bounded
    by the filters' dfs."""
    s = _Run(sf_dir).s
    sets = {name: s.matched_doc_ids([term])
            for name, term in ADJACENCY_FILTERS}
    keys, counts = [], []
    for name, _ in ADJACENCY_FILTERS:
        n = int(sets[name].size)
        if n:
            keys.append(name)
            counts.append(n)
    names = [n for n, _ in ADJACENCY_FILTERS]
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            n = int(np.intersect1d(sets[a], sets[b]).size)
            if n:
                keys.append(f"{a}&&{b}")
                counts.append(n)
    return pa.table({"key": pa.array(keys, pa.string()),
                     "doc_count": pa.array(counts, pa.int64())})


def _adjacency_matrix_sql() -> str:
    flt = ", ".join(f"('{name}', '{term}')"
                    for name, term in ADJACENCY_FILTERS)
    # pair keys follow the FILTER LIST order (a before b), like the
    # engine — built by joining each filter to the ones after it
    order = ", ".join(f"('{name}', {i})"
                      for i, (name, _) in enumerate(ADJACENCY_FILTERS))
    return f"""
{_base_ctes()},
flt(name, term) AS (VALUES {flt}),
ord(name, pos) AS (VALUES {order}),
matched AS (
  SELECT DISTINCT flt.name, tok.doc_id
  FROM flt JOIN tok ON tok.term = flt.term),
singles AS (
  SELECT name AS key, count(*) AS doc_count
  FROM matched GROUP BY name),
pairs AS (
  SELECT a.name || '&&' || b.name AS key, count(*) AS doc_count
  FROM matched a
  JOIN ord oa ON oa.name = a.name
  JOIN matched b ON b.doc_id = a.doc_id
  JOIN ord ob ON ob.name = b.name AND ob.pos > oa.pos
  GROUP BY a.name, b.name)
SELECT key, CAST(doc_count AS BIGINT) AS doc_count
FROM (SELECT * FROM singles UNION ALL SELECT * FROM pairs)
ORDER BY key
"""


# Stored PHRASE queries for the phrase percolator: real corpus
# bigrams/trigrams plus a never-matching control.
PHRASE_PERCOLATE_QUERIES: list[tuple[int, list[str]]] = [
    (1, ["table", "hash"]),
    (2, ["merge", "group"]),
    (3, ["customer", "join"]),
    (4, ["vector", "small"]),
    (5, ["merge", "group", "slow"]),
    (6, ["zzz_never", "matches"]),
]


def percolate_phrase_documents(sf_dir: str):
    """Phrase percolator (ES percolator with match_phrase stored
    queries): every document is tested against stored PHRASES —
    consecutive tokens, in order.  Same distributed one-pass shape as
    percolate_documents, but each stored phrase compiles to ONE
    vectorized RE2 pattern whose inter-term separator is
    `[^a-z0-9_]+` — exactly token adjacency under the simple
    tokenizer, so the regex match IS the positional predicate.  The
    SQL oracle derives membership independently from token positions
    (i+1 chained self-joins)."""
    import re

    from mee_ray.pipelines.text import _read_docs

    pats = {
        qid: ("(^|[^a-z0-9_])"
              + "[^a-z0-9_]+".join(re.escape(t) for t in ts)
              + "([^a-z0-9_]|$)")
        for qid, ts in PHRASE_PERCOLATE_QUERIES}

    def per_batch(b: pa.Table) -> pa.Table:
        low = pc.utf8_lower(b["text"])
        dids = b["doc_id"].to_numpy(zero_copy_only=False)
        out_d: list[int] = []
        out_q: list[int] = []
        for qid, _ts in PHRASE_PERCOLATE_QUERIES:
            m = pc.match_substring_regex(low, pats[qid]) \
                .to_numpy(zero_copy_only=False)
            hit = dids[m]
            out_d.extend(hit.tolist())
            out_q.extend([qid] * len(hit))
        return pa.table({"doc_id": pa.array(out_d, pa.int64()),
                         "query_id": pa.array(out_q, pa.int64())})

    return _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        per_batch, batch_format="pyarrow", zero_copy_batch=True)


def _percolate_phrase_sql() -> str:
    chains = "\n  UNION ALL\n  ".join(
        _span_chain(qid, ts, 0)
        for qid, ts in PHRASE_PERCOLATE_QUERIES)
    return f"""
{_base_ctes(with_positions=True)},
member AS (
  {chains})
SELECT doc_id, query_id FROM member
ORDER BY query_id, doc_id
"""


# Phrase-suggester inputs: 2-term misspelled phrases over the corpus
# vocabulary (edit-1 neighborhoods exist for each slot).
PHRASE_SUGGEST_QUERIES: list[tuple[int, str, str]] = [
    (1, "mergee", "sorrt"),
    (2, "window", "joinn"),
    (3, "batc", "scann"),
    (4, "fastt", "strem"),
]
_PHRASE_SUGGEST_N = 3
_PHRASE_SUGGEST_CANDS = 5


def phrase_suggest_documents(sf_dir: str) -> pa.Table:
    """Phrase suggester (ES did-you-mean over whole phrases): per-slot
    edit-1 candidates (df-ranked, capped, input included when live)
    combined and scored by a stupid-backoff bigram LM over the corpus
    — value-checked against a SQL mirror that states the identical
    candidate rule (levenshtein ≤ 1), bigram counts (positional
    self-join on i+1) and score tree.  Emitted as
    (query_id, rank, suggestion, score)."""
    s = _Run(sf_dir).s
    return _table([(qid, rank, " ".join(words), score)
                   for qid, t1, t2 in PHRASE_SUGGEST_QUERIES
                   for rank, (score, words) in enumerate(s.suggest_phrase(
                       [t1, t2], n=_PHRASE_SUGGEST_N,
                       max_candidates=_PHRASE_SUGGEST_CANDS), start=1)],
                  "query_id rank suggestion:str score:f64")


def _phrase_suggest_sql() -> str:
    qvals = ", ".join(f"({qid}, '{t1}', '{t2}')"
                      for qid, t1, t2 in PHRASE_SUGGEST_QUERIES)
    # c1 / c2: each slot's candidates, df-ranked and capped
    cands = ",\n".join(f"""c{i} AS (SELECT query_id, term FROM (
         SELECT q.query_id, df.term,
                row_number() OVER (PARTITION BY q.query_id
                                   ORDER BY df.df DESC, df.term) AS rk
         FROM q JOIN df ON levenshtein(df.term, q.qt{i}) <= 1)
       WHERE rk <= {_PHRASE_SUGGEST_CANDS})""" for i in (1, 2))
    return f"""{_sql_head(
        q=f"q(query_id, qt1, qt2) AS (VALUES {qvals})", positions=True)},
tfsum AS (SELECT term, count(*) AS c FROM tok GROUP BY term),
big AS (SELECT a.term AS t1, b.term AS t2, count(*) AS c
        FROM tok a JOIN tok b ON b.doc_id = a.doc_id AND b.i = a.i + 1
        GROUP BY a.term, b.term),
{cands},
scored AS (
  SELECT c1.query_id, c1.term AS w1, c2.term AS w2,
         round(ln(CAST(u1.c AS DOUBLE) / s.total_tokens)
               + CASE WHEN b.c IS NOT NULL
                      THEN ln(CAST(b.c AS DOUBLE) / u1.c)
                      ELSE ln(0.4 * u2.c / s.total_tokens) END,
               10) AS score
  FROM c1
  JOIN c2 ON c2.query_id = c1.query_id
  JOIN tfsum u1 ON u1.term = c1.term
  JOIN tfsum u2 ON u2.term = c2.term
  LEFT JOIN big b ON b.t1 = c1.term AND b.t2 = c2.term
  CROSS JOIN stats s)
SELECT query_id, rank, suggestion, score
FROM (SELECT query_id, w1 || ' ' || w2 AS suggestion, score,
             row_number() OVER (PARTITION BY query_id
                                ORDER BY score DESC, w1, w2) AS rank
      FROM scored)
WHERE rank <= {_PHRASE_SUGGEST_N}
"""


_EXPLAIN_TOP_N = 3


def bm25_explain_documents(sf_dir: str, top_n: int = _EXPLAIN_TOP_N
                           ) -> pa.Table:
    """ES ``_explain`` as a value-checked pipeline: for each reference
    query's top-``top_n`` documents, one row per matching query term
    with its exact tf, df, and BM25 contribution — the same expression
    tree the oracle states in SQL.  Contributions are rounded to 10
    decimals on BOTH sides: the trees match but the platform libm's
    log() and DuckDB's ln() can disagree by one ULP (~1e-16 observed),
    the one per-row float case the repo's bit-determinism discipline
    can't cover (rank tables are immune — a 1-ULP score wiggle doesn't
    reorder; a raw float column isn't)."""
    run = _Run(sf_dir)
    s, idmap = run.s, run.idmap
    rows = []
    for qid, terms in REFERENCE_QUERIES:
        ranked = s.search(terms, k=run.k)
        if not ranked:
            continue
        # the driver-facing rank order is (score desc, ORIGINAL id) —
        # same re-rank as _rank_rows, kept in engine-id space so
        # explain() can address the doc
        eng = np.array([d for d, _ in ranked], dtype=np.int64)
        orig = np.array([idmap[int(d)] for d in eng], dtype=np.int64)
        sc = np.array([x for _, x in ranked], dtype=np.float64)
        for j in np.lexsort((orig, -sc))[:top_n]:
            ex = s.explain(terms, int(eng[j]))
            rows += [(qid, int(orig[j]), term, int(ex[term]["tf"]),
                      int(ex[term]["df"]),
                      round(ex[term]["contribution"], 10))
                     for term in sorted(ex)]
    return _table(rows, "query_id doc_id term:str tf df contribution:f64")


def _bm25_explain_sql() -> str:
    return _ranked_sql(post=f"""topn AS (
{_top_sql(k=_EXPLAIN_TOP_N, cols="query_id, doc_id")})""", tail=f"""\
SELECT q.query_id, t3.doc_id, q.term,
       CAST(tf.tf AS BIGINT) AS tf,
       CAST(df.df AS BIGINT) AS df,
       round({_SCORE_TERM}, 10) AS contribution
FROM topn t3
JOIN q  ON q.query_id = t3.query_id
JOIN tf ON tf.term = q.term AND tf.doc_id = t3.doc_id
JOIN df ON df.term = q.term
JOIN dl ON dl.doc_id = t3.doc_id
CROSS JOIN stats s
ORDER BY q.query_id, t3.doc_id, q.term""")


# span_not: include-term docs with NO exclude occurrence within dist
# tokens of SOME include occurrence.  The SQL oracle states the
# predicate per OCCURRENCE (NOT EXISTS over the positional CTE),
# independent of the engine's composite-key neighbor check.
SPAN_NOT_QUERIES: list[tuple[int, str, str, int]] = [
    (1, "merge", "group", 2),
    (2, "join", "window", 1),
    (3, "data", "slow", 3),
    (4, "order", "fast", 1),
    (5, "filter", "scan", 2),
]


def bm25_span_not_documents(sf_dir: str) -> pa.Table:
    """ES/Lucene ``span_not`` path (single-term spans, symmetric
    pre/post = dist): rank documents having at least one ``include``
    occurrence with no ``exclude`` occurrence within ``dist`` tokens;
    survivors keep the include term's plain BM25 contribution
    (membership gates, never rescales).  Full-depth + original-id
    re-rank like every fulltext query."""
    return _ranked(sf_dir, SPAN_NOT_QUERIES, lambda s, k, inc, exc, dist:
                   s.search_span_not(inc, exc, dist, k=k))


def _bm25_span_not_sql() -> str:
    return _span_scored_sql(
        [f"SELECT DISTINCT {qid} AS query_id, ti.doc_id\n"
         f"  FROM tok ti\n"
         f"  WHERE ti.term = '{inc}' AND NOT EXISTS (\n"
         f"    SELECT 1 FROM tok te\n"
         f"    WHERE te.doc_id = ti.doc_id AND te.term = '{exc}'\n"
         f"      AND abs(te.i - ti.i) <= {dist})"
         for qid, inc, exc, dist in SPAN_NOT_QUERIES],
        [(qid, [inc]) for qid, inc, _exc, _d in SPAN_NOT_QUERIES])


_RARE_MAX_DF = 100


def bm25_rare_terms(sf_dir: str, max_doc_count: int = _RARE_MAX_DF) -> pa.Table:
    """ES ``rare_terms`` aggregation: the long-tail terms with
    document frequency ≤ ``max_doc_count`` (the complement of the
    heavy-hitters sketch).  Dictionary-only — a distributed pruned
    read of the segment (term, df) columns, partial-summed per batch
    (salted hot terms contribute several rows whose dfs re-add
    exactly), one tiny groupby; postings are never decoded.  The
    threshold is calibrated to this corpus's seeded rare-token tail
    (everyday terms sit at df≈0.75·N)."""
    import ray.data
    from ray.data.aggregate import Sum

    root = _ensure_index(sf_dir)
    seg_files = [s["path"] for s in mf.load_manifest(root)["segments"]]

    def partial(t: pa.Table) -> pa.Table:
        g = (t.select(["term", "df"]).group_by("term")
             .aggregate([("df", "sum")]))
        return g.rename_columns(["term", "df_part"])

    agg = (ray.data.read_parquet(seg_files, columns=["term", "df"])
           .map_batches(partial, batch_format="pyarrow",
                        zero_copy_batch=True)
           .groupby("term")
           .aggregate(Sum("df_part", alias_name="df")))
    parts = list(agg.iter_batches(batch_format="pyarrow"))
    t = (pa.concat_tables(parts) if parts
         else pa.table({"term": pa.array([], pa.string()),
                        "df": pa.array([], pa.int64())}))
    t = pa.table({"term": t["term"], "df": t["df"].cast(pa.int64())})
    t = t.filter(pc.less_equal(t["df"], max_doc_count))
    return t.take(pc.sort_indices(t, sort_keys=[
        ("df", "ascending"), ("term", "ascending")]))


def _rare_terms_sql() -> str:
    return f"""
{_base_ctes()}
SELECT term, CAST(df AS BIGINT) AS df
FROM df WHERE df <= {_RARE_MAX_DF}
ORDER BY df, term
"""


_TV_DOCS = 10


def bm25_termvectors(sf_dir: str) -> pa.Table:
    """ES ``_termvectors`` analog: per-document term statistics for a
    fixed doc set — term frequency from a re-analysis of the stored
    text with the INDEX's own (manifest-reconstructed) tokenizer, and
    LIVE index-wide document frequency from the dictionary
    (chunk-df sums, no posting decode — the term_df path MLT uses).
    The stored-field fetch is a pruned, filtered source read (doc_id
    pushdown), never a table scan."""
    s = _Run(sf_dir).s
    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"],
                      filters=[("doc_id", "<", _TV_DOCS)])
    tok = s._tokenizer()
    rows = []
    for did, text in sorted(zip(t["doc_id"].to_pylist(),
                                t["text"].to_pylist())):
        counts = tok.counts(text or "")
        rows += [(did, term, counts[term], s.term_df(term))
                 for term in sorted(counts)]
    return _table(rows, "doc_id term:str tf df")


def _termvectors_sql() -> str:
    return f"""
{_base_ctes()}
SELECT tf.doc_id, tf.term,
       CAST(tf.tf AS BIGINT) AS tf,
       CAST(df.df AS BIGINT) AS df
FROM tf JOIN df ON df.term = tf.term
WHERE tf.doc_id < {_TV_DOCS}
ORDER BY tf.doc_id, tf.term
"""


def _rank_eval_sql() -> str:
    return _ranked_sql(**_N_MATCHED, name="scored", post=f"""rel AS (
  SELECT sc.query_id, sc.doc_id
  FROM scored sc JOIN qn ON qn.query_id = sc.query_id
  WHERE sc.n_matched = qn.n_terms),
nrel AS (SELECT query_id, CAST(count(*) AS BIGINT) AS n_relevant
         FROM rel GROUP BY query_id),
win AS (
  SELECT r.query_id, r.rank, rel.doc_id IS NOT NULL AS is_rel
  FROM ({_top_sql("scored", cols="query_id, doc_id, rank")}) r
  LEFT JOIN rel ON rel.query_id = r.query_id AND rel.doc_id = r.doc_id)""",
        tail="""\
SELECT w.query_id,
       coalesce(n.n_relevant, 0) AS n_relevant,
       CAST(sum(CASE WHEN w.is_rel THEN 1 ELSE 0 END) AS DOUBLE) / 10.0
         AS p_at_10,
       coalesce(max(CASE WHEN w.is_rel THEN 1.0 / w.rank END), 0.0) AS rr
FROM win w LEFT JOIN nrel n ON n.query_id = w.query_id
GROUP BY w.query_id, n.n_relevant""")


CORPUS_DOCS_SQL = f"""
SELECT 'org' || (doc_id % 10) || '/repo' || (doc_id % 97) AS repo,
       'src/doc_' || doc_id || '.txt'                      AS path,
       substr(sha256(CAST(doc_id AS VARCHAR)), 1, 40)      AS commit_sha,
       lang,
       len(regexp_extract_all(lower(text), '{TOKEN_PATTERN}')) AS n_tokens,
       sha256(text)                                        AS sha_hex
FROM documents
"""


# ES _mget analog: stored-field retrieval for an explicit id list
# from the INDEX's docs store (not the raw table) — missing ids get a
# found=false row like ES's docs[].found.  The fetch is a distributed
# pruned read of the docs files with the wanted-id set broadcast; only
# matching rows leave each task.
_MGET_IDS = (3, 5, 7, 11, 99_999_999)     # last one intentionally absent


def mget_documents(sf_dir: str) -> pa.Table:
    import ray
    import ray.data

    root = _ensure_index(sf_dir)
    want = set(_MGET_IDS)
    # a 5-int constant rides the task closure; ray.put would only add
    # a plasma round-trip (broadcast is for BIG sides)
    want_arr_list = sorted(want)

    def pick(t: pa.Table) -> pa.Table:
        orig = np.array([_orig_id(p) for p in t["path"].to_pylist()],
                        dtype=np.int64)
        keep = np.isin(orig, np.array(want_arr_list, dtype=np.int64))
        t = t.filter(pa.array(keep))
        sha = [binascii.hexlify(x).decode()
               for x in t["content_sha256"].to_pylist()]
        return pa.table({
            "doc_id": pa.array(orig[keep], pa.int64()),
            "lang": t["lang"],
            "n_tokens": t["length"].cast(pa.int64()),
            "sha_hex": pa.array(sha, pa.string())})

    files = _docs_files(root)
    got = pa.concat_tables(list(
        ray.data.read_parquet(files,
                              columns=["path", "lang", "length",
                                       "content_sha256"])
        .map_batches(pick, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow", batch_size=1 << 20))
        or [pa.table({"doc_id": pa.array([], pa.int64()),
                      "lang": pa.array([], pa.string()),
                      "n_tokens": pa.array([], pa.int64()),
                      "sha_hex": pa.array([], pa.string())})])
    found = {int(d) for d in got["doc_id"].to_pylist()}
    missing = sorted(want - found)
    out = pa.table({
        "doc_id": pa.concat_arrays([got["doc_id"].combine_chunks(),
                                    pa.array(missing, pa.int64())]),
        "lang": pa.concat_arrays([got["lang"].combine_chunks(),
                                  pa.array([""] * len(missing))]),
        "n_tokens": pa.concat_arrays([got["n_tokens"].combine_chunks(),
                                      pa.array([0] * len(missing),
                                               pa.int64())]),
        "sha_hex": pa.concat_arrays([got["sha_hex"].combine_chunks(),
                                     pa.array([""] * len(missing))]),
        "found": pa.array([True] * len(got) + [False] * len(missing)),
    })
    return out.take(pc.sort_indices(out, sort_keys=[("doc_id",
                                                     "ascending")]))


MGET_SQL = f"""
WITH want(doc_id) AS (VALUES {", ".join(f"({i})" for i in _MGET_IDS)})
SELECT w.doc_id,
       coalesce(d.lang, '') AS lang,
       CAST(coalesce(len(regexp_extract_all(lower(d.text),
                                            '{TOKEN_PATTERN}')), 0)
            AS BIGINT) AS n_tokens,
       coalesce(sha256(d.text), '') AS sha_hex,
       d.doc_id IS NOT NULL AS found
FROM want w LEFT JOIN documents d USING (doc_id)
ORDER BY w.doc_id
"""


_ANALYZE_DOCS = 10


def analyze_tokens_documents(sf_dir: str):
    """ES ``_analyze`` API analog: the full token STREAM with
    positions for a fixed doc set, produced by the engine's own
    Tokenizer in its SQL-reproducible ``simple`` mode (the mode this
    module's every oracle assumes — the default identifier-splitting
    analyzer would emit extra subtokens no SQL regex can mirror) as a
    distributed map_batches stage over a pruned, row-filtered read.
    Emitted as (doc_id, position, token)."""
    import pyarrow.compute as _pc
    import ray.data

    from mee_ray.config import TokenizerConfig
    from mee_ray.tokenizer import Tokenizer

    class Analyze:
        def __init__(self):
            self.tok = Tokenizer(TokenizerConfig.simple())

        def __call__(self, t: pa.Table) -> pa.Table:
            d, p, w = [], [], []
            for did, text in zip(t["doc_id"].to_pylist(),
                                 t["text"].to_pylist()):
                for i, term in enumerate(self.tok.terms(text or "")):
                    d.append(did)
                    p.append(i)
                    w.append(term)
            return pa.table({"doc_id": pa.array(d, pa.int64()),
                             "position": pa.array(p, pa.int64()),
                             "token": pa.array(w, pa.string())})

    return (ray.data.read_parquet(
                f"{sf_dir}/documents.parquet",
                columns=["doc_id", "text"],
                filter=(_pc.field("doc_id") < _ANALYZE_DOCS))
            .map_batches(Analyze(), batch_format="pyarrow"))


ANALYZE_SQL = f"""
SELECT doc_id,
       CAST(generate_subscripts(l, 1) - 1 AS BIGINT) AS position,
       unnest(l) AS token
FROM (SELECT doc_id,
             regexp_extract_all(lower(text), '{TOKEN_PATTERN}') AS l
      FROM documents WHERE doc_id < {_ANALYZE_DOCS})
"""


QUERIES = {
    "analyze_tokens_documents": analyze_tokens_documents,
    "bm25_topk_documents": bm25_topk_documents,
    "bm25_search_template_documents": bm25_search_template_documents,
    "bm25_conjunctive_documents": bm25_conjunctive_documents,
    "bm25_phrase_documents": bm25_phrase_documents,
    "bm25_span_near_documents": bm25_span_near_documents,
    "bm25_phrase_prefix_documents": bm25_phrase_prefix_documents,
    "bm25_filtered_documents": bm25_filtered_documents,
    "bm25_boolean_documents": bm25_boolean_documents,
    "bm25_facet_counts": bm25_facet_counts,
    "bm25_snippets_documents": bm25_snippets_documents,
    "hybrid_rrf_documents": hybrid_rrf_documents,
    "bm25_prefix_documents": bm25_prefix_documents,
    "bm25_fuzzy_documents": bm25_fuzzy_documents,
    "bm25_wildcard_documents": bm25_wildcard_documents,
    "bm25_regexp_documents": bm25_regexp_documents,
    "bm25_function_score_documents": bm25_function_score_documents,
    "bm25_rescore_documents": bm25_rescore_documents,
    "bm25_multifield_documents": bm25_multifield_documents,
    "bm25_cross_fields_documents": bm25_cross_fields_documents,
    "bm25_combined_fields_documents": bm25_combined_fields_documents,
    "bm25_collapse_documents": bm25_collapse_documents,
    "bm25_synonym_documents": bm25_synonym_documents,
    "completion_suggest_documents": completion_suggest_documents,
    "bm25_corrected_documents": bm25_corrected_documents,
    "bm25_boosting_documents": bm25_boosting_documents,
    "bm25_pinned_documents": bm25_pinned_documents,
    "bm25_rank_feature_documents": bm25_rank_feature_documents,
    "bm25_simple_query_string": bm25_simple_query_string,
    "bm25_decay_documents": bm25_decay_documents,
    "bm25_constant_score_documents": bm25_constant_score_documents,
    "bm25_batch_rank_documents": bm25_batch_rank_documents,
    "bm25_min_match_documents": bm25_min_match_documents,
    "bm25_terms_set_documents": bm25_terms_set_documents,
    "bm25_match_bool_prefix_documents": bm25_match_bool_prefix_documents,
    "bm25_intervals_documents": bm25_intervals_documents,
    "bm25_span_containing_documents": bm25_span_containing_documents,
    "bm25_span_within_documents": bm25_span_within_documents,
    "bm25_span_or_near_documents": bm25_span_or_near_documents,
    "bm25_span_multi_documents": bm25_span_multi_documents,
    "bm25_distance_feature_documents": bm25_distance_feature_documents,
    "bm25_common_terms_documents": bm25_common_terms_documents,
    "bm25_script_score_documents": bm25_script_score_documents,
    "bm25_weighted_documents": bm25_weighted_documents,
    "bm25_mlt_documents": bm25_mlt_documents,
    "bm25_dismax_documents": bm25_dismax_documents,
    "bm25_search_after_documents": bm25_search_after_documents,
    "bm25_significant_terms": bm25_significant_terms,
    "bm25_match_counts": bm25_match_counts,
    "bm25_rank_eval": bm25_rank_eval,
    "bm25_termvectors": bm25_termvectors,
    "bm25_rare_terms": bm25_rare_terms,
    "bm25_span_first_documents": bm25_span_first_documents,
    "bm25_span_not_documents": bm25_span_not_documents,
    "bm25_explain_documents": bm25_explain_documents,
    "phrase_suggest_documents": phrase_suggest_documents,
    "percolate_phrase_documents": percolate_phrase_documents,
    "adjacency_matrix_documents": adjacency_matrix_documents,
    "percolate_documents": percolate_documents,
    "term_suggest_documents": term_suggest_documents,
    "bm25_sort_by_field": bm25_sort_by_field,
    "bm25_range_agg": bm25_range_agg,
    "bm25_stats_agg": bm25_stats_agg,
    "bm25_top_hits": bm25_top_hits,
    "index_term_stats": index_term_stats,
    "corpus_docs_table": corpus_docs_table,
    "mget_documents": mget_documents,
}

ORACLE = {
    "analyze_tokens_documents": ANALYZE_SQL,
    "bm25_topk_documents": _ranked_sql(),
    "bm25_search_template_documents":
        _ranked_sql(_rendered_template_queries()),
    "bm25_conjunctive_documents": _bm25_conj_sql(),
    "bm25_phrase_documents": _bm25_phrase_sql(),
    "bm25_span_near_documents": _bm25_span_near_sql(),
    "bm25_phrase_prefix_documents": _bm25_phrase_prefix_sql(),
    "bm25_filtered_documents": _bm25_filtered_sql(),
    "bm25_boolean_documents": _bm25_boolean_sql(),
    "bm25_facet_counts": _bm25_facets_sql(),
    "bm25_snippets_documents": _bm25_snippets_sql(),
    "hybrid_rrf_documents": _hybrid_rrf_sql(),
    "bm25_prefix_documents": _bm25_prefix_sql(),
    "bm25_fuzzy_documents": _bm25_fuzzy_sql(),
    "bm25_wildcard_documents": _bm25_wildcard_sql(),
    "bm25_regexp_documents": _bm25_regexp_sql(),
    "bm25_function_score_documents": _bm25_function_score_sql(),
    "bm25_rescore_documents": _bm25_rescore_sql(),
    "bm25_multifield_documents": _bm25_multifield_sql(),
    "bm25_cross_fields_documents": _bm25_cross_fields_sql(),
    "bm25_combined_fields_documents": _bm25_combined_fields_sql(),
    "bm25_collapse_documents": _bm25_collapse_sql(),
    "bm25_synonym_documents": _bm25_synonym_sql(),
    "completion_suggest_documents": _completion_sql(),
    "bm25_corrected_documents": _bm25_corrected_sql(),
    "bm25_boosting_documents": _bm25_boosting_sql(),
    "bm25_pinned_documents": _bm25_pinned_sql(),
    "bm25_rank_feature_documents": _bm25_rank_feature_sql(),
    "bm25_simple_query_string": _bm25_sqs_sql(),
    "bm25_decay_documents": _bm25_decay_sql(),
    "bm25_constant_score_documents": _bm25_constant_score_sql(),
    # same ranking contract as bm25_topk — the plumbing differs
    "bm25_batch_rank_documents": _ranked_sql(),
    "bm25_min_match_documents": _bm25_min_match_sql(),
    "bm25_terms_set_documents": _bm25_terms_set_sql(),
    "bm25_match_bool_prefix_documents": _bm25_match_bool_prefix_sql(),
    "bm25_intervals_documents": _bm25_intervals_sql(),
    "bm25_span_containing_documents": _bm25_span_containing_sql(),
    "bm25_span_within_documents": _bm25_span_within_sql(),
    "bm25_span_or_near_documents": _bm25_span_or_sql(),
    "bm25_span_multi_documents": _bm25_span_multi_sql(),
    "bm25_distance_feature_documents": _bm25_distance_feature_sql(),
    "bm25_common_terms_documents": _bm25_common_terms_sql(),
    "bm25_script_score_documents": _bm25_script_score_sql(),
    "bm25_weighted_documents": _bm25_weighted_sql(),
    "bm25_mlt_documents": _bm25_mlt_sql(),
    "bm25_dismax_documents": _bm25_dismax_sql(),
    "bm25_search_after_documents": _ranked_sql(k=PAGED_K),
    "bm25_significant_terms": _bm25_sig_terms_sql(),
    "bm25_match_counts": _bm25_counts_sql(),
    "bm25_rank_eval": _rank_eval_sql(),
    "bm25_termvectors": _termvectors_sql(),
    "bm25_rare_terms": _rare_terms_sql(),
    "bm25_span_first_documents": _span_first_sql(),
    "bm25_span_not_documents": _bm25_span_not_sql(),
    "bm25_explain_documents": _bm25_explain_sql(),
    "phrase_suggest_documents": _phrase_suggest_sql(),
    "percolate_phrase_documents": _percolate_phrase_sql(),
    "adjacency_matrix_documents": _adjacency_matrix_sql(),
    "percolate_documents": _percolate_sql(),
    "term_suggest_documents": _term_suggest_sql(),
    "bm25_sort_by_field": _bm25_sort_sql(),
    "bm25_range_agg": _bm25_range_agg_sql(),
    "bm25_stats_agg": _bm25_stats_agg_sql(),
    "bm25_top_hits": _bm25_top_hits_sql(),
    "index_term_stats": INDEX_STATS_SQL,
    "corpus_docs_table": CORPUS_DOCS_SQL,
    "mget_documents": MGET_SQL,
}
