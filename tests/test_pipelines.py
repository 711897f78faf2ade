"""Operator-surface tests: every SQL-checked queries() entry vs its
DuckDB oracle at sf0.001 (the driver's compare, locally), plus
brute-force oracles for the sketch/approximate ops that have no SQL."""

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
TABLES = ("region nation customer supplier part orders lineitem "
          "events documents embeddings").split()


@pytest.fixture(scope="session")
def entry_mod(ray_session):
    import __ray_entry__ as e
    return e


@pytest.fixture(scope="session")
def ducks():
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return con


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    return df.sort_values(by=list(df.columns), kind="mergesort").reset_index(drop=True)


def _to_pandas(res):
    import pyarrow as pa
    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()


SQL_CHECKED = [
    "q1_pricing_summary", "filter_project_revenue", "join_revenue_by_nation",
    "order_lineitem_rollup", "agg_pushdown_counts", "topk_orders",
    "distinct_priorities", "filter_ops_events", "scalar_funcs_lineitem",
    "scalar_dsl_lineitem", "session_windows_events",
    "asof_join_purchase_click", "quantiles_events",
    "topk_orders_per_customer",
    "latest_event_per_user", "tumbling_window_events", "event_type_routing",
    "semi_join_events_customers", "anti_join_events_customers",
    "dsir_weights_documents", "dsir_select_documents",
    "gopher_rules_documents", "terms_error_bounds_documents",
    "dataset_summary_documents", "quality_training_mix_documents",
    "doc_token_counts", "chunk_documents", "doc_term_df",
    "doc_fingerprint", "dedup_exact",
    "doc_quality_scores", "lang_id_documents", "knn_bruteforce",
    "embedding_dims", "bm25_topk_documents", "index_term_stats",
    "corpus_docs_table", "mget_documents", "multimodal_image_meta",
    "hopping_window_events", "range_join_orders_bands",
    "event_gaps_per_user", "docbuild_interpolated",
    "bm25_conjunctive_documents", "stratified_sample_documents",
    "exact_top_terms", "bm25_phrase_documents", "bm25_search_template_documents", "bm25_span_near_documents",
    "bm25_phrase_prefix_documents", "json_extract_events",
    "composite_agg_events", "q7_volume_shipping",
    "percentile_ranks_events", "q15_top_supplier",
    "q17_small_quantity_revenue", "knn_filtered", "knn_grouped",
    "hard_negatives_embeddings",
    "curate_documents", "bm25_cross_fields_documents", "funnel_events", "retention_cohorts_events", "ks_test_events",
    "bm25_filtered_documents",
    "shuffle_join_lineitem_orders", "bm25_boolean_documents",
    "bm25_facet_counts", "pii_scrub_documents",
    "repetition_scores_documents", "bm25_snippets_documents",
    "hybrid_rrf_documents", "bm25_prefix_documents",
    "bm25_fuzzy_documents", "bm25_min_match_documents",
    "substring_dedup_spans_documents",
    "bm25_weighted_documents", "bm25_mlt_documents",
    "bm25_decay_documents", "bm25_pinned_documents",
    "bm25_rank_feature_documents", "bm25_simple_query_string",
    "bm25_dismax_documents", "bm25_search_after_documents",
    "bm25_significant_terms", "bm25_match_counts",
    "percolate_documents", "term_suggest_documents",
    "bm25_wildcard_documents", "bm25_regexp_documents",
    "bm25_function_score_documents", "rollup_pricing_totals",
    "date_histogram_events", "pivot_orders_status",
    "bm25_rescore_documents", "passage_dedup_documents",
    "running_total_orders", "dense_rank_orders",
    "bm25_multifield_documents", "bm25_collapse_documents",
    "distinct_users_per_event_type", "moving_window_events",
    "bm25_synonym_documents", "completion_suggest_documents",
    "bm25_corrected_documents", "salted_join_lineitem_orders",
    "q3_shipping_priority", "contamination_check_documents",
    "bm25_boosting_documents", "bm25_constant_score_documents",
    "bm25_batch_rank_documents", "q18_large_volume_customers",
    "q4_order_priority", "q5_local_supplier_volume",
    "q6_forecast_revenue", "q10_returned_items", "q14_promo_revenue",
    "q13_customer_distribution", "q19_discounted_revenue",
    "q22_sales_opportunity",
    "bm25_sort_by_field", "bm25_range_agg", "bm25_stats_agg",
    "bm25_top_hits", "training_mix_sample", "temperature_mix_documents",
    "cube_pricing_totals", "ntile_orders", "docbuild_nested_query",
    "neardup_gram_clusters", "neardup_representatives",
    "training_export_shards", "corpus_to_training_shards",
    "q8_market_share", "q21_waiting_suppliers",
    "bm25_rank_eval", "bm25_termvectors", "bm25_rare_terms",
    "bm25_span_first_documents", "derivative_events",
    "pack_training_sequences",
    "q2_min_cost_supplier", "q9_product_profit", "q11_important_parts",
    "q12_priority_classes", "q16_supplier_part_cnt",
    "q20_excess_suppliers", "ngram_jaccard_adjacent",
    "bm25_span_not_documents", "bm25_explain_documents",
    "phrase_suggest_documents", "percolate_phrase_documents",
    "matrix_stats_lineitem", "adjacency_matrix_documents",
    "weighted_avg_lineitem", "has_child_orders", "has_parent_lineitems",
    "docbuild_multi_index", "bm25_terms_set_documents",
    "bm25_match_bool_prefix_documents", "bm25_intervals_documents",
    "bm25_common_terms_documents", "bm25_script_score_documents",
    "serial_diff_events", "bucket_script_events",
    "extended_stats_events", "mad_events", "training_shuffle_order",
    "top_metrics_events", "auto_date_histogram_events",
    "bm25_span_containing_documents", "bm25_span_within_documents",
    "bm25_span_or_near_documents", "bm25_combined_fields_documents",
    "filters_agg_events", "multi_terms_events", "date_range_agg_events",
    "rate_agg_events", "cumulative_cardinality_events",
    "diversified_sample_documents", "string_stats_documents",
    "boxplot_events", "histogram_events", "bucket_sort_events",
    "normalize_events", "bm25_span_multi_documents",
    "bm25_distance_feature_documents", "moving_percentiles_events",
    "t_test_events", "stats_bucket_events", "scripted_metric_events",
    "change_point_events", "variable_width_histogram_events",
    "frequent_item_sets_events", "categorize_text_documents",
    "significant_text_documents", "random_sampler_events",
    "analyze_tokens_documents", "pagerank_users",
    "geo_bounding_box_events", "geo_grid_events", "geo_centroid_events",
    "geo_distance_count_events", "geo_distance_topk_events",
    "geo_distance_rings_events", "ip_range_events", "geo_bounds_events",
    "geo_polygon_events", "geo_line_events", "ip_prefix_events",
    "missing_agg_events", "children_agg_orders", "parent_agg_lineitem",
    "zorder_partitions_events",
    "multimodal_wav_real", "multimodal_png_real",
    "multimodal_audio_features", "multimodal_video_frames",
    "multimodal_retrieval",
]


def test_bloom_membership_invariants(entry_mod, ducks, ray_session):
    """Bloom seen-set: (1) NO false negatives — every seen (even) id
    re-probed against the filter must hit; (2) the measured FP rate on
    the disjoint odd probe set stays under a generous bound for
    n≈corpus/2 keys in a 2^17-bit / 5-hash filter (theoretical ≈1e-4
    at sf0.001's 250 keys; 5% leaves room for sf growth)."""
    import numpy as np
    import ray.data
    from mee_ray.pipelines.text import (_bloom_positions, bloom_build,
                                        bloom_membership_documents)

    docs = ray.data.read_parquet(f"{SF}/documents.parquet",
                                 columns=["doc_id", "source"])
    import pyarrow.compute as pc_
    seen_ds = docs.map_batches(
        lambda t: t.filter(pc_.equal(pc_.bit_wise_and(t["doc_id"], 1), 0)),
        batch_format="pyarrow")
    bits = bloom_build(seen_ds)
    seen_ids = np.array(
        [r["doc_id"] for r in seen_ds.take_all()], dtype=np.uint64)
    assert bits[_bloom_positions(seen_ids)].all(axis=1).all(), \
        "false negative: a seen id failed its own filter"

    out = bloom_membership_documents(SF).to_pandas()
    n_probed, n_flagged = out["n_probed"].sum(), out["n_flagged"].sum()
    exact = ducks.execute(
        "SELECT count(*) FROM documents WHERE doc_id % 2 = 1").fetchone()[0]
    assert n_probed == exact
    assert n_flagged <= 0.05 * n_probed, \
        f"FP rate {n_flagged / n_probed:.3f} above bound"


def test_training_mix_is_deterministic_and_weighted(entry_mod, ray_session):
    """The mixture sample is a pure function of doc_id — two runs are
    identical — and each source's realized rate is exactly the hash
    rule's selection (checked per-row, not statistically)."""
    from mee_ray.pipelines.text import KNUTH_MULT, MIX_MOD, \
        training_mix_sample

    a = training_mix_sample(SF).to_pandas().sort_values("doc_id") \
        .reset_index(drop=True)
    b = training_mix_sample(SF).to_pandas().sort_values("doc_id") \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_exact=True)
    for _, row in a.iterrows():
        rate = 100 + 150 * (int(row["source"][3:]) % 5)
        assert (row["doc_id"] * KNUTH_MULT) % MIX_MOD < rate
        assert row["rate_pml"] == rate


def test_heavy_hitters_bounds_and_coverage(entry_mod, ducks, ray_session):
    """SpaceSaving-style summary invariants: every emitted term's
    bounds contain its exact count, and the exact top-10 terms all
    surface in the sketch output."""
    hh = entry_mod.queries()["heavy_hitters_terms"](SF).to_pandas()
    exact = dict(ducks.execute(
        "SELECT term, count(*) FROM (SELECT unnest(regexp_extract_all("
        "lower(text),'[a-z0-9_]+')) term FROM documents) GROUP BY term"
    ).fetchall())
    assert len(hh) > 0
    for r in hh.itertuples():
        assert r.count_min <= exact[r.term] <= r.count_max, r.term
    top10 = set(ducks.execute(
        entry_mod.oracle_sql()["exact_top_terms"]).df().head(10).term)
    assert top10 <= set(hh.term)


@pytest.mark.parametrize("name", SQL_CHECKED)
def test_query_matches_oracle(entry_mod, ducks, name):
    mine = _canon(_to_pandas(entry_mod.queries()[name](SF)))
    ref = _canon(ducks.execute(entry_mod.oracle_sql()[name]).df())
    assert list(mine.columns) == list(ref.columns)
    assert len(mine) == len(ref)
    pd.testing.assert_frame_equal(mine, ref, check_dtype=False, check_exact=True)


def test_every_query_has_oracle_or_is_flagged(entry_mod):
    qs, os_ = entry_mod.queries(), entry_mod.oracle_sql()
    assert set(os_) <= set(qs)
    rows_only = set(qs) - set(os_)
    # sketch/approximate ops and float-feature extraction are the only
    # sanctioned rows-only entries
    assert rows_only == {"minhash_lsh_candidates", "simhash_signatures",
                         "minhash_neardup_clusters",
                         "embedding_neardup_clusters",
                         "simhash_dup_pairs",
                         "embedding_neardup", "ann_ivf_topk",
                         "hll_distinct_counts", "heavy_hitters_terms",
                         "quantile_sketch_events",
                         "kmeans_assign_embeddings",
                         "lm_score_documents", "bpe_tokenize_documents",
                         "semdedup_embeddings", "mmr_rerank_embeddings",
                         "bloom_membership_documents",
                         "ann_sq_topk", "ann_pq_topk", "ann_ivfpq_topk",
                         "ann_ivfpq_refine_topk",
                         "rrf_hybrid_topk"}


def test_multimodal_retrieval_matches_bruteforce(entry_mod, ray_session):
    """End-to-end multimodal retrieval (real PNG payload → decode +
    histogram embed actor pool → broadcast-query top-k) vs a numpy
    brute force that rebuilds every embedding from the pixel formula,
    never from the decoder."""
    import numpy as np
    import pyarrow.parquet as pq

    got = entry_mod.queries()["multimodal_retrieval"](SF).to_pandas()
    ids = pq.read_table(f"{SF}/documents.parquet",
                        columns=["doc_id"])["doc_id"].to_numpy()
    embs = np.zeros((len(ids), 64), dtype=np.int64)
    for i, d in enumerate(ids.tolist()):
        x = np.arange((d % 32) + 1)
        y = np.arange((d % 24) + 1)[:, None]
        px = (d % 256 + 3 * x + 7 * y) % 256
        embs[i] = np.bincount(px.ravel() >> 2, minlength=64)
    order = np.argsort(ids)
    q_ids, q_mat = ids[order[:5]], embs[order[:5]]
    scores = (embs @ q_mat.T) / np.sqrt((embs * embs).sum(axis=1))[:, None]
    assert sorted(set(got.query_id)) == sorted(q_ids.tolist())
    for j, qid in enumerate(q_ids):
        top = np.lexsort((ids, -scores[:, j]))[:10]
        mine = got[got.query_id == qid].sort_values("rank")
        assert mine["rank"].tolist() == list(range(1, 11))
        assert mine.doc_id.tolist() == ids[top].tolist()
        # a query's own image is its best match
        assert scores[top[0], j] == scores[order[j], j]


def test_entry_smoke(entry_mod):
    df = entry_mod.entry()
    assert len(df) > 0
    assert set(df.columns) == {"query_id", "rank", "doc_id"}


# ---------------- brute-force oracles for non-SQL ops ----------------

def test_minhash_candidates_against_bruteforce(entry_mod, ray_session):
    """Every brute-force pair with Jaccard well above the LSH design
    threshold must be found; reported pairs carry exact Jaccard."""
    import pyarrow.parquet as pq
    from mee_ray.pipelines.text import TextStats, _shingles, minhash_lsh_candidates

    out = minhash_lsh_candidates(SF).to_pandas()
    got = {(a, b) for a, b in zip(out.a, out.b)}

    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    st = TextStats()
    sh = {d: _shingles(st.tokens(x))
          for d, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist())}
    ids = sorted(sh)
    strong = set()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            a, b = sh[ids[i]], sh[ids[j]]
            if not a and not b:
                continue
            jac = len(a & b) / len(a | b)
            if jac >= 0.5:  # well above banding threshold (16 bands × 4 rows)
                strong.add((ids[i], ids[j]))
    assert strong <= got


def test_simhash_pairs_are_truly_close(entry_mod, ray_session):
    from mee_ray.pipelines.text import simhash_dup_pairs, simhash_signatures
    sig = simhash_signatures(SF).to_pandas()
    hmap = dict(zip(sig.doc_id, sig.simhash))
    pairs = simhash_dup_pairs(SF).to_pandas()
    for a, b, d in zip(pairs.a, pairs.b, pairs.hamming):
        assert bin(int(hmap[a]) ^ int(hmap[b])).count("1") == d <= 3


def test_ivf_recall_vs_exact(entry_mod, ray_session):
    """IVF with n_probe=4/16 clusters must reach ≥60% average recall
    of the exact top-10 on this data (sanity floor, not a benchmark)."""
    from mee_ray.pipelines.vector import ann_ivf_topk, knn_bruteforce
    exact = knn_bruteforce(SF).to_pandas()
    approx = ann_ivf_topk(SF).to_pandas()
    recalls = []
    for q in exact.query_id.unique():
        e = set(exact[exact.query_id == q].neighbor_id)
        a = set(approx[approx.query_id == q].neighbor_id)
        recalls.append(len(e & a) / len(e))
    assert np.mean(recalls) >= 0.6


def test_sq_recall_vs_exact(entry_mod, ray_session):
    """8-bit scalar quantization must keep ≥80% average recall of the
    exact top-10 (the quantization step on unit vectors is ~1/255 per
    dim — rank inversions happen only at near-ties)."""
    from mee_ray.pipelines.vector import ann_sq_topk, knn_bruteforce
    exact = knn_bruteforce(SF).to_pandas()
    approx = ann_sq_topk(SF).to_pandas()
    recalls = []
    for q in exact.query_id.unique():
        e = set(exact[exact.query_id == q].neighbor_id)
        a = set(approx[approx.query_id == q].neighbor_id)
        recalls.append(len(e & a) / len(e))
    assert np.mean(recalls) >= 0.8


def test_pq_recall_vs_exact(entry_mod, ray_session):
    """Product quantization at m=16×128 centroids on d=64 unit
    vectors must keep ≥60% average recall of the exact top-10 (same
    floor as IVF; measured ~0.78 on this corpus — near-isotropic
    embeddings are PQ's hard case)."""
    from mee_ray.pipelines.vector import ann_pq_topk, knn_bruteforce
    exact = knn_bruteforce(SF).to_pandas()
    approx = ann_pq_topk(SF).to_pandas()
    recalls = []
    for q in exact.query_id.unique():
        e = set(exact[exact.query_id == q].neighbor_id)
        a = set(approx[approx.query_id == q].neighbor_id)
        recalls.append(len(e & a) / len(e))
    assert np.mean(recalls) >= 0.6


def test_ivfpq_recall_and_probe_subset(entry_mod, ray_session):
    """IVF-PQ composes both approximations: recall floor vs exact,
    and every reported neighbor must come from a probed cluster
    (checked by recomputing the assignment)."""
    from mee_ray.pipelines.vector import (IVFIndex, _emb_matrix, _unit,
                                          ann_ivfpq_topk, knn_bruteforce)
    import pyarrow.parquet as pq

    exact = knn_bruteforce(SF).to_pandas()
    approx = ann_ivfpq_topk(SF).to_pandas()
    recalls = []
    for q in exact.query_id.unique():
        e = set(exact[exact.query_id == q].neighbor_id)
        a = set(approx[approx.query_id == q].neighbor_id)
        recalls.append(len(e & a) / len(e))
    assert np.mean(recalls) >= 0.5

    ds = pq.read_table(f"{SF}/embeddings.parquet",
                       columns=["vec_id", "embedding"])
    ids, mat = _emb_matrix(ds)
    import ray.data
    ivf = IVFIndex().fit_dataset(
        ray.data.read_parquet(f"{SF}/embeddings.parquet",
                              columns=["vec_id", "embedding"]))
    clusters = dict(zip(ids.tolist(), ivf.assign(mat).tolist()))
    # key probes BY QUERY ID: positional enumerate misaligns if a
    # query reports zero neighbors
    q_order = np.argsort(ids)
    q_ids = ids[q_order][:5]
    qmat = _unit(mat[q_order][:5])
    probes = np.argsort(-(qmat @ ivf.centroids.T), axis=1)[:, :4]
    probe_by_q = {int(q): set(p.tolist())
                  for q, p in zip(q_ids, probes)}
    for q in approx.query_id.unique():
        allowed = probe_by_q[int(q)]
        for n in approx[approx.query_id == q].neighbor_id:
            assert clusters[n] in allowed


def test_pq_is_deterministic(entry_mod, ray_session):
    """Seeded codebook fit + deterministic tie-breaks: two runs are
    row-identical (retry/driver-rerun safety)."""
    from mee_ray.pipelines.vector import ann_pq_topk
    a = ann_pq_topk(SF).to_pandas()
    b = ann_pq_topk(SF).to_pandas()
    pd.testing.assert_frame_equal(a, b)


def test_embedding_neardup_exactness(entry_mod, ray_session):
    """Every reported pair's cosine really is ≥ τ (checked directly)."""
    import pyarrow.parquet as pq
    from mee_ray.pipelines.vector import _emb_matrix, _unit, embedding_neardup
    out = embedding_neardup(SF).to_pandas()
    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids, mat = _emb_matrix(t)
    u = _unit(mat)
    pos = {int(v): i for i, v in enumerate(ids)}
    for a, b, s in zip(out.a, out.b, out.sim):
        sim = float(u[pos[a]] @ u[pos[b]])
        assert sim >= 0.35 and abs(sim - s) < 1e-5


def test_multimodal_audio_video_stages(entry_mod, ray_session):
    """Audio runs the real WAV decoder; video decodes real PNG bytes,
    one frame per scanline, every 4th frame sampled — checked against
    the pixel formula, and corrupt bytes must raise."""
    import numpy as np
    import pyarrow as pa
    import pytest as _pytest

    from mee_ray.stages.multimodal import (PngFrameSample, WavMetaDecode,
                                           _png_payloads)

    qs = entry_mod.queries()
    a = qs["multimodal_audio_features"](SF).to_pandas()
    assert set(a.columns) == {"doc_id", *WavMetaDecode.NAMES}
    assert (a["n_samples"] == a["doc_id"] % 96 + 8).all()

    vf = qs["multimodal_video_frames"](SF).to_pandas()
    assert set(vf.columns) == {"doc_id", "n_frames", "n_sampled",
                               "sampled_pixel_sum"}
    assert (vf["n_frames"] == vf["doc_id"] % 24 + 1).all()
    assert (vf["n_sampled"] == (vf["n_frames"] + 3) // 4).all()

    ids = [0, 3, 4, 5, 23, 12345]
    t = _png_payloads(pa.table({"doc_id": pa.array(ids, pa.int64())}))
    stage = PngFrameSample()
    got = stage(t).to_pylist()
    for row, d in zip(got, ids):
        h = (d % 24) + 1
        x = np.arange((d % 32) + 1)
        y = np.arange(0, h, 4)[:, None]
        assert row == {"doc_id": d, "n_frames": h,
                       "n_sampled": len(range(0, h, 4)),
                       "sampled_pixel_sum":
                           int(((d % 256 + 3 * x + 7 * y) % 256).sum())}
    png = t["payload"][0].as_py()
    corrupt = bytearray(png)
    corrupt[40] ^= 0x01                          # flip a body bit → CRC fails
    with _pytest.raises(ValueError):
        stage.decode(bytes(corrupt))
    with _pytest.raises(ValueError):
        stage.decode(png[:30])                   # truncated chunk


def test_simhash_pairs_complete_vs_bruteforce(entry_mod, ray_session):
    """4 bands × 16 bits with hamming ≤ 3 is LOSSLESS by pigeonhole
    (≤3 differing bits can corrupt ≤3 of 4 bands), so the distributed
    banded pipeline must return EXACTLY the brute-force pair set."""
    import itertools

    from mee_ray.pipelines.text import simhash_dup_pairs, simhash_signatures

    sig = simhash_signatures(SF).to_pandas()
    hmap = dict(zip(sig.doc_id, sig.simhash))
    brute = set()
    for a, b in itertools.combinations(sorted(hmap), 2):
        d = bin(int(hmap[a]) ^ int(hmap[b])).count("1")
        if d <= 3:
            brute.add((a, b, d))
    got = simhash_dup_pairs(SF).to_pandas()
    assert set(zip(got.a, got.b, got.hamming)) == brute


def test_ngram_jaccard_matches_string_set_bruteforce(entry_mod, ray_session):
    """The distributed pair-shuffle version must reproduce the exact
    string-set Jaccard for every adjacent pair."""
    import numpy as np
    import pyarrow.parquet as pq

    from mee_ray.pipelines.text import ngram_jaccard_adjacent

    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    ids = t["doc_id"].to_pylist()
    texts = dict(zip(ids, t["text"].to_pylist()))
    order = sorted(ids)

    def g(s, n=5):
        gs = {s[i:i + n] for i in range(max(0, len(s) - n + 1))}
        if not gs and s:
            gs = {s}          # short-text fallback, mirrors the impl
        return gs

    expect = {}
    for x, y in zip(order, order[1:]):
        sx, sy = g(texts[x] or ""), g(texts[y] or "")
        expect[(x, y)] = len(sx & sy) / len(sx | sy) \
            if (sx or sy) else 1.0

    out = ngram_jaccard_adjacent(SF).to_pandas()
    got = {(a, b): j for a, b, j in zip(out.a, out.b, out.jaccard5)}
    assert got == expect


def test_embedding_neardup_recall_floor(entry_mod, ray_session):
    """IVF-bucketed candidates with 4-way multi-assignment must recover
    ≥90% of the exact τ=0.35 pair set on this data (soundness of each
    reported pair is asserted in test_embedding_neardup_exactness)."""
    import numpy as np
    import pyarrow.parquet as pq

    from mee_ray.pipelines.vector import (_emb_matrix, _unit,
                                          embedding_neardup)

    t = pq.read_table(f"{SF}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids, mat = _emb_matrix(t)
    u = _unit(mat)
    sims = u @ u.T
    iu = np.triu_indices(len(ids), k=1)
    mask = sims[iu] >= 0.35
    brute = set(zip(ids[iu[0][mask]].tolist(), ids[iu[1][mask]].tolist()))
    got = embedding_neardup(SF).to_pandas()
    found = set(zip(got.a, got.b)) & brute
    assert len(found) / max(1, len(brute)) >= 0.9


def test_hll_error_bound_and_merge_identity(entry_mod, ray_session):
    """HLL estimates stay within the sketch's error envelope of the
    exact distinct counts, and the register fold is merge-order
    invariant (elementwise max over arbitrary splits equals the
    one-shot sketch)."""
    import numpy as np

    from mee_ray.pipelines.sketches import (_M, hll_estimate, hll_fold,
                                            exact_distinct_counts,
                                            hll_distinct_counts)

    est = hll_distinct_counts(SF).to_pandas().set_index("column")
    exact = exact_distinct_counts(SF).to_pandas().set_index("column")
    for col in exact.index:
        n, e = int(exact.loc[col, "n_distinct"]), \
            int(est.loc[col, "hll_estimate"])
        # 5x standard error (1.6% at p=12) + slack for tiny counts
        assert abs(e - n) <= max(5, 0.08 * n), (col, n, e)

    rng = np.random.default_rng(11)
    vals = rng.integers(0, 2**62, size=50_000).astype(np.int64)
    one = hll_fold(vals, np.zeros(_M, dtype=np.uint8))
    merged = np.zeros(_M, dtype=np.uint8)
    for chunk in np.array_split(vals, 7):
        part = hll_fold(chunk, np.zeros(_M, dtype=np.uint8))
        np.maximum(merged, part, out=merged)
    assert np.array_equal(one, merged)
    # duplicates do not move the estimate (idempotent fold)
    dup = hll_fold(np.concatenate([vals, vals]),
                   np.zeros(_M, dtype=np.uint8))
    assert np.array_equal(one, dup)
    n_true = len(np.unique(vals))
    assert abs(hll_estimate(one) - n_true) <= 0.05 * n_true


def test_repetition_zero_token_doc_matches_oracle(ray_session, tmp_path):
    """A token-free document (pure CJK / punctuation) must appear in
    BOTH the engine output and the SQL oracle with (0, 0.0, 0.0) —
    the oracle's tok-derived CTE used to drop it structurally."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from mee_ray.pipelines.text import (REPETITION_SQL,
                                        repetition_scores_documents)
    pq.write_table(pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                             "text": ["", "你好 世界", "a a b a a"]}),
                   str(tmp_path / "documents.parquet"))
    got = _canon(repetition_scores_documents(str(tmp_path)).to_pandas())
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"'{tmp_path}/documents.parquet'")
    want = _canon(con.execute(REPETITION_SQL).df())
    assert len(got) == 3
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)


def test_simhash_degenerate_bucket_preserves_components(ray_session,
                                                        tmp_path,
                                                        monkeypatch):
    """Oversized band buckets group by FULL signature: identical-sig
    members star losslessly and cross-sig pairs go through group
    representatives — every exact-mode near-dup pair must stay in the
    same connected component of the capped-mode pair graph, and no
    capped-mode pair may exceed the hamming budget."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from mee_ray.pipelines import text
    from mee_ray.pipelines.text import simhash_dup_pairs, simhash_signatures

    texts, ids = [], []
    base = "the quick brown fox jumps over the lazy dog again and again"
    for i in range(30):                      # degenerate identical group
        ids.append(i); texts.append(base)
    near = "the quick brown fox jumps over the lazy cat again and again"
    for j, t in enumerate([near, near + " ok", base + " extra word here",
                           "completely different content about parquet "
                           "shuffles and actor pools in ray data"]):
        ids.append(100 + j); texts.append(t)
    pq.write_table(pa.table({"doc_id": pa.array(ids, pa.int64()),
                             "text": pa.array(texts)}),
                   str(tmp_path / "documents.parquet"))
    sf = str(tmp_path)

    sig = simhash_signatures(sf).to_pandas()
    hmap = dict(zip(sig.doc_id, sig.simhash))
    exact = simhash_dup_pairs(sf).to_pandas()          # buckets < 1024
    monkeypatch.setattr(text, "_MAX_ALLPAIRS_GROUP", 8)
    capped = simhash_dup_pairs(sf).to_pandas()

    # soundness: every capped pair really is within the budget
    for a, b in zip(capped.a, capped.b):
        assert bin(int(hmap[a]) ^ int(hmap[b])).count("1") <= 3

    # component preservation: union-find over capped pairs
    parent = {d: d for d in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(capped.a, capped.b):
        parent[find(a)] = find(b)
    assert len(exact), "fixture must produce exact-mode pairs"
    for a, b in zip(exact.a, exact.b):
        assert find(a) == find(b), \
            f"exact pair ({a},{b}) disconnected under the capped path"


def test_kmeans_assignment_invariants(entry_mod, ray_session):
    """k-means over embeddings: every vec_id assigned exactly once,
    deterministic across runs, and each assignment IS the argmax
    cosine centroid (recomputed brute-force from the same seeded
    fit)."""
    import pyarrow.parquet as pq

    from mee_ray.pipelines.vector import (IVFIndex, _emb_matrix, _read_emb,
                                          _unit)

    got = _to_pandas(entry_mod.queries()["kmeans_assign_embeddings"](SF))
    got = got.sort_values("vec_id").reset_index(drop=True)
    t = pq.read_table(f"{SF}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    assert len(got) == t.num_rows
    assert got.vec_id.is_unique
    # brute-force: same seeded fit, driver-side argmax
    ivf = IVFIndex(n_clusters=16).fit_dataset(_read_emb(SF))
    ids, mat = _emb_matrix(t)
    want = np.argmax(_unit(mat) @ ivf.centroids.T, axis=1)
    order = np.argsort(ids)
    assert (got.cluster_id.to_numpy() == want[order]).all()
    # deterministic across a second full run
    again = _to_pandas(entry_mod.queries()["kmeans_assign_embeddings"](SF))
    again = again.sort_values("vec_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, again)
    # clustering is non-degenerate: more than one cluster used
    assert got.cluster_id.nunique() > 1


def test_bpe_tokenize_exactness_and_compression(entry_mod, ray_session):
    """BPE fit+apply: distributed token counts equal a driver-side
    refit-and-recount bit-for-bit, and the fitted merges actually
    compress (corpus BPE tokens strictly below the no-merge
    char+eow count, at or above the word count)."""
    import pyarrow.parquet as pq

    from mee_ray.pipelines.text import (BPE_SAMPLE_DOCS, TextStats,
                                        _bpe_encode_len, _fit_bpe)

    got = _to_pandas(entry_mod.queries()["bpe_tokenize_documents"](SF))
    got = got.set_index("doc_id")
    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text"])
    st = TextStats()
    texts = t["text"].to_pylist()
    wf = {}
    for x in texts[:BPE_SAMPLE_DOCS]:
        for w in st.tokens(x):
            wf[w] = wf.get(w, 0) + 1
    ranks = {p: i for i, p in enumerate(_fit_bpe(wf))}
    assert len(ranks) > 0
    cache = {}
    for d, x in zip(t["doc_id"].to_pylist(), texts):
        toks = st.tokens(x)
        row = got.loc[d]
        assert row["n_words"] == len(toks), d
        assert row["n_chars"] == sum(len(w) for w in toks), d
        want = sum(_bpe_encode_len(w, ranks, cache) for w in toks)
        assert row["n_bpe_tokens"] == want, d
        # per-doc bounds: one token per word at best, chars+eow at worst
        assert row["n_words"] <= want <= row["n_chars"] + row["n_words"]
    # the merges must pay for themselves corpus-wide
    assert (got["n_bpe_tokens"].sum()
            < (got["n_chars"] + got["n_words"]).sum())


def test_lm_score_exactness_and_signal(entry_mod, ray_session):
    """LM scoring: distributed scores equal a driver-side recompute of
    the same seeded model bit-for-bit, and a natural-looking doc
    scores higher than a shuffled-bag pseudo-doc (perplexity actually
    measures fluency under the corpus model)."""
    import pyarrow.parquet as pq

    from mee_ray.pipelines.text import (LM_ADD_K, LM_SAMPLE_DOCS,
                                        TextStats)

    got = _to_pandas(entry_mod.queries()["lm_score_documents"](SF))
    got = got.set_index("doc_id")
    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text"])
    st = TextStats()
    texts = t["text"].to_pylist()
    big, uni = {}, {}
    for x in texts[:LM_SAMPLE_DOCS]:
        toks = st.tokens(x)
        for a, b in zip(toks, toks[1:]):
            big[(a, b)] = big.get((a, b), 0) + 1
            uni[a] = uni.get(a, 0) + 1
    v = max(1, len({w for x in texts[:LM_SAMPLE_DOCS]
                    for w in st.tokens(x)}))

    def lp(toks):
        pairs = list(zip(toks, toks[1:]))
        if not pairs:
            return None
        arr = np.log(np.array([big.get(p, 0) + LM_ADD_K for p in pairs])
                     / np.array([uni.get(p[0], 0) + LM_ADD_K * v
                                 for p in pairs]))
        return float(np.sum(arr)) / len(pairs)

    n = 0
    for d, x in zip(t["doc_id"].to_pylist(), texts):
        want = lp(st.tokens(x))
        if want is None:
            assert d not in got.index
            continue
        assert got.loc[d, "lm_logprob"] == want, d
        n += 1
    assert n >= 400
    # fluency signal: a real doc beats its own tokens in random order
    # rarely?  No — bigram order matters: compare a natural doc vs a
    # reversed-token variant averaged over 20 docs
    import random
    rng = random.Random(3)
    better = 0
    for x in rng.sample(texts, 20):
        toks = st.tokens(x)
        if len(toks) < 10:
            continue
        shuffled = toks[:]
        rng.shuffle(shuffled)
        if lp(toks) >= lp(shuffled):
            better += 1
    assert better >= 14   # order carries signal for most docs


def test_quantile_sketch_rank_error_bound(entry_mod, ducks, ray_session):
    """KLL-style sketch: every reported quantile's EXACT rank must be
    within 5% of the target rank (K=256 gives ~1% theoretical rank
    error at this n; 5% leaves room for the deterministic-compaction
    variant's worse constants)."""
    got = entry_mod.queries()["quantile_sketch_events"](SF).to_pandas()
    assert len(got) > 0
    for row in got.itertuples():
        vals = np.sort(ducks.execute(
            "SELECT value FROM events WHERE event_type = ?",
            [row.event_type]).df()["value"].to_numpy())
        n = len(vals)
        for q, est in ((0.50, row.p50), (0.90, row.p90), (0.99, row.p99)):
            rank = np.searchsorted(vals, est, side="right")
            assert abs(rank - q * n) <= 0.05 * n + 1, \
                (row.event_type, q, est, rank, n)


def test_knn_filtered_absent_label_is_empty(ray_session, monkeypatch):
    """A filter label matching NO vectors must return an empty result,
    not crash in pa.concat_tables([]) on the driver merge."""
    from mee_ray.pipelines import vector

    monkeypatch.setattr(vector, "FILTER_LABEL", 10_000)
    out = vector.knn_filtered("/root/testdata/sf0.001")
    assert out.num_rows == 0
    assert out.column_names == ["query_id", "rank", "neighbor_id"]


def test_substring_spans_unique_corpus_is_empty(entry_mod, ray_session,
                                                tmp_path):
    """A duplicate-free corpus must yield ZERO spans without crashing:
    the gram-bucketed implicit semi-join keeps the plan schema-stable
    where a Dataset.join would throw ArrowInvalid on schemaless empty
    hash partitions (the tiny-input JoinOperator quirk)."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    words = [[f"w{i}_{j}" for j in range(30)] for i in range(3)]
    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([" ".join(w) for w in words], pa.string()),
        "lang": pa.array(["en"] * 3, pa.string()),
        "source": pa.array(["src1"] * 3, pa.string()),
        "n_chars": pa.array([100] * 3, pa.int64())})
    pq.write_table(t, os.path.join(tmp_path, "documents.parquet"))
    out = entry_mod.queries()["substring_dedup_spans_documents"](
        str(tmp_path)).to_pandas()
    assert len(out) == 0


def test_semdedup_matches_driver_recompute(entry_mod, ray_session):
    """SemDeDup vs a driver recompute over the SAME deterministic
    k-means fit, plus the two greedy invariants checked independently:
    kept members of a cluster are pairwise < tau, and every dropped
    member has >= tau cosine to an earlier-visited kept member."""
    import pyarrow.parquet as pq

    from mee_ray.pipelines.vector import (IVFIndex, _emb_matrix,
                                          _read_emb, _semdedup_greedy,
                                          _unit)
    TAU = 0.35
    got = entry_mod.queries()["semdedup_embeddings"](SF).to_pandas()
    t = pq.read_table(f"{SF}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids, mat = _emb_matrix(t)
    u = _unit(mat)
    n_clusters = int(np.clip(np.sqrt(len(ids)), 16, 4096))
    ivf = IVFIndex(n_clusters=n_clusters).fit_dataset(_read_emb(SF))
    sims = u @ ivf.centroids.T
    cl = sims.argmax(axis=1)
    sc = sims[np.arange(len(ids)), cl]
    exp = {}
    n_dropped = 0
    for c in np.unique(cl):
        rows = np.flatnonzero(cl == c)
        order = rows[np.lexsort((ids[rows], sc[rows]))]
        keep = _semdedup_greedy(u[order], TAU)
        uu = u[order]
        kept_idx = np.flatnonzero(keep)
        if len(kept_idx) > 1:
            ks = uu[kept_idx] @ uu[kept_idx].T
            np.fill_diagonal(ks, -1.0)
            assert ks.max() < TAU, "kept set has an internal near-dup"
        for j in np.flatnonzero(~keep):
            prior = kept_idx[kept_idx < j]
            assert (uu[prior] @ uu[j]).max() >= TAU, \
                "dropped row has no kept witness"
            n_dropped += 1
        for i, k in zip(order, keep):
            exp[int(ids[i])] = (int(c), bool(k))
    assert n_dropped > 0, "fixture produced no semantic duplicates"
    assert len(got) == len(ids)
    for r in got.itertuples():
        assert exp[r.vec_id] == (r.cluster_id, r.keep), r.vec_id


def test_ivfpq_refine_improves_recall(entry_mod, ray_session):
    """RefineFlat contract: the refined variant's mean recall vs the
    exact top-k is >= the plain IVF-PQ's (wider per-batch candidate
    pool + exact final ordering can only help) and clears a floor."""
    from mee_ray.pipelines.vector import (ann_ivfpq_refine_topk,
                                          ann_ivfpq_topk,
                                          knn_bruteforce)

    exact = knn_bruteforce(SF).to_pandas()

    def mean_recall(df):
        rs = []
        for q in exact.query_id.unique():
            e = set(exact[exact.query_id == q].neighbor_id)
            rs.append(len(e & set(df[df.query_id == q].neighbor_id))
                      / len(e))
        return float(np.mean(rs))

    plain = mean_recall(ann_ivfpq_topk(SF).to_pandas())
    refined = mean_recall(ann_ivfpq_refine_topk(SF).to_pandas())
    assert refined >= plain
    assert refined >= 0.6


def test_mmr_rerank_matches_recompute_and_diversifies(
        entry_mod, ray_session):
    """MMR vs a from-scratch driver recompute over the same exact
    top-pool (bit-equal selection), plus the diversification signal:
    for lambda = 0.5 the MMR set's mean pairwise similarity must not
    exceed the plain top-k's."""
    import pyarrow.parquet as pq

    from mee_ray.pipelines.vector import (_emb_matrix, _unit,
                                          knn_bruteforce,
                                          mmr_rerank_embeddings)

    K, POOL, LAM = 5, 20, 0.5
    got = entry_mod.queries()["mmr_rerank_embeddings"](SF).to_pandas()
    base = knn_bruteforce(SF, k=POOL).to_pandas()
    t = pq.read_table(f"{SF}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids, mat = _emb_matrix(t)
    u = _unit(mat)
    vec = {int(i): u[j] for j, i in enumerate(ids)}

    def pairwise_mean(sel):
        if len(sel) < 2:
            return 0.0
        sims = [float(vec[a] @ vec[b])
                for i, a in enumerate(sel) for b in sel[i + 1:]]
        return float(np.mean(sims))

    for q in base.query_id.unique():
        cand = base[base.query_id == q].sort_values("rank") \
            .neighbor_id.tolist()
        qv = vec[int(q)]
        sel = []
        pool = list(cand)
        while pool and len(sel) < K:
            best, best_key = None, None
            for c in pool:
                rel = float(qv @ vec[c])
                div = max((float(vec[c] @ vec[s]) for s in sel),
                          default=0.0)
                key = (-(LAM * rel - (1 - LAM) * div), c)
                if best_key is None or key < best_key:
                    best, best_key = c, key
            sel.append(best)
            pool.remove(best)
        mine = got[got.query_id == q].sort_values("rank") \
            .neighbor_id.tolist()
        assert mine == sel, (q, mine, sel)
        assert pairwise_mean(mine) <= pairwise_mean(cand[:K]) + 1e-12


def test_gopher_vectorized_scalar_parity(ray_session):
    """The vectorized GopherRulesStage must be bit-equal to the scalar
    reference loop, including the line/bullet/ellipsis and stopword
    edge cases."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from mee_ray.pipelines.text import GopherRulesStage

    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text"])
    t = pa.concat_tables([t, pa.table({
        "doc_id": pa.array([99991, 99992, 99993, 99994], pa.int64()),
        "text": pa.array(
            ["", None,
             "- b\n* two\n• three\nends...\n# s ... more\n",
             "the be to of and that have with short"],
            pa.string())})])
    st = GopherRulesStage()
    assert st(t).equals(st.scalar_call(t))


def test_ngram_jaccard_group_math_fuzz(ray_session):
    """The many-pairs-per-bucket jaccard kernel vs a naive per-pair
    set computation on the real corpus — float-exact (same division
    of the same exact integers)."""
    import numpy as np
    import pyarrow.parquet as pq

    from mee_ray.pipelines.text import (_char_gram_sets_batch,
                                        ngram_jaccard_adjacent)

    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text"])
    got = ngram_jaccard_adjacent(SF)
    if hasattr(got, "iter_batches"):
        import pyarrow as pa
        got = pa.concat_tables(list(
            got.iter_batches(batch_format="pyarrow")))
    gm = {(a, b): j for a, b, j in
          zip(got["a"].to_pylist(), got["b"].to_pylist(),
              got["jaccard5"].to_pylist())}
    ids = sorted(t["doc_id"].to_pylist())
    texts = dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))
    d, g = _char_gram_sets_batch([texts[i] for i in ids], 5)
    sets: dict = {i: set() for i in range(len(ids))}
    for dd, gg in zip(d, g):
        sets[int(dd)].add(int(gg))
    assert len(gm) == len(ids) - 1
    rng = np.random.default_rng(1)
    for k in rng.choice(len(ids) - 1, size=50, replace=False):
        sx, sy = sets[k], sets[k + 1]
        union = len(sx | sy)
        exp = (len(sx & sy) / union) if union else 1.0
        assert gm[(ids[k], ids[k + 1])] == exp


def test_lang_id_scalar_parity_ascii_only():
    """LangIdStage's scalar_call is an ASCII-corpus-only reference:
    it matches the vectorized path on the real (ascii) corpus, and it
    PROVABLY diverges on accented text ('thé': Python's unicode \\b
    matches inside, RE2's ASCII \\b does not) — pinned here so nobody
    re-promotes the scalar loop to the hot path (ADVICE r4 #3; the
    vectorized RE2 semantics side with the DuckDB oracle)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from mee_ray.pipelines.text import LangIdStage

    st = LangIdStage()
    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text"])
    t = pa.concat_tables([t, pa.table({
        "doc_id": pa.array([99991, 99992], pa.int64()),
        "text": pa.array(["", None], pa.string())})])
    assert st(t).equals(st.scalar_call(t))          # ascii corpus: equal
    # non-ascii divergence: 'aé' — Python's unicode \b sees é as a
    # word char (no boundary after 'a' → no stopword), RE2's ASCII \b
    # sees a boundary → counts 'a' three times
    bad = pa.table({"doc_id": pa.array([1], pa.int64()),
                    "text": pa.array(["aé aé aé"], pa.string())})
    vec = st(bad)["n_stopwords"][0].as_py()
    sca = st.scalar_call(bad)["n_stopwords"][0].as_py()
    assert vec != sca, "dialects agreed — divergence pin is stale"
    assert (vec, sca) == (3, 0)


def test_categorize_unbounded_prefix_fixture(ray_session, tmp_path):
    """Adversarial all-unique-prefix corpus (one category per doc →
    O(n_docs) categories): categorize_text must stay exact while the
    driver collects only per-block top-20 partials (VERDICT r4 #3),
    and the partial top-k must compose exactly under ANY batch split
    of the aggregated category table."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from mee_ray.pipelines.text import (categorize_text_documents,
                                        categorize_topk)

    rng = np.random.default_rng(7)

    def word(i):            # digit-free (the category rule drops
        o = ""              # digit-bearing tokens)
        while True:
            o += chr(ord("a") + i % 26)
            i //= 26
            if not i:
                return "w" + o
    n = 3000
    texts = [f"{word(i)}a {word(i)}b {word(i)}c {word(i)}d filler"
             for i in range(n)]
    # a handful of repeated categories that must win the top-20
    for j in range(25):
        for r in range(3 + j % 4):
            texts.append(f"hot{word(j)}x hot{word(j)}y hot{word(j)}z "
                         f"hot{word(j)}w {r}")
    ids = list(range(len(texts)))
    pq.write_table(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(ids), pa.string())}),
        str(tmp_path / "documents.parquet"))
    got = categorize_text_documents(str(tmp_path))
    # brute force over the same category rule
    import re
    cats = {}
    for d, tx in zip(ids, texts):
        toks = [w for w in re.findall("[a-z0-9_]+", tx.lower())
                if len(w) > 1 and not re.search("[0-9]", w)]
        c = " ".join(toks[:4])
        n_docs, mn = cats.get(c, (0, d))
        cats[c] = (n_docs + 1, min(mn, d))
    want = sorted(((c, v[0], v[1]) for c, v in cats.items()),
                  key=lambda r: (-r[1], r[0]))[:20]
    assert list(zip(got["category"].to_pylist(),
                    got["n_docs"].to_pylist(),
                    got["min_doc_id"].to_pylist())) == want
    # partial-compose fuzz: any split of the aggregated table →
    # concat of per-split top-20 → final top-20 == whole-table top-20
    full = pa.table({
        "category": pa.array(list(cats), pa.string()),
        "n_docs": pa.array([cats[c][0] for c in cats], pa.int64()),
        "min_doc_id": pa.array([cats[c][1] for c in cats], pa.int64())})
    whole = categorize_topk(full)
    for _ in range(5):
        cuts = np.sort(rng.choice(np.arange(1, full.num_rows),
                                  size=6, replace=False))
        parts = []
        lo = 0
        for c in list(cuts) + [full.num_rows]:
            part = categorize_topk(full.slice(lo, c - lo))
            assert part.num_rows <= 20          # bounded per block
            parts.append(part)
            lo = c
        assert categorize_topk(pa.concat_tables(parts)).equals(whole)


def test_adjacency_boundaries_bounded_driver_state(ray_session, tmp_path,
                                                   monkeypatch):
    """ngram_jaccard_adjacent driver state is O(sample + parts), not
    O(n_docs) (VERDICT r4 #2): the deterministic mix64-threshold
    boundary sample keeps ~target ids from a 50k corpus (loose 4x
    bound), boundaries are real doc_ids, ≤ n_parts-1 of them, and
    invariant to input order/blocking.  End-to-end, a forced
    8-part multi-batch run (ghost stitch at every partition
    boundary, empty-text docs included) matches brute force."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from mee_ray.pipelines import text
    from mee_ray.pipelines.text import (_adjacency_boundaries,
                                        _char_gram_sets_batch,
                                        ngram_jaccard_adjacent)

    rng = np.random.default_rng(3)
    ids = rng.choice(10_000_000, size=50_000, replace=False).astype(np.int64)
    ds_sorted = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(np.sort(ids))})).repartition(16)
    ds_shuffled = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(ids)})).repartition(5)
    b1 = _adjacency_boundaries(ds_sorted, 50_000, n_parts=64, target=512)
    b2 = _adjacency_boundaries(ds_shuffled, 50_000, n_parts=64, target=512)
    assert np.array_equal(b1, b2)            # layout-invariant
    assert len(b1) <= 63
    assert np.isin(b1, ids).all()            # real doc_ids
    # the driver-side gather is the threshold sample: ≤ 4x target
    from mee_ray.pipelines.gramhash import mix64
    thr = np.uint64(min(int((512 / 50_000) * float(2**64 - 1)),
                        2**64 - 1))
    assert (mix64(ids) <= thr).sum() <= 4 * 512

    # end-to-end multi-part with ghost stitching + empty-text docs
    n = 500
    dids = np.sort(rng.choice(100_000, size=n, replace=False)).astype(np.int64)
    texts = [("" if i % 50 == 7 else
              f"some shared prefix text {i % 9} plus unique tail {i}")
             for i in range(n)]
    pq.write_table(pa.table({"doc_id": pa.array(dids),
                             "text": pa.array(texts, pa.string())}),
                   str(tmp_path / "documents.parquet"))
    monkeypatch.setattr(text, "NGRAM_PARTS", 8)
    got = ngram_jaccard_adjacent(str(tmp_path))
    if hasattr(got, "iter_batches"):
        got = pa.concat_tables(list(
            got.iter_batches(batch_format="pyarrow")))
    gm = {(a, b): j for a, b, j in
          zip(got["a"].to_pylist(), got["b"].to_pylist(),
              got["jaccard5"].to_pylist())}
    assert len(gm) == n - 1
    d, g = _char_gram_sets_batch(texts, 5)
    sets: dict = {i: set() for i in range(n)}
    for dd, gg in zip(d, g):
        sets[int(dd)].add(int(gg))
    for k in range(n - 1):
        u = len(sets[k] | sets[k + 1])
        exp = (len(sets[k] & sets[k + 1]) / u) if u else 1.0
        assert gm[(int(dids[k]), int(dids[k + 1]))] == exp, k


def test_real_codec_decoders_reject_corrupt_bytes():
    """The real-bytes WAV/PNG stages are decoders, not length
    heuristics: corrupt magic, a flipped PNG CRC bit and a truncated
    fmt chunk must raise — and a spec-valid payload round-trips to
    the exact synthesized signal statistics."""
    import numpy as np
    import pyarrow as pa
    import pytest as _pytest

    from mee_ray.stages.multimodal import (PngMetaDecode, WavMetaDecode,
                                           _png_payloads, _wav_payloads)

    t = pa.table({"doc_id": pa.array([12345], pa.int64())})
    wav = _wav_payloads(t)["payload"][0].as_py()
    png = _png_payloads(t)["payload"][0].as_py()
    wd, pd_ = WavMetaDecode(), PngMetaDecode()

    d = 12345
    n = (d % 96) + 8
    i = np.arange(n, dtype=np.int64)
    sm = (((d % 65536) * 31 + i * 17) % 65536) - 32768
    rate, nch, bits, n_s, dur, energy, peak = wd.decode(wav)
    assert (rate, nch, bits, n_s) == (8000 + (d % 3) * 4000, 1, 16, n)
    assert energy == int((sm * sm).sum()) and peak == int(np.abs(sm).max())

    w, h = (d % 32) + 1, (d % 24) + 1
    x, y = np.arange(w), np.arange(h)[:, None]
    want_sum = int(((d + 3 * x + 7 * y) % 256).sum())
    assert pd_.decode(png) == (w, h, 8, want_sum)

    with _pytest.raises(ValueError):
        wd.decode(b"RIFX" + wav[4:])             # bad magic
    with _pytest.raises(ValueError):
        wd.decode(wav[:20])                      # truncated chunks
    with _pytest.raises(ValueError):
        pd_.decode(b"\x89PNJ" + png[4:])         # bad signature
    corrupt = bytearray(png)
    corrupt[40] ^= 0x01                          # flip a body bit → CRC fails
    with _pytest.raises(ValueError):
        pd_.decode(bytes(corrupt))
    # spec-valid PCM the int16-mono sample parse cannot read: the fmt
    # chunk body starts at byte 20 (n_channels at +2, bits at +14)
    import struct
    for off, val in ((22, 2), (34, 8)):          # stereo, 8-bit
        other = bytearray(wav)
        struct.pack_into("<H", other, off, val)
        with _pytest.raises(ValueError, match="16-bit mono"):
            wd.decode(bytes(other))


def test_wav_decoder_rejects_inconsistent_fmt_header():
    """A fmt chunk that disagrees with itself raises ValueError rather
    than dividing by zero or decoding silently wrong: sample_rate 0
    (byte 24), block_align 0 (byte 32), and a block_align of 4 on
    16-bit mono PCM, whose frames are 2 bytes."""
    import struct

    import pyarrow as pa
    import pytest as _pytest

    from mee_ray.stages.multimodal import WavMetaDecode, _wav_payloads

    wav = _wav_payloads(pa.table({"doc_id": pa.array([777], pa.int64())})
                        )["payload"][0].as_py()
    wd = WavMetaDecode()
    assert wd.decode(wav)[3] == (777 % 96) + 8
    for off, fmt, val in ((24, "<I", 0), (32, "<H", 0), (32, "<H", 4)):
        bad = bytearray(wav)
        struct.pack_into(fmt, bad, off, val)
        with _pytest.raises(ValueError, match="inconsistent fmt header"):
            wd.decode(bytes(bad))


def test_smallest_doc_ids_streaming_pick():
    """The multimodal query pick streams the doc_id column: the n
    smallest ids, ascending, whatever the batch size."""
    import numpy as np
    import pyarrow.parquet as pq

    from mee_ray.stages.multimodal import _smallest_doc_ids

    path = f"{SF}/documents.parquet"
    ids = np.sort(pq.read_table(path, columns=["doc_id"])["doc_id"]
                  .to_numpy())
    for n, bs in ((5, 7), (5, 1 << 16), (1, 3), (0, 4),
                  (len(ids) + 3, 11)):
        assert np.array_equal(_smallest_doc_ids(path, n, bs), ids[:n])
