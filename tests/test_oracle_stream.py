"""Streaming scoped oracle (mee_ray.oracle_stream) vs the full
in-process OracleIndex: the scale harness (scripts/scale_split.py)
replaces the ~80 GB whole-corpus oracle with bounded two-pass
streaming state, so every piece of that substitution must be
BIT-identical at small scale — dedup rule, df/query-set generation,
term search, phrase/span search, and the post-delta overlay."""

import numpy as np
import pytest

from mee_ray.config import TokenizerConfig
from mee_ray.ids import doc_id_of
from mee_ray.oracle import OracleIndex, make_query_set, \
    make_query_set_from_df
from mee_ray.tokenizer import Tokenizer


@pytest.fixture(scope="module")
def stream_corpus(tmp_path_factory):
    import pyarrow.parquet as pq

    from mee_ray.corpus import write_corpus
    cdir = str(tmp_path_factory.mktemp("sc") / "corpus")
    write_corpus(cdir, n_files=1500, seed=17, rows_per_file=200)
    t = pq.read_table(cdir,
                      columns=["repo", "path", "commit", "content"])
    live = {}
    for r, p, c, content in zip(t["repo"].to_pylist(),
                                t["path"].to_pylist(),
                                t["commit"].to_pylist(),
                                t["content"].to_pylist()):
        key = (r, p)
        if key not in live or c > live[key][0]:
            live[key] = (c, content)
    docs = [(doc_id_of(r, p, c), content)
            for (r, p), (c, content) in live.items()]
    import glob
    return {"cdir": cdir, "files": sorted(glob.glob(f"{cdir}/*.parquet")),
            "live": live, "docs": docs}


def test_live_mask_matches_live_dict(stream_corpus):
    """Row-local structural dedup == the historical live-dict dedup."""
    import pyarrow.parquet as pq

    from mee_ray.oracle_stream import live_mask
    live = stream_corpus["live"]
    n_live = 0
    for f in stream_corpus["files"]:
        t = pq.read_table(f, columns=["repo", "path", "commit"])
        repos, paths, commits = (t["repo"].to_pylist(),
                                 t["path"].to_pylist(),
                                 t["commit"].to_pylist())
        for r, p, c, ok in zip(repos, paths, commits,
                               live_mask(repos, paths, commits)):
            assert ok == (live[(r, p)][0] == c), (r, p)
            n_live += ok
    assert n_live == len(live)


def test_pass1_stats_and_query_set_identity(stream_corpus):
    """Streaming pass-1 df/n_docs/total_dl == the whole-corpus
    values; make_query_set_from_df(streamed df) picks the IDENTICAL
    query set; smallest-keys heap == sorted(live)[:k]; probe docs are
    the smallest-mix64 ids."""
    from mee_ray.oracle_stream import run_pass1
    from mee_ray.pipelines.gramhash import mix64

    docs = stream_corpus["docs"]
    df, n_docs, total_dl, keys, probes = run_pass1(
        stream_corpus["files"], n_keys=40, n_probes=10, processes=4)
    tok = Tokenizer(TokenizerConfig())
    want_df = {}
    want_dl = 0
    for _, content in docs:
        c = tok.counts(content)
        want_dl += sum(c.values())
        for tm in c:
            want_df[tm] = want_df.get(tm, 0) + 1
    assert n_docs == len(docs)
    assert total_dl == want_dl
    assert dict(df) == want_df
    assert keys == sorted(stream_corpus["live"])[:40]
    assert (make_query_set_from_df(df, 60, seed=3)
            == make_query_set(docs, 60, seed=3))
    ids = np.array([d for d, _ in docs], dtype=np.int64)
    want_probe_ids = ids[np.argsort(mix64(ids), kind="stable")][:10]
    assert [p[1] for p in probes] == sorted(
        want_probe_ids.tolist(),
        key=lambda d: mix64(np.array([d], np.int64))[0])


def test_scoped_oracle_bit_identity(stream_corpus):
    """ScopedOracleIndex built from the streaming passes returns
    tuple-identical (doc_ids AND float64 scores) rankings to the full
    OracleIndex for the whole reference query set, incl. phrase and
    span_near over probe bigrams."""
    from mee_ray.oracle_stream import (ScopedOracleIndex, run_pass1,
                                       run_pass2)

    docs = stream_corpus["docs"]
    full = OracleIndex(docs, store_positions=True)
    df, n_docs, total_dl, _, probes = run_pass1(
        stream_corpus["files"], n_keys=1, n_probes=12, processes=4)
    qset = make_query_set_from_df(df, 120, seed=3)
    # probe bigrams from the sampled docs (the scale_split rule)
    import random as _random
    rng = _random.Random(11)
    phr = []
    for _, _, content in probes:
        toks = [w for w in content.lower().split() if w.isalnum()]
        if len(toks) >= 3:
            i = rng.randrange(len(toks) - 2)
            phr.append(toks[i:i + 2])
            phr.append([toks[i + 1], toks[i]])
    terms = sorted({t for q in qset for t in q["terms"]})
    pos_terms = sorted({t for ph in phr for t in ph})
    post, posmaps = run_pass2(stream_corpus["files"], terms,
                              pos_terms, processes=4)
    so = ScopedOracleIndex(post, n_docs, total_dl, positions=posmaps)
    assert so.n_docs == full.n_docs
    assert so.avgdl == full.avgdl
    for q in qset:
        assert so.search(q["terms"], q["k"]) == \
            full.search(q["terms"], q["k"])
    for j, ph in enumerate(phr):
        assert so.search_phrase(ph, 10) == full.search_phrase(ph, 10)
        assert so.search_span_near(ph, 1 + j % 3, 10) == \
            full.search_span_near(ph, 1 + j % 3, 10)


def test_scoped_oracle_overlay_identity(stream_corpus):
    """Post-delta: the pass-1b + apply_overlay adjustments (remove
    old docs of updated/deleted keys, add new docs, adjust df /
    n_docs / total_dl) reproduce OracleIndex(docs2) bit-exactly —
    including the adjusted query-set draw."""
    from mee_ray.oracle_stream import (ScopedOracleIndex, apply_overlay,
                                       run_pass1, run_pass1b,
                                       run_pass2)

    live = dict(stream_corpus["live"])
    df, n_docs, total_dl, keys, _ = run_pass1(
        stream_corpus["files"], n_keys=35, processes=4)
    tok = Tokenizer(TokenizerConfig())

    # the scale_validation delta shape: 25 updates then 10 deletes
    n_del = 10
    new_docs = []
    for seq, (r, p) in enumerate(keys[:25], start=1):
        content = (f"def scale_upd_{seq}(): "
                   f"return scale_delta_tok_{seq}\n")
        live[(r, p)] = ("e" * 40, content)
        new_docs.append((doc_id_of(r, p, "e" * 40), content))
    for r, p in keys[25:25 + n_del]:
        live.pop((r, p))
    docs2 = [(doc_id_of(r, p, c), content)
             for (r, p), (c, content) in live.items()]
    full2 = OracleIndex(docs2)

    df_minus, old = run_pass1b(stream_corpus["files"],
                               keys[:25 + n_del], processes=4)
    assert len(old) == 25 + n_del
    df2 = df.copy()
    df2.subtract(df_minus)
    df_plus = {}
    dl_plus = 0
    for _, content in new_docs:
        c = tok.counts(content)
        dl_plus += sum(c.values())
        for tm in c:
            df_plus[tm] = df_plus.get(tm, 0) + 1
    df2.update(df_plus)
    df2 = +df2                              # drop zero/negative
    n2 = n_docs - n_del
    dl2 = total_dl - sum(dl for _, dl in old.values()) + dl_plus
    assert n2 == full2.n_docs

    from mee_ray.oracle import make_query_set
    qset2 = make_query_set(docs2, 60, seed=9)
    from mee_ray.oracle import make_query_set_from_df
    assert make_query_set_from_df(df2, 60, seed=9) == qset2

    terms2 = sorted({t for q in qset2 for t in q["terms"]})
    post, _ = run_pass2(stream_corpus["files"], terms2, processes=4)
    old_ids = np.array([d for d, _ in old.values()], np.int64)
    post2 = apply_overlay(post, old_ids, new_docs, terms2)
    so2 = ScopedOracleIndex(post2, n2, dl2)
    assert so2.avgdl == full2.avgdl
    for q in qset2:
        assert so2.search(q["terms"], q["k"]) == \
            full2.search(q["terms"], q["k"])


def test_live_mask_rejects_foreign_path():
    from mee_ray.oracle_stream import live_mask
    with pytest.raises(ValueError, match="file_<n>"):
        live_mask(["r0"], ["src/main.py"], ["c0"])


def test_pass_pools_default_to_cpu_count(monkeypatch):
    import multiprocessing
    import os

    from mee_ray.oracle_stream import run_pass1, run_pass1b, run_pass2

    seen = []

    class InlinePool:
        def __init__(self, processes=None):
            seen.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
    run_pass1([], n_keys=1)
    run_pass1b([], [])
    run_pass2([], ["def"])
    run_pass1([], n_keys=1, processes=3)
    assert seen == [os.cpu_count()] * 3 + [3]
