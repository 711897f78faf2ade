"""Block-max WAND query path: exact-equivalence (rank AND float64
score identity) with the exhaustive path and the oracle, plus proof
that the pruning actually prunes."""

import pyarrow as pa
import pytest

from mee_ray.config import EngineConfig
from mee_ray.oracle import make_query_set
from mee_ray.query import Searcher, merge_partials
from mee_ray.wand import WandStats


@pytest.fixture(scope="module")
def searcher(built_index):
    return Searcher(built_index["index_root"])


@pytest.fixture(scope="module")
def qset(built_index):
    docs = [(i, c) for i, (_, c) in enumerate(built_index["live"].values())]
    return make_query_set(docs, n_queries=80, seed=9)


def test_wand_equals_exact_and_oracle(built_index, searcher, qset):
    oracle = built_index["oracle"]
    for q in qset:
        uterms = sorted(set(q["terms"]))
        exact = merge_partials([searcher.term_partials(uterms)],
                               uterms, q["k"])
        wand = searcher.search_wand(uterms, q["k"])
        assert wand == exact, (q["terms"], wand[:3], exact[:3])
        assert wand == oracle.search(q["terms"], q["k"]), q["terms"]


def test_search_defaults_to_wand_without_tombstones(built_index, searcher, qset):
    q = qset[0]
    assert searcher.search(q["terms"], q["k"]) == \
        searcher.search_wand(sorted(set(q["terms"])), q["k"])


def test_wand_prunes_hot_single_term(built_index, searcher):
    # the hottest term: largest df — single-term block-max skipping
    # must avoid scoring a meaningful share of its postings at small k
    oracle = built_index["oracle"]
    hot = max(oracle.postings, key=lambda t: len(oracle.postings[t]))
    stats = WandStats()
    res = searcher.search_wand([hot], 3, stats=stats)
    assert res == oracle.search([hot], 3)
    assert stats.postings_total > 0
    assert stats.docs_scored < stats.postings_total, (
        f"no pruning: scored {stats.docs_scored} of {stats.postings_total}")


def test_wand_multi_term_mixed_df(built_index, searcher):
    oracle = built_index["oracle"]
    by_df = sorted(oracle.postings, key=lambda t: -len(oracle.postings[t]))
    hot, rare = by_df[0], by_df[-1]
    for terms in ([hot, rare], [hot, by_df[1]], [rare, by_df[-2], hot]):
        assert searcher.search_wand(sorted(set(terms)), 10) == \
            oracle.search(terms, 10), terms


def test_wand_unknown_and_empty_terms(searcher):
    assert searcher.search_wand(["zzz_never_a_term"], 10) == []
    assert searcher.search_wand([], 10) == []


def test_wand_after_pure_add_delta(built_index, tmp_path_factory, ray_session):
    """Pure-add delta (no tombstones): WAND must stay exact with delta
    chunks merged at live avgdl and stale base bounds rescaled."""
    import shutil

    from mee_ray.delta import apply_delta
    from mee_ray.ids import doc_id_of
    from mee_ray.oracle import OracleIndex

    root = str(tmp_path_factory.mktemp("wand_delta"))
    shutil.copytree(built_index["index_root"], root, dirs_exist_ok=True)

    new_content = ("def wand_delta_probe(): return unique_wand_token_abc\n"
                   * 40)
    events = pa.table({
        "seq": pa.array([1], pa.int64()),
        "type": pa.array(["INSERT"]),
        "repo": pa.array(["repo_new"]),
        "path": pa.array(["src/new_file.py"]),
        "commit": pa.array(["aaaa0001"]),
        "lang": pa.array(["py"]),
        "content": pa.array([new_content]),
    })
    apply_delta(events, root, EngineConfig())

    live = dict(built_index["live"])
    live[("repo_new", "src/new_file.py")] = ("aaaa0001", new_content)
    oracle = OracleIndex([(doc_id_of(r, p, c), content)
                          for (r, p), (c, content) in live.items()])

    s = Searcher(root)
    assert len(s.tombstones) == 0  # pure add — WAND stays on
    docs = [(i, c) for i, (_, c) in enumerate(live.values())]
    for q in make_query_set(docs, n_queries=40, seed=17):
        assert s.search(q["terms"], q["k"]) == \
            oracle.search(q["terms"], q["k"]), q["terms"]
    assert s.search(["unique_wand_token_abc"], 5) == \
        oracle.search(["unique_wand_token_abc"], 5)


def test_fallback_with_tombstones(built_index, tmp_path_factory, ray_session):
    import shutil

    from mee_ray.delta import apply_delta
    from mee_ray.ids import doc_id_of
    from mee_ray.oracle import OracleIndex

    root = str(tmp_path_factory.mktemp("wand_tomb"))
    shutil.copytree(built_index["index_root"], root, dirs_exist_ok=True)

    victim = sorted(built_index["live"])[0]
    events = pa.table({
        "seq": pa.array([1], pa.int64()),
        "type": pa.array(["DELETE"]),
        "repo": pa.array([victim[0]]),
        "path": pa.array([victim[1]]),
        "commit": pa.array([""]),
        "lang": pa.array([""]),
        "content": pa.array([""]),
    })
    apply_delta(events, root, EngineConfig())

    live = dict(built_index["live"])
    del live[victim]
    oracle = OracleIndex([(doc_id_of(r, p, c), content)
                          for (r, p), (c, content) in live.items()])

    s = Searcher(root)
    assert len(s.tombstones) > 0
    docs = [(i, c) for i, (_, c) in enumerate(live.values())]
    for q in make_query_set(docs, n_queries=30, seed=23):
        assert s.search(q["terms"], q["k"]) == \
            oracle.search(q["terms"], q["k"]), q["terms"]


K1, B = 1.2, 0.75


def _chunk(ids, tfs, dls, base_avgdl, block_size=4, log=None, tag=None,
           **extra):
    """A hand-made stored chunk: block maxes computed at ``base_avgdl``
    and a decode hook that records ``tag`` in ``log`` per call."""
    import numpy as np

    from mee_ray.postings import block_metadata, tf_norm

    ids = np.asarray(ids, np.int64)
    tfs = np.asarray(tfs, np.int64)
    dls = np.asarray(dls, np.int64)
    bl, bm = block_metadata(ids, tf_norm(tfs, dls, base_avgdl, K1, B),
                            block_size)

    def decode():
        if log is not None:
            log.append(tag)
        return ids, tfs, dls

    return {"block_last": bl, "block_max": bm, "df": len(ids),
            "decode": decode, **extra}


def _brute_force(term_chunks, k, avgdl, allowed=None):
    """merge_partials over every posting of every chunk."""
    import numpy as np

    from mee_ray.postings import tf_norm

    partials = {}
    for term, (w, chunks) in term_chunks.items():
        parts = [c["decode"]() for c in chunks]
        ids = np.concatenate([p[0] for p in parts])
        sc = w * tf_norm(np.concatenate([p[1] for p in parts]),
                         np.concatenate([p[2] for p in parts]),
                         avgdl, K1, B)
        if allowed is not None:
            m = np.isin(ids, allowed)
            ids, sc = ids[m], sc[m]
        partials[term] = (ids, sc)
    return merge_partials([partials], list(term_chunks), k)


def test_chunk_below_theta_is_never_decoded():
    """A chunk whose bound is below θ is skipped without decoding:
    three disjoint-range chunks of one term, the top-k all in the
    first, so the other two never decode.  Next to a second, weak
    term they still never decode: that term's first block bounds every
    interval below its first boundary (stored metadata has no block
    start), so it may decode, but its bound keeps t's weak chunks
    below θ."""
    import numpy as np

    from mee_ray.wand import search_wand

    log = []

    def chunk(lo, hi, tf, tag):
        n = hi - lo
        return _chunk(np.arange(lo, hi), np.full(n, tf), np.full(n, 10),
                      10.0, log=log, tag=tag, salt=lo // 100)

    t = (1.0, [chunk(200, 300, 2, "c"), chunk(0, 100, 6, "a"),
               chunk(100, 200, 1, "b")])
    stats = WandStats()
    got = search_wand({"t": t}, 5, 1000, 10.0, 10.0, K1, B,
                      block_size=4, stats=stats)
    log_single = list(log)
    assert got == _brute_force({"t": t}, 5, 10.0)
    assert log_single == ["a"]
    assert (stats.chunks_total, stats.chunks_decoded) == (3, 1)

    log.clear()
    u = (0.3, [chunk(400, 500, 1, "u")])
    stats = WandStats()
    got = search_wand({"t": t, "u": u}, 5, 1000, 10.0, 10.0, K1, B,
                      block_size=4, stats=stats)
    assert "a" in log and "b" not in log and "c" not in log
    assert got == _brute_force({"t": t, "u": u}, 5, 10.0)
    assert stats.chunks_total == 4 and stats.chunks_decoded <= 2


def test_block_below_theta_is_not_scored():
    """Inside one decoded chunk, a block whose bound is below θ is
    never scored: the strong second block fills the top-k first and
    the weak first block's postings are skipped."""
    import numpy as np

    from mee_ray.wand import search_wand

    log = []
    tfs = np.r_[np.ones(128, np.int64), np.full(128, 4)]
    t = (1.0, [_chunk(np.arange(256), tfs, np.full(256, 10), 10.0,
                      block_size=128, log=log, tag="t")])
    stats = WandStats()
    got = search_wand({"t": t}, 3, 1000, 10.0, 10.0, K1, B,
                      block_size=128, stats=stats)
    assert stats.docs_scored == 128 and log == ["t"]
    assert got == _brute_force({"t": t}, 3, 10.0)
    assert [d for d, _ in got] == [128, 129, 130]


def _case_ties():
    # docs 0..29 hold term a only, 30..39 a and b, 40..59 b only: ten
    # identical top scores, so k=7 cuts inside an exact tie run
    a = (0.7, [_chunk(range(0, 20), [2] * 20, [10] * 20, 10.0, salt=0),
               _chunk(range(20, 40), [2] * 20, [10] * 20, 10.0, salt=1)])
    b = (0.4, [_chunk(range(30, 60), [1] * 30, [10] * 30, 10.0)])
    return {"a": a, "b": b}, 7, None, 10.0, 10.0


def _random_terms(seed, n_terms=3, avgdl=10.0):
    import numpy as np

    rng = np.random.default_rng(seed)
    out = {}
    for i in range(n_terms):
        ids = np.sort(rng.choice(400, size=int(rng.integers(5, 120)),
                                 replace=False))
        n = len(ids)
        out[f"t{i}"] = (float(rng.uniform(0.2, 3.0)), [_chunk(
            ids, rng.integers(1, 6, n), rng.integers(3, 30, n), avgdl)])
    return out


def _case_k_over_candidates():
    return _random_terms(1), 500, None, 10.0, 10.0


def _case_allowed_excludes_top():
    import numpy as np

    tc = _random_terms(2)
    top = {d for d, _ in _brute_force(tc, 10, 10.0)}
    every = np.unique(np.concatenate(
        [c["decode"]()[0] for _, cs in tc.values() for c in cs]))
    allowed = np.array([d for d in every.tolist() if d not in top],
                       np.int64)
    return tc, 10, allowed, 10.0, 10.0


def _case_delta_chunks():
    import numpy as np

    # base chunk holds the even ids, the delta chunk odd ids inside the
    # same range; live avgdl drifted up from the base epoch's
    tc = _random_terms(3, n_terms=2)
    base = _chunk(np.arange(0, 200, 2), [1, 3] * 50, [8] * 100, 10.0)
    delta = _chunk(np.arange(1, 99, 2), [2] * 49, [20] * 49, 10.0,
                   delta=True)
    tc["d"] = (1.3, [base, delta])
    return tc, 10, None, 11.5, 10.0


def _case_hint_avgdl():
    import numpy as np

    # one segment's block maxes were computed at avgdl 6 (live is 9),
    # another at 14; the epoch avgdl is 9
    rng = np.random.default_rng(4)

    def seg(lo, hint, salt):
        ids = np.arange(lo, lo + 60)
        return _chunk(ids, rng.integers(1, 8, 60), rng.integers(2, 40, 60),
                      hint, hint_avgdl=hint, salt=salt)

    tc = {"h": (1.1, [seg(0, 6.0, 0), seg(100, 14.0, 1)]),
          "x": _random_terms(5, n_terms=1, avgdl=9.0)["t0"]}
    return tc, 10, None, 9.0, 9.0


@pytest.mark.parametrize("case", [
    _case_ties, _case_k_over_candidates, _case_allowed_excludes_top,
    _case_delta_chunks, _case_hint_avgdl])
def test_kernel_edge_cases_equal_merge_partials(case):
    import copy

    from mee_ray.wand import search_wand

    term_chunks, k, allowed, avgdl, avgdl_base = case()
    before = copy.deepcopy({t: [{f: v for f, v in c.items()
                                  if f != "decode"} for c in cs]
                            for t, (_, cs) in term_chunks.items()})
    got = search_wand(term_chunks, k, 1000, avgdl, avgdl_base, K1, B,
                      block_size=4, allowed=allowed)
    want = _brute_force(term_chunks, k, avgdl, allowed)
    assert want, case.__name__
    assert got == want
    if case is _case_ties:
        # the k-th and (k+1)-th docs tie exactly: doc_id decides
        full = _brute_force(term_chunks, k + 1, avgdl)
        assert full[k - 1][1] == full[k][1]
        assert [d for d, _ in got] == list(range(30, 37))
    # the kernel never writes to the chunk dicts it is given
    after = {t: [{f: v for f, v in c.items() if f != "decode"}
                 for c in cs] for t, (_, cs) in term_chunks.items()}
    assert repr(after) == repr(before)


def _count_decodes(monkeypatch):
    """Count calls of the row-group kernel the shards decode through;
    each entry is the number of rows that call decoded."""
    import mee_ray.query as q

    calls = []
    real = q.decode_rows

    def counting(*a):
        got = real(*a)
        calls.append(len(got[3]) - 1)
        return got

    monkeypatch.setattr(q, "decode_rows", counting)
    return calls


def test_cyclic_stream_second_pass_decodes_nothing(built_index, monkeypatch):
    """One shard's whole vocabulary — more than 128 distinct chunk rows
    — queried as a cyclic stream from an empty process cache: the
    first pass decodes every row, and every row it decoded is still
    cached in the second, so the second pass calls the kernel zero
    times."""
    from mee_ray import wand
    from mee_ray.ids import term_hash

    wand.CACHE.clear()
    s = Searcher(built_index["index_root"])
    sh = max(range(s.num_shards), key=lambda i: len(s._shard(i).terms()))
    terms = sorted(t for t in s.vocabulary()
                   if term_hash(t) % s.num_shards == sh)
    assert sum(len(s._shard(sh).locs(t)) for t in terms) > 128
    calls = _count_decodes(monkeypatch)
    first = [s.search([t], 10) for t in terms]
    assert sum(calls) > 128
    calls.clear()
    assert [s.search([t], 10) for t in terms] == first
    assert calls == []
    oracle = built_index["oracle"]
    assert all(r == oracle.search([t], 10)
               for t, r in zip(terms[::25], first[::25]))


def test_decoded_cache_stays_within_its_byte_budget(built_index,
                                                    monkeypatch):
    """Resident bytes never exceed the budget, and a posting list
    larger than the whole budget is answered exactly but not kept."""
    from mee_ray import wand
    from mee_ray.ids import term_hash
    from mee_ray.wand import _MERGE_CACHE_BYTES, DecodedCache

    assert DecodedCache().budget == _MERGE_CACHE_BYTES
    assert wand.CACHE.budget == _MERGE_CACHE_BYTES
    oracle = built_index["oracle"]
    s = Searcher(built_index["index_root"])
    # the largest posting list stored as one chunk row
    hot = next(t for t in sorted(oracle.postings,
                                 key=lambda t: -len(oracle.postings[t]))
               if len(s._shard(term_hash(t) % s.num_shards).locs(t)) == 1)
    sh = term_hash(hot) % s.num_shards
    hot_bytes = sum(a.nbytes for a in s._shard(sh).postings(hot))
    # the process-wide cache, shrunk for this test only (monkeypatch
    # restores its budget) and emptied so the small budget holds
    cache = wand.CACHE
    monkeypatch.setattr(cache, "budget", hot_bytes // 2)
    cache.clear()
    s = Searcher(built_index["index_root"])
    docs = [(i, c) for i, (_, c) in enumerate(built_index["live"].values())]
    for q in make_query_set(docs, n_queries=60, seed=31):
        assert s.search(q["terms"], q["k"]) == \
            oracle.search(q["terms"], q["k"]), q["terms"]
        assert 0 < cache.nbytes <= cache.budget
    calls = _count_decodes(monkeypatch)
    for _ in range(2):
        calls.clear()
        assert s.search([hot], 10) == oracle.search([hot], 10)
        assert len(calls) == 1                  # decoded, not kept
        assert cache.nbytes <= cache.budget
