"""Filter-context search (the ES bool {must, filter} analog) —
a filter restricts the result set and NEVER rescales: every filtered
result must carry its exact unfiltered score, and the filtered ranking
must equal the post-filtered full ranking, in-process and across the
shard-actor pool."""

import numpy as np
import pytest


def _allowed_subsets(oracle):
    """A few deterministic allowed-doc subsets of varying selectivity."""
    all_ids = np.array(sorted(oracle.dl), dtype=np.int64)
    return {
        "half": all_ids[all_ids % 2 == 0],
        "tenth": all_ids[all_ids % 10 == 3],
        "tiny": all_ids[:5],
        "all": all_ids,
        "none": np.empty(0, dtype=np.int64),
    }


def _queries(oracle):
    by_df = sorted(oracle.postings,
                   key=lambda t: (-len(oracle.postings[t]), t))
    hot, mid, rare = by_df[:4], by_df[40:44], by_df[-4:]
    return ([[h] for h in hot[:2]]
            + [[a, b] for a, b in zip(hot, mid)]
            + [[a, b, c] for a, b, c in zip(hot, mid, rare)])


def _post_filter(full, allowed_set, k):
    return [(d, s) for d, s in full if d in allowed_set][:k]


def test_filtered_equals_postfiltered_full_ranking(built_index):
    from mee_ray.query import Searcher

    oracle = built_index["oracle"]
    s = Searcher(built_index["index_root"])
    subsets = _allowed_subsets(oracle)
    n_nonempty = 0
    for q in _queries(oracle):
        full = s.search(q, k=s.n_docs or 1)
        for name, allowed in subsets.items():
            got = s.search_filtered(q, k=10, allowed_doc_ids=allowed)
            want = _post_filter(full, set(allowed.tolist()), 10)
            assert got == want, (q, name)
            n_nonempty += bool(got)
    assert n_nonempty >= 10


def test_filtered_scores_equal_unfiltered(built_index):
    from mee_ray.query import Searcher

    oracle = built_index["oracle"]
    s = Searcher(built_index["index_root"])
    allowed = _allowed_subsets(oracle)["half"]
    for q in _queries(oracle)[:4]:
        both = dict(s.search(q, k=s.n_docs or 1))
        for doc, score in s.search_filtered(q, k=10_000,
                                            allowed_doc_ids=allowed):
            assert doc in both and both[doc] == score


def test_filtered_conjunctive(built_index):
    from mee_ray.query import Searcher

    oracle = built_index["oracle"]
    s = Searcher(built_index["index_root"])
    allowed = _allowed_subsets(oracle)["half"]
    aset = set(allowed.tolist())
    for q in _queries(oracle):
        got = s.search_filtered(q, k=10, allowed_doc_ids=allowed,
                                operator="and")
        want = [(d, sc) for d, sc in oracle.search_and(q, k=oracle.n_docs)
                if d in aset][:10]
        assert got == want, q


def test_filtered_wand_equals_exhaustive(built_index):
    """The WAND filter pushdown (wand.search_wand `allowed`) must be
    result-identical — ids AND float64 scores — to the exhaustive
    restricted path, at every selectivity."""
    from mee_ray.query import QueryPlanner, Searcher

    oracle = built_index["oracle"]
    s = Searcher(built_index["index_root"])
    subsets = _allowed_subsets(oracle)
    all_ids = np.array(sorted(oracle.dl), dtype=np.int64)
    subsets["tail"] = all_ids[-3:]       # hits the beyond-max break
    subsets["one"] = all_ids[len(all_ids) // 2:len(all_ids) // 2 + 1]
    n = 0
    for q in _queries(oracle):
        for name, allowed in subsets.items():
            wand = s.search_filtered(q, k=10, allowed_doc_ids=allowed)
            exh = QueryPlanner.search_filtered(s, q, 10, allowed)
            assert wand == exh, (q, name)
            n += bool(wand)
    assert n >= 10


def test_filtered_wand_prunes(built_index):
    """A selective filter + small k must actually prune: fewer docs
    scored than the query terms' total candidate postings."""
    from mee_ray.query import QueryPlanner, Searcher
    from mee_ray.wand import WandStats

    oracle = built_index["oracle"]
    s = Searcher(built_index["index_root"])
    allowed = _allowed_subsets(oracle)["tiny"]
    q = _queries(oracle)[-1]             # 3-term hot+mid+rare
    stats = WandStats()
    got = s.search_wand(sorted(set(q)), 5, stats=stats, allowed=allowed)
    assert got == QueryPlanner.search_filtered(s, q, 5, allowed)
    assert stats.postings_total > 0
    assert stats.docs_scored <= allowed.size


def test_filtered_degenerate(built_index):
    from mee_ray.query import Searcher

    s = Searcher(built_index["index_root"])
    assert s.search_filtered(["merge"], k=0, allowed_doc_ids=[1]) == []
    assert s.search_filtered([], k=10, allowed_doc_ids=[1]) == []
    assert s.search_filtered(["merge"], k=10, allowed_doc_ids=[]) == []
    # ids outside the corpus simply never match
    assert s.search_filtered(["merge"], k=10,
                             allowed_doc_ids=[-7, 1 << 60]) == []


def test_boolean_matches_postfiltered_full_ranking(built_index):
    from mee_ray.query import Searcher

    oracle = built_index["oracle"]
    s = Searcher(built_index["index_root"])
    by_df = sorted(oracle.postings,
                   key=lambda t: (-len(oracle.postings[t]), t))
    cases = [([by_df[0]], [by_df[1]]),
             ([by_df[0], by_df[30]], [by_df[50]]),
             ([by_df[2], by_df[-1]], [by_df[0]]),   # hot exclusion
             ([by_df[1]], ["qqqq_not_a_term"]),     # no-op exclusion
             ([by_df[3]], [])]                      # empty must_not
    n = 0
    for must, must_not in cases:
        full = s.search(must, k=s.n_docs or 1)
        excl = set()
        for t in must_not:
            excl.update(oracle.postings.get(t, ()))
        want = [(d, sc) for d, sc in full if d not in excl][:10]
        got = s.search_boolean(must, must_not, k=10)
        assert got == want, (must, must_not)
        n += bool(got)
    assert n >= 3


def test_boolean_excluding_all_terms_empties(built_index):
    from mee_ray.query import Searcher

    oracle = built_index["oracle"]
    s = Searcher(built_index["index_root"])
    hot = max(oracle.postings, key=lambda t: len(oracle.postings[t]))
    # must term excluded by itself: every match is excluded
    assert s.search_boolean([hot], [hot], k=10) == []
    assert s.search_boolean([], [hot], k=10) == []
    assert s.search_boolean([hot], [hot], k=0) == []


def test_boolean_distributed(built_index, ray_session):
    from mee_ray.query import DistributedSearcher, Searcher

    oracle = built_index["oracle"]
    s = Searcher(built_index["index_root"])
    ds = DistributedSearcher(built_index["index_root"], n_actors=3)
    by_df = sorted(oracle.postings,
                   key=lambda t: (-len(oracle.postings[t]), t))
    try:
        for must, must_not in [([by_df[0]], [by_df[1]]),
                               ([by_df[0], by_df[30], by_df[-2]],
                                [by_df[4], by_df[60]]),
                               ([by_df[5]], [])]:
            assert (ds.search_boolean(must, must_not, k=10)
                    == s.search_boolean(must, must_not, k=10)), \
                (must, must_not)
    finally:
        ds.shutdown()


def test_levenshtein_metric():
    from mee_ray.query import _levenshtein_le

    cases = [("abc", "abc", 0, True), ("abc", "abd", 0, False),
             ("abc", "abd", 1, True), ("abc", "ab", 1, True),
             ("abc", "a", 1, False), ("abcd", "badc", 1, False),
             ("kitten", "sitting", 2, False),
             ("kitten", "sitting", 3, True),
             ("spark", "sprak", 1, False),   # transposition = 2 plain
             ("spark", "sparc", 1, True), ("", "ab", 1, False),
             ("", "a", 1, True)]
    for a, b, cap, want in cases:
        assert _levenshtein_le(a, b, cap) is want, (a, b, cap)
        assert _levenshtein_le(b, a, cap) is want, (b, a, cap)


def test_prefix_and_fuzzy_expansion_match_oracle(built_index):
    from mee_ray.query import Searcher, _levenshtein_le

    oracle = built_index["oracle"]
    s = Searcher(built_index["index_root"])
    vocab = sorted(oracle.postings)
    assert s.vocabulary() == vocab
    n = 0
    for pre in [vocab[0][:2], vocab[len(vocab) // 2][:1], "zzzz"]:
        terms = [t for t in vocab if t.startswith(pre)]
        got = s.search_prefix(pre, k=10)
        want = oracle.search(terms, k=10) if terms else []
        assert got == want, pre
        n += bool(got)
    for base in [vocab[0], vocab[len(vocab) // 3]]:
        typo = base[:-1] + ("x" if base[-1] != "x" else "y")
        terms = [t for t in vocab if _levenshtein_le(typo, t, 1)]
        got = s.search_fuzzy(typo, k=10)
        want = oracle.search(terms, k=10) if terms else []
        assert got == want, typo
        n += bool(got)
    assert n >= 3
    assert s.search_prefix("", k=10) == []
    assert s.search_fuzzy("", k=10) == []


def test_fuzzy_deletion_index_equals_linear_scan(built_index):
    """The SymSpell-style deletion-neighborhood candidates + verify
    must expand to EXACTLY the linear-scan term set for every probe
    (in-vocab terms, typos, short/long strings)."""
    from mee_ray.query import Searcher, _levenshtein_le

    oracle = built_index["oracle"]
    s = Searcher(built_index["index_root"])
    vocab = s.vocabulary()
    probes = [vocab[0], vocab[-1], vocab[len(vocab) // 2],
              vocab[0][:-1] + "x", "x" + vocab[1], vocab[2][1:],
              "a", "zz", "qqqqqq", vocab[3] + "ab"]
    idx = s._deletion_index()
    n = 0
    for p in probes:
        linear = sorted(t for t in vocab if _levenshtein_le(p, t, 1))
        cand = set()
        from mee_ray.query import _deletions1
        for v in _deletions1(p):
            cand.update(idx.get(v, ()))
        via_index = sorted(t for t in cand if _levenshtein_le(p, t, 1))
        assert via_index == linear, p
        # and the search itself agrees with the oracle expansion
        want = oracle.search(linear, k=10) if linear else []
        assert s.search_fuzzy(p, k=10) == want, p
        n += bool(linear)
    assert n >= 4


def test_filtered_distributed(built_index, ray_session):
    from mee_ray.query import DistributedSearcher, Searcher

    oracle = built_index["oracle"]
    s = Searcher(built_index["index_root"])
    ds = DistributedSearcher(built_index["index_root"], n_actors=3)
    subsets = _allowed_subsets(oracle)
    try:
        for q in _queries(oracle)[:6]:
            for name in ("half", "tiny", "none"):
                allowed = subsets[name]
                assert (ds.search_filtered(q, k=10, allowed_doc_ids=allowed)
                        == s.search_filtered(q, k=10,
                                             allowed_doc_ids=allowed)), \
                    (q, name)
            assert (ds.search_filtered(q, k=10,
                                       allowed_doc_ids=subsets["half"],
                                       operator="and")
                    == s.search_filtered(q, k=10,
                                         allowed_doc_ids=subsets["half"],
                                         operator="and")), q
        # distributed expansion == local expansion (pooled vocabulary)
        assert ds.vocabulary() == s.vocabulary()
        vocab = s.vocabulary()
        for pre in (vocab[0][:2], "zz"):
            assert ds.search_prefix(pre, k=10) == s.search_prefix(pre, k=10)
        typo = vocab[0] + "x"
        assert ds.search_fuzzy(typo, k=10) == s.search_fuzzy(typo, k=10)
    finally:
        ds.shutdown()


def test_wildcard_and_regexp_expansion_match_oracle(built_index):
    import re

    from mee_ray.query import (Searcher, regexp_terms, wildcard_regex,
                               wildcard_terms)

    oracle = built_index["oracle"]
    s = Searcher(built_index["index_root"])
    vocab = s.vocabulary()
    # wildcard: literal-prefix run + fullmatch == naive scan
    pats = [vocab[0][:2] + "*", "*" + vocab[1][-2:], "?" + vocab[2][1:],
            vocab[3][:1] + "*" + vocab[3][-1:], "zz*", vocab[4]]
    n = 0
    for p in pats:
        rx = re.compile(wildcard_regex(p))
        naive = [t for t in vocab if rx.fullmatch(t)]
        assert wildcard_terms(vocab, p) == naive, p
        want = oracle.search(naive, k=10) if naive else []
        assert s.search_wildcard(p, k=10) == want, p
        n += bool(naive)
    assert n >= 4
    # regexp: anchored full-match
    for p in [f"({vocab[0]}|{vocab[1]})", vocab[2][:1] + ".*",
              ".*" + vocab[3][-1:], "nope[0-9]+"]:
        rx = re.compile(p)
        naive = [t for t in vocab if rx.fullmatch(t)]
        assert regexp_terms(vocab, p) == naive, p
        want = oracle.search(naive, k=10) if naive else []
        assert s.search_regexp(p, k=10) == want, p
    assert s.search_wildcard("", k=10) == []
    assert s.search_regexp("", k=10) == []


def test_wildcard_regexp_distributed(built_index, ray_session):
    from mee_ray.query import DistributedSearcher, Searcher

    s = Searcher(built_index["index_root"])
    ds = DistributedSearcher(built_index["index_root"], n_actors=3)
    vocab = s.vocabulary()
    try:
        for p in (vocab[0][:2] + "*", "*" + vocab[1][-2:], "zz*"):
            assert ds.search_wildcard(p, k=10) == s.search_wildcard(p, k=10)
        for p in (f"({vocab[0]}|{vocab[1]})", "nope[0-9]+"):
            assert ds.search_regexp(p, k=10) == s.search_regexp(p, k=10)
    finally:
        ds.shutdown()


def test_regexp_bad_pattern_raises_value_error(built_index):
    from mee_ray.query import Searcher

    s = Searcher(built_index["index_root"])
    with pytest.raises(ValueError, match="bad regexp"):
        s.search_regexp("[", k=10)
