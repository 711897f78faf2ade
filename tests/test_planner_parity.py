"""Distributed parity by construction: every public query name of the
shared QueryPlanner (plus the transport-specific search/msearch and
the postings primitives) runs through the in-process Searcher and a
3-actor DistributedSearcher on the positional fixture, and the results
must be tuple-equal — doc_ids AND float64 scores.  A completeness
guard fails when a planner method has no row here.  Argument
validation must fail with the same exception type on both
transports."""

import types

import numpy as np
import pytest

from mee_ray.ids import term_hash
from mee_ray.query import DistributedSearcher, QueryPlanner, Searcher
from tests.test_phrase import pos_index  # noqa: F401 (module fixture)

PRIMITIVES = {"term_partials", "term_partials_dl", "term_partials_for_docs",
              "term_doc_ids", "term_dfs", "term_total_tfs",
              "term_positions", "vocabulary", "explain"}
TRANSPORT = {"search", "msearch", "stale", "refresh", "query_stats",
             "shutdown"}


@pytest.fixture(scope="module")
def pool(ray_session):
    """One 3-actor DistributedSearcher at a time: the session's Ray has
    4 CPUs and each shard actor takes one, so two pools cannot
    coexist.  Asking for another root shuts the current pool down."""
    cur: dict = {}

    def get(root):
        if root not in cur:
            for ds in cur.values():
                ds.shutdown()
            cur.clear()
            cur[root] = DistributedSearcher(root, n_actors=3)
        return cur[root]

    yield get
    for ds in cur.values():
        ds.shutdown()


def _owner(ds, t):
    return ds.assign[term_hash(t) % ds.num_shards]


def _missing(ds, avoid_owner, same=False):
    """A term absent from the index whose owner differs from (or, with
    ``same``, equals) ``avoid_owner``."""
    for i in range(1000):
        t = f"zzmissing{i}"
        if (_owner(ds, t) == avoid_owner) == same:
            return t
    raise AssertionError("no such term")


@pytest.fixture(scope="module")
def ctx(pos_index, pool):  # noqa: F811
    """Query inputs drawn from the positional fixture's token streams,
    with multi-term cases split across actors so the fan-out and merge
    paths run, not only the single-owner shortcut."""
    from mee_ray.config import TokenizerConfig
    from mee_ray.tokenizer import Tokenizer
    root = pos_index["root"]
    s, ds = Searcher(root), pool(root)
    assert len(ds.actors) == 3
    tok = Tokenizer(pos_index["cfg"].tokenizer)
    seqs = [q for q in (tok.terms(c) for _, c in pos_index["docs"][:60])
            if len(q) > 12]

    def split(ts):
        return len({_owner(ds, t) for t in ts}) > 1

    bigrams = [q[3:5] for q in seqs if q[3] != q[4]]
    trigrams = [q[5:8] for q in seqs if len(set(q[5:8])) == 3]
    phrases = ([p for p in bigrams if split(p)][:3]
               + [p for p in trigrams if split(p)][:3]
               + [p for p in bigrams if not split(p)][:2])
    queries = [p + [q[10]] for p, q in zip(trigrams, seqs[1:])
               if split(p)][:3]
    vocab = [t for t in s.vocabulary() if s.term_df(t) > 0]
    hot = max(vocab, key=lambda t: (s.term_df(t), t))
    a, b = phrases[0]
    docs = sorted(d for d, _ in pos_index["docs"])
    seed_text = " ".join(queries[0] + queries[1] + [hot])
    seed_id = s.search(tok.terms(seed_text), 1)[0][0]
    page1 = s.search(queries[0], 5)
    cand = np.array(docs[::3], dtype=np.int64)
    dtok = Tokenizer(TokenizerConfig())
    not_pairs = [(q[3], q[4]) for q in (dtok.terms(c) for _, c in
                                         pos_index["docs"][:20])
                 if len(q) > 12 and q[3] != q[4]]
    not_pairs = list(dict.fromkeys(not_pairs))[:8] + [
        ("def", "zzz_no_such_term"), (hot, _missing(ds, _owner(ds, hot)))]
    s10 = [dtok.terms(c) for _, c in pos_index["docs"][:10]]
    phrase_probes = [[s10[0][3] + "x", s10[0][4]],
                     [s10[1][5][:-1] or "de", s10[1][6]],
                     [s10[2][3], s10[2][4]], ["zzzqq", s10[0][3]]]
    return types.SimpleNamespace(
        s=s, ds=ds, seqs=seqs, phrases=phrases, queries=queries,
        vocab=vocab, hot=hot, pair=(a, b),
        missing=_missing(ds, _owner(ds, a)), allowed=docs[::2],
        cand=cand, seed=(seed_id, seed_text), cursor=page1[-1],
        not_pairs=not_pairs, phrase_probes=phrase_probes, thr=int(np.median([len(q) for q in seqs])),
        big=(seqs[0][3], seqs[0][5]), little=seqs[0][4],
        slots=[[seqs[0][3], seqs[1][3]], [seqs[0][4], seqs[1][4]]])


def _q(c):
    return c.queries + [[c.hot], [c.pair[0], c.missing]]


def _call(*args, **kw):
    return (args, kw)


ROWS = {
    # positional family
    "search_phrase": lambda c: [_call(p, 10) for p in c.phrases]
    + [_call([c.pair[0], c.missing], 10)],
    "search_span_first": lambda c: [
        _call(t, end, 20) for t, end in [("def", 3), ("return", 8),
                                         ("import", 1), (c.hot, 3),
                                         (c.pair[0], 8),
                                         ("zzz_unknown_term", 5)]],
    "search_span_not": lambda c: [
        _call(a, b, d, 20)
        for a, b in c.not_pairs + [tuple(p[:2]) for p in c.phrases]
        for d in (1, 3)],
    "search_span_near": lambda c: [_call(p, slop, 10) for p in c.phrases
                                   for slop in (0, 2)],
    "search_intervals": lambda c: [_call(p, g, o, 10) for p in c.phrases
                                   for g, o in ((0, True), (3, False))],
    "search_span_containing": lambda c: [
        _call(list(c.big), slop, c.little, 10) for slop in (1, 3)]
    + [_call(p[:2], 2, p[-1], 10) for p in c.phrases],
    "search_span_within": lambda c: [
        _call(c.little, list(c.big), slop, 10) for slop in (1, 3)]
    + [_call(p[-1], p[:2], 2, 10) for p in c.phrases],
    "search_span_or_near": lambda c: [_call(c.slots, slop, 10)
                                      for slop in (0, 2)]
    + [_call([[a], [b]], 0, 10) for a, b in [p[:2] for p in c.phrases]],
    "search_phrase_prefix": lambda c: [
        _call([p[0], p[1][:2]], 10, max_expansions=m)
        for p in c.phrases for m in (3, 100_000)],
    # filters, expansions, suggesters
    "search_filtered": lambda c: [_call(q, 10, c.allowed, op)
                                  for q in _q(c) for op in ("or", "and")],
    "search_prefix": lambda c: [_call(c.vocab[0][:2], 10),
                                _call(c.hot[:3], 10), _call("zz", 10)],
    "search_fuzzy": lambda c: [_call(c.vocab[5] + "x", 10),
                               _call(c.hot, 10, 2)],
    "search_wildcard": lambda c: [_call(c.vocab[0][:2] + "*", 10),
                                  _call("*" + c.vocab[1][-2:], 10)],
    "search_regexp": lambda c: [_call(f"({c.vocab[0]}|{c.vocab[1]})", 10),
                                _call("nope[0-9]+", 10)],
    "complete": lambda c: [_call(c.vocab[0][:1], 5), _call(c.hot[:2], 5),
                           _call("zzz", 5)],
    "suggest": lambda c: [_call(c.vocab[0] + "x", 5), _call(c.hot, 5)],
    "suggest_phrase": lambda c: [
        _call(p, 3) for p in c.phrase_probes
        + [[c.pair[0] + "x", c.pair[1]], list(c.pair)]],
    # id-set family
    "count": lambda c: [_call(q, op) for q in _q(c) for op in ("or", "and")],
    "matched_doc_ids": lambda c: [_call(q, op) for q in _q(c)
                                  for op in ("or", "and")],
    "excluded_doc_ids": lambda c: [_call(q) for q in _q(c)],
    "search_boolean": lambda c: [_call(q, [c.hot], 10) for q in _q(c)]
    + [_call(c.queries[0], c.queries[1][:1], 10)],
    # disjunctive family
    "select_mlt_terms": lambda c: [_call(c.seed[1], 5)],
    "more_like_this": lambda c: [_call(c.seed[1], 10, 5, [c.seed[0]])],
    "search_after": lambda c: [_call(c.queries[0], 5),
                               _call(c.queries[0], 5, c.cursor)],
    "search_dismax": lambda c: [_call(q, 10, tb) for q in _q(c)
                                for tb in (0.0, 0.5)],
    "search_min_match": lambda c: [_call(q, 10, m) for q in _q(c)
                                   for m in (1, 2)],
    "search_terms_set": lambda c: [_call(q, 10, c.thr, lo, hi)
                                   for q in _q(c)
                                   for lo, hi in ((1, 2), (2, 2))],
    "search_common_terms": lambda c: [_call(q, cut, 10) for q in _q(c)
                                      for cut in (0.02, 0.5)],
    "search_script_score": lambda c: [
        _call(q, "div(mul(_score, dl), sum(dl, 10))", 10) for q in _q(c)],
    "search_weighted": lambda c: [
        _call({t: 1.0 + i * 0.5 for i, t in enumerate(sorted(set(q)))}, 10)
        for q in _q(c)],
    # transport-specific top-k
    "search": lambda c: [_call(q, 10) for q in _q(c)]
    + [_call(q, 10, operator="and") for q in _q(c)],
    "msearch": lambda c: [_call(_q(c) + [[]], 10)],
    # postings primitives
    "term_partials": lambda c: [_call(sorted(set(q))) for q in _q(c)],
    "term_partials_dl": lambda c: [_call(sorted(set(q))) for q in _q(c)],
    "term_partials_for_docs": lambda c: [_call(sorted(set(q)), c.cand)
                                         for q in _q(c)],
    "term_doc_ids": lambda c: [_call(sorted(set(q))) for q in _q(c)],
    "term_dfs": lambda c: [_call(sorted(set(q))) for q in _q(c)],
    "term_total_tfs": lambda c: [_call(sorted(set(q))) for q in _q(c)],
    "term_positions": lambda c: [_call(sorted(set(q)), cand)
                                 for q in _q(c) for cand in (None, c.cand)],
    "vocabulary": lambda c: [_call()],
    "explain": lambda c: [_call(c.queries[0], d)
                          for d, _ in c.s.search(c.queries[0], 3)],
}


def _plain(x):
    """Results as plain Python values: arrays → lists, recursively."""
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return type(x)(_plain(v) for v in x)
    return x


def _planner_names():
    return sorted(n for n, v in vars(QueryPlanner).items()
                  if not n.startswith("_") and callable(v))


def test_rows_cover_every_planner_method():
    """Completeness guard: a planner method without a parity row
    fails here, so new variants cannot skip the parity check."""
    assert set(_planner_names()) <= set(ROWS), \
        sorted(set(_planner_names()) - set(ROWS))
    assert PRIMITIVES | {"search", "msearch"} <= set(ROWS)


def test_distributed_defines_no_variant_body():
    """DistributedSearcher adds only the postings primitives and its
    transport methods; every planner name resolves to the single
    shared implementation."""
    own = {n for n, v in vars(DistributedSearcher).items()
           if not n.startswith("_") and callable(v)}
    assert own <= PRIMITIVES | TRANSPORT, sorted(own - PRIMITIVES - TRANSPORT)
    for n in _planner_names():
        assert getattr(DistributedSearcher, n) is getattr(QueryPlanner, n), n


@pytest.mark.parametrize("name", sorted(ROWS))
def test_parity(ctx, name):
    cases = ROWS[name](ctx)
    assert cases
    nonempty = 0
    for args, kw in cases:
        want = getattr(ctx.s, name)(*args, **kw)
        got = getattr(ctx.ds, name)(*args, **kw)
        assert _plain(got) == _plain(want), (name, args, kw)
        nonempty += bool(len(want)) if hasattr(want, "__len__") else 1
    assert nonempty, f"{name}: every case was empty — fixture drifted"


# ------------------------------------------- argument validation ----


def _error_type(fn):
    try:
        fn()
    except Exception as e:      # noqa: BLE001 — the type IS the result
        return type(e)
    return None


def _pos_cases(ds, s):
    """Degenerate arguments on the positional index: each must raise
    ValueError on the driver whatever the index holds (a candidate
    intersection that empties, or one owning actor)."""
    big = [t for t in s.vocabulary() if s.term_df(t) > 0][:40]
    a = big[0]
    b = next(t for t in big if _owner(ds, t) != _owner(ds, a))
    same = next(t for t in big[1:] if _owner(ds, t) == _owner(ds, a))
    gone = _missing(ds, _owner(ds, a))
    gone_same = _missing(ds, _owner(ds, a), same=True)
    return {
        "span_containing_slop_split": (
            "search_span_containing", ([a, b], -1, gone, 10)),
        "span_containing_slop_one_owner": (
            "search_span_containing", ([a, same], -1, gone_same, 10)),
        "span_within_slop_split": (
            "search_span_within", (gone, [a, b], -1, 10)),
        "span_within_slop_one_owner": (
            "search_span_within", (gone_same, [a, same], -1, 10)),
        "intervals_max_gaps_empty_cand": (
            "search_intervals", ([a, gone], -1)),
        "intervals_distinct_empty_cand": (
            "search_intervals", ([a, gone, a], 0)),
    }


def _nopos_cases(ds, s):
    """Positional queries on an index built without positions."""
    vocab = [t for t in s.vocabulary() if s.term_df(t) > 0]
    hot = sorted(vocab, key=lambda t: (-s.term_df(t), t))
    a = hot[0]
    b = next(t for t in hot if _owner(ds, t) != _owner(ds, a))
    gone = _missing(ds, _owner(ds, a))
    return {
        "span_not_include_eq_exclude": ("search_span_not", (a, a, 1, 10)),
        "span_near_no_common_doc": ("search_span_near", ([a, gone], 0, 10)),
        "phrase_no_common_doc": ("search_phrase", ([a, gone], 10)),
        "phrase_common_docs": ("search_phrase", ([a, b], 10)),
        "intervals_common_docs": ("search_intervals", ([a, b], 0)),
        "span_within_common_docs": ("search_span_within",
                                    (a, [a, b], 1, 10)),
    }


@pytest.mark.parametrize("index,case", [
    ("pos", c) for c in ("span_containing_slop_split",
                         "span_containing_slop_one_owner",
                         "span_within_slop_split",
                         "span_within_slop_one_owner",
                         "intervals_max_gaps_empty_cand",
                         "intervals_distinct_empty_cand")] + [
    ("nopos", c) for c in ("span_not_include_eq_exclude",
                           "span_near_no_common_doc",
                           "phrase_no_common_doc",
                           "phrase_common_docs",
                           "intervals_common_docs",
                           "span_within_common_docs")])
def test_validation_parity(pos_index, built_index, pool, index,  # noqa: F811
                           case):
    root = pos_index["root"] if index == "pos" else built_index["index_root"]
    s, ds = Searcher(root), pool(root)
    cases = (_pos_cases if index == "pos" else _nopos_cases)(ds, s)
    name, args = cases[case]
    local = _error_type(lambda: getattr(s, name)(*args))
    dist = _error_type(lambda: getattr(ds, name)(*args))
    assert local is ValueError and dist is ValueError, (local, dist)


def test_foreign_format_refused_before_actors(built_index, tmp_path,
                                              monkeypatch, ray_session):
    """A rewritten format_version fails both constructors with the same
    driver-side RuntimeError, before any shard actor is requested — a
    newer version, and v3 (whose added rows keep their write seqs only
    in a per-row docs column, so reading it would lose LWW memory)."""
    import ray

    from mee_ray import manifest as mf
    from mee_ray.postings import FORMAT_VERSION

    def no_pool(*a, **kw):
        raise AssertionError("actor pool requested before format check")

    monkeypatch.setattr(ray, "cluster_resources", no_pool)
    for version in (FORMAT_VERSION + 1, 3):
        m = mf.load_manifest(built_index["index_root"])
        m["format_version"] = version
        root = str(tmp_path / f"foreign_v{version}")
        (tmp_path / f"foreign_v{version}" / "epochs" / m["epoch"]).mkdir(
            parents=True)
        mf.write_manifest(root, m["epoch"], m)
        mf.publish(root, m["epoch"])
        for ctor in (Searcher, DistributedSearcher):
            with pytest.raises(RuntimeError, match="posting format") as ei:
                ctor(root)
            assert type(ei.value) is RuntimeError
