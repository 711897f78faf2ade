"""Positional postings + exact phrase queries: codec round-trips and
rank/score identity vs the oracle across build → delta → compact, on
both the in-process Searcher and the shard-actor pool."""

import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from mee_ray.postings import (decode_positions_concat, encode_positions,
                              varint_value_offsets)


def test_position_codec_roundtrip_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        tfs, blobs, flats = [], [], []
        for _ in range(int(rng.integers(0, 6))):
            tf = int(rng.integers(1, 30))
            pos = np.sort(rng.choice(50_000, size=tf, replace=False))
            tfs.append(tf)
            blobs.append(encode_positions(pos))
            flats.append(pos)
        flat, offs = decode_positions_concat(
            b"".join(blobs), np.array(tfs, dtype=np.int64))
        want = np.concatenate(flats) if flats else np.empty(0, np.int64)
        assert np.array_equal(flat, want)
        assert offs[-1] == sum(tfs)


def test_varint_value_offsets_slices_are_valid():
    from mee_ray.postings import varint_decode, varint_encode
    rng = np.random.default_rng(5)
    vals = rng.integers(0, 1 << 50, size=200).astype(np.uint64)
    enc = varint_encode(vals)
    offs = varint_value_offsets(enc)
    assert len(offs) == 201 and offs[-1] == len(enc)
    lo, hi = 37, 115
    sl = varint_decode(enc[offs[lo]:offs[hi]])
    assert np.array_equal(sl, vals[lo:hi])


@pytest.fixture(scope="module")
def pos_index(ray_session, tmp_path_factory):
    import ray.data

    from mee_ray.build import build_index
    from mee_ray.config import EngineConfig
    from mee_ray.corpus import write_corpus
    from mee_ray.ids import doc_id_of
    from mee_ray.oracle import OracleIndex

    root = str(tmp_path_factory.mktemp("pos_idx"))
    cdir = write_corpus(f"{root}/corpus", n_files=150, seed=23,
                        rows_per_file=75)
    cfg = EngineConfig(store_positions=True)
    build_index(ray.data.read_parquet(cdir), f"{root}/index", "ep1", cfg)

    t = pq.read_table(cdir)
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
    oracle = OracleIndex(docs, store_positions=True)
    return {"root": f"{root}/index", "live": live, "docs": docs,
            "oracle": oracle, "cfg": cfg}


def _phrases_from(docs, n=25):
    """Real adjacent bigrams/trigrams from the corpus term streams,
    plus non-matching controls."""
    from mee_ray.config import TokenizerConfig
    from mee_ray.tokenizer import Tokenizer
    tok = Tokenizer(TokenizerConfig())
    phrases = []
    for i, (_, content) in enumerate(docs[:40]):
        seq = tok.terms(content)
        if len(seq) > 10:
            phrases.append(seq[3:5])           # bigram
            if i % 3 == 0:
                phrases.append(seq[5:8])       # trigram
    # dedupe, keep deterministic order
    seen, out = set(), []
    for ph in phrases:
        key = tuple(ph)
        if key not in seen:
            seen.add(key)
            out.append(ph)
    out = out[:n]
    out.append(["qqqq_not_a_term", "also_missing"])
    out.append([out[0][1], out[0][0]])         # reversed → usually no hit
    return out


def test_phrase_matches_oracle(pos_index):
    from mee_ray.query import Searcher

    s = Searcher(pos_index["root"])
    oracle = pos_index["oracle"]
    hits = 0
    for ph in _phrases_from(pos_index["docs"]):
        got = s.search_phrase(ph, k=10)
        want = oracle.search_phrase(ph, k=10)
        assert got == want, ph
        hits += bool(got)
    assert hits >= 15


def test_phrase_distributed(pos_index, ray_session):
    from mee_ray.query import DistributedSearcher

    ds = DistributedSearcher(pos_index["root"], n_actors=3)
    try:
        oracle = pos_index["oracle"]
        for ph in _phrases_from(pos_index["docs"])[:12]:
            assert ds.search_phrase(ph, k=10) == \
                oracle.search_phrase(ph, k=10), ph
    finally:
        ds.shutdown()


def test_phrase_subset_of_conjunctive(pos_index):
    from mee_ray.query import Searcher

    s = Searcher(pos_index["root"])
    for ph in _phrases_from(pos_index["docs"])[:8]:
        conj = dict(s.search(ph, k=100_000, operator="and"))
        for doc, score in s.search_phrase(ph, k=100_000):
            assert doc in conj and conj[doc] == score


def test_phrase_after_delta_and_compact(pos_index, tmp_path):
    import ray  # noqa: F401

    from mee_ray.delta import apply_delta
    from mee_ray.ids import doc_id_of
    from mee_ray.merge import compact
    from mee_ray.oracle import OracleIndex
    from mee_ray.query import Searcher

    index_copy = str(tmp_path / "index")
    shutil.copytree(pos_index["root"], index_copy)
    live = dict(pos_index["live"])
    keys = sorted(live)[:4]
    newc = "alpha beta gamma delta epsilon zeta\nalpha beta again\n"
    ev, seq = [], 1
    for k2 in keys[:2]:
        ev.append({"seq": seq, "type": "UPDATE", "repo": k2[0],
                   "path": k2[1], "commit": "e" * 40, "lang": "python",
                   "content": newc}); seq += 1
    for k2 in keys[2:4]:
        ev.append({"seq": seq, "type": "DELETE", "repo": k2[0],
                   "path": k2[1], "commit": None, "lang": None,
                   "content": None}); seq += 1
    evt = pa.table({n: pa.array([e[n] for e in ev])
                    for n in ("seq", "type", "repo", "path", "commit",
                              "lang", "content")})
    apply_delta(evt, index_copy)
    for k2 in keys[:2]:
        live[k2] = ("e" * 40, newc)
    for k2 in keys[2:4]:
        live.pop(k2)
    docs = [(doc_id_of(r, p, c), content)
            for (r, p), (c, content) in live.items()]
    oracle = OracleIndex(docs, store_positions=True)

    phrases = (_phrases_from(docs)[:10]
               + [["alpha", "beta"], ["alpha", "beta", "gamma"],
                  ["beta", "alpha"], ["beta", "gamma", "delta"]])
    s = Searcher(index_copy)
    for ph in phrases:
        assert s.search_phrase(ph, k=10) == oracle.search_phrase(ph, k=10), ph

    compact(index_copy, "ep2")
    s2 = Searcher(index_copy)
    for ph in phrases:
        assert s2.search_phrase(ph, k=10) == oracle.search_phrase(ph, k=10), ph
    # the phrase that exists only in the delta'd docs actually matched
    assert s2.search_phrase(["alpha", "beta"], k=10)


def test_phrase_repeated_terms_and_edges(ray_session, tmp_path):
    """Hand-built corpus exercising the composite-key corner cases:
    repeated-term phrases ("go go"), self-overlapping runs, phrases at
    position 0, and single-term phrases."""
    import ray.data

    from mee_ray.build import build_index
    from mee_ray.config import EngineConfig
    from mee_ray.ids import doc_id_of
    from mee_ray.oracle import OracleIndex

    docs = [
        ("o/r", "a.py", "c" * 40, "go go go stop\n"),
        ("o/r", "b.py", "c" * 40, "go stop go\n"),
        ("o/r", "c.py", "c" * 40, "stop go go\n"),
        ("o/r", "d.py", "c" * 40, "alpha beta alpha beta\n"),
        ("o/r", "e.py", "c" * 40, "beta alpha\n"),
        ("o/r", "f.py", "c" * 40, "solo\n"),
    ]
    cdir = tmp_path / "corpus"
    cdir.mkdir()
    pq.write_table(pa.table({
        "repo": [d[0] for d in docs], "path": [d[1] for d in docs],
        "commit": [d[2] for d in docs],
        "lang": ["python"] * len(docs),
        "content": [d[3] for d in docs]}),
        str(cdir / "part-0.parquet"))
    root = str(tmp_path / "idx")
    build_index(ray.data.read_parquet(str(cdir)), root, "ep1",
                EngineConfig(store_positions=True))
    oracle = OracleIndex([(doc_id_of(d[0], d[1], d[2]), d[3])
                          for d in docs], store_positions=True)
    from mee_ray.query import Searcher
    s = Searcher(root)
    for ph in (["go", "go"], ["go", "go", "go"], ["go", "stop"],
               ["stop", "go"], ["go", "go", "stop"],
               ["alpha", "beta", "alpha"], ["beta", "alpha"],
               ["alpha", "alpha"], ["solo"], ["go"],
               ["go", "go", "go", "go"]):
        got = s.search_phrase(ph, k=10)
        want = oracle.search_phrase(ph, k=10)
        assert got == want, (ph, got, want)
    # sanity on the semantics themselves, not just engine≡oracle
    ids = {p: doc_id_of("o/r", f"{p}.py", "c" * 40)
           for p in "abcdef"}
    assert {d for d, _ in s.search_phrase(["go", "go"], 10)} == \
        {ids["a"], ids["c"]}
    assert {d for d, _ in s.search_phrase(["go", "go", "go"], 10)} == \
        {ids["a"]}
    assert s.search_phrase(["go", "go", "go", "go"], 10) == []
    assert {d for d, _ in s.search_phrase(["alpha", "beta", "alpha"], 10)} \
        == {ids["d"]}


def test_phrase_requires_positions(built_index):
    from mee_ray.query import Searcher

    s = Searcher(built_index["index_root"])
    with pytest.raises(ValueError, match="store_positions"):
        s.search_phrase(["merge", "sort"], k=10)


def test_distributed_phrase_prefix_guards(built_index, ray_session):
    """The distributed path refuses a positions-less index with the
    same clean driver-side ValueError as the local one (not an
    actor-side RayTaskError), and k<=0 short-circuits without a
    fan-out."""
    from mee_ray.query import DistributedSearcher

    ds = DistributedSearcher(built_index["index_root"], n_actors=2)
    with pytest.raises(ValueError, match="store_positions"):
        ds.search_phrase_prefix(["merge", "so"], k=10)


def test_distributed_phrase_prefix_k_nonpositive(pos_index, ray_session):
    from mee_ray.query import DistributedSearcher

    ds = DistributedSearcher(pos_index["root"], n_actors=2)
    assert ds.search_phrase_prefix(["merge", "so"], k=0) == []
    assert ds.search_phrase_prefix(["merge", "so"], k=-3) == []


def test_positions_pin_defaults_for_prefeature_manifests(built_index):
    """A manifest WITHOUT a pinned key (store_positions) predates the
    current format: reconstruction and validation both refuse it
    instead of guessing the value it was built with."""
    from mee_ray import manifest as mf
    from mee_ray.config import (EngineConfig, config_from_manifest,
                                validate_config_against_manifest)

    m = dict(mf.load_manifest(built_index["index_root"]))
    m.pop("store_positions", None)     # simulate a pre-feature index
    with pytest.raises(ValueError, match="store_positions"):
        config_from_manifest(m)
    with pytest.raises(ValueError, match="store_positions"):
        validate_config_against_manifest(
            EngineConfig(store_positions=True), m)


# ------------------------------------------------- span_near (slop) --


def test_span_near_match_docs_random_vs_bruteforce():
    """Pure-matcher property test: the vectorized reachable-set
    propagation equals an exhaustive per-doc chain search on random
    position data (duplicate phrase terms included)."""
    from mee_ray.query import span_near_match_docs

    rng = np.random.default_rng(7)
    for trial in range(40):
        pool = ["a", "b", "c"]
        n_terms = int(rng.integers(2, 4))
        terms = [pool[int(rng.integers(0, 3))] for _ in range(n_terms)]
        slop = int(rng.integers(0, 4))
        data, docpos = {}, {}
        for t in set(terms):
            ids = np.sort(rng.choice(
                1000, size=int(rng.integers(5, 30)),
                replace=False)).astype(np.int64)
            offs, flat = [0], []
            docpos[t] = {}
            for d in ids:
                tf = int(rng.integers(1, 5))
                pos = np.sort(rng.choice(40, size=tf, replace=False))
                docpos[t][int(d)] = tuple(pos.tolist())
                flat.extend(pos.tolist())
                offs.append(len(flat))
            data[t] = (ids, np.array(offs, dtype=np.int64),
                       np.array(flat, dtype=np.int64))
        got = set(span_near_match_docs(data, terms, slop).tolist())

        def chain(doc, i, prev):
            if i == len(terms):
                return True
            return any(prev < p <= prev + slop + 1
                       and chain(doc, i + 1, p)
                       for p in docpos[terms[i]].get(doc, ()))

        cand = set.intersection(*(set(docpos[t]) for t in set(terms)))
        want = {d for d in cand
                if any(chain(d, 1, p)
                       for p in docpos[terms[0]].get(d, ()))}
        assert got == want, (terms, slop, trial)


def _span_queries_from(docs, n=20):
    """Gapped in-document term pairs/triples (real proximity hits at
    small slop), plus adjacent pairs and non-matching controls."""
    from mee_ray.config import TokenizerConfig
    from mee_ray.tokenizer import Tokenizer
    tok = Tokenizer(TokenizerConfig())
    out, seen = [], set()
    for i, (_, content) in enumerate(docs[:40]):
        seq = tok.terms(content)
        if len(seq) <= 12:
            continue
        cases = [([seq[2], seq[4]], 1),          # gap of 1
                 ([seq[3], seq[7]], 3),          # gap of 3
                 ([seq[1], seq[2]], 0)]          # adjacent, slop 0
        if i % 3 == 0:
            cases.append(([seq[2], seq[5], seq[8]], 2))
        for ph, slop in cases:
            key = (tuple(ph), slop)
            if key not in seen:
                seen.add(key)
                out.append((ph, slop))
    out = out[:n]
    out.append((["qqqq_not_a_term", "also_missing"], 2))
    out.append((list(reversed(out[0][0])), 0))
    return out


def test_span_near_matches_oracle(pos_index):
    from mee_ray.query import Searcher

    s = Searcher(pos_index["root"])
    oracle = pos_index["oracle"]
    hits = 0
    for ph, slop in _span_queries_from(pos_index["docs"]):
        got = s.search_span_near(ph, slop, k=10)
        want = oracle.search_span_near(ph, slop, k=10)
        assert got == want, (ph, slop)
        hits += bool(got)
    assert hits >= 10


def test_span_near_slop0_equals_phrase(pos_index):
    from mee_ray.query import Searcher

    s = Searcher(pos_index["root"])
    for ph in _phrases_from(pos_index["docs"])[:10]:
        assert s.search_span_near(ph, 0, k=50) == s.search_phrase(ph, k=50)


def test_span_near_monotone_in_slop(pos_index):
    from mee_ray.query import Searcher

    s = Searcher(pos_index["root"])
    for ph in _phrases_from(pos_index["docs"])[:6]:
        prev: set = set()
        for slop in (0, 1, 2, 4):
            docs = {d for d, _ in s.search_span_near(ph, slop, k=100_000)}
            assert prev <= docs, (ph, slop)
            prev = docs


def test_span_near_distributed(pos_index, ray_session):
    from mee_ray.query import DistributedSearcher

    ds = DistributedSearcher(pos_index["root"], n_actors=3)
    try:
        oracle = pos_index["oracle"]
        for ph, slop in _span_queries_from(pos_index["docs"])[:10]:
            assert ds.search_span_near(ph, slop, k=10) == \
                oracle.search_span_near(ph, slop, k=10), (ph, slop)
    finally:
        ds.shutdown()


# ------------------------------------------------------ intervals ----


def test_intervals_match_docs_random_vs_bruteforce():
    """Pure-matcher property test: the prefix-running-max (ordered)
    and minimal-covering-window (unordered) kernels equal an
    exhaustive occurrence-combination search on random position data
    (distinct terms — the intervals contract)."""
    import itertools

    from mee_ray.query import intervals_match_docs

    rng = np.random.default_rng(11)
    for trial in range(60):
        pool = ["a", "b", "c"]
        n_terms = int(rng.integers(1, 4))
        terms = pool[:n_terms]
        max_gaps = int(rng.integers(0, 5))
        ordered = bool(rng.integers(0, 2))
        data, docpos = {}, {}
        for t in terms:
            ids = np.sort(rng.choice(
                1000, size=int(rng.integers(5, 30)),
                replace=False)).astype(np.int64)
            offs, flat = [0], []
            docpos[t] = {}
            for d in ids:
                tf = int(rng.integers(1, 5))
                pos = np.sort(rng.choice(40, size=tf, replace=False))
                docpos[t][int(d)] = tuple(pos.tolist())
                flat.extend(pos.tolist())
                offs.append(len(flat))
            data[t] = (ids, np.array(offs, dtype=np.int64),
                       np.array(flat, dtype=np.int64))
        got = set(intervals_match_docs(data, terms, max_gaps,
                                       ordered).tolist())
        bound = len(terms) - 1 + max_gaps
        cand = set.intersection(*(set(docpos[t]) for t in terms))
        want = set()
        for d in cand:
            for combo in itertools.product(
                    *(docpos[t].get(d, ()) for t in terms)):
                if ordered and any(b <= a for a, b
                                   in zip(combo, combo[1:])):
                    continue
                if max(combo) - min(combo) <= bound:
                    want.add(d)
                    break
        assert got == want, (trial, terms, max_gaps, ordered)


def _intervals_queries_from(docs, n=20):
    """Interval cases with DISTINCT terms drawn from real token
    streams (near and far co-occurrences) plus non-matching controls."""
    from mee_ray.config import TokenizerConfig
    from mee_ray.tokenizer import Tokenizer
    tok = Tokenizer(TokenizerConfig())
    out, seen = [], set()
    for i, (_, content) in enumerate(docs[:40]):
        seq = tok.terms(content)
        if len(seq) <= 12:
            continue
        cases = [([seq[2], seq[4]], 1, True),
                 ([seq[4], seq[2]], 2, False),     # reversed, unordered
                 ([seq[3], seq[7]], 3, True),
                 ([seq[1], seq[2]], 0, True)]      # adjacent, 0 gaps
        if i % 3 == 0:
            cases.append(([seq[2], seq[5], seq[8]], 4, True))
            cases.append(([seq[8], seq[2], seq[5]], 4, False))
        for terms, g, o in cases:
            key = (tuple(terms), g, o)
            if len(set(terms)) == len(terms) and key not in seen:
                seen.add(key)
                out.append((terms, g, o))
    out = out[:n]
    out.append((["qqqq_not_a_term", "also_missing"], 2, True))
    return out


def test_intervals_matches_oracle(pos_index):
    from mee_ray.query import Searcher

    s = Searcher(pos_index["root"])
    oracle = pos_index["oracle"]
    hits = 0
    for terms, g, o in _intervals_queries_from(pos_index["docs"]):
        got = s.search_intervals(terms, max_gaps=g, ordered=o, k=10)
        want = oracle.search_intervals(terms, max_gaps=g, ordered=o,
                                       k=10)
        assert got == want, (terms, g, o)
        hits += bool(got)
    assert hits >= 8


def test_intervals_zero_gaps_ordered_equals_phrase(pos_index):
    """For DISTINCT-term phrases, ordered max_gaps=0 is exactly the
    phrase predicate (width n ⇒ consecutive in order)."""
    from mee_ray.query import Searcher

    s = Searcher(pos_index["root"])
    for ph in _phrases_from(pos_index["docs"])[:10]:
        if len(set(ph)) != len(ph):
            continue
        assert s.search_intervals(ph, max_gaps=0, ordered=True, k=50) \
            == s.search_phrase(ph, k=50), ph


def test_intervals_monotone_and_unordered_superset(pos_index):
    """Match sets grow with max_gaps and ordered ⊆ unordered at equal
    budget."""
    from mee_ray.query import Searcher

    s = Searcher(pos_index["root"])
    for terms, _, _ in _intervals_queries_from(pos_index["docs"])[:6]:
        prev: set = set()
        for g in (0, 1, 3, 6):
            docs = {d for d, _ in s.search_intervals(
                terms, max_gaps=g, ordered=True, k=100_000)}
            un = {d for d, _ in s.search_intervals(
                terms, max_gaps=g, ordered=False, k=100_000)}
            assert prev <= docs, (terms, g)
            assert docs <= un, (terms, g)
            prev = docs


def test_intervals_distributed(pos_index, ray_session):
    from mee_ray.query import DistributedSearcher

    ds = DistributedSearcher(pos_index["root"], n_actors=3)
    try:
        oracle = pos_index["oracle"]
        for terms, g, o in _intervals_queries_from(
                pos_index["docs"])[:10]:
            assert ds.search_intervals(terms, max_gaps=g, ordered=o,
                                       k=10) == \
                oracle.search_intervals(terms, max_gaps=g, ordered=o,
                                        k=10), (terms, g, o)
    finally:
        ds.shutdown()


# ------------------------------------------- match_phrase_prefix -----


def _pp_bruteforce(docs, terms, oracle, k=10, allowed_next=None):
    """Expected phrase_prefix result: membership from the raw token
    streams, scores = oracle.search_and over the fixed terms filtered
    to the matching docs (the engine's documented scoring)."""
    from mee_ray.config import TokenizerConfig
    from mee_ray.tokenizer import Tokenizer
    tok = Tokenizer(TokenizerConfig())
    fixed, prefix = terms[:-1], terms[-1]
    matched = set()
    for doc_id, content in docs:
        seq = tok.terms(content)
        for i in range(len(seq) - len(fixed)):
            nxt = seq[i + len(fixed)]
            ok = (nxt in allowed_next) if allowed_next is not None \
                else nxt.startswith(prefix)
            if seq[i:i + len(fixed)] == fixed and ok:
                matched.add(doc_id)
                break
    ranked = oracle.search_and(fixed, k=len(docs) + 1)
    return [(d, s) for d, s in ranked if d in matched][:k]


def _pp_queries_from(docs, n=15):
    from mee_ray.config import TokenizerConfig
    from mee_ray.tokenizer import Tokenizer
    tok = Tokenizer(TokenizerConfig())
    out, seen = [], set()
    for _, content in docs[:40]:
        seq = tok.terms(content)
        if len(seq) <= 8:
            continue
        for ph in ([seq[2], seq[3][:2]], [seq[4], seq[5], seq[6][:3]]):
            key = tuple(ph)
            if key not in seen and all(ph):
                seen.add(key)
                out.append(ph)
    out = out[:n]
    out.append(["qqqq_not_a_term", "xy"])
    return out


def test_phrase_prefix_matches_bruteforce(pos_index):
    from mee_ray.query import Searcher

    s = Searcher(pos_index["root"])
    oracle = pos_index["oracle"]
    hits = 0
    for ph in _pp_queries_from(pos_index["docs"]):
        got = s.search_phrase_prefix(ph, k=10, max_expansions=100_000)
        want = _pp_bruteforce(pos_index["docs"], ph, oracle)
        assert got == want, ph
        hits += bool(got)
    assert hits >= 8


def test_phrase_prefix_expansion_cap(pos_index):
    """max_expansions truncates in dictionary order (the ES
    contract): capped at 1, only the lexicographically first
    expansion gates membership."""
    from mee_ray.query import Searcher

    s = Searcher(pos_index["root"])
    oracle = pos_index["oracle"]
    vocab = s.vocabulary()
    checked = 0
    for ph in _pp_queries_from(pos_index["docs"])[:8]:
        prefix = ph[-1]
        exps = [t for t in vocab if t.startswith(prefix)]
        if len(exps) < 2:
            continue
        got = s.search_phrase_prefix(ph, k=10, max_expansions=1)
        want = _pp_bruteforce(pos_index["docs"], ph, oracle,
                              allowed_next={exps[0]})
        assert got == want, ph
        checked += 1
    assert checked >= 1


def test_phrase_prefix_rejects_single_term(pos_index):
    from mee_ray.query import Searcher

    s = Searcher(pos_index["root"])
    with pytest.raises(ValueError):
        s.search_phrase_prefix(["justaprefix"])


def test_phrase_prefix_distributed(pos_index, ray_session):
    from mee_ray.query import DistributedSearcher, Searcher

    s = Searcher(pos_index["root"])
    ds = DistributedSearcher(pos_index["root"], n_actors=3)
    try:
        oracle = pos_index["oracle"]
        checked = 0
        for ph in _pp_queries_from(pos_index["docs"])[:10]:
            got = ds.search_phrase_prefix(ph, k=10,
                                          max_expansions=100_000)
            want = _pp_bruteforce(pos_index["docs"], ph, oracle)
            assert got == want, ph
            assert got == s.search_phrase_prefix(
                ph, k=10, max_expansions=100_000), ph
            checked += bool(got)
        assert checked >= 5
    finally:
        ds.shutdown()


def test_span_first_membership_and_scores(pos_index):
    """span_first: (1) member set = docs whose first occurrence of the
    term is inside the window (checked against re-tokenized text);
    (2) survivor scores equal the plain single-term search scores;
    (3) end<=0 and unknown terms return empty."""
    from mee_ray.query import Searcher
    from mee_ray.tokenizer import Tokenizer

    s = Searcher(pos_index["root"])
    tok = Tokenizer(pos_index["cfg"].tokenizer)
    any_hit = False
    for term, end in [("def", 3), ("return", 8), ("import", 1)]:
        got = s.search_span_first(term, end, k=s.n_docs or 1)
        want_members = set()
        for did, content in pos_index["docs"]:
            toks = tok.terms(content)
            if term in toks[:end]:
                want_members.add(did)
        assert {d for d, _ in got} == want_members
        any_hit = any_hit or bool(got)
        full = dict(s.search([term], k=s.n_docs or 1))
        for d, sc in got:
            assert sc == full[d]
    assert any_hit, "probe terms never matched — fixture drifted"
    assert s.search_span_first("def", 0) == []
    assert s.search_span_first("zzz_unknown_term", 5) == []


def test_span_not_matches_oracle(pos_index):
    """Engine span_not is tuple-identical to the oracle's brute-force
    positional veto over real corpus term pairs at several distances,
    and the veto actually FIRES (some include-doc is excluded) for at
    least one probe."""
    from mee_ray.config import TokenizerConfig
    from mee_ray.query import Searcher
    from mee_ray.tokenizer import Tokenizer

    s = Searcher(pos_index["root"])
    oi = pos_index["oracle"]
    tok = Tokenizer(TokenizerConfig())

    # build probe pairs from real adjacent/nearby term pairs so the
    # exclusion is non-vacuous, plus controls
    pairs = []
    for _, content in pos_index["docs"][:30]:
        seq = tok.terms(content)
        if len(seq) > 12:
            pairs.append((seq[3], seq[4]))    # adjacent → veto at d>=1
            pairs.append((seq[5], seq[9]))
    seen, probes = set(), []
    for p in pairs:
        if p not in seen and p[0] != p[1]:
            seen.add(p)
            probes.append(p)
    probes = probes[:12]
    probes.append(("def", "zzz_no_such_term"))   # missing exclude

    veto_fired = False
    for inc, exc in probes:
        for dist in (0, 1, 3):
            got = s.search_span_not(inc, exc, dist, k=s.n_docs or 1)
            want = oi.search_span_not(inc, exc, dist, k=oi.n_docs + 1)
            assert got == want, (inc, exc, dist)
            plain = s.search([inc], k=s.n_docs or 1)
            if len(got) < len(plain):
                veto_fired = True
    assert veto_fired, "no probe ever excluded a doc — fixture drifted"

    assert s.search_span_not("def", "def", 2) == []
    assert s.search_span_not("", "def", 2) == []
    assert s.search_span_not("zzz_unknown", "def", 2) == []


def test_span_not_match_docs_kernel():
    """Unit cases for the vectorized veto kernel, including unsorted
    exclude runs (the delta-chunk layout) and all-occurrences-vetoed
    docs."""
    import numpy as np

    from mee_ray.query import span_not_match_docs

    def ragged(runs):
        ids = np.array([d for d, _ in runs], dtype=np.int64)
        off = np.concatenate(
            ([0], np.cumsum([len(p) for _, p in runs]))).astype(np.int64)
        pos = np.array([x for _, p in runs for x in p], dtype=np.int64)
        return ids, off, pos

    inc = ragged([(10, [5, 20]), (11, [7]), (12, [1])])
    # doc 10: excludes at 4 (d=1 from 5) and 22 (d=2 from 20)
    # doc 11: exclude at 7+3=10 (d=3); doc 12: no excludes
    exc = ragged([(11, [10]), (10, [4, 22])])          # UNSORTED runs
    assert span_not_match_docs(inc, exc, 0).tolist() == [10, 11, 12]
    assert span_not_match_docs(inc, exc, 1).tolist() == [10, 11, 12]
    # dist=2: doc 10's occ@5 vetoed (|5-4|=1), occ@20 vetoed (|20-22|=2)
    assert span_not_match_docs(inc, exc, 2).tolist() == [11, 12]
    assert span_not_match_docs(inc, exc, 3).tolist() == [12]
    # empty exclude → all include docs, sorted
    empty = (np.empty(0, np.int64), np.zeros(1, np.int64),
             np.empty(0, np.int64))
    assert span_not_match_docs(inc, empty, 5).tolist() == [10, 11, 12]
    assert span_not_match_docs(empty, exc, 5).size == 0


def test_phrase_suggester_matches_bruteforce(pos_index):
    """suggest_phrase == an independent brute-force: candidate slots
    re-derived by DP edit distance over the vocabulary, bigram and
    unigram counts re-counted from the raw token streams, same
    stupid-backoff score tree."""
    import itertools
    import math

    from mee_ray.config import TokenizerConfig
    from mee_ray.query import Searcher, _levenshtein_le
    from mee_ray.tokenizer import Tokenizer

    s = Searcher(pos_index["root"])
    tok = Tokenizer(TokenizerConfig())
    streams = [tok.terms(content) for _, content in pos_index["docs"]]
    uni: dict = {}
    big: dict = {}
    for seq in streams:
        for w in seq:
            uni[w] = uni.get(w, 0) + 1
        for a, b in zip(seq, seq[1:]):
            big[(a, b)] = big.get((a, b), 0) + 1
    T = sum(uni.values())
    vocab = s.vocabulary()

    def brute(terms, n=3, cap=5, backoff=0.4):
        slots = []
        for t in terms:
            # rank by LIVE df like the engine: df = number of docs
            dfs = {}
            for w in vocab:
                if _levenshtein_le(t, w, 1):
                    dfs[w] = sum(1 for seq in streams if w in seq)
            ranked = sorted(dfs.items(), key=lambda kv: (-kv[1], kv[0]))
            slots.append([w for w, df in ranked[:cap] if df > 0])
            if not slots[-1]:
                return []
        out = []
        for combo in itertools.product(*slots):
            sc = math.log(uni[combo[0]] / T)
            for a, b in zip(combo, combo[1:]):
                cb = big.get((a, b), 0)
                sc += (math.log(cb / uni[a]) if cb > 0
                       else math.log(backoff * uni[b] / T))
            out.append((round(sc, 10), list(combo)))
        out.sort(key=lambda x: (-x[0], x[1]))
        return out[:n]

    # probes: in-vocab words WITH edit-1 neighbors (multi-candidate
    # slots), corrupted frequent terms, an exact phrase, and a
    # no-candidate control
    freq = sorted(uni.items(), key=lambda kv: -kv[1])[:12]
    words = [w for w, _ in freq if len(w) >= 3]
    rich = [w for w in vocab
            if len(w) >= 3 and sum(
                1 for v in vocab if _levenshtein_le(w, v, 1)) >= 2]
    assert rich, "corpus vocabulary has no edit-1 clusters"
    probes = [[rich[0], words[0]], [words[1], rich[-1]]]
    probes.append([words[0] + "x", words[1]])
    probes.append([words[2][:-1], words[3]])
    probes.append([words[0], words[1]])           # exact phrase input
    probes.append(["zzzzqq", words[0]])           # slot with no cands
    any_multi = False
    for terms in probes:
        got = s.suggest_phrase(terms, n=3)
        want = brute(terms, n=3)
        assert got == want, (terms, got, want)
        if len(got) > 1:
            any_multi = True
    assert any_multi, "no probe produced >1 ranked suggestion"



def _span_comp_cases(docs):
    """Deterministic containment/or cases drawn from real doc token
    streams: big pairs with a little token between them (hit-heavy)
    and one far outside (usually miss)."""
    from mee_ray.config import TokenizerConfig
    from mee_ray.tokenizer import Tokenizer
    tok = Tokenizer(TokenizerConfig())
    containing, or_near = [], []
    for i, (_, c) in enumerate(sorted(docs)[:40]):
        seq = tok.terms(c)
        if len(seq) > 15 and len(set(seq[:13])) > 6:
            containing.append(([seq[3], seq[7]], 5, seq[5]))
            containing.append(([seq[3], seq[7]], 3, seq[12]))
            or_near.append(([[seq[2], seq[9]], [seq[4]]], 4))
            or_near.append(([[seq[0]], [seq[1], seq[6]], [seq[2]]], 2))
    return containing, or_near


def test_span_containing_and_within_match_oracle(pos_index):
    from mee_ray.query import Searcher

    s = Searcher(pos_index["root"])
    oracle = pos_index["oracle"]
    containing, _ = _span_comp_cases(pos_index["docs"])
    assert containing, "corpus produced no cases"
    hits = 0
    for big, slop, little in containing:
        got = s.search_span_containing(big, slop, little, k=10)
        assert got == oracle.search_span_containing(
            big, slop, little, k=10), (big, slop, little)
        assert s.search_span_within(little, big, slop, k=10) == \
            oracle.search_span_within(little, big, slop, k=10), \
            (big, slop, little)
        hits += bool(got)
    assert hits > 0


def test_span_or_near_matches_oracle(pos_index):
    from mee_ray.query import Searcher

    s = Searcher(pos_index["root"])
    oracle = pos_index["oracle"]
    _, or_near = _span_comp_cases(pos_index["docs"])
    assert or_near, "corpus produced no cases"
    hits = 0
    for slots, slop in or_near:
        got = s.search_span_or_near(slots, slop, k=10)
        assert got == oracle.search_span_or_near(slots, slop, k=10), \
            (slots, slop)
        hits += bool(got)
    assert hits > 0
    # single-alternative slots degenerate to plain span_near scoring?
    # no — or_near scores disjunctively; but MEMBERSHIP must agree:
    flat = [["merge"], ["group"]]
    member_or = {d for d, _ in s.search_span_or_near(flat, 2,
                                                     k=s.n_docs or 1)}
    member_near = {d for d, _ in s.search_span_near(
        ["merge", "group"], 2, k=s.n_docs or 1)}
    assert member_or == member_near


def test_span_composition_edges(pos_index):
    import pytest as _pytest

    from mee_ray.query import Searcher

    s = Searcher(pos_index["root"])
    assert s.search_span_containing(["merge", "group"], 2, "zz_none",
                                    k=10) == []
    assert s.search_span_or_near([["zz_none"], ["merge"]], 2,
                                 k=10) == []
    with _pytest.raises(ValueError, match=">= 2 big terms"):
        s.search_span_containing(["merge"], 2, "x", k=10)
    with _pytest.raises(ValueError, match="little term"):
        s.search_span_within("", ["merge", "group"], 2, k=10)
    with _pytest.raises(ValueError, match=">= 1 term"):
        s.search_span_or_near([["a"], []], 2, k=10)
    with _pytest.raises(ValueError, match="slop"):
        s.search_span_or_near([["merge"], ["group"]], -1, k=10)


def test_span_composition_distributed(pos_index, ray_session):
    from mee_ray.query import DistributedSearcher

    oracle = pos_index["oracle"]
    containing, or_near = _span_comp_cases(pos_index["docs"])
    ds = DistributedSearcher(pos_index["root"], n_actors=3)
    try:
        for big, slop, little in containing[:12]:
            assert ds.search_span_containing(big, slop, little,
                                             k=10) == \
                oracle.search_span_containing(big, slop, little,
                                              k=10), (big, slop)
            assert ds.search_span_within(little, big, slop, k=10) == \
                oracle.search_span_within(little, big, slop, k=10)
        for slots, slop in or_near[:12]:
            assert ds.search_span_or_near(slots, slop, k=10) == \
                oracle.search_span_or_near(slots, slop, k=10), \
                (slots, slop)
    finally:
        ds.shutdown()


def test_span_containing_kernel_fuzz():
    """Adversarial randomized check of span_near_spans /
    span_containing_match_docs against a brute-force chain enumerator
    on tiny synthetic position sets — more terms, tighter windows, and
    denser duplicate positions than any real corpus case."""
    import numpy as np

    from mee_ray.query import span_containing_match_docs

    rng = np.random.default_rng(1234)
    for trial in range(300):
        n_docs = int(rng.integers(1, 6))
        n_terms = int(rng.integers(2, 5))
        slop = int(rng.integers(0, 4))
        terms = [f"t{i}" for i in range(n_terms)]
        little = "little" if rng.random() < 0.8 else terms[0]
        vocab = terms + (["little"] if little == "little" else [])
        # per-doc random positions per term
        pos: dict[str, dict[int, list[int]]] = {t: {} for t in vocab}
        for d in range(n_docs):
            for t in vocab:
                kk = int(rng.integers(0, 5))
                if kk:
                    pos[t][d] = sorted(set(
                        rng.integers(0, 14, size=kk).tolist()))

        def tdp(t):
            ids, offs, flat = [], [0], []
            for d in sorted(pos[t]):
                if pos[t][d]:
                    ids.append(d)
                    flat.extend(pos[t][d])
                    offs.append(len(flat))
            return (np.array(ids, np.int64),
                    np.array(offs, np.int64),
                    np.array(flat, np.int64))

        data = {t: tdp(t) for t in set(terms) | {little}}
        got = span_containing_match_docs(data, terms, slop,
                                         little).tolist()

        def spans(d):
            out = []

            def chain(i, prev, start):
                if i == n_terms:
                    out.append((start, prev))
                    return
                for p in pos[terms[i]].get(d, []):
                    if prev < p <= prev + slop + 1:
                        chain(i + 1, p, start)

            for p0 in pos[terms[0]].get(d, []):
                chain(1, p0, p0)
            return out

        want = sorted(
            d for d in range(n_docs)
            if any(s <= p <= e for s, e in spans(d)
                   for p in pos[little].get(d, [])))
        assert got == want, (trial, terms, slop, little, pos, got,
                             want)
