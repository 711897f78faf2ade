"""End-to-end engine tests: build → query → delta → compact → resume,
rank-identical to the pure-Python oracle (the north_rule acceptance
test, SURVEY.md §5.2)."""

import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from mee_ray.build import build_index
from mee_ray.config import EngineConfig
from mee_ray.corpus import write_corpus
from mee_ray.ids import doc_id_of
from mee_ray import manifest as mf
from mee_ray.oracle import OracleIndex, make_query_set

ROOT = "/tmp/mee_test_engine"
N_FILES = 250


def _live_docs(cdir):
    t = pq.read_table(cdir)
    rows = {}
    for r, p, c, content in zip(t["repo"].to_pylist(), t["path"].to_pylist(),
                                t["commit"].to_pylist(), t["content"].to_pylist()):
        key = (r, p)
        if key not in rows or c > rows[key][0]:
            rows[key] = (c, content)
    return {k: v for k, v in rows.items()}


# built_index fixture: session-scoped, shared from conftest.py


def test_global_stats_match_oracle(built_index):
    m, oi = built_index["manifest"], built_index["oracle"]
    assert m["n_docs"] == oi.n_docs
    assert m["avgdl"] == pytest.approx(oi.avgdl, abs=0)


def test_content_sha256_invariant(built_index):
    """Per-row invariant vs the reference (BASELINE.json input_hint):
    docs-table content_sha256 equals sha256 of the input content."""
    t = pa.concat_tables(
        [pq.read_table(f, columns=mf.DOCS_COLUMNS)
         for f in mf.docs_files(built_index["index_root"], "ep1")])
    live = built_index["live"]
    assert t.num_rows == len(live)
    for r, p, c, sha in zip(t["repo"].to_pylist(), t["path"].to_pylist(),
                            t["commit"].to_pylist(), t["content_sha256"].to_pylist()):
        commit, content = live[(r, p)]
        assert commit == c
        assert hashlib.sha256(content.encode()).digest() == sha


def test_dedup_latest_wins(built_index):
    t = pa.concat_tables(
        [pq.read_table(f, columns=mf.DOCS_COLUMNS)
         for f in mf.docs_files(built_index["index_root"], "ep1")])
    keys = list(zip(t["repo"].to_pylist(), t["path"].to_pylist()))
    assert len(keys) == len(set(keys))  # one row per (repo, path)


def test_rank_identity_local(built_index):
    from mee_ray.query import Searcher
    s = Searcher(built_index["index_root"])
    oi = built_index["oracle"]
    queries = make_query_set(built_index["docs"], n_queries=40, seed=5)
    for q in queries:
        eng = s.search(q["terms"], q["k"])
        ora = oi.search(q["terms"], q["k"])
        assert eng == ora, f"query {q['terms']}: {eng[:3]} != {ora[:3]}"


def test_rank_identity_distributed_actors(built_index, ray_session):
    from mee_ray.query import DistributedSearcher
    ds = DistributedSearcher(built_index["index_root"], n_actors=3)
    oi = built_index["oracle"]
    for q in make_query_set(built_index["docs"], n_queries=12, seed=6):
        assert ds.search(q["terms"], q["k"]) == oi.search(q["terms"], q["k"])


def test_missing_term_and_empty_query(built_index):
    from mee_ray.query import Searcher
    s = Searcher(built_index["index_root"])
    assert s.search(["zz_no_such_term_zz"], 10) == []
    assert s.search([], 10) == []


def test_parallelism_invariance(built_index, ray_session):
    """Same corpus, different shuffle layout (shards × parts) → same
    manifest stats and identical query results. This is the in-sandbox
    evidence that doc_ids/scores don't depend on partitioning."""
    import ray.data
    from mee_ray.query import Searcher
    corpus = ray.data.read_parquet(built_index["cdir"])
    cfg2 = EngineConfig(num_shards=3, parts_per_shard=2, salt_factor=4)
    build_index(corpus, f"{ROOT}/index2", "epA", cfg2)
    s1 = Searcher(built_index["index_root"])
    s2 = Searcher(f"{ROOT}/index2")
    assert s1.n_docs == s2.n_docs and s1.avgdl == s2.avgdl
    for q in make_query_set(built_index["docs"], n_queries=15, seed=9):
        assert s1.search(q["terms"], q["k"]) == s2.search(q["terms"], q["k"])


def test_resume_is_noop_and_partition_skip(built_index, ray_session):
    import ray.data
    m1 = built_index["manifest"]
    corpus = ray.data.read_parquet(built_index["cdir"])
    # lose the stage file for segments → partitions short-circuit via sidecars
    st = mf.load_state(built_index["index_root"], "ep1")
    st.pop("segments")
    mf._atomic_write_json(mf._state_path(built_index["index_root"], "ep1"), st)
    m2 = build_index(corpus, built_index["index_root"], "ep1", EngineConfig())
    assert m2["n_docs"] == m1["n_docs"]
    assert all(r["resumed"] for r in m2["segments"])
    assert ({r["path"]: r["sha256"] for r in m2["segments"]}
            == {r["path"]: r["sha256"] for r in m1["segments"]})


def test_delta_and_compact_rank_identity(built_index, ray_session, tmp_path):
    from mee_ray.delta import apply_delta
    from mee_ray.merge import compact
    from mee_ray.query import Searcher

    # operate on a COPY: built_index is session-shared and later test
    # files compare it against the original corpus's oracle
    index_copy = str(tmp_path / "index")
    shutil.copytree(built_index["index_root"], index_copy)
    built_index = dict(built_index, index_root=index_copy)

    live = dict(built_index["live"])
    keys = sorted(live)[:6]
    ev, seq = [], 1
    new_content = "def patchedThing(x):\n    return delta_marker_token\n"
    for k in keys[:3]:
        ev.append({"seq": seq, "type": "UPDATE", "repo": k[0], "path": k[1],
                   "commit": "e" * 40, "lang": "python", "content": new_content}); seq += 1
    for k in keys[3:6]:
        ev.append({"seq": seq, "type": "DELETE", "repo": k[0], "path": k[1],
                   "commit": None, "lang": None, "content": None}); seq += 1
    ev.append({"seq": seq, "type": "INSERT", "repo": "orgN/repoN", "path": "src/n.py",
               "commit": "b" * 40, "lang": "python",
               "content": "def insertedFn():\n    return inserted_marker\n"}); seq += 1
    evt = pa.table({n: pa.array([e[n] for e in ev])
                    for n in ("seq", "type", "repo", "path", "commit", "lang", "content")})
    rec = apply_delta(evt, built_index["index_root"])
    assert rec["n_added"] == 4 and rec["n_deleted"] == 6

    for k in keys[:3]:
        live[k] = ("e" * 40, new_content)
    for k in keys[3:6]:
        live.pop(k)
    live[("orgN/repoN", "src/n.py")] = ("b" * 40, "def insertedFn():\n    return inserted_marker\n")
    docs = [(doc_id_of(r, p, c), content) for (r, p), (c, content) in live.items()]
    oi = OracleIndex(docs)

    s = Searcher(built_index["index_root"])
    assert (s.n_docs, s.avgdl) == (oi.n_docs, oi.avgdl)
    queries = make_query_set(docs, n_queries=25, seed=4)
    queries += [{"query_id": 90, "terms": ["delta_marker_token"], "k": 10},
                {"query_id": 91, "terms": ["inserted_marker", "inserted"], "k": 10},
                {"query_id": 92, "terms": ["patchedthing", "patched", "thing"], "k": 10}]
    for q in queries:
        assert s.search(q["terms"], q["k"]) == oi.search(q["terms"], q["k"])

    m2 = compact(built_index["index_root"], "ep2", EngineConfig(), gc_old=False)
    assert mf.current_epoch(built_index["index_root"]) == "ep2"
    s2 = Searcher(built_index["index_root"])
    assert (s2.n_docs, s2.avgdl) == (oi.n_docs, oi.avgdl)
    for q in queries:
        assert s2.search(q["terms"], q["k"]) == oi.search(q["terms"], q["k"])
    # a compacted epoch records its docs and segments stage timings
    with open(os.path.join(mf.epoch_dir(built_index["index_root"], "ep2"),
                           "metrics.json")) as f:
        assert {"docs", "segments"} <= set(json.load(f)["stage_seconds"])
    # publish/GC lifecycle (alias-swap + _cleanDirtyData analogs)
    removed = mf.gc_epochs(built_index["index_root"])
    assert removed == ["ep1"]
    assert mf.current_epoch(built_index["index_root"]) == "ep2"


def test_partial_crash_resume_bitwise_identical(built_index, ray_session,
                                                tmp_path):
    """Crash-mid-shuffle simulation (SURVEY.md §5.2.5): a new index
    root where only HALF the segment partitions (+ lineage sidecars)
    survived. The resumed build must short-circuit exactly those
    partitions and regenerate the rest bit-identically to the clean
    build."""
    import json

    import ray.data

    clean = {r["path"]: r["sha256"] for r in built_index["manifest"]["segments"]}

    crashed_root = str(tmp_path / "crashed")
    src_edir = mf.epoch_dir(built_index["index_root"], "ep1")
    dst_edir = mf.epoch_dir(crashed_root, "ep1")
    os.makedirs(os.path.join(dst_edir, "segments"))
    # docs + stats stages "completed before the crash"
    shutil.copytree(os.path.join(src_edir, "docs"),
                    os.path.join(dst_edir, "docs"))
    st = mf.load_state(built_index["index_root"], "ep1")
    partial_state = {"docs": st["docs"], "stats": st["stats"]}
    mf._atomic_write_json(mf._state_path(crashed_root, "ep1"), partial_state)
    # half the segment partitions survived (file + sidecar pairs)
    seg_src = os.path.join(src_edir, "segments")
    survivors = sorted(f for f in os.listdir(seg_src)
                       if f.endswith(".parquet"))[::2]
    for f in survivors:
        shutil.copy(os.path.join(seg_src, f), os.path.join(dst_edir, "segments", f))
        shutil.copy(os.path.join(seg_src, f + ".lineage.json"),
                    os.path.join(dst_edir, "segments", f + ".lineage.json"))
    # survivors' sidecars point at the OLD root; lineage paths are
    # re-derived on resume, so patch them to the crashed root
    for f in survivors:
        sc = os.path.join(dst_edir, "segments", f + ".lineage.json")
        lin = json.load(open(sc))
        lin["path"] = os.path.join(dst_edir, "segments", f)
        mf._atomic_write_json(sc, lin)

    corpus = ray.data.read_parquet(built_index["cdir"])
    m2 = build_index(corpus, crashed_root, "ep1", EngineConfig())

    resumed = {os.path.basename(r["path"]): r["resumed"]
               for r in m2["segments"]}
    assert sum(resumed.values()) == len(survivors)
    got = {os.path.basename(r["path"]): r["sha256"] for r in m2["segments"]}
    want = {os.path.basename(p): s for p, s in clean.items()}
    assert got == want  # bit-identical segments, resumed or rebuilt


def test_hot_term_salting_spreads_partitions(built_index):
    """Skew control (north_star): hot terms are salted into doc_id-range
    sub-lists that land in DIFFERENT shuffle partitions of the term's
    shard, and concatenate back globally doc_id-sorted at query time."""
    import json

    from mee_ray.config import DEFAULT_HOT_TERMS, EngineConfig
    from mee_ray.query import Searcher

    s = Searcher(built_index["index_root"])
    oi = built_index["oracle"]
    hot_present = [t for t in DEFAULT_HOT_TERMS if oi.df(t) > 10]
    assert hot_present, "corpus should contain hot code terms"
    cfg = EngineConfig()
    spread = {}
    for term in hot_present:
        shard = s.manifest["num_shards"]
        from mee_ray.ids import term_hash
        sh = term_hash(term) % s.manifest["num_shards"]
        chunks = s._shard(sh).chunk_meta(term)
        spread[term] = len(chunks)
        # salted sub-lists: more than one chunk once df is non-trivial
        ids, tfs, dls = s._shard(sh).postings(term)
        order_ok = bool((ids[:-1] <= ids[1:]).all()) if len(ids) > 1 else True
        # chunks are contiguous doc_id ranges in salt order -> already
        # concatenated sorted when read back chunk-by-chunk in order
        per_chunk = [c["decode"]()[0] for c in sorted(
            chunks, key=lambda c: int(c["block_last"][0]))]
        import numpy as np
        cat = np.concatenate(per_chunk)
        assert (np.sort(cat) == np.sort(ids)).all()
        assert (cat[:-1] <= cat[1:]).all(), f"{term}: salted chunks unordered"
    assert max(spread.values()) > 1, (
        f"no hot term split into sub-lists: {spread}")


def test_randomized_delta_sequences(built_index, ray_session, tmp_path):
    """Fuzz the incremental path: three delta batches with interleaved
    upserts/deletes/re-inserts of overlapping keys (last-writer-wins by
    seq), checked rank-identical after EVERY batch and after compact."""
    import random

    from mee_ray.delta import apply_delta
    from mee_ray.merge import compact
    from mee_ray.query import Searcher

    rng = random.Random(77)
    index_copy = str(tmp_path / "index")
    shutil.copytree(built_index["index_root"], index_copy)
    live = dict(built_index["live"])
    keys = sorted(live)
    seq = 0

    def batch(n_events):
        nonlocal seq, live
        ev = []
        final = {}
        for _ in range(n_events):
            seq += 1
            roll = rng.random()
            if roll < 0.45:          # upsert existing
                k = keys[rng.randrange(len(keys))]
                c = f"{seq:08x}" + "f" * 32
                content = f"def fuzz_fn_{seq}(): return fuzz_token_{seq}\n"
                ev.append(("UPDATE", k, c, content))
                final[k] = (c, content)
            elif roll < 0.7:         # delete (maybe already deleted)
                k = keys[rng.randrange(len(keys))]
                ev.append(("DELETE", k, "", ""))
                final[k] = None
            else:                    # brand-new insert
                k = (f"org_f/repo_{seq}", f"src/f_{seq}.py")
                c = f"{seq:08x}" + "a" * 32
                content = f"class FuzzNew{seq}: pass\n"
                ev.append(("INSERT", k, c, content))
                final[k] = (c, content)
        t = pa.table({
            "seq": pa.array(range(seq - len(ev) + 1, seq + 1), pa.int64()),
            "type": pa.array([e[0] for e in ev]),
            "repo": pa.array([e[1][0] for e in ev]),
            "path": pa.array([e[1][1] for e in ev]),
            "commit": pa.array([e[2] for e in ev]),
            "lang": pa.array(["py"] * len(ev)),
            "content": pa.array([e[3] for e in ev]),
        })
        for k, v in final.items():   # last writer per key wins
            if v is None:
                live.pop(k, None)
            else:
                live[k] = v
        return t

    def check():
        oi = OracleIndex([(doc_id_of(r, p, c), content)
                          for (r, p), (c, content) in live.items()])
        s = Searcher(index_copy)
        assert (s.n_docs, s.avgdl) == (oi.n_docs, oi.avgdl)
        docs = [(i, c) for i, (_, c) in enumerate(live.values())]
        for q in make_query_set(docs, n_queries=12, seed=seq):
            assert s.search(q["terms"], q["k"]) == oi.search(q["terms"], q["k"]), \
                (seq, q["terms"])
            # count parity: OR count = live docs matching any term;
            # explain sums to the search score at every fuzz state
            want_or = len({d for t in set(q["terms"])
                           for d in oi.postings.get(t, {})})
            assert s.count(q["terms"], "or") == want_or, (seq, q["terms"])
            for doc, score in s.search(q["terms"], 3):
                ex = s.explain(q["terms"], doc)
                assert sum(ex[t]["contribution"]
                           for t in sorted(set(q["terms"]))
                           if t in ex) == score, (seq, doc)
        # get_doc: a live key returns its winning commit; a deleted
        # key (if any) returns None
        (r0, p0), (c0, _) = next(iter(live.items()))
        got = s.get_doc(r0, p0)
        assert got is not None and got["commit"] == c0, (seq, r0, p0)
        dead = [k for k in keys if k not in live]
        if dead:
            assert s.get_doc(*dead[0]) is None, (seq, dead[0])

    for n in (10, 14, 8):
        apply_delta(batch(n), index_copy)
        check()
    compact(index_copy, "epZ", EngineConfig(), gc_old=True)
    check()


def test_empty_and_single_doc_corpora(ray_session, tmp_path):
    """Degenerate inputs must build publishable epochs: an empty corpus
    (0 docs, 0 segments, every query []) and a single-doc corpus."""
    import ray.data
    from mee_ray.query import Searcher

    empty = tmp_path / "empty"
    empty.mkdir()
    pq.write_table(pa.table({c: pa.array([], pa.string())
                             for c in ("repo", "path", "commit",
                                       "lang", "content")}),
                   str(empty / "p.parquet"))
    root = str(tmp_path / "idx_empty")
    cfg = EngineConfig(num_shards=2, parts_per_shard=1)
    m = build_index(ray.data.read_parquet(str(empty)), root, "e1", cfg)
    assert m["n_docs"] == 0 and m["segments"] == []
    assert Searcher(root).search(["anything"], 5) == []

    one = tmp_path / "one"
    one.mkdir()
    pq.write_table(pa.table({"repo": ["r"], "path": ["a.py"],
                             "commit": ["c1"], "lang": ["py"],
                             "content": ["def solo(): return only_tok"]}),
                   str(one / "p.parquet"))
    root2 = str(tmp_path / "idx_one")
    m2 = build_index(ray.data.read_parquet(str(one)), root2, "e1", cfg)
    assert m2["n_docs"] == 1
    hits = Searcher(root2).search(["only_tok"], 3)
    assert len(hits) == 1 and hits[0][1] > 0


def test_query_before_publish_and_bad_publish(ray_session, tmp_path):
    """Lifecycle error probes: querying an index with no published
    epoch and publishing a nonexistent epoch must fail loudly, not
    corrupt state."""
    from mee_ray.query import Searcher

    root = str(tmp_path / "idx")
    os.makedirs(root, exist_ok=True)
    with pytest.raises(FileNotFoundError):
        Searcher(root)

    with pytest.raises(FileNotFoundError):
        mf.publish(root, "no_such_epoch")
    assert mf.current_epoch(root) is None  # nothing half-published


def test_three_phase_distributed_exactness(built_index, ray_session,
                                           tmp_path):
    """The three-phase protocol (local top-m + bounds -> candidate
    partial fetch) must return doc_ids AND float64 scores identical to
    the oracle — across k values, rare terms (actor drain path), hot
    terms (bound-loop path), and post-delta tombstone state."""
    from mee_ray.delta import apply_delta
    from mee_ray.query import DistributedSearcher

    ds = DistributedSearcher(built_index["index_root"], n_actors=3)
    oi = built_index["oracle"]
    queries = make_query_set(built_index["docs"], n_queries=25, seed=13)
    queries += [{"terms": ["def", "return"], "k": 3},
                {"terms": ["def", "import", "self", "return"], "k": 50},
                {"terms": ["zz_no_such_term_zz", "def"], "k": 5}]
    for q in queries:
        got = ds.search(q["terms"], q["k"], mode="threephase")
        want = oi.search(q["terms"], q["k"])
        assert got == want, q["terms"]
    ds.shutdown()

    # tombstone state: delete a few docs, three-phase must stay exact
    index_copy = str(tmp_path / "index3p")
    shutil.copytree(built_index["index_root"], index_copy)
    live = dict(built_index["live"])
    victims = sorted(live)[:4]
    ev = [{"seq": i + 1, "type": "DELETE", "repo": kkey[0], "path": kkey[1],
           "commit": None, "lang": None, "content": None}
          for i, kkey in enumerate(victims)]
    evt = pa.table({n: pa.array([e[n] for e in ev])
                    for n in ("seq", "type", "repo", "path", "commit",
                              "lang", "content")})
    apply_delta(evt, index_copy)
    for kkey in victims:
        live.pop(kkey)
    docs = [(doc_id_of(r, p, c), content)
            for (r, p), (c, content) in live.items()]
    oi2 = OracleIndex(docs)
    ds2 = DistributedSearcher(index_copy, n_actors=3)
    for q in make_query_set(docs, n_queries=12, seed=21):
        assert ds2.search(q["terms"], q["k"], mode="threephase") == \
            oi2.search(q["terms"], q["k"])
    ds2.shutdown()


def test_scalar_arity_and_escapes_validated_at_compile():
    """Fixed-arity builtins reject extra args at COMPILE (the
    eager-validation contract), and backslash-escaped quotes inside
    literals parse."""
    import pytest as _pytest

    from mee_ray.functions.scalar import ExprError, compile_expr
    for bad in ("sub(a, b, c)", "yesterday(a)", "abs(a, b)",
                "length(a, b)"):
        with _pytest.raises(ExprError, match="at most"):
            compile_expr(bad)
    import pyarrow as pa
    fn = compile_expr(r"echo('a\'b')")
    assert fn(pa.table({"x": pa.array([1])})).as_py() == "a'b"


def test_sha256_column_offsets_parity():
    """sha256_column (offset-sliced buffer hashing, the vectorized
    form of the old per-row ``content.encode()`` loop) must match the
    scalar digests on nulls, empties, unicode, chunked input, sliced
    arrays (nonzero Arrow offset) and large_string."""
    from mee_ray.build import sha256_column

    cases = ["hello", "", None, "   \n\t ", "héllo ünïcode İ",
             "x" * 100000, None, "tail"]
    want = [hashlib.sha256((c or "").encode()).digest() for c in cases]
    chunked = pa.chunked_array([pa.array(cases[:3], pa.string()),
                                pa.array(cases[3:], pa.string())])
    assert sha256_column(chunked).to_pylist() == want
    assert sha256_column(
        pa.array(cases, pa.string()).slice(2, 5)).to_pylist() == want[2:7]
    assert sha256_column(
        pa.array(cases, pa.large_string()).slice(1, 6)
    ).to_pylist() == want[1:7]
    assert sha256_column(pa.array([], pa.string())).to_pylist() == []
