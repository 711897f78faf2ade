"""Decoded segment state belongs to the segment file, not to a reader.

The row-group kernel (postings.decode_rows) equals the per-row decoders
on every row of varint, pfor and positional indexes; an oversized row
group decodes only the requested row; readers reopened over the same
segment files decode nothing twice; a file rebuilt at the same path is
never served from the old file's cache; and readers of two
generations share the process cache safely across threads."""

import gc
import shutil
import sys
import threading

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from mee_ray import manifest as mf
from mee_ray import query, wand
from mee_ray.config import EngineConfig
from mee_ray.ids import doc_id_of
from mee_ray.oracle import OracleIndex, make_query_set
from mee_ray.postings import (_TAG_PFOR, decode_posting_list, decode_rows,
                              varint_decode)
from mee_ray.query import Searcher

EV_COLS = ("seq", "type", "repo", "path", "commit", "lang", "content")


def _events(rows):
    return pa.table({
        c: pa.array([r.get(c) for r in rows],
                    pa.int64() if c == "seq" else pa.string())
        for c in EV_COLS})


def _live(cdir):
    t = pq.read_table(cdir)
    live = {}
    for r, p, c, content in zip(t["repo"].to_pylist(), t["path"].to_pylist(),
                                t["commit"].to_pylist(),
                                t["content"].to_pylist()):
        if (r, p) not in live or c > live[(r, p)][0]:
            live[(r, p)] = (c, content)
    return live


def _oracle(live):
    return OracleIndex([(doc_id_of(r, p, c), content)
                        for (r, p), (c, content) in live.items()])


def _build(root, cdir, cfg, epoch="ep1"):
    import ray.data

    from mee_ray.build import build_index
    build_index(ray.data.read_parquet(cdir), root, epoch, cfg)


@pytest.fixture(scope="module")
def small(ray_session, tmp_path_factory):
    """Two small indexes over one corpus: pfor-coded postings, and
    varint postings with stored positions."""
    from mee_ray.corpus import write_corpus

    tmp = tmp_path_factory.mktemp("segcache")
    cdir = write_corpus(f"{tmp}/corpus", n_files=200, seed=43,
                        rows_per_file=20)
    out = {"cdir": cdir, "live": _live(cdir)}
    for name, kw in (("pfor", {"postings_codec": "pfor"}),
                     ("positions", {"store_positions": True})):
        cfg = EngineConfig(num_shards=2, parts_per_shard=2, **kw)
        _build(f"{tmp}/{name}", cdir, cfg)
        out[name] = f"{tmp}/{name}"
    return out


def _segment_paths(root):
    m = mf.load_manifest(root)
    return [s["path"] for s in m["segments"]] + [
        f for d in m.get("deltas", []) for f in d.get("segments", [])]


@pytest.mark.parametrize("kind", ["varint", "pfor", "positions"])
def test_group_kernel_equals_per_row_decoders(kind, built_index, small):
    root = built_index["index_root"] if kind == "varint" else small[kind]
    tags, n_rows = set(), 0
    for path in _segment_paths(root):
        pf = pq.ParquetFile(path)
        assert ("pos_enc" in pf.schema_arrow.names) == (kind == "positions")
        for t in [pf.read_row_group(g) for g in range(pf.num_row_groups)] \
                + [pf.read()]:          # the whole file: one chunk per group
            ids, tfs, dls, offs = decode_rows(t)
            assert len(offs) == t.num_rows + 1
            for r in range(t.num_rows):
                e_ids = t["doc_ids_enc"][r].as_py()
                tags.add(e_ids[0])
                want_ids, want_tfs = decode_posting_list(
                    e_ids, t["tfs_enc"][r].as_py())
                want_dls = varint_decode(
                    t["dls_enc"][r].as_py()).astype(np.int64)
                a, z = offs[r], offs[r + 1]
                for got, want in ((ids, want_ids), (tfs, want_tfs),
                                  (dls, want_dls)):
                    assert got.dtype == want.dtype
                    assert np.array_equal(got[a:z], want)
            n_rows += t.num_rows
    assert n_rows > 100
    # the pfor index mixes tags: long lists pfor, short lists varint
    assert tags == ({0, _TAG_PFOR} if kind == "pfor" else {0})


def test_oversized_group_decodes_only_the_requested_row(built_index,
                                                       monkeypatch):
    s = Searcher(built_index["index_root"])
    seg = max((sg for sh in range(s.num_shards)
               for sg in s._shard(sh).segs),
              key=lambda sg: sg.pf.metadata.row_group(0).num_rows)
    t = seg.table(0)
    assert t.num_rows > 8
    whole = decode_rows(t)
    group_bytes = sum(a.nbytes for a in whole)
    calls = []
    real = query.decode_rows

    def counting(*a):
        got = real(*a)
        calls.append(len(got[3]) - 1)
        return got

    monkeypatch.setattr(query, "decode_rows", counting)
    cache = wand.CACHE
    # just under the guard: the group must not be decoded whole
    monkeypatch.setattr(cache, "budget", 64 * group_bytes - 64)
    cache.clear()
    r = t.num_rows // 2
    got = seg.postings(r)
    assert calls == [1]
    a, z = whole[3][r], whole[3][r + 1]
    assert all(np.array_equal(g, w[a:z]) for g, w in zip(got, whole))
    assert ("post", seg.key, 0) not in cache
    assert 0 < cache.nbytes <= cache.budget
    # at the guard the whole group decodes once and serves every row
    monkeypatch.setattr(cache, "budget", 64 * group_bytes)
    cache.clear()
    calls.clear()
    for ri in range(t.num_rows):
        got = seg.postings(ri)
        a, z = whole[3][ri], whole[3][ri + 1]
        assert all(np.array_equal(g, w[a:z]) for g, w in zip(got, whole))
    assert calls == [t.num_rows]
    assert cache.nbytes <= cache.budget


def test_rebuilt_path_is_never_served_stale(ray_session, tmp_path):
    """A different corpus rebuilt into the same root and epoch name,
    then compacted with gc_old, in one process: every reader answers
    like the new corpus's oracle."""
    from mee_ray.corpus import write_corpus
    from mee_ray.delta import apply_delta
    from mee_ray.merge import compact

    root = str(tmp_path / "index")
    cfg = EngineConfig(num_shards=2, parts_per_shard=2)
    answers = []
    for seed in (51, 52):
        cdir = write_corpus(str(tmp_path / f"c{seed}"), n_files=12,
                            seed=seed, rows_per_file=30)
        live = _live(cdir)
        shutil.rmtree(root, ignore_errors=True)
        gc.collect()                    # let the old files' inodes go
        _build(root, cdir, cfg)
        oracle = _oracle(live)
        qs = make_query_set([(i, c) for i, (_, c) in
                             enumerate(live.values())], n_queries=25,
                            seed=seed)
        s = Searcher(root)
        got = [s.search(q["terms"], q["k"]) for q in qs]
        assert got == [oracle.search(q["terms"], q["k"]) for q in qs]
        answers.append(got)
        del s
    assert answers[0] != answers[1]
    # a delta, then a compaction that deletes the epoch read above
    k_del = sorted(live)[0]
    apply_delta(_events([{"seq": 1, "type": "DELETE", "repo": k_del[0],
                          "path": k_del[1]}]), root)
    del live[k_del]
    oracle = _oracle(live)
    for step in ("delta", "compact"):
        if step == "compact":
            compact(root, "ep2", gc_old=True)
        s = Searcher(root)
        for q in qs:
            assert s.search(q["terms"], q["k"]) == \
                oracle.search(q["terms"], q["k"]), (step, q["terms"])


def test_reopened_readers_decode_no_base_group_twice(small, tmp_path,
                                                     monkeypatch):
    from mee_ray.delta import apply_delta

    root = mf.snapshot(small["positions"], str(tmp_path / "idx"))
    base = set(_segment_paths(root))
    decoded = []
    real = query._Segment.decode

    def recording(seg, g, lo, hi):
        decoded.append((seg.key[0], g))
        return real(seg, g, lo, hi)

    monkeypatch.setattr(query._Segment, "decode", recording)
    wand.CACHE.clear()
    live = dict(small["live"])
    qs = make_query_set([(i, c) for i, (_, c) in enumerate(live.values())],
                        n_queries=40, seed=7)

    def stream(s):
        decoded.clear()
        # the exhaustive path, whatever the snapshot's tombstones
        return [query.merge_partials(
                    [s.term_partials(sorted(set(q["terms"])))],
                    sorted(set(q["terms"])), q["k"]) for q in qs]

    first = stream(Searcher(root))
    assert {p for p, _ in decoded} & base
    assert stream(Searcher(root)) == first       # same snapshot
    assert decoded == []
    keys = sorted(live)
    apply_delta(_events([
        {"seq": 1, "type": "DELETE", "repo": keys[0][0],
         "path": keys[0][1]},
        {"seq": 2, "type": "UPDATE", "repo": keys[1][0],
         "path": keys[1][1], "commit": "f" * 40, "lang": "python",
         "content": "def g(): return reopen_tok\n"}]), root)
    live[keys[1]] = ("f" * 40, "def g(): return reopen_tok\n")
    del live[keys[0]]
    oracle = _oracle(live)
    got = stream(Searcher(root))                 # after apply_delta
    assert not {p for p, _ in decoded} & base
    assert got == [oracle.search(q["terms"], q["k"]) for q in qs]


def test_threads_share_the_cache_across_generations(small, tmp_path,
                                                    monkeypatch):
    """Reader threads search two generations of one index — one on
    the WAND path, one with tombstones pending — while a third delta
    is applied, through one small shared cache that evicts all the
    time: no exception, every answer equals its generation's oracle."""
    from mee_ray.delta import apply_delta

    root = mf.snapshot(small["pfor"], str(tmp_path / "idx"))
    live_a = dict(small["live"])
    keys = sorted(live_a)
    s_a = Searcher(root)
    apply_delta(_events([
        {"seq": 1, "type": "DELETE", "repo": keys[0][0],
         "path": keys[0][1]},
        {"seq": 2, "type": "INSERT", "repo": "o/t", "path": "t.py",
         "commit": "a" * 40, "lang": "python",
         "content": "def t(): return thread_tok\n"}]), root)
    live_b = dict(live_a)
    del live_b[keys[0]]
    live_b[("o/t", "t.py")] = ("a" * 40, "def t(): return thread_tok\n")
    s_b = Searcher(root)
    assert not len(s_a.tombstones) and len(s_b.tombstones)
    qs = make_query_set([(i, c) for i, (_, c) in enumerate(live_b.values())],
                        n_queries=30, seed=3)
    want = {id(s): [o.search(q["terms"], q["k"]) for q in qs]
            for s, o in ((s_a, _oracle(live_a)), (s_b, _oracle(live_b)))}
    errors, bad = [], []

    def reader(i, start):
        try:
            start.wait()
            for rnd in range(3):
                for s in ((s_a, s_b) if (i + rnd) % 2 else (s_b, s_a)):
                    got = [s.search(q["terms"], q["k"]) for q in qs]
                    if got != want[id(s)]:
                        bad.append((i, rnd))
        except Exception as e:          # noqa: BLE001 — reported below
            errors.append(repr(e))

    # the default budget (whole row groups cached), then one small
    # enough to evict all the time and decode most groups row by row;
    # a short switch interval makes the threads interleave inside the
    # cache's read-modify-writes
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for seq, budget in ((3, wand._MERGE_CACHE_BYTES), (4, 256 * 1024)):
            monkeypatch.setattr(wand.CACHE, "budget", budget)
            wand.CACHE.clear()
            start = threading.Barrier(5, timeout=120)
            threads = [threading.Thread(target=reader, args=(i, start))
                       for i in range(4)]
            for t in threads:
                t.start()
            start.wait()
            apply_delta(_events([{"seq": seq, "type": "DELETE",
                                  "repo": keys[seq][0],
                                  "path": keys[seq][1]}]), root)
            for t in threads:
                t.join(timeout=300)
                assert not t.is_alive()
            assert errors == [] and bad == [], budget
            # a lost update of the byte count would break this
            entries = list(wand.CACHE._entries.values())
            assert wand.CACHE.nbytes == sum(n for _, n in entries)
            assert wand.CACHE.nbytes <= wand.CACHE.budget
    finally:
        sys.setswitchinterval(interval)
