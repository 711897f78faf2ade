"""Regression tests for lifecycle edge cases:

- compaction of deltas that route to partitions with no base segment
  (previously silently dropped)
- compaction tasks over contiguous part ranges (each delta record read
  once per task, each part's delta rows by one task)
- EngineConfig reconstruction from / validation against the manifest
- crashed-apply debris cleared before a retry reuses the delta dir
- latest-commit-wins with variable-length prefix commits
- delete → re-insert of the same version (sequenced tombstones)
"""

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from mee_ray import manifest as mf
from mee_ray.build import build_index, winner_doc_ids
from mee_ray.config import (EngineConfig, config_from_manifest,
                            resolve_index_config)
from mee_ray.delta import apply_delta
from mee_ray.ids import doc_id_of
from mee_ray.merge import compact
from mee_ray.oracle import OracleIndex
from mee_ray.query import Searcher

EV_COLS = ("seq", "type", "repo", "path", "commit", "lang", "content")


def _events(rows):
    return pa.table({c: pa.array([r.get(c) for r in rows]) for c in EV_COLS})


def _corpus_table(docs):
    """docs: list of (repo, path, commit, content)."""
    return pa.table({
        "repo": pa.array([d[0] for d in docs]),
        "path": pa.array([d[1] for d in docs]),
        "commit": pa.array([d[2] for d in docs]),
        "lang": pa.array(["python"] * len(docs)),
        "content": pa.array([d[3] for d in docs]),
    })


def _build_small(tmp_path, docs, cfg=None, name="idx"):
    import ray.data
    cdir = str(tmp_path / f"{name}_corpus")
    os.makedirs(cdir, exist_ok=True)
    pq.write_table(_corpus_table(docs), os.path.join(cdir, "part-0.parquet"))
    root = str(tmp_path / name)
    build_index(ray.data.read_parquet(cdir), root, "ep1",
                cfg or EngineConfig())
    return root


def test_compact_keeps_delta_only_partitions(ray_session, tmp_path):
    """ADVICE high: a delta whose terms route to partitions with no base
    segment file must still be compacted into new segment files."""
    # one-term base corpus → almost all of the 32 parts have no base file
    root = _build_small(tmp_path, [("o/r", "a.py", "c" * 40, "alpha")])
    n_base_parts = len(mf.load_manifest(root)["segments"])
    assert n_base_parts < 8  # precondition: sparse base partition set

    ev = [{"seq": i + 1, "type": "INSERT", "repo": "o/r2",
           "path": f"f{i}.py", "commit": "d" * 40, "lang": "python",
           "content": f"def fn_{i}(): return unique_token_number_{i}\n"}
          for i in range(20)]
    apply_delta(_events(ev), root)

    compact(root, "ep2", gc_old=False)
    s = Searcher(root)
    assert s.n_docs == 21
    for i in range(20):
        hits = s.search([f"unique_token_number_{i}"], 5)
        assert hits, f"postings for delta-only doc {i} lost at compaction"
        assert hits[0][0] == doc_id_of("o/r2", f"f{i}.py", "d" * 40)
    assert s.search(["alpha"], 5)[0][0] == doc_id_of("o/r", "a.py", "c" * 40)


def test_compact_partition_plan_prunes_delta_files(ray_session, tmp_path,
                                                   monkeypatch):
    """Compaction tasks take contiguous part ranges: each part's delta
    rows are read by exactly one merge task, and a task reads each delta
    record's file at most once (filtered to its range)."""
    from mee_ray import merge

    root = _build_small(
        tmp_path,
        [("o/r", f"b{i}.py", "c" * 40,
          f"def base_{i}(): return base_token_{i} shared_tok\n")
         for i in range(30)])
    for batch in range(2):
        apply_delta(_events([
            {"seq": 10 * batch + i + 1, "type": "INSERT", "repo": "o/d",
             "path": f"d{batch}_{i}.py", "commit": "e" * 40,
             "lang": "python",
             "content": f"def delta_{i}(): return delta_token_{batch}_{i}\n"}
            for i in range(10)]), root)

    m = mf.load_manifest(root)
    records = [f for d in m["deltas"] for f in d["segments"]]
    assert len(records) == 2
    rows_of = {f: pq.read_table(f, columns=["part"])["part"].to_pylist()
               for f in records}
    plan = merge.partition_plan(m)
    for item in plan:
        assert all(mf.part_of_file(f) == item["part"] for f in item["files"])
        assert item["delta_files"] == [f for f in records
                                       if item["part"] in rows_of[f]]
    blocks = merge.task_blocks(plan, 3)
    assert len(blocks) == 3
    assert [b["lo"] for b in blocks] == sorted(b["lo"] for b in blocks)
    assert all(a["hi"] <= b["lo"] for a, b in zip(blocks, blocks[1:]))

    reads: list[tuple[int, str, tuple]] = []
    real_read = pq.read_table

    def counting_read(path, *a, **k):
        if path in rows_of:
            lo, hi = (f[2] for f in k["filters"])
            reads.append((task, path, (lo, hi)))
        return real_read(path, *a, **k)

    monkeypatch.setattr(merge.pq, "read_table", counting_read)
    seg_dir = str(tmp_path / "merged")
    os.makedirs(seg_dir)
    lineage = []
    for task, block in enumerate(blocks):
        lineage += merge.merge_block(block, seg_dir, 1.0, EngineConfig(),
                                     mf.tombstone_index(m))
    monkeypatch.undo()
    assert len({(t, f) for t, f, _ in reads}) == len(reads)   # once per task
    for f, parts in rows_of.items():
        for p in set(parts):
            assert sum(lo <= p < hi for _, g, (lo, hi) in reads
                       if g == f) == 1, (f, p)
    assert sorted(r["part"] for r in lineage) == [i["part"] for i in plan]

    # and the compaction built from that plan is still value-correct
    compact(root, "ep2", gc_old=False)
    s = Searcher(root)
    assert s.n_docs == 50
    assert s.search(["delta_token_1_7"], 3)[0][0] == doc_id_of(
        "o/d", "d1_7.py", "e" * 40)
    assert s.search(["base_token_12"], 3)[0][0] == doc_id_of(
        "o/r", "b12.py", "c" * 40)


def test_lifecycle_config_from_manifest(ray_session, tmp_path):
    """delta/compact with cfg=None must reuse the build's recorded
    routing config; an explicit mismatching cfg must fail loudly."""
    cfg = EngineConfig(num_shards=2, parts_per_shard=2, salt_factor=4)
    root = _build_small(
        tmp_path,
        [("o/r", f"x{i}.py", "c" * 40, f"def f_{i}(): return tok_{i}\n")
         for i in range(10)],
        cfg=cfg)
    m = mf.load_manifest(root)
    rc = config_from_manifest(m)
    assert (rc.num_shards, rc.parts_per_shard, rc.salt_factor) == (2, 2, 4)

    # mismatching explicit config → loud failure, not silent wrong routing
    with pytest.raises(ValueError, match="disagrees with the index manifest"):
        apply_delta(_events([{"seq": 1, "type": "INSERT", "repo": "o/r",
                              "path": "new.py", "commit": "d" * 40,
                              "lang": "python", "content": "def g(): pass"}]),
                    root, cfg=EngineConfig())
    with pytest.raises(ValueError):
        compact(root, "epX", cfg=EngineConfig())
    with pytest.raises(ValueError):
        resolve_index_config(m, EngineConfig())

    # cfg=None → reconstructed; postings route to partitions compaction reads
    apply_delta(_events([{"seq": 1, "type": "INSERT", "repo": "o/r",
                          "path": "new.py", "commit": "d" * 40,
                          "lang": "python",
                          "content": "def g(): return fresh_delta_tok\n"}]),
                root)
    assert Searcher(root).search(["fresh_delta_tok"], 5)
    compact(root, "ep2", gc_old=False)
    assert Searcher(root).search(["fresh_delta_tok"], 5)


def test_crashed_apply_debris_cleared(ray_session, tmp_path):
    """A delta dir left by a crashed apply (files written, manifest
    append never reached) is never served: a retry that adds docs lists
    only its own freshly encoded segment file, and a retry that adds
    nothing lists none and leaves no debris behind."""
    from mee_ray.build import DocTokenize, ExplodeTriples, encode_segment

    docs = [("o/r", "a.py", "c" * 40, "alpha beta"),
            ("o/r", "b.py", "c" * 40, "alpha gamma")]
    root = _build_small(tmp_path, docs)
    cfg = config_from_manifest(mf.load_manifest(root))
    edir = mf.epoch_dir(root, "ep1")

    def plant_debris(seq):
        # a valid delta segment file holding postings of a doc that no
        # applied batch ever added
        ddir = os.path.join(edir, "deltas", f"delta-{seq:06d}")
        os.makedirs(ddir)
        ghost = DocTokenize(cfg)(_corpus_table(
            [("o/x", "ghost.py", "f" * 40, "alpha alpha stale_token")]))
        stale = os.path.join(ddir, "segments.parquet")
        pq.write_table(encode_segment(ExplodeTriples(cfg)(ghost), 2.0, cfg),
                       stale)
        return stale

    def check(live_docs):
        oi = OracleIndex([(doc_id_of(r, p, c), content)
                          for r, p, c, content in live_docs])
        s = Searcher(root)
        for q in (["alpha"], ["stale_token"], ["retry_token", "alpha"]):
            assert s.search(q, 10) == oi.search(q, 10), q
        assert not s.search(["stale_token"], 10)

    stale = plant_debris(1)
    added = ("o/r2", "b.py", "d" * 40, "def h(): return retry_token alpha\n")
    rec = apply_delta(_events([{"seq": 1, "type": "INSERT", "repo": added[0],
                                "path": added[1], "commit": added[2],
                                "lang": "python", "content": added[3]}]),
                      root)
    assert rec["segments"] == [stale]       # rewritten in place, not kept
    terms = set(pq.read_table(stale, columns=["term"])["term"].to_pylist())
    assert "retry_token" in terms and "stale_token" not in terms
    check(docs + [added])

    stale = plant_debris(2)
    rec = apply_delta(_events([{"seq": 2, "type": "DELETE", "repo": added[0],
                                "path": added[1]}]), root)
    assert rec["segments"] == [] and not os.path.exists(stale)
    check(docs)


def test_winner_prefix_commits(ray_session, tmp_path):
    """Latest-commit-wins must match plain commit comparison even when
    one commit is a prefix of another (composite-separator ordering)."""
    import ray.data
    docs = [("o/r", "a.py", "abc", "old content"),
            ("o/r", "a.py", "abc1", "new content")]
    cdir = str(tmp_path / "wcorpus")
    os.makedirs(cdir)
    pq.write_table(_corpus_table(docs), os.path.join(cdir, "p.parquet"))
    wids = winner_doc_ids(ray.data.read_parquet(cdir), EngineConfig())
    assert list(wids) == [doc_id_of("o/r", "a.py", "abc1")]


def test_delete_then_reinsert_same_version(ray_session, tmp_path):
    """DELETE followed by re-INSERT of the exact same (repo, path,
    commit) must bring the doc back (sequenced tombstones: the re-add's
    newer postings out-sequence the tombstone that killed the older
    copy), both pre- and post-compaction, with exact stats."""
    docs = [("o/r", f"m{i}.py", "c" * 40,
             f"def keep_{i}(): return keep_token_{i} shared_resurrect\n")
            for i in range(6)]
    root = _build_small(tmp_path, docs)
    target = ("o/r", "m3.py")
    target_id = doc_id_of("o/r", "m3.py", "c" * 40)

    apply_delta(_events([{"seq": 1, "type": "DELETE", "repo": target[0],
                          "path": target[1]}]), root)
    s = Searcher(root)
    assert s.n_docs == 5
    assert not s.search(["keep_token_3"], 5)

    rec = apply_delta(_events([{"seq": 2, "type": "INSERT",
                                "repo": target[0], "path": target[1],
                                "commit": "c" * 40, "lang": "python",
                                "content": docs[3][3]}]), root)
    assert rec["n_added"] == 1 and rec["segments"], \
        "re-add must write real postings (replay-safe across compaction)"

    def check():
        oi = OracleIndex([(doc_id_of(r, p, c), content)
                          for r, p, c, content in docs])
        s = Searcher(root)
        assert (s.n_docs, s.avgdl) == (oi.n_docs, oi.avgdl)
        for q in (["keep_token_3"], ["shared_resurrect"],
                  ["keep_token_0", "shared_resurrect"]):
            assert s.search(q, 10) == oi.search(q, 10)

    check()
    compact(root, "ep2", gc_old=False)
    check()

    # resurrection then delete again → dead again (ordering replay)
    apply_delta(_events([{"seq": 3, "type": "DELETE", "repo": target[0],
                          "path": target[1]}]), root)
    s = Searcher(root)
    assert s.n_docs == 5 and not s.search(["keep_token_3"], 5)


def test_publish_catchup_replays_concurrent_deltas(ray_session, tmp_path):
    """A delta that lands on the old epoch between a compaction's
    snapshot and its publish must be replayed onto the new epoch before
    the CURRENT flip (the reference's wait-until-caught-up handoff)."""
    import ray.data

    docs = [("o/r", f"w{i}.py", "c" * 40,
             f"def w_{i}(): return watermark_token_{i}\n") for i in range(8)]
    root = _build_small(tmp_path, docs)
    apply_delta(_events([{"seq": 1, "type": "INSERT", "repo": "o/r",
                          "path": "a.py", "commit": "d" * 40,
                          "lang": "python",
                          "content": "def a(): return early_delta_tok\n"}]),
                root)

    # merge runs, publish deferred — the snapshot covers delta 1 only
    compact(root, "ep2", auto_publish=False)
    # ...meanwhile a writer lands delta 2 on the still-CURRENT ep1
    apply_delta(_events([{"seq": 2, "type": "INSERT", "repo": "o/r",
                          "path": "b.py", "commit": "e" * 40,
                          "lang": "python",
                          "content": "def b(): return late_delta_tok\n"},
                         {"seq": 3, "type": "DELETE", "repo": "o/r",
                          "path": "w0.py"}]),
                root)
    assert mf.current_epoch(root) == "ep1"

    replayed = mf.publish_with_catchup(root, "ep2")
    assert replayed == 1
    assert mf.current_epoch(root) == "ep2"

    oi = OracleIndex(
        [(doc_id_of(r, p, c), content) for r, p, c, content in docs[1:]]
        + [(doc_id_of("o/r", "a.py", "d" * 40),
            "def a(): return early_delta_tok\n"),
           (doc_id_of("o/r", "b.py", "e" * 40),
            "def b(): return late_delta_tok\n")])
    s = Searcher(root)
    assert (s.n_docs, s.avgdl) == (oi.n_docs, oi.avgdl)
    for q in (["late_delta_tok"], ["early_delta_tok"],
              ["watermark_token_0"], ["watermark_token_3"]):
        assert s.search(q, 10) == oi.search(q, 10)
    # the replayed record survives a subsequent full compaction + GC
    compact(root, "ep3", gc_old=True)
    s = Searcher(root)
    for q in (["late_delta_tok"], ["watermark_token_0"],
              ["watermark_token_3"]):
        assert s.search(q, 10) == oi.search(q, 10)


def test_rebuild_with_snapshot_watermark(ray_session, tmp_path):
    """Full rebuild from a snapshot that incorporates events ≤ W:
    predecessor delta records past W replay onto the new epoch at
    publish; a record straddling W is refused."""
    import ray.data

    docs = {("o/r", f"s{i}.py"): ("c" * 40,
                                  f"def s_{i}(): return snap_tok_{i}\n")
            for i in range(6)}
    root = _build_small(tmp_path,
                        [(r, p, c, t) for (r, p), (c, t) in docs.items()])
    # record 1: events 1-2 (covered by the snapshot)
    apply_delta(_events([
        {"seq": 1, "type": "UPDATE", "repo": "o/r", "path": "s0.py",
         "commit": "d" * 40, "lang": "python",
         "content": "def s0v2(): return updated_snap_tok\n"},
        {"seq": 2, "type": "INSERT", "repo": "o/r", "path": "n1.py",
         "commit": "d" * 40, "lang": "python",
         "content": "def n1(): return covered_tok\n"}]), root)
    # record 2: events 3-4 (after the snapshot → must replay)
    apply_delta(_events([
        {"seq": 3, "type": "INSERT", "repo": "o/r", "path": "n2.py",
         "commit": "f" * 40, "lang": "python",
         "content": "def n2(): return replayed_tok\n"},
        {"seq": 4, "type": "DELETE", "repo": "o/r", "path": "s5.py"}]),
        root)

    # snapshot corpus = base + events ≤ 2, materialized
    state = dict(docs)
    state[("o/r", "s0.py")] = ("d" * 40, "def s0v2(): return updated_snap_tok\n")
    state[("o/r", "n1.py")] = ("d" * 40, "def n1(): return covered_tok\n")
    snap = [(r, p, c, t) for (r, p), (c, t) in state.items()]
    cdir = str(tmp_path / "snap_corpus")
    os.makedirs(cdir)
    pq.write_table(_corpus_table(snap), os.path.join(cdir, "p.parquet"))

    # a watermark inside record 2 is refused (straddle)
    with pytest.raises(RuntimeError, match="straddles"):
        build_index(ray.data.read_parquet(cdir), root, "ep2",
                    EngineConfig(), snapshot_watermark=3)
    shutil.rmtree(mf.epoch_dir(root, "ep2"), ignore_errors=True)

    # a rebuild whose config disagrees with the predecessor's recorded
    # routing is refused: catch-up replay copies the old delta SEGMENT
    # files verbatim, and a different part layout would merge them into
    # partitions the query path never reads
    with pytest.raises(ValueError, match="routed wrong"):
        build_index(ray.data.read_parquet(cdir), root, "ep2y",
                    EngineConfig(num_shards=2, parts_per_shard=2),
                    snapshot_watermark=2)
    shutil.rmtree(mf.epoch_dir(root, "ep2y"), ignore_errors=True)

    m2 = build_index(ray.data.read_parquet(cdir), root, "ep2x",
                     EngineConfig(), snapshot_watermark=2)
    assert mf.current_epoch(root) == "ep2x"
    assert len(m2["deltas"]) == 1          # record 2 replayed
    assert m2["event_watermark"] == 4

    final = dict(state)
    final[("o/r", "n2.py")] = ("f" * 40, "def n2(): return replayed_tok\n")
    final.pop(("o/r", "s5.py"))
    oi = OracleIndex([(doc_id_of(r, p, c), t)
                      for (r, p), (c, t) in final.items()])
    s = Searcher(root)
    assert (s.n_docs, s.avgdl) == (oi.n_docs, oi.avgdl)
    for q in (["replayed_tok"], ["covered_tok"], ["updated_snap_tok"],
              ["snap_tok_5"], ["snap_tok_2"]):
        assert s.search(q, 10) == oi.search(q, 10)


def test_shuffle_dedup_mode_bit_identical(built_index, ray_session, tmp_path):
    """cfg.dedup_mode="shuffle" (hash-bucketed, no broadcast) must
    produce byte-identical winner sets and segments to driver mode."""
    import ray.data

    from mee_ray.build import dedup_latest_commit, dedup_latest_commit_shuffle
    from mee_ray.ids import doc_ids_batch

    corpus = ray.data.read_parquet(built_index["cdir"])

    def ids_of(ds):
        out = []
        for b in ds.iter_batches(batch_format="pyarrow", batch_size=1 << 16):
            out.extend(doc_ids_batch(b["repo"], b["path"],
                                     b["commit"]).tolist())
        return sorted(out)

    drv = ids_of(dedup_latest_commit(corpus, EngineConfig()))
    shf = ids_of(dedup_latest_commit_shuffle(
        corpus, EngineConfig(dedup_mode="shuffle", dedup_buckets=16)))
    assert drv == shf

    # full build under shuffle mode: bit-identical segments
    cfg = EngineConfig(dedup_mode="shuffle", dedup_buckets=16)
    m2 = build_index(corpus, str(tmp_path / "idx_shuffle"), "ep1", cfg)
    want = {os.path.basename(s["path"]): s["sha256"]
            for s in built_index["manifest"]["segments"]}
    got = {os.path.basename(s["path"]): s["sha256"] for s in m2["segments"]}
    assert got == want


def test_dynamic_hot_df_salting(ray_session, tmp_path):
    """A term whose corpus df exceeds the threshold is salted
    (multiple sub-lists) even when absent from the static hot list,
    and queries stay oracle-identical."""
    from mee_ray.ids import term_hash
    from mee_ray.oracle import make_query_set

    docs = [("o/r", f"h{i}.py", "c" * 40,
             f"def h_{i}(): return omnipresent_token rare_tok_{i}\n")
            for i in range(40)]
    cfg = EngineConfig(hot_terms=frozenset(), hot_df_threshold=8,
                       salt_factor=4)
    root = _build_small(tmp_path, docs, cfg=cfg)

    from mee_ray.query import Searcher
    s = Searcher(root)
    sh = term_hash("omnipresent_token") % cfg.num_shards
    chunks = s._shard(sh).chunk_meta("omnipresent_token")
    assert len(chunks) > 1, "df=40 > 8 should have split into sub-lists"

    oi = OracleIndex([(doc_id_of(r, p, c), t) for r, p, c, t in docs])
    assert (s.n_docs, s.avgdl) == (oi.n_docs, oi.avgdl)
    qs = [["omnipresent_token"], ["omnipresent_token", "rare_tok_3"],
          ["rare_tok_7"]]
    qs += [q["terms"] for q in make_query_set(
        [(i, t) for i, (_, _, _, t) in enumerate(docs)], n_queries=10,
        seed=2)]
    for q in qs:
        assert s.search(q, 10) == oi.search(q, 10)


def test_live_key_index_newest_source_and_key_seqs(built_index, ray_session):
    """The live-key lookup takes a key's newest live row across the
    base docs and the delta added-docs files (UPDATE → new doc_id),
    drops a DELETEd key, and reports each written key's event seq."""
    import shutil
    import tempfile

    with tempfile.TemporaryDirectory() as td:
        root = os.path.join(td, "idx")
        shutil.copytree(built_index["index_root"], root)
        keys = set(sorted(built_index["live"])[:8])
        k0 = sorted(keys)[0]
        apply_delta(_events([
            {"seq": 1, "type": "UPDATE", "repo": k0[0], "path": k0[1],
             "commit": "e" * 40, "lang": "python",
             "content": "def u(): return upd_tok\n"},
            {"seq": 2, "type": "DELETE", "repo": sorted(keys)[1][0],
             "path": sorted(keys)[1][1]}]), root)
        m = mf.load_manifest(root)
        live, key_seqs, _ = mf.live_key_index(root, m, keys)
        assert live[k0][0] == doc_id_of(k0[0], k0[1], "e" * 40)
        assert sorted(keys)[1] not in live            # DELETEd
        assert len(live) == len(keys) - 1
        assert key_seqs[k0] == 1                      # live row's event seq
        assert key_seqs[sorted(keys)[1]] == 2         # DELETE memory


def _hot_split_docs():
    """20 docs in two 10-doc halves: 'mixterm' is in all of the first
    half and half of the second (df 15), so a per-batch df rule with
    threshold 8 would salt it in one 10-doc slice but not the other."""
    docs = [("o/r", f"a{i}.py", "c" * 40,
             f"def a_{i}(): return mixterm uniq_a_{i}\n")
            for i in range(10)]
    for i in range(10):
        has = "mixterm" if i < 5 else "other_tok"
        docs.append(("o/r", f"b{i}.py", "c" * 40,
                     f"def b_{i}(): return {has} uniq_b_{i}\n"))
    return docs


def _hot_cfg(**kw):
    return EngineConfig(hot_terms=frozenset(), hot_df_threshold=8,
                        salt_factor=4, **kw)


def _lineage(m):
    return {os.path.basename(s["path"]): (s["sha256"], s["n_postings"])
            for s in m["segments"]}


def test_hot_set_independent_of_batch_slicing(ray_session, tmp_path):
    """The hot set is decided once from corpus-wide df, so batch
    slicing cannot change routing: batch sizes 10 and 256 build
    byte-identical segments, every salt stays in [0, salt_factor), the
    salted chunks need no eager merge, and queries stay
    oracle-identical."""
    from mee_ray.ids import term_hash
    from mee_ray.oracle import make_query_set
    from mee_ray.wand import _chunks_need_merge

    docs = _hot_split_docs()
    roots = {bs: _build_small(tmp_path, docs,
                              cfg=_hot_cfg(tokenize_batch_size=bs),
                              name=f"idx{bs}")
             for bs in (10, 256)}
    m = {bs: mf.load_manifest(r) for bs, r in roots.items()}
    assert _lineage(m[10]) == _lineage(m[256])
    assert "mixterm" in m[10]["hot_df_terms"]         # df 15 > 8
    assert "other_tok" not in m[10]["hot_df_terms"]   # df 5
    assert m[10]["hot_df_terms"] == m[256]["hot_df_terms"]

    cfg = _hot_cfg()
    s = Searcher(roots[10])
    chunks = s._shard(term_hash("mixterm") % cfg.num_shards) \
        .chunk_meta("mixterm")
    assert len(chunks) > 1
    assert all(0 <= c["salt"] < cfg.salt_factor for c in chunks)
    assert not _chunks_need_merge(chunks)

    oi = OracleIndex([(doc_id_of(r, p, c), t) for r, p, c, t in docs])
    assert (s.n_docs, s.avgdl) == (oi.n_docs, oi.avgdl)
    qs = [["mixterm"], ["mixterm", "uniq_a_3"], ["mixterm", "uniq_b_2"],
          ["other_tok", "mixterm"]]
    qs += [q["terms"] for q in make_query_set(
        [(i, t) for i, (_, _, _, t) in enumerate(docs)], n_queries=10,
        seed=4)]
    for q in qs:
        assert s.search(q, 10) == oi.search(q, 10), q


def test_resume_with_other_batch_size_matches_uninterrupted(
        ray_session, tmp_path):
    """A crashed pass 2 resumed with a different batch size keeps the
    surviving part files and rebuilds the rest under the SAME routing
    (the hot set is reused from the stats stage), so the result equals
    the uninterrupted build part for part."""
    import ray.data

    docs = _hot_split_docs()
    want = _lineage(mf.load_manifest(
        _build_small(tmp_path, docs, cfg=_hot_cfg(), name="whole")))
    root = _build_small(tmp_path, docs, cfg=_hot_cfg(), name="crashed")
    edir = mf.epoch_dir(root, "ep1")
    seg_dir = os.path.join(edir, "segments")
    parts = sorted(f for f in os.listdir(seg_dir) if f.endswith(".parquet"))
    assert len(parts) >= 4
    for f in parts[::2]:
        os.remove(os.path.join(seg_dir, f))
        os.remove(os.path.join(seg_dir, f + ".lineage.json"))
    st_path = os.path.join(edir, "_state.json")
    with open(st_path) as f:
        st = json.load(f)
    st.pop("segments")
    with open(st_path, "w") as f:
        json.dump(st, f)

    m = build_index(ray.data.read_parquet(str(tmp_path / "crashed_corpus")),
                    root, "ep1", _hot_cfg(tokenize_batch_size=10))
    assert sum(s["resumed"] for s in m["segments"]) == len(parts[1::2])
    assert _lineage(m) == want
    assert (sum(n for _, n in _lineage(m).values())
            == sum(n for _, n in want.values()))


def test_hot_set_routes_delta_and_compact(ray_session, tmp_path):
    """apply_delta and compact route by the base build's recorded hot
    set: a hot term's delta postings are salted like its base postings
    (with cfg=None and with an explicit cfg lacking the set), the
    compacted chunks need no eager merge, and answers stay
    oracle-identical throughout."""
    from mee_ray.ids import term_hash
    from mee_ray.wand import _chunks_need_merge

    base = [("o/r", f"h{i}.py", "c" * 40,
             f"def h_{i}(): return omnipresent_token rare_tok_{i}\n")
            for i in range(40)]
    cfg = _hot_cfg()
    root = _build_small(tmp_path, base, cfg=cfg)
    rec = mf.load_manifest(root)["hot_df_terms"]
    assert "omnipresent_token" in rec

    ev1 = [{"seq": i + 1, "type": "INSERT", "repo": "o/d",
            "path": f"d{i}.py", "commit": "e" * 40, "lang": "python",
            "content": f"def d_{i}(): return omnipresent_token new_{i}\n"}
           for i in range(8)]
    ev2 = [{"seq": 9, "type": "DELETE", "repo": "o/r", "path": "h3.py"},
           {"seq": 10, "type": "UPDATE", "repo": "o/r", "path": "h5.py",
            "commit": "f" * 40, "lang": "python",
            "content": "def h5v2(): return omnipresent_token fresh\n"}]
    apply_delta(_events(ev1), root)
    apply_delta(_events(ev2), root, cfg=cfg)

    live = {(r, p): (c, t) for r, p, c, t in base}
    for e in ev1 + ev2:
        if e["type"] == "DELETE":
            live.pop((e["repo"], e["path"]))
        else:
            live[(e["repo"], e["path"])] = (e["commit"], e["content"])
    oi = OracleIndex([(doc_id_of(r, p, c), t)
                      for (r, p), (c, t) in live.items()])
    qs = [["omnipresent_token"], ["omnipresent_token", "new_3"],
          ["omnipresent_token", "rare_tok_5"], ["fresh", "def"],
          ["rare_tok_3"]]
    sh = term_hash("omnipresent_token") % cfg.num_shards

    s = Searcher(root)
    delta_salts = {c["salt"] for c in s._shard(sh).chunk_meta(
        "omnipresent_token") if c.get("delta")}
    assert delta_salts and max(delta_salts) > 0
    assert delta_salts <= set(range(cfg.salt_factor))
    for q in qs:
        assert s.search(q, 10) == oi.search(q, 10), q

    compact(root, "ep2", gc_old=False)
    assert mf.load_manifest(root)["hot_df_terms"] == rec
    s = Searcher(root)
    chunks = s._shard(sh).chunk_meta("omnipresent_token")
    assert len(chunks) > 1 and not _chunks_need_merge(chunks)
    assert (s.n_docs, s.avgdl) == (oi.n_docs, oi.avgdl)
    for q in qs:
        assert s.search(q, 10) == oi.search(q, 10), q


def test_catchup_rebuild_refuses_changed_hot_set(ray_session, tmp_path):
    """Catch-up replay carries the predecessor's delta segments, routed
    by ITS hot set: a rebuild whose own df-decided set differs is
    refused before pass 2; one with the same set replays exactly."""
    import ray.data

    base = [("o/r", f"h{i}.py", "c" * 40,
             f"def h_{i}(): return omnipresent_token rare_tok_{i}\n")
            for i in range(40)]
    root = _build_small(tmp_path, base, cfg=_hot_cfg())
    apply_delta(_events([
        {"seq": 1, "type": "INSERT", "repo": "o/d", "path": "n.py",
         "commit": "e" * 40, "lang": "python",
         "content": "def n(): return omnipresent_token replayed_tok\n"}]),
        root)

    # same static config, but 'omnipresent_token' is rare in this
    # snapshot, so the rebuild's own hot set differs
    thin = [(r, p, c, t.replace("omnipresent_token", f"thin_{i}"))
            for i, (r, p, c, t) in enumerate(base)]
    cdir = str(tmp_path / "thin_corpus")
    os.makedirs(cdir)
    pq.write_table(_corpus_table(thin), os.path.join(cdir, "p.parquet"))
    with pytest.raises(ValueError, match="routed wrong.*hot_df_terms"):
        build_index(ray.data.read_parquet(cdir), root, "ep2",
                    _hot_cfg(), snapshot_watermark=0)
    assert mf.current_epoch(root) == "ep1"
    assert not mf.load_state(root, "ep2").get("segments")

    m = build_index(ray.data.read_parquet(str(tmp_path / "idx_corpus")),
                    root, "ep3", _hot_cfg(), snapshot_watermark=0)
    assert mf.current_epoch(root) == "ep3" and len(m["deltas"]) == 1
    oi = OracleIndex([(doc_id_of(r, p, c), t) for r, p, c, t in base]
                     + [(doc_id_of("o/d", "n.py", "e" * 40),
                         "def n(): return omnipresent_token "
                         "replayed_tok\n")])
    s = Searcher(root)
    for q in (["omnipresent_token"], ["replayed_tok", "rare_tok_2"]):
        assert s.search(q, 10) == oi.search(q, 10), q


def test_hot_set_df_sample(ray_session, monkeypatch):
    """Past the sample size, df is counted on the doc_id-hash sample
    doc_id & (R-1) == 0 and scaled by R; R is the power of two that
    keeps the sample within (size/2, size] docs."""
    import ray.data

    from mee_ray import build
    from mee_ray.tokenizer import Tokenizer

    assert build.hot_sample_rate(1) == 1
    assert build.hot_sample_rate(1 << 16) == 1
    assert build.hot_sample_rate((1 << 16) + 1) == 2
    assert build.hot_sample_rate(1 << 17) == 2
    assert build.hot_sample_rate((1 << 17) + 1) == 4

    docs = [("o/r", f"s{i}.py", "c" * 40,
             f"def s_{i}(): return tok_{i % 3} tok_{i % 5} tok_{i % 7}\n")
            for i in range(60)]
    monkeypatch.setattr(build, "HOT_DF_SAMPLE_BITS", 3)
    rate = build.hot_sample_rate(len(docs))
    assert rate == 8
    cfg = EngineConfig(hot_terms=frozenset({"def"}), hot_df_threshold=20)
    tok = Tokenizer(cfg.tokenizer)
    df: dict[str, int] = {}
    for r, p, c, t in docs:
        if doc_id_of(r, p, c) & (rate - 1) == 0:
            for term in set(tok.terms(t)):
                df[term] = df.get(term, 0) + 1
    want = sorted(t for t, n in df.items()
                  if n * rate > 20 and t != "def")
    assert want        # the sample is non-empty and something is hot
    got = build.hot_df_terms(ray.data.from_arrow(_corpus_table(docs)),
                             len(docs), cfg)
    assert got == want


def test_insert_only_compaction_fast_path(ray_session, tmp_path):
    """With an empty tombstone set, untouched partitions are copied
    verbatim at compaction (byte-identical, hint_avgdl preserved) and
    queries stay oracle-identical despite large avgdl drift between
    the copied segments' hint base and the live stats — in BOTH drift
    directions."""
    from mee_ray.oracle import make_query_set

    base_docs = [("o/r", f"c{i}.py", "c" * 40,
                  f"def c_{i}(): return short_tok_{i} common_fast_tok\n")
                 for i in range(30)]
    root = _build_small(tmp_path, base_docs)
    m1 = mf.load_manifest(root)
    old_segs = {os.path.basename(s["path"]): s for s in m1["segments"]}
    old_avgdl = m1["avgdl"]

    # insert-only delta with LONG docs → avgdl grows well past the
    # copied segments' hint base
    long_body = " ".join(["filler_pad"] * 300)   # ONE term: few partitions touched
    ev = [{"seq": i + 1, "type": "INSERT", "repo": "o/r2",
           "path": f"L{i}.py", "commit": "d" * 40, "lang": "python",
           "content": f"def L_{i}(): return long_tok_{i} "
                      f"common_fast_tok {long_body}\n"}
          for i in range(8)]
    apply_delta(_events(ev), root)
    compact(root, "ep2", gc_old=False)
    m2 = mf.load_manifest(root)
    assert m2["avgdl"] > old_avgdl * 2   # real drift

    copied = skipped = 0
    for s in m2["segments"]:
        bn = os.path.basename(s["path"])
        if bn in old_segs and s["sha256"] == old_segs[bn]["sha256"]:
            copied += 1
            assert s["hint_avgdl"] == pytest.approx(old_avgdl)
        else:
            skipped += 1
    assert copied > 0, "no partition took the verbatim-copy fast path"

    docs = ([(doc_id_of(r, p, c), t) for r, p, c, t in base_docs]
            + [(doc_id_of("o/r2", f"L{i}.py", "d" * 40),
                e["content"]) for i, e in enumerate(ev)])
    oi = OracleIndex(docs)
    s = Searcher(root)
    assert (s.n_docs, s.avgdl) == (oi.n_docs, oi.avgdl)
    qs = [["common_fast_tok"], ["short_tok_3"], ["long_tok_2"],
          ["common_fast_tok", "filler_pad"]]
    qs += [q["terms"] for q in make_query_set(docs, n_queries=15, seed=6)]
    for q in qs:
        assert s.search(q, 10) == oi.search(q, 10), q

    # shrink direction: insert many SHORT docs on top (avgdl falls
    # below the ep2-encoded partitions' hint base) — still exact
    ev2 = [{"seq": 100 + i, "type": "INSERT", "repo": "o/r3",
            "path": f"s{i}.py", "commit": "f" * 40, "lang": "python",
            "content": f"def s(): return tiny_tok_{i % 3}\n"}
           for i in range(60)]
    apply_delta(_events(ev2), root)
    compact(root, "ep3", gc_old=False)
    m3 = mf.load_manifest(root)
    assert m3["avgdl"] < m2["avgdl"]
    docs += [(doc_id_of("o/r3", f"s{i}.py", "f" * 40), e["content"])
             for i, e in enumerate(ev2)]
    oi = OracleIndex(docs)
    s = Searcher(root)
    assert (s.n_docs, s.avgdl) == (oi.n_docs, oi.avgdl)
    for q in ([["common_fast_tok"], ["tiny_tok_1"], ["long_tok_2"]]
              + [q["terms"] for q in make_query_set(docs, n_queries=15,
                                                    seed=8)]):
        assert s.search(q, 10) == oi.search(q, 10), q

    # a delete disables the fast path (full rewrite, still correct)
    apply_delta(_events([{"seq": 500, "type": "DELETE", "repo": "o/r",
                          "path": "c0.py"}]), root)
    compact(root, "ep4", gc_old=False)
    docs = [d for d in docs
            if d[0] != doc_id_of("o/r", "c0.py", "c" * 40)]
    oi = OracleIndex(docs)
    s = Searcher(root)
    assert (s.n_docs, s.avgdl) == (oi.n_docs, oi.avgdl)
    for q in (["short_tok_0"], ["common_fast_tok"]):
        assert s.search([q] if isinstance(q, str) else q, 10) == \
            oi.search([q] if isinstance(q, str) else q, 10)


def test_write_lock_serializes_mutators(ray_session, tmp_path):
    """The index write lock (Redis-redlock analog) blocks a second
    writer; concurrent apply_delta calls from threads serialize and
    both records land."""
    import threading

    root = _build_small(tmp_path, [("o/r", f"w{i}.py", "c" * 40,
                                    f"def w_{i}(): return lk_tok_{i}\n")
                                   for i in range(5)])
    with mf.write_lock(root):
        with pytest.raises(TimeoutError, match="write_lock"):
            with mf.write_lock(root, timeout_s=0.3):
                pass

    def writer(seq, tok):
        apply_delta(_events([{"seq": seq, "type": "INSERT", "repo": "o/r",
                              "path": f"n{seq}.py", "commit": "d" * 40,
                              "lang": "python",
                              "content": f"def n(): return {tok}\n"}]),
                    root)

    ts = [threading.Thread(target=writer, args=(10 + i, f"conc_tok_{i}"))
          for i in range(3)]
    for th in ts:
        th.start()
    for th in ts:
        th.join()
    m = mf.load_manifest(root)
    assert len(m["deltas"]) == 3          # no record lost
    s = Searcher(root)
    assert s.n_docs == 8
    for i in range(3):
        assert s.search([f"conc_tok_{i}"], 5)


def test_stale_replay_is_dropped(ray_session, tmp_path):
    """Offset-rewind protection: a redelivered batch (span inside an
    applied record's span) no-ops instead of tombstoning the newer
    version and resurrecting the older one; fresh out-of-order spans
    still apply."""
    root = _build_small(tmp_path, [("o/r", "k.py", "c" * 40,
                                    "def k(): return base_tok\n")])
    # events 1..2: v1 then v2 (LWW → v2 live)
    apply_delta(_events([
        {"seq": 1, "type": "UPDATE", "repo": "o/r", "path": "k.py",
         "commit": "1" * 40, "lang": "python",
         "content": "def k(): return v1_tok\n"},
        {"seq": 2, "type": "UPDATE", "repo": "o/r", "path": "k.py",
         "commit": "2" * 40, "lang": "python",
         "content": "def k(): return v2_tok\n"}]), root)
    s = Searcher(root)
    assert s.search(["v2_tok"], 5) and not s.search(["v1_tok"], 5)

    # rewound consumer redelivers ONLY the older event — dropped
    rec = apply_delta(_events([
        {"seq": 1, "type": "UPDATE", "repo": "o/r", "path": "k.py",
         "commit": "1" * 40, "lang": "python",
         "content": "def k(): return v1_tok\n"}]), root)
    assert rec["n_added"] == 0 and rec["n_deleted"] == 0
    s = Searcher(root)
    assert s.search(["v2_tok"], 5) and not s.search(["v1_tok"], 5)

    # a fresh event with a NEW span still applies
    apply_delta(_events([
        {"seq": 3, "type": "UPDATE", "repo": "o/r", "path": "k.py",
         "commit": "3" * 40, "lang": "python",
         "content": "def k(): return v3_tok\n"}]), root)
    s = Searcher(root)
    assert s.search(["v3_tok"], 5) and not s.search(["v2_tok"], 5)


def test_compact_retry_does_not_adopt_stale_snapshot(ray_session,
                                                     tmp_path,
                                                     monkeypatch):
    """A compaction that crashed AFTER writing segments must not let a
    retry adopt that debris when a new delta landed in between — the
    snapshot fingerprint forces a re-encode (the lineage-sidecar
    resume would otherwise silently drop the new delta's postings)."""
    import mee_ray.merge as merge_mod

    root = _build_small(tmp_path, [("o/r", f"c{i}.py", "c" * 40,
                                    f"def c_{i}(): return ret_tok_{i}\n")
                                   for i in range(6)])
    apply_delta(_events([{"seq": 1, "type": "INSERT", "repo": "o/r",
                          "path": "d1.py", "commit": "d" * 40,
                          "lang": "python",
                          "content": "def d1(): return first_delta_tok\n"}]),
                root)

    # crash the first compaction attempt right before publish
    real_publish = mf.publish_with_catchup

    def boom(*a, **k):
        raise RuntimeError("simulated crash before publish")

    monkeypatch.setattr(merge_mod.mf, "publish_with_catchup", boom)
    with pytest.raises(RuntimeError, match="simulated crash"):
        compact(root, "ep2")
    monkeypatch.setattr(merge_mod.mf, "publish_with_catchup",
                        real_publish)

    # a new delta lands between the crash and the retry
    apply_delta(_events([{"seq": 2, "type": "INSERT", "repo": "o/r",
                          "path": "d2.py", "commit": "e" * 40,
                          "lang": "python",
                          "content": "def d2(): return second_delta_tok\n"}]),
                root)

    compact(root, "ep2")    # retry with the SAME epoch name
    s = Searcher(root)
    assert s.search(["first_delta_tok"], 5)
    assert s.search(["second_delta_tok"], 5), \
        "retry adopted stale pre-crash segments"
    assert s.search(["ret_tok_3"], 5)


def test_fsck_detects_corruption(ray_session, tmp_path):
    root = _build_small(tmp_path, [("o/r", f"f{i}.py", "c" * 40,
                                    f"def f_{i}(): return fsck_tok_{i}\n")
                                   for i in range(10)])
    apply_delta(_events([{"seq": 1, "type": "INSERT", "repo": "o/r",
                          "path": "n.py", "commit": "d" * 40,
                          "lang": "python",
                          "content": "def n(): return fsck_new\n"}]), root)
    rep = mf.fsck(root)
    assert rep["ok"] and not rep["errors"] and rep["n_deltas"] == 1

    # flip one byte in a segment: sha mismatch
    seg = mf.load_manifest(root)["segments"][0]["path"]
    data = bytearray(open(seg, "rb").read())
    data[len(data) // 2] ^= 0xFF
    open(seg, "wb").write(bytes(data))
    rep = mf.fsck(root)
    assert not rep["ok"] and any("sha256" in e or "size" in e
                                 for e in rep["errors"])
    # size-only mode still passes (same length)
    assert mf.fsck(root, verify_hashes=False)["ok"]

    # remove a delta file: missing
    m = mf.load_manifest(root)
    os.remove(m["deltas"][0]["added_docs"])
    rep = mf.fsck(root, verify_hashes=False)
    assert not rep["ok"] and any("delta file missing" in e
                                 for e in rep["errors"])


def test_fsck_checks_position_integrity(ray_session, tmp_path):
    """store_positions indexes: fsck validates that a sampled segment's
    position blobs hold exactly sum(tf) varints, and flags truncation."""
    root = _build_small(tmp_path, [("o/r", f"p{i}.py", "c" * 40,
                                    f"def p_{i}(): return pos_tok_{i}\n")
                                   for i in range(8)],
                        cfg=EngineConfig(store_positions=True))
    rep = mf.fsck(root, verify_hashes=False)
    assert rep["ok"], rep["errors"]

    # truncate one row's position blob → count mismatch
    m = mf.load_manifest(root)
    seg = m["segments"][0]["path"]
    t = pq.read_table(seg)
    pos = t["pos_enc"].to_pylist()
    pos[0] = pos[0][:-1] if pos[0] else b""
    t = t.set_column(t.schema.get_field_index("pos_enc"), "pos_enc",
                     pa.array(pos, pa.binary()))
    pq.write_table(t, seg, row_group_size=512)
    # keep the size check green so the positions check is what fires
    m["segments"][0]["bytes"] = os.path.getsize(seg)
    mf.write_manifest(root, m["epoch"], m)
    rep = mf.fsck(root, verify_hashes=False)
    assert not rep["ok"] and any("position count mismatch" in e
                                 for e in rep["errors"])


def test_distributed_searcher_refresh_after_compact(ray_session, tmp_path):
    """A long-lived actor pool detects a published newer epoch and
    re-points at it (the reader half of the alias swap)."""
    from mee_ray.query import DistributedSearcher

    docs = [("o/r", f"r{i}.py", "c" * 40,
             f"def r_{i}(): return refresh_tok_{i}\n") for i in range(8)]
    root = _build_small(tmp_path, docs)
    ds = DistributedSearcher(root, n_actors=2)
    assert not ds.stale() and not ds.refresh()
    before = ds.search(["refresh_tok_3"], 5)
    assert before

    apply_delta(_events([{"seq": 1, "type": "INSERT", "repo": "o/r",
                          "path": "new.py", "commit": "d" * 40,
                          "lang": "python",
                          "content": "def n(): return fresh_epoch_tok\n"}]),
                root)
    # a delta appended to the SAME epoch already makes the pool stale
    # (tombstones/new docs would otherwise be invisible until an epoch
    # flip); refresh picks it up
    assert ds.stale()
    assert ds.refresh() is True
    got = ds.search(["fresh_epoch_tok"], 5)
    assert got and got == Searcher(root).search(["fresh_epoch_tok"], 5)

    compact(root, "ep2", gc_old=True)   # old epoch GC'd
    assert ds.stale()
    assert ds.refresh() is True
    assert not ds.stale()
    fresh = Searcher(root)
    for q in (["refresh_tok_3"], ["fresh_epoch_tok"]):
        got = ds.search(q, 5)
        assert got and got == fresh.search(q, 5)
    ds.shutdown()


def test_compact_retry_after_partial_crash(ray_session, tmp_path):
    """A compaction retried after a mid-run crash (docs partially
    written, some segments + manifest missing) must produce the same
    index as a clean compaction — no duplicated docs rows, segments
    short-circuit via sidecars."""
    docs = [("o/r", f"k{i}.py", "c" * 40,
             f"def k_{i}(): return crash_tok_{i}\n") for i in range(20)]
    root = _build_small(tmp_path, docs)
    apply_delta(_events([
        {"seq": 1, "type": "INSERT", "repo": "o/r", "path": "n.py",
         "commit": "d" * 40, "lang": "python",
         "content": "def n(): return crash_new_tok\n"},
        {"seq": 2, "type": "DELETE", "repo": "o/r", "path": "k0.py"}]),
        root)

    # simulate the crash: run compact, then degrade its output —
    # remove the manifest + half the new segments, and leave a partial
    # docs dir with a duplicate-producing leftover file
    compact(root, "ep2", auto_publish=False)
    edir = mf.epoch_dir(root, "ep2")
    os.remove(mf.manifest_path(root, "ep2"))
    shutil.rmtree(os.path.join(edir, "_state.json"), ignore_errors=True)
    segs = sorted(f for f in os.listdir(os.path.join(edir, "segments"))
                  if f.endswith(".parquet"))
    for f in segs[::2]:
        os.remove(os.path.join(edir, "segments", f))
        os.remove(os.path.join(edir, "segments", f + ".lineage.json"))
    docs_dir = os.path.join(edir, "docs")
    leftover = sorted(os.listdir(docs_dir))
    # drop one docs file to make the dir partial
    os.remove(os.path.join(docs_dir, leftover[0]))

    m2 = compact(root, "ep2", gc_old=False)   # the retry
    assert mf.current_epoch(root) == "ep2"

    exp = {("o/r", f"k{i}.py"): docs[i][3] for i in range(1, 20)}
    exp[("o/r", "n.py")] = "def n(): return crash_new_tok\n"
    oi = OracleIndex([(doc_id_of(r, p, "c" * 40 if p != "n.py"
                                 else "d" * 40), t)
                      for (r, p), t in exp.items()])
    s = Searcher(root)
    assert (s.n_docs, s.avgdl) == (oi.n_docs, oi.avgdl)
    for q in (["crash_new_tok"], ["crash_tok_5"], ["crash_tok_0"]):
        assert s.search(q, 10) == oi.search(q, 10)
    # docs table has no duplicated rows
    import pyarrow.parquet as _pq
    t = pa.concat_tables([_pq.read_table(f, columns=["doc_id"])
                          for f in mf.docs_files(root, "ep2")])
    ids = t["doc_id"].to_pylist()
    assert len(ids) == len(set(ids)) == 20


def test_reinsert_survives_catchup_onto_compacted_epoch(ray_session,
                                                        tmp_path):
    """The scenario that is UNSOUND under revival-style records: DELETE
    a doc, compact (publish deferred — the new base physically drops
    the doc's postings), then re-INSERT the same version on the old
    epoch, then publish with catch-up.  Sequenced tombstones make the
    replayed record carry REAL postings, so the doc is searchable on
    the new epoch with exact stats."""
    docs = [("o/r", f"z{i}.py", "c" * 40,
             f"def z_{i}(): return zz_tok_{i} zz_shared\n")
            for i in range(10)]
    root = _build_small(tmp_path, docs)
    target = ("o/r", "z4.py")

    apply_delta(_events([{"seq": 1, "type": "DELETE", "repo": target[0],
                          "path": target[1]}]), root)
    compact(root, "ep2", auto_publish=False)   # base drops z4's postings
    # ...meanwhile the same version is re-inserted on the old epoch
    apply_delta(_events([{"seq": 2, "type": "INSERT", "repo": target[0],
                          "path": target[1], "commit": "c" * 40,
                          "lang": "python", "content": docs[4][3]}]), root)
    replayed = mf.publish_with_catchup(root, "ep2")
    assert replayed == 1 and mf.current_epoch(root) == "ep2"

    oi = OracleIndex([(doc_id_of(r, p, c), t) for r, p, c, t in docs])
    s = Searcher(root)
    assert (s.n_docs, s.avgdl) == (oi.n_docs, oi.avgdl)
    for q in (["zz_tok_4"], ["zz_shared"], ["zz_tok_0", "zz_shared"]):
        assert s.search(q, 10) == oi.search(q, 10), q
    # and a further compaction folds the replayed re-add correctly
    compact(root, "ep3", gc_old=True)
    s = Searcher(root)
    assert (s.n_docs, s.avgdl) == (oi.n_docs, oi.avgdl)
    for q in (["zz_tok_4"], ["zz_shared"]):
        assert s.search(q, 10) == oi.search(q, 10), q


def _upd(seq, repo, path, tag):
    return {"seq": seq, "type": "UPDATE", "repo": repo, "path": path,
            "commit": f"{seq:040d}", "lang": "python",
            "content": f"def k(): return {tag}\n"}


def test_per_key_lww_gapped_span_fresh_batch_applies(ray_session, tmp_path):
    """The retired span-containment guard dropped a fresh batch whose
    seq span fell inside an applied record's GAPPED span; per-key LWW
    must apply it (the keys are disjoint)."""
    root = _build_small(tmp_path, [("o/r", "a.py", "c" * 40, "base_tok")])
    # one applied record spanning seqs {1, 10} (gap 2..9)
    apply_delta(_events([_upd(1, "o/r", "a.py", "v1_tok"),
                         _upd(10, "o/r", "b.py", "b10_tok")]), root)
    # fresh batch {5, 6} on OTHER keys — inside [1,10], must APPLY
    rec = apply_delta(_events([_upd(5, "o/r", "c.py", "c5_tok"),
                               _upd(6, "o/r", "d.py", "d6_tok")]), root)
    assert rec["n_added"] == 2 and not rec.get("noop")
    s = Searcher(root)
    assert s.search(["c5_tok"], 5) and s.search(["d6_tok"], 5)


def test_per_key_lww_out_of_order_same_key(ray_session, tmp_path):
    """A delayed OLDER update of a key already rewritten at a higher
    seq no-ops for that key but applies for fresh keys in the same
    batch — per-key, not per-batch, resolution."""
    root = _build_small(tmp_path, [("o/r", "a.py", "c" * 40, "base_tok")])
    apply_delta(_events([_upd(10, "o/r", "a.py", "v10_tok")]), root)
    rec = apply_delta(_events([_upd(6, "o/r", "a.py", "v6_tok"),
                               _upd(7, "o/r", "z.py", "z7_tok")]), root)
    assert rec["n_added"] == 1 and rec["n_stale"] == 1
    s = Searcher(root)
    assert s.search(["v10_tok"], 5) and not s.search(["v6_tok"], 5)
    assert s.search(["z7_tok"], 5)


def test_per_key_lww_redelivery_is_noop_record(ray_session, tmp_path):
    """Pure redelivery appends NO manifest record (no reader-pool
    staleness churn, no compaction-trigger inflation)."""
    root = _build_small(tmp_path, [("o/r", "a.py", "c" * 40, "base_tok")])
    evt = _events([_upd(1, "o/r", "a.py", "v1_tok"),
                   _upd(2, "o/r", "a.py", "v2_tok")])
    apply_delta(evt, root)
    n_before = len(mf.load_manifest(root).get("deltas", []))
    rec = apply_delta(evt, root)          # at-least-once redelivery
    assert rec.get("noop") and rec["n_added"] == 0 and rec["n_stale"] == 1
    assert len(mf.load_manifest(root).get("deltas", [])) == n_before
    s = Searcher(root)
    assert s.search(["v2_tok"], 5) and not s.search(["v1_tok"], 5)


def test_per_key_lww_delete_beats_delayed_older_insert(ray_session,
                                                       tmp_path):
    """DELETE memory: a delayed older INSERT must not resurrect a key
    deleted at a higher seq — before AND after compaction folds the
    delta log away."""
    root = _build_small(tmp_path, [("o/r", "a.py", "c" * 40, "base_tok")])
    apply_delta(_events([{"seq": 9, "type": "DELETE", "repo": "o/r",
                          "path": "a.py"}]), root)
    rec = apply_delta(_events([_upd(4, "o/r", "a.py", "v4_tok")]), root)
    assert rec.get("noop") and rec["n_stale"] == 1
    assert not Searcher(root).search(["v4_tok"], 5)

    compact(root, "ep2", gc_old=False)
    rec = apply_delta(_events([_upd(5, "o/r", "a.py", "v5_tok")]), root)
    assert rec.get("noop"), "delete memory must survive compaction"
    assert not Searcher(root).search(["v5_tok"], 5)
    # a genuinely NEWER insert still applies
    rec = apply_delta(_events([_upd(11, "o/r", "a.py", "v11_tok")]), root)
    assert rec["n_added"] == 1
    assert Searcher(root).search(["v11_tok"], 5)


def test_per_key_lww_survives_compaction_for_updates(ray_session,
                                                     tmp_path):
    """Per-row event_seq rides added-docs through compaction: a delayed
    older update of a delta-updated key still loses after compact."""
    root = _build_small(tmp_path, [("o/r", "a.py", "c" * 40, "base_tok")])
    apply_delta(_events([_upd(10, "o/r", "a.py", "v10_tok")]), root)
    compact(root, "ep2", gc_old=False)
    rec = apply_delta(_events([_upd(6, "o/r", "a.py", "v6_tok")]), root)
    assert rec.get("noop") and rec["n_stale"] == 1
    s = Searcher(root)
    assert s.search(["v10_tok"], 5) and not s.search(["v6_tok"], 5)
    # delete-bearing compaction path (docs rewrite) preserves seqs too
    apply_delta(_events([{"seq": 12, "type": "DELETE", "repo": "o/r",
                          "path": "zz.py"}]), root)  # forces rewrite
    apply_delta(_events([_upd(13, "o/r", "b.py", "b13_tok")]), root)
    compact(root, "ep3", gc_old=False)
    rec = apply_delta(_events([_upd(7, "o/r", "a.py", "v7_tok")]), root)
    assert rec.get("noop")
    assert Searcher(root).search(["v10_tok"], 5)


def test_per_key_lww_noop_upsert_bumps_seq(ray_session, tmp_path):
    """A FRESH same-version upsert skips re-indexing but records the
    seq bump, so a delayed older real update cannot beat it."""
    root = _build_small(tmp_path, [("o/r", "a.py", "c" * 40, "base_tok")])
    v = _upd(3, "o/r", "a.py", "v3_tok")
    apply_delta(_events([v]), root)
    # same commit re-asserted at seq 9 (diff-fields no-op)
    again = dict(v, seq=9)
    rec = apply_delta(_events([again]), root)
    assert rec["n_added"] == 0 and rec["key_seqs"]
    # delayed older update at seq 5 must now lose to the seq-9 assert
    rec = apply_delta(_events([_upd(5, "o/r", "a.py", "v5_tok")]), root)
    assert rec.get("noop") and rec["n_stale"] == 1
    assert Searcher(root).search(["v3_tok"], 5)
    assert not Searcher(root).search(["v5_tok"], 5)


def test_key_seqs_are_the_only_write_record(ray_session, tmp_path):
    """Every applied write (INSERT, UPDATE, DELETE, no-op bump) is a row
    of its delta's key_seqs file, and no docs file written by build,
    apply_delta or either compaction path carries a per-row seq column:
    every docs file's columns are exactly DOCS_COLUMNS."""
    root = _build_small(tmp_path, [("o/r", "a.py", "c" * 40, "a_tok"),
                                   ("o/r", "b.py", "c" * 40, "b_tok"),
                                   ("o/r", "c.py", "c" * 40, "c_tok")])

    def docs_columns():
        m = mf.load_manifest(root)
        return {f: pq.read_schema(f).names
                for f, _ in mf.docs_sources(root, m)}

    rec = apply_delta(_events([
        {"seq": 1, "type": "INSERT", "repo": "o/r", "path": "n.py",
         "commit": "d" * 40, "lang": "python",
         "content": "def n(): return n_tok\n"},
        _upd(2, "o/r", "a.py", "a2_tok"),
        {"seq": 3, "type": "DELETE", "repo": "o/r", "path": "b.py"},
        {"seq": 4, "type": "UPDATE", "repo": "o/r", "path": "c.py",
         "commit": "c" * 40, "lang": "python",
         "content": "def k(): return c_tok\n"}]), root)
    assert rec["n_added"] == 2 and rec["n_deleted"] == 2
    ks = pq.read_table(rec["key_seqs"])
    assert sorted(zip(ks["path"].to_pylist(),
                      ks["event_seq"].to_pylist())) == [
        ("a.py", 2), ("b.py", 3), ("c.py", 4), ("n.py", 1)]
    for f, cols in docs_columns().items():
        assert cols == mf.DOCS_COLUMNS, (f, cols)

    compact(root, "ep2", gc_old=False)          # tombstones: rewrite
    apply_delta(_events([_upd(5, "o/r", "z.py", "z_tok")]), root)
    compact(root, "ep3", gc_old=False)          # no tombstones: copy
    cols = docs_columns()
    assert len(cols) >= 2
    for f, c in cols.items():
        assert c == mf.DOCS_COLUMNS, (f, c)
    m = mf.load_manifest(root)
    folded = mf.key_seq_table(root, m)
    assert dict(zip(folded["path"].to_pylist(),
                    folded["event_seq"].to_pylist())) == {
        "a.py": 2, "b.py": 3, "c.py": 4, "n.py": 1, "z.py": 5}
    # the folded memory still outranks a stale redelivery
    rec = apply_delta(_events([_upd(1, "o/r", "a.py", "stale_tok")]), root)
    assert rec.get("noop") and rec["n_stale"] == 1


def test_publish_documents_atomic_bridge(ray_session, tmp_path):
    """The atomic bridge path allocates monotone seqs under the write
    lock and applies in the same critical section."""
    from mee_ray.pipelines.bridge import publish_documents
    root = _build_small(tmp_path, [("o/r", "a.py", "c" * 40, "base_tok")])
    docs = pa.table({"cust_id": pa.array([1, 2], pa.int64()),
                     "name": pa.array(["ann", "bob"])})
    rec1 = publish_documents(root, docs, "cust_id", repo="crm")
    assert rec1["n_added"] == 2
    docs2 = pa.table({"cust_id": pa.array([2], pa.int64()),
                      "name": pa.array(["bobby"])})
    rec2 = publish_documents(root, docs2, "cust_id", repo="crm",
                             deleted_keys=[1])
    assert rec2["min_event_seq"] > rec1["max_event_seq"]
    s = Searcher(root)
    assert s.search(["bobby"], 5)
    assert not s.search(["ann"], 5)      # deleted key's doc gone


def test_snapshot_is_self_contained_and_frozen(built_index,
                                               tmp_path_factory,
                                               ray_session):
    """snapshot(): the copy answers queries identically (including a
    pending delta log), and later mutations of the SOURCE never leak
    into it; snapshotting onto an existing index refuses."""
    import shutil

    import pyarrow as pa
    import pytest

    from mee_ray import manifest as mf
    from mee_ray.config import EngineConfig
    from mee_ray.delta import apply_delta
    from mee_ray.query import Searcher

    src = str(tmp_path_factory.mktemp("snap_src"))
    shutil.copytree(built_index["index_root"], src, dirs_exist_ok=True)
    ev = pa.table({"seq": pa.array([1], pa.int64()),
                   "type": pa.array(["INSERT"]),
                   "repo": pa.array(["snap/repo"]),
                   "path": pa.array(["src/snap.py"]),
                   "commit": pa.array(["b" * 40]),
                   "lang": pa.array(["py"]),
                   "content": pa.array(["snapshot sentinel token_snapx"])})
    apply_delta(ev, src, EngineConfig())

    dest = str(tmp_path_factory.mktemp("snap_dst")) + "/backup"
    mf.snapshot(src, dest)
    s_src, s_dst = Searcher(src), Searcher(dest)
    assert s_dst.n_docs == s_src.n_docs
    for q in (["token_snapx"], ["merge"], ["zzz_nope"]):
        assert s_dst.search(q, 10) == s_src.search(q, 10), q
    # no absolute path in the snapshot manifest escapes the snapshot
    import json
    m = json.load(open(mf.manifest_path(dest,
                                        mf.current_epoch(dest))))
    for seg in m["segments"]:
        assert seg["path"].startswith(dest)
    for d in m.get("deltas", []):
        for f in (d.get("segments") or []):
            assert f.startswith(dest)
    # source mutations don't leak
    ev2 = pa.table({"seq": pa.array([2], pa.int64()),
                    "type": pa.array(["DELETE"]),
                    "repo": pa.array(["snap/repo"]),
                    "path": pa.array(["src/snap.py"]),
                    "commit": pa.array([""]), "lang": pa.array([""]),
                    "content": pa.array([""])})
    apply_delta(ev2, src, EngineConfig())
    assert Searcher(src).search(["token_snapx"], 10) == []
    assert Searcher(dest).search(["token_snapx"], 10) != []
    with pytest.raises(FileExistsError):
        mf.snapshot(src, dest)


# ------------------------------- r2 continuation review regressions --


def test_q13_all_orders_filtered_gives_zero_bucket(ray_session, tmp_path):
    """Every order urgent → the aggregate is empty and the
    distribution must still be the single all-zero bucket (the SQL
    left join keeps every customer)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from mee_ray.pipelines.relational import q13_customer_distribution

    sf = str(tmp_path)
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2, 3], pa.int64()),
        "o_custkey": pa.array([10, 11, 10], pa.int64()),
        "o_orderpriority": pa.array(["1-URGENT"] * 3)}),
        f"{sf}/orders.parquet")
    pq.write_table(pa.table({
        "c_custkey": pa.array([10, 11, 12], pa.int64())}),
        f"{sf}/customer.parquet")
    t = q13_customer_distribution(sf)
    assert t.to_pydict() == {"c_count": [0], "custdist": [3]}


def test_json_extract_skips_events_without_k(ray_session, tmp_path):
    """Events whose props JSON lacks k are invisible (the SQL
    WHERE k IS NOT NULL contract) — no crash, exact agreement with
    DuckDB."""
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from mee_ray.pipelines.relational import (JSON_EXTRACT_SQL,
                                              json_extract_events)

    sf = str(tmp_path)
    pq.write_table(pa.table({
        "event_id": pa.array(range(6), pa.int64()),
        "event_type": pa.array(["a", "a", "b", "b", "c", "c"]),
        "props": pa.array(['{"k": 5}', '{}', '{"k": -2}',
                           '{"other": 1}', '{}', '{}'])}),
        f"{sf}/events.parquet")
    got = json_extract_events(sf).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = con.execute(JSON_EXTRACT_SQL).df()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True))
    assert set(got["event_type"]) == {"a", "b"}   # c has no k at all


def test_keys_for_doc_ids_fails_loudly_on_missing_added_docs(tmp_path):
    """A manifest that references a vanished added-docs file is
    corruption: the key fetch must raise, never silently skip (a
    silent skip turns a matched doc's deletion into a no-op)."""
    import numpy as np
    import pytest as _pytest

    from mee_ray.delta import _keys_for_doc_ids

    manifest = {"epoch": "ep1", "segments": [],
                "deltas": [{"seq": 1,
                            "added_docs": str(tmp_path / "gone.parquet")}]}
    # docs_files() consults the manifest's docs list — give it none
    manifest["docs"] = []
    with _pytest.raises(FileNotFoundError):
        _keys_for_doc_ids(str(tmp_path), manifest,
                          np.array([1], dtype=np.int64))


def test_q17_threshold_is_selective(ray_session, tmp_path):
    """q < 0.2·avg with a hand-computed answer: quantities
    [1, 100, 100, 100] → avg 75.25, threshold 15.05 — ONLY the qty-1
    row qualifies.  Guards the cross-multiplication (a ×100 slip made
    the filter vacuous and the embedded oracle agreed with it)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from mee_ray.pipelines.relational import q17_small_quantity_revenue

    sf = str(tmp_path)
    pq.write_table(pa.table({
        "p_partkey": pa.array([7, 8], pa.int64()),
        "p_brand": pa.array(["Brand#23", "Brand#11"])}),
        f"{sf}/part.parquet")
    pq.write_table(pa.table({
        "l_partkey": pa.array([7, 7, 7, 7, 8], pa.int64()),
        "l_quantity": pa.array([1.0, 100.0, 100.0, 100.0, 1.0]),
        "l_extendedprice": pa.array([10.0, 20.0, 30.0, 40.0, 99.0])}),
        f"{sf}/lineitem.parquet")
    t = q17_small_quantity_revenue(sf).to_pydict()
    assert t["sum_cents"] == [1000]          # only the 10.00 row
    assert t["avg_yearly_millicents"] == [142857]   # 1000*1000/7


def test_q17_unknown_brand_returns_zero(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from mee_ray.pipelines.relational import q17_small_quantity_revenue

    sf = str(tmp_path)
    pq.write_table(pa.table({
        "p_partkey": pa.array([1], pa.int64()),
        "p_brand": pa.array(["Brand#99"])}), f"{sf}/part.parquet")
    pq.write_table(pa.table({
        "l_partkey": pa.array([1], pa.int64()),
        "l_quantity": pa.array([1.0]),
        "l_extendedprice": pa.array([10.0])}), f"{sf}/lineitem.parquet")
    t = q17_small_quantity_revenue(sf).to_pydict()
    assert t["sum_cents"] == [0] and t["avg_yearly_millicents"] == [0]


def test_epoch_aliases(ray_session, tmp_path):
    """Named epoch aliases (ES _aliases analog): an alias names an
    EPOCH (a live view, like an ES alias — deltas applied to it stay
    visible), it survives CURRENT moving at compaction, its target is
    pinned from GC, and the validation battery fails loudly."""
    import ray.data

    from mee_ray import manifest as mf
    from mee_ray.build import build_index
    from mee_ray.config import EngineConfig
    from mee_ray.corpus import write_corpus
    from mee_ray.delta import delete_by_query
    from mee_ray.merge import compact
    from mee_ray.query import Searcher

    root = str(tmp_path / "index")
    cdir = write_corpus(str(tmp_path / "corpus"), n_files=60, seed=3,
                        rows_per_file=30)
    build_index(ray.data.read_parquet(cdir), root, "ep1", EngineConfig())

    s0 = Searcher(root)
    term = next(t for t in s0.vocabulary() if 3 <= s0.count([t]) <= 30)
    n_before = s0.count([term])

    mf.set_alias(root, "prod", "ep1")
    assert Searcher(root, epoch="prod").count([term]) == n_before

    # an alias is a LIVE view of its epoch: a delta applied to ep1 is
    # visible through it (ES semantics; snapshot() is the freeze tool)
    delete_by_query(root, [term])
    assert Searcher(root, epoch="prod").count([term]) == 0

    compact(root, "ep2")
    assert mf.current_epoch(root) == "ep2"

    # aliased epochs are pinned from GC and stay loadable
    removed = mf.gc_epochs(root)
    assert "ep1" not in removed
    assert Searcher(root, epoch="prod").count([term]) == 0

    # atomic re-point
    mf.set_alias(root, "prod", "ep2")
    assert Searcher(root, epoch="prod").manifest["epoch"] == "ep2"

    # dropping unpins: ep1 is now garbage
    assert mf.drop_alias(root, "prod") is True
    assert mf.drop_alias(root, "prod") is False
    assert "ep1" in mf.gc_epochs(root)

    # validation battery
    import pytest as _pytest
    with _pytest.raises(FileNotFoundError):
        mf.set_alias(root, "x", "no_such_epoch")
    with _pytest.raises(ValueError):
        mf.set_alias(root, "CURRENT", "ep2")
    with _pytest.raises(ValueError):
        mf.set_alias(root, "ep2", "ep2")    # collides with epoch dir
    mf.set_alias(root, "blue", "ep2")
    with _pytest.raises(ValueError):
        mf.set_alias(root, "green", "blue")  # alias→alias chain


def test_filtered_alias_end_to_end(ray_session, tmp_path):
    """Filtered alias (ES alias-with-filter): the stored filter
    restricts plain search to live matching docs — liveness-correct
    under deltas (a deleted doc leaves the bitset, a delta-inserted
    one joins it), dict alias records pin their epochs from GC, and
    the validation battery rejects malformed filters."""
    import pyarrow as pa
    import pytest as _pytest
    import ray.data

    from mee_ray import manifest as mf
    from mee_ray.build import build_index
    from mee_ray.config import EngineConfig
    from mee_ray.corpus import write_corpus
    from mee_ray.delta import apply_delta
    from mee_ray.query import Searcher

    root = str(tmp_path / "index")
    cdir = write_corpus(str(tmp_path / "corpus"), n_files=80, seed=13,
                        rows_per_file=40)
    build_index(ray.data.read_parquet(cdir), root, "ep1", EngineConfig())

    mf.set_alias(root, "pyview", "ep1",
                 filter={"field": "lang", "value": "python"})
    assert mf.resolve_epoch(root, "pyview") == "ep1"
    assert mf.alias_filter(root, "pyview") == {"field": "lang",
                                               "value": "python"}
    assert mf.alias_filter(root, "ep1") is None

    s = Searcher(root, epoch="pyview")
    allowed = s.allowed_ids_for_field("lang", "python")
    import pyarrow.parquet as pq
    want = set()
    for f in mf.docs_files(root, "ep1"):
        t = pq.read_table(f, columns=["doc_id", "lang"])
        want |= {d for d, lg in zip(t["doc_id"].to_pylist(),
                                    t["lang"].to_pylist())
                 if lg == "python"}
    assert set(allowed.tolist()) == want and len(want) > 0

    # filtered search == post-filtering the exhaustive ranking
    full = s.search(["def"], k=s.n_docs or 1)
    got = s.search_filtered(["def"], k=s.n_docs or 1,
                            allowed_doc_ids=allowed)
    assert got == [(d, sc) for d, sc in full if d in want]

    # liveness: delete one python doc, insert a new one via delta
    victim = next(iter(sorted(want)))
    t = pa.concat_tables([pq.read_table(f) for f in
                          mf.docs_files(root, "ep1")])
    vrec = t.filter(pa.compute.equal(t["doc_id"], victim)).to_pylist()[0]
    ev = pa.table({
        "seq": pa.array([1, 2], pa.int64()),
        "type": pa.array(["DELETE", "INSERT"]),
        "repo": pa.array([vrec["repo"], "orgF/new"]),
        "path": pa.array([vrec["path"], "src/filtered.py"]),
        "commit": pa.array([None, "a" * 40]),
        "lang": pa.array([None, "python"]),
        "content": pa.array([None, "def filteredAliasDoc():\n"
                             "    return alias_filter_marker\n"]),
    })
    apply_delta(ev, root)
    s2 = Searcher(root, epoch="pyview")
    allowed2 = s2.allowed_ids_for_field("lang", "python")
    got2 = set(allowed2.tolist())
    assert victim not in got2
    new_ids = got2 - want
    assert len(new_ids) == 1          # the inserted python doc joined
    # non-matching lang stays out
    assert not (set(s2.allowed_ids_for_field("lang", "java").tolist())
                & got2)

    # dict alias records pin their target from GC
    from mee_ray.merge import compact
    compact(root, "ep2")
    removed = mf.gc_epochs(root)
    assert "ep1" not in removed
    assert Searcher(root, epoch="pyview").manifest["epoch"] == "ep1"

    # validation battery
    with _pytest.raises(ValueError):
        mf.set_alias(root, "bad1", "ep2",
                     filter={"field": "content", "value": "x"})
    with _pytest.raises(ValueError):
        mf.set_alias(root, "bad2", "ep2", filter={"field": "lang"})
    with _pytest.raises(ValueError):
        s2.allowed_ids_for_field("content", "x")


def test_tombstone_compaction_filters_docs_in_process(ray_session, tmp_path,
                                                      monkeypatch):
    """A tombstone-bearing compaction filters the docs table in the
    driver: it succeeds with ``ray.data.read_parquet`` refused, and
    search, N/avgdl and the stored source match the oracle."""
    import ray.data

    docs = [("o/r", f"s{i}.py", "c" * 40,
             f"def s_{i}(): return src_tok_{i} shared_tok\n")
            for i in range(24)]
    root = _build_small(tmp_path, docs, EngineConfig(
        num_shards=2, parts_per_shard=2, store_source=True))
    upd = "def s0(): return upd_src_tok shared_tok\n"
    new = "def n(): return new_src_tok\n"
    apply_delta(_events([
        {"seq": 1, "type": "UPDATE", "repo": "o/r", "path": "s0.py",
         "commit": "d" * 40, "lang": "python", "content": upd},
        {"seq": 2, "type": "DELETE", "repo": "o/r", "path": "s1.py"},
        {"seq": 3, "type": "INSERT", "repo": "o/r2", "path": "n.py",
         "commit": "e" * 40, "lang": "python", "content": new}]), root)

    def refuse(*a, **k):
        raise AssertionError("compaction read the docs table via Ray Data")
    monkeypatch.setattr(ray.data, "read_parquet", refuse)
    compact(root, "ep2", gc_old=False)
    assert mf.current_epoch(root) == "ep2"

    live = {(r, p): (c, t) for r, p, c, t in docs}
    live[("o/r", "s0.py")] = ("d" * 40, upd)
    del live[("o/r", "s1.py")]
    live[("o/r2", "n.py")] = ("e" * 40, new)
    oi = OracleIndex([(doc_id_of(r, p, c), t)
                      for (r, p), (c, t) in live.items()])
    s = Searcher(root)
    assert (s.n_docs, s.avgdl) == (oi.n_docs, oi.avgdl)
    for q in (["shared_tok"], ["upd_src_tok"], ["src_tok_1"],
              ["new_src_tok", "def"], ["src_tok_7", "shared_tok"]):
        assert s.search(q, 10) == oi.search(q, 10), q
    for (r, p), (c, t) in live.items():
        got = s.get_doc(r, p)
        assert (got["commit"], got["content"]) == (c, t), (r, p)
    assert s.get_doc("o/r", "s1.py") is None


def test_compaction_docs_files_bounded_then_delete_all(ray_session,
                                                       tmp_path):
    """Each compaction adds at most one docs file (the deltas' live
    added docs) while doc_ids stay unique and fsck stays clean; after
    every doc is deleted, compaction leaves an empty docs dir."""
    docs = [("o/r", f"b{i}.py", "c" * 40, f"def b_{i}(): return b_tok_{i}\n")
            for i in range(12)]
    root = _build_small(tmp_path, docs)
    n_base = len(mf.docs_files(root, "ep1"))
    live = {(r, p): c for r, p, c, _ in docs}
    seq = 1
    for rnd in range(3):
        for b in range(2):       # two delta batches per round
            keys = sorted(live)
            commit = f"{rnd}{b}" * 20
            ins = ("o/new", f"n{rnd}_{b}.py")
            apply_delta(_events([
                {"seq": seq, "type": "UPDATE", "repo": keys[0][0],
                 "path": keys[0][1], "commit": commit, "lang": "python",
                 "content": f"def u(): return upd_{rnd}_{b}\n"},
                {"seq": seq + 1, "type": "DELETE", "repo": keys[1][0],
                 "path": keys[1][1]},
                {"seq": seq + 2, "type": "INSERT", "repo": ins[0],
                 "path": ins[1], "commit": commit, "lang": "python",
                 "content": f"def n(): return ins_{rnd}_{b}\n"}]), root)
            seq += 3
            live[keys[0]] = commit
            del live[keys[1]]
            live[ins] = commit
        epoch = f"ep{rnd + 2}"
        compact(root, epoch, gc_old=False)
        files = mf.docs_files(root, epoch)
        assert len(files) <= n_base + rnd + 1, (epoch, files)
        ids = pa.concat_tables([pq.read_table(f, columns=["doc_id"])
                                for f in files])["doc_id"].to_pylist()
        assert len(ids) == len(set(ids))
        assert sorted(ids) == sorted(doc_id_of(r, p, c)
                                     for (r, p), c in live.items())
        assert mf.fsck(root)["ok"], epoch

    apply_delta(_events([{"seq": seq + i, "type": "DELETE", "repo": r,
                          "path": p} for i, (r, p) in enumerate(live)]),
                root)
    m = compact(root, "ep5", gc_old=False)
    assert m["n_docs"] == 0
    assert os.listdir(os.path.join(mf.epoch_dir(root, "ep5"), "docs")) == []
    assert Searcher(root).n_docs == 0
    assert mf.fsck(root)["ok"]
