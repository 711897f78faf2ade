"""Crash-injection matrix for the resumable lifecycle ops: each op is
killed at a named internal point, then retried — the retry must
converge to the exact state an uninterrupted run produces
(rank-identical to the oracle, fsck-clean, no duplicated or stale
rows).  The reference's whole recovery story is supervisord-restart +
idempotent redelivery (syncservice.py:54-62); here the equivalents are
staged writes, debris-clearing fingerprints, and manifest-last
ordering, and this matrix pins each one."""

import os
import random
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from mee_ray import manifest as mf
from mee_ray.build import build_index, reindex
from mee_ray.config import EngineConfig
from mee_ray.corpus import write_corpus
from mee_ray.delta import apply_delta
from mee_ray.ids import doc_id_of
from mee_ray.merge import compact
from mee_ray.oracle import OracleIndex
from mee_ray.query import Searcher


class _Boom(RuntimeError):
    pass


def _build(tmp_path, seed=131):
    import ray.data
    root = str(tmp_path / "index")
    cdir = write_corpus(str(tmp_path / "corpus"), n_files=30,
                        seed=seed, rows_per_file=40)
    cfg = EngineConfig(num_shards=2, parts_per_shard=2,
                       store_source=True)
    build_index(ray.data.read_parquet(cdir), root, "ep1", cfg)
    t = pq.read_table(cdir)
    live = {}
    for r, p, c, content in zip(t["repo"].to_pylist(),
                                t["path"].to_pylist(),
                                t["commit"].to_pylist(),
                                t["content"].to_pylist()):
        if (r, p) not in live or c > live[(r, p)][0]:
            live[(r, p)] = (c, content)
    return root, live


def _events(rows):
    return pa.table({
        "seq": pa.array([r[0] for r in rows], pa.int64()),
        "type": pa.array([r[1] for r in rows], pa.string()),
        "repo": pa.array([r[2] for r in rows], pa.string()),
        "path": pa.array([r[3] for r in rows], pa.string()),
        "commit": pa.array([r[4] for r in rows], pa.string()),
        "lang": pa.array([r[5] for r in rows], pa.string()),
        "content": pa.array([r[6] for r in rows], pa.string())})


def _check(root, live, tag):
    oi = OracleIndex([(doc_id_of(r, p, c), content)
                      for (r, p), (c, content) in live.items()])
    s = Searcher(root)
    assert (s.n_docs, s.avgdl) == (oi.n_docs, oi.avgdl), tag
    for q in (["def"], ["return", "import"], ["self"]):
        assert s.search(q, 10) == oi.search(q, 10), (tag, q)
    assert mf.fsck(root, verify_hashes=False)["ok"], tag


def _mutate(root, live, start_seq):
    keys = sorted(live)
    ka, kb = keys[0], keys[1]
    rows = [(start_seq, "UPDATE", ka[0], ka[1], "a" * 40, "python",
             f"def crashed_upd_{start_seq}():\n    return 1\n"),
            (start_seq + 1, "DELETE", kb[0], kb[1], None, None, None)]
    apply_delta(_events(rows), root)
    live[ka] = ("a" * 40, f"def crashed_upd_{start_seq}():\n    return 1\n")
    live.pop(kb)
    return start_seq + 2


def _crash_in_compact_docs(monkeypatch):
    """Crash compaction's docs loop once, at its second file write: one
    new docs file is already in place and no segment is merged yet, so
    the retry meets partial docs debris."""
    import mee_ray.merge as merge_mod
    real = merge_mod._put_file
    calls = {"n": 0}

    def boom_once(dst, src):
        calls["n"] += 1
        if calls["n"] == 2:
            raise _Boom("crash in the docs loop")
        return real(dst, src)
    monkeypatch.setattr(merge_mod, "_put_file", boom_once)


def _assert_docs_debris_only(root, epoch):
    edir = mf.epoch_dir(root, epoch)
    assert len(mf.docs_files(root, epoch)) == 1
    assert not [f for f in os.listdir(os.path.join(edir, "segments"))
                if f.endswith(".parquet")]


@pytest.mark.parametrize("crash_point", ["docs_stage", "manifest"])
def test_compact_crash_then_retry(ray_session, tmp_path, monkeypatch,
                                  crash_point):
    import mee_ray.merge as merge_mod

    root, live = _build(tmp_path)
    _mutate(root, live, 1)

    calls = {"n": 0}
    if crash_point == "docs_stage":
        _crash_in_compact_docs(monkeypatch)
    else:
        real_wm = mf.write_manifest

        def boom_once(index_root, epoch, m):
            # crash only the NEW epoch's manifest write (delta replay
            # and retries must still work)
            if calls["n"] == 0 and epoch == "ep2":
                calls["n"] += 1
                raise _Boom("crash before manifest write")
            return real_wm(index_root, epoch, m)
        monkeypatch.setattr(merge_mod.mf, "write_manifest", boom_once)

    with pytest.raises(_Boom):
        compact(root, "ep2")
    if crash_point == "docs_stage":
        _assert_docs_debris_only(root, "ep2")
    assert mf.current_epoch(root) == "ep1"   # nothing published
    _check(root, live, f"{crash_point}: pre-retry state intact")

    compact(root, "ep2")                      # retry, same target
    assert mf.current_epoch(root) == "ep2"
    _check(root, live, f"{crash_point}: post-retry")


def test_compact_crash_new_delta_then_retry(ray_session, tmp_path,
                                            monkeypatch):
    """Crash mid-compaction, then a NEW delta lands before the retry:
    the fingerprint must fold it (no stale-debris adoption) — and the
    per-key memory of both deltas must survive the eventual fold."""
    root, live = _build(tmp_path, seed=132)
    next_seq = _mutate(root, live, 1)

    _crash_in_compact_docs(monkeypatch)
    with pytest.raises(_Boom):
        compact(root, "ep2")
    _assert_docs_debris_only(root, "ep2")

    next_seq = _mutate(root, live, next_seq)
    compact(root, "ep2")
    assert mf.current_epoch(root) == "ep2"
    _check(root, live, "new-delta retry")
    # stale redelivery of the FIRST batch after the fold: no-op
    keys_now = sorted(live)
    ka = keys_now[0]
    apply_delta(_events([(1, "UPDATE", ka[0], ka[1], "z" * 40,
                          "python", "def zombie():\n    return 0\n")]),
                root)
    _check(root, live, "stale redelivery after folded retry")


def test_reindex_crash_then_retry(ray_session, tmp_path, monkeypatch):
    import mee_ray.build as build_mod

    root, live = _build(tmp_path, seed=133)
    _mutate(root, live, 1)

    calls = {"n": 0}
    real = build_mod._staged_write

    def boom_once(ds, dst):
        if calls["n"] == 0:
            calls["n"] += 1
            raise _Boom("crash in reindex docs staging")
        return real(ds, dst)
    monkeypatch.setattr(build_mod, "_staged_write", boom_once)
    with pytest.raises(_Boom):
        reindex(root, "ep2")
    assert mf.current_epoch(root) == "ep1"
    _check(root, live, "reindex crash: source intact")

    reindex(root, "ep2")
    assert mf.current_epoch(root) == "ep2"
    _check(root, live, "reindex retry")


def test_delta_crash_then_redelivery(ray_session, tmp_path, monkeypatch):
    """apply_delta killed before its manifest append leaves unreferenced
    delta debris; redelivering the SAME batch must apply exactly once
    (the debris is cleared, not adopted for a half-written record)."""
    root, live = _build(tmp_path, seed=134)
    keys = sorted(live)
    ka = keys[0]
    rows = [(1, "UPDATE", ka[0], ka[1], "a" * 40, "python",
             "def delta_crash():\n    return 1\n")]

    calls = {"n": 0}
    real_wm = mf.write_manifest

    def boom_once(index_root, epoch, m):
        if calls["n"] == 0 and m.get("deltas"):
            calls["n"] += 1
            raise _Boom("crash before delta manifest append")
        return real_wm(index_root, epoch, m)

    import mee_ray.delta as delta_mod
    monkeypatch.setattr(delta_mod.mf, "write_manifest", boom_once)
    with pytest.raises(_Boom):
        apply_delta(_events(rows), root)
    # manifest untouched: the index still serves the pre-delta state
    _check(root, live, "delta crash: state intact")

    apply_delta(_events(rows), root)          # redelivery
    live[ka] = ("a" * 40, "def delta_crash():\n    return 1\n")
    _check(root, live, "delta redelivery applied once")
    s = Searcher(root)
    assert s.get_doc(*ka)["content"] == live[ka][1]
