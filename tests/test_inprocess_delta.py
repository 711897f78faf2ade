"""The delta write path runs in-process: apply_delta, delete_by_query
and update_by_query start no Ray Data job, their results match the
oracle, and a delta's segment bytes do not depend on how the adds are
sliced for tokenization.  Each record writes one segment file, rows
sorted by part, that fsck checks."""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from mee_ray import manifest as mf
from mee_ray.config import EngineConfig
from mee_ray.ids import doc_id_of
from mee_ray.oracle import OracleIndex
from mee_ray.query import Searcher

EV_COLS = ("seq", "type", "repo", "path", "commit", "lang", "content")
QUERIES = (["def"], ["return", "import"], ["data", "value"],
           ["upd_tok"], ["fresh_tok", "def"])


def _events(rows):
    return pa.table({
        c: pa.array([r.get(c) for r in rows],
                    pa.int64() if c == "seq" else pa.string())
        for c in EV_COLS})


@pytest.fixture(scope="module")
def src_index(ray_session, tmp_path_factory):
    import ray.data

    from mee_ray.build import build_index
    from mee_ray.corpus import write_corpus

    tmp = tmp_path_factory.mktemp("inproc")
    cdir = write_corpus(f"{tmp}/corpus", n_files=30, seed=41,
                        rows_per_file=40)
    cfg = EngineConfig(num_shards=2, parts_per_shard=2,
                       store_source=True, store_positions=True)
    build_index(ray.data.read_parquet(cdir), f"{tmp}/index", "ep1", cfg)
    t = pq.read_table(cdir)
    live = {}
    for r, p, c, content in zip(t["repo"].to_pylist(), t["path"].to_pylist(),
                                t["commit"].to_pylist(),
                                t["content"].to_pylist()):
        if (r, p) not in live or c > live[(r, p)][0]:
            live[(r, p)] = (c, content)
    return {"root": f"{tmp}/index", "cfg": cfg, "live": live}


@pytest.fixture
def no_ray_data(monkeypatch):
    import ray.data

    def refuse(*a, **k):
        raise AssertionError("the delta write path started a Ray Data job")

    monkeypatch.setattr(ray.data, "from_arrow", refuse)
    monkeypatch.setattr(ray.data, "from_items", refuse)


def _copy(src_index, tmp_path, name="idx"):
    return mf.snapshot(src_index["root"], str(tmp_path / name))


def _assert_matches_oracle(root, live):
    s = Searcher(root)
    oracle = OracleIndex([(doc_id_of(r, p, c), content)
                          for (r, p), (c, content) in live.items()])
    assert (s.n_docs, s.avgdl) == (oracle.n_docs, oracle.avgdl)
    for q in QUERIES:
        assert s.search(q, 10) == oracle.search(q, 10), q
    for (r, p), (c, content) in list(live.items())[:5]:
        got = s.get_doc(r, p)
        assert (got["commit"], got["content"]) == (c, content)


def test_apply_delta_starts_no_ray_data_job(src_index, tmp_path,
                                            no_ray_data):
    from mee_ray.delta import apply_delta

    root = _copy(src_index, tmp_path)
    live = dict(src_index["live"])
    keys = sorted(live)
    k_upd, k_del, k_bump = keys[0], keys[1], keys[2]
    new = ("o/fresh", "new.py")
    rec = apply_delta(_events([
        {"seq": 1, "type": "INSERT", "repo": new[0], "path": new[1],
         "commit": "a" * 40, "lang": "python",
         "content": "def fresh(): return fresh_tok\n"},
        {"seq": 2, "type": "UPDATE", "repo": k_upd[0], "path": k_upd[1],
         "commit": "e" * 40, "lang": "python",
         "content": "def u(): return upd_tok\n"},
        {"seq": 3, "type": "DELETE", "repo": k_del[0], "path": k_del[1]},
        # a fresh upsert of the live version: a no-op seq bump
        {"seq": 4, "type": "UPDATE", "repo": k_bump[0], "path": k_bump[1],
         "commit": live[k_bump][0], "lang": "python",
         "content": live[k_bump][1]},
    ]), root)
    assert (rec["n_added"], rec["n_deleted"]) == (2, 2)
    assert rec["segments"]
    live[new] = ("a" * 40, "def fresh(): return fresh_tok\n")
    live[k_upd] = ("e" * 40, "def u(): return upd_tok\n")
    del live[k_del]
    _assert_matches_oracle(root, live)
    assert Searcher(root).get_doc(*k_del) is None
    # the bump is remembered: an older redelivery of k_bump loses
    again = apply_delta(_events([
        {"seq": 3, "type": "DELETE", "repo": k_bump[0],
         "path": k_bump[1]}]), root)
    assert again["noop"] and again["n_stale"] == 1


def test_by_query_mutators_start_no_ray_data_job(src_index, tmp_path,
                                                 no_ray_data):
    from mee_ray.delta import delete_by_query, update_by_query
    from mee_ray.tokenizer import Tokenizer

    root = _copy(src_index, tmp_path)
    live = dict(src_index["live"])
    tok = Tokenizer(src_index["cfg"].tokenizer)
    terms = {k: set(tok.terms(c)) for k, (_, c) in live.items()}
    df: dict[str, int] = {}
    for ts in terms.values():
        for t in ts:
            df[t] = df.get(t, 0) + 1
    t_del, t_upd = [t for t in sorted(df) if 5 <= df[t] <= 40][:2]

    rec = delete_by_query(root, [t_del])
    assert rec["n_deleted"] == df[t_del]
    live = {k: v for k, v in live.items() if t_del not in terms[k]}
    _assert_matches_oracle(root, live)

    rec = update_by_query(root, [t_upd],
                          lambda c: c + "\n# upd_tok\n")
    assert rec["n_transformed"] == rec["n_matched"] > 0
    for k, (c, content) in list(live.items()):
        if t_upd in terms[k]:
            new = content + "\n# upd_tok\n"
            live[k] = (hashlib.sha256(new.encode()).hexdigest()[:40], new)
    _assert_matches_oracle(root, live)


def test_delta_segments_independent_of_tokenize_slicing(src_index,
                                                        tmp_path):
    from mee_ray.delta import apply_delta

    batch = _events([
        {"seq": i + 1, "type": "INSERT", "repo": "o/slice",
         "path": f"f{i}.py", "commit": "b" * 40, "lang": "python",
         "content": f"def f{i}(x): return x + slice_tok_{i % 3}\n"}
        for i in range(10)])
    shas = []
    for name, cfg in (("small", replace(src_index["cfg"],
                                        tokenize_batch_size=2)),
                      ("default", src_index["cfg"])):
        rec = apply_delta(batch, _copy(src_index, tmp_path, name), cfg)
        assert rec["n_added"] == 10
        shas.append([hashlib.sha256(open(p, "rb").read()).hexdigest()
                     for p in rec["segments"]])
    assert shas[0] == shas[1] and shas[0]


def _mixed_batch(n=40):
    return _events([
        {"seq": i + 1, "type": "INSERT", "repo": "o/layout",
         "path": f"l{i}.py", "commit": "c" * 40, "lang": "python",
         "content": f"def g{i}(y): return y * layout_tok_{i % 7} + {i}\n"}
        for i in range(n)])


def test_delta_record_has_one_segment_file(src_index, tmp_path):
    """A delta record writes exactly one segment file, no lineage
    sidecar, rows sorted by part, every part in range, and its record
    carries the write path's layer timings."""
    from mee_ray.delta import apply_delta

    root = _copy(src_index, tmp_path)
    rec = apply_delta(_mixed_batch(), root)
    assert len(rec["segments"]) == 1
    seg = rec["segments"][0]
    assert os.path.basename(seg) == "segments.parquet"
    assert sorted(os.listdir(os.path.dirname(seg))) == [
        "added_docs.parquet", "key_seqs.parquet", "segments.parquet",
        "tombstones.parquet"]
    cfg = src_index["cfg"]
    parts = pq.read_table(seg, columns=["part"])["part"].to_numpy()
    assert np.all(np.diff(parts) >= 0)
    assert parts.min() >= 0
    assert parts.max() < cfg.num_shards * cfg.parts_per_shard
    assert len(set(parts.tolist())) > 1     # one file, several parts
    assert set(rec["seconds"]) == {"key_lookup", "tokenize", "encode",
                                   "write"}
    assert all(v >= 0 for v in rec["seconds"].values())
    assert mf.load_manifest(root)["deltas"][-1]["seconds"] == rec["seconds"]
    assert mf.fsck(root, verify_hashes=False)["ok"]
    # the operator's view: `mee_ray status` prints the newest record's
    r = subprocess.run([sys.executable, "-m", "mee_ray", "status",
                        "--index", root], capture_output=True, text=True,
                       cwd=os.path.dirname(os.path.dirname(
                           os.path.abspath(__file__))))
    st = json.loads(r.stdout.strip().splitlines()[-1])
    assert st["epochs"][st["current"]]["last_delta_seconds"] == \
        rec["seconds"]


@pytest.mark.parametrize("fault", ["unsorted", "out_of_range"])
def test_fsck_checks_delta_layout(src_index, tmp_path, fault):
    from mee_ray.delta import apply_delta

    root = _copy(src_index, tmp_path)
    seg = apply_delta(_mixed_batch(), root)["segments"][0]
    t = pq.read_table(seg)
    parts = t["part"].to_numpy().copy()
    if fault == "unsorted":
        parts = parts[::-1].copy()
        want = "not sorted by part"
    else:
        parts[-1] = 10 ** 6
        want = "part out of range"
    pq.write_table(t.set_column(t.column_names.index("part"), "part",
                                pa.array(parts, pa.int32())), seg)
    rep = mf.fsck(root, verify_hashes=False)
    assert not rep["ok"]
    assert [e for e in rep["errors"] if want in e and seg in e]
