"""Pinned Searchers while ``compact(gc_old=True)`` publishes a new
epoch and removes theirs: every answer equals the snapshot's
OracleIndex answer, or the query raises ``manifest.EpochGone`` (a
``FileNotFoundError`` naming the epoch) — never a bare missing-file
error.  Run without and with pending tombstones, so both the WAND path
and the exhaustive path read shards."""

import os
import threading

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from mee_ray import manifest as mf
from mee_ray.build import build_index
from mee_ray.config import EngineConfig
from mee_ray.corpus import write_corpus
from mee_ray.delta import apply_delta
from mee_ray.ids import doc_id_of
from mee_ray.merge import compact
from mee_ray.oracle import OracleIndex, make_query_set
from mee_ray.query import Searcher


def _latest(cdir: str) -> dict:
    t = pq.read_table(cdir)
    live = {}
    for r, p, c, content in zip(t["repo"].to_pylist(), t["path"].to_pylist(),
                                t["commit"].to_pylist(),
                                t["content"].to_pylist()):
        if (r, p) not in live or c > live[(r, p)][0]:
            live[(r, p)] = (c, content)
    return live


@pytest.mark.parametrize("tombstones", [False, True])
def test_pinned_searchers_across_gc(ray_session, tmp_path, tombstones):
    import ray.data

    root = str(tmp_path / "index")
    cdir = write_corpus(str(tmp_path / "corpus"), n_files=24, seed=31,
                        rows_per_file=25)
    build_index(ray.data.read_parquet(cdir), root, "c1",
                EngineConfig(num_shards=8, parts_per_shard=1))
    live = _latest(cdir)
    if tombstones:
        dead = sorted(live)[::7]
        apply_delta(pa.table({
            "seq": pa.array(range(1, len(dead) + 1), pa.int64()),
            "type": ["DELETE"] * len(dead),
            "repo": [r for r, _ in dead], "path": [p for _, p in dead],
            "commit": [""] * len(dead), "lang": ["py"] * len(dead),
            "content": [""] * len(dead)}), root)
        for k in dead:
            del live[k]
    oracle = OracleIndex([(doc_id_of(r, p, c), content)
                          for (r, p), (c, content) in live.items()])
    queries = make_query_set([(i, c) for i, (_, c) in
                              enumerate(live.values())], n_queries=30,
                             seed=4)
    want = [oracle.search(q["terms"], q["k"]) for q in queries]

    pinned = [Searcher(root, "c1") for _ in range(3)]
    # one per reader, plus one here: these open no shard before the GC
    cold = [Searcher(root, "c1") for _ in range(4)]
    assert bool(len(pinned[0].tombstones)) == tombstones
    assert pinned[0].search(queries[0]["terms"], queries[0]["k"]) == want[0]

    done = threading.Event()
    answers, gone, errors = [], [], []

    def one(s: Searcher, i: int) -> None:
        q = queries[i % len(queries)]
        try:
            answers.append((i % len(queries), s.search(q["terms"], q["k"])))
        except mf.EpochGone as e:
            gone.append(e)
        except Exception as e:               # noqa: BLE001 — reported
            errors.append(e)

    def read(s: Searcher, c: Searcher, start: int) -> None:
        i = start
        while not done.is_set():
            one(s, i)
            i += 1
        for j in range(len(queries)):        # a full pass after the GC
            one(s, i + j)
        one(c, start)

    threads = [threading.Thread(target=read, args=(s, c, 10 * n))
               for n, (s, c) in enumerate(zip(pinned, cold))]
    for t in threads:
        t.start()
    try:
        compact(root, "c2", gc_old=True)
    finally:
        done.set()
        for t in threads:
            t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)

    assert not os.path.exists(mf.epoch_dir(root, "c1"))
    assert not errors, errors[:3]
    assert answers and all(got == want[i] for i, got in answers)
    assert len(gone) >= len(threads)
    assert all("c1" in str(e) and "reopen" in str(e) for e in gone)
    with pytest.raises(mf.EpochGone, match="'c1'.*reopen"):
        cold[-1].search(queries[1]["terms"], queries[1]["k"])
    assert isinstance(mf.EpochGone("x"), FileNotFoundError)
    fresh = Searcher(root)
    assert fresh.manifest["epoch"] == "c2"
    assert [fresh.search(q["terms"], q["k"]) for q in queries] == want
