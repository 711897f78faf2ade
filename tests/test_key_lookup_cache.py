"""apply_delta's key lookup answers from decoded per-file state.

The key lookup (``manifest.live_key_index``) keeps each docs, tombstone
and key_seqs file's decoded columns in ``wand.CACHE`` under the file's
identity, and apply_delta puts the state of the files it writes there
itself.  So a batch after a batch reads no file, and what is cached
can never change what a batch writes."""

import hashlib
import json
import os
import random
import subprocess
import sys

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from mee_ray import manifest as mf
from mee_ray import wand
from mee_ray.config import EngineConfig
from mee_ray.delta import apply_delta
from mee_ray.ids import doc_id_of
from mee_ray.oracle import OracleIndex, make_query_set
from mee_ray.query import Searcher

EV_COLS = ("seq", "type", "repo", "path", "commit", "lang", "content")


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

    tmp = tmp_path_factory.mktemp("keylookup")
    cdir = write_corpus(f"{tmp}/corpus", n_files=30, seed=23,
                        rows_per_file=40)
    build_index(ray.data.read_parquet(cdir), f"{tmp}/index", "ep1",
                EngineConfig(num_shards=2, parts_per_shard=2))
    t = pq.read_table(cdir)
    base = {}
    for r, p, c, content in zip(t["repo"].to_pylist(), t["path"].to_pylist(),
                                t["commit"].to_pylist(),
                                t["content"].to_pylist()):
        if (r, p) not in base or c > base[(r, p)][0]:
            base[(r, p)] = (c, content)
    return {"root": f"{tmp}/index", "base": base}


def _timeline(base: dict, seed: int, n: int) -> list[dict]:
    """``n`` sequenced events over ten base keys and five new ones."""
    rng = random.Random(seed)
    keys = sorted(base)[:10] + [("kl/new", f"n_{i}.py") for i in range(5)]
    out = []
    for s in range(1, n + 1):
        k = keys[rng.randrange(len(keys))]
        if rng.random() < 0.3:
            out.append({"seq": s, "type": "DELETE", "repo": k[0],
                        "path": k[1]})
        else:
            out.append({"seq": s, "type": "UPDATE", "repo": k[0],
                        "path": k[1], "commit": f"{s:08x}" + "c" * 32,
                        "lang": "python",
                        "content": f"def kl_{s}():\n    return kl_tok_{s}\n"})
    return out


class _ParquetReads:
    """Counts parquet opens through pyarrow's read entry points."""

    def __init__(self, monkeypatch):
        self.n = 0
        for mod, name in ((pq, "read_table"), (pq, "ParquetFile"),
                          (pads, "dataset")):
            monkeypatch.setattr(mod, name, self._counted(getattr(mod, name)))

    def _counted(self, fn):
        def wrapper(*a, **k):
            self.n += 1
            return fn(*a, **k)
        return wrapper


def test_steady_state_lookup_reads_nothing(src_index, tmp_path,
                                           monkeypatch):
    root = mf.snapshot(src_index["root"], str(tmp_path / "idx"))
    ev = _timeline(src_index["base"], 5, 24)
    wand.CACHE.clear()
    first = apply_delta(_events(ev[:12]), root)
    assert first["key_lookup_reads"] > 0      # a fresh process reads
    reads = _ParquetReads(monkeypatch)
    second = apply_delta(_events(ev[12:18]), root)
    assert second["key_lookup_reads"] == 0
    assert reads.n == 0
    # the counter sees the lookup's reads once the cache is cold again
    m = mf.load_manifest(root)
    wand.CACHE.clear()
    third = apply_delta(_events(ev[18:]), root)
    # every docs source, and each record's tombstones and key_seqs
    assert third["key_lookup_reads"] == \
        len(mf.docs_sources(root, m)) + 2 * len(m["deltas"])
    assert reads.n >= third["key_lookup_reads"]
    # the operator's view: `mee_ray status` prints the newest record's
    r = subprocess.run([sys.executable, "-m", "mee_ray", "status",
                        "--index", root], capture_output=True, text=True,
                       cwd=os.path.dirname(os.path.dirname(
                           os.path.abspath(__file__))))
    st = json.loads(r.stdout.strip().splitlines()[-1])
    assert st["epochs"][st["current"]]["last_delta_key_lookup_reads"] == \
        third["key_lookup_reads"]


def _run(src_index, root: str, deliveries: list[list[dict]], cold) -> dict:
    """Deliver the batches, calling ``cold()`` before each and
    compacting after the middle one; returns every delta file's sha256
    by path under the root, each batch's ``key_lookup_reads`` and a
    Searcher over the result."""
    from mee_ray.merge import compact

    root = mf.snapshot(src_index["root"], root)
    wand.CACHE.clear()
    files, reads = {}, []
    for i, batch in enumerate(deliveries):
        cold()
        reads.append(apply_delta(_events(batch), root)["key_lookup_reads"])
        if i == len(deliveries) // 2:
            compact(root, "ep2", gc_old=True)
        m = mf.load_manifest(root)
        for d in m.get("deltas", []):
            for p in [d["tombstones"], d["key_seqs"], d["added_docs"],
                      *d["segments"]]:
                if p:
                    with open(p, "rb") as f:
                        files[os.path.relpath(p, root)] = \
                            hashlib.sha256(f.read()).hexdigest()
    return {"files": files, "reads": reads, "searcher": Searcher(root)}


def test_cache_state_cannot_change_output(src_index, tmp_path,
                                          monkeypatch):
    base = src_index["base"]
    timeline = _timeline(base, 7, 40)
    rng = random.Random(7)
    deliveries = list(timeline) + [dict(e) for e in rng.sample(timeline, 10)]
    rng.shuffle(deliveries)
    batches = [deliveries[i:i + 5] for i in range(0, len(deliveries), 5)]

    warm = _run(src_index, str(tmp_path / "warm"), batches, lambda: None)
    cleared = _run(src_index, str(tmp_path / "cleared"), batches,
                   wand.CACHE.clear)
    monkeypatch.setattr(wand.CACHE, "budget", 0)
    unkept = _run(src_index, str(tmp_path / "unkept"), batches, lambda: None)
    assert wand.CACHE.nbytes == 0
    assert warm["files"] and warm["files"] == cleared["files"] \
        == unkept["files"]
    # warm reads only the files nobody decoded yet: the snapshot's, and
    # the docs files compaction wrote; the others read every batch
    mid = len(batches) // 2
    assert [n > 0 for n in warm["reads"]] == \
        [i in (0, mid + 1) for i in range(len(batches))]
    assert all(n > 0 for n in cleared["reads"] + unkept["reads"])

    # the per-key LWW model: each key's max-seq event wins
    last: dict = {}
    for e in deliveries:
        k = (e["repo"], e["path"])
        if k not in last or e["seq"] > last[k]["seq"]:
            last[k] = e
    live = dict(base)
    for k, e in last.items():
        if e["type"] == "DELETE":
            live.pop(k, None)
        else:
            live[k] = (e["commit"], e["content"])
    oi = OracleIndex([(doc_id_of(r, p, c), content)
                      for (r, p), (c, content) in live.items()])
    qs = [q["terms"] for q in make_query_set(
        [(i, c) for i, (_, c) in enumerate(live.values())],
        n_queries=8, seed=3)] + [["kl_tok_3"], ["def", "return"]]
    for run in (warm, cleared, unkept):
        s = run["searcher"]
        assert (s.n_docs, s.avgdl) == (oi.n_docs, oi.avgdl)
        for q in qs:
            assert s.search(q, 10) == oi.search(q, 10), q
