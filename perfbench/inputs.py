"""Seeded benchmark inputs and the answers the engine must give.

Everything here is a pure function of the seed and the size preset: the
corpus parquet, the query stream, the delta-event batches, and the
live-document model those batches act on.  The engine sees only the
parquet files and the event tables; the exact answers come from
``mee_ray.oracle.OracleIndex`` over the documents this module says are
live.
"""

from __future__ import annotations

import glob
import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# content_scale multiplies the functions per generated file; the 40x tail
# file, empty rows and second commits come from the generator itself
SIZES = {
    "full": {"n_files": 2000, "content_scale": 2, "n_queries": 1200,
             "delta_events": 48, "batches_per_round": 6, "burst": 100,
             "check_queries": 300},
    "tiny": {"n_files": 240, "content_scale": 1, "n_queries": 60,
             "delta_events": 12, "batches_per_round": 2, "burst": 6,
             "check_queries": 30},
}

EVENT_COLS = ("seq", "type", "repo", "path", "commit", "lang", "content")


def _commit_of(repo: str, path: str, seq: int) -> str:
    return hashlib.sha1(f"{repo}/{path}@{seq}".encode()).hexdigest()


class Corpus:
    """The generated corpus on disk plus its latest-commit winners."""

    def __init__(self, path: str, seed: int, size: dict):
        from mee_ray.corpus import write_corpus
        from mee_ray.ids import doc_id_of
        self.path = path
        write_corpus(path, n_files=size["n_files"], seed=seed,
                     rows_per_file=max(64, size["n_files"] // 8),
                     content_scale=size["content_scale"])
        files = sorted(glob.glob(os.path.join(path, "*.parquet")))
        self.parquet_bytes = sum(os.path.getsize(f) for f in files)
        t = pa.concat_tables(pq.read_table(f) for f in files)
        self.n_rows = t.num_rows
        # latest-commit-wins per (repo, path): the max of (commit, doc_id),
        # the order build.winner_doc_ids uses
        best: dict[tuple[str, str], tuple[str, int, str, str]] = {}
        for repo, path_, commit, lang, content in zip(
                *(t[c].to_pylist() for c in
                  ("repo", "path", "commit", "lang", "content"))):
            d = doc_id_of(repo, path_, commit)
            cur = best.get((repo, path_))
            if cur is None or (commit, d) > (cur[0], cur[1]):
                best[(repo, path_)] = (commit, d, lang, content or "")
        # key → (doc_id, content): the live set the index must hold
        self.live = {k: (v[1], v[3]) for k, v in best.items()}
        # the user's data: content bytes of every input row
        self.input_bytes = sum(len(c.encode()) for c in
                               t["content"].to_pylist() if c)

    def docs(self) -> list[tuple[int, str]]:
        return sorted(self.live.values())


class Oracle:
    """Exact top-k answers over a fixed live-document set, memoized per
    unique term set (the query stream repeats its hot terms)."""

    def __init__(self, docs: list[tuple[int, str]]):
        from mee_ray.oracle import OracleIndex
        self.index = OracleIndex(docs)
        self._memo: dict[tuple[str, ...], list] = {}

    @property
    def total_tokens(self) -> int:
        return sum(self.index.dl.values())

    def search(self, terms: list[str], k: int) -> list[tuple[int, float]]:
        key = tuple(sorted(set(terms))) + (f"#{k}",)
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = self.index.search(terms, k)
        return got


def query_stream(docs: list[tuple[int, str]], n: int, seed: int) -> list[dict]:
    """Top-10 OR queries in thirds: one hot term, one rare (df = 1)
    term, 2–4 random vocabulary terms (``make_query_set``)."""
    from mee_ray.oracle import make_query_set
    qs = make_query_set(docs, n_queries=n, seed=seed)
    for q in qs:
        q["kind"] = ("hot", "rare", "multi")[q["query_id"] % 3]
    return qs


class DeltaModel:
    """Seeded delta-event batches and the live documents they leave.

    Each batch touches a key at most once: a third deletes live keys, a
    third updates live keys to a new commit and content, the rest insert
    new keys.  Event seqs rise across batches, so the engine's per-key
    last-writer-wins resolves every event as applied."""

    def __init__(self, corpus: Corpus, seed: int, pool_files: int = 400):
        from mee_ray.corpus import generate_corpus
        self.live = dict(corpus.live)
        pool = generate_corpus(n_files=pool_files, seed=seed + 7919)
        self.pool = [(lang, c) for lang, c in
                     zip(pool["lang"].to_pylist(), pool["content"].to_pylist())
                     if c and c.strip()]
        self.rng = np.random.default_rng(seed + 104729)
        self.seq = 0
        self.n_new = 0

    def _content(self) -> tuple[str, str]:
        return self.pool[int(self.rng.integers(0, len(self.pool)))]

    def next_batch(self, n_events: int) -> pa.Table:
        from mee_ray.ids import doc_id_of
        keys = sorted(self.live)
        n_del = n_upd = n_events // 3
        picked = self.rng.choice(len(keys), size=n_del + n_upd, replace=False)
        rows = []
        for j, ki in enumerate(picked):
            self.seq += 1
            repo, path = keys[int(ki)]
            if j < n_del:
                rows.append({"seq": self.seq, "type": "DELETE", "repo": repo,
                             "path": path, "commit": None, "lang": None,
                             "content": None})
                del self.live[(repo, path)]
            else:
                lang, content = self._content()
                commit = _commit_of(repo, path, self.seq)
                rows.append({"seq": self.seq, "type": "UPDATE", "repo": repo,
                             "path": path, "commit": commit, "lang": lang,
                             "content": content})
                self.live[(repo, path)] = (doc_id_of(repo, path, commit),
                                           content)
        for _ in range(n_events - n_del - n_upd):
            self.seq += 1
            self.n_new += 1
            repo, path = "bench/delta", f"src/new_{self.n_new}.py"
            lang, content = self._content()
            commit = _commit_of(repo, path, self.seq)
            rows.append({"seq": self.seq, "type": "INSERT", "repo": repo,
                         "path": path, "commit": commit, "lang": lang,
                         "content": content})
            self.live[(repo, path)] = (doc_id_of(repo, path, commit), content)
        return pa.table({c: pa.array([r[c] for r in rows],
                                     pa.int64() if c == "seq" else pa.string())
                         for c in EVENT_COLS})

    def docs(self) -> list[tuple[int, str]]:
        return sorted(self.live.values())
