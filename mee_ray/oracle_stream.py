"""Disk-backed, memory-bounded oracle for the large scale points.

The in-process :class:`mee_ray.oracle.OracleIndex` holds postings for
EVERY term — ~80 GB at 7.68M docs, which made the oracle (not the
engine) the binding constraint of the scale series (VERDICT r4 #1).
This module streams the corpus parquet in a SEPARATE process (the
engine's Ray session is down, so the host's memory belongs to the
oracle) and keeps only what the reference query set actually touches:

  pass 1  df over live docs (query-set generation + idf), n_docs,
          total_dl, the smallest delta keys, probe-doc candidates —
          one multiprocessing scan, Counter/heap partials per file.
  pass 2  (doc_id, tf, dl) arrays for the UNION of query terms, plus
          per-(term, doc) position arrays for the probe terms — a
          second scan, arrays per file concatenated on the driver.

:class:`ScopedOracleIndex` then subclasses OracleIndex and REUSES its
search/search_and/search_phrase/search_span_near methods verbatim
(same float accumulation order, same tie-breaks), with
postings/dl/positions populated only for the scoped terms — memory is
O(Σ df(query terms)) instead of O(corpus).  Bit-identity of the
scoped construction vs the full OracleIndex is asserted at small
scale in tests/test_oracle_stream.py; the scale harness
(scripts/scale_split.py) relies on that equivalence.

Dedup is the corpus-structural rule: generate_corpus gives a key
(repo, path) a second commit iff its file index i (recoverable from
``path`` = src/pkg*/file_{i}.*) has i % 25 == 7, and the live commit
is the lexicographically larger sha1 — so liveness is decidable
row-locally, no global shuffle, no key dict (verified against the
historical live-dict dedup in the tests).
"""

from __future__ import annotations

import hashlib
import heapq
import os
import re
from collections import Counter

import numpy as np

from mee_ray.config import TokenizerConfig
from mee_ray.ids import doc_id_of
from mee_ray.oracle import OracleIndex
from mee_ray.tokenizer import Tokenizer

_FILE_I = re.compile(r"file_(\d+)\.")


def live_mask(repos: list, paths: list, commits: list) -> list[bool]:
    """Row-local latest-commit-wins liveness for the synthetic corpus
    (see module docstring)."""
    out = []
    for r, p, c in zip(repos, paths, commits):
        m = _FILE_I.search(p)
        if m is None:
            raise ValueError(f"live_mask needs synthetic-corpus paths "
                             f"containing 'file_<n>.', got {p!r}")
        i = int(m.group(1))
        if i % 25 == 7:
            c0 = hashlib.sha1(f"{r}/{p}@0".encode()).hexdigest()
            c1 = hashlib.sha1(f"{r}/{p}@1".encode()).hexdigest()
            out.append(c == max(c0, c1))
        else:
            out.append(True)
    return out


def _mix64_scalar(x: int) -> int:
    """splitmix64 finalizer on one int (matches gramhash.mix64)."""
    z = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


# ------------------------------------------------------------ pass 1 --

def pass1_file(args):
    """(file, n_keys, n_probes) → per-file partials:
    (df Counter, n_docs, total_dl, smallest-keys list,
    probe candidates [(mix64 rank, doc_id, content)])."""
    path, n_keys, n_probes = args
    import pyarrow.parquet as pq
    tok = Tokenizer(TokenizerConfig())
    t = pq.read_table(path, columns=["repo", "path", "commit",
                                     "content"])
    repos = t["repo"].to_pylist()
    paths = t["path"].to_pylist()
    commits = t["commit"].to_pylist()
    contents = t["content"].to_pylist()
    live = live_mask(repos, paths, commits)
    df: Counter = Counter()
    n_docs = 0
    total_dl = 0
    keys = []
    probes = []
    for r, p, c, content, ok in zip(repos, paths, commits, contents,
                                    live):
        if not ok:
            continue
        n_docs += 1
        counts = tok.counts(content or "")
        total_dl += sum(counts.values())
        df.update(counts.keys())
        keys.append((r, p))
        if n_probes:
            d = doc_id_of(r, p, c)
            probes.append((_mix64_scalar(d), d, content or ""))
    keys.sort()
    if n_probes:
        probes.sort()
    return (df, n_docs, total_dl, keys[:n_keys], probes[:n_probes])


def run_pass1(files: list[str], n_keys: int, n_probes: int = 0,
              processes: int | None = None):
    """Merged pass-1 stats: (df, n_docs, total_dl, smallest n_keys
    (repo, path) keys, smallest-mix64 probe docs)."""
    from multiprocessing import Pool
    df: Counter = Counter()
    n_docs = 0
    total_dl = 0
    key_heaps: list = []
    probe_heaps: list = []
    with Pool(processes=processes or os.cpu_count()) as pool:
        for pdf, pn, pdl, pkeys, pprobes in pool.imap_unordered(
                pass1_file,
                [(f, n_keys, n_probes) for f in sorted(files)]):
            df.update(pdf)
            n_docs += pn
            total_dl += pdl
            key_heaps.append(pkeys)
            probe_heaps.append(pprobes)
    keys = list(heapq.merge(*key_heaps))[:n_keys]
    probes = list(heapq.merge(*probe_heaps))[:n_probes]
    return df, n_docs, total_dl, keys, probes


# ----------------------------------------------- pass 1b (delta keys) --

def pass1b_file(args):
    """(file, sorted key strings) → (df_minus Counter over affected
    docs' term sets, [(key_str, doc_id_old, dl_old)])."""
    path, key_arr = args
    import pyarrow.parquet as pq
    tok = Tokenizer(TokenizerConfig())
    t = pq.read_table(path, columns=["repo", "path", "commit",
                                     "content"])
    repos = t["repo"].to_pylist()
    paths = t["path"].to_pylist()
    commits = t["commit"].to_pylist()
    contents = t["content"].to_pylist()
    live = live_mask(repos, paths, commits)
    if len(key_arr) == 0 or len(repos) == 0:
        return Counter(), []
    # ONE batched searchsorted for the whole file — the per-row
    # scalar form cost 20 min at 384k delete keys (each call re-boxes
    # the probe string); the batch probe is ~1000× cheaper
    ks = np.array([f"{r}\x00{p}" for r, p in zip(repos, paths)])
    j = np.clip(np.searchsorted(key_arr, ks), 0, len(key_arr) - 1)
    affected = (key_arr[j] == ks) & np.array(live, dtype=bool)
    df_minus: Counter = Counter()
    rows = []
    for i in np.flatnonzero(affected):
        counts = tok.counts(contents[i] or "")
        df_minus.update(counts.keys())
        rows.append((ks[i].item(),
                     doc_id_of(repos[i], paths[i], commits[i]),
                     sum(counts.values())))
    return df_minus, rows


def run_pass1b(files: list[str], keys: list[tuple[str, str]],
               processes: int | None = None):
    """Old-state info for the delta keys: (df_minus, {key_str:
    (doc_id_old, dl_old)})."""
    from multiprocessing import Pool
    key_arr = np.array(sorted(f"{r}\x00{p}" for r, p in keys))
    df_minus: Counter = Counter()
    old: dict = {}
    with Pool(processes=processes or os.cpu_count()) as pool:
        for pdf, rows in pool.imap_unordered(
                pass1b_file, [(f, key_arr) for f in sorted(files)]):
            df_minus.update(pdf)
            for k, d, dl in rows:
                old[k] = (d, dl)
    return df_minus, old


# ------------------------------------------------------------ pass 2 --

def pass2_file(args):
    """(file, sorted term array, sorted pos-term array) → per-file
    scoped postings: ({term: (ids, tfs, dls)},
    {term: (ids, offsets, flat_positions)})."""
    path, term_arr, pos_arr = args
    import pyarrow.parquet as pq
    tok = Tokenizer(TokenizerConfig())
    t = pq.read_table(path, columns=["repo", "path", "commit",
                                     "content"])
    repos = t["repo"].to_pylist()
    paths = t["path"].to_pylist()
    commits = t["commit"].to_pylist()
    contents = t["content"].to_pylist()
    live = live_mask(repos, paths, commits)
    tset = set(term_arr.tolist())
    pset = set(pos_arr.tolist())
    post: dict = {tm: ([], [], []) for tm in tset}
    pos: dict = {tm: ([], [], []) for tm in pset}
    for r, p, c, content, ok in zip(repos, paths, commits, contents,
                                    live):
        if not ok:
            continue
        if pset:
            counts, poss = tok.counts_and_positions(content or "")
        else:
            counts = tok.counts(content or "")
            poss = None
        hit = tset.intersection(counts)
        if not hit:
            continue
        d = doc_id_of(r, p, c)
        dl = sum(counts.values())
        for tm in hit:
            ids, tfs, dls = post[tm]
            ids.append(d)
            tfs.append(counts[tm])
            dls.append(dl)
            if poss is not None and tm in pset:
                pi, po, pf = pos[tm]
                plist = poss[tm]
                pi.append(d)
                po.append(len(plist))
                pf.extend(plist)
    out_post = {tm: (np.array(ids, np.int64), np.array(tfs, np.int64),
                     np.array(dls, np.int64))
                for tm, (ids, tfs, dls) in post.items() if ids}
    out_pos = {tm: (np.array(pi, np.int64),
                    np.array(po, np.int64),
                    np.array(pf, np.int64))
               for tm, (pi, po, pf) in pos.items() if pi}
    return out_post, out_pos


def run_pass2(files: list[str], terms, pos_terms=(),
              processes: int | None = None):
    """Scoped postings over the live corpus: ({term: (ids, tfs,
    dls)}, {term: _PosMap})."""
    from multiprocessing import Pool
    term_arr = np.array(sorted(set(terms) | set(pos_terms)))
    pos_arr = np.array(sorted(set(pos_terms)))
    acc_post: dict = {}
    acc_pos: dict = {}
    with Pool(processes=processes or os.cpu_count()) as pool:
        for ppost, ppos in pool.imap_unordered(
                pass2_file,
                [(f, term_arr, pos_arr) for f in sorted(files)]):
            for tm, tri in ppost.items():
                acc_post.setdefault(tm, []).append(tri)
            for tm, tri in ppos.items():
                acc_pos.setdefault(tm, []).append(tri)
    post = {}
    for tm, parts in acc_post.items():
        ids = np.concatenate([p[0] for p in parts])
        tfs = np.concatenate([p[1] for p in parts])
        dls = np.concatenate([p[2] for p in parts])
        post[tm] = (ids, tfs, dls)
    posmaps = {}
    for tm, parts in acc_pos.items():
        ids = np.concatenate([p[0] for p in parts])
        lens = np.concatenate([p[1] for p in parts])
        flat = np.concatenate([p[2] for p in parts])
        # re-pack in doc order — membership probes use searchsorted
        order = np.argsort(ids, kind="stable")
        offs = np.r_[0, np.cumsum(lens)]
        flat = np.concatenate([flat[offs[j]:offs[j + 1]]
                               for j in order]) if len(order) else flat
        posmaps[tm] = _PosMap(ids[order],
                              np.r_[0, np.cumsum(lens[order])], flat)
    return post, posmaps


class _PosMap:
    """dict-like doc_id → np position array view (compact storage for
    the positions of ONE term; duck-types the ``positions[t]`` inner
    dict that OracleIndex's phrase/span methods read)."""

    def __init__(self, ids: np.ndarray, offsets: np.ndarray,
                 flat: np.ndarray):
        self.ids = ids
        self.offsets = offsets
        self.flat = flat

    def get(self, doc, default=()):
        j = np.searchsorted(self.ids, doc)
        if j < len(self.ids) and self.ids[j] == doc:
            return self.flat[self.offsets[j]:self.offsets[j + 1]]
        return default

    def __getitem__(self, doc):
        v = self.get(doc, None)
        if v is None:
            raise KeyError(doc)
        return v

    def items(self):
        for j, d in enumerate(self.ids.tolist()):
            yield d, self.flat[self.offsets[j]:self.offsets[j + 1]]


class ScopedOracleIndex(OracleIndex):
    """OracleIndex whose state covers only the scoped terms — every
    search method is INHERITED verbatim (same accumulation order,
    same float arithmetic, same tie-breaks), so results are
    bit-identical to a full OracleIndex for any query whose terms are
    all scoped (asserted in tests/test_oracle_stream.py)."""

    def __init__(self, post: dict, n_docs: int, total_dl: int,
                 positions: dict | None = None):
        # deliberately NOT calling super().__init__ — state comes
        # from the streaming passes
        from mee_ray.config import BM25Params
        self.bm25 = BM25Params()
        self.tok = Tokenizer(TokenizerConfig())
        self.postings = {}
        self.dl = {}
        for tm, (ids, tfs, dls) in post.items():
            self.postings[tm] = dict(zip(ids.tolist(), tfs.tolist()))
            self.dl.update(zip(ids.tolist(), dls.tolist()))
        self.positions = positions
        self.n_docs = n_docs
        self.avgdl = (total_dl / n_docs) if n_docs else 0.0


def apply_overlay(post: dict, old_ids: np.ndarray,
                  new_docs: list[tuple[int, str]], terms) -> dict:
    """Post-delta scoped postings: drop rows of replaced/deleted old
    doc_ids, add the new docs' (term, tf, dl) rows for scoped terms."""
    tok = Tokenizer(TokenizerConfig())
    old_sorted = np.sort(old_ids)
    out = {}
    for tm, (ids, tfs, dls) in post.items():
        keep = ~_isin_sorted(ids, old_sorted)
        out[tm] = [ids[keep], tfs[keep], dls[keep]]
    for d, content in new_docs:
        counts = tok.counts(content or "")
        dl = sum(counts.values())
        for tm in set(terms) & set(counts):
            ids, tfs, dls = out.setdefault(
                tm, [np.zeros(0, np.int64)] * 3)
            out[tm] = [np.r_[ids, d], np.r_[tfs, counts[tm]],
                       np.r_[dls, dl]]
    return {tm: tuple(v) for tm, v in out.items()}


def _isin_sorted(vals: np.ndarray, sorted_arr: np.ndarray) -> np.ndarray:
    if len(sorted_arr) == 0 or len(vals) == 0:
        return np.zeros(len(vals), dtype=bool)
    j = np.searchsorted(sorted_arr, vals)
    j = np.clip(j, 0, len(sorted_arr) - 1)
    return sorted_arr[j] == vals
