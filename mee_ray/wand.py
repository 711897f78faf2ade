"""Vectorized block-max top-k over doc-id intervals (north_star query
path).

Kernel: every query term's stored block boundaries (``block_last``)
cut the doc-id axis into intervals; inside one interval each term's
postings come from exactly one of its blocks, so the interval's score
bound is the sum over terms of that covering block's
``w · block_max · scale``.  Intervals are scored in descending-bound
batches of geometrically growing size: each covering chunk's exact
contributions ``w · tf_norm`` (computed once per chunk and kept in the
caller's byte-bounded cache) are sliced to the batch's intervals,
accumulated per doc with one ``np.bincount`` and merged into the
running top-k, whose k-th score is the threshold θ.  Scoring stops at
the first interval whose bound is below θ — ties with θ are still
scored, since a tied doc can win on doc_id.  A single-term query is
the one-term case of the same loop.

Exact algorithm: the pruning only skips intervals whose score upper
bound cannot reach the current k-th best, so results are identical —
doc_ids AND float64 scores — to the exhaustive path
(query.merge_partials) and therefore to the pure-Python oracle.

Determinism contract (shared with oracle / merge_partials): a doc's
score is the sum of its per-term contributions in sorted-term order,
each contribution computed with the same float64 operation order as
postings.tf_norm.  A doc's postings all fall in one interval, hence in
one batch, and the batch concatenates them in sorted-term order before
``np.bincount`` — the same per-doc addition sequence as
``np.add.at`` over merge_partials' concatenation.

Bound soundness under drift:
* stored block maxes were computed at the BASE epoch's avgdl.  For a
  live avgdl A_live > A_base every tfn grows by at most A_live/A_base
  (tfn = tf(k1+1)/(tf + k1·norm) with norm shrinking by at most that
  ratio), so stored bounds are scaled by max(1, A_live/A_base) — and a
  hair more for float-rounding headroom.  Shrinking avgdl only lowers
  live impacts, so stored bounds stay valid unscaled.
* delta segments' doc ranges overlap base salted ranges, so any term
  with delta chunks is eagerly merged into one doc-sorted stream with
  block metadata recomputed at live avgdl (scale 1).
* deletions (tombstones) can only lower scores but make the live df —
  and hence the exact idf — unknowable without decoding, so the caller
  (query.Searcher) uses the exhaustive path while tombstones are
  pending and returns to the kernel after compaction.
* float64 addition is monotone, and every term bound and contribution
  is non-negative, so an interval bound summed in sorted-term order is
  never below the accumulated score of any doc inside it.

Chunk layout guarantee making interval bounds sound: a term's base
chunks are (term, salt) runs; salts are CONTIGUOUS doc_id ranges
(ids.salt_of = top bits), so base chunks are disjoint and ordered — a
chunk's first block starts after the previous chunk's last, and a
chunk no batch reaches is never decoded.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict

import numpy as np

from mee_ray.ids import isin_sorted
from mee_ray.postings import block_metadata, tf_norm
from mee_ray.scoring import top_k_select

__all__ = ["CACHE", "DecodedCache", "WandStats", "search_wand"]


class WandStats:
    """Pruning effectiveness counters (asserted by tests, reported by
    bench): chunks decoded vs chunks of the query's terms, intervals
    skipped on their bound, docs fully scored vs total candidate
    postings."""

    def __init__(self):
        self.chunks_total = 0
        self.chunks_decoded = 0
        self.shallow_advances = 0
        self.docs_scored = 0
        self.postings_total = 0

    def as_dict(self) -> dict:
        return dict(chunks_total=self.chunks_total,
                    chunks_decoded=self.chunks_decoded,
                    shallow_advances=self.shallow_advances,
                    docs_scored=self.docs_scored,
                    postings_total=self.postings_total)


_FLOAT_HEADROOM = 1.0 + 1e-9

# byte budget of the decoded-postings cache, one per process (so one
# per shard actor) and shared by every reader over any snapshot:
# segment dictionaries, decoded postings, positions, chunk metadata,
# kernel arrays and merged delta streams all charge their array bytes
# against it
_MERGE_CACHE_BYTES = 64 * 1024 * 1024


class DecodedCache:
    """LRU charged in array bytes and bounded by ``budget``.  An entry
    larger than the whole budget is served to its caller but never
    kept, so resident bytes never exceed the budget.  Reader threads
    may share an instance: ``put`` (the only writer of ``nbytes``)
    holds a lock, and ``get`` makes two single C-level OrderedDict
    calls, each atomic under the interpreter lock for these keys
    (tuples of str/int/float), tolerating an eviction between them.
    Keys must name immutable state (a segment file's identity, never a
    path alone), since entries outlive the reader that made them."""

    def __init__(self, budget: int = _MERGE_CACHE_BYTES):
        self.budget = budget
        self.nbytes = 0
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __contains__(self, key) -> bool:
        return key in self._entries

    def get(self, key):
        got = self._entries.get(key)
        if got is None:
            return None
        try:
            self._entries.move_to_end(key)
        except KeyError:            # evicted by another thread meanwhile
            pass
        return got[0]

    def put(self, key, value, nbytes: int):
        """Keep ``value`` charged ``nbytes`` (evicting least recently
        used entries to fit) and return it."""
        if nbytes > self.budget:
            return value
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.nbytes -= old[1]
            self._entries[key] = (value, nbytes)
            self.nbytes += nbytes
            while self.nbytes > self.budget:
                self.nbytes -= self._entries.popitem(last=False)[1][1]
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = 0


# the process's one decoded-state cache (query.Searcher uses it)
CACHE = DecodedCache()


def _chunks_need_merge(chunks: list[dict]) -> bool:
    """Interval bounds require DISJOINT, ordered per-chunk doc ranges.
    Salted base chunks qualify (salt = top doc_id bits ⇒ one chunk per
    salt, contiguous disjoint ranges), and so does a lone unsalted
    chunk.  Layouts that break the invariant and force an eager merge:

    - any delta chunk (delta doc ids interleave base salted ranges)
    - duplicate salts (defensive; cannot arise from the build)"""
    if any(c.get("delta") for c in chunks):
        return True
    salts = [c.get("salt", 0) for c in chunks]
    return len(set(salts)) != len(salts)


def _merge_delta_chunks(chunks: list[dict], k1: float, b: float,
                        avgdl: float, block_size: int) -> list[dict]:
    """Eagerly merge a term's chunks into ONE doc-sorted stream with
    block metadata recomputed at live avgdl (needed when delta chunks
    overlap base salted ranges)."""
    parts = [c["decode"]() for c in chunks]
    ids = np.concatenate([p[0] for p in parts])
    tfs = np.concatenate([p[1] for p in parts])
    dls = np.concatenate([p[2] for p in parts])
    order = np.argsort(ids, kind="stable")
    ids, tfs, dls = ids[order], tfs[order], dls[order]
    impacts = tf_norm(tfs, dls, avgdl, k1, b)
    bl, bm = block_metadata(ids, impacts, block_size)
    return [{
        "block_last": bl, "block_max": bm, "scale": 1.0,
        "decode": (lambda ids=ids, tfs=tfs, dls=dls: (ids, tfs, dls)),
    }]


def _slice_ranges(ids, sc, lo: np.ndarray, hi: np.ndarray):
    """``(ids, sc)`` restricted to the ascending, disjoint (possibly
    empty) half-open position ranges ``[lo[i], hi[i])``."""
    n = hi - lo
    starts = np.cumsum(n) - n
    idx = np.arange(int(starts[-1] + n[-1])) + np.repeat(lo - starts, n)
    return ids[idx], sc[idx]


class _Term:
    """One query term's blocks laid end to end: boundaries, weighted
    scaled bounds and owning chunk per block, plus a trailing 0 bound /
    -1 chunk for intervals past the term's last block.  All arrays are
    the kernel's own — the caller's chunk dicts are shared and never
    written."""

    __slots__ = ("w", "chunks", "df", "last", "ub", "chunk_of", "nbytes",
                 "ckeys")

    def __init__(self, key: tuple, w: float, chunks: list[dict], df: int,
                 scale: float, avgdl: float):
        self.w = w
        self.df = df
        self.chunks = chunks = sorted(
            chunks, key=lambda c: int(c["block_last"][0]))
        ubs = []
        for c in chunks:
            # per-chunk bound scaling: a segment copied verbatim across
            # a compaction keeps the avgdl its block maxes were
            # computed at (hint_avgdl); chunks without a hint fall back
            # to the caller's global base
            s = c.get("scale")
            if s is None:
                h = c.get("hint_avgdl") or 0.0
                s = max(1.0, avgdl / h) * _FLOAT_HEADROOM if h > 0 else scale
            ubs.append(w * c["block_max"] * s)
        ubs.append(np.zeros(1))
        self.ub = np.concatenate(ubs)
        self.last = np.concatenate([c["block_last"] for c in chunks])
        self.chunk_of = np.repeat(
            np.arange(len(chunks) + 1),
            [len(c["block_last"]) for c in chunks] + [1])
        self.chunk_of[-1] = -1
        self.nbytes = (self.ub.nbytes + self.last.nbytes
                       + self.chunk_of.nbytes)
        # cache keys of the chunks' contributions, built once per plan
        # (none for a plan kept uncached)
        self.ckeys = None if key is None else [
            key + (ci,) for ci in range(len(chunks))]

    def scores(self, ci: int, avgdl: float, k1: float, b: float,
               cache: DecodedCache | None):
        """(doc_ids, exact contributions ``w · tf_norm``) of chunk
        ``ci`` — computed once per plan while cached."""
        if self.ckeys is None:
            cache = None
        key = self.ckeys[ci] if cache is not None else None
        got = cache.get(key) if cache is not None else None
        if got is None:
            ids, tfs, dls = self.chunks[ci]["decode"]()
            if ids.base is not None:
                # a slice of a cached decode: own the ids, so keeping
                # them does not pin the whole decode uncharged
                ids = ids.copy()
            got = (ids, self.w * tf_norm(tfs, dls, avgdl, k1, b))
            if cache is not None:
                cache.put(key, got, ids.nbytes + got[1].nbytes)
        return got


def _plan_term(term: str, w: float, chunks: list[dict], scale: float,
               avgdl: float, k1: float, b: float, block_size: int,
               cache: DecodedCache | None) -> _Term:
    """The term's kernel arrays, kept in ``cache`` under
    ``("plan", term, w, avgdl, k1, b, scale, chunk ids)`` — the chunk ids
    (each chunk's ``"id"``: segment identity and row) pin the plan to
    one chunk list, so two snapshots never share a plan, and repeated
    queries skip the rebuild (and, for a delta-bearing term, the eager
    merge).  Chunks without an ``"id"`` are planned uncached."""
    ids = tuple([c.get("id") for c in chunks])
    if None in ids:
        cache = None
    key = ("plan", term, w, avgdl, k1, b, scale, ids)
    got = cache.get(key) if cache is not None else None
    if got is not None:
        return got
    df = sum(c.get("df", 0) for c in chunks)
    nbytes = 0
    if _chunks_need_merge(chunks):
        chunks = _merge_delta_chunks(chunks, k1, b, avgdl, block_size)
        nbytes = sum(a.nbytes for a in chunks[0]["decode"]())
    t = _Term(key if cache is not None else None, w, chunks, df, scale,
              avgdl)
    if cache is not None:
        cache.put(key, t, nbytes + t.nbytes)
    return t


def search_wand(term_chunks: dict[str, tuple[float, list[dict]]],
                k: int, n_docs: int, avgdl: float, avgdl_base: float,
                k1: float, b: float, block_size: int = 128,
                stats: WandStats | None = None,
                merge_cache: DecodedCache | None = None,
                allowed: np.ndarray | None = None
                ) -> list[tuple[int, float]]:
    """Block-max top-k over prepared per-term (idf weight, chunk list).

    term_chunks must be keyed by the query's unique terms; scoring
    accumulates in sorted-term order (the determinism contract).
    ``merge_cache`` keeps each term's kernel arrays, per-chunk
    contributions and merged delta stream across queries, keyed by the
    term's chunk ids (see :func:`_plan_term`), so it may be shared by
    readers of any snapshot.

    ``allowed`` (sorted int64 doc_ids) is the filter-context pushdown:
    documents outside the set are never SCORED (scored postings are
    masked), while every interval bound still ranges over the
    unfiltered posting lists — bounds over a superset stay sound upper
    bounds, and the threshold coming only from allowed docs makes
    pruning exactly as aggressive as the filtered result justifies.
    Output is identical to post-filtering the exhaustive ranking."""
    if k <= 0 or (allowed is not None and allowed.size == 0):
        return []
    stats = stats if stats is not None else WandStats()
    scale = max(1.0, avgdl / avgdl_base) * _FLOAT_HEADROOM \
        if avgdl_base > 0 else 1.0
    terms = [_plan_term(term, w, chunks, scale, avgdl, k1, b, block_size,
                        merge_cache)
             for term, (w, chunks) in sorted(term_chunks.items())
             if chunks]
    if not terms:
        return []
    for t in terms:
        stats.postings_total += t.df
        stats.chunks_total += len(t.chunks)

    # intervals (edges[i-1], edges[i]]; per term the covering block of
    # each interval (past-the-end = none) and the bound summed in
    # sorted-term order
    if len(terms) == 1:
        edges = terms[0].last
        cover = [None]
        bound = terms[0].ub[:-1]
    else:
        edges = np.unique(np.concatenate([t.last for t in terms]))
        cover = [np.searchsorted(t.last, edges) for t in terms]
        bound = terms[0].ub[cover[0]]
        for t, j in zip(terms[1:], cover[1:]):
            bound = bound + t.ub[j]
    lows = np.empty_like(edges)
    lows[0] = np.iinfo(np.int64).min
    lows[1:] = edges[:-1]
    order = np.argsort(-bound, kind="stable")
    neg_sorted = -bound[order]

    decoded: dict[tuple[int, int], tuple] = {}
    top_ids = np.empty(0, np.int64)
    top_sc = np.empty(0, np.float64)
    theta = -math.inf
    # the first batch holds about one block per term (a block spans
    # about as many intervals as there are terms); sizes then double
    pos, size, n_iv = 0, len(terms), len(edges)
    while pos < n_iv:
        end = min(pos + size, n_iv)
        if len(top_ids) == k:
            # first interval whose bound is below θ; ties are scored
            end = min(end, int(neg_sorted.searchsorted(-theta,
                                                       side="right")))
            if end <= pos:
                break
        batch = order[pos:end].copy()
        batch.sort()
        pos, size = end, size * 2
        ids_l, sc_l = [], []
        for ti, t in enumerate(terms):
            cj = t.chunk_of[batch if cover[ti] is None
                            else cover[ti][batch]]
            for ci in (np.unique(cj).tolist() if len(t.chunks) > 1
                       else (0,)):
                if ci < 0:
                    continue
                iv = batch[cj == ci]
                if not len(iv):
                    continue
                got = decoded.get((ti, ci))
                if got is None:
                    got = decoded[(ti, ci)] = t.scores(ci, avgdl, k1, b,
                                                       merge_cache)
                    stats.chunks_decoded += 1
                ids, sc = got
                if iv[-1] - iv[0] + 1 == len(iv):
                    # adjacent intervals: one contiguous posting range
                    a = ids.searchsorted(lows[iv[0]], side="right")
                    z = ids.searchsorted(edges[iv[-1]], side="right")
                    ids, sc = ids[a:z], sc[a:z]
                else:
                    ids, sc = _slice_ranges(
                        ids, sc, ids.searchsorted(lows[iv], side="right"),
                        ids.searchsorted(edges[iv], side="right"))
                if allowed is not None:
                    m = isin_sorted(ids, allowed)
                    ids, sc = ids[m], sc[m]
                ids_l.append(ids)
                sc_l.append(sc)
        # every interval ends on some term's block boundary, so at
        # least one (term, chunk) covers the batch
        if len(ids_l) == 1:
            # one term's postings in one chunk: doc_ids already unique
            uniq, acc = ids_l[0], sc_l[0]
        else:
            uniq, inv = np.unique(np.concatenate(ids_l),
                                  return_inverse=True)
            acc = np.bincount(inv, weights=np.concatenate(sc_l),
                              minlength=len(uniq))
        stats.docs_scored += len(uniq)
        if len(top_ids) == k:
            m = acc >= theta
            uniq, acc = uniq[m], acc[m]
        top_ids, top_sc = top_k_select(np.concatenate((top_ids, uniq)),
                                       np.concatenate((top_sc, acc)), k)
        if len(top_ids) == k:
            theta = float(top_sc[-1])
    stats.shallow_advances += n_iv - pos
    return list(zip(top_ids.tolist(), top_sc.tolist()))
