"""Document-at-a-time block-max WAND top-k (north_star query path).

Exact algorithm: the pruning only skips documents whose score upper
bound cannot reach the current k-th best, so results are identical —
doc_ids AND float64 scores — to the exhaustive path
(query.merge_partials) and therefore to the pure-Python oracle.

Determinism contract (shared with oracle / merge_partials): a doc's
score is the sum of its per-term contributions in sorted-term order,
each contribution computed with the same float64 operation order as
postings.tf_norm — so the summation sequence is bit-identical.

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
  pending and returns to WAND after compaction.

Chunk layout guarantee making lazy decode sound: a term's base chunks
are (term, salt) runs; salts are CONTIGUOUS doc_id ranges
(ids.salt_of = top bits), so base chunks are disjoint and ordered —
`advance_to` skips whole chunks on their stored last-block boundary
without ever decoding them.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from mee_ray.ids import isin_sorted
from mee_ray.postings import block_metadata, tf_norm

__all__ = ["WandStats", "search_wand"]


class WandStats:
    """Pruning effectiveness counters (asserted by tests, reported by
    bench): chunks skipped without decode, block-level shallow
    advances, docs fully scored vs total candidate postings."""

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


class _Cursor:
    """One query term's posting stream: ordered chunks, decoded lazily,
    positioned on a current doc."""

    __slots__ = ("term", "w", "chunks", "ci", "ids", "tfs", "dls",
                 "pos", "ub", "exhausted", "k1", "b", "avgdl", "bs",
                 "stats")

    def __init__(self, term: str, w: float, chunks: list[dict],
                 scale: float, k1: float, b: float, avgdl: float,
                 block_size: int, stats: WandStats):
        # chunks: [{"block_last","block_max","scale","decode"}...]
        # ordered by first block boundary (disjoint doc ranges)
        self.term = term
        self.w = w
        self.k1, self.b, self.avgdl = k1, b, avgdl
        self.bs = block_size
        self.stats = stats
        for c in chunks:
            c.setdefault("scale", scale)
        self.chunks = sorted(chunks, key=lambda c: int(c["block_last"][0]))
        stats.chunks_total += len(chunks)
        self.ub = w * max(float(c["block_max"].max()) * c["scale"]
                          for c in chunks)
        # fully lazy: nothing decodes until a consumer needs postings
        # (doc()/score/advance), so a chunk the threshold disqualifies
        # outright is skipped without ever decoding — including the
        # first one
        self.ci = 0
        self.ids = None
        self.pos = 0
        self.exhausted = not chunks

    # -- chunk movement ------------------------------------------------

    def _decode_current(self):
        # pos is NOT reset here: lazy decode may happen mid-chunk after
        # decode-free block skips; chunk transitions (skip_chunk /
        # advance_to) own the pos reset
        c = self.chunks[self.ci]
        self.ids, self.tfs, self.dls = c["decode"]()
        self.stats.chunks_decoded += 1

    def doc(self) -> int:
        if self.ids is None:
            self._decode_current()
        return int(self.ids[self.pos])

    def chunk_bound(self) -> float:
        """Upper bound of ANY doc in the current chunk (metadata only —
        no decode)."""
        c = self.chunks[self.ci]
        return self.w * float(c["block_max"].max()) * c["scale"]

    def skip_chunk(self):
        """Move to the next chunk WITHOUT decoding it — both the
        explicit single-term chunk skip and the ordinary end-of-chunk
        transition (decode stays deferred so a threshold/boundary test
        can skip the new chunk before it ever decodes)."""
        self.ci += 1
        self.pos = 0
        self.ids = None
        if self.ci >= len(self.chunks):
            self.exhausted = True

    def block(self) -> int:
        c = self.chunks[self.ci]
        return min(self.pos // self.bs, len(c["block_last"]) - 1)

    def block_bound(self) -> float:
        c = self.chunks[self.ci]
        return self.w * float(c["block_max"][self.block()]) * c["scale"]

    def block_last_doc(self) -> int:
        c = self.chunks[self.ci]
        return int(c["block_last"][self.block()])

    def advance_to(self, target: int):
        """Move to the first posting with doc_id >= target; skips whole
        chunks on their stored last boundary without decoding them."""
        while not self.exhausted:
            c = self.chunks[self.ci]
            if int(c["block_last"][-1]) < target:
                self.ci += 1
                if self.ci >= len(self.chunks):
                    self.exhausted = True
                    self.ids = None
                    return
                self.ids = None  # decode deferred: next chunk may skip too
                self.pos = 0
                continue
            if self.ids is None:
                self._decode_current()
            p = int(np.searchsorted(self.ids[self.pos:], target)) + self.pos
            if p >= len(self.ids):
                self.skip_chunk()
                continue
            self.pos = p
            return

    def next_doc(self):
        self.pos += 1
        if self.pos >= len(self.ids):
            self.skip_chunk()

    def contrib(self) -> float:
        """Exact live contribution at the current posting — same float64
        operation order as postings.tf_norm."""
        tf = float(self.tfs[self.pos])
        dl = float(self.dls[self.pos])
        k1, b = self.k1, self.b
        return self.w * (tf * (k1 + 1.0)
                         / (tf + k1 * (1.0 - b + b * dl / self.avgdl)))

    # -- single-term vectorized block scoring --------------------------

    def score_block_vectorized(self) -> tuple[np.ndarray, np.ndarray]:
        """(doc_ids, scores) of the current block from the current
        position, advancing past it.  Used on single-term queries where
        per-doc DAAT stepping would waste the vectorized kernels."""
        if self.ids is None:
            self._decode_current()
        lo = self.pos
        hi = min((self.block() + 1) * self.bs, len(self.ids))
        ids = self.ids[lo:hi]
        sc = self.w * tf_norm(self.tfs[lo:hi], self.dls[lo:hi],
                              self.avgdl, self.k1, self.b)
        self.pos = hi
        if self.pos >= len(self.ids):
            # lazy transition: the next chunk may be skipped outright
            # by the caller's chunk-bound test before ever decoding
            self.skip_chunk()
        return ids, sc

    def skip_block(self):
        """Jump past the current block — decode-free: block membership
        comes from the stored block count, so skipping the last block
        of an undecoded chunk moves to the next chunk lazily."""
        self.stats.shallow_advances += 1
        nb = len(self.chunks[self.ci]["block_last"])
        if self.block() >= nb - 1 or (
                self.ids is not None
                and (self.block() + 1) * self.bs >= len(self.ids)):
            self.skip_chunk()
        else:
            self.pos = (self.block() + 1) * self.bs


_FLOAT_HEADROOM = 1.0 + 1e-9

# byte budget for the merged-delta-chunk cache (per Searcher / per
# ShardActor); also entry-count capped so eviction stays O(entries)
_MERGE_CACHE_BYTES = 64 * 1024 * 1024


def _chunks_need_merge(chunks: list[dict]) -> bool:
    """Lazy per-chunk cursors require DISJOINT, ordered doc ranges.
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


def search_wand(term_chunks: dict[str, tuple[float, list[dict]]],
                k: int, n_docs: int, avgdl: float, avgdl_base: float,
                k1: float, b: float, block_size: int = 128,
                stats: WandStats | None = None,
                merge_cache: dict | None = None,
                allowed: np.ndarray | None = None
                ) -> list[tuple[int, float]]:
    """Block-max WAND over prepared per-term (idf weight, chunk list).

    term_chunks must be keyed by the query's unique terms; iteration
    for scoring is in sorted-term order (the determinism contract).

    ``allowed`` (sorted int64 doc_ids) is the filter-context pushdown:
    documents outside the set are never SCORED (their cursors advance
    past them), while every pruning bound still ranges over the
    unfiltered posting lists — bounds over a superset stay sound upper
    bounds, and the threshold coming only from allowed docs makes
    pruning exactly as aggressive as the filtered result justifies.
    Output is identical to post-filtering the exhaustive ranking."""
    if k <= 0:
        # theta() would index an empty heap; the exhaustive path
        # returns [] for the same input — match it
        return []
    if allowed is not None and allowed.size == 0:
        return []

    def in_allowed(doc: int) -> bool:
        p = int(np.searchsorted(allowed, doc))
        return p < allowed.size and int(allowed[p]) == doc
    stats = stats if stats is not None else WandStats()
    scale = max(1.0, avgdl / avgdl_base) * _FLOAT_HEADROOM \
        if avgdl_base > 0 else 1.0

    cursors: list[_Cursor] = []
    for term in sorted(term_chunks):
        w, chunks = term_chunks[term]
        if not chunks:
            continue
        stats.postings_total += sum(c.get("df", 0) for c in chunks)
        if _chunks_need_merge(chunks):
            # the merged stream is deterministic per (term, delta set,
            # avgdl) — all fixed for a Searcher snapshot — so repeated
            # queries on a delta-bearing hot term skip the re-decode +
            # argsort + metadata rebuild (bounded LRU-ish cache)
            if merge_cache is not None and term in merge_cache:
                chunks = merge_cache[term][0]
                merge_cache[term] = merge_cache.pop(term)  # LRU touch
            else:
                chunks = _merge_delta_chunks(chunks, k1, b, avgdl,
                                             block_size)
                if merge_cache is not None:
                    # byte-budgeted LRU: an entry pins the term's whole
                    # merged posting stream in memory (~24 B/posting);
                    # a count cap alone would let 64 hot terms pin GBs
                    # per Searcher/ShardActor at large df
                    nb = sum(i.nbytes + t.nbytes + d.nbytes
                             for c in chunks
                             for (i, t, d) in (c["decode"](),))
                    if nb <= _MERGE_CACHE_BYTES:
                        merge_cache[term] = (chunks, nb)
                        total = sum(v[1] for v in merge_cache.values())
                        while (total > _MERGE_CACHE_BYTES
                               or len(merge_cache) > 256):
                            total -= merge_cache.pop(
                                next(iter(merge_cache)))[1]
        for c in chunks:
            # per-chunk bound scaling: a segment copied verbatim across
            # a compaction keeps the avgdl its block maxes were
            # computed at (hint_avgdl); chunks without a hint fall back
            # to the caller's global base
            h = c.get("hint_avgdl") or 0.0
            if h > 0:
                c.setdefault("scale",
                             max(1.0, avgdl / h) * _FLOAT_HEADROOM)
        cursors.append(_Cursor(term, w, chunks, scale, k1, b, avgdl,
                               block_size, stats))

    if not cursors:
        return []

    # heap of (score, -doc_id): worst-ranked on top under the
    # (-score, doc_id) ranking order
    heap: list[tuple[float, int]] = []

    def theta() -> float:
        return heap[0][0] if len(heap) >= k else -math.inf

    def offer(doc: int, score: float):
        item = (score, -doc)
        if len(heap) < k:
            heapq.heappush(heap, item)
        elif item > heap[0]:
            heapq.heapreplace(heap, item)

    if len(cursors) == 1:
        # single-term: vectorized per-block scoring with block-max skip
        c = cursors[0]
        while not c.exhausted:
            if len(heap) >= k:
                if c.ids is None and c.chunk_bound() < theta():
                    # whole (still-undecoded) chunk cannot reach the
                    # threshold: chunk-level skip, no decode at all
                    c.skip_chunk()
                    continue
                if c.block_bound() < theta():
                    c.skip_block()
                    continue
            ids, sc = c.score_block_vectorized()
            if allowed is not None:
                # vectorized membership against the sorted filter set
                m = isin_sorted(ids, allowed)
                ids, sc = ids[m], sc[m]
            stats.docs_scored += len(ids)
            if len(heap) >= k:
                # vectorized pre-filter: only docs that can still enter
                # the heap (score ≥ current k-th; ties can win on
                # doc_id, so ≥ not >) hit the per-doc offer loop
                m = sc >= heap[0][0]
                ids, sc = ids[m], sc[m]
            for d, s in zip(ids.tolist(), sc.tolist()):
                offer(d, s)
    else:
        active = [c for c in cursors if not c.exhausted]
        while active:
            active.sort(key=lambda c: c.doc())
            # pivot: first index where the cumulative term upper bounds
            # can reach the threshold
            acc = 0.0
            pivot_i = -1
            th = theta()
            for i, c in enumerate(active):
                acc += c.ub
                if acc >= th:
                    pivot_i = i
                    break
            if pivot_i < 0:
                break  # no remaining doc can enter the top-k
            pivot_doc = active[pivot_i].doc()
            if active[0].doc() < pivot_doc:
                # advance the highest-bound cursor that actually lags
                # (a tie on pivot_doc may sort before the pivot index —
                # advancing such a cursor would be a no-op and stall)
                lag = max((c for c in active[:pivot_i]
                           if c.doc() < pivot_doc), key=lambda c: c.ub)
                lag.advance_to(pivot_doc)
            else:
                # all cursors up to the pivot sit on pivot_doc: refine
                # with block-level maxima before full evaluation
                bacc = sum(c.block_bound() for c in active[:pivot_i + 1])
                j = pivot_i + 1
                while j < len(active) and active[j].doc() == pivot_doc:
                    bacc += active[j].block_bound()
                    j += 1
                if len(heap) >= k and bacc < th:
                    # shallow advance: every doc in (pivot, nxt) can
                    # only be posted by the cursors whose block bounds
                    # we just summed, so the whole range is skippable —
                    # capped at the next cursor's current doc, whose
                    # own contribution was NOT in the bound
                    nxt = min(c.block_last_doc() for c in active[:j]) + 1
                    if j < len(active):
                        nxt = min(nxt, active[j].doc())
                    nxt = max(nxt, pivot_doc + 1)
                    for c in active[:j]:
                        c.advance_to(nxt)
                        stats.shallow_advances += 1
                elif allowed is not None and not in_allowed(pivot_doc):
                    # filter skip: jump every cursor on the pivot to
                    # the next ALLOWED doc (not just pivot+1) — the
                    # bounds stayed unfiltered, so this prunes nothing
                    # a sound bound wouldn't
                    p = int(np.searchsorted(allowed, pivot_doc + 1))
                    if p >= allowed.size:
                        break  # no candidate beyond max(allowed)
                    nxt = int(allowed[p])
                    for c in active[:j]:
                        c.advance_to(nxt)
                else:
                    # exact evaluation, contributions in sorted-term
                    # order (active[:j] docs all == pivot_doc, but terms
                    # are not sorted here — collect then order)
                    on_doc = sorted((c for c in active[:j]),
                                    key=lambda c: c.term)
                    score = 0.0
                    for c in on_doc:
                        score += c.contrib()
                    stats.docs_scored += 1
                    offer(pivot_doc, score)
                    for c in active[:j]:
                        if not c.exhausted and c.doc() == pivot_doc:
                            c.next_doc()
            active = [c for c in cursors if not c.exhausted]

    ranked = sorted(heap, key=lambda it: (-it[0], -it[1]))
    return [(-nd, s) for s, nd in ranked]
