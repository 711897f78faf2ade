"""Top-k BM25 query path.

The analog of the reference's read side — except the reference
delegates all scoring to Elasticsearch; here the engine owns it.

Determinism contract (shared with mee_ray.oracle.OracleIndex.search):
per-doc accumulation strictly in sorted-unique-term order, float64,
ties broken by ascending doc_id — so results are rank-identical AND
score-bit-identical to the oracle.

One query planner over two postings transports: every query variant
is written once in :class:`QueryPlanner` against batched, term-routed
postings primitives (per-term partial scores, doc-id sets, dfs,
candidate-restricted positions, the vocabulary), and two transports
implement those primitives over the same `_ShardIndex` core:

- :class:`Searcher` — in-process, lazy per-shard loading; its own
  top-k is block-max WAND. Used by tests and as the per-actor worker.
- :class:`DistributedSearcher` — a pool of Ray shard actors, each
  owning a subset of term-shards (the index is sharded BY TERM for
  build-side skew control, per BASELINE.json north_star). A document's
  score can span shards for multi-term queries, so shard actors return
  exact per-term partial score vectors and the driver does the final
  per-doc merge + global top-k heap; queries whose terms all live on
  one actor run whole on that actor (local block-max WAND for top-k)
  and skip the merge.

  Scale note — why exact partials and not distributed WAND: with
  term-partitioned shards, per-shard pruning against a global
  threshold is unsound (a doc weak in one shard may be strong
  globally).  Two exact modes are implemented
  (DistributedSearcher.search(mode=...)):

  - "partials" (default): one round; each actor ships its full
    per-term partial vectors (unique docs × 12 B per term).  Wins
    while posting lists are modest.
  - "threephase": CA-style bound collection → exact local top-m →
    per-candidate partial fetch, looping with doubled m until the
    k-th exact candidate score strictly beats Σ of the actors' m-th
    best bounds.  Two+ rounds, but transfer is O(m + |C|·terms)
    instead of O(df) — the multi-million-doc-posting-list path.

Live stats: N/avgdl come from the manifest delta log
(mee_ray.manifest.live_stats) and df is counted after tombstone
filtering, so post-delta queries stay oracle-identical without a
compaction (SURVEY.md §7.5.5).
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import weakref
from collections import defaultdict

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from mee_ray import manifest as mf
from mee_ray import wand
from mee_ray.ids import isin_sorted, positions_in_sorted, term_hash
from mee_ray.postings import (decode_positions_concat,
                              decode_positions_subset, decode_rows,
                              row_value_counts, tf_norm,
                              varint_value_offsets)
from mee_ray.scoring import idf, top_k_select
from mee_ray.wand import DecodedCache, WandStats


# open segments by identity, alive while any reader holds one (so an
# unreferenced file's handle closes and gc_epochs frees its space)
_SEGMENTS: "weakref.WeakValueDictionary[tuple, _Segment]" = \
    weakref.WeakValueDictionary()
_SEGMENTS_LOCK = threading.Lock()
# bounded row-group table LRU (one per process, charged 1 per table):
# 512-row groups ≈ a few hundred KB each, so 256 entries cap the
# resident payload well under a worker's heap while keeping the
# hot-term working set loaded
RG_CACHE_CAP = 256
_TABLES = DecodedCache(RG_CACHE_CAP)
_SHARD_UIDS = itertools.count()


class _Segment:
    """One immutable segment file, opened once per process while some
    reader holds it: its ParquetFile and cumulative row-group bounds.
    Everything read or decoded from it — row-group tables, decoded
    postings, chunk metadata, positions, its term column — is cached
    under its identity (``key``) and so outlives the readers that
    made it."""

    __slots__ = ("key", "pf", "bounds", "_nbytes", "__weakref__")

    def __init__(self, key: tuple, pf: pq.ParquetFile):
        self.key = key
        self.pf = pf
        self.bounds = np.cumsum([0] + [pf.metadata.row_group(g).num_rows
                                       for g in range(pf.num_row_groups)])
        self._nbytes = np.full(pf.num_row_groups, -1, dtype=np.int64)

    @staticmethod
    def open(path: str) -> "_Segment":
        key = mf.file_identity(path)
        with _SEGMENTS_LOCK:
            seg = _SEGMENTS.get(key)
        if seg is None:
            pf = pq.ParquetFile(path)
            if mf.file_identity(path) != key:
                raise RuntimeError(f"segment {path} changed while opening")
            with _SEGMENTS_LOCK:
                seg = _SEGMENTS.setdefault(key, _Segment(key, pf))
        return seg

    def terms(self) -> list[str]:
        """The term column (one entry per row), read once per process
        while cached."""
        key = ("terms", self.key)
        got = wand.CACHE.get(key)
        if got is None:
            col = self.pf.read(columns=["term"])["term"]
            got = wand.CACHE.put(key, col.to_pylist(),
                                 col.nbytes + 64 * len(col))
        return got

    def part_rows(self, lo: int, hi: int) -> tuple[int, int]:
        """The contiguous row range [a, b) holding parts [lo, hi) of a
        delta record's file (rows sorted by part), from its part column
        read once per process while cached."""
        key = ("parts", self.key)
        parts = wand.CACHE.get(key)
        if parts is None:
            parts = self.pf.read(columns=["part"])["part"].to_numpy()
            parts = wand.CACHE.put(key, parts, parts.nbytes + 64)
        a, b = np.searchsorted(parts, [lo, hi])
        return int(a), int(b)

    def row(self, ri: int) -> tuple[int, int]:
        """(row group, row within it) of row ``ri``."""
        g = int(np.searchsorted(self.bounds, ri, side="right")) - 1
        return g, ri - int(self.bounds[g])

    def table(self, g: int) -> pa.Table:
        key = (self.key, g)
        t = _TABLES.get(key)
        if t is None:
            t = _TABLES.put(key, self.pf.read_row_group(g), 1)
        return t

    def decode(self, g: int, lo: int, hi: int):
        """Rows [lo, hi) of row group ``g`` through the one group
        kernel: flat (doc_ids, tfs, dls) plus row offsets."""
        return decode_rows(self.table(g), lo, hi)

    def postings(self, ri: int, keep: bool = True
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(doc_ids, tfs, dls) of row ``ri``: slices of its row group's
        decode, made once per process while cached.  A group whose
        decode would take over 1/64 of the cache budget (counted
        exactly from its dl varint end bytes, before decoding) decodes
        only the requested row, so one hot group cannot flush the
        cache.  ``keep=False`` reads a cached decode but caches
        nothing: it decodes just the row."""
        g, r = self.row(ri)
        key = ("post", self.key, g)
        got = wand.CACHE.get(key)
        if got is None and keep \
                and self.group_nbytes(g) <= wand.CACHE.budget // 64:
            got = wand.CACHE.put(key, self.decode(g, 0, self.n_rows(g)),
                                 self.group_nbytes(g))
        if got is None:
            key = ("row", self.key, ri)
            one = wand.CACHE.get(key)
            if one is None:
                one = self.decode(g, r, r + 1)[:3]
                if keep:
                    wand.CACHE.put(key, one, sum(a.nbytes for a in one))
            return one
        ids, tfs, dls, offs = got
        a, z = offs[r], offs[r + 1]
        return ids[a:z], tfs[a:z], dls[a:z]

    def n_rows(self, g: int) -> int:
        return int(self.bounds[g + 1] - self.bounds[g])

    def group_nbytes(self, g: int) -> int:
        """Bytes of row group ``g``'s decode (three int64 arrays plus row
        offsets), counted once from its dl varint end bytes."""
        n = int(self._nbytes[g])
        if n < 0:
            n = 8 * (3 * int(row_value_counts(
                self.table(g)["dls_enc"]).sum()) + self.n_rows(g) + 1)
            self._nbytes[g] = n
        return n

    def pos_buffer(self, ri: int) -> bytes:
        g, r = self.row(ri)
        t = self.table(g)
        if "pos_enc" not in t.schema.names:
            raise ValueError("index was built without store_positions")
        return t["pos_enc"][r].as_py()

    def positions(self, ri: int) -> tuple[np.ndarray, np.ndarray]:
        """(flat absolute positions, per-doc offsets) of row ``ri``,
        decoded once per process while cached."""
        key = ("pos", self.key, ri)
        got = wand.CACHE.get(key)
        if got is None:
            flat, offs = decode_positions_concat(self.pos_buffer(ri),
                                                 self.postings(ri)[1])
            got = wand.CACHE.put(key, (flat, offs),
                                 flat.nbytes + offs.nbytes)
        return got

    def chunk_meta(self, ri: int) -> tuple:
        """Row ``ri``'s stored chunk metadata (block_last, block_max,
        df, salt), read once per process while cached."""
        key = ("meta", self.key, ri)
        got = wand.CACHE.get(key)
        if got is None:
            g, r = self.row(ri)
            t = self.table(g)
            # ListScalar.values → numpy without a Python-list hop
            got = (t["block_last"][r].values.to_numpy(
                       zero_copy_only=False).astype(np.int64),
                   t["block_max"][r].values.to_numpy(
                       zero_copy_only=False).astype(np.float64),
                   int(t["df"][r].as_py()), int(t["salt"][r].as_py()))
            got = wand.CACHE.put(key, got,
                                 got[0].nbytes + got[1].nbytes + 64)
        return got


def _chunk_postings(key: tuple, ri: int):
    """A chunk dict's decode hook.  It names the segment by identity,
    not by reference, so cached chunk lists and plans keep no segment
    (and no file handle) alive — only the readers using them do.  It
    keeps nothing it decodes: the kernel caches the chunk's
    contributions, doc ids included, and keeping the decoded postings
    as well would hold each posting twice."""
    return _SEGMENTS[key].postings(ri, keep=False)


def _base_dict(segs: list[_Segment]):
    """term → rows over a shard's base segments, built once per process
    while cached: a ``term → slot`` dict plus flat (segment index, row)
    arrays grouped by slot — few GC-tracked objects however large the
    vocabulary.  Rows keep file order, then row order."""
    key = ("dict",) + tuple(sg.key for sg in segs)
    got = wand.CACHE.get(key)
    if got is not None:
        return got
    slots: dict[str, int] = {}
    slot_l, ti_l, ri_l = [], [], []
    for ti, sg in enumerate(segs):
        terms = sg.pf.read(columns=["term"])["term"].to_pylist()
        slot_l.append(np.fromiter(
            (slots.setdefault(t, len(slots)) for t in terms),
            dtype=np.int64, count=len(terms)))
        ti_l.append(np.full(len(terms), ti, dtype=np.int64))
        ri_l.append(np.arange(len(terms), dtype=np.int64))
    slot = np.concatenate(slot_l) if slot_l else np.empty(0, np.int64)
    order = np.argsort(slot, kind="stable")
    start = np.zeros(len(slots) + 1, dtype=np.int64)
    np.cumsum(np.bincount(slot, minlength=len(slots)), out=start[1:])
    tis = np.concatenate(ti_l)[order] if ti_l else slot
    ris = np.concatenate(ri_l)[order] if ri_l else slot
    return wand.CACHE.put(key, (slots, start, tis, ris),
                          start.nbytes + tis.nbytes + ris.nbytes
                          + 100 * len(slots))


class _ShardIndex:
    """One snapshot's view of one term-shard: its base segments (whose
    dictionary is shared by every snapshot over the same files) plus
    its rows of the delta records' files (parts ``parts[0]`` up to
    ``parts[1]``, which this view indexes).  Row groups are read and
    decoded lazily, once per process, into the shared caches (see
    :class:`_Segment`); a reopen after ``apply_delta`` therefore opens
    only the new delta record's file."""

    def __init__(self, files: list[str], parts: tuple[int, int],
                 delta_files: list[str] = (),
                 file_hints: dict[str, float] | None = None,
                 file_seqs: dict[str, int] | None = None):
        paths = list(files) + list(delta_files)
        self.segs = [_Segment.open(f) for f in paths]
        self.is_delta = [False] * len(files) + [True] * len(delta_files)
        self._hints = [float((file_hints or {}).get(f, 0.0)) for f in paths]
        self._seqs = [int((file_seqs or {}).get(f, 0)) for f in paths]
        # per-snapshot key prefix of this view's term → chunk lists
        self._uid = next(_SHARD_UIDS)
        self._base = _base_dict(self.segs[:len(files)])
        self._delta: dict[str, list[tuple[int, int]]] = defaultdict(list)
        for ti in range(len(files), len(paths)):
            lo, hi = self.segs[ti].part_rows(*parts)
            for ri, term in enumerate(self.segs[ti].terms()[lo:hi], lo):
                self._delta[term].append((ti, ri))

    def locs(self, term: str) -> list[tuple[int, int]]:
        """[(segment index, row)] of every stored chunk of ``term``:
        base chunks first, then delta chunks in delta-log order."""
        slots, start, tis, ris = self._base
        j = slots.get(term)
        out = [] if j is None else list(zip(
            tis[start[j]:start[j + 1]].tolist(),
            ris[start[j]:start[j + 1]].tolist()))
        more = self._delta.get(term)
        return out + more if more else out

    def terms(self) -> set[str]:
        return set(self._base[0]) | set(self._delta)

    def _decode_row(self, ti: int, ri: int):
        return self.segs[ti].postings(ri)

    def prefetch(self, max_groups: int | None = None) -> int:
        """Index warmer (the ES warm-up analog): read this shard's row
        group tables into the shared table LRU, up to its cap, so a
        freshly started query actor skips the first-touch reads (~0.4
        ms per row group; decoding one is ~1.7 ms more and stays
        lazy).  Round-robin across files so a capped warm covers the
        FRONT of every segment file (terms are sorted within a file,
        so breadth beats depth for arbitrary first queries)."""
        cap = RG_CACHE_CAP if max_groups is None \
            else min(max_groups, RG_CACHE_CAP)
        loaded = 0
        max_g = max((sg.pf.num_row_groups for sg in self.segs), default=0)
        for g in range(max_g):
            for sg in self.segs:
                if loaded >= cap:
                    return loaded
                if g < sg.pf.num_row_groups and (sg.key, g) not in _TABLES:
                    sg.table(g)
                    loaded += 1
        return loaded

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated (doc_ids, tfs, dls) across salted sub-lists and
        delta segments. Doc sets are disjoint per source (salts are
        disjoint doc_id ranges; a re-add of an id lives in a NEWER
        source than the tombstone that killed the older copy), so order
        across chunks is irrelevant to per-doc accumulation — but live
        filtering must be per source (postings_by_source)."""
        parts = [self._decode_row(ti, ri) for ti, ri in self.locs(term)]
        if not parts:
            z = np.empty(0, dtype=np.int64)
            return z, z, z
        return tuple(np.concatenate(c) for c in zip(*parts))

    def postings_by_source(self, term: str):
        """[(source_seq, doc_ids, tfs, dls)] per stored chunk — the
        sequenced-tombstone filter needs each chunk's source seq (base
        segments = 0, delta segments = their record seq)."""
        return [(self._seqs[ti],) + self._decode_row(ti, ri)
                for ti, ri in self.locs(term)]

    def _positions_row(self, ti: int, ri: int):
        """(flat absolute positions, per-doc offsets) for one stored
        chunk."""
        return self.segs[ti].positions(ri)

    def _positions_subset(self, ti: int, ri: int, keep: np.ndarray,
                          tfs: np.ndarray) -> np.ndarray:
        """Flat positions for the ``keep``-masked subset of one chunk's
        docs.  Slices the full decode when it is already cached (or
        when most docs survive anyway); otherwise decodes ONLY the kept
        runs via cached varint value-boundary offsets, so first touch
        of a hot term's position blob costs O(kept positions), not
        O(chunk positions) — the phrase-tail fix."""
        sg = self.segs[ti]
        full = wand.CACHE.get(("pos", sg.key, ri))
        if full is None and keep.mean() > 0.5:
            # majority survives: the full decode costs about the same
            # and its cache entry serves every later query
            full = sg.positions(ri)
        if full is not None:
            return full[0][np.repeat(keep, tfs)]
        buf = sg.pos_buffer(ri)
        key = ("posoff", sg.key, ri)
        off = wand.CACHE.get(key)
        if off is None:
            off = varint_value_offsets(buf)
            wand.CACHE.put(key, off, off.nbytes)
        flat, _ = decode_positions_subset(buf, tfs,
                                          np.flatnonzero(keep), off)
        return flat

    def chunk_meta(self, term: str) -> list[dict]:
        """Per-chunk metadata WITHOUT decoding postings: stored block
        boundaries + max impacts, df, delta flag, the chunk's ``id``
        (segment identity, row) and a lazy decode hook — the inputs of
        the block-max top-k kernel.  Built once per snapshot while it
        stays in the cache, from the segments' shared per-row
        metadata; the returned dicts are shared, so callers must not
        write to them."""
        key = ("chunks", self._uid, term)
        got = wand.CACHE.get(key)
        if got is not None:
            return got
        out = []
        for ti, ri in self.locs(term):
            sg = self.segs[ti]
            last, bmax, df, salt = sg.chunk_meta(ri)
            out.append({
                "block_last": last, "block_max": bmax, "df": df,
                "salt": salt,
                "delta": self.is_delta[ti], "hint_avgdl": self._hints[ti],
                "id": (sg.key, ri),
                "decode": functools.partial(_chunk_postings, sg.key, ri),
            })
        if not out:
            return out
        return wand.CACHE.put(key, out, 64 * len(out) + sum(
            c["block_last"].nbytes + c["block_max"].nbytes for c in out))


def _segment_files(index_root: str, manifest: dict) -> tuple[list[str], list[str]]:
    """(base segment files, delta segment files)."""
    base = [s["path"] for s in manifest["segments"]]
    delta = []
    for d in manifest.get("deltas", []):
        delta.extend(d.get("segments", []))
    return base, delta


class QueryPlanner:
    """Every query variant, written ONCE over a small set of batched,
    term-routed postings primitives.  Two transports implement them:
    :class:`Searcher` over the shards it owns, and
    :class:`DistributedSearcher` by fanning each call out to the owning
    shard actors and merging the per-actor dicts (every term has one
    owner, so they are disjoint).  Each primitive takes a term list and
    returns a term-keyed dict, so one call is one fan-out round:

    - ``term_partials(terms)`` → (live doc_ids, exact BM25 scores)
    - ``term_partials_dl(terms)`` → the same plus each posting's dl
    - ``term_partials_for_docs(terms, docs)`` → partials restricted to
      a sorted candidate doc set (df/idf stay full-index)
    - ``term_doc_ids(terms)`` → sorted unique live doc_ids
    - ``term_dfs(terms)`` / ``term_total_tfs(terms)`` → live df / live
      occurrence count
    - ``term_positions(terms, candidates)`` → (doc_ids, offsets, flat
      positions), restricted to ``candidates`` when given
    - ``vocabulary()`` and ``explain(terms, doc_id)``

    The transports also differ in ``search`` / ``msearch`` and in two
    hooks: :meth:`_phrase_docs` (how phrase positions are fetched) and
    :meth:`_on_owner` (run a whole query where all its terms live)."""

    def _open_snapshot(self, index_root: str, epoch: str | None) -> None:
        """Load the pinned manifest, refuse a foreign posting format
        and take live N/avgdl from the delta log — the snapshot rule
        both transports share, applied before any shard or actor
        exists."""
        self.index_root = index_root
        self.manifest = mf.load_manifest(index_root, epoch)
        mf.require_format(self.manifest)
        self.num_shards = self.manifest["num_shards"]
        self.n_docs, self.avgdl = mf.live_stats(self.manifest)
        self._vocab: list[str] | None = None  # sorted, built on demand
        self._del_index: dict[str, list[str]] | None = None
        self._tok = None  # index-config tokenizer, built on demand

    def _on_owner(self, terms: list[str], method: str, *args, **kw):
        """The result of ``method(*args, **kw)`` run whole by the one
        owner of every term in ``terms``, or None when the query runs
        here.  In-process, everything runs here."""
        return None

    def _phrase_docs(self, slots: list[str], cand: np.ndarray,
                     expand: dict[str, list[str]] | None = None
                     ) -> np.ndarray:
        """Docs holding ``slots`` at consecutive positions (see
        :func:`phrase_match_docs_lazy`); a slot named in ``expand``
        matches any of its terms.  Here: one positions round restricted
        to ``cand`` for every term at once."""
        expand = expand or {}
        data = self.term_positions(
            sorted({t for s in slots for t in expand.get(s, [s])}), cand)
        for p, ts in expand.items():
            data[p] = merge_position_sets([data[t] for t in ts])
        return phrase_match_docs_lazy(lambda t, _alive: data[t], slots,
                                      cand, sorted(set(slots)))

    def _require_positions(self, what: str) -> None:
        if not self.manifest.get("store_positions"):
            raise ValueError(f"{what} queries need store_positions="
                             "True (pinned in the manifest at build)")

    def _candidate_docs(self, uterms: list[str]) -> np.ndarray | None:
        """Sorted live docs holding EVERY term (one doc-id round, no
        positions) — the candidate pushdown of the positional family,
        ``common_terms`` and conjunctive counts.  None ⇔ no candidates
        (no terms, a dead term, or an empty intersection)."""
        id_sets = self.term_doc_ids(uterms)
        cand = None
        for t in uterms:
            ids = id_sets[t]
            cand = ids if cand is None else np.intersect1d(cand, ids)
            if cand.size == 0:
                return None
        return cand

    def _score_conjunctive(self, uterms: list[str], docs: np.ndarray,
                           k: int) -> list[tuple[int, float]]:
        """Matched ``docs`` scored like ``operator="and"`` over
        ``uterms`` — membership gates, scores never rescale."""
        if docs.size == 0:
            return []
        return merge_partials_conjunctive(
            [self.term_partials_for_docs(uterms, docs)], uterms, k)

    def _span_query(self, uterms: list[str], k: int, matcher,
                    score_terms: list[str] | None = None
                    ) -> list[tuple[int, float]]:
        """Shared body of the positional family: candidates holding
        every term, their positions restricted to the candidates (so
        transfer and decode are bounded by the rarest term's df),
        ``matcher(data)`` → matching docs, scored conjunctively over
        ``score_terms`` (default: every term)."""
        cand = self._candidate_docs(uterms)
        if cand is None:
            return []
        docs = matcher(self.term_positions(uterms, cand))
        return self._score_conjunctive(score_terms or uterms, docs, k)

    def search_phrase(self, terms: list[str], k: int = 10
                      ) -> list[tuple[int, float]]:
        """Exact phrase top-k: documents where ``terms`` occur at
        consecutive positions (in order, duplicates included), scored
        like ``operator="and"`` restricted to the matching docs (idf
        full-index; conjunction/phrase filter, never rescale).
        Candidate docs (present in every unique term) come from the
        cheap posting decode BEFORE any position is touched.  Requires
        an index built with ``store_positions=True``."""
        if not terms:
            return []
        self._require_positions("phrase")
        got = self._on_owner(terms, "search_phrase", terms, k)
        if got is not None:
            return got
        uterms = sorted(set(terms))
        cand = self._candidate_docs(uterms)
        if cand is None:
            return []
        return self._score_conjunctive(uterms,
                                       self._phrase_docs(terms, cand), k)

    def search_span_first(self, term: str, end: int,
                          k: int = 10) -> list[tuple[int, float]]:
        """ES ``span_first`` analog (single-term span, boundary
        ``end``): rank documents whose FIRST occurrence of ``term``
        lies within the first ``end`` token positions (0-based
        position < end, i.e. among the document's first ``end``
        tokens).  Membership gates, scores never rescale — survivors
        keep the term's plain BM25 contribution (the filter-context
        stance, delegated to :meth:`search_filtered`).  Positions are
        stored ascending per doc, so the first occurrence is each
        run's leading value — no scan.  Requires
        ``store_positions=True``."""
        if end <= 0 or not term:
            return []
        self._require_positions("span_first")
        got = self._on_owner([term], "search_span_first", term, end, k)
        if got is not None:
            return got
        ids, offs, flat = self.term_positions([term])[term]
        if not len(ids):
            return []
        allowed = np.sort(ids[flat[offs[:-1]] < end])
        if not allowed.size:
            return []
        return self.search_filtered([term], k, allowed)

    def search_span_not(self, include: str, exclude: str,
                        dist: int = 1, k: int = 10
                        ) -> list[tuple[int, float]]:
        """ES/Lucene ``span_not`` analog (single-term spans with a
        symmetric ``pre``/``post`` = ``dist``): rank documents having
        at least one occurrence of ``include`` with NO occurrence of
        ``exclude`` within ``dist`` token positions (a doc without
        ``exclude`` always matches).  Membership gates, scores never
        rescale — survivors keep the include term's plain BM25
        contribution (delegated to :meth:`search_filtered`, the
        filter-context stance shared with span_first).  Exclude
        positions are fetched only for the include term's docs, so
        transfer is bounded by the include df.  Requires
        ``store_positions=True``."""
        if not include:
            return []
        self._require_positions("span_not")
        if include == exclude:
            return []          # every occurrence vetoes itself
        got = self._on_owner([include, exclude], "search_span_not",
                             include, exclude, dist, k)
        if got is not None:
            return got
        inc = self.term_positions([include])[include]
        if not len(inc[0]):
            return []
        exc = self.term_positions([exclude], np.unique(inc[0]))[exclude]
        allowed = span_not_match_docs(inc, exc, dist)
        if not allowed.size:
            return []
        return self.search_filtered([include], k, allowed)

    def search_span_near(self, terms: list[str], slop: int = 0,
                         k: int = 10) -> list[tuple[int, float]]:
        """Ordered proximity top-k (ES/Lucene ``span_near`` with
        ``in_order=true``): ``terms`` in order with at most ``slop``
        intervening tokens between each consecutive pair (``slop=0``
        ≡ :meth:`search_phrase`), scored like ``operator="and"``
        restricted to the matching docs.  Same candidate pushdown as
        the phrase path.  Requires ``store_positions=True``."""
        if not terms:
            return []
        self._require_positions("span_near")
        if slop < 0:
            raise ValueError(f"slop must be >= 0, got {slop}")
        got = self._on_owner(terms, "search_span_near", terms, slop, k)
        if got is not None:
            return got
        return self._span_query(
            sorted(set(terms)), k,
            lambda data: span_near_match_docs(data, terms, slop))

    def search_intervals(self, terms: list[str], max_gaps: int = 0,
                         ordered: bool = True, k: int = 10
                         ) -> list[tuple[int, float]]:
        """ES ``intervals`` query, ``match`` rule over distinct terms
        with a TOTAL ``max_gaps`` budget (shared across the whole
        interval — the semantic difference from :meth:`search_span_near`
        whose slop is per consecutive pair) and an ``ordered`` flag.
        Membership gates, scores never rescale: survivors are scored
        like ``operator="and"`` restricted to the matching docs, the
        filter-context stance of the whole positional family.  Same
        candidate pushdown as the phrase path.  Requires
        ``store_positions=True``."""
        if not terms:
            return []
        self._require_positions("intervals")
        # Validate BEFORE the candidate pushdown so degenerate queries
        # fail the same way regardless of index contents (the kernel
        # re-checks, but only after data-dependent early-outs).
        if max_gaps < 0:
            raise ValueError(f"max_gaps must be >= 0, got {max_gaps}")
        if len(set(terms)) != len(terms):
            raise ValueError("intervals terms must be distinct")
        got = self._on_owner(terms, "search_intervals", terms, max_gaps,
                             ordered, k)
        if got is not None:
            return got
        return self._span_query(
            sorted(terms), k,
            lambda data: intervals_match_docs(data, terms, max_gaps,
                                              ordered))

    def _containment_terms(self, what: str, big_terms: list[str],
                           slop: int, little: str) -> list[str]:
        """Validate a span_containing/span_within query; its sorted
        unique terms (big ∪ {little})."""
        if len(big_terms) < 2:
            raise ValueError(f"{what} needs >= 2 big terms")
        if not little:
            raise ValueError(f"{what} needs a little term")
        if slop < 0:
            raise ValueError(f"slop must be >= 0, got {slop}")
        self._require_positions(what)
        return sorted(set(big_terms) | {little})

    def search_span_containing(self, big_terms: list[str], slop: int,
                               little: str, k: int = 10
                               ) -> list[tuple[int, float]]:
        """ES/Lucene ``span_containing``: documents where some
        ``span_near(big_terms, slop)`` span CONTAINS an occurrence of
        ``little`` (boundaries inclusive — overlap counts, Lucene's
        containment).  ES returns/scores the big clause, so survivors
        are scored conjunctively over ``big_terms`` restricted to the
        matching docs (membership gates, scores never rescale — the
        positional family's filter-context stance).  Requires ≥ 2 big
        terms (a 1-term span has no interior) and
        ``store_positions=True``."""
        if k <= 0:
            return []
        uterms = self._containment_terms("span_containing", big_terms,
                                         slop, little)
        got = self._on_owner(uterms, "search_span_containing",
                             big_terms, slop, little, k)
        if got is not None:
            return got
        return self._span_query(
            uterms, k,
            lambda data: span_containing_match_docs(data, big_terms,
                                                    slop, little),
            sorted(set(big_terms)))

    def search_span_within(self, little: str, big_terms: list[str],
                           slop: int, k: int = 10
                           ) -> list[tuple[int, float]]:
        """ES/Lucene ``span_within`` — the same containment predicate
        as :meth:`search_span_containing` but the LITTLE clause is
        what's returned/scored: survivors keep ``little``'s plain
        BM25 contribution restricted to the matching docs."""
        if k <= 0:
            return []
        uterms = self._containment_terms("span_within", big_terms,
                                         slop, little)
        got = self._on_owner(uterms, "search_span_within", little,
                             big_terms, slop, k)
        if got is not None:
            return got
        return self._span_query(
            uterms, k,
            lambda data: span_containing_match_docs(data, big_terms,
                                                    slop, little),
            [little])

    def search_span_or_near(self, slots: list[list[str]],
                            slop: int = 0, k: int = 10
                            ) -> list[tuple[int, float]]:
        """``span_near`` whose slots are ``span_or`` clauses: slot i
        matches ANY of its alternative terms, consecutive slots at
        most ``slop`` tokens apart in order (ES span_near over
        span_or sub-clauses).  The candidate round unions each slot's
        alternatives BEFORE the cross-slot intersection, and each
        slot's alternatives merge into one pseudo-slot position set
        (the phrase_prefix expansion mechanics), so the matcher stays
        fully vectorized.  Scoring: disjunctive BM25 over ALL
        alternatives restricted to the matching docs via
        :meth:`search_filtered` — per-doc matched alternatives
        contribute, absent ones add 0 (a documented, deterministic
        simplification of ES's per-span scoring)."""
        if k <= 0 or not slots:
            return []
        if any(not s for s in slots):
            raise ValueError("every span_or slot needs >= 1 term")
        if slop < 0:
            raise ValueError(f"slop must be >= 0, got {slop}")
        self._require_positions("span_or_near")
        all_terms = sorted({t for slot in slots for t in slot})
        got = self._on_owner(all_terms, "search_span_or_near", slots,
                             slop, k)
        if got is not None:
            return got
        id_sets = self.term_doc_ids(all_terms)
        cand: np.ndarray | None = None
        for slot in slots:
            ids_l = [id_sets[t] for t in sorted(set(slot))
                     if id_sets[t].size]
            if not ids_l:
                return []
            slot_ids = np.unique(np.concatenate(ids_l))
            cand = (slot_ids if cand is None
                    else np.intersect1d(cand, slot_ids))
            if cand.size == 0:
                return []
        data = self.term_positions(all_terms, cand)
        pseudo = [f"\x00slot{i}" for i in range(len(slots))]
        pdata = {p: merge_position_sets([data[t] for t in sorted(set(slot))])
                 for p, slot in zip(pseudo, slots)}
        docs = span_near_match_docs(pdata, pseudo, slop)
        if docs.size == 0:
            return []
        return self.search_filtered(all_terms, k, docs)

    def search_phrase_prefix(self, terms: list[str], k: int = 10,
                             max_expansions: int = 50
                             ) -> list[tuple[int, float]]:
        """match_phrase_prefix (ES search-as-you-type): docs containing
        ``terms[:-1]`` at consecutive positions followed immediately by
        ANY token starting with ``terms[-1]``.  Scoring: conjunctive
        BM25 over the FIXED terms restricted to the matching docs
        (the expansion slot gates membership, it does not contribute —
        a documented, deterministic simplification of ES's
        synonym-blended multi-term weight).  Requires ≥ 2 terms (a
        single-prefix query is :meth:`search_prefix`).

        The prefix expands against the sorted dictionary
        (binary-searched run), capped at ``max_expansions`` in
        dictionary order like ES — a hit beyond the cap is missed, the
        same truncation contract ES documents.  Expansion position
        sets merge into ONE pseudo-slot per doc, so the phrase matcher
        stays fully vectorized."""
        if len(terms) < 2:
            raise ValueError("match_phrase_prefix needs >= 2 terms; "
                             "use search_prefix for a bare prefix")
        self._require_positions("phrase_prefix")
        if k <= 0:
            return []
        fixed, prefix = terms[:-1], terms[-1]
        ufixed = sorted(set(fixed))
        cand = self._candidate_docs(ufixed)
        if cand is None:
            return []
        expansions = prefix_terms(self.vocabulary(),
                                  prefix)[:max_expansions]
        if not expansions:
            return []
        pseudo = "\x00" + prefix           # cannot collide with a token
        docs = self._phrase_docs(list(fixed) + [pseudo], cand,
                                 {pseudo: expansions})
        return self._score_conjunctive(ufixed, docs, k)

    def search_filtered(self, terms: list[str], k: int,
                        allowed_doc_ids, operator: str = "or"
                        ) -> list[tuple[int, float]]:
        """Filter-context search — the ES bool ``{must: match,
        filter: ...}`` analog: rank only documents in
        ``allowed_doc_ids``, with df/idf/avgdl from the FULL live
        index.  A filter restricts the result set, it never rescales
        scores — the same stance as ``operator="and"`` — so a doc's
        filtered score equals its unfiltered score.

        Exhaustive restricted path: per-term contributions are
        fetched only for allowed docs (:meth:`term_partials_for_docs`),
        so per-term work and transfer beyond the posting decode are
        O(|allowed ∩ postings|).  The allowed set is a sorted int64
        doc_id array (ids-only, ~8 B/doc — the id-set analog of a
        filter bitset)."""
        if k <= 0 or not terms:
            return []
        allowed = np.unique(np.asarray(allowed_doc_ids, dtype=np.int64))
        if allowed.size == 0:
            return []
        uterms = sorted(set(terms))
        merge = (merge_partials_conjunctive if operator == "and"
                 else merge_partials)
        return merge([self.term_partials_for_docs(uterms, allowed)],
                     uterms, k)

    def search_prefix(self, prefix: str, k: int = 10
                      ) -> list[tuple[int, float]]:
        """Prefix query (ES match_phrase_prefix / wildcard `term*`
        analog): expand the prefix against the dictionary, then score
        the expansion disjunctively — each expanded term keeps its own
        df/idf, so the result equals an OR query over the matching
        vocabulary."""
        if k <= 0 or not prefix:
            return []
        terms = prefix_terms(self.vocabulary(), prefix)
        return self.search(terms, k) if terms else []

    def search_fuzzy(self, term: str, k: int = 10, max_edits: int = 1
                     ) -> list[tuple[int, float]]:
        """Fuzzy query (ES match with fuzziness): expand to dictionary
        terms within plain Levenshtein distance ``max_edits`` (unit
        costs, no transposition — the same metric as the SQL oracle's
        levenshtein()), then score the expansion disjunctively."""
        if k <= 0 or not term:
            return []
        terms = fuzzy_terms(self.vocabulary(), term, max_edits,
                            self._deletion_index if max_edits == 1
                            else None)
        return self.search(terms, k) if terms else []

    def search_wildcard(self, pattern: str, k: int = 10
                        ) -> list[tuple[int, float]]:
        """Wildcard query (ES ``wildcard``, ``*``/``?``): expand
        against the dictionary (literal-prefix narrowed), then score
        the expansion disjunctively — each expanded term keeps its
        own df/idf."""
        if k <= 0 or not pattern:
            return []
        terms = wildcard_terms(self.vocabulary(), pattern)
        return self.search(terms, k) if terms else []

    def search_regexp(self, pattern: str, k: int = 10
                      ) -> list[tuple[int, float]]:
        """Regexp query (ES ``regexp``, implicitly anchored): expand
        by full-match against the dictionary, score disjunctively."""
        if k <= 0 or not pattern:
            return []
        terms = regexp_terms(self.vocabulary(), pattern)
        return self.search(terms, k) if terms else []

    def _deletion_index(self) -> dict[str, list[str]]:
        """Snapshot-cached :func:`build_deletion_index`."""
        if self._del_index is None:
            self._del_index = build_deletion_index(self.vocabulary())
        return self._del_index

    def _ranked_by_df(self, cands: list[str], n: int
                      ) -> list[tuple[int, str]]:
        """Shared suggester tail: ONE dictionary-only df round for the
        candidates, ranked (live df desc, term asc).  Live terms only:
        a fully-tombstoned term is still a dictionary key but matches
        zero live docs."""
        dfs = self.term_dfs(cands)
        ranked = sorted((-dfs[t], t) for t in cands if dfs[t] > 0)
        return [(-negdf, t) for negdf, t in ranked[:n]]

    def complete(self, prefix: str, n: int = 5
                 ) -> list[tuple[int, str]]:
        """Completion suggester (ES completion / autocomplete): the
        top-``n`` dictionary terms starting with ``prefix``, as
        (live df, term) ranked df desc then term asc (same rank
        contract as :meth:`suggest`)."""
        if n <= 0 or not prefix:
            return []
        return self._ranked_by_df(prefix_terms(self.vocabulary(),
                                               prefix), n)

    def suggest(self, term: str, n: int = 5, max_edits: int = 1
                ) -> list[tuple[int, str]]:
        """Term suggester (ES \"did you mean\"): dictionary terms
        within ``max_edits`` of the input (the input itself excluded),
        ranked by live df desc then term asc — the most common close
        spelling first.  Returns (df, term) pairs."""
        if n <= 0 or not term:
            return []
        cands = fuzzy_terms(self.vocabulary(), term, max_edits,
                            self._deletion_index if max_edits == 1
                            else None)
        return self._ranked_by_df([t for t in cands if t != term], n)

    def suggest_phrase(self, terms: list[str], n: int = 3,
                       max_candidates: int = 5, backoff: float = 0.4
                       ) -> list[tuple[float, list[str]]]:
        """Phrase suggester (the ES ``phrase`` suggester, did-you-mean
        over whole phrases): per-slot candidates are the dictionary
        terms within edit distance 1 of the input (the input itself
        included when live), ranked (df desc, term asc) and capped at
        ``max_candidates``; every combination is scored by a
        stupid-backoff bigram language model over the live corpus:

            ln(c(w1)/T) + Σ [ ln(cb(wi, wi+1) / c(wi))   if cb > 0
                              else ln(backoff·c(wi+1)/T) ]

        with T the live token total.  Scores are rounded to 10
        decimals (the libm-vs-DuckDB ln ULP, see bm25_explain) and
        ranked (score desc, phrase asc).  Bigram positions are fetched
        once, restricted to the docs some candidate pair shares.
        Requires store_positions."""
        if not terms or n <= 0:
            return []
        self._require_positions("suggest_phrase")
        self_dfs = self.term_dfs(terms)
        slots: list[list[str]] = []
        for t in terms:
            cands = list(self.suggest(t, n=max_candidates))
            if self_dfs[t] > 0:
                cands.append((self_dfs[t], t))
            ranked = sorted(cands, key=lambda x: (-x[0], x[1]))
            slots.append([w for _, w in ranked[:max_candidates]])
            if not slots[-1]:
                return []
        _, total = mf.live_totals(self.manifest)
        words = sorted({w for s_ in slots for w in s_})
        uni = self.term_total_tfs(words)
        ids = self.term_doc_ids(words)
        pairs = sorted({(w1, w2) for i in range(len(slots) - 1)
                        for w1 in slots[i] for w2 in slots[i + 1]})
        common = {p: np.intersect1d(ids[p[0]], ids[p[1]]) for p in pairs}
        shared = [c for c in common.values() if c.size]
        pos = {}
        if shared:
            # run-sort each word's positions ONCE — the pair loop would
            # otherwise re-sort every word per pair (O(C²))
            pos = {w: _sort_runs(*p) for w, p in self.term_positions(
                words, np.unique(np.concatenate(shared))).items()}
        bi = {p: _bigram_count_runs(pos[p[0]], pos[p[1]]) if c.size else 0
              for p, c in common.items()}
        return _lm_score_slots(slots, uni, bi, total, n, backoff)

    def count(self, terms: list[str], operator: str = "or") -> int:
        """Match count without scoring (the ES ``_count`` API): number
        of live documents containing ANY (``or``) or EVERY (``and``)
        query term.  Posting id sets only — no accumulation, no
        heap."""
        return int(self.matched_doc_ids(terms, operator).size)

    def matched_doc_ids(self, terms: list[str], operator: str = "or"
                        ) -> np.ndarray:
        """Sorted live doc_ids matching the query — the id-set core
        shared by :meth:`count` and ``delete_by_query`` (posting id
        sets only, no scoring).  ``or`` = union, ``and`` =
        intersection; an ``and`` over an unowned or absent term is
        empty, matching search(operator="and")."""
        if operator == "and":
            cand = self._candidate_docs(sorted(set(terms)))
            return np.empty(0, dtype=np.int64) if cand is None else cand
        return self.excluded_doc_ids(terms)

    def excluded_doc_ids(self, must_not: list[str]) -> np.ndarray:
        """Sorted union of live doc_ids containing ANY of ``must_not``
        — the must_not exclusion set of a boolean query (also the
        OR-count set of :meth:`count`).  Unowned shards are skipped
        like every other posting accessor."""
        sets = [ids for ids in
                self.term_doc_ids(sorted(set(must_not))).values()
                if ids.size]
        if not sets:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(sets))

    def search_boolean(self, must: list[str], must_not: list[str],
                       k: int = 10) -> list[tuple[int, float]]:
        """ES bool ``{should: match, must_not: match}`` analog:
        disjunctive BM25 ranking over ``must`` terms with documents
        containing ANY ``must_not`` term removed.  must_not is
        filter-context — survivors keep their exact unfiltered scores
        (df/idf/avgdl full-index), the same never-rescale stance as
        ``operator="and"`` and ``search_filtered``."""
        if k <= 0 or not must:
            return []
        uterms = sorted(set(must))
        partials = self.term_partials(uterms)
        excl = self.excluded_doc_ids(must_not)
        return merge_partials([partials], uterms, k, exclude_sorted=excl)

    def _tokenizer(self):
        """The index's OWN tokenizer, reconstructed from the manifest
        (the same rule lifecycle entry points use) — seed text in
        more_like_this must analyze exactly like the indexed corpus."""
        if self._tok is None:
            self._tok = tokenizer_from_manifest(self.manifest)
        return self._tok

    def select_mlt_terms(self, text: str, max_terms: int) -> list[str]:
        """more_like_this term selection: analyze ``text`` with the
        index tokenizer, score each in-dictionary term tf·idf (float
        product, same operand order as the SQL oracle), keep the top
        ``max_terms`` with ties broken by term asc (the SQL oracle's
        window order); terms with live df 0 are dropped.  One
        dictionary-only df round for the seed's terms."""
        counts = self._tokenizer().counts(text)
        dfs = self.term_dfs(sorted(counts))
        scored = sorted((-(float(tf) * idf(dfs[t], self.n_docs)), t)
                        for t, tf in counts.items() if dfs[t] > 0)
        return [t for _, t in scored[:max_terms]]

    def more_like_this(self, text: str, k: int = 10,
                       max_terms: int = 10, exclude_doc_ids=None
                       ) -> list[tuple[int, float]]:
        """ES ``more_like_this`` analog: re-analyze the seed text,
        select the top ``max_terms`` terms by tf·idf against the live
        dictionary, then rank the selection disjunctively with the
        seed doc(s) excluded (exclusion filters after accumulation,
        it never rescales — the must_not stance)."""
        if k <= 0 or max_terms <= 0 or not text:
            return []
        sel = self.select_mlt_terms(text, max_terms)
        if not sel:
            return []
        excl = None
        if exclude_doc_ids is not None:
            excl = np.unique(np.asarray(list(exclude_doc_ids),
                                        dtype=np.int64))
        partials = self.term_partials(sel)
        return merge_partials([partials], sel, k, exclude_sorted=excl)

    def search_after(self, terms: list[str], size: int = 10,
                     after: tuple[int, float] | None = None
                     ) -> list[tuple[int, float]]:
        """Cursor pagination (ES ``search_after``): the next ``size``
        results STRICTLY after the cursor in the (-score, doc_id)
        ranking order (``after=None`` is page one; the cursor is the
        previous page's last (doc_id, score) result tuple, passed
        verbatim).
        Stateless like ES — each page recomputes the ranking and
        filters at exact accumulated scores, so stitched pages
        reconstruct the full ranking with no duplicate or dropped doc
        even across exact-tie runs.  Exhaustive path by design: a
        cursor upper-bounds scores, which the lower-bound WAND
        pruning cannot exploit."""
        if size <= 0 or not terms:
            return []
        uterms = sorted(set(terms))
        partials = self.term_partials(uterms)
        return merge_partials([partials], uterms, size, after=after)

    def search_dismax(self, terms: list[str], k: int = 10,
                      tie_breaker: float = 0.0
                      ) -> list[tuple[int, float]]:
        """Dis-max ranking (ES ``dis_max``): best single-term
        contribution + tie_breaker × the rest (see
        :func:`merge_partials_dismax`)."""
        if k <= 0 or not terms:
            return []
        uterms = sorted(set(terms))
        partials = self.term_partials(uterms)
        return merge_partials_dismax([partials], uterms, k, tie_breaker)

    def search_min_match(self, terms: list[str], k: int,
                         min_match: int) -> list[tuple[int, float]]:
        """ES ``minimum_should_match`` analog: rank only documents
        matching at least ``min_match`` DISTINCT query terms; survivor
        scores equal their full disjunctive scores (df/idf/avgdl stay
        full-index — the count threshold filters, it never rescales).
        min_match<=1 degenerates to OR, min_match==len(terms) to AND
        — same result set AND same scores as those operators."""
        if k <= 0 or not terms:
            return []
        uterms = sorted(set(terms))
        m = max(1, int(min_match))
        if m > len(uterms):
            return []
        partials = self.term_partials(uterms)
        return merge_partials([partials], uterms, k, min_match=m)

    def search_terms_set(self, terms: list[str], k: int,
                         dl_threshold: int, low: int = 1, high: int = 2
                         ) -> list[tuple[int, float]]:
        """ES ``terms_set`` query: the required distinct-match count is
        PER-DOCUMENT, read from indexed per-doc data (ES
        ``minimum_should_match_field``) — here the indexed document
        length: docs shorter than ``dl_threshold`` tokens need ``low``
        distinct query terms, longer docs need ``high``.  Survivors
        keep their full disjunctive scores (the per-doc threshold
        filters, it never rescales), and accumulation stays in
        sorted-term order (the determinism contract), so a survivor's
        score is bit-identical to the plain OR query's."""
        if k <= 0 or not terms:
            return []
        uterms = sorted(set(terms))
        gathered = _accumulate_with_dl(self.term_partials_dl(uterms),
                                       uterms)
        if gathered is None:
            return []
        uniq, acc, cnt, doc_dl = gathered
        keep = cnt >= np.where(doc_dl < dl_threshold, low, high)
        if not keep.any():
            return []
        ids, scores = top_k_select(uniq[keep], acc[keep], k)
        return list(zip(ids.tolist(), scores.tolist()))

    def search_common_terms(self, terms: list[str],
                            cutoff_frequency: float = 0.5,
                            k: int = 10) -> list[tuple[int, float]]:
        """ES ``common_terms`` query (cutoff-frequency shape; ES also
        exposes it as ``match`` + ``cutoff_frequency``): query terms
        split by LIVE document frequency — a term is high-frequency
        when ``df > cutoff_frequency * n_docs``.  Low-frequency terms
        are REQUIRED (conjunction — an absent or unknown low term
        empties the result); high-frequency terms never gate, they
        only add their BM25 contribution to docs that survive the
        low-term conjunction.  With no low-frequency term the query
        degrades to the plain disjunction (the ES ``high_freq_operator
        = or`` fallback).  Scores never rescale: a survivor's score is
        the plain OR query's score over its matched terms."""
        if k <= 0 or not terms:
            return []
        uterms = sorted(set(terms))
        dfs = self.term_dfs(uterms)
        thresh = cutoff_frequency * self.n_docs
        low = [t for t in uterms if dfs[t] <= thresh]
        if not low:
            return self.search(uterms, k)
        allowed = self._candidate_docs(low)
        if allowed is None:
            return []
        return self.search_filtered(uterms, k, allowed)

    def search_script_score(self, terms: list[str], script: str,
                            k: int = 10) -> list[tuple[int, float]]:
        """ES ``script_score`` query: the disjunctive BM25 score of
        every matching doc is REPLACED by ``script`` — an expression
        in the engine's scalar-function DSL (mee_ray.functions.scalar,
        the reference's resolver surface) evaluated over a columnar
        batch with ``_score`` (float64 BM25) and ``dl`` (int64 doc
        token count), e.g. ``div(mul(_score, dl), sum(dl, 10))``.
        The script compiles ONCE per query (eager validation, before
        any postings are fetched) and evaluates vectorized over all
        matches — never per doc.  An arbitrary script breaks WAND's
        monotone-bound contract, so matching is exhaustive disjunctive
        by design (the same stance ES documents for script_score)."""
        from mee_ray.functions.scalar import compile_expr
        if k <= 0 or not terms:
            return []
        fn = compile_expr(script)
        uterms = sorted(set(terms))
        gathered = _accumulate_with_dl(self.term_partials_dl(uterms),
                                       uterms)
        if gathered is None:
            return []
        uniq, acc, _cnt, doc_dl = gathered
        out = fn(pa.table({"_score": pa.array(acc, pa.float64()),
                           "dl": pa.array(doc_dl, pa.int64())}))
        if isinstance(out, pa.ChunkedArray):
            out = out.combine_chunks()
        if isinstance(out, pa.Scalar):            # constant script
            rescored = np.full(len(uniq), out.as_py(), dtype=np.float64)
        else:
            rescored = np.asarray(out, dtype=np.float64)
        ids, scores = top_k_select(uniq, rescored, k)
        return list(zip(ids.tolist(), scores.tolist()))

    def search_weighted(self, term_boosts: dict[str, float], k: int
                        ) -> list[tuple[int, float]]:
        """Per-term query-time boosts (ES ``term^boost``): each term's
        exact contribution vector is scaled by its boost BEFORE the
        sorted-term accumulation, so score = Σ_t boost_t·idf_t·tfn_t
        in sorted-term order (float multiply is commutative, so the
        oracle's boost·(idf·tfn) is bit-identical).  Non-positive
        boosts are rejected — a zero boost is a term removal, a
        negative one would need must_not semantics."""
        if k <= 0 or not term_boosts:
            return []
        if any(b <= 0 for b in term_boosts.values()):
            raise ValueError("boosts must be positive; drop the term "
                             "or use search_boolean must_not instead")
        uterms = sorted(term_boosts)
        partials = self.term_partials(uterms)
        boosted = {t: (ids, sc * float(term_boosts[t]))
                   for t, (ids, sc) in partials.items()}
        return merge_partials([boosted], uterms, k)


class Searcher(QueryPlanner):
    """In-process transport: lazy per-shard loading, block-max WAND
    for top-k.  Used by tests, pipelines and as each shard actor's
    worker (``shard_subset``)."""

    def __init__(self, index_root: str, epoch: str | None = None,
                 shard_subset: list[int] | None = None):
        self._open_snapshot(index_root, epoch)
        self.k1 = self.manifest["bm25"]["k1"]
        self.b = self.manifest["bm25"]["b"]
        self.tomb_ids, self.tomb_seqs = mf.tombstone_index(self.manifest)
        self.tombstones = self.tomb_ids   # gate: any pending deletes?
        self.query_stats = WandStats()
        self._shards: dict[int, _ShardIndex] = {}
        self._subset = set(shard_subset) if shard_subset is not None else None
        base, self._delta_files = _segment_files(index_root, self.manifest)
        # part = shard * parts_per_shard + r: a base file (one part)
        # maps to shard part // pps, and each shard reads its parts'
        # contiguous rows of every delta record's file
        self._pps = self.manifest["parts_per_shard"]
        self._files_by_shard: dict[int, list[str]] = defaultdict(list)
        for f in base:
            self._files_by_shard[mf.part_of_file(f) // self._pps].append(f)
        # per-segment block-max hint base: segments copied verbatim
        # across compactions keep the avgdl their hints were computed
        # at; missing (older manifests) → the epoch's avgdl
        epoch_avgdl = float(self.manifest.get("avgdl") or 0.0)
        self._file_hints = {
            s["path"]: float(s.get("hint_avgdl") or epoch_avgdl)
            for s in self.manifest["segments"]}
        # delta segment file → record seq (base files default to 0)
        self._file_seqs = {f: d["seq"]
                           for d in self.manifest.get("deltas", [])
                           for f in d.get("segments", [])}

    def _shard(self, s: int) -> _ShardIndex:
        got = self._shards.get(s)
        if got is None:
            try:
                got = _ShardIndex(
                    self._files_by_shard.get(s, []),
                    (s * self._pps, (s + 1) * self._pps),
                    self._delta_files, self._file_hints, self._file_seqs)
            except FileNotFoundError as e:
                # shards open lazily: a shard first touched after this
                # snapshot's epoch was garbage-collected finds no files
                raise mf.EpochGone(
                    f"epoch {self.manifest['epoch']!r} of "
                    f"{self.index_root} was garbage-collected while this "
                    f"Searcher was pinned to it ({e.filename}); reopen the "
                    "Searcher on a live epoch") from e
            self._shards[s] = got
        return got

    def owns(self, shard: int) -> bool:
        return self._subset is None or shard in self._subset

    def _live_postings(self, shard: int, term: str):
        """(doc_ids, tfs, dls) with the sequenced-tombstone filter
        applied PER SOURCE: a tombstone at delta seq k kills only
        copies from sources < k, so a re-added doc's newer postings
        survive the tombstone that killed its older copy."""
        if len(self.tomb_ids) == 0:
            return self._shard(shard).postings(term)
        ids_l, tfs_l, dls_l = [], [], []
        for seq, ids, tfs, dls in self._shard(shard).postings_by_source(term):
            keep = mf.live_posting_mask(ids, seq, self.tomb_ids,
                                        self.tomb_seqs)
            if keep.all():
                ids_l.append(ids); tfs_l.append(tfs); dls_l.append(dls)
            elif keep.any():
                ids_l.append(ids[keep]); tfs_l.append(tfs[keep])
                dls_l.append(dls[keep])
        if not ids_l:
            z = np.empty(0, dtype=np.int64)
            return z, z, z
        return (np.concatenate(ids_l), np.concatenate(tfs_l),
                np.concatenate(dls_l))

    def term_raw_postings(self, term: str
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(live doc_ids, tfs, dls) for one term — THE routing rule
        (term_hash → shard → ownership → sequenced-tombstone filter)
        behind one public accessor, so federated/stat consumers never
        re-implement it.  Empty arrays when unowned or absent."""
        s = term_hash(term) % self.num_shards
        if not self.owns(s):
            e = np.empty(0, np.int64)
            return e, e, e
        return self._live_postings(s, term)

    def term_partials(self, terms: list[str]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """term → (live doc_ids, exact per-term scores) for the terms
        whose shard this searcher owns."""
        return {t: p[:2] for t, p in self.term_partials_dl(terms).items()}

    def term_partials_dl(self, terms: list[str]
                         ) -> dict[str, tuple[np.ndarray, np.ndarray,
                                              np.ndarray]]:
        """:meth:`term_partials` extended with each posting's document
        length — the transport for per-doc-dl consumers (terms_set,
        script_score)."""
        out = {}
        for term in terms:
            ids, tfs, dls = self.term_raw_postings(term)
            if len(ids) == 0:
                continue
            w = idf(len(ids), self.n_docs)
            out[term] = (ids,
                         w * tf_norm(tfs, dls, self.avgdl, self.k1,
                                     self.b),
                         dls)
        return out

    def explain(self, terms: list[str], doc_id: int
                ) -> dict[str, dict[str, float]]:
        """Score breakdown for one document (the ES ``_explain`` API):
        term → {tf, dl, df, idf, contribution} for every query term
        the doc matches (live postings only).  The contributions sum
        — in sorted-term order, the engine's accumulation order — to
        the doc's exact search() score; asserted in tests."""
        out: dict[str, dict[str, float]] = {}
        for term in sorted(set(terms)):
            s = term_hash(term) % self.num_shards
            if not self.owns(s):
                continue
            ids, tfs, dls = self._live_postings(s, term)
            # ids are NOT globally sorted once delta segments exist
            # (delta chunks concatenate after base chunks) — a linear
            # scan is exact and this is a single-doc diagnostics path
            hit = np.flatnonzero(ids == doc_id)
            if not len(hit):
                continue
            df = len(ids)
            w = idf(df, self.n_docs)
            contrib = float(w * tf_norm(tfs[hit], dls[hit], self.avgdl,
                                        self.k1, self.b)[0])
            out[term] = {"tf": float(tfs[hit][0]),
                         "dl": float(dls[hit][0]),
                         "df": float(df), "idf": float(w),
                         "contribution": contrib}
        return out

    def allowed_ids_for_field(self, field: str, value: str) -> np.ndarray:
        """Sorted live doc_ids whose stored docs-table ``field`` equals
        ``value`` — the filter bitset of a FILTERED ALIAS (ES
        alias-with-filter): one ``manifest.live_doc_rows`` read with
        the equality pushed down, liveness by the same sequenced-
        tombstone rule the posting read path applies (~8 B/doc
        collected).  The distributed variant for billion-doc filters
        is the map_batches scan of
        pipelines.fulltext._allowed_ids_by_lang plus this liveness
        rule."""
        import pyarrow.dataset as pads
        if field not in mf.ALIAS_FILTER_FIELDS:
            raise ValueError(f"filterable fields: {mf.ALIAS_FILTER_FIELDS}")
        t = mf.live_doc_rows(self.index_root, self.manifest, [],
                             pads.field(field) == value, missing="skip",
                             tombstones=(self.tomb_ids, self.tomb_seqs))
        return np.sort(t["doc_id"].to_numpy(zero_copy_only=False))

    def get_doc(self, repo: str, path: str) -> dict | None:
        """Fetch one live document's stored fields by identity key
        (the ES GET /_doc analog): one ``manifest.live_doc_rows`` read
        with the key pushed down; the newest live source wins."""
        import pyarrow.dataset as pads
        cols = mf.DOCS_COLUMNS + (["content"] if self.manifest.get(
            "store_source") else [])
        t = mf.live_doc_rows(
            self.index_root, self.manifest, cols,
            (pads.field("repo") == repo) & (pads.field("path") == path),
            missing="skip", tombstones=(self.tomb_ids, self.tomb_seqs))
        if not t.num_rows:
            return None
        return t.select(cols).slice(t.num_rows - 1).to_pylist()[0]

    def term_partials_for_docs(self, terms: list[str],
                               doc_ids_sorted: np.ndarray
                               ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Like :meth:`term_partials` but restricted to a candidate doc
        set — phase 3 of the distributed three-phase protocol: only
        |candidates| × |terms| contributions cross the wire, never the
        full posting lists."""
        out = {}
        cand = np.asarray(doc_ids_sorted, dtype=np.int64)
        for term in terms:
            s = term_hash(term) % self.num_shards
            if not self.owns(s):
                continue
            ids, tfs, dls = self._live_postings(s, term)
            if len(ids) == 0:
                continue
            # df/idf from the FULL live posting list (identical to
            # term_partials), contributions only for the candidates
            w = idf(len(ids), self.n_docs)
            keep = isin_sorted(ids, cand)
            ids, tfs, dls = ids[keep], tfs[keep], dls[keep]
            if len(ids):
                out[term] = (ids, w * tf_norm(tfs, dls, self.avgdl,
                                              self.k1, self.b))
        return out

    def term_doc_positions(self, term: str,
                           candidates: np.ndarray | None = None
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(doc_ids, per-doc offsets, flat absolute positions) for one
        term's LIVE postings (sequenced-tombstone filter applied like
        :meth:`_live_postings`, with each killed doc's position run
        dropped via a repeat-mask — no per-doc loop).

        ``candidates`` (sorted doc_id array) is the phrase-path
        pushdown: chunks whose doc set misses the candidates entirely
        skip the position decode altogether, and surviving chunks keep
        only candidate docs' position runs — a hot term salted across
        many sub-lists decodes only the sub-lists the (rare-term-
        bounded) candidate set actually touches."""
        s = term_hash(term) % self.num_shards
        if not self.owns(s):
            return (np.empty(0, np.int64), np.zeros(1, np.int64),
                    np.empty(0, np.int64))
        shard = self._shard(s)
        ids_l, tf_l, flat_l = [], [], []
        for ti, ri in shard.locs(term):
            seq = shard._seqs[ti]
            ids, tfs, _dls = shard._decode_row(ti, ri)
            keep = None
            if len(self.tomb_ids):
                keep = mf.live_posting_mask(ids, seq, self.tomb_ids,
                                            self.tomb_seqs)
            if candidates is not None:
                in_cand = isin_sorted(ids, candidates)
                keep = in_cand if keep is None else (keep & in_cand)
            if keep is not None and not keep.any():
                continue                # skip the position decode
            if keep is None or keep.all():
                flat, _offs = shard._positions_row(ti, ri)
            else:
                flat = shard._positions_subset(ti, ri, keep, tfs)
                ids, tfs = ids[keep], tfs[keep]
            ids_l.append(ids); tf_l.append(tfs); flat_l.append(flat)
        if not ids_l:
            return (np.empty(0, np.int64), np.zeros(1, np.int64),
                    np.empty(0, np.int64))
        ids = np.concatenate(ids_l)
        tfs = np.concatenate(tf_l)
        flat = np.concatenate(flat_l)
        offs = np.concatenate(([0], np.cumsum(tfs)))
        return ids, offs, flat

    def _stored_df(self, term: str) -> int:
        """Stored (tombstone-blind) chunk-df sum from resident segment
        metadata — the rarest-first ordering heuristic of the
        positional query family.  Never decodes postings; with pending
        tombstones it can overcount, which only perturbs the decode
        ORDER, never a result."""
        s = term_hash(term) % self.num_shards
        if not self.owns(s):
            return 0
        return sum(c["df"] for c in self._shard(s).chunk_meta(term))

    def term_doc_ids(self, terms: list[str]) -> dict[str, np.ndarray]:
        """term → sorted unique live doc_ids (empty when unowned)."""
        return {t: np.unique(self.term_raw_postings(t)[0]) for t in terms}

    def term_dfs(self, terms: list[str]) -> dict[str, int]:
        """term → live df (:meth:`term_df`, dictionary-only when no
        deletes are pending)."""
        return {t: self.term_df(t) for t in terms}

    def term_total_tfs(self, terms: list[str]) -> dict[str, int]:
        """term → total live occurrence count (sum of tfs) — the
        unigram count of the phrase-suggester language model."""
        return {t: int(self.term_raw_postings(t)[1].sum()) for t in terms}

    def term_positions(self, terms: list[str],
                       candidates: np.ndarray | None = None) -> dict:
        """term → :meth:`term_doc_positions` (candidate-restricted)."""
        return {t: self.term_doc_positions(t, candidates) for t in terms}

    def _phrase_docs(self, slots: list[str], cand: np.ndarray,
                     expand: dict[str, list[str]] | None = None
                     ) -> np.ndarray:
        """Lazy in-process form of :meth:`QueryPlanner._phrase_docs`:
        rarest-term-first, each term's position blobs decode against
        the candidate set SURVIVING the rarer slots' key intersection,
        so a hot term's chunks are skipped wherever a rare term has
        already eliminated the docs (the BASELINE.md positions-tail
        optimization).  Expansion slots run LAST, against the set the
        fixed slots already narrowed."""
        expand = expand or {}

        def fetch(t, alive):
            if t in expand:
                return merge_position_sets(
                    [self.term_doc_positions(e, alive) for e in expand[t]])
            return self.term_doc_positions(t, alive)

        fixed = {s for s in slots if s not in expand}
        order = (sorted(fixed, key=lambda t: (self._stored_df(t), t))
                 + sorted(expand))
        return phrase_match_docs_lazy(fetch, slots, cand, order)

    def search_filtered(self, terms: list[str], k: int,
                        allowed_doc_ids, operator: str = "or"
                        ) -> list[tuple[int, float]]:
        """:meth:`QueryPlanner.search_filtered`, with disjunctive
        queries pushing the filter INTO block-max WAND
        (wand.search_wand ``allowed``): non-allowed docs are skipped
        without scoring while pruning bounds stay full-index — whole
        chunks a selective filter never reaches are skipped without
        decode.  Same tombstone gate as :meth:`search` (stored df /
        bounds unsound while deletes pend → exhaustive restricted
        path)."""
        if (operator == "and" or len(self.tombstones) or k <= 0
                or not terms):
            return super().search_filtered(terms, k, allowed_doc_ids,
                                           operator)
        allowed = np.unique(np.asarray(allowed_doc_ids, dtype=np.int64))
        if allowed.size == 0:
            return []
        return self.search_wand(sorted(set(terms)), k, allowed=allowed)

    def vocabulary(self) -> list[str]:
        """Sorted union of the index's terms across owned shards —
        dictionary-only (term columns are already memory-resident per
        shard; no posting decode).  Feeds prefix/fuzzy query
        expansion.  Built once per snapshot (cached).  Prefix
        expansion binary-searches this sorted array
        (O(log V + matches)); fuzzy at max_edits=1 looks up a
        deletion-neighborhood index (also snapshot-cached) and only
        falls back to a linear scan for larger edit distances."""
        if self._vocab is None:
            out: set[str] = set()
            for sh in range(self.num_shards):
                if self.owns(sh):
                    out.update(self._shard(sh).terms())
            self._vocab = sorted(out)
        return self._vocab

    def term_df(self, term: str) -> int:
        """LIVE document frequency of one term.  Dictionary-only
        (chunk df sums — no posting decode) on a tombstone-free
        snapshot, where base and delta doc sets are disjoint (a re-add
        of a live key is either a no-op upsert or tombstone+re-add);
        with deletes pending the stored dfs are stale, so the live
        postings are decoded instead."""
        s = term_hash(term) % self.num_shards
        if not self.owns(s):
            return 0
        if len(self.tombstones):
            ids, _, _ = self._live_postings(s, term)
            return len(ids)
        return sum(c["df"] for c in self._shard(s).chunk_meta(term))

    def msearch(self, queries: list[list[str]], k: int = 10
                ) -> list[list[tuple[int, float]]]:
        """Multi-search (ES ``_msearch``): in-process form — shared
        terms hit the decode LRU once; results are exactly
        ``[search(q, k) for q in queries]``."""
        return [self.search(q, k) for q in queries]

    def search(self, terms: list[str], k: int = 10,
               operator: str = "or") -> list[tuple[int, float]]:
        """Top-k (doc_id, score).  Uses the block-max WAND path when it
        is exact-equivalent: pending tombstones make the live df (hence
        idf) unknowable without decoding, so while deletes await
        compaction the exhaustive path runs instead.

        ``operator="and"`` scores only documents containing EVERY
        query term (ES ``operator: and``); idf still uses full-index
        df, so scores of surviving docs equal their disjunctive
        scores — conjunction filters, it does not rescale."""
        if k <= 0:
            return []
        uterms = sorted(set(terms))
        if operator == "and":
            return merge_partials_conjunctive(
                [self.term_partials(uterms)], uterms, k)
        if len(self.tombstones):
            return merge_partials([self.term_partials(uterms)], uterms, k)
        return self.search_wand(uterms, k)

    def search_wand(self, uterms: list[str], k: int,
                    stats=None, allowed: np.ndarray | None = None
                    ) -> list[tuple[int, float]]:
        if len(self.tombstones):
            # stored df (hence idf) and chunk block maxes include the
            # tombstoned docs — WAND over them is unsound; search()
            # gates this automatically, direct callers get told why
            raise ValueError(
                "pending tombstones make stored df/chunk bounds "
                "unsound for WAND; use search() (exhaustive fallback) "
                "until compaction")
        if stats is None:
            # cumulative per-searcher pruning counters (query metrics,
            # north_star) — read via .query_stats.as_dict()
            stats = self.query_stats
        term_chunks: dict[str, tuple[float, list[dict]]] = {}
        for term in uterms:
            s = term_hash(term) % self.num_shards
            if not self.owns(s):
                continue
            chunks = self._shard(s).chunk_meta(term)
            if not chunks:
                continue
            df = sum(c["df"] for c in chunks)
            term_chunks[term] = (idf(df, self.n_docs), chunks)
        # module attribute looked up per call, so a tracing wrapper
        # installed on wand.search_wand sees every call
        return wand.search_wand(
            term_chunks, k, self.n_docs, self.avgdl,
            self.manifest.get("avgdl") or self.avgdl, self.k1, self.b,
            block_size=self.manifest.get("block_size", 128), stats=stats,
            merge_cache=wand.CACHE, allowed=allowed)


def _deletions1(t: str) -> set[str]:
    """The term plus every string reachable by deleting one char."""
    return {t} | {t[:i] + t[i + 1:] for i in range(len(t))}


def prefix_terms(vocab: list[str], prefix: str) -> list[str]:
    """The contiguous prefix run of a SORTED vocabulary:
    O(log V) bisect to its start, O(|matches|) walk."""
    import bisect
    lo = bisect.bisect_left(vocab, prefix)
    hi = lo
    while hi < len(vocab) and vocab[hi].startswith(prefix):
        hi += 1
    return vocab[lo:hi]


def wildcard_regex(pattern: str) -> str:
    """Translate an ES wildcard pattern (``*`` = any run, ``?`` = one
    char) into an anchored-regex SOURCE string.  The same string is
    used verbatim by Python's ``re.fullmatch`` (engine side) and
    DuckDB's ``regexp_full_match`` (oracle side); the emitted subset
    (escaped literals, ``.``, ``.*``) means the two regex dialects
    cannot disagree."""
    import re
    out = []
    for ch in pattern:
        if ch == "*":
            out.append(".*")
        elif ch == "?":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return "".join(out)


def wildcard_terms(vocab: list[str], pattern: str) -> list[str]:
    """Dictionary terms matching an ES wildcard pattern.  The literal
    prefix before the first metacharacter narrows the scan to its
    contiguous run of the SORTED vocabulary (a `mer*`-style pattern
    never walks the whole dictionary); a leading wildcard degrades to
    a full scan of the memory-resident term list."""
    import re
    i = min((pattern.index(c) for c in "*?" if c in pattern),
            default=len(pattern))
    cands = prefix_terms(vocab, pattern[:i]) if i else vocab
    rx = re.compile(wildcard_regex(pattern))
    return [t for t in cands if rx.fullmatch(t)]


def regexp_terms(vocab: list[str], pattern: str) -> list[str]:
    """Dictionary terms fully matching ``pattern`` (the ES regexp
    query is implicitly anchored — so is this).  Linear scan of the
    memory-resident dictionary; at scale the scan runs per shard actor
    over its own (smaller) term list, and the caller unions.  A
    malformed pattern raises ValueError (clean, driver-side) rather
    than leaking re.error from inside a query path."""
    import re
    try:
        rx = re.compile(pattern)
    except re.error as e:
        raise ValueError(f"bad regexp pattern {pattern!r}: {e}") from e
    return [t for t in vocab if rx.fullmatch(t)]


def build_deletion_index(vocab: list[str]) -> dict[str, list[str]]:
    """variant → vocabulary terms whose single-deletion neighborhood
    contains it.  Built lazily ONCE per snapshot on the first fuzzy
    query (a memory-for-latency trade); ~len(term) entries per
    term."""
    idx: dict[str, list[str]] = {}
    for t in vocab:
        for v in _deletions1(t):
            idx.setdefault(v, []).append(t)
    return idx


def fuzzy_terms(vocab: list[str], term: str, max_edits: int,
                del_index_fn=None) -> list[str]:
    """Dictionary terms within plain Levenshtein ``max_edits`` of
    ``term``.  With ``max_edits == 1`` and a deletion-index supplier,
    candidates come from the SymSpell deletion-neighborhood property
    (two strings within distance 1 share a string reachable by at
    most one deletion from each) and are then exactly verified —
    O(len) lookups instead of a vocabulary scan."""
    if max_edits == 1 and del_index_fn is not None:
        idx = del_index_fn()
        cand: set[str] = set()
        for v in _deletions1(term):
            cand.update(idx.get(v, ()))
        return sorted(t for t in cand if _levenshtein_le(term, t, 1))
    return [t for t in vocab if _levenshtein_le(term, t, max_edits)]


def _levenshtein_le(a: str, b: str, cap: int) -> bool:
    """True iff plain Levenshtein distance (unit insert/delete/
    substitute, NO transposition — DuckDB's levenshtein()) ≤ cap.
    Banded DP: O(len·cap) and early-exits when a row exceeds cap."""
    if abs(len(a) - len(b)) > cap:
        return False
    if a == b:
        return True
    lb = len(b)
    inf = cap + 1   # any cell > cap behaves identically; clamp there
    prev = [j if j <= cap else inf for j in range(lb + 1)]
    for i, ca in enumerate(a, start=1):
        # only cells with |i - j| <= cap can end <= cap: compute the
        # band, leave the rest at the clamp value
        lo, hi = max(1, i - cap), min(lb, i + cap)
        cur = [inf] * (lb + 1)
        if i <= cap:
            cur[0] = i
        best = cur[0]   # j=0 (deleting all of a[:i]) is a band cell
        for j in range(lo, hi + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (ca != b[j - 1]))
            best = min(best, cur[j])
        if best > cap:
            return False
        prev = cur
    return prev[-1] <= cap


def tokenizer_from_manifest(manifest: dict):
    """The index's OWN tokenizer, reconstructed from the manifest —
    the one rule for anything that re-analyzes text against a built
    index (more_like_this seed analysis, the CLI's analyzer)."""
    from mee_ray.config import config_from_manifest
    from mee_ray.tokenizer import Tokenizer
    return Tokenizer(config_from_manifest(manifest).tokenizer)


def _gather_accumulate(partials_list: list[dict], terms: list[str]):
    """The shared merge preamble: gather per-term partial vectors in
    SORTED-TERM order (the determinism contract — concatenation order
    IS the float addition order of np.add.at) and accumulate per-doc
    sums.  Returns (uniq_ids, inverse, acc_sums, all_scores), or None
    when no term has postings."""
    ids_l, sc_l = [], []
    for term in sorted(set(terms)):
        for partials in partials_list:
            got = partials.get(term)
            if got is not None:
                ids_l.append(got[0]); sc_l.append(got[1])
    if not ids_l:
        return None
    all_ids = np.concatenate(ids_l)
    all_sc = np.concatenate(sc_l)
    uniq, inv = np.unique(all_ids, return_inverse=True)
    acc = np.zeros(len(uniq), dtype=np.float64)
    np.add.at(acc, inv, all_sc)
    return uniq, inv, acc, all_sc


def _accumulate_with_dl(partials: dict, terms: list[str]):
    """:func:`_gather_accumulate` with per-doc document length: the
    partial vectors are ``(ids, scores, dls)`` triples and the result
    is ``(uniq_ids, acc_sums, distinct_match_counts, doc_dls)`` — or
    ``None`` when no term has postings.  Same sorted-term
    concatenation order (the bit-identity determinism contract)."""
    got = [partials[t] for t in sorted(set(terms)) if t in partials]
    if not got:
        return None
    ids_l, sc_l, dl_l = zip(*got)
    all_ids = np.concatenate(ids_l)
    all_sc = np.concatenate(sc_l)
    all_dl = np.concatenate(dl_l)
    uniq, inv = np.unique(all_ids, return_inverse=True)
    acc = np.zeros(len(uniq), dtype=np.float64)
    np.add.at(acc, inv, all_sc)
    cnt = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(cnt, inv, 1)
    doc_dl = np.zeros(len(uniq), dtype=np.int64)
    doc_dl[inv] = all_dl   # dl identical for every entry of a doc
    return uniq, acc, cnt, doc_dl


def merge_partials(partials_list: list[dict], terms: list[str], k: int,
                   exclude_sorted: np.ndarray | None = None,
                   min_match: int = 1,
                   after: tuple[int, float] | None = None
                   ) -> list[tuple[int, float]]:
    """Merge per-term partial score vectors (possibly from several
    shard actors) into the global top-k. Accumulation is per-doc in
    sorted-term order — the determinism contract.

    ``exclude_sorted`` (sorted int64 doc_ids) drops those docs AFTER
    accumulation and BEFORE top-k selection — the must_not branch of a
    boolean query: exclusion filters the result set, it never rescales
    the survivors' scores.

    ``min_match`` > 1 keeps only docs matching at least that many
    DISTINCT query terms (ES minimum_should_match) — survivors keep
    their full disjunctive scores (match-count filters, it never
    rescales).  The entry count per doc equals its distinct-term match
    count because each term is owned by exactly ONE shard and appears
    at most once per doc in that shard's partial vector.

    ``after`` = a (doc_id, score) cursor — the shape of a RESULT row,
    so the previous page's last tuple is passed verbatim: only docs
    STRICTLY after it in the (-score, doc_id) ranking order survive
    to the top-k (the search_after pagination filter).  Applied to
    exact accumulated scores, so a page boundary can never duplicate
    or drop a doc even inside an exact-score tie run."""
    gathered = _gather_accumulate(partials_list, terms)
    if gathered is None:
        return []
    uniq, inv, acc, all_sc = gathered
    if min_match > 1:
        cnt = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(cnt, inv, 1)
        keep = cnt >= min_match
        uniq, acc = uniq[keep], acc[keep]
        if uniq.size == 0:
            return []
    if after is not None:
        c_d, c_s = int(after[0]), float(after[1])
        keep = (acc < c_s) | ((acc == c_s) & (uniq > c_d))
        uniq, acc = uniq[keep], acc[keep]
        if uniq.size == 0:
            return []
    if exclude_sorted is not None and exclude_sorted.size and uniq.size:
        keep = ~isin_sorted(uniq, exclude_sorted)
        uniq, acc = uniq[keep], acc[keep]
        if uniq.size == 0:
            return []
    ids, scores = top_k_select(uniq, acc, k)
    return list(zip(ids.tolist(), scores.tolist()))


def phrase_match_docs_lazy(fetch, terms: list[str], cand: np.ndarray,
                           order: list[str]) -> np.ndarray:
    """Docs containing ``terms`` at consecutive positions, in order.

    ``cand`` (sorted docs holding every unique term) maps to dense
    ranks; slot i contributes composite keys ``rank << 32 | (pos - i)``
    and a hit is a key surviving intersection across all slots — fully
    vectorized (ranks, not raw doc_ids, because doc_ids are 63-bit
    hashes that cannot pack beside a position in 64 bits).  Keys are
    uint64 with explicit bound checks: ranks and positions each get
    32 bits, and exceeding either is an error, never silent key
    aliasing.

    Slot-key intersection is commutative, so the unique slot terms run
    in ``order`` and each one's positions come from
    ``fetch(term, alive_sorted)`` → (doc_ids, offsets, flat positions)
    restricted to (a superset of) the candidates SURVIVING the earlier
    slots: run rarest first, hot terms skip the position decode for
    every chunk the rarer slots already emptied."""
    empty = np.empty(0, dtype=np.int64)
    if not terms:
        return empty
    if cand.size >= (1 << 32):
        raise NotImplementedError(
            "phrase candidate set exceeds 2^32 docs — partition the "
            "candidate space before key packing")
    slots: dict[str, list[int]] = {}
    for i, t in enumerate(terms):
        slots.setdefault(t, []).append(i)
    keys = None
    alive = cand
    for t in order:
        ids, offs, flat = fetch(t, alive)
        if ids.size == 0:
            return empty
        tfs = np.diff(offs)
        pos_c, keep = positions_in_sorted(ids, cand)
        rank_rep = np.repeat(pos_c[keep], tfs[keep])
        flat_k = flat[np.repeat(keep, tfs)]
        if flat_k.size and int(flat_k.max()) >= (1 << 32):
            raise ValueError("term position exceeds 2^32 — cannot pack "
                             "beside the candidate rank")
        for i in slots[t]:
            ok = flat_k >= i          # a phrase cannot start before 0
            kk = ((rank_rep[ok].astype(np.uint64) << np.uint64(32))
                  | (flat_k[ok] - i).astype(np.uint64))
            keys = kk if keys is None else np.intersect1d(keys, kk)
            if keys.size == 0:
                return empty
        alive = cand[np.unique(keys >> np.uint64(32)).astype(np.int64)]
    return alive


def merge_position_sets(parts: list[tuple]) -> tuple:
    """Union several terms' (doc_ids, offsets, flat positions) sets
    into ONE pseudo-slot for the phrase matcher — (doc, pos) pairs
    concatenated, lexsorted, rebuilt as run offsets.  Distinct terms
    occupy distinct positions within a doc, so no dedup is needed."""
    doc_parts, pos_parts = [], []
    for ids_e, offs_e, flat_e in parts:
        if ids_e.size:
            doc_parts.append(np.repeat(ids_e, np.diff(offs_e)))
            pos_parts.append(flat_e)
    if not doc_parts:
        return (np.empty(0, np.int64), np.zeros(1, np.int64),
                np.empty(0, np.int64))
    docs_all = np.concatenate(doc_parts)
    pos_all = np.concatenate(pos_parts)
    order = np.lexsort((pos_all, docs_all))
    docs_all, pos_all = docs_all[order], pos_all[order]
    uniq_docs, first = np.unique(docs_all, return_index=True)
    offs = np.concatenate((first, [len(docs_all)])).astype(np.int64)
    return uniq_docs, offs, pos_all


def span_not_match_docs(inc: tuple, exc: tuple, dist: int) -> np.ndarray:
    """Sorted doc_ids with ≥1 ``include`` occurrence having no
    ``exclude`` occurrence within ``dist`` positions.

    ``inc``/``exc``: (doc_ids, per-doc offsets, flat ascending
    positions) as returned by ``term_doc_positions``.  Docs absent
    from ``exc`` match outright.  For docs holding both terms, every
    include occurrence is checked against only its two nearest
    exclude positions (one searchsorted over composite
    ``rank·2³² + pos`` keys — positions are token indexes, far below
    2³²; runs are ascending so keys are globally sorted)."""
    inc_ids, inc_off, inc_pos = inc
    exc_ids, exc_off, exc_pos = exc
    if inc_ids.size == 0:
        return np.empty(0, dtype=np.int64)
    if exc_ids.size == 0:
        return np.sort(inc_ids)
    # doc runs are not globally id-sorted once delta chunks exist
    # (delta chunks concatenate after base chunks) — the searchsorted
    # mapping below needs sorted exclude ids, so permute its runs
    exc_ids, exc_off, exc_pos = _sort_runs(exc_ids, exc_off, exc_pos)
    p = np.minimum(np.searchsorted(exc_ids, inc_ids), exc_ids.size - 1)
    has_exc = exc_ids[p] == inc_ids
    out = [inc_ids[~has_exc]]
    shared = np.nonzero(has_exc)[0]
    if shared.size:
        B = np.int64(1) << np.int64(32)
        if inc_pos.size and int(inc_pos.max()) >= int(B):
            raise ValueError("token position exceeds 32-bit key budget")
        inc_cnt = (inc_off[shared + 1] - inc_off[shared])
        exc_run = p[shared]
        exc_cnt = (exc_off[exc_run + 1] - exc_off[exc_run])
        rank = np.arange(shared.size, dtype=np.int64)
        # gather the shared docs' position runs
        i_take = _runs_take(inc_off, shared)
        e_take = _runs_take(exc_off, exc_run)
        ik = np.repeat(rank, inc_cnt) * B + inc_pos[i_take]
        ek = np.repeat(rank, exc_cnt) * B + exc_pos[e_take]
        ins = np.searchsorted(ek, ik)
        veto = np.zeros(ik.size, dtype=bool)
        left_ok = ins > 0
        li = np.maximum(ins - 1, 0)
        veto |= left_ok & (ek[li] // B == ik // B) \
            & (ik - ek[li] <= dist)
        right_ok = ins < ek.size
        ri = np.minimum(ins, ek.size - 1)
        veto |= right_ok & (ek[ri] // B == ik // B) \
            & (ek[ri] - ik <= dist)
        # doc matches if ANY occurrence survives
        doc_of = np.repeat(np.arange(shared.size), inc_cnt)
        survive = np.zeros(shared.size, dtype=bool)
        np.logical_or.at(survive, doc_of, ~veto)
        out.append(inc_ids[shared[survive]])
    return np.sort(np.concatenate(out))


def _runs_take(offsets: np.ndarray, runs: np.ndarray) -> np.ndarray:
    """Flat indices selecting the given runs from an offsets-encoded
    ragged array (vectorized: one repeat + cumsum, no per-run loop)."""
    starts = offsets[runs]
    counts = offsets[runs + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    first = np.repeat(starts, counts)
    bounds = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.int64)
    within = np.arange(total, dtype=np.int64) - np.repeat(bounds, counts)
    return first + within


def _bigram_count_runs(a: tuple, b: tuple) -> int:
    """Adjacency count core of the phrase suggester: given two
    (doc_ids, offsets, flat ascending
    positions) triples, the number of (doc, p) with the first term at
    p and the second at p+1 — composite rank·2³²+pos key intersection
    per common doc, fully vectorized."""
    a = _sort_runs(*a)
    b = _sort_runs(*b)
    if not a[0].size or not b[0].size:
        return 0
    common, ia, ib = np.intersect1d(a[0], b[0], return_indices=True)
    if not common.size:
        return 0
    B = np.int64(1) << np.int64(32)
    rank = np.arange(common.size, dtype=np.int64)
    ta = _runs_take(a[1], ia)
    tb = _runs_take(b[1], ib)
    ca = a[1][ia + 1] - a[1][ia]
    cb = b[1][ib + 1] - b[1][ib]
    k1 = np.repeat(rank, ca) * B + (a[2][ta] + 1)
    k2 = np.repeat(rank, cb) * B + b[2][tb]
    return int(np.intersect1d(k1, k2).size)


def _lm_score_slots(slots: list[list[str]], uni: dict, bi: dict,
                    total: int, n: int, backoff: float
                    ) -> list[tuple[float, list[str]]]:
    """Stupid-backoff bigram LM scoring over candidate slots (counts
    are integers, so equal inputs give bit-equal scores)."""
    import itertools
    import math

    scored = []
    for combo in itertools.product(*slots):
        sc = math.log(uni[combo[0]] / total)
        for w1, w2 in zip(combo, combo[1:]):
            cb = bi[(w1, w2)]
            if cb > 0:
                sc += math.log(cb / uni[w1])
            else:
                sc += math.log(backoff * uni[w2] / total)
        scored.append((round(sc, 10), list(combo)))
    scored.sort(key=lambda x: (-x[0], x[1]))
    return scored[:n]


def _sort_runs(ids: np.ndarray, off: np.ndarray, pos: np.ndarray):
    """Permute an offsets-encoded ragged array so its runs are in
    ascending doc_id order (no-op when already sorted)."""
    if ids.size <= 1 or bool(np.all(ids[:-1] <= ids[1:])):
        return ids, off, pos
    order = np.argsort(ids, kind="stable")
    take = _runs_take(off, order)
    counts = off[order + 1] - off[order]
    new_off = np.concatenate(
        ([0], np.cumsum(counts))).astype(np.int64)
    return ids[order], new_off, pos[take]


def span_near_match_docs(data: dict, terms: list[str], slop: int
                         ) -> np.ndarray:
    """Docs matching an ORDERED proximity query (the Lucene/ES
    ``span_near`` with ``in_order=true`` shape; reference delegates
    proximity to ES): ``terms`` occur left-to-right with at most
    ``slop`` intervening tokens between each CONSECUTIVE pair —
    ``slop=0`` is exactly the phrase predicate.

    Same uint64 ``rank << 32 | pos`` key packing as
    :func:`phrase_match_docs_lazy`; instead of aligning every slot to one
    shared anchor, the REACHABLE-position set is propagated left to
    right: step i expands each reachable position by gaps
    ``1..slop+1`` and intersects with term i's keys, so work is
    O((slop+1) · positions-in-candidates) and fully vectorized — no
    per-doc loop."""
    if slop < 0:
        raise ValueError(f"slop must be >= 0, got {slop}")
    empty = np.empty(0, dtype=np.int64)
    uterms = sorted(set(terms))
    if not uterms:
        return empty
    cand = None
    for t in uterms:
        ids = data[t][0]
        if ids.size == 0:
            return empty
        cand = np.unique(ids) if cand is None else np.intersect1d(cand, ids)
        if cand.size == 0:
            return empty
    if cand.size >= (1 << 32):
        raise NotImplementedError(
            "span_near candidate set exceeds 2^32 docs — partition "
            "the candidate space before key packing")

    gaps = np.arange(1, slop + 2, dtype=np.uint64)
    reach: np.ndarray | None = None
    for i, t in enumerate(terms):
        keys = _packed_slot_keys(data, t, cand, slop)
        if i == 0:
            reach = np.unique(keys)
        else:
            expanded = (reach[:, None] + gaps).ravel()
            reach = np.intersect1d(expanded, keys)
        if reach.size == 0:
            return empty
    return cand[np.unique(reach >> np.uint64(32)).astype(np.int64)]


def _packed_slot_keys(data: dict, t: str, cand: np.ndarray, slop: int
                      ) -> np.ndarray:
    """One term's occurrences in the candidate docs as packed
    ``rank << 32 | pos`` uint64 keys — the shared packing of the
    positional kernels (rank = index into sorted ``cand``)."""
    ids, offs, flat = data[t]
    tfs = np.diff(offs)
    pos_c, keep = positions_in_sorted(ids, cand)
    rank_rep = np.repeat(pos_c[keep], tfs[keep])
    flat_k = flat[np.repeat(keep, tfs)]
    if flat_k.size and int(flat_k.max()) + slop + 1 >= (1 << 32):
        raise ValueError("term position + slop exceeds 2^32 — cannot "
                         "pack beside the candidate rank")
    return ((rank_rep.astype(np.uint64) << np.uint64(32))
            | flat_k.astype(np.uint64))


_POS_MASK = np.uint64((1 << 32) - 1)


def span_near_spans(data: dict, terms: list[str], slop: int,
                    cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every matching span_near chain END over the candidate docs,
    with its EARLIEST feasible chain start: ``(end_keys, min_starts)``
    — end_keys sorted packed ``rank << 32 | end_pos`` uint64, and
    min_starts the parallel uint64 start positions.  The widest span
    per end covers every narrower span ending there, so containment
    tests need only these.  Same left-to-right reachable-set
    propagation as :func:`span_near_match_docs`, carrying a parallel
    min-start value: duplicate expanded keys collapse to their
    minimum start (lexsort + first-occurrence), fully vectorized."""
    if slop < 0:
        raise ValueError(f"slop must be >= 0, got {slop}")
    empty = (np.empty(0, np.uint64), np.empty(0, np.uint64))
    if cand.size >= (1 << 32):
        raise NotImplementedError(
            "span candidate set exceeds 2^32 docs — partition the "
            "candidate space before key packing")
    gaps = np.arange(1, slop + 2, dtype=np.uint64)
    reach: np.ndarray | None = None
    start: np.ndarray | None = None
    for i, t in enumerate(terms):
        keys = _packed_slot_keys(data, t, cand, slop)
        if i == 0:
            reach = np.unique(keys)
            start = reach & _POS_MASK
        else:
            expanded = (reach[:, None] + gaps).ravel()
            exp_start = np.repeat(start, gaps.size)
            order = np.lexsort((exp_start, expanded))
            expanded, exp_start = expanded[order], exp_start[order]
            first = np.ones(len(expanded), dtype=bool)
            first[1:] = expanded[1:] != expanded[:-1]
            expanded, exp_start = expanded[first], exp_start[first]
            sel = isin_sorted(expanded, np.unique(keys))
            reach, start = expanded[sel], exp_start[sel]
        if reach.size == 0:
            return empty
    return reach, start


def span_containing_match_docs(data: dict, big_terms: list[str],
                               slop: int, little: str) -> np.ndarray:
    """Sorted doc_ids where some ``span_near(big_terms, slop)`` span
    contains an occurrence of ``little`` (ES ``span_containing``:
    little within [span start, span end], boundary positions
    inclusive — an overlapping occurrence counts, matching Lucene's
    span-overlap containment).

    Per candidate rank the spans ending at ``e`` are summarized by
    the widest one ``[min_start(e), e]`` (it contains every narrower
    span's positions), so ``little`` at ``p`` is contained iff some
    end ``e ≥ p`` in the same doc has ``min_start(e) ≤ p``.  One
    reversed ``minimum.accumulate`` over packed ``rank << 32 |
    min_start`` gives the suffix minimum (later docs' rank bits
    dominate, so the minimum never leaks across docs), and one
    searchsorted per little occurrence answers the exists-test."""
    empty = np.empty(0, dtype=np.int64)
    uterms = sorted(set(big_terms) | {little})
    cand = None
    for t in uterms:
        ids = data[t][0]
        if ids.size == 0:
            return empty
        cand = (np.unique(ids) if cand is None
                else np.intersect1d(cand, ids))
        if cand.size == 0:
            return empty
    ends, starts = span_near_spans(data, big_terms, slop, cand)
    if ends.size == 0:
        return empty
    little_keys = np.unique(_packed_slot_keys(data, little, cand, 0))
    if little_keys.size == 0:
        return empty
    packed_starts = (ends & ~_POS_MASK) | starts
    suffmin = np.minimum.accumulate(packed_starts[::-1])[::-1]
    idx = np.searchsorted(ends, little_keys, side="left")
    ok = idx < len(ends)
    lk, sm = little_keys[ok], suffmin[idx[ok]]
    contained = ((sm >> np.uint64(32)) == (lk >> np.uint64(32))) \
        & ((sm & _POS_MASK) <= (lk & _POS_MASK))
    if not contained.any():
        return empty
    ranks = np.unique(lk[contained] >> np.uint64(32)).astype(np.int64)
    return cand[ranks]


def intervals_match_docs(data: dict, terms: list[str], max_gaps: int,
                         ordered: bool) -> np.ndarray:
    """Docs matching an ES ``intervals`` match rule (reference
    delegates interval queries to ES) over DISTINCT ``terms``: one
    occurrence of every term inside a window whose TOTAL gap count
    (window width minus ``len(terms)``) is at most ``max_gaps``;
    ``ordered=True`` additionally requires the occurrences
    left-to-right in query order.  Unlike :func:`span_near_match_docs`
    the gap budget is shared across the whole interval, not spent per
    consecutive pair.

    Fully vectorized, same ``rank << 32 | pos`` packing as the other
    positional kernels:

    * ordered — left-to-right propagation of the LATEST feasible chain
      start: slot i's occurrence at key ``k`` inherits
      ``max(best_start)`` over slot i-1 occurrences strictly before
      ``k`` in the same doc.  One searchsorted plus one
      ``maximum.accumulate`` over composite ``rank<<32 | best`` values
      per step — the accumulate never leaks across docs because a
      later doc's rank bits dominate any earlier best.  A doc matches
      when some last-slot occurrence ``p`` has
      ``p - best_start(p) <= len(terms)-1 + max_gaps``.
    * unordered — every occurrence is a candidate window END; each
      term's latest occurrence ``<=`` that end in the same doc
      (searchsorted ``side='right'``) yields the minimal covering
      window, which matches when
      ``end - min(latest_occ) <= len(terms)-1 + max_gaps``.
    """
    if max_gaps < 0:
        raise ValueError(f"max_gaps must be >= 0, got {max_gaps}")
    empty = np.empty(0, dtype=np.int64)
    if not terms:
        return empty
    if len(set(terms)) != len(terms):
        raise ValueError("intervals terms must be distinct")
    cand = None
    for t in terms:
        ids = data[t][0]
        if ids.size == 0:
            return empty
        cand = np.unique(ids) if cand is None else np.intersect1d(cand, ids)
        if cand.size == 0:
            return empty
    if cand.size >= (1 << 32):
        raise NotImplementedError(
            "intervals candidate set exceeds 2^32 docs — partition "
            "the candidate space before key packing")

    def slot_keys(t: str) -> np.ndarray:
        ids, offs, flat = data[t]
        tfs = np.diff(offs)
        pos_c, keep = positions_in_sorted(ids, cand)
        rank_rep = np.repeat(pos_c[keep], tfs[keep])
        flat_k = flat[np.repeat(keep, tfs)]
        if flat_k.size and int(flat_k.max()) >= (1 << 32):
            raise ValueError("term position exceeds 2^32 — cannot "
                             "pack beside the candidate rank")
        # globally sorted keys: the searchsorteds below need them
        return np.sort((rank_rep.astype(np.uint64) << np.uint64(32))
                       | flat_k.astype(np.uint64))

    RANK = np.uint64(32)
    POSMASK = np.uint64(0xFFFFFFFF)
    bound = np.uint64(len(terms) - 1 + max_gaps)
    keys = [slot_keys(t) for t in terms]
    if ordered:
        prev = keys[0]
        best = prev & POSMASK        # slot 0: the chain starts here
        for ki in keys[1:]:
            runmax = np.maximum.accumulate((prev & ~POSMASK) | best)
            # distinct terms never share a (doc, pos), so the default
            # side='left' minus one is exactly "last prev key < ki"
            ins = np.searchsorted(prev, ki)
            ok = ins > 0
            ins = np.maximum(ins - 1, 0)
            ok &= (runmax[ins] >> RANK) == (ki >> RANK)
            ki = ki[ok]
            if ki.size == 0:
                return empty
            best = runmax[ins[ok]] & POSMASK
            prev = ki
        hit = (prev & POSMASK) - best <= bound
        ranks = np.unique(prev[hit] >> RANK).astype(np.int64)
        return cand[ranks]
    ends = np.sort(np.concatenate(keys))
    okall = np.ones(ends.size, dtype=bool)
    start: np.ndarray | None = None
    for ki in keys:
        p = np.searchsorted(ki, ends, side="right")
        ok = p > 0
        idx = np.maximum(p - 1, 0)
        ok &= (ki[idx] >> RANK) == (ends >> RANK)
        okall &= ok
        last = ki[idx] & POSMASK
        start = last if start is None else np.minimum(start, last)
    # masked-out rows may wrap the uint64 subtraction — they are
    # already excluded by okall, the wrap only makes them huge
    hit = okall & ((ends & POSMASK) - start <= bound)
    ranks = np.unique(ends[hit] >> RANK).astype(np.int64)
    return cand[ranks]


def merge_partials_conjunctive(partials_list: list[dict],
                               terms: list[str], k: int
                               ) -> list[tuple[int, float]]:
    """Conjunctive merge: keep only docs present in EVERY term's
    partial vector, then accumulate per-doc in sorted-term order (the
    determinism contract — same float addition order as the oracle's
    ``search_and``).  A term with no live postings anywhere empties
    the result."""
    uterms = sorted(set(terms))
    if not uterms:
        return []
    per_term: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for term in uterms:
        ids_l, sc_l = [], []
        for partials in partials_list:
            got = partials.get(term)
            if got is not None:
                ids_l.append(got[0]); sc_l.append(got[1])
        if not ids_l:
            return []
        per_term[term] = (np.concatenate(ids_l), np.concatenate(sc_l))
    common = None
    for term in uterms:
        ids = per_term[term][0]
        common = (np.unique(ids) if common is None
                  else np.intersect1d(common, ids))
        if common.size == 0:
            return []
    acc = np.zeros(common.size, dtype=np.float64)
    for term in uterms:
        ids, sc = per_term[term]
        order = np.argsort(ids, kind="stable")
        ids_s, sc_s = ids[order], sc[order]
        acc += sc_s[np.searchsorted(ids_s, common)]
    ids, scores = top_k_select(common, acc, k)
    return list(zip(ids.tolist(), scores.tolist()))


def merge_partials_dismax(partials_list: list[dict], terms: list[str],
                          k: int, tie_breaker: float = 0.0
                          ) -> list[tuple[int, float]]:
    """Dis-max merge (ES ``dis_max`` over per-term queries): a doc's
    score is its BEST single-term contribution plus ``tie_breaker`` ×
    the sum of its remaining contributions —
    ``max + tb·(sum − max)`` with the sum accumulated in sorted-term
    order (the shared determinism contract; tb=0 is pure best-field,
    tb=1 matches the disjunctive sum up to one float rounding —
    ``(sum−max)+max`` need not equal ``sum`` bit-for-bit)."""
    gathered = _gather_accumulate(partials_list, terms)
    if gathered is None:
        return []
    uniq, inv, acc, all_sc = gathered
    amax = np.full(len(uniq), -np.inf, dtype=np.float64)
    np.maximum.at(amax, inv, all_sc)
    score = amax + tie_breaker * (acc - amax)
    ids, scores = top_k_select(uniq, score, k)
    return list(zip(ids.tolist(), scores.tolist()))


class FederatedSearcher:
    """Cross-index search with GLOBAL statistics — the ES
    cross-cluster-search + ``dfs_query_then_fetch`` analog.  Phase 1
    (dfs): per-term df and corpus (n_docs, total_tokens) gathered from
    every sub-index; phase 2: each sub-index's postings are scored
    with the GLOBAL idf/avgdl and merged into one top-k.

    Invariant (tested bit-exact): federating disjoint sub-indexes
    equals searching their union index — global df/n_docs/total_tokens
    are the same integers the union would compute, tf_norm is
    per-posting, and the sorted-term accumulation order is shared with
    :func:`merge_partials`.  BM25/tokenizer params must agree across
    sub-indexes (validated eagerly)."""

    def __init__(self, roots: list[str]):
        import os
        if not roots:
            raise ValueError("FederatedSearcher needs >= 1 index root")
        real = [os.path.realpath(r) for r in roots]
        if len(set(real)) != len(real):
            # a duplicated root would double n_docs and every matched
            # doc's contribution — silently wrong scores; fail loudly.
            # (Overlapping doc_ids across DISTINCT roots surface both
            # copies, like ES cross-cluster search.)
            raise ValueError(f"duplicate index roots in {roots}")
        self.subs = [Searcher(r) for r in roots]
        m0 = self.subs[0].manifest
        for s in self.subs[1:]:
            for key in ("bm25", "tokenizer"):
                if s.manifest.get(key) != m0.get(key):
                    raise ValueError(
                        f"sub-index {s.index_root} disagrees on {key!r}"
                        " — federated scores would be meaningless")
        totals = [mf.live_totals(s.manifest) for s in self.subs]
        self.n_docs = sum(n for n, _ in totals)
        total_tokens = sum(t for _, t in totals)
        self.avgdl = (total_tokens / self.n_docs) if self.n_docs else 0.0
        self.k1 = m0["bm25"]["k1"]
        self.b = m0["bm25"]["b"]

    def _per_sub_partials(self, uterms: list[str]) -> list[dict]:
        """One partials dict PER SUB-INDEX — term → (doc_ids,
        contributions at GLOBAL stats: df summed across subs, shared
        n_docs/avgdl).  Raw (ids, tf, dl) stay inside each sub-index
        accessor; only per-term score vectors surface — the same
        partials shape every merge_* consumer takes.  Kept per-sub
        (never concatenated across subs) so a doc_id indexed in two
        sub-indexes scores as two separate copies, one per sub —
        concatenating would np.unique-fold them into a single
        double-counted score."""
        raw = [{} for _ in self.subs]
        df_g: dict[str, int] = {t: 0 for t in uterms}
        for si, s in enumerate(self.subs):
            for term in uterms:
                ids, tfs, dls = s.term_raw_postings(term)
                if len(ids):
                    raw[si][term] = (ids, tfs, dls)
                    df_g[term] += len(ids)
        out = [{} for _ in self.subs]
        for si, sub_raw in enumerate(raw):
            for term, (ids, tfs, dls) in sub_raw.items():
                w = idf(df_g[term], self.n_docs)
                out[si][term] = (
                    ids, w * tf_norm(tfs, dls, self.avgdl,
                                     self.k1, self.b))
        return out

    def search(self, terms: list[str], k: int = 10,
               operator: str = "or") -> list[tuple[int, float]]:
        """Global top-k across the sub-indexes.  Each sub-index's
        matches are accumulated WITHIN that sub (global idf/avgdl,
        sorted-term order), then the per-sub top-k lists merge by
        (-score, doc_id, sub ordinal): a doc indexed in two subs
        surfaces once per sub, like ES cross-cluster hits — and a
        conjunction holds only when a single copy matches every term.
        For disjoint subs this is bit-identical to the union index
        (same float additions in the same order, same tie-breaks)."""
        if k <= 0 or not terms:
            return []
        uterms = sorted(set(terms))
        merge = (merge_partials_conjunctive if operator == "and"
                 else merge_partials)
        hits: list[tuple[float, int, int]] = []
        for si, partials in enumerate(self._per_sub_partials(uterms)):
            hits.extend((sc, did, si)
                        for did, sc in merge([partials], uterms, k))
        hits.sort(key=lambda h: (-h[0], h[1], h[2]))
        return [(did, sc) for sc, did, _ in hits[:k]]

    def count(self, terms: list[str], operator: str = "or") -> int:
        """Federated match count: the sum of per-sub hit counts (a doc
        indexed in two subs is two hits, matching ``search``); a
        conjunction is evaluated within each sub — a copy in A matching
        only t1 plus a copy in B matching only t2 is NOT an AND hit."""
        uterms = sorted(set(terms))
        if not uterms:
            return 0
        total = 0
        for s in self.subs:
            sets = []
            for term in uterms:
                ids = s.term_raw_postings(term)[0]
                if operator == "and" and ids.size == 0:
                    sets = []
                    break
                sets.append(ids)
            if not sets:
                continue
            if operator == "and":
                cand = sets[0]
                for x in sets[1:]:
                    cand = np.intersect1d(cand, x)
                    if cand.size == 0:
                        break
                total += int(cand.size)
            else:
                total += int(np.unique(np.concatenate(sets)).size)
        return total


class CachedSearcher:
    """ES request-cache analog (ST-family): whole-query results
    memoized per index GENERATION.  A :class:`Searcher` is an
    immutable snapshot, so entries never go stale within one; the
    cache re-resolves the root's generation per lookup — the epoch
    name PLUS the manifest file's (mtime_ns, size) fingerprint,
    because ``apply_delta`` appends a delta record to the SAME epoch's
    manifest (atomic tmp+rename, so the fingerprint always moves).
    Any publish/delta/compact therefore changes the generation, which
    drops every cached entry — the ES refresh-invalidation semantic.
    LRU-bounded; hits return a fresh list so callers can't mutate the
    cache.  Thread-safe: _resolve and the LRU mutate shared state
    under one lock, so a long-lived instance may be shared across
    reader threads (writers — delta/compact — still coordinate via
    the index flock, not through this cache)."""

    def __init__(self, index_root: str, capacity: int = 1024):
        import threading
        from collections import OrderedDict
        self.index_root = index_root
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._gen: tuple | None = None
        self._searcher: Searcher | None = None
        self._entries: "OrderedDict[tuple, list]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def _resolve(self) -> Searcher:
        """Searcher for the CURRENT on-disk generation.  Lock scope is
        minimal (review finding r4#6): the epoch read + manifest stat
        run OUTSIDE the lock, a hit-path request takes the lock only
        for the generation compare, and the (milliseconds-long)
        Searcher load of a generation swap also runs outside it with
        a double-checked install — readers never queue behind a load.
        If two threads race a swap the loser may briefly re-install
        the older snapshot; both are legitimate published generations
        and the next request self-heals (the threaded test pins
        results to the set of legitimate generations)."""
        import os as _os
        for attempt in range(3):
            ep = mf.current_epoch(self.index_root)
            if ep is None:
                raise FileNotFoundError(
                    f"no CURRENT epoch in {self.index_root}")
            try:
                st = _os.stat(mf.manifest_path(self.index_root, ep))
                gen = (ep, st.st_mtime_ns, st.st_size)
                with self._lock:
                    if gen == self._gen:
                        return self._searcher
                # the Searcher load itself must sit INSIDE the
                # retry: the same compact+gc race can delete the
                # old epoch's files between the stat and the open
                searcher = Searcher(self.index_root, ep)
                with self._lock:
                    if gen != self._gen:
                        if self._gen is not None:
                            self.invalidations += 1
                        self._gen = gen
                        self._searcher = searcher
                        self._entries.clear()
                    return self._searcher
            except FileNotFoundError:
                # CURRENT moved and the old epoch was gc'ed between
                # the reads (compact + gc_epochs race) — re-resolve
                if attempt == 2:
                    raise
        raise AssertionError("unreachable")

    def _cached(self, method: str, key_args: tuple, call):
        key = (method,) + key_args
        s = self._resolve()
        with self._lock:
            if self._searcher is s:
                got = self._entries.get(key)
                if got is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return list(got)
        # the search itself runs OUTSIDE the lock (reads immutable
        # Searcher state); s is pinned by the local reference even if
        # a concurrent generation swap replaces self._searcher
        val = call(s)
        with self._lock:
            if self._searcher is s:       # drop results of a dead gen
                self._entries[key] = list(val)
                if len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
            self.misses += 1
        return list(val)

    def search(self, terms: list[str], k: int = 10, **kw):
        return self._cached(
            "search", (tuple(terms), k, tuple(sorted(kw.items()))),
            lambda s: s.search(list(terms), k=k, **kw))

    def search_phrase(self, terms: list[str], k: int = 10):
        return self._cached(
            "search_phrase", (tuple(terms), k),
            lambda s: s.search_phrase(list(terms), k=k))

    def search_min_match(self, terms: list[str], k: int,
                         min_match: int):
        return self._cached(
            "search_min_match", (tuple(terms), k, min_match),
            lambda s: s.search_min_match(list(terms), k, min_match))

    def msearch(self, queries: list[list[str]], k: int = 10):
        return [self.search(q, k=k) for q in queries]

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "invalidations": self.invalidations,
                "entries": len(self._entries)}


class DistributedSearcher(QueryPlanner):
    """Actor-pool transport: `n_actors` shard actors, shards assigned
    round-robin.  Each postings primitive fans out only to the actors
    owning a needed term and the driver merges their disjoint dicts;
    every query variant runs the shared :class:`QueryPlanner` body over
    those primitives, and a query whose terms all live on one actor
    runs whole on that actor (one round trip)."""

    def __init__(self, index_root: str, epoch: str | None = None,
                 n_actors: int = 4):
        import ray

        self._open_snapshot(index_root, epoch)
        self.n_actors_requested = n_actors
        # never request more 1-CPU actors than the cluster can schedule
        # — an unsatisfiable pool blocks warm() forever
        cluster_cpus = int(ray.cluster_resources().get("CPU", n_actors))
        n_actors = max(1, min(n_actors, self.num_shards, cluster_cpus - 1 or 1))

        # max_restarts/max_task_retries: a shard actor that dies
        # (OOM-killed worker, preempted node) is rebuilt by Ray from
        # its constructor args — index_root + the PINNED epoch — and
        # the in-flight read-only method call is retried on the
        # restarted actor.  State is a pure function of the manifest,
        # so a post-crash answer is bit-identical to the pre-crash one
        # (tests/test_scheduler.py::test_shard_actor_failover);
        # the restarted actor is merely cold (warm() runs only at pool
        # construction).
        @ray.remote(num_cpus=1, max_restarts=4, max_task_retries=4)
        class ShardActor:
            def __init__(self, index_root, epoch, shards):
                self.searcher = Searcher(index_root, epoch, shard_subset=shards)

            def warm(self, shards):
                # dictionary + row-group prefetch: queries right after
                # pool construction run at warm latency (bench.py
                # measured 300–400 ms cold first-touches without this).
                # The pa.array() poke triggers pyarrow's LAZY pandas-
                # compat init — constructing any Array/Scalar imports
                # pandas the first time (~300 ms in a fresh worker),
                # which otherwise lands on the first real query.
                import pyarrow as _pa
                _pa.array([0])
                for s in shards:
                    self.searcher._shard(s).prefetch()
                return True

            def run(self, method, *args, **kw):
                """One Searcher method: a postings primitive over this
                actor's terms, or a whole query whose terms all live
                here."""
                return getattr(self.searcher, method)(*args, **kw)

            def local_topm(self, terms, m):
                """(exact local top-m partial ranking, bound): the
                m-th best partial bounds every unreturned doc's
                contribution from this actor — phase 1+2 of the
                three-phase protocol."""
                ranked = self.searcher.search(terms, m)
                tau = ranked[m - 1][1] if len(ranked) >= m else 0.0
                return ranked, tau

            def stats(self):
                return self.searcher.query_stats.as_dict()

        self.assign: dict[int, int] = {s: s % n_actors for s in range(self.num_shards)}
        shards_of = defaultdict(list)
        for s, a in self.assign.items():
            shards_of[a].append(s)
        self.actors = [ShardActor.remote(index_root, self.manifest["epoch"],
                                         shards_of[a]) for a in range(n_actors)]
        ray.get([self.actors[a].warm.remote(shards_of[a]) for a in range(n_actors)])

    def _terms_by_actor(self, uterms: list[str]) -> dict[int, list[str]]:
        """Group terms by their single owning actor (shard hash →
        round-robin actor assignment) — THE routing rule, in one
        place."""
        by_actor: dict[int, list[str]] = defaultdict(list)
        for t in uterms:
            by_actor[self.assign[term_hash(t) % self.num_shards]].append(t)
        return by_actor

    def _fanout(self, method: str, terms: list[str], *args) -> dict:
        """One round: ``method(owned_terms, *args)`` on every actor
        owning one of ``terms``, the per-actor dicts merged.  An array
        argument (a candidate doc set) is ``ray.put`` ONCE and its
        ObjectRef broadcast — never re-shipped per actor message."""
        import ray
        by_actor = self._terms_by_actor(sorted(set(terms)))
        if len(by_actor) > 1:
            args = tuple(ray.put(a) if isinstance(a, np.ndarray) else a
                         for a in args)
        out: dict = {}
        for d in ray.get([self.actors[a].run.remote(method, ts, *args)
                          for a, ts in by_actor.items()]):
            out.update(d)
        return out

    def _on_owner(self, terms: list[str], method: str, *args, **kw):
        import ray
        owners = {self.assign[term_hash(t) % self.num_shards]
                  for t in terms}
        if len(owners) != 1:
            return None
        return ray.get(self.actors[owners.pop()].run.remote(
            method, *args, **kw))

    def term_partials(self, terms: list[str]) -> dict:
        return self._fanout("term_partials", terms)

    def term_partials_dl(self, terms: list[str]) -> dict:
        return self._fanout("term_partials_dl", terms)

    def term_partials_for_docs(self, terms: list[str],
                               doc_ids_sorted: np.ndarray) -> dict:
        return self._fanout("term_partials_for_docs", terms,
                            doc_ids_sorted)

    def term_doc_ids(self, terms: list[str]) -> dict:
        return self._fanout("term_doc_ids", terms)

    def term_dfs(self, terms: list[str]) -> dict:
        return self._fanout("term_dfs", terms)

    def term_total_tfs(self, terms: list[str]) -> dict:
        return self._fanout("term_total_tfs", terms)

    def term_positions(self, terms: list[str],
                       candidates: np.ndarray | None = None) -> dict:
        return self._fanout("term_positions", terms, candidates)

    def explain(self, terms: list[str], doc_id: int
                ) -> dict[str, dict[str, float]]:
        """Each term's breakdown comes from its OWNING actor — the
        same dict the local :meth:`Searcher.explain` computes."""
        return self._fanout("explain", terms, doc_id)

    def vocabulary(self) -> list[str]:
        """Sorted union of every actor's owned-shard terms, fetched
        ONCE per pool lifetime (dictionaries are memory-resident on
        the actors; one round of sorted lists crosses the wire)."""
        import ray
        if self._vocab is None:
            out: set[str] = set()
            for v in ray.get([a.run.remote("vocabulary")
                              for a in self.actors]):
                out.update(v)
            self._vocab = sorted(out)
        return self._vocab

    def search(self, terms: list[str], k: int = 10,
               mode: str = "partials",
               operator: str = "or") -> list[tuple[int, float]]:
        """Exact top-k.  ``mode``:

        - "partials": one round — every actor ships its full per-term
          partial score vectors (unique docs × 12 B per term).  Best
          while posting lists are modest; the r1 default.
        - "threephase": bound collection → thresholded local top-m →
          per-candidate partial fetch.  Two+ rounds, but the transfer
          is O(m + |candidates| × terms) instead of O(df) — the
          documented upgrade for multi-million-doc posting lists.

        Both modes return doc_ids AND float64 scores identical to the
        oracle (candidate scores are re-accumulated from per-term
        contribution vectors in sorted-term order)."""
        uterms = sorted(set(terms))
        # single-actor query: the actor owns every needed shard, so
        # its local (WAND-pruned) top-k IS the global answer
        got = self._on_owner(uterms, "search", uterms, k,
                             operator=operator)
        if got is not None:
            return got
        if operator == "and":
            # two rounds: doc-id sets first (cheap), then per-term
            # partials restricted to the intersection — transfer is
            # bounded by the rarest term's df, not the hottest's.
            # A bound protocol cannot prune soundly across
            # term-partitioned shards, but conjunction doesn't need
            # one: the intersection IS the exact result set.
            cand = self._candidate_docs(uterms)
            return ([] if cand is None
                    else self._score_conjunctive(uterms, cand, k))
        if mode == "threephase":
            return self._search_three_phase(self._terms_by_actor(uterms),
                                            uterms, k)
        return merge_partials([self.term_partials(uterms)], uterms, k)

    def msearch(self, queries: list[list[str]], k: int = 10
                ) -> list[list[tuple[int, float]]]:
        """Multi-search (the ES ``_msearch`` bulk API): ONE partials
        fan-out round for the UNION of every query's terms (each term
        shipped once even when shared by several queries), then one
        driver-side merge per query.  Results are exactly
        ``[search(q, k) for q in queries]`` — same scores, same
        tie-breaks — at a fraction of the actor round-trips."""
        if not queries:
            return []
        union = sorted({t for q in queries for t in q})
        if k <= 0 or not union:
            return [[] for _ in queries]
        parts = self.term_partials(union)
        return [merge_partials([parts], sorted(set(q)), k) if q else []
                for q in queries]

    def _search_three_phase(self, by_actor: dict, uterms: list[str],
                            k: int) -> list[tuple[int, float]]:
        """CA-style exact top-k over term-partitioned shard actors.

        Loop: each actor returns its exact local top-m partial ranking
        plus τ_a (its m-th best partial — the upper bound on any doc it
        did NOT return); the driver fetches per-term contributions for
        the candidate union and re-scores them exactly (sorted-term
        accumulation).  An unseen doc's score is bounded by Σ_a τ_a, so
        once the k-th exact candidate score strictly beats that sum —
        or every actor has been drained — the candidate top-k is the
        global top-k.  m doubles per round; bounded by total drain."""
        import ray

        m = max(k, 16)
        while True:
            futs = [self.actors[a].local_topm.remote(ts, m)
                    for a, ts in by_actor.items()]
            got = ray.get(futs)
            taus = [tau for _, tau in got]
            cand = sorted({doc for ranked, _ in got for doc, _ in ranked})
            if not cand:
                return []
            cand_arr = np.array(cand, dtype=np.int64)
            exact = merge_partials(
                [self.term_partials_for_docs(uterms, cand_arr)], uterms, k)
            bound = sum(taus)
            drained = all(t == 0.0 for t in taus)
            if drained or (len(exact) >= k and exact[k - 1][1] > bound):
                return exact
            m *= 2

    def stale(self) -> bool:
        """True when the index moved past this pool's snapshot: a
        compaction/rebuild published a newer epoch (whose files may be
        GC'd), OR delta records were appended to the SAME epoch — the
        actors' Searcher snapshots would otherwise keep serving
        tombstoned docs and stale stats until an epoch flip."""
        if mf.current_epoch(self.index_root) != self.manifest["epoch"]:
            return True
        cur = mf.load_manifest(self.index_root)
        return (len(cur.get("deltas", []))
                != len(self.manifest.get("deltas", [])))

    def refresh(self) -> bool:
        """Re-point the pool at the CURRENT epoch if it moved — the
        reader-side half of the alias swap (searchers follow the
        pointer; epochs are immutable so no coordination is needed
        beyond tearing down the old actors).  Returns True if the pool
        was rebuilt."""
        if not self.stale():
            return False
        self.shutdown()
        self.__init__(self.index_root, None, self.n_actors_requested)
        return True

    def query_stats(self) -> dict:
        """Aggregated WAND pruning counters across the actor pool."""
        import ray
        totals: dict[str, int] = {}
        for d in ray.get([a.stats.remote() for a in self.actors]):
            for k, v in d.items():
                totals[k] = totals.get(k, 0) + v
        return totals

    def shutdown(self) -> None:
        """Release the shard actors' CPU slots.  Call when done
        querying from a process that will run further Ray Data work —
        each actor pins one CPU, and on a small cluster a lingering
        pool can starve the streaming executor."""
        import ray
        for a in self.actors:
            ray.kill(a, no_restart=True)
        self.actors = []
