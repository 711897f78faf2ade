"""Full index build — the Ray-Data reimagining of the reference's
UpdateService full rebuild (reference services/updateservice.py:47-80,
modules/handlers/v1/commonhandler.py:216-271).

Where the reference streams ONE master row per MySQL round-trip and
writes ONE document per ES HTTP call (commonhandler.py:406, 77-83), the
new engine is columnar end-to-end:

  read_parquet(corpus)
    → [latest-commit-wins dedup]            (key-only combiners + broadcast)
    → pass 1: map_batches(DocTokenize slim) → slim `docs/` table
              (doc_id, repo, path, commit, lang, sha256, length — the
              checkpoint + the stats/audit input; tiny vs the corpus)
    → pass 2: map_batches(DocTokenize → ExplodeTriples)   (fused tasks)
              → groupby(part)               (THE wide shuffle; salted)
              → encode partition → segment file + lineage (tmp+rename)
    → manifest.json → atomic CURRENT publish (alias-swap analog)

Scale notes (100 TB):
- tokenize runs TWICE (once per pass) by design: re-tokenizing is
  ~15 MB/s/core of pure compute, while the alternative — staging the
  full token table to parquet between passes — writes AND re-reads a
  corpus-sized intermediate through disk.  At 100 TB the staging I/O
  dwarfs the second tokenize; the fused pass-2 chain keeps tokens in
  task memory straight into the shuffle.
- the only all-to-all moves (term, salt, doc_id, tf, dl) tuples — never
  `content`.  Hot terms are salted into contiguous doc_id ranges so
  their sub-lists spread across partitions *within the term's shard*
  and concatenate back in sorted order for free (mee_ray.ids.salt_of).
- `cfg.num_parts` bounds the size of the partition one encode task must
  hold; raise `parts_per_shard` with corpus size.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from mee_ray import manifest as mf
from mee_ray.config import EngineConfig
from mee_ray.ids import (doc_ids_batch, isin_sorted, salts_batch,
                         term_hash)
from mee_ray.postings import (_CODEC_TAGS, PFOR_MIN_VALUES, _encode_tagged,
                              binary_runs, tf_norm, varint_encode_offsets)
from mee_ray.tokenizer import Tokenizer

SEGMENT_SCHEMA = pa.schema([
    ("term", pa.string()),
    ("salt", pa.int32()),
    ("df", pa.int64()),
    ("doc_ids_enc", pa.binary()),
    ("tfs_enc", pa.binary()),
    ("dls_enc", pa.binary()),
    ("block_last", pa.list_(pa.int64())),
    ("block_max", pa.list_(pa.float64())),
    # the row's partition (shard · parts_per_shard + r): constant in a
    # base file, non-decreasing in a delta record's one file, where
    # readers find each shard's contiguous row range from it
    ("part", pa.int32()),
])

LINEAGE_SCHEMA = pa.schema([
    ("part", pa.int32()),
    ("n_terms", pa.int64()),
    ("n_postings", pa.int64()),
    ("bytes", pa.int64()),
    ("path", pa.string()),
    ("sha256", pa.string()),
    ("resumed", pa.bool_()),
    # avgdl the block-max hints were computed at: segments copied
    # verbatim across compactions keep their own base, and the query
    # scales each chunk's bounds by max(1, live/hint) individually
    ("hint_avgdl", pa.float64()),
])


def sha256_column(col) -> pa.Array:
    """Per-row sha256 digests of a string column straight off the
    Arrow utf-8 data buffer: one memoryview slice per row at the
    stored offsets — no Python-string materialization, no per-row
    ``.encode()`` copy (the last per-row Python in DocTokenize's hot
    path; VERDICT r4 #6).  Null rows hash b'' (the historical
    ``c if c is not None else ''`` fallback); bit-parity with the
    scalar form is asserted in test_engine.py."""
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    empty = hashlib.sha256(b"").digest()
    out: list[bytes] = []
    for ch in chunks:
        n = len(ch)
        if n == 0:
            continue
        width = np.int64 if pa.types.is_large_string(ch.type) else np.int32
        offs = np.frombuffer(ch.buffers()[1], dtype=width)[
            ch.offset:ch.offset + n + 1]
        buf = ch.buffers()[2]
        data = memoryview(buf) if buf is not None else memoryview(b"")
        if ch.null_count:
            nulls = ch.is_null().to_numpy(zero_copy_only=False)
            out.extend(
                empty if nulls[i]
                else hashlib.sha256(data[offs[i]:offs[i + 1]]).digest()
                for i in range(n))
        else:
            out.extend(hashlib.sha256(data[offs[i]:offs[i + 1]]).digest()
                       for i in range(n))
    return pa.array(out, pa.binary())


class DocTokenize:
    """Tokenize stage: corpus batch → docs rows.

    State built once per task/actor (Tokenizer regex + memo cache) —
    the analog of the reference's per-handler caches
    (commonhandler.py:593-628); work per batch in __call__.

    ``emit_terms=False`` yields the slim docs-table shape (identity +
    sha256 invariant + length) for pass 1; ``True`` adds the
    ``terms``/``tfs`` list columns consumed by :class:`ExplodeTriples`
    in the fused pass 2."""

    def __init__(self, cfg: EngineConfig, emit_terms: bool = True):
        self.cfg = cfg
        self.emit_terms = emit_terms
        self.tok = Tokenizer(cfg.tokenizer)

    def _counts_vectorized(self, batch: pa.Table,
                           with_positions: bool = False):
        """(lengths, terms_col, tfs_col[, poss_col]) via
        Tokenizer.terms_batch — the hot path for BOTH build passes:
        Arrow tokenize + one Python call per UNIQUE word run,
        per-(doc, term) tf via one lexsort.  With positions, the
        per-(doc, term) delta+LEB128 blobs come from ONE vectorized
        varint_encode_offsets call (its value-boundary offsets make
        every blob a valid self-contained stream), bit-identical to
        encode_positions per group.  Output matches the scalar
        Counter/sorted path exactly (test_tokenizer.py,
        test_postings.py parity tests + every rank/phrase-identity
        suite)."""
        didx, tids, tdict = self.tok.terms_batch(batch["content"])
        n = batch.num_rows
        lengths = np.bincount(didx, minlength=n).astype(np.int32)
        if not self.emit_terms:
            return (lengths, None, None, None)
        if len(tids) == 0:
            off = pa.array(np.zeros(n + 1, np.int32), pa.int32())
            empty_bin = pa.array([], pa.binary())
            return (lengths,
                    pa.ListArray.from_arrays(off,
                                             pa.array([], pa.string())),
                    pa.ListArray.from_arrays(off,
                                             pa.array([], pa.int32())),
                    pa.ListArray.from_arrays(off, empty_bin))
        # rank terms lexicographically so within-doc order matches
        # sorted(counts.items())
        rank_of = np.empty(len(tdict), dtype=np.int64)
        rank_of[np.argsort(tdict, kind="stable")] = \
            np.arange(len(tdict))
        r = rank_of[tids]
        order = np.lexsort((r, didx))
        d2, r2, t2 = didx[order], r[order], tids[order]
        starts = np.flatnonzero(
            np.r_[True, (d2[1:] != d2[:-1]) | (r2[1:] != r2[:-1])])
        tf = np.diff(np.r_[starts, len(d2)]).astype(np.int32)
        ut_d, ut_t = d2[starts], t2[starts]
        per_doc = np.bincount(ut_d, minlength=n).astype(np.int32)
        offsets = pa.array(np.r_[0, np.cumsum(per_doc)]
                           .astype(np.int32), pa.int32())
        terms_col = pa.ListArray.from_arrays(
            offsets, pa.array(tdict[ut_t], pa.string()))
        tfs_col = pa.ListArray.from_arrays(
            offsets, pa.array(tf, pa.int32()))
        poss_col = None
        if with_positions:
            # positions = within-doc term-stream index; the stable
            # lexsort keeps each (doc, term) group's positions in
            # ascending stream order
            doc_start = (np.cumsum(lengths) - lengths).astype(np.int64)
            pos = np.arange(len(didx), dtype=np.int64) - doc_start[didx]
            p2 = pos[order]
            delta = np.empty(len(p2), dtype=np.int64)
            delta[0] = p2[0]
            delta[1:] = p2[1:] - p2[:-1]
            delta[starts] = p2[starts]          # absolute at group head
            from mee_ray.postings import varint_encode_offsets
            buf, offs = varint_encode_offsets(delta.astype(np.uint64))
            from mee_ray.pipelines.gramhash import i32_offsets
            blob_bounds = i32_offsets(offs[np.r_[starts, len(p2)]])
            bin_arr = pa.Array.from_buffers(
                pa.binary(), len(starts),
                [None, pa.py_buffer(blob_bounds.tobytes()),
                 pa.py_buffer(buf)])
            poss_col = pa.ListArray.from_arrays(offsets, bin_arr)
        return lengths, terms_col, tfs_col, poss_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = doc_ids_batch(batch["repo"], batch["path"], batch["commit"])
        store_pos = self.emit_terms and self.cfg.store_positions
        shas = sha256_column(batch["content"])
        if store_pos and getattr(self, "use_scalar_positions", False):
            # scalar reference path, kept ONLY for the bit-parity test
            contents = batch["content"].to_pylist()
            from mee_ray.postings import encode_positions
            lengths, terms_col, tfs_col = [], [], []
            poss_col: list = []
            for c in contents:
                c = c if c is not None else ""
                counts, poss = self.tok.counts_and_positions(c)
                items = sorted(counts.items())
                poss_col.append([encode_positions(np.array(poss[t]))
                                 for t, _ in items])
                terms_col.append([t for t, _ in items])
                tfs_col.append([tf for _, tf in items])
                lengths.append(sum(counts.values()))
        else:
            lengths, terms_col, tfs_col, poss_col = \
                self._counts_vectorized(batch, with_positions=store_pos)
        cols = {
            "doc_id": pa.array(ids, pa.int64()),
            "repo": batch["repo"],
            "path": batch["path"],
            "commit": batch["commit"],
            "lang": batch["lang"],
            "content_sha256": shas,
            "length": pa.array(lengths, pa.int32()),
        }
        if self.emit_terms:
            if isinstance(terms_col, list):     # scalar reference path
                cols["terms"] = pa.array(terms_col, pa.list_(pa.string()))
                cols["tfs"] = pa.array(tfs_col, pa.list_(pa.int32()))
                cols["poss"] = pa.array(poss_col, pa.list_(pa.binary()))
            else:       # vectorized path built the list arrays already
                cols["terms"] = terms_col
                cols["tfs"] = tfs_col
                if store_pos:
                    cols["poss"] = poss_col
        elif self.cfg.store_source:
            # pass-1 docs table carries the raw source (ES _source
            # analog) — pass 2 never does, segments stay content-free
            cols["content"] = batch["content"]
        return pa.table(cols)


class ExplodeTriples:
    """DocTokenize batch → (part, term, salt, doc_id, tf, dl) triples.

    Term→(shard, hash, hot?) routing is cached per actor; the per-token
    dict lookup is the only row-wise work and is O(1) amortized."""

    def __init__(self, cfg: EngineConfig, wave: tuple[int, int] = (0, 1)):
        self.cfg = cfg
        self.wave = wave
        self._route: dict[str, tuple[int, int, bool]] = {}

    def _route_of(self, term: str) -> tuple[int, int, bool]:
        r = self._route.get(term)
        if r is None:
            h = term_hash(term)
            shard = h % self.cfg.num_shards
            r = (shard, h >> 8, term in self.cfg.hot_terms)
            if len(self._route) < (1 << 20):
                self._route[term] = r
        return r

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        cfg = self.cfg
        pps = cfg.parts_per_shard
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        dls = batch["length"].to_numpy(zero_copy_only=False)
        terms_col = batch["terms"].combine_chunks()
        tfs_col = batch["tfs"].combine_chunks()

        # flatten stays in Arrow (no Python list hop); routing is
        # computed once per UNIQUE term of the batch via dictionary
        # encode, then gathered back — tokens repeat heavily, so this
        # is orders of magnitude less Python than per-token routing
        n_per_doc = pc.list_value_length(terms_col).to_numpy(zero_copy_only=False)
        doc_rep = np.repeat(doc_ids, n_per_doc)
        dl_rep = np.repeat(dls, n_per_doc)
        flat_terms = terms_col.flatten()
        flat_tfs = tfs_col.flatten().to_numpy(zero_copy_only=False).astype(np.int32)

        dict_arr = pc.dictionary_encode(flat_terms)
        if isinstance(dict_arr, pa.ChunkedArray):
            dict_arr = dict_arr.combine_chunks()
        idx = dict_arr.indices.to_numpy(zero_copy_only=False)
        vocab = dict_arr.dictionary.to_pylist()

        nu = len(vocab)
        shard_u = np.empty(nu, dtype=np.int32)
        h2_u = np.empty(nu, dtype=np.int64)
        hot_u = np.empty(nu, dtype=bool)
        route = self._route_of
        for j, t in enumerate(vocab):
            s, h, is_hot = route(t)
            shard_u[j] = s; h2_u[j] = h; hot_u[j] = is_hot
        # one salting rule: a hot term (static list ∪ the build's
        # df-decided set, see hot_df_terms) takes the top doc_id bits,
        # every other term salt 0 — a pure function of (term, doc_id),
        # so routing never depends on how batches were sliced
        shard = shard_u[idx]
        h2 = h2_u[idx]
        salt = np.where(hot_u[idx], salts_batch(doc_rep, cfg.salt_factor),
                        0).astype(np.int32)
        part = (shard * pps
                + ((h2 ^ (salt.astype(np.int64) * 0x9E3779B1)) % pps)).astype(np.int32)
        cols = {
            "part": part,
            "term": flat_terms,
            "salt": salt,
            "doc_id": doc_rep,
            "tf": flat_tfs,
            "dl": dl_rep.astype(np.int32),
        }
        if "poss" in batch.schema.names:
            # per-(doc, term) position blobs ride the shuffle as a
            # binary column aligned with the flattened triples
            cols["pos"] = batch["poss"].combine_chunks().flatten()
        t = pa.table(cols)
        w, n_waves = self.wave
        if n_waves > 1:
            # wave'd shuffle (cfg.shuffle_waves): the wave key is the
            # term's shard — term-pure, and aligned with part
            # boundaries (part // parts_per_shard == shard), so no part
            # is written by two waves.  (waves > num_shards leaves the
            # excess waves empty — harmless, pointless.)
            t = t.filter(pa.array((shard % n_waves) == w))
        return t


# Past 2^HOT_DF_SAMPLE_BITS docs the hot-set df is counted on a
# doc_id-hash sample of about that size instead of the whole corpus.
HOT_DF_SAMPLE_BITS = 16


def hot_sample_rate(n_docs: int) -> int:
    """R for the hot-set df sample ``doc_id & (R-1) == 0``: the power
    of two that keeps the sample within (2^15, 2^16] docs; 1 (every
    doc) up to 2^16 docs."""
    return 1 << max(0, (n_docs - 1).bit_length() - HOT_DF_SAMPLE_BITS)


def hot_df_terms(ds, n_docs: int, cfg: EngineConfig) -> list[str]:
    """The build's df-decided hot set: sorted terms outside
    ``cfg.hot_terms`` whose document frequency over the deduped corpus
    ``ds`` exceeds ``cfg.hot_df_threshold``.  Decided once per build
    (SURVEY's "detect via df(term) partial counts"), so it is a pure
    function of the corpus and the config: per-batch partial dfs are
    exact counts over a doc_id-pure sample and sum to the same total
    however batches are sliced.  df is exact up to 2^16 docs; past
    that it is the sample's df scaled by :func:`hot_sample_rate`."""
    thr = cfg.hot_df_threshold
    if not thr or n_docs <= thr:
        return []           # no term can reach a df above n_docs
    rate = hot_sample_rate(n_docs)
    tok = Tokenizer(cfg.tokenizer)

    def partial_dfs(batch: pa.Table) -> pa.Table:
        if rate > 1:
            ids = doc_ids_batch(batch["repo"], batch["path"],
                                batch["commit"])
            batch = batch.filter(pa.array((ids & (rate - 1)) == 0))
        didx, tids, tdict = tok.terms_batch(batch["content"])
        nt = max(1, len(tdict))
        df = np.bincount(np.unique(didx * nt + tids) % nt,
                         minlength=len(tdict))
        return pa.table({"term": pa.array(tdict, pa.string()),
                         "df": pa.array(df, pa.int64())})

    acc = None
    for b in ds.map_batches(partial_dfs, batch_format="pyarrow",
                            batch_size=cfg.tokenize_batch_size
                            ).iter_batches(batch_format="pyarrow",
                                           batch_size=1 << 20):
        acc = b if acc is None else pa.concat_tables([acc, b])
        g = acc.group_by("term").aggregate([("df", "sum")])
        acc = pa.table({"term": g["term"], "df": g["df_sum"]})
    if acc is None:
        return []
    hot = acc.filter(pc.greater(pc.multiply(acc["df"], rate), thr))
    return sorted(set(hot["term"].to_pylist()) - cfg.hot_terms)


def _tagged_runs(values: np.ndarray, rb: np.ndarray,
                 pfor_runs: np.ndarray) -> pa.Array:
    """Each run ``values[rb[i]:rb[i+1]]`` as one tagged posting buffer:
    every run varint-tagged by one LEB128 pass (slices at value
    boundaries are valid streams, so this equals per-run encoding),
    then the ``pfor_runs`` re-encoded one by one and spliced in."""
    buf, off = varint_encode_offsets(values)
    # one tag byte in front of each run's body
    data = np.insert(np.frombuffer(buf, np.uint8), off[rb[:-1]],
                     _CODEC_TAGS["varint"])
    lens = np.diff(off[rb]) + 1
    if len(pfor_runs):
        toff = np.concatenate(([0], np.cumsum(lens)))
        pieces, prev = [], 0
        for r in pfor_runs.tolist():
            body = _encode_tagged(values[rb[r]:rb[r + 1]], "pfor")
            pieces += [data[prev:toff[r]], np.frombuffer(body, np.uint8)]
            prev, lens[r] = toff[r + 1], len(body)
        data = np.concatenate(pieces + [data[prev:]])
    return binary_runs(np.concatenate(([0], np.cumsum(lens))), data)


def encode_segment(triples: pa.Table, avgdl: float,
                   cfg: EngineConfig) -> pa.Table:
    """(part, term, salt, doc_id, tf, dl[, pos]) triples → segment rows
    (:data:`SEGMENT_SCHEMA`, plus ``pos_enc`` when positions ride
    along): one row per (part, term, salt) run, sorted by (part, term,
    salt), each run's postings by doc_id.  One vectorized pass over
    every run — a pure function of the triple set, whatever its row
    order; only pfor runs of ``PFOR_MIN_VALUES`` or more are encoded
    one by one."""
    g = triples.take(pc.sort_indices(
        triples, sort_keys=[("part", "ascending"), ("term", "ascending"),
                            ("salt", "ascending"), ("doc_id", "ascending")]))
    n = g.num_rows
    has_pos = "pos" in g.schema.names
    schema = SEGMENT_SCHEMA.append(pa.field("pos_enc", pa.binary())) \
        if has_pos else SEGMENT_SCHEMA
    if n == 0:
        return schema.empty_table()
    term_dict = pc.dictionary_encode(g["term"]).combine_chunks()
    term_idx = term_dict.indices.to_numpy(zero_copy_only=False)
    parts = g["part"].to_numpy(zero_copy_only=False)
    salts = g["salt"].to_numpy(zero_copy_only=False)
    doc_ids = g["doc_id"].to_numpy(zero_copy_only=False)
    tfs = g["tf"].to_numpy(zero_copy_only=False)
    dls = g["dl"].to_numpy(zero_copy_only=False)

    starts = np.flatnonzero(np.concatenate(
        ([True], (np.diff(term_idx) != 0) | (np.diff(salts) != 0)
         | (np.diff(parts) != 0))))
    rb = np.append(starts, n)                  # run bounds
    df = np.diff(rb)
    gaps = np.empty(n, dtype=np.uint64)        # run-start ids absolute
    gaps[1:] = np.diff(doc_ids).astype(np.uint64)
    gaps[starts] = doc_ids[starts].astype(np.uint64)
    pfor_runs = (np.flatnonzero(df >= PFOR_MIN_VALUES)
                 if cfg.postings_codec == "pfor"
                 else np.empty(0, dtype=np.int64))

    # block-max metadata of every run at once: blocks tile each run
    # from its start, so one reduceat over block starts covers them all
    bs = cfg.block_size
    n_blocks = (df + bs - 1) // bs
    boff = np.concatenate(([0], np.cumsum(n_blocks)))
    brun = np.repeat(np.arange(len(starts)), n_blocks)
    bstart = starts[brun] + (np.arange(boff[-1]) - boff[brun]) * bs
    bend = np.minimum(bstart + bs, rb[brun + 1])
    tfnorms = tf_norm(tfs, dls, avgdl, cfg.bm25.k1, cfg.bm25.b)
    boff32 = pa.array(boff.astype(np.int32))

    dls_b, dls_off = varint_encode_offsets(dls.astype(np.uint64))
    cols = [
        term_dict.dictionary.take(pa.array(term_idx[starts])),
        pa.array(salts[starts].astype(np.int32)),
        pa.array(df.astype(np.int64)),
        _tagged_runs(gaps, rb, pfor_runs),
        _tagged_runs(tfs.astype(np.uint64), rb, pfor_runs),
        binary_runs(dls_off[rb], dls_b),
        pa.ListArray.from_arrays(
            boff32, pa.array(doc_ids[bend - 1].astype(np.int64))),
        pa.ListArray.from_arrays(
            boff32, pa.array(np.maximum.reduceat(tfnorms, bstart))),
        pa.array(parts[starts].astype(np.int32)),
    ]
    if has_pos:
        # per-doc position blobs are self-contained varint streams, so
        # a run's blob is its postings' bytes back to back: the run
        # offsets index the sorted pos column's own data buffer
        pos = g["pos"].combine_chunks()
        pos_offs = np.frombuffer(pos.buffers()[1], np.int32)[
            pos.offset:pos.offset + n + 1].astype(np.int64)
        cols.append(binary_runs(pos_offs[rb], pos.buffers()[2]))
    return pa.Table.from_arrays(cols, schema=schema)


def write_segment(seg: pa.Table, path: str) -> None:
    """Write segment rows atomically (temp file, then rename)."""
    tmp = path + f".tmp.{os.getpid()}"
    # bounded row groups: query actors build their term dictionary
    # from the term column alone and page in posting payloads per
    # row group, so group size caps cold-query read amplification
    pq.write_table(seg, tmp, row_group_size=512)
    os.replace(tmp, path)


def make_encode_partition(seg_dir: str, avgdl: float, cfg: EngineConfig):
    """map_groups fn over one shuffle partition: encode its triples
    (:func:`encode_segment`), write the part's segment file atomically,
    emit ONE lineage row (resume: an existing valid sidecar
    short-circuits the encode)."""

    def encode_partition(group: pa.Table) -> pa.Table:
        import json
        part = int(group["part"][0].as_py())
        final = os.path.join(seg_dir, mf.segment_file_name(part))
        sidecar = final + ".lineage.json"
        if os.path.exists(final) and os.path.exists(sidecar):
            with open(sidecar) as f:
                lin = json.load(f)
            lin["resumed"] = True
            return pa.Table.from_pylist([lin], schema=LINEAGE_SCHEMA)
        seg = encode_segment(group, avgdl, cfg)
        if not seg.num_rows:
            return pa.Table.from_pylist([], schema=LINEAGE_SCHEMA)
        write_segment(seg, final)
        with open(final, "rb") as f:
            sha = hashlib.sha256(f.read()).hexdigest()
        lin = {"part": part, "n_terms": seg.num_rows,
               "n_postings": group.num_rows,
               "bytes": os.path.getsize(final), "path": final, "sha256": sha,
               "resumed": False, "hint_avgdl": float(avgdl)}
        mf._atomic_write_json(sidecar, lin)
        return pa.Table.from_pylist([lin], schema=LINEAGE_SCHEMA)

    return encode_partition


def winner_doc_ids(corpus, cfg: EngineConfig) -> np.ndarray:
    """Latest-commit-wins winner set of (repo, path) — the analog of
    the reference's upsert-by-document_id semantics
    (commonhandler.py:68-83).  Returns the sorted winning doc_ids.

    Only (key_hash, max commit, candidate doc_id) leaves each read
    task — per-batch pyarrow combiners shrink the transfer to one row
    per key per batch, and the final max-merge runs driver-side over
    that stream (the winner set must fit the driver anyway, because it
    is broadcast as a sorted doc_id array for the local filter).
    `content` never crosses the wire.  Holds to ~10^9 keys; past that
    use cfg.dedup_mode="shuffle" (dedup_latest_commit_shuffle), the
    hash-bucketed no-broadcast path."""

    def partial_winners(batch: pa.Table) -> pa.Table:
        # candidate value: commit + NUL + doc_id — lexicographic max of
        # this composite equals the (commit, doc_id) tuple max even for
        # variable-length commits where one is a prefix of another,
        # because NUL sorts below every byte a commit can contain (the
        # composite with the shorter commit compares NUL vs the longer
        # commit's next byte and loses, matching plain `c1 < c2`)
        ids = doc_ids_batch(batch["repo"], batch["path"], batch["commit"])
        commits = batch["commit"].to_pylist()
        vals = [f"{c}\x00{i:016x}" for c, i in zip(commits, ids)]
        # full 16-byte key: a 64-bit key collides with probability ~3%
        # already at 10^9 keys, silently dropping the losing file; at
        # 128 bits collisions are negligible past 10^12
        keys = [hashlib.sha256(f"{r}\x00{p}".encode()).digest()[:16]
                for r, p in zip(batch["repo"].to_pylist(), batch["path"].to_pylist())]
        t = pa.table({"kh": pa.array(keys, pa.binary(16)),
                      "val": pa.array(vals, pa.string())})
        g = t.group_by("kh").aggregate([("val", "max")])
        return g.rename_columns(["kh", "val"])

    partials = corpus.select_columns(["repo", "path", "commit"]).map_batches(
        partial_winners, batch_format="pyarrow", zero_copy_batch=True)
    # INCREMENTAL max-merge: fold each partial batch into one dict so
    # driver memory is O(distinct keys), not O(one row per key per
    # batch) — a version-heavy corpus in arbitrary row order would
    # otherwise accumulate corpus-row-proportional partials before a
    # single end-of-stream merge
    best: dict[bytes, str] = {}
    for b in partials.iter_batches(batch_format="pyarrow", batch_size=1 << 20):
        for kb, v in zip(b["kh"].to_pylist(), b["val"].to_pylist()):
            cur = best.get(kb)
            if cur is None or v > cur:
                best[kb] = v
    if not best:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.array([int(v[-16:], 16) for v in best.values()],
                            dtype=np.uint64).astype(np.int64))


def filter_to_winners(corpus, win_ids_ref):
    """Filter the corpus to the broadcast winner set (``ray.put`` of
    the sorted doc_id array — shipped once per task, not per batch)."""
    import ray

    def keep_winners(batch: pa.Table) -> pa.Table:
        wids = ray.get(win_ids_ref)
        ids = doc_ids_batch(batch["repo"], batch["path"], batch["commit"])
        return batch.filter(pa.array(isin_sorted(ids, wids)))

    return corpus.map_batches(keep_winners, batch_format="pyarrow")


def dedup_latest_commit_shuffle(corpus, cfg: EngineConfig):
    """Shuffle-mode latest-commit-wins — the 10^12-key path
    (cfg.dedup_mode="shuffle").

    The corpus moves through ONE hash-bucketed all-to-all on the
    (repo, path) key hash; each bucket then resolves its winners
    locally (vectorized last-per-key after a lexsort on the same
    NUL-composite value winner_doc_ids maximizes) and filters its own
    rows.  No driver-side winner set, no broadcast; ``dedup_buckets``
    bounds per-task state.  Trade vs driver mode: the full corpus
    (content included) crosses the exchange once — which is exactly
    the cost a no-broadcast exact dedup must pay."""

    B = cfg.dedup_buckets

    def add_bucket(batch: pa.Table) -> pa.Table:
        # full 16-byte key for exact grouping (64 bits silently merges
        # colliding keys at 10^9+ scale); the bucket int uses the top
        # 8 bytes — only load balance, never identity
        keys = [hashlib.sha256(f"{r}\x00{p}".encode()).digest()[:16]
                for r, p in zip(batch["repo"].to_pylist(),
                                batch["path"].to_pylist())]
        kb = np.frombuffer(b"".join(k[:8] for k in keys),
                           dtype=">i8").astype(np.int64)
        return (batch.append_column("__kh",
                                    pa.array(keys, pa.binary(16)))
                .append_column("__bucket", pa.array(kb % B, pa.int64())))

    def winners_of_bucket(g: pa.Table) -> pa.Table:
        kh = np.asarray(g["__kh"].to_pylist(), dtype=object)
        ids = doc_ids_batch(g["repo"], g["path"], g["commit"])
        vals = np.array([f"{c}\x00{i:016x}" for c, i in
                         zip(g["commit"].to_pylist(), ids)])
        order = np.lexsort((vals, kh))
        last = np.ones(len(kh), dtype=bool)
        last[:-1] = kh[order][1:] != kh[order][:-1]
        win_ids = np.unique(ids[order][last])
        keep = isin_sorted(ids, win_ids)
        # exact-duplicate input rows (same repo, path, commit) share a
        # doc_id; keep only the first so a duplicated corpus row can't
        # trip the doc_id collision audit downstream
        kidx = np.flatnonzero(keep)
        if len(kidx):
            order2 = np.argsort(ids[kidx], kind="stable")
            sorted_ids = ids[kidx][order2]
            first = np.ones(len(kidx), dtype=bool)
            first[1:] = sorted_ids[1:] != sorted_ids[:-1]
            drop = kidx[order2[~first]]
            keep[drop] = False
        return g.filter(pa.array(keep)).drop_columns(["__kh", "__bucket"])

    return (corpus.map_batches(add_bucket, batch_format="pyarrow",
                               zero_copy_batch=True)
            .groupby("__bucket")
            .map_groups(winners_of_bucket, batch_format="pyarrow"))


def dedup_latest_commit(corpus, cfg: EngineConfig):
    """Strategy dispatch (standalone use): driver-broadcast or
    hash-bucketed shuffle per cfg.dedup_mode."""
    import ray
    if cfg.dedup_mode == "shuffle":
        return dedup_latest_commit_shuffle(corpus, cfg)
    return filter_to_winners(corpus, ray.put(winner_doc_ids(corpus, cfg)))


def _staged_write(ds, final_dir: str) -> None:
    """Write a dataset directory atomically: stream into a temp dir,
    then one rename.  A crashed writer leaves only a .tmp dir; a rerun
    that finds the final dir skips the stage — so stages are idempotent
    even if the _state.json checkpoint record was lost."""
    import shutil
    if os.path.isdir(final_dir) and os.listdir(final_dir):
        return
    tmp = f"{final_dir}.tmp.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)
    ds.write_parquet(tmp)
    shutil.rmtree(final_dir, ignore_errors=True)
    os.rename(tmp, final_dir)


def live_docs_dataset(index_root: str, manifest: dict, columns: list[str]):
    """Reindex's corpus: the snapshot's live docs rows as one Ray
    Dataset, or None when it has no docs file.  Every docs source is
    read with ``columns`` (which must include doc_id) under the
    sequenced-tombstone rule — a row from source s survives iff no
    tombstone for its id has seq > s, so a re-added doc's newer row
    survives the tombstone that killed its older copy.  An epoch can
    legitimately have no base file (compacted after delete-everything)."""
    import ray
    import ray.data

    tomb_ref = ray.put(mf.tombstone_index(manifest))

    def drop_dead(source_seq: int):
        def fn(batch: pa.Table) -> pa.Table:
            ti, ts = ray.get(tomb_ref)
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(
                mf.live_posting_mask(ids, source_seq, ti, ts)))
        return fn

    by_source: dict[int, list[str]] = {}
    for f, seq in mf.docs_sources(index_root, manifest, missing="raise"):
        by_source.setdefault(seq, []).append(f)
    ds = None
    for seq, files in by_source.items():
        part = (ray.data.read_parquet(files, columns=columns)
                .map_batches(drop_dead(seq), batch_format="pyarrow"))
        ds = part if ds is None else ds.union(part)
    return ds


def build_index(corpus, index_root: str, epoch: str,
                cfg: EngineConfig | None = None,
                dedup: bool = True, auto_publish: bool = True,
                snapshot_watermark: int | None = None,
                carry_catchup: bool = True) -> dict:
    """Run the full build for one epoch. Resumable: finished stages are
    recorded in ``_state.json`` and skipped on re-run (their output
    dirs are written atomically, so a lost state file degrades to a
    dir-existence check); within the segment stage, finished partitions
    short-circuit via lineage sidecars. Returns the manifest.

    ``snapshot_watermark``: when rebuilding over an index root that
    already has a published epoch receiving deltas, the max event seq
    the snapshot corpus incorporates.  Delta records of the predecessor
    epoch beyond the watermark are replayed onto the new epoch before
    publish (mee_ray.manifest.publish_with_catchup) — the reference's
    pin-consumer-group-then-replay handoff (updateservice.py:190-250).
    A predecessor record straddling the watermark (some events ≤, some
    >) cannot be replayed exactly and raises.

    ``carry_catchup=False`` (reindex's mode) records the watermark but
    does NOT carry the predecessor's delta records at publish — the
    caller guarantees the snapshot already folds them (and handles the
    landed-during-build window itself) — and therefore skips the
    replayed-segments config guard: no old-config segment ever rides
    into the new epoch."""
    import ray.data

    import ray

    cfg = cfg or EngineConfig()
    prev_manifest = None
    if snapshot_watermark is not None and carry_catchup:
        # catch-up replay carries the predecessor's delta SEGMENT files
        # verbatim — their part numbers/tokenization are the OLD
        # config's.  A rebuild with different routing/tokenizer
        # parameters would merge them into wrong partitions at the next
        # compaction (postings silently unreachable), so refuse BEFORE
        # any build work, exactly like apply_delta/compact do (the
        # df-decided hot set is compared right after the stats stage)
        _prev = mf.current_epoch(index_root)
        if _prev and _prev != epoch:
            from mee_ray.config import validate_config_against_manifest
            prev_manifest = mf.load_manifest(index_root, _prev)
            try:
                validate_config_against_manifest(cfg, prev_manifest)
            except ValueError as e:
                raise ValueError(
                    "rebuild with snapshot_watermark replays epoch "
                    f"{_prev}'s delta log onto the new epoch, but the "
                    "new build's config disagrees with that epoch's "
                    "recorded parameters — replayed postings would be "
                    f"routed wrong: {e}") from e
    edir = mf.epoch_dir(index_root, epoch)
    docs_dir = os.path.join(edir, "docs")
    seg_dir = os.path.join(edir, "segments")

    # Config fingerprint for the stage resume (the _reindex_src /
    # _compact_src rule applied to plain builds): a rerun of a crashed
    # build with a DIFFERENT output-affecting config — or a different
    # on-disk format version — must not adopt the old run's docs/segment
    # outputs: the manifest would record the new sharding/tokenizer
    # against files routed by the old one, silently losing postings at
    # query time.  Mismatch ⇒ clear the stage outputs and start fresh.
    # Execution-only knobs (batch size, dedup strategy, wave count —
    # segments are a pure function of corpus + config, proven
    # byte-identical across them) don't invalidate completed work.
    import dataclasses as _dc

    from mee_ray.postings import FORMAT_VERSION

    def _norm(x):
        if isinstance(x, (set, frozenset)):
            return sorted(x)
        if isinstance(x, tuple):
            return [_norm(v) for v in x]
        if isinstance(x, dict):
            return {k: _norm(v) for k, v in x.items()}
        if isinstance(x, list):
            return [_norm(v) for v in x]
        return x
    cfg_fp = _norm({k: v for k, v in _dc.asdict(cfg).items()
                    if k not in ("tokenize_batch_size", "dedup_mode",
                                 "dedup_buckets", "shuffle_waves")})
    cfg_fp["format_version"] = FORMAT_VERSION
    mf.reset_on_fingerprint_change(edir, "_build_cfg.json", cfg_fp)

    os.makedirs(seg_dir, exist_ok=True)

    # winner broadcast shared by both passes; recomputed on resume
    # (deterministic function of the corpus, so lineage stays valid)
    win_ref = None
    shuffle_dedup_ds = None

    def deduped():
        nonlocal win_ref, shuffle_dedup_ds
        if not dedup:
            return corpus
        if cfg.dedup_mode == "shuffle":
            # one all-to-all, materialized once and reused by both
            # passes (re-running the shuffle per pass would double the
            # exchange; the object store spills what RAM can't hold)
            if shuffle_dedup_ds is None:
                shuffle_dedup_ds = dedup_latest_commit_shuffle(
                    corpus, cfg).materialize()
            return shuffle_dedup_ds
        if win_ref is None:
            win_ref = ray.put(winner_doc_ids(corpus, cfg))
        return filter_to_winners(corpus, win_ref)

    def tokenized(ds, emit_terms: bool):
        # stateless tasks: per-batch Tokenizer construction is ~μs
        # (regex compile) and tasks start instantly
        return ds.map_batches(DocTokenize(cfg, emit_terms=emit_terms),
                              batch_format="pyarrow", zero_copy_batch=True,
                              batch_size=cfg.tokenize_batch_size)

    import time as _time

    # ---- pass 1: slim docs table (identity + sha256 + length) --------
    # The checkpoint artifact: ~50 B/doc regardless of content size.
    if not mf.stage_done(index_root, epoch, "docs"):
        _t0 = _time.perf_counter()
        _staged_write(tokenized(deduped(), emit_terms=False), docs_dir)
        mf.mark_stage(index_root, epoch, "docs",
                      seconds=round(_time.perf_counter() - _t0, 3))

    # ---- stage 2: global stats + doc_id collision audit + hot set ----
    # Reads two narrow columns of the slim docs table on the driver
    # (pyarrow's C++ multithreaded scanner) — no shuffle; holds to
    # ~10^9 docs.  The df-decided hot set is recorded with the stats so
    # a resume routes pass 2 exactly as the crashed run did.
    if not mf.stage_done(index_root, epoch, "stats"):
        _t0 = _time.perf_counter()
        import pyarrow.dataset as pads
        dset = pads.dataset(docs_dir, format="parquet")
        if "doc_id" not in dset.schema.names:
            # empty corpus: write_parquet emitted a schemaless stub
            n_docs = total_tokens = n_distinct = 0
        else:
            t = dset.to_table(columns=["doc_id", "length"])
            n_docs = t.num_rows
            total_tokens = int(pa.compute.sum(t["length"]).as_py() or 0)
            n_distinct = len(np.unique(
                t["doc_id"].to_numpy(zero_copy_only=False)))
        if n_distinct != n_docs:
            raise RuntimeError(
                f"doc_id collision audit failed: "
                f"{n_docs - n_distinct} colliding ids — the usual "
                f"cause is DUPLICATE input rows (same repo, path, "
                f"commit — e.g. an ingestion retry wrote a corpus "
                f"file twice); true 63-bit hash collisions are "
                f"~1e-8 even at 10^9 docs")
        mf.mark_stage(index_root, epoch, "stats",
                      n_docs=n_docs, total_tokens=total_tokens,
                      hot_df_terms=hot_df_terms(deduped(), n_docs, cfg),
                      seconds=round(_time.perf_counter() - _t0, 3))
    st = mf.load_state(index_root, epoch)["stats"]
    n_docs, total_tokens = st["n_docs"], st["total_tokens"]
    hot_set = st["hot_df_terms"]
    avgdl = (total_tokens / n_docs) if n_docs else 0.0
    if prev_manifest is not None and \
            set(prev_manifest.get("hot_df_terms", ())) != set(hot_set):
        raise ValueError(
            "rebuild with snapshot_watermark replays epoch "
            f"{prev_manifest['epoch']}'s delta log onto the new epoch, "
            "but the new build's config disagrees with that epoch's "
            "recorded parameters — replayed postings would be routed "
            "wrong: the df-decided hot-term set (hot_df_terms) differs")
    route_cfg = _dc.replace(cfg, hot_terms=cfg.hot_terms | set(hot_set))

    # ---- pass 2: THE shuffle — triples → partitioned segments --------
    # Fused chain: dedup-filter → tokenize → explode run in the SAME
    # tasks (Ray Data operator fusion) straight into the push-based
    # sort shuffle (~2× faster than pull-based on the measured
    # all-to-all, and the multi-node-friendly strategy).  No staged
    # token table: re-tokenizing costs less than writing + re-reading
    # a corpus-sized intermediate (module docstring).
    if not mf.stage_done(index_root, epoch, "segments"):
        _t0 = _time.perf_counter()
        from ray.data.context import ShuffleStrategy
        ctx = ray.data.DataContext.get_current()
        prev_strategy = ctx.shuffle_strategy
        ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
        try:
            toks = tokenized(deduped(), emit_terms=True)
            waves = max(1, int(cfg.shuffle_waves))
            lin_rows = []
            for w in range(waves):
                triples = toks.map_batches(
                    ExplodeTriples(route_cfg, wave=(w, waves)),
                    batch_format="pyarrow", zero_copy_batch=True,
                    batch_size=cfg.tokenize_batch_size)
                lineage = triples.groupby("part").map_groups(
                    make_encode_partition(seg_dir, avgdl, cfg),
                    batch_format="pyarrow")
                lin_rows += lineage.take_all()
        finally:
            ctx.shuffle_strategy = prev_strategy
        mf.mark_stage(index_root, epoch, "segments", lineage=lin_rows,
                      seconds=round(_time.perf_counter() - _t0, 3))
    lin_rows = mf.load_state(index_root, epoch)["segments"]["lineage"]

    catch_up = None
    if snapshot_watermark is not None and carry_catchup:
        prev = mf.current_epoch(index_root)
        if prev and prev != epoch:
            old_m = mf.load_manifest(index_root, prev)
            consumed, past_wm = 0, False
            for rec in old_m.get("deltas", []):
                lo, hi = rec["min_event_seq"], rec["max_event_seq"]
                if hi <= snapshot_watermark:
                    if past_wm:
                        raise RuntimeError(
                            f"delta records of epoch {prev} are not "
                            f"ordered around watermark "
                            f"{snapshot_watermark}; cannot split the "
                            f"log into covered/replay halves")
                    consumed += 1
                elif lo <= snapshot_watermark:
                    raise RuntimeError(
                        f"delta record {rec['seq']} of epoch {prev} "
                        f"straddles snapshot watermark "
                        f"{snapshot_watermark} (events {lo}..{hi}); "
                        f"cannot replay exactly — choose a watermark on "
                        f"a batch boundary")
                else:
                    past_wm = True
            catch_up = {"epoch": prev, "consumed_deltas": consumed}

    manifest = {
        "epoch": epoch,
        "format_version": FORMAT_VERSION,
        "n_docs": n_docs,
        "total_tokens": total_tokens,
        "avgdl": avgdl,
        "num_shards": cfg.num_shards,
        "parts_per_shard": cfg.parts_per_shard,
        "block_size": cfg.block_size,
        "postings_codec": cfg.postings_codec,
        "store_positions": cfg.store_positions,
        "store_source": cfg.store_source,
        "salt_factor": cfg.salt_factor,
        "hot_terms": sorted(cfg.hot_terms),
        "hot_df_terms": hot_set,
        "tokenizer": vars(cfg.tokenizer).copy() if hasattr(cfg.tokenizer, "__dict__")
                     else {f: getattr(cfg.tokenizer, f) for f in cfg.tokenizer.__dataclass_fields__},
        "bm25": {"k1": cfg.bm25.k1, "b": cfg.bm25.b},
        "segments": lin_rows,
        "deltas": [],
        "event_watermark": snapshot_watermark or 0,
        # per-key LWW floor: keys with no key_seqs row are treated as
        # last-written at this seq — the snapshot corpus incorporates
        # every event <= it
        "base_event_seq": snapshot_watermark or 0,
        "catch_up_from": catch_up,
    }
    mf.write_manifest(index_root, epoch, manifest)
    mf.write_metrics(index_root, epoch, cfg)
    if auto_publish:
        mf.publish_with_catchup(index_root, epoch)
        return mf.load_manifest(index_root, epoch)
    return manifest


def reindex(index_root: str, new_epoch: str,
            cfg: EngineConfig | None = None,
            auto_publish: bool = True) -> dict:
    """Rebuild the index from its own stored source (the ES
    ``_reindex`` API): a source-enabled index (``store_source=True``,
    manifest-pinned) streams its LIVE documents — base docs files plus
    delta added-docs under the sequenced-tombstone rule — back through
    the full build pipeline with a NEW config (tokenizer, sharding,
    positions, codec may all change) into a new epoch of the same
    root.  The new epoch's snapshot watermark covers every event the
    source rows reflect, so deltas landing DURING the rebuild replay
    onto it at publish (mf.publish_with_catchup) — the reference's
    full-rebuild-then-catch-up lifecycle (updateservice.py:47-80,
    190-250) sourced from the index itself instead of MySQL.

    The snapshot FOLDS the current delta log (live rows under the
    sequenced-tombstone rule), so no old-config delta segment ever
    carries into the new epoch (``carry_catchup=False``).  A delta
    that lands DURING the rebuild makes the final publish refuse with
    a re-run instruction — the same catch-up window the reference
    leaves open (its wait-until-caught-up is an acknowledged TODO,
    updateservice.py:245-250); re-running folds the new deltas into a
    fresh snapshot (the stale half-built epoch is cleared via a
    snapshot fingerprint, the compact debris rule).

    ``cfg=None`` rebuilds with the manifest's own recorded config
    (a pure segment rewrite — useful after heavy deltas)."""
    import ray.data

    from mee_ray.config import config_from_manifest

    manifest = mf.load_manifest(index_root)
    mf.require_format(manifest)
    if not manifest.get("store_source"):
        raise ValueError("reindex needs a source-enabled index "
                         "(store_source=True at build) — the docs "
                         "table does not carry content otherwise")
    cfg = cfg or config_from_manifest(manifest)
    src_epoch = manifest["epoch"]
    src_deltas = [d["seq"] for d in manifest.get("deltas", [])]
    watermark = max(
        [int(manifest.get("event_watermark", 0))]
        + [int(d.get("max_event_seq", 0))
           for d in manifest.get("deltas", [])])
    # Per-key LWW memory must survive the rebuild: collapsing it to a
    # global floor of `watermark` would drop a DELAYED fresh event
    # whose seq is below the max observed (the out-of-order-arrival
    # guarantee delta.py documents).  Mirror compact (merge.py): keep
    # base_event_seq at the CHAIN floor and carry every per-key seq
    # above it into the new epoch's key_seqs.parquet.
    base_floor = mf.base_event_seq(manifest)
    folded_ks = mf.key_seq_table(index_root, manifest)
    folded_ks = folded_ks.filter(pc.greater(folded_ks["event_seq"],
                                            base_floor))

    # snapshot fingerprint: the resumable build short-circuits on
    # existing stage outputs, so debris from a refused/crashed reindex
    # of a DIFFERENT delta snapshot must be cleared, not adopted
    new_edir = mf.epoch_dir(index_root, new_epoch)
    mf.reset_on_fingerprint_change(
        new_edir, "_reindex_src.json",
        {"src_epoch": src_epoch, "delta_seqs": src_deltas,
         "reindex": True})

    cols = ["doc_id", "repo", "path", "commit", "lang", "content"]
    ds = live_docs_dataset(index_root, manifest, cols)
    if ds is not None:
        ds = ds.drop_columns(["doc_id"])
    if ds is None:                # fully-deleted index: empty rebuild
        ds = ray.data.from_arrow(pa.table(
            {c: pa.array([], pa.string()) for c in cols[1:]}))
    out = build_index(ds, index_root, new_epoch, cfg,
                      auto_publish=False,
                      snapshot_watermark=watermark,
                      carry_catchup=False)
    # restore the chain's per-key LWW memory (computed above):
    # event_watermark stays at the max observed seq (next_event_seq
    # must not re-allocate), but the FLOOR stays at the chain base and
    # per-key seqs above it live in the new epoch's key_seqs file
    if folded_ks.num_rows:
        mf.write_key_seqs(os.path.join(new_edir, "key_seqs.parquet"),
                          folded_ks)
    out["base_event_seq"] = base_floor
    out.pop("epoch", None)
    mf.write_manifest(index_root, new_epoch, out)
    out = mf.load_manifest(index_root, new_epoch)
    if not auto_publish:
        return out
    # locked publish: ANY divergence of CURRENT from the snapshot this
    # rebuild read — new deltas on the source epoch, OR a concurrent
    # compaction/rebuild having published a successor epoch (possibly
    # itself carrying deltas) — means the rebuilt index is stale and
    # publishing it would silently lose those writes.  Refuse and
    # instruct a re-run, which folds the new state into a fresh
    # snapshot.  (A re-run that finds CURRENT == new_epoch is an
    # idempotent retry of a crashed publish — done.)
    with mf.write_lock(index_root):
        cur = mf.load_manifest(index_root)
        if cur["epoch"] == new_epoch:
            return cur
        if (cur["epoch"] != src_epoch
                or [d["seq"] for d in cur.get("deltas", [])]
                != src_deltas):
            raise RuntimeError(
                f"the index advanced past snapshot ({src_epoch}, "
                f"deltas {src_deltas}) during the reindex (CURRENT is "
                f"now {cur['epoch']} with deltas "
                f"{[d['seq'] for d in cur.get('deltas', [])]}) — "
                "re-run reindex to fold the new state into a fresh "
                f"snapshot (epoch {new_epoch} left unpublished)")
        mf.publish(index_root, new_epoch)
    return mf.load_manifest(index_root, new_epoch)
