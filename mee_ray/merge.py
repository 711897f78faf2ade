"""Compaction: log-structured merge of base + delta segments into a new
epoch — the analog of the reference's full-rebuild-then-alias-swap, but
incremental: no re-tokenization, postings are decoded, tombstones
dropped, per-term chunks merged by doc_id, re-encoded with fresh global
stats, and the new epoch is published atomically
(reference services/updateservice.py:47-80, 252-310 for the lifecycle).

Runs as a Ray Data pipeline over partitions: one task per shuffle
partition merges that partition's base segment file with the delta rows
routed to the same partition (same (term, salt) → part function as the
build, so no shuffle is needed at all — merge is embarrassingly
parallel per partition, SURVEY.md §7.4 'segment merge: none (per-shard
local)')."""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from mee_ray import manifest as mf
from mee_ray.build import (LINEAGE_SCHEMA, live_docs_dataset,
                           make_encode_partition)
from mee_ray.config import EngineConfig, resolve_index_config
from mee_ray.postings import varint_decode


class CompactTargetExists(RuntimeError):
    """The named compaction target is already a manifested epoch of a
    different snapshot (typically: a racer published it first).  The
    caller should re-read the manifest and re-evaluate — the delta log
    it meant to fold is usually already folded."""


def _part_of_file(path: str) -> int:
    """Partition number encoded in a segment file name (part-NNNNN.parquet).
    Base and delta segments are written by the same
    ``make_encode_partition`` with the same part function, so the file
    name IS the routing — no per-row re-hash needed at merge time."""
    return int(os.path.basename(path).split("-")[1].split(".")[0])


def partition_plan(manifest: dict) -> list[dict]:
    """Per-partition merge work list.

    Partition set = base parts ∪ delta parts: a delta may introduce
    terms routing to a partition that produced no base segment — those
    must still get a new segment file, or their postings silently
    vanish at compaction.  Both base and delta files carry their part
    number in the name, so each merge task reads ONLY its own
    partition's files — O(files-of-this-part), not
    O(parts × all-delta-files) read amplification."""
    by_part: dict[int, list[str]] = {}
    by_part_delta: dict[int, list[str]] = {}
    by_part_seqs: dict[int, list[int]] = {}
    for s in manifest["segments"]:
        by_part.setdefault(_part_of_file(s["path"]), []).append(s["path"])
    for d in manifest.get("deltas", []):
        for f in d.get("segments", []):
            p = _part_of_file(f)
            by_part_delta.setdefault(p, []).append(f)
            by_part_seqs.setdefault(p, []).append(d["seq"])
    return [{"part": p, "files": by_part.get(p, []),
             "delta_files": by_part_delta.get(p, []),
             "delta_seqs": by_part_seqs.get(p, [])}
            for p in sorted(set(by_part) | set(by_part_delta))]


def _decode_rows(t: pa.Table) -> pa.Table:
    """Segment rows → raw triples (term, salt, doc_id, tf, dl).

    BULK decode: posting buffers are concatenated per codec tag and
    decoded in ONE vectorized pass (varint and pfor streams are both
    self-delimiting, and each row's value count is its stored df), then
    split at run boundaries; the per-run delta decode becomes a global
    cumsum minus each run's prefix — no per-row numpy round-trips."""
    from mee_ray.postings import _TAG_PFOR, pfor_decode

    n_rows = t.num_rows
    empty = pa.table({"term": pa.array([], pa.string()),
                      "salt": pa.array([], pa.int32()),
                      "doc_id": pa.array([], pa.int64()),
                      "tf": pa.array([], pa.int32()),
                      "dl": pa.array([], pa.int32())})
    if "pos_enc" in t.schema.names:
        empty = empty.append_column("pos", pa.array([], pa.binary()))
    if n_rows == 0:
        return empty
    terms = t["term"].to_pylist()
    salts = np.asarray(t["salt"].to_numpy(zero_copy_only=False),
                       dtype=np.int32)
    dfs = t["df"].to_numpy(zero_copy_only=False).astype(np.int64)
    ids_bufs = t["doc_ids_enc"].to_pylist()
    tfs_bufs = t["tfs_enc"].to_pylist()
    dls_bufs = t["dls_enc"].to_pylist()

    total = int(dfs.sum())
    if total == 0:
        return empty
    out_ids = np.empty(total, dtype=np.int64)
    out_tfs = np.empty(total, dtype=np.int64)
    out_dls = np.empty(total, dtype=np.int64)
    row_start = np.concatenate(([0], np.cumsum(dfs)))

    tags = [(b[0] if b else 0) for b in ids_bufs]
    for tag in set(tags):
        rows = [i for i in range(n_rows) if tags[i] == tag]
        counts = dfs[rows]
        dec = pfor_decode if tag == _TAG_PFOR else varint_decode
        gaps = dec(b"".join(ids_bufs[i][1:] for i in rows))
        tfs_v = dec(b"".join(tfs_bufs[i][1:] for i in rows))
        dls_v = varint_decode(b"".join(dls_bufs[i] for i in rows))
        if len(gaps) != counts.sum():
            raise ValueError("posting buffer/df mismatch "
                             f"({len(gaps)} vs {counts.sum()})")
        # segmented delta decode: global cumsum minus the cumsum value
        # just before each run start (run's first value is absolute)
        C = np.cumsum(gaps, dtype=np.uint64)
        bounds = np.cumsum(counts)
        pre = np.concatenate(([np.uint64(0)], C[bounds[:-1] - 1]))
        ids_v = (C - np.repeat(pre, counts)).astype(np.int64)
        # scatter back to global row order
        pos = 0
        for ri, c in zip(rows, counts):
            s = row_start[ri]
            out_ids[s:s + c] = ids_v[pos:pos + c]
            out_tfs[s:s + c] = tfs_v[pos:pos + c].astype(np.int64)
            out_dls[s:s + c] = dls_v[pos:pos + c].astype(np.int64)
            pos += c

    tidx = np.repeat(np.arange(n_rows, dtype=np.int32), dfs)
    term_col = pa.DictionaryArray.from_arrays(
        pa.array(tidx, pa.int32()),
        pa.array(terms, pa.string())).cast(pa.string())
    out = pa.table({
        "term": term_col,
        "salt": pa.array(np.repeat(salts, dfs)),
        "doc_id": pa.array(out_ids),
        "tf": pa.array(out_tfs.astype(np.int32)),
        "dl": pa.array(out_dls.astype(np.int32)),
    })
    if "pos_enc" in t.schema.names:
        # re-split each row's concatenated position blob into per-doc
        # blobs so tombstone filtering and re-encoding operate on
        # aligned (term, doc) rows — value boundaries come from the
        # LEB128 continuation bits, byte ranges per doc from tf cumsum
        from mee_ray.postings import varint_value_offsets
        pos_col: list = [b""] * total
        pos_bufs = t["pos_enc"].to_pylist()
        for ri in range(n_rows):
            buf = pos_bufs[ri] or b""
            s, c = int(row_start[ri]), int(dfs[ri])
            voffs = varint_value_offsets(buf)
            vb = np.concatenate(
                ([0], np.cumsum(out_tfs[s:s + c])))
            b_off = voffs[vb]
            mv = memoryview(buf)
            for j in range(c):
                pos_col[s + j] = bytes(mv[b_off[j]:b_off[j + 1]])
        out = out.append_column("pos", pa.array(pos_col, pa.binary()))
    return out


def compact(index_root: str, new_epoch: str,
            cfg: EngineConfig | None = None,
            auto_publish: bool = True, gc_old: bool = False) -> dict:
    """Merge CURRENT epoch + its delta log into ``new_epoch``.

    Whole-run serialization: concurrent compactors would target the
    same deterministic next-epoch directory and interleave two
    snapshots' segments (``mf.compact_lock`` — a separate file from
    the write lock publish re-acquires).  Deltas may still land DURING
    the merge; publish_with_catchup replays them before the flip."""
    with mf.compact_lock(index_root):
        return _compact_locked(index_root, new_epoch, cfg,
                               auto_publish, gc_old)


def _compact_locked(index_root: str, new_epoch: str,
                    cfg: EngineConfig | None,
                    auto_publish: bool, gc_old: bool) -> dict:
    import ray.data

    manifest = mf.load_manifest(index_root)
    mf.require_format(manifest)
    # routing/scoring parameters come from the manifest unless the
    # caller's explicit cfg agrees with it (resolve_index_config raises
    # on disagreement — wrong part routing silently drops postings)
    cfg = resolve_index_config(manifest, cfg)
    old_epoch = manifest["epoch"]
    n_live, avgdl_live = mf.live_stats(manifest)
    tomb_ids, tomb_seqs = mf.tombstone_index(manifest)

    new_edir = mf.epoch_dir(index_root, new_epoch)
    new_docs = os.path.join(new_edir, "docs")
    new_segs = os.path.join(new_edir, "segments")

    # Target-collision guards (checked AFTER taking the compact lock,
    # against the freshly re-read manifest): a caller that named its
    # target from a STALE manifest — e.g. two maybe_compact racers,
    # where the loser's "next" epoch is the winner's already-published
    # CURRENT — must never reach the debris-clearing fingerprint reset
    # below, which would gut a live epoch's segments/docs.
    if new_epoch == old_epoch:
        raise CompactTargetExists(
            f"compaction target {new_epoch!r} IS the current epoch — "
            "a concurrent compaction already published it; re-read the "
            "manifest and re-evaluate")
    alias_hits = [a for a, v in mf.load_aliases(index_root).items()
                  if (v.get("epoch") if isinstance(v, dict) else v)
                  == new_epoch]
    if alias_hits:
        # an alias-pinned epoch is a live read target even when it is
        # not CURRENT — gutting it breaks those readers.  (A crashed
        # UNPUBLISHED attempt can never be aliased, so legitimate
        # retries — including ones where a new delta landed in between,
        # which the fingerprint below re-encodes for — pass through.)
        raise CompactTargetExists(
            f"compaction target {new_epoch!r} is pinned by "
            f"alias(es) {sorted(alias_hits)} — refusing to overwrite")
    # snapshot fingerprint: the lineage-sidecar resume inside
    # make_encode_partition short-circuits on existing part files, so
    # debris from a CRASHED compaction of a DIFFERENT delta snapshot
    # (e.g. a delta landed between the crash and this retry) would be
    # silently adopted.  Same snapshot → debris is byte-identical and
    # safe to resume from; different → cleared and re-encoded.
    mf.reset_on_fingerprint_change(
        new_edir, "_compact_src.json",
        {"src_epoch": old_epoch,
         "delta_seqs": [d["seq"] for d in manifest.get("deltas", [])]})
    os.makedirs(new_docs, exist_ok=True)
    os.makedirs(new_segs, exist_ok=True)

    # --- docs table: live rows only ----------------------------------
    if len(tomb_ids) == 0:
        # nothing to filter: the new docs table is exactly the base
        # files + delta added-docs files — copy, don't re-encode
        # (deterministic names, so a crashed retry overwrites cleanly)
        for i, (f, _) in enumerate(mf.docs_sources(index_root, manifest)):
            dst = os.path.join(new_docs, f"docs-{i:05d}.parquet")
            tmp = dst + f".tmp.{os.getpid()}"
            shutil.copyfile(f, tmp)
            os.replace(tmp, dst)
    else:
        # source-enabled indexes carry raw content in the docs table;
        # the tombstone-filtering rewrite must keep it or compaction
        # would silently strip the _source the manifest promises
        docs_ds = live_docs_dataset(
            index_root, manifest, list(mf.DOCS_COLUMNS)
            + (["content"] if manifest.get("store_source") else []))
        # staged write: Ray names output files randomly, so a retry
        # after a mid-write crash would APPEND to the leftovers and
        # duplicate rows — write to a temp dir and rename atomically
        from mee_ray.build import _staged_write
        shutil.rmtree(new_docs, ignore_errors=True)
        if docs_ds is None:
            os.makedirs(new_docs, exist_ok=True)   # empty docs table
        else:
            _staged_write(docs_ds, new_docs)

    # --- per-key LWW memory: fold the old epoch-level file and the
    # delta log's key_seqs into ONE new epoch-level file, max seq per
    # key — so a delayed older event still loses after the records are
    # folded away
    folded = mf.key_seq_table(index_root, manifest)
    if folded.num_rows:
        mf.write_key_seqs(os.path.join(new_edir, "key_seqs.parquet"),
                          folded)

    # --- segments: per-partition local merge (no shuffle) -------------
    part_items = partition_plan(manifest)
    # Fast path: with an EMPTY effective tombstone set (insert-only
    # delta log), a partition with no delta files has nothing to merge
    # — its segment file is copied verbatim into the new epoch and its
    # block-max hints keep their original avgdl base (hint_avgdl in
    # the lineage; the query scales each chunk's bounds individually).
    # Compaction cost becomes O(touched partitions), not O(index).
    seg_meta = {s["path"]: s for s in manifest["segments"]}
    if len(tomb_ids) == 0:
        for item in part_items:
            if not item["delta_files"] and len(item["files"]) == 1:
                m0 = seg_meta[item["files"][0]]
                item.update(
                    copy=True, n_terms=m0["n_terms"],
                    n_postings=m0["n_postings"], bytes=m0["bytes"],
                    sha256=m0["sha256"],
                    hint_avgdl=float(m0.get("hint_avgdl")
                                     or manifest.get("avgdl") or 0.0))

    for item in part_items:     # homogeneous rows for from_items
        item.setdefault("copy", False)
        item.setdefault("n_terms", 0)
        item.setdefault("n_postings", 0)
        item.setdefault("bytes", 0)
        item.setdefault("sha256", "")
        item.setdefault("hint_avgdl", 0.0)

    encode = make_encode_partition(new_segs, avgdl_live or 1.0, cfg)
    tomb_ref = ray.put((tomb_ids, tomb_seqs))

    def merge_part(batch: pa.Table) -> pa.Table:
        out = []
        tb = ray.get(tomb_ref)
        for row in batch.to_pylist():
            part = row["part"]
            if row.get("copy"):
                src = row["files"][0]
                dst = os.path.join(new_segs, os.path.basename(src))
                tmp = dst + f".tmp.{os.getpid()}"
                shutil.copyfile(src, tmp)
                os.replace(tmp, dst)
                lin = {"part": part, "n_terms": row["n_terms"],
                       "n_postings": row["n_postings"],
                       "bytes": row["bytes"], "path": dst,
                       "sha256": row["sha256"], "resumed": False,
                       "hint_avgdl": row["hint_avgdl"]}
                tmp_sc = dst + f".lineage.json.tmp.{os.getpid()}"
                with open(tmp_sc, "w") as f:
                    json.dump(lin, f)
                os.replace(tmp_sc, dst + ".lineage.json")
                out.append(pa.Table.from_pylist([lin],
                                                schema=LINEAGE_SCHEMA))
                continue
            ti, ts = tb
            tabs = []
            sources = ([(f, 0) for f in row["files"]]
                       + list(zip(row["delta_files"],
                                  row.get("delta_seqs") or [])))
            for f, seq in sources:
                t = _decode_rows(pq.read_table(f))
                if not t.num_rows:
                    continue
                if len(ti):
                    # sequenced filter per source: a re-add in a newer
                    # delta survives the tombstone that killed the
                    # older copy of the same doc_id
                    keep = mf.live_posting_mask(
                        t["doc_id"].to_numpy(zero_copy_only=False),
                        seq, ti, ts)
                    if not keep.all():
                        t = t.filter(pa.array(keep))
                if t.num_rows:
                    tabs.append(t)
            if not tabs:
                continue
            tri = pa.concat_tables(tabs)
            tri = tri.append_column("part", pa.array(
                np.full(tri.num_rows, part, dtype=np.int32)))
            out.append(encode(tri))
        if not out:
            return pa.Table.from_pylist([], schema=LINEAGE_SCHEMA)
        return pa.concat_tables(out)

    lin_rows = (ray.data.from_items(part_items)
                .map_batches(merge_part, batch_format="pyarrow", batch_size=1)
                .take_all())

    total_tokens_live = manifest["total_tokens"]
    for d in manifest.get("deltas", []):
        total_tokens_live += d["sum_dl_added"] - d["sum_dl_deleted"]

    n_folded = len(manifest.get("deltas", []))
    new_manifest = dict(manifest)
    new_manifest.pop("epoch", None)
    new_manifest.update({
        "n_docs": n_live,
        "total_tokens": total_tokens_live,
        "avgdl": (total_tokens_live / n_live) if n_live else 0.0,
        "segments": lin_rows,
        "deltas": [],
        "compacted_from": old_epoch,
        # snapshot watermark: the base of this epoch covers every event
        # folded so far; deltas appended to the old epoch during the
        # merge are replayed by publish_with_catchup before the flip
        "event_watermark": max(
            [manifest.get("event_watermark", 0)]
            + [d.get("max_event_seq", 0) for d in manifest.get("deltas", [])]),
        # per-key floor stays the CHAIN's original snapshot floor
        # (mf.base_event_seq): folded writes live in key_seqs.parquet
        "base_event_seq": mf.base_event_seq(manifest),
        "catch_up_from": {"epoch": old_epoch, "consumed_deltas": n_folded},
    })
    mf.write_manifest(index_root, new_epoch, new_manifest)
    mf.mark_stage(index_root, new_epoch, "stats",
                  n_docs=n_live, total_tokens=total_tokens_live)
    mf.mark_stage(index_root, new_epoch, "segments", lineage=lin_rows)
    mf.write_metrics(index_root, new_epoch, cfg)
    if auto_publish:
        mf.publish_with_catchup(index_root, new_epoch)
        if gc_old:
            mf.gc_epochs(index_root)
    return mf.load_manifest(index_root, new_epoch)
