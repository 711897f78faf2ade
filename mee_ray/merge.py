"""Compaction: log-structured merge of base + delta segments into a new
epoch — the analog of the reference's full-rebuild-then-alias-swap, but
incremental: no re-tokenization, postings are decoded, tombstones
dropped, per-term chunks merged by doc_id, re-encoded with fresh global
stats, and the new epoch is published atomically
(reference services/updateservice.py:47-80, 252-310 for the lifecycle).

One Ray Data job: one task per partition that needs a merge combines
its base segment with the delta rows routed to it (same (term, salt) →
part function as the build, so no shuffle — SURVEY.md §7.4 'segment
merge: none (per-shard local)').  The docs table is filtered per source
file and untouched partitions are copied verbatim, both in the driver."""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from mee_ray import manifest as mf
from mee_ray.build import LINEAGE_SCHEMA, make_encode_partition
from mee_ray.config import EngineConfig, resolve_index_config
from mee_ray.postings import decode_rows


class CompactTargetExists(RuntimeError):
    """The named compaction target is already a manifested epoch of a
    different snapshot (typically: a racer published it first).  The
    caller should re-read the manifest and re-evaluate — the delta log
    it meant to fold is usually already folded."""


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
        by_part.setdefault(mf.part_of_file(s["path"]), []).append(s["path"])
    for d in manifest.get("deltas", []):
        for f in d.get("segments", []):
            p = mf.part_of_file(f)
            by_part_delta.setdefault(p, []).append(f)
            by_part_seqs.setdefault(p, []).append(d["seq"])
    return [{"part": p, "files": by_part.get(p, []),
             "delta_files": by_part_delta.get(p, []),
             "delta_seqs": by_part_seqs.get(p, [])}
            for p in sorted(set(by_part) | set(by_part_delta))]


def _decode_rows(t: pa.Table) -> pa.Table:
    """Segment rows → raw triples (term, salt, doc_id, tf, dl), through
    the query path's one row-group kernel (postings.decode_rows)."""
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
    out_ids, out_tfs, out_dls, row_start = decode_rows(t)
    if not np.array_equal(np.diff(row_start), dfs):
        raise ValueError("posting buffer/df mismatch "
                         f"({int(row_start[-1])} vs {int(dfs.sum())})")
    total = int(row_start[-1])
    if total == 0:
        return empty

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


def _put_file(dst: str, src: str | pa.Table) -> None:
    """Atomically place ``dst``: a verbatim copy of path ``src``, or
    table ``src`` written as parquet."""
    tmp = dst + f".tmp.{os.getpid()}"
    if isinstance(src, str):
        shutil.copyfile(src, tmp)
    else:
        pq.write_table(src, tmp)
    os.replace(tmp, dst)


def compact_docs(index_root: str, manifest: dict, tombstones,
                 docs_dir: str) -> None:
    """The compacted docs table, live rows only, filtered in the driver
    once per ``mf.docs_sources`` source.  Base file *i* becomes
    ``docs-{i:05d}.parquet``: copied when all its rows are live, its
    live rows (every column, so ``content`` stays) when some are dead,
    nothing when none is.  The deltas' live added docs go together into
    ``docs-{n_base:05d}.parquet``.  Names are deterministic, so a retry
    overwrites a crash's files."""
    n_base, added = 0, []
    for f, seq in mf.docs_sources(index_root, manifest):
        t = pq.read_table(f, columns=None if seq else ["doc_id"])
        keep = mf.live_posting_mask(t["doc_id"].to_numpy(), seq, *tombstones)
        if seq:
            added.append(t.filter(pa.array(keep)))
            continue
        dst = os.path.join(docs_dir, f"docs-{n_base:05d}.parquet")
        n_base += 1
        if keep.all():
            _put_file(dst, f)
        elif keep.any():
            _put_file(dst, pq.read_table(f).filter(pa.array(keep)))
    if sum(t.num_rows for t in added):
        _put_file(os.path.join(docs_dir, f"docs-{n_base:05d}.parquet"),
                  pa.concat_tables(added))


def _merge_parts(items: list[dict], seg_dir: str, avgdl: float,
                 cfg: EngineConfig, tombstones) -> list[dict]:
    """Compaction's one Ray Data job: merge and re-encode each
    :func:`partition_plan` item's part; returns the lineage rows."""
    import ray
    import ray.data

    encode = make_encode_partition(seg_dir, avgdl, cfg)
    tomb_ref = ray.put(tombstones)

    def merge_part(batch: pa.Table) -> pa.Table:
        out = []
        ti, ts = ray.get(tomb_ref)
        for row in batch.to_pylist():
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
                np.full(tri.num_rows, row["part"], dtype=np.int32)))
            out.append(encode(tri))
        if not out:
            return pa.Table.from_pylist([], schema=LINEAGE_SCHEMA)
        return pa.concat_tables(out)

    return (ray.data.from_items(items)
            .map_batches(merge_part, batch_format="pyarrow", batch_size=1)
            .take_all())


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
    manifest = mf.load_manifest(index_root)
    mf.require_format(manifest)
    # routing/scoring parameters come from the manifest unless the
    # caller's explicit cfg agrees with it (resolve_index_config raises
    # on disagreement — wrong part routing silently drops postings)
    cfg = resolve_index_config(manifest, cfg)
    old_epoch = manifest["epoch"]
    n_live, total_tokens_live = mf.live_totals(manifest)
    avgdl_live = (total_tokens_live / n_live) if n_live else 0.0
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
    t0 = time.perf_counter()
    compact_docs(index_root, manifest, (tomb_ids, tomb_seqs), new_docs)
    docs_s = round(time.perf_counter() - t0, 3)

    # --- per-key LWW memory: fold the old epoch-level file and the
    # delta log's key_seqs into ONE new epoch-level file, max seq per
    # key — so a delayed older event still loses after the records are
    # folded away
    folded = mf.key_seq_table(index_root, manifest)
    if folded.num_rows:
        mf.write_key_seqs(os.path.join(new_edir, "key_seqs.parquet"),
                          folded)

    # --- segments: per-partition local merge (no shuffle) -------------
    t0 = time.perf_counter()
    # Fast path: with an EMPTY effective tombstone set (insert-only
    # delta log), a partition with no delta files has nothing to merge
    # — its segment file is copied verbatim into the new epoch and its
    # block-max hints keep their original avgdl base (hint_avgdl in
    # the lineage; the query scales each chunk's bounds individually).
    # Compaction cost becomes O(touched partitions), not O(index).
    seg_meta = {s["path"]: s for s in manifest["segments"]}
    lin_rows, merge_items = [], []
    for item in partition_plan(manifest):
        if len(tomb_ids) or item["delta_files"] or len(item["files"]) != 1:
            merge_items.append(item)
            continue
        m0 = seg_meta[item["files"][0]]
        dst = os.path.join(new_segs, os.path.basename(m0["path"]))
        _put_file(dst, m0["path"])
        lin = dict(m0, path=dst, resumed=False,
                   hint_avgdl=float(m0.get("hint_avgdl")
                                    or manifest.get("avgdl") or 0.0))
        mf._atomic_write_json(dst + ".lineage.json", lin)
        lin_rows.append(lin)

    if merge_items:
        lin_rows += _merge_parts(merge_items, new_segs, avgdl_live or 1.0,
                                 cfg, (tomb_ids, tomb_seqs))
    lin_rows.sort(key=lambda r: r["part"])
    segments_s = round(time.perf_counter() - t0, 3)

    n_folded = len(manifest.get("deltas", []))
    new_manifest = dict(manifest)
    new_manifest.pop("epoch", None)
    new_manifest.update({
        "n_docs": n_live,
        "total_tokens": total_tokens_live,
        "avgdl": avgdl_live,
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
    mf.mark_stage(index_root, new_epoch, "docs", seconds=docs_s)
    mf.mark_stage(index_root, new_epoch, "segments", lineage=lin_rows,
                  seconds=segments_s)
    mf.write_metrics(index_root, new_epoch, cfg)
    if auto_publish:
        mf.publish_with_catchup(index_root, new_epoch)
        if gc_old:
            mf.gc_epochs(index_root)
    return mf.load_manifest(index_root, new_epoch)
