"""Compaction: log-structured merge of base + delta segments into a new
epoch — the analog of the reference's full-rebuild-then-alias-swap, but
incremental: no re-tokenization, postings are decoded, tombstones
dropped, per-term chunks merged by doc_id, re-encoded with fresh global
stats, and the new epoch is published atomically
(reference services/updateservice.py:47-80, 252-310 for the lifecycle).

One Ray Data job: one task per Ray CPU, each over a contiguous range
of the partitions that need a merge, combines each part's base segment
with the delta rows routed to it (same (term, salt) → part function as
the build, so no shuffle — SURVEY.md §7.4 'segment merge: none
(per-shard local)'); a task reads each delta record's file once,
filtered to its part range.  The docs table is filtered per source
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
from mee_ray.postings import (_binary_buffers, binary_runs, decode_rows,
                              varint_value_offsets)


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
    vanish at compaction.  A base file carries its part number in its
    name; a delta record's one file holds rows of many parts, sorted by
    its ``part`` column, which is read once here, so an item lists only
    the record files that hold rows of its part."""
    by_part: dict[int, list[str]] = {}
    by_part_delta: dict[int, list[str]] = {}
    by_part_seqs: dict[int, list[int]] = {}
    for s in manifest["segments"]:
        by_part.setdefault(mf.part_of_file(s["path"]), []).append(s["path"])
    for d in manifest.get("deltas", []):
        for f in d.get("segments", []):
            parts = pq.read_table(f, columns=["part"])["part"].to_numpy()
            for p in np.unique(parts).tolist():
                by_part_delta.setdefault(p, []).append(f)
                by_part_seqs.setdefault(p, []).append(d["seq"])
    return [{"part": p, "files": by_part.get(p, []),
             "delta_files": by_part_delta.get(p, []),
             "delta_seqs": by_part_seqs.get(p, [])}
            for p in sorted(set(by_part) | set(by_part_delta))]


def task_blocks(items: list[dict], n_tasks: int) -> list[dict]:
    """Cut :func:`partition_plan` items (ascending part) into at most
    ``n_tasks`` contiguous blocks of about equal size, one merge task
    each.  A block covers parts ``[lo, hi)`` and lists each delta
    record file holding rows of its items once, in record order, so a
    task reads each record once and each part's delta rows are read by
    exactly one task."""
    n = max(1, min(int(n_tasks), len(items)))
    blocks = []
    for chunk in np.array_split(np.arange(len(items)), n):
        its = [items[i] for i in chunk.tolist()]
        sources = sorted({(s, f) for it in its for f, s in zip(
            it["delta_files"], it["delta_seqs"])})
        blocks.append({"lo": its[0]["part"], "hi": its[-1]["part"] + 1,
                       "items": its, "delta_files": [f for _, f in sources],
                       "delta_seqs": [s for s, _ in sources]})
    return blocks


_TRIPLES = pa.schema([("term", pa.string()), ("salt", pa.int32()),
                      ("doc_id", pa.int64()), ("tf", pa.int32()),
                      ("dl", pa.int32())])


def _decode_rows(t: pa.Table) -> pa.Table:
    """Segment rows → raw triples (term, salt, doc_id, tf, dl[, pos]),
    through the query path's one row-group kernel
    (postings.decode_rows)."""
    has_pos = "pos_enc" in t.schema.names
    schema = (_TRIPLES.append(pa.field("pos", pa.binary())) if has_pos
              else _TRIPLES)
    if t.num_rows == 0:
        return schema.empty_table()
    ids, tfs, dls, offs = decode_rows(t)
    dfs = t["df"].to_numpy(zero_copy_only=False)
    if not np.array_equal(np.diff(offs), dfs):
        raise ValueError("posting buffer/df mismatch "
                         f"({int(offs[-1])} vs {int(dfs.sum())})")
    rows = pa.array(np.repeat(np.arange(t.num_rows), dfs))
    cols = [t["term"].take(rows), t["salt"].take(rows), pa.array(ids),
            pa.array(tfs.astype(np.int32)), pa.array(dls.astype(np.int32))]
    if has_pos:
        # each row's position blob is its docs' self-contained blobs
        # back to back, so the column's bytes split into per-doc blobs
        # at the value offsets where each doc's positions start
        b_offs, data = _binary_buffers(t["pos_enc"])
        data = data[b_offs[0]:b_offs[-1]]
        cols.append(binary_runs(varint_value_offsets(data)[
            np.concatenate(([0], np.cumsum(tfs)))], data))
    return pa.Table.from_arrays(cols, schema=schema)


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
    overwrites a crash's files.  Every file written keeps its key
    lookup state (``mf.keep_file_state``), so the first apply_delta
    after the compaction reads no docs file."""
    n_base, added = 0, []
    for f, seq in mf.docs_sources(index_root, manifest):
        if seq:
            t = pq.read_table(f)
            added.append(t.filter(pa.array(mf.live_posting_mask(
                t["doc_id"].to_numpy(), seq, *tombstones))))
            continue
        # the base file's key state: usually cached by earlier lookups
        state, _ = mf.file_state("docs_keys", f)
        keep = mf.live_posting_mask(state["doc_id"].to_numpy(), seq,
                                    *tombstones)
        dst = os.path.join(docs_dir, f"docs-{n_base:05d}.parquet")
        n_base += 1
        if keep.all():
            _put_file(dst, f)
        elif keep.any():
            _put_file(dst, pq.read_table(f).filter(pa.array(keep)))
            state = state.filter(pa.array(keep))
        else:
            continue
        mf.keep_file_state("docs_keys", dst, state=state)
    if sum(t.num_rows for t in added):
        t = pa.concat_tables(added)
        dst = os.path.join(docs_dir, f"docs-{n_base:05d}.parquet")
        _put_file(dst, t)
        mf.keep_file_state("docs_keys", dst, t)


def _live(t: pa.Table, seq: int, tombstones) -> pa.Table:
    """Triples of source ``seq`` that no newer tombstone kills: a re-add
    in a newer delta survives the tombstone that killed the older copy
    of the same doc_id."""
    ti, ts = tombstones
    if not len(ti) or not t.num_rows:
        return t
    keep = mf.live_posting_mask(t["doc_id"].to_numpy(zero_copy_only=False),
                                seq, ti, ts)
    return t if keep.all() else t.filter(pa.array(keep))


def merge_block(block: dict, seg_dir: str, avgdl: float, cfg: EngineConfig,
                tombstones) -> list[dict]:
    """Merge and re-encode one :func:`task_blocks` block, one base file
    per part: each delta record file is read once, only its rows of
    parts ``[lo, hi)``; returns the lineage rows."""
    encode = make_encode_partition(seg_dir, avgdl, cfg)
    deltas = []
    for f, seq in zip(block["delta_files"], block["delta_seqs"]):
        t = pq.read_table(f, filters=[("part", ">=", block["lo"]),
                                      ("part", "<", block["hi"])]
                          ).combine_chunks()
        deltas.append((seq, t, t["part"].to_numpy()))
    out = []
    for item in block["items"]:
        p = item["part"]
        tabs = [_live(_decode_rows(pq.read_table(f)), 0, tombstones)
                for f in item["files"]]
        for seq, t, parts in deltas:
            a, b = np.searchsorted(parts, [p, p + 1])
            tabs.append(_live(_decode_rows(t.slice(a, b - a)), seq,
                              tombstones))
        tri = pa.concat_tables(tabs)
        if not tri.num_rows:
            continue
        tri = tri.append_column("part", pa.array(
            np.full(tri.num_rows, p, dtype=np.int32)))
        out += encode(tri).to_pylist()
    return out


def _merge_parts(items: list[dict], seg_dir: str, avgdl: float,
                 cfg: EngineConfig, tombstones) -> list[dict]:
    """Compaction's one Ray Data job: one :func:`merge_block` task per
    Ray CPU over contiguous part ranges; returns the lineage rows."""
    import ray
    import ray.data

    tomb_ref = ray.put(tombstones)
    n_cpus = (ray.cluster_resources().get("CPU", 1) if ray.is_initialized()
              else os.cpu_count())
    blocks = task_blocks(items, int(n_cpus or 1))

    def merge_task(batch: pa.Table) -> pa.Table:
        rows = [r for block in batch.to_pylist() for r in merge_block(
            block, seg_dir, avgdl, cfg, ray.get(tomb_ref))]
        return pa.Table.from_pylist(rows, schema=LINEAGE_SCHEMA)

    return (ray.data.from_items(blocks)
            .map_batches(merge_task, batch_format="pyarrow", batch_size=1)
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
