"""Incremental delta application — the reimagining of the reference's
Kafka→ES SyncService (reference services/syncservice.py:53-114,
modules/handlers/v1/commonhandler.py:595-1367).

The reference patches ES documents in place with generated painless
scripts; our segments are immutable, so the write path is log-
structured (SURVEY.md §2.5 mapping):

  INSERT           → tokenize → delta segments + added-docs record
  DELETE           → tombstone the live doc_id of (repo, path)
  UPDATE           → tombstone old doc_id + add new doc (documents are
                     atomic: content change ⇒ new commit ⇒ new doc_id —
                     the anchor-field delete+reinsert semantics of
                     commonhandler.py:1087-1104, generalized)
  path rename      → arrives as DELETE(old key) + INSERT(new key)

Events carry a monotone ``seq`` (the Kafka-offset analog,
FIXTURES.md F2).  Last-writer-wins is PER KEY and EXACT across
batches: within a batch the highest-seq event per (repo, path) wins,
and an event only applies if its seq is newer than the key's last
recorded write.  That memory lives in ONE place: every write a batch
applies (adds, DELETEs, no-op upsert bumps) is a row of its delta
record's ``key_seqs.parquet``, compaction and reindex fold those into
the new epoch's ``key_seqs.parquet``, and keys in neither were last
written at or below the snapshot floor ``base_event_seq``
(``manifest.key_seq_table`` folds it whole).  At-least-once redelivery,
offset rewinds, and out-of-order batch arrival all resolve to the
same final state as seq-ordered delivery — the guarantee the
reference gets from processing a key's events in partition order
(listenservice.py:195), generalized.

Each applied batch appends one delta record to the manifest with exact
stats deltas (n/sum_dl added+deleted) so N and avgdl stay
oracle-identical without recomputation (manifest.live_stats), plus the
segment + tombstone file paths.  Tombstoned postings are physically
dropped at compaction (mee_ray.merge).

The write path runs in-process and starts no Ray work: the adds go
through the build's own ``DocTokenize`` → ``ExplodeTriples`` →
``encode_segment`` callables, called directly on
``tokenize_batch_size`` slices and then once per batch, into ONE
segment file per record (``deltas/delta-NNNNNN/segments.parquet``)
whose rows are sorted by (part, term, salt): readers and compaction
find each shard's or part's rows from its ``part`` column.  Each
record carries the seconds its layers took (``seconds``: key_lookup,
tokenize, encode, write) and ``key_lookup_reads``, the files its key
lookup had to read from disk.

The key lookup is ``manifest.live_key_index``: the batch's keys probe
each docs file's, tombstone file's and key_seqs file's decoded state,
kept per file identity in ``wand.CACHE``, and every file written here
puts its own state there, so in steady state a batch reads no file.
The docs fetches of delete_by_query and update_by_query are
``manifest.live_doc_rows`` reads.  Both live in ``manifest``, the one
docs reader module.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from mee_ray import manifest as mf
from mee_ray.build import (DocTokenize, ExplodeTriples, encode_segment,
                           write_segment)
from mee_ray.config import EngineConfig, resolve_index_config
from mee_ray.ids import doc_id_of


def apply_delta(events, index_root: str, cfg: EngineConfig | None = None,
                epoch: str | None = None) -> dict:
    """Apply one batch of delta events (a Ray Dataset or pyarrow Table
    with columns seq, type, repo, path, commit, lang, content) to the
    CURRENT epoch. Returns the appended delta record."""
    # serialize index mutators (the reference's Redis-redlock analog):
    # the manifest append below is a read-modify-write — a concurrent
    # applier would silently drop one of the two records
    with mf.write_lock(index_root):
        return _apply_delta_locked(events, index_root, cfg, epoch)


def apply_with_seq_allocation(build_events, index_root: str,
                              cfg: EngineConfig | None = None) -> dict:
    """Allocate the next event-seq range and apply in ONE critical
    section.  ``build_events(start_seq)`` must return the event batch
    (pyarrow Table) with seqs from ``start_seq`` upward.

    Separate ``next_event_seq()`` + ``apply_delta()`` calls race under
    concurrent publishers: both can allocate the same start seq, and
    the per-key LWW guard then treats the second batch's events as
    redeliveries of the first's for any key both touch.  Holding the
    index write lock across allocation + apply makes the seq range
    exclusive."""
    with mf.write_lock(index_root):
        start = mf.next_event_seq(index_root)
        ev = build_events(start)
        return _apply_delta_locked(ev, index_root, cfg)


def _apply_delta_locked(events, index_root: str,
                        cfg: EngineConfig | None = None,
                        epoch: str | None = None) -> dict:
    manifest = mf.load_manifest(index_root, epoch)
    mf.require_format(manifest)
    # the index's own recorded routing/scoring parameters are
    # authoritative: a cfg that disagrees would route delta postings to
    # partitions the merge never reads (silently dropped)
    cfg = resolve_index_config(manifest, cfg)
    epoch = manifest["epoch"]
    edir = mf.epoch_dir(index_root, epoch)

    _EV_COLS = ("seq", "type", "repo", "path", "commit", "lang",
                "content")
    if hasattr(events, "to_arrow_refs") or hasattr(events, "iter_batches"):
        batches = [b for b in events.iter_batches(batch_format="pyarrow",
                                                  batch_size=1 << 18)]
        ev = (pa.concat_tables(batches) if batches
              else pa.table({c: pa.array([], pa.int64() if c == "seq"
                                         else pa.string())
                             for c in _EV_COLS}))
    else:
        ev = events

    # last-writer-wins per (repo, path), by seq
    order = np.argsort(ev["seq"].to_numpy(zero_copy_only=False), kind="stable")
    final: dict[tuple[str, str], dict] = {}
    rows = {name: ev[name].to_pylist() for name in _EV_COLS}
    max_seq, min_seq = 0, 0
    for i in order:
        key = (rows["repo"][i], rows["path"][i])
        s = int(rows["seq"][i])
        max_seq = max(max_seq, s)
        min_seq = s if min_seq == 0 else min(min_seq, s)
        final[key] = {k: rows[k][i] for k in rows}

    t0 = time.perf_counter()
    live, key_seqs, reads = mf.live_key_index(index_root, manifest, final)
    seconds = {"key_lookup": time.perf_counter() - t0}
    base_floor = mf.base_event_seq(manifest)

    # PER-KEY sequenced LWW: an event applies iff its seq is newer than
    # the last seq that wrote the key (its key_seqs memory, else the
    # snapshot floor).  This is exact under at-least-once
    # redelivery, offset rewinds, AND cross-batch out-of-order arrival:
    # a delayed fresh batch applies for the keys it is newest for and
    # no-ops for keys a later batch already rewrote — batch-granular
    # span heuristics either lose those events or resurrect old ones.
    tomb_ids, tomb_dls = [], []
    adds = []
    key_seq_rows: list[tuple[str, str, int]] = []   # every applied write
    n_stale = 0
    for key, e in final.items():
        s = int(e["seq"])
        if s <= key_seqs.get(key, base_floor):
            n_stale += 1
            continue
        # record every applied write — a DELETE of an unknown key too,
        # so a delayed older INSERT cannot resurrect the key later
        key_seq_rows.append((key[0], key[1], s))
        old = live.get(key)
        if e["type"] == "DELETE":
            if old is not None:
                tomb_ids.append(old[0]); tomb_dls.append(old[1])
        else:  # INSERT / UPDATE → upsert
            new_id = doc_id_of(e["repo"], e["path"], e["commit"])
            if old is not None and old[0] == new_id:
                # fresh upsert of the already-live version: skip the
                # re-index (the reference's diff-fields no-op,
                # commonhandler.py:68-83); its seq bump is recorded
                # above, so a delayed older update cannot beat it
                continue
            if old is not None:
                tomb_ids.append(old[0]); tomb_dls.append(old[1])
            # delete → re-insert of the same version is a plain re-add:
            # under sequenced tombstones the new delta's postings
            # out-sequence the old tombstone, and unlike a revival
            # record this stays correct when the record is replayed
            # onto a compacted epoch whose base dropped the postings
            adds.append(e)

    if not key_seq_rows:
        # nothing applied (empty batch or pure redelivery): do NOT
        # append a manifest record — no-op records churn reader-pool
        # staleness checks and inflate the compaction trigger
        return {"noop": True, "seq": None,
                "max_event_seq": max_seq, "min_event_seq": min_seq,
                "n_added": 0, "n_deleted": 0, "n_stale": n_stale,
                "sum_dl_added": 0, "sum_dl_deleted": 0,
                "tombstones": None, "added_docs": None, "key_seqs": None,
                "segments": [], "key_lookup_reads": reads}

    seq_no = len(manifest.get("deltas", [])) + 1
    ddir = os.path.join(edir, "deltas", f"delta-{seq_no:06d}")
    # A directory at this seq that the manifest does not reference is
    # debris from a crashed apply (files written, manifest append never
    # reached): clear it, so no file of the aborted batch outlives it.
    if os.path.isdir(ddir):
        import shutil
        shutil.rmtree(ddir)
    os.makedirs(ddir)
    t0 = time.perf_counter()

    # every file written here also keeps its decoded state in the
    # process cache (mf.keep_file_state), so the next batch's key
    # lookup reads nothing
    tomb_path = os.path.join(ddir, "tombstones.parquet")
    tmp = tomb_path + ".tmp"
    tomb_tbl = pa.table({"doc_id": pa.array(tomb_ids, pa.int64())})
    pq.write_table(tomb_tbl, tmp)
    os.replace(tmp, tomb_path)
    mf.keep_file_state("tombstones", tomb_path, tomb_tbl)

    ks_path = os.path.join(ddir, "key_seqs.parquet")
    repos, paths, seqs = zip(*key_seq_rows)
    mf.write_key_seqs(ks_path, pa.table({
        "repo": list(repos), "path": list(paths), "event_seq": list(seqs)}))

    record = {
        "seq": seq_no, "max_event_seq": max_seq, "min_event_seq": min_seq,
        "tombstones": tomb_path, "added_docs": None, "segments": [],
        "key_seqs": ks_path,
        "n_added": 0, "n_deleted": len(tomb_ids), "n_stale": n_stale,
        "sum_dl_added": 0,
        "sum_dl_deleted": int(sum(tomb_dls)),
        "key_lookup_reads": reads,
    }
    seconds.update(tokenize=0.0, encode=0.0,
                   write=time.perf_counter() - t0)

    if adds:
        add_tbl = pa.table({
            "repo": pa.array([a["repo"] for a in adds], pa.string()),
            "path": pa.array([a["path"] for a in adds], pa.string()),
            "commit": pa.array([a["commit"] for a in adds], pa.string()),
            "lang": pa.array([a["lang"] for a in adds], pa.string()),
            "content": pa.array([a["content"] or "" for a in adds], pa.string()),
        })
        # in-process: a delta batch is small and latency-bound, so the
        # build's tokenize → explode → encode callables run directly on
        # tokenize_batch_size slices instead of as Ray Data stages
        t0 = time.perf_counter()
        tokenize = DocTokenize(cfg)
        step = cfg.tokenize_batch_size
        tok_tbl = pa.concat_tables(
            [tokenize(add_tbl.slice(i, step))
             for i in range(0, add_tbl.num_rows, step)])
        seconds["tokenize"] = time.perf_counter() - t0

        # delta segment: same explode + encode machinery as the full
        # build, over the whole add set in one call; tfnorm uses the
        # BASE avgdl of the epoch — both engines recompute exact scores
        # at query time from (tf, dl, live avgdl), so this only affects
        # the stored (unused until compaction) block-max hints
        t0 = time.perf_counter()
        seg = encode_segment(ExplodeTriples(cfg)(tok_tbl),
                             manifest["avgdl"] or 1.0, cfg)
        seconds["encode"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        added_docs_path = os.path.join(ddir, "added_docs.parquet")
        tmp = added_docs_path + ".tmp"
        # a source-enabled index (manifest-pinned) keeps added docs'
        # raw content like the base rows, so get-with-source and
        # reindex stay complete across deltas
        docs_tbl = tok_tbl.select(
            mf.DOCS_COLUMNS + (["content"] if cfg.store_source else []))
        pq.write_table(docs_tbl, tmp)
        os.replace(tmp, added_docs_path)
        mf.keep_file_state("docs_keys", added_docs_path, docs_tbl)
        if seg.num_rows:
            seg_path = os.path.join(ddir, "segments.parquet")
            write_segment(seg, seg_path)
            record["segments"] = [seg_path]
        seconds["write"] += time.perf_counter() - t0
        record["added_docs"] = added_docs_path
        record["n_added"] += tok_tbl.num_rows
        record["sum_dl_added"] += int(pa.compute.sum(tok_tbl["length"]).as_py() or 0)

    record["seconds"] = {k: round(v, 6) for k, v in seconds.items()}
    manifest.setdefault("deltas", []).append(record)
    epoch_name = manifest.pop("epoch")
    mf.write_manifest(index_root, epoch_name, manifest)
    return record


def _doc_id_filter(doc_ids: "np.ndarray"):
    return pads.field("doc_id").isin(
        pa.array(np.unique(np.asarray(doc_ids, dtype=np.int64))))


def _keys_for_doc_ids(index_root: str, manifest: dict,
                      doc_ids: "np.ndarray") -> list[tuple[str, str]]:
    """Identity keys (repo, path) of the given live doc_ids, sorted —
    a doc_id-pushdown ``manifest.live_doc_rows`` read.  The id set is
    bounded by the caller's query dfs, so driver-side collection is
    bounded by the match's blast radius."""
    # missing="raise": a silently-skipped source would turn a matched
    # doc's deletion into a silent no-op (the live_key_index stance)
    t = mf.live_doc_rows(index_root, manifest, ["repo", "path"],
                         _doc_id_filter(doc_ids))
    return sorted(set(zip(t["repo"].to_pylist(), t["path"].to_pylist())))


def delete_by_query(index_root: str, terms: list[str],
                    operator: str = "or",
                    cfg: EngineConfig | None = None) -> dict:
    """ES ``_delete_by_query`` analog (the query-driven form of the
    reference's ES delete sink, deleteservice shape): find the live
    documents matching ``terms`` (``or`` = any term, ``and`` = every
    term), then emit DELETE events for their identity keys through the
    locked seq-allocating delta path — so the deletion is idempotent,
    redelivery-safe, sequenced against concurrent publishers, and
    folds into the next compaction like any other delta batch.

    The matched id set comes from posting unions/intersections
    (bounded by the query terms' dfs, no scoring); the key fetch is a
    doc_id-pushdown read.  A second identical call is a no-op: the
    matched docs' postings are already tombstoned, so the match set is
    empty.  Returns the delta record plus ``n_matched``.

    Match, key fetch, seq allocation, and apply all sit inside ONE
    write-lock critical section: a match set computed outside the lock
    could race a concurrent UPDATE of a matched key (the update's new
    version no longer matches, but the later-sequenced DELETE would
    still kill it — the version-conflict case ES's _delete_by_query
    aborts on)."""
    from mee_ray.query import Searcher

    with mf.write_lock(index_root):
        s = Searcher(index_root)
        matched = s.matched_doc_ids(terms, operator)
        if matched.size == 0:
            return {"noop": True, "seq": None, "n_matched": 0,
                    "n_added": 0, "n_deleted": 0}
        keys = _keys_for_doc_ids(index_root, s.manifest, matched)
        start_seq = mf.next_event_seq(index_root)
        n = len(keys)
        ev = pa.table({
            "seq": pa.array(range(start_seq, start_seq + n), pa.int64()),
            "type": pa.array(["DELETE"] * n, pa.string()),
            "repo": pa.array([k[0] for k in keys], pa.string()),
            "path": pa.array([k[1] for k in keys], pa.string()),
            "commit": pa.array([None] * n, pa.string()),
            "lang": pa.array([None] * n, pa.string()),
            "content": pa.array([None] * n, pa.string()),
        })
        rec = _apply_delta_locked(ev, index_root, cfg)
    rec["n_matched"] = int(matched.size)
    return rec


def _live_rows_for_doc_ids(index_root: str, manifest: dict,
                           doc_ids: "np.ndarray") -> list[dict]:
    """Live stored rows (doc_id, repo, path, lang, content) of the
    given doc_ids, sorted by key — the update_by_query fetch.  Requires
    a source-enabled index.  Per doc_id the newest source wins (the
    last row of ``manifest.live_doc_rows``)."""
    t = mf.live_doc_rows(index_root, manifest,
                         ["repo", "path", "lang", "content"],
                         _doc_id_filter(doc_ids))
    rows = {r["doc_id"]: r for r in t.to_pylist()}
    return sorted(rows.values(), key=lambda r: (r["repo"], r["path"]))


def update_by_query(index_root: str, terms: list[str], transform,
                    operator: str = "or",
                    cfg: EngineConfig | None = None) -> dict:
    """ES ``_update_by_query`` analog — the reference's
    query-then-scripted-update loop (commonhandler.py:107-130, its
    painless codegen replaced by a plain content transform): find the
    live documents matching ``terms``, apply ``transform(content) →
    new content`` to each, and re-emit the changed ones as UPDATE
    events through the locked seq-allocating delta path.

    Requires a source-enabled index (``store_source=True``) — the
    transform needs the stored content.

    The new version key (commit) is ``sha256(new content)[:40]``:
    deterministic from the content, so rows the transform leaves
    unchanged are skipped outright, a re-run of the same transform
    emits the same versions (no-op upserts under the per-key LWW
    guard), and the reference's ``retry_on_conflict=256`` loop
    collapses into idempotence.  Match, fetch, transform, seq
    allocation and apply share ONE write-lock critical section (the
    delete_by_query race stance)."""
    import hashlib

    from mee_ray.query import Searcher

    with mf.write_lock(index_root):
        s = Searcher(index_root)
        if not s.manifest.get("store_source"):
            raise ValueError("update_by_query needs a source-enabled "
                             "index (store_source=True at build)")
        matched = s.matched_doc_ids(terms, operator)
        if matched.size == 0:
            return {"noop": True, "seq": None, "n_matched": 0,
                    "n_transformed": 0, "n_added": 0, "n_deleted": 0}
        rows = _live_rows_for_doc_ids(index_root, s.manifest, matched)
        changed = []
        for r in rows:
            old = r["content"] or ""
            new = transform(old)
            if not isinstance(new, str):
                raise TypeError("transform must return str content")
            if new != old:
                changed.append((r, new))
        if not changed:
            return {"noop": True, "seq": None,
                    "n_matched": int(matched.size),
                    "n_transformed": 0, "n_added": 0, "n_deleted": 0}
        start_seq = mf.next_event_seq(index_root)
        n = len(changed)
        ev = pa.table({
            "seq": pa.array(range(start_seq, start_seq + n), pa.int64()),
            "type": pa.array(["UPDATE"] * n, pa.string()),
            "repo": pa.array([r["repo"] for r, _ in changed]),
            "path": pa.array([r["path"] for r, _ in changed]),
            "commit": pa.array(
                [hashlib.sha256(c.encode()).hexdigest()[:40]
                 for _, c in changed], pa.string()),
            "lang": pa.array([r["lang"] for r, _ in changed]),
            "content": pa.array([c for _, c in changed], pa.string()),
        })
        rec = _apply_delta_locked(ev, index_root, cfg)
    rec["n_matched"] = int(matched.size)
    rec["n_transformed"] = n
    return rec
