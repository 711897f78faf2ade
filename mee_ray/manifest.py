"""Epoch manifests, atomic publish, lineage, GC.

The durable-state analog of the reference's Redis status machine + ES
alias swap + dirty-data GC:

- epoch manifest  ≙ RedisStatusConfig "epoch descriptor"
  (reference modules/status.py:101-195)
- CURRENT pointer rename ≙ atomic alias swap
  (reference services/updateservice.py:252-310)
- gc_epochs ≙ _cleanDirtyData (reference services/updateservice.py:100-114)
- per-partition lineage records ≙ binlog position file + Kafka offsets
  (reference services/listenservice.py:160-182)

All writes are write-temp-then-``os.replace`` so a crashed build never
leaves a readable-but-partial manifest, and the publish step is the
single atomic rename in the whole lifecycle (SURVEY.md §4.1).

Layout:
    index_root/
      CURRENT                      # epoch name (atomic pointer)
      epochs/<epoch>/
        _state.json                # coarse stage checkpoints (resume)
        docs/  segments/
        manifest.json              # stats + segment lineage + delta log
        key_seqs.parquet           # per-key write seqs folded by compaction
        deltas/delta-<seq>/        # segments.parquet + tombstones + key_seqs
"""

from __future__ import annotations

import json
import os
import shutil
import time


def _atomic_write_json(path: str, obj: dict) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        # compact, not indented: json.dump with an indent always runs
        # the pure-Python encoder; dumps without one runs the C encoder
        f.write(json.dumps(obj, sort_keys=True))
    os.replace(tmp, path)


def file_identity(path: str) -> tuple:
    """A file's identity: its path plus the (st_dev, st_ino, st_size,
    st_mtime_ns) fingerprint, so a file rebuilt at the same path is a
    different file and never meets the old file's cached state.  Every
    per-file entry of ``wand.CACHE`` (segments, tombstones, the key
    lookup's tables) is keyed on it."""
    st = os.stat(path)
    return (path, st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)


def segment_file_name(part: int) -> str:
    """Name of partition ``part``'s segment file, base and delta alike."""
    return f"part-{part:05d}.parquet"


def part_of_file(path: str) -> int:
    """Partition number encoded in a BASE segment file name
    (:func:`segment_file_name`): the build and compaction write one
    file per part, so the file name IS the routing.  A delta record's
    one file holds many parts; its rows carry theirs in the ``part``
    column."""
    return int(os.path.basename(path).split("-")[1].split(".")[0])


def epoch_dir(index_root: str, epoch: str) -> str:
    return os.path.join(index_root, "epochs", epoch)


def manifest_path(index_root: str, epoch: str) -> str:
    return os.path.join(epoch_dir(index_root, epoch), "manifest.json")


def write_manifest(index_root: str, epoch: str, manifest: dict) -> None:
    _atomic_write_json(manifest_path(index_root, epoch), manifest)


class EpochGone(FileNotFoundError):
    """A reader pinned to an epoch touched a file of it after the epoch
    was garbage-collected (``gc_epochs``, ``compact(gc_old=True)``):
    its answers are gone with it, so it must reopen on a live epoch."""


def load_manifest(index_root: str, epoch: str | None = None) -> dict:
    if epoch is None:
        epoch = current_epoch(index_root)
        if epoch is None:
            raise FileNotFoundError(f"no CURRENT epoch in {index_root}")
    else:
        epoch = resolve_epoch(index_root, epoch)
    with open(manifest_path(index_root, epoch)) as f:
        m = json.load(f)
    m["epoch"] = epoch
    return m


# --- named epoch aliases (ES index-alias analog) ---------------------------

def _aliases_path(index_root: str) -> str:
    return os.path.join(index_root, "ALIASES.json")


def load_aliases(index_root: str) -> dict:
    try:
        with open(_aliases_path(index_root)) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def resolve_epoch(index_root: str, name: str) -> str:
    """An alias resolves to its target epoch; a plain epoch name (or
    an unknown name — the manifest open will fail loudly) passes
    through unchanged.  One level only: alias→alias chains are not
    allowed by :func:`set_alias`.  Filtered aliases (dict records)
    resolve to their epoch; the filter is read via
    :func:`alias_filter`."""
    v = load_aliases(index_root).get(name, name)
    return v["epoch"] if isinstance(v, dict) else v


ALIAS_FILTER_FIELDS = ("lang", "repo")


def alias_filter(index_root: str, name: str) -> dict | None:
    """The stored filter of a filtered alias ({"field", "value"}), or
    None for plain aliases / raw epoch names."""
    v = load_aliases(index_root).get(name)
    return v.get("filter") if isinstance(v, dict) else None


def set_alias(index_root: str, alias: str, epoch: str,
              filter: dict | None = None) -> None:
    """Create or atomically re-point a named epoch alias (the ES
    ``_aliases`` atomic-swap contract; CURRENT is the built-in
    publish alias and cannot be shadowed).  An alias names an EPOCH,
    not a frozen point-in-time — like an ES alias on a live index,
    readers through it see deltas applied to that epoch afterwards;
    :func:`snapshot` is the immutability tool.  The target must be an
    EXISTING epoch, never another alias; alias names must not collide
    with epoch directories.  Alias targets are pinned from
    :func:`gc_epochs`.

    ``filter`` makes a FILTERED alias (the ES alias-with-filter):
    ``{"field": <lang|repo>, "value": <str>}`` — readers resolving the
    alias restrict plain term search to live docs whose stored field
    equals the value (query.allowed_ids_for_field); non-plain query
    forms fail closed rather than silently ignore the filter."""
    if alias == "CURRENT":
        raise ValueError("CURRENT is the publish pointer — use publish()")
    if filter is not None:
        if (set(filter) != {"field", "value"}
                or filter["field"] not in ALIAS_FILTER_FIELDS
                or not isinstance(filter["value"], str)):
            raise ValueError(
                "alias filter must be {'field': one of "
                f"{ALIAS_FILTER_FIELDS}, 'value': str}}; got {filter!r}")
    with write_lock(index_root):
        if os.path.isdir(epoch_dir(index_root, alias)):
            raise ValueError(f"alias {alias!r} collides with an epoch name")
        al = load_aliases(index_root)
        if epoch in al:
            raise ValueError(f"alias target {epoch!r} is itself an alias")
        if not os.path.isfile(manifest_path(index_root, epoch)):
            raise FileNotFoundError(
                f"epoch {epoch!r} has no manifest; refusing to alias")
        al[alias] = ({"epoch": epoch, "filter": filter}
                     if filter is not None else epoch)
        _atomic_write_json(_aliases_path(index_root), al)


def drop_alias(index_root: str, alias: str) -> bool:
    with write_lock(index_root):
        al = load_aliases(index_root)
        if alias not in al:
            return False
        del al[alias]
        _atomic_write_json(_aliases_path(index_root), al)
        return True


import contextlib


def write_lock(index_root: str, timeout_s: float = 60.0):
    """Advisory exclusive lock serializing index mutators — the analog
    of the reference's Redis redlock around status transitions
    (updateservice.py:158-188).  apply_delta / compact / publish do
    read-modify-write cycles on the manifest; two concurrent writers
    would silently drop a delta record.  flock on <root>/.write_lock;
    raises TimeoutError rather than deadlocking."""
    return _flock(index_root, ".write_lock", timeout_s)


def compact_lock(index_root: str, timeout_s: float = 600.0):
    """Serializes whole COMPACTION runs (a separate file from
    write_lock, which publish_with_catchup re-acquires inside a
    compaction — one lock for both would self-deadlock).  Two
    concurrent compactors otherwise race on the same deterministic
    next-epoch directory and can publish a mix of two snapshots."""
    return _flock(index_root, ".compact_lock", timeout_s)


@contextlib.contextmanager
def _flock(index_root: str, name: str, timeout_s: float):
    import fcntl
    import time as _time

    os.makedirs(index_root, exist_ok=True)
    path = os.path.join(index_root, name)
    fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
    deadline = _time.monotonic() + timeout_s
    try:
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                break
            except BlockingIOError:
                if _time.monotonic() > deadline:
                    raise TimeoutError(
                        f"could not acquire index lock {path} "
                        f"within {timeout_s}s — another writer is "
                        f"active") from None
                _time.sleep(0.05)
        yield
    finally:
        try:
            fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)


def require_format(manifest: dict) -> None:
    """Refuse to touch postings written by a different on-disk format
    version (misparsing tagged vs untagged buffers is silent garbage)."""
    from mee_ray.postings import FORMAT_VERSION
    got = manifest.get("format_version", 1)
    if got != FORMAT_VERSION:
        raise RuntimeError(
            f"epoch {manifest.get('epoch')} has posting format v{got}, "
            f"engine is v{FORMAT_VERSION} — rebuild the index")


def publish(index_root: str, epoch: str) -> None:
    """Atomic alias-swap analog: point CURRENT at a fully-built epoch."""
    if not os.path.exists(manifest_path(index_root, epoch)):
        raise FileNotFoundError(f"epoch {epoch} has no manifest; refusing to publish")
    tmp = os.path.join(index_root, f".CURRENT.tmp.{os.getpid()}")
    with open(tmp, "w") as f:
        f.write(epoch)
    os.replace(tmp, os.path.join(index_root, "CURRENT"))


def current_epoch(index_root: str) -> str | None:
    try:
        with open(os.path.join(index_root, "CURRENT")) as f:
            return f.read().strip()
    except FileNotFoundError:
        return None


def snapshot(index_root: str, dest: str,
             epoch: str | None = None) -> str:
    """Consistent point-in-time backup (the ES snapshot API analog):
    copy one epoch + every delta file its manifest references into
    ``dest`` and rewrite the manifest's absolute paths, producing a
    SELF-CONTAINED index root (restore = point a Searcher, or the
    whole engine, at it).  Referenced files are immutable, but the
    epoch tree gains new delta files while writers run, so the copy
    holds the same write_lock apply_delta takes; a referenced path
    that cannot be resolved to a file fails LOUDLY (a snapshot with a
    dangling tombstone ref would silently resurrect deletes)."""
    m = load_manifest(index_root, epoch)
    epoch = m.pop("epoch")
    if os.path.exists(os.path.join(dest, "CURRENT")):
        raise FileExistsError(f"{dest} already holds an index; "
                              "refusing to overwrite a snapshot")
    src_abs = os.path.abspath(index_root)
    prefixes = tuple({src_abs, os.path.realpath(index_root),
                      index_root.rstrip("/")})
    dest_abs = os.path.abspath(dest)

    def owned(p: str) -> str | None:
        for cand in (p, os.path.abspath(p)):
            for pref in prefixes:
                if cand.startswith(pref + os.sep):
                    return os.path.relpath(cand, pref)
        return None

    def referenced(o):
        if isinstance(o, str):
            if os.sep in o:
                if os.path.isfile(o):
                    yield o
                elif o.endswith((".parquet", ".json")):
                    raise FileNotFoundError(
                        f"manifest references missing file {o!r} — "
                        "refusing a dangling snapshot")
        elif isinstance(o, list):
            for x in o:
                yield from referenced(x)
        elif isinstance(o, dict):
            for x in o.values():
                yield from referenced(x)

    # the epoch tree wholesale (docs/, segments/, metrics, lineage);
    # under the writers' lock so a concurrent apply_delta can't
    # os.replace/rmtree files out from under copytree
    with write_lock(index_root):
        shutil.copytree(epoch_dir(index_root, epoch),
                        epoch_dir(dest, epoch), dirs_exist_ok=True)
    # plus every OTHER referenced file: in-root files (delta segments,
    # sidecars) keep their relative layout; FOREIGN absolute refs
    # (e.g. an index root that was itself copied from elsewhere) land
    # under external/ so the snapshot never dangles off its source
    mapping: dict[str, str] = {}
    for i, f in enumerate(sorted(set(referenced(m)))):
        rel = owned(f)
        if rel is None:
            rel = os.path.join(
                "external", f"{i:04d}_{os.path.basename(f)}")
        mapping[f] = os.path.join(dest_abs, rel)
        if rel.startswith("epochs" + os.sep):
            continue                       # copied with the tree above
        os.makedirs(os.path.dirname(mapping[f]), exist_ok=True)
        shutil.copy2(f, mapping[f])

    def rewrite(o):
        if isinstance(o, str):
            if o in mapping:
                return mapping[o]
            rel = owned(o)
            return os.path.join(dest_abs, rel) if rel else o
        if isinstance(o, list):
            return [rewrite(x) for x in o]
        if isinstance(o, dict):
            return {k: rewrite(v) for k, v in o.items()}
        return o

    _atomic_write_json(manifest_path(dest, epoch), rewrite(m))
    publish(dest, epoch)
    return dest


def gc_epochs(index_root: str, keep: set[str] | None = None) -> list[str]:
    """Delete epoch directories not in ``keep`` (default: CURRENT only).
    Mirrors _cleanDirtyData's 'anything not referenced by status is
    dirty' rule."""
    keep = set(keep or ())
    cur = current_epoch(index_root)
    if cur:
        keep.add(cur)
    # named aliases pin their targets — deleting an aliased epoch
    # would leave readers resolving to a vanished manifest
    keep.update(v["epoch"] if isinstance(v, dict) else v
                for v in load_aliases(index_root).values())
    removed = []
    root = os.path.join(index_root, "epochs")
    if not os.path.isdir(root):
        return removed
    for name in sorted(os.listdir(root)):
        if name not in keep:
            shutil.rmtree(os.path.join(root, name))
            removed.append(name)
    return removed


# --- coarse per-stage checkpoints (resume) ---------------------------------

def _state_path(index_root: str, epoch: str) -> str:
    return os.path.join(epoch_dir(index_root, epoch), "_state.json")


def load_state(index_root: str, epoch: str) -> dict:
    try:
        with open(_state_path(index_root, epoch)) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def mark_stage(index_root: str, epoch: str, stage: str, **info) -> None:
    st = load_state(index_root, epoch)
    st[stage] = {"done": True, "ts": time.time(), **info}
    _atomic_write_json(_state_path(index_root, epoch), st)


def stage_done(index_root: str, epoch: str, stage: str) -> bool:
    return bool(load_state(index_root, epoch).get(stage, {}).get("done"))


DOCS_COLUMNS = ["doc_id", "repo", "path", "commit", "lang",
                "content_sha256", "length"]


def docs_files(index_root: str, epoch: str) -> list[str]:
    """Parquet files holding the epoch's slim ``docs/`` table."""
    d = os.path.join(epoch_dir(index_root, epoch), "docs")
    if not os.path.isdir(d):
        return []
    return [os.path.join(d, f) for f in sorted(os.listdir(d))
            if f.endswith(".parquet")]


def write_metrics(index_root: str, epoch: str, cfg=None) -> dict:
    """Aggregate per-partition lineage + stage timings into one
    ``metrics.json`` per epoch (north_star: index metrics carried with
    the build).  Skew visibility: per-partition byte/posting spread of
    the shuffle output — the number to watch when picking
    ``salt_factor`` / ``hot_terms``."""
    state = load_state(index_root, epoch)
    lineage = state.get("segments", {}).get("lineage", [])
    bytes_per = [r["bytes"] for r in lineage] or [0]
    postings_per = [r["n_postings"] for r in lineage] or [0]
    m = {
        "epoch": epoch,
        "stage_seconds": {s: info.get("seconds")
                          for s, info in state.items()
                          if isinstance(info, dict) and "seconds" in info},
        "n_docs": state.get("stats", {}).get("n_docs"),
        "total_tokens": state.get("stats", {}).get("total_tokens"),
        "segments": {
            "n_partitions": len(lineage),
            "n_terms": sum(r["n_terms"] for r in lineage),
            "n_postings": sum(postings_per),
            "bytes_total": sum(bytes_per),
            "bytes_max_partition": max(bytes_per),
            "bytes_min_partition": min(bytes_per),
            "postings_max_partition": max(postings_per),
            "skew_ratio": (max(postings_per) * len(postings_per)
                           / max(1, sum(postings_per))) if lineage else None,
            "resumed_partitions": sum(1 for r in lineage if r.get("resumed")),
        },
    }
    _atomic_write_json(os.path.join(epoch_dir(index_root, epoch),
                                    "metrics.json"), m)
    return m


# --- snapshot watermark + catch-up replay at publish -----------------------
#
# The reference pins the new consumer group to the stream head before a
# rebuild so events arriving during the rebuild replay onto the new
# index before the alias swap (reference services/updateservice.py:
# 190-250, including the wait-until-caught-up loop).  Here: a new epoch
# records `catch_up_from` = (predecessor epoch, how many of its delta
# records the new epoch's base already covers); publish_with_catchup
# replays any records appended to the predecessor after that point by
# relocating their delta dirs onto the new epoch, loops until no new
# records appear, then flips CURRENT.  Replay is exact — the carried
# records were computed against precisely the state the new epoch's
# base folds in, so stats deltas and tombstones stay oracle-identical.


def _relocated_delta_record(rec: dict, src_dir: str, dst_dir: str,
                            seq_no: int) -> dict:
    def reloc(p):
        return (os.path.join(dst_dir, os.path.relpath(p, src_dir))
                if p else p)
    return dict(rec, seq=seq_no,
                tombstones=reloc(rec.get("tombstones")),
                added_docs=reloc(rec.get("added_docs")),
                key_seqs=reloc(rec.get("key_seqs")),
                segments=[reloc(s) for s in rec.get("segments", [])])


def carry_over_deltas(index_root: str, new_epoch: str,
                      records: list, n_consumed_now: int) -> None:
    """Copy delta records (their dirs + manifest entries) from the
    predecessor epoch onto ``new_epoch`` and advance the catch-up
    cursor.  ``records`` are the predecessor-manifest records to
    replay; ``n_consumed_now`` is the cursor value after them."""
    new_m = load_manifest(index_root, new_epoch)
    new_edir = epoch_dir(index_root, new_epoch)
    for rec in records:
        seq_no = len(new_m.setdefault("deltas", [])) + 1
        src_dir = os.path.dirname(rec["tombstones"])
        dst_dir = os.path.join(new_edir, "deltas", f"delta-{seq_no:06d}")
        if os.path.isdir(dst_dir):      # debris from a crashed carry-over
            shutil.rmtree(dst_dir)
        shutil.copytree(src_dir, dst_dir)
        new_m["deltas"].append(
            _relocated_delta_record(rec, src_dir, dst_dir, seq_no))
        new_m["event_watermark"] = max(new_m.get("event_watermark", 0),
                                       rec.get("max_event_seq", 0))
    cu = new_m.get("catch_up_from") or {}
    cu["consumed_deltas"] = n_consumed_now
    new_m["catch_up_from"] = cu
    epoch_name = new_m.pop("epoch")
    write_manifest(index_root, epoch_name, new_m)


def publish_with_catchup(index_root: str, epoch: str) -> int:
    """Replay deltas that landed on the predecessor epoch after this
    epoch's snapshot, then atomically publish.  Returns the number of
    replayed records.  Closes the snapshot→publish window for every
    delta whose manifest append completed before the CURRENT flip
    (true concurrent writers must serialize through the merge
    scheduler actor, mee_ray.scheduler)."""
    replayed = 0
    # the whole catch-up + flip runs under the index write lock: a
    # delta either lands on the predecessor BEFORE we take the lock
    # (then the loop replays it) or blocks until after the flip (then
    # it targets the new CURRENT) — no lost-window in between
    with write_lock(index_root):
        while True:
            new_m = load_manifest(index_root, epoch)
            cu = new_m.get("catch_up_from")
            if not cu or not cu.get("epoch"):
                break
            try:
                old_m = load_manifest(index_root, cu["epoch"])
            except FileNotFoundError:
                break
            extra = old_m.get("deltas", [])[cu.get("consumed_deltas", 0):]
            if not extra:
                break
            carry_over_deltas(index_root, epoch, extra,
                              cu.get("consumed_deltas", 0) + len(extra))
            replayed += len(extra)
        publish(index_root, epoch)
    return replayed


def base_event_seq(manifest: dict) -> int:
    """Per-key LWW floor for keys absent from :func:`key_seq_table`:
    the snapshot corpus of the epoch CHAIN incorporates every event
    <= it.  Preserved verbatim across compactions and reindexes — every
    write past it is in a key_seqs file, so bumping the floor would
    wrongly out-sequence delayed fresh events for base keys."""
    return int(manifest.get("base_event_seq") or 0)


def _key_seq_schema():
    import pyarrow as pa
    return pa.schema([("repo", pa.string()), ("path", pa.string()),
                      ("event_seq", pa.int64())])


def write_key_seqs(path: str, table) -> None:
    """Atomically write a (repo, path, event_seq) key_seqs file, and
    keep its key-lookup state (:func:`keep_file_state`)."""
    import pyarrow.parquet as pq
    tmp = f"{path}.tmp.{os.getpid()}"
    table = table.cast(_key_seq_schema())
    pq.write_table(table, tmp)
    os.replace(tmp, path)
    keep_file_state("key_seqs", path, table)


def _key_seq_files(index_root: str, manifest: dict) -> list[str]:
    """The snapshot's key_seqs files, oldest first: the epoch's (when
    compaction or reindex wrote one), then every delta record's.  A
    record whose file is gone fails loudly: lost memory lets a
    redelivered older event beat a newer one (fsck checks the same
    file set)."""
    files = []
    epoch_ks = os.path.join(epoch_dir(index_root, manifest["epoch"]),
                            "key_seqs.parquet")
    if os.path.exists(epoch_ks):
        files.append(epoch_ks)
    for d in manifest.get("deltas", []):
        if not os.path.exists(d["key_seqs"]):
            raise FileNotFoundError(
                f"delta record {d.get('seq')} key_seqs file missing: "
                f"{d['key_seqs']} — index is inconsistent; run fsck")
        files.append(d["key_seqs"])
    return files


def key_seq_table(index_root: str, manifest: dict):
    """THE per-key LWW memory of a snapshot, whole: (repo, path,
    event_seq), the max seq over every applied write to the key, sorted
    by key — what compaction and reindex fold.

    Folds the epoch-level ``key_seqs.parquet`` (what compaction and
    reindex carried forward) with every delta record's key_seqs file
    (one row per write the batch applied: adds, DELETEs and no-op
    upsert bumps) in one vectorized Arrow group_by.  A key absent here
    was last written at or below ``base_event_seq``.  apply_delta needs
    the memory of its batch's keys only, and asks
    :func:`live_key_index`."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    files = _key_seq_files(index_root, manifest)
    schema = _key_seq_schema()
    if not files:
        return schema.empty_table()
    allt = pa.concat_tables([pq.read_table(f, schema=schema)
                             for f in files])
    return (allt.group_by(["repo", "path"])
            .aggregate([("event_seq", "max")])
            .rename_columns(schema.names)
            .sort_by([("repo", "ascending"), ("path", "ascending")])
            .combine_chunks())


# Input fingerprints of the three epoch-dir writers (build, reindex,
# compact) — see reset_on_fingerprint_change.
_FINGERPRINTS = ("_build_cfg.json", "_reindex_src.json", "_compact_src.json")


def reset_on_fingerprint_change(edir: str, name: str, fp: dict) -> None:
    """Stage-resume guard of an epoch dir being (re)built by build,
    reindex or compact.  The resumable stages short-circuit on the
    outputs they find (``_state.json`` marks, lineage sidecars), so
    outputs made from DIFFERENT inputs — another config, format
    version, or delta snapshot — would be silently adopted.  The file
    ``name`` (one of ``_FINGERPRINTS``) records the inputs'
    fingerprint.  The outputs stay for the resume when it matches, or
    when the dir has no fingerprint at all (nothing to compare).  When
    it differs, or is missing while another writer's is present (its
    debris), ``docs/``, ``exchange/``, ``segments/``, ``_state.json``
    and ``key_seqs.parquet`` are cleared.  ``fp`` is then recorded
    atomically."""
    os.makedirs(edir, exist_ok=True)
    path = os.path.join(edir, name)
    try:
        with open(path) as f:
            old = json.load(f)
    except FileNotFoundError:
        old = None
    if old == fp:
        return
    if old is not None or any(os.path.exists(os.path.join(edir, n))
                              for n in _FINGERPRINTS):
        for sub in ("docs", "exchange", "segments"):
            shutil.rmtree(os.path.join(edir, sub), ignore_errors=True)
        for fn in ("_state.json", "key_seqs.parquet"):
            try:
                os.remove(os.path.join(edir, fn))
            except FileNotFoundError:
                pass
    _atomic_write_json(path, fp)


def next_event_seq(index_root: str) -> int:
    """First event seq NOT yet covered by the CURRENT epoch.  NOTE:
    calling this and then apply_delta separately is racy under
    concurrent publishers (two callers can allocate the same range);
    use delta.apply_with_seq_allocation, which holds the index write
    lock across allocation + apply."""
    m = load_manifest(index_root)
    return 1 + max([int(m.get("event_watermark") or 0)]
                   + [int(d.get("max_event_seq") or 0)
                      for d in m.get("deltas", [])])


def tombstone_index(manifest: dict):
    """(sorted doc_ids, last tombstone seq per id) over the delta log.

    Sequenced-tombstone semantics: a tombstone written by delta record
    k kills ONLY posting/doc-row copies from OLDER sources (the base
    epoch is source 0, delta record j is source j).  A copy written by
    source s is live iff s > last_seq(id).  This makes delete →
    re-insert a plain re-add (the new delta's postings out-sequence the
    tombstone) that stays correct across compactions and catch-up
    replays — record seqs are renumbered together at carry-over, so
    relative order is preserved."""
    return _tombstones(manifest)[0]


def _tombstones(manifest: dict):
    """(:func:`tombstone_index`, number of tombstone files read now)."""
    import numpy as np

    ids_l, seq_l, reads = [], [], 0
    for d in manifest.get("deltas", []):
        p = d.get("tombstones")
        if p:
            try:
                # read once per file identity, so a reopen costs
                # nothing per already-seen delta record
                ids, n = file_state("tombstones", p)
            except FileNotFoundError:
                # silently skipping would resurrect deleted docs (and a
                # compact run would bake their postings back in) —
                # corruption must fail loudly, like live_key_index
                raise FileNotFoundError(
                    f"delta record {d.get('seq')} tombstones file "
                    f"missing: {p} — index is inconsistent; run fsck"
                ) from None
            reads += n
            ids_l.append(ids)
            seq_l.append(np.full(len(ids), d["seq"], dtype=np.int64))
    if not ids_l:
        z = np.empty(0, dtype=np.int64)
        return (z, z.copy()), reads
    # the last record naming an id wins: unique over the reversed log
    ids = np.concatenate(ids_l)[::-1]
    seqs = np.concatenate(seq_l)[::-1]
    uniq, first = np.unique(ids, return_index=True)
    return (uniq, seqs[first]), reads


# --- decoded per-file state of the delta key lookup ------------------------
#
# Docs files, tombstones and key_seqs files are immutable once written,
# so what apply_delta's key lookup needs of each is decoded once per
# process into wand.CACHE under the file's identity: a tombstone file's
# doc_ids; a docs file's (key, doc_id, length); a key_seqs file's
# (key, event_seq).  ``key`` is repo + "\0" + path: neither a repo name
# nor a git path holds a NUL, so key equality is (repo, path) equality.

def _keyed(t, columns: list[str]):
    """``t``'s ``key`` column, then its ``columns``."""
    import pyarrow as pa
    import pyarrow.compute as pc
    return pa.table({
        "key": pc.binary_join_element_wise(t["repo"], t["path"], "\0"),
        **{c: t[c] for c in columns}})


# kind → (columns read, decode of a table holding them)
_FILE_STATE = {
    "tombstones": (["doc_id"], lambda t: t["doc_id"].to_numpy(
        zero_copy_only=False).astype("int64")),
    "docs_keys": (["doc_id", "repo", "path", "length"],
                  lambda t: _keyed(t, ["doc_id", "length"])),
    "key_seqs": (["repo", "path", "event_seq"],
                 lambda t: _keyed(t, ["event_seq"])),
}


def file_state(kind: str, path: str):
    """(the ``kind`` state of the file at ``path``, 1 if it was read
    from disk now else 0).  Each entry is charged its array bytes; one
    larger than the cache budget is served but not kept."""
    import pyarrow.parquet as pq

    from mee_ray.wand import CACHE

    key = (kind, *file_identity(path))
    got = CACHE.get(key)
    if got is not None:
        return got, 0
    columns, decode = _FILE_STATE[kind]
    # ParquetFile.read: without read_table's dataset set-up, which
    # costs more than decoding a small file
    with pq.ParquetFile(path) as pf:
        got = decode(pf.read(columns=columns))
    return CACHE.put(key, got, got.nbytes), 1


def keep_file_state(kind: str, path: str, table=None, *,
                    state=None) -> None:
    """Write-through: cache the ``kind`` state of ``table``, which the
    caller has just written to ``path`` (after its ``os.replace``), or
    ``state`` itself when the caller holds it decoded already (a copy
    of a file keeps its source's), so the next reader of the file
    reads nothing."""
    from mee_ray.wand import CACHE

    if state is None:
        state = _FILE_STATE[kind][1](table)
    CACHE.put((kind, *file_identity(path)), state, state.nbytes)


def live_key_index(index_root: str, manifest: dict,
                   keys) -> tuple[dict, dict, int]:
    """apply_delta's key lookup: ``(live, key_seqs, reads)`` for the
    (repo, path) ``keys`` of one batch.

    * ``live``: key → (doc_id, length) of its live doc, the newest
      live row over :func:`docs_sources` (liveness:
      :func:`live_posting_mask`).
    * ``key_seqs``: key → the last event seq that wrote it, the max
      over the snapshot's key_seqs files (:func:`key_seq_table` without
      the fold of every other key).  A key absent here was last written
      at or below ``base_event_seq``.
    * ``reads``: how many files had to be read from disk (0 when every
      file's state is cached: :func:`file_state`).

    The batch's keys are one ``is_in`` value set, probed once against
    the cached key columns of every file of a kind, chunk by chunk:
    exact string equality."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    by_key = {f"{r}\0{p}": (r, p) for r, p in keys}
    want = pa.array(list(by_key), pa.string())
    (tomb_ids, tomb_seqs), reads = _tombstones(manifest)

    def hits(kind, paths):
        """(the rows of the files' states holding a batch key, in file
        order, and the index in ``paths`` of each row's file)."""
        nonlocal reads
        tables = []
        for p in paths:
            t, n = file_state(kind, p)
            reads += n
            tables.append(t)
        if not tables:
            return None, None
        t = pa.concat_tables(tables, promote_options="permissive")
        rows = np.flatnonzero(pc.is_in(t["key"], value_set=want)
                              .to_numpy(zero_copy_only=False))
        ends = np.cumsum([x.num_rows for x in tables])
        return t.take(rows), np.searchsorted(ends, rows, side="right")

    # missing="raise": a silently skipped source would turn an UPDATE
    # of a key living in that file into a duplicate (no tombstone for
    # the old version) and a DELETE into a no-op
    sources = docs_sources(index_root, manifest)
    live: dict = {}
    t, src = hits("docs_keys", [f for f, _ in sources])
    if t is not None:
        seqs = np.array([seq for _, seq in sources], np.int64)[src]
        t = t.filter(pa.array(live_posting_mask(
            t["doc_id"].to_numpy(zero_copy_only=False), seqs,
            tomb_ids, tomb_seqs)))
        # rows come oldest source first: a key's newest live row wins
        live.update(zip(t["key"].to_pylist(), zip(
            t["doc_id"].to_pylist(), t["length"].to_pylist())))
    key_seqs: dict = {}
    t, _ = hits("key_seqs", _key_seq_files(index_root, manifest))
    if t is not None:
        for k, s in zip(t["key"].to_pylist(), t["event_seq"].to_pylist()):
            key_seqs[k] = max(s, key_seqs.get(k, s))
    return ({by_key[k]: v for k, v in live.items()},
            {by_key[k]: v for k, v in key_seqs.items()}, reads)


def live_posting_mask(ids, source_seq, tomb_ids, tomb_seqs):
    """Boolean mask of ids from ``source_seq`` (one seq, or one per id)
    that are live under the sequenced-tombstone rule (vectorized:
    searchsorted lookup)."""
    import numpy as np

    if len(tomb_ids) == 0 or len(ids) == 0:
        return np.ones(len(ids), dtype=bool)
    pos = np.minimum(np.searchsorted(tomb_ids, ids),
                     max(0, len(tomb_ids) - 1))
    hit = tomb_ids[pos] == ids
    # a tombstone at seq k kills copies from sources < k, so the copy
    # from source s is dead iff last_seq(id) > s (equality cannot
    # occur: one batch is last-writer-wins per key)
    dead = hit & (tomb_seqs[pos] > source_seq)
    return ~dead


def fsck(index_root: str, epoch: str | None = None,
         verify_hashes: bool = True) -> dict:
    """Integrity check of an epoch against its lineage — the
    operational "is this index trustworthy" probe: every segment file
    exists with the recorded size (and sha256 when ``verify_hashes``),
    every delta record's tombstone/added-docs/segment files exist, each
    delta segment file's ``part`` column is sorted, in range and as long
    as its parquet metadata says, and the docs directory is non-empty
    when n_docs > 0.  Returns a report dict; ``ok`` is False iff any
    check failed."""
    import hashlib

    m = load_manifest(index_root, epoch)
    errors: list[str] = []
    checked = 0
    for s in m.get("segments", []):
        checked += 1
        p = s["path"]
        if not os.path.exists(p):
            errors.append(f"segment missing: {p}")
            continue
        if os.path.getsize(p) != s["bytes"]:
            errors.append(f"segment size mismatch: {p} "
                          f"({os.path.getsize(p)} != {s['bytes']})")
            continue
        if verify_hashes:
            h = hashlib.sha256()
            with open(p, "rb") as f:
                # chunked: segments can be GB-scale; constant memory
                for chunk in iter(lambda: f.read(1 << 20), b""):
                    h.update(chunk)
            if h.hexdigest() != s["sha256"]:
                errors.append(f"segment sha256 mismatch: {p}")
    n_parts = m.get("num_shards", 0) * m.get("parts_per_shard", 0)
    for d in m.get("deltas", []):
        for p in ([d.get("tombstones"), d.get("added_docs"),
                   d.get("key_seqs")]
                  + list(d.get("segments", []))):
            if p:
                checked += 1
                if not os.path.exists(p):
                    errors.append(f"delta file missing: {p}")
        for p in d.get("segments", []):
            if os.path.exists(p):
                errors += _delta_layout_errors(p, n_parts)
    if m.get("n_docs", 0) > 0 and not docs_files(index_root, m["epoch"]):
        errors.append("docs table empty despite n_docs > 0")
    if m.get("store_positions") and not errors:
        # positional-index invariant: every segment row's position
        # blob holds exactly sum(tf) varints (sampled — first file of
        # the base set plus every delta segment; a full sweep is the
        # hash check's job)
        import numpy as np
        import pyarrow.parquet as pq

        from mee_ray.postings import decode_rows, row_value_counts
        sample = [s["path"] for s in m.get("segments", [])][:1]
        for d in m.get("deltas", []):
            sample += list(d.get("segments", []))
        for p in sample:
            t = pq.read_table(p)
            checked += 1
            if "pos_enc" not in t.schema.names:
                errors.append(f"store_positions set but {p} has no "
                              f"pos_enc column")
                continue
            _, tfs, _, offs = decode_rows(t)
            want = np.diff(np.concatenate(([0], np.cumsum(tfs)))[offs])
            got = row_value_counts(t["pos_enc"])
            for r in np.flatnonzero(got != want)[:1].tolist():
                errors.append(f"position count mismatch in {p} row {r}: "
                              f"{got[r]} varints vs sum(tf)={want[r]}")
    return {"epoch": m["epoch"], "ok": not errors, "checked": checked,
            "n_segments": len(m.get("segments", [])),
            "n_deltas": len(m.get("deltas", [])), "errors": errors}


def _delta_layout_errors(path: str, n_parts: int) -> list[str]:
    """A delta record's segment file must hold its rows sorted by
    ``part``, every part in ``[0, n_parts)``, and as many rows as its
    parquet metadata says — readers and compaction slice it by part."""
    import numpy as np
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(path)
    parts = pf.read(columns=["part"])["part"].to_numpy()
    errors = []
    if len(parts) != pf.metadata.num_rows:
        errors.append(f"delta segment row count mismatch: {path} "
                      f"({len(parts)} != {pf.metadata.num_rows})")
    if np.any(np.diff(parts) < 0):
        errors.append(f"delta segment not sorted by part: {path}")
    if len(parts) and (parts.min() < 0 or parts.max() >= n_parts):
        errors.append(f"delta segment part out of range [0, {n_parts}): "
                      f"{path}")
    return errors


def docs_sources(index_root: str, manifest: dict,
                 missing: str = "raise") -> list[tuple[str, int]]:
    """THE liveness-ordered docs-source walk under :func:`live_doc_rows`
    (every stored-field lookup), :func:`live_key_index` (apply_delta's
    key lookup), ``merge.compact_docs`` and reindex's
    ``build.live_docs_dataset``: the epoch's base docs files at source
    seq 0, then each delta record's added-docs file at its seq.  A row
    from source s is live iff no tombstone for its id has seq > s
    (live_posting_mask).

    ``missing``: "raise" fails loudly on a manifest-referenced
    added-docs file that is gone (index corruption — a silent skip
    would turn deletes into no-ops); "skip" tolerates it for
    best-effort diagnostic readers."""
    if missing not in ("raise", "skip"):
        raise ValueError("missing must be 'raise' or 'skip'")
    sources: list[tuple[str, int]] = [
        (f, 0) for f in docs_files(index_root, manifest["epoch"])]
    for d in manifest.get("deltas", []):
        f = d.get("added_docs")
        if not f:
            continue
        if not os.path.exists(f):
            if missing == "skip":
                continue
            raise FileNotFoundError(
                f"manifest references missing added-docs file {f!r} "
                f"(delta seq {d.get('seq')}) — index is inconsistent; "
                "run fsck")
        sources.append((f, d["seq"]))
    return sources


def _docs_schema():
    import pyarrow as pa
    return pa.schema([("doc_id", pa.int64()), ("repo", pa.string()),
                      ("path", pa.string()), ("commit", pa.string()),
                      ("lang", pa.string()),
                      ("content_sha256", pa.binary()),
                      ("length", pa.int32()), ("content", pa.string()),
                      ("source_seq", pa.int64())])


def live_doc_rows(index_root: str, manifest: dict, columns: list[str],
                  where=None, missing: str = "raise", tombstones=None):
    """The stored-field lookup (get_doc, filtered-alias ids,
    delete/update_by_query fetches): the live docs rows matching
    ``where`` (a ``pyarrow.dataset`` expression, pushed down into the
    scan), as one table of ``doc_id`` + ``columns`` + ``source_seq``.
    It reads the docs files on every call; apply_delta's per-batch key
    lookup is :func:`live_key_index`, over cached per-file state.

    The base docs files (source 0) are one multithreaded dataset scan;
    each delta record's added-docs file follows at its seq, so rows
    come in ascending ``source_seq`` order.  ``live_posting_mask``
    runs once per source.  A key's older row is tombstoned at the seq
    that writes its newer row, so a caller that wants one row per key
    or per doc_id takes the last one.  ``missing`` is the
    :func:`docs_sources` rule; ``tombstones`` is a
    :func:`tombstone_index` result the caller already holds."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.dataset as pads

    cols = list(dict.fromkeys(["doc_id", *columns]))
    by_seq: dict[int, list[str]] = {}
    for f, seq in docs_sources(index_root, manifest, missing):
        by_seq.setdefault(seq, []).append(f)
    tomb_ids, tomb_seqs = tombstones or tombstone_index(manifest)
    out = []
    for seq, files in by_seq.items():
        t = pads.dataset(files, format="parquet").to_table(
            columns=cols, filter=where)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(
            live_posting_mask(ids, seq, tomb_ids, tomb_seqs)))
        out.append(t.append_column("source_seq", pa.array(
            np.full(t.num_rows, seq, dtype=np.int64))))
    if not out:
        schema = _docs_schema()
        return pa.schema([schema.field(c)
                          for c in cols + ["source_seq"]]).empty_table()
    return pa.concat_tables(out, promote_options="permissive")


# Filenames that are legitimate epoch-dir members without appearing in
# any manifest file list.
_EPOCH_HOUSEKEEPING = {"manifest.json", "_state.json", "metrics.json",
                       "key_seqs.parquet", *_FINGERPRINTS}


def fsck_repair(index_root: str) -> dict:
    """Conservative debris repair across every MANIFESTED epoch:

    * delete ``*.tmp.*`` leftovers of crashed atomic writes: files,
      and the staged dirs (``docs.tmp.<pid>``, ``exchange.tmp.<pid>``)
      a crashed build never renamed into place;
    * delete parquet files under ``segments/`` / ``deltas/*/``
      directories that NO manifest in the root references (catch-up
      carries delta records across epochs, so references are gathered
      from ALL manifests, never just the owner's);
    * rebuild missing ``*.lineage.json`` sidecars from the manifest's
      own segment records (path/sha256/bytes live there).

    Never touches: epoch dirs WITHOUT a manifest (a resumable crashed
    build — ``gc_epochs`` territory, and only when unpublished and
    unaliased), the ``docs/`` tables (directory-globbed, so every file
    is live by construction), or any file a manifest references.
    Missing/corrupt segments are NOT repairable here — re-run the
    build/compact that produced them.

    Runs under the index WRITE LOCK: apply_delta writes its new files
    into the (manifested) CURRENT epoch dir BEFORE appending the
    manifest record, and an unlocked repair racing it would delete
    exactly those not-yet-referenced files.  (Mid-compaction/reindex
    writes land in manifest-LESS target epochs, which the skip rule
    already protects.)"""
    with write_lock(index_root):
        return _fsck_repair_locked(index_root)


def _fsck_repair_locked(index_root: str) -> dict:
    import glob

    eroot = os.path.join(index_root, "epochs")
    if not os.path.isdir(eroot):
        return {"removed": [], "sidecars_rebuilt": [], "skipped_epochs": []}
    manifested: dict[str, dict] = {}
    skipped: list[str] = []
    for name in sorted(os.listdir(eroot)):
        if os.path.isfile(manifest_path(index_root, name)):
            manifested[name] = load_manifest(index_root, name)
        else:
            skipped.append(name)

    referenced: set[str] = set()
    for m in manifested.values():
        for s in m.get("segments", []):
            referenced.add(os.path.realpath(s["path"]))
        for d in m.get("deltas", []):
            for p in ([d.get("tombstones"), d.get("added_docs"),
                       d.get("key_seqs")] + list(d.get("segments", []))):
                if p:
                    referenced.add(os.path.realpath(p))

    removed: list[str] = []
    rebuilt: list[str] = []
    for name, m in manifested.items():
        edir = epoch_dir(index_root, name)
        for sub in sorted(os.listdir(edir)):
            path = os.path.join(edir, sub)
            if ".tmp." in sub and os.path.isdir(path):
                shutil.rmtree(path)
                removed.append(path)
        for path in glob.glob(os.path.join(edir, "**"), recursive=True):
            if not os.path.isfile(path):
                continue
            base = os.path.basename(path)
            rel = os.path.relpath(path, edir)
            if ".tmp." in base:
                os.remove(path)
                removed.append(path)
                continue
            top = rel.split(os.sep, 1)[0]
            if top == "docs" or base in _EPOCH_HOUSEKEEPING:
                continue
            if base.endswith(".lineage.json"):
                # orphan sidecar of a removed segment is debris too
                if os.path.realpath(path[:-len(".lineage.json")]) \
                        not in referenced:
                    os.remove(path)
                    removed.append(path)
                continue
            if top in ("segments", "deltas") \
                    and os.path.realpath(path) not in referenced:
                os.remove(path)
                removed.append(path)
        for s in m.get("segments", []):
            sc = s["path"] + ".lineage.json"
            if os.path.exists(s["path"]) and not os.path.exists(sc):
                lin = {"part": s.get("part"), "n_terms": s.get("n_terms"),
                       "n_postings": s.get("n_postings"),
                       "bytes": s.get("bytes"), "path": s["path"],
                       "sha256": s.get("sha256"), "resumed": True,
                       "hint_avgdl": float(s.get("hint_avgdl") or 0.0)}
                _atomic_write_json(sc, lin)
                rebuilt.append(sc)
    return {"removed": sorted(removed), "sidecars_rebuilt": sorted(rebuilt),
            "skipped_epochs": skipped}


def live_totals(manifest: dict) -> tuple[int, int]:
    """(N_live, total_live_tokens) after applying the delta log to
    base stats — the exact integers behind :func:`live_stats`.
    Federated (cross-index) search sums these across sub-indexes so
    its global avgdl divides the same integers a union index would."""
    n = manifest["n_docs"]
    total = manifest["total_tokens"]
    for d in manifest.get("deltas", []):
        n += d["n_added"] - d["n_deleted"]
        total += d["sum_dl_added"] - d["sum_dl_deleted"]
    return n, total


def live_stats(manifest: dict) -> tuple[int, float]:
    """(N_live, avgdl_live) after applying the delta log to base stats.
    Exact, not approximate: each delta records n/sum_dl added+deleted,
    so BM25 global stats stay oracle-identical between compactions."""
    n, total = live_totals(manifest)
    avgdl = (total / n) if n else 0.0
    return n, avgdl
