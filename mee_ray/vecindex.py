"""Persisted VECTOR-index lifecycle: build → search → delta → compact.

The embedding-side analog of the text index's epoch discipline, built
from the SAME primitives (mee_ray.manifest): JSON manifest + CURRENT
pointer, atomic tmp+rename writes, per-record sequenced tombstones
(``manifest.live_posting_mask`` — a tombstone written by delta record
k kills only copies from older sources), delta log folded away at
compaction.  The reference has no vector side at all; a training-data
engine needs one index lifecycle story for BOTH modalities, and this
module makes the embedding index a first-class citizen of it rather
than a per-query rebuild.

Layout under ``root``::

    CURRENT                      → epoch name
    epochs/<epoch>/manifest.json → centroids, counts, files, deltas
    epochs/<epoch>/clusters/cluster-00007.parquet   (vec_id, embedding)
    epochs/<epoch>/deltas/delta-000001/{adds.parquet, tombstones.parquet}

Scale shape:
* build: centroids fit on a BOUNDED sample (IVFIndex.fit_dataset);
  assignment is one map_batches pass; cluster files are written by a
  groupby(cluster) — one task per cluster, atomic tmp+rename.
* search: probe the ``nprobe`` nearest centroids and read ONLY those
  clusters' base files — transfer is O(probed clusters), never the
  index.  The delta log's adds (which carry their cluster id) and
  tombstones are read once per searcher (``_LiveRows``).
* delta: upserts are assigned to clusters with the EPOCH's centroids
  (an index's geometry is frozen at build; re-fitting is a rebuild,
  exactly like the text tokenizer being manifest-pinned).
* compact: per-cluster local merge — each task reads its own base
  file + the delta adds routed to it, drops tombstoned rows, rewrites.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from mee_ray import manifest as mf
from mee_ray.pipelines.vector import IVFIndex, _emb_matrix, _nearest, _unit
from mee_ray.stages import collect


def _write_manifest(root: str, epoch: str, m: dict) -> None:
    os.makedirs(mf.epoch_dir(root, epoch), exist_ok=True)
    mf.write_manifest(root, epoch,
                      {k: v for k, v in m.items() if k != "epoch"})


def _cluster_table(vec_ids: np.ndarray, mat: np.ndarray) -> pa.Table:
    return pa.table({
        "vec_id": pa.array(vec_ids.astype(np.int64), pa.int64()),
        "embedding": pa.array(list(mat.astype(np.float32)),
                              pa.list_(pa.float32()))})


def _write_cluster(cdir: str, cl: int, ids: np.ndarray,
                   mat: np.ndarray) -> None:
    """One cluster file, rows in vec_id order, atomic tmp+rename."""
    order = np.argsort(ids, kind="stable")
    dst = os.path.join(cdir, f"cluster-{cl:05d}.parquet")
    tmp = dst + f".tmp.{os.getpid()}"
    pq.write_table(_cluster_table(ids[order], mat[order]), tmp)
    os.replace(tmp, dst)


def _last_per_id(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sorted unique ids, row of each one's LAST occurrence): one
    ``np.unique`` over the reversed log — last writer wins."""
    uniq, first = np.unique(ids[::-1], return_index=True)
    return uniq, len(ids) - 1 - first


def build_vector_index(emb_ds, root: str, epoch: str,
                       n_clusters: int = 16) -> dict:
    """Build + publish an IVF vector index from a Ray Dataset with
    (``vec_id``, ``embedding``) columns.  Vectors are stored
    unit-normalized (cosine ≡ dot thereafter)."""
    ivf = IVFIndex(n_clusters=n_clusters).fit_dataset(emb_ds)
    cents = _unit(ivf.centroids.astype(np.float64))

    cdir = os.path.join(mf.epoch_dir(root, epoch), "clusters")
    os.makedirs(cdir, exist_ok=True)

    def assign(t: pa.Table) -> pa.Table:
        ids, mat = _emb_matrix(t)
        u = _unit(mat)
        return _cluster_table(ids, u).append_column(
            "cluster", pa.array(_nearest(u, cents).astype(np.int32)))

    def write_cluster(g: pa.Table) -> pa.Table:
        cl = int(g["cluster"][0].as_py())
        ids, mat = _emb_matrix(g)
        _write_cluster(cdir, cl, ids, mat)
        return pa.table({"cluster": pa.array([cl], pa.int32()),
                         "n": pa.array([len(ids)], pa.int64())})

    counts = collect(emb_ds.map_batches(assign, batch_format="pyarrow",
                                        zero_copy_batch=True)
                     .groupby("cluster")
                     .map_groups(write_cluster, batch_format="pyarrow"),
                     "cluster n")
    per_cluster = dict(zip(counts["cluster"].to_pylist(),
                           counts["n"].to_pylist()))

    m = {"format": "vecindex-v1",
         "n_clusters": n_clusters,
         "dim": int(cents.shape[1]),
         "centroids": [list(map(float, c)) for c in cents],
         "cluster_counts": {str(k): v
                            for k, v in sorted(per_cluster.items())},
         "n_vectors": int(sum(per_cluster.values())),
         "deltas": []}
    _write_manifest(root, epoch, m)
    mf.publish(root, epoch)
    return mf.load_manifest(root, epoch)


def apply_vector_delta(events: pa.Table, root: str) -> dict:
    """Apply one batch of vector events to CURRENT.  ``events``
    columns: op ("UPSERT"|"DELETE"), vec_id, embedding (null for
    DELETE).  Last-writer-wins INSIDE the batch by row order; across
    batches by delta-record sequence (the text index's sequenced-
    tombstone rule, reused verbatim via manifest.live_posting_mask).
    Upserts are assigned with the epoch's frozen centroids."""
    with mf.write_lock(root):
        m = mf.load_manifest(root)
        epoch = m["epoch"]
        seq = len(m["deltas"]) + 1
        ddir = os.path.join(mf.epoch_dir(root, epoch), "deltas",
                            f"delta-{seq:06d}")
        if os.path.isdir(ddir):           # debris from a crashed apply
            shutil.rmtree(ddir)
        os.makedirs(ddir)

        tomb_ids, last = _last_per_id(
            events["vec_id"].to_numpy().astype(np.int64))
        up = last[events["op"].to_numpy(zero_copy_only=False)[last]
                  == "UPSERT"]
        ids, mat = _emb_matrix(events.select(["vec_id", "embedding"])
                               .take(up))
        cents = np.asarray(m["centroids"], dtype=np.float64)

        tomb_path = os.path.join(ddir, "tombstones.parquet")
        tmp = tomb_path + ".tmp"
        pq.write_table(pa.table({"vec_id": pa.array(tomb_ids,
                                                    pa.int64())}), tmp)
        os.replace(tmp, tomb_path)

        u = _unit(mat)
        adds_path = os.path.join(ddir, "adds.parquet")
        tmp = adds_path + ".tmp"
        pq.write_table(_cluster_table(ids, u).append_column(
            "cluster", pa.array(_nearest(u, cents).astype(np.int32))), tmp)
        os.replace(tmp, adds_path)

        rec = {"seq": seq, "tombstones": tomb_path, "adds": adds_path,
               "n_upserts": len(up),
               "n_deletes": int(len(tomb_ids) - len(up))}
        m["deltas"].append(rec)
        _write_manifest(root, epoch, m)
        return rec


class _LiveRows:
    """The live rows of one manifest snapshot, cluster by cluster:
    each cluster's base file of the snapshot's epoch, then the delta
    adds routed to it in log order, every source filtered by the
    sequenced tombstones (``mf.live_posting_mask``).  Each delta
    ``adds`` and ``tombstones`` file is read ONCE, when the snapshot is
    opened, and its rows grouped by cluster; a base file is read when
    its cluster is asked for.  The searcher and the compactor read
    through it."""

    def __init__(self, root: str, m: dict):
        self.base_dir = os.path.join(mf.epoch_dir(root, m["epoch"]),
                                     "clusters")
        deltas = m["deltas"]
        # sequenced tombstones: each id's LAST tombstoning record
        t_ids = [pq.read_table(d["tombstones"], columns=["vec_id"])
                 ["vec_id"].to_numpy() for d in deltas]
        t_seqs = [np.full(len(t), d["seq"], np.int64)
                  for t, d in zip(t_ids, deltas)]
        self.tomb_ids, last = _last_per_id(
            np.concatenate([np.empty(0, np.int64), *t_ids]))
        self.tomb_seqs = np.concatenate(
            [np.empty(0, np.int64), *t_seqs])[last]
        self.adds: dict[int, list] = {}
        for d in deltas:
            t = pq.read_table(d["adds"])
            ids, mat = _emb_matrix(t)
            cl = t["cluster"].to_numpy()
            for c in np.unique(cl).tolist():
                self.adds.setdefault(c, []).append(
                    (d["seq"], ids[cl == c], mat[cl == c]))

    def cluster(self, cl: int) -> tuple[np.ndarray, np.ndarray]:
        """(vec_ids, matrix) of ``cl``'s live rows; no row → (0, 0)."""
        parts = list(self.adds.get(cl, ()))
        base = os.path.join(self.base_dir, f"cluster-{cl:05d}.parquet")
        if os.path.exists(base):
            parts.insert(0, (0, *_emb_matrix(pq.read_table(base))))
        ids_l, mat_l = [], []
        for src, ids, mat in parts:
            keep = mf.live_posting_mask(ids, src, self.tomb_ids,
                                        self.tomb_seqs)
            if keep.any():
                ids_l.append(ids[keep])
                mat_l.append(mat[keep])
        if not ids_l:
            return np.empty(0, np.int64), np.empty((0, 0))
        return np.concatenate(ids_l), np.vstack(mat_l)


class VectorSearcher:
    """Cosine top-k over a published vector index: probe the
    ``nprobe`` nearest centroids, read only those clusters' base file
    + the delta adds routed to them, apply sequenced tombstones,
    exact dot-product rank.  Stateful (manifest, centroids and the
    delta log loaded once) — usable directly or inside a map_batches
    actor pool."""

    def __init__(self, root: str, epoch: str | None = None):
        self.m = mf.load_manifest(root, epoch)
        self.cents = np.asarray(self.m["centroids"], dtype=np.float64)
        self._live = _LiveRows(root, self.m)

    def search(self, qvec, k: int = 10,
               nprobe: int = 4) -> list[tuple[int, float]]:
        q = np.asarray(qvec, dtype=np.float64)
        q = q / (np.linalg.norm(q) or 1.0)
        order = np.argsort(-(self.cents @ q))
        ids_l, sc_l = [], []
        for cl in order[:max(1, min(nprobe, len(order)))].tolist():
            ids, mat = self._live.cluster(cl)
            if len(ids):
                ids_l.append(ids)
                sc_l.append(mat @ q)
        if not ids_l:
            return []
        ids = np.concatenate(ids_l)
        sc = np.concatenate(sc_l)
        order = np.lexsort((ids, -sc))[:k]
        return [(int(ids[i]), float(sc[i])) for i in order]


def _merge_clusters(root: str, m: dict, new_epoch: str) -> dict:
    """Per-cluster local merge of one manifest SNAPSHOT into
    ``new_epoch``'s clusters dir (each delta adds file read once, see
    ``_LiveRows``).  Returns per-cluster live counts."""
    live = _LiveRows(root, m)
    cdir = os.path.join(mf.epoch_dir(root, new_epoch), "clusters")
    os.makedirs(cdir, exist_ok=True)
    per_cluster = {}
    for cl in sorted({int(c) for c in m["cluster_counts"]} | set(live.adds)):
        ids, mat = live.cluster(cl)
        if not len(ids):
            # a catch-up pass can kill EVERY row of a cluster file a
            # prior pass already wrote into the new dir — leaving it
            # would resurrect those rows (the new epoch carries no
            # tombstones)
            dst = os.path.join(cdir, f"cluster-{cl:05d}.parquet")
            if os.path.exists(dst):
                os.remove(dst)
            continue
        _write_cluster(cdir, cl, ids, mat)
        per_cluster[cl] = int(len(ids))
    return per_cluster


def compact_vector_index(root: str, new_epoch: str) -> dict:
    """Fold the delta log into ``new_epoch``: per-cluster local merge
    (each cluster's base file + the delta adds routed to it, minus
    tombstoned rows), centroids carried over unchanged.  Cluster set =
    base clusters ∪ delta-routed clusters, so adds landing in an
    empty cluster still materialize (the text compactor's
    delta-only-partition rule).

    Concurrency discipline (the text compactor's, via the SAME lock
    files): the whole run holds ``mf.compact_lock`` so two compactors
    can't interleave writes into one target dir, and the publish step
    holds ``mf.write_lock`` with a catch-up loop — a vector delta that
    landed on the predecessor between our snapshot and the flip is
    re-folded before CURRENT moves, never silently dropped
    (apply_vector_delta serializes through the same write lock)."""
    with mf.compact_lock(root):
        m = mf.load_manifest(root)
        old = m["epoch"]
        if new_epoch == old:
            raise ValueError(
                f"vector compaction target {new_epoch!r} IS the "
                "current epoch — a concurrent compaction already "
                "published it")
        if os.path.isfile(mf.manifest_path(root, new_epoch)):
            raise ValueError(
                f"vector compaction target {new_epoch!r} is an "
                "existing manifested epoch — refusing to overwrite")
        # clear crashed-attempt debris: a stale cluster file for a
        # cluster this snapshot doesn't produce would resurrect rows
        shutil.rmtree(os.path.join(mf.epoch_dir(root, new_epoch),
                                   "clusters"), ignore_errors=True)
        per_cluster = _merge_clusters(root, m, new_epoch)
        _finalize_vector_compact(root, m, new_epoch, per_cluster,
                                 consumed=len(m["deltas"]))
    return mf.load_manifest(root, new_epoch)


def _finalize_vector_compact(root: str, m: dict, new_epoch: str,
                             per_cluster: dict, consumed: int) -> None:
    """Locked publish with catch-up: any delta record appended to the
    predecessor after the merge's snapshot (``consumed`` records) is
    folded onto the half-built new epoch before CURRENT flips —
    apply_vector_delta serializes through the same write lock, so a
    record either lands before the flip (replayed here) or targets the
    new CURRENT."""
    old = m["epoch"]
    with mf.write_lock(root):
        while True:
            cur = mf.load_manifest(root, old)
            extra = cur["deltas"][consumed:]
            if not extra:
                break
            # tombstones of already-folded rows apply to source 0 =
            # the merged base, which any catch-up seq kills
            snap = dict(cur)
            snap["deltas"] = extra
            per_cluster = _merge_vector_catchup(root, snap, new_epoch,
                                                per_cluster)
            consumed += len(extra)
        m2 = {"format": m["format"], "n_clusters": m["n_clusters"],
              "dim": m["dim"], "centroids": m["centroids"],
              "cluster_counts": {str(k): v for k, v in
                                 sorted(per_cluster.items())},
              "n_vectors": int(sum(per_cluster.values())),
              "deltas": [], "compacted_from": old}
        _write_manifest(root, new_epoch, m2)
        mf.publish(root, new_epoch)


def _merge_vector_catchup(root: str, snap: dict, new_epoch: str,
                          per_cluster: dict) -> dict:
    """Fold late-landing delta records onto the HALF-BUILT new epoch:
    the new epoch's cluster files act as source 0 and the extra
    records keep their relative order (their tombstones kill any
    already-merged copy)."""
    m = dict(snap)
    m["epoch"] = new_epoch          # read base rows from the NEW dir
    m["cluster_counts"] = {str(k): v for k, v in per_cluster.items()}
    return _merge_clusters(root, m, new_epoch)
