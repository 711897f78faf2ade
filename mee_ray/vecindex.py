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
  clusters' files (+ the delta log's adds, which carry their cluster
  id) — transfer is O(probed clusters), never the index.
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


def _write_manifest(root: str, epoch: str, m: dict) -> None:
    os.makedirs(mf.epoch_dir(root, epoch), exist_ok=True)
    mf.write_manifest(root, epoch,
                      {k: v for k, v in m.items() if k != "epoch"})


def _unit(mat: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(mat, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return mat / n


def _cluster_table(vec_ids: np.ndarray, mat: np.ndarray) -> pa.Table:
    return pa.table({
        "vec_id": pa.array(vec_ids.astype(np.int64), pa.int64()),
        "embedding": pa.array(list(mat.astype(np.float32)),
                              pa.list_(pa.float32()))})


def _read_vecs(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    ids = t["vec_id"].to_numpy(zero_copy_only=False)
    mat = np.stack(t["embedding"].to_numpy(zero_copy_only=False)) \
        if t.num_rows else np.empty((0, 0), dtype=np.float32)
    return ids, mat.astype(np.float64)


def build_vector_index(emb_ds, root: str, epoch: str,
                       n_clusters: int = 16,
                       id_col: str = "vec_id",
                       emb_col: str = "embedding") -> dict:
    """Build + publish an IVF vector index from a Ray Dataset with
    (``id_col``, ``emb_col``) columns.  Vectors are stored
    unit-normalized (cosine ≡ dot thereafter)."""
    from mee_ray.pipelines.vector import IVFIndex

    if id_col != "vec_id" or emb_col != "embedding":
        def rename(t: pa.Table) -> pa.Table:
            return pa.table({"vec_id": t[id_col], "embedding": t[emb_col]})
        emb_ds = emb_ds.map_batches(rename, batch_format="pyarrow",
                                    zero_copy_batch=True)

    ivf = IVFIndex(n_clusters=n_clusters).fit_dataset(emb_ds)
    cents = _unit(ivf.centroids.astype(np.float64))

    cdir = os.path.join(mf.epoch_dir(root, epoch), "clusters")
    os.makedirs(cdir, exist_ok=True)

    def assign(t: pa.Table) -> pa.Table:
        ids, mat = _read_vecs(t)
        u = _unit(mat)
        cl = np.argmax(u @ cents.T, axis=1).astype(np.int32)
        out = _cluster_table(ids, u)
        return out.append_column("cluster", pa.array(cl))

    def write_cluster(g: pa.Table) -> pa.Table:
        cl = int(g["cluster"][0].as_py())
        ids, mat = _read_vecs(g.drop_columns(["cluster"]))
        order = np.argsort(ids, kind="stable")
        dst = os.path.join(cdir, f"cluster-{cl:05d}.parquet")
        tmp = dst + f".tmp.{os.getpid()}"
        pq.write_table(_cluster_table(ids[order], mat[order]), tmp)
        os.replace(tmp, dst)
        return pa.table({"cluster": pa.array([cl], pa.int32()),
                         "n": pa.array([len(ids)], pa.int64())})

    counts = list(emb_ds
                  .map_batches(assign, batch_format="pyarrow",
                               zero_copy_batch=True)
                  .groupby("cluster")
                  .map_groups(write_cluster, batch_format="pyarrow")
                  .iter_batches(batch_format="pyarrow"))
    per_cluster = {}
    for b in counts:
        for c, n in zip(b["cluster"].to_pylist(), b["n"].to_pylist()):
            per_cluster[int(c)] = int(n)

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

        last: dict[int, tuple[str, np.ndarray | None]] = {}
        for i in range(events.num_rows):
            vid = int(events["vec_id"][i].as_py())
            op = events["op"][i].as_py()
            emb = events["embedding"][i].as_py()
            last[vid] = (op, None if emb is None
                         else np.asarray(emb, dtype=np.float64))

        tomb_ids = np.array(sorted(last), dtype=np.int64)
        ups = [(v, e) for v, (op, e) in sorted(last.items())
               if op == "UPSERT"]
        cents = np.asarray(m["centroids"], dtype=np.float64)

        tomb_path = os.path.join(ddir, "tombstones.parquet")
        tmp = tomb_path + ".tmp"
        pq.write_table(pa.table({"vec_id": pa.array(tomb_ids,
                                                    pa.int64())}), tmp)
        os.replace(tmp, tomb_path)

        adds_path = os.path.join(ddir, "adds.parquet")
        if ups:
            ids = np.array([v for v, _ in ups], dtype=np.int64)
            mat = _unit(np.stack([e for _, e in ups]))
            cl = np.argmax(mat @ cents.T, axis=1).astype(np.int32)
            t = _cluster_table(ids, mat).append_column(
                "cluster", pa.array(cl))
        else:
            t = pa.table({"vec_id": pa.array([], pa.int64()),
                          "embedding": pa.array([], pa.list_(pa.float32())),
                          "cluster": pa.array([], pa.int32())})
        tmp = adds_path + ".tmp"
        pq.write_table(t, tmp)
        os.replace(tmp, adds_path)

        rec = {"seq": seq, "tombstones": tomb_path, "adds": adds_path,
               "n_upserts": len(ups),
               "n_deletes": int(len(tomb_ids) - len(ups))}
        m["deltas"].append(rec)
        _write_manifest(root, epoch, m)
        return rec


class VectorSearcher:
    """Cosine top-k over a published vector index: probe the
    ``nprobe`` nearest centroids, read only those clusters' base file
    + the delta adds routed to them, apply sequenced tombstones,
    exact dot-product rank.  Stateful (manifest + centroids loaded
    once) — usable directly or inside a map_batches actor pool."""

    def __init__(self, root: str, epoch: str | None = None):
        self.root = root
        self.m = mf.load_manifest(root, epoch)
        self.cents = np.asarray(self.m["centroids"], dtype=np.float64)
        self._tomb = self._tombstone_index()

    def _tombstone_index(self):
        last: dict[int, int] = {}
        for d in self.m["deltas"]:
            t = pq.read_table(d["tombstones"], columns=["vec_id"])
            for v in t["vec_id"].to_pylist():
                last[v] = d["seq"]
        if not last:
            z = np.empty(0, dtype=np.int64)
            return z, z.copy()
        ids = np.fromiter(last.keys(), dtype=np.int64, count=len(last))
        seqs = np.fromiter(last.values(), dtype=np.int64,
                           count=len(last))
        order = np.argsort(ids)
        return ids[order], seqs[order]

    def _cluster_rows(self, cl: int):
        """(vec_ids, unit matrix) of LIVE rows in one cluster."""
        parts = []
        base = os.path.join(mf.epoch_dir(self.root, self.m["epoch"]),
                            "clusters", f"cluster-{cl:05d}.parquet")
        if os.path.exists(base):
            parts.append((0, pq.read_table(base)))
        for d in self.m["deltas"]:
            t = pq.read_table(d["adds"])
            t = t.filter(pa.compute.equal(t["cluster"], cl)) \
                if t.num_rows else t
            if t.num_rows:
                parts.append((d["seq"], t.drop_columns(["cluster"])))
        ids_l, mat_l = [], []
        ti, ts = self._tomb
        for src, t in parts:
            ids, mat = _read_vecs(t)
            keep = mf.live_posting_mask(ids, src, ti, ts)
            if keep.any():
                ids_l.append(ids[keep])
                mat_l.append(mat[keep])
        if not ids_l:
            return np.empty(0, np.int64), np.empty((0, 0))
        return np.concatenate(ids_l), np.vstack(mat_l)

    def search(self, qvec, k: int = 10,
               nprobe: int = 4) -> list[tuple[int, float]]:
        q = np.asarray(qvec, dtype=np.float64)
        q = q / (np.linalg.norm(q) or 1.0)
        order = np.argsort(-(self.cents @ q))
        probes = order[:max(1, min(nprobe, len(order)))]
        ids_l, sc_l = [], []
        for cl in probes:
            ids, mat = self._cluster_rows(int(cl))
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
    ``new_epoch``'s clusters dir.  Each delta adds file is read ONCE
    and its rows grouped by cluster up front (the old per-cluster
    ``_cluster_rows`` loop re-read every adds file once per cluster —
    O(clusters × delta files) parquet reads).  Returns per-cluster
    live counts."""
    searcher = VectorSearcher.__new__(VectorSearcher)
    searcher.root, searcher.m = root, m
    ti, ts = searcher._tombstone_index()

    clusters = {int(c) for c in m["cluster_counts"]}
    # (seq, ids, mat) per cluster, one read per adds file
    delta_by_cluster: dict[int, list] = {}
    for d in m["deltas"]:
        t = pq.read_table(d["adds"])
        if not t.num_rows:
            continue
        cl_arr = t["cluster"].to_numpy(zero_copy_only=False)
        ids, mat = _read_vecs(t.drop_columns(["cluster"]))
        for cl in np.unique(cl_arr):
            sel = cl_arr == cl
            delta_by_cluster.setdefault(int(cl), []).append(
                (d["seq"], ids[sel], mat[sel]))
            clusters.add(int(cl))

    cdir = os.path.join(mf.epoch_dir(root, new_epoch), "clusters")
    os.makedirs(cdir, exist_ok=True)
    per_cluster = {}
    for cl in sorted(clusters):
        parts = []
        base = os.path.join(mf.epoch_dir(root, m["epoch"]), "clusters",
                            f"cluster-{cl:05d}.parquet")
        if os.path.exists(base):
            ids, mat = _read_vecs(pq.read_table(base))
            parts.append((0, ids, mat))
        parts.extend(delta_by_cluster.get(cl, ()))
        ids_l, mat_l = [], []
        for src, ids, mat in parts:
            keep = mf.live_posting_mask(ids, src, ti, ts)
            if keep.any():
                ids_l.append(ids[keep])
                mat_l.append(mat[keep])
        dst = os.path.join(cdir, f"cluster-{cl:05d}.parquet")
        if not ids_l:
            # a catch-up pass can kill EVERY row of a cluster file a
            # prior pass already wrote into the new dir — leaving it
            # would resurrect those rows (the new epoch carries no
            # tombstones)
            if os.path.exists(dst):
                os.remove(dst)
            continue
        ids = np.concatenate(ids_l)
        mat = np.vstack(mat_l)
        order = np.argsort(ids, kind="stable")
        tmp = dst + f".tmp.{os.getpid()}"
        pq.write_table(_cluster_table(ids[order], mat[order]), tmp)
        os.replace(tmp, dst)
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
