"""Persisted vector-index lifecycle: build → search → delta →
compact, exactness vs brute force at full probe depth."""

import numpy as np
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"
N_CLUSTERS = 8


def _brute(base: dict[int, np.ndarray], q: np.ndarray, k: int):
    """Replicates the index's storage pipeline bit-for-bit: vectors
    unit-normalized in float64, QUANTIZED to float32 at rest, widened
    back to float64 for the dot — so scores compare exactly."""
    q = q / (np.linalg.norm(q) or 1.0)
    ids = np.array(sorted(base), dtype=np.int64)
    mat = np.stack([base[i] for i in ids])
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    mat = mat.astype(np.float32).astype(np.float64)
    sc = mat @ q
    order = np.lexsort((ids, -sc))[:k]
    return [(int(ids[i]), float(sc[i])) for i in order]


@pytest.fixture(scope="module")
def vec_index(ray_session, tmp_path_factory):
    import pyarrow.parquet as pq
    import ray.data

    from mee_ray.vecindex import build_vector_index

    root = str(tmp_path_factory.mktemp("vecidx")) + "/index"
    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    build_vector_index(ds, root, "ep1", n_clusters=N_CLUSTERS)

    t = pq.read_table(f"{SF}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    base = {int(v): np.asarray(e, dtype=np.float64)
            for v, e in zip(t["vec_id"].to_pylist(),
                            t["embedding"].to_pylist())}
    return {"root": root, "base": base}


def test_full_probe_is_exact_and_partial_probe_recalls(vec_index):
    from mee_ray.vecindex import VectorSearcher

    s = VectorSearcher(vec_index["root"])
    base = vec_index["base"]
    rng = np.random.default_rng(5)
    dim = len(next(iter(base.values())))
    hits = total = 0
    for _ in range(10):
        q = rng.normal(size=dim)
        want = _brute(base, q, 10)
        got = s.search(q, k=10, nprobe=N_CLUSTERS)
        assert [(d, round(x, 12)) for d, x in got] == \
            [(d, round(x, 12)) for d, x in want]
        part = {d for d, _ in s.search(q, k=10, nprobe=2)}
        hits += len(part & {d for d, _ in want})
        total += 10
    assert hits / total >= 0.5, f"nprobe=2 recall {hits/total:.2f}"


def test_delta_upsert_delete_and_compact(vec_index, ray_session):
    from mee_ray.vecindex import (VectorSearcher, apply_vector_delta,
                                  compact_vector_index)

    root = vec_index["root"]
    base = dict(vec_index["base"])
    dim = len(next(iter(base.values())))
    rng = np.random.default_rng(9)

    new_vec = rng.normal(size=dim)
    moved_id = sorted(base)[0]
    moved_vec = rng.normal(size=dim)
    dead_id = sorted(base)[1]

    ev = pa.table({
        "op": pa.array(["UPSERT", "UPSERT", "DELETE"]),
        "vec_id": pa.array([10_001, moved_id, dead_id], pa.int64()),
        "embedding": pa.array(
            [list(map(float, new_vec)), list(map(float, moved_vec)),
             None], pa.list_(pa.float64())),
    })
    rec = apply_vector_delta(ev, root)
    assert rec["n_upserts"] == 2 and rec["n_deletes"] == 1

    base[10_001] = new_vec
    base[moved_id] = moved_vec
    del base[dead_id]

    s = VectorSearcher(root)
    for _ in range(6):
        q = rng.normal(size=dim)
        want = _brute(base, q, 10)
        got = s.search(q, k=10, nprobe=N_CLUSTERS)
        assert [(d, round(x, 12)) for d, x in got] == \
            [(d, round(x, 12)) for d, x in want]

    # the dead id never surfaces, the new one does (as top hit for
    # its own vector)
    assert s.search(base[10_001], k=1, nprobe=N_CLUSTERS)[0][0] == 10_001
    allr = s.search(rng.normal(size=dim), k=len(base) + 10,
                    nprobe=N_CLUSTERS)
    assert dead_id not in {d for d, _ in allr}

    compact_vector_index(root, "ep2")
    s2 = VectorSearcher(root)
    assert s2.m["epoch"] == "ep2" and not s2.m["deltas"]
    for _ in range(6):
        q = rng.normal(size=dim)
        assert s2.search(q, k=10, nprobe=N_CLUSTERS) == \
            s.search(q, k=10, nprobe=N_CLUSTERS)
    assert s2.m["n_vectors"] == len(base)


def _mk_index(tmp_path, rng, n=40, dim=8, n_clusters=4):
    import ray.data

    from mee_ray.vecindex import build_vector_index

    root = str(tmp_path / "vecidx")
    ids = np.arange(n, dtype=np.int64)
    mat = rng.normal(size=(n, dim))
    t = pa.table({"vec_id": pa.array(ids),
                  "embedding": pa.array([list(map(float, r))
                                         for r in mat],
                                        pa.list_(pa.float64()))})
    build_vector_index(ray.data.from_arrow(t), root, "ep1",
                       n_clusters=n_clusters)
    return root, {int(i): mat[i] for i in ids}, dim


def test_vector_compact_catchup_folds_late_delta(ray_session, tmp_path):
    """A delta record appended to the predecessor AFTER the merge's
    snapshot (simulated mid-compaction landing) is folded by the
    locked publish step — never silently dropped."""
    from mee_ray import manifest as mf
    from mee_ray.vecindex import (VectorSearcher, _finalize_vector_compact,
                                  _merge_clusters, apply_vector_delta)

    rng = np.random.default_rng(17)
    root, base, dim = _mk_index(tmp_path, rng)

    ev1 = pa.table({"op": pa.array(["DELETE"]),
                    "vec_id": pa.array([0], pa.int64()),
                    "embedding": pa.array([None], pa.list_(pa.float64()))})
    apply_vector_delta(ev1, root)
    del base[0]

    # merge from a snapshot holding only delta 1 ...
    snap = mf.load_manifest(root)
    per_cluster = _merge_clusters(root, snap, "ep2")
    # ... then a second delta lands before the publish
    v_new = rng.normal(size=dim)
    ev2 = pa.table({
        "op": pa.array(["UPSERT", "DELETE"]),
        "vec_id": pa.array([999, 1], pa.int64()),
        "embedding": pa.array([list(map(float, v_new)), None],
                              pa.list_(pa.float64()))})
    apply_vector_delta(ev2, root)
    base[999] = v_new
    del base[1]

    _finalize_vector_compact(root, snap, "ep2", per_cluster,
                             consumed=len(snap["deltas"]))
    assert mf.current_epoch(root) == "ep2"
    s = VectorSearcher(root)
    assert not s.m["deltas"]
    assert s.m["n_vectors"] == len(base)
    got = s.search(v_new, k=len(base) + 5, nprobe=4)
    ids = {d for d, _ in got}
    assert 999 in ids and 0 not in ids and 1 not in ids
    q = rng.normal(size=dim)
    want = _brute(base, q, 10)
    got2 = s.search(q, k=10, nprobe=4)
    assert [(d, round(x, 12)) for d, x in got2] == \
        [(d, round(x, 12)) for d, x in want]


def test_vector_compact_refuses_current_target(ray_session, tmp_path):
    """The stale-racer guard: compacting into the epoch that IS
    CURRENT (or any manifested epoch) must refuse, never rmtree it."""
    import pytest as _pytest

    from mee_ray.vecindex import apply_vector_delta, compact_vector_index

    rng = np.random.default_rng(18)
    root, base, dim = _mk_index(tmp_path, rng)
    ev = pa.table({"op": pa.array(["DELETE"]),
                   "vec_id": pa.array([2], pa.int64()),
                   "embedding": pa.array([None], pa.list_(pa.float64()))})
    apply_vector_delta(ev, root)
    with _pytest.raises(ValueError, match="IS the current"):
        compact_vector_index(root, "ep1")
    compact_vector_index(root, "ep2")
    with _pytest.raises(ValueError, match="existing manifested"):
        compact_vector_index(root, "ep1")


@pytest.mark.parametrize("seed", [401, 402])
def test_vector_lifecycle_fuzz(ray_session, tmp_path, seed):
    """Randomized upsert/delete/compact sequences vs a dict model:
    full-probe search must match the f32-quantized brute force after
    every step, and cluster files must never resurrect dead rows
    (the empty-cluster-removal and catch-up paths added with the
    locked compactor)."""
    from mee_ray.vecindex import (VectorSearcher, apply_vector_delta,
                                  compact_vector_index)

    rng = np.random.default_rng(seed)
    pyrng = __import__("random").Random(seed)
    root, base, dim = _mk_index(tmp_path, rng, n=30, dim=8, n_clusters=4)
    model = dict(base)
    next_id = 1000
    n_compacts = 0

    for step in range(12):
        ops, ids_used = [], set()
        for _ in range(pyrng.randrange(1, 5)):
            roll = pyrng.random()
            if roll < 0.3 and model:
                vid = pyrng.choice(sorted(model))
                if vid in ids_used:
                    continue
                ops.append(("DELETE", vid, None))
                ids_used.add(vid)
            elif roll < 0.6 and model:
                vid = pyrng.choice(sorted(model))
                if vid in ids_used:
                    continue
                ops.append(("UPSERT", vid, rng.normal(size=dim)))
                ids_used.add(vid)
            else:
                ops.append(("UPSERT", next_id, rng.normal(size=dim)))
                ids_used.add(next_id)
                next_id += 1
        if not ops:
            continue
        ev = pa.table({
            "op": pa.array([o[0] for o in ops]),
            "vec_id": pa.array([o[1] for o in ops], pa.int64()),
            "embedding": pa.array(
                [None if o[2] is None else list(map(float, o[2]))
                 for o in ops], pa.list_(pa.float64()))})
        apply_vector_delta(ev, root)
        for op, vid, emb in ops:      # batch is LWW by row order
            if op == "DELETE":
                model.pop(vid, None)
            else:
                model[vid] = emb
        if pyrng.random() < 0.4:
            compact_vector_index(root, f"fz{seed}_{step}")
            n_compacts += 1
        s = VectorSearcher(root)
        for _ in range(3):
            q = rng.normal(size=dim)
            want = _brute(model, q, 8)
            got = s.search(q, k=8, nprobe=4)
            assert [(d, round(x, 12)) for d, x in got] == \
                [(d, round(x, 12)) for d, x in want], (seed, step)
        assert s.m["epoch"] and sum(
            int(v) for v in s.m["cluster_counts"].values()) \
            == s.m["n_vectors"]
    assert n_compacts >= 1
    # delete EVERYTHING, compact: the index must serve empty cleanly
    ev = pa.table({
        "op": pa.array(["DELETE"] * len(model)),
        "vec_id": pa.array(sorted(model), pa.int64()),
        "embedding": pa.array([None] * len(model),
                              pa.list_(pa.float64()))})
    apply_vector_delta(ev, root)
    compact_vector_index(root, f"fz{seed}_empty")
    s = VectorSearcher(root)
    assert s.m["n_vectors"] == 0
    assert s.search(rng.normal(size=dim), k=5, nprobe=4) == []
