"""A VectorSearcher reads each delta file once: the delta log's adds
and tombstones are read when the searcher opens, grouped by cluster,
and every search after that reads only the probed clusters' base
files."""

from collections import Counter

import numpy as np
import pyarrow as pa

N_CLUSTERS = 8


def test_searcher_reads_each_delta_file_once(ray_session, tmp_path,
                                             monkeypatch):
    import ray.data

    from mee_ray import vecindex
    from mee_ray.vecindex import (VectorSearcher, apply_vector_delta,
                                  build_vector_index)

    rng = np.random.default_rng(23)
    n, dim = 60, 8
    mat = rng.normal(size=(n, dim))
    root = str(tmp_path / "vecidx")
    build_vector_index(ray.data.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array([list(map(float, r)) for r in mat],
                              pa.list_(pa.float64()))})),
        root, "ep1", n_clusters=N_CLUSTERS)
    model = {i: mat[i] for i in range(n)}
    for b in range(3):                 # 3 records: upserts + deletes
        new = rng.normal(size=(2, dim))
        ids = [100 + b, 101 + b, b]    # 101 + b is re-upserted next batch
        ev = pa.table({
            "op": pa.array(["UPSERT", "UPSERT", "DELETE"]),
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array([list(map(float, new[0])),
                                   list(map(float, new[1])), None],
                                  pa.list_(pa.float64()))})
        apply_vector_delta(ev, root)
        model[ids[0]], model[ids[1]] = new[0], new[1]
        model.pop(ids[2])

    reads: Counter = Counter()
    real = vecindex.pq.read_table

    def counting(path, *a, **kw):
        reads[str(path)] += 1
        return real(path, *a, **kw)

    monkeypatch.setattr(vecindex.pq, "read_table", counting)
    s = VectorSearcher(root)
    ids = np.array(sorted(model), dtype=np.int64)
    stored = np.stack([model[i] for i in ids])
    stored = (stored / np.linalg.norm(stored, axis=1, keepdims=True)
              ).astype(np.float32).astype(np.float64)
    for _ in range(10):
        q = rng.normal(size=dim)
        got = s.search(q, k=5, nprobe=N_CLUSTERS)
        sc = stored @ (q / np.linalg.norm(q))
        want = [(int(ids[i]), float(sc[i]))
                for i in np.lexsort((ids, -sc))[:5]]
        assert [(d, round(x, 12)) for d, x in got] == \
            [(d, round(x, 12)) for d, x in want]
    delta_files = [d[f] for d in s.m["deltas"]
                   for f in ("adds", "tombstones")]
    assert len(delta_files) == 6
    assert all(reads[f] <= 1 for f in delta_files), dict(reads)
