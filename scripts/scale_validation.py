"""Scale validation: build a 96k-doc index with round-2 features ON
(PForDelta codec, a df-decided hot-term set salted like the static list,
shuffle-mode dedup), then assert rank identity vs the pure-Python
oracle on a 120-query reference set — before AND after a delta batch +
catch-up compaction.  Prints one JSON line.

Usage: python scripts/scale_validation.py [n_files] [--positions]
                                           [--deletes N]
(--positions: store positional postings and additionally validate
exact-phrase queries against the position-aware oracle;
--deletes N: make the delta DELETE-HEAVY — N sequenced tombstones
(default 25) before the catch-up compaction, so the compact rewrite
path is measured under real delete pressure)
"""

import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    argv = sys.argv[1:]
    positions = "--positions" in argv
    n_deletes = 25
    if "--deletes" in argv:
        i = argv.index("--deletes")
        n_deletes = int(argv[i + 1])
        del argv[i:i + 2]
    args = [a for a in argv if a != "--positions"]
    n_files = int(args[0]) if args else 96000
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=32, include_dashboard=False,
                 logging_level="ERROR")
    import ray.data
    ray.data.DataContext.get_current().enable_progress_bars = False

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from mee_ray.build import build_index
    from mee_ray.config import EngineConfig
    from mee_ray.corpus import write_corpus
    from mee_ray.delta import apply_delta
    from mee_ray.ids import doc_id_of
    from mee_ray.merge import compact
    from mee_ray.oracle import OracleIndex, make_query_set
    from mee_ray.query import DistributedSearcher, Searcher

    cdir = f"/tmp/mee_scale/corpus_{n_files}"
    if not (os.path.isdir(cdir) and os.listdir(cdir)):
        # stage + rename: never leave a truncated corpus behind
        tmp = cdir + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        write_corpus(tmp, n_files=n_files, seed=17,
                     rows_per_file=max(500, n_files // 64))
        os.rename(tmp, cdir)
    root = "/tmp/mee_scale/index"
    shutil.rmtree(root, ignore_errors=True)

    # global df threshold: a fixed fraction of the corpus, so the
    # build's df-decided hot set is non-empty at every scale point
    cfg = EngineConfig(postings_codec="pfor",
                       hot_df_threshold=max(1, n_files // 20),
                       dedup_mode="shuffle", store_positions=positions)
    t0 = time.time()
    manifest = build_index(ray.data.read_parquet(cdir), root, "ep1", cfg)
    build_sec = time.time() - t0

    # oracle truth from the deduped corpus
    live = {}
    t = pq.read_table(cdir, columns=["repo", "path", "commit", "content"])
    for r, p, c, content in zip(t["repo"].to_pylist(), t["path"].to_pylist(),
                                t["commit"].to_pylist(),
                                t["content"].to_pylist()):
        key = (r, p)
        if key not in live or c > live[key][0]:
            live[key] = (c, content)
    docs = [(doc_id_of(r, p, c), content)
            for (r, p), (c, content) in live.items()]
    oi = OracleIndex(docs, store_positions=positions)
    assert manifest["n_docs"] == oi.n_docs

    qset = make_query_set(docs, n_queries=120, seed=3)
    s = Searcher(root)
    n_ok = sum(s.search(q["terms"], q["k"]) == oi.search(q["terms"], q["k"])
               for q in qset)
    # in-process latency of the same query set on the warm searcher
    # (the identity pass above was each query's first touch)
    lat = []
    for q in qset:
        t0 = time.perf_counter()
        s.search(q["terms"], q["k"])
        lat.append(time.perf_counter() - t0)
    search_p50_ms = float(np.median(lat)) * 1e3

    n_phrase = None
    n_span = None
    if positions:
        # exact-phrase identity at scale: consecutive-token bigrams
        # sampled from real docs (guaranteed hits) + shuffled variants
        import random as _random
        rng = _random.Random(11)
        probes = []
        for _, content in rng.sample(docs, 40):
            toks = [w for w in content.lower().split() if w.isalnum()]
            if len(toks) >= 3:
                i = rng.randrange(len(toks) - 2)
                probes.append(toks[i:i + 2])
                probes.append([toks[i + 1], toks[i]])
        n_phrase = sum(
            s.search_phrase(ph, 10) == oi.search_phrase(ph, 10)
            for ph in probes), len(probes)
        # span_near identity at scale: the same probes at slop 1–3
        # (gapped bigrams sampled from real docs would also hit, but
        # slop>0 over adjacent/shuffled bigrams already exercises the
        # reachable-set matcher against the chain-search oracle)
        span_probes = [(ph, 1 + i % 3) for i, ph in enumerate(probes)]
        n_span = sum(
            s.search_span_near(ph, slop, 10)
            == oi.search_span_near(ph, slop, 10)
            for ph, slop in span_probes), len(span_probes)

    # distributed three-phase at scale (spot check)
    ds = DistributedSearcher(root, n_actors=4)
    n_3p = sum(ds.search(q["terms"], q["k"], mode="threephase")
               == oi.search(q["terms"], q["k"]) for q in qset[:30])
    ds.shutdown()

    # delta + catch-up compact at scale (delete count configurable —
    # --deletes makes the compact rewrite run under delete pressure)
    keys = sorted(live)[:25 + n_deletes]
    ev = []
    seq = 0
    for r, p in keys[:25]:
        seq += 1
        ev.append({"seq": seq, "type": "UPDATE", "repo": r, "path": p,
                   "commit": "e" * 40, "lang": "python",
                   "content": f"def scale_upd_{seq}(): return scale_delta_tok_{seq}\n"})
        live[(r, p)] = ("e" * 40, ev[-1]["content"])
    for r, p in keys[25:]:
        seq += 1
        ev.append({"seq": seq, "type": "DELETE", "repo": r, "path": p,
                   "commit": None, "lang": None, "content": None})
        live.pop((r, p))
    evt = pa.table({c: pa.array([e.get(c) for e in ev]) for c in
                    ("seq", "type", "repo", "path", "commit", "lang",
                     "content")})
    t0 = time.time()
    apply_delta(evt, root)
    delta_sec = time.time() - t0
    t0 = time.time()
    compact(root, "ep2", gc_old=True)
    compact_sec = time.time() - t0

    docs2 = [(doc_id_of(r, p, c), content)
             for (r, p), (c, content) in live.items()]
    oi2 = OracleIndex(docs2)
    s2 = Searcher(root)
    qset2 = make_query_set(docs2, n_queries=60, seed=9)
    n_ok2 = sum(s2.search(q["terms"], q["k"]) == oi2.search(q["terms"], q["k"])
                for q in qset2)

    print(json.dumps({
        "n_files": n_files, "n_docs": manifest["n_docs"],
        "build_sec": round(build_sec, 2),
        "files_per_sec": round(manifest["n_docs"] / build_sec, 1),
        "codec": "pfor", "dedup_mode": "shuffle",
        "positions": positions,
        "span_near_identity": (f"{n_span[0]}/{n_span[1]}"
                               if n_span else None),
        "phrase_identity": (f"{n_phrase[0]}/{n_phrase[1]}"
                            if n_phrase else None),
        "hot_df_terms": len(manifest["hot_df_terms"]),
        "rank_identity": f"{n_ok}/{len(qset)}",
        "threephase_identity": f"{n_3p}/30",
        "n_deletes": n_deletes,
        "delta_sec": round(delta_sec, 2),
        "compact_sec": round(compact_sec, 2),
        "post_compact_identity": f"{n_ok2}/{len(qset2)}",
        "wand": s.query_stats.as_dict(),
        "search_p50_ms": round(search_p50_ms, 3),
    }))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
