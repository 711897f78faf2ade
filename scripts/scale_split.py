"""Split-process scale validation: engine and oracle NEVER share a
memory budget (VERDICT r4 #1 — at 7.68M docs the in-process
OracleIndex held ~80 GB ACROSS the engine's compact, OOM-killing
workers and corrupting the compact timing).

Protocol (each stage its own OS process):
  stage oracle   no Ray.  Two bounded multiprocessing passes over the
                 corpus parquet (mee_ray.oracle_stream) → query sets,
                 delta plan, probe phrases, and EXACT oracle rankings
                 (hex-encoded float64) for pre-delta, positional and
                 post-compact checks.  Peak memory is O(Σ df(query
                 terms)), not O(corpus).
  stage engine   Ray.  build → Searcher/DistributedSearcher rankings
                 for the SAME query sets → delta → compact →
                 post-compact rankings, all dumped hex-exact.  The
                 oracle process has already exited; the whole host
                 belongs to the engine.
  compare        tuple-equality of the two dumps (doc_ids AND float64
                 bit patterns); prints the one-line JSON verdict.

Bit-identity of the streaming scoped oracle vs the historical
in-process OracleIndex is asserted at small scale in
tests/test_oracle_stream.py; this harness assumes exactly that.

Usage: python scripts/scale_split.py N [--positions] [--deletes K]
                                       [--stage oracle|engine]
(no --stage: orchestrates ensure-corpus → oracle → engine → compare)
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

N_QUERIES = 120
N_POST_QUERIES = 60
N_PROBE_DOCS = 40
POS_PAIR_BUDGET = 12_000_000     # Σ df over probe terms (position rows)


def _args():
    argv = sys.argv[1:]
    stage = None
    if "--stage" in argv:
        i = argv.index("--stage")
        stage = argv[i + 1]
        del argv[i:i + 2]
    positions = "--positions" in argv
    n_deletes = 25
    if "--deletes" in argv:
        i = argv.index("--deletes")
        n_deletes = int(argv[i + 1])
        del argv[i:i + 2]
    rest = [a for a in argv if a != "--positions"]
    n_files = int(rest[0]) if rest else 1920000
    return n_files, positions, n_deletes, stage


def _paths(n_files, positions, n_deletes):
    tag = f"{n_files}" + ("_pos" if positions else "") \
        + (f"_del{n_deletes}" if n_deletes != 25 else "")
    work = f"/tmp/mee_scale/split_{tag}"
    return {
        "corpus": f"/tmp/mee_scale/corpus_{n_files}",
        "work": work,
        "index": f"{work}/index",
        "oracle_json": f"{work}/oracle.json",
        "engine_json": f"{work}/engine.json",
    }


def _hexr(ranked):
    return [[int(d), float(s).hex()] for d, s in ranked]


def _delta_plan(keys, n_deletes):
    """(events row dicts, new (doc_id, content) docs) — the exact
    scale_validation.py delta shape: 25 sequenced UPDATEs then
    n_deletes sequenced DELETEs over the smallest sorted keys."""
    from mee_ray.ids import doc_id_of
    ev, new_docs = [], []
    seq = 0
    for r, p in keys[:25]:
        seq += 1
        content = (f"def scale_upd_{seq}(): "
                   f"return scale_delta_tok_{seq}\n")
        ev.append({"seq": seq, "type": "UPDATE", "repo": r, "path": p,
                   "commit": "e" * 40, "lang": "python",
                   "content": content})
        new_docs.append((doc_id_of(r, p, "e" * 40), content))
    for r, p in keys[25:]:
        seq += 1
        ev.append({"seq": seq, "type": "DELETE", "repo": r, "path": p,
                   "commit": None, "lang": None, "content": None})
    return ev, new_docs


def stage_oracle(n_files, positions, n_deletes):
    import numpy as np

    from mee_ray.config import TokenizerConfig
    from mee_ray.oracle import make_query_set_from_df
    from mee_ray.oracle_stream import (ScopedOracleIndex, apply_overlay,
                                       run_pass1, run_pass1b, run_pass2)
    from mee_ray.tokenizer import Tokenizer

    P = _paths(n_files, positions, n_deletes)
    files = sorted(glob.glob(f"{P['corpus']}/*.parquet"))
    t0 = time.time()
    df, n_docs, total_dl, keys, probes = run_pass1(
        files, n_keys=25 + n_deletes,
        n_probes=N_PROBE_DOCS if positions else 0)
    pass1_sec = time.time() - t0
    qset1 = make_query_set_from_df(df, N_QUERIES, seed=3)

    # positional probes: ADJACENT TERM-STREAM bigrams from the
    # smallest-mix64 docs (tokenized with the ENGINE tokenizer, so a
    # forward probe is guaranteed to phrase-match its source doc —
    # compare() asserts that non-vacuously), with a Σ df budget so
    # the position store stays bounded (hot-term positional identity
    # is separately proven at 192k in-process)
    phrases = []
    if positions:
        import random as _random

        from mee_ray.config import TokenizerConfig
        from mee_ray.tokenizer import Tokenizer
        tok = Tokenizer(TokenizerConfig())
        rng = _random.Random(11)
        spent = 0
        charged: set = set()
        for _, _, content in probes:
            toks = tok.terms(content)
            if len(toks) < 3:
                continue
            i = rng.randrange(len(toks) - 2)
            pair = toks[i:i + 2]
            if pair[0] == pair[1]:
                continue
            cost = sum(df.get(t, 0) for t in set(pair) - charged)
            if spent + cost > POS_PAIR_BUDGET:
                continue
            spent += cost
            charged |= set(pair)
            phrases.append(pair)
            phrases.append([pair[1], pair[0]])
        print(f"[oracle] {len(phrases)} probes, "
              f"{spent} position rows budgeted", flush=True)

    ev, new_docs = _delta_plan(keys, n_deletes)
    t0 = time.time()
    df_minus, old = run_pass1b(files, keys)
    pass1b_sec = time.time() - t0
    tok = Tokenizer(TokenizerConfig())
    df2 = df.copy()
    df2.subtract(df_minus)
    df_plus: dict = {}
    dl_plus = 0
    for _, content in new_docs:
        c = tok.counts(content)
        dl_plus += sum(c.values())
        for tm in c:
            df_plus[tm] = df_plus.get(tm, 0) + 1
    df2.update(df_plus)
    df2 = +df2
    n2 = n_docs - n_deletes
    dl2 = total_dl - sum(dl for _, dl in old.values()) + dl_plus
    qset2 = make_query_set_from_df(df2, N_POST_QUERIES, seed=9)
    del df, df2, df_minus

    terms1 = sorted({t for q in qset1 for t in q["terms"]})
    terms2 = sorted({t for q in qset2 for t in q["terms"]})
    pos_terms = sorted({t for ph in phrases for t in ph})
    t0 = time.time()
    post, posmaps = run_pass2(files, set(terms1) | set(terms2),
                              pos_terms)
    pass2_sec = time.time() - t0

    so = ScopedOracleIndex(post, n_docs, total_dl,
                           positions=posmaps or None)
    r1 = {q["query_id"]: _hexr(so.search(q["terms"], q["k"]))
          for q in qset1}
    rp = [_hexr(so.search_phrase(ph, 10)) for ph in phrases]
    rs = [_hexr(so.search_span_near(ph, 1 + j % 3, 10))
          for j, ph in enumerate(phrases)]
    del so, posmaps

    old_ids = np.array([d for d, _ in old.values()], np.int64)
    post2 = apply_overlay(post, old_ids, new_docs, terms2)
    del post
    so2 = ScopedOracleIndex(post2, n2, dl2)
    r2 = {q["query_id"]: _hexr(so2.search(q["terms"], q["k"]))
          for q in qset2}

    os.makedirs(P["work"], exist_ok=True)
    with open(P["oracle_json"], "w") as f:
        json.dump({"n_docs": n_docs, "n_docs_post": n2,
                   "qset1": qset1, "qset2": qset2,
                   "phrases": phrases, "events": ev,
                   "results1": r1, "results_phrase": rp,
                   "results_span": rs, "results2": r2,
                   "pass1_sec": round(pass1_sec, 1),
                   "pass1b_sec": round(pass1b_sec, 1),
                   "pass2_sec": round(pass2_sec, 1)}, f)
    print(f"[oracle] done: pass1 {pass1_sec:.0f}s, "
          f"pass1b {pass1b_sec:.0f}s, pass2 {pass2_sec:.0f}s",
          flush=True)
    return 0


def stage_engine(n_files, positions, n_deletes):
    import ray

    # Memory/disk budget for the 15.36M build (measured, not guessed):
    # a 64 GB object store starved the 32 tokenize+explode task heaps
    # (kernel OOM-killed workers), while the default 37 GB store +
    # 95 % disk threshold ran the shuffle spill out of disk.  42 GB
    # store + 98 % threshold + ~120k-row input blocks (the block size
    # every prior scale point ran at — n_files//64 rows_per_file —
    # bounding per-task heap) is the working balance on this
    # 125 GB / 252 GB host.
    big = n_files >= 8_000_000
    kw = (dict(object_store_memory=42_000_000_000,
               _system_config={"local_fs_capacity_threshold": 0.98})
          if big else {})      # smaller points keep Ray's host-sized
    ray.init(address="local", num_cpus=32, include_dashboard=False,
             logging_level="ERROR", **kw)
    import ray.data
    ray.data.DataContext.get_current().enable_progress_bars = False
    import pyarrow as pa

    from mee_ray.build import build_index
    from mee_ray.config import EngineConfig
    from mee_ray.delta import apply_delta
    from mee_ray.merge import compact
    from mee_ray.query import DistributedSearcher, Searcher

    P = _paths(n_files, positions, n_deletes)
    with open(P["oracle_json"]) as f:
        meta = json.load(f)
    shutil.rmtree(P["index"], ignore_errors=True)
    # shuffle waves: ~2.2G posting rows at 15.36M docs spill ~200 GB
    # through a single exchange — beyond this host's free disk; one
    # wave per ~4M docs keeps peak spill bounded (output bytes proven
    # wave-invariant in test_build_fingerprint.py)
    waves = max(1, round(n_files / 4_000_000))
    # global df threshold: a fixed fraction of the corpus (see
    # scale_validation.py)
    cfg = EngineConfig(postings_codec="pfor",
                       hot_df_threshold=max(1, n_files // 20),
                       dedup_mode="shuffle", store_positions=positions,
                       shuffle_waves=waves)
    n_blocks = max(64, n_files // 120_000)
    t0 = time.time()
    manifest = build_index(
        ray.data.read_parquet(P["corpus"],
                              override_num_blocks=n_blocks),
        P["index"], "ep1", cfg)
    build_sec = time.time() - t0
    assert manifest["n_docs"] == meta["n_docs"], \
        (manifest["n_docs"], meta["n_docs"])

    s = Searcher(P["index"])
    r1 = {q["query_id"]: _hexr(s.search(q["terms"], q["k"]))
          for q in meta["qset1"]}
    rp = [_hexr(s.search_phrase(ph, 10)) for ph in meta["phrases"]]
    rs = [_hexr(s.search_span_near(ph, 1 + j % 3, 10))
          for j, ph in enumerate(meta["phrases"])]

    ds = DistributedSearcher(P["index"], n_actors=4)
    r3p = {q["query_id"]: _hexr(ds.search(q["terms"], q["k"],
                                          mode="threephase"))
           for q in meta["qset1"][:30]}
    ds.shutdown()

    ev = meta["events"]
    evt = pa.table({c: pa.array([e.get(c) for e in ev]) for c in
                    ("seq", "type", "repo", "path", "commit", "lang",
                     "content")})
    t0 = time.time()
    apply_delta(evt, P["index"])
    delta_sec = time.time() - t0
    t0 = time.time()
    compact(P["index"], "ep2", gc_old=True)
    compact_sec = time.time() - t0

    s2 = Searcher(P["index"])
    r2 = {q["query_id"]: _hexr(s2.search(q["terms"], q["k"]))
          for q in meta["qset2"]}

    with open(P["engine_json"], "w") as f:
        json.dump({"n_docs": manifest["n_docs"],
                   "build_sec": round(build_sec, 2),
                   "files_per_sec": round(
                       manifest["n_docs"] / build_sec, 1),
                   "delta_sec": round(delta_sec, 2),
                   "compact_sec": round(compact_sec, 2),
                   "results1": r1, "results_phrase": rp,
                   "results_span": rs, "results_3p": r3p,
                   "results2": r2,
                   "wand": s.query_stats.as_dict()}, f)
    ray.shutdown()
    print(f"[engine] done: build {build_sec:.0f}s "
          f"({manifest['n_docs'] / build_sec:.0f} files/s), "
          f"compact {compact_sec:.0f}s", flush=True)
    return 0


def compare(n_files, positions, n_deletes):
    P = _paths(n_files, positions, n_deletes)
    with open(P["oracle_json"]) as f:
        o = json.load(f)
    with open(P["engine_json"]) as f:
        e = json.load(f)
    n1 = sum(e["results1"][q] == o["results1"][q]
             for q in o["results1"])
    n3 = sum(e["results_3p"][q] == o["results1"][q]
             for q in e["results_3p"])
    n2 = sum(e["results2"][q] == o["results2"][q]
             for q in o["results2"])
    np_ = sum(a == b for a, b in zip(e["results_phrase"],
                                     o["results_phrase"]))
    ns = sum(a == b for a, b in zip(e["results_span"],
                                    o["results_span"]))
    print(json.dumps({
        "n_files": n_files, "n_docs": o["n_docs"],
        "positions": positions, "n_deletes": n_deletes,
        "build_sec": e["build_sec"],
        "files_per_sec": e["files_per_sec"],
        "delta_sec": e["delta_sec"], "compact_sec": e["compact_sec"],
        "rank_identity": f"{n1}/{len(o['results1'])}",
        "threephase_identity": f"{n3}/{len(e['results_3p'])}",
        "phrase_identity": (f"{np_}/{len(o['results_phrase'])}"
                            if o["results_phrase"] else None),
        "span_near_identity": (f"{ns}/{len(o['results_span'])}"
                               if o["results_span"] else None),
        "post_compact_identity": f"{n2}/{len(o['results2'])}",
        "phrase_nonempty":
            (f"{sum(1 for r in o['results_phrase'] if r)}"
             f"/{len(o['results_phrase'])}"
             if o["results_phrase"] else None),
        "oracle_pass_sec": [o["pass1_sec"], o["pass1b_sec"],
                            o["pass2_sec"]],
        "wand": e["wand"],
    }))
    nonempty = sum(1 for r in o["results_phrase"] if r)
    ok = (n1 == len(o["results1"]) and n2 == len(o["results2"])
          and n3 == len(e["results_3p"])
          and np_ == len(o["results_phrase"])
          and ns == len(o["results_span"])
          # every FORWARD probe is an adjacent term pair of a live
          # doc → must match ≥ that doc; identity over empty-vs-empty
          # only would be vacuous
          and nonempty * 2 >= len(o["results_phrase"]))
    return 0 if ok else 1


def main() -> int:
    n_files, positions, n_deletes, stage = _args()
    if stage == "oracle":
        return stage_oracle(n_files, positions, n_deletes)
    if stage == "engine":
        return stage_engine(n_files, positions, n_deletes)

    P = _paths(n_files, positions, n_deletes)
    cdir = P["corpus"]
    if not (os.path.isdir(cdir) and os.listdir(cdir)):
        # stage + rename: a run killed mid-generation must not leave a
        # truncated corpus that later runs silently validate against
        from mee_ray.corpus import write_corpus
        tmp = cdir + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        write_corpus(tmp, n_files=n_files, seed=17,
                     rows_per_file=max(500, n_files // 64))
        os.rename(tmp, cdir)
    base = [sys.executable, os.path.abspath(__file__), str(n_files)]
    if positions:
        base.append("--positions")
    base += ["--deletes", str(n_deletes)]
    for st in ("oracle", "engine"):
        t0 = time.time()
        r = subprocess.run(base + ["--stage", st],
                           cwd=os.path.dirname(os.path.dirname(
                               os.path.abspath(__file__))))
        print(f"[{st}] stage exit {r.returncode} "
              f"({time.time() - t0:.0f}s)", flush=True)
        if r.returncode != 0:
            return r.returncode
    return compare(n_files, positions, n_deletes)


if __name__ == "__main__":
    sys.exit(main())
