"""Build-stage resume must not adopt outputs of a DIFFERENT config.

The resumable build short-circuits on completed stages (_state.json +
lineage sidecars).  A rerun of the same epoch with different
output-affecting parameters (sharding, tokenizer, codec, ...) must
clear and rebuild — otherwise the manifest records the new config
against files routed by the old one and queries silently miss
postings (the _reindex_src/_compact_src fingerprint rule, applied to
plain builds)."""

import json
import os

import pyarrow.parquet as pq

from mee_ray import manifest as mf
from mee_ray.build import build_index
from mee_ray.config import EngineConfig, TokenizerConfig
from mee_ray.corpus import write_corpus
from mee_ray.ids import doc_id_of
from mee_ray.oracle import OracleIndex
from mee_ray.query import Searcher


def test_rerun_with_different_config_rebuilds(ray_session, tmp_path):
    import ray.data
    cdir = write_corpus(str(tmp_path / "corpus"), n_files=40, seed=91,
                        rows_per_file=40)
    root = str(tmp_path / "index")
    build_index(ray.data.read_parquet(cdir), root, "ep1",
                EngineConfig(num_shards=2, parts_per_shard=2))
    m1 = mf.load_manifest(root)
    assert m1["num_shards"] == 2 and len(m1["segments"]) >= 1

    # rerun the SAME epoch with different sharding: stage outputs must
    # be invalidated, not adopted
    cfg2 = EngineConfig(num_shards=3, parts_per_shard=1)
    build_index(ray.data.read_parquet(cdir), root, "ep1", cfg2)
    m2 = mf.load_manifest(root)
    assert m2["num_shards"] == 3 and m2["parts_per_shard"] == 1
    # every surviving segment file's part number fits the NEW layout
    for s in m2["segments"]:
        part = int(os.path.basename(s["path"]).split("-")[1].split(".")[0])
        assert part < 3, s["path"]
    # and the index answers queries correctly under the new routing
    t = pq.read_table(cdir)
    live = {}
    for r, p, c, content in zip(t["repo"].to_pylist(),
                                t["path"].to_pylist(),
                                t["commit"].to_pylist(),
                                t["content"].to_pylist()):
        if (r, p) not in live or c > live[(r, p)][0]:
            live[(r, p)] = (c, content)
    oi = OracleIndex([(doc_id_of(r, p, c), content)
                      for (r, p), (c, content) in live.items()],
                     tok_cfg=cfg2.tokenizer)
    s = Searcher(root)
    for q in (["def"], ["return", "import"], ["self"]):
        assert s.search(q, 10) == oi.search(q, 10), q

    # the fingerprint file records the effective config and survives
    # as housekeeping (fsck_repair must not treat it as debris)
    fp = os.path.join(mf.epoch_dir(root, "ep1"), "_build_cfg.json")
    assert os.path.exists(fp)
    with open(fp) as f:
        assert json.load(f)["num_shards"] == 3
    mf.fsck_repair(root)
    assert os.path.exists(fp)


def test_rerun_same_config_resumes(ray_session, tmp_path):
    """Identical config (even with different execution-only knobs)
    keeps completed stages — the resume path stays usable."""
    import ray.data
    cdir = write_corpus(str(tmp_path / "corpus"), n_files=20, seed=92,
                        rows_per_file=30)
    root = str(tmp_path / "index")
    cfg = EngineConfig(num_shards=2, parts_per_shard=1)
    build_index(ray.data.read_parquet(cdir), root, "ep1", cfg)
    st = os.path.join(mf.epoch_dir(root, "ep1"), "_state.json")
    with open(st) as f:
        stages_before = json.load(f)
    # different batching knob, same outputs → stages NOT invalidated
    cfg_same = EngineConfig(num_shards=2, parts_per_shard=1,
                            tokenize_batch_size=64)
    build_index(ray.data.read_parquet(cdir), root, "ep1", cfg_same)
    with open(st) as f:
        stages_after = json.load(f)
    for name, rec in stages_before.items():
        assert stages_after[name] == rec, name


def test_rerun_after_format_change_rebuilds(ray_session, tmp_path):
    """The on-disk format version is part of the resume fingerprint: a
    crashed epoch whose fingerprint predates it (an older engine's
    epoch) is cleared and rebuilt, never adopted part by part."""
    import ray.data
    cdir = write_corpus(str(tmp_path / "corpus"), n_files=20, seed=93,
                        rows_per_file=30)
    root = str(tmp_path / "index")
    cfg = EngineConfig(num_shards=2, parts_per_shard=1)
    build_index(ray.data.read_parquet(cdir), root, "ep1", cfg)
    edir = mf.epoch_dir(root, "ep1")
    fp = os.path.join(edir, "_build_cfg.json")
    with open(fp) as f:
        old = json.load(f)
    old.pop("format_version")
    with open(fp, "w") as f:
        json.dump(old, f)
    st_path = os.path.join(edir, "_state.json")
    with open(st_path) as f:
        st = json.load(f)
    st.pop("segments")              # the crash hit pass 2
    with open(st_path, "w") as f:
        json.dump(st, f)

    m = build_index(ray.data.read_parquet(cdir), root, "ep1", cfg)
    assert m["segments"] and not any(s["resumed"] for s in m["segments"])
    with open(fp) as f:
        assert "format_version" in json.load(f)


def test_shuffle_waves_identity(ray_session, tmp_path):
    """cfg.shuffle_waves partitions THE pass-2 exchange by term shard,
    so a 3-wave build must produce BYTE-identical segments (same
    per-part sha256 lineage) and rank-identical queries vs the
    single-wave build, with a non-empty df-decided hot set — the lever
    that fits the 15.36M-doc shuffle into bounded spill disk."""
    import ray.data

    from mee_ray.build import build_index
    from mee_ray.config import EngineConfig
    from mee_ray.corpus import write_corpus
    from mee_ray.query import Searcher

    from mee_ray.ids import doc_id_of
    from mee_ray.oracle import OracleIndex, make_query_set

    cdir = write_corpus(str(tmp_path / "c"), n_files=600, seed=31,
                        rows_per_file=150)

    def shas(m):
        return {os.path.basename(r["path"]): r["sha256"]
                for r in m["segments"]}

    # (a) BYTE identity: part routing is a pure function of (term,
    # doc_id) under the build's hot set and the encode sorts each
    # part — wave count cannot change a single segment byte
    m = {}
    for waves in (1, 3):
        cfg = EngineConfig(shuffle_waves=waves, hot_df_threshold=50)
        m[waves] = build_index(ray.data.read_parquet(cdir),
                               str(tmp_path / f"idx{waves}"), "ep1", cfg)
    assert m[1]["n_docs"] == m[3]["n_docs"] > 0
    assert m[1]["hot_df_terms"] == m[3]["hot_df_terms"] != []
    assert shas(m[1]) == shas(m[3]) and len(shas(m[1])) > 0

    # (b) RANK identity vs the oracle with waves + shuffle dedup on —
    # the 15.36M configuration — and the same bytes as (a)
    root_d = str(tmp_path / "idxd")
    cfg = EngineConfig(shuffle_waves=3, hot_df_threshold=50,
                       dedup_mode="shuffle")
    md3 = build_index(ray.data.read_parquet(cdir), root_d, "ep1", cfg)
    assert shas(md3) == shas(m[1])
    t = pq.read_table(cdir, columns=["repo", "path", "commit",
                                     "content"])
    live = {}
    for r_, p_, c_, content in zip(t["repo"].to_pylist(),
                                   t["path"].to_pylist(),
                                   t["commit"].to_pylist(),
                                   t["content"].to_pylist()):
        if (r_, p_) not in live or c_ > live[(r_, p_)][0]:
            live[(r_, p_)] = (c_, content)
    docs = [(doc_id_of(r_, p_, c_), content)
            for (r_, p_), (c_, content) in live.items()]
    oi = OracleIndex(docs)
    sd = Searcher(root_d)
    for q in make_query_set(docs, n_queries=30, seed=4):
        assert sd.search(q["terms"], q["k"]) == \
            oi.search(q["terms"], q["k"])


def test_fingerprint_reset_rule(tmp_path):
    """One rule for build, reindex and compact: outputs stay when the
    writer's own fingerprint matches or the dir has none at all; they
    are cleared when it differs, or when it is missing but another
    writer's fingerprint marks the outputs as that writer's debris."""
    edir = str(tmp_path / "ep")

    def outputs():
        os.makedirs(os.path.join(edir, "docs"), exist_ok=True)
        os.makedirs(os.path.join(edir, "segments"), exist_ok=True)
        for f in ("docs/d.parquet", "segments/part-00000.parquet",
                  "_state.json", "key_seqs.parquet"):
            open(os.path.join(edir, f), "w").close()

    def kept():
        return all(os.path.exists(os.path.join(edir, f)) for f in (
            "docs/d.parquet", "segments/part-00000.parquet",
            "_state.json", "key_seqs.parquet"))

    outputs()                       # a crash dir with no fingerprint
    mf.reset_on_fingerprint_change(edir, "_build_cfg.json", {"a": 1})
    assert kept()
    mf.reset_on_fingerprint_change(edir, "_build_cfg.json", {"a": 1})
    assert kept()                   # same inputs: resume
    mf.reset_on_fingerprint_change(edir, "_build_cfg.json", {"a": 2})
    assert not any(os.path.exists(os.path.join(edir, f)) for f in (
        "docs", "segments", "_state.json", "key_seqs.parquet"))
    outputs()                       # build debris, then a compaction
    mf.reset_on_fingerprint_change(edir, "_compact_src.json", {"s": 1})
    assert not os.path.exists(os.path.join(edir, "segments"))
    with open(os.path.join(edir, "_compact_src.json")) as f:
        assert json.load(f) == {"s": 1}
