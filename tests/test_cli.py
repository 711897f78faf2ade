"""CLI (`python -m mee_ray`) — the ray-job-submit surface."""

import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(*args):
    r = subprocess.run([sys.executable, "-m", "mee_ray", *args],
                       capture_output=True, text=True, cwd=REPO)
    assert r.returncode == 0, r.stderr[-2000:]
    return json.loads(r.stdout.strip().splitlines()[-1])


@pytest.mark.slow
def test_cli_build_then_query(tmp_path):
    from mee_ray.corpus import write_corpus

    corpus = str(tmp_path / "corpus")
    index = str(tmp_path / "index")
    write_corpus(corpus, n_files=80, seed=21, rows_per_file=40)
    cfg = str(tmp_path / "cfg.json")
    with open(cfg, "w") as f:
        json.dump({"num_shards": 2, "parts_per_shard": 2,
                   "store_positions": True}, f)

    out = _run("--config", cfg, "--num-cpus", "2", "build",
               "--input", corpus, "--index", index, "--epoch", "ep1")
    assert out["n_docs"] > 0 and out["segments"] > 0

    # query path needs no Ray session (in-process Searcher)
    hits = _run("query", "--index", index, "--terms", "def return", "-k", "3")
    assert len(hits["hits"]) == 3
    assert all(h["score"] > 0 for h in hits["hits"])

    conj = _run("query", "--index", index, "--terms", "def return",
                "-k", "3", "--operator", "and")
    assert all(h["score"] > 0 for h in conj["hits"])

    ph = _run("query", "--index", index, "--terms", "def", "-k", "3",
              "--phrase")
    assert len(ph["hits"]) > 0    # 1-term phrase = docs containing it

    # suggesters: term (edit-1 df-ranked) and phrase (bigram LM)
    sg = _run("suggest", "--index", index, "--term", "retrn", "-n", "3")
    assert any(x["term"] == "return" for x in sg["suggestions"])
    sgp = _run("suggest", "--index", index, "--phrase", "def retrn",
               "-n", "3")
    assert sgp["suggestions"] and \
        sgp["suggestions"][0]["phrase"].startswith("def ")
    r_sg = subprocess.run(
        [sys.executable, "-m", "mee_ray", "suggest", "--index", index],
        capture_output=True, text=True, cwd=REPO)
    assert r_sg.returncode != 0

    # filtered alias: restricted plain search; non-plain forms refuse
    fa = _run("alias", "--index", index, "--set", "pycli",
              "--to", "ep1", "--filter", "lang=python")
    assert fa["filter"] == {"field": "lang", "value": "python"}
    fhits = _run("query", "--index", index, "--epoch", "pycli",
                 "--terms", "def return", "-k", "5")
    assert fhits["filter"] == {"field": "lang", "value": "python"}
    assert set(h["doc_id"] for h in fhits["hits"]) <= \
        set(h["doc_id"] for h in _run("query", "--index", index,
                                      "--terms", "def return",
                                      "-k", "1000000")["hits"])
    r_bad = subprocess.run(
        [sys.executable, "-m", "mee_ray", "query", "--index", index,
         "--epoch", "pycli", "--terms", "def", "--count"],
        capture_output=True, text=True, cwd=REPO)
    assert r_bad.returncode != 0 and "FILTERED alias" in r_bad.stderr

    met = _run("metrics", "--index", index)
    assert met["epoch"] == "ep1" and met["segments"]["n_partitions"] == 4

    cnt = _run("query", "--index", index, "--terms", "def return",
               "--count")
    assert cnt["count"] > 0
    cnt_and = _run("query", "--index", index, "--terms", "def return",
                   "--count", "--operator", "and")
    assert 0 < cnt_and["count"] <= cnt["count"]

    mm = _run("query", "--index", index, "--terms", "def return",
              "-k", "3", "--min-match", "2")
    assert mm["hits"] == conj["hits"]   # 2-of-2 == operator=and

    bo = _run("query", "--index", index,
              "--boosts", "def=1.0,return=1.0", "-k", "3")
    assert bo["hits"] == hits["hits"]   # all-ones boosts == plain OR

    dm = _run("query", "--index", index, "--terms", "def return",
              "-k", "3", "--dismax", "--tie-breaker", "1.0")
    assert len(dm["hits"]) == 3

    cur = hits["hits"][-1]
    page2 = _run("query", "--index", index, "--terms", "def return",
                 "-k", "3", "--after",
                 f"{cur['doc_id']}:{cur['score']!r}")
    assert page2["hits"] and page2["hits"][0] not in hits["hits"]

    pre = _run("query", "--index", index, "--prefix", "re", "-k", "3")
    assert len(pre["hits"]) > 0
    # "readd" is one INSERTION from "read" (a transposition like
    # "retrun" is 2 plain edits and would match nothing)
    fz = _run("query", "--index", index, "--fuzzy", "readd", "-k", "3")
    assert len(fz["hits"]) > 0

    seed = str(tmp_path / "seed.txt")
    with open(seed, "w") as f:
        f.write("def compute(): return value\n")
    mlt = _run("query", "--index", index, "--mlt-file", seed, "-k", "3")
    assert len(mlt["hits"]) > 0


def test_engine_config_yaml_and_ini(tmp_path):
    """S11/S12: the CLI --config surface accepts YAML and INI forms,
    parsed into the same frozen EngineConfig as JSON."""
    from mee_ray.__main__ import _engine_config

    y = tmp_path / "cfg.yml"
    y.write_text(
        "num_shards: 2\nparts_per_shard: 2\nsalt_factor: 4\n"
        "postings_codec: pfor\n"
        "hot_terms: [def, import]\n"
        "tokenizer: {split_identifiers: false, subtoken_ngram: 0}\n"
        "bm25: {k1: 1.5, b: 0.6}\n")
    cy = _engine_config(str(y))
    assert (cy.num_shards, cy.parts_per_shard, cy.salt_factor) == (2, 2, 4)
    assert cy.postings_codec == "pfor"
    assert cy.hot_terms == frozenset({"def", "import"})
    assert cy.tokenizer.split_identifiers is False
    assert (cy.bm25.k1, cy.bm25.b) == (1.5, 0.6)

    i = tmp_path / "cfg.ini"
    i.write_text(
        "[engine]\nnum_shards = 2\nparts_per_shard = 2\nsalt_factor = 4\n"
        "postings_codec = \"pfor\"\nhot_terms = def import\n"
        "[tokenizer]\nsplit_identifiers = false\nsubtoken_ngram = 0\n"
        "[bm25]\nk1 = 1.5\nb = 0.6\n")
    ci = _engine_config(str(i))
    assert ci == cy

    j = tmp_path / "cfg.json"
    j.write_text(json.dumps({
        "num_shards": 2, "parts_per_shard": 2, "salt_factor": 4,
        "postings_codec": "pfor", "hot_terms": ["def", "import"],
        "tokenizer": {"split_identifiers": False, "subtoken_ngram": 0},
        "bm25": {"k1": 1.5, "b": 0.6}}))
    assert _engine_config(str(j)) == cy

    import pytest as _pytest
    bad = tmp_path / "bad.ini"
    bad.write_text("[mystery]\nx = 1\n")
    with _pytest.raises(ValueError, match="unknown config section"):
        _engine_config(str(bad))


def test_ini_percent_interpolation(tmp_path):
    """M4: the reference's %{func()} INI interpolation surface —
    deterministic functions expand before value parsing; unknown
    functions fail loudly."""
    import re
    import time as _time

    from mee_ray.__main__ import _ini_config

    p = tmp_path / "cfg.ini"
    p.write_text("[engine]\nstats_mode = \"driver\"\n"
                 "dedup_mode = \"%{getdate(%Y)}-mode\"\n")
    raw = _ini_config(str(p))
    assert raw["dedup_mode"] == f"{_time.strftime('%Y')}-mode"

    p2 = tmp_path / "cfg2.ini"
    p2.write_text("[engine]\nnum_shards = %{randint(4, 4)}\n")
    assert _ini_config(str(p2))["num_shards"] == 4

    bad = tmp_path / "bad2.ini"
    bad.write_text("[engine]\nx = %{mystery()}\n")
    with pytest.raises(ValueError, match="unknown interpolation"):
        _ini_config(str(bad))


def test_ini_percent_escape(tmp_path):
    """The reference's %% escape (application/config.py:11,37 and
    test_config.py pidname1-3): %% -> literal %, so %%{getpid()} is
    the literal text %{getpid()} un-evaluated, %%%{getpid()} is % +
    pid, and two calls in one value both expand."""
    import os

    from mee_ray.__main__ import _ini_config

    pid = str(os.getpid())
    uid = str(os.getuid())
    p = tmp_path / "esc.ini"
    p.write_text(
        "[engine]\n"
        'a = "pid%{getpid()}.pid"\n'
        'b = "pid%%{getpid()}.pid"\n'
        'c = "pid%%%{getpid()}.pid"\n'
        'd = "pid%{getpid()}%{getpid()}.pid"\n'
        'e = "plain%%name"\n'
        'f = "uid%{getuid()}"\n')
    raw = _ini_config(str(p))
    assert raw["a"] == f"pid{pid}.pid"
    assert raw["b"] == "pid%{getpid()}.pid"
    assert raw["c"] == f"pid%{pid}.pid"
    assert raw["d"] == f"pid{pid}{pid}.pid"
    assert raw["e"] == "plain%name"
    assert raw["f"] == f"uid{uid}"


def test_cli_analyze(built_index):
    import json
    import subprocess
    import sys

    r = subprocess.run([sys.executable, "-m", "mee_ray", "analyze",
                        "--text", "MergeSort fast_path"],
                       capture_output=True, text=True, cwd="/root/repo")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["terms"]["mergesort"] == 1
    assert out["terms"]["merge"] == 1        # code tokenizer splits
    # index-config tokenizer round-trips through the manifest
    r2 = subprocess.run([sys.executable, "-m", "mee_ray", "analyze",
                         "--index", built_index["index_root"],
                         "--text", "MergeSort fast_path"],
                        capture_output=True, text=True, cwd="/root/repo")
    assert r2.returncode == 0
    assert json.loads(r2.stdout)["n_tokens"] == json.loads(
        r.stdout)["n_tokens"]


def test_cli_export_and_refusal_on_pending_deltas(built_index, tmp_path):
    import json
    import subprocess
    import sys

    import duckdb

    out = str(tmp_path / "export")
    r = subprocess.run([sys.executable, "-m", "mee_ray", "export",
                        "--index", built_index["index_root"],
                        "--out", out],
                       capture_output=True, text=True, cwd="/root/repo")
    assert r.returncode == 0, r.stderr
    j = json.loads(r.stdout.strip().splitlines()[-1])
    n = duckdb.sql(f"SELECT count(*) FROM '{out}/*.parquet'").fetchone()[0]
    assert n == j["n_docs"] == built_index["manifest"]["n_docs"]
    # re-export into the same (now non-empty) dir must refuse — a
    # second write_parquet would silently double the rows
    r2 = subprocess.run([sys.executable, "-m", "mee_ray", "export",
                         "--index", built_index["index_root"],
                         "--out", out],
                        capture_output=True, text=True, cwd="/root/repo")
    assert r2.returncode != 0 and "not empty" in r2.stderr
    # pending deltas must refuse too (stale docs table)
    import shutil

    import pyarrow as pa

    from mee_ray.config import EngineConfig
    from mee_ray.delta import apply_delta

    idx2 = str(tmp_path / "idx_deltas")
    shutil.copytree(built_index["index_root"], idx2)
    ev = pa.table({"seq": pa.array([1], pa.int64()),
                   "type": pa.array(["INSERT"]),
                   "repo": pa.array(["x/y"]),
                   "path": pa.array(["src/x.py"]),
                   "commit": pa.array(["c" * 40]),
                   "lang": pa.array(["py"]),
                   "content": pa.array(["hello export"])})
    apply_delta(ev, idx2, EngineConfig())
    r3 = subprocess.run([sys.executable, "-m", "mee_ray", "export",
                         "--index", idx2, "--out",
                         str(tmp_path / "export2")],
                        capture_output=True, text=True, cwd="/root/repo")
    assert r3.returncode != 0 and "compact" in r3.stderr


def test_cli_sync_slave_change(ray_session, tmp_path):
    """The reference's whole loop as ONE command: slave rename →
    affected documents rebuilt → index upsert → new value searchable,
    old value gone."""
    import json
    import subprocess
    import sys

    import pyarrow as pa
    import ray.data

    from mee_ray.build import build_index
    from mee_ray.config import EngineConfig
    from mee_ray.pipelines.bridge import docs_to_delta_events
    from mee_ray.pipelines.docbuild import DocSpec, JoinSpec, build_documents
    from mee_ray.query import Searcher

    SF = "/root/testdata/sf0.001"
    root = str(tmp_path / "docidx")
    spec = DocSpec(
        master="customer", key="c_custkey",
        mappings={"cust_id": "c_custkey", "cust_name": "c_name"},
        joins=(JoinSpec("nation", "n_nationkey", "c_nationkey",
                        {"nation_name": "n_name"}),))
    full = build_documents(SF, spec)
    events = docs_to_delta_events(
        pa.concat_tables(list(full.iter_batches(batch_format="pyarrow"))),
        "cust_id", start_seq=1)
    build_index(ray.data.from_arrow(
        events.select(["repo", "path", "commit", "lang", "content"])),
        root, "ep1", EngineConfig(), dedup=False)

    spec_path = str(tmp_path / "spec.json")
    with open(spec_path, "w") as f:
        json.dump({"master": "customer", "key": "c_custkey",
                   "mappings": {"cust_id": "c_custkey",
                                "cust_name": "c_name"},
                   "joins": [{"table": "nation", "key": "n_nationkey",
                              "master_key": "c_nationkey",
                              "fields": {"nation_name": "n_name"}}]},
                  f)
    changes = str(tmp_path / "nation_changes.parquet")
    import pyarrow.parquet as pq
    pq.write_table(pa.table({"n_nationkey": pa.array([0], pa.int64()),
                             "n_name": pa.array(["zzrenamedland"])}),
                   changes)
    r = subprocess.run([sys.executable, "-m", "mee_ray", "sync",
                        "--spec", spec_path, "--input", SF,
                        "--index", root, "--table", "nation",
                        "--changes", changes],
                       capture_output=True, text=True, cwd="/root/repo")
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert out["n_added"] > 0
    s = Searcher(root)
    assert len(s.search(["zzrenamedland"], 10)) > 0
    # ...and the OLD nation name is gone from every live document
    import pyarrow.parquet as pq2
    nt = pq2.read_table(f"{SF}/nation.parquet",
                        columns=["n_nationkey", "n_name"])
    old = dict(zip(nt["n_nationkey"].to_pylist(),
                   nt["n_name"].to_pylist()))[0]
    old_term = old.lower().split()[0]
    assert s.search([old_term], 10) == [], old_term


@pytest.mark.slow
def test_cli_delete_by_query(tmp_path):
    from mee_ray.corpus import write_corpus

    corpus = str(tmp_path / "corpus")
    index = str(tmp_path / "index")
    write_corpus(corpus, n_files=60, seed=13, rows_per_file=30)
    out = _run("--num-cpus", "2", "build",
               "--input", corpus, "--index", index, "--epoch", "ep1")
    assert out["n_docs"] > 0

    hits = _run("query", "--index", index, "--terms", "def", "-k", "3")
    assert hits["hits"]

    dq = _run("delete-by-query", "--index", index, "--terms", "def")
    assert dq["n_matched"] > 0 and dq["n_deleted"] == dq["n_matched"]

    gone = _run("query", "--index", index, "--terms", "def", "-k", "3")
    assert gone["hits"] == []

    # idempotent second run
    dq2 = _run("delete-by-query", "--index", index, "--terms", "def")
    assert dq2["n_matched"] == 0


def test_cli_vector_lifecycle(ray_session, tmp_path):
    """vec-build → vec-query → vec-delta → vec-compact → vec-query,
    one JSON line per command (the driver contract)."""
    import json as _json

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from mee_ray.__main__ import main

    root = str(tmp_path / "vecidx")
    src = str(tmp_path / "emb.parquet")
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(60, 8))
    pq.write_table(pa.table({
        "vec_id": pa.array(range(60), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in mat],
                              pa.list_(pa.float64()))}), src)

    import contextlib
    import io

    def run2(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        return _json.loads(buf.getvalue().strip().splitlines()[-1])

    out = run2(["vec-build", "--input", src, "--index", root,
                "--epoch", "ep1", "--clusters", "4"])
    assert out["n_vectors"] == 60 and out["dim"] == 8

    q = list(map(float, mat[7]))
    out = run2(["vec-query", "--index", root, "--vec", _json.dumps(q),
                "-k", "3", "--nprobe", "4"])
    assert out["results"][0]["vec_id"] == 7

    ev = str(tmp_path / "ev.parquet")
    pq.write_table(pa.table({
        "op": pa.array(["DELETE"]),
        "vec_id": pa.array([7], pa.int64()),
        "embedding": pa.array([None], pa.list_(pa.float64()))}), ev)
    out = run2(["vec-delta", "--index", root, "--events", ev])
    assert out["n_deletes"] == 1

    out = run2(["vec-query", "--index", root, "--vec", _json.dumps(q),
                "-k", "3", "--nprobe", "4"])
    assert all(r["vec_id"] != 7 for r in out["results"])

    out = run2(["vec-compact", "--index", root, "--epoch", "ep2"])
    assert out["epoch"] == "ep2" and out["n_vectors"] == 59


def test_cli_pipeline_runs_named_query(ray_session, tmp_path):
    """The generic `pipeline` subcommand exposes the whole driver
    surface from the CLI: --list names every queries() entry, a run
    writes parquet with the same rows the callable returns, and an
    unknown name fails with the available count."""
    import json

    import pyarrow.parquet as pq

    from mee_ray.__main__ import main

    import __ray_entry__ as e
    out = str(tmp_path / "out.parquet")
    rc = main(["pipeline", "--name", "doc_token_counts",
               "--sf-dir", "/root/testdata/sf0.001", "--out", out])
    assert rc == 0
    t = pq.read_table(out)
    want = e.queries()["doc_token_counts"]("/root/testdata/sf0.001")
    import pandas as pd
    if not isinstance(want, pd.DataFrame):
        want = want.to_pandas()
    assert t.num_rows == len(want)

    import pytest as _pt
    with _pt.raises(SystemExit):
        main(["pipeline", "--name", "no_such_thing",
              "--sf-dir", "/root/testdata/sf0.001"])


def test_ini_funcs_reference_defaults_and_registry(tmp_path):
    """Reference-default semantics (application/inner.py:21-26):
    getdate() with no args is today's '%Y-%m-%d'; randint() with no
    args draws from [0, sys.maxsize]; and register_ini_function is
    the analog of adding a function to inner.py."""
    import time

    from mee_ray.__main__ import (_interpolate_ini,
                                  register_ini_function)

    assert _interpolate_ini("%{getdate()}", "x.ini") == \
        time.strftime("%Y-%m-%d")
    v = int(_interpolate_ini("%{randint()}", "x.ini"))
    assert 0 <= v <= __import__("sys").maxsize
    assert _interpolate_ini("%{randint(7, 7)}", "x.ini") == "7"

    register_ini_function("consumer_group",
                          lambda prefix="g": f"{prefix}-fixed")
    try:
        got = _interpolate_ini("cg=%{consumer_group('mee')}", "x.ini")
        assert got == "cg=mee-fixed"
        import pytest
        with pytest.raises(ValueError):
            register_ini_function("not an ident", lambda: "")
    finally:
        from mee_ray.__main__ import _INI_FUNCS
        _INI_FUNCS.pop("consumer_group", None)


def test_cli_explain_with_actors(built_index, ray_session):
    """`query --explain` runs on the shard-actor pool too, and its
    per-hit breakdowns equal the in-process ones."""
    import contextlib
    import io

    from mee_ray.__main__ import main

    def run(*extra):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(["query", "--index", built_index["index_root"],
                  "--terms", "def return merge", "-k", "4", "--explain",
                  *extra])
        return json.loads(buf.getvalue().strip().splitlines()[-1])

    dist = run("--actors", "3")
    assert len(dist["hits"]) == 4
    assert all(h["explain"] for h in dist["hits"])
    assert dist == run()
