"""The build tokenizes each document once: its docs stage writes the
docs table and the exchange (each tokenize batch's unsalted posting
rows), and the stats stage's hot set and every shuffle wave read the
exchange, never the corpus.  Ray workers are separate processes, so
the tokenize count travels through a file: the counting Tokenizer is
a local class, which cloudpickle ships by value with the tasks."""

import os

import pyarrow.parquet as pq
import pytest

from mee_ray import build
from mee_ray import manifest as mf
from mee_ray.config import EngineConfig
from mee_ray.corpus import write_corpus
from mee_ray.tokenizer import Tokenizer


class _Boom(RuntimeError):
    pass


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    return write_corpus(str(tmp_path_factory.mktemp("once") / "c"),
                        n_files=400, seed=61, rows_per_file=100)


def _count_tokenized(monkeypatch, path: str):
    """Make every DocTokenize made from now on append the number of
    docs each ``terms_batch`` call tokenizes to ``path``; returns the
    reader of the running total."""

    class Counting(Tokenizer):
        def terms_batch(self, contents):
            with open(path, "a") as f:
                f.write(f"{len(contents)}\n")
            return super().terms_batch(contents)

    monkeypatch.setattr(build, "Tokenizer", Counting)
    open(path, "w").close()

    def total() -> int:
        with open(path) as f:
            return sum(int(x) for x in f.read().split())
    return total


def _build(corpus_dir, root, cfg):
    import ray.data
    return build.build_index(ray.data.read_parquet(corpus_dir), root, "ep1",
                             cfg)


def _crash_after_docs(corpus_dir, root, cfg, monkeypatch):
    """Run a build that dies right after its docs stage."""
    def boom(*a, **k):
        raise _Boom("crash after the docs stage")
    with monkeypatch.context() as mp:
        mp.setattr(build, "hot_df_terms", boom)
        with pytest.raises(_Boom):
            _build(corpus_dir, root, cfg)
    assert mf.stage_done(root, "ep1", "docs")


def _shas(m):
    return {os.path.basename(r["path"]): r["sha256"] for r in m["segments"]}


@pytest.mark.parametrize("waves", [1, 4])
def test_build_tokenizes_each_doc_once(ray_session, corpus_dir, tmp_path,
                                       monkeypatch, waves):
    total = _count_tokenized(monkeypatch, str(tmp_path / "count"))
    cfg = EngineConfig(shuffle_waves=waves, hot_df_threshold=40,
                       store_positions=waves > 1)
    m = _build(corpus_dir, str(tmp_path / "idx"), cfg)
    assert m["hot_df_terms"] and m["n_docs"] > 0
    assert total() == m["n_docs"]
    # a published epoch holds no exchange bytes
    edir = mf.epoch_dir(str(tmp_path / "idx"), "ep1")
    assert not [e for e in os.listdir(edir) if e.startswith("exchange")]


def test_resume_after_docs_stage_tokenizes_nothing(ray_session, corpus_dir,
                                                  tmp_path, monkeypatch):
    cfg = EngineConfig(shuffle_waves=2, hot_df_threshold=40)
    clean = _build(corpus_dir, str(tmp_path / "clean"), cfg)

    root = str(tmp_path / "crashed")
    _crash_after_docs(corpus_dir, root, cfg, monkeypatch)
    edir = mf.epoch_dir(root, "ep1")
    xdir = os.path.join(edir, "exchange")
    # one file per tokenize batch, never one per (batch, shard)
    shards = [set(pq.read_table(os.path.join(xdir, f),
                                columns=["shard"])["shard"].to_pylist())
              for f in os.listdir(xdir)]
    assert shards and all(len(s) > 1 for s in shards)

    total = _count_tokenized(monkeypatch, str(tmp_path / "count"))
    resumed = _build(corpus_dir, root, cfg)
    assert total() == 0
    assert resumed["hot_df_terms"] == clean["hot_df_terms"] != []
    assert _shas(resumed) == _shas(clean)


def test_fingerprint_change_and_fsck_clear_exchange(ray_session, corpus_dir,
                                                    tmp_path, monkeypatch):
    root = str(tmp_path / "idx")
    edir = mf.epoch_dir(root, "ep1")
    _crash_after_docs(corpus_dir, root, EngineConfig(), monkeypatch)
    assert os.listdir(os.path.join(edir, "exchange"))
    # another config: the crashed run's exchange is not adopted
    mf.reset_on_fingerprint_change(edir, "_build_cfg.json", {"other": 1})
    assert not os.path.exists(os.path.join(edir, "exchange"))

    # a published epoch: a crashed writer's staged exchange dir is
    # debris fsck_repair removes
    _build(corpus_dir, str(tmp_path / "pub"), EngineConfig())
    debris = os.path.join(mf.epoch_dir(str(tmp_path / "pub"), "ep1"),
                          "exchange.tmp.12345")
    os.makedirs(debris)
    pq.write_table(build.SEGMENT_SCHEMA.empty_table(),
                   os.path.join(debris, "x-0.parquet"))
    assert debris in mf.fsck_repair(str(tmp_path / "pub"))["removed"]
    assert not os.path.exists(debris)


def test_exchange_file_is_named_by_its_batch(tmp_path):
    """A retried batch overwrites its own exchange file: same doc_ids,
    same name, whatever the row order."""
    from mee_ray.corpus import iter_corpus_slices

    batch = next(iter(iter_corpus_slices(40, 3, slice_rows=40)))
    cfg = EngineConfig(num_shards=4)
    xdir = str(tmp_path / "x")
    os.makedirs(xdir)
    docs = build.DocsPass(cfg, xdir)(batch)
    build.DocsPass(cfg, xdir)(batch.take(list(range(batch.num_rows))[::-1]))
    files = os.listdir(xdir)
    assert len(files) == 1
    t = pq.read_table(os.path.join(xdir, files[0]))
    assert docs.column_names == mf.DOCS_COLUMNS
    assert t.column_names == ["shard", "term", "doc_id", "tf", "dl"]
    shards = t["shard"].to_pylist()
    assert shards == sorted(shards)
    assert pq.ParquetFile(os.path.join(xdir, files[0])).num_row_groups \
        == len(set(shards))


def test_term_hashes_equal_term_hash():
    """The vectorized hash routes every row exactly as term_hash:
    multi-byte utf-8, empty strings, strings either side of the
    vector/zlib length cut, sliced and chunked arrays."""
    import random

    import numpy as np
    import pyarrow as pa

    from mee_ray import ids

    rng = random.Random(5)
    cut = ids._VECTOR_CRC_MAX_BYTES
    words = ["", "a", "İstanbul", "日本語", "x" * cut, "y" * (cut + 1),
             "z" * 700] + ["".join(rng.choice("abz_é€😀9")
                                   for _ in range(rng.randrange(90)))
                          for _ in range(3000)]
    want = np.array([ids.term_hash(w) for w in words])
    for arr, exp in ((pa.array(words), want),
                     (pa.array(words).slice(5, 900), want[5:905]),
                     (pa.array(words, pa.large_string()), want),
                     (pa.chunked_array([words[:7], words[7:]]), want),
                     (pa.array([], pa.string()), want[:0])):
        assert np.array_equal(ids.term_hashes(arr), exp)
