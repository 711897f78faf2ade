"""The vectorized segment encoder (build.encode_segment) writes, column
for column and byte for byte, what a per-run encoder writes: one row per
(part, term, salt) run, its posting buffers encoded run by run."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from mee_ray.build import DocTokenize, ExplodeTriples, encode_segment
from mee_ray.config import EngineConfig
from mee_ray.corpus import generate_corpus
from mee_ray.postings import (block_metadata, encode_posting_list, tf_norm,
                              varint_encode)


def _reference_encode(triples: pa.Table, avgdl: float,
                      cfg: EngineConfig) -> pa.Table:
    """One run at a time: sort, cut at (part, term, salt) changes, and
    encode each run's postings with the per-list encoders."""
    g = triples.take(pc.sort_indices(
        triples, sort_keys=[(c, "ascending")
                            for c in ("part", "term", "salt", "doc_id")]))
    rows = {c: [] for c in ("term", "salt", "df", "doc_ids_enc", "tfs_enc",
                            "dls_enc", "block_last", "block_max", "part",
                            "pos_enc")}
    terms = g["term"].to_pylist()
    parts = g["part"].to_numpy()
    salts = g["salt"].to_numpy()
    ids = g["doc_id"].to_numpy()
    tfs = g["tf"].to_numpy()
    dls = g["dl"].to_numpy()
    pos = g["pos"].to_pylist() if "pos" in g.column_names else None
    tfn = tf_norm(tfs, dls, avgdl, cfg.bm25.k1, cfg.bm25.b)
    lo = 0
    for i in range(1, len(terms) + 1):
        if i < len(terms) and (terms[i], salts[i], parts[i]) == \
                (terms[lo], salts[lo], parts[lo]):
            continue
        e_ids, e_tfs = encode_posting_list(ids[lo:i], tfs[lo:i],
                                           cfg.postings_codec)
        bl, bm = block_metadata(ids[lo:i], tfn[lo:i], cfg.block_size)
        rows["term"].append(terms[lo])
        rows["salt"].append(int(salts[lo]))
        rows["df"].append(i - lo)
        rows["doc_ids_enc"].append(e_ids)
        rows["tfs_enc"].append(e_tfs)
        rows["dls_enc"].append(varint_encode(dls[lo:i].astype(np.uint64)))
        rows["block_last"].append(bl.tolist())
        rows["block_max"].append(bm.tolist())
        rows["part"].append(int(parts[lo]))
        if pos is not None:
            rows["pos_enc"].append(b"".join(pos[lo:i]))
        lo = i
    if pos is None:
        del rows["pos_enc"]
    return pa.table(rows)


def _triples(cfg: EngineConfig) -> pa.Table:
    corpus = generate_corpus(n_files=300, seed=7)
    # shuffled input: the encoder must not depend on row order
    corpus = corpus.take(np.random.default_rng(0).permutation(
        corpus.num_rows))
    tok = DocTokenize(cfg)
    return ExplodeTriples(cfg)(tok(corpus))


@pytest.mark.parametrize("codec", ["varint", "pfor"])
@pytest.mark.parametrize("positions", [False, True])
def test_vectorized_encode_equals_per_run_encoder(codec, positions):
    cfg = EngineConfig(num_shards=2, parts_per_shard=2, block_size=16,
                       postings_codec=codec, store_positions=positions,
                       hot_terms=frozenset({"def", "return"}))
    tri = _triples(cfg)
    got = encode_segment(tri, 37.5, cfg)
    want = _reference_encode(tri, 37.5, cfg)
    assert got.num_rows == want.num_rows > 100
    assert got.column_names == want.column_names
    for c in want.column_names:
        assert got[c].to_pylist() == want[c].to_pylist(), c
    # the branches the vectorized path splices: pfor runs, multi-block
    # runs, several salts and every part
    df = got["df"].to_numpy()
    assert df.max() >= 64 and (df > 16).sum() > 5
    assert set(got["part"].to_pylist()) == set(range(4))
    assert len(set(got["salt"].to_pylist())) > 1
    tags = {b[0] for b in got["doc_ids_enc"].to_pylist()}
    assert tags == ({0, 1} if codec == "pfor" else {0})


def test_encode_segment_empty_input():
    cfg = EngineConfig()
    tri = _triples(cfg).slice(0, 0)
    seg = encode_segment(tri, 1.0, cfg)
    assert seg.num_rows == 0 and "part" in seg.column_names
