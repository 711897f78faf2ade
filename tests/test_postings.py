"""Codec round-trip tests, property-based per SURVEY.md §5.2."""

import numpy as np
from hypothesis import given, settings, strategies as st

from mee_ray.postings import (
    block_metadata, decode_posting_list, delta_decode, delta_encode,
    encode_posting_list, tf_norm, varint_decode, varint_encode,
)


def _pyvarint(values):
    out = bytearray()
    for v in values:
        v = int(v)
        while True:
            b = v & 0x7F
            v >>= 7
            if v:
                out.append(b | 0x80)
            else:
                out.append(b)
                break
    return bytes(out)


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=200))
@settings(max_examples=200, deadline=None)
def test_varint_roundtrip_and_wire_format(vals):
    arr = np.array(vals, dtype=np.uint64)
    enc = varint_encode(arr)
    assert enc == _pyvarint(vals)  # wire-format equals the scalar reference
    dec = varint_decode(enc)
    assert dec.tolist() == vals


@given(st.lists(st.integers(min_value=0, max_value=2**62), min_size=1, max_size=300, unique=True))
@settings(max_examples=100, deadline=None)
def test_delta_roundtrip(ids):
    ids = np.array(sorted(ids), dtype=np.int64)
    assert (delta_decode(delta_encode(ids)) == ids).all()


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=2**62),
                          st.integers(min_value=1, max_value=10_000)),
                min_size=0, max_size=300))
@settings(max_examples=100, deadline=None)
def test_posting_list_roundtrip(pairs):
    pairs = sorted({d: t for d, t in pairs}.items())
    ids = np.array([d for d, _ in pairs], dtype=np.int64)
    tfs = np.array([t for _, t in pairs], dtype=np.int64)
    de, te = encode_posting_list(ids, tfs)
    ids2, tfs2 = decode_posting_list(de, te)
    assert (ids2 == ids).all()
    assert (tfs2 == tfs).all()


def test_empty_roundtrip():
    de, te = encode_posting_list(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    ids, tfs = decode_posting_list(de, te)
    assert len(ids) == 0 and len(tfs) == 0


def test_block_metadata():
    ids = np.arange(0, 300, dtype=np.int64)
    tfn = np.linspace(0.1, 2.0, 300)
    last, mx = block_metadata(ids, tfn, block_size=128)
    assert last.tolist() == [127, 255, 299]
    assert np.allclose(mx, [tfn[127], tfn[255], tfn[299]])
    # invariant: every posting's tfnorm ≤ its block max
    for i in range(300):
        assert tfn[i] <= mx[i // 128] + 1e-15


def test_tf_norm_matches_scalar():
    from mee_ray.config import BM25Params
    from mee_ray.scoring import tfn_scalar
    p = BM25Params()
    tfs = np.array([1, 2, 5, 100], dtype=np.int64)
    dls = np.array([10, 20, 5, 1000], dtype=np.int64)
    v = tf_norm(tfs, dls, avgdl=37.5, k1=p.k1, b=p.b)
    for i in range(4):
        assert v[i] == tfn_scalar(float(tfs[i]), float(dls[i]), 37.5, p)


# ---- PForDelta codec -------------------------------------------------

def _rand_arrays():
    import numpy as np
    rng = np.random.default_rng(7)
    yield np.empty(0, dtype=np.uint64)
    yield np.array([0], dtype=np.uint64)
    yield np.array([2**63 + 11], dtype=np.uint64)
    yield rng.integers(0, 4, size=1000).astype(np.uint64)        # tf-like
    yield rng.zipf(1.3, size=777).astype(np.uint64)              # gap-like
    big = rng.integers(0, 2**62, size=300).astype(np.uint64)     # wide
    yield big
    mix = rng.integers(0, 8, size=500).astype(np.uint64)
    mix[rng.integers(0, 500, size=13)] = rng.integers(
        2**40, 2**60, size=13).astype(np.uint64)                 # exceptions
    yield mix


def test_pfor_roundtrip():
    import numpy as np

    from mee_ray.postings import pfor_decode, pfor_encode
    for arr in _rand_arrays():
        got = pfor_decode(pfor_encode(arr))
        assert got.dtype == np.uint64
        assert np.array_equal(got, arr), arr[:10]


def test_tagged_posting_list_codecs_interchange():
    import numpy as np

    from mee_ray.postings import decode_posting_list, encode_posting_list
    rng = np.random.default_rng(3)
    ids = np.unique(rng.integers(0, 2**62, size=900)).astype(np.int64)
    tfs = rng.integers(1, 9, size=len(ids)).astype(np.int64)
    for codec in ("varint", "pfor"):
        e_ids, e_tfs = encode_posting_list(ids, tfs, codec)
        d_ids, d_tfs = decode_posting_list(e_ids, e_tfs)
        assert np.array_equal(d_ids, ids) and np.array_equal(d_tfs, tfs)
    # pfor beats varint on the small skewed tf column
    v = encode_posting_list(ids, tfs, "varint")[1]
    p = encode_posting_list(ids, tfs, "pfor")[1]
    assert len(p) < len(v)


def test_pfor_index_end_to_end(ray_session, tmp_path):
    """Index built with postings_codec="pfor" is rank/score-identical
    to the oracle, and delta/compact inherit the codec from the
    manifest."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from mee_ray.build import build_index
    from mee_ray.config import EngineConfig, config_from_manifest
    from mee_ray.delta import apply_delta
    from mee_ray.ids import doc_id_of
    from mee_ray import manifest as mf
    from mee_ray.merge import compact
    from mee_ray.oracle import OracleIndex, make_query_set
    from mee_ray.query import Searcher

    docs = [("o/r", f"p{i}.py", "c" * 40,
             f"def p_{i}(): return pfor_tok_{i} shared_pfor\n")
            for i in range(25)]
    cdir = str(tmp_path / "corpus")
    os.makedirs(cdir)
    pq.write_table(pa.table({
        "repo": pa.array([d[0] for d in docs]),
        "path": pa.array([d[1] for d in docs]),
        "commit": pa.array([d[2] for d in docs]),
        "lang": pa.array(["python"] * len(docs)),
        "content": pa.array([d[3] for d in docs]),
    }), f"{cdir}/p.parquet")
    root = str(tmp_path / "idx")
    build_index(ray.data.read_parquet(cdir), root, "ep1",
                EngineConfig(postings_codec="pfor"))
    assert config_from_manifest(mf.load_manifest(root)).postings_codec == "pfor"

    ev = pa.table({
        "seq": pa.array([1], pa.int64()),
        "type": pa.array(["INSERT"]),
        "repo": pa.array(["o/r"]), "path": pa.array(["new.py"]),
        "commit": pa.array(["d" * 40]), "lang": pa.array(["python"]),
        "content": pa.array(["def q(): return pfor_delta_tok shared_pfor\n"]),
    })
    apply_delta(ev, root)
    compact(root, "ep2", gc_old=False)

    all_docs = docs + [("o/r", "new.py", "d" * 40,
                        "def q(): return pfor_delta_tok shared_pfor\n")]
    oi = OracleIndex([(doc_id_of(r, p, c), t) for r, p, c, t in all_docs])
    s = Searcher(root)
    assert (s.n_docs, s.avgdl) == (oi.n_docs, oi.avgdl)
    qs = [["shared_pfor"], ["pfor_delta_tok"], ["pfor_tok_3", "shared_pfor"]]
    qs += [q["terms"] for q in make_query_set(
        [(i, t) for i, (_, _, _, t) in enumerate(all_docs)],
        n_queries=10, seed=1)]
    for q in qs:
        assert s.search(q, 10) == oi.search(q, 10)


# ---- property fuzz (hypothesis) --------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as hst

_u64_lists = hst.lists(hst.integers(min_value=0, max_value=2**64 - 1),
                       max_size=400)


@settings(max_examples=120, deadline=None)
@given(_u64_lists)
def test_pfor_roundtrip_property(vals):
    import numpy as np

    from mee_ray.postings import pfor_decode, pfor_encode
    arr = np.array(vals, dtype=np.uint64)
    assert np.array_equal(pfor_decode(pfor_encode(arr)), arr)


@settings(max_examples=120, deadline=None)
@given(_u64_lists, hst.data())
def test_varint_offset_slices_are_valid_streams(vals, data):
    """The bulk-encode path slices one varint stream at value
    boundaries; every such slice must decode to exactly the
    corresponding sub-array."""
    import numpy as np

    from mee_ray.postings import varint_decode, varint_encode_offsets
    arr = np.array(vals, dtype=np.uint64)
    buf, offs = varint_encode_offsets(arr)
    n = len(arr)
    lo = data.draw(hst.integers(0, n))
    hi = data.draw(hst.integers(lo, n))
    got = varint_decode(buf[offs[lo]:offs[hi]])
    assert np.array_equal(got, arr[lo:hi])


@settings(max_examples=60, deadline=None)
@given(hst.lists(hst.tuples(
    hst.integers(0, 2**62),                       # first doc id
    hst.lists(hst.integers(1, 2**40), min_size=0, max_size=60),  # gaps
    hst.sampled_from(["varint", "pfor"])), max_size=12))
def test_bulk_decode_rows_matches_per_row(runs):
    """merge._decode_rows (bulk, concatenated per codec tag) must equal
    decoding each row individually — including mixed-codec tables."""
    import numpy as np
    import pyarrow as pa

    from mee_ray.merge import _decode_rows
    from mee_ray.postings import (decode_posting_list,
                                  encode_posting_list, varint_encode)

    rows = {"term": [], "salt": [], "df": [], "doc_ids_enc": [],
            "tfs_enc": [], "dls_enc": []}
    expect = []
    rng = np.random.default_rng(5)
    for i, (first, gaps, codec) in enumerate(runs):
        ids = np.cumsum(np.array([first] + gaps, dtype=np.uint64)
                        ).astype(np.int64)
        tfs = rng.integers(1, 9, size=len(ids)).astype(np.int64)
        dls = rng.integers(1, 1000, size=len(ids)).astype(np.uint64)
        e_ids, e_tfs = encode_posting_list(ids, tfs, codec)
        rows["term"].append(f"t{i}")
        rows["salt"].append(i % 3)
        rows["df"].append(len(ids))
        rows["doc_ids_enc"].append(e_ids)
        rows["tfs_enc"].append(e_tfs)
        rows["dls_enc"].append(varint_encode(dls))
        expect.append((f"t{i}", i % 3, ids, tfs, dls.astype(np.int64)))

    t = pa.table({
        "term": pa.array(rows["term"], pa.string()),
        "salt": pa.array(rows["salt"], pa.int32()),
        "df": pa.array(rows["df"], pa.int64()),
        "doc_ids_enc": pa.array(rows["doc_ids_enc"], pa.binary()),
        "tfs_enc": pa.array(rows["tfs_enc"], pa.binary()),
        "dls_enc": pa.array(rows["dls_enc"], pa.binary()),
    })
    got = _decode_rows(t)
    pos = 0
    for term, salt, ids, tfs, dls in expect:
        n = len(ids)
        sl = got.slice(pos, n)
        assert sl["term"].to_pylist() == [term] * n
        assert sl["salt"].to_pylist() == [salt] * n
        assert np.array_equal(
            sl["doc_id"].to_numpy(zero_copy_only=False), ids)
        assert np.array_equal(
            sl["tf"].to_numpy(zero_copy_only=False).astype(np.int64), tfs)
        assert np.array_equal(
            sl["dl"].to_numpy(zero_copy_only=False).astype(np.int64), dls)
        # cross-check one row against the scalar decode path
        d_ids, d_tfs = decode_posting_list(
            t["doc_ids_enc"][expect.index((term, salt, ids, tfs, dls))
                             ].as_py(),
            t["tfs_enc"][expect.index((term, salt, ids, tfs, dls))].as_py())
        assert np.array_equal(d_ids, ids)
        pos += n


def _scalar_terms_and_positions(tok, contents):
    """Scalar reference of DocTokenize's list columns: per doc, the
    Counter of its terms sorted by term, each term's positions encoded
    by encode_positions one group at a time."""
    import numpy as np
    import pyarrow as pa

    from mee_ray.postings import encode_positions

    lengths, terms, tfs, poss = [], [], [], []
    for c in contents:
        counts, pos = tok.counts_and_positions(c if c is not None else "")
        items = sorted(counts.items())
        terms.append([t for t, _ in items])
        tfs.append([tf for _, tf in items])
        poss.append([encode_positions(np.array(pos[t])) for t, _ in items])
        lengths.append(sum(counts.values()))
    return {"length": pa.array(lengths, pa.int32()),
            "terms": pa.array(terms, pa.list_(pa.string())),
            "tfs": pa.array(tfs, pa.list_(pa.int32())),
            "poss": pa.array(poss, pa.list_(pa.binary()))}


def test_doctokenize_positional_vectorized_parity():
    """The vectorized positional path (one varint_encode_offsets call
    per batch) must emit byte-identical per-(doc, term) position
    blobs to the scalar encode_positions-per-group reference."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from mee_ray.build import DocTokenize
    from mee_ray.config import EngineConfig

    t = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                      columns=["text"]).slice(0, 200)
    n = len(t)
    batch = pa.table({
        "repo": pa.array([f"r{i}" for i in range(n)]),
        "path": pa.array([f"p{i}.py" for i in range(n)]),
        "commit": pa.array(["c" * 8] * n),
        "lang": pa.array(["python"] * n),
        "content": t["text"]})
    batch = pa.concat_tables([batch, pa.table({
        "repo": ["rx"], "path": ["px"], "commit": ["cx"],
        "lang": ["python"],
        "content": pa.array([None], pa.string())})])
    vec = DocTokenize(EngineConfig(store_positions=True))
    got = vec(batch)
    want = _scalar_terms_and_positions(vec.tok,
                                       batch["content"].to_pylist())
    for c, col in want.items():
        assert got[c].combine_chunks().equals(col), c
