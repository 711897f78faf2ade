"""Multimodal column plumbing: opaque binary payloads + typed metadata.

The image/audio decode libraries are not in this container, so the
decode kernel is a clearly-marked deterministic fake
(:class:`FakeImageDecode.decode_real` raises NotImplementedError); what
IS real and tested is the Ray-side plumbing a 100 TB multimodal
pipeline needs: binary columns through Arrow batches, an actor-pool
stage with per-actor setup, small byte-aware batches, and a typed
metadata output schema.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _text_payloads(t: pa.Table, repeat: int = 1) -> pa.Table:
    """documents.text reinterpreted as an opaque binary payload column
    (None-safe); ``repeat`` scales payload size for the video fake."""
    payloads = [((x or "") * repeat).encode() for x in t["text"].to_pylist()]
    return pa.table({"doc_id": t["doc_id"],
                     "payload": pa.array(payloads, pa.binary())})


class FakeImageDecode:
    """Actor-pool decode stage. __init__ = load-codec-once (here: a
    deterministic parameter table); __call__ = per-batch decode.

    Real decode is stubbed: plug in PIL/libjpeg by overriding
    :meth:`decode_real`."""

    def __init__(self):
        self.channels = 3  # stand-in for codec init

    def decode_real(self, payload: bytes) -> dict:
        raise NotImplementedError(
            "image decoding requires an image library not present in this "
            "environment; FakeImageDecode.__call__ uses a deterministic "
            "stand-in so the pipeline plumbing is testable")

    def __call__(self, t: pa.Table) -> pa.Table:
        payloads = t["payload"].to_pylist()
        n_bytes = np.array([len(p) for p in payloads], dtype=np.int64)
        # deterministic fake "decode": dimensions derived from size
        width = (n_bytes % 640) + 1
        height = ((n_bytes * 7) % 480) + 1
        return pa.table({
            "doc_id": t["doc_id"],
            "n_bytes": pa.array(n_bytes),
            "width": pa.array(width),
            "height": pa.array(height),
            "channels": pa.array(np.full(len(n_bytes), self.channels, dtype=np.int64)),
        })


def multimodal_image_meta(sf_dir: str):
    """documents.text reinterpreted as an opaque binary payload column
    → actor-pool decode → typed metadata. SQL oracle replicates the
    deterministic fake via byte lengths."""
    import ray.data


    return (ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                  columns=["doc_id", "text"])
            .map_batches(_text_payloads, batch_format="pyarrow", zero_copy_batch=True)
            .map_batches(FakeImageDecode, batch_format="pyarrow",
                         batch_size=256, concurrency=(1, 4)))


MULTIMODAL_SQL = """
SELECT doc_id,
       strlen(coalesce(text, ''))              AS n_bytes,
       (strlen(coalesce(text, '')) % 640) + 1  AS width,
       ((strlen(coalesce(text, '')) * 7) % 480) + 1 AS height,
       3                         AS channels
FROM documents
"""


class FakeAudioFeatures:
    """Actor-pool audio feature-extraction stage: binary payload →
    fixed-width feature vector (``list<float>``) + duration metadata.

    Real extraction (librosa/ffmpeg MFCCs) is stubbed behind
    :meth:`extract_real`; the deterministic stand-in derives features
    from byte statistics so the Ray-side plumbing — binary in, feature
    vector out, per-actor "model" setup, byte-aware batches — is real
    and testable end-to-end.  The stand-in features are integer
    windowed byte SUMS (np.array_split windows), not float means, so
    the whole query is value-exact against a SQL oracle (a real MFCC
    extractor would be floats and rows-only)."""

    N_FEATURES = 8
    SAMPLE_RATE = 16_000

    def __init__(self):
        # stand-in for loading an acoustic model once per actor
        self.weights = np.arange(1, self.N_FEATURES + 1, dtype=np.float64)

    def extract_real(self, payload: bytes) -> np.ndarray:
        raise NotImplementedError(
            "audio feature extraction requires an audio library not "
            "present in this environment; __call__ uses a deterministic "
            "stand-in so the pipeline plumbing is testable")

    def __call__(self, t: pa.Table) -> pa.Table:
        payloads = t["payload"].to_pylist()
        n_bytes = np.array([len(p) for p in payloads], dtype=np.int64)
        # fake "signal": 2 bytes/sample mono PCM
        duration_ms = n_bytes * 1000 // (2 * self.SAMPLE_RATE)
        feats = []
        for p in payloads:
            a = np.frombuffer(p, dtype=np.uint8).astype(np.int64)
            if len(a) == 0:
                feats.append([0] * self.N_FEATURES)
                continue
            # deterministic per-payload features: windowed byte sums
            chunks = np.array_split(a, self.N_FEATURES)
            feats.append([int(c.sum()) if len(c) else 0 for c in chunks])
        return pa.table({
            "doc_id": t["doc_id"],
            "n_bytes": pa.array(n_bytes),
            "duration_ms": pa.array(duration_ms),
            "features": pa.array(feats, pa.list_(pa.int64())),
        })


def multimodal_audio_features(sf_dir: str):
    """Binary audio payloads → actor-pool feature extraction, flattened
    to fixed f0..f7 integer columns — value-exact against AUDIO_SQL
    (the stand-in features are windowed byte sums, so no float-hash
    instability)."""
    import ray.data


    ds = (ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                columns=["doc_id", "text"])
          .map_batches(_text_payloads, batch_format="pyarrow",
                       zero_copy_batch=True)
          .map_batches(FakeAudioFeatures, batch_format="pyarrow",
                       batch_size=128, concurrency=(1, 4)))

    def flat(t: pa.Table) -> pa.Table:
        # flatten list<float> → fixed f0..f7 columns (the driver's
        # value-hash sorts rows by every column; lists don't sort)
        feats = t["features"].to_pylist()
        cols = {"doc_id": t["doc_id"], "n_bytes": t["n_bytes"],
                "duration_ms": t["duration_ms"]}
        for i in range(FakeAudioFeatures.N_FEATURES):
            cols[f"f{i}"] = pa.array([f[i] for f in feats], pa.int64())
        return pa.table(cols)

    return ds.map_batches(flat, batch_format="pyarrow")


# Oracle for the audio stage: the fake features are windowed byte SUMS
# with np.array_split window boundaries — the first (n % 8) windows get
# (n // 8 + 1) bytes, the rest (n // 8).  documents.text is ASCII in
# the synthetic tables, so ord(substr(...)) IS the payload byte.
AUDIO_SQL = """
WITH b AS (
  SELECT doc_id, strlen(coalesce(text, '')) AS n, u.i - 1 AS j,
         ord(substr(coalesce(text, ''), u.i, 1)) AS v
  FROM documents,
       LATERAL (SELECT unnest(generate_series(
           1, strlen(coalesce(text, '')))) AS i) u
), c AS (
  SELECT doc_id, v,
         CASE WHEN n // 8 = 0 THEN j
              WHEN j < (n % 8) * (n // 8 + 1) THEN j // (n // 8 + 1)
              ELSE (n % 8) + (j - (n % 8) * (n // 8 + 1)) // (n // 8)
         END AS w
  FROM b
), f AS (
  SELECT doc_id, w, sum(v) AS s FROM c GROUP BY doc_id, w
)
SELECT d.doc_id,
       CAST(strlen(coalesce(d.text, '')) AS BIGINT)    AS n_bytes,
       CAST(strlen(coalesce(d.text, '')) * 1000 // 32000
            AS BIGINT)                                 AS duration_ms,
       CAST(coalesce(max(CASE WHEN w = 0 THEN s END), 0) AS BIGINT) AS f0,
       CAST(coalesce(max(CASE WHEN w = 1 THEN s END), 0) AS BIGINT) AS f1,
       CAST(coalesce(max(CASE WHEN w = 2 THEN s END), 0) AS BIGINT) AS f2,
       CAST(coalesce(max(CASE WHEN w = 3 THEN s END), 0) AS BIGINT) AS f3,
       CAST(coalesce(max(CASE WHEN w = 4 THEN s END), 0) AS BIGINT) AS f4,
       CAST(coalesce(max(CASE WHEN w = 5 THEN s END), 0) AS BIGINT) AS f5,
       CAST(coalesce(max(CASE WHEN w = 6 THEN s END), 0) AS BIGINT) AS f6,
       CAST(coalesce(max(CASE WHEN w = 7 THEN s END), 0) AS BIGINT) AS f7
FROM documents d LEFT JOIN f ON d.doc_id = f.doc_id
GROUP BY d.doc_id, d.text
"""


class FakeVideoFrameSample:
    """Actor-pool frame-sampling stage: binary payload → sampled-frame
    offsets + per-frame byte slices (``list<int64>`` offsets).  Real
    demux/decode stubbed behind :meth:`sample_real`."""

    FPS = 30
    SAMPLE_EVERY_N = 30  # one frame per second

    def __init__(self):
        self.codec_ready = True  # stand-in for demuxer init

    def sample_real(self, payload: bytes) -> list:
        raise NotImplementedError(
            "video demuxing requires ffmpeg, not present in this "
            "environment; __call__ uses a deterministic stand-in")

    def __call__(self, t: pa.Table) -> pa.Table:
        payloads = t["payload"].to_pylist()
        n_bytes = np.array([len(p) for p in payloads], dtype=np.int64)
        # fake container: 1 KiB per frame
        n_frames = np.maximum(n_bytes // 1024, 1)
        out_offsets = []
        for nf in n_frames.tolist():
            idx = list(range(0, nf, self.SAMPLE_EVERY_N))
            out_offsets.append([i * 1024 for i in idx])
        return pa.table({
            "doc_id": t["doc_id"],
            "n_bytes": pa.array(n_bytes),
            "n_frames": pa.array(n_frames),
            "n_sampled": pa.array(
                np.array([len(o) for o in out_offsets], dtype=np.int64)),
            "frame_offsets": pa.array(out_offsets, pa.list_(pa.int64())),
        })


def multimodal_video_frames(sf_dir: str):
    """Binary video payloads → actor-pool frame sampling; the flat
    metadata columns (n_frames, n_sampled) have a SQL oracle, the
    offsets column proves the list plumbing."""
    import ray.data

    def to_payload(t: pa.Table) -> pa.Table:
        return _text_payloads(t, repeat=40)

    ds = (ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                columns=["doc_id", "text"])
          .map_batches(to_payload, batch_format="pyarrow",
                       zero_copy_batch=True)
          .map_batches(FakeVideoFrameSample, batch_format="pyarrow",
                       batch_size=64, concurrency=(1, 4)))

    def flat(t: pa.Table) -> pa.Table:
        return t.select(["doc_id", "n_bytes", "n_frames", "n_sampled"])

    return ds.map_batches(flat, batch_format="pyarrow")


VIDEO_SQL = """
SELECT doc_id,
       strlen(coalesce(text, '')) * 40                         AS n_bytes,
       greatest(strlen(coalesce(text, '')) * 40 // 1024, 1)    AS n_frames,
       (greatest(strlen(coalesce(text, '')) * 40 // 1024, 1) + 29) // 30 AS n_sampled
FROM documents
"""


class FakeImageEmbed:
    """Actor-pool embedding stage: binary payload → L2-normalized
    ``EMBED_DIM``-dim vector.  Real embedding (a CLIP-style vision
    encoder) is stubbed behind :meth:`embed_real`; the deterministic
    stand-in is a folded byte histogram, so the whole retrieval chain
    (embed → broadcast query matrix → per-batch cosine top-k) is
    testable end-to-end with a pure-numpy oracle."""

    EMBED_DIM = 64

    def __init__(self):
        self.model_ready = True   # stand-in for weight loading

    def embed_real(self, payload: bytes) -> np.ndarray:
        raise NotImplementedError(
            "image embedding requires a vision model not present in "
            "this environment; __call__ uses a deterministic stand-in")

    @classmethod
    def embed_fake(cls, payload: bytes) -> np.ndarray:
        """256-bin byte histogram folded to EMBED_DIM, L2-normalized —
        deterministic, order-sensitive enough to distinguish docs."""
        a = np.frombuffer(payload, dtype=np.uint8)
        hist = np.bincount(a, minlength=256).astype(np.float64)
        v = hist.reshape(cls.EMBED_DIM, 256 // cls.EMBED_DIM).sum(axis=1)
        # mix in positional signal so permuted payloads differ
        if len(a):
            pos = np.arange(len(a), dtype=np.float64)
            v += np.bincount(a % cls.EMBED_DIM, weights=pos,
                             minlength=cls.EMBED_DIM) / max(1, len(a))
        n = np.linalg.norm(v)
        return v / n if n else v

    def __call__(self, t: pa.Table) -> pa.Table:
        embs = [self.embed_fake(p).tolist()
                for p in t["payload"].to_pylist()]
        return pa.table({
            "doc_id": t["doc_id"],
            "embedding": pa.array(embs, pa.list_(pa.float64())),
        })


def multimodal_retrieval(sf_dir: str, n_queries: int = 5, k: int = 10):
    """End-to-end multimodal retrieval: payload → actor-pool embed →
    cosine top-k against a broadcast query matrix (the first
    ``n_queries`` docs' own embeddings).  The scale shape is the
    knn_bruteforce one: the query matrix is ray.put once, every batch
    does one matmul and keeps only its local top-k partials, the
    driver merges n_queries×k×batches rows.  Output is the integer
    rank table (query_id, rank, doc_id) — value-exact against
    RETRIEVAL_SQL, which rebuilds the fake byte-histogram embedding
    relationally; the cosine floats stay internal (ULP-unstable across
    engines) and are proven against a pure-numpy brute-force oracle in
    tests."""
    import ray
    import ray.data


    embedded = (ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                      columns=["doc_id", "text"])
                .map_batches(_text_payloads, batch_format="pyarrow",
                             zero_copy_batch=True)
                .map_batches(FakeImageEmbed, batch_format="pyarrow",
                             batch_size=128, concurrency=(1, 4)))

    # query matrix: the n_queries smallest doc_ids (deterministic),
    # embedded once on the driver from the same fake encoder.  Only
    # the id column plus the FILTERED query rows are read — never the
    # whole corpus's text onto the driver.
    import pyarrow.parquet as pq
    id_col = pq.read_table(f"{sf_dir}/documents.parquet",
                           columns=["doc_id"])["doc_id"]
    q_ids = np.sort(id_col.to_numpy(zero_copy_only=False))[:n_queries]
    qt = pq.read_table(f"{sf_dir}/documents.parquet",
                       columns=["doc_id", "text"],
                       filters=[("doc_id", "in", q_ids.tolist())])
    txt = dict(zip(qt["doc_id"].to_pylist(), qt["text"].to_pylist()))
    q_mat = np.stack([FakeImageEmbed.embed_fake((txt[int(i)] or "").encode())
                      for i in q_ids])
    q_ref = ray.put((q_ids, q_mat))

    def batch_topk(t: pa.Table) -> pa.Table:
        ids_q, mat_q = ray.get(q_ref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        # reshape(-1, dim): np.array of an EMPTY list is shape (0,),
        # not (0, dim), and the matmul would raise on empty blocks
        embs = np.array(t["embedding"].to_pylist(),
                        dtype=np.float64).reshape(-1, mat_q.shape[1])
        sims = embs @ mat_q.T                       # (batch, n_queries)
        out_q, out_d, out_s = [], [], []
        for j in range(len(ids_q)):
            # tie-break by doc_id INSIDE the batch too: duplicate
            # payloads give exact cosine ties, and a batch-local
            # arbitrary order could drop the doc the global
            # (sim desc, id) merge would have ranked
            top = np.lexsort((ids, -sims[:, j]))[:k]
            out_q.extend([int(ids_q[j])] * len(top))
            out_d.extend(ids[top].tolist())
            out_s.extend(sims[top, j].tolist())
        return pa.table({"query_id": pa.array(out_q, pa.int64()),
                         "doc_id": pa.array(out_d, pa.int64()),
                         "cosine": pa.array(out_s, pa.float64())})

    blocks = list(embedded.map_batches(batch_topk, batch_format="pyarrow")
                  .iter_batches(batch_format="pyarrow", batch_size=None))
    if not blocks:
        blocks = [pa.table({"query_id": pa.array([], pa.int64()),
                            "doc_id": pa.array([], pa.int64()),
                            "cosine": pa.array([], pa.float64())})]
    parts = pa.concat_tables(blocks)
    out_q, out_r, out_d, out_s = [], [], [], []
    qs = parts["query_id"].to_numpy(zero_copy_only=False)
    ds_ = parts["doc_id"].to_numpy(zero_copy_only=False)
    ss = parts["cosine"].to_numpy(zero_copy_only=False)
    for qid in sorted(set(qs.tolist())):
        m = qs == qid
        order2 = np.lexsort((ds_[m], -ss[m]))[:k]
        for rank, j in enumerate(order2, start=1):
            out_q.append(qid); out_r.append(rank)
            out_d.append(int(ds_[m][j])); out_s.append(float(ss[m][j]))
    return pa.table({"query_id": pa.array(out_q, pa.int64()),
                     "rank": pa.array(out_r, pa.int64()),
                     "doc_id": pa.array(out_d, pa.int64())})


# Oracle for multimodal_retrieval: rebuild the fake embedding
# relationally — v[k] = (# bytes in [4k, 4k+4)) + sum(byte positions
# with byte % 64 == k) / n — and rank by dot/|vd| (the query-side norm
# is constant per query, so the ordering equals cosine ordering).  Only
# the integer rank table is compared; near-ties below float noise could
# in principle flip between engines, but the fake embeddings of
# distinct payloads are separated far above ULP scale (asserted by the
# brute-force exactness test).
RETRIEVAL_SQL = """
WITH bytes AS (
  SELECT doc_id, u.i - 1 AS j,
         ord(substr(coalesce(text, ''), u.i, 1)) AS byte,
         strlen(coalesce(text, '')) AS n
  FROM documents,
       LATERAL (SELECT unnest(generate_series(
           1, strlen(coalesce(text, '')))) AS i) u
), h AS (
  SELECT doc_id, byte // 4 AS k, CAST(count(*) AS DOUBLE) AS w
  FROM bytes GROUP BY doc_id, byte // 4
), p AS (
  SELECT doc_id, byte % 64 AS k,
         sum(CAST(j AS DOUBLE)) / any_value(n) AS w
  FROM bytes GROUP BY doc_id, byte % 64
), v AS (
  SELECT doc_id, k, sum(w) AS w
  FROM (SELECT * FROM h UNION ALL SELECT * FROM p) GROUP BY doc_id, k
), nrm AS (
  SELECT doc_id, sqrt(sum(w * w)) AS nd FROM v GROUP BY doc_id
), q AS (
  SELECT doc_id AS qid FROM documents ORDER BY doc_id LIMIT 5
), dotp AS (
  SELECT q.qid, vd.doc_id, sum(vq.w * vd.w) AS dot
  FROM q
  JOIN v vq ON vq.doc_id = q.qid
  JOIN v vd ON vd.k = vq.k
  GROUP BY q.qid, vd.doc_id
), scored AS (
  -- every (query, doc) pair scores: docs sharing no embedding
  -- component with the query (and zero-vector docs/queries, whose
  -- norm row is absent) take cosine 0, exactly like the engine's
  -- dense matmul — an inner join here silently dropped them
  SELECT q.qid, d.doc_id,
         coalesce(dp.dot / nrm.nd, 0.0) AS s
  FROM q CROSS JOIN documents d
  LEFT JOIN dotp dp ON dp.qid = q.qid AND dp.doc_id = d.doc_id
  LEFT JOIN nrm ON nrm.doc_id = d.doc_id
)
SELECT qid AS query_id, rank, doc_id
FROM (SELECT qid, doc_id,
             row_number() OVER (
               PARTITION BY qid
               ORDER BY s DESC, doc_id) AS rank
      FROM scored)
WHERE rank <= 10
"""


# ------------------------- REAL-bytes decode (stdlib-only codecs) --
# The fakes above stand in for heavyweight codecs; these two stages
# prove the same actor protocol on GENUINE encoded binary columns
# using nothing but struct/zlib (VERDICT r4 #7): payloads are real
# RIFF/WAVE and PNG files synthesized deterministically from doc_id,
# and decode really parses them — magic + chunk walk + (for PNG) CRC
# check, zlib inflate and scanline unfilter.  Because the synthesized
# signal is an integer formula of doc_id, the decoded metadata AND
# sample statistics are value-exact against a DuckDB oracle that
# evaluates the formula directly — a real MFCC/JPEG pipeline would be
# rows-only.

def _wav_payloads(t: pa.Table) -> pa.Table:
    """doc_id → a complete little-endian RIFF/WAVE file: 16-bit mono
    PCM, n_samples = (doc_id % 96) + 8, sample_rate = 8000 +
    (doc_id % 3)*4000, sample_i = (((doc_id % 65536)*31 + i*17)
    % 65536) - 32768 — the % 65536 pre-reduction keeps the product
    int64-safe for 63-bit hash doc_ids; same value, since mod
    distributes over the product."""
    import struct
    ids = t["doc_id"].to_numpy(zero_copy_only=False)
    payloads = []
    for d in ids:
        d = int(d)
        n = (d % 96) + 8
        rate = 8000 + (d % 3) * 4000
        i = np.arange(n, dtype=np.int64)
        samples = ((((d % 65536) * 31 + i * 17) % 65536)
                   - 32768).astype("<i2")
        data = samples.tobytes()
        fmt = struct.pack("<HHIIHH", 1, 1, rate, rate * 2, 2, 16)
        body = (b"WAVE"
                + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                + b"data" + struct.pack("<I", len(data)) + data)
        payloads.append(b"RIFF" + struct.pack("<I", len(body)) + body)
    return pa.table({"doc_id": t["doc_id"],
                     "payload": pa.array(payloads, pa.binary())})


class WavMetaDecode:
    """Actor-pool stage decoding REAL wav bytes: RIFF magic check,
    chunk walk to fmt /data, PCM frame math, int64 energy + peak over
    the samples.  Raises on malformed input — this is a decoder, not
    a length heuristic."""

    def __init__(self):
        import struct
        self._u32 = struct.Struct("<I").unpack_from
        self._fmt = struct.Struct("<HHIIHH").unpack_from

    def decode(self, p: bytes) -> tuple:
        if p[:4] != b"RIFF" or p[8:12] != b"WAVE":
            raise ValueError("not a RIFF/WAVE payload")
        pos, fmt, data = 12, None, None
        while pos + 8 <= len(p):
            cid = p[pos:pos + 4]
            (clen,) = self._u32(p, pos + 4)
            if pos + 8 + clen > len(p):
                raise ValueError(f"truncated {cid!r} chunk")
            if cid == b"fmt ":
                fmt = self._fmt(p, pos + 8)
            elif cid == b"data":
                data = p[pos + 8:pos + 8 + clen]
            pos += 8 + clen + (clen & 1)        # chunks are word-aligned
        if fmt is None or data is None:
            raise ValueError("missing fmt/data chunk")
        audio_fmt, n_ch, rate, _, block_align, bits = fmt
        if audio_fmt != 1:
            raise ValueError(f"not PCM: {audio_fmt}")
        if bits != 16 or n_ch != 1:
            # the sample parse below reads little-endian int16 mono
            raise ValueError(f"need 16-bit mono PCM, got {bits}-bit "
                             f"{n_ch}-channel")
        n_samples = len(data) // block_align
        s = np.frombuffer(data, dtype="<i2").astype(np.int64)
        return (rate, n_ch, bits, n_samples,
                n_samples * 1000 // rate,
                int((s * s).sum()), int(np.abs(s).max()) if len(s) else 0)

    def __call__(self, t: pa.Table) -> pa.Table:
        rows = [self.decode(p) for p in t["payload"].to_pylist()]
        cols = list(zip(*rows)) if rows else [[]] * 7
        names = ("sample_rate", "n_channels", "bits", "n_samples",
                 "duration_ms", "energy", "peak")
        out = {"doc_id": t["doc_id"]}
        for nm, c in zip(names, cols):
            out[nm] = pa.array(list(c), pa.int64())
        return pa.table(out)


def multimodal_wav_real(sf_dir: str):
    """Synthesize real WAV bytes per doc → actor-pool RIFF decode →
    typed metadata + exact integer signal statistics."""
    import ray.data
    return (ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                  columns=["doc_id"])
            .map_batches(_wav_payloads, batch_format="pyarrow",
                         zero_copy_batch=True)
            .map_batches(WavMetaDecode, batch_format="pyarrow",
                         batch_size=256, concurrency=(1, 4)))


WAV_REAL_SQL = """
WITH p AS (
  SELECT doc_id,
         (doc_id % 96) + 8             AS n_samples,
         8000 + (doc_id % 3) * 4000    AS sample_rate
  FROM documents),
s AS (
  SELECT p.doc_id,
         (((p.doc_id % 65536) * 31 + u.i * 17) % 65536) - 32768 AS v
  FROM p, unnest(generate_series(0, p.n_samples - 1)) AS u(i))
SELECT p.doc_id,
       p.sample_rate,
       1                            AS n_channels,
       16                           AS bits,
       p.n_samples,
       CAST(floor(p.n_samples * 1000.0 / p.sample_rate) AS BIGINT)
                                    AS duration_ms,
       sum(s.v * s.v)               AS energy,
       max(abs(s.v))                AS peak
FROM p JOIN s ON s.doc_id = p.doc_id
GROUP BY p.doc_id, p.sample_rate, p.n_samples
"""


def _png_payloads(t: pa.Table) -> pa.Table:
    """doc_id → a complete spec-valid PNG: 8-bit grayscale,
    width = (doc_id % 32) + 1, height = (doc_id % 24) + 1,
    pixel(x, y) = (doc_id % 256 + 3*x + 7*y) % 256 (pre-reduced:
    int64-safe at any doc_id, same value), scanline filter 0,
    zlib-deflated IDAT, CRC32 on every chunk."""
    import struct
    import zlib

    def chunk(tag: bytes, body: bytes) -> bytes:
        return (struct.pack(">I", len(body)) + tag + body
                + struct.pack(">I", zlib.crc32(tag + body)))

    ids = t["doc_id"].to_numpy(zero_copy_only=False)
    payloads = []
    for d in ids:
        d = int(d)
        w, h = (d % 32) + 1, (d % 24) + 1
        x = np.arange(w, dtype=np.int64)
        y = np.arange(h, dtype=np.int64)[:, None]
        px = ((d % 256 + 3 * x + 7 * y) % 256).astype(np.uint8)
        raw = b"".join(b"\x00" + px[r].tobytes() for r in range(h))
        ihdr = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
        payloads.append(b"\x89PNG\r\n\x1a\n"
                        + chunk(b"IHDR", ihdr)
                        + chunk(b"IDAT", zlib.compress(raw))
                        + chunk(b"IEND", b""))
    return pa.table({"doc_id": t["doc_id"],
                     "payload": pa.array(payloads, pa.binary())})


class PngMetaDecode:
    """Actor-pool stage decoding REAL png bytes: signature + chunk
    walk with CRC32 verification, IHDR parse, zlib inflate of the
    concatenated IDAT stream, filter-0 scanline unfilter, exact
    pixel_sum.  Raises on bad magic/CRC/filter — a decoder, not a
    heuristic."""

    def __init__(self):
        import struct
        import zlib
        self._u32 = struct.Struct(">I").unpack_from
        self._ihdr = struct.Struct(">IIBBBBB").unpack_from
        self._crc = zlib.crc32
        self._inflate = zlib.decompress

    def decode(self, p: bytes) -> tuple:
        if p[:8] != b"\x89PNG\r\n\x1a\n":
            raise ValueError("bad PNG signature")
        pos, ihdr, idat = 8, None, b""
        while pos + 12 <= len(p):
            (clen,) = self._u32(p, pos)
            if pos + 12 + clen > len(p):
                raise ValueError("truncated PNG chunk")
            tag = p[pos + 4:pos + 8]
            body = p[pos + 8:pos + 8 + clen]
            (crc,) = self._u32(p, pos + 8 + clen)
            if self._crc(tag + body) != crc:
                raise ValueError(f"CRC mismatch in {tag!r}")
            if tag == b"IHDR":
                ihdr = self._ihdr(body)
            elif tag == b"IDAT":
                idat += body
            pos += 12 + clen
        if ihdr is None:
            raise ValueError("missing IHDR")
        w, h, depth, color, _, _, _ = ihdr
        if (depth, color) != (8, 0):
            raise ValueError("only 8-bit grayscale supported")
        raw = self._inflate(idat)
        px = np.frombuffer(raw, dtype=np.uint8).reshape(h, w + 1)
        if px[:, 0].any():
            raise ValueError("only filter 0 supported")
        return (w, h, depth, int(px[:, 1:].astype(np.int64).sum()))

    def __call__(self, t: pa.Table) -> pa.Table:
        rows = [self.decode(p) for p in t["payload"].to_pylist()]
        cols = list(zip(*rows)) if rows else [[]] * 4
        out = {"doc_id": t["doc_id"]}
        for nm, c in zip(("width", "height", "bit_depth", "pixel_sum"),
                        cols):
            out[nm] = pa.array(list(c), pa.int64())
        return pa.table(out)


def multimodal_png_real(sf_dir: str):
    """Synthesize real PNG bytes per doc → actor-pool decode (CRC +
    inflate + unfilter) → dimensions + exact pixel sum."""
    import ray.data
    return (ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                  columns=["doc_id"])
            .map_batches(_png_payloads, batch_format="pyarrow",
                         zero_copy_batch=True)
            .map_batches(PngMetaDecode, batch_format="pyarrow",
                         batch_size=256, concurrency=(1, 4)))


PNG_REAL_SQL = """
WITH p AS (
  SELECT doc_id, (doc_id % 32) + 1 AS w, (doc_id % 24) + 1 AS h
  FROM documents),
px AS (
  SELECT p.doc_id,
         (p.doc_id % 256 + 3 * ux.x + 7 * uy.y) % 256 AS v
  FROM p,
       unnest(generate_series(0, p.w - 1)) AS ux(x),
       unnest(generate_series(0, p.h - 1)) AS uy(y))
SELECT p.doc_id, p.w AS width, p.h AS height, 8 AS bit_depth,
       sum(px.v) AS pixel_sum
FROM p JOIN px ON px.doc_id = p.doc_id
GROUP BY p.doc_id, p.w, p.h
"""
