"""Multimodal stages: genuine encoded binary columns through actor-pool
decoders.

Payloads are complete RIFF/WAVE and PNG files synthesized
deterministically from doc_id, and the stages really parse them with
nothing but struct/zlib: magic + chunk walk, and for PNG a CRC check,
zlib inflate and scanline unfilter.  Every stage runs the same actor
protocol a 100 TB pipeline needs — binary columns through Arrow
batches, per-actor setup in ``__init__``, small bounded batches, a
typed output schema:

- image / audio metadata: :class:`PngMetaDecode`, :class:`WavMetaDecode`;
- video: each decoded PNG scanline is one frame, every 4th is sampled
  (:class:`PngFrameSample`);
- retrieval: a 64-bin integer histogram of the decoded pixels
  (:class:`PngEmbed`) scored against a broadcast query matrix through
  the ANN family's one embedding scan (``vector._scan_topk``: per-batch
  segmented top-k, driver rank merge).

The synthesized signals are integer formulas of doc_id, so decoded
metadata, sample statistics, sampled-frame sums and retrieval ranks are
all value-exact against DuckDB oracles that evaluate the formulas
directly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from mee_ray.stages import actor_pool


def _int_columns(t: pa.Table, names: tuple, rows: list) -> pa.Table:
    """doc_id + one int64 column per name from per-payload row tuples."""
    cols = list(zip(*rows)) if rows else [()] * len(names)
    out = {"doc_id": t["doc_id"]}
    for nm, c in zip(names, cols):
        out[nm] = pa.array(list(c), pa.int64())
    return pa.table(out)


def _read_ids(sf_dir: str):
    import ray.data
    return ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id"])


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

    NAMES = ("sample_rate", "n_channels", "bits", "n_samples",
             "duration_ms", "energy", "peak")

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
        if rate == 0 or block_align != n_ch * bits // 8:
            # a header that disagrees with itself would divide by zero
            # or count frames over a different width than the samples
            raise ValueError(f"inconsistent fmt header: sample_rate "
                             f"{rate}, block_align {block_align}")
        n_samples = len(data) // block_align
        s = np.frombuffer(data, dtype="<i2").astype(np.int64)
        return (rate, n_ch, bits, n_samples,
                n_samples * 1000 // rate,
                int((s * s).sum()), int(np.abs(s).max()) if len(s) else 0)

    def __call__(self, t: pa.Table) -> pa.Table:
        return _int_columns(t, self.NAMES,
                            [self.decode(p) for p in t["payload"].to_pylist()])


def multimodal_wav_real(sf_dir: str):
    """Synthesize real WAV bytes per doc → actor-pool RIFF decode →
    typed metadata + exact integer signal statistics."""
    return (_read_ids(sf_dir)
            .map_batches(_wav_payloads, batch_format="pyarrow",
                         zero_copy_batch=True)
            .map_batches(WavMetaDecode, batch_format="pyarrow",
                         batch_size=256, **actor_pool(4)))


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
    heuristic.  :meth:`pixels` is the decode every PNG stage shares."""

    NAMES = ("width", "height", "bit_depth", "pixel_sum")

    def __init__(self):
        import struct
        import zlib
        self._u32 = struct.Struct(">I").unpack_from
        self._ihdr = struct.Struct(">IIBBBBB").unpack_from
        self._crc = zlib.crc32
        self._inflate = zlib.decompress

    def pixels(self, p: bytes) -> np.ndarray:
        """The decoded (height, width) uint8 pixel array."""
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
        return px[:, 1:]

    def decode(self, p: bytes) -> tuple:
        px = self.pixels(p)
        h, w = px.shape
        return (w, h, 8, int(px.sum(dtype=np.int64)))

    def __call__(self, t: pa.Table) -> pa.Table:
        return _int_columns(t, self.NAMES,
                            [self.decode(p) for p in t["payload"].to_pylist()])


def _png_stage(sf_dir: str, stage, batch_size: int = 256):
    """Synthesized PNG bytes per doc → actor-pool ``stage``."""
    return (_read_ids(sf_dir)
            .map_batches(_png_payloads, batch_format="pyarrow",
                         zero_copy_batch=True)
            .map_batches(stage, batch_format="pyarrow",
                         batch_size=batch_size, **actor_pool(4)))


def multimodal_png_real(sf_dir: str):
    """Synthesize real PNG bytes per doc → actor-pool decode (CRC +
    inflate + unfilter) → dimensions + exact pixel sum."""
    return _png_stage(sf_dir, PngMetaDecode)


# Every synthesized PNG's pixels, evaluated from the payload formula;
# the PNG oracles below each append their own final SELECT.
_PNG_PX_SQL = """
WITH p AS (
  SELECT doc_id, (doc_id % 32) + 1 AS w, (doc_id % 24) + 1 AS h
  FROM documents),
px AS (
  SELECT p.doc_id, uy.y,
         (p.doc_id % 256 + 3 * ux.x + 7 * uy.y) % 256 AS v
  FROM p,
       unnest(generate_series(0, p.w - 1)) AS ux(x),
       unnest(generate_series(0, p.h - 1)) AS uy(y))"""

PNG_REAL_SQL = _PNG_PX_SQL + """
SELECT p.doc_id, p.w AS width, p.h AS height, 8 AS bit_depth,
       sum(px.v) AS pixel_sum
FROM p JOIN px ON px.doc_id = p.doc_id
GROUP BY p.doc_id, p.w, p.h
"""


class PngFrameSample(PngMetaDecode):
    """Actor-pool frame sampling over REAL png bytes: each decoded
    scanline is one frame, every ``EVERY``-th frame (from frame 0) is
    sampled, and the sampled frames' pixels are summed exactly."""

    EVERY = 4
    NAMES = ("n_frames", "n_sampled", "sampled_pixel_sum")

    def decode(self, p: bytes) -> tuple:
        px = self.pixels(p)
        sampled = px[::self.EVERY]
        return (len(px), len(sampled), int(sampled.sum(dtype=np.int64)))


def multimodal_video_frames(sf_dir: str):
    """Synthesize real PNG bytes per doc → actor-pool decode, one frame
    per scanline → frame count, sampled-frame count and exact
    sampled-pixel sum."""
    return _png_stage(sf_dir, PngFrameSample, batch_size=64)


VIDEO_SQL = _PNG_PX_SQL + """
SELECT p.doc_id, p.h AS n_frames, (p.h + 3) // 4 AS n_sampled,
       sum(px.v) FILTER (WHERE px.y % 4 = 0) AS sampled_pixel_sum
FROM p JOIN px ON px.doc_id = p.doc_id
GROUP BY p.doc_id, p.h
"""


class PngEmbed(PngMetaDecode):
    """Actor-pool embedding over REAL png bytes: the ``DIM``-bin integer
    histogram of the decoded pixel values (bin = ``v >> 2``)."""

    DIM = 64

    def embed(self, p: bytes) -> np.ndarray:
        return np.bincount(self.pixels(p).ravel() >> 2, minlength=self.DIM)

    def __call__(self, t: pa.Table) -> pa.Table:
        embs = np.array([self.embed(p) for p in t["payload"].to_pylist()],
                        dtype=np.int64).reshape(-1, self.DIM)
        return pa.table({
            "doc_id": t["doc_id"],
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(embs.ravel(), pa.int64()), self.DIM)})

    @classmethod
    def matrix(cls, t: pa.Table) -> np.ndarray:
        """The (rows, DIM) int64 embedding matrix of a stage output."""
        return (t["embedding"].combine_chunks().flatten()
                .to_numpy(zero_copy_only=False).reshape(-1, cls.DIM))


def _smallest_doc_ids(path: str, n: int,
                      batch_size: int = 1 << 16) -> np.ndarray:
    """The ``n`` smallest doc_ids of a parquet file, ascending: one
    streaming pass over its ``doc_id`` column, keeping at most ``n``
    between batches, so driver memory stays O(n + batch)."""
    import pyarrow.parquet as pq

    keep = np.empty(0, dtype=np.int64)
    for b in pq.ParquetFile(path).iter_batches(batch_size=batch_size,
                                               columns=["doc_id"]):
        keep = np.concatenate(
            (keep, b.column(0).to_numpy(zero_copy_only=False)))
        if len(keep) > n:
            keep = np.partition(keep, n - 1)[:n] if n else keep[:0]
    return np.sort(keep)


def multimodal_retrieval(sf_dir: str, n_queries: int = 5, k: int = 10):
    """End-to-end multimodal retrieval: real PNG payload → actor-pool
    decode + histogram embed → top-k against a broadcast query matrix
    (the ``n_queries`` smallest doc_ids' own embeddings), scored
    ``dot(q, d) / sqrt(Σ d²)`` — cosine up to the per-query norm — and
    ranked by (score desc, doc_id).  The embeddings are integers, so
    the dot products are exact in float64 and RETRIEVAL_SQL, which
    rebuilds them from the pixel formula, yields the same bits.  Output
    is the rank table (query_id, rank, doc_id)."""
    from mee_ray.pipelines.vector import _scan_topk

    def score(t, q_ids, q_mat):
        d = PngEmbed.matrix(t)
        return (t["doc_id"].to_numpy(),
                (d @ q_mat.T) / np.sqrt((d * d).sum(axis=1))[:, None], None)

    q_ids = _smallest_doc_ids(f"{sf_dir}/documents.parquet", n_queries)
    q_mat = PngEmbed.matrix(PngEmbed()(_png_payloads(
        pa.table({"doc_id": pa.array(q_ids, pa.int64())}))))
    return _scan_topk(_png_stage(sf_dir, PngEmbed, batch_size=128), q_ids,
                      score, k, (q_mat,)).rename_columns(
        ["query_id", "rank", "doc_id"])


# Every (query, doc) pair scores: a doc sharing no histogram bin with a
# query takes score 0, exactly like the engine's dense matmul.
RETRIEVAL_SQL = _PNG_PX_SQL + """,
e AS (SELECT doc_id, v >> 2 AS bin, count(*) AS c
      FROM px GROUP BY doc_id, v >> 2),
nrm AS (SELECT doc_id, sqrt(sum(c * c)) AS nd FROM e GROUP BY doc_id),
q AS (SELECT doc_id AS qid FROM documents ORDER BY doc_id LIMIT 5),
dotp AS (
  SELECT q.qid, ed.doc_id, sum(eq.c * ed.c) AS dot
  FROM q
  JOIN e eq ON eq.doc_id = q.qid
  JOIN e ed ON ed.bin = eq.bin
  GROUP BY q.qid, ed.doc_id),
scored AS (
  SELECT q.qid, n.doc_id, coalesce(dp.dot, 0) / n.nd AS s
  FROM q CROSS JOIN nrm n
  LEFT JOIN dotp dp ON dp.qid = q.qid AND dp.doc_id = n.doc_id)
SELECT qid AS query_id, rank, doc_id
FROM (SELECT qid, doc_id,
             row_number() OVER (
               PARTITION BY qid
               ORDER BY s DESC, doc_id) AS rank
      FROM scored)
WHERE rank <= 10
"""


QUERIES = {
    "multimodal_image_meta": multimodal_png_real,
    "multimodal_audio_features": multimodal_wav_real,
    "multimodal_video_frames": multimodal_video_frames,
    "multimodal_retrieval": multimodal_retrieval,
    "multimodal_wav_real": multimodal_wav_real,
    "multimodal_png_real": multimodal_png_real,
}

ORACLE = {
    "multimodal_image_meta": PNG_REAL_SQL,
    "multimodal_audio_features": WAV_REAL_SQL,
    "multimodal_video_frames": VIDEO_SQL,
    "multimodal_retrieval": RETRIEVAL_SQL,
    "multimodal_wav_real": WAV_REAL_SQL,
    "multimodal_png_real": PNG_REAL_SQL,
}
