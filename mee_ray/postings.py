"""Posting-list encoding: delta + LEB128 varint, block max-impact metadata.

The reference leaves the inverted index to Elasticsearch; here we own it
(BASELINE.json north_rule).  A posting list for one (term, salt) cell is

    doc_ids : strictly increasing int64  → delta-encoded → varint bytes
    tfs     : int32 ≥ 1                  → varint bytes
    blocks  : per ``block_size`` docs, the last doc_id (skip pointer)
              and the max tf-normalization component of BM25
              (idf-independent, so deltas/merges never invalidate it;
              idf is applied at query time) — this is the block-max
              metadata used for WAND pruning.

All encode/decode paths are numpy-vectorized (no per-value Python loop:
the loops below run over *byte positions*, ≤10 iterations).
"""

from __future__ import annotations

import numpy as np

# On-disk posting format version.  v1: raw LEB128 buffers; v2: 1-byte
# codec tag per buffer (varint | pfor); v3: salts only in
# [0, salt_factor), so a term's chunks always cover disjoint doc ranges
# (a v2 index may carry overlapping [salt_factor, 2·salt_factor) salts
# that the query path no longer merges); v4: every applied delta write
# is recorded in its record's key_seqs file and docs files carry no
# per-row write-seq column (a v3 index keeps added rows' write seqs
# only in that column, so reading it as v4 would lose their LWW
# memory); v5: segment rows carry their ``part`` (in place of the
# unread ``shard``) and each delta record writes ONE segment file,
# rows sorted by part, that readers split by that column (a v4
# record's per-part files would be read as every shard's rows).
# Manifests record it and the load paths refuse a mismatched index
# instead of misreading it.
FORMAT_VERSION = 5

_MAX_VARINT_BYTES = 10  # 64-bit value → ≤10 LEB128 bytes


def varint_encode_offsets(values: np.ndarray) -> tuple[bytes, np.ndarray]:
    """LEB128-encode a uint64 array, returning (bytes, byte offsets) —
    ``offsets`` has n+1 entries so ``bytes[offsets[i]:offsets[j]]`` is
    the exact encoding of ``values[i:j]`` (LEB128 is self-delimiting,
    so slices at value boundaries are themselves valid streams — the
    bulk run-encoding path relies on this)."""
    arr = np.ascontiguousarray(values, dtype=np.uint64)
    n = len(arr)
    if n == 0:
        return b"", np.zeros(1, dtype=np.int64)
    # bytes needed per value: ceil(bit_length / 7), min 1
    nb = np.ones(n, dtype=np.int64)
    v = arr >> np.uint64(7)
    while v.any():
        nb += (v > 0)
        v >>= np.uint64(7)
    offs = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(nb, out=offs[1:])
    total = int(offs[-1])
    out = np.zeros(total, dtype=np.uint8)
    max_nb = int(nb.max())
    for j in range(max_nb):
        sel = nb > j
        idx = offs[:-1][sel] + j
        byte = ((arr[sel] >> np.uint64(7 * j)) & np.uint64(0x7F)).astype(np.uint8)
        cont = (nb[sel] - 1 > j).astype(np.uint8) << 7
        out[idx] = byte | cont
    return out.tobytes(), offs


def varint_encode(values: np.ndarray) -> bytes:
    """LEB128-encode a uint64 array. Vectorized over byte positions."""
    return varint_encode_offsets(values)[0]


def varint_decode(buf: bytes) -> np.ndarray:
    """Decode LEB128 bytes → uint64 array. Vectorized over byte positions."""
    return _leb128(np.frombuffer(buf, dtype=np.uint8))


def _leb128(data: np.ndarray) -> np.ndarray:
    """The one LEB128 decode loop, over a uint8 array (≤10 passes, one
    per byte position of the longest value)."""
    if len(data) == 0:
        return np.empty(0, dtype=np.uint64)
    ends = np.flatnonzero((data & 0x80) == 0)
    if len(ends) == 0:
        return np.empty(0, dtype=np.uint64)
    starts = np.empty(len(ends), dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lens = ends - starts + 1
    vals = np.zeros(len(ends), dtype=np.uint64)
    for j in range(int(lens.max())):
        sel = lens > j
        vals[sel] |= (data[starts[sel] + j] & np.uint64(0x7F)).astype(np.uint64) << np.uint64(7 * j)
    return vals


def varint_value_offsets(buf: bytes) -> np.ndarray:
    """Byte offsets of value boundaries inside a LEB128 stream:
    returns n+1 offsets so ``buf[offs[i]:offs[j]]`` is the exact
    encoding of values i..j-1.  A value's LAST byte is the one with
    the continuation bit clear, so boundaries are one past each such
    byte — O(bytes), fully vectorized.  Used to slice concatenated
    per-doc position blobs without decoding them."""
    data = np.frombuffer(buf, dtype=np.uint8)
    if len(data) == 0:
        return np.zeros(1, dtype=np.int64)
    ends = np.flatnonzero((data & 0x80) == 0) + 1
    return np.concatenate(([0], ends)).astype(np.int64)


def encode_positions(positions: np.ndarray) -> bytes:
    """One document's term positions (sorted ascending) → delta +
    LEB128 bytes (first value absolute).  Self-contained per doc, so
    per-doc blobs concatenate freely along a posting list."""
    p = np.asarray(positions, dtype=np.uint64)
    if len(p) == 0:
        return b""
    d = np.empty(len(p), dtype=np.uint64)
    d[0] = p[0]
    d[1:] = np.diff(p.astype(np.int64)).astype(np.uint64)
    return varint_encode(d)


def decode_positions_concat(buf: bytes, tfs: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated per-doc position blobs + per-doc counts →
    (flat absolute positions, doc start offsets).  The segmented
    delta decode mirrors _decode_rows: global cumsum minus each doc
    run's prefix."""
    tfs = np.asarray(tfs, dtype=np.int64)
    deltas = varint_decode(buf).astype(np.int64)
    total = int(tfs.sum())
    if len(deltas) != total:
        # loud in all modes (a bare assert disappears under python -O,
        # silently misaligning every later doc's position run)
        raise ValueError(
            f"positions buffer/tf mismatch: {len(deltas)} varints vs "
            f"sum(tf)={total}")
    offs = np.concatenate(([0], np.cumsum(tfs)))
    if total == 0:
        return np.empty(0, dtype=np.int64), offs
    C = np.cumsum(deltas)
    prefix = np.zeros(total, dtype=np.int64)
    starts = offs[:-1][tfs > 0]
    # value before each run start (0 for the first run)
    prev = np.where(starts > 0, C[starts - 1], 0)
    prefix[starts] = np.diff(np.concatenate(([0], prev)))
    np.cumsum(prefix, out=prefix)
    return C - prefix, offs


def decode_positions_subset(buf: bytes, tfs: np.ndarray,
                            rows: np.ndarray, val_offs: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Decode only ``rows`` (sorted doc indices) out of a concatenated
    per-doc position blob: per-doc runs are self-contained (first value
    absolute — encode_positions), so the kept runs' byte slices
    concatenate into a valid smaller blob.  ``val_offs`` are the
    varint_value_offsets of ``buf`` (computed once per chunk, cached by
    the caller); cost is O(kept positions), not O(chunk positions) —
    the phrase-path fix for first-touch decode of hot terms' position
    lists."""
    tfs = np.asarray(tfs, dtype=np.int64)
    cum = np.concatenate(([0], np.cumsum(tfs)))
    b0 = val_offs[cum[rows]]
    b1 = val_offs[cum[rows + 1]]
    sub = b"".join(buf[i:j] for i, j in zip(b0.tolist(), b1.tolist()))
    return decode_positions_concat(sub, tfs[rows])


def delta_encode(doc_ids: np.ndarray) -> np.ndarray:
    """Strictly-increasing int64 ids → first id + gaps (uint64)."""
    ids = np.ascontiguousarray(doc_ids, dtype=np.int64)
    if len(ids) == 0:
        return np.empty(0, dtype=np.uint64)
    out = np.empty(len(ids), dtype=np.uint64)
    out[0] = np.uint64(ids[0])
    if len(ids) > 1:
        out[1:] = np.diff(ids).astype(np.uint64)
    return out


def delta_decode(deltas: np.ndarray) -> np.ndarray:
    if len(deltas) == 0:
        return np.empty(0, dtype=np.int64)
    return np.cumsum(deltas.astype(np.uint64), dtype=np.uint64).astype(np.int64)


# --- PForDelta (NewPFD-flavored) -------------------------------------------
#
# Per 128-value block: pick b = bit width of the 90th-percentile value,
# bit-pack the low b bits of EVERY value (value-major, LSB-first,
# np.packbits little order), and patch the few wider values as
# exceptions (position byte + varint-encoded high part).  Beats LEB128
# on small skewed gaps (tf columns: ~2 bits/value vs 8) while staying
# fully numpy-vectorized.
#
# Block layout: [b:1][n_exc:1][n-1:1][packed: ceil(n*b/8)]
#               [exc positions: n_exc][exc_len:2 LE][exc varint bytes]

_PFOR_BLOCK = 128


def _bit_widths(v: np.ndarray) -> np.ndarray:
    w = np.zeros(len(v), dtype=np.int64)
    x = v.copy()
    while x.any():
        w += (x > 0)
        x >>= np.uint64(1)
    return w


def pfor_encode(values: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(values, dtype=np.uint64)
    out = bytearray()
    for lo in range(0, len(arr), _PFOR_BLOCK):
        blk = arr[lo:lo + _PFOR_BLOCK]
        n = len(blk)
        widths = _bit_widths(blk)
        b = int(np.sort(widths)[int(0.9 * (n - 1))])
        exc = np.flatnonzero(widths > b)
        if b >= 64:
            b, low = 64, blk
        elif b == 0:
            low = np.zeros(n, dtype=np.uint64)
        else:
            low = blk & np.uint64((1 << b) - 1)
        out += bytes((b, len(exc), n - 1))
        if b:
            bits = ((low[:, None] >> np.arange(b, dtype=np.uint64)[None, :])
                    & np.uint64(1)).astype(np.uint8)
            out += np.packbits(bits.reshape(-1), bitorder="little").tobytes()
        out += bytes(int(i) for i in exc)
        if len(exc):
            high = varint_encode(blk[exc] >> np.uint64(b))
            out += len(high).to_bytes(2, "little") + high
    return bytes(out)


def pfor_decode(buf: bytes) -> np.ndarray:
    data = np.frombuffer(buf, dtype=np.uint8)
    pos, chunks = 0, []
    while pos < len(data):
        b, ne, n = int(data[pos]), int(data[pos + 1]), int(data[pos + 2]) + 1
        pos += 3
        if b:
            nbytes = (n * b + 7) // 8
            bits = np.unpackbits(data[pos:pos + nbytes],
                                 bitorder="little")[:n * b]
            vals = (bits.reshape(n, b).astype(np.uint64)
                    << np.arange(b, dtype=np.uint64)[None, :]).sum(
                        axis=1, dtype=np.uint64)
            pos += nbytes
        else:
            vals = np.zeros(n, dtype=np.uint64)
        if ne:
            exc = data[pos:pos + ne].astype(np.int64)
            pos += ne
            elen = int(data[pos]) | (int(data[pos + 1]) << 8)
            pos += 2
            high = varint_decode(data[pos:pos + elen].tobytes())
            pos += elen
            vals[exc] |= high << np.uint64(b)
        chunks.append(vals)
    if not chunks:
        return np.empty(0, dtype=np.uint64)
    return np.concatenate(chunks)


# --- posting-list framing ---------------------------------------------------
#
# Every encoded buffer is self-describing via a 1-byte tag, so an index
# can mix codecs (e.g. varint base segments + pfor delta segments)
# and decode never needs configuration.

_TAG_VARINT, _TAG_PFOR = 0, 1
_CODEC_TAGS = {"varint": _TAG_VARINT, "pfor": _TAG_PFOR}

# pfor's per-block header + exception framing loses to plain LEB128 on
# short lists; below this length "pfor" buffers are varint-tagged (the
# tag byte makes every buffer self-describing, so this is free)
PFOR_MIN_VALUES = 64


def _encode_tagged(values: np.ndarray, codec: str) -> bytes:
    if codec == "pfor" and len(values) < PFOR_MIN_VALUES:
        codec = "varint"
    tag = _CODEC_TAGS[codec]
    body = pfor_encode(values) if tag == _TAG_PFOR else varint_encode(values)
    return bytes((tag,)) + body


def _decode_tagged(buf: bytes) -> np.ndarray:
    if not buf:
        return np.empty(0, dtype=np.uint64)
    tag, body = buf[0], buf[1:]
    return pfor_decode(body) if tag == _TAG_PFOR else varint_decode(body)


def encode_posting_list(doc_ids: np.ndarray, tfs: np.ndarray,
                        codec: str = "varint") -> tuple[bytes, bytes]:
    """(sorted doc_ids, tfs) → (doc_ids_enc, tfs_enc)."""
    return (_encode_tagged(delta_encode(doc_ids), codec),
            _encode_tagged(np.ascontiguousarray(tfs, dtype=np.uint64), codec))


def decode_posting_list(doc_ids_enc: bytes, tfs_enc: bytes) -> tuple[np.ndarray, np.ndarray]:
    doc_ids = delta_decode(_decode_tagged(doc_ids_enc))
    tfs = _decode_tagged(tfs_enc).astype(np.int64)
    return doc_ids, tfs


def _binary_buffers(col) -> tuple[np.ndarray, np.ndarray]:
    """(int64 value offsets, uint8 data) of an Arrow binary or
    large_binary column, zero-copy when it is one chunk (several are
    joined as large_binary, whose offsets cannot overflow)."""
    import pyarrow as pa

    if isinstance(col, pa.ChunkedArray):
        col = col.chunk(0) if col.num_chunks == 1 else \
            col.cast(pa.large_binary()).combine_chunks()
    _, ob, db = col.buffers()
    odt = np.int64 if pa.types.is_large_binary(col.type) else np.int32
    offs = np.frombuffer(ob, dtype=odt)[col.offset:col.offset + len(col) + 1]
    data = (np.frombuffer(db, dtype=np.uint8) if db is not None
            else np.empty(0, dtype=np.uint8))
    return offs.astype(np.int64), data


def binary_runs(offs: np.ndarray, data) -> "pa.Array":
    """The inverse of :func:`_binary_buffers`: a binary column whose
    row i is ``data[offs[i]:offs[i + 1]]`` (int64 offsets into a uint8
    array or buffer), built zero-copy."""
    import pyarrow as pa

    if offs[-1] >= 1 << 31:
        raise ValueError(f"binary column of {int(offs[-1])} bytes exceeds "
                         "one array; raise parts_per_shard")
    return pa.Array.from_buffers(
        pa.binary(), len(offs) - 1,
        [None, pa.py_buffer(offs.astype(np.int32)), pa.py_buffer(data)])


def row_value_counts(dls_col, lo: int = 0, hi: int | None = None
                     ) -> np.ndarray:
    """Postings per row of rows [lo, hi) of a segment's ``dls_enc``
    column, counted from its varint end bytes without decoding (every
    row stores one untagged LEB128 dl per posting)."""
    offs, data = _binary_buffers(dls_col)
    hi = len(offs) - 1 if hi is None else hi
    o = offs[lo:hi + 1]
    ends = np.flatnonzero((data[o[0]:o[-1]] & 0x80) == 0)
    return np.diff(np.searchsorted(ends, o - o[0]))


def _tagged_rows(col, lo: int, hi: int, counts: np.ndarray) -> np.ndarray:
    """Values of rows [lo, hi) of a tagged column, concatenated: one
    LEB128 pass over every varint-tagged row body and one pfor_decode
    over the pfor-tagged bodies.  Rows tile the data buffer, so every
    byte is a row's tag byte or body; both codecs are self-delimiting,
    so a concatenation of bodies decodes to the concatenation of the
    per-row decodes, and ``counts`` puts them back in row order."""
    offs, data = _binary_buffers(col)
    o = offs[lo:hi + 1]
    buf = data[o[0]:o[-1]]
    b0, n_bytes = o[:-1] - o[0], np.diff(o)
    full = n_bytes > 0
    pfor = np.zeros(len(b0), dtype=bool)
    pfor[full] = buf[b0[full]] == _TAG_PFOR
    body = np.ones(len(buf), dtype=bool)
    body[b0[full]] = False
    byte_p = np.repeat(pfor, n_bytes)
    vals = _leb128(buf[body & ~byte_p])
    n_varint = int(counts[~pfor].sum())
    if not pfor.any():
        if len(vals) == n_varint:
            return vals
    else:
        p_vals = pfor_decode(buf[body & byte_p].tobytes())
        row_p = np.repeat(pfor, counts)
        if len(vals) == n_varint and len(p_vals) == len(row_p) - n_varint:
            out = np.empty(len(row_p), dtype=np.uint64)
            out[row_p] = p_vals
            out[~row_p] = vals
            return out
    # loud in all modes: a short stream would shift every later row's
    # postings onto the wrong term
    raise ValueError(f"posting buffers of rows [{lo}, {hi}) do not hold "
                     f"{int(counts.sum())} values (dls count)")


def decode_rows(t, lo: int = 0, hi: int | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rows [lo, hi) of a segment table (``doc_ids_enc``, ``tfs_enc``,
    ``dls_enc``) → flat int64 (doc_ids, tfs, dls) plus n+1 row offsets,
    so row i is ``[offs[i]:offs[i + 1]]`` of each array — bit-identical
    to :func:`decode_posting_list` / :func:`varint_decode` per row.

    One vectorized pass per column over the Arrow buffers (int32 or
    int64 offsets); per-row doc_id delta decoding is one global cumsum
    minus each row's prefix, exact in uint64 wraparound arithmetic.  A
    single row goes through the per-row decoders themselves."""
    hi = t.num_rows if hi is None else hi
    if hi - lo == 1:
        # one row: the per-row decoders cost less than the set-up of
        # the vectorized pass
        ids, tfs = decode_posting_list(t["doc_ids_enc"][lo].as_py(),
                                       t["tfs_enc"][lo].as_py())
        dls = varint_decode(t["dls_enc"][lo].as_py()).astype(np.int64)
        if not len(ids) == len(tfs) == len(dls):
            raise ValueError(f"posting buffers of row {lo} do not hold "
                             f"{len(dls)} values (dls count)")
        return ids, tfs, dls, np.array([0, len(ids)], dtype=np.int64)
    counts = row_value_counts(t["dls_enc"], lo, hi)
    offs = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offs[1:])
    d_offs, d_data = _binary_buffers(t["dls_enc"])
    dls = _leb128(d_data[d_offs[lo]:d_offs[hi]]).astype(np.int64)
    tfs = _tagged_rows(t["tfs_enc"], lo, hi, counts).astype(np.int64)
    C = np.zeros(len(dls) + 1, dtype=np.uint64)
    np.cumsum(_tagged_rows(t["doc_ids_enc"], lo, hi, counts), out=C[1:])
    ids = (C[1:] - np.repeat(C[offs[:-1]], counts)).astype(np.int64)
    return ids, tfs, dls, offs


def tf_norm(tfs: np.ndarray, dls: np.ndarray, avgdl: float,
            k1: float, b: float) -> np.ndarray:
    """BM25 term-frequency normalization component (float64):
    ``tf*(k1+1) / (tf + k1*(1 - b + b*dl/avgdl))``.  idf is applied
    separately so this is stable under df changes."""
    # NB: operation order mirrors scoring.tfn_scalar exactly
    # (b * dl / avgdl, not b * (dl / avgdl)) so float64 results are
    # bit-identical to the oracle's scalar path.
    tfs = tfs.astype(np.float64)
    dls = dls.astype(np.float64)
    return tfs * (k1 + 1.0) / (tfs + k1 * (1.0 - b + b * dls / float(avgdl)))


def block_metadata(doc_ids: np.ndarray, tfnorms: np.ndarray,
                   block_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-block (last_doc_id, max_tfnorm) for block-max WAND skipping."""
    n = len(doc_ids)
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    n_blocks = (n + block_size - 1) // block_size
    ends = np.minimum(np.arange(1, n_blocks + 1) * block_size, n)
    last = np.asarray(doc_ids, dtype=np.int64)[ends - 1]
    mx = np.maximum.reduceat(np.asarray(tfnorms, dtype=np.float64),
                             np.arange(n_blocks) * block_size)
    return last, mx
