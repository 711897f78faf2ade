"""Deterministic identity: doc_ids, content hashes, stable term hashes.

doc_id must be parallelism-invariant without a global sort at 10^12
scale (SURVEY.md §7.2 step 1): it is derived from the first 8 bytes of
``sha256(repo \\x00 path \\x00 commit)`` masked to 63 bits, with a
collision audit at build time (build fails loudly on a collision —
probability ~1e-8 even at 10^12 docs is not ignorable, hence the
audit).  BM25 ties are broken by doc_id, so ranks stay deterministic.

Because doc_ids are uniform hashes, ``salt = doc_id >> (63 - log2(f))``
partitions a hot term's posting list into f *contiguous doc_id ranges*
— sub-lists written independently concatenate back into globally
sorted order with zero merge cost (SURVEY.md §7.2 step 5).
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pyarrow as pa

_MASK63 = (1 << 63) - 1


def doc_id_of(repo: str, path: str, commit: str) -> int:
    h = hashlib.sha256(f"{repo}\x00{path}\x00{commit}".encode()).digest()
    return int.from_bytes(h[:8], "big") & _MASK63


def content_sha256(content: str) -> bytes:
    return hashlib.sha256(content.encode()).digest()


def doc_ids_batch(repos: pa.Array, paths: pa.Array, commits: pa.Array) -> np.ndarray:
    """Vector helper for map_batches: one sha256 per row (hashlib is
    C-speed; the loop is unavoidable but cheap next to tokenize)."""
    out = np.empty(len(repos), dtype=np.int64)
    rp, pp, cp = repos.to_pylist(), paths.to_pylist(), commits.to_pylist()
    for i in range(len(out)):
        out[i] = doc_id_of(rp[i], pp[i], cp[i])
    return out


def term_hash(term: str) -> int:
    """Stable 32-bit term hash (process-invariant, unlike ``hash()``
    which is salted per interpreter)."""
    return zlib.crc32(term.encode())


def _crc32_table() -> np.ndarray:
    c = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        c = np.where(c & 1, (c >> 1) ^ np.uint32(0xEDB88320), c >> 1)
    return c


_CRC32_TABLE = _crc32_table()
# longer strings are hashed one by one, so one very long token costs
# one zlib call, not one numpy step per byte for a single string
_VECTOR_CRC_MAX_BYTES = 64


def term_hashes(terms) -> np.ndarray:
    """:func:`term_hash` of every string of the Arrow string array
    ``terms``, as int64: the CRC-32 table walk one byte position at a
    time over all strings at once, read off the utf-8 data buffer (no
    Python strings).  Bit-equal to ``term_hash`` per string
    (tests/test_one_tokenize.py)."""
    if isinstance(terms, pa.ChunkedArray):
        terms = terms.combine_chunks()
    n = len(terms)
    width = np.int64 if pa.types.is_large_string(terms.type) else np.int32
    offs = np.frombuffer(terms.buffers()[1], width)[
        terms.offset:terms.offset + n + 1].astype(np.int64)
    buf = terms.buffers()[2]
    data = (np.frombuffer(buf, np.uint8) if buf is not None
            else np.empty(0, np.uint8))
    lens = np.diff(offs)
    # longest first, so the strings still running at byte j are a prefix
    short = np.flatnonzero(lens <= _VECTOR_CRC_MAX_BYTES)
    order = short[np.argsort(-lens[short], kind="stable")]
    neg_len = -lens[order]
    start = offs[order]
    crc = np.full(len(order), 0xFFFFFFFF, dtype=np.uint32)
    for j in range(int(-neg_len[0]) if len(order) else 0):
        k = np.searchsorted(neg_len, -j)
        c = crc[:k]
        crc[:k] = _CRC32_TABLE[(c ^ data[start[:k] + j]) & 0xFF] ^ (c >> 8)
    out = np.empty(n, dtype=np.int64)
    out[order] = crc ^ np.uint32(0xFFFFFFFF)
    for i in np.flatnonzero(lens > _VECTOR_CRC_MAX_BYTES):
        out[i] = zlib.crc32(data[offs[i]:offs[i + 1]])
    return out


def salt_of(doc_id: int, salt_factor: int) -> int:
    """Contiguous-range salt: top log2(salt_factor) bits of the 63-bit id."""
    shift = 63 - (salt_factor.bit_length() - 1)
    return doc_id >> shift


def salts_batch(doc_ids: np.ndarray, salt_factor: int) -> np.ndarray:
    shift = 63 - (salt_factor.bit_length() - 1)
    return (doc_ids.astype(np.uint64) >> np.uint64(shift)).astype(np.int32)


def positions_in_sorted(ids: np.ndarray, sorted_ids: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """(clamped insertion positions, membership mask) of ``ids``
    against the SORTED unique array ``sorted_ids`` — the
    searchsorted + clamp + compare idiom, centralized because every
    hand-rolled copy re-derived the empty-array clamp its own way
    (an off-by-one there silently corrupts a filter mask).  The
    positions double as dense ranks for the members (phrase/span
    matchers pack them beside positions)."""
    if sorted_ids.size == 0 or ids.size == 0:
        return (np.zeros(len(ids), dtype=np.int64),
                np.zeros(len(ids), dtype=bool))
    pos = np.minimum(np.searchsorted(sorted_ids, ids),
                     sorted_ids.size - 1)
    return pos, sorted_ids[pos] == ids


def isin_sorted(ids: np.ndarray, sorted_ids: np.ndarray) -> np.ndarray:
    """Boolean membership of ``ids`` in sorted ``sorted_ids``."""
    return positions_in_sorted(ids, sorted_ids)[1]
