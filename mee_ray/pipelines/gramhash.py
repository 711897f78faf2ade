"""Vectorized token n-gram hashing — the shared kernel behind the
dedup-family edge generators.

Why this exists: the gram-CC edge generator
(:func:`mee_ray.pipelines.cluster.gram_dup_edges_ds`) and the
substring-span dedup (:func:`mee_ray.pipelines.text
.substring_dedup_spans_documents`) both need, per batch, "every
n-consecutive-token window of every document, as an equality key".
Their first implementations looped Python rows and hashed gram
STRINGS (md5 per gram / the raw joined string as the shuffle key) —
the hottest stage of the dedup path and an ~8× text amplification
across the one exchange.  This module replaces both with three
vectorized steps, all C-speed:

1. tokenize: ``pc.utf8_lower`` + ``pc.split_pattern[_regex]`` +
   ``pc.list_flatten`` — one Arrow kernel chain per batch, no Python
   per row (``tokenize_flat``);
2. per-token 64-bit hash: ``pc.dictionary_encode`` factorizes the
   flat token array in C, ``pandas.util.hash_array`` (SipHash with
   the library's fixed key — deterministic across processes and
   hosts) hashes each UNIQUE token once, and a gather maps hashes
   back to positions (``token_hash64``) — the unique-token memo
   pattern of the SimHash kernel, without the Python memo dict;
3. rolling gram combine: an FNV-style fold ``acc = acc*P ^ h[i+j]``
   over ``n`` strided gathers in uint64 (silent wraparound), masked
   to a 63-bit non-negative int64 (``gram_hash64``) — windows never
   cross document boundaries.

Equality contract: two windows get the same hash iff their token
sequences are equal, up to 64-bit collisions (~n_grams²/2⁶⁴ — at
10⁹ distinct grams per bucket that is ~5e-2 per CORPUS, and a
collision only ever merges two clusters / marks one extra span
start, never splits).  Tokens cannot contain the join separator, so
token-sequence equality is exactly joined-string equality — the
hashed key induces the same equivalence classes as the string/md5
key, which the bit-identity tests (test_gramhash.py) assert
end-to-end against the legacy string modes.

Provenance: replaces nothing in the reference (ioduduk/mee dedups by
_id upsert only — modules/handlers/v1/commonhandler.py:68-83); the
rolling-hash idea is the standard Rabin-Karp window fold, also used
(in a DuckDB-matchable fixed-point form) by the DSIR feature hasher
(``text._DsirGramBase``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# FNV-1 64-bit prime for the window fold.
_FNV = np.uint64(1099511628211)
_SIGN_MASK = np.uint64(0x7FFFFFFFFFFFFFFF)


def i32_offsets(cum: np.ndarray) -> np.ndarray:
    """Guarded int32 cast for ListArray offset buffers (ADVICE r4 #4):
    past 2^31 flat elements/bytes in ONE batch the bare
    ``astype(np.int32)`` wraps silently and builds corrupt arrays —
    unreachable at default batch sizes, so a loud error is the right
    cost.  (The fix at that scale is smaller batches or
    pa.large_list, not a bigger cast.)"""
    if len(cum) and int(cum[-1]) > 0x7FFFFFFF:
        raise OverflowError(
            f"batch flattens to {int(cum[-1])} elements — exceeds the "
            f"int32 ListArray offset range; reduce batch_size (or "
            f"switch this site to pa.large_list)")
    return cum.astype(np.int32)


def unique_rows(*keys: np.ndarray) -> tuple[np.ndarray, ...]:
    """The distinct rows of equal-length int key columns ``(a, b[,
    c])``, sorted with ``a`` most significant — the one sort-and-dedupe
    of the dedup family (per-doc distinct terms and grams, distinct
    edges and pair halves)."""
    if len(keys[0]) == 0:
        return keys
    order = np.lexsort(keys[::-1])
    keys = tuple(k[order] for k in keys)
    keep = np.ones(len(order), dtype=bool)
    keep[1:] = np.any([k[1:] != k[:-1] for k in keys], axis=0)
    return tuple(k[keep] for k in keys)


def mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — THE mix of the repo: every
    ``stages.by_bucket`` shuffle, the HyperLogLog hash, sampling."""
    z = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def tokenize_flat(col, mode: str = "regex"):
    """Tokenize a batch's text column in one Arrow kernel chain.

    ``col``: pa.Array/ChunkedArray of strings (nulls treated as "").
    ``mode``:
      * ``"regex"`` — lowercase + runs of ``[a-z0-9_]`` (bit-equal to
        ``re.findall(TOKEN_PATTERN, text.lower())``, empties dropped);
      * ``"space"`` — split on single spaces, EMPTY TOKENS KEPT
        (bit-equal to Python ``text.split(" ")``, so ``""`` yields
        one empty token — callers with a min-length gate are
        unaffected, and parity with the legacy loop is exact).

    Returns ``(flat, didx, lens)``: flat pa.StringArray of all tokens
    document-major, int64 doc index per token, int64 token count per
    document.
    """
    col = pc.fill_null(col, "")
    if mode == "space":
        lists = pc.split_pattern(col, " ")
    elif mode == "regex":
        # Python str.lower maps U+0130 'İ' to TWO codepoints (i +
        # combining dot) — the one multi-codepoint lower mapping —
        # while utf8_lower emits a single 'i'.  Align before lowering
        # so token boundaries match re.findall(..., text.lower())
        # exactly (same fix as Tokenizer.terms_batch; review finding
        # r4#1 — without it every scalar-vs-batch bit-identity
        # contract broke on text containing 'İ').
        col = pc.replace_substring(col, "İ", "i̇")
        lists = pc.split_pattern_regex(pc.utf8_lower(col),
                                       "[^a-z0-9_]+")
    else:  # pragma: no cover - programming error
        raise ValueError(f"unknown tokenize mode {mode!r}")
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    flat = pc.list_flatten(lists)
    didx = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    if mode == "regex":
        # split() emits empty strings at delimiter runs touching the
        # ends (and [''] for all-delimiter rows); findall does not.
        keep = pc.not_equal(flat, pa.scalar("")).to_numpy(
            zero_copy_only=False).astype(bool)
        if not keep.all():
            flat = flat.filter(pa.array(keep))
            didx = didx[keep]
            lens = np.bincount(didx, minlength=len(lens)) \
                .astype(np.int64)
    return flat, didx, lens


def token_hash64(flat) -> np.ndarray:
    """Deterministic uint64 hash per token, one SipHash evaluation per
    UNIQUE token (C loops only)."""
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    if len(flat) == 0:
        return np.zeros(0, dtype=np.uint64)
    d = pc.dictionary_encode(flat)
    idx = d.indices.to_numpy(zero_copy_only=False)
    import pandas as pd
    uh = pd.util.hash_array(
        d.dictionary.to_numpy(zero_copy_only=False))
    return uh[idx]


def gram_hash64(th: np.ndarray, lens: np.ndarray, n: int,
                stride: int = 1):
    """Hash every n-token window that fits inside one document.

    ``th``: uint64 token hashes, document-major; ``lens``: tokens per
    document; ``n``: window length; ``stride``: window start step
    (1 = every overlapping window; n = non-overlapping tiling, the
    passage-dedup shape — either way trailing partial windows are
    dropped).  Returns ``(didx, pos, ghash)`` per window: int64 doc
    index, int64 0-based start offset WITHIN its document, and the
    non-negative int64 window hash.
    """
    lens = np.asarray(lens, dtype=np.int64)
    nwin = np.where(lens >= n, (lens - n) // stride + 1, 0)
    total = int(nwin.sum())
    if total == 0:
        z = np.zeros(0, dtype=np.int64)
        return z, z, z
    doc_start = np.cumsum(lens) - lens
    pos = (np.arange(total, dtype=np.int64)
           - np.repeat(np.cumsum(nwin) - nwin, nwin)) * stride
    starts = np.repeat(doc_start, nwin) + pos
    acc = th[starts].copy()
    for j in range(1, n):
        acc = acc * _FNV ^ th[starts + j]
    didx = np.repeat(np.arange(len(lens), dtype=np.int64), nwin)
    return didx, pos, (acc & _SIGN_MASK).astype(np.int64)
