"""Engine configuration.

The reference drives everything from YAML handler configs + an INI app
config (reference modules/handlers/handlerconfig.py:33-118,
application/config.py:14-56).  The new engine needs far less runtime
configurability — the analog is a small frozen dataclass tree covering
the tokenizer, sharding/salting, BM25 parameters and scale knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TokenizerConfig:
    """Code-aware tokenizer settings.

    ``split_identifiers`` turns ``parseHTTPResponse`` /
    ``snake_case_name`` into sub-tokens (and keeps the full lowered
    token when ``emit_full_token``).  ``subtoken_ngram=n`` additionally
    emits n-grams over an identifier's sub-tokens joined by a space
    (space cannot occur inside a token, so the n-gram vocabulary is
    collision-free with single tokens).

    ``simple`` mode (``split_identifiers=False, emit_full_token=True,
    subtoken_ngram=0``) matches the SQL-expressible tokenizer
    ``regexp_extract_all(lower(text), '[a-z0-9_]+')`` used by the
    DuckDB oracles.
    """

    split_identifiers: bool = True
    emit_full_token: bool = True
    subtoken_ngram: int = 0
    lowercase: bool = True
    max_token_len: int = 64

    @staticmethod
    def simple() -> "TokenizerConfig":
        # max_token_len effectively off: simple mode's contract is
        # EXACT reproducibility by regexp_extract_all(lower(text),
        # '[a-z0-9_]+') in SQL, and a length filter the SQL oracles
        # don't apply would shift dl/df/tf — and even phrase
        # adjacency — on any 65+-char token run
        return TokenizerConfig(split_identifiers=False, emit_full_token=True,
                               subtoken_ngram=0, max_token_len=1 << 30)


@dataclass(frozen=True)
class BM25Params:
    """One formula, shared by the distributed engine and the oracle so
    rank-identity tests exercise the distributed machinery, not formula
    agreement (SURVEY.md §7.2 step 4)."""

    k1: float = 1.2
    b: float = 0.75


# Static hot-term stop-list for salting (SURVEY.md §7.2 step 5): the
# Zipf head of source-code token distributions.  Terms here get their
# posting lists split into ``salt_factor`` doc_id-range sub-lists at
# build time; because salt = top bits of doc_id, sub-lists concatenate
# back into globally doc_id-sorted order with zero merge cost.
DEFAULT_HOT_TERMS = frozenset({
    "def", "import", "return", "self", "class", "if", "else", "elif",
    "for", "while", "in", "not", "and", "or", "none", "true", "false",
    "public", "private", "static", "void", "int", "string", "new",
    "func", "var", "const", "let", "function", "package", "type",
    "struct", "interface", "nil", "err", "error", "range", "print",
    "the", "a", "to", "of", "is", "this", "that",
})


@dataclass(frozen=True)
class EngineConfig:
    tokenizer: TokenizerConfig = field(default_factory=TokenizerConfig)
    bm25: BM25Params = field(default_factory=BM25Params)

    # --- sharding / shuffle (SURVEY.md §7.4) ---
    # Terms are routed to `num_shards` logical shards by a stable hash;
    # the build shuffle uses `parts_per_shard` partitions per shard so
    # one groupby group == one output segment file and no single group
    # must hold a whole shard.  At 100 TB raise parts_per_shard so a
    # partition's token slice fits a worker's heap (each partition is
    # materialized in one encode task).
    num_shards: int = 8
    parts_per_shard: int = 4
    # Run THE segments-stage all-to-all in `shuffle_waves` sequential
    # waves (wave w keeps only the exchange rows whose shard % waves ==
    # w): peak shuffle spill drops to ~1/waves of the posting volume.
    # Each wave reads only its shards' row groups of the exchange
    # (build.write_exchange), so the waves together read it about once
    # and nothing is re-tokenized.
    # Routing is a pure function of the term and doc_id, so segments
    # are byte-identical to a single-wave build (asserted in
    # test_build_fingerprint.py::test_shuffle_waves_identity).  The
    # lever that fits a 15.36M-doc build (~2.2G posting rows) into
    # bounded spill disk; on a real cluster it bounds per-node spill
    # the same way.
    shuffle_waves: int = 1

    # --- skew / salting ---
    hot_terms: frozenset = DEFAULT_HOT_TERMS
    salt_factor: int = 8            # power of two; sub-lists per hot term
    # terms whose df over the deduped corpus exceeds this are salted
    # like the static list.  The set is decided ONCE per build, right
    # after the stats stage (build.hot_df_terms: exact df up to 2^16
    # docs, a doc_id-hash sample scaled up past that), recorded in the
    # manifest, and reused by delta/compact; 0 disables
    hot_df_threshold: int = 1 << 20

    # --- posting-list encoding ---
    block_size: int = 128           # docs per skip/max-impact block
    # "varint" (LEB128) or "pfor" (PForDelta, postings.pfor_encode).
    # Buffers are tagged, so decode is config-free and codecs can mix
    # across base/delta segments.
    postings_codec: str = "varint"
    # Store per-posting term positions (delta+varint blobs alongside
    # each posting list) — enables exact phrase queries at ~1–2 B per
    # token of extra segment size.  Pinned in the manifest: delta and
    # compaction runs must agree or merged lists would mix
    # with-positions and without-positions rows.
    store_positions: bool = False
    # Store the raw ``content`` alongside each docs-table row (the ES
    # ``_source`` analog) — enables get-with-source and the
    # ``reindex`` API (rebuild with a new tokenizer/sharding config
    # from the index alone, no original corpus needed) at the cost of
    # a corpus-sized (parquet-compressed) docs table.  Pinned in the
    # manifest: deltas must agree or added docs would silently lack
    # the source the base rows carry.
    store_source: bool = False

    # --- batching ---
    tokenize_batch_size: int = 256  # docs per tokenize batch (multi-KB rows)

    # --- latest-commit-wins dedup strategy ---
    # "driver":  key-only combiners stream to a driver dict, winners
    #            broadcast as a sorted id array (~24 B/key — fine to
    #            ~10^9 keys, lethal at 10^12).
    # "shuffle": hash-bucketed groupby — the corpus moves through ONE
    #            all-to-all, each bucket resolves winners locally and
    #            filters its own rows; no driver state, no broadcast.
    dedup_mode: str = "driver"
    dedup_buckets: int = 256        # shuffle-mode partition count

    @property
    def num_parts(self) -> int:
        return self.num_shards * self.parts_per_shard


# Manifest fields that pin how postings are routed / scored.  A delta or
# compaction run with a config that disagrees on any of these would
# silently route rows to wrong partitions (dropped at merge), compute
# unsound WAND bounds, or tokenize delta docs differently from the base.
_MANIFEST_PINNED = ("num_shards", "parts_per_shard", "block_size",
                    "salt_factor", "store_positions", "store_source")


def _pinned(manifest: dict) -> dict:
    """The manifest's pinned fields.  Every format-v3 build records all
    of them, so a missing one means a foreign manifest: refuse it
    rather than guess the value it was built with."""
    missing = [f for f in _MANIFEST_PINNED if f not in manifest]
    if missing:
        raise ValueError(f"index manifest lacks pinned field(s) "
                         f"{', '.join(missing)} — rebuild the index")
    return {f: manifest[f] for f in _MANIFEST_PINNED}


def config_from_manifest(manifest: dict,
                         base: "EngineConfig | None" = None) -> "EngineConfig":
    """Reconstruct the effective :class:`EngineConfig` from an epoch
    manifest (build_index records tokenizer/bm25/sharding/salting
    there).  ``base`` supplies the non-pinned knobs (batching, dedup
    mode); pinned fields always come from the manifest.  The build's
    df-decided hot set (``hot_df_terms``) is NOT folded in here, so a
    rebuild from this config (``reindex(cfg=None)``) decides its own;
    :func:`resolve_index_config` adds it for delta/compact."""
    base = base or EngineConfig()
    kw = _pinned(manifest)
    if "tokenizer" in manifest:
        kw["tokenizer"] = TokenizerConfig(**manifest["tokenizer"])
    if "bm25" in manifest:
        kw["bm25"] = BM25Params(**manifest["bm25"])
    if "hot_terms" in manifest:
        kw["hot_terms"] = frozenset(manifest["hot_terms"])
    if "postings_codec" in manifest:
        kw["postings_codec"] = manifest["postings_codec"]
    from dataclasses import replace
    return replace(base, **kw)


def validate_config_against_manifest(cfg: "EngineConfig",
                                     manifest: dict) -> None:
    """Fail loudly when an explicit config disagrees with the manifest's
    recorded routing/scoring parameters (silent wrong-part routing is
    the failure mode this guards)."""
    mismatches = [f"{f}: cfg={getattr(cfg, f)!r} manifest={want!r}"
                  for f, want in _pinned(manifest).items()
                  if getattr(cfg, f) != want]
    # routing is decided by static ∪ recorded df set, so a cfg that
    # already carries the recorded set (resolve_index_config's output)
    # agrees too
    rec = set(manifest.get("hot_df_terms", ()))
    if "hot_terms" in manifest and \
            set(cfg.hot_terms) | rec != set(manifest["hot_terms"]) | rec:
        mismatches.append("hot_terms differ")
    if "bm25" in manifest:
        m = manifest["bm25"]
        if (cfg.bm25.k1, cfg.bm25.b) != (m["k1"], m["b"]):
            mismatches.append(f"bm25: cfg=({cfg.bm25.k1},{cfg.bm25.b}) "
                              f"manifest=({m['k1']},{m['b']})")
    if "tokenizer" in manifest:
        mine = {f: getattr(cfg.tokenizer, f)
                for f in cfg.tokenizer.__dataclass_fields__}
        if mine != manifest["tokenizer"]:
            mismatches.append("tokenizer settings differ")
    if mismatches:
        raise ValueError(
            "EngineConfig disagrees with the index manifest — postings "
            "would be routed/scored inconsistently with the built "
            "segments: " + "; ".join(mismatches))


def resolve_index_config(manifest: dict,
                         cfg: "EngineConfig | None") -> "EngineConfig":
    """The one rule for lifecycle entry points: no explicit config →
    reconstruct from the manifest; explicit config → validate it
    against the manifest, then use it.  Either way the build's
    recorded df-decided hot set joins ``hot_terms``, so delta and
    compaction postings route exactly as the base epoch's did."""
    from dataclasses import replace
    if cfg is None:
        cfg = config_from_manifest(manifest)
    else:
        validate_config_against_manifest(cfg, manifest)
    rec = manifest.get("hot_df_terms")
    return replace(cfg, hot_terms=cfg.hot_terms | frozenset(rec)) \
        if rec else cfg
