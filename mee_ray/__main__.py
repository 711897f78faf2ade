"""CLI entry point — the `ray job submit` surface of the engine.

The reference's three entry points (update.py = full rebuild, sync.py =
incremental, listen.py = change capture) plus its reset/clean actions
(updateservice.py:82-114) map onto subcommands of one driver script:

    ray job submit -- python -m mee_ray build  --input corpus/ --index idx/ --epoch ep1
    ray job submit -- python -m mee_ray query  --index idx/ --terms "parse http" -k 10
    ray job submit -- python -m mee_ray delta  --index idx/ --events batch.parquet
    ray job submit -- python -m mee_ray compact --index idx/ --epoch ep2
    ray job submit -- python -m mee_ray gc     --index idx/
    ray job submit -- python -m mee_ray metrics --index idx/

Each run prints one JSON line.  As a CLI it owns the Ray session
(guarded init — the driver contract forbids ray.init in library code).
Engine knobs load from --config (a JSON file mirroring EngineConfig;
the analog of the reference's YAML handler config, but validated into
frozen dataclasses at startup).
"""

from __future__ import annotations

import argparse
import json
import sys


def _engine_config(path: str | None, default_none: bool = False):
    """Load EngineConfig from a JSON, YAML, or INI file (the analog of
    the reference's YAML handler config + INI app config, both
    validated into frozen dataclasses at startup).  With
    ``default_none`` and no path, return None — lifecycle commands
    (delta/compact) then reconstruct the config from the index
    manifest, which records the routing/scoring parameters the index
    was actually built with."""
    from mee_ray.config import BM25Params, EngineConfig, TokenizerConfig

    if not path:
        return None if default_none else EngineConfig()
    if path.endswith((".ini", ".cfg")):
        raw = _ini_config(path)
    elif path.endswith((".yml", ".yaml")):
        import yaml

        with open(path) as f:
            raw = yaml.safe_load(f) or {}
    else:
        with open(path) as f:
            raw = json.load(f)
    tok = TokenizerConfig(**raw.pop("tokenizer", {}))
    bm25 = BM25Params(**raw.pop("bm25", {}))
    hot = raw.pop("hot_terms", None)
    kw = dict(raw, tokenizer=tok, bm25=bm25)
    if hot is not None:
        kw["hot_terms"] = frozenset(hot)
    return EngineConfig(**kw)


_INI_FUNCS = {
    # the reference's INI `%{func()}` interpolation surface
    # (application/inner.py:16-27: getpid/getuid/getdate/randint),
    # whitelist-dispatched rather than eval'd; defaults mirror the
    # reference (getdate '%Y-%m-%d', randint [0, sys.maxsize])
    "getpid": lambda: str(__import__("os").getpid()),
    "getuid": lambda: str(__import__("os").getuid()),
    "getdate": lambda fmt="%Y-%m-%d": __import__("time").strftime(fmt),
    "randint": lambda a="0", b=None: str(
        __import__("random").randint(
            int(a), __import__("sys").maxsize if b is None else int(b))),
}


def register_ini_function(name: str, fn) -> None:
    """Extend the ``%{fn(...)}`` interpolation surface — the analog of
    adding a function to the reference's application/inner.py module
    (its ``eval('inner.' + expr)`` dispatches to anything defined
    there; this registry is the non-eval equivalent).  ``fn`` receives
    the comma-split, quote-stripped argument strings and must return a
    string."""
    if not name.isidentifier():
        raise ValueError(f"interpolation function name {name!r} must "
                         f"be an identifier")
    _INI_FUNCS[name] = fn


def _interpolate_ini(value: str, path: str) -> str:
    """Expand ``%{func(args...)}`` occurrences in an INI value.

    Escape semantics match the reference (application/config.py:11,37:
    the regex alternates ``(%%)`` before ``%{fn(...)}``): ``%%`` emits a
    literal ``%``, so ``%%{getpid()}`` yields the literal text
    ``%{getpid()}`` un-evaluated and ``%%%{getpid()}`` yields ``%``
    followed by the pid."""
    import re

    def sub(m):
        if m.group(0) == "%%":
            return "%"
        name, args = m.group(1), m.group(2)
        fn = _INI_FUNCS.get(name)
        if fn is None:
            raise ValueError(
                f"unknown interpolation function %{{{name}(...)}} in "
                f"{path} (known: {sorted(_INI_FUNCS)})")
        argv = [a.strip().strip("'\"") for a in args.split(",") if a.strip()]
        return fn(*argv)

    return re.sub(r"%%|%\{(\w+)\(([^)]*)\)\}", sub, value)


def _ini_config(path: str) -> dict:
    """INI → nested config dict: [engine] holds top-level scalar knobs,
    [tokenizer]/[bm25] map to their sub-configs; values are parsed as
    JSON scalars (so booleans/ints/floats round-trip), hot_terms is a
    whitespace-separated list, and ``%{getdate()}``-style expressions
    interpolate before parsing (the reference's app-config surface)."""
    import configparser

    # interpolation=None: `%` is OUR interpolation marker, not
    # configparser's BasicInterpolation syntax
    cp = configparser.ConfigParser(interpolation=None)
    with open(path) as f:
        cp.read_file(f)

    def val(s: str):
        if "%{" in s or "%%" in s:
            s = _interpolate_ini(s, path)
        try:
            return json.loads(s)
        except json.JSONDecodeError:
            return s

    raw: dict = {}
    for sect in cp.sections():
        items = {k: val(v) for k, v in cp.items(sect)}
        if sect == "engine":
            hot = items.pop("hot_terms", None)
            if isinstance(hot, str):
                items["hot_terms"] = hot.split()
            elif hot is not None:
                items["hot_terms"] = hot
            raw.update(items)
        elif sect in ("tokenizer", "bm25"):
            raw[sect] = items
        else:
            raise ValueError(f"unknown config section [{sect}] in {path} "
                             f"(expected [engine], [tokenizer], [bm25])")
    return raw


def _mf_alias_filter(index_root: str, name: str):
    from mee_ray import manifest as _mf
    return _mf.alias_filter(index_root, name)


def _init_ray(num_cpus: int | None):
    import os as _os

    import ray

    if not ray.is_initialized():
        # honor RAY_ADDRESS (ray job submit to a running cluster);
        # hard-coding "local" would silently spin up a private
        # one-node Ray on the head node with the workers idle
        kwargs = {"address": _os.environ.get("RAY_ADDRESS", "local"),
                  "include_dashboard": False,
                  "logging_level": "ERROR"}
        if num_cpus and kwargs["address"] == "local":
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    import ray.data
    ray.data.DataContext.get_current().enable_progress_bars = False


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="mee_ray")
    p.add_argument("--config", help="EngineConfig JSON file")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="full index build + atomic publish")
    b.add_argument("--input", required=True)
    b.add_argument("--index", required=True)
    b.add_argument("--epoch", required=True)
    b.add_argument("--no-dedup", action="store_true")
    b.add_argument("--no-publish", action="store_true")
    b.add_argument("--snapshot-watermark", type=int, default=None,
                   help="max event seq the snapshot corpus includes; "
                        "predecessor deltas past it replay at publish")

    q = sub.add_parser("query", help="top-k BM25")
    q.add_argument("--index", required=True,
                   help="index root; comma-separate several roots for "
                        "federated search with global statistics "
                        "(plain --terms/--count forms only)")
    q.add_argument("--terms", default=None,
                   help="space-separated query terms")
    q.add_argument("--epoch", default=None,
                   help="epoch name OR alias (default: CURRENT)")
    q.add_argument("-k", type=int, default=10)
    q.add_argument("--actors", type=int, default=0,
                   help=">0: use the shard-actor pool")
    q.add_argument("--mode", choices=["partials", "threephase"],
                   default="partials",
                   help="distributed exchange strategy (see "
                        "DistributedSearcher.search)")
    q.add_argument("--operator", choices=["or", "and"], default="or",
                   help="'and' = conjunctive: docs must contain every "
                        "term (scores unchanged for surviving docs)")
    q.add_argument("--min-match", type=int, default=None,
                   help="minimum_should_match: require >= N distinct "
                        "matching terms (scores stay disjunctive)")
    q.add_argument("--boosts", default=None,
                   help="per-term boosts 'term=2.0,other=1.5' "
                        "(replaces --terms; score = sum boost*idf*tfn)")
    q.add_argument("--dismax", action="store_true",
                   help="dis_max ranking: best term + tie_breaker*rest")
    q.add_argument("--tie-breaker", type=float, default=0.0,
                   help="dis_max tie_breaker (default 0)")
    q.add_argument("--after", default=None,
                   help="search_after cursor 'doc_id:score' (the "
                        "previous page's last hit); -k is the page size")
    q.add_argument("--count", action="store_true",
                   help="print the match count only (no scoring)")
    q.add_argument("--mlt-file", default=None,
                   help="more_like_this: rank docs similar to this "
                        "text file's content (replaces --terms)")
    q.add_argument("--max-terms", type=int, default=10,
                   help="more_like_this: tf-idf-selected query terms")
    q.add_argument("--prefix", default=None,
                   help="prefix expansion query (replaces --terms)")
    q.add_argument("--fuzzy", default=None,
                   help="fuzzy (edit distance 1) expansion query "
                        "(replaces --terms)")
    q.add_argument("--wildcard", default=None,
                   help="wildcard (*/?) expansion query "
                        "(replaces --terms)")
    q.add_argument("--regexp", default=None,
                   help="anchored-regexp expansion query "
                        "(replaces --terms)")
    q.add_argument("--phrase", action="store_true",
                   help="exact phrase match (consecutive positions, "
                        "in order) — needs store_positions=True")

    q.add_argument("--explain", action="store_true",
                   help="with --terms: per-hit per-term score "
                        "breakdown (the ES _explain analog)")

    sg = sub.add_parser("suggest", help="did-you-mean: term suggester "
                        "(edit-1 dictionary neighbors, df-ranked) or "
                        "phrase suggester (bigram-LM scored; needs "
                        "store_positions)")
    sg.add_argument("--index", required=True)
    sg.add_argument("--term", default=None,
                    help="single-term suggestions")
    sg.add_argument("--phrase", default=None,
                    help="space-separated phrase to correct")
    sg.add_argument("-n", type=int, default=5)

    an = sub.add_parser("analyze", help="tokenizer preview (the ES "
                                        "_analyze analog)")
    an.add_argument("--index", default=None,
                    help="use this index's OWN tokenizer (manifest-"
                         "reconstructed); default: EngineConfig()")
    an.add_argument("--text", required=True)

    gd = sub.add_parser("get", help="fetch one live document's stored "
                                    "fields by (repo, path)")
    gd.add_argument("--index", required=True)
    gd.add_argument("--repo", required=True)
    gd.add_argument("--path", required=True)

    d = sub.add_parser("delta", help="apply one delta event batch")
    d.add_argument("--index", required=True)
    d.add_argument("--events", required=True,
                   help="parquet file/dir of delta events")
    d.add_argument("--auto-compact", action="store_true",
                   help="run the merge scheduler's policy afterwards")

    dq = sub.add_parser("delete-by-query",
                        help="tombstone every live doc matching the "
                             "query (ES _delete_by_query)")
    dq.add_argument("--index", required=True)
    dq.add_argument("--terms", required=True,
                    help="space-separated query terms")
    dq.add_argument("--operator", choices=("or", "and"), default="or")

    uq = sub.add_parser("update-by-query",
                        help="regex-transform the stored content of "
                             "every matching live doc (needs "
                             "store_source=True) — the ES "
                             "_update_by_query analog")
    uq.add_argument("--index", required=True)
    uq.add_argument("--terms", required=True,
                    help="space-separated query terms")
    uq.add_argument("--operator", choices=("or", "and"), default="or")
    uq.add_argument("--pattern", required=True,
                    help="Python regex applied to each doc's content")
    uq.add_argument("--repl", required=True,
                    help="replacement string (re.sub semantics)")

    c = sub.add_parser("compact", help="fold deltas into a new epoch")
    c.add_argument("--index", required=True)
    c.add_argument("--epoch", required=True)
    c.add_argument("--gc", action="store_true", help="GC old epochs after")

    ri = sub.add_parser("reindex", help="rebuild from the index's own "
                        "stored source (store_source=True) with a new "
                        "config into a new epoch — the ES _reindex")
    ri.add_argument("--index", required=True)
    ri.add_argument("--epoch", required=True, help="new epoch name")

    ac = sub.add_parser("auto-compact", help="policy-gated compaction: "
                        "fold the delta log only when measured debt "
                        "(delta count / tombstone ratio / delta bytes) "
                        "trips a threshold")
    ac.add_argument("--index", required=True)
    ac.add_argument("--max-deltas", type=int, default=8)
    ac.add_argument("--max-churn-ratio", type=float, default=0.2)
    ac.add_argument("--tombstone-ratio", type=float, default=0.1)
    ac.add_argument("--delta-bytes-ratio", type=float, default=0.5)
    ac.add_argument("--gc", action="store_true", help="GC old epochs after")

    g = sub.add_parser("gc", help="delete unreferenced epochs "
                                  "(the reference's clean action)")
    g.add_argument("--index", required=True)

    al = sub.add_parser("alias", help="named epoch aliases (ES "
                                      "_aliases atomic swap); no "
                                      "flags = list")
    al.add_argument("--index", required=True)
    al.add_argument("--set", default=None, help="alias name to create "
                                                "or re-point")
    al.add_argument("--to", default=None, help="target epoch for --set")
    al.add_argument("--filter", default=None, dest="alias_filter",
                    help="make a FILTERED alias: 'field=value' with "
                         "field one of lang|repo (queries through the "
                         "alias restrict to matching live docs)")
    al.add_argument("--drop", default=None, help="alias name to remove")

    stt = sub.add_parser("status", help="one-page summary of an index "
                         "root: CURRENT epoch, aliases, per-epoch "
                         "docs/segments/delta debt + bytes, and the "
                         "merge policy's verdict")
    stt.add_argument("--index", required=True)

    fs = sub.add_parser("fsck", help="verify segment/delta files "
                                     "against the manifest lineage")
    fs.add_argument("--index", required=True)
    fs.add_argument("--epoch", default=None)
    fs.add_argument("--no-hashes", action="store_true",
                    help="skip sha256 verification (existence+size only)")
    fs.add_argument("--repair", action="store_true",
                    help="after checking: delete tmp/orphan debris and "
                         "rebuild missing lineage sidecars (never "
                         "touches referenced files, docs tables, or "
                         "manifest-less epoch dirs)")

    sy = sub.add_parser("sync", help="the reference's end-to-end loop "
                                     "as one command: table change → "
                                     "rebuild affected documents → "
                                     "index upsert (searchable)")
    sy.add_argument("--spec", required=True, help="DocSpec YAML/JSON")
    sy.add_argument("--input", required=True,
                    help="directory of base-table parquet files")
    sy.add_argument("--index", required=True)
    sy.add_argument("--table", required=True,
                    help="the changed table (master or a joined slave)")
    sy.add_argument("--changes", default=None,
                    help="parquet of upserted row after-images")
    sy.add_argument("--delete-keys", default=None,
                    help="comma-separated deleted key values (ints)")
    sy.add_argument("--child-key", default=None,
                    help="nested-table child id column")
    sy.add_argument("--key-field", default=None,
                    help="doc column holding the master key "
                         "(default: the spec's key)")
    sy.add_argument("--repo", default="docbuild",
                    help="logical collection name in the index")

    ex = sub.add_parser("export", help="stream the epoch's live docs "
                                       "table to partitioned parquet")
    ex.add_argument("--index", required=True)
    ex.add_argument("--out", required=True)
    ex.add_argument("--epoch", default=None)

    sn = sub.add_parser("snapshot", help="point-in-time backup: copy "
                                         "the epoch + its delta log to "
                                         "a self-contained index root")
    sn.add_argument("--index", required=True)
    sn.add_argument("--dest", required=True)
    sn.add_argument("--epoch", default=None)

    m = sub.add_parser("metrics", help="print the current epoch's metrics")
    m.add_argument("--index", required=True)

    db = sub.add_parser("docbuild", help="config-file-driven document "
                                         "build (YAML/JSON DocSpec)")
    db.add_argument("--spec", required=True, help="DocSpec YAML/JSON file")
    db.add_argument("--input", required=True,
                    help="directory of <table>.parquet inputs")
    db.add_argument("--out", required=True, help="output parquet directory")

    vb = sub.add_parser("vec-build", help="build + publish the IVF "
                                          "vector index from a parquet "
                                          "of (vec_id, embedding)")
    vb.add_argument("--input", required=True)
    vb.add_argument("--index", required=True)
    vb.add_argument("--epoch", default="ep1")
    vb.add_argument("--clusters", type=int, default=16)

    vq = sub.add_parser("vec-query", help="cosine top-k against the "
                                          "published vector index")
    vq.add_argument("--index", required=True)
    vq.add_argument("--vec", required=True,
                    help="JSON array query vector")
    vq.add_argument("-k", type=int, default=10)
    vq.add_argument("--nprobe", type=int, default=4)

    vd = sub.add_parser("vec-delta", help="apply a vector event batch "
                                          "(parquet: op, vec_id, "
                                          "embedding)")
    vd.add_argument("--index", required=True)
    vd.add_argument("--events", required=True)

    vc = sub.add_parser("vec-compact", help="fold the vector delta "
                                            "log into a new epoch")
    vc.add_argument("--index", required=True)
    vc.add_argument("--epoch", required=True)

    pl = sub.add_parser("pipeline", help="run any named pipeline from "
                                         "the driver surface over an "
                                         "sf-dir of parquet tables "
                                         "and write the result")
    pl.add_argument("--name", help="pipeline name (omit with --list)")
    pl.add_argument("--sf-dir", help="directory holding the parquet "
                                     "tables (documents, events, ...)")
    pl.add_argument("--out", help="output parquet path (directory for "
                                  "a Dataset result, single file for "
                                  "a driver table); omit to print a "
                                  "row-count summary only")
    pl.add_argument("--list", action="store_true",
                    help="list available pipeline names and exit")
    pl.add_argument("--num-cpus", type=int, default=None)
    pl.add_argument("--stats", action="store_true",
                    help="print Ray Data per-stage execution stats "
                         "(ds.stats()) after the run")

    args = p.parse_args(argv)
    # lifecycle commands: no --config → derive from the index manifest
    # (a default EngineConfig here would silently disagree with the
    # index's pinned routing/scoring parameters — reindex would drop
    # store_source, the others would refuse on the pin check)
    cfg = _engine_config(args.config,
                         default_none=args.cmd in ("delta", "compact",
                                                   "sync",
                                                   "delete-by-query",
                                                   "update-by-query",
                                                   "reindex",
                                                   "auto-compact"))

    if args.cmd == "build":
        _init_ray(args.num_cpus)
        import ray.data

        from mee_ray.build import build_index
        from mee_ray.sources import read_corpus

        manifest = build_index(read_corpus(args.input), args.index,
                               args.epoch, cfg,
                               dedup=not args.no_dedup,
                               auto_publish=not args.no_publish,
                               snapshot_watermark=args.snapshot_watermark)
        print(json.dumps({"epoch": manifest["epoch"],
                          "n_docs": manifest["n_docs"],
                          "total_tokens": manifest["total_tokens"],
                          "segments": len(manifest["segments"])}))

    elif args.cmd == "query":
        terms = args.terms.split() if args.terms else []

        def non_plain_forms() -> bool:
            """True when any query flag beyond --terms/--operator/-k
            is set — ONE definition shared by every 'plain form only'
            guard (--count, --explain, federated), so a future flag
            added here fails all three closed together."""
            return bool(args.boosts or args.mlt_file or args.prefix
                        or args.fuzzy or args.wildcard or args.regexp
                        or args.phrase or args.dismax
                        or args.min_match is not None
                        or args.after is not None)

        if not (terms or args.boosts or args.mlt_file or args.prefix
                or args.fuzzy or args.wildcard or args.regexp):
            raise SystemExit("one of --terms/--boosts/--mlt-file/"
                             "--prefix/--fuzzy/--wildcard/--regexp "
                             "is required")
        if args.count and non_plain_forms():
            # --count counts --terms with --operator; silently counting
            # a different query form than the one requested is worse
            # than refusing
            raise SystemExit("--count combines only with --terms and "
                             "--operator")
        if args.explain and (args.count or non_plain_forms()):
            # explain breaks down the plain (dis)junctive score; pairing
            # it with a differently-scored query form would print
            # breakdowns that don't sum to the scores shown next to them
            raise SystemExit("--explain combines only with --terms and "
                             "--operator")

        def run(s, distributed: bool) -> dict:
            if args.count:
                return {"terms": terms,
                        "count": s.count(terms, args.operator)}
            if args.boosts:
                boosts = {}
                for part in args.boosts.split(","):
                    t, eq, b = part.partition("=")
                    try:
                        if not eq:
                            raise ValueError
                        boosts[t.strip()] = float(b)
                    except ValueError:
                        raise SystemExit(
                            f"--boosts entry {part!r} is not "
                            "'term=number'") from None
                hits = s.search_weighted(boosts, args.k)
            elif args.mlt_file:
                with open(args.mlt_file) as f:
                    hits = s.more_like_this(f.read(), k=args.k,
                                            max_terms=args.max_terms)
            elif args.prefix or args.fuzzy:
                hits = (s.search_prefix(args.prefix, args.k)
                        if args.prefix
                        else s.search_fuzzy(args.fuzzy, args.k))
            elif args.wildcard:
                hits = s.search_wildcard(args.wildcard, args.k)
            elif args.regexp:
                try:
                    hits = s.search_regexp(args.regexp, args.k)
                except ValueError as e:
                    raise SystemExit(str(e)) from None
            elif args.phrase:
                hits = s.search_phrase(terms, args.k)
            elif args.dismax:
                hits = s.search_dismax(terms, args.k,
                                       tie_breaker=args.tie_breaker)
            elif args.min_match is not None:
                hits = s.search_min_match(terms, args.k,
                                          min_match=args.min_match)
            elif args.after is not None:
                d, _, sc = args.after.partition(":")
                try:
                    cursor = (int(d), float(sc))
                except ValueError:
                    raise SystemExit(
                        f"--after must be 'doc_id:score', got "
                        f"{args.after!r}")
                hits = s.search_after(terms, size=args.k, after=cursor)
            elif distributed:
                hits = s.search(terms, args.k, mode=args.mode,
                                operator=args.operator)
            else:
                hits = s.search(terms, args.k, operator=args.operator)
            out = {"terms": terms,
                   "hits": [{"doc_id": d, "score": sc}
                            for d, sc in hits]}
            if args.explain:
                if not terms:
                    raise SystemExit("--explain needs --terms")
                for h in out["hits"]:
                    h["explain"] = s.explain(terms, h["doc_id"])
            return out

        roots = [r for r in args.index.split(",") if r]
        if not roots:
            raise SystemExit("--index is empty")
        # FILTERED alias (--epoch naming one): restricts plain
        # disjunctive --terms search; every other form fails closed —
        # silently ignoring a stored filter is worse than refusing
        alias_flt = (_mf_alias_filter(roots[0], args.epoch)
                     if len(roots) == 1 and args.epoch else None)
        if alias_flt is not None:
            if (args.actors > 0 or args.count or args.explain
                    or args.operator != "or" or non_plain_forms()):
                raise SystemExit(
                    "a FILTERED alias supports only the plain "
                    "disjunctive --terms form (in-process)")
            from mee_ray.query import Searcher
            s = Searcher(roots[0], epoch=args.epoch)
            allowed = s.allowed_ids_for_field(alias_flt["field"],
                                              alias_flt["value"])
            hits = s.search_filtered(terms, args.k,
                                     allowed_doc_ids=allowed)
            print(json.dumps({"terms": terms, "filter": alias_flt,
                              "hits": [{"doc_id": d, "score": sc}
                                       for d, sc in hits]}))
            return 0
        if len(roots) > 1:
            if args.actors > 0 or args.explain or non_plain_forms():
                raise SystemExit("federated (multi-root) --index "
                                 "supports only plain --terms search "
                                 "and --count")
            if args.epoch:
                # FederatedSearcher reads each root's CURRENT; a
                # single --epoch name is ambiguous across roots and a
                # FILTERED alias would be silently ignored — refuse
                raise SystemExit("--epoch does not combine with "
                                 "federated (multi-root) --index")
            from mee_ray.query import FederatedSearcher
            out = run(FederatedSearcher(roots), False)
        elif args.actors > 0:
            _init_ray(args.num_cpus)
            from mee_ray.query import DistributedSearcher
            s = DistributedSearcher(roots[0], epoch=args.epoch,
                                    n_actors=args.actors)
            try:
                out = run(s, True)
            finally:
                s.shutdown()
        else:
            from mee_ray.query import Searcher
            out = run(Searcher(roots[0], epoch=args.epoch), False)
        print(json.dumps(out))

    elif args.cmd == "alias":
        from mee_ray import manifest as mf
        if args.set:
            if not args.to:
                raise SystemExit("--set needs --to <epoch>")
            flt = None
            if args.alias_filter:
                field, eq, value = args.alias_filter.partition("=")
                if not eq or not value:
                    raise SystemExit("--filter must be 'field=value'")
                flt = {"field": field.strip(), "value": value}
            try:
                mf.set_alias(args.index, args.set, args.to, filter=flt)
            except ValueError as e:
                raise SystemExit(str(e)) from None
            print(json.dumps({"alias": args.set, "epoch": args.to,
                              "filter": flt}))
        elif args.drop:
            print(json.dumps({"dropped": mf.drop_alias(args.index,
                                                       args.drop)}))
        else:
            print(json.dumps(mf.load_aliases(args.index)))

    elif args.cmd == "suggest":
        from mee_ray.query import Searcher
        if bool(args.term) == bool(args.phrase):
            raise SystemExit("exactly one of --term/--phrase")
        s = Searcher(args.index)
        if args.term:
            out = [{"term": t, "df": df}
                   for df, t in s.suggest(args.term, n=args.n)]
            print(json.dumps({"term": args.term, "suggestions": out}))
        else:
            try:
                ranked = s.suggest_phrase(args.phrase.split(), n=args.n)
            except ValueError as e:
                raise SystemExit(str(e)) from None
            out = [{"phrase": " ".join(ws), "score": sc}
                   for sc, ws in ranked]
            print(json.dumps({"phrase": args.phrase,
                              "suggestions": out}))

    elif args.cmd == "analyze":
        if args.index:
            from mee_ray import manifest as _mf
            from mee_ray.query import tokenizer_from_manifest
            tok = tokenizer_from_manifest(_mf.load_manifest(args.index))
        else:
            from mee_ray.tokenizer import Tokenizer
            tok = Tokenizer(cfg.tokenizer)   # --config or defaults
        counts = tok.counts(args.text)
        print(json.dumps({"n_tokens": int(sum(counts.values())),
                          "terms": dict(sorted(counts.items()))}))

    elif args.cmd == "get":
        from mee_ray.query import Searcher
        row = Searcher(args.index).get_doc(args.repo, args.path)
        if row is None:
            print(json.dumps({"found": False}))
            return 1
        row["content_sha256"] = row["content_sha256"].hex()
        print(json.dumps({"found": True, "doc": row}))

    elif args.cmd == "delta":
        _init_ray(args.num_cpus)
        from mee_ray.delta import apply_delta
        from mee_ray.sources import read_delta_events

        rec = apply_delta(read_delta_events(args.events), args.index, cfg)
        out = {"n_added": rec["n_added"], "n_deleted": rec["n_deleted"],
               "seq": rec["seq"]}
        if args.auto_compact:
            from mee_ray.scheduler import maybe_compact
            merged = maybe_compact(args.index, cfg)
            out["compacted_to"] = merged["epoch"] if merged else None
        print(json.dumps(out))

    elif args.cmd == "delete-by-query":
        from mee_ray.delta import delete_by_query
        rec = delete_by_query(args.index, args.terms.split(),
                              args.operator, cfg)
        print(json.dumps({"n_matched": rec["n_matched"],
                          "n_deleted": rec["n_deleted"],
                          "seq": rec["seq"]}))

    elif args.cmd == "update-by-query":
        import re as _re
        from mee_ray.delta import update_by_query
        try:
            pat = _re.compile(args.pattern)
        except _re.error as e:
            raise SystemExit(f"bad --pattern: {e}") from None
        try:
            rec = update_by_query(
                args.index, args.terms.split(),
                lambda c: pat.sub(args.repl, c),
                operator=args.operator, cfg=cfg)
        except ValueError as e:
            raise SystemExit(str(e)) from None
        print(json.dumps({"n_matched": rec["n_matched"],
                          "n_transformed": rec["n_transformed"],
                          "seq": rec["seq"]}))

    elif args.cmd == "compact":
        _init_ray(args.num_cpus)
        from mee_ray.merge import compact

        m2 = compact(args.index, args.epoch, cfg, gc_old=args.gc)
        print(json.dumps({"epoch": m2["epoch"], "n_docs": m2["n_docs"],
                          "segments": len(m2["segments"])}))

    elif args.cmd == "reindex":
        _init_ray(args.num_cpus)
        from mee_ray.build import reindex

        try:
            m2 = reindex(args.index, args.epoch, cfg)
        except ValueError as e:
            raise SystemExit(str(e)) from None
        print(json.dumps({"epoch": m2["epoch"], "n_docs": m2["n_docs"],
                          "segments": len(m2["segments"])}))

    elif args.cmd == "auto-compact":
        from mee_ray import manifest as _mf
        from mee_ray.scheduler import (MergePolicy, maybe_compact,
                                       should_compact)

        policy = MergePolicy(
            max_deltas=args.max_deltas,
            max_churn_ratio=args.max_churn_ratio,
            tombstone_ratio=args.tombstone_ratio,
            delta_bytes_ratio=args.delta_bytes_ratio,
            gc_old=args.gc)
        decision, reason = should_compact(
            _mf.load_manifest(args.index), policy)
        if not decision:
            print(json.dumps({"compacted": False, "reason": reason}))
        else:
            _init_ray(args.num_cpus)
            m2 = maybe_compact(args.index, cfg, policy)
            if m2 is None:     # a concurrent fold got there first
                print(json.dumps({"compacted": False,
                                  "reason": "raced: log already folded"}))
            else:
                print(json.dumps(
                    {"compacted": True, "reason": m2["compact_reason"],
                     "epoch": m2["epoch"], "n_docs": m2["n_docs"],
                     "segments": len(m2["segments"])}))

    elif args.cmd == "gc":
        from mee_ray import manifest as mf
        removed = mf.gc_epochs(args.index)
        print(json.dumps({"removed_epochs": removed}))

    elif args.cmd == "status":
        import os as _os

        from mee_ray import manifest as _mf
        from mee_ray.scheduler import MergePolicy, should_compact

        cur = _mf.current_epoch(args.index)
        epochs = {}
        eroot = _os.path.join(args.index, "epochs")
        names = (sorted(_os.listdir(eroot))
                 if _os.path.isdir(eroot) else [])
        for name in names:
            if not _os.path.isfile(_mf.manifest_path(args.index, name)):
                epochs[name] = {"state": "no manifest (crashed or "
                                         "in-progress build)"}
                continue
            m = _mf.load_manifest(args.index, name)
            n_live, avgdl = _mf.live_stats(m)
            last = (m.get("deltas") or [{}])[-1]
            seg_b = sum(int(s.get("bytes", 0))
                        for s in m.get("segments", []))
            epochs[name] = {
                "n_docs_live": n_live,
                "avgdl": round(avgdl, 3),
                "segments": len(m.get("segments", [])),
                "segment_bytes": seg_b,
                "deltas": len(m.get("deltas", [])),
                "tombstones": sum(int(d.get("n_deleted", 0))
                                  for d in m.get("deltas", [])),
                "event_watermark": m.get("event_watermark", 0),
                # the newest delta record's layer timings, and how
                # many files its key lookup read from disk
                "last_delta_seconds": last.get("seconds"),
                "last_delta_key_lookup_reads": last.get("key_lookup_reads"),
                "store_positions": bool(m.get("store_positions")),
                "store_source": bool(m.get("store_source")),
            }
        out = {"current": cur, "aliases": _mf.load_aliases(args.index),
               "epochs": epochs}
        if cur and "n_docs_live" in epochs.get(cur, {}):
            dec, reason = should_compact(
                _mf.load_manifest(args.index), MergePolicy())
            out["compact_advised"] = dec
            out["compact_reason"] = reason
        print(json.dumps(out))

    elif args.cmd == "fsck":
        from mee_ray import manifest as mf
        report = mf.fsck(args.index, args.epoch,
                         verify_hashes=not args.no_hashes)
        if args.repair:
            report["repair"] = mf.fsck_repair(args.index)
        print(json.dumps(report))
        return 0 if report["ok"] else 1

    elif args.cmd == "docbuild":
        _init_ray(args.num_cpus)
        from mee_ray.pipelines.docbuild import build_documents
        from mee_ray.pipelines.docspec_io import load_docspec

        spec = load_docspec(args.spec)
        ds = build_documents(args.input, spec)
        ds.write_parquet(args.out)
        import pyarrow.dataset as pads
        n = pads.dataset(args.out, format="parquet").count_rows()
        print(json.dumps({"rows": n, "out": args.out,
                          "master": spec.master}))

    elif args.cmd == "sync":
        _init_ray(args.num_cpus)
        import pyarrow.parquet as _pq

        from mee_ray.pipelines.bridge import publish_documents
        from mee_ray.pipelines.docbuild import (SlaveChange,
                                                apply_join_delta,
                                                apply_master_delta)
        from mee_ray.pipelines.docspec_io import load_docspec

        spec = load_docspec(args.spec)
        ups = _pq.read_table(args.changes) if args.changes else None
        dels = tuple(int(x) for x in args.delete_keys.split(",")) \
            if args.delete_keys else ()
        if ups is None and not dels:
            raise SystemExit("one of --changes/--delete-keys required")
        ch = SlaveChange(table=args.table, upserts=ups,
                         delete_keys=dels, child_key=args.child_key)
        # the doc column carrying the master key is the mapping whose
        # expression IS the key (specs usually rename, e.g.
        # cust_id: c_custkey); fall back to the raw key name
        key_field = args.key_field or next(
            (out for out, expr in spec.mappings.items()
             if expr == spec.key), spec.key)
        if args.table == spec.master:
            docs, deleted = apply_master_delta(args.input, spec, ch)
            deleted_keys = deleted[spec.key].to_pylist()
        else:
            docs = apply_join_delta(args.input, spec, ch)
            deleted_keys = []
        rec = publish_documents(args.index, docs, key_field,
                                deleted_keys=deleted_keys,
                                repo=args.repo, cfg=cfg)
        print(json.dumps({"n_added": rec["n_added"],
                          "n_deleted": rec["n_deleted"],
                          "seq": rec["seq"]}))

    elif args.cmd == "export":
        # the docs table of a compacted epoch IS the live view; with
        # pending deltas the live view needs the sequenced-tombstone
        # resolve that compaction performs — refuse rather than export
        # a stale or duplicated table
        _init_ray(args.num_cpus)
        import os

        import ray.data

        from mee_ray import manifest as _mf
        if args.epoch and _mf.alias_filter(args.index, args.epoch):
            # row-level output through a FILTERED alias must honor the
            # filter or refuse — export doesn't implement it, so refuse
            raise SystemExit(
                f"--epoch {args.epoch!r} is a FILTERED alias; export "
                "would silently ignore its filter — export the target "
                "epoch directly or drop the filter")
        man = _mf.load_manifest(args.index, args.epoch)
        if man.get("deltas"):
            raise SystemExit(
                f"epoch {man['epoch']} has {len(man['deltas'])} pending "
                "delta record(s) — run `compact` first so the docs "
                "table is the live view, then export")
        if os.path.isdir(args.out) and os.listdir(args.out):
            # write_parquet appends new files next to old ones — a
            # re-export into a stale dir would silently double rows
            raise SystemExit(f"--out {args.out} is not empty")
        files = _mf.docs_files(args.index, man["epoch"])
        if not files:
            raise SystemExit("no docs files in this epoch")
        (ray.data.read_parquet(files, columns=_mf.DOCS_COLUMNS)
         .write_parquet(args.out))
        n = sum(1 for f in os.listdir(args.out)
                if f.endswith(".parquet"))
        print(json.dumps({"out": args.out, "n_docs": man["n_docs"],
                          "files": n}))

    elif args.cmd == "snapshot":
        from mee_ray import manifest as _mf
        out = _mf.snapshot(args.index, args.dest, args.epoch)
        print(json.dumps({"snapshot": out,
                          "epoch": _mf.current_epoch(out)}))

    elif args.cmd == "metrics":
        import os

        from mee_ray import manifest as mf
        epoch = mf.current_epoch(args.index)
        if epoch is None:
            raise SystemExit(f"no CURRENT epoch in {args.index!r} — "
                             "nothing published yet")
        path = os.path.join(mf.epoch_dir(args.index, epoch), "metrics.json")
        with open(path) as f:
            print(json.dumps(json.load(f)))

    elif args.cmd == "vec-build":
        _init_ray(args.num_cpus)
        import ray.data

        from mee_ray.vecindex import build_vector_index
        ds = ray.data.read_parquet(args.input,
                                   columns=["vec_id", "embedding"])
        m = build_vector_index(ds, args.index, args.epoch,
                               n_clusters=args.clusters)
        print(json.dumps({"epoch": m["epoch"],
                          "n_vectors": m["n_vectors"],
                          "n_clusters": m["n_clusters"],
                          "dim": m["dim"]}))

    elif args.cmd == "vec-query":
        from mee_ray.vecindex import VectorSearcher
        s = VectorSearcher(args.index)
        res = s.search(json.loads(args.vec), k=args.k,
                       nprobe=args.nprobe)
        print(json.dumps({"results": [
            {"vec_id": d, "cosine": sc} for d, sc in res]}))

    elif args.cmd == "vec-delta":
        import pyarrow.parquet as _pq

        from mee_ray.vecindex import apply_vector_delta
        rec = apply_vector_delta(_pq.read_table(args.events), args.index)
        print(json.dumps({"seq": rec["seq"],
                          "n_upserts": rec["n_upserts"],
                          "n_deletes": rec["n_deletes"]}))

    elif args.cmd == "vec-compact":
        from mee_ray.vecindex import compact_vector_index
        m = compact_vector_index(args.index, args.epoch)
        print(json.dumps({"epoch": m["epoch"],
                          "n_vectors": m["n_vectors"]}))

    elif args.cmd == "pipeline":
        import __ray_entry__ as entry_mod
        qs = entry_mod.queries()
        if args.list:
            for name in sorted(qs):
                print(name)
            return 0
        if not args.name or not args.sf_dir:
            p.error("pipeline needs --name and --sf-dir (or --list)")
        if args.name not in qs:
            p.error(f"unknown pipeline {args.name!r} "
                    f"(run --list for the {len(qs)} available)")
        _init_ray(args.num_cpus)
        res = qs[args.name](args.sf_dir)
        import pandas as _pd
        import pyarrow as _pa
        import pyarrow.parquet as _pq
        if hasattr(res, "write_parquet") and args.out:
            res.write_parquet(args.out)   # streams; never a driver table
            n = None
        else:
            if isinstance(res, _pd.DataFrame):
                t = _pa.Table.from_pandas(res, preserve_index=False)
            elif isinstance(res, _pa.Table):
                t = res
            else:
                parts = list(res.iter_batches(
                    batch_format="pyarrow", batch_size=1 << 20))
                # zero-batch results (e.g. an empty pipeline output)
                # must print rows=0, not crash concat_tables — and an
                # --out parquet must keep the query's schema
                if parts:
                    t = _pa.concat_tables(parts)
                else:
                    sch = res.schema()
                    t = _pa.Table.from_pylist([], schema=_pa.schema(
                        list(zip(sch.names, sch.types))))
            if args.out:
                _pq.write_table(t, args.out)
            n = t.num_rows
        if n is None:
            import ray.data as _rd
            n = _rd.read_parquet(args.out).count()
        if args.stats and hasattr(res, "stats"):
            print(res.stats(), file=sys.stderr)
        print(json.dumps({"pipeline": args.name, "rows": int(n),
                          "out": args.out}))

    return 0


if __name__ == "__main__":
    sys.exit(main())
