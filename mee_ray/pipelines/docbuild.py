"""Config-driven document construction — the reference's core feature.

mee's headline capability is YAML-driven cross-table document building:
one *master* table row becomes one document, *slave* config items join
exactly-one-row lookups into it, ``nested`` items attach a capped
list-of-subdocuments, a ``filter`` gates rows, and ``mapping`` renames/
computes fields (reference README.md:80-143, handlerconfig.py:33-570,
commonhandler.py:216-418).  The reference resolves all of it row by
row with N+1 SQL queries per document (LIMIT 1 per lookup,
commonhandler.py:406).

Here the same declarative shape compiles to ONE Ray Data pipeline:

* master        → pruned parallel `read_parquet`
* filter        → vectorized pyarrow mask (reference filterData,
                  commonhandler.py:1398-1444: scalar equality, IN-list,
                  op-dict `== != > >= < <=`)
* slave join    → broadcast hash join: the small side is `ray.put` once
                  and probed inside `map_batches` (no shuffle; the
                  reference's per-row `%__master.col` lookup, J1)
* nested        → child list-of-struct rollup per parent over one
                  ``stages.by_bucket`` shuffle, capped at `limit` (the
                  reference caps nested at 50 children,
                  commonhandler.py:242-248), broadcast back onto the
                  master as sorted parent keys + one list column (J2)
* mapping       → rename or compute via the mee_ray.functions DSL (M5)

Both broadcasts are probed the same way: ``ids.positions_in_sorted``
over the sorted keys, then one ``take`` (a lookup miss takes a null
index, a nested miss the trailing empty list).  Changes overlay the
base tables through ``_changed_keys`` (the keys a :class:`SlaveChange`
touches), ``_without`` and ``_images`` (the drop and the cast steps
``_overlay_rows`` and ``_overlay_dataset`` share).

Adding a ``queries()`` name: build its documents with
:func:`build_documents` (or the delta entry points) from a
:class:`DocSpec`, finish with a vectorized batch map or a
``stages.fold`` + ``stages.collect``, and add it to ``QUERIES`` and
``ORACLE``.

Config validation is eager and mirrors the reference's
IllegalConfigException battery (handlerconfig.py:181-204, 373-374,
501-523): duplicate output fields, unknown columns, nested-in-nested
(impossible by construction — NestedSpec has no nested children),
non-identifier output names.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from mee_ray import stages
from mee_ray.ids import isin_sorted, positions_in_sorted


class IllegalDocSpec(ValueError):
    """Invalid document-builder configuration (eager, at compile)."""


# ------------------------------------------------------------- config


@dataclass(frozen=True)
class JoinSpec:
    """Exactly-one-row lookup join (reference J1: a slave config item
    whose statement binds `%__master.<master_key>`; missing ⇒ nulls,
    like the reference's `{}` + null_value defaults).

    ``on_parent_delete`` mirrors the reference's ``eval_on_deleted``
    (commonhandler.py:996-1007): when a delta DELETES a slave row,
    ``"reeval"`` (default, = eval_on_deleted True) re-evaluates the
    lookup against the post-change table — a same-key row upserted in
    the same batch still resolves; ``"null"`` (= eval_on_deleted False)
    is the reference's deliberately-stale reset: masters referencing a
    deleted key read null even when re-evaluation would find a value
    (e.g. the key was also re-upserted), until a later change touches
    them again."""
    table: str
    key: str                      # join key column in the joined table
    master_key: str               # key column on the master side
    fields: dict[str, str]        # out_field -> source column
    on_parent_delete: str = "reeval"   # "reeval" | "null"


@dataclass(frozen=True)
class NestedSpec:
    """One-to-many nested list (reference J2: NestedHandlerConfigList;
    one level deep only — nested-in-nested is unrepresentable, the
    invariant handlerconfig.py:373-374 enforces by validation)."""
    table: str
    parent_key: str               # column in child referencing master
    master_key: str
    fields: list[str]             # child columns kept in each subdoc
    out: str                      # output list<struct> column
    order_by: str | None = None   # deterministic child order
    limit: int = 50               # reference's nested cap


@dataclass(frozen=True)
class DocSpec:
    master: str
    key: str
    mappings: dict[str, str] = field(default_factory=dict)
    # out_field -> master column (identifier) or functions-DSL expr
    filter: dict | None = None    # reference filterData shape
    joins: tuple = ()
    nested: tuple = ()

    def validate(self) -> None:
        outs = list(self.mappings)
        for j in self.joins:
            outs += list(j.fields)
        outs += [n.out for n in self.nested]
        dup = {o for o in outs if outs.count(o) > 1}
        if dup:
            raise IllegalDocSpec(f"duplicate output fields: {sorted(dup)}")
        for j in self.joins:
            if j.on_parent_delete not in ("reeval", "null"):
                raise IllegalDocSpec(
                    f"join {j.table!r}: on_parent_delete must be "
                    f"'reeval' or 'null', got {j.on_parent_delete!r}")
        bad = [o for o in outs if not o.isidentifier()]
        if bad:
            raise IllegalDocSpec(f"output fields must be identifiers: {bad}")
        if not self.mappings:
            raise IllegalDocSpec("at least one master mapping is required")


# ------------------------------------------------------------- filter


def _filter_mask(t: pa.Table, flt: dict) -> pa.Array:
    """Reference filterData semantics (commonhandler.py:1398-1444):
    scalar ⇒ equality, list ⇒ IN, dict ⇒ {op: value} with
    == != <> > >= < <=; a missing column rejects every row."""
    ops = {"==": pc.equal, "!=": pc.not_equal, "<>": pc.not_equal,
           ">": pc.greater, ">=": pc.greater_equal,
           "<": pc.less, "<=": pc.less_equal}
    mask = pa.array(np.ones(t.num_rows, dtype=bool))
    for col, cond in flt.items():
        if col not in t.schema.names:
            return pa.array(np.zeros(t.num_rows, dtype=bool))
        if isinstance(cond, dict):
            for op, val in cond.items():
                if op not in ops:
                    raise IllegalDocSpec(f"unknown filter op {op!r}")
                mask = pc.and_(mask, ops[op](t[col], pa.scalar(val)))
        elif isinstance(cond, (list, tuple, set)):
            mask = pc.and_(mask, pc.is_in(t[col],
                                          value_set=pa.array(list(cond))))
        else:
            mask = pc.and_(mask, pc.equal(t[col], pa.scalar(cond)))
    return mask


# ------------------------------------------------------------ builder


def _changed_keys(change, key: str) -> list:
    """The sorted ``key`` values a :class:`SlaveChange` touches: its
    deleted keys and its upserted rows' ``key`` column."""
    keys = set(change.delete_keys or ())
    if change.upserts is not None:
        keys |= set(change.upserts[key].to_pylist())
    return sorted(keys)


def _without(t: pa.Table, key: str, drop: list) -> pa.Table:
    """The rows of ``t`` whose ``key`` is not in ``drop``."""
    return t.filter(pc.invert(pc.is_in(
        t[key], value_set=pa.array(drop, t[key].type))))


def _images(change, schema: pa.Schema, cols: list) -> pa.Table | None:
    """The change's upsert row images as the ``cols`` of ``schema``
    (None when it upserts nothing)."""
    if change.upserts is None or not change.upserts.num_rows:
        return None
    return change.upserts.select(cols).cast(
        pa.schema([schema.field(c) for c in cols]))


def _overlay_rows(base: pa.Table, key: str, change) -> pa.Table:
    """Last-writer-wins overlay of a change onto a base table: rows
    whose ``key`` is upserted or deleted are dropped, then the upsert
    row images are appended — the parquet analog of reading the
    CURRENT slave-table state the reference gets from MySQL."""
    base = _without(base, key, _changed_keys(change, key))
    ups = _images(change, base.schema, base.column_names)
    return base if ups is None else pa.concat_tables([base, ups])


def _overlay_dataset(ds, sf_dir: str, table: str, key_col: str,
                     cols: list, change, upsert_filter=None):
    """Dataset-level LWW overlay — the distributed sibling of
    :func:`_overlay_rows` (same drop and cast steps), shared by the
    master and nested paths: drop base row versions whose ``key_col``
    is upserted or deleted, then union the upsert after-images cast to
    the file schema.  ``upsert_filter``: optional pa.Table → pa.Table
    applied to the upsert images before the union (the nested path's
    affected-parents pushdown)."""
    import pyarrow.dataset as pads

    import ray.data
    drop = _changed_keys(change, key_col)
    if drop:
        ds = ds.map_batches(lambda b: _without(b, key_col, drop),
                            batch_format="pyarrow")
    ups = _images(change, pads.dataset(f"{sf_dir}/{table}.parquet",
                                       format="parquet").schema, cols)
    if ups is not None and upsert_filter is not None:
        ups = upsert_filter(ups)
    if ups is not None and ups.num_rows:
        ds = ds.union(ray.data.from_arrow(ups))
    return ds


def _lookup_maps(sf_dir: str, spec: DocSpec, overlays: dict | None = None
                 ) -> dict:
    """Small-side tables → {join_index: (keys sorted np, cols dict)}.
    Built once on the driver and `ray.put` once — every task reads the
    broadcast, nothing is re-shipped per batch.  ``overlays`` maps a
    table name to a :class:`SlaveChange` applied on top of the base
    parquet (the incremental-rebuild path)."""
    import pyarrow.parquet as pq

    out = {}
    for i, j in enumerate(spec.joins):
        cols = sorted(set(j.fields.values()) | {j.key})
        t = pq.read_table(f"{sf_dir}/{j.table}.parquet", columns=cols)
        ch = (overlays or {}).get(j.table)
        if ch is not None:
            t = _overlay_rows(t, j.key, ch)
        order = pc.sort_indices(t[j.key])
        keys = t[j.key].take(order).to_numpy(zero_copy_only=False)
        data = {c: t[c].take(order) for c in cols if c != j.key}
        out[i] = (keys, data)
    return out


def _nested_maps(sf_dir: str, spec: DocSpec, overlays: dict | None = None,
                 parent_filter: dict | None = None) -> list:
    """Child tables rolled up per parent key → one (parent keys sorted,
    list<struct> column aligned with them plus one trailing empty list)
    per nested spec, via one bucketed shuffle — the J2 rollup —
    then collected for broadcast (children per parent are capped, so
    the rollup is bounded; at larger-than-driver child tables this
    broadcast becomes a hash join on the master key).  A master probes
    the keys with ``positions_in_sorted`` and takes its list; a miss
    takes the trailing empty list.

    Incremental mode: ``parent_filter[table]`` restricts the read (and
    the shuffle) to affected parents' children only, and
    ``overlays[table]`` upserts/deletes child rows by the change's
    ``child_key`` identity before the rollup."""
    import pyarrow.dataset as pads

    import ray.data
    out = []
    for n in spec.nested:
        ch = (overlays or {}).get(n.table)
        pf = (parent_filter or {}).get(n.table)
        cols = sorted(set(n.fields) | {n.parent_key}
                      | ({n.order_by} if n.order_by else set())
                      | ({ch.child_key} if ch is not None else set()))
        read_kw = {}
        if pf is not None:
            # row-filter pushdown: only affected parents' children leave
            # storage; the J2 shuffle shrinks to the changed working set
            read_kw["filter"] = pads.field(n.parent_key).isin(sorted(pf))
        ds = ray.data.read_parquet(f"{sf_dir}/{n.table}.parquet",
                                   columns=cols, **read_kw)
        if ch is not None:
            parent_push = None
            if pf is not None:
                def parent_push(ups, n=n, pf=pf):
                    return ups.filter(pc.is_in(
                        ups[n.parent_key],
                        value_set=pa.array(sorted(pf),
                                           ups[n.parent_key].type)))
            ds = _overlay_dataset(ds, sf_dir, n.table, ch.child_key,
                                  cols, ch, upsert_filter=parent_push)
        # EXPLICIT output type from the child file schema: an all-miss
        # batch would otherwise infer list<null> while sibling batches
        # infer list<struct<...>>, giving the Dataset conflicting
        # block schemas (concat/write then fails)
        fschema = pads.dataset(f"{sf_dir}/{n.table}.parquet",
                               format="parquet").schema
        subtype = pa.list_(pa.struct(
            [pa.field(f, fschema.field(f).type) for f in n.fields]))

        def rollup_bucket(g: pa.Table, n=n) -> pa.Table:
            """Every parent of a bucket in one vectorized sort +
            segmented-rank pass: children ordered, capped at the
            reference's ``limit``, cut into one list per parent."""
            parent = g[n.parent_key].to_numpy(zero_copy_only=False)
            order = (np.lexsort((g[n.order_by].to_numpy(
                zero_copy_only=False), parent)) if n.order_by
                else np.argsort(parent, kind="stable"))
            parent = parent[order]
            new = np.ones(len(parent), dtype=bool)
            new[1:] = parent[1:] != parent[:-1]
            pos = np.arange(len(parent))
            keep = (pos - np.maximum.accumulate(np.where(new, pos, 0))
                    < n.limit)
            g = g.take(pa.array(order[keep]))
            starts = np.flatnonzero(new[keep])
            return pa.table({
                "parent": pa.array(parent[keep][starts]),
                "subs": pa.ListArray.from_arrays(
                    pa.array(np.r_[starts, len(g)], pa.int32()),
                    pa.StructArray.from_arrays(
                        [g[f].combine_chunks() for f in n.fields],
                        names=n.fields))})

        t = stages.collect(
            stages.by_bucket(ds, n.parent_key, rollup_bucket, 256),
            pa.schema([("parent", fschema.field(n.parent_key).type),
                       ("subs", subtype)])).sort_by("parent")
        out.append((t["parent"].to_numpy(zero_copy_only=False),
                    pa.concat_arrays([*t["subs"].chunks,
                                      pa.array([[]], subtype)])))
    return out


def build_documents(sf_dir: str, spec: DocSpec,
                    _overlays: dict | None = None,
                    _master_keep: dict | None = None,
                    _nested_parent_filter: dict | None = None,
                    _join_reset_keys: dict | None = None):
    """Compile the spec into a Ray Dataset of documents.

    The underscore parameters are the incremental-rebuild hooks used by
    :func:`apply_join_delta`: ``_master_keep`` restricts the master
    read to affected rows (column → value set, OR-combined),
    ``_overlays`` applies changed slave rows on top of the base
    parquet, ``_nested_parent_filter`` bounds the nested rollup to
    affected parents, and ``_join_reset_keys`` (join index → sorted
    key values) forces the join's fields to null for masters whose key
    is in the set (the ``on_parent_delete: "null"`` reset)."""
    import ray
    import ray.data

    from mee_ray.functions import compile_expr
    from mee_ray.functions.interp import (compile_template, is_template,
                                          template_columns)

    spec.validate()

    # compile mapping expressions ONCE (reference validates config at
    # load; a bad expr fails here, not inside a task).  Three mapping
    # kinds: bare identifier = rename, functions DSL (M5), "%"
    # template interpolation (M4, reference commonhandler.py:437-487).
    # Dispatch order matters: a valid DSL expr may contain "%<word>"
    # inside a quoted string literal (e.g. echo('%x')), so the DSL
    # compiler gets first try and templates only claim strings the
    # DSL rejects — "%" is not a DSL operator, so genuine templates
    # always fall through.
    exprs = {}
    for out_f, src in spec.mappings.items():
        if src.isidentifier():
            exprs[out_f] = ("col", src)
            continue
        try:
            exprs[out_f] = ("expr", compile_expr(src))
        except Exception:
            if "%" in src and is_template(src):
                exprs[out_f] = ("interp", compile_template(src))
            else:
                raise

    lookups_ref = ray.put(_lookup_maps(sf_dir, spec, _overlays))
    nested_ref = (ray.put(_nested_maps(sf_dir, spec, _overlays,
                                       _nested_parent_filter))
                  if spec.nested else None)

    # outputs produced by the spec itself — template refs to these
    # resolve from the computed namespace, not the master read
    produced = (set(spec.mappings)
                | {f for j in spec.joins for f in j.fields}
                | {n.out for n in spec.nested})
    master_cols = sorted(
        {spec.key}
        | {src for f, src in spec.mappings.items() if src.isidentifier()}
        | {j.master_key for j in spec.joins}
        | {n.master_key for n in spec.nested}
        | ({c for c in (spec.filter or {})})
        # DSL exprs evaluate against the RAW master batch, so their
        # source columns must always be read — even when an output
        # field reuses its source column's name (normalize-in-place).
        # Only template refs resolve from the computed namespace, so
        # only they may skip the read when produced by the spec.
        | {src_col for out_f, (kind, _) in exprs.items() if kind == "expr"
           for src_col in _expr_columns(spec.mappings[out_f])}
        | {src_col for out_f, (kind, _) in exprs.items() if kind == "interp"
           for src_col in template_columns(spec.mappings[out_f])
           if src_col not in produced})
    # a defaulted template ref may name a column absent from the master
    # file (resolved to its default at eval) — keep template-derived
    # names out of the pruned read unless the file actually has them
    _tmpl_cols = {c for out_f, (kind, _) in exprs.items() if kind == "interp"
                  for c in template_columns(spec.mappings[out_f])}
    if _tmpl_cols:
        import pyarrow.dataset as _pads
        _footer = set(_pads.dataset(f"{sf_dir}/{spec.master}.parquet",
                                    format="parquet").schema.names)
        master_cols = [c for c in master_cols
                       if c not in _tmpl_cols or c in _footer]

    def build(batch: pa.Table) -> pa.Table:
        if spec.filter:
            batch = batch.filter(_filter_mask(batch, spec.filter))
        cols: dict[str, pa.Array] = {}
        for out_f, (kind, v) in exprs.items():
            if kind == "col":
                cols[out_f] = batch[v]
            elif kind == "expr":
                val = v(batch)
                if isinstance(val, pa.Scalar):
                    # constant-only expr (e.g. echo('100%')) yields a
                    # scalar — broadcast to the batch
                    val = pa.array([val.as_py()] * batch.num_rows,
                                   type=val.type)
                cols[out_f] = val
            # "interp" evaluates after joins/nested: its namespace is
            # the full document (reference templates resolve against
            # the whole context, commonhandler.py:437-487)
        lookups = ray.get(lookups_ref)
        for i, j in enumerate(spec.joins):
            keys, data = lookups[i]
            probe = batch[j.master_key].to_numpy(zero_copy_only=False)
            pos, hit = positions_in_sorted(probe, keys)
            reset = (_join_reset_keys or {}).get(i)
            if reset is not None:
                # on_parent_delete="null": masters referencing a
                # deleted slave key read null, never a re-evaluated row
                hit &= ~isin_sorted(probe, reset)
            # a miss takes a null index: the missing ⇒ nulls contract
            idx = pa.array(pos, pa.int64(), mask=~hit)
            for out_f, src in j.fields.items():
                cols[out_f] = data[src].take(idx)
        if nested_ref is not None:
            for n, (keys, subs) in zip(spec.nested, ray.get(nested_ref)):
                # a miss takes the trailing empty list
                pos, hit = positions_in_sorted(
                    batch[n.master_key].to_numpy(zero_copy_only=False),
                    keys)
                cols[n.out] = subs.take(pa.array(
                    np.where(hit, pos, len(keys)), pa.int64()))
        interp_outs = [f for f, (k, _) in exprs.items() if k == "interp"]
        if interp_outs:
            # namespace = master columns overlaid with computed fields
            ns_cols = {c: batch[c] for c in batch.column_names}
            ns_cols.update(cols)
            ns = pa.table(ns_cols)
            for out_f in interp_outs:
                cols[out_f] = exprs[out_f][1](ns)
            # restore declared output order (mappings, joins, nested)
            order = (list(spec.mappings)
                     + [f for j in spec.joins for f in j.fields]
                     + [n.out for n in spec.nested])
            cols = {f: cols[f] for f in order if f in cols}
        return pa.table(cols)

    read_kw = {}
    if _master_keep is not None:
        # reverse-query pushdown: only masters referencing a changed
        # slave key leave storage (OR across the affected key columns)
        import functools

        import pyarrow.dataset as pads
        exprs_keep = [pads.field(c).isin(sorted(v))
                      for c, v in _master_keep.items()]
        read_kw["filter"] = functools.reduce(lambda a, b: a | b, exprs_keep)
    ds = ray.data.read_parquet(f"{sf_dir}/{spec.master}.parquet",
                               columns=master_cols, **read_kw)
    mch = (_overlays or {}).get(spec.master)
    if mch is not None:
        # master-table overlay: drop changed/deleted row versions from
        # the base read, union the upsert after-images
        ds = _overlay_dataset(ds, sf_dir, spec.master, spec.key,
                              master_cols, mch)
    return ds.map_batches(build, batch_format="pyarrow",
                          zero_copy_batch=True)


# ------------------------------------------- incremental slave deltas


@dataclass(frozen=True)
class SlaveChange:
    """One batch of changes to a joined (slave) table.

    ``upserts`` holds NEW row images (INSERT and the after-image of
    UPDATE); ``delete_keys`` holds deleted key values.  For a
    :class:`JoinSpec` table the key is the join key (``JoinSpec.key``);
    for a :class:`NestedSpec` table rows are identified by
    ``child_key`` (a unique child id column, e.g. ``o_orderkey``) —
    required so an upsert can replace the child's previous version even
    when the child MOVED to a different parent."""
    table: str
    upserts: pa.Table | None = None
    delete_keys: tuple = ()
    child_key: str | None = None


def affected_master_keys(sf_dir: str, spec: DocSpec,
                         changes: "list[SlaveChange]") -> tuple[dict, dict]:
    """The reverse query (reference commonhandler.py:133-203): which
    master rows' documents are invalidated by these slave changes?

    Returns ``(master_keep, nested_parents)``:

    - master_keep: master column → set of key values; a master row is
      affected iff any column hits its set (OR — pushed down into the
      master read as a row filter)
    - nested_parents: child table → set of parent keys whose rollups
      must be recomputed (bounds the incremental J2 shuffle)

    For nested children the OLD parent of a moved/deleted child is
    found by scanning the base child table for the changed child ids —
    a pruned two-column read, not a shuffle."""
    import pyarrow.parquet as pq

    master_keep: dict[str, set] = {}
    nested_parents: dict[str, set] = {}
    for ch in changes:
        for j in spec.joins:
            if j.table != ch.table:
                continue
            master_keep.setdefault(j.master_key, set()).update(
                _changed_keys(ch, j.key))
        for n in spec.nested:
            if n.table != ch.table:
                continue
            if ch.child_key is None:
                raise IllegalDocSpec(
                    f"changes to nested table {ch.table!r} require "
                    f"child_key (a unique child id column)")
            parents = set()
            ids = _changed_keys(ch, ch.child_key)
            if ch.upserts is not None:
                parents |= set(ch.upserts[n.parent_key].to_pylist())
            if ids:
                t = pq.read_table(f"{sf_dir}/{n.table}.parquet",
                                  columns=[ch.child_key, n.parent_key],
                                  filters=[(ch.child_key, "in", ids)])
                parents |= set(t[n.parent_key].to_pylist())
            master_keep.setdefault(n.master_key, set()).update(parents)
            nested_parents.setdefault(n.table, set()).update(parents)
    return master_keep, nested_parents


def apply_join_delta(sf_dir: str, spec: DocSpec,
                     changes: "SlaveChange | list[SlaveChange]"):
    """Incremental slave-table propagation (reference J3 write side:
    reverse-query derivation commonhandler.py:133-203 + the slave
    branches of the event processors :646-858): given changed rows of
    joined tables, derive the affected master keys and re-emit exactly
    those documents, built against the base tables WITH the changes
    overlaid (the parquet analog of re-reading current MySQL state).

    Returns a Ray Dataset of the re-emitted documents — feed it to the
    index's tombstone + re-add path (documents are atomic, so a slave
    change re-emits the whole document, the same delete+reinsert
    generalization the anchor-field semantics use)."""
    if isinstance(changes, SlaveChange):
        changes = [changes]
    spec.validate()
    known = ({j.table for j in spec.joins}
             | {n.table for n in spec.nested})
    for ch in changes:
        if ch.table not in known:
            raise IllegalDocSpec(
                f"{ch.table!r} is not a joined table of this spec "
                f"(joined: {sorted(known)})")
    tables = [ch.table for ch in changes]
    dup_tables = sorted({t for t in tables if tables.count(t) > 1})
    if dup_tables:
        # the overlay machinery applies ONE change per table; merging
        # several (later-wins upserts, delete/revive ordering) is the
        # caller's event-fold — refusing loudly beats rebuilding docs
        # against only the last change's overlay
        raise IllegalDocSpec(
            f"multiple SlaveChanges for table(s) {dup_tables}: fold "
            f"them into one change per table (upserts are final "
            f"after-images, delete_keys final deletions)")
    master_keep, nested_parents = affected_master_keys(sf_dir, spec, changes)
    if not master_keep:
        master_keep = {spec.key: set()}   # no hits → empty doc set
    if spec.nested:
        # every re-emitted document needs its nested rollup, including
        # masters affected only via a lookup-table change — resolve the
        # COMPLETE affected-parent set with one pruned master read
        # (bounded by the change's blast radius, driver-collectable)
        import pyarrow.parquet as pq
        dnf = [[(c, "in", sorted(v))] for c, v in master_keep.items() if v]
        for n in spec.nested:
            nested_parents.setdefault(n.table, set())
        if dnf:
            mt = pq.read_table(
                f"{sf_dir}/{spec.master}.parquet",
                columns=sorted({n.master_key for n in spec.nested}),
                filters=dnf)
            for n in spec.nested:
                nested_parents[n.table].update(
                    mt[n.master_key].to_pylist())
    overlays = {ch.table: ch for ch in changes}
    # on_parent_delete="null" joins: masters referencing a deleted
    # slave key get that join's fields reset to null instead of
    # re-evaluated — even when the batch also re-upserts the key (the
    # reference's deliberately-stale reset, eval_on_deleted=False,
    # commonhandler.py:996-1007)
    reset_keys: dict[int, np.ndarray] = {}
    for i, j in enumerate(spec.joins):
        if j.on_parent_delete != "null":
            continue
        dead = {k for ch in changes if ch.table == j.table
                for k in (ch.delete_keys or ())}
        if dead:
            reset_keys[i] = np.array(sorted(dead))
    return build_documents(sf_dir, spec,
                           _overlays=overlays,
                           _master_keep=master_keep,
                           _nested_parent_filter=nested_parents,
                           _join_reset_keys=reset_keys or None)


def apply_master_delta(sf_dir: str, spec: DocSpec, change: SlaveChange):
    """Master-table change events through the config filter — the
    reference's filter-boundary rewrite (commonhandler.py:549-585): an
    UPDATE whose after-image LEAVES the filter becomes a document
    DELETE; one whose after-image ENTERS it becomes an INSERT; one that
    stays inside re-emits the document.

    ``change.upserts`` are after-images carrying every master column
    the spec reads; ``change.delete_keys`` are removed master keys.
    Returns ``(docs, deleted)``: the re-emitted documents Dataset
    (affected masters whose after-image passes the filter, built
    against the overlaid master) and a table of master keys whose
    documents must be tombstoned."""
    import pyarrow.parquet as pq

    spec.validate()
    if change.table != spec.master:
        raise IllegalDocSpec(
            f"apply_master_delta got changes for {change.table!r}, "
            f"spec master is {spec.master!r}")
    affected = set(_changed_keys(change, spec.key))
    # master keys keep their table's own type (string keys are legal;
    # hard-coding int64 made apply_master_delta crash on them)
    key_type = pq.read_schema(
        f"{sf_dir}/{spec.master}.parquet").field(spec.key).type
    deleted_schema = pa.schema([(spec.key, key_type)])
    if not affected:
        return (build_documents(sf_dir, spec,
                                _master_keep={spec.key: set()}),
                pa.Table.from_pylist([], schema=deleted_schema))

    # after-image of every affected master (base rows for keys only
    # touched by deletes, upsert rows for the rest) — the change's
    # blast radius, so a driver-side read is bounded
    need_cols = sorted({spec.key}
                       | set((spec.filter or {}))
                       | {n.master_key for n in spec.nested})
    base = pq.read_table(f"{sf_dir}/{spec.master}.parquet",
                         columns=need_cols,
                         filters=[(spec.key, "in", sorted(affected))])
    after = _overlay_rows(base, spec.key, change)
    mask = (_filter_mask(after, spec.filter) if spec.filter
            else pa.array(np.ones(after.num_rows, dtype=bool)))
    passing = after.filter(mask)
    passing_keys = set(passing[spec.key].to_pylist())
    deleted = sorted(affected - passing_keys)

    nested_parents = {n.table: set(passing[n.master_key].to_pylist())
                      for n in spec.nested}
    docs = build_documents(sf_dir, spec,
                           _overlays={spec.master: change},
                           _master_keep={spec.key: affected},
                           _nested_parent_filter=nested_parents)
    return docs, pa.table({spec.key: pa.array(deleted, key_type)})


def _expr_columns(expr: str) -> list[str]:
    """Column identifiers referenced by a mapping DSL expression (for
    read pruning)."""
    import re

    from mee_ray.functions.scalar import _REGISTRY
    idents = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", expr))
    return sorted(idents - set(_REGISTRY))


# --------------------------------------------------- driver contract --


def docbuild_customer_flat(sf_dir: str):
    """Config-driven flat document: filter + broadcast nation lookup +
    DSL-computed field — the reference's index_carteam_user.yml shape
    on TPC-H-ish tables.  Uses the SAME spec as the delta queries
    (_customer_flat_spec) so they cannot drift apart."""
    return build_documents(sf_dir, _customer_flat_spec())


DOCBUILD_FLAT_SQL = """
SELECT c_custkey AS cust_id,
       c_name    AS cust_name,
       least(c_acctbal, 5000.0) AS balance_capped,
       n_name    AS nation_name
FROM customer LEFT JOIN nation ON c_nationkey = n_nationkey
WHERE c_mktsegment IN ('BUILDING', 'AUTOMOBILE') AND c_acctbal > 0.0
"""


def docbuild_nested_summary(sf_dir: str):
    """Nested one-to-many documents (orders per customer, ordered,
    capped at the reference's 50-child limit), verified through a flat
    projection of the nested column — list contents are proven by
    count/first/last/integer-exact spend, which SQL can mirror."""
    spec = DocSpec(
        master="customer", key="c_custkey",
        mappings={"cust_id": "c_custkey"},
        nested=(NestedSpec("orders", "o_custkey", "c_custkey",
                           fields=["o_orderkey", "o_totalprice"],
                           out="orders", order_by="o_orderkey", limit=50),),
    )
    docs = build_documents(sf_dir, spec)

    def flatten(t: pa.Table) -> pa.Table:
        col = t["orders"].combine_chunks()
        off = col.offsets.to_numpy(zero_copy_only=False)
        n = np.diff(off)
        none = n == 0
        keys = col.values.field("o_orderkey").to_numpy(zero_copy_only=False)
        cents = np.r_[0, np.cumsum(stages.cents_of(col.values.field(
            "o_totalprice")).to_numpy(zero_copy_only=False))]
        start = np.minimum(off[:-1], len(keys) - 1)
        return pa.table({
            "cust_id": t["cust_id"].cast(pa.int64()),
            "n_orders": pa.array(n, pa.int64()),
            "first_orderkey": pa.array(keys[start] if len(keys) else n,
                                       pa.int64(), mask=none),
            "last_orderkey": pa.array(keys[off[1:] - 1] if len(keys) else n,
                                      pa.int64(), mask=none),
            "spend_cents": pa.array(cents[off[1:]] - cents[off[:-1]],
                                    pa.int64(), mask=none),
        })

    return docs.map_batches(flatten, batch_format="pyarrow")


DOCBUILD_NESTED_SQL = """
WITH ranked AS (
  SELECT o_custkey, o_orderkey, o_totalprice,
         row_number() OVER (PARTITION BY o_custkey ORDER BY o_orderkey) rn
  FROM orders
)
SELECT c_custkey AS cust_id,
       count(o_orderkey)  AS n_orders,
       min(o_orderkey)    AS first_orderkey,
       max(o_orderkey)    AS last_orderkey,
       CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS spend_cents
FROM customer
LEFT JOIN ranked ON o_custkey = c_custkey AND rn <= 50
GROUP BY c_custkey
"""


def _customer_flat_spec() -> DocSpec:
    return DocSpec(
        master="customer", key="c_custkey",
        mappings={
            "cust_id": "c_custkey",
            "cust_name": "c_name",
            "balance_capped": "min(c_acctbal, echo(5000.0))",
        },
        filter={"c_mktsegment": ["BUILDING", "AUTOMOBILE"],
                "c_acctbal": {">": 0.0}},
        joins=(JoinSpec("nation", "n_nationkey", "c_nationkey",
                        {"nation_name": "n_name"}),),
    )


def docbuild_slave_delta(sf_dir: str):
    """J3 write side: a deterministic change batch on the joined
    `nation` table (rename every 5th nation, delete nation 3) →
    re-emit exactly the affected customer documents with the changed
    lookup values applied (deleted nation ⇒ null, the reference's
    null_value default)."""
    import pyarrow.parquet as pq

    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"])
    keys = nat["n_nationkey"].to_numpy(zero_copy_only=False)
    up = nat.filter(pa.array((keys % 5 == 0) & (keys != 3)))
    upserts = pa.table({
        "n_nationkey": up["n_nationkey"],
        "n_name": pa.array([s + "_X" for s in up["n_name"].to_pylist()]),
    })
    change = SlaveChange("nation", upserts=upserts, delete_keys=(3,))
    return apply_join_delta(sf_dir, _customer_flat_spec(), change)


DOCBUILD_SLAVE_DELTA_SQL = """
WITH changed AS (
  SELECT n_nationkey FROM nation WHERE n_nationkey % 5 = 0 OR n_nationkey = 3
), nation2 AS (
  SELECT n_nationkey,
         CASE WHEN n_nationkey % 5 = 0 THEN n_name || '_X' ELSE n_name END
           AS n_name
  FROM nation WHERE n_nationkey <> 3
)
SELECT c_custkey AS cust_id,
       c_name    AS cust_name,
       least(c_acctbal, 5000.0) AS balance_capped,
       n2.n_name AS nation_name
FROM customer LEFT JOIN nation2 n2 ON c_nationkey = n2.n_nationkey
WHERE c_mktsegment IN ('BUILDING', 'AUTOMOBILE') AND c_acctbal > 0.0
  AND c_nationkey IN (SELECT n_nationkey FROM changed)
"""


def docbuild_master_delta(sf_dir: str):
    """Filter-boundary master delta: a deterministic change batch on
    the master `customer` table — every key ≡0 (mod 100) drops below
    the balance filter (→ document DELETE, not emitted), every key ≡1
    enters the segment+balance filter (→ INSERT), key 5 is deleted —
    re-emits exactly the affected documents whose after-image passes
    the config filter."""
    import pyarrow.parquet as pq

    cols = ["c_custkey", "c_name", "c_acctbal", "c_mktsegment",
            "c_nationkey"]
    cust = pq.read_table(f"{sf_dir}/customer.parquet", columns=cols)
    keys = cust["c_custkey"].to_numpy(zero_copy_only=False)
    sel = ((keys % 100 == 0) | (keys % 100 == 1)) & (keys != 5)
    up = cust.filter(pa.array(sel))
    uk = up["c_custkey"].to_numpy(zero_copy_only=False)
    enter = uk % 100 == 1
    acct = np.where(enter, 100.0, -50.0)
    seg = pa.array(np.where(
        enter, "BUILDING",
        up["c_mktsegment"].to_numpy(zero_copy_only=False)).tolist())
    upserts = pa.table({
        "c_custkey": up["c_custkey"],
        "c_name": up["c_name"],
        "c_acctbal": pa.array(acct, pa.float64()),
        "c_mktsegment": seg,
        "c_nationkey": up["c_nationkey"],
    })
    change = SlaveChange("customer", upserts=upserts, delete_keys=(5,))
    docs, _deleted = apply_master_delta(sf_dir, _customer_flat_spec(),
                                        change)
    return docs


DOCBUILD_MASTER_DELTA_SQL = """
WITH affected AS (
  SELECT c_custkey FROM customer
  WHERE c_custkey % 100 IN (0, 1) OR c_custkey = 5
), cust2 AS (
  SELECT c_custkey, c_name,
         CASE WHEN c_custkey % 100 = 0 THEN -50.0
              WHEN c_custkey % 100 = 1 THEN 100.0
              ELSE c_acctbal END AS c_acctbal,
         CASE WHEN c_custkey % 100 = 1 THEN 'BUILDING'
              ELSE c_mktsegment END AS c_mktsegment,
         c_nationkey
  FROM customer WHERE c_custkey <> 5
)
SELECT c_custkey AS cust_id,
       c_name    AS cust_name,
       least(c_acctbal, 5000.0) AS balance_capped,
       n_name    AS nation_name
FROM cust2 LEFT JOIN nation ON c_nationkey = n_nationkey
WHERE c_mktsegment IN ('BUILDING', 'AUTOMOBILE') AND c_acctbal > 0.0
  AND c_custkey IN (SELECT c_custkey FROM affected)
"""


def docbuild_interpolated(sf_dir: str):
    """M4 — `%` template interpolation in document mappings (reference
    commonhandler.py:31-39 regexes, exp_value :437-487): whole-value
    templates keep native types, embedded expressions stringify, `%%`
    escapes, `:(default)` fills nulls/misses.  The join is keyed
    c_custkey→n_nationkey so most lookups MISS and the default path is
    exercised on real data."""
    spec = DocSpec(
        master="customer", key="c_custkey",
        mappings={
            "cust_id": "c_custkey",
            # whole-value template → native double passthrough
            "acctbal_native": "%c_acctbal",
            # mixed template: literal text + int stringify + qualified
            # %__master.field form (never fires its default: the
            # column is non-null)
            "label": "cust-%c_custkey@%__master.c_mktsegment:('NONE')",
            # %% escape + defaulted ref to a JOIN output (misses for
            # every c_custkey outside the 25 nation keys)
            "tag": "%%-%small_nation:('unknown')",
        },
        joins=(JoinSpec("nation", "n_nationkey", "c_custkey",
                        {"small_nation": "n_name"}),),
    )
    return build_documents(sf_dir, spec)


DOCBUILD_INTERP_SQL = """
SELECT c_custkey AS cust_id,
       c_acctbal AS acctbal_native,
       'cust-' || CAST(c_custkey AS VARCHAR) || '@' || c_mktsegment AS label,
       '%-' || coalesce(n_name, 'unknown') AS tag,
       n_name AS small_nation
FROM customer LEFT JOIN nation ON n_nationkey = c_custkey
"""


# ------------------------------------------------- multi-index config --

# One config, MANY collections (reference HandlerConfig,
# handlerconfig.py:33-119): top level is index_alias → type_name →
# spec.  The YAML exercises the loadFromFile conventions the reference
# ships — a `__`-prefixed anchor-definitions block that is dropped
# after parsing (handlerconfig.py:67-69) and YAML merge keys reusing
# the shared nation join.
MULTI_INDEX_YAML = """\
__defs:
  nation_join: &nation_join
    table: nation
    key: n_nationkey
    fields: {nation_name: n_name}

customers:
  flat:
    master: customer
    key: c_custkey
    mappings: {doc_key: c_custkey}
    filter:
      c_mktsegment: [BUILDING, AUTOMOBILE]
    joins:
      - <<: *nation_join
        master_key: c_nationkey

suppliers:
  flat:
    master: supplier
    key: s_suppkey
    mappings: {doc_key: s_suppkey}
    joins:
      - <<: *nation_join
        master_key: s_nationkey
"""


def docbuild_multi_index(sf_dir: str):
    """Multi-index-per-config: load ONE config holding two collections
    (customers.flat filtered + nation-joined; suppliers.flat
    nation-joined), build both, and emit the per-collection per-nation
    document census — every row proves a (index_alias, type_name)
    collection materialized through its own filter + join."""
    import tempfile

    from mee_ray.pipelines.docspec_io import load_multispec

    fd, path = tempfile.mkstemp(suffix=".yml")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(MULTI_INDEX_YAML)
        mspec = load_multispec(path)
    finally:
        os.unlink(path)

    # each census is collected on its own: a Ray union of two grouped
    # Datasets makes no progress on a 1-CPU cluster
    parts = []
    for idx, typ, spec in mspec:
        t = stages.collect(stages.fold(
            build_documents(sf_dir, spec), lambda b: pa.table({
                "nation_name": b["nation_name"],
                "n_docs": pa.array(np.ones(b.num_rows, np.int64))}),
            "nation_name", "n_docs"), "nation_name:str n_docs")
        parts.append(pa.table({
            "index_alias": pa.array([idx] * t.num_rows, pa.string()),
            "type_name": pa.array([typ] * t.num_rows, pa.string()),
            "nation_name": t["nation_name"], "n_docs": t["n_docs"]}))
    return pa.concat_tables(parts)


DOCBUILD_MULTI_INDEX_SQL = """
SELECT 'customers' AS index_alias, 'flat' AS type_name,
       n_name AS nation_name, count(*) AS n_docs
FROM customer LEFT JOIN nation ON c_nationkey = n_nationkey
WHERE c_mktsegment IN ('BUILDING', 'AUTOMOBILE')
GROUP BY n_name
UNION ALL
SELECT 'suppliers', 'flat', n_name, count(*)
FROM supplier LEFT JOIN nation ON s_nationkey = n_nationkey
GROUP BY n_name
"""


# ------------------------------------------------------ nested query --

NESTED_QUERY_MIN_PRICE = 450_000.0


def docbuild_nested_query(sf_dir: str):
    """Nested query over built documents (the ES ``nested`` query —
    'masters where ANY nested child matches', the read side of the
    reference's headline nested feature, README.md:11-13): customers
    whose (capped, ordered) nested order list contains an order above
    {NESTED_QUERY_MIN_PRICE}, with the count of matching children.
    The child predicate is evaluated VECTORIZED on the list column
    (list_flatten + list_parent_indices + bincount) — never a Python
    loop over sub-documents."""
    spec = DocSpec(
        master="customer", key="c_custkey",
        mappings={"cust_id": "c_custkey"},
        nested=(NestedSpec("orders", "o_custkey", "c_custkey",
                           fields=["o_orderkey", "o_totalprice"],
                           out="orders", order_by="o_orderkey",
                           limit=50),),
    )
    docs = build_documents(sf_dir, spec)

    def nested_match(t: pa.Table) -> pa.Table:
        col = t["orders"].combine_chunks()
        flat = pc.list_flatten(col)
        parent = pc.list_parent_indices(col).to_numpy(
            zero_copy_only=False)
        hit = pc.greater(flat.field("o_totalprice"),
                         pa.scalar(NESTED_QUERY_MIN_PRICE)) \
            .to_numpy(zero_copy_only=False)
        n_match = np.bincount(parent[hit], minlength=t.num_rows) \
            .astype(np.int64)
        keep = n_match > 0
        return pa.table({
            "cust_id": t["cust_id"].filter(pa.array(keep)),
            "n_matching_orders": pa.array(n_match[keep], pa.int64())})

    return docs.map_batches(nested_match, batch_format="pyarrow")


DOCBUILD_NESTED_QUERY_SQL = f"""
WITH ranked AS (
  SELECT o_custkey, o_orderkey, o_totalprice,
         row_number() OVER (PARTITION BY o_custkey ORDER BY o_orderkey) rn
  FROM orders)
SELECT o_custkey AS cust_id,
       count(*) AS n_matching_orders
FROM ranked
WHERE rn <= 50 AND o_totalprice > {NESTED_QUERY_MIN_PRICE}
GROUP BY o_custkey
"""


QUERIES = {
    "docbuild_customer_flat": docbuild_customer_flat,
    "docbuild_interpolated": docbuild_interpolated,
    "docbuild_nested_summary": docbuild_nested_summary,
    "docbuild_slave_delta": docbuild_slave_delta,
    "docbuild_master_delta": docbuild_master_delta,
    "docbuild_nested_query": docbuild_nested_query,
    "docbuild_multi_index": docbuild_multi_index,
}

ORACLE = {
    "docbuild_customer_flat": DOCBUILD_FLAT_SQL,
    "docbuild_interpolated": DOCBUILD_INTERP_SQL,
    "docbuild_nested_summary": DOCBUILD_NESTED_SQL,
    "docbuild_slave_delta": DOCBUILD_SLAVE_DELTA_SQL,
    "docbuild_master_delta": DOCBUILD_MASTER_DELTA_SQL,
    "docbuild_nested_query": DOCBUILD_NESTED_QUERY_SQL,
    "docbuild_multi_index": DOCBUILD_MULTI_INDEX_SQL,
}
