"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in mee_ray) calls ``ray.init()`` / ``ray.shutdown()``.

- ``entry()``     — flagship pipeline on /root/testdata/sf0.001: build
                    the inverted index over the documents-derived corpus
                    with the real engine, run the reference BM25 query
                    set, return the top-k table.
- ``queries()``   — one callable per implemented operator/pipeline from
                    SURVEY.md §2 (+ the training-data operator family).
- ``oracle_sql()``— DuckDB-equivalent SQL per query where expressible;
                    sketch/approximate ops are rows-only by design and
                    are verified against brute-force oracles in tests/.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    from mee_ray.pipelines.fulltext import bm25_topk_documents
    return bm25_topk_documents("/root/testdata/sf0.001").to_pandas()


def queries() -> dict[str, Callable[[str], Any]]:
    from mee_ray.pipelines import (cluster, docbuild, export, fulltext,
                                   geo, relational, sketches, text,
                                   training, vector)
    from mee_ray.stages import multimodal

    out: dict[str, Callable[[str], Any]] = {}
    out.update(relational.QUERIES)
    out.update(docbuild.QUERIES)
    out.update(text.QUERIES)
    out.update(vector.QUERIES)
    out.update(fulltext.QUERIES)
    out.update(sketches.QUERIES)
    out.update(cluster.QUERIES)
    out.update(geo.QUERIES)
    out.update(export.QUERIES)
    out.update(training.QUERIES)
    out.update(multimodal.QUERIES)
    from mee_ray.pipelines.hybrid import rrf_hybrid_topk
    # rows-only by design (BM25 side is not SQL-expressible); the
    # fusion is exactness-tested against a driver recompute over the
    # two ORACLE-CHECKED component rankings (tests/test_hybrid.py)
    out["rrf_hybrid_topk"] = rrf_hybrid_topk
    return out


def oracle_sql() -> dict[str, str]:
    from mee_ray.pipelines import (cluster, docbuild, export, fulltext,
                                   geo, relational, sketches, text,
                                   training, vector)
    from mee_ray.stages import multimodal

    out: dict[str, str] = {}
    out.update(relational.ORACLE)
    out.update(docbuild.ORACLE)
    out.update(text.ORACLE)
    out.update(vector.ORACLE)
    out.update(fulltext.ORACLE)
    out.update(sketches.ORACLE)
    out.update(cluster.ORACLE)
    out.update(geo.ORACLE)
    out.update(export.ORACLE)
    out.update(training.ORACLE)
    out.update(multimodal.ORACLE)
    return out
