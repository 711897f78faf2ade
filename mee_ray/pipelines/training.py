"""The composed corpus→training-shards pipeline: every stage of a
training-data preparation run chained as ONE Ray Data flow.

    read → language/length filter → exact dedup (keep-lowest-id)
         → near-dup clustering (shared 8-grams → connected components)
         → keep one representative per cluster
         → resumable sharded Parquet export

Each stage exists (and is verified) standalone — text.curated_ids_dataset,
cluster.gram_dup_edges_ds / connected_components, export.export_training_shards
— this module proves they COMPOSE without materializing the corpus on
the driver at any step:

* the curated survivor set is a Dataset, joined to the docs table by
  a ``left_semi`` hash join (``stages.hash_join``; no survivor-id
  broadcast — the survivor set is corpus-sized);
* near-dup clustering reads that same curated Dataset; its output
  (the clustered-node → root map) is bounded by the DUPLICATE count,
  not the corpus, so the drop-set of non-representative nodes is the
  one ray.put broadcast in the chain (the standard small-side rule);
* export streams the kept docs into atomic per-shard files.

Whole chain is SQL-expressible, so the driver hash-checks it
end-to-end (CTE chain: curation → gram self-join → recursive closure
→ representatives → modulo shard counts)."""

from __future__ import annotations

import shutil

import numpy as np
import pyarrow as pa

from mee_ray import stages
from mee_ray.ids import isin_sorted
from mee_ray.pipelines.cluster import connected_components, gram_dup_edges_ds

_GRAM_N = 8
_GRAM_MAX_DF = 50
_N_SHARDS = 16


def corpus_to_training_shards(sf_dir: str) -> pa.Table:
    """Run the full chain; returns (shard, n_docs) of the exported
    representative set (the artifact lands under /tmp/mee_export)."""
    import ray

    from mee_ray.pipelines.export import export_training_shards
    from mee_ray.pipelines.text import curated_ids_dataset

    ids = curated_ids_dataset(sf_dir).select_columns(["doc_id"])
    cur = stages.hash_join(stages.read(sf_dir, "documents",
                                       ["doc_id", "text"]),
                           ids, "doc_id", join_type="left_semi")
    # clustering consumes `cur` a second time: materialize the curated
    # stream once rather than re-running filter+dedup per consumer
    cur = cur.materialize()

    cc = connected_components(
        gram_dup_edges_ds(cur, n=_GRAM_N, max_df=_GRAM_MAX_DF))
    node = cc["node"].to_numpy(zero_copy_only=False)
    root = cc["root"].to_numpy(zero_copy_only=False)
    dropped = np.sort(node[node != root])     # bounded by dup count
    drop_ref = ray.put(dropped)

    def drop_non_reps(t: pa.Table) -> pa.Table:
        return t.filter(pa.array(~isin_sorted(
            t["doc_id"].to_numpy(zero_copy_only=False), ray.get(drop_ref))))

    kept = cur.map_batches(drop_non_reps, batch_format="pyarrow",
                           zero_copy_batch=True)

    # crc32, NOT Python hash(): str hashing is per-process salted, so
    # hash() would mint a fresh /tmp dir every run — leaking exports
    # and making the _SUCCESS resume markers unreachable on retry
    import zlib as _zlib
    out_dir = f"/tmp/mee_export/train_{_zlib.crc32(sf_dir.encode()):08x}"
    shutil.rmtree(out_dir, ignore_errors=True)
    summary = export_training_shards(kept, out_dir, n_shards=_N_SHARDS,
                                     fingerprint=sf_dir)
    return summary.select(["shard", "n_docs"])


def _training_sql() -> str:
    from mee_ray.pipelines.text import CURATE_MIN_TOKENS, TOKEN_PATTERN
    return f"""
WITH RECURSIVE
passing AS (
  SELECT doc_id, md5(text) AS fp,
         len(regexp_extract_all(lower(text), '{TOKEN_PATTERN}'))
           AS n_tokens
  FROM documents
  WHERE lang = 'en'),
pass2 AS (SELECT * FROM passing WHERE n_tokens >= {CURATE_MIN_TOKENS}),
keepfp AS (SELECT fp, min(doc_id) AS doc_id FROM pass2 GROUP BY fp),
cur AS (
  SELECT d.doc_id, d.text FROM documents d
  JOIN keepfp k ON k.doc_id = d.doc_id),
tok AS (SELECT doc_id, string_split(text, ' ') AS ts FROM cur),
grams AS (
  SELECT DISTINCT doc_id,
         md5(array_to_string(list_slice(ts, i, i+{_GRAM_N - 1}), ' ')) AS g
  FROM tok, LATERAL (SELECT unnest(
      generate_series(1, len(ts)-{_GRAM_N - 1})) AS i) s
),
gd AS (
  SELECT g, list_sort(list(DISTINCT doc_id)) AS ds
  FROM grams GROUP BY g
  HAVING count(DISTINCT doc_id) BETWEEN 2 AND {_GRAM_MAX_DF}
),
edges AS (
  SELECT DISTINCT ds[1] AS a, u.b AS b
  FROM gd, LATERAL (SELECT unnest(ds) AS b) u
  WHERE u.b != ds[1]
),
sym AS (SELECT a, b FROM edges UNION SELECT b AS a, a AS b FROM edges),
reach AS (
  SELECT doc_id AS node, doc_id AS r FROM cur
  UNION
  SELECT s.b AS node, reach.r FROM reach JOIN sym s ON s.a = reach.node
),
reps AS (SELECT node AS doc_id FROM reach GROUP BY node
         HAVING min(r) = node)
SELECT CAST(doc_id % {_N_SHARDS} AS INTEGER) AS shard,
       CAST(count(*) AS BIGINT)              AS n_docs
FROM reps GROUP BY 1
"""


QUERIES = {"corpus_to_training_shards": corpus_to_training_shards}
ORACLE = {"corpus_to_training_shards": _training_sql()}
