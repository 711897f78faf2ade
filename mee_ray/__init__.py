"""mee_ray — a Ray-Data-native fulltext-index build + BM25 query engine.

A from-scratch reimagining of the *capability* of the reference system
(ioduduk/mee: config-driven MySQL→Elasticsearch fulltext-index
maintenance — full rebuild with atomic alias publish, incremental delta
application, resumable state) as an engine that OWNS the inverted index:

- build path: ``ray.data.read_parquet(corpus)`` → ONE fused
  ``map_batches`` tokenize pass (slim docs table + a posting-row
  exchange on disk) → the exchange through the partitioned groupby
  shuffle → compressed posting-list
  segments (delta + varint, per-block max-impact metadata) → epoch
  manifest → atomic CURRENT pointer swap (the analog of mee's ES alias
  swap, reference services/updateservice.py:252-310).
- delta path: delta event batches → tombstones + delta segments
  (the analog of mee's Kafka→ES SyncService,
  reference services/syncservice.py:53-114).
- query path: top-k BM25, document-at-a-time, exact scoring with a
  deterministic accumulation order so results are rank-identical to the
  pure-Python oracle in :mod:`mee_ray.oracle`.

Nothing here is a port; the reference is row-at-a-time Python 2 against
external MySQL/Kafka/ES/Redis services. See SURVEY.md for the complete
capability mapping with file:line citations.
"""

from mee_ray.config import EngineConfig, TokenizerConfig, BM25Params

__all__ = ["EngineConfig", "TokenizerConfig", "BM25Params"]
