"""Knowledge-graph data substrate.

This subpackage provides:

* :class:`~repro.datasets.knowledge_graph.KnowledgeGraph` — an immutable
  container of (head, relation, tail) index triplets with train/valid/test
  splits and fast filtered-ranking lookup structures.
* Synthetic generators that produce miniature knowledge graphs with a
  controlled mix of relation patterns (symmetric, anti-symmetric, inverse,
  general asymmetric), standing in for WN18 / FB15k / WN18RR / FB15k-237 /
  YAGO3-10 whose full dumps cannot be trained on in this environment.
* Relation-pattern statistics reproducing the counting rule of Table III.
* A registry mapping benchmark names to generator profiles.
* TSV loaders/writers compatible with the common ``head\trelation\ttail``
  benchmark format, so real dumps can be substituted in when available.
* A streaming sharded pipeline (:mod:`repro.datasets.pipeline`):
  fixed-size ``.npy`` triple shards + JSON manifest, a chunked TSV→shard
  ingester, and :class:`~repro.datasets.pipeline.TripleStream`
  deterministic shuffled mini-batches for million-triple workloads.
"""

from repro.datasets.errors import DatasetError, UnknownBenchmarkError, UnseenSymbolError
from repro.datasets.knowledge_graph import FilterIndex, KnowledgeGraph, Triple
from repro.datasets.generators import (
    GeneratorProfile,
    generate_knowledge_graph,
    generate_relation_triples,
    generate_streaming_store,
)
from repro.datasets.pipeline import (
    DEFAULT_SHARD_SIZE,
    DELTA_DIRNAME,
    STORE_SCHEMA_VERSION,
    StoreWriter,
    TripleStore,
    TripleStream,
    build_filter_index,
    entities_by_relation,
    ingest_tsv,
    write_store,
)
from repro.datasets.registry import (
    BENCHMARK_PROFILES,
    available_benchmarks,
    load_benchmark,
)
from repro.datasets.statistics import (
    DatasetStatistics,
    RelationPattern,
    classify_relations,
    dataset_statistics,
)
from repro.datasets.io import load_tsv_dataset, write_tsv_dataset

__all__ = [
    "DatasetError",
    "UnknownBenchmarkError",
    "UnseenSymbolError",
    "FilterIndex",
    "KnowledgeGraph",
    "Triple",
    "GeneratorProfile",
    "generate_knowledge_graph",
    "generate_relation_triples",
    "generate_streaming_store",
    "DEFAULT_SHARD_SIZE",
    "DELTA_DIRNAME",
    "STORE_SCHEMA_VERSION",
    "StoreWriter",
    "TripleStore",
    "TripleStream",
    "build_filter_index",
    "entities_by_relation",
    "ingest_tsv",
    "write_store",
    "BENCHMARK_PROFILES",
    "available_benchmarks",
    "load_benchmark",
    "DatasetStatistics",
    "RelationPattern",
    "classify_relations",
    "dataset_statistics",
    "load_tsv_dataset",
    "write_tsv_dataset",
]
