"""Batched link-prediction serving: artifacts, inference engine, query service.

The serving subsystem turns a trained scoring function — the *output* of an
AutoSF search — into something deployable, in three layers:

* :mod:`repro.serving.artifact` — a versioned, self-contained model artifact
  (manifest + params + vocab), the one on-disk model format, with
  descriptive validation errors;
* :mod:`repro.serving.engine` — the batched :class:`InferenceEngine`:
  heterogeneous head/tail queries grouped per relation and scored by each
  family's own candidate pass (one
  :class:`~repro.kge.scoring.base.RelationOperator` class for every
  family), ``argpartition`` top-k, optional known-positive filtering, and
  an LRU result cache — with the naive ``KGEModel.predict_*`` path kept as the
  exact parity oracle;
* :mod:`repro.serving.service` — ``QueryRequest``/``QueryResponse``, TSV
  batch mode, the :class:`EngineReloader` recipe every served model is
  built from, and a dependency-free ``http.server`` JSON endpoint with
  latency/throughput counters, hot swap and graceful SIGTERM/SIGINT drain;
* :mod:`repro.serving.fleet` — a pre-forked N-worker server sharing the
  memmap'd artifact (and a precomputed known-positive index) through the
  OS page cache, one inherited listener load-balancing across workers.
"""

from repro.serving.artifact import (
    ARTIFACT_SCHEMA_VERSION,
    ArtifactError,
    ModelArtifact,
    export_artifact,
    load_artifact,
)
from repro.serving.engine import (
    FILTER_INDEX_DIRNAME,
    InferenceEngine,
    MicroBatcher,
    known_positive_index,
    load_filter_index,
    save_filter_index,
)
from repro.serving.fleet import (
    ServingFleet,
    validate_serve_options,
    wait_until_healthy,
)
from repro.serving.service import (
    EngineReloader,
    QueryRequest,
    QueryResponse,
    QueryServer,
    answer_queries,
    format_response_rows,
    parse_query_line,
    read_query_file,
)

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "ArtifactError",
    "EngineReloader",
    "FILTER_INDEX_DIRNAME",
    "ModelArtifact",
    "export_artifact",
    "load_artifact",
    "InferenceEngine",
    "MicroBatcher",
    "known_positive_index",
    "load_filter_index",
    "save_filter_index",
    "QueryRequest",
    "QueryResponse",
    "QueryServer",
    "ServingFleet",
    "answer_queries",
    "validate_serve_options",
    "wait_until_healthy",
    "format_response_rows",
    "parse_query_line",
    "read_query_file",
]
