"""The batched link-prediction inference engine.

The naive query path (:meth:`repro.kge.model.KGEModel.predict_tails` /
``predict_heads``) scores one query at a time: it gathers the relation's
parameters per query, runs batch-of-one candidate scoring, and selects from
the full entity set.  :class:`InferenceEngine` serves the same queries in
bulk:

* heterogeneous head/tail queries are **grouped by (relation, direction)**
  and each group answered through the relation's
  :class:`~repro.kge.scoring.base.RelationOperator` — the family's own
  training candidate pass (``begin_candidate_pass`` /
  ``score_candidates_chunk``) run once per group, so for bilinear families
  scoring collapses to a single GEMM per micro-batch instead of one small
  GEMM per block per query;
* queries run in **micro-batches** (``batch_size`` queries against the full
  entity table), bounding peak memory at ``batch_size x num_entities``
  scores;
* top-k selection uses ``argpartition`` via the shared
  :func:`repro.kge.topk.top_k_indices` helper, with canonical tie-breaking
  (descending score, then ascending entity index);
* known positives can be **filtered** through the same CSR-style
  :class:`~repro.datasets.knowledge_graph.FilterIndex` that filtered
  evaluation uses, so served predictions are unseen triples;
* finished (direction, entity, relation) answers live in a bounded **LRU
  cache** — the engine's only cache.  A relation operator precomputes
  nothing (it holds references to the parameter tables), so it is built
  afresh for every (relation, direction) segment;
* concurrent callers (the serving fleet's handler threads) can go through a
  :class:`MicroBatcher`, which group-commits: a caller that finds it idle
  flushes at once, and the callers that arrive while that engine call runs
  are answered together by the next single ``query_batch`` call —
  amortizing per-relation passes and slab-vectorized top-k across requests
  exactly like the train engine amortizes per-batch work, without making
  any caller sleep.

The engine never writes to its parameter arrays, so it is safe over the
read-only memmap views a multi-worker fleet shares
(``load_artifact(mmap=True)``); all mutable state (result cache, counters) is
process-local and lock-protected.

The engine's scores are bit-identical to the candidate pass run per
relation, and its rankings are *exactly* those of the naive path — same
entities, same order, same tie-breaking — which the parity tests pin per
scoring family, mirroring the reference-oracle pattern of the execution and
training engines.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.datasets.knowledge_graph import FilterIndex, KnowledgeGraph, _DirectionIndex
from repro.kge.scoring.base import HEAD, TAIL, ParamDict, ScoringFunction, validate_direction
from repro.kge.topk import mask_known_scores, select_predictions_batch
from repro.obs.metrics import AnyRegistry, get_registry
from repro.serving.artifact import ModelArtifact
from repro.utils.serialization import from_json_file, to_json_file
from repro.utils.timing import TimingRecorder

PathLike = Union[str, Path]

#: One prediction: (entity index, score).
Prediction = Tuple[int, float]

#: One heterogeneous query: (direction, entity, relation).
Query = Tuple[str, int, int]


def known_positive_index(
    graph: KnowledgeGraph, splits: Sequence[str] = ("train", "valid")
) -> FilterIndex:
    """A :class:`FilterIndex` over the chosen splits, for serving-side filtering.

    Defaults to train+valid: those are the triples the deployment already
    knows, while test stands in for the unseen future the engine should be
    free to predict.  Accepts either an in-memory
    :class:`~repro.datasets.knowledge_graph.KnowledgeGraph` or a sharded
    :class:`~repro.datasets.pipeline.TripleStore`; the store path streams
    shard by shard instead of concatenating the splits.
    """
    if hasattr(graph, "iter_shards"):  # a sharded TripleStore
        from repro.datasets.pipeline import build_filter_index

        return build_filter_index(graph, splits=splits)
    triples = np.concatenate([graph.split(split) for split in splits], axis=0)
    return FilterIndex.build(triples, graph.num_relations)


#: Metadata file of a saved known-positive index directory.
FILTER_INDEX_META_FILENAME = "filter_index.json"

#: Conventional name of the saved index directory beside an artifact.
FILTER_INDEX_DIRNAME = "filter_index"

#: The six CSR arrays a FilterIndex is made of, as (direction, field) pairs.
_FILTER_INDEX_ARRAYS = tuple(
    (direction, name)
    for direction in ("tails", "heads")
    for name in ("codes", "indptr", "entities")
)


def save_filter_index(index: FilterIndex, directory: PathLike) -> Path:
    """Persist a known-positive :class:`FilterIndex` as raw ``.npy`` files.

    The fleet's parent process builds the index once and saves it here; every
    worker then loads it with ``mmap=True``, so the CSR arrays — like the
    embedding tables — are one shared page-cache copy instead of N private
    ones.
    """
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    for direction, name in _FILTER_INDEX_ARRAYS:
        np.save(base / f"{direction}_{name}.npy",
                np.ascontiguousarray(getattr(getattr(index, direction), name)))
    to_json_file({"num_relations": int(index.num_relations)},
                 base / FILTER_INDEX_META_FILENAME)
    return base


def load_filter_index(directory: PathLike, mmap: bool = True) -> FilterIndex:
    """Load a :class:`FilterIndex` saved by :func:`save_filter_index`.

    With ``mmap=True`` (the default — this is the sharing path) the arrays
    are read-only memmap views.  Raises ``ValueError`` naming the directory
    on anything missing.
    """
    base = Path(directory)
    # Name the artifact directory too, not just the missing file: the index
    # conventionally lives at <artifact>/filter_index, and "which artifact
    # is broken" is the question the operator is actually asking.
    artifact_hint = (
        f" (artifact directory {base.parent})" if base.name == FILTER_INDEX_DIRNAME else ""
    )
    meta_path = base / FILTER_INDEX_META_FILENAME
    if not meta_path.exists():
        raise ValueError(
            f"filter-index directory {base}{artifact_hint} is missing "
            f"{FILTER_INDEX_META_FILENAME} "
            f"(expected a directory written by save_filter_index)"
        )
    meta = from_json_file(meta_path)
    arrays: Dict[str, Dict[str, np.ndarray]] = {"tails": {}, "heads": {}}
    for direction, name in _FILTER_INDEX_ARRAYS:
        path = base / f"{direction}_{name}.npy"
        if not path.exists():
            raise ValueError(
                f"filter-index directory {base}{artifact_hint} is missing {path.name}"
            )
        arrays[direction][name] = np.load(path, mmap_mode="r" if mmap else None)
    return FilterIndex(
        num_relations=int(meta["num_relations"]),
        tails=_DirectionIndex(**arrays["tails"]),
        heads=_DirectionIndex(**arrays["heads"]),
    )


class InferenceEngine:
    """Batched, relation-grouped link-prediction inference.

    Parameters
    ----------
    scoring_function, params:
        The trained model to serve.
    filter_index:
        Optional known-positive index; required to answer ``filtered=True``
        queries (build one with :func:`known_positive_index`).
    batch_size:
        Queries per micro-batch; the score slab is ``batch_size x
        num_entities`` floats, which for dot-product families is also the
        peak transient memory.
    entity_chunk_size:
        Optional entity-axis chunking for the scoring step (``0`` scores all
        entities at once).  Distance-based families (TransE, RotatE)
        materialize a ``batch x entities x dimension`` difference tensor
        while scoring; chunking bounds that transient at ``batch_size x
        entity_chunk_size x dimension`` — the serving-side analogue of the
        training engine's ``score_chunk_size``.
    result_cache_size:
        Capacity of the LRU of finished (direction, entity, relation, top_k,
        filtered) answers; ``0`` disables it.
    registry:
        Metrics registry for the serving counters and batch-size histogram
        (``repro_serving_*``); defaults to the process-global registry — a
        no-op ``NullRegistry`` unless the serve path enabled one.  The
        engine's :class:`TimingRecorder` (``self.recorder``), which times
        the ``project`` / ``score`` / ``select`` phases reported by
        ``/stats``, is built on this same registry, so those phases show up
        as ``repro_phase_seconds`` series on ``/metrics``.
    """

    def __init__(
        self,
        scoring_function: ScoringFunction,
        params: ParamDict,
        filter_index: Optional[FilterIndex] = None,
        batch_size: int = 256,
        entity_chunk_size: int = 0,
        result_cache_size: int = 4096,
        registry: Optional[AnyRegistry] = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if entity_chunk_size < 0:
            raise ValueError("entity_chunk_size must be non-negative (0 disables chunking)")
        if result_cache_size < 0:
            raise ValueError("result_cache_size must be non-negative")
        self.scoring_function = scoring_function
        self.params = params
        self.filter_index = filter_index
        self.batch_size = int(batch_size)
        self.entity_chunk_size = int(entity_chunk_size)
        self.num_entities = int(params["entities"].shape[0])
        self.num_relations = int(params["relations"].shape[0])
        self.registry = registry if registry is not None else get_registry()
        # The recorder shares this engine's registry, so per-phase
        # repro_phase_seconds series land on the same /metrics exposition.
        self.recorder = TimingRecorder(registry=self.registry)
        self._result_cache_size = int(result_cache_size)
        self._results: "OrderedDict[tuple, Tuple[Prediction, ...]]" = OrderedDict()
        # The result cache is mutated on every query; one lock makes the engine
        # safe under the threading HTTP server (batching, not concurrency,
        # is the throughput mechanism here).
        self._lock = threading.Lock()
        self.queries_served = 0
        self.cache_hits = 0
        self.operators_built = 0
        self._m_queries = self.registry.counter(
            "repro_serving_queries_total", help="Link-prediction queries answered."
        )
        self._m_cache_hits = self.registry.counter(
            "repro_serving_cache_hits_total",
            help="Queries answered from the finished-result LRU cache.",
        )
        self._m_batch_queries = self.registry.histogram(
            "repro_serving_batch_queries",
            help="Queries per engine batch call.",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_artifact(
        cls, artifact: ModelArtifact, **kwargs: object
    ) -> "InferenceEngine":
        """Build an engine straight from a loaded serving artifact."""
        return cls(artifact.scoring_function, artifact.params, **kwargs)

    # ------------------------------------------------------------------
    # Result cache
    # ------------------------------------------------------------------
    def _cached_result(self, key: tuple) -> Optional[Tuple[Prediction, ...]]:
        result = self._results.get(key)
        if result is not None:
            self._results.move_to_end(key)
        return result

    def _store_result(self, key: tuple, result: Tuple[Prediction, ...]) -> None:
        if self._result_cache_size == 0:
            return
        self._results[key] = result
        if len(self._results) > self._result_cache_size:
            self._results.popitem(last=False)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _check_query(self, direction: str, entity: int, relation: int, filtered: bool) -> Query:
        validate_direction(direction)
        entity = int(entity)
        relation = int(relation)
        if not 0 <= entity < self.num_entities:
            raise ValueError(
                f"entity id {entity} out of range [0, {self.num_entities})"
            )
        if not 0 <= relation < self.num_relations:
            raise ValueError(
                f"relation id {relation} out of range [0, {self.num_relations})"
            )
        if filtered and self.filter_index is None:
            raise ValueError(
                "filtered queries need a filter index; construct the engine "
                "with filter_index=known_positive_index(graph)"
            )
        return (direction, entity, relation)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def predict_tails(
        self, head: int, relation: int, top_k: int = 10, filtered: bool = False
    ) -> List[Prediction]:
        """Top-k candidate tails for ``(head, relation, ?)``."""
        return self.query_batch([(TAIL, head, relation)], top_k=top_k, filtered=filtered)[0]

    def predict_heads(
        self, relation: int, tail: int, top_k: int = 10, filtered: bool = False
    ) -> List[Prediction]:
        """Top-k candidate heads for ``(?, relation, tail)``."""
        return self.query_batch([(HEAD, tail, relation)], top_k=top_k, filtered=filtered)[0]

    def query_batch(
        self,
        queries: Sequence[Union[Query, Sequence[object]]],
        top_k: int = 10,
        filtered: bool = False,
    ) -> List[List[Prediction]]:
        """Answer heterogeneous (direction, entity, relation) queries.

        Results are returned in input order, each a list of (entity, score)
        pairs ordered by descending score with ties broken by entity index.
        With ``filtered=True`` known positives are removed, so saturated
        queries may return fewer than ``top_k`` pairs.
        """
        with self._lock:
            return self._query_batch_locked(queries, top_k, filtered)

    def _query_batch_locked(
        self,
        queries: Sequence[Union[Query, Sequence[object]]],
        top_k: int,
        filtered: bool,
    ) -> List[List[Prediction]]:
        top_k = int(top_k)
        if top_k <= 0:
            raise ValueError("top_k must be positive")
        normalized = [
            self._check_query(direction, entity, relation, filtered)
            for direction, entity, relation in queries
        ]
        self.queries_served += len(normalized)
        self._m_queries.inc(len(normalized))
        self._m_batch_queries.observe(len(normalized))

        results: List[Optional[Tuple[Prediction, ...]]] = [None] * len(normalized)
        pending: Dict[Query, List[int]] = {}
        for position, query in enumerate(normalized):
            cached = self._cached_result((*query, top_k, filtered))
            if cached is not None:
                self.cache_hits += 1
                self._m_cache_hits.inc()
                results[position] = cached
            else:
                # Keyed by the full query, so duplicates within one batch are
                # scored once and fanned out to every requesting position.
                pending.setdefault(query, []).append(position)

        # Order the unique queries by (direction, relation) group, then
        # process them in slabs of ``batch_size`` rows: scoring still runs
        # per group segment (one relation operator each), but top-k
        # selection sees a whole slab at once — essential when a batch
        # spreads thinly over many relations.  Peak memory stays at
        # batch_size x num_entities scores.
        work_list = sorted(pending, key=lambda query: (query[0], query[2]))
        for slab_begin in range(0, len(work_list), self.batch_size):
            slab = work_list[slab_begin : slab_begin + self.batch_size]
            scores = np.empty((len(slab), self.num_entities), dtype=np.float64)
            segment_begin = 0
            while segment_begin < len(slab):
                direction, _, relation = slab[segment_begin]
                segment_end = segment_begin
                while (
                    segment_end < len(slab)
                    and slab[segment_end][0] == direction
                    and slab[segment_end][2] == relation
                ):
                    segment_end += 1
                entities = np.asarray(
                    [entity for _d, entity, _r in slab[segment_begin:segment_end]],
                    dtype=np.int64,
                )
                operator = self.scoring_function.relation_operator(
                    self.params, relation, direction
                )
                self.operators_built += 1
                with self.recorder.measure("project"):
                    projection = operator.project(entities)
                with self.recorder.measure("score"):
                    chunk = self.entity_chunk_size or self.num_entities
                    for start in range(0, self.num_entities, chunk):
                        stop = min(start + chunk, self.num_entities)
                        scores[segment_begin:segment_end, start:stop] = operator.score(
                            projection, start, stop
                        )
                if filtered:
                    mask_known_scores(
                        scores[segment_begin:segment_end],
                        self.filter_index,
                        entities,
                        np.full_like(entities, relation),
                        direction,
                    )
                segment_begin = segment_end
            with self.recorder.measure("select"):
                selected = select_predictions_batch(scores, top_k)
                for query, (order, top_scores) in zip(slab, selected):
                    answer = tuple(zip(order.tolist(), top_scores.tolist()))
                    self._store_result((*query, top_k, filtered), answer)
                    for position in pending[query]:
                        results[position] = answer

        return [list(result) for result in results]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Counters + per-phase timings for the serve endpoint's /stats.

        Takes the engine lock: the result cache and the recorder are mutated by
        concurrent query threads, and iterating them mid-query would race.
        """
        with self._lock:
            return self._stats_locked()

    def _stats_locked(self) -> Dict[str, object]:
        return {
            "scoring_function": self.scoring_function.name,
            "num_entities": self.num_entities,
            "num_relations": self.num_relations,
            "queries_served": self.queries_served,
            "cache_hits": self.cache_hits,
            "cached_results": len(self._results),
            # There is no operator cache: every segment builds its operator,
            # so this always reads zero hits (kept for /stats consumers).
            "operator_cache": {"hits": 0, "misses": self.operators_built},
            "params_bytes": int(
                sum(array.nbytes for array in self.params.values())
            ),
            "params_memmap": isinstance(self.params.get("entities"), np.memmap),
            "timings": self.recorder.summary(),
        }

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return (
            f"InferenceEngine({self.scoring_function.name!r}, "
            f"entities={self.num_entities}, relations={self.num_relations}, "
            f"filtered={'yes' if self.filter_index is not None else 'no'})"
        )


class _PendingCall:
    """One caller's queries queued inside a :class:`MicroBatcher`."""

    __slots__ = ("queries", "top_k", "filtered", "done", "leads", "results", "error")

    def __init__(self, queries: List[Query], top_k: int, filtered: bool) -> None:
        self.queries = queries
        self.top_k = top_k
        self.filtered = filtered
        # Set once the call is answered, or once it is promoted to lead.
        self.done = threading.Event()
        self.leads = False
        self.results: Optional[List[List[Prediction]]] = None
        self.error: Optional[BaseException] = None


class MicroBatcher:
    """Group-commit micro-batching over an :class:`InferenceEngine`.

    Concurrent callers (one HTTP handler thread per in-flight request)
    submit through :meth:`query_batch`.  A caller that finds the batcher
    idle becomes the *leader* and flushes at once.  Callers that arrive
    while the leader's engine call runs queue up; when it finishes, the
    first of them is promoted to lead the next flush, which answers every
    queued call in one engine call — the engine's per-(relation,
    direction) grouping then amortizes per-relation passes and slab top-k
    across all of them.  No caller waits on a batch it is not part of, and
    leadership is handed off (or released) in a ``finally``, so a failed
    flush cannot wedge later callers.

    Exposes the same ``query_batch(queries, top_k, filtered)`` signature as
    the engine, so :func:`repro.serving.service.answer_queries` works with
    either.  Group commit adds no waiting: a lone caller goes straight
    through, and a queued one waits only for the engine call it would have
    queued behind on the engine's lock anyway.  A combined call
    that fails is retried per caller, so one request with an out-of-range
    entity cannot poison the answers of the calls it was coalesced with.
    """

    #: Safety net for followers; a leader never takes remotely this long.
    _WAIT_TIMEOUT_S = 120.0

    def __init__(self, engine: InferenceEngine) -> None:
        self.engine = engine
        self._lock = threading.Lock()
        self._pending: List[_PendingCall] = []
        self._leader_active = False
        self.calls = 0
        self.batches = 0
        self.coalesced_calls = 0
        self.largest_batch = 0

    def query_batch(
        self,
        queries: Sequence[Union[Query, Sequence[object]]],
        top_k: int = 10,
        filtered: bool = False,
    ) -> List[List[Prediction]]:
        """Answer queries, coalescing with concurrent callers (blocking)."""
        call = _PendingCall(list(queries), int(top_k), bool(filtered))
        with self._lock:
            self.calls += 1
            self._pending.append(call)
            if not self._leader_active:
                self._leader_active = call.leads = True
        if not call.leads and not call.done.wait(timeout=self._WAIT_TIMEOUT_S):
            with self._lock:  # pragma: no cover - a leader never takes this long
                if not call.leads:
                    if call in self._pending:
                        self._pending.remove(call)
                    raise RuntimeError("micro-batch leader failed to flush in time")
        if call.leads:
            self._lead()
        if call.error is not None:
            raise call.error
        assert call.results is not None
        return call.results

    def _lead(self) -> None:
        """Flush every queued call, then hand leadership to the next queued one."""
        try:
            with self._lock:
                batch = self._pending
                self._pending = []
                self.batches += 1
                self.coalesced_calls += len(batch) - 1
                self.largest_batch = max(self.largest_batch, len(batch))
            self._flush(batch)
        finally:
            with self._lock:
                if self._pending:
                    successor = self._pending[0]
                    successor.leads = True
                    successor.done.set()
                else:
                    self._leader_active = False

    def _flush(self, batch: List[_PendingCall]) -> None:
        try:
            groups: Dict[Tuple[int, bool], List[_PendingCall]] = {}
            for call in batch:
                groups.setdefault((call.top_k, call.filtered), []).append(call)
            for (top_k, filtered), calls in groups.items():
                self._answer_group(calls, top_k, filtered)
        finally:
            # Never leave a caller without an answer, whatever went wrong above.
            for call in batch:
                if call.error is None and call.results is None:
                    call.error = RuntimeError("micro-batch flush failed")
                call.done.set()

    def _answer_group(
        self, calls: List[_PendingCall], top_k: int, filtered: bool
    ) -> None:
        combined = [query for call in calls for query in call.queries]
        try:
            answers = self.engine.query_batch(combined, top_k=top_k, filtered=filtered)
        except Exception as failure:
            if len(calls) == 1:  # nothing to isolate; the flush sets ``done``
                calls[0].error = failure
                return
            # One bad query fails the combined call; isolate the offender by
            # answering each caller separately.
            for call in calls:
                try:
                    call.results = self.engine.query_batch(
                        call.queries, top_k=top_k, filtered=filtered
                    )
                except Exception as error:
                    call.error = error
                finally:
                    call.done.set()
            return
        offset = 0
        for call in calls:
            call.results = answers[offset : offset + len(call.queries)]
            offset += len(call.queries)
            call.done.set()

    def stats(self) -> Dict[str, object]:
        with self._lock:
            mean = (self.calls / self.batches) if self.batches else 0.0
            return {
                "calls": self.calls,
                "batches": self.batches,
                "coalesced_calls": self.coalesced_calls,
                "largest_batch_calls": self.largest_batch,
                "mean_calls_per_batch": mean,
            }
