"""Candidate evaluation: the expensive inner loop of the bi-level problem.

Evaluating one candidate scoring function means solving the lower-level
problem of Definition 1 — training its embeddings to convergence on the
training split — and then measuring filtered MRR on the validation split.
:class:`CandidateEvaluator` wraps that pipeline, caches results by the
candidate's *canonical* form (so equivalent structures are never retrained
even if a caller bypasses the filter), and keeps per-phase timing that the
running-time analysis (Table VII) reports.

The actual training work is delegated to an execution backend
(:mod:`repro.core.execution`): :meth:`CandidateEvaluator.evaluate_many`
dispatches a whole batch of candidates at once, so a parallel backend can
train them on several cores while this class stays the single owner of the
cache, the optional persistent store and the timing ledger.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.execution import (
    EvaluationContext,
    EvaluationTask,
    ExecutionBackend,
    ExecutionError,
    SerialBackend,
    derive_candidate_seed,
)
from repro.core.invariance import canonical_key
from repro.datasets.knowledge_graph import KnowledgeGraph
from repro.kge.evaluation import EvaluationResult
from repro.kge.scoring.blocks import BlockStructure
from repro.kge.trainer import TrainingHistory
from repro.utils.config import TrainingConfig
from repro.utils.timing import TimingRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store imports us)
    from repro.core.store import EvaluationStore


def experiment_fingerprint(
    graph: KnowledgeGraph,
    config: TrainingConfig,
    validation_split: str = "valid",
    base_seed: Optional[int] = None,
) -> str:
    """Stable digest of everything that determines an evaluation's value.

    A persistent store entry is only valid for the exact graph, training
    configuration, validation split and seeding scheme it was produced
    under; this fingerprint is stored alongside each entry so a reused
    cache directory can never silently serve results from a different
    experiment.  Split contents are covered by cheap CRCs rather than a
    full hash — enough to catch any regenerated or re-split dataset.
    """
    payload = repr(
        (
            graph.name,
            graph.num_entities,
            graph.num_relations,
            tuple(
                (split, zlib.crc32(graph.split(split).tobytes()))
                for split in ("train", "valid", "test")
            ),
            sorted(config.to_dict().items()),
            validation_split,
            base_seed,
        )
    )
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


@dataclass
class CandidateEvaluation:
    """Everything recorded about one trained candidate."""

    structure: BlockStructure
    validation_mrr: float
    validation_result: EvaluationResult
    training_history: TrainingHistory
    train_seconds: float
    evaluate_seconds: float
    from_cache: bool = False

    @property
    def num_blocks(self) -> int:
        return self.structure.num_blocks


class CandidateEvaluator:
    """Train-and-score pipeline for candidate block structures.

    Parameters
    ----------
    store:
        Optional persistent :class:`~repro.core.store.EvaluationStore`; hits
        are served from disk (and mirrored into the in-memory cache) and
        every fresh evaluation is written through.
    base_seed:
        When set, each candidate trains with a deterministic seed derived
        from ``(base_seed, canonical_key)`` instead of the shared
        ``config.seed``, making results independent of evaluation order and
        identical across serial and parallel backends.
    """

    def __init__(
        self,
        graph: KnowledgeGraph,
        config: Optional[TrainingConfig] = None,
        validation_split: str = "valid",
        timing: Optional[TimingRecorder] = None,
        store: Optional["EvaluationStore"] = None,
        base_seed: Optional[int] = None,
    ) -> None:
        self.graph = graph
        self.config = config or TrainingConfig()
        self.validation_split = validation_split
        self.timing = timing if timing is not None else TimingRecorder()
        self.store = store
        self.base_seed = base_seed
        self._cache: Dict[Tuple[int, ...], CandidateEvaluation] = {}
        self._fingerprint: Optional[str] = None
        self.num_trained = 0
        # Fallback for a backend that returns ``None`` for a lost task (the
        # ExecutionBackend contract allows it; the queue backend re-dispatches
        # lost tasks itself and raises once its retries are spent): the
        # missing tasks are re-run here, in-process, exactly once.
        self._retry_backend: ExecutionBackend = SerialBackend()

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def _context(self) -> EvaluationContext:
        return EvaluationContext(
            graph=self.graph, config=self.config, validation_split=self.validation_split
        )

    def _seed_for(self, key: Tuple[int, ...]) -> Optional[int]:
        if self.base_seed is None:
            return self.config.seed
        return derive_candidate_seed(self.base_seed, key)

    def fingerprint(self) -> str:
        """Digest of the experiment this evaluator's results are valid for."""
        if self._fingerprint is None:
            self._fingerprint = experiment_fingerprint(
                self.graph, self.config, self.validation_split, self.base_seed
            )
        return self._fingerprint

    def _lookup(self, key: Tuple[int, ...]) -> Optional[CandidateEvaluation]:
        """In-memory hit, else persistent-store hit (promoted to memory)."""
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if self.store is not None:
            loaded = self.store.get(key, fingerprint=self.fingerprint())
            if loaded is not None:
                self._cache[key] = loaded
                return loaded
        return None

    @staticmethod
    def _cached_copy(
        cached: CandidateEvaluation, structure: BlockStructure
    ) -> CandidateEvaluation:
        """A zero-cost view of a cached result, under the caller's structure."""
        return CandidateEvaluation(
            structure=structure,
            validation_mrr=cached.validation_mrr,
            validation_result=cached.validation_result,
            training_history=cached.training_history,
            train_seconds=0.0,
            evaluate_seconds=0.0,
            from_cache=True,
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, structure: BlockStructure) -> CandidateEvaluation:
        """Train ``structure`` (or reuse the cached result) and score it."""
        return self.evaluate_many([structure])[0]

    def evaluate_many(
        self,
        structures: Sequence[BlockStructure],
        backend: Optional[ExecutionBackend] = None,
    ) -> List[CandidateEvaluation]:
        """Evaluate a batch of candidates through an execution backend.

        Cache hits (memory or store) and within-batch duplicates are resolved
        first; only the remaining distinct candidates are dispatched, as one
        batch, to ``backend`` (default: in-process serial execution).
        Results are returned in input order.
        """
        structures = list(structures)
        backend = backend if backend is not None else SerialBackend()
        keys = [canonical_key(structure) for structure in structures]

        first_occurrence: Dict[Tuple[int, ...], int] = {}
        tasks: List[EvaluationTask] = []
        task_keys: List[Tuple[int, ...]] = []
        for position, (structure, key) in enumerate(zip(structures, keys)):
            if key in first_occurrence or self._lookup(key) is not None:
                continue
            first_occurrence[key] = position
            tasks.append(EvaluationTask(structure=structure, seed=self._seed_for(key)))
            task_keys.append(key)

        if tasks:
            # Absorb each outcome the moment it arrives (cache + write-through
            # to the store), so candidates finished before an interrupt are
            # checkpointed even when the rest of the batch never completes.
            absorbed = set()

            def absorb(index: int, outcome) -> None:
                if index in absorbed:
                    return
                key = task_keys[index]
                outcome_key = canonical_key(outcome.structure)
                if outcome_key != key:
                    # A backend delivering outcome i under index j would
                    # silently poison the cache for candidate j; refuse it.
                    raise ExecutionError(
                        f"execution backend delivered an outcome for candidate "
                        f"{outcome.structure.name or outcome.structure.blocks!r} "
                        f"at task index {index}, which belongs to a different "
                        f"candidate — the backend violated the outcome-alignment "
                        f"contract"
                    )
                absorbed.add(index)
                self.timing.add("train", outcome.train_seconds)
                self.timing.add("evaluate", outcome.evaluate_seconds)
                evaluation = CandidateEvaluation(
                    structure=outcome.structure,
                    validation_mrr=outcome.validation_mrr,
                    validation_result=outcome.validation_result,
                    training_history=outcome.training_history,
                    train_seconds=outcome.train_seconds,
                    evaluate_seconds=outcome.evaluate_seconds,
                )
                self._cache[key] = evaluation
                self.num_trained += 1
                if self.store is not None:
                    self.store.put(key, evaluation, fingerprint=self.fingerprint())

            # on_result is an optimization, not part of the backend contract:
            # absorb anything a callback-less backend only returned.
            outcomes = backend.run(self._context(), tasks, on_result=absorb)
            # Contract check: a backend either returns one slot per task
            # (``None`` holes for lost tasks) or an empty list (relying
            # entirely on on_result).  A truncated/oversized list would
            # mis-assign outcomes to the wrong candidates via positional
            # indexing, so fail loudly instead.
            if outcomes and len(outcomes) != len(tasks):
                raise ExecutionError(
                    f"execution backend {backend!r} returned {len(outcomes)} "
                    f"outcome(s) for {len(tasks)} dispatched task(s); backends "
                    f"must return one (possibly None) slot per task, in task "
                    f"order, or an empty list"
                )
            for index, outcome in enumerate(outcomes or []):
                if outcome is not None:
                    absorb(index, outcome)

            # A lossy backend (killed worker, dropped message) may have
            # returned no outcome for some dispatched tasks.  Retry those
            # serially once; if outcomes are still missing, fail loudly with
            # the affected structures instead of a bare KeyError downstream.
            missing = [index for index, key in enumerate(task_keys) if key not in self._cache]
            if missing:
                retry_tasks = [tasks[index] for index in missing]
                retry_outcomes = self._retry_backend.run(
                    self._context(),
                    retry_tasks,
                    on_result=lambda position, outcome: absorb(missing[position], outcome),
                )
                for position, outcome in enumerate(retry_outcomes or []):
                    if outcome is not None:
                        absorb(missing[position], outcome)
                still_missing = [
                    index for index in missing if task_keys[index] not in self._cache
                ]
                if still_missing:
                    names = ", ".join(
                        repr(tasks[index].structure.name or tasks[index].structure.blocks)
                        for index in still_missing
                    )
                    raise ExecutionError(
                        f"execution backend {backend!r} returned no outcome for "
                        f"{len(still_missing)} of {len(tasks)} dispatched candidate(s) "
                        f"({names}), and a serial retry did not recover them"
                    )

        results: List[CandidateEvaluation] = []
        for position, (structure, key) in enumerate(zip(structures, keys)):
            cached = self._cache[key]
            if first_occurrence.get(key) == position and not cached.from_cache:
                results.append(cached)
            else:
                results.append(self._cached_copy(cached, structure))
        return results

    # ------------------------------------------------------------------
    # Cache inspection
    # ------------------------------------------------------------------
    @property
    def cache_size(self) -> int:
        return len(self._cache)

    def cached_evaluations(self) -> List[CandidateEvaluation]:
        """All distinct evaluations performed so far."""
        return list(self._cache.values())

    def best(self) -> Optional[CandidateEvaluation]:
        """The best evaluation seen so far (by validation MRR)."""
        evaluations = self.cached_evaluations()
        if not evaluations:
            return None
        return max(evaluations, key=lambda evaluation: evaluation.validation_mrr)
