"""The single search driver behind every strategy.

:class:`SearchLoop` owns the mechanics every search shares: deterministic
seeding, the execution backend, the shared in-memory/persistent evaluation
cache, budget accounting and timing.  A strategy only decides *which*
structures to train next; the loop decides how they are trained, cached and
recorded:

.. code-block:: text

    while budget remains and not strategy.finished(state):
        candidates = strategy.propose(state)        # policy
        evaluations = evaluator.evaluate_many(...)  # backend + cache
        record(evaluations)                         # history / anytime curve
        strategy.observe(state, evaluations)        # policy update

Because the loop routes *every* strategy through one
:class:`~repro.core.evaluator.CandidateEvaluator` (and, when given, one
:class:`~repro.core.store.EvaluationStore`), baseline runs reuse
evaluations the greedy search already paid for, and re-running an
interrupted loop against the same store fast-forwards through completed
evaluations (resume).

:meth:`SearchLoop.from_spec` builds the search an
:class:`~repro.experiments.spec.ExperimentSpec` describes; the runner, the
``search`` subcommand and the paper benchmarks all start searches that way.
Every run returns a :class:`SearchResult` of :class:`SearchRecord` rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.evaluator import CandidateEvaluator
from repro.core.execution import ExecutionBackend
from repro.core.invariance import canonical_key
from repro.core.store import EvaluationStore
from repro.datasets.knowledge_graph import KnowledgeGraph
from repro.experiments.scheduler import FidelityScheduler
from repro.experiments.spec import ExperimentSpec
from repro.experiments.strategies import SearchState, SearchStrategy, create_strategy
from repro.kge.scoring.blocks import BlockStructure
from repro.obs import trace as obs_trace
from repro.utils.config import TrainingConfig
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.timing import TimingRecorder


@dataclass
class SearchRecord:
    """One trained candidate inside a search run.

    ``rung`` / ``rung_epochs`` / ``full_fidelity`` carry ASHA fidelity
    metadata: a scheduler-driven loop records low-rung (reduced-epoch)
    evaluations with ``full_fidelity=False`` so the history shows every
    training run, while rankings and budgets only consider full-fidelity
    records.  Plain full-fidelity searches leave the defaults untouched.
    """

    structure: BlockStructure
    validation_mrr: float
    num_blocks: int
    stage: int
    order: int
    elapsed_seconds: float
    rung: Optional[int] = None
    rung_epochs: Optional[int] = None
    full_fidelity: bool = True


@dataclass
class SearchResult:
    """Outcome of one search run."""

    best_structure: BlockStructure
    best_mrr: float
    records: List[SearchRecord] = field(default_factory=list)
    timing: Optional[TimingRecorder] = None
    filter_statistics: Dict[str, int] = field(default_factory=dict)

    @property
    def full_fidelity_records(self) -> List[SearchRecord]:
        """Records trained with the full epoch budget (the comparable ones)."""
        return [record for record in self.records if record.full_fidelity]

    @property
    def num_evaluations(self) -> int:
        """Budget-counted evaluations (full fidelity only)."""
        return len(self.full_fidelity_records)

    def best_per_stage(self) -> Dict[int, SearchRecord]:
        """The best full-fidelity record of every stage (keyed by block count)."""
        best: Dict[int, SearchRecord] = {}
        for record in self.full_fidelity_records:
            current = best.get(record.num_blocks)
            if current is None or record.validation_mrr > current.validation_mrr:
                best[record.num_blocks] = record
        return best

    def anytime_curve(self) -> List[float]:
        """Best-so-far validation MRR after each trained model (Fig. 6/7).

        Low-fidelity rung evaluations are excluded: their MRRs are not
        comparable to fully trained models.
        """
        curve: List[float] = []
        best = -np.inf
        for record in sorted(self.full_fidelity_records, key=lambda item: item.order):
            best = max(best, record.validation_mrr)
            curve.append(float(best))
        return curve

    def top(self, count: int = 5) -> List[SearchRecord]:
        """The ``count`` best full-fidelity records overall."""
        return sorted(self.full_fidelity_records, key=lambda item: -item.validation_mrr)[
            :count
        ]


class SearchLoop:
    """Drive one :class:`SearchStrategy` under one evaluation protocol.

    Parameters
    ----------
    graph / training_config:
        The dataset and the per-candidate training recipe (shared by every
        strategy so budgets are directly comparable).
    strategy:
        The candidate-selection policy (see
        :mod:`repro.experiments.strategies`).
    seed:
        Master seed: seeds the strategy's RNG and (when an integer) derives
        a deterministic per-candidate training seed, making results
        independent of evaluation order and backend.
    backend:
        Where candidate training runs (``None`` is in-process); build one
        with :meth:`~repro.experiments.spec.BackendSpec.create` or
        :func:`~repro.core.execution.create_backend`.
    store:
        Optional persistent evaluation cache shared across strategies and
        runs.
    evaluator:
        Injectable for sharing one cache across several loops in-process;
        when given, ``store`` is ignored in favour of the evaluator's own.
    scheduler:
        Optional :class:`~repro.experiments.scheduler.FidelityScheduler`.
        When set, each proposed candidate front first runs through reduced-
        epoch rungs and only promoted survivors are trained at full
        fidelity; only those full-fidelity evaluations count toward the
        budget and reach ``strategy.observe``.
    """

    def __init__(
        self,
        graph: KnowledgeGraph,
        strategy: SearchStrategy,
        training_config: Optional[TrainingConfig] = None,
        *,
        seed: RngLike = 0,
        backend: Optional[ExecutionBackend] = None,
        store: Optional[EvaluationStore] = None,
        evaluator: Optional[CandidateEvaluator] = None,
        scheduler: Optional[FidelityScheduler] = None,
        timing: Optional[TimingRecorder] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.graph = graph
        self.strategy = strategy
        self.training_config = training_config or TrainingConfig()
        self.seed = seed
        self._rng = rng
        self.timing = timing if timing is not None else TimingRecorder()
        self.backend = backend
        if evaluator is not None:
            self.evaluator = evaluator
            self.store = evaluator.store
        else:
            self.store = store
            self.evaluator = CandidateEvaluator(
                graph,
                self.training_config,
                timing=self.timing,
                store=store,
                # Per-candidate seeding keeps a structure's training identical
                # across strategies, backends and evaluation order.
                base_seed=seed if isinstance(seed, (int, np.integer)) else None,
            )
        self.scheduler = scheduler
        self._rung_evaluators: dict = {}
        #: Total epochs actually trained (Σ candidates trained × their epoch
        #: budget) — the compute currency the ASHA bench target is stated in.
        self.total_training_epochs = 0
        #: Per-epoch-budget aggregates: {"evaluated", "trained", "promoted"}.
        self.rung_stats: dict = {}
        self._records: List[SearchRecord] = []
        # Candidate-lifecycle counters share the timing recorder's registry —
        # one sink for Table VII attribution and telemetry (no-op when off).
        registry = self.timing.registry
        strategy_label = {"strategy": getattr(strategy, "name", type(strategy).__name__)}
        self._m_proposed = registry.counter(
            "repro_search_candidates_proposed_total",
            help="Candidate structures proposed by the strategy.",
            labels=strategy_label,
        )
        self._m_evaluated = registry.counter(
            "repro_search_candidates_evaluated_total",
            help="Candidate evaluations recorded (trained or replayed).",
            labels=strategy_label,
        )
        self._m_trained = registry.counter(
            "repro_search_candidates_trained_total",
            help="Candidates actually trained (cache and store misses).",
            labels=strategy_label,
        )
        self._m_store_hits = registry.counter(
            "repro_search_store_hits_total",
            help="Candidate evaluations replayed from cache or store.",
            labels=strategy_label,
        )
        self._m_rounds = registry.counter(
            "repro_search_rounds_total",
            help="Propose/evaluate/observe rounds completed.",
            labels=strategy_label,
        )

    @classmethod
    def from_spec(
        cls,
        spec: ExperimentSpec,
        graph: KnowledgeGraph,
        *,
        training_config: Optional[TrainingConfig] = None,
        store: Optional[EvaluationStore] = None,
        evaluator: Optional[CandidateEvaluator] = None,
    ) -> "SearchLoop":
        """The search ``spec`` describes, on ``graph``.

        The strategy, master seed, execution backend and fidelity scheduler
        come from the spec.  ``training_config`` replaces ``spec.training``
        (the runner passes its HPO-tuned config); ``store`` and
        ``evaluator`` are handed to the constructor.  The budget stays an
        argument of :meth:`run` — ``run(max_evaluations=spec.search.budget)``
        honours the spec's.
        """
        return cls(
            graph,
            create_strategy(spec),
            training_config if training_config is not None else spec.training,
            seed=spec.seed,
            backend=spec.backend.create(),
            store=store,
            evaluator=evaluator,
            scheduler=spec.scheduler.create(),
        )

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def run(self, max_evaluations: Optional[int] = None) -> SearchResult:
        """Run the strategy to completion (or budget) and return the result.

        ``max_evaluations`` caps *recorded* evaluations, including replays
        from a persistent store — that is what lets an interrupted run
        resume to exactly the same budget instead of training
        ``max_evaluations`` fresh models on top of the cached ones.  The cap
        also applies to the greedy seed stage: a budget below the number of
        f4 seeds records exactly ``max_evaluations`` results.

        Each call starts a fresh record list and budget; note however that
        stateful strategies (greedy stages, dedup filters, surrogates) carry
        their accumulated state across calls, so re-running usually wants a
        freshly built strategy.
        """
        self._records = []
        state = SearchState(
            rng=self._rng if self._rng is not None else ensure_rng(self.seed),
            budget=max_evaluations,
            timing=self.timing,
        )
        start_time = time.perf_counter()
        order = 0

        while True:
            remaining = state.remaining_budget()
            if remaining == 0:
                break
            if self.strategy.finished(state):
                break
            candidates = self.strategy.propose(state)
            if not candidates:
                break
            self._m_proposed.inc(len(candidates))
            if self.scheduler is None and remaining is not None:
                candidates = candidates[:remaining]
            trained_before = self.evaluator.num_trained
            # Everything inside this span is all-or-nothing per round: if the
            # backend (or a fidelity rung) fails, the exception propagates
            # before any record is appended, any evaluation reaches
            # ``state.evaluations`` or ``strategy.observe`` sees the round —
            # a partial batch can never corrupt strategy state.
            with obs_trace.span(
                "search.round", attrs={"candidates": len(candidates)}
            ) as round_span:
                if self.scheduler is not None:
                    candidates, order = self._run_rungs(
                        state, candidates, order, start_time
                    )
                    if remaining is not None:
                        candidates = candidates[:remaining]
                evaluations = self.evaluator.evaluate_many(
                    candidates, backend=self.backend
                )
            trained_now = self.evaluator.num_trained - trained_before
            self.total_training_epochs += trained_now * self.training_config.epochs
            self._m_rounds.inc()
            self._m_evaluated.inc(len(evaluations))
            self._m_trained.inc(trained_now)
            self._m_store_hits.inc(
                sum(1 for evaluation in evaluations if evaluation.from_cache)
            )
            round_span.attrs["trained"] = trained_now
            for evaluation in evaluations:
                order += 1
                self._records.append(
                    SearchRecord(
                        structure=evaluation.structure,
                        validation_mrr=evaluation.validation_mrr,
                        num_blocks=evaluation.structure.num_blocks,
                        stage=evaluation.structure.num_blocks,
                        order=order,
                        elapsed_seconds=time.perf_counter() - start_time,
                    )
                )
                state.evaluations.append(evaluation)
            self.strategy.observe(state, evaluations)

        return self._build_result()

    # ------------------------------------------------------------------
    # ASHA fidelity rungs
    # ------------------------------------------------------------------
    def _rung_evaluator(self, epochs: int) -> CandidateEvaluator:
        """A (cached) evaluator training at a reduced epoch budget.

        Rung evaluators share the loop's timing ledger and base seed but
        get their own persistent sub-store: store entries are keyed by the
        candidate alone, so mixing epoch budgets in one directory would let
        a cheap rung evaluation clobber a full-fidelity entry.
        """
        evaluator = self._rung_evaluators.get(epochs)
        if evaluator is None:
            store = None
            if self.store is not None:
                store = EvaluationStore(self.store.directory / f"rung_{epochs:04d}")
            evaluator = CandidateEvaluator(
                self.graph,
                self.training_config.replace(epochs=epochs),
                validation_split=self.evaluator.validation_split,
                timing=self.timing,
                store=store,
                base_seed=self.evaluator.base_seed,
            )
            self._rung_evaluators[epochs] = evaluator
        return evaluator

    def _run_rungs(self, state, candidates, order, start_time):
        """Run the reduced-epoch rungs; return (survivors, order).

        Promotion keeps the scheduler's top fraction per rung, ranked by
        validation MRR with a canonical-key tie-break so the schedule is
        deterministic across backends and worker counts.  The survivors are
        trained at full fidelity by the caller (the final rung *is* the
        plain evaluator, so survivor results match the full-fidelity path
        bit for bit).
        """
        ladder = self.scheduler.ladder(self.training_config.epochs)
        survivors = list(candidates)
        for rung_index, epochs in enumerate(ladder[:-1]):
            if len(survivors) <= 1:
                break
            evaluator = self._rung_evaluator(epochs)
            trained_before = evaluator.num_trained
            keep = self.scheduler.promote_count(len(survivors))
            with obs_trace.span(
                "search.rung",
                attrs={"rung": rung_index, "epochs": epochs, "candidates": len(survivors)},
            ) as rung_span:
                rung_evaluations = evaluator.evaluate_many(
                    survivors, backend=self.backend
                )
                trained = evaluator.num_trained - trained_before
                rung_span.attrs["trained"] = trained
                rung_span.attrs["promoted"] = keep
            self.total_training_epochs += trained * epochs
            for evaluation in rung_evaluations:
                order += 1
                self._records.append(
                    SearchRecord(
                        structure=evaluation.structure,
                        validation_mrr=evaluation.validation_mrr,
                        num_blocks=evaluation.structure.num_blocks,
                        stage=evaluation.structure.num_blocks,
                        order=order,
                        elapsed_seconds=time.perf_counter() - start_time,
                        rung=rung_index,
                        rung_epochs=epochs,
                        full_fidelity=False,
                    )
                )
            ranked = sorted(
                zip(survivors, rung_evaluations),
                key=lambda pair: (-pair[1].validation_mrr, canonical_key(pair[0])),
            )
            survivors = [structure for structure, _ in ranked[:keep]]
            stats = self.rung_stats.setdefault(
                epochs,
                {"rung": rung_index, "epochs": epochs, "evaluated": 0, "trained": 0, "promoted": 0},
            )
            stats["evaluated"] += len(rung_evaluations)
            stats["trained"] += trained
            stats["promoted"] += len(survivors)
            state.rung_history.append(
                {
                    "rung": rung_index,
                    "epochs": epochs,
                    "candidates": len(rung_evaluations),
                    "promoted": len(survivors),
                    "trained": trained,
                }
            )
        return survivors, order

    def _build_result(self) -> SearchResult:
        full_fidelity = [record for record in self._records if record.full_fidelity]
        if not full_fidelity:
            raise RuntimeError(
                f"{getattr(self.strategy, 'name', 'search')} strategy produced no evaluations"
            )
        best = max(full_fidelity, key=lambda record: record.validation_mrr)
        statistics = {}
        if hasattr(self.strategy, "statistics"):
            statistics = dict(self.strategy.statistics())
        return SearchResult(
            best_structure=best.structure,
            best_mrr=best.validation_mrr,
            records=list(self._records),
            timing=self.timing,
            filter_statistics=statistics,
        )
