"""Search strategies behind the unified :class:`~repro.experiments.loop.SearchLoop`.

A strategy is the *policy* of a search — which candidates to try next —
separated from the *mechanics* (seeding, execution backend, evaluation
store, budget accounting, timing), which live in the loop.  The protocol is
three methods:

* ``propose(state)`` — the next batch of candidate structures to train (an
  empty list means the strategy has nothing left to try);
* ``observe(state, evaluations)`` — incorporate the finished evaluations
  (update surrogate models, filters, histories);
* ``finished(state)`` — whether the strategy is done regardless of budget.

The three policies of the paper's Sec. V comparison are registered under
``greedy`` (the progressive search of Alg. 2), ``random`` and ``bayes``;
:func:`register_strategy` makes new policies (evolutionary, portfolio, ...)
a one-file plug-in selected by the spec's ``search.strategy`` field.

Strategies draw all their randomness from the shared ``state.rng``, so a
fixed seed reproduces a trajectory exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from repro.core.evaluator import CandidateEvaluation
from repro.core.filters import CandidateFilter
from repro.core.predictor import PerformancePredictor, get_feature_extractor
from repro.core.search_space import enumerate_f4_structures, extend_structure, random_structure
from repro.experiments.spec import ExperimentSpec
from repro.kge.scoring.blocks import BlockStructure
from repro.utils.config import ConfigError, PredictorConfig
from repro.utils.timing import TimingRecorder


@dataclass
class SearchState:
    """Shared, loop-owned state every strategy reads (and draws RNG from)."""

    rng: np.random.Generator
    budget: Optional[int] = None
    evaluations: List[CandidateEvaluation] = field(default_factory=list)
    timing: TimingRecorder = field(default_factory=TimingRecorder)
    #: ASHA rung executions performed by the loop (one dict per rung per
    #: round: rung index, epoch budget, candidates in/out, trained count).
    #: Empty for full-fidelity-only searches; ``evaluations`` / the budget
    #: always count only full-fidelity results.
    rung_history: List[Dict[str, int]] = field(default_factory=list)

    @property
    def num_evaluations(self) -> int:
        return len(self.evaluations)

    def remaining_budget(self) -> Optional[int]:
        """Evaluations left under the budget (``None`` when unbounded)."""
        if self.budget is None:
            return None
        return max(self.budget - self.num_evaluations, 0)

    def evaluations_with_blocks(self, num_blocks: int) -> List[CandidateEvaluation]:
        return [item for item in self.evaluations if item.structure.num_blocks == num_blocks]

    def top_structures(self, num_blocks: int, count: int) -> List[BlockStructure]:
        """Best ``count`` structures with ``num_blocks`` blocks, by valid MRR."""
        stage = self.evaluations_with_blocks(num_blocks)
        stage.sort(key=lambda item: -item.validation_mrr)
        return [item.structure for item in stage[:count]]


@runtime_checkable
class SearchStrategy(Protocol):
    """Candidate-selection policy driven by the unified search loop."""

    name: str

    def propose(self, state: SearchState) -> List[BlockStructure]:
        """Next batch of candidates to train (empty list: nothing left)."""
        ...  # pragma: no cover - protocol body

    def observe(self, state: SearchState, evaluations: Sequence[CandidateEvaluation]) -> None:
        """Incorporate finished evaluations into the strategy's state."""
        ...  # pragma: no cover - protocol body

    def finished(self, state: SearchState) -> bool:
        """Whether the strategy is exhausted (independent of the budget)."""
        ...  # pragma: no cover - protocol body

    def statistics(self) -> Dict[str, int]:
        """Filter/bookkeeping counters for the final report."""
        ...  # pragma: no cover - protocol body


class GreedyStrategy:
    """The progressive greedy search of Alg. 2 as a pluggable strategy.

    Stage ``b = 4`` proposes the deduplicated seed structures; every later
    stage ``b = 6, 8, ... B`` extends the top-``K1`` parents of stage
    ``b - 2`` by two random blocks, filters the pool (constraint C2 +
    invariance dedup), ranks it with the performance predictor and proposes
    the top ``K2``.
    """

    name = "greedy"

    def __init__(
        self,
        max_blocks: int = 6,
        candidates_per_step: int = 64,
        top_parents: int = 8,
        train_per_step: int = 8,
        use_filter: bool = True,
        use_predictor: bool = True,
        predictor_config: Optional[PredictorConfig] = None,
    ) -> None:
        self.max_blocks = max_blocks
        self.candidates_per_step = candidates_per_step
        self.top_parents = top_parents
        self.train_per_step = train_per_step
        self.use_filter = use_filter
        self.use_predictor = use_predictor
        self.candidate_filter = CandidateFilter(
            enforce_constraints=use_filter, deduplicate=use_filter
        )
        self.predictor: Optional[PerformancePredictor] = (
            PerformancePredictor(predictor_config or PredictorConfig())
            if use_predictor
            else None
        )
        self._stage = 4
        self._exhausted = False

    # ------------------------------------------------------------------
    # Stage logic
    # ------------------------------------------------------------------
    def _seed_candidates(self, state: SearchState) -> List[BlockStructure]:
        """Stage b = 4: every distinct seed structure."""
        with state.timing.measure("filter"):
            seeds = enumerate_f4_structures(deduplicate=True)
            accepted = [seed for seed in seeds if self.candidate_filter.accept(seed)]
        if not accepted:
            # With the filter disabled the seeds are still the deduplicated
            # f4 structures; acceptance can only fail on duplicates.
            accepted = seeds
        return accepted

    def _generate_pool(self, state: SearchState, stage: int) -> List[BlockStructure]:
        """Steps 2–6 of Alg. 2: collect up to N filtered candidates."""
        parents = state.top_structures(stage - 2, self.top_parents)
        if not parents:
            return []
        pool: List[BlockStructure] = []
        pool_keys = set()
        max_attempts = 200 * self.candidates_per_step
        attempts = 0
        with state.timing.measure("filter"):
            while len(pool) < self.candidates_per_step and attempts < max_attempts:
                attempts += 1
                parent = parents[int(state.rng.integers(0, len(parents)))]
                candidate = extend_structure(parent, num_new_blocks=2, rng=state.rng)
                if candidate is None:
                    continue
                if self.use_filter:
                    if not self.candidate_filter.accept(candidate):
                        continue
                else:
                    # Without the filter only exact duplicates inside the pool
                    # are skipped, mirroring the "no filter" ablation.
                    if candidate.key() in pool_keys:
                        continue
                pool_keys.add(candidate.key())
                pool.append(candidate)
        return pool

    def _select_candidates(
        self, state: SearchState, pool: List[BlockStructure]
    ) -> List[BlockStructure]:
        """Step 7 of Alg. 2: keep the K2 most promising candidates."""
        if len(pool) <= self.train_per_step:
            return pool
        if self.predictor is not None and self.predictor.is_trained:
            with state.timing.measure("predictor"):
                return self.predictor.select_top(pool, self.train_per_step)
        selection = state.rng.choice(len(pool), size=self.train_per_step, replace=False)
        return [pool[int(index)] for index in selection]

    # ------------------------------------------------------------------
    # Strategy protocol
    # ------------------------------------------------------------------
    def propose(self, state: SearchState) -> List[BlockStructure]:
        if self._stage == 4:
            return self._seed_candidates(state)
        pool = self._generate_pool(state, self._stage)
        if not pool:
            self._exhausted = True
            return []
        return self._select_candidates(state, pool)

    def observe(self, state: SearchState, evaluations: Sequence[CandidateEvaluation]) -> None:
        for evaluation in evaluations:
            self.candidate_filter.record_history(evaluation.structure)
        self._stage += 2
        self._refit_predictor(state)

    def _refit_predictor(self, state: SearchState) -> None:
        """Steps 10–11 of Alg. 2: refit the predictor on the full history."""
        if self.predictor is None or not state.evaluations:
            return
        with state.timing.measure("predictor"):
            structures = [item.structure for item in state.evaluations]
            scores = [item.validation_mrr for item in state.evaluations]
            self.predictor.fit(structures, scores)

    def finished(self, state: SearchState) -> bool:
        return self._exhausted or self._stage > self.max_blocks

    def statistics(self) -> Dict[str, int]:
        return self.candidate_filter.statistics.as_dict()


class RandomStrategy:
    """Random structures with a fixed block count (the paper's "Random")."""

    name = "random"

    def __init__(self, num_blocks: int = 6, require_c2: bool = True) -> None:
        self.num_blocks = num_blocks
        self.require_c2 = require_c2
        self.dedup = CandidateFilter(enforce_constraints=require_c2, deduplicate=True)
        self._exhausted = False

    def propose(self, state: SearchState) -> List[BlockStructure]:
        for _attempt in range(200):
            candidate = random_structure(self.num_blocks, state.rng, require_c2=self.require_c2)
            if candidate is None:
                break
            if self.dedup.accept(candidate):
                return [candidate]
        self._exhausted = True
        return []

    def observe(self, state: SearchState, evaluations: Sequence[CandidateEvaluation]) -> None:
        return None  # dedup bookkeeping already happened during sampling

    def finished(self, state: SearchState) -> bool:
        return self._exhausted

    def statistics(self) -> Dict[str, int]:
        return self.dedup.statistics.as_dict()


class BayesStrategy:
    """Sequential model-based search with a Bayesian linear surrogate.

    A Bayesian-linear-regression surrogate over structure features ranks a
    pool of random candidates by an upper-confidence-bound acquisition, so
    promising regions are sampled more densely (the paper's "Bayes"
    baseline without requiring HyperOpt).
    """

    name = "bayes"

    def __init__(
        self,
        num_blocks: int = 6,
        feature_type: str = "srf",
        pool_size: int = 64,
        exploration_weight: float = 1.0,
        prior_precision: float = 1.0,
        noise_precision: float = 25.0,
    ) -> None:
        self.num_blocks = num_blocks
        self.extractor, self.feature_dimension = get_feature_extractor(feature_type)
        self.pool_size = pool_size
        self.exploration_weight = float(exploration_weight)
        self.prior_precision = float(prior_precision)
        self.noise_precision = float(noise_precision)
        self.dedup = CandidateFilter(enforce_constraints=True, deduplicate=True)
        self._observed_features: List[np.ndarray] = []
        self._observed_targets: List[float] = []
        self._exhausted = False

    # ------------------------------------------------------------------
    # Surrogate
    # ------------------------------------------------------------------
    def _posterior(self, features: np.ndarray, targets: np.ndarray):
        """Bayesian linear regression posterior (mean weights, covariance)."""
        dimension = features.shape[1]
        precision = self.prior_precision * np.eye(dimension)
        precision += self.noise_precision * features.T @ features
        covariance = np.linalg.inv(precision)
        mean = self.noise_precision * covariance @ features.T @ targets
        return mean, covariance

    def _acquisition(
        self, state: SearchState, candidates: List[BlockStructure]
    ) -> np.ndarray:
        """Upper-confidence-bound acquisition over the candidate pool."""
        candidate_features = np.stack([self.extractor(candidate) for candidate in candidates])
        if len(self._observed_features) < 2:
            return state.rng.random(len(candidates))
        features = np.stack(self._observed_features)
        targets = np.asarray(self._observed_targets, dtype=np.float64)
        mean, covariance = self._posterior(features, targets)
        predicted = candidate_features @ mean
        variance = np.einsum("ij,jk,ik->i", candidate_features, covariance, candidate_features)
        variance = np.maximum(variance, 0.0) + 1.0 / self.noise_precision
        return predicted + self.exploration_weight * np.sqrt(variance)

    # ------------------------------------------------------------------
    # Strategy protocol
    # ------------------------------------------------------------------
    def propose(self, state: SearchState) -> List[BlockStructure]:
        pool: List[BlockStructure] = []
        for _attempt in range(20 * self.pool_size):
            if len(pool) >= self.pool_size:
                break
            candidate = random_structure(self.num_blocks, state.rng, require_c2=True)
            if candidate is None:
                continue
            if self.dedup.explain(candidate) is None and all(
                candidate.key() != member.key() for member in pool
            ):
                pool.append(candidate)
        if not pool:
            self._exhausted = True
            return []
        scores = self._acquisition(state, pool)
        chosen = pool[int(np.argmax(scores))]
        self.dedup.accept(chosen)
        return [chosen]

    def observe(self, state: SearchState, evaluations: Sequence[CandidateEvaluation]) -> None:
        for evaluation in evaluations:
            self._observed_features.append(self.extractor(evaluation.structure))
            self._observed_targets.append(evaluation.validation_mrr)

    def finished(self, state: SearchState) -> bool:
        return self._exhausted

    def statistics(self) -> Dict[str, int]:
        return self.dedup.statistics.as_dict()


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
StrategyBuilder = Callable[[ExperimentSpec], SearchStrategy]

_STRATEGIES: Dict[str, StrategyBuilder] = {}


def register_strategy(name: str) -> Callable[[StrategyBuilder], StrategyBuilder]:
    """Register a builder ``ExperimentSpec -> SearchStrategy`` under ``name``.

    Usage::

        @register_strategy("evolutionary")
        def _build(spec: ExperimentSpec) -> SearchStrategy:
            return EvolutionaryStrategy(population=spec.search.pool_size)

    After registration, any spec with ``"search": {"strategy":
    "evolutionary"}`` runs the new policy through the same loop, run
    directory and CLI as the built-ins.
    """

    def decorator(builder: StrategyBuilder) -> StrategyBuilder:
        _STRATEGIES[name] = builder
        return builder

    return decorator


def available_strategies() -> Tuple[str, ...]:
    """Registered strategy names, sorted."""
    return tuple(sorted(_STRATEGIES))


def create_strategy(spec: ExperimentSpec) -> SearchStrategy:
    """Instantiate the strategy selected by ``spec.search.strategy``."""
    name = spec.search.strategy
    builder = _STRATEGIES.get(name)
    if builder is None:
        raise ConfigError(
            f"SearchSpec.strategy: unknown strategy {name!r} "
            f"(available: {', '.join(available_strategies())})"
        )
    return builder(spec)


@register_strategy("greedy")
def _build_greedy(spec: ExperimentSpec) -> SearchStrategy:
    search = spec.search
    return GreedyStrategy(
        max_blocks=search.max_blocks,
        candidates_per_step=search.candidates_per_step,
        top_parents=search.top_parents,
        train_per_step=search.train_per_step,
        use_filter=search.use_filter,
        use_predictor=search.use_predictor,
        predictor_config=spec.predictor,
    )


@register_strategy("random")
def _build_random(spec: ExperimentSpec) -> SearchStrategy:
    search = spec.search
    return RandomStrategy(num_blocks=search.num_blocks, require_c2=search.require_c2)


@register_strategy("bayes")
def _build_bayes(spec: ExperimentSpec) -> SearchStrategy:
    search = spec.search
    return BayesStrategy(
        num_blocks=search.num_blocks,
        feature_type=search.feature_type,
        pool_size=search.pool_size,
        exploration_weight=search.exploration_weight,
        prior_precision=search.prior_precision,
        noise_precision=search.noise_precision,
    )
