"""AutoSF core: search space, constraints, invariance, SRF, predictor, evaluation.

This package implements the paper's contribution proper:

* :mod:`repro.core.search_space` — candidate generation in the unified
  block-matrix space (Definition 2);
* :mod:`repro.core.constraints` — expressiveness (C1) and non-degeneracy
  (C2) constraints (Sec. IV-A1);
* :mod:`repro.core.invariance` — the 9,216-element invariance group, applied
  to a structure's substitute matrix in one vectorized step, and the
  canonical forms and orbit codes built on it (Sec. IV-A2);
* :mod:`repro.core.srf` — symmetry-related features (Appendix C);
* :mod:`repro.core.filters` / :mod:`repro.core.predictor` — the filter Q and
  predictor P of Alg. 2, whose stage logic is the ``greedy`` strategy of
  :mod:`repro.experiments.strategies`;
* :mod:`repro.core.execution` — serial / process-pool execution backends
  for the candidate-evaluation inner loop;
* :mod:`repro.core.store` — the persistent evaluation store behind
  cross-run caching and ``search --resume``;
* :mod:`repro.core.baselines` — the general-approximator baseline
  (Sec. V-D);
* :mod:`repro.core.hpo` — hyper-parameter tuning of the benchmark model
  (Sec. V-A2).
"""

from repro.core.baselines import general_approximator_baseline
from repro.core.constraints import ConstraintReport, check_structure, satisfies_c1, satisfies_c2
from repro.core.distributed import QueueBackend, run_worker, serve_worker
from repro.core.evaluator import (
    CandidateEvaluation,
    CandidateEvaluator,
    experiment_fingerprint,
)
from repro.core.execution import (
    EvaluationContext,
    EvaluationOutcome,
    EvaluationTask,
    ExecutionBackend,
    ExecutionError,
    SerialBackend,
    create_backend,
    derive_candidate_seed,
    evaluate_candidate,
)
from repro.core.filters import CandidateFilter, FilterStatistics
from repro.core.hpo import HPOResult, HPOSpace, HPOTrial, random_search_hpo, tpe_search_hpo
from repro.core.invariance import (
    are_equivalent,
    canonical_form,
    canonical_key,
    distinct_representatives,
    orbit_codes,
)
from repro.core.predictor import PerformancePredictor, get_feature_extractor
from repro.core.search_space import (
    enumerate_f4_structures,
    extend_structure,
    random_structure,
    search_space_size,
    total_search_space_size,
)
from repro.core.store import EvaluationStore
from repro.core.srf import (
    SRF_DIMENSION,
    can_be_skew_symmetric,
    can_be_symmetric,
    is_expressive,
    onehot_features,
    srf_features,
    srf_summary,
)

__all__ = [
    "general_approximator_baseline",
    "ConstraintReport",
    "check_structure",
    "satisfies_c1",
    "satisfies_c2",
    "CandidateEvaluation",
    "CandidateEvaluator",
    "CandidateFilter",
    "EvaluationContext",
    "EvaluationOutcome",
    "EvaluationStore",
    "EvaluationTask",
    "ExecutionBackend",
    "ExecutionError",
    "FilterStatistics",
    "QueueBackend",
    "SerialBackend",
    "run_worker",
    "serve_worker",
    "create_backend",
    "derive_candidate_seed",
    "evaluate_candidate",
    "experiment_fingerprint",
    "HPOResult",
    "HPOSpace",
    "HPOTrial",
    "random_search_hpo",
    "tpe_search_hpo",
    "are_equivalent",
    "canonical_form",
    "canonical_key",
    "distinct_representatives",
    "orbit_codes",
    "PerformancePredictor",
    "get_feature_extractor",
    "enumerate_f4_structures",
    "extend_structure",
    "random_structure",
    "search_space_size",
    "total_search_space_size",
    "SRF_DIMENSION",
    "can_be_skew_symmetric",
    "can_be_symmetric",
    "is_expressive",
    "onehot_features",
    "srf_features",
    "srf_summary",
]
