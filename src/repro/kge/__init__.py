"""Knowledge-graph-embedding substrate: scoring functions, training, evaluation.

This package is a self-contained, NumPy-only KGE framework implementing the
training and evaluation pipeline of Alg. 1 of the AutoSF paper:

* :mod:`repro.kge.scoring` — scoring functions, including the unified
  block-structured bilinear family that the AutoSF search space is built on,
  the classical bilinear models (DistMult, ComplEx, Analogy, SimplE, RESCAL),
  translational baselines (TransE, TransH, RotatE) and the MLP general
  approximator used as an AutoML baseline.
* :mod:`repro.kge.losses` — multi-class (full softmax) loss, logistic and
  hinge pairwise losses.
* :mod:`repro.kge.optimizers` — Adagrad (the paper's optimizer), Adam, SGD.
* :mod:`repro.kge.trainer` — the stochastic training loop (epochs,
  validation, early stopping with best-checkpoint restore).
* :mod:`repro.kge.engine` — the per-batch training engine, whose kernel the
  loss picks (entity-chunked multi-class or touched-rows pairwise), and the
  reference loop kept as the parity oracle.
* :mod:`repro.kge.evaluation` — filtered link-prediction metrics (MRR,
  Hits@k) and triplet classification.
"""

from repro.kge.engine import ReferenceTrainEngine, TrainEngine
from repro.kge.model import (
    KGEModel,
    require_graph_matches_params,
    train_model,
)
from repro.kge.topk import (
    mask_known_scores,
    select_predictions,
    top_k_indices,
    top_k_reference,
)
from repro.kge.evaluation import (
    EvaluationResult,
    compute_ranks,
    compute_ranks_reference,
    evaluate_link_prediction,
    evaluate_triplet_classification,
    filtered_ranks_batch,
)
from repro.kge.trainer import Trainer, TrainingHistory
from repro.kge.scoring import (
    BlockScoringFunction,
    BlockStructure,
    ScoringFunction,
    get_scoring_function,
)

__all__ = [
    "ReferenceTrainEngine",
    "TrainEngine",
    "KGEModel",
    "require_graph_matches_params",
    "train_model",
    "mask_known_scores",
    "select_predictions",
    "top_k_indices",
    "top_k_reference",
    "EvaluationResult",
    "compute_ranks",
    "compute_ranks_reference",
    "evaluate_link_prediction",
    "evaluate_triplet_classification",
    "filtered_ranks_batch",
    "Trainer",
    "TrainingHistory",
    "BlockScoringFunction",
    "BlockStructure",
    "ScoringFunction",
    "get_scoring_function",
]
