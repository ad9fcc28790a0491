"""High-level model wrapper: scoring function + trained parameters + metadata.

:class:`KGEModel` is the object most users interact with: it bundles a
scoring function, its trained parameter dict and the training configuration,
and exposes prediction, ranking and evaluation.  Its one on-disk format is
the serving artifact (:mod:`repro.serving.artifact`).  The
:func:`train_model` convenience function covers the common
"train this SF on this graph with this config" call in one line, which is
also the primitive the AutoSF search invokes for every candidate.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.datasets.knowledge_graph import FilterIndex, KnowledgeGraph
from repro.kge.evaluation import (
    EvaluationResult,
    evaluate_link_prediction,
    evaluate_triplet_classification,
)
from repro.kge.scoring.base import HEAD, TAIL, ParamDict, ScoringFunction
from repro.kge.scoring.bilinear import BlockScoringFunction
from repro.kge.scoring.blocks import BlockStructure
from repro.kge.scoring.registry import get_scoring_function
from repro.kge.topk import mask_known_scores, select_predictions
from repro.kge.trainer import Trainer, TrainingHistory
from repro.utils.config import TrainingConfig


def require_graph_matches_params(
    params: ParamDict,
    graph: KnowledgeGraph,
    error_cls: type = ValueError,
) -> None:
    """Fail when a graph's vocabulary sizes don't match trained parameters."""
    num_entities = int(params["entities"].shape[0])
    num_relations = int(params["relations"].shape[0])
    if graph.num_entities != num_entities or graph.num_relations != num_relations:
        raise error_cls(
            f"graph vocabulary ({graph.num_entities} entities, "
            f"{graph.num_relations} relations) does not match the trained "
            f"parameters ({num_entities} entities, {num_relations} relations)"
        )


class KGEModel:
    """A trained (or trainable) knowledge-graph-embedding model."""

    def __init__(
        self,
        scoring_function: ScoringFunction,
        config: TrainingConfig,
        params: Optional[ParamDict] = None,
    ) -> None:
        self.scoring_function = scoring_function
        self.config = config
        self.params: Optional[ParamDict] = params
        self.history: Optional[TrainingHistory] = None

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(
        self,
        graph: KnowledgeGraph,
        validate: bool = False,
    ) -> TrainingHistory:
        """Train the model on ``graph``; returns the training history.

        When ``validate`` is true the trainer evaluates filtered validation
        MRR every ``config.eval_every`` epochs (enabling early stopping when
        ``config.early_stopping_patience > 0``).
        """
        trainer = Trainer(self.scoring_function, self.config)
        callback = None
        if validate and self.config.eval_every > 0:
            def callback(params: ParamDict) -> float:
                result = evaluate_link_prediction(
                    self.scoring_function, params, graph, split="valid"
                )
                return result.mrr

        self.params, self.history = trainer.fit(graph, validation_callback=callback)
        return self.history

    def _require_params(self) -> ParamDict:
        if self.params is None:
            raise RuntimeError("model has no parameters; call fit() first")
        return self.params

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def score(self, triples: np.ndarray) -> np.ndarray:
        """Plausibility scores of explicit (h, r, t) triples."""
        return self.scoring_function.score_triples(self._require_params(), np.asarray(triples))

    def _predict(
        self,
        entity: int,
        relation: int,
        direction: str,
        top_k: int,
        exclude_known: Optional[FilterIndex],
    ) -> Sequence[Tuple[int, float]]:
        """One query scored naively, selected through the shared top-k helper.

        This is the serving engine's parity oracle: plain per-query
        ``score_candidates`` (no relation materialization, no caching), with
        selection and known-positive masking going through exactly the same
        helpers as the batched engine.
        """
        params = self._require_params()
        queries = np.asarray([[entity, relation]], dtype=np.int64)
        scores = self.scoring_function.score_candidates(params, queries, direction=direction)
        if exclude_known is not None:
            scores = mask_known_scores(
                scores, exclude_known, queries[:, 0], queries[:, 1], direction
            )
        order, top_scores = select_predictions(scores[0], top_k)
        return [(int(index), float(score)) for index, score in zip(order, top_scores)]

    def predict_tails(
        self,
        head: int,
        relation: int,
        top_k: int = 10,
        exclude_known: Optional[FilterIndex] = None,
    ) -> Sequence[Tuple[int, float]]:
        """Top-k candidate tails for ``(head, relation, ?)`` as (entity, score).

        Candidates are ordered by descending score, ties by lower entity
        index (selected with ``argpartition``, not a full sort).  When
        ``exclude_known`` is given, entities listed as known answers of the
        query in that :class:`FilterIndex` are removed from the candidates —
        a saturated query may therefore return fewer than ``top_k`` results.
        """
        return self._predict(head, relation, TAIL, top_k, exclude_known)

    def predict_heads(
        self,
        relation: int,
        tail: int,
        top_k: int = 10,
        exclude_known: Optional[FilterIndex] = None,
    ) -> Sequence[Tuple[int, float]]:
        """Top-k candidate heads for ``(?, relation, tail)`` as (entity, score).

        Same ordering, tie-breaking and ``exclude_known`` semantics as
        :meth:`predict_tails`.
        """
        return self._predict(tail, relation, HEAD, top_k, exclude_known)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        graph: KnowledgeGraph,
        split: str = "test",
        hits_at: Sequence[int] = (1, 3, 10),
    ) -> EvaluationResult:
        """Filtered link-prediction metrics on the chosen split."""
        return evaluate_link_prediction(
            self.scoring_function, self._require_params(), graph, split=split, hits_at=hits_at
        )

    def classify(self, graph: KnowledgeGraph, rng: Optional[int] = 0) -> float:
        """Triplet-classification accuracy on the test split."""
        return evaluate_triplet_classification(
            self.scoring_function, self._require_params(), graph, rng=rng
        )


def train_model(
    graph: KnowledgeGraph,
    scoring_function: Union[str, ScoringFunction, BlockStructure],
    config: Optional[TrainingConfig] = None,
    validate: bool = False,
) -> KGEModel:
    """Train a model in one call.

    Parameters
    ----------
    scoring_function:
        A model name (``"complex"`` …), a :class:`ScoringFunction` instance,
        or a raw :class:`BlockStructure` (e.g. one found by the search).
    """
    if config is None:
        config = TrainingConfig()
    if isinstance(scoring_function, str):
        scoring_function = get_scoring_function(scoring_function)
    elif isinstance(scoring_function, BlockStructure):
        scoring_function = BlockScoringFunction(scoring_function)
    model = KGEModel(scoring_function, config)
    model.fit(graph, validate=validate)
    return model
