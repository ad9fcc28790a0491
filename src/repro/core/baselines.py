"""The general-approximator baseline of the Sec. V-D comparison (Fig. 6).

:func:`general_approximator_baseline` trains the unconstrained MLP scoring
function once (the Gen-Approx line of Fig. 6).  The other two baselines of
that comparison, random search and Bayesian optimization, are the
``random`` / ``bayes`` strategies of :mod:`repro.experiments.strategies`,
driven by the same :class:`~repro.experiments.loop.SearchLoop` as AutoSF so
that every method spends one budget under one evaluation protocol.
"""

from __future__ import annotations

from typing import Optional

from repro.datasets.knowledge_graph import KnowledgeGraph
from repro.kge.evaluation import evaluate_link_prediction
from repro.kge.scoring.neural import MLPScoringFunction
from repro.kge.trainer import Trainer
from repro.utils.config import TrainingConfig


def general_approximator_baseline(
    graph: KnowledgeGraph,
    training_config: Optional[TrainingConfig] = None,
    hidden_units: Optional[int] = None,
) -> float:
    """Train the MLP general approximator once; return its validation MRR.

    This is the "Gen-Approx" reference line in Fig. 6: an unconstrained
    neural scorer that, despite being a universal approximator, lacks the
    domain-specific structure of the bilinear search space and overfits.
    """
    config = training_config or TrainingConfig()
    scoring_function = MLPScoringFunction(hidden_units=hidden_units)
    trainer = Trainer(scoring_function, config)
    params, _history = trainer.fit(graph)
    result = evaluate_link_prediction(scoring_function, params, graph, split="valid")
    return result.mrr
