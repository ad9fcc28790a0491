"""AutoSF reproduction: searching scoring functions for knowledge graph embedding.

The package is organized in four layers:

* :mod:`repro.datasets` — knowledge-graph containers, synthetic benchmark
  generators and relation-pattern statistics;
* :mod:`repro.kge` — a NumPy knowledge-graph-embedding framework (scoring
  functions, losses, optimizers, trainer, evaluation);
* :mod:`repro.core` — the AutoSF contribution: the block-structure search
  space, expressiveness/invariance machinery, SRF predictor and the
  progressive greedy search, plus AutoML baselines;
* :mod:`repro.experiments` — the unified experiment API: declarative
  :class:`~repro.experiments.ExperimentSpec`, the ``SearchStrategy``
  protocol + registry, the single ``SearchLoop`` driver and the versioned
  run-directory contract;
* :mod:`repro.serving` — versioned artifacts, the batched inference engine
  and the HTTP query service;
* :mod:`repro.analysis` — case studies, transfer experiments and report
  formatting used by the benchmark harness.
"""

from repro.datasets import KnowledgeGraph, load_benchmark
from repro.kge import KGEModel, train_model
from repro.utils.config import ConfigError, PredictorConfig, TrainingConfig

__version__ = "1.0.0"

__all__ = [
    "KnowledgeGraph",
    "load_benchmark",
    "KGEModel",
    "train_model",
    "ConfigError",
    "PredictorConfig",
    "TrainingConfig",
    "__version__",
]
