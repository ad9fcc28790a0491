"""Shared utilities: RNG management, configuration, timing, serialization.

These helpers are deliberately small and dependency-free so that every other
subpackage (datasets, kge, core, analysis) can rely on them without circular
imports.
"""

from repro.utils.config import PredictorConfig, TrainingConfig
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.serialization import from_json_file, to_json_file
from repro.utils.timing import TimingRecorder

__all__ = [
    "PredictorConfig",
    "TrainingConfig",
    "ensure_rng",
    "spawn_rngs",
    "from_json_file",
    "to_json_file",
    "TimingRecorder",
]
