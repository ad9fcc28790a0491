"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the AutoSF paper on the
miniature benchmarks.  The knobs below trade fidelity for wall-clock time;
set the environment variable ``REPRO_BENCH_SCALE`` (default 0.3) and
``REPRO_BENCH_EPOCHS`` (default 12) to run larger, slower reproductions.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

from repro.experiments import ExperimentSpec, SearchSpec
from repro.utils.config import PredictorConfig, TrainingConfig

#: Fraction of the miniature-profile size used by default in benches.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.3"))
#: Training epochs per candidate model in benches.
BENCH_EPOCHS = int(os.environ.get("REPRO_BENCH_EPOCHS", "12"))
#: Embedding dimension used during benches (the paper searches at d=64).
BENCH_DIMENSION = int(os.environ.get("REPRO_BENCH_DIMENSION", "16"))

#: Where the printed tables are also written as text files.
RESULTS_DIR = Path(__file__).parent / "results"


def bench_training_config(**overrides) -> TrainingConfig:
    """The shared per-candidate training configuration."""
    settings = dict(
        dimension=BENCH_DIMENSION,
        epochs=BENCH_EPOCHS,
        batch_size=256,
        learning_rate=0.5,
        l2_penalty=1e-4,
        seed=0,
    )
    settings.update(overrides)
    return TrainingConfig(**settings)


def bench_search_spec(predictor: Optional[PredictorConfig] = None, **search) -> ExperimentSpec:
    """The shared search spec: a scaled-down Alg. 2 unless ``search`` overrides it.

    ``search`` sets fields of the spec's search section (e.g.
    ``strategy="random"`` or ``use_filter=False``); ``predictor`` replaces
    the predictor section.
    """
    settings = dict(max_blocks=6, candidates_per_step=16, top_parents=5, train_per_step=4)
    settings.update(search)
    return ExperimentSpec(
        name="bench",
        seed=0,
        search=SearchSpec(**settings),
        predictor=predictor if predictor is not None else PredictorConfig(epochs=150),
    )


def publish(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    print("\n" + text)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")

