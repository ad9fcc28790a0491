"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the AutoSF paper on the
miniature benchmarks.  The knobs below trade fidelity for wall-clock time;
set the environment variable ``REPRO_BENCH_SCALE`` (default 0.3) and
``REPRO_BENCH_EPOCHS`` (default 12) to run larger, slower reproductions.
"""

from __future__ import annotations

import os
import subprocess
from pathlib import Path
from typing import Any, Dict, Optional

try:  # CI benchmark jobs install only numpy; the fixture below is optional.
    import pytest
except ImportError:  # pragma: no cover - exercised on minimal installs
    pytest = None

from repro.experiments import ExperimentSpec, SearchSpec
from repro.utils.config import PredictorConfig, TrainingConfig
from repro.utils.serialization import to_json_file

#: Fraction of the miniature-profile size used by default in benches.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.3"))
#: Training epochs per candidate model in benches.
BENCH_EPOCHS = int(os.environ.get("REPRO_BENCH_EPOCHS", "12"))
#: Embedding dimension used during benches (the paper searches at d=64).
BENCH_DIMENSION = int(os.environ.get("REPRO_BENCH_DIMENSION", "16"))

#: Where the printed tables are also written as text files.
RESULTS_DIR = Path(__file__).parent / "results"

#: Repository root — ``BENCH_<area>.json`` trajectory files land here so the
#: perf history of a checkout is visible at a glance (and easy for CI to
#: upload as artifacts).
REPO_ROOT = Path(__file__).resolve().parent.parent

#: Version of the ``BENCH_<area>.json`` payload layout.
BENCH_SCHEMA_VERSION = 1


def git_revision() -> str:
    """The current git commit hash, or ``"unknown"`` outside a checkout."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip() or "unknown"


def write_bench_summary(area: str, config: Dict[str, Any], metrics: Dict[str, Any]) -> Path:
    """Write the machine-readable ``BENCH_<area>.json`` trajectory file.

    Every ``bench_*.py --quick`` run records its headline numbers here
    (see ``run_all.py``), one file per benchmark area at the repo root::

        {"schema_version": 1, "area": ..., "revision": <git hash>,
         "config": {...knobs that shaped the run...},
         "metrics": {...headline numbers...}}

    Comparing the same area's file across revisions gives the perf
    trajectory of the project without re-running old checkouts.
    """
    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "area": area,
        "revision": git_revision(),
        "config": config,
        "metrics": metrics,
    }
    return to_json_file(payload, REPO_ROOT / f"BENCH_{area}.json")


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


if pytest is not None:

    @pytest.fixture(scope="session")
    def results_dir() -> Path:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        return RESULTS_DIR
