"""Shared fixtures and the tiered-test harness.

Fixtures: small graphs and configurations sized for fast tests.

Tiers: tests carrying one of the markers registered in ``pyproject.toml``
(``slow`` — long integration runs, ``property`` — hypothesis suites) form
tier 2 and are skipped by the default ``pytest -x -q`` run (tier 1).  Pass
``--runslow`` to run them; CI has a dedicated tier-2 job.  See TESTING.md.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import GeneratorProfile, KnowledgeGraph, generate_knowledge_graph
from repro.datasets.statistics import RelationPattern
from repro.experiments import ExperimentSpec, SearchSpec
from repro.utils.config import PredictorConfig, TrainingConfig

#: Markers whose tests are tier 2 (skipped unless --runslow is given).
TIER2_MARKERS = ("slow", "property")


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run tier-2 tests (marked slow / property)",
    )


def pytest_collection_modifyitems(config: pytest.Config, items) -> None:
    if config.getoption("--runslow"):
        return
    skips = {
        marker: pytest.mark.skip(reason=f"tier-2 ({marker}) test: pass --runslow to run")
        for marker in TIER2_MARKERS
    }
    for item in items:
        for marker in TIER2_MARKERS:
            if marker in item.keywords:
                item.add_marker(skips[marker])
                break


@pytest.fixture(scope="session")
def tiny_profile() -> GeneratorProfile:
    """A miniature profile with every relation pattern represented."""
    return GeneratorProfile(
        name="tiny",
        num_entities=60,
        num_clusters=4,
        relation_counts={
            RelationPattern.SYMMETRIC: 1,
            RelationPattern.ANTI_SYMMETRIC: 1,
            RelationPattern.INVERSE: 2,
            RelationPattern.GENERAL: 2,
        },
        triples_per_relation=60,
        seed=7,
    )


@pytest.fixture(scope="session")
def tiny_graph(tiny_profile) -> KnowledgeGraph:
    """A small but non-trivial knowledge graph (used by most training tests)."""
    return generate_knowledge_graph(tiny_profile)


@pytest.fixture(scope="session")
def micro_graph() -> KnowledgeGraph:
    """A hand-built 8-entity, 2-relation graph for exact-value tests."""
    triples = [
        (0, 0, 1),
        (1, 0, 0),
        (2, 0, 3),
        (3, 0, 2),
        (0, 1, 2),
        (1, 1, 3),
        (4, 1, 5),
        (5, 0, 6),
        (6, 1, 7),
        (7, 0, 4),
        (2, 1, 4),
        (3, 1, 5),
    ]
    return KnowledgeGraph(
        num_entities=8,
        num_relations=2,
        train=np.asarray(triples[:8], dtype=np.int64),
        valid=np.asarray(triples[8:10], dtype=np.int64),
        test=np.asarray(triples[10:], dtype=np.int64),
        name="micro",
    )


@pytest.fixture()
def fast_training_config() -> TrainingConfig:
    """Very small training budget; enough for loss to go down, not to converge."""
    return TrainingConfig(
        dimension=8,
        epochs=5,
        batch_size=64,
        learning_rate=0.5,
        l2_penalty=1e-4,
        seed=0,
    )


@pytest.fixture()
def fast_search_spec() -> ExperimentSpec:
    """A greedy search spec sized for a couple of seconds of wall time."""
    return ExperimentSpec(
        seed=0,
        search=SearchSpec(max_blocks=6, candidates_per_step=8, top_parents=3, train_per_step=2),
        predictor=PredictorConfig(epochs=50),
    )


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
