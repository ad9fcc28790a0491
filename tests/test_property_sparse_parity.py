"""Property-based touched-rows-vs-reference parity (hypothesis).

For random scoring families, batch shapes, duplicate-heavy batches,
optimizers and L2 weights, the pairwise training engine must produce the
same batch loss, the same accumulated gradients and — after two optimizer
steps — the same parameters as the reference loop at ``atol=1e-10``.  Duplicate triples within a batch are the
scatter-add collision case: deduplicated touched-row indices must still
accumulate every positive's contribution.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

pytestmark = pytest.mark.property  # tier 2: run with --runslow
from hypothesis import strategies as st

from repro.datasets.knowledge_graph import KnowledgeGraph
from repro.kge.engine import ReferenceTrainEngine
from repro.kge.trainer import Trainer
from repro.utils.config import TrainingConfig

from test_train_engine import SCORING_FACTORIES

_settings = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])

FAMILIES = sorted(SCORING_FACTORIES)


@st.composite
def batch_problems(draw):
    """(family, graph sizes, a batch of triples, loss/optimizer knobs).

    Batches are drawn with replacement from a small triple pool, so
    duplicate triples — and therefore duplicate touched indices — are common
    rather than adversarial corner cases.
    """
    family = draw(st.sampled_from(FAMILIES))
    num_entities = draw(st.integers(10, 40))
    num_relations = draw(st.integers(2, 6))
    pool_size = draw(st.integers(4, 30))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    pool = np.stack(
        [
            rng.integers(0, num_entities, pool_size),
            rng.integers(0, num_relations, pool_size),
            rng.integers(0, num_entities, pool_size),
        ],
        axis=1,
    ).astype(np.int64)
    batch_size = draw(st.integers(1, 48))
    batch = pool[draw(st.lists(st.integers(0, pool_size - 1), min_size=batch_size,
                               max_size=batch_size))]
    loss = draw(st.sampled_from(["logistic", "hinge"]))
    optimizer = draw(st.sampled_from(["sgd", "adagrad", "adam"]))
    l2_penalty = draw(st.sampled_from([0.0, 1e-3, 0.1]))
    negative_samples = draw(st.integers(1, min(6, num_entities - 1)))
    return (family, num_entities, num_relations, batch, loss, optimizer, l2_penalty,
            negative_samples, seed)


def _make_trainer(engine, family, num_entities, num_relations, loss, optimizer,
                  l2_penalty, negative_samples, seed):
    config = TrainingConfig(
        dimension=8,
        batch_size=64,
        learning_rate=0.3,
        l2_penalty=l2_penalty,
        loss=loss,
        optimizer=optimizer,
        negative_samples=negative_samples,
        seed=seed,
    )
    engine = ReferenceTrainEngine() if engine == "reference" else None
    trainer = Trainer(SCORING_FACTORIES[family](), config, engine=engine)
    graph_like = KnowledgeGraph(
        num_entities=num_entities,
        num_relations=num_relations,
        train=np.zeros((1, 3), dtype=np.int64),
        valid=np.zeros((0, 3), dtype=np.int64),
        test=np.zeros((0, 3), dtype=np.int64),
    )
    params = trainer.initialize(graph_like)
    return trainer, params


class TestSparseParityProperties:
    @_settings
    @given(batch_problems())
    def test_gradients_match_reference(self, problem):
        family, n_e, n_r, batch, loss, optimizer, l2_penalty, negatives, seed = problem
        outcomes = {}
        for engine in ("reference", "sparse"):
            trainer, params = _make_trainer(
                engine, family, n_e, n_r, loss, optimizer, l2_penalty, negatives, seed
            )
            grads = trainer.scoring_function.zero_grads(params)
            value = trainer.engine.accumulate_batch(trainer, params, batch, grads)
            outcomes[engine] = (value, grads)
        reference_value, reference_grads = outcomes["reference"]
        sparse_value, sparse_grads = outcomes["sparse"]
        assert sparse_value == pytest.approx(reference_value, abs=1e-10)
        assert set(sparse_grads) == set(reference_grads)
        for key in reference_grads:
            np.testing.assert_allclose(
                sparse_grads[key], reference_grads[key], rtol=0, atol=1e-10
            )

    @_settings
    @given(batch_problems())
    def test_post_step_parameters_match_reference(self, problem):
        family, n_e, n_r, batch, loss, optimizer, l2_penalty, negatives, seed = problem
        outcomes = {}
        for engine in ("reference", "sparse"):
            trainer, params = _make_trainer(
                engine, family, n_e, n_r, loss, optimizer, l2_penalty, negatives, seed
            )
            trainer.train_step(params, batch)
            # A second step exercises accumulated optimizer state too.
            trainer.train_step(params, batch)
            outcomes[engine] = params
        for key in outcomes["reference"]:
            np.testing.assert_allclose(
                outcomes["sparse"][key], outcomes["reference"][key], rtol=0, atol=1e-10
            )
