"""Tests for warm-start delta fine-tuning (repro.live.finetune).

The headline contract is *bitwise*: rows outside the delta-touched
entity/relation sets must come back byte-identical to the input params —
the lazy fine-tune engine only writes touched rows and the pooled sampler
keeps every corruption (hence every gradient) inside the touched pool.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kge import train_model
from repro.live import (
    FinetuneReport,
    PooledNegativeSampler,
    delta_touched,
    finetune_delta,
    warm_start_entities,
)
from repro.obs.metrics import MetricsRegistry, NullRegistry, get_registry, set_registry
from repro.utils.config import ConfigError, TrainingConfig


@pytest.fixture(scope="module")
def pairwise_config():
    return TrainingConfig(
        dimension=8,
        epochs=3,
        batch_size=64,
        learning_rate=0.3,
        l2_penalty=1e-4,
        loss="logistic",
        negative_samples=4,
        seed=0,
    )


@pytest.fixture(scope="module")
def trained(tiny_graph, pairwise_config):
    return train_model(tiny_graph, "complex", pairwise_config)


@pytest.fixture(scope="module")
def delta(tiny_graph):
    """A small append batch: known entities plus one brand-new entity."""
    known = {tuple(row) for row in tiny_graph.train}
    rng = np.random.default_rng(42)
    rows = []
    while len(rows) < 5:
        h = int(rng.integers(tiny_graph.num_entities))
        r = int(rng.integers(tiny_graph.num_relations))
        t = int(rng.integers(tiny_graph.num_entities))
        if h != t and (h, r, t) not in known:
            known.add((h, r, t))
            rows.append((h, r, t))
    rows.append((tiny_graph.num_entities, 0, rows[0][0]))
    return np.asarray(rows, dtype=np.int64)


class TestWarmStart:
    def test_neighborhood_mean_initialization(self):
        table = np.arange(12, dtype=np.float64).reshape(4, 3)
        params = {"entities": table, "relations": np.ones((2, 3))}
        # New entity 4 connects to trained 0 and 2 under relation 0, and to
        # trained 1 under relation 1: mean(mean(e0, e2), e1).
        delta = np.asarray([[4, 0, 0], [2, 0, 4], [4, 1, 1]], dtype=np.int64)
        grown = warm_start_entities(params, delta, num_entities=5)
        expected = ((table[0] + table[2]) / 2 + table[1]) / 2
        np.testing.assert_array_equal(grown["entities"][4], expected)
        # Old rows byte-identical, and the output is a fresh writable copy.
        assert grown["entities"][:4].tobytes() == table.tobytes()
        assert grown["entities"] is not table
        assert grown["entities"].flags.writeable

    def test_isolated_new_entity_falls_back_to_column_mean(self):
        table = np.arange(12, dtype=np.float64).reshape(4, 3)
        params = {"entities": table}
        # Entities 4 and 5 only reference each other: no trained neighbor.
        delta = np.asarray([[4, 0, 5]], dtype=np.int64)
        grown = warm_start_entities(params, delta, num_entities=6)
        np.testing.assert_array_equal(grown["entities"][4], table.mean(axis=0))
        np.testing.assert_array_equal(grown["entities"][5], table.mean(axis=0))

    def test_shrinking_rejected(self):
        params = {"entities": np.zeros((4, 3))}
        with pytest.raises(ValueError, match="below the current entity table"):
            warm_start_entities(params, np.zeros((1, 3), dtype=np.int64), 2)


class TestPooledSampler:
    def test_samples_stay_in_pool(self):
        pool = np.asarray([3, 7, 11, 20])
        sampler = PooledNegativeSampler(pool, num_negatives=6, rng=0)
        positives = np.asarray([3, 7, 20, 11, 3])
        negatives = sampler.sample(positives)
        assert negatives.shape == (5, 6)
        assert np.isin(negatives, pool).all()
        assert (negatives != positives[:, None]).all()

    def test_tiny_pool_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            PooledNegativeSampler(np.asarray([5]), num_negatives=2)


class TestFinetuneDelta:
    def test_untouched_rows_bitwise_unchanged(self, trained, pairwise_config, delta):
        # Adagrad and Adam both keep per-row state that the lazy update
        # (Optimizer.step_sparse) must only touch for the delta's rows.
        for optimizer in ("adagrad", "adam"):
            self._check_untouched_rows(
                trained, pairwise_config.replace(optimizer=optimizer), delta
            )

    @staticmethod
    def _check_untouched_rows(trained, config, delta):
        before = {key: np.array(value) for key, value in trained.params.items()}
        params, history, report = finetune_delta(
            trained.scoring_function, trained.params, config, delta
        )
        touched_entities, touched_relations = delta_touched(delta)
        entity_mask = np.ones(params["entities"].shape[0], dtype=bool)
        entity_mask[touched_entities] = False
        relation_mask = np.ones(params["relations"].shape[0], dtype=bool)
        relation_mask[touched_relations] = False
        old_count = before["entities"].shape[0]
        assert (
            params["entities"][: old_count][entity_mask[:old_count]].tobytes()
            == before["entities"][entity_mask[:old_count]].tobytes()
        )
        assert (
            params["relations"][relation_mask].tobytes()
            == before["relations"][relation_mask].tobytes()
        )
        # ...and the touched rows did actually train.
        assert not np.array_equal(
            params["entities"][touched_entities[touched_entities < old_count]],
            before["entities"][touched_entities[touched_entities < old_count]],
        )
        # Inputs are never mutated.
        for key in before:
            assert trained.params[key].tobytes() == before[key].tobytes()
        assert isinstance(report, FinetuneReport)
        assert report.delta_triples == delta.shape[0]
        assert report.new_entities == 1
        assert report.epochs == config.epochs
        assert len(history.losses) == config.epochs

    def test_deterministic(self, trained, pairwise_config, delta):
        first, _, _ = finetune_delta(
            trained.scoring_function, trained.params, pairwise_config, delta
        )
        second, _, _ = finetune_delta(
            trained.scoring_function, trained.params, pairwise_config, delta
        )
        for key in first:
            assert first[key].tobytes() == second[key].tobytes(), key

    def test_null_registry_parity(self, trained, pairwise_config, delta):
        """Telemetry on vs off must not change a single fine-tuned bit."""
        outputs = []
        previous = get_registry()
        try:
            for registry in (MetricsRegistry(), NullRegistry()):
                set_registry(registry)
                params, _, _ = finetune_delta(
                    trained.scoring_function, trained.params, pairwise_config, delta
                )
                outputs.append({key: value.tobytes() for key, value in params.items()})
        finally:
            set_registry(previous)
        assert outputs[0] == outputs[1]

    def test_multiclass_loss_rejected(self, trained, delta):
        config = TrainingConfig(dimension=8, epochs=1, loss="multiclass", seed=0)
        with pytest.raises(ConfigError, match="logistic"):
            finetune_delta(trained.scoring_function, trained.params, config, delta)

    def test_relation_growth_rejected(self, trained, pairwise_config, tiny_graph):
        bad = np.asarray([[0, tiny_graph.num_relations, 1]], dtype=np.int64)
        with pytest.raises(ValueError, match="relation growth requires a retrain"):
            finetune_delta(trained.scoring_function, trained.params, pairwise_config, bad)

    def test_empty_delta_rejected(self, trained, pairwise_config):
        with pytest.raises(ValueError, match="non-empty"):
            finetune_delta(
                trained.scoring_function,
                trained.params,
                pairwise_config,
                np.zeros((0, 3), dtype=np.int64),
            )
