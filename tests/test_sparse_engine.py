"""Tests for the touched-rows pairwise kernel and the lazy fine-tune update.

Pairwise batches score and differentiate only the rows they touch, then take
the dense regularizer and optimizer step, so training must reproduce the
reference loop at ``atol=1e-10`` for every optimizer and any ``l2_penalty``.
The stale ``train_engine`` key must not change multi-class training.  The
lazy update that fine-tuning uses keeps its documented semantics: rows a
batch never touches are never written.
"""

import numpy as np
import pytest

from repro.kge.engine import ReferenceTrainEngine, TrainEngine
from repro.kge.trainer import Trainer
from repro.live.finetune import LazyTrainEngine
from repro.utils.config import ConfigError, TrainingConfig

from test_train_engine import SCORING_FACTORIES


PAIRWISE = dict(loss="logistic", negative_samples=4, l2_penalty=0.01)


def _config(**overrides):
    settings = dict(dimension=8, epochs=6, batch_size=64, learning_rate=0.5, seed=0)
    settings.update(overrides)
    return TrainingConfig(**settings)


def _fit(graph, factory, engine=None, **overrides):
    return Trainer(factory(), _config(**overrides), engine=engine).fit(graph)


def _assert_params_close(actual, expected, atol=1e-10):
    assert set(actual) == set(expected)
    for key in expected:
        np.testing.assert_allclose(actual[key], expected[key], rtol=0, atol=atol)


class TestFactory:
    def test_config_accepts_sparse(self):
        config = TrainingConfig(train_engine="sparse")
        assert TrainingConfig.from_dict(config.to_dict()) == config

    def test_unknown_engine_is_a_config_error(self):
        # The key selects nothing, but it is still validated so that a
        # typo in a committed spec fails loudly.
        with pytest.raises(ConfigError, match="reference, batched, sparse"):
            TrainingConfig.from_dict({"train_engine": "gpu"})


class TestSparseParity:
    """Acceptance: touched-rows training matches the reference at atol=1e-10."""

    @pytest.mark.parametrize("family", sorted(SCORING_FACTORIES))
    def test_fit_matches_reference_all_families(self, tiny_graph, family):
        factory = SCORING_FACTORIES[family]
        reference_params, reference_history = _fit(
            tiny_graph, factory, engine=ReferenceTrainEngine(), **PAIRWISE
        )
        sparse_params, sparse_history = _fit(tiny_graph, factory, **PAIRWISE)
        np.testing.assert_allclose(
            sparse_history.losses, reference_history.losses, rtol=0, atol=1e-10
        )
        _assert_params_close(sparse_params, reference_params)

    @pytest.mark.parametrize("loss", ["logistic", "hinge"])
    @pytest.mark.parametrize("optimizer", ["sgd", "adagrad", "adam"])
    def test_fit_matches_reference_losses_and_optimizers(self, tiny_graph, loss, optimizer):
        overrides = dict(
            loss=loss, negative_samples=4, l2_penalty=0.01, optimizer=optimizer
        )
        factory = SCORING_FACTORIES["simple"]
        reference_params, _ = _fit(
            tiny_graph, factory, engine=ReferenceTrainEngine(), **overrides
        )
        sparse_params, _ = _fit(tiny_graph, factory, **overrides)
        _assert_params_close(sparse_params, reference_params)

    def test_adam_single_step_matches_reference(self, tiny_graph):
        """One full-batch Adam step matches the reference."""
        overrides = dict(optimizer="adam", epochs=1, batch_size=10**6, **PAIRWISE)
        factory = SCORING_FACTORIES["simple"]
        reference_params, _ = _fit(
            tiny_graph, factory, engine=ReferenceTrainEngine(), **overrides
        )
        sparse_params, _ = _fit(tiny_graph, factory, **overrides)
        _assert_params_close(sparse_params, reference_params)

    def test_multiclass_delegates_to_batched_bitwise(self, tiny_graph):
        """A stale train_engine="sparse" key leaves multi-class training as is."""
        factory = SCORING_FACTORIES["simple"]
        batched_params, batched_history = _fit(tiny_graph, factory, train_engine="batched")
        sparse_params, sparse_history = _fit(tiny_graph, factory, train_engine="sparse")
        assert sparse_history.losses == batched_history.losses
        for key in batched_params:
            np.testing.assert_array_equal(sparse_params[key], batched_params[key])

    def test_multiclass_delegate_respects_chunking(self, tiny_graph):
        """Chunked multi-class training is unchanged by the stale key."""
        factory = SCORING_FACTORIES["simple"]
        batched_params, _ = _fit(
            tiny_graph, factory, train_engine="batched", score_chunk_size=13
        )
        sparse_params, _ = _fit(
            tiny_graph, factory, train_engine="sparse", score_chunk_size=13
        )
        for key in batched_params:
            np.testing.assert_array_equal(sparse_params[key], batched_params[key])

    def test_duplicate_triples_in_one_batch(self, tiny_graph):
        """Scatter-add collision case: repeated entities within a batch.

        A batch whose triples repeat the same heads/tails must accumulate
        every contribution (``grads[idx] += block`` with deduplicated
        indices), not drop duplicates the way plain fancy-indexing would.
        """
        config = _config(**PAIRWISE)
        batch = np.repeat(tiny_graph.train[:6], 4, axis=0)

        def batch_grads(engine):
            trainer = Trainer(SCORING_FACTORIES["simple"](), config, engine=engine)
            params = trainer.initialize(tiny_graph)
            grads = trainer.scoring_function.zero_grads(params)
            value = trainer.engine.accumulate_batch(trainer, params, batch, grads)
            return value, grads

        reference_value, reference_grads = batch_grads(ReferenceTrainEngine())
        sparse_value, sparse_grads = batch_grads(None)
        assert sparse_value == pytest.approx(reference_value, abs=1e-10)
        for key in reference_grads:
            np.testing.assert_allclose(
                sparse_grads[key], reference_grads[key], rtol=0, atol=1e-10
            )


class TestLazySemantics:
    def test_untouched_rows_are_never_written(self, tiny_graph):
        """Even with L2 on, rows outside the batch keep their exact values."""
        config = _config(loss="logistic", negative_samples=4, l2_penalty=0.1)
        trainer = Trainer(SCORING_FACTORIES["simple"](), config, engine=LazyTrainEngine())
        params = trainer.initialize(tiny_graph)
        before = {key: value.copy() for key, value in params.items()}
        batch = tiny_graph.train[:8]
        trainer.train_step(params, batch)

        touched = np.unique(np.concatenate([batch[:, 0], batch[:, 2]]))
        changed = np.flatnonzero(
            np.any(params["entities"] != before["entities"], axis=1)
        )
        # Every positive is certainly touched...
        assert np.isin(touched, changed).all()
        # ...and the untouched complement is bitwise identical — the dense
        # update with l2_penalty=0.1 would have decayed every row.
        untouched = np.setdiff1d(np.arange(tiny_graph.num_entities), changed)
        assert untouched.size > 0, "batch unexpectedly touched the whole vocabulary"
        np.testing.assert_array_equal(
            params["entities"][untouched], before["entities"][untouched]
        )

    def test_reference_decays_what_sparse_skips(self, tiny_graph):
        """The documented deviation: lazy regularization at nonzero weight."""
        overrides = dict(loss="logistic", negative_samples=4, l2_penalty=0.1, epochs=1)
        factory = SCORING_FACTORIES["simple"]
        reference_params, _ = _fit(
            tiny_graph, factory, engine=ReferenceTrainEngine(), **overrides
        )
        sparse_params, _ = _fit(tiny_graph, factory, engine=LazyTrainEngine(), **overrides)
        # With every entity touched over a full epoch the results stay close,
        # but not identical — the decay is applied at different times.
        assert not all(
            np.array_equal(sparse_params[key], reference_params[key])
            for key in reference_params
        )


class TestStreamFit:
    def test_stream_fit_matches_reference(self, tiny_graph, tmp_path):
        """fit(stream=...) drives the touched-rows kernel batch by batch."""
        store = tiny_graph.to_store(tmp_path / "store", shard_size=128)
        results = {}
        for name, engine in (("reference", ReferenceTrainEngine()), ("sparse", None)):
            config = _config(epochs=3, **PAIRWISE)
            trainer = Trainer(SCORING_FACTORIES["simple"](), config, engine=engine)
            stream = store.stream("train", batch_size=64, seed=0)
            params, history = trainer.fit(None, stream=stream)
            results[name] = (params, history)
        reference_params, reference_history = results["reference"]
        sparse_params, sparse_history = results["sparse"]
        np.testing.assert_allclose(
            sparse_history.losses, reference_history.losses, rtol=0, atol=1e-10
        )
        _assert_params_close(sparse_params, reference_params)

    def test_stream_fit_multiclass_matches_batched(self, tiny_graph, tmp_path):
        store = tiny_graph.to_store(tmp_path / "store", shard_size=128)
        results = {}
        for engine in ("batched", "sparse"):
            config = _config(epochs=2, train_engine=engine)
            trainer = Trainer(SCORING_FACTORIES["simple"](), config)
            params, _ = trainer.fit(None, stream=store.stream("train", seed=0))
            results[engine] = params
        for key in results["batched"]:
            np.testing.assert_array_equal(results["sparse"][key], results["batched"][key])


class TestAccumulateBatchContract:
    def test_explicit_engine_wins_over_config(self, tiny_graph):
        config = _config(train_engine="sparse")
        trainer = Trainer(
            SCORING_FACTORIES["simple"](), config, engine=ReferenceTrainEngine()
        )
        assert isinstance(trainer.engine, ReferenceTrainEngine)

    def test_train_step_default_flow_unchanged_for_dense_engines(self, tiny_graph):
        """The dense train_step runs for the engine and its oracle alike."""
        config = _config(**PAIRWISE)
        for engine in (ReferenceTrainEngine(), TrainEngine()):
            trainer = Trainer(SCORING_FACTORIES["simple"](), config, engine=engine)
            params = trainer.initialize(tiny_graph)
            value = trainer.train_step(params, tiny_graph.train[:16])
            assert np.isfinite(value)
