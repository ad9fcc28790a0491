"""Tests for the training engine (multi-class kernel vs reference parity)."""

import threading

import numpy as np
import pytest
from train_step_oracle import oracle_trainer

from repro.kge.engine import ReferenceTrainEngine, TrainEngine, entity_chunks
from repro.kge.losses import MulticlassLoss, StreamingMulticlass, multiclass_inplace
from repro.kge.regularizers import L2Regularizer, N3Regularizer, NoRegularizer
from repro.kge.scoring import BlockScoringFunction, classical_structure
from repro.kge.scoring.bilinear import RESCAL
from repro.kge.scoring.blocks import BlockStructure
from repro.kge.scoring.neural import MLPScoringFunction
from repro.kge.scoring.translational import RotatE, TransE
from repro.kge.trainer import Trainer
from repro.utils.config import TrainingConfig


SIX_BLOCKS = BlockStructure(
    [(0, 0, 0, 1), (1, 1, 1, 1), (2, 3, 2, 1), (3, 2, 2, -1), (0, 1, 3, 1), (1, 0, 3, -1)],
    name="six-blocks",
)

SCORING_FACTORIES = {
    "simple": lambda: BlockScoringFunction(classical_structure("simple")),
    "complex": lambda: BlockScoringFunction(classical_structure("complex")),
    "six-blocks": lambda: BlockScoringFunction(SIX_BLOCKS),
    "rescal": RESCAL,
    "transe": lambda: TransE(norm=1),
    "rotate": RotatE,
    "mlp": MLPScoringFunction,
}


def _fit(graph, factory, engine=None, **config_overrides):
    config = TrainingConfig(
        dimension=8, epochs=6, batch_size=64, learning_rate=0.5, seed=0, **config_overrides
    )
    return Trainer(factory(), config, engine=engine).fit(graph)


class TestEngineFactory:
    def test_engine_rejects_negative_chunk(self):
        with pytest.raises(ValueError):
            TrainEngine(score_chunk_size=-1)

    def test_config_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            TrainingConfig(train_engine="gpu")

    def test_config_rejects_negative_chunk(self):
        with pytest.raises(ValueError):
            TrainingConfig(score_chunk_size=-1)

    def test_config_round_trip_keeps_engine_fields(self):
        config = TrainingConfig(train_engine="reference", score_chunk_size=7)
        assert TrainingConfig.from_dict(config.to_dict()) == config


class TestEntityChunks:
    def test_no_chunking(self):
        assert list(entity_chunks(10, 0)) == [(0, 10)]
        assert list(entity_chunks(10, 10)) == [(0, 10)]
        assert list(entity_chunks(10, 99)) == [(0, 10)]

    def test_uneven_tail_chunk(self):
        assert list(entity_chunks(10, 4)) == [(0, 4), (4, 8), (8, 10)]


class TestStreamingMulticlass:
    def test_matches_dense_loss(self, rng):
        scores = rng.normal(size=(6, 23))
        targets = rng.integers(0, 23, size=6)
        dense_value, dense_grad = MulticlassLoss().compute(scores, targets)

        streaming = StreamingMulticlass(targets)
        for start in range(0, 23, 5):
            stop = min(start + 5, 23)
            streaming.observe(scores[:, start:stop].copy(), start, stop)
        assert streaming.value() == pytest.approx(dense_value, abs=1e-12)
        for start in range(0, 23, 5):
            stop = min(start + 5, 23)
            grad = streaming.dscores_chunk(scores[:, start:stop].copy(), start, stop)
            np.testing.assert_allclose(grad, dense_grad[:, start:stop], atol=1e-12)

    def test_inplace_matches_dense_loss(self, rng):
        scores = rng.normal(size=(5, 17))
        targets = rng.integers(0, 17, size=5)
        dense_value, dense_grad = MulticlassLoss().compute(scores, targets)
        fused_value, fused_grad = multiclass_inplace(scores.copy(), targets)
        assert fused_value == dense_value  # identical operation order
        np.testing.assert_array_equal(fused_grad, dense_grad)


class TestEngineParity:
    """Acceptance: the multi-class kernel reproduces the reference loop."""

    @pytest.mark.parametrize("family", sorted(SCORING_FACTORIES))
    def test_losses_and_params_match_reference(self, tiny_graph, family):
        factory = SCORING_FACTORIES[family]
        reference_params, reference_history = _fit(
            tiny_graph, factory, engine=ReferenceTrainEngine()
        )
        batched_params, batched_history = _fit(tiny_graph, factory)
        np.testing.assert_allclose(
            batched_history.losses, reference_history.losses, rtol=0, atol=1e-10
        )
        for key in reference_params:
            np.testing.assert_allclose(
                batched_params[key], reference_params[key], rtol=0, atol=1e-10
            )

    @pytest.mark.parametrize(
        "family", ["simple", "six-blocks", "transe", "rotate", "rescal", "mlp"]
    )
    @pytest.mark.parametrize("chunk", [7, 64])
    def test_chunked_matches_reference(self, tiny_graph, family, chunk):
        factory = SCORING_FACTORIES[family]
        reference_params, reference_history = _fit(
            tiny_graph, factory, engine=ReferenceTrainEngine()
        )
        chunked_params, chunked_history = _fit(tiny_graph, factory, score_chunk_size=chunk)
        np.testing.assert_allclose(
            chunked_history.losses, reference_history.losses, rtol=0, atol=1e-10
        )
        for key in reference_params:
            np.testing.assert_allclose(
                chunked_params[key], reference_params[key], rtol=0, atol=1e-10
            )


class TestChunkedMemoryBound:
    def test_score_chunks_never_exceed_configured_size(self, tiny_graph):
        """Every scored block is at most (batch, score_chunk_size)."""
        structure = classical_structure("simple")
        seen_widths = []

        class SpyScoringFunction(BlockScoringFunction):
            def score_candidates_chunk(self, params, queries, direction, start, stop, state=None):
                seen_widths.append(stop - start)
                return super().score_candidates_chunk(
                    params, queries, direction, start, stop, state=state
                )

        config = TrainingConfig(
            dimension=8,
            epochs=1,
            batch_size=64,
            learning_rate=0.5,
            seed=0,
            score_chunk_size=13,
        )
        Trainer(SpyScoringFunction(structure), config).fit(tiny_graph)
        assert seen_widths, "chunked scoring was never exercised"
        assert max(seen_widths) <= 13
        # Both passes (log-sum-exp + gradient) cover the whole vocabulary.
        assert sum(seen_widths) % tiny_graph.num_entities == 0

    def test_unchunked_scores_everything_at_once(self, tiny_graph):
        engine = TrainEngine(score_chunk_size=0)
        assert list(entity_chunks(tiny_graph.num_entities, engine.score_chunk_size)) == [
            (0, tiny_graph.num_entities)
        ]


class TestEngineSelectionThreading:
    def test_trainer_builds_engine_from_config(self, tiny_graph):
        config = TrainingConfig(dimension=8, train_engine="reference", score_chunk_size=7)
        trainer = Trainer(BlockScoringFunction(classical_structure("simple")), config)
        # The ignored train_engine key selects nothing: the one engine,
        # with the configured chunk size, is always built.
        assert type(trainer.engine) is TrainEngine
        assert trainer.engine.score_chunk_size == 7

    def test_explicit_engine_wins(self, tiny_graph):
        config = TrainingConfig(dimension=8, score_chunk_size=5)
        trainer = Trainer(
            BlockScoringFunction(classical_structure("simple")),
            config,
            engine=ReferenceTrainEngine(),
        )
        assert isinstance(trainer.engine, ReferenceTrainEngine)

    @pytest.mark.parametrize("loss", ["multiclass", "logistic"])
    def test_train_engine_key_changes_nothing(self, tiny_graph, loss):
        """Only the loss picks the kernel; every train_engine value trains alike."""
        runs = {
            engine: _fit(tiny_graph, SCORING_FACTORIES["simple"], loss=loss, train_engine=engine)
            for engine in ("reference", "batched", "sparse")
        }
        params, history = runs["batched"]
        for other_params, other_history in runs.values():
            assert other_history.losses == history.losses
            for key in params:
                np.testing.assert_array_equal(other_params[key], params[key])

    def test_evaluate_candidate_ignores_train_engine_key(self, tiny_graph):
        from repro.core.execution import EvaluationContext, EvaluationTask, evaluate_candidate

        structure = classical_structure("simple")
        outcomes = {}
        for engine in ("reference", "batched"):
            config = TrainingConfig(
                dimension=8,
                epochs=3,
                batch_size=64,
                learning_rate=0.5,
                seed=0,
                train_engine=engine,
            )
            context = EvaluationContext(tiny_graph, config)
            outcomes[engine] = evaluate_candidate(context, EvaluationTask(structure, seed=3))
        assert outcomes["batched"].validation_mrr == outcomes["reference"].validation_mrr


class TestTrainingTelemetry:
    @pytest.mark.parametrize("loss, label", [("multiclass", "multiclass"), ("hinge", "pairwise")])
    def test_series_labelled_by_loss_kind(self, tiny_graph, loss, label):
        from repro.obs import metrics as obs_metrics

        registry = obs_metrics.MetricsRegistry()
        previous = obs_metrics.set_registry(registry)
        try:
            config = TrainingConfig(dimension=8, epochs=2, batch_size=64, loss=loss, seed=0)
            Trainer(SCORING_FACTORIES["simple"](), config).fit(tiny_graph)
        finally:
            obs_metrics.set_registry(previous)
        text = obs_metrics.render_prometheus(registry)
        assert f'repro_train_epochs_total{{loss="{label}"}} 2' in text
        assert "engine=" not in text


def _workspace_config(**overrides):
    settings = dict(
        # A learning rate that is not a power of two, so a reordered
        # product in the update changes bits.
        dimension=8, epochs=3, batch_size=64, learning_rate=0.3, l2_penalty=1e-3,
        negative_samples=4, eval_every=1, seed=0,
    )
    settings.update(overrides)
    return TrainingConfig(**settings)


def _assert_bitwise_equal(left, right):
    assert left.keys() == right.keys()
    for key in left:
        assert left[key].dtype == right[key].dtype and left[key].shape == right[key].shape
        assert left[key].tobytes() == right[key].tobytes(), key


def _arrays_held_by(root):
    """Every ndarray reachable from ``root`` through attributes and containers."""
    seen, pending, arrays = set(), [root], []
    while pending:
        item = pending.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            arrays.append(item)
        elif isinstance(item, dict):
            pending.extend(item.values())
        elif isinstance(item, (list, tuple, set)):
            pending.extend(item)
        elif hasattr(item, "__dict__"):
            pending.extend(vars(item).values())
    return arrays


class TestWorkspaceParity:
    """A fit on the per-fit workspace equals the allocating step bit for bit."""

    @staticmethod
    def _fits(graph, factory, config, regularizer=None):
        # A validation score that moves with the parameters makes both fits
        # snapshot and restore the optimizer state mid-run.
        def validate(params):
            return float(params["entities"][0, 0])

        runs = []
        for build in (Trainer, oracle_trainer):
            params, history = build(factory(), config, regularizer=regularizer).fit(
                graph, validation_callback=validate
            )
            runs.append((params, history))
        return runs

    @pytest.mark.parametrize("family", ["simple", "complex", "six-blocks", "transe"])
    @pytest.mark.parametrize("loss", ["logistic", "hinge", "multiclass"])
    @pytest.mark.parametrize("chunk", [0, 7])
    def test_fit_matches_allocating_oracle(self, tiny_graph, family, loss, chunk):
        config = _workspace_config(loss=loss, score_chunk_size=chunk)
        (params, history), (oracle_params, oracle_history) = self._fits(
            tiny_graph, SCORING_FACTORIES[family], config
        )
        assert history.losses == oracle_history.losses
        assert history.validation_mrr == oracle_history.validation_mrr
        _assert_bitwise_equal(params, oracle_params)

    @pytest.mark.parametrize("optimizer", ["sgd", "adagrad", "adam"])
    @pytest.mark.parametrize(
        "regularizer",
        [L2Regularizer(1e-3), N3Regularizer(1e-3), NoRegularizer()],
        ids=["l2", "n3", "none"],
    )
    def test_optimizers_and_regularizers_match_oracle(self, tiny_graph, optimizer, regularizer):
        config = _workspace_config(loss="logistic", optimizer=optimizer)
        (params, history), (oracle_params, oracle_history) = self._fits(
            tiny_graph, SCORING_FACTORIES["six-blocks"], config, regularizer
        )
        assert history.losses == oracle_history.losses
        _assert_bitwise_equal(params, oracle_params)


class TestWorkspaceLifetime:
    def test_fit_leaves_no_workspace_array(self, tiny_graph):
        seen = []

        class RecordingEngine(TrainEngine):
            def train_step(self, trainer, params, batch):
                seen.append(self.workspace)
                return super().train_step(trainer, params, batch)

        trainer = Trainer(
            SCORING_FACTORIES["simple"](),
            _workspace_config(loss="logistic", optimizer="adam"),
            engine=RecordingEngine(),
        )
        params, _ = trainer.fit(tiny_graph, validation_callback=lambda p: 0.0)
        assert trainer.engine.workspace is None
        assert len({id(workspace) for workspace in seen}) == 1 and seen[0] is not None
        buffers = list(seen[0]._buffers.values())
        assert buffers, "the fit never used its workspace"
        held = _arrays_held_by(trainer) + list(params.values())
        assert not any(np.shares_memory(array, buffer) for array in held for buffer in buffers)

        # The next fit gets a workspace of its own.
        trainer.fit(tiny_graph, params=params)
        assert seen[-1] is not seen[0] and trainer.engine.workspace is None

    def test_failed_fit_drops_its_workspace(self, tiny_graph):
        trainer = Trainer(SCORING_FACTORIES["simple"](), _workspace_config(loss="hinge"))

        def fail(_params):
            raise RuntimeError("validation failed")

        with pytest.raises(RuntimeError, match="validation failed"):
            trainer.fit(tiny_graph, validation_callback=fail)
        assert trainer.engine.workspace is None

    def test_engine_runs_one_fit_at_a_time(self):
        engine = TrainEngine()
        with engine.fitting():
            with pytest.raises(RuntimeError, match="already running a fit"):
                with engine.fitting():
                    pass
        assert engine.workspace is None

    def test_two_threads_match_their_solo_fits(self, tiny_graph):
        jobs = [
            ("six-blocks", _workspace_config(loss="logistic", seed=1)),
            ("complex", _workspace_config(loss="hinge", optimizer="adam", seed=2)),
        ]
        solo = [Trainer(SCORING_FACTORIES[name](), config).fit(tiny_graph)[0]
                for name, config in jobs]
        results = [None] * len(jobs)
        barrier = threading.Barrier(len(jobs))

        def run(index):
            name, config = jobs[index]
            trainer = Trainer(SCORING_FACTORIES[name](), config)
            barrier.wait()
            results[index] = trainer.fit(tiny_graph)[0]

        threads = [threading.Thread(target=run, args=(index,)) for index in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for alone, threaded in zip(solo, results):
            _assert_bitwise_equal(threaded, alone)
