"""Tests for the execution engine and the persistent evaluation store."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.distributed import QueueBackend
from repro.core.evaluator import CandidateEvaluator, experiment_fingerprint
from repro.core.execution import (
    EvaluationContext,
    EvaluationTask,
    ExecutionError,
    SerialBackend,
    create_backend,
    derive_candidate_seed,
    evaluate_candidate,
)
from repro.core.invariance import canonical_key
from repro.core.store import EvaluationStore
from repro.core.search_space import enumerate_f4_structures
from repro.experiments import BackendSpec, ExperimentSpec, SearchLoop, SearchSpec
from repro.kge.scoring import classical_structure
from repro.utils.config import ConfigError, PredictorConfig, TrainingConfig


@pytest.fixture(scope="module")
def engine_training_config():
    return TrainingConfig(dimension=8, epochs=3, batch_size=64, learning_rate=0.5, seed=0)


@pytest.fixture(scope="module")
def engine_search_spec():
    return ExperimentSpec(
        seed=0,
        search=SearchSpec(max_blocks=6, candidates_per_step=6, top_parents=3, train_per_step=2),
        predictor=PredictorConfig(epochs=50),
    )


class TestSeedDerivation:
    def test_deterministic(self):
        key = canonical_key(classical_structure("simple"))
        assert derive_candidate_seed(0, key) == derive_candidate_seed(0, key)

    def test_varies_with_candidate_and_base(self):
        simple = canonical_key(classical_structure("simple"))
        distmult = canonical_key(classical_structure("distmult"))
        assert derive_candidate_seed(0, simple) != derive_candidate_seed(0, distmult)
        assert derive_candidate_seed(0, simple) != derive_candidate_seed(1, simple)

    def test_none_base_stays_unseeded(self):
        assert derive_candidate_seed(None, (1, 2, 3)) is None

    def test_seed_is_valid_rng_seed(self):
        seed = derive_candidate_seed(123, canonical_key(classical_structure("complex")))
        assert 0 <= seed < 2**31 - 1
        np.random.default_rng(seed)


class TestBackends:
    def test_create_backend_factory(self):
        assert isinstance(create_backend("serial"), SerialBackend)
        process = create_backend("process", num_workers=3)
        # The process backend is the queue with its local-only defaults.
        assert isinstance(process, QueueBackend)
        assert process.num_workers == 3
        assert (process.host, process.port) == ("127.0.0.1", 0)

    def test_create_backend_rejects_unknown(self):
        with pytest.raises(ValueError):
            create_backend("threads")

    def test_empty_batch(self, tiny_graph, engine_training_config):
        context = EvaluationContext(tiny_graph, engine_training_config)
        assert create_backend("process", 2).run(context, []) == []

    def test_serial_and_process_outcomes_identical(self, tiny_graph, engine_training_config):
        structures = list(enumerate_f4_structures())[:3]
        tasks = [
            EvaluationTask(structure=s, seed=derive_candidate_seed(0, canonical_key(s)))
            for s in structures
        ]
        context = EvaluationContext(tiny_graph, engine_training_config)
        serial = SerialBackend().run(context, tasks)
        parallel = create_backend("process", 2).run(context, tasks)
        assert len(serial) == len(parallel) == len(tasks)
        for a, b in zip(serial, parallel):
            assert a.structure.key() == b.structure.key()
            assert a.validation_mrr == b.validation_mrr  # bitwise
            assert a.training_history.losses == b.training_history.losses

    def test_on_result_streams_in_task_order(self, tiny_graph, engine_training_config):
        structures = list(enumerate_f4_structures())[:3]
        tasks = [EvaluationTask(structure=s, seed=0) for s in structures]
        context = EvaluationContext(tiny_graph, engine_training_config)
        seen = []
        outcomes = SerialBackend().run(
            context, tasks, on_result=lambda index, outcome: seen.append(index)
        )
        assert seen == [0, 1, 2]
        assert len(outcomes) == 3

    def test_evaluate_candidate_seed_override(self, tiny_graph, engine_training_config):
        structure = classical_structure("simple")
        context = EvaluationContext(tiny_graph, engine_training_config)
        first = evaluate_candidate(context, EvaluationTask(structure, seed=11))
        second = evaluate_candidate(context, EvaluationTask(structure, seed=12))
        same = evaluate_candidate(context, EvaluationTask(structure, seed=11))
        assert first.validation_mrr == same.validation_mrr
        assert first.validation_mrr != second.validation_mrr


class TestSearchParity:
    def test_serial_vs_process_search_bitwise_equal(
        self, tiny_graph, engine_training_config, engine_search_spec
    ):
        serial = SearchLoop.from_spec(
            engine_search_spec, tiny_graph, training_config=engine_training_config
        ).run(max_evaluations=8)
        parallel = SearchLoop.from_spec(
            replace(engine_search_spec, backend=BackendSpec(backend="process", num_workers=2)),
            tiny_graph,
            training_config=engine_training_config,
        ).run(max_evaluations=8)
        assert serial.num_evaluations == parallel.num_evaluations
        for a, b in zip(serial.records, parallel.records):
            assert a.structure.key() == b.structure.key()
            assert a.validation_mrr == b.validation_mrr  # bitwise
            assert (a.stage, a.order) == (b.stage, b.order)
        assert serial.best_structure.key() == parallel.best_structure.key()
        assert serial.best_mrr == parallel.best_mrr

    def test_config_driven_backend(self, tiny_graph, engine_training_config, engine_search_spec):
        data = engine_search_spec.to_dict()
        data["backend"] = {"backend": "process", "num_workers": 2}
        loop = SearchLoop.from_spec(
            ExperimentSpec.from_dict(data), tiny_graph, training_config=engine_training_config
        )
        assert isinstance(loop.backend, QueueBackend)
        assert loop.backend.num_workers == 2
        result = loop.run(max_evaluations=5)
        assert result.num_evaluations == 5


class TestEvaluateMany:
    def test_within_batch_duplicates_train_once(self, tiny_graph, engine_training_config):
        evaluator = CandidateEvaluator(tiny_graph, engine_training_config)
        structure = classical_structure("simple")
        results = evaluator.evaluate_many([structure, structure])
        assert evaluator.num_trained == 1
        assert not results[0].from_cache
        assert results[1].from_cache
        assert results[0].validation_mrr == results[1].validation_mrr

    def test_batch_results_in_input_order(self, tiny_graph, engine_training_config):
        structures = list(enumerate_f4_structures())[:3]
        evaluator = CandidateEvaluator(tiny_graph, engine_training_config)
        batched = evaluator.evaluate_many(structures, backend=create_backend("process", 2))
        for structure, evaluation in zip(structures, batched):
            assert evaluation.structure.key() == structure.key()

    def test_timing_recorded_per_candidate(self, tiny_graph, engine_training_config):
        evaluator = CandidateEvaluator(tiny_graph, engine_training_config)
        evaluator.evaluate_many(list(enumerate_f4_structures())[:2])
        assert evaluator.timing.count("train") == 2
        assert evaluator.timing.total("train") > 0
        assert evaluator.timing.last("evaluate") > 0


class TestCreateBackendValidation:
    """Bad worker counts fail loudly at the configuration seam.

    Regression: ``create_backend`` used to clamp ``num_workers`` with
    ``max(num_workers, 1)``, silently turning a typo'd ``workers: 0`` into
    a serial run instead of rejecting it.
    """

    def test_process_zero_workers_rejected(self):
        with pytest.raises(ConfigError, match="num_workers"):
            create_backend("process", num_workers=0)

    def test_serial_negative_workers_rejected(self):
        with pytest.raises(ConfigError, match="got -5"):
            create_backend("serial", num_workers=-5)

    def test_options_rejected_for_non_queue_backends(self):
        with pytest.raises(ConfigError, match="only valid for the 'queue' backend"):
            create_backend("process", num_workers=2, max_retries=3)

    def test_queue_allows_zero_but_not_negative_workers(self):
        from repro.core.distributed import QueueBackend

        backend = create_backend("queue", num_workers=0)
        assert isinstance(backend, QueueBackend)
        assert backend.num_workers == 0
        with pytest.raises(ConfigError, match="num_workers"):
            create_backend("queue", num_workers=-1)

    def test_queue_options_passed_through(self):
        backend = create_backend(
            "queue", num_workers=2, max_retries=5, worker_timeout=7.0, port=6000
        )
        assert backend.max_retries == 5
        assert backend.worker_timeout == 7.0
        assert backend.port == 6000


class TruncatingBackend(SerialBackend):
    """Violates the contract: returns one outcome too few."""

    name = "truncating"

    def run(self, context, tasks, on_result=None):
        return super().run(context, tasks, on_result=on_result)[:-1]


class MisalignedBackend(SerialBackend):
    """Violates the contract: returns outcomes shifted by one slot.

    Does not stream via ``on_result`` (like a backend that only returns a
    batch), so absorption happens purely from the misaligned return value.
    """

    name = "misaligned"

    def run(self, context, tasks, on_result=None):
        outcomes = super().run(context, tasks)
        return outcomes[1:] + outcomes[:1]


class TestOutcomeContract:
    """Regression: a backend returning a truncated or shuffled outcome list
    used to be zipped silently against the task list, mis-assigning results
    to the wrong candidates."""

    def test_truncated_outcome_list_raises(self, tiny_graph, engine_training_config):
        structures = list(enumerate_f4_structures())[:3]
        evaluator = CandidateEvaluator(tiny_graph, engine_training_config)
        with pytest.raises(ExecutionError, match="one .*slot per task"):
            evaluator.evaluate_many(structures, backend=TruncatingBackend())

    def test_misaligned_outcomes_raise(self, tiny_graph, engine_training_config):
        structures = list(enumerate_f4_structures())[:3]
        evaluator = CandidateEvaluator(tiny_graph, engine_training_config)
        with pytest.raises(ExecutionError, match="outcome-alignment"):
            evaluator.evaluate_many(structures, backend=MisalignedBackend())


class LossyBackend(SerialBackend):
    """A backend that silently drops the outcomes of selected tasks.

    Models a killed worker: the run() call returns, but some dispatched
    tasks produced neither an on_result callback nor a returned outcome.
    """

    name = "lossy"

    def __init__(self, drop_indices):
        self.drop_indices = set(drop_indices)
        self.executed = []

    def run(self, context, tasks, on_result=None):
        outcomes = []
        for index, task in enumerate(tasks):
            if index in self.drop_indices:
                outcomes.append(None)
                continue
            self.executed.append(index)
            outcome = evaluate_candidate(context, task)
            if on_result is not None:
                on_result(index, outcome)
            outcomes.append(outcome)
        return outcomes


class TestLossyBackendRecovery:
    """Regression: missing outcomes used to surface as an opaque KeyError."""

    def test_missing_outcomes_are_retried_serially(self, tiny_graph, engine_training_config):
        structures = list(enumerate_f4_structures())[:3]
        evaluator = CandidateEvaluator(tiny_graph, engine_training_config, base_seed=0)
        lossy = LossyBackend(drop_indices=[1])
        results = evaluator.evaluate_many(structures, backend=lossy)
        assert len(results) == 3
        assert evaluator.num_trained == 3
        for structure, evaluation in zip(structures, results):
            assert evaluation.structure.key() == structure.key()

    def test_retried_results_match_healthy_backend(self, tiny_graph, engine_training_config):
        structures = list(enumerate_f4_structures())[:3]
        healthy = CandidateEvaluator(tiny_graph, engine_training_config, base_seed=0)
        expected = healthy.evaluate_many(structures)

        evaluator = CandidateEvaluator(tiny_graph, engine_training_config, base_seed=0)
        recovered = evaluator.evaluate_many(structures, backend=LossyBackend([0, 2]))
        for a, b in zip(expected, recovered):
            assert a.validation_mrr == b.validation_mrr  # per-candidate seeding

    def test_unrecoverable_loss_raises_descriptive_error(
        self, tiny_graph, engine_training_config
    ):
        structures = list(enumerate_f4_structures())[:2]
        evaluator = CandidateEvaluator(tiny_graph, engine_training_config)
        evaluator._retry_backend = LossyBackend(drop_indices=[0])  # retry also fails
        with pytest.raises(RuntimeError, match="returned no outcome"):
            evaluator.evaluate_many(structures, backend=LossyBackend(drop_indices=[0, 1]))

    def test_partial_unrecoverable_loss_names_the_survivor_count(
        self, tiny_graph, engine_training_config
    ):
        structures = list(enumerate_f4_structures())[:3]
        evaluator = CandidateEvaluator(tiny_graph, engine_training_config)
        evaluator._retry_backend = LossyBackend(drop_indices=[0])
        with pytest.raises(RuntimeError, match="1 of 3"):
            evaluator.evaluate_many(structures, backend=LossyBackend(drop_indices=[0]))


class TestEvaluationStore:
    def test_round_trip(self, tiny_graph, engine_training_config, tmp_path):
        store = EvaluationStore(tmp_path)
        evaluator = CandidateEvaluator(tiny_graph, engine_training_config, store=store)
        structure = classical_structure("analogy")
        original = evaluator.evaluate(structure)
        key = canonical_key(structure)
        assert key in store
        assert len(store) == 1

        loaded = store.get(key)
        assert loaded is not None
        assert loaded.from_cache
        assert loaded.validation_mrr == original.validation_mrr
        assert loaded.validation_result.as_dict() == original.validation_result.as_dict()
        assert loaded.validation_result.hits.keys() == original.validation_result.hits.keys()
        assert loaded.training_history.losses == original.training_history.losses
        assert loaded.structure.key() == structure.key()

    def test_cross_run_cache_hit(self, tiny_graph, engine_training_config, tmp_path):
        store = EvaluationStore(tmp_path)
        first = CandidateEvaluator(tiny_graph, engine_training_config, store=store)
        trained = first.evaluate(classical_structure("simple"))

        fresh_store = EvaluationStore(tmp_path)  # simulates a new process
        second = CandidateEvaluator(tiny_graph, engine_training_config, store=fresh_store)
        cached = second.evaluate(classical_structure("simple"))
        assert cached.from_cache
        assert cached.validation_mrr == trained.validation_mrr
        assert second.num_trained == 0

    def test_missing_key_returns_none(self, tmp_path):
        store = EvaluationStore(tmp_path)
        assert store.get((1, 2, 3)) is None
        assert (1, 2, 3) not in store
        assert len(store) == 0

    def test_corrupt_entry_is_ignored(self, tiny_graph, engine_training_config, tmp_path):
        store = EvaluationStore(tmp_path)
        evaluator = CandidateEvaluator(tiny_graph, engine_training_config, store=store)
        evaluator.evaluate(classical_structure("distmult"))
        (tmp_path / "evaluations" / "garbage.json").write_text("{not json", encoding="utf-8")
        truncated = tmp_path / "evaluations" / ("0" * 32 + ".json")
        truncated.write_text("{not json", encoding="utf-8")
        reopened = EvaluationStore(tmp_path)
        assert reopened.keys() == [canonical_key(classical_structure("distmult"))]
        assert len(reopened) == 2  # entry files on disk, foreign names excluded

    def test_different_training_config_misses_store(
        self, tiny_graph, engine_training_config, tmp_path
    ):
        store = EvaluationStore(tmp_path)
        first = CandidateEvaluator(tiny_graph, engine_training_config, store=store)
        first.evaluate(classical_structure("simple"))

        other_config = engine_training_config.replace(epochs=engine_training_config.epochs + 1)
        second = CandidateEvaluator(tiny_graph, other_config, store=EvaluationStore(tmp_path))
        evaluation = second.evaluate(classical_structure("simple"))
        assert not evaluation.from_cache
        assert second.num_trained == 1  # stale entry was not served

    def test_fingerprint_sensitive_to_experiment(self, tiny_graph, micro_graph,
                                                 engine_training_config):
        base = experiment_fingerprint(tiny_graph, engine_training_config)
        assert base == experiment_fingerprint(tiny_graph, engine_training_config)
        assert base != experiment_fingerprint(micro_graph, engine_training_config)
        assert base != experiment_fingerprint(
            tiny_graph, engine_training_config.replace(learning_rate=0.1)
        )
        assert base != experiment_fingerprint(tiny_graph, engine_training_config, base_seed=1)

    def test_interrupt_mid_batch_keeps_finished_candidates(
        self, tiny_graph, engine_training_config, tmp_path
    ):
        class ExplodingBackend(SerialBackend):
            """Completes the first task, then dies mid-batch."""

            def run(self, context, tasks, on_result=None):
                for index, task in enumerate(tasks):
                    if index == 1:
                        raise KeyboardInterrupt
                    outcome = evaluate_candidate(context, task)
                    if on_result is not None:
                        on_result(index, outcome)
                return []

        store = EvaluationStore(tmp_path)
        evaluator = CandidateEvaluator(tiny_graph, engine_training_config, store=store)
        structures = list(enumerate_f4_structures())[:3]
        with pytest.raises(KeyboardInterrupt):
            evaluator.evaluate_many(structures, backend=ExplodingBackend())
        # The candidate that finished before the interrupt is checkpointed.
        assert len(store) == 1
        assert evaluator.num_trained == 1
        resumed = CandidateEvaluator(
            tiny_graph, engine_training_config, store=EvaluationStore(tmp_path)
        )
        assert resumed.evaluate(structures[0]).from_cache

    def test_search_resumes_without_retraining(
        self, tiny_graph, engine_training_config, engine_search_spec, tmp_path
    ):
        def search():
            return SearchLoop.from_spec(
                engine_search_spec,
                tiny_graph,
                training_config=engine_training_config,
                store=EvaluationStore(tmp_path),
            )

        first = search()
        result = first.run(max_evaluations=6)
        trained = first.evaluator.num_trained
        assert trained > 0

        second = search()
        resumed = second.run(max_evaluations=6)
        assert second.evaluator.num_trained == 0
        assert [r.validation_mrr for r in resumed.records] == [
            r.validation_mrr for r in result.records
        ]
        assert resumed.best_structure.key() == result.best_structure.key()
