"""Tests for the candidate evaluator, spec-driven searches, baselines and HPO."""

import numpy as np
import pytest
from invariance_oracle import sign_flip

from repro.core.baselines import general_approximator_baseline
from repro.core.evaluator import CandidateEvaluator
from repro.core.hpo import HPOSpace, random_search_hpo, tpe_search_hpo
from repro.core.search_space import enumerate_f4_structures
from repro.experiments import ExperimentSpec, SearchLoop, SearchResult, SearchSpec
from repro.kge.scoring import classical_structure
from repro.utils.config import TrainingConfig


@pytest.fixture(scope="module")
def search_training_config():
    return TrainingConfig(dimension=8, epochs=4, batch_size=64, learning_rate=0.5, seed=0)


def _loop(graph, training_config, spec, **kwargs) -> SearchLoop:
    return SearchLoop.from_spec(spec, graph, training_config=training_config, **kwargs)


@pytest.fixture(scope="module")
def evaluator(tiny_graph, search_training_config):
    return CandidateEvaluator(tiny_graph, search_training_config)


class TestCandidateEvaluator:
    def test_evaluation_fields(self, evaluator):
        evaluation = evaluator.evaluate(classical_structure("simple"))
        assert 0.0 <= evaluation.validation_mrr <= 1.0
        assert evaluation.train_seconds > 0
        assert evaluation.num_blocks == 4
        assert not evaluation.from_cache

    def test_cache_hit_for_same_structure(self, evaluator):
        first = evaluator.evaluate(classical_structure("analogy"))
        second = evaluator.evaluate(classical_structure("analogy"))
        assert second.from_cache
        assert second.validation_mrr == first.validation_mrr
        assert second.train_seconds == 0.0

    def test_cache_hit_for_equivalent_structure(self, evaluator):
        structure = classical_structure("complex")
        first = evaluator.evaluate(structure)
        equivalent = sign_flip(structure, (-1, 1, -1, 1))
        second = evaluator.evaluate(equivalent)
        assert second.from_cache
        assert second.validation_mrr == first.validation_mrr

    def test_num_trained_counts_distinct_only(self, tiny_graph, search_training_config):
        fresh = CandidateEvaluator(tiny_graph, search_training_config)
        fresh.evaluate(classical_structure("simple"))
        fresh.evaluate(classical_structure("simple"))
        assert fresh.num_trained == 1
        assert fresh.cache_size == 1

    def test_best_returns_maximum(self, evaluator):
        best = evaluator.best()
        assert best is not None
        assert best.validation_mrr == max(e.validation_mrr for e in evaluator.cached_evaluations())

    def test_evaluate_many(self, evaluator):
        results = evaluator.evaluate_many(list(enumerate_f4_structures())[:2])
        assert len(results) == 2


class TestAutoSFSearch:
    """The greedy search (Alg. 2), built from a spec."""

    def test_search_produces_result(self, tiny_graph, search_training_config, fast_search_spec):
        result = _loop(tiny_graph, search_training_config, fast_search_spec).run()
        assert isinstance(result, SearchResult)
        assert result.num_evaluations >= 5  # at least the f4 seeds
        assert 0.0 <= result.best_mrr <= 1.0
        assert result.best_structure.num_blocks in (4, 6)

    def test_anytime_curve_monotone(self, tiny_graph, search_training_config, fast_search_spec):
        result = _loop(tiny_graph, search_training_config, fast_search_spec).run()
        curve = result.anytime_curve()
        assert all(b >= a - 1e-12 for a, b in zip(curve, curve[1:]))
        assert len(curve) == result.num_evaluations

    def test_best_per_stage_and_top(self, tiny_graph, search_training_config, fast_search_spec):
        result = _loop(tiny_graph, search_training_config, fast_search_spec).run()
        per_stage = result.best_per_stage()
        assert 4 in per_stage
        top = result.top(3)
        assert len(top) <= 3
        assert top[0].validation_mrr == result.best_mrr

    def test_max_evaluations_cap(self, tiny_graph, search_training_config, fast_search_spec):
        result = _loop(tiny_graph, search_training_config, fast_search_spec).run(
            max_evaluations=6
        )
        assert result.num_evaluations <= 6

    def test_records_have_increasing_order(self, tiny_graph, search_training_config, fast_search_spec):
        result = _loop(tiny_graph, search_training_config, fast_search_spec).run()
        orders = [record.order for record in result.records]
        assert orders == sorted(orders)
        assert orders[0] == 1

    def test_search_reproducible(self, tiny_graph, search_training_config, fast_search_spec):
        first = _loop(tiny_graph, search_training_config, fast_search_spec).run()
        second = _loop(tiny_graph, search_training_config, fast_search_spec).run()
        assert first.best_structure.key() == second.best_structure.key()
        assert first.best_mrr == pytest.approx(second.best_mrr)

    def test_ablation_no_filter_no_predictor(self, tiny_graph, search_training_config):
        spec = ExperimentSpec(
            search=SearchSpec(
                max_blocks=6,
                candidates_per_step=6,
                top_parents=2,
                train_per_step=2,
                use_filter=False,
                use_predictor=False,
            )
        )
        result = _loop(tiny_graph, search_training_config, spec).run()
        assert result.num_evaluations >= 5

    def test_timing_phases_recorded(self, tiny_graph, search_training_config, fast_search_spec):
        loop = _loop(tiny_graph, search_training_config, fast_search_spec)
        loop.run()
        summary = loop.timing.summary()
        assert "train" in summary and "evaluate" in summary and "filter" in summary
        assert summary["train"]["total"] > 0

    def test_shared_evaluator_reuses_cache(self, tiny_graph, search_training_config, fast_search_spec):
        evaluator = CandidateEvaluator(tiny_graph, search_training_config)
        _loop(tiny_graph, search_training_config, fast_search_spec, evaluator=evaluator).run(
            max_evaluations=5
        )
        trained_before = evaluator.num_trained
        _loop(tiny_graph, search_training_config, fast_search_spec, evaluator=evaluator).run(
            max_evaluations=5
        )
        # The seeds are shared, so the second run must not retrain all of them.
        assert evaluator.num_trained < 2 * trained_before


class TestBaselines:
    """Random search and Bayes are strategies selected by the spec."""

    def test_random_search(self, tiny_graph, search_training_config):
        spec = ExperimentSpec(search=SearchSpec(strategy="random", num_blocks=6))
        result = _loop(tiny_graph, search_training_config, spec).run(max_evaluations=4)
        assert result.num_evaluations == 4
        assert all(record.num_blocks == 6 for record in result.records)

    def test_random_search_distinct_structures(self, tiny_graph, search_training_config):
        spec = ExperimentSpec(seed=1, search=SearchSpec(strategy="random", num_blocks=6))
        result = _loop(tiny_graph, search_training_config, spec).run(max_evaluations=5)
        keys = {record.structure.key() for record in result.records}
        assert len(keys) == len(result.records)

    def test_bayes_search(self, tiny_graph, search_training_config):
        spec = ExperimentSpec(search=SearchSpec(strategy="bayes", num_blocks=6, pool_size=8))
        result = _loop(tiny_graph, search_training_config, spec).run(max_evaluations=4)
        assert result.num_evaluations == 4
        assert 0.0 <= result.best_mrr <= 1.0

    def test_general_approximator(self, tiny_graph, search_training_config):
        mrr = general_approximator_baseline(tiny_graph, search_training_config)
        assert 0.0 <= mrr <= 1.0


class TestHPO:
    def test_hpo_space_sampling(self):
        space = HPOSpace()
        sample = space.sample(np.random.default_rng(0))
        assert space.learning_rate[0] <= sample["learning_rate"] <= space.learning_rate[1]
        assert sample["batch_size"] in space.batch_sizes

    def test_random_search_hpo_with_stub_objective(self, tiny_graph):
        # Objective prefers small learning rates; the best trial must reflect that.
        def objective(settings):
            return 1.0 - settings["learning_rate"]

        result = random_search_hpo(tiny_graph, num_trials=6, seed=0, objective=objective)
        assert len(result.trials) == 6
        assert result.best_mrr == max(t.validation_mrr for t in result.trials)
        assert result.best_config.learning_rate == min(t.settings["learning_rate"] for t in result.trials)

    def test_tpe_improves_over_warmup(self, tiny_graph):
        target_lr = 0.1

        def objective(settings):
            return -abs(np.log(settings["learning_rate"]) - np.log(target_lr))

        result = tpe_search_hpo(
            tiny_graph, num_trials=12, warmup_trials=4, seed=0, objective=objective
        )
        warmup_best = max(t.validation_mrr for t in result.trials[:4])
        assert result.best_mrr >= warmup_best

    def test_invalid_trial_counts(self, tiny_graph):
        with pytest.raises(ValueError):
            random_search_hpo(tiny_graph, num_trials=0, objective=lambda s: 0.0)
        with pytest.raises(ValueError):
            tpe_search_hpo(tiny_graph, num_trials=4, warmup_trials=1, objective=lambda s: 0.0)

    def test_real_objective_smoke(self, tiny_graph):
        base = TrainingConfig(dimension=8, epochs=2, batch_size=64, seed=0)
        result = random_search_hpo(tiny_graph, base_config=base, model_name="distmult", num_trials=2, seed=0)
        assert len(result.trials) == 2
        assert 0.0 <= result.best_mrr <= 1.0
