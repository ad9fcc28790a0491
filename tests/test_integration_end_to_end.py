"""End-to-end integration tests: the full AutoSF workflow on a miniature KG."""

import numpy as np
import pytest

pytestmark = pytest.mark.slow  # tier 2: run with --runslow

from repro.analysis import CaseStudy, transfer_matrix
from repro.core import CandidateEvaluator
from repro.datasets import dataset_statistics, load_benchmark
from repro.experiments import ExperimentSpec, SearchLoop, SearchSpec
from repro.kge import train_model
from repro.utils.config import PredictorConfig, TrainingConfig

#: The small greedy configuration the comparison and transfer tests share.
SMALL_GREEDY = dict(max_blocks=6, candidates_per_step=8, top_parents=3, train_per_step=2)


@pytest.fixture(scope="module")
def benchmark_graph():
    return load_benchmark("wn18rr", scale=0.3)


@pytest.fixture(scope="module")
def training_config():
    return TrainingConfig(dimension=16, epochs=12, batch_size=128, learning_rate=0.5, seed=0)


@pytest.fixture(scope="module")
def search_result(benchmark_graph, training_config):
    spec = ExperimentSpec(
        seed=0,
        search=SearchSpec(max_blocks=6, candidates_per_step=12, top_parents=4, train_per_step=4),
        predictor=PredictorConfig(epochs=100),
    )
    return SearchLoop.from_spec(spec, benchmark_graph, training_config=training_config).run()


class TestSearchPipeline:
    def test_search_finds_reasonable_model(self, search_result):
        """The searched SF must clearly beat an untrained/random baseline."""
        assert search_result.best_mrr > 0.15

    def test_searched_structure_trains_and_evaluates(self, benchmark_graph, training_config, search_result):
        model = train_model(benchmark_graph, search_result.best_structure, training_config)
        test_result = model.evaluate(benchmark_graph, split="test")
        assert test_result.mrr > 0.1

    def test_search_beats_or_matches_worst_seed(self, search_result):
        per_stage = search_result.best_per_stage()
        stage4 = [r.validation_mrr for r in search_result.records if r.num_blocks == 4]
        assert search_result.best_mrr >= min(stage4)
        assert 4 in per_stage

    def test_case_study_of_searched_structure(self, benchmark_graph, search_result):
        statistics = dataset_statistics(benchmark_graph)
        study = CaseStudy(
            benchmark_graph.name, search_result.best_structure, search_result.best_mrr, statistics
        )
        report = study.report()
        assert benchmark_graph.name in report
        assert isinstance(study.is_novel(), bool)

    def test_searched_vs_human_designed(self, benchmark_graph, training_config, search_result):
        """Qualitative Table IV check: AutoSF is competitive with DistMult."""
        distmult = train_model(benchmark_graph, "distmult", training_config)
        distmult_mrr = distmult.evaluate(benchmark_graph, split="valid").mrr
        assert search_result.best_mrr >= distmult_mrr - 0.1


class TestSharedEvaluatorComparison:
    def test_greedy_vs_random_same_budget(self, benchmark_graph, training_config):
        """Fig. 6 sanity: with a shared evaluator both searchers run and report curves."""
        evaluator = CandidateEvaluator(benchmark_graph, training_config)
        budget = 6
        greedy = SearchLoop.from_spec(
            ExperimentSpec(seed=1, search=SearchSpec(**SMALL_GREEDY)),
            benchmark_graph,
            training_config=training_config,
            evaluator=evaluator,
        ).run(max_evaluations=budget)
        random = SearchLoop.from_spec(
            ExperimentSpec(seed=1, search=SearchSpec(strategy="random", num_blocks=6)),
            benchmark_graph,
            training_config=training_config,
        ).run(max_evaluations=budget)
        assert len(greedy.anytime_curve()) <= budget
        assert len(random.anytime_curve()) == budget
        assert greedy.best_mrr > 0 and random.best_mrr > 0


class TestTransferSmoke:
    def test_two_dataset_transfer(self, benchmark_graph, training_config, search_result):
        other = load_benchmark("fb15k237", scale=0.25)
        other_search = SearchLoop.from_spec(
            ExperimentSpec(seed=0, search=SearchSpec(**SMALL_GREEDY)),
            other,
            training_config=training_config,
        ).run(max_evaluations=7)
        result = transfer_matrix(
            {benchmark_graph.name: benchmark_graph, other.name: other},
            {benchmark_graph.name: search_result.best_structure, other.name: other_search.best_structure},
            training_config,
            split="valid",
        )
        assert len(result.as_rows()) == 2
        for source in result.dataset_names:
            for target in result.dataset_names:
                assert 0.0 <= result.mrr(source, target) <= 1.0
