"""Table VI — triplet classification accuracy.

The paper evaluates triplet classification on FB15k, WN18RR and FB15k-237.
The bench trains the bilinear baselines plus the AutoSF-searched structure on
each of those miniature benchmarks and reports accuracy with relation-specific
thresholds tuned on the validation split; every model is evaluated on the
same generated negative sets so the comparison is paired.
"""

from __future__ import annotations

from _helpers import BENCH_SCALE, bench_search_spec, bench_training_config, publish

from repro.analysis import format_table
from repro.datasets import load_benchmark
from repro.experiments import SearchLoop
from repro.kge import train_model
from repro.kge.evaluation import evaluate_triplet_classification, generate_classification_negatives

#: Paper-reported accuracies (percent) from Table VI.
PAPER_ACCURACY = {
    "fb15k": {"distmult": 80.8, "analogy": 82.1, "complex": 81.8, "simple": 81.5, "autosf": 82.7},
    "wn18rr": {"distmult": 84.6, "analogy": 86.1, "complex": 86.6, "simple": 85.7, "autosf": 87.7},
    "fb15k237": {"distmult": 79.8, "analogy": 79.7, "complex": 79.6, "simple": 79.6, "autosf": 81.2},
}

DATASETS = ("fb15k", "wn18rr", "fb15k237")
BASELINES = ("distmult", "analogy", "complex", "simple")
SEARCH_BUDGET = 9


def build_table() -> str:
    training_config = bench_training_config()
    rows = []
    for benchmark_name in DATASETS:
        graph = load_benchmark(benchmark_name, scale=BENCH_SCALE)
        negatives = (
            generate_classification_negatives(graph, "valid", rng=1),
            generate_classification_negatives(graph, "test", rng=2),
        )

        def accuracy_of(model) -> float:
            return 100.0 * evaluate_triplet_classification(
                model.scoring_function, model.params, graph, negatives=negatives
            )

        for model_name in BASELINES:
            model = train_model(graph, model_name, training_config)
            rows.append(
                {
                    "dataset": benchmark_name,
                    "model": model_name,
                    "accuracy_%": accuracy_of(model),
                    "accuracy_paper_%": PAPER_ACCURACY[benchmark_name][model_name],
                }
            )
        result = SearchLoop.from_spec(
            bench_search_spec(), graph, training_config=training_config
        ).run(max_evaluations=SEARCH_BUDGET)
        model = train_model(graph, result.best_structure, training_config)
        rows.append(
            {
                "dataset": benchmark_name,
                "model": "autosf",
                "accuracy_%": accuracy_of(model),
                "accuracy_paper_%": PAPER_ACCURACY[benchmark_name]["autosf"],
            }
        )
    return format_table(rows, title="Table VI: triplet classification accuracy", precision=1)


def test_table6_triplet_classification(benchmark):
    table = benchmark.pedantic(build_table, rounds=1, iterations=1)
    publish("table6_triplet_classification", table)
    assert "autosf" in table
