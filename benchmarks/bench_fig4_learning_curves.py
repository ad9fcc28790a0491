"""Figure 4 — learning curves: training time vs. test MRR.

The paper plots wall-clock training time against test MRR for the searched
scoring function and the four bilinear baselines on every dataset, showing
that the searched SF both converges faster and reaches a higher plateau.
The bench reproduces the curves on two representative miniatures (WN18RR and
FB15k-237) by evaluating every model periodically during training.
"""

from __future__ import annotations

from _helpers import BENCH_SCALE, bench_search_spec, bench_training_config, publish

from repro.analysis import format_series
from repro.datasets import load_benchmark
from repro.experiments import SearchLoop
from repro.kge import KGEModel
from repro.kge.scoring import BlockScoringFunction, get_scoring_function

DATASETS = ("wn18rr", "fb15k237")
BASELINES = ("distmult", "complex", "analogy", "simple")
SEARCH_BUDGET = 7
EVAL_EVERY = 3


def training_curve(graph, scoring_function, training_config):
    """Validation-MRR-vs-epoch curve for one model."""
    config = training_config.replace(eval_every=EVAL_EVERY)
    model = KGEModel(scoring_function, config)
    history = model.fit(graph, validate=True)
    return [value for value in history.validation_mrr if value is not None]


def build_report() -> str:
    training_config = bench_training_config()
    sections = []
    for benchmark_name in DATASETS:
        graph = load_benchmark(benchmark_name, scale=BENCH_SCALE)
        curves = {}
        for model_name in BASELINES:
            curves[model_name] = training_curve(graph, get_scoring_function(model_name), training_config)
        result = SearchLoop.from_spec(
            bench_search_spec(), graph, training_config=training_config
        ).run(max_evaluations=SEARCH_BUDGET)
        curves["autosf"] = training_curve(
            graph, BlockScoringFunction(result.best_structure), training_config
        )
        sections.append(
            format_series(
                curves,
                title=f"Fig. 4 ({benchmark_name}): validation MRR every {EVAL_EVERY} epochs",
                index_label="eval",
            )
        )
    return "\n\n".join(sections)


def test_fig4_learning_curves(benchmark):
    report = benchmark.pedantic(build_report, rounds=1, iterations=1)
    publish("fig4_learning_curves", report)
    assert "autosf" in report
