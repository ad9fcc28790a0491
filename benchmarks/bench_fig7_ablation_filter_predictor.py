"""Figure 7 — ablation of the filter and the predictor.

Four search variants run with the same training budget on WN18RR and
FB15k-237: the full AutoSF, AutoSF without the filter, AutoSF without the
predictor, and the bare greedy search (neither).  The paper's finding is
that removing either component degrades search efficiency — the any-time
curve of the full algorithm dominates.
"""

from __future__ import annotations

from _helpers import BENCH_SCALE, bench_search_spec, bench_training_config, publish

from repro.analysis import format_series
from repro.core import CandidateEvaluator
from repro.datasets import load_benchmark
from repro.experiments import SearchLoop

DATASETS = ("wn18rr", "fb15k237")
BUDGET = 9

VARIANTS = {
    "autosf": {"use_filter": True, "use_predictor": True},
    "no_filter": {"use_filter": False, "use_predictor": True},
    "no_predictor": {"use_filter": True, "use_predictor": False},
    "greedy_only": {"use_filter": False, "use_predictor": False},
}


def build_report() -> str:
    training_config = bench_training_config()
    sections = []
    for benchmark_name in DATASETS:
        graph = load_benchmark(benchmark_name, scale=BENCH_SCALE)
        # One evaluator per dataset: equivalent candidates across variants hit
        # the cache, which mirrors "same training budget" in wall-clock terms.
        evaluator = CandidateEvaluator(graph, training_config)
        curves = {}
        for variant_name, switches in VARIANTS.items():
            result = SearchLoop.from_spec(
                bench_search_spec(**switches),
                graph,
                training_config=training_config,
                evaluator=evaluator,
            ).run(max_evaluations=BUDGET)
            curves[variant_name] = result.anytime_curve()
        sections.append(
            format_series(
                curves,
                title=f"Fig. 7 ({benchmark_name}): ablation of filter / predictor",
                index_label="model#",
            )
        )
    return "\n\n".join(sections)


def test_fig7_ablation_filter_predictor(benchmark):
    report = benchmark.pedantic(build_report, rounds=1, iterations=1)
    publish("fig7_ablation_filter_predictor", report)
    assert "greedy_only" in report
