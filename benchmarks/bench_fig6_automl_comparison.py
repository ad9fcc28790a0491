"""Figure 6 — AutoSF vs. other AutoML search strategies.

On WN18RR and FB15k-237 the paper compares the any-time best validation MRR
of AutoSF against random search, Bayesian optimization and a general
approximator (an unconstrained MLP scoring function).  The qualitative
expectations: the MLP is clearly worse than anything in the bilinear space,
and AutoSF reaches a given MRR with fewer trained models than random/Bayes.
Every searcher shares a per-dataset candidate evaluator, so equivalent
structures are never trained twice and the budgets are directly comparable.
"""

from __future__ import annotations

from _helpers import BENCH_SCALE, bench_search_spec, bench_training_config, publish

from repro.analysis import format_series
from repro.core import CandidateEvaluator
from repro.core.baselines import general_approximator_baseline
from repro.datasets import load_benchmark
from repro.experiments import SearchLoop

DATASETS = ("wn18rr", "fb15k237")
BUDGET = 10


def build_report() -> str:
    training_config = bench_training_config()
    sections = []
    for benchmark_name in DATASETS:
        graph = load_benchmark(benchmark_name, scale=BENCH_SCALE)
        autosf = SearchLoop.from_spec(
            bench_search_spec(),
            graph,
            training_config=training_config,
            evaluator=CandidateEvaluator(graph, training_config),
        ).run(max_evaluations=BUDGET)
        random_search = SearchLoop.from_spec(
            bench_search_spec(strategy="random", num_blocks=6),
            graph,
            training_config=training_config,
        ).run(max_evaluations=BUDGET)
        bayes_search = SearchLoop.from_spec(
            bench_search_spec(strategy="bayes", num_blocks=6, pool_size=24),
            graph,
            training_config=training_config,
        ).run(max_evaluations=BUDGET)
        mlp_mrr = general_approximator_baseline(graph, training_config)
        curves = {
            "autosf": autosf.anytime_curve(),
            "random": random_search.anytime_curve(),
            "bayes": bayes_search.anytime_curve(),
            "gen_approx_mlp": [mlp_mrr] * BUDGET,
        }
        sections.append(
            format_series(
                curves,
                title=f"Fig. 6 ({benchmark_name}): any-time best validation MRR vs. #models trained",
                index_label="model#",
            )
        )
    return "\n\n".join(sections)


def test_fig6_automl_comparison(benchmark):
    report = benchmark.pedantic(build_report, rounds=1, iterations=1)
    publish("fig6_automl_comparison", report)
    assert "gen_approx_mlp" in report
