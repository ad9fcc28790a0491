"""Figure 9 — sensitivity to the meta hyper-parameters N and K2.

The paper varies the candidate-pool size N (128 / 256 / 512) and the number
of trained candidates per step K2 (4 / 8 / 16) and finds the search curve
barely changes, while all settings clearly beat the bare greedy baseline.
The bench sweeps scaled-down values of both knobs on WN18RR.
"""

from __future__ import annotations

from _helpers import BENCH_SCALE, bench_search_spec, bench_training_config, publish

from repro.analysis import format_series
from repro.core import CandidateEvaluator
from repro.datasets import load_benchmark
from repro.experiments import SearchLoop

BUDGET = 9

SETTINGS = {
    "N=8,K2=4": {"candidates_per_step": 8, "train_per_step": 4},
    "N=16,K2=4": {"candidates_per_step": 16, "train_per_step": 4},
    "N=32,K2=4": {"candidates_per_step": 32, "train_per_step": 4},
    "N=16,K2=2": {"candidates_per_step": 16, "train_per_step": 2},
    "N=16,K2=8": {"candidates_per_step": 16, "train_per_step": 8},
    "greedy_baseline": {"use_filter": False, "use_predictor": False},
}


def build_report() -> str:
    training_config = bench_training_config()
    graph = load_benchmark("wn18rr", scale=BENCH_SCALE)
    evaluator = CandidateEvaluator(graph, training_config)
    curves = {}
    for name, overrides in SETTINGS.items():
        result = SearchLoop.from_spec(
            bench_search_spec(**overrides),
            graph,
            training_config=training_config,
            evaluator=evaluator,
        ).run(max_evaluations=BUDGET)
        curves[name] = result.anytime_curve()
    return format_series(
        curves,
        title="Fig. 9 (wn18rr): sensitivity of the search to N and K2",
        index_label="model#",
    )


def test_fig9_meta_hyperparams(benchmark):
    report = benchmark.pedantic(build_report, rounds=1, iterations=1)
    publish("fig9_meta_hyperparams", report)
    assert "greedy_baseline" in report
