"""Table VII — running-time breakdown of one greedy step.

The paper reports, per dataset, how much time one greedy step spends in the
filter, the predictor, model training and evaluation, showing that the two
cheap components (filter + predictor) are negligible next to training.  The
bench runs one scaled-down greedy search per miniature benchmark and reports
the same per-phase breakdown (in seconds rather than minutes, since the
miniatures are far smaller than the real datasets).
"""

from __future__ import annotations

from _helpers import BENCH_SCALE, bench_search_spec, bench_training_config, publish

from repro.analysis import format_table
from repro.datasets import available_benchmarks, load_benchmark
from repro.experiments import SearchLoop

#: Paper-reported per-step times in minutes (filter, predictor, train, evaluate).
PAPER_MINUTES = {
    "wn18": (15.9, 1.8, 475.9, 41.3),
    "fb15k": (16.8, 1.9, 886.3, 153.7),
    "wn18rr": (16.1, 1.8, 271.4, 27.9),
    "fb15k237": (16.6, 1.9, 439.2, 63.5),
    "yago310": (16.6, 1.7, 1631.1, 141.9),
}

SEARCH_BUDGET = 9


def build_table() -> str:
    rows = []
    for benchmark_name in available_benchmarks():
        graph = load_benchmark(benchmark_name, scale=BENCH_SCALE)
        loop = SearchLoop.from_spec(
            bench_search_spec(), graph, training_config=bench_training_config()
        )
        loop.run(max_evaluations=SEARCH_BUDGET)
        summary = loop.timing.summary()
        paper = PAPER_MINUTES[benchmark_name]
        measured_train = summary.get("train", {}).get("total", 0.0)
        rows.append(
            {
                "dataset": benchmark_name,
                "filter_s": summary.get("filter", {}).get("total", 0.0),
                "predictor_s": summary.get("predictor", {}).get("total", 0.0),
                "train_s": measured_train,
                "evaluate_s": summary.get("evaluate", {}).get("total", 0.0),
                "train_share_measured": measured_train / max(sum(v["total"] for v in summary.values()), 1e-9),
                "train_share_paper": paper[2] / sum(paper),
            }
        )
    table = format_table(
        rows,
        title="Table VII: per-phase running time of the greedy search (seconds, miniature scale)",
    )
    note = (
        "Shape check: training dominates the budget both in the paper (minutes on GPUs)\n"
        "and here (seconds on CPU); filter and predictor remain comparatively negligible."
    )
    return table + "\n" + note


def test_table7_running_time(benchmark):
    table = benchmark.pedantic(build_table, rounds=1, iterations=1)
    publish("table7_running_time", table)
    assert "train_s" in table
