"""Table IV — link prediction: AutoSF vs. human-designed scoring functions.

For every miniature benchmark the bench trains the bilinear baselines
(DistMult, ComplEx, Analogy, SimplE) and runs a scaled-down AutoSF search,
then reports test MRR / Hits@1 / Hits@10 side by side with the paper's
values.  The paper's absolute numbers were obtained on the full datasets at
d up to 2048, so only the qualitative shape is expected to transfer:
AutoSF should be at or near the top on every dataset, and DistMult should
lag on datasets rich in anti-symmetric/inverse relations.
"""

from __future__ import annotations

from _helpers import BENCH_SCALE, bench_search_spec, bench_training_config, publish

from repro.analysis import format_table
from repro.datasets import available_benchmarks, load_benchmark
from repro.experiments import SearchLoop
from repro.kge import train_model

#: Paper-reported test MRR (Table IV) for the re-implemented models.
PAPER_MRR = {
    "wn18": {"distmult": 0.821, "complex": 0.951, "analogy": 0.950, "simple": 0.950, "autosf": 0.952},
    "fb15k": {"distmult": 0.817, "complex": 0.831, "analogy": 0.829, "simple": 0.830, "autosf": 0.853},
    "wn18rr": {"distmult": 0.443, "complex": 0.471, "analogy": 0.472, "simple": 0.468, "autosf": 0.490},
    "fb15k237": {"distmult": 0.349, "complex": 0.347, "analogy": 0.348, "simple": 0.350, "autosf": 0.360},
    "yago310": {"distmult": 0.552, "complex": 0.566, "analogy": 0.565, "simple": 0.565, "autosf": 0.571},
}

BASELINES = ("distmult", "complex", "analogy", "simple")
SEARCH_BUDGET = 9  # trained candidates per dataset (5 seeds + one greedy stage)


def run_dataset(benchmark_name: str) -> list:
    graph = load_benchmark(benchmark_name, scale=BENCH_SCALE)
    training_config = bench_training_config()
    rows = []
    for model_name in BASELINES:
        model = train_model(graph, model_name, training_config)
        result = model.evaluate(graph, split="test")
        rows.append(
            {
                "dataset": benchmark_name,
                "model": model_name,
                "mrr": result.mrr,
                "hits@1": result.hits_at(1),
                "hits@10": result.hits_at(10),
                "mrr_paper": PAPER_MRR[benchmark_name][model_name],
            }
        )
    search_result = SearchLoop.from_spec(
        bench_search_spec(), graph, training_config=training_config
    ).run(max_evaluations=SEARCH_BUDGET)
    # The paper re-trains the searched SF before the final comparison; at
    # miniature scale retraining noise matters, so the top few searched
    # structures are retrained and the final pick is made on validation MRR.
    best_model, best_valid = None, -1.0
    for record in search_result.top(2):
        candidate = train_model(graph, record.structure, training_config)
        valid_mrr = candidate.evaluate(graph, split="valid").mrr
        if valid_mrr > best_valid:
            best_model, best_valid = candidate, valid_mrr
    result = best_model.evaluate(graph, split="test")
    rows.append(
        {
            "dataset": benchmark_name,
            "model": "autosf",
            "mrr": result.mrr,
            "hits@1": result.hits_at(1),
            "hits@10": result.hits_at(10),
            "mrr_paper": PAPER_MRR[benchmark_name]["autosf"],
        }
    )
    return rows


def build_table() -> str:
    rows = []
    for benchmark_name in available_benchmarks():
        rows.extend(run_dataset(benchmark_name))
    return format_table(
        rows, title="Table IV: link prediction, AutoSF vs. human-designed SFs (test split)"
    )


def test_table4_link_prediction(benchmark):
    table = benchmark.pedantic(build_table, rounds=1, iterations=1)
    publish("table4_link_prediction", table)
    assert "autosf" in table
