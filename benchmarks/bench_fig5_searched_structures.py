"""Figure 5 — the searched scoring functions, rendered per dataset.

The paper plots the block matrix g(r) of the best structure found on each
benchmark and argues (i) the structures differ across datasets, (ii) they are
not equivalent to each other under the invariance group, and (iii) their SRF
profile matches the dataset's relation-pattern mix (e.g. the FB15k-237
winner, like DistMult, need not be skew-symmetric).  The bench reruns the
scaled-down search per miniature and prints exactly that case study.
"""

from __future__ import annotations

from itertools import combinations

from _helpers import BENCH_SCALE, bench_search_spec, bench_training_config, publish

from repro.analysis import CaseStudy
from repro.core import are_equivalent
from repro.datasets import available_benchmarks, dataset_statistics, load_benchmark
from repro.experiments import SearchLoop

SEARCH_BUDGET = 9


def build_report() -> str:
    training_config = bench_training_config()
    studies = {}
    sections = []
    for benchmark_name in available_benchmarks():
        graph = load_benchmark(benchmark_name, scale=BENCH_SCALE)
        result = SearchLoop.from_spec(
            bench_search_spec(), graph, training_config=training_config
        ).run(max_evaluations=SEARCH_BUDGET)
        study = CaseStudy(
            benchmark_name, result.best_structure, result.best_mrr, dataset_statistics(graph)
        )
        studies[benchmark_name] = study
        sections.append(study.report())

    distinct_pairs = [
        f"{a} vs {b}: {'distinct' if not are_equivalent(studies[a].structure, studies[b].structure) else 'equivalent'}"
        for a, b in combinations(studies, 2)
    ]
    novelty = [f"{name}: {'novel' if study.is_novel() else 'rediscovered classical model'}"
               for name, study in studies.items()]
    footer = "pairwise distinctiveness:\n  " + "\n  ".join(distinct_pairs)
    footer += "\nnovelty:\n  " + "\n  ".join(novelty)
    return "\n\n".join(sections) + "\n\n" + footer


def test_fig5_searched_structures(benchmark):
    report = benchmark.pedantic(build_report, rounds=1, iterations=1)
    publish("fig5_searched_structures", report)
    assert "searched scoring function" in report
