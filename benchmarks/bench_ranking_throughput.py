"""Ranking-throughput benchmark for the vectorized filtered protocol.

Two measurements back the execution-engine work:

* **filtered ranking**: queries/second of the vectorized ``compute_ranks``
  against the scalar reference implementation on the largest built-in
  benchmark (yago310-mini at full miniature scale), including the speedup
  factor;
* **search wall-clock**: one small greedy search executed by the serial
  backend vs the process-pool backend (1 vs N workers).

Results are published as a table *and* as ``results/ranking_throughput.json``
so the speedup can be tracked across revisions.  Runs either under pytest
(``pytest bench_ranking_throughput.py --runslow``) or standalone::

    PYTHONPATH=src python benchmarks/bench_ranking_throughput.py --quick

The standalone entry point also records the headline numbers in
``BENCH_ranking.json`` at the repo root (see ``run_all.py``).
"""

from __future__ import annotations

import argparse
import os
import time
from dataclasses import replace

from _helpers import (
    bench_search_spec,
    bench_training_config,
    publish,
    write_bench_summary,
    RESULTS_DIR,
)

from repro.analysis import format_table
from repro.datasets import load_benchmark
from repro.experiments import BackendSpec, SearchLoop
from repro.kge.evaluation import compute_ranks, compute_ranks_reference
from repro.kge.scoring.bilinear import BlockScoringFunction
from repro.kge.scoring.blocks import classical_structure
from repro.kge.trainer import Trainer
from repro.utils.serialization import to_json_file

#: The largest built-in miniature benchmark.
LARGEST_BENCHMARK = "yago310"

#: Worker count for the parallel-search measurement.
NUM_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "2"))

SEARCH_BUDGET = 6


def _time(function, repeats: int = 3) -> float:
    """Best-of-N wall-clock seconds (best-of to suppress scheduler noise)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    assert result is not None
    return best


def measure_ranking(repeats: int = 3) -> dict:
    graph = load_benchmark(LARGEST_BENCHMARK, scale=1.0)
    scoring_function = BlockScoringFunction(classical_structure("simple"))
    config = bench_training_config(epochs=2)
    params, _history = Trainer(scoring_function, config).fit(graph)

    vectorized_seconds = _time(
        lambda: compute_ranks(scoring_function, params, graph), repeats=repeats
    )
    reference_seconds = _time(
        lambda: compute_ranks_reference(scoring_function, params, graph), repeats=repeats
    )
    num_queries = 2 * graph.num_test  # tail + head query per test triple
    return {
        "benchmark": graph.name,
        "entities": graph.num_entities,
        "queries": num_queries,
        "scalar_qps": num_queries / reference_seconds,
        "vectorized_qps": num_queries / vectorized_seconds,
        "speedup": reference_seconds / vectorized_seconds,
    }


def measure_search_wall_clock(budget: int = SEARCH_BUDGET) -> dict:
    graph = load_benchmark(LARGEST_BENCHMARK)
    training_config = bench_training_config(epochs=4)
    spec = bench_search_spec()

    start = time.perf_counter()
    serial = SearchLoop.from_spec(spec, graph, training_config=training_config).run(
        max_evaluations=budget
    )
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel = SearchLoop.from_spec(
        replace(spec, backend=BackendSpec(backend="process", num_workers=NUM_WORKERS)),
        graph,
        training_config=training_config,
    ).run(max_evaluations=budget)
    parallel_seconds = time.perf_counter() - start

    assert serial.best_mrr == parallel.best_mrr, "backends must agree bitwise"
    return {
        "benchmark": graph.name,
        "evaluations": serial.num_evaluations,
        "serial_seconds": serial_seconds,
        f"process_x{NUM_WORKERS}_seconds": parallel_seconds,
        "workers": NUM_WORKERS,
    }


def build_report(quick: bool = False) -> tuple:
    ranking = measure_ranking(repeats=1 if quick else 3)
    search = measure_search_wall_clock(budget=4 if quick else SEARCH_BUDGET)
    table = format_table(
        [ranking], title="Filtered-ranking throughput (vectorized vs scalar reference)"
    ) + "\n" + format_table([search], title="Search wall-clock, 1 vs N workers")
    note = (
        "Serial and process backends return bitwise-identical SearchResults;\n"
        "the speedup column tracks the vectorized compute_ranks hot path."
    )
    return table + "\n" + note, {"ranking": ranking, "search": search}


def test_ranking_throughput(benchmark):
    text, data = benchmark.pedantic(build_report, rounds=1, iterations=1)
    publish("ranking_throughput", text)
    to_json_file(data, RESULTS_DIR / "ranking_throughput.json")
    # Acceptance: the vectorized path is at least 3x the scalar reference on
    # the largest built-in benchmark (in practice it is far beyond that).
    assert data["ranking"]["speedup"] >= 3.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: single repeat, smaller search budget",
    )
    args = parser.parse_args(argv)

    text, data = build_report(quick=args.quick)
    publish("ranking_throughput", text)
    to_json_file(data, RESULTS_DIR / "ranking_throughput.json")
    write_bench_summary(
        "ranking",
        config={
            "quick": args.quick,
            "benchmark": data["ranking"]["benchmark"],
            "entities": data["ranking"]["entities"],
            "workers": data["search"]["workers"],
        },
        metrics={
            "vectorized_qps": data["ranking"]["vectorized_qps"],
            "scalar_qps": data["ranking"]["scalar_qps"],
            "ranking_speedup": data["ranking"]["speedup"],
            "search_serial_seconds": data["search"]["serial_seconds"],
        },
    )
    if data["ranking"]["speedup"] < 3.0:
        print(f"FAIL: ranking speedup {data['ranking']['speedup']:.2f}x below the 3x floor")
        return 1
    print(f"OK: vectorized ranking {data['ranking']['speedup']:.2f}x over the scalar reference")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
