"""Table V — cross-dataset transfer of searched scoring functions.

The bench searches one scoring function per miniature benchmark, then trains
every searched structure on every benchmark and reports the full MRR matrix.
The paper's qualitative claim is that the diagonal dominates each column:
the structure searched on a dataset is (one of) the best for that dataset,
demonstrating that the searched SFs are KG-dependent.
"""

from __future__ import annotations

from _helpers import BENCH_SCALE, bench_search_spec, bench_training_config, publish

from repro.analysis import format_table, transfer_matrix
from repro.datasets import available_benchmarks, load_benchmark
from repro.experiments import SearchLoop

#: Paper-reported Table V diagonal (MRR of each dataset's own searched SF).
PAPER_DIAGONAL = {"wn18": 0.952, "fb15k": 0.853, "wn18rr": 0.490, "fb15k237": 0.360, "yago310": 0.571}

SEARCH_BUDGET = 9


def build_table() -> str:
    training_config = bench_training_config()
    graphs, structures = {}, {}
    for benchmark_name in available_benchmarks():
        graph = load_benchmark(benchmark_name, scale=BENCH_SCALE)
        result = SearchLoop.from_spec(
            bench_search_spec(), graph, training_config=training_config
        ).run(max_evaluations=SEARCH_BUDGET)
        graphs[benchmark_name] = graph
        structures[benchmark_name] = result.best_structure

    transfer = transfer_matrix(graphs, structures, training_config, split="test")
    rows = transfer.as_rows()
    for row in rows:
        row["diagonal_paper"] = PAPER_DIAGONAL[row["searched_on"]]
    table = format_table(rows, title="Table V: MRR of SF searched on row-dataset applied to column-dataset")
    wins = transfer.diagonal_wins()
    summary = "datasets where their own searched SF wins the column: " + ", ".join(
        name for name, won in wins.items() if won
    )
    return table + "\n" + summary


def test_table5_transfer(benchmark):
    table = benchmark.pedantic(build_table, rounds=1, iterations=1)
    publish("table5_transfer", table)
    assert "searched_on" in table
