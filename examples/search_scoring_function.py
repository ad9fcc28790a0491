"""Run the AutoSF progressive greedy search on a miniature benchmark.

Run with::

    python examples/search_scoring_function.py [benchmark]

where ``benchmark`` is one of wn18, fb15k, wn18rr, fb15k237, yago310
(default: wn18rr).  The script searches for a scoring function in the
block-structured bilinear space (Alg. 2 of the paper), prints the any-time
best curve, and finishes with a case study of the best structure: its block
matrix (Fig. 5 style), its SRF, and whether it is a novel structure or a
rediscovered classical model.
"""

from __future__ import annotations

import sys

from repro.analysis import CaseStudy
from repro.datasets import dataset_statistics
from repro.experiments import DatasetSpec, ExperimentSpec, SearchLoop, SearchSpec
from repro.kge import train_model
from repro.utils.config import PredictorConfig, TrainingConfig


def main(benchmark: str = "wn18rr") -> None:
    spec = ExperimentSpec(
        name=f"search-{benchmark}",
        seed=0,
        dataset=DatasetSpec(benchmark=benchmark, scale=0.5),
        training=TrainingConfig(dimension=16, epochs=20, batch_size=256, learning_rate=0.5, seed=0),
        search=SearchSpec(max_blocks=6, candidates_per_step=24, top_parents=5, train_per_step=6),
        predictor=PredictorConfig(epochs=200),
    )
    graph = spec.dataset.load()
    statistics = dataset_statistics(graph)
    print(f"searching a scoring function for {graph}")
    print("relation-pattern mix:", statistics.as_row())

    result = SearchLoop.from_spec(spec, graph).run(max_evaluations=spec.search.budget)

    print(f"\ntrained {result.num_evaluations} candidate scoring functions")
    print("any-time best validation MRR:",
          " ".join(f"{value:.3f}" for value in result.anytime_curve()))
    print("filter statistics:", result.filter_statistics)
    print("timing (seconds per phase):",
          {name: round(values["total"], 2) for name, values in result.timing.summary().items()})

    study = CaseStudy(graph.name, result.best_structure, result.best_mrr, statistics)
    print("\n" + study.report())

    # Retrain the winner with a larger dimension (the paper's fine-tune step)
    # and report the held-out test metrics.
    final_config = spec.training.replace(dimension=32, epochs=40)
    model = train_model(graph, result.best_structure, final_config)
    test_result = model.evaluate(graph, split="test")
    print(f"\nfinal test metrics at d={final_config.dimension}: "
          f"MRR={test_result.mrr:.3f}  H@1={test_result.hits_at(1):.3f}  "
          f"H@10={test_result.hits_at(10):.3f}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "wn18rr")
