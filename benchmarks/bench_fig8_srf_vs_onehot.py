"""Figure 8 — SRF features vs. one-hot features for the predictor.

The paper compares the proposed symmetry-related features (a 22-2-1
predictor) against the PNAS-style one-hot encoding of the structure (a wider
network) and against no predictor at all.  SRFs are invariant on equivalence
classes and tied to the symmetry properties that matter, so the SRF
predictor finds good candidates sooner.
"""

from __future__ import annotations

from _helpers import BENCH_SCALE, bench_search_spec, bench_training_config, publish

from repro.analysis import format_series
from repro.core import CandidateEvaluator
from repro.datasets import load_benchmark
from repro.experiments import SearchLoop
from repro.utils.config import PredictorConfig

DATASETS = ("wn18rr", "fb15k237")
BUDGET = 9

VARIANTS = {
    "srf_predictor": PredictorConfig(feature_type="srf", hidden_units=2, epochs=200),
    "onehot_predictor": PredictorConfig(feature_type="onehot", hidden_units=8, epochs=200),
    "no_predictor": None,
}


def build_report() -> str:
    training_config = bench_training_config()
    sections = []
    for benchmark_name in DATASETS:
        graph = load_benchmark(benchmark_name, scale=BENCH_SCALE)
        evaluator = CandidateEvaluator(graph, training_config)
        curves = {}
        for variant_name, predictor_config in VARIANTS.items():
            if predictor_config is None:
                spec = bench_search_spec(use_predictor=False)
            else:
                spec = bench_search_spec(predictor=predictor_config)
            result = SearchLoop.from_spec(
                spec, graph, training_config=training_config, evaluator=evaluator
            ).run(max_evaluations=BUDGET)
            curves[variant_name] = result.anytime_curve()
        sections.append(
            format_series(
                curves,
                title=f"Fig. 8 ({benchmark_name}): SRF vs. one-hot predictor features",
                index_label="model#",
            )
        )
    return "\n\n".join(sections)


def test_fig8_srf_vs_onehot(benchmark):
    report = benchmark.pedantic(build_report, rounds=1, iterations=1)
    publish("fig8_srf_vs_onehot", report)
    assert "srf_predictor" in report
