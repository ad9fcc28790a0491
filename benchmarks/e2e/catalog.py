"""The benchmark's workloads and metrics: names, units and how each is derived.

Every run of every workload emits every end-to-end metric (untraced runs)
or every per-layer metric (traced runs) under the names below, so results
from different workloads and revisions line up column for column.
``BENCHMARK.json`` at the repository root repeats these names with their
directions and bounds; a unit test keeps the two in step.

End-to-end metrics are defined per workload on the workload's unit of work:

=================  =========================  ================================
workload           unit of work ("op")        throughput_per_s
=================  =========================  ================================
search             one training mini-batch     candidates trained per second
train_pairwise     one training mini-batch    training triples per second
serve_zipf         one HTTP request           req/s, closed loop, 2 connections
serve_live         one HTTP request           req/s, closed loop, 2 connections
=================  =========================  ================================

``p50_ms`` is the median op latency: per mini-batch for the training
workloads, per request measured from its due time in the ``high`` open-loop
phase for the serving workloads.  Tails (a windowed p90 and the highest
percentile with ten samples beyond it) are recorded with every run but not
gated: on a shared two-vCPU host they spread 30% or more between runs.

Per-layer ``*share`` metrics are a layer's self time divided by the wall
time of the measured region (search loop, ``Trainer.fit``, or the serving
phases); they are zero on workloads that do not run the layer.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from spans import LayerTotals

WORKLOADS: Tuple[str, ...] = ("search", "train_pairwise", "serve_zipf", "serve_live")

#: End-to-end metrics: name -> unit.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: name -> unit.
PER_LAYER: Dict[str, str] = {
    "core.search_space.share": "ratio",
    "core.filters.share": "ratio",
    "core.filters.calls": "count",
    "core.filters.accept_ratio": "ratio",
    "core.predictor.fit_share": "ratio",
    "core.predictor.select_share": "ratio",
    "core.execution.dispatch_share": "ratio",
    "core.evaluator.share": "ratio",
    "core.evaluator.trained": "count",
    "core.evaluator.replayed": "count",
    "kge.trainer.share": "ratio",
    "kge.trainer.batches": "count",
    "kge.negative_sampling.share": "ratio",
    "kge.scoring.score_share": "ratio",
    "kge.scoring.grad_share": "ratio",
    "kge.losses.share": "ratio",
    "kge.regularizers.share": "ratio",
    "kge.optimizers.share": "ratio",
    "kge.evaluation.share": "ratio",
    "serving.service.request_share": "ratio",
    "serving.service.parse_share": "ratio",
    "serving.service.encode_share": "ratio",
    "serving.service.answer_share": "ratio",
    "serving.service.reload_share": "ratio",
    "serving.engine.batch_wait_share": "ratio",
    "serving.engine.calls_per_batch": "calls/batch",
    "serving.engine.query_share": "ratio",
    "serving.engine.project_share": "ratio",
    "serving.engine.score_share": "ratio",
    "serving.engine.select_share": "ratio",
    "serving.engine.filter_share": "ratio",
    "serving.engine.operator_build_share": "ratio",
    "serving.engine.result_hit_ratio": "ratio",
    "serving.engine.operator_hit_ratio": "ratio",
    "serving.artifact.load_share": "ratio",
    "live.apply_delta_share": "ratio",
    "live.index_delta_share": "ratio",
    "live.finetune_share": "ratio",
    "live.export_share": "ratio",
    "datasets.pipeline.share": "ratio",
    "process.cpu_ms_per_op": "ms",
    "client.cpu_util": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

#: Per-layer inputs that do not come from spans, with their defaults.
EXTRA_DEFAULTS: Dict[str, float] = {
    "filter_accepted": 0,
    "filter_seen": 0,
    "trained": 0,
    "replayed": 0,
    "batches": 0,
    "calls_per_batch": 0.0,
    "result_hit_ratio": 0.0,
    "operator_hit_ratio": 0.0,
    "writer_apply_s": 0.0,
    "writer_index_s": 0.0,
    "writer_finetune_s": 0.0,
    "writer_export_s": 0.0,
    "cpu_ms_per_op": 0.0,
    "client_cpu_util": 0.0,
    "coverage": 0.0,
    "overhead": 0.0,
}


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end_metrics(values: Mapping[str, float]) -> Dict[str, Dict[str, object]]:
    """Wrap measured end-to-end values with their units (all must be present)."""
    missing = sorted(set(END_TO_END) - set(values))
    if missing:
        raise KeyError(f"end-to-end metrics not measured: {missing}")
    return {name: metric(float(values[name]), unit) for name, unit in END_TO_END.items()}


def per_layer_metrics(
    totals: LayerTotals, wall_s: float, extra: Mapping[str, float]
) -> Dict[str, Dict[str, object]]:
    """Per-layer metrics from span totals over a ``wall_s`` window plus ``extra``."""
    unknown = sorted(set(extra) - set(EXTRA_DEFAULTS))
    if unknown:
        raise KeyError(f"unknown per-layer inputs: {unknown}")
    x = dict(EXTRA_DEFAULTS, **extra)

    def share(seconds: float) -> float:
        return seconds / wall_s if wall_s > 0 else 0.0

    values = {
        "core.search_space.share": share(totals.layer("core.search_space")),
        "core.filters.share": share(totals.layer("core.filters")),
        "core.filters.calls": totals.calls_of("core.filters", "accept", "explain", "record_history"),
        "core.filters.accept_ratio": x["filter_accepted"] / x["filter_seen"] if x["filter_seen"] else 0.0,
        "core.predictor.fit_share": share(totals.self_of("core.predictor", "fit")),
        "core.predictor.select_share": share(totals.self_of("core.predictor", "select_top")),
        "core.execution.dispatch_share": share(totals.self_of("core.execution", "run")),
        "core.evaluator.share": share(totals.layer("core.evaluator")),
        "core.evaluator.trained": x["trained"],
        "core.evaluator.replayed": x["replayed"],
        "kge.trainer.share": share(totals.layer("kge.trainer")),
        "kge.trainer.batches": x["batches"],
        "kge.negative_sampling.share": share(totals.layer("kge.negative_sampling")),
        "kge.scoring.score_share": share(totals.self_of("kge.scoring", "score")),
        "kge.scoring.grad_share": share(totals.self_of("kge.scoring", "grad")),
        "kge.losses.share": share(totals.layer("kge.losses")),
        "kge.regularizers.share": share(totals.layer("kge.regularizers")),
        "kge.optimizers.share": share(totals.layer("kge.optimizers")),
        "kge.evaluation.share": share(totals.layer("kge.evaluation")),
        "serving.service.request_share": share(totals.self_of("serving.service", "request")),
        "serving.service.parse_share": share(totals.self_of("serving.service", "parse")),
        "serving.service.encode_share": share(totals.self_of("serving.service", "encode")),
        "serving.service.answer_share": share(totals.self_of("serving.service", "answer")),
        "serving.service.reload_share": share(totals.self_of("serving.service", "reload")),
        "serving.engine.batch_wait_share": share(totals.self_of("serving.engine", "batch")),
        "serving.engine.calls_per_batch": x["calls_per_batch"],
        "serving.engine.query_share": share(totals.self_of("serving.engine", "query")),
        "serving.engine.project_share": share(totals.self_of("serving.engine", "project")),
        "serving.engine.score_share": share(totals.self_of("serving.engine", "score")),
        "serving.engine.select_share": share(totals.self_of("serving.engine", "select")),
        "serving.engine.filter_share": share(totals.self_of("serving.engine", "filter")),
        "serving.engine.operator_build_share": share(totals.self_of("serving.engine", "operator_build")),
        "serving.engine.result_hit_ratio": x["result_hit_ratio"],
        "serving.engine.operator_hit_ratio": x["operator_hit_ratio"],
        "serving.artifact.load_share": share(totals.layer("serving.artifact")),
        "live.apply_delta_share": share(x["writer_apply_s"]),
        "live.index_delta_share": share(x["writer_index_s"]),
        "live.finetune_share": share(x["writer_finetune_s"]),
        "live.export_share": share(x["writer_export_s"]),
        "datasets.pipeline.share": share(totals.layer("datasets.pipeline")),
        "process.cpu_ms_per_op": x["cpu_ms_per_op"],
        "client.cpu_util": x["client_cpu_util"],
        "trace.coverage": x["coverage"],
        "trace.overhead": x["overhead"],
    }
    return {name: metric(float(values[name]), unit) for name, unit in PER_LAYER.items()}
