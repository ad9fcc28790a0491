"""Per-layer tracing from outside the program: wrappers, spans and self time.

The benchmark never edits ``src/``.  In a traced run, :func:`install` wraps
the public entry points of every layer (named after the repo module that
implements it) with a function that records a span: name, layer, start,
end, parent span and request id.  Each thread keeps its own stack of open
spans, so a span's parent is the innermost span open on the same thread.

Names are patched where they are looked up: a method on every class of its
hierarchy that defines it, and a function in the module whose globals the
caller reads it from (``repro.kge.engine.multiclass_inplace``, not only
``repro.kge.losses.multiclass_inplace``).

Spans stay in memory and are written as JSONL when the process ends.  A
span's self time is its duration minus the part of it covered by its
children; summed over a layer, that is the layer's busy time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: One patch: (layer, span name, "module:Qualified.name" of the callable).
#: ``Class.method`` targets are patched on every subclass that defines the
#: method too; ``module:function`` targets only in that module.
PATCHES: Tuple[Tuple[str, str, str], ...] = (
    # -- search ---------------------------------------------------------
    ("core.search_space", "enumerate_f4_structures", "repro.experiments.strategies:enumerate_f4_structures"),
    ("core.search_space", "extend_structure", "repro.experiments.strategies:extend_structure"),
    ("core.filters", "accept", "repro.core.filters:CandidateFilter.accept"),
    ("core.filters", "explain", "repro.core.filters:CandidateFilter.explain"),
    ("core.filters", "record_history", "repro.core.filters:CandidateFilter.record_history"),
    ("core.predictor", "fit", "repro.core.predictor:PerformancePredictor.fit"),
    ("core.predictor", "select_top", "repro.core.predictor:PerformancePredictor.select_top"),
    ("core.execution", "run", "repro.core.execution:SerialBackend.run"),
    ("core.execution", "evaluate_candidate", "repro.core.execution:evaluate_candidate"),
    ("core.evaluator", "evaluate_many", "repro.core.evaluator:CandidateEvaluator.evaluate_many"),
    # -- training -------------------------------------------------------
    ("kge.trainer", "fit", "repro.kge.trainer:Trainer.fit"),
    ("kge.trainer", "train_step", "repro.kge.trainer:Trainer.train_step"),
    ("kge.negative_sampling", "sample", "repro.kge.negative_sampling:NegativeSampler.sample"),
    ("kge.scoring", "score", "repro.kge.scoring.base:ScoringFunction.score_candidates"),
    ("kge.scoring", "score", "repro.kge.scoring.base:ScoringFunction.score_candidates_chunk"),
    ("kge.scoring", "score", "repro.kge.scoring.base:ScoringFunction.begin_candidate_pass"),
    ("kge.scoring", "grad", "repro.kge.scoring.base:ScoringFunction.grad_candidates"),
    ("kge.scoring", "grad", "repro.kge.scoring.base:ScoringFunction.grad_candidates_chunk"),
    ("kge.scoring", "grad", "repro.kge.scoring.base:ScoringFunction.finish_candidate_pass"),
    ("kge.losses", "compute", "repro.kge.losses:Loss.compute"),
    ("kge.losses", "multiclass_inplace", "repro.kge.engine:multiclass_inplace"),
    ("kge.regularizers", "add_gradients", "repro.kge.regularizers:Regularizer.add_gradients"),
    ("kge.regularizers", "penalty", "repro.kge.regularizers:Regularizer.penalty"),
    ("kge.optimizers", "step", "repro.kge.optimizers:Optimizer.step"),
    ("kge.optimizers", "step_sparse", "repro.kge.optimizers:Optimizer.step_sparse"),
    ("kge.evaluation", "evaluate_link_prediction", "repro.core.execution:evaluate_link_prediction"),
    ("kge.evaluation", "evaluate_link_prediction", "repro.kge.evaluation:evaluate_link_prediction"),
    # -- serving --------------------------------------------------------
    ("serving.service", "request", "repro.serving.service:QueryHandler.do_POST"),
    ("serving.service", "parse", "repro.serving.service:QueryRequest.from_dict"),
    ("serving.service", "encode", "repro.serving.service:QueryResponse.to_dict"),
    ("serving.service", "answer", "repro.serving.service:answer_queries"),
    ("serving.service", "reload", "repro.serving.service:QueryServer.reload"),
    ("serving.engine", "batch", "repro.serving.engine:MicroBatcher.query_batch"),
    ("serving.engine", "query", "repro.serving.engine:InferenceEngine.query_batch"),
    ("serving.engine", "project", "repro.kge.scoring.base:RelationOperator.project"),
    ("serving.engine", "score", "repro.kge.scoring.base:RelationOperator.score"),
    ("serving.engine", "filter", "repro.serving.engine:mask_known_scores"),
    ("serving.engine", "select", "repro.serving.engine:select_predictions_batch"),
    ("serving.engine", "operator_build", "repro.kge.scoring.base:ScoringFunction.relation_operator"),
    ("serving.artifact", "load_artifact", "repro.serving.service:load_artifact"),
    ("serving.artifact", "load_artifact", "repro.cli:load_artifact"),
    ("serving.artifact", "load_filter_index", "repro.serving.service:load_filter_index"),
    # -- live updates ---------------------------------------------------
    ("live", "finetune_delta", "repro.live.finetune:finetune_delta"),
    ("live", "apply_index_delta", "repro.live.index_delta:apply_index_delta"),
    ("datasets.pipeline", "apply_delta", "repro.datasets.pipeline:TripleStore.apply_delta"),
    ("datasets.pipeline", "build_filter_index", "repro.datasets.pipeline:build_filter_index"),
)

#: Modules imported before patching so every subclass of a patched base is
#: visible (the scoring families, the live fine-tune sampler).
SUBCLASS_MODULES = ("repro.kge.scoring", "repro.live.finetune")

#: The span name whose wrapper opens a new request id.
REQUEST_SPAN = ("serving.service", "request")


@dataclass
class Span:
    id: int
    parent: int
    layer: str
    name: str
    start: float
    end: float
    thread: int
    request: int
    pid: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; one stack of open spans per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, name: str, function: Callable, *args, **kwargs):
        """Run ``function`` inside a span of ``layer``/``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent, request = stack[-1]
        else:
            parent, request = 0, 0
        if (layer, name) == REQUEST_SPAN:
            request = next(self._requests)
        stack.append((span_id, request))
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(span_id, parent, layer, name, start, end, threading.get_ident(), request)
            )

    def wrap(self, layer: str, name: str, function: Callable) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            return self.call(layer, name, function, *args, **kwargs)

        return traced

    def write_jsonl(self, path: Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        pid = os.getpid()
        with path.open("w", encoding="utf-8") as handle:
            for span in list(self.spans):
                record = dict(span.__dict__, pid=pid)
                handle.write(json.dumps(record) + "\n")
        return path


def read_jsonl(path: Path) -> List[Span]:
    with Path(path).open("r", encoding="utf-8") as handle:
        return [Span(**json.loads(line)) for line in handle if line.strip()]


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------
def _class_tree(root: type) -> List[type]:
    seen, order, pending = set(), [], [root]
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        order.append(cls)
        pending.extend(cls.__subclasses__())
    return order


def install(
    tracer: Tracer,
    patches: Sequence[Tuple[str, str, str]] = PATCHES,
    preload: Sequence[str] = SUBCLASS_MODULES,
) -> Callable[[], None]:
    """Wrap every patch target; returns a function that restores the originals."""
    for module_name in preload:
        importlib.import_module(module_name)
    undo: List[Tuple[object, str, object]] = []
    for layer, name, target in patches:
        module_name, _, qualname = target.partition(":")
        module = importlib.import_module(module_name)
        if "." not in qualname:
            original = getattr(module, qualname)
            setattr(module, qualname, tracer.wrap(layer, name, original))
            undo.append((module, qualname, original))
            continue
        class_name, method = qualname.split(".")
        for cls in _class_tree(getattr(module, class_name)):
            raw = cls.__dict__.get(method)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(layer, name, raw.__func__))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(tracer.wrap(layer, name, raw.__func__))
            else:
                wrapped = tracer.wrap(layer, name, raw)
            setattr(cls, method, wrapped)
            undo.append((cls, method, raw))

    def restore() -> None:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    return restore


# ----------------------------------------------------------------------
# Self time and per-layer totals
# ----------------------------------------------------------------------
def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total, current_start, current_end = 0.0, None, None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[Tuple[int, int], float]:
    """Self time per ``(pid, span id)``: duration minus the union of its children."""
    children: Dict[Tuple[int, int], List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[(span.pid, span.parent)].append(span)
    result = {}
    for span in spans:
        covered = _union_length(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get((span.pid, span.id), ())
        )
        result[(span.pid, span.id)] = span.duration - covered
    return result


def clip(spans: Sequence[Span], window: Optional[Tuple[float, float]]) -> List[Span]:
    """Spans cut to ``window`` (spans entirely outside it are dropped)."""
    if window is None:
        return list(spans)
    low, high = window
    kept = []
    for span in spans:
        start, end = max(span.start, low), min(span.end, high)
        if end > start:
            kept.append(Span(**dict(span.__dict__, start=start, end=end)))
    return kept


@dataclass
class LayerTotals:
    """Self and total seconds plus call counts, by layer and by (layer, name)."""

    self_s: Dict[str, float]
    name_self_s: Dict[Tuple[str, str], float]
    name_total_s: Dict[Tuple[str, str], float]
    calls: Dict[Tuple[str, str], int]

    def layer(self, layer: str) -> float:
        return self.self_s.get(layer, 0.0)

    def self_of(self, layer: str, *names: str) -> float:
        return sum(self.name_self_s.get((layer, name), 0.0) for name in names)

    def total_of(self, layer: str, *names: str) -> float:
        return sum(self.name_total_s.get((layer, name), 0.0) for name in names)

    def calls_of(self, layer: str, *names: str) -> int:
        return sum(self.calls.get((layer, name), 0) for name in names)

    @property
    def covered_s(self) -> float:
        return sum(self.self_s.values())


def layer_totals(spans: Sequence[Span], window: Optional[Tuple[float, float]] = None) -> LayerTotals:
    spans = clip(spans, window)
    selfs = self_times(spans)
    self_s: Dict[str, float] = defaultdict(float)
    name_self: Dict[Tuple[str, str], float] = defaultdict(float)
    name_total: Dict[Tuple[str, str], float] = defaultdict(float)
    calls: Dict[Tuple[str, str], int] = defaultdict(int)
    # A recursive call (an overriding method calling super()) nests a span
    # in one of the same name; count its time once, under the outer span.
    by_id = {(span.pid, span.id): span for span in spans}
    for span in spans:
        key = (span.layer, span.name)
        self_s[span.layer] += selfs[(span.pid, span.id)]
        name_self[key] += selfs[(span.pid, span.id)]
        parent = by_id.get((span.pid, span.parent))
        if parent is None or (parent.layer, parent.name) != key:
            name_total[key] += span.duration
            calls[key] += 1
    return LayerTotals(dict(self_s), dict(name_self), dict(name_total), dict(calls))


def layer_table(totals: LayerTotals, wall_s: float) -> List[Dict[str, object]]:
    """Rows of (layer, span, calls, total, self, share of wall) for reports."""
    rows = []
    for (layer, name), self_s in sorted(totals.name_self_s.items(), key=lambda item: -item[1]):
        rows.append(
            {
                "layer": layer,
                "span": name,
                "calls": totals.calls.get((layer, name), 0),
                "total_s": totals.name_total_s.get((layer, name), 0.0),
                "self_s": self_s,
                "share": self_s / wall_s if wall_s > 0 else 0.0,
            }
        )
    return rows
