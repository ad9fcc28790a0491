"""The four benchmark workloads; each run executes one of them in this process.

Run by ``bench.py run`` in a subprocess with its environment pinned::

    python3 benchmarks/e2e/workloads.py --workload search --seed 0 \\
        --seconds 30 --trace 0 --result OUT.json --work DIR

The result file holds the run's metrics, checks and details; ``bench.py``
prints and aggregates it.  Why each workload exists is in ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

E2E_DIR = Path(__file__).resolve().parent
ROOT = E2E_DIR.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import loadgen  # noqa: E402
from catalog import end_to_end_metrics, per_layer_metrics  # noqa: E402
from spans import Span, Tracer, install, layer_table, layer_totals, read_jsonl  # noqa: E402

#: Correctness values pinned for seeds 0 and 1 (and floors for every seed).
PINNED_FILE = E2E_DIR / "pinned.json"

#: search and train_pairwise set up this many times before and after the
#: measured work: short Python-heavy set-ups change speed from one moment to
#: the next on a shared host, and a median over both ends of the run is less
#: likely to fall in one slow moment.
SETUPS_BEFORE = 3
SETUPS_AFTER = 4

# -- search: the paper's greedy search (Alg. 2) on the yago310 miniature --
SEARCH_BUDGET = 23
SEARCH_TRAINING = dict(dimension=32, epochs=16, batch_size=256, learning_rate=0.5, l2_penalty=1e-4)
SEARCH_SPACE = dict(max_blocks=10, candidates_per_step=32, top_parents=4, train_per_step=6)
PREDICTOR_EPOCHS = 100

# -- train_pairwise: one Trainer.fit of SimplE with the default engine -----
TRAIN_ENTITIES = 10_000
TRAIN_TRAINING = dict(
    dimension=32, epochs=3, batch_size=128, learning_rate=0.5, l2_penalty=1e-4,
    loss="logistic", negative_samples=8,
)

# -- serving ---------------------------------------------------------------
# The offered rates sit at about 20% and 40% of closed-loop capacity (about
# 500 req/s on serve_zipf, 160 on serve_live, on a shared 2-vCPU host).  That
# host slowed down by 40% for minutes at a time; at 60% of capacity such a
# slowdown pushed the server past saturation and p50 to seconds, at 40%
# queueing stays bounded.
SERVE_SETUPS = 3
SERVE_DIM = 64
SERVE_RELATIONS = 64
TOP_K = 10
#: Share of ``--seconds`` spent in each load phase, in order.
PHASE_SHARES = (("low", 0.2), ("high", 0.5), ("closed", 0.3))
PARITY_ANSWERS = 500
#: A generator that used more than this share of a core did not offer its rate.
CLIENT_CPU_LIMIT = 0.8

ZIPF_ENTITIES = 20_000
ZIPF_EXPONENT = 1.1
ZIPF_WINDOW_MS = 2
ZIPF_RATES = {"low": 100.0, "high": 200.0}
#: Requests prepared per second of closed loop: more than the server takes.
ZIPF_CLOSED_CAP = 2000
ZIPF_WARMUP = 500

LIVE_ENTITIES = 50_000
LIVE_TRIPLES = 200_000
LIVE_HELD_OUT = 5_000  # valid and test triples each
LIVE_QUERIES_PER_REQUEST = 4
LIVE_RATES = {"low": 30.0, "high": 60.0}
LIVE_CLOSED_CAP = 500
LIVE_WARMUP = 100
LIVE_ROUND_S = 2.0
LIVE_DELTA = 256


# ----------------------------------------------------------------------
# Run bookkeeping
# ----------------------------------------------------------------------
@dataclass
class Run:
    """What one workload run reports back to ``bench.py``."""

    workload: str
    seed: int
    traced: bool
    e2e: Dict[str, float] = field(default_factory=dict)
    headline: float = 0.0
    ops: int = 0
    failed_ops: int = 0
    checks: List[Dict[str, object]] = field(default_factory=list)
    premises: List[Dict[str, object]] = field(default_factory=list)
    detail: Dict[str, object] = field(default_factory=dict)
    layers: Optional[Dict[str, Dict[str, object]]] = None
    layer_rows: List[Dict[str, object]] = field(default_factory=list)

    def check(self, name: str, ok: bool, note: str = "") -> bool:
        """A correctness check: a failure makes the run incorrect."""
        self.checks.append({"check": name, "ok": bool(ok), "note": note})
        return bool(ok)

    def premise(self, name: str, ok: bool, note: str = "") -> None:
        """A measurement premise: a failure marks numbers unmeasured, not wrong."""
        self.premises.append({"premise": name, "ok": bool(ok), "note": note})

    def as_result(self) -> Dict[str, object]:
        failed_checks = sum(1 for check in self.checks if not check["ok"])
        result = {
            "workload": self.workload,
            "seed": self.seed,
            "trace": int(self.traced),
            "correct": failed_checks == 0 and self.failed_ops == 0,
            "attempted": self.ops + len(self.checks),
            "failed": self.failed_ops + failed_checks,
            "headline": self.headline,
            "checks": self.checks,
            "premises": self.premises,
            "detail": self.detail,
        }
        if self.traced:
            result["metrics"] = self.layers
            result["layer_table"] = self.layer_rows
        else:
            result["metrics"] = end_to_end_metrics(self.e2e)
        return result


def repeat_setup(setup: Callable[[int], object], repeats: int, teardown=None) -> Tuple[List[float], object]:
    """Run ``setup`` ``repeats`` times; returns the seconds each took and the last result.

    Every result but the last is passed to ``teardown`` right after it is
    timed, so servers from earlier repetitions never overlap the next one.
    """
    times, result = [], None
    for repeat in range(repeats):
        started = time.perf_counter()
        result = setup(repeat)
        times.append(time.perf_counter() - started)
        if teardown is not None and repeat < repeats - 1:
            teardown(result)
    return times, result


def load_pinned() -> Dict[str, object]:
    with PINNED_FILE.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def peak_rss_mb(pid: object = "self") -> float:
    """VmHWM (peak resident set) of a process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM:"):
            return float(line.split()[1]) / 1024.0
    raise KeyError(f"VmHWM not in /proc/{pid}/status")


def cpu_seconds(pid: int) -> float:
    """utime + stime of another process, from ``/proc/<pid>/stat``."""
    fields = Path(f"/proc/{pid}/stat").read_text(encoding="ascii").rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class StepTimer:
    """Times every ``Trainer.train_step`` call: the training workloads' op."""

    def __init__(self) -> None:
        from repro.kge.trainer import Trainer

        self.durations: List[float] = []
        self._owner = Trainer
        self._original = Trainer.__dict__["train_step"]
        original, durations = self._original, self.durations

        def timed_step(trainer, params, batch):
            started = time.perf_counter()
            try:
                return original(trainer, params, batch)
            finally:
                durations.append(time.perf_counter() - started)

        Trainer.train_step = timed_step

    def close(self) -> None:
        self._owner.train_step = self._original


def median_latency(summary: Dict[str, object], run: Run, label: str) -> float:
    """``p50_ms`` of a latency summary (0 when it has too few samples)."""
    measured = run.check(f"{label} has >= {loadgen.MIN_WINDOW} samples",
                         isinstance(summary["p90_ms"], float), f"{summary['samples']} samples")
    return summary["p50_ms"] if measured else 0.0


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------
def run_search(run: Run, tracer: Optional[Tracer]) -> None:
    from repro.core.execution import EvaluationContext, EvaluationTask, derive_candidate_seed, evaluate_candidate
    from repro.core.invariance import canonical_key
    from repro.datasets import load_benchmark
    from repro.experiments import DatasetSpec, ExperimentSpec, SearchLoop, SearchSpec, create_strategy
    from repro.utils.config import PredictorConfig, TrainingConfig

    config = TrainingConfig(seed=run.seed, **SEARCH_TRAINING)
    spec = ExperimentSpec(
        name="e2e-search",
        seed=run.seed,
        dataset=DatasetSpec(benchmark="yago310", scale=1.0),
        search=SearchSpec(strategy="greedy", budget=SEARCH_BUDGET, **SEARCH_SPACE),
        predictor=PredictorConfig(epochs=PREDICTOR_EPOCHS),
    )

    def setup(_repeat: int):
        graph = load_benchmark("yago310", scale=1.0)
        return graph, SearchLoop(graph, create_strategy(spec), config, seed=run.seed)

    setup_times, (graph, loop) = repeat_setup(setup, SETUPS_BEFORE)
    timer = StepTimer()
    cpu_started = time.process_time()
    started = time.perf_counter()
    try:
        result = loop.run(max_evaluations=SEARCH_BUDGET)
    finally:
        finished = time.perf_counter()
        timer.close()
    cpu_s = time.process_time() - cpu_started
    search_s = finished - started
    setup_times += repeat_setup(setup, SETUPS_AFTER)[0]

    trained = loop.evaluator.num_trained
    replayed = len(result.records) - trained
    best_blocks = [list(block) for block in result.best_structure.blocks]
    steps = loadgen.latency_summary(timer.durations)
    run.ops = len(result.records)
    run.headline = search_s
    run.e2e = {
        "setup_s": statistics.median(setup_times),
        "throughput_per_s": trained / search_s,
        "p50_ms": median_latency(steps, run, "train step latency"),
        "peak_rss_mb": peak_rss_mb(),
    }
    run.detail = {
        "search_s": search_s,
        "best_mrr": result.best_mrr,
        "best_structure": best_blocks,
        "trained": trained,
        "replayed": replayed,
        "filter_statistics": result.filter_statistics,
        "timing": loop.timing.summary(),
        "train_step": steps,
        "setup_times_s": setup_times,
        "graph": {"entities": graph.num_entities, "relations": graph.num_relations,
                  "train": graph.num_train, "valid": graph.num_valid},
    }

    pinned = load_pinned()["search"]
    run.check("trained every budgeted candidate", trained == SEARCH_BUDGET, f"trained {trained}")
    run.check("no candidate replayed from a cache", replayed == 0, f"replayed {replayed}")
    run.check(
        "best_mrr is the best recorded validation MRR",
        result.best_mrr == max(record.validation_mrr for record in result.records),
    )
    run.check("best_mrr above the floor", result.best_mrr >= pinned["best_mrr_floor"],
              f"{result.best_mrr:.4f} vs floor {pinned['best_mrr_floor']}")
    replay = evaluate_candidate(
        EvaluationContext(graph=graph, config=config),
        EvaluationTask(
            structure=result.best_structure,
            seed=derive_candidate_seed(run.seed, canonical_key(result.best_structure)),
        ),
    )
    run.check("retraining the best structure reproduces best_mrr bit for bit",
              replay.validation_mrr == result.best_mrr,
              f"{replay.validation_mrr!r} vs {result.best_mrr!r}")
    expected = pinned["seeds"].get(str(run.seed))
    if expected is not None:
        run.check("best structure matches the pinned one", best_blocks == expected["best_structure"],
                  f"{best_blocks} vs {expected['best_structure']}")
        run.check("best_mrr matches the pinned value bit for bit",
                  result.best_mrr.hex() == expected["best_mrr_hex"],
                  f"{result.best_mrr.hex()} vs {expected['best_mrr_hex']}")

    if tracer is not None:
        totals = layer_totals(tracer.spans, (started, finished))
        statistics_ = result.filter_statistics
        run.layers = per_layer_metrics(totals, search_s, {
            "filter_accepted": statistics_.get("accepted", 0),
            "filter_seen": statistics_.get("total_seen", 0),
            "trained": trained,
            "replayed": replayed,
            "batches": len(timer.durations),
            "cpu_ms_per_op": cpu_s * 1000.0 / max(len(timer.durations), 1),
            "coverage": totals.covered_s / search_s,
        })
        run.layer_rows = layer_table(totals, search_s)


# ----------------------------------------------------------------------
# train_pairwise
# ----------------------------------------------------------------------
def run_train_pairwise(run: Run, tracer: Optional[Tracer]) -> None:
    from repro.datasets import GeneratorProfile, generate_knowledge_graph
    from repro.datasets.statistics import RelationPattern
    from repro.kge import evaluation
    from repro.kge.scoring.bilinear import BlockScoringFunction
    from repro.kge.scoring.blocks import classical_structure
    from repro.kge.trainer import Trainer
    from repro.utils.config import TrainingConfig

    config = TrainingConfig(seed=run.seed, **TRAIN_TRAINING)
    profile = GeneratorProfile(
        name="e2e-pairwise",
        num_entities=TRAIN_ENTITIES,
        num_clusters=20,
        relation_counts={
            RelationPattern.SYMMETRIC: 3,
            RelationPattern.ANTI_SYMMETRIC: 3,
            RelationPattern.INVERSE: 4,
            RelationPattern.GENERAL: 10,
        },
        triples_per_relation=500,
        seed=run.seed,
    )

    def setup(_repeat: int):
        graph = generate_knowledge_graph(profile)
        scoring_function = BlockScoringFunction(classical_structure("simple"))
        return graph, scoring_function, Trainer(scoring_function, config)

    setup_times, (graph, scoring_function, trainer) = repeat_setup(setup, SETUPS_BEFORE)
    timer = StepTimer()
    cpu_started = time.process_time()
    started = time.perf_counter()
    try:
        params, history = trainer.fit(graph)
    finally:
        finished = time.perf_counter()
        timer.close()
    cpu_s = time.process_time() - cpu_started
    fit_s = finished - started
    setup_times += repeat_setup(setup, SETUPS_AFTER)[0]
    triples = config.epochs * graph.num_train
    valid = evaluation.evaluate_link_prediction(scoring_function, params, graph, split="valid")

    steps = loadgen.latency_summary(timer.durations)
    expected_batches = config.epochs * math.ceil(graph.num_train / config.batch_size)
    run.ops = len(timer.durations)
    run.headline = fit_s
    run.e2e = {
        "setup_s": statistics.median(setup_times),
        "throughput_per_s": triples / fit_s,
        "p50_ms": median_latency(steps, run, "train step latency"),
        "peak_rss_mb": peak_rss_mb(),
    }
    run.detail = {
        "fit_s": fit_s,
        "valid_mrr": valid.mrr,
        "train_triples": graph.num_train,
        "engine": config.train_engine,
        "epoch_losses": history.losses,
        "train_step": steps,
        "setup_times_s": setup_times,
    }

    pinned = load_pinned()["train_pairwise"]
    run.check("every mini-batch ran", len(timer.durations) == expected_batches,
              f"{len(timer.durations)} of {expected_batches}")
    run.check("epoch losses are finite", all(math.isfinite(loss) for loss in history.losses))
    run.check("valid_mrr above the floor", valid.mrr >= pinned["valid_mrr_floor"],
              f"{valid.mrr:.4f} vs floor {pinned['valid_mrr_floor']}")
    expected = pinned["seeds"].get(str(run.seed))
    if expected is not None:
        run.check("valid_mrr matches the pinned value bit for bit",
                  valid.mrr.hex() == expected["valid_mrr_hex"],
                  f"{valid.mrr.hex()} vs {expected['valid_mrr_hex']}")

    if tracer is not None:
        totals = layer_totals(tracer.spans, (started, finished))
        run.layers = per_layer_metrics(totals, fit_s, {
            "batches": len(timer.durations),
            "cpu_ms_per_op": cpu_s * 1000.0 / max(len(timer.durations), 1),
            "coverage": totals.covered_s / fit_s,
        })
        run.layer_rows = layer_table(totals, fit_s)


# ----------------------------------------------------------------------
# Serving: processes, phases, stats
# ----------------------------------------------------------------------
def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind((loadgen.HOST, 0))
        return probe.getsockname()[1]


class ServerProcess:
    """A single-process ``repro-autosf serve`` (traced through the launcher)."""

    def __init__(self, serve_args: Sequence[str], log_path: Path, spans_path: Optional[Path]) -> None:
        self.port = free_port()
        self.log_path = log_path
        self.spans_path = spans_path
        argv = ["serve", *serve_args, "--host", loadgen.HOST, "--port", str(self.port)]
        if spans_path is None:
            command = [sys.executable, "-m", "repro.cli", *argv]
        else:
            command = [sys.executable, str(E2E_DIR / "traced_serve.py"), "--spans-out", str(spans_path), *argv]
        self._log = log_path.open("wb")
        self.process = subprocess.Popen(command, stdout=self._log, stderr=subprocess.STDOUT)

    @property
    def pid(self) -> int:
        return self.process.pid

    def log_tail(self) -> str:
        return self.log_path.read_text(encoding="utf-8", errors="replace")[-2000:]

    def wait_healthy(self, timeout_s: float = 60.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with {self.process.returncode}:\n{self.log_tail()}")
            try:
                status, _body = loadgen.get_json(self.port, "/healthz", timeout_s=2.0)
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.02)
        raise TimeoutError(f"server not healthy within {timeout_s:.0f}s:\n{self.log_tail()}")

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; SIGKILL only if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()
        return self.process.returncode


def stats_delta(before: Dict[str, object], after: Dict[str, object]) -> Dict[str, float]:
    """Engine and micro-batcher counters accumulated between two ``/stats``.

    A reload mounts a fresh engine with zeroed counters; across one, the
    delta covers the engine mounted last.
    """
    if after["reloads"] != before["reloads"]:
        before = {
            "queries_served": 0, "cache_hits": 0, "operator_cache": {"hits": 0, "misses": 0},
            "timings": {}, "micro_batcher": {"calls": 0, "batches": 0},
        }

    def phase_total(stats, phase):
        return float(stats.get("timings", {}).get(phase, {}).get("total", 0.0))

    queries = after["queries_served"] - before["queries_served"]
    hits = after["cache_hits"] - before["cache_hits"]
    operator_hits = after["operator_cache"]["hits"] - before["operator_cache"]["hits"]
    operator_misses = after["operator_cache"]["misses"] - before["operator_cache"]["misses"]
    delta = {
        "queries": queries,
        "result_hit_ratio": hits / queries if queries else 0.0,
        "operator_hit_ratio": operator_hits / (operator_hits + operator_misses)
        if operator_hits + operator_misses else 0.0,
        "engine_project_s": phase_total(after, "project") - phase_total(before, "project"),
        "engine_score_s": phase_total(after, "score") - phase_total(before, "score"),
        "engine_select_s": phase_total(after, "select") - phase_total(before, "select"),
        "calls_per_batch": 0.0,
    }
    if "micro_batcher" in after and "micro_batcher" in before:
        calls = after["micro_batcher"]["calls"] - before["micro_batcher"]["calls"]
        batches = after["micro_batcher"]["batches"] - before["micro_batcher"]["batches"]
        delta["calls_per_batch"] = calls / batches if batches else 0.0
    return delta


def fetch_stats(port: int) -> Dict[str, object]:
    status, stats = loadgen.get_json(port, "/stats")
    if status != 200:
        raise RuntimeError(f"GET /stats answered {status}")
    return stats


def encode_requests(queries: Sequence[Tuple[str, int, int]], per_request: int, filtered: bool) -> List[bytes]:
    return [
        json.dumps(loadgen.query_payload(queries[start:start + per_request], TOP_K, filtered)).encode("utf-8")
        for start in range(0, len(queries), per_request)
    ]


def run_phases(
    run: Run,
    port: int,
    stream: loadgen.QueryStream,
    rates: Dict[str, float],
    closed_cap: int,
    seconds: float,
    per_request: int,
    filtered: bool,
) -> List[loadgen.PhaseResult]:
    """The low and high open-loop phases, then the closed loop, on one stream."""
    send = loadgen.query_sender(port)
    results = []
    for name, share in PHASE_SHARES:
        duration = seconds * share
        if name == "closed":
            count = int(closed_cap * duration)
        else:
            count = int(round(rates[name] * duration))
        bodies = encode_requests(stream.take(count * per_request, name), per_request, filtered)
        if name == "closed":
            results.append(loadgen.closed_loop(name, send, bodies, duration))
        else:
            results.append(loadgen.open_loop(name, send, bodies, rates[name]))
    for phase in results:
        run.ops += phase.sent
        run.failed_ops += phase.sent - phase.ok
    return results


def phase_details(phases: Sequence[loadgen.PhaseResult]) -> Dict[str, object]:
    details = {}
    for phase in phases:
        summary = phase.summary()
        if phase.kind == "open" and phase.client_cpu_util > CLIENT_CPU_LIMIT:
            summary["latency_from_due"] = (
                f"unmeasured (client used {phase.client_cpu_util:.0%} of a core)"
            )
        details[phase.name] = summary
    return details


def finish_serving(
    run: Run,
    server: ServerProcess,
    phases: Sequence[loadgen.PhaseResult],
    stats: Dict[str, float],
    server_cpu_s: float,
    setup_times: List[float],
    rss_mb: float,
    spans: Optional[List[Span]],
    writer_totals: Optional[Dict[str, float]] = None,
) -> None:
    """The serving workloads' metrics, details and (traced) per-layer metrics."""
    by_name = {phase.name: phase for phase in phases}
    high = loadgen.latency_summary(by_name["high"].latencies_s)
    low = loadgen.latency_summary(by_name["low"].latencies_s)
    run.premise("client kept up with the open-loop rates",
                all(p.client_cpu_util <= CLIENT_CPU_LIMIT for p in phases if p.kind == "open"),
                ", ".join(f"{p.name} {p.client_cpu_util:.0%}" for p in phases))
    run.check("server exited cleanly", server.process.returncode == 0, f"exit {server.process.returncode}")
    run.headline = high["p50_ms"]
    run.e2e = {
        "setup_s": statistics.median(setup_times),
        "throughput_per_s": by_name["closed"].throughput_rps,
        "p50_ms": median_latency(high, run, "high-rate latency"),
        "peak_rss_mb": rss_mb,
    }
    run.detail.update({
        "p50_ms.low": low["p50_ms"],
        "p50_ms.high": high["p50_ms"],
        f"{high['tail']}_ms.high": high["tail_ms"],
        "slo_max_rate_rps": "unmeasured (only the low and high rates are offered; no rate sweep)",
        "fleet_scaling": "unmeasured (<4 cores)" if (os.cpu_count() or 1) < 4 else "unmeasured (one worker)",
        "phases": phase_details(phases),
        "setup_times_s": setup_times,
        "server_cpu_ms_per_request": server_cpu_s * 1000.0 / sum(p.sent for p in phases),
        "engine": stats,
    })
    if spans is not None:
        serve_layers(run, spans, phases, stats, server_cpu_s, writer_totals)


def serve_layers(
    run: Run,
    spans: List[Span],
    phases: Sequence[loadgen.PhaseResult],
    stats: Dict[str, float],
    server_cpu_s: float,
    writer: Optional[Dict[str, float]] = None,
) -> None:
    window = (min(p.started for p in phases), max(p.finished for p in phases))
    wall = window[1] - window[0]
    totals = layer_totals(spans, window)
    requests = sum(p.sent for p in phases)
    client_service = sum(sum(p.service_s) for p in phases)
    open_phases = [p for p in phases if p.kind == "open"]
    extra = {
        key: stats[key]
        for key in ("calls_per_batch", "result_hit_ratio", "operator_hit_ratio")
    }
    extra.update(
        cpu_ms_per_op=server_cpu_s * 1000.0 / max(requests, 1),
        client_cpu_util=sum(p.client_cpu_s for p in open_phases) / sum(p.wall_s for p in open_phases),
        # Share of the client-observed request time that the server's
        # request spans account for (the rest is connect, accept, queueing).
        coverage=totals.total_of("serving.service", "request") / client_service if client_service else 0.0,
    )
    extra.update(writer or {})
    run.layers = per_layer_metrics(totals, wall, extra)
    run.layer_rows = layer_table(totals, wall)


def check_answers(run: Run, label: str, got: List[List[Tuple[int, float]]], expected) -> None:
    mismatches = [index for index, (g, e) in enumerate(zip(got, expected)) if g != [tuple(p) for p in e]]
    run.check(label, len(got) == len(expected) and not mismatches,
              f"{len(got)} answers, {len(mismatches)} differ"
              + (f"; first at {mismatches[0]}: {got[mismatches[0]][:2]} vs {list(expected[mismatches[0]])[:2]}"
                 if mismatches else ""))


def query_over_http(run: Run, port: int, queries, filtered: bool) -> List[List[Tuple[int, float]]]:
    """Answers to ``queries`` sent as one request, over HTTP."""
    run.ops += 1
    status, body = loadgen.post_json(port, "/query", loadgen.query_payload(queries, TOP_K, filtered))
    if status != 200:
        run.failed_ops += 1
        return []
    return [[(p["entity"], p["score"]) for p in response["predictions"]] for response in body["responses"]]


class ServerSetups:
    """The serve workloads' repeated set-up: inputs, boot to /healthz, warm-up."""

    def __init__(self, run: Run, work: Path, spans_dir: Optional[Path]) -> None:
        self.run = run
        self.work = work
        self.spans_dir = spans_dir
        self.servers: List[ServerProcess] = []

    def start(self, repeat: int, serve_args: Sequence[str]) -> ServerProcess:
        spans_path = self.spans_dir / f"server-{repeat}.jsonl" if self.spans_dir else None
        server = ServerProcess(serve_args, self.work / f"server-{repeat}.log", spans_path)
        self.servers.append(server)
        server.wait_healthy()
        return server

    def warm_up(self, server: ServerProcess, bodies: Sequence[bytes]) -> None:
        phase = loadgen.closed_loop("warmup", loadgen.query_sender(server.port), bodies, duration_s=None)
        self.run.ops += phase.sent
        self.run.failed_ops += phase.sent - phase.ok

    def close(self) -> None:
        for server in self.servers:
            server.stop()


# ----------------------------------------------------------------------
# serve_zipf
# ----------------------------------------------------------------------
def complex_model(num_entities: int, seed: int):
    from repro.kge.model import KGEModel
    from repro.kge.scoring import get_scoring_function
    from repro.utils.config import TrainingConfig

    scoring_function = get_scoring_function("complex")
    params = scoring_function.init_params(num_entities, SERVE_RELATIONS, SERVE_DIM, rng=seed)
    return KGEModel(scoring_function, TrainingConfig(dimension=SERVE_DIM, seed=seed), params=params)


def run_serve_zipf(run: Run, seconds: float, work: Path, spans_dir: Optional[Path]) -> None:
    from repro.serving import InferenceEngine, export_artifact, load_artifact

    stream = loadgen.QueryStream(run.seed, ZIPF_ENTITIES, SERVE_RELATIONS, zipf=ZIPF_EXPONENT)
    warm = encode_requests(stream.take(ZIPF_WARMUP, "warmup"), 1, False)
    setups = ServerSetups(run, work, spans_dir)

    def setup(repeat: int) -> Tuple[ServerProcess, Path]:
        artifact = export_artifact(complex_model(ZIPF_ENTITIES, run.seed), work / f"artifact-{repeat}")
        server = setups.start(repeat, [
            "--artifact", str(artifact), "--workers", "1", "--micro-batch-window", str(ZIPF_WINDOW_MS),
        ])
        setups.warm_up(server, warm)
        return server, artifact

    try:
        setup_times, (server, artifact) = repeat_setup(
            setup, SERVE_SETUPS, teardown=lambda pair: pair[0].stop()
        )
        stats_before, cpu_before = fetch_stats(server.port), cpu_seconds(server.pid)
        phases = run_phases(run, server.port, stream, ZIPF_RATES, ZIPF_CLOSED_CAP, seconds, 1, False)
        stats_after, cpu_after = fetch_stats(server.port), cpu_seconds(server.pid)

        # Parity: fresh queries, one per request and one request at a time,
        # so neither side's result cache or the micro-batcher's grouping can
        # make the bits differ.
        parity = stream.take_unseen(PARITY_ANSWERS, "parity")
        got = [answer for query in parity for answer in query_over_http(run, server.port, [query], False)]
        oracle = InferenceEngine.from_artifact(load_artifact(artifact), result_cache_size=0)
        expected = [oracle.query_batch([query], top_k=TOP_K)[0] for query in parity]
        check_answers(run, f"{PARITY_ANSWERS} HTTP answers bit-identical to the in-process engine", got, expected)
        rss_mb = peak_rss_mb(server.pid)
    finally:
        setups.close()

    run.detail.update(stream_phases=stream.phases, rates_rps=ZIPF_RATES)
    finish_serving(
        run, server, phases, stats_delta(stats_before, stats_after), cpu_after - cpu_before,
        setup_times, rss_mb, read_jsonl(server.spans_path) if spans_dir else None,
    )


# ----------------------------------------------------------------------
# serve_live
# ----------------------------------------------------------------------
def live_triples(seed: int) -> np.ndarray:
    """``LIVE_TRIPLES`` distinct uniform triples, in a seeded order."""
    rng = np.random.default_rng((seed, 1))
    space = LIVE_ENTITIES * SERVE_RELATIONS * LIVE_ENTITIES
    keys = np.unique(rng.integers(0, space, size=int(LIVE_TRIPLES * 1.05)))[:LIVE_TRIPLES]
    keys = rng.permutation(keys)
    heads, rest = np.divmod(keys, SERVE_RELATIONS * LIVE_ENTITIES)
    relations, tails = np.divmod(rest, LIVE_ENTITIES)
    return np.stack([heads, relations, tails], axis=1).astype(np.int64)


def run_serve_live(run: Run, seconds: float, work: Path, spans_dir: Optional[Path]) -> None:
    from repro.datasets.knowledge_graph import KnowledgeGraph
    from repro.serving import InferenceEngine, export_artifact, load_artifact
    from repro.serving.engine import FILTER_INDEX_DIRNAME, load_filter_index

    stream = loadgen.QueryStream(run.seed, LIVE_ENTITIES, SERVE_RELATIONS)
    warm = encode_requests(stream.take(LIVE_WARMUP * LIVE_QUERIES_PER_REQUEST, "warmup"),
                         LIVE_QUERIES_PER_REQUEST, True)
    setups = ServerSetups(run, work, spans_dir)

    def setup(repeat: int) -> Tuple[ServerProcess, Path, Path]:
        base = work / f"setup-{repeat}"
        triples = live_triples(run.seed)
        held = LIVE_HELD_OUT
        graph = KnowledgeGraph(
            num_entities=LIVE_ENTITIES,
            num_relations=SERVE_RELATIONS,
            train=triples[2 * held:],
            valid=triples[:held],
            test=triples[held:2 * held],
            name="e2e-live",
        )
        store = graph.to_store(base / "store").directory
        generation0 = export_artifact(complex_model(LIVE_ENTITIES, run.seed),
                                      base / "generations" / "gen-00000", generation=0)
        server = setups.start(repeat, ["--artifact", str(generation0), "--filter", "--store", str(store)])
        setups.warm_up(server, warm)
        return server, store, generation0

    writer = None
    try:
        setup_times, (server, store, generation0) = repeat_setup(
            setup, SERVE_SETUPS, teardown=lambda triple: triple[0].stop()
        )
        writer_command = [
            sys.executable, str(E2E_DIR / "writer.py"),
            "--store", str(store), "--artifact", str(generation0), "--port", str(server.port),
            "--seed", str(run.seed), "--round-s", str(LIVE_ROUND_S), "--delta", str(LIVE_DELTA),
        ]
        if spans_dir is not None:
            writer_command += ["--spans-out", str(spans_dir / "writer.jsonl")]
        writer = subprocess.Popen(writer_command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if writer.stdout.readline().strip() != "ready":
            raise RuntimeError("writer failed to start")

        stats_before, cpu_before = fetch_stats(server.port), cpu_seconds(server.pid)
        writes_from = time.perf_counter()
        writer.stdin.write(f"go {writes_from!r} {writes_from + seconds!r}\n")
        writer.stdin.flush()
        phases = run_phases(run, server.port, stream, LIVE_RATES, LIVE_CLOSED_CAP, seconds,
                            LIVE_QUERIES_PER_REQUEST, True)
        stats_after, cpu_after = fetch_stats(server.port), cpu_seconds(server.pid)
        writes = json.loads(writer.communicate(timeout=60.0)[0].strip().splitlines()[-1])
        final_stats = fetch_stats(server.port)

        # Parity on the final generation: fresh uniform queries (never sent,
        # so never cached), in the same 4-query grouping on both sides.
        final_dir = Path(writes["final_artifact"])
        parity = stream.take_unseen(PARITY_ANSWERS, "parity")
        groups = [parity[i:i + LIVE_QUERIES_PER_REQUEST] for i in range(0, len(parity), LIVE_QUERIES_PER_REQUEST)]
        got = [answer for group in groups for answer in query_over_http(run, server.port, group, True)]
        oracle = InferenceEngine.from_artifact(
            load_artifact(final_dir),
            filter_index=load_filter_index(final_dir / FILTER_INDEX_DIRNAME, mmap=False),
            result_cache_size=0,
        )
        expected = [answer for group in groups for answer in oracle.query_batch(group, top_k=TOP_K, filtered=True)]
        check_answers(run, f"{PARITY_ANSWERS} answers after the final reload bit-identical to a cold engine",
                      got, expected)
        rss_mb = peak_rss_mb(server.pid)
    finally:
        if writer is not None and writer.poll() is None:
            writer.kill()
            writer.wait()
        setups.close()

    rounds = writes["rounds"]
    run.ops += len(rounds)
    run.failed_ops += sum(1 for entry in rounds if not entry["ok"])
    run.check("writer finished every round", writer.returncode == 0 and not writes["errors"],
              "; ".join(writes["errors"][:2]))
    run.check("the server serves the final generation",
              final_stats.get("artifact", {}).get("generation") == writes["final_generation"]
              and final_stats.get("reloads") == len(rounds),
              f"generation {final_stats.get('artifact', {}).get('generation')} vs {writes['final_generation']}, "
              f"{final_stats.get('reloads')} reloads vs {len(rounds)} rounds")
    staleness = [entry["staleness_s"] for entry in rounds]
    run.detail.update(
        stream_phases=stream.phases,
        rates_rps=LIVE_RATES,
        staleness_s=statistics.median(staleness) if staleness else "unmeasured (no rounds)",
        write_rounds=len(rounds),
        write_round_ms={
            step: statistics.median(entry[f"{step}_s"] for entry in rounds) * 1000.0
            for step in ("apply", "index", "finetune", "export", "reload")
        } if rounds else {},
    )
    spans = None
    if spans_dir is not None:
        spans = read_jsonl(server.spans_path) + read_jsonl(spans_dir / "writer.jsonl")
    writer_totals = {
        f"writer_{step}_s": sum(entry[f"{step}_s"] for entry in rounds)
        for step in ("apply", "index", "finetune", "export")
    }
    finish_serving(
        run, server, phases, stats_delta(stats_before, stats_after), cpu_after - cpu_before,
        setup_times, rss_mb, spans, writer_totals,
    )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("search", "train_pairwise", "serve_zipf", "serve_live"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True, help="where to write the result JSON")
    parser.add_argument("--work", required=True, help="directory for this run's files (removed by bench.py)")
    args = parser.parse_args(argv)

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    spans_dir = work / "spans" if args.trace else None
    run = Run(workload=args.workload, seed=args.seed, traced=bool(args.trace))
    if args.workload in ("search", "train_pairwise"):
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            install(tracer)
        workload = run_search if args.workload == "search" else run_train_pairwise
        workload(run, tracer)
        if tracer is not None:
            tracer.write_jsonl(work / "spans" / "workload.jsonl")
    elif args.workload == "serve_zipf":
        run_serve_zipf(run, args.seconds, work, spans_dir)
    else:
        run_serve_live(run, args.seconds, work, spans_dir)
    Path(args.result).write_text(json.dumps(run.as_result(), default=float), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
