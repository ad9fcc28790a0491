"""Speedup claims that no end-to-end workload measures.

``benchmarks/e2e`` gates what a user waits for (search, training, serving).
This script keeps the kernel-level speedups that bench does not reach, each
timed against the slower path it replaced:

* filtered ranking: vectorized ``compute_ranks`` vs ``compute_ranks_reference``,
  the median of paired calls;
* ingestion: ``ingest_tsv`` vs the line-by-line ``load_tsv_dataset``;
* epoch iteration: ``TripleStream`` vs a global permutation plus gather;
* chunked multi-class training: the engine with ``score_chunk_size`` vs
  ``ReferenceTrainEngine``, with the tracemalloc peaks chunking bounds;
* fault-free pairwise steps: entity-table pages per minor page fault of a
  steady-state step of the e2e ``train_pairwise`` recipe, which reuses the
  fit's workspace instead of allocating its temporaries every step;
* serving telemetry: engine throughput with ``MetricsRegistry`` vs
  ``NullRegistry`` (at most 5% slower);
* concurrent engine reads: two caller threads on one engine at the e2e
  ``serve_live`` shape with one BLAS thread, vs the same engine behind one
  lock, on a machine with at least 2 cores;
* fleet scaling: QPS at 4 workers vs 1, on a machine with at least 4 cores;
* parallel search: the e2e greedy-search recipe on ``--backend process`` with
  2 workers vs serial, on a machine with at least 2 cores and one BLAS
  thread per process, with both sides' peak RSS and a bit-parity check of
  their any-time curves.

Timings that take milliseconds are paired: the two sides run back to back in
alternating order, many times, and the claim is the median ratio, so drift
and a stall on a shared machine hit one pair instead of one side.

Run it from the repository root; it takes no flags::

    PYTHONPATH=src python benchmarks/bench_speedups.py

It writes ``BENCH_speedups.json`` at the repository root: the revision, the
environment (cores, Python, numpy and its BLAS, and the BLAS/OpenMP thread
variables, recorded but obeyed only by the search and concurrent-read claims,
which set them to 1 for their own processes) and one ``{value, floor, verdict}``
record per claim, with the timings behind it.  Every value is a ratio where
higher is better.  A verdict is ``pass``, ``fail`` or ``unmeasured
(<premise>)`` when the machine cannot meet the claim's premise.  The exit
status is 1 if any claim fails.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import subprocess
import tempfile
import threading
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from http.client import HTTPConnection
from pathlib import Path

import numpy as np

from repro.analysis import format_table
from repro.datasets import (
    FilterIndex,
    GeneratorProfile,
    TripleStream,
    generate_knowledge_graph,
    generate_streaming_store,
    ingest_tsv,
    load_benchmark,
    load_tsv_dataset,
)
from repro.datasets.statistics import RelationPattern
from repro.experiments import BackendSpec, DatasetSpec, ExperimentSpec, SearchLoop, SearchSpec
from repro.kge.engine import ReferenceTrainEngine
from repro.kge.evaluation import compute_ranks, compute_ranks_reference
from repro.kge.model import KGEModel
from repro.kge.scoring import get_scoring_function
from repro.kge.scoring.bilinear import BlockScoringFunction
from repro.kge.scoring.blocks import BlockStructure, classical_structure
from repro.kge.trainer import Trainer
from repro.obs.metrics import MetricsRegistry, NullRegistry
from repro.serving import (
    EngineReloader,
    InferenceEngine,
    ServingFleet,
    export_artifact,
    load_artifact,
    wait_until_healthy,
)
from repro.utils import blas
from repro.utils.config import PredictorConfig, TrainingConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_speedups.json"
HOST = "127.0.0.1"

#: Thread variables of the common BLAS and OpenMP runtimes (recorded only).
THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

#: Per-candidate training setup of the search benchmarks.
TRAINING = TrainingConfig(
    dimension=16, epochs=8, batch_size=256, learning_rate=0.5, l2_penalty=1e-4, seed=0
)

#: A representative 6-block structure (the search trains mostly 4-6 block SFs).
SIX_BLOCKS = BlockStructure(
    [(0, 0, 0, 1), (1, 1, 1, 1), (2, 3, 2, 1), (3, 2, 2, -1), (0, 1, 3, 1), (1, 0, 3, -1)],
    name="six-blocks",
)


def best_of(repeats: int, slow, fast) -> tuple:
    """Lowest wall-clock seconds of ``slow()`` and of ``fast()`` over ``repeats``
    alternating calls, so drift on a shared machine hits both sides alike."""
    best = [float("inf"), float("inf")]
    for _ in range(repeats):
        for side, function in enumerate((slow, fast)):
            started = time.perf_counter()
            function()
            best[side] = min(best[side], time.perf_counter() - started)
    return tuple(best)


def paired_ratios(pairs: int, slow, fast) -> tuple:
    """Seconds of ``slow(pair)`` over seconds of ``fast(pair)`` for each pair,
    the two run back to back in alternating order, plus each side's total."""
    ratios, totals = [], [0.0, 0.0]
    for pair in range(pairs):
        seconds = [0.0, 0.0]
        for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
            started = time.perf_counter()
            (slow, fast)[side](pair)
            seconds[side] = time.perf_counter() - started
            totals[side] += seconds[side]
        ratios.append(seconds[0] / seconds[1])
    return ratios, totals


def quartiles(ratios) -> list:
    return np.percentile(ratios, [25, 50, 75]).tolist()


# ----------------------------------------------------------------------
# Claims: each returns (value, floor, details)
# ----------------------------------------------------------------------
def ranking_claim():
    graph = load_benchmark("yago310", scale=1.0)
    scoring = BlockScoringFunction(classical_structure("simple"))
    params, _ = Trainer(scoring, TRAINING.replace(epochs=2)).fit(graph)
    compute_ranks(scoring, params, graph)  # warm
    ratios, totals = paired_ratios(
        21,
        lambda _pair: compute_ranks_reference(scoring, params, graph),
        lambda _pair: compute_ranks(scoring, params, graph),
    )
    spread = quartiles(ratios)
    details = {"benchmark": graph.name, "entities": graph.num_entities,
               "queries": 2 * graph.num_test, "paired_calls": len(ratios),
               "ratio_quartiles": spread, "scalar_s": totals[0], "vectorized_s": totals[1]}
    return spread[1], 3.0, details


def write_synthetic_tsv(directory: Path, num_train: int) -> None:
    """A duplicate-free synthetic benchmark in the standard TSV layout."""
    rng = np.random.default_rng(0)
    entities, relations = 8000, 40
    for file_name, count in (("train.txt", num_train), ("valid.txt", num_train // 10),
                             ("test.txt", num_train // 10)):
        codes = np.unique(rng.integers(0, entities * relations * entities, size=int(count * 1.3)))
        rng.shuffle(codes)
        codes = codes[:count]
        lines = [
            f"/m/entity_{h:05d}\t/rel/relation_{r:02d}\t/m/entity_{t:05d}"
            for h, r, t in zip(codes // (entities * relations), (codes // entities) % relations,
                               codes % entities)
        ]
        (directory / file_name).write_text("\n".join(lines) + "\n", encoding="utf-8")


def ingest_claim(work: Path):
    tsv = work / "tsv"
    tsv.mkdir()
    write_synthetic_tsv(tsv, 150_000)

    def ingest():
        shutil.rmtree(work / "ingested", ignore_errors=True)
        ingest_tsv(tsv, work / "ingested")

    seed, pipeline = best_of(2, lambda: load_tsv_dataset(tsv), ingest)
    details = {"train_triples": 150_000, "seed_loader_s": seed, "ingest_s": pipeline}
    return seed / pipeline, 1.05, details


def stream_claim(work: Path):
    store = generate_streaming_store(
        work / "store", num_entities=20_000, num_relations=48, num_triples=2_000_000,
        valid_fraction=0.01, test_fraction=0.01, seed=0,
    )
    train = store.load_split("train")
    stream = TripleStream(store, "train", batch_size=512, seed=0)
    rng = np.random.default_rng(0)

    def seed_epoch():  # what Trainer.fit does on an in-memory array
        order = rng.permutation(train.shape[0])
        for begin in range(0, train.shape[0], 512):
            train[order[begin:begin + 512]]

    epochs = iter(range(5))

    def stream_epoch():
        for _batch in stream.epoch(next(epochs)):
            pass

    seed, streamed = best_of(5, seed_epoch, stream_epoch)
    details = {"train_triples": int(train.shape[0]), "shards": store.num_shards("train"),
               "seed_epoch_s": seed, "stream_epoch_s": streamed}
    return seed / streamed, 2.0, details


def chunked_training_claim():
    graph = load_benchmark("yago310", scale=1.0)
    chunked = TRAINING.replace(score_chunk_size=128)

    def fit(structure, config, engine=None):
        Trainer(BlockScoringFunction(structure), config, engine=engine).fit(graph)

    rows = {}
    for structure in (classical_structure("simple"), SIX_BLOCKS):
        reference, engine = best_of(
            3,
            lambda: fit(structure, TRAINING, ReferenceTrainEngine()),
            lambda: fit(structure, chunked),
        )
        rows[structure.name] = {"reference_s": reference, "chunked_128_s": engine,
                                "speedup": reference / engine}
    peaks = {}
    for label, chunk in (("unchunked", 0), ("chunk_128", 128)):
        tracemalloc.start()
        fit(SIX_BLOCKS, TRAINING.replace(epochs=1, score_chunk_size=chunk))
        peaks[label] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    value = min(row["speedup"] for row in rows.values())
    return value, 2.0, {"benchmark": graph.name, "structures": rows, "peak_traced_bytes": peaks}


# ----------------------------------------------------------------------
# Page faults of the pairwise step: the e2e train_pairwise recipe
# (benchmarks/e2e/workloads.py), SimplE with a logistic loss at 10k entities
# ----------------------------------------------------------------------
PAIRWISE_ENTITIES = 10_000
PAIRWISE_TRAINING = dict(dimension=32, epochs=3, batch_size=128, learning_rate=0.5,
                         l2_penalty=1e-4, loss="logistic", negative_samples=8)


def pairwise_faults_claim():
    profile = GeneratorProfile(
        name="e2e-pairwise", num_entities=PAIRWISE_ENTITIES, num_clusters=20,
        relation_counts={RelationPattern.SYMMETRIC: 3, RelationPattern.ANTI_SYMMETRIC: 3,
                         RelationPattern.INVERSE: 4, RelationPattern.GENERAL: 10},
        triples_per_relation=500, seed=0,
    )
    graph = generate_knowledge_graph(profile)
    config = TrainingConfig(seed=0, **PAIRWISE_TRAINING)
    trainer = Trainer(BlockScoringFunction(classical_structure("simple")), config)
    faults = []
    step = trainer.train_step

    def counted_step(params, batch):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        value = step(params, batch)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        return value

    trainer.train_step = counted_step
    started = time.perf_counter()
    trainer.fit(graph)
    fit_s = time.perf_counter() - started
    if sum(faults) == 0:  # the counter is not kept on this platform
        return None, 1.0, {"premise": "no ru_minflt"}
    # Steady state: every epoch after the first, whose steps size the buffers.
    steady = faults[len(faults) // config.epochs:]
    per_step = sum(steady) / len(steady)
    pages = PAIRWISE_ENTITIES * config.dimension * 8 / resource.getpagesize()
    details = {"entities": PAIRWISE_ENTITIES, "entity_table_pages": pages,
               "steps": len(faults), "steady_steps": len(steady),
               "faults_per_steady_step": per_step, "first_epoch_faults": sum(faults) - sum(steady),
               "fit_s": fit_s}
    # Fewer than one fault per step reads as one, so the value stays finite.
    return pages / max(per_step, 1.0), 1.0, details


# ----------------------------------------------------------------------
# Serving claims: a seeded 96k-entity ComplEx artifact, Zipf queries
# ----------------------------------------------------------------------
def serving_artifact(work: Path) -> Path:
    scoring = get_scoring_function("complex")
    params = scoring.init_params(96_000, 64, 64, rng=0)
    model = KGEModel(scoring, TrainingConfig(dimension=64, epochs=1, seed=0), params=params)
    return export_artifact(model, work / "artifact")


def zipf_queries(count: int):
    rng = np.random.default_rng(1)
    weights = 1.0 / np.arange(1, 65) ** 1.1
    relations = rng.choice(64, size=count, p=weights / weights.sum())
    entities = rng.integers(0, 96_000, size=count)
    tails = rng.random(count) < 0.5
    return [("tail" if tail else "head", int(entity), int(relation))
            for tail, entity, relation in zip(tails, entities, relations)]


def telemetry_claim(artifact_dir: Path):
    artifact = load_artifact(artifact_dir)
    queries = zipf_queries(2000)
    batches = [queries[begin:begin + 64] for begin in range(0, len(queries), 64)]
    # One engine per side, each warmed on the first batch.  Each batch then
    # runs on both engines back to back, in alternating order, and the claim
    # is the median of those paired ratios: drift and a stall on a shared
    # machine hit one pair, not one side of a seconds-long run.
    disabled, enabled = engines = [
        InferenceEngine.from_artifact(artifact, result_cache_size=0, registry=registry)
        for registry in (NullRegistry(), MetricsRegistry())
    ]
    for engine in engines:
        engine.query_batch(batches[0], top_k=10)
    ratios, totals = paired_ratios(
        3 * len(batches),
        lambda pair: disabled.query_batch(batches[pair % len(batches)], top_k=10),
        lambda pair: enabled.query_batch(batches[pair % len(batches)], top_k=10),
    )
    spread = quartiles(ratios)
    details = {"queries": len(queries), "paired_batches": len(ratios),
               "ratio_quartiles": spread, "disabled_s": totals[0], "enabled_s": totals[1]}
    return spread[1], 1 / 1.05, details


def fleet_qps(artifact_dir: Path, workers: int, payloads) -> float:
    """Closed-loop QPS of 8 clients, each request on a fresh connection."""
    fleet = ServingFleet(
        EngineReloader(artifact_dir, micro_batch=True, batch_size=32),
        host=HOST, port=0, workers=workers,
    )
    port = fleet.start()

    def post(body: bytes) -> None:
        connection = HTTPConnection(HOST, port, timeout=60.0)
        try:
            connection.request("POST", "/query", body=body)
            response = connection.getresponse()
            response.read()
            if response.status != 200:
                raise RuntimeError(f"HTTP {response.status}")
        finally:
            connection.close()

    try:
        wait_until_healthy(HOST, port, timeout_s=30.0)
        for body in payloads[:8]:  # fault in the memmap pages
            post(body)
        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=8) as clients:
            list(clients.map(post, payloads))
        elapsed = time.perf_counter() - started
    finally:
        fleet.terminate(signal.SIGTERM)
        status = fleet.wait()
        fleet.close()
    if status != 0:
        raise RuntimeError(f"a fleet worker exited with status {status}")
    return 32 * len(payloads) / elapsed


def fleet_claim(artifact_dir: Path):
    if (os.cpu_count() or 1) < 4:
        return None, 2.0, {"premise": "<4 cores"}
    queries = zipf_queries(8000)
    payloads = [
        json.dumps({"queries": [
            {"direction": d, "entity": e, "relation": r, "top_k": 10}
            for d, e, r in queries[begin:begin + 32]
        ]}).encode("utf-8")
        for begin in range(0, len(queries), 32)
    ]
    qps = {workers: fleet_qps(artifact_dir, workers, payloads) for workers in (1, 4)}
    return qps[4] / qps[1], 2.0, {"qps_by_workers": qps}


# ----------------------------------------------------------------------
# Concurrent engine reads: the e2e serve_live shape (benchmarks/e2e/workloads.py),
# ComplEx at 50k entities x 64 with 200k known positives, 4-query filtered calls
# ----------------------------------------------------------------------
LIVE_ENTITIES, LIVE_RELATIONS, LIVE_DIMENSION, LIVE_TRIPLES = 50_000, 64, 64, 200_000
LIVE_CALLERS, LIVE_CALLS_PER_CALLER, LIVE_QUERIES_PER_CALL = 2, 25, 4


class SerializedEngine:
    """An engine behind one lock, as it served before it had scoring slots."""

    def __init__(self, engine: InferenceEngine) -> None:
        self.engine = engine
        self._lock = threading.Lock()

    def query_batch(self, queries, top_k=10, filtered=False):
        with self._lock:
            return self.engine.query_batch(queries, top_k=top_k, filtered=filtered)


def live_engine() -> InferenceEngine:
    scoring = get_scoring_function("complex")
    params = scoring.init_params(LIVE_ENTITIES, LIVE_RELATIONS, LIVE_DIMENSION, rng=0)
    rng = np.random.default_rng(0)
    known = np.stack([rng.integers(0, size, LIVE_TRIPLES)
                      for size in (LIVE_ENTITIES, LIVE_RELATIONS, LIVE_ENTITIES)], axis=1)
    return InferenceEngine(scoring, params, filter_index=FilterIndex.build(known, LIVE_RELATIONS))


def live_rounds(count: int) -> list:
    """``count`` rounds of calls, one list of 4-query calls per caller; no
    query repeats, so no call is a result-cache hit."""
    calls_per_round = LIVE_CALLERS * LIVE_CALLS_PER_CALLER
    rng = np.random.default_rng(1)
    codes = rng.choice(2 * LIVE_RELATIONS * LIVE_ENTITIES,
                       size=count * calls_per_round * LIVE_QUERIES_PER_CALL, replace=False)
    queries = [("tail" if code % 2 else "head", int(code // 2 % LIVE_ENTITIES),
                int(code // 2 // LIVE_ENTITIES)) for code in codes]
    calls = [queries[begin:begin + LIVE_QUERIES_PER_CALL]
             for begin in range(0, len(queries), LIVE_QUERIES_PER_CALL)]
    return [[calls[start + caller:start + calls_per_round:LIVE_CALLERS]
             for caller in range(LIVE_CALLERS)]
            for start in range(0, len(calls), calls_per_round)]


def run_callers(engine, callers) -> None:
    """Each caller's calls on its own thread, all started together."""

    def caller(calls):
        for queries in calls:
            engine.query_batch(queries, top_k=10, filtered=True)

    threads = [threading.Thread(target=caller, args=(calls,)) for calls in callers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def concurrency_claim():
    if blas.available_cpus() < 2:
        return None, 1.5, {"premise": "<2 cores"}
    engine = live_engine()
    serialized = SerializedEngine(engine)
    pairs = 15
    rounds = live_rounds(2 * pairs + 2)
    run_callers(serialized, rounds.pop())  # warm both paths
    run_callers(engine, rounds.pop())
    ratios, totals = paired_ratios(
        pairs,
        lambda pair: run_callers(serialized, rounds[2 * pair]),
        lambda pair: run_callers(engine, rounds[2 * pair + 1]),
    )
    spread = quartiles(ratios)
    calls = pairs * LIVE_CALLERS * LIVE_CALLS_PER_CALLER
    details = {"entities": LIVE_ENTITIES, "callers": LIVE_CALLERS,
               "queries_per_call": LIVE_QUERIES_PER_CALL, "paired_rounds": pairs,
               "blas_threads": blas.blas_threads(), "scoring_slots": engine.scoring_slots,
               "ratio_quartiles": spread,
               "serialized_calls_per_s": calls / totals[0],
               "concurrent_calls_per_s": calls / totals[1]}
    return spread[1], 1.5, details


# ----------------------------------------------------------------------
# Parallel search: the e2e search recipe (benchmarks/e2e/workloads.py) on
# yago310-mini with a smaller budget
# ----------------------------------------------------------------------
SEARCH_BUDGET = 12
SEARCH_TRAINING = dict(dimension=32, epochs=16, batch_size=256, learning_rate=0.5, l2_penalty=1e-4)
SEARCH_SPACE = dict(max_blocks=10, candidates_per_step=32, top_parents=4, train_per_step=6)


def search_run(backend: str) -> dict:
    """One search on ``backend``: wall seconds, any-time curve, peak RSS of
    this process and of its largest reaped child (a search worker)."""
    spec = ExperimentSpec(
        name="bench-search",
        seed=0,
        dataset=DatasetSpec(benchmark="yago310", scale=1.0),
        training=TrainingConfig(seed=0, **SEARCH_TRAINING),
        search=SearchSpec(strategy="greedy", budget=SEARCH_BUDGET, **SEARCH_SPACE),
        predictor=PredictorConfig(epochs=100),
        backend=BackendSpec(backend=backend, num_workers=2 if backend == "process" else 1),
    )
    loop = SearchLoop.from_spec(spec, load_benchmark("yago310", scale=1.0))
    started = time.perf_counter()
    result = loop.run(max_evaluations=SEARCH_BUDGET)
    seconds = time.perf_counter() - started
    kib = {who: resource.getrusage(who).ru_maxrss
           for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)}
    return {"seconds": seconds, "curve": result.anytime_curve(),
            "peak_rss_mb": kib[resource.RUSAGE_SELF] / 1024,
            "worker_peak_rss_mb": kib[resource.RUSAGE_CHILDREN] / 1024}


def search_claim():
    if (os.cpu_count() or 1) < 2:
        return None, 1.3, {"premise": "<2 cores"}
    runs = {"serial": [], "process": []}
    for _ in range(2):  # alternate, so drift hits both sides alike
        for backend, sides in runs.items():
            sides.append(in_fresh_process(search_run, backend))
    curves = {tuple(run.pop("curve")) for sides in runs.values() for run in sides}
    if len(curves) != 1:
        raise RuntimeError("process search diverged from serial: any-time curves differ")
    best = {backend: min(sides, key=lambda run: run["seconds"])
            for backend, sides in runs.items()}
    details = {"budget": SEARCH_BUDGET, "workers": 2, "blas_threads": 1, "runs": runs,
               "serial_s": best["serial"]["seconds"], "process_s": best["process"]["seconds"],
               "serial_peak_rss_mb": max(run["peak_rss_mb"] for run in runs["serial"]),
               "process_peak_rss_mb": max(run["peak_rss_mb"] for run in runs["process"]),
               "process_worker_peak_rss_mb": max(run["worker_peak_rss_mb"]
                                                 for run in runs["process"])}
    return best["serial"]["seconds"] / best["process"]["seconds"], 1.3, details


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def revision() -> str:
    try:
        completed = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip() or "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "thread_variables": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def in_fresh_process(function, *args):
    """``function(*args)`` in a new interpreter, which may start worker
    processes of its own (a ``multiprocessing.Pool`` worker may not)."""
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        return pool.submit(function, *args).result()


@contextmanager
def one_blas_thread():
    """Processes started inside run one BLAS thread each: N processes (or N
    scoring threads) with a multi-threaded BLAS each oversubscribe N cores."""
    saved = {name: os.environ.get(name) for name in THREAD_VARIABLES}
    os.environ.update({name: "1" for name in THREAD_VARIABLES})
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def record(claim, *args) -> dict:
    """Run one claim in a fresh interpreter and grade it.

    A fresh process per claim, as each claim had when it was set: the
    allocator state earlier claims leave behind moves these sub-second
    timings by a third.
    """
    value, floor, details = in_fresh_process(claim, *args)
    if value is None:
        verdict = f"unmeasured ({details['premise']})"
    else:
        verdict = "pass" if value >= floor else "fail"
    return {"value": value, "floor": floor, "verdict": verdict, "details": details}


def main() -> int:
    claims = {}
    work = Path(tempfile.mkdtemp(prefix="bench-speedups-"))
    try:
        claims["ranking.vectorized_vs_scalar"] = record(ranking_claim)
        claims["dataset.ingest_vs_line_loader"] = record(ingest_claim, work)
        claims["dataset.stream_epoch_vs_permutation"] = record(stream_claim, work)
        claims["training.chunked_multiclass_vs_reference"] = record(chunked_training_claim)
        claims["training.pairwise_faults_per_step"] = record(pairwise_faults_claim)
        artifact_dir = serving_artifact(work)
        claims["serving.metrics_on_vs_off_throughput"] = record(telemetry_claim, artifact_dir)
        claims["serving.fleet_qps_4_vs_1_workers"] = record(fleet_claim, artifact_dir)
        with one_blas_thread():
            claims["serving.concurrent_vs_serialized_engine"] = record(concurrency_claim)
            claims["search.process_vs_serial"] = record(search_claim)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    OUTPUT.write_text(
        json.dumps({"revision": revision(), "environment": environment(), "claims": claims},
                   indent=2) + "\n",
        encoding="utf-8",
    )
    rows = [
        {"claim": name, "value": claim["value"] if claim["value"] is not None else "-",
         "floor": claim["floor"], "verdict": claim["verdict"]}
        for name, claim in claims.items()
    ]
    print(format_table(rows, title=f"Speedup claims ({os.cpu_count()} cores) -> {OUTPUT.name}"))
    return 1 if any(claim["verdict"] == "fail" for claim in claims.values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
