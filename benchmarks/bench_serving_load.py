"""Serving-fleet load benchmark: QPS scaling, tail latency, shared memory.

Drives tens of thousands of mixed head/tail queries (Zipfian relation skew,
the hot-relation regime the engine's admission-gated operator cache is built
for) against the pre-forked serving fleet and reports:

* **QPS scaling vs worker count**: aggregate queries/sec at 1 and 4 workers
  (plus 2 in full mode) over the same memmap-shared artifact.  The floor is
  >=2x at 4 workers on machines with >=4 cores; on smaller machines the
  floor degrades honestly (a fork cannot outrun the core count) and the
  note says so;
* **tail latency**: per-request p50/p99 across concurrent closed-loop
  clients (fresh connection per request, so the kernel accept queue
  load-balances the fleet);
* **parity**: fleet answers over HTTP must be *bit-identical* — entity order
  and float64 scores — to the single-process in-memory oracle engine
  (canonical tie-breaking included; JSON round-trips float64 exactly);
* **shared memory**: per-worker *private* RSS increment over the pre-fork
  parent baseline must stay a small fraction of the artifact's embedding
  bytes — the embeddings are file-backed memmap pages shared through the
  OS page cache, not N copy-on-write duplicates;
* **instrumentation overhead**: the same in-process query stream timed with
  the telemetry registry enabled (``MetricsRegistry``) vs disabled
  (``NullRegistry``), alternating repeats, best-of-N — enabled must stay
  within ``OVERHEAD_CEILING`` (5%) of disabled.

Runs standalone (CI calls it with ``--quick`` and uploads
``BENCH_serving.json``)::

    PYTHONPATH=src python benchmarks/bench_serving_load.py --quick
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import signal
import sys
import tempfile
import threading
import time
from http.client import HTTPConnection
from pathlib import Path

import numpy as np

from _helpers import RESULTS_DIR, publish, write_bench_summary

from repro.analysis import format_table
from repro.kge.model import KGEModel
from repro.kge.scoring import get_scoring_function
from repro.serving import (
    EngineReloader,
    InferenceEngine,
    ServingFleet,
    export_artifact,
    load_artifact,
    wait_until_healthy,
)
from repro.obs.metrics import MetricsRegistry, NullRegistry
from repro.serving.service import process_memory_info
from repro.utils.config import TrainingConfig
from repro.utils.serialization import to_json_file

HOST = "127.0.0.1"

#: Zipf exponent for the relation popularity skew.
ZIPF_EXPONENT = 1.1

#: Worker private-RSS increment must stay under this fraction of the
#: artifact's embedding bytes (memmap sharing, not copy-on-write copies).
PRIVATE_RSS_FRACTION_FLOOR = 0.5

#: Bit-parity sample size (queries re-sent through HTTP and compared).
PARITY_QUERIES = 2000

#: Enabled-instrumentation engine time must stay within this factor of the
#: disabled (NullRegistry) time — the telemetry layer's "costs ~nothing"
#: contract, measured in-process so HTTP noise cannot mask a regression.
OVERHEAD_CEILING = 1.05

#: Alternating enabled/disabled timing repeats; best-of-N per side cancels
#: thermal and allocator drift.
OVERHEAD_REPEATS = 3

#: Pin glibc's mmap threshold so multi-MB scoring slabs are mmap'd and
#: returned to the OS on free.  Left to its dynamic default, the threshold
#: adapts upward and the per-thread malloc arenas retain ~400 MB of freed
#: slabs — pure allocator noise that would swamp the shared-memory
#: accounting this bench exists to check.  glibc only reads the variable at
#: process start, so the bench re-execs itself once; forked fleet workers
#: inherit it.  (The README deployment guide recommends the same setting
#: for production fleets with stable RSS requirements.)
MALLOC_MMAP_THRESHOLD = "131072"


def pin_malloc_threshold() -> None:
    if sys.platform != "linux" or os.environ.get("MALLOC_MMAP_THRESHOLD_"):
        return
    os.environ["MALLOC_MMAP_THRESHOLD_"] = MALLOC_MMAP_THRESHOLD
    os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:])


def scaling_floor() -> float:
    """Required QPS ratio at 4 workers vs 1, scaled to the core count.

    Four CPU-bound workers cannot beat one worker on a single core; CI and
    any >=4-core machine get the real >=2x assertion from the issue.
    """
    cores = os.cpu_count() or 1
    if cores >= 4:
        return 2.0
    if cores >= 2:
        return 1.2
    return 0.5


# ----------------------------------------------------------------------
# Synthetic artifact + workload
# ----------------------------------------------------------------------
def make_artifact(directory: Path, entities: int, relations: int, dim: int, seed: int = 0):
    """Export a deterministic synthetic ComplEx artifact; returns (path, bytes).

    Generated, not committed: ~25 MB of embeddings is what makes both the
    per-request compute (GEMM over all entities) and the shared-memory
    accounting meaningful, and a seeded build is bit-reproducible anyway.
    """
    scoring = get_scoring_function("complex")
    params = scoring.init_params(entities, relations, dim, rng=seed)
    model = KGEModel(scoring, TrainingConfig(dimension=dim, epochs=1, seed=seed), params=params)
    path = export_artifact(model, directory / "artifact")
    embedding_bytes = sum(array.nbytes for array in params.values())
    return path, embedding_bytes


def build_workload(num_queries: int, entities: int, relations: int, seed: int = 1):
    """Mixed head/tail queries, Zipfian over relations, uniform over entities."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, relations + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()
    relation_ids = rng.choice(relations, size=num_queries, p=weights)
    entity_ids = rng.integers(0, entities, size=num_queries)
    directions = rng.random(num_queries) < 0.5
    return [
        ("tail" if is_tail else "head", int(entity), int(relation))
        for is_tail, entity, relation in zip(directions, entity_ids, relation_ids)
    ]


def as_request_payload(queries, top_k: int):
    return {
        "queries": [
            {"direction": direction, "entity": entity, "relation": relation, "top_k": top_k}
            for direction, entity, relation in queries
        ]
    }


# ----------------------------------------------------------------------
# Closed-loop load driver
# ----------------------------------------------------------------------
def post_json(port: int, path: str, payload) -> dict:
    """One request on a fresh connection (per-request fleet load balancing)."""
    connection = HTTPConnection(HOST, port, timeout=60.0)
    try:
        body = json.dumps(payload).encode("utf-8")
        connection.request("POST", path, body=body, headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        decoded = json.loads(response.read())
        if response.status != 200:
            raise RuntimeError(f"HTTP {response.status}: {decoded.get('error')}")
        return decoded
    finally:
        connection.close()


def drive_load(port: int, requests, threads: int):
    """Closed-loop clients drain the request queue; returns (wall_s, latencies)."""
    work: "queue.SimpleQueue" = queue.SimpleQueue()
    for payload in requests:
        work.put(payload)
    latencies: list = []
    errors: list = []
    lock = threading.Lock()

    def client() -> None:
        while True:
            try:
                payload = work.get_nowait()
            except queue.Empty:
                return
            started = time.perf_counter()
            try:
                post_json(port, "/query", payload)
            except Exception as error:  # noqa: BLE001 - surfaced after the run
                with lock:
                    errors.append(error)
                return
            with lock:
                latencies.append(time.perf_counter() - started)

    workers = [threading.Thread(target=client) for _ in range(threads)]
    started = time.perf_counter()
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    wall_s = time.perf_counter() - started
    if errors:
        raise RuntimeError(f"{len(errors)} failed requests; first: {errors[0]}")
    return wall_s, latencies


def pid_private_bytes(pid: int) -> int:
    """Private (resident minus shared) bytes of another process, via /proc."""
    fields = Path(f"/proc/{pid}/statm").read_text(encoding="ascii").split()
    page_size = os.sysconf("SC_PAGE_SIZE")
    return max(0, (int(fields[1]) - int(fields[2])) * page_size)


# ----------------------------------------------------------------------
# One fleet measurement point
# ----------------------------------------------------------------------
def run_fleet_point(
    artifact_dir: Path,
    workers: int,
    requests,
    threads: int,
    num_queries: int,
    window_ms: float,
    parent_private_baseline: int,
):
    fleet = ServingFleet(
        EngineReloader(
            artifact_dir,
            micro_batch_window_s=window_ms / 1000.0,
            # Keep the transient score slab (batch x entities float64) small so
            # per-worker private RSS reflects artifact sharing, not scratch space.
            batch_size=32,
        ),
        host=HOST,
        port=0,
        workers=workers,
    )
    port = fleet.start()
    try:
        wait_until_healthy(HOST, port, timeout_s=30.0)
        # Warmup: fault in memmap pages, admit the hot operators.
        for payload in requests[: max(threads, 2 * workers)]:
            post_json(port, "/query", payload)
        wall_s, latencies = drive_load(port, requests, threads)
        worker_private = [
            pid_private_bytes(pid) - parent_private_baseline
            for pid in fleet.worker_pids
        ]
    finally:
        fleet.terminate(signal.SIGTERM)
        exit_status = fleet.wait()
        fleet.close()
    if exit_status != 0:
        raise RuntimeError(f"fleet worker exited with status {exit_status}")
    ordered = np.sort(latencies)
    return {
        "workers": workers,
        "qps": num_queries / wall_s,
        "p50_ms": float(ordered[int(0.50 * (len(ordered) - 1))]) * 1000.0,
        "p99_ms": float(ordered[int(0.99 * (len(ordered) - 1))]) * 1000.0,
        "requests": len(latencies),
        "max_worker_private_mb": max(worker_private) / 2**20,
    }


def check_http_parity(artifact_dir: Path, workload, top_k: int) -> int:
    """Fleet-over-HTTP answers must be bit-identical to the in-memory oracle.

    Floating-point scores depend on the GEMM group shape, so the oracle must
    see the queries in the same per-request chunks the workers do, and both
    sides run with the result cache off (a cache replays a score computed
    under an *earlier* request's grouping — fine for serving, but it would
    make "bit-identical" depend on which worker saw the duplicate first).
    """
    sample = workload[:PARITY_QUERIES]
    chunk = 200
    oracle = InferenceEngine.from_artifact(
        load_artifact(artifact_dir), result_cache_size=0
    )
    expected = []
    for start in range(0, len(sample), chunk):
        expected.extend(oracle.query_batch(sample[start : start + chunk], top_k=top_k))
    fleet = ServingFleet(
        EngineReloader(artifact_dir, result_cache_size=0),
        host=HOST,
        port=0,
        workers=2,
    )
    port = fleet.start()
    try:
        wait_until_healthy(HOST, port, timeout_s=30.0)
        answers = []
        for start in range(0, len(sample), chunk):
            payload = as_request_payload(sample[start : start + chunk], top_k)
            for response in post_json(port, "/query", payload)["responses"]:
                answers.append([(p["entity"], p["score"]) for p in response["predictions"]])
    finally:
        fleet.terminate(signal.SIGTERM)
        fleet.wait()
        fleet.close()
    for index, (got, reference) in enumerate(zip(answers, expected)):
        if got != [(entity, score) for entity, score in reference]:
            raise AssertionError(
                f"fleet answer for query {index} {sample[index]} diverged from "
                f"the in-memory oracle: {got[:3]}... vs {list(reference)[:3]}..."
            )
    return len(sample)


def measure_instrumentation_overhead(artifact_dir: Path, workload, top_k: int) -> dict:
    """Best-of-N engine time with the metrics registry enabled vs disabled.

    Runs in-process (no HTTP, no fleet) so the measurement isolates exactly
    what the telemetry layer adds per query: two counter increments and one
    histogram observation per engine batch.  Repeats alternate
    disabled/enabled so drift hits both sides equally; best-of-N per side is
    the standard low-noise estimator for a deterministic workload.
    """
    artifact = load_artifact(artifact_dir)
    sample = workload[: min(len(workload), 2000)]
    chunk = 64

    def timed(registry) -> float:
        # Fresh engine per repeat: identical cold caches on both sides, and
        # the registry binds at construction time like in the fleet workers.
        engine = InferenceEngine.from_artifact(
            artifact, result_cache_size=0, registry=registry
        )
        engine.query_batch(sample[:chunk], top_k=top_k)  # warmup
        started = time.perf_counter()
        for start in range(0, len(sample), chunk):
            engine.query_batch(sample[start : start + chunk], top_k=top_k)
        return time.perf_counter() - started

    disabled_times, enabled_times = [], []
    for _ in range(OVERHEAD_REPEATS):
        disabled_times.append(timed(NullRegistry()))
        enabled_times.append(timed(MetricsRegistry()))
    disabled_s = min(disabled_times)
    enabled_s = min(enabled_times)
    return {
        "queries": len(sample),
        "disabled_s": disabled_s,
        "enabled_s": enabled_s,
        "overhead_ratio": enabled_s / disabled_s,
        "overhead_ceiling": OVERHEAD_CEILING,
    }


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------
def build_report(quick: bool) -> tuple:
    entities = 96_000 if quick else 192_000
    relations = 64
    dim = 64
    num_queries = 8_000 if quick else 24_000
    batch = 32
    threads = 8
    window_ms = 2.0
    worker_counts = [1, 4] if quick else [1, 2, 4]

    workload = build_workload(num_queries, entities, relations)
    requests = [
        as_request_payload(workload[start : start + batch], 10)
        for start in range(0, num_queries, batch)
    ]

    with tempfile.TemporaryDirectory(prefix="bench_serving_") as scratch:
        artifact_dir, embedding_bytes = make_artifact(
            Path(scratch), entities, relations, dim
        )
        parity_checked = check_http_parity(artifact_dir, workload, top_k=10)
        overhead = measure_instrumentation_overhead(artifact_dir, workload, top_k=10)
        parent_private = process_memory_info().get("private_bytes", 0)
        points = [
            run_fleet_point(
                artifact_dir,
                workers,
                requests,
                threads,
                num_queries,
                window_ms,
                parent_private,
            )
            for workers in worker_counts
        ]

    by_workers = {point["workers"]: point for point in points}
    scaling = by_workers[max(worker_counts)]["qps"] / by_workers[1]["qps"]
    private_fraction = max(point["max_worker_private_mb"] for point in points) * 2**20 / embedding_bytes
    table = format_table(
        points,
        title=f"Serving fleet load (E={entities}, R={relations}, d={dim}, "
        f"{num_queries} queries x {batch}/request, {threads} clients, "
        f"{os.cpu_count()} core(s))",
    )
    note = (
        f"QPS x{scaling:.2f} at {max(worker_counts)} workers vs 1; "
        f"{parity_checked} HTTP answers bit-identical to the in-memory oracle; "
        f"worst per-worker private-RSS increment "
        f"{max(p['max_worker_private_mb'] for p in points):.1f} MB "
        f"({100 * private_fraction:.0f}% of {embedding_bytes / 2**20:.1f} MB embeddings); "
        f"instrumentation overhead x{overhead['overhead_ratio']:.3f} "
        f"(ceiling x{OVERHEAD_CEILING})"
    )
    data = {
        "entities": entities,
        "relations": relations,
        "dimension": dim,
        "queries": num_queries,
        "batch_per_request": batch,
        "client_threads": threads,
        "micro_batch_window_ms": window_ms,
        "cores": os.cpu_count(),
        "quick": quick,
        "points": points,
        "scaling": scaling,
        "scaling_workers": max(worker_counts),
        "scaling_floor": scaling_floor(),
        "parity_queries": parity_checked,
        "embedding_mb": embedding_bytes / 2**20,
        "private_rss_fraction": private_fraction,
        "instrumentation_overhead": overhead,
    }
    return table + "\n" + note, data


def main(argv=None) -> int:
    pin_malloc_threshold()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: smaller artifact and workload (still checks "
        "bit-parity, QPS scaling, and shared-memory accounting)",
    )
    args = parser.parse_args(argv)

    text, data = build_report(quick=args.quick)
    publish("serving_load", text)
    to_json_file(data, RESULTS_DIR / "serving_load.json")
    write_bench_summary(
        "serving",
        config={
            key: data[key]
            for key in (
                "quick", "entities", "relations", "dimension", "queries",
                "batch_per_request", "client_threads", "micro_batch_window_ms", "cores",
            )
        },
        metrics={
            "qps_by_workers": {str(p["workers"]): p["qps"] for p in data["points"]},
            "p50_ms_by_workers": {str(p["workers"]): p["p50_ms"] for p in data["points"]},
            "p99_ms_by_workers": {str(p["workers"]): p["p99_ms"] for p in data["points"]},
            "scaling": data["scaling"],
            "scaling_floor": data["scaling_floor"],
            "parity_queries": data["parity_queries"],
            "embedding_mb": data["embedding_mb"],
            "private_rss_fraction": data["private_rss_fraction"],
            "instrumentation_overhead_ratio": data["instrumentation_overhead"]["overhead_ratio"],
            "instrumentation_overhead_ceiling": OVERHEAD_CEILING,
        },
    )

    floor = data["scaling_floor"]
    if data["scaling"] < floor:
        print(
            f"FAIL: QPS scaling x{data['scaling']:.2f} at "
            f"{data['scaling_workers']} workers below the x{floor} floor "
            f"({data['cores']} core(s))"
        )
        return 1
    if data["private_rss_fraction"] >= PRIVATE_RSS_FRACTION_FLOOR:
        print(
            f"FAIL: per-worker private RSS is "
            f"{100 * data['private_rss_fraction']:.0f}% of the embedding bytes "
            f"(floor {100 * PRIVATE_RSS_FRACTION_FLOOR:.0f}%) — the artifact is "
            f"being copied, not shared"
        )
        return 1
    overhead = data["instrumentation_overhead"]
    if overhead["overhead_ratio"] > OVERHEAD_CEILING:
        print(
            f"FAIL: enabled instrumentation is x{overhead['overhead_ratio']:.3f} "
            f"of the disabled engine time over {overhead['queries']} queries "
            f"(ceiling x{OVERHEAD_CEILING}) — the telemetry layer is no longer "
            f"near-free"
        )
        return 1
    degraded = "" if (os.cpu_count() or 1) >= 4 else (
        f" [floor degraded to x{floor} on {os.cpu_count()} core(s)]"
    )
    print(
        f"OK: x{data['scaling']:.2f} QPS at {data['scaling_workers']} workers{degraded}, "
        f"{data['parity_queries']} answers bit-identical to the oracle, workers share "
        f"the {data['embedding_mb']:.1f} MB embeddings via memmap "
        f"({100 * data['private_rss_fraction']:.0f}% private), instrumentation "
        f"overhead x{overhead['overhead_ratio']:.3f} <= x{OVERHEAD_CEILING}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
