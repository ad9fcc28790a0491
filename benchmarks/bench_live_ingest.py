"""Live-ingest benchmark: mutate, fine-tune, and hot-swap while serving.

Exercises the full ``repro.live`` loop against a running serving fleet:

* **sustained ingest-while-serving**: rounds of
  ``TripleStore.apply_delta`` → ``finetune_delta`` (warm-started, sparse,
  delta-touched rows only) → ``export_artifact --generation N`` →
  atomic symlink flip → ``ServingFleet.signal_reload()`` (SIGHUP), while
  closed-loop clients hammer ``POST /query`` the whole time.  Reports
  delta triples/s through the pipeline and the query throughput the fleet
  kept up alongside it;
* **staleness-to-freshness latency**: per round, the wall time from the
  moment the new generation is published (symlink flipped, SIGHUP sent)
  to the first ``/stats`` response served from it.  ``--quick`` asserts
  the worst round stays under ``STALENESS_CEILING_S``;
* **zero dropped requests**: every query sent during the swaps must come
  back HTTP 200 — the atomic engine-mount flip means there is no window
  where a worker answers from a half-built engine or refuses;
* **reload bit-parity**: after the final swap the fleet's HTTP answers
  must be bit-identical — entity order and float64 scores — to a
  cold-started in-memory engine on the final artifact;
* **NullRegistry parity**: the same delta → compact → fine-tune pipeline
  run with telemetry enabled (``MetricsRegistry``) and disabled
  (``NullRegistry``) must produce byte-identical stores and parameters —
  instrumentation observes the live path, it never steers it.

Runs standalone (CI calls it with ``--quick`` and uploads
``BENCH_live.json``)::

    PYTHONPATH=src python benchmarks/bench_live_ingest.py --quick
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import threading
import time
from http.client import HTTPConnection
from pathlib import Path

import numpy as np

from _helpers import RESULTS_DIR, publish, write_bench_summary

from repro.analysis import format_table
from repro.datasets import TripleStore, load_benchmark
from repro.kge import train_model
from repro.kge.model import KGEModel
from repro.live import compact_store, finetune_delta
from repro.obs.metrics import MetricsRegistry, NullRegistry, get_registry, set_registry
from repro.serving import (
    EngineReloader,
    InferenceEngine,
    ServingFleet,
    export_artifact,
    load_artifact,
    wait_until_healthy,
)
from repro.utils.config import TrainingConfig
from repro.utils.serialization import to_json_file

HOST = "127.0.0.1"

#: Worst-round staleness-to-freshness latency ceiling asserted in --quick.
#: Generous for CI jitter — the machine-readable signal is the measured
#: value in BENCH_live.json; this catches a broken reload path, not drift.
STALENESS_CEILING_S = 15.0

#: Queries re-sent through HTTP after the final swap and compared
#: bit-for-bit against a cold-started engine on the final artifact.
PARITY_QUERIES = 400

#: Consecutive fresh /stats responses required before a generation counts
#: as fleet-wide live (each poll lands on an arbitrary worker).
FRESH_CONFIRMATIONS = 6


# ----------------------------------------------------------------------
# HTTP helpers
# ----------------------------------------------------------------------
def http_json(port: int, method: str, path: str, payload=None) -> tuple:
    connection = HTTPConnection(HOST, port, timeout=30.0)
    try:
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class QueryHammer:
    """Background closed-loop client: count statuses, never stop mid-swap."""

    def __init__(self, port: int, queries, top_k: int = 5) -> None:
        self.port = port
        self.payload = {
            "queries": [
                {"direction": d, "entity": e, "relation": r, "top_k": top_k}
                for d, e, r in queries
            ]
        }
        self.sent = 0
        self.ok = 0
        self.errors: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            self.sent += 1
            try:
                status, _ = http_json(self.port, "POST", "/query", self.payload)
            except Exception as error:  # noqa: BLE001 - tallied, asserted later
                self.errors.append(repr(error))
                continue
            if status == 200:
                self.ok += 1
            else:
                self.errors.append(f"HTTP {status}")

    def __enter__(self) -> "QueryHammer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=60.0)


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------
def build_delta_rounds(graph, rounds: int, per_round: int, seed: int = 3):
    """Novel (h, r, t) append batches; one brand-new entity per round."""
    rng = np.random.default_rng(seed)
    known = {tuple(row) for row in np.asarray(graph.train)}
    batches = []
    next_entity = graph.num_entities
    for _ in range(rounds):
        rows = []
        while len(rows) < per_round - 1:
            h = int(rng.integers(graph.num_entities))
            r = int(rng.integers(graph.num_relations))
            t = int(rng.integers(graph.num_entities))
            if h != t and (h, r, t) not in known:
                known.add((h, r, t))
                rows.append((h, r, t))
        # One new entity per round: exercises warm-start + vocab growth.
        rows.append(
            (next_entity, int(rng.integers(graph.num_relations)),
             int(rng.integers(graph.num_entities)))
        )
        next_entity += 1
        batches.append(np.asarray(rows, dtype=np.int64))
    return batches


def build_queries(num_queries: int, entities: int, relations: int, seed: int = 5):
    rng = np.random.default_rng(seed)
    return [
        ("tail" if rng.random() < 0.5 else "head",
         int(rng.integers(entities)), int(rng.integers(relations)))
        for _ in range(num_queries)
    ]


def flip_symlink(link: Path, target: Path) -> None:
    """Atomically repoint ``link`` at ``target`` (tmp symlink + rename)."""
    staging = link.parent / f".{link.name}.tmp"
    if staging.is_symlink() or staging.exists():
        staging.unlink()
    staging.symlink_to(target)
    os.replace(staging, link)


def wait_for_generation(port: int, generation: int, timeout_s: float = 60.0) -> float:
    """Seconds until /stats first answers from ``generation``; confirms
    ``FRESH_CONFIRMATIONS`` consecutive fresh polls before returning."""
    started = time.perf_counter()
    first_fresh = None
    streak = 0
    while time.perf_counter() - started < timeout_s:
        status, stats = http_json(port, "GET", "/stats")
        if status == 200 and stats.get("artifact", {}).get("generation") == generation:
            if first_fresh is None:
                first_fresh = time.perf_counter() - started
            streak += 1
            if streak >= FRESH_CONFIRMATIONS:
                return first_fresh
        else:
            streak = 0
        time.sleep(0.02)
    raise TimeoutError(
        f"fleet never converged on generation {generation} within {timeout_s:.0f}s"
    )


# ----------------------------------------------------------------------
# NullRegistry parity: instrumentation observes, never steers
# ----------------------------------------------------------------------
def check_null_registry_parity(graph, config, delta) -> int:
    """delta → compact → fine-tune twice, telemetry on vs off; must match."""
    outputs = []
    previous = get_registry()
    try:
        for registry in (MetricsRegistry(), NullRegistry()):
            set_registry(registry)
            with tempfile.TemporaryDirectory(prefix="bench_live_parity_") as scratch:
                store = graph.to_store(Path(scratch) / "store")
                store.apply_delta(appends=delta)
                compacted = compact_store(store)
                shard_bytes = b"".join(
                    (compacted.directory / entry["file"]).read_bytes()
                    for split in ("train", "valid", "test")
                    for entry in compacted.manifest["splits"][split]
                )
                model = train_model(graph, "complex", config)
                params, _history, _report = finetune_delta(
                    model.scoring_function, model.params, config, delta
                )
                outputs.append(
                    (shard_bytes, {key: value.tobytes() for key, value in params.items()})
                )
    finally:
        set_registry(previous)
    enabled, disabled = outputs
    if enabled[0] != disabled[0]:
        raise AssertionError("compacted shard bytes differ with telemetry on vs off")
    for key in enabled[1]:
        if enabled[1][key] != disabled[1][key]:
            raise AssertionError(
                f"fine-tuned params[{key!r}] differ with telemetry on vs off"
            )
    return len(delta)


# ----------------------------------------------------------------------
# Parity after the final swap
# ----------------------------------------------------------------------
def check_reload_parity(port: int, artifact_dir: Path, queries) -> int:
    """Post-swap fleet answers must be bit-identical to a cold engine."""
    sample = queries[:PARITY_QUERIES]
    chunk = 100
    oracle = InferenceEngine.from_artifact(
        load_artifact(artifact_dir), result_cache_size=0
    )
    expected = []
    for start in range(0, len(sample), chunk):
        expected.extend(oracle.query_batch(sample[start : start + chunk], top_k=5))
    answers = []
    for start in range(0, len(sample), chunk):
        payload = {
            "queries": [
                {"direction": d, "entity": e, "relation": r, "top_k": 5}
                for d, e, r in sample[start : start + chunk]
            ]
        }
        status, decoded = http_json(port, "POST", "/query", payload)
        if status != 200:
            raise AssertionError(f"parity query failed: HTTP {status}: {decoded}")
        for response in decoded["responses"]:
            answers.append([(p["entity"], p["score"]) for p in response["predictions"]])
    for index, (got, reference) in enumerate(zip(answers, expected)):
        if got != [(entity, score) for entity, score in reference]:
            raise AssertionError(
                f"post-reload answer for query {index} {sample[index]} diverged "
                f"from the cold-started oracle: {got[:3]}... vs {list(reference)[:3]}..."
            )
    return len(sample)


# ----------------------------------------------------------------------
# Main measurement
# ----------------------------------------------------------------------
def build_report(quick: bool) -> tuple:
    scale = 0.2 if quick else 0.5
    rounds = 3 if quick else 6
    per_round = 12 if quick else 48
    dim = 16
    epochs = 2 if quick else 6

    graph = load_benchmark("wn18rr", scale=scale, seed=0)
    config = TrainingConfig(
        dimension=dim, epochs=epochs, batch_size=128, learning_rate=0.1,
        loss="logistic", negative_samples=4, seed=0,
    )
    deltas = build_delta_rounds(graph, rounds, per_round)
    queries = build_queries(1000, graph.num_entities, graph.num_relations)

    parity_deltas = check_null_registry_parity(graph, config, deltas[0])

    with tempfile.TemporaryDirectory(prefix="bench_live_") as scratch_str:
        scratch = Path(scratch_str)
        store = graph.to_store(scratch / "store")
        model = train_model(graph, "complex", config)
        generations = scratch / "generations"
        generations.mkdir()
        gen_dir = generations / "gen-00001"
        export_artifact(model, gen_dir, graph=graph, generation=1)
        current = generations / "current"
        current.symlink_to(gen_dir)

        fleet = ServingFleet(
            EngineReloader(current, result_cache_size=0), host=HOST, port=0, workers=2,
        )
        port = fleet.start()
        round_rows = []
        params = model.params
        try:
            wait_until_healthy(HOST, port, timeout_s=30.0)
            wait_for_generation(port, 1)
            with QueryHammer(port, queries[:32]) as hammer:
                for index, delta in enumerate(deltas):
                    round_started = time.perf_counter()
                    generation = store.apply_delta(appends=delta)
                    params, _history, report = finetune_delta(
                        model.scoring_function, params, config, delta
                    )
                    next_model = KGEModel(model.scoring_function, config, params=params)
                    next_dir = generations / f"gen-{generation + 1:05d}"
                    export_artifact(next_model, next_dir, generation=generation + 1)
                    published = time.perf_counter()
                    flip_symlink(current, next_dir)
                    fleet.signal_reload()
                    staleness_s = wait_for_generation(port, generation + 1)
                    round_rows.append({
                        "round": index + 1,
                        "generation": generation + 1,
                        "delta_triples": int(delta.shape[0]),
                        "new_entities": report.new_entities,
                        "pipeline_s": published - round_started,
                        "staleness_s": staleness_s,
                    })
            hammer_sent, hammer_ok, hammer_errors = hammer.sent, hammer.ok, list(hammer.errors)
            parity_queries = check_reload_parity(
                port, generations / f"gen-{rounds + 1:05d}", queries
            )
        finally:
            fleet.terminate()
            exit_status = fleet.wait()
            fleet.close()
        if exit_status != 0:
            raise RuntimeError(f"fleet worker exited with status {exit_status}")

        # The store still has every delta pending: compact and check the
        # merged view survives (tier-1 asserts bit-parity with re-ingest).
        compacted = compact_store(store)
        compacted_triples = int(compacted.split_count("train"))

    if hammer_errors:
        raise AssertionError(
            f"{len(hammer_errors)} of {hammer_sent} requests failed during the "
            f"swaps; first: {hammer_errors[0]}"
        )
    worst_staleness = max(row["staleness_s"] for row in round_rows)
    if quick and worst_staleness > STALENESS_CEILING_S:
        raise AssertionError(
            f"staleness-to-freshness {worst_staleness:.2f}s exceeds the "
            f"{STALENESS_CEILING_S:.0f}s ceiling"
        )
    total_delta_triples = sum(row["delta_triples"] for row in round_rows)
    total_pipeline_s = sum(row["pipeline_s"] + row["staleness_s"] for row in round_rows)

    table = format_table(
        [
            {
                "round": row["round"],
                "generation": row["generation"],
                "delta_triples": row["delta_triples"],
                "new_entities": row["new_entities"],
                "pipeline_ms": f"{row['pipeline_s'] * 1000:.0f}",
                "staleness_ms": f"{row['staleness_s'] * 1000:.0f}",
            }
            for row in round_rows
        ],
        title=f"Live ingest while serving (E={graph.num_entities}, "
        f"R={graph.num_relations}, d={dim}, 2 workers, {os.cpu_count()} core(s))",
    )
    note = (
        f"{total_delta_triples} delta triples through "
        f"apply_delta→finetune→export→reload in {total_pipeline_s:.2f}s "
        f"({total_delta_triples / total_pipeline_s:.1f} triples/s); "
        f"worst staleness-to-freshness {worst_staleness * 1000:.0f} ms "
        f"(ceiling {STALENESS_CEILING_S:.0f}s); "
        f"{hammer_ok}/{hammer_sent} in-flight requests OK (0 dropped); "
        f"{parity_queries} post-reload answers bit-identical to a cold engine; "
        f"NullRegistry parity over {parity_deltas} delta triples; "
        f"compacted store holds {compacted_triples} train triples"
    )
    data = {
        "quick": quick,
        "entities": graph.num_entities,
        "relations": graph.num_relations,
        "dimension": dim,
        "rounds": rounds,
        "delta_triples_per_round": per_round,
        "cores": os.cpu_count(),
        "rounds_detail": round_rows,
        "ingest_triples_per_s": total_delta_triples / total_pipeline_s,
        "worst_staleness_s": worst_staleness,
        "staleness_ceiling_s": STALENESS_CEILING_S,
        "hammer_sent": hammer_sent,
        "hammer_ok": hammer_ok,
        "hammer_errors": len(hammer_errors),
        "parity_queries": parity_queries,
        "null_registry_parity_deltas": parity_deltas,
    }
    return table + "\n" + note, data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: fewer/smaller rounds (still asserts the "
        "staleness ceiling, zero dropped requests, and reload bit-parity)",
    )
    args = parser.parse_args(argv)

    text, data = build_report(quick=args.quick)
    publish("live_ingest", text)
    to_json_file(data, RESULTS_DIR / "live_ingest.json")
    write_bench_summary(
        "live",
        config={
            key: data[key]
            for key in (
                "quick", "entities", "relations", "dimension", "rounds",
                "delta_triples_per_round", "cores",
            )
        },
        metrics={
            "ingest_triples_per_s": data["ingest_triples_per_s"],
            "worst_staleness_s": data["worst_staleness_s"],
            "hammer_sent": data["hammer_sent"],
            "hammer_errors": data["hammer_errors"],
            "parity_queries": data["parity_queries"],
        },
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
