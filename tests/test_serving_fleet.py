"""Tests for the pre-forked serving fleet, filter-index persistence, drain."""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from http.client import HTTPConnection
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.kge import train_model
from repro.kge.model import KGEModel
from repro.kge.scoring import get_scoring_function
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE, parse_prometheus
from repro.serving import (
    EngineReloader,
    InferenceEngine,
    QueryServer,
    ServingFleet,
    export_artifact,
    known_positive_index,
    load_artifact,
    load_filter_index,
    save_filter_index,
    validate_serve_options,
    wait_until_healthy,
)
from repro.serving.fleet import FILTER_INDEX_DIRNAME, MAX_WORKERS, prepare_filter_index
from repro.serving.service import process_memory_info
from repro.utils.blas import blas_threads, scoring_slots
from repro.utils.config import ConfigError, TrainingConfig

HOST = "127.0.0.1"


def http_json(port, method, path, payload=None, host=HOST):
    """One short-lived HTTP exchange; returns (status, decoded JSON)."""
    connection = HTTPConnection(host, port, timeout=10.0)
    try:
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestValidateServeOptions:
    def test_valid_options_pass(self):
        validate_serve_options(port=0, workers=1)
        validate_serve_options(port=65535, workers=MAX_WORKERS, micro_batch_window_ms=2.0)

    @pytest.mark.parametrize("port", [-1, 65536, 99999])
    def test_bad_port_names_flag_and_range(self, port):
        with pytest.raises(ConfigError, match=r"--port must be in 0\.\.65535"):
            validate_serve_options(port=port, workers=1)

    @pytest.mark.parametrize("workers", [0, -2, MAX_WORKERS + 1])
    def test_bad_workers_names_flag_and_range(self, workers):
        with pytest.raises(ConfigError, match=rf"--workers must be in 1\.\.{MAX_WORKERS}"):
            validate_serve_options(port=8080, workers=workers)

    def test_negative_window_rejected(self):
        with pytest.raises(ConfigError, match="--micro-batch-window"):
            validate_serve_options(port=8080, workers=1, micro_batch_window_ms=-1.0)

    def test_cli_serve_invalid_port_is_one_line(self, tmp_path):
        with pytest.raises(SystemExit, match=r"--port must be in 0\.\.65535"):
            main(["serve", "--artifact", str(tmp_path), "--port", "99999"])

    def test_cli_serve_invalid_workers_is_one_line(self, tmp_path):
        with pytest.raises(SystemExit, match=r"--workers must be in"):
            main(["serve", "--artifact", str(tmp_path), "--workers", "0"])


class TestFilterIndexPersistence:
    def test_round_trip_mmap_and_memory(self, tiny_graph, tmp_path):
        index = known_positive_index(tiny_graph)
        directory = save_filter_index(index, tmp_path / "fidx")
        for mmap in (False, True):
            loaded = load_filter_index(directory, mmap=mmap)
            assert loaded.num_relations == index.num_relations
            for side in ("tails", "heads"):
                for field in ("codes", "indptr", "entities"):
                    np.testing.assert_array_equal(
                        getattr(getattr(loaded, side), field),
                        getattr(getattr(index, side), field),
                    )

    def test_missing_array_file_named(self, tiny_graph, tmp_path):
        directory = save_filter_index(known_positive_index(tiny_graph), tmp_path / "fidx")
        (directory / "tails_codes.npy").unlink()
        with pytest.raises(ValueError, match="tails_codes.npy"):
            load_filter_index(directory)

    def test_filtered_answers_match_in_memory_index(self, tiny_graph, tmp_path):
        config = TrainingConfig(dimension=8, epochs=2, batch_size=64, learning_rate=0.5, seed=0)
        model = train_model(tiny_graph, "distmult", config)
        index = known_positive_index(tiny_graph)
        directory = save_filter_index(index, tmp_path / "fidx")
        queries = [("tail", h, r) for h, r in zip(range(6), range(6))]
        reference = InferenceEngine(model.scoring_function, model.params, filter_index=index)
        reloaded = InferenceEngine(
            model.scoring_function, model.params,
            filter_index=load_filter_index(directory, mmap=True),
        )
        assert reference.query_batch(queries, top_k=5, filtered=True) == \
            reloaded.query_batch(queries, top_k=5, filtered=True)


@pytest.fixture(scope="module")
def fleet_artifact(tiny_graph, tmp_path_factory):
    config = TrainingConfig(dimension=8, epochs=2, batch_size=64, learning_rate=0.5, seed=0)
    model = train_model(tiny_graph, "complex", config)
    return export_artifact(
        model, tmp_path_factory.mktemp("fleet") / "artifact", graph=tiny_graph
    )


@pytest.fixture()
def mixed_queries(tiny_graph):
    rng = np.random.default_rng(7)
    queries = []
    for _ in range(40):
        direction = "tail" if rng.random() < 0.5 else "head"
        queries.append(
            {
                "direction": direction,
                "entity": int(rng.integers(tiny_graph.num_entities)),
                "relation": int(rng.integers(tiny_graph.num_relations)),
                "top_k": 5,
            }
        )
    return queries


class TestServingFleet:
    def test_two_worker_fleet_parity_and_drain(self, fleet_artifact, mixed_queries):
        fleet = ServingFleet(
            EngineReloader(fleet_artifact, micro_batch=True),
            host=HOST,
            port=0,
            workers=2,
        )
        port = fleet.start()
        # Idle workers all wake on a connection; the losers of the accept
        # race must get EAGAIN, not park in accept() where SIGTERM can't
        # reach their drain.
        assert fleet.listener.getblocking() is False
        try:
            wait_until_healthy(HOST, port)
            # Parity oracle: single-process, fully in-memory engine.
            oracle = InferenceEngine.from_artifact(load_artifact(fleet_artifact))
            expected = oracle.query_batch(
                [(q["direction"], q["entity"], q["relation"]) for q in mixed_queries],
                top_k=5,
            )
            status, payload = http_json(
                port, "POST", "/query", {"queries": mixed_queries}
            )
            assert status == 200
            assert len(payload["responses"]) == len(mixed_queries)
            for response, reference in zip(payload["responses"], expected):
                got = [(p["entity"], p["score"]) for p in response["predictions"]]
                # Bit-identical: JSON round-trips float64 exactly.
                assert got == [(e, s) for e, s in reference]
            status, stats = http_json(port, "GET", "/stats")
            assert status == 200
            assert stats["worker"]["worker_id"] in (0, 1)
            assert stats["worker"]["pid"] in fleet.worker_pids
            if process_memory_info():  # /proc available
                assert stats["worker"]["resident_bytes"] > 0
            assert stats["params_memmap"] is True
            assert "micro_batcher" in stats
        finally:
            fleet.terminate(signal.SIGTERM)
            status = fleet.wait()
            fleet.close()
        assert status == 0  # graceful exit, not a killed process

    def test_sigint_also_drains(self, fleet_artifact):
        fleet = ServingFleet(EngineReloader(fleet_artifact), host=HOST, port=0, workers=1)
        port = fleet.start()
        try:
            wait_until_healthy(HOST, port)
        finally:
            fleet.terminate(signal.SIGINT)
            status = fleet.wait()
            fleet.close()
        assert status == 0

    @pytest.fixture()
    def slow_start_fleet(self, fleet_artifact, tmp_path, monkeypatch):
        """A 1-worker fleet whose engine build is slow, and a callable that
        waits until the worker is inside that build."""
        building = tmp_path / "building"
        real_build = EngineReloader.build

        def slow_build(reloader, *args, **kwargs):
            building.touch()
            time.sleep(1.0)
            return real_build(reloader, *args, **kwargs)

        # Patched before start(), so the forked worker inherits it.
        monkeypatch.setattr(EngineReloader, "build", slow_build)
        fleet = ServingFleet(EngineReloader(fleet_artifact), host=HOST, port=0, workers=1)

        def wait_for_build():
            deadline = time.monotonic() + 30.0
            while not building.exists():
                assert time.monotonic() < deadline, "worker never started its build"
                time.sleep(0.01)

        yield fleet, wait_for_build
        fleet.terminate(signal.SIGKILL)  # no-op once the test reaped the worker
        fleet.wait()
        fleet.close()

    def test_sigterm_during_startup_exits_cleanly(self, slow_start_fleet):
        """Regression: a worker installed its SIGTERM handler only after its
        engine stack was built, so a SIGTERM during start-up killed it."""
        fleet, wait_for_build = slow_start_fleet
        fleet.start()
        wait_for_build()
        fleet.terminate(signal.SIGTERM)
        assert fleet.wait() == 0

    def test_sighup_during_startup_does_not_kill(self, slow_start_fleet):
        fleet, wait_for_build = slow_start_fleet
        port = fleet.start()
        wait_for_build()
        fleet.terminate(signal.SIGHUP)
        wait_until_healthy(HOST, port, timeout_s=30.0)
        status, _ = http_json(port, "GET", "/stats")
        assert status == 200
        fleet.terminate(signal.SIGTERM)
        assert fleet.wait() == 0

    def test_precomputed_filter_index_saved_beside_artifact(
        self, fleet_artifact, tiny_graph
    ):
        index = known_positive_index(tiny_graph)
        prepare_filter_index(index, fleet_artifact)
        assert (fleet_artifact / FILTER_INDEX_DIRNAME / "tails_codes.npy").exists()
        fleet = ServingFleet(EngineReloader(fleet_artifact), port=0, workers=1)
        port = fleet.start()
        try:
            wait_until_healthy(HOST, port)
            query = {"direction": "tail", "entity": 0, "relation": 0, "top_k": 5, "filtered": True}
            status, payload = http_json(port, "POST", "/query", query)
            assert status == 200
            oracle = InferenceEngine.from_artifact(
                load_artifact(fleet_artifact), filter_index=index
            )
            expected = oracle.query_batch([("tail", 0, 0)], top_k=5, filtered=True)[0]
            got = [(p["entity"], p["score"]) for p in payload["predictions"]]
            assert got == [(e, s) for e, s in expected]
        finally:
            fleet.terminate()
            assert fleet.wait() == 0
            fleet.close()

    def test_broken_artifact_fails_in_parent(self, tmp_path):
        from repro.serving import ArtifactError

        with pytest.raises(ArtifactError, match="does not exist"):
            ServingFleet(EngineReloader(tmp_path / "nowhere"), port=0, workers=2)

    def test_rejects_bad_options_before_forking(self, fleet_artifact):
        with pytest.raises(ConfigError, match="--workers"):
            ServingFleet(EngineReloader(fleet_artifact), port=0, workers=0)


class TestGracefulShutdown:
    """Drain semantics of a single QueryServer, without forking."""

    @pytest.fixture()
    def slow_server(self, fleet_artifact):
        """A running server whose engine takes long enough to straddle a shutdown."""
        server = QueryServer((HOST, 0), EngineReloader(fleet_artifact))
        started = threading.Event()

        def slow_query_batch(queries, top_k=10, filtered=False):
            started.set()
            time.sleep(0.3)
            return [[(0, 1.0)] for _ in queries]

        server.engine.query_batch = slow_query_batch
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        yield server, thread, started
        server.request_shutdown()
        thread.join(timeout=5.0)

    def test_inflight_request_completes_during_shutdown(self, slow_server):
        server, thread, started = slow_server
        port = server.server_address[1]
        result = {}

        def client():
            result["response"] = http_json(
                port, "POST", "/query", {"direction": "tail", "entity": 0, "relation": 0}
            )

        caller = threading.Thread(target=client)
        caller.start()
        assert started.wait(timeout=5.0)
        server.request_shutdown()  # arrives mid-request
        caller.join(timeout=5.0)
        # run() closes the server on exit, joining the handler thread: the
        # drain barrier.
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        status, payload = result["response"]
        assert status == 200
        assert payload["predictions"][0]["entity"] == 0

    def test_request_shutdown_is_idempotent(self, slow_server):
        server, thread, _ = slow_server
        server.request_shutdown()
        server.request_shutdown()
        thread.join(timeout=5.0)
        assert not thread.is_alive()

    def test_listener_closed_after_shutdown(self, slow_server):
        server, thread, _ = slow_server
        port = server.server_address[1]
        server.request_shutdown()
        thread.join(timeout=5.0)
        with pytest.raises(OSError):
            probe = socket.create_connection((HOST, port), timeout=0.5)
            probe.close()


class TestListenerAdoption:
    def test_server_adopts_prebound_socket(self, fleet_artifact):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind((HOST, 0))
        listener.listen()
        port = listener.getsockname()[1]
        server = QueryServer(
            (HOST, 0), EngineReloader(fleet_artifact, mmap=True),
            listen_socket=listener, worker_id=3,
        )
        assert server.server_address[1] == port
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        try:
            status, stats = http_json(port, "GET", "/stats")
            assert status == 200
            assert stats["worker"]["worker_id"] == 3
            assert stats["worker"]["blas_threads"] == blas_threads()
            assert stats["scoring_slots"] == scoring_slots() >= 1
            assert stats["params_memmap"] is True
        finally:
            server.request_shutdown()
            thread.join(timeout=5.0)


# ----------------------------------------------------------------------
# `repro-autosf serve --workers N` as an operator runs it
# ----------------------------------------------------------------------
def synthetic_artifact(directory, entities, relations, dimension):
    """A seeded random-init ComplEx artifact: serving plumbing needs no training."""
    scoring = get_scoring_function("complex")
    params = scoring.init_params(entities, relations, dimension, rng=0)
    model = KGEModel(scoring, TrainingConfig(dimension=dimension, epochs=1, seed=0), params=params)
    return export_artifact(model, directory / "artifact"), sum(a.nbytes for a in params.values())


@contextmanager
def cli_fleet(artifact_dir, log_path, *flags, env=None):
    """Run ``serve --port 0`` in a subprocess; yields ``(process, port)`` once healthy.

    The bound port is read from the start-up banner.  On exit the fleet gets
    SIGTERM; the caller checks ``process.returncode``.
    """
    source = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    with open(log_path, "w", encoding="utf-8") as log:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--artifact", str(artifact_dir),
             "--host", HOST, "--port", "0", *flags],
            stdout=log, stderr=subprocess.STDOUT, env=env,
        )
    try:
        deadline = time.monotonic() + 60.0
        while (found := re.search(r"http://127\.0\.0\.1:(\d+)", log_path.read_text())) is None:
            assert process.poll() is None and time.monotonic() < deadline, log_path.read_text()
            time.sleep(0.05)
        port = int(found.group(1))
        wait_until_healthy(HOST, port, timeout_s=60.0)
        yield process, port
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def get_text(port, path):
    """One GET on a fresh connection; returns (status, headers, body text)."""
    connection = HTTPConnection(HOST, port, timeout=30.0)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read().decode("utf-8")
    finally:
        connection.close()


def post_ok(port, payload):
    status, answer = http_json(port, "POST", "/query", payload)
    assert status == 200, answer


def scrape_every_worker(port, workers):
    """Scrape ``/metrics`` on fresh connections until each worker answered.

    Every scrape must be valid Prometheus text with the 0.0.4 content type
    and exactly one ``repro_worker_info`` sample naming its worker.
    """
    seen = {}
    for _ in range(200):
        status, headers, body = get_text(port, "/metrics")
        assert status == 200
        assert headers.get("Content-Type") == PROMETHEUS_CONTENT_TYPE
        parsed = parse_prometheus(body)  # raises on a malformed line
        (worker_id,) = {
            dict(labels)["worker_id"]
            for name, labels in parsed["samples"]
            if name == "repro_worker_info"
        }
        seen[worker_id] = parsed
        if len(seen) == workers:
            return seen
        time.sleep(0.01)
    raise AssertionError(f"only workers {sorted(seen)} answered 200 scrapes")


class TestCliFleet:
    def test_metrics_counters_are_monotone_per_worker(self, tmp_path):
        burst = 40
        artifact, _ = synthetic_artifact(tmp_path, 2000, 8, 16)

        def query_burst(port):
            for index in range(burst):
                post_ok(port, {"direction": "tail", "entity": index % 2000,
                               "relation": index % 8, "top_k": 5})

        with cli_fleet(artifact, tmp_path / "serve.log", "--workers", "2") as (process, port):
            query_burst(port)
            first = scrape_every_worker(port, 2)
            query_burst(port)
            second = scrape_every_worker(port, 2)
        assert process.returncode == 0  # SIGTERM drains the fleet cleanly

        def requests_total(scrapes, worker_id):
            key = ("repro_http_requests_total", (("worker_id", worker_id),))
            return scrapes[worker_id]["samples"].get(key, 0.0)

        for worker_id in second:
            assert second[worker_id]["types"]["repro_http_requests_total"] == "counter"
            assert requests_total(second, worker_id) >= requests_total(first, worker_id)
        growth = sum(requests_total(second, w) - requests_total(first, w) for w in second)
        assert growth >= burst

    @pytest.mark.slow
    def test_workers_share_the_memmapped_embeddings(self, tmp_path):
        """Per-worker private RSS under load stays below half the embedding bytes.

        The embeddings are file-backed memmap pages shared through the page
        cache, so a worker's private memory above its parent's is caches and
        scratch, not a copy.  glibc's mmap threshold is pinned so freed
        scoring slabs go back to the OS instead of lingering in malloc arenas.
        """
        if not Path("/proc/self/statm").exists():
            pytest.skip("needs /proc to read resident memory")
        entities, relations, workers = 96_000, 64, 2
        artifact, embedding_bytes = synthetic_artifact(tmp_path, entities, relations, 64)
        rng = np.random.default_rng(1)
        weights = 1.0 / np.arange(1, relations + 1) ** 1.1  # Zipf-skewed relations
        queries = [
            {"direction": "tail" if tail else "head", "entity": int(entity),
             "relation": int(relation), "top_k": 10}
            for tail, entity, relation in zip(
                rng.random(8000) < 0.5,
                rng.integers(0, entities, 8000),
                rng.choice(relations, size=8000, p=weights / weights.sum()),
            )
        ]
        payloads = [{"queries": queries[start:start + 32]} for start in range(0, 8000, 32)]
        with cli_fleet(
            artifact, tmp_path / "serve.log", "--workers", str(workers),
            "--batch-size", "32", "--micro-batch-window", "2",
            env={"MALLOC_MMAP_THRESHOLD_": "131072"},
        ) as (process, port):
            with ThreadPoolExecutor(max_workers=8) as clients:
                list(clients.map(lambda payload: post_ok(port, payload), payloads))
            statm = Path(f"/proc/{process.pid}/statm").read_text().split()
            parent_private = (int(statm[1]) - int(statm[2])) * os.sysconf("SC_PAGE_SIZE")
            private = {}
            for _ in range(200):
                _, stats = http_json(port, "GET", "/stats")
                private[stats["worker"]["worker_id"]] = stats["worker"]["private_bytes"]
                if len(private) == workers:
                    break
        assert process.returncode == 0
        assert len(private) == workers, private
        worst = max(private.values()) - parent_private
        assert worst < 0.5 * embedding_bytes, (worst, embedding_bytes)
