"""Tests for artifact generations and online hot-swap (single server + fleet).

The hot-swap parity oracle: after publishing a new generation and
reloading, the running server's answers must be bit-identical to a
cold-started engine on the new artifact — and not a single request may
fail while the swap happens (the engine mount flips atomically).
"""

from __future__ import annotations

import json
import os
import threading
import time
from http.client import HTTPConnection
from pathlib import Path

import numpy as np
import pytest

from repro.kge import train_model
from repro.serving import (
    ARTIFACT_SCHEMA_VERSION,
    ArtifactError,
    EngineReloader,
    FILTER_INDEX_DIRNAME,
    InferenceEngine,
    QueryServer,
    ServingFleet,
    export_artifact,
    known_positive_index,
    load_artifact,
    load_filter_index,
    save_filter_index,
    wait_until_healthy,
)
from repro.utils.config import TrainingConfig
from repro.utils.serialization import from_json_file

HOST = "127.0.0.1"

#: Consecutive fresh /stats polls before a fleet counts as converged
#: (each poll lands on an arbitrary worker).
FRESH_CONFIRMATIONS = 6


def http_json(port, method, path, payload=None):
    connection = HTTPConnection(HOST, port, timeout=10.0)
    try:
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def running_server(reloader):
    """A QueryServer on a free local port, running on a helper thread."""
    server = QueryServer((HOST, 0), reloader)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    return server, thread


def http_text(port, path):
    connection = HTTPConnection(HOST, port, timeout=10.0)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        connection.close()


@pytest.fixture(scope="module")
def generations(tiny_graph, tmp_path_factory):
    """Two exported artifact generations of distinct trained models."""
    base = tmp_path_factory.mktemp("live_serving")
    artifacts = {}
    for generation, seed in ((1, 0), (2, 1)):
        config = TrainingConfig(
            dimension=8, epochs=2, batch_size=64, learning_rate=0.5, seed=seed
        )
        model = train_model(tiny_graph, "complex", config)
        artifacts[generation] = export_artifact(
            model,
            base / f"gen-{generation:05d}",
            graph=tiny_graph,
            generation=generation,
        )
    return base, artifacts


@pytest.fixture()
def sample_queries(tiny_graph):
    rng = np.random.default_rng(11)
    return [
        ("tail" if rng.random() < 0.5 else "head",
         int(rng.integers(tiny_graph.num_entities)),
         int(rng.integers(tiny_graph.num_relations)))
        for _ in range(60)
    ]


class TestArtifactGenerations:
    def test_generation_round_trips(self, generations):
        _, artifacts = generations
        for generation, directory in artifacts.items():
            manifest = from_json_file(directory / "manifest.json")
            assert manifest["generation"] == generation
            artifact = load_artifact(directory)
            assert artifact.generation == generation
            assert artifact.describe()["generation"] == generation

    def test_negative_generation_rejected(self, tiny_graph, tmp_path):
        config = TrainingConfig(dimension=8, epochs=1, seed=0)
        model = train_model(tiny_graph, "complex", config)
        with pytest.raises(ArtifactError, match="generation"):
            export_artifact(model, tmp_path / "bad", generation=-1)

    def test_v2_manifest_loads_with_generation_zero(self, generations, tmp_path):
        _, artifacts = generations
        source = artifacts[1]
        target = tmp_path / "v2"
        target.mkdir()
        for item in source.iterdir():
            if item.is_dir():
                (target / item.name).mkdir()
                for nested in item.iterdir():
                    (target / item.name / nested.name).write_bytes(nested.read_bytes())
            else:
                (target / item.name).write_bytes(item.read_bytes())
        manifest = json.loads((target / "manifest.json").read_text())
        manifest.pop("generation")
        manifest["schema_version"] = 2
        (target / "manifest.json").write_text(json.dumps(manifest))
        artifact = load_artifact(target)
        assert artifact.generation == 0
        assert artifact.schema_version == 2

    def test_invalid_generation_value_rejected(self, generations, tmp_path):
        _, artifacts = generations
        manifest_path = artifacts[1] / "manifest.json"
        original = manifest_path.read_text()
        manifest = json.loads(original)
        manifest["generation"] = "two"
        manifest_path.write_text(json.dumps(manifest))
        try:
            with pytest.raises(ArtifactError, match="generation"):
                load_artifact(artifacts[1])
        finally:
            manifest_path.write_text(original)

    def test_current_schema_version_is_three(self):
        assert ARTIFACT_SCHEMA_VERSION == 3


class TestFilterIndexErrorNamesArtifact:
    def test_missing_meta_names_artifact_directory(self, tiny_graph, tmp_path):
        artifact_dir = tmp_path / "artifact"
        index_dir = artifact_dir / FILTER_INDEX_DIRNAME
        index_dir.mkdir(parents=True)
        with pytest.raises(ValueError, match=r"artifact directory .*artifact"):
            load_filter_index(index_dir)

    def test_missing_array_names_artifact_directory(self, tiny_graph, tmp_path):
        artifact_dir = tmp_path / "artifact"
        index_dir = save_filter_index(
            known_positive_index(tiny_graph), artifact_dir / FILTER_INDEX_DIRNAME
        )
        (index_dir / "tails_codes.npy").unlink()
        with pytest.raises(
            ValueError, match=r"artifact directory .*artifact.* is missing tails_codes.npy"
        ):
            load_filter_index(index_dir)

    def test_other_directories_keep_the_plain_error(self, tmp_path):
        plain = tmp_path / "not-an-index"
        plain.mkdir()
        with pytest.raises(ValueError, match="filter-index directory") as info:
            load_filter_index(plain)
        assert "artifact directory" not in str(info.value)


class TestSingleServerReload:
    def test_reload_swaps_generation_with_zero_downtime(
        self, generations, sample_queries
    ):
        _, artifacts = generations
        server, thread = running_server(
            EngineReloader(artifact_dir=artifacts[1], result_cache_size=0)
        )
        port = server.server_address[1]
        errors = []
        stop = threading.Event()

        def hammer():
            payload = {
                "queries": [
                    {"direction": d, "entity": e, "relation": r, "top_k": 5}
                    for d, e, r in sample_queries[:16]
                ]
            }
            while not stop.is_set():
                try:
                    status, _ = http_json(port, "POST", "/query", payload)
                except Exception as error:  # noqa: BLE001
                    errors.append(repr(error))
                    continue
                if status != 200:
                    errors.append(f"HTTP {status}")

        hammer_thread = threading.Thread(target=hammer, daemon=True)
        try:
            status, stats = http_json(port, "GET", "/stats")
            assert status == 200
            assert stats["artifact"]["generation"] == 1
            assert stats["artifact"]["schema_version"] == ARTIFACT_SCHEMA_VERSION
            assert stats["reloads"] == 0

            hammer_thread.start()
            time.sleep(0.05)
            status, reloaded = http_json(
                port, "POST", "/reload", {"artifact": str(artifacts[2])}
            )
            assert status == 200
            assert reloaded["generation"] == 2
            time.sleep(0.05)
        finally:
            stop.set()
            hammer_thread.join(timeout=30.0)
        assert errors == []

        status, stats = http_json(port, "GET", "/stats")
        assert stats["artifact"]["generation"] == 2
        assert stats["reloads"] == 1

        # Bit-parity: the reloaded server vs a cold engine on generation 2.
        oracle = InferenceEngine.from_artifact(
            load_artifact(artifacts[2]), result_cache_size=0
        )
        expected = oracle.query_batch(sample_queries, top_k=5)
        status, decoded = http_json(
            port,
            "POST",
            "/query",
            {
                "queries": [
                    {"direction": d, "entity": e, "relation": r, "top_k": 5}
                    for d, e, r in sample_queries
                ]
            },
        )
        assert status == 200
        got = [
            [(p["entity"], p["score"]) for p in response["predictions"]]
            for response in decoded["responses"]
        ]
        assert got == [[(e, s) for e, s in answer] for answer in expected]
        server.shutdown()
        thread.join(timeout=5.0)

    def test_reload_failure_keeps_old_generation(self, generations):
        base, artifacts = generations
        server, thread = running_server(EngineReloader(artifact_dir=artifacts[1]))
        port = server.server_address[1]
        try:
            status, decoded = http_json(
                port, "POST", "/reload", {"artifact": str(base / "missing")}
            )
            assert status == 500
            assert "still serving the old generation" in decoded["error"]
            status, stats = http_json(port, "GET", "/stats")
            assert stats["artifact"]["generation"] == 1
            assert stats["reloads"] == 0
            # The failed path is not remembered: a plain reload (what SIGHUP
            # does) rebuilds the generation being served.
            assert server.reload().generation == 1
        finally:
            server.shutdown()
            thread.join(timeout=5.0)

    def test_reload_outside_served_root_is_forbidden(self, generations, tmp_path):
        """/reload only accepts siblings of the artifact the server started with."""
        base, artifacts = generations
        outside = tmp_path / "elsewhere"
        outside.mkdir()
        escapes = [
            str(outside),  # another directory entirely
            str(base),  # the generations root itself
            str(artifacts[2] / "params"),  # inside a generation
            str(base / ".." / base.name / ".." / "gen-00002"),  # climbs out via ..
        ]
        server, thread = running_server(EngineReloader(artifact_dir=artifacts[1]))
        port = server.server_address[1]
        try:
            for target in escapes:
                status, decoded = http_json(port, "POST", "/reload", {"artifact": target})
                assert status == 403, target
                assert str(base.resolve()) in decoded["error"]
            for malformed in (7, ["a"], "nul\u0000byte"):
                status, decoded = http_json(port, "POST", "/reload", {"artifact": malformed})
                assert status == 400, malformed
            status, stats = http_json(port, "GET", "/stats")
            assert stats["http_errors"] == len(escapes) + 3
            assert stats["artifact"]["generation"] == 1
            assert stats["reloads"] == 0
            # A sibling generation, even spelled through "..", is accepted.
            sibling = base / "gen-00001" / ".." / "gen-00002"
            status, reloaded = http_json(port, "POST", "/reload", {"artifact": str(sibling)})
            assert status == 200
            assert reloaded["generation"] == 2
        finally:
            server.shutdown()
            thread.join(timeout=5.0)


def flip_symlink(link: Path, target: Path) -> None:
    staging = link.parent / f".{link.name}.tmp"
    if staging.is_symlink() or staging.exists():
        staging.unlink()
    staging.symlink_to(target)
    os.replace(staging, link)


def wait_for_generation(port, generation, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    streak = 0
    while time.monotonic() < deadline:
        status, stats = http_json(port, "GET", "/stats")
        if status == 200 and stats.get("artifact", {}).get("generation") == generation:
            streak += 1
            if streak >= FRESH_CONFIRMATIONS:
                return
        else:
            streak = 0
        time.sleep(0.02)
    raise TimeoutError(f"fleet never converged on generation {generation}")


class TestFleetHotSwap:
    def test_sighup_swaps_every_worker_with_zero_drops(
        self, generations, sample_queries, tmp_path
    ):
        base, artifacts = generations
        current = tmp_path / "current"
        current.symlink_to(artifacts[1])
        fleet = ServingFleet(
            EngineReloader(artifact_dir=current, result_cache_size=0),
            host=HOST,
            port=0,
            workers=2,
        )
        port = fleet.start()
        errors = []
        stop = threading.Event()

        def hammer():
            payload = {
                "queries": [
                    {"direction": d, "entity": e, "relation": r, "top_k": 5}
                    for d, e, r in sample_queries[:16]
                ]
            }
            while not stop.is_set():
                try:
                    status, _ = http_json(port, "POST", "/query", payload)
                except Exception as error:  # noqa: BLE001
                    errors.append(repr(error))
                    continue
                if status != 200:
                    errors.append(f"HTTP {status}")

        hammer_thread = threading.Thread(target=hammer, daemon=True)
        try:
            wait_until_healthy(HOST, port)
            wait_for_generation(port, 1)
            hammer_thread.start()
            time.sleep(0.1)

            flip_symlink(current, artifacts[2])
            fleet.signal_reload()
            wait_for_generation(port, 2)
            time.sleep(0.1)
            stop.set()
            hammer_thread.join(timeout=30.0)
            assert errors == []

            # Bit-parity against a cold engine on the new generation.
            oracle = InferenceEngine.from_artifact(
                load_artifact(artifacts[2]), result_cache_size=0
            )
            chunk = 20
            expected = []
            for start in range(0, len(sample_queries), chunk):
                expected.extend(
                    oracle.query_batch(sample_queries[start : start + chunk], top_k=5)
                )
            answers = []
            for start in range(0, len(sample_queries), chunk):
                payload = {
                    "queries": [
                        {"direction": d, "entity": e, "relation": r, "top_k": 5}
                        for d, e, r in sample_queries[start : start + chunk]
                    ]
                }
                status, decoded = http_json(port, "POST", "/query", payload)
                assert status == 200
                for response in decoded["responses"]:
                    answers.append(
                        [(p["entity"], p["score"]) for p in response["predictions"]]
                    )
            assert answers == [[(e, s) for e, s in answer] for answer in expected]

            # The reload metrics moved with the swap onto /metrics.
            status, body = http_text(port, "/metrics")
            assert status == 200
            for needle in (
                "repro_live_generation",
                "repro_live_reloads_total",
            ):
                assert needle in body, needle
        finally:
            stop.set()
            fleet.terminate()
            exit_status = fleet.wait()
            fleet.close()
        assert exit_status == 0
