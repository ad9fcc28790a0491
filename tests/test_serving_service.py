"""Tests for the query service: schema, TSV batch mode, HTTP smoke test."""

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.kge import train_model
from repro.obs.metrics import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    parse_prometheus,
)
from repro.serving import (
    InferenceEngine,
    QueryRequest,
    answer_queries,
    create_server,
    export_artifact,
    format_response_rows,
    load_artifact,
    parse_query_line,
    read_query_file,
)
from repro.utils.config import TrainingConfig


@pytest.fixture(scope="module")
def artifact(tiny_graph, tmp_path_factory):
    config = TrainingConfig(dimension=8, epochs=2, batch_size=64, learning_rate=0.5, seed=0)
    model = train_model(tiny_graph, "complex", config)
    path = export_artifact(
        model, tmp_path_factory.mktemp("serving") / "artifact", graph=tiny_graph
    )
    return load_artifact(path)


@pytest.fixture(scope="module")
def engine(artifact):
    return InferenceEngine.from_artifact(artifact)


class TestQuerySchema:
    def test_from_dict_resolves_labels(self, artifact):
        label = artifact.relation_names[0]
        request = QueryRequest.from_dict(
            {"direction": "tail", "entity": "3", "relation": label}, artifact
        )
        assert (request.entity, request.relation) == (3, 0)

    def test_from_dict_missing_fields(self, artifact):
        with pytest.raises(ValueError, match="missing required fields"):
            QueryRequest.from_dict({"direction": "tail"}, artifact)

    def test_invalid_direction(self):
        with pytest.raises(ValueError, match="direction"):
            QueryRequest(direction="sideways", entity=0, relation=0)

    def test_invalid_top_k(self):
        with pytest.raises(ValueError, match="top_k"):
            QueryRequest(direction="tail", entity=0, relation=0, top_k=0)


class TestBatchMode:
    def test_parse_tail_and_head_lines(self, artifact):
        label = artifact.relation_names[1]
        tail = parse_query_line(f"4\t{label}\t?", artifact)
        head = parse_query_line(f"?\t{label}\t9", artifact)
        assert (tail.direction, tail.entity, tail.relation) == ("tail", 4, 1)
        assert (head.direction, head.entity, head.relation) == ("head", 9, 1)

    def test_parse_rejects_ambiguous_lines(self, artifact):
        with pytest.raises(ValueError, match="exactly one"):
            parse_query_line("?\tr0\t?", artifact)
        with pytest.raises(ValueError, match="exactly one"):
            parse_query_line("1\t0\t2", artifact)
        with pytest.raises(ValueError, match="3 tab-separated"):
            parse_query_line("1\t0", artifact)

    def test_read_query_file(self, artifact, tmp_path):
        source = tmp_path / "queries.tsv"
        source.write_text("# comment\n\n3\t0\t?\n?\t1\t5\n", encoding="utf-8")
        requests = read_query_file(source, artifact, top_k=4)
        assert [request.direction for request in requests] == ["tail", "head"]
        assert all(request.top_k == 4 for request in requests)

    def test_read_query_file_names_bad_line(self, artifact, tmp_path):
        source = tmp_path / "bad.tsv"
        source.write_text("3\t0\t?\nbogus line\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.tsv:2"):
            read_query_file(source, artifact)

    def test_answer_and_format(self, engine, artifact):
        requests = [
            QueryRequest(direction="tail", entity=0, relation=0, top_k=3),
            QueryRequest(direction="head", entity=1, relation=1, top_k=3),
        ]
        responses = answer_queries(engine, requests, artifact)
        assert len(responses) == 2
        assert all(len(response.predictions) == 3 for response in responses)
        assert all(response.latency_ms >= 0 for response in responses)
        rows = format_response_rows(responses, artifact)
        assert rows[0].startswith("direction\t")
        assert len(rows) == 1 + 6  # header + 2 queries x top-3

    def test_mixed_top_k_answered_in_order(self, engine, artifact):
        requests = [
            QueryRequest(direction="tail", entity=0, relation=0, top_k=2),
            QueryRequest(direction="tail", entity=0, relation=0, top_k=5),
        ]
        responses = answer_queries(engine, requests, artifact)
        assert [len(response.predictions) for response in responses] == [2, 5]


class TestHTTPService:
    @pytest.fixture()
    def server(self, engine, artifact):
        server = create_server(engine, artifact, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    @staticmethod
    def _get(server, path):
        url = f"http://127.0.0.1:{server.server_address[1]}{path}"
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())

    @staticmethod
    def _post(server, path, payload):
        url = f"http://127.0.0.1:{server.server_address[1]}{path}"
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())

    def test_healthz(self, server, artifact):
        status, payload = self._get(server, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["artifact"]["scoring_function"] == artifact.scoring_function.name

    def test_single_query(self, server):
        status, payload = self._post(
            server, "/query", {"direction": "tail", "entity": 0, "relation": 0, "top_k": 3}
        )
        assert status == 200
        assert len(payload["predictions"]) == 3
        scores = [prediction["score"] for prediction in payload["predictions"]]
        assert scores == sorted(scores, reverse=True)

    def test_batch_query_with_labels(self, server, artifact):
        label = artifact.relation_names[0]
        status, payload = self._post(
            server,
            "/query",
            {
                "queries": [
                    {"direction": "tail", "entity": 0, "relation": label, "top_k": 2},
                    {"direction": "head", "entity": 1, "relation": 0, "top_k": 2},
                ]
            },
        )
        assert status == 200
        assert len(payload["responses"]) == 2
        assert all(len(response["predictions"]) == 2 for response in payload["responses"])

    def test_stats_counts_requests(self, server):
        self._post(server, "/query", {"direction": "tail", "entity": 0, "relation": 0})
        status, payload = self._get(server, "/stats")
        assert status == 200
        assert payload["http_requests"] >= 1
        assert payload["queries_served"] >= 1
        assert "timings" in payload

    def test_bad_query_returns_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(server, "/query", {"direction": "tail"})
        assert excinfo.value.code == 400
        assert "missing required fields" in json.loads(excinfo.value.read())["error"]

        # A null, list or object in a numeric field used to raise TypeError
        # out of do_POST: the handler thread died without answering.
        query = {"direction": "tail", "entity": 0, "relation": 0, "top_k": 3}
        for key in ("entity", "relation", "top_k"):
            for value in (None, [1], {"id": 1}):
                _, before = self._get(server, "/stats")
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    self._post(server, "/query", {**query, key: value})
                assert excinfo.value.code == 400, (key, value)
                assert key in json.loads(excinfo.value.read())["error"]
                _, after = self._get(server, "/stats")
                assert after["http_errors"] == before["http_errors"] + 1

    def test_top_k_above_entity_count_returns_400(self, server, artifact):
        query = {"direction": "tail", "entity": 0, "relation": 0}
        status, payload = self._post(server, "/query", {**query, "top_k": artifact.num_entities})
        assert status == 200 and len(payload["predictions"]) == artifact.num_entities
        for top_k in (artifact.num_entities + 1, 10**9):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._post(server, "/query", {"queries": [query, {**query, "top_k": top_k}]})
            assert excinfo.value.code == 400
            assert "exceeds" in json.loads(excinfo.value.read())["error"]

    def test_stalled_client_is_dropped(self, server, monkeypatch):
        from repro.serving import service

        monkeypatch.setattr(service, "CONNECTION_TIMEOUT_S", 0.5)
        port = server.server_address[1]
        stalled = [
            b"POST /query HTTP/1.1\r\nHost: localhost\r\n",  # headers never end
            b"POST /query HTTP/1.1\r\nHost: localhost\r\nContent-Length: 64\r\n\r\n{",
        ]
        for request in stalled:
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                sock.sendall(request)
                # The server hangs up (EOF) instead of waiting forever.
                assert sock.recv(1024) == b""
        status, payload = self._get(server, "/healthz")
        assert status == 200 and payload["status"] == "ok"

    def test_unknown_path_returns_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(server, "/nope")
        assert excinfo.value.code == 404

    @staticmethod
    def _raw_post(server, content_length):
        """Status line of a POST /query sent with a raw Content-Length header."""
        with socket.create_connection(("127.0.0.1", server.server_address[1]), timeout=3) as sock:
            sock.sendall(
                b"POST /query HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Length: " + content_length.encode("ascii") + b"\r\n\r\n"
            )
            return sock.makefile("rb").readline()

    @pytest.mark.parametrize("content_length", ["-1", "abc"])
    def test_bad_content_length_returns_400_without_reading(self, server, content_length):
        # Before the check, a negative length blocked the handler thread in
        # rfile.read until the client hung up: this read would time out.
        status_line = self._raw_post(server, content_length)
        assert status_line.split()[1] == b"400", status_line

    def test_oversized_body_returns_413_without_reading(self, server):
        from repro.serving.service import MAX_BODY_BYTES

        status_line = self._raw_post(server, str(MAX_BODY_BYTES + 1))
        assert status_line.split()[1] == b"413", status_line

    def test_uptime_is_monotonic_and_non_negative(self, server):
        _, first = self._get(server, "/stats")
        _, second = self._get(server, "/stats")
        assert first["uptime_s"] >= 0.0
        assert second["uptime_s"] >= first["uptime_s"]


class TestMetricsEndpoint:
    @pytest.fixture()
    def server(self, artifact):
        registry = MetricsRegistry()
        engine = InferenceEngine.from_artifact(artifact, registry=registry)
        server = create_server(
            engine, artifact, host="127.0.0.1", port=0, worker_id=3, registry=registry
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    @staticmethod
    def _scrape(server):
        url = f"http://127.0.0.1:{server.server_address[1]}/metrics"
        with urllib.request.urlopen(url, timeout=10) as response:
            return (
                response.status,
                response.headers.get("Content-Type"),
                response.read().decode("utf-8"),
            )

    @staticmethod
    def _query(server):
        url = f"http://127.0.0.1:{server.server_address[1]}/query"
        request = urllib.request.Request(
            url,
            data=json.dumps(
                {"direction": "tail", "entity": 0, "relation": 0, "top_k": 2}
            ).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            response.read()

    def test_metrics_parse_and_carry_worker_series(self, server):
        self._query(server)
        status, content_type, text = self._scrape(server)
        assert status == 200
        assert content_type == PROMETHEUS_CONTENT_TYPE
        parsed = parse_prometheus(text)  # raises on any malformed line
        samples = parsed["samples"]
        assert samples[("repro_http_requests_total", (("worker_id", "3"),))] >= 2.0
        assert samples[("repro_serving_queries_total", ())] >= 1.0
        assert samples[("repro_worker_uptime_seconds", (("worker_id", "3"),))] >= 0.0
        info_labels = dict(
            next(
                labels
                for name, labels in samples
                if name == "repro_worker_info"
            )
        )
        assert info_labels["worker_id"] == "3"
        assert int(info_labels["pid"]) > 0
        assert parsed["types"]["repro_http_requests_total"] == "counter"

    def test_request_counter_monotone_across_scrapes(self, server):
        self._query(server)
        _, _, first = self._scrape(server)
        self._query(server)
        _, _, second = self._scrape(server)
        key = ("repro_http_requests_total", (("worker_id", "3"),))
        before = parse_prometheus(first)["samples"][key]
        after = parse_prometheus(second)["samples"][key]
        assert after > before

    def test_phase_histogram_has_bucket_invariants(self, server):
        self._query(server)
        _, _, text = self._scrape(server)
        parsed = parse_prometheus(text)
        phases = {
            dict(labels).get("phase")
            for name, labels in parsed["samples"]
            if name == "repro_phase_seconds_bucket"
        }
        assert "score" in phases
        base = (("phase", "score"),)
        count = parsed["samples"][("repro_phase_seconds_count", base)]
        inf_bucket = parsed["samples"][
            ("repro_phase_seconds_bucket", tuple(sorted(base + (("le", "+Inf"),))))
        ]
        assert inf_bucket == count >= 1.0
