"""Tests for the query service: schema, TSV batch mode, HTTP smoke test."""

import importlib
import json
import socket
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kge import train_model
from repro.obs.metrics import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    parse_prometheus,
    render_prometheus,
)
from repro.serving import (
    EngineReloader,
    InferenceEngine,
    QueryRequest,
    QueryServer,
    answer_queries,
    export_artifact,
    format_response_rows,
    load_artifact,
    parse_query_line,
    read_query_file,
)
from repro.serving.service import MAX_QUERIES_PER_REQUEST
from repro.utils.config import TrainingConfig

E2E_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


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

    @pytest.mark.parametrize("value", ["false", "no", [0], 0, 1, None])
    def test_filtered_must_be_a_json_boolean(self, artifact, value):
        # bool("false") is True: a truthy string used to switch filtering on.
        query = {"direction": "tail", "entity": 0, "relation": 0, "filtered": value}
        with pytest.raises(ValueError, match="'filtered' must be a boolean"):
            QueryRequest.from_dict(query, artifact)


#: Any JSON value, nested a little.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)

#: Per field: mostly plausible values, mixed with arbitrary JSON.
FIELD_VALUES = {
    "direction": st.sampled_from(["tail", "head"]) | JSON_VALUES,
    "entity": st.integers(-2, 70) | st.integers(-2, 70).map(str) | JSON_VALUES,
    "relation": st.integers(-2, 8) | st.integers(-2, 8).map(str) | JSON_VALUES,
    "top_k": st.integers(-2, 70) | st.integers(-2, 70).map(str) | JSON_VALUES,
    "filtered": st.booleans() | JSON_VALUES,
}


@st.composite
def query_payloads(draw):
    """A query object whose fields are each present nine times in ten."""
    return {
        key: draw(values)
        for key, values in FIELD_VALUES.items()
        if draw(st.integers(0, 9)) > 0
    }


@pytest.mark.property
class TestQuerySchemaFuzz:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(payload=query_payloads() | JSON_VALUES, resolve=st.booleans())
    def test_from_dict_returns_exact_types_or_raises_value_error(
        self, artifact, payload, resolve
    ):
        try:
            request = QueryRequest.from_dict(payload, artifact if resolve else None)
        except ValueError:
            return
        assert type(request.direction) is str and request.direction in ("tail", "head")
        assert type(request.entity) is int and type(request.relation) is int
        assert type(request.top_k) is int and request.top_k >= 1
        assert type(request.filtered) is bool
        if resolve:
            assert 0 <= request.entity < artifact.num_entities
            assert 0 <= request.relation < artifact.num_relations


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


def running_server(reloader, **kwargs):
    """A QueryServer on a free local port, running on a helper thread."""
    server = QueryServer(("127.0.0.1", 0), reloader, **kwargs)
    thread = threading.Thread(target=server.run, daemon=True)
    thread.start()
    return server, thread


class TestHTTPService:
    @pytest.fixture()
    def server(self, artifact):
        server, thread = running_server(EngineReloader(artifact.path))
        yield server
        server.shutdown()
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
        # out of do_POST: the handler thread died without answering.  In
        # "filtered" it used to be coerced with bool().
        query = {"direction": "tail", "entity": 0, "relation": 0, "top_k": 3}
        for key in ("entity", "relation", "top_k", "filtered"):
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

    def test_query_count_capped_per_request(self, server, artifact):
        query = {"direction": "tail", "entity": 0, "relation": 0, "top_k": 1}
        at_limit = {"queries": [query] * MAX_QUERIES_PER_REQUEST}
        status, payload = self._post(server, "/query", at_limit)
        assert status == 200 and len(payload["responses"]) == MAX_QUERIES_PER_REQUEST
        _, before = self._get(server, "/stats")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(server, "/query", {"queries": [query] * (MAX_QUERIES_PER_REQUEST + 1)})
        assert excinfo.value.code == 413
        message = json.loads(excinfo.value.read())["error"]
        assert str(MAX_QUERIES_PER_REQUEST) in message
        _, after = self._get(server, "/stats")
        # Rejected before parsing: the engine answered nothing.
        assert after["queries_served"] == before["queries_served"]
        assert after["http_errors"] == before["http_errors"] + 1
        # The server still answers the next request.
        assert self._post(server, "/query", query)[0] == 200

    def test_uptime_is_monotonic_and_non_negative(self, server):
        _, first = self._get(server, "/stats")
        _, second = self._get(server, "/stats")
        assert first["uptime_s"] >= 0.0
        assert second["uptime_s"] >= first["uptime_s"]

    def test_reload_mid_request_answers_from_one_generation(
        self, server, artifact, tiny_graph, tmp_path, monkeypatch
    ):
        """A request parsed before a reload is answered by the old generation."""
        config = TrainingConfig(dimension=8, epochs=1, batch_size=64, learning_rate=0.5, seed=1)
        second = export_artifact(
            train_model(tiny_graph, "complex", config), tmp_path / "gen-2", graph=tiny_graph
        )
        parse = QueryRequest.from_dict.__func__
        parsed = []

        def parse_then_reload(cls, data, resolver=None):
            request = parse(cls, data, resolver)
            parsed.append(request)
            if len(parsed) == 1:
                server.reload(second)
            return request

        monkeypatch.setattr(QueryRequest, "from_dict", classmethod(parse_then_reload))
        queries = [("tail", 0, 0), ("head", 1, 1), ("tail", 2, 2), ("head", 3, 0)]
        status, payload = self._post(
            server,
            "/query",
            {"queries": [
                {"direction": d, "entity": e, "relation": r, "top_k": 5} for d, e, r in queries
            ]},
        )
        assert status == 200 and server.reloads == 1
        expected = InferenceEngine.from_artifact(artifact).query_batch(queries, top_k=5)
        got = [
            [(p["entity"], p["score"]) for p in response["predictions"]]
            for response in payload["responses"]
        ]
        assert got == [list(answer) for answer in expected]

    @pytest.mark.parametrize("micro_batch", [False, True])
    def test_engine_failure_returns_500(self, artifact, monkeypatch, micro_batch):
        """An unexpected error while answering used to drop the connection."""
        registry = MetricsRegistry()
        server, thread = running_server(
            EngineReloader(artifact.path, micro_batch=micro_batch, registry=registry),
            registry=registry,
        )
        try:
            def boom(self, queries, top_k=10, filtered=False):
                raise RuntimeError("engine exploded")

            query = {"direction": "tail", "entity": 0, "relation": 0, "top_k": 3}
            with monkeypatch.context() as patch:
                patch.setattr(InferenceEngine, "query_batch", boom)
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    self._post(server, "/query", query)
            assert excinfo.value.code == 500
            assert json.loads(excinfo.value.read()) == {"error": "query failed: engine exploded"}
            assert server.errors == 1
            errors = parse_prometheus(render_prometheus(registry))["samples"]
            assert errors[("repro_http_errors_total", (("worker_id", "0"),))] == 1.0
            # Nothing is wedged: the next query is answered.
            assert self._post(server, "/query", query)[0] == 200
        finally:
            server.shutdown()
            thread.join(timeout=5)


@pytest.fixture(scope="module")
def stats_delta():
    """The e2e bench's ``/stats`` reader, imported from its own directory."""
    sys.path.insert(0, str(E2E_DIR))
    try:
        return importlib.import_module("workloads").stats_delta
    finally:
        sys.path.remove(str(E2E_DIR))


class TestStatsContract:
    """``/stats`` keeps every key the end-to-end bench reads."""

    QUERIES = [("tail", 0, 0), ("head", 1, 0), ("tail", 2, 1), ("head", 3, 1), ("tail", 4, 2)]

    def _send(self, server):
        # One lone query and one batch, so both request shapes pass the batcher.
        first, *rest = [
            {"direction": d, "entity": e, "relation": r, "top_k": 3} for d, e, r in self.QUERIES
        ]
        assert TestHTTPService._post(server, "/query", first)[0] == 200
        assert TestHTTPService._post(server, "/query", {"queries": rest})[0] == 200

    def test_stats_delta_reads_a_real_server(self, artifact, stats_delta):
        server, thread = running_server(EngineReloader(artifact.path, micro_batch=True))
        try:
            for reload in (False, True):
                _, before = TestHTTPService._get(server, "/stats")
                if reload:
                    assert TestHTTPService._post(server, "/reload", {})[0] == 200
                self._send(server)
                _, after = TestHTTPService._get(server, "/stats")
                assert after["reloads"] == before["reloads"] + reload
                delta = stats_delta(before, after)
                assert delta["queries"] == len(self.QUERIES)
                assert delta["calls_per_batch"] >= 1
                # There is no operator cache, so nothing is ever a hit.
                assert delta["operator_hit_ratio"] == 0.0
        finally:
            server.shutdown()
            thread.join(timeout=5)


class TestMetricsEndpoint:
    @pytest.fixture()
    def server(self, artifact):
        registry = MetricsRegistry()
        server, thread = running_server(
            EngineReloader(artifact.path, registry=registry), worker_id=3, registry=registry
        )
        yield server
        server.shutdown()
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
