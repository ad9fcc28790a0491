"""Unit tests of the end-to-end benchmark harness (no workload is run)."""

from __future__ import annotations

import json
import re
import threading
import time
from pathlib import Path

import pytest

import bench
import catalog
import loadgen
import spans
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Percentiles: a tail needs at least ten samples beyond it
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, permille",
    [(10_000, 999), (9_999, 990), (1_000, 990), (999, 950), (200, 950), (199, 900),
     (40, 750), (39, 500), (20, 500), (19, None), (0, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, permille):
    assert loadgen.tail_permille(count) == permille


def test_latency_summary_needs_enough_samples():
    few = loadgen.latency_summary([0.001] * 19)
    assert few["samples"] == 19 and few["p50_ms"].startswith("unmeasured")
    some = loadgen.latency_summary([0.001] * 99)
    assert some["p50_ms"] == pytest.approx(1.0) and some["p90_ms"].startswith("unmeasured")
    values = [i / 1000.0 for i in range(1, 1001)]
    full = loadgen.latency_summary(values)
    assert (full["tail"], full["tail_ms"]) == ("p99", pytest.approx(990.01))
    # Ten windows of 100; the median of their p90s lies between windows 5 and 6.
    expected = (loadgen.percentile(values[400:500], 900) + loadgen.percentile(values[500:600], 900)) / 2
    assert full["p90_ms"] == pytest.approx(expected * 1000.0)


def test_windowed_p90_ignores_stalls_in_a_minority_of_windows():
    latencies = [0.001] * 1000
    for start in (120, 450, 780):  # three stalls, each slowing 15 consecutive ops
        latencies[start:start + 15] = [0.1] * 15
    assert loadgen.percentile(latencies, 990) == pytest.approx(0.1)
    assert loadgen.windowed_p90(latencies) == pytest.approx(0.001)


def test_closed_loop_rate_is_the_median_window():
    phase = loadgen.PhaseResult(name="closed", kind="closed", started=0.0, finished=3.0)
    # 200 completions in the first and last second, a stalled middle second.
    phase.completed_at = [i / 200 for i in range(200)] + [1.5] * 20 + [2 + i / 200 for i in range(200)]
    assert phase.throughput_rps == pytest.approx(200.0)


# ----------------------------------------------------------------------
# Open loop: latency from the due time, lag of the generator
# ----------------------------------------------------------------------
def test_open_loop_counts_waiting_from_the_due_time():
    def send(body: bytes) -> bool:
        # The first two requests hold both sender threads for 60 ms.
        time.sleep(0.06 if body in (b"0", b"1") else 0.0)
        return True

    rate = 200.0
    bodies = [str(index).encode() for index in range(30)]
    result = loadgen.open_loop("test", send, bodies, rate=rate, lead_s=0.01)
    assert result.sent == result.ok == 30 and not result.errors
    late = result.lags_s[2]
    # Request 2 was due 10 ms in but had to wait for a free thread.
    assert late > 0.03
    assert result.latencies_s[2] >= late
    assert result.latencies_s[2] - result.service_s[2] == pytest.approx(late, abs=1e-9)
    # Once the backlog drained, requests go out on time again.
    assert result.lags_s[-1] < 0.02
    assert all(lag > -1e-3 for lag in result.lags_s)


def test_open_loop_counts_failures_and_keeps_them_out_of_latencies():
    result = loadgen.open_loop("test", lambda body: body != b"bad", [b"ok", b"bad", b"ok"], rate=1000.0)
    assert (result.sent, result.ok, len(result.errors)) == (3, 2, 1)
    assert len(result.latencies_s) == 2 and len(result.lags_s) == 3


def test_closed_loop_stops_when_prepared_requests_run_out():
    drained = loadgen.closed_loop("warmup", lambda body: True, [b"x"] * 50, duration_s=None)
    assert drained.sent == drained.ok == 50 and not drained.errors
    timed = loadgen.closed_loop("closed", lambda body: True, [b"x"] * 5, duration_s=0.2)
    assert timed.errors and timed.errors[0].startswith("closed loop ran out")


# ----------------------------------------------------------------------
# Query streams: phases continue the stream and never replay it
# ----------------------------------------------------------------------
@pytest.mark.parametrize("zipf", [None, 1.1])
def test_phase_streams_are_contiguous_and_never_replay(zipf):
    stream = loadgen.QueryStream(3, 500, 16, zipf=zipf)
    taken = [stream.take(count, name) for name, count in (("warmup", 7), ("low", 5000), ("high", 123))]
    assert [(start, stop) for _name, start, stop in stream.phases] == [(0, 7), (7, 5007), (5007, 5130)]
    replay = loadgen.QueryStream(3, 500, 16, zipf=zipf).take(5130, "all")
    assert taken[0] + taken[1] + taken[2] == replay
    assert loadgen.QueryStream(4, 500, 16, zipf=zipf).take(50, "x") != replay[:50]
    fresh = stream.take_unseen(200, "parity")
    assert len(set(fresh)) == 200 and not set(fresh) & set(replay)
    assert stream.phases[-1][0] == "parity" and stream.phases[-1][1] == 5130


def test_zipf_stream_is_skewed_towards_a_few_entities():
    queries = loadgen.QueryStream(0, 20_000, 64, zipf=1.1).take(20_000, "x")
    entities = [entity for _direction, entity, _relation in queries]
    top = max(entities.count(entity) for entity in set(entities[:100]))
    assert top > 200  # a uniform stream would give each entity about one hit
    assert {direction for direction, _e, _r in queries} == {"head", "tail"}


# ----------------------------------------------------------------------
# Spans: self time with nested and concurrent spans
# ----------------------------------------------------------------------
def span(span_id, parent, start, end, thread=1, layer="a", name="x"):
    return spans.Span(span_id, parent, layer, name, start, end, thread, 0)


def test_self_time_subtracts_nested_children():
    recorded = [span(1, 0, 0.0, 10.0), span(2, 1, 2.0, 5.0, name="y"), span(3, 2, 3.0, 4.0, name="z")]
    selfs = spans.self_times(recorded)
    assert selfs[(0, 1)] == pytest.approx(7.0)
    assert selfs[(0, 2)] == pytest.approx(2.0)
    assert selfs[(0, 3)] == pytest.approx(1.0)
    totals = spans.layer_totals(recorded)
    assert totals.covered_s == pytest.approx(10.0)
    assert totals.total_of("a", "x") == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_threads_apart():
    recorded = [
        span(1, 0, 0.0, 10.0, thread=1),
        # Two children that overlap (e.g. work done for this span on two threads).
        span(2, 1, 1.0, 4.0, thread=2, name="y"),
        span(3, 1, 3.0, 6.0, thread=3, name="y"),
        # A concurrent root span on another thread is not a child.
        span(4, 0, 0.0, 10.0, thread=4, layer="b"),
    ]
    selfs = spans.self_times(recorded)
    assert selfs[(0, 1)] == pytest.approx(5.0)
    assert selfs[(0, 4)] == pytest.approx(10.0)
    totals = spans.layer_totals(recorded)
    assert totals.layer("a") == pytest.approx(11.0)
    assert totals.layer("b") == pytest.approx(10.0)


def test_clip_keeps_only_the_measured_window():
    recorded = [span(1, 0, 0.0, 4.0), span(2, 0, 5.0, 9.0), span(3, 0, 10.0, 12.0)]
    totals = spans.layer_totals(recorded, window=(2.0, 10.0))
    assert totals.layer("a") == pytest.approx(6.0)
    assert totals.calls_of("a", "x") == 2


def test_tracer_keeps_one_stack_per_thread():
    tracer = spans.Tracer()

    def leaf():
        time.sleep(0.01)

    def outer():
        tracer.call("serving.service", "inner", leaf)

    threads = [
        threading.Thread(target=tracer.call, args=("serving.service", "request", outer)) for _ in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()
    by_id = {s.id: s for s in tracer.spans}
    roots = [s for s in tracer.spans if s.name == "request"]
    inners = [s for s in tracer.spans if s.name == "inner"]
    assert len(roots) == len(inners) == 2
    assert {by_id[s.parent].thread for s in inners} == {s.thread for s in inners}
    assert all(by_id[s.parent].name == "request" for s in inners)
    # The request span opened a request id that its child inherited.
    assert {s.request for s in inners} == {s.request for s in roots} and 0 not in {s.request for s in roots}


class Base:
    def work(self, value):
        return value + 1


class Derived(Base):
    def work(self, value):
        return super().work(value) * 2


def helper(value):
    return -value


def test_install_wraps_subclasses_and_module_functions_and_restores(tmp_path):
    tracer = spans.Tracer()
    restore = spans.install(
        tracer,
        patches=[("demo", "work", f"{__name__}:Base.work"), ("demo", "helper", f"{__name__}:helper")],
        preload=(),
    )
    try:
        assert Derived().work(1) == 4 and Base().work(1) == 2
        assert globals()["helper"](3) == -3
    finally:
        restore()
    assert not hasattr(Base.__dict__["work"], "__wrapped__")
    assert not hasattr(globals()["helper"], "__wrapped__")
    totals = spans.layer_totals(tracer.spans)
    # Derived.work calls Base.work through super(): one call, counted once.
    assert totals.calls_of("demo", "work") == 2 and totals.calls_of("demo", "helper") == 1
    written = spans.read_jsonl(tracer.write_jsonl(tmp_path / "spans.jsonl"))
    assert [(s.name, s.parent) for s in written] == [(s.name, s.parent) for s in tracer.spans]


# ----------------------------------------------------------------------
# compare verdicts
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "before, after, better, expected",
    [
        ([100, 101, 99, 100, 100], [80, 81, 79, 80, 80], "lower", "better"),
        ([100, 101, 99, 100, 100], [120, 121, 119, 120, 120], "lower", "worse"),
        ([100, 101, 99, 100, 100], [102, 103, 101, 102, 102], "lower", "same"),
        ([100, 101, 99, 100, 100], [120, 121, 119, 120, 120], "higher", "better"),
        # Spread wider than the bound, sides overlapping: unresolved.
        ([100, 140, 70, 120, 90], [95, 130, 75, 125, 85], "lower", "unresolved"),
        # Wide spread, but every run of one side beats every run of the other.
        ([100, 130, 110, 140, 120], [60, 80, 70, 90, 95], "lower", "better"),
        ([100, 130, 110, 140, 120], [150, 170, 160, 190, 180], "lower", "worse"),
    ],
)
def test_compare_verdicts(before, after, better, expected):
    assert bench.verdict(before, after, bound=0.1, better=better) == expected


def test_compare_rows_use_untraced_records_and_the_benchmark_bounds():
    def record(workload, value, trace=0):
        return {"workload": workload, "trace": trace, "metrics": {"p50_ms": {"value": value, "unit": "ms"}}}

    before = [record("serve_zipf", 4.0), record("serve_zipf", 4.1), record("serve_zipf", 99.0, trace=1)]
    after = [record("serve_zipf", 4.05), record("serve_zipf", 4.0)]
    rows = bench.compare_rows(before, after, BENCHMARK)
    assert [(row["workload"], row["metric"], row["runs"], row["verdict"]) for row in rows] == [
        ("serve_zipf", "p50_ms", "2/2", "same")
    ]


# ----------------------------------------------------------------------
# BENCHMARK.json and the harness agree
# ----------------------------------------------------------------------
def test_benchmark_file_names_exactly_what_the_harness_emits():
    assert [entry["name"] for entry in BENCHMARK["workloads"]] == list(catalog.WORKLOADS)
    assert {e["name"]: e["unit"] for e in BENCHMARK["end_to_end"]} == catalog.END_TO_END
    assert {e["name"]: e["unit"] for e in BENCHMARK["per_layer"]} == catalog.PER_LAYER
    e2e = catalog.end_to_end_metrics({name: 1.0 for name in catalog.END_TO_END})
    layers = catalog.per_layer_metrics(spans.layer_totals([]), 1.0, {})
    assert set(e2e) == set(catalog.END_TO_END) and set(layers) == set(catalog.PER_LAYER)


def test_benchmark_file_follows_its_format():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert BENCHMARK["command"][1] == "benchmarks/e2e/bench.py"
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in BENCHMARK[key]]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    assert all(len(e["why"]) <= 200 and set(e) == {"name", "why"} for e in BENCHMARK["workloads"])
    bounds = {e["name"]: e["bound"] for e in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(set(e) == {"name", "unit", "better", "bound"} for e in BENCHMARK["end_to_end"])
    assert all(set(e) == {"name", "unit", "better"} for e in BENCHMARK["per_layer"])


def test_stats_delta_restarts_at_a_reload():
    def stats(queries, hits, reloads):
        return {"queries_served": queries, "cache_hits": hits, "reloads": reloads,
                "operator_cache": {"hits": hits, "misses": queries - hits}, "timings": {}}

    same = workloads.stats_delta(stats(100, 10, 0), stats(300, 110, 0))
    assert same["queries"] == 200 and same["result_hit_ratio"] == pytest.approx(0.5)
    reloaded = workloads.stats_delta(stats(100, 10, 0), stats(40, 10, 1))
    assert reloaded["queries"] == 40 and reloaded["result_hit_ratio"] == pytest.approx(0.25)
