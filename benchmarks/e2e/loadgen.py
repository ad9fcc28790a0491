"""Load generation for the serving workloads: query streams, open and closed loops.

Load comes from one process with at most two threads, each holding at most
one connection at a time.  The server speaks HTTP/1.0 and closes every
connection after its response, so each request opens a fresh connection.

* An **open loop** sends request ``i`` at its due time ``t0 + i / rate``
  whether or not earlier requests have finished.  Latency is measured from
  the due time, so a request that had to wait for a free sender thread pays
  that wait; ``lag`` is how late the generator actually sent it.
* A **closed loop** keeps both threads busy back to back for a fixed time and
  reports completed requests per second.

Query streams are seeded and consumed phase after phase, so no phase replays
the queries of an earlier one.
"""

from __future__ import annotations

import itertools
import json
import math
import socket
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

HOST = "127.0.0.1"

#: Percentiles a tail may be reported at, in per-mille, highest first.
TAIL_PERMILLE = (999, 990, 950, 900, 750, 500)

#: A tail is reported only where at least this many samples lie beyond it.
MIN_BEYOND = 10

#: ``p90_ms`` and closed-loop rates are medians over consecutive windows of
#: at least ``MIN_WINDOW`` samples; p90 is the highest percentile a window
#: of 100 supports.
MIN_WINDOW = 100
CLOSED_WINDOWS = 3

#: Stream queries are generated in fixed blocks, so the k-th query does not
#: depend on how the stream was split into phases.
STREAM_BLOCK = 4096


def tail_permille(count: int) -> Optional[int]:
    """Highest percentile (per-mille) with at least ``MIN_BEYOND`` samples beyond it."""
    for permille in TAIL_PERMILLE:
        if count * (1000 - permille) >= MIN_BEYOND * 1000:
            return permille
    return None


def percentile(values: Sequence[float], permille: int) -> float:
    """Linear-interpolated percentile of ``values`` (``permille`` / 10 percent)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), permille / 10.0))


def windows(values: Sequence[float], count: int) -> List[Sequence[float]]:
    """``values`` cut into ``count`` consecutive windows of near-equal size."""
    bounds = [round(index * len(values) / count) for index in range(count + 1)]
    return [values[bounds[index]:bounds[index + 1]] for index in range(count)]


def windowed_p90(values: Sequence[float]) -> float:
    """p90 per consecutive window of ``MIN_WINDOW`` or more values; the median.

    A stall of the machine or a reload slows a few consecutive ops, which
    moves the p90 of the windows it falls into but not their median.
    """
    parts = windows(values, max(1, len(values) // MIN_WINDOW))
    return statistics.median(percentile(part, 900) for part in parts)


def latency_summary(latencies_s: Sequence[float]) -> Dict[str, object]:
    """Latencies in seconds, in order of occurrence, summarized in ms.

    ``p50_ms`` and the windowed ``p90_ms`` are the benchmark's metrics; the
    whole sample's highest percentile with ``MIN_BEYOND`` samples beyond it
    is reported beside them as ``tail``/``tail_ms``.
    """
    count = len(latencies_s)
    summary: Dict[str, object] = {"samples": count}
    permille = tail_permille(count)
    if permille is None:
        summary["p50_ms"] = summary["p90_ms"] = f"unmeasured ({count} samples)"
        return summary
    summary["p50_ms"] = percentile(latencies_s, 500) * 1000.0
    summary["p90_ms"] = (
        windowed_p90(latencies_s) * 1000.0 if count >= MIN_WINDOW else f"unmeasured ({count} samples)"
    )
    summary["tail"] = f"p{permille / 10:g}"
    summary["tail_ms"] = percentile(latencies_s, permille) * 1000.0
    return summary


# ----------------------------------------------------------------------
# Query streams
# ----------------------------------------------------------------------
class QueryStream:
    """A seeded, endless stream of ``(direction, entity, relation)`` queries.

    ``zipf`` gives the Zipf exponent of entity and relation popularity (the
    popular ids are a seeded permutation, not simply the lowest ones);
    ``None`` draws both uniformly.  ``take`` hands out the next queries and
    records which stream positions each phase consumed.
    """

    def __init__(
        self,
        seed: int,
        num_entities: int,
        num_relations: int,
        zipf: Optional[float] = None,
    ) -> None:
        self.rng = np.random.default_rng(seed)
        self.num_entities = int(num_entities)
        self.num_relations = int(num_relations)
        self._entity_table = self._zipf_table(num_entities, zipf)
        self._relation_table = self._zipf_table(num_relations, zipf)
        self._buffer: List[Tuple[str, int, int]] = []
        self._handed_out: Set[Tuple[str, int, int]] = set()
        self.position = 0
        self.phases: List[Tuple[str, int, int]] = []

    def _zipf_table(self, size: int, exponent: Optional[float]) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """(cdf over popularity ranks, id of each rank), or ``None`` for uniform."""
        if exponent is None:
            return None
        weights = 1.0 / np.arange(1, size + 1, dtype=np.float64) ** exponent
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        return cdf, self.rng.permutation(size)

    def _draw(self, table: Optional[Tuple[np.ndarray, np.ndarray]], size: int) -> np.ndarray:
        if table is None:
            return self.rng.integers(0, size, size=STREAM_BLOCK)
        cdf, ids = table
        ranks = np.searchsorted(cdf, self.rng.random(STREAM_BLOCK), side="right")
        return ids[np.minimum(ranks, size - 1)]

    def _next(self, count: int) -> List[Tuple[str, int, int]]:
        while len(self._buffer) < count:
            entities = self._draw(self._entity_table, self.num_entities)
            relations = self._draw(self._relation_table, self.num_relations)
            tails = self.rng.random(STREAM_BLOCK) < 0.5
            self._buffer.extend(
                ("tail" if is_tail else "head", int(entity), int(relation))
                for is_tail, entity, relation in zip(tails, entities, relations)
            )
        queries, self._buffer = self._buffer[:count], self._buffer[count:]
        return queries

    def _record(self, phase: str, consumed: int, queries: Sequence[Tuple[str, int, int]]) -> None:
        self.phases.append((phase, self.position, self.position + consumed))
        self.position += consumed
        self._handed_out.update(queries)

    def take(self, count: int, phase: str) -> List[Tuple[str, int, int]]:
        """The next ``count`` queries of the stream, recorded under ``phase``."""
        queries = self._next(count)
        self._record(phase, count, queries)
        return queries

    def take_unseen(self, count: int, phase: str) -> List[Tuple[str, int, int]]:
        """The next ``count`` distinct queries no earlier phase was handed."""
        fresh: List[Tuple[str, int, int]] = []
        consumed = 0
        seen = set(self._handed_out)
        while len(fresh) < count:
            query = self._next(1)[0]
            consumed += 1
            if query not in seen:
                seen.add(query)
                fresh.append(query)
        self._record(phase, consumed, fresh)
        return fresh


def query_payload(queries: Sequence[Tuple[str, int, int]], top_k: int, filtered: bool) -> Dict[str, object]:
    """The ``POST /query`` body for one request."""
    return {
        "queries": [
            {"direction": d, "entity": e, "relation": r, "top_k": top_k, "filtered": filtered}
            for d, e, r in queries
        ]
    }


# ----------------------------------------------------------------------
# HTTP over raw sockets (the server closes every connection)
# ----------------------------------------------------------------------
def http_request(
    port: int, method: str, path: str, body: bytes = b"", timeout_s: float = 10.0
) -> Tuple[int, bytes]:
    """One request on a fresh connection; returns ``(status, body)``."""
    head = (
        f"{method} {path} HTTP/1.0\r\nHost: {HOST}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode("ascii")
    with socket.create_connection((HOST, port), timeout=timeout_s) as connection:
        connection.sendall(head + body)
        chunks = []
        while True:
            chunk = connection.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    response = b"".join(chunks)
    header, _, payload = response.partition(b"\r\n\r\n")
    status_line = header.split(b"\r\n", 1)[0].split()
    if len(status_line) < 2:
        raise ConnectionError(f"malformed HTTP response: {response[:80]!r}")
    return int(status_line[1]), payload


def post_json(port: int, path: str, payload: object, timeout_s: float = 30.0) -> Tuple[int, object]:
    status, body = http_request(
        port, "POST", path, json.dumps(payload).encode("utf-8"), timeout_s=timeout_s
    )
    return status, json.loads(body) if body else None


def get_json(port: int, path: str, timeout_s: float = 10.0) -> Tuple[int, object]:
    status, body = http_request(port, "GET", path, timeout_s=timeout_s)
    return status, json.loads(body) if body else None


def query_sender(port: int) -> Callable[[bytes], bool]:
    """A ``send(body) -> ok`` function posting pre-encoded bodies to ``/query``."""

    def send(body: bytes) -> bool:
        status, _payload = http_request(port, "POST", "/query", body)
        return status == 200

    return send


# ----------------------------------------------------------------------
# Open and closed loops
# ----------------------------------------------------------------------
@dataclass
class PhaseResult:
    """What one load phase measured.  Times are ``time.perf_counter`` seconds."""

    name: str
    kind: str
    rate: float = 0.0
    started: float = 0.0
    finished: float = 0.0
    sent: int = 0
    ok: int = 0
    errors: List[str] = field(default_factory=list)
    latencies_s: List[float] = field(default_factory=list)
    service_s: List[float] = field(default_factory=list)
    lags_s: List[float] = field(default_factory=list)
    completed_at: List[float] = field(default_factory=list)
    client_cpu_s: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.finished - self.started

    @property
    def client_cpu_util(self) -> float:
        return self.client_cpu_s / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second: the median over equal time windows."""
        count = max(1, min(CLOSED_WINDOWS, len(self.completed_at) // MIN_WINDOW))
        width = self.wall_s / count
        if width <= 0:
            return 0.0
        per_window = [0] * count
        for done in self.completed_at:
            per_window[min(int((done - self.started) / width), count - 1)] += 1
        return statistics.median(per_window) / width

    def summary(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "kind": self.kind,
            "wall_s": self.wall_s,
            "sent": self.sent,
            "ok": self.ok,
            "failed": self.sent - self.ok,
            "client_cpu_util": self.client_cpu_util,
        }
        if self.kind == "open":
            row["rate_rps"] = self.rate
            row["latency_from_due"] = latency_summary(self.latencies_s)
            row["lag_p50_ms"] = percentile(self.lags_s, 500) * 1000.0 if self.lags_s else 0.0
            lag_tail = tail_permille(len(self.lags_s))
            row["lag_tail_ms"] = (
                percentile(self.lags_s, lag_tail) * 1000.0 if lag_tail else "unmeasured"
            )
        else:
            row["throughput_rps"] = self.throughput_rps
        if self.errors:
            row["first_error"] = self.errors[0]
        return row


def _record_failure(result: PhaseResult, lock: threading.Lock, error: str) -> None:
    with lock:
        result.errors.append(error)


def open_loop(
    name: str,
    send: Callable[[bytes], bool],
    bodies: Sequence[bytes],
    rate: float,
    threads: int = 2,
    lead_s: float = 0.05,
) -> PhaseResult:
    """Send ``bodies[i]`` at ``t0 + i / rate`` from ``threads`` sender threads."""
    result = PhaseResult(name=name, kind="open", rate=float(rate))
    count = len(bodies)
    due = [0.0] * count
    sent_at = [0.0] * count
    done_at = [0.0] * count
    succeeded = [False] * count
    lock = threading.Lock()
    indices = itertools.count()
    cpu_before = time.process_time()
    start = time.perf_counter() + lead_s
    for index in range(count):
        due[index] = start + index / rate

    def sender() -> None:
        while True:
            index = next(indices)
            if index >= count:
                return
            delay = due[index] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent_at[index] = time.perf_counter()
            try:
                succeeded[index] = send(bodies[index])
                if not succeeded[index]:
                    _record_failure(result, lock, f"request {index}: non-200 status")
            except OSError as error:
                _record_failure(result, lock, f"request {index}: {error!r}")
            done_at[index] = time.perf_counter()

    workers = [threading.Thread(target=sender, name=f"{name}-sender-{n}") for n in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    result.client_cpu_s = time.process_time() - cpu_before
    result.started = start
    result.finished = max(done_at) if count else start
    result.sent = count
    result.ok = sum(succeeded)
    for index in range(count):
        result.lags_s.append(sent_at[index] - due[index])
        if succeeded[index]:
            result.latencies_s.append(done_at[index] - due[index])
            result.service_s.append(done_at[index] - sent_at[index])
    return result


def closed_loop(
    name: str,
    send: Callable[[bytes], bool],
    bodies: Sequence[bytes],
    duration_s: Optional[float],
    threads: int = 2,
) -> PhaseResult:
    """Keep ``threads`` senders busy back to back for ``duration_s``.

    With ``duration_s=None`` the loop sends every body once and stops;
    otherwise running out of bodies before the deadline is a failure.
    """
    result = PhaseResult(name=name, kind="closed")
    lock = threading.Lock()
    indices = itertools.count()
    outcomes: List[Tuple[float, float, bool]] = []
    cpu_before = time.process_time()
    start = time.perf_counter()
    deadline = math.inf if duration_s is None else start + duration_s

    def sender() -> None:
        while time.perf_counter() < deadline:
            index = next(indices)
            if index >= len(bodies):
                if duration_s is not None:
                    _record_failure(result, lock, "closed loop ran out of prepared requests")
                return
            began = time.perf_counter()
            try:
                ok = send(bodies[index])
                if not ok:
                    _record_failure(result, lock, f"request {index}: non-200 status")
            except OSError as error:
                ok = False
                _record_failure(result, lock, f"request {index}: {error!r}")
            with lock:
                outcomes.append((began, time.perf_counter(), ok))

    workers = [threading.Thread(target=sender, name=f"{name}-sender-{n}") for n in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    result.client_cpu_s = time.process_time() - cpu_before
    result.started = start
    result.finished = max((done for _began, done, _ok in outcomes), default=start)
    result.sent = len(outcomes)
    result.ok = sum(1 for _began, _done, ok in outcomes if ok)
    result.service_s = [done - began for began, done, ok in outcomes if ok]
    result.completed_at = sorted(done for _began, done, ok in outcomes if ok)
    return result
