"""Query service: request/response schema, TSV batch mode, stdlib HTTP server.

Three consumption styles over the same :class:`InferenceEngine`:

* **Python** — build :class:`QueryRequest` objects and call
  :func:`answer_queries`;
* **batch files** — ``repro-autosf query --queries file.tsv`` reads one
  query per line in the triple-shaped format ``head<TAB>relation<TAB>?``
  (tail prediction) or ``?<TAB>relation<TAB>tail`` (head prediction), with
  entities/relations given as vocabulary labels or integer ids;
* **HTTP** — ``repro-autosf serve`` runs a dependency-free
  ``http.server``-based JSON endpoint: ``POST /query`` answers a single
  query or a ``{"queries": [...]}`` batch, ``POST /reload`` hot-swaps the
  served artifact generation, ``GET /stats`` reports the engine's
  latency/throughput counters (via ``TimingRecorder``), ``GET /healthz``
  describes the loaded artifact, and ``GET /metrics`` exposes the worker's
  metrics registry in the Prometheus text format.

An :class:`EngineReloader` is the one recipe for a served model: a
:class:`QueryServer` mounts the (artifact, engine, micro-batcher) stack it
builds at start-up and again on every hot swap, whether the server runs
alone (``serve --workers 1``) or as one worker of the pre-forked fleet in
:mod:`repro.serving.fleet`.  A fleet worker adopts the parent's listener
socket instead of binding its own, so N workers share one accept queue.
:meth:`QueryServer.run` is the one blocking loop for both; it shuts down
gracefully on SIGTERM/SIGINT: the listener closes first, then in-flight
handler threads are drained before the process exits.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.kge.scoring.base import HEAD, TAIL, validate_direction
from repro.obs import span
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    PROMETHEUS_CONTENT_TYPE,
    AnyRegistry,
    get_registry,
    render_prometheus,
)
from repro.serving.artifact import ModelArtifact, load_artifact
from repro.serving.engine import (
    FILTER_INDEX_DIRNAME,
    InferenceEngine,
    MicroBatcher,
    load_filter_index,
)

PathLike = Union[str, Path]

#: The placeholder marking the slot to predict in TSV query files.
QUERY_PLACEHOLDER = "?"

#: Largest POST body the HTTP handler reads (413 above it); a ``/query``
#: batch of tens of thousands of queries fits.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Most queries one ``/query`` request may carry (413 above it).  A body
#: under ``MAX_BODY_BYTES`` could otherwise hold ~10^5 full-vocabulary
#: queries and keep the engine lock for seconds; clients split larger
#: batches across requests.
MAX_QUERIES_PER_REQUEST = 1024

#: Seconds a connection may sit in one socket read or write before the
#: handler drops it, so a client that sends half a request cannot hold a
#: handler thread forever.
CONNECTION_TIMEOUT_S = 30.0


@dataclass
class QueryRequest:
    """One link-prediction query.

    ``entity`` is the *known* slot: the head for tail queries and the tail
    for head queries.  ``top_k`` bounds the answer length and ``filtered``
    removes known positives (requires an engine built with a filter index).
    """

    direction: str
    entity: int
    relation: int
    top_k: int = 10
    filtered: bool = False

    def __post_init__(self) -> None:
        validate_direction(self.direction)
        if self.top_k <= 0:
            raise ValueError("top_k must be positive")

    @classmethod
    def from_dict(cls, data: Dict[str, object], artifact: Optional[ModelArtifact] = None) -> "QueryRequest":
        """Build a request from a JSON payload, resolving labels via the artifact."""
        if not isinstance(data, dict):
            raise ValueError(f"a query must be a JSON object, got {type(data).__name__}")
        missing = [key for key in ("direction", "entity", "relation") if key not in data]
        if missing:
            raise ValueError(f"query is missing required fields: {', '.join(missing)}")
        for key in ("entity", "relation", "top_k"):
            value = data.get(key, 0)
            if isinstance(value, bool) or not isinstance(value, (int, str)):
                raise ValueError(
                    f"query field {key!r} must be an integer or a string, "
                    f"got {type(value).__name__}"
                )
        filtered = data.get("filtered", False)
        if not isinstance(filtered, bool):
            raise ValueError("query field 'filtered' must be a boolean")
        entity, relation = data["entity"], data["relation"]
        top_k = int(data.get("top_k", 10))
        if artifact is not None:
            try:
                entity = artifact.entity_id(entity)
                relation = artifact.relation_id(relation)
            except KeyError as error:
                raise ValueError(error.args[0]) from None
            # The engine clips top_k; here a value above the served entity
            # count is refused instead, or each distinct one would cache
            # another full-vocabulary answer.
            if "top_k" in data and top_k > artifact.num_entities:
                raise ValueError(
                    f"top_k {top_k} exceeds the {artifact.num_entities} served entities"
                )
        return cls(
            direction=str(data["direction"]),
            entity=int(entity),
            relation=int(relation),
            top_k=top_k,
            filtered=filtered,
        )

    def as_tuple(self) -> Tuple[str, int, int]:
        return (self.direction, self.entity, self.relation)


@dataclass
class QueryResponse:
    """The answer to one query: labeled predictions plus the batch latency."""

    request: QueryRequest
    predictions: List[Dict[str, object]] = field(default_factory=list)
    latency_ms: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "direction": self.request.direction,
            "entity": self.request.entity,
            "relation": self.request.relation,
            "top_k": self.request.top_k,
            "filtered": self.request.filtered,
            "predictions": self.predictions,
            "latency_ms": self.latency_ms,
        }


def answer_queries(
    engine: Union[InferenceEngine, MicroBatcher],
    requests: Sequence[QueryRequest],
    artifact: Optional[ModelArtifact] = None,
) -> List[QueryResponse]:
    """Answer requests through the engine, grouping compatible ones per batch.

    Queries are batched per (top_k, filtered) setting — the common case of a
    homogeneous batch goes through the engine in one call.  Labels are
    attached from the artifact's vocabulary when available.  ``engine`` may
    also be a :class:`MicroBatcher` (same ``query_batch`` signature), in
    which case concurrent callers coalesce into shared engine calls.
    """
    responses: List[Optional[QueryResponse]] = [None] * len(requests)
    groups: Dict[Tuple[int, bool], List[int]] = {}
    for position, request in enumerate(requests):
        groups.setdefault((request.top_k, request.filtered), []).append(position)

    for (top_k, filtered), positions in groups.items():
        started = time.perf_counter()
        batch = engine.query_batch(
            [requests[position].as_tuple() for position in positions],
            top_k=top_k,
            filtered=filtered,
        )
        latency_ms = (time.perf_counter() - started) * 1000.0
        for position, predictions in zip(positions, batch):
            labeled = [
                {
                    "entity": entity,
                    "label": artifact.entity_label(entity) if artifact else f"e{entity}",
                    "score": score,
                }
                for entity, score in predictions
            ]
            responses[position] = QueryResponse(
                request=requests[position],
                predictions=labeled,
                latency_ms=latency_ms,
            )
    return [response for response in responses if response is not None]


# ----------------------------------------------------------------------
# TSV batch mode
# ----------------------------------------------------------------------
def parse_query_line(
    line: str,
    artifact: ModelArtifact,
    top_k: int = 10,
    filtered: bool = False,
) -> QueryRequest:
    """Parse one triple-shaped query line.

    ``head<TAB>relation<TAB>?`` asks for tails, ``?<TAB>relation<TAB>tail``
    for heads; exactly one of the two entity slots must be the placeholder.
    """
    parts = line.split("\t")
    if len(parts) != 3:
        raise ValueError(
            f"expected 3 tab-separated fields (head, relation, tail), got {len(parts)}"
        )
    head, relation, tail = (part.strip() for part in parts)
    if (head == QUERY_PLACEHOLDER) == (tail == QUERY_PLACEHOLDER):
        raise ValueError(
            f"exactly one of head/tail must be {QUERY_PLACEHOLDER!r} "
            f"(got head={head!r}, tail={tail!r})"
        )
    if tail == QUERY_PLACEHOLDER:
        direction, entity = TAIL, artifact.entity_id(head)
    else:
        direction, entity = HEAD, artifact.entity_id(tail)
    return QueryRequest(
        direction=direction,
        entity=entity,
        relation=artifact.relation_id(relation),
        top_k=top_k,
        filtered=filtered,
    )


def read_query_file(
    path: PathLike,
    artifact: ModelArtifact,
    top_k: int = 10,
    filtered: bool = False,
) -> List[QueryRequest]:
    """Read a TSV query file, skipping blank lines and ``#`` comments."""
    requests: List[QueryRequest] = []
    source = Path(path)
    with source.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            try:
                requests.append(parse_query_line(line, artifact, top_k, filtered))
            except (KeyError, ValueError) as error:
                raise ValueError(f"{source}:{line_number}: {error}") from error
    return requests


def format_response_rows(responses: Sequence[QueryResponse], artifact: ModelArtifact) -> List[str]:
    """Render responses as TSV rows: query, rank, predicted entity, score."""
    rows = ["direction\tquery_entity\trelation\trank\tentity\tscore"]
    for response in responses:
        request = response.request
        relation_label = artifact.relation_label(request.relation)
        entity_label = artifact.entity_label(request.entity)
        for rank, prediction in enumerate(response.predictions, start=1):
            rows.append(
                f"{request.direction}\t{entity_label}\t{relation_label}\t"
                f"{rank}\t{prediction['label']}\t{prediction['score']:.6f}"
            )
    return rows


# ----------------------------------------------------------------------
# HTTP service
# ----------------------------------------------------------------------
def process_memory_info() -> Dict[str, int]:
    """Resident/shared/private bytes for this process (Linux ``/proc``).

    File-backed memmap pages show up as *shared* resident memory, so the
    honest per-worker footprint of the fleet is ``private_bytes`` — what the
    worker allocated itself, excluding the OS page cache it shares with its
    siblings.  Returns an empty dict on platforms without ``/proc``.
    """
    try:
        fields = Path("/proc/self/statm").read_text(encoding="ascii").split()
        page_size = os.sysconf("SC_PAGE_SIZE")
        resident = int(fields[1]) * page_size
        shared = int(fields[2]) * page_size
    except (OSError, IndexError, ValueError):  # pragma: no cover - non-Linux
        return {}
    return {
        "resident_bytes": resident,
        "shared_bytes": shared,
        "private_bytes": max(0, resident - shared),
    }


@dataclass
class EngineReloader:
    """The recipe that builds a served engine stack from an artifact directory.

    ``build()`` loads the artifact, its saved known-positive index
    (``<dir>/filter_index``, when present) and a fresh
    :class:`InferenceEngine` plus, with ``micro_batch``, a group-commit
    :class:`MicroBatcher` in front of it.  A :class:`QueryServer` mounts the
    first stack at start-up and builds every later one off to the side of
    the serving stack; the swap itself is :meth:`QueryServer.reload` — a
    single pointer flip, so in-flight queries finish on the old generation and
    nothing is ever answered by a half-built engine.  A single server loads
    in memory (``mmap=False``); fleet workers load with ``mmap=True``.
    """

    artifact_dir: PathLike
    mmap: bool = False
    batch_size: int = 256
    entity_chunk_size: int = 0
    result_cache_size: int = 4096
    micro_batch: bool = False
    registry: Optional[AnyRegistry] = None

    def build(
        self, artifact_dir: Optional[PathLike] = None
    ) -> Tuple[ModelArtifact, InferenceEngine, Optional[MicroBatcher]]:
        """Build a stack from ``artifact_dir`` (default: the last one built).

        Only a successful build replaces the remembered directory, so a
        failed ``/reload`` does not break the next SIGHUP.
        """
        target = Path(artifact_dir if artifact_dir is not None else self.artifact_dir)
        artifact = load_artifact(target, mmap=self.mmap)
        index_dir = target / FILTER_INDEX_DIRNAME
        filter_index = (
            load_filter_index(index_dir, mmap=self.mmap) if index_dir.is_dir() else None
        )
        engine = InferenceEngine.from_artifact(
            artifact,
            filter_index=filter_index,
            batch_size=self.batch_size,
            entity_chunk_size=self.entity_chunk_size,
            result_cache_size=self.result_cache_size,
            registry=self.registry,
        )
        batcher = MicroBatcher(engine) if self.micro_batch else None
        self.artifact_dir = target
        return artifact, engine, batcher


#: The signals :meth:`QueryServer.run` handles: SIGTERM/SIGINT drain, SIGHUP
#: reloads.
SERVER_SIGNALS = (signal.SIGTERM, signal.SIGINT, signal.SIGHUP)


class QueryServer(ThreadingHTTPServer):
    """A threading HTTP server that mounts the engine stack of a recipe.

    The server builds ``reloader.build()`` before it binds, and rebuilds
    through the same recipe on ``POST /reload`` and SIGHUP.  Pass
    ``listen_socket`` to adopt an already-bound, already-listening socket
    instead of binding ``address`` — the pre-fork fleet binds once in the
    parent and every worker adopts the inherited listener, sharing one
    kernel accept queue.  A ``/reload`` body may only name a sibling of the
    artifact the server started with (same resolved parent directory).
    """

    daemon_threads = True
    #: Drain in-flight handler threads in ``server_close()``.
    block_on_close = True

    def __init__(
        self,
        address: Tuple[str, int],
        reloader: EngineReloader,
        *,
        listen_socket: Optional[socket.socket] = None,
        worker_id: int = 0,
        registry: Optional[AnyRegistry] = None,
        quiet: bool = True,
    ) -> None:
        # Generations are published side by side; /reload accepts no
        # directory outside the one the first generation lives in.
        self.reload_root = Path(reloader.artifact_dir).resolve().parent
        # Build before binding: a broken artifact fails without a socket.
        artifact, engine, batcher = reloader.build()
        if listen_socket is not None:
            # Adopt the inherited listener: skip bind/listen entirely.
            super().__init__(address, QueryHandler, bind_and_activate=False)
            self.socket.close()
            self.socket = listen_socket
            self.server_address = listen_socket.getsockname()
            self.server_name = self.server_address[0]
            self.server_port = self.server_address[1]
        else:
            super().__init__(address, QueryHandler)
        # The engine stack is one tuple so a hot swap is a single pointer
        # flip: handler threads that already grabbed the old tuple finish
        # their request on the old generation, never on a mixed stack.
        self._mount: Tuple[InferenceEngine, ModelArtifact, Optional[MicroBatcher]] = (
            engine,
            artifact,
            batcher,
        )
        self.reloader = reloader
        self.reloads = 0
        self._reload_lock = threading.Lock()
        self.quiet = quiet
        self.worker_id = int(worker_id)
        # Monotonic clock for uptime: wall-clock steps (NTP, DST) must
        # never produce a negative or jumping uptime_s in /stats.
        self.started_monotonic = time.monotonic()
        self.requests_served = 0
        self.errors = 0
        # Handler threads increment the counters concurrently.
        self.counter_lock = threading.Lock()
        self._shutdown_requested = threading.Event()
        self.registry = registry if registry is not None else get_registry()
        worker_labels = {"worker_id": str(self.worker_id)}
        self._m_requests = self.registry.counter(
            "repro_http_requests_total",
            help="HTTP requests answered successfully.",
            labels=worker_labels,
        )
        self._m_errors = self.registry.counter(
            "repro_http_errors_total",
            help="HTTP requests answered with an error status.",
            labels=worker_labels,
        )
        self._m_uptime = self.registry.gauge(
            "repro_worker_uptime_seconds",
            help="Seconds since this worker's server started (monotonic).",
            labels=worker_labels,
        )
        self.registry.gauge(
            "repro_worker_info",
            help="Static worker identity (value is always 1).",
            labels={"worker_id": str(self.worker_id), "pid": str(os.getpid())},
        ).set(1)
        self._m_reloads = self.registry.counter(
            "repro_live_reloads_total",
            help="Successful artifact hot-swaps.",
            labels=worker_labels,
        )
        self._m_reload_seconds = self.registry.histogram(
            "repro_live_reload_seconds",
            help="Wall time to build and swap in a new artifact generation.",
            labels=worker_labels,
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self._m_generation = self.registry.gauge(
            "repro_live_generation",
            help="Artifact generation currently being served.",
            labels=worker_labels,
        )
        self._m_generation.set(artifact.generation)

    @property
    def engine(self) -> InferenceEngine:
        return self._mount[0]

    @property
    def artifact(self) -> ModelArtifact:
        return self._mount[1]

    @property
    def batcher(self) -> Optional[MicroBatcher]:
        return self._mount[2]

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self.started_monotonic

    def reload(self, artifact_dir: Optional[PathLike] = None) -> ModelArtifact:
        """Hot-swap to the artifact at ``artifact_dir`` (default: last one).

        The new engine stack is fully constructed *before* the swap; the
        swap itself is an atomic ``_mount`` rebind, so requests in flight
        keep the old generation and no request ever observes a half-built
        engine.  On any load/validation error the old stack stays mounted
        and the error propagates to the caller.
        """
        with self._reload_lock:
            started = time.perf_counter()
            with span("live.reload") as handle:
                artifact, engine, batcher = self.reloader.build(artifact_dir)
                # The old stack is not torn down: callers already inside it
                # (micro-batch followers included) drain on their own.
                self._mount = (engine, artifact, batcher)
                handle.attrs["generation"] = artifact.generation
                handle.attrs["worker_id"] = self.worker_id
            self.reloads += 1
            self._m_reloads.inc()
            self._m_reload_seconds.observe(time.perf_counter() - started)
            self._m_generation.set(artifact.generation)
            return artifact

    def _reload_from_signal(self) -> None:
        """Reload on a coordination signal; never kill the serving loop."""
        try:
            self.reload()
        except Exception as error:  # noqa: BLE001 - keep serving the old generation
            if not self.quiet:  # pragma: no cover - console logging only
                print(f"[serve] reload failed, keeping old generation: {error}")

    def request_shutdown(self) -> None:
        """Trigger a graceful stop from any thread or signal handler.

        Idempotent.  ``shutdown()`` blocks until the serving loop exits, so
        it must not run inline in a signal handler (which executes on the
        very thread running that loop) — hand it to a helper thread.
        """
        if self._shutdown_requested.is_set():
            return
        self._shutdown_requested.set()
        threading.Thread(target=self.shutdown, name="query-server-shutdown", daemon=True).start()

    def run(self) -> None:
        """Serve until shut down, then drain in-flight requests and close.

        The one blocking loop behind ``serve`` at every worker count: the
        single in-process server and each forked fleet worker.  On the main
        thread it also routes SIGTERM/SIGINT into :meth:`request_shutdown`
        and SIGHUP into an off-thread :meth:`reload` (the fleet parent
        forwards SIGHUP after publishing a new generation, and the main
        thread keeps answering on the old mount meanwhile).  Python only
        allows signal handlers on the main thread; a server run on another
        thread is stopped with :meth:`request_shutdown`.  The handlers are
        installed before :data:`SERVER_SIGNALS` are unblocked, so a caller
        that blocked them while building the server (a fleet worker does)
        has a signal sent during start-up delivered to its handler here.
        """
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGTERM, signal.SIGINT):
                signal.signal(signum, lambda *_args: self.request_shutdown())
            signal.signal(
                signal.SIGHUP,
                lambda *_args: threading.Thread(
                    target=self._reload_from_signal, name="query-server-reload", daemon=True
                ).start(),
            )
            signal.pthread_sigmask(signal.SIG_UNBLOCK, SERVER_SIGNALS)
        try:
            self.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self.server_close()

    def count_request(self, error: bool = False) -> None:
        with self.counter_lock:
            if error:
                self.errors += 1
            else:
                self.requests_served += 1
        if error:
            self._m_errors.inc()
        else:
            self._m_requests.inc()


class QueryHandler(BaseHTTPRequestHandler):
    """Handler: ``POST /query``, ``GET /stats|/healthz|/metrics``."""

    server: QueryServer

    # -- plumbing ---------------------------------------------------------
    def setup(self) -> None:
        # The per-connection socket timeout: http.server closes a connection
        # whose read or write stalls longer than this.
        self.timeout = CONNECTION_TIMEOUT_S
        super().setup()

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        if not self.server.quiet:  # pragma: no cover - console logging only
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: Dict[str, object]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self.server.count_request(error=True)
        self._send_json(status, {"error": message})

    def _read_body(self) -> Optional[bytes]:
        """The POST body, or ``None`` after answering a bad ``Content-Length``.

        The length is checked before anything is read: a negative one would
        block ``rfile.read`` until the client hangs up, and an oversized one
        would be buffered whole.  The unread body leaves the connection in
        an unknown state, so it is closed after the error.
        """
        declared = self.headers.get("Content-Length", "0")
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            self._send_error_json(400, f"invalid Content-Length: {declared!r}")
            return None
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            self._send_error_json(
                413, f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            )
            return None
        return self.rfile.read(length)

    # -- GET --------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server naming contract
        if self.path == "/healthz":
            self._send_json(
                200, {"status": "ok", "artifact": self.server.artifact.describe()}
            )
        elif self.path == "/stats":
            # One mount snapshot for the whole response, so a concurrent
            # reload cannot mix old-engine stats with a new artifact.
            engine, artifact, batcher = self.server._mount
            stats = engine.stats()
            stats["uptime_s"] = self.server.uptime_s
            stats["http_requests"] = self.server.requests_served
            stats["http_errors"] = self.server.errors
            stats["reloads"] = self.server.reloads
            stats["artifact"] = {
                "generation": artifact.generation,
                "schema_version": artifact.schema_version,
                "scoring_function": artifact.scoring_function.name,
            }
            stats["worker"] = {
                "worker_id": self.server.worker_id,
                "pid": os.getpid(),
                **process_memory_info(),
            }
            if batcher is not None:
                stats["micro_batcher"] = batcher.stats()
            self._send_json(200, stats)
        elif self.path == "/metrics":
            self.server.count_request()
            self.server._m_uptime.set(self.server.uptime_s)
            body = render_prometheus(self.server.registry).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", PROMETHEUS_CONTENT_TYPE)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self._send_error_json(
                404, f"unknown path {self.path!r}; try /query, /stats, /healthz, /metrics"
            )

    # -- POST -------------------------------------------------------------
    def _do_reload(self) -> None:
        body = self._read_body()
        if body is None:
            return
        try:
            payload = json.loads(body or b"{}")
            if not isinstance(payload, dict):
                raise ValueError("reload body must be a JSON object")
        except (ValueError, TypeError) as error:
            self._send_error_json(400, f"invalid JSON body: {error}")
            return
        artifact_dir = payload.get("artifact")
        if artifact_dir is not None:
            try:
                target_root = Path(artifact_dir).resolve().parent
            except (TypeError, ValueError, OSError, RuntimeError) as error:
                self._send_error_json(400, f"invalid artifact path {artifact_dir!r}: {error}")
                return
            if target_root != self.server.reload_root:
                self._send_error_json(
                    403,
                    f"reload target {artifact_dir!r} is outside {self.server.reload_root}; "
                    f"publish generations beside the served artifact",
                )
                return
        try:
            artifact = self.server.reload(artifact_dir)
        except Exception as error:  # noqa: BLE001 - old generation stays mounted
            self._send_error_json(500, f"reload failed, still serving the old generation: {error}")
            return
        self.server.count_request()
        self._send_json(
            200,
            {
                "status": "reloaded",
                "generation": artifact.generation,
                "schema_version": artifact.schema_version,
                "reloads": self.server.reloads,
            },
        )

    def do_POST(self) -> None:  # noqa: N802 - http.server naming contract
        if self.path == "/reload":
            self._do_reload()
            return
        if self.path != "/query":
            self._send_error_json(404, f"unknown path {self.path!r}; POST to /query")
            return
        body = self._read_body()
        if body is None:
            return
        try:
            payload = json.loads(body or b"{}")
        except (ValueError, TypeError) as error:
            self._send_error_json(400, f"invalid JSON body: {error}")
            return
        # One mount snapshot per request: a reload mid-request must not parse
        # with one generation and answer or label with another.
        engine, artifact, batcher = self.server._mount
        try:
            if isinstance(payload, dict) and "queries" in payload:
                raw_queries = payload["queries"]
                if not isinstance(raw_queries, list):
                    raise ValueError('"queries" must be a list of query objects')
                if len(raw_queries) > MAX_QUERIES_PER_REQUEST:
                    self._send_error_json(
                        413,
                        f"request carries {len(raw_queries)} queries; the limit is "
                        f"{MAX_QUERIES_PER_REQUEST} queries per request",
                    )
                    return
                requests = [QueryRequest.from_dict(entry, artifact) for entry in raw_queries]
                batched = True
            else:
                requests = [QueryRequest.from_dict(payload, artifact)]
                batched = False
        except ValueError as error:
            self._send_error_json(400, str(error))
            return
        try:
            responses = answer_queries(
                batcher if batcher is not None else engine, requests, artifact
            )
        except ValueError as error:
            self._send_error_json(400, str(error))
            return
        except Exception as error:  # noqa: BLE001 - answer, never drop the connection
            self._send_error_json(500, f"query failed: {error}")
            return
        self.server.count_request()
        if batched:
            self._send_json(200, {"responses": [response.to_dict() for response in responses]})
        else:
            self._send_json(200, responses[0].to_dict())
