"""Distributed work-queue execution: socket-RPC coordinator + workers.

:class:`QueueBackend` implements the :class:`~repro.core.execution.ExecutionBackend`
protocol as a *work queue*: each :meth:`~QueueBackend.run` call binds a
listening socket, dispatches the batch's :class:`~repro.core.execution.EvaluationTask`s
to whichever worker processes connect, and slots results back into task
order.  Workers may be spawned locally by the backend itself
(``num_workers``) and/or started on **other hosts** with the
``repro-autosf worker --connect host:port`` CLI entry point — the wire
protocol is the only coupling.

Wire protocol (frames are pickled, so a fixed ``port`` is for trusted
clusters only — never expose it to untrusted peers):

* with ``port=0`` (an ephemeral port no external worker can be told), the
  coordinator draws a per-batch secret and hands it to the workers it
  starts; a peer's first bytes must be that secret, checked before
  anything from the connection is unpickled, or the connection is closed;
* every frame is a 4-byte big-endian length prefix followed by a pickled
  ``dict`` with a ``"type"`` key;
* handshake: worker sends ``hello``, coordinator replies ``welcome``
  carrying the :class:`~repro.core.execution.EvaluationContext` (graph +
  training config, shipped once per connection, not once per task) and the
  heartbeat interval;
* work loop: worker sends ``ready`` to request a task, coordinator replies
  ``task`` (or ``shutdown`` when the batch is drained); the worker answers
  with ``result`` (or ``error`` if evaluation raised) and loops back to
  ``ready``;
* liveness: a daemon thread in the worker sends ``heartbeat`` frames; the
  coordinator closes connections silent for longer than
  ``heartbeat_timeout``.

Fault model: a task assigned to a worker that dies (connection lost,
heartbeat expired, evaluation raised) is re-queued and re-dispatched, up to
``max_retries`` re-dispatches per task; past that the batch fails with an
:class:`~repro.core.execution.ExecutionError` naming the candidate.  If no
worker is available for ``worker_timeout`` seconds while tasks remain, the
batch fails rather than hanging forever.  Dead *local* workers are
respawned (within a bounded budget) while work remains.

Determinism: every task carries its own per-candidate seed
(:func:`~repro.core.execution.derive_candidate_seed`), so results are
bit-identical to :class:`~repro.core.execution.SerialBackend` regardless of
worker count, scheduling or failure order.  ``on_result`` streams each
outcome as it arrives (serialized through one lock), so
:class:`~repro.core.store.EvaluationStore` checkpointing keeps working.

Local worker processes for the *initial* fleet are forked before any
coordinator thread starts (cheap, shares the parent's pages); replacements
spawned mid-batch use the ``spawn`` start method because forking a process
with live threads is not safe.
"""

from __future__ import annotations

import hmac
import multiprocessing
import os
import pickle
import secrets
import socket
import struct
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.core.execution import (
    EvaluationContext,
    EvaluationOutcome,
    EvaluationTask,
    ExecutionError,
    ResultCallback,
    evaluate_candidate,
)
from repro.obs import trace as obs_trace
from repro.obs.metrics import get_registry

__all__ = ["QueueBackend", "run_worker", "serve_worker"]

_HEADER = struct.Struct("!I")
#: Hard ceiling on a single frame; a length beyond this means a corrupt or
#: hostile stream, not a real message.
_MAX_FRAME_BYTES = 1 << 30


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def send_frame(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Write one length-prefixed pickled frame."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    chunks: List[bytes] = []
    while count:
        chunk = sock.recv(count)
        if not chunk:
            return None
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on clean EOF."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > _MAX_FRAME_BYTES:
        raise ExecutionError(
            f"queue protocol: frame of {length} bytes exceeds the "
            f"{_MAX_FRAME_BYTES}-byte limit (corrupt stream?)"
        )
    payload = _recv_exact(sock, length)
    if payload is None:
        return None
    return pickle.loads(payload)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def run_worker(
    host: str,
    port: int,
    *,
    secret: Optional[bytes] = None,
    _kill_after_tasks: Optional[int] = None,
) -> int:
    """Connect to a coordinator, evaluate tasks until shut down.

    Returns the number of tasks completed.  Raises ``OSError`` /
    ``ConnectionError`` if the coordinator is unreachable or goes away
    mid-handshake; a clean ``shutdown`` frame (or EOF after the handshake)
    ends the session normally.  ``secret`` is the batch secret a port-0
    coordinator gave the workers it started; it is sent before any frame.

    ``_kill_after_tasks`` is a fault-injection hook for tests and the CI
    smoke: after completing that many tasks the worker calls ``os._exit``
    *immediately after accepting* its next task — i.e. it dies holding a
    task, exercising the coordinator's re-dispatch path.
    """
    sock = socket.create_connection((host, port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    send_lock = threading.Lock()
    stop = threading.Event()

    def send(message: Dict[str, Any]) -> None:
        with send_lock:
            send_frame(sock, message)

    completed = 0
    try:
        if secret is not None:
            sock.sendall(secret)
        send({"type": "hello", "pid": os.getpid(), "host": socket.gethostname()})
        welcome = recv_frame(sock)
        if welcome is None or welcome.get("type") != "welcome":
            raise ConnectionError(
                "queue worker: coordinator closed the connection during handshake"
            )
        context: EvaluationContext = welcome["context"]
        heartbeat_interval = float(welcome.get("heartbeat_interval", 1.0))

        def heartbeat() -> None:
            while not stop.wait(heartbeat_interval):
                try:
                    send({"type": "heartbeat"})
                except OSError:
                    return

        threading.Thread(target=heartbeat, daemon=True, name="queue-heartbeat").start()

        while True:
            send({"type": "ready"})
            message = recv_frame(sock)
            if message is None or message.get("type") == "shutdown":
                return completed
            if message.get("type") != "task":
                continue
            if _kill_after_tasks is not None and completed >= _kill_after_tasks:
                os._exit(1)  # die holding the task we just accepted
            index = int(message["index"])
            task: EvaluationTask = message["task"]
            try:
                outcome = evaluate_candidate(context, task)
            except Exception as error:  # noqa: BLE001 - forwarded to coordinator
                send(
                    {
                        "type": "error",
                        "index": index,
                        "error": f"{type(error).__name__}: {error}",
                    }
                )
            else:
                send({"type": "result", "index": index, "outcome": outcome})
                completed += 1
    finally:
        stop.set()
        try:
            sock.close()
        except OSError:  # pragma: no cover - close best-effort
            pass


def serve_worker(
    host: str,
    port: int,
    *,
    reconnect_interval: float = 0.5,
    max_idle: float = 60.0,
) -> int:
    """Worker daemon loop: serve batches, reconnecting between them.

    The coordinator binds one listener *per batch* and shuts workers down
    when the batch drains, so a long-lived external worker must reconnect
    for the next round.  Keeps retrying until the coordinator has been
    unreachable for ``max_idle`` seconds (``max_idle=0`` retries forever).
    Returns the total number of tasks completed.
    """
    total = 0
    deadline = None if max_idle <= 0 else time.monotonic() + max_idle
    while deadline is None or time.monotonic() < deadline:
        try:
            total += run_worker(host, port)
        except (ConnectionError, OSError):
            time.sleep(reconnect_interval)
            continue
        # A batch was served (possibly with zero tasks for us): the
        # coordinator exists, so push the idle deadline out and re-poll.
        if max_idle > 0:
            deadline = time.monotonic() + max_idle
        time.sleep(reconnect_interval)
    return total


def _local_worker_main(
    host: str, port: int, secret: Optional[bytes], kill_after: Optional[int]
) -> None:
    """Entry point for backend-spawned local worker processes."""
    try:
        run_worker(host, port, secret=secret, _kill_after_tasks=kill_after)
    except (ConnectionError, OSError):  # pragma: no cover - racy shutdown
        pass


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
class _WorkerConn:
    """Coordinator-side state for one connected worker."""

    __slots__ = ("sock", "address", "send_lock", "last_seen", "in_flight", "closed")

    def __init__(self, sock: socket.socket, address) -> None:
        self.sock = sock
        self.address = address
        self.send_lock = threading.Lock()
        self.last_seen = time.monotonic()
        self.in_flight: Optional[int] = None
        self.closed = False


class _Coordinator:
    """One batch's dispatch state machine (threads + socket listener)."""

    def __init__(
        self,
        backend: "QueueBackend",
        context: EvaluationContext,
        tasks: Sequence[EvaluationTask],
        on_result: Optional[ResultCallback],
    ) -> None:
        self.backend = backend
        self.context = context
        self.tasks = list(tasks)
        self.on_result = on_result
        # Only workers this coordinator starts can learn an ephemeral port,
        # so every legitimate peer of a port-0 batch holds this secret.
        self._secret = secrets.token_bytes(32) if backend.port == 0 else None

        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._pending: deque = deque(range(len(self.tasks)))
        self._attempts = [0] * len(self.tasks)
        self._outcomes: List[Optional[EvaluationOutcome]] = [None] * len(self.tasks)
        self._completed = 0
        self._failure: Optional[BaseException] = None
        self._done = False
        self._conns: List[_WorkerConn] = []
        self._socks: List[socket.socket] = []
        self._threads: List[threading.Thread] = []
        self._result_lock = threading.Lock()
        self._last_worker_activity = time.monotonic()

        self._procs: List[multiprocessing.process.BaseProcess] = []
        self._respawns = 0
        self._respawn_budget = backend.num_workers * (backend.max_retries + 1)

        self.workers_connected = 0
        self.redispatched = 0

        registry = get_registry()
        self._m_dispatched = registry.counter(
            "repro_search_dispatch_tasks_total",
            help="Tasks dispatched to queue workers (including re-dispatches).",
        )
        self._m_redispatch = registry.counter(
            "repro_search_dispatch_redispatch_total",
            help="Tasks re-queued after a lost worker or a failed attempt.",
        )
        self._m_workers = registry.counter(
            "repro_search_dispatch_workers_total",
            help="Worker connections accepted by the queue coordinator.",
        )
        self._m_lost = registry.counter(
            "repro_search_dispatch_lost_workers_total",
            help="Worker connections lost before their batch completed.",
        )

    # -- lifecycle ------------------------------------------------------
    def run(self) -> List[EvaluationOutcome]:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.backend.host, self.backend.port))
        listener.listen(max(8, self.backend.num_workers * 2))
        self._listener = listener
        self.port = listener.getsockname()[1]

        # Fork the initial local fleet *before* any coordinator thread
        # exists (forking with live threads risks deadlock).
        self._spawn_local_workers(initial=True)

        accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="queue-accept"
        )
        accept_thread.start()
        self._threads.append(accept_thread)
        try:
            self._monitor()
        finally:
            self._shutdown()
        if self._failure is not None:
            raise self._failure
        return list(self._outcomes)  # type: ignore[arg-type]

    def _spawn_local_workers(self, initial: bool) -> None:
        if initial:
            ctx = multiprocessing.get_context("fork" if hasattr(os, "fork") else "spawn")
            count = self.backend.num_workers
        else:
            ctx = multiprocessing.get_context("spawn")
            live = sum(1 for proc in self._procs if proc.is_alive())
            count = min(
                self.backend.num_workers - live,
                self._respawn_budget - self._respawns,
            )
        connect_host = self.backend.connect_host
        for worker_index in range(count):
            kill_after = (
                self.backend._kill_after_tasks.get(worker_index) if initial else None
            )
            if not initial:
                self._respawns += 1
            proc = ctx.Process(
                target=_local_worker_main,
                args=(connect_host, self.port, self._secret, kill_after),
                daemon=True,
                name=f"queue-worker-{len(self._procs)}",
            )
            proc.start()
            self._procs.append(proc)

    def _monitor(self) -> None:
        total = len(self.tasks)
        heartbeat_timeout = self.backend.heartbeat_timeout
        worker_timeout = self.backend.worker_timeout
        while True:
            with self._cond:
                if self._failure is not None or self._completed == total:
                    return
                self._cond.wait(0.05)
                if self._failure is not None or self._completed == total:
                    return
                now = time.monotonic()
                stale = [
                    conn
                    for conn in self._conns
                    if now - conn.last_seen > heartbeat_timeout
                ]
                any_conn = bool(self._conns)
                last_activity = self._last_worker_activity
            # Socket teardown outside the lock: the handler thread observes
            # the dead socket, re-queues the in-flight task and deregisters.
            for conn in stale:
                conn.closed = True
                _close_socket(conn.sock)

            live_local = any(proc.is_alive() for proc in self._procs)
            if (
                not live_local
                and self.backend.num_workers > 0
                and self._respawns < self._respawn_budget
            ):
                self._spawn_local_workers(initial=False)
                live_local = True
            if not any_conn and not live_local:
                if time.monotonic() - last_activity > worker_timeout:
                    with self._cond:
                        if self._failure is None and self._completed < total:
                            names = _candidate_names(
                                self.tasks,
                                [
                                    index
                                    for index, outcome in enumerate(self._outcomes)
                                    if outcome is None
                                ],
                            )
                            self._failure = ExecutionError(
                                f"queue backend: no workers available after "
                                f"{worker_timeout:.1f}s with outstanding "
                                f"candidate(s) {names}"
                            )
                            self._cond.notify_all()

    def _shutdown(self) -> None:
        with self._cond:
            self._done = True
            conns = list(self._conns)
            self._cond.notify_all()
        for conn in conns:
            try:
                with conn.send_lock:
                    send_frame(conn.sock, {"type": "shutdown"})
            except OSError:
                pass
        _close_socket(self._listener)
        deadline = time.monotonic() + 5.0
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        # Every accepted socket, so a handler still waiting for a peer's
        # secret or hello wakes up too.
        with self._cond:
            socks = list(self._socks)
        for sock in socks:
            _close_socket(sock)
        for thread in self._threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()) + 1.0)

    # -- accept / per-worker handler -----------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                sock, address = self._listener.accept()
            except OSError:
                return
            with self._cond:
                self._socks.append(sock)
            thread = threading.Thread(
                target=self._serve_worker,
                args=(sock, address),
                daemon=True,
                name=f"queue-conn-{address}",
            )
            thread.start()
            self._threads.append(thread)

    def _serve_worker(self, sock: socket.socket, address) -> None:
        conn: Optional[_WorkerConn] = None
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._secret is not None:
                sock.settimeout(self.backend.heartbeat_timeout)
                token = _recv_exact(sock, len(self._secret))
                if token is None or not hmac.compare_digest(token, self._secret):
                    return
                sock.settimeout(None)
            hello = recv_frame(sock)
            if hello is None or hello.get("type") != "hello":
                return
            conn = _WorkerConn(sock, address)
            with self._cond:
                self._conns.append(conn)
                self._last_worker_activity = time.monotonic()
                self.workers_connected += 1
                self._cond.notify_all()
            self._m_workers.inc()
            with conn.send_lock:
                send_frame(
                    sock,
                    {
                        "type": "welcome",
                        "context": self.context,
                        "heartbeat_interval": self.backend.heartbeat_interval,
                    },
                )
            while True:
                message = recv_frame(sock)
                if message is None:
                    return
                kind = message.get("type")
                if kind == "heartbeat":
                    with self._cond:
                        conn.last_seen = time.monotonic()
                elif kind == "ready":
                    index = self._next_task(conn)
                    if index is None:
                        with conn.send_lock:
                            send_frame(sock, {"type": "shutdown"})
                        return
                    with conn.send_lock:
                        send_frame(
                            sock,
                            {"type": "task", "index": index, "task": self.tasks[index]},
                        )
                    self._m_dispatched.inc()
                elif kind == "result":
                    self._deliver(conn, int(message["index"]), message["outcome"])
                elif kind == "error":
                    self._task_errored(
                        conn, int(message["index"]), str(message.get("error"))
                    )
        except (OSError, ConnectionError, EOFError, pickle.PickleError):
            pass
        finally:
            if conn is not None:
                self._drop_conn(conn)
            _close_socket(sock)

    def _next_task(self, conn: _WorkerConn) -> Optional[int]:
        with self._cond:
            while True:
                if (
                    self._done
                    or conn.closed
                    or self._failure is not None
                    or self._completed == len(self.tasks)
                ):
                    return None
                while self._pending:
                    index = self._pending.popleft()
                    if self._outcomes[index] is not None:
                        continue  # a re-queued copy that since completed
                    conn.in_flight = index
                    conn.last_seen = time.monotonic()
                    return index
                self._cond.wait(0.05)

    def _deliver(self, conn: _WorkerConn, index: int, outcome: EvaluationOutcome) -> None:
        with self._cond:
            conn.in_flight = None
            now = time.monotonic()
            conn.last_seen = now
            self._last_worker_activity = now
            if self._outcomes[index] is not None:
                self._cond.notify_all()
                return  # duplicate from a presumed-dead worker
            self._outcomes[index] = outcome
        if self.on_result is not None:
            try:
                with self._result_lock:
                    self.on_result(index, outcome)
            except BaseException as error:
                # Recorded (and re-raised) by the monitor thread; raising
                # here too would only die unhandled in this handler thread.
                with self._cond:
                    if self._failure is None:
                        self._failure = error
                    self._cond.notify_all()
                return
        with self._cond:
            self._completed += 1
            self._cond.notify_all()

    def _task_errored(self, conn: _WorkerConn, index: int, error: str) -> None:
        with self._cond:
            conn.in_flight = None
            conn.last_seen = time.monotonic()
            self._requeue_locked(index, f"evaluation raised {error}")
            self._cond.notify_all()

    def _drop_conn(self, conn: _WorkerConn) -> None:
        with self._cond:
            if conn in self._conns:
                self._conns.remove(conn)
            lost_mid_batch = not self._done and self._completed < len(self.tasks)
            if conn.in_flight is not None:
                self._requeue_locked(conn.in_flight, "worker connection lost mid-task")
                conn.in_flight = None
            self._cond.notify_all()
        if lost_mid_batch:
            self._m_lost.inc()

    def _requeue_locked(self, index: int, reason: str) -> None:
        """Re-queue a lost task, or fail the batch when retries are spent.

        Caller must hold ``self._cond``.
        """
        if self._outcomes[index] is not None:
            return
        self._attempts[index] += 1
        self.redispatched += 1
        self._m_redispatch.inc()
        if self._attempts[index] > self.backend.max_retries:
            if self._failure is None:
                structure = self.tasks[index].structure
                self._failure = ExecutionError(
                    f"queue backend lost candidate "
                    f"{structure.name or structure.blocks!r} "
                    f"{self._attempts[index]} time(s), last because {reason}; "
                    f"retry budget (max_retries={self.backend.max_retries}) "
                    f"exhausted"
                )
        else:
            self._pending.append(index)


def _close_socket(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


def _candidate_names(tasks: Sequence[EvaluationTask], indices: Sequence[int]) -> str:
    return ", ".join(
        repr(tasks[index].structure.name or tasks[index].structure.blocks)
        for index in indices
    )


class QueueBackend:
    """Socket-RPC work-queue execution backend.

    Parameters
    ----------
    num_workers:
        Local worker processes to spawn per batch.  ``0`` means rely
        entirely on external workers connecting to ``host:port``
        (``repro-autosf worker --connect host:port``).
    host / port:
        Coordinator bind address.  ``port=0`` picks an ephemeral port and
        admits only the local workers that hold the batch secret; external
        workers need a fixed, routable ``host:port``.
    heartbeat_interval / heartbeat_timeout:
        Workers send a heartbeat every ``heartbeat_interval`` seconds; a
        connection silent for ``heartbeat_timeout`` seconds is declared
        dead and its in-flight task re-queued.
    worker_timeout:
        If no worker (connected or local-alive) exists for this many
        seconds while tasks remain, the batch fails with
        :class:`~repro.core.execution.ExecutionError` instead of hanging.
    max_retries:
        Re-dispatch budget per task; past it the batch fails with an
        error naming the candidate.

    Results are bit-identical to :class:`~repro.core.execution.SerialBackend`
    (per-task seeds, index-slotted results) regardless of worker count or
    failure order.
    """

    name = "queue"

    def __init__(
        self,
        num_workers: int = 2,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float = 15.0,
        worker_timeout: float = 60.0,
        max_retries: int = 2,
        _kill_after_tasks: Optional[Union[int, Dict[int, int]]] = None,
    ) -> None:
        if num_workers < 0:
            raise ValueError(f"QueueBackend: num_workers must be >= 0, got {num_workers}")
        if heartbeat_interval <= 0:
            raise ValueError("QueueBackend: heartbeat_interval must be positive")
        if heartbeat_timeout <= heartbeat_interval:
            raise ValueError(
                "QueueBackend: heartbeat_timeout must exceed heartbeat_interval"
            )
        if worker_timeout <= 0:
            raise ValueError("QueueBackend: worker_timeout must be positive")
        if max_retries < 0:
            raise ValueError("QueueBackend: max_retries must be >= 0")
        self.num_workers = num_workers
        self.host = host
        self.port = port
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.worker_timeout = worker_timeout
        self.max_retries = max_retries
        if _kill_after_tasks is None:
            self._kill_after_tasks: Dict[int, int] = {}
        elif isinstance(_kill_after_tasks, int):
            self._kill_after_tasks = {0: _kill_after_tasks}
        else:
            self._kill_after_tasks = dict(_kill_after_tasks)

    @property
    def connect_host(self) -> str:
        """Address local workers dial (bind-any addresses map to loopback)."""
        return "127.0.0.1" if self.host in ("", "0.0.0.0") else self.host

    def run(
        self,
        context: EvaluationContext,
        tasks: Sequence[EvaluationTask],
        on_result: Optional[ResultCallback] = None,
    ) -> List[EvaluationOutcome]:
        tasks = list(tasks)
        if not tasks:
            return []
        with obs_trace.span(
            "search.dispatch",
            attrs={"backend": "queue", "tasks": len(tasks)},
        ) as dispatch_span:
            coordinator = _Coordinator(self, context, tasks, on_result)
            outcomes = coordinator.run()
            dispatch_span.attrs["workers_connected"] = coordinator.workers_connected
            dispatch_span.attrs["redispatched"] = coordinator.redispatched
        return outcomes

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return (
            f"QueueBackend(num_workers={self.num_workers}, "
            f"host={self.host!r}, port={self.port})"
        )
