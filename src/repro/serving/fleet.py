"""Pre-forked multi-worker serving fleet over a memmap-shared artifact.

A single :class:`~repro.serving.service.QueryServer` keeps the full
embedding arrays private to one Python process; scaling it by running N
copies multiplies the resident memory N times.  The fleet instead follows
the shared-store/worker split of DGL's ``contrib/graph_store.py``:

* the **parent** validates the artifact, binds the listener socket, and
  forks N workers; a known-positive index, when served, was saved beside
  the artifact beforehand (:func:`prepare_filter_index`);
* each **worker** runs the same :class:`~repro.serving.service.EngineReloader`
  recipe as a single server, with ``mmap=True`` and *after* the fork, so its
  embedding and filter-index pages are file-backed and shared through the
  OS page cache rather than copy-on-write duplicates of the parent heap.
  Workers adopt the inherited listener (one kernel accept queue
  load-balances connections across the fleet), serve through
  :meth:`~repro.serving.service.QueryServer.run`, and report per-worker
  ``/stats`` including resident/shared/private memory;
* SIGTERM/SIGINT to the parent is forwarded to every worker, each of which
  stops accepting, drains in-flight requests, and exits; the parent reaps
  them and closes the listener.
* SIGHUP to the parent (or :meth:`ServingFleet.signal_reload`) is forwarded
  too: each worker rebuilds its engine stack from the artifact directory
  off-thread through the same recipe and
  atomically swaps it in — a fleet-wide artifact hot-swap with zero dropped
  requests (publish the new generation at the same path, e.g. by flipping a
  symlink, then send SIGHUP).

``repro-autosf serve --workers N`` is the CLI entry point; an in-memory
engine built on the same artifact remains the exact parity oracle (the
serving load benchmark asserts bit-identical answers).
"""

from __future__ import annotations

import os
import signal
import socket
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Union

from repro.obs.metrics import MetricsRegistry, set_registry
from repro.serving.artifact import ModelArtifact, load_artifact
from repro.serving.engine import (
    FILTER_INDEX_DIRNAME,
    FilterIndex,
    save_filter_index,
)
from repro.serving.service import SERVER_SIGNALS, EngineReloader, QueryServer
from repro.utils.config import ConfigError

PathLike = Union[str, Path]

#: Sanity ceiling for ``--workers`` — far above any useful fan-out for a
#: GIL-bound HTTP worker, low enough to catch typos like ``--workers 1000``.
MAX_WORKERS = 64

#: Valid TCP port range for ``--port`` (0 asks the OS for a free port).
PORT_RANGE = (0, 65535)


def validate_serve_options(
    port: int, workers: int, micro_batch_window_ms: float = 0.0
) -> None:
    """Validate ``serve`` flags, raising :class:`ConfigError` naming the flag.

    The CLI funnels these through before any socket or fork work so a typo
    surfaces as one readable line instead of a bare ``OSError`` stack trace.
    """
    low, high = PORT_RANGE
    if not low <= int(port) <= high:
        raise ConfigError(
            f"--port must be in {low}..{high} (0 picks a free port), got {port}"
        )
    if not 1 <= int(workers) <= MAX_WORKERS:
        raise ConfigError(f"--workers must be in 1..{MAX_WORKERS}, got {workers}")
    if micro_batch_window_ms < 0:
        raise ConfigError(
            f"--micro-batch-window must be non-negative (0 mounts no batcher, "
            f"any positive value mounts one), got {micro_batch_window_ms}"
        )


def prepare_filter_index(index: FilterIndex, artifact_dir: PathLike) -> Path:
    """Save a known-positive index beside the artifact for workers to mmap."""
    return save_filter_index(index, Path(artifact_dir) / FILTER_INDEX_DIRNAME)


class ServingFleet:
    """Parent-side controller: bind once, fork N workers, drain on SIGTERM.

    ``reloader`` is the recipe every worker builds its engine stack from;
    the fleet only overrides where it loads (``mmap=True``) and which
    metrics registry it reports to (each worker's own).
    """

    def __init__(
        self,
        reloader: EngineReloader,
        host: str = "127.0.0.1",
        port: int = 8080,
        workers: int = 1,
        quiet: bool = True,
    ) -> None:
        validate_serve_options(port, workers)
        if not hasattr(os, "fork"):  # pragma: no cover - Windows guard
            raise ConfigError("--workers needs os.fork(); this platform has none")
        self.reloader = reloader
        self.host = host
        self.port = int(port)
        self.workers = int(workers)
        self.quiet = quiet
        self.listener: Optional[socket.socket] = None
        self.worker_pids: List[int] = []
        # Parent-side validation: a broken artifact should fail here, once,
        # not in N children after the fork.
        self.artifact: ModelArtifact = load_artifact(reloader.artifact_dir, mmap=True)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> int:
        """Bind the listener and fork the workers; returns the bound port."""
        if self.listener is not None:
            raise RuntimeError("fleet already started")
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind((self.host, self.port))
        self.listener.listen(max(128, self.workers * 32))
        # Every idle worker wakes on a new connection; the ones that lose
        # the accept race must get EAGAIN and return to their poll loop.  A
        # worker parked in a blocking accept() never notices its SIGTERM.
        self.listener.setblocking(False)
        self.port = self.listener.getsockname()[1]
        for worker_id in range(self.workers):
            pid = os.fork()
            if pid == 0:  # pragma: no cover - child process, exits via os._exit
                status = 1
                try:
                    self._run_worker(worker_id)
                    status = 0
                except BaseException:
                    import traceback

                    traceback.print_exc()
                finally:
                    # Never fall back into the parent's code (pytest, CLI
                    # epilogue, atexit handlers) from a forked child.
                    os._exit(status)
            self.worker_pids.append(pid)
        return self.port

    def _run_worker(self, worker_id: int) -> None:  # pragma: no cover - child process
        # Building the engine stack takes a while, and until QueryServer.run
        # installs its handlers a SIGTERM or SIGHUP would kill this worker.
        # Blocked here, a signal sent during start-up stays pending until
        # run() can drain or reload.
        signal.pthread_sigmask(signal.SIG_BLOCK, SERVER_SIGNALS)
        # Each worker owns a real metrics registry (installed as this
        # process's global sink) so its GET /metrics exposes live
        # per-worker counters and latency histograms.
        registry = MetricsRegistry()
        set_registry(registry)
        # The recipe loads *after* the fork: np.load(mmap_mode="r") pages
        # are file-backed and shared across the fleet via the page cache,
        # whereas the parent's arrays would be duplicated copy-on-write.
        reloader = replace(self.reloader, mmap=True, registry=registry)
        QueryServer(
            (self.host, self.port),
            reloader,
            listen_socket=self.listener,
            worker_id=worker_id,
            registry=registry,
            quiet=self.quiet,
        ).run()

    def terminate(self, signum: int = signal.SIGTERM) -> None:
        """Forward a shutdown signal to every live worker."""
        for pid in self.worker_pids:
            try:
                os.kill(pid, signum)
            except ProcessLookupError:
                pass

    def signal_reload(self) -> None:
        """Ask every worker to hot-swap to the artifact now on disk.

        Publish the new generation at the recipe's ``artifact_dir`` first
        (atomic symlink flip or in-place rewrite), then call this; each
        worker rebuilds off-thread and swaps atomically, so queries keep
        being answered — by the old generation until the instant of its
        swap.
        """
        self.terminate(signal.SIGHUP)

    def wait(self) -> int:
        """Reap all workers; returns the worst exit status."""
        worst = 0
        for pid in self.worker_pids:
            try:
                _, status = os.waitpid(pid, 0)
            except ChildProcessError:
                continue
            code = os.waitstatus_to_exitcode(status)
            worst = max(worst, abs(code))
        self.worker_pids = []
        return worst

    def close(self) -> None:
        if self.listener is not None:
            self.listener.close()
            self.listener = None

    def run(self) -> int:  # pragma: no cover - blocking loop, CLI entry
        """Start, forward SIGTERM/SIGINT to the workers, wait, clean up."""
        port = self.start()
        if not self.quiet:
            pids = ", ".join(str(pid) for pid in self.worker_pids)
            print(
                f"fleet of {self.workers} worker(s) on http://{self.host}:{port} "
                f"(pids {pids}, generation {self.artifact.generation}, "
                f"schema v{self.artifact.schema_version}) — POST /query, "
                f"POST /reload, GET /stats, GET /healthz, GET /metrics; "
                f"SIGHUP hot-swaps the artifact",
                file=sys.stderr,
            )

        def forward(signum: int, _frame: object) -> None:
            self.terminate(signum)

        previous = {
            signum: signal.signal(signum, forward)
            for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP)
        }
        try:
            while True:
                try:
                    status = self.wait()
                    break
                except InterruptedError:  # pragma: no cover - signal race
                    continue
        except KeyboardInterrupt:  # pragma: no cover - Ctrl-C during wait
            self.terminate(signal.SIGINT)
            status = self.wait()
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            self.close()
        return status


def wait_until_healthy(
    host: str, port: int, timeout_s: float = 10.0
) -> None:
    """Block until ``GET /healthz`` answers (fleet start-up barrier)."""
    from http.client import HTTPConnection

    deadline = time.monotonic() + timeout_s
    last_error: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            connection = HTTPConnection(host, port, timeout=2.0)
            try:
                connection.request("GET", "/healthz")
                if connection.getresponse().status == 200:
                    return
            finally:
                connection.close()
        except OSError as error:
            last_error = error
        time.sleep(0.05)
    raise TimeoutError(
        f"no healthy worker on {host}:{port} within {timeout_s:.0f}s: {last_error}"
    )
