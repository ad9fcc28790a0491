"""Structured trace spans: per-process JSONL files, cross-process merge.

A :class:`TraceRecorder` writes one JSON object per *completed* span to a
per-process file ``trace-<pid>-<n>.jsonl`` inside its directory.  Spans
carry ``trace_id`` / ``span_id`` / ``parent_id``, the span ``name``, a
``start`` taken from ``time.monotonic()`` (``CLOCK_MONOTONIC`` — shared
by every process on the host, so starts are directly comparable across
pids), the ``duration`` in seconds, the writing ``pid`` and free-form
``attrs``.

Fork-awareness is the load-bearing property: the recorder checks
``os.getpid()`` before every write and transparently opens a fresh file
(and id namespace) in a forked child, so search workers forked by
``QueueBackend`` and ``ServingFleet`` workers inherit the parent's recorder via ``fork``
and still produce their own clean per-process timelines.
:func:`merge_trace_dir` then orders every file's events into one timeline
by monotonic start, and :func:`summarize_spans` folds that timeline into
the per-phase breakdown printed by ``repro trace summarize``.

Like the metrics registry, tracing has a process-global default — an
inert :data:`NULL_TRACER` — so instrumentation sites call the module
level :func:`span` / :func:`record_span` unconditionally and pay ~nothing
until :func:`configure_tracing` installs a real recorder.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

__all__ = [
    "Span",
    "TraceRecorder",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "configure_tracing",
    "span",
    "record_span",
    "merge_trace_dir",
    "summarize_spans",
    "write_merged_trace",
    "TRACE_FILE_GLOB",
    "MERGED_TRACE_FILENAME",
]

TRACE_FILE_GLOB = "trace-*.jsonl"
MERGED_TRACE_FILENAME = "trace.jsonl"


class Span:
    """Mutable handle yielded by :meth:`TraceRecorder.span`.

    ``attrs`` may be extended inside the ``with`` block for values only
    known at the end of the phase (e.g. the epoch's mean loss).
    """

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start", "duration", "attrs")

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        start: float,
        attrs: Dict[str, Any],
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.duration = 0.0
        self.attrs = attrs

    def to_event(self, pid: int) -> Dict[str, Any]:
        event: Dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "pid": pid,
        }
        if self.attrs:
            event["attrs"] = self.attrs
        return event


class _NullSpan:
    """Inert span handle: accepts attr writes, records nothing."""

    __slots__ = ("attrs",)

    def __init__(self) -> None:
        self.attrs: Dict[str, Any] = {}


class TraceRecorder:
    """Writes completed spans as JSONL, one file per contributing process."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._handle: Optional[io.TextIOBase] = None
        self._pid: Optional[int] = None
        self._sequence = 0

    # -- per-process file management ------------------------------------
    def _ensure_handle(self, pid: int) -> io.TextIOBase:
        """Open (or re-open after a fork) this process's trace file."""
        if self._handle is None or self._pid != pid:
            if self._handle is not None:
                # Forked child inherited the parent's handle: drop it
                # without closing (closing would flush parent buffers).
                self._handle = None
            self.directory.mkdir(parents=True, exist_ok=True)
            # A pid can recycle across fleet generations; the monotonic
            # suffix keeps files distinct without any cross-process state.
            suffix = 0
            while True:
                path = self.directory / f"trace-{pid}-{suffix}.jsonl"
                try:
                    handle = open(path, "x", encoding="utf-8")
                    break
                except FileExistsError:
                    suffix += 1
            self._handle = handle
            self._pid = pid
            self._sequence = 0
        return self._handle

    def _next_id(self, pid: int) -> str:
        self._sequence += 1
        return f"{pid:x}-{self._sequence:x}"

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _write(self, event: Dict[str, Any]) -> None:
        pid = os.getpid()
        line = json.dumps(event, sort_keys=True)
        with self._lock:
            handle = self._ensure_handle(pid)
            handle.write(line + "\n")
            handle.flush()

    # -- recording API ---------------------------------------------------
    @contextmanager
    def span(
        self, name: str, attrs: Optional[Dict[str, Any]] = None
    ) -> Iterator[Span]:
        """Record a span covering the ``with`` block; yields the handle."""
        pid = os.getpid()
        with self._lock:
            self._ensure_handle(pid)  # reset id namespace after a fork
            span_id = self._next_id(pid)
        stack = self._stack()
        parent = stack[-1] if stack else None
        handle = Span(
            name=name,
            trace_id=parent.trace_id if parent else span_id,
            span_id=span_id,
            parent_id=parent.span_id if parent else None,
            start=time.monotonic(),
            attrs=dict(attrs) if attrs else {},
        )
        stack.append(handle)
        try:
            yield handle
        finally:
            handle.duration = time.monotonic() - handle.start
            if stack and stack[-1] is handle:
                stack.pop()
            self._write(handle.to_event(pid))

    def record(
        self,
        name: str,
        start: float,
        duration: float,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record an already-measured leaf span (no stack push).

        Used by :class:`~repro.utils.timing.TimingRecorder` so a phase's
        trace event and its Table VII sample come from the *same* clock
        reading and therefore agree exactly.
        """
        pid = os.getpid()
        with self._lock:
            self._ensure_handle(pid)
            span_id = self._next_id(pid)
        stack = self._stack()
        parent = stack[-1] if stack else None
        handle = Span(
            name=name,
            trace_id=parent.trace_id if parent else span_id,
            span_id=span_id,
            parent_id=parent.span_id if parent else None,
            start=start,
            attrs=dict(attrs) if attrs else {},
        )
        handle.duration = duration
        self._write(handle.to_event(pid))

    def close(self) -> None:
        with self._lock:
            if self._handle is not None and self._pid == os.getpid():
                self._handle.close()
            self._handle = None
            self._pid = None


class NullTracer:
    """No-op tracer: the process default until tracing is configured."""

    _SPAN = _NullSpan()

    @contextmanager
    def span(
        self, name: str, attrs: Optional[Dict[str, Any]] = None
    ) -> Iterator[_NullSpan]:
        yield self._SPAN

    def record(
        self,
        name: str,
        start: float,
        duration: float,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        pass

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()

AnyTracer = Union[TraceRecorder, NullTracer]

_global_lock = threading.Lock()
_global_tracer: AnyTracer = NULL_TRACER


def get_tracer() -> AnyTracer:
    return _global_tracer


def set_tracer(tracer: Optional[AnyTracer]) -> AnyTracer:
    """Install ``tracer`` globally; returns the previous one.

    Passing ``None`` restores the inert :data:`NULL_TRACER`.
    """
    global _global_tracer
    with _global_lock:
        previous = _global_tracer
        _global_tracer = tracer if tracer is not None else NULL_TRACER
    return previous


def configure_tracing(directory: Union[str, Path]) -> TraceRecorder:
    """Create a :class:`TraceRecorder` on ``directory`` and install it."""
    recorder = TraceRecorder(directory)
    set_tracer(recorder)
    return recorder


def span(name: str, attrs: Optional[Dict[str, Any]] = None):
    """Record a span on the process-global tracer (no-op when disabled)."""
    return get_tracer().span(name, attrs)


def record_span(
    name: str,
    start: float,
    duration: float,
    attrs: Optional[Dict[str, Any]] = None,
) -> None:
    get_tracer().record(name, start, duration, attrs)


# ---------------------------------------------------------------------------
# Merge + summarize
# ---------------------------------------------------------------------------


def _read_trace_file(path: Path) -> List[Dict[str, Any]]:
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{line_number}: invalid trace event ({error})"
                ) from None
            events.append(event)
    return events


def merge_trace_dir(directory: Union[str, Path]) -> List[Dict[str, Any]]:
    """All spans from every per-process file, ordered by monotonic start.

    ``time.monotonic`` is ``CLOCK_MONOTONIC``, which all processes on a
    host share, so sorting by ``start`` interleaves spans from different
    pids into one consistent timeline.  Ties break by (pid, span_id) for
    determinism.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"no trace directory at {directory}")
    events: List[Dict[str, Any]] = []
    for path in sorted(directory.glob(TRACE_FILE_GLOB)):
        events.extend(_read_trace_file(path))
    events.sort(
        key=lambda e: (e.get("start", 0.0), e.get("pid", 0), e.get("span_id", ""))
    )
    return events


def write_merged_trace(
    directory: Union[str, Path], output: Optional[Union[str, Path]] = None
) -> Path:
    """Merge per-process files into one ordered ``trace.jsonl``."""
    directory = Path(directory)
    events = merge_trace_dir(directory)
    output_path = Path(output) if output is not None else directory / MERGED_TRACE_FILENAME
    with open(output_path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True) + "\n")
    return output_path


def summarize_spans(events: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per-phase breakdown: span name -> count / total / mean / pids."""
    summary: Dict[str, Dict[str, Any]] = {}
    for event in events:
        name = event.get("name", "<unnamed>")
        entry = summary.setdefault(
            name, {"count": 0, "total": 0.0, "mean": 0.0, "pids": set()}
        )
        entry["count"] += 1
        entry["total"] += float(event.get("duration", 0.0))
        entry["pids"].add(event.get("pid", 0))
    for entry in summary.values():
        entry["mean"] = entry["total"] / entry["count"] if entry["count"] else 0.0
        entry["pids"] = sorted(entry["pids"])
    return summary
