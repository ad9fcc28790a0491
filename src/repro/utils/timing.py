"""Wall-clock timing helpers used for the running-time table (Table VII).

:class:`TimingRecorder` is also the bridge into the telemetry layer
(:mod:`repro.obs`): every sample it records is additionally observed into
a phase-labelled latency histogram on its registry, from the *same*
reading, so Table VII attribution and ``/metrics`` histograms agree
exactly.  Only samples timed by :meth:`TimingRecorder.measure` also become
a leaf trace span on the process-global tracer; a duration handed to
:meth:`TimingRecorder.add` (such as the evaluator's ``train`` and
``evaluate`` phases) has no start time of its own and emits no span.  With
the default null registry and null tracer those extra sinks are no-op
method calls.

A recorder is safe to share between threads: the serving engine's handler
threads time their phases on one recorder concurrently.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

#: One histogram family shared by every recorder: the phase is a label,
#: so ``/metrics`` exposes e.g. ``repro_phase_seconds_bucket{phase="score"}``.
PHASE_HISTOGRAM = "repro_phase_seconds"


class _Phase:
    """Running statistics of one phase: sample count, total and last sample."""

    __slots__ = ("count", "total", "last")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.last = 0.0


class TimingRecorder:
    """Accumulates named timing samples as running per-phase statistics.

    The greedy search uses one recorder to attribute time to the filter,
    predictor, training and evaluation phases, mirroring Table VII.  Each
    phase keeps only ``(count, total, last)``, so a recorder that lives as
    long as a serving process stays constant-size however many samples it
    sees; the distribution goes to the phase histogram instead.

    Parameters
    ----------
    registry:
        Metrics registry the samples are mirrored into (as the
        :data:`PHASE_HISTOGRAM` latency histogram, one series per phase
        name).  Defaults to the process-global registry at construction
        time — a no-op ``NullRegistry`` unless observability is enabled.
    """

    def __init__(self, registry: Optional["_metrics.AnyRegistry"] = None) -> None:
        self._phases: Dict[str, _Phase] = {}
        self.registry = registry if registry is not None else _metrics.get_registry()
        self._histograms: Dict[str, object] = {}
        # Guards ``_phases`` and ``_histograms``; the histograms lock themselves.
        self._lock = threading.Lock()

    def _accumulate(self, name: str, seconds: float) -> None:
        with self._lock:
            phase = self._phases.get(name)
            if phase is None:
                phase = self._phases[name] = _Phase()
            phase.count += 1
            phase.total += seconds
            phase.last = seconds
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = self.registry.histogram(
                    PHASE_HISTOGRAM,
                    help="Per-phase wall-clock latency in seconds.",
                    labels={"phase": name},
                )
        histogram.observe(seconds)

    @contextmanager
    def measure(self, name: str) -> Iterator[None]:
        # time.monotonic is CLOCK_MONOTONIC (same clock the tracer uses),
        # so the emitted span slots into the cross-process timeline.
        start = time.monotonic()
        try:
            yield
        finally:
            elapsed = time.monotonic() - start
            self._accumulate(name, elapsed)
            _trace.get_tracer().record(name, start, elapsed)

    def add(self, name: str, seconds: float) -> None:
        self._accumulate(name, float(seconds))

    def last(self, name: str) -> float:
        """The most recent sample recorded under ``name``.

        Raises ``KeyError`` when no sample has been recorded yet, so callers
        never silently read a phantom 0.0 measurement.
        """
        phase = self._phases.get(name)
        if phase is None:
            raise KeyError(f"no timing samples recorded for {name!r}")
        return phase.last

    def total(self, name: str) -> float:
        phase = self._phases.get(name)
        return phase.total if phase is not None else 0.0

    def mean(self, name: str) -> float:
        phase = self._phases.get(name)
        return phase.total / phase.count if phase is not None else 0.0

    def count(self, name: str) -> int:
        phase = self._phases.get(name)
        return phase.count if phase is not None else 0

    def names(self) -> List[str]:
        return sorted(self._phases)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Return ``{name: {total, mean, count}}`` for every recorded phase.

        One consistent reading: no sample lands halfway through it.
        """
        with self._lock:
            return {
                name: {"total": phase.total, "mean": phase.total / phase.count,
                       "count": phase.count}
                for name, phase in sorted(self._phases.items())
            }
