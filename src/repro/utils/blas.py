"""CPU and BLAS thread counts, and the scoring concurrency they allow.

A numpy call that reaches BLAS (the serving engine's GEMMs) runs on the
BLAS library's own thread pool, so a process that scores on several Python
threads at once runs ``callers x pool`` native threads.  On more of them
than there are cores the calls slow each other down instead of overlapping.
Two threads making 4-query filtered calls on one ComplEx engine (50k
entities, d=64, 2 vCPUs) served 327-338 calls/s side by side with a 1-thread
pool, but 121-123 with the default 2-thread pool, against 181-210 when they
took turns.  :func:`scoring_slots` turns the two counts into how many
scoring calls may run at once.

The thread count is read from numpy's bundled OpenBLAS with ``ctypes``; the
environment variables only say what the pool was asked for when numpy was
imported, not what it runs.
"""

from __future__ import annotations

import ctypes
import functools
import os
from pathlib import Path
from typing import Callable, Optional

#: Getter symbols of the bundled scipy-openblas, 64-bit and 32-bit integer builds.
_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")


def available_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


@functools.lru_cache(maxsize=None)
def _thread_getter() -> Optional[Callable[[], int]]:
    import numpy

    # Wheels keep the bundled library beside the package (``numpy.libs``) or
    # inside it (``numpy/.dylibs``); loading it again returns the handle
    # numpy already holds.
    package = Path(numpy.__file__).parent
    for directory in (package.parent / "numpy.libs", package / ".dylibs"):
        for library in sorted(directory.glob("*openblas*")):
            try:
                handle = ctypes.CDLL(str(library))
            except OSError:
                continue
            for symbol in _GETTERS:
                getter = getattr(handle, symbol, None)
                if getter is not None:
                    return getter
    return None


def blas_threads() -> Optional[int]:
    """Threads numpy's BLAS runs one call on, or ``None`` when it cannot be asked."""
    getter = _thread_getter()
    return int(getter()) if getter is not None else None


def scoring_slots() -> int:
    """How many BLAS-bound scoring calls may run at once without oversubscribing.

    ``max(1, cpus // blas_threads)``, and 1 when the BLAS library cannot be
    asked for its thread count.
    """
    threads = blas_threads()
    if not threads:
        return 1
    return max(1, available_cpus() // threads)
