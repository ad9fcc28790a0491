"""Full-sort top-k selection: the parity oracle for ``repro.kge.topk``.

:func:`repro.kge.topk.top_k_indices` partitions before it sorts;
:func:`top_k_reference` sorts every score.  Both order candidates by
descending score, ties by ascending index, so ``tests/test_serving_engine.py``
asserts they agree exactly, ties included.
"""

from __future__ import annotations

import numpy as np


def top_k_reference(scores: np.ndarray, k: int) -> np.ndarray:
    """Full-sort reference for :func:`repro.kge.topk.top_k_indices`."""
    scores = np.asarray(scores)
    if scores.ndim != 1:
        raise ValueError("scores must be 1-D (one row of a score matrix)")
    count = scores.shape[0]
    k = max(0, min(int(k), count))
    order = np.lexsort((np.arange(count), -scores))
    return order[:k].astype(np.int64)
