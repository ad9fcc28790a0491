"""Streamed epochs replayed in memory: the parity oracle for ``TripleStream``.

:meth:`repro.datasets.pipeline.TripleStream.epoch` never materializes a
split; :func:`stream_epoch_reference` takes the whole split in memory,
replays the same RNG stream over global indices and slices the result into
batches.  ``tests/test_dataset_pipeline.py`` asserts the two yield
bit-identical batches.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.datasets.errors import DatasetError
from repro.datasets.pipeline import _epoch_shard_permutation


def stream_epoch_reference(
    triples: np.ndarray,
    shard_counts: Sequence[int],
    batch_size: int,
    seed: int,
    epoch: int = 0,
    drop_last: bool = False,
) -> List[np.ndarray]:
    """In-memory oracle for ``TripleStream.epoch`` — bit-identical batches.

    Given the materialized split and the manifest's shard counts, replays
    the same RNG stream (the epoch's shard visiting order, then the
    per-shard mixing permutation draws) over global indices and slices the
    concatenated order into batches.
    """
    triples = np.asarray(triples)
    counts = [int(count) for count in shard_counts]
    if sum(counts) != triples.shape[0]:
        raise DatasetError(
            f"shard_counts sum to {sum(counts)} but the split holds {triples.shape[0]} triples"
        )
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    rng = np.random.default_rng((int(seed), int(epoch)))
    pieces: List[np.ndarray] = []
    for shard_index in rng.permutation(len(counts)):
        shard_index = int(shard_index)
        pieces.append(
            offsets[shard_index] + _epoch_shard_permutation(counts[shard_index], rng)
        )
    if pieces:
        order = np.concatenate(pieces)
    else:
        order = np.zeros(0, dtype=np.int64)
    batches: List[np.ndarray] = []
    limit = order.shape[0] if not drop_last else (order.shape[0] // batch_size) * batch_size
    for begin in range(0, limit, batch_size):
        batches.append(triples[order[begin : begin + batch_size]])
    return batches
