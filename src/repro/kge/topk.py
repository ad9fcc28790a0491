"""Shared top-k selection and known-positive masking for prediction paths.

Both :meth:`repro.kge.model.KGEModel.predict_tails` /
:meth:`~repro.kge.model.KGEModel.predict_heads` (the naive per-query path,
kept as the serving parity oracle) and the batched
:class:`repro.serving.engine.InferenceEngine` select their answers through
the helpers below, so the two paths agree *exactly* — including on ties.

Tie-breaking is canonical everywhere: candidates are ordered by descending
score and, within equal scores, by ascending entity index.  That makes
top-k results deterministic and independent of which selection algorithm
produced them, which is what the engine-vs-oracle parity tests pin down;
``tests/topk_oracle.py`` keeps the full-sort selection they compare
:func:`top_k_indices` against.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.datasets.knowledge_graph import FilterIndex
from repro.kge.scoring.base import HEAD, TAIL, validate_direction


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` best scores: descending score, ties by lower index.

    Uses :func:`np.argpartition` so the cost is ``O(n + t log t)`` with ``t``
    the number of candidates at or above the k-th score, instead of the
    ``O(n log n)`` full sort.  Candidates tied at the selection boundary are
    resolved canonically (lowest index wins), so the result is identical to
    a full sort for every input.
    """
    scores = np.asarray(scores)
    if scores.ndim != 1:
        raise ValueError("scores must be 1-D (one row of a score matrix)")
    count = scores.shape[0]
    k = min(int(k), count)
    if k <= 0:
        return np.zeros(0, dtype=np.int64)
    if k < count:
        partitioned = np.argpartition(-scores, k - 1)[:k]
        threshold = scores[partitioned].min()
        # Everything strictly above the boundary survives; boundary ties are
        # re-resolved below so argpartition's arbitrary pick never leaks out.
        pool = np.flatnonzero(scores >= threshold)
    else:
        pool = np.arange(count, dtype=np.int64)
    # lexsort uses the *last* key as primary: sort by -score, then index.
    order = np.lexsort((pool, -scores[pool]))
    return pool[order[:k]].astype(np.int64)


def mask_known_scores(
    scores: np.ndarray,
    filter_index: FilterIndex,
    entities: np.ndarray,
    relations: np.ndarray,
    direction: str = TAIL,
) -> np.ndarray:
    """Set the scores of known answers to ``-inf`` (in place) and return them.

    ``scores`` is a ``(batch, num_entities)`` matrix; row ``i`` answers the
    query ``(entities[i], relations[i])`` in the given direction (the entity
    is the head for tail queries and the tail for head queries).  Known
    answers come from the precomputed CSR-style ``filter_index``, exactly as
    in filtered evaluation — except that *every* known answer is masked, not
    just the non-target ones, because serving wants unseen predictions.
    """
    validate_direction(direction)
    entities = np.asarray(entities, dtype=np.int64)
    relations = np.asarray(relations, dtype=np.int64)
    if direction == TAIL:
        rows, cols = filter_index.known_tail_pairs(entities, relations)
    else:
        rows, cols = filter_index.known_head_pairs(entities, relations)
    if rows.size:
        scores[rows, cols] = -np.inf
    return scores


def select_predictions(
    scores: np.ndarray,
    k: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Top-k (indices, scores) of one score row, dropping masked candidates.

    Entries at ``-inf`` (masked known positives) never appear in the result,
    so a filtered query over a saturated (entity, relation) pair simply
    returns fewer than ``k`` predictions.
    """
    order = top_k_indices(scores, k)
    if order.size:
        order = order[np.isfinite(scores[order])]
    return order, scores[order]


def select_predictions_batch(
    scores: np.ndarray,
    k: int,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Row-wise :func:`select_predictions` over a whole score matrix.

    One ``argpartition`` and one ``lexsort`` over the full ``(batch, n)``
    matrix replace the per-row selection loop — the difference between the
    batched engine and the naive path once scoring itself is a single GEMM.
    Rows whose selection boundary is ambiguous (more candidates tied at the
    k-th score than ``argpartition`` kept) fall back to the scalar helper,
    so the result is canonical for every row: descending score, ties by
    ascending index, ``-inf`` entries dropped.
    """
    scores = np.asarray(scores)
    if scores.ndim != 2:
        raise ValueError("scores must be a (batch, n) matrix")
    batch, count = scores.shape
    k = min(int(k), count)
    empty = np.zeros(0, dtype=np.int64)
    if k <= 0 or batch == 0:
        return [(empty, empty.astype(scores.dtype))] * batch
    if k < count:
        part = np.argpartition(-scores, k - 1, axis=1)[:, :k]
    else:
        part = np.broadcast_to(np.arange(count, dtype=np.int64), (batch, count))
    part_scores = np.take_along_axis(scores, part, axis=1)
    # One flat lexsort: primary key row, then descending score, then index —
    # i.e. every row internally in canonical order, rows kept together.
    rows = np.repeat(np.arange(batch), part.shape[1])
    order = np.lexsort((part.ravel(), -part_scores.ravel(), rows))
    sorted_indices = part.ravel()[order].reshape(batch, -1)[:, :k]
    sorted_scores = part_scores.ravel()[order].reshape(batch, -1)[:, :k]
    if k < count:
        # A row is ambiguous when candidates outside the partitioned set tie
        # with its k-th score: argpartition then kept an arbitrary subset of
        # the boundary ties instead of the lowest-index ones.
        threshold = sorted_scores[:, -1]
        ties_total = np.sum(scores == threshold[:, None], axis=1)
        ties_kept = np.sum(part_scores == threshold[:, None], axis=1)
        ambiguous = ties_total != ties_kept
    else:
        ambiguous = np.zeros(batch, dtype=bool)
    finite_mask = np.isfinite(sorted_scores)
    all_finite = bool(finite_mask.all())
    results: List[Tuple[np.ndarray, np.ndarray]] = []
    for row in range(batch):
        if ambiguous[row]:
            results.append(select_predictions(scores[row], k))
        elif all_finite:
            # Common case (no filtering): nothing to drop, no row-wise masking.
            results.append((sorted_indices[row], sorted_scores[row]))
        else:
            finite = finite_mask[row]
            results.append((sorted_indices[row][finite], sorted_scores[row][finite]))
    return results
