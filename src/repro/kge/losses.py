"""Training losses.

The paper trains every candidate with the multi-class (full softmax) loss of
Lacroix et al. (2018) because it "currently achieves the best performance and
has little variance" (Sec. II-A).  Logistic and hinge (margin) losses are
provided as alternatives; they operate on the same all-candidate score matrix
but only look at the positive column and a set of sampled negative columns,
so the scoring-function interface stays identical across losses.

Every loss implements::

    value, dscores = loss.compute(scores, targets, negatives=None)

where ``scores`` is the ``(batch, num_candidates)`` score matrix, ``targets``
gives the column of the true entity for every row, and ``negatives`` (only
used by the pairwise losses) holds ``(batch, num_negatives)`` sampled
negative columns.  ``dscores`` is the gradient of the *mean* per-triple loss
with respect to ``scores``; ``compute(..., out=array)`` writes it into
``array``, which may be ``scores`` itself.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Tuple

import numpy as np


def _check_inputs(scores: np.ndarray, targets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    if scores.ndim != 2:
        raise ValueError("scores must be 2-D (batch, num_candidates)")
    if targets.shape != (scores.shape[0],):
        raise ValueError("targets must be 1-D with one entry per scored row")
    if targets.min(initial=0) < 0 or (targets.size and targets.max() >= scores.shape[1]):
        raise ValueError("target column out of range")
    return scores, targets


def _zeroed(out: Optional[np.ndarray], like: np.ndarray) -> np.ndarray:
    """``out`` zero-filled, or a new zero array shaped like ``like``."""
    if out is None:
        return np.zeros_like(like)
    out.fill(0.0)
    return out


def softplus(x: np.ndarray) -> np.ndarray:
    """Numerically stable ``log(1 + exp(x))``."""
    return np.logaddexp(0.0, x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(x, dtype=np.float64)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


class Loss(ABC):
    """Base class for training losses."""

    #: Whether the trainer must supply sampled negative columns.
    needs_negative_samples: bool = False

    @abstractmethod
    def compute(
        self,
        scores: np.ndarray,
        targets: np.ndarray,
        negatives: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
    ) -> Tuple[float, np.ndarray]:
        """Return (mean loss, d mean-loss / d scores), the latter in ``out`` if given."""


class MulticlassLoss(Loss):
    """Softmax cross-entropy over every candidate entity (the paper's loss)."""

    needs_negative_samples = False

    def compute(
        self,
        scores: np.ndarray,
        targets: np.ndarray,
        negatives: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
    ) -> Tuple[float, np.ndarray]:
        scores, targets = _check_inputs(scores, targets)
        batch = scores.shape[0]
        if batch == 0:
            return 0.0, _zeroed(out, scores)
        shifted = scores - scores.max(axis=1, keepdims=True)
        exp_scores = np.exp(shifted)
        partition = exp_scores.sum(axis=1, keepdims=True)
        log_probs = shifted - np.log(partition)
        rows = np.arange(batch)
        value = float(-log_probs[rows, targets].mean())
        dscores = np.divide(exp_scores, partition, out=out)
        dscores[rows, targets] -= 1.0
        dscores /= batch
        return value, dscores


def multiclass_inplace(scores: np.ndarray, targets: np.ndarray) -> Tuple[float, np.ndarray]:
    """Fused softmax cross-entropy that turns ``scores`` into ``dscores`` in place.

    Computes the same (value, gradient) as :meth:`MulticlassLoss.compute` —
    identical operation order, so the results agree bit for bit — but reuses
    the ``scores`` buffer for every intermediate instead of allocating four
    ``(batch, num_candidates)`` temporaries.  This is the single-pass hot
    path of the batched training engine; the caller must own ``scores``.
    """
    scores, targets = _check_inputs(scores, targets)
    batch = scores.shape[0]
    if batch == 0:
        return 0.0, np.zeros_like(scores)
    rows = np.arange(batch)
    np.subtract(scores, scores.max(axis=1, keepdims=True), out=scores)
    shifted_targets = scores[rows, targets].copy()
    np.exp(scores, out=scores)
    partition = scores.sum(axis=1, keepdims=True)
    value = float(np.mean(np.log(partition[:, 0]) - shifted_targets))
    np.divide(scores, partition, out=scores)
    scores[rows, targets] -= 1.0
    scores /= batch
    return value, scores


class StreamingMulticlass:
    """Two-pass softmax cross-entropy over entity chunks in bounded memory.

    The multi-class loss needs the partition function over *every* candidate
    entity, so chunked scoring cannot evaluate it in one pass.  This helper
    implements the standard streaming log-sum-exp: the first pass feeds each
    score chunk to :meth:`observe` (tracking a running maximum and rescaled
    exponential sum plus the target scores), then :meth:`value` yields the
    mean loss and the second pass turns each re-scored chunk into its slice
    of the gradient via :meth:`dscores_chunk`.  Peak memory never exceeds one
    ``(batch, chunk)`` score block.
    """

    def __init__(self, targets: np.ndarray) -> None:
        self.targets = np.asarray(targets, dtype=np.int64)
        batch = self.targets.shape[0]
        self._rows = np.arange(batch)
        self._running_max = np.full(batch, -np.inf)
        self._sum_exp = np.zeros(batch)
        self._target_scores = np.zeros(batch)
        self._log_partition: Optional[np.ndarray] = None

    def observe(self, scores_chunk: np.ndarray, start: int, stop: int) -> None:
        """First pass: fold the scores of candidate columns [start, stop)."""
        chunk_max = scores_chunk.max(axis=1)
        new_max = np.maximum(self._running_max, chunk_max)
        self._sum_exp = self._sum_exp * np.exp(self._running_max - new_max) + np.exp(
            scores_chunk - new_max[:, None]
        ).sum(axis=1)
        self._running_max = new_max
        in_chunk = (self.targets >= start) & (self.targets < stop)
        if in_chunk.any():
            self._target_scores[in_chunk] = scores_chunk[
                self._rows[in_chunk], self.targets[in_chunk] - start
            ]

    def _finalize(self) -> np.ndarray:
        if self._log_partition is None:
            self._log_partition = self._running_max + np.log(self._sum_exp)
        return self._log_partition

    def value(self) -> float:
        """Mean loss after every chunk has been observed."""
        if self.targets.shape[0] == 0:
            return 0.0
        return float(np.mean(self._finalize() - self._target_scores))

    def dscores_chunk(self, scores_chunk: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Second pass: gradient slice for columns [start, stop), in place."""
        batch = self.targets.shape[0]
        np.subtract(scores_chunk, self._finalize()[:, None], out=scores_chunk)
        np.exp(scores_chunk, out=scores_chunk)
        in_chunk = (self.targets >= start) & (self.targets < stop)
        if in_chunk.any():
            scores_chunk[self._rows[in_chunk], self.targets[in_chunk] - start] -= 1.0
        scores_chunk /= batch
        return scores_chunk


class LogisticLoss(Loss):
    """Logistic (binary cross-entropy) loss with sampled negatives."""

    needs_negative_samples = True

    def compute(
        self,
        scores: np.ndarray,
        targets: np.ndarray,
        negatives: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
    ) -> Tuple[float, np.ndarray]:
        scores, targets = _check_inputs(scores, targets)
        if negatives is None:
            raise ValueError("LogisticLoss requires sampled negative columns")
        negatives = np.asarray(negatives, dtype=np.int64)
        batch, num_negatives = negatives.shape
        rows = np.arange(batch)
        positive_scores = scores[rows, targets]
        negative_scores = scores[rows[:, None], negatives]

        value = float(
            (softplus(-positive_scores) + softplus(negative_scores).mean(axis=1)).mean()
        )
        dscores = _zeroed(out, scores)
        dscores[rows, targets] -= sigmoid(-positive_scores)
        np.add.at(
            dscores,
            (rows[:, None], negatives),
            sigmoid(negative_scores) / num_negatives,
        )
        dscores /= batch
        return value, dscores


class HingeLoss(Loss):
    """Margin-based ranking loss (the classic TransE objective)."""

    needs_negative_samples = True

    def __init__(self, margin: float = 1.0) -> None:
        if margin <= 0:
            raise ValueError("margin must be positive")
        self.margin = float(margin)

    def compute(
        self,
        scores: np.ndarray,
        targets: np.ndarray,
        negatives: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
    ) -> Tuple[float, np.ndarray]:
        scores, targets = _check_inputs(scores, targets)
        if negatives is None:
            raise ValueError("HingeLoss requires sampled negative columns")
        negatives = np.asarray(negatives, dtype=np.int64)
        batch, num_negatives = negatives.shape
        rows = np.arange(batch)
        positive_scores = scores[rows, targets]
        negative_scores = scores[rows[:, None], negatives]

        violations = self.margin - positive_scores[:, None] + negative_scores
        active = violations > 0
        value = float(np.where(active, violations, 0.0).mean(axis=1).mean())

        dscores = _zeroed(out, scores)
        per_pair = active.astype(np.float64) / num_negatives
        dscores[rows, targets] -= per_pair.sum(axis=1)
        np.add.at(dscores, (rows[:, None], negatives), per_pair)
        dscores /= batch
        return value, dscores


def get_loss(name: str, margin: float = 1.0) -> Loss:
    """Instantiate a loss by name (``multiclass`` / ``logistic`` / ``hinge``)."""
    key = name.lower()
    if key == "multiclass":
        return MulticlassLoss()
    if key == "logistic":
        return LogisticLoss()
    if key == "hinge":
        return HingeLoss(margin=margin)
    raise KeyError(f"unknown loss {name!r}; available: multiclass, logistic, hinge")
