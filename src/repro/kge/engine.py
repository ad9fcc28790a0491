"""The training engine: how one mini-batch's loss and gradients are computed.

The trainer (Alg. 1 of the paper) is split into two layers.  The *loop* —
epochs, shuffling, validation, early stopping, checkpoint restore — lives in
:class:`repro.kge.trainer.Trainer`.  The *engine* — turning one mini-batch
into a parameter update — lives here, because it is the hot path that
dominates every candidate evaluation of the greedy search.

:class:`TrainEngine` picks its kernel from the loss alone:

* **multi-class** (the paper's setup) needs the full softmax over every
  entity, so it goes through the chunk-aware scoring interface
  (``begin_candidate_pass`` / ``score_candidates_chunk`` /
  ``grad_candidates_chunk`` / ``finish_candidate_pass``): per-query work is
  hoisted out of the per-entity loop, block structures collapse into single
  GEMMs, and with ``TrainingConfig.score_chunk_size > 0`` the softmax
  streams over entity chunks (two-pass log-sum-exp) so peak memory stays
  bounded by ``batch_size * score_chunk_size`` scores;
* **pairwise** losses read one positive and a few sampled corruptions per
  query, so :func:`touched_rows_batch` scores and differentiates only the
  entity rows the batch touches and the result is scattered into the dense
  gradient.

Both kernels then share the dense update: the regularizer gradient over
every row and :meth:`repro.kge.optimizers.Optimizer.step`.  Training is
therefore exact at any ``l2_penalty`` and with any optimizer.
:class:`ReferenceTrainEngine`, the original per-direction loop, is kept only
as the parity oracle that tests and the training benchmark pass explicitly
through ``Trainer(engine=...)``, in the same spirit as
:func:`repro.kge.evaluation.compute_ranks_reference`; the two agree at
``atol=1e-10``.  The lazy touched-rows update (regularizer on the gathered
rows plus :meth:`~repro.kge.optimizers.Optimizer.step_sparse`) lives next to
its only caller, :mod:`repro.live.finetune`.

Each ``Trainer.fit`` runs on one :class:`~repro.kge.workspace.Workspace`
that the engine holds from the start of the fit until it returns
(:meth:`TrainEngine.fitting`).  The first step allocates the dense
gradient, the optimizer's and regularizer's elementwise scratch and the
pairwise kernel's sub-tables, score matrix and gradient blocks; every later
step overwrites them in place instead of allocating and freeing them, which
made each pairwise step fault its pages back in.  The rule that makes this
safe to change: every in-place statement performs the operations of the
allocating expression it replaced in the same order, so float results do
not move by a bit (``tests/train_step_oracle.py`` keeps the allocating step
as the oracle).  A step outside a fit runs the same code on scratch
allocated for that call.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional, Tuple

import numpy as np

from repro.kge.losses import StreamingMulticlass, multiclass_inplace
from repro.kge.negative_sampling import NegativeSampler, UniformNegativeSampler
from repro.kge.scoring.base import HEAD, TAIL, ParamDict, gather_rows
from repro.kge.workspace import Workspace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (trainer imports us)
    from repro.kge.trainer import Trainer


def entity_chunks(num_entities: int, chunk_size: int) -> Iterator[Tuple[int, int]]:
    """Yield contiguous ``(start, stop)`` entity ranges of ``chunk_size``.

    ``chunk_size <= 0`` means "no chunking": one range covering everything.
    """
    if chunk_size <= 0 or chunk_size >= num_entities:
        yield 0, num_entities
        return
    for start in range(0, num_entities, chunk_size):
        yield start, min(start + chunk_size, num_entities)


def _direction_queries(batch: np.ndarray, direction: str) -> Tuple[np.ndarray, np.ndarray]:
    """(queries, targets) of one ranking direction for a (batch, 3) array."""
    if direction == TAIL:
        return batch[:, [0, 1]], batch[:, 2]
    return batch[:, [2, 1]], batch[:, 0]


def _ensure_sampler(trainer: "Trainer", params: ParamDict) -> NegativeSampler:
    """The trainer's negative sampler, created uniform on first use."""
    if trainer.negative_sampler is None:
        trainer.negative_sampler = UniformNegativeSampler(
            num_entities=params["entities"].shape[0],
            num_negatives=trainer.config.negative_samples,
            rng=trainer.rng,
        )
    return trainer.negative_sampler


class TrainEngine:
    """One mini-batch update; the loss decides which kernel computes it.

    Parameters
    ----------
    score_chunk_size:
        Candidate-entity chunk size of the multi-class kernel.  ``0`` scores
        the whole vocabulary in one pass (fastest); a positive value streams
        the softmax over chunks in two passes, bounding peak memory at one
        ``(batch, chunk)`` score block at the cost of re-scoring each chunk
        once for the gradient.  Pairwise batches never score the whole
        vocabulary, so they ignore it.
    """

    def __init__(self, score_chunk_size: int = 0) -> None:
        if score_chunk_size < 0:
            raise ValueError("score_chunk_size must be non-negative")
        self.score_chunk_size = int(score_chunk_size)
        #: The scratch of the fit in progress (see :meth:`fitting`); ``None``
        #: between fits.
        self.workspace: Optional[Workspace] = None

    @contextmanager
    def fitting(self) -> Iterator[None]:
        """Hold one :class:`~repro.kge.workspace.Workspace` for one ``Trainer.fit``.

        The first step allocates its buffers, every later step reuses them,
        and they are dropped when the fit returns or raises.  An engine runs
        one fit at a time.
        """
        if self.workspace is not None:
            raise RuntimeError("this training engine is already running a fit")
        self.workspace = Workspace()
        try:
            yield
        finally:
            self.workspace = None

    def train_step(self, trainer: "Trainer", params: ParamDict, batch: np.ndarray) -> float:
        """Run one full mini-batch update in place; return the batch loss.

        Zero the dense gradient dict, let :meth:`accumulate_batch` fill it,
        add the regularizer gradient and hand everything to
        :meth:`Optimizer.step`.  Inside a fit all of it runs on the fit's
        workspace; a step called on its own uses scratch for that call.
        """
        workspace = Workspace.scratch(self.workspace)
        grads = workspace.zeros_like("grad", params)
        value = self.accumulate_batch(trainer, params, batch, grads, workspace)
        trainer.regularizer.add_gradients(params, grads, workspace)
        trainer.optimizer.step(params, grads, workspace)
        return value

    def accumulate_batch(
        self,
        trainer: "Trainer",
        params: ParamDict,
        batch: np.ndarray,
        grads: ParamDict,
        workspace: Optional[Workspace] = None,
    ) -> float:
        """Add both ranking directions' gradients to ``grads``; return the loss.

        The returned value is ``loss_tail + loss_head`` for the batch, the
        quantity the trainer averages into the epoch loss.  Regularization
        and the optimizer step stay with :meth:`train_step`.
        """
        if trainer.loss.needs_negative_samples:
            value, entities, relations, _sub_params, blocks = touched_rows_batch(
                trainer, params, batch, workspace
            )
            for key, block in blocks.items():
                if key == "entities":
                    grads[key][entities] += block
                elif key == "relations":
                    grads[key][relations] += block
                else:
                    grads[key] += block
            return value
        value = 0.0
        for direction in (TAIL, HEAD):
            value += self._direction_multiclass(trainer, params, batch, direction, grads)
        return value

    def _direction_multiclass(
        self,
        trainer: "Trainer",
        params: ParamDict,
        batch: np.ndarray,
        direction: str,
        grads: ParamDict,
    ) -> float:
        scoring_function = trainer.scoring_function
        queries, targets = _direction_queries(batch, direction)
        num_entities = params["entities"].shape[0]
        state = scoring_function.begin_candidate_pass(params, queries, direction)

        if self.score_chunk_size <= 0 or self.score_chunk_size >= num_entities:
            # Single pass: score everything once, fold the softmax in place.
            scores = scoring_function.score_candidates_chunk(
                params, queries, direction, 0, num_entities, state=state
            )
            value, dscores = multiclass_inplace(scores, targets)
            scoring_function.grad_candidates_chunk(
                params, queries, dscores, direction, 0, num_entities, grads, state=state
            )
        else:
            # Two-pass streaming softmax over entity chunks (bounded memory).
            streaming = StreamingMulticlass(targets)
            for start, stop in entity_chunks(num_entities, self.score_chunk_size):
                streaming.observe(
                    scoring_function.score_candidates_chunk(
                        params, queries, direction, start, stop, state=state
                    ),
                    start,
                    stop,
                )
            value = streaming.value()
            for start, stop in entity_chunks(num_entities, self.score_chunk_size):
                scores = scoring_function.score_candidates_chunk(
                    params, queries, direction, start, stop, state=state
                )
                scoring_function.grad_candidates_chunk(
                    params,
                    queries,
                    streaming.dscores_chunk(scores, start, stop),
                    direction,
                    start,
                    stop,
                    grads,
                    state=state,
                )
        scoring_function.finish_candidate_pass(params, queries, direction, state, grads)
        return value

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return f"{type(self).__name__}(score_chunk_size={self.score_chunk_size})"


class ReferenceTrainEngine(TrainEngine):
    """The original per-direction loop, kept as the parity oracle.

    Every query is scored against the whole vocabulary and the full score
    matrix goes to the loss, whatever the loss.  Nothing builds it by
    default; tests and benchmarks pass it through ``Trainer(engine=...)``.
    """

    def accumulate_batch(
        self,
        trainer: "Trainer",
        params: ParamDict,
        batch: np.ndarray,
        grads: ParamDict,
        workspace: Optional[Workspace] = None,
    ) -> float:
        value = 0.0
        for direction in (TAIL, HEAD):
            queries, targets = _direction_queries(batch, direction)
            scores = trainer.scoring_function.score_candidates(
                params, queries, direction=direction
            )
            negatives = None
            if trainer.loss.needs_negative_samples:
                negatives = _ensure_sampler(trainer, params).sample(
                    targets, relations=batch[:, 1]
                )
            direction_value, dscores = trainer.loss.compute(scores, targets, negatives=negatives)
            direction_grads = trainer.scoring_function.grad_candidates(
                params, queries, dscores, direction=direction
            )
            for key, grad in direction_grads.items():
                grads[key] += grad
            value += direction_value
        return value


def touched_rows_batch(
    trainer: "Trainer",
    params: ParamDict,
    batch: np.ndarray,
    workspace: Optional[Workspace] = None,
) -> Tuple[float, np.ndarray, np.ndarray, ParamDict, ParamDict]:
    """Loss and compact gradient blocks of one pairwise-loss batch.

    Scoring every query against the whole vocabulary costs
    O(batch x vocabulary) although a pairwise loss reads just one positive
    and ``negative_samples`` corrupted columns per query.  This kernel
    instead:

    1. samples both directions' corruptions up front (tail direction first,
       the reference loop's RNG draw order, so both stay comparable
       seed-for-seed);
    2. collects the **unique** touched entity/relation indices — query
       entities, positives and corruptions — and gathers their rows once
       into compact sub-tables, so a corruption shared by several positives
       is embedded and scored through one column;
    3. runs the family's own ``score_candidates`` / ``grad_candidates`` on
       the compact sub-problem (indices remapped into the sub-tables): a
       gathered sub-table is indistinguishable from a small vocabulary, so
       every scoring family works unmodified.

    Returns ``(loss, touched_entities, touched_relations, sub_params,
    blocks)`` where ``blocks["entities"]`` has one row per touched entity
    (aligned with the sorted, unique ``touched_entities``),
    ``blocks["relations"]`` likewise, and any other key (e.g. the MLP
    scorer's network weights) holds a dense full-shape gradient.
    Regularization is *not* applied here.

    The gathered sub-tables, the score matrix (which the loss overwrites
    with its gradient) and the gradient blocks live in ``workspace``; the
    returned ``sub_params`` and ``blocks`` are its buffers, valid until the
    next call with the same workspace.  Without one they are fresh arrays.
    """
    workspace = Workspace.scratch(workspace)
    scoring_function = trainer.scoring_function
    batch = np.asarray(batch, dtype=np.int64)
    heads, relations, tails = batch[:, 0], batch[:, 1], batch[:, 2]
    sampler = _ensure_sampler(trainer, params)
    negatives = {
        TAIL: sampler.sample(tails, relations=relations),
        HEAD: sampler.sample(heads, relations=relations),
    }

    touched_entities = np.unique(
        np.concatenate([heads, tails, negatives[TAIL].ravel(), negatives[HEAD].ravel()])
    )
    touched_relations = np.unique(relations)

    # Gather the touched rows once; every other parameter key passes
    # through by reference.
    sub_params = dict(params)
    sub_params["entities"] = gather_rows(
        params["entities"], touched_entities, workspace, "touched/entities"
    )
    sub_params["relations"] = gather_rows(
        params["relations"], touched_relations, workspace, "touched/relations"
    )
    heads_c = np.searchsorted(touched_entities, heads)
    tails_c = np.searchsorted(touched_entities, tails)
    relations_c = np.searchsorted(touched_relations, relations)

    value = 0.0
    blocks: Optional[ParamDict] = None
    for direction, query_entities, targets in ((TAIL, heads_c, tails), (HEAD, tails_c, heads)):
        queries_c = np.stack([query_entities, relations_c], axis=1)
        direction_negatives = negatives[direction]
        # One deduplicated candidate column per distinct touched entity of
        # this direction: corruptions shared across positives score once.
        columns = np.unique(np.concatenate([targets, direction_negatives.ravel()]))
        candidates_c = np.searchsorted(touched_entities, columns)
        scores = scoring_function.score_candidates(
            sub_params,
            queries_c,
            direction=direction,
            candidates=candidates_c,
            out=workspace.empty("pairwise/scores", (queries_c.shape[0], columns.shape[0])),
            workspace=workspace,
        )
        direction_value, dscores = trainer.loss.compute(
            scores,
            np.searchsorted(columns, targets),
            negatives=np.searchsorted(columns, direction_negatives),
            out=scores,
        )
        value += direction_value
        direction_blocks = scoring_function.grad_candidates(
            sub_params,
            queries_c,
            dscores,
            direction=direction,
            candidates=candidates_c,
            out={
                key: workspace.empty_like(f"blocks/{direction}/{key}", array)
                for key, array in sub_params.items()
            },
            workspace=workspace,
        )
        if blocks is None:
            blocks = direction_blocks
        else:
            for key, block in direction_blocks.items():
                blocks[key] += block
    return value, touched_entities, touched_relations, sub_params, blocks
