"""Warm-start fine-tuning on a delta batch: touch only what changed.

After :meth:`~repro.datasets.TripleStore.apply_delta` commits new
triples, a full retrain is wasteful — the delta touches a handful of
entity and relation rows.  :func:`finetune_delta` instead:

1. grows the entity table, initializing each new entity from its
   **relation-neighborhood means** (:func:`warm_start_entities`): for
   every relation the delta connects it through, the mean embedding of
   its already-trained neighbors under that relation, averaged across
   relations; entities with no trained neighbor fall back to the column
   mean of the old table;
2. trains only on the delta triples with a pairwise loss, drawing
   negatives from the delta-touched entity pool
   (:class:`PooledNegativeSampler`) and applying the *lazy* update of
   :class:`LazyTrainEngine`: the touched-rows kernel
   (:func:`~repro.kge.engine.touched_rows_batch`), the regularizer on the
   gathered rows only, and
   :meth:`~repro.kge.optimizers.Optimizer.step_sparse`.

Because every gradient row (positives, corruptions, lazy regularization)
and every optimizer-state row stays inside the touched set, **untouched
rows are bitwise unchanged** — the tier-1 suite asserts this, not just
approximate stability.  The multi-class loss needs the full softmax over
every entity (its gradient touches every row), so it is rejected; use
``logistic`` or ``hinge``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from repro.kge.engine import TrainEngine, touched_rows_batch
from repro.kge.losses import get_loss
from repro.kge.negative_sampling import NegativeSampler
from repro.kge.scoring import ScoringFunction
from repro.kge.trainer import Trainer, TrainingHistory
from repro.utils.config import ConfigError, TrainingConfig
from repro.utils.rng import RngLike

ParamDict = dict


@dataclass(frozen=True)
class FinetuneReport:
    """What a fine-tune run touched (for logs, /stats and the bench)."""

    delta_triples: int
    new_entities: int
    touched_entities: int
    touched_relations: int
    epochs: int
    final_loss: float


class PooledNegativeSampler(NegativeSampler):
    """Uniform corruption restricted to a fixed entity pool.

    Restricting draws (and collision redraws) to the delta-touched pool
    is what keeps the sparse fine-tune's gradient support inside the
    touched rows — a stray corruption outside the pool would receive a
    gradient and break the untouched-rows-bitwise-unchanged guarantee.
    """

    def __init__(self, pool: np.ndarray, num_negatives: int, rng: RngLike = None) -> None:
        pool = np.unique(np.asarray(pool, dtype=np.int64))
        if pool.size < 2:
            raise ValueError(
                f"need at least two entities in the negative pool, got {pool.size}"
            )
        super().__init__(
            num_entities=int(pool[-1]) + 1, num_negatives=num_negatives, rng=rng
        )
        self.pool = pool

    def sample(
        self, positives: np.ndarray, relations: Optional[np.ndarray] = None
    ) -> np.ndarray:
        positives = np.asarray(positives, dtype=np.int64)
        draws = self.rng.integers(
            0, self.pool.size, size=(positives.shape[0], self.num_negatives)
        )
        negatives = self.pool[draws]
        collisions = negatives == positives[:, None]
        if collisions.any():
            # A collision proves the positive is in the pool; redraw from
            # the pool minus it (rank shift), exactly collision-free.
            rows, cols = np.nonzero(collisions)
            ranks = np.searchsorted(self.pool, positives[rows])
            redraws = self.rng.integers(0, self.pool.size - 1, size=rows.size)
            redraws += redraws >= ranks
            negatives[rows, cols] = self.pool[redraws]
        return negatives


class LazyTrainEngine(TrainEngine):
    """Touched-rows update that never writes a row outside the batch.

    The regularizer gradient covers only the gathered rows and the optimizer
    applies per-row updates through
    :meth:`~repro.kge.optimizers.Optimizer.step_sparse` (lazy-moment Adam).
    Ordinary training uses the exact dense update instead; fine-tuning
    trades that exactness for leaving every untouched row as it was.
    Pairwise losses only: the caller rejects the multi-class loss.
    """

    def train_step(self, trainer: Trainer, params: ParamDict, batch: np.ndarray) -> float:
        value, entities, relations, sub_params, blocks = touched_rows_batch(
            trainer, params, batch
        )
        # The gathered sub-tables *are* the touched parameter rows.
        trainer.regularizer.add_gradients(sub_params, blocks)
        sparse_grads = {}
        for key, block in blocks.items():
            if key == "entities":
                sparse_grads[key] = (entities, block)
            elif key == "relations":
                sparse_grads[key] = (relations, block)
            else:
                sparse_grads[key] = block
        trainer.optimizer.step_sparse(params, sparse_grads)
        return value


def delta_touched(delta_triples: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted unique (entities, relations) referenced by a delta batch."""
    rows = np.asarray(delta_triples, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError(f"delta triples must be (n, 3), got shape {rows.shape}")
    entities = np.unique(np.concatenate([rows[:, 0], rows[:, 2]]))
    relations = np.unique(rows[:, 1])
    return entities, relations


def warm_start_entities(
    params: ParamDict, delta_triples: np.ndarray, num_entities: int
) -> ParamDict:
    """Writable copy of ``params`` with the entity table grown to ``num_entities``.

    Rows below the old entity count are byte-for-byte copies; each new
    row is the mean over its delta relations of the mean embedding of its
    already-trained neighbors under that relation (column mean of the old
    table when the delta gives it no trained neighbor).
    """
    old_count = int(params["entities"].shape[0])
    if num_entities < old_count:
        raise ValueError(
            f"num_entities ({num_entities}) below the current entity table "
            f"({old_count} rows)"
        )
    out = {key: np.array(value) for key, value in params.items()}
    if num_entities == old_count:
        return out
    table = out["entities"]
    grown = np.zeros((num_entities, table.shape[1]), dtype=table.dtype)
    grown[:old_count] = table
    fallback = table.mean(axis=0)
    rows = np.asarray(delta_triples, dtype=np.int64)
    for entity in range(old_count, num_entities):
        incident = rows[(rows[:, 0] == entity) | (rows[:, 2] == entity)]
        vectors = []
        if incident.shape[0]:
            others = np.where(incident[:, 0] == entity, incident[:, 2], incident[:, 0])
            relations = incident[:, 1]
            trained = others < old_count
            others, relations = others[trained], relations[trained]
            for relation in np.unique(relations):
                vectors.append(grown[others[relations == relation]].mean(axis=0))
        grown[entity] = np.mean(vectors, axis=0) if vectors else fallback
    out["entities"] = grown
    return out


class _DeltaStream:
    """Minimal stream over the delta batch for :meth:`Trainer.fit`.

    Same duck-type contract as :class:`~repro.datasets.TripleStream`
    (``epoch(i)``, ``num_triples``, ``num_entities``, ``num_relations``)
    with a deterministic per-epoch permutation seeded like the sharded
    stream (``default_rng((seed, epoch))``).
    """

    def __init__(
        self,
        triples: np.ndarray,
        num_entities: int,
        num_relations: int,
        batch_size: int,
        seed: int,
    ) -> None:
        self.triples = np.ascontiguousarray(triples, dtype=np.int64)
        self.num_entities = int(num_entities)
        self.num_relations = int(num_relations)
        self.batch_size = int(batch_size)
        self.seed = int(seed)

    @property
    def num_triples(self) -> int:
        return int(self.triples.shape[0])

    def epoch(self, epoch: int = 0):
        rng = np.random.default_rng((self.seed, int(epoch)))
        order = rng.permutation(self.num_triples)
        for begin in range(0, self.num_triples, self.batch_size):
            yield self.triples[order[begin : begin + self.batch_size]]


def finetune_delta(
    scoring_function: ScoringFunction,
    params: ParamDict,
    config: TrainingConfig,
    delta_triples: np.ndarray,
    num_entities: Optional[int] = None,
) -> Tuple[ParamDict, TrainingHistory, FinetuneReport]:
    """Fine-tune ``params`` on a delta batch; returns ``(params, history, report)``.

    ``num_entities`` is the post-delta entity count (defaults to growing
    just enough to cover the delta's ids).  The returned parameter dict
    is a fresh writable copy — rows outside the delta-touched set are
    bitwise identical to the input.
    """
    rows = np.asarray(delta_triples, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] != 3 or rows.shape[0] == 0:
        raise ValueError(
            f"delta triples must be a non-empty (n, 3) array, got shape {rows.shape}"
        )
    loss = get_loss(config.loss, margin=config.margin)
    if not loss.needs_negative_samples:
        raise ConfigError(
            f"finetune_delta cannot use the {config.loss!r} loss: its full "
            f"softmax touches every entity row; use 'logistic' or 'hinge'"
        )
    old_entities = int(params["entities"].shape[0])
    num_relations = int(params["relations"].shape[0])
    if int(rows[:, 1].max()) >= num_relations:
        raise ValueError(
            f"delta references relation id {int(rows[:, 1].max())} >= "
            f"num_relations ({num_relations}); relation growth requires a retrain"
        )
    if num_entities is None:
        num_entities = max(old_entities, int(rows[:, [0, 2]].max()) + 1)
    params = warm_start_entities(params, rows, num_entities)
    touched_entities, touched_relations = delta_touched(rows)

    engine_config = replace(config, eval_every=0)
    trainer = Trainer(scoring_function, engine_config, loss=loss, engine=LazyTrainEngine())
    trainer.negative_sampler = PooledNegativeSampler(
        touched_entities, engine_config.negative_samples, rng=trainer.rng
    )
    stream = _DeltaStream(
        rows,
        num_entities=num_entities,
        num_relations=num_relations,
        batch_size=engine_config.batch_size,
        seed=engine_config.seed if engine_config.seed is not None else 0,
    )
    params, history = trainer.fit(None, params=params, stream=stream)
    report = FinetuneReport(
        delta_triples=int(rows.shape[0]),
        new_entities=int(num_entities - old_entities),
        touched_entities=int(touched_entities.size),
        touched_relations=int(touched_relations.size),
        epochs=len(history.epochs),
        final_loss=float(history.final_loss) if history.final_loss is not None else float("nan"),
    )
    return params, history, report
