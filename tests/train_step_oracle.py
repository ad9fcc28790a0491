"""The training step as it was before it ran on a workspace: the parity oracle.

Every temporary here is allocated afresh, exactly as the pre-workspace code
did: the dense gradient from ``zero_grads``, the optimizer's and
regularizer's elementwise expressions, the block scorer's per-block GEMM
results and its full ``sign * dscores.T`` copies, and the sub-problem's
gathered tables and gradients.  ``tests/test_train_engine.py`` and
``tests/test_optimizers_regularizers.py`` assert that the workspace code
matches it bit for bit.

Build an oracle trainer with :func:`oracle_trainer`; it takes the same
arguments as :class:`repro.kge.trainer.Trainer`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.kge.engine import TrainEngine, _ensure_sampler
from repro.kge.optimizers import SGD, Adagrad, Adam
from repro.kge.regularizers import L2Regularizer, N3Regularizer, Regularizer
from repro.kge.scoring.base import HEAD, TAIL, check_queries
from repro.kge.scoring.bilinear import BlockScoringFunction
from repro.kge.scoring.blocks import NUM_CHUNKS
from repro.kge.trainer import Trainer


# ----------------------------------------------------------------------
# Optimizers and regularizers: the allocating expressions
# ----------------------------------------------------------------------
class AllocatingSGD(SGD):
    def step(self, params, grads, workspace=None):
        self._check(params, grads)
        for key, grad in grads.items():
            params[key] -= self.learning_rate * grad


class AllocatingAdagrad(Adagrad):
    def step(self, params, grads, workspace=None):
        self._check(params, grads)
        for key, grad in grads.items():
            state = self._state_for(key, params[key], ("sum_squares",))
            state["sum_squares"] += grad * grad
            params[key] -= self.learning_rate * grad / (np.sqrt(state["sum_squares"]) + self.epsilon)


class AllocatingAdam(Adam):
    def step(self, params, grads, workspace=None):
        self._check(params, grads)
        self._step_count += 1
        correction1 = 1.0 - self.beta1**self._step_count
        correction2 = 1.0 - self.beta2**self._step_count
        for key, grad in grads.items():
            state = self._state_for(key, params[key], ("m", "v"))
            state["m"] = self.beta1 * state["m"] + (1.0 - self.beta1) * grad
            state["v"] = self.beta2 * state["v"] + (1.0 - self.beta2) * grad * grad
            m_hat = state["m"] / correction1
            v_hat = state["v"] / correction2
            params[key] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)


class AllocatingL2(L2Regularizer):
    def add_gradients(self, params, grads, workspace=None):
        if self.weight == 0:
            return
        for key, value in params.items():
            grads[key] += 2.0 * self.weight * value


class AllocatingN3(N3Regularizer):
    def add_gradients(self, params, grads, workspace=None):
        if self.weight == 0:
            return
        for key in self._targets:
            if key in params:
                grads[key] += 3.0 * self.weight * np.sign(params[key]) * params[key] ** 2


ALLOCATING_OPTIMIZERS = {"sgd": AllocatingSGD, "adagrad": AllocatingAdagrad, "adam": AllocatingAdam}


def allocating_regularizer(regularizer: Regularizer) -> Regularizer:
    """The allocating twin of an L2 or N3 regularizer (others pass through)."""
    if isinstance(regularizer, L2Regularizer):
        return AllocatingL2(regularizer.weight)
    if isinstance(regularizer, N3Regularizer):
        return AllocatingN3(regularizer.weight)
    return regularizer


# ----------------------------------------------------------------------
# The block scorer's allocating candidate pass
# ----------------------------------------------------------------------
def _chunk(array, index):
    size = array.shape[-1] // NUM_CHUNKS
    return array[..., index * size : (index + 1) * size]


def block_score_candidates(sf, params, queries, direction=TAIL, candidates=None):
    queries = check_queries(queries)
    entities, relations = params["entities"], params["relations"]
    candidate_index = sf.candidate_entities(params, candidates)
    candidate_rows = entities[candidate_index]
    query_entities = entities[queries[:, 0]]
    query_relations = relations[queries[:, 1]]

    scores = np.zeros((queries.shape[0], candidate_index.shape[0]), dtype=np.float64)
    for row, col, component, sign in sf.structure.blocks:
        rel_chunk = _chunk(query_relations, component)
        if direction == TAIL:
            partial = _chunk(query_entities, row) * rel_chunk
            scores += sign * partial @ _chunk(candidate_rows, col).T
        else:
            partial = _chunk(query_entities, col) * rel_chunk
            scores += sign * partial @ _chunk(candidate_rows, row).T
    return scores


def block_grad_candidates(sf, params, queries, dscores, direction=TAIL, candidates=None):
    queries = check_queries(queries)
    entities, relations = params["entities"], params["relations"]
    candidate_index = sf.candidate_entities(params, candidates)
    candidate_rows = entities[candidate_index]
    query_entity_index = queries[:, 0]
    query_relation_index = queries[:, 1]
    query_entities = entities[query_entity_index]
    query_relations = relations[query_relation_index]
    dscores = np.asarray(dscores, dtype=np.float64)

    grads = {key: np.zeros_like(value) for key, value in params.items()}
    chunk_size = entities.shape[1] // NUM_CHUNKS

    def chunk_slice(index):
        return slice(index * chunk_size, (index + 1) * chunk_size)

    for row, col, component, sign in sf.structure.blocks:
        if direction == TAIL:
            query_chunk, candidate_chunk = row, col
        else:
            query_chunk, candidate_chunk = col, row
        rel = _chunk(query_relations, component)
        ent = _chunk(query_entities, query_chunk)
        cand = _chunk(candidate_rows, candidate_chunk)

        partial = ent * rel
        np.add.at(
            grads["entities"][:, chunk_slice(candidate_chunk)],
            candidate_index,
            sign * dscores.T @ partial,
        )
        upstream = sign * dscores @ cand
        np.add.at(grads["entities"][:, chunk_slice(query_chunk)], query_entity_index, upstream * rel)
        np.add.at(grads["relations"][:, chunk_slice(component)], query_relation_index, upstream * ent)
    return grads


def _score(sf, params, queries, direction, candidates):
    if isinstance(sf, BlockScoringFunction):
        return block_score_candidates(sf, params, queries, direction, candidates)
    return sf.score_candidates(params, queries, direction=direction, candidates=candidates)


def _grad(sf, params, queries, dscores, direction, candidates):
    if isinstance(sf, BlockScoringFunction):
        return block_grad_candidates(sf, params, queries, dscores, direction, candidates)
    return sf.grad_candidates(params, queries, dscores, direction=direction, candidates=candidates)


# ----------------------------------------------------------------------
# The engine: allocating touched-rows kernel and train step
# ----------------------------------------------------------------------
def touched_rows_batch(trainer, params, batch):
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
    sub_params = dict(params)
    sub_params["entities"] = params["entities"][touched_entities]
    sub_params["relations"] = params["relations"][touched_relations]
    heads_c = np.searchsorted(touched_entities, heads)
    tails_c = np.searchsorted(touched_entities, tails)
    relations_c = np.searchsorted(touched_relations, relations)

    value = 0.0
    blocks = None
    for direction, query_entities, targets in ((TAIL, heads_c, tails), (HEAD, tails_c, heads)):
        queries_c = np.stack([query_entities, relations_c], axis=1)
        direction_negatives = negatives[direction]
        columns = np.unique(np.concatenate([targets, direction_negatives.ravel()]))
        candidates_c = np.searchsorted(touched_entities, columns)
        scores = _score(scoring_function, sub_params, queries_c, direction, candidates_c)
        direction_value, dscores = trainer.loss.compute(
            scores,
            np.searchsorted(columns, targets),
            negatives=np.searchsorted(columns, direction_negatives),
        )
        value += direction_value
        direction_blocks = _grad(
            scoring_function, sub_params, queries_c, dscores, direction, candidates_c
        )
        if blocks is None:
            blocks = direction_blocks
        else:
            for key, block in direction_blocks.items():
                blocks[key] += block
    return value, touched_entities, touched_relations, sub_params, blocks


class AllocatingTrainEngine(TrainEngine):
    """The pre-workspace ``train_step``: every temporary allocated per step."""

    def train_step(self, trainer, params, batch):
        grads = {key: np.zeros_like(value) for key, value in params.items()}
        value = self.accumulate_batch(trainer, params, batch, grads)
        trainer.regularizer.add_gradients(params, grads)
        trainer.optimizer.step(params, grads)
        return value

    def accumulate_batch(self, trainer, params, batch, grads, workspace=None):
        if not trainer.loss.needs_negative_samples:
            # The multi-class kernel's allocations are not part of the change.
            return super().accumulate_batch(trainer, params, batch, grads)
        value, entities, relations, _sub_params, blocks = touched_rows_batch(
            trainer, params, batch
        )
        for key, block in blocks.items():
            if key == "entities":
                grads[key][entities] += block
            elif key == "relations":
                grads[key][relations] += block
            else:
                grads[key] += block
        return value


def oracle_trainer(
    scoring_function, config, regularizer: Optional[Regularizer] = None, **kwargs
) -> Trainer:
    """A :class:`Trainer` that runs the allocating step end to end."""
    optimizer = ALLOCATING_OPTIMIZERS[config.optimizer](config.learning_rate, config.decay_rate)
    regularizer = allocating_regularizer(
        regularizer if regularizer is not None else L2Regularizer(config.l2_penalty)
    )
    return Trainer(
        scoring_function,
        config,
        optimizer=optimizer,
        regularizer=regularizer,
        engine=AllocatingTrainEngine(config.score_chunk_size),
        **kwargs,
    )

