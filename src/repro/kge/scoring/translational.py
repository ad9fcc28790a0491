r"""Translational-distance scoring functions (TDM baselines).

The paper compares against translational models mainly to illustrate that
bilinear models dominate on the benchmarks.  Two representative TDMs are
implemented here with full analytic gradients so they can be trained with the
same multi-class loss as every other model:

* :class:`TransE` — ``f(h, r, t) = -||h + r - t||_p``;
* :class:`RotatE` — entities are complex vectors, relations are element-wise
  rotations (unit-modulus complex numbers parameterized by phases), and
  ``f(h, r, t) = -||h \circ r - t||_1``.  Because a rotation is an isometry,
  head-prediction queries reduce to the same "translate the query, compare
  to raw candidates" form as tail prediction.

TransH is not re-implemented; its Table IV rows are reference values copied
from the literature exactly as the paper itself does.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.kge.scoring.base import (
    HEAD,
    TAIL,
    ParamDict,
    ScoringFunction,
    check_queries,
    check_triples,
    validate_direction,
)
from repro.kge.workspace import Workspace
from repro.utils.rng import RngLike, ensure_rng


class TransE(ScoringFunction):
    """TransE (Bordes et al., 2013) with an L1 or L2 distance."""

    def __init__(self, norm: int = 1) -> None:
        if norm not in (1, 2):
            raise ValueError("norm must be 1 or 2")
        self.norm = norm
        self.name = f"TransE-L{norm}"

    # -- internal helpers -------------------------------------------------
    def _distance(self, diff: np.ndarray) -> np.ndarray:
        if self.norm == 1:
            return np.sum(np.abs(diff), axis=-1)
        return np.sum(diff * diff, axis=-1)

    def _distance_grad(self, diff: np.ndarray) -> np.ndarray:
        """d distance / d diff."""
        if self.norm == 1:
            return np.sign(diff)
        return 2.0 * diff

    def _query_vectors(self, params: ParamDict, queries: np.ndarray, direction: str) -> np.ndarray:
        """Translate the query so scoring is ``-distance(query_vec, candidate)``.

        For tail prediction the query vector is ``h + r``; for head
        prediction the score of candidate ``x`` is ``-||x + r - t||``, i.e.
        ``-distance(t - r, x)``.
        """
        entities, relations = params["entities"], params["relations"]
        query_entities = entities[queries[:, 0]]
        query_relations = relations[queries[:, 1]]
        if direction == TAIL:
            return query_entities + query_relations
        return query_entities - query_relations

    # -- ScoringFunction API ----------------------------------------------
    def score_triples(self, params: ParamDict, triples: np.ndarray) -> np.ndarray:
        triples = check_triples(triples)
        entities, relations = params["entities"], params["relations"]
        diff = entities[triples[:, 0]] + relations[triples[:, 1]] - entities[triples[:, 2]]
        return -self._distance(diff)

    def score_candidates(
        self,
        params: ParamDict,
        queries: np.ndarray,
        direction: str = TAIL,
        candidates: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
        workspace: Optional[Workspace] = None,
    ) -> np.ndarray:
        queries = check_queries(queries)
        validate_direction(direction)
        candidate_index = self.candidate_entities(params, candidates)
        candidate_rows = params["entities"][candidate_index]
        query_vectors = self._query_vectors(params, queries, direction)
        diff = query_vectors[:, None, :] - candidate_rows[None, :, :]
        return np.negative(self._distance(diff), out=out)

    def grad_candidates(
        self,
        params: ParamDict,
        queries: np.ndarray,
        dscores: np.ndarray,
        direction: str = TAIL,
        candidates: Optional[np.ndarray] = None,
        out: Optional[ParamDict] = None,
        workspace: Optional[Workspace] = None,
    ) -> ParamDict:
        queries = check_queries(queries)
        validate_direction(direction)
        candidate_index = self.candidate_entities(params, candidates)
        candidate_rows = params["entities"][candidate_index]
        query_vectors = self._query_vectors(params, queries, direction)
        dscores = np.asarray(dscores, dtype=np.float64)

        diff = query_vectors[:, None, :] - candidate_rows[None, :, :]
        # score = -distance(diff); d score / d diff = -distance'(diff)
        ddiff = -self._distance_grad(diff) * dscores[:, :, None]

        grads = self.zero_grads(params, out)
        dquery = np.sum(ddiff, axis=1)  # (batch, d)
        dcandidate = -np.sum(ddiff, axis=0)  # (num_candidates, d)
        np.add.at(grads["entities"], candidate_index, dcandidate)
        np.add.at(grads["entities"], queries[:, 0], dquery)
        relation_sign = 1.0 if direction == TAIL else -1.0
        np.add.at(grads["relations"], queries[:, 1], relation_sign * dquery)
        return grads

    # ------------------------------------------------------------------
    # Chunk-aware scoring: the translated query vector is chunk-independent
    # and the ``(batch, chunk, dimension)`` difference tensor — the memory
    # hot spot of translational models — never exceeds one chunk.
    # ------------------------------------------------------------------
    def begin_candidate_pass(
        self, params: ParamDict, queries: np.ndarray, direction: str = TAIL
    ) -> dict:
        queries = check_queries(queries)
        validate_direction(direction)
        return {
            "query_vectors": self._query_vectors(params, queries, direction),
            "dquery": None,
        }

    def _score_candidates_chunk(
        self,
        params: ParamDict,
        queries: np.ndarray,
        direction: str,
        start: int,
        stop: int,
        state: Optional[dict],
    ) -> np.ndarray:
        diff = state["query_vectors"][:, None, :] - params["entities"][None, start:stop, :]
        return -self._distance(diff)

    def _grad_candidates_chunk(
        self,
        params: ParamDict,
        queries: np.ndarray,
        dscores: np.ndarray,
        direction: str,
        start: int,
        stop: int,
        grads: ParamDict,
        state: Optional[dict],
    ) -> None:
        diff = state["query_vectors"][:, None, :] - params["entities"][None, start:stop, :]
        ddiff = -self._distance_grad(diff) * np.asarray(dscores, dtype=np.float64)[:, :, None]
        dquery = np.sum(ddiff, axis=1)
        grads["entities"][start:stop] -= np.sum(ddiff, axis=0)
        if state["dquery"] is None:
            state["dquery"] = dquery
        else:
            state["dquery"] += dquery

    def finish_candidate_pass(
        self,
        params: ParamDict,
        queries: np.ndarray,
        direction: str,
        state: Optional[dict],
        grads: ParamDict,
    ) -> None:
        if state is None or state["dquery"] is None:
            return
        dquery = state["dquery"]
        np.add.at(grads["entities"], queries[:, 0], dquery)
        relation_sign = 1.0 if direction == TAIL else -1.0
        np.add.at(grads["relations"], queries[:, 1], relation_sign * dquery)


class RotatE(ScoringFunction):
    r"""RotatE (Sun et al., 2019): relations rotate complex entity embeddings.

    The entity table has an even dimension ``d``; the first ``d / 2`` columns
    are the real parts and the last ``d / 2`` the imaginary parts.  The
    relation table stores one phase per complex coordinate, so its shape is
    ``(num_relations, d / 2)``.

    The score is ``-sum_i |h_i * r_i - t_i|`` with ``|.|`` the *complex
    modulus* (as in the original paper), which makes element-wise rotation an
    exact isometry: head-prediction queries reduce to comparing
    ``t \circ conj(r)`` against raw candidate embeddings.
    """

    name = "RotatE"

    #: Numerical floor for the complex modulus when computing gradients.
    _modulus_epsilon = 1e-12

    def init_params(
        self,
        num_entities: int,
        num_relations: int,
        dimension: int,
        rng: RngLike = None,
        scale: float = 0.1,
    ) -> ParamDict:
        if dimension % 2 != 0:
            raise ValueError("RotatE requires an even embedding dimension")
        gen = ensure_rng(rng)
        return {
            "entities": gen.uniform(-scale, scale, size=(num_entities, dimension)),
            "relations": gen.uniform(-np.pi, np.pi, size=(num_relations, dimension // 2)),
        }

    # -- internal helpers -------------------------------------------------
    @staticmethod
    def _split(array: np.ndarray) -> tuple:
        half = array.shape[-1] // 2
        return array[..., :half], array[..., half:]

    def _query_vectors(self, params: ParamDict, queries: np.ndarray, direction: str) -> np.ndarray:
        r"""Rotate the query entity so candidates can be compared directly.

        Tail: ``q = h \circ r``.  Head: because rotation is an isometry,
        ``||x \circ r - t|| = ||x - t \circ conj(r)||``, so ``q = t \circ conj(r)``.
        """
        entities, phases = params["entities"], params["relations"]
        query = entities[queries[:, 0]]
        theta = phases[queries[:, 1]]
        real, imag = self._split(query)
        cos, sin = np.cos(theta), np.sin(theta)
        if direction == TAIL:
            rotated_real = real * cos - imag * sin
            rotated_imag = real * sin + imag * cos
        else:
            rotated_real = real * cos + imag * sin
            rotated_imag = -real * sin + imag * cos
        return np.concatenate([rotated_real, rotated_imag], axis=-1)

    def _modulus(self, diff: np.ndarray) -> np.ndarray:
        """Complex modulus per coordinate: diff holds [real | imaginary] halves."""
        real, imag = self._split(diff)
        return np.sqrt(real * real + imag * imag)

    def score_triples(self, params: ParamDict, triples: np.ndarray) -> np.ndarray:
        triples = check_triples(triples)
        queries = triples[:, [0, 1]]
        rotated = self._query_vectors(params, queries, TAIL)
        tails = params["entities"][triples[:, 2]]
        return -np.sum(self._modulus(rotated - tails), axis=-1)

    def score_candidates(
        self,
        params: ParamDict,
        queries: np.ndarray,
        direction: str = TAIL,
        candidates: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
        workspace: Optional[Workspace] = None,
    ) -> np.ndarray:
        queries = check_queries(queries)
        validate_direction(direction)
        candidate_index = self.candidate_entities(params, candidates)
        candidate_rows = params["entities"][candidate_index]
        query_vectors = self._query_vectors(params, queries, direction)
        diff = query_vectors[:, None, :] - candidate_rows[None, :, :]
        return np.negative(np.sum(self._modulus(diff), axis=-1), out=out)

    def grad_candidates(
        self,
        params: ParamDict,
        queries: np.ndarray,
        dscores: np.ndarray,
        direction: str = TAIL,
        candidates: Optional[np.ndarray] = None,
        out: Optional[ParamDict] = None,
        workspace: Optional[Workspace] = None,
    ) -> ParamDict:
        queries = check_queries(queries)
        validate_direction(direction)
        entities, phases = params["entities"], params["relations"]
        candidate_index = self.candidate_entities(params, candidates)
        candidate_rows = entities[candidate_index]
        query_vectors = self._query_vectors(params, queries, direction)
        dscores = np.asarray(dscores, dtype=np.float64)

        diff = query_vectors[:, None, :] - candidate_rows[None, :, :]
        diff_real, diff_imag = self._split(diff)
        modulus = np.sqrt(diff_real * diff_real + diff_imag * diff_imag) + self._modulus_epsilon
        # score = -sum(modulus); d modulus / d diff = diff / modulus
        scaled = -dscores[:, :, None] / modulus
        ddiff = np.concatenate([scaled * diff_real, scaled * diff_imag], axis=-1)
        dquery = np.sum(ddiff, axis=1)  # (batch, d)
        dcandidate = -np.sum(ddiff, axis=0)  # (num_candidates, d)

        grads = self.zero_grads(params, out)
        np.add.at(grads["entities"], candidate_index, dcandidate)

        # Backpropagate the rotation into the query entity and the phases.
        query_entity_index = queries[:, 0]
        query_relation_index = queries[:, 1]
        real, imag = self._split(entities[query_entity_index])
        theta = phases[query_relation_index]
        cos, sin = np.cos(theta), np.sin(theta)
        dreal_rot, dimag_rot = self._split(dquery)

        if direction == TAIL:
            # q_re = re*cos - im*sin ; q_im = re*sin + im*cos
            dreal = dreal_rot * cos + dimag_rot * sin
            dimag = -dreal_rot * sin + dimag_rot * cos
            dtheta = dreal_rot * (-real * sin - imag * cos) + dimag_rot * (real * cos - imag * sin)
        else:
            # q_re = re*cos + im*sin ; q_im = -re*sin + im*cos
            dreal = dreal_rot * cos - dimag_rot * sin
            dimag = dreal_rot * sin + dimag_rot * cos
            dtheta = dreal_rot * (-real * sin + imag * cos) + dimag_rot * (-real * cos - imag * sin)

        dquery_entity = np.concatenate([dreal, dimag], axis=-1)
        np.add.at(grads["entities"], query_entity_index, dquery_entity)
        np.add.at(grads["relations"], query_relation_index, dtheta)
        return grads

    # ------------------------------------------------------------------
    # Chunk-aware scoring: rotate the query once, backpropagate the
    # rotation once per pass, and keep the difference tensor chunk-sized.
    # ------------------------------------------------------------------
    def begin_candidate_pass(
        self, params: ParamDict, queries: np.ndarray, direction: str = TAIL
    ) -> dict:
        queries = check_queries(queries)
        validate_direction(direction)
        return {
            "query_vectors": self._query_vectors(params, queries, direction),
            "dquery": None,
        }

    def _score_candidates_chunk(
        self,
        params: ParamDict,
        queries: np.ndarray,
        direction: str,
        start: int,
        stop: int,
        state: Optional[dict],
    ) -> np.ndarray:
        diff = state["query_vectors"][:, None, :] - params["entities"][None, start:stop, :]
        return -np.sum(self._modulus(diff), axis=-1)

    def _grad_candidates_chunk(
        self,
        params: ParamDict,
        queries: np.ndarray,
        dscores: np.ndarray,
        direction: str,
        start: int,
        stop: int,
        grads: ParamDict,
        state: Optional[dict],
    ) -> None:
        diff = state["query_vectors"][:, None, :] - params["entities"][None, start:stop, :]
        diff_real, diff_imag = self._split(diff)
        modulus = np.sqrt(diff_real * diff_real + diff_imag * diff_imag) + self._modulus_epsilon
        scaled = -np.asarray(dscores, dtype=np.float64)[:, :, None] / modulus
        ddiff = np.concatenate([scaled * diff_real, scaled * diff_imag], axis=-1)
        dquery = np.sum(ddiff, axis=1)
        grads["entities"][start:stop] -= np.sum(ddiff, axis=0)
        if state["dquery"] is None:
            state["dquery"] = dquery
        else:
            state["dquery"] += dquery

    def finish_candidate_pass(
        self,
        params: ParamDict,
        queries: np.ndarray,
        direction: str,
        state: Optional[dict],
        grads: ParamDict,
    ) -> None:
        if state is None or state["dquery"] is None:
            return
        entities, phases = params["entities"], params["relations"]
        query_entity_index = queries[:, 0]
        query_relation_index = queries[:, 1]
        real, imag = self._split(entities[query_entity_index])
        theta = phases[query_relation_index]
        cos, sin = np.cos(theta), np.sin(theta)
        dreal_rot, dimag_rot = self._split(state["dquery"])

        if direction == TAIL:
            dreal = dreal_rot * cos + dimag_rot * sin
            dimag = -dreal_rot * sin + dimag_rot * cos
            dtheta = dreal_rot * (-real * sin - imag * cos) + dimag_rot * (real * cos - imag * sin)
        else:
            dreal = dreal_rot * cos - dimag_rot * sin
            dimag = dreal_rot * sin + dimag_rot * cos
            dtheta = dreal_rot * (-real * sin + imag * cos) + dimag_rot * (-real * cos - imag * sin)

        dquery_entity = np.concatenate([dreal, dimag], axis=-1)
        np.add.at(grads["entities"], query_entity_index, dquery_entity)
        np.add.at(grads["relations"], query_relation_index, dtheta)
