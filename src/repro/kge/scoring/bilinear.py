"""Bilinear scoring functions.

The central class is :class:`BlockScoringFunction`, which evaluates any
block structure from the AutoSF search space with dense batched NumPy
operations and analytic gradients.  The classical bilinear models
(DistMult, ComplEx, Analogy, SimplE/CP) are thin wrappers around their named
block structures, which both demonstrates that the search space covers them
and lets tests cross-check the generic scorer against the textbook formulas.
RESCAL, whose relation embedding is a full ``d x d`` matrix and therefore
falls outside the search space, is implemented directly.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.kge.scoring.base import (
    HEAD,
    TAIL,
    ParamDict,
    ScoringFunction,
    check_queries,
    check_triples,
    gather_rows,
    validate_direction,
)
from repro.kge.scoring.blocks import (
    NUM_CHUNKS,
    BlockStructure,
    analogy_structure,
    complex_structure,
    distmult_structure,
    simple_structure,
)
from repro.kge.workspace import Workspace
from repro.utils.rng import RngLike, ensure_rng


class BlockScoringFunction(ScoringFunction):
    """Evaluate ``f(h, r, t) = h^T g(r) t`` for an arbitrary block structure.

    Parameters
    ----------
    structure:
        The :class:`BlockStructure` describing which ``±diag(r_k)`` blocks
        fill the 4x4 relation matrix.
    """

    def __init__(self, structure: BlockStructure, name: Optional[str] = None) -> None:
        if structure.num_blocks == 0:
            raise ValueError("a block scoring function needs at least one block")
        self.structure = structure
        self.name = name or structure.name or f"block-sf-{structure.num_blocks}"

    # ------------------------------------------------------------------
    # Chunk helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _chunk(array: np.ndarray, index: int) -> np.ndarray:
        """Return chunk ``index`` (of four) of the last axis of ``array``."""
        size = array.shape[-1] // NUM_CHUNKS
        return array[..., index * size : (index + 1) * size]

    @staticmethod
    def _check_dimension(params: ParamDict) -> None:
        dimension = params["entities"].shape[1]
        if dimension % NUM_CHUNKS != 0:
            raise ValueError("embedding dimension must be divisible by 4")
        if params["relations"].shape[1] != dimension:
            raise ValueError("entity and relation dimensions must match")

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def score_triples(self, params: ParamDict, triples: np.ndarray) -> np.ndarray:
        triples = check_triples(triples)
        self._check_dimension(params)
        entities, relations = params["entities"], params["relations"]
        heads = entities[triples[:, 0]]
        rels = relations[triples[:, 1]]
        tails = entities[triples[:, 2]]
        scores = np.zeros(triples.shape[0], dtype=np.float64)
        for row, col, component, sign in self.structure.blocks:
            scores += sign * np.sum(
                self._chunk(heads, row) * self._chunk(rels, component) * self._chunk(tails, col),
                axis=1,
            )
        return scores

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
        self._check_dimension(params)
        workspace = Workspace.scratch(workspace)
        entities, relations = params["entities"], params["relations"]
        candidate_index = self.candidate_entities(params, candidates)
        candidate_rows = gather_rows(entities, candidate_index, workspace, "block/candidates")
        query_entities = entities[queries[:, 0]]
        query_relations = relations[queries[:, 1]]

        shape = (queries.shape[0], candidate_index.shape[0])
        scores = np.empty(shape) if out is None else out
        scores.fill(0.0)
        product = workspace.empty("block/product", shape)
        for query_chunk, candidate_chunk, component, sign in self._query_chunks(direction):
            # scores += sign * (e_q ∘ r) @ candidate chunk.T, the sign applied
            # to the small (batch, chunk) factor (negation is exact).
            partial = self._chunk(query_entities, query_chunk) * self._chunk(
                query_relations, component
            )
            if sign < 0:
                np.negative(partial, out=partial)
            scores += np.matmul(
                partial, self._chunk(candidate_rows, candidate_chunk).T, out=product
            )
        return scores

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
        self._check_dimension(params)
        workspace = Workspace.scratch(workspace)
        entities, relations = params["entities"], params["relations"]
        candidate_index = self.candidate_entities(params, candidates)
        candidate_rows = gather_rows(entities, candidate_index, workspace, "block/candidates")
        query_entity_index = queries[:, 0]
        query_relation_index = queries[:, 1]
        query_entities = entities[query_entity_index]
        query_relations = relations[query_relation_index]
        dscores = np.asarray(dscores, dtype=np.float64)
        if dscores.shape != (queries.shape[0], candidate_index.shape[0]):
            raise ValueError("dscores shape must be (batch, num_candidates)")

        grads = self.zero_grads(params, out)
        chunk_size = entities.shape[1] // NUM_CHUNKS
        # Strictly increasing candidates are unique, so a fancy-index add
        # does what np.add.at does, without its per-element dispatch.
        unique_candidates = bool(np.all(np.diff(candidate_index) > 0))

        def chunk_slice(index: int) -> slice:
            return slice(index * chunk_size, (index + 1) * chunk_size)

        for query_chunk, candidate_chunk, component, sign in self._query_chunks(direction):
            rel = self._chunk(query_relations, component)
            ent = self._chunk(query_entities, query_chunk)
            cand = self._chunk(candidate_rows, candidate_chunk)

            partial = ent * rel  # (batch, chunk)
            # d score / d candidate chunk and the upstream gradient of the
            # query side.  The block sign is applied to these small results:
            # (-A) @ B == -(A @ B) bit for bit, and a zero whose sign differs
            # adds nothing to the zero-initialized gradient.
            dcandidate = dscores.T @ partial  # (candidates, chunk)
            upstream = dscores @ cand  # (batch, chunk)
            if sign < 0:
                np.negative(dcandidate, out=dcandidate)
                np.negative(upstream, out=upstream)
            candidate_grads = grads["entities"][:, chunk_slice(candidate_chunk)]
            if unique_candidates:
                candidate_grads[candidate_index] += dcandidate
            else:
                np.add.at(candidate_grads, candidate_index, dcandidate)
            # d score / d query-entity chunk and / d relation chunk
            np.add.at(
                grads["entities"][:, chunk_slice(query_chunk)],
                query_entity_index,
                upstream * rel,
            )
            np.add.at(
                grads["relations"][:, chunk_slice(component)],
                query_relation_index,
                upstream * ent,
            )
        return grads

    # ------------------------------------------------------------------
    # Chunk-aware scoring (fused over blocks, used by multi-class training)
    # ------------------------------------------------------------------
    # Every block's contribution to the score of candidate ``c`` is
    # ``sign * (e_q ∘ r) · c`` over one embedding chunk, so all blocks can be
    # collapsed into a single query projection ``P`` of full dimension with
    # ``P[:, col] += sign * e_q[row] ∘ r[comp]`` (chunks swapped for head
    # prediction).  Scores are then one GEMM ``P @ E[start:stop].T`` per
    # chunk instead of one GEMM per block, the candidate gradient is the
    # transposed GEMM added directly into the entity-table slice, and the
    # query/relation gradients unpack the accumulated ``dP = dscores @ E``
    # once per pass with exactly two scatters.

    def _query_chunks(self, direction: str):
        """Yield (query chunk, candidate chunk, component, sign) per block."""
        for row, col, component, sign in self.structure.blocks:
            if direction == TAIL:
                yield row, col, component, sign
            else:
                yield col, row, component, sign

    def begin_candidate_pass(
        self, params: ParamDict, queries: np.ndarray, direction: str = TAIL
    ) -> dict:
        queries = check_queries(queries)
        validate_direction(direction)
        self._check_dimension(params)
        entities, relations = params["entities"], params["relations"]
        query_entities = entities[queries[:, 0]]
        query_relations = relations[queries[:, 1]]
        dimension = entities.shape[1]
        chunk_size = dimension // NUM_CHUNKS
        projection = np.zeros((queries.shape[0], dimension), dtype=np.float64)
        for query_chunk, candidate_chunk, component, sign in self._query_chunks(direction):
            target = projection[:, candidate_chunk * chunk_size : (candidate_chunk + 1) * chunk_size]
            partial = self._chunk(query_entities, query_chunk) * self._chunk(
                query_relations, component
            )
            if sign > 0:
                target += partial
            else:
                target -= partial
        return {
            "projection": projection,
            "dprojection": None,
            "query_entities": query_entities,
            "query_relations": query_relations,
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
        return state["projection"] @ params["entities"][start:stop].T

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
        grads["entities"][start:stop] += dscores.T @ state["projection"]
        dprojection = dscores @ params["entities"][start:stop]
        if state["dprojection"] is None:
            state["dprojection"] = dprojection
        else:
            state["dprojection"] += dprojection

    def finish_candidate_pass(
        self,
        params: ParamDict,
        queries: np.ndarray,
        direction: str,
        state: Optional[dict],
        grads: ParamDict,
    ) -> None:
        if state is None or state["dprojection"] is None:
            return
        dprojection = state["dprojection"]
        dimension = params["entities"].shape[1]
        chunk_size = dimension // NUM_CHUNKS
        dquery = np.zeros_like(dprojection)
        drelation = np.zeros_like(dprojection)
        for query_chunk, candidate_chunk, component, sign in self._query_chunks(direction):
            upstream = sign * dprojection[
                :, candidate_chunk * chunk_size : (candidate_chunk + 1) * chunk_size
            ]
            dquery[:, query_chunk * chunk_size : (query_chunk + 1) * chunk_size] += (
                upstream * self._chunk(state["query_relations"], component)
            )
            drelation[:, component * chunk_size : (component + 1) * chunk_size] += (
                upstream * self._chunk(state["query_entities"], query_chunk)
            )
        np.add.at(grads["entities"], queries[:, 0], dquery)
        np.add.at(grads["relations"], queries[:, 1], drelation)


# ----------------------------------------------------------------------
# Classical bilinear models as named block structures
# ----------------------------------------------------------------------
class DistMult(BlockScoringFunction):
    """DistMult (Yang et al., 2015): purely diagonal, only symmetric relations."""

    def __init__(self) -> None:
        super().__init__(distmult_structure(), name="DistMult")


class ComplEx(BlockScoringFunction):
    """ComplEx (Trouillon et al., 2017) expressed over four real chunks."""

    def __init__(self) -> None:
        super().__init__(complex_structure(), name="ComplEx")


class Analogy(BlockScoringFunction):
    """Analogy (Liu et al., 2017): half DistMult, half ComplEx."""

    def __init__(self) -> None:
        super().__init__(analogy_structure(), name="Analogy")


class SimplE(BlockScoringFunction):
    """SimplE / CP (Kazemi & Poole, 2018; Lacroix et al., 2018)."""

    def __init__(self) -> None:
        super().__init__(simple_structure(), name="SimplE")


class RESCAL(ScoringFunction):
    """RESCAL (Nickel et al., 2011): one full ``d x d`` matrix per relation.

    Included as a baseline; the paper excludes it from the search space
    because its relation parameter count scales quadratically with the
    dimension, but it remains a useful reference implementation.
    """

    name = "RESCAL"

    def init_params(
        self,
        num_entities: int,
        num_relations: int,
        dimension: int,
        rng: RngLike = None,
        scale: float = 0.1,
    ) -> ParamDict:
        gen = ensure_rng(rng)
        return {
            "entities": gen.uniform(-scale, scale, size=(num_entities, dimension)),
            "relations": gen.uniform(-scale, scale, size=(num_relations, dimension, dimension)),
        }

    def score_triples(self, params: ParamDict, triples: np.ndarray) -> np.ndarray:
        triples = check_triples(triples)
        entities, relations = params["entities"], params["relations"]
        heads = entities[triples[:, 0]]
        rel_matrices = relations[triples[:, 1]]
        tails = entities[triples[:, 2]]
        transformed = np.einsum("bi,bij->bj", heads, rel_matrices)
        return np.sum(transformed * tails, axis=1)

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
        entities, relations = params["entities"], params["relations"]
        candidate_index = self.candidate_entities(params, candidates)
        candidate_rows = entities[candidate_index]
        query_entities = entities[queries[:, 0]]
        rel_matrices = relations[queries[:, 1]]
        if direction == TAIL:
            transformed = np.einsum("bi,bij->bj", query_entities, rel_matrices)
        else:
            transformed = np.einsum("bj,bij->bi", query_entities, rel_matrices)
        return np.matmul(transformed, candidate_rows.T, out=out)

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
        entities, relations = params["entities"], params["relations"]
        candidate_index = self.candidate_entities(params, candidates)
        candidate_rows = entities[candidate_index]
        query_entity_index = queries[:, 0]
        query_relation_index = queries[:, 1]
        query_entities = entities[query_entity_index]
        rel_matrices = relations[query_relation_index]
        dscores = np.asarray(dscores, dtype=np.float64)

        grads = self.zero_grads(params, out)
        if direction == TAIL:
            transformed = np.einsum("bi,bij->bj", query_entities, rel_matrices)
            # scores = transformed @ candidate_rows.T
            np.add.at(grads["entities"], candidate_index, dscores.T @ transformed)
            dtransformed = dscores @ candidate_rows
            np.add.at(
                grads["entities"],
                query_entity_index,
                np.einsum("bj,bij->bi", dtransformed, rel_matrices),
            )
            np.add.at(
                grads["relations"],
                query_relation_index,
                np.einsum("bi,bj->bij", query_entities, dtransformed),
            )
        else:
            transformed = np.einsum("bj,bij->bi", query_entities, rel_matrices)
            np.add.at(grads["entities"], candidate_index, dscores.T @ transformed)
            dtransformed = dscores @ candidate_rows
            np.add.at(
                grads["entities"],
                query_entity_index,
                np.einsum("bi,bij->bj", dtransformed, rel_matrices),
            )
            np.add.at(
                grads["relations"],
                query_relation_index,
                np.einsum("bi,bj->bij", dtransformed, query_entities),
            )
        return grads

    # ------------------------------------------------------------------
    # Chunk-aware scoring: the relation transform is chunk-independent
    # ------------------------------------------------------------------
    def begin_candidate_pass(
        self, params: ParamDict, queries: np.ndarray, direction: str = TAIL
    ) -> dict:
        queries = check_queries(queries)
        validate_direction(direction)
        entities, relations = params["entities"], params["relations"]
        query_entities = entities[queries[:, 0]]
        rel_matrices = relations[queries[:, 1]]
        if direction == TAIL:
            transformed = np.einsum("bi,bij->bj", query_entities, rel_matrices)
        else:
            transformed = np.einsum("bj,bij->bi", query_entities, rel_matrices)
        return {
            "transformed": transformed,
            "dtransformed": None,
            "query_entities": query_entities,
            "rel_matrices": rel_matrices,
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
        return state["transformed"] @ params["entities"][start:stop].T

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
        grads["entities"][start:stop] += dscores.T @ state["transformed"]
        dtransformed = dscores @ params["entities"][start:stop]
        if state["dtransformed"] is None:
            state["dtransformed"] = dtransformed
        else:
            state["dtransformed"] += dtransformed

    def finish_candidate_pass(
        self,
        params: ParamDict,
        queries: np.ndarray,
        direction: str,
        state: Optional[dict],
        grads: ParamDict,
    ) -> None:
        if state is None or state["dtransformed"] is None:
            return
        dtransformed = state["dtransformed"]
        rel_matrices = state["rel_matrices"]
        query_entities = state["query_entities"]
        if direction == TAIL:
            dquery = np.einsum("bj,bij->bi", dtransformed, rel_matrices)
            drelation = np.einsum("bi,bj->bij", query_entities, dtransformed)
        else:
            dquery = np.einsum("bi,bij->bj", dtransformed, rel_matrices)
            drelation = np.einsum("bi,bj->bij", dtransformed, query_entities)
        np.add.at(grads["entities"], queries[:, 0], dquery)
        np.add.at(grads["relations"], queries[:, 1], drelation)
