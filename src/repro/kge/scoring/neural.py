"""The MLP "general approximator" baseline (Appendix D of the paper).

Two small fully-connected networks are used: ``NN1`` combines the head and
relation embeddings into a vector whose dot product with the tail embedding
is the tail-prediction score, and ``NN2`` plays the symmetric role for head
prediction.  The paper uses this model to show that an unconstrained
general approximator, despite covering every bilinear model in principle,
performs much worse than the structured search space (Fig. 6).

Both networks have the layout ``2d -> hidden -> d`` with a ``tanh``
non-linearity after the first layer, mirroring the paper's 128-64-64 network
at ``d = 64``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

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


class MLPScoringFunction(ScoringFunction):
    """The two-network MLP scorer used as the Gen-Approx baseline."""

    name = "MLP"

    def __init__(self, hidden_units: Optional[int] = None) -> None:
        # ``None`` means "use the embedding dimension", matching the paper.
        self.hidden_units = hidden_units

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------
    def init_params(
        self,
        num_entities: int,
        num_relations: int,
        dimension: int,
        rng: RngLike = None,
        scale: float = 0.1,
    ) -> ParamDict:
        gen = ensure_rng(rng)
        hidden = self.hidden_units or dimension
        params: ParamDict = {
            "entities": gen.uniform(-scale, scale, size=(num_entities, dimension)),
            "relations": gen.uniform(-scale, scale, size=(num_relations, dimension)),
        }
        for prefix in ("nn1", "nn2"):
            params[f"{prefix}_w1"] = gen.normal(0.0, 1.0 / np.sqrt(2 * dimension), size=(2 * dimension, hidden))
            params[f"{prefix}_b1"] = np.zeros(hidden)
            params[f"{prefix}_w2"] = gen.normal(0.0, 1.0 / np.sqrt(hidden), size=(hidden, dimension))
            params[f"{prefix}_b2"] = np.zeros(dimension)
        return params

    # ------------------------------------------------------------------
    # Forward / backward through one network
    # ------------------------------------------------------------------
    @staticmethod
    def _forward(
        params: ParamDict, prefix: str, inputs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return (output, hidden activation) of the named network."""
        hidden = np.tanh(inputs @ params[f"{prefix}_w1"] + params[f"{prefix}_b1"])
        output = hidden @ params[f"{prefix}_w2"] + params[f"{prefix}_b2"]
        return output, hidden

    @staticmethod
    def _backward(
        params: ParamDict,
        grads: ParamDict,
        prefix: str,
        inputs: np.ndarray,
        hidden: np.ndarray,
        doutput: np.ndarray,
    ) -> np.ndarray:
        """Accumulate network gradients and return d loss / d inputs."""
        grads[f"{prefix}_w2"] += hidden.T @ doutput
        grads[f"{prefix}_b2"] += doutput.sum(axis=0)
        dhidden = (doutput @ params[f"{prefix}_w2"].T) * (1.0 - hidden * hidden)
        grads[f"{prefix}_w1"] += inputs.T @ dhidden
        grads[f"{prefix}_b1"] += dhidden.sum(axis=0)
        return dhidden @ params[f"{prefix}_w1"].T

    @staticmethod
    def _network_for(direction: str) -> str:
        return "nn1" if direction == TAIL else "nn2"

    # ------------------------------------------------------------------
    # ScoringFunction API
    # ------------------------------------------------------------------
    def score_triples(self, params: ParamDict, triples: np.ndarray) -> np.ndarray:
        triples = check_triples(triples)
        entities, relations = params["entities"], params["relations"]
        inputs = np.concatenate([entities[triples[:, 0]], relations[triples[:, 1]]], axis=1)
        combined, _hidden = self._forward(params, "nn1", inputs)
        return np.sum(combined * entities[triples[:, 2]], axis=1)

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
        inputs = np.concatenate([entities[queries[:, 0]], relations[queries[:, 1]]], axis=1)
        combined, _hidden = self._forward(params, self._network_for(direction), inputs)
        return np.matmul(combined, candidate_rows.T, out=out)

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
        query_entities = entities[queries[:, 0]]
        query_relations = relations[queries[:, 1]]
        dscores = np.asarray(dscores, dtype=np.float64)

        prefix = self._network_for(direction)
        inputs = np.concatenate([query_entities, query_relations], axis=1)
        combined, hidden = self._forward(params, prefix, inputs)

        grads = self.zero_grads(params, out)
        # scores = combined @ candidate_rows.T
        np.add.at(grads["entities"], candidate_index, dscores.T @ combined)
        dcombined = dscores @ candidate_rows
        dinputs = self._backward(params, grads, prefix, inputs, hidden, dcombined)

        dimension = entities.shape[1]
        np.add.at(grads["entities"], queries[:, 0], dinputs[:, :dimension])
        np.add.at(grads["relations"], queries[:, 1], dinputs[:, dimension:])
        return grads

    # ------------------------------------------------------------------
    # Chunk-aware scoring: one network forward per pass (not per chunk),
    # one backward through the network per pass in ``finish``.
    # ------------------------------------------------------------------
    def begin_candidate_pass(
        self, params: ParamDict, queries: np.ndarray, direction: str = TAIL
    ) -> dict:
        queries = check_queries(queries)
        validate_direction(direction)
        entities, relations = params["entities"], params["relations"]
        inputs = np.concatenate([entities[queries[:, 0]], relations[queries[:, 1]]], axis=1)
        combined, hidden = self._forward(params, self._network_for(direction), inputs)
        return {
            "inputs": inputs,
            "hidden": hidden,
            "combined": combined,
            "dcombined": None,
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
        return state["combined"] @ params["entities"][start:stop].T

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
        dscores = np.asarray(dscores, dtype=np.float64)
        grads["entities"][start:stop] += dscores.T @ state["combined"]
        dcombined = dscores @ params["entities"][start:stop]
        if state["dcombined"] is None:
            state["dcombined"] = dcombined
        else:
            state["dcombined"] += dcombined

    def finish_candidate_pass(
        self,
        params: ParamDict,
        queries: np.ndarray,
        direction: str,
        state: Optional[dict],
        grads: ParamDict,
    ) -> None:
        if state is None or state["dcombined"] is None:
            return
        dinputs = self._backward(
            params,
            grads,
            self._network_for(direction),
            state["inputs"],
            state["hidden"],
            state["dcombined"],
        )
        dimension = params["entities"].shape[1]
        np.add.at(grads["entities"], queries[:, 0], dinputs[:, :dimension])
        np.add.at(grads["relations"], queries[:, 1], dinputs[:, dimension:])
