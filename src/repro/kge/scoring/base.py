"""The scoring-function interface shared by every model in the library.

A scoring function owns its parameter layout (a dict of named NumPy arrays —
at minimum ``"entities"`` and ``"relations"``) and exposes three operations:

* ``score_triples`` — plausibility of explicit (h, r, t) triples;
* ``score_candidates`` — scores of a batch of queries against a candidate
  entity set (all entities when ``candidates is None``), in either the
  tail-prediction or head-prediction direction;
* ``grad_candidates`` — gradients of a scalar loss with respect to every
  parameter array, given the upstream gradient of the candidate scores.

The trainer composes ``score_candidates``/``grad_candidates`` with a loss;
the evaluator only needs ``score_candidates``.  Keeping gradients analytic
(no autograd) is what makes a pure-NumPy search over hundreds of candidate
scoring functions tractable.

Serving reuses the training engine's chunk-aware candidate pass: a
:class:`RelationOperator` is one relation's queries run through the
family's own ``begin_candidate_pass`` and ``score_candidates_chunk``, so
each family writes its query-side math exactly once.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Optional

import numpy as np

from repro.kge.workspace import Workspace
from repro.utils.rng import RngLike, ensure_rng

#: Parameter and gradient containers are plain dicts of arrays.
ParamDict = Dict[str, np.ndarray]

#: The two ranking directions.
TAIL = "tail"
HEAD = "head"


def validate_direction(direction: str) -> str:
    """Validate a ranking direction string."""
    if direction not in (TAIL, HEAD):
        raise ValueError(f"direction must be 'tail' or 'head', got {direction!r}")
    return direction


class ScoringFunction(ABC):
    """Abstract base class for all scoring functions."""

    #: Human-readable model name (set by subclasses).
    name: str = "scoring-function"

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
        """Initialize all trainable arrays.

        The default layout is one ``(num_entities, dimension)`` entity table
        and one ``(num_relations, dimension)`` relation table, both drawn
        from a zero-mean uniform distribution of half-width ``scale``.
        Subclasses with extra parameters extend the returned dict.
        """
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        gen = ensure_rng(rng)
        return {
            "entities": gen.uniform(-scale, scale, size=(num_entities, dimension)),
            "relations": gen.uniform(-scale, scale, size=(num_relations, dimension)),
        }

    def zero_grads(self, params: ParamDict, out: Optional[ParamDict] = None) -> ParamDict:
        """A gradient dict of zeros matching ``params``: ``out`` zero-filled, if given."""
        if out is None:
            return {key: np.zeros_like(value) for key, value in params.items()}
        for value in out.values():
            value.fill(0)
        return out

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    @abstractmethod
    def score_triples(self, params: ParamDict, triples: np.ndarray) -> np.ndarray:
        """Score explicit triples.

        Parameters
        ----------
        triples:
            ``(batch, 3)`` integer array of (head, relation, tail).

        Returns
        -------
        ``(batch,)`` float array of plausibility scores (higher = better).
        """

    @abstractmethod
    def score_candidates(
        self,
        params: ParamDict,
        queries: np.ndarray,
        direction: str = TAIL,
        candidates: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
        workspace: Optional[Workspace] = None,
    ) -> np.ndarray:
        """Score queries against candidate entities.

        Parameters
        ----------
        queries:
            ``(batch, 2)`` integer array.  For ``direction="tail"`` each row
            is (head, relation) and candidates fill the tail slot; for
            ``direction="head"`` each row is (tail, relation) and candidates
            fill the head slot.
        candidates:
            Optional ``(num_candidates,)`` entity index array; ``None`` means
            every entity.
        out:
            Optional ``(batch, num_candidates)`` array the scores are written
            into (and returned).
        workspace:
            Optional scratch the family may reuse for its temporaries; it
            never holds the returned array.

        Returns
        -------
        ``(batch, num_candidates)`` float array.
        """

    @abstractmethod
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
        """Backpropagate through :meth:`score_candidates`.

        Parameters
        ----------
        dscores:
            ``(batch, num_candidates)`` upstream gradient (d loss / d score).
        out:
            Optional dict of arrays shaped like ``params`` that the gradient
            overwrites (and that is returned).
        workspace:
            As in :meth:`score_candidates`.

        Returns
        -------
        A dict of dense gradient arrays with the same keys/shapes as
        ``params``.
        """

    # ------------------------------------------------------------------
    # Chunk-aware scoring (the batched training engine's interface)
    # ------------------------------------------------------------------
    # The batched trainer scores every query against the entity vocabulary
    # in contiguous chunks ``[start, stop)`` so that peak memory stays
    # bounded.  Most of the per-query work (embedding lookups, relation
    # projections, network forward passes) is identical for every chunk, so
    # the pass is bracketed: ``begin_candidate_pass`` precomputes that state
    # once, the ``*_chunk`` methods reuse it per chunk, and
    # ``finish_candidate_pass`` scatters gradient contributions that were
    # accumulated across chunks (one scatter per pass instead of one per
    # chunk).  The defaults below delegate to ``score_candidates`` /
    # ``grad_candidates`` so every scoring function works unmodified;
    # subclasses override the ``_``-prefixed hooks with fused
    # implementations.  The public methods own the pass protocol: callers
    # may omit ``state`` for a standalone chunk call, in which case the
    # state is created (and, for gradients, finalized) on the spot.

    def begin_candidate_pass(
        self, params: ParamDict, queries: np.ndarray, direction: str = TAIL
    ) -> Optional[dict]:
        """Precompute per-query state shared by every chunk of one pass."""
        return None

    def score_candidates_chunk(
        self,
        params: ParamDict,
        queries: np.ndarray,
        direction: str,
        start: int,
        stop: int,
        state: Optional[dict] = None,
    ) -> np.ndarray:
        """Score queries against candidate entities ``start:stop``."""
        if state is None:
            state = self.begin_candidate_pass(params, queries, direction)
        return self._score_candidates_chunk(params, queries, direction, start, stop, state)

    def grad_candidates_chunk(
        self,
        params: ParamDict,
        queries: np.ndarray,
        dscores: np.ndarray,
        direction: str,
        start: int,
        stop: int,
        grads: ParamDict,
        state: Optional[dict] = None,
    ) -> None:
        """Accumulate the gradient of the ``start:stop`` chunk into ``grads``."""
        own_pass = state is None
        if own_pass:
            state = self.begin_candidate_pass(params, queries, direction)
        self._grad_candidates_chunk(params, queries, dscores, direction, start, stop, grads, state)
        if own_pass:
            self.finish_candidate_pass(params, queries, direction, state, grads)

    def finish_candidate_pass(
        self,
        params: ParamDict,
        queries: np.ndarray,
        direction: str,
        state: Optional[dict],
        grads: ParamDict,
    ) -> None:
        """Scatter cross-chunk gradient accumulators into ``grads``."""
        return None

    def _score_candidates_chunk(
        self,
        params: ParamDict,
        queries: np.ndarray,
        direction: str,
        start: int,
        stop: int,
        state: Optional[dict],
    ) -> np.ndarray:
        return self.score_candidates(
            params, queries, direction=direction, candidates=np.arange(start, stop, dtype=np.int64)
        )

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
        chunk_grads = self.grad_candidates(
            params,
            queries,
            dscores,
            direction=direction,
            candidates=np.arange(start, stop, dtype=np.int64),
        )
        for key, grad in chunk_grads.items():
            grads[key] += grad

    # ------------------------------------------------------------------
    # Relation-grouped inference (the serving engine's interface)
    # ------------------------------------------------------------------
    # Serving workloads answer many queries that share a relation.  The
    # engine groups them per (relation, direction) and runs each group
    # through the candidate pass above, so a served answer is scored by
    # exactly the kernel that training and evaluation use.

    def relation_operator(
        self, params: ParamDict, relation: int, direction: str = TAIL
    ) -> "RelationOperator":
        """The scoring operator of one (relation, direction) pair."""
        return RelationOperator(self, params, relation, direction)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def candidate_entities(self, params: ParamDict, candidates: Optional[np.ndarray]) -> np.ndarray:
        """Resolve the candidate index array (all entities when ``None``)."""
        num_entities = params["entities"].shape[0]
        if candidates is None:
            return np.arange(num_entities, dtype=np.int64)
        candidates = np.asarray(candidates, dtype=np.int64)
        if candidates.ndim != 1:
            raise ValueError("candidates must be a 1-D index array")
        return candidates

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return f"{type(self).__name__}(name={self.name!r})"


class RelationOperator:
    """The scoring operator of one (relation, direction) pair.

    The two-step protocol mirrors how batched inference uses it:

    * :meth:`project` runs the family's ``begin_candidate_pass`` over a
      batch of query entities paired with this relation (for bilinear
      families: one fused ``(batch, dimension)`` projection matrix);
    * :meth:`score` runs the family's ``score_candidates_chunk`` against the
      contiguous candidate entities ``start:stop`` (for bilinear families:
      one GEMM against the entity-table slice).

    Every scoring function is served through this one class; there are no
    per-family operator subclasses to keep in step with the training pass.
    """

    def __init__(
        self,
        scoring_function: "ScoringFunction",
        params: ParamDict,
        relation: int,
        direction: str,
    ) -> None:
        num_relations = params["relations"].shape[0]
        relation = int(relation)
        if not 0 <= relation < num_relations:
            raise ValueError(
                f"relation index {relation} out of range [0, {num_relations})"
            )
        self.scoring_function = scoring_function
        self.params = params
        self.relation = relation
        self.direction = validate_direction(direction)

    def _queries(self, entity_indices: np.ndarray) -> np.ndarray:
        entity_indices = np.asarray(entity_indices, dtype=np.int64)
        relations = np.full_like(entity_indices, self.relation)
        return np.stack([entity_indices, relations], axis=1)

    def project(self, entity_indices: np.ndarray) -> object:
        """Precompute the query-side state for a batch of query entities."""
        queries = self._queries(entity_indices)
        return {
            "queries": queries,
            "state": self.scoring_function.begin_candidate_pass(
                self.params, queries, self.direction
            ),
        }

    def score(self, projection: object, start: int, stop: int) -> np.ndarray:
        """Scores of every projected query against entities ``start:stop``."""
        return self.scoring_function.score_candidates_chunk(
            self.params,
            projection["queries"],
            self.direction,
            start,
            stop,
            projection["state"],
        )

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return (
            f"{type(self).__name__}(scoring_function={self.scoring_function.name!r}, "
            f"relation={self.relation}, direction={self.direction!r})"
        )


def gather_rows(
    table: np.ndarray, index: np.ndarray, workspace: Workspace, name: str
) -> np.ndarray:
    """``table[index]``, written into workspace buffer ``name``.

    ``np.take`` with ``mode="wrap"`` indexes like ``table[index]`` for
    in-range (and negative) indices without the intermediate copy that its
    default mode makes; the explicit bounds check keeps fancy indexing's
    ``IndexError``.
    """
    rows = table.shape[0]
    if index.size and (index.min() < -rows or index.max() >= rows):
        raise IndexError(f"index out of bounds for axis 0 with size {rows}")
    out = workspace.empty(name, (index.shape[0],) + table.shape[1:], table.dtype)
    return np.take(table, index, axis=0, out=out, mode="wrap")


def check_queries(queries: np.ndarray) -> np.ndarray:
    """Validate a (batch, 2) query array."""
    queries = np.asarray(queries, dtype=np.int64)
    if queries.ndim != 2 or queries.shape[1] != 2:
        raise ValueError("queries must have shape (batch, 2)")
    return queries


def check_triples(triples: np.ndarray) -> np.ndarray:
    """Validate a (batch, 3) triple array."""
    triples = np.asarray(triples, dtype=np.int64)
    if triples.ndim != 2 or triples.shape[1] != 3:
        raise ValueError("triples must have shape (batch, 3)")
    return triples
