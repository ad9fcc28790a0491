"""The stochastic training loop (Alg. 1 of the paper).

Each mini-batch contributes two terms, exactly as in the reciprocal /
multi-class training setup the paper adopts: a *tail-prediction* term where
``(h, r, ?)`` is scored against candidate entities, and a *head-prediction*
term for ``(?, r, t)``.  Gradients from both directions plus the regularizer
are summed and handed to the optimizer.

The trainer records a :class:`TrainingHistory` with per-epoch loss, wall
time and (optionally) validation MRR, which is what the learning-curve
figure (Fig. 4) and the early-stopping logic consume.

The per-batch loss/gradient computation is delegated to a
:class:`repro.kge.engine.TrainEngine`, whose kernel the loss picks: the
fused, entity-chunked multi-class kernel or the touched-rows pairwise
kernel, both followed by the dense regularizer and optimizer step.
Whenever validation runs during ``fit`` the trainer snapshots the
best-validation parameters (and optimizer state) and restores them before
returning, so the returned parameters are the checkpoint that actually
achieved ``history.best_validation_mrr`` — not whatever the last epoch
happened to produce.  Early-stopping patience counts
*evaluations* without improvement (one evaluation every ``eval_every``
epochs), not epochs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional

import numpy as np

from repro.datasets.knowledge_graph import KnowledgeGraph
from repro.kge.engine import TrainEngine
from repro.kge.losses import Loss, get_loss
from repro.kge.negative_sampling import NegativeSampler
from repro.kge.optimizers import Optimizer, get_optimizer
from repro.kge.regularizers import L2Regularizer, Regularizer
from repro.kge.scoring.base import ParamDict, ScoringFunction
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.utils.config import TrainingConfig
from repro.utils.rng import ensure_rng

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from repro.datasets.pipeline import TripleStream as TripleStreamLike


@dataclass
class TrainingHistory:
    """Per-epoch training trace."""

    epochs: List[int] = field(default_factory=list)
    losses: List[float] = field(default_factory=list)
    elapsed_seconds: List[float] = field(default_factory=list)
    validation_mrr: List[Optional[float]] = field(default_factory=list)

    def record(
        self,
        epoch: int,
        loss: float,
        elapsed: float,
        validation_mrr: Optional[float] = None,
    ) -> None:
        self.epochs.append(int(epoch))
        self.losses.append(float(loss))
        self.elapsed_seconds.append(float(elapsed))
        self.validation_mrr.append(validation_mrr)

    @property
    def final_loss(self) -> Optional[float]:
        return self.losses[-1] if self.losses else None

    @property
    def best_validation_mrr(self) -> Optional[float]:
        observed = [value for value in self.validation_mrr if value is not None]
        return max(observed) if observed else None

    def as_dict(self) -> dict:
        return {
            "epochs": list(self.epochs),
            "losses": list(self.losses),
            "elapsed_seconds": list(self.elapsed_seconds),
            "validation_mrr": list(self.validation_mrr),
        }


class Trainer:
    """Train one scoring function on one knowledge graph."""

    def __init__(
        self,
        scoring_function: ScoringFunction,
        config: TrainingConfig,
        loss: Optional[Loss] = None,
        optimizer: Optional[Optimizer] = None,
        regularizer: Optional[Regularizer] = None,
        negative_sampler: Optional[NegativeSampler] = None,
        engine: Optional[TrainEngine] = None,
    ) -> None:
        self.scoring_function = scoring_function
        self.config = config
        self.loss = loss if loss is not None else get_loss(config.loss, margin=config.margin)
        self.optimizer = (
            optimizer
            if optimizer is not None
            else get_optimizer(config.optimizer, config.learning_rate, config.decay_rate)
        )
        self.regularizer = (
            regularizer if regularizer is not None else L2Regularizer(config.l2_penalty)
        )
        self.negative_sampler = negative_sampler
        self.engine = engine if engine is not None else TrainEngine(config.score_chunk_size)
        self.rng = ensure_rng(config.seed)

    # ------------------------------------------------------------------
    # Parameter initialization
    # ------------------------------------------------------------------
    def initialize(self, graph) -> ParamDict:
        """Initialize the parameter dict for ``graph``.

        Duck-typed: anything exposing ``num_entities``/``num_relations``
        works — a :class:`KnowledgeGraph` or a
        :class:`repro.datasets.pipeline.TripleStream`.
        """
        return self.scoring_function.init_params(
            num_entities=graph.num_entities,
            num_relations=graph.num_relations,
            dimension=self.config.dimension,
            rng=self.rng,
            scale=self.config.init_scale,
        )

    # ------------------------------------------------------------------
    # One mini-batch
    # ------------------------------------------------------------------
    def train_step(self, params: ParamDict, batch: np.ndarray) -> float:
        """Run one mini-batch update; return the batch loss.

        Fully delegated to the :class:`~repro.kge.engine.TrainEngine`.
        """
        return self.engine.train_step(self, params, batch)

    # ------------------------------------------------------------------
    # Full training loop
    # ------------------------------------------------------------------
    def fit(
        self,
        graph: Optional[KnowledgeGraph],
        params: Optional[ParamDict] = None,
        validation_callback: Optional[Callable[[ParamDict], float]] = None,
        stream: Optional["TripleStreamLike"] = None,
    ) -> tuple:
        """Train on ``graph.train`` (or on a streaming mini-batch source).

        Parameters
        ----------
        graph:
            The training graph.  May be ``None`` when ``stream`` is given:
            the stream then supplies the vocabulary sizes too
            (``num_entities``/``num_relations``), so a large store never
            needs materializing into a graph just to train on it.
        params:
            Optional pre-initialized parameters (e.g. to continue training).
        validation_callback:
            Called with the current parameters whenever validation is due
            (every ``config.eval_every`` epochs); must return a scalar score
            where higher is better (normally the filtered validation MRR).
        stream:
            Optional :class:`repro.datasets.pipeline.TripleStream` (or any
            object with ``epoch(i)`` yielding ``(n, 3)`` batches and
            ``num_triples``/``num_entities``/``num_relations`` attributes).
            When given, mini-batches come from the stream's deterministic
            two-level shuffle instead of a global permutation of
            ``graph.train``, so the training split is never materialized —
            the engine only ever sees one batch at a time.

        Returns
        -------
        (params, history)

        Notes
        -----
        When validation runs at least once, the returned parameters are the
        snapshot taken at the *best* validation score — not the last epoch's
        state, which early stopping (or plain over-training) may have left
        strictly worse.  The optimizer state is restored alongside, so a
        continued run resumes with accumulator state matching the returned
        parameters (the epoch-shuffle RNG stream is not rewound, so the
        continuation is consistent but not bitwise-identical to a run that
        stopped at the best epoch).  Early-stopping patience
        counts evaluations without improvement, not epochs: with
        ``eval_every=e`` and ``early_stopping_patience=p`` training stops
        ``e * p`` epochs after the best evaluation at the earliest.

        The engine holds one scratch workspace for the whole fit (see
        :meth:`repro.kge.engine.TrainEngine.fitting`): the first mini-batch
        allocates the dense gradient and every temporary of the update, later
        ones reuse them in place, and the workspace is dropped when ``fit``
        returns or raises.  Reuse never reorders a float operation, so the
        result is bit for bit that of allocating afresh on every step.
        """
        with self.engine.fitting():
            return self._fit(graph, params, validation_callback, stream)

    def _fit(
        self,
        graph: Optional[KnowledgeGraph],
        params: Optional[ParamDict],
        validation_callback: Optional[Callable[[ParamDict], float]],
        stream: Optional["TripleStreamLike"],
    ) -> tuple:
        """The body of :meth:`fit`, run while the engine holds its workspace."""
        if graph is None and stream is None:
            raise ValueError("fit needs a graph, a stream, or both")
        if params is None:
            # A TripleStream carries the vocabulary sizes, so it can stand
            # in for the graph during parameter initialization.
            params = self.initialize(graph if graph is not None else stream)
        history = TrainingHistory()
        train = graph.train if graph is not None else None
        num_train = stream.num_triples if stream is not None else train.shape[0]
        if num_train == 0:
            raise ValueError("cannot train on an empty training split")

        best_score = -np.inf
        evaluations_since_best = 0
        best_params: Optional[ParamDict] = None
        best_optimizer_state: Optional[dict] = None
        start_time = time.perf_counter()

        # Telemetry handles are bound once per fit: with observability off
        # these are shared no-op objects, so the per-batch cost is two
        # empty method calls.
        registry = obs_metrics.get_registry()
        kernel = "pairwise" if self.loss.needs_negative_samples else "multiclass"
        loss_label = {"loss": kernel}
        m_epochs = registry.counter(
            "repro_train_epochs_total", help="Training epochs completed.",
            labels=loss_label,
        )
        m_batches = registry.counter(
            "repro_train_batches_total", help="Training mini-batches processed.",
            labels=loss_label,
        )
        m_triples = registry.counter(
            "repro_train_triples_total", help="Training triples processed.",
            labels=loss_label,
        )
        m_loss = registry.gauge(
            "repro_train_epoch_loss", help="Mean loss of the last epoch.",
            labels=loss_label,
        )
        m_rate = registry.gauge(
            "repro_train_triples_per_second",
            help="Training throughput of the last epoch.",
            labels=loss_label,
        )

        for epoch in range(1, self.config.epochs + 1):
            epoch_loss = 0.0
            num_batches = 0
            epoch_triples = 0
            with obs_trace.span("train.epoch") as epoch_span:
                epoch_started = time.monotonic()
                if stream is not None:
                    for batch in stream.epoch(epoch - 1):
                        batch = np.asarray(batch)
                        epoch_loss += self.train_step(params, batch)
                        num_batches += 1
                        epoch_triples += batch.shape[0]
                        m_batches.inc()
                        m_triples.inc(batch.shape[0])
                else:
                    order = self.rng.permutation(train.shape[0])
                    for begin in range(0, train.shape[0], self.config.batch_size):
                        batch = train[order[begin : begin + self.config.batch_size]]
                        epoch_loss += self.train_step(params, batch)
                        num_batches += 1
                        epoch_triples += batch.shape[0]
                        m_batches.inc()
                        m_triples.inc(batch.shape[0])
                self.optimizer.decay()
                mean_loss = epoch_loss / max(num_batches, 1)
                epoch_seconds = time.monotonic() - epoch_started
                m_epochs.inc()
                m_loss.set(mean_loss)
                if epoch_seconds > 0:
                    m_rate.set(epoch_triples / epoch_seconds)
                epoch_span.attrs.update(
                    epoch=epoch,
                    batches=num_batches,
                    triples=epoch_triples,
                    loss=float(mean_loss),
                )

            validation_score: Optional[float] = None
            evaluate_now = (
                validation_callback is not None
                and self.config.eval_every > 0
                and (epoch % self.config.eval_every == 0 or epoch == self.config.epochs)
            )
            if evaluate_now:
                validation_score = float(validation_callback(params))
                if validation_score > best_score:
                    best_score = validation_score
                    evaluations_since_best = 0
                    best_params = {key: value.copy() for key, value in params.items()}
                    best_optimizer_state = self.optimizer.snapshot()
                else:
                    evaluations_since_best += 1

            history.record(
                epoch,
                mean_loss,
                time.perf_counter() - start_time,
                validation_score,
            )

            patience = self.config.early_stopping_patience
            if patience > 0 and evaluate_now and evaluations_since_best >= patience:
                break

        if best_params is not None:
            # Restore the best-validation checkpoint in place (callers may
            # hold references to the parameter arrays they passed in).
            for key, value in best_params.items():
                params[key][...] = value
            if best_optimizer_state is not None:
                self.optimizer.restore(best_optimizer_state)
        return params, history
