"""Execution backends for the candidate-evaluation inner loop.

Evaluating one candidate scoring function (train to convergence, then score
with the filtered protocol) is embarrassingly parallel across candidates:
each lower-level problem of Definition 1 is independent of every other.
This module isolates *where* those evaluations run from *what* they compute:

* :func:`evaluate_candidate` is the single, pure unit of work shared by all
  backends — given an :class:`EvaluationContext` (graph + training config)
  and an :class:`EvaluationTask` (structure + seed) it trains and scores one
  candidate and returns a plain, picklable :class:`EvaluationOutcome`;
* :class:`SerialBackend` runs tasks in-process, one after the other;
* :class:`~repro.core.distributed.QueueBackend` dispatches tasks to worker
  processes over a socket-RPC work queue (see :mod:`repro.core.distributed`).
  The ``"process"`` backend name is this queue with only the local worker
  processes it forks itself, on a private loopback port; the ``"queue"``
  name also lets workers on other hosts connect.

Determinism is preserved across backends by seeding every task *per
candidate* rather than from shared mutable RNG state: the seed is derived
from the search seed and the candidate's canonical key with a stable hash
(:func:`derive_candidate_seed`), so a task trains identically no matter
which backend, worker or batch position executes it.  A parallel search
therefore produces a ``SearchResult`` bitwise-equal to a serial one.

Fault model: the queue backend re-dispatches a task whose worker died and
respawns the worker.  A backend may also return ``None`` in a lost task's
slot; :meth:`CandidateEvaluator.evaluate_many` then re-runs the holes
serially and only raises a descriptive :class:`ExecutionError` naming the
affected candidates when that retry also fails.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence

from repro.datasets.knowledge_graph import KnowledgeGraph
from repro.kge.evaluation import EvaluationResult, evaluate_link_prediction
from repro.kge.scoring.bilinear import BlockScoringFunction
from repro.kge.scoring.blocks import BlockStructure
from repro.kge.trainer import Trainer, TrainingHistory
from repro.obs import trace as obs_trace
from repro.utils.config import EXECUTION_BACKENDS, ConfigError, TrainingConfig

from typing import Protocol, runtime_checkable


class ExecutionError(RuntimeError):
    """A batch of evaluation tasks could not be executed to completion.

    Raised with a message naming the affected candidate(s) when a backend
    permanently loses tasks (dead workers past the retry budget, no workers
    ever connecting, a backend violating the outcome-alignment contract).
    Subclasses :class:`RuntimeError` so pre-existing ``except RuntimeError``
    handlers keep working.
    """


def derive_candidate_seed(base_seed: Optional[int], key: Iterable[int]) -> Optional[int]:
    """Deterministic per-candidate seed from the search seed and canonical key.

    Uses a stable cryptographic hash (not Python's randomized ``hash``) so
    that the same (seed, candidate) pair maps to the same training seed in
    every process, interpreter and run.  Returns ``None`` when ``base_seed``
    is ``None`` so unseeded runs stay unseeded.
    """
    if base_seed is None:
        return None
    payload = repr((int(base_seed), tuple(int(value) for value in key)))
    digest = hashlib.blake2b(payload.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % (2**31 - 1)


@dataclass(frozen=True)
class EvaluationContext:
    """Everything a worker needs besides the task itself."""

    graph: KnowledgeGraph
    config: TrainingConfig
    validation_split: str = "valid"


@dataclass(frozen=True)
class EvaluationTask:
    """One candidate to train, with an optional per-candidate seed override."""

    structure: BlockStructure
    seed: Optional[int] = None


@dataclass
class EvaluationOutcome:
    """Picklable result of one :func:`evaluate_candidate` call."""

    structure: BlockStructure
    seed: Optional[int]
    validation_mrr: float
    validation_result: EvaluationResult
    training_history: TrainingHistory
    train_seconds: float
    evaluate_seconds: float


def evaluate_candidate(context: EvaluationContext, task: EvaluationTask) -> EvaluationOutcome:
    """Train one candidate and score it on the validation split.

    This is the unit of work every backend executes; it must stay free of
    shared mutable state so that serial and parallel execution are
    interchangeable.  The loss and ``config.score_chunk_size`` travel
    inside the config, so worker processes build the same training engine
    as in-process execution.  When
    ``config.eval_every > 0`` training tracks filtered validation MRR,
    enabling early stopping and the trainer's best-checkpoint restore — the
    reported ``validation_mrr`` is then measured on the best checkpoint, not
    on whatever the last epoch produced.
    """
    config = context.config if task.seed is None else context.config.replace(seed=task.seed)
    scoring_function = BlockScoringFunction(task.structure)
    trainer = Trainer(scoring_function, config)

    validation_callback = None
    if config.eval_every > 0:

        def validation_callback(params):
            return evaluate_link_prediction(
                scoring_function, params, context.graph, split=context.validation_split
            ).mrr

    # The span lands in the executing process's own trace file: a forked
    # worker inherits the parent's TraceRecorder, which re-opens per pid, so
    # the merged timeline shows candidates interleaving across workers.
    with obs_trace.span(
        "search.candidate",
        attrs={"blocks": [[int(v) for v in block] for block in task.structure.blocks]},
    ) as candidate_span:
        with obs_trace.span("candidate.train"):
            start = time.perf_counter()
            params, history = trainer.fit(
                context.graph, validation_callback=validation_callback
            )
            train_seconds = time.perf_counter() - start

        with obs_trace.span("candidate.evaluate"):
            start = time.perf_counter()
            result = evaluate_link_prediction(
                scoring_function, params, context.graph, split=context.validation_split
            )
            evaluate_seconds = time.perf_counter() - start
        candidate_span.attrs["validation_mrr"] = float(result.mrr)

    return EvaluationOutcome(
        structure=task.structure,
        seed=task.seed,
        validation_mrr=result.mrr,
        validation_result=result,
        training_history=history,
        train_seconds=train_seconds,
        evaluate_seconds=evaluate_seconds,
    )


#: Per-outcome callback: ``(task_index, outcome)``, invoked as soon as each
#: result is available — in task order for the serial backend, in completion
#: order for the queue backend.  The evaluator uses it to checkpoint finished
#: candidates even when another task in the batch is interrupted.
ResultCallback = Callable[[int, EvaluationOutcome], None]


@runtime_checkable
class ExecutionBackend(Protocol):
    """Strategy interface: run a batch of evaluation tasks."""

    name: str
    num_workers: int

    def run(
        self,
        context: EvaluationContext,
        tasks: Sequence[EvaluationTask],
        on_result: Optional[ResultCallback] = None,
    ) -> List[EvaluationOutcome]:
        """Execute every task and return outcomes in task order."""
        ...  # pragma: no cover - protocol body


class SerialBackend:
    """Run every task in the calling process, in order."""

    name = "serial"
    num_workers = 1

    def run(
        self,
        context: EvaluationContext,
        tasks: Sequence[EvaluationTask],
        on_result: Optional[ResultCallback] = None,
    ) -> List[EvaluationOutcome]:
        outcomes: List[EvaluationOutcome] = []
        for index, task in enumerate(tasks):
            outcome = evaluate_candidate(context, task)
            if on_result is not None:
                on_result(index, outcome)
            outcomes.append(outcome)
        return outcomes

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return "SerialBackend()"


#: Backend names accepted by configuration and the CLI.
BACKEND_NAMES = EXECUTION_BACKENDS


def create_backend(name: str, num_workers: int = 1, **options) -> ExecutionBackend:
    """Instantiate a backend from its configuration name.

    ``num_workers`` is validated here — at the configuration seam — so a bad
    value fails with a :class:`~repro.utils.config.ConfigError` naming the
    field instead of surfacing (or being silently clamped away) deep inside
    a backend constructor.  ``options`` are passed through to the queue
    backend (``host`` / ``port`` / ``heartbeat_timeout`` / ``worker_timeout``
    / ``max_retries``).  ``"process"`` is the queue backend with its
    defaults: local workers on an ephemeral loopback port, which only the
    workers holding the batch secret may join.
    """
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown execution backend {name!r}; available: {', '.join(BACKEND_NAMES)}"
        )
    if name == "queue":
        # The queue backend accepts num_workers == 0: rely entirely on
        # externally started ``repro-autosf worker --connect`` processes.
        if num_workers < 0:
            raise ConfigError(
                f"backend.num_workers: must be >= 0 for the queue backend "
                f"(0 means external workers only), got {num_workers}"
            )
    elif options:
        raise ConfigError(
            f"backend: options {sorted(options)} are only valid for the "
            f"'queue' backend, not {name!r}"
        )
    elif num_workers < 1:
        raise ConfigError(
            f"backend.num_workers: must be a positive integer, got {num_workers}"
        )
    if name == "serial":
        return SerialBackend()
    from repro.core.distributed import QueueBackend

    return QueueBackend(num_workers=num_workers, **options)
