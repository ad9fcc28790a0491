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
* :class:`ProcessPoolBackend` fans tasks out over a local worker-process
  pool;
* :class:`~repro.core.distributed.QueueBackend` dispatches tasks to worker
  processes over a socket-RPC work queue, so workers may live on other
  hosts (see :mod:`repro.core.distributed`).

Determinism is preserved across backends by seeding every task *per
candidate* rather than from shared mutable RNG state: the seed is derived
from the search seed and the candidate's canonical key with a stable hash
(:func:`derive_candidate_seed`), so a task trains identically no matter
which backend, worker or batch position executes it.  A parallel search
therefore produces a ``SearchResult`` bitwise-equal to a serial one.

Fault model: a backend that loses a task (killed worker, dropped
connection) returns ``None`` in that task's slot instead of hanging or
raising a bare pool error; :meth:`CandidateEvaluator.evaluate_many` then
re-dispatches the holes serially and only raises a descriptive
:class:`ExecutionError` naming the affected candidates when the retry also
fails.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

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

    # The span lands in the executing process's own trace file: a fork-pool
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
#: order for the process pool.  The evaluator uses it to checkpoint finished
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


# Worker-process global, installed once per worker by the pool initializer so
# the (potentially large) graph is shipped once instead of once per task.
_WORKER_CONTEXT: Optional[EvaluationContext] = None


def _initialize_worker(context: EvaluationContext) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context


def _run_worker_task(item: "Tuple[int, EvaluationTask]") -> "Tuple[int, EvaluationOutcome]":
    if _WORKER_CONTEXT is None:  # pragma: no cover - defensive
        raise RuntimeError("worker used before initialization")
    index, task = item
    return index, evaluate_candidate(_WORKER_CONTEXT, task)


class ProcessPoolBackend:
    """Fan tasks out over a local worker-process pool.

    Results come back in task order, and every task carries its own seed, so
    the outcome is identical to :class:`SerialBackend` regardless of worker
    scheduling.  Single-task batches (and ``num_workers=1``) short-circuit to
    in-process execution to avoid pointless pool start-up.

    A worker that dies mid-batch (segfault, OOM kill, ``os._exit``) breaks
    the whole pool: the executor raises :class:`BrokenProcessPool` for every
    task that has not finished.  :meth:`run` absorbs that — outcomes already
    completed are kept, every lost task's slot stays ``None`` — so the
    caller's serial-retry path (:meth:`CandidateEvaluator.evaluate_many`)
    can re-dispatch exactly the lost candidates instead of the batch
    hanging forever or dying with a context-free pool error.
    """

    name = "process"

    def __init__(self, num_workers: int = 2, start_method: Optional[str] = None) -> None:
        if num_workers < 1:
            raise ValueError(
                f"ProcessPoolBackend: num_workers must be >= 1, got {num_workers}"
            )
        if start_method is not None and start_method not in multiprocessing.get_all_start_methods():
            raise ValueError(f"unsupported start method: {start_method!r}")
        self.num_workers = num_workers
        self._start_method = start_method

    def _context(self):
        if self._start_method is not None:
            return multiprocessing.get_context(self._start_method)
        # Prefer fork where available: it shares the parent's memory pages
        # (the graph arrives for free) and starts in milliseconds.
        if "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()

    def run(
        self,
        context: EvaluationContext,
        tasks: Sequence[EvaluationTask],
        on_result: Optional[ResultCallback] = None,
    ) -> List[EvaluationOutcome]:
        tasks = list(tasks)
        if not tasks:
            return []
        if self.num_workers == 1 or len(tasks) == 1:
            return SerialBackend().run(context, tasks, on_result=on_result)
        workers = min(self.num_workers, len(tasks))
        outcomes: List[Optional[EvaluationOutcome]] = [None] * len(tasks)
        executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=self._context(),
            initializer=_initialize_worker,
            initargs=(context,),
        )
        try:
            futures = {
                executor.submit(_run_worker_task, (index, task)): index
                for index, task in enumerate(tasks)
            }
            # as_completed so every finished candidate streams back (and can
            # be checkpointed via on_result) the moment it completes, even
            # while an earlier, slower task is still running; results are
            # slotted back into task order via the returned index.
            for future in as_completed(futures):
                try:
                    index, outcome = future.result()
                except BrokenProcessPool:
                    # A worker died mid-batch.  Its own task — and any task
                    # still queued behind it — is lost; results that already
                    # arrived are kept.  The ``None`` holes tell the caller
                    # exactly which candidates to re-dispatch serially.
                    continue
                outcomes[index] = outcome
                if on_result is not None:
                    on_result(index, outcome)
        finally:
            executor.shutdown(wait=True, cancel_futures=True)
        return outcomes  # type: ignore[return-value]

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return f"ProcessPoolBackend(num_workers={self.num_workers})"


#: Backend names accepted by configuration and the CLI.
BACKEND_NAMES = EXECUTION_BACKENDS


def create_backend(name: str, num_workers: int = 1, **options) -> ExecutionBackend:
    """Instantiate a backend from its configuration name.

    ``num_workers`` is validated here — at the configuration seam — so a bad
    value fails with a :class:`~repro.utils.config.ConfigError` naming the
    field instead of surfacing (or being silently clamped away) deep inside
    a backend constructor.  ``options`` are passed through to the backend
    (the queue backend accepts ``host`` / ``port`` / ``heartbeat_timeout`` /
    ``worker_timeout`` / ``max_retries``).
    """
    if name == "queue":
        # The queue backend accepts num_workers == 0: rely entirely on
        # externally started ``repro-autosf worker --connect`` processes.
        if num_workers < 0:
            raise ConfigError(
                f"backend.num_workers: must be >= 0 for the queue backend "
                f"(0 means external workers only), got {num_workers}"
            )
        from repro.core.distributed import QueueBackend

        return QueueBackend(num_workers=num_workers, **options)
    if options:
        raise ConfigError(
            f"backend: options {sorted(options)} are only valid for the "
            f"'queue' backend, not {name!r}"
        )
    if num_workers < 1:
        raise ConfigError(
            f"backend.num_workers: must be a positive integer, got {num_workers}"
        )
    if name == "serial":
        return SerialBackend()
    if name == "process":
        return ProcessPoolBackend(num_workers=num_workers)
    raise ValueError(f"unknown execution backend {name!r}; available: {', '.join(BACKEND_NAMES)}")
