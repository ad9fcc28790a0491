"""The declarative experiment specification.

One :class:`ExperimentSpec` fully determines a run: which dataset to load,
how each candidate is trained, which search strategy spends the budget and
with what meta hyper-parameters, whether training hyper-parameters are tuned
first (HPO), where candidate training executes, and whether the best model
is exported as a serving artifact afterwards.  The spec is a plain nested
dict on disk (``spec.json`` inside every run directory) and a tree of small
dataclasses in memory:

========== =====================================================
section     contents
========== =====================================================
dataset     benchmark name *or* TSV directory, scale, seed
training    :class:`~repro.utils.config.TrainingConfig`
search      strategy name + budget + meta hyper-parameters
predictor   :class:`~repro.utils.config.PredictorConfig`
hpo         optional hyper-parameter tuning before the search
backend     execution backend for candidate training
scheduler   optional ASHA fidelity rungs for the search loop
export      serving-artifact export of the best model
obs         observability: metrics registry + trace spans
========== =====================================================

Every section supports ``to_dict``/``from_dict`` with defaulting (a missing
section means "use the defaults") and tolerant loading: unknown keys warn
and are skipped (so an old release can load a forward-versioned spec), while
type and range violations raise a descriptive
:class:`~repro.utils.config.ConfigError` naming the offending field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.datasets import available_benchmarks, load_benchmark, load_tsv_dataset
from repro.datasets.knowledge_graph import KnowledgeGraph
from repro.datasets.pipeline import DEFAULT_SHARD_SIZE
from repro.utils.config import (
    EXECUTION_BACKENDS,
    ConfigError,
    PredictorConfig,
    TrainingConfig,
    config_from_dict,
)
from repro.utils.serialization import from_json_file, to_json_file

PathLike = Union[str, Path]

#: Current spec schema version; bumped on incompatible layout changes.
SPEC_SCHEMA_VERSION = 1

#: HPO methods the runner knows how to execute.
HPO_METHODS = ("random", "tpe")


@dataclass
class StoreSpec:
    """A sharded on-disk triple store as the experiment's dataset source.

    ``path`` names a store directory written by ``repro-autosf ingest`` /
    :meth:`~repro.datasets.knowledge_graph.KnowledgeGraph.to_store`;
    ``mmap`` controls whether shards are memory-mapped while reading and
    ``shard_size`` is the shard granularity used when the spec *writes* a
    store (e.g. materializing a benchmark into one).
    """

    path: str = ""
    shard_size: int = DEFAULT_SHARD_SIZE
    mmap: bool = True

    def __post_init__(self) -> None:
        if not self.path or not isinstance(self.path, str):
            raise ConfigError("StoreSpec.path: must be a non-empty string")
        if self.shard_size <= 0:
            raise ConfigError("StoreSpec.shard_size: must be positive")

    def to_dict(self) -> Dict[str, Any]:
        return {"path": self.path, "shard_size": self.shard_size, "mmap": self.mmap}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StoreSpec":
        return config_from_dict(cls, data)


@dataclass
class DatasetSpec:
    """Which knowledge graph the experiment runs on.

    One of: a built-in miniature ``benchmark`` (scaled by ``scale`` and
    sub-sampled with ``seed``), a ``data`` directory holding
    ``train.txt``/``valid.txt``/``test.txt`` in the standard TSV format, or
    a sharded on-disk ``store`` section (see :class:`StoreSpec`).  When
    ``store`` is given it wins over the other two sources.
    """

    benchmark: str = "wn18rr"
    data: Optional[str] = None
    scale: float = 0.5
    seed: int = 0
    store: Optional[StoreSpec] = None

    def __post_init__(self) -> None:
        if isinstance(self.store, dict):
            self.store = StoreSpec.from_dict(self.store)
        elif self.store is not None and not isinstance(self.store, StoreSpec):
            raise ConfigError(
                f"DatasetSpec.store: expected a mapping or StoreSpec, "
                f"got {type(self.store).__name__} ({self.store!r})"
            )
        if (
            self.store is None
            and self.data is None
            and self.benchmark not in available_benchmarks()
        ):
            raise ConfigError(
                f"DatasetSpec.benchmark: unknown benchmark {self.benchmark!r} "
                f"(available: {', '.join(available_benchmarks())})"
            )
        if not 0 < self.scale <= 1.0:
            raise ConfigError("DatasetSpec.scale: must be in (0, 1]")

    def load(self) -> KnowledgeGraph:
        """Materialize the graph this section describes."""
        if self.store is not None:
            return KnowledgeGraph.from_store(self.store.path, mmap=self.store.mmap)
        if self.data:
            return load_tsv_dataset(self.data, name=str(self.data))
        return load_benchmark(self.benchmark, scale=self.scale, seed=self.seed)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "benchmark": self.benchmark,
            "data": self.data,
            "scale": self.scale,
            "seed": self.seed,
            "store": self.store.to_dict() if self.store is not None else None,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DatasetSpec":
        # __post_init__ coerces a plain-dict store section via
        # StoreSpec.from_dict, so no pre-conversion is needed here.
        return config_from_dict(cls, data)


@dataclass
class SearchSpec:
    """Which strategy spends the evaluation budget, and its hyper-parameters.

    ``strategy`` selects from the registry in
    :mod:`repro.experiments.strategies` (``greedy``, ``random``, ``bayes``,
    or any plug-in registered at runtime).  The meta hyper-parameters cover
    all built-in strategies; each strategy reads the subset it needs:

    * greedy — ``max_blocks``/``candidates_per_step``/``top_parents``/
      ``train_per_step``/``use_filter``/``use_predictor`` (Alg. 2);
    * random — ``num_blocks``/``require_c2``;
    * bayes  — ``num_blocks``/``pool_size``/``exploration_weight``/
      ``prior_precision``/``noise_precision``/``feature_type``.
    """

    strategy: str = "greedy"
    budget: Optional[int] = None
    # Greedy (Alg. 2) meta hyper-parameters.
    max_blocks: int = 6
    candidates_per_step: int = 64
    top_parents: int = 8
    train_per_step: int = 8
    use_filter: bool = True
    use_predictor: bool = True
    # Baseline (random / Bayes) hyper-parameters.
    num_blocks: int = 6
    require_c2: bool = True
    pool_size: int = 64
    exploration_weight: float = 1.0
    prior_precision: float = 1.0
    noise_precision: float = 25.0
    feature_type: str = "srf"

    def __post_init__(self) -> None:
        if not self.strategy or not isinstance(self.strategy, str):
            raise ConfigError("SearchSpec.strategy: must be a non-empty string")
        if self.budget is not None and self.budget <= 0:
            raise ConfigError("SearchSpec.budget: must be positive (or null for unbounded)")
        for name in ("max_blocks", "num_blocks"):
            value = getattr(self, name)
            if value < 4 or value % 2 != 0:
                raise ConfigError(
                    f"SearchSpec.{name}: must be an even number >= 4 (blocks come in pairs)"
                )
        for name in ("candidates_per_step", "top_parents", "train_per_step", "pool_size"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"SearchSpec.{name}: must be positive")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "strategy": self.strategy,
            "budget": self.budget,
            "max_blocks": self.max_blocks,
            "candidates_per_step": self.candidates_per_step,
            "top_parents": self.top_parents,
            "train_per_step": self.train_per_step,
            "use_filter": self.use_filter,
            "use_predictor": self.use_predictor,
            "num_blocks": self.num_blocks,
            "require_c2": self.require_c2,
            "pool_size": self.pool_size,
            "exploration_weight": self.exploration_weight,
            "prior_precision": self.prior_precision,
            "noise_precision": self.noise_precision,
            "feature_type": self.feature_type,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SearchSpec":
        return config_from_dict(cls, data)


@dataclass
class HPOSpec:
    """Optional training-hyper-parameter tuning run before the search.

    Mirrors Sec. V-A2 of the paper: tune learning rate / L2 / decay / batch
    size of a fixed benchmark model, then freeze them for the search.
    ``method`` is ``null`` (disabled, the default), ``"random"`` or
    ``"tpe"``.
    """

    method: Optional[str] = None
    model: str = "simple"
    num_trials: int = 8
    warmup_trials: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.method is not None and self.method not in HPO_METHODS:
            raise ConfigError(
                f"HPOSpec.method: unknown method {self.method!r} "
                f"(available: {', '.join(HPO_METHODS)}, or null to disable)"
            )
        if self.num_trials <= 0:
            raise ConfigError("HPOSpec.num_trials: must be positive")
        if self.warmup_trials < 2:
            raise ConfigError("HPOSpec.warmup_trials: must be at least 2")

    @property
    def enabled(self) -> bool:
        return self.method is not None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "method": self.method,
            "model": self.model,
            "num_trials": self.num_trials,
            "warmup_trials": self.warmup_trials,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "HPOSpec":
        return config_from_dict(cls, data)


@dataclass
class BackendSpec:
    """Where candidate training executes (see :mod:`repro.core.execution`).

    The ``host`` / ``port`` / timeout / retry fields only apply to (and are
    only serialized for) the ``"queue"`` backend — the socket-RPC work
    queue of :mod:`repro.core.distributed`.  For the queue backend,
    ``num_workers`` may be ``0``: rely entirely on external
    ``repro-autosf worker --connect host:port`` processes.
    """

    backend: str = "serial"
    num_workers: int = 1
    host: str = "127.0.0.1"
    port: int = 0
    heartbeat_timeout: float = 15.0
    worker_timeout: float = 60.0
    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.backend not in EXECUTION_BACKENDS:
            raise ConfigError(
                f"BackendSpec.backend: unknown execution backend {self.backend!r} "
                f"(available: {', '.join(EXECUTION_BACKENDS)})"
            )
        if self.backend == "queue":
            if self.num_workers < 0:
                raise ConfigError(
                    "BackendSpec.num_workers: must be >= 0 for the queue "
                    "backend (0 means external workers only)"
                )
            if not 0 <= self.port <= 65535:
                raise ConfigError("BackendSpec.port: must be in [0, 65535]")
            if self.heartbeat_timeout <= 0:
                raise ConfigError("BackendSpec.heartbeat_timeout: must be positive")
            if self.worker_timeout <= 0:
                raise ConfigError("BackendSpec.worker_timeout: must be positive")
            if self.max_retries < 0:
                raise ConfigError("BackendSpec.max_retries: must be >= 0")
        elif self.num_workers <= 0:
            raise ConfigError("BackendSpec.num_workers: must be positive")

    def create(self):
        """Instantiate the configured execution backend."""
        from repro.core.execution import create_backend

        if self.backend == "queue":
            return create_backend(
                "queue",
                self.num_workers,
                host=self.host,
                port=self.port,
                heartbeat_timeout=self.heartbeat_timeout,
                worker_timeout=self.worker_timeout,
                max_retries=self.max_retries,
            )
        return create_backend(self.backend, self.num_workers)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"backend": self.backend, "num_workers": self.num_workers}
        # Queue-only fields are serialized only for the queue backend, so
        # serial/process spec dumps (and their digests) stay byte-identical
        # to pre-queue releases.
        if self.backend == "queue":
            data.update(
                host=self.host,
                port=self.port,
                heartbeat_timeout=self.heartbeat_timeout,
                worker_timeout=self.worker_timeout,
                max_retries=self.max_retries,
            )
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BackendSpec":
        return config_from_dict(cls, data)


@dataclass
class SchedulerSpec:
    """ASHA successive-halving fidelity scheduling for the search loop.

    Disabled by default (every candidate trains at full fidelity).  When
    ``enabled``, the loop runs each proposed candidate front through a
    geometric epoch ladder and trains only promoted survivors at the full
    epoch budget — see :class:`repro.experiments.scheduler.FidelityScheduler`.
    """

    enabled: bool = False
    reduction: int = 3
    min_epochs: int = 1
    max_rungs: Optional[int] = None

    def __post_init__(self) -> None:
        from repro.experiments.scheduler import FidelityScheduler

        try:
            FidelityScheduler(
                reduction=self.reduction,
                min_epochs=self.min_epochs,
                max_rungs=self.max_rungs,
            )
        except ValueError as error:
            raise ConfigError(f"SchedulerSpec: {error}") from error

    def create(self):
        """The :class:`FidelityScheduler` this section describes (or ``None``)."""
        from repro.experiments.scheduler import FidelityScheduler

        if not self.enabled:
            return None
        return FidelityScheduler(
            reduction=self.reduction,
            min_epochs=self.min_epochs,
            max_rungs=self.max_rungs,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "enabled": self.enabled,
            "reduction": self.reduction,
            "min_epochs": self.min_epochs,
            "max_rungs": self.max_rungs,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SchedulerSpec":
        return config_from_dict(cls, data)


@dataclass
class ExportSpec:
    """Whether (and how) the best model is exported as a serving artifact."""

    enabled: bool = False
    with_metrics: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {"enabled": self.enabled, "with_metrics": self.with_metrics}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExportSpec":
        return config_from_dict(cls, data)


@dataclass
class ObsSpec:
    """Observability wiring for the run (see :mod:`repro.obs`).

    When ``enabled``, the runner installs a real metrics registry (dumped
    as ``metrics.json`` at the end of the run when ``metrics`` is true)
    and a trace recorder writing per-process span files under the run
    directory's ``trace/`` (when ``trace`` is true).  Disabled — the
    default — both sinks stay the process-global no-ops, so runs are
    bit-identical to un-instrumented ones.
    """

    enabled: bool = False
    trace: bool = True
    metrics: bool = True

    def to_dict(self) -> Dict[str, Any]:
        return {"enabled": self.enabled, "trace": self.trace, "metrics": self.metrics}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ObsSpec":
        return config_from_dict(cls, data)


@dataclass
class ExperimentSpec:
    """A fully declarative experiment: one spec, one reproducible run."""

    name: str = "experiment"
    seed: int = 0
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    search: SearchSpec = field(default_factory=SearchSpec)
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    hpo: HPOSpec = field(default_factory=HPOSpec)
    backend: BackendSpec = field(default_factory=BackendSpec)
    scheduler: SchedulerSpec = field(default_factory=SchedulerSpec)
    export: ExportSpec = field(default_factory=ExportSpec)
    obs: ObsSpec = field(default_factory=ObsSpec)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigError("ExperimentSpec.name: must be a non-empty string")
        # Coerce plain-dict sections so ExperimentSpec(**json_dict) also works.
        coercers = {
            "dataset": DatasetSpec,
            "training": TrainingConfig,
            "search": SearchSpec,
            "predictor": PredictorConfig,
            "hpo": HPOSpec,
            "backend": BackendSpec,
            "scheduler": SchedulerSpec,
            "export": ExportSpec,
            "obs": ObsSpec,
        }
        for section, cls in coercers.items():
            value = getattr(self, section)
            if isinstance(value, dict):
                setattr(self, section, cls.from_dict(value))
            elif not isinstance(value, cls):
                raise ConfigError(
                    f"ExperimentSpec.{section}: expected a mapping or {cls.__name__}, "
                    f"got {type(value).__name__} ({value!r})"
                )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data = {
            "schema_version": SPEC_SCHEMA_VERSION,
            "name": self.name,
            "seed": self.seed,
            "dataset": self.dataset.to_dict(),
            "training": self.training.to_dict(),
            "search": self.search.to_dict(),
            "predictor": self.predictor.to_dict(),
            "hpo": self.hpo.to_dict(),
            "backend": self.backend.to_dict(),
            "export": self.export.to_dict(),
        }
        # Serialized only when customized: pre-obs/pre-scheduler specs (and
        # their digests, e.g. the golden run's manifest) keep byte-identical
        # spec dumps.
        if self.scheduler != SchedulerSpec():
            data["scheduler"] = self.scheduler.to_dict()
        if self.obs != ObsSpec():
            data["obs"] = self.obs.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentSpec":
        if not isinstance(data, dict):
            raise ConfigError(f"ExperimentSpec: expected a mapping, got {type(data).__name__}")
        data = dict(data)
        data.pop("schema_version", None)  # informational; layout changes bump it
        sections = {
            "dataset": DatasetSpec,
            "training": TrainingConfig,
            "search": SearchSpec,
            "predictor": PredictorConfig,
            "hpo": HPOSpec,
            "backend": BackendSpec,
            "scheduler": SchedulerSpec,
            "export": ExportSpec,
            "obs": ObsSpec,
        }
        for section, section_cls in sections.items():
            value = data.get(section)
            if isinstance(value, dict):
                data[section] = section_cls.from_dict(value)
            elif section in data and not isinstance(value, section_cls):
                raise ConfigError(
                    f"ExperimentSpec.{section}: expected a mapping, "
                    f"got {type(value).__name__} ({value!r})"
                )
        return config_from_dict(cls, data)

    def save(self, path: PathLike) -> Path:
        """Write the spec as JSON and return the resolved path."""
        return to_json_file(self.to_dict(), path)

    @classmethod
    def load(cls, path: PathLike) -> "ExperimentSpec":
        """Load a spec from a JSON file (raising :class:`ConfigError` on junk)."""
        try:
            data = from_json_file(path)
        except OSError as error:
            raise ConfigError(f"cannot read experiment spec {path}: {error}") from error
        except ValueError as error:
            raise ConfigError(f"experiment spec {path} is not valid JSON: {error}") from error
        return cls.from_dict(data)


def load_spec(path: PathLike) -> ExperimentSpec:
    """Module-level alias for :meth:`ExperimentSpec.load`."""
    return ExperimentSpec.load(path)
