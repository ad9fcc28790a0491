"""Unified experiment API: declarative specs, pluggable strategies, run dirs.

This package is the stable seam between "what experiment to run" and "how it
runs":

* :mod:`repro.experiments.spec` — :class:`ExperimentSpec`, a declarative
  JSON-serializable description (dataset, training, search, predictor, HPO,
  backend, export) that fully determines a run;
* :mod:`repro.experiments.strategies` — the :class:`SearchStrategy`
  protocol (``propose`` / ``observe`` / ``finished``), the ported
  ``greedy`` / ``random`` / ``bayes`` policies of the paper's Sec. V
  comparison, and the :func:`register_strategy` plug-in registry;
* :mod:`repro.experiments.loop` — the single :class:`SearchLoop` driver
  owning seeding, the execution backend, the shared evaluation store,
  budgets and resume; :meth:`SearchLoop.from_spec` is how every search
  starts, and :class:`SearchResult` is what it returns;
* :mod:`repro.experiments.runner` — :class:`ExperimentRunner` and the
  versioned run-directory contract (``spec.json`` / ``history.jsonl`` /
  ``report.json`` / ``best/`` / ``manifest.json``) consumed by the CLI's
  ``run`` / ``compare`` / ``export --run`` and the analysis helpers.
"""

from repro.experiments.loop import SearchLoop, SearchRecord, SearchResult
from repro.experiments.scheduler import FidelityScheduler
from repro.experiments.runner import (
    RUN_SCHEMA_VERSION,
    ExperimentRunner,
    RunDirectoryError,
    RunRecord,
    load_run,
    run_experiment,
    spec_digest,
    validate_run_directory,
)
from repro.experiments.spec import (
    SPEC_SCHEMA_VERSION,
    BackendSpec,
    DatasetSpec,
    ExperimentSpec,
    ExportSpec,
    HPOSpec,
    ObsSpec,
    SchedulerSpec,
    SearchSpec,
    StoreSpec,
    load_spec,
)
from repro.experiments.strategies import (
    BayesStrategy,
    GreedyStrategy,
    RandomStrategy,
    SearchState,
    SearchStrategy,
    available_strategies,
    create_strategy,
    register_strategy,
)

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "RUN_SCHEMA_VERSION",
    "BackendSpec",
    "DatasetSpec",
    "ExperimentSpec",
    "ExportSpec",
    "HPOSpec",
    "ObsSpec",
    "SchedulerSpec",
    "SearchSpec",
    "StoreSpec",
    "load_spec",
    "FidelityScheduler",
    "SearchLoop",
    "SearchRecord",
    "SearchResult",
    "SearchState",
    "SearchStrategy",
    "GreedyStrategy",
    "RandomStrategy",
    "BayesStrategy",
    "available_strategies",
    "create_strategy",
    "register_strategy",
    "ExperimentRunner",
    "RunRecord",
    "RunDirectoryError",
    "load_run",
    "run_experiment",
    "spec_digest",
    "validate_run_directory",
]
