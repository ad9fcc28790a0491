"""Experiment runner and the versioned run-directory contract.

Running a spec produces one self-describing directory that every downstream
consumer (``repro-autosf compare``, ``repro-autosf export --run``, the
analysis helpers, a future dashboard) can rely on:

.. code-block:: text

    run-dir/
      spec.json        # the exact ExperimentSpec that produced the run
      manifest.json    # run schema version, status, spec digest, file list
      history.jsonl    # one JSON line per recorded evaluation, in order
      report.json      # best structure/MRR, anytime curve, timing, stats
      evaluations/     # persistent evaluation store (resume + cross-run cache)
      best/            # the best model, retrained & saved (KGEModel.save)
      artifact/        # optional serving artifact (spec.export.enabled)
      trace/           # optional per-process span files (spec.obs.enabled)
      metrics.json     # optional metrics-registry snapshot (spec.obs.enabled)

``history.jsonl`` is append-friendly and line-oriented so a monitoring tail
can follow a run in flight; everything else is plain JSON.  The manifest is
written twice — once with status ``running`` before the search starts and
once with ``completed`` at the end — so a crashed run is distinguishable
from a finished one.  :func:`validate_run_directory` checks the pieces and
raises :class:`RunDirectoryError` naming whatever is missing or corrupt.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.core.execution import derive_candidate_seed as _derive_seed
from repro.core.hpo import random_search_hpo, tpe_search_hpo
from repro.core.invariance import canonical_key
from repro.core.store import EvaluationStore
from repro.experiments.loop import SearchLoop, SearchResult
from repro.experiments.spec import SPEC_SCHEMA_VERSION, ExperimentSpec
from repro.kge.model import KGEModel, train_model
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.utils.config import ConfigError
from repro.utils.serialization import from_json_file, to_json_file, to_json_string

PathLike = Union[str, Path]

#: Current run-directory schema version; bumped on incompatible changes.
RUN_SCHEMA_VERSION = 1

SPEC_FILENAME = "spec.json"
MANIFEST_FILENAME = "manifest.json"
HISTORY_FILENAME = "history.jsonl"
REPORT_FILENAME = "report.json"
BEST_DIRNAME = "best"
ARTIFACT_DIRNAME = "artifact"
TRACE_DIRNAME = "trace"
METRICS_FILENAME = "metrics.json"

#: Files every completed run directory must carry.
_REQUIRED_FILES = (SPEC_FILENAME, MANIFEST_FILENAME, HISTORY_FILENAME, REPORT_FILENAME)


class RunDirectoryError(RuntimeError):
    """A run directory is missing pieces, corrupt, or inconsistent."""


def spec_digest(spec: ExperimentSpec) -> str:
    """Stable digest of a spec (recorded in the manifest for tamper checks)."""
    return hashlib.blake2b(
        to_json_string(spec.to_dict()).encode("utf-8"), digest_size=16
    ).hexdigest()


@dataclass
class RunRecord:
    """A loaded run directory: spec, manifest, report and history."""

    path: Path
    spec: ExperimentSpec
    manifest: Dict[str, Any]
    report: Dict[str, Any]
    history: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def name(self) -> str:
        return str(self.report.get("name", self.spec.name))

    @property
    def strategy(self) -> str:
        return str(self.report.get("strategy", self.spec.search.strategy))

    @property
    def best_mrr(self) -> float:
        return float(self.report["best_mrr"])

    def anytime_curve(self) -> List[float]:
        return [float(value) for value in self.report.get("anytime_curve", [])]

    def best_model_dir(self) -> Path:
        return self.path / BEST_DIRNAME

    def load_best_model(self) -> KGEModel:
        """The retrained best model saved under ``best/``."""
        return KGEModel.load(self.best_model_dir())


class ExperimentRunner:
    """Execute one :class:`ExperimentSpec` into a run directory."""

    def __init__(self, spec: ExperimentSpec, run_dir: PathLike) -> None:
        self.spec = spec
        self.run_dir = Path(run_dir)

    # ------------------------------------------------------------------
    # Pieces
    # ------------------------------------------------------------------
    def _write_manifest(self, status: str, extra: Optional[Dict[str, Any]] = None) -> None:
        manifest: Dict[str, Any] = {
            "run_schema_version": RUN_SCHEMA_VERSION,
            "spec_schema_version": SPEC_SCHEMA_VERSION,
            "name": self.spec.name,
            "strategy": self.spec.search.strategy,
            "status": status,
            "spec_digest": spec_digest(self.spec),
            "files": list(_REQUIRED_FILES),
        }
        if extra:
            manifest.update(extra)
        to_json_file(manifest, self.run_dir / MANIFEST_FILENAME)

    def _tune_training_config(self, graph):
        """Run the optional HPO section; return the (possibly tuned) config."""
        hpo = self.spec.hpo
        if not hpo.enabled:
            return self.spec.training, None
        tuner = random_search_hpo if hpo.method == "random" else tpe_search_hpo
        kwargs = {} if hpo.method == "random" else {"warmup_trials": hpo.warmup_trials}
        result = tuner(
            graph,
            base_config=self.spec.training,
            model_name=hpo.model,
            num_trials=hpo.num_trials,
            seed=hpo.seed,
            **kwargs,
        )
        summary = {
            "method": hpo.method,
            "model": hpo.model,
            "num_trials": len(result.trials),
            "best_mrr": result.best_mrr,
            "best_settings": {
                key: value
                for key, value in result.best_config.to_dict().items()
                if key in ("learning_rate", "l2_penalty", "decay_rate", "batch_size")
            },
            "trials": [
                {"settings": trial.settings, "validation_mrr": trial.validation_mrr}
                for trial in result.trials
            ],
        }
        return result.best_config, summary

    def _write_history(self, result: SearchResult) -> None:
        lines = []
        for record in sorted(result.records, key=lambda item: item.order):
            payload: Dict[str, Any] = {
                "order": record.order,
                "stage": record.stage,
                "num_blocks": record.num_blocks,
                "validation_mrr": record.validation_mrr,
                "elapsed_seconds": record.elapsed_seconds,
                "structure": {
                    "blocks": [list(block) for block in record.structure.blocks],
                    "name": record.structure.name,
                },
            }
            # Rung metadata only for scheduler-driven records: full-fidelity
            # histories stay byte-identical to pre-scheduler releases (the
            # golden run asserts this digest every tier-1 pass).
            if record.rung is not None:
                payload["rung"] = record.rung
                payload["rung_epochs"] = record.rung_epochs
                payload["full_fidelity"] = record.full_fidelity
            lines.append(to_json_string(payload, indent=None))
        (self.run_dir / HISTORY_FILENAME).write_text(
            "\n".join(lines) + ("\n" if lines else ""), encoding="utf-8"
        )

    def _train_best(self, graph, training_config, result: SearchResult) -> KGEModel:
        """Retrain the winning structure exactly as the search trained it.

        The per-candidate seed derivation matches the loop's, so the saved
        model is the very model whose validation MRR the report cites.  On
        resume, a ``best/`` checkpoint that already holds this structure
        under this configuration is reused instead of retrained — training
        is deterministic given the config's seed, so the checkpoint is the
        same model.
        """
        config = training_config
        if isinstance(self.spec.seed, int):
            config = config.replace(
                seed=_derive_seed(self.spec.seed, canonical_key(result.best_structure))
            )
        best_dir = self.run_dir / BEST_DIRNAME
        cached = self._load_matching_best(best_dir, config, result)
        if cached is not None:
            return cached
        model = train_model(graph, result.best_structure, config)
        model.save(best_dir, graph=graph)
        return model

    @staticmethod
    def _load_matching_best(best_dir, config, result: SearchResult) -> Optional[KGEModel]:
        if not best_dir.exists():
            return None
        try:
            model = KGEModel.load(best_dir)
        except Exception:  # half-written checkpoint: retrain and overwrite
            return None
        structure = getattr(model.scoring_function, "structure", None)
        if structure is None or structure.key() != result.best_structure.key():
            return None
        if model.config != config:
            return None
        return model

    def _export_artifact(self, model: KGEModel, graph) -> Optional[Path]:
        if not self.spec.export.enabled:
            return None
        # Imported here so the experiments layer has no hard dependency on
        # serving unless export is requested.
        from repro.serving import export_artifact

        metrics = None
        if self.spec.export.with_metrics:
            metrics = {}
            for split in ("valid", "test"):
                evaluation = model.evaluate(graph, split=split)
                for key, value in evaluation.as_dict().items():
                    metrics[f"{split}_{key}"] = value
        return export_artifact(
            model, self.run_dir / ARTIFACT_DIRNAME, graph=graph, metrics=metrics
        )

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self, max_evaluations: Optional[int] = None) -> RunRecord:
        """Execute the spec and return the loaded run record.

        Re-running against an existing run directory resumes: the evaluation
        store under ``evaluations/`` replays every completed candidate, so
        only unfinished work trains.  ``max_evaluations`` overrides the
        spec's ``search.budget`` when given.

        With ``spec.obs.enabled`` the run also produces telemetry inside
        the run directory: ``trace/`` with per-process span files (merge
        and read them with ``repro-autosf trace summarize <run-dir>``) and
        a ``metrics.json`` snapshot of the run's metrics registry.  Both
        sinks are installed process-globally for the duration of the run
        and restored afterwards.
        """
        started = time.time()
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.spec.save(self.run_dir / SPEC_FILENAME)
        self._write_manifest("running")

        obs = self.spec.obs
        registry: Optional[obs_metrics.MetricsRegistry] = None
        tracer: Optional[obs_trace.TraceRecorder] = None
        previous_registry = previous_tracer = None
        if obs.enabled and obs.metrics:
            registry = obs_metrics.MetricsRegistry()
            previous_registry = obs_metrics.set_registry(registry)
        if obs.enabled and obs.trace:
            tracer = obs_trace.TraceRecorder(self.run_dir / TRACE_DIRNAME)
            previous_tracer = obs_trace.set_tracer(tracer)
        try:
            graph = self.spec.dataset.load()
            with obs_trace.span("run.hpo"):
                training_config, hpo_summary = self._tune_training_config(graph)

            loop = SearchLoop.from_spec(
                self.spec,
                graph,
                training_config=training_config,
                store=EvaluationStore(self.run_dir),
            )
            budget = (
                max_evaluations if max_evaluations is not None else self.spec.search.budget
            )
            with obs_trace.span("run.search"):
                result = loop.run(max_evaluations=budget)

            self._write_history(result)
            with obs_trace.span("run.train_best"):
                model = self._train_best(graph, training_config, result)
            with obs_trace.span("run.export"):
                artifact_path = self._export_artifact(model, graph)
        finally:
            if registry is not None:
                obs_metrics.set_registry(previous_registry)
                to_json_file(registry.as_dict(), self.run_dir / METRICS_FILENAME)
            if tracer is not None:
                obs_trace.set_tracer(previous_tracer)
                tracer.close()

        report: Dict[str, Any] = {
            "name": self.spec.name,
            "strategy": loop.strategy.name,
            "dataset": graph.name,
            "best_mrr": result.best_mrr,
            "best_structure": {
                "blocks": [list(block) for block in result.best_structure.blocks],
                "name": result.best_structure.name,
                "num_blocks": result.best_structure.num_blocks,
            },
            "num_evaluations": result.num_evaluations,
            "num_trained": loop.evaluator.num_trained,
            "anytime_curve": result.anytime_curve(),
            "filter_statistics": result.filter_statistics,
            "timing": result.timing.summary() if result.timing is not None else {},
            "training_config": training_config.to_dict(),
            "wall_seconds": time.time() - started,
        }
        if self.spec.scheduler.enabled:
            report["scheduler"] = {
                "total_training_epochs": loop.total_training_epochs,
                "rungs": [loop.rung_stats[epochs] for epochs in sorted(loop.rung_stats)],
            }
        if hpo_summary is not None:
            report["hpo"] = hpo_summary
        if artifact_path is not None:
            report["artifact"] = ARTIFACT_DIRNAME
        to_json_file(report, self.run_dir / REPORT_FILENAME)
        self._write_manifest("completed", extra={"wall_seconds": report["wall_seconds"]})
        return load_run(self.run_dir)


def run_experiment(spec: ExperimentSpec, run_dir: PathLike,
                   max_evaluations: Optional[int] = None) -> RunRecord:
    """Convenience wrapper: run ``spec`` into ``run_dir``."""
    return ExperimentRunner(spec, run_dir).run(max_evaluations=max_evaluations)


# ----------------------------------------------------------------------
# Loading / validation
# ----------------------------------------------------------------------
def _read_manifest(run_dir: Path) -> Dict[str, Any]:
    path = run_dir / MANIFEST_FILENAME
    if not path.exists():
        raise RunDirectoryError(f"{run_dir} is not a run directory: missing {MANIFEST_FILENAME}")
    try:
        manifest = from_json_file(path)
    except ValueError as error:
        raise RunDirectoryError(f"{run_dir}: corrupt {MANIFEST_FILENAME}: {error}") from error
    if not isinstance(manifest, dict):
        raise RunDirectoryError(f"{run_dir}: corrupt {MANIFEST_FILENAME}: not a JSON object")
    version = manifest.get("run_schema_version")
    if not isinstance(version, int):
        raise RunDirectoryError(
            f"{run_dir}: corrupt {MANIFEST_FILENAME}: missing run_schema_version"
        )
    if version > RUN_SCHEMA_VERSION:
        raise RunDirectoryError(
            f"{run_dir}: run_schema_version {version} is newer than this release "
            f"supports ({RUN_SCHEMA_VERSION}); upgrade to load it"
        )
    return manifest


def validate_run_directory(run_dir: PathLike) -> Dict[str, Any]:
    """Check a run directory's contract; return its manifest when sound.

    Raises :class:`RunDirectoryError` naming everything missing or corrupt.
    """
    base = Path(run_dir)
    if not base.is_dir():
        raise RunDirectoryError(f"run directory {base} does not exist")
    manifest = _read_manifest(base)
    missing = [name for name in manifest.get("files", _REQUIRED_FILES) if not (base / name).exists()]
    if missing:
        raise RunDirectoryError(
            f"{base}: incomplete run directory, missing {', '.join(sorted(missing))} "
            f"(status: {manifest.get('status', 'unknown')!r})"
        )
    return manifest


def load_run(run_dir: PathLike) -> RunRecord:
    """Load and validate a run directory written by :class:`ExperimentRunner`."""
    base = Path(run_dir)
    manifest = validate_run_directory(base)
    try:
        spec = ExperimentSpec.load(base / SPEC_FILENAME)
    except ConfigError as error:
        raise RunDirectoryError(f"{base}: invalid {SPEC_FILENAME}: {error}") from error
    try:
        report = from_json_file(base / REPORT_FILENAME)
    except ValueError as error:
        raise RunDirectoryError(f"{base}: corrupt {REPORT_FILENAME}: {error}") from error
    history: List[Dict[str, Any]] = []
    line_number = 0
    try:
        for line_number, line in enumerate(
            (base / HISTORY_FILENAME).read_text(encoding="utf-8").splitlines(), start=1
        ):
            if line.strip():
                history.append(json.loads(line))
    except ValueError as error:
        raise RunDirectoryError(
            f"{base}: corrupt {HISTORY_FILENAME} at line {line_number}: {error}"
        ) from error
    return RunRecord(path=base, spec=spec, manifest=manifest, report=report, history=history)
