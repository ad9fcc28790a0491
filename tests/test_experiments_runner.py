"""Tests for the ExperimentRunner and the run-directory contract."""

import json

import pytest

from repro.experiments import (
    DatasetSpec,
    ExperimentRunner,
    ExperimentSpec,
    ExportSpec,
    HPOSpec,
    ObsSpec,
    RunDirectoryError,
    SearchSpec,
    load_run,
    run_experiment,
    spec_digest,
    validate_run_directory,
)
from repro.experiments.runner import (
    HISTORY_FILENAME,
    MANIFEST_FILENAME,
    METRICS_FILENAME,
    REPORT_FILENAME,
    RUN_SCHEMA_VERSION,
    SPEC_FILENAME,
    TRACE_DIRNAME,
)
from repro.obs.metrics import NULL_REGISTRY, get_registry
from repro.obs.trace import NULL_TRACER, get_tracer, merge_trace_dir, summarize_spans
from repro.serving import load_artifact
from repro.utils.config import PredictorConfig, TrainingConfig


def _quick_spec(**overrides):
    settings = dict(
        name="quick",
        seed=0,
        dataset=DatasetSpec(benchmark="wn18rr", scale=0.2, seed=0),
        training=TrainingConfig(dimension=8, epochs=3, batch_size=128, learning_rate=0.5),
        search=SearchSpec(
            strategy="greedy", budget=4, candidates_per_step=6, top_parents=3, train_per_step=2
        ),
        predictor=PredictorConfig(epochs=50),
    )
    settings.update(overrides)
    return ExperimentSpec(**settings)


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("runs") / "quick"
    record = run_experiment(_quick_spec(), run_dir)
    return record


class TestRunDirectoryContract:
    def test_required_files_written(self, completed_run):
        for name in (SPEC_FILENAME, MANIFEST_FILENAME, HISTORY_FILENAME, REPORT_FILENAME):
            assert (completed_run.path / name).exists(), name
        assert (completed_run.path / "best" / "manifest.json").exists()
        assert list((completed_run.path / "evaluations").glob("*.json"))

    def test_manifest_contents(self, completed_run):
        manifest = validate_run_directory(completed_run.path)
        assert manifest["run_schema_version"] == RUN_SCHEMA_VERSION
        assert manifest["status"] == "completed"
        assert manifest["strategy"] == "greedy"
        assert manifest["spec_digest"] == spec_digest(completed_run.spec)

    def test_report_contents(self, completed_run):
        report = completed_run.report
        assert report["num_evaluations"] == 4
        assert len(report["anytime_curve"]) == 4
        assert 0.0 <= completed_run.best_mrr <= 1.0
        assert report["best_structure"]["blocks"]
        assert "train" in report["timing"]

    def test_history_lines_match_evaluations(self, completed_run):
        assert len(completed_run.history) == completed_run.report["num_evaluations"]
        orders = [line["order"] for line in completed_run.history]
        assert orders == sorted(orders)
        for line in completed_run.history:
            assert 0.0 <= line["validation_mrr"] <= 1.0
            assert line["structure"]["blocks"]

    def test_loaded_spec_round_trips(self, completed_run):
        assert completed_run.spec == _quick_spec()

    def test_best_model_loads_and_queries(self, completed_run):
        model = completed_run.load_best_model()
        answers = model.predict_tails(0, 0, top_k=3)
        assert len(answers) == 3
        # best/ is a serving artifact as written: servable and mmap-loadable.
        assert load_artifact(completed_run.best_model_dir(), mmap=True).params_memmap

    def test_resume_retrains_nothing(self, completed_run):
        best_params = completed_run.path / "best" / "params" / "entities.npy"
        before = best_params.stat().st_mtime_ns
        record = ExperimentRunner(_quick_spec(), completed_run.path).run()
        assert record.report["num_trained"] == 0
        assert record.report["anytime_curve"] == completed_run.report["anytime_curve"]
        # The best/ checkpoint is reused, not retrained and rewritten.
        assert best_params.stat().st_mtime_ns == before


class TestValidation:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(RunDirectoryError, match="does not exist"):
            validate_run_directory(tmp_path / "nowhere")

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(RunDirectoryError, match="missing manifest.json"):
            validate_run_directory(tmp_path / "empty")

    def test_corrupted_manifest(self, completed_run, tmp_path):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(completed_run.path, broken)
        (broken / MANIFEST_FILENAME).write_text("{not json", encoding="utf-8")
        with pytest.raises(RunDirectoryError, match="corrupt manifest.json"):
            load_run(broken)

    def test_manifest_missing_version(self, completed_run, tmp_path):
        import shutil

        broken = tmp_path / "versionless"
        shutil.copytree(completed_run.path, broken)
        (broken / MANIFEST_FILENAME).write_text(json.dumps({"status": "completed"}))
        with pytest.raises(RunDirectoryError, match="run_schema_version"):
            validate_run_directory(broken)

    def test_manifest_from_the_future(self, completed_run, tmp_path):
        import shutil

        future = tmp_path / "future"
        shutil.copytree(completed_run.path, future)
        manifest = json.loads((future / MANIFEST_FILENAME).read_text())
        manifest["run_schema_version"] = RUN_SCHEMA_VERSION + 1
        (future / MANIFEST_FILENAME).write_text(json.dumps(manifest))
        with pytest.raises(RunDirectoryError, match="newer than this release"):
            validate_run_directory(future)

    def test_missing_report_named(self, completed_run, tmp_path):
        import shutil

        partial = tmp_path / "partial"
        shutil.copytree(completed_run.path, partial)
        (partial / REPORT_FILENAME).unlink()
        with pytest.raises(RunDirectoryError, match="report.json"):
            validate_run_directory(partial)

    def test_corrupt_history_line_number(self, completed_run, tmp_path):
        import shutil

        broken = tmp_path / "history"
        shutil.copytree(completed_run.path, broken)
        with open(broken / HISTORY_FILENAME, "a", encoding="utf-8") as handle:
            handle.write("{truncated\n")
        with pytest.raises(RunDirectoryError, match="history.jsonl at line"):
            load_run(broken)


class TestRunnerFeatures:
    def test_random_strategy_with_export(self, tmp_path):
        spec = _quick_spec(
            name="random-export",
            search=SearchSpec(strategy="random", budget=3, num_blocks=6),
            export=ExportSpec(enabled=True),
        )
        record = run_experiment(spec, tmp_path / "run")
        assert record.strategy == "random"
        assert record.report["artifact"] == "artifact"
        artifact = load_artifact(record.path / "artifact")
        assert artifact.num_entities == record.load_best_model().params["entities"].shape[0]

    def test_hpo_section_tunes_training(self, tmp_path):
        spec = _quick_spec(
            name="hpo",
            search=SearchSpec(strategy="random", budget=2, num_blocks=6),
            hpo=HPOSpec(method="random", num_trials=2, model="distmult"),
        )
        record = run_experiment(spec, tmp_path / "run")
        hpo = record.report["hpo"]
        assert hpo["method"] == "random"
        assert hpo["num_trials"] == 2
        assert record.report["training_config"]["learning_rate"] == pytest.approx(
            hpo["best_settings"]["learning_rate"]
        )

    def test_budget_override(self, tmp_path):
        record = ExperimentRunner(_quick_spec(name="override"), tmp_path / "run").run(
            max_evaluations=2
        )
        assert record.report["num_evaluations"] == 2


class TestObservability:
    def test_obs_run_writes_trace_and_metrics(self, tmp_path):
        spec = _quick_spec(name="obs-on", obs=ObsSpec(enabled=True))
        record = run_experiment(spec, tmp_path / "run")
        metrics_path = record.path / METRICS_FILENAME
        assert metrics_path.exists()
        families = {
            entry["name"]
            for entry in json.loads(metrics_path.read_text(encoding="utf-8"))["metrics"]
        }
        assert "repro_search_rounds_total" in families
        assert "repro_train_epochs_total" in families
        assert "repro_phase_seconds" in families
        trace_dir = record.path / TRACE_DIRNAME
        events = merge_trace_dir(trace_dir)
        names = {event["name"] for event in events}
        assert {"run.search", "search.round", "search.candidate", "train.epoch"} <= names
        # The runner restores the process-global sinks on the way out.
        assert get_registry() is NULL_REGISTRY
        assert get_tracer() is NULL_TRACER

    def test_trace_summary_agrees_with_timing_recorder(self, tmp_path):
        """The per-phase trace breakdown matches the report's Table VII timing.

        ``candidate.train`` / ``candidate.evaluate`` spans wrap exactly the
        work the evaluator attributes to the ``train`` / ``evaluate`` phases
        (one span per freshly trained candidate; cache replays add neither a
        span nor seconds), so counts match exactly and totals agree within
        timer resolution.
        """
        spec = _quick_spec(name="obs-agree", obs=ObsSpec(enabled=True))
        record = run_experiment(spec, tmp_path / "run")
        summary = summarize_spans(merge_trace_dir(record.path / TRACE_DIRNAME))
        timing = record.report["timing"]
        for span_name, phase in (
            ("candidate.train", "train"),
            ("candidate.evaluate", "evaluate"),
        ):
            assert summary[span_name]["count"] == timing[phase]["count"]
            assert summary[span_name]["total"] == pytest.approx(
                timing[phase]["total"], abs=0.05
            )

    def test_obs_selective_sections(self, tmp_path):
        spec = _quick_spec(name="obs-metrics-only", obs=ObsSpec(enabled=True, trace=False))
        record = run_experiment(spec, tmp_path / "run")
        assert (record.path / METRICS_FILENAME).exists()
        assert not (record.path / TRACE_DIRNAME).exists()

    def test_disabled_obs_leaves_outputs_identical(self, tmp_path):
        """Instrumentation off vs on: the numeric trajectory is bit-identical."""
        plain = run_experiment(_quick_spec(name="parity"), tmp_path / "plain")
        observed = run_experiment(
            _quick_spec(name="parity", obs=ObsSpec(enabled=True)), tmp_path / "observed"
        )
        assert plain.best_mrr == observed.best_mrr
        assert plain.anytime_curve() == observed.anytime_curve()
        assert [e["validation_mrr"] for e in plain.history] == [
            e["validation_mrr"] for e in observed.history
        ]
        assert [e["structure"] for e in plain.history] == [
            e["structure"] for e in observed.history
        ]
