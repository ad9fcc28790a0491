"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.datasets import write_tsv_dataset
from repro.experiments import DatasetSpec, ExperimentSpec, SearchSpec
from repro.serving import load_artifact
from repro.utils.config import PredictorConfig, TrainingConfig


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.benchmark == "wn18rr"
        assert args.model == "simple"
        assert args.dimension == 32

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--model", "gpt"])

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "--benchmark", "dbpedia"])

    def test_search_options(self):
        args = build_parser().parse_args(
            ["search", "--max-blocks", "8", "--budget", "7", "--candidates", "12"]
        )
        assert args.max_blocks == 8
        assert args.budget == 7
        assert args.candidates == 12

    def test_search_engine_options(self):
        args = build_parser().parse_args(
            ["search", "--backend", "process", "--workers", "4", "--cache-dir", "runs/a"]
        )
        assert args.backend == "process"
        assert args.workers == 4
        assert args.cache_dir == "runs/a"
        assert args.resume is None

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "--backend", "threads"])

    @pytest.mark.parametrize("command", ["train", "search"])
    def test_no_train_engine_flag(self, command):
        """The loss picks the training kernel; no flag selects one."""
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--train-engine", "reference"])
        args = build_parser().parse_args([command, "--score-chunk-size", "64"])
        assert not hasattr(args, "train_engine")
        assert args.score_chunk_size == 64


class TestCommands:
    def test_stats_on_benchmark(self, capsys):
        exit_code = main(["stats", "--benchmark", "wn18rr", "--scale", "0.3"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Relation-pattern statistics" in captured
        assert "wn18rr-mini" in captured

    def test_stats_on_tsv_directory(self, tiny_graph, tmp_path, capsys):
        directory = write_tsv_dataset(tiny_graph, tmp_path / "dump")
        exit_code = main(["stats", "--data", str(directory)])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "symmetric" in captured

    def test_train_and_save(self, tmp_path, capsys):
        exit_code = main(
            [
                "train",
                "--benchmark", "wn18rr",
                "--scale", "0.25",
                "--model", "distmult",
                "--dimension", "8",
                "--epochs", "3",
                "--batch-size", "128",
                "--save", str(tmp_path / "model"),
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "distmult on wn18rr-mini" in captured
        # --save writes a serving artifact, servable and mmap-loadable as is.
        assert load_artifact(tmp_path / "model", mmap=True).params_memmap

    def test_search_with_small_budget(self, capsys):
        exit_code = main(
            [
                "search",
                "--benchmark", "wn18rr",
                "--scale", "0.25",
                "--dimension", "8",
                "--epochs", "3",
                "--batch-size", "128",
                "--budget", "5",
                "--candidates", "6",
                "--train-per-step", "2",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "searched scoring function" in captured
        assert "any-time best validation MRR" in captured

    def test_search_cache_dir_then_resume(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        common = [
            "search",
            "--benchmark", "wn18rr",
            "--scale", "0.2",
            "--dimension", "8",
            "--epochs", "3",
            "--batch-size", "128",
            "--budget", "4",
            "--candidates", "6",
            "--train-per-step", "2",
        ]
        exit_code = main(common + ["--cache-dir", str(run_dir)])
        first = capsys.readouterr().out
        assert exit_code == 0
        checkpoint = ExperimentSpec.load(run_dir / "spec.json")
        assert checkpoint.search.strategy == "greedy"
        assert checkpoint.search.budget == 4
        assert checkpoint.dataset.scale == 0.2
        assert list((run_dir / "evaluations").glob("*.json"))

        exit_code = main(["search", "--resume", str(run_dir)])
        second = capsys.readouterr().out
        assert exit_code == 0
        assert f"resuming search for wn18rr-mini from {run_dir}" in second
        assert "trained 0 models this run" in second

        def mrr_line(output):
            return [line for line in output.splitlines() if "any-time best" in line][-1]

        assert mrr_line(first) == mrr_line(second)

        # The checkpoint is an ordinary experiment spec: running it against
        # the same directory replays the search from its store.
        assert main(["run", str(run_dir / "spec.json"), "--run-dir", str(run_dir)]) == 0
        third = capsys.readouterr().out
        row = [line for line in third.splitlines() if line.startswith("greedy")][0].split()
        assert row[2:4] == ["4", "0"]  # strategy dataset evaluations trained ...
        assert mrr_line(third) == mrr_line(first)

    def test_resume_budget_override_extends_the_checkpoint(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main([
            "search", "--benchmark", "wn18rr", "--scale", "0.2", "--dimension", "8",
            "--epochs", "3", "--batch-size", "128", "--budget", "4", "--candidates", "6",
            "--train-per-step", "2", "--cache-dir", str(run_dir),
        ]) == 0
        capsys.readouterr()
        assert main(["search", "--resume", str(run_dir), "--budget", "6"]) == 0
        resumed = capsys.readouterr().out
        assert "trained 2 models this run (6 recorded evaluations)" in resumed
        # The checkpoint itself is left as the original search wrote it.
        assert ExperimentSpec.load(run_dir / "spec.json").search.budget == 4

    def test_resume_without_manifest_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="spec.json not found"):
            main(["search", "--resume", str(tmp_path / "nowhere")])

    def test_search_rejects_bad_meta_parameters(self):
        with pytest.raises(SystemExit, match="SearchSpec.max_blocks"):
            main(["search", "--max-blocks", "7"])


def _write_spec(tmp_path, name, strategy, budget=4):
    spec = ExperimentSpec(
        name=name,
        seed=0,
        dataset=DatasetSpec(benchmark="wn18rr", scale=0.2, seed=0),
        training=TrainingConfig(dimension=8, epochs=3, batch_size=128, learning_rate=0.5),
        search=SearchSpec(
            strategy=strategy, budget=budget, candidates_per_step=6,
            top_parents=3, train_per_step=2, num_blocks=6,
        ),
        predictor=PredictorConfig(epochs=50),
    )
    return spec.save(tmp_path / f"{name}.json")


class TestExperimentCommands:
    def test_run_then_compare_then_export(self, tmp_path, capsys):
        greedy_spec = _write_spec(tmp_path, "cli-greedy", "greedy")
        random_spec = _write_spec(tmp_path, "cli-random", "random")
        greedy_dir = tmp_path / "run-greedy"
        random_dir = tmp_path / "run-random"

        assert main(["run", str(greedy_spec), "--run-dir", str(greedy_dir)]) == 0
        first = capsys.readouterr().out
        assert "cli-greedy" in first
        assert "any-time best validation MRR" in first
        assert (greedy_dir / "spec.json").exists()
        assert (greedy_dir / "report.json").exists()
        assert (greedy_dir / "history.jsonl").exists()
        assert (greedy_dir / "best" / "manifest.json").exists()

        assert main(["run", str(random_spec), "--run-dir", str(random_dir)]) == 0
        capsys.readouterr()

        assert main(["compare", str(greedy_dir), str(random_dir)]) == 0
        compared = capsys.readouterr().out
        assert "Experiment comparison" in compared
        assert "cli-greedy" in compared and "cli-random" in compared
        assert "model#" in compared

        artifact = tmp_path / "artifact"
        assert main(["export", "--run", str(greedy_dir), "--output", str(artifact)]) == 0
        exported = capsys.readouterr().out
        assert "artifact exported" in exported
        assert (artifact / "manifest.json").exists()

    def test_run_resumes_existing_directory(self, tmp_path, capsys):
        spec = _write_spec(tmp_path, "cli-resume", "random", budget=3)
        run_dir = tmp_path / "run"
        main(["run", str(spec), "--run-dir", str(run_dir)])
        capsys.readouterr()
        assert main(["run", str(spec), "--run-dir", str(run_dir)]) == 0
        resumed = capsys.readouterr().out
        trained_column = [
            line for line in resumed.splitlines() if line.startswith("random")
        ][0].split()
        assert trained_column[3] == "0"  # strategy dataset evaluations trained ...

    def test_run_budget_override(self, tmp_path, capsys):
        spec = _write_spec(tmp_path, "cli-budget", "random", budget=4)
        run_dir = tmp_path / "run"
        assert main(["run", str(spec), "--run-dir", str(run_dir), "--budget", "2"]) == 0
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if line.startswith("random")][0].split()[2] == "2"

    def test_run_obs_writes_telemetry_and_trace_subcommand_reads_it(
        self, tmp_path, capsys
    ):
        spec = _write_spec(tmp_path, "cli-obs", "random", budget=3)
        run_dir = tmp_path / "run"
        assert main(["run", str(spec), "--run-dir", str(run_dir), "--obs"]) == 0
        out = capsys.readouterr().out
        assert "telemetry" in out
        assert (run_dir / "metrics.json").exists()
        assert list((run_dir / "trace").glob("trace-*.jsonl"))

        assert main(["trace", "summarize", str(run_dir)]) == 0
        summarized = capsys.readouterr().out
        assert "search.candidate" in summarized
        assert "train.epoch" in summarized

        assert main(["trace", "merge", str(run_dir)]) == 0
        merged = capsys.readouterr().out
        assert "merged" in merged
        assert (run_dir / "trace" / "trace.jsonl").exists()

    def test_run_without_obs_writes_no_telemetry(self, tmp_path, capsys):
        spec = _write_spec(tmp_path, "cli-no-obs", "random", budget=2)
        run_dir = tmp_path / "run"
        assert main(["run", str(spec), "--run-dir", str(run_dir)]) == 0
        capsys.readouterr()
        assert not (run_dir / "metrics.json").exists()
        assert not (run_dir / "trace").exists()

    def test_trace_without_telemetry_fails(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(SystemExit, match="no trace files"):
            main(["trace", "summarize", str(tmp_path / "empty")])

    def test_run_missing_spec_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["run", str(tmp_path / "nowhere.json")])

    def test_run_unknown_strategy_fails(self, tmp_path):
        path = _write_spec(tmp_path, "cli-bad", "random")
        data = path.read_text().replace('"random"', '"quantum"')
        path.write_text(data)
        with pytest.raises(SystemExit, match="quantum"):
            main(["run", str(path), "--run-dir", str(tmp_path / "run")])

    def test_compare_rejects_non_run_directory(self, tmp_path):
        (tmp_path / "junk").mkdir()
        with pytest.raises(SystemExit, match="missing manifest.json"):
            main(["compare", str(tmp_path / "junk")])

    def test_export_requires_exactly_one_source(self, tmp_path):
        with pytest.raises(SystemExit, match="exactly one"):
            main(["export", "--output", str(tmp_path / "out")])


class TestServingCommands:
    @pytest.fixture()
    def saved_model(self, tmp_path):
        target = tmp_path / "model"
        main(
            [
                "train",
                "--benchmark", "wn18rr",
                "--scale", "0.25",
                "--model", "distmult",
                "--dimension", "8",
                "--epochs", "2",
                "--batch-size", "128",
                "--save", str(target),
            ]
        )
        return target

    def test_export_then_query(self, saved_model, tmp_path, capsys):
        artifact = tmp_path / "artifact"
        exit_code = main(
            ["export", "--model", str(saved_model), "--output", str(artifact)]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "artifact exported" in captured
        assert (artifact / "manifest.json").exists()
        assert (artifact / "params" / "entities.npy").exists()

        queries = tmp_path / "queries.tsv"
        queries.write_text("0\t0\t?\n?\t1\t2\n", encoding="utf-8")
        exit_code = main(
            [
                "query",
                "--artifact", str(artifact),
                "--queries", str(queries),
                "--top-k", "3",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        lines = [line for line in captured.splitlines() if line and not line.startswith("#")]
        assert lines[0].startswith("direction\t")
        assert len(lines) == 1 + 2 * 3  # header + two queries x top-3

    def test_export_with_metrics(self, saved_model, tmp_path, capsys):
        artifact = tmp_path / "artifact_metrics"
        exit_code = main(
            [
                "export",
                "--model", str(saved_model),
                "--output", str(artifact),
                "--with-metrics",
                "--benchmark", "wn18rr",
                "--scale", "0.25",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "test_mrr" in captured

    def test_export_with_metrics_rejects_mismatched_dataset(self, saved_model, tmp_path):
        # The model was trained at --scale 0.25; the default --scale 0.5
        # dataset has a different vocabulary and must be rejected up front,
        # not crash mid-evaluation.
        with pytest.raises(SystemExit, match="does not match"):
            main(
                [
                    "export",
                    "--model", str(saved_model),
                    "--output", str(tmp_path / "out"),
                    "--with-metrics",
                    "--benchmark", "wn18rr",
                ]
            )

    def test_export_missing_model_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot load model"):
            main(["export", "--model", str(tmp_path / "nowhere"), "--output", str(tmp_path / "out")])

    def test_query_missing_artifact_fails(self, tmp_path):
        queries = tmp_path / "queries.tsv"
        queries.write_text("0\t0\t?\n", encoding="utf-8")
        with pytest.raises(SystemExit, match="does not exist"):
            main(["query", "--artifact", str(tmp_path / "nowhere"), "--queries", str(queries)])

    def test_query_filter_rejects_mismatched_dataset(self, saved_model, tmp_path, capsys):
        artifact = tmp_path / "artifact"
        main(["export", "--model", str(saved_model), "--output", str(artifact)])
        capsys.readouterr()
        queries = tmp_path / "queries.tsv"
        queries.write_text("0\t0\t?\n", encoding="utf-8")
        # The model was trained at --scale 0.25; the default --scale 0.5
        # dataset has a different vocabulary and must be rejected.
        with pytest.raises(SystemExit, match="does not match the artifact"):
            main(
                [
                    "query",
                    "--artifact", str(artifact),
                    "--queries", str(queries),
                    "--filter",
                    "--benchmark", "wn18rr",
                ]
            )
