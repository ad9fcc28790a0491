"""Command-line interface for the AutoSF reproduction.

The subcommands cover the common workflows without writing any Python:

* ``repro-autosf run``    — execute a declarative experiment spec
  (``spec.json``) end to end through the unified search loop: any
  registered strategy (greedy / random / bayes / plug-ins), optional HPO,
  a versioned run directory (``spec.json`` / ``history.jsonl`` /
  ``report.json`` / ``best/``), and optional serving-artifact export.
  Re-running an existing run directory resumes from its evaluation store;
* ``repro-autosf compare`` — summary table + overlaid any-time curves for
  several run directories (the paper's Fig. 6 comparison);

* ``repro-autosf ingest`` — convert a TSV benchmark directory into a
  sharded on-disk triple store (fixed-size ``.npy`` shards + manifest);
  every dataset-taking subcommand then accepts ``--store DIR`` next to
  ``--benchmark``/``--data``, and ``run`` can override a spec's dataset
  section with ``--store``;
* ``repro-autosf compact`` — fold a live store's pending delta shards
  (written by :meth:`TripleStore.apply_delta`) back into base shards,
  bit-identical to re-ingesting the merged TSV;
* ``repro-autosf stats``  — print the Table III-style relation-pattern
  statistics of a built-in miniature benchmark or a TSV dataset directory;
* ``repro-autosf train``  — train one named scoring function and report the
  filtered link-prediction metrics.  ``--eval-every N`` / ``--patience P``
  enable validation-driven early stopping (patience counts evaluations, not
  epochs) with best-checkpoint restore; ``--save DIR`` writes the model as
  a serving artifact (with the dataset's vocabulary), ready for
  ``query``/``serve``;
* ``repro-autosf search`` — run the progressive greedy search and print the
  case study of the best structure found.  The flags become an
  ``ExperimentSpec`` (greedy strategy); candidate training can be fanned out
  over worker processes (``--backend process --workers N``), and with
  ``--cache-dir DIR`` the search checkpoints that spec as ``DIR/spec.json``
  beside its persistent evaluation store.  An interrupted or finished run
  restarts deterministically with ``--resume DIR``, retraining nothing that
  already completed, and ``repro-autosf run DIR/spec.json --run-dir DIR``
  turns the checkpoint into a full run directory from the same store;
* ``repro-autosf export`` — re-export a saved model (``--model DIR``) or the
  best model of an experiment run (``--run DIR``) as a new serving artifact,
  optionally stamped with a generation and eval metrics;
* ``repro-autosf query``  — answer a TSV batch of link-prediction queries
  through the batched inference engine (``--filter`` removes known
  positives);
* ``repro-autosf serve``  — run the dependency-free HTTP query service with
  latency/throughput counters and a Prometheus-style ``GET /metrics``
  endpoint (one registry per worker when ``--workers > 1``);
* ``repro-autosf trace``  — ``merge`` the per-process span files of an
  ``run --obs`` telemetry run into one chronologically ordered
  ``trace.jsonl``, or ``summarize`` them into a per-phase table.

``stats``/``train``/``search`` accept either ``--benchmark <name>`` (one of
the built-in miniatures) or ``--data <dir>`` (a directory with ``train.txt``
/ ``valid.txt`` / ``test.txt`` in the standard tab-separated format).
``train`` and ``search`` additionally take ``--score-chunk-size N`` (bound
multi-class training memory by scoring candidates in entity chunks); it
travels inside the training config, so worker processes train exactly like
in-process runs.
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from pathlib import Path
from typing import Optional

from repro.analysis import CaseStudy, format_run_comparison, format_table
from repro.core.execution import BACKEND_NAMES
from repro.core.store import EvaluationStore
from repro.datasets import DatasetError, available_benchmarks, dataset_statistics
from repro.datasets.knowledge_graph import KnowledgeGraph
from repro.datasets.pipeline import DEFAULT_SHARD_SIZE, TripleStore, ingest_tsv
from repro.experiments import (
    BackendSpec,
    DatasetSpec,
    ExperimentRunner,
    ExperimentSpec,
    RunDirectoryError,
    SearchLoop,
    SearchSpec,
    load_run,
)
from repro.experiments.runner import BEST_DIRNAME, SPEC_FILENAME, TRACE_DIRNAME
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.trace import merge_trace_dir, summarize_spans, write_merged_trace
from repro.kge import require_graph_matches_params, train_model
from repro.kge.scoring import available_scoring_functions
from repro.serving import (
    ArtifactError,
    EngineReloader,
    InferenceEngine,
    QueryServer,
    ServingFleet,
    answer_queries,
    export_artifact,
    format_response_rows,
    known_positive_index,
    load_artifact,
    read_query_file,
    validate_serve_options,
)
from repro.serving.fleet import prepare_filter_index
from repro.utils.config import ConfigError, TrainingConfig


def _positive_int(value: str) -> int:
    number = int(value)
    if number <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value!r}")
    return number


def _non_negative_int(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value!r}")
    return number


# ----------------------------------------------------------------------
# Shared argument groups
#
# Each group is declared exactly once and serializes straight into the
# matching ExperimentSpec section, so CLI flags and spec fields cannot
# drift: a flag without a section field (or vice versa) shows up here.
# ----------------------------------------------------------------------
def _add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags mirroring :class:`repro.experiments.DatasetSpec`."""
    group = parser.add_argument_group("dataset (ExperimentSpec.dataset)")
    source = group.add_mutually_exclusive_group()
    source.add_argument(
        "--benchmark",
        default="wn18rr",
        choices=available_benchmarks(),
        help="built-in miniature benchmark to use (default: wn18rr)",
    )
    source.add_argument("--data", help="directory with train.txt/valid.txt/test.txt")
    source.add_argument(
        "--store",
        help="sharded triple-store directory written by 'ingest' or "
        "KnowledgeGraph.to_store (ExperimentSpec dataset.store section)",
    )
    group.add_argument("--scale", type=float, default=0.5, help="miniature scale factor")
    group.add_argument("--seed", type=int, default=0, help="random seed")


def _add_training_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags mirroring :class:`repro.utils.config.TrainingConfig`."""
    group = parser.add_argument_group("training (ExperimentSpec.training)")
    group.add_argument("--dimension", type=int, default=32, help="embedding dimension")
    group.add_argument("--epochs", type=int, default=30, help="training epochs")
    group.add_argument("--batch-size", type=int, default=256, help="mini-batch size")
    group.add_argument("--learning-rate", type=float, default=0.5, help="Adagrad learning rate")
    group.add_argument("--l2", type=float, default=1e-4, help="L2 penalty")
    group.add_argument(
        "--score-chunk-size",
        type=_positive_int,
        default=None,
        help="entity-chunk size for multi-class candidate scoring; "
        "bounds peak training memory at batch-size x chunk scores "
        "(default: score all entities at once)",
    )
    group.add_argument(
        "--eval-every",
        type=_positive_int,
        default=None,
        help="evaluate validation MRR every N epochs during training; enables "
        "early stopping and best-checkpoint restore (default: off)",
    )
    group.add_argument(
        "--patience",
        type=_positive_int,
        default=None,
        help="early-stopping patience, counted in evaluations (not epochs) "
        "without a new best validation MRR; requires --eval-every",
    )


def _dataset_spec_from_args(args: argparse.Namespace) -> DatasetSpec:
    """The dataset argument group as an ExperimentSpec section."""
    store = getattr(args, "store", None)
    return DatasetSpec(
        benchmark=args.benchmark,
        data=args.data,
        scale=args.scale,
        seed=args.seed,
        store={"path": store} if store else None,
    )


def _training_config_from_args(args: argparse.Namespace) -> TrainingConfig:
    """The training argument group as an ExperimentSpec section."""
    if args.patience is not None and args.eval_every is None:
        raise SystemExit(
            "--patience has no effect without --eval-every "
            "(early stopping needs a validation cadence)"
        )
    return TrainingConfig(
        dimension=args.dimension,
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        l2_penalty=args.l2,
        seed=args.seed,
        score_chunk_size=args.score_chunk_size if args.score_chunk_size is not None else 0,
        eval_every=args.eval_every if args.eval_every is not None else 0,
        early_stopping_patience=args.patience if args.patience is not None else 0,
    )


def _load_dataset(dataset: DatasetSpec) -> KnowledgeGraph:
    try:
        return dataset.load()
    except DatasetError as error:
        raise SystemExit(str(error))


def _load_graph(args: argparse.Namespace) -> KnowledgeGraph:
    return _load_dataset(_dataset_spec_from_args(args))


def command_stats(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    statistics = dataset_statistics(graph)
    row = {"dataset": graph.name}
    row.update(statistics.as_row())
    print(format_table([row], title="Relation-pattern statistics"))
    if statistics.inverse_pairs:
        print("inverse relation pairs:", statistics.inverse_pairs)
    return 0


def command_ingest(args: argparse.Namespace) -> int:
    try:
        store = ingest_tsv(
            args.tsv_dir,
            args.store_dir,
            name=args.name,
            shard_size=args.shard_size,
            check_duplicates=not args.allow_duplicates,
        )
    except DatasetError as error:
        raise SystemExit(str(error))
    summary = store.summary()
    print(f"ingested {args.tsv_dir} -> {store.directory}")
    row = {"store": store.name}
    row.update(summary)
    print(format_table([row], title="Sharded triple store"))
    print(f"use it with: repro-autosf train --store {store.directory}  "
          f"(or a dataset.store spec section)")
    return 0


def command_compact(args: argparse.Namespace) -> int:
    from repro.live import compact_store

    try:
        store = TripleStore.open(args.store_dir)
        pending = len(store.delta_entries())
        generation = store.generation
        compacted = compact_store(store, output_dir=args.output)
    except DatasetError as error:
        raise SystemExit(str(error))
    if args.output is None and pending == 0:
        print(f"{store.directory} has no pending deltas; nothing to do")
        return 0
    print(f"compacted {pending} delta shard(s) at generation {generation} "
          f"into {compacted.directory}")
    row = {"store": compacted.name}
    row.update(compacted.summary())
    print(format_table([row], title="Compacted triple store"))
    return 0


def command_train(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    config = _training_config_from_args(args)
    print(f"training {args.model} on {graph.name} "
          f"(d={config.dimension}, {config.epochs} epochs)")
    model = train_model(graph, args.model, config, validate=config.eval_every > 0)
    rows = []
    for split in ("valid", "test"):
        result = model.evaluate(graph, split=split)
        row = {"split": split}
        row.update(result.as_dict())
        rows.append(row)
    print(format_table(rows, title=f"{args.model} on {graph.name}"))
    if args.save:
        path = export_artifact(model, args.save, graph=graph)
        print(f"model saved to {path} (a serving artifact)")
    return 0


def _search_spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    """The ``search`` flags as the spec the search runs (and checkpoints)."""
    try:
        return ExperimentSpec(
            name="search",
            seed=args.seed,
            dataset=_dataset_spec_from_args(args),
            training=_training_config_from_args(args),
            search=SearchSpec(
                strategy="greedy",
                budget=args.budget,
                max_blocks=args.max_blocks,
                candidates_per_step=args.candidates,
                top_parents=args.top_parents,
                train_per_step=args.train_per_step,
            ),
            backend=BackendSpec(
                backend=args.backend or "serial", num_workers=args.workers or 1
            ),
        )
    except ConfigError as error:
        raise SystemExit(str(error))


def _load_search_checkpoint(run_dir: Path) -> ExperimentSpec:
    path = run_dir / SPEC_FILENAME
    if not path.exists():
        raise SystemExit(
            f"cannot resume: {path} not found; start the search with "
            f"--cache-dir {run_dir} (re-running the original command replays "
            f"every evaluation already stored there)"
        )
    try:
        return ExperimentSpec.load(path)
    except ConfigError as error:
        raise SystemExit(str(error))


def command_search(args: argparse.Namespace) -> int:
    if args.resume:
        run_dir: Optional[Path] = Path(args.resume)
        spec = _load_search_checkpoint(run_dir)
        # Engine flags may be overridden on resume (results are
        # backend-independent by design); dataset/search flags may not.
        spec.backend = replace(
            spec.backend,
            backend=args.backend or spec.backend.backend,
            num_workers=args.workers or spec.backend.num_workers,
        )
        if args.budget is not None:
            spec.search.budget = args.budget
        graph = _load_dataset(spec.dataset)
        print(f"resuming search for {graph.name} from {run_dir} "
              f"(dataset/training/search settings restored from {SPEC_FILENAME}; "
              f"only --backend/--workers/--budget overrides apply)")
    else:
        spec = _search_spec_from_args(args)
        graph = _load_dataset(spec.dataset)
        run_dir = Path(args.cache_dir) if args.cache_dir else None
        if run_dir is not None:
            spec.save(run_dir / SPEC_FILENAME)

    budget = spec.search.budget
    print(f"searching a scoring function for {graph.name} "
          f"(up to {spec.search.max_blocks} blocks, {budget or 'unbounded'} trained models, "
          f"{spec.backend.backend} backend x{spec.backend.num_workers})")
    loop = SearchLoop.from_spec(
        spec, graph, store=EvaluationStore(run_dir) if run_dir is not None else None
    )
    if loop.store is not None and len(loop.store):
        print(f"evaluation store: {len(loop.store)} cached evaluations available "
              f"(reused when the stored configuration matches)")
    try:
        result = loop.run(max_evaluations=budget)
    except KeyboardInterrupt:
        if loop.store is not None:
            print(f"\ninterrupted; {len(loop.store)} evaluations checkpointed — "
                  f"restart with: repro-autosf search --resume {run_dir}")
        else:
            print("\ninterrupted (no --cache-dir, nothing checkpointed)")
        return 130
    print(f"trained {loop.evaluator.num_trained} models this run "
          f"({result.num_evaluations} recorded evaluations)")
    study = CaseStudy(graph.name, result.best_structure, result.best_mrr, dataset_statistics(graph))
    print(study.report())
    print("any-time best validation MRR:",
          " ".join(f"{value:.3f}" for value in result.anytime_curve()))
    return 0


def command_run(args: argparse.Namespace) -> int:
    try:
        spec = ExperimentSpec.load(args.spec)
    except ConfigError as error:
        raise SystemExit(str(error))
    if args.store:
        # Override the dataset section: read from a sharded store instead.
        try:
            spec.dataset = DatasetSpec(store={"path": args.store})
        except ConfigError as error:
            raise SystemExit(str(error))
    if args.obs:
        spec.obs.enabled = True
    run_dir = Path(args.run_dir) if args.run_dir else Path("runs") / spec.name
    dataset_label = (
        spec.dataset.store.path if spec.dataset.store is not None
        else spec.dataset.data or spec.dataset.benchmark
    )
    print(f"running experiment {spec.name!r} "
          f"({spec.search.strategy} strategy, {dataset_label}, "
          f"budget {args.budget or spec.search.budget or 'unbounded'}) -> {run_dir}")
    runner = ExperimentRunner(spec, run_dir)
    try:
        record = runner.run(max_evaluations=args.budget)
    except (ConfigError, DatasetError) as error:
        raise SystemExit(str(error))
    except KeyboardInterrupt:
        print(f"\ninterrupted; completed evaluations are checkpointed — "
              f"re-run: repro-autosf run {args.spec} --run-dir {run_dir}")
        return 130
    report = record.report
    rows = [{
        "strategy": record.strategy,
        "dataset": report.get("dataset"),
        "evaluations": report.get("num_evaluations"),
        "trained": report.get("num_trained"),
        "best_mrr": record.best_mrr,
    }]
    print(format_table(rows, title=f"experiment {record.name!r} completed"))
    print("any-time best validation MRR:",
          " ".join(f"{value:.3f}" for value in record.anytime_curve()))
    print(f"run directory: {record.path} (best model: {record.path / BEST_DIRNAME})")
    if "artifact" in report:
        print(f"serving artifact: {record.path / report['artifact']}")
    if spec.obs.enabled:
        print(f"telemetry: metrics.json + {TRACE_DIRNAME}/ under {record.path} "
              f"(summarize with: repro-autosf trace summarize {record.path})")
    return 0


def command_compare(args: argparse.Namespace) -> int:
    records = []
    for path in args.runs:
        try:
            records.append(load_run(path))
        except RunDirectoryError as error:
            raise SystemExit(str(error))
    print(format_run_comparison(records))
    return 0


def _load_artifact_or_exit(path: str, mmap: bool = False):
    try:
        return load_artifact(path, mmap=mmap)
    except ArtifactError as error:
        raise SystemExit(str(error))


def _serving_filter_index(args: argparse.Namespace, artifact):
    """Build the known-positive filter index when --filter is requested.

    The dataset must be the one the artifact was trained on — a mismatched
    graph would mask arbitrary wrong entities — so its vocabulary sizes are
    validated against the artifact before any query runs.
    """
    if not args.filter:
        return None
    if getattr(args, "store", None):
        # Shard-aware path: build the index straight from the store, never
        # materializing the splits.
        try:
            store = TripleStore.open(args.store)
        except DatasetError as error:
            raise SystemExit(str(error))
        if (
            store.num_entities != artifact.num_entities
            or store.num_relations != artifact.num_relations
        ):
            raise SystemExit(
                f"--filter store {store.name} ({store.num_entities} entities, "
                f"{store.num_relations} relations) does not match the artifact "
                f"({artifact.num_entities} entities, {artifact.num_relations} "
                f"relations); pass the store the model was trained on"
            )
        return known_positive_index(store)
    graph = _load_graph(args)
    if (
        graph.num_entities != artifact.num_entities
        or graph.num_relations != artifact.num_relations
    ):
        raise SystemExit(
            f"--filter dataset {graph.name} ({graph.num_entities} entities, "
            f"{graph.num_relations} relations) does not match the artifact "
            f"({artifact.num_entities} entities, {artifact.num_relations} "
            f"relations); pass the dataset the model was trained on via "
            f"--benchmark/--data (and matching --scale/--seed)"
        )
    return known_positive_index(graph)


def command_export(args: argparse.Namespace) -> int:
    if (args.model is None) == (args.run is None):
        raise SystemExit("export needs exactly one of --model DIR or --run DIR")
    if args.run is not None:
        try:
            record = load_run(args.run)
        except RunDirectoryError as error:
            raise SystemExit(str(error))
        model_directory = record.best_model_dir()
    else:
        model_directory = args.model
    try:
        model = load_artifact(model_directory).to_model()
    except ArtifactError as error:
        raise SystemExit(f"cannot load model to export: {error}")
    graph = None
    metrics = None
    if args.with_metrics:
        graph = _load_graph(args)
        try:
            require_graph_matches_params(model.params, graph)
        except ValueError as error:
            raise SystemExit(
                f"cannot evaluate --with-metrics: {error}; pass the dataset the "
                f"model was trained on via --benchmark/--data (and matching "
                f"--scale/--seed)"
            )
        metrics = {}
        for split in ("valid", "test"):
            result = model.evaluate(graph, split=split)
            for key, value in result.as_dict().items():
                metrics[f"{split}_{key}"] = value
    try:
        path = export_artifact(
            model, args.output, graph=graph, metrics=metrics,
            model_directory=model_directory, generation=args.generation,
        )
    except ArtifactError as error:
        raise SystemExit(str(error))
    print(f"artifact exported to {path}")
    artifact = load_artifact(path)
    for key, value in artifact.describe().items():
        print(f"  {key}: {value}")
    return 0


def command_query(args: argparse.Namespace) -> int:
    artifact = _load_artifact_or_exit(args.artifact)
    engine = InferenceEngine.from_artifact(
        artifact,
        filter_index=_serving_filter_index(args, artifact),
        batch_size=args.batch_size,
        entity_chunk_size=args.entity_chunk_size,
    )
    try:
        requests = read_query_file(
            args.queries, artifact, top_k=args.top_k, filtered=args.filter
        )
    except (OSError, ValueError) as error:
        raise SystemExit(str(error))
    if not requests:
        raise SystemExit(f"no queries found in {args.queries}")
    responses = answer_queries(engine, requests, artifact)
    rows = format_response_rows(responses, artifact)
    output = "\n".join(rows)
    if args.output:
        Path(args.output).write_text(output + "\n", encoding="utf-8")
        print(f"{len(requests)} queries answered; results written to {args.output}")
    else:
        print(output)
    total_s = engine.recorder.total("project") + engine.recorder.total("score") + engine.recorder.total("select")
    if total_s > 0:
        print(f"# {len(requests)} queries in {total_s * 1000:.1f} ms engine time "
              f"({len(requests) / total_s:.0f} queries/s)")
    return 0


def command_serve(args: argparse.Namespace) -> int:
    window_ms = args.micro_batch_window
    try:
        validate_serve_options(args.port, args.workers, window_ms or 0.0)
    except ConfigError as error:
        raise SystemExit(str(error))
    # A memmap load validates the artifact (and the --filter dataset
    # against it) without reading the embeddings; the recipe below does
    # the real load.
    artifact = _load_artifact_or_exit(args.artifact, mmap=True)
    if args.filter:
        # Saved beside the artifact, where every worker count, /reload and
        # SIGHUP of this directory find it.
        prepare_filter_index(_serving_filter_index(args, artifact), args.artifact)
    reloader = EngineReloader(
        artifact_dir=args.artifact,
        batch_size=args.batch_size,
        entity_chunk_size=args.entity_chunk_size,
        micro_batch=args.workers > 1 if window_ms is None else window_ms > 0,
    )
    if args.workers > 1:
        try:
            fleet = ServingFleet(
                reloader, host=args.host, port=args.port, workers=args.workers, quiet=False
            )
        except (ArtifactError, ConfigError) as error:
            raise SystemExit(str(error))
        return fleet.run()  # pragma: no cover - blocking loop
    # Install a real registry before the engine is built so the engine's
    # counters (and the server's /metrics endpoint) bind to it.
    set_registry(MetricsRegistry())
    try:
        server = QueryServer((args.host, args.port), reloader, quiet=False)
    except (ArtifactError, ValueError) as error:
        raise SystemExit(str(error))
    print(f"serving {artifact.scoring_function.name} "
          f"({artifact.num_entities} entities, {artifact.num_relations} relations, "
          f"generation {artifact.generation}, schema v{artifact.schema_version}) "
          f"on http://{args.host}:{server.server_port} — POST /query, POST /reload, "
          f"GET /stats, GET /metrics, GET /healthz", flush=True)
    server.run()
    return 0


def command_trace(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    trace_dir = run_dir / TRACE_DIRNAME
    if not trace_dir.is_dir():
        # Also accept the trace directory itself for convenience.
        trace_dir = run_dir
    events = merge_trace_dir(trace_dir)
    if not events:
        raise SystemExit(
            f"no trace files (trace-*.jsonl) found under {trace_dir}; "
            f"run the experiment with --obs (or spec section 'obs': "
            f"{{'enabled': true}}) to record spans"
        )
    pids = sorted({event["pid"] for event in events})
    if args.action == "merge":
        output = write_merged_trace(trace_dir)
        print(f"merged {len(events)} spans from {len(pids)} process(es) into {output}")
        return 0
    summary = summarize_spans(events)
    rows = [
        {
            "span": name,
            "count": stats["count"],
            "total_s": f"{stats['total']:.3f}",
            "mean_ms": f"{stats['mean'] * 1000.0:.2f}",
            "pids": len(stats["pids"]),
        }
        for name, stats in sorted(
            summary.items(), key=lambda item: item[1]["total"], reverse=True
        )
    ]
    print(format_table(
        rows,
        title=f"{len(events)} spans across {len(pids)} process(es) in {trace_dir}",
    ))
    return 0


def command_worker(args: argparse.Namespace) -> int:
    from repro.core.distributed import serve_worker

    host, sep, port_text = args.connect.rpartition(":")
    if not sep or not host:
        raise SystemExit(
            f"--connect expects HOST:PORT (e.g. 192.168.1.10:5000), got {args.connect!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise SystemExit(f"--connect port must be an integer, got {port_text!r}")
    if not 0 < port < 65536:
        raise SystemExit(f"--connect port must be in 1..65535, got {port}")
    print(f"worker connecting to coordinator at {host}:{port} "
          f"(reconnect every {args.reconnect_interval:g}s, "
          f"idle exit after {args.max_idle:g}s)")
    completed = serve_worker(
        host,
        port,
        reconnect_interval=args.reconnect_interval,
        max_idle=args.max_idle,
    )
    print(f"worker finished: {completed} task(s) evaluated")
    return 0


def _add_serving_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--artifact", required=True, help="serving artifact directory")
    parser.add_argument(
        "--batch-size",
        type=_positive_int,
        default=256,
        help="queries per micro-batch inside the engine (default: 256)",
    )
    parser.add_argument(
        "--entity-chunk-size",
        type=_non_negative_int,
        default=0,
        help="entity-chunk size for the engine's scoring step; bounds the "
        "transient memory of distance-based models (TransE/RotatE) at "
        "batch-size x chunk x dimension (0, the default, scores all "
        "entities at once)",
    )
    parser.add_argument(
        "--filter",
        action="store_true",
        help="remove known train/valid positives from the answers; rebuilds "
        "the dataset from --benchmark/--data to index known triples",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-autosf",
        description="AutoSF reproduction: train and search scoring functions for KG embedding",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    stats_parser = subparsers.add_parser("stats", help="dataset relation-pattern statistics")
    _add_dataset_arguments(stats_parser)
    stats_parser.set_defaults(handler=command_stats)

    run_parser = subparsers.add_parser(
        "run",
        help="execute a declarative experiment spec (spec.json) end to end",
    )
    run_parser.add_argument("spec", help="path to an ExperimentSpec JSON file")
    run_parser.add_argument(
        "--run-dir",
        help="run directory to write (default: runs/<spec name>); re-running an "
        "existing directory resumes from its evaluation store",
    )
    run_parser.add_argument(
        "--budget",
        type=_positive_int,
        default=None,
        help="override the spec's search.budget (cap on recorded evaluations, "
        "including cache replays)",
    )
    run_parser.add_argument(
        "--store",
        help="override the spec's dataset section with a sharded triple-store "
        "directory (sets dataset.store.path)",
    )
    run_parser.add_argument(
        "--obs",
        action="store_true",
        help="enable the telemetry layer for this run regardless of the "
        "spec's obs section: collect metrics into <run-dir>/metrics.json "
        "and trace spans into <run-dir>/trace/",
    )
    run_parser.set_defaults(handler=command_run)

    ingest_parser = subparsers.add_parser(
        "ingest",
        help="convert a TSV benchmark directory into a sharded triple store",
    )
    ingest_parser.add_argument("tsv_dir", help="directory with train.txt/valid.txt/test.txt")
    ingest_parser.add_argument("store_dir", help="output store directory")
    ingest_parser.add_argument(
        "--shard-size",
        type=_positive_int,
        default=DEFAULT_SHARD_SIZE,
        help=f"triples per shard (default: {DEFAULT_SHARD_SIZE})",
    )
    ingest_parser.add_argument("--name", help="store label (default: the TSV directory name)")
    ingest_parser.add_argument(
        "--allow-duplicates",
        action="store_true",
        help="skip the duplicate-triple check (needed for dumps that "
        "legitimately repeat triples within a split)",
    )
    ingest_parser.set_defaults(handler=command_ingest)

    compact_parser = subparsers.add_parser(
        "compact",
        help="fold a live store's pending delta shards back into base shards",
    )
    compact_parser.add_argument("store_dir", help="sharded triple-store directory")
    compact_parser.add_argument(
        "--output",
        help="write the compacted store here instead of rewriting in place",
    )
    compact_parser.set_defaults(handler=command_compact)

    compare_parser = subparsers.add_parser(
        "compare", help="compare experiment run directories (table + any-time curves)"
    )
    compare_parser.add_argument("runs", nargs="+", help="run directories written by 'run'")
    compare_parser.set_defaults(handler=command_compare)

    train_parser = subparsers.add_parser("train", help="train one scoring function")
    _add_dataset_arguments(train_parser)
    _add_training_arguments(train_parser)
    train_parser.add_argument(
        "--model",
        default="simple",
        choices=available_scoring_functions(),
        help="scoring function to train (default: simple)",
    )
    train_parser.add_argument(
        "--save", help="directory to write the trained model into, as a serving artifact"
    )
    train_parser.set_defaults(handler=command_train)

    search_parser = subparsers.add_parser("search", help="run the AutoSF greedy search")
    _add_dataset_arguments(search_parser)
    _add_training_arguments(search_parser)
    search_parser.add_argument("--max-blocks", type=int, default=6, help="largest block count B")
    search_parser.add_argument("--candidates", type=int, default=24, help="pool size N per stage")
    search_parser.add_argument("--top-parents", type=int, default=5, help="parents K1 per stage")
    search_parser.add_argument("--train-per-step", type=int, default=6, help="trained candidates K2")
    search_parser.add_argument(
        "--budget",
        type=_positive_int,
        default=None,
        help="cap on recorded evaluations, including cache replays",
    )
    search_parser.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default=None,
        help="where candidate training runs (default: serial)",
    )
    search_parser.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="local worker processes for --backend process or queue; "
        "process forks them on a private loopback port (default: 1)",
    )
    search_parser.add_argument(
        "--cache-dir",
        help="directory for the persistent evaluation store and the checkpointed "
        "spec.json (enables --resume, and 'run DIR/spec.json --run-dir DIR')",
    )
    search_parser.add_argument(
        "--resume",
        metavar="DIR",
        help="resume a previous --cache-dir search; dataset and configs are restored "
        "from DIR/spec.json (only --backend/--workers/--budget may be overridden)",
    )
    search_parser.set_defaults(handler=command_search)

    export_parser = subparsers.add_parser(
        "export", help="re-export a saved model as a new serving artifact"
    )
    export_source = export_parser.add_mutually_exclusive_group()
    export_source.add_argument(
        "--model", help="model artifact directory written by train --save or export"
    )
    export_source.add_argument(
        "--run", help="experiment run directory written by 'run' (exports best/)"
    )
    export_parser.add_argument("--output", required=True, help="artifact output directory")
    export_parser.add_argument(
        "--generation",
        type=_non_negative_int,
        default=0,
        help="artifact generation stamp for live hot-swap deployments "
        "(default: 0); 'serve' reports it in the banner and /stats",
    )
    export_parser.add_argument(
        "--with-metrics",
        action="store_true",
        help="evaluate the model on --benchmark/--data and embed the filtered "
        "valid/test metrics (and the dataset vocabulary) in the artifact",
    )
    _add_dataset_arguments(export_parser)
    export_parser.set_defaults(handler=command_export)

    query_parser = subparsers.add_parser(
        "query", help="answer a TSV batch of link-prediction queries"
    )
    _add_serving_arguments(query_parser)
    query_parser.add_argument(
        "--queries",
        required=True,
        help="TSV file: 'head<TAB>relation<TAB>?' asks for tails, "
        "'?<TAB>relation<TAB>tail' for heads (labels or integer ids)",
    )
    query_parser.add_argument(
        "--top-k", type=_positive_int, default=10, help="answers per query (default: 10)"
    )
    query_parser.add_argument("--output", help="write the result TSV here instead of stdout")
    _add_dataset_arguments(query_parser)
    query_parser.set_defaults(handler=command_query)

    serve_parser = subparsers.add_parser(
        "serve", help="run the HTTP query service (stdlib http.server)"
    )
    _add_serving_arguments(serve_parser)
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument("--port", type=int, default=8080, help="bind port (0 picks a free port)")
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="pre-forked worker processes sharing the memmap'd artifact "
        "through one inherited listener (default: 1 = single process)",
    )
    serve_parser.add_argument(
        "--micro-batch-window",
        type=float,
        default=None,
        metavar="MS",
        help="any positive value mounts the group-commit micro-batcher: "
        "queries that arrive while an engine call runs are answered together "
        "by the next one, and no caller waits on a timer, so the value itself "
        "sets nothing else (0 mounts no batcher; default: on when "
        "--workers > 1, else off)",
    )
    _add_dataset_arguments(serve_parser)
    serve_parser.set_defaults(handler=command_serve)

    worker_parser = subparsers.add_parser(
        "worker",
        help="connect to a queue-backend search coordinator and evaluate "
        "candidates dispatched to this host",
    )
    worker_parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address: the host running a search with "
        "backend 'queue' and a fixed backend.port",
    )
    worker_parser.add_argument(
        "--reconnect-interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="delay between connection attempts; the coordinator opens a "
        "fresh listener for every dispatch round, so workers poll "
        "(default: 0.5)",
    )
    worker_parser.add_argument(
        "--max-idle",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="exit after this long without a successful connection "
        "(default: 60; 0 keeps polling forever)",
    )
    worker_parser.set_defaults(handler=command_worker)

    trace_parser = subparsers.add_parser(
        "trace", help="merge or summarize the trace spans of an --obs run"
    )
    trace_parser.add_argument(
        "action",
        choices=("merge", "summarize"),
        help="merge: write one chronologically ordered trace.jsonl; "
        "summarize: print a per-span-name breakdown (count/total/mean/pids)",
    )
    trace_parser.add_argument(
        "run_dir",
        help="experiment run directory written by 'run --obs' "
        "(or its trace/ subdirectory)",
    )
    trace_parser.set_defaults(handler=command_trace)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via the console entry point
    raise SystemExit(main())
