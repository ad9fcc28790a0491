"""Search-strategy benchmark: greedy vs random vs Bayes through one loop.

All three policies of the paper's Sec. V comparison run through the unified
:class:`repro.experiments.loop.SearchLoop` on the yago310 miniature, under
one shared evaluation protocol and one budget — selected purely by the
spec's ``search.strategy`` field, exactly as ``repro-autosf run`` does.
Reported per strategy:

* **quality**: best validation MRR and the any-time best curve (Fig. 6);
* **cost**: total wall-clock, models actually trained, and the filter /
  dedup counters;
* **cache leverage**: a second pass of every strategy against the warm
  evaluation store must train **zero** new models (the regression the
  baselines used to fail by bypassing the store) — measured, not assumed.

Two further checks are asserted (not just reported):

* **distributed parity**: the greedy search through a 3-worker
  :class:`~repro.core.distributed.QueueBackend` — with one worker killed
  mid-batch via the fault-injection hook — must reproduce the serial
  trajectory bit for bit;
* **ASHA speed-up**: the fidelity scheduler screening a wide candidate
  front must reach the same-or-better best MRR as training the whole
  front at full fidelity, at >= 3x less total training compute (epochs).

Runs standalone (CI calls it with ``--quick`` and uploads the JSON timings
as an artifact)::

    PYTHONPATH=src python benchmarks/bench_search_strategies.py --quick

Results are printed as tables and written to
``benchmarks/results/search_strategies.json`` so regressions are visible per
revision.
"""

from __future__ import annotations

import argparse
import tempfile
import time

from _helpers import (
    BENCH_EPOCHS,
    BENCH_SCALE,
    RESULTS_DIR,
    bench_training_config,
    publish,
    write_bench_summary,
)

from repro.analysis import format_series, format_table
from repro.core.distributed import QueueBackend
from repro.core.store import EvaluationStore
from repro.datasets import load_benchmark
from repro.experiments import (
    DatasetSpec,
    ExperimentSpec,
    FidelityScheduler,
    SearchLoop,
    SearchSpec,
    create_strategy,
)
from repro.utils.config import PredictorConfig
from repro.utils.serialization import to_json_file

BENCHMARK = "yago310"
STRATEGIES = ("greedy", "random", "bayes")


def build_spec(strategy: str, budget: int, scale: float) -> ExperimentSpec:
    return ExperimentSpec(
        name=f"bench-{strategy}",
        seed=0,
        dataset=DatasetSpec(benchmark=BENCHMARK, scale=scale, seed=0),
        search=SearchSpec(
            strategy=strategy,
            budget=budget,
            max_blocks=6,
            candidates_per_step=12,
            top_parents=4,
            train_per_step=3,
            num_blocks=6,
            pool_size=16,
        ),
        predictor=PredictorConfig(epochs=100),
    )


def run_strategy(graph, spec, training_config, store) -> dict:
    loop = SearchLoop.from_spec(spec, graph, training_config=training_config, store=store)
    start = time.perf_counter()
    result = loop.run(max_evaluations=spec.search.budget)
    elapsed = time.perf_counter() - start
    return {
        "strategy": spec.search.strategy,
        "best_mrr": result.best_mrr,
        "anytime_curve": result.anytime_curve(),
        "num_evaluations": result.num_evaluations,
        "num_trained": loop.evaluator.num_trained,
        "wall_seconds": elapsed,
        "filter_statistics": result.filter_statistics,
    }


def distributed_parity(graph, training_config, budget, scale) -> dict:
    """Greedy search on the queue backend (one worker killed) vs serial.

    The parity oracle of the distributed backend: per-candidate seeding
    plus index-slotted results mean the trajectory must be bit-identical
    no matter how many workers run or die.
    """
    spec = build_spec("greedy", budget, scale)
    start = time.perf_counter()
    serial_result = SearchLoop(
        graph, create_strategy(spec), training_config, seed=spec.seed
    ).run(max_evaluations=budget)
    serial_seconds = time.perf_counter() - start

    backend = QueueBackend(
        num_workers=3,
        heartbeat_interval=0.2,
        heartbeat_timeout=5.0,
        _kill_after_tasks={0: 1},  # worker 0 dies holding its second task
    )
    start = time.perf_counter()
    queue_result = SearchLoop(
        graph, create_strategy(spec), training_config, seed=spec.seed, backend=backend
    ).run(max_evaluations=budget)
    queue_seconds = time.perf_counter() - start

    serial_curve = [r.validation_mrr for r in serial_result.records]
    queue_curve = [r.validation_mrr for r in queue_result.records]
    assert queue_curve == serial_curve, (
        "queue backend diverged from the serial trajectory "
        "(bit-parity under worker kill is broken)"
    )
    assert queue_result.best_mrr == serial_result.best_mrr
    return {
        "workers": 3,
        "injected_worker_kill": True,
        "budget": budget,
        "best_mrr": queue_result.best_mrr,
        "bit_identical_to_serial": True,
        "serial_wall_seconds": serial_seconds,
        "queue_wall_seconds": queue_seconds,
    }


def asha_speedup(graph, quick: bool, scale: float) -> dict:
    """Full-fidelity wide front vs the same front under the ASHA scheduler.

    Both runs propose identical candidate fronts (same strategy, same
    seed); the baseline trains every candidate at the full epoch budget,
    the scheduled run screens rungs first.  Asserts the scheduled run's
    best MRR is same-or-better at >= 3x less training compute.
    """
    epochs = 15 if quick else 24
    budget = 20  # covers the whole proposed front (5 seeds + 15 extensions)
    spec = ExperimentSpec(
        name="bench-asha",
        seed=0,
        dataset=DatasetSpec(benchmark=BENCHMARK, scale=scale, seed=0),
        search=SearchSpec(
            strategy="greedy",
            budget=budget,
            max_blocks=6,
            candidates_per_step=24,
            top_parents=4,
            train_per_step=15,
        ),
        predictor=PredictorConfig(epochs=100),
    )
    training_config = bench_training_config(epochs=epochs)

    start = time.perf_counter()
    base_loop = SearchLoop(graph, create_strategy(spec), training_config, seed=spec.seed)
    base = base_loop.run(max_evaluations=budget)
    base_seconds = time.perf_counter() - start

    start = time.perf_counter()
    asha_loop = SearchLoop(
        graph,
        create_strategy(spec),
        training_config,
        seed=spec.seed,
        scheduler=FidelityScheduler(reduction=3, min_epochs=1),
    )
    asha = asha_loop.run(max_evaluations=budget)
    asha_seconds = time.perf_counter() - start

    base_compute = base_loop.total_training_epochs
    asha_compute = asha_loop.total_training_epochs
    assert asha.best_mrr >= base.best_mrr, (
        f"ASHA best MRR {asha.best_mrr:.4f} fell below the full-fidelity "
        f"baseline {base.best_mrr:.4f}"
    )
    assert base_compute >= 3 * asha_compute, (
        f"ASHA used {asha_compute} training epochs vs {base_compute} "
        f"full-fidelity (less than the required 3x saving)"
    )
    return {
        "epochs": epochs,
        "budget": budget,
        "ladder": FidelityScheduler(reduction=3, min_epochs=1).ladder(epochs),
        "base_best_mrr": base.best_mrr,
        "asha_best_mrr": asha.best_mrr,
        "base_training_epochs": base_compute,
        "asha_training_epochs": asha_compute,
        "compute_ratio": base_compute / asha_compute,
        "asha_full_fidelity_evaluations": asha.num_evaluations,
        "base_wall_seconds": base_seconds,
        "asha_wall_seconds": asha_seconds,
        "rung_stats": [asha_loop.rung_stats[e] for e in sorted(asha_loop.rung_stats)],
    }


def build_report(quick: bool) -> tuple:
    scale = 0.2 if quick else BENCH_SCALE
    budget = 6 if quick else 12
    graph = load_benchmark(BENCHMARK, scale=scale, seed=0)
    training_config = bench_training_config(epochs=3 if quick else BENCH_EPOCHS)

    rows, curves, payload = [], {}, {"quick": quick, "budget": budget, "strategies": {}}
    with tempfile.TemporaryDirectory() as cache_root:
        for strategy in STRATEGIES:
            spec = build_spec(strategy, budget, scale)
            store = EvaluationStore(f"{cache_root}/{strategy}")
            cold = run_strategy(graph, spec, training_config, store)
            warm = run_strategy(
                graph, spec, training_config, EvaluationStore(f"{cache_root}/{strategy}")
            )
            assert warm["num_trained"] == 0, (
                f"{strategy}: warm store re-trained {warm['num_trained']} candidates "
                f"(the shared-cache regression is back)"
            )
            assert warm["anytime_curve"] == cold["anytime_curve"], (
                f"{strategy}: warm replay diverged from the cold trajectory"
            )
            cold["warm_wall_seconds"] = warm["wall_seconds"]
            rows.append(
                {
                    "strategy": strategy,
                    "best_mrr": cold["best_mrr"],
                    "evaluations": cold["num_evaluations"],
                    "trained": cold["num_trained"],
                    "cold_s": cold["wall_seconds"],
                    "warm_s": warm["wall_seconds"],
                }
            )
            curves[strategy] = cold["anytime_curve"]
            payload["strategies"][strategy] = cold

    distributed = distributed_parity(graph, training_config, budget, scale)
    payload["distributed"] = distributed
    asha = asha_speedup(graph, quick, scale)
    payload["asha"] = asha

    table = format_table(
        rows,
        title=f"Search strategies on {graph.name} (budget {budget}, shared protocol; "
        f"warm pass replays the store, 0 retrained)",
    )
    series = format_series(
        curves, title="Any-time best validation MRR vs. #models trained", index_label="model#"
    )
    extras = format_table(
        [
            {
                "check": "queue backend (3 workers, 1 killed)",
                "result": f"bit-identical to serial, best {distributed['best_mrr']:.4f}",
                "wall_s": f"{distributed['queue_wall_seconds']:.1f}",
            },
            {
                "check": f"ASHA ladder {asha['ladder']} vs full fidelity",
                "result": (
                    f"best {asha['asha_best_mrr']:.4f} >= {asha['base_best_mrr']:.4f} "
                    f"at {asha['compute_ratio']:.1f}x less compute "
                    f"({asha['asha_training_epochs']} vs "
                    f"{asha['base_training_epochs']} epochs)"
                ),
                "wall_s": f"{asha['asha_wall_seconds']:.1f}",
            },
        ],
        title="Distributed + ASHA checks (asserted, not just reported)",
    )
    return table + "\n\n" + series + "\n\n" + extras, payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized run: smaller graph, shorter training, smaller budget",
    )
    args = parser.parse_args(argv)
    text, data = build_report(quick=args.quick)
    publish("search_strategies", text)
    to_json_file(data, RESULTS_DIR / "search_strategies.json")
    metrics = {
        strategy: {
            "best_mrr": outcome["best_mrr"],
            "cold_wall_seconds": outcome["wall_seconds"],
            "warm_wall_seconds": outcome["warm_wall_seconds"],
        }
        for strategy, outcome in data["strategies"].items()
    }
    metrics["distributed"] = data["distributed"]
    metrics["asha"] = data["asha"]
    write_bench_summary(
        "search",
        config={"quick": args.quick, "budget": data["budget"]},
        metrics=metrics,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
