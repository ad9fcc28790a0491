"""Training-throughput benchmark: the training engine per loss vs the reference oracle.

Measures the per-candidate training hot path (Alg. 1) that dominates every
greedy-search run.  The loss picks the engine's kernel, so every section is
one loss kind timed against :class:`repro.kge.engine.ReferenceTrainEngine`
(passed explicitly through ``Trainer(engine=...)``):

* **multi-class throughput**: wall-clock of ``Trainer.fit`` under the
  reference loop vs the engine, unchunked and entity-chunked, on the largest
  built-in miniature benchmark for a 2-block classical structure and a
  6-block search-space structure (gated speedup);
* **pairwise throughput**: the touched-rows kernel vs the reference loop
  under a sampled logistic loss on a large-vocabulary synthetic graph — the
  regime where the reference pays O(vocabulary) scoring per batch — as a
  triples/sec-vs-embedding-dimension curve (gated speedup);
* **pairwise on the miniature**: the same comparison on yago310-mini at
  batch 64 and 512, reported but not gated (at 600 entities the reference's
  single GEMM is as cheap as gathering the touched rows);
* **parity**: final parameters must agree with the reference at
  ``atol=1e-10`` (measured, not assumed — the run fails otherwise): the
  multi-class kernel unchunked and chunked, and the pairwise kernel with
  ``l2_penalty > 0`` under Adagrad and Adam;
* **peak memory**: ``tracemalloc`` peak of one training run with and without
  ``score_chunk_size``, demonstrating that chunked scoring bounds the
  transient score matrices.

Runs standalone (CI calls it with ``--quick`` and uploads the JSON timings
as an artifact)::

    PYTHONPATH=src python benchmarks/bench_training_throughput.py --quick

Results are printed as a table and written to
``benchmarks/results/training_throughput.json``; the headline numbers also
land in ``BENCH_training.json`` at the repo root (see ``run_all.py``) so
regressions are visible per revision.
"""

from __future__ import annotations

import argparse
import time
import tracemalloc

import numpy as np

from _helpers import bench_training_config, publish, write_bench_summary, RESULTS_DIR

from repro.analysis import format_table
from repro.datasets import load_benchmark
from repro.datasets.knowledge_graph import KnowledgeGraph
from repro.kge.engine import ReferenceTrainEngine
from repro.kge.scoring.bilinear import BlockScoringFunction
from repro.kge.scoring.blocks import BlockStructure, classical_structure
from repro.kge.trainer import Trainer
from repro.utils.serialization import to_json_file

#: The largest built-in miniature benchmark.
LARGEST_BENCHMARK = "yago310"

#: A representative 6-block structure (the search trains mostly 4-6 block SFs).
SIX_BLOCK_STRUCTURE = BlockStructure(
    [(0, 0, 0, 1), (1, 1, 1, 1), (2, 3, 2, 1), (3, 2, 2, -1), (0, 1, 3, 1), (1, 0, 3, -1)],
    name="six-blocks",
)

#: Entity-chunk size used for the chunked measurements.
CHUNK_SIZE = 128

#: Vocabulary size of the synthetic large-vocab graph for the pairwise
#: section (quick mode shrinks it — the reference loop scales with this).
PAIRWISE_VOCAB = {"quick": 6000, "full": 20000}
PAIRWISE_TRIPLES = {"quick": 2000, "full": 6000}

#: Embedding dimensions of the triples/sec-vs-dimension curve.
PAIRWISE_DIMENSIONS = {"quick": (16, 32), "full": (16, 32, 64, 128)}

#: Batch sizes of the ungated yago310-mini pairwise point.
MINIATURE_PAIRWISE_BATCHES = (64, 512)

#: Parity tolerance against the reference loop.
PARITY_ATOL = 1e-10


def _fit(graph, structure, config, reference: bool = False):
    engine = ReferenceTrainEngine() if reference else None
    trainer = Trainer(BlockScoringFunction(structure), config, engine=engine)
    return trainer.fit(graph)


def _time_fit(graph, structure, config, reference: bool = False, repeats: int = 3) -> float:
    """Best-of-N wall-clock seconds (best-of to suppress scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _fit(graph, structure, config, reference)
        best = min(best, time.perf_counter() - start)
    return best


def _max_delta(graph, structure, config) -> float:
    """Max |param difference| between the engine and the reference loop."""
    reference_params, _ = _fit(graph, structure, config, reference=True)
    params, _ = _fit(graph, structure, config)
    return max(
        float(np.abs(params[key] - reference_params[key]).max()) for key in reference_params
    )


# ----------------------------------------------------------------------
# Multi-class loss (the paper's setup)
# ----------------------------------------------------------------------
def measure_multiclass(graph, config, repeats: int) -> list:
    rows = []
    chunked_config = config.replace(score_chunk_size=CHUNK_SIZE)
    for label, structure in (
        ("simple (2 blocks)", classical_structure("simple")),
        ("six-blocks (6 blocks)", SIX_BLOCK_STRUCTURE),
    ):
        reference = _time_fit(graph, structure, config, reference=True, repeats=repeats)
        engine = _time_fit(graph, structure, config, repeats=repeats)
        chunked = _time_fit(graph, structure, chunked_config, repeats=repeats)
        rows.append(
            {
                "structure": label,
                "reference_s": reference,
                "engine_s": engine,
                f"chunked_{CHUNK_SIZE}_s": chunked,
                "speedup": reference / engine,
                "chunked_speedup": reference / chunked,
            }
        )
    return rows


def check_multiclass_parity(graph, config) -> float:
    """Worst |param delta| vs the reference, unchunked and chunked."""
    return max(
        _max_delta(graph, SIX_BLOCK_STRUCTURE, config),
        _max_delta(graph, SIX_BLOCK_STRUCTURE, config.replace(score_chunk_size=CHUNK_SIZE)),
    )


def measure_peak_memory(graph, config) -> dict:
    """tracemalloc peaks of one epoch, unchunked vs chunked scoring."""
    peaks = {}
    for label, chunk in (("unchunked", 0), (f"chunk_{CHUNK_SIZE}", CHUNK_SIZE)):
        tracemalloc.start()
        _fit(graph, SIX_BLOCK_STRUCTURE, config.replace(epochs=1, score_chunk_size=chunk))
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peaks[label] = peak
    return peaks


# ----------------------------------------------------------------------
# Pairwise losses: touched rows vs the whole vocabulary
# ----------------------------------------------------------------------
def synthetic_large_vocab_graph(num_entities: int, num_triples: int, seed: int = 0):
    """A uniform-random graph whose vocabulary dwarfs its batch size.

    Link-prediction quality is irrelevant here — only the shapes matter:
    the reference loop scores every query against ``num_entities``
    candidates, the touched-rows kernel against the handful it samples.
    """
    rng = np.random.default_rng(seed)
    num_relations = 20

    def triples(count):
        return np.stack(
            [
                rng.integers(0, num_entities, count),
                rng.integers(0, num_relations, count),
                rng.integers(0, num_entities, count),
            ],
            axis=1,
        ).astype(np.int64)

    return KnowledgeGraph(
        num_entities=num_entities,
        num_relations=num_relations,
        train=triples(num_triples),
        valid=triples(50),
        test=triples(50),
        name=f"synthetic-{num_entities}e",
    )


def pairwise_config(dimension: int, epochs: int, **overrides):
    """Small-batch pairwise-loss training config (the touched-rows regime)."""
    settings = dict(
        dimension=dimension,
        epochs=epochs,
        batch_size=128,
        learning_rate=0.1,
        loss="logistic",
        negative_samples=8,
    )
    settings.update(overrides)
    return bench_training_config(**settings)


def measure_pairwise(graph, epochs: int, dimensions, repeats: int) -> list:
    """triples/sec of the reference loop vs the engine per embedding dimension."""
    structure = classical_structure("simple")
    triples_per_run = epochs * graph.train.shape[0]
    rows = []
    for dimension in dimensions:
        config = pairwise_config(dimension, epochs)
        reference = _time_fit(graph, structure, config, reference=True, repeats=repeats)
        engine = _time_fit(graph, structure, config, repeats=repeats)
        rows.append(
            {
                "dimension": dimension,
                "reference_s": reference,
                "engine_s": engine,
                "reference_triples_per_s": triples_per_run / reference,
                "engine_triples_per_s": triples_per_run / engine,
                "speedup": reference / engine,
            }
        )
    return rows


def measure_miniature_pairwise(graph, repeats: int) -> list:
    """The ungated yago310-mini point: 3 epochs at small and large batches."""
    structure = classical_structure("simple")
    rows = []
    for batch_size in MINIATURE_PAIRWISE_BATCHES:
        config = pairwise_config(32, 3, batch_size=batch_size)
        reference = _time_fit(graph, structure, config, reference=True, repeats=repeats)
        engine = _time_fit(graph, structure, config, repeats=repeats)
        rows.append(
            {
                "batch_size": batch_size,
                "reference_s": reference,
                "engine_s": engine,
                "speedup": reference / engine,
            }
        )
    return rows


def check_pairwise_parity(graph, dimension: int) -> dict:
    """Max |param delta| vs the reference with L2 on, per optimizer."""
    structure = classical_structure("simple")
    return {
        optimizer: _max_delta(
            graph, structure, pairwise_config(dimension, 2, l2_penalty=1e-3, optimizer=optimizer)
        )
        for optimizer in ("adagrad", "adam")
    }


def build_report(quick: bool) -> tuple:
    graph = load_benchmark(LARGEST_BENCHMARK, scale=1.0)
    config = bench_training_config(epochs=3 if quick else 8)
    repeats = 1 if quick else 3
    mode = "quick" if quick else "full"

    multiclass = measure_multiclass(graph, config, repeats)
    multiclass_parity = check_multiclass_parity(graph, config.replace(epochs=2 if quick else 4))
    memory = measure_peak_memory(graph, config)

    pairwise_graph = synthetic_large_vocab_graph(PAIRWISE_VOCAB[mode], PAIRWISE_TRIPLES[mode])
    dimensions = PAIRWISE_DIMENSIONS[mode]
    pairwise_curve = measure_pairwise(pairwise_graph, 1 if quick else 2, dimensions, repeats)
    miniature = measure_miniature_pairwise(graph, repeats)
    # Parity on a smaller instance: the reference loop is the slow part.
    pairwise_parity = check_pairwise_parity(
        synthetic_large_vocab_graph(1500, 600), dimensions[0]
    )

    multiclass_table = format_table(
        multiclass,
        title=f"Multi-class training throughput on {graph.name} "
        f"(E={graph.num_entities}, {graph.train.shape[0]} train triples): "
        f"engine vs reference loop",
    )
    pairwise_table = format_table(
        pairwise_curve,
        title=f"Pairwise-loss throughput on {pairwise_graph.name} "
        f"(E={pairwise_graph.num_entities}, {pairwise_graph.train.shape[0]} train "
        f"triples, batch=128, 8 negatives): engine vs reference loop by dimension",
    )
    miniature_table = format_table(
        miniature,
        title=f"Pairwise-loss training on {graph.name} (E={graph.num_entities}, "
        f"dim 32, 3 epochs; reported, not gated)",
    )
    note = (
        f"max |param delta| multi-class vs reference: {multiclass_parity:.2e} "
        f"(bound: {PARITY_ATOL:.0e})\n"
        + "".join(
            f"max |param delta| pairwise vs reference, l2=1e-3, {optimizer}: "
            f"{delta:.2e} (bound: {PARITY_ATOL:.0e})\n"
            for optimizer, delta in pairwise_parity.items()
        )
        + f"peak traced memory: unchunked {memory['unchunked'] / 1e6:.1f} MB, "
        f"chunk={CHUNK_SIZE} {memory[f'chunk_{CHUNK_SIZE}'] / 1e6:.1f} MB"
    )
    data = {
        "benchmark": graph.name,
        "entities": graph.num_entities,
        "quick": quick,
        "multiclass": {
            "throughput": multiclass,
            "max_param_delta": multiclass_parity,
            "peak_memory_bytes": memory,
        },
        "pairwise": {
            "benchmark": pairwise_graph.name,
            "entities": pairwise_graph.num_entities,
            "train_triples": int(pairwise_graph.train.shape[0]),
            "curve": pairwise_curve,
            "miniature": miniature,
            "max_param_delta": pairwise_parity,
        },
    }
    text = "\n".join([multiclass_table, pairwise_table, miniature_table, note])
    return text, data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: fewer epochs, single repeat (still checks parity)",
    )
    args = parser.parse_args(argv)

    text, data = build_report(quick=args.quick)
    publish("training_throughput", text)
    to_json_file(data, RESULTS_DIR / "training_throughput.json")

    multiclass, pairwise = data["multiclass"], data["pairwise"]
    multiclass_speedup = min(row["speedup"] for row in multiclass["throughput"])
    chunked_speedup = min(row["chunked_speedup"] for row in multiclass["throughput"])
    pairwise_speedup = min(row["speedup"] for row in pairwise["curve"])
    write_bench_summary(
        "training",
        config={
            "quick": args.quick,
            "benchmark": data["benchmark"],
            "entities": data["entities"],
            "pairwise_benchmark": pairwise["benchmark"],
            "pairwise_entities": pairwise["entities"],
            "dimensions": [row["dimension"] for row in pairwise["curve"]],
        },
        metrics={
            "multiclass_speedup_min": multiclass_speedup,
            "multiclass_chunked_speedup_min": chunked_speedup,
            "multiclass_max_param_delta": multiclass["max_param_delta"],
            "peak_memory_bytes": multiclass["peak_memory_bytes"],
            "pairwise_speedup_min": pairwise_speedup,
            "pairwise_triples_per_s": {
                str(row["dimension"]): row["engine_triples_per_s"] for row in pairwise["curve"]
            },
            "reference_pairwise_triples_per_s": {
                str(row["dimension"]): row["reference_triples_per_s"]
                for row in pairwise["curve"]
            },
            "pairwise_max_param_delta": pairwise["max_param_delta"],
            "miniature_pairwise_s": {
                str(row["batch_size"]): {"reference": row["reference_s"], "engine": row["engine_s"]}
                for row in pairwise["miniature"]
            },
        },
    )

    failures = []
    if multiclass["max_param_delta"] > PARITY_ATOL:
        failures.append(
            f"multi-class parity violated ({multiclass['max_param_delta']:.2e} > {PARITY_ATOL:.0e})"
        )
    for optimizer, delta in pairwise["max_param_delta"].items():
        if delta > PARITY_ATOL:
            failures.append(
                f"pairwise parity under {optimizer} violated ({delta:.2e} > {PARITY_ATOL:.0e})"
            )
    # Acceptance: on the largest miniature graph the multi-class kernel is at
    # least 2x the reference loop, chunked or not, and at large vocabulary /
    # small batch the pairwise kernel is too, at every dimension (quick mode
    # tolerates CI-runner noise at 1.5x).
    floor = 1.5 if args.quick else 2.0
    for name, speedup in (
        ("multi-class", multiclass_speedup),
        ("chunked multi-class", chunked_speedup),
        ("pairwise", pairwise_speedup),
    ):
        if speedup < floor:
            failures.append(f"{name} speedup {speedup:.2f}x below the {floor}x floor")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        f"OK: multi-class {multiclass_speedup:.2f}x+ (chunked {chunked_speedup:.2f}x+) and "
        f"pairwise {pairwise_speedup:.2f}x+ over the reference loop, "
        f"parity within {PARITY_ATOL:.0e} (pairwise with L2 under Adagrad and Adam)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
