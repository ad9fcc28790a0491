"""The ``serve_live`` writer: ingest, fine-tune, publish and hot-swap in rounds.

Started by ``workloads.py`` next to the server it writes to.  It prints
``ready`` once its store, parameters and filter index are loaded, then reads
``go <start> <end>`` (``time.perf_counter`` seconds, the system-wide
monotonic clock) and runs one round every ``--round-s`` seconds from
``start`` until ``end``:

1. ``TripleStore.apply_delta`` with ``--delta`` new train triples, one of
   them introducing a new entity;
2. ``apply_index_delta`` on the known-positive index;
3. ``finetune_delta`` (logistic loss, 2 epochs) on the delta;
4. ``export_artifact`` of the next generation and ``save_filter_index``
   beside it;
5. ``POST /reload`` of that generation.

Every call is timed in every run; staleness is the time from the delta in
hand to the ``/reload`` answer.  The last stdout line is a JSON summary.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

E2E_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(E2E_DIR.parents[1] / "src"))

import numpy as np  # noqa: E402

import loadgen  # noqa: E402
from spans import Tracer, install  # noqa: E402

FINETUNE = dict(epochs=2, batch_size=128, learning_rate=0.1, l2_penalty=1e-4,
                loss="logistic", negative_samples=8)

#: Entity-id capacity used to pack triples into unique int64 keys.
KEY_ENTITIES = 1 << 20


def triple_keys(triples: np.ndarray, num_relations: int) -> np.ndarray:
    triples = np.asarray(triples, dtype=np.int64)
    return (triples[:, 0] * num_relations + triples[:, 1]) * KEY_ENTITIES + triples[:, 2]


def new_delta(rng: np.random.Generator, known: np.ndarray, num_entities: int,
              num_relations: int, size: int) -> np.ndarray:
    """``size`` triples absent from the store; the last adds entity ``num_entities``."""
    draw = np.stack([
        rng.integers(0, num_entities, size=2 * size),
        rng.integers(0, num_relations, size=2 * size),
        rng.integers(0, num_entities, size=2 * size),
    ], axis=1)
    keys = triple_keys(draw, num_relations)
    _, first = np.unique(keys, return_index=True)
    fresh = np.sort(first[~np.isin(keys[first], known)])[: size - 1]
    if fresh.size < size - 1:
        raise RuntimeError("could not draw enough new triples")
    newcomer = np.array([[num_entities, int(rng.integers(num_relations)), int(rng.integers(num_entities))]])
    return np.concatenate([draw[fresh], newcomer], axis=0).astype(np.int64)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--artifact", required=True, help="generation-0 artifact directory")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round-s", type=float, required=True)
    parser.add_argument("--delta", type=int, required=True)
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.spans_out else None
    if tracer is not None:
        install(tracer)

    from repro.datasets.pipeline import TripleStore
    from repro.kge.model import KGEModel
    from repro.live import apply_index_delta, finetune_delta
    from repro.serving import export_artifact, load_artifact
    from repro.serving.engine import FILTER_INDEX_DIRNAME, known_positive_index, save_filter_index
    from repro.utils.config import TrainingConfig

    store = TripleStore.open(args.store)
    artifact = load_artifact(args.artifact)
    scoring_function = artifact.scoring_function
    params = {key: np.array(value) for key, value in artifact.params.items()}
    dimension = int(params["entities"].shape[1])
    index = known_positive_index(store)
    known = np.sort(np.concatenate([
        triple_keys(store.load_split(split), store.num_relations) for split in ("train", "valid", "test")
    ]))
    generations = Path(args.artifact).parent
    print("ready", flush=True)

    command = sys.stdin.readline().split()
    start, end = float(command[1]), float(command[2])
    rounds: List[Dict[str, object]] = []
    errors: List[str] = []
    published: List[Path] = [Path(args.artifact)]
    number = 0
    while start + number * args.round_s + args.round_s / 2 < end:
        due = start + number * args.round_s
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        rng = np.random.default_rng((args.seed, 7, number))
        delta = new_delta(rng, known, store.num_entities, store.num_relations, args.delta)
        config = TrainingConfig(dimension=dimension, seed=args.seed * 1000 + number, **FINETUNE)

        in_hand = time.perf_counter()
        generation = store.apply_delta(appends=delta)
        applied = time.perf_counter()
        index = apply_index_delta(index, store.num_entities, appends=delta)
        indexed = time.perf_counter()
        params, _history, _report = finetune_delta(
            scoring_function, params, config, delta, num_entities=store.num_entities
        )
        tuned = time.perf_counter()
        directory = generations / f"gen-{generation:05d}"
        export_artifact(KGEModel(scoring_function, config, params=params), directory, generation=generation)
        save_filter_index(index, directory / FILTER_INDEX_DIRNAME)
        exported = time.perf_counter()
        try:
            status, body = loadgen.post_json(args.port, "/reload", {"artifact": str(directory)})
        except OSError as error:
            status, body = 0, {"error": repr(error)}
        reloaded = time.perf_counter()
        ok = status == 200 and body.get("generation") == generation
        if not ok:
            errors.append(f"round {number}: reload answered {status}: {body}")
        rounds.append({
            "round": number,
            "generation": generation,
            "ok": ok,
            "apply_s": applied - in_hand,
            "index_s": indexed - applied,
            "finetune_s": tuned - indexed,
            "export_s": exported - tuned,
            "reload_s": reloaded - exported,
            "staleness_s": reloaded - in_hand,
        })
        known = np.union1d(known, triple_keys(delta, store.num_relations))
        published.append(directory)
        # The server holds its generation in memory; older directories go.
        for stale in published[:-2]:
            shutil.rmtree(stale, ignore_errors=True)
        published = published[-2:]
        number += 1

    if tracer is not None:
        tracer.write_jsonl(Path(args.spans_out))
    print(json.dumps({
        "rounds": rounds,
        "errors": errors,
        "final_generation": rounds[-1]["generation"] if rounds else 0,
        "final_artifact": str(published[-1]),
    }), flush=True)
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
