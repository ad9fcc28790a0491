"""Tests for the batched inference engine: parity, filtering, caching, top-k."""

import threading
import time

import numpy as np
import pytest
from topk_oracle import top_k_reference

from repro.kge import train_model
from repro.kge.topk import (
    mask_known_scores,
    select_predictions,
    select_predictions_batch,
    top_k_indices,
)
from repro.core.search_space import random_structure
from repro.serving import (
    InferenceEngine,
    MicroBatcher,
    export_artifact,
    known_positive_index,
    load_artifact,
)
from repro.utils.config import TrainingConfig

FAMILIES = ["complex", "rescal", "transe", "rotate", "mlp"]


@pytest.fixture(scope="module")
def family_models(tiny_graph):
    config = TrainingConfig(dimension=8, epochs=2, batch_size=64, learning_rate=0.5, seed=0)
    models = {name: train_model(tiny_graph, name, config) for name in FAMILIES}
    models["searched"] = train_model(
        tiny_graph, random_structure(6, rng=0, require_c2=True), config
    )
    return models


def assert_same_predictions(answer, expected, context=""):
    """Same entities in the same order; scores equal to float round-off.

    The engine's fused relation operators sum GEMMs in a different order
    than per-query ``score_candidates``, so scores may differ in the last
    ulp — but the ranking (including tie-breaking) must be identical.
    """
    assert [entity for entity, _ in answer] == [entity for entity, _ in expected], context
    np.testing.assert_allclose(
        [score for _, score in answer],
        [score for _, score in expected],
        rtol=1e-12,
        atol=1e-12,
        err_msg=context,
    )


@pytest.fixture(scope="module")
def query_workload(tiny_graph):
    """Heterogeneous head/tail queries covering every relation."""
    queries = []
    for h, r, t in tiny_graph.test[:20]:
        queries.append(("tail", int(h), int(r)))
        queries.append(("head", int(t), int(r)))
    return queries


class TestTopKHelpers:
    def test_matches_reference_on_random_scores(self, rng):
        for _ in range(50):
            scores = rng.normal(size=40)
            k = int(rng.integers(1, 40))
            np.testing.assert_array_equal(top_k_indices(scores, k), top_k_reference(scores, k))

    def test_matches_reference_with_heavy_ties(self, rng):
        for _ in range(50):
            scores = rng.integers(0, 4, size=30).astype(float)  # many exact ties
            k = int(rng.integers(1, 30))
            np.testing.assert_array_equal(top_k_indices(scores, k), top_k_reference(scores, k))

    def test_ties_break_by_lower_index(self):
        scores = np.array([1.0, 3.0, 3.0, 2.0, 3.0])
        np.testing.assert_array_equal(top_k_indices(scores, 2), [1, 2])
        np.testing.assert_array_equal(top_k_indices(scores, 4), [1, 2, 4, 3])

    def test_k_larger_than_n(self):
        scores = np.array([1.0, 2.0])
        np.testing.assert_array_equal(top_k_indices(scores, 10), [1, 0])

    def test_k_zero(self):
        assert top_k_indices(np.array([1.0]), 0).size == 0

    def test_batch_selection_matches_scalar(self, rng):
        """The vectorized batch selector must equal the per-row helper —
        including rows with heavy exact ties and -inf masked entries."""
        for _ in range(20):
            scores = rng.integers(0, 5, size=(12, 25)).astype(float)
            scores[rng.random(size=scores.shape) < 0.2] = -np.inf
            k = int(rng.integers(1, 30))
            for row, (indices, values) in enumerate(select_predictions_batch(scores, k)):
                expected_indices, expected_values = select_predictions(scores[row], k)
                np.testing.assert_array_equal(indices, expected_indices)
                np.testing.assert_array_equal(values, expected_values)


class TestEngineOracleParity:
    """The engine must reproduce the naive KGEModel.predict_* path exactly."""

    @pytest.mark.parametrize("name", FAMILIES + ["searched"])
    def test_unfiltered_parity(self, name, family_models, query_workload):
        model = family_models[name]
        engine = InferenceEngine(model.scoring_function, model.params)
        batched = engine.query_batch(query_workload, top_k=10)
        for (direction, entity, relation), answer in zip(query_workload, batched):
            if direction == "tail":
                expected = model.predict_tails(entity, relation, top_k=10)
            else:
                expected = model.predict_heads(relation, entity, top_k=10)
            assert_same_predictions(
                answer, expected, f"{name} {direction} ({entity}, {relation})"
            )

    @pytest.mark.parametrize("name", ["complex", "transe"])
    def test_filtered_parity(self, name, family_models, tiny_graph, query_workload):
        model = family_models[name]
        index = known_positive_index(tiny_graph)
        engine = InferenceEngine(model.scoring_function, model.params, filter_index=index)
        batched = engine.query_batch(query_workload, top_k=10, filtered=True)
        for (direction, entity, relation), answer in zip(query_workload, batched):
            if direction == "tail":
                expected = model.predict_tails(entity, relation, top_k=10, exclude_known=index)
            else:
                expected = model.predict_heads(relation, entity, top_k=10, exclude_known=index)
            assert_same_predictions(answer, expected, f"{name} {direction}")

    def test_tie_breaking_parity(self, family_models, tiny_graph):
        """Duplicated entity rows force exact score ties in both paths."""
        model = family_models["complex"]
        params = {key: value.copy() for key, value in model.params.items()}
        params["entities"][10:20] = params["entities"][0:10]  # exact duplicates
        engine = InferenceEngine(model.scoring_function, params)
        for relation in range(tiny_graph.num_relations):
            answer = engine.query_batch([("tail", 0, relation)], top_k=15)[0]
            scores = model.scoring_function.score_candidates(
                params, np.asarray([[0, relation]]), direction="tail"
            )[0]
            expected = top_k_reference(scores, 15)
            np.testing.assert_array_equal([entity for entity, _ in answer], expected)

    def test_micro_batching_invariant(self, family_models, query_workload):
        model = family_models["searched"]
        small = InferenceEngine(model.scoring_function, model.params, batch_size=3)
        large = InferenceEngine(model.scoring_function, model.params, batch_size=1024)
        for answer, expected in zip(
            small.query_batch(query_workload, top_k=7),
            large.query_batch(query_workload, top_k=7),
        ):
            assert_same_predictions(answer, expected)

    @pytest.mark.parametrize("name", ["transe", "rotate", "complex"])
    def test_entity_chunking_invariant(self, name, family_models, query_workload):
        """Entity-axis chunking (the memory bound for distance-based models)
        must not change any answer."""
        model = family_models[name]
        chunked = InferenceEngine(model.scoring_function, model.params, entity_chunk_size=7)
        full = InferenceEngine(model.scoring_function, model.params)
        for answer, expected in zip(
            chunked.query_batch(query_workload, top_k=7),
            full.query_batch(query_workload, top_k=7),
        ):
            assert_same_predictions(answer, expected)


class TestSingleKernelParity:
    """Served answers come from each family's own training candidate pass.

    The oracle scores each relation's distinct queries with
    ``score_candidates_chunk(params, queries, direction, start, stop)`` —
    the kernel training and evaluation use — then masks and selects with
    the shared helpers.  The engine must reproduce it bit for bit.  A
    GEMM's rounding depends on its shape, so the oracle keeps the engine's
    one pass per relation and its entity chunks (``0:n`` unchunked).
    """

    @staticmethod
    def oracle(scoring_function, params, queries, index, filtered, chunk):
        groups = {}
        for direction, entity, relation in queries:
            entities = groups.setdefault((direction, relation), [])
            if entity not in entities:
                entities.append(entity)
        answers = {}
        num_entities = params["entities"].shape[0]
        for (direction, relation), entities in groups.items():
            pairs = np.array([[entity, relation] for entity in entities], dtype=np.int64)
            scores = np.concatenate(
                [
                    scoring_function.score_candidates_chunk(
                        params, pairs, direction, start, min(start + chunk, num_entities)
                    )
                    for start in range(0, num_entities, chunk)
                ],
                axis=1,
            )
            if filtered:
                mask_known_scores(scores, index, pairs[:, 0], pairs[:, 1], direction)
            for entity, (order, top_scores) in zip(
                entities, select_predictions_batch(scores, 10)
            ):
                answers[(direction, entity, relation)] = list(
                    zip(order.tolist(), top_scores.tolist())
                )
        return [answers[query] for query in queries]

    @pytest.mark.parametrize("entity_chunk_size", [0, 7])
    @pytest.mark.parametrize("name", FAMILIES + ["searched"])
    def test_engine_equals_candidate_pass(
        self, name, entity_chunk_size, family_models, tiny_graph, query_workload
    ):
        model = family_models[name]
        index = known_positive_index(tiny_graph)
        engine = InferenceEngine(
            model.scoring_function,
            model.params,
            filter_index=index,
            entity_chunk_size=entity_chunk_size,
            result_cache_size=0,
        )
        for filtered in (False, True):
            expected = self.oracle(
                model.scoring_function,
                model.params,
                query_workload,
                index,
                filtered,
                chunk=entity_chunk_size or tiny_graph.num_entities,
            )
            answers = engine.query_batch(query_workload, top_k=10, filtered=filtered)
            assert answers == expected, f"{name} filtered={filtered}"


class TestFiltering:
    def test_known_positives_removed(self, family_models, tiny_graph):
        model = family_models["complex"]
        index = known_positive_index(tiny_graph, splits=("train", "valid"))
        engine = InferenceEngine(model.scoring_function, model.params, filter_index=index)
        for h, r, _t in tiny_graph.train[:30]:
            h, r = int(h), int(r)
            answer = engine.query_batch(
                [("tail", h, r)], top_k=tiny_graph.num_entities, filtered=True
            )[0]
            answered = {entity for entity, _ in answer}
            known_tails = {
                int(t)
                for split in ("train", "valid")
                for hh, rr, t in tiny_graph.split(split)
                if int(hh) == h and int(rr) == r
            }
            assert known_tails and not (answered & known_tails)

    def test_filtered_returns_fewer_when_saturated(self, family_models, tiny_graph):
        model = family_models["complex"]
        index = known_positive_index(tiny_graph)
        engine = InferenceEngine(model.scoring_function, model.params, filter_index=index)
        h, r = int(tiny_graph.train[0, 0]), int(tiny_graph.train[0, 1])
        full = engine.query_batch([("tail", h, r)], top_k=tiny_graph.num_entities)[0]
        filtered = engine.query_batch(
            [("tail", h, r)], top_k=tiny_graph.num_entities, filtered=True
        )[0]
        assert len(filtered) < len(full) == tiny_graph.num_entities

    def test_filtered_without_index_raises(self, family_models):
        model = family_models["complex"]
        engine = InferenceEngine(model.scoring_function, model.params)
        with pytest.raises(ValueError, match="filter index"):
            engine.query_batch([("tail", 0, 0)], filtered=True)


class TestCachingAndValidation:
    def test_result_cache_hits(self, family_models):
        model = family_models["complex"]
        engine = InferenceEngine(model.scoring_function, model.params)
        first = engine.query_batch([("tail", 0, 0)], top_k=5)
        assert engine.cache_hits == 0
        second = engine.query_batch([("tail", 0, 0)], top_k=5)
        assert engine.cache_hits == 1
        assert first == second

    def test_distinct_top_k_not_conflated(self, family_models):
        model = family_models["complex"]
        engine = InferenceEngine(model.scoring_function, model.params)
        five = engine.query_batch([("tail", 0, 0)], top_k=5)[0]
        ten = engine.query_batch([("tail", 0, 0)], top_k=10)[0]
        assert len(five) == 5 and len(ten) == 10
        assert ten[:5] == five

    def test_stats_counters(self, family_models):
        model = family_models["complex"]
        engine = InferenceEngine(model.scoring_function, model.params)
        engine.query_batch([("tail", 0, 0), ("head", 1, 0)])
        stats = engine.stats()
        assert stats["queries_served"] == 2
        assert stats["scoring_function"] == model.scoring_function.name
        assert "score" in stats["timings"]
        # No operator cache: one operator is built per (relation, direction)
        # segment, and /stats reports each build as a miss.
        assert stats["operator_cache"] == {"hits": 0, "misses": 2}

    def test_out_of_range_rejected(self, family_models):
        model = family_models["complex"]
        engine = InferenceEngine(model.scoring_function, model.params)
        with pytest.raises(ValueError, match="entity id"):
            engine.query_batch([("tail", 10**6, 0)])
        with pytest.raises(ValueError, match="relation id"):
            engine.query_batch([("tail", 0, 10**6)])
        with pytest.raises(ValueError, match="direction"):
            engine.query_batch([("sideways", 0, 0)])


@pytest.fixture(scope="module")
def memmap_engine_setup(family_models, tiny_graph, tmp_path_factory):
    model = family_models["complex"]
    path = export_artifact(
        model, tmp_path_factory.mktemp("memmap-engine") / "artifact", graph=tiny_graph
    )
    return load_artifact(path, mmap=True), model


class TestSharedMemmapConcurrency:
    """Cache behavior and read integrity under concurrent query_batch calls."""

    def test_concurrent_queries_no_torn_reads(self, memmap_engine_setup, query_workload):
        artifact, model = memmap_engine_setup
        # The result cache must hold every distinct query: a partial cache
        # would regroup the misses into narrower GEMMs on later rounds, and
        # float scores depend on the group width.
        engine = InferenceEngine.from_artifact(artifact, result_cache_size=256)
        reference = InferenceEngine(model.scoring_function, model.params)
        # Deduplicated and partitioned: threads share no query key, so a
        # result-cache hit always replays a score computed under the same
        # batch shape — bit-identical is the memmap-vs-in-memory contract.
        distinct = list(dict.fromkeys(query_workload))
        batches = {offset: distinct[offset::3] for offset in range(3)}
        expected = {
            offset: reference.query_batch(batch, top_k=5)
            for offset, batch in batches.items()
        }
        errors = []

        def worker(offset):
            try:
                for round_index in range(4):
                    answers = engine.query_batch(batches[offset], top_k=5)
                    assert answers == expected[offset], (round_index, offset)
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(offset,)) for offset in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = engine.stats()
        assert stats["params_memmap"] is True
        assert stats["queries_served"] == 4 * len(distinct)

    def test_memmap_params_stay_readonly_through_engine(self, memmap_engine_setup):
        artifact, _ = memmap_engine_setup
        engine = InferenceEngine.from_artifact(artifact)
        engine.query_batch([("tail", 0, 0)], top_k=3)
        with pytest.raises(ValueError):
            engine.params["entities"][0, 0] = 123.0


class _GatedEngine:
    """An engine whose first ``query_batch`` blocks until ``release`` is set.

    Leaders call the engine one at a time, so no lock is needed here.
    """

    def __init__(self, engine, fail_first=False):
        self.engine = engine
        self.fail_first = fail_first
        self.entered = threading.Event()
        self.release = threading.Event()
        self.batch_sizes = []

    def query_batch(self, queries, top_k=10, filtered=False):
        self.batch_sizes.append(len(queries))
        if len(self.batch_sizes) == 1:
            self.entered.set()
            self.release.wait(10)
            if self.fail_first:
                raise RuntimeError("engine down")
        return self.engine.query_batch(queries, top_k=top_k, filtered=filtered)


def _wait_for(condition, timeout=10.0):
    deadline = time.perf_counter() + timeout
    while not condition():
        assert time.perf_counter() < deadline, "condition not reached"
        time.sleep(0.001)


def _ids(answers):
    return [[entity for entity, _ in answer] for answer in answers]


class TestMicroBatcher:
    def test_single_caller_gets_exact_results(self, family_models, query_workload):
        model = family_models["complex"]
        engine = InferenceEngine(model.scoring_function, model.params)
        reference = InferenceEngine(model.scoring_function, model.params)
        batcher = MicroBatcher(engine)
        assert batcher.query_batch(query_workload, top_k=5) == reference.query_batch(
            query_workload, top_k=5
        )

    def test_lone_caller_does_not_wait_out_the_window(self, family_models, query_workload):
        # Whatever ``serve --micro-batch-window`` says, a lone caller leads
        # and flushes at once: no timer, and no waiting for followers.
        model = family_models["complex"]
        batcher = MicroBatcher(InferenceEngine(model.scoring_function, model.params))
        started = time.perf_counter()
        batcher.query_batch(query_workload[:4], top_k=5)
        assert time.perf_counter() - started < 0.25

    def test_concurrent_callers_coalesce(self, family_models, query_workload):
        # Callers queued behind a running engine call form the next batch.
        model = family_models["complex"]
        gated = _GatedEngine(
            InferenceEngine(model.scoring_function, model.params, result_cache_size=0)
        )
        reference = InferenceEngine(model.scoring_function, model.params, result_cache_size=0)
        batcher = MicroBatcher(gated)
        chunks = [query_workload[i::4] for i in range(4)]
        # Bit-exact against the one combined call the queued callers share.
        combined = reference.query_batch([q for chunk in chunks for q in chunk], top_k=5)
        sizes = np.cumsum([0] + [len(chunk) for chunk in chunks])
        expected = [combined[a:b] for a, b in zip(sizes[:-1], sizes[1:])]
        results = [None] * len(chunks)

        def caller(index):
            results[index] = batcher.query_batch(chunks[index], top_k=5)

        blocker = threading.Thread(target=batcher.query_batch, args=(query_workload[:2],))
        blocker.start()
        assert gated.entered.wait(10)
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(chunks))]
        for queued, thread in enumerate(threads, start=1):
            thread.start()  # one at a time, so they queue in chunk order
            _wait_for(lambda: batcher.stats()["calls"] == 1 + queued)
        gated.release.set()
        for thread in [blocker] + threads:
            thread.join(10)
            assert not thread.is_alive()
        assert results == expected
        # The four queued callers were answered by one engine call.
        assert gated.batch_sizes == [2, len(query_workload)]
        stats = batcher.stats()
        assert stats["batches"] == 2
        assert stats["coalesced_calls"] == len(chunks) - 1
        assert stats["largest_batch_calls"] == len(chunks)

    def test_leader_handoff_under_contention(self, family_models, query_workload):
        model = family_models["complex"]
        engine = InferenceEngine(model.scoring_function, model.params, result_cache_size=0)
        reference = InferenceEngine(model.scoring_function, model.params, result_cache_size=0)
        batcher = MicroBatcher(engine)
        chunks = [query_workload[i : i + 3] for i in range(len(query_workload) - 2)]
        expected = [_ids(reference.query_batch(chunk, top_k=5)) for chunk in chunks]
        threads_n, calls_n = 8, 50
        mismatches = []
        barrier = threading.Barrier(threads_n)

        def caller(offset):
            barrier.wait()
            for i in range(calls_n):
                index = (offset * 7 + i) % len(chunks)
                if _ids(batcher.query_batch(chunks[index], top_k=5)) != expected[index]:
                    mismatches.append(index)

        threads = [threading.Thread(target=caller, args=(t,)) for t in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
        assert mismatches == []
        stats = batcher.stats()
        assert stats["calls"] == threads_n * calls_n
        assert stats["batches"] + stats["coalesced_calls"] == stats["calls"]

    def test_failed_flush_hands_off_to_queued_callers(self, family_models, query_workload):
        model = family_models["complex"]
        gated = _GatedEngine(
            InferenceEngine(model.scoring_function, model.params), fail_first=True
        )
        reference = InferenceEngine(model.scoring_function, model.params)
        batcher = MicroBatcher(gated)
        outcome = {}

        def leader():
            try:
                batcher.query_batch(query_workload[:2], top_k=5)
            except RuntimeError as error:
                outcome["leader"] = error

        def follower(index):
            outcome[index] = batcher.query_batch(query_workload[index : index + 2], top_k=5)

        threads = [threading.Thread(target=leader)]
        threads[0].start()
        assert gated.entered.wait(10)
        threads += [threading.Thread(target=follower, args=(i,)) for i in (4, 8)]
        for thread in threads[1:]:
            thread.start()
        _wait_for(lambda: batcher.stats()["calls"] == 3)
        gated.release.set()
        for thread in threads:
            thread.join(10)  # far below the followers' 120 s safety net
            assert not thread.is_alive()
        assert "engine down" in str(outcome["leader"])
        for index in (4, 8):
            assert outcome[index] == reference.query_batch(
                query_workload[index : index + 2], top_k=5
            )
        # The batcher is idle again: a later lone caller leads at once.
        assert batcher.query_batch(query_workload[:2], top_k=5) == reference.query_batch(
            query_workload[:2], top_k=5
        )

    def test_error_isolated_to_offending_caller(self, family_models, query_workload):
        model = family_models["complex"]
        engine = InferenceEngine(model.scoring_function, model.params)
        batcher = MicroBatcher(engine)
        reference = InferenceEngine(model.scoring_function, model.params)
        good_chunk = query_workload[:6]
        expected = reference.query_batch(good_chunk, top_k=5)
        outcome = {}
        barrier = threading.Barrier(2)

        def good():
            barrier.wait()
            outcome["good"] = batcher.query_batch(good_chunk, top_k=5)

        def bad():
            barrier.wait()
            try:
                batcher.query_batch([("tail", 10**6, 0)], top_k=5)
            except ValueError as error:
                outcome["bad"] = error

        threads = [threading.Thread(target=good), threading.Thread(target=bad)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert isinstance(outcome["bad"], ValueError)
        assert "entity id" in str(outcome["bad"])
        assert outcome["good"] == expected  # unharmed by the bad co-batch

    def test_mixed_top_k_grouped_correctly(self, family_models, query_workload):
        model = family_models["complex"]
        engine = InferenceEngine(model.scoring_function, model.params)
        batcher = MicroBatcher(engine)
        results = {}
        barrier = threading.Barrier(2)

        def caller(top_k):
            barrier.wait()
            results[top_k] = batcher.query_batch(query_workload[:4], top_k=top_k)

        threads = [threading.Thread(target=caller, args=(k,)) for k in (3, 9)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(len(answer) == 3 for answer in results[3])
        assert all(len(answer) == 9 for answer in results[9])
        for three, nine in zip(results[3], results[9]):
            assert nine[:3] == three
