"""Tests for the streaming sharded dataset pipeline (repro.datasets.pipeline).

The in-memory loaders are the exact parity oracles throughout: the chunked
TSV ingester must reproduce ``load_tsv_dataset`` bit for bit, the stream
must match ``stream_epoch_reference`` (``tests/stream_oracle.py``), and the shard-aware index /
sampler builders must equal their in-memory constructions.
"""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest
from stream_oracle import stream_epoch_reference

from repro.datasets import (
    DatasetError,
    KnowledgeGraph,
    TripleStore,
    TripleStream,
    UnknownBenchmarkError,
    available_benchmarks,
    build_filter_index,
    entities_by_relation,
    generate_streaming_store,
    ingest_tsv,
    load_benchmark,
    load_tsv_dataset,
    write_tsv_dataset,
)
from repro.datasets.pipeline import MANIFEST_FILENAME, StoreWriter
from repro.experiments import DatasetSpec, ExperimentSpec, StoreSpec
from repro.kge.negative_sampling import BernoulliNegativeSampler
from repro.kge.scoring.registry import get_scoring_function
from repro.kge.trainer import Trainer
from repro.utils.config import ConfigError, TrainingConfig


@pytest.fixture(scope="module")
def graph():
    return load_benchmark("wn18rr", scale=0.4)


@pytest.fixture(scope="module")
def store(graph, tmp_path_factory):
    # A deliberately small shard size so every split spans several shards.
    return graph.to_store(tmp_path_factory.mktemp("store") / "kg", shard_size=300)


class TestStoreRoundTrip:
    def test_graph_round_trip(self, graph, store):
        loaded = KnowledgeGraph.from_store(store.directory)
        assert loaded.num_entities == graph.num_entities
        assert loaded.num_relations == graph.num_relations
        assert loaded.name == graph.name
        for split in ("train", "valid", "test"):
            np.testing.assert_array_equal(loaded.split(split), graph.split(split))
        assert loaded.relation_names == graph.relation_names

    def test_multi_shard_layout(self, graph, store):
        assert store.num_shards("train") == -(-graph.num_train // 300)
        assert store.shard_counts("train")[:-1] == [300] * (store.num_shards("train") - 1)
        assert store.split_count("train") == graph.num_train

    def test_mmap_and_materialized_agree(self, store, graph):
        mapped = TripleStore.open(store.directory, mmap=True)
        plain = TripleStore.open(store.directory, mmap=False)
        np.testing.assert_array_equal(mapped.load_split("train"), plain.load_split("train"))
        assert isinstance(mapped.shard("train", 0), np.memmap)
        assert not isinstance(plain.shard("train", 0), np.memmap)

    def test_summary_counts(self, store, graph):
        summary = store.summary()
        assert summary["train"] == graph.num_train
        assert summary["valid"] == graph.num_valid
        assert summary["entities"] == graph.num_entities

    def test_vocab_hash_stable(self, graph, store, tmp_path):
        again = graph.to_store(tmp_path / "again", shard_size=300)
        assert store.vocab_hash == again.vocab_hash

    def test_graph_does_not_alias_writable_caller_arrays(self):
        """The frozen graph must survive the caller mutating its input."""
        triples = np.asarray([[0, 0, 1], [1, 0, 2], [2, 0, 0]], dtype=np.int64)
        graph = KnowledgeGraph(
            num_entities=3, num_relations=1,
            train=triples, valid=triples[:1].copy(), test=triples[:1].copy(),
        )
        triples[:] = 99
        assert graph.train.max() < 3

    def test_from_store_splits_are_zero_copy_read_only(self, store):
        loaded = KnowledgeGraph.from_store(store.directory)
        assert not loaded.train.flags.writeable


class TestStoreValidation:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetError, match="missing manifest.json"):
            TripleStore.open(tmp_path)

    def test_corrupt_manifest(self, tmp_path):
        (tmp_path / MANIFEST_FILENAME).write_text("{not json", encoding="utf-8")
        with pytest.raises(DatasetError, match="not valid JSON"):
            TripleStore.open(tmp_path)

    def test_future_schema_version(self, graph, tmp_path):
        store = graph.to_store(tmp_path / "kg")
        manifest = json.loads((store.directory / MANIFEST_FILENAME).read_text())
        manifest["store_schema_version"] = 99
        (store.directory / MANIFEST_FILENAME).write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="newer than this release"):
            TripleStore.open(store.directory)

    def test_missing_shard_file(self, graph, tmp_path):
        store = graph.to_store(tmp_path / "kg", shard_size=300)
        (store.directory / store.manifest["splits"]["train"][0]["file"]).unlink()
        with pytest.raises(DatasetError, match="shard .* listed in the manifest is missing"):
            TripleStore.open(store.directory)

    def test_count_mismatch_detected_on_access(self, graph, tmp_path):
        store = graph.to_store(tmp_path / "kg", shard_size=300)
        entry = store.manifest["splits"]["train"][0]
        np.save(store.directory / entry["file"], np.zeros((entry["count"] + 5, 3), dtype=np.int64))
        reopened = TripleStore.open(store.directory)
        with pytest.raises(DatasetError, match="manifest"):
            reopened.shard("train", 0)

    def test_unknown_split(self, store):
        with pytest.raises(DatasetError, match="unknown split"):
            store.split_count("extra")

    def test_corrupt_manifest_split_entries(self, graph, tmp_path):
        store = graph.to_store(tmp_path / "kg")
        manifest = json.loads((store.directory / MANIFEST_FILENAME).read_text())
        manifest["splits"]["train"] = [{"count": 5}]  # no 'file'
        (store.directory / MANIFEST_FILENAME).write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="'file' and 'count'"):
            TripleStore.open(store.directory)
        manifest["splits"] = ["train"]
        (store.directory / MANIFEST_FILENAME).write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="must be an object"):
            TripleStore.open(store.directory)

    def test_overwriting_named_store_with_nameless_drops_stale_vocab(self, graph, tmp_path):
        target = tmp_path / "kg"
        graph.to_store(target)  # writes vocab.json (relation names)
        nameless = KnowledgeGraph(
            num_entities=3,
            num_relations=1,
            train=np.asarray([[0, 0, 1], [1, 0, 2]], dtype=np.int64),
            valid=np.asarray([[0, 0, 2]], dtype=np.int64),
            test=np.asarray([[2, 0, 0]], dtype=np.int64),
        )
        store = nameless.to_store(target)
        reloaded = store.to_graph()  # must not inherit the stale vocab
        assert reloaded.entity_names is None
        assert reloaded.relation_names is None
        assert reloaded.num_entities == 3

    def test_writer_rejects_bad_shapes(self, tmp_path):
        writer = StoreWriter(tmp_path / "kg")
        with pytest.raises(DatasetError, match=r"\(n, 3\)"):
            writer.append("train", np.zeros((4, 2), dtype=np.int64))
        with pytest.raises(DatasetError, match="unknown split"):
            writer.append("extra", np.zeros((4, 3), dtype=np.int64))


class TestIngestParity:
    def test_ingest_matches_in_memory_loader(self, graph, tmp_path):
        tsv = write_tsv_dataset(graph, tmp_path / "tsv")
        store = ingest_tsv(tsv, tmp_path / "store", shard_size=256)
        oracle = load_tsv_dataset(tsv)
        loaded = store.to_graph()
        assert loaded.num_entities == oracle.num_entities
        assert loaded.num_relations == oracle.num_relations
        for split in ("train", "valid", "test"):
            np.testing.assert_array_equal(loaded.split(split), oracle.split(split))
        assert loaded.entity_names == oracle.entity_names
        assert loaded.relation_names == oracle.relation_names

    def test_small_chunk_size_still_exact(self, graph, tmp_path):
        """Chunk boundaries mid-line must not corrupt the parse."""
        tsv = write_tsv_dataset(graph, tmp_path / "tsv")
        store = ingest_tsv(tsv, tmp_path / "store", shard_size=256, chunk_bytes=37)
        oracle = load_tsv_dataset(tsv)
        np.testing.assert_array_equal(store.to_graph().train, oracle.train)

    def test_missing_final_newline(self, tmp_path):
        (tmp_path / "train.txt").write_text("a\tr\tb\nb\tr\tc", encoding="utf-8")
        (tmp_path / "valid.txt").write_text("", encoding="utf-8")
        (tmp_path / "test.txt").write_text("", encoding="utf-8")
        store = ingest_tsv(tmp_path, tmp_path / "store")
        assert store.split_count("train") == 2

    def test_blank_and_whitespace_lines_skipped_like_oracle(self, tmp_path):
        """Whitespace-only lines must not become whitespace vocabulary."""
        content = "a\tr\tb\n\n \t \t \nb\tr\tc\n   \n"
        (tmp_path / "train.txt").write_text(content, encoding="utf-8")
        (tmp_path / "valid.txt").write_text("", encoding="utf-8")
        (tmp_path / "test.txt").write_text("", encoding="utf-8")
        oracle = load_tsv_dataset(tmp_path)
        for chunk_bytes in (7, 4 << 20):  # boundary-sensitive and one-chunk
            store = ingest_tsv(tmp_path, tmp_path / f"store-{chunk_bytes}",
                               chunk_bytes=chunk_bytes)
            loaded = store.to_graph()
            assert loaded.num_entities == oracle.num_entities
            assert loaded.entity_names == oracle.entity_names
            np.testing.assert_array_equal(loaded.train, oracle.train)


class TestIngestAndLoaderErrors:
    def _write(self, tmp_path, train="a\tr\tb\n", valid="", test=""):
        (tmp_path / "train.txt").write_text(train, encoding="utf-8")
        (tmp_path / "valid.txt").write_text(valid, encoding="utf-8")
        (tmp_path / "test.txt").write_text(test, encoding="utf-8")
        return tmp_path

    def test_malformed_line_names_file_and_line(self, tmp_path):
        directory = self._write(tmp_path, train="a\tr\tb\nbad line\n")
        with pytest.raises(DatasetError, match=r"train\.txt:2: expected 3 tab-separated"):
            load_tsv_dataset(directory)
        with pytest.raises(DatasetError, match=r"train\.txt:2: expected 3 tab-separated"):
            ingest_tsv(directory, tmp_path / "store")

    def test_duplicate_triple_names_file_and_line(self, tmp_path):
        directory = self._write(tmp_path, train="a\tr\tb\nb\tr\tc\na\tr\tb\n")
        with pytest.raises(DatasetError, match=r"train\.txt:3: duplicate triple"):
            load_tsv_dataset(directory)
        with pytest.raises(DatasetError, match=r"train\.txt:3: duplicate triple"):
            ingest_tsv(directory, tmp_path / "store")

    def test_duplicates_allowed_when_requested(self, tmp_path):
        directory = self._write(tmp_path, train="a\tr\tb\nb\tr\tc\na\tr\tb\n")
        store = ingest_tsv(directory, tmp_path / "store", check_duplicates=False)
        assert store.split_count("train") == 3
        # The in-memory loader offers the same opt-out, so both paths accept
        # the same inputs (and stay byte-identical on them).
        graph = load_tsv_dataset(directory, check_duplicates=False)
        assert graph.num_train == 3
        np.testing.assert_array_equal(graph.train, store.to_graph().train)

    def test_empty_training_split(self, tmp_path):
        directory = self._write(tmp_path, train="\n")
        with pytest.raises(DatasetError, match="empty"):
            load_tsv_dataset(directory)
        with pytest.raises(DatasetError, match="empty"):
            ingest_tsv(directory, tmp_path / "store")

    def test_unseen_eval_symbol_policy(self, tmp_path):
        directory = self._write(tmp_path, train="a\tr\tb\n", valid="a\tr\tz\n")
        with pytest.raises(DatasetError, match=r"valid\.txt:1: symbol 'z' not present"):
            ingest_tsv(directory, tmp_path / "store", allow_unseen_in_eval=False)
        # The in-memory loader names the file too (and stays a KeyError for
        # historical catch sites).
        with pytest.raises(DatasetError, match=r"symbol 'z' not present .*valid\.txt"):
            load_tsv_dataset(directory, allow_unseen_in_eval=False)
        with pytest.raises(KeyError):
            load_tsv_dataset(directory, allow_unseen_in_eval=False)

    def test_missing_split_file(self, tmp_path):
        (tmp_path / "train.txt").write_text("a\tr\tb\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="does not exist"):
            ingest_tsv(tmp_path, tmp_path / "store")

    def test_unknown_benchmark_lists_available(self):
        with pytest.raises(UnknownBenchmarkError) as excinfo:
            load_benchmark("freebase-full")
        for name in available_benchmarks():
            assert name in str(excinfo.value)
        # Backwards compatible with both historical catch sites.
        assert isinstance(excinfo.value, KeyError)
        assert isinstance(excinfo.value, DatasetError)
        # ...but without KeyError.__str__'s repr-quoting of the message.
        assert not str(excinfo.value).startswith('"')


class TestTripleStream:
    def test_batches_match_reference(self, store):
        stream = TripleStream(store, "train", batch_size=64, seed=11)
        for epoch in (0, 1, 5):
            batches = list(stream.epoch(epoch))
            reference = stream_epoch_reference(
                store.load_split("train"), store.shard_counts("train"), 64, 11, epoch
            )
            assert len(batches) == len(reference)
            for got, expected in zip(batches, reference):
                np.testing.assert_array_equal(got, expected)

    def test_deterministic_and_epochs_differ(self, store):
        first = [b.copy() for b in TripleStream(store, "train", batch_size=64, seed=3).epoch(0)]
        second = [b.copy() for b in TripleStream(store, "train", batch_size=64, seed=3).epoch(0)]
        other = [b.copy() for b in TripleStream(store, "train", batch_size=64, seed=3).epoch(1)]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)
        assert any(not np.array_equal(a, b) for a, b in zip(first, other))

    def test_every_triple_exactly_once(self, store, graph):
        batches = list(TripleStream(store, "train", batch_size=50, seed=0).epoch(0))
        stacked = np.concatenate(batches)
        assert stacked.shape[0] == graph.num_train
        order = np.lexsort(stacked.T[::-1])
        expected = graph.train[np.lexsort(graph.train.T[::-1])]
        np.testing.assert_array_equal(stacked[order], expected)

    def test_num_batches_and_drop_last(self, store):
        count = store.split_count("train")
        stream = TripleStream(store, "train", batch_size=64, seed=0)
        assert stream.num_batches() == -(-count // 64)
        assert len(list(stream.epoch(0))) == stream.num_batches()
        dropped = TripleStream(store, "train", batch_size=64, seed=0, drop_last=True)
        assert dropped.num_batches() == count // 64
        batches = list(dropped.epoch(0))
        assert len(batches) == dropped.num_batches()
        assert all(batch.shape[0] == 64 for batch in batches)

    def test_batch_size_larger_than_split(self, store):
        batches = list(TripleStream(store, "valid", batch_size=10**6, seed=0).epoch(0))
        assert len(batches) == 1
        assert batches[0].shape[0] == store.split_count("valid")

    def test_invalid_batch_size(self, store):
        with pytest.raises(DatasetError, match="batch_size"):
            TripleStream(store, "train", batch_size=0)

    def test_trainer_fit_accepts_stream(self, store):
        graph = store.to_graph()
        config = TrainingConfig(dimension=8, epochs=2, batch_size=128, seed=0)
        trainer = Trainer(get_scoring_function("simple"), config)
        stream = store.stream("train", batch_size=128, seed=0)
        params, history = trainer.fit(graph, stream=stream)
        assert len(history.losses) == 2
        assert np.isfinite(history.losses).all()
        assert history.losses[1] < history.losses[0]

    def test_trainer_fit_streams_without_a_graph(self, store):
        """The stream carries the vocab sizes; no materialized graph needed."""
        config = TrainingConfig(dimension=8, epochs=2, batch_size=128, seed=0)
        trainer = Trainer(get_scoring_function("simple"), config)
        params, history = trainer.fit(None, stream=store.stream("train", seed=0))
        assert params["entities"].shape[0] == store.num_entities
        assert params["relations"].shape[0] == store.num_relations
        assert np.isfinite(history.losses).all()
        with pytest.raises(ValueError, match="graph, a stream, or both"):
            Trainer(get_scoring_function("simple"), config).fit(None)


    @pytest.mark.slow
    def test_streamed_epoch_memory_is_bounded(self, tmp_path):
        """One epoch over a 2M-triple store peaks under a quarter of the split."""
        store = generate_streaming_store(
            tmp_path / "big", num_entities=20_000, num_relations=48, num_triples=2_000_000,
            valid_fraction=0.01, test_fraction=0.01, seed=0,
        )
        split_bytes = store.split_count("train") * 3 * 8
        assert store.split_count("train") >= 1_000_000
        tracemalloc.start()
        try:
            for _batch in TripleStream(store, "train", batch_size=512, seed=1).epoch(0):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * split_bytes, (peak, split_bytes)


class TestShardAwareState:
    def test_filter_index_matches_in_memory(self, store, graph):
        shard_aware = build_filter_index(store)
        in_memory = graph.filter_index()
        for direction in ("tails", "heads"):
            got = getattr(shard_aware, direction)
            expected = getattr(in_memory, direction)
            np.testing.assert_array_equal(got.codes, expected.codes)
            np.testing.assert_array_equal(got.indptr, expected.indptr)
            np.testing.assert_array_equal(got.entities, expected.entities)

    def test_store_filter_index_memoized(self, store):
        assert store.filter_index() is store.filter_index()

    def test_bernoulli_pools_match_in_memory(self, store, graph):
        in_memory = BernoulliNegativeSampler(graph, 4, rng=0)
        shard_aware = BernoulliNegativeSampler.from_store(store, 4, rng=0)
        assert shard_aware.num_entities == in_memory.num_entities
        for relation in range(graph.num_relations):
            np.testing.assert_array_equal(
                shard_aware._entities_by_relation[relation],
                in_memory._entities_by_relation[relation],
            )

    def test_entities_by_relation_full_range_fallback(self, tmp_path):
        graph = KnowledgeGraph(
            num_entities=5,
            num_relations=3,
            train=np.asarray([[0, 0, 1], [1, 0, 2]], dtype=np.int64),
            valid=np.asarray([[2, 1, 3]], dtype=np.int64),
            test=np.asarray([[3, 1, 4]], dtype=np.int64),
        )
        store = graph.to_store(tmp_path / "kg")
        pools = entities_by_relation(store)
        np.testing.assert_array_equal(pools[0], [0, 1, 2])
        np.testing.assert_array_equal(pools[1], np.arange(5))  # no train triples
        np.testing.assert_array_equal(pools[2], np.arange(5))  # no triples at all

    def test_serving_known_positive_index_accepts_store(self, store, graph):
        from repro.serving import known_positive_index

        from_store = known_positive_index(store, splits=("train", "valid"))
        from_graph = known_positive_index(graph, splits=("train", "valid"))
        rows_a, cols_a = from_store.known_tail_pairs(graph.test[:, 0], graph.test[:, 1])
        rows_b, cols_b = from_graph.known_tail_pairs(graph.test[:, 0], graph.test[:, 1])
        np.testing.assert_array_equal(rows_a, rows_b)
        np.testing.assert_array_equal(cols_a, cols_b)


class TestStreamingGenerator:
    def test_counts_ranges_and_determinism(self, tmp_path):
        store = generate_streaming_store(
            tmp_path / "a",
            num_entities=500,
            num_relations=7,
            num_triples=20_000,
            shard_size=4096,
            valid_fraction=0.05,
            test_fraction=0.05,
            seed=9,
        )
        total = sum(store.split_count(split) for split in ("train", "valid", "test"))
        assert total == 20_000
        assert store.num_shards("train") > 1
        for shard in store.iter_shards("train"):
            assert shard[:, [0, 2]].max() < 500 and shard[:, [0, 2]].min() >= 0
            assert shard[:, 1].max() < 7 and shard[:, 1].min() >= 0
        again = generate_streaming_store(
            tmp_path / "b",
            num_entities=500,
            num_relations=7,
            num_triples=20_000,
            shard_size=4096,
            valid_fraction=0.05,
            test_fraction=0.05,
            seed=9,
        )
        np.testing.assert_array_equal(store.load_split("train"), again.load_split("train"))

    def test_invalid_parameters(self, tmp_path):
        with pytest.raises(DatasetError):
            generate_streaming_store(tmp_path / "x", num_entities=1)
        with pytest.raises(DatasetError):
            generate_streaming_store(tmp_path / "x", num_triples=0)
        with pytest.raises(DatasetError):
            generate_streaming_store(tmp_path / "x", valid_fraction=0.6, test_fraction=0.6)


class TestStoreSpecSection:
    def test_spec_round_trip(self, store):
        spec = ExperimentSpec(
            name="store-spec",
            dataset={"store": {"path": str(store.directory), "mmap": False}},
        )
        data = spec.to_dict()
        assert data["dataset"]["store"]["path"] == str(store.directory)
        reloaded = ExperimentSpec.from_dict(data)
        assert isinstance(reloaded.dataset.store, StoreSpec)
        assert reloaded.dataset.store.mmap is False

    def test_spec_load_materializes_store(self, store, graph):
        spec = DatasetSpec(store={"path": str(store.directory)})
        loaded = spec.load()
        np.testing.assert_array_equal(loaded.train, graph.train)

    def test_store_wins_over_benchmark(self, store):
        spec = DatasetSpec(benchmark="wn18", store={"path": str(store.directory)})
        assert spec.load().name == store.name

    def test_tolerant_unknown_store_keys_warn(self, store):
        with pytest.warns(UserWarning, match="ignoring unknown field"):
            section = StoreSpec.from_dict(
                {"path": str(store.directory), "compression": "zstd"}
            )
        assert section.path == str(store.directory)

    def test_invalid_store_section(self):
        with pytest.raises(ConfigError, match="StoreSpec.path"):
            DatasetSpec(store={"path": ""})
        with pytest.raises(ConfigError, match="shard_size"):
            DatasetSpec(store={"path": "somewhere", "shard_size": 0})
        with pytest.raises(ConfigError, match="DatasetSpec.store"):
            DatasetSpec(store=42)

    def test_missing_store_raises_dataset_error(self, tmp_path):
        spec = DatasetSpec(store={"path": str(tmp_path / "nope")})
        with pytest.raises(DatasetError, match="not a triple store"):
            spec.load()


class TestPipelineCli:
    def test_ingest_then_train_store(self, graph, tmp_path, capsys):
        from repro.cli import main

        tsv = write_tsv_dataset(graph.subsample(0.3), tmp_path / "tsv")
        assert main(["ingest", str(tsv), str(tmp_path / "store"), "--shard-size", "256"]) == 0
        output = capsys.readouterr().out
        assert "Sharded triple store" in output
        assert (
            main(
                [
                    "train",
                    "--store",
                    str(tmp_path / "store"),
                    "--dimension",
                    "8",
                    "--epochs",
                    "2",
                    "--model",
                    "simple",
                ]
            )
            == 0
        )
        assert "mrr" in capsys.readouterr().out

    def test_ingest_error_is_a_clean_exit(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "train.txt").write_text("oops\n", encoding="utf-8")
        (tmp_path / "valid.txt").write_text("", encoding="utf-8")
        (tmp_path / "test.txt").write_text("", encoding="utf-8")
        with pytest.raises(SystemExit, match=r"train\.txt:1"):
            main(["ingest", str(tmp_path), str(tmp_path / "store")])

    def test_run_with_store_override(self, store, tmp_path, capsys):
        from repro.cli import main

        spec = ExperimentSpec(
            name="cli-store",
            training={"dimension": 8, "epochs": 2, "batch_size": 128},
            search={"strategy": "random", "budget": 2, "num_blocks": 4},
        )
        spec.save(tmp_path / "spec.json")
        code = main(
            [
                "run",
                str(tmp_path / "spec.json"),
                "--run-dir",
                str(tmp_path / "run"),
                "--store",
                str(store.directory),
            ]
        )
        assert code == 0
        assert store.name in capsys.readouterr().out
