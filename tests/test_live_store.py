"""Tests for live-store mutation: delta shards, generations, compaction.

The parity oracle throughout is the batch path: a store mutated through
``apply_delta`` and folded back by ``compact_store`` must be bit-identical
to re-ingesting the merged TSV from scratch (shard bytes and vocabulary;
the manifests differ only in the ``generation`` audit counter).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.datasets import (
    DatasetError,
    STORE_SCHEMA_VERSION,
    TripleStore,
    TripleStream,
    build_filter_index,
    ingest_tsv,
    load_benchmark,
)
from repro.datasets.pipeline import MANIFEST_FILENAME
from repro.live import compact_store
from repro.obs.metrics import MetricsRegistry, NullRegistry, get_registry, set_registry


@pytest.fixture(scope="module")
def graph():
    return load_benchmark("wn18rr", scale=0.4)


@pytest.fixture()
def store(graph, tmp_path):
    return graph.to_store(tmp_path / "kg", shard_size=300)


def novel_rows(store, count, seed=0, new_entities=0):
    """``count`` triples absent from every split (ids within the old vocab),
    plus one triple per requested brand-new entity."""
    rng = np.random.default_rng(seed)
    known = {
        tuple(row)
        for split in ("train", "valid", "test")
        for row in store.load_split(split)
    }
    rows = []
    while len(rows) < count:
        h = int(rng.integers(store.num_entities))
        r = int(rng.integers(store.num_relations))
        t = int(rng.integers(store.num_entities))
        if h != t and (h, r, t) not in known:
            known.add((h, r, t))
            rows.append((h, r, t))
    for offset in range(new_entities):
        rows.append(
            (store.num_entities + offset, int(rng.integers(store.num_relations)), 0)
        )
    return np.asarray(rows, dtype=np.int64)


class TestApplyDelta:
    def test_append_merges_and_bumps_generation(self, store):
        assert store.generation == 0
        base = store.load_split("train")
        appended = novel_rows(store, 5)
        assert store.apply_delta(appends=appended) == 1
        assert store.generation == 1
        merged = store.load_split("train")
        np.testing.assert_array_equal(merged[: base.shape[0]], base)
        np.testing.assert_array_equal(merged[base.shape[0] :], appended)
        assert store.split_count("train") == base.shape[0] + 5
        assert store.has_deltas("train") and not store.has_deltas("valid")

    def test_delete_removes_in_place(self, store):
        base = store.load_split("train")
        victim = base[7:8]
        store.apply_delta(deletes=victim)
        merged = store.load_split("train")
        assert merged.shape[0] == base.shape[0] - 1
        np.testing.assert_array_equal(
            merged, np.concatenate([base[:7], base[8:]])
        )

    def test_delete_then_append_same_generation_is_atomic_replace(self, store):
        base = store.load_split("train")
        generation = store.apply_delta(deletes=base[3:4], appends=base[3:4])
        # Delete applies before append within one generation, so replacing
        # a triple with itself is legal — and a no-op in the merged view
        # apart from moving the row to the end.
        merged = store.load_split("train")
        assert generation == 1
        assert merged.shape[0] == base.shape[0]
        np.testing.assert_array_equal(merged[-1], base[3])

    def test_generations_accumulate(self, store):
        first = novel_rows(store, 3, seed=1)
        second = novel_rows(store, 3, seed=2)
        store.apply_delta(appends=first)
        store.apply_delta(appends=second)
        assert store.generation == 2
        assert len(store.delta_entries("train")) == 2
        summary = store.summary()
        assert summary["generation"] == 2
        assert summary["pending_deltas"] == 2

    def test_new_entities_grow_nameless_vocab(self, store):
        before = store.num_entities
        store.apply_delta(appends=novel_rows(store, 1, new_entities=2))
        assert store.num_entities == before + 2

    def test_delete_missing_triple_is_descriptive(self, store):
        bogus = novel_rows(store, 1, seed=9)
        with pytest.raises(DatasetError, match="not present in the current generation"):
            store.apply_delta(deletes=bogus)

    def test_duplicate_append_is_descriptive(self, store):
        present = store.load_split("train")[:1]
        with pytest.raises(DatasetError, match="already present"):
            store.apply_delta(appends=present)

    def test_names_on_nameless_store_rejected(self, store):
        with pytest.raises(DatasetError, match="no entity_names"):
            store.apply_delta(
                appends=novel_rows(store, 0, new_entities=1),
                new_entity_names=["brand-new"],
            )

    def test_empty_delta_rejected(self, store):
        with pytest.raises(DatasetError, match="empty"):
            store.apply_delta()

    def test_stream_refuses_pending_deltas(self, store):
        store.apply_delta(appends=novel_rows(store, 2))
        with pytest.raises(DatasetError, match="compact first"):
            TripleStream(store, batch_size=32)

    def test_filter_index_covers_merged_view(self, store):
        appended = novel_rows(store, 4, new_entities=1)
        store.apply_delta(appends=appended)
        index = build_filter_index(store)
        merged = np.concatenate(
            [store.load_split(split) for split in ("train", "valid", "test")]
        )
        from repro.datasets.knowledge_graph import FilterIndex

        oracle = FilterIndex.build(merged, store.num_relations)
        for direction in ("tails", "heads"):
            got, want = getattr(index, direction), getattr(oracle, direction)
            np.testing.assert_array_equal(got.codes, want.codes)
            np.testing.assert_array_equal(got.indptr, want.indptr)
            np.testing.assert_array_equal(got.entities, want.entities)


class TestManifestCompat:
    def test_v1_manifest_rejected_with_the_fix_named(self, graph, tmp_path):
        store = graph.to_store(tmp_path / "kg")
        manifest_path = store.directory / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        # A pre-live manifest has neither key.
        manifest.pop("generation")
        manifest.pop("deltas")
        manifest["store_schema_version"] = 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="re-ingest") as excinfo:
            TripleStore.open(store.directory)
        assert '"generation": 0, "deltas": []' in str(excinfo.value)

    def test_v2_manifest_without_live_keys_rejected(self, graph, tmp_path):
        store = graph.to_store(tmp_path / "kg")
        manifest_path = store.directory / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest.pop("deltas")
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="missing 'deltas'"):
            TripleStore.open(store.directory)

    def test_future_schema_version_still_descriptive(self, graph, tmp_path):
        store = graph.to_store(tmp_path / "kg")
        manifest_path = store.directory / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest["store_schema_version"] = STORE_SCHEMA_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="newer than this release"):
            TripleStore.open(store.directory)

    def test_invalid_generation_rejected(self, graph, tmp_path):
        store = graph.to_store(tmp_path / "kg")
        manifest_path = store.directory / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest["generation"] = -3
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="generation"):
            TripleStore.open(store.directory)

    def test_missing_delta_shard_detected(self, store):
        store.apply_delta(appends=novel_rows(store, 2))
        entry = store.delta_entries("train")[0]
        (store.directory / entry["file"]).unlink()
        with pytest.raises(DatasetError, match="delta shard .* missing"):
            TripleStore.open(store.directory)


NAMED_TSV_ROWS = {
    "train": [
        ("a", "r0", "b"), ("b", "r0", "c"), ("c", "r1", "a"), ("d", "r0", "a"),
        ("a", "r1", "d"), ("b", "r1", "d"), ("c", "r0", "d"), ("d", "r1", "b"),
    ],
    "valid": [("a", "r0", "c"), ("b", "r0", "d")],
    "test": [("c", "r0", "a"), ("d", "r0", "c")],
}


def write_named_tsv(directory, rows):
    directory.mkdir(parents=True, exist_ok=True)
    for split, triples in rows.items():
        (directory / f"{split}.txt").write_text(
            "".join(f"{h}\t{r}\t{t}\n" for h, r, t in triples), encoding="utf-8"
        )
    return directory


class TestCompactionParity:
    """compact_store == re-ingesting the merged TSV, bit for bit.

    Oracle condition: deletions never remove a symbol's first appearance
    and appends introduce new symbols in first-appearance order — then the
    merged row order equals the merged TSV's row order, so shard bytes and
    vocabulary come out identical.
    """

    def mutate(self, store):
        # Delete train row 6 ("c r0 d"): every symbol appears earlier, so
        # the vocabulary's first-appearance order is untouched.
        deletes = np.asarray([[2, 0, 3]], dtype=np.int64)
        # Append two triples, one introducing the new entity "e" (id 4).
        appends = np.asarray([[0, 0, 3], [4, 1, 0]], dtype=np.int64)
        store.apply_delta(
            deletes=deletes, appends=appends, new_entity_names=["e"]
        )
        return deletes, appends

    def merged_tsv_rows(self):
        rows = {split: list(triples) for split, triples in NAMED_TSV_ROWS.items()}
        rows["train"].remove(("c", "r0", "d"))
        rows["train"].extend([("a", "r0", "d"), ("e", "r1", "a")])
        return rows

    def test_named_store_requires_exact_new_names(self, tmp_path):
        store = ingest_tsv(write_named_tsv(tmp_path / "tsv", NAMED_TSV_ROWS), tmp_path / "kg")
        with pytest.raises(DatasetError, match="new entity"):
            store.apply_delta(appends=np.asarray([[4, 0, 0]], dtype=np.int64))
        with pytest.raises(DatasetError, match="already present"):
            store.apply_delta(
                appends=np.asarray([[4, 0, 0]], dtype=np.int64),
                new_entity_names=["a"],
            )

    def test_compaction_bit_identical_to_reingest(self, tmp_path):
        store = ingest_tsv(write_named_tsv(tmp_path / "tsv", NAMED_TSV_ROWS), tmp_path / "kg")
        self.mutate(store)
        compacted = compact_store(store, output_dir=tmp_path / "compacted")

        reingested = ingest_tsv(
            write_named_tsv(tmp_path / "merged_tsv", self.merged_tsv_rows()),
            tmp_path / "reingested",
        )

        assert compacted.manifest["vocab_hash"] == reingested.manifest["vocab_hash"]
        assert (compacted.directory / "vocab.json").read_bytes() == (
            reingested.directory / "vocab.json"
        ).read_bytes()
        for split in ("train", "valid", "test"):
            got = compacted.manifest["splits"][split]
            want = reingested.manifest["splits"][split]
            assert [entry["file"] for entry in got] == [e["file"] for e in want]
            for entry in got:
                assert (compacted.directory / entry["file"]).read_bytes() == (
                    reingested.directory / entry["file"]
                ).read_bytes()
        # The one intended difference: compaction keeps the audit counter.
        assert compacted.generation == 1
        assert reingested.generation == 0

    def test_in_place_compaction_refreshes_the_handle(self, store):
        before = store.load_split("train")
        appended = novel_rows(store, 3)
        store.apply_delta(appends=appended)
        compacted = compact_store(store)
        assert compacted.directory == store.directory
        assert not store.has_deltas()
        assert store.generation == 1
        merged = store.load_split("train")
        np.testing.assert_array_equal(
            merged, np.concatenate([before, appended])
        )
        # The stream guard lifts once deltas are folded in.
        TripleStream(store, batch_size=32)

    def test_no_op_without_deltas(self, store):
        assert compact_store(store) is store

    def test_null_registry_parity(self, graph, tmp_path):
        """Telemetry on vs off must not change a single byte on disk."""
        outputs = []
        previous = get_registry()
        try:
            for index, registry in enumerate((MetricsRegistry(), NullRegistry())):
                set_registry(registry)
                store = graph.to_store(tmp_path / f"kg{index}", shard_size=300)
                store.apply_delta(appends=novel_rows(store, 4, seed=11))
                compacted = compact_store(store)
                outputs.append(
                    b"".join(
                        (compacted.directory / entry["file"]).read_bytes()
                        for split in ("train", "valid", "test")
                        for entry in compacted.manifest["splits"][split]
                    )
                )
        finally:
            set_registry(previous)
        assert outputs[0] == outputs[1]
