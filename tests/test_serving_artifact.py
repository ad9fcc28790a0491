"""Tests for the versioned serving artifact (export / load round-trips)."""

import mmap
from pathlib import Path

import numpy as np
import pytest

from repro.kge import KGEModel, train_model
from repro.kge.scoring import BlockScoringFunction
from repro.core.search_space import random_structure
from repro.serving import (
    ARTIFACT_SCHEMA_VERSION,
    ArtifactError,
    export_artifact,
    load_artifact,
)
from repro.serving.artifact import PARAMS_DIRNAME, _read_npy_private, scoring_function_metadata
from repro.utils.config import TrainingConfig
from repro.utils.serialization import from_json_file, to_json_file

#: One representative per scoring family (block, full-matrix, translational,
#: rotational, neural), plus a searched block structure below.
FAMILIES = ["complex", "rescal", "transe", "rotate", "mlp"]


@pytest.fixture(scope="module")
def family_models(tiny_graph):
    config = TrainingConfig(dimension=8, epochs=2, batch_size=64, learning_rate=0.5, seed=0)
    models = {name: train_model(tiny_graph, name, config) for name in FAMILIES}
    models["searched"] = train_model(
        tiny_graph, random_structure(6, rng=0, require_c2=True), config
    )
    return models


class TestRoundTrip:
    @pytest.mark.parametrize("name", FAMILIES + ["searched"])
    def test_scores_survive_export_and_load(self, name, family_models, tiny_graph, tmp_path):
        model = family_models[name]
        path = export_artifact(model, tmp_path / name, graph=tiny_graph)
        artifact = load_artifact(path)
        triples = tiny_graph.test[:5]
        np.testing.assert_array_equal(
            artifact.to_model().score(triples), model.score(triples)
        )
        assert artifact.num_entities == tiny_graph.num_entities
        assert artifact.num_relations == tiny_graph.num_relations
        assert artifact.schema_version == ARTIFACT_SCHEMA_VERSION

    def test_block_structure_survives(self, family_models, tiny_graph, tmp_path):
        model = family_models["searched"]
        artifact = load_artifact(export_artifact(model, tmp_path / "blocks"))
        assert isinstance(artifact.scoring_function, BlockScoringFunction)
        assert artifact.scoring_function.structure.key() == model.scoring_function.structure.key()

    def test_metrics_embedded(self, family_models, tmp_path):
        model = family_models["complex"]
        path = export_artifact(model, tmp_path / "metrics", metrics={"test_mrr": 0.25})
        assert load_artifact(path).metrics == {"test_mrr": 0.25}

    def test_vocabulary_round_trip(self, family_models, tiny_graph, tmp_path):
        artifact = load_artifact(
            export_artifact(family_models["complex"], tmp_path / "vocab", graph=tiny_graph)
        )
        # The synthetic benchmarks label relations but not entities.
        assert artifact.relation_names == tiny_graph.relation_names
        assert artifact.entity_names is None
        label = tiny_graph.relation_names[0]
        assert artifact.relation_id(label) == 0
        assert artifact.relation_label(0) == label
        assert artifact.entity_id("7") == 7
        assert artifact.entity_label(7) == "e7"

    def test_vocab_reused_from_model_directory(self, family_models, tiny_graph, tmp_path):
        model = family_models["complex"]
        model_dir = export_artifact(model, tmp_path / "saved", graph=tiny_graph)
        artifact = load_artifact(
            export_artifact(model, tmp_path / "from_saved", model_directory=model_dir)
        )
        assert artifact.relation_names == tiny_graph.relation_names


class TestSchemaV2Layout:
    """Raw per-array .npy layout (v2, unchanged in v3), mmap-loadable."""

    @pytest.fixture()
    def artifact_dir(self, family_models, tiny_graph, tmp_path):
        return export_artifact(family_models["complex"], tmp_path / "v2", graph=tiny_graph)

    def test_raw_npy_layout_on_disk(self, artifact_dir):
        manifest = from_json_file(artifact_dir / "manifest.json")
        assert manifest["schema_version"] == ARTIFACT_SCHEMA_VERSION == 3
        assert set(manifest["params"]) >= {"entities", "relations"}
        for relative in manifest["params"].values():
            assert (artifact_dir / relative).exists()
            assert relative.startswith(f"{PARAMS_DIRNAME}/")
        assert not list(artifact_dir.rglob("*.npz"))

    def test_mmap_load_returns_readonly_memmap_views(self, family_models, artifact_dir):
        artifact = load_artifact(artifact_dir, mmap=True)
        assert artifact.params_memmap
        for key, array in artifact.params.items():
            assert isinstance(array, np.memmap), key
            assert not array.flags.writeable, key
            with pytest.raises(ValueError):
                array[...] = 0.0
        np.testing.assert_array_equal(
            artifact.params["entities"], family_models["complex"].params["entities"]
        )
        assert artifact.params_nbytes() > 0
        assert artifact.describe()["params_memmap"] is True

    def test_in_memory_load_is_readonly_but_not_memmap(self, artifact_dir):
        artifact = load_artifact(artifact_dir, mmap=False)
        assert not artifact.params_memmap
        assert not isinstance(artifact.params["entities"], np.memmap)
        assert not artifact.params["entities"].flags.writeable
        # Each table owns an anonymous mapping, freed to the OS with the array.
        assert isinstance(artifact.params["entities"].base, mmap.mmap)

    @pytest.mark.parametrize(
        "array",
        [
            np.arange(12, dtype=np.float64).reshape(3, 4),
            np.asfortranarray(np.arange(12, dtype=np.float32).reshape(3, 4)),
            np.arange(24, dtype=np.int64).reshape(2, 3, 4),
            np.zeros((0, 5)),
            np.float64(2.5),
        ],
        ids=["c-order", "fortran-order", "3d-int", "empty", "scalar"],
    )
    @pytest.mark.parametrize("version", [(1, 0), (2, 0)])
    def test_private_reader_equals_np_load(self, tmp_path, array, version):
        path = tmp_path / "array.npy"
        with open(path, "wb") as handle:
            np.lib.format.write_array(handle, np.asanyarray(array), version=version)
        expected = np.load(path)
        got = _read_npy_private(path)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.flags.f_contiguous == expected.flags.f_contiguous
        np.testing.assert_array_equal(got, expected)

    def test_truncated_param_file_rejected(self, artifact_dir):
        path = artifact_dir / PARAMS_DIRNAME / "entities.npy"
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ArtifactError, match="not a valid .npy file"):
            load_artifact(artifact_dir)

    def test_mmap_and_memory_scores_bit_identical(self, artifact_dir, tiny_graph):
        mapped = load_artifact(artifact_dir, mmap=True)
        memory = load_artifact(artifact_dir)
        triples = tiny_graph.test[:10]
        np.testing.assert_array_equal(
            mapped.to_model().score(triples), memory.to_model().score(triples)
        )

    def test_missing_param_file_named(self, artifact_dir):
        (artifact_dir / PARAMS_DIRNAME / "entities.npy").unlink()
        with pytest.raises(ArtifactError, match="params/entities.npy"):
            load_artifact(artifact_dir)

    def test_manifest_without_params_map_rejected(self, artifact_dir):
        manifest = from_json_file(artifact_dir / "manifest.json")
        del manifest["params"]
        to_json_file(manifest, artifact_dir / "manifest.json")
        with pytest.raises(ArtifactError, match="params"):
            load_artifact(artifact_dir)


class TestValidation:
    @pytest.fixture()
    def artifact_dir(self, family_models, tiny_graph, tmp_path):
        return export_artifact(family_models["complex"], tmp_path / "artifact", graph=tiny_graph)

    def test_untrained_model_rejected(self, tmp_path):
        from repro.kge.scoring import get_scoring_function

        model = KGEModel(get_scoring_function("complex"), TrainingConfig(dimension=8, epochs=1))
        with pytest.raises(ArtifactError, match="untrained"):
            export_artifact(model, tmp_path / "nothing")

    def test_graph_mismatch_rejected(self, family_models, micro_graph, tmp_path):
        with pytest.raises(ArtifactError, match="does not match"):
            export_artifact(family_models["complex"], tmp_path / "bad", graph=micro_graph)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ArtifactError, match="does not exist"):
            load_artifact(tmp_path / "nowhere")

    def test_missing_params(self, artifact_dir):
        (artifact_dir / PARAMS_DIRNAME / "relations.npy").unlink()
        with pytest.raises(ArtifactError, match="params/relations.npy"):
            load_artifact(artifact_dir)

    def test_missing_manifest(self, artifact_dir):
        (artifact_dir / "manifest.json").unlink()
        with pytest.raises(ArtifactError, match="manifest.json"):
            load_artifact(artifact_dir)

    def test_corrupt_manifest(self, artifact_dir):
        (artifact_dir / "manifest.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(ArtifactError, match="not valid JSON"):
            load_artifact(artifact_dir)

    def test_missing_manifest_keys(self, artifact_dir):
        manifest = from_json_file(artifact_dir / "manifest.json")
        del manifest["num_entities"]
        to_json_file(manifest, artifact_dir / "manifest.json")
        with pytest.raises(ArtifactError, match="num_entities"):
            load_artifact(artifact_dir)

    def test_schema_version_mismatch(self, artifact_dir):
        manifest = from_json_file(artifact_dir / "manifest.json")
        manifest["schema_version"] = ARTIFACT_SCHEMA_VERSION + 1
        to_json_file(manifest, artifact_dir / "manifest.json")
        with pytest.raises(ArtifactError, match="schema version"):
            load_artifact(artifact_dir)

    @pytest.mark.parametrize("form", ["absolute", "parent"])
    def test_param_path_outside_artifact_rejected(self, artifact_dir, tmp_path, form):
        # A valid array, so only the path check can stop the load.
        outside = tmp_path / "outside.npy"
        np.save(outside, np.load(artifact_dir / PARAMS_DIRNAME / "entities.npy"))
        manifest = from_json_file(artifact_dir / "manifest.json")
        manifest["params"]["entities"] = (
            str(outside) if form == "absolute" else f"../{outside.name}"
        )
        to_json_file(manifest, artifact_dir / "manifest.json")
        with pytest.raises(ArtifactError, match="expected 'params/<key>.npy'"):
            load_artifact(artifact_dir)

    def test_count_mismatch(self, artifact_dir):
        manifest = from_json_file(artifact_dir / "manifest.json")
        manifest["num_entities"] += 1
        to_json_file(manifest, artifact_dir / "manifest.json")
        with pytest.raises(ArtifactError, match="declares"):
            load_artifact(artifact_dir)

    def test_vocab_length_mismatch(self, artifact_dir):
        to_json_file(
            {"entity_names": ["only", "two"], "relation_names": None},
            artifact_dir / "vocab.json",
        )
        with pytest.raises(ArtifactError, match="entity_names"):
            load_artifact(artifact_dir)

    def test_unknown_symbol_resolution(self, artifact_dir):
        artifact = load_artifact(artifact_dir)
        with pytest.raises(KeyError, match="unknown relation"):
            artifact.relation_id("no_such_relation")
        with pytest.raises(KeyError, match="out of range"):
            artifact.entity_id(10**6)


def read_migrate_recipe():
    """The migrate recipe's code block, exactly as TESTING.md documents it."""
    text = (Path(__file__).resolve().parents[1] / "TESTING.md").read_text(encoding="utf-8")
    block = text.split("<!-- migrate-recipe -->", 1)[1]
    return block.split("```python\n", 1)[1].split("```", 1)[0]


class TestMigrateRecipe:
    """TESTING.md's one recipe migrates both legacy ``params.npz`` layouts."""

    @staticmethod
    def write_legacy(directory, model, layout, graph):
        directory.mkdir(parents=True)
        metadata = scoring_function_metadata(model.scoring_function)
        metadata.update(
            config=model.config.to_dict(),
            num_entities=int(model.params["entities"].shape[0]),
            num_relations=int(model.params["relations"].shape[0]),
        )
        if layout == "model_dir":  # train --save / best/ before the artifact format
            to_json_file(metadata, directory / "model.json")
            to_json_file({"entity_names": None, "relation_names": list(graph.relation_names)},
                         directory / "vocab.json")
        else:  # schema-v1 artifact
            metadata.update(schema_version=1, metrics={"test_mrr": 0.5})
            to_json_file(metadata, directory / "manifest.json")
        np.savez(directory / "params.npz", **model.params)
        return directory

    @pytest.mark.parametrize("layout", ["model_dir", "artifact_v1"])
    @pytest.mark.parametrize("name", ["complex", "searched"])
    def test_migrated_scores_bit_identical(self, family_models, tiny_graph, tmp_path, layout, name):
        model = family_models[name]
        legacy = self.write_legacy(tmp_path / "legacy", model, layout, tiny_graph)
        if layout == "artifact_v1":
            # The version check points at the recipe instead of loading.
            with pytest.raises(ArtifactError, match="Migrating legacy model directories"):
                load_artifact(legacy)
        namespace = {"__name__": "migrate_legacy"}
        exec(compile(read_migrate_recipe(), "TESTING.md", "exec"), namespace)
        migrated = load_artifact(namespace["migrate"](legacy, tmp_path / "new"), mmap=True)

        assert migrated.params_memmap
        assert set(migrated.params) == set(model.params)
        for key, array in model.params.items():
            np.testing.assert_array_equal(migrated.params[key], array)
        triples = tiny_graph.test
        np.testing.assert_array_equal(migrated.to_model().score(triples), model.score(triples))
        assert migrated.to_model().config == model.config
        if layout == "model_dir":
            assert migrated.relation_names == tiny_graph.relation_names
        else:
            assert migrated.metrics == {"test_mrr": 0.5}
