"""Tests for the high-level KGEModel wrapper."""

import numpy as np
import pytest

from repro.kge import KGEModel, train_model
from repro.kge.scoring import BlockScoringFunction, DistMult, classical_structure
from repro.core.search_space import random_structure
from repro.serving import ArtifactError, export_artifact, known_positive_index, load_artifact
from repro.utils.config import TrainingConfig
from repro.utils.serialization import from_json_file, to_json_file


@pytest.fixture(scope="module")
def trained_model(tiny_graph):
    config = TrainingConfig(dimension=8, epochs=10, batch_size=64, learning_rate=0.5, seed=0)
    return train_model(tiny_graph, "simple", config)


class TestTrainModel:
    def test_accepts_model_name(self, tiny_graph, fast_training_config):
        model = train_model(tiny_graph, "distmult", fast_training_config)
        assert model.params is not None
        assert model.history is not None

    def test_accepts_instance(self, tiny_graph, fast_training_config):
        model = train_model(tiny_graph, DistMult(), fast_training_config)
        assert model.scoring_function.name == "DistMult"

    def test_accepts_block_structure(self, tiny_graph, fast_training_config):
        structure = random_structure(6, rng=0, require_c2=True)
        model = train_model(tiny_graph, structure, fast_training_config)
        assert isinstance(model.scoring_function, BlockScoringFunction)

    def test_default_config_used_when_missing(self, tiny_graph):
        # Only check that the call path works with a tiny graph; epochs=60
        # default would be slow, so pass a config here but omit validate.
        config = TrainingConfig(dimension=8, epochs=2, batch_size=64)
        model = train_model(tiny_graph, "distmult", config)
        assert model.history.epochs[-1] == 2


class TestPrediction:
    def test_score_shape(self, trained_model, tiny_graph):
        scores = trained_model.score(tiny_graph.test[:5])
        assert scores.shape == (5,)

    def test_predict_tails_returns_sorted_topk(self, trained_model):
        predictions = trained_model.predict_tails(0, 0, top_k=5)
        assert len(predictions) == 5
        scores = [score for _entity, score in predictions]
        assert scores == sorted(scores, reverse=True)

    def test_predict_heads_returns_entities_in_range(self, trained_model, tiny_graph):
        predictions = trained_model.predict_heads(0, 1, top_k=3)
        assert all(0 <= entity < tiny_graph.num_entities for entity, _ in predictions)

    def test_true_tail_ranks_well(self, trained_model, tiny_graph):
        h, r, t = (int(v) for v in tiny_graph.train[0])
        top = [entity for entity, _ in trained_model.predict_tails(h, r, top_k=tiny_graph.num_entities)]
        assert t in top[: max(10, tiny_graph.num_entities // 3)]

    def test_unfitted_model_raises(self):
        model = KGEModel(DistMult(), TrainingConfig(dimension=8, epochs=1))
        with pytest.raises(RuntimeError):
            model.score(np.array([[0, 0, 1]]))

    def test_predict_ties_break_by_lower_entity_index(self, trained_model):
        params = {key: value.copy() for key, value in trained_model.params.items()}
        params["entities"][5] = params["entities"][2]  # force an exact tie
        tied = KGEModel(trained_model.scoring_function, trained_model.config, params=params)
        predictions = tied.predict_tails(0, 0, top_k=params["entities"].shape[0])
        ranks = {entity: rank for rank, (entity, _score) in enumerate(predictions)}
        assert ranks[2] + 1 == ranks[5]

    def test_exclude_known_removes_training_tails(self, trained_model, tiny_graph):
        index = known_positive_index(tiny_graph, splits=("train",))
        h, r = int(tiny_graph.train[0, 0]), int(tiny_graph.train[0, 1])
        known = {
            int(t) for hh, rr, t in tiny_graph.train if int(hh) == h and int(rr) == r
        }
        predictions = trained_model.predict_tails(
            h, r, top_k=tiny_graph.num_entities, exclude_known=index
        )
        answered = {entity for entity, _score in predictions}
        assert known and not (answered & known)
        assert len(predictions) == tiny_graph.num_entities - len(known)

    def test_exclude_known_heads(self, trained_model, tiny_graph):
        index = known_positive_index(tiny_graph, splits=("train",))
        r, t = int(tiny_graph.train[0, 1]), int(tiny_graph.train[0, 2])
        known = {
            int(h) for h, rr, tt in tiny_graph.train if int(rr) == r and int(tt) == t
        }
        predictions = trained_model.predict_heads(
            r, t, top_k=tiny_graph.num_entities, exclude_known=index
        )
        assert known and not ({entity for entity, _ in predictions} & known)


class TestEvaluationAndClassification:
    def test_evaluate_returns_metrics(self, trained_model, tiny_graph):
        result = trained_model.evaluate(tiny_graph, split="valid")
        assert 0 <= result.mrr <= 1

    def test_classify_returns_accuracy(self, trained_model, tiny_graph):
        accuracy = trained_model.classify(tiny_graph)
        assert 0 <= accuracy <= 1

    def test_fit_with_validation_records_mrr(self, tiny_graph):
        config = TrainingConfig(
            dimension=8, epochs=4, batch_size=64, learning_rate=0.5, eval_every=2, seed=0
        )
        model = KGEModel(DistMult(), config)
        history = model.fit(tiny_graph, validate=True)
        assert any(value is not None for value in history.validation_mrr)


class TestSerialization:
    """A model's one on-disk format is the serving artifact (``train --save``)."""

    @staticmethod
    def reload(directory):
        return load_artifact(directory).to_model()

    def test_save_and_load_named_model(self, trained_model, tiny_graph, tmp_path):
        loaded = self.reload(export_artifact(trained_model, tmp_path / "model"))
        original = trained_model.evaluate(tiny_graph, split="valid").mrr
        restored = loaded.evaluate(tiny_graph, split="valid").mrr
        assert restored == pytest.approx(original)

    def test_save_and_load_block_structure_model(self, tiny_graph, fast_training_config, tmp_path):
        structure = classical_structure("analogy")
        model = train_model(tiny_graph, structure, fast_training_config)
        loaded = self.reload(export_artifact(model, tmp_path / "blockmodel"))
        assert isinstance(loaded.scoring_function, BlockScoringFunction)
        assert loaded.scoring_function.structure.key() == structure.key()
        assert loaded.config == model.config

    def test_loaded_scores_match(self, trained_model, tiny_graph, tmp_path):
        loaded = self.reload(export_artifact(trained_model, tmp_path / "scores"))
        triples = tiny_graph.test[:4]
        np.testing.assert_array_equal(loaded.score(triples), trained_model.score(triples))
        assert not loaded.params["entities"].flags.writeable

    def test_save_without_params_raises(self, tmp_path):
        model = KGEModel(DistMult(), TrainingConfig(dimension=8, epochs=1))
        with pytest.raises(ArtifactError, match="untrained"):
            export_artifact(model, tmp_path / "nothing")

    def test_save_persists_counts_and_vocab(self, trained_model, tiny_graph, tmp_path):
        directory = export_artifact(trained_model, tmp_path / "standalone", graph=tiny_graph)
        manifest = from_json_file(directory / "manifest.json")
        assert manifest["num_entities"] == tiny_graph.num_entities
        assert manifest["num_relations"] == tiny_graph.num_relations
        vocab = from_json_file(directory / "vocab.json")
        assert vocab["relation_names"] == list(tiny_graph.relation_names)

    def test_save_rejects_mismatched_graph(self, trained_model, micro_graph, tmp_path):
        with pytest.raises(ArtifactError, match="does not match"):
            export_artifact(trained_model, tmp_path / "mismatch", graph=micro_graph)


class TestLoadValidation:
    """A missing or half-written model directory fails naming the broken piece."""

    @pytest.fixture()
    def saved(self, trained_model, tmp_path):
        return export_artifact(trained_model, tmp_path / "saved")

    @staticmethod
    def edit_manifest(directory, edit):
        manifest = from_json_file(directory / "manifest.json")
        edit(manifest)
        to_json_file(manifest, directory / "manifest.json")

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ArtifactError, match="does not exist"):
            load_artifact(tmp_path / "nowhere")

    def test_half_written_directory(self, saved):
        (saved / "params" / "relations.npy").unlink()
        with pytest.raises(ArtifactError, match="params/relations.npy"):
            load_artifact(saved)

    def test_corrupt_metadata(self, saved):
        (saved / "manifest.json").write_text("{oops", encoding="utf-8")
        with pytest.raises(ArtifactError, match="not valid JSON"):
            load_artifact(saved)

    def test_missing_metadata_keys(self, saved):
        self.edit_manifest(saved, lambda manifest: manifest.pop("config"))
        with pytest.raises(ArtifactError, match="missing required keys: config"):
            load_artifact(saved)

    def test_missing_param_arrays(self, saved):
        self.edit_manifest(saved, lambda manifest: manifest["params"].pop("relations"))
        with pytest.raises(ArtifactError, match="missing required arrays: relations"):
            load_artifact(saved)

    def test_count_mismatch(self, saved):
        self.edit_manifest(saved, lambda manifest: manifest.update(num_entities=manifest["num_entities"] + 3))
        with pytest.raises(ArtifactError, match="declares"):
            load_artifact(saved)
