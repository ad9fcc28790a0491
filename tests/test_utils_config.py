"""Tests for the configuration dataclasses."""

import pytest

from repro.experiments import ExperimentSpec, SearchSpec
from repro.utils.config import PredictorConfig, TrainingConfig


class TestTrainingConfig:
    def test_defaults_valid(self):
        config = TrainingConfig()
        assert config.dimension % 4 == 0
        assert config.chunk_dimension == config.dimension // 4

    def test_dimension_not_divisible_by_four(self):
        with pytest.raises(ValueError):
            TrainingConfig(dimension=10)

    def test_negative_dimension(self):
        with pytest.raises(ValueError):
            TrainingConfig(dimension=-4)

    def test_bad_optimizer(self):
        with pytest.raises(ValueError):
            TrainingConfig(optimizer="rmsprop")

    def test_bad_loss(self):
        with pytest.raises(ValueError):
            TrainingConfig(loss="mse")

    def test_bad_decay_rate(self):
        with pytest.raises(ValueError):
            TrainingConfig(decay_rate=0.0)
        with pytest.raises(ValueError):
            TrainingConfig(decay_rate=1.5)

    def test_bad_learning_rate(self):
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=0.0)

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=0)

    def test_replace_keeps_other_fields(self):
        config = TrainingConfig(dimension=32, epochs=10)
        changed = config.replace(epochs=20)
        assert changed.epochs == 20
        assert changed.dimension == 32
        assert config.epochs == 10  # original untouched

    def test_round_trip_dict(self):
        config = TrainingConfig(dimension=16, learning_rate=0.3)
        assert TrainingConfig.from_dict(config.to_dict()) == config


class TestPredictorConfig:
    def test_defaults(self):
        config = PredictorConfig()
        assert config.feature_type == "srf"
        assert config.hidden_units == 2

    def test_bad_feature_type(self):
        with pytest.raises(ValueError):
            PredictorConfig(feature_type="bagofwords")

    def test_bad_hidden_units(self):
        with pytest.raises(ValueError):
            PredictorConfig(hidden_units=0)

    def test_round_trip(self):
        config = PredictorConfig(feature_type="onehot", hidden_units=8)
        assert PredictorConfig.from_dict(config.to_dict()) == config


class TestSearchConfig:
    """Alg. 2's meta hyper-parameters: the ``search`` section of a spec."""

    def test_defaults(self):
        spec = ExperimentSpec()
        assert spec.search.max_blocks >= 4
        assert isinstance(spec.predictor, PredictorConfig)

    def test_odd_max_blocks(self):
        with pytest.raises(ValueError, match="SearchSpec.max_blocks"):
            SearchSpec(max_blocks=7)

    def test_too_small_max_blocks(self):
        with pytest.raises(ValueError, match="SearchSpec.max_blocks"):
            SearchSpec(max_blocks=2)

    def test_bad_counts(self):
        for name in ("candidates_per_step", "top_parents", "train_per_step"):
            with pytest.raises(ValueError, match=f"SearchSpec.{name}"):
                SearchSpec(**{name: 0})

    def test_predictor_dict_coerced(self):
        spec = ExperimentSpec(predictor={"feature_type": "onehot", "hidden_units": 4})
        assert isinstance(spec.predictor, PredictorConfig)
        assert spec.predictor.hidden_units == 4

    def test_round_trip_dict(self):
        search = SearchSpec(max_blocks=8, candidates_per_step=32)
        assert SearchSpec.from_dict(search.to_dict()) == search
