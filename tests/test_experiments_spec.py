"""Tests for the declarative ExperimentSpec and its tolerant loading."""

import pytest

from repro.core.distributed import QueueBackend
from repro.experiments import (
    BackendSpec,
    DatasetSpec,
    ExperimentSpec,
    ExportSpec,
    HPOSpec,
    ObsSpec,
    SchedulerSpec,
    SearchLoop,
    SearchSpec,
    load_spec,
    spec_digest,
)
from repro.utils.config import ConfigError, PredictorConfig, TrainingConfig


class TestSections:
    def test_dataset_defaults(self):
        spec = DatasetSpec()
        assert spec.benchmark == "wn18rr"
        assert spec.data is None

    def test_dataset_unknown_benchmark(self):
        with pytest.raises(ConfigError, match="DatasetSpec.benchmark"):
            DatasetSpec(benchmark="dbpedia")

    def test_dataset_bad_scale(self):
        with pytest.raises(ConfigError, match="DatasetSpec.scale"):
            DatasetSpec(scale=0.0)

    def test_dataset_data_dir_skips_benchmark_check(self):
        # A TSV directory spec should not insist on a known benchmark name.
        spec = DatasetSpec(data="/somewhere/on/disk")
        assert spec.data == "/somewhere/on/disk"

    def test_search_unknown_strategy_is_lazy(self):
        # The strategy name is validated by the registry at build time, so a
        # spec naming a plug-in that registers later still constructs.
        spec = SearchSpec(strategy="evolutionary")
        assert spec.strategy == "evolutionary"

    def test_search_bad_budget(self):
        with pytest.raises(ConfigError, match="SearchSpec.budget"):
            SearchSpec(budget=0)

    def test_search_bad_greedy_params(self):
        with pytest.raises(ConfigError, match="SearchSpec"):
            SearchSpec(max_blocks=7)

    def test_hpo_disabled_by_default(self):
        assert not HPOSpec().enabled
        assert HPOSpec(method="random").enabled

    def test_hpo_unknown_method(self):
        with pytest.raises(ConfigError, match="HPOSpec.method"):
            HPOSpec(method="grid")

    def test_backend_unknown(self):
        with pytest.raises(ConfigError, match="BackendSpec.backend"):
            BackendSpec(backend="threads")

    def test_backend_workers_validated_at_spec_load(self):
        # Satellite regression: a queue spec with workers < 0 (or any other
        # backend with workers < 1) must fail when the spec is constructed,
        # naming the field — not deep inside backend start-up.
        with pytest.raises(ConfigError, match="BackendSpec.num_workers"):
            BackendSpec(backend="process", num_workers=0)
        with pytest.raises(ConfigError, match="BackendSpec.num_workers"):
            BackendSpec(backend="queue", num_workers=-1)
        # Queue accepts 0 workers (external workers only).
        assert BackendSpec(backend="queue", num_workers=0).num_workers == 0

    def test_backend_queue_field_validation(self):
        with pytest.raises(ConfigError, match="BackendSpec.port"):
            BackendSpec(backend="queue", port=70000)
        with pytest.raises(ConfigError, match="BackendSpec.heartbeat_timeout"):
            BackendSpec(backend="queue", heartbeat_timeout=0)
        with pytest.raises(ConfigError, match="BackendSpec.worker_timeout"):
            BackendSpec(backend="queue", worker_timeout=-1)
        with pytest.raises(ConfigError, match="BackendSpec.max_retries"):
            BackendSpec(backend="queue", max_retries=-1)

    def test_backend_queue_fields_serialized_only_for_queue(self):
        serial = BackendSpec(backend="serial").to_dict()
        assert set(serial) == {"backend", "num_workers"}
        queue = BackendSpec(backend="queue", num_workers=0, port=5000).to_dict()
        assert queue["port"] == 5000
        assert queue["max_retries"] == 2
        assert BackendSpec.from_dict(queue) == BackendSpec(
            backend="queue", num_workers=0, port=5000
        )

    def test_backend_queue_create(self):
        from repro.core.distributed import QueueBackend

        backend = BackendSpec(
            backend="queue", num_workers=0, port=5000, max_retries=1
        ).create()
        assert isinstance(backend, QueueBackend)
        assert backend.num_workers == 0
        assert backend.port == 5000
        assert backend.max_retries == 1


class TestExperimentSpec:
    def test_defaults(self):
        spec = ExperimentSpec()
        assert spec.search.strategy == "greedy"
        assert isinstance(spec.training, TrainingConfig)
        assert isinstance(spec.predictor, PredictorConfig)
        assert not spec.export.enabled

    def test_round_trip(self):
        spec = ExperimentSpec(
            name="round-trip",
            seed=7,
            dataset=DatasetSpec(benchmark="fb15k237", scale=0.25),
            training=TrainingConfig(dimension=16, epochs=5),
            search=SearchSpec(strategy="bayes", budget=12, pool_size=16),
            hpo=HPOSpec(method="random", num_trials=3),
            export=ExportSpec(enabled=True, with_metrics=True),
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_defaults_missing_sections(self):
        spec = ExperimentSpec.from_dict({"name": "minimal"})
        assert spec == ExperimentSpec(name="minimal")

    def test_default_obs_not_serialized(self):
        """A default obs section must not change pre-obs spec dumps/digests."""
        data = ExperimentSpec(name="stable").to_dict()
        assert "obs" not in data
        with_obs = ExperimentSpec(name="stable", obs=ObsSpec(enabled=True))
        assert "obs" in with_obs.to_dict()
        assert spec_digest(ExperimentSpec(name="stable")) != spec_digest(with_obs)

    def test_process_backend_dump_and_digest_pinned(self):
        """The process backend's spec dump predates its move onto the queue
        backend; committed specs and manifest digests must not change."""
        spec = ExperimentSpec(name="process", backend=BackendSpec(backend="process", num_workers=2))
        assert spec.backend.to_dict() == {"backend": "process", "num_workers": 2}
        assert spec_digest(spec) == "d242fe988c3f1e9a32d895062bd9daf9"

    def test_obs_round_trip(self):
        spec = ExperimentSpec(
            name="obs", obs=ObsSpec(enabled=True, trace=False, metrics=True)
        )
        restored = ExperimentSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert restored.obs.enabled and not restored.obs.trace

    def test_obs_accepts_plain_dict(self):
        spec = ExperimentSpec(name="obs-dict", obs={"enabled": True})
        assert isinstance(spec.obs, ObsSpec)
        assert spec.obs.enabled and spec.obs.trace and spec.obs.metrics

    def test_sections_accept_plain_dicts(self):
        spec = ExperimentSpec(
            name="dicts",
            dataset={"benchmark": "wn18", "scale": 0.3},
            search={"strategy": "random", "num_blocks": 6},
        )
        assert isinstance(spec.dataset, DatasetSpec)
        assert spec.dataset.benchmark == "wn18"
        assert spec.search.strategy == "random"

    def test_unknown_top_level_key_warns(self):
        data = ExperimentSpec(name="fwd").to_dict()
        data["shiny_new_feature"] = {"enabled": True}
        with pytest.warns(UserWarning, match="shiny_new_feature"):
            spec = ExperimentSpec.from_dict(data)
        assert spec.name == "fwd"

    def test_unknown_nested_key_warns(self):
        data = ExperimentSpec(name="fwd").to_dict()
        data["training"]["quantum_annealing"] = True
        with pytest.warns(UserWarning, match="quantum_annealing"):
            spec = ExperimentSpec.from_dict(data)
        assert spec.training == TrainingConfig()

    def test_non_mapping_section_rejected(self):
        data = ExperimentSpec(name="bad").to_dict()
        data["training"] = "fast"
        with pytest.raises(ConfigError, match="ExperimentSpec.training"):
            ExperimentSpec.from_dict(data)

    def test_non_mapping_section_rejected_in_constructor(self):
        with pytest.raises(ConfigError, match="ExperimentSpec.search"):
            ExperimentSpec(search="greedy")

    def test_bad_type_names_field(self):
        data = ExperimentSpec(name="bad").to_dict()
        data["training"]["dimension"] = "big"
        with pytest.raises(ConfigError, match="TrainingConfig.dimension"):
            ExperimentSpec.from_dict(data)

    def test_bad_range_raises_config_error(self):
        data = ExperimentSpec(name="bad").to_dict()
        data["training"]["dimension"] = 10  # not divisible by 4
        with pytest.raises(ConfigError, match="TrainingConfig"):
            ExperimentSpec.from_dict(data)

    def test_schema_version_recorded(self):
        assert ExperimentSpec().to_dict()["schema_version"] >= 1

    def test_save_and_load(self, tmp_path):
        spec = ExperimentSpec(name="on-disk", search=SearchSpec(strategy="random"))
        path = spec.save(tmp_path / "spec.json")
        assert load_spec(path) == spec

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            ExperimentSpec.load(tmp_path / "nowhere.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            ExperimentSpec.load(path)

    def test_search_config_assembly(self, tiny_graph):
        spec = ExperimentSpec(
            seed=3,
            search=SearchSpec(max_blocks=8, candidates_per_step=16),
            predictor=PredictorConfig(feature_type="onehot", hidden_units=8),
            backend=BackendSpec(backend="process", num_workers=2),
            scheduler=SchedulerSpec(enabled=True),
        )
        loop = SearchLoop.from_spec(spec, tiny_graph)
        assert loop.strategy.max_blocks == 8
        assert loop.strategy.candidates_per_step == 16
        assert loop.strategy.predictor.config.feature_type == "onehot"
        assert loop.seed == 3
        assert loop.evaluator.base_seed == 3
        assert isinstance(loop.backend, QueueBackend)
        assert loop.backend.num_workers == 2
        assert loop.scheduler is not None
        assert loop.training_config == spec.training


class TestTolerantConfigLoading:
    """The satellite bugfix: forward-versioned dicts load instead of crashing."""

    def test_training_config_unknown_key_warns(self):
        data = TrainingConfig().to_dict()
        data["learning_rate_schedule"] = "cosine"
        with pytest.warns(UserWarning, match="learning_rate_schedule"):
            config = TrainingConfig.from_dict(data)
        assert config == TrainingConfig()

    def test_search_config_unknown_key_warns(self):
        data = SearchSpec().to_dict()
        data["population"] = 32  # a newer spec field this release ignores
        with pytest.warns(UserWarning, match="population"):
            search = SearchSpec.from_dict(data)
        assert search == SearchSpec()

    def test_nested_predictor_unknown_key_warns(self):
        data = ExperimentSpec().to_dict()
        data["predictor"]["ensemble_size"] = 5
        with pytest.warns(UserWarning, match="ensemble_size"):
            spec = ExperimentSpec.from_dict(data)
        assert spec.predictor == PredictorConfig()

    def test_type_violation_names_field(self):
        with pytest.raises(ConfigError, match="TrainingConfig.epochs"):
            TrainingConfig.from_dict({"epochs": "forever"})

    def test_range_violation_is_config_error(self):
        with pytest.raises(ConfigError, match="batch_size"):
            TrainingConfig.from_dict({"batch_size": 0})

    def test_config_error_is_value_error(self):
        # Call sites that caught ValueError keep working.
        assert issubclass(ConfigError, ValueError)

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError, match="expected a mapping"):
            TrainingConfig.from_dict(["dimension", 32])
