"""Tests for ASHA fidelity scheduling: ladder math, loop integration, spec.

The parity oracle: the final rung *is* the plain full-fidelity evaluator,
so every full-fidelity result of a scheduled run must be bit-identical to
the same structure evaluated without a scheduler.
"""

import json

import pytest

from repro.core.invariance import canonical_key
from repro.core.search_space import enumerate_f4_structures
from repro.core.store import EvaluationStore
from repro.datasets import load_benchmark
from repro.experiments import (
    ExperimentSpec,
    FidelityScheduler,
    SchedulerSpec,
    SearchLoop,
    SearchSpec,
    create_strategy,
    run_experiment,
    spec_digest,
)
from repro.experiments.runner import HISTORY_FILENAME
from repro.experiments.spec import DatasetSpec
from repro.utils.config import ConfigError, PredictorConfig, TrainingConfig


class TestLadder:
    def test_geometric_ladder_ends_at_full(self):
        scheduler = FidelityScheduler(reduction=3, min_epochs=1)
        assert scheduler.ladder(9) == [1, 3, 9]
        assert scheduler.ladder(27) == [1, 3, 9, 27]

    def test_near_full_top_rung_is_dropped(self):
        # 3 -> 12 is less than one reduction step; a rung at 9 would train
        # almost-full models only to retrain survivors at 12.
        scheduler = FidelityScheduler(reduction=3, min_epochs=1)
        assert scheduler.ladder(12) == [1, 3, 12]
        assert scheduler.ladder(4) == [1, 4]

    def test_full_at_or_below_min_is_a_noop_ladder(self):
        scheduler = FidelityScheduler(reduction=3, min_epochs=5)
        assert scheduler.ladder(5) == [5]
        assert scheduler.ladder(3) == [3]

    def test_max_rungs_drops_cheapest_first(self):
        scheduler = FidelityScheduler(reduction=3, min_epochs=1, max_rungs=2)
        assert scheduler.ladder(27) == [9, 27]

    def test_promote_count(self):
        scheduler = FidelityScheduler(reduction=3)
        assert scheduler.promote_count(9) == 3
        assert scheduler.promote_count(4) == 2
        assert scheduler.promote_count(1) == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="reduction"):
            FidelityScheduler(reduction=1)
        with pytest.raises(ValueError, match="min_epochs"):
            FidelityScheduler(min_epochs=0)
        with pytest.raises(ValueError, match="max_rungs"):
            FidelityScheduler(max_rungs=1)


class FixedFrontStrategy:
    """Proposes one fixed candidate front, then finishes.

    Captures the loop's ``SearchState`` (via ``observe``) so tests can
    inspect rung history, and the evaluations the strategy actually saw.
    """

    name = "fixed-front"

    def __init__(self, structures):
        self._structures = list(structures)
        self._proposed = False
        self.observed = []
        self.state = None

    def propose(self, state):
        self._proposed = True
        return list(self._structures)

    def observe(self, state, evaluations):
        self.state = state
        self.observed.append(list(evaluations))

    def finished(self, state):
        return self._proposed


@pytest.fixture(scope="module")
def asha_training_config():
    # epochs=4 with reduction=3 gives the two-rung ladder [1, 4].
    return TrainingConfig(dimension=8, epochs=4, batch_size=64, learning_rate=0.5, seed=0)


@pytest.fixture(scope="module")
def front():
    structures = list(enumerate_f4_structures())  # all 5 canonical f4 seeds
    assert len(structures) == 5
    return structures


class TestScheduledLoop:
    def test_final_rung_matches_plain_evaluator_bitwise(
        self, tiny_graph, asha_training_config, front
    ):
        plain = SearchLoop(
            tiny_graph, FixedFrontStrategy(front), asha_training_config, seed=0
        ).run()
        reference = {
            canonical_key(record.structure): record.validation_mrr
            for record in plain.records
        }

        scheduled = SearchLoop(
            tiny_graph,
            FixedFrontStrategy(front),
            asha_training_config,
            seed=0,
            scheduler=FidelityScheduler(reduction=3),
        ).run()
        survivors = [r for r in scheduled.records if r.full_fidelity]
        assert 1 <= len(survivors) < len(front)
        for record in survivors:
            assert record.validation_mrr == reference[canonical_key(record.structure)]
        assert scheduled.best_mrr in reference.values()

    def test_only_full_fidelity_counts_and_reaches_observe(
        self, tiny_graph, asha_training_config, front
    ):
        strategy = FixedFrontStrategy(front)
        loop = SearchLoop(
            tiny_graph,
            strategy,
            asha_training_config,
            seed=0,
            scheduler=FidelityScheduler(reduction=3),
        )
        result = loop.run()
        survivors = [r for r in result.records if r.full_fidelity]
        rung_records = [r for r in result.records if not r.full_fidelity]
        assert result.num_evaluations == len(survivors)
        assert len(rung_records) == len(front)  # one cheap rung over the front
        # The strategy saw exactly the full-fidelity evaluations.
        assert [len(batch) for batch in strategy.observed] == [len(survivors)]
        assert len(strategy.state.evaluations) == len(survivors)

    def test_rung_records_carry_metadata(self, tiny_graph, asha_training_config, front):
        loop = SearchLoop(
            tiny_graph,
            FixedFrontStrategy(front),
            asha_training_config,
            seed=0,
            scheduler=FidelityScheduler(reduction=3),
        )
        result = loop.run()
        for record in result.records:
            if record.full_fidelity:
                assert record.rung is None and record.rung_epochs is None
            else:
                assert record.rung == 0
                assert record.rung_epochs == 1
        assert loop.rung_stats[1]["evaluated"] == len(front)
        assert loop.rung_stats[1]["promoted"] == 2  # ceil(5 / 3)

    def test_rung_history_recorded_on_state(self, tiny_graph, asha_training_config, front):
        strategy = FixedFrontStrategy(front)
        SearchLoop(
            tiny_graph,
            strategy,
            asha_training_config,
            seed=0,
            scheduler=FidelityScheduler(reduction=3),
        ).run()
        assert strategy.state.rung_history == [
            {"rung": 0, "epochs": 1, "candidates": 5, "promoted": 2, "trained": 5}
        ]

    def test_scheduler_spends_fewer_training_epochs(
        self, tiny_graph, asha_training_config, front
    ):
        plain = SearchLoop(
            tiny_graph, FixedFrontStrategy(front), asha_training_config, seed=0
        )
        plain.run()
        scheduled = SearchLoop(
            tiny_graph,
            FixedFrontStrategy(front),
            asha_training_config,
            seed=0,
            scheduler=FidelityScheduler(reduction=3),
        )
        scheduled.run()
        # 5 x 1 epoch + 2 survivors x 4 epochs, vs 5 x 4 epochs.
        assert plain.total_training_epochs == 20
        assert scheduled.total_training_epochs == 13

    def test_budget_caps_survivors_not_the_front(
        self, tiny_graph, asha_training_config, front
    ):
        result = SearchLoop(
            tiny_graph,
            FixedFrontStrategy(front),
            asha_training_config,
            seed=0,
            scheduler=FidelityScheduler(reduction=3),
        ).run(max_evaluations=1)
        survivors = [r for r in result.records if r.full_fidelity]
        rung_records = [r for r in result.records if not r.full_fidelity]
        assert len(survivors) == 1  # budget applies to recorded evaluations
        assert len(rung_records) == len(front)  # the cheap rung still screens all

    def test_rung_store_isolated_from_full_fidelity_store(
        self, tiny_graph, asha_training_config, front, tmp_path
    ):
        loop = SearchLoop(
            tiny_graph,
            FixedFrontStrategy(front),
            asha_training_config,
            seed=0,
            store=EvaluationStore(tmp_path),
            scheduler=FidelityScheduler(reduction=3),
        )
        result = loop.run()
        survivors = [r for r in result.records if r.full_fidelity]
        # Store entries are keyed by candidate alone, so rung evaluations
        # live in a sub-store instead of clobbering full-fidelity entries.
        assert len(loop.store) == len(survivors)
        rung_store = loop._rung_evaluators[1].store
        assert rung_store.directory != loop.store.directory
        assert len(rung_store) == len(front)


@pytest.mark.slow
def test_asha_matches_full_fidelity_at_a_third_of_the_compute():
    """On yago310-mini, ASHA screening a wide greedy front finds the same or
    a better best MRR than training the whole front at full fidelity, with
    at least 3x fewer training epochs."""
    graph = load_benchmark("yago310", scale=0.2, seed=0)
    spec = ExperimentSpec(
        seed=0,
        search=SearchSpec(
            strategy="greedy", budget=20, max_blocks=6, candidates_per_step=24,
            top_parents=4, train_per_step=15,
        ),
        predictor=PredictorConfig(epochs=100),
    )
    config = TrainingConfig(
        dimension=16, epochs=15, batch_size=256, learning_rate=0.5, l2_penalty=1e-4, seed=0
    )
    base = SearchLoop(graph, create_strategy(spec), config, seed=0)
    asha = SearchLoop(
        graph, create_strategy(spec), config, seed=0,
        scheduler=FidelityScheduler(reduction=3, min_epochs=1),
    )
    base_best = base.run(max_evaluations=20).best_mrr
    asha_best = asha.run(max_evaluations=20).best_mrr
    assert asha_best >= base_best
    assert base.total_training_epochs >= 3 * asha.total_training_epochs


class TestSchedulerSpec:
    def test_defaults_disabled(self):
        spec = SchedulerSpec()
        assert not spec.enabled
        assert spec.create() is None

    def test_enabled_creates_scheduler(self):
        scheduler = SchedulerSpec(enabled=True, reduction=2, min_epochs=2).create()
        assert scheduler == FidelityScheduler(reduction=2, min_epochs=2)

    def test_invalid_values_fail_at_spec_load(self):
        with pytest.raises(ConfigError, match="reduction"):
            SchedulerSpec(reduction=1)
        with pytest.raises(ConfigError, match="max_rungs"):
            SchedulerSpec(max_rungs=0)

    def test_experiment_spec_round_trip(self):
        spec = ExperimentSpec(
            name="asha",
            scheduler=SchedulerSpec(enabled=True, reduction=2),
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert spec.to_dict()["scheduler"] == {
            "enabled": True,
            "reduction": 2,
            "min_epochs": 1,
            "max_rungs": None,
        }

    def test_default_spec_serialization_unchanged(self):
        # Pre-scheduler spec files (no "scheduler" section) must keep their
        # digests: the section is only emitted when it differs from default.
        assert "scheduler" not in ExperimentSpec(name="plain").to_dict()
        assert spec_digest(ExperimentSpec(name="plain")) == spec_digest(
            ExperimentSpec(name="plain", scheduler=SchedulerSpec())
        )
        assert spec_digest(ExperimentSpec(name="plain")) != spec_digest(
            ExperimentSpec(name="plain", scheduler=SchedulerSpec(enabled=True))
        )


@pytest.mark.slow  # tier 2: two full experiment runs through the runner
class TestScheduledRunner:
    def _spec(self, **overrides):
        settings = dict(
            name="asha-run",
            seed=0,
            dataset=DatasetSpec(benchmark="wn18rr", scale=0.2, seed=0),
            training=TrainingConfig(dimension=8, epochs=4, batch_size=128, learning_rate=0.5),
            search=SearchSpec(
                strategy="greedy", budget=4, candidates_per_step=6,
                top_parents=3, train_per_step=2,
            ),
            predictor=PredictorConfig(epochs=50),
            scheduler=SchedulerSpec(enabled=True, reduction=3),
        )
        settings.update(overrides)
        return ExperimentSpec(**settings)

    def test_history_and_report_carry_rung_metadata(self, tmp_path):
        record = run_experiment(self._spec(), tmp_path / "asha")
        lines = [
            json.loads(line)
            for line in (record.path / HISTORY_FILENAME).read_text().splitlines()
        ]
        rung_lines = [line for line in lines if "rung" in line]
        full_lines = [line for line in lines if "rung" not in line]
        assert rung_lines, "scheduled run must write rung records"
        for line in rung_lines:
            assert line["full_fidelity"] is False
            assert line["rung_epochs"] >= 1
        assert record.report["num_evaluations"] == len(full_lines)
        assert record.report["scheduler"]["rungs"]
        assert record.report["scheduler"]["total_training_epochs"] > 0

    def test_plain_run_history_has_no_rung_keys(self, tmp_path):
        record = run_experiment(
            self._spec(name="plain-run", scheduler=SchedulerSpec()), tmp_path / "plain"
        )
        for line in record.history:
            assert "rung" not in line and "full_fidelity" not in line
        assert "scheduler" not in record.report
