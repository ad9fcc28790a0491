"""Tests for the SearchStrategy protocol and the unified SearchLoop."""

import pytest

from repro.core.store import EvaluationStore
from repro.experiments import (
    ExperimentSpec,
    SearchLoop,
    SearchSpec,
    available_strategies,
    create_strategy,
    register_strategy,
)
from repro.experiments.strategies import _STRATEGIES
from repro.kge.scoring import classical_structure
from repro.utils.config import ConfigError, PredictorConfig, TrainingConfig


@pytest.fixture(scope="module")
def loop_training_config():
    return TrainingConfig(dimension=8, epochs=4, batch_size=64, learning_rate=0.5, seed=0)


def _greedy_spec(seed=0, **search_overrides):
    search = dict(
        strategy="greedy", max_blocks=6, candidates_per_step=8, top_parents=3, train_per_step=2
    )
    search.update(search_overrides)
    return ExperimentSpec(
        seed=seed, search=SearchSpec(**search), predictor=PredictorConfig(epochs=50)
    )


class TestRegistry:
    def test_builtins_registered(self):
        assert {"greedy", "random", "bayes"} <= set(available_strategies())

    def test_unknown_strategy_raises(self):
        spec = ExperimentSpec(search=SearchSpec(strategy="simulated-annealing"))
        with pytest.raises(ConfigError, match="simulated-annealing"):
            create_strategy(spec)

    def test_plugin_strategy_runs_through_loop(self, tiny_graph, loop_training_config):
        """A one-file plug-in: register, select by spec, drive with the loop."""

        class FixedMenuStrategy:
            name = "fixed-menu"

            def __init__(self):
                self._menu = [classical_structure("distmult"), classical_structure("simple")]

            def propose(self, state):
                return [self._menu.pop(0)] if self._menu else []

            def observe(self, state, evaluations):
                return None

            def finished(self, state):
                return not self._menu

            def statistics(self):
                return {"accepted": 2}

        register_strategy("fixed-menu")(lambda spec: FixedMenuStrategy())
        try:
            spec = ExperimentSpec(search=SearchSpec(strategy="fixed-menu"))
            strategy = create_strategy(spec)
            result = SearchLoop(tiny_graph, strategy, loop_training_config, seed=0).run()
            assert result.num_evaluations == 2
            assert result.filter_statistics == {"accepted": 2}
        finally:
            _STRATEGIES.pop("fixed-menu", None)


class TestLoopMechanics:
    def test_budget_cap_strict(self, tiny_graph, loop_training_config):
        spec = _greedy_spec(seed=0)
        result = SearchLoop(
            tiny_graph, create_strategy(spec), loop_training_config, seed=0
        ).run(max_evaluations=3)
        assert result.num_evaluations == 3

    def test_second_run_starts_fresh_records(self, tiny_graph, loop_training_config):
        spec = ExperimentSpec(seed=4, search=SearchSpec(strategy="random", num_blocks=6))
        loop = SearchLoop(tiny_graph, create_strategy(spec), loop_training_config, seed=4)
        first = loop.run(max_evaluations=2)
        second = loop.run(max_evaluations=2)
        assert first.num_evaluations == 2
        assert second.num_evaluations == 2
        assert [r.order for r in second.records] == [1, 2]

    def test_timing_phases_recorded(self, tiny_graph, loop_training_config):
        spec = _greedy_spec(seed=0)
        loop = SearchLoop(tiny_graph, create_strategy(spec), loop_training_config, seed=0)
        loop.run(max_evaluations=6)
        summary = loop.timing.summary()
        assert "train" in summary and "filter" in summary

    def test_no_evaluations_raises(self, tiny_graph, loop_training_config):
        class BarrenStrategy:
            name = "barren"

            def propose(self, state):
                return []

            def observe(self, state, evaluations):
                return None

            def finished(self, state):
                return False

            def statistics(self):
                return {}

        with pytest.raises(RuntimeError, match="barren"):
            SearchLoop(tiny_graph, BarrenStrategy(), loop_training_config, seed=0).run()


class TestRoundAtomicity:
    """Regression: a faulting backend must fail the round *before* any
    evaluation reaches the records, ``state.evaluations`` or
    ``strategy.observe`` — a partial batch used to leak misassigned
    results into strategy state."""

    class _SpyStrategy:
        name = "spy"

        def __init__(self):
            self.state = None
            self.observed = []
            self._proposed = False

        def propose(self, state):
            self.state = state
            self._proposed = True
            return [classical_structure("distmult"), classical_structure("simple")]

        def observe(self, state, evaluations):
            self.observed.append(list(evaluations))

        def finished(self, state):
            return self._proposed

    class _TruncatingBackend:
        """Returns one outcome slot too few, violating the contract."""

        name = "truncating"
        num_workers = 1

        def run(self, context, tasks, on_result=None):
            from repro.core.execution import SerialBackend

            return SerialBackend().run(context, tasks)[:-1]

    def test_contract_violation_leaves_strategy_untouched(
        self, tiny_graph, loop_training_config
    ):
        from repro.core.execution import ExecutionError

        strategy = self._SpyStrategy()
        loop = SearchLoop(
            tiny_graph,
            strategy,
            loop_training_config,
            seed=0,
            backend=self._TruncatingBackend(),
        )
        with pytest.raises(ExecutionError, match="slot per task"):
            loop.run()
        assert strategy.observed == []
        assert strategy.state.evaluations == []
        assert loop._records == []


class TestSharedStore:
    """Satellite regression: baselines route through the shared cache."""

    def test_warm_store_random_zero_retraining(self, tiny_graph, loop_training_config, tmp_path):
        spec = ExperimentSpec(seed=3, search=SearchSpec(strategy="random", num_blocks=6))
        cold = SearchLoop(
            tiny_graph,
            create_strategy(spec),
            loop_training_config,
            seed=3,
            store=EvaluationStore(tmp_path),
        )
        first = cold.run(max_evaluations=4)
        assert cold.evaluator.num_trained == 4

        warm = SearchLoop(
            tiny_graph,
            create_strategy(spec),
            loop_training_config,
            seed=3,
            store=EvaluationStore(tmp_path),
        )
        second = warm.run(max_evaluations=4)
        assert warm.evaluator.num_trained == 0
        assert second.anytime_curve() == first.anytime_curve()

    def test_warm_store_bayes_zero_retraining(self, tiny_graph, loop_training_config, tmp_path):
        spec = ExperimentSpec(
            seed=3, search=SearchSpec(strategy="bayes", num_blocks=6, pool_size=8)
        )

        def run_once():
            loop = SearchLoop(
                tiny_graph,
                create_strategy(spec),
                loop_training_config,
                seed=3,
                store=EvaluationStore(tmp_path),
            )
            return loop, loop.run(max_evaluations=3)

        cold, first = run_once()
        assert cold.evaluator.num_trained == 3
        warm, second = run_once()
        assert warm.evaluator.num_trained == 0
        assert second.anytime_curve() == first.anytime_curve()
