"""Tests for optimizers, regularizers and negative samplers."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from train_step_oracle import (
    AllocatingAdagrad,
    AllocatingAdam,
    AllocatingL2,
    AllocatingN3,
    AllocatingSGD,
)

from repro.datasets import GeneratorProfile, generate_knowledge_graph
from repro.kge.negative_sampling import BernoulliNegativeSampler, UniformNegativeSampler
from repro.kge.optimizers import (
    SGD,
    Adagrad,
    Adam,
    Optimizer,
    densify_sparse_grads,
    get_optimizer,
)
from repro.kge.regularizers import (
    L2Regularizer,
    N3Regularizer,
    NoRegularizer,
    get_regularizer,
)
from repro.kge.workspace import Workspace


def quadratic_params():
    return {"x": np.array([3.0, -2.0]), "y": np.array([[1.0, 4.0]])}


def quadratic_grads(params):
    # Gradient of 0.5 * sum(p^2): minimizer at zero.
    return {key: value.copy() for key, value in params.items()}


class TestOptimizerBasics:
    @pytest.mark.parametrize("factory", [lambda: SGD(0.1), lambda: Adagrad(0.5), lambda: Adam(0.2)])
    def test_converges_on_quadratic(self, factory):
        optimizer = factory()
        params = quadratic_params()
        for _step in range(200):
            optimizer.step(params, quadratic_grads(params))
        assert np.abs(params["x"]).max() < 0.05
        assert np.abs(params["y"]).max() < 0.05

    def test_sgd_single_step_value(self):
        optimizer = SGD(learning_rate=0.1)
        params = {"w": np.array([1.0])}
        optimizer.step(params, {"w": np.array([2.0])})
        assert params["w"][0] == pytest.approx(0.8)

    def test_adagrad_first_step_is_learning_rate_sized(self):
        optimizer = Adagrad(learning_rate=0.5)
        params = {"w": np.array([1.0])}
        optimizer.step(params, {"w": np.array([4.0])})
        # First Adagrad step ~ lr * grad / |grad| = lr.
        assert params["w"][0] == pytest.approx(0.5, abs=1e-6)

    def test_adagrad_steps_shrink(self):
        optimizer = Adagrad(learning_rate=0.5)
        params = {"w": np.array([10.0])}
        deltas = []
        for _ in range(3):
            before = params["w"].copy()
            optimizer.step(params, {"w": np.array([1.0])})
            deltas.append(float((before - params["w"])[0]))
        assert deltas[0] > deltas[1] > deltas[2]

    def test_decay_reduces_learning_rate(self):
        optimizer = SGD(learning_rate=1.0, decay_rate=0.5)
        optimizer.decay()
        assert optimizer.learning_rate == pytest.approx(0.5)

    def test_invalid_learning_rate(self):
        with pytest.raises(ValueError):
            SGD(0.0)

    def test_invalid_decay(self):
        with pytest.raises(ValueError):
            SGD(0.1, decay_rate=0.0)

    def test_shape_mismatch_rejected(self):
        optimizer = SGD(0.1)
        with pytest.raises(ValueError):
            optimizer.step({"w": np.zeros(3)}, {"w": np.zeros(4)})

    def test_unknown_gradient_key_rejected(self):
        optimizer = SGD(0.1)
        with pytest.raises(KeyError):
            optimizer.step({"w": np.zeros(3)}, {"v": np.zeros(3)})

    def test_adam_reset_clears_state(self):
        optimizer = Adam(0.1)
        params = {"w": np.array([1.0])}
        optimizer.step(params, {"w": np.array([1.0])})
        optimizer.reset()
        assert optimizer._step_count == 0
        assert not optimizer._state

    def test_adam_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam(0.1, beta1=1.0)

    def test_factory(self):
        assert isinstance(get_optimizer("adagrad", 0.1), Adagrad)
        assert isinstance(get_optimizer("adam", 0.1), Adam)
        assert isinstance(get_optimizer("sgd", 0.1), SGD)
        with pytest.raises(KeyError):
            get_optimizer("lbfgs", 0.1)


def sparse_problem(seed=0, rows=12, dim=4, touched=5):
    """(params, sparse grads, dense-equivalent grads) for one step."""
    rng = np.random.default_rng(seed)
    params = {
        "entities": rng.normal(size=(rows, dim)),
        "nn1_w1": rng.normal(size=(dim, dim)),  # globally-shared: stays dense
    }
    indices = np.sort(rng.choice(rows, size=touched, replace=False))
    block = rng.normal(size=(touched, dim))
    dense_w = rng.normal(size=(dim, dim))
    sparse = {"entities": (indices, block), "nn1_w1": dense_w}
    dense = densify_sparse_grads(params, sparse)
    return params, sparse, dense


class TestSparseSteps:
    """step_sparse == step with the zero-padded dense gradient (SGD/Adagrad)."""

    @pytest.mark.parametrize("factory", [lambda: SGD(0.1), lambda: Adagrad(0.5)])
    def test_matches_dense_step_over_many_steps(self, factory):
        sparse_optimizer, dense_optimizer = factory(), factory()
        params_sparse, _, _ = sparse_problem()
        params_dense = {key: value.copy() for key, value in params_sparse.items()}
        for step in range(5):
            _, sparse, dense = sparse_problem(seed=step + 1)
            sparse_optimizer.step_sparse(params_sparse, sparse)
            dense_optimizer.step(params_dense, dense)
            for key in params_dense:
                np.testing.assert_array_equal(params_sparse[key], params_dense[key])

    def test_adam_first_touch_matches_dense(self):
        """Lazy Adam: a row's first sparse update equals the dense update."""
        sparse_optimizer, dense_optimizer = Adam(0.2), Adam(0.2)
        params_sparse, sparse, dense = sparse_problem()
        params_dense = {key: value.copy() for key, value in params_sparse.items()}
        sparse_optimizer.step_sparse(params_sparse, sparse)
        dense_optimizer.step(params_dense, dense)
        for key in params_dense:
            np.testing.assert_array_equal(params_sparse[key], params_dense[key])

    def test_adam_is_lazy_on_untouched_rows(self):
        """Documented deviation: no pure-decay drift for untouched rows."""
        optimizer = Adam(0.2)
        params, sparse, _ = sparse_problem()
        indices = sparse["entities"][0]
        untouched = np.setdiff1d(np.arange(params["entities"].shape[0]), indices)
        optimizer.step_sparse(params, sparse)
        before = params["entities"][untouched].copy()
        # Second step touching the same rows: dense Adam would now drift the
        # untouched rows through momentum decay; lazy Adam must not.
        optimizer.step_sparse(params, sparse)
        np.testing.assert_array_equal(params["entities"][untouched], before)

    def test_only_addressed_rows_move(self):
        for factory in (lambda: SGD(0.1), lambda: Adagrad(0.5), lambda: Adam(0.2)):
            optimizer = factory()
            params, sparse, _ = sparse_problem()
            indices = sparse["entities"][0]
            untouched = np.setdiff1d(np.arange(params["entities"].shape[0]), indices)
            before = params["entities"][untouched].copy()
            optimizer.step_sparse(params, sparse)
            np.testing.assert_array_equal(params["entities"][untouched], before)

    def test_base_class_fallback_densifies(self):
        """An optimizer without its own step_sparse still gets sparse support."""

        class ScaledSGD(Optimizer):
            def step(self, params, grads):
                self._check(params, grads)
                for key, grad in grads.items():
                    params[key] -= 0.5 * self.learning_rate * grad

        fallback, dense_optimizer = ScaledSGD(0.1), ScaledSGD(0.1)
        params_sparse, sparse, dense = sparse_problem()
        params_dense = {key: value.copy() for key, value in params_sparse.items()}
        fallback.step_sparse(params_sparse, sparse)
        dense_optimizer.step(params_dense, dense)
        for key in params_dense:
            np.testing.assert_array_equal(params_sparse[key], params_dense[key])

    def test_densify_scatters_exactly(self):
        params, sparse, dense = sparse_problem()
        indices, block = sparse["entities"]
        np.testing.assert_array_equal(dense["entities"][indices], block)
        untouched = np.setdiff1d(np.arange(params["entities"].shape[0]), indices)
        assert not dense["entities"][untouched].any()

    def test_non_increasing_indices_rejected(self):
        optimizer = SGD(0.1)
        params = {"entities": np.zeros((6, 2))}
        block = np.ones((2, 2))
        for bad in ([3, 1], [2, 2]):  # unsorted, duplicate
            with pytest.raises(ValueError, match="strictly increasing"):
                optimizer.step_sparse(params, {"entities": (np.array(bad), block)})

    def test_out_of_range_indices_rejected(self):
        optimizer = SGD(0.1)
        params = {"entities": np.zeros((6, 2))}
        with pytest.raises(ValueError, match="out of range"):
            optimizer.step_sparse(
                params, {"entities": (np.array([0, 6]), np.ones((2, 2)))}
            )

    def test_block_shape_mismatch_rejected(self):
        optimizer = SGD(0.1)
        params = {"entities": np.zeros((6, 2))}
        with pytest.raises(ValueError, match="block shape"):
            optimizer.step_sparse(
                params, {"entities": (np.array([0, 1]), np.ones((2, 3)))}
            )

    def test_unknown_key_rejected(self):
        optimizer = SGD(0.1)
        with pytest.raises(KeyError):
            optimizer.step_sparse(
                {"entities": np.zeros((6, 2))},
                {"relations": (np.array([0]), np.ones((1, 2)))},
            )


class TestRegularizers:
    def test_l2_penalty_value(self):
        params = {"w": np.array([1.0, 2.0]), "v": np.array([3.0])}
        assert L2Regularizer(0.1).penalty(params) == pytest.approx(0.1 * (1 + 4 + 9))

    def test_l2_gradient(self):
        params = {"w": np.array([2.0, -1.0])}
        grads = {"w": np.zeros(2)}
        L2Regularizer(0.5).add_gradients(params, grads)
        np.testing.assert_allclose(grads["w"], [2.0, -1.0])

    def test_l2_zero_weight_is_noop(self):
        params = {"w": np.array([2.0])}
        grads = {"w": np.zeros(1)}
        L2Regularizer(0.0).add_gradients(params, grads)
        assert grads["w"][0] == 0.0

    def test_n3_only_touches_embeddings(self):
        params = {"entities": np.array([[2.0]]), "nn1_w1": np.array([[5.0]])}
        grads = {key: np.zeros_like(value) for key, value in params.items()}
        N3Regularizer(1.0).add_gradients(params, grads)
        assert grads["entities"][0, 0] == pytest.approx(3 * 4.0)
        assert grads["nn1_w1"][0, 0] == 0.0

    def test_n3_penalty_value(self):
        params = {"entities": np.array([[-2.0]]), "relations": np.array([[1.0]])}
        assert N3Regularizer(0.5).penalty(params) == pytest.approx(0.5 * (8 + 1))

    def test_n3_gradient_matches_finite_difference(self):
        params = {"entities": np.array([[0.7, -1.3]]), "relations": np.array([[0.4, 0.9]])}
        regularizer = N3Regularizer(0.3)
        grads = {key: np.zeros_like(value) for key, value in params.items()}
        regularizer.add_gradients(params, grads)
        epsilon = 1e-6
        for key in params:
            for index in np.ndindex(params[key].shape):
                plus = {k: v.copy() for k, v in params.items()}
                minus = {k: v.copy() for k, v in params.items()}
                plus[key][index] += epsilon
                minus[key][index] -= epsilon
                numeric = (regularizer.penalty(plus) - regularizer.penalty(minus)) / (2 * epsilon)
                assert grads[key][index] == pytest.approx(numeric, rel=1e-4)

    def test_no_regularizer(self):
        params = {"w": np.array([5.0])}
        grads = {"w": np.zeros(1)}
        reg = NoRegularizer()
        assert reg.penalty(params) == 0.0
        reg.add_gradients(params, grads)
        assert grads["w"][0] == 0.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            L2Regularizer(-1.0)

    def test_factory(self):
        assert isinstance(get_regularizer("l2", 0.1), L2Regularizer)
        assert isinstance(get_regularizer("n3", 0.1), N3Regularizer)
        assert isinstance(get_regularizer("none", 0.0), NoRegularizer)
        with pytest.raises(KeyError):
            get_regularizer("dropout", 0.1)


class TestOptimizerSnapshot:
    """snapshot()/restore() back the trainer's best-checkpoint restore."""

    @pytest.mark.parametrize("factory", [lambda: SGD(0.1), lambda: Adagrad(0.5), lambda: Adam(0.2)])
    def test_restore_replays_identical_trajectory(self, factory):
        optimizer = factory()
        params = quadratic_params()
        for _ in range(3):
            optimizer.step(params, quadratic_grads(params))
            optimizer.decay()
        snapshot = optimizer.snapshot()
        checkpoint = {key: value.copy() for key, value in params.items()}

        # Diverge for a few steps, then rewind and replay.
        for _ in range(4):
            optimizer.step(params, quadratic_grads(params))
            optimizer.decay()
        diverged = {key: value.copy() for key, value in params.items()}

        optimizer.restore(snapshot)
        params = {key: value.copy() for key, value in checkpoint.items()}
        optimizer.step(params, quadratic_grads(params))
        replayed_once = {key: value.copy() for key, value in params.items()}

        optimizer.restore(snapshot)
        params = {key: value.copy() for key, value in checkpoint.items()}
        optimizer.step(params, quadratic_grads(params))
        for key in params:
            np.testing.assert_array_equal(params[key], replayed_once[key])
            assert not np.array_equal(diverged[key], replayed_once[key])

    @pytest.mark.parametrize("factory", [lambda: Adagrad(0.5), lambda: Adam(0.2)])
    def test_snapshot_survives_in_place_sparse_mutation(self, factory):
        """Regression: sparse steps mutate state rows in place.

        Dense Adam rebinds its state arrays every step, which masked shallow
        copies; ``step_sparse`` writes into existing rows, so a snapshot that
        aliased live state would drift as training continues past the
        checkpoint.  The snapshot (and anything restored from it) must stay
        bitwise identical to the moment it was taken.
        """
        optimizer = factory()
        params, sparse, _ = sparse_problem()
        optimizer.step_sparse(params, sparse)
        snapshot = optimizer.snapshot()
        frozen = {
            key: {name: value.copy() for name, value in state.items()}
            for key, state in snapshot["state"].items()
        }

        for seed in range(1, 4):  # keep training: rows mutate in place
            _, more_grads, _ = sparse_problem(seed=seed)
            optimizer.step_sparse(params, more_grads)

        for key, state in frozen.items():
            for name, value in state.items():
                np.testing.assert_array_equal(snapshot["state"][key][name], value)
        restored = factory()
        restored.restore(snapshot)
        for key, state in frozen.items():
            for name, value in state.items():
                np.testing.assert_array_equal(restored._state[key][name], value)
        # restore() copied too: mutating the restored optimizer must not
        # write back into the snapshot the trainer may restore again later.
        _, more_grads, _ = sparse_problem(seed=9)
        restored.step_sparse(params, more_grads)
        for key, state in frozen.items():
            for name, value in state.items():
                np.testing.assert_array_equal(snapshot["state"][key][name], value)

    def test_snapshot_is_a_deep_copy(self):
        optimizer = Adagrad(0.5)
        params = quadratic_params()
        optimizer.step(params, quadratic_grads(params))
        snapshot = optimizer.snapshot()
        optimizer.step(params, quadratic_grads(params))
        restored = Adagrad(0.5)
        restored.restore(snapshot)
        assert set(restored._state) == set(optimizer._state)
        for key in restored._state:
            assert not np.array_equal(
                restored._state[key]["sum_squares"], optimizer._state[key]["sum_squares"]
            )


#: (workspace implementation, allocating oracle) per optimizer and regularizer.
OPTIMIZER_PAIRS = {
    "sgd": (lambda: SGD(0.1), lambda: AllocatingSGD(0.1)),
    "adagrad": (lambda: Adagrad(0.3), lambda: AllocatingAdagrad(0.3)),
    "adam": (lambda: Adam(0.2), lambda: AllocatingAdam(0.2)),
}
REGULARIZER_PAIRS = {
    "l2": (lambda: L2Regularizer(0.05), lambda: AllocatingL2(0.05)),
    "n3": (lambda: N3Regularizer(0.05), lambda: AllocatingN3(0.05)),
    "none": (NoRegularizer, NoRegularizer),
}


def _random_sparse_grads(rng, params):
    """Row-sparse gradients: some rows untouched, some exactly zero."""
    grads = {}
    for key, value in params.items():
        rows = value.shape[0]
        indices = np.sort(rng.choice(rows, size=int(rng.integers(1, rows + 1)), replace=False))
        block = rng.normal(size=(indices.size,) + value.shape[1:])
        block[rng.random(indices.size) < 0.2] = 0.0
        grads[key] = (indices, block)
    return grads


class TestWorkspaceStepParity:
    """The in-place step equals the allocating expressions bit for bit."""

    @pytest.mark.property
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        optimizer=st.sampled_from(sorted(OPTIMIZER_PAIRS)),
        regularizer=st.sampled_from(sorted(REGULARIZER_PAIRS)),
        shapes=st.lists(
            st.tuples(st.integers(1, 12), st.integers(1, 6), st.integers(1, 5)),
            min_size=2, max_size=2,
        ),
        steps=st.integers(20, 30),
        snapshot_at=st.integers(0, 19),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_allocating_oracle(
        self, optimizer, regularizer, shapes, steps, snapshot_at, seed
    ):
        rng = np.random.default_rng(seed)
        make_optimizer, make_oracle_optimizer = OPTIMIZER_PAIRS[optimizer]
        make_regularizer, make_oracle_regularizer = REGULARIZER_PAIRS[regularizer]
        # One workspace across both fits, so the second fit's shapes reuse
        # (and regrow) the first fit's buffers.
        workspace = Workspace()
        for entities, relations, dimension in shapes:
            params = {
                "entities": rng.normal(size=(entities, dimension)),
                "relations": rng.normal(size=(relations, dimension)),
            }
            oracle_params = {key: value.copy() for key, value in params.items()}
            sparse_params = {key: value.copy() for key, value in params.items()}
            opt, oracle = make_optimizer(), make_oracle_optimizer()
            sparse_opt = make_optimizer()
            reg, oracle_reg = make_regularizer(), make_oracle_regularizer()
            checkpoint = None
            for step in range(steps):
                sparse = _random_sparse_grads(rng, params)
                dense = densify_sparse_grads(params, sparse)
                grads = {key: value.copy() for key, value in dense.items()}
                oracle_grads = {key: value.copy() for key, value in dense.items()}
                reg.add_gradients(params, grads, workspace)
                oracle_reg.add_gradients(oracle_params, oracle_grads)
                for key in grads:
                    assert grads[key].tobytes() == oracle_grads[key].tobytes()
                opt.step(params, grads, workspace)
                oracle.step(oracle_params, oracle_grads)
                for key in params:
                    assert params[key].tobytes() == oracle_params[key].tobytes()

                if regularizer == "none" and optimizer != "adam":
                    # step_sparse == the dense step on the zero-padded gradient.
                    sparse_opt.step_sparse(sparse_params, sparse)
                    for key in params:
                        assert sparse_params[key].tobytes() == params[key].tobytes()

                if step == snapshot_at:
                    checkpoint = (
                        {key: value.copy() for key, value in params.items()},
                        opt.snapshot(),
                        oracle.snapshot(),
                    )
                    held = _snapshot_arrays(checkpoint[1])
                    assert not any(
                        np.shares_memory(array, buffer)
                        for array in held
                        for buffer in workspace._buffers.values()
                    )

            # Rewind both to the checkpoint and replay one step.
            saved, state, oracle_state = checkpoint
            opt.restore(state)
            oracle.restore(oracle_state)
            params = {key: value.copy() for key, value in saved.items()}
            oracle_params = {key: value.copy() for key, value in saved.items()}
            dense = densify_sparse_grads(params, _random_sparse_grads(rng, params))
            opt.step(params, {key: value.copy() for key, value in dense.items()}, workspace)
            oracle.step(oracle_params, dense)
            for key in params:
                assert params[key].tobytes() == oracle_params[key].tobytes()

    def test_step_without_workspace_uses_call_scratch(self):
        params = {"w": np.array([1.0, -2.0])}
        oracle_params = {"w": params["w"].copy()}
        Adagrad(0.3).step(params, {"w": np.array([0.3, 0.0])})
        AllocatingAdagrad(0.3).step(oracle_params, {"w": np.array([0.3, 0.0])})
        assert params["w"].tobytes() == oracle_params["w"].tobytes()


def _snapshot_arrays(snapshot):
    arrays, pending = [], [snapshot]
    while pending:
        item = pending.pop()
        if isinstance(item, dict):
            pending.extend(item.values())
        elif isinstance(item, np.ndarray):
            arrays.append(item)
    return arrays


class TestNegativeSamplers:
    def test_uniform_shape_and_range(self):
        sampler = UniformNegativeSampler(num_entities=50, num_negatives=7, rng=0)
        negatives = sampler.sample(np.array([1, 2, 3]))
        assert negatives.shape == (3, 7)
        assert negatives.min() >= 0 and negatives.max() < 50

    def test_uniform_never_emits_positives(self):
        sampler = UniformNegativeSampler(num_entities=10, num_negatives=50, rng=0)
        positives = np.array([4])
        negatives = sampler.sample(positives)
        assert not np.any(negatives == 4)

    def test_collision_free_at_tiny_entity_counts(self):
        """Regression: one resampling pass could re-draw the positive again.

        With two entities every uniform draw hits the positive with
        probability 1/2, so the old single-pass fix leaked positives roughly
        once per four negatives; the redraw loop (plus the masked fallback)
        must never leak one.
        """
        for num_entities in (2, 3):
            sampler = UniformNegativeSampler(
                num_entities=num_entities, num_negatives=40, rng=7
            )
            positives = np.arange(num_entities).repeat(5)
            for _round in range(10):
                negatives = sampler.sample(positives)
                assert not np.any(negatives == positives[:, None])
                assert negatives.min() >= 0 and negatives.max() < num_entities

    def test_bernoulli_collision_free_at_tiny_entity_counts(self, tiny_graph):
        sampler = BernoulliNegativeSampler(tiny_graph, num_negatives=30, rng=5)
        positives = np.zeros(8, dtype=np.int64)
        relations = np.zeros(8, dtype=np.int64)
        negatives = sampler.sample(positives, relations=relations)
        assert not np.any(negatives == positives[:, None])

    def test_masked_fallback_is_exact(self):
        """Force the fallback path: it must draw uniformly over non-positives."""
        sampler = UniformNegativeSampler(num_entities=2, num_negatives=8, rng=0)
        sampler._max_resample_passes = 0  # every collision goes to the fallback
        positives = np.array([0, 1, 0, 1])
        negatives = sampler.sample(positives)
        assert not np.any(negatives == positives[:, None])

    def test_uniform_invalid_args(self):
        with pytest.raises(ValueError):
            UniformNegativeSampler(num_entities=1, num_negatives=2)
        with pytest.raises(ValueError):
            UniformNegativeSampler(num_entities=5, num_negatives=0)

    def test_bernoulli_prefers_relation_entities(self):
        profile = GeneratorProfile(name="tiny", num_entities=60, num_clusters=4, seed=0)
        graph = generate_knowledge_graph(profile)
        sampler = BernoulliNegativeSampler(graph, num_negatives=20, rng=0, consistent_fraction=1.0)
        relation = 0
        pool = set(sampler._entities_by_relation[relation].tolist())
        positives = graph.train[graph.train[:, 1] == relation][:4, 2]
        negatives = sampler.sample(positives, relations=np.full(len(positives), relation))
        in_pool = np.mean([int(v) in pool for v in negatives.ravel()])
        assert in_pool > 0.9

    def test_bernoulli_invalid_fraction(self, tiny_graph):
        with pytest.raises(ValueError):
            BernoulliNegativeSampler(tiny_graph, num_negatives=2, consistent_fraction=1.5)

    def test_deterministic_given_seed(self):
        a = UniformNegativeSampler(20, 5, rng=3).sample(np.arange(4))
        b = UniformNegativeSampler(20, 5, rng=3).sample(np.arange(4))
        np.testing.assert_array_equal(a, b)
