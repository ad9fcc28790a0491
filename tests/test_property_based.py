"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings

pytestmark = pytest.mark.property  # tier 2: run with --runslow
from hypothesis import strategies as st
from invariance_oracle import (
    encode_key,
    entity_permutation,
    orbit_set,
    relation_permutation,
    sign_flip,
)

from repro.core.constraints import satisfies_c2
from repro.core.invariance import (
    are_equivalent,
    canonical_form,
    canonical_key,
    matrix_codes,
    orbit_codes,
)
from repro.core.search_space import random_structure
from repro.core.srf import srf_features
from repro.kge.losses import HingeLoss, LogisticLoss, MulticlassLoss
from repro.kge.scoring import BlockScoringFunction, BlockStructure
from repro.kge.scoring.base import TAIL
from repro.kge.scoring.blocks import NUM_CHUNKS

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
block_strategy = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.sampled_from([-1, 1])
)


@st.composite
def structures(draw, min_blocks=1, max_blocks=8):
    """Random valid block structures (distinct cells, 1-8 blocks)."""
    num_blocks = draw(st.integers(min_blocks, max_blocks))
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            min_size=num_blocks,
            max_size=num_blocks,
            unique=True,
        )
    )
    blocks = []
    for row, col in cells:
        component = draw(st.integers(0, 3))
        sign = draw(st.sampled_from([-1, 1]))
        blocks.append((row, col, component, sign))
    return BlockStructure(blocks)


@st.composite
def c2_structures(draw):
    """Random structures of 4-16 blocks satisfying (C2), by rejection sampling."""
    structure = random_structure(draw(st.integers(4, 16)), rng=draw(st.integers(0, 2**31 - 1)))
    assume(structure is not None)
    return structure


permutation_strategy = st.permutations(list(range(NUM_CHUNKS)))
flips_strategy = st.tuples(*([st.sampled_from([-1, 1])] * NUM_CHUNKS))

_settings = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# Invariance properties
# ----------------------------------------------------------------------
class TestInvarianceProperties:
    @_settings
    @given(structures(), permutation_strategy, permutation_strategy, flips_strategy)
    def test_canonical_key_invariant_under_group(self, structure, entity_perm, relation_perm, flips):
        transformed = sign_flip(
            relation_permutation(entity_permutation(structure, tuple(entity_perm)), tuple(relation_perm)),
            flips,
        )
        assert canonical_key(transformed) == canonical_key(structure)

    @_settings
    @given(structures())
    def test_canonical_form_is_fixed_point(self, structure):
        canonical = canonical_form(structure)
        assert canonical_form(canonical).key() == canonical.key()
        assert are_equivalent(structure, canonical)

    @_settings
    @given(structures())
    def test_canonical_form_preserves_block_count(self, structure):
        assert canonical_form(structure).num_blocks == structure.num_blocks

    @_settings
    @given(structures(), permutation_strategy, flips_strategy)
    def test_srf_invariant_on_orbit(self, structure, entity_perm, flips):
        """Proposition 2(i): SRFs do not change under the invariance group."""
        transformed = sign_flip(entity_permutation(structure, tuple(entity_perm)), flips)
        np.testing.assert_array_equal(srf_features(transformed), srf_features(structure))

    @_settings
    @given(structures(), permutation_strategy, permutation_strategy, flips_strategy)
    def test_c2_invariant_under_group(self, structure, entity_perm, relation_perm, flips):
        """Constraint C2 is a property of the equivalence class, not the member."""
        transformed = sign_flip(
            relation_permutation(entity_permutation(structure, tuple(entity_perm)), tuple(relation_perm)),
            flips,
        )
        assert satisfies_c2(transformed) == satisfies_c2(structure)

    @_settings
    @given(st.one_of(structures(max_blocks=16), c2_structures()))
    def test_orbit_codes_match_oracle(self, structure):
        """The vectorized orbit is the oracle's orbit; the canonical key is its minimum."""
        expected = {encode_key(key) for key in orbit_set(structure)}
        assert set(orbit_codes(structure.substitute_matrix()).tolist()) == expected
        assert int(matrix_codes(np.array(canonical_key(structure)))) == min(expected)


# ----------------------------------------------------------------------
# Scoring properties
# ----------------------------------------------------------------------
class TestScoringProperties:
    @_settings
    @given(structures(), st.integers(0, 2**31 - 1))
    def test_block_score_is_linear_in_relation(self, structure, seed):
        """f(h, r, t) is linear in r: f(h, a*r1 + b*r2, t) = a*f(h,r1,t) + b*f(h,r2,t)."""
        rng = np.random.default_rng(seed)
        dimension = 8
        h, r1, r2, t = rng.normal(size=(4, dimension))
        a, b = rng.normal(size=2)
        left = structure.score(h, a * r1 + b * r2, t)
        right = a * structure.score(h, r1, t) + b * structure.score(h, r2, t)
        assert left == pytest.approx(right, rel=1e-8, abs=1e-8)

    @_settings
    @given(structures(), st.integers(0, 2**31 - 1))
    def test_batch_scorer_matches_reference(self, structure, seed):
        """The vectorized scorer agrees with the per-triple reference formula."""
        model = BlockScoringFunction(structure)
        params = model.init_params(6, 2, 8, rng=seed, scale=1.0)
        triples = np.array([[0, 0, 1], [2, 1, 3], [4, 0, 5]])
        scores = model.score_triples(params, triples)
        for row, (h, r, t) in enumerate(triples):
            expected = structure.score(
                params["entities"][h], params["relations"][r], params["entities"][t]
            )
            assert scores[row] == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @_settings
    @given(structures(min_blocks=2, max_blocks=6), st.integers(0, 2**31 - 1))
    def test_candidate_scores_consistent_with_triples(self, structure, seed):
        model = BlockScoringFunction(structure)
        params = model.init_params(5, 2, 8, rng=seed, scale=1.0)
        queries = np.array([[0, 0], [3, 1]])
        all_scores = model.score_candidates(params, queries, direction=TAIL)
        for row, (h, r) in enumerate(queries):
            for tail in range(5):
                direct = model.score_triples(params, np.array([[h, r, tail]]))[0]
                assert all_scores[row, tail] == pytest.approx(direct, rel=1e-9, abs=1e-9)


# ----------------------------------------------------------------------
# Loss properties
# ----------------------------------------------------------------------
scores_strategy = st.integers(0, 2**31 - 1)


class TestLossProperties:
    @_settings
    @given(scores_strategy, st.integers(2, 8), st.integers(1, 5))
    def test_multiclass_loss_nonnegative_and_gradient_sums_to_zero(self, seed, num_candidates, batch):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=(batch, num_candidates)) * 3
        targets = rng.integers(0, num_candidates, size=batch)
        value, grad = MulticlassLoss().compute(scores, targets)
        assert value >= 0.0
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-10)

    @_settings
    @given(scores_strategy, st.integers(2, 8), st.integers(1, 5))
    def test_multiclass_invariant_to_constant_shift(self, seed, num_candidates, batch):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=(batch, num_candidates))
        targets = rng.integers(0, num_candidates, size=batch)
        value, _ = MulticlassLoss().compute(scores, targets)
        shifted, _ = MulticlassLoss().compute(scores + 7.3, targets)
        assert value == pytest.approx(shifted, rel=1e-9)

    @_settings
    @given(scores_strategy, st.integers(3, 8), st.integers(1, 4), st.integers(1, 3))
    def test_pairwise_losses_nonnegative(self, seed, num_candidates, batch, num_negatives):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=(batch, num_candidates)) * 2
        targets = rng.integers(0, num_candidates, size=batch)
        negatives = rng.integers(0, num_candidates, size=(batch, num_negatives))
        for loss in (LogisticLoss(), HingeLoss(margin=1.0)):
            value, grad = loss.compute(scores, targets, negatives=negatives)
            assert value >= 0.0
            assert grad.shape == scores.shape

    @_settings
    @given(scores_strategy, st.integers(2, 6), st.integers(1, 4))
    def test_increasing_target_score_decreases_multiclass_loss(self, seed, num_candidates, batch):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=(batch, num_candidates))
        targets = rng.integers(0, num_candidates, size=batch)
        value, _ = MulticlassLoss().compute(scores, targets)
        boosted = scores.copy()
        boosted[np.arange(batch), targets] += 1.0
        improved, _ = MulticlassLoss().compute(boosted, targets)
        assert improved < value


# ----------------------------------------------------------------------
# Structure container properties
# ----------------------------------------------------------------------
class TestStructureProperties:
    @_settings
    @given(structures())
    def test_substitute_matrix_round_trip(self, structure):
        rebuilt = BlockStructure.from_substitute_matrix(structure.substitute_matrix())
        assert rebuilt.key() == structure.key()

    @_settings
    @given(structures())
    def test_transpose_is_involution(self, structure):
        assert structure.transpose().transpose().key() == structure.key()

    @_settings
    @given(structures(), st.integers(0, 2**31 - 1))
    def test_transpose_swaps_head_and_tail(self, structure, seed):
        """h^T g(r) t == t^T g(r)^T h for every structure and embedding."""
        rng = np.random.default_rng(seed)
        h, r, t = rng.normal(size=(3, 8))
        assert structure.score(h, r, t) == pytest.approx(
            structure.transpose().score(t, r, h), rel=1e-9, abs=1e-9
        )
