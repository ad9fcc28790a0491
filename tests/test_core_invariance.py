"""Tests for the invariance group and canonical forms."""

import numpy as np
import pytest
from invariance_oracle import (
    encode_key,
    entity_permutation,
    orbit,
    orbit_set,
    relation_permutation,
    sign_flip,
)

from repro.core.invariance import (
    are_equivalent,
    canonical_form,
    canonical_key,
    canonical_matrix,
    distinct_representatives,
    matrix_codes,
    orbit_codes,
)
from repro.kge.scoring import BlockScoringFunction, BlockStructure, classical_structure


@pytest.fixture(scope="module")
def simple():
    return classical_structure("simple")


@pytest.fixture(scope="module")
def complex_sf():
    return classical_structure("complex")


class TestGroupActions:
    def test_entity_permutation_moves_rows_and_columns(self):
        structure = BlockStructure([(0, 1, 2, 1)])
        permuted = entity_permutation(structure, (1, 0, 2, 3))
        assert permuted.blocks == ((1, 0, 2, 1),)

    def test_relation_permutation_renames_component(self):
        structure = BlockStructure([(0, 1, 2, 1)])
        renamed = relation_permutation(structure, (3, 2, 1, 0))
        assert renamed.blocks == ((0, 1, 1, 1),)

    def test_sign_flip_only_touches_selected_components(self):
        structure = BlockStructure([(0, 1, 2, 1), (2, 3, 0, -1)])
        flipped = sign_flip(structure, (1, 1, -1, 1))
        assert (0, 1, 2, -1) in flipped.blocks
        assert (2, 3, 0, -1) in flipped.blocks

    def test_identity_permutation_is_noop(self, simple):
        assert entity_permutation(simple, (0, 1, 2, 3)).key() == simple.key()
        assert relation_permutation(simple, (0, 1, 2, 3)).key() == simple.key()
        assert sign_flip(simple, (1, 1, 1, 1)).key() == simple.key()


class TestOrbit:
    def test_orbit_contains_structure_itself(self, simple):
        assert simple.key() in orbit_set(simple)

    def test_orbit_size_bounded(self, simple):
        assert len(orbit_set(simple)) <= 24 * 24 * 16

    def test_orbit_members_preserve_block_count(self, complex_sf):
        members = list(orbit(complex_sf))[:200]
        assert all(member.num_blocks == complex_sf.num_blocks for member in members)

    def test_distmult_orbit_is_small(self):
        """DistMult is highly symmetric, so its orbit collapses heavily."""
        distmult = classical_structure("distmult")
        assert len(orbit_set(distmult)) < 9216


class TestOrbitCodes:
    """The vectorized orbit equals the per-element oracle's, encoded."""

    @pytest.mark.parametrize(
        "structure",
        [classical_structure(name) for name in ("distmult", "complex", "analogy", "simple")]
        + [
            BlockStructure(
                [(0, 0, 0, 1), (0, 2, 1, -1), (1, 1, 2, -1), (2, 3, 3, 1), (3, 0, 1, 1), (3, 2, 0, -1)]
            )
        ],
        ids=["distmult", "complex", "analogy", "simple", "six_blocks"],
    )
    def test_orbit_codes_match_oracle(self, structure):
        expected = {encode_key(key) for key in orbit_set(structure)}
        codes = orbit_codes(structure.substitute_matrix())
        assert codes.shape == (9216,)
        assert set(codes.tolist()) == expected
        assert encode_key(structure.key()) in expected
        assert int(matrix_codes(np.array(canonical_key(structure)))) == min(expected)


class TestCanonicalForm:
    def test_canonical_key_constant_on_orbit(self, simple):
        key = canonical_key(simple)
        members = list(orbit(simple))
        sample = members[:: max(len(members) // 50, 1)]
        assert all(canonical_key(member) == key for member in sample)

    def test_canonical_form_is_idempotent(self, complex_sf):
        canonical = canonical_form(complex_sf)
        assert canonical_key(canonical) == canonical_key(complex_sf)
        assert canonical_form(canonical).key() == canonical.key()

    def test_canonical_matrix_is_member_of_orbit(self, simple):
        canonical = BlockStructure.from_substitute_matrix(canonical_matrix(simple))
        assert canonical.key() in orbit_set(simple)

    def test_equivalent_structures_detected(self, simple):
        transformed = sign_flip(
            relation_permutation(entity_permutation(simple, (2, 0, 3, 1)), (1, 3, 0, 2)),
            (-1, 1, -1, 1),
        )
        assert are_equivalent(simple, transformed)

    def test_inequivalent_structures_detected(self):
        assert not are_equivalent(classical_structure("distmult"), classical_structure("simple"))
        assert not are_equivalent(classical_structure("complex"), classical_structure("analogy"))

    def test_distinct_representatives_collapses_orbit(self, simple):
        members = list(orbit(simple))[:100] + [classical_structure("distmult")]
        representatives = distinct_representatives(members)
        assert len(representatives) == 2

    def test_distinct_representatives_preserves_order(self, simple):
        distmult = classical_structure("distmult")
        representatives = distinct_representatives([distmult, simple, distmult])
        assert representatives[0].key() == distmult.key()
        assert len(representatives) == 2


class TestInvarianceSemantics:
    """Equivalent structures really are the same model up to re-parameterization."""

    def test_entity_permutation_preserves_scores(self, rng):
        structure = classical_structure("analogy")
        perm = (2, 0, 3, 1)
        permuted = entity_permutation(structure, perm)
        dimension, chunk = 16, 4
        h, r, t = rng.normal(size=(3, dimension))

        def permute_vector(vector):
            chunks = vector.reshape(4, chunk)
            out = np.empty_like(chunks)
            for source in range(4):
                out[perm[source]] = chunks[source]
            return out.reshape(-1)

        original = structure.score(h, r, t)
        transformed = permuted.score(permute_vector(h), r, permute_vector(t))
        assert original == pytest.approx(transformed)

    def test_relation_permutation_preserves_scores(self, rng):
        structure = classical_structure("simple")
        perm = (1, 3, 0, 2)
        permuted = relation_permutation(structure, perm)
        dimension, chunk = 16, 4
        h, r, t = rng.normal(size=(3, dimension))

        chunks = r.reshape(4, chunk)
        permuted_r = np.empty_like(chunks)
        for source in range(4):
            permuted_r[perm[source]] = chunks[source]
        assert structure.score(h, r, t) == pytest.approx(permuted.score(h, permuted_r.reshape(-1), t))

    def test_sign_flip_preserves_scores(self, rng):
        structure = classical_structure("complex")
        flips = (1, -1, 1, -1)
        flipped = sign_flip(structure, flips)
        dimension, chunk = 16, 4
        h, r, t = rng.normal(size=(3, dimension))
        flipped_r = (r.reshape(4, chunk) * np.array(flips)[:, None]).reshape(-1)
        assert structure.score(h, r, t) == pytest.approx(flipped.score(h, flipped_r, t))
