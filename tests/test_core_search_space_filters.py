"""Tests for search-space generation and the candidate filter."""

import hashlib

import numpy as np
import pytest
from invariance_oracle import sign_flip

from repro.core.constraints import satisfies_c2
from repro.core.filters import CandidateFilter
from repro.core.invariance import are_equivalent, canonical_key
from repro.core.search_space import (
    NUM_CELLS,
    enumerate_f4_structures,
    extend_structure,
    iterate_random_structures,
    random_block,
    random_structure,
    search_space_size,
    total_search_space_size,
)
from repro.kge.scoring import classical_structure


@pytest.fixture(scope="module")
def f4_seeds():
    return enumerate_f4_structures(deduplicate=True)


class TestF4Enumeration:
    def test_exactly_five_distinct_seeds(self, f4_seeds):
        """The paper reports exactly 5 good, unique candidates at b = 4."""
        assert len(f4_seeds) == 5

    def test_all_seeds_satisfy_c2(self, f4_seeds):
        assert all(satisfies_c2(seed) for seed in f4_seeds)

    def test_seeds_pairwise_inequivalent(self, f4_seeds):
        keys = {canonical_key(seed) for seed in f4_seeds}
        assert len(keys) == len(f4_seeds)

    def test_distmult_and_simple_among_seeds(self, f4_seeds):
        """DistMult and SimplE/CP are 4-block models, so they must be covered."""
        assert any(are_equivalent(seed, classical_structure("distmult")) for seed in f4_seeds)
        assert any(are_equivalent(seed, classical_structure("simple")) for seed in f4_seeds)

    def test_seeds_pinned_in_order(self, f4_seeds):
        assert [seed.key() for seed in f4_seeds] == [
            ((0, 0, 0, 1), (1, 1, 1, 1), (2, 2, 2, 1), (3, 3, 3, 1)),
            ((0, 0, 0, 1), (1, 1, 1, 1), (2, 3, 2, 1), (3, 2, 3, 1)),
            ((0, 0, 0, 1), (1, 2, 1, 1), (2, 3, 2, 1), (3, 1, 3, 1)),
            ((0, 1, 0, 1), (1, 0, 1, 1), (2, 3, 2, 1), (3, 2, 3, 1)),
            ((0, 1, 0, 1), (1, 2, 1, 1), (2, 3, 2, 1), (3, 0, 3, 1)),
        ]

    def test_without_dedup_much_larger(self):
        """All 4! * 4! * 2^4 raw candidates, each satisfying (C2) by construction."""
        raw = enumerate_f4_structures(deduplicate=False)
        assert len(raw) == 9216
        assert all(satisfies_c2(structure) for structure in raw)

    def test_raw_order_pinned(self):
        """Raw candidates run over (cell perm, component perm, signs), cell perm outermost."""
        keys = [structure.key() for structure in enumerate_f4_structures(deduplicate=False)]
        assert keys[0] == ((0, 0, 0, 1), (1, 1, 1, 1), (2, 2, 2, 1), (3, 3, 3, 1))
        assert keys[-1] == ((0, 3, 3, -1), (1, 2, 2, -1), (2, 1, 1, -1), (3, 0, 0, -1))
        digest = hashlib.sha256(repr(keys).encode()).hexdigest()
        assert digest == "e7e31ebb153e51e7598dbe312077b594a62f8d543ac62c8a874dfa29e9264660"


class TestRandomGeneration:
    def test_random_block_respects_exclusions(self):
        exclusions = [(i, j) for i in range(4) for j in range(4)][:-1]
        block = random_block(rng=0, exclude_cells=exclusions)
        assert (block[0], block[1]) == (3, 3)

    def test_random_block_all_cells_taken(self):
        exclusions = [(i, j) for i in range(4) for j in range(4)]
        with pytest.raises(ValueError):
            random_block(rng=0, exclude_cells=exclusions)

    def test_random_structure_block_count_and_c2(self):
        structure = random_structure(6, rng=0, require_c2=True)
        assert structure is not None
        assert structure.num_blocks == 6
        assert satisfies_c2(structure)

    def test_random_structure_without_c2(self):
        structure = random_structure(2, rng=0, require_c2=False)
        assert structure is not None
        assert structure.num_blocks == 2

    def test_random_structure_invalid_count(self):
        with pytest.raises(ValueError):
            random_structure(0)
        with pytest.raises(ValueError):
            random_structure(NUM_CELLS + 1)

    def test_iterate_random_structures_count(self):
        structures = list(iterate_random_structures(6, 5, rng=1))
        assert len(structures) == 5

    def test_extend_structure_adds_two_blocks(self, f4_seeds):
        parent = f4_seeds[0]
        child = extend_structure(parent, num_new_blocks=2, rng=0)
        assert child is not None
        assert child.num_blocks == parent.num_blocks + 2
        assert set(parent.blocks).issubset(set(child.blocks))

    def test_extend_structure_full_matrix_returns_none(self):
        full = random_structure(16, rng=0, require_c2=False)
        assert extend_structure(full, num_new_blocks=2, rng=0) is None

    def test_extension_deterministic_given_seed(self, f4_seeds):
        a = extend_structure(f4_seeds[1], rng=7)
        b = extend_structure(f4_seeds[1], rng=7)
        assert a.key() == b.key()


class TestSpaceSizes:
    def test_f6_size_matches_paper_order_of_magnitude(self):
        # The paper quotes roughly 2 * 10^9 possible f6 structures.
        assert search_space_size(6) == pytest.approx(2.05e9, rel=0.05)

    def test_total_space_is_9_to_16(self):
        assert total_search_space_size() == 9**16

    def test_invalid_block_count(self):
        with pytest.raises(ValueError):
            search_space_size(17)


class TestCandidateFilter:
    def test_accepts_valid_candidate(self):
        candidate_filter = CandidateFilter()
        assert candidate_filter.accept(classical_structure("complex"))
        assert candidate_filter.statistics.accepted == 1

    def test_rejects_c2_violation(self):
        candidate_filter = CandidateFilter()
        bad = random_structure(4, rng=0, require_c2=False)
        # Find a structure violating C2 (the diagonal-with-one-component one).
        from repro.kge.scoring import BlockStructure
        bad = BlockStructure([(i, i, 0, 1) for i in range(4)])
        assert not candidate_filter.accept(bad)
        assert candidate_filter.statistics.rejected_constraint == 1

    def test_rejects_equivalent_duplicate(self):
        candidate_filter = CandidateFilter()
        structure = classical_structure("simple")
        assert candidate_filter.accept(structure)
        flipped = sign_flip(structure, (-1, 1, 1, 1))
        assert not candidate_filter.accept(flipped)
        assert candidate_filter.statistics.rejected_duplicate == 1

    def test_history_recording_blocks_retraining(self):
        candidate_filter = CandidateFilter()
        structure = classical_structure("analogy")
        candidate_filter.record_history(structure)
        assert candidate_filter.has_seen(structure)
        assert not candidate_filter.accept(structure)

    def test_disabled_constraints_accepts_degenerate(self):
        from repro.kge.scoring import BlockStructure
        candidate_filter = CandidateFilter(enforce_constraints=False)
        degenerate = BlockStructure([(i, i, 0, 1) for i in range(4)])
        assert candidate_filter.accept(degenerate)

    def test_disabled_dedup_accepts_equivalents(self):
        candidate_filter = CandidateFilter(deduplicate=False)
        structure = classical_structure("simple")
        assert candidate_filter.accept(structure)
        assert candidate_filter.accept(sign_flip(structure, (-1, 1, 1, 1)))

    def test_explain_does_not_mutate_state(self):
        candidate_filter = CandidateFilter()
        structure = classical_structure("complex")
        assert candidate_filter.explain(structure) is None
        assert candidate_filter.statistics.total_seen == 0
        candidate_filter.accept(structure)
        assert candidate_filter.explain(structure) == "equivalent structure already seen"

    def test_statistics_dict(self):
        candidate_filter = CandidateFilter()
        candidate_filter.accept(classical_structure("complex"))
        stats = candidate_filter.statistics.as_dict()
        assert stats["accepted"] == 1
        assert stats["total_seen"] == 1
