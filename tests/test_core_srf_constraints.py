"""Tests for symmetry-related features, expressiveness and constraints."""

import numpy as np
import pytest
from invariance_oracle import entity_permutation, relation_permutation, sign_flip

from repro.core.constraints import check_structure, satisfies_c1, satisfies_c2
from repro.core.srf import (
    NUM_SRF_CASES,
    ONEHOT_DIMENSION,
    SRF_DIMENSION,
    can_be_skew_symmetric,
    can_be_symmetric,
    case_feature,
    is_expressive,
    onehot_features,
    srf_feature_names,
    srf_features,
    srf_summary,
)
from repro.kge.scoring import BlockStructure, classical_structure


class TestSRFBasics:
    def test_dimension(self):
        assert SRF_DIMENSION == 22
        features = srf_features(classical_structure("complex"))
        assert features.shape == (22,)
        assert set(np.unique(features)).issubset({0.0, 1.0})

    def test_feature_names(self):
        names = srf_feature_names()
        assert len(names) == 22
        assert names[0] == "S1-sym"
        assert names[1] == "S1-skew"

    def test_summary_matches_features(self):
        structure = classical_structure("simple")
        summary = srf_summary(structure)
        features = srf_features(structure)
        assert [summary[name] for name in srf_feature_names()] == features.astype(int).tolist()

    def test_case_feature_bounds(self):
        with pytest.raises(IndexError):
            case_feature(classical_structure("distmult"), NUM_SRF_CASES)


class TestExpressiveness:
    """Table I: which relation types each classical SF can model."""

    def test_distmult_symmetric_only(self):
        distmult = classical_structure("distmult")
        assert can_be_symmetric(distmult)
        assert not can_be_skew_symmetric(distmult)
        assert not is_expressive(distmult)

    @pytest.mark.parametrize("name", ["complex", "analogy", "simple"])
    def test_expressive_models(self, name):
        structure = classical_structure(name)
        assert can_be_symmetric(structure)
        assert can_be_skew_symmetric(structure)
        assert is_expressive(structure)

    def test_single_asymmetric_block_not_symmetric(self):
        structure = BlockStructure([(0, 1, 0, 1)])
        assert not can_be_symmetric(structure)

    def test_single_diagonal_block_cannot_be_skew(self):
        structure = BlockStructure([(0, 0, 0, 1)])
        assert can_be_symmetric(structure)
        assert not can_be_skew_symmetric(structure)

    def test_off_diagonal_pair_with_opposite_signs_is_skew_capable(self):
        structure = BlockStructure([(0, 1, 0, 1), (1, 0, 0, -1)])
        assert can_be_skew_symmetric(structure)

    def test_skew_check_ignores_all_zero_assignment(self):
        """A structure is not 'skew-symmetric' just because r = 0 makes g = 0."""
        structure = BlockStructure([(0, 0, 0, 1), (1, 1, 1, 1)])
        assert not can_be_skew_symmetric(structure)


class TestSRFInvariance:
    """Proposition 2(i): SRFs are invariant on invariance-group orbits."""

    @pytest.mark.parametrize("name", ["distmult", "complex", "analogy", "simple"])
    def test_invariant_under_group_actions(self, name):
        structure = classical_structure(name)
        reference = srf_features(structure)
        transformed = sign_flip(
            relation_permutation(entity_permutation(structure, (3, 1, 0, 2)), (2, 0, 3, 1)),
            (-1, 1, 1, -1),
        )
        np.testing.assert_array_equal(srf_features(transformed), reference)

    def test_different_models_have_different_srf(self):
        assert not np.array_equal(
            srf_features(classical_structure("distmult")), srf_features(classical_structure("complex"))
        )


class TestOneHotFeatures:
    def test_dimension_and_sparsity(self):
        structure = classical_structure("complex")
        features = onehot_features(structure)
        assert features.shape == (ONEHOT_DIMENSION,)
        assert features.sum() == 16  # one active value per cell

    def test_not_invariant_under_permutation(self):
        """One-hot features change under equivalent transformations (why SRF wins)."""
        structure = classical_structure("simple")
        permuted = entity_permutation(structure, (1, 0, 3, 2))
        assert not np.array_equal(onehot_features(structure), onehot_features(permuted))


class TestConstraints:
    def test_classical_models_satisfy_c2(self):
        for name in ("distmult", "complex", "analogy", "simple"):
            assert satisfies_c2(classical_structure(name))

    def test_zero_row_detected(self):
        structure = BlockStructure([(0, 0, 0, 1), (0, 1, 1, 1), (1, 2, 2, 1), (2, 3, 3, 1)])
        report = check_structure(structure, check_expressiveness=False)
        assert not report.no_zero_rows
        assert not report.satisfies_c2
        assert "zero row" in report.violations()

    def test_zero_column_detected(self):
        structure = BlockStructure([(0, 0, 0, 1), (1, 0, 1, 1), (2, 1, 2, 1), (3, 2, 3, 1)])
        report = check_structure(structure, check_expressiveness=False)
        assert not report.no_zero_columns

    def test_missing_component_detected(self):
        structure = BlockStructure([(i, i, 0, 1) for i in range(4)])
        report = check_structure(structure, check_expressiveness=False)
        assert not report.covers_all_components
        assert "unused relation chunk" in report.violations()

    def test_repeated_rows_detected(self):
        # Rows 0 and 1 both have +r1 in column 0/1 respectively... construct
        # genuinely identical rows: same values in the same columns.
        structure = BlockStructure(
            [(0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 1, 1), (1, 1, 1, 1), (2, 2, 2, 1), (3, 3, 3, 1)]
        )
        report = check_structure(structure, check_expressiveness=False)
        assert not report.no_repeated_rows

    def test_satisfies_c1_and_c2_for_complex(self):
        structure = classical_structure("complex")
        assert satisfies_c1(structure)
        report = check_structure(structure)
        assert report.satisfies_all
        assert report.violations() == []

    def test_distmult_fails_c1_only(self):
        report = check_structure(classical_structure("distmult"))
        assert report.satisfies_c2
        assert not report.satisfies_c1
        assert "cannot be skew-symmetric" in report.violations()
