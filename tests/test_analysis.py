"""Tests for the analysis package: case study, transfer matrix, reporting."""

import pytest
from invariance_oracle import sign_flip

from repro.analysis import (
    CaseStudy,
    TransferResult,
    describe_structure,
    format_series,
    format_table,
    transfer_matrix,
)
from repro.analysis.case_study import equivalent_classical_model
from repro.analysis.reporting import format_paper_comparison
from repro.core.search_space import random_structure
from repro.datasets import dataset_statistics
from repro.kge.scoring import classical_structure
from repro.utils.config import TrainingConfig


class TestCaseStudy:
    def test_equivalent_classical_model_detection(self):
        assert equivalent_classical_model(classical_structure("distmult")) == "distmult"
        disguised = sign_flip(classical_structure("simple"), (-1, 1, 1, -1))
        assert equivalent_classical_model(disguised) == "simple"

    def test_novel_structure_detected(self):
        novel = random_structure(6, rng=3, require_c2=True)
        # A 6-block random structure is essentially never a classical model
        # (Analogy is the only 6-block classical structure).
        if equivalent_classical_model(novel) is None:
            assert CaseStudy("d", novel, 0.5).is_novel()
        else:  # pragma: no cover - astronomically unlikely, but keep the test honest
            assert not CaseStudy("d", novel, 0.5).is_novel()

    def test_describe_structure_mentions_key_facts(self):
        text = describe_structure(classical_structure("complex"))
        assert "blocks: 8" in text
        assert "can be symmetric: True" in text
        assert "equivalent classical model: complex" in text

    def test_report_includes_dataset_statistics(self, tiny_graph):
        statistics = dataset_statistics(tiny_graph)
        study = CaseStudy(tiny_graph.name, classical_structure("simple"), 0.42, statistics)
        report = study.report()
        assert tiny_graph.name in report
        assert "0.420" in report

    def test_alignment_fields(self, tiny_graph):
        statistics = dataset_statistics(tiny_graph)
        study = CaseStudy(tiny_graph.name, classical_structure("distmult"), 0.3, statistics)
        alignment = study.relation_pattern_alignment()
        assert alignment["can_model_symmetric"] is True
        assert alignment["can_model_anti_symmetric"] is False
        assert "dataset_symmetric_relations" in alignment

    def test_srf_passthrough(self):
        study = CaseStudy("d", classical_structure("simple"), 0.1)
        assert len(study.srf()) == 22


class TestTransfer:
    def test_transfer_matrix_structure(self, tiny_graph, micro_graph):
        graphs = {"tiny": tiny_graph, "micro": micro_graph}
        structures = {
            "tiny": classical_structure("simple"),
            "micro": classical_structure("distmult"),
        }
        config = TrainingConfig(dimension=8, epochs=3, batch_size=64, seed=0)
        result = transfer_matrix(graphs, structures, config, split="valid")
        assert set(result.dataset_names) == {"tiny", "micro"}
        assert 0.0 <= result.mrr("tiny", "micro") <= 1.0
        rows = result.as_rows()
        assert len(rows) == 2
        assert rows[0]["searched_on"] in ("tiny", "micro")

    def test_diagonal_wins_logic(self):
        result = TransferResult(
            dataset_names=["a", "b"],
            matrix={"a": {"a": 0.9, "b": 0.2}, "b": {"a": 0.5, "b": 0.6}},
        )
        wins = result.diagonal_wins()
        assert wins == {"a": True, "b": True}

    def test_diagonal_loss_detected(self):
        result = TransferResult(
            dataset_names=["a", "b"],
            matrix={"a": {"a": 0.3, "b": 0.7}, "b": {"a": 0.5, "b": 0.6}},
        )
        assert result.diagonal_wins()["a"] is False

    def test_no_common_names_raises(self, tiny_graph):
        with pytest.raises(ValueError):
            transfer_matrix({"x": tiny_graph}, {"y": classical_structure("simple")})


class TestReporting:
    def test_format_table_alignment_and_title(self):
        rows = [{"model": "DistMult", "mrr": 0.821}, {"model": "AutoSF", "mrr": 0.853}]
        text = format_table(rows, title="Table IV")
        assert text.startswith("Table IV")
        assert "DistMult" in text and "0.853" in text
        lines = text.splitlines()
        assert len(lines) == 5  # title, header, separator, 2 rows

    def test_format_table_missing_cells(self):
        rows = [{"a": 1}, {"b": 2.5}]
        text = format_table(rows)
        assert "-" in text

    def test_format_table_explicit_columns(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_format_series_pads_short_series(self):
        text = format_series({"long": [1, 2, 3], "short": [5]}, title="curves")
        lines = text.splitlines()
        assert len(lines) == 6  # title + header + separator + 3 steps
        # The short series is padded with its last value on every later step.
        assert "5" in lines[-1]

    def test_format_series_empty(self):
        assert format_series({}, title="nothing") == "nothing"

    def test_format_paper_comparison_orders_columns(self):
        rows = [{"dataset": "wn18", "mrr": 0.91, "mrr_paper": 0.95}]
        text = format_paper_comparison(rows, metric_columns=["mrr"], title="cmp")
        header = text.splitlines()[1]
        assert header.index("dataset") < header.index("mrr") < header.index("mrr_paper")

    def test_format_table_booleans(self):
        text = format_table([{"win": True}, {"win": False}])
        assert "yes" in text and "no" in text
