"""Cross-dataset transfer of searched scoring functions (Table V).

The paper's distinctiveness argument: the SF searched on dataset A performs
best *on A* — applying it to dataset B loses against B's own searched SF.
This module trains a given set of (dataset, structure) pairs in every
combination and returns the full MRR matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from repro.datasets.knowledge_graph import KnowledgeGraph
from repro.kge.model import KGEModel, train_model
from repro.kge.scoring.blocks import BlockStructure
from repro.utils.config import TrainingConfig


@dataclass
class TransferResult:
    """MRR of every searched structure evaluated on every dataset."""

    dataset_names: List[str]
    #: matrix[source][target] = test MRR of the SF searched on ``source``
    #: when trained and evaluated on ``target``.
    matrix: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def mrr(self, source: str, target: str) -> float:
        return self.matrix[source][target]

    def diagonal_wins(self) -> Dict[str, bool]:
        """For every target dataset, does its own searched SF win the column?"""
        wins: Dict[str, bool] = {}
        for target in self.dataset_names:
            column = {source: self.matrix[source][target] for source in self.dataset_names}
            best_source = max(column, key=column.get)
            wins[target] = best_source == target
        return wins

    def as_rows(self) -> List[Dict[str, object]]:
        """Rows suitable for tabular printing (one per source dataset)."""
        rows: List[Dict[str, object]] = []
        for source in self.dataset_names:
            row: Dict[str, object] = {"searched_on": source}
            for target in self.dataset_names:
                row[target] = round(self.matrix[source][target], 3)
            rows.append(row)
        return rows


def transfer_matrix(
    graphs: Mapping[str, KnowledgeGraph],
    structures: Mapping[str, BlockStructure],
    config: Optional[TrainingConfig] = None,
    split: str = "test",
    train: Optional[Callable[[str, BlockStructure], KGEModel]] = None,
) -> TransferResult:
    """Train every searched structure on every dataset and evaluate it.

    Parameters
    ----------
    graphs:
        ``{dataset name: graph}`` — the evaluation targets (columns).
    structures:
        ``{dataset name: structure searched on that dataset}`` (rows).
    train:
        Optional ``train(target name, structure) -> model``; the default
        trains ``structure`` on ``graphs[target]`` with ``config``.  A caller
        that already trained some cells passes its cache here.
    """
    if train is None:

        def train(target: str, structure: BlockStructure) -> KGEModel:
            return train_model(graphs[target], structure, config)

    names = [name for name in structures if name in graphs]
    if not names:
        raise ValueError("structures and graphs share no dataset names")
    result = TransferResult(dataset_names=names)
    for source in names:
        result.matrix[source] = {}
        for target in names:
            model = train(target, structures[source])
            evaluation = model.evaluate(graphs[target], split=split)
            result.matrix[source][target] = evaluation.mrr
    return result
