"""JSON serialization helpers that understand NumPy scalars and arrays."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Union

import numpy as np

PathLike = Union[str, Path]


class _NumpyAwareEncoder(json.JSONEncoder):
    """JSON encoder that downgrades NumPy types to plain Python."""

    def default(self, o: Any) -> Any:  # noqa: D102 - inherited contract
        if isinstance(o, np.integer):
            return int(o)
        if isinstance(o, np.floating):
            return float(o)
        if isinstance(o, np.bool_):
            return bool(o)
        if isinstance(o, np.ndarray):
            return o.tolist()
        if dataclasses.is_dataclass(o) and not isinstance(o, type):
            return dataclasses.asdict(o)
        if isinstance(o, set):
            return sorted(o)
        return super().default(o)


def to_json_string(data: Any, indent: int = 2) -> str:
    """Serialize ``data`` to a JSON string, accepting NumPy values."""
    return json.dumps(data, indent=indent, sort_keys=True, cls=_NumpyAwareEncoder)


def to_json_file(data: Any, path: PathLike, indent: int = 2) -> Path:
    """Write ``data`` as JSON to ``path`` and return the resolved path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(to_json_string(data, indent=indent), encoding="utf-8")
    return target


def from_json_file(path: PathLike) -> Any:
    """Load JSON from ``path``."""
    return json.loads(Path(path).read_text(encoding="utf-8"))
