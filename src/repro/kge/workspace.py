"""Scratch arrays that one training fit reuses from mini-batch to mini-batch.

A training step needs the same temporaries every time: the dense gradient,
the optimizer's and regularizer's elementwise intermediates, and the
pairwise kernel's ``(batch, candidates)`` score matrices.  Allocated and
freed on every step, their pages go back to the operating system and fault
in again each time.  A :class:`Workspace` keeps one buffer per name instead;
:class:`repro.kge.engine.TrainEngine` holds one for the duration of each
``Trainer.fit`` and drops it when ``fit`` returns.

Every user writes into the buffers with ``out=`` forms of the operations of
the allocating expression, in the same order, so results are bit for bit
the same.  Code called without a workspace makes a throwaway one
(:meth:`Workspace.scratch`) and runs the same statements.

A workspace belongs to one caller at a time: it is never stored on a
module or a scoring function, and a function returns one of its buffers
only to a caller that passed the workspace (or the ``out=`` buffer) in.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

ParamDict = Dict[str, np.ndarray]


class Workspace:
    """Named, growable buffers handed out as views of any shape."""

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}

    @staticmethod
    def scratch(workspace: Optional["Workspace"]) -> "Workspace":
        """``workspace``, or a fresh one whose buffers live for one call."""
        return workspace if workspace is not None else Workspace()

    def empty(self, name: str, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A C-contiguous array of ``shape`` over buffer ``name``, contents undefined.

        A later request for the same name reuses the buffer when it is large
        enough and grows it by at least a quarter otherwise, so sizes that
        drift from step to step (the pairwise kernel's candidate count)
        settle after a few reallocations.
        """
        size = math.prod(shape)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.dtype != dtype:
            buffer = self._buffers[name] = np.empty(size, dtype=dtype)
        elif buffer.size < size:
            grown = max(size, buffer.size + buffer.size // 4)
            buffer = self._buffers[name] = np.empty(grown, dtype=dtype)
        return buffer[:size].reshape(shape)

    def zeros(self, name: str, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """Like :meth:`empty`, filled with zeros."""
        array = self.empty(name, shape, dtype)
        array.fill(0)
        return array

    def empty_like(self, name: str, template: np.ndarray) -> np.ndarray:
        """:meth:`empty` with ``template``'s shape and dtype."""
        return self.empty(name, template.shape, template.dtype)

    def zeros_like(self, prefix: str, arrays: ParamDict) -> ParamDict:
        """A zero-filled buffer per entry of ``arrays``, named ``prefix/key``."""
        return {
            key: self.zeros(f"{prefix}/{key}", value.shape, value.dtype)
            for key, value in arrays.items()
        }
