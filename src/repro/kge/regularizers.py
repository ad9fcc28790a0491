"""Parameter regularizers.

Two regularizers are provided:

* :class:`L2Regularizer` — classic weight decay on every parameter array
  (the ``L2 penalty`` the paper tunes with HyperOpt);
* :class:`N3Regularizer` — the nuclear-3-norm penalty of Lacroix et al.
  (2018), applied to the entity and relation tables only, which is the
  standard companion of the multi-class loss for bilinear models.

A regularizer contributes a scalar penalty and adds its gradient into an
existing gradient dict in place.  The gradient's elementwise intermediates
go into a :class:`~repro.kge.workspace.Workspace` through ``out=`` (a
throwaway one when the caller passes none), in the order of the textbook
expression, so the sum is bit for bit that of the allocating form.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from repro.kge.scoring.base import ParamDict
from repro.kge.workspace import Workspace


class Regularizer(ABC):
    """Base class for penalties added to the training loss."""

    def __init__(self, weight: float) -> None:
        if weight < 0:
            raise ValueError("regularization weight must be non-negative")
        self.weight = float(weight)

    @abstractmethod
    def penalty(self, params: ParamDict) -> float:
        """The scalar penalty value."""

    @abstractmethod
    def add_gradients(
        self, params: ParamDict, grads: ParamDict, workspace: Optional[Workspace] = None
    ) -> None:
        """Accumulate the penalty gradient into ``grads`` in place."""


class L2Regularizer(Regularizer):
    """``weight * sum ||P||_2^2`` over every parameter array."""

    def penalty(self, params: ParamDict) -> float:
        if self.weight == 0:
            return 0.0
        return self.weight * float(sum(np.sum(value * value) for value in params.values()))

    def add_gradients(
        self, params: ParamDict, grads: ParamDict, workspace: Optional[Workspace] = None
    ) -> None:
        if self.weight == 0:
            return
        workspace = Workspace.scratch(workspace)
        scale = 2.0 * self.weight
        for key, value in params.items():
            # grads += 2.0 * weight * value
            grads[key] += np.multiply(scale, value, out=workspace.empty_like(f"{key}/0", value))


class N3Regularizer(Regularizer):
    """``weight * sum |P|^3`` over the entity and relation tables."""

    _targets = ("entities", "relations")

    def penalty(self, params: ParamDict) -> float:
        if self.weight == 0:
            return 0.0
        total = 0.0
        for key in self._targets:
            if key in params:
                total += float(np.sum(np.abs(params[key]) ** 3))
        return self.weight * total

    def add_gradients(
        self, params: ParamDict, grads: ParamDict, workspace: Optional[Workspace] = None
    ) -> None:
        if self.weight == 0:
            return
        workspace = Workspace.scratch(workspace)
        scale = 3.0 * self.weight
        for key in self._targets:
            if key in params:
                # grads += 3.0 * weight * sign(value) * value ** 2
                value = params[key]
                term = np.sign(value, out=workspace.empty_like(f"{key}/0", value))
                term *= scale
                term *= np.square(value, out=workspace.empty_like(f"{key}/1", value))
                grads[key] += term


class NoRegularizer(Regularizer):
    """A regularizer that does nothing (keeps the trainer code branch-free)."""

    def __init__(self) -> None:
        super().__init__(0.0)

    def penalty(self, params: ParamDict) -> float:
        return 0.0

    def add_gradients(
        self, params: ParamDict, grads: ParamDict, workspace: Optional[Workspace] = None
    ) -> None:
        return None


def get_regularizer(name: str, weight: float) -> Regularizer:
    """Instantiate a regularizer by name (``l2`` / ``n3`` / ``none``)."""
    key = name.lower()
    if key == "l2":
        return L2Regularizer(weight)
    if key == "n3":
        return N3Regularizer(weight)
    if key in ("none", "no", "off"):
        return NoRegularizer()
    raise KeyError(f"unknown regularizer {name!r}; available: l2, n3, none")
