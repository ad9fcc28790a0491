"""First-order optimizers over parameter dictionaries.

The paper uses Adagrad "since it tends to perform better as indicated in
[19], [39]"; SGD and Adam are provided as alternatives.  Each optimizer
mutates the parameter arrays in place given a gradient dict with matching
keys and shapes, and supports a multiplicative learning-rate decay applied
once per epoch (the paper tunes a decay rate in [0.99, 1.0]).

Two update entry points exist:

* :meth:`Optimizer.step` — the classic dense update: every gradient array
  matches its parameter array's full shape and every state row is touched.
* :meth:`Optimizer.step_sparse` — the sparse-gradient update used by delta
  fine-tuning (:class:`repro.live.finetune.LazyTrainEngine`).  Gradients arrive as either a dense array
  (for globally-shared parameters such as MLP weights) or an
  ``(indices, block)`` pair, where ``indices`` is a strictly increasing
  row-index array and ``block`` holds one gradient row per index.  Only the
  addressed rows of the parameters *and of the optimizer state* are read or
  written, so the per-step cost is O(touched rows) instead of O(vocabulary).
  State arrays are still materialized lazily at full shape on first touch
  (all zeros); the rows of never-touched entries simply stay zero, which is
  exactly the state a dense run would have left them in.

:meth:`Optimizer.step` writes its elementwise intermediates into a
:class:`~repro.kge.workspace.Workspace` through ``out=`` (a throwaway one
when the caller passes none) and updates the state arrays in place.  Each
statement performs the operations of the textbook expression in the same
order, so the update is bit for bit that of the allocating form; the
workspace never enters the optimizer state or a snapshot.

Sparse/dense equivalence: for SGD and Adagrad a sparse step is numerically
identical to a dense step whose gradient is zero outside ``indices`` (a zero
gradient row moves neither the parameter nor the accumulator).  Adam is the
standard *lazy* variant (as in ``torch.optim.SparseAdam`` and DGL's sparse
optimizers): moment decay is applied only to touched rows, so it matches the
dense step exactly on the first update of a row but intentionally skips the
pure-decay drift of untouched rows afterwards.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.kge.scoring.base import ParamDict
from repro.kge.workspace import Workspace

#: A sparse-gradient dict entry: either a full-shape dense array or an
#: ``(indices, block)`` pair addressing a subset of parameter rows.
SparseGrad = Union[np.ndarray, Tuple[np.ndarray, np.ndarray]]
SparseGradDict = Dict[str, SparseGrad]


def densify_sparse_grads(params: ParamDict, grads: SparseGradDict) -> ParamDict:
    """Scatter ``(indices, block)`` entries into full-shape zero arrays.

    The resulting dict is a valid input to :meth:`Optimizer.step`; it is the
    exact dense gradient the sparse representation stands for (rows outside
    ``indices`` are zero).  Used by the base-class :meth:`Optimizer.step_sparse`
    fallback, and handy in parity tests.
    """
    dense: ParamDict = {}
    for key, grad in grads.items():
        if isinstance(grad, tuple):
            indices, block = grad
            full = np.zeros_like(params[key])
            full[indices] = block
            dense[key] = full
        else:
            dense[key] = grad
    return dense


def _deep_copy_state(value):
    """Recursively copy optimizer state (dicts of arrays/scalars, any depth)."""
    if isinstance(value, dict):
        return {key: _deep_copy_state(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        return value.copy()
    return value


class Optimizer(ABC):
    """Base class for in-place parameter-dict optimizers."""

    def __init__(self, learning_rate: float, decay_rate: float = 1.0) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0 < decay_rate <= 1.0:
            raise ValueError("decay_rate must be in (0, 1]")
        self.learning_rate = float(learning_rate)
        self.decay_rate = float(decay_rate)
        self._state: Dict[str, Dict[str, np.ndarray]] = {}

    def decay(self) -> None:
        """Apply one step of learning-rate decay (call once per epoch)."""
        self.learning_rate *= self.decay_rate

    def reset(self) -> None:
        """Forget any accumulated per-parameter state."""
        self._state.clear()

    def snapshot(self) -> dict:
        """Deep-copy of the optimizer state (for best-checkpoint restore).

        The trainer snapshots this together with the parameters at every new
        best validation score, so that restoring the best checkpoint also
        restores the matching accumulator state (Adagrad sums, Adam moments,
        the decayed learning rate) instead of the accumulators of the worse
        trailing epochs.

        The copy is *recursively* deep: every array at every nesting level is
        duplicated, never aliased.  This matters because the sparse update
        path (:meth:`step_sparse`) mutates state rows in place — a snapshot
        that shared storage with the live state would silently drift as
        training continues past the checkpoint.
        """
        return {
            "learning_rate": self.learning_rate,
            "state": _deep_copy_state(self._state),
        }

    def restore(self, snapshot: dict) -> None:
        """Restore state previously captured by :meth:`snapshot`.

        The snapshot itself is deep-copied in, so restoring twice (or
        continuing to train after a restore) can never mutate the caller's
        snapshot dict.
        """
        self.learning_rate = float(snapshot["learning_rate"])
        self._state = _deep_copy_state(snapshot["state"])

    def _state_for(self, key: str, template: np.ndarray, names: tuple) -> Dict[str, np.ndarray]:
        if key not in self._state:
            self._state[key] = {name: np.zeros_like(template) for name in names}
        return self._state[key]

    @abstractmethod
    def step(
        self, params: ParamDict, grads: ParamDict, workspace: Optional[Workspace] = None
    ) -> None:
        """Update ``params`` in place from ``grads``.

        ``workspace`` holds the elementwise scratch; without one the step
        allocates its own for this call.
        """

    def step_sparse(self, params: ParamDict, grads: SparseGradDict) -> None:
        """Update ``params`` in place from a sparse-gradient dict.

        The base-class implementation densifies the gradients and delegates
        to :meth:`step` — always correct, but O(vocabulary) per call.
        :class:`SGD`, :class:`Adagrad` and :class:`Adam` override it with
        per-row updates that only touch the addressed rows.
        """
        self._check_sparse(params, grads)
        self.step(params, densify_sparse_grads(params, grads))

    def _check(self, params: ParamDict, grads: ParamDict) -> None:
        for key, value in grads.items():
            if key not in params:
                raise KeyError(f"gradient for unknown parameter {key!r}")
            if value.shape != params[key].shape:
                raise ValueError(
                    f"gradient shape {value.shape} does not match parameter "
                    f"{key!r} shape {params[key].shape}"
                )

    def _check_sparse(self, params: ParamDict, grads: SparseGradDict) -> None:
        for key, value in grads.items():
            if key not in params:
                raise KeyError(f"gradient for unknown parameter {key!r}")
            if not isinstance(value, tuple):
                if value.shape != params[key].shape:
                    raise ValueError(
                        f"dense gradient shape {value.shape} does not match "
                        f"parameter {key!r} shape {params[key].shape}"
                    )
                continue
            indices, block = value
            if indices.ndim != 1:
                raise ValueError(f"sparse indices for {key!r} must be 1-D")
            if indices.size and np.any(np.diff(indices) <= 0):
                # Strictly increasing indices double as a uniqueness guarantee;
                # fancy-indexed in-place updates silently drop duplicate rows.
                raise ValueError(
                    f"sparse indices for {key!r} must be strictly increasing "
                    "(sorted and duplicate-free)"
                )
            expected = (indices.shape[0],) + params[key].shape[1:]
            if block.shape != expected:
                raise ValueError(
                    f"sparse block shape {block.shape} for {key!r} does not "
                    f"match expected {expected}"
                )
            if indices.size and (indices[0] < 0 or indices[-1] >= params[key].shape[0]):
                raise ValueError(f"sparse indices for {key!r} out of range")


class SGD(Optimizer):
    """Plain stochastic gradient descent."""

    def step(
        self, params: ParamDict, grads: ParamDict, workspace: Optional[Workspace] = None
    ) -> None:
        self._check(params, grads)
        workspace = Workspace.scratch(workspace)
        for key, grad in grads.items():
            # params -= learning_rate * grad
            update = np.multiply(
                self.learning_rate, grad, out=workspace.empty_like(f"{key}/0", grad)
            )
            params[key] -= update

    def step_sparse(self, params: ParamDict, grads: SparseGradDict) -> None:
        self._check_sparse(params, grads)
        for key, grad in grads.items():
            if isinstance(grad, tuple):
                indices, block = grad
                params[key][indices] -= self.learning_rate * block
            else:
                params[key] -= self.learning_rate * grad


class Adagrad(Optimizer):
    """Adagrad (Duchi et al., 2011) — the paper's optimizer."""

    def __init__(self, learning_rate: float, decay_rate: float = 1.0, epsilon: float = 1e-8) -> None:
        super().__init__(learning_rate, decay_rate)
        self.epsilon = float(epsilon)

    def step(
        self, params: ParamDict, grads: ParamDict, workspace: Optional[Workspace] = None
    ) -> None:
        self._check(params, grads)
        workspace = Workspace.scratch(workspace)
        for key, grad in grads.items():
            sum_squares = self._state_for(key, params[key], ("sum_squares",))["sum_squares"]
            # sum_squares += grad * grad
            scratch = np.multiply(grad, grad, out=workspace.empty_like(f"{key}/0", grad))
            sum_squares += scratch
            # params -= learning_rate * grad / (sqrt(sum_squares) + epsilon)
            denominator = np.sqrt(sum_squares, out=scratch)
            denominator += self.epsilon
            update = np.multiply(
                self.learning_rate, grad, out=workspace.empty_like(f"{key}/1", grad)
            )
            update /= denominator
            params[key] -= update

    def step_sparse(self, params: ParamDict, grads: SparseGradDict) -> None:
        self._check_sparse(params, grads)
        for key, grad in grads.items():
            state = self._state_for(key, params[key], ("sum_squares",))
            if isinstance(grad, tuple):
                indices, block = grad
                sum_squares = state["sum_squares"]
                sum_squares[indices] += block * block
                params[key][indices] -= (
                    self.learning_rate * block / (np.sqrt(sum_squares[indices]) + self.epsilon)
                )
            else:
                state["sum_squares"] += grad * grad
                params[key] -= (
                    self.learning_rate * grad / (np.sqrt(state["sum_squares"]) + self.epsilon)
                )


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015)."""

    def __init__(
        self,
        learning_rate: float,
        decay_rate: float = 1.0,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        super().__init__(learning_rate, decay_rate)
        if not 0 <= beta1 < 1 or not 0 <= beta2 < 1:
            raise ValueError("betas must be in [0, 1)")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self._step_count = 0

    def reset(self) -> None:
        super().reset()
        self._step_count = 0

    def snapshot(self) -> dict:
        data = super().snapshot()
        data["step_count"] = self._step_count
        return data

    def restore(self, snapshot: dict) -> None:
        super().restore(snapshot)
        self._step_count = int(snapshot["step_count"])

    def step(
        self, params: ParamDict, grads: ParamDict, workspace: Optional[Workspace] = None
    ) -> None:
        self._check(params, grads)
        workspace = Workspace.scratch(workspace)
        self._step_count += 1
        correction1 = 1.0 - self.beta1**self._step_count
        correction2 = 1.0 - self.beta2**self._step_count
        for key, grad in grads.items():
            state = self._state_for(key, params[key], ("m", "v"))
            m, v = state["m"], state["v"]
            scratch = workspace.empty_like(f"{key}/0", grad)
            # m = beta1 * m + (1 - beta1) * grad
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, grad, out=scratch)
            # v = beta2 * v + (1 - beta2) * grad * grad
            v *= self.beta2
            np.multiply(1.0 - self.beta2, grad, out=scratch)
            scratch *= grad
            v += scratch
            # params -= learning_rate * m_hat / (sqrt(v_hat) + epsilon)
            update = np.divide(m, correction1, out=scratch)
            denominator = np.divide(v, correction2, out=workspace.empty_like(f"{key}/1", grad))
            np.sqrt(denominator, out=denominator)
            denominator += self.epsilon
            update *= self.learning_rate
            update /= denominator
            params[key] -= update

    def step_sparse(self, params: ParamDict, grads: SparseGradDict) -> None:
        """Lazy Adam: decay and update moments only for the touched rows.

        The bias-correction exponent is the shared global step count (as in
        ``torch.optim.SparseAdam``), so a row's very first sparse update
        matches the dense step bit for bit; afterwards untouched rows skip
        the pure-decay drift a dense step would apply.
        """
        self._check_sparse(params, grads)
        self._step_count += 1
        correction1 = 1.0 - self.beta1**self._step_count
        correction2 = 1.0 - self.beta2**self._step_count
        for key, grad in grads.items():
            state = self._state_for(key, params[key], ("m", "v"))
            if isinstance(grad, tuple):
                indices, block = grad
                m, v = state["m"], state["v"]
                m[indices] = self.beta1 * m[indices] + (1.0 - self.beta1) * block
                v[indices] = self.beta2 * v[indices] + (1.0 - self.beta2) * block * block
                m_hat = m[indices] / correction1
                v_hat = v[indices] / correction2
                params[key][indices] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
            else:
                state["m"] = self.beta1 * state["m"] + (1.0 - self.beta1) * grad
                state["v"] = self.beta2 * state["v"] + (1.0 - self.beta2) * grad * grad
                m_hat = state["m"] / correction1
                v_hat = state["v"] / correction2
                params[key] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)


def get_optimizer(name: str, learning_rate: float, decay_rate: float = 1.0) -> Optimizer:
    """Instantiate an optimizer by name (``sgd`` / ``adagrad`` / ``adam``)."""
    key = name.lower()
    if key == "sgd":
        return SGD(learning_rate, decay_rate)
    if key == "adagrad":
        return Adagrad(learning_rate, decay_rate)
    if key == "adam":
        return Adam(learning_rate, decay_rate)
    raise KeyError(f"unknown optimizer {name!r}; available: sgd, adagrad, adam")
