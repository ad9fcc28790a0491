"""Configuration dataclasses shared across the library.

The paper trains every candidate scoring function with one fixed set of
hyper-parameters per dataset (Sec. V-A2) and ranks candidates with a small
performance predictor.  :class:`TrainingConfig` and :class:`PredictorConfig`
capture exactly those knobs; the search's meta hyper-parameters ``N``,
``K1`` and ``K2`` (Sec. V-A3) are the ``search`` section of an experiment
spec (:class:`repro.experiments.spec.SearchSpec`).
"""

from __future__ import annotations

import typing
import warnings
from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, Optional, Tuple

#: Execution backends the search engine knows how to build (the single
#: source of truth — the execution layer and the CLI both import this).
#: ``"serial"`` runs in-process; ``"queue"`` runs a socket-RPC coordinator
#: that dispatches to worker processes (local and/or connecting from other
#: hosts); ``"process"`` is that queue with local workers only.
EXECUTION_BACKENDS: Tuple[str, ...] = ("serial", "process", "queue")

#: Accepted values of the ignored ``TrainingConfig.train_engine`` key, which
#: committed specs and run directories still carry.
TRAIN_ENGINES: Tuple[str, ...] = ("reference", "batched", "sparse")


class ConfigError(ValueError):
    """A configuration value has the wrong type or is out of range.

    Raised by every ``from_dict`` with a message naming the offending field,
    so a bad spec file fails with ``TrainingConfig.dimension: ...`` instead
    of a bare ``TypeError`` deep inside a dataclass constructor.
    """


def _hint_allows(hint: Any, value: Any) -> bool:
    """Whether ``value`` is acceptable for the (simple) type ``hint``.

    Only the scalar types configuration fields actually use are checked
    (``int``/``float``/``str``/``bool`` and ``Optional`` of those); anything
    more complex is left to the dataclass's own ``__post_init__`` validation.
    """
    origin = typing.get_origin(hint)
    if origin is typing.Union:
        return any(_hint_allows(member, value) for member in typing.get_args(hint))
    if hint is type(None):
        return value is None
    if hint is bool:
        return isinstance(value, bool)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is str:
        return isinstance(value, str)
    return True  # nested/complex fields are validated by the target class


def config_from_dict(cls: type, data: Dict[str, Any]) -> Any:
    """Shared tolerant ``from_dict``: skip unknown keys, name bad fields.

    * Unknown keys (e.g. from a forward-versioned run directory written by a
      newer release) are dropped with a :class:`UserWarning` instead of
      crashing with ``TypeError: unexpected keyword argument``.
    * Type violations raise :class:`ConfigError` naming the field.
    * Range violations from the dataclass's ``__post_init__`` are re-raised
      as a single :class:`ConfigError` carrying the class name.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{cls.__name__}: expected a mapping, got {type(data).__name__}")
    known = {item.name for item in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        warnings.warn(
            f"{cls.__name__}: ignoring unknown field(s) {', '.join(unknown)} "
            f"(written by a newer version?)",
            stacklevel=3,
        )
    hints = typing.get_type_hints(cls)
    filtered: Dict[str, Any] = {}
    for name in known:
        if name not in data:
            continue
        value = data[name]
        hint = hints.get(name)
        if hint is not None and not _hint_allows(hint, value):
            raise ConfigError(
                f"{cls.__name__}.{name}: invalid value {value!r} "
                f"of type {type(value).__name__}"
            )
        filtered[name] = value
    try:
        return cls(**filtered)
    except ConfigError:
        raise
    except (TypeError, ValueError) as error:
        raise ConfigError(f"{cls.__name__}: {error}") from error


@dataclass
class TrainingConfig:
    """Hyper-parameters for training one KGE model (Alg. 1).

    Attributes
    ----------
    dimension:
        Total entity/relation embedding dimension ``d``.  Must be divisible
        by four because the unified search space splits embeddings into four
        chunks.
    epochs:
        Number of passes over the training triplets.
    batch_size:
        Mini-batch size ``m``.
    learning_rate / l2_penalty / decay_rate:
        Optimizer settings (the paper uses Adagrad with an L2 penalty).
    optimizer:
        One of ``"adagrad"``, ``"adam"``, ``"sgd"``.
    loss:
        One of ``"multiclass"`` (the paper's choice), ``"logistic"``,
        ``"hinge"``.
    negative_samples:
        Number of negatives per positive; only used by pairwise losses
        (the multi-class loss scores against every entity).
    eval_every / early_stopping_patience:
        Validation cadence (in epochs) and the early-stopping patience.
        Patience counts *evaluations* without improvement, not epochs: with
        ``eval_every=5`` and ``early_stopping_patience=2`` training stops
        after 10 extra epochs without a new best validation score.  Whenever
        validation runs, :meth:`repro.kge.trainer.Trainer.fit` returns the
        parameters of the best-validation checkpoint, not the last epoch's.
    train_engine:
        Ignored.  The loss picks the training kernel (see
        :mod:`repro.kge.engine`); the key is still validated against
        :data:`TRAIN_ENGINES` so committed specs load and keep their digests.
    score_chunk_size:
        Entity-chunk size of the multi-class kernel's candidate scoring.
        ``0`` (the default) scores all entities at once; a positive value
        bounds peak memory to ``O(batch_size * score_chunk_size)`` scores
        via a two-pass streaming softmax.  Pairwise losses ignore it.
    """

    dimension: int = 32
    epochs: int = 60
    batch_size: int = 512
    learning_rate: float = 0.1
    l2_penalty: float = 1e-4
    decay_rate: float = 1.0
    optimizer: str = "adagrad"
    loss: str = "multiclass"
    negative_samples: int = 16
    margin: float = 1.0
    init_scale: float = 0.1
    seed: Optional[int] = 0
    eval_every: int = 0
    early_stopping_patience: int = 0
    train_engine: str = "batched"
    score_chunk_size: int = 0

    def __post_init__(self) -> None:
        if self.dimension <= 0:
            raise ValueError("dimension must be positive")
        if self.dimension % 4 != 0:
            raise ValueError("dimension must be divisible by 4 (block split)")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.l2_penalty < 0:
            raise ValueError("l2_penalty must be non-negative")
        if not 0 < self.decay_rate <= 1.0:
            raise ValueError("decay_rate must be in (0, 1]")
        if self.optimizer not in ("adagrad", "adam", "sgd"):
            raise ValueError(f"unknown optimizer: {self.optimizer!r}")
        if self.loss not in ("multiclass", "logistic", "hinge"):
            raise ValueError(f"unknown loss: {self.loss!r}")
        if self.negative_samples <= 0:
            raise ValueError("negative_samples must be positive")
        if self.train_engine not in TRAIN_ENGINES:
            raise ValueError(
                f"unknown train_engine: {self.train_engine!r} "
                f"(available: {', '.join(TRAIN_ENGINES)})"
            )
        if self.score_chunk_size < 0:
            raise ValueError("score_chunk_size must be non-negative (0 disables chunking)")

    @property
    def chunk_dimension(self) -> int:
        """Dimension of one of the four embedding chunks."""
        return self.dimension // 4

    def replace(self, **changes: Any) -> "TrainingConfig":
        """Return a copy with the given fields replaced."""
        data = asdict(self)
        data.update(changes)
        return TrainingConfig(**data)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TrainingConfig":
        """Build from a dict, skipping unknown keys (see :func:`config_from_dict`)."""
        return config_from_dict(cls, data)


@dataclass
class PredictorConfig:
    """Settings for the performance predictor used inside the greedy search.

    The paper uses a 22-2-1 MLP on symmetry-related features (SRF) and, as an
    ablation, a 96-8-1 MLP on one-hot structure encodings (Fig. 8).
    """

    feature_type: str = "srf"
    hidden_units: int = 2
    learning_rate: float = 0.01
    epochs: int = 400
    l2_penalty: float = 1e-4
    seed: Optional[int] = 0

    def __post_init__(self) -> None:
        if self.feature_type not in ("srf", "onehot"):
            raise ValueError(f"unknown feature_type: {self.feature_type!r}")
        if self.hidden_units <= 0:
            raise ValueError("hidden_units must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PredictorConfig":
        """Build from a dict, skipping unknown keys (see :func:`config_from_dict`)."""
        return config_from_dict(cls, data)
