"""Versioned, self-contained model artifacts: the one on-disk model format.

``repro-autosf train --save``, a run's ``best/`` directory and
``repro-autosf export`` all write this layout, so every saved model is
directly servable.  An artifact directory is everything inference needs,
with nothing implicit:

* ``manifest.json`` — schema version, scoring-function name (+ block
  structure for searched models), entity/relation counts, the training
  configuration, the parameter file map, and the evaluation metrics recorded
  at export time;
* ``params/<key>.npy`` — one raw ``.npy`` file per parameter array.  Raw
  ``.npy`` is the point of the layout: every array loads with
  ``np.load(..., mmap_mode="r")``, so a fleet of serving workers maps the
  same embedding bytes once through the page cache instead of each holding
  a private copy (the ``datasets.pipeline`` shard+manifest pattern, applied
  to model parameters);
* ``vocab.json`` — optional entity/relation labels, so queries can be posed
  (and answers returned) symbolically.

:func:`export_artifact` writes one from a trained :class:`KGEModel`;
:func:`load_artifact` validates every piece and raises a descriptive
:class:`ArtifactError` naming the artifact path on anything missing or
mismatched, so a half-copied artifact fails loudly at load time rather than
mysteriously at query time.  Loaded parameters are always read-only;
``load_artifact(path, mmap=True)`` returns them as memmap-backed views.
"""

from __future__ import annotations

import mmap as _mmap
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.datasets.knowledge_graph import KnowledgeGraph
from repro.kge.model import KGEModel, require_graph_matches_params
from repro.kge.scoring.base import ParamDict, ScoringFunction
from repro.kge.scoring.bilinear import BlockScoringFunction
from repro.kge.scoring.blocks import BlockStructure
from repro.kge.scoring.registry import get_scoring_function
from repro.utils.config import TrainingConfig
from repro.utils.serialization import from_json_file, to_json_file

PathLike = Union[str, Path]

#: Current artifact schema version; bumped on incompatible layout changes.
#: v2: one raw ``params/<key>.npy`` file per array, mmap-loadable.
#: v3: v2 layout plus a ``generation`` counter for live hot-swaps; a v2
#: manifest (no key) loads as ``generation=0``.
ARTIFACT_SCHEMA_VERSION = 3
#: Oldest schema :func:`load_artifact` reads; older layouts are migrated
#: once with the recipe in TESTING.md.
_MIN_SCHEMA_VERSION = 2

MANIFEST_FILENAME = "manifest.json"
PARAMS_DIRNAME = "params"
VOCAB_FILENAME = "vocab.json"

#: Manifest keys every artifact must carry.
_REQUIRED_MANIFEST_KEYS = (
    "schema_version",
    "scoring_function",
    "num_entities",
    "num_relations",
    "config",
)

#: Parameter keys double as filenames, so they must be safe.
_PARAM_KEY_PATTERN = re.compile(r"[A-Za-z0-9_.-]+\Z")


class ArtifactError(RuntimeError):
    """An artifact directory is missing pieces, corrupt, or inconsistent."""


def scoring_function_metadata(scoring_function: ScoringFunction) -> Dict[str, object]:
    """The manifest keys :func:`scoring_function_from_metadata` rebuilds from."""
    metadata: Dict[str, object] = {"scoring_function": scoring_function.name}
    if isinstance(scoring_function, BlockScoringFunction):
        metadata["block_structure"] = [
            list(block) for block in scoring_function.structure.blocks
        ]
    return metadata


def scoring_function_from_metadata(metadata: Dict[str, object]) -> ScoringFunction:
    """Rebuild a scoring function from manifest metadata.

    Block-structured models are reconstructed from their stored block list;
    anything else resolves through the name registry.
    """
    name = str(metadata["scoring_function"])
    if "block_structure" in metadata:
        structure = BlockStructure(
            [tuple(block) for block in metadata["block_structure"]], name=name
        )
        return BlockScoringFunction(structure, name=name)
    return get_scoring_function(name)


@dataclass
class ModelArtifact:
    """A loaded serving artifact: scoring function, parameters, vocab, metadata."""

    scoring_function: ScoringFunction
    params: ParamDict
    config: TrainingConfig
    num_entities: int
    num_relations: int
    metrics: Dict[str, float] = field(default_factory=dict)
    entity_names: Optional[Tuple[str, ...]] = None
    relation_names: Optional[Tuple[str, ...]] = None
    schema_version: int = ARTIFACT_SCHEMA_VERSION
    #: Live-index generation the artifact was exported at (0 = initial
    #: batch export / pre-v3 artifact).
    generation: int = 0
    path: Optional[Path] = None
    #: Whether the parameter arrays are memmap-backed views of the artifact
    #: files (True for ``load_artifact(mmap=True)``).
    params_memmap: bool = False

    def params_nbytes(self) -> int:
        """Total size of the parameter arrays in bytes (embeddings dominate)."""
        return int(sum(array.nbytes for array in self.params.values()))

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def to_model(self) -> KGEModel:
        """The artifact as a ready-to-query :class:`KGEModel`."""
        return KGEModel(self.scoring_function, self.config, params=self.params)

    # ------------------------------------------------------------------
    # Symbol resolution
    # ------------------------------------------------------------------
    def _lookup_table(self, names: Tuple[str, ...], cache_key: str) -> Dict[str, int]:
        table = self.__dict__.get(cache_key)
        if table is None:
            table = {name: index for index, name in enumerate(names)}
            self.__dict__[cache_key] = table
        return table

    def _resolve(self, symbol: Union[str, int], names: Optional[Tuple[str, ...]],
                 count: int, kind: str, cache_key: str) -> int:
        if isinstance(symbol, (int, np.integer)):
            index = int(symbol)
        else:
            symbol = str(symbol)
            index = None
            if names is not None:
                index = self._lookup_table(names, cache_key).get(symbol)
            if index is None:
                try:
                    index = int(symbol)
                except ValueError:
                    raise KeyError(
                        f"unknown {kind} {symbol!r} "
                        f"({'not in the artifact vocabulary' if names else 'artifact has no vocabulary'}"
                        f" and not an integer id)"
                    ) from None
        if not 0 <= index < count:
            raise KeyError(f"{kind} id {index} out of range [0, {count})")
        return index

    def entity_id(self, symbol: Union[str, int]) -> int:
        """Resolve an entity label or integer id to an index."""
        return self._resolve(
            symbol, self.entity_names, self.num_entities, "entity", "_entity_lookup"
        )

    def relation_id(self, symbol: Union[str, int]) -> int:
        """Resolve a relation label or integer id to an index."""
        return self._resolve(
            symbol, self.relation_names, self.num_relations, "relation", "_relation_lookup"
        )

    def entity_label(self, index: int) -> str:
        """Human-readable label of an entity (falls back to ``e<i>``)."""
        if self.entity_names is not None:
            return self.entity_names[index]
        return f"e{index}"

    def relation_label(self, index: int) -> str:
        """Human-readable label of a relation (falls back to ``r<j>``)."""
        if self.relation_names is not None:
            return self.relation_names[index]
        return f"r{index}"

    def describe(self) -> Dict[str, object]:
        """Headline facts for logs and the serve endpoint's health check."""
        return {
            "schema_version": self.schema_version,
            "generation": self.generation,
            "scoring_function": self.scoring_function.name,
            "num_entities": self.num_entities,
            "num_relations": self.num_relations,
            "has_vocabulary": self.entity_names is not None or self.relation_names is not None,
            "params_memmap": self.params_memmap,
            "params_bytes": self.params_nbytes(),
            "metrics": dict(self.metrics),
        }


def _vocab_from_sources(
    graph: Optional[KnowledgeGraph],
    model_directory: Optional[Path],
) -> Tuple[Optional[Sequence[str]], Optional[Sequence[str]]]:
    """Entity/relation labels from the dataset or a saved artifact's vocab.json."""
    if graph is not None and (graph.entity_names or graph.relation_names):
        return graph.entity_names, graph.relation_names
    if model_directory is not None:
        vocab_path = Path(model_directory) / VOCAB_FILENAME
        if vocab_path.exists():
            vocab = from_json_file(vocab_path)
            return vocab.get("entity_names"), vocab.get("relation_names")
    return None, None


def write_vocab_file(
    entity_names: Optional[Sequence[str]],
    relation_names: Optional[Sequence[str]],
    path: Path,
) -> Optional[Path]:
    """Write entity/relation labels as a vocab JSON (no file when both absent)."""
    if entity_names is None and relation_names is None:
        return None
    return to_json_file(
        {
            "entity_names": list(entity_names) if entity_names else None,
            "relation_names": list(relation_names) if relation_names else None,
        },
        path,
    )


def export_artifact(
    model: KGEModel,
    directory: PathLike,
    graph: Optional[KnowledgeGraph] = None,
    metrics: Optional[Dict[str, float]] = None,
    model_directory: Optional[PathLike] = None,
    generation: int = 0,
) -> Path:
    """Write a serving artifact for a trained model.

    Parameters
    ----------
    graph:
        Optional dataset the model was trained on; supplies the vocabulary
        (when it has labels) and is validated against the parameter shapes.
    metrics:
        Optional evaluation metrics to embed in the manifest (e.g. filtered
        test MRR at export time).
    model_directory:
        Optional artifact directory the model was loaded from; its
        ``vocab.json`` is reused when no ``graph`` is given.
    generation:
        Live-index generation the parameters correspond to (the source
        store's :attr:`~repro.datasets.TripleStore.generation` after a
        fine-tune); surfaced by ``/stats`` and the serve banner so rolling
        hot-swaps are auditable.
    """
    if model.params is None:
        raise ArtifactError("cannot export an untrained model (no parameters)")
    if generation < 0:
        raise ArtifactError(f"generation must be non-negative, got {generation}")
    params = model.params
    if graph is not None:
        require_graph_matches_params(params, graph, error_cls=ArtifactError)

    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    manifest: Dict[str, object] = scoring_function_metadata(model.scoring_function)
    manifest.update(
        {
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "generation": int(generation),
            "num_entities": int(params["entities"].shape[0]),
            "num_relations": int(params["relations"].shape[0]),
            "config": model.config.to_dict(),
            "metrics": dict(metrics or {}),
            "params": _write_params_dir(params, base),
        }
    )
    to_json_file(manifest, base / MANIFEST_FILENAME)

    entity_names, relation_names = _vocab_from_sources(
        graph, Path(model_directory) if model_directory is not None else None
    )
    write_vocab_file(entity_names, relation_names, base / VOCAB_FILENAME)
    return base


def _write_params_dir(params: ParamDict, base: Path) -> Dict[str, str]:
    """Write each parameter array as a raw ``params/<key>.npy`` file.

    Returns the manifest's parameter map (key → relative file path).  One
    raw file per array is deliberate: each can be memory-mapped.
    """
    params_dir = base / PARAMS_DIRNAME
    params_dir.mkdir(parents=True, exist_ok=True)
    param_files: Dict[str, str] = {}
    for key, array in params.items():
        if not _PARAM_KEY_PATTERN.match(key):
            raise ArtifactError(
                f"parameter key {key!r} is not a safe filename "
                f"(allowed: letters, digits, '_', '.', '-')"
            )
        np.save(params_dir / f"{key}.npy", np.ascontiguousarray(array))
        param_files[key] = f"{PARAMS_DIRNAME}/{key}.npy"
    return param_files


def _read_manifest(base: Path) -> Dict[str, object]:
    """Read and structurally validate the artifact manifest."""
    prefix = f"cannot load artifact from {base}"
    manifest_path = base / MANIFEST_FILENAME
    if not manifest_path.exists():
        raise ArtifactError(
            f"{prefix}: missing {MANIFEST_FILENAME} "
            f"(expected a directory written by export_artifact)"
        )
    try:
        manifest = from_json_file(manifest_path)
    except ValueError as error:
        raise ArtifactError(
            f"{prefix}: {MANIFEST_FILENAME} is not valid JSON ({error})"
        ) from error
    missing_keys = [key for key in _REQUIRED_MANIFEST_KEYS if key not in manifest]
    if missing_keys:
        raise ArtifactError(
            f"{prefix}: {MANIFEST_FILENAME} is missing required keys: "
            f"{', '.join(missing_keys)}"
        )
    return manifest


def _load_params(base: Path, manifest: Dict[str, object], mmap: bool) -> ParamDict:
    """Load the raw ``params/<key>.npy`` files the manifest maps."""
    prefix = f"cannot load artifact from {base}"
    param_files = manifest.get("params")
    if not isinstance(param_files, dict) or not param_files:
        raise ArtifactError(
            f"{prefix}: {MANIFEST_FILENAME} has no 'params' file map "
            f"(expected a directory written by export_artifact)"
        )
    missing = [name for name in ("entities", "relations") if name not in param_files]
    if missing:
        raise ArtifactError(
            f"{prefix}: {MANIFEST_FILENAME} params map is missing required "
            f"arrays: {', '.join(missing)}"
        )
    params: ParamDict = {}
    for key, relative in param_files.items():
        # The path is fully determined by the key, so a manifest cannot
        # point outside the artifact (absolute paths, '..').
        if not _PARAM_KEY_PATTERN.match(key) or relative != f"{PARAMS_DIRNAME}/{key}.npy":
            raise ArtifactError(
                f"{prefix}: {MANIFEST_FILENAME} maps parameter {key!r} to "
                f"{relative!r}; expected '{PARAMS_DIRNAME}/<key>.npy' with a safe key"
            )
        path = base / relative
        if not path.exists():
            raise ArtifactError(
                f"{prefix}: missing parameter file {relative} "
                f"(declared in {MANIFEST_FILENAME})"
            )
        try:
            if mmap:
                # mmap_mode="r" pages are file-backed and read-only: every
                # worker process that opens the same artifact shares them.
                array = np.load(path, mmap_mode="r")
            else:
                array = _read_npy_private(path)
                array.flags.writeable = False
        except ValueError as error:
            raise ArtifactError(f"{prefix}: {relative} is not a valid .npy file ({error})") from error
        params[key] = array
    for key, count_key in (("entities", "num_entities"), ("relations", "num_relations")):
        declared = int(manifest[count_key])
        if declared != int(params[key].shape[0]):
            raise ArtifactError(
                f"{prefix}: {MANIFEST_FILENAME} declares {declared} {key} "
                f"but {PARAMS_DIRNAME}/{key}.npy holds {int(params[key].shape[0])}"
            )
    return params


def _read_npy_private(path: Path) -> np.ndarray:
    """A ``.npy`` file read into an anonymous memory mapping of its own.

    A table as large as the entity embeddings that malloc places in the heap
    leaves a hole there when a reload frees it; smaller allocations split the
    hole, and the next generation's table then needs fresh memory.  A mapping
    goes back to the OS as soon as its array is freed.
    """
    with open(path, "rb") as handle:
        version = np.lib.format.read_magic(handle)
        if version not in ((1, 0), (2, 0)):
            return np.load(path)
        read_header = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                       else np.lib.format.read_array_header_2_0)
        shape, fortran_order, dtype = read_header(handle)
        if dtype.hasobject:
            return np.load(path)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        buffer = _mmap.mmap(-1, max(nbytes, 1))
        if handle.readinto(memoryview(buffer)[:nbytes]) != nbytes:
            raise ValueError(f"{path.name} holds fewer bytes than its header declares")
    return np.ndarray(shape, dtype, buffer=buffer, order="F" if fortran_order else "C")


def load_artifact(directory: PathLike, mmap: bool = False) -> ModelArtifact:
    """Load and validate a serving artifact written by :func:`export_artifact`.

    Parameters
    ----------
    mmap:
        With ``True``, parameter arrays are returned as read-only
        ``np.memmap`` views — the OS page cache then holds one shared copy
        of the embeddings no matter how many worker processes load the same
        artifact.  In both modes the arrays are immutable: a caller that
        trains a loaded model copies them first.
    """
    base = Path(directory)
    if not base.is_dir():
        raise ArtifactError(f"artifact directory {base} does not exist")
    manifest = _read_manifest(base)
    schema_version = int(manifest["schema_version"])
    if not _MIN_SCHEMA_VERSION <= schema_version <= ARTIFACT_SCHEMA_VERSION:
        raise ArtifactError(
            f"artifact {base} has schema version {schema_version}, but this "
            f"build reads versions {_MIN_SCHEMA_VERSION}..{ARTIFACT_SCHEMA_VERSION}; "
            f"re-export the model (a legacy params.npz layout migrates with the "
            f"recipe under 'Migrating legacy model directories' in TESTING.md)"
        )
    params = _load_params(base, manifest, mmap)

    try:
        scoring_function = scoring_function_from_metadata(manifest)
        config = TrainingConfig.from_dict(manifest["config"])
    except (KeyError, TypeError, ValueError) as error:
        raise ArtifactError(f"cannot load artifact from {base}: {error}") from error

    num_entities = int(manifest["num_entities"])
    num_relations = int(manifest["num_relations"])
    generation = manifest.get("generation", 0)
    if not isinstance(generation, int) or generation < 0:
        raise ArtifactError(
            f"artifact {base}: 'generation' must be a non-negative integer "
            f"(got {generation!r})"
        )
    entity_names = relation_names = None
    vocab_path = base / VOCAB_FILENAME
    if vocab_path.exists():
        try:
            vocab = from_json_file(vocab_path)
        except ValueError as error:
            raise ArtifactError(
                f"artifact {base}: {VOCAB_FILENAME} is not valid JSON ({error})"
            ) from error
        entity_names = vocab.get("entity_names")
        relation_names = vocab.get("relation_names")
        for label, names, count in (
            ("entity_names", entity_names, num_entities),
            ("relation_names", relation_names, num_relations),
        ):
            if names is not None and len(names) != count:
                raise ArtifactError(
                    f"artifact {base}: {VOCAB_FILENAME} holds {len(names)} "
                    f"{label} but the manifest declares {count}"
                )

    return ModelArtifact(
        scoring_function=scoring_function,
        params=params,
        config=config,
        num_entities=num_entities,
        num_relations=num_relations,
        metrics=dict(manifest.get("metrics") or {}),
        entity_names=tuple(entity_names) if entity_names else None,
        relation_names=tuple(relation_names) if relation_names else None,
        schema_version=schema_version,
        generation=int(generation),
        path=base,
        params_memmap=mmap,
    )
