"""Streaming sharded dataset pipeline for million-triple workloads.

The in-memory :class:`~repro.datasets.knowledge_graph.KnowledgeGraph` holds
every split as one array, which is fine for the committed miniatures but a
wall for benchmark-scale dumps (FB15k has ~600k triples, YAGO3-10 over a
million).  This module provides the on-disk counterpart:

* :class:`TripleStore` — a directory of fixed-size ``.npy`` triple shards
  plus a JSON manifest (schema version, per-split shard list with counts,
  vocabulary sizes and hash).  Shards are loaded lazily, optionally
  memory-mapped, so opening a store costs O(1) regardless of its size.
* :func:`ingest_tsv` — a chunked ``bytes``-level TSV→shard converter that
  produces bit-identical vocabularies and triples to the line-by-line
  :func:`repro.datasets.io.load_tsv_dataset` (kept as the parity oracle)
  while reading the input in large binary chunks and writing shards
  incrementally, never holding a full split in memory.
* :class:`TripleStream` — a deterministic shuffled mini-batch iterator over
  a store split.  Shuffling is two-level (shard visiting order, then a
  permutation inside each shard), so peak memory is one shard regardless of
  split size; ``tests/stream_oracle.py`` replays an epoch in memory as the
  oracle that must produce bit-identical batches.
* :func:`build_filter_index` / :func:`entities_by_relation` — shard-aware
  construction of the filtered-evaluation index and of the relation→entity
  pools the Bernoulli negative sampler needs, so training, evaluation and
  serving all consume the same store without materializing ``(n, 3)``
  arrays for every split at once.
* :meth:`TripleStore.apply_delta` — append/delete delta shards on top of
  the frozen base shards, with a manifest ``generation`` counter.  Readers
  (:meth:`~TripleStore.load_split`, :func:`build_filter_index`,
  :meth:`~TripleStore.to_graph`) see the merged view; the streaming
  training path refuses stores with pending deltas (compact first with
  :func:`repro.live.compaction.compact_store`, whose output is
  bit-identical to re-ingesting the merged TSV).

All failure modes (missing manifest, schema mismatch, shard/manifest count
disagreement, malformed TSV lines, duplicate triples) raise
:class:`~repro.datasets.errors.DatasetError` naming the offending file.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.datasets.errors import DatasetError
from repro.datasets.knowledge_graph import (
    FilterIndex,
    KnowledgeGraph,
    _DirectionIndex,
)

PathLike = Union[str, Path]

#: Current store layout version; bumped on incompatible changes.
#: v1: base shards only (no longer loaded).  v2: adds the ``generation``
#: counter and the ``deltas`` list (append/delete delta shards under
#: ``deltas/``).
STORE_SCHEMA_VERSION = 2

#: Default triples per shard.  64k rows of int64 ``(h, r, t)`` is ~1.5 MB —
#: small enough that a permuted shard stays cache-friendly, large enough
#: that a million-triple split is only ~16 shards.
DEFAULT_SHARD_SIZE = 65536

MANIFEST_FILENAME = "manifest.json"
VOCAB_FILENAME = "vocab.json"

#: Subdirectory holding append/delete delta shards.
DELTA_DIRNAME = "deltas"

_SPLITS = ("train", "valid", "test")
_DELTA_OPS = ("delete", "append")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DatasetError(message)


def vocab_hash(
    num_entities: int,
    num_relations: int,
    entity_names: Optional[Sequence[str]] = None,
    relation_names: Optional[Sequence[str]] = None,
) -> str:
    """Stable digest of a vocabulary (sizes + names when available).

    Stored in the manifest so downstream consumers (filter indexes, negative
    samplers, serving artifacts) can check that two stores — or a store and
    a trained model — index the same symbols.
    """
    payload = json.dumps(
        {
            "num_entities": int(num_entities),
            "num_relations": int(num_relations),
            "entity_names": list(entity_names) if entity_names is not None else None,
            "relation_names": list(relation_names) if relation_names is not None else None,
        },
        sort_keys=True,
    )
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


def _shard_filename(split: str, index: int) -> str:
    return f"{split}-{index:05d}.npy"


def _delta_filename(generation: int, op: str, split: str) -> str:
    return f"delta-{generation:05d}-{op}-{split}.npy"


def _triple_keys(
    rows: np.ndarray, num_entities: int, num_relations: int, context: str
) -> np.ndarray:
    """Pack ``(h, r, t)`` rows into one int64 key each: ``(h*R + r)*E + t``.

    Used for delta bookkeeping (delete matching, duplicate checks).  The
    packing is exact whenever ``E*R*E`` fits an int64; beyond that the
    store is far outside this project's scale, so it raises instead of
    silently colliding.
    """
    _require(
        int(num_entities) * int(num_relations) * int(num_entities) < (1 << 62),
        f"{context}: vocabulary too large for packed delta bookkeeping "
        f"({num_entities} entities x {num_relations} relations)",
    )
    rows = np.asarray(rows, dtype=np.int64)
    return (rows[:, 0] * np.int64(num_relations) + rows[:, 1]) * np.int64(
        num_entities
    ) + rows[:, 2]


def _as_delta_rows(rows: Optional[np.ndarray], context: str) -> np.ndarray:
    if rows is None:
        return np.zeros((0, 3), dtype=np.int64)
    array = np.asarray(rows, dtype=np.int64)
    if array.size == 0:
        return np.zeros((0, 3), dtype=np.int64)
    _require(
        array.ndim == 2 and array.shape[1] == 3,
        f"{context} must be an (n, 3) array of triples, got shape {array.shape}",
    )
    _require(int(array.min()) >= 0, f"{context} must not contain negative ids")
    return np.ascontiguousarray(array, dtype=np.int64)


class ShardWriter:
    """Accumulate ``(n, 3)`` row chunks and flush fixed-size ``.npy`` shards.

    Rows are buffered until ``shard_size`` is reached; each flush writes one
    shard file and records ``{"file", "count"}`` for the manifest.  Peak
    memory is one shard regardless of how many rows pass through.
    """

    def __init__(self, directory: Path, split: str, shard_size: int) -> None:
        if shard_size <= 0:
            raise DatasetError(f"shard_size must be positive, got {shard_size}")
        self.directory = Path(directory)
        self.split = split
        self.shard_size = int(shard_size)
        self.shards: List[Dict[str, Any]] = []
        self.count = 0
        self._pending: List[np.ndarray] = []
        self._pending_rows = 0

    def append(self, rows: np.ndarray) -> None:
        """Add a chunk of ``(n, 3)`` int64 rows to the split."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise DatasetError(
                f"{self.split} shard writer expects (n, 3) rows, got shape {rows.shape}"
            )
        self._pending.append(rows)
        self._pending_rows += rows.shape[0]
        while self._pending_rows >= self.shard_size:
            self._flush(self.shard_size)

    def _flush(self, size: int) -> None:
        """Write one shard of exactly ``size`` rows from the pending buffer."""
        taken: List[np.ndarray] = []
        remaining = size
        while remaining > 0:
            chunk = self._pending[0]
            if chunk.shape[0] <= remaining:
                taken.append(chunk)
                remaining -= chunk.shape[0]
                self._pending.pop(0)
            else:
                taken.append(chunk[:remaining])
                self._pending[0] = chunk[remaining:]
                remaining = 0
        shard = taken[0] if len(taken) == 1 else np.concatenate(taken, axis=0)
        name = _shard_filename(self.split, len(self.shards))
        np.save(self.directory / name, np.ascontiguousarray(shard, dtype=np.int64))
        self.shards.append({"file": name, "count": int(shard.shape[0])})
        self.count += int(shard.shape[0])
        self._pending_rows -= int(shard.shape[0])

    def close(self) -> List[Dict[str, Any]]:
        """Flush the final partial shard and return the manifest entries."""
        if self._pending_rows:
            self._flush(self._pending_rows)
        return self.shards


class StoreWriter:
    """Create a sharded store incrementally, split by split.

    Usage::

        writer = StoreWriter(directory, name="fb15k", shard_size=65536)
        writer.append("train", rows)      # any number of times, any order
        store = writer.finalize(num_entities, num_relations)
    """

    def __init__(
        self,
        directory: PathLike,
        name: str = "store",
        shard_size: int = DEFAULT_SHARD_SIZE,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        # Overwriting an existing store: drop its manifest first so a crash
        # mid-write leaves an unopenable directory, never a torn store that
        # pairs the old manifest with half-overwritten shards — and clear
        # its shard files so a smaller rewrite leaves no orphans behind.
        (self.directory / MANIFEST_FILENAME).unlink(missing_ok=True)
        for split in _SPLITS:
            for stale in self.directory.glob(f"{split}-*.npy"):
                stale.unlink()
        delta_dir = self.directory / DELTA_DIRNAME
        if delta_dir.is_dir():
            for stale in delta_dir.glob("delta-*.npy"):
                stale.unlink()
            try:
                delta_dir.rmdir()
            except OSError:
                pass
        self.name = name
        self.shard_size = int(shard_size)
        self._writers: Dict[str, ShardWriter] = {
            split: ShardWriter(self.directory, split, self.shard_size) for split in _SPLITS
        }

    def append(self, split: str, rows: np.ndarray) -> None:
        if split not in self._writers:
            raise DatasetError(f"unknown split {split!r} (expected one of {', '.join(_SPLITS)})")
        self._writers[split].append(rows)

    def finalize(
        self,
        num_entities: int,
        num_relations: int,
        entity_names: Optional[Sequence[str]] = None,
        relation_names: Optional[Sequence[str]] = None,
        generation: int = 0,
    ) -> "TripleStore":
        """Write the manifest (and vocab file, when names exist); open the store.

        ``generation`` seeds the manifest's generation counter — 0 for a
        fresh ingest; compaction passes the source store's generation so
        the counter keeps monotonically recording applied deltas.
        """
        _require(num_entities > 0, "num_entities must be positive")
        _require(num_relations > 0, "num_relations must be positive")
        _require(generation >= 0, "generation must be non-negative")
        manifest = {
            "store_schema_version": STORE_SCHEMA_VERSION,
            "name": self.name,
            "num_entities": int(num_entities),
            "num_relations": int(num_relations),
            "shard_size": self.shard_size,
            "generation": int(generation),
            "deltas": [],
            "splits": {split: writer.close() for split, writer in self._writers.items()},
            "vocab_hash": vocab_hash(num_entities, num_relations, entity_names, relation_names),
        }
        (self.directory / MANIFEST_FILENAME).write_text(
            json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
        )
        if entity_names is not None or relation_names is not None:
            (self.directory / VOCAB_FILENAME).write_text(
                json.dumps(
                    {
                        "entity_names": list(entity_names) if entity_names else None,
                        "relation_names": list(relation_names) if relation_names else None,
                    },
                    indent=2,
                ),
                encoding="utf-8",
            )
        else:
            # A nameless store overwriting a named one must not inherit the
            # stale vocab file (wrong labels, or a length-mismatch crash).
            (self.directory / VOCAB_FILENAME).unlink(missing_ok=True)
        return TripleStore.open(self.directory)


@dataclass
class TripleStore:
    """An open sharded triple store (read side).

    Opening only reads the manifest and checks that every declared shard
    file exists; shard arrays are loaded lazily on access, memory-mapped
    when ``mmap`` is true (the default).
    """

    directory: Path
    manifest: Dict[str, Any]
    mmap: bool = True
    _cache: Dict[str, Any] = field(default_factory=dict, repr=False)

    @classmethod
    def open(cls, directory: PathLike, mmap: bool = True) -> "TripleStore":
        base = Path(directory)
        manifest_path = base / MANIFEST_FILENAME
        if not manifest_path.exists():
            raise DatasetError(
                f"{base} is not a triple store: missing {MANIFEST_FILENAME} "
                f"(create one with ingest_tsv / KnowledgeGraph.to_store)"
            )
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except ValueError as error:
            raise DatasetError(f"{manifest_path}: not valid JSON: {error}") from error
        _require(isinstance(manifest, dict), f"{manifest_path}: manifest is not a JSON object")
        version = manifest.get("store_schema_version")
        _require(
            isinstance(version, int),
            f"{manifest_path}: missing store_schema_version",
        )
        if version > STORE_SCHEMA_VERSION:
            raise DatasetError(
                f"{manifest_path}: store_schema_version {version} is newer than this "
                f"release supports ({STORE_SCHEMA_VERSION}); upgrade to load it"
            )
        if version < STORE_SCHEMA_VERSION:
            raise DatasetError(
                f"{manifest_path}: store_schema_version {version} predates live "
                f"updates and is no longer loaded; re-ingest the store, or add "
                f'"generation": 0, "deltas": [] to the manifest and set '
                f"store_schema_version to {STORE_SCHEMA_VERSION}"
            )
        for key in ("num_entities", "num_relations", "splits", "generation", "deltas"):
            _require(key in manifest, f"{manifest_path}: missing {key!r}")
        splits = manifest["splits"]
        _require(
            isinstance(splits, dict),
            f"{manifest_path}: 'splits' must be an object mapping split names to shard lists",
        )
        for split, shards in splits.items():
            _require(
                isinstance(shards, list),
                f"{manifest_path}: splits[{split!r}] must be a list of shard entries",
            )
            for entry in shards:
                _require(
                    isinstance(entry, dict)
                    and isinstance(entry.get("file"), str)
                    and isinstance(entry.get("count"), int),
                    f"{manifest_path}: splits[{split!r}] entries must carry "
                    f"'file' and 'count' (got {entry!r})",
                )
                path = base / entry["file"]
                _require(
                    path.exists(),
                    f"{base}: incomplete store, shard {entry['file']} "
                    f"({split}) listed in the manifest is missing",
                )
        generation = manifest["generation"]
        _require(
            isinstance(generation, int) and generation >= 0,
            f"{manifest_path}: 'generation' must be a non-negative integer "
            f"(got {generation!r})",
        )
        deltas = manifest["deltas"]
        _require(
            isinstance(deltas, list),
            f"{manifest_path}: 'deltas' must be a list of delta entries",
        )
        for entry in deltas:
            _require(
                isinstance(entry, dict)
                and isinstance(entry.get("file"), str)
                and isinstance(entry.get("count"), int)
                and entry.get("op") in _DELTA_OPS
                and entry.get("split") in splits
                and isinstance(entry.get("generation"), int),
                f"{manifest_path}: delta entries must carry 'file', 'count', "
                f"'op' ({'/'.join(_DELTA_OPS)}), 'split' and 'generation' "
                f"(got {entry!r})",
            )
            _require(
                (base / entry["file"]).exists(),
                f"{base}: incomplete store, delta shard {entry['file']} "
                f"listed in the manifest is missing",
            )
        return cls(directory=base, manifest=manifest, mmap=mmap)

    # ------------------------------------------------------------------
    # Manifest accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return str(self.manifest.get("name", self.directory.name))

    @property
    def num_entities(self) -> int:
        return int(self.manifest["num_entities"])

    @property
    def num_relations(self) -> int:
        return int(self.manifest["num_relations"])

    @property
    def shard_size(self) -> int:
        return int(self.manifest.get("shard_size", DEFAULT_SHARD_SIZE))

    @property
    def vocab_hash(self) -> Optional[str]:
        value = self.manifest.get("vocab_hash")
        return str(value) if value is not None else None

    @property
    def generation(self) -> int:
        """Delta generation counter (0 for a fresh ingest)."""
        return int(self.manifest["generation"])

    def vocab_names(self) -> Dict[str, Optional[List[str]]]:
        """Entity/relation name lists from ``vocab.json`` (``None`` when nameless)."""
        names: Dict[str, Optional[List[str]]] = {"entity_names": None, "relation_names": None}
        vocab_path = self.directory / VOCAB_FILENAME
        if vocab_path.exists():
            try:
                vocab = json.loads(vocab_path.read_text(encoding="utf-8"))
            except ValueError as error:
                raise DatasetError(f"{vocab_path}: not valid JSON: {error}") from error
            for key in names:
                value = vocab.get(key)
                if value is not None:
                    names[key] = [str(item) for item in value]
        return names

    def _entries(self, split: str) -> List[Dict[str, Any]]:
        splits = self.manifest["splits"]
        if split not in splits:
            raise DatasetError(
                f"{self.directory}: unknown split {split!r} "
                f"(available: {', '.join(sorted(splits))})"
            )
        return splits[split]

    def num_shards(self, split: str) -> int:
        return len(self._entries(split))

    def shard_counts(self, split: str) -> List[int]:
        return [int(entry["count"]) for entry in self._entries(split)]

    def split_count(self, split: str) -> int:
        """Live triple count of a split: base shards plus pending deltas."""
        count = sum(self.shard_counts(split))
        for entry in self.delta_entries(split):
            if entry["op"] == "append":
                count += int(entry["count"])
            else:
                count -= int(entry["count"])
        return count

    # ------------------------------------------------------------------
    # Delta accessors
    # ------------------------------------------------------------------
    def delta_entries(self, split: Optional[str] = None) -> List[Dict[str, Any]]:
        """Manifest delta entries, in application order (oldest first)."""
        entries = self.manifest["deltas"]
        if split is None:
            return list(entries)
        if split not in self.manifest["splits"]:
            raise DatasetError(
                f"{self.directory}: unknown split {split!r} "
                f"(available: {', '.join(sorted(self.manifest['splits']))})"
            )
        return [entry for entry in entries if entry["split"] == split]

    def has_deltas(self, split: Optional[str] = None) -> bool:
        return bool(self.delta_entries(split))

    def delta_array(self, entry: Dict[str, Any]) -> np.ndarray:
        """The ``(count, 3)`` int64 rows of one manifest delta entry."""
        cache_key = ("delta", entry["file"])
        if self.mmap:
            cached = self._cache.get(cache_key)
            if cached is not None:
                return cached
        path = self.directory / entry["file"]
        try:
            array = np.load(path, mmap_mode="r" if self.mmap else None)
        except (OSError, ValueError) as error:
            raise DatasetError(f"{path}: cannot read delta shard: {error}") from error
        if array.ndim != 2 or array.shape[1] != 3 or array.dtype != np.int64:
            raise DatasetError(
                f"{path}: delta shard must be an (n, 3) int64 array, "
                f"got shape {array.shape} dtype {array.dtype}"
            )
        if array.shape[0] != int(entry["count"]):
            raise DatasetError(
                f"{path}: delta shard holds {array.shape[0]} triples but the "
                f"manifest declares {entry['count']}"
            )
        if self.mmap:
            self._cache[cache_key] = array
        return array

    def delta_triples(self, split: str, op: str) -> np.ndarray:
        """All pending rows of one op (``append``/``delete``) for a split."""
        if op not in _DELTA_OPS:
            raise DatasetError(f"unknown delta op {op!r} (expected one of {_DELTA_OPS})")
        parts = [
            np.asarray(self.delta_array(entry))
            for entry in self.delta_entries(split)
            if entry["op"] == op
        ]
        if not parts:
            return np.zeros((0, 3), dtype=np.int64)
        return np.concatenate(parts, axis=0)

    def summary(self) -> Dict[str, int]:
        data = {"entities": self.num_entities, "relations": self.num_relations}
        for split in _SPLITS:
            data[split] = self.split_count(split)
            data[f"{split}_shards"] = self.num_shards(split)
        data["generation"] = self.generation
        data["pending_deltas"] = len(self.delta_entries())
        return data

    # ------------------------------------------------------------------
    # Shard access
    # ------------------------------------------------------------------
    def shard(self, split: str, index: int) -> np.ndarray:
        """The ``(count, 3)`` int64 array of one shard (memmap when enabled).

        Memory-mapped shard handles are cached on the store: a mapping is
        virtual memory, not resident data, and reopening every shard each
        epoch would pay header parsing and mmap setup per visit.  Without
        ``mmap`` the array is re-read on every call instead of pinned.
        """
        cache_key = ("shard", split, index)
        if self.mmap:
            cached = self._cache.get(cache_key)
            if cached is not None:
                return cached
        entry = self._entries(split)[index]
        path = self.directory / entry["file"]
        try:
            array = np.load(path, mmap_mode="r" if self.mmap else None)
        except (OSError, ValueError) as error:
            raise DatasetError(f"{path}: cannot read shard: {error}") from error
        if array.ndim != 2 or array.shape[1] != 3 or array.dtype != np.int64:
            raise DatasetError(
                f"{path}: shard must be an (n, 3) int64 array, "
                f"got shape {array.shape} dtype {array.dtype}"
            )
        if array.shape[0] != int(entry["count"]):
            raise DatasetError(
                f"{path}: shard holds {array.shape[0]} triples but the manifest "
                f"declares {entry['count']}"
            )
        if self.mmap:
            self._cache[cache_key] = array
        return array

    def iter_shards(self, split: str) -> Iterator[np.ndarray]:
        """Yield every shard of ``split`` in manifest order."""
        for index in range(self.num_shards(split)):
            yield self.shard(split, index)

    def load_split(self, split: str) -> np.ndarray:
        """Materialize one split as a single in-memory array (merged view).

        Pending deltas are applied in manifest order on top of the base
        shards: deleted rows are removed in place (original order kept),
        appended rows follow in generation order.  This is the
        parity-oracle path (and what :meth:`to_graph` uses); the
        bounded-memory way to consume a split is :class:`TripleStream` /
        :meth:`iter_shards`, both of which are base-only and therefore
        refuse / ignore pending deltas.
        """
        shards = [np.asarray(shard) for shard in self.iter_shards(split)]
        if not shards:
            merged = np.zeros((0, 3), dtype=np.int64)
        elif len(shards) == 1:
            merged = shards[0]
        else:
            merged = np.concatenate(shards, axis=0)
        deltas = self.delta_entries(split)
        if not deltas:
            return merged
        num_entities = self.num_entities
        num_relations = self.num_relations
        for entry in deltas:
            rows = np.asarray(self.delta_array(entry))
            if entry["op"] == "append":
                merged = np.concatenate([merged, rows], axis=0)
            else:
                keys = _triple_keys(merged, num_entities, num_relations, str(self.directory))
                drop = _triple_keys(rows, num_entities, num_relations, str(self.directory))
                merged = merged[~np.isin(keys, drop)]
        return merged

    def stream(self, split: str = "train", **kwargs: Any) -> "TripleStream":
        """A :class:`TripleStream` over one split (see its docstring)."""
        return TripleStream(self, split=split, **kwargs)

    # ------------------------------------------------------------------
    # Mutation: append/delete deltas
    # ------------------------------------------------------------------
    def apply_delta(
        self,
        split: str = "train",
        appends: Optional[np.ndarray] = None,
        deletes: Optional[np.ndarray] = None,
        new_entity_names: Optional[Sequence[str]] = None,
        new_relation_names: Optional[Sequence[str]] = None,
    ) -> int:
        """Commit one append/delete delta batch; returns the new generation.

        Within a generation, deletes are applied before appends (so a
        delta can atomically replace a triple).  Appended triples may
        introduce new entity/relation ids — ids must be dense (growing the
        vocabulary by exactly the new contiguous range), and a store with
        symbol names requires one new name per new id.  Deleting a triple
        that is not present, or re-appending one that is, raises
        :class:`DatasetError` naming the offending triple.

        The delta rows are written as ``deltas/delta-<gen>-<op>-<split>.npy``
        and the manifest is rewritten atomically (temp file + rename), so a
        crash mid-commit leaves the previous generation intact.
        """
        from repro.obs import get_registry

        entries = self._entries(split)
        del entries  # validates the split name
        append_rows = _as_delta_rows(appends, f"{self.directory}: appends")
        delete_rows = _as_delta_rows(deletes, f"{self.directory}: deletes")
        _require(
            append_rows.shape[0] > 0 or delete_rows.shape[0] > 0,
            f"{self.directory}: delta must carry at least one appended or deleted triple",
        )
        context = str(self.directory)
        merged = self.load_split(split)
        old_entities = self.num_entities
        old_relations = self.num_relations

        new_entities = old_entities
        new_relations = old_relations
        if append_rows.shape[0]:
            new_entities = max(old_entities, int(append_rows[:, [0, 2]].max()) + 1)
            new_relations = max(old_relations, int(append_rows[:, 1].max()) + 1)
        if delete_rows.shape[0]:
            _require(
                int(delete_rows[:, [0, 2]].max()) < old_entities
                and int(delete_rows[:, 1].max()) < old_relations,
                f"{context}: deletes reference ids outside the current vocabulary "
                f"({old_entities} entities, {old_relations} relations)",
            )

        names = self.vocab_names()
        updated_names: Dict[str, Optional[List[str]]] = dict(names)
        for key, grown, old_count, new_count in (
            ("entity_names", new_entity_names, old_entities, new_entities),
            ("relation_names", new_relation_names, old_relations, new_relations),
        ):
            growth = new_count - old_count
            existing = names[key]
            if grown is not None:
                _require(
                    existing is not None,
                    f"{context}: store has no {key}; cannot attach names to a delta",
                )
                _require(
                    len(grown) == growth,
                    f"{context}: delta grows the vocabulary by {growth} "
                    f"{key.split('_')[0]} ids but {len(grown)} names were given",
                )
                clashes = set(grown) & set(existing or ())
                _require(
                    not clashes,
                    f"{context}: new {key} already present: {sorted(clashes)[:3]}",
                )
                updated_names[key] = list(existing or []) + [str(item) for item in grown]
            elif growth and existing is not None:
                raise DatasetError(
                    f"{context}: delta introduces {growth} new "
                    f"{key.split('_')[0]} ids but no names were given "
                    f"(store has {key}; pass new_{key})"
                )

        merged_keys = _triple_keys(merged, new_entities, new_relations, context)
        if delete_rows.shape[0]:
            delete_keys = _triple_keys(delete_rows, new_entities, new_relations, context)
            _require(
                np.unique(delete_keys).size == delete_keys.size,
                f"{context}: delta deletes the same triple twice",
            )
            present = np.isin(delete_keys, merged_keys)
            if not present.all():
                h, r, t = (int(v) for v in delete_rows[int(np.argmin(present))])
                raise DatasetError(
                    f"{context}: cannot delete triple ({h}, {r}, {t}) from "
                    f"{split!r}: not present in the current generation"
                )
        else:
            delete_keys = np.zeros(0, dtype=np.int64)
        if append_rows.shape[0]:
            append_keys = _triple_keys(append_rows, new_entities, new_relations, context)
            _require(
                np.unique(append_keys).size == append_keys.size,
                f"{context}: delta appends the same triple twice",
            )
            duplicate = np.isin(append_keys, merged_keys) & ~np.isin(append_keys, delete_keys)
            if duplicate.any():
                h, r, t = (int(v) for v in append_rows[int(np.argmax(duplicate))])
                raise DatasetError(
                    f"{context}: cannot append triple ({h}, {r}, {t}) to "
                    f"{split!r}: already present in the current generation"
                )

        generation = self.generation + 1
        delta_dir = self.directory / DELTA_DIRNAME
        delta_dir.mkdir(exist_ok=True)
        new_entries: List[Dict[str, Any]] = []
        for op, rows in (("delete", delete_rows), ("append", append_rows)):
            if not rows.shape[0]:
                continue
            filename = _delta_filename(generation, op, split)
            np.save(delta_dir / filename, rows)
            new_entries.append(
                {
                    "file": f"{DELTA_DIRNAME}/{filename}",
                    "count": int(rows.shape[0]),
                    "op": op,
                    "split": split,
                    "generation": generation,
                }
            )

        manifest = dict(self.manifest)
        manifest["generation"] = generation
        manifest["deltas"] = list(manifest["deltas"]) + new_entries
        manifest["num_entities"] = int(new_entities)
        manifest["num_relations"] = int(new_relations)
        manifest["vocab_hash"] = vocab_hash(
            new_entities,
            new_relations,
            updated_names["entity_names"],
            updated_names["relation_names"],
        )
        if updated_names != names:
            (self.directory / VOCAB_FILENAME).write_text(
                json.dumps(updated_names, indent=2), encoding="utf-8"
            )
        manifest_path = self.directory / MANIFEST_FILENAME
        tmp_path = self.directory / (MANIFEST_FILENAME + ".tmp")
        tmp_path.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
        os.replace(tmp_path, manifest_path)
        self.manifest = manifest
        self._cache.clear()

        registry = get_registry()
        deltas_counter = registry.counter(
            "repro_live_deltas_applied_total",
            "Triples applied through TripleStore.apply_delta",
            labels={"op": "append"},
        )
        if append_rows.shape[0]:
            deltas_counter.inc(int(append_rows.shape[0]))
        if delete_rows.shape[0]:
            registry.counter(
                "repro_live_deltas_applied_total",
                "Triples applied through TripleStore.apply_delta",
                labels={"op": "delete"},
            ).inc(int(delete_rows.shape[0]))
        registry.gauge(
            "repro_live_generation", "Current TripleStore delta generation"
        ).set(generation)
        return generation

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def to_graph(self) -> KnowledgeGraph:
        """Materialize the store (merged view) as an in-memory :class:`KnowledgeGraph`."""
        names = self.vocab_names()
        splits = {}
        for split in _SPLITS:
            array = self.load_split(split)
            # Freeze before handing over: KnowledgeGraph passes read-only
            # int64 arrays through zero-copy instead of re-copying them.
            array.flags.writeable = False
            splits[split] = array
        return KnowledgeGraph(
            num_entities=self.num_entities,
            num_relations=self.num_relations,
            train=splits["train"],
            valid=splits["valid"],
            test=splits["test"],
            entity_names=tuple(names["entity_names"]) if names["entity_names"] else None,
            relation_names=tuple(names["relation_names"]) if names["relation_names"] else None,
            name=self.name,
        )

    def filter_index(self, splits: Sequence[str] = _SPLITS) -> FilterIndex:
        """Shard-aware :class:`FilterIndex` over the chosen splits, memoized."""
        key = ("filter_index", tuple(splits))
        cached = self._cache.get(key)
        if cached is None:
            cached = build_filter_index(self, splits=splits)
            self._cache[key] = cached
        return cached


def write_store(
    graph: KnowledgeGraph,
    directory: PathLike,
    shard_size: int = DEFAULT_SHARD_SIZE,
    name: Optional[str] = None,
) -> TripleStore:
    """Write an in-memory graph out as a sharded store (``KnowledgeGraph.to_store``)."""
    writer = StoreWriter(directory, name=name if name is not None else graph.name,
                         shard_size=shard_size)
    for split in _SPLITS:
        writer.append(split, graph.split(split))
    return writer.finalize(
        graph.num_entities,
        graph.num_relations,
        entity_names=graph.entity_names,
        relation_names=graph.relation_names,
    )


# ----------------------------------------------------------------------
# Streaming mini-batch iteration
# ----------------------------------------------------------------------
#: Bit-reversal swap levels for 16- and 32-bit index widths.
_REVERSE_LEVELS_16 = ((1, 0x5555), (2, 0x3333), (4, 0x0F0F), (8, 0x00FF))
_REVERSE_LEVELS_32 = (
    (1, 0x55555555),
    (2, 0x33333333),
    (4, 0x0F0F0F0F),
    (8, 0x00FF00FF),
    (16, 0x0000FFFF),
)


def _epoch_shard_permutation(count: int, rng: np.random.Generator) -> np.ndarray:
    """One shard's epoch permutation, computed algebraically in vector ops.

    A uniform Fisher-Yates shuffle per shard per epoch would dominate the
    whole epoch's wall time (it is the seed pattern's main cost too), and
    caching per-shard shuffles would retain O(split/3) bytes of indices —
    exactly what a streaming iterator must not do.  Instead the epoch
    permutation is a zero-storage mixing bijection over the next power of
    two ``m >= count``: affine (odd stride, so coprime with ``m``; mod
    ``m`` falls out of the unsigned wrap-around) -> bit reversal -> a
    second affine, cycle-walked down to ``count`` by dropping values
    ``>= count``.  Each stage is a bijection, so the result is a genuine
    permutation covering every index exactly once; the four per-epoch
    draws (stride1, offset1, stride2, offset2 — in that order, the oracle
    replays the same stream) vary batch composition between epochs.  All
    arithmetic runs in-place on width-matched unsigned indices (uint16 for
    the default 64k shards), so the whole permutation costs a handful of
    vector passes.  The mixing is not a uniform random permutation, but
    consecutive indices are torn apart by the bit reversal and both
    affines, which is what mini-batch SGD needs from a shuffle.
    """
    if count <= 1:
        return np.zeros(count, dtype=np.int64)
    if count > (1 << 31):  # pragma: no cover - 48 GiB+ shards
        return rng.permutation(count)
    m = 1 << (count - 1).bit_length()
    bits = m.bit_length() - 1
    stride1 = int(rng.integers(0, 1 << 14)) * 2 + 1
    offset1 = int(rng.integers(0, m))
    stride2 = int(rng.integers(0, 1 << 14)) * 2 + 1
    offset2 = int(rng.integers(0, m))
    if bits <= 16:
        dtype, width, levels = np.uint16, 16, _REVERSE_LEVELS_16
    else:
        dtype, width, levels = np.uint32, 32, _REVERSE_LEVELS_32
    mask = dtype(m - 1)
    v = np.arange(m, dtype=dtype)
    v *= dtype(stride1)  # unsigned wrap-around == mod 2^width; & mask == mod m
    v += dtype(offset1)
    v &= mask
    scratch = np.empty_like(v)
    for shift, level_mask in levels:
        np.right_shift(v, shift, out=scratch)
        scratch &= dtype(level_mask)
        v &= dtype(level_mask)
        v <<= shift
        v |= scratch
    v >>= width - bits
    v *= dtype(stride2)
    v += dtype(offset2)
    v &= mask
    if m != count:
        v = v[v < count]
    return v


class TripleStream:
    """Deterministic shuffled mini-batches over one store split.

    Shuffling is two-level.  Each epoch, ``np.random.default_rng((seed,
    epoch))`` draws a shard visiting order, then a zero-storage mixing
    permutation inside every visited shard (see
    :func:`_epoch_shard_permutation`).  The full split is never
    materialized: peak memory is one permuted shard plus a partial-batch
    carry.  Batches that would straddle a shard boundary are completed
    across it, so every triple appears exactly once per epoch and batch
    boundaries are bit-identical to the in-memory oracle in
    ``tests/stream_oracle.py``.

    Compared to the seed in-memory pattern (global permutation + per-batch
    fancy indexing), the shard-local gather (``np.take`` of a ~1.5 MB
    shard) is cache-friendly, the per-epoch permutation is a few vector
    ops instead of a full Fisher-Yates shuffle, and batches are emitted as
    views — the pipeline benchmark measures the resulting epoch-throughput
    speedup.
    """

    def __init__(
        self,
        store: TripleStore,
        split: str = "train",
        batch_size: int = 512,
        seed: int = 0,
        drop_last: bool = False,
    ) -> None:
        if batch_size <= 0:
            raise DatasetError(f"batch_size must be positive, got {batch_size}")
        if store.has_deltas(split):
            raise DatasetError(
                f"{store.directory}: split {split!r} has "
                f"{len(store.delta_entries(split))} pending delta(s); "
                f"streaming only covers base shards — compact first "
                f"(repro.live.compaction.compact_store) or fine-tune on the "
                f"delta batch (repro.live.finetune)"
            )
        self.store = store
        self.split = split
        self.batch_size = int(batch_size)
        self.seed = int(seed)
        self.drop_last = bool(drop_last)
        self._counts = store.shard_counts(split)

    @property
    def num_triples(self) -> int:
        return sum(self._counts)

    @property
    def num_entities(self) -> int:
        return self.store.num_entities

    @property
    def num_relations(self) -> int:
        return self.store.num_relations

    def num_batches(self) -> int:
        full, rest = divmod(self.num_triples, self.batch_size)
        return full + (1 if rest and not self.drop_last else 0)

    def epoch(self, epoch: int = 0) -> Iterator[np.ndarray]:
        """Yield the shuffled mini-batches of one epoch (0-indexed)."""
        rng = np.random.default_rng((self.seed, int(epoch)))
        batch_size = self.batch_size
        carry: Optional[np.ndarray] = None
        for shard_index in rng.permutation(len(self._counts)):
            shard_index = int(shard_index)
            # The base-class view strips the np.memmap subclass: ``take``
            # then returns (and every batch slices) plain ndarrays, instead
            # of paying memmap.__getitem__ bookkeeping per batch.
            shard = np.asarray(self.store.shard(self.split, shard_index))
            permutation = _epoch_shard_permutation(shard.shape[0], rng)
            data = np.take(shard, permutation, axis=0)
            begin = 0
            if carry is not None and carry.shape[0]:
                # Complete the straddling batch without concatenating the
                # carry onto the whole shard (that would double peak memory).
                needed = batch_size - carry.shape[0]
                if data.shape[0] < needed:
                    carry = np.concatenate([carry, data], axis=0)
                    continue
                yield np.concatenate([carry, data[:needed]], axis=0)
                carry = None
                begin = needed
            limit = begin + ((data.shape[0] - begin) // batch_size) * batch_size
            for start in range(begin, limit, batch_size):
                yield data[start : start + batch_size]
            # Copy the sub-batch tail so the carry does not pin the whole
            # permuted shard in memory until the next one arrives.
            carry = data[limit:].copy() if limit < data.shape[0] else None
        if carry is not None and carry.shape[0] and not self.drop_last:
            yield carry

    def __iter__(self) -> Iterator[np.ndarray]:
        return self.epoch(0)

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return (
            f"TripleStream({self.store.name!r}:{self.split}, "
            f"{self.num_triples} triples, batch_size={self.batch_size}, "
            f"seed={self.seed})"
        )


# ----------------------------------------------------------------------
# Shard-aware derived state
# ----------------------------------------------------------------------
def build_filter_index(store: TripleStore, splits: Sequence[str] = _SPLITS) -> FilterIndex:
    """Build a :class:`FilterIndex` from a store without materializing splits.

    Streams every shard once, accumulating only the query codes and answer
    entities (the index's own O(n) state) instead of a concatenated
    ``(n, 3)`` array of all splits.  Produces exactly the same index as
    ``FilterIndex.build(concatenated_triples, num_relations)``.  A split
    with pending deltas is materialized as its merged view instead (the
    deltas must be folded into the pair lists, not streamed shard-wise).
    """
    num_relations = store.num_relations
    tail_codes: List[np.ndarray] = []
    tail_entities: List[np.ndarray] = []
    head_codes: List[np.ndarray] = []
    head_entities: List[np.ndarray] = []
    for split in splits:
        if store.has_deltas(split):
            sources: Any = [store.load_split(split)]
        else:
            sources = store.iter_shards(split)
        for shard in sources:
            heads = np.asarray(shard[:, 0])
            relations = np.asarray(shard[:, 1])
            tails = np.asarray(shard[:, 2])
            tail_codes.append(heads * num_relations + relations)
            tail_entities.append(tails)
            head_codes.append(tails * num_relations + relations)
            head_entities.append(heads)

    def _concat(parts: List[np.ndarray]) -> np.ndarray:
        if not parts:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(parts)

    return FilterIndex(
        num_relations=num_relations,
        tails=_DirectionIndex.build(_concat(tail_codes), _concat(tail_entities)),
        heads=_DirectionIndex.build(_concat(head_codes), _concat(head_entities)),
    )


def entities_by_relation(
    store: TripleStore, splits: Sequence[str] = ("train",)
) -> Dict[int, np.ndarray]:
    """Per-relation observed-entity pools, streamed shard by shard.

    The same pools :class:`repro.kge.negative_sampling.BernoulliNegativeSampler`
    computes from an in-memory graph: for every relation, the sorted unique
    entities observed as head or tail in the chosen splits; relations with
    no triples fall back to the full entity range.  Splits with pending
    deltas contribute their merged view.
    """
    collected: Dict[int, List[np.ndarray]] = {}
    for split in splits:
        if store.has_deltas(split):
            sources: Any = [store.load_split(split)]
        else:
            sources = store.iter_shards(split)
        for shard in sources:
            shard = np.asarray(shard)
            if not shard.shape[0]:
                continue
            # Group the shard's rows by relation in one sort instead of one
            # full-shard mask per relation (FB15k has 1,345 of them).
            order = np.argsort(shard[:, 1], kind="stable")
            sorted_relations = shard[order, 1]
            boundaries = np.flatnonzero(np.diff(sorted_relations)) + 1
            for group in np.split(order, boundaries):
                rows = shard[group]
                collected.setdefault(int(rows[0, 1]), []).append(
                    np.concatenate([rows[:, 0], rows[:, 2]])
                )
    pools: Dict[int, np.ndarray] = {}
    for relation in range(store.num_relations):
        parts = collected.get(relation)
        if parts:
            pools[relation] = np.unique(np.concatenate(parts))
        else:
            pools[relation] = np.arange(store.num_entities)
    return pools


# ----------------------------------------------------------------------
# Chunked TSV ingestion
# ----------------------------------------------------------------------
#: Symbol-id ceiling for the packed duplicate check (three 21-bit fields).
_DUP_CHECK_ID_LIMIT = 1 << 21

#: An empty or whitespace-only line (terminated — the unfinished chunk
#: remainder never matches); its presence routes a chunk to the careful
#: parser, which skips such lines exactly like the in-memory oracle.
_BLANK_LINE_RE = re.compile(rb"(?m)^[ \t\r]*\n")


def _locate_duplicate_line(path: Path, chunk_bytes: int) -> None:
    """Diagnostic rescan after the vectorized pass detected a duplicate.

    The happy path never pays per-line set bookkeeping; only once a
    duplicate is *known* to exist does this slow pass rerun the file to
    name the exact line.  Always raises.
    """
    seen: set = set()
    line_number = 0

    def check(line: bytes) -> None:
        nonlocal line_number
        line_number += 1
        if line[-1:] == b"\r":
            line = line[:-1]
        if not line.strip():
            return
        if line in seen:
            head, relation, tail = line.split(b"\t")
            raise DatasetError(
                f"{path}:{line_number}: duplicate triple "
                f"{head.decode('utf-8', 'replace')!r} "
                f"{relation.decode('utf-8', 'replace')!r} "
                f"{tail.decode('utf-8', 'replace')!r} "
                f"(pass check_duplicates=False / --allow-duplicates to accept "
                f"repeated triples)"
            )
        seen.add(line)

    with path.open("rb") as handle:
        remainder = b""
        while True:
            chunk = handle.read(chunk_bytes)
            if not chunk:
                break
            chunk = remainder + chunk
            lines = chunk.split(b"\n")
            remainder = lines.pop()
            for line in lines:
                check(line)
        if remainder:
            check(remainder)
    raise DatasetError(f"{path}: duplicate triple detected but not located on rescan")


def _parse_tsv_split(
    path: Path,
    entity_to_id: Dict[bytes, int],
    relation_to_id: Dict[bytes, int],
    grow: bool,
    writer: ShardWriter,
    check_duplicates: bool,
    chunk_bytes: int,
) -> int:
    """Parse one split file in binary chunks straight into shard files.

    Vocabulary growth order (head, relation, tail per line) matches
    :func:`repro.datasets.io.load_tsv_dataset` exactly, so the resulting ids
    are bit-identical to the in-memory loader's.  Returns the triple count.

    The hot path is vectorized: a chunk's lines are flat-split into one
    field list (one C-level ``split``), resolved through ``map(dict.get)``
    and checked for integrity with a per-line length equation (field
    lengths + two tabs must reconstruct each line's length exactly — a
    mismatch anywhere proves a malformed line).  Any irregularity (blank
    lines, ``\\r`` endings, wrong field counts) falls back to the careful
    per-line parser for that chunk, which raises the precise
    file-and-line error.  Duplicate detection packs each triple into one
    int64 and runs a single vectorized uniqueness check at the end of the
    file, rescanning slowly only to localize an error that is already
    certain.
    """
    if not path.exists():
        raise DatasetError(f"{path}: split file does not exist")
    from array import array

    line_number = 0
    total = 0
    ids = array("q")
    code_chunks: List[np.ndarray] = []
    entity_get = entity_to_id.get
    relation_get = relation_to_id.get

    def emit(rows: np.ndarray) -> None:
        if check_duplicates:
            code_chunks.append((rows[:, 0] << 42) | (rows[:, 1] << 21) | rows[:, 2])
        writer.append(rows)

    def flush_rows() -> None:
        nonlocal ids
        if ids:
            emit(np.frombuffer(ids, dtype=np.int64).reshape(-1, 3))
            ids = array("q")

    def process_fast(lines: List[bytes]) -> bool:
        """Vectorized chunk parse; returns False when the chunk needs care."""
        nonlocal line_number, total
        count = len(lines)
        joined = b"\t".join(lines)
        if b"\r" in joined:
            return False
        fields = joined.split(b"\t")
        if len(fields) != 3 * count:
            return False
        field_lengths = np.fromiter(map(len, fields), np.int64, len(fields))
        line_lengths = np.fromiter(map(len, lines), np.int64, count)
        reconstructed = field_lengths[0::3] + field_lengths[1::3] + field_lengths[2::3] + 2
        if not np.array_equal(reconstructed, line_lengths):
            return False
        heads = fields[0::3]
        relations = fields[1::3]
        tails = fields[2::3]
        # Grow the vocabularies from the ordered-unique symbol sequences.
        # ``dict.fromkeys`` dedups at C speed preserving first appearance;
        # the interleaved head/tail list reproduces the oracle's
        # line-by-line (head, then tail) entity numbering exactly, and the
        # two tables are independent so their relative order is free.
        interleaved: List[bytes] = [b""] * (2 * count)
        interleaved[0::2] = heads
        interleaved[1::2] = tails
        new_entities = [s for s in dict.fromkeys(interleaved) if s not in entity_to_id]
        new_relations = [s for s in dict.fromkeys(relations) if s not in relation_to_id]
        if (new_entities or new_relations) and not grow:
            return False  # the careful pass raises the exact file:line error
        for symbol in new_entities:
            entity_to_id[symbol] = len(entity_to_id)
        for symbol in new_relations:
            relation_to_id[symbol] = len(relation_to_id)
        rows = np.empty((count, 3), dtype=np.int64)
        rows[:, 0] = list(map(entity_to_id.__getitem__, heads))
        rows[:, 1] = list(map(relation_to_id.__getitem__, relations))
        rows[:, 2] = list(map(entity_to_id.__getitem__, tails))
        emit(rows)
        line_number += count
        total += count
        return True

    def process(lines: List[bytes]) -> None:
        """Careful per-line fallback: exact errors, blank lines, CR endings."""
        nonlocal line_number, total
        append = ids.append
        for line in lines:
            line_number += 1
            if line[-1:] == b"\r":  # text-mode universal newlines would eat this
                line = line[:-1]
            if not line.strip():
                continue
            parts = line.split(b"\t")
            if len(parts) != 3:
                raise DatasetError(
                    f"{path}:{line_number}: expected 3 tab-separated fields, "
                    f"got {len(parts)}"
                )
            head, relation, tail = parts
            head_id = entity_get(head)
            if head_id is None:
                if not grow:
                    _raise_unseen(path, line_number, head)
                head_id = len(entity_to_id)
                entity_to_id[head] = head_id
            relation_id = relation_get(relation)
            if relation_id is None:
                if not grow:
                    _raise_unseen(path, line_number, relation)
                relation_id = len(relation_to_id)
                relation_to_id[relation] = relation_id
            tail_id = entity_get(tail)
            if tail_id is None:
                if not grow:
                    _raise_unseen(path, line_number, tail)
                tail_id = len(entity_to_id)
                entity_to_id[tail] = tail_id
            append(head_id)
            append(relation_id)
            append(tail_id)
            total += 1

    with path.open("rb") as handle:
        remainder = b""
        while True:
            chunk = handle.read(chunk_bytes)
            if not chunk:
                break
            chunk = remainder + chunk
            lines = chunk.split(b"\n")
            remainder = lines.pop()
            # Blank / whitespace-only lines must be *skipped* (the oracle
            # strips them); the flat field parse would read them as
            # whitespace symbols, so such chunks take the careful path.
            body = chunk[: len(chunk) - len(remainder)]
            if lines and not _BLANK_LINE_RE.search(body) and process_fast(lines):
                continue
            if lines:
                process(lines)
                flush_rows()
        if remainder:
            process([remainder])
    flush_rows()

    if check_duplicates and code_chunks:
        if max(len(entity_to_id), len(relation_to_id)) >= _DUP_CHECK_ID_LIMIT:
            raise DatasetError(
                f"{path}: duplicate checking supports up to {_DUP_CHECK_ID_LIMIT} "
                f"symbols; pass check_duplicates=False for larger vocabularies"
            )
        codes = code_chunks[0] if len(code_chunks) == 1 else np.concatenate(code_chunks)
        if np.unique(codes).size != codes.size:
            _locate_duplicate_line(path, chunk_bytes)
    return total


def _raise_unseen(path: Path, line_number: int, symbol: bytes) -> None:
    raise DatasetError(
        f"{path}:{line_number}: symbol {symbol.decode('utf-8', 'replace')!r} "
        f"not present in training vocabulary"
    )


def ingest_tsv(
    directory: PathLike,
    store_dir: PathLike,
    name: Optional[str] = None,
    shard_size: int = DEFAULT_SHARD_SIZE,
    train_file: str = "train.txt",
    valid_file: str = "valid.txt",
    test_file: str = "test.txt",
    allow_unseen_in_eval: bool = True,
    check_duplicates: bool = True,
    chunk_bytes: int = 4 << 20,
) -> TripleStore:
    """Convert a TSV benchmark directory into a sharded store.

    The chunked binary parser produces vocabularies and index triples
    bit-identical to :func:`repro.datasets.io.load_tsv_dataset` (the parity
    oracle) while reading files in ``chunk_bytes`` blocks and writing shards
    as it goes — no split is ever held in memory.  Malformed lines,
    duplicate triples (within a split, when ``check_duplicates``) and
    symbols missing from the training vocabulary (when
    ``allow_unseen_in_eval`` is false) raise
    :class:`~repro.datasets.errors.DatasetError` naming file and line.
    """
    base = Path(directory)
    label = name if name is not None else base.name or "tsv-dataset"
    writer = StoreWriter(store_dir, name=label, shard_size=shard_size)
    entity_to_id: Dict[bytes, int] = {}
    relation_to_id: Dict[bytes, int] = {}
    counts = {}
    for split, file_name, grow in (
        ("train", train_file, True),
        ("valid", valid_file, allow_unseen_in_eval),
        ("test", test_file, allow_unseen_in_eval),
    ):
        counts[split] = _parse_tsv_split(
            base / file_name,
            entity_to_id,
            relation_to_id,
            grow,
            writer._writers[split],
            check_duplicates,
            chunk_bytes,
        )
    if counts["train"] == 0:
        raise DatasetError(f"{base / train_file}: training split is empty")
    entity_names = [symbol.decode("utf-8") for symbol in entity_to_id]
    relation_names = [symbol.decode("utf-8") for symbol in relation_to_id]
    return writer.finalize(
        len(entity_to_id),
        len(relation_to_id),
        entity_names=entity_names,
        relation_names=relation_names,
    )
