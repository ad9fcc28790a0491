"""Deterministic compaction: fold delta shards back into base shards.

Compaction materializes each split's merged view (base shards with
deletes removed in place and appends following in generation order) and
rewrites it through the same :class:`~repro.datasets.pipeline.ShardWriter`
path a fresh ingest uses.  Because the merged row order equals the row
order :func:`~repro.datasets.pipeline.ingest_tsv` would produce for the
merged TSV — provided deletions never remove a symbol's first appearance
and appends introduce new symbols in first-appearance order — the
resulting shard files are **bit-identical** to a re-ingest (the parity
oracle asserted in ``tests/test_live_store.py``).  The
compacted manifest keeps the source store's ``generation`` so the
counter stays a monotone audit trail; a re-ingested store restarts at 0,
which is the one intended manifest difference.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.datasets.pipeline import _SPLITS, PathLike, StoreWriter, TripleStore
from repro.obs import get_registry, span


def compact_store(
    store: Union[TripleStore, PathLike],
    output_dir: Optional[PathLike] = None,
) -> TripleStore:
    """Fold pending deltas into base shards; returns the compacted store.

    With ``output_dir`` the source store is left untouched and the
    compacted copy is written there.  Without it, compaction happens in
    place: the merged splits are materialized in memory first, then the
    directory is rewritten through :class:`StoreWriter` (which drops the
    old manifest before touching shards, so a crash mid-write leaves an
    unopenable directory rather than a torn store).  A store with no
    pending deltas compacts to a no-op in place, or to a plain copy when
    ``output_dir`` is given.
    """
    if not isinstance(store, TripleStore):
        store = TripleStore.open(store)
    in_place = output_dir is None
    if in_place and not store.has_deltas():
        return store
    target = store.directory if in_place else Path(output_dir)
    with span("live.compact") as handle:
        merged: Dict[str, np.ndarray] = {
            # np.array copies: the merged view may alias shard memmaps
            # that the in-place rewrite is about to unlink.
            split: np.array(store.load_split(split))
            for split in _SPLITS
        }
        names = store.vocab_names()
        generation = store.generation
        folded = sum(int(entry["count"]) for entry in store.delta_entries())
        writer = StoreWriter(target, name=store.name, shard_size=store.shard_size)
        for split in _SPLITS:
            writer.append(split, merged[split])
        compacted = writer.finalize(
            store.num_entities,
            store.num_relations,
            entity_names=names["entity_names"],
            relation_names=names["relation_names"],
            generation=generation,
        )
        handle.attrs["generation"] = generation
        handle.attrs["deltas_folded"] = folded
        handle.attrs["triples"] = int(sum(part.shape[0] for part in merged.values()))
        handle.attrs["in_place"] = in_place
    if in_place:
        # Refresh the caller's handle: same directory, new manifest.
        store.manifest = compacted.manifest
        store._cache.clear()
    get_registry().counter(
        "repro_live_compactions_total", "Completed compact_store runs"
    ).inc()
    return compacted
