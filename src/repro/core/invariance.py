"""Invariance group of the search space and canonical forms.

Section IV-A2 of the paper: two block structures define the *same* scoring
function (up to re-parameterization of the learned embeddings) when one can
be obtained from the other by

* permuting the four entity chunks (applied simultaneously to heads and
  tails, i.e. to the rows *and* columns of the block matrix),
* permuting the four relation chunks (renaming which ``r_k`` fills a block),
* flipping the sign of any subset of the relation chunks.

The group therefore has ``4! * 4! * 2^4 = 9,216`` elements.  Training two
structures in the same orbit wastes a full model-training run, so the filter
deduplicates candidates by their *canonical form*: the lexicographically
smallest substitute matrix over the whole orbit.

The group action has one implementation: one gather applies the 24 entity
permutations to a substitute matrix, and one table lookup applies the 384
(relation permutation, sign flips) pairs, giving all 9,216 images at once.
:func:`canonical_matrix` takes the smallest of their base-9 codes, well under
a millisecond per candidate; :func:`orbit_codes` returns them all, which is
how :func:`repro.core.search_space.enumerate_f4_structures` strikes out each
f4 seed's orbit.  ``tests/invariance_oracle.py`` keeps a per-element Python
version of the action as the parity oracle.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import List, Set, Tuple

import numpy as np

from repro.kge.scoring.blocks import NUM_CHUNKS, BlockStructure

#: All 24 chunk permutations, shared by entity and relation transformations.
_PERMUTATIONS: Tuple[Tuple[int, ...], ...] = tuple(permutations(range(NUM_CHUNKS)))

#: All 16 sign-flip patterns over the four relation chunks.
_SIGN_FLIPS: Tuple[Tuple[int, ...], ...] = tuple(product((1, -1), repeat=NUM_CHUNKS))


def _build_value_lookups() -> np.ndarray:
    """Lookup tables mapping substitute-matrix values through (perm, flips).

    A substitute value ``v`` encodes ``sign * (component + 1)`` with
    ``component`` in ``0..3`` (and ``v = 0`` for an empty cell).  Applying a
    relation permutation ``pi`` and sign flips ``eps`` maps
    ``v -> sign * eps[component] * (pi[component] + 1)``.

    Returns an array of shape ``(24 * 16, 9)`` indexed by ``v + 4``.
    """
    lookups = np.zeros((len(_PERMUTATIONS) * len(_SIGN_FLIPS), 2 * NUM_CHUNKS + 1), dtype=np.int64)
    row = 0
    for perm in _PERMUTATIONS:
        for flips in _SIGN_FLIPS:
            for value in range(-NUM_CHUNKS, NUM_CHUNKS + 1):
                if value == 0:
                    mapped = 0
                else:
                    component = abs(value) - 1
                    sign = 1 if value > 0 else -1
                    mapped = sign * flips[component] * (perm[component] + 1)
                lookups[row, value + NUM_CHUNKS] = mapped
            row += 1
    return lookups


_VALUE_LOOKUPS = _build_value_lookups()

#: Row-index arrays for applying the 24 entity permutations to a flattened
#: 4x4 matrix in one vectorized gather: entry (p, k) is the flat source index
#: of flat destination k under permutation p applied to rows and columns.
_ENTITY_PERMUTATION_GATHER = np.stack(
    [
        np.array(
            [perm[row] * NUM_CHUNKS + perm[col] for row in range(NUM_CHUNKS) for col in range(NUM_CHUNKS)],
            dtype=np.int64,
        )
        for perm in _PERMUTATIONS
    ]
)

#: Powers of 9 used to encode a 16-cell substitute matrix as one integer for
#: fast lexicographic comparison (values are shifted to 0..8 first).
_ENCODING_POWERS = (2 * NUM_CHUNKS + 1) ** np.arange(NUM_CHUNKS * NUM_CHUNKS - 1, -1, -1, dtype=np.int64)


def matrix_codes(matrices: np.ndarray) -> np.ndarray:
    """Base-9 codes of flat substitute matrices, one per row.

    Values are shifted to ``0..8`` and read as the digits of one integer
    (``9^16`` fits comfortably in int64), so comparing codes compares the
    matrices lexicographically and equal codes mean equal matrices.
    """
    return (np.asarray(matrices, dtype=np.int64) + NUM_CHUNKS) @ _ENCODING_POWERS


def _orbit_matrices(flat: np.ndarray) -> np.ndarray:
    """The ``(9216, 16)`` images of a flat substitute matrix, one per group element.

    Rows run over (relation permutation, sign flips) outermost and entity
    permutation innermost; an image repeats when the group element maps the
    structure to itself.
    """
    # Apply all 24 entity permutations (rows and columns) with one gather.
    permuted = flat[_ENTITY_PERMUTATION_GATHER]  # (24, 16)
    # Apply every (relation permutation, sign flip) value lookup to every
    # entity-permuted matrix: (384, 24, 16) -> (9216, 16).
    return _VALUE_LOOKUPS[:, permuted + NUM_CHUNKS].reshape(-1, flat.size)


def orbit_codes(matrix: np.ndarray) -> np.ndarray:
    """The ``(9216,)`` :func:`matrix_codes` of every group image of ``matrix``.

    ``matrix`` is a substitute matrix (4x4 or flat); the orbit of the
    structure it describes is the set of distinct codes.
    """
    return matrix_codes(_orbit_matrices(np.asarray(matrix, dtype=np.int64).ravel()))


def canonical_matrix(structure: BlockStructure) -> np.ndarray:
    """Lexicographically smallest substitute matrix over the orbit."""
    images = _orbit_matrices(structure.substitute_matrix().ravel())
    return images[int(np.argmin(matrix_codes(images)))].reshape(NUM_CHUNKS, NUM_CHUNKS)


def canonical_key(structure: BlockStructure) -> Tuple[int, ...]:
    """Hashable canonical identity of the structure's equivalence class."""
    return tuple(int(v) for v in canonical_matrix(structure).ravel())


def canonical_form(structure: BlockStructure) -> BlockStructure:
    """A canonical representative of the structure's equivalence class."""
    return BlockStructure.from_substitute_matrix(canonical_matrix(structure), name=structure.name)


def are_equivalent(first: BlockStructure, second: BlockStructure) -> bool:
    """True when the two structures are related by the invariance group."""
    return canonical_key(first) == canonical_key(second)


def distinct_representatives(structures: List[BlockStructure]) -> List[BlockStructure]:
    """Keep one representative per equivalence class, preserving order."""
    seen: Set[Tuple[int, ...]] = set()
    representatives: List[BlockStructure] = []
    for structure in structures:
        key = canonical_key(structure)
        if key not in seen:
            seen.add(key)
            representatives.append(structure)
    return representatives
