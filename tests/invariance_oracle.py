"""The invariance group acting one element at a time: the parity oracle.

:mod:`repro.core.invariance` applies all 9,216 group elements to a
substitute matrix in one vectorized gather and lookup.  This module applies
them the slow, obvious way.  Each of the three generators rewrites the block
tuples of a :class:`~repro.kge.scoring.blocks.BlockStructure`;
:func:`orbit` composes them over every (entity permutation, relation
permutation, sign flips) triple; :func:`encode_key` computes a structure's
base-9 code digit by digit.  ``tests/test_core_invariance.py`` and
``tests/test_property_based.py`` assert that the vectorized orbit codes
equal the oracle's orbit, encoded.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Iterator, Set, Tuple

from repro.kge.scoring.blocks import NUM_CHUNKS, BlockStructure

_PERMUTATIONS = tuple(permutations(range(NUM_CHUNKS)))
_SIGN_FLIPS = tuple(product((1, -1), repeat=NUM_CHUNKS))


def entity_permutation(structure: BlockStructure, perm: Tuple[int, ...]) -> BlockStructure:
    """Apply an entity-chunk permutation (rows and columns simultaneously)."""
    return BlockStructure(
        [(perm[row], perm[col], component, sign) for row, col, component, sign in structure.blocks]
    )


def relation_permutation(structure: BlockStructure, perm: Tuple[int, ...]) -> BlockStructure:
    """Apply a relation-chunk permutation (rename which r_k fills each block)."""
    return BlockStructure(
        [(row, col, perm[component], sign) for row, col, component, sign in structure.blocks]
    )


def sign_flip(structure: BlockStructure, flips: Tuple[int, ...]) -> BlockStructure:
    """Flip the signs of selected relation chunks."""
    return BlockStructure(
        [(row, col, component, sign * flips[component]) for row, col, component, sign in structure.blocks]
    )


def orbit(structure: BlockStructure) -> Iterator[BlockStructure]:
    """Yield every structure equivalent to ``structure`` (with repetitions).

    The full orbit has at most 9,216 members; some group elements map the
    structure to itself, so fewer *distinct* structures may be produced.
    """
    for entity_perm in _PERMUTATIONS:
        permuted = entity_permutation(structure, entity_perm)
        for relation_perm in _PERMUTATIONS:
            renamed = relation_permutation(permuted, relation_perm)
            for flips in _SIGN_FLIPS:
                yield sign_flip(renamed, flips)


def orbit_set(structure: BlockStructure) -> Set[Tuple]:
    """The distinct members of the orbit as hashable block tuples."""
    return {member.key() for member in orbit(structure)}


def encode_key(key: Tuple) -> int:
    """Base-9 code of a block tuple's substitute matrix, one digit per cell.

    Cells are read row-major; a cell holding ``sign * (component + 1)``
    (or 0 when empty) contributes the digit ``value + 4``.
    """
    values = [0] * (NUM_CHUNKS * NUM_CHUNKS)
    for row, col, component, sign in key:
        values[row * NUM_CHUNKS + col] = sign * (component + 1)
    code = 0
    for value in values:
        code = code * (2 * NUM_CHUNKS + 1) + value + NUM_CHUNKS
    return code
