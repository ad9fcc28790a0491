"""Search-space enumeration and candidate generation.

Two generation modes are needed by the search algorithm:

* **the f4 seed set** — with exactly four non-zero blocks, constraint (C2)
  forces every row and column to hold exactly one block and every relation
  chunk to be used exactly once, so candidates are (cell permutation,
  component permutation, sign pattern) triples.  Enumerating all of them and
  deduplicating by invariance leaves only a handful of genuinely different
  starting points (the paper reports five);
* **greedy extensions** — an f^{b} candidate is a parent f^{b-2} plus two
  extra blocks ``s <h_i, r_j, t_k>`` in previously empty cells (Eq. 7).

Both modes are exposed as pure functions so the greedy search, the random
search baseline and the tests all share the same generators.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.core.constraints import satisfies_c2
from repro.core.invariance import orbit_set
from repro.kge.scoring.blocks import NUM_CHUNKS, Block, BlockStructure
from repro.utils.rng import RngLike, ensure_rng

#: Total number of cells in the block matrix.
NUM_CELLS = NUM_CHUNKS * NUM_CHUNKS


def enumerate_f4_structures(deduplicate: bool = True) -> List[BlockStructure]:
    """Every 4-block structure satisfying (C2), optionally deduplicated.

    With four blocks, (C2) forces the occupied cells to form a permutation
    matrix and the components to be a permutation of ``{r_1..r_4}``; signs
    are free.  That gives ``4! * 4! * 2^4 = 9,216`` raw candidates, which
    collapse to a handful of equivalence classes under the invariance group.
    Every candidate built this way satisfies (C2), so none is checked.
    """
    structures: List[BlockStructure] = []
    seen_orbit_keys: set = set()
    for cell_perm in permutations(range(NUM_CHUNKS)):
        for component_perm in permutations(range(NUM_CHUNKS)):
            for signs in product((1, -1), repeat=NUM_CHUNKS):
                blocks: List[Block] = [
                    (row, cell_perm[row], component_perm[row], signs[row])
                    for row in range(NUM_CHUNKS)
                ]
                structure = BlockStructure(blocks)
                if deduplicate:
                    # Marking the accepted representative's whole orbit makes
                    # rejecting its 9,215 equivalents an O(1) set lookup.
                    if structure.key() in seen_orbit_keys:
                        continue
                    seen_orbit_keys.update(orbit_set(structure))
                structures.append(structure)
    return structures


def random_block(rng: RngLike = None, exclude_cells: Optional[Sequence] = None) -> Block:
    """Draw one random block, avoiding the given (row, col) cells."""
    gen = ensure_rng(rng)
    excluded = set(tuple(cell) for cell in (exclude_cells or ()))
    if len(excluded) >= NUM_CELLS:
        raise ValueError("no free cell remains for a new block")
    while True:
        row = int(gen.integers(0, NUM_CHUNKS))
        col = int(gen.integers(0, NUM_CHUNKS))
        if (row, col) in excluded:
            continue
        component = int(gen.integers(0, NUM_CHUNKS))
        sign = 1 if gen.random() < 0.5 else -1
        return (row, col, component, sign)


def extend_structure(
    parent: BlockStructure,
    num_new_blocks: int = 2,
    rng: RngLike = None,
    max_attempts: int = 100,
) -> Optional[BlockStructure]:
    """One greedy extension: add ``num_new_blocks`` random blocks to ``parent``.

    Returns ``None`` when no valid extension was found within the attempt
    budget (e.g. because too few cells remain).
    """
    gen = ensure_rng(rng)
    if parent.num_blocks + num_new_blocks > NUM_CELLS:
        return None
    for _attempt in range(max_attempts):
        occupied = list(parent.cells())
        new_blocks: List[Block] = []
        try:
            for _ in range(num_new_blocks):
                block = random_block(gen, exclude_cells=occupied)
                new_blocks.append(block)
                occupied.append((block[0], block[1]))
        except ValueError:
            return None
        candidate = BlockStructure(list(parent.blocks) + new_blocks)
        return candidate
    return None


def random_structure(
    num_blocks: int,
    rng: RngLike = None,
    require_c2: bool = True,
    max_attempts: int = 2000,
) -> Optional[BlockStructure]:
    """Sample one random structure with ``num_blocks`` blocks.

    Used by the random-search baseline (Fig. 6) and by property-based tests.
    When ``require_c2`` is set, rejection sampling is applied until the
    candidate satisfies constraint (C2).
    """
    if not 1 <= num_blocks <= NUM_CELLS:
        raise ValueError(f"num_blocks must be in [1, {NUM_CELLS}]")
    gen = ensure_rng(rng)
    for _attempt in range(max_attempts):
        cells = gen.choice(NUM_CELLS, size=num_blocks, replace=False)
        blocks: List[Block] = []
        for cell in cells:
            row, col = divmod(int(cell), NUM_CHUNKS)
            component = int(gen.integers(0, NUM_CHUNKS))
            sign = 1 if gen.random() < 0.5 else -1
            blocks.append((row, col, component, sign))
        structure = BlockStructure(blocks)
        if not require_c2 or satisfies_c2(structure):
            return structure
    return None


def iterate_random_structures(
    num_blocks: int,
    count: int,
    rng: RngLike = None,
    require_c2: bool = True,
) -> Iterator[BlockStructure]:
    """Yield up to ``count`` random structures (skipping failed draws)."""
    gen = ensure_rng(rng)
    produced = 0
    while produced < count:
        structure = random_structure(num_blocks, gen, require_c2=require_c2)
        if structure is None:
            return
        produced += 1
        yield structure


def search_space_size(num_blocks: int) -> int:
    """Number of raw fillings with exactly ``num_blocks`` non-zero blocks.

    ``C(16, b) * 4^b * 2^b`` — the quantity the complexity analysis of
    Sec. IV-C reports (e.g. about 2 * 10^9 for b = 6).
    """
    from math import comb

    if not 0 <= num_blocks <= NUM_CELLS:
        raise ValueError(f"num_blocks must be in [0, {NUM_CELLS}]")
    return comb(NUM_CELLS, num_blocks) * (NUM_CHUNKS**num_blocks) * (2**num_blocks)


def total_search_space_size() -> int:
    """Size of the unrestricted space: every cell takes one of 9 values (9^16)."""
    return (2 * NUM_CHUNKS + 1) ** NUM_CELLS
