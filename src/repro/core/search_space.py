"""Search-space enumeration and candidate generation.

Two generation modes are needed by the search algorithm:

* **the f4 seed set** — with exactly four non-zero blocks, constraint (C2)
  forces every row and column to hold exactly one block and every relation
  chunk to be used exactly once, so candidates are (cell permutation,
  component permutation, sign pattern) triples.  All 9,216 are built as one
  array; deduplication repeatedly takes the first live candidate as a seed
  and strikes out its whole orbit, compared as base-9 codes from
  :func:`repro.core.invariance.orbit_codes`.  That leaves only a handful of
  genuinely different starting points (the paper reports five), found in
  five vectorized steps;
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
from repro.core.invariance import matrix_codes, orbit_codes
from repro.kge.scoring.blocks import NUM_CHUNKS, Block, BlockStructure
from repro.utils.rng import RngLike, ensure_rng

#: Total number of cells in the block matrix.
NUM_CELLS = NUM_CHUNKS * NUM_CHUNKS


def _f4_blocks() -> np.ndarray:
    """The 9,216 (C2) four-block fillings as a ``(9216, 4, 4)`` block array.

    Entry ``[n, row]`` is the ``(row, col, component, sign)`` block of row
    ``row`` in candidate ``n``; candidates run over (cell permutation,
    component permutation, sign pattern) in :mod:`itertools` order, the
    cell permutation outermost.
    """
    perms = np.array(list(permutations(range(NUM_CHUNKS))), dtype=np.int64)
    signs = np.array(list(product((1, -1), repeat=NUM_CHUNKS)), dtype=np.int64)
    blocks = np.empty((len(perms), len(perms), len(signs), NUM_CHUNKS, 4), dtype=np.int64)
    blocks[..., 0] = np.arange(NUM_CHUNKS)
    blocks[..., 1] = perms[:, None, None, :]
    blocks[..., 2] = perms[None, :, None, :]
    blocks[..., 3] = signs[None, None, :, :]
    return blocks.reshape(-1, NUM_CHUNKS, 4)


def enumerate_f4_structures(deduplicate: bool = True) -> List[BlockStructure]:
    """Every 4-block structure satisfying (C2), optionally deduplicated.

    With four blocks, (C2) forces the occupied cells to form a permutation
    matrix and the components to be a permutation of ``{r_1..r_4}``; signs
    are free.  That gives ``4! * 4! * 2^4 = 9,216`` raw candidates, which
    collapse to a handful of equivalence classes under the invariance group.
    Every candidate built this way satisfies (C2), so none is checked.

    Deduplication keeps the first candidate of each orbit in raw order: the
    first live candidate becomes a seed and its whole orbit (as
    :func:`~repro.core.invariance.orbit_codes`) is struck out, until no
    candidate is live.  Only the seeds are turned into structures.
    """
    blocks = _f4_blocks()
    if not deduplicate:
        return [BlockStructure(candidate) for candidate in blocks.tolist()]
    rows, cols, components, signs = np.moveaxis(blocks, -1, 0)
    matrices = np.zeros((len(blocks), NUM_CELLS), dtype=np.int64)
    np.put_along_axis(matrices, rows * NUM_CHUNKS + cols, signs * (components + 1), axis=1)
    codes = matrix_codes(matrices)
    live = np.ones(len(codes), dtype=bool)
    seeds: List[BlockStructure] = []
    while live.any():
        first = int(np.argmax(live))
        seeds.append(BlockStructure(blocks[first].tolist()))
        live &= ~np.isin(codes, orbit_codes(matrices[first]))
    return seeds


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
