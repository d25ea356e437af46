"""Cell-list neighbor search.

The QF decomposition needs, for a λ distance threshold (4 Å in the
paper), all pairs of *fragments* whose minimal inter-atomic distance is
within λ — for 100 M atoms this is only tractable with spatial hashing.
We implement a classic cell list over fragment atom sets: each atom is
binned into a cube of side λ, and only the 27 neighboring cells are
searched for partners.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

import numpy as np


def min_distance(coords_a: np.ndarray, coords_b: np.ndarray) -> float:
    """Minimal pairwise distance between two coordinate sets (brute force)."""
    a = np.asarray(coords_a, dtype=float).reshape(-1, 3)
    b = np.asarray(coords_b, dtype=float).reshape(-1, 3)
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
    return float(np.sqrt(d2.min()))


class CellList:
    """Spatial hash of points on a cubic grid of side ``cell_size``.

    Points are assigned integer cell coordinates; a point query
    enumerates the 27-cell neighborhood, so every stored point within
    ``cell_size`` is returned (points slightly beyond may be too, and
    must be distance-filtered by the caller).
    """

    def __init__(self, coords: np.ndarray, cell_size: float):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.coords = np.asarray(coords, dtype=float).reshape(-1, 3)
        self.cell_size = float(cell_size)
        self._cells: dict[tuple[int, int, int], list[int]] = defaultdict(list)
        keys = np.floor(self.coords / self.cell_size).astype(np.int64)
        for idx, key in enumerate(map(tuple, keys)):
            self._cells[key].append(idx)

    def __len__(self) -> int:
        return self.coords.shape[0]

    def neighbors_of_point(self, point: np.ndarray) -> list[int]:
        """Indices of stored points in the 27-cell neighborhood of ``point``."""
        point = np.asarray(point, dtype=float).reshape(3)
        base = tuple(np.floor(point / self.cell_size).astype(np.int64))
        out: list[int] = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    key = (base[0] + dx, base[1] + dy, base[2] + dz)
                    bucket = self._cells.get(key)
                    if bucket:
                        out.extend(bucket)
        return out


#: the 13 neighbour offsets after (0, 0, 0) in lexicographic order: a
#: cell joined with itself and these visits every adjacent cell pair once
_FORWARD = np.array([(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                     for dz in (-1, 0, 1) if (dx, dy, dz) > (0, 0, 0)])


def pairs_within(
    group_coords: Sequence[np.ndarray],
    threshold: float,
) -> list[tuple[int, int]]:
    """All group pairs (i < j) whose minimal inter-atomic distance ≤ threshold.

    Parameters
    ----------
    group_coords:
        A sequence of ``(n_i, 3)`` coordinate arrays, one per group
        (fragment). Units must match ``threshold``.
    threshold:
        The λ distance threshold.

    Notes
    -----
    Implementation: a cell list over *all atoms* tagged with their group
    id, as array passes. Atoms are sorted by the key of their cube of
    side λ; each occupied cell is joined with itself and its 13 forward
    neighbours, and one distance filter over the candidate atom pairs
    keeps the group pairs with at least one atom pair within threshold.
    This is O(atoms) for liquids at fixed density, matching what the
    paper's master process must do when enumerating the 128 M
    water-water concaps.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    sizes = [np.asarray(c).reshape(-1, 3).shape[0] for c in group_coords]
    if any(s == 0 for s in sizes):
        raise ValueError("empty group in pairs_within")
    if not sizes:
        return []
    coords = np.vstack([np.asarray(c, dtype=float).reshape(-1, 3)
                        for c in group_coords])
    owner = np.repeat(np.arange(len(sizes)), sizes)

    # cell keys shifted so that every neighbour key is non-negative,
    # then linearized; equal keys are contiguous after the sort
    keys = np.floor(coords / threshold).astype(np.int64)
    keys -= keys.min(axis=0) - 1
    dims = keys.max(axis=0) + 2
    if float(np.prod(dims.astype(float))) >= 2.0 ** 62:
        raise ValueError("coordinates span too many cells for pairs_within")
    stride = np.array([dims[1] * dims[2], dims[2], 1])
    cell = keys @ stride
    order = np.argsort(cell, kind="stable")
    cells, start, count = np.unique(cell[order], return_index=True,
                                    return_counts=True)

    thr2 = threshold * threshold
    ngroups = len(sizes)
    found = []
    for offset in [np.zeros(3, dtype=np.int64), *_FORWARD]:
        target = cells + offset @ stride
        hit = np.minimum(np.searchsorted(cells, target), len(cells) - 1)
        a = np.flatnonzero(cells[hit] == target)
        b = hit[a]
        # every (atom of cell a, atom of cell b) pair, cell pair by pair
        npairs = count[a] * count[b]
        which = np.repeat(np.arange(len(a)), npairs)
        local = np.arange(npairs.sum()) - np.repeat(np.cumsum(npairs) - npairs,
                                                    npairs)
        ia, ib = np.divmod(local, count[b][which])
        if not offset.any():
            keep = ia < ib          # within one cell: each pair once
            which, ia, ib = which[keep], ia[keep], ib[keep]
        i = order[start[a][which] + ia]
        j = order[start[b][which] + ib]
        gi, gj = owner[i], owner[j]
        diff = coords[i] - coords[j]
        near = (gi != gj) & (np.add.reduce(diff * diff, axis=1) <= thr2)
        lo = np.minimum(gi[near], gj[near])
        hi = np.maximum(gi[near], gj[near])
        found.append(lo * ngroups + hi)
    lo, hi = np.divmod(np.unique(np.concatenate(found)), ngroups)
    return list(zip(lo.tolist(), hi.tolist()))


def count_pairs_within(
    group_coords: Sequence[np.ndarray],
    threshold: float,
) -> int:
    """Count of λ-threshold group pairs (see :func:`pairs_within`)."""
    return len(pairs_within(group_coords, threshold))
