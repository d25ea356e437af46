"""Reference λ-pair search: a dict cell list walked pair by pair.

:func:`repro.geometry.neighbor.pairs_within` does the same search as
array passes (sorted cell keys, one join per neighbour offset); its
output must equal this one exactly.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np


def candidate_pairs(coords: np.ndarray, cell_size: float):
    """Atom pairs (i < j) from the same or adjacent cells of side
    ``cell_size``; distances are not checked."""
    cells: dict[tuple[int, int, int], list[int]] = defaultdict(list)
    keys = np.floor(coords / cell_size).astype(np.int64)
    for idx, key in enumerate(map(tuple, keys)):
        cells[key].append(idx)
    offsets = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
               for dz in (-1, 0, 1)]
    forward = [o for o in offsets if o > (0, 0, 0)]
    for key, bucket in cells.items():
        for ii in range(len(bucket)):
            for jj in range(ii + 1, len(bucket)):
                yield (bucket[ii], bucket[jj])
        for off in forward:
            other = cells.get((key[0] + off[0], key[1] + off[1],
                               key[2] + off[2]))
            if other:
                for i in bucket:
                    for j in other:
                        yield (min(i, j), max(i, j))


def pairs_within(group_coords, threshold: float) -> list[tuple[int, int]]:
    sizes = [np.asarray(c).reshape(-1, 3).shape[0] for c in group_coords]
    all_coords = np.vstack([np.asarray(c, dtype=float).reshape(-1, 3)
                            for c in group_coords])
    owner = np.repeat(np.arange(len(group_coords)), sizes)
    found: set[tuple[int, int]] = set()
    thr2 = threshold * threshold
    for i, j in candidate_pairs(all_coords, threshold):
        gi, gj = int(owner[i]), int(owner[j])
        if gi == gj:
            continue
        key = (gi, gj) if gi < gj else (gj, gi)
        if key in found:
            continue
        d = all_coords[i] - all_coords[j]
        if float(d @ d) <= thr2:
            found.add(key)
    return sorted(found)
