"""Reference Eq. (1) assembly: one ``np.ix_`` scatter per piece.

This is the per-piece loop that :mod:`repro.fragment.assembly` replaced
with one gather per group of equal-size pieces and one sequential
scatter; the array passes must reproduce it bit for bit.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse


def coefficient(piece) -> float:
    mult = piece.multiplicity if piece.multiplicity else 1
    return piece.sign * mult


def coordinate_map(piece) -> tuple[np.ndarray, np.ndarray]:
    """(piece coordinate indices, global coordinate indices) for real atoms."""
    real = np.where(piece.atom_map >= 0)[0]
    pc = (3 * real[:, None] + np.arange(3)[None, :]).ravel()
    gc = (3 * piece.atom_map[real][:, None] + np.arange(3)[None, :]).ravel()
    return pc, gc


def assemble_response(pieces, responses, natoms_total, zeros=np.zeros):
    """(energy, dense Hessian, dα/dR or None). ``zeros`` allocates the
    Hessian; a large frame's test passes 4 KB demand-zero pages so that
    the oracle does not fault in the whole matrix."""
    n3 = 3 * natoms_total
    hessian = zeros((n3, n3))
    have_raman = all(r.dalpha_dr is not None for r in responses)
    dalpha = np.zeros((n3, 3, 3)) if have_raman else None
    energy = 0.0
    for piece, resp in zip(pieces, responses):
        coeff = coefficient(piece)
        energy += coeff * resp.energy
        pc, gc = coordinate_map(piece)
        hessian[np.ix_(gc, gc)] += coeff * resp.hessian[np.ix_(pc, pc)]
        if have_raman:
            dalpha[gc] += coeff * resp.dalpha_dr[pc]
    return energy, hessian, dalpha


def assemble_sparse_hessian(pieces, responses, natoms_total,
                            masses_amu=None):
    rows, cols, vals = [], [], []
    for piece, resp in zip(pieces, responses):
        coeff = coefficient(piece)
        pc, gc = coordinate_map(piece)
        block = coeff * resp.hessian[np.ix_(pc, pc)]
        r, c = np.meshgrid(gc, gc, indexing="ij")
        rows.append(r.ravel())
        cols.append(c.ravel())
        vals.append(block.ravel())
    n3 = 3 * natoms_total
    h = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n3, n3),
    ).tocsr()
    if masses_amu is not None:
        inv_sqrt = 1.0 / np.sqrt(np.repeat(np.asarray(masses_amu, float), 3))
        d = scipy.sparse.diags(inv_sqrt)
        h = d @ h @ d
    return h
