"""Assembly of global properties from QF piece results (paper Eq. 1).

Every piece carries a coefficient ``sign * multiplicity``; energies,
gradients, Hessians, and polarizability derivatives are plain signed
sums over pieces, with piece-atom rows mapped to global coordinates
through ``atom_map``. Rows belonging to artificial cap hydrogens
(``atom_map == -1``) are dropped — their contributions cancel to the
MFCC approximation order between fragments and concaps.

For very large systems the assembled Hessian is block-sparse (nonzeros
only inside pieces); :func:`assemble_sparse_hessian` builds the
scipy CSR operator consumed by the Lanczos/GAGQ solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from repro.dfpt.hessian import FragmentResponse
from repro.fragment.fragmenter import QFPiece


def _coefficient(piece: QFPiece) -> float:
    mult = piece.multiplicity if piece.multiplicity else 1
    return piece.sign * mult


def assemble_energy(pieces: list[QFPiece], energies: list[float]) -> float:
    """Total QF energy: sum of signed piece energies."""
    if len(pieces) != len(energies):
        raise ValueError("piece/energy length mismatch")
    return float(sum(_coefficient(p) * e for p, e in zip(pieces, energies)))


def assemble_gradient(
    pieces: list[QFPiece],
    gradients: list[np.ndarray],
    natoms_total: int,
) -> np.ndarray:
    """Global gradient (natoms_total, 3) from piece gradients."""
    g = np.zeros((natoms_total, 3))
    for piece, pg in zip(pieces, gradients):
        coeff = _coefficient(piece)
        real = np.where(piece.atom_map >= 0)[0]
        g[piece.atom_map[real]] += coeff * np.asarray(pg)[real]
    return g


@dataclass
class AssembledResponse:
    """Globally assembled second-order response (Eq. 1 applied to the
    Hessian and the polarizability derivative)."""

    energy: float
    hessian: np.ndarray            # (3N, 3N) dense
    dalpha_dr: np.ndarray | None   # (3N, 3, 3)
    natoms: int




@dataclass
class _SignedBlocks:
    """Every piece's Eq. (1) term, flattened in piece order: the signed
    Hessian block ``c * H[pc, pc]`` row-major against its global
    (row, column) coordinates, and the signed ``c * dα/dR[pc]`` rows
    against their global coordinates."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    coords: np.ndarray
    dalpha: np.ndarray | None      # (len(coords), 3, 3)


def _signed_blocks(
    pieces: list[QFPiece],
    responses: list[FragmentResponse],
    raman: bool,
) -> _SignedBlocks:
    """Gather every piece's signed blocks in one fancy-indexing pass per
    group of pieces with the same size and number of real atoms.

    Each group writes its blocks at its pieces' offsets, so the output
    stays in piece order and a sequential scatter of it adds each global
    entry's terms in the same order as a per-piece loop would.
    """
    by_size: dict[int, list[int]] = {}
    for k, piece in enumerate(pieces):
        by_size.setdefault(piece.natoms, []).append(k)
    nreal = np.zeros(len(pieces), dtype=np.intp)
    groups = []     # (piece indices, real atom positions, their global atoms)
    for members in by_size.values():
        members = np.asarray(members)
        amap = np.stack([pieces[k].atom_map for k in members])
        real = amap >= 0
        counts = real.sum(axis=1)
        for r in np.unique(counts):
            sel = counts == r
            pos = np.nonzero(real[sel])[1].reshape(-1, r)
            groups.append((members[sel], pos,
                           np.take_along_axis(amap[sel], pos, axis=1)))
            nreal[members[sel]] = r
    m = 3 * nreal
    h_start = np.zeros(len(pieces) + 1, dtype=np.intp)
    d_start = np.zeros(len(pieces) + 1, dtype=np.intp)
    np.cumsum(m * m, out=h_start[1:])
    np.cumsum(m, out=d_start[1:])
    rows = np.empty(h_start[-1], dtype=np.intp)
    cols = np.empty(h_start[-1], dtype=np.intp)
    values = np.empty(h_start[-1])
    coords = np.empty(d_start[-1], dtype=np.intp)
    dalpha = np.empty((d_start[-1], 3, 3)) if raman else None
    xyz = np.arange(3)
    for idx, pos, atoms in groups:
        g, n = len(idx), 3 * pos.shape[1]
        pc = (3 * pos[:, :, None] + xyz).reshape(g, n)
        gc = (3 * atoms[:, :, None] + xyz).reshape(g, n)
        coeff = np.array([_coefficient(pieces[k]) for k in idx])
        hess = np.stack([responses[k].hessian for k in idx])
        block = coeff[:, None, None] * hess[np.arange(g)[:, None, None],
                                            pc[:, :, None], pc[:, None, :]]
        at = h_start[idx][:, None] + np.arange(n * n)
        values[at] = block.reshape(g, n * n)
        rows[at] = np.repeat(gc, n, axis=1)
        cols[at] = np.tile(gc, (1, n))
        at = d_start[idx][:, None] + np.arange(n)
        coords[at] = gc
        if raman:
            dadr = np.stack([responses[k].dalpha_dr for k in idx])
            dalpha[at] = (coeff[:, None, None, None]
                          * dadr[np.arange(g)[:, None], pc])
    return _SignedBlocks(rows, cols, values, coords, dalpha)


def _demand_zero(shape: tuple[int, ...]) -> np.ndarray:
    """A writable, C-contiguous float64 zero array on 4 KB pages.

    numpy advises transparent huge pages for arrays of 4 MiB or more,
    so the block-diagonal writes of a large assembly fault in and zero a
    whole 2 MB page per block — every page of the dense Hessian. An
    anonymous private mapping advised ``MADV_NOHUGEPAGE`` faults in only
    the 4 KB pages that are written; the rest read as zero.
    """
    import mmap  # deferred: only a dense assembly needs it

    nbytes = 8 * math.prod(shape)
    if nbytes == 0 or not hasattr(mmap, "MADV_NOHUGEPAGE"):
        return np.zeros(shape)
    buf = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=np.float64).reshape(shape)


def assemble_response(
    pieces: list[QFPiece],
    responses: list[FragmentResponse],
    natoms_total: int,
) -> AssembledResponse:
    """Dense assembly (small/medium systems)."""
    if len(pieces) != len(responses):
        raise ValueError("piece/response length mismatch")
    n3 = 3 * natoms_total
    have_raman = all(r.dalpha_dr is not None for r in responses)
    terms = _signed_blocks(pieces, responses, have_raman)
    hessian = _demand_zero((n3, n3))
    np.add.at(hessian.reshape(-1), terms.rows * n3 + terms.cols, terms.values)
    dalpha = None
    if have_raman:
        dalpha = np.zeros((n3, 3, 3))
        np.add.at(dalpha.reshape(-1),
                  (9 * terms.coords[:, None] + np.arange(9)).ravel(),
                  terms.dalpha.ravel())
    energy = 0.0
    for piece, resp in zip(pieces, responses):
        energy += _coefficient(piece) * resp.energy
    return AssembledResponse(
        energy=energy, hessian=hessian, dalpha_dr=dalpha, natoms=natoms_total
    )


def assemble_sparse_hessian(
    pieces: list[QFPiece],
    responses: list[FragmentResponse],
    natoms_total: int,
    masses_amu: np.ndarray | None = None,
) -> scipy.sparse.csr_matrix:
    """Block-sparse (optionally mass-weighted) global Hessian.

    This is the operator the Lanczos solver multiplies against for
    systems far beyond dense-diagonalization reach: memory scales with
    the number of piece-internal coordinate pairs, not (3N)^2.
    """
    terms = _signed_blocks(pieces, responses, raman=False)
    n3 = 3 * natoms_total
    h = scipy.sparse.coo_matrix(
        (terms.values, (terms.rows, terms.cols)), shape=(n3, n3)
    ).tocsr()
    if masses_amu is not None:
        # M^-1/2 H M^-1/2 on the CSR data: row i, then column j
        inv_sqrt = 1.0 / np.sqrt(np.repeat(np.asarray(masses_amu, float), 3))
        h.data *= np.repeat(inv_sqrt, np.diff(h.indptr))
        h.data *= inv_sqrt[h.indices]
        h.eliminate_zeros()   # as the sparse product D @ H @ D drops them
    return h
