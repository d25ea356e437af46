"""Rigid-body reuse of fragment responses.

A water box contains thousands of molecules that are *identical up to
rotation and translation*. Their Hessians and Raman tensors transform
tensorially, so one reference response serves every copy:

    H' = T H T^T,                   T = blockdiag(R, R, ..., R)
    (dalpha/dR)'_{Ix,ij} = sum R_{x x'} R_{i i'} R_{j j'} (dalpha)_{I x', i' j'}

This reuse is exact (unlike any numerical shortcut) and is what makes
large water boxes tractable on one core. The alignment rotation comes
from the Kabsch algorithm.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.dfpt.hessian import FragmentResponse
from repro.geometry.atoms import Geometry

#: pairwise distances (bohr) are rounded to this many decimals in
#: :func:`geometry_signature`
SIGNATURE_DECIMALS = 5


def kabsch_rotation(reference: np.ndarray, target: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, float | np.ndarray]:
    """Best-fit rotation R and translation t with target ~ ref @ R.T + t.

    ``target`` is one (n, 3) copy of the (n, 3) ``reference`` or an
    (m, n, 3) stack of copies. Returns (R, t, rmsd): (3, 3), (3,) and a
    float for one copy; (m, 3, 3), (m, 3) and (m,) for a stack, each
    entry bit-identical to that copy's own call. Proper rotation
    enforced (det = +1).
    """
    p = np.asarray(reference, dtype=float).reshape(-1, 3)
    q = np.asarray(target, dtype=float)
    single = q.ndim < 3
    if single:
        q = q.reshape(1, -1, 3)
    if q.shape[1:] != p.shape:
        raise ValueError("shape mismatch in kabsch_rotation")
    pc = p - p.mean(axis=0)
    q_mean = q.mean(axis=1)
    qc = q - q_mean[:, None, :]
    h = pc.T @ qc
    u, _s, vt = np.linalg.svd(h)
    v, ut = np.swapaxes(vt, 1, 2), np.swapaxes(u, 1, 2)
    corr = np.zeros((len(q), 3, 3))
    corr[:, 0, 0] = corr[:, 1, 1] = 1.0
    corr[:, 2, 2] = np.sign(np.linalg.det(v @ ut))
    r = v @ corr @ ut
    rt = np.swapaxes(r, 1, 2)
    t = q_mean - p.mean(axis=0) @ rt
    rmsd = np.sqrt(np.mean(np.sum((pc @ rt - qc) ** 2, axis=2), axis=1))
    if single:
        return r[0], t[0], float(rmsd[0])
    return r, t, rmsd


@functools.lru_cache(maxsize=None)
def _atom_pairs(natoms: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(natoms, 1)


def geometry_signature(geometry: Geometry) -> tuple:
    """Rotation/translation-invariant fingerprint of a geometry:
    element symbols + the sorted pairwise-distance multiset, rounded to
    :data:`SIGNATURE_DECIMALS`."""
    coords = geometry.coords
    i, j = _atom_pairs(coords.shape[0])
    diff = coords[j] - coords[i]
    dists = np.sqrt(np.add.reduce(diff * diff, axis=1))
    dists = dists.round(SIGNATURE_DECIMALS)
    dists.sort()
    return (tuple(geometry.symbols), tuple(dists.tolist()))


def snap_rigid_copies(
    copies: list[Geometry],
    template: Geometry,
) -> list[Geometry]:
    """Replace each copy's internal geometry with the template's.

    Each copy keeps its position and orientation (Kabsch best fit) but
    gets the template's exact internal coordinates. Used to relax every
    water in a box to the level-of-theory equilibrium at the cost of a
    single monomer optimization — vibrational analysis then sees no
    spurious intramolecular strain.
    """
    for copy in copies:
        if list(copy.symbols) != list(template.symbols):
            raise ValueError("template/copy element mismatch")
    if not copies:
        return []
    r, t, _rmsd = kabsch_rotation(
        template.coords, np.stack([copy.coords for copy in copies]))
    coords = template.coords @ np.swapaxes(r, 1, 2) + t[:, None, :]
    return [Geometry(list(copy.symbols), xyz, copy.charge, list(copy.labels))
            for copy, xyz in zip(copies, coords)]


def rotate_response(response: FragmentResponse, rotation: np.ndarray,
                    target: Geometry | list[Geometry]
                    ) -> FragmentResponse | list[FragmentResponse]:
    """Transform a fragment response into rotated copies' frames.

    ``rotation`` is one (3, 3) rotation with its ``target`` geometry, or
    an (m, 3, 3) stack with a list of m targets, which returns a list.
    """
    r = np.asarray(rotation, dtype=float)
    if r.ndim == 2:
        return rotate_response(response, r[None], [target])[0]
    m, n = len(r), response.geometry.natoms
    rt = np.swapaxes(r, 1, 2)
    big = np.zeros((m, 3 * n, 3 * n))
    for i in range(n):
        big[:, 3 * i: 3 * i + 3, 3 * i: 3 * i + 3] = r
    hessian = big @ response.hessian @ np.swapaxes(big, 1, 2)
    dalpha = [None] * m
    if response.dalpha_dr is not None:
        # R on each of the three Cartesian indices of d[n, w, q, p]
        d = response.dalpha_dr.reshape(n, 3, 3, 3)
        d = r[:, None, None] @ (d @ rt[:, None, None])
        dalpha = (r[:, None] @ d.reshape(m, n, 3, 9)).reshape(m, 3 * n, 3, 3)
    alpha = [None] * m
    if response.alpha is not None:
        alpha = r @ response.alpha @ rt
    grad = response.gradient @ rt
    return [
        FragmentResponse(
            geometry=target[k],
            energy=response.energy,
            hessian=hessian[k],
            dalpha_dr=dalpha[k],
            alpha=alpha[k],
            gradient=grad[k],
            meta=dict(response.meta, rotated=True),
        )
        for k in range(m)
    ]
