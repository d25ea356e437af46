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

import numpy as np

from repro.dfpt.hessian import FragmentResponse
from repro.geometry.atoms import Geometry


def kabsch_rotation(reference: np.ndarray, target: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, float]:
    """Best-fit rotation R and translation t with target ~ ref @ R.T + t.

    Returns (R, t, rmsd). Proper rotation enforced (det = +1).
    """
    p = np.asarray(reference, dtype=float).reshape(-1, 3)
    q = np.asarray(target, dtype=float).reshape(-1, 3)
    if p.shape != q.shape:
        raise ValueError("shape mismatch in kabsch_rotation")
    pc = p - p.mean(axis=0)
    qc = q - q.mean(axis=0)
    h = pc.T @ qc
    u, _s, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    corr = np.diag([1.0, 1.0, d])
    r = vt.T @ corr @ u.T
    t = q.mean(axis=0) - p.mean(axis=0) @ r.T
    rmsd = float(np.sqrt(np.mean(np.sum((pc @ r.T - qc) ** 2, axis=1))))
    return r, t, rmsd


def geometry_signature(geometry: Geometry, decimals: int = 5) -> tuple:
    """Rotation/translation-invariant fingerprint of a geometry:
    element symbols + the sorted rounded pairwise-distance multiset."""
    coords = geometry.coords
    n = coords.shape[0]
    dists = []
    for i in range(n):
        d = np.linalg.norm(coords[i + 1:] - coords[i], axis=1)
        dists.extend(np.round(d, decimals))
    return (tuple(geometry.symbols), tuple(sorted(dists)))


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
    out = []
    for copy in copies:
        if list(copy.symbols) != list(template.symbols):
            raise ValueError("template/copy element mismatch")
        r, t, _rmsd = kabsch_rotation(template.coords, copy.coords)
        coords = template.coords @ r.T + t
        out.append(Geometry(list(copy.symbols), coords, copy.charge,
                            list(copy.labels)))
    return out


def rotate_response(response: FragmentResponse, rotation: np.ndarray,
                    target: Geometry) -> FragmentResponse:
    """Transform a fragment response into a rotated copy's frame."""
    r = np.asarray(rotation, dtype=float).reshape(3, 3)
    n = response.geometry.natoms
    big = np.zeros((3 * n, 3 * n))
    for i in range(n):
        big[3 * i: 3 * i + 3, 3 * i: 3 * i + 3] = r
    hessian = big @ response.hessian @ big.T
    dalpha = None
    if response.dalpha_dr is not None:
        d = response.dalpha_dr.reshape(n, 3, 3, 3)
        dalpha = np.einsum("xw,iq,jp,nwqp->nxij", r, r, r, d).reshape(3 * n, 3, 3)
    alpha = None
    if response.alpha is not None:
        alpha = r @ response.alpha @ r.T
    grad = response.gradient @ r.T
    return FragmentResponse(
        geometry=target,
        energy=response.energy,
        hessian=hessian,
        dalpha_dr=dalpha,
        alpha=alpha,
        gradient=grad,
        meta=dict(response.meta, rotated=True),
    )
