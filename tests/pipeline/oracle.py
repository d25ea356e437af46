"""Reference rigid reuse: one Kabsch fit and one rotation per copy.

:mod:`repro.pipeline.rigid` fits and rotates stacks of copies, and
:meth:`repro.pipeline.qf_raman.QFRamanPipeline._rigid_copies` resolves a
whole signature class per Kabsch call. These are the per-piece loops
they replaced.
"""

from __future__ import annotations

import numpy as np

from repro.pipeline.rigid import SIGNATURE_DECIMALS


def kabsch_rotation(reference, target):
    p = np.asarray(reference, dtype=float).reshape(-1, 3)
    q = np.asarray(target, dtype=float).reshape(-1, 3)
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


def geometry_signature(geometry) -> tuple:
    coords = geometry.coords
    n = coords.shape[0]
    dists = []
    for i in range(n):
        d = np.linalg.norm(coords[i + 1:] - coords[i], axis=1)
        dists.extend(np.round(d, SIGNATURE_DECIMALS))
    return (tuple(geometry.symbols), tuple(sorted(dists)))


def snap_rigid_copies(copies, template) -> list[np.ndarray]:
    """The snapped coordinates of each copy."""
    out = []
    for copy in copies:
        r, t, _rmsd = kabsch_rotation(template.coords, copy.coords)
        out.append(template.coords @ r.T + t)
    return out


def rotate_response(response, rotation):
    """(hessian, dalpha_dr, alpha, gradient) in the rotated frame."""
    r = np.asarray(rotation, dtype=float).reshape(3, 3)
    n = response.geometry.natoms
    big = np.zeros((3 * n, 3 * n))
    for i in range(n):
        big[3 * i: 3 * i + 3, 3 * i: 3 * i + 3] = r
    hessian = big @ response.hessian @ big.T
    dalpha = None
    if response.dalpha_dr is not None:
        d = response.dalpha_dr.reshape(n, 3, 3, 3)
        dalpha = np.einsum("xw,iq,jp,nwqp->nxij", r, r, r,
                           d).reshape(3 * n, 3, 3)
    alpha = None
    if response.alpha is not None:
        alpha = r @ response.alpha @ r.T
    return hessian, dalpha, alpha, response.gradient @ r.T


def rigid_plan(pieces) -> list[tuple]:
    """Per piece, in order: ("rep",) or ("rotate", representative, R).

    A piece whose signature was seen is fitted to the class's latest
    representative; below 1e-6 RMSD it is a copy, otherwise it becomes
    the representative."""
    rep: dict[tuple, int] = {}
    plan: list[tuple] = []
    for k, piece in enumerate(pieces):
        sig = geometry_signature(piece.geometry)
        if sig in rep:
            rot, _t, rmsd = kabsch_rotation(pieces[rep[sig]].geometry.coords,
                                            piece.geometry.coords)
            if rmsd < 1.0e-6:
                plan.append(("rotate", rep[sig], rot))
                continue
        rep[sig] = k
        plan.append(("rep",))
    return plan
