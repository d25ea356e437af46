"""Iterative CPHF oracle: the AO-basis DIIS solver the direct solve replaced.

Each iteration builds the response Hamiltonian F(1) = J[P(1)] - 0.5 K[P(1)]
in the AO basis (exact ERIs or DF tensors) and updates

    U <- -(Q + C_v^T F(1) C_o) / (eps_a - eps_i),

with Pulay DIIS over the stacked U of the three field directions. It
shares no code with the MO-basis orbital Hessian that
:class:`repro.dfpt.cphf.CPHF` factorizes, so agreement checks that
Hessian term by term.
"""

from __future__ import annotations

import numpy as np


def response_fock(scf, p1: np.ndarray) -> np.ndarray:
    """AO response Hamiltonian J[P(1)] - 0.5 K[P(1)]."""
    if scf.eri is not None:
        j = np.einsum("abcd,cd->ab", scf.eri, p1)
        k = np.einsum("acbd,cd->ab", scf.eri, p1)
    else:
        j = scf.df.coulomb(p1)
        k = scf.df.exchange_density(p1)
    return j - 0.5 * k


def response_density(scf, u: np.ndarray) -> np.ndarray:
    """P(1) = 2 (C_v U C_o^T + transpose) for each field direction."""
    xmat = scf.c_virt @ u @ scf.c_occ.T
    return 2.0 * (xmat + np.swapaxes(xmat, -1, -2))


def field_perturbation(scf) -> tuple[np.ndarray, np.ndarray]:
    """(dipole integrals (3, nbf, nbf), Q = C_v^T D C_o (3, nvirt, nocc))."""
    dip = scf.engine.dipole(origin=(0.0, 0.0, 0.0))
    q = np.einsum("av,xab,bo->xvo", scf.c_virt, dip, scf.c_occ)
    return dip, q


def solve_iterative(scf, conv_tol: float = 1e-12, max_iter: int = 200):
    """(alpha, u, p1, niter) from DIIS iteration to max|dU| < conv_tol."""
    nocc = scf.nocc
    c_o, c_v = scf.c_occ, scf.c_virt
    denom = scf.mo_energy[nocc:, None] - scf.mo_energy[None, :nocc]
    dip, q = field_perturbation(scf)
    u = np.zeros_like(q)
    hist_u: list[np.ndarray] = []
    hist_r: list[np.ndarray] = []
    for it in range(1, max_iter + 1):
        p1 = response_density(scf, u)
        g = np.stack([c_v.T @ response_fock(scf, p1[x]) @ c_o
                      for x in range(3)])
        u_next = -(q + g) / denom
        resid = u_next - u
        hist_u.append(u_next)
        hist_r.append(resid)
        del hist_u[:-8], hist_r[:-8]
        if np.abs(resid).max() < conv_tol:
            u = u_next
            break
        nh = len(hist_u)
        if nh < 2:
            u = u_next
            continue
        bmat = -np.ones((nh + 1, nh + 1))
        bmat[-1, -1] = 0.0
        bmat[:nh, :nh] = [[np.vdot(ri, rj) for rj in hist_r] for ri in hist_r]
        rhs = np.zeros(nh + 1)
        rhs[-1] = -1.0
        try:
            coeff = np.linalg.solve(bmat, rhs)[:nh]
        except np.linalg.LinAlgError:
            u = u_next
            continue
        u = sum(ci * ui for ci, ui in zip(coeff, hist_u))
    else:
        raise RuntimeError(f"oracle CPHF not converged in {max_iter} iterations")
    p1 = response_density(scf, u)
    alpha = -np.einsum("xab,yab->xy", dip, p1)
    return alpha, u, p1, it


def df_two_electron_gradient(scf, amap, base=None):
    """The DF two-electron gradient with its own factorization of the
    metric: ``cho_factor(V)``, ``cho_solve`` for Ã = A M over nbf^2
    right-hand sides, and M T M as two more solves on T_PQ =
    tr(P A_P P A_Q)."""
    import scipy.linalg

    df = scf.df
    engine = scf.engine
    p = scf.density
    a3 = df.j3c
    v = df.v2c
    aux_amap = df.aux.function_atom_map()
    cho = scipy.linalg.cho_factor(v)
    gamma = np.einsum("abP,ab->P", a3, p)
    c = scipy.linalg.cho_solve(cho, gamma)
    d3 = engine.three_center_deriv(df.aux_blocks, df.naux, base)
    dv2 = engine.two_center_deriv(df.aux_blocks, df.naux, base)
    natm = scf.geometry.natoms
    g = np.zeros((natm, 3))
    dj = np.einsum("xabP,P->xab", d3, c)
    slot_j = 2.0 * np.einsum("xab,ab->xa", dj, p)
    taux = np.einsum("xabP,ab->xP", d3, p)
    for i in range(natm):
        g[i] += slot_j[:, amap == i].sum(axis=1)
        sel = aux_amap == i
        g[i] += -2.0 * (taux[:, sel] * c[sel]).sum(axis=1)
        g[i] += -np.einsum("P,xPQ,Q->x", c[sel], dv2[:, sel], c)
    nbf = p.shape[0]
    atil = scipy.linalg.cho_solve(cho, a3.reshape(-1, df.naux).T).T.reshape(
        a3.shape)
    pat = (p @ atil.reshape(nbf, -1)).reshape(nbf, nbf, df.naux)
    w3 = np.tensordot(pat, p, axes=([1], [0])).transpose(0, 2, 1)
    pa = (p @ a3.reshape(nbf, -1)).reshape(nbf, nbf, df.naux)
    b1 = pa.reshape(nbf * nbf, df.naux)
    b2 = pa.transpose(1, 0, 2).reshape(nbf * nbf, df.naux)
    t_mat = b1.T @ b2
    mtm = scipy.linalg.cho_solve(cho, scipy.linalg.cho_solve(cho, t_mat).T)
    slot_k = -np.einsum("xabP,abP->xa", d3, w3)
    aux_k = np.einsum("xabP,abP->xP", d3, w3)
    for i in range(natm):
        g[i] += slot_k[:, amap == i].sum(axis=1)
        sel = aux_amap == i
        g[i] += aux_k[:, sel].sum(axis=1)
        g[i] += 0.5 * np.einsum("xPQ,PQ->x", dv2[:, sel], mtm[sel])
    return g
