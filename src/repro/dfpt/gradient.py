"""Analytic RHF nuclear gradients (exact-ERI and density-fitted).

The Hessian of each QF fragment is built from central differences of
these gradients (6N gradient evaluations per fragment), so gradient
cost dominates the fragment workload exactly like the DFPT cycle
dominates in the paper.

Derivation notes (validated against finite differences in
``tests/dfpt/test_gradient.py``):

    E = sum_mn P_mn h_mn + E_2e + E_nn
    dE/dR = P·dh + dE_2e - W·dS + dE_nn,   W = 2 C_occ eps_occ C_occ^T

Exact two-electron part, with Gamma_mnls = 1/2 P_mn P_ls - 1/4 P_ml P_ns
(the coefficient of (mn|ls) in the energy). The bra-slot tensor
dERI^A[x,m,n,l,s] = d(mn|ls)/d(center of m) enters through the four
slots of each quartet, Gamma_mnls + Gamma_nmls + Gamma_lsmn + Gamma_lsnm,
which for a symmetric P collapses to

    G_mnls = 2 P_mn P_ls - 1/2 P_ml P_ns - 1/2 P_nl P_ms
    dE_2e/dR_I = sum_{m in I} sum_nls dERI^A[x,m,n,l,s] G_mnls

Density-fitted part (A = (ab|P), V = (P|Q), M = V^-1, c = M gamma):

    E_J = gamma^T c - 1/2 c^T V c
    dE_J = 2 sum_{a in I} (P ∘ D_J)[a,:] - 2 sum_{P in I} c_P t_P
           - sum_{P in I, Q} c_P c_Q dV[x,P,Q]
    E_K = -1/4 sum_PQ M_PQ tr(P A_P P A_Q)
    dE_K = -sum_{a in I} (d3 · W)[a] + sum_{P in I} (d3 ∘ W)-trace_P
           + 1/2 sum_{P in I,Q} (M T M)_PQ dV[x,P,Q]

where W_P = P Ã_P P, Ã = M-contracted A, and aux-center derivatives
come from translational invariance d/dP = -(d/dA + d/dB).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.integrals.engine import BaseIntegrals
from repro.obs.tracer import get_tracer
from repro.scf.rhf import SCFResult


def nuclear_repulsion_gradient(charges: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """d(E_nn)/dR, shape (natoms, 3)."""
    natm = charges.size
    g = np.zeros((natm, 3))
    for i in range(natm):
        for j in range(natm):
            if i == j:
                continue
            rij = coords[i] - coords[j]
            d = np.linalg.norm(rij)
            g[i] -= charges[i] * charges[j] * rij / d ** 3
    return g


def _one_electron_gradient(scf: SCFResult, amap: np.ndarray) -> np.ndarray:
    engine = scf.engine
    p = scf.density
    # energy-weighted density
    c_occ = scf.c_occ
    w = 2.0 * (c_occ * scf.mo_energy[: scf.nocc]) @ c_occ.T

    ds = engine.overlap_deriv()
    dt = engine.kinetic_deriv()
    dv_bra, dv_nuc = engine.nuclear_deriv()

    natm = scf.geometry.natoms
    g = np.zeros((natm, 3))
    dh = dt + dv_bra
    # bra+ket slots (operators symmetric): 2 * sum_{mu in I} over nu
    slot = 2.0 * np.einsum("xmn,mn->xm", dh, p)
    slot_s = -2.0 * np.einsum("xmn,mn->xm", ds, w)
    for i in range(natm):
        sel = amap == i
        g[i] += slot[:, sel].sum(axis=1)
        g[i] += slot_s[:, sel].sum(axis=1)
        # Hellmann-Feynman (operator-center) term
        g[i] += np.einsum("xmn,mn->x", dv_nuc[:, i], p)
    return g


def _exact_two_electron_gradient(scf: SCFResult, amap: np.ndarray,
                                 base: BaseIntegrals | None = None
                                 ) -> np.ndarray:
    p = scf.density
    deri = scf.engine.eri_deriv(base)  # (3, n, n, n, n), bra-a slot
    gtot = (2.0 * np.einsum("mn,ls->mnls", p, p)
            - 0.5 * np.einsum("ml,ns->mnls", p, p)
            - 0.5 * np.einsum("nl,ms->mnls", p, p))
    slot = np.einsum("xmnls,mnls->xm", deri, gtot)
    natm = scf.geometry.natoms
    g = np.zeros((natm, 3))
    for i in range(natm):
        g[i] = slot[:, amap == i].sum(axis=1)
    return g


def _df_two_electron_gradient(scf: SCFResult, amap: np.ndarray,
                              base: BaseIntegrals | None = None
                              ) -> np.ndarray:
    """The DF two-electron gradient, from the SCF's own metric factor.

    M = V^-1 enters only through the SCF's Cholesky factor L (V = L L^T,
    b = A L^-T): c = M gamma is a ``cho_solve`` with L, Ã = A M = b L^-1
    is one triangular solve on the whitened b, and M T M is one GEMM of
    PÃ, (M T M)_PQ = sum_ac (PÃ_P)_ac (PÃ_Q)_ca. Had the SCF factored a
    jittered metric, this is the gradient of the energy it minimized.
    """
    df = scf.df
    engine = scf.engine
    p = scf.density
    a3 = df.j3c                      # (nbf, nbf, naux)
    naux = df.naux
    aux_amap = df.aux.function_atom_map()

    gamma = np.einsum("abP,ab->P", a3, p)
    c = scipy.linalg.cho_solve((df.chol, True), gamma)

    # (3, nbf, nbf, naux) and (3, naux, naux)
    d3 = engine.three_center_deriv(df.aux_blocks, naux, base)
    dv2 = engine.two_center_deriv(df.aux_blocks, naux, base)

    natm = scf.geometry.natoms
    g = np.zeros((natm, 3))

    # ---- Coulomb ----
    dj = np.einsum("xabP,P->xab", d3, c)
    slot_j = 2.0 * np.einsum("xab,ab->xa", dj, p)
    taux = np.einsum("xabP,ab->xP", d3, p)
    for i in range(natm):
        g[i] += slot_j[:, amap == i].sum(axis=1)
        sel = aux_amap == i
        g[i] += -2.0 * (taux[:, sel] * c[sel]).sum(axis=1)
        g[i] += -np.einsum("P,xPQ,Q->x", c[sel], dv2[:, sel], c)

    # ---- exchange ----
    # Ã_P = sum_Q M_PQ A_Q  and  W_P = P Ã_P P  (BLAS-shaped contractions:
    # these are the gradient's largest intermediates)
    nbf = p.shape[0]
    atil = scipy.linalg.solve_triangular(
        df.chol, df.b.reshape(-1, naux).T, trans="T", lower=True
    ).T
    pat = (p @ atil.reshape(nbf, -1)).reshape(nbf, nbf, naux)  # (a,c,P)
    w3 = np.tensordot(pat, p, axes=([1], [0])).transpose(0, 2, 1)  # (a,d,P)
    mtm = (pat.reshape(nbf * nbf, naux).T
           @ pat.transpose(1, 0, 2).reshape(nbf * nbf, naux))

    slot_k = -np.einsum("xabP,abP->xa", d3, w3)
    aux_k = np.einsum("xabP,abP->xP", d3, w3)
    for i in range(natm):
        g[i] += slot_k[:, amap == i].sum(axis=1)
        sel = aux_amap == i
        g[i] += aux_k[:, sel].sum(axis=1)
        g[i] += 0.5 * np.einsum("xPQ,PQ->x", dv2[:, sel], mtm[sel])
    return g


def gradient(scf: SCFResult, base: BaseIntegrals | None = None) -> np.ndarray:
    """Analytic nuclear gradient dE/dR, shape (natoms, 3), hartree/bohr.

    With ``base``, the two-electron derivative integrals are rebuilt only
    where they touch the atoms ``base.moved`` and copied from ``base``
    elsewhere (:class:`~repro.integrals.engine.BaseIntegrals`); the
    one-electron derivatives involve every nucleus and run in full.
    """
    if not scf.converged:
        raise ValueError("gradient requires a converged SCF result")
    with get_tracer().span("gradient", natoms=scf.geometry.natoms):
        amap = scf.basis.function_atom_map()
        g = _one_electron_gradient(scf, amap)
        if scf.eri is not None:
            g += _exact_two_electron_gradient(scf, amap, base)
        else:
            g += _df_two_electron_gradient(scf, amap, base)
        g += nuclear_repulsion_gradient(
            scf.geometry.numbers.astype(float), scf.geometry.coords
        )
    return g
