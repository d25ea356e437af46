"""Coupled-perturbed HF for electric-field response (polarizability).

Conventions: closed-shell RHF, real orbitals. For a field direction x
the perturbed Fock / overlap equations reduce to one linear system in
the virtual-occupied rotations U^x (nvirt x nocc):

    sum_bj M_ai,bj U^x_bj = -Q^x_ai,
    M_ai,bj = (eps_a - eps_i) d_ab d_ij + 4 (ai|bj) - (ab|ij) - (aj|bi),
    P(1) = 2 (C_v U C_o^T + C_o U^T C_v^T),

where Q^x = C_v^T D_x C_o is the bare perturbation and M is the RHF
orbital Hessian. The two-electron part of M is G[P(1)] =
C_v^T (J - 0.5 K)[P(1)] C_o written out in the MO basis: it is the
paper's worker phases 2-4 (response density, Poisson solve, response
Hamiltonian; instrumented in :mod:`repro.kernels.worker`) folded into
one matrix. M is symmetric and, for a stable SCF minimum, positive
definite, so all three field directions are one Cholesky solve.
The polarizability is alpha_xy = -tr(P^(1),y D_x), validated against
finite-field energies d^2E/dF^2 in the test suite.

Cost: M holds (nvirt*nocc)^2 doubles and the factorization is
O((nvirt*nocc)^3). The largest piece any test or example runs is the
GLY-water pair of ``examples/solvated_peptide.py`` (nbf 37, nocc 25,
naux 244, nvirt*nocc 300): a 720 kB Hessian, built and solved in
15 ms (2 vCPU Xeon VM). The capped GLY residue of the tests and the
benchmark (nbf 30, nocc 20, nvirt*nocc 200) takes 8 ms. The DF blocks
come from two half-transforms of the whitened three-center tensor;
the exact-ERI path transforms ``scf.eri`` into the two MO blocks it
needs, O(nbf^5), which the ``exact`` size limit (nbf <= 30 under
``eri_mode="auto"``) keeps small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from repro.devtools.contracts import check_array, sanitize_enabled
from repro.obs.counters import counters
from repro.obs.tracer import get_tracer
from repro.scf.rhf import SCFResult


@dataclass
class CPHFResult:
    """Electric-field response of one SCF state."""

    alpha: np.ndarray                 # (3, 3) polarizability tensor
    u: np.ndarray                     # (3, nvirt, nocc) response coefficients
    p1: np.ndarray                    # (3, nbf, nbf) response densities


class CPHF:
    """Coupled-perturbed HF solver for the three field directions."""

    def __init__(self, scf: SCFResult):
        if scf.eri is None and scf.df is None:
            raise ValueError("SCF result carries neither exact ERIs nor DF tensors")
        if "xc" in scf.extras:
            raise ValueError("CPHF is RHF only: the SCF state carries an "
                             "exchange-correlation kernel (extras['xc'])")
        self.scf = scf

    def _orbital_hessian(self) -> np.ndarray:
        """The RHF orbital Hessian M, shape (nvirt*nocc, nvirt*nocc),
        rows and columns in (a, i) order."""
        scf = self.scf
        nocc = scf.nocc
        c_o, c_v = scf.c_occ, scf.c_virt
        nvirt = c_v.shape[1]
        if scf.eri is not None:
            vovo = np.einsum("pqrs,pa,qi,rb,sj->aibj", scf.eri, c_v, c_o,
                             c_v, c_o, optimize=True)
            vvoo = np.einsum("pqrs,pa,qb,ri,sj->abij", scf.eri, c_v, c_v,
                             c_o, c_o, optimize=True)
        else:
            df = scf.df
            nbf, naux = df.b.shape[0], df.naux
            # half-transforms of b (mu, P, nu) over nu, one per space
            t_o = (df.b_apb @ c_o).reshape(nbf, naux * nocc)
            t_v = (df.b_apb @ c_v).reshape(nbf, naux * nvirt)

            def block(c_left, t, n_right):
                # (p, P, q) -> rows (p q), columns P
                out = (c_left.T @ t).reshape(c_left.shape[1], naux, n_right)
                return out.transpose(0, 2, 1).reshape(-1, naux)

            b_vo = block(c_v, t_o, nocc)
            b_vv = block(c_v, t_v, nvirt)
            b_oo = block(c_o, t_o, nocc)
            vovo = (b_vo @ b_vo.T).reshape(nvirt, nocc, nvirt, nocc)
            vvoo = (b_vv @ b_oo.T).reshape(nvirt, nvirt, nocc, nocc)
        m = (4.0 * vovo
             - vvoo.transpose(0, 2, 1, 3)      # (ab|ij) -> [a, i, b, j]
             - vovo.transpose(0, 3, 2, 1))     # (aj|bi) -> [a, i, b, j]
        m = m.reshape(nvirt * nocc, nvirt * nocc)
        denom = scf.mo_energy[nocc:, None] - scf.mo_energy[None, :nocc]
        m[np.diag_indices_from(m)] += denom.ravel()
        return m

    def run(self) -> CPHFResult:
        """Solve the three field directions; returns a :class:`CPHFResult`."""
        scf = self.scf
        nbf = scf.overlap.shape[0]
        nocc = scf.nocc
        nvirt = scf.mo_coeff.shape[1] - nocc
        with get_tracer().span("cphf", nbf=nbf, nocc=nocc,
                               nvo=nvirt * nocc):
            result = self._solve()
        counters().inc("cphf.runs")
        return result

    def _solve(self) -> CPHFResult:
        scf = self.scf
        nocc = scf.nocc
        c_o, c_v = scf.c_occ, scf.c_virt
        nbf, nvirt = c_v.shape
        dip = scf.engine.dipole(origin=(0.0, 0.0, 0.0))
        # Q^x_ai = (C_v^T D_x C_o): the bare perturbation in MO basis.
        # Core Hamiltonian coupling h(F) = h0 + F·D (see RHF.field_vector).
        q = np.einsum("av,xab,bo->xvo", c_v, dip, c_o)
        try:
            factor = scipy.linalg.cho_factor(self._orbital_hessian())
        except scipy.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"CPHF orbital Hessian is not positive definite (nbf={nbf}, "
                f"nocc={nocc}): the SCF state is not a stable minimum"
            ) from exc
        u = scipy.linalg.cho_solve(factor, -q.reshape(3, -1).T)
        u = u.T.reshape(3, nvirt, nocc)
        xmat = c_v @ u @ c_o.T
        p1 = 2.0 * (xmat + xmat.transpose(0, 2, 1))
        # alpha_xy = -tr(P^(1),y D_x) = 4 Q^x M^-1 Q^y: symmetric
        alpha = -np.einsum("xab,yab->xy", dip, p1)
        if sanitize_enabled():
            # a NaN response density or an asymmetric polarizability
            # means the Hessian or its factorization is corrupt; alpha
            # is symmetric to round-off (at most 3e-15 relative over
            # the test suite)
            ctx = f"cphf nbf={nbf} nocc={nocc}"
            check_array("p1", p1, symmetric=True, shape=(3, nbf, nbf),
                        context=ctx)
            check_array("alpha", alpha, symmetric=True, shape=(3, 3),
                        atol=1.0e-12, context=ctx)
        return CPHFResult(alpha=alpha, u=u, p1=p1)


def polarizability(scf: SCFResult) -> np.ndarray:
    """Convenience wrapper: the (3, 3) polarizability tensor."""
    return CPHF(scf).run().alpha
