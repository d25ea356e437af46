"""Coupled-perturbed SCF for electric-field response (polarizability).

The worker's DFPT cycle (paper Fig. 3, right-bottom) has four phases:

1. response density matrix  P(1),
2. real-space response density  n(1)(r),
3. Poisson solve for the response potential  v(1),
4. response Hamiltonian  H(1).

For the Gaussian/matrix formulation used here, phases 2+3 are the
Coulomb response build J[P(1)] (density fitting plays the role of the
real-space Poisson solve; the grid-based versions of phases 2-4 are
implemented in :mod:`repro.kernels` where their FLOP rates are
measured for Table I). Phase 4 is F(1) = J[P(1)] - 0.5 K[P(1)], and
phase 1 is the U-update. Each CPHF iteration cycles 1 → 4, so the
span names here (``dfpt.p1``, ``dfpt.n1r_poisson``, ``dfpt.h1``) match
the paper's phase names.

Conventions: closed-shell RHF, real orbitals. The perturbed Fock /
overlap equations for a field direction x reduce to

    (eps_a - eps_i) U^x_ai + G_ai[P(1)] = -Q^x_ai,
    P(1) = 2 (C_v U C_o^T + C_o U^T C_v^T),

solved by preconditioned iteration with DIIS-free damping (the orbital
Hessian of a converged closed-shell SCF is positive definite). The
polarizability is alpha_xy = -tr(P^(1),y D_x), validated against
finite-field energies d^2E/dF^2 in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devtools.contracts import check_array, sanitize_enabled
from repro.obs.counters import counters
from repro.obs.tracer import get_tracer
from repro.scf.rhf import SCFResult
from repro.utils.flops import FlopCounter, gemm_flops


@dataclass
class CPHFResult:
    """Electric-field response of one SCF state."""

    alpha: np.ndarray                 # (3, 3) polarizability tensor
    u: np.ndarray                     # (3, nvirt, nocc) response coefficients
    p1: np.ndarray                    # (3, nbf, nbf) response densities
    converged: bool
    niter: int


class CPHF:
    """Coupled-perturbed HF solver for the three field directions."""

    def __init__(
        self,
        scf: SCFResult,
        conv_tol: float = 1e-8,
        max_iter: int = 100,
        flops: FlopCounter | None = None,
    ):
        if scf.eri is None and scf.df is None:
            raise ValueError("SCF result carries neither exact ERIs nor DF tensors")
        self.scf = scf
        self.conv_tol = conv_tol
        self.max_iter = max_iter
        self.flops = flops or FlopCounter()

    # -- response Fock build --------------------------------------------------

    def _response_fock(self, p1: np.ndarray) -> np.ndarray:
        """Response Hamiltonian H(1)[P(1)].

        Hartree-Fock: J[P(1)] - 0.5 K[P(1)] (Coulomb response through
        density fitting = the Poisson phase; exchange belongs to H(1)).
        Kohn-Sham (LDA): J[P(1)] + f_xc n(1), where n(1)(r) is the
        response density integrated on the real-space grid — the
        paper's phases 2-4 executed literally.
        """
        scf = self.scf
        nbf = p1.shape[0]
        xc = scf.extras.get("xc")
        tracer = get_tracer()
        with tracer.span("dfpt.n1r_poisson"):
            if scf.eri is not None:
                j = np.einsum("abcd,cd->ab", scf.eri, p1)
            else:
                j = scf.df.coulomb(p1)
            self.flops.add("n1r", gemm_flops(nbf, nbf, nbf))
        if xc is not None:
            with tracer.span("dfpt.h1"):
                chi = xc["chi"]
                n1 = np.einsum("pm,pm->p", chi @ p1, chi)
                wf = xc["grid"].weights * xc["fxc"] * n1
                vxc1 = (chi * wf[:, None]).T @ chi
                self.flops.add("h1", 2 * gemm_flops(chi.shape[0], nbf, nbf))
            return j + vxc1
        with tracer.span("dfpt.h1"):
            k = scf.df.exchange_density(p1) if scf.eri is None else np.einsum(
                "acbd,cd->ab", scf.eri, p1
            )
            self.flops.add("h1", gemm_flops(nbf, nbf, nbf))
        return j - 0.5 * k

    # -- solver ----------------------------------------------------------------

    def run(self) -> CPHFResult:
        """Solve the three field directions; returns a :class:`CPHFResult`."""
        with get_tracer().span(
            "cphf", nbf=self.scf.overlap.shape[0], nocc=self.scf.nocc
        ) as sp:
            result = self._solve()
            sp.set(niter=result.niter, converged=result.converged)
        counters().inc("cphf.runs")
        counters().inc("cphf.iterations", result.niter)
        if not result.converged:
            counters().inc("cphf.unconverged")
        return result

    def _solve(self) -> CPHFResult:
        scf = self.scf
        c = scf.mo_coeff
        nocc = scf.nocc
        c_o = c[:, :nocc]
        c_v = c[:, nocc:]
        eps_o = scf.mo_energy[:nocc]
        eps_v = scf.mo_energy[nocc:]
        denom = eps_v[:, None] - eps_o[None, :]  # (nvirt, nocc), positive

        dip = scf.engine.dipole(origin=(0.0, 0.0, 0.0))
        # Q^x_ai = (C_v^T D_x C_o): the bare perturbation in MO basis.
        # Core Hamiltonian coupling h(F) = h0 + F·D (see RHF.field_vector).
        q = np.einsum("av,xab,bo->xvo", c_v, dip, c_o)

        nvirt = c_v.shape[1]
        u = np.zeros((3, nvirt, nocc))
        converged = False
        it = 0
        # Pulay-DIIS over the stacked U: the fixed-point map
        # u -> -(q + G[u]) / denom converges linearly on its own; DIIS
        # extrapolation over the residuals cuts iterations ~3-4x.
        hist_u: list[np.ndarray] = []
        hist_r: list[np.ndarray] = []
        max_hist = 8
        for it in range(1, self.max_iter + 1):
            u_next = np.empty_like(u)
            tracer = get_tracer()
            for x in range(3):
                with tracer.span("dfpt.p1"):
                    xmat = c_v @ u[x] @ c_o.T
                    p1 = 2.0 * (xmat + xmat.T)
                f1 = self._response_fock(p1)
                with tracer.span("dfpt.p1"):
                    g = c_v.T @ f1 @ c_o
                    u_next[x] = -(q[x] + g) / denom
            resid = u_next - u
            max_delta = float(np.abs(resid).max())
            hist_u.append(u_next.copy())
            hist_r.append(resid.copy())
            if len(hist_u) > max_hist:
                hist_u.pop(0)
                hist_r.pop(0)
            if max_delta < self.conv_tol:
                u = u_next
                converged = True
                break
            nh = len(hist_u)
            if nh >= 2:
                bmat = np.empty((nh + 1, nh + 1))
                bmat[-1, :] = -1.0
                bmat[:, -1] = -1.0
                bmat[-1, -1] = 0.0
                for i in range(nh):
                    for j in range(i, nh):
                        v = float(np.vdot(hist_r[i], hist_r[j]))
                        bmat[i, j] = bmat[j, i] = v
                rhs = np.zeros(nh + 1)
                rhs[-1] = -1.0
                try:
                    coeff = np.linalg.solve(bmat, rhs)[:nh]
                    u = sum(ci * ui for ci, ui in zip(coeff, hist_u))
                except np.linalg.LinAlgError:
                    u = u_next
            else:
                u = u_next

        p1 = np.empty((3, scf.overlap.shape[0], scf.overlap.shape[0]))
        for x in range(3):
            xmat = c_v @ u[x] @ c_o.T
            p1[x] = 2.0 * (xmat + xmat.T)
        # alpha_xy = -tr(P^(1),y D_x); symmetric for exact response
        alpha = -np.einsum("xab,yab->xy", dip, p1)
        if sanitize_enabled():
            # a NaN response density or an asymmetric polarizability
            # means the CPHF fixed point diverged silently
            ctx = f"cphf nbf={p1.shape[1]} niter={it} converged={converged}"
            check_array("p1", p1, symmetric=True,
                        shape=(3, p1.shape[1], p1.shape[2]), context=ctx)
            check_array("alpha", alpha, symmetric=True, shape=(3, 3),
                        atol=1.0e-5, context=ctx)
        return CPHFResult(alpha=alpha, u=u, p1=p1, converged=converged, niter=it)


def polarizability(scf: SCFResult, **kwargs) -> np.ndarray:
    """Convenience wrapper: the (3, 3) polarizability tensor."""
    return CPHF(scf, **kwargs).run().alpha
