"""Restricted Kohn-Sham (LDA) on the Becke grid.

The DFT mode of the fragment engine. The Fock build follows the
paper's worker phases literally: density on the real-space grid,
Coulomb through density fitting (the Poisson role), exchange-
correlation potential integrated back into the Hamiltonian.

Scope note (DESIGN.md): RKS provides energies and densities, and its
grid quantities feed the instrumented worker cycle
(:mod:`repro.kernels.worker`). There is no CPKS response and no
analytic RKS gradient (grid-weight derivatives), so the spectra
pipeline uses RHF; :class:`repro.dfpt.cphf.CPHF` rejects an RKS state.
"""

from __future__ import annotations

import numpy as np

from repro.devtools.contracts import (
    ContractViolation,
    check_array,
    sanitize_enabled,
)
from repro.geometry.atoms import Geometry
from repro.obs.counters import counters
from repro.scf.grid import build_grid, density_on_grid, evaluate_basis
from repro.scf.rhf import RHF
from repro.scf.xc import lda_kernel, lda_xc


class RKS(RHF):
    """LDA (Slater + VWN5) Kohn-Sham SCF."""

    def __init__(
        self,
        geometry: Geometry,
        radial_points: int = 50,
        angular_order: int = 26,
        **kwargs,
    ):
        kwargs.setdefault("eri_mode", "df")
        super().__init__(geometry, **kwargs)
        self.grid = build_grid(
            geometry, radial_points=radial_points, angular_order=angular_order
        )
        self.chi = evaluate_basis(self.basis, self.grid.points)
        self._exc_last = 0.0
        self._vxc_trace_last = 0.0

    # -- Fock / energy ---------------------------------------------------------

    def _fock(self, h, density, c_occ=None):
        if self.eri_mode == "exact":
            j = np.einsum("abcd,cd->ab", self._eri, density)
        else:
            j = self._df.coulomb(density)
        counters().inc("xc.fock_builds")
        counters().inc("xc.grid_points", self.grid.weights.size)
        rho = density_on_grid(self.chi, density)
        e_dens, v = lda_xc(rho)
        wv = self.grid.weights * v
        vxc = (self.chi * wv[:, None]).T @ self.chi
        self._exc_last = float(np.sum(self.grid.weights * e_dens))
        self._vxc_trace_last = float(np.sum(density * vxc))
        return h + j + vxc

    def _energy(self, density, h, f, e_nuc) -> float:
        # E = sum P h + 1/2 sum P J + Exc; with F = h + J + Vxc:
        # 1/2 P (h + F) = P h + 1/2 P J + 1/2 P Vxc, so correct by
        # Exc - 1/2 tr(P Vxc).
        base = 0.5 * float(np.sum(density * (h + f)))
        return base + self._exc_last - 0.5 * self._vxc_trace_last + e_nuc

    def run(self, guess_density=None):
        result = super().run(guess_density=guess_density)
        rho = density_on_grid(self.chi, result.density)
        if sanitize_enabled():
            # a negative or NaN grid density poisons the LDA kernel and
            # and so the worker cycle's H(1) built on this state
            ctx = f"rks natoms={self.geometry.natoms} grid={rho.size}"
            check_array("rho_grid", rho, context=ctx)
            if float(rho.min()) < -1.0e-10:
                raise ContractViolation(
                    f"grid density has negative values "
                    f"(min {float(rho.min()):.3e})",
                    name="rho_grid", rule="nonnegative", context=ctx,
                )
        result.extras["xc"] = {
            "name": "lda",
            "grid": self.grid,
            "chi": self.chi,
            "rho": rho,
            "fxc": lda_kernel(rho),
            "exc": self._exc_last,
        }
        return result
