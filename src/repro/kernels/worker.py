"""The instrumented four-phase DFPT worker cycle (paper Fig. 3, Table I).

Runs one full response cycle for a fragment on real data, split into
the paper's phases with exact FLOP counts and wall times:

1. ``p1``      — response density matrix P(1) from the current U,
2. ``n1r``     — real-space response density n(1)(r) on the molecular
                 grid + its gradient via the strength-reduced kernels,
3. ``poisson`` — FFT solve for the electrostatic response potential
                 v(1) on a uniform box grid,
4. ``h1``      — response Hamiltonian: quadrature integration of the
                 potential back into the basis + the exchange/kernel
                 term.

Table I reports the FP64 rates of phases 2 and 4 ("extremely
time-consuming ... contributing 93.1% of total execution time"); the
benchmark divides these counted FLOPs by modeled accelerator kernel
times (:mod:`repro.hpc.offload`) and by measured wall times.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.atoms import Geometry
from repro.scf.grid import evaluate_basis
from repro.scf.poisson import grid_for_geometry, solve_poisson
from repro.scf.rks import RKS
from repro.kernels.strength_reduction import (
    h1_integration_symmetric,
    rho1_gradient_symmetric,
)
from repro.obs.export import phase_totals
from repro.obs.tracer import Tracer, get_tracer, use_tracer
from repro.utils.flops import FlopCounter, gemm_flops


@dataclass
class DFPTCycleResult:
    """Per-phase FLOPs and wall seconds for one response cycle."""

    natoms: int
    nbf: int
    flops: dict[str, int]
    seconds: dict[str, float]
    extras: dict = field(default_factory=dict)

    def rate_gflops(self, phase: str) -> float:
        """Measured host rate for a phase (GFLOP/s)."""
        t = self.seconds.get(phase, 0.0)
        return self.flops.get(phase, 0) / t / 1e9 if t > 0 else 0.0


def run_dfpt_cycle(
    geometry: Geometry,
    uniform_n: int = 48,
    radial_points: int = 30,
) -> DFPTCycleResult:
    """One instrumented DFPT cycle for a fragment.

    A single first-order cycle is executed — the unit the paper's
    "DFPT time per cycle" measures. The phase seconds are span totals
    of a local tracer; its spans are handed on to the caller's tracer
    afterwards.
    """
    tracer = Tracer()
    flops = FlopCounter()
    scf = RKS(geometry, radial_points=radial_points).run()
    if not scf.converged:
        raise RuntimeError("SCF not converged for kernel cycle")
    xc = scf.extras["xc"]
    chi = xc["chi"]
    grid = xc["grid"]
    nbf = scf.overlap.shape[0]
    npts = chi.shape[0]
    c_o = scf.c_occ
    c_v = scf.c_virt
    nocc, nvirt = c_o.shape[1], c_v.shape[1]

    dip = scf.engine.dipole()
    denom = scf.mo_energy[nocc:, None] - scf.mo_energy[None, :nocc]

    with use_tracer(tracer):
        # ---- phase 1: response density matrix P(1) --------------------------
        with tracer.span("p1"):
            q = np.einsum("av,ab,bo->vo", c_v, dip[2], c_o)
            u = -q / denom                     # first-order U
            xmat = c_v @ u @ c_o.T
            p1 = 2.0 * (xmat + xmat.T)
            flops.add("p1", gemm_flops(nvirt, nocc, nbf)
                      + gemm_flops(nbf, nbf, nvirt)
                      + gemm_flops(nbf, nocc, nbf))

        # ---- phase 2: n(1)(r) and its gradient on the molecular grid --------
        with tracer.span("n1r"):
            t1 = chi @ p1
            n1 = np.einsum("pm,pm->p", t1, chi)
            flops.add("n1r", gemm_flops(npts, nbf, nbf) + 2 * npts * nbf)
            # gradient via the strength-reduced kernel (one component shown;
            # production sums x, y, z)
            _, dchi = evaluate_basis(scf.basis, grid.points, derivative=True)
            for d in range(3):
                rho1_gradient_symmetric(chi, dchi[d], p1,
                                        flops=_alias(flops, "n1r"))

        # ---- phase 3: Poisson solve on the uniform box ----------------------
        with tracer.span("poisson"):
            ugrid = grid_for_geometry(geometry.coords, n=uniform_n)
            chi_u = evaluate_basis(scf.basis, ugrid.points())
            n1_u = np.einsum("pm,pm->p", chi_u @ p1, chi_u).reshape(
                ugrid.shape)
            flops.add("poisson", gemm_flops(uniform_n ** 3, nbf, nbf))
            v1_u = solve_poisson(n1_u, ugrid.h)
            npad = (2 * uniform_n) ** 3
            # forward + inverse FFT
            flops.add("poisson", int(2 * 5 * npad * np.log2(npad)))

        # ---- phase 4: response Hamiltonian H(1) -----------------------------
        with tracer.span("h1"):
            # XC kernel term on the molecular grid
            wf = grid.weights * xc["fxc"] * n1
            h1_xc = (chi * wf[:, None]).T @ chi
            flops.add("h1", gemm_flops(nbf, nbf, npts))
            # electrostatic term: trilinear-interpolate v(1) from the box
            # onto the Becke points, then quadrature against basis pairs
            # via the symmetric one-GEMM kernel (Fig. 6a structure)
            from scipy.interpolate import RegularGridInterpolator

            interp = RegularGridInterpolator(
                ugrid.axes(), v1_u, bounds_error=False, fill_value=0.0
            )
            v1_pts = interp(grid.points)
            h1_es = h1_integration_symmetric(
                chi * (grid.weights * v1_pts)[:, None], chi,
                flops=_alias(flops, "h1"),
            )
            h1 = h1_xc + h1_es
    get_tracer().adopt(tracer.export())
    seconds = {name: secs
               for name, (secs, _calls) in phase_totals(tracer.records).items()}

    return DFPTCycleResult(
        natoms=geometry.natoms,
        nbf=nbf,
        flops=dict(flops.totals),
        seconds=seconds,
        extras={"h1_norm": float(np.linalg.norm(h1)), "p1_norm": float(np.linalg.norm(p1))},
    )


class _alias:
    """Redirect a FlopCounter's adds into a fixed category."""

    def __init__(self, counter: FlopCounter, category: str):
        self._c = counter
        self._cat = category

    def add(self, _category: str, flops: int) -> None:
        self._c.add(self._cat, flops)
