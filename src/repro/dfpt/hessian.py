"""Per-fragment response: Hessian and Raman tensor via the
atomic-displacement loop.

This is the computational payload of the paper's worker processes: the
leader generates one task per atomic displacement of a fragment, and
each task runs SCF + gradient + CPHF at the displaced geometry.
Central differences of analytic gradients give the fragment Hessian
(d^2 E / dR dR), and central differences of CPHF polarizabilities give
the Raman tensor (d alpha / dR). Both are needed by the Eq. (1)
assembly in :mod:`repro.fragment.assembly`.

The loop is organized as independent *coordinate jobs* (one per atom,
axis — both displacement signs): the serial path runs them in order,
and the ``displacement`` executor backend
(:mod:`repro.pipeline.executor`) ships them to a process pool, which is
how a few large fragments are parallelized across cores.

Each job follows the paper's "reuse within a DFPT cycle" economies:

* **Integrals.** A job moves one atom A, so every two-electron integral
  with no function (orbital or auxiliary) on A keeps its base-geometry
  value. :func:`fragment_response` builds the base tensors once (the
  exact ``eri`` and ``eri_deriv``, or the density-fitting ``j3c``,
  ``v2c`` and their derivatives) and hands them to every job as
  :class:`~repro.integrals.engine.BaseIntegrals`.
  Each displaced SCF and gradient recomputes only the elements that
  touch A and copies the rest. The one-electron terms involve every
  nucleus and are rebuilt in full, as are the SCF iterations and CPHF.
* **Densities.** The +delta SCF starts from the converged base
  density, and the -delta SCF from the *+delta* density (the previously
  converged point of the same coordinate), which typically saves a few
  DIIS iterations per displaced SCF. The realized savings — measured
  against the cold-start iteration count of the base SCF — are
  recorded in ``meta["scf_iters_saved"]``.

Before the Hessian is symmetrized, its relative asymmetry
‖H − Hᵀ‖/‖H‖ is recorded in ``meta["fd_asymmetry"]``: the FD noise
that symmetrization would otherwise erase unreported.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import FIRST_COMPLETED, Executor, wait
from dataclasses import dataclass, field

import numpy as np

from repro.devtools.contracts import (
    ContractViolation,
    check_response,
    sanitize_enabled,
)
from repro.dfpt.cphf import CPHF
from repro.dfpt.gradient import gradient
from repro.geometry.atoms import Geometry
from repro.integrals.engine import BaseIntegrals
from repro.obs.counters import counters
from repro.obs.tracer import get_tracer, telemetry_shipment
from repro.scf.rhf import RHF, SCFResult
from repro.utils.timing import Stopwatch


@dataclass
class FragmentResponse:
    """Second-order response of one QF fragment."""

    geometry: Geometry
    energy: float
    hessian: np.ndarray            # (3N, 3N), hartree / bohr^2
    dalpha_dr: np.ndarray | None   # (3N, 3, 3), polarizability derivative
    alpha: np.ndarray | None       # (3, 3) equilibrium polarizability
    gradient: np.ndarray           # (N, 3) residual gradient at input geometry
    meta: dict = field(default_factory=dict)

    @property
    def ncoords(self) -> int:
        return self.hessian.shape[0]


@dataclass
class CoordinateJobResult:
    """Finite-difference data of one (atom, axis) coordinate.

    Produced by :func:`coordinate_job`; picklable so the displacement
    executor can compute it in a worker process.
    """

    col: int
    hess_col: np.ndarray            # (3N,) Hessian column (already / 2 delta)
    dalpha_col: np.ndarray | None   # (3, 3)
    niter_plus: int
    niter_minus: int
    wall_s: float                   # the job's own wall time
    #: telemetry captured in a pool worker (empty for in-process jobs);
    #: ``pid`` lets the parent skip merging its own direct reports
    spans: list = field(default_factory=list)
    counter_delta: dict = field(default_factory=dict)
    pid: int = 0


#: largest FD asymmetry ‖H − Hᵀ‖/‖H‖ the sanitizer accepts: 50x the
#: 2.0e-5 measured on the capped GLY piece (6.8e-6 on relaxed water)
FD_ASYMMETRY_MAX = 1.0e-3


def _displaced_scf(
    geometry: Geometry,
    atom: int,
    axis: int,
    delta: float,
    guess_density: np.ndarray,
    scf_kwargs: dict,
    base: BaseIntegrals | None = None,
) -> SCFResult:
    geom_d = geometry.displaced(atom, axis, delta)
    res = RHF(geom_d, **scf_kwargs).run(guess_density=guess_density,
                                        base=base)
    if not res.converged:
        # retry cold — a bad guess can stall DIIS in rare cases
        counters().inc("scf.cold_retries")
        res = RHF(geom_d, **scf_kwargs).run(base=base)
    if not res.converged:
        raise RuntimeError(
            f"SCF failed to converge at displacement (atom={atom}, axis={axis})"
        )
    return res


def coordinate_job(
    geometry: Geometry,
    atom: int,
    axis: int,
    delta: float,
    base_density: np.ndarray,
    scf_kwargs: dict,
    compute_raman: bool,
    side_done=None,
    base: BaseIntegrals | None = None,
) -> CoordinateJobResult:
    """Central-difference data for one coordinate (both signs).

    Runs SCF, gradient and (with ``compute_raman``) CPHF at +delta,
    then at -delta. The +delta SCF is seeded from the base density.
    The -delta SCF is seeded from the converged +delta density, the
    last density converged for this coordinate, which is already in
    hand. With ``base`` (the base geometry's two-electron tensors),
    the SCF and gradient integrals are rebuilt only where they touch
    ``atom``. The result's ``wall_s`` is the job's own wall time,
    measured in the process that ran it. ``side_done()`` is invoked
    after each sign completes (serial progress reporting; must be
    ``None`` when shipped to a pool).
    """
    sw = Stopwatch()
    sides = []
    guess = base_density
    local = None if base is None else dataclasses.replace(base, moved=(atom,))
    with telemetry_shipment() as shipment:
        with get_tracer().span("hessian.coordinate", atom=atom, axis=axis):
            for sign in (+1.0, -1.0):
                res = _displaced_scf(
                    geometry, atom, axis, sign * delta, guess, scf_kwargs,
                    local,
                )
                g = gradient(res, local)
                a = None
                if compute_raman:
                    a = CPHF(res).run().alpha
                sides.append((g, a, res.niter))
                # seed the -delta run from the +delta converged density
                guess = res.density
                if side_done is not None:
                    side_done()
    (gp, ap, np_), (gm, am, nm_) = sides
    col = 3 * atom + axis
    return CoordinateJobResult(
        col=col,
        hess_col=(gp - gm).ravel() / (2.0 * delta),
        dalpha_col=(ap - am) / (2.0 * delta) if compute_raman else None,
        niter_plus=np_,
        niter_minus=nm_,
        wall_s=sw.elapsed(),
        spans=shipment.spans,
        counter_delta=shipment.counters,
        pid=os.getpid(),
    )


def _retain(scf: SCFResult) -> BaseIntegrals:
    """The base integrals every coordinate job of a fragment reuses: the
    converged SCF's two-electron tensors and their nuclear derivatives,
    all at the base geometry, with no atom moved yet."""
    engine = scf.engine
    if scf.df is None:
        return BaseIntegrals(eri=scf.eri, eri_deriv=engine.eri_deriv())
    df = scf.df
    return BaseIntegrals(
        j3c=df.j3c, v2c=df.v2c,
        three_center_deriv=engine.three_center_deriv(df.aux_blocks, df.naux),
        two_center_deriv=engine.two_center_deriv(df.aux_blocks, df.naux),
    )


def fd_asymmetry(hessian: np.ndarray) -> float:
    """‖H − Hᵀ‖/‖H‖ (Frobenius) of an unsymmetrized FD Hessian; 0 for
    a zero H."""
    norm = float(np.linalg.norm(hessian))
    return float(np.linalg.norm(hessian - hessian.T)) / norm if norm else 0.0


def fragment_response(
    geometry: Geometry,
    delta: float = 5.0e-3,
    compute_raman: bool = True,
    basis_name: str = "sto-3g",
    eri_mode: str = "auto",
    progress=None,
    pool: Executor | None = None,
) -> FragmentResponse:
    """Hessian (+ Raman tensor) of one fragment.

    Parameters
    ----------
    geometry:
        Fragment geometry (must be a closed-shell system; the MFCC
        capping in :mod:`repro.fragment` guarantees this).
    delta:
        Displacement step in bohr. 5e-3 balances FD truncation against
        SCF convergence noise (validated in tests against tighter
        settings).
    compute_raman:
        Also run CPHF at every displacement for d(alpha)/dR.
    progress:
        Optional callback ``progress(done, total)`` — the pipeline uses
        this to emit worker heartbeats to the scheduler.
    pool:
        Optional :class:`concurrent.futures.Executor`: the ~3N
        coordinate jobs are dispatched to it instead of running
        serially (the ``displacement`` backend of
        :mod:`repro.pipeline.executor`). Results are numerically
        identical to the serial loop.

    The base geometry's two-electron tensors are kept for the length of
    the call and shipped with every coordinate job, which rebuilds only
    the elements that touch its displaced atom.
    """
    scf_kwargs = dict(basis_name=basis_name, eri_mode=eri_mode)
    base = RHF(geometry, **scf_kwargs).run()
    if not base.converged:
        raise RuntimeError("base SCF failed to converge")
    kept = _retain(base)
    g0 = gradient(base, kept)
    alpha0 = None
    if compute_raman:
        alpha0 = CPHF(base).run().alpha
    # the jobs need only these and the kept tensors: dropping the SCF
    # state frees its whitened DF tensors and its engine for the loop
    density, energy, niter = base.density, base.energy, base.niter
    del base

    n = geometry.natoms
    ncoord = 3 * n
    hessian = np.zeros((ncoord, ncoord))
    dalpha = np.zeros((ncoord, 3, 3)) if compute_raman else None
    total = 2 * ncoord
    done = 0
    coords = [(atom, axis) for atom in range(n) for axis in range(3)]

    results: list[CoordinateJobResult] = []
    tracer = get_tracer()
    with tracer.span("hessian.displacements", ncoord=ncoord):
        if pool is None:
            for atom, axis in coords:

                def side_done():
                    nonlocal done
                    done += 1
                    if progress is not None:
                        progress(done, total)

                results.append(
                    coordinate_job(
                        geometry, atom, axis, delta, density, scf_kwargs,
                        compute_raman, side_done=side_done, base=kept,
                    )
                )
        else:
            pending = {
                pool.submit(
                    coordinate_job, geometry, atom, axis, delta, density,
                    scf_kwargs, compute_raman, base=kept,
                )
                for atom, axis in coords
            }
            while pending:
                finished, pending = wait(pending, return_when=FIRST_COMPLETED)
                for fut in finished:
                    res = fut.result()  # re-raises worker errors
                    if res.pid != os.getpid():
                        # telemetry captured inside the pool worker
                        tracer.adopt(res.spans)
                        counters().merge(res.counter_delta)
                    results.append(res)
                    done += 2
                    if progress is not None:
                        progress(done, total)

    counters().inc("hessian.coordinate_jobs", len(results))
    iters_plus = 0
    iters_minus = 0
    jobs_s = 0.0
    for res in results:
        hessian[res.col] = res.hess_col
        if compute_raman:
            dalpha[res.col] = res.dalpha_col
        iters_plus += res.niter_plus
        iters_minus += res.niter_minus
        jobs_s += res.wall_s
    # the exact Hessian is symmetric: record the FD noise, then split it
    # evenly
    asymmetry = fd_asymmetry(hessian)
    if sanitize_enabled() and asymmetry > FD_ASYMMETRY_MAX:
        raise ContractViolation(
            f"FD Hessian asymmetry |H - H^T|/|H| = {asymmetry:.3e} above "
            f"{FD_ASYMMETRY_MAX:.0e}", name="hessian", rule="fd_asymmetry",
            context="phase=fragment_response")
    hessian = 0.5 * (hessian + hessian.T)
    resp = FragmentResponse(
        geometry=geometry,
        energy=energy,
        hessian=hessian,
        dalpha_dr=dalpha,
        alpha=alpha0,
        gradient=g0,
        meta={
            "delta": delta,
            "basis": basis_name,
            # summed wall time of the coordinate jobs, wherever they
            # ran: the displacement executor's busy time
            "coordinate_jobs_s": jobs_s,
            "fd_asymmetry": asymmetry,
            "scf_iters_base": niter,
            "scf_iters_plus": iters_plus,
            "scf_iters_minus": iters_minus,
            # iterations the density seeding saved across the 6N
            # displaced SCFs, measured against the cold-start cost of
            # the (equally sized, unseeded) base SCF
            "scf_iters_saved": 2 * ncoord * niter
            - (iters_plus + iters_minus),
        },
    )
    counters().inc("scf.iters_saved", resp.meta["scf_iters_saved"])
    # no-op unless QF_SANITIZE is set; the executor re-checks with the
    # fragment label attached, this guards direct library callers
    return check_response(resp, phase="fragment_response")
