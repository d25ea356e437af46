"""Per-fragment response: Hessian and Raman tensor via the
atomic-displacement loop.

This is the computational payload of the paper's worker processes: the
leader generates one task per atomic displacement of a fragment; each
worker runs a full SCF + gradient + CPHF at the displaced geometry.
Central differences of analytic gradients give the fragment Hessian
(d^2 E / dR dR), and central differences of CPHF polarizabilities give
the Raman tensor (d alpha / dR). Both are needed by the Eq. (1)
assembly in :mod:`repro.fragment.assembly`.

The loop is organized as independent *coordinate jobs* (one per atom,
axis — both displacement signs): the serial path runs them in order,
and the ``displacement`` executor backend
(:mod:`repro.pipeline.executor`) ships them to a process pool, which is
how a few large fragments are parallelized across cores.

SCF seeding follows the paper's "reuse within a DFPT cycle" economies:
the +delta run starts from the converged base density, and the -delta
run starts from the *+delta* density (the previously converged point of
the same coordinate), which typically saves a few DIIS iterations per
displaced SCF. The realized savings — measured against the cold-start
iteration count of the base SCF — are recorded in
``meta["scf_iters_saved"]``.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, Executor, wait
from dataclasses import dataclass, field

import numpy as np

from repro.devtools.contracts import check_response
from repro.dfpt.cphf import CPHF
from repro.dfpt.gradient import gradient
from repro.geometry.atoms import Geometry
from repro.obs.counters import counters
from repro.obs.tracer import get_tracer, telemetry_shipment
from repro.scf.rhf import RHF, SCFResult
from repro.utils.timing import Timer


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
    timings: dict = field(default_factory=dict)  # name -> (seconds, count)
    #: telemetry captured in a pool worker (empty for in-process jobs);
    #: ``pid`` lets the parent skip merging its own direct reports
    spans: list = field(default_factory=list)
    counter_delta: dict = field(default_factory=dict)
    pid: int = 0


def _displaced_scf(
    geometry: Geometry,
    atom: int,
    axis: int,
    delta: float,
    guess_density: np.ndarray,
    scf_kwargs: dict,
) -> SCFResult:
    geom_d = geometry.displaced(atom, axis, delta)
    res = RHF(geom_d, **scf_kwargs).run(guess_density=guess_density)
    if not res.converged:
        # retry cold — a bad guess can stall DIIS in rare cases
        res = RHF(geom_d, **scf_kwargs).run()
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
) -> CoordinateJobResult:
    """Central-difference data for one coordinate (both signs).

    The +delta SCF is seeded from the base density; the -delta SCF is
    seeded from the converged +delta density — the nearest previously
    converged point for that coordinate (2 delta away instead of the
    base's delta... in the displaced coordinate the + density is simply
    the best available guess that costs nothing extra to keep).
    ``side_done()`` is invoked after each sign completes (serial
    progress reporting; must be ``None`` when shipped to a pool).
    """
    timer = Timer()
    sides = []
    guess = base_density
    with telemetry_shipment() as shipment:
        with get_tracer().span("hessian.coordinate", atom=atom, axis=axis):
            for sign in (+1.0, -1.0):
                with timer.section("scf_displaced"):
                    res = _displaced_scf(
                        geometry, atom, axis, sign * delta, guess, scf_kwargs
                    )
                with timer.section("gradient_displaced"):
                    g = gradient(res)
                a = None
                if compute_raman:
                    with timer.section("cphf_displaced"):
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
        timings={
            name: (timer.totals[name], timer.counts[name])
            for name in timer.totals
        },
        spans=shipment.spans,
        counter_delta=shipment.counters,
        pid=os.getpid(),
    )


def fragment_response(
    geometry: Geometry,
    delta: float = 5.0e-3,
    compute_raman: bool = True,
    basis_name: str = "sto-3g",
    eri_mode: str = "auto",
    schwarz_cutoff: float = 1.0e-12,
    timer: Timer | None = None,
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
    schwarz_cutoff:
        Schwarz screening threshold handed to the SCF integral engine
        (see :mod:`repro.integrals.engine`); 0 disables screening.
    progress:
        Optional callback ``progress(done, total)`` — the pipeline uses
        this to emit worker heartbeats to the scheduler.
    pool:
        Optional :class:`concurrent.futures.Executor`: the ~3N
        coordinate jobs are dispatched to it instead of running
        serially (the ``displacement`` backend of
        :mod:`repro.pipeline.executor`). Results are numerically
        identical to the serial loop.
    """
    timer = timer or Timer()
    scf_kwargs = dict(
        basis_name=basis_name, eri_mode=eri_mode, schwarz_cutoff=schwarz_cutoff
    )
    with timer.section("scf_base"):
        base = RHF(geometry, **scf_kwargs).run()
    if not base.converged:
        raise RuntimeError("base SCF failed to converge")
    with timer.section("gradient_base"):
        g0 = gradient(base)
    alpha0 = None
    if compute_raman:
        with timer.section("cphf_base"):
            alpha0 = CPHF(base).run().alpha

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
                        geometry, atom, axis, delta, base.density, scf_kwargs,
                        compute_raman, side_done=side_done,
                    )
                )
        else:
            pending = {
                pool.submit(
                    coordinate_job, geometry, atom, axis, delta, base.density,
                    scf_kwargs, compute_raman,
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
    for res in results:
        hessian[res.col] = res.hess_col
        if compute_raman:
            dalpha[res.col] = res.dalpha_col
        iters_plus += res.niter_plus
        iters_minus += res.niter_minus
        for name, (secs, cnt) in res.timings.items():
            timer.totals[name] += secs
            timer.counts[name] += cnt
    # the exact Hessian is symmetric; FD noise is split evenly
    hessian = 0.5 * (hessian + hessian.T)
    resp = FragmentResponse(
        geometry=geometry,
        energy=base.energy,
        hessian=hessian,
        dalpha_dr=dalpha,
        alpha=alpha0,
        gradient=g0,
        meta={
            "delta": delta,
            "basis": basis_name,
            "timer": timer,
            "schwarz_cutoff": schwarz_cutoff,
            "scf_iters_base": base.niter,
            "scf_iters_plus": iters_plus,
            "scf_iters_minus": iters_minus,
            # iterations the density seeding saved across the 6N
            # displaced SCFs, measured against the cold-start cost of
            # the (equally sized, unseeded) base SCF
            "scf_iters_saved": 2 * ncoord * base.niter
            - (iters_plus + iters_minus),
        },
    )
    counters().inc("scf.iters_saved", resp.meta["scf_iters_saved"])
    # no-op unless QF_SANITIZE is set; the executor re-checks with the
    # fragment label attached, this guards direct library callers
    return check_response(resp, phase="fragment_response")
