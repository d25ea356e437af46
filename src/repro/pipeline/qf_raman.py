"""The QF-RAMAN pipeline driver.

Equivalent of the paper's production run at laptop scale:

1. decompose protein + waters into QF pieces (Eq. 1),
2. compute each unique piece's Hessian and Raman tensor with the
   DFPT displacement loop (rigid duplicates are rotated, not
   recomputed),
3. assemble the global Hessian / polarizability derivative,
4. evaluate the Raman spectrum with the dense baseline or the
   Lanczos + GAGQ solver (§V-E).

The driver also exports the fragment-size workload so the same
decomposition can be fed to the simulated supercomputers
(:func:`repro.hpc.scheduler.simulate_qf_run`) for timing studies —
that bridge is what connects the chemistry half of this repository to
the scaling half.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from repro.devtools.contracts import check_array, sanitize_enabled
from repro.dfpt.hessian import FragmentResponse
from repro.fragment.assembly import (
    AssembledResponse,
    assemble_response,
    assemble_sparse_hessian,
)
from repro.fragment.fragmenter import QFDecomposition, decompose_system
from repro.geometry.atoms import Geometry
from repro.geometry.protein import BuiltResidue
from repro.obs.counters import counters
from repro.obs.tracer import get_tracer
from repro.pipeline.canonical import CanonicalStore
from repro.pipeline.executor import (
    FragmentExecutor,
    FragmentTask,
    ThroughputReport,
    make_executor,
)
from repro.pipeline.resilience import ResiliencePolicy
from repro.pipeline.rigid import (
    geometry_signature,
    kabsch_rotation,
    rotate_response,
)
from repro.spectra.raman import (
    RamanSpectrum,
    raman_spectrum_dense,
    raman_spectrum_lanczos,
)


@dataclass
class PipelineResult:
    """Everything a QF-RAMAN run produces."""

    decomposition: QFDecomposition
    responses: list[FragmentResponse | None]
    assembled: AssembledResponse
    spectrum: RamanSpectrum | None
    masses_amu: np.ndarray
    unique_pieces: int
    throughput: ThroughputReport | None = None
    #: labels of pieces missing from the Eq. (1) assembly — non-empty
    #: only after a run under ``skip_and_report`` exhausted a
    #: fragment's retries (their ``responses`` entries are None and the
    #: spectrum is a flagged partial result)
    skipped_fragments: list[str] = field(default_factory=list)
    #: what the run reused and why: in-run rigid rotations, plus the
    #: store's hits/misses/rotations/writes/reject reasons when the run
    #: used one (:meth:`QFRamanPipeline.reuse_stats`) — flows into the
    #: RunManifest
    canonical: dict = field(default_factory=dict)

    @property
    def natoms(self) -> int:
        return self.assembled.natoms

    @property
    def is_partial(self) -> bool:
        return bool(self.skipped_fragments)


class QFRamanPipeline:
    """Configure once, run the whole chain."""

    def __init__(
        self,
        protein: Geometry | None = None,
        residues: list[BuiltResidue] | None = None,
        waters: list[Geometry] | None = None,
        lambda_angstrom: float = 4.0,
        min_sequence_separation: int = 3,
        basis_name: str = "sto-3g",
        eri_mode: str = "auto",
        compute_raman: bool = True,
        delta: float = 5.0e-3,
        relax_waters: bool = False,
        verbose: bool = False,
        executor: str | FragmentExecutor = "serial",
        max_workers: int | None = None,
        resilience: ResiliencePolicy | None = None,
        canonical_cache: str | None = None,
    ):
        if protein is None and not waters:
            raise ValueError("pipeline needs a protein, waters, or both")
        self.protein = protein
        self.residues = residues
        self.waters = waters or []
        if relax_waters and self.waters:
            # optimize one monomer, snap every copy onto it — removes
            # intramolecular strain from the generator geometry so the
            # O-H bands sit at the level-of-theory positions
            from repro.pipeline.rigid import snap_rigid_copies
            from repro.scf.optimize import optimize_geometry

            opt = optimize_geometry(
                self.waters[0], basis_name=basis_name, eri_mode=eri_mode
            )
            self.waters = snap_rigid_copies(self.waters, opt.geometry)
        self.lambda_angstrom = lambda_angstrom
        self.min_sequence_separation = min_sequence_separation
        self.basis_name = basis_name
        self.eri_mode = eri_mode
        self.compute_raman = compute_raman
        self.delta = delta
        self.verbose = verbose
        #: executor backend name or a ready FragmentExecutor instance;
        #: see :mod:`repro.pipeline.executor` for the three backends
        self.executor = executor
        self.max_workers = max_workers
        #: the executor's ResiliencePolicy — retries, timeouts, the
        #: failure policy (docs/resilience.md); None is one attempt per
        #: fragment, fail-fast. Ignored when ``executor`` is a ready
        #: instance (which carries its own)
        self.resilience = resilience
        self.skipped_fragments: list[str] = []
        self.rigid_rotations = 0
        self.throughput: ThroughputReport | None = None
        #: the fragment-response store (docs/caching.md): persistent
        #: and shared across runs — exact repeats and rotated copies of
        #: a stored fragment hit instead of recomputing, and the
        #: executor checkpoints every accepted fragment into it
        self.canonical = (CanonicalStore(canonical_cache)
                          if canonical_cache is not None else None)

    # -- steps -----------------------------------------------------------------

    def decompose(self) -> QFDecomposition:
        with get_tracer().span("decompose") as sp:
            dec = decompose_system(
                protein=self.protein,
                residues=self.residues,
                waters=self.waters,
                lambda_angstrom=self.lambda_angstrom,
                min_sequence_separation=self.min_sequence_separation,
            )
            sp.set(pieces=len(dec.pieces), natoms=dec.natoms_total)
        return dec

    def compute_responses(self, decomposition: QFDecomposition
                          ) -> tuple[list[FragmentResponse], int]:
        """One :class:`FragmentResponse` per piece (rigid copies reused).

        Three phases: *plan* (resolve in-run rigid duplicates and store
        hits, leaving a list of pieces that genuinely need a QM run),
        *execute* (hand those to the configured executor backend —
        serial, process pool, or per-displacement pool), *assemble*
        (fill the per-piece response list in decomposition order,
        rotating duplicates off their representative). The plan is the
        only store lookup, so every backend produces identical
        responses.
        """
        # -- plan: what does each piece resolve to? --------------------------
        pieces = decomposition.pieces
        copies = _rigid_copies(pieces)
        stored: dict[int, FragmentResponse] = {}
        tasks: list[FragmentTask] = []
        for k, piece in enumerate(pieces):
            if k not in copies:
                continue
            task = FragmentTask(
                index=k,
                label=piece.label or f"piece-{k}",
                geometry=piece.geometry,
                delta=self.delta,
                compute_raman=self.compute_raman,
                basis_name=self.basis_name,
                eri_mode=self.eri_mode,
            )
            hit = (self.canonical.load_task(task)
                   if self.canonical is not None else None)
            if hit is not None:
                stored[k] = hit
            else:
                tasks.append(task)

        # -- execute the remaining unique pieces -----------------------------
        computed: dict[int, FragmentResponse] = {}
        if tasks:
            owns_executor = isinstance(self.executor, str)
            executor = (
                make_executor(self.executor, max_workers=self.max_workers,
                              policy=self.resilience)
                if owns_executor else self.executor
            )
            self._log(
                f"computing {len(tasks)} unique pieces with "
                f"backend={executor.name} workers={executor.max_workers}"
            )
            try:
                with get_tracer().span("fragment_response",
                                       n_tasks=len(tasks),
                                       backend=executor.name):
                    # each accepted fragment is checkpointed into the
                    # store as it validates: one entry per fragment
                    # class, hit by every copy in later runs
                    computed, self.throughput = executor.run(
                        tasks, store=self.canonical)
            finally:
                if owns_executor:
                    executor.close()
            self._log(self.throughput.summary())

        # -- assemble in decomposition order ----------------------------------
        # a run under skip_and_report may come back with
        # fragments missing; their entries (and any rigid duplicates
        # rotated off them) become None and are flagged for the caller
        responses: list[FragmentResponse | None] = [None] * len(pieces)
        self.rigid_rotations = 0
        for k, (members, rotations) in copies.items():
            resp = stored[k] if k in stored else computed.get(k)
            responses[k] = resp
            if resp is None or not members:
                continue
            counters().inc("pipeline.rigid_rotations", len(members))
            self.rigid_rotations += len(members)
            with get_tracer().span("rotate_response", copies=len(members)):
                rotated = rotate_response(
                    resp, rotations, [pieces[j].geometry for j in members])
            for j, r in zip(members, rotated):
                responses[j] = r
        self.skipped_fragments = [
            piece.label or f"piece-{k}"
            for k, (piece, resp) in enumerate(zip(pieces, responses))
            if resp is None
        ]
        if self.skipped_fragments:
            counters().inc("pipeline.skipped_fragments",
                           len(self.skipped_fragments))
            self._log(
                f"WARNING: assembling a PARTIAL spectrum — "
                f"{len(self.skipped_fragments)} piece(s) missing: "
                f"{', '.join(self.skipped_fragments)}"
            )
        return responses, len(tasks)

    def masses(self) -> np.ndarray:
        parts = []
        if self.protein is not None:
            parts.append(self.protein.masses)
        for w in self.waters:
            parts.append(w.masses)
        return np.concatenate(parts)

    # -- the full run -------------------------------------------------------------

    def run(
        self,
        omega_cm1: np.ndarray | None = None,
        sigma_cm1: float = 20.0,
        solver: str = "dense",
        lanczos_k: int = 150,
        convention: str = "standard",
    ) -> PipelineResult:
        with get_tracer().span("run", solver=solver) as run_span:
            return self._run(
                omega_cm1, sigma_cm1, solver, lanczos_k, convention, run_span
            )

    def _run(self, omega_cm1, sigma_cm1, solver, lanczos_k, convention,
             run_span) -> PipelineResult:
        decomposition = self.decompose()
        self._log(
            f"decomposed into {len(decomposition.pieces)} pieces "
            f"({decomposition.counts})"
        )
        run_span.set(pieces=len(decomposition.pieces),
                     natoms=decomposition.natoms_total)
        responses, unique = self.compute_responses(decomposition)
        # skip_and_report degradation: assemble only the pieces that
        # have a response; the rest are flagged on the result/manifest
        present = [(p, r) for p, r in zip(decomposition.pieces, responses)
                   if r is not None]
        pieces_ok = [p for p, _ in present]
        responses_ok = [r for _, r in present]
        if self.skipped_fragments:
            run_span.set(skipped=len(self.skipped_fragments))
        with get_tracer().span("assemble"):
            assembled = assemble_response(
                pieces_ok, responses_ok, decomposition.natoms_total
            )
        if sanitize_enabled():
            # the Eq. (1) signed sum must preserve Hermiticity and
            # finiteness; an index-inconsistent piece breaks both
            n3 = 3 * decomposition.natoms_total
            ctx = f"assembly pieces={len(decomposition.pieces)} natoms3={n3}"
            check_array("assembled.hessian", assembled.hessian,
                        symmetric=True, shape=(n3, n3), context=ctx)
            if assembled.dalpha_dr is not None:
                check_array("assembled.dalpha_dr", assembled.dalpha_dr,
                            shape=(n3, 3, 3), context=ctx)
        masses = self.masses()
        spectrum = None
        if omega_cm1 is not None and self.compute_raman:
            with get_tracer().span("spectrum", solver=solver) as spectrum_span:
                if solver == "dense":
                    spectrum = raman_spectrum_dense(
                        assembled.hessian, assembled.dalpha_dr, masses,
                        omega_cm1, sigma_cm1, convention=convention,
                    )
                elif solver == "lanczos":
                    h_mw = assemble_sparse_hessian(
                        pieces_ok, responses_ok,
                        decomposition.natoms_total, masses_amu=masses,
                    )
                    spectrum = raman_spectrum_lanczos(
                        h_mw, assembled.dalpha_dr, masses, omega_cm1,
                        sigma_cm1, k=lanczos_k, convention=convention,
                        mass_weighted=True,
                    )
                    spectrum_span.set(
                        quadrature_delta=spectrum.quadrature_delta)
                else:
                    raise ValueError(f"unknown solver {solver!r}")
        if self.throughput is None:
            # a fully cached / rotate-only run never touches the
            # executor, but the run-level report must still exist
            self.throughput = ThroughputReport(
                backend="cached", max_workers=0, n_tasks=0, wall_s=0.0,
                fragments_per_s=0.0, worker_utilization=0.0,
            )
        return PipelineResult(
            decomposition=decomposition,
            responses=responses,
            assembled=assembled,
            spectrum=spectrum,
            masses_amu=masses,
            unique_pieces=unique,
            throughput=self.throughput,
            skipped_fragments=list(self.skipped_fragments),
            canonical=self.reuse_stats(),
        )

    def reuse_stats(self) -> dict:
        """What the last run reused and why: the in-run rigid rotations
        plus, with a store, its hit/miss/write/reject accounting."""
        stats = {"rigid_rotations": self.rigid_rotations}
        if self.canonical is not None:
            stats.update(self.canonical.stats())
        return stats

    def workload_sizes(self, decomposition: QFDecomposition | None = None
                       ) -> np.ndarray:
        """Fragment sizes for the HPC scheduler simulation."""
        decomposition = decomposition or self.decompose()
        return np.array([p.natoms for p in decomposition.pieces])

    def _log(self, msg: str) -> None:
        if self.verbose:
            print(f"[qf-raman] {msg}", file=sys.stderr, flush=True)


def _rigid_copies(pieces: list) -> dict[int, tuple[list[int], np.ndarray]]:
    """Resolve in-run rigid duplicates: representative piece index ->
    (indices of the copies rotated off it, their stacked rotations).

    Pieces with equal :func:`geometry_signature` form a class; the first
    is its representative, and each later piece whose Kabsch fit to the
    latest representative has RMSD below 1e-6 is a copy. A piece that
    fails the fit becomes the class's representative for the pieces
    after it. One Kabsch call fits all remaining copies of a class, and
    the class splits at the first failure.
    """
    classes: dict[tuple, list[int]] = {}
    for k, piece in enumerate(pieces):
        classes.setdefault(geometry_signature(piece.geometry), []).append(k)
    copies: dict[int, tuple[list[int], np.ndarray]] = {}
    for members in classes.values():
        head, rest = members[0], members[1:]
        while rest:
            rot, _t, rmsd = kabsch_rotation(
                pieces[head].geometry.coords,
                np.stack([pieces[j].geometry.coords for j in rest]))
            fails = np.flatnonzero(~(rmsd < 1.0e-6))
            cut = int(fails[0]) if fails.size else len(rest)
            copies[head] = (rest[:cut], rot[:cut])
            if cut == len(rest):
                break
            head, rest = rest[cut], rest[cut + 1:]
        copies.setdefault(head, ([], np.zeros((0, 3, 3))))
    return copies
