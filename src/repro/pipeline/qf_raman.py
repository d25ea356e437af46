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
from repro.utils.timing import Timer


@dataclass
class PipelineResult:
    """Everything a QF-RAMAN run produces."""

    decomposition: QFDecomposition
    responses: list[FragmentResponse | None]
    assembled: AssembledResponse
    spectrum: RamanSpectrum | None
    masses_amu: np.ndarray
    unique_pieces: int
    timer: Timer = field(default_factory=Timer)
    throughput: ThroughputReport | None = None
    #: labels of pieces missing from the Eq. (1) assembly — non-empty
    #: only after a fault-tolerant run under ``skip_and_report``
    #: exhausted a fragment's retries (their ``responses`` entries are
    #: None and the spectrum is a flagged partial result)
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
        schwarz_cutoff: float = 1.0e-12,
        resilience=None,
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
        self.schwarz_cutoff = schwarz_cutoff
        #: a ResiliencePolicy (or True for defaults) switches the run
        #: into fault-tolerant execution — retries, timeouts,
        #: checkpoint/resume (docs/resilience.md); ignored when
        #: ``executor`` is a ready instance
        self.resilience = resilience
        self.resilience_report: dict | None = None
        self.skipped_fragments: list[str] = []
        self.rigid_rotations = 0
        self.throughput: ThroughputReport | None = None
        self.timer = Timer()
        #: the fragment-response store (docs/caching.md): persistent
        #: and shared across runs — exact repeats and rotated copies of
        #: a stored fragment hit instead of recomputing, and a resilient
        #: run checkpoints into it
        self.canonical = (CanonicalStore(canonical_cache)
                          if canonical_cache is not None else None)

    # -- steps -----------------------------------------------------------------

    def decompose(self) -> QFDecomposition:
        with self.timer.section("decompose"), \
                get_tracer().span("decompose") as sp:
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
        # rep[sig] = index of the latest representative piece for sig
        rep: dict[tuple, int] = {}
        plan: list[tuple] = []          # ("rotate", ref_idx, rot) |
        #                                 ("cached", resp) | ("compute",)
        tasks: list[FragmentTask] = []
        pieces = decomposition.pieces
        for k, piece in enumerate(pieces):
            sig = geometry_signature(piece.geometry)
            if sig in rep:
                ref_geom = pieces[rep[sig]].geometry
                rot, _t, rmsd = kabsch_rotation(
                    ref_geom.coords, piece.geometry.coords
                )
                if rmsd < 1.0e-6:
                    plan.append(("rotate", rep[sig], rot))
                    continue
            rep[sig] = k
            task = FragmentTask(
                index=k,
                label=piece.label or f"piece-{k}",
                geometry=piece.geometry,
                delta=self.delta,
                compute_raman=self.compute_raman,
                basis_name=self.basis_name,
                eri_mode=self.eri_mode,
                schwarz_cutoff=self.schwarz_cutoff,
            )
            stored = (self.canonical.load_task(task)
                      if self.canonical is not None else None)
            if stored is not None:
                plan.append(("cached", stored))
            else:
                plan.append(("compute",))
                tasks.append(task)

        # -- execute the remaining unique pieces -----------------------------
        computed: dict[int, FragmentResponse] = {}
        if tasks:
            owns_executor = isinstance(self.executor, str)
            executor = (
                make_executor(self.executor, max_workers=self.max_workers,
                              resilience=self.resilience,
                              store=self.canonical)
                if owns_executor else self.executor
            )
            self._log(
                f"computing {len(tasks)} unique pieces with "
                f"backend={executor.name} workers={executor.max_workers}"
            )
            try:
                with self.timer.section("fragment_response"), \
                        get_tracer().span(
                            "fragment_response", n_tasks=len(tasks),
                            backend=executor.name,
                        ):
                    computed, self.throughput = executor.run(tasks)
            finally:
                if owns_executor:
                    executor.close()
            self._log(self.throughput.summary())
            self.resilience_report = self.throughput.resilience
            if self.resilience_report is not None:
                counters().inc("pipeline.resilient_runs")
            # fold the per-fragment sub-phase timers (scf_base,
            # scf_displaced, cphf_displaced, ...) into the pipeline
            # timer so phase_wall_s covers worker time, not just the
            # parent's own sections (skipped fragments have no result)
            for task in tasks:
                resp = computed.get(task.index)
                sub = resp.meta.get("timer") if resp is not None else None
                if sub is not None:
                    self.timer.merge(sub)
            if self.canonical is not None:
                # one entry per fragment class, hit by every copy in
                # later runs (a resilient run has already checkpointed
                # each fragment, and the store keeps the first entry)
                for task in tasks:
                    resp = computed.get(task.index)
                    if resp is not None:
                        self.canonical.store_task(task, resp)

        # -- assemble in decomposition order ----------------------------------
        # a fault-tolerant run under skip_and_report may come back with
        # fragments missing; their entries (and any rigid duplicates
        # rotated off them) become None and are flagged for the caller
        responses: list[FragmentResponse | None] = []
        self.skipped_fragments = []
        self.rigid_rotations = 0
        for k, (piece, entry) in enumerate(zip(pieces, plan)):
            kind = entry[0]
            label = piece.label or f"piece-{k}"
            if kind == "compute":
                resp = computed.get(k)
                if resp is None:
                    self.skipped_fragments.append(label)
                    counters().inc("pipeline.skipped_fragments")
                responses.append(resp)
            elif kind == "cached":
                responses.append(entry[1])
            else:  # rotate off the representative (computed or cached)
                _kind, ref_idx, rot = entry
                if responses[ref_idx] is None:
                    self.skipped_fragments.append(label)
                    counters().inc("pipeline.skipped_fragments")
                    responses.append(None)
                    continue
                counters().inc("pipeline.rigid_rotations")
                self.rigid_rotations += 1
                with self.timer.section("rotate_response"), \
                        get_tracer().span("rotate_response"):
                    responses.append(
                        rotate_response(responses[ref_idx], rot,
                                        piece.geometry)
                    )
        if self.skipped_fragments:
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
        with self.timer.section("assemble"), get_tracer().span("assemble"):
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
            with self.timer.section("spectrum"), \
                    get_tracer().span("spectrum", solver=solver):
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
                else:
                    raise ValueError(f"unknown solver {solver!r}")
        if self.throughput is None:
            # a fully cached / rotate-only run never touches the
            # executor, but the run-level report (and its phase walls)
            # must still exist
            self.throughput = ThroughputReport(
                backend="cached", max_workers=0, n_tasks=0, wall_s=0.0,
                fragments_per_s=0.0, worker_utilization=0.0,
            )
        self.throughput.phase_wall_s = dict(self.timer.totals)
        return PipelineResult(
            decomposition=decomposition,
            responses=responses,
            assembled=assembled,
            spectrum=spectrum,
            masses_amu=masses,
            unique_pieces=unique,
            timer=self.timer,
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
