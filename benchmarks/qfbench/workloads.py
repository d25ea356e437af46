"""The benchmark's three workloads: inputs from a seed, one timed pipeline
run, and the checks every run's output must pass.

Each workload stresses a different layer of the pipeline (the README
says why each was chosen):

Waters are ``water_box`` positions and orientations with the RHF/STO-3G
equilibrium internal geometry.

``water_dimer_exact``
    ``water_box(2)`` at liquid density: a monomer and a 6-atom dimer run
    QM on the exact-ERI path, three pieces are rigid reuses. A cold
    canonical store in a fresh directory per run takes the writes; the
    spectrum comes from the dense solver.
``glycine_df``
    One capped GLY residue with a seeded psi and orientation on the
    density-fitted path, dense solver, no store.
``water_traj_warm``
    Frames of 729 waters on a 7 A lattice (one-body pieces only) against
    a canonical store warmed in set-up; timed frames do no QM work and
    the spectrum comes from the Lanczos solver.
"""

from __future__ import annotations

import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.analysis import PROTEIN_BANDS, WATER_BANDS, band_assignment
from repro.analysis.reference import RHF_STO3G_FREQUENCY_SCALE
from repro.geometry import build_polypeptide, water_box
from repro.geometry.atoms import Geometry
from repro.geometry.water import random_rotation
from repro.obs.counters import counters
from repro.pipeline import QFRamanPipeline
from repro.pipeline.rigid import snap_rigid_copies

OMEGA_CM1 = np.linspace(0.0, 4500.0, 901)
SIGMA_CM1 = 20.0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
#: normalized-intensity tolerance against the stored seed-0 spectra
REFERENCE_ATOL = 1.0e-5
#: normalized-intensity tolerance of a Lanczos frame against the dense
#: single-water spectrum it must reproduce
FRAME_ATOL = 1.0e-3
#: the band of PROTEIN_BANDS found on every seed tried for glycine
GLYCINE_BAND = "ch_stretch"
TRAJ_WATERS = 729
TRAJ_DENSITY = 1.0 / 343.0   # one water per (7 A)^3: no pair within 4 A
LANCZOS_K = 150
#: RHF/STO-3G equilibrium water, from ``repro.scf.optimize.optimize_geometry
#: (water_molecule())``. Waters at the experimental geometry put the
#: scaled O-H stretch near 3780 cm-1, outside the reference band.
RELAXED_OH_ANGSTROM = 0.989395
RELAXED_HOH_DEG = 100.0252


def relaxed_water() -> Geometry:
    half = math.radians(RELAXED_HOH_DEG) / 2.0
    x = RELAXED_OH_ANGSTROM * math.sin(half)
    z = RELAXED_OH_ANGSTROM * math.cos(half)
    return Geometry.from_angstrom(
        ["O", "H", "H"], [[0.0, 0.0, 0.0], [x, 0.0, z], [-x, 0.0, z]],
        labels=[{"kind": "water", "name": n} for n in ("O", "H1", "H2")])


def relaxed_water_box(n: int, **kwargs) -> list[Geometry]:
    """``water_box`` positions and orientations, relaxed internal geometry."""
    return snap_rigid_copies(water_box(n, **kwargs), relaxed_water())


def normalized(intensity: np.ndarray) -> np.ndarray:
    return intensity / intensity.max()


class Workload:
    """Set up once from a seed, then run and check the pipeline repeatedly.

    ``expected_seams`` names every tracer seam a run of this workload
    must reach, so that a renamed call site cannot zero a layer unseen.
    """

    name = ""
    expected_seams: frozenset[str] = frozenset()
    reference_seed = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._dirs: list[Path] = []

    def scratch_dir(self) -> Path:
        path = Path(tempfile.mkdtemp(prefix=f"{self.name}-",
                                     dir=self.workdir))
        self._dirs.append(path)
        return path

    def close(self) -> None:
        for path in self._dirs:
            shutil.rmtree(path, ignore_errors=True)
        self._dirs.clear()

    def prepare(self, i: int) -> dict:
        """Untimed per-run input: keyword arguments for :meth:`run`."""
        return {}

    def run(self, **inputs):
        """One timed ``QFRamanPipeline(...).run(...)``; returns the result."""
        raise NotImplementedError

    def check(self, result, i: int) -> list[str]:
        """Problems with run ``i``'s output (empty when correct)."""
        problems = common_checks(result)
        if not problems and self.seed == self.reference_seed and i == 0:
            problems += self.reference_problems(result)
        return problems

    def reference_spectrum(self, result) -> np.ndarray:
        return normalized(result.spectrum.intensity)

    def reference_problems(self, result) -> list[str]:
        path = REFERENCE_DIR / f"{self.name}.npz"
        with np.load(path) as data:
            ref = data["intensity"]
        err = float(np.abs(self.reference_spectrum(result) - ref).max())
        if not err <= REFERENCE_ATOL:
            return [f"spectrum differs from {path.name} by {err:.2e}"]
        return []


def hessian_problems(h: np.ndarray, block: int = 512) -> list[str]:
    """Finite and symmetric, checked in row blocks so the check itself
    adds no dense-Hessian-sized temporaries to the peak RSS."""
    scale = 1.0
    asym = 0.0
    for i in range(0, h.shape[0], block):
        rows = h[i:i + block]
        if not np.isfinite(rows).all():
            return ["assembled Hessian is not finite"]
        scale = max(scale, float(np.abs(rows).max()))
        asym = max(asym, float(np.abs(rows - h[:, i:i + block].T).max()))
    if asym > 1.0e-8 * scale:
        return [f"assembled Hessian is not symmetric ({asym:.2e})"]
    return []


def common_checks(result) -> list[str]:
    problems = []
    if result.skipped_fragments:
        problems.append(f"skipped fragments {result.skipped_fragments}")
    problems += hessian_problems(result.assembled.hessian)
    y = result.spectrum.intensity
    if not np.all(np.isfinite(y)):
        problems.append("spectrum is not finite")
    elif y.max() <= 0.0 or y.min() < -1.0e-9 * y.max():
        problems.append(f"spectrum is negative (min {y.min():.3e})")
    return problems


def band_found(result, bands, band: str) -> bool:
    sp = result.spectrum
    found = band_assignment(sp.omega_cm1, sp.intensity, bands,
                            frequency_scale=RHF_STO3G_FREQUENCY_SCALE)
    return found[band]["found_cm1"] is not None


class WaterDimerExact(Workload):
    name = "water_dimer_exact"
    expected_seams = frozenset({
        "pipeline.run", "fragment.decompose", "pipeline.geometry_signature",
        "pipeline.kabsch_rotation", "pipeline.rotate_response",
        "pipeline.store_load", "pipeline.store_write",
        "pipeline.executor_run", "dfpt.fragment_response",
        "dfpt.coordinate_job", "dfpt.gradient", "dfpt.cphf", "scf.rhf",
        "integrals.eri", "integrals.eri_deriv", "integrals.overlap_deriv",
        "integrals.kinetic_deriv", "integrals.nuclear_deriv",
        "fragment.assemble_response", "spectra.raman_spectrum_dense",
    })

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.waters = relaxed_water_box(2, seed=seed)

    def prepare(self, i: int) -> dict:
        return {"store": self.scratch_dir()}

    def run(self, store: Path):
        pipe = QFRamanPipeline(waters=self.waters, executor="serial",
                               canonical_cache=str(store))
        return pipe.run(omega_cm1=OMEGA_CM1, sigma_cm1=SIGMA_CM1,
                        solver="dense")

    def check(self, result, i: int) -> list[str]:
        problems = super().check(result, i)
        if result.unique_pieces != 2:
            problems.append(f"{result.unique_pieces} QM pieces, expected 2")
        if not band_found(result, WATER_BANDS, "oh_stretch"):
            problems.append("oh_stretch band not found")
        return problems


class GlycineDF(Workload):
    name = "glycine_df"
    expected_seams = frozenset({
        "pipeline.run", "fragment.decompose", "pipeline.geometry_signature",
        "pipeline.executor_run", "dfpt.fragment_response",
        "dfpt.coordinate_job", "dfpt.gradient", "dfpt.cphf", "scf.rhf",
        "scf.df_build", "integrals.three_center_deriv",
        "integrals.two_center_deriv", "integrals.overlap_deriv",
        "integrals.kinetic_deriv", "integrals.nuclear_deriv",
        "fragment.assemble_response", "spectra.raman_spectrum_dense",
    })

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        psi = 135.0 + rng.uniform(-15.0, 15.0)
        geom, self.residues = build_polypeptide(["GLY"], psi=psi)
        center = geom.coords.mean(axis=0)
        coords = (geom.coords - center) @ random_rotation(rng).T + center
        self.protein = Geometry(list(geom.symbols), coords,
                                labels=list(geom.labels))

    def run(self):
        pipe = QFRamanPipeline(protein=self.protein, residues=self.residues,
                               eri_mode="df", executor="serial")
        return pipe.run(omega_cm1=OMEGA_CM1, sigma_cm1=SIGMA_CM1,
                        solver="dense")

    def check(self, result, i: int) -> list[str]:
        problems = super().check(result, i)
        if not band_found(result, PROTEIN_BANDS, GLYCINE_BAND):
            problems.append(f"{GLYCINE_BAND} band not found")
        return problems


class WaterTrajWarm(Workload):
    name = "water_traj_warm"
    expected_seams = frozenset({
        "pipeline.run", "fragment.decompose", "pipeline.geometry_signature",
        "pipeline.kabsch_rotation", "pipeline.rotate_response",
        "pipeline.store_load", "fragment.assemble_response",
        "fragment.assemble_sparse_hessian", "spectra.raman_spectrum_lanczos",
    })

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.store = self.scratch_dir()
        warm = QFRamanPipeline(waters=[relaxed_water()], executor="serial",
                               canonical_cache=str(self.store))
        spectrum = warm.run(omega_cm1=OMEGA_CM1, sigma_cm1=SIGMA_CM1,
                            solver="dense").spectrum
        self.single_water = normalized(spectrum.intensity)

    def prepare(self, i: int) -> dict:
        self._scf_runs = counters().get("scf.runs")
        return {"waters": relaxed_water_box(TRAJ_WATERS, density=TRAJ_DENSITY,
                                           seed=1000 * self.seed + i)}

    def run(self, waters):
        pipe = QFRamanPipeline(waters=waters, executor="serial",
                               canonical_cache=str(self.store))
        return pipe.run(omega_cm1=OMEGA_CM1, sigma_cm1=SIGMA_CM1,
                        solver="lanczos", lanczos_k=LANCZOS_K)

    def reference_spectrum(self, result) -> np.ndarray:
        return self.single_water

    def check(self, result, i: int) -> list[str]:
        problems = super().check(result, i)
        scf_runs = counters().get("scf.runs") - self._scf_runs
        if scf_runs:
            problems.append(f"{scf_runs} SCF runs in a warm frame")
        if result.unique_pieces:
            problems.append(f"{result.unique_pieces} pieces missed the store")
        if not band_found(result, WATER_BANDS, "oh_stretch"):
            problems.append("oh_stretch band not found")
        err = float(np.abs(normalized(result.spectrum.intensity)
                           - self.single_water).max())
        if not err <= FRAME_ATOL:
            problems.append(f"frame spectrum differs from the single water "
                            f"by {err:.2e}")
        return problems


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (WaterDimerExact, GlycineDF, WaterTrajWarm)
}
