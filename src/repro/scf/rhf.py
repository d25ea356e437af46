"""Restricted Hartree–Fock.

The per-fragment, per-displacement ground-state solver of the QF-RAMAN
worker (the paper's FHI-aims DFT step; see DESIGN.md substitutions).
Supports exact four-index ERIs (small systems / validation) and
density-fitted Coulomb/exchange (production fragments).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.basis.gaussian import BasisSet, build_basis
from repro.devtools.contracts import check_array, sanitize_enabled
from repro.geometry.atoms import Geometry
from repro.integrals.engine import BaseIntegrals, IntegralEngine
from repro.obs.counters import counters
from repro.obs.tracer import get_tracer
from repro.scf.df import DensityFitting, auto_aux_basis
from repro.scf.diis import DIIS


@dataclass
class SCFResult:
    """Converged SCF state (everything downstream steps need)."""

    energy: float
    energy_nuc: float
    mo_coeff: np.ndarray
    mo_energy: np.ndarray
    density: np.ndarray
    fock: np.ndarray
    overlap: np.ndarray
    hcore: np.ndarray
    nocc: int
    converged: bool
    niter: int
    geometry: Geometry = None
    basis: BasisSet = None
    engine: IntegralEngine = None
    df: DensityFitting | None = None
    eri: np.ndarray | None = None
    extras: dict = field(default_factory=dict)

    @property
    def c_occ(self) -> np.ndarray:
        return self.mo_coeff[:, : self.nocc]

    @property
    def c_virt(self) -> np.ndarray:
        return self.mo_coeff[:, self.nocc:]


def orthogonalizer(s: np.ndarray, threshold: float = 1e-8) -> np.ndarray:
    """Symmetric (Löwdin) orthogonalizer S^{-1/2} with linear-dependence
    screening: eigenvectors below ``threshold`` are projected out."""
    evals, evecs = np.linalg.eigh(s)
    keep = evals > threshold
    return evecs[:, keep] / np.sqrt(evals[keep])


class RHF:
    """Restricted Hartree–Fock driver.

    Parameters
    ----------
    geometry:
        Closed-shell molecular geometry (even electron count).
    basis_name:
        Orbital basis registry name.
    eri_mode:
        ``"exact"``, ``"df"``, or ``"auto"`` (exact below
        ``exact_nbf_limit`` basis functions, DF above).
    """

    def __init__(
        self,
        geometry: Geometry,
        basis_name: str = "sto-3g",
        eri_mode: str = "auto",
        exact_nbf_limit: int = 30,
        conv_tol: float = 1e-9,
        conv_tol_diis: float = 1e-7,
        max_iter: int = 120,
        field_vector: np.ndarray | None = None,
    ):
        if geometry.nelectrons % 2 != 0:
            raise ValueError(
                f"RHF needs an even electron count, got {geometry.nelectrons}"
            )
        if eri_mode not in ("exact", "df", "auto"):
            raise ValueError(f"unknown eri_mode {eri_mode!r}")
        self.geometry = geometry
        self.basis = build_basis(geometry, basis_name)
        self.engine = IntegralEngine(
            self.basis, geometry.numbers.astype(float), geometry.coords)
        if eri_mode == "auto":
            eri_mode = "exact" if self.basis.nbf <= exact_nbf_limit else "df"
        self.eri_mode = eri_mode
        self.conv_tol = conv_tol
        self.conv_tol_diis = conv_tol_diis
        self.max_iter = max_iter
        self.nocc = geometry.nelectrons // 2
        #: uniform external electric field (adds -F.r to the core
        #: Hamiltonian); used by finite-field polarizability validation
        self.field_vector = field_vector

        self._df: DensityFitting | None = None
        self._eri: np.ndarray | None = None

    # -- integral preparation --------------------------------------------------

    def _prepare(self, base: BaseIntegrals | None = None):
        s = self.engine.overlap()
        h = self.engine.kinetic() + self.engine.nuclear()
        if self.field_vector is not None:
            dip = self.engine.dipole()
            # H' = +F·r per electron (E_field = -mu·F with mu = -r)
            h = h + np.einsum("x,xab->ab", np.asarray(self.field_vector), dip)
        if self.eri_mode == "exact":
            self._eri = self.engine.eri(base)
        else:
            aux = auto_aux_basis(self.geometry, self.basis)
            self._df = DensityFitting(self.engine, aux, base)
        return s, h

    def _energy(self, density, h, f, e_nuc) -> float:
        """Total energy functional; RKS overrides (XC is not linear in P)."""
        return 0.5 * float(np.sum(density * (h + f))) + e_nuc

    def _fock(self, h, density, c_occ=None):
        """Fock matrix for a density; uses the occupied-orbital exchange
        build when ``c_occ`` is available (cheaper for DF)."""
        if self.eri_mode == "exact":
            j = np.einsum("abcd,cd->ab", self._eri, density)
            k = np.einsum("acbd,cd->ab", self._eri, density)
        else:
            j = self._df.coulomb(density)
            if c_occ is not None:
                k = self._df.exchange(c_occ)
            else:
                k = self._df.exchange_density(density)
        return h + j - 0.5 * k

    # -- driver ------------------------------------------------------------------

    def run(self, guess_density: np.ndarray | None = None,
            base: BaseIntegrals | None = None) -> SCFResult:
        """Run the SCF to convergence; returns an :class:`SCFResult`.

        ``guess_density`` (e.g. the converged density of an undisplaced
        geometry) substantially cuts iteration counts in the DFPT
        displacement loop. ``base`` holds the two-electron tensors of a
        geometry that differs only in the atoms ``base.moved``: the
        integral build then recomputes only the elements that touch
        them (:class:`~repro.integrals.engine.BaseIntegrals`). The
        one-electron integrals and the iterations run in full.
        """
        with get_tracer().span(
            "scf", natoms=self.geometry.natoms, nbf=self.basis.nbf,
            mode=self.eri_mode, seeded=guess_density is not None,
        ) as sp:
            result = self._solve(guess_density, base)
            sp.set(niter=result.niter, converged=result.converged)
        counters().inc("scf.runs")
        counters().inc("scf.iterations", result.niter)
        if not result.converged:
            counters().inc("scf.unconverged")
        return result

    def _solve(self, guess_density: np.ndarray | None = None,
               base: BaseIntegrals | None = None) -> SCFResult:
        s, h = self._prepare(base)
        x = orthogonalizer(s)
        e_nuc = self.geometry.nuclear_repulsion()

        def diag(f):
            fp = x.T @ f @ x
            evals, evecs = np.linalg.eigh(fp)
            c = x @ evecs
            return evals, c

        if guess_density is None:
            # generalized Wolfsberg-Helmholz guess: much closer to the
            # converged density than bare core-H for molecules
            hd = np.diag(h)
            gwh = 0.875 * s * (hd[:, None] + hd[None, :])
            np.fill_diagonal(gwh, hd)
            mo_e, c = diag(gwh)
            density = 2.0 * c[:, : self.nocc] @ c[:, : self.nocc].T
            c_occ = c[:, : self.nocc]
        else:
            density = np.asarray(guess_density, dtype=float)
            c = None
            c_occ = None  # first Fock falls back to density-based exchange

        diis = DIIS()
        energy = 0.0
        converged = False
        it = 0
        for it in range(1, self.max_iter + 1):
            f = self._fock(h, density, c_occ)
            e_new = self._energy(density, h, f, e_nuc)
            err = diis.push(f, density, s)
            f_use = diis.extrapolate() if diis.nvec >= 2 else f
            mo_e, c = diag(f_use)
            c_occ = c[:, : self.nocc]
            density_new = 2.0 * c_occ @ c_occ.T
            de = abs(e_new - energy)
            energy = e_new
            density = density_new
            if de < self.conv_tol and err < self.conv_tol_diis and it > 1:
                converged = True
                break

        c_occ = c[:, : self.nocc]
        f = self._fock(h, density, c_occ)
        energy = self._energy(density, h, f, e_nuc)
        return self._pack_result(
            energy, e_nuc, c, mo_e, density, f, s, h, converged, it
        )

    def _pack_result(self, energy, e_nuc, c, mo_e, density, f, s, h,
                     converged, it) -> SCFResult:
        if sanitize_enabled():
            # the invariants every downstream consumer (gradient, CPHF,
            # DFPT displacement loop) silently assumes of an SCF state
            nbf = s.shape[0]
            ctx = (f"scf natoms={self.geometry.natoms} nbf={nbf} "
                   f"mode={self.eri_mode}")
            check_array("overlap", s, symmetric=True, shape=(nbf, nbf),
                        context=ctx)
            check_array("fock", f, symmetric=True, shape=(nbf, nbf),
                        context=ctx)
            check_array("density", density, symmetric=True,
                        shape=(nbf, nbf), context=ctx)
            check_array("mo_energy", mo_e, context=ctx)
        return SCFResult(
            energy=energy,
            energy_nuc=e_nuc,
            mo_coeff=c,
            mo_energy=mo_e,
            density=density,
            fock=f,
            overlap=s,
            hcore=h,
            nocc=self.nocc,
            converged=converged,
            niter=it,
            geometry=self.geometry,
            basis=self.basis,
            engine=self.engine,
            df=self._df,
            eri=self._eri,
        )

