"""Density fitting (resolution of the identity) for Coulomb/exchange.

Exact four-index ERIs scale as nbf^4 in time and memory; fragment SCF
in the QF pipeline instead expands orbital products in an atom-centered
auxiliary basis:

    (ab|cd) ~= sum_PQ (ab|P) [V^-1]_PQ (Q|cd),   V_PQ = (P|Q)

The auxiliary set is generated automatically from the orbital basis
("AutoAux"-style even-tempered series spanning the Gaussian-product
exponent range, with angular momenta up to 2*l_max of the element).
This keeps the per-displacement integral cost cubic, which is what
makes the 6N-displacement DFPT loop affordable — the same motivation
as the paper's per-fragment kernel optimizations (§V-D).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from repro.basis.gaussian import BasisSet, make_shell
from repro.geometry.atoms import Geometry
from repro.integrals.engine import (
    BaseIntegrals,
    IntegralEngine,
    single_shell_blocks,
)


def _even_tempered(lo: float, hi: float, beta: float) -> list[float]:
    """Geometric exponent series covering [lo, hi] with ratio beta."""
    if lo > hi:
        lo, hi = hi, lo
    n = max(1, int(math.ceil(math.log(hi / lo) / math.log(beta))) + 1)
    if n == 1:
        return [math.sqrt(lo * hi)]
    ratio = (hi / lo) ** (1.0 / (n - 1))
    return [lo * ratio ** k for k in range(n)]


#: per-l scaling of the fitted exponent window: high-l products are
#: dominated by valence-valence overlaps, so the window shrinks.
#: (beta=4.0 with these windows gives ~1-2 mHa absolute DF error on the
#: molecules in the test suite at naux ~ 4x nbf; frequencies, which are
#: curvature differences on a consistent surface, agree with exact-ERI
#: results to a few cm^-1 — validated in tests/dfpt/test_hessian.py.)
_L_WINDOW = {0: (1.0, 1.0), 1: (1.0, 0.15), 2: (1.0, 0.04), 3: (1.0, 0.02)}

#: per-l even-tempered ratio: d-fits tolerate a sparser series, which
#: matters because each d shell costs six functions.
_L_BETA = {0: 1.0, 1: 1.0, 2: 2.2, 3: 2.2}


def auto_aux_basis(
    geometry: Geometry,
    orbital_basis: BasisSet,
    beta: float = 4.0,
) -> BasisSet:
    """Generate an even-tempered auxiliary basis for ``geometry``.

    For each atom, the candidate exponent window is the range of
    Gaussian-product exponents (sums of orbital primitive exponent
    pairs on that atom); one even-tempered series is laid per auxiliary
    angular momentum 0..2*lmax.
    """
    # collect orbital exponents per atom
    by_atom: dict[int, tuple[list[float], int]] = {}
    for sh in orbital_basis.shells:
        exps, lmax = by_atom.get(sh.atom_index, ([], 0))
        exps = exps + list(sh.exps)
        by_atom[sh.atom_index] = (exps, max(lmax, sh.l))
    aux_shells = []
    for atom_index in sorted(by_atom):
        exps, lmax = by_atom[atom_index]
        emin, emax = 2.0 * min(exps), 2.0 * max(exps)
        center = geometry.coords[atom_index]
        for l_aux in range(0, 2 * lmax + 1):
            f_lo, f_hi = _L_WINDOW.get(l_aux, (1.0, 0.02))
            lo = emin * f_lo
            hi = max(lo * 1.001, emax * f_hi)
            beta_l = beta * _L_BETA.get(l_aux, 2.0)
            for alpha in _even_tempered(lo, hi, beta_l):
                aux_shells.append(
                    make_shell(l_aux, center, [alpha], [1.0], atom_index)
                )
    return BasisSet(aux_shells)


class DensityFitting:
    """DF tensors for one geometry/basis pair.

    Attributes
    ----------
    j3c:
        Three-center integrals (ab|P), shape (nbf, nbf, naux).
    v2c:
        Two-center Coulomb metric (P|Q), shape (naux, naux).
    b:
        Cholesky-whitened three-center tensor: (ab|cd) ~= b_ab . b_cd.
    chol:
        Lower Cholesky factor L of the metric, V = L L^T, with b = j3c
        L^-T. If V needed a diagonal jitter to factor, L factors the
        jittered metric, and the SCF energy is minimized with it.

    With ``base`` (the :class:`~repro.integrals.engine.BaseIntegrals` of
    a geometry that differs in the atoms ``base.moved``), ``j3c`` and
    ``v2c`` are rebuilt only where they touch a moved atom; the
    Cholesky whitening always runs in full.
    """

    def __init__(self, engine: IntegralEngine, aux: BasisSet,
                 base: BaseIntegrals | None = None):
        self.engine = engine
        self.aux = aux
        self.naux = aux.nbf
        self.aux_blocks = single_shell_blocks(aux.shells, aux.offsets)
        self.j3c = engine.three_center(self.aux_blocks, self.naux, base)
        self.v2c = engine.two_center(self.aux_blocks, self.naux, base)
        # whiten: V = L L^T, b = j3c L^{-T}
        jitter = 0.0
        for _ in range(6):
            try:
                chol = scipy.linalg.cholesky(
                    self.v2c + jitter * np.eye(self.naux), lower=True
                )
                break
            except scipy.linalg.LinAlgError:
                jitter = max(jitter * 10.0, 1e-10)
        else:  # pragma: no cover - pathological aux basis
            raise RuntimeError("DF metric not positive definite")
        self.chol = chol
        nbf = engine.nbf
        flat = self.j3c.reshape(nbf * nbf, self.naux)
        self.b = scipy.linalg.solve_triangular(
            chol, flat.T, lower=True
        ).T.reshape(nbf, nbf, self.naux)
        #: b in the (a P, b) layout, built once: the GEMM operand of
        #: both exchange builds
        self.b_apb = np.ascontiguousarray(
            self.b.transpose(0, 2, 1)).reshape(nbf * self.naux, nbf)

    # -- Fock builds ----------------------------------------------------------

    def coulomb(self, density: np.ndarray) -> np.ndarray:
        """Coulomb matrix J_ab = sum_cd P_cd (ab|cd)_DF."""
        nbf = density.shape[0]
        gamma = self.b.reshape(nbf * nbf, self.naux).T @ density.ravel()
        return (self.b.reshape(nbf * nbf, self.naux) @ gamma).reshape(nbf, nbf)

    def exchange(self, c_occ: np.ndarray) -> np.ndarray:
        """Exchange matrix K_ab = sum_cd P_cd (ac|bd)_DF for the density
        P = 2 C_occ C_occ^T (the factor 2 is included here).

        BLAS-backed: t_{a,iP} = sum_b b_{abP} C_bi, K = 2 t t^T.
        """
        nbf = self.b.shape[0]
        nocc = c_occ.shape[1]
        # (a, P, b) @ (b, i) -> (a, P, i)
        t = (self.b_apb @ c_occ).reshape(nbf, self.naux * nocc)
        return 2.0 * t @ t.T

    def exchange_density(self, density: np.ndarray) -> np.ndarray:
        """Exchange from a (possibly non-idempotent) density matrix.

        Its one caller is the first iteration of an SCF seeded with a
        guess density, before any occupied orbitals exist. O(nbf^3 naux)
        — use :meth:`exchange` when occupied orbitals are available.
        """
        nbf = self.b.shape[0]
        # t_{aP,d} = sum_c b_{acP} P_cd, then K_ab = sum_{Pd} t_{aPd} b_{bdP}
        t = (self.b_apb @ density).reshape(nbf, self.naux * nbf)
        return t @ self.b_apb.reshape(nbf, self.naux * nbf).T

    def eri_approx(self) -> np.ndarray:
        """Materialize the DF-approximated (ab|cd) tensor (tests only)."""
        return np.einsum("abP,cdP->abcd", self.b, self.b)
