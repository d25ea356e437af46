"""DIIS (direct inversion in the iterative subspace) for SCF.

Pulay's commutator-DIIS: the error vector of a Fock matrix F for
density P with overlap S is e = FPS - SPF (zero at convergence); the
extrapolated Fock matrix minimizes the norm of the linear combination
of stored error vectors under the constraint that coefficients sum to 1.
"""

from __future__ import annotations

import numpy as np

from repro.obs.counters import counters


#: commutator error below which a Fock matrix counts as converged to
#: round-off (which is ~1e-15 for O(1) matrices; the SCF stops at 1e-7)
ROUNDOFF_ERROR = 1.0e-12


class DIIS:
    """Fock-matrix extrapolation with a bounded history."""

    def __init__(self, max_vectors: int = 8):
        if max_vectors < 2:
            raise ValueError("DIIS needs at least 2 vectors")
        self.max_vectors = max_vectors
        self._focks: list[np.ndarray] = []
        self._errors: list[np.ndarray] = []

    @property
    def nvec(self) -> int:
        return len(self._focks)

    def push(self, fock: np.ndarray, density: np.ndarray, overlap: np.ndarray) -> float:
        """Store a Fock matrix; returns the max-abs DIIS error."""
        err = fock @ density @ overlap - overlap @ density @ fock
        self._focks.append(fock.copy())
        self._errors.append(err)
        if len(self._focks) > self.max_vectors:
            self._focks.pop(0)
            self._errors.pop(0)
        return float(np.abs(err).max())

    def extrapolate(self) -> np.ndarray:
        """Return the DIIS-extrapolated Fock matrix.

        The newest Fock matrix is returned as it is when its error is
        below :data:`ROUNDOFF_ERROR`: it is already self-consistent, and
        a subspace of error vectors that are all round-off makes the
        DIIS equations ill-conditioned without being singular, so the
        coefficients would amplify that noise into the orbitals and
        orbital energies (for H2 in a minimal basis, where symmetry
        fixes the density after one step, by ~1e-4 in the energies and
        7% in the FD force constant).
        """
        n = len(self._focks)
        if n == 0:
            raise RuntimeError("no Fock matrices stored")
        if n == 1 or float(np.abs(self._errors[-1]).max()) < ROUNDOFF_ERROR:
            return self._focks[-1]
        b = np.empty((n + 1, n + 1))
        b[-1, :] = -1.0
        b[:, -1] = -1.0
        b[-1, -1] = 0.0
        for i in range(n):
            for j in range(i, n):
                v = float(np.vdot(self._errors[i], self._errors[j]))
                b[i, j] = v
                b[j, i] = v
        rhs = np.zeros(n + 1)
        rhs[-1] = -1.0
        try:
            coeff = np.linalg.solve(b, rhs)[:n]
        except np.linalg.LinAlgError:
            # singular subspace: drop oldest vector and retry
            counters().inc("scf.diis_resets")
            self._focks.pop(0)
            self._errors.pop(0)
            return self.extrapolate()
        out = np.zeros_like(self._focks[0])
        for c, f in zip(coeff, self._focks):
            out += c * f
        return out

    def reset(self) -> None:
        self._focks.clear()
        self._errors.clear()
