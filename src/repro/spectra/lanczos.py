"""Lanczos tridiagonalization by the plain three-term recurrence.

The k-step recurrence H Q_k = Q_k T_k + beta_k q_{k+1} e_k^T gives the
symmetric tridiagonal T_k the Raman solver (paper Eq. 5-7) needs. Only
the last two vectors are kept: O(n) memory and O(k n) time per
functional (a stored basis would be 360 GB at 3N = 3*10^8, k = 150).
Lost orthogonality duplicates converged Ritz values but leaves the
quadrature accurate; only at k >= n, where Gauss should be exact,
:func:`repro.spectra.raman.raman_spectrum_lanczos` takes the exact rule
instead. Full reorthogonalization is the test oracle
(``tests/spectra/oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse

from repro.devtools.contracts import check_array, sanitize_enabled
from repro.obs.counters import counters
from repro.obs.tracer import get_tracer


@dataclass
class LanczosResult:
    alpha: np.ndarray        # (k,) diagonal of T_k
    beta: np.ndarray         # (k,) off-diagonals; beta[k-1] is the residual norm
    d_norm: float            # |d| of the start vector
    breakdown: bool          # True if the Krylov space was exhausted early

    @property
    def k(self) -> int:
        return self.alpha.size

    def tridiagonal(self) -> tuple[np.ndarray, np.ndarray]:
        """T_k as its (diagonal, off-diagonal) pair."""
        return self.alpha, self.beta[:-1]

    def head(self, m: int) -> "LanczosResult":
        """The m-step run this run began with (m <= k): the recurrence
        never looks ahead, so its coefficients are the first m."""
        return LanczosResult(self.alpha[:m], self.beta[:m], self.d_norm,
                             self.breakdown and m == self.k)


def _as_matvec(h) -> Callable[[np.ndarray], np.ndarray]:
    if callable(h):
        return h
    if scipy.sparse.issparse(h):
        return lambda v: h @ v
    h = np.asarray(h)
    return lambda v: h @ v


def operator_matrix(h, n: int) -> np.ndarray:
    """The dense n x n operator as ``h`` applied to the identity: n
    counted matvecs, for the small k >= n regime of the exact rule."""
    counters().inc("lanczos.matvecs", n)
    return np.asarray(_as_matvec(h)(np.eye(n)))


def lanczos(h, start: np.ndarray, k: int) -> LanczosResult:
    """k-step Lanczos on a symmetric operator.

    Parameters
    ----------
    h:
        Dense array, scipy sparse matrix, or matvec callable.
    start:
        The d vector (not necessarily normalized).
    k:
        Number of steps; capped at dim(h).

    Returns
    -------
    :class:`LanczosResult`; on Krylov breakdown (invariant subspace
    found, e.g. when d spans few eigenvectors) alpha/beta are truncated
    and ``breakdown`` is set — the quadrature is then exact.
    """
    matvec = _as_matvec(h)
    start = np.asarray(start, dtype=float).ravel()
    n = start.size
    k = min(k, n)
    if k < 1:
        raise ValueError("k must be >= 1")
    d_norm = float(np.linalg.norm(start))
    if d_norm == 0.0:  # qf: exact-zero — degenerate input, not FD noise
        raise ValueError("zero start vector")
    q = start / d_norm

    alphas: list[float] = []
    betas: list[float] = []
    q_prev = np.zeros_like(q)
    beta_prev = 0.0
    breakdown = False
    with get_tracer().span("lanczos", n=n, k=k) as sp:
        for _ in range(k):
            # Paige's ordering: remove the q_{j-1} component before
            # taking alpha_j, the most stable form of the recurrence
            w = matvec(q) - beta_prev * q_prev
            a = float(q @ w)
            alphas.append(a)
            w -= a * q
            b = float(np.linalg.norm(w))
            betas.append(b)
            if b < 1e-12 * max(1.0, abs(a)):
                breakdown = True
                break
            q_prev, q = q, w / b
            beta_prev = b
        sp.set(steps=len(alphas), breakdown=breakdown)
    counters().inc("lanczos.matvecs", len(alphas))

    alpha_arr = np.array(alphas)
    beta_arr = np.array(betas)
    if sanitize_enabled():
        # a NaN in the recurrence coefficients silently corrupts every
        # quadrature node of the spectrum solver downstream
        ctx = f"lanczos n={n} k={len(alphas)}"
        check_array("alpha", alpha_arr, context=ctx)
        check_array("beta", beta_arr, context=ctx)
    return LanczosResult(
        alpha=alpha_arr,
        beta=beta_arr,
        d_norm=d_norm,
        breakdown=breakdown,
    )
