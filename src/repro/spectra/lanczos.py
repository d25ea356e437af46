"""Lanczos tridiagonalization with full reorthogonalization.

The k-step Lanczos recurrence produces H Q_k = Q_k T_k + beta_k q_{k+1}
e_k^T with orthonormal q's and a k x k symmetric tridiagonal T_k. The
Raman solver (paper Eq. 5-7) only needs T_k (and beta_k for the GAGQ
augmentation), never the basis Q — but we keep Q optionally for tests.

Full reorthogonalization costs O(k^2 n) and removes the ghost-eigenvalue
pathology; k is tiny (hundreds) next to n (up to 3*10^8 in the paper),
so this is the numerically safe default.
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
    q: np.ndarray | None     # (n, k) Lanczos basis when kept
    d_norm: float            # |d| of the start vector
    breakdown: bool          # True if the Krylov space was exhausted early

    @property
    def k(self) -> int:
        return self.alpha.size

    def tridiagonal(self) -> np.ndarray:
        """Dense T_k."""
        t = np.diag(self.alpha)
        off = self.beta[:-1]
        t += np.diag(off, 1) + np.diag(off, -1)
        return t


def _as_matvec(h) -> Callable[[np.ndarray], np.ndarray]:
    if callable(h):
        return h
    if scipy.sparse.issparse(h):
        return lambda v: h @ v
    h = np.asarray(h)
    return lambda v: h @ v


def lanczos(
    h,
    start: np.ndarray,
    k: int,
    keep_basis: bool = False,
    reorthogonalize: bool = True,
) -> LanczosResult:
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
    # row j is q_j; filled in place, never rebuilt
    basis = np.empty((k + 1, n))
    basis[0] = q
    q_prev = np.zeros_like(q)
    beta_prev = 0.0
    breakdown = False
    with get_tracer().span("lanczos", n=n, k=k) as sp:
        for j in range(k):
            w = matvec(q)
            a = float(q @ w)
            alphas.append(a)
            w = w - a * q - beta_prev * q_prev
            if reorthogonalize:
                # two passes of classical Gram-Schmidt ("twice is enough")
                qs = basis[: j + 1]
                for _pass in range(2):
                    w = w - qs.T @ (qs @ w)
            b = float(np.linalg.norm(w))
            betas.append(b)
            if b < 1e-12 * max(1.0, abs(a)):
                breakdown = True
                break
            q_prev, q = q, w / b
            beta_prev = b
            basis[j + 1] = q
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
        q=basis[: len(alphas)].T if keep_basis else None,
        d_norm=d_norm,
        breakdown=breakdown,
    )
