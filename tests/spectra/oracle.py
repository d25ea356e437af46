"""Lanczos oracle: the fully reorthogonalized recurrence with a stored basis.

Every step runs two passes of classical Gram-Schmidt ("twice is enough")
against all previous Lanczos vectors, so the basis stays orthonormal to
round-off and T_k = Q_k^T H Q_k holds in floating point. That costs
O(k^2 n) time and a (k+1) x n basis, which is why the production
recurrence (:func:`repro.spectra.lanczos.lanczos`) keeps neither; here
it is the reference the plain recurrence is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class OracleResult:
    alpha: np.ndarray   # (k,) diagonal of T_k
    beta: np.ndarray    # (k,) off-diagonals; beta[k-1] is the residual norm
    q: np.ndarray       # (n, k) orthonormal Lanczos basis
    d_norm: float
    breakdown: bool

    @property
    def k(self) -> int:
        return self.alpha.size

    def tridiagonal(self) -> np.ndarray:
        """Dense T_k."""
        off = self.beta[:-1]
        return np.diag(self.alpha) + np.diag(off, 1) + np.diag(off, -1)


def reorthogonalized_lanczos(h: np.ndarray, start: np.ndarray,
                             k: int) -> OracleResult:
    """k-step Lanczos on a dense symmetric ``h`` with full
    reorthogonalization; k is capped at dim(h)."""
    h = np.asarray(h, dtype=float)
    start = np.asarray(start, dtype=float).ravel()
    n = start.size
    k = min(k, n)
    d_norm = float(np.linalg.norm(start))
    basis = np.empty((k + 1, n))
    basis[0] = start / d_norm
    alphas, betas = [], []
    beta_prev = 0.0
    breakdown = False
    for j in range(k):
        q = basis[j]
        w = h @ q
        a = float(q @ w)
        alphas.append(a)
        w = w - a * q - (beta_prev * basis[j - 1] if j else 0.0)
        qs = basis[: j + 1]
        for _pass in range(2):
            w = w - qs.T @ (qs @ w)
        b = float(np.linalg.norm(w))
        betas.append(b)
        if b < 1e-12 * max(1.0, abs(a)):
            breakdown = True
            break
        basis[j + 1] = w / b
        beta_prev = b
    steps = len(alphas)
    return OracleResult(np.array(alphas), np.array(betas),
                        basis[:steps].T, d_norm, breakdown)


def oracle_nodes_weights(res: OracleResult) -> tuple[np.ndarray, np.ndarray]:
    """Plain Gauss nodes and weights from the dense T_k."""
    theta, s = np.linalg.eigh(res.tridiagonal())
    return theta, s[0, :] ** 2 * res.d_norm ** 2
