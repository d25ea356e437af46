"""Generalized averaged Gauss quadrature (GAGQ) for matrix functionals.

Implements paper §V-E / Eq. (5)-(8): a k-step Lanczos run with start
vector q1 = d/|d| gives the Gauss rule  d^T f(H) d ~ |d|^2 (f(T_k))_11.
Spalević's generalized averaged rule upgrades this to a (2k-1)-point
quadrature at negligible extra cost by augmenting T with its own
reversal:

    T_hat = [[ T_{k-1},        b_{k-1} e,   0          ],
             [ b_{k-1} e^T,    a_k,         b_k e_1^T  ],
             [ 0,              b_k e_1,     T_{k-1}^R  ]]

where T_{k-1}^R is T_{k-1} with rows/columns reversed and b_k is the
k-th Lanczos residual norm. (Reichel, Spalević & Tang, BIT 56 (2016) —
the paper's reference [36].)

The functional is then |d|^2 (f(T_hat))_{1,1}, evaluated from the
eigen-decomposition of the small tridiagonal matrix:  (f(T))_{11} =
sum_j f(theta_j) s_j^2  with s_j the first components of the
eigenvectors, from ``scipy.linalg.eigh_tridiagonal`` on the (diagonal,
off-diagonal) pair (0.7 s at k = 2400 on one core, against 24 s for a
dense eigh of T_hat).
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.linalg

from repro.devtools.contracts import check_array
from repro.spectra.lanczos import LanczosResult, lanczos


def gagq_matrix(result: LanczosResult) -> tuple[np.ndarray, np.ndarray]:
    """The (2k-1)-point augmented tridiagonal T_hat as its (diagonal,
    off-diagonal) pair."""
    k = result.k
    a = result.alpha
    b = result.beta  # (k,): b[k-1] is the residual norm b_k
    if k == 1:
        return a, b[:0]
    return (np.concatenate([a, a[: k - 1][::-1]]),
            np.concatenate([b, b[: k - 2][::-1]]))


def quadrature_nodes_weights(
    result: LanczosResult, averaged: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes (Ritz values) and weights for d^T f(H) d.

    With ``averaged`` (default) uses the GAGQ matrix; otherwise plain
    Gauss (T_k). The functional is sum_j w_j f(theta_j).
    """
    diag, off = gagq_matrix(result) if (averaged and not result.breakdown) \
        else result.tridiagonal()
    # check_array is a no-op unless QF_SANITIZE is on
    ctx = f"gagq k={result.k} averaged={averaged}"
    check_array("diag", diag, context=ctx)
    check_array("off", off, context=ctx)
    theta, s = scipy.linalg.eigh_tridiagonal(diag, off)
    weights = s[0, :] ** 2 * result.d_norm ** 2
    check_array("theta", theta, context=ctx)
    check_array("weights", weights, context=ctx)
    return theta, weights


def gauss_quadrature_functional(
    h,
    d: np.ndarray,
    f: Callable[[np.ndarray], np.ndarray],
    k: int = 100,
    averaged: bool = True,
) -> float | np.ndarray:
    """Evaluate d^T f(H) d by Lanczos + (generalized averaged) Gauss.

    ``f`` is applied elementwise to the quadrature nodes and may return
    an array per node (e.g. a whole broadened spectrum over an omega
    grid): the result then has that trailing shape.
    """
    res = lanczos(h, d, k)
    theta, weights = quadrature_nodes_weights(res, averaged=averaged)
    fv = np.asarray(f(theta))
    if fv.ndim == 1:
        return float(weights @ fv)
    return np.tensordot(weights, fv, axes=(0, 0))
