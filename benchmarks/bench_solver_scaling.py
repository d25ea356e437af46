"""§V-E / Fig. 2 context — the Lanczos+GAGQ solver versus dense
diagonalization.

The paper's point: full diagonalization of the 3N x 3N mass-weighted
Hessian is infeasible beyond ~10^5 DoF, while the matrix-functional
route costs k sparse matvecs per spectrum component. We demonstrate on
block-sparse Hessians of growing size (the exact structure Eq. (1)
assembly produces) that (a) the Lanczos spectrum matches dense where
dense is possible, and (b) the solver reaches sizes where dense is
out of reach, with near-linear time in nnz.
"""

import time

import numpy as np
import scipy.sparse

from repro.constants import HESSIAN_TO_CM1
from repro.spectra.gagq import quadrature_nodes_weights
from repro.spectra.lanczos import lanczos
from repro.spectra.raman import gaussian_lineshape

from conftest import save_result


def _block_sparse_hessian(n_blocks: int, block_atoms: int = 6, seed: int = 0):
    """Assembled-style Hessian: positive semidefinite blocks on the
    diagonal with weak random couplings between neighbors."""
    rng = np.random.default_rng(seed)
    size = 3 * block_atoms
    blocks = []
    for _ in range(n_blocks):
        a = rng.normal(size=(size, size))
        # the small diagonal shift keeps the weak inter-block couplings
        # from driving eigenvalues negative: a physical Hessian at a
        # minimum is PSD, and the sqrt(lambda) frequency map is only
        # smooth (quadrature-friendly) away from lambda = 0
        blocks.append(a @ a.T * 0.01 + 0.004 * np.eye(size))
    h = scipy.sparse.block_diag(blocks, format="lil")
    n = h.shape[0]
    for b in range(n_blocks - 1):
        i0 = b * size
        c = rng.normal(size=(size, size)) * 0.0005
        h[i0: i0 + size, i0 + size: i0 + 2 * size] = c
        h[i0 + size: i0 + 2 * size, i0: i0 + size] = c.T
    return h.tocsr()


def test_solver_matches_dense_small(benchmark):
    h = _block_sparse_hessian(40)  # 720 DoF
    rng = np.random.default_rng(1)
    d = rng.normal(size=h.shape[0])
    # window covering the full vibrational span of this Hessian; the
    # quadrature concentrates nodes where the d-weighted spectral mass
    # lives, so a window excluding most of it would see only the tails
    omega = np.linspace(0, 3500, 400)

    def f_of(theta):
        freq = np.sqrt(np.clip(theta, 0, None)) * HESSIAN_TO_CM1
        return gaussian_lineshape(omega[None, :], freq[:, None], 25.0)

    def run():
        out = {}
        for k in (40, 80, 160):
            res = lanczos(h, d, k=k)
            theta, w = quadrature_nodes_weights(res)
            out[k] = np.tensordot(w, f_of(theta), axes=(0, 0))
        return out

    specs = benchmark.pedantic(run, rounds=1, iterations=1)
    hd = h.toarray()
    evals, vecs = np.linalg.eigh(hd)
    proj = (vecs.T @ d) ** 2
    exact = np.tensordot(proj, f_of(evals), axes=(0, 0))
    errs = {
        k: float(np.abs(s - exact).max() / exact.max())
        for k, s in specs.items()
    }
    print("\nsolver vs dense (720 DoF), rel err by Lanczos order:")
    for k, e in errs.items():
        print(f"  k={k:>4}: {e:.2e}")
    # error decreases with k and reaches broadening-level agreement
    assert errs[160] < errs[40]
    assert errs[160] < 0.05
    save_result("solver_accuracy", {"rel_err_by_k": errs})


def test_solver_scaling_beyond_dense(benchmark):
    """Time the solver at sizes where dense O(N^3) diagonalization
    would take hours; verify near-linear scaling in nnz."""
    sizes = [2_000, 8_000, 32_000]  # blocks -> 36k..576k DoF
    times = {}

    def run():
        for n_blocks in sizes:
            h = _block_sparse_hessian(n_blocks, seed=2)
            rng = np.random.default_rng(3)
            d = rng.normal(size=h.shape[0])
            t0 = time.perf_counter()
            res = lanczos(h, d, k=60)
            quadrature_nodes_weights(res)
            times[h.shape[0]] = time.perf_counter() - t0
        return times

    times = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nLanczos+GAGQ solver scaling (k=60):")
    dofs = sorted(times)
    for n in dofs:
        print(f"  {n:>8,} DoF: {times[n]:.2f}s")
    est_dense = (dofs[-1] / 1000) ** 3 * 1.0  # ~1s per 1000^3 eigh
    print(f"  (dense eigh at {dofs[-1]:,} DoF would need ~{est_dense/3600:.0f}h)")
    save_result("solver_scaling", {str(k): v for k, v in times.items()})
    # near-linear: 16x the DoF costs < 60x the time (the three-term
    # recurrence is O(k n) with no stored basis; the k-sized
    # tridiagonal eigensolve does not grow with n)
    assert times[dofs[-1]] / max(times[dofs[0]], 1e-9) < 60.0
