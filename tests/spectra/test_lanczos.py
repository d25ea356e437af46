import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from repro.spectra.gagq import quadrature_nodes_weights
from repro.spectra.lanczos import lanczos
from tests.spectra.oracle import oracle_nodes_weights, reorthogonalized_lanczos


def _random_sym(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    return (a + a.T) / 2


def _spread_spd(n, seed, lo=1.0, hi=10.0):
    """SPD operator with n distinct eigenvalues spread over [lo, hi]."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return (q * np.linspace(lo, hi, n)) @ q.T


def _ritz(res):
    return scipy.linalg.eigvalsh_tridiagonal(*res.tridiagonal())


def test_full_lanczos_reproduces_eigenvalues():
    h = _random_sym(12, 1)
    res = lanczos(h, np.ones(12), k=12)
    ritz = np.sort(_ritz(res))
    exact = np.sort(np.linalg.eigvalsh(h))
    assert np.allclose(ritz, exact, atol=1e-8)


def test_basis_orthonormal():
    h = _random_sym(30, 2)
    res = reorthogonalized_lanczos(h, np.arange(1.0, 31.0), k=20)
    q = res.q
    assert np.allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-10)


def test_three_term_recurrence():
    h = _random_sym(25, 3)
    res = reorthogonalized_lanczos(h, np.ones(25), k=15)
    q = res.q
    t = res.tridiagonal()
    # H Q_k = Q_k T_k + beta_k q_{k+1} e_k^T -> residual only in last column
    resid = h @ q - q @ t
    assert np.abs(resid[:, :-1]).max() < 1e-8
    assert np.linalg.norm(resid[:, -1]) == pytest.approx(res.beta[-1], abs=1e-8)


def test_breakdown_on_invariant_subspace():
    h = np.diag([1.0, 2.0, 3.0, 4.0])
    # start vector spanning only two eigenvectors
    d = np.array([1.0, 1.0, 0.0, 0.0])
    res = lanczos(h, d, k=10)
    assert res.breakdown
    assert res.k == 2
    assert np.allclose(np.sort(_ritz(res)), [1.0, 2.0], atol=1e-10)


def test_sparse_and_callable_inputs_agree():
    h = _random_sym(40, 4)
    hs = scipy.sparse.csr_matrix(h)
    d = np.ones(40)
    r1 = lanczos(h, d, k=10)
    r2 = lanczos(hs, d, k=10)
    r3 = lanczos(lambda v: h @ v, d, k=10)
    assert np.allclose(r1.alpha, r2.alpha, atol=1e-12)
    assert np.allclose(r1.alpha, r3.alpha, atol=1e-12)


def test_zero_start_vector_rejected():
    with pytest.raises(ValueError, match="zero start"):
        lanczos(np.eye(3), np.zeros(3), k=2)


def test_k_validated():
    with pytest.raises(ValueError):
        lanczos(np.eye(3), np.ones(3), k=0)


def test_moments_match():
    """Gauss property: sum_j w_j theta_j^m = d^T H^m d for m < 2k."""
    h = _random_sym(20, 5)
    d = np.arange(1.0, 21.0)
    res = lanczos(h, d, k=5)
    theta, w = quadrature_nodes_weights(res, averaged=False)
    for m in range(2 * 5):
        exact = d @ np.linalg.matrix_power(h, m) @ d
        quad = np.sum(w * theta ** m)
        assert quad == pytest.approx(exact, rel=1e-8)


def test_recurrence_matches_oracle_coefficients():
    """Before any Ritz value converges the plain recurrence keeps its
    basis orthogonal to round-off, so its T_k is the oracle's."""
    h = _spread_spd(300, 6)
    d = np.random.default_rng(7).normal(size=300)
    res = lanczos(h, d, k=12)
    ref = reorthogonalized_lanczos(h, d, k=12)
    assert np.allclose(res.alpha, ref.alpha, rtol=1e-10, atol=0.0)
    assert np.allclose(res.beta, ref.beta, rtol=1e-10, atol=0.0)


def test_quadrature_matches_oracle():
    """Gauss nodes and weights on a non-degenerate operator below n."""
    h = _spread_spd(200, 8, lo=0.5, hi=4.0)
    d = np.random.default_rng(9).normal(size=200)
    theta, w = quadrature_nodes_weights(lanczos(h, d, k=30), averaged=False)
    ref_theta, ref_w = oracle_nodes_weights(reorthogonalized_lanczos(h, d, k=30))
    assert np.allclose(theta, ref_theta, rtol=1e-9, atol=0.0)
    assert np.allclose(w, ref_w, rtol=1e-7, atol=1e-12 * (d @ d))


def test_head_is_the_shorter_run():
    """The first m coefficients of a k-step run are the m-step run."""
    h = _spread_spd(80, 10)
    d = np.arange(1.0, 81.0)
    head = lanczos(h, d, k=20).head(10)
    short = lanczos(h, d, k=10)
    assert np.array_equal(head.alpha, short.alpha)
    assert np.array_equal(head.beta, short.beta)
    assert head.d_norm == short.d_norm and not head.breakdown
