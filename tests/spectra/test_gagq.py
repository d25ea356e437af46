import numpy as np
import pytest

from repro.devtools.contracts import ContractViolation, sanitize
from repro.spectra.gagq import (
    gagq_matrix,
    gauss_quadrature_functional,
    quadrature_nodes_weights,
)
from repro.spectra.lanczos import LanczosResult, lanczos


def _random_sym(n, seed=0, lo=0.5, hi=4.0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    evals = rng.uniform(lo, hi, size=n)
    return q @ np.diag(evals) @ q.T


def test_gagq_matrix_shape():
    h = _random_sym(30, 1)
    res = lanczos(h, np.ones(30), k=8)
    diag, off = gagq_matrix(res)
    assert diag.shape == (15,)  # 2k - 1
    assert off.shape == (14,)


def test_gagq_matrix_k1():
    res = lanczos(np.eye(4) * 2.0, np.ones(4), k=1)
    diag, off = gagq_matrix(res)
    assert diag.shape == (1,) and off.shape == (0,)
    assert diag[0] == pytest.approx(2.0)


def test_gagq_structure():
    """Spalević block structure: diag = [a_1..a_k, a_{k-1}..a_1],
    offdiag = [b_1..b_{k-1}, b_k, b_{k-2}..b_1]."""
    h = _random_sym(40, 2)
    res = lanczos(h, np.arange(1.0, 41.0), k=5)
    d, e = gagq_matrix(res)
    a, b = res.alpha, res.beta
    assert np.allclose(d, np.concatenate([a[:4], [a[4]], a[:4][::-1]]))
    assert np.allclose(
        e, np.concatenate([b[:3], [b[3]], [b[4]], b[:3][::-1]])
    )


def test_quadrature_weights_sum_to_norm():
    h = _random_sym(25, 3)
    d = np.ones(25) * 2.0
    res = lanczos(h, d, k=6)
    for averaged in (False, True):
        _theta, w = quadrature_nodes_weights(res, averaged=averaged)
        assert w.sum() == pytest.approx(d @ d, rel=1e-10)


def test_gagq_more_accurate_than_gauss():
    """The paper's claim (§V-E): GAGQ beats plain Gauss at equal k.
    Test on a smooth matrix functional d^T exp(-H) d."""
    h = _random_sym(200, 4, lo=0.0, hi=6.0)
    rng = np.random.default_rng(9)
    d = rng.normal(size=200)
    exact = d @ (np.linalg.matrix_power if False else _expm)(h) @ d
    errs = {}
    for averaged in (False, True):
        val = gauss_quadrature_functional(
            h, d, lambda t: np.exp(-t), k=6, averaged=averaged
        )
        errs[averaged] = abs(val - exact)
    assert errs[True] < errs[False]


def _expm(h):
    evals, vecs = np.linalg.eigh(h)
    return vecs @ np.diag(np.exp(-evals)) @ vecs.T


def test_functional_converges_with_k():
    h = _random_sym(150, 5, lo=0.0, hi=3.0)
    rng = np.random.default_rng(10)
    d = rng.normal(size=150)
    exact = d @ _expm(h) @ d
    prev = None
    for k in (4, 8, 16):
        val = gauss_quadrature_functional(h, d, lambda t: np.exp(-t), k=k)
        err = abs(val - exact)
        if prev is not None:
            # monotone-ish convergence down to the ~1e-13 round-off
            # floor, where successive errors are noise
            assert err <= max(prev * 1.5, 1e-11)
        prev = err
    assert prev < 1e-8


def test_functional_vector_valued():
    """f returning an array per node → spectrum-shaped output."""
    h = _random_sym(50, 6)
    d = np.ones(50)
    omega = np.linspace(0, 5, 11)

    def f(theta):
        return np.exp(-((omega[None, :] - theta[:, None]) ** 2))

    out = gauss_quadrature_functional(h, d, f, k=10)
    assert out.shape == (11,)
    evals, vecs = np.linalg.eigh(h)
    proj = (vecs.T @ d) ** 2
    exact = np.array([np.sum(proj * np.exp(-((w - evals) ** 2))) for w in omega])
    assert np.allclose(out, exact, atol=1e-6)


def test_sanitizer_checks_the_tridiagonal_pair():
    res = LanczosResult(alpha=np.array([1.0, 2.0, 3.0]),
                        beta=np.array([0.5, np.nan, 0.1]),
                        d_norm=1.0, breakdown=False)
    with sanitize(True):
        with pytest.raises(ContractViolation, match="off"):
            quadrature_nodes_weights(res)
