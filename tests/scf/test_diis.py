import numpy as np
import pytest

from repro.scf.diis import DIIS


def test_diis_needs_two_vectors():
    with pytest.raises(ValueError):
        DIIS(max_vectors=1)


def test_push_returns_error_norm():
    d = DIIS()
    f = np.array([[1.0, 0.2], [0.2, -1.0]])
    p = np.eye(2)
    s = np.eye(2)
    err = d.push(f, p, s)
    # FPS - SPF = F - F = 0 for commuting case
    assert err == pytest.approx(0.0)


def test_extrapolate_single_returns_input():
    d = DIIS()
    f = np.array([[2.0, 0.0], [0.0, 3.0]])
    d.push(f, np.eye(2), np.eye(2))
    assert np.allclose(d.extrapolate(), f)


def test_extrapolate_empty_raises():
    with pytest.raises(RuntimeError):
        DIIS().extrapolate()


def test_history_bounded():
    d = DIIS(max_vectors=3)
    rng = np.random.default_rng(0)
    for _ in range(10):
        f = rng.normal(size=(4, 4))
        f = f + f.T
        p = rng.normal(size=(4, 4))
        p = p + p.T
        d.push(f, p, np.eye(4))
    assert d.nvec == 3


def test_extrapolation_coefficients_sum_to_one():
    """DIIS output must be an affine combination: feeding Focks with a
    common constant part preserves that part exactly."""
    d = DIIS()
    rng = np.random.default_rng(1)
    const = np.full((3, 3), 7.0)
    for _ in range(4):
        f = rng.normal(size=(3, 3))
        f = f + f.T + const
        p = rng.normal(size=(3, 3))
        p = p + p.T
        d.push(f, p, np.eye(3))
    out = d.extrapolate()
    # subtracting the mean-free parts cannot remove the constant
    assert out.mean() == pytest.approx(7.0, rel=0.5)


def test_reset():
    d = DIIS()
    d.push(np.eye(2), np.eye(2), np.eye(2))
    d.reset()
    assert d.nvec == 0


def test_converged_to_roundoff_returns_latest_fock():
    """Once the newest error is round-off, extrapolating would amplify
    it through an ill-conditioned subspace: the newest Fock comes back
    unchanged."""
    rng = np.random.default_rng(2)
    s = np.eye(3)
    p = np.diag([2.0, 0.0, 0.0])
    d = DIIS()
    d.push(rng.normal(size=(3, 3)), p, s)   # far from convergence
    fock = np.diag([-0.5, 0.3, 0.7])         # commutes with p: error 0
    for _ in range(2):
        noisy = fock + 1e-16 * rng.normal(size=(3, 3))
        d.push(noisy, p, s)
    np.testing.assert_array_equal(d.extrapolate(), noisy)
