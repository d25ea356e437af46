import numpy as np
import pytest
import scipy.sparse

from repro.constants import HESSIAN_TO_CM1
from repro.spectra.raman import (
    gaussian_lineshape,
    mass_weighted_dalpha,
    raman_activities,
    raman_spectrum_dense,
    raman_spectrum_lanczos,
)


def test_gaussian_lineshape_normalized():
    omega = np.linspace(-400, 400, 20001)
    g = gaussian_lineshape(omega, 0.0, 15.0)
    assert np.trapezoid(g, omega) == pytest.approx(1.0, rel=1e-6)


def test_activities_shapes_and_validation():
    with pytest.raises(ValueError):
        raman_activities(np.zeros((3, 2, 2)))
    with pytest.raises(ValueError):
        raman_activities(np.zeros((3, 3, 3)), convention="bogus")


def test_isotropic_mode_activity():
    """A purely isotropic d(alpha)/dQ = I: gamma' = 0, a' = 1."""
    d = np.eye(3)[None, :, :]
    std = raman_activities(d, "standard")
    assert std[0] == pytest.approx(45.0)  # 45 a'^2 with a' = 1
    paper = raman_activities(d, "paper")
    assert paper[0] == pytest.approx(1.5 * 9 + 10.5 * 3)


def test_anisotropic_mode_activity():
    """Traceless diagonal tensor: a' = 0, activity = 7 gamma'^2."""
    d = np.diag([1.0, -1.0, 0.0])[None, :, :]
    std = raman_activities(d, "standard")
    gamma2 = 0.5 * ((1 - (-1)) ** 2 + (-1 - 0) ** 2 + (0 - 1) ** 2)
    assert std[0] == pytest.approx(7.0 * gamma2)


def test_mass_weighted_dalpha():
    d = np.ones((6, 3, 3))
    out = mass_weighted_dalpha(d, np.array([4.0, 9.0]))
    assert out[0, 0, 0] == pytest.approx(0.5)
    assert out[3, 0, 0] == pytest.approx(1.0 / 3.0)


@pytest.fixture(scope="module")
def toy_system():
    """Synthetic 2-atom system with a known spectrum."""
    rng = np.random.default_rng(0)
    n = 4
    n3 = 3 * n
    a = rng.normal(size=(n3, n3))
    h = a @ a.T  # positive definite -> all real frequencies
    masses = rng.uniform(1.0, 16.0, size=n)
    dalpha = rng.normal(size=(n3, 3, 3))
    dalpha = dalpha + dalpha.transpose(0, 2, 1)
    return h, dalpha, masses


@pytest.mark.parametrize("convention", ["standard", "paper"])
def test_lanczos_matches_dense(toy_system, convention):
    h, dalpha, masses = toy_system
    omega = np.linspace(0, 8000, 500)
    dense = raman_spectrum_dense(
        h, dalpha, masses, omega, sigma_cm1=40.0, convention=convention,
        freq_threshold_cm1=50.0,
    )
    lan = raman_spectrum_lanczos(
        h, dalpha, masses, omega, sigma_cm1=40.0, k=12,
        convention=convention, freq_threshold_cm1=50.0,
    )
    scale = dense.intensity.max()
    assert scale > 0
    assert np.abs(dense.intensity - lan.intensity).max() / scale < 1e-8


def test_exact_rule_when_k_covers_the_space(toy_system):
    """k >= 3N takes the exact rule: its health number is 0, and the
    dense route carries none."""
    h, dalpha, masses = toy_system
    omega = np.linspace(0, 8000, 200)
    lan = raman_spectrum_lanczos(h, dalpha, masses, omega, k=12)
    assert lan.quadrature_delta == 0.0
    assert lan.normalized().quadrature_delta == 0.0
    dense = raman_spectrum_dense(h, dalpha, masses, omega)
    assert dense.quadrature_delta is None


def _nondegenerate_operator(nblocks, seed):
    """Block-sparse mass-weighted operator with a non-degenerate spectrum.

    Each random 9x9 block has 3 modes in 1-30 cm^-1 and 6 in
    200-4000 cm^-1. Neighbouring blocks couple weakly through their
    high-frequency subspaces (norm 0.1 x (200 cm^-1)^2), so the soft
    modes stay below 30 cm^-1 and the operator stays SPD.
    """
    rng = np.random.default_rng(seed)
    lam_200 = (200.0 / HESSIAN_TO_CM1) ** 2
    blocks = [[None] * nblocks for _ in range(nblocks)]
    highs = []
    for b in range(nblocks):
        q, _ = np.linalg.qr(rng.normal(size=(9, 9)))
        freq = np.concatenate([rng.uniform(1.0, 30.0, 3),
                               rng.uniform(200.0, 4000.0, 6)])
        blocks[b][b] = (q * (freq / HESSIAN_TO_CM1) ** 2) @ q.T
        highs.append(q[:, 3:])
    for b in range(nblocks - 1):
        c = rng.normal(size=(6, 6))
        c *= 0.1 * lam_200 / np.linalg.norm(c, 2)
        blocks[b][b + 1] = highs[b] @ c @ highs[b + 1].T
        blocks[b + 1][b] = blocks[b][b + 1].T
    n3 = 9 * nblocks
    masses = rng.uniform(1.0, 16.0, size=n3 // 3)
    dalpha = rng.normal(size=(n3, 3, 3))
    dalpha = dalpha + dalpha.transpose(0, 2, 1)
    return scipy.sparse.bmat(blocks, format="csr"), masses, dalpha


def test_lanczos_matches_dense_nondegenerate():
    """k = 150 on 3N = 1458 distinct modes, against full diagonalization
    above 150 cm^-1. Measured 7.1e-4 at seed 0 (seeds 0-3: 7.1e-4 to
    9.5e-4, the same as with full reorthogonalization); bound 2e-3."""
    h_mw, masses, dalpha = _nondegenerate_operator(162, seed=0)
    sq = np.sqrt(np.repeat(masses, 3))
    hessian = h_mw.toarray() * sq[:, None] * sq[None, :]
    omega = np.linspace(0.0, 4500.0, 901)
    dense = raman_spectrum_dense(hessian, dalpha, masses, omega, sigma_cm1=20.0)
    lan = raman_spectrum_lanczos(h_mw, dalpha, masses, omega, sigma_cm1=20.0,
                                 k=150, mass_weighted=True)
    above = omega > 150.0
    err = (np.abs(dense.intensity - lan.intensity)[above].max()
           / dense.intensity.max())
    assert err < 2e-3
    # the k/2 rule's distance (measured 0.044) flags more than the k error
    assert err < lan.quadrature_delta < 0.2


def test_gagq_improves_truncated_k(toy_system):
    h, dalpha, masses = toy_system
    omega = np.linspace(0, 8000, 300)
    dense = raman_spectrum_dense(h, dalpha, masses, omega, sigma_cm1=60.0)
    errs = {}
    for avg in (False, True):
        lan = raman_spectrum_lanczos(
            h, dalpha, masses, omega, sigma_cm1=60.0, k=4, averaged=avg
        )
        errs[avg] = np.abs(dense.intensity - lan.intensity).max()
    assert errs[True] <= errs[False] * 1.05


def test_normalized_spectrum():
    omega = np.linspace(0, 100, 50)
    from repro.spectra.raman import RamanSpectrum

    sp = RamanSpectrum(omega, np.linspace(0, 4.0, 50)).normalized()
    assert sp.intensity.max() == pytest.approx(1.0)


def test_spectrum_nonnegative(toy_system):
    h, dalpha, masses = toy_system
    omega = np.linspace(0, 8000, 200)
    sp = raman_spectrum_dense(h, dalpha, masses, omega, sigma_cm1=30.0)
    assert sp.intensity.min() >= 0.0


def test_depolarization_isotropic_mode():
    from repro.spectra.raman import depolarization_ratios

    d = np.eye(3)[None, :, :]
    assert depolarization_ratios(d)[0] == pytest.approx(0.0)


def test_depolarization_anisotropic_mode():
    from repro.spectra.raman import depolarization_ratios

    d = np.diag([1.0, -1.0, 0.0])[None, :, :]  # traceless
    assert depolarization_ratios(d)[0] == pytest.approx(0.75)


def test_depolarization_bounds():
    from repro.spectra.raman import depolarization_ratios

    rng = np.random.default_rng(3)
    d = rng.normal(size=(20, 3, 3))
    d = d + d.transpose(0, 2, 1)
    rho = depolarization_ratios(d)
    assert np.all(rho >= 0.0) and np.all(rho <= 0.75 + 1e-12)
