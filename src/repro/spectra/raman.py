"""Raman activities and broadened spectra.

Two routes to I(omega):

* dense — diagonalize the mass-weighted Hessian, compute per-mode
  activities (paper Eq. 2-4), broaden with Gaussians. Exact; O((3N)^3).
* Lanczos/GAGQ — paper Eq. (5)-(8): write the intensity as a sum of
  matrix functionals d^T g_sigma(omega - H_eff) d and evaluate each
  with the quadrature solver; no eigenvectors ever formed. The paper's
  rotation-averaged activity mixes polarizability components, so the
  spectrum decomposes into one functional for the trace vector and one
  per unique tensor component. When k >= 3N the Krylov space is the
  whole space and the exact rule (one eigh, shared by every
  functional) replaces the recurrence.

Activity conventions: ``paper`` follows Eq. (4) literally,
``standard`` is the textbook 45 a'^2 + 7 gamma'^2 (Wilson-Decius-Cross,
the paper's reference [32]). Both are available everywhere; shapes of
spectra differ only mildly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import HESSIAN_TO_CM1
from repro.spectra.gagq import quadrature_nodes_weights
from repro.spectra.lanczos import lanczos, operator_matrix
from repro.spectra.modes import NormalModes, mass_weighted_hessian, normal_modes

#: (i, j, multiplicity) for the 6 unique symmetric-tensor components
_UNIQUE_IJ = [(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0),
              (0, 1, 2.0), (0, 2, 2.0), (1, 2, 2.0)]


def gaussian_lineshape(omega: np.ndarray, center, sigma: float) -> np.ndarray:
    """Normalized Gaussian g_sigma(omega - center) (paper Eq. 8)."""
    omega = np.asarray(omega, dtype=float)
    return np.exp(-((omega - center) ** 2) / (2.0 * sigma ** 2)) / (
        np.sqrt(2.0 * np.pi) * sigma
    )


def raman_activities(
    dalpha_dq: np.ndarray, convention: str = "standard"
) -> np.ndarray:
    """Per-mode Raman activity from d(alpha)/dQ_p.

    ``dalpha_dq`` has shape (nmodes, 3, 3).
    """
    d = np.asarray(dalpha_dq, dtype=float)
    if d.ndim != 3 or d.shape[1:] != (3, 3):
        raise ValueError("dalpha_dq must be (nmodes, 3, 3)")
    trace = np.trace(d, axis1=1, axis2=2)
    if convention == "paper":
        # Eq. (4): 3/2 (sum_i da_ii)^2 + 21/2 sum_ij (da_ij)^2
        return 1.5 * trace ** 2 + 10.5 * np.sum(d ** 2, axis=(1, 2))
    if convention == "standard":
        a = trace / 3.0
        gamma2 = 0.5 * (
            (d[:, 0, 0] - d[:, 1, 1]) ** 2
            + (d[:, 1, 1] - d[:, 2, 2]) ** 2
            + (d[:, 2, 2] - d[:, 0, 0]) ** 2
            + 6.0 * (d[:, 0, 1] ** 2 + d[:, 0, 2] ** 2 + d[:, 1, 2] ** 2)
        )
        return 45.0 * a ** 2 + 7.0 * gamma2
    raise ValueError(f"unknown convention {convention!r}")


@dataclass
class RamanSpectrum:
    """A broadened Raman spectrum plus (when available) stick data."""

    omega_cm1: np.ndarray
    intensity: np.ndarray
    frequencies_cm1: np.ndarray | None = None   # stick positions (dense route)
    activities: np.ndarray | None = None        # stick heights
    #: Lanczos: max over functionals of max|I_k - I_{k/2}| / max I (the
    #: k/2 rule's error estimate); 0 on the exact rule, None on dense
    quadrature_delta: float | None = None

    def normalized(self) -> "RamanSpectrum":
        peak = float(self.intensity.max())
        scale = 1.0 / peak if peak > 0 else 1.0
        return RamanSpectrum(
            self.omega_cm1,
            self.intensity * scale,
            self.frequencies_cm1,
            None if self.activities is None else self.activities * scale,
            self.quadrature_delta,
        )


def mass_weighted_dalpha(dalpha_dr: np.ndarray, masses_amu: np.ndarray) -> np.ndarray:
    """d(alpha)/d(xi) from d(alpha)/dR (paper Eq. 3): divide by sqrt(M_I)."""
    d = np.asarray(dalpha_dr, dtype=float)
    inv_sqrt = 1.0 / np.sqrt(np.repeat(np.asarray(masses_amu, float), 3))
    return d * inv_sqrt[:, None, None]


def raman_spectrum_dense(
    hessian: np.ndarray,
    dalpha_dr: np.ndarray,
    masses_amu: np.ndarray,
    omega_cm1: np.ndarray,
    sigma_cm1: float = 5.0,
    convention: str = "standard",
    freq_threshold_cm1: float = 50.0,
) -> RamanSpectrum:
    """Exact spectrum via full diagonalization (the baseline solver)."""
    modes: NormalModes = normal_modes(hessian, masses_amu)
    d_xi = mass_weighted_dalpha(dalpha_dr, masses_amu)
    # d(alpha)/dQ_p = sum_Ij d(alpha)/d(xi_Ij) e_{Ij,p}   (paper Eq. 2)
    dq = np.einsum("cij,cp->pij", d_xi, modes.eigenvectors)
    act = raman_activities(dq, convention)
    vib = modes.vibrational(freq_threshold_cm1)
    intensity = np.zeros_like(np.asarray(omega_cm1, dtype=float))
    for p in vib:
        intensity += act[p] * gaussian_lineshape(
            omega_cm1, modes.frequencies_cm1[p], sigma_cm1
        )
    return RamanSpectrum(
        omega_cm1=np.asarray(omega_cm1, dtype=float),
        intensity=intensity,
        frequencies_cm1=modes.frequencies_cm1[vib],
        activities=act[vib],
    )


def _component_vectors(d_xi: np.ndarray, convention: str):
    """Decompose the activity into (weight, vector) matrix functionals.

    standard: 45 a'^2 + 7 gamma'^2
      = 45/9 (tr d)^2 + 7/2 [(dxx-dyy)^2 + (dyy-dzz)^2 + (dzz-dxx)^2]
        + 21 (dxy^2 + dxz^2 + dyz^2)
    paper:    3/2 (tr d)^2 + 21/2 sum_ij d_ij^2.
    Every term is (w, v) with v a 3N vector: sum_p w (v^T q_p)^2.
    """
    trace = d_xi[:, 0, 0] + d_xi[:, 1, 1] + d_xi[:, 2, 2]
    comps: list[tuple[float, np.ndarray]] = []
    if convention == "paper":
        comps.append((1.5, trace))
        for (i, j, mult) in _UNIQUE_IJ:
            comps.append((10.5 * mult, d_xi[:, i, j]))
    elif convention == "standard":
        comps.append((5.0, trace))  # 45 * (1/3)^2 * ... = 45/9
        pairs = [(0, 1), (1, 2), (2, 0)]
        for (i, j) in pairs:
            comps.append((3.5, d_xi[:, i, i] - d_xi[:, j, j]))
        for (i, j) in pairs:
            comps.append((21.0, d_xi[:, i, j]))
    else:
        raise ValueError(f"unknown convention {convention!r}")
    return comps


def raman_spectrum_lanczos(
    h_or_hessian,
    dalpha_dr: np.ndarray,
    masses_amu: np.ndarray,
    omega_cm1: np.ndarray,
    sigma_cm1: float = 5.0,
    k: int = 150,
    convention: str = "standard",
    averaged: bool = True,
    mass_weighted: bool = False,
    freq_threshold_cm1: float = 50.0,
) -> RamanSpectrum:
    """Spectrum via Lanczos + GAGQ matrix functionals (paper §V-E).

    Parameters
    ----------
    h_or_hessian:
        The (sparse) Hessian. With ``mass_weighted=False`` it is
        mass-weighted here (dense input); pass an already mass-weighted
        sparse operator with ``mass_weighted=True`` for large systems.
    k:
        Lanczos steps per component functional (the paper's k; the
        effective quadrature order is 2k-1 with GAGQ); k >= 3N takes
        the exact rule.
    """
    if mass_weighted:
        h_mw = h_or_hessian
    else:
        h_mw = mass_weighted_hessian(np.asarray(h_or_hessian), masses_amu)
    d_xi = mass_weighted_dalpha(dalpha_dr, masses_amu)
    omega = np.asarray(omega_cm1, dtype=float)
    thr2 = (freq_threshold_cm1 / HESSIAN_TO_CM1) ** 2

    def f(theta: np.ndarray) -> np.ndarray:
        # g_sigma(omega - omega_p) with omega_p = sqrt(lambda); modes below
        # the threshold (translations/rotations, FD noise) are suppressed
        lam = np.asarray(theta)
        freq = np.sqrt(np.clip(lam, 0.0, None)) * HESSIAN_TO_CM1
        out = gaussian_lineshape(omega[None, :], freq[:, None], sigma_cm1)
        out[lam < thr2] = 0.0
        return out

    def functional(res) -> np.ndarray:
        theta, wq = quadrature_nodes_weights(res, averaged=averaged)
        return wq @ f(theta)

    comps = [(w, v) for w, v in _component_vectors(d_xi, convention)
             if np.linalg.norm(v) >= 1e-14]
    n = d_xi.shape[0]
    if k >= n:
        # the Krylov space is the whole space, where the recurrence
        # without reorthogonalization is no longer exact: take the exact
        # rule from one eigh of the (small) operator
        lam, u = np.linalg.eigh(operator_matrix(h_mw, n))
        wq = sum((w * (u.T @ v) ** 2 for w, v in comps), np.zeros(lam.size))
        intensity = wq @ f(lam)
        return RamanSpectrum(omega_cm1=omega, intensity=intensity,
                             quadrature_delta=0.0)

    intensity = np.zeros_like(omega)
    delta = 0.0
    for weight, vec in comps:
        res = lanczos(h_mw, vec, k)
        # the first k/2 coefficients are the k/2-step run: its rule
        # costs no matvec, and its distance to the k rule is the health
        # number on the result
        full = weight * functional(res)
        half = weight * functional(res.head(max(1, res.k // 2)))
        intensity += full
        delta = max(delta, float(np.abs(full - half).max()))
    peak = float(intensity.max(initial=0.0))
    return RamanSpectrum(omega_cm1=omega, intensity=intensity,
                         quadrature_delta=delta / peak if peak > 0 else 0.0)


def depolarization_ratios(dalpha_dq: np.ndarray) -> np.ndarray:
    """Depolarization ratio per mode: rho_p = 3 gamma'^2 / (45 a'^2 + 4 gamma'^2).

    The standard complementary Raman observable (Wilson-Decius-Cross):
    0 for totally symmetric isotropic modes, 0.75 for anisotropic ones.
    """
    d = np.asarray(dalpha_dq, dtype=float)
    if d.ndim != 3 or d.shape[1:] != (3, 3):
        raise ValueError("dalpha_dq must be (nmodes, 3, 3)")
    a = np.trace(d, axis1=1, axis2=2) / 3.0
    gamma2 = 0.5 * (
        (d[:, 0, 0] - d[:, 1, 1]) ** 2
        + (d[:, 1, 1] - d[:, 2, 2]) ** 2
        + (d[:, 2, 2] - d[:, 0, 0]) ** 2
        + 6.0 * (d[:, 0, 1] ** 2 + d[:, 0, 2] ** 2 + d[:, 1, 2] ** 2)
    )
    denom = 45.0 * a ** 2 + 4.0 * gamma2
    out = np.zeros(d.shape[0])
    mask = denom > 1e-300
    out[mask] = 3.0 * gamma2[mask] / denom[mask]
    return out
