"""LDA exchange-correlation (Slater exchange + VWN5 correlation).

The DFT mode of the fragment engine (the paper uses PBE in FHI-aims;
LDA keeps the grid machinery identical while avoiding density-gradient
plumbing — DESIGN.md documents the substitution). Functional values
and potentials are evaluated pointwise on the Becke grid.
"""

from __future__ import annotations

import numpy as np

#: Slater exchange constant Cx = (3/4)(3/pi)^{1/3}
_CX = 0.7385587663820224

# VWN5 parametrization (paramagnetic)
_VWN_A = 0.0310907
_VWN_B = 3.72744
_VWN_C = 12.9352
_VWN_X0 = -0.10498


def slater_exchange(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(energy density e_x(rho), potential v_x(rho)) for the spin-
    compensated LDA exchange: e_x = -Cx rho^{4/3}, v_x = -(4/3)Cx rho^{1/3}."""
    rho = np.clip(np.asarray(rho, dtype=float), 0.0, None)
    r13 = rho ** (1.0 / 3.0)
    e = -_CX * rho * r13
    v = -(4.0 / 3.0) * _CX * r13
    return e, v


def _vwn_xfun(x: float | np.ndarray) -> np.ndarray:
    return x ** 2 + _VWN_B * x + _VWN_C


def vwn_correlation(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(energy density, potential) of VWN5 correlation (closed shell).

    eps_c(r_s) with x = sqrt(r_s); v_c = eps_c - (r_s/3) d eps_c/d r_s.
    """
    rho = np.clip(np.asarray(rho, dtype=float), 1e-300, None)
    rs = (3.0 / (4.0 * np.pi * rho)) ** (1.0 / 3.0)
    x = np.sqrt(rs)
    xf = _vwn_xfun(x)
    x0f = _vwn_xfun(_VWN_X0)
    q = np.sqrt(4.0 * _VWN_C - _VWN_B ** 2)
    atan_term = np.arctan(q / (2.0 * x + _VWN_B))
    eps = _VWN_A * (
        np.log(x ** 2 / xf)
        + 2.0 * _VWN_B / q * atan_term
        - _VWN_B * _VWN_X0 / x0f * (
            np.log((x - _VWN_X0) ** 2 / xf)
            + 2.0 * (_VWN_B + 2.0 * _VWN_X0) / q * atan_term
        )
    )
    # d eps / d x
    deps_dx = _VWN_A * (
        2.0 / x
        - (2.0 * x + _VWN_B) / xf
        - 4.0 * _VWN_B / (q ** 2 + (2.0 * x + _VWN_B) ** 2)
        - _VWN_B * _VWN_X0 / x0f * (
            2.0 / (x - _VWN_X0)
            - (2.0 * x + _VWN_B) / xf
            - 4.0 * (_VWN_B + 2.0 * _VWN_X0)
            / (q ** 2 + (2.0 * x + _VWN_B) ** 2)
        )
    )
    # v_c = eps - (rs/3) deps/drs;  deps/drs = deps_dx / (2 x)
    v = eps - (rs / 3.0) * deps_dx / (2.0 * x)
    e = eps * rho
    zero = rho < 1e-12
    e = np.where(zero, 0.0, e)
    v = np.where(zero, 0.0, v)
    return e, v


def lda_xc(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Combined Slater + VWN5: (energy density array, potential array)."""
    ex, vx = slater_exchange(rho)
    ec, vc = vwn_correlation(rho)
    return ex + ec, vx + vc


def lda_kernel(rho: np.ndarray) -> np.ndarray:
    """f_xc = d v_xc / d rho, the LDA response kernel of the worker
    cycle's H(1) phase (:mod:`repro.kernels.worker`).

    Computed by tight central differences of the potential — exact
    enough (1e-9 relative) for a response kernel while keeping the code
    one obvious formula.
    """
    rho = np.clip(np.asarray(rho, dtype=float), 1e-12, None)
    h = 1e-6 * np.maximum(rho, 1e-6)
    _, vp = lda_xc(rho + h)
    _, vm = lda_xc(rho - h)
    return (vp - vm) / (2.0 * h)
