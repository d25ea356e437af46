"""Scalar McMurchie–Davidson integrals (reference implementation).

Implements the Hermite-Gaussian expansion of cartesian Gaussian
products (E coefficients), the Boys function, the Hermite Coulomb
repulsion tensor (R), and from those the standard one- and two-electron
integrals over *primitive* and *contracted* functions.

This module favors clarity over speed. It lives with the tests, next
to the loop oracle in ``oracle.py``, because nothing in the package
uses it: the vectorized engine in :mod:`repro.integrals.engine` is
validated against it.

References: McMurchie & Davidson, J. Comput. Phys. 26, 218 (1978);
Helgaker, Jørgensen, Olsen, "Molecular Electronic-Structure Theory".
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc, gamma as gamma_fn

from repro.basis.gaussian import Shell


# ---------------------------------------------------------------------------
# Boys function
# ---------------------------------------------------------------------------

def boys(n: int, t: float) -> float:
    """Boys function F_n(t) = ∫_0^1 u^{2n} exp(-t u²) du."""
    if t < 1e-12:
        return 1.0 / (2 * n + 1)
    # F_n(t) = Γ(n+1/2) γ*(n+1/2, t) / (2 t^{n+1/2}) with regularized lower γ
    return gamma_fn(n + 0.5) * gammainc(n + 0.5, t) / (2.0 * t ** (n + 0.5))


# ---------------------------------------------------------------------------
# Hermite expansion coefficients
# ---------------------------------------------------------------------------

def _e_memo(i: int, j: int, t: int, qx: float, a: float, b: float,
            memo: dict) -> float:
    # memo keys on (i, j, t) only — (qx, a, b) are fixed per evaluation,
    # so the dict lives exactly as long as one primitive integral and
    # never accumulates float-keyed entries across geometries (the old
    # module-wide lru_cache had near-zero hit rates across geometries
    # but grew without bound over a long pipeline run)
    if t < 0 or t > i + j:
        return 0.0
    key = (i, j, t)
    val = memo.get(key)
    if val is not None:
        return val
    p = a + b
    q = a * b / p
    if i == j == t == 0:
        val = math.exp(-q * qx * qx)
    elif j == 0:
        val = (
            _e_memo(i - 1, j, t - 1, qx, a, b, memo) / (2 * p)
            - q * qx / a * _e_memo(i - 1, j, t, qx, a, b, memo)
            + (t + 1) * _e_memo(i - 1, j, t + 1, qx, a, b, memo)
        )
    else:
        val = (
            _e_memo(i, j - 1, t - 1, qx, a, b, memo) / (2 * p)
            + q * qx / b * _e_memo(i, j - 1, t, qx, a, b, memo)
            + (t + 1) * _e_memo(i, j - 1, t + 1, qx, a, b, memo)
        )
    memo[key] = val
    return val


def hermite_e(i: int, j: int, t: int, qx: float, a: float, b: float,
              memo: dict | None = None) -> float:
    """Hermite expansion coefficient E_t^{ij} for a 1D Gaussian product.

    ``qx`` is the center separation A_x - B_x, ``a``/``b`` the exponents.
    ``memo`` (optional) shares recursion work across calls with the
    same (qx, a, b) — callers evaluating many t values pass one dict.
    """
    return _e_memo(i, j, t, qx, a, b, {} if memo is None else memo)


# ---------------------------------------------------------------------------
# Hermite Coulomb tensor
# ---------------------------------------------------------------------------

def _r_memo(t: int, u: int, v: int, n: int, p: float,
            x: float, y: float, z: float, memo: dict) -> float:
    # memo keys on (t, u, v, n) only — (p, x, y, z) are fixed per
    # evaluation (same bounded-lifetime scheme as _e_memo)
    if t < 0 or u < 0 or v < 0:
        return 0.0
    key = (t, u, v, n)
    val = memo.get(key)
    if val is not None:
        return val
    if t == u == v == 0:
        r2 = x * x + y * y + z * z
        val = (-2.0 * p) ** n * boys(n, p * r2)
    elif t > 0:
        val = (t - 1) * _r_memo(t - 2, u, v, n + 1, p, x, y, z, memo) + x * _r_memo(
            t - 1, u, v, n + 1, p, x, y, z, memo
        )
    elif u > 0:
        val = (u - 1) * _r_memo(t, u - 2, v, n + 1, p, x, y, z, memo) + y * _r_memo(
            t, u - 1, v, n + 1, p, x, y, z, memo
        )
    else:
        val = (v - 1) * _r_memo(t, u, v - 2, n + 1, p, x, y, z, memo) + z * _r_memo(
            t, u, v - 1, n + 1, p, x, y, z, memo
        )
    memo[key] = val
    return val


def hermite_r(t: int, u: int, v: int, p: float, pq: np.ndarray,
              memo: dict | None = None) -> float:
    """Hermite Coulomb auxiliary R_{tuv}^{0}(p, PQ).

    ``memo`` (optional) shares the downward recursion across calls with
    the same (p, PQ) — callers sweeping t/u/v pass one dict.
    """
    return _r_memo(t, u, v, 0, p, float(pq[0]), float(pq[1]), float(pq[2]),
                   {} if memo is None else memo)


# ---------------------------------------------------------------------------
# primitive integrals
# ---------------------------------------------------------------------------

def overlap_prim(a, lmn1, ra, b, lmn2, rb) -> float:
    """Overlap of two unnormalized primitive cartesian Gaussians."""
    p = a + b
    out = (math.pi / p) ** 1.5
    for d in range(3):
        out *= hermite_e(lmn1[d], lmn2[d], 0, ra[d] - rb[d], a, b)
    return out


def kinetic_prim(a, lmn1, ra, b, lmn2, rb) -> float:
    """Kinetic-energy integral of two primitives (via overlap shifts)."""
    i, j, k = lmn2
    term0 = b * (2 * (i + j + k) + 3) * overlap_prim(a, lmn1, ra, b, lmn2, rb)
    term1 = -2.0 * b ** 2 * (
        overlap_prim(a, lmn1, ra, b, (i + 2, j, k), rb)
        + overlap_prim(a, lmn1, ra, b, (i, j + 2, k), rb)
        + overlap_prim(a, lmn1, ra, b, (i, j, k + 2), rb)
    )
    term2 = -0.5 * (
        i * (i - 1) * overlap_prim(a, lmn1, ra, b, (i - 2, j, k), rb)
        + j * (j - 1) * overlap_prim(a, lmn1, ra, b, (i, j - 2, k), rb)
        + k * (k - 1) * overlap_prim(a, lmn1, ra, b, (i, j, k - 2), rb)
    )
    return term0 + term1 + term2


def nuclear_prim(a, lmn1, ra, b, lmn2, rb, rc) -> float:
    """Nuclear-attraction integral of two primitives for a nucleus at rc."""
    p = a + b
    cp = (a * np.asarray(ra) + b * np.asarray(rb)) / p
    pc = cp - np.asarray(rc)
    ex_memo, ey_memo, ez_memo, r_memo = {}, {}, {}, {}
    px, py, pz = float(pc[0]), float(pc[1]), float(pc[2])
    out = 0.0
    for t in range(lmn1[0] + lmn2[0] + 1):
        ex = _e_memo(lmn1[0], lmn2[0], t, ra[0] - rb[0], a, b, ex_memo)
        if ex == 0.0:  # qf: exact-zero — Hermite E is analytically zero
            continue
        for u in range(lmn1[1] + lmn2[1] + 1):
            ey = _e_memo(lmn1[1], lmn2[1], u, ra[1] - rb[1], a, b, ey_memo)
            if ey == 0.0:  # qf: exact-zero
                continue
            for v in range(lmn1[2] + lmn2[2] + 1):
                ez = _e_memo(lmn1[2], lmn2[2], v, ra[2] - rb[2], a, b, ez_memo)
                if ez == 0.0:  # qf: exact-zero
                    continue
                out += ex * ey * ez * _r_memo(
                    t, u, v, 0, p, px, py, pz, r_memo
                )
    return 2.0 * math.pi / p * out


def eri_prim(a, lmn1, ra, b, lmn2, rb, c, lmn3, rc, d, lmn4, rd) -> float:
    """Two-electron repulsion integral (ab|cd) over primitives."""
    p = a + b
    q = c + d
    alpha = p * q / (p + q)
    rp = (a * np.asarray(ra) + b * np.asarray(rb)) / p
    rq = (c * np.asarray(rc) + d * np.asarray(rd)) / q
    pq = rp - rq
    # one memo per 1D E series and one for the shared R recursion: all
    # calls below share (exponents, separations), so keys are pure ints
    e1m = ({}, {}, {})
    e2m = ({}, {}, {})
    r_memo = {}
    qx, qy, qz = float(pq[0]), float(pq[1]), float(pq[2])
    out = 0.0
    for t in range(lmn1[0] + lmn2[0] + 1):
        e1x = _e_memo(lmn1[0], lmn2[0], t, ra[0] - rb[0], a, b, e1m[0])
        if e1x == 0.0:  # qf: exact-zero — Hermite E is analytically zero
            continue
        for u in range(lmn1[1] + lmn2[1] + 1):
            e1y = _e_memo(lmn1[1], lmn2[1], u, ra[1] - rb[1], a, b, e1m[1])
            if e1y == 0.0:  # qf: exact-zero
                continue
            for v in range(lmn1[2] + lmn2[2] + 1):
                e1z = _e_memo(lmn1[2], lmn2[2], v, ra[2] - rb[2], a, b, e1m[2])
                if e1z == 0.0:  # qf: exact-zero
                    continue
                for tt in range(lmn3[0] + lmn4[0] + 1):
                    e2x = _e_memo(lmn3[0], lmn4[0], tt, rc[0] - rd[0], c, d, e2m[0])
                    if e2x == 0.0:  # qf: exact-zero
                        continue
                    for uu in range(lmn3[1] + lmn4[1] + 1):
                        e2y = _e_memo(lmn3[1], lmn4[1], uu, rc[1] - rd[1], c, d, e2m[1])
                        if e2y == 0.0:  # qf: exact-zero
                            continue
                        for vv in range(lmn3[2] + lmn4[2] + 1):
                            e2z = _e_memo(
                                lmn3[2], lmn4[2], vv, rc[2] - rd[2], c, d, e2m[2]
                            )
                            if e2z == 0.0:  # qf: exact-zero
                                continue
                            sign = (-1.0) ** (tt + uu + vv)
                            out += (
                                e1x * e1y * e1z * e2x * e2y * e2z * sign
                                * _r_memo(
                                    t + tt, u + uu, v + vv, 0, alpha,
                                    qx, qy, qz, r_memo,
                                )
                            )
    return out * 2.0 * math.pi ** 2.5 / (p * q * math.sqrt(p + q))


def dipole_prim(a, lmn1, ra, b, lmn2, rb, direction: int, origin) -> float:
    """Dipole integral <a| (r - origin)_dir |b> over primitives."""
    p = a + b
    cp = (a * np.asarray(ra) + b * np.asarray(rb)) / p
    out = 1.0
    for d in range(3):
        if d == direction:
            # x_C = x_P + (P - C): E^1 term picks the Hermite x moment
            e1 = hermite_e(lmn1[d], lmn2[d], 1, ra[d] - rb[d], a, b)
            e0 = hermite_e(lmn1[d], lmn2[d], 0, ra[d] - rb[d], a, b)
            out *= e1 + (cp[d] - origin[d]) * e0
        else:
            out *= hermite_e(lmn1[d], lmn2[d], 0, ra[d] - rb[d], a, b)
    return out * (math.pi / p) ** 1.5


# ---------------------------------------------------------------------------
# contracted shell integrals (generic driver)
# ---------------------------------------------------------------------------

def _contract_pair(sha: Shell, shb: Shell, prim_fn) -> np.ndarray:
    """Contract a primitive integral function over a shell pair.

    ``prim_fn(a, lmn1, ra, b, lmn2, rb) -> float``; returns an array of
    shape (nfuncs_a, nfuncs_b).
    """
    out = np.zeros((sha.nfuncs, shb.nfuncs))
    for ia, lmn1 in enumerate(sha.components):
        for ib, lmn2 in enumerate(shb.components):
            val = 0.0
            for ca, aa in zip(sha.coefs, sha.exps):  # qf: shell-loop — scalar reference driver
                for cb, ab in zip(shb.coefs, shb.exps):  # qf: shell-loop — scalar reference driver
                    val += ca * cb * prim_fn(aa, lmn1, sha.center, ab, lmn2, shb.center)
            out[ia, ib] = val
    return out


def overlap_shell(sha: Shell, shb: Shell) -> np.ndarray:
    return _contract_pair(sha, shb, overlap_prim)


def kinetic_shell(sha: Shell, shb: Shell) -> np.ndarray:
    return _contract_pair(sha, shb, kinetic_prim)


def nuclear_shell(sha: Shell, shb: Shell, charges, coords) -> np.ndarray:
    def fn(a, lmn1, ra, b, lmn2, rb):
        val = 0.0
        for z, rc in zip(charges, coords):
            val -= z * nuclear_prim(a, lmn1, ra, b, lmn2, rb, rc)
        return val

    return _contract_pair(sha, shb, fn)


def dipole_shell(sha: Shell, shb: Shell, direction: int, origin) -> np.ndarray:
    def fn(a, lmn1, ra, b, lmn2, rb):
        return dipole_prim(a, lmn1, ra, b, lmn2, rb, direction, origin)

    return _contract_pair(sha, shb, fn)


def eri_shell(sha: Shell, shb: Shell, shc: Shell, shd: Shell) -> np.ndarray:
    """Contracted ERI block of shape (na, nb, nc, nd)."""
    out = np.zeros((sha.nfuncs, shb.nfuncs, shc.nfuncs, shd.nfuncs))
    for ia, l1 in enumerate(sha.components):
        for ib, l2 in enumerate(shb.components):
            for ic, l3 in enumerate(shc.components):
                for id_, l4 in enumerate(shd.components):
                    val = 0.0
                    for ca, aa in zip(sha.coefs, sha.exps):  # qf: shell-loop — scalar reference driver
                        for cb, ab in zip(shb.coefs, shb.exps):  # qf: shell-loop — scalar reference driver
                            for cc, ac in zip(shc.coefs, shc.exps):  # qf: shell-loop — scalar reference driver
                                for cd, ad in zip(shd.coefs, shd.exps):  # qf: shell-loop — scalar reference driver
                                    val += (
                                        ca * cb * cc * cd
                                        * eri_prim(
                                            aa, l1, sha.center, ab, l2, shb.center,
                                            ac, l3, shc.center, ad, l4, shd.center,
                                        )
                                    )
                    out[ia, ib, ic, id_] = val
    return out
