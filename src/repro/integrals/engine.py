"""Vectorized McMurchie–Davidson integral engine.

The SCF/DFPT workloads need, per (displaced) fragment geometry:

* one-electron matrices S, T, V (+ per-nucleus V for gradients),
* dipole matrices (electric-field DFPT perturbation),
* either the exact ERI tensor (small systems) or density-fitting
  2-/3-center Coulomb integrals,
* first-derivative ("skeleton") versions of all of the above for
  analytic gradients.

Everything is batched over *shell-pair classes*: all shell pairs with
the same angular momenta (and contraction depth) are processed with one
set of numpy array operations, so the Python-level loop count is the
number of classes, not the number of integrals. This is the same
"pack similar work together" idea as the paper's elastic batching of
same-shape GEMMs (§V-C), applied at the integral level.

Validation: every public method is tested against the scalar reference
in ``tests/integrals/mcmurchie.py`` and against finite differences, and
the pair-block build and scatters against the loop oracle in
``tests/integrals/oracle.py``, which also keeps the ordered-bra
``eri_deriv`` build as the value oracle of the unordered-block one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammainc, gammaln

from repro.basis.gaussian import BasisSet, Shell
from repro.integrals.batched import (
    build_pair_blocks,
    scatter_eri,
    scatter_eri_deriv_ab,
    scatter_ordered,
    scatter_pairs_2c,
    scatter_pairs_aux,
    scatter_symmetric,
)
from repro.obs.counters import counters
from repro.obs.tracer import get_tracer


# ---------------------------------------------------------------------------
# cartesian components, generic l
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def components(l: int) -> tuple[tuple[int, int, int], ...]:
    """Cartesian components of angular momentum ``l``.

    Ordering: lexicographically descending in (i, j) — reproduces the
    conventional (x, y, z) order for p and (xx, xy, xz, yy, yz, zz) for d.
    """
    out = []
    for i in range(l, -1, -1):
        for j in range(l - i, -1, -1):
            out.append((i, j, l - i - j))
    return tuple(out)


# ---------------------------------------------------------------------------
# Boys function, vectorized
# ---------------------------------------------------------------------------

#: Boys table: knot spacing h, Taylor terms K per knot, the crossover
#: t above which the top order comes from the upward recursion, and
#: the highest order tabulated
BOYS_STEP = 0.05
BOYS_TERMS = 7
BOYS_TMAX = 36.0
BOYS_NMAX = 24


def boys_closed_form(n: int, t: np.ndarray) -> np.ndarray:
    """F_n(t) = Γ(n+1/2) P(n+1/2, t) / (2 t^{n+1/2}) through the
    regularized incomplete gamma function, with the exact limit
    1/(2n+1) at t = 0. Builds the Boys table; nothing else calls it."""
    t = np.asarray(t, dtype=float)
    small = t < 1e-13
    ts = np.where(small, 1.0, t)  # placeholder to avoid 0-division
    log_pref = gammaln(n + 0.5) - (n + 0.5) * np.log(ts)
    fn = np.exp(log_pref) * gammainc(n + 0.5, ts) / 2.0
    return np.where(small, 1.0 / (2 * n + 1), fn)


@lru_cache(maxsize=None)
def _boys_table() -> np.ndarray:
    """Taylor coefficients of F_n about the knots t_i = i h, i h <= BOYS_TMAX.

    Entry ``[n, k, i]`` is ``(-1)^k F_{n+k}(t_i) / k!`` (from
    dF_n/dt = -F_{n+1}), so ``F_n(t_i + d) = sum_k [n, k, i] d^k``.
    Shape ``(BOYS_NMAX + 1, BOYS_TERMS, nknots)``; built once, on first
    use, from :func:`boys_closed_form`.
    """
    nknots = int(round(BOYS_TMAX / BOYS_STEP)) + 1
    knots = np.arange(nknots) * BOYS_STEP
    f = np.stack([boys_closed_form(n, knots)
                  for n in range(BOYS_NMAX + BOYS_TERMS)])
    scale = np.array([(-1.0) ** k / math.factorial(k)
                      for k in range(BOYS_TERMS)])
    table = np.stack([f[n: n + BOYS_TERMS] * scale[:, None]
                      for n in range(BOYS_NMAX + 1)])
    table.setflags(write=False)
    return table


def boys_vec(nmax: int, t: np.ndarray) -> np.ndarray:
    """F_n(t) for n = 0..nmax over an array of t. Shape (len(t), nmax+1),
    a transposed view of an order-major ``(nmax+1, len(t))`` array.

    F_nmax comes from the Boys table for t < BOYS_TMAX: a BOYS_TERMS-term
    Taylor expansion about the nearest knot, |d| <= h/2, so the
    truncation is at most (h/2)^K / K! ~ 1.2e-15 relative. Above the
    table it comes from the upward recursion
    F_{m+1} = ((2m+1) F_m - e^{-t}) / (2t) from F_0 = sqrt(pi/t)/2,
    whose relative error erfc(sqrt(t)) is below 2.2e-17 there. Lower
    orders follow from the stable downward recursion
    F_{m-1}(t) = (2 t F_m(t) + e^{-t}) / (2m - 1).
    """
    if nmax > BOYS_NMAX:
        raise ValueError(f"Boys order {nmax} above the table's {BOYS_NMAX}")
    t = np.asarray(t, dtype=float).ravel()
    out = np.empty((nmax + 1, t.size))
    emt = np.exp(-t)
    top = out[nmax]
    near = t < BOYS_TMAX
    tn = t[near]
    knot = (tn * (1.0 / BOYS_STEP) + 0.5).astype(np.intp)
    d = tn - knot * BOYS_STEP
    coef = _boys_table()[nmax]
    acc = coef[BOYS_TERMS - 1].take(knot)
    for k in range(BOYS_TERMS - 2, -1, -1):
        acc *= d
        acc += coef[k].take(knot)
    top[near] = acc
    if tn.size < t.size:
        far = ~near
        tf = t[far]
        ef = emt[far]
        inv2t = 0.5 / tf
        acc = 0.5 * np.sqrt(math.pi / tf)
        for m in range(nmax):
            acc = ((2 * m + 1) * acc - ef) * inv2t
        top[far] = acc
    t2 = 2.0 * t
    for m in range(nmax, 0, -1):
        # exact at t = 0 too: F_{m-1}(0) = 1/(2m-1)
        row = out[m - 1]
        np.multiply(t2, out[m], out=row)
        row += emt
        row /= 2 * m - 1
    return out.T


# ---------------------------------------------------------------------------
# Hermite expansion coefficients, vectorized over an array of pairs
# ---------------------------------------------------------------------------

def e_coeffs_1d(la: int, lb: int, a: np.ndarray, b: np.ndarray,
                qx: np.ndarray) -> np.ndarray:
    """Hermite E coefficients for one cartesian direction.

    Returns shape ``(n, la+1, lb+1, la+lb+1)``; entry ``[.., i, j, t]``
    is E_t^{ij}(qx; a, b). Recursion identical to the scalar reference
    but with every step an array operation over the n pairs.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    qx = np.asarray(qx, dtype=float).ravel()
    n = a.size
    p = a + b
    q = a * b / p
    e = np.zeros((n, la + 1, lb + 1, la + lb + 1))
    e[:, 0, 0, 0] = np.exp(-q * qx * qx)
    inv2p = 1.0 / (2.0 * p)
    # raise i with j = 0.  q/a == b/p (avoids 0/0 for zero-exponent
    # dummy partners used by the density-fitting 2/3-center integrals)
    qq_a = (b / p) * qx
    for i in range(1, la + 1):
        for t in range(i + 1):
            val = -qq_a * e[:, i - 1, 0, t]
            if t > 0:
                val = val + inv2p * e[:, i - 1, 0, t - 1]
            if t + 1 <= i - 1:
                val = val + (t + 1) * e[:, i - 1, 0, t + 1]
            e[:, i, 0, t] = val
    # raise j for all i (q/b == a/p)
    qq_b = (a / p) * qx
    for j in range(1, lb + 1):
        for i in range(la + 1):
            for t in range(i + j + 1):
                val = qq_b * e[:, i, j - 1, t]
                if t > 0:
                    val = val + inv2p * e[:, i, j - 1, t - 1]
                if t + 1 <= i + j - 1:
                    val = val + (t + 1) * e[:, i, j - 1, t + 1]
                e[:, i, j, t] = val
    return e


@lru_cache(maxsize=None)
def hermite_combos(lmax: int) -> tuple[tuple[int, int, int], ...]:
    """Hermite index triples (t, u, v) with ``t + u + v <= lmax``,
    lexicographic in (t, u, v). The row order of the compact R array."""
    return tuple((t, u, v) for t in range(lmax + 1)
                 for u in range(lmax + 1 - t)
                 for v in range(lmax + 1 - t - u))


def ncombos(lmax: int) -> int:
    """Number of Hermite triples with t + u + v <= lmax."""
    return (lmax + 1) * (lmax + 2) * (lmax + 3) // 6


@lru_cache(maxsize=None)
def _combo_rows(lmax: int) -> dict[tuple[int, int, int], int]:
    """Row of each (t, u, v) in ``hermite_combos(lmax)``."""
    return {c: i for i, c in enumerate(hermite_combos(lmax))}


@lru_cache(maxsize=None)
def _second_order_terms(total: int) -> tuple[np.ndarray, np.ndarray,
                                             np.ndarray]:
    """The (k-1) R_{..k-2..} terms of the Hermite recursion at one level.

    Every (t, u, v) with ``t + u + v <= total`` recurses along x if
    t > 0, else y if u > 0, else z; when that index k is at least 2 it
    also adds (k-1) times the level-below entry whose index in that
    direction is k-2. Returns the destination rows in
    ``hermite_combos(total)``, the source rows in
    ``hermite_combos(total - 1)`` and the coefficients k - 1, shaped
    (nterms, 1) to broadcast over the charge pairs.
    """
    below = _combo_rows(total - 1)
    rows, src, coef = [], [], []
    for row, (t, u, v) in enumerate(hermite_combos(total)):
        d = 0 if t else (1 if u else 2)
        tuv = [t, u, v]
        if tuv[d] < 2:
            continue
        k = tuv[d]
        tuv[d] -= 2
        rows.append(row)
        src.append(below[tuple(tuv)])
        coef.append(float(k - 1))
    return (np.array(rows, dtype=np.intp), np.array(src, dtype=np.intp),
            np.array(coef)[:, None])


def hermite_coulomb_vec(lmax: int, p: np.ndarray, pq: np.ndarray
                        ) -> np.ndarray:
    """Hermite Coulomb tensor R_{tuv} over an array of charge pairs.

    Parameters
    ----------
    lmax:
        Total Hermite order: every (t, u, v) with ``t+u+v <= lmax`` is
        evaluated, from Boys orders ``0..lmax``.
    p:
        Combined exponents, shape (n,).
    pq:
        Center separations P-Q, shape (n, 3).

    Returns the compact ``(ncombos(lmax), n)`` array whose rows are in
    ``hermite_combos(lmax)`` order.

    The recursion R^m_{..k+1..} = X_d R^{m+1}_{..k..} + k R^{m+1}_{..k-1..}
    runs level by level from m = lmax down to 0. Level m holds
    R^m for every triple of total order <= lmax - m, and only the level
    below it stays alive. In lexicographic order the x-raised triples of
    a level are the whole level below it, its y-raised t = 0 triples
    that level's t = 0 block and its z-raised ones that level's
    (0, 0, v) run, so each direction is one contiguous row operation;
    the (k-1) terms are one gather per level.
    """
    p = np.asarray(p, dtype=float).ravel()
    pq = np.asarray(pq, dtype=float).reshape(-1, 3)
    # R^m_{000} = (-2p)^m F_m, in place on the order-major Boys rows
    base = boys_vec(lmax, p * np.einsum("ij,ij->i", pq, pq)).T
    m2p = -2.0 * p
    acc = m2p.copy()
    for m in range(1, lmax + 1):
        base[m] *= acc
        acc *= m2p
    x, y, z = (np.ascontiguousarray(pq[:, d]) for d in range(3))
    level = base[lmax:]
    for m in range(lmax - 1, -1, -1):
        total = lmax - m
        n_t0 = (total + 1) * (total + 2) // 2   # triples with t = 0
        new = np.empty((ncombos(total), p.size))
        new[0] = base[m]
        np.multiply(z, level[:total], out=new[1: total + 1])
        np.multiply(y, level[: n_t0 - total - 1], out=new[total + 1: n_t0])
        np.multiply(x, level, out=new[n_t0:])
        rows, src, coef = _second_order_terms(total)
        if rows.size:
            new[rows] += coef * level[src]
        level = new
    return level


# ---------------------------------------------------------------------------
# shell-pair blocks
# ---------------------------------------------------------------------------

@dataclass
class PairBlock:
    """All shell pairs of one (la, lb, Ka, Kb) class, primitive-flattened.

    Primitive arrays have length ``npair * K2`` (pair-major). E tensors
    are built on demand by :meth:`e_tensors`.
    """

    la: int
    lb: int
    k2: int
    ishell: np.ndarray          # (npair,)
    jshell: np.ndarray          # (npair,)
    off_a: np.ndarray           # (npair,) function offsets
    off_b: np.ndarray
    atom_a: np.ndarray          # (npair,) atom owning the bra-a shell
    atom_b: np.ndarray
    a: np.ndarray               # (npair*k2,) exponents
    b: np.ndarray
    cc: np.ndarray              # (npair*k2,) coefficient products
    ab_vec: np.ndarray          # (npair, 3) A - B
    centers_a: np.ndarray       # (npair, 3)
    p: np.ndarray               # (npair*k2,) a + b
    pc: np.ndarray              # (npair*k2, 3) product centers P

    @property
    def npair(self) -> int:
        return self.ishell.size

    @property
    def nprim(self) -> int:
        return self.a.size

    def e_tensors(self, da: int = 0, db: int = 0) -> list[np.ndarray]:
        """E coefficient tensors for the three dimensions, each of shape
        ``(nprim, la+da+1, lb+db+1, la+da+lb+db+1)``."""
        qx = np.repeat(self.ab_vec, self.k2, axis=0)
        return [
            e_coeffs_1d(self.la + da, self.lb + db, self.a, self.b, qx[:, d])
            for d in range(3)
        ]

    def subset(self, idx: np.ndarray) -> "PairBlock":
        """View of this block restricted to the pairs in ``idx``.

        Used by Schwarz screening to evaluate only surviving pairs.
        """
        k2 = self.k2

        def prim(arr: np.ndarray) -> np.ndarray:
            shaped = arr.reshape(self.npair, k2, *arr.shape[1:])
            return shaped[idx].reshape(idx.size * k2, *arr.shape[1:])

        return PairBlock(
            la=self.la, lb=self.lb, k2=k2,
            ishell=self.ishell[idx], jshell=self.jshell[idx],
            off_a=self.off_a[idx], off_b=self.off_b[idx],
            atom_a=self.atom_a[idx], atom_b=self.atom_b[idx],
            a=prim(self.a), b=prim(self.b), cc=prim(self.cc),
            ab_vec=self.ab_vec[idx], centers_a=self.centers_a[idx],
            p=prim(self.p), pc=prim(self.pc),
        )


def _e3_components(
    ex: list[np.ndarray],
    la: int,
    lb: int,
    combos: tuple[tuple[int, int, int], ...],
    sign: bool = False,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Collapse per-dimension E tensors into the product tensor.

    Returns shape ``(nprim, ncomp_a * ncomp_b, ncombos)`` where entry
    ``[.., (ca, cb), k]`` is ``Ex[ia,jb,t] Ey[..] Ez[..]`` for combo
    ``combos[k] = (t, u, v)``; multiplied by ``(-1)^{t+u+v}`` when
    ``sign`` and by ``weights`` (e.g. contraction coefficients) if given.
    """
    comps_a = components(la)
    comps_b = components(lb)
    nprim = ex[0].shape[0]
    out = np.zeros((nprim, len(comps_a) * len(comps_b), len(combos)))
    for ia, (ax, ay, az) in enumerate(comps_a):
        for ib, (bx, by, bz) in enumerate(comps_b):
            col = ia * len(comps_b) + ib
            for k, (t, u, v) in enumerate(combos):
                if t > ax + bx or u > ay + by or v > az + bz:
                    continue
                val = ex[0][:, ax, bx, t] * ex[1][:, ay, by, u] * ex[2][:, az, bz, v]
                if sign and (t + u + v) % 2 == 1:
                    val = -val
                out[:, col, k] = val
    if weights is not None:
        out *= weights[:, None, None]
    return out


@lru_cache(maxsize=None)
def _combined_index(lbra: int, lket: int) -> np.ndarray:
    """Gather table of the summed Hermite index for every (bra combo,
    ket combo) pair.

    Entry ``[i, j]`` is the row of ``hermite_combos(lbra)[i] +
    hermite_combos(lket)[j]`` in ``hermite_combos(lbra + lket)``: the
    compact R array of order ``lbra + lket`` that the caller builds.
    Shape ``(ncombos(lbra), ncombos(lket))``, read-only.
    """
    rows = _combo_rows(lbra + lket)
    table = np.array([[rows[(t + tt, u + uu, v + vv)]
                       for (tt, uu, vv) in hermite_combos(lket)]
                      for (t, u, v) in hermite_combos(lbra)], dtype=np.intp)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _raised_index(lmax: int) -> np.ndarray:
    """Gather table of the raised Hermite index: entry ``[d, i]`` is the
    row of ``hermite_combos(lmax)[i]`` plus one in direction d, in
    ``hermite_combos(lmax + 1)``. Shape ``(3, ncombos(lmax))``."""
    rows = _combo_rows(lmax + 1)
    table = np.array([[rows[tuple(c + (k == d) for k, c in enumerate(tuv))]
                       for tuv in hermite_combos(lmax)]
                      for d in range(3)], dtype=np.intp)
    table.setflags(write=False)
    return table


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class IntegralEngine:
    """Integral driver for one basis set over one geometry.

    Parameters
    ----------
    basis:
        The orbital basis.
    charges, coords:
        Nuclear charges and positions (bohr) for nuclear attraction.
    schwarz_cutoff:
        Schwarz screening threshold for two-electron integrals. A
        (bra-pair, ket-pair) combination is skipped when the bound
        ``sqrt((ab|ab)) * sqrt((cd|cd))`` — a rigorous Cauchy–Schwarz
        upper bound on every |(ab|cd)| in the combination — falls below
        this value; skipped entries are exact zeros in the output, so
        the absolute ERI error per element is at most the cutoff.
        ``0`` disables screening (every combination evaluated).
        Counters in :attr:`screen_stats` record evaluated vs skipped
        pair combinations.
    """

    def __init__(self, basis: BasisSet, charges: np.ndarray, coords: np.ndarray,
                 schwarz_cutoff: float = 0.0):
        self.basis = basis
        self.charges = np.asarray(charges, dtype=float).ravel()
        self.coords = np.asarray(coords, dtype=float).reshape(-1, 3)
        self.nbf = basis.nbf
        self.blocks = build_pair_blocks(basis.shells, basis.offsets)
        self.schwarz_cutoff = float(schwarz_cutoff)
        #: pair-combination counters: "evaluated" + "screened" = "total"
        self.screen_stats = {
            "pair_combinations_total": 0,
            "pair_combinations_evaluated": 0,
            "pair_combinations_screened": 0,
        }
        self._schwarz_self: list[np.ndarray] | None = None

    # -- Schwarz screening ---------------------------------------------------

    def schwarz_bounds(self, blocks: list[PairBlock]) -> list[np.ndarray]:
        """Per-block Schwarz bound vectors ``Q_r = sqrt(max (ab|ab)_r)``.

        One entry per shell pair of each block: the maximum over the
        pair's function components of the diagonal Coulomb interaction
        — the quantity whose product bounds any cross interaction.
        """
        return [self._schwarz_block(blk) for blk in blocks]

    def _bounds_self(self) -> list[np.ndarray]:
        """Cached Schwarz bounds of the engine's own pair blocks."""
        if self._schwarz_self is None:
            self._schwarz_self = self.schwarz_bounds(self.blocks)
        return self._schwarz_self

    def _schwarz_block(self, blk: PairBlock,
                       element_budget: int = 200_000) -> np.ndarray:
        """Diagonal (ab|ab) bound vector of one pair block, vectorized.

        For every pair the k2 x k2 primitive cross products within the
        same pair are contracted — the diagonal of
        :meth:`coulomb_block` without the O(npair^2) off-diagonals.
        """
        la, lb = blk.la, blk.lb
        l_half = la + lb
        combos = hermite_combos(l_half)
        nk = len(combos)
        e3b = _e3_components(blk.e_tensors(), la, lb, combos, weights=blk.cc)
        e3k = _e3_components(
            blk.e_tensors(), la, lb, combos, sign=True, weights=blk.cc
        )
        npair, k2 = blk.npair, blk.k2
        nab = e3b.shape[1]
        e3b = e3b.reshape(npair, k2, nab, nk)
        e3k = e3k.reshape(npair, k2, nab, nk)
        p = blk.p.reshape(npair, k2)
        pc = blk.pc.reshape(npair, k2, 3)
        ltot = 2 * l_half
        gather = _combined_index(l_half, l_half)
        out = np.empty(npair)
        chunk = max(1, element_budget // max(1, k2 * k2 * nk))
        for start in range(0, npair, chunk):  # qf: shell-loop — chunked over the element budget; body vectorized
            stop = min(start + chunk, npair)
            ps = p[start:stop]
            pcs = pc[start:stop]
            pb = ps[:, :, None]
            pk = ps[:, None, :]
            alpha = pb * pk / (pb + pk)
            pref = 2.0 * math.pi ** 2.5 / (pb * pk * np.sqrt(pb + pk))
            pq = pcs[:, :, None, :] - pcs[:, None, :, :]
            r = hermite_coulomb_vec(ltot, alpha.ravel(), pq.reshape(-1, 3))
            r *= pref.ravel()
            rsel = r[gather].reshape(nk, nk, stop - start, k2, k2)
            # the diagonal (ab|ab) of every pair, primitives folded in
            out[start:stop] = np.einsum(
                "rixm,mnrij,rjxn->rx",
                e3b[start:stop], rsel, e3k[start:stop], optimize=True,
            ).max(axis=1)
        return np.sqrt(np.maximum(out, 0.0))

    # -- one-electron -------------------------------------------------------

    def overlap(self) -> np.ndarray:
        s = np.zeros((self.nbf, self.nbf))
        for blk in self.blocks:
            ex = blk.e_tensors()
            vals = self._overlap_block(blk, ex)
            scatter_symmetric(s, blk, vals)
        return s

    def _overlap_block(self, blk: PairBlock, ex: list[np.ndarray]) -> np.ndarray:
        """(npair, na, nb) overlap values from E tensors."""
        comps_a = components(blk.la)
        comps_b = components(blk.lb)
        pref = (math.pi / blk.p) ** 1.5 * blk.cc
        out = np.empty((blk.npair, len(comps_a), len(comps_b)))
        for ia, (ax, ay, az) in enumerate(comps_a):
            for ib, (bx, by, bz) in enumerate(comps_b):
                prim = (
                    ex[0][:, ax, bx, 0] * ex[1][:, ay, by, 0] * ex[2][:, az, bz, 0]
                ) * pref
                out[:, ia, ib] = prim.reshape(blk.npair, blk.k2).sum(axis=1)
        self._record_class_gemm(
            blk.npair, len(comps_a) * len(comps_b), 1, blk.k2
        )
        return out

    def kinetic(self) -> np.ndarray:
        t = np.zeros((self.nbf, self.nbf))
        for blk in self.blocks:
            ex = blk.e_tensors(db=2)
            comps_a = components(blk.la)
            comps_b = components(blk.lb)
            pref = (math.pi / blk.p) ** 1.5 * blk.cc
            vals = np.empty((blk.npair, len(comps_a), len(comps_b)))

            def s00(axs, bxs):
                return (
                    ex[0][:, axs[0], bxs[0], 0]
                    * ex[1][:, axs[1], bxs[1], 0]
                    * ex[2][:, axs[2], bxs[2], 0]
                )

            for ia, ca in enumerate(comps_a):
                for ib, cb in enumerate(comps_b):
                    i, j, k = cb
                    term = blk.b * (2 * (i + j + k) + 3) * s00(ca, cb)
                    for d, inc in enumerate(((2, 0, 0), (0, 2, 0), (0, 0, 2))):
                        cb2 = (cb[0] + inc[0], cb[1] + inc[1], cb[2] + inc[2])
                        term = term - 2.0 * blk.b ** 2 * s00(ca, cb2)
                        if cb[d] >= 2:
                            cbm = (cb[0] - inc[0], cb[1] - inc[1], cb[2] - inc[2])
                            term = term - 0.5 * cb[d] * (cb[d] - 1) * s00(ca, cbm)
                    prim = term * pref
                    vals[:, ia, ib] = prim.reshape(blk.npair, blk.k2).sum(axis=1)
            self._record_class_gemm(
                blk.npair, len(comps_a) * len(comps_b), 1, blk.k2
            )
            scatter_symmetric(t, blk, vals)
        return t

    def nuclear(self, per_atom: bool = False) -> np.ndarray:
        """Nuclear attraction V (negative). With ``per_atom``, returns
        shape (natoms, nbf, nbf): the contribution of each nucleus
        (needed for Hellmann–Feynman gradient terms)."""
        natm = self.charges.size
        v = np.zeros((natm, self.nbf, self.nbf)) if per_atom else np.zeros(
            (self.nbf, self.nbf)
        )
        for blk in self.blocks:
            ex = blk.e_tensors()
            vals = self._nuclear_block(blk, ex, per_atom)
            if per_atom:
                for c in range(natm):
                    scatter_symmetric(v[c], blk, vals[c])
            else:
                scatter_symmetric(v, blk, vals)
        return v

    def _nuclear_block(self, blk: PairBlock, ex: list[np.ndarray],
                       per_atom: bool):
        l_tot = blk.la + blk.lb
        combos = hermite_combos(l_tot)
        e3 = _e3_components(ex, blk.la, blk.lb, combos, weights=blk.cc)
        # R over prim x nucleus, scaled by 2 pi / p (-Z_C comes below)
        natm = self.charges.size
        npair, k2 = blk.npair, blk.k2
        pc = blk.pc[:, None, :] - self.coords[None, :, :]
        p_rep = np.repeat(blk.p, natm)
        r = hermite_coulomb_vec(l_tot, p_rep, pc.reshape(-1, 3))
        r *= 2.0 * math.pi / p_rep
        # per pair and nucleus: sum over primitives i and combos k of e3 R
        contrib = np.einsum(
            "Pick,kPia->Pac", e3.reshape(npair, k2, -1, len(combos)),
            r.reshape(len(combos), npair, k2, natm), optimize=True,
        )
        self._record_class_gemm(npair, natm, e3.shape[1], k2 * len(combos))
        na = len(components(blk.la))
        nb = len(components(blk.lb))
        if per_atom:
            out = np.empty((natm, blk.npair, na, nb))
            for c in range(natm):
                out[c] = (-self.charges[c]) * contrib[:, c, :].reshape(
                    blk.npair, na, nb
                )
            return out
        total = -(contrib * self.charges[None, :, None]).sum(axis=1)
        return total.reshape(blk.npair, na, nb)

    def dipole(self, origin=(0.0, 0.0, 0.0)) -> np.ndarray:
        """Dipole moment integrals <mu| r_d - origin_d |nu>, shape (3, nbf, nbf)."""
        origin = np.asarray(origin, dtype=float).reshape(3)
        out = np.zeros((3, self.nbf, self.nbf))
        for blk in self.blocks:
            ex = blk.e_tensors()
            comps_a = components(blk.la)
            comps_b = components(blk.lb)
            pref = (math.pi / blk.p) ** 1.5 * blk.cc
            for d in range(3):
                vals = np.empty((blk.npair, len(comps_a), len(comps_b)))
                shift = blk.pc[:, d] - origin[d]
                for ia, ca in enumerate(comps_a):
                    for ib, cb in enumerate(comps_b):
                        e_parts = []
                        for dim in range(3):
                            e0 = ex[dim][:, ca[dim], cb[dim], 0]
                            if dim == d:
                                # moment: E^1 + (P_d - C_d) E^0
                                lmax = ca[dim] + cb[dim]
                                e1 = (
                                    ex[dim][:, ca[dim], cb[dim], 1]
                                    if lmax >= 1
                                    else np.zeros_like(e0)
                                )
                                e_parts.append(e1 + shift * e0)
                            else:
                                e_parts.append(e0)
                        prim = e_parts[0] * e_parts[1] * e_parts[2] * pref
                        vals[:, ia, ib] = prim.reshape(blk.npair, blk.k2).sum(axis=1)
                self._record_class_gemm(
                    blk.npair, len(comps_a) * len(comps_b), 1, blk.k2
                )
                scatter_symmetric(out[d], blk, vals)
        return out

    # -- accounting ---------------------------------------------------------

    def _record_class_gemm(self, batch: int, m: int, n: int, k: int) -> None:
        """Account one class contraction through the batched-GEMM seam."""
        # deferred: repro.kernels pulls in the DFPT worker stack, which
        # imports the SCF layer, which imports this module
        from repro.kernels.batched import kernel_seam

        kernel_seam().record_contraction(batch, m, n, k)

    # -- two-electron: generic Coulomb interaction of two pair sets ---------

    def coulomb_block(self, bra: PairBlock, ket: PairBlock,
                      q_bra: np.ndarray | None = None,
                      q_ket: np.ndarray | None = None) -> np.ndarray:
        """Contracted Coulomb interaction (bra_ab | ket_cd).

        Returns shape ``(npair_bra, na, nb, npair_ket, nc, nd)``.
        Used both for the exact ERI (bra and ket are orbital pair
        blocks) and for density fitting (ket pairs are aux/dummy).

        When Schwarz bound vectors ``q_bra``/``q_ket`` (from
        :meth:`schwarz_bounds`) are supplied and
        :attr:`schwarz_cutoff` is positive, pairs whose best possible
        bound product stays below the cutoff are skipped; their output
        entries are exact zeros bounded by the cutoff.
        """
        na, nb_ = len(components(bra.la)), len(components(bra.lb))
        nc, nd = len(components(ket.la)), len(components(ket.lb))
        cut = self.schwarz_cutoff
        if cut > 0.0 and q_bra is not None and q_ket is not None:
            stats = self.screen_stats
            n_total = bra.npair * ket.npair
            stats["pair_combinations_total"] += n_total
            keep_b = np.nonzero(q_bra * q_ket.max(initial=0.0) >= cut)[0]
            keep_k = np.nonzero(q_ket * q_bra.max(initial=0.0) >= cut)[0]
            n_eval = keep_b.size * keep_k.size
            stats["pair_combinations_evaluated"] += n_eval
            stats["pair_combinations_screened"] += n_total - n_eval
            # mirror the per-engine stats into the run-wide registry
            reg = counters()
            reg.inc("eri.pair_combinations_total", n_total)
            reg.inc("eri.pair_combinations_evaluated", n_eval)
            reg.inc("eri.pair_combinations_screened", n_total - n_eval)
            if n_eval == 0:
                return np.zeros((bra.npair, na, nb_, ket.npair, nc, nd))
            if keep_b.size < bra.npair or keep_k.size < ket.npair:
                # recursive call without bounds: evaluates the survivors
                # and touches no counters
                sub = self.coulomb_block(bra.subset(keep_b),
                                         ket.subset(keep_k))
                out = np.zeros((bra.npair, na, nb_, ket.npair, nc, nd))
                out[np.ix_(keep_b, np.arange(na), np.arange(nb_), keep_k)] = sub
                return out
        la, lb = bra.la, bra.lb
        lbra = la + lb
        e3b = _e3_components(bra.e_tensors(), la, lb, hermite_combos(lbra),
                             weights=bra.cc)
        out = self._coulomb_core(bra, ket, e3b[None, :, :, :], lbra)[0]
        return out.reshape(bra.npair, na, nb_, ket.npair, nc, nd)

    def coulomb_block_deriv(self, bra: PairBlock, ket: PairBlock) -> np.ndarray:
        """Bra-a-center derivative of the Coulomb interaction.

        Returns shape ``(3, npair_bra, na, nb, npair_ket, nc, nd)`` —
        one slab per derivative direction.
        """
        la, lb = bra.la, bra.lb
        lbra = la + lb + 1
        exb = bra.e_tensors(da=1)
        e3d = _e3_deriv_components(exb, bra.a, la, lb, hermite_combos(lbra),
                                   weights=bra.cc)
        out = self._coulomb_core(bra, ket, e3d, lbra)
        na, nb_ = len(components(la)), len(components(lb))
        nc, nd = len(components(ket.la)), len(components(ket.lb))
        return out.reshape(3, bra.npair, na, nb_, ket.npair, nc, nd)

    def _coulomb_core(
        self,
        bra: PairBlock,
        ket: PairBlock,
        e3b: np.ndarray,
        lbra: int,
        ket_stack: np.ndarray | None = None,
        element_budget: int = 400_000,
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Shared Coulomb contraction over stacked bra E3 variants.

        ``e3b`` has shape (nvariants, nprim_bra, nab, ncombos_b) over
        ``hermite_combos(lbra)``. Both sides are chunked so the cross R
        tensor stays within the element budget (times the Hermite
        component count). Returns (nvariants, npair_bra, nab,
        npair_ket, ncd).

        Per chunk, R is built once in the compact layout, scaled by the
        Coulomb prefactor, and gathered to the (bra combo, ket combo)
        table. The contraction
        ``xPiak,kmPiQj,Qjcm->xPaQc`` (bra pair P, its primitive i, ket
        pair Q, its primitive j) sums both primitive axes inside its two
        GEMMs, so no per-primitive value is ever formed.

        ``ket_stack`` optionally holds unsigned ket E3 variants
        (nvariants_k, nprim_ket, ncd, ncombos) over
        ``hermite_combos(ket.la + ket.lb + 1)``, i.e. ket derivatives
        while ``e3b`` holds bra derivatives. The same R(P-Q) chunk then
        also gives the swapped orientation (ket variant | plain bra):
        R_tuv(Q-P) = (-1)^(t+u+v) R_tuv(P-Q), so the ket variants take
        the sign and the plain bra E3 does not. The second result is
        (nvariants_k, npair_bra, nab, npair_ket, ncd) and the method
        returns both.
        """
        lket = ket.la + ket.lb
        e3k = _e3_components(
            ket.e_tensors(), ket.la, ket.lb, hermite_combos(lket), sign=True,
            weights=ket.cc,
        )
        nvar, _, nab, ncb = e3b.shape
        ncd, nck = e3k.shape[1:]
        k2b, k2k = bra.k2, ket.k2
        npk, nkp = ket.npair, ket.nprim
        # GEMM operands: bra (P, x a, i k) and ket (Q, m j, c)
        e3b = e3b.reshape(nvar, bra.npair, k2b, nab, ncb).transpose(
            1, 0, 3, 2, 4).reshape(bra.npair, nvar * nab, k2b * ncb)
        e3k = e3k.reshape(npk, k2k, ncd, nck).transpose(0, 3, 1, 2).reshape(
            npk, nck * k2k, ncd)
        ltot = lbra + lket
        gather = _combined_index(lbra, lket)
        out = np.empty((nvar, bra.npair, nab, npk, ncd))
        if ket_stack is not None:
            lb0 = lbra - 1
            e3b0 = _e3_components(
                bra.e_tensors(), bra.la, bra.lb, hermite_combos(lb0),
                weights=bra.cc,
            )
            ncb0 = e3b0.shape[2]
            e3b0 = e3b0.reshape(bra.npair, k2b, nab, ncb0).transpose(
                0, 2, 1, 3).reshape(bra.npair, nab, k2b * ncb0)
            parity = np.array([(-1.0) ** sum(c)
                               for c in hermite_combos(lket + 1)])
            nvk, _, _, nckd = ket_stack.shape
            e3kd = (ket_stack * parity).reshape(
                nvk, npk, k2k, ncd, nckd).transpose(1, 4, 2, 0, 3).reshape(
                npk, nckd * k2k, nvk * ncd)
            gather_k = _combined_index(lb0, lket + 1)
            out_k = np.empty((nvk, bra.npair, nab, npk, ncd))
        bchunk = max(1, element_budget // max(1, nkp))
        npairs_per_chunk = max(1, bchunk // k2b)
        for start in range(0, bra.npair, npairs_per_chunk):  # qf: shell-loop — chunked over the element budget; body vectorized
            stop = min(start + npairs_per_chunk, bra.npair)
            npb = stop - start
            nbp = npb * k2b
            bs = slice(start * k2b, stop * k2b)
            pb = bra.p[bs][:, None]
            pk = ket.p[None, :]
            alpha = pb * pk / (pb + pk)
            pref = 2.0 * math.pi ** 2.5 / (pb * pk * np.sqrt(pb + pk))
            pq = bra.pc[bs][:, None, :] - ket.pc[None, :, :]
            r = hermite_coulomb_vec(ltot, alpha.ravel(), pq.reshape(-1, 3))
            # bra-primitive-major copy (P i, combo, Q j), scaled by pref:
            # each gather below then copies whole (Q j) runs straight
            # into its GEMM layout
            rt = np.multiply(r.reshape(-1, nbp, nkp).transpose(1, 0, 2),
                             pref[:, None, :], order="C")
            del r
            # (P, x a, i k) @ (P, i k, m Q j): bra primitives and combos
            t1 = e3b[start:stop] @ rt.take(gather, axis=1).reshape(
                npb, k2b * ncb, nck * nkp)
            # (Q, P x a, m j) @ (Q, m j, c): ket primitives and combos
            t1 = t1.reshape(npb * nvar * nab, nck, npk, k2k).transpose(
                2, 0, 1, 3).reshape(npk, npb * nvar * nab, nck * k2k)
            out[:, start:stop] = (t1 @ e3k).reshape(
                npk, npb, nvar, nab, ncd).transpose(2, 1, 3, 0, 4)
            self._record_class_gemm(npb, nvar * nab, nck * nkp, k2b * ncb)
            self._record_class_gemm(npk, npb * nvar * nab, ncd, nck * k2k)
            if ket_stack is None:
                continue
            # the (ket variant | plain bra) twin: Piak,kmPiQj,yQjcm->yPaQc
            t1 = e3b0[start:stop] @ rt.take(gather_k, axis=1).reshape(
                npb, k2b * ncb0, nckd * nkp)
            t1 = t1.reshape(npb * nab, nckd, npk, k2k).transpose(
                2, 0, 1, 3).reshape(npk, npb * nab, nckd * k2k)
            out_k[:, start:stop] = (t1 @ e3kd).reshape(
                npk, npb, nab, nvk, ncd).transpose(3, 1, 2, 0, 4)
            self._record_class_gemm(npb, nab, nckd * nkp, k2b * ncb0)
            self._record_class_gemm(npk, npb * nab, nvk * ncd, nckd * k2k)
        if ket_stack is None:
            return out
        return out, out_k

    def eri(self) -> np.ndarray:
        """Exact ERI tensor (chemists' notation (ab|cd)), full nbf^4.

        Intended for small systems (tests, tiny fragments); production
        fragment SCF uses density fitting. With a positive
        :attr:`schwarz_cutoff`, shell-pair combinations bounded below
        the cutoff are skipped (their entries are exact zeros).
        """
        nbf = self.nbf
        with get_tracer().span("integrals.eri", nbf=nbf):
            out = np.zeros((nbf, nbf, nbf, nbf))
            bounds = (
                self._bounds_self() if self.schwarz_cutoff > 0.0
                else [None] * len(self.blocks)
            )
            for bi, bra in enumerate(self.blocks):
                for ki, ket in enumerate(self.blocks):
                    if ki < bi:
                        continue
                    vals = self.coulomb_block(bra, ket, q_bra=bounds[bi],
                                              q_ket=bounds[ki])
                    scatter_eri(out, bra, ket, vals)
        return out


# ---------------------------------------------------------------------------
# dummy-paired blocks for density fitting (single functions as "pairs")
# ---------------------------------------------------------------------------

def single_shell_blocks(shells: list[Shell], offsets: list[int]) -> list[PairBlock]:
    """PairBlocks of (shell, zero-exponent dummy) pairs.

    A single contracted function phi_P can be treated as the Gaussian
    product phi_P * 1 where 1 = exp(-0 r^2) on the same center: all the
    pair machinery (E coefficients, Coulomb interaction) then yields
    2- and 3-center integrals for free.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for idx, sh in enumerate(shells):  # qf: shell-loop — class grouping prepass, not the kernel
        groups.setdefault((sh.l, len(sh.exps)), []).append(idx)
    blocks: list[PairBlock] = []
    for (l, k), idxs in sorted(groups.items()):
        n = len(idxs)
        a = np.empty((n, k))
        cc = np.empty((n, k))
        centers = np.empty((n, 3))
        off = np.empty(n, dtype=int)
        atom = np.empty(n, dtype=int)
        for r, i in enumerate(idxs):
            sh = shells[i]
            a[r] = sh.exps
            cc[r] = sh.coefs
            centers[r] = sh.center
            off[r] = offsets[i]
            atom[r] = sh.atom_index
        pc = np.repeat(centers, k, axis=0)
        blocks.append(
            PairBlock(
                la=l, lb=0, k2=k,
                ishell=np.array(idxs), jshell=np.array(idxs),
                off_a=off, off_b=np.zeros(n, dtype=int),
                atom_a=atom, atom_b=atom,
                a=a.ravel(), b=np.zeros(n * k), cc=cc.ravel(),
                ab_vec=np.zeros((n, 3)), centers_a=centers,
                p=a.ravel().copy(), pc=pc,
            )
        )
    return blocks


def _e3_deriv_components(
    ex: list[np.ndarray],
    exps_a: np.ndarray,
    la: int,
    lb: int,
    combos: tuple[tuple[int, int, int], ...],
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Bra-center derivative E3 tensors.

    ``ex`` must be built with ``da=1`` (index room for la+1). Uses
    dE(i,j,t)/dAx = 2a E(i+1,j,t) - i E(i-1,j,t) in the derivative
    dimension, plain E elsewhere. Returns shape
    ``(3, nprim, ncomp_a*ncomp_b, ncombos)``.
    """
    comps_a = components(la)
    comps_b = components(lb)
    nprim = ex[0].shape[0]
    out = np.zeros((3, nprim, len(comps_a) * len(comps_b), len(combos)))
    for ia, ca in enumerate(comps_a):
        for ib, cb in enumerate(comps_b):
            col = ia * len(comps_b) + ib
            # per-dimension plain and derivative 1D coefficient vectors
            for k, (t, u, v) in enumerate(combos):
                tuv = (t, u, v)
                for d in range(3):
                    # derivative acts on dimension d
                    parts = []
                    ok = True
                    for dim in range(3):
                        i_a, i_b, herm = ca[dim], cb[dim], tuv[dim]
                        if dim == d:
                            if herm > i_a + i_b + 1:
                                ok = False
                                break
                            val = 2.0 * exps_a * ex[dim][:, i_a + 1, i_b, herm]
                            if i_a > 0:
                                val = val - i_a * ex[dim][:, i_a - 1, i_b, herm]
                        else:
                            if herm > i_a + i_b:
                                ok = False
                                break
                            val = ex[dim][:, i_a, i_b, herm]
                        parts.append(val)
                    if not ok:
                        continue
                    out[d, :, col, k] = parts[0] * parts[1] * parts[2]
    if weights is not None:
        out *= weights[None, :, None, None]
    return out


def _e3_deriv_components_b(
    ex: list[np.ndarray],
    exps_b: np.ndarray,
    la: int,
    lb: int,
    combos: tuple[tuple[int, int, int], ...],
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Ket-center derivative E3 tensors (dE/dBx = 2b E(i,j+1,t) - j E(i,j-1,t)).

    ``ex`` must be built with ``db=1``. Shape (3, nprim, nab, ncombos).
    """
    comps_a = components(la)
    comps_b = components(lb)
    nprim = ex[0].shape[0]
    out = np.zeros((3, nprim, len(comps_a) * len(comps_b), len(combos)))
    for ia, ca in enumerate(comps_a):
        for ib, cb in enumerate(comps_b):
            col = ia * len(comps_b) + ib
            for k, (t, u, v) in enumerate(combos):
                tuv = (t, u, v)
                for d in range(3):
                    parts = []
                    ok = True
                    for dim in range(3):
                        i_a, i_b, herm = ca[dim], cb[dim], tuv[dim]
                        if dim == d:
                            if herm > i_a + i_b + 1:
                                ok = False
                                break
                            val = 2.0 * exps_b * ex[dim][:, i_a, i_b + 1, herm]
                            if i_b > 0:
                                val = val - i_b * ex[dim][:, i_a, i_b - 1, herm]
                        else:
                            if herm > i_a + i_b:
                                ok = False
                                break
                            val = ex[dim][:, i_a, i_b, herm]
                        parts.append(val)
                    if not ok:
                        continue
                    out[d, :, col, k] = parts[0] * parts[1] * parts[2]
    if weights is not None:
        out *= weights[None, :, None, None]
    return out


def _e3_deriv_ab_stack(blk: PairBlock) -> np.ndarray:
    """Fused d/dA, d/dB E3 stack of a pair block.

    Shape (6, nprim, nab, ncombos) over ``hermite_combos(la + lb + 1)``:
    variants 0-2 are d/dA{x,y,z}, 3-5 are d/dB{x,y,z}, contraction
    weights applied.
    """
    l1 = blk.la + blk.lb + 1
    combos = hermite_combos(l1)
    ex = blk.e_tensors(da=1, db=1)
    e3a = _e3_deriv_components(ex, blk.a, blk.la, blk.lb, combos,
                               weights=blk.cc)
    e3b = _e3_deriv_components_b(ex, blk.b, blk.la, blk.lb, combos,
                                 weights=blk.cc)
    return np.concatenate([e3a, e3b], axis=0)


# ---------------------------------------------------------------------------
# derivative one-electron integrals (bra-slot convention)
# ---------------------------------------------------------------------------
#
# All derivative builders return arrays D[x, mu, nu, ...] where the
# entry is the derivative of the integral with bra function mu and ket
# function nu with respect to the *center of mu's shell* ("bra slot").
# The derivative with respect to the ket center follows from symmetry:
# d(mu nu)/dB = D[x, nu, mu] for symmetric operators (S, T, V, and the
# 3-center bra pair). Gradient assembly in repro.dfpt.gradient sums the
# slots belonging to each atom.

class _DerivMixin:
    """Derivative integrals, mixed into IntegralEngine."""

    def _ordered(self) -> list[PairBlock]:
        """Blocks of all ordered (i, j) shell pairs, built once."""
        if not hasattr(self, "_ordered_cache"):
            shells = self.basis.shells
            pairs = [(i, j) for i in range(len(shells))
                     for j in range(len(shells))]
            self._ordered_cache = build_pair_blocks(
                shells, self.basis.offsets, pairs, canonicalize=False
            )
        return self._ordered_cache

    def overlap_deriv(self) -> np.ndarray:
        """dS[x, mu, nu] = dS_{mu nu}/d(bra center), shape (3, nbf, nbf)."""
        out = np.zeros((3, self.nbf, self.nbf))
        for blk in self._ordered():
            ex = blk.e_tensors(da=1)
            comps_a = components(blk.la)
            comps_b = components(blk.lb)
            pref = (math.pi / blk.p) ** 1.5 * blk.cc
            for d in range(3):
                vals = np.empty((blk.npair, len(comps_a), len(comps_b)))
                for ia, ca in enumerate(comps_a):
                    for ib, cb in enumerate(comps_b):
                        parts = []
                        for dim in range(3):
                            if dim == d:
                                v = 2.0 * blk.a * ex[dim][:, ca[dim] + 1, cb[dim], 0]
                                if ca[dim] > 0:
                                    v = v - ca[dim] * ex[dim][:, ca[dim] - 1, cb[dim], 0]
                            else:
                                v = ex[dim][:, ca[dim], cb[dim], 0]
                            parts.append(v)
                        prim = parts[0] * parts[1] * parts[2] * pref
                        vals[:, ia, ib] = prim.reshape(blk.npair, blk.k2).sum(axis=1)
                scatter_ordered(out[d], blk, vals)
        return out

    def kinetic_deriv(self) -> np.ndarray:
        """dT[x, mu, nu] under the bra-slot convention."""
        out = np.zeros((3, self.nbf, self.nbf))
        for blk in self._ordered():
            ex = blk.e_tensors(da=1, db=2)
            comps_a = components(blk.la)
            comps_b = components(blk.lb)
            pref = (math.pi / blk.p) ** 1.5 * blk.cc

            def ds00(axs, bxs, d):
                parts = []
                for dim in range(3):
                    if dim == d:
                        v = 2.0 * blk.a * ex[dim][:, axs[dim] + 1, bxs[dim], 0]
                        if axs[dim] > 0:
                            v = v - axs[dim] * ex[dim][:, axs[dim] - 1, bxs[dim], 0]
                    else:
                        v = ex[dim][:, axs[dim], bxs[dim], 0]
                    parts.append(v)
                return parts[0] * parts[1] * parts[2]

            for d in range(3):
                vals = np.empty((blk.npair, len(comps_a), len(comps_b)))
                for ia, ca in enumerate(comps_a):
                    for ib, cb in enumerate(comps_b):
                        i, j, k = cb
                        term = blk.b * (2 * (i + j + k) + 3) * ds00(ca, cb, d)
                        for dd, inc in enumerate(((2, 0, 0), (0, 2, 0), (0, 0, 2))):
                            cb2 = (cb[0] + inc[0], cb[1] + inc[1], cb[2] + inc[2])
                            term = term - 2.0 * blk.b ** 2 * ds00(ca, cb2, d)
                            if cb[dd] >= 2:
                                cbm = (
                                    cb[0] - inc[0], cb[1] - inc[1], cb[2] - inc[2]
                                )
                                term = term - 0.5 * cb[dd] * (cb[dd] - 1) * ds00(
                                    ca, cbm, d
                                )
                        prim = term * pref
                        vals[:, ia, ib] = prim.reshape(blk.npair, blk.k2).sum(axis=1)
                scatter_ordered(out[d], blk, vals)
        return out

    def nuclear_deriv(self) -> tuple[np.ndarray, np.ndarray]:
        """Nuclear-attraction derivatives.

        Returns ``(dv_bra, dv_nuc)``:

        * ``dv_bra[x, mu, nu]`` — bra-slot derivative summed over nuclei,
        * ``dv_nuc[x, C, mu, nu]`` — Hellmann–Feynman derivative with
          respect to nucleus C's position (operator-center derivative,
          obtained from the raised-index Hermite Coulomb tensor).
        """
        natm = self.charges.size
        dv_bra = np.zeros((3, self.nbf, self.nbf))
        dv_nuc = np.zeros((3, natm, self.nbf, self.nbf))
        for blk in self._ordered():
            la, lb = blk.la, blk.lb
            l_tot = la + lb + 1
            combos = hermite_combos(l_tot)
            ex = blk.e_tensors(da=1)
            e3d = _e3_deriv_components(ex, blk.a, la, lb, combos, weights=blk.cc)
            combos0 = hermite_combos(la + lb)
            e3p = _e3_components(
                [e[:, : la + 1] for e in ex], la, lb, combos0, weights=blk.cc
            )
            npair, k2 = blk.npair, blk.k2
            pc = blk.pc[:, None, :] - self.coords[None, :, :]
            p_rep = np.repeat(blk.p, natm)
            # one extra index for both the bra-derivative (l_tot) and the
            # operator derivative (raised index on the plain combos)
            r = hermite_coulomb_vec(l_tot, p_rep, pc.reshape(-1, 3))
            r *= 2.0 * math.pi / p_rep
            na = len(components(la))
            nb = len(components(lb))

            # bra-slot derivative, primitives folded into the contraction
            contrib = np.einsum(
                "dPick,kPia->dPac",
                e3d.reshape(3, npair, k2, -1, len(combos)),
                r.reshape(len(combos), npair, k2, natm), optimize=True,
            )
            total = -(contrib * self.charges[None, None, :, None]).sum(axis=2)
            for d in range(3):
                scatter_ordered(dv_bra[d], blk, total[d].reshape(npair, na, nb))

            # Hellmann-Feynman: d/dCx R_tuv(P - C) = -(-R_{t+1,u,v}) = R with
            # raised index and opposite sign of the P-derivative
            rr = r[_raised_index(la + lb)]           # (3, ncombos0, nprim*natm)
            contrib = np.einsum(
                "Pick,dkPia->dPac",
                e3p.reshape(npair, k2, -1, len(combos0)),
                rr.reshape(3, len(combos0), npair, k2, natm), optimize=True,
            )
            for d in range(3):
                for c in range(natm):
                    # V = -Z (ab|C); d/dC = -Z * (+R_{raised}) ... sign: the
                    # R tensor is built on (P - C), so d/dCx = -d/d(PC)_x,
                    # and d/d(PC)_x R_tuv = R_{t+1,u,v}. Hence total sign +Z.
                    vals = self.charges[c] * contrib[d, :, c, :].reshape(
                        npair, na, nb
                    )
                    scatter_ordered(dv_nuc[d, c], blk, vals)
        return dv_bra, dv_nuc

    def _coulomb_block_deriv_ab(
        self,
        bra: PairBlock,
        ket: PairBlock,
        stack: np.ndarray,
    ) -> np.ndarray:
        """Both bra-slot derivatives in one pass (shared R tensor).

        ``stack`` is ``_e3_deriv_ab_stack(bra)``, which the caller builds
        once per bra block and reuses across kets. Returns
        (6, npb, na, nb, npk, nc, nd): slabs 0-2 are d/dA{x,y,z}, slabs
        3-5 are d/dB{x,y,z}. Roughly half the cost of two separate
        ordered-pair derivative builds because the Hermite Coulomb tensor —
        the dominant term — is computed once.
        """
        out = self._coulomb_core(bra, ket, stack, bra.la + bra.lb + 1)
        na, nb_ = len(components(bra.la)), len(components(bra.lb))
        nc, nd = len(components(ket.la)), len(components(ket.lb))
        return out.reshape(6, bra.npair, na, nb_, ket.npair, nc, nd)

    # -- density-fitting and exact-ERI derivatives ----------------------------

    def three_center_deriv(self, aux_blocks: list[PairBlock], naux: int
                           ) -> np.ndarray:
        """d(ab|P)/d(center of a), shape (3, nbf, nbf, naux).

        Covers all ordered (a, b) from the canonical (i <= j) pairs with
        fused dA/dB variants: the [nu, mu] entries come from the dB slabs
        transposed. The aux-center derivative follows from translational
        invariance: d/dP = -(d/dA + d/dB).
        """
        out = np.zeros((3, self.nbf, self.nbf, naux))
        for bra in self.blocks:
            stack = _e3_deriv_ab_stack(bra)
            for ket in aux_blocks:
                vals = self._coulomb_block_deriv_ab(bra, ket, stack)
                for d in range(3):
                    scatter_pairs_aux(out[d], bra, ket,
                                      vals[d, :, :, :, :, :, 0],
                                      vals_t=vals[3 + d, :, :, :, :, :, 0])
        return out

    def two_center_deriv(self, aux_blocks: list[PairBlock], naux: int
                         ) -> np.ndarray:
        """d(P|Q)/d(center of P), shape (3, naux, naux), all ordered (P, Q)."""
        out = np.zeros((3, naux, naux))
        for bra in aux_blocks:
            for ket in aux_blocks:
                vals = self.coulomb_block_deriv(bra, ket)
                for d in range(3):
                    scatter_pairs_2c(out[d], bra, ket,
                                     vals[d, :, :, 0, :, :, 0])
        return out

    def eri_deriv(self) -> np.ndarray:
        """dA-slot derivative of the exact ERI tensor.

        Shape (3, nbf, nbf, nbf, nbf): entry [x, mu, nu, lm, sg] is
        d(mu nu|lm sg)/d(center of mu). Each unordered pair of canonical
        blocks (bra <= ket) shares one Hermite Coulomb tensor per chunk,
        which yields all four center derivatives: the fused dA/dB
        stack of the bra against the ket, and for bra != ket the fused
        dC/dD stack of the ket against the bra, i.e. the slots of
        (ket|bra). Small systems only (nbf^4 memory).
        """
        nbf = self.nbf
        out = np.zeros((3, nbf, nbf, nbf, nbf))
        blocks = self.blocks
        stacks = [_e3_deriv_ab_stack(blk) for blk in blocks]
        for bi, bra in enumerate(blocks):  # qf: shell-loop — one iteration per unordered class-block pair; body vectorized
            stack_b = stacks[bi]
            lbra = bra.la + bra.lb + 1
            for ki in range(bi, len(blocks)):  # qf: shell-loop — one iteration per unordered class-block pair; body vectorized
                ket = blocks[ki]
                shape = (6, bra.npair, len(components(bra.la)),
                         len(components(bra.lb)), ket.npair,
                         len(components(ket.la)), len(components(ket.lb)))
                if ki == bi:
                    # (bra|bra) already covers every ordered pair combination
                    vals = self._coulomb_core(bra, ket, stack_b, lbra)
                    scatter_eri_deriv_ab(out, bra, ket, vals.reshape(shape))
                    continue
                vals, vals_k = self._coulomb_core(bra, ket, stack_b, lbra,
                                                  ket_stack=stacks[ki])
                scatter_eri_deriv_ab(out, bra, ket, vals.reshape(shape))
                # (6, bra pair, ab, ket pair, cd) -> ket-major for (ket|bra)
                scatter_eri_deriv_ab(
                    out, ket, bra,
                    vals_k.reshape(shape).transpose(0, 4, 5, 6, 1, 2, 3),
                )
        return out


# graft the mixin onto IntegralEngine (kept separate for readability)
for _name in ("_ordered", "overlap_deriv", "kinetic_deriv", "nuclear_deriv",
              "_coulomb_block_deriv_ab", "three_center_deriv",
              "two_center_deriv", "eri_deriv"):
    setattr(IntegralEngine, _name, getattr(_DerivMixin, _name))
