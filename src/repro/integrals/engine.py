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

The two-electron builds also run displacement-local: handed the
:class:`BaseIntegrals` of a geometry that differs only in the position
of some atoms, they recompute just the elements that involve a function
(orbital or auxiliary) on a moved atom and copy the rest. A full build
is the same loop with every atom counted as moved.

Validation: every public method is tested against the scalar reference
in ``tests/integrals/mcmurchie.py`` and against finite differences, and
the pair-block build, the scatters and the E3 builder against the loop
oracle in ``tests/integrals/oracle.py``, which also keeps the ordered-bra
``eri_deriv`` build as the value oracle of the unordered-block one. A
local build is tested against the full build at the same geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.basis.gaussian import BasisSet, Shell
from repro.integrals.batched import (
    build_pair_blocks,
    scatter_eri,
    scatter_eri_deriv_ab,
    scatter_metric,
    scatter_ordered,
    scatter_pairs_2c,
    scatter_pairs_aux,
    scatter_symmetric,
)
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
    # deferred: scipy.special costs ~70 ms of import time, and the
    # table is built once per process, on first use
    from scipy.special import gammainc, gammaln

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

    @property
    def dims(self) -> tuple[int, int, int]:
        """(npair, ncomp_a, ncomp_b): the leading axes of its values."""
        return self.npair, len(components(self.la)), len(components(self.lb))

    def e_tensors(self, da: int = 0, db: int = 0) -> list[np.ndarray]:
        """E coefficient tensors for the three dimensions, each of shape
        ``(nprim, la+da+1, lb+db+1, la+da+lb+db+1)``."""
        qx = np.repeat(self.ab_vec, self.k2, axis=0)
        return [
            e_coeffs_1d(self.la + da, self.lb + db, self.a, self.b, qx[:, d])
            for d in range(3)
        ]

    def prim_rows(self, arr: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Rows of a primitive-major ``(npair*k2, ...)`` array that
        belong to the pairs in ``idx``."""
        shaped = arr.reshape(self.npair, self.k2, *arr.shape[1:])
        return shaped[idx].reshape(idx.size * self.k2, *arr.shape[1:])

    def subset(self, idx: np.ndarray) -> "PairBlock":
        """View of this block restricted to the pairs in ``idx``: the
        touched or untouched pairs of a displacement-local build."""
        def prim(arr: np.ndarray) -> np.ndarray:
            return self.prim_rows(arr, idx)

        return PairBlock(
            la=self.la, lb=self.lb, k2=self.k2,
            ishell=self.ishell[idx], jshell=self.jshell[idx],
            off_a=self.off_a[idx], off_b=self.off_b[idx],
            atom_a=self.atom_a[idx], atom_b=self.atom_b[idx],
            a=prim(self.a), b=prim(self.b), cc=prim(self.cc),
            ab_vec=self.ab_vec[idx], centers_a=self.centers_a[idx],
            p=prim(self.p), pc=prim(self.pc),
        )


# ---------------------------------------------------------------------------
# displacement-local builds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BaseIntegrals:
    """Two-electron tensors of a base geometry and the atoms moved since.

    A build handed one recomputes only the elements that involve a
    function (orbital or auxiliary) on an atom in ``moved`` and copies
    every other element from its base tensor; with ``moved`` empty it
    returns a copy of the base tensor. One path fills the exact fields
    (``eri``, ``eri_deriv``), the other the density-fitting ones.
    """

    moved: tuple[int, ...] = ()
    eri: np.ndarray | None = None
    eri_deriv: np.ndarray | None = None
    j3c: np.ndarray | None = None
    v2c: np.ndarray | None = None
    three_center_deriv: np.ndarray | None = None
    two_center_deriv: np.ndarray | None = None


@dataclass
class _Side:
    """Pairs of one block selected for a build: a subset view of the
    block (or the block itself) and its operand stacks."""

    blk: PairBlock
    ops: tuple[np.ndarray, ...]


def _rows(blk: PairBlock, stack: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Rows of an ``(nvar, nprim, ...)`` operand stack that belong to the
    pairs in ``idx``."""
    shaped = stack.reshape(stack.shape[0], blk.npair, blk.k2, *stack.shape[2:])
    return shaped[:, idx].reshape(stack.shape[0], idx.size * blk.k2,
                                  *stack.shape[2:])


def _on(atoms: np.ndarray, moved: tuple[int, ...]) -> np.ndarray:
    """Mask of the entries of ``atoms`` that are moved atoms."""
    return (atoms[:, None] == np.asarray(moved, dtype=atoms.dtype)).any(axis=1)


def _split(blk: PairBlock, ops: tuple[np.ndarray, ...],
           base: BaseIntegrals | None) -> tuple[_Side | None, _Side | None]:
    """The (touched, untouched) pairs of one block: those with a function
    on an atom of ``base.moved`` and the rest, None where empty. A full
    build (no ``base``) counts every atom as moved: the touched side is
    the whole block and nothing is copied."""
    if base is None:
        return _Side(blk, ops), None
    hit = _on(blk.atom_a, base.moved) | _on(blk.atom_b, base.moved)

    def side(idx):
        if not idx.size:
            return None
        return _Side(blk.subset(idx), tuple(_rows(blk, op, idx) for op in ops))

    return side(np.nonzero(hit)[0]), side(np.nonzero(~hit)[0])


def _parts(bra: tuple[_Side | None, _Side | None], ket_whole: _Side,
           ket_touched: _Side | None) -> list[tuple[_Side, _Side]]:
    """The (bra, ket) selections that cover every pair combination
    touching a moved atom once: the touched bra pairs against the whole
    ket block, then the untouched bra pairs against the touched ket
    pairs. A full build has one part, the two whole blocks."""
    touched, untouched = bra
    parts = []
    if touched is not None:
        parts.append((touched, ket_whole))
    if untouched is not None and ket_touched is not None:
        parts.append((untouched, ket_touched))
    return parts


def _function_mask(blocks: list[PairBlock], nfunc: int,
                   moved: tuple[int, ...]) -> np.ndarray:
    """Boolean mask of the functions on a moved atom, over the ``nfunc``
    functions the blocks' bra shells index (every shell of a basis is
    the bra of its own diagonal pair)."""
    mask = np.zeros(nfunc, dtype=bool)
    for blk in blocks:
        first = blk.off_a[_on(blk.atom_a, moved)]
        mask[(first[:, None] + np.arange(blk.dims[1])).ravel()] = True
    return mask


def _start(shape: tuple[int, ...], base: BaseIntegrals | None, name: str,
           axes: list[tuple[int, list[PairBlock]]]) -> np.ndarray:
    """Output of a build: zeros for a full build (no ``base``), else a
    copy of the base tensor ``name`` with every element that involves a
    function on a moved atom zeroed, for the build to recompute.
    ``axes`` pairs each function axis with the blocks that index it."""
    if base is None:
        return np.zeros(shape)
    tensor = getattr(base, name)
    if tensor is None or tensor.shape != shape:
        raise ValueError(f"base {name} is missing or not of shape {shape}")
    out = tensor.copy()
    for axis, blocks in axes:
        mask = _function_mask(blocks, shape[axis], base.moved)
        out[(slice(None),) * axis + (mask,)] = 0.0
    return out


# ---------------------------------------------------------------------------
# the Hermite product tensor E3
# ---------------------------------------------------------------------------

def _e_deriv(e: np.ndarray, exps: np.ndarray, centre: int) -> np.ndarray:
    """Centre derivative of one dimension's E tensor.

    ``e`` is an ``(nprim, i, j, t)`` tensor built one index higher on
    the differentiated centre (``e_tensors(da=1)`` for A, ``db=1`` for
    B) and ``exps`` holds that centre's exponents. Along the centre's
    axis (i for ``centre`` 0, j for 1) the Hermite rule
    dE^{ij}_t/dA_x = 2a E^{i+1,j}_t - i E^{i-1,j}_t gives a tensor one
    row shorter there, nonzero up to t <= i + j + 1.
    """
    e = np.moveaxis(e, 1 + centre, 1)
    n = e.shape[1] - 1
    out = (2.0 * exps)[:, None, None, None] * e[:, 1:]
    out[:, 1:] -= np.arange(1, n)[:, None, None] * e[:, : n - 1]
    return np.moveaxis(out, 1, 1 + centre)


def _swapped(ex: list[np.ndarray], blk: PairBlock, d: int, centre: int = 0
             ) -> list[np.ndarray]:
    """``ex`` with dimension d's tensor swapped for its :func:`_e_deriv`
    on ``centre`` (0 for A, 1 for B; ``ex`` built one index higher
    there): the E tensors of the centre's d-derivative."""
    return [_e_deriv(e, (blk.a, blk.b)[centre], centre) if k == d else e
            for k, e in enumerate(ex)]


@lru_cache(maxsize=None)
def _e3_plan(la: int, lb: int, lherm: int, raised: int,
             shapes: tuple[tuple[int, int, int], ...]
             ) -> tuple[np.ndarray, np.ndarray]:
    """Gather plan of one E3 product.

    Lists the structurally nonzero entries of the (component pair,
    Hermite combo) table of class (la, lb) over
    ``hermite_combos(lherm)``: t <= i + j in every dimension, one more
    in dimension ``raised`` (an :func:`_e_deriv` tensor; -1 for none).
    Returns the flat index of each entry into each dimension's
    ``(i, j, t)`` tensor of shape ``shapes[d]``, shape (3, nnz), and
    its flat column in the ``ncomp_a * ncomp_b * ncombos`` output.
    """
    comps_b = components(lb)
    combos = hermite_combos(lherm)
    rows, cols = [], []
    for ia, ca in enumerate(components(la)):
        for ib, cb in enumerate(comps_b):
            col = (ia * len(comps_b) + ib) * len(combos)
            for k, tuv in enumerate(combos):
                if all(tuv[d] <= ca[d] + cb[d] + (d == raised)
                       for d in range(3)):
                    rows.append([np.ravel_multi_index(
                        (ca[d], cb[d], tuv[d]), shapes[d]) for d in range(3)])
                    cols.append(col + k)
    plan = np.array(rows, dtype=np.intp).T.copy(), np.array(cols, dtype=np.intp)
    for table in plan:
        table.setflags(write=False)
    return plan


def _e3(blk: PairBlock, ex: list[np.ndarray],
        centres: tuple[int, ...] = ()) -> np.ndarray:
    """Hermite product tensors E3 of a pair block.

    Shape ``(nvar, nprim, ncomp_a * ncomp_b, ncombos(lherm))``: entry
    ``[x, p, (ca, cb), k]`` is ``w_p Ex[ax, bx, t] Ey[ay, by, u]
    Ez[az, bz, v]`` for ``hermite_combos(lherm)[k] = (t, u, v)`` and
    contraction weight ``w_p = blk.cc[p]``. With no ``centres`` there
    is one plain variant of ``ex`` over lherm = la + lb. Otherwise each
    centre (0 for A, 1 for B; ``ex`` built one index higher there)
    gives three variants, d/dx, d/dy, d/dz: the same product on
    :func:`_swapped` tensors, over lherm = la + lb + 1. Only the
    :func:`_e3_plan` entries are gathered; every other entry is an
    exact zero.
    """
    variants = [(_swapped(ex, blk, d, c), d)
                for c in centres for d in range(3)] or [(ex, -1)]
    nprim = blk.nprim
    nab = blk.dims[1] * blk.dims[2]
    lherm = blk.la + blk.lb + bool(centres)
    nk = ncombos(lherm)
    out = np.zeros((len(variants), nprim, nab * nk))
    w = blk.cc[:, None]
    for x, (ev, raised) in enumerate(variants):
        src, cols = _e3_plan(blk.la, blk.lb, lherm, raised,
                             tuple(e.shape[1:] for e in ev))
        vals = ev[0].reshape(nprim, -1).take(src[0], axis=1)
        vals *= ev[1].reshape(nprim, -1).take(src[1], axis=1)
        vals *= ev[2].reshape(nprim, -1).take(src[2], axis=1)
        vals *= w
        out[x][:, cols] = vals
    return out.reshape(len(variants), nprim, nab, nk)


def _lherm(blk: PairBlock, e3: np.ndarray) -> int:
    """Hermite order of an :func:`_e3` stack: la + lb for its one plain
    variant, one more for derivative variants (three per centre)."""
    return blk.la + blk.lb + int(e3.shape[0] > 1)


def _signed(blk: PairBlock, e3: np.ndarray) -> np.ndarray:
    """The ket form of an :func:`_e3` stack: times (-1)^(t+u+v), since
    R_tuv(Q - P) = (-1)^(t+u+v) R_tuv(P - Q). Exact (a sign flip)."""
    parity = [(-1.0) ** sum(c) for c in hermite_combos(_lherm(blk, e3))]
    return e3 * np.array(parity)


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
# one-electron block kernels
# ---------------------------------------------------------------------------
#
# Both read the t = 0 column of the E tensors only, so a centre
# derivative is the same kernel on tensors with one dimension swapped
# for its _e_deriv.

def _overlap_block(blk: PairBlock, ex: list[np.ndarray]) -> np.ndarray:
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
    return out


def _kinetic_block(blk: PairBlock, ex: list[np.ndarray]) -> np.ndarray:
    """(npair, na, nb) kinetic values from E tensors built with db=2."""
    comps_a = components(blk.la)
    comps_b = components(blk.lb)
    pref = (math.pi / blk.p) ** 1.5 * blk.cc
    out = np.empty((blk.npair, len(comps_a), len(comps_b)))

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
            out[:, ia, ib] = prim.reshape(blk.npair, blk.k2).sum(axis=1)
    return out


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

    Every two-electron method builds each block's E3 operands once per
    call, from one :meth:`PairBlock.e_tensors` build, and reuses them
    across all the block pairs it contracts. Every shell pair that
    :func:`build_pair_blocks` keeps is contracted against every other:
    there is no integral-level screening.
    """

    def __init__(self, basis: BasisSet, charges: np.ndarray, coords: np.ndarray):
        self.basis = basis
        self.charges = np.asarray(charges, dtype=float).ravel()
        self.coords = np.asarray(coords, dtype=float).reshape(-1, 3)
        self.nbf = basis.nbf
        self.blocks = build_pair_blocks(basis.shells, basis.offsets)

    # -- one-electron -------------------------------------------------------

    def overlap(self) -> np.ndarray:
        s = np.zeros((self.nbf, self.nbf))
        for blk in self.blocks:
            scatter_symmetric(s, blk, _overlap_block(blk, blk.e_tensors()))
        return s

    def kinetic(self) -> np.ndarray:
        t = np.zeros((self.nbf, self.nbf))
        for blk in self.blocks:
            scatter_symmetric(t, blk, _kinetic_block(blk, blk.e_tensors(db=2)))
        return t

    def nuclear(self, per_atom: bool = False) -> np.ndarray:
        """Nuclear attraction V (negative). With ``per_atom``, returns
        shape (natoms, nbf, nbf): the contribution of each nucleus
        (needed for Hellmann–Feynman gradient terms)."""
        natm = self.charges.size
        v = np.zeros((natm,) * per_atom + (self.nbf, self.nbf))
        for blk in self.blocks:
            vals = self._nuclear_block(blk, blk.e_tensors(), per_atom)
            if per_atom:
                for c in range(natm):
                    scatter_symmetric(v[c], blk, vals[c])
            else:
                scatter_symmetric(v, blk, vals)
        return v

    def _nuclear_block(self, blk: PairBlock, ex: list[np.ndarray],
                       per_atom: bool):
        l_tot = blk.la + blk.lb
        nk = ncombos(l_tot)
        e3 = _e3(blk, ex)[0]
        # R over prim x nucleus, scaled by 2 pi / p (-Z_C comes below)
        natm = self.charges.size
        npair, k2 = blk.npair, blk.k2
        pc = blk.pc[:, None, :] - self.coords[None, :, :]
        p_rep = np.repeat(blk.p, natm)
        r = hermite_coulomb_vec(l_tot, p_rep, pc.reshape(-1, 3))
        r *= 2.0 * math.pi / p_rep
        # per pair and nucleus: sum over primitives i and combos k of e3 R
        contrib = np.einsum(
            "Pick,kPia->Pac", e3.reshape(npair, k2, -1, nk),
            r.reshape(nk, npair, k2, natm), optimize=True,
        )
        na = len(components(blk.la))
        nb = len(components(blk.lb))
        if per_atom:
            return ((-self.charges)[:, None, None] * contrib.transpose(
                1, 0, 2)).reshape(natm, npair, na, nb)
        total = -(contrib * self.charges[None, :, None]).sum(axis=1)
        return total.reshape(blk.npair, na, nb)

    def dipole(self, origin=(0.0, 0.0, 0.0)) -> np.ndarray:
        """Dipole moment integrals <mu| r_d - origin_d |nu>, shape (3, nbf, nbf).

        The overlap kernel with dimension d's t = 0 column swapped for
        the moment E^1 + (P_d - C_d) E^0 (E built with db=1, so the t = 1
        column exists and is zero where i + j = 0)."""
        origin = np.asarray(origin, dtype=float).reshape(3)
        out = np.zeros((3, self.nbf, self.nbf))
        for blk in self.blocks:
            ex = blk.e_tensors(db=1)
            for d in range(3):
                shift = (blk.pc[:, d] - origin[d])[:, None, None, None]
                moment = ex[d][..., 1:2] + shift * ex[d][..., :1]
                vals = _overlap_block(blk, [moment if k == d else e
                                            for k, e in enumerate(ex)])
                scatter_symmetric(out[d], blk, vals)
        return out

    # -- two-electron: generic Coulomb interaction of two pair sets ---------

    def _plain_operands(self, blk: PairBlock) -> tuple[np.ndarray, np.ndarray]:
        """A block's plain bra E3 and its signed ket E3, from one E build."""
        e3 = _e3(blk, blk.e_tensors())
        return e3, _signed(blk, e3)

    def coulomb_block(self, bra: PairBlock, ket: PairBlock) -> np.ndarray:
        """Contracted Coulomb interaction (bra_ab | ket_cd).

        Returns shape ``(npair_bra, na, nb, npair_ket, nc, nd)``.
        Used both for the exact ERI (bra and ket are orbital pair
        blocks) and for density fitting (ket pairs are aux/dummy).
        """
        vals = self._coulomb(_Side(bra, self._plain_operands(bra)),
                             _Side(ket, self._plain_operands(ket)))
        return vals.reshape(*bra.dims, *ket.dims)

    def coulomb_block_deriv(self, bra: PairBlock, ket: PairBlock) -> np.ndarray:
        """Bra-a-center derivative of the Coulomb interaction.

        Returns shape ``(3, npair_bra, na, nb, npair_ket, nc, nd)`` —
        one slab per derivative direction.
        """
        e3d = _e3(bra, bra.e_tensors(da=1), centres=(0,))
        out = self._coulomb_core(bra, ket,
                                 [(e3d, self._plain_operands(ket)[1])])[0]
        return out.reshape(3, *bra.dims, *ket.dims)

    def _coulomb(self, bra: _Side, ket: _Side) -> np.ndarray:
        """Plain (bra|ket) of a bra and a ket pair selection, from the
        bra's plain E3 and the ket's signed E3 (each side's ``ops``);
        shape ``(npair_bra, nab, npair_ket, ncd)``."""
        return self._coulomb_core(bra.blk, ket.blk,
                                  [(bra.ops[0], ket.ops[1])])[0][0]

    def _coulomb_core(
        self,
        bra: PairBlock,
        ket: PairBlock,
        terms: list[tuple[np.ndarray, np.ndarray]],
        element_budget: int = 400_000,
    ) -> list[np.ndarray]:
        """Coulomb contractions of one block pair sharing each R chunk.

        Each term is a (bra E3, signed ket E3) pair of :func:`_e3` /
        :func:`_signed` stacks, shapes ``(xb, nprim_bra, nab, ncb)`` and
        ``(xk, nprim_ket, ncd, nck)``; every term's two Hermite orders
        add up to the same total, so one R(P - Q) chunk serves them
        all. Returns one ``(xb * xk, npair_bra, nab, npair_ket, ncd)``
        array per term (one side of a term is always plain: xb or xk is
        1). Both sides are chunked so the cross R tensor stays within
        the element budget (times the Hermite component count).

        Per chunk, R is built once in the compact layout, scaled by the
        Coulomb prefactor, and gathered to each term's (bra combo, ket
        combo) table. The contraction
        ``xPiak,kmPiQj,yQjcm->xyPaQc`` (bra pair P, its primitive i,
        ket pair Q, its primitive j) sums both primitive axes inside
        its two GEMMs, so no per-primitive value is ever formed.
        """
        nab = bra.dims[1] * bra.dims[2]
        ncd = ket.dims[1] * ket.dims[2]
        k2b, k2k = bra.k2, ket.k2
        npk, nkp = ket.npair, ket.nprim
        plans, outs = [], []
        for e3b, e3k in terms:
            lb_, lk_ = _lherm(bra, e3b), _lherm(ket, e3k)
            xb, xk = e3b.shape[0], e3k.shape[0]
            ncb, nck = ncombos(lb_), ncombos(lk_)
            # GEMM operands: bra (P, x a, i k) and ket (Q, m j, y c)
            b = e3b.reshape(xb, bra.npair, k2b, nab, ncb).transpose(
                1, 0, 3, 2, 4).reshape(bra.npair, xb * nab, k2b * ncb)
            k = e3k.reshape(xk, npk, k2k, ncd, nck).transpose(
                1, 4, 2, 0, 3).reshape(npk, nck * k2k, xk * ncd)
            plans.append((b, k, _combined_index(lb_, lk_), xb, xk, ncb, nck))
            outs.append(np.empty((xb, xk, bra.npair, nab, npk, ncd)))
            ltot = lb_ + lk_
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
            for (b, k, gather, xb, xk, ncb, nck), out in zip(plans, outs):
                # (P, x a, i k) @ (P, i k, m Q j): bra primitives and combos
                t1 = b[start:stop] @ rt.take(gather, axis=1).reshape(
                    npb, k2b * ncb, nck * nkp)
                # (Q, P x a, m j) @ (Q, m j, y c): ket primitives and combos
                t1 = t1.reshape(npb * xb * nab, nck, npk, k2k).transpose(
                    2, 0, 1, 3).reshape(npk, npb * xb * nab, nck * k2k)
                out[:, :, start:stop] = (t1 @ k).reshape(
                    npk, npb, xb, nab, xk, ncd).transpose(2, 4, 1, 3, 0, 5)
        return [out.reshape(-1, bra.npair, nab, npk, ncd) for out in outs]

    def eri(self, base: BaseIntegrals | None = None) -> np.ndarray:
        """Exact ERI tensor (chemists' notation (ab|cd)), full nbf^4.

        Intended for small systems (tests, tiny fragments); production
        fragment SCF uses density fitting. With ``base``, only the
        elements touching ``base.moved`` are recomputed
        (:class:`BaseIntegrals`).
        """
        nbf = self.nbf
        with get_tracer().span("integrals.eri", nbf=nbf):
            blocks = self.blocks
            out = _start((nbf,) * 4, base, "eri",
                         [(ax, blocks) for ax in range(4)])
            wholes = [_Side(blk, self._plain_operands(blk)) for blk in blocks]
            sides = [_split(w.blk, w.ops, base) for w in wholes]
            for bi, bside in enumerate(sides):
                for ki in range(bi, len(blocks)):
                    for bra, ket in _parts(bside, wholes[ki], sides[ki][0]):  # qf: shell-loop — at most two selections per block pair; bodies vectorized
                        vals = self._coulomb(bra, ket)
                        scatter_eri(out, bra.blk, ket.blk,
                                    vals.reshape(*bra.blk.dims,
                                                 *ket.blk.dims))
        return out

    # -- density fitting ------------------------------------------------------

    def three_center(self, aux_blocks: list[PairBlock], naux: int,
                     base: BaseIntegrals | None = None) -> np.ndarray:
        """Three-center integrals (ab|P), shape (nbf, nbf, naux).

        ``aux_blocks`` are :func:`single_shell_blocks` of the auxiliary
        basis. With ``base``, only the elements touching ``base.moved``
        are recomputed from ``base.j3c`` (:class:`BaseIntegrals`).
        """
        out = _start((self.nbf, self.nbf, naux), base, "j3c",
                     [(0, self.blocks), (1, self.blocks), (2, aux_blocks)])
        kets = [_Side(blk, self._plain_operands(blk)) for blk in aux_blocks]
        ket_sides = [_split(k.blk, k.ops, base) for k in kets]
        for blk in self.blocks:
            bside = _split(blk, self._plain_operands(blk), base)
            for ket, kside in zip(kets, ket_sides):
                for bra, sel in _parts(bside, ket, kside[0]):  # qf: shell-loop — at most two selections per block pair; bodies vectorized
                    vals = self._coulomb(bra, sel)
                    scatter_pairs_aux(out, bra.blk, sel.blk,
                                      vals.reshape(*bra.blk.dims,
                                                   sel.blk.npair, -1))
        return out

    def two_center(self, aux_blocks: list[PairBlock], naux: int,
                   base: BaseIntegrals | None = None) -> np.ndarray:
        """Two-center Coulomb metric (P|Q), shape (naux, naux); with
        ``base``, recomputed from ``base.v2c`` around ``base.moved``."""
        out = _start((naux, naux), base, "v2c",
                     [(0, aux_blocks), (1, aux_blocks)])
        wholes = [_Side(blk, self._plain_operands(blk)) for blk in aux_blocks]
        sides = [_split(w.blk, w.ops, base) for w in wholes]
        for i, bside in enumerate(sides):
            for ket, kside in zip(wholes[i:], sides[i:]):
                for bra, sel in _parts(bside, ket, kside[0]):  # qf: shell-loop — at most two selections per block pair; bodies vectorized
                    scatter_metric(out, bra.blk, sel.blk,
                                   self._coulomb(bra, sel))
        return out

    # -- derivative integrals (bra-slot convention) ---------------------------
    #
    # All derivative builders return arrays D[x, mu, nu, ...] where the
    # entry is the derivative of the integral with bra function mu and
    # ket function nu with respect to the *center of mu's shell* ("bra
    # slot"). The derivative with respect to the ket center follows from
    # symmetry: d(mu nu)/dB = D[x, nu, mu] for symmetric operators (S,
    # T, V, and the 3-center bra pair). Gradient assembly in
    # repro.dfpt.gradient sums the slots belonging to each atom.

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
            for d in range(3):
                scatter_ordered(out[d], blk,
                                _overlap_block(blk, _swapped(ex, blk, d)))
        return out

    def kinetic_deriv(self) -> np.ndarray:
        """dT[x, mu, nu] under the bra-slot convention."""
        out = np.zeros((3, self.nbf, self.nbf))
        for blk in self._ordered():
            ex = blk.e_tensors(da=1, db=2)
            for d in range(3):
                scatter_ordered(out[d], blk,
                                _kinetic_block(blk, _swapped(ex, blk, d)))
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
            nk = ncombos(l_tot)
            nk0 = ncombos(la + lb)
            ex = blk.e_tensors(da=1)
            e3d = _e3(blk, ex, centres=(0,))
            e3p = _e3(blk, ex)[0]
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
                e3d.reshape(3, npair, k2, -1, nk),
                r.reshape(nk, npair, k2, natm), optimize=True,
            )
            total = -(contrib * self.charges[None, None, :, None]).sum(axis=2)
            for d in range(3):
                scatter_ordered(dv_bra[d], blk, total[d].reshape(npair, na, nb))

            # Hellmann-Feynman: d/dCx R_tuv(P - C) = -(-R_{t+1,u,v}) = R with
            # raised index and opposite sign of the P-derivative
            rr = r[_raised_index(la + lb)]           # (3, ncombos0, nprim*natm)
            contrib = np.einsum(
                "Pick,dkPia->dPac",
                e3p.reshape(npair, k2, -1, nk0),
                rr.reshape(3, nk0, npair, k2, natm), optimize=True,
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

    def three_center_deriv(self, aux_blocks: list[PairBlock], naux: int,
                           base: BaseIntegrals | None = None) -> np.ndarray:
        """d(ab|P)/d(center of a), shape (3, nbf, nbf, naux).

        Covers all ordered (a, b) from the canonical (i <= j) pairs with
        fused dA/dB variants: the [nu, mu] entries come from the dB slabs
        transposed. The aux-center derivative follows from translational
        invariance: d/dP = -(d/dA + d/dB). With ``base``, only the
        elements touching ``base.moved`` are recomputed.
        """
        out = _start((3, self.nbf, self.nbf, naux), base,
                     "three_center_deriv",
                     [(1, self.blocks), (2, self.blocks), (3, aux_blocks)])
        kets = [_Side(blk, (self._plain_operands(blk)[1],))
                for blk in aux_blocks]
        ket_sides = [_split(k.blk, k.ops, base) for k in kets]
        for blk in self.blocks:
            stack = _e3(blk, blk.e_tensors(da=1, db=1), centres=(0, 1))
            bside = _split(blk, (stack,), base)
            for ket, kside in zip(kets, ket_sides):
                for bra, sel in _parts(bside, ket, kside[0]):  # qf: shell-loop — at most two selections per block pair; bodies vectorized
                    vals = self._coulomb_core(bra.blk, sel.blk,
                                              [(bra.ops[0], sel.ops[0])])[0]
                    vals = vals.reshape(6, *bra.blk.dims, sel.blk.npair, -1)
                    for d in range(3):
                        scatter_pairs_aux(out[d], bra.blk, sel.blk, vals[d],
                                          vals_t=vals[3 + d])
        return out

    def two_center_deriv(self, aux_blocks: list[PairBlock], naux: int,
                         base: BaseIntegrals | None = None) -> np.ndarray:
        """d(P|Q)/d(center of P), shape (3, naux, naux), all ordered (P, Q);
        with ``base``, recomputed around ``base.moved``."""
        out = _start((3, naux, naux), base, "two_center_deriv",
                     [(1, aux_blocks), (2, aux_blocks)])
        wholes = []
        for blk in aux_blocks:
            ex = blk.e_tensors(da=1)
            wholes.append(_Side(blk, (_e3(blk, ex, centres=(0,)),
                                      _signed(blk, _e3(blk, ex)))))
        sides = [_split(w.blk, w.ops, base) for w in wholes]
        for bside in sides:
            for ket, kside in zip(wholes, sides):
                for bra, sel in _parts(bside, ket, kside[0]):  # qf: shell-loop — at most two selections per block pair; bodies vectorized
                    vals = self._coulomb_core(bra.blk, sel.blk,
                                              [(bra.ops[0], sel.ops[1])])[0]
                    for d in range(3):
                        scatter_pairs_2c(out[d], bra.blk, sel.blk, vals[d])
        return out

    def eri_deriv(self, base: BaseIntegrals | None = None) -> np.ndarray:
        """dA-slot derivative of the exact ERI tensor.

        Shape (3, nbf, nbf, nbf, nbf): entry [x, mu, nu, lm, sg] is
        d(mu nu|lm sg)/d(center of mu). Each unordered pair of canonical
        blocks (bra <= ket) shares one Hermite Coulomb tensor per chunk,
        which yields all four center derivatives: the fused dA/dB stack
        of the bra against the plain ket, and for bra != ket a second
        term, the plain bra against the ket's fused dC/dD stack, i.e.
        the slots of (ket|bra). Small systems only (nbf^4 memory). With
        ``base``, only the elements touching ``base.moved`` are
        recomputed.
        """
        nbf = self.nbf
        blocks = self.blocks
        out = _start((3,) + (nbf,) * 4, base, "eri_deriv",
                     [(ax, blocks) for ax in range(1, 5)])
        # per block: dA/dB stack and plain E3, each in bra and ket form
        wholes = []
        for blk in blocks:
            ex = blk.e_tensors(da=1, db=1)
            stack, plain = _e3(blk, ex, centres=(0, 1)), _e3(blk, ex)
            wholes.append(_Side(blk, (stack, plain, _signed(blk, stack),
                                      _signed(blk, plain))))
        sides = [_split(w.blk, w.ops, base) for w in wholes]
        for bi, bside in enumerate(sides):
            for ki in range(bi, len(blocks)):
                for bra, ket in _parts(bside, wholes[ki], sides[ki][0]):  # qf: shell-loop — at most two selections per block pair; bodies vectorized
                    shape = (6, *bra.blk.dims, *ket.blk.dims)
                    # (bra|bra) already covers every ordered pair combination
                    terms = [(bra.ops[0], ket.ops[3])]
                    if ki != bi:
                        terms.append((bra.ops[1], ket.ops[2]))
                    vals = self._coulomb_core(bra.blk, ket.blk, terms)
                    scatter_eri_deriv_ab(out, bra.blk, ket.blk,
                                         vals[0].reshape(shape))
                    if ki != bi:
                        # (6, bra pair, ab, ket pair, cd) -> ket-major for (ket|bra)
                        scatter_eri_deriv_ab(
                            out, ket.blk, bra.blk,
                            vals[1].reshape(shape).transpose(
                                0, 4, 5, 6, 1, 2, 3),
                        )
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
