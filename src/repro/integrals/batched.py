"""Batched shell-pair kernel layer: pair-block packing and scatter plans.

The engine in :mod:`repro.integrals.engine` evaluates each
angular-momentum class with one einsum. This module removes the
python-level loops over *pairs* around those einsums:

* :func:`build_pair_blocks` — the whole pair list is screened by
  Gaussian-product prefactor (:data:`PAIR_PREFACTOR_SCREEN`, the only
  screening in the integral stack), canonicalized, classed, and packed
  into contiguous pair-major primitive arrays with numpy gathers,
  without a per-pair python loop.
* :func:`scatter_symmetric` / :func:`scatter_ordered` /
  :func:`scatter_pairs_aux` / :func:`scatter_pairs_2c` /
  :func:`scatter_eri_deriv_ab` / :func:`scatter_eri` /
  :func:`scatter_metric` — flat-index scatter plans that place
  per-pair value blocks into matrices. The fused-derivative scatters
  (``scatter_pairs_aux`` with a d/dB slab, ``scatter_eri_deriv_ab``)
  mask their transpose images to off-diagonal pairs so every write
  lands on a distinct element. The 8-fold ERI image scatter and the
  DF metric scatter have overlapping images; their plans list every
  write in loop order and keep the last one per target
  (:func:`_write_last`), never relying on numpy's unspecified order
  for duplicate fancy-index writes.

Every function here is bit-identical to the per-pair loop it replaces:
the loops live on as the test oracle in ``tests/integrals/oracle.py``.
"""

from __future__ import annotations

import numpy as np

from repro.basis.gaussian import Shell

__all__ = [
    "PAIR_PREFACTOR_SCREEN",
    "build_pair_blocks",
    "scatter_symmetric",
    "scatter_ordered",
    "scatter_pairs_aux",
    "scatter_pairs_2c",
    "scatter_eri_deriv_ab",
    "scatter_eri",
    "scatter_metric",
]


# ---------------------------------------------------------------------------
# vectorized pair-block construction
# ---------------------------------------------------------------------------

#: shell pairs whose largest primitive Gaussian-product prefactor
#: exp(-q |AB|^2) falls below this are dropped by :func:`build_pair_blocks`
PAIR_PREFACTOR_SCREEN = 1.0e-12


def _shell_tables(shells: list[Shell]):
    """Per-shell gather tables: one O(nshells) pass, reused for every pair.

    Contraction depths vary per shell, so exponent/coefficient rows are
    padded to the largest depth; the padding is never read because each
    class gathers exactly its own ``(ka, kb)`` columns.
    """
    ns = len(shells)
    kmax = max((len(sh.exps) for sh in shells), default=1)
    ls = np.empty(ns, dtype=np.int64)
    ks = np.empty(ns, dtype=np.int64)
    atom = np.empty(ns, dtype=np.int64)
    centers = np.empty((ns, 3))
    exps = np.zeros((ns, kmax))
    coefs = np.zeros((ns, kmax))
    emin = np.empty(ns)
    for idx, sh in enumerate(shells):  # qf: shell-loop — O(nshells) table build, not per-pair
        k = len(sh.exps)
        ls[idx] = sh.l
        ks[idx] = k
        atom[idx] = sh.atom_index
        centers[idx] = sh.center
        exps[idx, :k] = sh.exps
        coefs[idx, :k] = sh.coefs
        emin[idx] = float(sh.exps.min())
    return ls, ks, atom, centers, exps, coefs, emin


def build_pair_blocks(
    shells: list[Shell],
    offsets: list[int],
    pairs: list[tuple[int, int]] | None = None,
    canonicalize: bool = True,
):
    """Group shell pairs into angular/contraction classes.

    ``pairs`` defaults to all i <= j pairs. With ``canonicalize`` the
    pair is swapped so la >= lb (fewer classes); derivative builders
    pass ordered pairs with ``canonicalize=False`` because the bra slot
    is meaningful there. Pairs whose largest primitive Gaussian-product
    prefactor exp(-q |AB|^2) falls below :data:`PAIR_PREFACTOR_SCREEN`
    are dropped — for spatially extended fragments this prunes the
    quadratic pair count to near-linear.

    Blocks come in sorted class-key order, pairs within a class in
    their original order. The returned blocks are the contiguous,
    pair-major "stride-padded primitive-pair arrays" of the batched
    GEMM layout: within a class every pair contributes exactly
    ``ka * kb`` consecutive primitive slots, so a class evaluates as
    one stacked array operation.
    """
    from repro.integrals.engine import PairBlock  # deferred: avoid cycle

    ls, ks, atom, centers, exps, coefs, emin = _shell_tables(shells)
    ns = len(shells)
    if pairs is None:
        ii, jj = np.triu_indices(ns)
    else:
        if len(pairs) == 0:
            return []
        parr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        ii, jj = parr[:, 0].copy(), parr[:, 1].copy()
    if ii.size == 0:
        return []

    diff = centers[ii] - centers[jj]
    d2 = np.sum(diff * diff, axis=1)
    amin = emin[ii]
    bmin = emin[jj]
    q = amin * bmin / (amin + bmin)
    keep = np.exp(-q * d2) >= PAIR_PREFACTOR_SCREEN
    ii, jj = ii[keep], jj[keep]
    if ii.size == 0:
        return []

    if canonicalize:
        swap = ls[ii] < ls[jj]
        ii2 = np.where(swap, jj, ii)
        jj2 = np.where(swap, ii, jj)
        ii, jj = ii2, jj2

    # class key (la, lb, ka, kb) encoded into one sortable integer;
    # field widths are generous (l < 64, K < 4096)
    key = ((ls[ii] * 64 + ls[jj]) * 4096 + ks[ii]) * 4096 + ks[jj]
    offsets_arr = np.asarray(offsets, dtype=np.int64)
    blocks = []
    for kval in np.unique(key):
        sel = np.nonzero(key == kval)[0]  # preserves original pair order
        ish = ii[sel]
        jsh = jj[sel]
        la = int(ls[ish[0]])
        lb = int(ls[jsh[0]])
        ka = int(ks[ish[0]])
        kb = int(ks[jsh[0]])
        npair = sel.size
        k2 = ka * kb
        ea = exps[ish, :ka]                     # (npair, ka)
        eb = exps[jsh, :kb]                     # (npair, kb)
        a = np.broadcast_to(ea[:, :, None], (npair, ka, kb)).reshape(npair, k2)
        b = np.broadcast_to(eb[:, None, :], (npair, ka, kb)).reshape(npair, k2)
        cc = (coefs[ish, :ka][:, :, None]
              * coefs[jsh, :kb][:, None, :]).reshape(npair, k2)
        ctr_a = centers[ish]
        ctr_b = centers[jsh]
        psum = a + b
        # product centers: (a*A + b*B) / p per primitive pair
        pc = (a[:, :, None] * ctr_a[:, None, :]
              + b[:, :, None] * ctr_b[:, None, :]) / psum[:, :, None]
        blocks.append(
            PairBlock(
                la=la, lb=lb, k2=k2,
                ishell=ish, jshell=jsh,
                off_a=offsets_arr[ish], off_b=offsets_arr[jsh],
                atom_a=atom[ish], atom_b=atom[jsh],
                a=np.ascontiguousarray(a).ravel(),
                b=np.ascontiguousarray(b).ravel(),
                cc=cc.ravel(),
                ab_vec=ctr_a - ctr_b, centers_a=ctr_a,
                p=psum.ravel(), pc=pc.reshape(-1, 3),
            )
        )
    return blocks


# ---------------------------------------------------------------------------
# scatter plans
# ---------------------------------------------------------------------------
#
# A scatter plan is the flat-index image of one block's (npair, na, nb)
# value tensor in an (nbf, nbf) target. Plans depend only on the block
# and the target width. Plans read more than once per engine are
# stashed on the block (PairBlock is a plain dataclass; the cache dies
# with the block); the ERI, ERI-derivative and DF metric plans are read
# once per engine and are built per call.

def _plan_symmetric(blk, na: int, nb: int, nbf: int):
    cache = getattr(blk, "_scatter_plans", None)
    if cache is None:
        cache = blk._scatter_plans = {}
    plan = cache.get(("sym", na, nb, nbf))
    if plan is None:
        rows = blk.off_a[:, None] + np.arange(na)[None, :]      # (npair, na)
        cols = blk.off_b[:, None] + np.arange(nb)[None, :]      # (npair, nb)
        flat = rows[:, :, None] * nbf + cols[:, None, :]        # (npair, na, nb)
        off_diag = blk.off_a != blk.off_b
        # image axes ordered (nb, na) to line up with vals.T elementwise
        flat_t = (cols[off_diag][:, :, None] * nbf
                  + rows[off_diag][:, None, :])                 # (nod, nb, na)
        plan = (flat.ravel(), off_diag, flat_t.ravel())
        cache[("sym", na, nb, nbf)] = plan
    return plan


def scatter_symmetric(target: np.ndarray, blk, vals: np.ndarray) -> None:
    """Vectorized symmetric scatter: ``vals[r]`` at ``(off_a, off_b)``
    plus the transpose image for off-diagonal pairs.

    Write sets are disjoint (each unordered shell pair appears once in
    a canonical block; diagonal pairs are masked out of the transpose
    image), so the assignment order cannot matter.
    """
    na, nb = vals.shape[1], vals.shape[2]
    flat, off_diag, flat_t = _plan_symmetric(blk, na, nb, target.shape[1])
    out = target.reshape(-1)
    out[flat] = vals.ravel()
    if flat_t.size:
        out[flat_t] = vals[off_diag].transpose(0, 2, 1).ravel()


def scatter_ordered(target: np.ndarray, blk, vals: np.ndarray) -> None:
    """Vectorized ordered-pair scatter (no symmetrization image)."""
    na, nb = vals.shape[1], vals.shape[2]
    flat, _, _ = _plan_symmetric(blk, na, nb, target.shape[1])
    target.reshape(-1)[flat] = vals.ravel()


def _plan_aux(bra, ket, na: int, nb: int, nc: int, naux: int, nbf: int):
    cache = getattr(bra, "_scatter_plans", None)
    if cache is None:
        cache = bra._scatter_plans = {}
    key = ("aux", id(ket), na, nb, nc, naux, nbf)
    plan = cache.get(key)
    if plan is None:
        rows = bra.off_a[:, None] + np.arange(na)[None, :]      # (npb, na)
        cols = bra.off_b[:, None] + np.arange(nb)[None, :]      # (npb, nb)
        aux = ket.off_a[:, None] + np.arange(nc)[None, :]       # (npk, nc)
        # flat index into (nbf, nbf, naux): ((row*nbf)+col)*naux + aux
        pair_flat = (rows[:, :, None] * nbf + cols[:, None, :]) * naux
        flat = (pair_flat[:, :, :, None, None]
                + aux[None, None, None, :, :])   # (npb, na, nb, npk, nc)
        off_diag = bra.off_a != bra.off_b
        # image axes ordered (nb, na) to line up with the transposed vals
        pair_flat_t = (cols[off_diag][:, :, None] * nbf
                       + rows[off_diag][:, None, :]) * naux
        flat_t = (pair_flat_t[:, :, :, None, None]
                  + aux[None, None, None, :, :])    # (nod, nb, na, npk, nc)
        plan = (flat.ravel(), off_diag, flat_t.ravel())
        cache[key] = plan
    return plan


def scatter_pairs_aux(target: np.ndarray, bra, ket, vals: np.ndarray,
                      vals_t: np.ndarray | None = None) -> None:
    """Scatter 3-center values (npb, na, nb, npk, nc) into (nbf, nbf, naux).

    Used by the density-fitting 3-center build and the DF derivative
    builder. The bra transpose image (masked to off-diagonal pairs) is
    taken from ``vals_t`` when given — the derivative builder passes the
    d/dB slab there — and from ``vals`` itself otherwise. All writes
    are to distinct elements, so assignment order cannot matter.
    """
    na, nb, nc = vals.shape[1], vals.shape[2], vals.shape[4]
    flat, off_diag, flat_t = _plan_aux(
        bra, ket, na, nb, nc, target.shape[2], target.shape[1]
    )
    out = target.reshape(-1)
    out[flat] = vals.ravel()
    if flat_t.size:
        src = vals if vals_t is None else vals_t
        # (nod, na, nb, npk, nc) -> transpose the bra function axes
        out[flat_t] = src[off_diag].transpose(0, 2, 1, 3, 4).ravel()


def scatter_pairs_2c(target: np.ndarray, bra, ket,
                     vals: np.ndarray) -> None:
    """Scatter (npb, na, npk, nc) aux-pair values into (naux, naux).

    Used by the DF 2-center derivative builder, which iterates all
    *ordered* (bra, ket) aux block combinations — no transpose image,
    every write distinct.
    """
    na, nc = vals.shape[1], vals.shape[3]
    naux = target.shape[1]
    cache = getattr(bra, "_scatter_plans", None)
    if cache is None:
        cache = bra._scatter_plans = {}
    key = ("2c", id(ket), na, nc, naux)
    flat = cache.get(key)
    if flat is None:
        rows = bra.off_a[:, None] + np.arange(na)[None, :]      # (npb, na)
        cols = ket.off_a[:, None] + np.arange(nc)[None, :]      # (npk, nc)
        flat = (rows[:, :, None, None] * naux
                + cols[None, None, :, :]).ravel()
        cache[key] = flat
    target.reshape(-1)[flat] = vals.ravel()


def scatter_eri_deriv_ab(target: np.ndarray, bra, ket,
                         vals: np.ndarray) -> None:
    """Scatter fused dA/dB derivative ERI values into the bra-slot tensor.

    ``target`` is the (3, nbf, nbf, nbf, nbf) ``eri_deriv`` tensor and
    ``vals`` the (6, npb, na, nb, npk, nc, nd) output of a fused
    derivative contraction: slabs 0-2 are d(mn|ls)/dA, slabs 3-5
    d(mn|ls)/dB. dA goes to [m,n,l,s] and [m,n,s,l]; dB is the slot of
    n, so it goes to [n,m,l,s] and [n,m,s,l]. The bra images are masked
    to off-diagonal bra pairs and the ket images to off-diagonal ket
    pairs, so write sets are disjoint and assignment order cannot
    matter. The swapped orientation (ket|bra) scatters through the same
    function with the roles of ``bra`` and ``ket`` exchanged.
    """
    na, nb, nc, nd = vals.shape[2], vals.shape[3], vals.shape[5], vals.shape[6]
    nbf = target.shape[1]
    full = (bra.npair, na, nb, ket.npair, nc, nd)
    m = (bra.off_a[:, None] + np.arange(na))[:, :, None, None, None, None]
    n = (bra.off_b[:, None] + np.arange(nb))[:, None, :, None, None, None]
    l = (ket.off_a[:, None] + np.arange(nc))[None, None, None, :, :, None]
    s = (ket.off_b[:, None] + np.arange(nd))[None, None, None, :, None, :]
    off_b = bra.off_a != bra.off_b
    off_k = ket.off_a != ket.off_b
    slab = nbf ** 4 * np.arange(3)[:, None]
    every = slice(None)

    def image(i, j, k, q, bra_mask, ket_mask):
        # flat (3, nbf, nbf, nbf, nbf) index of [x, i, j, k, q] laid out
        # like vals, restricted to the masked pairs
        flat = np.broadcast_to(((i * nbf + j) * nbf + k) * nbf + q, full)
        return slab + flat[bra_mask][:, :, :, ket_mask].ravel()[None, :]

    out = target.reshape(-1)
    d_a, d_b = vals[:3], vals[3:, off_b]
    out[image(m, n, l, s, every, every)] = d_a.reshape(3, -1)
    out[image(m, n, s, l, every, off_k)] = d_a[:, :, :, :, off_k].reshape(3, -1)
    out[image(n, m, l, s, off_b, every)] = d_b.reshape(3, -1)
    out[image(n, m, s, l, off_b, off_k)] = d_b[:, :, :, :, off_k].reshape(3, -1)


def _write_last(target: np.ndarray, writes: np.ndarray, sources,
                vals: np.ndarray) -> None:
    """Replay overlapping writes: ``writes`` lists every write's flat
    target index in write order and ``sources`` (broadcast against it)
    the flat index of its value in ``vals``. Each distinct target keeps
    its last write, as in a sequential loop, so one duplicate-free
    fancy assignment replays the loop exactly.
    """
    flat, last = np.unique(writes.ravel()[::-1], return_index=True)
    pick = np.broadcast_to(sources, writes.shape).ravel()[::-1][last]
    target.reshape(-1)[flat] = vals.reshape(-1)[pick]


def scatter_eri(target: np.ndarray, bra, ket, vals: np.ndarray) -> None:
    """Scatter (npb, na, nb, npk, nc, nd) ERI values into the
    (nbf, nbf, nbf, nbf) tensor with all eight permutational images.

    The writes follow the per-pair loop: bra pair, ket pair, then the
    images [m,n,l,s], [l,s,m,n], [m,n,s,l], [s,l,m,n], [n,m,l,s],
    [l,s,n,m], [n,m,s,l], [s,l,n,m]. Images coincide for diagonal pairs
    and on the bra==ket block diagonal; the last write wins.
    """
    nbf = target.shape[1]
    _, na, nb, _, nc, nd = vals.shape
    # write axes: (bra pair, ket pair, image, a, b, c, d)
    m = (bra.off_a[:, None] + np.arange(na))[:, None, :, None, None, None]
    n = (bra.off_b[:, None] + np.arange(nb))[:, None, None, :, None, None]
    l = (ket.off_a[:, None] + np.arange(nc))[None, :, None, None, :, None]
    s = (ket.off_b[:, None] + np.arange(nd))[None, :, None, None, None, :]
    mn, nm, ls, sl = m * nbf + n, n * nbf + m, l * nbf + s, s * nbf + l
    images = [(mn, ls), (ls, mn), (mn, sl), (sl, mn),
              (nm, ls), (ls, nm), (nm, sl), (sl, nm)]
    writes = np.stack(np.broadcast_arrays(
        *(i * nbf * nbf + j for i, j in images)), axis=2)
    src = np.arange(vals.size).reshape(vals.shape).transpose(0, 3, 1, 2, 4, 5)
    _write_last(target, writes, src[:, :, None], vals)


def scatter_metric(target: np.ndarray, bra, ket, vals: np.ndarray) -> None:
    """Scatter (npb, na, npk, nc) aux-pair values into the symmetric
    (naux, naux) DF metric at (P, Q) and (Q, P).

    The writes follow the per-pair loop (bra pair, ket pair, (P, Q)
    before (Q, P)); on the bra==ket block diagonal both orders of a
    pair hit the same elements, and the last write wins.
    """
    naux = target.shape[1]
    # write axes: (bra pair, ket pair, image, a, c)
    p = (bra.off_a[:, None] + np.arange(vals.shape[1]))[:, None, :, None]
    q = (ket.off_a[:, None] + np.arange(vals.shape[3]))[None, :, None, :]
    writes = np.stack(np.broadcast_arrays(p * naux + q, q * naux + p), axis=2)
    src = np.arange(vals.size).reshape(vals.shape).transpose(0, 2, 1, 3)
    _write_last(target, writes, src[:, :, None], vals)
