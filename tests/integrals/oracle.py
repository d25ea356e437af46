"""Loop oracle for the batched pair-block build and scatters.

:mod:`repro.integrals.batched` replaces per-pair python loops with
numpy gathers and flat-index scatter plans. This module keeps those
loops, one python iteration per shell pair, as the reference the engine
is compared against bit for bit. It also keeps the three loop
builders of the Hermite product tensor E3 (one python iteration per
component pair, Hermite combo and derivative direction), behind
:func:`e3`, a twin of the engine's table-driven ``_e3``.
:func:`oracle_dispatch` swaps all of them in wherever the engine looks
them up, so an :class:`~repro.integrals.engine.IntegralEngine`
constructed and evaluated inside it runs the loop path end to end.

:func:`eri_deriv_ordered` is a value oracle rather than a loop twin: the
straightforward ordered-bra build of the ERI derivative, which the
engine's unordered-block build matches to round-off.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from repro.basis.gaussian import Shell
from repro.integrals import engine as engine_module
from repro.integrals.batched import PAIR_PREFACTOR_SCREEN
from repro.integrals.engine import PairBlock, components, hermite_combos


def build_pair_blocks(
    shells: list[Shell],
    offsets: list[int],
    pairs: list[tuple[int, int]] | None = None,
    canonicalize: bool = True,
) -> list[PairBlock]:
    """Per-pair loop twin of :func:`repro.integrals.batched.build_pair_blocks`.

    Same screening (the same :data:`PAIR_PREFACTOR_SCREEN`),
    canonicalization and class grouping, one python iteration per pair.
    """
    if pairs is None:
        ns = len(shells)
        pairs = [(i, j) for i in range(ns) for j in range(i, ns)]
    kept = []
    for (i, j) in pairs:
        si, sj = shells[i], shells[j]
        d2 = float(np.sum((si.center - sj.center) ** 2))
        if d2 == 0.0:
            kept.append((i, j))
            continue
        amin, bmin = float(si.exps.min()), float(sj.exps.min())
        q = amin * bmin / (amin + bmin)
        if math.exp(-q * d2) >= PAIR_PREFACTOR_SCREEN:
            kept.append((i, j))
    pairs = kept
    groups: dict[tuple[int, int, int, int], list[tuple[int, int]]] = {}
    for (i, j) in pairs:
        si, sj = shells[i], shells[j]
        if canonicalize and si.l < sj.l:
            i, j = j, i
            si, sj = sj, si
        key = (si.l, sj.l, len(si.exps), len(sj.exps))
        groups.setdefault(key, []).append((i, j))
    blocks: list[PairBlock] = []
    for (la, lb, ka, kb), plist in sorted(groups.items()):
        npair = len(plist)
        k2 = ka * kb
        ish = np.array([p[0] for p in plist])
        jsh = np.array([p[1] for p in plist])
        off_a = np.array([offsets[i] for i in ish])
        off_b = np.array([offsets[j] for j in jsh])
        atom_a = np.array([shells[i].atom_index for i in ish])
        atom_b = np.array([shells[j].atom_index for j in jsh])
        a = np.empty((npair, k2))
        b = np.empty((npair, k2))
        cc = np.empty((npair, k2))
        ab_vec = np.empty((npair, 3))
        centers_a = np.empty((npair, 3))
        pc = np.empty((npair, k2, 3))
        for r, (i, j) in enumerate(plist):
            si, sj = shells[i], shells[j]
            ea, eb = np.meshgrid(si.exps, sj.exps, indexing="ij")
            ca, cb = np.meshgrid(si.coefs, sj.coefs, indexing="ij")
            a[r] = ea.ravel()
            b[r] = eb.ravel()
            cc[r] = (ca * cb).ravel()
            ab_vec[r] = si.center - sj.center
            centers_a[r] = si.center
            psum = a[r] + b[r]
            pc[r] = (
                a[r][:, None] * si.center[None, :]
                + b[r][:, None] * sj.center[None, :]
            ) / psum[:, None]
        blocks.append(
            PairBlock(
                la=la, lb=lb, k2=k2,
                ishell=ish, jshell=jsh, off_a=off_a, off_b=off_b,
                atom_a=atom_a, atom_b=atom_b,
                a=a.ravel(), b=b.ravel(), cc=cc.ravel(),
                ab_vec=ab_vec, centers_a=centers_a,
                p=(a + b).ravel(), pc=pc.reshape(-1, 3),
            )
        )
    return blocks


def scatter_symmetric(target, blk, vals) -> None:
    """``vals[r]`` at ``(off_a, off_b)`` plus the transpose image."""
    na, nb = vals.shape[1], vals.shape[2]
    for r in range(blk.npair):
        oa, ob = blk.off_a[r], blk.off_b[r]
        target[oa: oa + na, ob: ob + nb] = vals[r]
        if oa != ob:
            target[ob: ob + nb, oa: oa + na] = vals[r].T


def scatter_ordered(target, blk, vals) -> None:
    """``vals[r]`` at ``(off_a, off_b)``, no symmetrization."""
    na, nb = vals.shape[1], vals.shape[2]
    for r in range(blk.npair):
        oa, ob = blk.off_a[r], blk.off_b[r]
        target[oa: oa + na, ob: ob + nb] = vals[r]


def scatter_pairs_aux(target, bra, ket, vals, vals_t=None) -> None:
    """(npb, na, nb, npk, nc) 3-center values into (nbf, nbf, naux)."""
    na, nb, nc = vals.shape[1], vals.shape[2], vals.shape[4]
    src = vals if vals_t is None else vals_t
    for rb in range(bra.npair):
        oa, ob = bra.off_a[rb], bra.off_b[rb]
        for rk in range(ket.npair):
            oc = ket.off_a[rk]
            target[oa: oa + na, ob: ob + nb, oc: oc + nc] = vals[rb, :, :, rk]
            if oa != ob:
                target[ob: ob + nb, oa: oa + na, oc: oc + nc] = (
                    src[rb, :, :, rk].transpose(1, 0, 2)
                )


def scatter_pairs_2c(target, bra, ket, vals) -> None:
    """(npb, na, npk, nc) aux-pair values into (naux, naux)."""
    na, nc = vals.shape[1], vals.shape[3]
    for rb in range(bra.npair):
        oa = bra.off_a[rb]
        for rk in range(ket.npair):
            oc = ket.off_a[rk]
            target[oa: oa + na, oc: oc + nc] = vals[rb, :, rk, :]


def scatter_eri_deriv_ab(target, bra, ket, vals) -> None:
    """(6, npb, na, nb, npk, nc, nd) fused dA/dB values into the
    (3, nbf, nbf, nbf, nbf) bra-slot tensor: dA at [m,n,l,s], dB at
    [n,m,l,s] for off-diagonal bra pairs, each plus the ket-swap image
    for off-diagonal ket pairs."""
    nc, nd = vals.shape[5], vals.shape[6]
    for rb in range(bra.npair):
        oa, ob = bra.off_a[rb], bra.off_b[rb]
        for rk in range(ket.npair):
            oc, od = ket.off_a[rk], ket.off_b[rk]
            images = [(oa, ob, vals[:3, rb, :, :, rk])]
            if oa != ob:
                images.append(
                    (ob, oa, vals[3:, rb, :, :, rk].transpose(0, 2, 1, 3, 4))
                )
            for (i0, j0, v) in images:
                ni, nj = v.shape[1], v.shape[2]
                target[:, i0: i0 + ni, j0: j0 + nj, oc: oc + nc, od: od + nd] = v
                if oc != od:
                    target[:, i0: i0 + ni, j0: j0 + nj,
                           od: od + nd, oc: oc + nc] = v.transpose(0, 1, 2, 4, 3)


def scatter_eri(target, bra, ket, vals) -> None:
    """(npb, na, nb, npk, nc, nd) ERI values into (nbf, nbf, nbf, nbf),
    all eight permutational images; coinciding images keep the last
    write of this loop."""
    na, nb = vals.shape[1], vals.shape[2]
    nc, nd = vals.shape[4], vals.shape[5]
    for rb in range(bra.npair):
        oa, ob = bra.off_a[rb], bra.off_b[rb]
        for rk in range(ket.npair):
            oc, od = ket.off_a[rk], ket.off_b[rk]
            blockv = vals[rb, :, :, rk, :, :]
            for (i0, j0, v4) in (
                (oa, ob, blockv),
                (ob, oa, blockv.transpose(1, 0, 2, 3)),
            ):
                for (k0, l0, v2) in (
                    (oc, od, v4),
                    (od, oc, v4.transpose(0, 1, 3, 2)),
                ):
                    target[i0: i0 + v2.shape[0], j0: j0 + v2.shape[1],
                           k0: k0 + v2.shape[2], l0: l0 + v2.shape[3]] = v2
                    target[k0: k0 + v2.shape[2], l0: l0 + v2.shape[3],
                           i0: i0 + v2.shape[0], j0: j0 + v2.shape[1]] = (
                        v2.transpose(2, 3, 0, 1)
                    )


def scatter_metric(target, bra, ket, vals) -> None:
    """(npb, na, npk, nc) aux-pair values into the symmetric (naux, naux)
    DF metric; on the bra==ket diagonal the last write of this loop
    wins."""
    na, nc = vals.shape[1], vals.shape[3]
    for rb in range(bra.npair):
        oa = bra.off_a[rb]
        for rk in range(ket.npair):
            oc = ket.off_a[rk]
            blockv = vals[rb, :, rk, :]
            target[oa: oa + na, oc: oc + nc] = blockv
            target[oc: oc + nc, oa: oa + na] = blockv.T


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


def e3(blk: PairBlock, ex: list[np.ndarray],
       centres: tuple[int, ...] = ()) -> np.ndarray:
    """Loop twin of ``repro.integrals.engine._e3``: the plain product
    from :func:`_e3_components`, the d/dA variants from
    :func:`_e3_deriv_components` and the d/dB ones from
    :func:`_e3_deriv_components_b`."""
    if not centres:
        return _e3_components(ex, blk.la, blk.lb,
                              hermite_combos(blk.la + blk.lb),
                              weights=blk.cc)[None]
    combos = hermite_combos(blk.la + blk.lb + 1)
    loops = (_e3_deriv_components, _e3_deriv_components_b)
    exps = (blk.a, blk.b)
    return np.concatenate([loops[c](ex, exps[c], blk.la, blk.lb, combos,
                                    weights=blk.cc) for c in centres])


def eri_deriv_ordered(engine) -> np.ndarray:
    """Value oracle for :meth:`IntegralEngine.eri_deriv`.

    The straightforward build: every *ordered* bra shell pair against
    every canonical ket pair, one bra-a derivative per combination, plus
    the ket-swap image. It evaluates the Hermite Coulomb tensor about
    four times as often as the engine's unordered-block build, and
    agrees with it to round-off (not bit for bit: the engine reads the
    dB and dC/dD slots from other contractions).
    """
    nbf = engine.nbf
    out = np.zeros((3, nbf, nbf, nbf, nbf))
    for bra in engine._ordered():
        for ket in engine.blocks:
            vals = engine.coulomb_block_deriv(bra, ket)
            na, nb = vals.shape[2], vals.shape[3]
            nc, nd = vals.shape[5], vals.shape[6]
            for rb in range(bra.npair):
                oa, ob = bra.off_a[rb], bra.off_b[rb]
                for rk in range(ket.npair):
                    oc, od = ket.off_a[rk], ket.off_b[rk]
                    v = vals[:, rb, :, :, rk]
                    out[:, oa: oa + na, ob: ob + nb, oc: oc + nc,
                        od: od + nd] = v
                    if oc != od:
                        out[:, oa: oa + na, ob: ob + nb, od: od + nd,
                            oc: oc + nc] = v.transpose(0, 1, 2, 4, 3)
    return out


#: (module, name) -> loop replacement installed by :func:`oracle_dispatch`
_SWAPS = (
    (engine_module, "build_pair_blocks", build_pair_blocks),
    (engine_module, "scatter_symmetric", scatter_symmetric),
    (engine_module, "scatter_ordered", scatter_ordered),
    (engine_module, "scatter_pairs_aux", scatter_pairs_aux),
    (engine_module, "scatter_pairs_2c", scatter_pairs_2c),
    (engine_module, "scatter_eri_deriv_ab", scatter_eri_deriv_ab),
    (engine_module, "scatter_eri", scatter_eri),
    (engine_module, "scatter_metric", scatter_metric),
    (engine_module, "_e3", e3),
)


@contextmanager
def oracle_dispatch():
    """Route the engine (and so the DF build) through the loop oracle.

    Pair blocks are built (and ordered blocks cached) on first use, so
    construct *and* evaluate the oracle engine inside the block.
    """
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in _SWAPS]
    try:
        for mod, name, fn in _SWAPS:
            setattr(mod, name, fn)
        yield
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)
