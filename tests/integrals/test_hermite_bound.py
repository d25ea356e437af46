"""The engine reads the Hermite Coulomb tensor only up to the order it
asks for.

:func:`~repro.integrals.engine.hermite_coulomb_vec` evaluates entries
with t+u+v <= lmax and leaves the rest of its cube exactly zero, so a
read past ``lmax`` would silently return 0 instead of failing. These
tests pin the read contract: the summed-index gather tables stay within
the combined order, and every R read that the integral builders make,
including the ket-derivative tables of ``eri_deriv`` and the
raised-index operator derivative of ``nuclear_deriv``, lands at
t+u+v <= lmax.
"""

import itertools

import numpy as np
import pytest

from repro.integrals import engine as engine_mod
from repro.integrals.engine import (
    IntegralEngine,
    _combined_index,
    hermite_combos,
    single_shell_blocks,
)
from tests.integrals.corpora import random_system

L_SHELL = 2  # s, p, d on each side of a pair


def test_combined_index_within_total_order():
    """The gather tables of every (bra, ket) class: plain (integrals,
    Schwarz), bra derivative (gradients) and ket derivative
    (``ket_stack`` of ``eri_deriv``)."""
    for la, lb, lc, ld in itertools.product(range(L_SHELL + 1), repeat=4):
        lbra, lket = la + lb, lc + ld
        for lb_, lk_ in ((lbra, lket), (lbra + 1, lket), (lbra, lket + 1)):
            ti, ui, vi = _combined_index(hermite_combos(lb_),
                                         hermite_combos(lk_))
            total = ti + ui + vi
            assert total.max() == lb_ + lk_
            assert total.min() == 0


class _BoundedR(np.ndarray):
    """R cube that records every read of its three Hermite indices."""

    lmax: int
    reads: list

    def __array_finalize__(self, obj):
        self.lmax = getattr(obj, "lmax", None)
        self.reads = getattr(obj, "reads", None)

    def __getitem__(self, key):
        out = super().__getitem__(key)
        if isinstance(key, tuple) and len(key) >= 3:
            t, u, v = (np.asarray(k) for k in key[-3:])
            assert all(np.issubdtype(k.dtype, np.integer) for k in (t, u, v))
            self.reads.append((self.lmax, int((t + u + v).max())))
        return np.asarray(out)


@pytest.fixture
def r_reads(monkeypatch):
    """Route the engine's R tensors through :class:`_BoundedR`; returns
    the (lmax, highest order read) log."""
    reads: list = []
    real = engine_mod.hermite_coulomb_vec

    def bounded(lmax, p, pq):
        r = real(lmax, p, pq).view(_BoundedR)
        r.lmax, r.reads = lmax, reads
        return r

    monkeypatch.setattr(engine_mod, "hermite_coulomb_vec", bounded)
    return reads


def _spd_engine(schwarz_cutoff=0.0):
    # s, p and two d shells on four centers: every canonical and ordered
    # pair class up to (d, d), with distinct centers inside each class
    basis, charges, centers = random_system(
        [(0, 0, 2), (1, 1, 2), (2, 2, 1), (2, 3, 2)], seed=5
    )
    eng = IntegralEngine(basis, charges, centers, schwarz_cutoff=schwarz_cutoff)
    return eng, basis


def _assert_within(reads):
    assert reads, "no R reads recorded"
    over = [(lmax, hi) for lmax, hi in reads if hi > lmax]
    assert not over, f"R reads past lmax: {sorted(set(over))}"


def test_integral_reads_within_lmax(r_reads):
    eng, basis = _spd_engine(schwarz_cutoff=1e-14)
    eng.nuclear(per_atom=True)
    eng.eri()  # Schwarz bounds, then coulomb_block per class pair
    _assert_within(r_reads)
    assert {lmax for lmax, _ in r_reads} >= {4, 8}  # nuclear (d,d); (dd|dd)


def test_derivative_reads_within_lmax(r_reads):
    eng, basis = _spd_engine()
    aux = single_shell_blocks(basis.shells, basis.offsets)
    eng.nuclear_deriv()  # bra slot and raised-index operator derivative
    eng.three_center_deriv(aux, basis.nbf)
    eng.two_center_deriv(aux, basis.nbf)
    eng.eri_deriv()  # bra stacks and, for bra != ket, ket stacks
    _assert_within(r_reads)
    assert 9 in {lmax for lmax, _ in r_reads}  # (dd|dd) plus one derivative
