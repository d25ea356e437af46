"""The engine reads the compact Hermite Coulomb array only through
gather tables that decode to the right (t, u, v) of the order it built.

:func:`~repro.integrals.engine.hermite_coulomb_vec` returns R as a
compact ``(ncombos(lmax), n)`` array in ``hermite_combos(lmax)`` order,
and every builder reads it through a flat row table. A wrong table
entry that stays in range would silently read a different R_tuv, so
these tests pin the tables: each entry decodes to the summed (or
raised) index, below ``ncombos(lmax)``. They also log every row read
that the integral builders make, including the ket-derivative tables of
``eri_deriv`` and the raised-index operator derivative of
``nuclear_deriv``, and check that it lands inside the array built.
"""

import itertools

import numpy as np
import pytest

from repro.integrals import engine as engine_mod
from repro.integrals.engine import (
    IntegralEngine,
    _combined_index,
    _raised_index,
    hermite_combos,
    ncombos,
    single_shell_blocks,
)
from tests.integrals.corpora import random_system

L_SHELL = 2  # s, p, d on each side of a pair


def test_ncombos_counts_hermite_combos():
    for lmax in range(13):
        assert ncombos(lmax) == len(hermite_combos(lmax))


def test_combined_index_within_total_order():
    """The gather tables of every (bra, ket) class: plain (integrals),
    bra derivative (gradients) and ket derivative
    (the second term of ``eri_deriv``)."""
    for la, lb, lc, ld in itertools.product(range(L_SHELL + 1), repeat=4):
        lbra, lket = la + lb, lc + ld
        for lb_, lk_ in ((lbra, lket), (lbra + 1, lket), (lbra, lket + 1)):
            table = _combined_index(lb_, lk_)
            ltot = lb_ + lk_
            assert table.shape == (ncombos(lb_), ncombos(lk_))
            assert 0 <= table.min() and table.max() < ncombos(ltot)
            combos = hermite_combos(ltot)
            for (i, cb), (j, ck) in itertools.product(
                    enumerate(hermite_combos(lb_)),
                    enumerate(hermite_combos(lk_))):
                assert combos[table[i, j]] == tuple(
                    b + k for b, k in zip(cb, ck))
            # the highest row read is of total order lbra + lket
            assert max(sum(combos[r]) for r in table.ravel()) == ltot


def test_raised_index_decodes_to_raised_index():
    """The operator-derivative table of ``nuclear_deriv``."""
    for lmax in range(2 * L_SHELL + 1):
        table = _raised_index(lmax)
        combos = hermite_combos(lmax + 1)
        assert table.shape == (3, ncombos(lmax))
        assert table.max() < ncombos(lmax + 1)
        for d in range(3):
            for i, tuv in enumerate(hermite_combos(lmax)):
                raised = list(tuv)
                raised[d] += 1
                assert combos[table[d, i]] == tuple(raised)


class _LoggedR(np.ndarray):
    """Compact R array that records every row-table read.

    Reads are ``__getitem__`` with an integer array on the row axis and
    ``take`` along it (axis 1 of the bra-primitive-major copy made by
    ``_coulomb_core``); the log holds (lmax, highest row read, rows
    held).
    """

    lmax: int
    reads: list
    row_axis: int

    def __array_finalize__(self, obj):
        self.lmax = getattr(obj, "lmax", None)
        self.reads = getattr(obj, "reads", None)
        self.row_axis = getattr(obj, "row_axis", 0)

    def __array_wrap__(self, arr, context=None, return_scalar=False):
        out = super().__array_wrap__(arr, context, return_scalar)
        if isinstance(out, _LoggedR):
            out.lmax, out.reads, out.row_axis = (self.lmax, self.reads,
                                                 self.row_axis)
        return out

    def transpose(self, *axes):
        out = super().transpose(*axes)
        perm = axes[0] if len(axes) == 1 else axes
        if perm:
            out.row_axis = list(perm).index(self.row_axis)
        return out

    def _log(self, rows):
        rows = np.asarray(rows)
        assert np.issubdtype(rows.dtype, np.integer)
        self.reads.append((self.lmax, int(rows.max()), self.shape[
            self.row_axis]))

    def __getitem__(self, key):
        if isinstance(key, np.ndarray) and self.row_axis == 0:
            self._log(key)
        return np.asarray(super().__getitem__(key))

    def take(self, indices, axis=None, **kw):
        assert axis == self.row_axis, "R read along a non-row axis"
        self._log(indices)
        return np.asarray(super().take(indices, axis=axis, **kw))


@pytest.fixture
def r_reads(monkeypatch):
    """Route the engine's R arrays through :class:`_LoggedR`; returns
    the (lmax, highest row read, rows held) log."""
    reads: list = []
    real = engine_mod.hermite_coulomb_vec

    def logged(lmax, p, pq):
        r = real(lmax, p, pq)
        assert r.shape[0] == ncombos(lmax)
        r = r.view(_LoggedR)
        r.lmax, r.reads, r.row_axis = lmax, reads, 0
        return r

    monkeypatch.setattr(engine_mod, "hermite_coulomb_vec", logged)
    return reads


def _spd_engine():
    # s, p and two d shells on four centers: every canonical and ordered
    # pair class up to (d, d), with distinct centers inside each class
    basis, charges, centers = random_system(
        [(0, 0, 2), (1, 1, 2), (2, 2, 1), (2, 3, 2)], seed=5
    )
    eng = IntegralEngine(basis, charges, centers)
    return eng, basis


def _assert_within(reads):
    assert reads, "no R reads recorded"
    for lmax, hi, held in reads:
        assert held == ncombos(lmax), "R row axis lost its layout"
    over = [(lmax, hi) for lmax, hi, _ in reads if hi >= ncombos(lmax)]
    assert not over, f"R reads past lmax: {sorted(set(over))}"


def test_integral_reads_within_lmax(r_reads):
    eng, basis = _spd_engine()
    eng.nuclear(per_atom=True)  # reads all of R: no table
    eng.eri()  # one Coulomb contraction per class pair
    _assert_within(r_reads)
    assert {lmax for lmax, _, _ in r_reads} >= {4, 8}  # (ss|dd); (dd|dd)


def test_derivative_reads_within_lmax(r_reads):
    eng, basis = _spd_engine()
    aux = single_shell_blocks(basis.shells, basis.offsets)
    eng.nuclear_deriv()  # raised-index operator derivative
    eng.three_center_deriv(aux, basis.nbf)
    eng.two_center_deriv(aux, basis.nbf)
    eng.eri_deriv()  # bra stacks and, for bra != ket, ket stacks
    _assert_within(r_reads)
    assert 9 in {lmax for lmax, _, _ in r_reads}  # (dd|dd) plus one derivative
