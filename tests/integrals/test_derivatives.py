"""Derivative integrals against finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.basis import build_basis
from repro.geometry import water_molecule
from repro.integrals.engine import IntegralEngine, single_shell_blocks
from repro.scf.df import auto_aux_basis
from tests.integrals.corpora import random_system, small_shell_strategy

DELTA = 1.0e-5


def _engine(geom):
    basis = build_basis(geom)
    return IntegralEngine(basis, geom.numbers.astype(float), geom.coords), basis


@pytest.fixture(scope="module")
def water():
    return water_molecule()


@pytest.fixture(scope="module")
def derivs(water):
    eng, basis = _engine(water)
    ds = eng.overlap_deriv()
    dt = eng.kinetic_deriv()
    dvb, dvn = eng.nuclear_deriv()
    return eng, basis, ds, dt, dvb, dvn


@pytest.mark.parametrize("atom,axis", [(0, 0), (0, 2), (1, 1), (2, 0)])
def test_one_electron_derivatives_vs_fd(water, derivs, atom, axis):
    eng, basis, ds, dt, dvb, dvn = derivs
    amap = basis.function_atom_map()
    sel = amap == atom
    ep, _ = _engine(water.displaced(atom, axis, DELTA))
    em, _ = _engine(water.displaced(atom, axis, -DELTA))

    fd_s = (ep.overlap() - em.overlap()) / (2 * DELTA)
    an_s = ds[axis] * sel[:, None] + ds[axis].T * sel[None, :]
    assert np.allclose(an_s, fd_s, atol=5e-9)

    fd_t = (ep.kinetic() - em.kinetic()) / (2 * DELTA)
    an_t = dt[axis] * sel[:, None] + dt[axis].T * sel[None, :]
    assert np.allclose(an_t, fd_t, atol=5e-9)

    fd_v = (ep.nuclear() - em.nuclear()) / (2 * DELTA)
    an_v = dvb[axis] * sel[:, None] + dvb[axis].T * sel[None, :] + dvn[axis, atom]
    assert np.allclose(an_v, fd_v, atol=5e-8)


def test_overlap_deriv_translational_invariance(derivs):
    """Summing the bra/ket slot derivatives over all atoms must vanish
    (a rigid translation leaves every integral unchanged)."""
    _eng, basis, ds, _dt, _dvb, _dvn = derivs
    amap = basis.function_atom_map()
    natm = amap.max() + 1
    total = np.zeros_like(ds)
    for atom in range(natm):
        sel = amap == atom
        for x in range(3):
            total[x] += ds[x] * sel[:, None] + ds[x].T * sel[None, :]
    assert np.allclose(total, 0.0, atol=1e-10)


def test_three_center_deriv_vs_fd(water):
    eng, basis = _engine(water)
    aux = auto_aux_basis(water, basis)
    blocks = single_shell_blocks(aux.shells, aux.offsets)
    d3 = eng.three_center_deriv(blocks, aux.nbf)
    amap = basis.function_atom_map()
    aux_amap = aux.function_atom_map()

    def j3c(geom):
        e, b = _engine(geom)
        from repro.scf.df import DensityFitting

        a = auto_aux_basis(geom, b)
        return DensityFitting(e, a).j3c

    atom, axis = 0, 2
    fd = (
        j3c(water.displaced(atom, axis, DELTA))
        - j3c(water.displaced(atom, axis, -DELTA))
    ) / (2 * DELTA)
    sel = amap == atom
    sel_aux = aux_amap == atom
    an = (
        d3[axis] * sel[:, None, None]
        + d3[axis].transpose(1, 0, 2) * sel[None, :, None]
        + (-d3[axis] - d3[axis].transpose(1, 0, 2)) * sel_aux[None, None, :]
    )
    assert np.allclose(an, fd, atol=5e-8)


def test_two_center_deriv_vs_fd(water):
    eng, basis = _engine(water)
    aux = auto_aux_basis(water, basis)
    blocks = single_shell_blocks(aux.shells, aux.offsets)
    dv2 = eng.two_center_deriv(blocks, aux.nbf)
    aux_amap = aux.function_atom_map()

    def v2c(geom):
        e, b = _engine(geom)
        from repro.scf.df import DensityFitting

        a = auto_aux_basis(geom, b)
        return DensityFitting(e, a).v2c

    atom, axis = 1, 0
    fd = (
        v2c(water.displaced(atom, axis, DELTA))
        - v2c(water.displaced(atom, axis, -DELTA))
    ) / (2 * DELTA)
    sel = aux_amap == atom
    an = dv2[axis] * sel[:, None] + dv2[axis].T * sel[None, :]
    assert np.allclose(an, fd, atol=5e-8)


def test_eri_deriv_vs_fd_h2():
    from repro.geometry.atoms import Geometry

    g = Geometry(["H", "H"], np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.5]]))
    eng, basis = _engine(g)
    deri = eng.eri_deriv()
    amap = basis.function_atom_map()
    atom, axis = 1, 2
    ep, _ = _engine(g.displaced(atom, axis, DELTA))
    em, _ = _engine(g.displaced(atom, axis, -DELTA))
    fd = (ep.eri() - em.eri()) / (2 * DELTA)
    sel = amap == atom
    an = (
        deri[axis] * sel[:, None, None, None]
        + deri[axis].transpose(1, 0, 2, 3) * sel[None, :, None, None]
        + deri[axis].transpose(2, 3, 0, 1) * sel[None, None, :, None]
        + deri[axis].transpose(3, 2, 0, 1).transpose(0, 1, 3, 2)
        * sel[None, None, None, :]
    )
    assert np.allclose(an, fd, atol=1e-8)


def _translation_residual(deri):
    """dA + dB + dC + dD of every quartet, from the bra-slot tensor."""
    return (deri + deri.transpose(0, 2, 1, 3, 4)
            + deri.transpose(0, 3, 4, 1, 2) + deri.transpose(0, 3, 4, 2, 1))


def test_eri_deriv_translational_invariance(water):
    """Moving all four centers together leaves (mn|ls) unchanged. Water
    has p shells and same-center pairs, so every scatter image of the
    bra and the swapped (ket|bra) orientation is exercised."""
    eng, _basis = _engine(water)
    assert np.abs(_translation_residual(eng.eri_deriv())).max() <= 1e-12


@settings(deadline=None, max_examples=5)
@given(spec=small_shell_strategy,
       seed=st.integers(min_value=0, max_value=2**31))
def test_eri_deriv_translational_invariance_random(spec, seed):
    eng = IntegralEngine(*random_system(spec, seed))
    assert np.abs(_translation_residual(eng.eri_deriv())).max() <= 1e-12
