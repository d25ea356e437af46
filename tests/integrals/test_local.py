"""Displacement-local builds against the full build they replace.

A build handed the :class:`BaseIntegrals` of a base geometry recomputes
only the elements that involve a function on the moved atom and copies
the rest. The full build at the displaced geometry is the oracle: for
every atom and axis, each local tensor must match it to 1e-14 relative.
The two are not bit-identical, because the selected pair blocks give
different GEMM shapes.
"""

import dataclasses

import numpy as np
import pytest

from repro.basis import build_basis
from repro.geometry import water_dimer, water_molecule
from repro.geometry.atoms import Geometry
from repro.integrals.engine import (
    BaseIntegrals,
    IntegralEngine,
    single_shell_blocks,
)
from repro.scf.df import auto_aux_basis

DELTA = 5.0e-3
RTOL = 1.0e-14


def _engine(geom):
    basis = build_basis(geom, "sto-3g")
    return IntegralEngine(basis, geom.numbers.astype(float), geom.coords), basis


def _aux(geom, basis):
    aux = auto_aux_basis(geom, basis)
    return aux, single_shell_blocks(aux.shells, aux.offsets)


def _exact(eng, basis, base=None):
    return {"eri": eng.eri(base), "eri_deriv": eng.eri_deriv(base)}


def _df(eng, geom, basis, base=None):
    aux, blocks = _aux(geom, basis)
    return {
        "j3c": eng.three_center(blocks, aux.nbf, base),
        "v2c": eng.two_center(blocks, aux.nbf, base),
        "three_center_deriv": eng.three_center_deriv(blocks, aux.nbf, base),
        "two_center_deriv": eng.two_center_deriv(blocks, aux.nbf, base),
    }


def _base(geom, exact):
    """The BaseIntegrals of ``geom``, as the displacement loop keeps them."""
    eng, basis = _engine(geom)
    tensors = _exact(eng, basis) if exact else _df(eng, geom, basis)
    return BaseIntegrals(**tensors)


def _stretched_waters() -> Geometry:
    """Two waters 15 bohr apart: the pair-prefactor screen drops the
    oxygen-core pairs across the gap here, so the local build must keep
    the same pair list as the full one."""
    w = water_molecule()
    return Geometry(list(w.symbols) * 2,
                    np.vstack([w.coords, w.coords + [15.0, 0.0, 0.0]]))


CASES = {
    # (geometry, exact path?)
    "dimer_exact": (water_dimer, True),
    "stretched_exact_screened": (_stretched_waters, True),
    "water_df": (water_molecule, False),
    "stretched_df_screened": (_stretched_waters, False),
}


@pytest.mark.parametrize("case", list(CASES))
def test_local_build_matches_full_build(case):
    make, exact = CASES[case]
    geom = make()
    base = _base(geom, exact)
    for atom in range(geom.natoms):
        for axis in range(3):
            moved = geom.displaced(atom, axis, DELTA)
            local = dataclasses.replace(base, moved=(atom,))
            eng, basis = _engine(moved)
            if exact:
                got, want = (_exact(eng, basis, local), _exact(eng, basis))
            else:
                got, want = (_df(eng, moved, basis, local),
                             _df(eng, moved, basis))
            for name, ref in want.items():
                err = np.abs(got[name] - ref).max() / np.abs(ref).max()
                assert err <= RTOL, (
                    f"{name} atom {atom} axis {axis}: {err:.2e} relative")


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "df"])
def test_nothing_moved_copies_the_base(exact):
    """With no atom moved, a build recomputes nothing and returns a
    copy of its base tensor."""
    geom = water_molecule()
    base = _base(geom, exact)
    eng, basis = _engine(geom)
    got = (_exact(eng, basis, base) if exact
           else _df(eng, geom, basis, base))
    for name, tensor in got.items():
        np.testing.assert_array_equal(tensor, getattr(base, name))
        assert tensor is not getattr(base, name)


def test_local_build_does_less_kernel_work(monkeypatch):
    """A displaced eri_deriv build contracts only the pairs touching the
    moved atom: it contracts fewer bra x ket primitive pairs than a full
    build of the same geometry."""
    geom = water_dimer()
    base = _base(geom, exact=True)
    eng, _ = _engine(geom.displaced(0, 0, DELTA))
    contracted = []
    core = IntegralEngine._coulomb_core

    def counted(self, bra, ket, *args, **kwargs):
        contracted.append(bra.nprim * ket.nprim)
        return core(self, bra, ket, *args, **kwargs)

    monkeypatch.setattr(IntegralEngine, "_coulomb_core", counted)

    def primitive_pairs(build):
        contracted.clear()
        build()
        return sum(contracted)

    full = primitive_pairs(eng.eri_deriv)
    local = primitive_pairs(lambda: eng.eri_deriv(
        dataclasses.replace(base, moved=(0,))))
    assert 0 < local < full


def test_base_of_the_wrong_path_is_rejected():
    """A DF base handed to an exact build is refused, not silently
    taken as zeros for the copied elements."""
    geom = water_molecule()
    base = dataclasses.replace(_base(geom, exact=False), moved=(0,))
    eng, _ = _engine(geom)
    with pytest.raises(ValueError, match="base eri"):
        eng.eri(base)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "df"])
def test_touched_base_elements_are_never_read(exact):
    """A local build zeroes every base element that involves a moved
    function before it recomputes them, so the ones the pair-prefactor
    screen then drops are zeros, as in a full build, and never stale
    base values. Poisoning them with NaN in the base must change
    nothing."""
    geom = _stretched_waters()
    base = _base(geom, exact)
    _, basis = _engine(geom)
    orb = basis.function_atom_map() == 0
    aux = auto_aux_basis(geom, basis).function_atom_map() == 0
    axes = {"eri": (orb,) * 4, "eri_deriv": (None,) + (orb,) * 4,
            "j3c": (orb, orb, aux), "v2c": (aux, aux),
            "three_center_deriv": (None, orb, orb, aux),
            "two_center_deriv": (None, aux, aux)}
    poisoned = {}
    for name, masks in axes.items():
        tensor = getattr(base, name)
        if tensor is None:
            continue
        tensor = tensor.copy()
        for axis, mask in enumerate(masks):
            if mask is not None:
                tensor[(slice(None),) * axis + (mask,)] = np.nan
        poisoned[name] = tensor
    local = dataclasses.replace(base, moved=(0,), **poisoned)
    moved = geom.displaced(0, 0, DELTA)
    eng, mbasis = _engine(moved)
    if exact:
        got, want = _exact(eng, mbasis, local), _exact(eng, mbasis)
    else:
        got, want = _df(eng, moved, mbasis, local), _df(eng, moved, mbasis)
    for name, ref in want.items():
        err = np.abs(got[name] - ref).max() / np.abs(ref).max()
        assert err <= RTOL, f"{name}: {err:.2e} relative"
