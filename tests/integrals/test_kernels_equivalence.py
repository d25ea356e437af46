"""The engine must be *bit-identical* to the per-pair loop oracle.

The batched kernel layer vectorizes only control flow — class-grouped
pair-block construction and precomputed scatter index plans — never
the floating-point arithmetic itself, so every matrix an
:class:`IntegralEngine` builds must match the loop oracle in
``tests/integrals/oracle.py`` exactly, not just to a tolerance.
Hypothesis generates random s/p/d shell corpora on random centers; the
fixed geometries additionally pin the regression where two p shells on
different centers exercise the transposed scatter image of square
off-diagonal blocks (na == nb > 1), which single-p-shell systems cannot
see.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.basis.gaussian import build_basis
from repro.geometry import water_box, water_molecule
from repro.integrals.batched import build_pair_blocks
from repro.integrals.engine import IntegralEngine
from repro.scf.df import DensityFitting, auto_aux_basis
from tests.integrals import oracle
from tests.integrals.corpora import (
    random_system,
    shell_strategy,
    small_shell_strategy,
)

PAIR_BLOCK_FIELDS = ("ishell", "jshell", "off_a", "off_b", "atom_a",
                     "atom_b", "a", "b", "cc", "ab_vec", "centers_a",
                     "p", "pc")


def _evaluate(engine, *, eri=True, derivs=True):
    """Every matrix the engine builds, by name."""
    out = {
        "overlap": engine.overlap(),
        "kinetic": engine.kinetic(),
        "nuclear": engine.nuclear(),
        "nuclear_atom": engine.nuclear(per_atom=True),
        "dipole": engine.dipole(),
    }
    if eri:
        out["eri"] = engine.eri()
    if derivs:
        out["overlap_deriv"] = engine.overlap_deriv()
        out["kinetic_deriv"] = engine.kinetic_deriv()
        out["nuclear_deriv"], out["nuclear_deriv_atom"] = \
            engine.nuclear_deriv()
        if eri:
            out["eri_deriv"] = engine.eri_deriv()
    return out


def _assert_matches_oracle(basis, charges, coords, *, eri=True,
                           derivs=True):
    engine = IntegralEngine(basis, charges, coords)
    got = _evaluate(engine, eri=eri, derivs=derivs)
    with oracle.oracle_dispatch():
        ref = _evaluate(IntegralEngine(basis, charges, coords),
                        eri=eri, derivs=derivs)
    for name in ref:
        np.testing.assert_array_equal(
            got[name], ref[name], err_msg=f"{name} differs from the oracle"
        )


# -- fixed geometries ------------------------------------------------------

def test_water_sto3g_bit_identical():
    w = water_molecule()
    basis = build_basis(w, name="sto-3g")
    _assert_matches_oracle(basis, w.numbers.astype(float), w.coords)


def _two_p_centers():
    from repro.geometry.atoms import Geometry

    return Geometry(symbols=["O", "O"],
                    coords=np.array([[0.0, 0.0, 0.0], [0.0, 0.4, 2.1]]))


def test_two_p_centers_bit_identical():
    """Two oxygens: p shells on *different* centers, so the engine hits
    square (na == nb == 3) off-diagonal pair blocks whose transposed
    scatter image is order-sensitive — the regression geometry."""
    geom = _two_p_centers()
    basis = build_basis(geom, name="sto-3g")
    _assert_matches_oracle(basis, geom.numbers.astype(float), geom.coords)


def test_waterbox_screened_bit_identical():
    box = water_box(2, seed=3)
    geom = box[0]
    for w in box[1:]:
        from repro.geometry.atoms import Geometry

        geom = Geometry(symbols=list(geom.symbols) + list(w.symbols),
                        coords=np.vstack([geom.coords, w.coords]))
    basis = build_basis(geom, name="sto-3g")
    _assert_matches_oracle(basis, geom.numbers.astype(float), geom.coords,
                           derivs=False)


def _df_tensors(w, basis, aux):
    engine = IntegralEngine(basis, w.numbers.astype(float), w.coords)
    df = DensityFitting(engine, aux)
    return {
        "j3c": df.j3c, "v2c": df.v2c, "b": df.b,
        "three_center_deriv": engine.three_center_deriv(df.aux_blocks,
                                                        aux.nbf),
        "two_center_deriv": engine.two_center_deriv(df.aux_blocks, aux.nbf),
    }


@pytest.mark.parametrize("geom", [water_molecule(), _two_p_centers()],
                         ids=["water", "two_p_centers"])
def test_df_tensors_bit_identical(geom):
    """Two centers give the DF metric bra==ket aux blocks with several p
    and d shells, whose overlapping (P, Q)/(Q, P) images the plan must
    resolve as the loop does."""
    basis = build_basis(geom, name="sto-3g")
    aux = auto_aux_basis(geom, basis)
    got = _df_tensors(geom, basis, aux)
    with oracle.oracle_dispatch():
        ref = _df_tensors(geom, basis, aux)
    for name in ref:
        np.testing.assert_array_equal(got[name], ref[name], err_msg=name)


# -- hypothesis corpora ----------------------------------------------------

@settings(deadline=None, max_examples=20)
@given(spec=shell_strategy, seed=st.integers(min_value=0, max_value=2**31))
def test_random_corpora_one_electron_identical(spec, seed):
    """One-electron matrices and their bra-slot derivatives."""
    _assert_matches_oracle(*random_system(spec, seed), eri=False)


@settings(deadline=None, max_examples=10)
@given(spec=small_shell_strategy,
       seed=st.integers(min_value=0, max_value=2**31))
def test_random_corpora_eri_identical(spec, seed):
    """ERIs and their derivative; fewer shells bound the nbf^4 cost."""
    basis, charges, centers = random_system(spec, seed)
    engine = IntegralEngine(basis, charges, centers)
    got = (engine.eri(), engine.eri_deriv())
    with oracle.oracle_dispatch():
        ref_engine = IntegralEngine(basis, charges, centers)
        ref = (ref_engine.eri(), ref_engine.eri_deriv())
    np.testing.assert_array_equal(got[0], ref[0], err_msg="eri")
    np.testing.assert_array_equal(got[1], ref[1], err_msg="eri_deriv")


# -- value oracle for the unordered-block ERI derivative -------------------
#
# eri_deriv reads the dB slots and, through the sign-flipped R tensor,
# the dC/dD slots of (ket|bra) from shared contractions, so it agrees
# with the ordered-bra build to round-off rather than bit for bit.

def _assert_eri_deriv_matches_ordered(basis, charges, coords):
    engine = IntegralEngine(basis, charges, coords)
    np.testing.assert_allclose(engine.eri_deriv(),
                               oracle.eri_deriv_ordered(engine),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("geom", [water_molecule(), _two_p_centers()],
                         ids=["water", "two_p_centers"])
def test_eri_deriv_matches_ordered(geom):
    basis = build_basis(geom, name="sto-3g")
    _assert_eri_deriv_matches_ordered(basis, geom.numbers.astype(float),
                                      geom.coords)


@settings(deadline=None, max_examples=10)
@given(spec=small_shell_strategy,
       seed=st.integers(min_value=0, max_value=2**31))
def test_random_corpora_eri_deriv_matches_ordered(spec, seed):
    _assert_eri_deriv_matches_ordered(*random_system(spec, seed))


@settings(deadline=None, max_examples=20)
@given(spec=shell_strategy, seed=st.integers(min_value=0, max_value=2**31),
       canonicalize=st.booleans())
def test_random_corpora_pair_blocks_identical(spec, seed, canonicalize):
    """The vectorized block builder must reproduce the loop builder's
    blocks exactly: same classes, same pair order, same packed arrays,
    for canonical pairs and for the ordered pairs of the derivatives."""
    basis, _, _ = random_system(spec, seed)
    ns = len(basis.shells)
    pairs = None if canonicalize else \
        [(i, j) for i in range(ns) for j in range(ns)]
    loop = oracle.build_pair_blocks(basis.shells, basis.offsets, pairs,
                                    canonicalize=canonicalize)
    vec = build_pair_blocks(basis.shells, basis.offsets, pairs,
                            canonicalize=canonicalize)
    assert len(loop) == len(vec)
    for lb, vb in zip(loop, vec):
        assert (lb.la, lb.lb, lb.k2, lb.npair) == \
            (vb.la, vb.lb, vb.k2, vb.npair)
        for field in PAIR_BLOCK_FIELDS:
            np.testing.assert_array_equal(
                getattr(lb, field), getattr(vb, field),
                err_msg=f"PairBlock.{field} differs for class "
                        f"({lb.la},{lb.lb})",
            )


# -- operand builds ----------------------------------------------------------

@pytest.fixture
def e_builds(monkeypatch):
    """Count :meth:`PairBlock.e_tensors` builds per block object."""
    from collections import Counter

    from repro.integrals.engine import PairBlock

    counts = Counter()
    real = PairBlock.e_tensors

    def counted(self, da=0, db=0):
        counts[id(self)] += 1
        return real(self, da, db)

    monkeypatch.setattr(PairBlock, "e_tensors", counted)
    return counts


@pytest.mark.parametrize("geom", [water_molecule(), _two_p_centers()],
                         ids=["water", "two_p_centers"])
def test_each_block_builds_its_operands_once_per_call(geom, e_builds):
    """Every two-electron call builds each block's E tensors once and
    derives all its E3 operands (bra, signed ket, derivative stacks)
    from that build, instead of once per block pair.
    The DF build is two calls, ``three_center`` and ``two_center``, so
    its auxiliary blocks are built twice."""
    basis = build_basis(geom, name="sto-3g")
    eng = IntegralEngine(basis, geom.numbers.astype(float), geom.coords)
    aux = auto_aux_basis(geom, basis)
    orbital = dict.fromkeys(map(id, eng.blocks), 1)

    def builds(call):
        e_builds.clear()
        result = call()
        return result, dict(e_builds)

    assert builds(eng.eri)[1] == orbital
    df, seen = builds(lambda: DensityFitting(eng, aux))
    aux_ids = list(map(id, df.aux_blocks))
    assert seen == {**orbital, **dict.fromkeys(aux_ids, 2)}
    assert builds(lambda: eng.three_center_deriv(df.aux_blocks, df.naux)
                  )[1] == {**orbital, **dict.fromkeys(aux_ids, 1)}
    assert builds(lambda: eng.two_center_deriv(df.aux_blocks, df.naux)
                  )[1] == dict.fromkeys(aux_ids, 1)
    assert builds(eng.eri_deriv)[1] == orbital
