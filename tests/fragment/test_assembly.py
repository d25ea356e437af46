import numpy as np
import pytest

from repro.dfpt.hessian import FragmentResponse
from repro.fragment.assembly import (
    assemble_energy,
    assemble_gradient,
    assemble_response,
    assemble_sparse_hessian,
)
from repro.fragment.fragmenter import QFPiece
from repro.geometry.atoms import Geometry


def _piece(kind, sign, atom_map, mult=1):
    n = len(atom_map)
    geom = Geometry(["H"] * n, np.arange(3 * n, dtype=float).reshape(n, 3))
    return QFPiece(kind, sign, geom, np.asarray(atom_map), multiplicity=mult)


def _response(piece, seed):
    rng = np.random.default_rng(seed)
    n3 = 3 * piece.natoms
    h = rng.normal(size=(n3, n3))
    h = h + h.T
    return FragmentResponse(
        geometry=piece.geometry, energy=float(rng.normal()), hessian=h,
        dalpha_dr=rng.normal(size=(n3, 3, 3)),
        alpha=np.eye(3), gradient=rng.normal(size=(piece.natoms, 3)),
    )


def test_energy_signed_sum():
    pieces = [_piece("fragment", 1.0, [0]), _piece("concap", -1.0, [0])]
    assert assemble_energy(pieces, [5.0, 2.0]) == pytest.approx(3.0)


def test_energy_multiplicity():
    pieces = [_piece("gc_mono", -1.0, [0], mult=3)]
    assert assemble_energy(pieces, [2.0]) == pytest.approx(-6.0)


def test_energy_length_mismatch():
    with pytest.raises(ValueError):
        assemble_energy([_piece("water", 1.0, [0])], [1.0, 2.0])


def test_gradient_maps_atoms():
    piece = _piece("fragment", 1.0, [2, 0])
    g_piece = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    g = assemble_gradient([piece], [g_piece], natoms_total=3)
    assert np.allclose(g[2], [1.0, 2.0, 3.0])
    assert np.allclose(g[0], [4.0, 5.0, 6.0])
    assert np.allclose(g[1], 0.0)


def test_gradient_drops_cap_rows():
    piece = _piece("fragment", 1.0, [1, -1])
    g_piece = np.ones((2, 3))
    g = assemble_gradient([piece], [g_piece], natoms_total=2)
    assert np.allclose(g[1], 1.0)
    assert np.allclose(g[0], 0.0)


def test_hessian_assembly_overlapping_pieces():
    """fragment(0,1) + fragment(1,2) - concap(1) must reproduce a
    block-additive Hessian with the shared atom counted once."""
    p1 = _piece("fragment", 1.0, [0, 1])
    p2 = _piece("fragment", 1.0, [1, 2])
    pc = _piece("concap", -1.0, [1])
    r1, r2, rc = _response(p1, 1), _response(p2, 2), _response(pc, 3)
    out = assemble_response([p1, p2, pc], [r1, r2, rc], natoms_total=3)
    # atom-1 diagonal block: sum of both fragments minus concap
    block = (
        r1.hessian[3:6, 3:6] + r2.hessian[0:3, 0:3] - rc.hessian[0:3, 0:3]
    )
    assert np.allclose(out.hessian[3:6, 3:6], block)
    # atom 0 - atom 2 coupling: no shared piece, must be zero
    assert np.allclose(out.hessian[0:3, 6:9], 0.0)
    assert out.energy == pytest.approx(r1.energy + r2.energy - rc.energy)


def test_dalpha_assembly():
    p = _piece("water", 1.0, [1])
    r = _response(p, 4)
    out = assemble_response([p], [r], natoms_total=2)
    assert np.allclose(out.dalpha_dr[3:6], r.dalpha_dr)
    assert np.allclose(out.dalpha_dr[0:3], 0.0)


def test_sparse_matches_dense():
    p1 = _piece("fragment", 1.0, [0, 2])
    p2 = _piece("gc_mono", -1.0, [1], mult=2)
    rs = [_response(p1, 5), _response(p2, 6)]
    dense = assemble_response([p1, p2], rs, natoms_total=3).hessian
    sparse = assemble_sparse_hessian([p1, p2], rs, natoms_total=3)
    assert np.allclose(sparse.toarray(), dense, atol=1e-12)


def test_sparse_mass_weighting():
    p = _piece("water", 1.0, [0])
    r = _response(p, 7)
    masses = np.array([4.0])
    sp = assemble_sparse_hessian([p], [r], natoms_total=1, masses_amu=masses)
    assert np.allclose(sp.toarray(), r.hessian / 4.0, atol=1e-12)


def test_response_length_mismatch():
    p = _piece("water", 1.0, [0])
    with pytest.raises(ValueError):
        assemble_response([p], [], natoms_total=1)


# -- array passes against the per-piece loop (tests/fragment/oracle.py) ------

def _synthetic_responses(pieces, seed):
    """Random symmetric piece Hessians and dα/dR, one per piece."""
    rng = np.random.default_rng(seed)
    out = []
    for piece in pieces:
        n3 = 3 * piece.natoms
        h = rng.normal(size=(n3, n3))
        out.append(FragmentResponse(
            geometry=piece.geometry, energy=float(rng.normal()),
            hessian=h + h.T, dalpha_dr=rng.normal(size=(n3, 3, 3)),
            alpha=None, gradient=np.zeros((piece.natoms, 3)),
        ))
    return out


@pytest.fixture(scope="module")
def peptide_water_system():
    """Capped penta-peptide + solvation shell: fragments and concaps with
    cap atoms (atom_map == -1), water and residue-water two-body pieces,
    and global entries that sum many overlapping pieces."""
    from repro.fragment import decompose_system
    from repro.geometry import build_polypeptide
    from repro.geometry.solvate import solvate

    protein, residues = build_polypeptide(["GLY", "ALA", "GLY", "SER", "GLY"])
    waters = solvate(protein, margin=3.0, seed=0)
    dec = decompose_system(protein=protein, residues=residues, waters=waters)
    assert any((p.atom_map < 0).any() for p in dec.pieces)
    assert any(p.label.startswith("rw[") for p in dec.pieces)
    assert any(p.label.startswith("ww[") for p in dec.pieces)
    masses = np.concatenate([protein.masses] + [w.masses for w in waters])
    return dec, _synthetic_responses(dec.pieces, 11), masses


@pytest.fixture(scope="module")
def water_frame():
    """The benchmark's 729-water frame (7 Å lattice, one-body pieces)."""
    from repro.fragment import decompose_system
    from repro.geometry import water_box

    waters = water_box(729, density=1.0 / 343.0, seed=0)
    dec = decompose_system(waters=waters)
    masses = np.concatenate([w.masses for w in waters])
    return dec, _synthetic_responses(dec.pieces, 12), masses


def _assert_dense_identical(system):
    from repro.fragment.assembly import _demand_zero
    from tests.fragment import oracle

    dec, responses, _masses = system
    out = assemble_response(dec.pieces, responses, dec.natoms_total)
    energy, hessian, dalpha = oracle.assemble_response(
        dec.pieces, responses, dec.natoms_total, zeros=_demand_zero)
    assert out.energy == energy
    assert np.array_equal(out.dalpha_dr, dalpha)
    for i in range(0, hessian.shape[0], 2048):   # no n3^2 temporaries
        assert np.array_equal(out.hessian[i:i + 2048], hessian[i:i + 2048])


def _assert_sparse_identical(system):
    from tests.fragment import oracle

    dec, responses, masses = system
    for m in (None, masses):
        got = assemble_sparse_hessian(dec.pieces, responses,
                                      dec.natoms_total, masses_amu=m)
        ref = oracle.assemble_sparse_hessian(dec.pieces, responses,
                                             dec.natoms_total, masses_amu=m)
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data, ref.data)


def test_dense_assembly_matches_loop_on_peptide_water(peptide_water_system):
    _assert_dense_identical(peptide_water_system)


def test_sparse_assembly_matches_loop_on_peptide_water(peptide_water_system):
    _assert_sparse_identical(peptide_water_system)


def test_dense_assembly_matches_loop_on_water_frame(water_frame):
    _assert_dense_identical(water_frame)


def test_sparse_assembly_matches_loop_on_water_frame(water_frame):
    _assert_sparse_identical(water_frame)


def test_assembly_without_raman_tensors(peptide_water_system):
    from tests.fragment import oracle

    dec, responses, _masses = peptide_water_system
    responses = [FragmentResponse(r.geometry, r.energy, r.hessian, None,
                                  None, r.gradient) for r in responses]
    out = assemble_response(dec.pieces, responses, dec.natoms_total)
    _e, hessian, dalpha = oracle.assemble_response(
        dec.pieces, responses, dec.natoms_total)
    assert out.dalpha_dr is None and dalpha is None
    assert np.array_equal(out.hessian, hessian)


def test_dense_hessian_is_a_writable_zero_buffer():
    from repro.fragment.assembly import _demand_zero

    h = _demand_zero((300, 300))
    assert h.dtype == np.float64 and h.shape == (300, 300)
    assert h.flags.c_contiguous and h.flags.writeable
    assert not h.any()
    h[7, 11] = 2.5
    assert h.sum() == 2.5


def test_empty_system_assembles():
    out = assemble_response([], [], natoms_total=0)
    assert out.hessian.shape == (0, 0) and out.energy == 0.0
    assert out.dalpha_dr.shape == (0, 3, 3)
    sp = assemble_sparse_hessian([], [], natoms_total=0,
                                 masses_amu=np.zeros(0))
    assert sp.shape == (0, 0) and sp.nnz == 0
