import numpy as np
import pytest

from repro.dfpt.hessian import FragmentResponse
from repro.geometry import water_molecule
from repro.geometry.atoms import Geometry
from repro.geometry.water import random_rotation
from repro.pipeline.rigid import (
    geometry_signature,
    kabsch_rotation,
    rotate_response,
    snap_rigid_copies,
)


def test_kabsch_recovers_rotation():
    rng = np.random.default_rng(0)
    p = rng.normal(size=(6, 3))
    rot = random_rotation(rng)
    t = np.array([1.0, -2.0, 0.5])
    q = p @ rot.T + t
    r, t_found, rmsd = kabsch_rotation(p, q)
    assert np.allclose(r, rot, atol=1e-10)
    assert np.allclose(t_found, t, atol=1e-10)
    assert rmsd < 1e-10


def test_kabsch_proper_rotation_only():
    rng = np.random.default_rng(1)
    p = rng.normal(size=(5, 3))
    q = p.copy()
    q[:, 0] *= -1  # reflection
    r, _t, _rmsd = kabsch_rotation(p, q)
    assert np.linalg.det(r) == pytest.approx(1.0)


def test_kabsch_shape_mismatch():
    with pytest.raises(ValueError):
        kabsch_rotation(np.zeros((3, 3)), np.zeros((4, 3)))


def test_signature_invariant_under_motion():
    w = water_molecule()
    rng = np.random.default_rng(2)
    moved = Geometry(
        list(w.symbols), w.coords @ random_rotation(rng).T + 3.7
    )
    assert geometry_signature(w) == geometry_signature(moved)


def test_signature_differs_for_different_geometry():
    w = water_molecule()
    stretched = w.displaced(1, 0, 0.05)
    assert geometry_signature(w) != geometry_signature(stretched)


@pytest.fixture(scope="module")
def water_resp(water_optimized):
    from repro.dfpt import fragment_response

    return water_optimized.geometry, fragment_response(
        water_optimized.geometry, eri_mode="df"
    )


def test_rotated_response_preserves_frequencies(water_resp):
    geom, resp = water_resp
    rng = np.random.default_rng(3)
    rot = random_rotation(rng)
    target = Geometry(list(geom.symbols), geom.coords @ rot.T)
    rotated = rotate_response(resp, rot, target)
    e0 = np.sort(np.linalg.eigvalsh(resp.hessian))
    e1 = np.sort(np.linalg.eigvalsh(rotated.hessian))
    assert np.allclose(e0, e1, atol=1e-10)


def test_rotated_response_matches_recomputation(water_resp):
    """Gold test: rotating the reference response must equal computing
    the response of the rotated geometry from scratch."""
    from repro.dfpt import fragment_response

    geom, resp = water_resp
    rng = np.random.default_rng(4)
    rot = random_rotation(rng)
    target = Geometry(list(geom.symbols), geom.coords @ rot.T)
    rotated = rotate_response(resp, rot, target)
    direct = fragment_response(target, eri_mode="df")
    assert np.allclose(rotated.hessian, direct.hessian, atol=2e-4)
    assert np.allclose(rotated.dalpha_dr, direct.dalpha_dr, atol=2e-3)


def test_snap_rigid_copies():
    w = water_molecule()
    rng = np.random.default_rng(5)
    copies = [
        Geometry(list(w.symbols),
                 w.displaced(1, 0, 0.03).coords @ random_rotation(rng).T + k)
        for k in range(3)
    ]
    snapped = snap_rigid_copies(copies, w)
    for orig, snap in zip(copies, snapped):
        # template internals restored...
        d01 = np.linalg.norm(snap.coords[1] - snap.coords[0])
        assert d01 == pytest.approx(
            np.linalg.norm(w.coords[1] - w.coords[0]), abs=1e-10
        )
        # ...near the copy's position
        assert np.linalg.norm(snap.coords[0] - orig.coords[0]) < 0.2


def test_snap_rejects_mismatched_elements():
    w = water_molecule()
    other = Geometry(["O", "H", "D" if False else "O"], w.coords)
    with pytest.raises(ValueError):
        snap_rigid_copies([other], w)
