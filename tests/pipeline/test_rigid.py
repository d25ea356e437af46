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


# -- stacked fits and rotations against the per-copy loop --------------------
# (tests/pipeline/oracle.py)

from pathlib import Path  # noqa: E402

from repro.fragment.fragmenter import QFDecomposition, QFPiece  # noqa: E402
from repro.geometry import water_box  # noqa: E402
from tests.pipeline import oracle  # noqa: E402


def _load_workloads():
    """The benchmark's input builders (benchmarks/qfbench/workloads.py)."""
    import importlib.util

    path = (Path(__file__).resolve().parents[2] / "benchmarks" / "qfbench"
            / "workloads.py")
    spec = importlib.util.spec_from_file_location("qfbench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_kabsch_stack_is_bit_identical_per_copy():
    ref = water_molecule().coords
    copies = np.stack([w.coords for w in water_box(200, seed=4)])
    r, t, rmsd = kabsch_rotation(ref, copies)
    assert r.shape == (200, 3, 3) and t.shape == (200, 3)
    for k in range(200):
        r1, t1, rmsd1 = oracle.kabsch_rotation(ref, copies[k])
        assert np.array_equal(r[k], r1) and np.array_equal(t[k], t1)
        assert rmsd[k] == rmsd1


@pytest.mark.parametrize("seed", range(10))
def test_relaxed_water_boxes_are_bit_identical(seed):
    """The benchmark's inputs: both box sizes its workloads build."""
    workloads = _load_workloads()
    template = workloads.relaxed_water()
    for n, kwargs in ((2, {"seed": seed}),
                      (workloads.TRAJ_WATERS,
                       {"density": workloads.TRAJ_DENSITY,
                        "seed": 1000 * seed})):
        got = workloads.relaxed_water_box(n, **kwargs)
        expect = oracle.snap_rigid_copies(water_box(n, **kwargs), template)
        assert all(np.array_equal(g.coords, e) for g, e in zip(got, expect))


def test_signature_is_identical_to_loop():
    rng = np.random.default_rng(6)
    for n in (1, 2, 3, 7, 20):
        g = Geometry(["C"] * n, rng.normal(scale=3.0, size=(n, 3)))
        assert geometry_signature(g) == oracle.geometry_signature(g)
    w = water_molecule()
    assert geometry_signature(w) == oracle.geometry_signature(w)


def _synthetic_response(geometry, seed):
    rng = np.random.default_rng(seed)
    n3 = 3 * geometry.natoms
    h = rng.normal(size=(n3, n3))
    return FragmentResponse(
        geometry=geometry, energy=-1.5, hessian=h + h.T,
        dalpha_dr=rng.normal(size=(n3, 3, 3)),
        alpha=rng.normal(size=(3, 3)),
        gradient=rng.normal(size=(geometry.natoms, 3)), meta={"k": 1},
    )


def _rel(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


def test_rotate_response_stack_matches_per_copy():
    rng = np.random.default_rng(7)
    resp = _synthetic_response(water_molecule(), 8)
    rots = np.stack([random_rotation(rng) for _ in range(25)])
    targets = [Geometry(["O", "H", "H"], resp.geometry.coords @ r.T)
               for r in rots]
    out = rotate_response(resp, rots, targets)
    assert len(out) == 25
    for r, tgt, got in zip(rots, targets, out):
        hessian, dalpha, alpha, grad = oracle.rotate_response(resp, r)
        assert np.array_equal(got.hessian, hessian)
        assert _rel(got.dalpha_dr, dalpha) <= 1e-14
        assert _rel(got.alpha, alpha) <= 1e-14
        assert _rel(got.gradient, grad) <= 1e-14
        assert got.geometry is tgt and got.meta == {"k": 1, "rotated": True}
    single = rotate_response(resp, rots[0], targets[0])
    assert isinstance(single, FragmentResponse)
    assert np.array_equal(single.dalpha_dr, out[0].dalpha_dr)


#: a chiral 4-atom piece: its mirror image has the same distances (and
#: so the same signature) but no proper rotation maps one onto the other
_CHIRAL = np.array([[0.0, 0.0, 0.0], [2.1, 0.0, 0.0], [0.0, 2.5, 0.0],
                    [0.4, 0.6, 2.8]])


def _chiral_pieces():
    rng = np.random.default_rng(9)
    mirror = _CHIRAL * np.array([-1.0, 1.0, 1.0])

    def piece(coords, k):
        moved = coords @ random_rotation(rng).T + rng.normal(size=3)
        return QFPiece("fragment", 1.0, Geometry(["C", "H", "F", "O"], moved),
                       np.arange(4 * k, 4 * k + 4), label=f"p{k}")

    # A A M M A B A: the second A after the mirrors fails the fit against
    # the latest representative (a mirror) and becomes one itself
    shapes = [_CHIRAL, _CHIRAL, mirror, mirror, _CHIRAL, None, _CHIRAL]
    out = []
    for k, shape in enumerate(shapes):
        if shape is None:
            w = water_molecule()
            out.append(QFPiece("water", 1.0, w, np.arange(4 * k, 4 * k + 3),
                               label=f"p{k}"))
        else:
            out.append(piece(shape, k))
    return out


def test_rigid_copies_follow_the_latest_representative():
    from repro.pipeline.qf_raman import _rigid_copies

    pieces = _chiral_pieces()
    expect = oracle.rigid_plan(pieces)
    assert [e[0] for e in expect] == ["rep", "rotate", "rep", "rotate",
                                      "rep", "rep", "rotate"]
    copies = _rigid_copies(pieces)
    assert sorted(copies) == [k for k, e in enumerate(expect)
                              if e[0] == "rep"]
    for head, (members, rots) in copies.items():
        assert members == [k for k, e in enumerate(expect)
                           if e[0] == "rotate" and e[1] == head]
        for k, rot in zip(members, rots):
            assert np.array_equal(rot, expect[k][2])


class _RecordingStore:
    """Serves a synthetic response for every task and records the order
    of the lookups."""

    def __init__(self):
        self.lookups: list[int] = []

    def load_task(self, task):
        self.lookups.append(task.index)
        return _synthetic_response(task.geometry, task.index)

    def stats(self):
        return {}


def test_compute_responses_keeps_lookup_order_and_rotations():
    from repro.obs.counters import counters
    from repro.pipeline.qf_raman import QFRamanPipeline

    pieces = _chiral_pieces()
    dec = QFDecomposition(pieces=pieces, natoms_total=28)
    pipe = QFRamanPipeline(waters=[water_molecule()])
    pipe.canonical = _RecordingStore()
    before = counters().get("pipeline.rigid_rotations")
    responses, unique = pipe.compute_responses(dec)
    plan = oracle.rigid_plan(pieces)
    reps = [k for k, e in enumerate(plan) if e[0] == "rep"]
    assert pipe.canonical.lookups == reps and unique == 0
    assert pipe.rigid_rotations == 3
    assert counters().get("pipeline.rigid_rotations") - before == 3
    for k, entry in enumerate(plan):
        if entry[0] == "rep":
            continue
        ref = _synthetic_response(pieces[entry[1]].geometry, entry[1])
        hessian, dalpha, _alpha, _grad = oracle.rotate_response(ref, entry[2])
        assert np.array_equal(responses[k].hessian, hessian)
        assert _rel(responses[k].dalpha_dr, dalpha) <= 1e-14
        assert responses[k].geometry is pieces[k].geometry
