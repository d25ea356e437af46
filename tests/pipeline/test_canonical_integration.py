"""Integration of the fragment-response store with its callers.

The store has one lookup rule and three callers — the pipeline's plan
phase, the resilient executor's checkpoints and the CLI — and each has
a contract worth pinning: an exact entry is served verbatim before any
rotation is attempted (resume stays bit-identical), the plan phase is
the only lookup, and a store never switches a run into resilient mode.
"""

import numpy as np
import pytest

from repro.dfpt.hessian import FragmentResponse
from repro.geometry.atoms import Geometry
from repro.geometry.water import random_rotation
from repro.pipeline.canonical import CanonicalStore


def _water(i: int = 0) -> Geometry:
    return Geometry(["O", "H", "H"],
                    np.array([[0.0, 0.0, 0.0],
                              [1.8 + 0.01 * i, 0.0, 0.0],
                              [-0.45, 1.75, 0.0]]))


def _rotated(g: Geometry, seed: int = 3) -> Geometry:
    rng = np.random.default_rng(seed)
    return Geometry(list(g.symbols),
                    g.coords @ random_rotation(rng).T
                    + rng.uniform(-4.0, 4.0, size=3))


def _response(g: Geometry, seed: int = 0) -> FragmentResponse:
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((3 * g.natoms,) * 2)
    return FragmentResponse(
        geometry=g, energy=-74.9, hessian=0.5 * (h + h.T),
        dalpha_dr=rng.standard_normal((3 * g.natoms, 3, 3)),
        alpha=rng.standard_normal((3, 3)),
        gradient=rng.standard_normal((g.natoms, 3)),
    )


def test_response_cache_rigid_fallback_hits_rotated_copy(tmp_path):
    store = CanonicalStore(tmp_path)
    g = _water()
    store.store(g, _response(g), "sto-3g", 5.0e-3)
    copy = _rotated(g)
    got = store.load(copy, "sto-3g", 5.0e-3)
    assert got is not None
    assert store.hits == 1 and store.rotations == 1
    # sanity: the rotated-back Hessian has the same spectrum
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(got.hessian)),
        np.sort(np.linalg.eigvalsh(_response(g).hessian)),
        atol=1.0e-10,
    )


def test_run_store_canonical_fallback_and_exact_first(tmp_path):
    """The exact entry wins over rotation: a rotated copy is served by
    rotating the entry, the identical geometry gets the stored arrays
    bit for bit — which is what keeps kill/resume bit-identical."""
    store = CanonicalStore(tmp_path)
    g = _water()
    resp = _response(g)
    store.store(g, resp, "sto-3g", 5.0e-3)

    # a rotated copy (a different task key) hits by rotation — this is
    # what a re-oriented rerun looks like
    assert store.load(_rotated(g), "sto-3g", 5.0e-3) is not None
    assert store.rotations == 1

    # the identical geometry is an exact hit: the stored arrays come
    # back bit for bit, no rotation applied
    exact = store.load(g, "sto-3g", 5.0e-3)
    assert exact is not None
    assert store.rotations == 1 and store.hits == 2
    np.testing.assert_array_equal(exact.hessian, resp.hessian)
    np.testing.assert_array_equal(exact.dalpha_dr, resp.dalpha_dr)
    np.testing.assert_array_equal(exact.gradient, resp.gradient)


def test_run_store_off_by_default(tmp_path, monkeypatch):
    """Without ``canonical_cache`` a pipeline has no store: nothing is
    looked up or written, and only in-run reuse is reported."""
    from repro.pipeline import QFRamanPipeline

    monkeypatch.chdir(tmp_path)
    pipe = QFRamanPipeline(waters=[_water()])
    assert pipe.canonical is None
    assert pipe.reuse_stats() == {"rigid_rotations": 0}
    assert not list(tmp_path.iterdir())


def test_store_does_not_imply_resilience(tmp_path):
    from repro.pipeline import QFRamanPipeline
    from repro.pipeline.executor import SerialExecutor, make_executor

    store = CanonicalStore(tmp_path)
    ex = make_executor("serial", store=store)
    try:
        assert type(ex) is SerialExecutor
    finally:
        ex.close()
    pipe = QFRamanPipeline(waters=[_water()], canonical_cache=tmp_path)
    assert pipe.resilience is None and pipe.canonical is not None


def test_cli_flags_parse_and_forward(monkeypatch):
    """``--canonical-cache`` reaches the pipeline as ``canonical_cache``
    and, on its own, leaves the run non-resilient."""
    import repro.pipeline
    from repro.cli import main

    class Captured(Exception):
        pass

    def fake_pipeline(**kwargs):
        raise Captured(kwargs)

    monkeypatch.setattr(repro.pipeline, "QFRamanPipeline", fake_pipeline)
    with pytest.raises(Captured) as info:
        main(["water-raman", "--n", "1", "--canonical-cache", "runs/canon"])
    kwargs = info.value.args[0]
    assert kwargs["canonical_cache"] == "runs/canon"
    assert "resilience" not in kwargs

    with pytest.raises(Captured) as info:
        main(["water-raman", "--n", "1"])
    assert info.value.args[0]["canonical_cache"] is None

    with pytest.raises(SystemExit):
        main(["water-raman", "--n", "1", "--run-store", "d"])
