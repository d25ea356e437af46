"""The fragment-response store used as a cache: exact content keys,
miss-then-hit on a real fragment, and reuse across pipeline runs."""

import numpy as np

from repro.dfpt import fragment_response
from repro.geometry import water_molecule
from repro.pipeline.canonical import CanonicalStore, task_key


def test_key_deterministic_and_sensitive():
    w = water_molecule()
    k1 = task_key(w, "sto-3g", 5e-3)
    k2 = task_key(w, "sto-3g", 5e-3)
    assert k1 == k2
    assert task_key(w.displaced(0, 0, 1e-6), "sto-3g", 5e-3) != k1
    assert task_key(w, "sto-3g", 1e-3) != k1


def test_miss_then_hit(tmp_path, water_optimized):
    cache = CanonicalStore(tmp_path)
    geom = water_optimized.geometry
    assert cache.load(geom, "sto-3g", 5e-3, eri_mode="df") is None
    resp = fragment_response(geom, eri_mode="df")
    cache.store(geom, resp, "sto-3g", 5e-3, eri_mode="df")
    back = cache.load(geom, "sto-3g", 5e-3, eri_mode="df")
    assert back is not None
    assert back.energy == resp.energy
    np.testing.assert_array_equal(back.hessian, resp.hessian)
    np.testing.assert_array_equal(back.dalpha_dr, resp.dalpha_dr)
    assert back.meta["cached"]
    assert cache.hits == 1 and cache.misses == 1
    assert cache.rotations == 0
    assert len(cache) == 1


def test_pipeline_uses_cache(tmp_path):
    from repro.pipeline import QFRamanPipeline

    waters = [water_molecule()]
    omega = np.linspace(500, 5000, 50)
    p1 = QFRamanPipeline(waters=waters, canonical_cache=tmp_path)
    r1 = p1.run(omega_cm1=omega)
    assert r1.unique_pieces == 1
    # a fresh pipeline over the same geometry computes nothing new
    p2 = QFRamanPipeline(waters=waters, canonical_cache=tmp_path)
    r2 = p2.run(omega_cm1=omega)
    assert r2.unique_pieces == 0
    assert r2.canonical["hits"] == 1 and r2.canonical["rotations"] == 0
    assert np.array_equal(r1.spectrum.intensity, r2.spectrum.intensity)

