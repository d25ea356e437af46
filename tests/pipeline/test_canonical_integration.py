"""Integration of the fragment-response store with its callers.

The store has one lookup rule and three callers — the pipeline's plan
phase, the executor's checkpoints and the CLI — and each has a
contract worth pinning: an exact entry is served verbatim before any
rotation is attempted (resume stays bit-identical), the plan phase is
the only lookup, every store-backed run checkpoints as it goes, and a
store never changes the retry policy.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.dfpt.hessian import FragmentResponse
from repro.geometry.atoms import Geometry
from repro.geometry.water import random_rotation
from repro.pipeline.canonical import CanonicalStore
from repro.pipeline.executor import FragmentTask

REPO_ROOT = Path(__file__).resolve().parents[2]


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
    """A store never changes the retry policy: with or without one, an
    executor built without a policy makes one attempt per fragment and
    fails fast, with no timeout."""
    from repro.pipeline import FAIL_FAST, QFRamanPipeline, ResiliencePolicy
    from repro.pipeline.executor import make_executor

    with make_executor("serial") as ex:
        assert ex.policy == ResiliencePolicy(max_attempts=1)
        assert ex.policy.failure_policy == FAIL_FAST
        assert ex.policy.timeout_s is None
    pipe = QFRamanPipeline(waters=[_water()], canonical_cache=tmp_path)
    assert pipe.resilience is None and pipe.canonical is not None


_CHECKPOINT_DRIVER = """\
import sys

import numpy as np

from repro.geometry.atoms import Geometry
from repro.pipeline import FragmentTask, make_executor
from repro.pipeline.canonical import CanonicalStore


def h2(z):
    return Geometry(["H", "H"], np.array([[0.0, 0.0, 0.0], [0.0, 0.0, z]]))


tasks = [FragmentTask(index=0, label="a", geometry=h2(1.40), eri_mode="exact"),
         FragmentTask(index=1, label="b", geometry=h2(1.45), eri_mode="exact")]
with make_executor("serial") as ex:
    ex.run(tasks, store=CanonicalStore(sys.argv[1]))
"""


def test_default_policy_run_checkpoints_as_it_goes(tmp_path):
    """A store-backed run with no retries still checkpoints each
    fragment the moment it validates: a ``die`` fault on the second
    fragment (largest-first, equal sizes keep their order) kills the
    driver, and the first fragment is already in the store."""
    from repro.pipeline.faults import DIE_EXIT_CODE

    driver = tmp_path / "driver.py"
    driver.write_text(_CHECKPOINT_DRIVER)
    store = tmp_path / "store"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["QF_FAULTS"] = "die:b@*"
    proc = subprocess.run([sys.executable, str(driver), str(store)],
                          env=env, cwd=REPO_ROOT, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == DIE_EXIT_CODE, proc.stderr

    def task(label, z):
        geom = Geometry(["H", "H"], np.array([[0.0, 0.0, 0.0],
                                              [0.0, 0.0, z]]))
        return FragmentTask(index=0, label=label, geometry=geom,
                            eri_mode="exact")

    reopened = CanonicalStore(store)
    assert len(reopened) == 1
    assert reopened.load_task(task("a", 1.40)) is not None
    assert reopened.load_task(task("b", 1.45)) is None
    assert reopened.hits == 1 and reopened.rotations == 0


def test_cli_flags_parse_and_forward(monkeypatch):
    """``--canonical-cache`` reaches the pipeline as ``canonical_cache``
    and, on its own, sets no retry policy."""
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
