"""Durability tests for the shared canonical store.

The canonical store is *global*: several runs — possibly several
processes — share one directory across sessions. That only works if

* a reader racing a writer never sees a torn entry (the atomic
  tmp+rename protocol),
* a writer killed mid-write leaves nothing that a later run could
  mistake for a checkpoint — reloading after a kill returns exactly
  what an uninterrupted run would have stored,
* stray debris and corrupt files degrade to a miss (a recompute),
  never to an exception or a wrong tensor.
"""

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.dfpt.hessian import FragmentResponse
from repro.geometry.atoms import Geometry
from repro.pipeline.canonical import CanonicalStore, canonicalize

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _geometry(i: int) -> Geometry:
    return Geometry(["O", "H", "H"],
                    np.array([[0.0, 0.0, 0.0],
                              [1.8 + 0.01 * i, 0.0, 0.0],
                              [-0.45, 1.75, 0.0]]))


def _response(i: int) -> FragmentResponse:
    rng = np.random.default_rng(1000 + i)
    h = rng.standard_normal((9, 9))
    return FragmentResponse(
        geometry=_geometry(i),
        energy=float(rng.standard_normal()),
        hessian=0.5 * (h + h.T),
        dalpha_dr=rng.standard_normal((9, 3, 3)),
        alpha=rng.standard_normal((3, 3)),
        gradient=rng.standard_normal((3, 3)),
    )


_WRITER = """
import sys
import numpy as np
sys.path.insert(0, {src!r})
from repro.dfpt.hessian import FragmentResponse
from repro.geometry.atoms import Geometry
from repro.pipeline.canonical import CanonicalStore


def _geometry(i):
    return Geometry(["O", "H", "H"],
                    np.array([[0.0, 0.0, 0.0],
                              [1.8 + 0.01 * i, 0.0, 0.0],
                              [-0.45, 1.75, 0.0]]))


def _response(i):
    rng = np.random.default_rng(1000 + i)
    h = rng.standard_normal((9, 9))
    return FragmentResponse(
        geometry=_geometry(i), energy=float(rng.standard_normal()),
        hessian=0.5 * (h + h.T),
        dalpha_dr=rng.standard_normal((9, 3, 3)),
        alpha=rng.standard_normal((3, 3)),
        gradient=rng.standard_normal((3, 3)),
    )


store = CanonicalStore(sys.argv[1])
mode = sys.argv[2]
if mode == "sweep":
    for i in range(20):
        store.store(_geometry(i), _response(i), "sto-3g", 5.0e-3)
    print("done", flush=True)
else:   # hammer one entry forever (until killed)
    print("ready", flush=True)
    while True:
        store.store(_geometry(0), _response(0), "sto-3g", 5.0e-3)
""".format(src=SRC)


def _assert_entry_exact(store: CanonicalStore, i: int) -> None:
    """A loaded entry for the *identical* geometry must match the
    written response bit for bit (identity rotation, identity perm)."""
    got = store.load(_geometry(i), "sto-3g", 5.0e-3)
    assert got is not None
    ref = _response(i)
    np.testing.assert_allclose(got.hessian, ref.hessian,
                               rtol=0.0, atol=1.0e-12)
    np.testing.assert_allclose(got.dalpha_dr, ref.dalpha_dr,
                               rtol=0.0, atol=1.0e-12)
    assert got.energy == ref.energy


def test_reader_never_sees_torn_entries_while_writer_runs():
    """A second process sweeps 20 entries into the store while this
    process polls every entry: each load is either a clean miss or the
    complete, correct response — never a torn read."""
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.Popen(
            [sys.executable, "-c", _WRITER, tmp, "sweep"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            store = CanonicalStore(tmp)
            seen: set[int] = set()
            deadline = time.monotonic() + 120.0
            while len(seen) < 20 and time.monotonic() < deadline:
                for i in range(20):
                    got = store.load(_geometry(i), "sto-3g", 5.0e-3)
                    if got is not None:
                        np.testing.assert_allclose(
                            got.hessian, _response(i).hessian,
                            rtol=0.0, atol=1.0e-12,
                        )
                        seen.add(i)
            out, err = proc.communicate(timeout=60)
            assert "done" in out, err
            assert seen == set(range(20))
            assert store.rejects == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()


def test_kill_mid_write_leaves_store_consistent():
    """SIGKILL a process hammering one entry, then reload: the store
    holds either nothing or exactly the uninterrupted entry — compared
    bitwise against a store written without interruption."""
    with tempfile.TemporaryDirectory() as tmp:
        shared = Path(tmp) / "shared"
        proc = subprocess.Popen(
            [sys.executable, "-c", _WRITER, str(shared), "hammer"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            assert proc.stdout.readline().strip() == "ready"
            # let some writes land, then kill at an arbitrary moment
            deadline = time.monotonic() + 60.0
            while not any(shared.glob("*.npz")) \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.05)
            os.kill(proc.pid, signal.SIGKILL)
            proc.communicate()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

        # a fresh process opening the directory after the crash
        store = CanonicalStore(shared)
        assert len(store) in (0, 1)
        if len(store) == 1:
            _assert_entry_exact(store, 0)
            # bitwise identical to what an uninterrupted writer stores
            clean_dir = Path(tmp) / "clean"
            clean = CanonicalStore(clean_dir)
            clean.store(_geometry(0), _response(0), "sto-3g", 5.0e-3)
            (survivor,) = store._complete()
            (reference,) = clean._complete()
            with np.load(survivor) as a, np.load(reference) as b:
                assert sorted(a.files) == sorted(b.files)
                for name in a.files:
                    np.testing.assert_array_equal(a[name], b[name])


def test_tmp_debris_is_invisible(tmp_path):
    store = CanonicalStore(tmp_path)
    store.store(_geometry(0), _response(0), "sto-3g", 5.0e-3)
    key = store.key(_geometry(1), "sto-3g", 5.0e-3)
    (tmp_path / f"canon_{key}.tmp.npz").write_bytes(b"\x00half a write")
    assert len(store) == 1
    assert store.load(_geometry(1), "sto-3g", 5.0e-3) is None
    _assert_entry_exact(store, 0)


def test_corrupt_entry_degrades_to_miss(tmp_path):
    store = CanonicalStore(tmp_path)
    path = store.store(_geometry(0), _response(0), "sto-3g", 5.0e-3)
    path.write_bytes(path.read_bytes()[: 40])     # truncate the zip
    assert store.load(_geometry(0), "sto-3g", 5.0e-3) is None
    assert store.rejects == 1


def test_frame_mismatch_is_rejected_not_misrotated(tmp_path):
    """An entry whose stored canonical coordinates disagree with the
    target's (a key collision or tampering) must become a miss — the
    silent-wrong-answer guard."""
    store = CanonicalStore(tmp_path)
    path = store.store(_geometry(0), _response(0), "sto-3g", 5.0e-3)
    with np.load(path) as data:
        payload = {k: data[k].copy() for k in data.files}
    payload["canon_coords"] = payload["canon_coords"] + 0.05
    tmp = path.with_suffix(".tmp.npz")
    np.savez_compressed(tmp, **payload)
    tmp.replace(path)
    assert store.load(_geometry(0), "sto-3g", 5.0e-3) is None
    assert store.rejects == 1
    assert store.stats()["reject_reasons"] == {"frame": 1}


def test_stats_and_keys_accounting(tmp_path):
    store = CanonicalStore(tmp_path)
    store.store(_geometry(0), _response(0), "sto-3g", 5.0e-3)
    store.load(_geometry(0), "sto-3g", 5.0e-3)
    store.load(_geometry(1), "sto-3g", 5.0e-3)
    stats = store.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["writes"] == 1
    assert stats["hit_rate"] == 0.5
    assert store.keys() == {
        store.key(_geometry(0), "sto-3g", 5.0e-3)
    }
    assert canonicalize(_geometry(0)).key != canonicalize(_geometry(1)).key
