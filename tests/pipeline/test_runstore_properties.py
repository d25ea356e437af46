"""Property-based tests for the store as a run checkpoint, and its keys.

Two invariants carry the checkpoint/resume guarantee:

* any interleaving of writes, crashes (stray partial temp files), and
  reloads round-trips every stored response bit for bit — a reader
  never sees a half-written checkpoint;
* the content-hash key depends only on what determines the numerical
  result (geometry + computation config), never on bookkeeping such as
  fragment ordering, indices, or attempt numbers — so a resumed run
  with reshuffled work still hits.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dfpt.hessian import FragmentResponse
from repro.geometry.atoms import Geometry
from repro.pipeline.canonical import CanonicalStore, task_key
from repro.pipeline.executor import FragmentTask

# -- strategies -----------------------------------------------------------

finite = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False,
                   allow_infinity=False, width=64)
coords3 = st.lists(st.tuples(finite, finite, finite),
                   min_size=1, max_size=3)


def _geometry(coords) -> Geometry:
    return Geometry(["H"] * len(coords), np.array(coords, dtype=float))


def _task(idx: int, coords, delta: float = 5.0e-3) -> FragmentTask:
    return FragmentTask(index=idx, label=f"frag[{idx}]",
                        geometry=_geometry(coords), delta=delta)


def _key(task: FragmentTask) -> str:
    return task_key(task.geometry, task.basis_name, task.delta,
                    compute_raman=task.compute_raman,
                    eri_mode=task.eri_mode)


def _response(task: FragmentTask, seed: int) -> FragmentResponse:
    """A synthetic but shape-correct response with arbitrary float64s."""
    rng = np.random.default_rng(seed)
    n = task.geometry.natoms
    h = rng.standard_normal((3 * n, 3 * n))
    return FragmentResponse(
        geometry=task.geometry,
        energy=float(rng.standard_normal()),
        hessian=0.5 * (h + h.T),
        dalpha_dr=rng.standard_normal((3 * n, 3, 3)),
        alpha=rng.standard_normal((3, 3)),
        gradient=rng.standard_normal((n, 3)),
    )


def _assert_identical(got: FragmentResponse, ref: FragmentResponse):
    assert got.energy == ref.energy
    assert np.array_equal(got.hessian, ref.hessian)
    assert np.array_equal(got.dalpha_dr, ref.dalpha_dr)
    assert np.array_equal(got.alpha, ref.alpha)
    assert np.array_equal(got.gradient, ref.gradient)


# -- write / crash / reload interleavings ---------------------------------

# an op is ("write", frag_id) | ("crash", frag_id) | ("reload",)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 3)),
        st.tuples(st.just("crash"), st.integers(0, 3)),
        st.just(("reload",)),
    ),
    min_size=1, max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(ops=_ops, coords=coords3)
def test_write_crash_reload_round_trips_exactly(ops, coords):
    """Whatever the interleaving, a (re)loaded store returns exactly
    the responses that were fully written — crash debris (partial temp
    files) is never visible. The four tasks differ in their step size,
    so each is its own entry whatever the geometry's symmetry."""
    tasks = {i: _task(i, coords, delta=1.0e-3 * (i + 1)) for i in range(4)}
    with tempfile.TemporaryDirectory() as tmp:
        store = CanonicalStore(tmp)
        model: dict[int, FragmentResponse] = {}
        for op in ops:
            if op[0] == "write":
                i = op[1]
                resp = _response(tasks[i], seed=i)
                store.store_task(tasks[i], resp)
                model.setdefault(i, resp)
            elif op[0] == "crash":
                # a killed writer leaves a partial temp file behind —
                # same prefix the atomic writer uses before rename
                i = op[1]
                t = tasks[i]
                key = store.key(t.geometry, t.basis_name, t.delta)
                stray = Path(tmp) / f"canon_{key}.tmp.npz"
                stray.write_bytes(b"\x00truncated checkpoint")
            else:
                store = CanonicalStore(tmp)   # a fresh process
            for i, task in tasks.items():
                loaded = store.load_task(task)
                if i in model:
                    assert loaded is not None
                    _assert_identical(loaded, model[i])
                else:
                    assert loaded is None
        assert len(store) == len(model)


@settings(max_examples=40, deadline=None)
@given(coords=coords3, seed=st.integers(0, 2**31))
def test_store_keeps_first_write(coords, seed):
    """Storing is idempotent: a second write for the same task neither
    replaces the checkpoint nor counts, so a rerun cannot perturb what
    an earlier run resumes from."""
    task = _task(0, coords)
    with tempfile.TemporaryDirectory() as tmp:
        store = CanonicalStore(tmp)
        first = _response(task, seed)
        assert store.store_task(task, first) is not None
        assert store.store_task(task, _response(task, seed + 1)) is None
        assert len(store) == 1 and store.writes == 1
        _assert_identical(CanonicalStore(tmp).load_task(task), first)


# -- key invariance -------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(coords=coords3, perm_seed=st.integers(0, 2**31),
       index=st.integers(0, 100), attempt=st.integers(1, 10))
def test_task_key_ignores_bookkeeping(coords, perm_seed, index, attempt):
    """Keys are invariant to everything that cannot change the numbers:
    fragment order in the work list, the piece index, the attempt
    counter, and the label."""
    tasks = [_task(i, [(c[0] + i, c[1], c[2]) for c in coords])
             for i in range(3)]
    baseline = [_key(t) for t in tasks]
    rng = np.random.default_rng(perm_seed)
    order = rng.permutation(len(tasks))
    shuffled = {int(i): _key(tasks[int(i)]) for i in order}
    assert all(shuffled[i] == baseline[i] for i in range(len(tasks)))
    t = tasks[0]
    assert _key(
        replace(t, index=index, attempt=attempt, label="other")
    ) == baseline[0]
    # distinct geometries get distinct keys
    assert len(set(baseline)) == len(baseline)


def test_task_key_sensitive_to_config():
    geom = _geometry([(0.0, 0.0, 0.0), (0.0, 0.0, 1.4)])
    kw = dict(compute_raman=True, eri_mode="auto")
    base = task_key(geom, "sto-3g", 5.0e-3, **kw)
    assert task_key(geom, "6-31g", 5.0e-3, **kw) != base
    assert task_key(geom, "sto-3g", 1.0e-3, **kw) != base
    assert task_key(geom, "sto-3g", 5.0e-3,
                    **{**kw, "compute_raman": False}) != base
    assert task_key(geom, "sto-3g", 5.0e-3, **{**kw, "eri_mode": "df"}) \
        != base
