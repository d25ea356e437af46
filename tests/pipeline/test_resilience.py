"""Fault-tolerant fragment execution: the injection test harness.

Every recovery path of :mod:`repro.pipeline.resilience` is exercised
with deterministic injected faults (``QF_FAULTS``):

* crash-once-then-succeed → retried, bit-identical result;
* silently corrupted arrays → contract check catches, retry succeeds;
* hang beyond the wall-clock timeout → speculative reissue wins
  without waiting out the straggler;
* hard worker death → pool restart + retry;
* exhausted retries → labeled abort (``fail_fast``) or a flagged
  partial spectrum (``skip_and_report``);
* kill-mid-run (a ``die`` fault taking down the driver process) →
  resume from the fragment store, bit-identical to an uninterrupted
  run.

Cheap H2 tasks (~0.15 s each) keep the executor-level tests fast; the
pipeline-level tests share the two-water session fixture.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.geometry.atoms import Geometry
from repro.obs.counters import counters
from repro.pipeline import (
    FAIL_FAST,
    SKIP_AND_REPORT,
    FaultPlan,
    FragmentExecutorError,
    FragmentTask,
    ResiliencePolicy,
    ResilientExecutor,
    make_executor,
)
from repro.pipeline.canonical import CanonicalStore, task_key
from repro.pipeline.executor import SerialExecutor
from repro.pipeline.faults import (
    DIE_EXIT_CODE,
    FaultSpecError,
    active_fault_plan,
)
from repro.utils.timing import Stopwatch

REPO_ROOT = Path(__file__).resolve().parents[2]

# ---------------------------------------------------------------- fixtures


def _h2(z: float) -> Geometry:
    return Geometry(["H", "H"], np.array([[0.0, 0.0, 0.0], [0.0, 0.0, z]]))


def _tasks() -> list[FragmentTask]:
    return [
        FragmentTask(index=0, label="a", geometry=_h2(1.40),
                     eri_mode="exact"),
        FragmentTask(index=1, label="b", geometry=_h2(1.45),
                     eri_mode="exact"),
    ]


@pytest.fixture(scope="module")
def reference():
    """Fault-free serial responses for the two H2 tasks."""
    with SerialExecutor() as ex:
        responses, _ = ex.run(_tasks())
    return responses


def _assert_bitwise(responses, reference):
    assert set(responses) == set(reference)
    for k, ref in reference.items():
        got = responses[k]
        assert np.array_equal(got.hessian, ref.hessian)
        assert np.array_equal(got.dalpha_dr, ref.dalpha_dr)
        assert got.energy == ref.energy


# ---------------------------------------------------- fault plan grammar


class TestFaultPlan:
    def test_parse_kinds_and_defaults(self):
        plan = FaultPlan.parse("crash:a;hang:b;corrupt:c;die:d")
        kinds = [f.kind for f in plan.faults]
        assert kinds == ["crash", "hang", "corrupt", "die"]
        # default attempt selector is "first attempt only"
        assert all(f.attempt_lo == f.attempt_hi == 1 for f in plan.faults)
        by_kind = {f.kind: f for f in plan.faults}
        assert by_kind["hang"].param == 30.0
        assert by_kind["die"].param == 0.0

    def test_parse_attempts_and_param(self):
        plan = FaultPlan.parse("hang:w[0]@2-3:0.75; crash:x@*")
        hang, crash = plan.faults
        assert (hang.attempt_lo, hang.attempt_hi, hang.param) == (2, 3, 0.75)
        assert (crash.attempt_lo, crash.attempt_hi) == (1, None)

    def test_labels_with_brackets_match_exactly(self):
        # fragment labels contain '[' and ']' — must not be treated as
        # fnmatch character classes
        plan = FaultPlan.parse("crash:ww[0,1]@1")
        assert plan.lookup("ww[0,1]", 1) is not None
        assert plan.lookup("ww0,1", 1) is None
        assert plan.lookup("ww[0,1]", 2) is None

    def test_glob_targets(self):
        plan = FaultPlan.parse("crash:water*@*")
        assert plan.lookup("water[3]", 5) is not None
        assert plan.lookup("ww[0,1]", 1) is None

    def test_first_match_wins(self):
        plan = FaultPlan.parse("hang:water[0]@*;crash:water*@*")
        assert plan.lookup("water[0]", 1).kind == "hang"
        assert plan.lookup("water[1]", 1).kind == "crash"

    @pytest.mark.parametrize("bad", [
        "explode:a",            # unknown kind
        "crash",                # missing target
        "crash:",               # empty target
        "crash:a@0",            # attempts are 1-based
        "crash:a@3-2",          # inverted range
        "crash:a@x",            # non-numeric attempts
        "hang:a@1:fast",        # non-numeric param
        "hang:a@1:-1",          # negative param
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse(bad)

    def test_active_plan_from_env(self, monkeypatch):
        monkeypatch.delenv("QF_FAULTS", raising=False)
        assert active_fault_plan() is None
        monkeypatch.setenv("QF_FAULTS", "  ")
        assert active_fault_plan() is None
        monkeypatch.setenv("QF_FAULTS", "crash:a@1")
        plan = active_fault_plan()
        assert plan is not None and plan.lookup("a", 1).kind == "crash"
        # parse-once cache returns the same object
        assert active_fault_plan() is plan


# ------------------------------------------------------- policy + backoff


class TestResiliencePolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            ResiliencePolicy(max_attempts=0)
        with pytest.raises(ValueError, match="failure_policy"):
            ResiliencePolicy(failure_policy="ignore")
        with pytest.raises(ValueError, match="timeout_s"):
            ResiliencePolicy(timeout_s=0.0)
        with pytest.raises(ValueError, match="backoff"):
            ResiliencePolicy(backoff_factor=0.5)

    def test_backoff_deterministic_and_bounded(self):
        p = ResiliencePolicy(backoff_s=0.1, backoff_factor=2.0, jitter=0.25)
        assert p.backoff("frag", 1) == 0.0          # first attempt is free
        d2 = p.backoff("frag", 2)
        d3 = p.backoff("frag", 3)
        assert d2 == p.backoff("frag", 2)           # reproducible
        assert 0.1 <= d2 <= 0.1 * 1.25              # base * (1 + jitter)
        assert 0.2 <= d3 <= 0.2 * 1.25              # exponential growth
        # decorrelated across fragments, same bounds
        other = p.backoff("other", 2)
        assert other != d2
        assert 0.1 <= other <= 0.1 * 1.25

    def test_backoff_disabled(self):
        p = ResiliencePolicy(backoff_s=0.0)
        assert p.backoff("frag", 3) == 0.0


# ------------------------------------------------------ recovery paths


def test_crash_once_then_succeed(reference, monkeypatch):
    monkeypatch.setenv("QF_FAULTS", "crash:a@1")
    policy = ResiliencePolicy(max_attempts=2, backoff_s=0.0)
    with ResilientExecutor(base="serial", policy=policy) as ex:
        responses, report = ex.run(_tasks())
    _assert_bitwise(responses, reference)
    res = report.resilience
    assert res["retries"] == 1
    assert res["attempts"] == {"a": 2, "b": 1}
    assert any("injected crash" in why for why in res["failures"]["a"])


def test_corrupted_result_detected_and_retried(reference, monkeypatch):
    """A silently NaN-poisoned Hessian must be caught by the response
    contract (always on in resilient mode) and recomputed."""
    monkeypatch.setenv("QF_FAULTS", "corrupt:b@1")
    policy = ResiliencePolicy(max_attempts=2, backoff_s=0.0)
    with ResilientExecutor(base="serial", policy=policy) as ex:
        responses, report = ex.run(_tasks())
    _assert_bitwise(responses, reference)
    res = report.resilience
    assert res["corrupted"] == 1
    assert res["retries"] == 1
    assert not responses[1].meta.get("injected_corruption")


def test_hang_timeout_speculative_reissue(reference, monkeypatch):
    """A straggler hanging 6 s with a 0.8 s timeout: the reissued
    attempt must win well before the hang would have finished."""
    monkeypatch.setenv("QF_FAULTS", "hang:a@1:6.0")
    policy = ResiliencePolicy(max_attempts=2, backoff_s=0.0, timeout_s=0.8)
    sw = Stopwatch()
    with ResilientExecutor(base="process", max_workers=2,
                           policy=policy) as ex:
        responses, report = ex.run(_tasks())
    wall = sw.elapsed()
    _assert_bitwise(responses, reference)
    res = report.resilience
    assert res["timeouts"] == 1
    assert res["reissues"] == 1
    assert wall < 5.0, f"waited out the straggler ({wall:.1f}s)"


def test_worker_death_restarts_pool_and_retries(reference, monkeypatch):
    monkeypatch.setenv("QF_FAULTS", "die:a@1")
    policy = ResiliencePolicy(max_attempts=3, backoff_s=0.0)
    with ResilientExecutor(base="process", max_workers=2,
                           policy=policy) as ex:
        responses, report = ex.run(_tasks())
    _assert_bitwise(responses, reference)
    res = report.resilience
    assert res["pool_restarts"] >= 1
    assert res["attempts"]["a"] >= 2


def test_exhausted_retries_fail_fast(monkeypatch, tmp_path):
    # fault the *second* task in serial order, so the healthy sibling
    # completes (and is checkpointed) before the abort
    monkeypatch.setenv("QF_FAULTS", "crash:b@*")
    policy = ResiliencePolicy(max_attempts=2, backoff_s=0.0,
                              failure_policy=FAIL_FAST)
    store = CanonicalStore(tmp_path / "store")
    with ResilientExecutor(base="serial", policy=policy, store=store) as ex:
        with pytest.raises(FragmentExecutorError, match="injected crash"):
            ex.run(_tasks())
    # the healthy sibling's work survived the abort
    assert len(store) == 1


def test_exhausted_retries_skip_and_report(reference, monkeypatch):
    monkeypatch.setenv("QF_FAULTS", "crash:a@*")
    policy = ResiliencePolicy(max_attempts=2, backoff_s=0.0,
                              failure_policy=SKIP_AND_REPORT)
    with ResilientExecutor(base="serial", policy=policy) as ex:
        responses, report = ex.run(_tasks())
    assert set(responses) == {1}
    assert np.array_equal(responses[1].hessian, reference[1].hessian)
    res = report.resilience
    assert [s["label"] for s in res["skipped"]] == ["a"]
    assert res["skipped"][0]["attempts"] == 2
    assert res["skipped"][0]["errors"]


def test_skip_and_report_under_pool_base(reference, monkeypatch):
    monkeypatch.setenv("QF_FAULTS", "crash:b@*")
    policy = ResiliencePolicy(max_attempts=2, backoff_s=0.0,
                              failure_policy=SKIP_AND_REPORT)
    with ResilientExecutor(base="process", max_workers=2,
                           policy=policy) as ex:
        responses, report = ex.run(_tasks())
    assert set(responses) == {0}
    assert np.array_equal(responses[0].hessian, reference[0].hessian)
    assert [s["label"] for s in report.resilience["skipped"]] == ["b"]


def test_posthoc_timeout_keeps_valid_result(reference, monkeypatch):
    """In-process backends cannot preempt a running attempt: an overrun
    is detected after the fact, counted, and the valid result kept."""
    # the hung attempt must overrun the timeout; the healthy H2 task
    # (~0.1-0.3 s) must stay under it even on a loaded machine
    monkeypatch.setenv("QF_FAULTS", "hang:a@1:1.5")
    policy = ResiliencePolicy(max_attempts=2, backoff_s=0.0, timeout_s=1.2)
    with ResilientExecutor(base="serial", policy=policy) as ex:
        responses, report = ex.run(_tasks())
    _assert_bitwise(responses, reference)
    res = report.resilience
    assert res["timeouts"] >= 1
    assert res["retries"] == 0


def test_faults_injected_counter(monkeypatch):
    monkeypatch.setenv("QF_FAULTS", "crash:a@*")
    before = counters().get("resilience.faults_injected")
    policy = ResiliencePolicy(max_attempts=2, backoff_s=0.0,
                              failure_policy=SKIP_AND_REPORT)
    with ResilientExecutor(base="serial", policy=policy) as ex:
        ex.run(_tasks()[:1])
    assert counters().get("resilience.faults_injected") == before + 2


# ---------------------------------------------------- checkpoint/resume


def test_run_store_resume_bit_identical(reference, tmp_path):
    store_dir = tmp_path / "store"
    policy = ResiliencePolicy(max_attempts=1)
    with ResilientExecutor(base="serial", policy=policy,
                           store=CanonicalStore(store_dir)) as ex:
        first, report1 = ex.run(_tasks())
    assert report1.resilience["store_writes"] == 2
    assert len(CanonicalStore(store_dir)) == 2

    # a "new run" opens the same store: every checkpoint is an exact
    # hit, served bit for bit without recomputing or rotating
    store = CanonicalStore(store_dir)
    second = {t.index: store.load_task(t) for t in _tasks()}
    assert store.hits == 2 and store.rotations == 0
    _assert_bitwise(second, reference)
    for k in first:
        assert np.array_equal(first[k].hessian, second[k].hessian)

    # rerunning the executor over the same store rewrites nothing
    with ResilientExecutor(base="serial", policy=policy,
                           store=store) as ex:
        _again, report2 = ex.run(_tasks())
    assert report2.resilience["store_writes"] == 0


def test_run_store_key_ignores_index_and_attempt():
    def key(t):
        return task_key(t.geometry, t.basis_name, t.delta,
                        compute_raman=t.compute_raman, eri_mode=t.eri_mode,
                        schwarz_cutoff=t.schwarz_cutoff)

    task = _tasks()[0]
    k = key(task)
    assert key(replace(task, index=7, attempt=3)) == k
    assert key(replace(task, label="renamed")) == k
    # content changes do change the key
    assert key(replace(task, delta=1.0e-3)) != k
    assert key(replace(task, basis_name="6-31g")) != k


def test_make_executor_wraps_resilient():
    ex = make_executor("serial", resilience=True)
    try:
        assert isinstance(ex, ResilientExecutor)
        assert ex.name == "resilient+serial"
        assert ex.policy == ResiliencePolicy()
    finally:
        ex.close()
    with pytest.raises(TypeError, match="resilience"):
        make_executor("serial", resilience="yes")


# ------------------------------------------------- pipeline-level faults


def test_pipeline_partial_spectrum_skip_and_report(
        golden, waterbox2_result, monkeypatch):
    """Killing one monomer representative for good must not abort the
    run: the partial Eq. (1) spectrum is assembled from what survived,
    and the missing pieces (including rigid copies that would have
    rotated off the dead representative) are flagged."""
    monkeypatch.setenv("QF_FAULTS", "crash:water[0]@*")
    policy = ResiliencePolicy(max_attempts=2, backoff_s=0.0,
                              failure_policy=SKIP_AND_REPORT)
    pipe = golden.build_pipeline("waterbox2", resilience=policy)
    result = pipe.run(omega_cm1=golden.OMEGA_CM1,
                      sigma_cm1=golden.SIGMA_CM1, solver="dense")

    assert result.is_partial
    assert "water[0]" in result.skipped_fragments
    # the rigid copies that rotate off water[0] are lost with it
    assert len(result.skipped_fragments) >= 2
    assert result.responses.count(None) == len(result.skipped_fragments)

    # still a spectrum — just not the full one
    assert result.spectrum is not None
    assert np.all(np.isfinite(result.spectrum.intensity))
    assert not np.array_equal(result.spectrum.intensity,
                              waterbox2_result.spectrum.intensity)

    res = result.throughput.resilience
    assert [s["label"] for s in res["skipped"]] == ["water[0]"]
    assert result.throughput.n_tasks >= 1


def test_pipeline_fail_fast_names_fragment(golden, monkeypatch):
    monkeypatch.setenv("QF_FAULTS", "crash:water[0]@*")
    policy = ResiliencePolicy(max_attempts=2, backoff_s=0.0)
    pipe = golden.build_pipeline("water1", resilience=policy)
    with pytest.raises(FragmentExecutorError, match=r"water\[0\]"):
        pipe.run(solver="dense")


# ------------------------------------------- kill-mid-run, then resume

_DRIVER = """\
import importlib.util
import sys

import numpy as np

golden_path, store, out = sys.argv[1:4]
spec = importlib.util.spec_from_file_location("golden", golden_path)
golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden)

from repro.pipeline import ResiliencePolicy

pipe = golden.build_pipeline(
    "waterbox2",
    resilience=ResiliencePolicy(max_attempts=1),
    canonical_cache=store,
)
result = pipe.run(omega_cm1=golden.OMEGA_CM1, sigma_cm1=golden.SIGMA_CM1,
                  solver="dense")
np.save(out, result.spectrum.intensity)
print("STORE_HITS", result.canonical["hits"])
"""


def test_kill_mid_run_then_resume_bit_identical(
        golden, waterbox2_result, tmp_path):
    """The acceptance scenario: a run killed partway (die fault takes
    down the serial driver with exit code 23) leaves its finished
    fragments in the store; rerunning with the same store resumes,
    recomputes only the unfinished work, and reproduces the
    uninterrupted run's spectrum bit for bit."""
    driver = tmp_path / "driver.py"
    driver.write_text(_DRIVER)
    store = tmp_path / "store"
    out = tmp_path / "intensity.npy"
    golden_py = str(Path(golden.__file__))
    argv = [sys.executable, str(driver), golden_py, str(store), str(out)]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("QF_SANITIZE", None)

    # serial order is largest-first: the dimer ww[0,1] completes and is
    # checkpointed, then the die fault kills the driver on water[0]
    env["QF_FAULTS"] = "die:water[0]@*"
    first = subprocess.run(argv, env=env, cwd=REPO_ROOT,
                           capture_output=True, text=True, timeout=600)
    assert first.returncode == DIE_EXIT_CODE, first.stderr
    finished = list(store.glob("canon_*.npz"))
    assert finished, "no checkpoint survived the kill"
    assert not out.exists()

    env.pop("QF_FAULTS")
    second = subprocess.run(argv, env=env, cwd=REPO_ROOT,
                            capture_output=True, text=True, timeout=600)
    assert second.returncode == 0, second.stderr
    hits = int(second.stdout.split("STORE_HITS")[1].split()[0])
    assert hits == len(finished) >= 1

    resumed = np.load(out)
    assert np.array_equal(resumed, waterbox2_result.spectrum.intensity), (
        "resumed spectrum differs from the uninterrupted run"
    )
