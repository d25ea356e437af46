"""End-to-end sanitizer: injected faults are caught at the executor
boundary with the producing fragment named in the error.

The injection monkeypatches the executor's ``fragment_response``
reference, so the genuine QM path runs and only the final tensor is
corrupted — exactly the class of silent numerical fault the sanitizer
exists for.
"""

import os

import numpy as np
import pytest

import repro.pipeline.executor as executor_mod
from repro.devtools.contracts import ContractViolation, sanitize
from repro.geometry import water_box
from repro.pipeline import QFRamanPipeline
from repro.pipeline.executor import (
    FragmentTask,
    SerialExecutor,
    make_executor,
    verify_determinism,
)


def _corrupting(fault):
    real = executor_mod.fragment_response

    def wrapper(geometry, **kwargs):
        resp = real(geometry, **kwargs)
        fault(resp)
        return resp
    return wrapper


def _pipeline():
    return QFRamanPipeline(
        waters=water_box(1, seed=3), compute_raman=False, eri_mode="exact",
    )


@pytest.fixture()
def single_water_tasks():
    return [
        FragmentTask(index=0, label="water-0", geometry=water_box(1, seed=3)[0],
                     compute_raman=False, eri_mode="exact")
    ]


def test_injected_hessian_asymmetry_is_caught(monkeypatch):
    def fault(resp):
        resp.hessian[0, 1] += 1.0e-3

    monkeypatch.setattr(executor_mod, "fragment_response",
                        _corrupting(fault))
    with sanitize():
        with pytest.raises(ContractViolation) as exc:
            _pipeline().run()
    msg = str(exc.value)
    assert "asymmetric" in msg
    assert "fragment=" in msg and "phase=serial" in msg


def test_injected_nan_is_caught(monkeypatch):
    def fault(resp):
        resp.hessian[2, 2] = np.nan

    monkeypatch.setattr(executor_mod, "fragment_response",
                        _corrupting(fault))
    with sanitize():
        with pytest.raises(ContractViolation, match="non-finite"):
            _pipeline().run()


def test_clean_run_passes_under_sanitize():
    with sanitize():
        result = _pipeline().run()
    assert result.assembled.hessian.shape[0] == 9


def test_verify_determinism_detects_divergence(single_water_tasks, monkeypatch):
    tasks = single_water_tasks
    with SerialExecutor() as ex:
        responses, _ = ex.run(tasks)
    # identical recomputation: must pass
    verify_determinism(tasks, responses, phase="process")
    # a single-bit divergence in the pool result: must raise, naming
    # the fragment
    responses[0].hessian = responses[0].hessian.copy()
    responses[0].hessian[0, 0] += 1.0e-14
    with pytest.raises(ContractViolation) as exc:
        verify_determinism(tasks, responses, phase="process")
    assert "fragment=water-0" in str(exc.value)
    assert "determinism" in exc.value.rule


def test_process_backend_runs_the_determinism_check(single_water_tasks,
                                                    monkeypatch):
    """The digest check is wired through the pool loop: a parent-only
    divergence (the pool workers compute the genuine response, the
    parent's serial recomputation a perturbed one) must abort the
    process backend's run with a violation naming the fragment."""
    real = executor_mod.fragment_response
    parent = os.getpid()

    def diverging(geometry, **kwargs):
        resp = real(geometry, **kwargs)
        if os.getpid() == parent:
            resp.hessian = resp.hessian + 1.0e-12
        return resp

    monkeypatch.setattr(executor_mod, "fragment_response", diverging)
    monkeypatch.setenv("QF_SANITIZE", "1")
    monkeypatch.setenv("QF_SANITIZE_DETERMINISM", "1")
    with make_executor("process", max_workers=1) as ex:
        with pytest.raises(ContractViolation) as exc:
            ex.run(single_water_tasks)
    assert "fragment=water-0" in str(exc.value)
    assert "phase=process" in str(exc.value)
    assert exc.value.rule == "determinism"


@pytest.mark.slow
def test_water_dimer_pipeline_catches_injected_asymmetry(monkeypatch):
    """The ISSUE acceptance scenario at water-dimer scale."""
    def fault(resp):
        resp.hessian[0, 1] += 1.0e-3

    monkeypatch.setattr(executor_mod, "fragment_response",
                        _corrupting(fault))
    pipe = QFRamanPipeline(waters=water_box(2, seed=3), compute_raman=True)
    monkeypatch.setenv("QF_SANITIZE", "1")
    with pytest.raises(ContractViolation, match="asymmetric"):
        pipe.run(omega_cm1=np.linspace(200, 5200, 200))
