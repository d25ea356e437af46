"""End-to-end telemetry through the QF-RAMAN pipeline.

One traced 2-water run (module-scoped) backs the structural and
timing assertions; a second untraced run proves tracing is
observation-only.
"""

import numpy as np
import pytest

from repro.geometry import water_box
from repro.obs import (
    Counters,
    collect_manifest,
    counters,
    derive_throughput,
    disable_tracing,
    enable_tracing,
    phase_totals,
    reset_counters,
)
from repro.pipeline import QFRamanPipeline

OMEGA = np.linspace(100, 5000, 60)


def _run_pipeline():
    pipe = QFRamanPipeline(waters=water_box(2, seed=0))
    res = pipe.run(omega_cm1=OMEGA, sigma_cm1=30.0, solver="dense")
    return pipe, res


@pytest.fixture(scope="module")
def traced_run():
    reset_counters()
    tracer = enable_tracing()
    try:
        pipe, res = _run_pipeline()
        counts = counters().as_dict()
    finally:
        disable_tracing()
    return pipe, res, list(tracer.records), counts


def test_trace_has_required_nesting(traced_run):
    _pipe, res, records, _counts = traced_run
    paths = {r.path for r in records}
    # the acceptance-criteria skeleton: decompose -> per-fragment
    # scf/cphf/hessian -> assemble -> spectrum, all under one run span
    assert "run" in paths
    assert "run/decompose" in paths
    assert "run/fragment_response" in paths
    assert "run/fragment_response/fragment" in paths
    assert "run/assemble" in paths
    assert "run/spectrum" in paths
    assert "run/fragment_response/fragment/scf" in paths
    assert any("hessian.displacements" in p for p in paths)
    assert any(p.endswith("hessian.coordinate/scf") for p in paths)
    assert any(p.endswith("hessian.coordinate/cphf") for p in paths)
    # exactly one span per unique fragment, carrying its identity
    frags = [r for r in records
             if r.path == "run/fragment_response/fragment"]
    assert len(frags) == res.unique_pieces
    for r in frags:
        assert r.attrs["label"]
        assert r.attrs["natoms"] in (3, 6)
    run = next(r for r in records if r.path == "run")
    assert run.attrs["solver"] == "dense"
    assert run.attrs["pieces"] == len(res.decomposition.pieces)


def test_manifest_phase_walls_are_span_totals(traced_run):
    """``phase_wall_s`` is derived from the trace alone: the total
    seconds per span name, the same aggregation ``obs view`` prints."""
    _pipe, res, records, _counts = traced_run
    manifest = collect_manifest("water-raman", records=records,
                                throughput=res.throughput,
                                counter_registry=Counters())
    totals = phase_totals(records)
    assert manifest.phase_wall_s == {
        name: secs for name, (secs, _calls) in totals.items()}
    assert {"decompose", "fragment_response", "scf", "gradient", "cphf",
            "assemble", "spectrum"} <= set(manifest.phase_wall_s)
    # gradient time splits into base and displaced by span path
    paths = {r.path for r in records if r.name == "gradient"}
    assert "run/fragment_response/fragment/gradient" in paths
    assert any(p.endswith("hessian.coordinate/gradient") for p in paths)


def test_run_counters_populated(traced_run):
    _pipe, res, _records, counts = traced_run
    assert counts["scf.runs"] >= res.unique_pieces
    assert counts["scf.iterations"] > counts["scf.runs"]
    assert counts["cphf.runs"] >= res.unique_pieces
    assert counts["hessian.coordinate_jobs"] > 0
    # 2 identical waters -> at least one rigid duplicate rotated
    assert counts["pipeline.rigid_rotations"] >= 1


def test_derive_throughput_matches_executor_report(traced_run):
    _pipe, res, records, _counts = traced_run
    report = res.throughput
    derived = derive_throughput(records, max_workers=report.max_workers,
                                backend=report.backend)
    assert derived.n_tasks == report.n_tasks
    assert {row["label"] for row in derived.tasks} \
        == {row["label"] for row in report.tasks}
    assert derived.wall_s == pytest.approx(report.wall_s, rel=0.05)
    assert derived.summary().startswith(f"{report.backend}[")


def test_disabled_tracing_leaves_results_identical(traced_run):
    """Telemetry is observation-only: an untraced run reproduces the
    traced spectrum bit for bit."""
    _pipe, traced_res, _records, _counts = traced_run
    from repro.obs import NULL_TRACER, get_tracer

    assert get_tracer() is NULL_TRACER
    _pipe2, plain = _run_pipeline()
    assert np.array_equal(plain.spectrum.intensity,
                          traced_res.spectrum.intensity)
    assert np.array_equal(plain.assembled.hessian,
                          traced_res.assembled.hessian)
    assert get_tracer().export() == []
