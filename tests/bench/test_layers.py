"""Self-tests of the benchmark's outside-in layer tracer.

Three small pipeline runs go through the installed tracer: one water
on the exact path with a cold canonical store, two rigid copies of it
against the now warm store with the Lanczos solver, and one water on
the density-fitted path. Together they reach every seam, so a renamed
import in the pipeline cannot silently zero a layer of the benchmark.
"""

from __future__ import annotations

import numpy as np
import pytest

import layers
from layers import SEAM_NAMES, SEAMS, LayerTracer, run_metrics
from repro.obs.export import write_trace
from repro.obs.view import render
from repro.pipeline import QFRamanPipeline
from workloads import (
    OMEGA_CM1,
    SIGMA_CM1,
    WORKLOADS,
    relaxed_water,
    relaxed_water_box,
)

SPECTRUM = {"omega_cm1": OMEGA_CM1, "sigma_cm1": SIGMA_CM1}

EXACT_SEAMS = {
    "pipeline.run", "fragment.decompose", "pipeline.geometry_signature",
    "pipeline.store_load", "pipeline.store_write", "pipeline.executor_run",
    "dfpt.fragment_response", "dfpt.coordinate_job", "dfpt.gradient",
    "dfpt.cphf", "scf.rhf", "integrals.eri", "integrals.eri_deriv",
    "integrals.overlap_deriv", "integrals.kinetic_deriv",
    "integrals.nuclear_deriv", "fragment.assemble_response",
    "spectra.raman_spectrum_dense",
}
WARM_SEAMS = {
    "pipeline.run", "fragment.decompose", "pipeline.geometry_signature",
    "pipeline.kabsch_rotation", "pipeline.rotate_response",
    "pipeline.store_load", "fragment.assemble_response",
    "fragment.assemble_sparse_hessian", "spectra.raman_spectrum_lanczos",
}
DF_SEAMS = {
    "pipeline.run", "pipeline.executor_run", "dfpt.fragment_response",
    "dfpt.gradient", "dfpt.cphf", "scf.rhf", "scf.df_build",
    "integrals.three_center_deriv", "integrals.two_center_deriv",
    "spectra.raman_spectrum_dense",
}


def seam_values() -> list:
    return [getattr(layers._resolve(target), attr)
            for _name, target, attr in SEAMS]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    store = tmp_path_factory.mktemp("store")
    water = [relaxed_water()]
    tracer = LayerTracer()
    with tracer.installed():
        exact = QFRamanPipeline(waters=water, canonical_cache=str(store)) \
            .run(**SPECTRUM)
        QFRamanPipeline(waters=relaxed_water_box(2, density=1.0e-3, seed=5),
                        canonical_cache=str(store)) \
            .run(**SPECTRUM, solver="lanczos")
        QFRamanPipeline(waters=water, eri_mode="df").run(**SPECTRUM)
    plain = QFRamanPipeline(
        waters=water, canonical_cache=str(tmp_path_factory.mktemp("plain"))
    ).run(**SPECTRUM)
    return tracer, exact, plain


def test_every_seam_reached_by_its_config_records_calls(traced):
    tracer = traced[0]
    assert len(tracer.runs) == 3
    for rt, want in zip(tracer.runs, (EXACT_SEAMS, WARM_SEAMS, DF_SEAMS)):
        seen = {s.name for s in rt.spans}
        assert want <= seen, sorted(want - seen)
    assert EXACT_SEAMS | WARM_SEAMS | DF_SEAMS == set(SEAM_NAMES)


def test_workload_seams_name_real_seams():
    for cls in WORKLOADS.values():
        assert cls.expected_seams <= set(SEAM_NAMES), cls.name


def test_traced_run_is_bit_identical_to_untraced(traced):
    _tracer, exact, plain = traced
    assert np.array_equal(exact.assembled.hessian, plain.assembled.hessian)
    assert np.array_equal(exact.spectrum.intensity, plain.spectrum.intensity)


def test_no_patched_attribute_left_behind(traced):
    before = seam_values()
    assert layers.patched_seams() == []
    with pytest.raises(RuntimeError, match="inside"):
        with LayerTracer().installed():
            assert len(layers.patched_seams()) == len(SEAMS)
            raise RuntimeError("inside the traced block")
    assert layers.patched_seams() == []
    assert all(a is b for a, b in zip(before, seam_values()))


def test_layer_metrics_account_for_each_run(traced):
    exact, warm, df = (run_metrics(rt) for rt in traced[0].runs)
    assert exact["pipeline.qm_pieces"] == 1
    assert exact["dfpt.coordinate_jobs"] == 9
    assert exact["pipeline.store_writes"] == 1
    assert exact["scf.runs"] == traced[0].runs[0].counters["scf.runs"]
    nbf = 7
    assert exact["integrals.eri_deriv_mb"] == pytest.approx(
        len(traced[0].runs[0].calls("integrals.eri_deriv"))
        * 3 * nbf ** 4 * 8 * 1e-6)
    assert exact["dfpt.gradient_self_s"] < exact["dfpt.gradient_s"]
    assert exact["integrals.df_deriv_s"] == 0.0

    assert warm["pipeline.reuse_hit_ratio"] == 1.0
    assert warm["pipeline.qm_pieces"] == 0
    assert warm["scf.runs"] == 0
    assert warm["pipeline.rigid_rotations"] == 1
    assert warm["lanczos.matvecs"] > 0

    assert df["integrals.eri_deriv_s"] == 0.0
    assert df["integrals.df_deriv_s"] > 0.0
    assert df["scf.df_build_s"] > 0.0
    for m in (exact, warm, df):
        assert 0.0 <= m["trace.unattributed_frac"] <= 0.10
        assert 0.0 <= m["trace.overhead_frac"] < 0.05


def test_trace_renders_in_obs_view(traced, tmp_path):
    path = write_trace(traced[0].export(), tmp_path / "trace.json")
    text = render(path)
    assert "pipeline.run" in text
    assert "integrals.eri_deriv" in text
