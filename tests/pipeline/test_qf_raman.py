"""End-to-end pipeline tests (kept at 2-3 waters for runtime)."""

import numpy as np
import pytest

from repro.geometry import water_box
from repro.pipeline import QFRamanPipeline


@pytest.fixture(scope="module")
def small_box_run():
    waters = water_box(3, seed=3)
    pipe = QFRamanPipeline(waters=waters)
    omega = np.linspace(100, 5000, 400)
    return pipe.run(omega_cm1=omega, sigma_cm1=30.0, solver="dense"), omega


def test_pipeline_requires_input():
    with pytest.raises(ValueError):
        QFRamanPipeline()


def test_decomposition_counts(small_box_run):
    res, _ = small_box_run
    assert res.decomposition.counts["water"] == 3
    assert res.natoms == 9


def test_dedupe_reuses_identical_waters(small_box_run):
    res, _ = small_box_run
    one_body = res.decomposition.counts["water"]
    # 3 identical waters -> 1 unique; dimers all unique
    dimers = res.decomposition.counts.get("gc_dimer", 0)
    assert res.unique_pieces == 1 + dimers


def test_spectrum_produced(small_box_run):
    res, omega = small_box_run
    assert res.spectrum is not None
    assert res.spectrum.intensity.shape == omega.shape
    assert res.spectrum.intensity.max() > 0


def test_spectrum_has_water_bands(small_box_run):
    res, _ = small_box_run
    sp = res.spectrum.normalized()
    from repro.analysis import find_peaks

    peaks = [p.position_cm1 for p in find_peaks(sp.omega_cm1, sp.intensity)]
    # O-H stretch region (unscaled RHF/STO-3G: 4100-4900)
    assert any(4000 < p < 5000 for p in peaks)
    # bend region (unscaled: ~2050)
    assert any(1800 < p < 2300 for p in peaks)


def test_lanczos_solver_matches_dense(small_box_run):
    res, omega = small_box_run
    waters = water_box(3, seed=3)
    pipe = QFRamanPipeline(waters=waters)
    res_l = pipe.run(omega_cm1=omega, sigma_cm1=30.0, solver="lanczos",
                     lanczos_k=40)
    scale = res.spectrum.intensity.max()
    assert np.abs(res.spectrum.intensity - res_l.spectrum.intensity).max() < 1e-6 * scale


def test_lanczos_health_number_on_the_spectrum_span():
    from repro.obs import disable_tracing, enable_tracing

    tracer = enable_tracing()
    try:
        res = QFRamanPipeline(waters=water_box(1, seed=0)).run(
            omega_cm1=np.linspace(100, 5000, 200), sigma_cm1=30.0,
            solver="lanczos", lanczos_k=4)
    finally:
        disable_tracing()
    span = next(r for r in tracer.records if r.path == "run/spectrum")
    assert span.attrs["quadrature_delta"] == res.spectrum.quadrature_delta
    assert res.spectrum.quadrature_delta > 0.0  # k = 4 < 3N = 9


def test_unknown_solver_rejected():
    waters = water_box(2, seed=0)
    pipe = QFRamanPipeline(waters=waters, compute_raman=True)
    with pytest.raises(ValueError, match="solver"):
        pipe.run(omega_cm1=np.linspace(0, 100, 5), solver="qr")


def test_workload_sizes(small_box_run):
    res, _ = small_box_run
    waters = water_box(3, seed=3)
    pipe = QFRamanPipeline(waters=waters)
    sizes = pipe.workload_sizes(res.decomposition)
    assert sizes.min() == 3
    assert (sizes == 6).sum() == res.decomposition.counts.get("gc_dimer", 0)
