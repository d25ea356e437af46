import numpy as np
import pytest

from repro.dfpt import fragment_response
from repro.spectra.modes import normal_modes_projected


@pytest.fixture(scope="module")
def water_response(water_optimized):
    return fragment_response(water_optimized.geometry, eri_mode="df")


def test_hessian_symmetric(water_response):
    h = water_response.hessian
    assert np.allclose(h, h.T, atol=1e-12)  # symmetrized by construction


def test_water_frequencies_vs_literature(water_optimized, water_response):
    """RHF/STO-3G water fundamentals: ~2170 (bend), ~4140, ~4390 cm^-1."""
    nm = normal_modes_projected(
        water_response.hessian,
        water_optimized.geometry.masses,
        water_optimized.geometry.coords,
    )
    freqs = nm.frequencies_cm1
    vib = np.sort(freqs[np.abs(freqs) > 50.0])
    assert vib.size == 3
    assert vib[0] == pytest.approx(2170.0, abs=40.0)
    assert vib[1] == pytest.approx(4140.0, abs=60.0)
    assert vib[2] == pytest.approx(4390.0, abs=60.0)


def test_no_imaginary_modes_at_minimum(water_optimized, water_response):
    nm = normal_modes_projected(
        water_response.hessian,
        water_optimized.geometry.masses,
        water_optimized.geometry.coords,
    )
    assert nm.frequencies_cm1.min() > -50.0


def test_raman_tensor_shape_and_symmetry(water_response):
    d = water_response.dalpha_dr
    assert d.shape == (9, 3, 3)
    # each dalpha/dR slice is a symmetric tensor
    assert np.allclose(d, d.transpose(0, 2, 1), atol=1e-5)


def test_raman_tensor_translational_invariance(water_response):
    """Summing dalpha/dR over atoms for fixed direction must vanish:
    translating the molecule cannot change its polarizability."""
    d = water_response.dalpha_dr.reshape(3, 3, 3, 3)  # (atom, dir, i, j)
    total = d.sum(axis=0)
    assert np.abs(total).max() < 5e-4


def test_residual_gradient_recorded(water_response):
    assert np.abs(water_response.gradient).max() < 5e-3


def test_scf_seeding_recorded(water_response):
    """Displaced SCFs are density-seeded (+delta from base, -delta from
    the +delta twin); the meta block records the iteration savings
    against the cold-start baseline of the base SCF."""
    meta = water_response.meta
    assert meta["scf_iters_base"] > 0
    assert meta["scf_iters_plus"] > 0
    assert meta["scf_iters_minus"] > 0
    # warm starts must beat 18 cold starts of the same problem size
    assert meta["scf_iters_saved"] > 0
    assert meta["scf_iters_saved"] == (
        18 * meta["scf_iters_base"]
        - meta["scf_iters_plus"] - meta["scf_iters_minus"]
    )


def test_progress_callback(water_optimized):
    calls = []
    fragment_response(
        water_optimized.geometry,
        eri_mode="df",
        compute_raman=False,
        progress=lambda done, total: calls.append((done, total)),
    )
    assert calls[-1] == (18, 18)
    assert len(calls) == 18


def test_unconverged_seeded_scf_is_retried_cold_and_counted(
        water_optimized, monkeypatch):
    """A seeded displaced SCF that comes back unconverged is rerun from
    the core guess, and the retry is counted in ``scf.cold_retries``."""
    import dataclasses

    from repro.dfpt import hessian
    from repro.obs.counters import counters

    real_run = hessian.RHF.run
    runs = []

    def stalled_when_seeded(self, guess_density=None, base=None):
        res = real_run(self, guess_density=guess_density, base=base)
        runs.append(guess_density is not None)
        if guess_density is not None:
            res = dataclasses.replace(res, converged=False)
        return res

    geom = water_optimized.geometry
    kwargs = {"basis_name": "sto-3g", "eri_mode": "df"}
    guess = hessian.RHF(geom, **kwargs).run().density
    monkeypatch.setattr(hessian.RHF, "run", stalled_when_seeded)
    before = counters().get("scf.cold_retries")
    res = hessian._displaced_scf(geom, 0, 2, 5e-3, guess, kwargs)
    assert res.converged
    assert runs == [True, False]
    assert counters().get("scf.cold_retries") == before + 1
