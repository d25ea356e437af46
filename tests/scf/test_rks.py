import numpy as np
import pytest

from repro.scf.rks import RKS


@pytest.fixture(scope="module")
def water_rks(water):
    res = RKS(water, radial_points=60).run()
    assert res.converged
    return res


def test_lda_water_energy(water_rks):
    # SVWN/STO-3G water sits near -74.73 Eh (grid-converged codes)
    assert water_rks.energy == pytest.approx(-74.73, abs=3e-2)


def test_lda_below_hf_exchange_correlation(water, water_rks, water_scf_df):
    """LDA total energy differs from HF by the XC treatment: it should
    be higher (less negative) for water in a minimal basis."""
    assert water_rks.energy > water_scf_df.energy


def test_rks_density_trace(water_rks):
    n = np.sum(water_rks.density * water_rks.overlap)
    assert n == pytest.approx(10.0, abs=1e-8)


def test_rks_extras_populated(water_rks):
    xc = water_rks.extras["xc"]
    assert xc["name"] == "lda"
    assert xc["rho"].ndim == 1
    assert xc["fxc"].shape == xc["rho"].shape
    assert xc["exc"] < 0
