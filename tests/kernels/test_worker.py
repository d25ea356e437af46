import numpy as np
import pytest

from repro.geometry import water_molecule
from repro.kernels.worker import run_dfpt_cycle


@pytest.fixture(scope="module")
def water_cycle():
    return run_dfpt_cycle(water_molecule(), uniform_n=32, radial_points=30)


def test_all_four_phases_present(water_cycle):
    for phase in ("p1", "n1r", "poisson", "h1"):
        assert phase in water_cycle.flops, phase
        assert water_cycle.flops[phase] > 0
        assert phase in water_cycle.seconds


def test_flops_scale_with_system_size(water_cycle):
    from repro.geometry import water_dimer

    big = run_dfpt_cycle(water_dimer(), uniform_n=32, radial_points=30)
    # nbf doubles -> n1r (quadratic in nbf at fixed grid) grows ~4x
    ratio = big.flops["n1r"] / water_cycle.flops["n1r"]
    assert ratio > 2.0


def test_rate_helper(water_cycle):
    r = water_cycle.rate_gflops("n1r")
    assert r >= 0.0
    assert water_cycle.rate_gflops("nonexistent") == 0.0


def test_outputs_finite(water_cycle):
    assert np.isfinite(water_cycle.extras["h1_norm"])
    assert np.isfinite(water_cycle.extras["p1_norm"])
    assert water_cycle.extras["p1_norm"] > 0
