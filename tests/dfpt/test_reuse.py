"""The displacement loop's integral reuse against full rebuilds, and its
FD-asymmetry health number.

Every coordinate job reuses the base geometry's two-electron tensors and
rebuilds only the elements that touch its displaced atom. The oracle is
the same loop with each job rebuilding everything (``base`` dropped).

The rebuilt integrals match the full build to ~1e-16 relative, not bit
for bit (the selected blocks give other GEMM shapes). The displaced SCF
densities then differ by ~1e-14, which the exact-ERI gradient carries
into H at 6.6e-13 on the water below. The DF gradient contracts the
density with (3, nbf, nbf, naux) derivative integrals and amplifies it
~300-fold: 3e-12 in the gradient, so 3.2e-10 in H (= Δg / 2δ) on the
water and 9.3e-10 on the C=O piece, still four orders under their FD
asymmetry (~7e-6). The DF bound is 1e-8, ten times the largest seen.
"""

import numpy as np
import pytest

from repro.devtools.contracts import ContractViolation, sanitize
from repro.dfpt import fragment_response, hessian


@pytest.fixture
def full_rebuilds(monkeypatch):
    """Run every coordinate job without the base tensors: each displaced
    SCF and gradient then builds all its integrals."""
    real = hessian.coordinate_job

    def rebuild_everything(*args, base=None, **kwargs):
        return real(*args, **kwargs)

    def patch():
        monkeypatch.setattr(hessian, "coordinate_job", rebuild_everything)

    return patch


#: largest |H - H_full| and |dalpha/dR - full| accepted per path
ATOL = {"exact": 1e-10, "df": 1e-8}


@pytest.mark.parametrize("eri_mode", ["exact", "df"])
def test_reuse_matches_full_rebuilds(water_optimized, full_rebuilds,
                                     eri_mode):
    geom = water_optimized.geometry
    local = fragment_response(geom, eri_mode=eri_mode)
    full_rebuilds()
    full = fragment_response(geom, eri_mode=eri_mode)
    np.testing.assert_allclose(local.hessian, full.hessian, rtol=0,
                               atol=ATOL[eri_mode])
    np.testing.assert_allclose(local.dalpha_dr, full.dalpha_dr, rtol=0,
                               atol=ATOL[eri_mode])
    for key in ("scf_iters_base", "scf_iters_plus", "scf_iters_minus"):
        assert local.meta[key] == full.meta[key], key


def test_reuse_matches_full_rebuilds_on_a_heavier_df_piece(full_rebuilds):
    """A DF piece with two heavy atoms (formaldehyde-like C=O plus two
    H): the moved atom carries p shells and d auxiliary functions."""
    from repro.geometry.atoms import Geometry

    geom = Geometry.from_angstrom(
        ["C", "O", "H", "H"],
        [[0.0, 0.0, 0.0], [0.0, 0.0, 1.21],
         [0.0, 0.94, -0.59], [0.0, -0.94, -0.59]])
    local = fragment_response(geom, eri_mode="df", compute_raman=False)
    full_rebuilds()
    full = fragment_response(geom, eri_mode="df", compute_raman=False)
    np.testing.assert_allclose(local.hessian, full.hessian, rtol=0,
                               atol=ATOL["df"])
    assert local.meta["scf_iters_plus"] == full.meta["scf_iters_plus"]
    assert local.meta["scf_iters_minus"] == full.meta["scf_iters_minus"]


def test_fd_asymmetry_recorded(water_optimized):
    resp = fragment_response(water_optimized.geometry, eri_mode="exact",
                             compute_raman=False)
    # measured 6.8e-6 on this water; symmetrization happens after
    assert 0.0 < resp.meta["fd_asymmetry"] < hessian.FD_ASYMMETRY_MAX
    np.testing.assert_array_equal(resp.hessian, resp.hessian.T)


def test_fd_asymmetry_above_bound_raises_under_sanitize(water_optimized,
                                                       monkeypatch):
    """One corrupted Hessian column (a wrong touched-row selection looks
    like this) passes silently through symmetrization unless the
    sanitizer checks the asymmetry first."""
    real = hessian.coordinate_job

    def corrupted(*args, **kwargs):
        res = real(*args, **kwargs)
        if res.col == 4:
            res.hess_col = res.hess_col + 0.05
        return res

    monkeypatch.setattr(hessian, "coordinate_job", corrupted)
    geom = water_optimized.geometry
    with sanitize(False):
        resp = fragment_response(geom, eri_mode="exact",
                                 compute_raman=False)
    assert resp.meta["fd_asymmetry"] > hessian.FD_ASYMMETRY_MAX
    with sanitize(True), pytest.raises(ContractViolation,
                                       match="asymmetry") as err:
        fragment_response(geom, eri_mode="exact", compute_raman=False)
    assert err.value.rule == "fd_asymmetry"


def test_fd_asymmetry_of_a_zero_hessian_is_zero():
    assert hessian.fd_asymmetry(np.zeros((3, 3))) == 0.0  # qf: exact-zero — the zero-H guard returns a literal 0


def test_h2_hessian_is_symmetric():
    """H2 in a minimal basis converges to round-off in one SCF step
    (symmetry fixes its density). Its FD Hessian must come out symmetric
    to round-off; it read 4.4e-3 when DIIS still extrapolated from
    round-off error vectors, whose noise reached the orbital energies of
    the gradient's energy-weighted density."""
    from repro.geometry.atoms import Geometry

    geom = Geometry(["H", "H"], np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.40]]))
    resp = fragment_response(geom, eri_mode="exact", compute_raman=False)
    assert resp.meta["fd_asymmetry"] < 1e-10
