import dataclasses

import numpy as np
import pytest

from repro.dfpt.cphf import CPHF, polarizability
from repro.scf import RHF
from tests.dfpt.oracle import (
    field_perturbation,
    response_fock,
    solve_iterative,
)


@pytest.fixture(scope="module")
def water_cphf(water_scf_exact):
    return CPHF(water_scf_exact).run()


@pytest.fixture(scope="module")
def glycine_scf_df(glycine):
    """The capped GLY piece (nbf 30, nocc 20) on the DF path."""
    res = RHF(glycine, eri_mode="df").run()
    assert res.converged
    return res


CASES = ["water_scf_exact", "water_scf_df", "glycine_scf_df"]


def test_cphf_converges(request):
    """The solution satisfies the AO-built CPHF equations:
    (eps_a - eps_i) U + C_v^T (J - 0.5 K)[P(1)] C_o + Q = 0."""
    for case in CASES:
        scf = request.getfixturevalue(case)
        res = CPHF(scf).run()
        nocc = scf.nocc
        denom = scf.mo_energy[nocc:, None] - scf.mo_energy[None, :nocc]
        _dip, q = field_perturbation(scf)
        for x in range(3):
            g = scf.c_virt.T @ response_fock(scf, res.p1[x]) @ scf.c_occ
            resid = denom * res.u[x] + g + q[x]
            assert np.abs(resid).max() < 1e-10, (case, x)


@pytest.mark.parametrize("case", CASES)
def test_matches_iterative_oracle(request, case):
    """The direct solve reproduces the AO-basis DIIS solver run tight."""
    scf = request.getfixturevalue(case)
    res = CPHF(scf).run()
    alpha, _u, p1, _niter = solve_iterative(scf, conv_tol=1e-12)
    assert np.abs(res.alpha - alpha).max() <= 1e-10
    assert np.abs(res.p1 - p1).max() <= 1e-10


def test_alpha_symmetric(water_cphf):
    assert np.allclose(water_cphf.alpha, water_cphf.alpha.T, atol=1e-6)


def test_alpha_positive_definite(water_cphf):
    evals = np.linalg.eigvalsh(water_cphf.alpha)
    assert evals.min() > 0


def test_alpha_vs_finite_field(water, water_scf_exact, water_cphf):
    f = 2e-3
    for x in range(3):
        fv = np.zeros(3)
        fv[x] = f
        ep = RHF(water, eri_mode="exact", field_vector=fv).run().energy
        em = RHF(water, eri_mode="exact", field_vector=-fv).run().energy
        a_ff = -(ep - 2 * water_scf_exact.energy + em) / f ** 2
        assert water_cphf.alpha[x, x] == pytest.approx(a_ff, abs=2e-4)


def test_df_alpha_close_to_exact(water_scf_df, water_cphf):
    a_df = CPHF(water_scf_df).run().alpha
    assert np.allclose(a_df, water_cphf.alpha, atol=0.05)


def test_response_density_traceless(water_cphf, water_scf_exact):
    """tr(P(1) S) = 0: the perturbation conserves electron count."""
    s = water_scf_exact.overlap
    for x in range(3):
        assert abs(np.sum(water_cphf.p1[x] * s)) < 1e-8


def test_alpha_rotation_covariance(water):
    """alpha transforms as R alpha R^T under rigid rotation."""
    from repro.geometry.atoms import Geometry
    from repro.geometry.water import random_rotation

    rng = np.random.default_rng(7)
    rot = random_rotation(rng)
    a0 = polarizability(RHF(water, eri_mode="exact").run())
    rotated = Geometry(list(water.symbols), water.coords @ rot.T)
    a1 = polarizability(RHF(rotated, eri_mode="exact").run())
    assert np.allclose(a1, rot @ a0 @ rot.T, atol=1e-5)


def test_rejects_bare_scf():
    from repro.scf.rhf import SCFResult

    dummy = SCFResult(
        energy=0.0, energy_nuc=0.0, mo_coeff=np.eye(2), mo_energy=np.zeros(2),
        density=np.eye(2), fock=np.eye(2), overlap=np.eye(2), hcore=np.eye(2),
        nocc=1, converged=True, niter=1,
    )
    with pytest.raises(ValueError, match="neither"):
        CPHF(dummy)


def test_rejects_kohn_sham_state(water_scf_df):
    """The response is RHF only; an RKS state carries extras["xc"]."""
    rks_like = dataclasses.replace(water_scf_df, extras={"xc": {"name": "lda"}})
    with pytest.raises(ValueError, match="RHF only"):
        CPHF(rks_like)


def test_unstable_scf_raises(water_scf_exact):
    """Swapping HOMO and LUMO makes an SCF state that is not a minimum:
    the orbital Hessian is indefinite and the solve must refuse it."""
    scf = water_scf_exact
    h, l = scf.nocc - 1, scf.nocc
    order = np.arange(scf.mo_energy.size)
    order[[h, l]] = order[[l, h]]
    swapped = dataclasses.replace(
        scf, mo_coeff=scf.mo_coeff[:, order], mo_energy=scf.mo_energy[order])
    nbf = scf.overlap.shape[0]
    with pytest.raises(np.linalg.LinAlgError,
                       match=f"nbf={nbf}, nocc={scf.nocc}.*not a stable minimum"):
        CPHF(swapped).run()


def test_span_and_counter(water_scf_exact):
    """One `cphf` span per solve with the Hessian's order; one run counted."""
    from repro.obs.counters import counters
    from repro.obs.tracer import Tracer, use_tracer

    tracer = Tracer()
    before = counters().get("cphf.runs")
    with use_tracer(tracer):
        CPHF(water_scf_exact).run()
    (rec,) = [r for r in tracer.records if r.name == "cphf"]
    nocc = water_scf_exact.nocc
    nvirt = water_scf_exact.mo_energy.size - nocc
    assert rec.attrs == {"nbf": water_scf_exact.overlap.shape[0], "nocc": nocc,
                         "nvo": nvirt * nocc}
    assert counters().get("cphf.runs") == before + 1
