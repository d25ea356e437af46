"""Scalar reference integrals against closed forms and textbook values."""

import math

import numpy as np
import pytest

from repro.basis.gaussian import build_basis, make_shell
from repro.geometry.atoms import Geometry
from tests.integrals import mcmurchie as mm


def test_boys_zero_argument():
    for n in range(6):
        assert mm.boys(n, 0.0) == pytest.approx(1.0 / (2 * n + 1))


def test_boys_large_argument_asymptotic():
    # F_0(t) -> sqrt(pi/t)/2 for large t
    t = 80.0
    assert mm.boys(0, t) == pytest.approx(0.5 * math.sqrt(math.pi / t), rel=1e-10)


def test_boys_downward_consistency():
    # recursion identity F_{n-1} = (2t F_n + e^-t) / (2n-1)
    t = 3.7
    for n in range(1, 6):
        lhs = mm.boys(n - 1, t)
        rhs = (2 * t * mm.boys(n, t) + math.exp(-t)) / (2 * n - 1)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_hermite_e_gaussian_product_base():
    # E_0^{00} = exp(-q Qx^2)
    a, b, qx = 0.8, 1.3, 0.7
    q = a * b / (a + b)
    assert mm.hermite_e(0, 0, 0, qx, a, b) == pytest.approx(math.exp(-q * qx * qx))


def test_overlap_two_s_primitives_closed_form():
    # <s_a|s_b> = (pi/p)^{3/2} exp(-q R^2)
    a, b = 0.5, 0.9
    ra = np.zeros(3)
    rb = np.array([0.0, 0.0, 1.1])
    p = a + b
    q = a * b / p
    expect = (math.pi / p) ** 1.5 * math.exp(-q * 1.1 ** 2)
    got = mm.overlap_prim(a, (0, 0, 0), ra, b, (0, 0, 0), rb)
    assert got == pytest.approx(expect, rel=1e-13)


def test_kinetic_s_primitive_same_center():
    # <s|T|s> for equal exponents a: T = 3 a/2 * S ... closed form:
    # <g_a|-1/2 del^2|g_a> = (3 a / 2) (pi/2a)^{3/2} for unnormalized
    a = 1.1
    got = mm.kinetic_prim(a, (0, 0, 0), np.zeros(3), a, (0, 0, 0), np.zeros(3))
    s = (math.pi / (2 * a)) ** 1.5
    assert got == pytest.approx(1.5 * a * s * 0.5 * 2, rel=1e-12)


def test_szabo_h2_integrals():
    """Szabo & Ostlund Table 3.5 values for H2/STO-3G at R = 1.4 a0."""
    g = Geometry(["H", "H"], np.array([[0, 0, 0], [0, 0, 1.4]]))
    basis = build_basis(g)
    s = mm.overlap_shell(basis.shells[0], basis.shells[1])[0, 0]
    t11 = mm.kinetic_shell(basis.shells[0], basis.shells[0])[0, 0]
    t12 = mm.kinetic_shell(basis.shells[0], basis.shells[1])[0, 0]
    charges = g.numbers.astype(float)
    v11 = mm.nuclear_shell(basis.shells[0], basis.shells[0], charges, g.coords)[0, 0]
    assert s == pytest.approx(0.6593, abs=2e-4)
    assert t11 == pytest.approx(0.7600, abs=2e-4)
    assert t12 == pytest.approx(0.2365, abs=2e-4)
    assert v11 == pytest.approx(-1.8804, abs=3e-4)
    eri_1111 = mm.eri_shell(*([basis.shells[0]] * 4))[0, 0, 0, 0]
    eri_1122 = mm.eri_shell(
        basis.shells[0], basis.shells[0], basis.shells[1], basis.shells[1]
    )[0, 0, 0, 0]
    eri_1212 = mm.eri_shell(
        basis.shells[0], basis.shells[1], basis.shells[0], basis.shells[1]
    )[0, 0, 0, 0]
    assert eri_1111 == pytest.approx(0.7746, abs=2e-4)
    assert eri_1122 == pytest.approx(0.5697, abs=2e-4)
    assert eri_1212 == pytest.approx(0.2970, abs=2e-4)


def test_eri_permutation_symmetry():
    sh1 = make_shell(0, (0.0, 0.0, 0.0), [0.9], [1.0])
    sh2 = make_shell(1, (0.0, 0.5, 1.0), [0.6], [1.0])
    a = mm.eri_shell(sh1, sh2, sh1, sh2)
    b = mm.eri_shell(sh2, sh1, sh2, sh1)
    assert np.allclose(a, b.transpose(1, 0, 3, 2), atol=1e-13)
    c = mm.eri_shell(sh1, sh2, sh2, sh1)
    assert np.allclose(a, c.transpose(0, 1, 3, 2), atol=1e-13)


def test_dipole_s_functions_centered():
    # dipole of a symmetric s function about its center is zero
    sh = make_shell(0, (1.0, 2.0, 3.0), [0.8], [1.0])
    for d in range(3):
        val = mm.dipole_shell(sh, sh, d, np.array([1.0, 2.0, 3.0]))[0, 0]
        assert val == pytest.approx(0.0, abs=1e-14)


def test_dipole_translation_relation():
    # <a|(r - O)|b> shifts by -dO * S when the origin moves
    sh1 = make_shell(0, (0.0, 0.0, 0.0), [0.8], [1.0])
    sh2 = make_shell(0, (0.0, 0.0, 1.0), [1.2], [1.0])
    s = mm.overlap_shell(sh1, sh2)[0, 0]
    d0 = mm.dipole_shell(sh1, sh2, 2, np.zeros(3))[0, 0]
    d1 = mm.dipole_shell(sh1, sh2, 2, np.array([0.0, 0.0, 0.5]))[0, 0]
    assert d1 == pytest.approx(d0 - 0.5 * s, rel=1e-12)

