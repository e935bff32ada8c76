import math

import numpy as np
import pytest

from siegel3 import matrices as mx, specfun as sf
from siegel3.errors import DomainError, PoleError

# reference values computed once with a 30-digit multiprecision library
GAMMA_REFS = {
    0.5 + 0j: 1.77245385090551602729816748334,
    1.5 + 2j: 0.165915108938990954866659265354 + 0.14946347326641948738861178617j,
    -2.5 + 1j: -0.0417366258078936137447601383098 - 0.086369107369763484694186279347j,
}
ZETA_REFS = {
    2.0 + 0j: math.pi**2 / 6,
    0.0 + 0j: -0.5,
    3.0 + 1j: 1.10721440843140919562510020578 - 0.148290867178175348490764125669j,
    0.5 + 30j: -0.120642287590043699914021147312 - 0.583691214763706288757635825664j,
    -1.5 + 4j: 0.263153059073766478372007555122 + 0.262577531855622560750073189995j,
    0.5 + 50j: -0.0817121083209799750481931468022 + 0.330792194038661295587815274014j,
    -0.5 + 45j: 7.12140194723788698202434343949 + 9.43500764238988636375890287236j,
}
BESSELK_REFS = {
    (0.0, 1.0): 0.421024438240708333335627379213,
    (2.5 + 0.5j, 3.0): 0.0767277497228791549114054826102
    + 0.027514765868839063031716654158j,
}


def test_gamma_reference_values():
    for z, ref in GAMMA_REFS.items():
        assert abs(sf.complex_gamma(z) - ref) / abs(ref) <= 1e-12


def test_gamma_recurrence(rng):
    for _ in range(200):
        z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        if abs(z.imag) < 0.05 and abs(z.real - round(z.real)) < 0.05:
            continue  # stay away from the pole line
        g = sf.complex_gamma(z)
        g1 = sf.complex_gamma(z + 1)
        assert abs(g1 - z * g) / abs(g1) <= 1e-12


def test_gamma_matches_mpmath_up_to_overflow():
    mpmath = pytest.importorskip("mpmath")
    for im in (0.0, 0.3, 5.0, 50.0):
        for re in np.linspace(0.6, 171.5, 120):
            ref = complex(mpmath.gamma(mpmath.mpc(re, im)))
            assert abs(sf.complex_gamma(complex(re, im)) - ref) <= 5e-13 * abs(ref)
    for z in (171.7, 172.0 + 0.3j, 200.0):  # Gamma itself overflows a double
        with pytest.raises(DomainError):
            sf.complex_gamma(z)


def test_gamma_pole():
    with pytest.raises(PoleError):
        sf.complex_gamma(0.0)
    with pytest.raises(PoleError):
        sf.complex_gamma(-3.0 + 1e-14j)


def test_zeta_reference_values():
    for z, ref in ZETA_REFS.items():
        assert abs(sf.complex_zeta(z) - ref) / abs(ref) <= 1e-10


def test_zeta_functional_equation(rng):
    for _ in range(100):
        s = complex(rng.uniform(-8, 8), rng.uniform(-30, 30))
        if abs(s - 1) < 0.1 or abs(s) < 0.1:
            continue
        lhs = sf.complex_zeta(s)
        rhs = (
            2.0**s
            * math.pi ** (s - 1)
            * np.sin(np.pi * s / 2)
            * sf.complex_gamma(1 - s)
            * sf.complex_zeta(1 - s)
        )
        assert abs(lhs - rhs) / max(abs(lhs), 1e-30) <= 1e-9


def test_zeta_pole():
    with pytest.raises(PoleError):
        sf.complex_zeta(1.0)


def test_xi2_values():
    assert abs(sf.xi2(1.0) - math.pi / 6) < 1e-14
    sf.xi2(0.25)  # finite: no pole at s = 1/4
    with pytest.raises(PoleError):
        sf.xi2(0.0)
    with pytest.raises(PoleError):
        sf.xi2(0.5)


def test_phi_values_and_symmetry():
    assert sf.phi(0.5) == 0.0
    assert sf.phi(0.0) == 0.0
    assert sf.phi(2.0) == 4.5
    for s in (0.125, 0.75, 2.25, -1.5, 0.625 + 0.25j):
        assert sf.phi(s) == sf.phi(1 - s)


def test_phi_xi_product_regular_at_poles():
    # phi kills the xi2 poles: the product stabilizes near s = 0 and s = 1/2
    for s0 in (0.0, 0.5):
        v1 = sf.phi(s0 + 1e-6) * sf.xi2(s0 + 1e-6)
        v2 = sf.phi(s0 + 5e-7) * sf.xi2(s0 + 5e-7)
        assert abs(v1 - v2) <= 1e-5 * max(abs(v1), 1.0)
        assert abs(v1) < 10.0


def test_gamma3_closed_form_values():
    assert abs(sf.gamma3(0, 0, 2) + math.pi**2 / 2) <= 1e-13 * math.pi**2 / 2
    target = 4.5j * math.pi**2
    assert abs(sf.gamma3(1, 1, 2) - target) <= 1e-13 * abs(target)


def test_gamma3_argument_swap_identity(rng):
    for _ in range(100):
        s, w, u = rng.uniform(0.2, 2.5, 3) + 1j * rng.uniform(-1.5, 1.5, 3)
        lhs = sf.gamma3(-w, -s, s + w + u)
        rhs = sf.gamma3(w - 1, 0.5 - s - w, s + w + u)
        assert abs(lhs - rhs) / abs(lhs) <= 1e-12


def test_besselk_values_and_symmetry():
    for (nu, x), ref in BESSELK_REFS.items():
        assert abs(sf.besselK(nu, x) - ref) / abs(ref) <= 1e-10
    x = 2.0
    closed = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
    assert abs(sf.besselK(0.5, x) - closed) / closed <= 1e-12
    assert abs(sf.besselK(1.75, 3.0) - sf.besselK(-1.75, 3.0)) <= 1e-14
    with pytest.raises(DomainError):
        sf.besselK(1.0, -2.0)


def test_cone_integral_gap_examples(rng):
    assert sf.cone_integral_gap((1, 1, 2), 1j * np.eye(3)) <= 1e-10
    for _ in range(3):
        z = mx.random_siegel(rng, min_im=1.0)
        assert sf.cone_integral_gap((1.5, 1.0, 2.0), z) <= 1e-8
    with pytest.raises(DomainError):
        sf.cone_integral_gap((0.0, 0.0, 0.5), 1j * np.eye(3))
