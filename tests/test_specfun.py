import cmath
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from siegel3 import matrices as mx, specfun as sf
from siegel3.errors import DomainError, PoleError, QuadratureFailure

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


def _gamma(z):
    return cmath.exp(sf.log_gamma(z))


def test_gamma_reference_values():
    for z, ref in GAMMA_REFS.items():
        assert abs(_gamma(z) - ref) / abs(ref) <= 1e-12


def test_gamma_recurrence(rng):
    for _ in range(200):
        z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        if abs(z.imag) < 0.05 and abs(z.real - round(z.real)) < 0.05:
            continue  # stay away from the pole line
        g = _gamma(z)
        g1 = _gamma(z + 1)
        assert abs(g1 - z * g) / abs(g1) <= 1e-12


def test_gamma_matches_mpmath_up_to_overflow():
    for im in (0.0, 0.3, 5.0, 50.0):
        for re in np.linspace(0.6, 171.5, 120):
            ref = complex(mpmath.gamma(mpmath.mpc(re, im)))
            assert abs(_gamma(complex(re, im)) - ref) <= 5e-13 * abs(ref)


def test_gamma_pole():
    with pytest.raises(PoleError):
        sf.log_gamma(0.0)
    with pytest.raises(PoleError):
        sf.log_gamma(-3.0 + 1e-14j)


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
            * _gamma(1 - s)
            * sf.complex_zeta(1 - s)
        )
        assert abs(lhs - rhs) / max(abs(lhs), 1e-30) <= 1e-9


def test_zeta_pole():
    with pytest.raises(PoleError):
        sf.complex_zeta(1.0)


def test_zeta_refuses_its_range_end_before_the_sum_is_built():
    # the Euler-Maclaurin sum has ~0.8 |Im s| terms: 1e9 would ask for ~6 GiB
    for s in (0.5 + 1e9j, 2 - 10001j, -3 + 1e300j):
        with pytest.raises(DomainError, match="outside"):
            sf.complex_zeta(s)
    s = 0.5 + 1e4j  # the end of the range is accepted
    with mpmath.workdps(30):
        ref = complex(mpmath.zeta(s))
    assert abs(sf.complex_zeta(s) - ref) <= 1e-10 * abs(ref)


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


# --- differential tests against mpmath 1.3.0, its references at 30 digits ----
# Each quadrature promises its tolerance relative to max(|I|, 1e-4 L1), L1 the
# integral of the integrand's modulus, as its refusal test does: where the
# integral is a cancellation of a 10^4 times larger modulus, only that floor
# is meaningful (as near the zeros of K_{i y}(x)).


@given(st.floats(-10, 10), st.floats(-3, 3), st.floats(0.1, 60))
def test_besselk_matches_mpmath(re, im, x):
    with mpmath.workdps(30):
        ref = complex(mpmath.besselk(complex(re, im), x))
        l1 = float(mpmath.besselk(re, x))  # 1/2 e^-x times the integral of the modulus
    assert abs(sf.besselK(complex(re, im), x) - ref) <= 1e-12 * max(abs(ref), 1e-4 * l1)


@given(st.floats(-1, 8, exclude_min=True), st.floats(-3, 3), st.floats(0.3, 3), st.floats(-1, 1))
def test_decaying_power_integral_matches_gamma_closed_form(re, im, y, x_over_y):
    alpha, c = complex(re, im), 2j * math.pi * complex(x_over_y * y, y)
    with mpmath.workdps(30):
        ref = complex(mpmath.gamma(alpha + 1) * mpmath.power(-c, -(alpha + 1)))
        l1 = float(mpmath.gamma(re + 1) / mpmath.mpf(-c.real) ** (re + 1))
    try:
        got = sf._decaying_power_integral(alpha, c)
    except QuadratureFailure:  # only where r^(i Im alpha) turns over 1000 times
        assert abs(im) * 45.0 / (re + 1.0) > 2000 * math.pi  # before r^(Re alpha + 1) = e^-45
        return
    assert abs(got - ref) <= 1e-10 * max(abs(ref), 1e-4 * l1)


def _off_the_poles(z):
    return not (abs(z.imag) < 0.05 and abs(z.real - round(z.real)) < 0.05)


@given(st.floats(-20, 20), st.floats(-20, 20))
def test_gamma_matches_mpmath(re, im):
    z = complex(re, im)
    assume(_off_the_poles(z))
    with mpmath.workdps(30):
        ref = complex(mpmath.gamma(z))
    assert abs(_gamma(z) - ref) <= 1e-12 * abs(ref)


@given(st.floats(-170, 0.5), st.floats(-400, 400))
def test_gamma_reflection_matches_mpmath_at_large_imaginary_parts(re, im):
    # the linear reflection multiplied an overflowing sin by an underflowing
    # Gamma here: Gamma(0.3+300j) came out nan
    z = complex(re, im)
    assume(_off_the_poles(z))
    with mpmath.workdps(30):
        ref = mpmath.gamma(z)
    assume(sys.float_info.min <= abs(ref) <= sys.float_info.max)
    assert abs(_gamma(z) - complex(ref)) <= 1e-12 * abs(complex(ref))


@pytest.mark.parametrize("z", [0.3 + 300j, 2 + 500j, -169.5 + 0.25j, 172 + 0.3j, 200])
def test_log_gamma_answers_where_gamma_leaves_the_double_range(z):
    # |Gamma(2+500j)| ~ 3e-337 and Gamma(200) ~ 4e372; compared on the free branch
    with mpmath.workdps(30):
        ref = mpmath.loggamma(z)
        assert abs(mpmath.expm1(sf.log_gamma(z) - ref)) <= 1e-12


@given(st.floats(-8, 8), st.floats(-50, 50))
def test_zeta_matches_mpmath(re, im):
    s = complex(re, im)
    assume(abs(s - 1) >= 0.1)
    with mpmath.workdps(30):
        ref = complex(mpmath.zeta(s))
    # relative, except where |zeta| < 1e-3, near a zero (trivial ones at -2, -4, ...)
    assert abs(sf.complex_zeta(s) - ref) <= 1e-10 * max(abs(ref), 1e-3)


_swu = st.tuples(*[st.floats(0.2, 2.5)] * 3, *[st.floats(-1.5, 1.5)] * 3)


@given(_swu)
def test_gamma3_matches_mpmath(parts):
    s, w, u = (complex(re, im) for re, im in zip(parts[:3], parts[3:]))
    assume(all(map(_off_the_poles, (s + w + u, w + u - 0.5, u - 1.0))))
    with mpmath.workdps(30):
        ref = complex(mpmath.pi**1.5 * mpmath.expjpi((s + 2 * w + 3 * u) / 2)
                      * mpmath.gamma(s + w + u) * mpmath.gamma(w + u - 0.5) * mpmath.gamma(u - 1))
    assert abs(sf.gamma3(s, w, u) - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("swu", [(179, 101.5, -100.5), (0, 0, -2 - 300j)])
def test_gamma3_where_a_gamma_factor_leaves_the_double_range(swu):
    # Gamma(180) overflows; the Gammas at -2-300j, -2.5-300j, -3-300j multiply to ~1e-636
    s, w, u = swu
    with mpmath.workdps(30):
        u_mp = mpmath.mpmathify(u)
        ref = complex(mpmath.pi**1.5 * mpmath.expjpi((s + 2 * w + 3 * u_mp) / 2)
                      * mpmath.gamma(s + w + u_mp) * mpmath.gamma(w + u_mp - 0.5)
                      * mpmath.gamma(u_mp - 1))
    assert abs(sf.gamma3(s, w, u) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("s,trivial_zero", [(-171.5, -172.0), (-201.0, -200.0)])
def test_zeta_reflection_where_its_gamma_overflows(s, trivial_zero):
    # Gamma(172.5) and Gamma(202) overflow; 2^s pi^(s-1) Gamma(1-s) does not
    with mpmath.workdps(30):
        ref = complex(mpmath.zeta(s))
    assert abs(sf.complex_zeta(s) - ref) <= 1e-13 * abs(ref)
    assert sf.complex_zeta(trivial_zero) == 0


def test_gamma3_where_the_gamma_product_overflows():
    # Gamma(170.5) Gamma(160) is past the double range, Gamma3 itself is not
    s, w, u = 10, 320, -159.5
    with mpmath.workdps(30):
        ref = complex(mpmath.pi**1.5 * mpmath.expjpi(mpmath.mpf(s + 2 * w + 3 * u) / 2)
                      * mpmath.gamma(s + w + u) * mpmath.gamma(w + u - 0.5) * mpmath.gamma(u - 1))
    assert abs(sf.gamma3(s, w, u) - ref) <= 1e-12 * abs(ref)


def test_lipschitz_factor_matches_the_mpmath_product(rng):
    for _ in range(50):
        s, w, u = rng.uniform(1, 8, 3) + 1j * rng.uniform(-3, 3, 3)
        with mpmath.workdps(30):
            ref = complex((-2j * mpmath.pi) ** (s + 2 * w + 3 * u) / (
                mpmath.pi**1.5 * mpmath.gamma(s + w + u - 1) * mpmath.gamma(w + u - 0.5)
                * mpmath.gamma(u)))
        assert abs(sf.lipschitz_factor(s, w, u) - ref) <= 1e-13 * abs(ref)


def test_gamma3_and_lipschitz_factor_refuse_the_range_ends():
    with pytest.raises(DomainError, match="overflowed"):
        sf.gamma3(0, 0, 100)  # ~1e465
    with pytest.raises(DomainError, match="underflowed"):
        sf.lipschitz_factor(1, 60, 100)  # ~e^-885


def test_unsettled_sums_are_refused():
    # the integrand turns through 100 and 5000 radians per decay length 1/|Re c|,
    # more than a sum of 2^14 steps resolves
    for alpha, tau in ((8, 10 + 0.1j), (0.5, 50 + 0.01j)):
        with pytest.raises(QuadratureFailure):
            sf._decaying_power_integral(alpha, 2j * math.pi * tau)
    # besselK's integrand at nu = 4456.7i, x = 1 on its line [-5.78, 5.78]:
    # e^(4456.7 i t) is at its Nyquist step at the last halving, which still
    # moves the sum by ~1e-3 of its modulus
    t_max = 2.5 * math.asinh(5.0)
    with pytest.raises(QuadratureFailure, match="did not reach tolerance"):
        sf._trapezoid(lambda t: np.exp(4456.7j * t - 2.0 * np.sinh(0.5 * t) ** 2),
                      -t_max, t_max, 1e-12)


def test_besselk_refuses_orders_outside_its_range():
    # from |Im nu| ~ 50 coarse trapezoid levels alias e^(i Im nu t) and agree on
    # a wrong sum: K_{68.5i}(1) came out 0.276 against -4.3e-48
    for nu in (68.5j, 4456.7j, 10.5, -10.5 + 1j, 3 - 10.01j, complex("nan")):
        with pytest.raises(DomainError, match="outside"):
            sf.besselK(nu, 1.0)
    k = sf.besselK(10 + 10j, 1.0)  # the corner of the range is accepted
    assert abs(k - sf.besselK(10 - 10j, 1.0).conjugate()) <= 1e-14 * abs(k)
