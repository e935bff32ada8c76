"""Scalar special functions and the degree-3 matrix gamma factor.

complex_gamma uses a 15-term Lanczos rational approximation with reflection;
complex_zeta uses Euler-Maclaurin with reflection for very negative real part.
Both are double precision (~1e-13 relative in the tested ranges) and are kept
dependency-free so the multiprecision oracle values frozen in the tests stay
an independent cross-check.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.integrate import quad

from .branch import power_p_at_inverse
from .errors import DomainError, PoleError, QuadratureFailure

# Lanczos g = 607/128, 15 coefficients (Godfrey's set).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

# Bernoulli numbers B_2 .. B_28 for the Euler-Maclaurin tail.
_BERNOULLI2 = (
    1.0 / 6,
    -1.0 / 30,
    1.0 / 42,
    -1.0 / 30,
    5.0 / 66,
    -691.0 / 2730,
    7.0 / 6,
    -3617.0 / 510,
    43867.0 / 798,
    -174611.0 / 330,
    854513.0 / 138,
    -236364091.0 / 2730,
    8553103.0 / 6,
    -23749461029.0 / 870,
)

POLE_TOL = 1e-12


def _near_nonpositive_int(z, tol=POLE_TOL):
    zr = round(z.real)
    return zr <= 0 and abs(z - zr) <= tol


def complex_gamma(z):
    """Euler gamma for complex argument (Lanczos + reflection)."""
    z = complex(z)
    if _near_nonpositive_int(z):
        raise PoleError("gamma pole at non-positive integer %s" % z)
    if z.real < 0.5:
        return math.pi / (np.sin(np.pi * z) * complex_gamma(1.0 - z))
    zz = z - 1.0
    acc = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += c / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    try:
        # log space: t^(zz + 1/2) alone overflows long before Gamma does
        val = math.sqrt(2.0 * math.pi) * cmath.exp((zz + 0.5) * cmath.log(t) - t) * acc
    except OverflowError as exc:
        raise DomainError("gamma overflows at %s" % z) from exc
    if not cmath.isfinite(val):
        raise DomainError("gamma overflows at %s" % z)
    return val


def complex_zeta(s):
    """Riemann zeta by Euler-Maclaurin, reflection for Re(s) < -1."""
    s = complex(s)
    if abs(s - 1.0) <= POLE_TOL:
        raise PoleError("zeta pole at s = 1")
    if s.real < -1.0:
        return (
            2.0**s
            * math.pi ** (s - 1.0)
            * np.sin(np.pi * s / 2.0)
            * complex_gamma(1.0 - s)
            * complex_zeta(1.0 - s)
        )
    n = max(24, int(0.8 * abs(s.imag)) + 16)
    terms = np.arange(1, n, dtype=float)
    value = np.sum(terms ** (-s))
    value += n ** (1.0 - s) / (s - 1.0) + 0.5 * n ** (-s)
    rising = s  # s (s+1) ... (s + 2j - 2)
    fact = 2.0  # (2j)!
    npow = float(n)  # n^(2j - 1)
    for j, b in enumerate(_BERNOULLI2, start=1):
        value += b / fact * rising * n ** (-s) / npow
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        fact *= (2 * j + 1) * (2 * j + 2)
        npow *= float(n) * float(n)
    return complex(value)


def xi2(s):
    """Completed zeta combination pi^(-s) Gamma(s) zeta(2s)."""
    s = complex(s)
    if abs(s) <= POLE_TOL or abs(s - 0.5) <= POLE_TOL:
        raise PoleError("xi2 pole at s = %s" % s)
    return math.pi ** (-s) * complex_gamma(s) * complex_zeta(2.0 * s)


def phi(s):
    """Quartic s(1-s)(s-1/2)(1/2-s); kills the xi2 poles, phi(s) == phi(1-s)."""
    return s * (1 - s) * (s - 0.5) * (0.5 - s)


def gamma3(s, w, u):
    """Degree-3 matrix gamma factor in closed form.

    pi^(3/2) exp(i pi (s+2w+3u)/2) Gamma(s+w+u) Gamma(w+u-1/2) Gamma(u-1).
    """
    s, w, u = complex(s), complex(w), complex(u)
    sigma = s + 2 * w + 3 * u
    return (
        math.pi**1.5
        * np.exp(0.5j * np.pi * sigma)
        * complex_gamma(s + w + u)
        * complex_gamma(w + u - 0.5)
        * complex_gamma(u - 1.0)
    )


def _decaying_power_integral(alpha, c, epsrel=1e-11, limit=400):
    """Adaptive quadrature of int_0^inf r^alpha exp(c r) dr with Re(c) < 0."""
    alpha = complex(alpha)
    c = complex(c)
    decay = -c.real
    if decay <= 0:
        raise DomainError("integrand does not decay")
    upper = 45.0 / decay
    a_re = max(alpha.real, 0.0)
    # push the cutoff out until the envelope is negligible vs the peak
    peak = (a_re / decay if a_re > 0 else 1.0 / decay)
    envelope_peak = a_re * math.log(max(peak, 1e-300)) - decay * peak
    while a_re * math.log(upper) - decay * upper > envelope_peak - 46.0:
        upper *= 2.0
    scale = math.exp(math.lgamma(a_re + 1.0)) / decay ** (a_re + 1.0)

    def f(r):
        return r**alpha * np.exp(c * r)

    value, err = quad(f, 0.0, upper, complex_func=True, limit=limit,
                      epsabs=1e-13 * scale, epsrel=epsrel)
    err_total = abs(err)
    if not np.isfinite(value) or err_total > 1e-7 * max(abs(value), scale * 1e-4):
        raise QuadratureFailure(
            "integral did not reach tolerance (err=%g, |I|=%g)" % (err_total, abs(value))
        )
    return value


def cone_integral_gap(exponents, z, epsrel=1e-11):
    """Relative gap between the cone integral of the power function and its
    closed form.

    The left side integrates p_{s,w,u}(iY) e(YZ) over the positive cone by the
    Cholesky factorization: inner Gaussians in closed form, three outer 1-d
    integrals by adaptive quadrature (in the r = t^2 variable).  The right
    side is (2 pi i)^(-s-2w-3u) Gamma3(s,w,u) p_{s,w,u}(-Z^(-1)).
    """
    s, w, u = (complex(e) for e in exponents)
    if not (
        (s + w + u).real > 0 and (w + u).real > 0.5 and u.real > 1.0
    ):
        raise DomainError("outside the convergence region of the cone integral")
    z = np.asarray(z, dtype=complex)
    tau1, z1, z2 = z[0, 0], z[0, 1], z[0, 2]
    tau2, z3, tau3 = z[1, 1], z[1, 2], z[2, 2]

    beta6 = -2j * np.pi * tau3
    a6 = np.sqrt(np.pi / beta6)
    omega2 = tau2 - z3 * z3 / tau3
    beta4 = -2j * np.pi * omega2
    a4 = np.sqrt(np.pi / beta4)
    omega3 = tau1 - z2 * z2 / tau3 - (z1 - z2 * z3 / tau3) ** 2 / omega2

    l1 = 0.5 * _decaying_power_integral(u - 2.0, 2j * np.pi * tau3, epsrel)
    l2 = 0.5 * a6 * _decaying_power_integral(w + u - 1.5, 2j * np.pi * omega2, epsrel)
    l3 = 0.5 * a6 * a4 * _decaying_power_integral(s + w + u - 1.0, 2j * np.pi * omega3, epsrel)

    sigma = s + 2 * w + 3 * u
    lhs = 8.0 * np.exp(0.5j * np.pi * sigma) * l1 * l2 * l3
    rhs = (
        np.exp(-sigma * (math.log(2.0 * math.pi) + 0.5j * np.pi))
        * gamma3(s, w, u)
        * power_p_at_inverse((s, w, u), z)
    )
    return abs(lhs - rhs) / abs(rhs)


def besselK(nu, x, epsrel=1e-12):
    """Modified Bessel K_nu(x) for complex order and positive real argument.

    Evaluated as exp(-x) * int_0^inf exp(-x (cosh t - 1)) cosh(nu t) dt with
    an adaptive cutoff; intended range x >= 0.1, |nu| <= 10.
    """
    nu = complex(nu)
    x = float(x)
    if x <= 0:
        raise DomainError("besselK needs x > 0")
    t_max = 5.0
    for _ in range(60):
        if x * (math.cosh(t_max) - 1.0) - abs(nu.real) * t_max > 50.0:
            break
        t_max *= 1.25

    def f(t):
        return np.exp(-x * (np.cosh(t) - 1.0)) * np.cosh(nu * t)

    value, err = quad(f, 0.0, t_max, complex_func=True, limit=300,
                      epsabs=1e-15, epsrel=epsrel)
    if not np.isfinite(value):
        raise QuadratureFailure("Bessel integral diverged")
    return math.exp(-x) * complex(value)
