"""Scalar special functions, the degree-3 matrix gamma factor and its cone integral.

log_gamma is the one Gamma: a log of it from a 15-term Lanczos rational
approximation, reflected in logs, so each Gamma factor is one sum of logs
that _exp_in_range exponentiates once, or refuses outside the double range.
complex_zeta uses Euler-Maclaurin with reflection for very negative real part
(~1e-13 relative for |Im s| <= 50, ~1e-10 at its range end |Im s| = 1e4).
The cone integral's 1-d factors and besselK are trapezoid sums of integrands
that decay double exponentially (Takahasi-Mori), halved until they settle.
All of it needs numpy alone, so the multiprecision values the tests compare
with stay an independent check.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

from .branch import power_p_at_inverse
from .errors import DomainError, PoleError, QuadratureFailure, finite_exponents

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


def _sin_pi(z):
    """(a, b) with sin(pi z) = e^a b, |b| <= 2 and b = 0 exactly at the integers,
    neither overflowing: for Im z >= 0, a = -i pi r - log 2i and b = (-1)^n
    (e^(2 i pi r) - 1) with r = z - n, n the nearest integer; else conjugates."""
    n, c = round(z.real), z.imag < 0
    r = (z - n).conjugate() if c else z - n
    a = -1j * math.pi * r - complex(math.log(2.0), 0.5 * math.pi)
    b = (-1) ** n * (cmath.exp(2j * math.pi * r) - 1.0)
    return (a.conjugate(), b.conjugate()) if c else (a, b)


def log_gamma(z):
    """A log of Euler's Gamma(z) (Lanczos, reflection for Re z < 1/2, all in
    logs); its branch is free, since every caller exponentiates it."""
    (z,) = finite_exponents(z)
    if round(z.real) <= 0 and abs(z - round(z.real)) <= POLE_TOL:
        raise PoleError("gamma pole at non-positive integer %s" % z)
    if z.real < 0.5:
        a, b = _sin_pi(z)
        return math.log(math.pi) - a - cmath.log(b) - log_gamma(1.0 - z)
    zz = z - 1.0
    acc = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += c / (zz + i)
    # (zz + 1/2) log t - t, t = zz + g + 1/2, as one product: its ~|z| log|z| rounds once
    log_t1 = cmath.log(zz + _LANCZOS_G + 0.5) - 1.0
    return (zz + 0.5) * log_t1 + cmath.log(acc) + (0.5 * math.log(2.0 * math.pi) - _LANCZOS_G)


def complex_zeta(s):
    """Riemann zeta by Euler-Maclaurin, reflection for Re(s) < -1.  Range:
    |Im s| <= 1e4, refused outside before the sum of ~0.8 |Im s| terms is built."""
    (s,) = finite_exponents(s)
    if abs(s - 1.0) <= POLE_TOL:
        raise PoleError("zeta pole at s = 1")
    if abs(s.imag) > 1e4:
        raise DomainError("zeta argument %s is outside |Im s| <= 1e4" % s)
    if s.real < -1.0:
        # 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s), sin's zeros kept out of the log
        a, b = _sin_pi(0.5 * s)
        factor = _exp_in_range(s * math.log(2.0) + (s - 1.0) * math.log(math.pi) + a
                               + log_gamma(1.0 - s), "zeta's reflection factor")
        return factor * b * complex_zeta(1.0 - s)
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


def _log_gamma3(s, w, u):
    """log Gamma3 = (3/2) log pi + i pi sigma/2 + the log Gammas at (s+w+u, w+u-1/2,
    u-1), sigma = s + 2w + 3u."""
    s, w, u = finite_exponents(s, w, u)
    return (1.5 * math.log(math.pi) + 0.5j * math.pi * (s + 2 * w + 3 * u)
            + sum(map(log_gamma, (s + w + u, w + u - 0.5, u - 1.0))))


def _exp_in_range(log_value, what):
    """exp(log_value); DomainError outside the normal double range."""
    if not math.log(sys.float_info.min) <= log_value.real < math.log(sys.float_info.max):
        raise DomainError("%s e^(%.6g) %s the double range" % (
            what, log_value.real, "overflowed" if log_value.real > 0 else "underflowed"))
    return cmath.exp(log_value)


def gamma3(s, w, u):
    """Degree-3 matrix gamma factor in closed form, summed in logs:
    pi^(3/2) exp(i pi (s+2w+3u)/2) Gamma(s+w+u) Gamma(w+u-1/2) Gamma(u-1)."""
    return _exp_in_range(_log_gamma3(s, w, u), "Gamma3")


def lipschitz_factor(s, w, u):
    """The Gamma factor of the degree-3 Lipschitz formula, summed in logs:
    F = (2 pi)^sigma / Gamma3(s-1, w-1, u+1), sigma = s + 2w + 3u."""
    return _exp_in_range((s + 2 * w + 3 * u) * math.log(2.0 * math.pi)
                         - _log_gamma3(s - 1, w - 1, u + 1), "the Lipschitz factor")


def _trapezoid(f, lo, hi, epsrel):
    """h * sum_k f(lo + k h) for an f negligible at lo and hi, where the
    trapezoid rule converges double exponentially.  From 16 steps, h halves
    (at most 10 times; each level adds the new midpoints to the last sum) until
    a halving moves the sum by at most epsrel * max(|I|, 1e-4 L1), L1 the same
    sum of |f|; a last move above 1e-7 max(|I|, 1e-4 L1) is refused."""
    n, h = 16, (hi - lo) / 16
    y = f(lo + h * np.arange(n + 1))
    total, l1 = h * y.sum(), h * np.abs(y).sum()
    for _ in range(10):
        h, n = 0.5 * h, 2 * n
        y = f(lo + h * np.arange(1, n, 2))
        new, l1 = 0.5 * total + h * y.sum(), 0.5 * l1 + h * np.abs(y).sum()
        err, total = abs(new - total), new
        if err <= epsrel * max(abs(total), 1e-4 * l1):
            break
    if not (np.isfinite(total) and err <= 1e-7 * max(abs(total), 1e-4 * l1)):
        raise QuadratureFailure(
            "integral did not reach tolerance (err=%g, |I|=%g)" % (err, abs(total)))
    return complex(total)


def _decaying_power_integral(alpha, c):
    """int_0^inf r^alpha exp(c r) dr for Re(alpha) > -1 and Re(c) < 0, by the
    exp-sinh rule: with -Re(c) r = exp(x), x = pi/2 sinh t, the integrand
    exp((alpha+1) x + c/(-Re c) e^x) pi/2 cosh t decays double exponentially
    at both ends of the t line."""
    alpha, c = complex(alpha), complex(c)
    decay, a1 = -c.real, alpha + 1.0
    if decay <= 0 or a1.real <= 0:
        raise DomainError("integrand does not decay, or r^alpha is not integrable at 0")
    # |f| ~ rho^a e^-rho: e^-45 at lo, and e^-45 of its peak at hi, where (rho - a)^2 = 90 rho
    a = a1.real
    rho = a + 45.0 + math.sqrt(2025.0 + 90.0 * a)
    lo, hi = -math.asinh(90.0 / (math.pi * a)), math.asinh(2.0 * math.log(rho) / math.pi)

    def f(t):
        x = 0.5 * np.pi * np.sinh(t)
        return np.exp(a1 * x + c / decay * np.exp(x)) * (0.5 * np.pi * np.cosh(t))

    return _trapezoid(f, lo, hi, 1e-11) * cmath.exp(-a1 * math.log(decay))


def cone_integral_gap(exponents, z):
    """Relative gap between the cone integral of the power function and its
    closed form.

    The left side integrates p_{s,w,u}(iY) e(YZ) over the positive cone by the
    Cholesky factorization: inner Gaussians in closed form, and three outer
    1-d integrals int_0^inf r^alpha e^(2 pi i omega r) dr by the exp-sinh
    trapezoid rule of _decaying_power_integral.  The right side is
    (2 pi i)^(-s-2w-3u) Gamma3(s,w,u) p_{s,w,u}(-Z^(-1)).
    """
    s, w, u = finite_exponents(*exponents)
    if not ((s + w + u).real > 0 and (w + u).real > 0.5 and u.real > 1.0):
        raise DomainError("outside the convergence region of the cone integral")
    z = np.asarray(z, dtype=complex)
    tau1, z1, z2 = z[0, 0], z[0, 1], z[0, 2]
    tau2, z3, tau3 = z[1, 1], z[1, 2], z[2, 2]

    a6 = np.sqrt(np.pi / (-2j * np.pi * tau3))
    omega2 = tau2 - z3 * z3 / tau3
    a4 = np.sqrt(np.pi / (-2j * np.pi * omega2))
    omega3 = tau1 - z2 * z2 / tau3 - (z1 - z2 * z3 / tau3) ** 2 / omega2

    l1 = 0.5 * _decaying_power_integral(u - 2.0, 2j * np.pi * tau3)
    l2 = 0.5 * a6 * _decaying_power_integral(w + u - 1.5, 2j * np.pi * omega2)
    l3 = 0.5 * a6 * a4 * _decaying_power_integral(s + w + u - 1.0, 2j * np.pi * omega3)

    sigma = s + 2 * w + 3 * u
    lhs = 8.0 * np.exp(0.5j * np.pi * sigma) * l1 * l2 * l3
    rhs = (np.exp(-sigma * (math.log(2.0 * math.pi) + 0.5j * np.pi))
           * gamma3(s, w, u) * power_p_at_inverse((s, w, u), z))
    return abs(lhs - rhs) / abs(rhs)


def besselK(nu, x):
    """Modified Bessel K_nu(x) for complex order and positive real argument.

    K_nu(x) = 1/2 exp(-x) int exp(nu t - x (cosh t - 1)) dt over the real line,
    summed by the trapezoid rule (the integrand decays double exponentially)
    over [-T, T], past which it is below exp(-50).  Range: x >= 0.1 and
    |Re nu|, |Im nu| <= 10; an order outside is refused, because from
    |Im nu| ~ 50 coarse levels alias e^(i Im nu t) and agree on a wrong sum.
    """
    nu, x = complex(nu), float(x)
    if x <= 0:
        raise DomainError("besselK needs x > 0")
    if not (abs(nu.real) <= 10 and abs(nu.imag) <= 10):
        raise DomainError("besselK order %s is outside |Re nu|, |Im nu| <= 10" % nu)
    t_max = 2.0 * math.asinh(math.sqrt(25.0 / x))  # x (cosh t - 1) = 2x sinh(t/2)^2 = 50
    for _ in range(60):
        if 2.0 * x * math.sinh(0.5 * t_max) ** 2 - abs(nu.real) * t_max > 50.0:
            break
        t_max *= 1.25
    return 0.5 * math.exp(-x) * _trapezoid(
        lambda t: np.exp(nu * t - 2.0 * x * np.sinh(0.5 * t) ** 2), -t_max, t_max, 1e-12)
