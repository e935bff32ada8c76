"""Truncated Eisenstein-type series: flag sums, Epstein zeta, real-analytic
Eisenstein series and its Bessel-type Fourier tail.

The three-variable series over GL3 flags is computed from the derived
parametrization of the parabolic cosets: a coset corresponds to a pair
(v, n) of primitive integer vectors mod sign with v . n = 0, where v spans
the line and n is the normal of the plane of the flag; its term is

    (Y[v])^(-s) (adj(Y)[n])^(-w) (det Y)^(-u).

This formula is validated against brute-force coset enumeration in the test
suite before anything else trusts it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _intlinalg as il
from .errors import (MAX_WORK, DomainError, NotPositiveDefinite, PoleError, finite_bound,
                     finite_exponents, require_finite)
from .forms import (_CHUNK, HalfIntegralForm, _short_vectors, first_nonzero_positive,
                    short_vectors_gram)
from .matrices import is_positive_definite
from .specfun import _exp_in_range, besselK, complex_zeta, log_gamma


@dataclass(frozen=True)
class TruncationSpec:
    """Radii for the flag sum: caps on Y[v] and adj(Y)[n]."""

    q_bound: float = 30.0
    g_bound: float = 30.0


@dataclass(frozen=True)
class Flag:
    v: tuple
    n: tuple


@dataclass
class TruncatedValue:
    value: complex
    terms_used: int
    tail_estimate: float | None = None
    warnings: list = field(default_factory=list)


def _primitive_mod_sign(gram, bound):
    """The rows of the short-vector ball gram[v] <= bound (a record array of
    q = gram[v] and v) whose v is primitive with its first nonzero entry
    positive, one per primitive vector mod sign, sorted by v."""
    ball = short_vectors_gram(gram, bound)
    ball = ball[(np.gcd.reduce(ball["v"], axis=1) == 1) & first_nonzero_positive(ball["v"])]
    return ball[np.lexsort(ball["v"].T[::-1])]


def _flag_vectors(y: HalfIntegralForm, spec: TruncationSpec):
    """Lines v with Y[v] <= q_bound and plane normals n with adj(Y)[n] <= g_bound,
    as _primitive_mod_sign records of (2Y)[v] and adj(2Y)[n] = 4 adj(Y)[n].  Half
    the counted leaves of a ball bound its primitive vectors mod sign; above
    MAX_WORK pairs by that bound, the product is refused before a ball is built."""
    g2 = y.gram2()
    balls = (g2, 2 * finite_bound(spec.q_bound)), (il.adj3(g2), 4 * finite_bound(spec.g_bound))
    lv, ln = (_short_vectors(g, bound, count=True) // 2 for g, bound in balls)
    if lv * ln > MAX_WORK:
        raise DomainError("up to %d x %d flag candidates, above %d" % (lv, ln, MAX_WORK))
    return tuple(_primitive_mod_sign(g, bound) for g, bound in balls)


def _orthogonal_blocks(vs, ns):
    """(start, mask) per block of rows of vs, with mask[i, j] true when
    vs[start + i] . ns[j] == 0; a block holds about _CHUNK mask entries (at
    least one row).  Above MAX_WORK candidate pairs the product is refused."""
    v, n = vs["v"], ns["v"]
    if len(v) * len(n) > MAX_WORK:
        raise DomainError("%d x %d flag candidates, above %d" % (len(v), len(n), MAX_WORK))
    if 3 * int(abs(v).max(initial=0)) * int(abs(n).max(initial=0)) >= 1 << 63:
        v, n = v.astype(object), n.astype(object)  # exact dot products
    step = max(1, _CHUNK // max(1, len(n)))
    for start in range(0, len(v), step):
        yield start, v[start:start + step] @ n.T == 0


def enumerate_flags(y: HalfIntegralForm, spec: TruncationSpec):
    """All flags with Y[v] <= q_bound and adj(Y)[n] <= g_bound, each once."""
    vs, ns = _flag_vectors(y, spec)
    flags = []
    for start, mask in _orthogonal_blocks(vs, ns):
        i, j = np.nonzero(mask)
        flags += map(Flag, map(tuple, vs["v"][start + i].tolist()), map(tuple, ns["v"][j].tolist()))
    return flags


@np.errstate(over="ignore", invalid="ignore")  # a non-finite sum is refused instead
def selberg_E(y: HalfIntegralForm, exponents, spec: TruncationSpec):
    """Truncated three-variable Eisenstein series over the flag cosets.

    Returns the term-wise value (det Y)^(-u) * sum (Y[v])^(-s) (adjY[n])^(-w);
    outside the absolute-convergence region Re(s) > 1, Re(w) > 1 the result is
    still the truncated sum but carries a warning flag.  A truncation with no
    flag, or a sum that overflows, raises DomainError.
    """
    s, w, u = finite_exponents(*exponents)
    vs, ns = _flag_vectors(y, spec)
    pv, pn = np.exp(-s * np.log(vs["q"] / 2.0)), np.exp(-w * np.log(ns["q"] / 4.0))
    total, terms = 0.0 + 0.0j, 0
    for start, mask in _orthogonal_blocks(vs, ns):
        # one left-to-right sum in (v, n) order, whatever the row blocks
        i, j = np.nonzero(mask)
        total = np.cumsum(np.append(total, pv[start + i] * pn[j]))[-1]
        terms += len(i)
    if not terms:
        raise DomainError("empty truncation: no flag with Y[v] <= %s and adj(Y)[n] <= %s"
                          % (spec.q_bound, spec.g_bound))
    dety = float(y.det())
    value = complex(require_finite(np.exp(-u * math.log(dety)) * total, "the flag sum"))
    warnings = []
    if not (s.real > 1 and w.real > 1):
        warnings.append("outside absolute-convergence region Re(s),Re(w) > 1")
    return TruncatedValue(value=value, terms_used=terms, warnings=warnings)


def _form_values_in_ball(y, bound):
    """Values Y[v] for all integer v != 0 with Y[v] <= bound, sorted ascending.

    Vectorized box enumeration in float arithmetic, exact for integer Y while
    the values stay below 2^53, so matched-truncation comparisons are exact.
    Works for 2x2 and 3x3 input; a box of more than MAX_WORK points is refused
    before it is built.
    """
    yf = np.asarray(y, dtype=float)
    n = yf.shape[0]
    inv_diag = np.diag(np.linalg.inv(yf))
    radii = np.floor(np.sqrt(np.abs(inv_diag) * float(bound)) + 1e-9) + 1
    if math.prod((2 * radii + 1).tolist()) > MAX_WORK:
        raise DomainError("more than %d grid points for the ball Y[v] <= %g" % (MAX_WORK, bound))
    axes = [np.arange(-r, r + 1) for r in radii.astype(int)]
    grids = np.meshgrid(*axes, indexing="ij")
    flat = np.stack([g.ravel() for g in grids])
    vals = np.zeros(flat.shape[1])
    for i in range(n):
        for j in range(n):
            vals += yf[i, j] * flat[i] * flat[j]
    nonzero = np.any(flat != 0, axis=0)
    keep = nonzero & (vals <= bound)
    out = np.sort(vals[keep])
    return out


@np.errstate(over="ignore", invalid="ignore")  # a non-finite sum is refused instead
def epstein(y, s, bound):
    """Truncated Epstein zeta: (1/2) sum over 0 != v, Y[v] <= bound, of Y[v]^(-s).

    Accepts a 2x2 or 3x3 positive-definite Y, and refuses any other before a
    ball is built.  Terms are accumulated in ascending order of the form value,
    so two evaluations over term-wise bijective index sets produce identical
    floating sums.  A ball with no vector or a sum that overflows raises
    DomainError.
    """
    (s,) = finite_exponents(s)
    arr = np.asarray(y)
    if arr.shape not in ((2, 2), (3, 3)) or not is_positive_definite(arr):
        raise NotPositiveDefinite("Y is not positive-definite, or not 2x2 or 3x3")
    n = arr.shape[0]
    vals = _form_values_in_ball(arr, bound)
    if not vals.size:
        raise DomainError("empty truncation: no vector v != 0 with Y[v] <= %g" % (bound,))
    value = require_finite(0.5 * np.sum(np.exp(-s * np.log(vals))), "the Epstein sum")
    det = float(np.linalg.det(arr.astype(float)))
    lam_max = float(np.max(np.linalg.eigvalsh(arr.astype(float))))
    sigma = s.real
    cn = math.pi if n == 2 else 4.0 * math.pi / 3.0
    if sigma > n / 2:
        # integral comparison with the radius pulled in by one cell diameter,
        # which absorbs the lattice-vs-area boundary error
        b_eff = max(float(bound) - 4.0 * math.sqrt(lam_max * float(bound)), 1.0)
        tail = (cn * (n / 2.0) / (2.0 * math.sqrt(det))
                * b_eff ** (n / 2.0 - sigma) / (sigma - n / 2.0))
    else:
        tail = math.inf
    return TruncatedValue(value=complex(value), terms_used=int(vals.size), tail_estimate=tail)


def w_tau(tau):
    """The determinant-1 binary form identified with a point of the upper
    half-plane: tau = sigma + i t maps to [[1/t, -sigma/t], [-sigma/t,
    (sigma^2 + t^2)/t]]."""
    tau = complex(tau)
    sigma, t = tau.real, tau.imag
    if t <= 0:
        raise DomainError("not an upper half-plane point")
    return np.array([[1.0 / t, -sigma / t], [-sigma / t, (sigma * sigma + t * t) / t]])


def real_analytic_E(tau, s, bound):
    """Real-analytic Eisenstein series via the Epstein zeta of W_tau."""
    (s,) = finite_exponents(s)
    zeta2s = complex_zeta(2 * s)
    if abs(zeta2s) < 1e-12:
        raise PoleError("zeta(2s) vanishes; cannot divide")
    z = epstein(w_tau(tau), s, bound)
    return TruncatedValue(value=z.value / zeta2s, terms_used=z.terms_used,
                          tail_estimate=z.tail_estimate / abs(zeta2s))


def zeta_Z2(s, tau, bound):
    """Truncated direct sum over (a, c) != 0 of |a + c tau|^(-2s): twice the
    Epstein zeta of the binary form |a + c tau|^2, tail estimate included."""
    tau = complex(tau)
    sigma, t = tau.real, tau.imag
    if t <= 0:
        raise DomainError("not an upper half-plane point")
    z = epstein(np.array([[1.0, sigma], [sigma, sigma * sigma + t * t]]), s, bound)
    return TruncatedValue(value=2 * z.value, terms_used=z.terms_used,
                          tail_estimate=2 * z.tail_estimate)


def _divisor_power_sum(n, a):
    """sigma_a(n) = sum over divisors d of n of d^a (complex exponent)."""
    total = 0.0 + 0.0j
    for d in range(1, n + 1):
        if n % d == 0:
            total += np.exp(complex(a) * math.log(d))
    return total


def zeta_Z2_star(s, tau):
    """Exponentially small Fourier tail of the real-analytic Eisenstein sum.

    Computed by the K-Bessel expansion

        (4 pi^s / Gamma(s)) t^(1/2-s) sum_{n>=1} n^(s-1/2) sigma_{1-2s}(n)
                                       K_{s-1/2}(2 pi n t) cos(2 pi n sigma),

    truncated once the Bessel envelope exp(-2 pi n t) drops below 1e-16.
    Validated against the direct-sum decomposition in the test suite for
    Re(s) > 1.
    """
    (s,), tau = finite_exponents(s), complex(tau)
    sigma, t = tau.real, tau.imag
    if t < 0.1:
        raise DomainError("Bessel expansion wants Im(tau) >= 0.1")
    n_max = max(1, int(math.ceil(-math.log(1e-16) / (2 * math.pi * t))) + 3)
    total = sum(np.exp((s - 0.5) * math.log(n)) * _divisor_power_sum(n, 1 - 2 * s)
                * besselK(s - 0.5, 2 * math.pi * n * t) * math.cos(2 * math.pi * n * sigma)
                for n in range(1, n_max + 1))
    pref = _exp_in_range(math.log(4.0) + s * math.log(math.pi) + (0.5 - s) * math.log(t)
                         - log_gamma(s), "the Bessel tail's factor 4 pi^s t^(1/2-s) / Gamma(s)")
    return TruncatedValue(value=complex(pref * total), terms_used=n_max)


def zeta_Z2_decomposition(s, tau, bound):
    """Direct truncated sum vs the three-piece decomposition; diagnostics.

    Returns (direct, reconstructed, residual) where reconstructed is
    2 zeta(2s) + main polynomial term + 2 * zeta_Z2_star and residual is the
    relative difference against the direct sum, completed by its integral
    tail (pi/t) B^(1-s)/(s-1) so that only the boundary fluctuation is left.
    """
    (s,), t = finite_exponents(s), complex(tau).imag
    star = zeta_Z2_star(s, tau)  # first: its Bessel order range is the narrowest
    # then the main term, whose zeta(2s-1) refuses the pole s = 1 of the tail below
    main = 2.0 * math.sqrt(math.pi) * complex_zeta(2 * s - 1) * _exp_in_range(
        log_gamma(s - 0.5) - log_gamma(s) + (1 - 2 * s) * math.log(t),
        "the main term's Gamma(s-1/2) t^(1-2s) / Gamma(s)")
    direct = zeta_Z2(s, tau, bound)
    direct_value = direct.value + (math.pi / t) * np.exp((1 - s) * math.log(bound)) / (s - 1)
    recon = 2.0 * complex_zeta(2 * s) + main + 2.0 * star.value
    residual = abs(direct_value - recon) / abs(direct_value)
    return direct, complex(recon), residual
