"""Holomorphic branch functions h1, h2, h3 on the degree-3 Siegel space.

The three-exponent power function is p_{s,w,u}(Z) = exp(s h1 + w h2 + u h3)
with exp(h_j) = det Z_j (j-th leading corner).  The h_j are evaluated from
closed principal-log formulas; the split of h3 into two separate logs is
deliberate and must not be merged, because each argument individually avoids
the cut while their product need not.

All internals are numpy-vectorized over the six independent entries.  Each
principal log is polar, log|z| + i atan2(Im z, Re z), far cheaper than a
complex log.  On the Siegel space h3 = h2 + Log x with x = det Z / det Z_2,
Im x > 0, so p_{s,w,u}(Z) = p_{s,w+u,0}(Z) x^u: lattice sums take the first
factor from power_terms on a small grid (lipschitz.lattice_sum_lhs), and their
exponentials from real parts too (_polar_exp, ~5x cheaper than numpy's complex
exp), while power_terms keeps the complex exp and stays their oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BranchCutError, finite_exponents, require_finite

CUT_TOL = 1e-14

# anti-diagonal permutation, reverses coordinate order under congruence
W3 = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]])


@dataclass(frozen=True)
class BranchValue:
    h1: complex
    h2: complex
    h3: complex


def _plog(z):
    """Principal log raising BranchCutError within CUT_TOL (relative) of the
    cut (-inf, 0], z = 0 included."""
    z = np.asarray(z, dtype=complex)
    az = np.abs(z)
    if np.any((z.real <= 0.0) & (np.abs(z.imag) <= CUT_TOL * az)):
        raise BranchCutError("principal-log argument within %g of the cut" % CUT_TOL)
    out = np.empty(z.shape, dtype=complex)
    np.log(az, out=out.real)
    np.arctan2(z.imag, z.real, out=out.imag)
    return out


@np.errstate(over="ignore", invalid="ignore")  # an overflowing e^a is refused by the caller
def _polar_exp(a, b, out):
    """e^(a + ib) = e^a (1 - t^2 + 2it)/(1 + t^2), t = tan(b/2), into the complex out; a becomes
    e^a = |out|, b becomes sin b.  numpy's real exp and tan are SIMD (1.3, 2.8 ns a value on an
    AVX-512 Xeon), its complex exp, sin and cos scalar (48-58, 21, 23 ns); tan(double) is finite."""
    t = np.tan(np.multiply(b, 0.5, out=b), out=b)
    c = np.square(t)
    c += 1.0
    np.divide(2.0, c, out=c)  # 1 + cos b
    np.multiply(c, t, out=t)  # sin b
    c -= 1.0
    mod = np.exp(a, out=a)  # contiguous until here: only the last two write out's halves
    np.multiply(c, mod, out=out.real)
    np.multiply(t, mod, out=out.imag)
    return out


def _entries(z):
    z = np.asarray(z, dtype=complex)
    return z[0, 0], z[0, 1], z[0, 2], z[1, 1], z[1, 2], z[2, 2]


@np.errstate(divide="ignore", invalid="ignore")  # a zero pivot is a zero d1 or d2, refused
def _dets(tau1, z1, z2, tau2, z3, tau3):
    d2, r = tau1 * tau2 - z1 * z1, z1 / tau1
    # det Z = d2 x, x = tau3 - z2^2/tau1 - (z3 - r z2)^2/(tau2 - r z1) by pivots: at skewed
    # points the cofactor sum 2 z1 z2 z3 - tau1 z3^2 - tau2 z2^2 cancels, the pivots do not
    d3 = d2 * (tau3 - z2 * z2 / tau1 - (z3 - r * z2) ** 2 / (tau2 - r * z1))
    return tau1, d2, d3, z3 * z3 - tau2 * tau3


def _branch_arrays(tau1, z1, z2, tau2, z3, tau3):
    """h1, h2 and h3 = (Log q + 2 pi i) + Log(d3/q), the two parts of h3 apart:
    on an open grid all but Log(d3/q) live on small broadcast shapes."""
    d1, d2, d3, q = _dets(tau1, z1, z2, tau2, z3, tau3)
    h1 = _plog(d1)
    h2 = _plog(-d2) + 1j * np.pi
    return h1, h2, _plog(q) + 2j * np.pi, _plog(d3 * (1.0 / q))


def _branch_inverse_arrays(tau1, z1, z2, tau2, z3, tau3):
    d1, d2, d3, q = _dets(tau1, z1, z2, tau2, z3, tau3)
    h1 = _plog(q / d3)
    h2 = _plog(-tau3 / d3) + 1j * np.pi
    h3 = -_plog(d3 / q) - _plog(q) + 1j * np.pi
    return h1, h2, h3


def branch_h(z):
    """Branch values (h1, h2, h3) at a Siegel point; exp(h_j) = det Z_j."""
    h1, h2, h3q, h3r = _branch_arrays(*_entries(z))
    return BranchValue(complex(h1), complex(h2), complex(h3q + h3r))


def branch_h_inverse(z):
    """Branch values of -Z^(-1) from the explicit entry formulas."""
    h1, h2, h3 = _branch_inverse_arrays(*_entries(z))
    return BranchValue(complex(h1), complex(h2), complex(h3))


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value is refused instead
def _power(exponents, h):
    """exp(s h1 + w h2 + u h3); DomainError unless the value is finite."""
    s, w, u = exponents
    return complex(require_finite(np.exp(s * h.h1 + w * h.h2 + u * h.h3), "p_{s,w,u}"))


def power_p(exponents, z):
    """The power function p_{s,w,u}(Z) = exp(s h1 + w h2 + u h3)."""
    return _power(finite_exponents(*exponents), branch_h(z))


def power_p_at_inverse(exponents, z):
    """p_{s,w,u}(-Z^(-1)) without forming the inverse matrix."""
    return _power(finite_exponents(*exponents), branch_h_inverse(z))


def power_inversion_gap(exponents, z):
    """Relative gap in the inversion identity of the power function.

    p_{s1,s2,s3}(-Z^(-1)) equals exp(i pi (s1+2 s2+3 s3)) times
    p_{s2,s1,-s1-s2-s3}(Z[W]) with W the anti-diagonal permutation.
    """
    s1, s2, s3 = exponents
    lhs = power_p_at_inverse((s1, s2, s3), z)
    zw = W3 @ np.asarray(z, dtype=complex) @ W3
    rhs = np.exp(1j * np.pi * (s1 + 2 * s2 + 3 * s3)) * power_p((s2, s1, -s1 - s2 - s3), zw)
    return abs(lhs - rhs) / abs(lhs)


def _is_small_int(x):
    return abs(x.imag) == 0.0 and x.real == int(x.real) and abs(x.real) <= 64


def _ipow(base, n):
    """Integer power by squaring; exact branch-free power for n in Z."""
    if n == 0:
        return np.ones_like(base)
    invert = n < 0
    n = abs(n)
    result = None
    acc = base
    while n:
        if n & 1:
            result = acc if result is None else result * acc
        n >>= 1
        if n:
            acc = acc * acc
    return 1.0 / result if invert else result


def power_terms(exponents, tau1, z1, z2, tau2, z3, tau3):
    """Vectorized p_{s,w,u} over arrays of matrix entries.

    For integer exponents the branch functions drop out (exp(n h_j) is the
    algebraic n-th power of det Z_j), which avoids all transcendental calls
    in large lattice sums.
    """
    s, w, u = finite_exponents(*exponents)
    if all(_is_small_int(e) for e in (s, w, u)):
        d1, d2, d3, _ = _dets(tau1, z1, z2, tau2, z3, tau3)
        if np.any(d1 == 0) or np.any(d2 == 0) or np.any(d3 == 0):
            raise BranchCutError("zero corner determinant in power sum")
        return _ipow(d1, int(s.real)) * _ipow(d2, int(w.real)) * _ipow(d3, int(u.real))
    h1, h2, h3q, out = _branch_arrays(tau1, z1, z2, tau2, z3, tau3)
    # the exponent's small-shape part first; full size only u Log(d3/q), the add and exp
    out *= u
    out += s * h1 + w * h2 + u * h3q
    return np.exp(out, out=out)
