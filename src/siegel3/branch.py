"""Holomorphic branch functions h1, h2, h3 on the degree-3 Siegel space.

The three-exponent power function is p_{s,w,u}(Z) = exp(s h1 + w h2 + u h3)
with exp(h_j) = det Z_j (j-th leading corner).  The h_j are evaluated from
closed principal-log formulas; the split of h3 into two separate logs is
deliberate and must not be merged, because each argument individually avoids
the cut while their product need not.

All internals are numpy-vectorized over the six independent entries.  Each
principal log is polar, log|z| + i atan2(Im z, Re z), far cheaper than a
complex log; with the exponent's parts on the small shapes of an open grid
summed first, power_terms costs one polar log and one exp per lattice term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BranchCutError, DomainError

CUT_TOL = 1e-14

# anti-diagonal permutation, reverses coordinate order under congruence
W3 = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]])


@dataclass(frozen=True)
class BranchValue:
    h1: complex
    h2: complex
    h3: complex


def _plog(z, cut_tol=CUT_TOL):
    """Principal log raising BranchCutError near the cut (-inf, 0] (z = 0 included)."""
    z = np.asarray(z, dtype=complex)
    az = np.abs(z)
    if np.any((z.real <= 0.0) & (np.abs(z.imag) <= cut_tol * az)):
        raise BranchCutError("principal-log argument within %g of the cut" % cut_tol)
    out = np.empty(z.shape, dtype=complex)
    np.log(az, out=out.real)
    np.arctan2(z.imag, z.real, out=out.imag)
    return out


def _entries(z):
    z = np.asarray(z, dtype=complex)
    return z[0, 0], z[0, 1], z[0, 2], z[1, 1], z[1, 2], z[2, 2]


def _dets(tau1, z1, z2, tau2, z3, tau3):
    d2 = tau1 * tau2 - z1 * z1
    # cofactor expansion along the last column: tau3 enters once
    d3 = d2 * tau3 + (2.0 * z1 * z2 * z3 - tau1 * z3 * z3 - tau2 * z2 * z2)
    return tau1, d2, d3, z3 * z3 - tau2 * tau3


def _branch_arrays(tau1, z1, z2, tau2, z3, tau3, cut_tol=CUT_TOL):
    """h1, h2 and h3 = (Log q + 2 pi i) + Log(d3/q), the two parts of h3 apart:
    on an open grid all but Log(d3/q) live on small broadcast shapes."""
    d1, d2, d3, q = _dets(tau1, z1, z2, tau2, z3, tau3)
    h1 = _plog(d1, cut_tol)
    h2 = _plog(-d2, cut_tol) + 1j * np.pi
    return h1, h2, _plog(q, cut_tol) + 2j * np.pi, _plog(d3 * (1.0 / q), cut_tol)


def _branch_inverse_arrays(tau1, z1, z2, tau2, z3, tau3, cut_tol=CUT_TOL):
    d1, d2, d3, q = _dets(tau1, z1, z2, tau2, z3, tau3)
    h1 = _plog(q / d3, cut_tol)
    h2 = _plog(-tau3 / d3, cut_tol) + 1j * np.pi
    h3 = -_plog(d3 / q, cut_tol) - _plog(q, cut_tol) + 1j * np.pi
    return h1, h2, h3


def branch_h(z, cut_tol=CUT_TOL):
    """Branch values (h1, h2, h3) at a Siegel point; exp(h_j) = det Z_j."""
    h1, h2, h3q, h3r = _branch_arrays(*_entries(z), cut_tol=cut_tol)
    return BranchValue(complex(h1), complex(h2), complex(h3q + h3r))


def branch_h_inverse(z, cut_tol=CUT_TOL):
    """Branch values of -Z^(-1) from the explicit entry formulas."""
    h1, h2, h3 = _branch_inverse_arrays(*_entries(z), cut_tol=cut_tol)
    return BranchValue(complex(h1), complex(h2), complex(h3))


def _finite_exponents(exponents):
    """The exponents (s, w, u) as complex numbers; DomainError unless all are finite."""
    s, w, u = (complex(e) for e in exponents)
    if not all(np.isfinite((s, w, u))):
        raise DomainError("exponents must be finite, got %r" % (tuple(exponents),))
    return s, w, u


def _power(exponents, h):
    """exp(s h1 + w h2 + u h3); DomainError unless the value is finite."""
    s, w, u = exponents
    with np.errstate(all="ignore"):
        value = complex(np.exp(s * h.h1 + w * h.h2 + u * h.h3))
    if not np.isfinite(value):
        raise DomainError("p_{s,w,u} is not finite at exponents %r" % (exponents,))
    return value


def power_p(exponents, z, cut_tol=CUT_TOL):
    """The power function p_{s,w,u}(Z) = exp(s h1 + w h2 + u h3)."""
    return _power(_finite_exponents(exponents), branch_h(z, cut_tol))


def power_p_at_inverse(exponents, z, cut_tol=CUT_TOL):
    """p_{s,w,u}(-Z^(-1)) without forming the inverse matrix."""
    return _power(_finite_exponents(exponents), branch_h_inverse(z, cut_tol))


def power_inversion_gap(exponents, z, cut_tol=CUT_TOL):
    """Relative gap in the inversion identity of the power function.

    p_{s1,s2,s3}(-Z^(-1)) equals exp(i pi (s1+2 s2+3 s3)) times
    p_{s2,s1,-s1-s2-s3}(Z[W]) with W the anti-diagonal permutation.
    """
    s1, s2, s3 = exponents
    lhs = power_p_at_inverse((s1, s2, s3), z, cut_tol)
    zw = W3 @ np.asarray(z, dtype=complex) @ W3
    rhs = np.exp(1j * np.pi * (s1 + 2 * s2 + 3 * s3)) * power_p(
        (s2, s1, -s1 - s2 - s3), zw, cut_tol
    )
    return abs(lhs - rhs) / abs(lhs)


def _is_small_int(x, limit=64):
    return abs(x.imag) == 0.0 and x.real == int(x.real) and abs(x.real) <= limit


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


def power_terms(exponents, tau1, z1, z2, tau2, z3, tau3, cut_tol=CUT_TOL):
    """Vectorized p_{s,w,u} over arrays of matrix entries.

    For integer exponents the branch functions drop out (exp(n h_j) is the
    algebraic n-th power of det Z_j), which avoids all transcendental calls
    in large lattice sums.
    """
    s, w, u = _finite_exponents(exponents)
    if all(_is_small_int(e) for e in (s, w, u)):
        d1, d2, d3, _ = _dets(tau1, z1, z2, tau2, z3, tau3)
        if np.any(d1 == 0) or np.any(d2 == 0) or np.any(d3 == 0):
            raise BranchCutError("zero corner determinant in power sum")
        return _ipow(d1, int(s.real)) * _ipow(d2, int(w.real)) * _ipow(d3, int(u.real))
    h1, h2, h3q, out = _branch_arrays(tau1, z1, z2, tau2, z3, tau3, cut_tol)
    # the exponent's small-shape part first; full size only u Log(d3/q), the add and exp
    out *= u
    out += s * h1 + w * h2 + u * h3q
    return np.exp(out, out=out)
