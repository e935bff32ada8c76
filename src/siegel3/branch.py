"""Holomorphic branch functions h1, h2, h3 on the degree-3 Siegel space.

The three-exponent power function is p_{s,w,u}(Z) = exp(s h1 + w h2 + u h3)
with exp(h_j) = det Z_j (j-th leading corner).  With the LDL pivots p_j of Z,
det Z_j = p_1...p_j, the branches are h_j = h_(j-1) + Log p_j (h_0 = 0): each
Schur complement of a Siegel matrix is again Siegel, so every pivot lies in
the upper half-plane and each partial sum is a continuous log of det Z_j on the
connected H3 that agrees with the principal branch at iI.  Hence
p_{s,w,u}(Z) = p_1^(s+w+u) p_2^(w+u) p_3^u, for every exponent one exp of the logs.

All internals are numpy-vectorized over the six independent entries.  Each
principal log is polar, log|z| + i atan2(Im z, Re z), far cheaper than a
complex log.  Lattice sums take p_{s,w+u,0} from power_terms on a small grid
and p_3^u on the full one (lipschitz.lattice_sum_lhs) from real parts
(_polar_exp, ~5x cheaper than numpy's complex exp); power_terms keeps the
complex exp and stays their oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import BranchCutError, DomainError, finite_exponents, require_finite
from .matrices import siegel_point

CUT_TOL = 1e-14


def _plog(z):
    """Principal log of a pivot, raising BranchCutError unless Im z > 0 and z is
    farther than CUT_TOL (relative) from the cut (-inf, 0]."""
    z = np.asarray(z, dtype=complex)
    az = np.abs(z)
    if not ((z.imag > 0.0) & ((z.real > 0.0) | (z.imag > CUT_TOL * az))).all():
        raise BranchCutError("pivot off the upper half-plane or within %g of the cut" % CUT_TOL)
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
    return z[0, 0], z[0, 1], z[0, 2], z[1, 1], z[1, 2], z[2, 2]


@np.errstate(divide="ignore", invalid="ignore")  # a zero pivot gives a non-finite one, refused
def _pivots(tau1, z1, z2, tau2, z3, tau3):
    """The LDL pivots (p1, p2, p3) of Z, det Z_j = p1...pj; at skewed points the cofactor
    sum of det Z cancels, the pivots do not.  Z[W] (W anti-diagonal) is Z[::-1, ::-1]."""
    r = z1 / tau1
    p2 = tau2 - r * z1
    p3 = np.square(z3 - r * z2) * (-1.0 / p2)  # no full-size division on the slow side's blocks
    in_place = np.ndim(p3) and not np.ndim(tau3)  # tau3 a scalar there: no second full-size array
    return tau1, p2, np.add(p3, tau3 - z2 * z2 / tau1, out=p3 if in_place else None)


def _inverse_pivots(tau1, z1, z2, tau2, z3, tau3):
    """The pivots of -Z^(-1) at a Siegel point from Jacobi's complementary minors:
    det(-Z^(-1))_j is q/det Z, tau3/det Z and -1/det Z, with q = z3^2 - tau2 tau3."""
    p1, p2, p3 = _pivots(tau1, z1, z2, tau2, z3, tau3)
    q = z3 * z3 - tau2 * tau3
    return q / (p1 * p2 * p3), tau3 / q, -1.0 / tau3


def _logs(pivots):
    """(h1, h2, h3), h_j = h_(j-1) + Log p_j."""
    h1, l2, l3 = map(_plog, pivots)
    h2 = h1 + l2
    return h1, h2, h2 + l3


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value is refused
def _power(exponents, pivots):
    """p_{s,w,u} = exp(s h1 + w h2 + u h3) from the pivots, for integer exponents as for any
    other; DomainError unless every value is finite."""
    s, w, u = exponents
    h1, h2, h3 = _logs(pivots)
    out = np.exp(s * h1 + w * h2 + u * h3)
    bad = ~np.isfinite(out)
    if bad.any():
        require_finite(out[bad][0], "p_{s,w,u}")
    return out


def power_p(exponents, z):
    """The power function p_{s,w,u}(Z) = exp(s h1 + w h2 + u h3) at a Siegel point."""
    return complex(_power(finite_exponents(*exponents), _pivots(*_entries(siegel_point(z)))))


def power_p_at_inverse(exponents, z):
    """p_{s,w,u}(-Z^(-1)) at a Siegel point, without forming the inverse matrix."""
    exponents, z = finite_exponents(*exponents), siegel_point(z)
    return complex(_power(exponents, _inverse_pivots(*_entries(z))))


def power_inversion_gap(exponents, z):
    """Relative gap in the inversion identity of the power function.

    p_{s1,s2,s3}(-Z^(-1)) equals exp(i pi (s1+2 s2+3 s3)) times
    p_{s2,s1,-s1-s2-s3}(Z[W]) with W the anti-diagonal permutation.  A left
    side that underflows to 0 leaves no relative gap and is refused.
    """
    s1, s2, s3 = finite_exponents(*exponents)
    z = siegel_point(z)
    lhs = complex(_power((s1, s2, s3), _inverse_pivots(*_entries(z))))
    if lhs == 0:
        raise DomainError("p_{s,w,u}(-Z^(-1)) underflowed to 0: no relative gap")
    phase = np.exp(1j * np.pi * (s1 + 2 * s2 + 3 * s3))
    rhs = phase * _power((s2, s1, -s1 - s2 - s3), _pivots(*_entries(z[::-1, ::-1])))
    return abs(lhs - rhs) / abs(lhs)


def power_terms(exponents, tau1, z1, z2, tau2, z3, tau3):
    """Vectorized p_{s,w,u} over arrays (or an open grid) of matrix entries: one exp of
    s h1 + w h2 + u h3 per point, integer exponents included."""
    return _power(finite_exponents(*exponents), _pivots(tau1, z1, z2, tau2, z3, tau3))
