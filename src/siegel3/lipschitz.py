"""Both sides of the lattice summation identity for the power function.

The slow side sums p_{-s,-w,-u}(Z + B) over the integer symmetric lattice
(entries boxed by max_abs, the (3,3) direction optionally summed exactly) as
p_{-s,-w-u,0}(Z + B) (x + f)^(-u), x = det(Z+B)/det(Z+B)_2 (lattice_sum_lhs);
the fast side is a prefactored sum over positive-definite half-integral T of
p_{-w,-s,s+w+u-2}(i W T W) e(T Z), which converges exponentially, in closed
form: the minors of i W T W are i t3, -m2 and -i det T, and the phase of p
cancels the prefactor's (fourier_side_rhs).  Reports carry both truncations
and a relative gap.  Every full-size complex exponential of both sides is one
polar exp from real parts (branch._polar_exp).  Both sides refuse a Z outside
the Siegel space, and a truncation whose work exceeds MAX_WORK before they
allocate anything.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .branch import _pivots, _polar_exp, power_terms
from .errors import MAX_WORK, DomainError, PoleError, finite_exponents, require_finite
from .forms import _CHUNK, _diagonal_runs, enumerate_J
from .matrices import siegel_point
from .specfun import POLE_TOL, _exp_in_range, lipschitz_factor, log_gamma

# MAX_WORK is far above max_abs 9 (4.7e7 terms) and trace bound 13 (4.5e5
# candidates), the largest in use; _CHUNK terms make 2 MB complex arrays.
# Largest u for the exact f-direction sum, whose Eulerian polynomial loses
# digits as u grows; tested to 1e-12 relative against mpmath up to here.
EXACT_F_MAX_U = 16
# Entry (i, j) of Z that each box axis (a, b, c, d, e, f) shifts.
_AXES = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


@dataclass
class LipschitzReport:
    lhs: complex
    rhs: complex
    relative_gap: float
    lhs_terms: int
    rhs_terms: int
    max_abs: int
    trace_bound: int
    lhs_tail_estimate: float | None = None


@np.errstate(over="ignore", invalid="ignore")  # a non-finite sum is refused instead
def lattice_sum_lhs(exponents, z, max_abs, tail_correction=False):
    """sum over symmetric integer B with |entries| <= max_abs of
    p_{-s,-w,-u}(Z + B), for Z in the Siegel upper half-space.

    Returns (value, n_terms, tail_estimate), the estimate None when max_abs
    is 0.  As h3 = h2 + Log x on the Siegel space, with x = det(Z+B)/det(Z+B)_2
    = tau3 - (z2, z3) Z2^(-1) (z2, z3)^T in the upper half-plane, each term is
    p_{-s,-w-u,0}(Z + B) (x + f)^(-u): the prefactor lives on the (a, b, d)
    axes (one power_terms call), x on a..e, and f moves only Re x.  Each index
    of the leading axes gives one block, x on an open grid over the trailing
    a..e axes; the f-kernel is summed over f before the prefactor multiplies
    it, in a fixed order, each (x + f)^(-u) one polar exp.  With tail_correction
    and an integer u, 2 <= u <= EXACT_F_MAX_U, whatever s and w, f, where terms
    decay like f^(-u) alone, is summed exactly (_f_direction_sum): then n_terms
    counts the (2 max_abs + 1)^5 a..e terms and the tail estimate the a..e shell.
    """
    if max_abs < 0:
        raise DomainError("max_abs must be >= 0, got %r" % (max_abs,))
    s, w, u = finite_exponents(*exponents)
    exact_f = (tail_correction and not u.imag and u.real == int(u.real)
               and 2 <= u.real <= EXACT_F_MAX_U)
    n, axes = 2 * max_abs + 1, 5 if exact_f else 6
    if n**axes > MAX_WORK:
        raise DomainError("the lattice sum at max_abs %d needs %d terms, above the ceiling %d"
                          % (max_abs, n**axes, MAX_WORK))
    z = siegel_point(z)
    side = np.arange(-max_abs, max_abs + 1)
    lead = next(k for k in range(5) if n ** (axes - k) <= _CHUNK)
    # the entries of Z + B on the a..e axes: 1-d along the leading ones, an open grid after
    cols = [z[i, j] + side for i, j in _AXES[:5]]
    pref = power_terms((-s, -w - u, 0), *np.ix_(*cols[:2], [z[0, 2]], cols[3], [z[1, 2]]), z[2, 2])
    pref, pref_abs = (np.broadcast_to(p, (n,) * 5) for p in (pref, np.abs(pref)))
    cols[lead:] = np.ix_(*cols[lead:])
    on_edge = np.abs(side) == max_abs
    edge = sum(np.ix_(*[on_edge.astype(int)] * (5 - lead))) > 0
    coef = _f_coefficients(int(u.real)) if exact_f else None
    if not exact_f:  # a bare block: f leads the trailing a..e grid, so f-sums add slabs
        f_axis = side.astype(float).reshape((n,) + (1,) * (5 - lead))
        re, mag, arg = (np.empty((n,) * (6 - lead), dtype=t) for t in (float, float, complex))
    total, shell_sum = 0.0 + 0.0j, 0.0
    for idx in itertools.product(range(n), repeat=lead):
        tau1, z1, z2, tau2, z3 = [c[i] for c, i in zip(cols, idx)] + cols[lead:]
        x = _pivots(tau1, z1, z2, tau2, z3, z[2, 2])[2]
        if not (x.imag > 0.0).all():
            raise DomainError("Im det(Z+B)/det(Z+B)_2 <= 0: Z is too close to the boundary")
        if exact_f:
            sums = _f_direction_sum(x, coef)
            all_f, edge_f = np.abs(sums), 0.0
        else:  # -u Log(x + f) = A + iB from L = log|x + f|^2 and theta = Arg(x + f)
            np.add(f_axis, x.real, out=re)
            np.add(np.multiply(re, re, out=mag), x.imag * x.imag, out=mag)
            big_l, theta = np.log(mag, out=mag), np.arctan2(x.imag, re, out=re)
            if u.imag:  # A = -(u_r/2) L + u_i theta, B = -(u_i/2) L - u_r theta
                b = (-0.5 * u.imag) * big_l - u.real * theta
                big_l *= -0.5 * u.real
                big_l += u.imag * theta
            else:
                b = np.multiply(theta, -u.real, out=theta)
                big_l *= -0.5 * u.real
            terms = _polar_exp(big_l, b, arg)  # mag now holds e^A = |term|
            sums, all_f, edge_f = terms.sum(0), mag.sum(0), mag[0] + mag[-1]
        total += (pref[idx] * sums).sum()
        shell = all_f if on_edge[list(idx)].any() else np.where(edge, all_f, edge_f)
        shell_sum += float((pref_abs[idx] * shell).sum())
    require_finite(total, "the lattice sum")
    # crude integral-comparison estimate: boundary shell extrapolated by the
    # dominant polynomial decay; a one-term box has no shell to extrapolate
    p_eff = 2.0 * min(s.real, 2.0) + 1.0
    tail = shell_sum * max_abs / max(p_eff - 1.0, 1.0) if max_abs else None
    return complex(total), n**axes, tail


def _f_coefficients(u):
    """(-2 pi i)^u / (u-1)! A(u-1, k), k < u - 1, A the Eulerian numbers."""
    pref = (2.0 * math.pi) ** u / math.factorial(u - 1) * (1, -1j, -1, 1j)[u % 4]
    return [pref * sum((-1) ** j * math.comb(u, j) * (k + 1 - j) ** (u - 1) for j in range(k + 2))
            for k in range(u - 1)]


def _f_direction_sum(x, coef):
    """Sum over all integers f of (x + f)^(-u), integer u >= 2, Im x > 0, from
    coef = _f_coefficients(u): the one-variable summation formula gives
    (-2 pi i)^u / (u-1)! Li_{1-u}(q), q = e(x) = e^(-2 pi Im x) e^(2 pi i Re x), and
    Li_{1-u}(q) = q A_{u-1}(q) / (1-q)^u, A_m the Eulerian polynomial."""
    q = _polar_exp(x.imag * (-2.0 * np.pi), x.real * (2.0 * np.pi), np.empty_like(x))
    acc = coef[-1] * q
    for c in coef[-2::-1]:
        acc += c
        acc *= q
    power = np.subtract(1.0, q, out=q).copy()
    for _ in coef:  # (1-q)^u by products in place, then one division
        power *= q
    acc /= power
    return acc


def fourier_side_rhs(exponents, z, trace_bound):
    """Prefactor times sum over T (trace <= bound) of p_{-w,-s,s+w+u-2}(i W T W)
    e(tr(T Z)), in closed form: p = e^{i pi (sigma-6)/2} t3^(-w) m2^(-s) det(T)^(s+w+u-2)
    (m2 = t2 t3 - b23^2/4, sigma = s+2w+3u), whose phase cancels the prefactor's, and
    the sum is (1/8) F(s,w,u) sum_T t3^(-w) m2^(-s) det(T)^(s+w+u-2) e(tr(T Z)), F the
    Lipschitz factor: logs of m2 and det T from the exact int64 minors 4 m2 and 8 det T,
    the real exp(-2 pi tr(T Y)) and six gathers from tables of e(k x_ij), |k| <= trace_bound."""
    runs, candidates = _diagonal_runs(trace_bound, _CHUNK, MAX_WORK)
    if candidates > MAX_WORK:
        raise DomainError("the fast side at trace_bound %d tests more than %d candidate forms"
                          % (trace_bound, MAX_WORK))
    s, w, u = finite_exponents(*exponents)
    zk = siegel_point(z)[[0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]]  # tr(TZ) = key . zk
    powers = -w, -s, s + w + u - 2.0
    real = not any(e.imag for e in powers)  # then one real exp per form
    # The 1/8 is the coordinate covolume of the half-integral lattice in the
    # entry measure dx1..dx6 used by the Fourier transform (Poisson
    # normalization); without it the two sides differ by exactly 8.
    pref = 0.125 * lipschitz_factor(s, w, u)
    # e(k x_ij) at index k of each table; a negative k indexes from the end
    phase = np.exp(2j * np.pi * np.outer(zk.real, np.r_[0:trace_bound + 1, -trace_bound:0]))
    total, n_forms = 0.0 + 0.0j, 0
    for run in runs:
        t = enumerate_J(trace_bound, run)
        t1, t2, t3, b12, b13, b23 = keys = [t[name] for name in t.dtype.names]
        m4 = 4 * t2 * t3 - b23 * b23
        d8 = 2 * (t1 * m4 + b12 * b13 * b23 - t2 * b13 * b13 - t3 * b12 * b12)
        mod, arg = -2.0 * np.pi * sum(y * key for y, key in zip(zk.imag, keys)), 0.0
        for e, g, scale in zip(powers, (t3, m4, d8), (1.0, 0.25, 0.125)):  # exact m2, det T
            g = np.log(scale * g)
            mod += e.real * g
            arg = arg + e.imag * g if e.imag else arg
        del g  # one log alive at a time, none during the gathers
        terms = np.exp(mod, out=mod) if real else _polar_exp(mod, arg, np.empty(len(t), complex))
        for key, table in zip(keys, phase):
            terms = terms * table[key]
        total += terms.sum()
        n_forms += len(t)
    return complex(require_finite(pref * total, "the fast side")), n_forms


def lipschitz_report(exponents, z, max_abs, trace_bound, tail_correction=False):
    # the cheap fast side first: a slow side refused by its work ceiling wastes little
    rhs, nr = fourier_side_rhs(exponents, z, trace_bound)
    lhs, nl, tail = lattice_sum_lhs(exponents, z, max_abs, tail_correction)
    gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return LipschitzReport(lhs, rhs, gap, nl, nr, max_abs, trace_bound, tail)


def _blocks(first, last):
    """The integers first..last as arrays of at most _CHUNK."""
    return (np.arange(a, min(a + _CHUNK, last + 1)) for a in range(first, last + 1, _CHUNK))


@np.errstate(over="ignore", invalid="ignore")  # a non-finite side is refused instead
def classical_lipschitz(tau, s, n_bound):
    """Classical one-variable summation formula, both sides truncated.

    lhs = sum over |n| <= N of (tau + n)^(-s) plus its midpoint-rule integral
    tails on both ends, which always run,
    rhs = ((-2 pi i)^s / Gamma(s)) sum over 1 <= n <= N of n^(s-1) e(n tau).
    The tails divide by s - 1: s within POLE_TOL of 1 raises PoleError, and
    a side that overflows raises DomainError.  Both sides are summed _CHUNK
    terms at a time; more than MAX_WORK terms are refused before any is built.
    """
    tau = complex(tau)
    (s,) = finite_exponents(s)
    if tau.imag <= 0:
        raise PoleError("tau must be in the upper half-plane")
    if abs(s - 1.0) <= POLE_TOL:
        raise PoleError("the integral tails have a pole at s = 1")
    if 2 * n_bound + 1 > MAX_WORK:
        raise DomainError("%d terms, above %d" % (2 * n_bound + 1, MAX_WORK))
    lhs = complex(sum(np.sum(np.exp(-s * np.log(tau + n))) for n in _blocks(-n_bound, n_bound)))
    edge = n_bound + 0.5
    lhs += np.exp((1 - s) * np.log(tau + edge)) / (s - 1)
    lhs -= np.exp((1 - s) * np.log(tau - edge)) / (s - 1)
    lhs = complex(require_finite(lhs, "the lattice side"))
    log_pref = s * (math.log(2.0 * math.pi) - 0.5j * math.pi) - log_gamma(s)
    shift = log_pref.real - min(max(log_pref.real, -700.0), 700.0)  # past e^(+-700): to the terms
    pref = _exp_in_range(log_pref - shift, "(-2 pi i)^s / Gamma(s)")
    fourier = sum(np.sum(np.exp(shift + (s - 1) * np.log(m) + 2j * np.pi * m * tau))
                  for m in _blocks(1, n_bound))
    rhs = complex(require_finite(pref * fourier, "the Fourier side"))
    gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    closed_form = None
    if abs(s - 2.0) < 1e-14:
        closed_form = complex(np.pi**2 / np.sin(np.pi * tau) ** 2)
    return LipschitzReport(lhs, rhs, gap, 2 * n_bound + 1, n_bound, n_bound, n_bound), closed_form
