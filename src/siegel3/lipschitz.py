"""Both sides of the lattice summation identity for the power function.

The slow side sums p_{-s,-w,-u}(Z + B) over the integer symmetric lattice
(entries boxed by max_abs, the (3,3) direction optionally summed exactly);
the fast side is a prefactored sum over positive-definite half-integral T of
p_{-w,-s,s+w+u-2}(i W T W) e(T Z), which converges exponentially, in closed
form: the minors of i W T W are i t3, -m2 and -i det T, and the phase of p
cancels the prefactor's (fourier_side_rhs).  Reports carry both truncations
and a relative gap.  Both sides refuse a truncation whose work exceeds
MAX_WORK before they allocate anything.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .branch import _ipow, _is_small_int, power_terms
from .errors import MAX_WORK, DomainError, PoleError, finite_exponents, require_finite
from .forms import _CHUNK, _diagonal_runs, enumerate_J
from .matrices import is_siegel_point
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


def lattice_sum_lhs(exponents, z, max_abs, tail_correction=False):
    """sum over symmetric integer B with |entries| <= max_abs of
    p_{-s,-w,-u}(Z + B).

    Returns (value, n_terms, tail_estimate), the estimate None when max_abs
    is 0.  Each index of the leading box axes gives one block, an open grid
    of at most _CHUNK terms over the trailing axes; the fixed order keeps
    results reproducible.  With tail_correction, integer exponents and
    2 <= u <= EXACT_F_MAX_U, the slowest direction, the (3,3) shift f where
    terms decay like f^(-u) alone, is summed exactly over all integers
    (_f_direction_sum): then only a..e are truncated, n_terms counts the
    (2 max_abs + 1)^5 terms evaluated and the tail estimate covers the a..e
    shell.  Otherwise every direction is truncated at max_abs.
    """
    if max_abs < 0:
        raise DomainError("max_abs must be >= 0, got %r" % (max_abs,))
    s, w, u = finite_exponents(*exponents)
    exact_f = (tail_correction and all(map(_is_small_int, (s, w, u)))
               and 2 <= u.real <= EXACT_F_MAX_U)
    n, axes = 2 * max_abs + 1, 5 if exact_f else 6
    if n**axes > MAX_WORK:
        raise DomainError("the lattice sum at max_abs %d needs %d terms, above the ceiling %d"
                          % (max_abs, n**axes, MAX_WORK))
    z = np.asarray(z, dtype=complex)
    if exact_f and not is_siegel_point(z):
        raise DomainError("the exact f-direction sum needs Z in the Siegel upper half-space")
    side = np.arange(-max_abs, max_abs + 1)
    lead = next(k for k in range(axes) if n ** (axes - k) <= _CHUNK)
    # the entries of Z + B: 1-d along the leading axes, an open grid over the rest
    cols = [z[i, j] + side for i, j in _AXES[:axes]]
    cols[lead:] = np.ix_(*cols[lead:]) + ((z[2, 2],) if exact_f else ())
    on_edge = (np.abs(side) == max_abs).astype(int)
    edge = sum(np.ix_(*[on_edge] * (axes - lead))) > 0
    coef = _f_coefficients(int(u.real)) if exact_f else None
    total, shell_sum = 0.0 + 0.0j, 0.0
    for idx in itertools.product(range(n), repeat=lead):
        entries = [c[i] for c, i in zip(cols, idx)] + cols[lead:]
        if exact_f:  # 1/det(Z2) and the powers on the (a, b, d) axes, 2 pi i x at full size:
            # x = det(Z)/det(Z2) = tau3 + (2 z1 z2 z3 - tau1 z3^2 - tau2 z2^2)/det(Z2)
            tau1, z1, z2, tau2, z3, tau3 = entries
            k = 2j * np.pi * (inv := 1.0 / (tau1 * tau2 - z1 * z1))
            arg = (2.0 * z1 * k) * (z2 * z3)
            arg -= (tau1 * k) * (z3 * z3) - 2j * np.pi * tau3
            arg -= (tau2 * k) * (z2 * z2)
            vals = (_ipow(tau1, -int(s.real)) * _ipow(inv, int((w + u).real))
                    * _f_direction_sum(arg, coef))
        else:
            vals = power_terms((-s, -w, -u), *entries)
        total += vals.sum()
        mags = np.abs(vals)
        shell_sum += float(mags.sum() if on_edge[list(idx)].any() else mags[edge].sum())
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


def _f_direction_sum(arg, coef):
    """Sum over all integers f of (x + f)^(-u), integer u >= 2, Im x > 0, from
    arg = 2 pi i x (overwritten) and coef = _f_coefficients(u): the one-variable
    summation formula gives (-2 pi i)^u / (u-1)! Li_{1-u}(q), q = e(x), and
    Li_{1-u}(q) = q A_{u-1}(q) / (1-q)^u, A_m the Eulerian polynomial.  With
    x = det(Z) / det(Z2), p_{-s,-w,-u}(Z + f E33) = tau1^(-s) det(Z2)^(-w-u) (x + f)^(-u)
    for integer exponents, and Im x > 0 on the Siegel upper half-space."""
    q = np.exp(arg, out=arg)
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
    zk = np.asarray(z, dtype=complex)[[0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]]  # tr(TZ) = key . zk
    real = not (s.imag or w.imag or u.imag)  # then one real exp per form
    a, b, c = (x.real if real else x for x in (-w, -s, s + w + u - 2.0))
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
        arg = a * np.log(t3) + b * np.log(0.25 * m4) + c * np.log(0.125 * d8)  # exact m2, det T
        terms = np.exp(arg - 2.0 * np.pi * sum(y * key for y, key in zip(zk.imag, keys)))
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
    return LipschitzReport(
        lhs=lhs,
        rhs=rhs,
        relative_gap=gap,
        lhs_terms=nl,
        rhs_terms=nr,
        max_abs=max_abs,
        trace_bound=trace_bound,
        lhs_tail_estimate=tail,
    )


@np.errstate(over="ignore", invalid="ignore")  # a non-finite side is refused instead
def classical_lipschitz(tau, s, n_bound):
    """Classical one-variable summation formula, both sides truncated.

    lhs = sum over |n| <= N of (tau + n)^(-s) plus its midpoint-rule integral
    tails on both ends, which always run,
    rhs = ((-2 pi i)^s / Gamma(s)) sum over 1 <= n <= N of n^(s-1) e(n tau).
    The tails divide by s - 1: s within POLE_TOL of 1 raises PoleError, and
    a side that overflows raises DomainError.
    """
    tau = complex(tau)
    (s,) = finite_exponents(s)
    if tau.imag <= 0:
        raise PoleError("tau must be in the upper half-plane")
    if abs(s - 1.0) <= POLE_TOL:
        raise PoleError("the integral tails have a pole at s = 1")
    n = np.arange(-n_bound, n_bound + 1)
    lhs = complex(np.sum(np.exp(-s * np.log(tau + n))))
    edge = n_bound + 0.5
    lhs += np.exp((1 - s) * np.log(tau + edge)) / (s - 1)
    lhs -= np.exp((1 - s) * np.log(tau - edge)) / (s - 1)
    lhs = complex(require_finite(lhs, "the lattice side"))
    m = np.arange(1, n_bound + 1)
    log_pref = s * (math.log(2.0 * math.pi) - 0.5j * math.pi) - log_gamma(s)
    shift = log_pref.real - min(max(log_pref.real, -700.0), 700.0)  # past e^(+-700): to the terms
    pref = _exp_in_range(log_pref - shift, "(-2 pi i)^s / Gamma(s)")
    terms = np.exp(shift + (s - 1) * np.log(m) + 2j * np.pi * m * tau)
    rhs = complex(require_finite(pref * np.sum(terms), "the Fourier side"))
    gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    closed_form = None
    if abs(s - 2.0) < 1e-14:
        closed_form = complex(np.pi**2 / np.sin(np.pi * tau) ** 2)
    return LipschitzReport(
        lhs=lhs,
        rhs=rhs,
        relative_gap=gap,
        lhs_terms=2 * n_bound + 1,
        rhs_terms=n_bound,
        max_abs=n_bound,
        trace_bound=n_bound,
    ), closed_form
