"""Both sides of the lattice summation identity for the power function.

The slow side sums p_{-s,-w,-u}(Z + B) over the integer symmetric lattice
(entries boxed by max_abs); the fast side is a prefactored sum over
positive-definite half-integral T of p_{-w,-s,s+w+u-2}(i W T W) e(T Z),
which converges exponentially.  Reports carry both truncations and a
relative gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .branch import power_terms
from .errors import PoleError
from .forms import enumerate_J
from .specfun import complex_gamma

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
    is 0.  Terms are accumulated in a fixed lexicographic order so results
    are reproducible.  With tail_correction (integer exponents only) the
    slowest truncation direction, the (3,3) entry where terms decay like
    f^(-u) alone, is completed by its exact midpoint continuum integral.
    """
    s, w, u = exponents
    z = np.asarray(z, dtype=complex)
    side = np.arange(-max_abs, max_abs + 1)
    d_, e_, f_ = np.meshgrid(side, side, side, indexing="ij")
    d_, e_, f_ = d_.ravel(), e_.ravel(), f_.ravel()
    boundary_mask = (
        (np.abs(d_) == max_abs) | (np.abs(e_) == max_abs) | (np.abs(f_) == max_abs)
    )
    de_d, de_e = np.meshgrid(side, side, indexing="ij")
    de_d, de_e = de_d.ravel(), de_e.ravel()
    sc, wc, uc = complex(s), complex(w), complex(u)
    correcting = tail_correction and all(
        e.imag == 0.0 and e.real == int(e.real) for e in (sc, wc, uc)
    ) and uc.real >= 2
    total = 0.0 + 0.0j
    n_terms = 0
    shell_sum = 0.0
    for a in side:
        for b in side:
            for c in side:
                tau1 = z[0, 0] + a
                z1 = z[0, 1] + b
                z2 = z[0, 2] + c
                vals = power_terms(
                    (-s, -w, -u),
                    tau1,
                    z1,
                    z2,
                    z[1, 1] + d_,
                    z[1, 2] + e_,
                    z[2, 2] + f_,
                )
                total += vals.sum()
                n_terms += vals.size
                if abs(a) == max_abs or abs(b) == max_abs or abs(c) == max_abs:
                    shell_sum += float(np.abs(vals).sum())
                else:
                    shell_sum += float(np.abs(vals[boundary_mask]).sum())
                if correcting:
                    total += _f_direction_tail(
                        (int(np.real(s)), int(np.real(w)), int(np.real(u))),
                        tau1, z1, z2, z[1, 1] + de_d, z[1, 2] + de_e, z[2, 2],
                        max_abs + 0.5,
                    )
    # crude integral-comparison estimate: boundary shell extrapolated by the
    # dominant polynomial decay; a one-term box has no shell to extrapolate
    p_eff = 2.0 * min(complex(s).real, 2.0) + 1.0
    tail = shell_sum * max_abs / max(p_eff - 1.0, 1.0) if max_abs else None
    return complex(total), n_terms, tail


def _f_direction_tail(exponents, tau1, z1, z2, tau2, z3, tau3, edge):
    """Closed-form midpoint integral of the two f-tails of the lattice sum.

    For integer exponents, p_{-s,-w,-u}(Z + f E33) equals
    tau1^(-s) det(Z2)^(-w) (beta + alpha f)^(-u) with alpha = det(Z2) and
    beta = det(Z); each tail integrates to a rational expression.
    """
    s, w, u = exponents
    d1 = tau1
    d2 = tau1 * tau2 - z1 * z1
    beta = (
        tau1 * tau2 * tau3
        + 2.0 * z1 * z2 * z3
        - tau1 * z3 * z3
        - tau2 * z2 * z2
        - tau3 * z1 * z1
    )
    alpha = d2
    from .branch import _ipow

    coeff = _ipow(d1, -s) * _ipow(d2, -w)
    upper = _ipow(beta + alpha * edge, 1 - u) / ((u - 1) * alpha)
    lower = -_ipow(beta - alpha * edge, 1 - u) / ((u - 1) * alpha)
    return complex((coeff * (upper + lower)).sum())


def fourier_side_rhs(exponents, z, trace_bound):
    """Prefactor times sum over T (trace <= bound) of
    p_{-w,-s,s+w+u-2}(i W T W) e^{2 pi i tr(T Z)}."""
    s, w, u = (complex(e) for e in exponents)
    z = np.asarray(z, dtype=complex)
    sigma = s + 2 * w + 3 * u
    # The 1/8 is the coordinate covolume of the half-integral lattice in the
    # entry measure dx1..dx6 used by the Fourier transform (Poisson
    # normalization); without it the two sides differ by exactly 8.
    pref = -(
        1.0
        / 8.0
        / math.pi**1.5
        * np.exp(sigma * (math.log(2.0 * math.pi) - 0.5j * math.pi))
        * np.exp(-0.5j * np.pi * sigma)
        / (complex_gamma(s + w + u - 1.0) * complex_gamma(w + u - 0.5) * complex_gamma(u))
    )
    forms_list = enumerate_J(trace_bound)
    if not forms_list:
        return complex(0.0), 0
    t1 = np.array([f.t1 for f in forms_list], dtype=float)
    t2 = np.array([f.t2 for f in forms_list], dtype=float)
    t3 = np.array([f.t3 for f in forms_list], dtype=float)
    h12 = np.array([f.b12 for f in forms_list], dtype=float) / 2.0
    h13 = np.array([f.b13 for f in forms_list], dtype=float) / 2.0
    h23 = np.array([f.b23 for f in forms_list], dtype=float) / 2.0
    # W T W reverses the coordinate order
    pw = power_terms(
        (-w, -s, s + w + u - 2.0),
        1j * t3,
        1j * h23,
        1j * h13,
        1j * t2,
        1j * h12,
        1j * t1,
    )
    tr_tz = (
        t1 * z[0, 0]
        + t2 * z[1, 1]
        + t3 * z[2, 2]
        + 2.0 * (h12 * z[0, 1] + h13 * z[0, 2] + h23 * z[1, 2])
    )
    vals = pw * np.exp(2j * np.pi * tr_tz)
    return complex(pref * vals.sum()), len(forms_list)


def lipschitz_report(exponents, z, max_abs, trace_bound, tail_correction=False):
    lhs, nl, tail = lattice_sum_lhs(exponents, z, max_abs, tail_correction)
    rhs, nr = fourier_side_rhs(exponents, z, trace_bound)
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


def classical_lipschitz(tau, s, n_bound, tail_correction=True):
    """Classical one-variable summation formula, both sides truncated.

    lhs = sum over |n| <= N of (tau + n)^(-s) (plus midpoint integral tails),
    rhs = ((-2 pi i)^s / Gamma(s)) sum over 1 <= n <= N of n^(s-1) e(n tau).
    """
    tau = complex(tau)
    s = complex(s)
    if tau.imag <= 0:
        raise PoleError("tau must be in the upper half-plane")
    n = np.arange(-n_bound, n_bound + 1)
    lhs = complex(np.sum(np.exp(-s * np.log(tau + n))))
    if tail_correction:
        # midpoint-rule integral tails on both ends
        edge = n_bound + 0.5
        lhs += np.exp((1 - s) * np.log(tau + edge)) / (s - 1)
        lhs -= np.exp((1 - s) * np.log(tau - edge)) / (s - 1)
    m = np.arange(1, n_bound + 1)
    pref = np.exp(s * (math.log(2.0 * math.pi) - 0.5j * np.pi)) / complex_gamma(s)
    rhs = complex(pref * np.sum(np.exp((s - 1) * np.log(m) + 2j * np.pi * m * tau)))
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
        trace_bound=0,
    ), closed_form
