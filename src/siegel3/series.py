"""Koecher-Maass series over classes of half-integral forms.

Coefficient data comes either from a text file (one reduced form and one
complex value per line) or from synthetic providers; genuine degree-3 cusp
form coefficients are out of desk reach, so providers exercise the series
machinery, and the kernel sums the class loop with Poincare series as its
coefficients.  Coefficients are read at the canonical reduced representatives
the class sums hold; for even weight the sign ambiguity is invisible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .eisenstein import TruncationSpec, selberg_E
from .errors import (DomainError, DuplicateKey, NonReducedKey, ParseError, finite_exponents,
                     require_finite)
from .forms import HalfIntegralForm, automorphism_count, minkowski_reduce, reduced_classes


class CoefficientTable:
    """Fourier-coefficient source: table-backed or synthetic.

    ``data`` maps canonical reduced keys to complex values; ``provider`` (if
    set) computes a value from a reduced HalfIntegralForm instead, and never
    misses.  Missing table keys contribute 0 and bump ``misses``.  A weight k
    that is not a positive even integer raises DomainError.
    """

    def __init__(self, k, data=None, provider=None):
        if k <= 0 or k % 2:
            raise DomainError("weight k must be a positive even integer, got %r" % (k,))
        self.k, self.data, self.provider, self.misses = k, {} if data is None else data, provider, 0

    def reduced_coefficient(self, red: HalfIntegralForm):
        """The coefficient of a canonical reduced representative, as it stands."""
        if self.provider is not None:
            return complex(self.provider(red))
        key = red.key()
        if key in self.data:
            return self.data[key]
        self.misses += 1
        return 0.0 + 0.0j


def ones_provider(k=24):
    return CoefficientTable(k=k, provider=lambda red: 1.0 + 0.0j)


def det_power_provider(alpha, k=24):
    finite_exponents(alpha)
    return CoefficientTable(k=k, provider=lambda red: float(red.det()) ** alpha + 0.0j)


def load_coefficients(path):
    """Parse 'k <even>' header then lines 't1 t2 t3 b12 b13 b23 re im'.

    Keys must already be canonical reduced representatives; auto-reduction is
    deliberately not performed so upstream data mistakes surface here.
    """
    data = {}
    k = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if k is None:
                if len(parts) != 2 or parts[0] != "k":
                    raise ParseError("line %d: expected header 'k <even-int>'" % lineno)
                k = int(parts[1])
                if k <= 0 or k % 2:
                    raise ParseError("line %d: weight must be a positive even integer" % lineno)
                continue
            if len(parts) != 8:
                raise ParseError("line %d: expected 8 fields" % lineno)
            try:
                t = HalfIntegralForm(*(int(x) for x in parts[:6]))
                value = complex(float(parts[6]), float(parts[7]))
            except ValueError as exc:
                raise ParseError("line %d: %s" % (lineno, exc)) from exc
            if not np.isfinite(value):
                raise ParseError("line %d: the value %s is not finite" % (lineno, value))
            if not t.is_positive_definite():
                raise ParseError("line %d: form is not positive definite" % lineno)
            red = minkowski_reduce(t).form
            if red != t:
                raise NonReducedKey("line %d: %s is not the canonical reduced representative"
                                    % (lineno, t))
            if t.key() in data:
                raise DuplicateKey("line %d: duplicate key %s" % (lineno, t))
            data[t.key()] = value
    if k is None:
        raise ParseError("missing 'k <even-int>' header")
    return CoefficientTable(k=k, data=data)


@dataclass
class SeriesValue:
    value: complex
    classes_used: int
    max_det: Fraction
    misses: int
    warnings: list = field(default_factory=list)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite sum is refused instead
def class_sum(table: CoefficientTable, det_bound, term):
    """sum over classes (det <= bound) of (A_T / eps_T) term(T), no warnings yet;
    a truncation with no class, or a sum that overflows, raises DomainError."""
    classes = reduced_classes(det_bound)
    if not classes:
        raise DomainError("empty truncation: no class with det T <= %s" % (det_bound,))
    misses0 = table.misses
    total = 0.0 + 0.0j
    for t in classes:
        a = table.reduced_coefficient(t)
        eps = automorphism_count(t)
        total += a / eps * term(t)
    return SeriesValue(
        value=complex(require_finite(total, "the Koecher-Maass sum")),
        classes_used=len(classes),
        max_det=classes[-1].det(),  # the classes are sorted by det
        misses=table.misses - misses0,
    )


def km_classic(table: CoefficientTable, s, det_bound):
    """sum over classes (det <= bound) of A_T / (eps_T det(T)^s)."""
    (s,) = finite_exponents(s)
    sv = class_sum(table, det_bound, lambda t: np.exp(-s * math.log(float(t.det()))))
    if not s.real > 2 + table.k / 2:
        sv.warnings.append("outside the absolute-convergence region Re(s) > 2 + k/2")
    return sv


def km_twisted(table: CoefficientTable, exponents, det_bound, flag_spec: TruncationSpec):
    """sum over classes of (A_T / eps_T) E(T | s, w, u), all truncated."""
    s, w, u = finite_exponents(*exponents)
    sv = class_sum(table, det_bound, lambda t: selberg_E(t, (s, w, u), flag_spec).value)
    if not (s.real > 1 and w.real > 1 and u.real > table.k / 2 + 1):
        sv.warnings.append("outside region Re(s)>1, Re(w)>1, Re(u)>k/2+1"
                           " (stricter variant requires Re(u)>k+1)")
    return sv
