"""Koecher-Maass series over classes of half-integral forms.

A coefficient table is a weight and one function of the class, read at the
canonical reduced representatives the class sums hold (for even weight the sign
ambiguity is invisible): a text file (one reduced form and one complex value per
line; a class with no line is a miss) or a synthetic provider.  Genuine degree-3
cusp form coefficients are out of desk reach, so providers exercise the series
machinery, and the kernel is km_twisted with Poincare series as coefficients.
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
    """A weight k and one function of the class: ``coefficient(red)`` is A_T at
    a canonical reduced representative, or None where a table file has no line
    for the class (it then contributes 0 and counts as a miss).  A weight k
    that is not a positive even integer raises DomainError.
    """

    def __init__(self, k, coefficient):
        if k <= 0 or k % 2:
            raise DomainError("weight k must be a positive even integer, got %r" % (k,))
        self.k, self.coefficient = k, coefficient


def ones_provider(k=24):
    return CoefficientTable(k, lambda red: 1.0 + 0.0j)


def det_power_provider(alpha, k=24):
    finite_exponents(alpha)
    return CoefficientTable(k, lambda red: float(red.det()) ** alpha + 0.0j)


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
    return CoefficientTable(k, lambda red: data.get(red.key()))


@dataclass
class SeriesValue:
    value: complex
    classes_used: int
    max_det: Fraction
    misses: int
    warnings: list = field(default_factory=list)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite sum is refused instead
def class_sum(table: CoefficientTable, det_bound, term):
    """sum over classes (det <= bound) of (A_T / eps_T) term(T), misses counted, no
    warnings yet; a truncation with no class, or a sum that overflows, raises DomainError."""
    classes = reduced_classes(det_bound)
    if not classes:
        raise DomainError("empty truncation: no class with det T <= %s" % (det_bound,))
    total, misses = 0.0 + 0.0j, 0
    for t in classes:
        a = table.coefficient(t)
        misses += a is None
        total += (0j if a is None else a) / automorphism_count(t) * term(t)
    return SeriesValue(
        value=complex(require_finite(total, "the Koecher-Maass sum")),
        classes_used=len(classes),
        max_det=classes[-1].det(),  # the classes are sorted by det
        misses=misses,
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
