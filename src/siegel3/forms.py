"""Half-integral ternary forms: enumeration, Minkowski reduction, automorphisms.

A half-integral form T stores (t1, t2, t3, b12, b13, b23) with integer
diagonal and doubled off-diagonals, i.e. the matrix

    [[t1,    b12/2, b13/2],
     [b12/2, t2,    b23/2],
     [b13/2, b23/2, t3   ]].

All arithmetic in this module is exact: the doubled Gram matrix 2T has integer
entries, (2T)[v] is an even integer, and dets/reductions use Python ints and
fractions only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import inf, isqrt

import numpy as np

from . import _intlinalg as il
from .errors import NotPositiveDefinite


@dataclass(frozen=True, order=True)
class HalfIntegralForm:
    t1: int
    t2: int
    t3: int
    b12: int
    b13: int
    b23: int

    def gram2(self):
        """The integer matrix 2T."""
        return [
            [2 * self.t1, self.b12, self.b13],
            [self.b12, 2 * self.t2, self.b23],
            [self.b13, self.b23, 2 * self.t3],
        ]

    def matrix(self):
        """Floating matrix T."""
        return 0.5 * np.array(self.gram2(), dtype=float)

    def det(self):
        """Exact determinant of T (denominator divides 4... actually 8/2)."""
        return Fraction(il.det3(self.gram2()), 8)

    def trace(self):
        return self.t1 + self.t2 + self.t3

    def value2(self, v):
        """(2T)[v], an even non-negative integer for definite T."""
        return il.bilinear3(self.gram2(), v, v)

    def is_positive_definite(self):
        g = self.gram2()
        return (
            g[0][0] > 0
            and g[0][0] * g[1][1] - g[0][1] ** 2 > 0
            and il.det3(g) > 0
        )

    def key(self):
        return (self.t1, self.t2, self.t3, self.b12, self.b13, self.b23)


def form_from_gram2(g):
    if g[0][0] % 2 or g[1][1] % 2 or g[2][2] % 2:
        raise ValueError("doubled matrix must have even diagonal")
    return HalfIntegralForm(
        g[0][0] // 2, g[1][1] // 2, g[2][2] // 2, g[0][1], g[0][2], g[1][2]
    )


def congruence_form(t, u):
    """T[U] = t(U) T U for integer U; exact on half-integral forms."""
    return form_from_gram2(il.mat_mul(il.mat_t(u), il.mat_mul(t.gram2(), u)))


@dataclass(frozen=True)
class ReducedForm:
    form: HalfIntegralForm
    reducer: tuple  # U with T[U] == form

    def satisfies_inequalities(self):
        f = self.form
        return (
            1 <= f.t1 <= f.t2 <= f.t3
            and 0 <= f.b12 <= f.t1
            and abs(f.b13) <= f.t1
            and 0 <= f.b23 <= f.t2
        )


# --- exact lattice point enumeration ----------------------------------------

def short_vectors_gram(g, bound):
    """All integer v != 0 with g[v] <= bound, by Fincke-Pohst enumeration.

    ``g`` is a positive-definite symmetric matrix with int (or exact
    rational) entries; ``bound`` may be int or Fraction.  The recursion runs
    in floating point with a slack margin; every candidate is then checked
    exactly against the integer form value, so the output is exact.  Returns
    a lexicographically sorted list of (value, v) pairs including both signs.
    """
    bound_exact = bound if isinstance(bound, (int, Fraction)) else Fraction(bound)
    if bound_exact <= 0:
        return []
    n = len(g)
    gi = [[g[i][j] for j in range(n)] for i in range(n)]
    gf = [[float(x) for x in row] for row in gi]
    d = [0.0] * n
    r = [[0.0] * n for _ in range(n)]
    a = [row[:] for row in gf]
    for i in range(n):
        d[i] = a[i][i]
        if d[i] <= 0:
            raise NotPositiveDefinite("LDL pivot <= 0")
        for j in range(i + 1, n):
            r[i][j] = a[i][j] / d[i]
        for j in range(i + 1, n):
            for k in range(j, n):
                a[j][k] -= r[i][j] * r[i][k] * d[i]
                a[k][j] = a[j][k]
    slack = 1e-6 * (1.0 + float(bound_exact))
    budget = float(bound_exact) + slack
    out = []

    def value_exact(v):
        acc = 0
        for i in range(n):
            row = gi[i]
            vi = v[i]
            if vi:
                acc += vi * sum(row[j] * v[j] for j in range(n))
        return acc

    def descend(level, rem, centers, partial):
        if level < 0:
            if any(partial):
                v = tuple(partial)
                q = value_exact(v)
                if q <= bound_exact:
                    out.append((q, v))
            return
        c = centers[level]
        radius = (rem / d[level]) ** 0.5 if rem > 0 else 0.0
        lo = int(-c - radius - 1.0)
        hi = int(-c + radius + 1.0) + 1
        for vi in range(lo, hi):
            dv = vi + c
            contrib = d[level] * dv * dv
            if contrib > rem + slack:
                continue
            new_centers = centers if level == 0 else [
                centers[lv] + r[lv][level] * vi for lv in range(level)
            ]
            partial[level] = vi
            descend(level - 1, rem - contrib, new_centers, partial)
        partial[level] = 0

    descend(n - 1, budget, [0.0] * n, [0] * n)
    out.sort(key=lambda p: (p[0], p[1]))
    return out


def short_vectors2(t, bound2):
    """All integer v != 0 with (2T)[v] <= bound2 for a half-integral form."""
    return short_vectors_gram(t.gram2(), bound2)


def _solve_dot_one(n):
    """Integer c with n . c == 1 for primitive n (two-step extended gcd)."""

    def ext_gcd(a, b):
        if b == 0:
            return (abs(a), (1 if a >= 0 else -1), 0)
        g, x, y = ext_gcd(b, a % b)
        return (g, y, x - (a // b) * y)

    g01, x0, x1 = ext_gcd(n[0], n[1])
    g, xa, x2 = ext_gcd(g01, n[2])
    if g != 1:
        raise ValueError("vector is not primitive")
    return (x0 * xa, x1 * xa, x2)


def _complete_one(v1):
    """Unimodular U whose first column is primitive v1."""
    s, u, _ = il.snf([[v1[0]], [v1[1]], [v1[2]]])
    if s[0][0] != 1:
        raise ValueError("vector is not primitive")
    uinv = il.inv_unimodular(u)
    if tuple(uinv[i][0] for i in range(3)) == tuple(-x for x in v1):
        uinv = il.mat_neg(uinv)
    if tuple(uinv[i][0] for i in range(3)) != tuple(v1):
        raise AssertionError("completion failed")
    return uinv


def minkowski_reduce(t):
    """Canonical Minkowski-reduced representative of the class of T.

    Greedy successive minima specialized to rank 3, followed by sign
    normalization (b12 >= 0, b23 >= 0) and a lexicographic tie-break over all
    minimizing bases, which makes the output class-canonical and idempotent.
    """
    if not t.is_positive_definite():
        raise NotPositiveDefinite("form is not positive definite")
    g = t.gram2()
    r1 = min(g[0][0], g[1][1], g[2][2])
    pool1 = short_vectors2(t, r1)
    m1 = pool1[0][0]
    v1s = sorted({il.canonical_sign(v) for q, v in pool1 if q == m1})

    best = None
    for v1 in v1s:
        u0 = _complete_one(list(v1))
        c2 = tuple(u0[i][1] for i in range(3))
        c3 = tuple(u0[i][2] for i in range(3))
        r2 = min(t.value2(c2), t.value2(c3))
        pool2 = [
            (q, v) for q, v in short_vectors2(t, r2) if il.gcd_list(il.cross3(v1, v)) == 1
        ]
        m2 = min(q for q, _ in pool2)
        v2s = sorted({il.canonical_sign(v) for q, v in pool2 if q == m2})
        for v2 in v2s:
            # det[v1 v2 v] = n . v, so n . c3b = 1 completes the basis
            n = il.cross3(v1, v2)
            c3b = _solve_dot_one(n)
            r3 = t.value2(c3b)
            pool3 = [
                (q, v)
                for q, v in short_vectors2(t, r3)
                if abs(n[0] * v[0] + n[1] * v[1] + n[2] * v[2]) == 1
            ]
            m3 = min(q for q, _ in pool3)
            v3s = sorted({il.canonical_sign(v) for q, v in pool3 if q == m3})
            for v3 in v3s:
                u = il.mat_t([list(v1), list(v2), list(v3)])
                for e1, e2, e3 in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
                    ue = [[u[i][0] * e1, u[i][1] * e2, u[i][2] * e3] for i in range(3)]
                    cand = congruence_form(t, ue)
                    if cand.b12 < 0 or cand.b23 < 0:
                        continue
                    if best is None or cand.key() < best[0].key():
                        best = (cand, ue)
    form, u = best
    red = ReducedForm(form=form, reducer=tuple(tuple(row) for row in u))
    if not red.satisfies_inequalities():
        raise AssertionError("reduction produced a non-reduced form: %r" % (form,))
    return red


@lru_cache(maxsize=None)
def automorphism_count(t):
    """eps_T = #{g in SL3(Z) : T[g] = T} by exhaustive exact search."""
    g = t.gram2()
    cols = []
    for j in range(3):
        target = g[j][j]
        cand = [v for q, v in short_vectors2(t, target) if q == target]
        cols.append(cand)
    count = 0
    for c1 in cols[0]:
        for c2 in cols[1]:
            if il.bilinear3(g, c1, c2) != g[0][1]:
                continue
            for c3 in cols[2]:
                if il.bilinear3(g, c1, c3) != g[0][2] or il.bilinear3(g, c2, c3) != g[1][2]:
                    continue
                if il.det3(il.mat_t([list(c1), list(c2), list(c3)])) == 1:
                    count += 1
    return count


def _diagonal_runs(trace_bound, size=1 << 17, stop=inf):
    """The diagonals t1, t2, t3 >= 1 with trace <= trace_bound in lexicographic
    order, each with the largest |b_ij| that b_ij^2 < 4 t_i t_j allows, joined
    into consecutive runs of at least size candidate forms (the last may hold
    fewer); and the candidate count, which stops once it passes stop."""
    runs, count, total = [], size, 0
    for t1 in range(1, trace_bound - 1):
        for t2 in range(1, trace_bound - t1):
            for t3 in range(1, trace_bound - t1 - t2 + 1):
                box = isqrt(4 * t1 * t2 - 1), isqrt(4 * t1 * t3 - 1), isqrt(4 * t2 * t3 - 1)
                if count >= size:
                    runs.append([])
                    count = 0
                runs[-1].append((t1, t2, t3) + box)
                n = (2 * box[0] + 1) * (2 * box[1] + 1) * (2 * box[2] + 1)
                count, total = count + n, total + n
                if total > stop:
                    return runs, total
    return runs, total


def enumerate_J(trace_bound, run=None):
    """All positive-definite half-integral forms with trace <= trace_bound,
    sorted by key().  Given one run of _diagonal_runs(trace_bound), only the
    forms on its diagonals, as an int64 record array with the fields of key()
    in key() order, which the fast side of the summation identity reads run
    by run.  The box makes 2 t1 and 4 t1 t2 - b12^2 positive, so the exact
    det(2T) > 0 decides."""
    if run is None:
        return [HalfIntegralForm(*row) for run in _diagonal_runs(trace_bound)[0]
                for row in enumerate_J(trace_bound, run).tolist()]
    cols = []
    for t1, t2, t3, a12, a13, a23 in run:
        b12, b13, b23 = np.ogrid[-a12:a12 + 1, -a13:a13 + 1, -a23:a23 + 1]
        det2 = (8 * t1 * t2 * t3 + 2 * b12 * b13 * b23
                - 2 * t1 * b23 * b23 - 2 * t2 * b13 * b13 - 2 * t3 * b12 * b12)
        i, j, k = np.nonzero(det2 > 0)
        cols.append([np.full(len(i), t) for t in (t1, t2, t3)] + [i - a12, j - a13, k - a23])
    return np.rec.fromarrays([np.concatenate(c).astype(np.int64, copy=False) for c in zip(*cols)],
                             names="t1,t2,t3,b12,b13,b23")


def reduced_classes(det_bound):
    """One canonical representative per GL3(Z)-class with det T <= det_bound.

    Enumerates the reduced inequality box (with margin over the classical
    bound t1 t2 t3 <= 2 det T), canonicalizes and dedupes.
    """
    return list(_reduced_classes_cached(Fraction(det_bound)))


@lru_cache(maxsize=32)
def _reduced_classes_cached(det_bound):
    if det_bound <= 0:
        return ()
    tmax = int(4 * det_bound) + 1
    seen = {}
    for t1 in range(1, tmax + 1):
        if t1**3 > 4 * det_bound:
            break
        for t2 in range(t1, tmax + 1):
            if t1 * t2 * t2 > 4 * det_bound:
                break
            for t3 in range(t2, tmax + 1):
                if t1 * t2 * t3 > 4 * det_bound:
                    break
                for b12 in range(0, t1 + 1):
                    for b13 in range(-t1, t1 + 1):
                        for b23 in range(0, t2 + 1):
                            f = HalfIntegralForm(t1, t2, t3, b12, b13, b23)
                            if not f.is_positive_definite():
                                continue
                            if f.det() > det_bound:
                                continue
                            red = minkowski_reduce(f)
                            seen.setdefault(red.form.key(), red.form)
    return tuple(sorted(seen.values(), key=lambda f: (f.det(), f.key())))
