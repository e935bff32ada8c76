"""Half-integral ternary forms: enumeration, Minkowski reduction, automorphisms.

A half-integral form T stores (t1, t2, t3, b12, b13, b23) with integer
diagonal and doubled off-diagonals, i.e. the matrix

    [[t1,    b12/2, b13/2],
     [b12/2, t2,    b23/2],
     [b13/2, b23/2, t3   ]].

All results in this module are exact: the doubled Gram matrix 2T has integer
entries, (2T)[v] is an even integer, and dets/reductions use integers only
(int64 arrays where no overflow can occur, Python ints and fractions else).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, permutations
from math import floor, inf, isqrt
from operator import index

import numpy as np

from . import _intlinalg as il
from .errors import MAX_BALL, MAX_WORK, DomainError, NotPositiveDefinite


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

    def det(self):
        """Exact determinant of T: det T = det(2T) / 8."""
        return Fraction(il.det3(self.gram2()), 8)

    def value2(self, v):
        """(2T)[v], an even non-negative integer for definite T."""
        return il.bilinear3(self.gram2(), v, v)

    def is_positive_definite(self):
        return _positive_definite(self.gram2())

    def key(self):
        return (self.t1, self.t2, self.t3, self.b12, self.b13, self.b23)


def _positive_definite(g):
    return g[0][0] > 0 and g[0][0] * g[1][1] > g[0][1] ** 2 and il.det3(g) > 0


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

# Candidate vectors, or forms, built as one array; also the least candidate
# forms per run of diagonals on the fast side of the summation identity.
_CHUNK = 1 << 17
# Largest coordinate for int64 kernels: |det(v1, v2, v3)| <= 6 * coord^3 < 2^63.
_INT64_COORD = 1 << 20
# A short-vector ball: the record array of q = g[v] and v, 32 B per row.
_BALL = np.dtype([("q", np.int64), ("v", np.int64, (3,))])
# A row of forms: the fields of key(), 48 B per row.
_KEY = np.dtype([(name, np.int64) for name in ("t1", "t2", "t3", "b12", "b13", "b23")])


def _pairwise_reduced(g):
    """(h, u), h = u^T g u with u unimodular and all 2|h_ij| <= h_jj, for g > 0:
    each step b_i -= k b_j, k the integer nearest h_ij / h_jj, lowers h_ii."""
    h, u, changed = [row[:] for row in g], il.identity(3), True
    while changed:
        changed = False
        for i, j in permutations(range(3), 2):
            if 2 * abs(h[i][j]) > h[j][j]:
                k = (2 * h[i][j] + h[j][j]) // (2 * h[j][j])
                h[i] = [x - k * y for x, y in zip(h[i], h[j])]
                for row, x in zip(h, h[i]):
                    row[i] = x
                h[i][i] -= k * h[i][j]
                for row in u:
                    row[i] -= k * row[j]
                changed = True
    return h, u


def short_vectors_gram(g, bound):
    """All integer v != 0 with g[v] <= bound, as an int64 record array with
    fields q = g[v] and v (3 entries), sorted by (q, v); by Fincke-Pohst
    enumeration on a pairwise-reduced basis of the positive-definite 3x3
    integer g (its float LDL stays accurate when g is skewed).

    The ranges are built level by level as arrays, with slack, _CHUNK rows at
    a time; every level is counted before a leaf is built (above MAX_WORK
    candidates on one level, or MAX_BALL leaves, the ball is refused); each
    candidate's value is checked exactly (int64 where no partial sum can
    overflow, else Python ints), so ``bound`` may be floored.
    """
    return _short_vectors(g, bound)


def _short_vectors(g, bound, count=False):
    """short_vectors_gram(g, bound), or (count) only the leaves its enumeration
    counts, more than its rows, with none built."""
    g = [[index(x) for x in row] for row in g]
    bound = floor(Fraction(bound))
    if bound <= 0:
        return 0 if count else np.empty(0, _BALL)
    if not _positive_definite(g):
        raise NotPositiveDefinite("matrix is not positive definite")
    return _fincke_pohst(*_pairwise_reduced(g), bound, count)


def _fincke_pohst(h, u, bound, count=False):
    """short_vectors_gram(g, bound), bound an int > 0, as v = u w with h[w] <= bound
    for the pairwise-reduced h = u^T g u; or (count) only its counted leaves."""
    if bound > 1 << 62:
        raise DomainError("short-vector bound above 2^62")
    try:
        chol = np.linalg.cholesky(np.array(h, dtype=float))
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("LDL pivot <= 0") from None
    d, r = np.diag(chol) ** 2, (chol / np.diag(chol)).T  # h = r^T diag(d) r
    slack = 1e-6 * (1.0 + bound)

    def ranges(nodes, level, counts):
        """Each node's range of the next coordinate; their sizes add to counts[level]."""
        _, c, rem = nodes
        radius = np.sqrt(np.maximum(rem, 0.0) / d[level])
        lo = np.trunc(-c[:, level] - radius - 1.0).astype(np.int64)
        n = np.trunc(-c[:, level] + radius + 1.0).astype(np.int64) + 1 - lo
        counts[level] += int(n.sum())
        if counts[level] > MAX_WORK:
            raise DomainError("more than %d candidate vectors with g[v] <= %d" % (MAX_WORK, bound))
        return lo, n, np.cumsum(n)

    def chunks(nodes, level, counts):
        """The children (w, centers, remainders) of nodes in the ball, _CHUNK at a time."""
        (v, c, rem), (lo, n, ends) = nodes, ranges(nodes, level, counts)
        rows = int(n.sum())
        for start in range(0, rows, _CHUNK):
            i = np.arange(start, min(start + _CHUNK, rows))
            p = np.searchsorted(ends, i, side="right")
            x = lo[p] + i - (ends[p] - n[p])
            contrib = d[level] * (x + c[p, level]) ** 2
            keep = contrib <= rem[p] + slack
            p, x = p[keep], x[keep]
            w = v[p]
            w[:, level] = x
            yield w, c[p] + np.outer(x, r[:, level]), rem[p] - contrib[keep]

    def mids(counts):
        root = np.zeros((1, 3), np.int64), np.zeros((1, 3)), np.array([bound + slack])
        return (mid for top in chunks(root, 2, counts) for mid in chunks(top, 1, counts))

    counts, kept = [0, 0, 0], []
    for mid in mids(counts):  # count every level before a leaf is built
        ranges(mid, 0, counts)
        if counts[1] <= _CHUNK:  # a ball of few rows keeps them
            kept.append(mid)
    if counts[0] > MAX_BALL:
        raise DomainError("%d candidate vectors with g[v] <= %d, above the ball ceiling of %d"
                          % (counts[0], bound, MAX_BALL))
    if count:
        return counts[0]
    hsum, umax = sum(abs(x) for row in h for x in row), max(map(abs, chain(*u)))
    ball, end = np.empty(counts[0], _BALL), 0  # pages are touched row by row
    for mid in kept if counts[1] <= _CHUNK else mids([0, 0, 0]):
        for w, _, _ in chunks(mid, 0, [0, 0, 0]):
            w = w[w.any(axis=1)]
            m = int(np.abs(w).max(initial=1))
            if hsum * m * m >= 1 << 63 or 3 * umax * m >= 1 << 63:
                w = w.astype(object)
            q = ((w @ np.array(h, dtype=w.dtype)) * w).sum(axis=1)
            keep = q <= bound
            rows = slice(end, end + int(np.count_nonzero(keep)))
            ball["q"][rows], ball["v"][rows] = q[keep], w[keep] @ np.array(u, dtype=w.dtype).T
            end = rows.stop
    ball = ball[:end]
    return ball[np.lexsort((*ball["v"].T[::-1], ball["q"]))]


def _ball(t, reduce_basis=False):
    """Values and vectors of (2T)[v] <= R, R the max diag of 2T, or (reduce_basis)
    of its pairwise-reduced basis h, still >= lambda3, whose ball is enumerated
    on h as it stands.  int64 below _INT64_COORD and 2T < 2^62, where each value
    bounded by R (Cauchy-Schwarz) is exact."""
    if not t.is_positive_definite():
        raise NotPositiveDefinite("form is not positive definite")
    if reduce_basis:
        h, u = _pairwise_reduced(t.gram2())
        ball = _fincke_pohst(h, u, max(h[0][0], h[1][1], h[2][2]))
    else:  # the public enumerator reduces the basis itself
        ball = short_vectors_gram(t.gram2(), 2 * max(t.t1, t.t2, t.t3))
    q, v = ball["q"], ball["v"]
    int64 = np.abs(v).max() < _INT64_COORD and max(t.t1, t.t2, t.t3) < 1 << 61
    return q, v if int64 else v.astype(object)


def first_nonzero_positive(v):
    """Mask of the rows of an (N, 3) integer array whose first nonzero entry
    is positive: one of each pair +-v."""
    return np.where(v[:, 0] != 0, v[:, 0], np.where(v[:, 1] != 0, v[:, 1], v[:, 2])) > 0


_SIGNS = np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)])


def _least(q, pool):
    """Row and column of every least-q member of each row of the mask pool."""
    m = np.where(pool, q, q[-1] + 1).min(axis=1)
    return np.nonzero(pool & (q == m[:, None]))


def minkowski_reduce(t, cover=None):
    """Canonical Minkowski-reduced representative of the class of T.

    Greedy successive minima specialized to rank 3, followed by sign
    normalization (b12 >= 0, b23 >= 0) and a lexicographic tie-break over all
    minimizing bases, which makes the output class-canonical and idempotent.
    In rank 3 these are the minima, so one ball (2T)[v] <= R >= lambda3 holds
    the pools (minimal v, then gcd(v1 x v) = 1, then |(v1 x v2) . v| = 1); keys
    come from bilinear products, the first least in (v1, v2, v3, sign) order wins.
    A set passed as ``cover`` gets the key of every candidate T[U] with b12,
    b23 >= 0 the search met; all of them are in the class of T.
    """
    q, v = _ball(t, reduce_basis=True)
    sign = first_nonzero_positive(v)
    q, v = q[sign], v[sign]  # one sign, still sorted by (q, v)
    i1 = np.flatnonzero(q == q[0])
    r, i2 = _least(q, np.gcd.reduce(il.cross3(v[i1].T[:, :, None], v.T[:, None, :])) == 1)
    i1 = i1[r]
    r, i3 = _least(q, abs(np.stack(il.cross3(v[i1].T, v[i2].T), axis=1) @ v.T) == 1)
    i1, i2 = i1[r], i2[r]
    gv = v @ np.array(t.gram2(), dtype=v.dtype)
    b = np.stack([(gv[i] * v[j]).sum(axis=1) for i, j in ((i1, i2), (i1, i3), (i2, i3))], axis=1)
    b = b[:, None, :] * (_SIGNS[:, [0, 0, 1]] * _SIGNS[:, [1, 2, 2]])  # 4 c + s: triple c, sign s
    diag = np.repeat(np.stack([q[i1], q[i2], q[i3]], axis=1) // 2, 4, axis=0)
    keys = np.concatenate([diag, b.reshape(-1, 3)], axis=1)
    ok = np.flatnonzero((keys[:, 3] >= 0) & (keys[:, 5] >= 0))
    best = ok[np.lexsort(keys[ok].T[::-1])[0]]  # stable: the first least key
    c, e = best // 4, _SIGNS[best % 4]
    u = v[[i1[c], i2[c], i3[c]]].tolist()
    red = ReducedForm(form=HalfIntegralForm(*keys[best].tolist()),
                      reducer=tuple(tuple(int(e[j]) * u[j][k] for j in range(3)) for k in range(3)))
    if not red.satisfies_inequalities():
        raise AssertionError("reduction produced a non-reduced form: %r" % (red.form,))
    if cover is not None:
        cover.update(map(tuple, keys[ok].tolist()))
    return red


@lru_cache(maxsize=None)
def automorphism_count(t):
    """eps_T = #{g in SL3(Z) : T[g] = T}, counted on T itself by exact search:
    the columns c_j of g have (2T)[c_j] = (2T)_jj, so they lie in one ball,
    their bilinear products are the off-diagonal of 2T, and det g =
    (c1 x c2) . c3 = 1."""
    q, v = _ball(t)
    g = t.gram2()
    gm = np.array(g, dtype=v.dtype)
    c1, c2, c3 = (v[q == g[j][j]] for j in range(3))
    i, j = np.nonzero(c1 @ gm @ c2.T == g[0][1])
    ok = (c1[i] @ gm @ c3.T == g[0][2]) & (c2[j] @ gm @ c3.T == g[1][2])
    det = np.stack(il.cross3(c1[i].T, c2[j].T), axis=1) @ c3.T
    return int(np.count_nonzero(ok & (det == 1)))


def _diagonal_runs(trace_bound, size=_CHUNK, stop=inf):
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


def _definite_rows(t1, t2, t3, lo, hi, det2_max=inf):
    """The forms (t1, t2, t3, b12, b13, b23) with lo <= b <= hi entrywise and
    0 < det(2T) <= det2_max, as an int64 N x 6 array of key() rows in
    lexicographic order.  For a box where 2 t1 and 4 t1 t2 - b12^2 are
    positive, the exact det(2T) > 0 decides definiteness."""
    b12, b13, b23 = np.ogrid[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1, lo[2]:hi[2] + 1]
    det2 = (8 * t1 * t2 * t3 + 2 * b12 * b13 * b23
            - 2 * t1 * b23 * b23 - 2 * t2 * b13 * b13 - 2 * t3 * b12 * b12)
    b = np.argwhere((det2 > 0) & (det2 <= det2_max)) + lo
    return np.column_stack([np.full((len(b), 3), (t1, t2, t3)), b])


def enumerate_J(trace_bound, run=None):
    """All positive-definite half-integral forms with trace <= trace_bound,
    sorted by key().  Given one run of _diagonal_runs(trace_bound), only the
    forms on its diagonals, as an int64 record array with the fields of key()
    in key() order, which the fast side of the summation identity reads run
    by run.  The box keeps b_ij^2 < 4 t_i t_j."""
    if run is None:
        return [HalfIntegralForm(*row) for run in _diagonal_runs(trace_bound)[0]
                for row in enumerate_J(trace_bound, run).tolist()]
    rows = np.concatenate([_definite_rows(t1, t2, t3, (-a12, -a13, -a23), (a12, a13, a23))
                           for t1, t2, t3, a12, a13, a23 in run])
    return rows.view(_KEY)[:, 0].view(np.recarray)


def reduced_classes(det_bound):
    """One canonical representative per GL3(Z)-class with det T <= det_bound.

    Enumerates the reduced inequality box (with margin over the classical
    bound t1 t2 t3 <= 2 det T), canonicalizes and dedupes; a box form that an
    earlier reduction met as a candidate is in a known class and is skipped.
    A box of more than MAX_WORK candidates is refused before any reduction.
    """
    return list(_reduced_classes_cached(Fraction(det_bound)))


@lru_cache(maxsize=32)
def _reduced_classes_cached(det_bound):
    box, diagonals, work = floor(4 * det_bound), [], 0  # t1 <= t2 <= t3, t1 t2 t3 <= 4 det T
    for t1 in range(1, box + 1):
        for t2 in range(t1, isqrt(box // t1) + 1):
            diagonals.append((t1, t2, range(t2, box // (t1 * t2) + 1)))
            work += len(diagonals[-1][2]) * (t1 + 1) * (2 * t1 + 1) * (t2 + 1)
            if work > MAX_WORK:
                raise DomainError("more than %d candidate forms with det T <= %s"
                                  % (MAX_WORK, det_bound))
    seen, covered, det2_max = {}, set(), floor(8 * det_bound)
    for t1, t2, t3s in diagonals:  # b12 <= t1 <= t2 keeps 4 t1 t2 - b12^2 > 0
        for t3 in t3s:
            for key in _definite_rows(t1, t2, t3, (0, -t1, 0), (t1, t1, t2), det2_max).tolist():
                if tuple(key) not in covered:
                    red = minkowski_reduce(HalfIntegralForm(*key), cover=covered)
                    seen.setdefault(red.form.key(), red.form)
    return tuple(sorted(seen.values(), key=lambda f: (f.det(), f.key())))
