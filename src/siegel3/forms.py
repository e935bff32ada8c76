"""Half-integral ternary forms: enumeration, Minkowski reduction, automorphisms.

A half-integral form T stores (t1, t2, t3, b12, b13, b23) with integer
diagonal and doubled off-diagonals, i.e. the matrix

    [[t1,    b12/2, b13/2],
     [b12/2, t2,    b23/2],
     [b13/2, b23/2, t3   ]].

All results in this module are exact: the doubled Gram matrix 2T has integer
entries, (2T)[v] is an even integer, and dets/reductions use integers only
(int64 arrays where no overflow can occur, Python ints and fractions else).
eps_T is the tie count of a reduction lane, recorded under each lane's reduced
key and a one-form reduction's input (acceptance holds the exhaustive oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import permutations
from math import floor, inf, isqrt
from operator import index

import numpy as np

from . import _intlinalg as il
from .errors import MAX_BALL, MAX_WORK, DomainError, NotPositiveDefinite, finite_bound


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
    """T[U] = t(U) T U for integer U; exact on half-integral forms (Python ints)."""
    u = np.asarray(u).astype(object)
    return form_from_gram2((u.T @ np.array(t.gram2(), dtype=object) @ u).tolist())


@dataclass(frozen=True)
class ReducedForm:
    form: HalfIntegralForm
    reducer: tuple  # U with T[U] == form


# --- exact lattice point enumeration ----------------------------------------

# Candidate vectors, or forms, built as one array; also the least candidate
# forms per run of diagonals on the fast side of the summation identity.
_CHUNK = 1 << 17
# Lanes per stack when the class box is reduced: 32 keep its working set under 1 MB
# at det T <= 20.
_LANES = 32
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
            hij, hjj = h[i][j], h[j][j]
            if 2 * abs(hij) > hjj:
                k = (2 * hij + hjj) // (2 * hjj)
                hi = h[i] = [x - k * y for x, y in zip(h[i], h[j])]
                for row, x in zip(h, hi):
                    row[i] = x
                hi[i] -= k * hi[j]
                for row in u:
                    row[i] -= k * row[j]
                changed = True
    return h, u


def short_vectors_gram(g, bound):
    """All integer v != 0 with g[v] <= bound, as an int64 record array with fields
    q = g[v] and v (3 entries), sorted by (q, v): one lane of _fincke_pohst on a
    pairwise-reduced basis of the 3x3 integer g > 0 (so its float LDL stays
    accurate when g is skewed); values are checked exactly, bound may be floored."""
    return _short_vectors(g, bound)


def _short_vectors(g, bound, count=False):
    """short_vectors_gram(g, bound), or (count) its counted leaves, none built."""
    g, bound = [[index(x) for x in row] for row in g], floor(finite_bound(bound))
    if bound <= 0:
        return 0 if count else np.empty(0, _BALL)
    if not _positive_definite(g):
        raise NotPositiveDefinite("matrix is not positive definite")
    out = _fincke_pohst(*il.exact_array(_pairwise_reduced(g), 1 << 63)[:, None], [bound], count)
    return int(out[0]) if count else out[1]


def _fincke_pohst(h, u, bound, count=False):
    """Short-vector balls of a stack of lanes: lane i holds every v = u_i w != 0
    with h_i[w] <= bound_i (h, u: (N, 3, 3) integer stacks, h_i = u_i^T g_i u_i
    pairwise reduced, so q = g_i[v]), as (lane, ball) sorted by (lane, q, v), or
    (count) each lane's counted leaves.  With h = L L^T, h[w] = sum_k d_k (w_k +
    c_k)^2, d_k = L_kk^2, c_k = sum_(j>k) a_jk w_j; a node of level k holds its
    lane, w_2 .. w_(k+1) and remainder.  Ranges have slack and are built _CHUNK
    rows at a time; each level is counted per lane (above MAX_WORK candidates on
    one, or MAX_BALL leaves, the stack is refused) before a leaf is built."""
    if max(bound) > 1 << 62:
        raise DomainError("short-vector bound above 2^62")
    bound = np.array(bound, dtype=np.int64)
    try:
        chol = np.linalg.cholesky(h.astype(float))
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("LDL pivot <= 0") from None
    diag = chol.diagonal(axis1=1, axis2=2)
    d, a = (diag ** 2).T.copy(), (chol / diag[:, None, :]).transpose(1, 2, 0).copy()
    slack = 1e-6 * (1.0 + bound)

    def ranges(node, k, counts):
        """The centre c_k and range (lo, size) of w_k at each node, counted."""
        lane, cols, rem = node
        c = sum((x * a[2 - j, k][lane] for j, x in enumerate(cols)), np.zeros(len(lane)))
        radius = np.sqrt(np.maximum(rem, 0.0) / d[k][lane])
        lo = (-c - radius - 1.0).astype(np.int64)
        n = (-c + radius + 1.0).astype(np.int64) + 1 - lo
        counts[k] += np.bincount(lane, n, len(bound))
        if counts[k].max() > MAX_WORK:
            raise DomainError("more than %d candidate vectors with g[v] <= %d"
                              % (MAX_WORK, bound[np.argmax(counts[k] > MAX_WORK)]))
        return c, lo, n

    def descend(nodes, k, counts):
        """The children in the ball of (node, ranges) pairs of level k, counted."""
        for (lane, cols, rem), (c, lo, n) in nodes:
            ends = n.cumsum()
            first, tol, dk = ends - n - lo, rem + slack[lane], d[k][lane]
            for start in range(0, int(ends[-1]) if len(ends) else 0, _CHUNK):
                p = ends.searchsorted(i := np.arange(start, min(start + _CHUNK, ends[-1])), "right")
                x = i - first[p]
                term = dk[p] * (x + c[p]) ** 2
                p, x, term = p[keep := term <= tol[p]], x[keep], term[keep]
                child = lane[p], [col[p] for col in cols] + [x], k and rem[p] - term
                yield child, k and ranges(child, k - 1, counts)

    def mids(counts):  # the nodes of level 0, with their ranges
        root = np.arange(len(bound)), [], bound + slack
        return descend(descend([(root, ranges(root, 2, counts))], 2, counts), 1, counts)

    counts = np.zeros((3, len(bound)))
    kept = [mid for mid in mids(counts) if counts[1].sum() <= _CHUNK]  # few rows are kept
    if counts[0].max() > MAX_BALL:
        over = np.argmax(counts[0] > MAX_BALL)
        raise DomainError("%d candidate vectors with g[v] <= %d, above the ball ceiling of %d"
                          % (counts[0][over], bound[over], MAX_BALL))
    if count:
        return counts[0].astype(np.int64)
    hsum, umax, end = np.abs(h).sum(dtype=float), float(np.abs(u).max()), 0  # over all lanes
    ball, lanes = np.empty(total := int(counts[0].sum()), _BALL), np.empty(total, np.intp)
    leaves = descend(kept if counts[1].sum() <= _CHUNK else mids(counts * 0), 0, counts)
    for (lp, cols, _), _ in leaves:  # the pages of ball are touched row by row
        w = np.array(cols[::-1]).T
        m = int(np.abs(w).max(initial=1))
        if max(hsum * m, 3 * umax) * m >= 2.0 ** 62:  # in floats, with a factor 2 to spare
            w = w.astype(object)  # a partial sum could leave int64: exact ints
        sel = lp[:1] if lp.size and lp[0] == lp[-1] else lp  # a one-lane chunk gathers nothing
        q = (w[:, None, :] @ h[sel] @ w[:, :, None])[:, 0, 0]
        keep = (q <= bound[lp]) & (q > 0)  # q = 0 only at w = 0
        rows = slice(end, end + int(np.count_nonzero(keep)))
        ball["q"][rows], lanes[rows] = q[keep], lp[keep]
        ball["v"][rows] = (u[sel] @ w[:, :, None])[keep, :, 0]
        end = rows.stop
    order = np.lexsort((*ball["v"][:end].T[::-1], ball["q"][:end], lanes[:end]))
    return lanes[order], ball[order]


def _exact(v, top):
    """v, as Python ints unless |v| < _INT64_COORD and top = max diag T < 2^61."""
    return v if abs(v).max(initial=0) < _INT64_COORD and top < 1 << 61 else v.astype(object)


def first_nonzero_positive(v):
    """Mask of the rows of an (N, 3) integer array whose first nonzero entry
    is positive: one of each pair +-v."""
    return np.where(v[:, 0] != 0, v[:, 0], np.where(v[:, 1] != 0, v[:, 1], v[:, 2])) > 0


_SIGNS = np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)])
_EPS = {}  # key() -> eps, recorded under each lane's key and each one-form input


def _is_reduced(t1, t2, t3, b12, b13, b23):
    """Minkowski's inequalities on a key, or on arrays of keys."""
    return ((1 <= t1) & (t1 <= t2) & (t2 <= t3) & (0 <= b12) & (b12 <= t1)
            & (abs(b13) <= t1) & (0 <= b23) & (b23 <= t2))


def _minkowski_lanes(g, h, u):
    """The int64 (N, 6) keys and (N, 3, 3) reducers U (T[U] = key) that
    minkowski_reduce gives for a stack of g = 2T > 0 with pairwise-reduced bases
    h = u^T g u: one Fincke-Pohst pass enumerates every ball at R = max diag h
    (>= lambda3), and the pools, least members and keys are grouped by lane.  The
    (basis, sign) rows that tie a lane's least key are one per pair +-U of T[U] =
    key, so they count eps(key), a class invariant recorded under each key."""
    lane, ball = _fincke_pohst(h, u, h.diagonal(axis1=1, axis2=2).max(axis=1))
    sign = first_nonzero_positive(ball["v"])
    lane, q = lane[sign], ball["q"][sign]  # one sign, still sorted by (lane, q, v)
    v = _exact(ball["v"][sign], g.diagonal(axis1=1, axis2=2).max() // 2)
    start = lane.searchsorted(np.arange(len(g) + 1))
    size, top = start[1:] - start[:-1], q.max() + 1

    def least(rows, pool):
        """(k, j): the least-q rows j of the lane of rows[k] with pool(k, j)."""
        n = size[lane[rows]]
        first = n.cumsum() - n
        k = np.arange(len(rows)).repeat(n)
        j = np.arange(len(k)) + (start[lane[rows]] - first).repeat(n)
        ok = pool(k, j)
        ok &= q[j] == np.minimum.reduceat(np.where(ok, q[j], top), first)[k]
        return k[ok], j[ok]

    i1 = (q == q[start[:-1]][lane]).nonzero()[0]
    k, i2 = least(i1, lambda k, j: reduce(np.gcd, il.cross3(v[i1[k]].T, v[j].T)) == 1)
    i1 = i1[k]
    n = np.array(il.cross3(v[i1].T, v[i2].T)).T
    k, i3 = least(i1, lambda k, j: abs((n[k] * v[j]).sum(axis=1)) == 1)
    idx = np.array([i1[k], i2[k], i3]).T  # (v1, v2, v3) of triple c, in order
    b = ((v[idx[:, [0, 0, 1]]] @ g[lane[idx[:, 0]]]) * v[idx[:, [1, 2, 2]]]).sum(axis=2)
    b = b.astype(np.int64, copy=False)[:, None, :] * (_SIGNS[:, [0, 0, 1]] * _SIGNS[:, [1, 2, 2]])
    keys = np.concatenate([(q[idx] // 2).repeat(4, axis=0), b.reshape(-1, 3)], axis=1)  # 4 c + sign
    ok = ((keys[:, 3] >= 0) & (keys[:, 5] >= 0)).nonzero()[0]
    by_lane = lane[idx[ok // 4, 0]]
    order = np.lexsort((*keys[ok].T[::-1], by_lane))  # stable: by lane, key, then (c, sign)
    best = ok[order[by_lane[order].searchsorted(np.arange(len(g)))]]  # each lane's first least
    if not _is_reduced(*keys[best].T).all():
        raise AssertionError("reduction produced a non-reduced form: %r" % (keys[best],))
    eps = np.bincount(by_lane[(keys[ok] == keys[best][by_lane]).all(axis=1)], minlength=len(g))
    _EPS.update(zip(map(tuple, keys[best].tolist()), eps.tolist()))
    return keys[best], v[idx[best // 4]].swapaxes(1, 2).astype(np.int64) * _SIGNS[best % 4, None]


def minkowski_reduce(t):
    """Canonical Minkowski-reduced representative of the class of T.

    Greedy successive minima specialized to rank 3, followed by sign
    normalization (b12 >= 0, b23 >= 0) and a lexicographic tie-break over all
    minimizing bases, which makes the output class-canonical and idempotent.
    In rank 3 these are the minima, so one ball (2T)[v] <= R >= lambda3 holds
    the pools (minimal v, then gcd(v1 x v) = 1, then |(v1 x v2) . v| = 1); keys
    come from bilinear products, the first least in (v1, v2, v3, sign) order
    wins.  One lane of _minkowski_lanes, whose eps is recorded under T's key too."""
    if not t.is_positive_definite():
        raise NotPositiveDefinite("form is not positive definite")
    g = t.gram2()
    keys, reducer = _minkowski_lanes(*il.exact_array([g, *_pairwise_reduced(g)], 1 << 63)[:, None])
    key = tuple(keys[0].tolist())
    _EPS[t.key()] = _EPS[key]
    return ReducedForm(HalfIntegralForm(*key), tuple(map(tuple, reducer[0].tolist())))


def reduce_keys(rows):
    """The distinct Minkowski keys of positive-definite key() rows whose 2T fit
    int64, reduced _LANES to a stack of _minkowski_lanes on pairwise-reduced bases."""
    g = np.array(rows)[:, [0, 3, 4, 3, 1, 5, 4, 5, 2]].reshape(-1, 3, 3) * (1 + np.identity(3, int))
    h, u = g.copy(), np.tile(np.eye(3, dtype=int), (len(g), 1, 1))
    for i in ((2 * abs(g) > g.diagonal(axis1=1, axis2=2)[:, None]).sum((1, 2)) > 3).nonzero()[0]:
        h[i], u[i] = _pairwise_reduced(g[i].tolist())  # the class box's rows need no step
    return {key for j in range(0, len(g), _LANES) for key in map(tuple, _minkowski_lanes(
        g[j:j + _LANES], h[j:j + _LANES], u[j:j + _LANES])[0].tolist())}


@lru_cache(maxsize=None)
def automorphism_count(t):
    """eps_T = #{g in SL3(Z) : T[g] = T}, exact: the count that a reduction lane
    recorded for T, after minkowski_reduce(T) if none has."""
    if t.key() not in _EPS:
        minkowski_reduce(t)
    return _EPS[t.key()]


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
    b12, b13, b23 = (np.arange(low, high + 1).reshape((-1,) + (1,) * k)  # an open grid
                     for low, high, k in zip(lo, hi, (2, 1, 0)))
    det2 = (8 * t1 * t2 * t3 + 2 * b12 * b13 * b23
            - 2 * t1 * b23 * b23 - 2 * t2 * b13 * b13 - 2 * t3 * b12 * b12)
    index = np.nonzero((det2 > 0) & (det2 <= det2_max))
    rows = np.empty((len(index[0]), 6), np.int64)
    rows[:, :3] = t1, t2, t3
    for col, i, low in zip(rows.T[3:], index, lo):
        np.add(i, low, out=col)
    return rows


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

    Enumerates the reduced inequality box (with margin over the classical bound
    t1 t2 t3 <= 2 det T), whose forms are their own pairwise-reduced bases, and
    dedupes reduce_keys of its definite forms, streamed: each lane records the
    eps_T of its class; a box of more than MAX_WORK candidates is refused before
    any reduction."""
    return list(_reduced_classes_cached(finite_bound(det_bound)))


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
    classes, rows = set(), np.empty((0, 6), np.int64)  # the box is never held whole
    for i, (t1, t2, t3s) in enumerate(diagonals, 1):  # b12 <= t1 <= t2: 4 t1 t2 > b12^2
        rows = np.concatenate([rows] + [_definite_rows(t1, t2, t3, (0, -t1, 0), (t1, t1, t2),
                                                       floor(8 * det_bound)) for t3 in t3s])
        done = len(rows) if i == len(diagonals) else len(rows) - len(rows) % _LANES  # whole stacks
        classes |= reduce_keys(rows[:done])
        rows = rows[done:]
    classes = (HalfIntegralForm(*k) for k in classes)
    return tuple(sorted(classes, key=lambda f: (f.det(), f.key())))
