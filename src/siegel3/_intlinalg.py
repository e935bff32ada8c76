"""Exact integer matrix helpers shared by the lattice and symplectic layers.

Matrix products, transposes and block layouts are numpy's: integer arrays
that are int64 only while every product formed stays below 2^63, and exact
Python ints (dtype=object) otherwise (``exact_array`` picks).  What numpy
does not provide lives here: the 3x3 determinant, cross product, adjugate
and bilinear value (on lists, arrays or floats alike), the maximal minors of
a stack (``minors``), the row Hermite normal form (``hnf_row``, one Euclid in
list code on Python ints, one scan of the column per step; ``hnf_rows`` gives a
stack in closed form where every pivot is 1, the other lanes by ``hnf_row``),
the Smith normal form, and the GL3(Z) enumeration.  No overflow and no
tolerance anywhere.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def det3(a):
    c = cross3(a[1], a[2])
    return a[0][0] * c[0] + a[0][1] * c[1] + a[0][2] * c[2]


def cross3(a, b):
    """Cross product of two integer 3-vectors, as a tuple."""
    return a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]


def bilinear3(g, v, w):
    """The value v . g . w of a 3x3 matrix on two 3-vectors."""
    return sum(v[i] * g[i][j] * w[j] for i in range(3) for j in range(3))


def adj3(a):
    """Adjugate of a 3x3 matrix, so that a @ adj3(a) == det3(a) * I: its columns
    are the cross products of the row pairs."""
    return [list(row) for row in zip(cross3(a[1], a[2]), cross3(a[2], a[0]), cross3(a[0], a[1]))]


def exact_array(values, bound):
    """Integer array of ``values``: int64 when every |entry| < bound, else
    exact Python ints (dtype=object).  The caller picks the bound that keeps
    its products inside int64."""
    try:
        a = np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)
    return a if ((a < bound) & (a > -bound)).all() else a.astype(object)


def hnf_row(mat):
    """Row-style Hermite normal form of an integer matrix.

    Returns ``(h, u)`` with ``u`` unimodular and ``u @ mat == h``.  Pivots are
    positive and leftmost possible, entries above a pivot are reduced into
    ``[0, pivot)``, rows below a pivot are zero in its column.  The one
    Euclid of the package: ``canonical_pair`` and the symplectic completion
    take one matrix at a time here, and ``hnf_rows`` the lanes of a stack
    that its closed form does not cover.
    """
    h = [list(row) for row in mat]
    nrows, ncols = len(h), len(h[0])
    u = identity(nrows)
    pivot_row = 0
    for col in range(ncols):
        if pivot_row >= nrows:
            break
        # clear the column below pivot_row by gcd steps, each from one scan of it
        while True:
            r_min = last = -1
            for r in range(pivot_row, nrows):
                if a := abs(h[r][col]):
                    if r_min < 0 or a < least:
                        r_min, least = r, a
                    last = r
            if last <= pivot_row:
                break
            if r_min != pivot_row:
                h[pivot_row], h[r_min] = h[r_min], h[pivot_row]
                u[pivot_row], u[r_min] = u[r_min], u[pivot_row]
            p = h[pivot_row][col]
            for r in range(pivot_row + 1, nrows):
                if q := h[r][col] // p:
                    h[r] = [x - q * y for x, y in zip(h[r], h[pivot_row])]
                    u[r] = [x - q * y for x, y in zip(u[r], u[pivot_row])]
        if h[pivot_row][col] == 0:
            continue
        if h[pivot_row][col] < 0:
            h[pivot_row] = [-x for x in h[pivot_row]]
            u[pivot_row] = [-x for x in u[pivot_row]]
        p = h[pivot_row][col]
        for r in range(pivot_row):
            q = h[r][col] // p
            if q:
                h[r] = [x - q * y for x, y in zip(h[r], h[pivot_row])]
                u[r] = [x - q * y for x, y in zip(u[r], u[pivot_row])]
        pivot_row += 1
    return h, u


def minors(a, picks):
    """The n x n minors of an (..., n, m) integer array a (n <= 3) on each
    column choice in the rows of ``picks`` (P x n): an (..., P) array, exact
    while the products of n entries fit the dtype of a."""
    s = np.moveaxis(a[..., np.asarray(picks)], (-3, -1), (0, 1))  # (n, n, ..., P)
    if len(s) == 3:
        return det3(s)
    return s[0][0] * s[1][1] - s[0][1] * s[1][0] if len(s) == 2 else s[0][0]


def hnf_rows(stack):
    """Row HNFs of an (N, 3, m) integer stack: lane i is ``hnf_row(stack[i])[0]``.

    The pivot columns of a rank-3 lane are the first column triple J, in
    ``combinations`` order, whose minor p_J is nonzero, and the pivots
    multiply to |p_J|.  So where |p_J| = 1 every pivot is 1 and the HNF is
    A_J^(-1) A = p_J adj(A_J) A.  The minors are taken triple by triple on
    the lanes with none nonzero yet; every other lane (a pivot above 1, or
    rank < 3) is finished by the list ``hnf_row``.  Entries below 2^19 keep
    minors and adj(A_J) A inside int64, larger ones run on Python ints; the
    result is an object array when a lane of it leaves int64.
    """
    a = exact_array(stack, 2**19)
    h = np.zeros_like(a)
    done = np.zeros(len(a), dtype=bool)
    lanes, rest = np.arange(len(a)), a
    for cols in combinations(range(a.shape[2]), 3):
        if not lanes.size:
            break
        p = minors(rest, [cols])[:, 0]
        unit = np.flatnonzero(abs(p) == 1)
        au = rest[unit]
        adj = np.moveaxis(p[unit] * np.array(adj3(np.moveaxis(au[:, :, cols], 0, -1))), -1, 0)
        h[lanes[unit]], done[lanes[unit]] = adj @ au, True
        lanes, rest = lanes[p == 0], rest[p == 0]
    fallback = ~done
    if fallback.any():
        rows = exact_array([hnf_row(m)[0] for m in a[fallback].tolist()], 2**63)
        h = h.astype(np.result_type(h, rows), copy=False)
        h[fallback] = rows
    return h


def snf(mat):
    """Smith normal form with transforms: returns (s, u, v), u @ mat @ v == s.

    ``u`` and ``v`` are unimodular; ``s`` is diagonal with s[i][i] | s[i+1][i+1].
    No library path calls it: the tests build their reference completion from it.
    """
    s = [list(row) for row in mat]
    nrows, ncols = len(s), len(s[0])
    u = identity(nrows)
    v = identity(ncols)

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        s[dst] = [x + q * y for x, y in zip(s[dst], s[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in s:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    k = 0
    while k < min(nrows, ncols):
        # find a nonzero pivot in the remaining block
        found = None
        for i in range(k, nrows):
            for j in range(k, ncols):
                if s[i][j] != 0:
                    found = (i, j)
                    break
            if found:
                break
        if not found:
            break
        i0, j0 = min(((i, j) for i in range(k, nrows) for j in range(k, ncols) if s[i][j] != 0),
                     key=lambda t: abs(s[t[0]][t[1]]))
        swap_rows(k, i0)
        swap_cols(k, j0)
        # eliminate row and column k; restart if a remainder shrinks the pivot
        while True:
            p = s[k][k]
            dirty = False
            for i in range(k + 1, nrows):
                if s[i][k] != 0:
                    add_row(i, k, -(s[i][k] // p))
                    if s[i][k] != 0:
                        swap_rows(k, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(k + 1, ncols):
                if s[k][j] != 0:
                    add_col(j, k, -(s[k][j] // p))
                    if s[k][j] != 0:
                        swap_cols(k, j)
                        dirty = True
                        break
            if not dirty:
                break
        if s[k][k] < 0:
            s[k] = [-x for x in s[k]]
            u[k] = [-x for x in u[k]]
        # enforce divisibility s[k][k] | s[i][j] for the trailing block
        p = s[k][k]
        bad = None
        for i in range(k + 1, nrows):
            for j in range(k + 1, ncols):
                if s[i][j] % p != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(k, bad, 1)
            continue
        k += 1
    return s, u, v


def unimodular_matrices(max_entry, max_norm2=None):
    """The int64 (N, 3, 3) stack of all U in GL3(Z) with entries in
    [-max_entry, max_entry] and, if max_norm2 is given, columns of squared
    euclidean norm <= max_norm2, ordered lexicographically by (col1, col2, col3)."""
    v = np.array(list(product(range(-max_entry, max_entry + 1), repeat=3)), dtype=np.int64)
    norm2 = (v * v).sum(axis=1)
    v = v[(0 < norm2) & (norm2 <= (3 * max_entry**2 if max_norm2 is None else max_norm2))]
    out = []
    for v1 in v:
        # det [v1 v2 v3] for every (v2, v3), one (len, len) slab per v1
        i2, i3 = np.nonzero(abs(np.transpose(cross3(v1, v.T)) @ v.T) == 1)
        out.append(np.stack([np.broadcast_to(v1, (len(i2), 3)), v[i2], v[i3]], axis=2))
    return np.concatenate(out) if out else np.zeros((0, 3, 3), dtype=np.int64)
