"""Exact integer matrix helpers shared by the lattice and symplectic layers.

Matrix products, transposes and block layouts are numpy's: integer arrays
that are int64 only while every product formed stays below 2^63, and exact
Python ints (dtype=object) otherwise (``exact_array`` picks).  What numpy
does not provide lives here: the 3x3 determinant, cross product, adjugate
and bilinear value (on lists, arrays or floats alike), the row Hermite
normal form of one matrix (``hnf_row``, list code on Python ints) or of a
stack (``hnf_rows``), the Smith normal form, and the GL3(Z) enumeration.
No overflow and no tolerance anywhere.
"""

from __future__ import annotations

from itertools import product

import numpy as np

# hnf_rows keeps every int64 entry below this, so that q * b < 2^62
_HNF_GUARD = 2**31


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
    ``[0, pivot)``, rows below a pivot are zero in its column.  This list
    version serves single matrices, as ``canonical_pair`` and the symplectic
    completion take one pair at a time: a 3 x 6 block takes ~23 us here
    against ~780 us for a one-lane ``hnf_rows`` call (2-vCPU Xeon, numpy
    2.4); ``hnf_rows`` serves stacks.
    """
    h = [list(row) for row in mat]
    nrows, ncols = len(h), len(h[0])
    u = identity(nrows)
    pivot_row = 0
    for col in range(ncols):
        if pivot_row >= nrows:
            break
        # clear the column below pivot_row by gcd steps
        while True:
            nz = [r for r in range(pivot_row + 1, nrows) if h[r][col] != 0]
            if not nz:
                break
            rows = [r for r in range(pivot_row, nrows) if h[r][col] != 0]
            r_min = min(rows, key=lambda r: abs(h[r][col]))
            if r_min != pivot_row:
                h[pivot_row], h[r_min] = h[r_min], h[pivot_row]
                u[pivot_row], u[r_min] = u[r_min], u[pivot_row]
            p = h[pivot_row][col]
            for r in range(pivot_row + 1, nrows):
                if h[r][col] != 0:
                    q = h[r][col] // p
                    if q:
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


def hnf_rows(stack):
    """Row HNFs of an (N, n, m) integer stack: lane i is ``hnf_row(stack[i])[0]``.

    The gcd steps run on all lanes at once under per-lane masks, each lane
    with its own pivot row.  Entries stay below 2^31 in int64 after every
    step, so q * b cannot wrap; a lane that starts or lands past that bound
    is finished exactly by the list ``hnf_row``, and the result is then an
    object array.  The row HNF is unique, so both paths give the same matrix.
    The array path pays off only for many lanes (see ``hnf_row``).
    """
    a = exact_array(stack, 2**63)
    lost = ((a >= _HNF_GUARD) | (a <= -_HNF_GUARD)).any(axis=(1, 2))
    h = np.where(lost[:, None, None], 0, a).astype(np.int64, copy=False)
    nrows, ncols = h.shape[1:]
    rows = np.arange(nrows)
    pivot = np.zeros(len(h), dtype=np.intp)

    def reduce(g, t, lanes, by, mask, col):
        # on the mask rows of g[lanes]: subtract floor(entry / pivot) * row ``by``
        gl, k = g[lanes], np.arange(len(lanes))
        q = gl[:, :, col] // gl[k, by, col][:, None]
        gl -= np.where(mask, q, 0)[:, :, None] * gl[k, by][:, None]
        over = abs(gl).max(axis=(1, 2)) >= _HNF_GUARD
        gl[over], lost[t[lanes[over]]] = 0, True
        g[lanes] = gl

    for col in range(ncols):
        t = np.flatnonzero(pivot < nrows)
        g, p, k = h[t], pivot[t], np.arange(len(t))
        above = rows < p[:, None]
        # Euclid on the rows at or below the pivot row: reduce the others by
        # the smallest nonzero |entry| until one nonzero is left
        while (s := np.flatnonzero(((g[:, :, col] != 0) & ~above).sum(axis=1) > 1)).size:
            x = g[s, :, col]
            r = np.where((x != 0) & ~above[s], abs(x), _HNF_GUARD).argmin(axis=1)
            reduce(g, t, s, r, ~above[s] & (rows != r[:, None]), col)
        # move it up to the pivot row, make it positive, reduce the rows above
        x = g[:, :, col]
        found = ((x != 0) & ~above).any(axis=1)
        r = np.where(found, ((x != 0) & ~above).argmax(axis=1), p)
        w = np.flatnonzero(r != p)
        g[w, p[w]], g[w, r[w]] = g[w, r[w]], g[w, p[w]]
        neg = np.flatnonzero(g[k, p, col] < 0)
        g[neg, p[neg]] *= -1
        f = np.flatnonzero(found & ((x != 0) & above).any(axis=1))
        reduce(g, t, f, p[f], above[f], col)
        h[t], pivot[t] = g, p + found
    if lost.any():
        h = h.astype(object)
        h[lost] = [hnf_row(m)[0] for m in a[lost].tolist()]
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
        i2, i3 = np.nonzero(abs(np.cross(v1, v) @ v.T) == 1)
        out.append(np.stack([np.broadcast_to(v1, (len(i2), 3)), v[i2], v[i3]], axis=2))
    return np.concatenate(out) if out else np.zeros((0, 3, 3), dtype=np.int64)
