"""Symmetric 3x3 matrix algebra, Siegel-space membership and symplectic actions.

Complex points of the degree-3 Siegel space are plain 3x3 numpy arrays laid
out as

    [[tau1, z1, z2],
     [z1, tau2, z3],
     [z2, z3, tau3]]

Integer-exact objects (symplectic matrices) never touch floating point.  They
are built and multiplied as numpy integer arrays, int64 while the products
fit and exact Python ints (dtype=object) otherwise.  The builders hand a
single matrix out as a list of lists of Python ints; a stack stays a
(..., 6, 6) array.  ``is_symplectic`` and ``mobius`` take either.
"""

from __future__ import annotations

import numpy as np

from . import _intlinalg as il
from .errors import DomainError, SingularDenominator

POSDEF_REL_TOL = 1e-12


def is_positive_definite(y):
    """Strict leading-minor test of the 2x2 or 3x3 D^(-1/2) Y D^(-1/2), D = diag Y > 0, with
    the relative tolerance POSDEF_REL_TOL: scale-free, so an ill-scaled diagonal passes."""
    y = np.asarray(y, dtype=float)
    if not (np.isfinite(y).all() and (np.diag(y) > 0).all()):
        return False
    d = np.sqrt(np.diag(y))
    c = y / np.outer(d, d)  # unit diagonal: a definite Y has |c_ij| < 1 off it, so no overflow
    if np.abs(c).max() >= 2:
        return False
    minors = (c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0],) + ((il.det3(c),) if len(c) == 3 else ())
    return all(m > POSDEF_REL_TOL for m in minors)


def is_siegel_point(z):
    """True iff z is symmetric with positive-definite imaginary part."""
    z = np.asarray(z, dtype=complex)
    if z.shape != (3, 3) or not np.abs(z - z.T).max() <= 1e-12 * (1 + np.abs(z).max()):
        return False
    return is_positive_definite(z.imag)


def siegel_point(z):
    """z as a complex 3x3 array; DomainError unless it is a Siegel point."""
    if not is_siegel_point(z):
        raise DomainError("Z is not in the Siegel upper half-space (symmetric with Im Z > 0)")
    return np.asarray(z, dtype=complex)


# --- symplectic layer (exact integers) -------------------------------------

# the standard symplectic form J = [[0, I], [-I, 0]] of size 6
SYMPLECTIC_J = np.kron([[0, 1], [-1, 0]], np.eye(3, dtype=np.int64))


def is_symplectic(m):
    """Exact integer check of t(M) @ J @ M == J, lane by lane on a stack.

    Each entry of t(M) J M sums six products of two entries of M, so entries
    below 2^30 are checked in int64 and larger ones as Python ints.
    """
    m = il.exact_array(m, 2**30)
    return (m.swapaxes(-1, -2) @ SYMPLECTIC_J @ m == SYMPLECTIC_J).all(axis=(-2, -1))


def inversion6():
    """The block matrix (0, -I; I, 0) = -J, acting as Z -> -Z^(-1)."""
    return (-SYMPLECTIC_J).tolist()


def translation6(s):
    """(I, S; 0, I) for integer symmetric S."""
    m = np.eye(6, dtype=object)
    m[:3, 3:] = s
    return m.tolist()


def embed_gl6(u):
    """(U, 0; 0, t(U)^(-1)) for unimodular U, where t(U)^(-1) = det(U) t(adj U)."""
    det = il.det3(u)
    if det not in (1, -1):
        raise ValueError("matrix is not unimodular")
    m = np.zeros((6, 6), dtype=object)
    m[:3, :3], m[3:, 3:] = u, det * np.array(il.adj3(u), dtype=object).T
    return m.tolist()


def mobius(m, z):
    """Apply the symplectic fractional-linear action.

    Returns ``(m . z, det(C z + D))`` for one 6x6 integer matrix, or both
    stacked for a (..., 6, 6) stack of them.  Raises SingularDenominator when
    C z + D is numerically singular (condition number above 1e12) in any
    lane, which cannot happen for an exactly symplectic m at a genuine Siegel
    point.
    """
    z = np.asarray(z, dtype=complex)
    m = np.array(m, dtype=complex)
    a, b, c, d = (np.ascontiguousarray(m[..., r:r + 3, s:s + 3]) for r in (0, 3) for s in (0, 3))
    den = c @ z + d
    jval = np.linalg.det(den)
    if not (np.isfinite(jval) & (abs(jval) >= 1e-300)).all() or (np.linalg.cond(den) > 1e12).any():
        raise SingularDenominator("C Z + D is numerically singular")
    mz = np.linalg.solve(den.swapaxes(-1, -2), (a @ z + b).swapaxes(-1, -2)).swapaxes(-1, -2)
    return 0.5 * (mz + mz.swapaxes(-1, -2)), jval


def random_siegel(rng, min_im=0.5):
    """Random Siegel point with Im(Z) >= min_im * I (shifted Gram matrix) and
    real part entries in [-1, 1)."""
    g = rng.standard_normal((3, 3))
    y = g @ g.T + min_im * np.eye(3)
    x = rng.random((3, 3)) * 2 - 1
    x = 0.5 * (x + x.T)
    return x + 1j * y


def random_symplectic(rng, max_entry=3, max_factors=6):
    """Random element of Sp3(Z) with all entries bounded by max_entry.

    Built from translations, GL3 embeddings and the inversion; candidates
    violating the entry bound are rejected and rebuilt.  The product runs on
    integer arrays: the factors' entries stay far below 2^29, so a partial
    product below 2^29 multiplies in int64, and a larger one as Python ints.
    """
    while True:
        m = np.eye(6, dtype=np.int64)
        for _ in range(int(rng.integers(1, max_factors + 1))):
            kind = int(rng.integers(0, 3))
            if kind == 0:
                s = [[int(rng.integers(-1, 2)) for _ in range(3)] for _ in range(3)]
                s = [[s[i][j] if i <= j else s[j][i] for j in range(3)] for i in range(3)]
                f = translation6(s)
            elif kind == 1:
                u = _random_unimodular(rng)
                f = embed_gl6(u)
            else:
                f = inversion6()
            m = il.exact_array(m, 2**29) @ np.array(f, dtype=np.int64)
        if np.abs(m).max() <= max_entry:
            return m.tolist()


def _random_unimodular(rng):
    """Random small unimodular matrix, as a list: a product of elementary shears."""
    u = np.eye(3, dtype=np.int64)
    for _ in range(int(rng.integers(1, 4))):
        i, j = rng.permutation(3)[:2]
        e = np.eye(3, dtype=np.int64)
        e[i, j] = rng.integers(-1, 2)
        u = u @ e
    if int(rng.integers(0, 2)):
        pm = np.eye(3, dtype=np.int64)[rng.permutation(3)]
        pm[0] *= il.det3(pm)  # det +1
        u = u @ pm
    return u.tolist()
