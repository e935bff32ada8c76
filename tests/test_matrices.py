import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from siegel3 import _intlinalg as il
from siegel3 import forms
from siegel3 import matrices as mx


def _mat_mul(a, b):
    """List product of Python ints (the oracles' own arithmetic)."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_siegel_point_examples():
    assert mx.is_siegel_point(1j * np.eye(3))
    assert not mx.is_siegel_point(np.diag([1j, 1j, -1j]))
    z = 1j * np.array([[1, 2, 0], [2, 1, 0], [0, 0, 1]], dtype=float)
    assert not mx.is_siegel_point(z)  # 2x2 leading minor of Im is -3
    # the minors of D^(-1/2) Y D^(-1/2), D = diag Y: scale-free, so an ill-scaled Y passes
    assert mx.is_siegel_point(1j * np.diag([1e-3, 1e-3, 1e3]))
    assert mx.is_siegel_point(1j * np.diag([1e-9, 1.0, 1e9]))
    assert mx.is_positive_definite(np.diag([1e-3, 1e-3, 1e3]) + 0.9e-3 * np.eye(3)[[1, 0, 2]])
    singular = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    for y in (singular, singular * [1e-3, 1e-3, 1e3], np.diag([1.0, 0.0, 1.0]),
              np.diag([1.0, 1.0, -1e-300]), np.diag([np.nan, 1.0, 1.0]), np.diag([np.inf] * 3),
              np.outer([1.0, 1e-3, 1e3], [1.0, 1e-3, 1e3]) - 1e-14 * np.eye(3),
              np.array([[1.0, 1e200, 0.0], [1e200, 1.0, 1e200], [0.0, 1e200, 1.0]])):
        assert not mx.is_positive_definite(y)


def test_congruence_examples():
    i3 = forms.HalfIntegralForm(1, 1, 1, 0, 0, 0)
    assert forms.congruence_form(i3, il.identity(3)) == i3
    perm = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    assert forms.congruence_form(forms.HalfIntegralForm(1, 2, 3, 0, 0, 0), perm) == (
        forms.HalfIntegralForm(3, 2, 1, 0, 0, 0))
    # shears by 2^21 give entries near 2^44, and of a form near 2^60 past int64;
    # U^-1 = adj(U) takes them back
    u = [[1, 2**21, 0], [0, 1, 2**21], [0, 0, 1]]
    for t in (forms.HalfIntegralForm(1, 1, 2, 0, 0, 1),
              forms.HalfIntegralForm(2**60, 2**60 + 1, 2**60 + 3, 2**60, 1, 2**59)):
        skewed = forms.congruence_form(t, u)
        assert skewed.gram2() == _mat_mul(_mat_mul(list(zip(*u)), t.gram2()), u)
        assert forms.congruence_form(skewed, il.adj3(u)) == t


@given(st.lists(st.integers(-3, 3), min_size=9, max_size=9))
def test_congruence_det_multiplicative(entries):
    u = [entries[:3], entries[3:6], entries[6:]]
    t = forms.HalfIntegralForm(1, 2, 2, 1, 0, 1)
    assert forms.congruence_form(t, u).det() == t.det() * il.det3(u) ** 2


def test_adjugate_examples():
    assert il.adj3(il.identity(3)) == il.identity(3)
    assert il.adj3([[1, 0, 0], [0, 2, 0], [0, 0, 3]]) == [
        [6, 0, 0], [0, 3, 0], [0, 0, 2]]


@given(st.lists(st.integers(-6, 6), min_size=6, max_size=6))
def test_adjugate_property(vals):
    y = [[vals[0], vals[3], vals[4]],
         [vals[3], vals[1], vals[5]],
         [vals[4], vals[5], vals[2]]]
    d = il.det3(y)
    prod = _mat_mul(y, il.adj3(y))
    assert prod == [[d if i == j else 0 for j in range(3)] for i in range(3)]


def _minors_det3(a):
    """The cofactor expansion that det3 replaced (oracle)."""
    return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))


def _minors_adj3(a):
    """The signed-minor loop that adj3 replaced (oracle)."""
    c = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            r = [r_ for r_ in range(3) if r_ != j]
            s = [c_ for c_ in range(3) if c_ != i]
            minor = a[r[0]][s[0]] * a[r[1]][s[1]] - a[r[0]][s[1]] * a[r[1]][s[0]]
            c[i][j] = (-1) ** (i + j) * minor
    return c


def test_cross_product_det_and_adjugate_match_the_minors(rng):
    for _ in range(200):
        ints, floats = rng.integers(-10**6, 10**6, (3, 3)), rng.standard_normal((3, 3))
        for a in (ints.tolist(), floats.tolist(), floats):
            assert il.det3(a) == _minors_det3(a)  # the same products, bit for bit on floats
            assert il.adj3(a) == _minors_adj3(a)


def test_unimodular_enumeration_order_is_pinned():
    # criterion 12's stride sample ball[i % 97::97] and poincare_trunc's
    # summation order depend on this order, so it is pinned by digest (of the
    # nested lists, the same as for the old entry-bound and column-norm lists)
    for ball, size, digest in (
        (il.unimodular_matrices(1).tolist(), 6960,
         "8841075d05c831d4d059ad4b43a9e89a5b128415fcfc4750456d3d9fd9e8e6b7"),
        (il.unimodular_matrices(1, 2).tolist(), 2352,
         "1c6e026013e1b82a029c23621c98642b612e0e2cb67bf2708c5a175f3d35c71b"),
    ):
        assert len(ball) == size
        assert hashlib.sha256(repr(ball).encode()).hexdigest() == digest


def test_mobius_identity_and_inversion(rng):
    z = mx.random_siegel(rng)
    i6 = il.identity(6)
    mz, j = mx.mobius(i6, z)
    assert np.allclose(mz, z) and j == 1
    minv = mx.inversion6()
    mz, j = mx.mobius(minv, z)
    assert np.allclose(mz, -np.linalg.inv(z))
    assert abs(j - np.linalg.det(z)) <= 1e-12 * abs(j)


def test_mobius_cocycle_and_imaginary_part(rng):
    worst = 0.0
    for _ in range(100):
        m = mx.random_symplectic(rng, max_entry=3)
        n = mx.random_symplectic(rng, max_entry=3)
        z = mx.random_siegel(rng)
        nz, jn = mx.mobius(n, z)
        mn = np.array(m) @ n
        _, jmn = mx.mobius(mn, z)
        _, jm = mx.mobius(m, nz)
        worst = max(worst, abs(jmn - jm * jn) / abs(jmn))
        # the action preserves membership and transforms det Im(Z) by |j|^-2
        mz, j = mx.mobius(m, z)
        assert mx.is_siegel_point(mz)
        lhs = np.linalg.det(mz.imag)
        rhs = np.linalg.det(z.imag) / abs(j) ** 2
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)
    assert worst <= 1e-12


def _random_unimodular_lists(rng):
    """The list-product shears that _random_unimodular replaced (oracle)."""
    u = il.identity(3)
    for _ in range(int(rng.integers(1, 4))):
        i, j = rng.permutation(3)[:2]
        e = il.identity(3)
        e[int(i)][int(j)] = int(rng.integers(-1, 2))
        u = _mat_mul(u, e)
    if int(rng.integers(0, 2)):
        p = list(rng.permutation(3))
        pm = [[1 if p[i] == j else 0 for j in range(3)] for i in range(3)]
        if il.det3(pm) == -1:
            pm[0] = [-x for x in pm[0]]
        u = _mat_mul(u, pm)
    return u


def _random_symplectic_lists(rng, max_entry, max_factors):
    """The list-product construction that random_symplectic replaced (oracle)."""
    while True:
        m = il.identity(6)
        for _ in range(int(rng.integers(1, max_factors + 1))):
            kind = int(rng.integers(0, 3))
            if kind == 0:
                s = [[int(rng.integers(-1, 2)) for _ in range(3)] for _ in range(3)]
                s = [[s[i][j] if i <= j else s[j][i] for j in range(3)] for i in range(3)]
                f = mx.translation6(s)
            elif kind == 1:
                f = mx.embed_gl6(_random_unimodular_lists(rng))
            else:
                f = mx.inversion6()
            m = _mat_mul(m, f)
        if max(abs(x) for row in m for x in row) <= max_entry:
            return m


def test_random_symplectic_matches_list_construction():
    for seed in (0, 1, 2):
        for max_entry, max_factors in ((12, 8), (10, 6), (3, 6)):
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(20):
                m = mx.random_symplectic(rng_a, max_entry, max_factors)
                assert m == _random_symplectic_lists(rng_b, max_entry, max_factors)
                assert all(type(x) is int for row in m for x in row)
            # the same rng calls: both streams are at the same place
            assert rng_a.integers(2**62) == rng_b.integers(2**62)
    # long products pass 2^29, then 2^64, and finish in Python ints
    rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(1)
    ms = [mx.random_symplectic(rng_a, 10**300, 3000) for _ in range(3)]
    assert ms == [_random_symplectic_lists(rng_b, 10**300, 3000) for _ in range(3)]
    assert min(max(abs(x) for row in m for x in row) for m in ms) > 2**100


def test_symplectic_products_exact(rng):
    for _ in range(50):
        m = mx.random_symplectic(rng, max_entry=12, max_factors=8)
        assert mx.is_symplectic(m)
    # the builders stay exact past int64: t(U)^-1 has entries 2^80, S entries 10^30
    u = [[1, 2**40, 0], [0, 1, 2**40], [0, 0, 1]]
    g = mx.embed_gl6(u)
    assert mx.is_symplectic(g) and [r[:3] for r in g[:3]] == u
    assert _mat_mul([r[3:] for r in g[3:]], list(zip(*u))) == il.identity(3)
    with pytest.raises(ValueError, match="not unimodular"):
        mx.embed_gl6([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    s = [[10**30, 1, -10**30], [1, 0, 2], [-10**30, 2, 10**30 + 1]]
    t = mx.translation6(s)
    assert mx.is_symplectic(t) and [r[3:] for r in t[:3]] == s
    assert [r[:3] for r in t[:3]] == [r[3:] for r in t[3:]] == il.identity(3)
    assert mx.inversion6() == [[0, 0, 0, -1, 0, 0], [0, 0, 0, 0, -1, 0], [0, 0, 0, 0, 0, -1],
                               [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]]


def test_corner_determinant_dominates_imaginary_part(rng):
    # |det Z_j| >= det Im(Z)_j for j = 1, 2 on Siegel points
    for _ in range(200):
        z = mx.random_siegel(rng)
        assert abs(z[0, 0]) >= z.imag[0, 0] - 1e-12
        d2 = z[0, 0] * z[1, 1] - z[0, 1] ** 2
        y2 = np.linalg.det(z.imag[:2, :2])
        assert abs(d2) >= y2 * (1 - 1e-12)
