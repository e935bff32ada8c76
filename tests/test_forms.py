from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import given, strategies as st

from siegel3 import _intlinalg as il
from siegel3 import forms
from siegel3.acceptance import _canonical_sign, exhaustive_automorphism_count
from siegel3.errors import MAX_BALL, DomainError, NotPositiveDefinite

I3 = forms.HalfIntegralForm(1, 1, 1, 0, 0, 0)


def _unimodular_strategy():
    shear = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2))

    def build(shears, flip):
        u = np.eye(3, dtype=np.int64)
        for i, j, v in shears:
            if i == j:
                continue
            e = np.eye(3, dtype=np.int64)
            e[i, j] = v
            u = u @ e
        if flip:
            u = u @ [[0, 1, 0], [1, 0, 0], [0, 0, -1]]
        return u.tolist()

    return st.builds(build, st.lists(shear, min_size=1, max_size=4), st.booleans())


def _small_form_strategy():
    return st.builds(
        forms.HalfIntegralForm,
        st.integers(1, 3), st.integers(1, 3), st.integers(1, 4),
        st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2),
    ).filter(lambda f: f.is_positive_definite())


def test_enumerate_J_contains_identity_and_is_definite():
    out = forms.enumerate_J(3)
    assert I3 in out
    for f in out:
        assert f.is_positive_definite()
        assert f.t1 >= 1 and f.t2 >= 1 and f.t3 >= 1
        assert f.det() > 0


def test_enumerate_J_unit_diagonal_brute_force():
    # independent brute force over |b| <= 1 with exact minor checks
    expected = []
    for b12 in (-1, 0, 1):
        for b13 in (-1, 0, 1):
            for b23 in (-1, 0, 1):
                g = [[2, b12, b13], [b12, 2, b23], [b13, b23, 2]]
                if g[0][0] > 0 and 4 - b12 * b12 > 0 and il.det3(g) > 0:
                    expected.append(forms.HalfIntegralForm(1, 1, 1, b12, b13, b23))
    got = [f for f in forms.enumerate_J(3) if (f.t1, f.t2, f.t3) == (1, 1, 1)]
    assert sorted(expected, key=forms.HalfIntegralForm.key) == got


def _old_enumerate_J(trace_bound):
    """The nested loop that the array enumerator replaced (oracle)."""
    out = []
    for t1 in range(1, trace_bound - 1):
        for t2 in range(1, trace_bound - t1):
            for t3 in range(1, trace_bound - t1 - t2 + 1):
                a12 = isqrt(4 * t1 * t2 - 1)
                a13 = isqrt(4 * t1 * t3 - 1)
                a23 = isqrt(4 * t2 * t3 - 1)
                for b12 in range(-a12, a12 + 1):
                    for b13 in range(-a13, a13 + 1):
                        for b23 in range(-a23, a23 + 1):
                            f = forms.HalfIntegralForm(t1, t2, t3, b12, b13, b23)
                            if f.is_positive_definite():
                                out.append(f)
    out.sort(key=forms.HalfIntegralForm.key)
    return out


def test_array_enumerator_matches_nested_loop():
    for tb in range(10):
        runs, _ = forms._diagonal_runs(tb, size=50)  # several runs from trace bound 5 on
        keys = [tuple(row) for run in runs for row in forms.enumerate_J(tb, run).tolist()]
        assert keys == [f.key() for f in _old_enumerate_J(tb)]
    out = forms.enumerate_J(6)
    assert all(type(f) is forms.HalfIntegralForm for f in out)
    assert [f.key() for f in out] == [f.key() for f in _old_enumerate_J(6)]


def test_short_vectors_match_naive_box():
    t = forms.HalfIntegralForm(2, 3, 5, 1, -2, 1)
    bound = 30
    got = set(map(tuple, forms.short_vectors_gram(t.gram2(), bound)["v"].tolist()))
    expected = set()
    for x in range(-6, 7):
        for y in range(-6, 7):
            for z in range(-6, 7):
                v = (x, y, z)
                if v != (0, 0, 0) and t.value2(v) <= bound:
                    expected.add(v)
    assert got == expected


def test_minkowski_reduce_examples():
    assert forms.minkowski_reduce(I3).form == I3
    red = forms.minkowski_reduce(forms.HalfIntegralForm(3, 2, 1, 0, 0, 0))
    assert red.form == forms.HalfIntegralForm(1, 2, 3, 0, 0, 0)
    assert forms.congruence_form(
        forms.HalfIntegralForm(3, 2, 1, 0, 0, 0), [list(r) for r in red.reducer]
    ) == red.form


@given(_unimodular_strategy())
def test_minkowski_reduce_round_trip(u):
    t0 = forms.HalfIntegralForm(1, 2, 3, 0, 0, 0)
    scrambled = forms.congruence_form(t0, u)
    red = forms.minkowski_reduce(scrambled)
    assert red.form == t0
    assert forms._is_reduced(*red.form.key())


@given(_small_form_strategy())
def test_minkowski_reduce_idempotent_and_reduced(t):
    red = forms.minkowski_reduce(t)
    assert forms._is_reduced(*red.form.key())
    again = forms.minkowski_reduce(red.form)
    assert again.form == red.form


def test_automorphism_counts():
    assert forms.automorphism_count(I3) == 24
    assert forms.automorphism_count(forms.HalfIntegralForm(1, 1, 2, 0, 0, 0)) == 8


@given(_small_form_strategy(), _unimodular_strategy())
def test_automorphism_count_is_class_invariant(t, u):
    assert forms.automorphism_count(t) == forms.automorphism_count(
        forms.congruence_form(t, u)
    )


def test_reduced_classes_smallest_determinants():
    # the half-integral cone has classes below determinant 1: the fcc-type
    # class of det 1/2 and one of det 3/4 precede the identity class
    classes = forms.reduced_classes(1)
    assert [c.det() for c in classes] == [Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    assert classes[-1] == I3
    # pairwise inequivalence at a small bound: distinct canonical keys and, for
    # equal determinants, no unimodular map between representatives
    classes2 = forms.reduced_classes(2)
    assert len({c.key() for c in classes2}) == len(classes2)
    ball = il.unimodular_matrices(1)
    for i, a in enumerate(classes2):
        for b in classes2[i + 1:]:
            if a.det() != b.det():
                continue
            assert all(forms.congruence_form(a, u) != b for u in ball)


def test_reduced_classes_complete_vs_brute_force():
    brute = {
        forms.minkowski_reduce(t).form
        for t in forms.enumerate_J(6)
        if t.det() <= 2
    }
    assert brute == set(forms.reduced_classes(2))


def test_reduced_classes_deterministic():
    a = forms.reduced_classes(Fraction(7, 2))
    b = forms.reduced_classes(Fraction(7, 2))
    assert a == b


def test_fixed_diagonal_count_bound():
    # over reduced representatives, the number of classes with a given
    # diagonal is at most 12 t1^2 t2
    classes = forms.reduced_classes(8)
    by_diag = {}
    for c in classes:
        by_diag.setdefault((c.t1, c.t2, c.t3), 0)
        by_diag[(c.t1, c.t2, c.t3)] += 1
    for (t1, t2, _), count in by_diag.items():
        assert count <= 12 * t1 * t1 * t2


def test_diagonal_product_versus_determinant_bound():
    # empirical constant for reduced forms: t1 t2 t3 <= 4 det(T); the fcc
    # class attains ratio 2 exactly
    worst = Fraction(0)
    for c in forms.reduced_classes(10):
        worst = max(worst, Fraction(c.t1 * c.t2 * c.t3) / c.det())
    assert worst == 2


# --- the recursive kernels that the array kernels replaced (oracles) ---------

def _as_list(ball):
    """A short-vector record array as the sorted (q, v) list of the oracles."""
    return list(zip(ball["q"].tolist(), map(tuple, ball["v"].tolist())))


def _recursive_short_vectors(g, bound):
    """Recursive Fincke-Pohst over exact ints, with a per-vector exact check."""
    n = len(g)
    d = [0.0] * n
    r = [[0.0] * n for _ in range(n)]
    a = [[float(x) for x in row] for row in g]
    for i in range(n):
        d[i] = a[i][i]
        for j in range(i + 1, n):
            r[i][j] = a[i][j] / d[i]
        for j in range(i + 1, n):
            for k in range(j, n):
                a[j][k] -= r[i][j] * r[i][k] * d[i]
                a[k][j] = a[j][k]
    slack = 1e-6 * (1.0 + float(bound))
    out = []

    def descend(level, rem, centers, partial):
        if level < 0:
            if any(partial):
                v = tuple(partial)
                q = il.bilinear3(g, v, v)
                if q <= bound:
                    out.append((q, v))
            return
        c = centers[level]
        radius = (rem / d[level]) ** 0.5 if rem > 0 else 0.0
        for vi in range(int(-c - radius - 1.0), int(-c + radius + 1.0) + 1):
            contrib = d[level] * (vi + c) ** 2
            if contrib > rem + slack:
                continue
            partial[level] = vi
            descend(level - 1, rem - contrib,
                    [centers[lv] + r[lv][level] * vi for lv in range(level)], partial)
        partial[level] = 0

    descend(n - 1, float(bound) + slack, [0.0] * n, [0] * n)
    return sorted(out)


def _solve_dot_one(n):
    """Integer c with n . c == 1 for primitive n (two-step extended gcd)."""

    def ext_gcd(a, b):
        if b == 0:
            return (abs(a), (1 if a >= 0 else -1), 0)
        g, x, y = ext_gcd(b, a % b)
        return (g, y, x - (a // b) * y)

    g01, x0, x1 = ext_gcd(n[0], n[1])
    g, xa, x2 = ext_gcd(g01, n[2])
    assert g == 1
    return (x0 * xa, x1 * xa, x2)


def _complete_one(v1):
    """Unimodular U whose first column is primitive v1."""
    s, u, _ = il.snf([[v1[0]], [v1[1]], [v1[2]]])
    assert s[0][0] == 1
    uinv = il.det3(u) * np.array(il.adj3(u), dtype=object)
    if uinv[:, 0].tolist() == [-x for x in v1]:
        uinv = -uinv
    return uinv.tolist()


def _recursive_minkowski_reduce(t):
    """Greedy successive minima with one enumeration per pool and T[U] by
    matrix products."""
    g = t.gram2()
    pool1 = _recursive_short_vectors(g, min(g[0][0], g[1][1], g[2][2]))
    m1 = pool1[0][0]
    v1s = sorted({_canonical_sign(v) for q, v in pool1 if q == m1})
    best = None
    for v1 in v1s:
        u0 = _complete_one(list(v1))
        r2 = min(t.value2(tuple(u0[i][j] for i in range(3))) for j in (1, 2))
        pool2 = [(q, v) for q, v in _recursive_short_vectors(g, r2)
                 if gcd(*il.cross3(v1, v)) == 1]
        m2 = min(q for q, _ in pool2)
        for v2 in sorted({_canonical_sign(v) for q, v in pool2 if q == m2}):
            n = il.cross3(v1, v2)
            pool3 = [(q, v) for q, v in _recursive_short_vectors(g, t.value2(_solve_dot_one(n)))
                     if abs(n[0] * v[0] + n[1] * v[1] + n[2] * v[2]) == 1]
            m3 = min(q for q, _ in pool3)
            for v3 in sorted({_canonical_sign(v) for q, v in pool3 if q == m3}):
                u = [list(row) for row in zip(v1, v2, v3)]
                for e1, e2, e3 in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
                    ue = [[u[i][0] * e1, u[i][1] * e2, u[i][2] * e3] for i in range(3)]
                    cand = forms.congruence_form(t, ue)
                    if cand.b12 < 0 or cand.b23 < 0:
                        continue
                    if best is None or cand.key() < best[0].key():
                        best = (cand, ue)
    return forms.ReducedForm(form=best[0], reducer=tuple(tuple(row) for row in best[1]))


def _recursive_automorphism_count(t):
    """Triple loop over the columns of each value, with a 3x3 determinant."""
    g = t.gram2()
    cols = [[v for q, v in _recursive_short_vectors(g, g[j][j]) if q == g[j][j]]
            for j in range(3)]
    count = 0
    for c1 in cols[0]:
        for c2 in cols[1]:
            if il.bilinear3(g, c1, c2) != g[0][1]:
                continue
            for c3 in cols[2]:
                if (il.bilinear3(g, c1, c3) == g[0][2] and il.bilinear3(g, c2, c3) == g[1][2]
                        and il.det3([c1, c2, c3]) == 1):
                    count += 1
    return count


@lru_cache(maxsize=None)
def _box(det_bound):
    """Every positive-definite form of the reduced inequality box with det <= det_bound."""
    out = []
    for t1 in range(1, 4 * det_bound + 2):
        for t2 in range(t1, 4 * det_bound + 2):
            for t3 in range(t2, 4 * det_bound + 2):
                if t1 * t2 * t3 > 4 * det_bound:
                    break
                for b12 in range(0, t1 + 1):
                    for b13 in range(-t1, t1 + 1):
                        for b23 in range(0, t2 + 1):
                            f = forms.HalfIntegralForm(t1, t2, t3, b12, b13, b23)
                            if f.is_positive_definite() and f.det() <= det_bound:
                                out.append(f)
    return tuple(out)


@lru_cache(maxsize=None)
def _scrambles():
    """200 box forms of det <= 20 moved by spread-out matrices with entries in [-2, 2]."""
    ball = il.unimodular_matrices(2)
    box = _box(20)
    return tuple(forms.congruence_form(box[(7 * i) % len(box)], ball[(677 * i) % len(ball)])
                 for i in range(200))


def test_box_has_the_known_size():
    assert len(_box(20)) == 1074


def test_short_vectors_match_recursive_oracle():
    for t in _box(20)[::10] + _scrambles()[::4]:
        g = t.gram2()
        for gram in (g, il.adj3(g)):
            for bound in (2, 30, max(gram[0][0], gram[1][1], gram[2][2])):
                got = _as_list(forms.short_vectors_gram(gram, bound))
                assert got == _recursive_short_vectors(gram, bound)
                assert _as_list(forms.short_vectors_gram(gram, Fraction(2 * bound + 1, 2))) == got
    assert _as_list(forms.short_vectors_gram([[2, 0, 0], [0, 2, 0], [0, 0, 2]],
                                             Fraction(1, 2))) == []


def test_short_vector_ball_is_an_int64_record_array():
    for bound in (0, 30):
        ball = forms.short_vectors_gram([[2, 1, 0], [1, 2, 0], [0, 0, 4]], bound)
        assert ball.dtype.names == ("q", "v")
        assert ball["q"].dtype == ball["v"].dtype == "int64" and ball["v"].shape[1:] == (3,)


def test_short_vectors_of_a_skewed_form_are_the_moved_ball():
    # g[u] has entries near 2^43; its ball is u^-1 applied to the ball of g
    t0 = forms.HalfIntegralForm(1, 1, 2, 0, 0, 1)
    u = [[1, 2**21, 0], [0, 1, 2**21], [0, 0, 1]]
    uinv = np.array(il.adj3(u), dtype=object)  # det u = 1
    moved = sorted((q, tuple(uinv @ v))
                   for q, v in _as_list(forms.short_vectors_gram(t0.gram2(), 12)))
    skewed = forms.congruence_form(t0, u).gram2()
    assert _as_list(forms.short_vectors_gram(skewed, 12)) == moved


def test_short_vectors_chunked_build_matches_one_chunk(monkeypatch):
    cases = [(t.gram2(), 60) for t in _box(20)[::97]]
    whole = [_as_list(forms.short_vectors_gram(g, b)) for g, b in cases]
    stack = _box(20)[::37] + _scrambles()[::37]
    lanes = _lanes(stack)
    monkeypatch.setattr(forms, "_CHUNK", 7)  # many row and leaf chunks
    assert [_as_list(forms.short_vectors_gram(g, b)) for g, b in cases] == whole
    assert _lanes(stack) == lanes  # chunks that cross lanes, and nodes built again


def test_short_vectors_refuse_work_above_the_ceiling():
    i2 = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
    with pytest.raises(DomainError):
        forms.short_vectors_gram(i2, 10**12)  # ~3e18 candidates
    for bound in (2 * 10**15, 2 * 10**17):  # 6e7 and 6e8 values of v3, each a long row
        with pytest.raises(DomainError):
            forms.short_vectors_gram(i2, bound)
    with pytest.raises(DomainError):
        forms.short_vectors_gram(i2, 2**63)
    with pytest.raises(NotPositiveDefinite):
        forms.short_vectors_gram([[2, 3, 0], [3, 2, 0], [0, 0, 2]], 10)


def test_short_vectors_refuse_a_ball_above_the_output_ceiling(monkeypatch):
    i2 = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
    assert MAX_BALL * 32 <= 1 << 29  # 32 B per row
    ball = forms.short_vectors_gram(i2, 60)  # 738 vectors, |v|^2 <= 30
    monkeypatch.setattr(forms, "MAX_BALL", len(ball) - 1)
    with pytest.raises(DomainError, match="ball ceiling"):
        forms.short_vectors_gram(i2, 60)
    monkeypatch.setattr(forms, "MAX_BALL", 2 * len(ball))  # the candidates have slack
    assert _as_list(forms.short_vectors_gram(i2, 60)) == _as_list(ball)


def test_huge_entries_stay_exact():
    # values near 2^62 overflow int64 in the partial sums; Python ints take over
    t = forms.HalfIntegralForm(2**60, 2**60 + 1, 2**60 + 3, 2**60, 1, 2**59)
    g = t.gram2()
    assert _as_list(forms.short_vectors_gram(g, g[2][2])) == _recursive_short_vectors(g, g[2][2])
    assert forms.minkowski_reduce(t) == _recursive_minkowski_reduce(t)
    assert forms.automorphism_count.__wrapped__(t) == _recursive_automorphism_count(t)
    # coordinates past 2^20 in a form skewed far from reduced
    t0 = forms.HalfIntegralForm(1, 1, 2, 0, 0, 1)
    skewed = forms.congruence_form(t0, [[1, 2**21, 0], [0, 1, 2**21], [0, 0, 1]])
    red = forms.minkowski_reduce(skewed)
    assert red.form == forms.minkowski_reduce(t0).form
    assert forms.congruence_form(skewed, [list(row) for row in red.reducer]) == red.form


def _lanes(ts):
    """The reductions of the forms ts, found as one stack of _minkowski_lanes."""
    pairs = [forms._pairwise_reduced(t.gram2()) for t in ts]
    g, h, u = ([t.gram2() for t in ts], [h for h, _ in pairs], [u for _, u in pairs])
    keys, reducers = forms._minkowski_lanes(np.array(g), np.array(h), np.array(u))
    return [forms.ReducedForm(form=forms.HalfIntegralForm(*k), reducer=tuple(map(tuple, r)))
            for k, r in zip(keys.tolist(), reducers.tolist())]


def test_reduce_matches_recursive_oracle():
    ts = _box(20) + _scrambles()
    for t, lane in zip(ts, _lanes(ts)):  # one stack of 1274 lanes
        assert forms.minkowski_reduce(t) == lane == _recursive_minkowski_reduce(t), t


def test_automorphism_count_matches_recursive_oracle(monkeypatch):
    monkeypatch.setattr(forms, "_EPS", {})  # every count searches
    for t in _scrambles():
        assert forms.automorphism_count.__wrapped__(t) == _recursive_automorphism_count(t), t


def test_python_int_path_matches_int64_path(monkeypatch):
    cases = _box(20)[::31] + _scrambles()[::20]

    def run():
        monkeypatch.setattr(forms, "_EPS", {})  # every count searches, the lanes record
        return ([forms.minkowski_reduce(t) for t in cases], _lanes(cases),
                [forms.automorphism_count.__wrapped__(t) for t in cases], forms._EPS)

    expect = run()
    monkeypatch.setattr(forms, "_INT64_COORD", 1)  # every ball as Python ints
    assert run() == expect


def test_a_stack_mixes_skewed_and_huge_lanes_with_normal_ones():
    # a lane with coordinates past 2^20 turns the stack's search to Python
    # ints, and one with entries near 2^60 its value checks
    t0 = forms.HalfIntegralForm(1, 1, 2, 0, 0, 1)
    skewed = forms.congruence_form(t0, [[1, 2**21, 0], [0, 1, 2**21], [0, 0, 1]])
    huge = forms.HalfIntegralForm(2**60, 2**60 + 1, 2**60 + 3, 2**60, 1, 2**59)
    ts = [_box(20)[5], skewed, _scrambles()[3], huge, t0]
    lanes = _lanes(ts)
    assert lanes == [forms.minkowski_reduce(t) for t in ts]
    assert lanes[1].form == lanes[4].form


@pytest.mark.parametrize("ceiling, value", [("MAX_WORK", 1000), ("MAX_BALL", 100)])
def test_a_refused_lane_refuses_its_stack_as_one_form(monkeypatch, ceiling, value):
    big = forms.HalfIntegralForm(1, 1, 1000, 0, 0, 0)  # R = 2000, ~3000 vectors
    monkeypatch.setattr(forms, ceiling, value)
    with pytest.raises(DomainError) as one:
        forms.minkowski_reduce(big)
    with pytest.raises(DomainError) as stack:
        _lanes([I3, big, _box(20)[9]])
    assert str(stack.value) == str(one.value)
    assert _lanes([I3, _box(20)[9]]) == [forms.minkowski_reduce(t) for t in (I3, _box(20)[9])]


def test_reduced_classes_match_one_form_dedupe():
    box = _box(20)
    reps = {forms.minkowski_reduce(t).form for t in box}
    assert forms.reduced_classes(20) == sorted(reps, key=lambda f: (f.det(), f.key()))
    # the class box is reduced as its own pairwise-reduced bases
    assert all(forms._pairwise_reduced(t.gram2()) == (t.gram2(), il.identity(3)) for t in box)


def test_automorphism_count_rejects_indefinite_forms():
    with pytest.raises(NotPositiveDefinite, match="form is not positive definite"):
        forms.automorphism_count(forms.HalfIntegralForm(1, 1, -1, 0, 0, 0))


def test_lanes_record_eps_under_each_reduced_key(monkeypatch):
    # eps is the number of (minimizing basis, sign) rows whose key ties the least,
    # a class invariant: a stack records it under each lane's key, a one-form
    # reduction under its input's key too
    huge = forms.HalfIntegralForm(2**60, 2**60 + 1, 2**60 + 3, 2**60, 1, 2**59)  # past int64
    ts = _box(20) + _scrambles() + (huge,)
    moved = [t for t in _scrambles() if forms.minkowski_reduce(t).form != t]
    for coord in (forms._INT64_COORD, 1):  # and every ball as Python ints
        monkeypatch.setattr(forms, "_INT64_COORD", coord)
        monkeypatch.setattr(forms, "_EPS", {})
        keys = sorted({red.form.key() for red in _lanes(ts)})
        assert sorted(forms._EPS) == keys and len(keys) == 420 + 1
        for key in keys[::12] + [forms.minkowski_reduce(huge).form.key()]:
            assert forms._EPS[key] == _recursive_automorphism_count(forms.HalfIntegralForm(*key))
        monkeypatch.setattr(forms, "_EPS", {})
        keys = sorted({red.form.key() for red in _lanes(moved)})
        assert sorted(forms._EPS) == keys  # no moved input's key
        for t in moved[::10] + [huge]:
            monkeypatch.setattr(forms, "_EPS", {})
            rep = forms.minkowski_reduce(t).form
            eps = _recursive_automorphism_count(t)
            assert forms._EPS == {t.key(): eps, rep.key(): eps}, t


def test_eps_after_a_reduction_runs_no_search(monkeypatch):
    calls = []
    search = forms._fincke_pohst
    monkeypatch.setattr(forms, "_fincke_pohst", lambda *args: calls.append(1) or search(*args))
    monkeypatch.setattr(forms, "_EPS", {})
    for t in _scrambles()[::10]:
        forms.minkowski_reduce(t)
        assert forms.automorphism_count.__wrapped__(t) == _recursive_automorphism_count(t)
    assert len(calls) == 20  # one lane per reduction, none per count
    monkeypatch.setattr(forms, "_EPS", {})
    t = _scrambles()[1]
    assert forms.automorphism_count.__wrapped__(t) == _recursive_automorphism_count(t)
    assert len(calls) == 21  # a miss is one reduction


def test_recorded_eps_match_the_one_form_count(monkeypatch):
    monkeypatch.setattr(forms, "_EPS", {})
    forms._reduced_classes_cached.cache_clear()  # the lanes record into this _EPS
    classes = forms.reduced_classes(20)
    assert sorted(forms._EPS) == sorted(c.key() for c in classes)  # the box's keys are classes
    recorded = [forms._EPS[c.key()] for c in classes]
    assert recorded == [forms.automorphism_count(c) for c in classes]
    ball = il.unimodular_matrices(2)
    moved = [forms.congruence_form(c, ball[(677 * i) % len(ball)]) for i, c in enumerate(classes)]
    assert [forms.automorphism_count.__wrapped__(m) for m in moved] == recorded
    assert [forms._EPS[m.key()] for m in moved] == recorded  # each reduction recorded its input
    forms._reduced_classes_cached.cache_clear()  # its lanes recorded into the patched _EPS
    assert forms.reduce_keys([t.key() for t in _box(20)]) == {c.key() for c in classes}
    # rows that are not pairwise reduced take their pairwise-reduced bases first
    skewed = forms.congruence_form(classes[5], [[1, 2**21, 0], [0, 1, 2**21], [0, 0, 1]])
    rows = [t.key() for t in _scrambles()] + [skewed.key()]
    assert forms.reduce_keys(rows) == {forms.minkowski_reduce(t).form.key() for t in
                                       _scrambles() + (skewed,)}


def test_exhaustive_oracle_matches_recursive_count():
    # acceptance's search on a pairwise-reduced basis, criterion 11's oracle
    skewed = forms.HalfIntegralForm(1, 4398046511105, 4398048608258, 4194304, 0, 4194305)
    huge = forms.HalfIntegralForm(2**60, 2**60 + 1, 2**60 + 3, 2**60, 1, 2**59)
    for t in _scrambles() + (huge,):
        assert exhaustive_automorphism_count(t) == _recursive_automorphism_count(t), t
    rep = forms.HalfIntegralForm(1, 1, 2, 0, -1, 0)  # the class of skewed
    assert exhaustive_automorphism_count(skewed) == _recursive_automorphism_count(rep) == 4


def test_eps_of_a_skewed_form_is_counted_on_its_pairwise_basis():
    # the class of (1,1,2,0,-1,0) skewed by entries 2^21: its ball at max diag 2T
    # is past MAX_WORK, the ball at max diag h holds 12 vectors
    skewed = forms.HalfIntegralForm(1, 4398046511105, 4398048608258, 4194304, 0, 4194305)
    h, _ = forms._pairwise_reduced(skewed.gram2())
    assert len(forms.short_vectors_gram(skewed.gram2(), max(h[j][j] for j in range(3)))) == 12
    rep = forms.minkowski_reduce(skewed).form
    assert rep == forms.HalfIntegralForm(1, 1, 2, 0, -1, 0)
    assert forms.automorphism_count.__wrapped__(skewed) == _recursive_automorphism_count(rep) == 4


def test_exact_mass_identity():
    # 24 sum_(4 det T = m) 1/eps_T = sum_(a c^2 = m) (a c - c^2) for every m <= 4 D
    mass = {}
    for t in forms.reduced_classes(75):
        m = 4 * t.det()
        assert m.denominator == 1
        mass[m.numerator] = mass.get(m.numerator, 0) + Fraction(24, forms.automorphism_count(t))
    for m in range(1, 4 * 75 + 1):
        assert mass.get(m, 0) == sum(m // c - c * c for c in range(1, isqrt(m) + 1)
                                     if m % (c * c) == 0), m
