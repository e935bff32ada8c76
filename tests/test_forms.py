from fractions import Fraction
from math import isqrt

from hypothesis import given, strategies as st

from siegel3 import _intlinalg as il
from siegel3 import forms

I3 = forms.HalfIntegralForm(1, 1, 1, 0, 0, 0)


def _unimodular_strategy():
    shear = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2))

    def build(shears, flip):
        u = il.identity(3)
        for i, j, v in shears:
            if i == j:
                continue
            e = il.identity(3)
            e[i][j] = v
            u = il.mat_mul(u, e)
        if flip:
            u = il.mat_mul(u, [[0, 1, 0], [1, 0, 0], [0, 0, -1]])
        return u

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
    got = {v for _, v in forms.short_vectors2(t, bound)}
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
    assert red.satisfies_inequalities()


@given(_small_form_strategy())
def test_minkowski_reduce_idempotent_and_reduced(t):
    red = forms.minkowski_reduce(t)
    assert red.satisfies_inequalities()
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
    ball = il.unimodular_matrices_entrybound(1)
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
