import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from siegel3 import _intlinalg as il
from siegel3 import eisenstein as eis, forms
from siegel3.errors import DomainError
from siegel3.specfun import complex_zeta

I3 = forms.HalfIntegralForm(1, 1, 1, 0, 0, 0)
ZETA2_BETA2_TWICE = 3.01340601984597006177313009636  # 2 zeta(2) beta(2)


def test_flags_of_identity_at_unit_bounds():
    flags = eis.enumerate_flags(I3, eis.TruncationSpec(1, 1))
    assert len(flags) == 6
    for f in flags:
        assert sum(a * b for a, b in zip(f.v, f.n)) == 0
        assert math.gcd(*f.v) == 1 and math.gcd(*f.n) == 1


def test_flag_count_invariant_under_congruence():
    y = forms.HalfIntegralForm(1, 2, 2, 1, 0, -1)
    u = [[1, 1, 0], [0, 1, 0], [0, -1, 1]]
    yu = forms.congruence_form(y, u)
    spec = eis.TruncationSpec(9, 30)
    f1 = eis.enumerate_flags(y, spec)
    f2 = eis.enumerate_flags(yu, spec)
    assert len(f1) == len(f2)
    # bijection v -> U v, n -> U^-T n preserves both form values exactly
    adj_y = il.adj3(y.gram2())
    adj_yu = il.adj3(yu.gram2())
    ut_inv = il.mat_t(il.inv_unimodular(u))
    for f in f2:
        v = tuple(sum(u[i][j] * f.v[j] for j in range(3)) for i in range(3))
        n = tuple(sum(ut_inv[i][j] * f.n[j] for j in range(3)) for i in range(3))
        assert y.value2(v) == yu.value2(f.v)
        assert _qform(adj_y, v=n) == _qform(adj_yu, v=f.n)


def _qform(g, v):
    return sum(v[i] * g[i][j] * v[j] for i in range(3) for j in range(3))


def _old_primitive_mod_sign(gram, bound):
    """Primitive vectors mod sign with gram[v] <= bound, with their values, by
    a dict walk over the ball (the path the array filter replaced; oracle)."""
    ball = forms.short_vectors_gram(gram, bound)
    seen = {}
    for q, v in zip(ball["q"].tolist(), map(tuple, ball["v"].tolist())):
        if math.gcd(*v) == 1:
            seen.setdefault(il.canonical_sign(v), q)
    return sorted(seen.items())


def _old_flag_terms(y, spec):
    """(v, (2Y)[v], n, adj(2Y)[n]) of every flag, by the double loop."""
    vs = _old_primitive_mod_sign(y.gram2(), 2 * Fraction(spec.q_bound))
    ns = _old_primitive_mod_sign(il.adj3(y.gram2()), 4 * Fraction(spec.g_bound))
    return [(v, qv, n, qn) for v, qv in vs for n, qn in ns
            if v[0] * n[0] + v[1] * n[1] + v[2] * n[2] == 0]


def _old_selberg_E(y, exponents, spec):
    """(value, terms) of the truncated flag series, summed term by term."""
    s, w, u = (complex(e) for e in exponents)
    total, terms = 0.0 + 0.0j, _old_flag_terms(y, spec)
    for _, qv, _, qn in terms:
        total += np.exp(-s * math.log(qv / 2.0)) * np.exp(-w * math.log(qn / 4.0))
    return complex(np.exp(-u * math.log(float(y.det()))) * total), len(terms)


def _old_mu_parabolic(y, r, bound):
    ns = _old_primitive_mod_sign(il.adj3(y.gram2()), 4 * Fraction(bound))
    total = sum((qn / 4.0) ** (-r) for _, qn in ns)
    return float(y.det()) ** (2.0 * r / 3.0) * total, len(ns)


SKEWED = forms.congruence_form(forms.HalfIntegralForm(1, 1, 2, 0, 0, 1),
                               [[1, 2**21, 0], [0, 1, 2**21], [0, 0, 1]])


@pytest.mark.parametrize("chunk", [None, 7])
def test_flag_sums_match_the_double_loop(monkeypatch, chunk):
    if chunk:
        monkeypatch.setattr(eis, "_CHUNK", chunk)  # many row blocks
    for y in forms.reduced_classes(2) + [SKEWED]:  # SKEWED: |v| |n| past 2^63, exact dots
        for q_bound, g_bound in ((2, 2), (8, 12), (12, 8), (30, 30)):
            spec = eis.TruncationSpec(q_bound, g_bound)
            flags = eis.enumerate_flags(y, spec)
            assert len(set(flags)) == len(flags)
            assert {(f.v, f.n) for f in flags} == {(v, n) for v, _, n, _ in _old_flag_terms(y, spec)}
            for e in ((2.5, 3 - 1j, 0.7), (0.5, 2, 0)):
                got, (value, terms) = eis.selberg_E(y, e, spec), _old_selberg_E(y, e, spec)
                assert got.terms_used == terms
                assert abs(got.value - value) <= 1e-12 * abs(value)
            got, (value, terms) = eis.mu_parabolic(y, 2.0, g_bound), _old_mu_parabolic(y, 2.0, g_bound)
            assert got.terms_used == terms and abs(got.value - value) <= 1e-12 * abs(value)


def test_orthogonality_is_exact_past_int64():
    # v . n = 2^64 wraps to 0 in int64; it is no flag
    vs = np.array([(2, (2**32, 1, 0)), (2, (0, 0, 1))], forms._BALL)
    ns = np.array([(4, (2**32, 0, 0))], forms._BALL)
    masks = [mask for _, mask in eis._orthogonal_blocks(vs, ns)]
    assert np.concatenate(masks).tolist() == [[False], [True]]


def test_flag_product_above_the_work_ceiling_is_refused(monkeypatch):
    spec = eis.TruncationSpec(30, 30)
    monkeypatch.setattr(eis, "MAX_WORK", 1000)
    with pytest.raises(DomainError, match="flag candidates"):
        eis.selberg_E(I3, (3, 3, 3), spec)
    with pytest.raises(DomainError, match="flag candidates"):
        eis.enumerate_flags(I3, spec)


def test_selberg_value_and_metadata():
    ev = eis.selberg_E(I3, (2.0, 2.0, 0.0), eis.TruncationSpec(4, 4))
    assert ev.terms_used > 0
    assert ev.warnings == []
    out_of_region = eis.selberg_E(I3, (0.5, 2.0, 0.0), eis.TruncationSpec(4, 4))
    assert out_of_region.warnings


def test_selberg_det_shift_is_termwise():
    y = forms.HalfIntegralForm(2, 3, 4, 1, 0, 1)
    spec = eis.TruncationSpec(8, 20)
    base = eis.selberg_E(y, (2.0, 2.0, 1.5), spec).value
    for q in (0.5, 1.0, 2.0 - 0.7j):
        lhs = base * complex(float(y.det())) ** q
        rhs = eis.selberg_E(y, (2.0, 2.0, 1.5 - q), spec).value
        assert abs(lhs - rhs) / abs(rhs) <= 1e-13


def test_selberg_invariance_under_congruence():
    y = forms.HalfIntegralForm(1, 1, 2, 1, 0, 1)
    u = [[1, 0, 1], [0, 1, 0], [0, 0, 1]]
    yu = forms.congruence_form(y, u)
    spec = eis.TruncationSpec(10, 40)
    a = eis.selberg_E(y, (2.0, 2.0, 0.5), spec)
    b = eis.selberg_E(yu, (2.0, 2.0, 0.5), spec)
    assert a.terms_used == b.terms_used
    assert abs(a.value - b.value) / abs(a.value) <= 1e-12


def test_epstein_reference_value_and_tail():
    z = eis.epstein(np.eye(2), 2.0, 500.0**2)
    assert abs(z.value - ZETA2_BETA2_TWICE) <= z.tail_estimate
    assert z.tail_estimate <= 1e-4


def test_epstein_congruence_invariance_exact():
    y = np.array([[2, 1], [1, 3]])
    u = np.array([[1, 1], [0, 1]])
    yu = u.T @ y @ u
    a = eis.epstein(y, 2.5, 600)
    b = eis.epstein(yu, 2.5, 600)
    # identical value multisets summed in identical (sorted) order
    assert a.value == b.value
    assert a.terms_used == b.terms_used


def test_epstein_dimension_three():
    z = eis.epstein(np.eye(3), 2.5, 900.0)
    assert z.terms_used > 0 and z.tail_estimate < 1e-2
    assert abs(z.value.imag) < 1e-15


def test_monotone_truncation_within_tail_estimate():
    # enlarging the bound moves the value by less than the recorded tail
    y = np.array([[2, 1], [1, 3]])
    small = eis.epstein(y, 2.3, 400.0)
    large = eis.epstein(y, 2.3, 4000.0)
    assert abs(large.value - small.value) <= small.tail_estimate
    zs = eis.zeta_Z2(2.5, 0.3 + 1.4j, 500.0)
    zl = eis.zeta_Z2(2.5, 0.3 + 1.4j, 5000.0)
    assert abs(zl.value - zs.value) <= zs.tail_estimate


def test_real_analytic_bridge_and_leading_term():
    for s in (2.0, 3.0):
        e = eis.real_analytic_E(1j, s, 500.0**2)
        lhs = complex_zeta(2 * s) * e.value
        rhs = eis.epstein(np.eye(2), s, 500.0**2).value
        assert abs(lhs - rhs) / abs(rhs) <= 1e-8
    # modular invariance at matched truncation: tau and -1/tau, tau + 1
    tau = 0.3 + 1.7j
    e0 = eis.real_analytic_E(tau, 2.5, 800.0).value
    for gt in (-1.0 / tau, tau + 1.0):
        e1 = eis.real_analytic_E(gt, 2.5, 800.0).value
        assert abs(e0 - e1) / abs(e0) <= 1e-10
    # identity coset dominates for large imaginary part
    t = 60.0
    e = eis.real_analytic_E(1j * t, 2.5, 10.0).value
    assert abs(e / t**2.5 - 1.0) <= 0.05


def test_zeta_z2_reference_and_periodicity():
    z = eis.zeta_Z2(2.0, 1j, 500.0**2)
    assert abs(z.value - 2 * ZETA2_BETA2_TWICE) <= 2.1 * z.tail_estimate
    a = eis.zeta_Z2(2.5, 0.3 + 1.4j, 700.0)
    b = eis.zeta_Z2(2.5, 1.3 + 1.4j, 700.0)
    assert abs(a.value - b.value) / abs(a.value) <= 1e-12


def test_zeta_z2_bridge_to_epstein(rng):
    for _ in range(10):
        g = rng.standard_normal((2, 2))
        y = g @ g.T + 0.4 * np.eye(2)
        y1 = y[0, 0]
        det = float(np.linalg.det(y))
        tau_y = y[0, 1] / y1 + 1j * math.sqrt(det) / y1
        bound = 500.0
        lhs = 2 * eis.epstein(y, 2.3, bound).value
        rhs = (tau_y.imag / math.sqrt(det)) ** 2.3 * eis.zeta_Z2(
            2.3, tau_y, bound / y1
        ).value
        assert abs(lhs - rhs) / abs(lhs) <= 1e-12


def test_zeta_z2_star_decomposition_and_parity():
    for (s, tau, bound, tol) in (
        (2.3, 0.3 + 1.7j, 2.0e5, 1e-8),
        (3.0, 1j, 4.0e4, 1e-9),
    ):
        _, _, residual = eis.zeta_Z2_decomposition(s, tau, bound)
        assert residual <= tol
    a = eis.zeta_Z2_star(2.2, 0.37 + 1.3j).value
    b = eis.zeta_Z2_star(2.2, -0.37 + 1.3j).value
    assert a == b  # cosine parity is exact
    z5 = eis.zeta_Z2_star(2.0, 0.3 + 5j).value
    z10 = eis.zeta_Z2_star(2.0, 0.3 + 10j).value
    assert abs(z10) <= 10 * math.exp(-10 * math.pi) * abs(z5)


def test_mu_parabolic_invariance_and_scale():
    y = forms.HalfIntegralForm(1, 2, 3, 1, 0, 1)
    u = [[1, 0, 0], [1, 1, 0], [0, 0, 1]]
    yu = forms.congruence_form(y, u)
    a = eis.mu_parabolic(y, 2.0, 300.0)
    b = eis.mu_parabolic(yu, 2.0, 300.0)
    assert a.terms_used == b.terms_used
    assert abs(a.value - b.value) / abs(a.value) <= 1e-12
    doubled = forms.HalfIntegralForm(2, 4, 6, 2, 0, 2)
    c = eis.mu_parabolic(doubled, 2.0, 4 * 300.0)
    assert abs(a.value - c.value) / abs(a.value) <= 1e-12


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 5))
def test_plane_gram_determinant_equals_adjugate_value(a, b, c):
    # for a primitive normal n, the Gram determinant of an integral basis of
    # the orthogonal plane equals adj(Y)[n]
    n = (a, b, c)
    if math.gcd(*n) != 1:
        return
    y = forms.HalfIntegralForm(2, 3, 5, 1, -1, 2)
    s, u, v = il.snf([list(n)])
    basis = [[v[i][1] for i in range(3)], [v[i][2] for i in range(3)]]
    for w in basis:
        assert sum(w[i] * n[i] for i in range(3)) == 0
    g2 = y.gram2()
    gram = [
        [sum(basis[r][i] * g2[i][j] * basis[t][j] for i in range(3) for j in range(3))
         for t in range(2)]
        for r in range(2)
    ]
    det_gram = Fraction(gram[0][0] * gram[1][1] - gram[0][1] ** 2, 4)
    assert det_gram == Fraction(_qform(il.adj3(g2), n), 4)
