from fractions import Fraction

import pytest

from siegel3 import eisenstein as eis, forms, series
from siegel3.errors import DomainError, DuplicateKey, NonReducedKey, ParseError

I3 = forms.HalfIntegralForm(1, 1, 1, 0, 0, 0)


def _write(tmp_path, text, name="coeffs.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_load_simple_table(tmp_path):
    path = _write(tmp_path, "k 24\n1 1 1 0 0 0 1.0 0.0\n")
    table = series.load_coefficients(path)
    assert table.k == 24
    assert table.coefficient(forms.minkowski_reduce(I3).form) == 1.0
    # of the three classes with det <= 1, the sum reads the one the file holds (eps 24)
    assert series.km_classic(table, 15.0, 1).value == 1.0 / 24.0


@pytest.mark.parametrize("k", [-5, 0, 23, 7.5])
def test_coefficient_tables_refuse_a_weight_that_is_not_positive_and_even(k):
    # km_classic's and km_twisted's convergence regions are read off k
    for make in (lambda: series.CoefficientTable(k, lambda red: 1.0 + 0.0j),
                 lambda: series.ones_provider(k=k), lambda: series.det_power_provider(0.5, k=k)):
        with pytest.raises(DomainError, match="positive even integer"):
            make()
    assert series.CoefficientTable(2, lambda red: None).k == 2


def test_load_rejects_duplicates(tmp_path):
    path = _write(tmp_path, "k 24\n1 1 1 0 0 0 1.0 0.0\n1 1 1 0 0 0 2.0 0.0\n")
    with pytest.raises(DuplicateKey):
        series.load_coefficients(path)


def test_load_rejects_non_reduced_keys(tmp_path):
    # diag(3,2,1) is positive definite but not the canonical representative
    path = _write(tmp_path, "k 24\n3 2 1 0 0 0 1.0 0.0\n")
    with pytest.raises(NonReducedKey):
        series.load_coefficients(path)


def test_load_rejects_malformed(tmp_path):
    with pytest.raises(ParseError):
        series.load_coefficients(_write(tmp_path, "weight 24\n"))
    with pytest.raises(ParseError):
        series.load_coefficients(_write(tmp_path, "k 24\n1 1 1 0 0 1.0 0.0\n"))
    with pytest.raises(ParseError):
        series.load_coefficients(_write(tmp_path, "k 23\n"))
    with pytest.raises(ParseError):
        series.load_coefficients(_write(tmp_path, ""))


@pytest.mark.parametrize("value", ["nan 0.0", "1.0 inf", "-inf 0", "1e400 0.0", "0 -1e400"])
def test_load_rejects_non_finite_values(tmp_path, value):
    path = _write(tmp_path, "k 24\n1 1 1 0 0 0 %s\n" % value)
    with pytest.raises(ParseError, match="line 2: .* not finite"):
        series.load_coefficients(path)


def test_missing_class_counts_misses(tmp_path):
    path = _write(tmp_path, "k 24\n1 1 1 0 0 0 1.0 0.0\n")
    table = series.load_coefficients(path)
    other = forms.HalfIntegralForm(1, 1, 2, 0, 0, 0)
    assert table.coefficient(forms.minkowski_reduce(other).form) is None
    # each sum counts its own misses: the det-1/2 and det-3/4 classes
    for _ in range(2):
        assert series.km_classic(table, 15.0, 1).misses == 2
    assert series.km_classic(table, 15.0, Fraction(1, 2)).misses == 1


def test_coefficient_is_class_function(rng, tmp_path):
    path = _write(tmp_path, "k 24\n1 2 3 0 0 0 2.5 -1.0\n")
    table = series.load_coefficients(path)
    t0 = forms.HalfIntegralForm(1, 2, 3, 0, 0, 0)
    u = [[1, 1, 0], [0, 1, 0], [-1, 0, 1]]
    moved = forms.congruence_form(t0, u)
    assert moved != t0
    assert (table.coefficient(forms.minkowski_reduce(moved).form)
            == table.coefficient(forms.minkowski_reduce(t0).form) == 2.5 - 1.0j)


def test_class_sums_read_the_cached_representatives_without_reducing(monkeypatch):
    table = series.det_power_provider(-1.5)
    classes = forms.reduced_classes(4)  # builds and caches the class list
    # the representatives are canonical, so reading them as they stand changes no value
    assert all(table.coefficient(t)
               == table.coefficient(forms.minkowski_reduce(t).form) for t in classes)
    calls, reduce = [], forms.minkowski_reduce

    def counting(*args, **kwargs):
        calls.append(args)
        return reduce(*args, **kwargs)

    monkeypatch.setattr(forms, "minkowski_reduce", counting)
    monkeypatch.setattr(series, "minkowski_reduce", counting)
    assert series.km_classic(table, 5.0, 4).classes_used == len(classes)
    assert calls == []


def test_km_classic_single_smallest_class():
    # restrict to the unique class of smallest determinant (det 1/2, eps 24)
    ones = series.ones_provider(k=24)
    sv = series.km_classic(ones, 5.0, Fraction(1, 2))
    assert sv.classes_used == 1
    expected = 1.0 / 24.0 * float(Fraction(1, 2)) ** -5.0
    assert abs(sv.value - expected) <= 1e-15 * abs(expected)
    assert sv.warnings  # Re(s) = 5 is below 2 + k/2 = 14


def test_km_classic_value_and_brute_eps(rng):
    ones = series.ones_provider(k=24)
    sv = series.km_classic(ones, 16.0, 2)
    direct = 0.0
    for t in forms.reduced_classes(2):
        direct += 1.0 / (forms.automorphism_count(t) * float(t.det()) ** 16.0)
    assert abs(sv.value - direct) <= 1e-14 * abs(direct)
    assert sv.warnings == []


def test_km_twisted_single_class_matches_eisenstein():
    ones = series.ones_provider(k=24)
    spec = eis.TruncationSpec(6, 6)
    sv = series.km_twisted(ones, (2.0, 2.0, 13.5), Fraction(1, 2), spec)
    fcc = forms.reduced_classes(Fraction(1, 2))[0]
    ev = eis.selberg_E(fcc, (2.0, 2.0, 13.5), spec)
    eps = forms.automorphism_count(fcc)
    assert sv.classes_used == 1
    assert abs(sv.value - ev.value / eps) <= 1e-14 * abs(sv.value)


def test_km_twisted_region_warning():
    ones = series.ones_provider(k=24)
    spec = eis.TruncationSpec(4, 4)
    assert series.km_twisted(ones, (2.0, 2.0, 3.0), 1, spec).warnings
    assert not series.km_twisted(ones, (2.0, 2.0, 13.5), 1, spec).warnings


def test_km_linearity_exact():
    alpha, beta = 1.5 - 2.0j, -0.75 + 0.5j
    ones = series.ones_provider(k=24)
    detp = series.det_power_provider(1.0, k=24)
    mixed = series.CoefficientTable(24, lambda red: alpha + beta * float(red.det()))
    for fn in (
        lambda t: series.km_classic(t, 9.0, 3).value,
        lambda t: series.km_twisted(t, (2.0, 2.0, 12.0), 2, eis.TruncationSpec(4, 4)).value,
    ):
        combined = fn(mixed)
        split = alpha * fn(ones) + beta * fn(detp)
        assert abs(combined - split) <= 1e-13 * abs(combined)


def test_lambda_symmetry_image_leaves_region():
    # |Lambda(s,w,u)| vs |Lambda(w,s,-s-w-u+k)| is a diagnostic only: the
    # image point leaves the convergence region, so the twisted sum there is
    # flagged rather than asserted
    ones = series.ones_provider(k=24)
    s, w, u = 2.0, 2.0, 13.5
    image = (w, s, -s - w - u + 24)
    sv = series.km_twisted(ones, image, 1, eis.TruncationSpec(4, 4))
    assert sv.warnings
