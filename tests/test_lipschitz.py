import math

import mpmath
import numpy as np
import pytest

from siegel3 import branch, forms, lipschitz as lip
from siegel3.errors import DomainError

PI2_OVER_SINH2 = -0.0739998067544724274033469636317  # -pi^2 / sinh(pi)^2


def _z0():
    x0 = np.array([[0.25, 0.125, 0.0], [0.125, -0.25, 0.0], [0.0, 0.0, 0.125]])
    return x0 + 1j * np.eye(3)


def _bare_sum_per_abc(exponents, z, max_abs):
    """The per-(a, b, c) loop that the box chunks replaced (oracle): one
    power_terms call over (d, e, f) per (a, b, c), and the shell estimate."""
    s, w, u = exponents
    side = np.arange(-max_abs, max_abs + 1)
    d_, e_, f_ = (x.ravel() for x in np.meshgrid(side, side, side, indexing="ij"))
    boundary = (np.abs(d_) == max_abs) | (np.abs(e_) == max_abs) | (np.abs(f_) == max_abs)
    total, n_terms, shell_sum = 0.0 + 0.0j, 0, 0.0
    for a in side:
        for b in side:
            for c in side:
                vals = branch.power_terms(
                    (-s, -w, -u), z[0, 0] + a, z[0, 1] + b, z[0, 2] + c,
                    z[1, 1] + d_, z[1, 2] + e_, z[2, 2] + f_)
                total += vals.sum()
                n_terms += vals.size
                on_shell = max(abs(a), abs(b), abs(c)) == max_abs
                shell_sum += float(np.abs(vals if on_shell else vals[boundary]).sum())
    p_eff = 2.0 * min(complex(s).real, 2.0) + 1.0
    tail = shell_sum * max_abs / max(p_eff - 1.0, 1.0) if max_abs else None
    return complex(total), n_terms, tail


@pytest.mark.parametrize("exponents",
                         [(2.0, 4.0, 5.0), (2.5, 4.0, 5.5), (2.0 + 0.5j, 4.0, 5.0 - 0.5j)])
@pytest.mark.parametrize("max_abs,chunk", [(0, None), (1, None), (3, None), (3, 7**2)])
def test_lhs_box_chunks_match_per_abc_loop(monkeypatch, exponents, max_abs, chunk):
    if chunk:  # force leading-axis chunks on a small box
        monkeypatch.setattr(lip, "_CHUNK", chunk)
    z = _z0()
    val, n, tail = lip.lattice_sum_lhs(exponents, z, max_abs)
    ref, n_ref, tail_ref = _bare_sum_per_abc(exponents, z, max_abs)
    assert n == n_ref == (2 * max_abs + 1) ** 6
    assert abs(val - ref) <= 1e-12 * abs(ref)
    if max_abs == 0:
        assert tail is None and tail_ref is None
    else:
        assert abs(tail - tail_ref) <= 1e-12 * tail_ref
    if complex(exponents[2]).imag or exponents[2] != int(exponents[2]):
        # no exact f-direction sum off the integers: tail_correction is a no-op
        assert lip.lattice_sum_lhs(exponents, z, max_abs, tail_correction=True) == (val, n, tail)


def test_f_direction_sum_matches_mpmath():
    # sum_f (x + f)^(-u) = zeta(u, x) + (-1)^u zeta(u, 1 - x) (Hurwitz zeta)
    rng = np.random.default_rng(7)
    for u in range(2, lip.EXACT_F_MAX_U + 1):
        for _ in range(12):
            alpha = complex(*rng.normal(size=2)) * 10 ** rng.uniform(-1, 1)
            x = complex(rng.uniform(-2, 2), 10 ** rng.uniform(-2, math.log10(3)))
            got = complex(lip._f_direction_sum(np.array([alpha]), np.array([x * alpha]), u)[0])
            with mpmath.workdps(30):
                xm = mpmath.mpc(x)
                ref = complex(mpmath.mpc(alpha) ** (-u)
                              * (mpmath.zeta(u, xm) + (-1) ** u * mpmath.zeta(u, 1 - xm)))
            assert abs(got - ref) <= 1e-12 * abs(ref), (u, alpha, x)


def test_exact_f_direction_matches_long_bare_sum():
    # the a..e box at max_abs 1 with f summed directly over |f| <= 4000,
    # where the f^(-5) tail beyond it is far below the tolerance
    z, e = _z0(), (2.0, 4.0, 5.0)
    val, n, tail = lip.lattice_sum_lhs(e, z, 1, tail_correction=True)
    assert n == 3**5 and tail > 0
    side = np.arange(-1, 2)
    fs = np.arange(-4000, 4001)
    ref = 0.0 + 0.0j
    for a, b, c, d, e_ in np.ndindex(3, 3, 3, 3, 3):
        ref += branch.power_terms(
            (-2, -4, -5), z[0, 0] + side[a], z[0, 1] + side[b], z[0, 2] + side[c],
            z[1, 1] + side[d], z[1, 2] + side[e_], z[2, 2] + fs).sum()
    assert abs(val - ref) <= 1e-12 * abs(ref)


def test_exact_f_direction_only_in_the_tested_u_range():
    z = _z0()
    for e in ((1.0, 1.0, lip.EXACT_F_MAX_U + 1.0), (2.0, 4.0, 1.0)):
        assert lip.lattice_sum_lhs(e, z, 1, tail_correction=True) == lip.lattice_sum_lhs(e, z, 1)


def test_absurd_truncations_are_refused():
    z = _z0()
    with pytest.raises(DomainError):
        lip.lattice_sum_lhs((2.0, 4.0, 5.0), z, -1)  # an empty box
    with pytest.raises(DomainError):
        lip.lattice_sum_lhs((2.0, 4.0, 5.0), z, 40)  # 81^6 terms
    with pytest.raises(DomainError):
        lip.lattice_sum_lhs((2.0, 4.0, 5.0), z, 64, tail_correction=True)  # 129^5 terms
    with pytest.raises(DomainError):
        lip.fourier_side_rhs((2.0, 4.0, 5.0), z, 10**6)
    with pytest.raises(DomainError):
        lip.lipschitz_report((2.0, 4.0, 5.0), z, 1, 100)


def test_non_finite_exponents_and_sums_are_refused():
    z = 1j * np.eye(3)
    for e in ((np.nan, 4, 5), (2, 4, np.inf), (2, complex(4, np.nan), 5)):
        for tail_correction in (False, True):
            with pytest.raises(DomainError, match="finite"):
                lip.lattice_sum_lhs(e, z, 2, tail_correction)
        with pytest.raises(DomainError, match="finite"):
            lip.fourier_side_rhs(e, z, 6)
        with pytest.raises(DomainError, match="finite"):
            lip.lipschitz_report(e, z, 1, 6)
    # finite exponents whose sums overflow
    with pytest.raises(DomainError, match="overflowed"), np.errstate(all="ignore"):
        lip.lattice_sum_lhs((2.5, 4, 1e308), z, 2)
    with pytest.raises(DomainError, match="overflowed"), np.errstate(all="ignore"):
        lip.fourier_side_rhs((2, 4, 2 + 300j), z, 6)


def test_lhs_single_term():
    z = _z0()
    val, n, tail = lip.lattice_sum_lhs((2.0, 4.0, 5.0), z, 0)
    assert n == 1 and tail is None  # no shell to extrapolate: no estimate
    assert abs(val - branch.power_p((-2, -4, -5), z)) <= 1e-14 * abs(val)


def test_lhs_magnitude_bound_far_out():
    z = 10j * np.eye(3)
    val, n, _ = lip.lattice_sum_lhs((2.0, 4.0, 5.0), z, 2)
    # every term is bounded by 10^-25 since |tau1+a| >= 10,
    # |det (Z+B)_2| >= 100 and |det(Z+B)| >= 1000 for purely real shifts
    assert abs(val) <= 1e-25 * n


def test_rhs_empty_below_minimal_trace():
    val, n = lip.fourier_side_rhs((2.0, 4.0, 5.0), _z0(), 2)
    assert val == 0.0 and n == 0


def test_rhs_vectorization_matches_scalar_terms():
    z = _z0()
    e = (2.0, 4.0, 5.0)
    val, n = lip.fourier_side_rhs(e, z, 3)
    s, w, u = e
    total = 0.0
    for t in forms.enumerate_J(3):
        g = 0.5 * np.array(t.gram2(), dtype=float)
        wtw = branch.W3 @ g @ branch.W3
        tr = np.trace(g @ z)
        total += branch.power_p((-w, -s, s + w + u - 2), 1j * wtw) * np.exp(2j * np.pi * tr)
    sigma = s + 2 * w + 3 * u
    pref = -(
        1.0 / 8.0 / math.pi**1.5
        * np.exp(sigma * (math.log(2 * math.pi) - 0.5j * np.pi))
        * np.exp(-0.5j * np.pi * sigma)
    )
    with mpmath.workdps(30):
        pref /= complex(mpmath.gamma(s + w + u - 1) * mpmath.gamma(w + u - 0.5) * mpmath.gamma(u))
    assert abs(val - pref * total) <= 1e-13 * abs(val)


def test_rhs_runs_match_one_run(monkeypatch):
    val, n = lip.fourier_side_rhs((2.0, 4.0, 5.0), _z0(), 6)
    monkeypatch.setattr(lip, "_CHUNK", 100)  # 2,824 forms on 20 diagonals in 17 runs
    val_r, n_r = lip.fourier_side_rhs((2.0, 4.0, 5.0), _z0(), 6)
    assert len(forms._diagonal_runs(6, 100)[0]) == 17
    assert n_r == n == 2824
    assert abs(val_r - val) <= 1e-13 * abs(val)


def test_rhs_termwise_exponential_bound():
    z = _z0()
    lam_min = float(np.min(np.linalg.eigvalsh(z.imag)))
    for t in forms.enumerate_J(5):
        g = 0.5 * np.array(t.gram2(), dtype=float)
        wtw = branch.W3 @ g @ branch.W3
        term = branch.power_p((-4.0, -2.0, 9.0), 1j * wtw) * np.exp(
            2j * np.pi * np.trace(g @ z)
        )
        # |p| <= (16/9) det(T)^9 since the negative-exponent corners are >= 3/4
        bound = 2.0 * float(t.det()) ** 9 * math.exp(-2 * math.pi * lam_min * (t.t1 + t.t2 + t.t3))
        assert abs(term) <= bound


def test_two_sided_gap_decreases():
    z = _z0()
    gaps = [
        lip.lipschitz_report((2.0, 4.0, 5.0), z, ma, tb).relative_gap
        for (ma, tb) in ((3, 9), (5, 10))
    ]
    assert gaps[1] < gaps[0]
    assert gaps[1] < 5e-3


def test_two_sided_gap_with_tail_correction():
    rep = lip.lipschitz_report((2.0, 4.0, 5.0), _z0(), 5, 10, tail_correction=True)
    assert rep.relative_gap <= 1e-4


def test_lhs_periodicity():
    z = _z0()
    e = (2.0, 4.0, 5.0)
    b0 = np.zeros((3, 3))
    b0[0, 1] = b0[1, 0] = 1.0
    lhs1, _, tail = lip.lattice_sum_lhs(e, z, 5)
    lhs2, _, _ = lip.lattice_sum_lhs(e, z + b0, 5)
    assert abs(lhs1 - lhs2) <= 3 * tail
    rhs1, _ = lip.fourier_side_rhs(e, z, 9)
    rhs2, _ = lip.fourier_side_rhs(e, z + b0, 9)
    assert abs(rhs1 - rhs2) <= 1e-12 * abs(rhs1)


def test_classical_reference_at_two():
    rep, closed = lip.classical_lipschitz(1j, 2.0, 4000)
    assert abs(closed - PI2_OVER_SINH2) <= 1e-14
    assert abs(rep.rhs - closed) <= 1e-12 * abs(closed)
    assert rep.relative_gap <= 1e-9


def test_classical_two_path_s3():
    rep, _ = lip.classical_lipschitz(0.5 + 1j, 3.0, 100000)
    assert rep.relative_gap <= 1e-6


def test_classical_rhs_geometric_decay():
    # adding terms beyond the cutoff changes the fast side below 1e-15
    r1, _ = lip.classical_lipschitz(1j, 2.0, 30)
    r2, _ = lip.classical_lipschitz(1j, 2.0, 60)
    assert abs(r1.rhs - r2.rhs) <= 1e-15
