import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest

from siegel3 import branch, forms, lipschitz as lip, specfun
from siegel3.errors import DomainError

PI2_OVER_SINH2 = -0.0739998067544724274033469636317  # -pi^2 / sinh(pi)^2


def _z0():
    x0 = np.array([[0.25, 0.125, 0.0], [0.125, -0.25, 0.0], [0.0, 0.0, 0.125]])
    return x0 + 1j * np.eye(3)


def _z_coupled():
    """A general-Y point: Im Z has off-diagonal entries up to 0.75 of its diagonal."""
    x = np.array([[0.3, -0.2, 0.45], [-0.2, -0.1, 0.35], [0.45, 0.35, 0.2]])
    return x + 1j * np.array([[1.0, 0.75, -0.6], [0.75, 1.25, -0.7], [-0.6, -0.7, 0.9]])


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
                         [(2.0, 4.0, 5.0), (2.5, 4.0, 5.5), (2.0 + 0.5j, 4.0, 5.0 - 0.5j),
                          (2.0 + 0.5j, 4.0, 5.5 - 1.5j), (2.5, 4.0 + 1j, 5.0),
                          (2.5, 4.0, 15.5), (2.5, 4.0, 3.5 + 2j)])
@pytest.mark.parametrize("max_abs,chunk", [(0, None), (1, None), (3, None), (3, 7**2)])
def test_lhs_box_chunks_match_per_abc_loop(monkeypatch, exponents, max_abs, chunk):
    # the factorized sum against whole power_terms terms, on every f-kernel: integer u
    # (the last exponents under a prefactor off the integers), real u (15.5: the polar
    # exp's angle reaches ~48) and |Im u| >= 1
    if chunk:  # force leading-axis chunks on a small box
        monkeypatch.setattr(lip, "_CHUNK", chunk)
    for z in (_z0(), _z_coupled()):
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
            assert lip.lattice_sum_lhs(exponents, z, max_abs, True) == (val, n, tail)


def test_f_direction_sum_matches_mpmath():
    # sum_f (x + f)^(-u) = zeta(u, x) + (-1)^u zeta(u, 1 - x) (Hurwitz zeta)
    rng = np.random.default_rng(7)
    for u in range(2, lip.EXACT_F_MAX_U + 1):
        for _ in range(12):
            alpha = complex(*rng.normal(size=2)) * 10 ** rng.uniform(-1, 1)
            x = complex(rng.uniform(-2, 2), 10 ** rng.uniform(-2, math.log10(3)))
            coef = lip._f_coefficients(u)
            got = alpha ** (-u) * complex(lip._f_direction_sum(np.array([x]), coef)[0])
            with mpmath.workdps(30):
                xm = mpmath.mpc(x)
                ref = complex(mpmath.mpc(alpha) ** (-u)
                              * (mpmath.zeta(u, xm) + (-1) ** u * mpmath.zeta(u, 1 - xm)))
            assert abs(got - ref) <= 1e-12 * abs(ref), (u, alpha, x)


def test_exact_f_direction_matches_long_bare_sum():
    # the a..e box at max_abs 1 with f summed directly over |f| <= 4000,
    # where the f^(-5) tail beyond it is far below the tolerance; u alone selects
    # the exact f-sum, so s and w need not be integers
    z = _z0()
    side = np.arange(-1, 2)
    fs = np.arange(-4000, 4001)
    for e in ((2.0, 4.0, 5.0), (2.5 + 0.3j, 4.2, 5.0)):
        val, n, tail = lip.lattice_sum_lhs(e, z, 1, tail_correction=True)
        assert n == 3**5 and tail > 0
        ref = 0.0 + 0.0j
        for a, b, c, d, e_ in np.ndindex(3, 3, 3, 3, 3):
            ref += branch.power_terms(
                tuple(-x for x in e), z[0, 0] + side[a], z[0, 1] + side[b], z[0, 2] + side[c],
                z[1, 1] + side[d], z[1, 2] + side[e_], z[2, 2] + fs).sum()
        assert abs(val - ref) <= 1e-12 * abs(ref), e


def _point_with_y_inv_33(rng, y_inv_33):
    """A seeded Siegel point whose (Y^-1)_33 is y_inv_33: every exact f-sum
    term then has Im x >= 1 / y_inv_33, so |q| reaches e^(-2 pi / y_inv_33)."""
    h = rng.normal(size=(3, 3))
    w = h @ h.T + 0.1 * np.eye(3)
    x = rng.uniform(-0.5, 0.5, (3, 3))
    return 0.5 * (x + x.T) + 1j * np.linalg.inv(w * (y_inv_33 / w[2, 2]))


def _bare_f_sum_with_midpoint_tails(exponents, z, max_abs, f_max):
    """The a..e box with f summed directly over |f| <= f_max (power_terms, integer
    exponents), plus the two f tails per a..e term from the midpoint rule
    with its first derivative correction: sum_(f > F) (x + f)^(-u) =
    (x + F + 1/2)^(1-u) / (u-1) - u/24 (x + F + 1/2)^(-u-1) + O(F^(-u-3))."""
    s, w, u = exponents
    side = np.arange(-max_abs, max_abs + 1)
    fs = np.arange(-f_max, f_max + 1)
    total = 0.0 + 0.0j
    for a, b, c, d, e in itertools.product(side, repeat=5):
        entries = (z[0, 0] + a, z[0, 1] + b, z[0, 2] + c, z[1, 1] + d, z[1, 2] + e)
        total += branch.power_terms((-s, -w, -u), *entries, z[2, 2] + fs).sum()
        p1, p2, x = branch._pivots(*entries, z[2, 2])
        v = f_max + 0.5 + np.array([1, -1]) * x  # f > F, and f < -F as (-1)^u (-x - f)
        tails = ((v ** (1 - u) / (u - 1) - u / 24 * v ** (-u - 1)) * [1, (-1) ** u]).sum()
        total += p1 ** -s * (p1 * p2) ** (-w - u) * tails
    return complex(total)


@pytest.mark.parametrize("u", [2, 5, 9, 16])
@pytest.mark.parametrize("chunk", [None, 3**3, 3])
def test_exact_f_direction_off_unit_y(monkeypatch, u, chunk):
    # (Y^-1)_33 from 1 to 10: |q| up to e^(-2 pi / 10) ~ 0.53 instead of e^(-2 pi)
    if chunk:  # blocks over 2 or 4 leading axes instead of one open grid
        monkeypatch.setattr(lip, "_CHUNK", chunk)
    rng = np.random.default_rng(1700 + u)
    for y_inv_33 in (1.0, 3.0, 10.0):
        z = _point_with_y_inv_33(rng, y_inv_33)
        val, n, _ = lip.lattice_sum_lhs((2.0, 3.0, float(u)), z, 1, tail_correction=True)
        ref = _bare_f_sum_with_midpoint_tails((2, 3, u), z, 1, 1000)
        assert n == 3**5
        assert abs(val - ref) <= 1e-12 * abs(ref), (y_inv_33, val, ref)


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


def test_points_outside_the_siegel_space_are_refused():
    # Z = 0, Im Z indefinite, and Z not symmetric: refused before any term is summed
    for z in (np.zeros((3, 3)), 0.5 + np.diag([1j, 1j, -1j]), _z0() + np.triu(np.ones((3, 3)), 1)):
        for tail_correction in (False, True):
            with pytest.raises(DomainError, match="Siegel"):
                lip.lattice_sum_lhs((2.0, 4.0, 5.0), z, 1, tail_correction)
        with pytest.raises(DomainError, match="Siegel"):
            lip.fourier_side_rhs((2.5, 4.0, 5.5), z, 6)


def test_ill_scaled_siegel_point_is_accepted():
    # Im Z = diag(1e-3, 1e-3, 1e3), cond 1e6: summed on every lattice path and the fast side
    z = 1j * np.diag([1e-3, 1e-3, 1e3])
    for e in ((2.0, 4.0, 5.0), (2.5, 4.0, 5.5)):
        for tail_correction in (False, True):
            val, n, _ = lip.lattice_sum_lhs(e, z, 1, tail_correction)
            assert np.isfinite(val) and n > 0
        one = lip.lattice_sum_lhs(e, z, 0)[0]
        assert abs(one - branch.power_p(tuple(-x for x in e), z)) <= 1e-13 * abs(one)
        assert lip.fourier_side_rhs(e, z, 6)[1] > 0


def test_overflowing_terms_are_refused_without_warnings():
    # (x + f)^1000.5 leaves the double range at |x + f|^2 >= 5 while the prefactor
    # p_{0,-996.5+1000.5,0} = det(Z+B)_2^4 stays finite: the sum is refused, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="not finite"):
            lip.lattice_sum_lhs((0.0, 996.5, -1000.5), 1j * np.eye(3), 2)


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
        wtw = g[::-1, ::-1]  # W g W, W the anti-diagonal permutation
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


def _rhs_by_power_terms(exponents, z, trace_bound):
    """The fast side through the complex power_terms at i W T W, run by run
    (oracle): the route that the closed form replaced."""
    s, w, u = exponents
    total = 0.0 + 0.0j
    for run in forms._diagonal_runs(trace_bound)[0]:
        t = forms.enumerate_J(trace_bound, run)
        h12, h13, h23 = t.b12 / 2.0, t.b13 / 2.0, t.b23 / 2.0
        pw = branch.power_terms((-w, -s, s + w + u - 2.0),  # W T W reverses the coordinates
                                1j * t.t3, 1j * h23, 1j * h13, 1j * t.t2, 1j * h12, 1j * t.t1)
        tr_tz = (t.t1 * z[0, 0] + t.t2 * z[1, 1] + t.t3 * z[2, 2]
                 + 2.0 * (h12 * z[0, 1] + h13 * z[0, 2] + h23 * z[1, 2]))
        total += (pw * np.exp(2j * np.pi * tr_tz)).sum()
    phase = np.exp(-0.5j * np.pi * (s + 2 * w + 3 * u))
    return -0.125 * phase * specfun.lipschitz_factor(s, w, u) * total


@pytest.mark.parametrize("exponents", [(2.0, 4.0, 5.0), (3.0, 1.0, 7.0),  # integer, real, complex
                                       (2.5, 4.0, 5.5), (2.0 + 0.5j, 4.0, 5.0 - 0.5j)])
def test_rhs_closed_form_matches_power_terms(monkeypatch, exponents):
    monkeypatch.setattr(lip, "_CHUNK", 500)  # several runs from trace bound 5 on
    rng = np.random.default_rng(1717)
    for trace_bound in range(3, 10):
        h, x = rng.normal(size=(3, 3)), rng.uniform(-0.5, 0.5, (3, 3))
        z = 0.5 * (x + x.T) + 1j * (0.3 * h @ h.T + 0.7 * np.eye(3))  # Y off the identity
        val, n = lip.fourier_side_rhs(exponents, z, trace_bound)
        ref = _rhs_by_power_terms(exponents, z, trace_bound)
        assert n == len(forms.enumerate_J(trace_bound))
        assert abs(val - ref) <= 1e-13 * abs(ref), (trace_bound, val, ref)
    assert len(forms._diagonal_runs(9, 500)[0]) > 10


def test_rhs_reads_one_enumerate_J_per_run(monkeypatch):
    # the fast side's forms come from forms.enumerate_J, one call per run
    calls = []

    def recording(trace_bound, run=None):
        rows = forms.enumerate_J(trace_bound, run)
        calls.append((trace_bound, run, len(rows)))
        return rows

    monkeypatch.setattr(lip, "enumerate_J", recording)
    for trace_bound in (2, 6, 12):
        calls.clear()
        _, n_forms = lip.fourier_side_rhs((2.0, 4.0, 5.0), _z0(), trace_bound)
        runs = forms._diagonal_runs(trace_bound)[0]
        assert [(tb, run) for tb, run, _ in calls] == [(trace_bound, run) for run in runs]
        assert sum(rows for _, _, rows in calls) == n_forms == len(forms.enumerate_J(trace_bound))


def test_rhs_termwise_exponential_bound():
    z = _z0()
    lam_min = float(np.min(np.linalg.eigvalsh(z.imag)))
    for t in forms.enumerate_J(5):
        g = 0.5 * np.array(t.gram2(), dtype=float)
        wtw = g[::-1, ::-1]  # W g W, W the anti-diagonal permutation
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


def test_classical_blocks_match_one_array(monkeypatch):
    # N = 200,000: four blocks on the lattice side and two on the Fourier side
    blocked, _ = lip.classical_lipschitz(0.3 + 0.7j, 2.5 + 1j, 200000)
    monkeypatch.setattr(lip, "_CHUNK", 10**6)
    whole, _ = lip.classical_lipschitz(0.3 + 0.7j, 2.5 + 1j, 200000)
    assert abs(blocked.lhs - whole.lhs) <= 1e-13 * abs(whole.lhs)
    assert abs(blocked.rhs - whole.rhs) <= 1e-13 * abs(whole.rhs)


def test_classical_rhs_geometric_decay():
    # adding terms beyond the cutoff changes the fast side below 1e-15
    r1, _ = lip.classical_lipschitz(1j, 2.0, 30)
    r2, _ = lip.classical_lipschitz(1j, 2.0, 60)
    assert abs(r1.rhs - r2.rhs) <= 1e-15
