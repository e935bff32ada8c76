import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from siegel3 import branch, lipschitz, matrices as mx
from siegel3.errors import BranchCutError, DomainError, require_finite

# entry (i, j) of Z behind each power_terms argument (tau1, z1, z2, tau2, z3, tau3)
_AXES = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def _h(z):
    """(h1, h2, h3) at Z, the logs of its pivot chain."""
    return branch._logs(branch._pivots(*(z[i, j] for i, j in _AXES)))


def _h_inverse(z):
    """(h1, h2, h3) at -Z^(-1), from the pivots of Jacobi's complementary minors."""
    return branch._logs(branch._inverse_pivots(*(z[i, j] for i, j in _AXES)))


def test_branch_at_imaginary_identity():
    h1, h2, h3 = _h(1j * np.eye(3))
    assert abs(h1 - 0.5j * np.pi) < 1e-15
    assert abs(h2 - 1j * np.pi) < 1e-15
    assert abs(h3 - 1.5j * np.pi) < 1e-15


def test_branch_at_imaginary_diagonal():
    h3 = _h(1j * np.diag([1.0, 1.0, 4.0]))[2]
    assert abs(h3 - (1.5j * np.pi + np.log(4))) < 1e-14


def test_exp_consistency_and_inverse_agreement(rng):
    worst_exp = worst_inv = 0.0
    for _ in range(1000):
        z = mx.random_siegel(rng)
        h1, h2, h3 = _h(z)
        d1 = z[0, 0]
        d2 = z[0, 0] * z[1, 1] - z[0, 1] ** 2
        d3 = np.linalg.det(z)
        worst_exp = max(
            worst_exp,
            abs(np.exp(h1) - d1) / abs(d1),
            abs(np.exp(h2) - d2) / abs(d2),
            abs(np.exp(h3) - d3) / abs(d3),
        )
        direct = _h(mx.mobius(mx.inversion6(), z)[0])
        explicit = _h_inverse(z)
        worst_inv = max(worst_inv, *(abs(a - b) for a, b in zip(direct, explicit)))
    assert worst_exp <= 1e-12
    assert worst_inv <= 1e-12


def test_h3_inversion_sum(rng):
    for _ in range(100):
        z = mx.random_siegel(rng)
        total = _h(z)[2] + _h_inverse(z)[2]
        assert abs(total - 3j * np.pi) < 1e-12
        # the imaginary part of h3 stays within its a-priori bound
        assert abs(_h(z)[2].imag) <= 4.5 * np.pi + 1e-12


def test_power_examples():
    val = branch.power_p((1, 1, 1), 2j * np.eye(3))
    assert abs(val + 64.0) < 1e-12
    s, w, u = 0.7 - 0.2j, 1.3 + 0.5j, -0.4 + 1.1j
    val = branch.power_p((s, w, u), 1j * np.eye(3))
    assert abs(val - np.exp(0.5j * np.pi * (s + 2 * w + 3 * u))) < 1e-13


def test_power_scaling(rng):
    for _ in range(50):
        g = rng.standard_normal((3, 3))
        y = g @ g.T + 0.3 * np.eye(3)
        c = float(rng.uniform(0.5, 3.0))
        e = tuple(rng.uniform(-2, 2, 3) + 1j * rng.uniform(-2, 2, 3))
        lhs = branch.power_p(e, 1j * c * y)
        rhs = c ** (e[0] + 2 * e[1] + 3 * e[2]) * branch.power_p(e, 1j * y)
        assert abs(lhs - rhs) / abs(rhs) <= 1e-12


def test_power_at_imaginary_closed_form(rng):
    for _ in range(50):
        g = rng.standard_normal((3, 3))
        y = g @ g.T + 0.3 * np.eye(3)
        e = tuple(rng.uniform(-2, 2, 3) + 1j * rng.uniform(-2, 2, 3))
        s, w, u = e
        d1 = y[0, 0]
        d2 = np.linalg.det(y[:2, :2])
        d3 = np.linalg.det(y)
        rhs = (
            np.exp(0.5j * np.pi * (s + 2 * w + 3 * u))
            * d1**s * d2**w * d3**u
        )
        assert abs(branch.power_p(e, 1j * y) - rhs) / abs(rhs) <= 1e-12


def test_inversion_identity_examples(rng):
    assert branch.power_inversion_gap((0.8, -1.2, 2.1), 1j * np.eye(3)) <= 1e-13
    assert branch.power_inversion_gap((1, 0, 0), np.diag([1j, 2j, 3j])) <= 1e-12
    worst = 0.0
    for _ in range(200):
        z = mx.random_siegel(rng, min_im=0.5)
        e = tuple(rng.uniform(-3, 3, 3) + 1j * rng.uniform(-3, 3, 3))
        worst = max(worst, branch.power_inversion_gap(e, z))
    assert worst <= 1e-10


def test_anti_diagonal_congruence_preserves_h3(rng):
    for _ in range(100):
        z = mx.random_siegel(rng)
        zw = z[::-1, ::-1]  # W Z W, W the anti-diagonal permutation
        assert abs(_h(z)[2] - _h(zw)[2]) < 1e-12


def test_path_continuity(rng):
    # straight segments between Siegel points stay inside the space (the
    # imaginary parts average), and the branch values never jump
    for _ in range(100):
        za = mx.random_siegel(rng)
        zb = mx.random_siegel(rng)
        ts = np.linspace(0.0, 1.0, 1000)
        zs = za[None, :, :] * (1 - ts)[:, None, None] + zb[None, :, :] * ts[:, None, None]
        for h in branch._logs(branch._pivots(
            zs[:, 0, 0], zs[:, 0, 1], zs[:, 0, 2], zs[:, 1, 1], zs[:, 1, 2], zs[:, 2, 2]
        )):
            assert np.max(np.abs(np.diff(h))) < 0.1


def _skewed_siegel(rng):
    """A Siegel point with cond Y >= 1e4 (eigenvalues 10^a .. 10^(a+4+c)) and |X| up to 50."""
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    a = rng.uniform(-3, 0)
    y = (q * 10 ** np.array([a, rng.uniform(a, a + 4), a + 4 + rng.uniform(0, 1)])) @ q.T
    x = rng.uniform(-50, 50, (3, 3))
    return 0.5 * (x + x.T) + 0.5j * (y + y.T)


def test_polar_exp_matches_mpmath():
    # e^(a+ib) from e^a and tan(b/2): the phase on |b| <= 20, |b| <= 1e4 and within 1e-12 of
    # multiples of pi/2 (odd multiples of pi among them), then the modulus over a in [-745, 709],
    # to 1e-15 e^a plus two subnormal steps (the spacing of doubles below e^-708)
    rng = np.random.default_rng(3)
    quarter = np.pi / 2 * np.r_[-12:13, rng.integers(-6366, 6367, 200)]
    b = np.concatenate([np.linspace(-20, 20, 4001), rng.uniform(-1e4, 1e4, 4000),
                        (quarter[:, None] + [-1e-12, -1e-13, 0.0, 1e-13, 1e-12]).ravel()])
    a = np.concatenate([np.zeros(b.size), np.linspace(-745, 709, 2000)])
    b = np.concatenate([b, rng.uniform(-20, 20, 2000)])
    got = branch._polar_exp(a.copy(), b.copy(), np.empty(a.size, dtype=complex))
    with mpmath.workdps(30):
        ref = [complex(mpmath.exp(mpmath.mpf(x)) * mpmath.expj(mpmath.mpf(y))) for x, y in zip(a, b)]
    err = np.abs(got - np.array(ref))
    assert (err <= 1e-15 * np.exp(a) + 1e-323).all()
    # an overflowing e^a gives a non-finite value, which the caller refuses, and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = branch._polar_exp(np.array([710.0, 800.0]), np.array([1.0, np.pi]), np.empty(2, complex))
        for value in big:
            with pytest.raises(DomainError, match="not finite"):
                require_finite(value, "the polar exp")


def test_det_by_pivots_matches_mpmath(rng):
    # det Z = p1 p2 p3 by branch._pivots, and on the slow side's grid (the one-term
    # sum of p_{0,0,-1} is 1/det Z), where the cofactor sum errs by up to ~1e-10
    worst = 0.0
    for _ in range(1000):
        z = _skewed_siegel(rng)
        with mpmath.workdps(40):
            det = complex(mpmath.det(mpmath.matrix(z.tolist())))
        d3 = np.prod(branch._pivots(*(z[i, j] for i, j in _AXES)))
        inv = lipschitz.lattice_sum_lhs((0, 0, 1), z, 0)[0]
        worst = max(worst, abs(d3 - det) / abs(det), abs(inv * det - 1))
    assert worst <= 5e-12


def _mp_cofactor_logs(t1, z1, z2, t2, z3, t3):
    """Log t1, Log(-d2) + i pi and Log q + 2 pi i + Log(d3/q), q = z3^2 - t2 t3, at the
    mpmath entries: the cofactor definition of h1, h2, h3 that the pivot chain replaced;
    and det Z."""
    d2, q = t1 * t2 - z1 ** 2, z3 ** 2 - t2 * t3
    d3 = d2 * t3 + 2 * z1 * z2 * z3 - t1 * z3 ** 2 - t2 * z2 ** 2
    logs = (mpmath.log(t1), mpmath.log(-d2) + 1j * mpmath.pi,
            mpmath.log(q) + 2j * mpmath.pi + mpmath.log(d3 / q))
    return logs, d3


def test_pivot_chain_matches_the_cofactor_definition(rng):
    # h_j = h_(j-1) + Log p_j at Z and at -Z^(-1) (Jacobi's pivots) against the cofactor
    # logs in mpmath at Z and at mpmath's -Z^(-1) = -adj Z / det Z: the same branches
    worst = {"random": 0.0, "skewed": 0.0}
    for k in range(1500):
        kind = "random" if k < 1000 else "skewed"
        z = mx.random_siegel(rng) if kind == "random" else _skewed_siegel(rng)
        if kind == "skewed":
            assert np.linalg.cond(z.imag) >= 1e4 and mx.is_siegel_point(z)
        with mpmath.workdps(40):
            t1, z1, z2, t2, z3, t3 = (mpmath.mpc(complex(z[i, j])) for i, j in _AXES)
            logs, det = _mp_cofactor_logs(t1, z1, z2, t2, z3, t3)
            adj = (t2 * t3 - z3 ** 2, z2 * z3 - z1 * t3, z1 * z3 - z2 * t2,
                   t1 * t3 - z2 ** 2, z1 * z2 - t1 * z3, t1 * t2 - z1 ** 2)
            inverse = _mp_cofactor_logs(*(-a / det for a in adj))[0]
            ref = np.array([complex(h) for h in logs + inverse])
        got = np.array(_h(z) + _h_inverse(z), dtype=complex)
        worst[kind] = max(worst[kind], np.abs(got - ref).max())
    assert worst["random"] <= 1e-14 and worst["skewed"] <= 2e-12


def test_branch_cut_detection():
    with pytest.raises(BranchCutError):
        branch._plog(-1.0)
    with pytest.raises(BranchCutError):
        branch._plog(0.0)
    branch._plog(-1.0 + 1e-8j)  # off the cut: fine


def _mp_integer_power(exponents, entries):
    """t1^s d2^w d3^u in mpmath, the integer powers of the leading minors: no branch."""
    s, w, u = (int(x) for x in exponents)
    t1, z1, z2, t2, z3, t3 = (mpmath.mpc(complex(x)) for x in entries)
    d2 = t1 * t2 - z1**2
    d3 = t1 * t2 * t3 + 2 * z1 * z2 * z3 - t1 * z3**2 - t2 * z2**2 - t3 * z1**2
    return complex(t1**s * d2**w * d3**u)


def _scaled_siegel(rng):
    """D Z D for a random Siegel Z and a positive diagonal D with entries from 10^-0.75 to
    10^0.75: cond Y ~5e2 to ~2e4, and pivots as exact as at Z."""
    d = 10 ** rng.uniform(-0.75, 0.75, 3)
    d[rng.permutation(3)[:2]] = 10 ** -0.75, 10 ** 0.75
    return mx.random_siegel(rng) * np.outer(d, d)


def test_integer_powers_match_mpmath(rng):
    # integer exponents take the one exp of s h1 + w h2 + u h3, like all others: against the
    # integer powers of the minors in mpmath, triples with entries up to 64 in absolute value
    triples = [(2, 4, 5), (-2, -4, -5), (40, -64, 20), (64, 64, 64), (-64, 64, -64), (0, 0, 1)]
    triples += [tuple(rng.integers(-64, 65, 3).tolist()) for _ in range(12)]
    for make in (mx.random_siegel, _scaled_siegel):
        zs = [make(rng) for _ in range(24)]
        args = [np.array([z[i, j] for z in zs]) for i, j in _AXES]
        for e in triples:
            try:
                got = branch.power_terms(e, *args)
            except DomainError:  # past the double range at one of the points
                continue
            with mpmath.workdps(40):
                ref = np.array([_mp_integer_power(e, col) for col in zip(*args)])
            normal = (np.abs(ref) > 1e-290) & (np.abs(ref) < 1e290)
            assert np.max(np.abs(got - ref)[normal] / np.abs(ref[normal]), initial=0.0) <= 2e-13, e


def _mp_power(exponents, entries):
    """exp(s h1 + w h2 + u h3) from the four principal logs, in mpmath."""
    s, w, u = (mpmath.mpc(complex(x)) for x in exponents)
    t1, z1, z2, t2, z3, t3 = (mpmath.mpc(complex(x)) for x in entries)
    d2 = t1 * t2 - z1**2
    d3 = t1 * t2 * t3 + 2 * z1 * z2 * z3 - t1 * z3**2 - t2 * z2**2 - t3 * z1**2
    q = z3**2 - t2 * t3
    return complex(mpmath.exp(s * mpmath.log(t1) + w * (mpmath.log(-d2) + 1j * mpmath.pi)
                              + u * (mpmath.log(d3 / q) + mpmath.log(q) + 2j * mpmath.pi)))


@given(seed=st.integers(0, 2**32 - 1),
       re=st.lists(st.floats(-3, 3), min_size=3, max_size=3),
       im=st.lists(st.floats(-2, 2), min_size=3, max_size=3))
def test_power_terms_matches_mpmath_on_grids_and_flat(seed, re, im):
    exponents = tuple(complex(a, b) for a, b in zip(re, im))
    rng = np.random.default_rng(seed)
    z = mx.random_siegel(rng)
    # an open grid of integer shifts, two per entry: 64 terms on six axes
    shifts = rng.integers(-2, 3, size=(6, 2))
    grid = np.ix_(*[z[i, j] + shifts[k] for k, (i, j) in enumerate(_AXES)])
    on_grid = branch.power_terms(exponents, *grid)
    flat_args = [np.broadcast_to(a, on_grid.shape).ravel() for a in grid]
    flat = branch.power_terms(exponents, *flat_args)
    with mpmath.workdps(30):
        ref = np.array([_mp_power(exponents, args) for args in zip(*flat_args)])
    for got in (on_grid.ravel(), flat):
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13


@pytest.mark.parametrize("bad,argument", [
    ((-1.0, 0, 0, 1j, 0, 1j), "d1"),     # tau1 = -1
    ((1j, 2j, 0, 1j, 0, 1j), "-d2"),     # d2 = 3
    ((1j, 0, 0, 1j, 2j, 1j), "q"),       # q = -3
    ((3.0, 0, 1 + 1j, 1j, 0, 1j), "d3/q"),  # d3 = -1, q = 1
])
def test_cut_detected_inside_an_array(bad, argument):
    good = (1j, 0.25, 0.0, 1j, 0.0, 1j)
    t1, z1, z2, t2, z3, t3 = (complex(x) for x in bad)
    d2, q = t1 * t2 - z1 * z1, z3 * z3 - t2 * t3
    d3 = d2 * t3 + 2 * z1 * z2 * z3 - t1 * z3 * z3 - t2 * z2 * z2
    on_cut = {"d1": t1, "-d2": -d2, "q": q, "d3/q": d3 / q}
    # exactly the named argument lies on (-inf, 0]
    assert [k for k, v in on_cut.items() if v.imag == 0 and v.real <= 0] == [argument]
    cols = [np.full(5, g, dtype=complex) for g in good]
    exponents = (0.5 + 0.1j, 1.5, -2.5)
    branch.power_terms(exponents, *cols)  # the clean array passes
    for col, x in zip(cols, bad):
        col[3] = x
    with pytest.raises(BranchCutError):
        branch.power_terms(exponents, *cols)
    with pytest.raises(BranchCutError):  # on an open grid: the bad point is entry (3, 3)
        branch.power_terms(exponents, *np.ix_(*cols[:2]), *cols[2:])


def test_non_finite_exponents_are_refused():
    z = 1j * np.eye(3)
    for e in ((np.nan, 4, 5), (2, 4, np.inf), (2, complex(4, np.nan), 5)):
        with pytest.raises(DomainError):
            branch.power_p(e, z)
        with pytest.raises(DomainError):
            branch.power_p_at_inverse(e, z)
        with pytest.raises(DomainError):
            branch.power_terms(e, *(np.full(3, z[i, j]) for i, j in _AXES))


def test_non_finite_powers_are_refused():
    # finite exponents whose power is NaN (u h3 at iI) or overflows (|det 3iI_1|^800)
    z = 1j * np.eye(3)
    for fn, e, point in ((branch.power_p, (2.5, 4, 1e308), z),
                         (branch.power_p_at_inverse, (2.5, 4, 1e308), z),
                         (branch.power_p, (800, 0, 0), 3 * z),
                         (branch.power_p_at_inverse, (-800, 0, 0), 3 * z)):
        with pytest.raises(DomainError, match="not finite"):
            fn(e, point)


def test_power_terms_overflow_is_refused_without_warnings():
    # |det Z_2|^400.5 ~ e^723 at the entries of iI + 3: one DomainError, no numpy warning
    z = 1j * np.eye(3) + 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="not finite"):
            branch.power_terms((2.5, 400.5, 0), *(np.full(3, z[i, j]) for i, j in _AXES))


def test_points_off_the_siegel_space_and_an_empty_gap_are_refused():
    # -iI and a 2x2 array are no Siegel points (the gap read 4e-15 at -iI), and at 3iI
    # p_{800,0,0}(-Z^(-1)) = (i/3)^800 underflows to 0, where the gap was 0/0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (branch.power_p, branch.power_p_at_inverse, branch.power_inversion_gap):
            for z in (-1j * np.eye(3), 1j * np.eye(2)):
                with pytest.raises(DomainError, match="Siegel"):
                    fn((0.5, 1.5, 2.5), z)
        with pytest.raises(DomainError, match="underflowed"):
            branch.power_inversion_gap((800, 0, 0), 3j * np.eye(3))
