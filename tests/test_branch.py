import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from siegel3 import branch, matrices as mx
from siegel3.errors import BranchCutError, DomainError

# entry (i, j) of Z behind each power_terms argument (tau1, z1, z2, tau2, z3, tau3)
_AXES = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def test_branch_at_imaginary_identity():
    b = branch.branch_h(1j * np.eye(3))
    assert abs(b.h1 - 0.5j * np.pi) < 1e-15
    assert abs(b.h2 - 1j * np.pi) < 1e-15
    assert abs(b.h3 - 1.5j * np.pi) < 1e-15


def test_branch_at_imaginary_diagonal():
    b = branch.branch_h(1j * np.diag([1.0, 1.0, 4.0]))
    assert abs(b.h3 - (1.5j * np.pi + np.log(4))) < 1e-14


def test_exp_consistency_and_inverse_agreement(rng):
    worst_exp = worst_inv = 0.0
    for _ in range(1000):
        z = mx.random_siegel(rng)
        b = branch.branch_h(z)
        d1 = z[0, 0]
        d2 = z[0, 0] * z[1, 1] - z[0, 1] ** 2
        d3 = np.linalg.det(z)
        worst_exp = max(
            worst_exp,
            abs(np.exp(b.h1) - d1) / abs(d1),
            abs(np.exp(b.h2) - d2) / abs(d2),
            abs(np.exp(b.h3) - d3) / abs(d3),
        )
        direct = branch.branch_h(mx.mobius(mx.inversion6(), z)[0])
        explicit = branch.branch_h_inverse(z)
        worst_inv = max(
            worst_inv,
            abs(direct.h1 - explicit.h1),
            abs(direct.h2 - explicit.h2),
            abs(direct.h3 - explicit.h3),
        )
    assert worst_exp <= 1e-12
    assert worst_inv <= 1e-12


def test_h3_inversion_sum(rng):
    for _ in range(100):
        z = mx.random_siegel(rng)
        total = branch.branch_h(z).h3 + branch.branch_h_inverse(z).h3
        assert abs(total - 3j * np.pi) < 1e-12
        # the imaginary part of h3 stays within its a-priori bound
        assert abs(branch.branch_h(z).h3.imag) <= 4.5 * np.pi + 1e-12


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
    w = branch.W3
    for _ in range(100):
        z = mx.random_siegel(rng)
        zw = w @ z @ w
        assert abs(branch.branch_h(z).h3 - branch.branch_h(zw).h3) < 1e-12


def test_path_continuity(rng):
    # straight segments between Siegel points stay inside the space (the
    # imaginary parts average), and the branch values never jump
    for _ in range(100):
        za = mx.random_siegel(rng)
        zb = mx.random_siegel(rng)
        ts = np.linspace(0.0, 1.0, 1000)
        zs = za[None, :, :] * (1 - ts)[:, None, None] + zb[None, :, :] * ts[:, None, None]
        h1, h2, h3q, h3r = branch._branch_arrays(
            zs[:, 0, 0], zs[:, 0, 1], zs[:, 0, 2], zs[:, 1, 1], zs[:, 1, 2], zs[:, 2, 2]
        )
        for h in (h1, h2, h3q + h3r):
            assert np.max(np.abs(np.diff(h))) < 0.1


def test_branch_cut_detection():
    with pytest.raises(BranchCutError):
        branch._plog(-1.0)
    with pytest.raises(BranchCutError):
        branch._plog(0.0)
    branch._plog(-1.0 + 1e-8j)  # off the cut: fine


def test_integer_power_fast_path_matches_logs(rng):
    zs = np.array([mx.random_siegel(rng) for _ in range(64)])
    args = (zs[:, 0, 0], zs[:, 0, 1], zs[:, 0, 2], zs[:, 1, 1], zs[:, 1, 2], zs[:, 2, 2])
    fast = branch.power_terms((-2, -4, 5), *args)
    slow = branch.power_terms((-2.0 + 0j, -4.0 + 1e-30j, 5.0 + 0j), *args)
    assert np.max(np.abs(fast - slow) / np.abs(slow)) <= 1e-12


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
    assume(not all(branch._is_small_int(e) for e in exponents))
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
    d1, d2, d3, q = branch._dets(*(complex(x) for x in bad))
    on_cut = {"d1": d1, "-d2": -d2, "q": q, "d3/q": d3 / q}
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
