import math

import numpy as np

from siegel3 import branch, forms, lipschitz as lip

PI2_OVER_SINH2 = -0.0739998067544724274033469636317  # -pi^2 / sinh(pi)^2


def _z0():
    x0 = np.array([[0.25, 0.125, 0.0], [0.125, -0.25, 0.0], [0.0, 0.0, 0.125]])
    return x0 + 1j * np.eye(3)


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
    from siegel3.specfun import complex_gamma
    pref /= complex_gamma(s + w + u - 1) * complex_gamma(w + u - 0.5) * complex_gamma(u)
    assert abs(val - pref * total) <= 1e-13 * abs(val)


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
        bound = 2.0 * float(t.det()) ** 9 * math.exp(-2 * math.pi * lam_min * t.trace())
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
