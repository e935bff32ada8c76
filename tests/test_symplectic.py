import hashlib
import json
import math
import time
from itertools import combinations, product

import mpmath
import numpy as np
import pytest

from siegel3 import _intlinalg as il
from siegel3 import acceptance, eisenstein as eis, forms, matrices as mx, symplectic as sp
from siegel3.errors import CompletionFailure, DomainError, NotCoprimePair, SingularDenominator
from siegel3.specfun import lipschitz_factor

I3 = il.identity(3)
Z3 = [[0] * 3 for _ in range(3)]
I3F = forms.HalfIntegralForm(1, 1, 1, 0, 0, 0)
# a non-diagonal point with unequal diagonal; no symplectic symmetry forces
# P_k to vanish there (at i*I it does for k = 2 mod 4, where a relative gap
# measures nothing)
Z_GENERIC = (np.array([[0.2, 0.1, 0.0], [0.1, -0.1, 0.05], [0.0, 0.05, 0.3]])
             + 1j * np.array([[1.1, 0.2, 0.0], [0.2, 1.3, -0.1], [0.0, -0.1, 0.9]]))
_COMPLETIONS = {}
# sha256 of the JSON list of completions M0, recorded from the per-pair list
# completion that the stacked one replaced
_COMPLETIONS_SHA256 = {
    "enumerate_pairs(1)": "9b0f4788601287f8650b26d0f5c9dbffd308ec19773609ecd8d00947ff8dd033",
    "criterion 12": "3bafdfceab222e2b88d26452879debc3c7d33ab9039c13c3a1f3837da51f9f8c",
}


def _minor_gcd(mat):
    """Loop reference: gcd of the maximal minors of an n x m list matrix, n <= 3."""
    return math.gcd(*(sp._det_small([[row[j] for j in pick] for row in mat])
                      for pick in combinations(range(len(mat[0])), len(mat))))


def is_coprime_symmetric(c, d):
    """Scalar oracle: C D^T symmetric and [C D] with all elementary divisors 1,
    exactly, by the gcd of the maximal minors (no HNF).  Works for square
    sizes up to 3 (the rank-2 case backs the exhaustive enumeration check)."""
    return sp._cd_t_symmetric(c, d) and _minor_gcd(sp._stacked(c, d)) == 1


def _is_symplectic_list(m):
    """Scalar oracle: t(M) J M == J with list products of Python ints."""
    j = mx.SYMPLECTIC_J.tolist()
    return il.mat_mul(il.mat_t(m), il.mat_mul(j, m)) == j


def _real_scaled(z, scale):
    """z with its real part times a power of two, bit for bit as random_siegel
    drew it when it took the scale as an argument."""
    return scale * z.real + 1j * z.imag


def _sha(matrices):
    return hashlib.sha256(json.dumps(matrices).encode()).hexdigest()


def _list_coefficients(t, gl_ball):
    """(t1, t2, t3, b12, b13, b23) of T[U] per U by the list congruence_form (oracle)."""
    return np.array([[f.t1, f.t2, f.t3, f.b12, f.b13, f.b23]
                     for f in (forms.congruence_form(t, u) for u in np.asarray(gl_ball).tolist())],
                    dtype=float)


def _poincare_per_pair(k, t, z, max_abs, gl_ball=None, pairs=None):
    """The per-pair loop that poincare_trunc's coset table replaced (oracle)."""
    if gl_ball is None:
        gl_ball = il.unimodular_matrices(max_abs, max_abs * max_abs)
    pairs = pairs or sp.enumerate_pairs(max_abs)
    coeffs = _list_coefficients(t, gl_ball)
    total = 0.0 + 0.0j
    for pair in pairs:
        if pair not in _COMPLETIONS:
            _COMPLETIONS[pair] = sp.complete_to_symplectic(pair)
        mz, jv = mx.mobius(_COMPLETIONS[pair], z)
        entries = np.array([mz[0, 0], mz[1, 1], mz[2, 2], mz[0, 1], mz[0, 2], mz[1, 2]])
        total += jv ** (-k) * np.exp(2j * np.pi * (coeffs @ entries)).sum()
    return complex(0.5 * total), coeffs.shape[0] * len(pairs)


def test_coprime_symmetric_examples():
    assert is_coprime_symmetric(Z3, I3)
    assert is_coprime_symmetric(I3, I3)
    two = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
    assert not is_coprime_symmetric(two, two)
    asym = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    skew = [[0, 1, 0], [-1, 0, 0], [0, 0, 1]]
    assert not is_coprime_symmetric(skew, asym)


def test_canonical_pair_examples():
    cp = sp.canonical_pair(Z3, il.mat_neg(I3))
    assert cp.c == tuple(map(tuple, Z3)) and cp.d == tuple(map(tuple, I3))
    with pytest.raises(NotCoprimePair):
        sp.canonical_pair([[2, 0, 0], [0, 2, 0], [0, 0, 2]],
                          [[2, 0, 0], [0, 2, 0], [0, 0, 2]])


def test_canonical_pair_invariant_under_left_multiplication(rng):
    for _ in range(100):
        m = mx.random_symplectic(rng, max_entry=8, max_factors=6)
        _, _, c, d = mx.blocks(m)
        base = sp.canonical_pair(c, d)
        u = mx._random_unimodular(rng)
        assert sp.canonical_pair(il.mat_mul(u, c), il.mat_mul(u, d)) == base
        again = sp.canonical_pair([list(r) for r in base.c], [list(r) for r in base.d])
        assert again == base  # idempotent


def test_left_associated_iff_equal_canonical(rng):
    # equal canonical forms come with an explicit unimodular witness built
    # from the two HNF transforms; distinct canonical forms admit none in a
    # brute-force search ball
    ball = il.unimodular_matrices(1)
    for _ in range(25):
        m1 = mx.random_symplectic(rng, max_entry=6, max_factors=4)
        _, _, c1, d1 = mx.blocks(m1)
        u = mx._random_unimodular(rng)
        c2, d2 = il.mat_mul(u, c1), il.mat_mul(u, d1)
        assert sp.canonical_pair(c1, d1) == sp.canonical_pair(c2, d2)
        _, w1 = il.hnf_row([list(c1[i]) + list(d1[i]) for i in range(3)])
        _, w2 = il.hnf_row([list(c2[i]) + list(d2[i]) for i in range(3)])
        wit = il.mat_mul(il.inv_unimodular(w2), w1)
        assert il.mat_mul(wit, [list(r) for r in c1]) == [list(r) for r in c2]
        assert il.mat_mul(wit, [list(r) for r in d1]) == [list(r) for r in d2]
        # a genuinely different pair is never reachable by small unimodulars
        m2 = mx.random_symplectic(rng, max_entry=6, max_factors=4)
        _, _, c3, d3 = mx.blocks(m2)
        if sp.canonical_pair(c3, d3) == sp.canonical_pair(c1, d1):
            continue
        assert not any(
            il.mat_mul(v, c1) == [list(r) for r in c3]
            and il.mat_mul(v, d1) == [list(r) for r in d3]
            for v in ball
        )


def test_enumerate_pairs_rank2_exhaustive_oracle():
    # every canonical 2x2 pair with entries in [-1, 1] must arise from direct
    # filtering of all 3^8 raw pairs, and vice versa
    target = {(p.c, p.d) for p in sp.enumerate_pairs(1, nrows=2)}
    oracle = set()
    vals = (-1, 0, 1)
    for entries in product(vals, repeat=8):
        c = [list(entries[:2]), list(entries[2:4])]
        d = [list(entries[4:6]), list(entries[6:8])]
        if not is_coprime_symmetric(c, d):
            continue
        cp = sp.canonical_pair(c, d)
        if all(abs(x) <= 1 for row in cp.c for x in row) and all(
            abs(x) <= 1 for row in cp.d for x in row
        ):
            oracle.add((cp.c, cp.d))
    assert target == oracle


def test_enumerate_pairs_rank3_contents_and_consistency(rng):
    pairs = sp.enumerate_pairs(1)
    keyset = {(p.c, p.d) for p in pairs}
    assert (tuple(map(tuple, Z3)), tuple(map(tuple, I3))) in keyset
    assert (tuple(map(tuple, I3)), tuple(map(tuple, Z3))) in keyset
    assert len(keyset) == len(pairs)  # no duplicates: left-association distinct
    # sampled consistency against raw filtering
    found = 0
    while found < 50:
        c = [[int(rng.integers(-1, 2)) for _ in range(3)] for _ in range(3)]
        d = [[int(rng.integers(-1, 2)) for _ in range(3)] for _ in range(3)]
        if not is_coprime_symmetric(c, d):
            continue
        found += 1
        cp = sp.canonical_pair(c, d)
        in_box = all(abs(x) <= 1 for row in cp.c for x in row) and all(
            abs(x) <= 1 for row in cp.d for x in row
        )
        assert ((cp.c, cp.d) in keyset) == in_box


def test_translation_closure_of_pairs():
    s = [[1, 0, 1], [0, -1, 0], [1, 0, 0]]
    for p in sp.enumerate_pairs(1)[:100]:
        c = [list(r) for r in p.c]
        d = [list(r) for r in p.d]
        cs = il.mat_mul(c, s)
        d2 = [[d[i][j] + cs[i][j] for j in range(3)] for i in range(3)]
        assert is_coprime_symmetric(c, d2)


def _pivot_two_pair():
    # coprime symmetric, but the row HNF of [C D] has the pivot 2 in its first column
    return [[2, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 0], [0, 0, 0]]


def test_canonical_pair_hnf_coprimality_matches_minor_gcd(rng):
    cases = [_pivot_two_pair(),
             ([[2, 0, 0], [0, 2, 0], [0, 0, 2]], [[2, 0, 0], [0, 2, 0], [0, 0, 2]]),
             ([[1, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, 0]]),
             (Z3, Z3)]
    for _ in range(60):
        _, _, c, d = mx.blocks(mx.random_symplectic(rng, max_entry=8, max_factors=6))
        # a left factor of determinant a keeps C D^T symmetric and multiplies
        # the minor gcd by |a|
        a = [[int(rng.integers(-2, 3)) for _ in range(3)] for _ in range(3)]
        cases += [(c, d), (il.mat_mul(a, c), il.mat_mul(a, d))]
    cases += [(il.mat_mul(u, c), il.mat_mul(u, d))
              for u in il.unimodular_matrices(1)[::400].tolist() for c, d in cases[:4]]
    verdicts = set()
    for c, d in cases:
        coprime = is_coprime_symmetric(c, d)
        h, _ = il.hnf_row([list(c[i]) + list(d[i]) for i in range(3)])
        pivots = [next((x for x in row if x), 0) for row in h]
        verdicts.add((coprime, max(pivots) > 1, 0 in pivots))
        assert sp._hnf_coprime(h) == (sp._maximal_minor_gcd(h) == 1)
        if coprime:
            cp = sp.canonical_pair(c, d)
            assert [list(r) + list(s) for r, s in zip(cp.c, cp.d)] == h
        else:
            with pytest.raises(NotCoprimePair):
                sp.canonical_pair(c, d)
    # coprime with a pivot > 1, not coprime at full rank, and rank deficient
    assert {(True, True, False), (False, True, False)} <= verdicts
    assert any(zero_row for _, _, zero_row in verdicts)


def test_stacked_minor_gcd_matches_loop(rng):
    for shape, amp in (((3, 6), 4), ((2, 4), 9), ((3, 6), 2**19), ((3, 6), 2**40)):
        st = rng.integers(-amp, amp + 1, size=(300,) + shape)
        st[::9, -1] = 3 * st[::9, 0]  # rank deficient: gcd 0
        st[::4] *= 2
        got = sp._maximal_minor_gcd(st)
        assert got.tolist() == [_minor_gcd(m) for m in st.tolist()]
        assert sp._maximal_minor_gcd(st[0].tolist()) == got[0]  # one matrix


def test_enumerate_pairs_matches_scalar_filter():
    for max_abs, nrows in ((1, 3), (1, 2), (2, 2)):
        blocks = list(sp._hnf_structures(max_abs, nrows))
        assert max(len(b) for b in blocks) <= sp._FILTER_CHUNK
        scalar = [sp.CoprimePair(c=tuple(tuple(r[:nrows]) for r in h),
                                 d=tuple(tuple(r[nrows:]) for r in h))
                  for block in blocks for h in block.tolist()
                  if is_coprime_symmetric([r[:nrows] for r in h], [r[nrows:] for r in h])]
        scalar.sort(key=lambda p: (p.c, p.d))
        assert sp.enumerate_pairs(max_abs, nrows) == tuple(scalar)
    assert sp.enumerate_pairs(1) is sp.enumerate_pairs(1)  # memoized


def test_enumerate_pairs_refuses_work_above_the_ceiling():
    for max_abs, nrows in ((1, 3), (1, 2), (2, 2), (3, 2)):
        blocks = sp._hnf_structures(max_abs, nrows)
        assert sp._candidate_count(max_abs, nrows) == sum(map(len, blocks))
    assert sp._candidate_count(2, 3) == 76_756_680  # below MAX_WORK: enumerated
    assert sp._candidate_count(3, 3) == 12_140_654_400
    start = time.perf_counter()
    with pytest.raises(DomainError, match="12140654400 HNF candidates"):
        sp.enumerate_pairs(3)  # enumerating would take more than 120 s
    assert time.perf_counter() - start < 1.0


def test_completion_examples():
    m = sp.complete_to_symplectic(sp.CoprimePair(tuple(map(tuple, Z3)),
                                                 tuple(map(tuple, I3))))
    a, b, c, d = mx.blocks(m)
    assert a == I3 and b == Z3
    m = sp.complete_to_symplectic(sp.CoprimePair(tuple(map(tuple, I3)),
                                                 tuple(map(tuple, Z3))))
    assert mx.is_symplectic(m)


def test_completion_random(rng):
    for _ in range(50):
        m = mx.random_symplectic(rng, max_entry=10, max_factors=8)
        _, _, c, d = mx.blocks(m)
        pair = sp.canonical_pair(c, d)
        assert mx.is_symplectic(sp.complete_to_symplectic(pair))


def test_poincare_dominant_coset():
    # at Z = i t I the 48 translation-block cosets give 24 exp(-6 pi t); the
    # partially inverted cosets contribute t^(-k) exp(-2 pi t (2 + 1/t)),
    # which is relatively small in the window tested here (it overtakes the
    # leading layer only for much larger t at fixed weight)
    t = 4.0
    val, n = sp.poincare_trunc(24, I3F, 1j * t * np.eye(3), 1)
    lead = 24.0 * math.exp(-6 * math.pi * t)
    assert abs(val - lead) <= 1e-3 * lead
    val5, _ = sp.poincare_trunc(24, I3F, 5j * np.eye(3), 1)
    ratio = abs(val5) / abs(val)
    assert abs(ratio / math.exp(-6 * math.pi) - 1) <= 1e-3


def test_poincare_table_matches_per_pair_loop(rng):
    t = forms.HalfIntegralForm(1, 1, 2, 1, 0, 1)
    points = [Z_GENERIC, mx.random_siegel(rng, min_im=0.8),
              _real_scaled(mx.random_siegel(rng, min_im=1.2), 0.5)]
    ball = il.unimodular_matrices(1, 1)[::5]
    pairs = sp.enumerate_pairs(1)[3::7]
    for z in points:
        for k in (8, 24, 30):
            for kw in ({}, {"gl_ball": ball, "pairs": pairs}):
                val, n = sp.poincare_trunc(k, t, z, 1, **kw)
                ref, n_ref = _poincare_per_pair(k, t, z, 1, **kw)
                assert n == n_ref
                assert abs(val - ref) <= 1e-12 * abs(ref)
                assert sp.poincare_trunc(k, t, z, 1, **kw) == (val, n)  # cache hit, bit for bit


def test_coset_coefficients_match_the_list_congruence():
    # T[U] for the whole ball in one exact array expression, bit for bit the
    # per-U list path; the last form's T[U] are past int64 (Python ints)
    huge = forms.HalfIntegralForm(3, 2**62 + 5, 7, 1, -2, 3)
    for ball in (il.unimodular_matrices(1, 1), il.unimodular_matrices(2)[::61]):
        for t in forms.reduced_classes(2) + [huge]:
            got = sp._coset_coefficients(t, ball)
            assert got.tolist() == _list_coefficients(t, ball).tolist()


def test_coset_tables_share_completions():
    pairs = sp.enumerate_pairs(1)[5::50]
    sp._completions.cache_clear()
    sp._coset_table.cache_clear()
    for z in (Z_GENERIC, 1.5j * np.eye(3)):
        for k in (8, 24):
            sp.poincare_trunc(k, I3F, z, 1, pairs=pairs)
    info = sp._completions.cache_info()
    assert (info.misses, info.hits) == (1, 3)  # one stacked build of the pair tuple, 4 tables
    assert sp._completions(pairs).tolist() == [sp.complete_to_symplectic(p) for p in pairs]


def _criterion_12_pairs():
    rng = acceptance._rng(acceptance.DEFAULT_SEED)
    return tuple(sp.canonical_pair(*mx.blocks(mx.random_symplectic(rng, max_entry=12,
                                                                   max_factors=8))[2:])
                 for _ in range(500))


def test_stacked_completion_matches_recorded_list_completions():
    for name, pairs in (("enumerate_pairs(1)", sp.enumerate_pairs(1)),
                        ("criterion 12", _criterion_12_pairs())):
        stack = sp._complete(pairs)
        assert stack.shape == (len(pairs), 6, 6) and not stack.flags.writeable
        assert _sha(stack.tolist()) == _COMPLETIONS_SHA256[name]
        assert all(mx.is_symplectic(stack))
        # the one-lane call is the same function
        assert [sp.complete_to_symplectic(p) for p in pairs[::50]] == stack[::50].tolist()


def test_completion_stays_exact_past_the_int64_bounds():
    # entries of 2^16 and more run the shear on Python ints, and entries of
    # 2^30 and more the symplectic check; the results stay exact either way
    small = sp.enumerate_pairs(1)[7]
    for big, dtype in ((2**15 - 1, np.int64), (2**16, object), (2**40, object),
                       (10**23, object)):
        pair = sp.canonical_pair(I3, [[big, 7, 0], [7, 0, 0], [0, 0, 0]])
        stack = sp._complete((small, pair))
        assert stack.dtype == dtype
        m = sp.complete_to_symplectic(pair)
        assert stack[1].tolist() == m and stack[0].tolist() == sp.complete_to_symplectic(small)
        assert _is_symplectic_list(m) and mx.is_symplectic(m)
        assert [r[:3] for r in m[3:]] == [list(r) for r in pair.c]
        assert [r[3:] for r in m[3:]] == [list(r) for r in pair.d]
    with pytest.raises(CompletionFailure):  # not coprime: no integer completion
        sp.complete_to_symplectic(sp.CoprimePair(((2, 0, 0), (0, 2, 0), (0, 0, 2)),
                                                 tuple(map(tuple, Z3))))


def test_stacked_is_symplectic_matches_list_check(rng):
    ms = [mx.random_symplectic(rng, max_entry=8, max_factors=6) for _ in range(40)]
    ms += [[row[:] for row in m] for m in ms[:10]]
    for m in ms[-10:]:
        m[int(rng.integers(6))][int(rng.integers(6))] += 1
    # a translation by a large S: symplectic, with entries past 2^30 and past int64
    for big in (2**30 - 1, 2**30, 2**62, 10**30):
        ms.append(mx.translation6([[big, 1, 0], [1, 0, 0], [0, 0, -big]]))
        ms.append(mx.translation6([[big, 1, 0], [0, 0, 0], [0, 0, 0]]))  # not symmetric
    # not symplectic, with a defect of 2^64 that a wrapping int64 check misses
    ms.append(mx.translation6([[2**32, 0, 0], [0, 0, 0], [0, 0, 0]]))
    ms[-1][3][0] += 2**32
    expect = [_is_symplectic_list(m) for m in ms]
    assert [bool(mx.is_symplectic(m)) for m in ms] == expect
    assert mx.is_symplectic(np.array(ms, dtype=object)).tolist() == expect
    assert True in expect and False in expect


def test_stacked_mobius_is_bitwise_the_single_call(rng):
    stack = sp._completions(sp.enumerate_pairs(1))[::37]
    for z in (Z_GENERIC, mx.random_siegel(rng, min_im=0.8),
              _real_scaled(mx.random_siegel(rng, min_im=0.3), 2.0)):
        mz, jv = mx.mobius(stack, z)
        assert mz.shape == (len(stack), 3, 3) and jv.shape == (len(stack),)
        for i, m0 in enumerate(stack.tolist()):
            mz1, jv1 = mx.mobius(m0, z)
            assert mz[i].tobytes() == mz1.tobytes() and jv[i] == jv1
    with pytest.raises(SingularDenominator):  # one singular lane refuses the stack
        mx.mobius(stack, np.zeros((3, 3)))


def test_hnf_rows_matches_hnf_row(rng):
    cases = []
    for shape, amp in (((3, 6), 3), ((3, 6), 40), ((2, 4), 5), ((3, 3), 2), ((4, 5), 7),
                       ((1, 3), 4)):
        st = rng.integers(-amp, amp + 1, size=(400,) + shape)
        st[::5, :, 1] = 0  # a zero column
        st[::7, -1] = 2 * st[::7, 0]  # rank deficient
        st[::11] = 0
        st[::13, :, 0] = -np.abs(st[::13, :, 0])  # negative first pivots
        cases.append(st)
    # lanes past the 2^31 guard: at the start, and by growth during the steps
    past = rng.integers(-5, 6, size=(60, 3, 6)).astype(object)
    past[3, 0, 0], past[4, 1, 2], past[5, 2, 5] = 2**31, -2**70, 2**31 - 1
    grow = rng.integers(-2**30, 2**30, size=(200, 3, 6))
    # one step takes row 2 to -2^60, the next would wrap int64 at 2^90
    grow[0] = [[1, 2**30, 0, 0, 0, 0], [2**30, 0, 0, 0, 0, 0], [0, 1, 2**30, 0, 0, 0]]
    cases += [past, grow]
    for st in cases:
        h = il.hnf_rows(st)
        ref = [il.hnf_row(m)[0] for m in np.asarray(st, dtype=object).tolist()]
        assert h.tolist() == ref
    # lanes past the guard are finished exactly as Python ints
    assert [il.hnf_rows(st).dtype for st in cases[-3:]] == [np.int64, object, object]


def test_canonical_pairs_match_canonical_pair(rng):
    ball = il.unimodular_matrices(1)[::23]
    for _ in range(5):
        _, _, c, d = mx.blocks(mx.random_symplectic(rng, max_entry=10, max_factors=6))
        uc, ud = ball @ np.array(c), ball @ np.array(d)
        h = sp.canonical_pairs(uc, ud)
        for i in range(0, len(ball), 17):
            cp = sp.canonical_pair(uc[i].tolist(), ud[i].tolist())
            assert h[i].tolist() == [list(r) + list(s) for r, s in zip(cp.c, cp.d)]
    c, d = _pivot_two_pair()  # coprime with a pivot 2: decided by the minors
    h = sp.canonical_pairs(ball @ np.array(c), ball @ np.array(d))
    assert (h == h[0]).all()
    two = 2 * np.eye(3, dtype=np.int64)
    with pytest.raises(NotCoprimePair):  # one bad lane refuses the stack
        sp.canonical_pairs(np.stack([np.array(c), two]), np.stack([np.array(d), two]))


def test_poincare_and_kernel_reject_bad_input():
    z = 1j * np.eye(3)
    spec = eis.TruncationSpec(4, 4)
    for k in (23, 6, 0):
        with pytest.raises(DomainError):
            sp.poincare_trunc(k, I3F, z, 1)
        with pytest.raises(DomainError, match="need even k"):  # before the empty class list
            sp.kernel_trunc(k, (2.0, 4.0, 5.0), z, 0.25, spec, 1)
    with pytest.raises(DomainError):
        sp.poincare_trunc(24, I3F, z, 0)
    with pytest.raises(DomainError):
        sp.poincare_trunc(24, I3F, z, 1, pairs=[])
    with pytest.raises(DomainError):
        sp.kernel_trunc(24, (2.0, 4.0, 5.0), z, 1, spec, 0)
    with pytest.raises(DomainError):
        sp.enumerate_pairs(0)


def test_poincare_matched_congruence_bijection():
    z = np.array([[0.2, 0.1, 0.0], [0.1, -0.1, 0.05], [0.0, 0.05, 0.3]]) + 1.1j * np.eye(3)
    v = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    t = forms.HalfIntegralForm(1, 1, 2, 1, 0, 1)
    tv = forms.congruence_form(t, v)
    ball = il.unimodular_matrices(1, 1).tolist()
    vinv = il.inv_unimodular(v)
    mapped = [il.mat_mul(vinv, u) for u in ball]
    pairs = sp.enumerate_pairs(1)
    a = sp.poincare_trunc(24, tv, z, 1, gl_ball=ball, pairs=pairs)
    b = sp.poincare_trunc(24, t, z, 1, gl_ball=[il.mat_mul(v, u) for u in ball],
                          pairs=pairs)
    assert a[0] == b[0]  # identical term multiset in identical order


def test_poincare_translation_approximate_invariance():
    # truncation is uncertified; the translated sum differs only by coset
    # representatives pushed across the entry box, which are heavily damped
    # once the imaginary part is large
    z = 2.5j * np.eye(3)
    s = np.zeros((3, 3))
    s[0, 1] = s[1, 0] = 1.0
    a, _ = sp.poincare_trunc(24, I3F, z, 1)
    b, _ = sp.poincare_trunc(24, I3F, z + s, 1)
    assert abs(a - b) <= 1e-3 * abs(a)


def test_poincare_size_ratio_bounded():
    # spot check of |P| <= C (det 2T)^(2 - k/2): the observed ratio stays
    # within a fixed factor of the smallest class's ratio (boundedness only;
    # the sharp constant is not asserted)
    z = 1j * np.eye(3)
    base = None
    for t in forms.reduced_classes(6):
        val, _ = sp.poincare_trunc(24, t, z, 1)
        ratio = abs(val) / float(8 * t.det()) ** (2 - 12)
        if base is None:
            base = ratio
        assert ratio <= 1e4 * base


def test_cocycle_with_translations_is_block_exact(rng):
    # j(M0 N, Z) = j(M0, Z + S) for a translation N = (I, S; 0, I): the lower
    # blocks compose as (C, CS + D), so both are determinants of the same
    # matrix up to float association
    s = np.array([[1.0, 0, 2.0], [0, -1.0, 0], [2.0, 0, 0]])
    z = mx.random_siegel(rng)
    for _ in range(20):
        m = mx.random_symplectic(rng, max_entry=8, max_factors=6)
        n = mx.translation6([[int(s[i][j]) for j in range(3)] for i in range(3)])
        _, j1 = mx.mobius(il.mat_mul(m, n), z)
        _, j2 = mx.mobius(m, z + s)
        assert abs(j1 - j2) <= 1e-12 * abs(j1)


def test_kernel_degenerate_and_det_shift():
    z = 1j * np.eye(3)
    spec = eis.TruncationSpec(4, 4)
    # a truncation with no class is refused, not summed to a vacuous 0
    with pytest.raises(DomainError, match="empty truncation"):
        sp.kernel_trunc(24, (2.0, 4.0, 5.0), z, 0.25, spec, 1)
    # replacing E(T|w,s,-s-w-u+2) by E(T|w,s,0) det(T)^(s+w+u-2) changes nothing
    e = (2.0, 4.0, 5.0)
    out1 = sp.kernel_trunc(24, e, z, 1, spec, 1)
    s, w, u = e
    total = 0.0 + 0.0j
    pairs = sp.enumerate_pairs(1)
    ball = il.unimodular_matrices(1, 1)
    for t in forms.reduced_classes(1):
        ev = eis.selberg_E(t, (w, s, 0.0), spec).value * float(t.det()) ** (s + w + u - 2)
        pk, _ = sp.poincare_trunc(24, t, z, 1, gl_ball=ball, pairs=pairs)
        total += ev * pk / forms.automorphism_count(t)
    sigma = s + 2 * w + 3 * u
    with mpmath.workdps(30):
        gammas = complex(mpmath.gamma(s + w + u - 1) * mpmath.gamma(w + u - 0.5) * mpmath.gamma(u))
    pref = 2.0 / math.pi**1.5 * np.exp(sigma * (math.log(2 * math.pi) - 0.5j * np.pi)) / gammas
    assert abs(out1["value"] - pref * total) <= 1e-12 * abs(out1["value"])


def _kernel_class_sum(k, exponents, z, det_bound, spec):
    """sum over classes of P_{k,T}(Z) / eps_T * E(T | w, s, -s-w-u+2), assembled
    from its layers in the class loop's order and arithmetic (oracle)."""
    s, w, u = (complex(e) for e in exponents)
    pairs, ball = sp.enumerate_pairs(1), il.unimodular_matrices(1, 1)
    total = 0.0 + 0.0j
    for t in forms.reduced_classes(det_bound):
        pk, _ = sp.poincare_trunc(k, t, z, 1, gl_ball=ball, pairs=pairs)
        total += pk / forms.automorphism_count(t) * eis.selberg_E(t, (w, s, -s - w - u + 2.0),
                                                                  spec).value
    return total


def test_kernel_is_twice_the_lipschitz_factor_times_the_class_sum():
    spec = eis.TruncationSpec(4, 4)
    for e in ((2.0, 4.0, 5.0), (2.5, 4.0 + 1j, 6.0)):
        out = sp.kernel_trunc(32, e, Z_GENERIC, 2, spec, 1)
        pref = 2 * lipschitz_factor(*map(complex, e))
        assert out["value"] == pref * _kernel_class_sum(32, e, Z_GENERIC, 2, spec)
        assert out["poincare_terms"] == out["classes_used"] * 48 * 1096


@pytest.mark.parametrize("u", [40, 60, 80])
def test_kernel_matches_an_mpmath_prefactor_where_the_gamma_product_overflows(u):
    # at u = 80, Gamma(85) Gamma(83.5) Gamma(80) ~ 1e365 is past the double range
    z = np.diag([1j, 1.1j, 1.2j])
    spec, e = eis.TruncationSpec(6, 6), (2.0, 4.0, float(u))
    value = sp.kernel_trunc(600, e, z, 1, spec, 1)["value"]
    with mpmath.workdps(30):
        s, w, u = (mpmath.mpf(x) for x in e)
        pref = 2 * (-2j * mpmath.pi) ** (s + 2 * w + 3 * u) / (
            mpmath.pi**1.5 * mpmath.gamma(s + w + u - 1) * mpmath.gamma(w + u - 0.5)
            * mpmath.gamma(u))
        expected = complex(pref * _kernel_class_sum(600, e, z, 1, spec))
    assert value != 0 and abs(value - expected) <= 1e-12 * abs(expected)

