import math
from itertools import product

import numpy as np
import pytest

from siegel3 import _intlinalg as il
from siegel3 import eisenstein as eis, forms, matrices as mx, symplectic as sp
from siegel3.errors import DomainError, NotCoprimePair

I3 = il.identity(3)
Z3 = [[0] * 3 for _ in range(3)]
I3F = forms.HalfIntegralForm(1, 1, 1, 0, 0, 0)
# a non-diagonal point with unequal diagonal; no symplectic symmetry forces
# P_k to vanish there (at i*I it does for k = 2 mod 4, where a relative gap
# measures nothing)
Z_GENERIC = (np.array([[0.2, 0.1, 0.0], [0.1, -0.1, 0.05], [0.0, 0.05, 0.3]])
             + 1j * np.array([[1.1, 0.2, 0.0], [0.2, 1.3, -0.1], [0.0, -0.1, 0.9]]))
_COMPLETIONS = {}


def _poincare_per_pair(k, t, z, max_abs, gl_ball=None, pairs=None):
    """The per-pair loop that poincare_trunc's coset table replaced (oracle)."""
    gl_ball = gl_ball or il.unimodular_matrices_colnorm(max_abs * max_abs)
    pairs = pairs or sp.enumerate_pairs(max_abs)
    coeffs = np.array([[f.t1, f.t2, f.t3, f.b12, f.b13, f.b23]
                       for f in (forms.congruence_form(t, u) for u in gl_ball)], dtype=float)
    total = 0.0 + 0.0j
    for pair in pairs:
        if pair not in _COMPLETIONS:
            _COMPLETIONS[pair] = sp.complete_to_symplectic(pair)
        mz, jv = mx.mobius(_COMPLETIONS[pair], z)
        entries = np.array([mz[0, 0], mz[1, 1], mz[2, 2], mz[0, 1], mz[0, 2], mz[1, 2]])
        total += jv ** (-k) * np.exp(2j * np.pi * (coeffs @ entries)).sum()
    return complex(0.5 * total), coeffs.shape[0] * len(pairs)


def test_coprime_symmetric_examples():
    assert sp.is_coprime_symmetric(Z3, I3)
    assert sp.is_coprime_symmetric(I3, I3)
    two = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
    assert not sp.is_coprime_symmetric(two, two)
    asym = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    skew = [[0, 1, 0], [-1, 0, 0], [0, 0, 1]]
    assert not sp.is_coprime_symmetric(skew, asym)


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
    ball = il.unimodular_matrices_entrybound(1)
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
        if not sp.is_coprime_symmetric(c, d):
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
        if not sp.is_coprime_symmetric(c, d):
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
        assert sp.is_coprime_symmetric(c, d2)


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
              for u in il.unimodular_matrices_entrybound(1)[::400] for c, d in cases[:4]]
    verdicts = set()
    for c, d in cases:
        coprime = sp.is_coprime_symmetric(c, d)
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


def test_enumerate_pairs_matches_scalar_filter():
    for max_abs, nrows in ((1, 3), (1, 2), (2, 2)):
        blocks = list(sp._hnf_structures(max_abs, nrows))
        assert max(len(b) for b in blocks) <= sp._FILTER_CHUNK
        scalar = [sp.CoprimePair(c=tuple(tuple(r[:nrows]) for r in h),
                                 d=tuple(tuple(r[nrows:]) for r in h))
                  for block in blocks for h in block.tolist()
                  if sp.is_coprime_symmetric([r[:nrows] for r in h], [r[nrows:] for r in h])]
        scalar.sort(key=lambda p: (p.c, p.d))
        assert sp.enumerate_pairs(max_abs, nrows) == tuple(scalar)
    assert sp.enumerate_pairs(1) is sp.enumerate_pairs(1)  # memoized


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
              mx.random_siegel(rng, min_im=1.2, real_scale=0.5)]
    ball = il.unimodular_matrices_colnorm(1)[::5]
    pairs = sp.enumerate_pairs(1)[3::7]
    for z in points:
        for k in (8, 24, 30):
            for kw in ({}, {"gl_ball": ball, "pairs": pairs}):
                val, n = sp.poincare_trunc(k, t, z, 1, **kw)
                ref, n_ref = _poincare_per_pair(k, t, z, 1, **kw)
                assert n == n_ref
                assert abs(val - ref) <= 1e-12 * abs(ref)
                assert sp.poincare_trunc(k, t, z, 1, **kw) == (val, n)  # cache hit, bit for bit


def test_coset_tables_share_completions(monkeypatch):
    calls = []
    complete = sp.complete_to_symplectic
    monkeypatch.setattr(sp, "complete_to_symplectic", lambda p: calls.append(p) or complete(p))
    pairs = sp.enumerate_pairs(1)[5::50]
    sp._completions.cache_clear()
    sp._coset_table.cache_clear()
    for z in (Z_GENERIC, 1.5j * np.eye(3)):
        for k in (8, 24):
            sp.poincare_trunc(k, I3F, z, 1, pairs=pairs)
    assert calls == list(pairs)  # one completion per pair for 4 tables


def test_poincare_and_kernel_reject_bad_input():
    z = 1j * np.eye(3)
    spec = eis.TruncationSpec(4, 4)
    for k in (23, 6, 0):
        with pytest.raises(DomainError):
            sp.poincare_trunc(k, I3F, z, 1)
        with pytest.raises(DomainError):
            sp.kernel_trunc(k, (2.0, 4.0, 5.0), z, 0.25, spec, 1)  # no classes
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
    ball = il.unimodular_matrices_colnorm(1)
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
    out = sp.kernel_trunc(24, (2.0, 4.0, 5.0), z, 0.25, spec, 1)
    assert out["value"] == 0 and out["classes_used"] == 0
    # replacing E(T|w,s,-s-w-u+2) by E(T|w,s,0) det(T)^(s+w+u-2) changes nothing
    e = (2.0, 4.0, 5.0)
    out1 = sp.kernel_trunc(24, e, z, 1, spec, 1)
    s, w, u = e
    total = 0.0 + 0.0j
    pairs = sp.enumerate_pairs(1)
    ball = il.unimodular_matrices_colnorm(1)
    for t in forms.reduced_classes(1):
        ev = eis.selberg_E(t, (w, s, 0.0), spec).value * float(t.det()) ** (s + w + u - 2)
        pk, _ = sp.poincare_trunc(24, t, z, 1, gl_ball=ball, pairs=pairs)
        total += ev * pk / forms.automorphism_count(t)
    sigma = s + 2 * w + 3 * u
    from siegel3.specfun import complex_gamma
    pref = (2.0 / math.pi**1.5 * np.exp(sigma * (math.log(2 * math.pi) - 0.5j * np.pi))
            / (complex_gamma(s + w + u - 1) * complex_gamma(w + u - 0.5) * complex_gamma(u)))
    assert abs(out1["value"] - pref * total) <= 1e-12 * abs(out1["value"])
