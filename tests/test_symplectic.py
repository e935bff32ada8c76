import hashlib
import json
import math
import random
import time
from itertools import combinations, islice, permutations, product

import mpmath
import numpy as np
import pytest

from siegel3 import _intlinalg as il
from siegel3 import acceptance, eisenstein as eis, forms, matrices as mx, symplectic as sp
from siegel3.errors import (CompletionFailure, DomainError, NotCoprimePair, NotPositiveDefinite,
                            SingularDenominator)
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
# sha256 of the JSON list of completions M0, recorded from the per-pair SNF
# completion (_snf_completion); the HNF completion gives the same matrices on
# enumerate_pairs(1), and on 2 of criterion 12's 500 pairs another translate
_COMPLETIONS_SHA256 = {
    "enumerate_pairs(1)": "9b0f4788601287f8650b26d0f5c9dbffd308ec19773609ecd8d00947ff8dd033",
    "criterion 12": "3bafdfceab222e2b88d26452879debc3c7d33ab9039c13c3a1f3837da51f9f8c",
}


def _det(mat):
    """Leibniz determinant of a square list matrix: the sum over permutations."""
    n = len(mat)
    return sum((-1) ** sum(p[i] > p[j] for i, j in combinations(range(n), 2))
               * math.prod(mat[i][p[i]] for i in range(n)) for p in permutations(range(n)))


def _minor_gcd(mat):
    """Loop reference: gcd of the maximal minors of an n x m list matrix."""
    return math.gcd(*(_det([[row[j] for j in pick] for row in mat])
                      for pick in combinations(range(len(mat[0])), len(mat))))


def is_coprime_symmetric(c, d):
    """Scalar oracle: C D^T symmetric and [C D] with all elementary divisors 1,
    exactly, by the gcd of the maximal minors (no HNF).  Works for square
    sizes up to 3 (the rank-2 case backs the exhaustive enumeration check)."""
    cd_t = _mat_mul(c, list(zip(*d)))
    return (cd_t == [list(col) for col in zip(*cd_t)]
            and _minor_gcd([list(r) + list(s) for r, s in zip(c, d)]) == 1)


def _mat_mul(a, b):
    """List product of Python ints (the oracles' own arithmetic)."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _cd(m):
    """The bottom blocks C, D of a 6 x 6 list, as lists."""
    return [r[:3] for r in m[3:]], [r[3:] for r in m[3:]]


def _is_symplectic_list(m):
    """Scalar oracle: t(M) J M == J with list products of Python ints."""
    j = mx.SYMPLECTIC_J.tolist()
    return _mat_mul(list(zip(*m)), _mat_mul(j, m)) == j


def _snf_completion(pair):
    """The per-pair SNF completion that the HNF transform replaced (reference):
    (A0 B0) = t(y) for y = v[:, :3] u, the right inverse of [D | -C] from its
    Smith form u [D | -C] v = [I 0], then the same isotropy shear."""
    cd = sp._stacked(pair.c, pair.d)
    s, u, v = il.snf([r[3:] + [-x for x in r[:3]] for r in cd])
    if any(s[i][i] != 1 for i in range(3)):
        raise CompletionFailure("nontrivial elementary divisor")
    m = np.array(list(zip(*_mat_mul([r[:3] for r in v], u))) + cd, dtype=object)
    g = m[:3, :3] @ m[:3, 3:].T
    m[:3] += np.tril(g - g.T, -1) @ m[3:]
    return m.tolist()


def _assert_translate(m, ref):
    """M = (I, S; 0, I) ref with S integer and symmetric, exactly."""
    t = np.array(m, dtype=object) @ acceptance._symplectic_inverse(ref)
    s = t[:3, 3:]
    assert (t == np.array(mx.translation6(s), dtype=object)).all() and (s == s.T).all()


def _real_scaled(z, scale):
    """z with its real part times a power of two, bit for bit as random_siegel
    drew it when it took the scale as an argument."""
    return scale * z.real + 1j * z.imag


def _sha(matrices):
    return hashlib.sha256(json.dumps(matrices).encode()).hexdigest()


def _pairs(stack):
    """The CoprimePairs of an (N, n, 2n) stack of blocks [C D], as a list."""
    n = np.shape(stack)[1]
    return [sp.CoprimePair(c=tuple(tuple(r[:n]) for r in h), d=tuple(tuple(r[n:]) for r in h))
            for h in np.asarray(stack).tolist()]


def _blocks(pairs):
    """The exact (N, n, 2n) stack of blocks [C D] of a list of CoprimePairs."""
    return np.array([sp._stacked(p.c, p.d) for p in pairs], dtype=object)


def _list_coefficients(t, gl_ball):
    """(t1, t2, t3, b12, b13, b23) of T[U] per U by the list congruence_form (oracle)."""
    return np.array([[f.t1, f.t2, f.t3, f.b12, f.b13, f.b23]
                     for f in (forms.congruence_form(t, u) for u in np.asarray(gl_ball).tolist())],
                    dtype=float)


def _poincare_per_pair(k, t, z, max_abs):
    """The per-pair loop that poincare_trunc's coset table replaced, over the full
    ball and pair list of max_abs (oracle)."""
    coeffs = _list_coefficients(t, il.unimodular_matrices(max_abs, max_abs * max_abs))
    pairs = _pairs(sp.enumerate_pairs(max_abs))
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
    cp = sp.canonical_pair(Z3, [[-x for x in r] for r in I3])
    assert cp.c == tuple(map(tuple, Z3)) and cp.d == tuple(map(tuple, I3))
    with pytest.raises(NotCoprimePair):
        sp.canonical_pair([[2, 0, 0], [0, 2, 0], [0, 0, 2]],
                          [[2, 0, 0], [0, 2, 0], [0, 0, 2]])


def test_canonical_pair_invariant_under_left_multiplication(rng):
    for _ in range(100):
        m = mx.random_symplectic(rng, max_entry=8, max_factors=6)
        c, d = _cd(m)
        base = sp.canonical_pair(c, d)
        u = mx._random_unimodular(rng)
        assert sp.canonical_pair(_mat_mul(u, c), _mat_mul(u, d)) == base
        again = sp.canonical_pair([list(r) for r in base.c], [list(r) for r in base.d])
        assert again == base  # idempotent


def test_left_associated_iff_equal_canonical(rng):
    # equal canonical forms come with an explicit unimodular witness built
    # from the two HNF transforms; distinct canonical forms admit none in a
    # brute-force search ball
    ball = il.unimodular_matrices(1)
    for _ in range(25):
        m1 = mx.random_symplectic(rng, max_entry=6, max_factors=4)
        c1, d1 = _cd(m1)
        u = mx._random_unimodular(rng)
        c2, d2 = _mat_mul(u, c1), _mat_mul(u, d1)
        assert sp.canonical_pair(c1, d1) == sp.canonical_pair(c2, d2)
        _, w1 = il.hnf_row(sp._stacked(c1, d1))
        _, w2 = il.hnf_row(sp._stacked(c2, d2))
        wit = _mat_mul([[il.det3(w2) * x for x in r] for r in il.adj3(w2)], w1)  # w2^-1 w1
        assert _mat_mul(wit, c1) == c2 and _mat_mul(wit, d1) == d2
        # a genuinely different pair is never reachable by small unimodulars
        m2 = mx.random_symplectic(rng, max_entry=6, max_factors=4)
        c3, d3 = _cd(m2)
        if sp.canonical_pair(c3, d3) == sp.canonical_pair(c1, d1):
            continue
        assert not ((ball @ c1 == c3) & (ball @ d1 == d3)).all(axis=(1, 2)).any()


def test_enumerate_pairs_rank2_exhaustive_oracle():
    # every canonical 2x2 pair with entries in [-1, 1] must arise from direct
    # filtering of all 3^8 raw pairs, and vice versa
    target = {(p.c, p.d) for p in _pairs(sp.enumerate_pairs(1, nrows=2))}
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
    pairs = _pairs(sp.enumerate_pairs(1))
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
    for h in sp.enumerate_pairs(1)[:100]:
        c, d = h[:, :3], h[:, 3:]
        assert is_coprime_symmetric(c.tolist(), (d + c @ s).tolist())


def _pivot_two_pair():
    # coprime symmetric, but the row HNF of [C D] has the pivot 2 in its first column
    return [[2, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 0], [0, 0, 0]]


def test_canonical_pair_hnf_coprimality_matches_minor_gcd(rng):
    cases = [_pivot_two_pair(),
             ([[2, 0, 0], [0, 2, 0], [0, 0, 2]], [[2, 0, 0], [0, 2, 0], [0, 0, 2]]),
             ([[1, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, 0]]),
             (Z3, Z3)]
    for _ in range(60):
        c, d = _cd(mx.random_symplectic(rng, max_entry=8, max_factors=6))
        # a left factor of determinant a keeps C D^T symmetric and multiplies
        # the minor gcd by |a|
        a = [[int(rng.integers(-2, 3)) for _ in range(3)] for _ in range(3)]
        cases += [(c, d), (_mat_mul(a, c), _mat_mul(a, d))]
    cases += [(_mat_mul(u, c), _mat_mul(u, d))
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


def _hnf_structures(max_abs, nrows=3):
    """All row-HNF (nrows x 2 nrows) integer matrices with bounded entries: the
    candidates of the product filter that the isotropy join replaced (oracle).

    Yields them as int64 arrays of at most _FILTER_CHUNK matrices, by
    pivot-column pattern; pivots positive, entries above a pivot reduced mod
    the pivot, rows echeloned left to right, each chunk from flat indices.
    """
    cols = 2 * nrows
    for pivots in combinations(range(cols), nrows):
        free = [(i, j) for i in range(nrows) for j in range(pivots[i] + 1, cols)]
        free_rows, free_cols = np.array(free, dtype=np.intp).reshape(-1, 2).T
        for pvals in product(range(1, max_abs + 1), repeat=nrows):
            # an entry above a pivot is reduced into [0, pivot)
            lo, hi = np.array([(0, pvals[pivots.index(j)]) if j in pivots[i + 1:]
                               else (-max_abs, max_abs + 1) for i, j in free]).reshape(-1, 2).T
            shape = (1, *(hi - lo))  # mixed radix; a leading 1 keeps a grid of no entry one point
            for start in range(0, total := math.prod(shape), sp._FILTER_CHUNK):
                stop = min(start + sp._FILTER_CHUNK, total)
                idx = np.unravel_index(np.arange(start, stop), shape)
                h = np.zeros((len(idx[0]), nrows, cols), dtype=np.int64)
                h[:, range(nrows), pivots] = pvals
                h[:, free_rows, free_cols] = np.transpose(idx[1:]) + lo
                yield h


def _product_filter(max_abs, nrows):
    """The parent's enumerate_pairs: every HNF candidate through the stacked
    coprime-symmetry test, sorted by (c, d), as a list of blocks (oracle)."""
    out = [h for block in _hnf_structures(max_abs, nrows)
           for h in block[sp._coprime_symmetric(block)].tolist()]
    return sorted(out, key=lambda h: ([r[:nrows] for r in h], [r[nrows:] for r in h]))


def test_enumerate_pairs_matches_scalar_filter():
    for max_abs, nrows in ((1, 3), (1, 2), (2, 2)):
        blocks = list(_hnf_structures(max_abs, nrows))
        assert max(len(b) for b in blocks) <= sp._FILTER_CHUNK
        scalar = [sp.CoprimePair(c=tuple(tuple(r[:nrows]) for r in h),
                                 d=tuple(tuple(r[nrows:]) for r in h))
                  for block in blocks for h in block.tolist()
                  if is_coprime_symmetric([r[:nrows] for r in h], [r[nrows:] for r in h])]
        scalar.sort(key=lambda p: (p.c, p.d))
        got = sp.enumerate_pairs(max_abs, nrows)
        assert got.shape == (len(scalar), nrows, 2 * nrows) and got.dtype == np.int64
        assert _pairs(got) == scalar
        assert got.tolist() == _product_filter(max_abs, nrows)
    assert sp.enumerate_pairs(1) is sp.enumerate_pairs(1)  # memoized
    assert not sp.enumerate_pairs(1).flags.writeable


def test_enumerate_pairs_at_max_abs_2_is_pinned():
    # digest recorded from the product filter (76,756,680 candidates, ~24 s);
    # the join lists the same 70,220 pairs in the same order
    start = time.perf_counter()
    pairs = sp.enumerate_pairs(2)
    assert time.perf_counter() - start < 10.0
    assert pairs.shape == (70_220, 3, 6)
    assert _sha([[h[:, :3].tolist(), h[:, 3:].tolist()] for h in pairs]) == (
        "75f467cd16b70c258349bf5e609f3d89d8780662d4312395d290fa22da574d3d")


@pytest.mark.slow
def test_enumerate_pairs_at_max_abs_2_matches_the_live_product_filter():
    assert sp.enumerate_pairs(2).tolist() == _product_filter(2, 3)


def test_enumerate_pairs_refuses_work_above_the_ceiling():
    for max_abs, nrows in ((1, 3), (1, 2), (2, 2), (3, 2)):
        blocks = _hnf_structures(max_abs, nrows)
        assert sp._candidate_count(max_abs, nrows) == sum(map(len, blocks))
    assert sp._candidate_count(2, 3) == 76_756_680  # below MAX_WORK: enumerated
    assert sp._candidate_count(3, 3) == 12_140_654_400
    start = time.perf_counter()
    with pytest.raises(DomainError, match="12140654400 HNF candidates"):
        sp.enumerate_pairs(3)  # enumerating would take more than 120 s
    assert time.perf_counter() - start < 1.0


def test_coset_box_is_refused_in_closed_form_before_enumerating(monkeypatch):
    z, spec = 1j * np.eye(3), eis.TruncationSpec(4, 4)
    start = time.perf_counter()
    for call in (lambda: sp.poincare_trunc(24, I3F, z, 2),
                 lambda: sp.kernel_trunc(24, (2.0, 4.0, 5.0), z, 1, spec, 2)):
        with pytest.raises(DomainError, match="6960 matrices x 76756680 pairs or candidates"):
            call()  # ~5.3e11 coset terms
    assert time.perf_counter() - start < 1.0
    # max_abs 1 is 48 x 33,880 = 1,626,240 (U, candidate) terms: accepted at that ceiling,
    # and one below it refused before any pair is enumerated
    monkeypatch.setattr(sp, "MAX_WORK", 1_626_240)
    assert sp.poincare_trunc(24, I3F, z, 1)[1] == 48 * 1096
    monkeypatch.setattr(sp, "MAX_WORK", 1_626_239)
    monkeypatch.setattr(sp, "enumerate_pairs", lambda *a: pytest.fail("pairs enumerated"))
    for call in (lambda: sp.poincare_trunc(24, I3F, z, 1),
                 lambda: sp.kernel_trunc(24, (2.0, 4.0, 5.0), z, 1, spec, 1)):
        with pytest.raises(DomainError, match="48 matrices x 33880 .* above 1626239 coset terms"):
            call()


def test_default_ball_is_built_once_and_read_only(monkeypatch):
    # poincare_trunc takes the column-norm ball of max_abs from a cache:
    # the same read-only array on every call, equal to the ball it used to rebuild
    value = sp.poincare_trunc(24, I3F, Z_GENERIC, 1)
    ball = sp._default_ball(1)
    assert ball is sp._default_ball(1) and not ball.flags.writeable
    assert (ball == il.unimodular_matrices(1, 1)).all()
    monkeypatch.setattr(il, "unimodular_matrices", lambda *a: pytest.fail("ball rebuilt"))
    assert sp.poincare_trunc(24, I3F, Z_GENERIC, 1) == value
    assert sp.kernel_trunc(24, (2.0, 4.0, 5.0), Z_GENERIC, 1, eis.TruncationSpec(4, 4),
                           1)["gl3_ball_size"] == len(ball)


def test_poincare_refuses_a_form_that_is_not_positive_definite(monkeypatch):
    monkeypatch.setattr(sp, "_coset_truncation", lambda *a: pytest.fail("truncation built"))
    for key in ((1, 1, 1, 2, 0, 0), (1, 1, 1, 3, 0, 0), (-1, 1, 1, 0, 0, 0)):  # semidefinite, indefinite
        with pytest.raises(NotPositiveDefinite, match="not positive definite"):
            sp.poincare_trunc(30, forms.HalfIntegralForm(*key), 1j * np.eye(3), 1)


def test_completion_examples():
    m = sp.complete_to_symplectic(sp.CoprimePair(tuple(map(tuple, Z3)),
                                                 tuple(map(tuple, I3))))
    assert [r[:3] for r in m[:3]] == I3 and [r[3:] for r in m[:3]] == Z3
    m = sp.complete_to_symplectic(sp.CoprimePair(tuple(map(tuple, I3)),
                                                 tuple(map(tuple, Z3))))
    assert mx.is_symplectic(m)


def test_completion_random(rng):
    for _ in range(50):
        m = mx.random_symplectic(rng, max_entry=10, max_factors=8)
        pair = sp.canonical_pair(*_cd(m))
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
    for z in points:
        for k in (8, 24, 30):
            val, n = sp.poincare_trunc(k, t, z, 1)
            ref, n_ref = _poincare_per_pair(k, t, z, 1)
            assert n == n_ref
            assert abs(val - ref) <= 1e-12 * abs(ref)
            assert sp.poincare_trunc(k, t, z, 1) == (val, n)  # cache hit, bit for bit


def test_grouped_poincare_sum_matches_per_pair_loop():
    # one term per distinct row T[U], weighted by its count, against the per-(U, pair) loop
    full = il.unimodular_matrices(1, 1)
    rows, mult = np.unique(sp._coset_coefficients(I3F, full), axis=0, return_counts=True)
    assert rows.tolist() == [[1, 1, 1, 0, 0, 0]] and mult.tolist() == [48]
    for k in (8, 30):
        val, n = sp.poincare_trunc(k, I3F, Z_GENERIC, 1)
        ref, n_ref = _poincare_per_pair(k, I3F, Z_GENERIC, 1)
        assert n == n_ref and abs(val - ref) <= 1e-12 * abs(ref)
    # entries past the int64 path (Python ints) group the same way: 24 distinct rows
    big = forms.HalfIntegralForm(2**40 + 1, 2**40 + 3, 2**40 + 7, 1, 1, -1)
    assert len(np.unique(sp._coset_coefficients(big, full), axis=0)) == 24


def _product_structures(max_abs, nrows):
    """The HNF candidate chunks from itertools.product over Python ints, as
    lists (reference for the index grid of _hnf_structures)."""
    cols = 2 * nrows
    for pivots in combinations(range(cols), nrows):
        free = [(i, j) for i in range(nrows) for j in range(pivots[i] + 1, cols)]
        for pvals in product(range(1, max_abs + 1), repeat=nrows):
            values = product(*(range(pvals[pivots.index(j)]) if j in pivots[i + 1:]
                               else range(-max_abs, max_abs + 1) for i, j in free))
            while chunk := list(islice(values, sp._FILTER_CHUNK)):
                out = []
                for vals in chunk:
                    h = [[0] * cols for _ in range(nrows)]
                    for i, j in enumerate(pivots):
                        h[i][j] = pvals[i]
                    for (i, j), v in zip(free, vals):
                        h[i][j] = v
                    out.append(h)
                yield out


def test_hnf_structures_match_the_product_reference():
    for max_abs, nrows in product((1, 2), (1, 2, 3)):
        got = _hnf_structures(max_abs, nrows)
        ref = _product_structures(max_abs, nrows)
        if (max_abs, nrows) == (2, 3):  # 76,756,680 candidates: the first chunks only
            got, ref = islice(got, 16), islice(ref, 16)
        got = [block.tolist() for block in got]
        assert got == list(ref)
        assert all(len(block) <= sp._FILTER_CHUNK for block in got)
        if (max_abs, nrows) != (2, 3):
            assert sum(map(len, got)) == sp._candidate_count(max_abs, nrows)


def test_coset_coefficients_match_the_list_congruence():
    # T[U] for the whole ball in one exact array expression, bit for bit the
    # per-U list path; the last form's T[U] are past int64 (Python ints)
    huge = forms.HalfIntegralForm(3, 2**62 + 5, 7, 1, -2, 3)
    for ball in (il.unimodular_matrices(1, 1), il.unimodular_matrices(2)[::61]):
        for t in forms.reduced_classes(2) + [huge]:
            got = sp._coset_coefficients(t, ball)
            assert got.tolist() == _list_coefficients(t, ball).tolist()


def test_points_outside_the_siegel_space_are_refused():
    for z in (np.zeros((3, 3)), np.diag([1j, 1j, 0.5 - 1j])):
        with pytest.raises(DomainError, match="Siegel"):
            sp.poincare_trunc(30, I3F, z, 1)
        with pytest.raises(DomainError, match="Siegel"):
            sp.kernel_trunc(30, (2, 4, 5), z, 1, eis.TruncationSpec(4, 4), 1)
    # Im Z = diag(1e-3, 1e-3, 1e3) (cond 1e6) is a Siegel point: both sums answer
    z = 1j * np.diag([1e-3, 1e-3, 1e3])
    assert np.isfinite(sp.poincare_trunc(30, I3F, z, 1)[0])
    assert np.isfinite(sp.kernel_trunc(30, (2, 4, 5), z, 1, eis.TruncationSpec(4, 4), 1)["value"])


def test_coset_tables_share_completions():
    sp._completions.cache_clear()
    sp._coset_table.cache_clear()
    for z in (Z_GENERIC, 1.5j * np.eye(3)):
        for k in (8, 24):
            sp.poincare_trunc(k, I3F, z, 1)
    info = sp._completions.cache_info()
    assert (info.misses, info.hits) == (1, 3)  # one stacked build per max_abs, 4 tables
    assert sp._completions(1)[::37].tolist() == [sp.complete_to_symplectic(p)
                                                 for p in _pairs(sp.enumerate_pairs(1)[::37])]


def test_warm_coset_sums_do_not_recount_the_candidates():
    # the closed-form candidate count is cached per (max_abs, nrows); the refusal
    # itself is not, so a patched MAX_WORK still refuses (see the coset-box test)
    sp.poincare_trunc(24, I3F, Z_GENERIC, 1)
    before = sp._candidate_count.cache_info()
    sp.poincare_trunc(24, I3F, Z_GENERIC, 1)
    out = sp.kernel_trunc(30, (2.0, 4.0, 5.0), Z_GENERIC, 1, eis.TruncationSpec(4, 4), 1)
    after = sp._candidate_count.cache_info()
    # one cache read per coset sum: this call, the kernel's own and one per class
    assert after.misses == before.misses
    assert after.hits == before.hits + 2 + out["classes_used"]


def test_warm_coset_sums_hash_no_pair(monkeypatch):
    # the coset caches are keyed on max_abs, Z and k: a warm call hashes no CoprimePair
    spec = eis.TruncationSpec(4, 4)
    poincare = sp.poincare_trunc(24, I3F, Z_GENERIC, 1)
    kernel = sp.kernel_trunc(30, (2.0, 4.0, 5.0), Z_GENERIC, 2, spec, 1)
    monkeypatch.setattr(sp.CoprimePair, "__hash__", lambda self: pytest.fail("pair hashed"))
    assert sp.poincare_trunc(24, I3F, Z_GENERIC, 1) == poincare
    assert sp.kernel_trunc(30, (2.0, 4.0, 5.0), Z_GENERIC, 2, spec, 1) == kernel


def _criterion_12_pairs():
    rng = acceptance._rng(acceptance.DEFAULT_SEED)
    return tuple(sp.canonical_pair(*_cd(mx.random_symplectic(rng, max_entry=12, max_factors=8)))
                 for _ in range(500))


def _reference_hnf_row(mat):
    """The row HNF loop as it was before its one-scan pivot search: the same
    Euclid, with the pivot row found by min(key=abs) over rebuilt row lists (oracle)."""
    h = [list(row) for row in mat]
    nrows, ncols = len(h), len(h[0])
    u = il.identity(nrows)
    pivot_row = 0
    for col in range(ncols):
        if pivot_row >= nrows:
            break
        while True:
            nz = [r for r in range(pivot_row + 1, nrows) if h[r][col] != 0]
            if not nz:
                break
            rows = [r for r in range(pivot_row, nrows) if h[r][col] != 0]
            r_min = min(rows, key=lambda r: abs(h[r][col]))
            if r_min != pivot_row:
                h[pivot_row], h[r_min] = h[r_min], h[pivot_row]
                u[pivot_row], u[r_min] = u[r_min], u[pivot_row]
            p = h[pivot_row][col]
            for r in range(pivot_row + 1, nrows):
                if h[r][col] != 0:
                    q = h[r][col] // p
                    if q:
                        h[r] = [x - q * y for x, y in zip(h[r], h[pivot_row])]
                        u[r] = [x - q * y for x, y in zip(u[r], u[pivot_row])]
        if h[pivot_row][col] == 0:
            continue
        if h[pivot_row][col] < 0:
            h[pivot_row] = [-x for x in h[pivot_row]]
            u[pivot_row] = [-x for x in u[pivot_row]]
        p = h[pivot_row][col]
        for r in range(pivot_row):
            q = h[r][col] // p
            if q:
                h[r] = [x - q * y for x, y in zip(h[r], h[pivot_row])]
                u[r] = [x - q * y for x, y in zip(u[r], u[pivot_row])]
        pivot_row += 1
    return h, u


def _completion_matrix(cd):
    """[D^T; -C^T] of a 3 x 6 list block [C D], the matrix the completion reduces."""
    return [[r[j] for r in cd] for j in range(3, 6)] + [[-r[j] for r in cd] for j in range(3)]


def test_hnf_row_matches_the_reference_loop(rng):
    rnd = random.Random(int(rng.integers(2**32)))
    mats = []
    for _ in range(3000):
        nrows, ncols = rnd.randint(2, 6), rnd.randint(2, 6)
        amp = rnd.choice((1, 3, 10, 2**31, 2**64, 10**20))
        mats.append([[rnd.randint(-amp, amp) if rnd.random() < 0.7 else 0 for _ in range(ncols)]
                     for _ in range(nrows)])
    assert any(abs(x) >= 2**63 for m in mats for row in m for x in row)
    # every completion matrix of enumerate_pairs(1); criterion 12's raw blocks [C D]
    # (canonical_pair's input) and the completion matrices of their canonical pairs
    mats += [_completion_matrix(cd) for cd in sp.enumerate_pairs(1).tolist()]
    crng = acceptance._rng(acceptance.DEFAULT_SEED)
    mats += [mx.random_symplectic(crng, max_entry=12, max_factors=8)[3:] for _ in range(500)]
    mats += [_completion_matrix(sp._stacked(p.c, p.d)) for p in _criterion_12_pairs()]
    for m in mats:
        assert il.hnf_row(m) == _reference_hnf_row(m)


def test_stacked_completion_matches_recorded_list_completions():
    for name, pairs in (("enumerate_pairs(1)", _pairs(sp.enumerate_pairs(1))),
                        ("criterion 12", _criterion_12_pairs())):
        stack = sp._complete(_blocks(pairs))
        assert stack.shape == (len(pairs), 6, 6) and not stack.flags.writeable
        ref = [_snf_completion(p) for p in pairs]
        assert _sha(ref) == _COMPLETIONS_SHA256[name]
        assert all(mx.is_symplectic(stack))
        for m, m_ref in zip(stack.tolist(), ref):  # another coset representative at most
            _assert_translate(m, m_ref)
        # the one-lane call is the same function
        assert [sp.complete_to_symplectic(p) for p in pairs[::50]] == stack[::50].tolist()
    # the coset table's pair stack pins the HNF completion itself
    assert _sha(sp._complete(sp.enumerate_pairs(1)).tolist()) == (
        _COMPLETIONS_SHA256["enumerate_pairs(1)"])


def test_completion_stays_exact_past_the_int64_bounds():
    # entries of 2^16 and more run the shear on Python ints, and entries of
    # 2^30 and more the symplectic check; the results stay exact either way
    small = _pairs(sp.enumerate_pairs(1)[7:8])[0]
    for big, dtype in ((2**15 - 1, np.int64), (2**16, object), (2**40, object),
                       (10**23, object)):
        pair = sp.canonical_pair(I3, [[big, 7, 0], [7, 0, 0], [0, 0, 0]])
        stack = sp._complete(_blocks((small, pair)))
        assert stack.dtype == dtype
        m = sp.complete_to_symplectic(pair)
        assert stack[1].tolist() == m and stack[0].tolist() == sp.complete_to_symplectic(small)
        assert _is_symplectic_list(m) and mx.is_symplectic(m)
        assert [r[:3] for r in m[3:]] == [list(r) for r in pair.c]
        assert [r[3:] for r in m[3:]] == [list(r) for r in pair.d]
        _assert_translate(m, _snf_completion(pair))
    for c, d in (([[2, 0, 0], [0, 2, 0], [0, 0, 2]], Z3),  # not primitive: no completion
                 ([[1, 0, 0], [0, 1, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, 2]]),
                 ([[1, 0, 0], [0, 0, 0], [0, 0, 0]], Z3)):  # rank 1
        pair = sp.CoprimePair(tuple(map(tuple, c)), tuple(map(tuple, d)))
        for complete in (sp.complete_to_symplectic, _snf_completion):
            with pytest.raises(CompletionFailure):
                complete(pair)


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
    stack = sp._completions(1)[::37]
    for z in (Z_GENERIC, mx.random_siegel(rng, min_im=0.8),
              _real_scaled(mx.random_siegel(rng, min_im=0.3), 2.0)):
        mz, jv = mx.mobius(stack, z)
        assert mz.shape == (len(stack), 3, 3) and jv.shape == (len(stack),)
        for i, m0 in enumerate(stack.tolist()):
            mz1, jv1 = mx.mobius(m0, z)
            assert mz[i].tobytes() == mz1.tobytes() and jv[i] == jv1
    with pytest.raises(SingularDenominator):  # one singular lane refuses the stack
        mx.mobius(stack, np.zeros((3, 3)))


def _first_minor(mat):
    """The first column triple of a 3 x m list matrix, in combinations order,
    with a nonzero minor, and that minor; (None, 0) at rank < 3."""
    return next(((cols, p) for cols in combinations(range(len(mat[0])), 3)
                 if (p := _det([[row[j] for j in cols] for row in mat]))), (None, 0))


def test_hnf_rows_matches_hnf_row(rng):
    cases = []
    for m, amp in ((6, 3), (6, 40), (3, 2)):
        st = rng.integers(-amp, amp + 1, size=(400, 3, m))
        st[::5, :, 1] = 0  # a zero column
        st[::7, -1] = 2 * st[::7, 0]  # rank deficient
        st[::11] = 0
        st[::13, :, 0] = -np.abs(st[::13, :, 0])  # negative first pivots
        cases.append(st)
    # left translates of blocks [C D]: C = I, C singular (pivots in D), a pivot 2
    ball = il.unimodular_matrices(1)[::50]
    blocks = [np.hstack([I3, rng.integers(-9, 10, size=(3, 3))]),
              [[1, 0, 0, 1, 3, -2], [0, 0, 0, 0, 1, 5], [0, 0, 0, 0, 0, 1]],
              [[0, 1, 0, 2, 0, 1], [0, 0, 0, 1, 1, 0], [0, 2, 0, 5, 1, 2]],  # rank 2
              np.hstack(_pivot_two_pair())]
    cases.append(np.concatenate([ball @ np.array(b) for b in blocks]))
    # unit lanes at the 2^19 bound (int64) and past it (Python ints)
    for x in (2**19 - 1, 2**19):
        st = np.array([[[1, 0, 0, x, 0, 0], [0, 1, 0, 0, -x, 0], [0, 0, 1, 0, 0, x]]])
        cases.append(np.concatenate([ball @ st, ball[:3] @ np.array(blocks[3])]))
    # lanes past 2^31 and 2^63; a fallback lane whose HNF leaves int64
    past = rng.integers(-5, 6, size=(60, 3, 6)).astype(object)
    past[3, 0, 0], past[4, 1, 2], past[5, 2, 5] = 2**31, -2**70, 2**31 - 1
    grow = rng.integers(-2**30, 2**30, size=(200, 3, 6))
    grow[0] = [[1, 2**30, 0, 0, 0, 0], [2**30, 0, 0, 0, 0, 0], [0, 1, 2**30, 0, 0, 0]]
    cases += [past, grow, np.zeros((0, 3, 6), dtype=np.int64)]
    kinds = set()
    for st in cases:
        h = il.hnf_rows(st)
        ref = [il.hnf_row(m)[0] for m in np.asarray(st, dtype=object).tolist()]
        assert h.shape == np.shape(st) and h.tolist() == ref
        for m in np.asarray(st, dtype=object).tolist():
            cols, p = _first_minor(m)
            kinds.add((cols == (0, 1, 2), p))
    # J past the first triple with p_J = +-1, p_J = -1, a pivot 2, rank < 3
    assert {(False, 1), (False, -1), (True, -1), (True, 2), (False, 0)} <= kinds
    assert max(map(abs, il.hnf_rows(grow[:1]).ravel().tolist())) >= 2**63
    # entries from 2^19 on, and every stack with one, run on Python ints
    assert [il.hnf_rows(st).dtype for st in cases[3:]] == [np.int64, np.int64] + [object] * 3 + [
        np.int64]


def test_canonical_pairs_match_canonical_pair(rng):
    ball = il.unimodular_matrices(1)[::23]
    for _ in range(5):
        c, d = _cd(mx.random_symplectic(rng, max_entry=10, max_factors=6))
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
        sp.kernel_trunc(24, (2.0, 4.0, 5.0), z, 1, spec, 0)
    with pytest.raises(DomainError):
        sp.enumerate_pairs(0)


def test_poincare_matched_congruence_bijection():
    # (T[V])[U] = T[VU]: the coset rows of T[V] over a ball are bit for bit those of T
    # over V times the ball, so both sums see identical terms in identical order
    v = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    t = forms.HalfIntegralForm(1, 1, 2, 1, 0, 1)
    tv = forms.congruence_form(t, v)
    ball = il.unimodular_matrices(1, 1)
    a = sp._coset_coefficients(tv, ball)
    assert a.tobytes() == sp._coset_coefficients(t, np.array(v) @ ball).tobytes()


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
        _, j1 = mx.mobius(np.array(m) @ n, z)
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
    for t in forms.reduced_classes(1):
        ev = eis.selberg_E(t, (w, s, 0.0), spec).value * float(t.det()) ** (s + w + u - 2)
        pk, _ = sp.poincare_trunc(24, t, z, 1)
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
    total = 0.0 + 0.0j
    for t in forms.reduced_classes(det_bound):
        pk, _ = sp.poincare_trunc(k, t, z, 1)
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

