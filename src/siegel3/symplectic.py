"""Coprime symmetric pairs, symplectic completion, and truncated coset sums.

The bottom blocks (C, D) of an integer symplectic matrix satisfy C D^T
symmetric with [C D] primitive (all Smith invariants 1); left association
(C, D) ~ (UC, UD) is canonicalized by the row Hermite normal form of the
3x6 block.  Completion to a full symplectic matrix solves an integer linear
system and repairs isotropy of the top rows with a symmetric shear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice, product
from operator import mul

import numpy as np

from . import _intlinalg as il
from .errors import CompletionFailure, DomainError, NotCoprimePair
from .eisenstein import TruncationSpec, selberg_E
from .forms import HalfIntegralForm, automorphism_count, congruence_form, reduced_classes
from .matrices import from_blocks, is_symplectic, mobius
from .specfun import complex_gamma


# candidates per numpy symmetry test in enumerate_pairs
_FILTER_CHUNK = 4096
# positions (11, 22, 33, 12, 13, 23) of the entries of M0 Z paired with T's coefficients
_ENTRY_ROWS, _ENTRY_COLS = [0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]


@dataclass(frozen=True)
class CoprimePair:
    c: tuple  # 3x3 int rows
    d: tuple


def _stacked(c, d):
    """The n x 2n integer block [C D]."""
    return [list(c[i]) + list(d[i]) for i in range(len(c))]


def _det_small(sub):
    n = len(sub)
    if n == 1:
        return sub[0][0]
    if n == 2:
        return sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
    return il.det3(sub)


def _maximal_minor_gcd(mat):
    rows = len(mat)
    cols = list(zip(*mat))
    g = 0
    for pick in combinations(range(len(cols)), rows):
        sub = [[cols[j][i] for j in pick] for i in range(rows)]
        g = math.gcd(g, abs(_det_small(sub)))
        if g == 1:
            return 1
    return g


def _cd_t_symmetric(c, d):
    """C D^T == D C^T, compared entry by entry above the diagonal."""
    n = len(c)
    return all(sum(map(mul, c[i], d[j])) == sum(map(mul, c[j], d[i]))
               for i in range(n) for j in range(i + 1, n))


def _hnf_coprime(h):
    """All elementary divisors 1, for a row HNF h of some n x 2n block [C D].

    Left multiplication by GL_n(Z) keeps the gcd of the maximal minors, and
    the minor of h on its pivot columns is the product of the pivots, so
    pivots all 1 settle it; a zero row means rank < n, hence gcd 0.
    """
    pivots = [next((x for x in row if x), 0) for row in h]
    return 0 not in pivots and (all(p == 1 for p in pivots) or _maximal_minor_gcd(h) == 1)


def is_coprime_symmetric(c, d):
    """C D^T symmetric and [C D] with all elementary divisors 1, exactly.

    Works for any square size (the rank-2 analogue backs the exhaustive
    enumeration cross-check).
    """
    return _cd_t_symmetric(c, d) and _maximal_minor_gcd(_stacked(c, d)) == 1


def canonical_pair(c, d):
    """Left-association representative: row HNF of the stacked n x 2n block."""
    if not _cd_t_symmetric(c, d):
        raise NotCoprimePair("pair is not coprime symmetric")
    n = len(c)
    h, _ = il.hnf_row(_stacked(c, d))
    if not _hnf_coprime(h):
        raise NotCoprimePair("pair is not coprime symmetric")
    return CoprimePair(
        c=tuple(tuple(row[:n]) for row in h),
        d=tuple(tuple(row[n:]) for row in h),
    )


def _hnf_structures(max_abs, nrows=3):
    """All row-HNF (nrows x 2 nrows) integer matrices with bounded entries.

    Yields them as int64 arrays of at most _FILTER_CHUNK matrices, by
    pivot-column pattern; pivots positive, entries above a pivot reduced mod
    the pivot, rows echeloned left to right.
    """
    cols = 2 * nrows
    for pivots in combinations(range(cols), nrows):
        free = [(i, j) for i in range(nrows) for j in range(pivots[i] + 1, cols)]
        free_rows, free_cols = np.array(free, dtype=np.intp).reshape(-1, 2).T
        for pvals in product(range(1, max_abs + 1), repeat=nrows):
            # an entry above a pivot is reduced into [0, pivot)
            values = product(*(range(min(pvals[pivots.index(j)], max_abs + 1))
                               if j in pivots[i + 1:] else range(-max_abs, max_abs + 1)
                               for i, j in free))
            while chunk := list(islice(values, _FILTER_CHUNK)):
                h = np.zeros((len(chunk), nrows, cols), dtype=np.int64)
                h[:, range(nrows), pivots] = pvals
                h[:, free_rows, free_cols] = chunk
                yield h


@lru_cache(maxsize=4)
def enumerate_pairs(max_abs, nrows=3):
    """All canonical coprime symmetric pairs with entries in the box.

    Enumerates row-HNF candidates directly (every canonical representative is
    its own HNF), tests C D^T symmetric in numpy a chunk at a time, then
    coprimality on the survivors.  Memoized per (max_abs, nrows); the result
    is an immutable tuple sorted by (c, d).
    """
    if max_abs < 1:
        raise DomainError("max_abs must be >= 1, got %r" % (max_abs,))
    out = []
    for h in _hnf_structures(max_abs, nrows):
        cd_t = h[:, :, :nrows] @ h[:, :, nrows:].transpose(0, 2, 1)
        for cand in h[(cd_t == cd_t.transpose(0, 2, 1)).all(axis=(1, 2))].tolist():
            if _hnf_coprime(cand):
                out.append(CoprimePair(c=tuple(tuple(row[:nrows]) for row in cand),
                                       d=tuple(tuple(row[nrows:]) for row in cand)))
    out.sort(key=lambda p: (p.c, p.d))
    return tuple(out)


def complete_to_symplectic(pair: CoprimePair):
    """Integer (A0, B0) making (A0 B0; C D) exactly symplectic.

    Solves A0 D^T - B0 C^T = I over Z, then shears the top rows by a
    symmetric S to restore isotropy A0 B0^T = B0 A0^T.
    """
    c = [list(r) for r in pair.c]
    d = [list(r) for r in pair.d]
    # solve (A0 B0) @ N = I over Z for N = (D^T ; -C^T), i.e. A0 D^T - B0 C^T = I
    n = il.mat_t(d) + il.mat_neg(il.mat_t(c))
    try:
        y = il.solve_right_inverse(il.mat_t(n))  # (3x6) @ y(6x3) = I
    except ValueError as exc:
        raise CompletionFailure("no integer completion: %s" % exc) from exc
    x = il.mat_t(y)  # 3x6, x @ n = I
    a0 = [row[:3] for row in x]
    b0 = [row[3:] for row in x]
    # gram defect of the top rows: G = A0 B0^T - B0 A0^T (antisymmetric)
    g = il.mat_mul(a0, il.mat_t(b0))
    g = [[g[i][j] - g[j][i] for j in range(3)] for i in range(3)]
    s = [[g[i][j] if i > j else 0 for j in range(3)] for i in range(3)]
    a0 = [[a0[i][j] + sum(s[i][t] * c[t][j] for t in range(3)) for j in range(3)] for i in range(3)]
    b0 = [[b0[i][j] + sum(s[i][t] * d[t][j] for t in range(3)) for j in range(3)] for i in range(3)]
    m = from_blocks(a0, b0, c, d)
    if not is_symplectic(m):
        raise CompletionFailure("completion is not symplectic (bug)")
    return m


def _check_truncation(k, max_abs):
    if k <= 6 or k % 2 or max_abs < 1:
        raise DomainError("need even k > 6 and max_abs >= 1, got k=%r, max_abs=%r" % (k, max_abs))


@lru_cache(maxsize=4)
def _coset_table(pairs, z_bytes, k):
    """The factors of P_{k,T}(Z) that do not depend on T, keyed on the pair
    tuple, the bytes of Z and k: for the completion M0 of each pair, the
    entries (11, 22, 33, 12, 13, 23) of M0 Z as a 6 x |pairs| array and
    j(M0, Z)^(-k), both read-only."""
    z = np.frombuffer(z_bytes, dtype=complex).reshape(3, 3)
    entries = np.empty((6, len(pairs)), dtype=complex)
    weights = np.empty(len(pairs), dtype=complex)
    for i, pair in enumerate(pairs):
        mz, jv = mobius(complete_to_symplectic(pair), z)
        entries[:, i] = mz[_ENTRY_ROWS, _ENTRY_COLS]
        weights[i] = jv ** (-k)
    entries.flags.writeable = weights.flags.writeable = False
    return entries, weights


def poincare_trunc(k, t: HalfIntegralForm, z, max_abs, gl_ball=None, pairs=None):
    """Truncated weight-k Poincare sum over translation cosets.

    (1/2) sum over U in a GL3(Z) column-norm ball and canonical pairs {C, D}
    of e^{2 pi i tr(T[U] M0 Z)} j(M0, Z)^(-k); M0 completes {C, D}.  The
    per-coset factors come from a table cached per (pairs, Z, k); the sum is
    one |ball| x |pairs| array summed over the ball, then weighted by
    j^(-k).  The truncation error is not certified.
    """
    _check_truncation(k, max_abs)
    z = np.asarray(z, dtype=complex)
    if gl_ball is None:
        gl_ball = il.unimodular_matrices_colnorm(max_abs * max_abs)
    if pairs is None:
        pairs = enumerate_pairs(max_abs)
    if not len(gl_ball) or not len(pairs):
        raise DomainError("empty truncation: %d matrices, %d pairs" % (len(gl_ball), len(pairs)))
    entries, weights = _coset_table(tuple(pairs), z.tobytes(), k)
    coeffs = np.array([[f.t1, f.t2, f.t3, f.b12, f.b13, f.b23]
                       for f in (congruence_form(t, u) for u in gl_ball)], dtype=float)
    per_pair = np.exp(2j * np.pi * (coeffs @ entries)).sum(axis=0)
    return complex(0.5 * (weights * per_pair).sum()), len(gl_ball) * len(pairs)


def kernel_trunc(k, exponents, z, det_bound, flag_spec: TruncationSpec, max_abs):
    """Truncated kernel via the Poincare-series representation.

    prefactor * sum over classes of (1/eps_T) E(T | w, s, -s-w-u+2) P_{k,T}(Z),
    prefactor = (2/pi^(3/2)) (-2 pi i)^(s+2w+3u) / (Gamma(s+w+u-1)
    Gamma(w+u-1/2) Gamma(u)).
    """
    _check_truncation(k, max_abs)
    s, w, u = (complex(e) for e in exponents)
    sigma = s + 2 * w + 3 * u
    pref = (
        2.0
        / math.pi**1.5
        * np.exp(sigma * (math.log(2.0 * math.pi) - 0.5j * np.pi))
        / (complex_gamma(s + w + u - 1) * complex_gamma(w + u - 0.5) * complex_gamma(u))
    )
    classes = reduced_classes(det_bound)
    gl_ball = il.unimodular_matrices_colnorm(max_abs * max_abs)
    pairs = enumerate_pairs(max_abs)
    total = 0.0 + 0.0j
    pk_terms = 0
    for t in classes:
        eps = automorphism_count(t)
        ev = selberg_E(t, (w, s, -s - w - u + 2.0), flag_spec)
        pk, n_terms = poincare_trunc(k, t, z, max_abs, gl_ball=gl_ball, pairs=pairs)
        pk_terms += n_terms
        total += ev.value * pk / eps
    warnings = []
    if not (
        s.real > 1 and w.real > 3 and u.real > 4
        and (2 * s + 4 * w + u).real < k - 4
    ):
        warnings.append(
            "outside Re(s)>1, Re(w)>3, Re(u)>4, Re(2s+4w+u)<k-4: the class sum "
            "need not converge as det_bound grows"
        )
    return {
        "value": complex(pref * total),
        "classes_used": len(classes),
        "pairs_used": len(pairs),
        "gl3_ball_size": len(gl_ball),
        "poincare_terms": pk_terms,
        "warnings": warnings,
    }
