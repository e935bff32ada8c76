"""Coprime symmetric pairs, symplectic completion, and truncated coset sums.

The bottom blocks (C, D) of an integer symplectic matrix satisfy C D^T
symmetric with [C D] primitive; left association (C, D) ~ (UC, UD) is
canonicalized by the row Hermite normal form of the 3x6 block.  Completion
reads top rows off the row-HNF transform of [D^T; -C^T] and repairs their
isotropy with a symmetric shear.  A single pair goes through the list HNF; the
pairs of a box are one int64 stack of blocks [C D], joined row by row from the
pairwise isotropic HNF rows; left translates (``canonical_pairs``, the HNF in
closed form from the maximal minors) and completions run on exact arrays.  The
Poincare sum takes one polar exp per distinct T[U] and pair, contracted outside
BLAS; its box is refused in closed form, before any pair is enumerated.  The
kernel is ``series.km_twisted`` with these Poincare series as its coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from operator import mul

import numpy as np

from . import _intlinalg as il
from .branch import _polar_exp
from .errors import (MAX_WORK, CompletionFailure, DomainError, NotCoprimePair, NotPositiveDefinite,
                     finite_exponents, require_finite)
from .eisenstein import TruncationSpec
from .forms import HalfIntegralForm
from .matrices import is_symplectic, mobius, siegel_point
from .series import CoefficientTable, km_twisted
from .specfun import lipschitz_factor


# isotropic candidates per numpy coprimality test in enumerate_pairs
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


def _maximal_minor_gcd(mat):
    """gcd of the maximal minors of an n x m integer matrix (n <= 3), or of
    each lane of a (..., n, m) stack.  Exact: a minor sums six products of
    three entries, so entries of 2^20 or more are taken as Python ints."""
    a = il.exact_array(mat, 2**20)
    n, m = a.shape[-2:]
    return np.gcd.reduce(il.minors(a, list(combinations(range(m), n))), axis=-1)


def _cd_t_symmetric(c, d):
    """C D^T == D C^T, compared entry by entry above the diagonal."""
    n = len(c)
    return all(sum(map(mul, c[i], d[j])) == sum(map(mul, c[j], d[i]))
               for i in range(n) for j in range(i + 1, n))


def _hnf_coprime(h):
    """All elementary divisors 1, for a row HNF h of some n x 2n block [C D].

    Left multiplication by GL_n(Z) keeps the gcd of the maximal minors, and
    the minor of h on its pivot columns is the product of the pivots, so
    pivots all 1 settle it; otherwise the minors decide (a zero row means
    rank < n, hence gcd 0).
    """
    return all(next((x for x in row if x), 0) == 1 for row in h) or _maximal_minor_gcd(h) == 1


def _coprime_symmetric(h):
    """Stacked coprime-symmetry test of (N, n, 2n) row HNFs of blocks [C D]:
    left association keeps C D^T symmetric, and coprimality is decided as in
    _hnf_coprime, with minors only on lanes with a pivot other than 1."""
    h = il.exact_array(h, 2**30)
    n = h.shape[1]
    cd_t = h[:, :, :n] @ h[:, :, n:].swapaxes(1, 2)
    ok = (cd_t == cd_t.swapaxes(1, 2)).all(axis=(1, 2))
    pivots = np.take_along_axis(h, (h != 0).argmax(axis=2)[:, :, None], axis=2)[:, :, 0]
    rest = ok & (pivots != 1).any(axis=1)
    ok[rest] = _maximal_minor_gcd(h[rest]) == 1
    return ok


def canonical_pair(c, d):
    """Left-association representative: row HNF of the stacked n x 2n block."""
    if not _cd_t_symmetric(c, d):
        raise NotCoprimePair("pair is not coprime symmetric")
    n = len(c)
    h, _ = il.hnf_row(_stacked(c, d))
    if not _hnf_coprime(h):
        raise NotCoprimePair("pair is not coprime symmetric")
    return CoprimePair(c=tuple(tuple(row[:n]) for row in h), d=tuple(tuple(row[n:]) for row in h))


def canonical_pairs(c, d):
    """The stacked canonical_pair: (N, 3, 3) integer stacks to the (N, 3, 6)
    row HNFs of their blocks [C D], exactly (see ``il.hnf_rows``).  Raises
    NotCoprimePair when any lane is not coprime symmetric."""
    h = il.hnf_rows(np.concatenate([c, d], axis=2))
    if not _coprime_symmetric(h).all():
        raise NotCoprimePair("pair is not coprime symmetric")
    return h


@lru_cache(maxsize=8)
def _candidate_count(max_abs, nrows):
    """How many row-HNF nrows x 2 nrows candidates the box holds: per pivot
    pattern, sum_p p^k for pivot k = p and the k entries above it in [0, p),
    times 2 max_abs + 1 per other free entry."""
    cols, side = 2 * nrows, 2 * max_abs + 1
    above = math.prod(sum(p**k for p in range(1, max_abs + 1)) for k in range(nrows))
    return above * sum(side ** (sum(cols - 1 - p for p in pivots) - nrows * (nrows - 1) // 2)
                       for pivots in combinations(range(cols), nrows))


def _isotropic_candidates(max_abs, n):
    """The row-HNF n x 2n candidates of the box whose rows are pairwise isotropic,
    w(x, y) = x J y^T = 0 (C D^T = D C^T): an int64 stack per pivot pattern and set
    of pivot values.  Row i ranges over a set R_i: pivot pvals[i], zeros before
    it, an entry above a later pivot in [0, that pivot), others in [-max_abs,
    max_abs].  Each R_j is joined to the tuples kept so far on the tables
    w(R_i, R_j) = 0, so no candidate that fails them is built."""
    for pivots, pvals in product(combinations(range(2 * n), n),
                                 list(product(range(1, max_abs + 1), repeat=n))):
        rows, picks = [], np.zeros((1, 0), dtype=np.intp)
        for i, p in enumerate(pivots):
            ranges = [range(pvals[pivots.index(j)]) if j in pivots[i + 1:]
                      else range(-max_abs, max_abs + 1) for j in range(p + 1, 2 * n)]
            r = np.zeros((math.prod(map(len, ranges)), 2 * n), dtype=np.int64)
            r[:, p], r[:, p + 1:] = pvals[i], np.reshape(list(product(*ranges)), (len(r), -1))
            ok = np.ones((len(picks), len(r)), dtype=bool)
            for q, prev in enumerate(rows):
                ok &= (prev[:, :n] @ r[:, n:].T == prev[:, n:] @ r[:, :n].T)[picks[:, q]]
            left, right = np.nonzero(ok)
            picks = np.column_stack([picks[left], right])
            rows.append(r)
        yield np.stack([r[picks[:, i]] for i, r in enumerate(rows)], axis=1)


@lru_cache(maxsize=4)
def enumerate_pairs(max_abs, nrows=3):
    """All canonical coprime symmetric pairs with entries in the box: the read-only
    (N, nrows, 2 nrows) int64 stack of their blocks [C D], sorted by (c, d).

    Each canonical pair is its own row HNF; the pairwise isotropic candidates
    (``_isotropic_candidates``) are tested for coprimality _FILTER_CHUNK at a
    time.  More than MAX_WORK candidates, by the closed-form count, are refused
    before any is built.  Memoized per (max_abs, nrows).
    """
    if max_abs < 1:
        raise DomainError("max_abs must be >= 1, got %r" % (max_abs,))
    if (n := _candidate_count(max_abs, nrows)) > MAX_WORK:
        raise DomainError("%d HNF candidates at max_abs %d, above %d" % (n, max_abs, MAX_WORK))
    h = np.concatenate([b[_coprime_symmetric(b)] for c in _isotropic_candidates(max_abs, nrows)
                        for b in np.split(c, range(_FILTER_CHUNK, len(c), _FILTER_CHUNK))])
    h = h[np.lexsort(h.reshape(len(h), nrows, 2, nrows).swapaxes(1, 2).reshape(len(h), -1).T[::-1])]
    h.flags.writeable = False
    return h


def _complete(blocks):
    """The read-only (N, 6, 6) stack of exact completions (A0 B0; C D) of (N, 3, 6) blocks [C D].

    Per lane, the list row HNF h = u N of N = [D^T; -C^T] (6 x 3) has h[:3] = I
    exactly when [C D] is primitive, and then u[:3] = (A0 B0) solves
    A0 D^T - B0 C^T = I; the stack then shears the top rows by a symmetric S to
    restore isotropy A0 B0^T = B0 A0^T and checks t(M) J M == J on every lane.
    Entries of C, D, A0, B0 below 2^16 keep the shear below 2^53 in int64;
    larger ones run on Python ints.
    """
    rows = []
    for cd in blocks.tolist():
        h, u = il.hnf_row([[r[j] for r in cd] for j in range(3, 6)]
                          + [[-r[j] for r in cd] for j in range(3)])
        if h[:3] != il.identity(3):
            raise CompletionFailure("no integer completion: [C D] is not primitive")
        rows.append(u[:3] + cd)
    m = il.exact_array(rows, 2**16)
    # gram defect of the top rows: G = A0 B0^T - B0 A0^T (antisymmetric)
    g = m[:, :3, :3] @ m[:, :3, 3:].swapaxes(1, 2)
    m[:, :3] += np.tril(g - g.swapaxes(1, 2), -1) @ m[:, 3:]
    if not is_symplectic(m).all():
        raise CompletionFailure("completion is not symplectic (bug)")
    m.flags.writeable = False
    return m


def complete_to_symplectic(pair: CoprimePair):
    """Integer (A0, B0) making (A0 B0; C D) exactly symplectic, as a 6 x 6
    list: the one-lane case of the stacked completion."""
    return _complete(np.array([_stacked(pair.c, pair.d)], dtype=object))[0].tolist()


def _check_truncation(k, max_abs):
    if k <= 6 or k % 2 or max_abs < 1:
        raise DomainError("need even k > 6 and max_abs >= 1, got k=%r, max_abs=%r" % (k, max_abs))


@lru_cache(maxsize=4)
def _completions(max_abs):
    """The completion stack of enumerate_pairs(max_abs); M0 depends on neither Z
    nor k, so coset tables at other points and weights share it."""
    return _complete(enumerate_pairs(max_abs))


@lru_cache(maxsize=4)
def _coset_table(max_abs, z_bytes, k):
    """The factors of P_{k,T}(Z) that do not depend on T, keyed on max_abs, the
    bytes of Z and k: for the completion M0 of each pair of enumerate_pairs(max_abs),
    -2 pi Im and 2 pi Re of the entries (11, 22, 33, 12, 13, 23) of M0 Z as a
    2 x |pairs| x 6 array and j(M0, Z)^(-k), both read-only."""
    z = np.frombuffer(z_bytes, dtype=complex).reshape(3, 3)
    mz, jv = mobius(_completions(max_abs), z)
    phases = np.stack([-mz.imag, mz.real])[..., _ENTRY_ROWS, _ENTRY_COLS] * (2 * np.pi)
    weights = jv ** (-k)
    phases.flags.writeable = weights.flags.writeable = False
    return phases, weights


def _coset_coefficients(t: HalfIntegralForm, gl_ball):
    """(t1, t2, t3, b12, b13, b23) of T[U] for each U of the ball, a float |ball| x 6
    array, from the exact t(U) 2T U: int64 while an entry (nine products) is below
    9 * 2^16 * 2^16 * 2^26 < 2^63, Python ints past that."""
    u = il.exact_array(gl_ball, 2**16)
    g = u.swapaxes(1, 2) @ il.exact_array(t.gram2(), 2**26) @ u
    return np.asarray(g[:, _ENTRY_ROWS, _ENTRY_COLS] * (0.5, 0.5, 0.5, 1, 1, 1), dtype=float)


@lru_cache(maxsize=4)
def _default_ball(max_abs):
    """The GL3(Z) column-norm ball of max_abs, built once per max_abs, read-only."""
    ball = il.unimodular_matrices(max_abs, max_abs * max_abs)
    ball.flags.writeable = False
    return ball


def _coset_truncation(max_abs):
    """The GL3(Z) ball and pair stack of the coset box of max_abs.  More than MAX_WORK
    (U, candidate) terms, by the closed-form HNF candidate count, are refused before
    any pair is enumerated."""
    gl_ball, count = _default_ball(max_abs), _candidate_count(max_abs, 3)
    if len(gl_ball) * count > MAX_WORK:
        raise DomainError("%d matrices x %d pairs or candidates at max_abs %d, above %d coset terms"
                          % (len(gl_ball), count, max_abs, MAX_WORK))
    return gl_ball, enumerate_pairs(max_abs)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite sum is refused instead
def poincare_trunc(k, t: HalfIntegralForm, z, max_abs):
    """Truncated weight-k Poincare sum over translation cosets.

    (1/2) sum over U in the GL3(Z) column-norm ball of max_abs and the pairs
    {C, D} of enumerate_pairs(max_abs) of e^{2 pi i tr(T[U] M0 Z)} j(M0, Z)^(-k);
    M0 completes {C, D}.  The per-coset factors come from a table cached per
    (max_abs, Z, k).  A term depends on U through the float row T[U] alone
    (T[-U] = T[U]), so each distinct row takes one polar exp per pair, weighted
    by its count.  The truncation error is not certified; a T that is not
    positive definite raises NotPositiveDefinite, a Z outside the Siegel space,
    more than MAX_WORK terms or a sum that overflows DomainError.
    """
    _check_truncation(k, max_abs)
    if not t.is_positive_definite():
        raise NotPositiveDefinite("form is not positive definite")
    z = siegel_point(z)
    gl_ball, pairs = _coset_truncation(max_abs)
    phases, weights = _coset_table(max_abs, z.tobytes(), k)
    rows, mult = np.unique(_coset_coefficients(t, gl_ball), axis=0, return_counts=True)
    terms = _polar_exp(*phases @ rows.T, np.empty((len(pairs), len(rows)), complex))
    # a contraction outside BLAS: its sum order, and so its bits, do not depend on the thread count
    value = require_finite(np.einsum("p,pr,r->", weights, terms, 0.5 * mult), "the Poincare sum")
    return complex(value), len(gl_ball) * len(pairs)


def kernel_trunc(k, exponents, z, det_bound, flag_spec: TruncationSpec, max_abs):
    """Truncated kernel as a twisted Koecher-Maass series: 2 F(s, w, u) times
    km_twisted at (w, s, -s-w-u+2) of the table T -> P_{k,T}(Z) of Poincare
    series, F = specfun.lipschitz_factor; the region warning is the kernel's own.
    A Z outside the Siegel space or a value that overflows raises DomainError."""
    _check_truncation(k, max_abs)
    s, w, u = finite_exponents(*exponents)
    z = siegel_point(z)
    pref = 2.0 * lipschitz_factor(s, w, u)
    gl_ball, pairs = _coset_truncation(max_abs)
    poincare = CoefficientTable(k, lambda t: poincare_trunc(k, t, z, max_abs)[0])
    sv = km_twisted(poincare, (w, s, -s - w - u + 2.0), det_bound, flag_spec)
    warnings = []
    if not (s.real > 1 and w.real > 3 and u.real > 4 and (2 * s + 4 * w + u).real < k - 4):
        warnings.append("outside Re(s)>1, Re(w)>3, Re(u)>4, Re(2s+4w+u)<k-4: the class sum "
                        "need not converge as det_bound grows")
    return {
        "value": complex(require_finite(pref * sv.value, "the kernel sum")),
        "classes_used": sv.classes_used,
        "pairs_used": len(pairs),
        "gl3_ball_size": len(gl_ball),
        "poincare_terms": sv.classes_used * len(gl_ball) * len(pairs),
        "warnings": warnings,
    }
