"""Acceptance criteria, runnable as a library (CLI selftest) or via pytest.

Each criterion function returns a CriterionResult with per-clause outcomes.
Three clauses are implemented faithfully but are expected to fail: the class
list with det <= 1 is {I3} (and the two matching single-class series
identities hold) only if the cone of forms is read with integer
off-diagonals, which contradicts both the half-integral convention used
everywhere else and the two-sided lattice identity (criterion 3).  See the
README and the per-clause messages.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _intlinalg as il
from . import branch, eisenstein as eis, fegroup as fg, forms, lipschitz as lip
from . import matrices as mx
from . import series, specfun as sf, symplectic as sp

DEFAULT_SEED = 42


@dataclass
class CriterionResult:
    cid: int
    title: str
    passed: bool = False
    runtime: float = 0.0
    clauses: list = field(default_factory=list)  # (name, ok, detail)
    t0: float = field(default_factory=time.time)  # the criterion's clock starts here

    def add(self, name, ok, detail=""):
        self.clauses.append({"clause": name, "ok": bool(ok), "detail": str(detail)})

    def elapsed(self):
        return time.time() - self.t0

    def finish(self):
        self.runtime = self.elapsed()
        self.passed = all(c["ok"] for c in self.clauses)
        return self


def _rng(seed):
    return np.random.default_rng(seed)


def inversion_worst_gap(samples, seed):
    """Worst power-inversion gap over seeded random points and exponents."""
    rng = _rng(seed)
    worst = 0.0
    for _ in range(samples):
        z = mx.random_siegel(rng, min_im=0.5)
        e = tuple(rng.uniform(-3, 3, 3) + 1j * rng.uniform(-3, 3, 3))
        worst = max(worst, branch.power_inversion_gap(e, z))
    return worst


def cone_integral_gaps(samples, seed):
    """Cone-integral gaps at two exponent triples per seeded random point."""
    rng = _rng(seed)
    gaps = []
    for _ in range(samples):
        z = mx.random_siegel(rng, min_im=1.0)
        for swu in ((1.5, 1.0, 2.0), (2.0, 1.5, 3.0)):
            gaps.append(sf.cone_integral_gap(swu, z))
    return gaps


def criterion_1(seed=DEFAULT_SEED):
    res = CriterionResult(1, "power-function inversion identity")
    worst = inversion_worst_gap(1000, seed)
    res.add("1000 samples gap <= 1e-10", worst <= 1e-10, "worst gap %.3g" % worst)
    res.add("runtime < 10 s", res.elapsed() < 10.0)
    return res.finish()


def criterion_2(seed=DEFAULT_SEED):
    res = CriterionResult(2, "cone integral vs closed-form gamma factor")
    worst = max(cone_integral_gaps(10, seed))
    res.add("20 quadrature gaps <= 1e-8", worst <= 1e-8, "worst gap %.3g" % worst)
    res.add("runtime < 60 s", res.elapsed() < 60.0)
    return res.finish()


def _fixed_lipschitz_points():
    xs = (
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[0.25, 0.125, 0.0], [0.125, -0.25, 0.0], [0.0, 0.0, 0.125]],
        [[0.125, 0.0625, -0.0625], [0.0625, 0.25, 0.0], [-0.0625, 0.0, -0.125]],
    )
    return [np.array(x, dtype=float) + 1j * np.eye(3) for x in xs]


def criterion_3(seed=DEFAULT_SEED):
    res = CriterionResult(3, "two-sided lattice summation identity")
    for i, z in enumerate(_fixed_lipschitz_points()):
        r1 = lip.lipschitz_report((2.0, 4.0, 5.0), z, 8, 12, tail_correction=True)
        r2 = lip.lipschitz_report((2.0, 4.0, 5.0), z, 9, 13, tail_correction=True)
        res.add("Z%d gap <= 1e-3 at (8,12)" % i, r1.relative_gap <= 1e-3,
                "gap %.3g" % r1.relative_gap)
        res.add("Z%d gap decreases at (9,13)" % i, r2.relative_gap < r1.relative_gap,
                "gap %.3g -> %.3g" % (r1.relative_gap, r2.relative_gap))
    res.add("runtime < 120 s", res.elapsed() < 120.0)
    return res.finish()


def criterion_4(seed=DEFAULT_SEED):
    res = CriterionResult(4, "classical one-variable summation formula")
    for tau in (1j, 0.5 + 1j):
        rep, closed = lip.classical_lipschitz(tau, 2.0, 4000)
        gap = abs(rep.rhs - closed) / abs(closed)
        res.add("tau=%s rhs vs closed form <= 1e-12" % tau, gap <= 1e-12, "gap %.3g" % gap)
    res.add("runtime < 1 s", res.elapsed() < 1.0)
    return res.finish()


def criterion_5(seed=DEFAULT_SEED):
    res = CriterionResult(5, "degree-3 gamma factor closed form")
    val = sf.gamma3(0.0, 0.0, 2.0)
    target = -math.pi**2 / 2.0
    gap = abs(val - target) / abs(target)
    res.add("gamma3(0,0,2) = -pi^2/2 to 1e-13", gap <= 1e-13, "gap %.3g" % gap)
    rng = _rng(seed)
    worst = 0.0
    for _ in range(100):
        s, w, u = rng.uniform(0.2, 2.5, 3) + 1j * rng.uniform(-1.5, 1.5, 3)
        lhs = sf.gamma3(-w, -s, s + w + u)
        rhs = sf.gamma3(w - 1.0, 0.5 - s - w, s + w + u)
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    res.add("argument-swap identity on 100 triples <= 1e-12", worst <= 1e-12,
            "worst gap %.3g" % worst)
    return res.finish()


def criterion_6(seed=DEFAULT_SEED):
    res = CriterionResult(6, "reduction, automorphisms and class list")
    e1 = forms.automorphism_count(forms.HalfIntegralForm(1, 1, 1, 0, 0, 0))
    e2 = forms.automorphism_count(forms.HalfIntegralForm(1, 1, 2, 0, 0, 0))
    res.add("eps(I3) == 24", e1 == 24, "got %d" % e1)
    res.add("eps(diag(1,1,2)) == 8", e2 == 8, "got %d" % e2)
    rng = _rng(seed)
    target = forms.HalfIntegralForm(1, 2, 3, 0, 0, 0)
    ok = 0
    for _ in range(500):
        u = _random_unimodular_bounded(rng, 3)
        scrambled = forms.congruence_form(target, u)
        red = forms.minkowski_reduce(scrambled)
        if red.form == target and forms.congruence_form(scrambled, red.reducer) == red.form:
            ok += 1
    res.add("500 scrambled diag(1,2,3) round-trips", ok == 500, "%d/500" % ok)
    classes = forms.reduced_classes(1)
    keys = [c.key() for c in classes]
    res.add(
        "reduced_classes(1) == {I3}  [known inconsistent expectation]",
        keys == [(1, 1, 1, 0, 0, 0)],
        "got %d classes %s; the half-integral cone contains classes of det 1/2 and 3/4 "
        "below det 1, so {I3} is only correct for integer off-diagonals, which would "
        "contradict the lattice identity of criterion 3" % (len(keys), keys),
    )
    res.add("runtime < 30 s", res.elapsed() < 30.0)
    return res.finish()


def _random_unimodular_bounded(rng, max_entry):
    while True:
        u = mx._random_unimodular(rng)
        if max(abs(x) for row in u for x in row) <= max_entry:
            return u


def _canonical_sign(v):
    """v or -v, whichever has a positive first nonzero entry (the oracles' own
    sign rule, apart from forms.first_nonzero_positive, which they check)."""
    for x in v:
        if x:
            return v if x > 0 else tuple(-y for y in v)
    return v


def brute_force_flag_sum(y: forms.HalfIntegralForm, exponents, colnorm2):
    """Oracle: enumerate unimodular matrices, dedupe parabolic cosets by their
    flag, and sum the power-function terms through the branch machinery.

    Independent of the production flag-sum path: terms are evaluated as
    exp((s+2w+3u) pi i/2) p_{-s,-w,-u}(i Y[gamma]) at one representative per
    coset.
    """
    s, w, u = (complex(e) for e in exponents)
    sigma = s + 2 * w + 3 * u
    seen = {}
    for g in il.unimodular_matrices(math.isqrt(colnorm2), colnorm2).tolist():
        # both are primitive: a unimodular column, and the cross product of
        # two such columns (a row of the adjugate)
        v = _canonical_sign(tuple(g[i][0] for i in range(3)))
        n = _canonical_sign(il.cross3(v, tuple(g[i][1] for i in range(3))))
        key = (v, n)
        if key not in seen:
            seen[key] = g
    total = 0.0 + 0.0j
    phase = np.exp(0.5j * np.pi * sigma)
    for (v, n), g in sorted(seen.items()):
        yg = forms.congruence_form(y, g)
        zi = 0.5j * np.array(yg.gram2(), dtype=float)
        total += phase * branch.power_p((-s, -w, -u), zi)
    return complex(total), seen


def criterion_7(seed=DEFAULT_SEED):
    res = CriterionResult(7, "flag parametrization vs brute-force cosets")
    rng = _rng(seed)
    ys = [forms.HalfIntegralForm(1, 1, 1, 0, 0, 0)]
    while True:
        cand = forms.HalfIntegralForm(
            int(rng.integers(1, 3)), int(rng.integers(1, 3)), int(rng.integers(2, 4)),
            int(rng.integers(-1, 2)), int(rng.integers(-1, 2)), int(rng.integers(-1, 2)),
        )
        if cand.is_positive_definite():
            ys.append(forms.minkowski_reduce(cand).form)
            break
    for y in ys:
        oracle, cosets = brute_force_flag_sum(y, (2.0, 2.0, 0.0), colnorm2=5)
        flag_total = 0.0 + 0.0j
        adj2 = il.adj3(y.gram2())
        for (v, n) in sorted(cosets):
            qv = Fraction(y.value2(v), 2)
            qn = Fraction(il.bilinear3(adj2, n, n), 4)
            flag_total += float(qv) ** -2.0 * float(qn) ** -2.0
        gap = abs(oracle - flag_total) / abs(oracle)
        res.add("matched-coset agreement (Y=%s) <= 1e-12" % (y.key(),), gap <= 1e-12,
                "gap %.3g over %d cosets" % (gap, len(cosets)))
        # the production enumerator must reproduce exactly the brute-force
        # flags within the brute-force ball's guaranteed coverage
        bounds = eis.TruncationSpec(q_bound=2.0, g_bound=2.0)
        spec_flags = {(f.v, f.n) for f in eis.enumerate_flags(y, bounds)}
        brute_flags = {
            (v, n)
            for (v, n) in cosets
            if Fraction(y.value2(v), 2) <= 2 and Fraction(il.bilinear3(adj2, n, n), 4) <= 2
        }
        res.add("enumerate_flags matches brute force at small bounds (Y=%s)" % (y.key(),),
                spec_flags == brute_flags,
                "%d vs %d flags" % (len(spec_flags), len(brute_flags)))
    # exact GL3-invariance through the term bijection
    y = ys[1]
    u = _random_unimodular_bounded(_rng(seed + 1), 2)
    yu = forms.congruence_form(y, u)
    spec0 = eis.TruncationSpec(q_bound=6.0, g_bound=12.0)
    f_y = eis.enumerate_flags(y, spec0)
    f_yu = eis.enumerate_flags(yu, spec0)
    gu = np.array(mx.embed_gl6(u), dtype=object)  # U on v, t(U)^-1 on n
    mapped = {(_canonical_sign(tuple(gu[:3, :3] @ f.v)), _canonical_sign(tuple(gu[3:, 3:] @ f.n)))
              for f in f_yu}
    res.add("GL3-invariance: flag sets biject exactly",
            mapped == {(f.v, f.n) for f in f_y},
            "%d flags" % len(f_y))
    ev_y = eis.selberg_E(y, (2.0, 2.0, 0.0), spec0)
    ev_yu = eis.selberg_E(yu, (2.0, 2.0, 0.0), spec0)
    gap = abs(ev_y.value - ev_yu.value) / abs(ev_y.value)
    res.add("GL3-invariance: values agree", gap <= 1e-12, "gap %.3g" % gap)
    res.add("runtime < 60 s", res.elapsed() < 60.0)
    return res.finish()


def criterion_8(seed=DEFAULT_SEED):
    res = CriterionResult(8, "Epstein zeta and real-analytic bridge")
    z = eis.epstein(np.eye(2), 2.0, 500.0**2)
    ref = 3.01340601984597006177313
    err = abs(z.value - ref)
    res.add("Z(I2,2) within recorded tail estimate",
            err <= z.tail_estimate, "err %.3g vs tail %.3g" % (err, z.tail_estimate))
    res.add("tail estimate <= 1e-4 at radius 500", z.tail_estimate <= 1e-4,
            "%.3g" % z.tail_estimate)
    for s in (2.0, 3.0):
        e = eis.real_analytic_E(1j, s, 500.0**2)
        lhs = sf.complex_zeta(2 * s) * e.value
        rhs = eis.epstein(np.eye(2), s, 500.0**2).value
        gap = abs(lhs - rhs) / abs(rhs)
        res.add("zeta(2s) E_s(i) = Z(I2,s) at s=%g to 1e-8" % s, gap <= 1e-8,
                "gap %.3g" % gap)
    return res.finish()


def criterion_9(seed=DEFAULT_SEED):
    res = CriterionResult(9, "Bessel tail of the real-analytic series")
    for (s, tau, bound) in ((2.3, 0.3 + 1.7j, 9.0e5), (3.0, 1j, 9.0e5)):
        _, _, residual = eis.zeta_Z2_decomposition(s, tau, bound)
        res.add("decomposition residual at (s=%g, tau=%s) <= 1e-8" % (s, tau),
                residual <= 1e-8, "residual %.3g" % residual)
    z5 = eis.zeta_Z2_star(2.0, 0.3 + 5j).value
    z10 = eis.zeta_Z2_star(2.0, 0.3 + 10j).value
    ratio = abs(z10) / abs(z5)
    res.add("exponential decay: |zeta*(t=10)| / |zeta*(t=5)| <= 10 exp(-10 pi)",
            ratio <= 10 * math.exp(-10 * math.pi), "ratio %.3g" % ratio)
    return res.finish()


def criterion_10(seed=DEFAULT_SEED):
    res = CriterionResult(10, "functional-equation group is D12")
    g = fg.generators()
    table = fg.closure([g["w"], g["a"], g["aba"]])
    res.add("closure has 12 elements", len(table.elements) == 12,
            "%d" % len(table.elements))
    aw = g["a"].compose(g["w"])
    awi = table.index_of(aw)
    res.add("order(aw) == 6", table.order_of(awi) == 6)
    bi = table.index_of(g["b"])
    res.add("b in closure", bi is not None)
    conj = table.table[table.table[bi][awi]][bi]
    res.add("b aw b == aw^-1", conj == table.inverse_of(awi))
    ok, witness = fg.certify_dihedral(table)
    res.add("certify_dihedral", ok)
    res.add("runtime < 1 s", res.elapsed() < 1.0)
    return res.finish()


def exhaustive_automorphism_count(t):
    """Oracle: eps_T by a search on a pairwise-reduced basis h of 2T (eps_T =
    eps(h)), independent of the reduction lanes that forms reads eps from: the
    columns c_j of g have h[c_j] = h_jj, so they lie in one ball, their bilinear
    products are the off-diagonal of h, and det g = 1."""
    h, _ = forms._pairwise_reduced(t.gram2())
    ball = forms.short_vectors_gram(h, max(h[0][0], h[1][1], h[2][2]))
    q, v = ball["q"], forms._exact(ball["v"], max(t.t1, t.t2, t.t3))
    gm = np.array(h, dtype=v.dtype)
    c1, c2, c3 = (v[q == h[j][j]] for j in range(3))
    i, j = np.nonzero(c1 @ gm @ c2.T == h[0][1])
    ok = (c1[i] @ gm @ c3.T == h[0][2]) & (c2[j] @ gm @ c3.T == h[1][2])
    det = np.stack(il.cross3(c1[i].T, c2[j].T), axis=1) @ c3.T
    return int(np.count_nonzero(ok & (det == 1)))


def criterion_11(seed=DEFAULT_SEED):
    res = CriterionResult(11, "Koecher-Maass series plumbing")
    ones = series.ones_provider(k=24)
    spec0 = eis.TruncationSpec(q_bound=8.0, g_bound=8.0)
    tw = series.km_twisted(ones, (2.5, 2.5, 13.5), 1, spec0)
    e_i3 = eis.selberg_E(forms.HalfIntegralForm(1, 1, 1, 0, 0, 0), (2.5, 2.5, 13.5), spec0)
    gap_tw = abs(tw.value - e_i3.value / 24.0) / abs(e_i3.value / 24.0)
    res.add(
        "ones, det<=1 twisted == E(I3|.)/24  [known inconsistent expectation]",
        gap_tw <= 1e-12,
        "gap %.3g with %d classes; det <= 1 contains the det-1/2 and det-3/4 classes "
        "of the half-integral cone" % (gap_tw, tw.classes_used),
    )
    cl = series.km_classic(ones, 15.0, 1)
    gap_cl = abs(cl.value - 1.0 / 24.0) * 24.0
    res.add(
        "ones, det<=1 classic == 1/24  [known inconsistent expectation]",
        gap_cl <= 1e-12,
        "gap %.3g with %d classes (same cause)" % (gap_cl, cl.classes_used),
    )
    # class path vs scrambled brute-force automorphism recomputation, det <= 10
    rng = _rng(seed)
    classes = forms.reduced_classes(10)
    s = 7.0
    direct = 0.0
    for t in classes:
        u = _random_unimodular_bounded(rng, 1)
        scr = forms.congruence_form(t, u)
        direct += 1.0 / (exhaustive_automorphism_count(scr) * float(t.det()) ** s)
    km = series.km_classic(ones, s, 10)
    gap = abs(km.value - direct) / abs(direct)
    res.add("class path vs brute-force eps recomputation (det <= 10) <= 1e-12",
            gap <= 1e-12, "gap %.3g over %d classes" % (gap, len(classes)))
    # completeness of the class list against enumerate-reduce-dedupe at det <= 2
    brute = forms.reduce_keys([t.key() for t in forms.enumerate_J(6) if t.det() <= 2])
    listed = {t.key() for t in forms.reduced_classes(2)}
    res.add("class list complete vs enumerate+reduce+dedupe (det <= 2)",
            brute == listed, "%d vs %d" % (len(brute), len(listed)))
    # exact linearity in the coefficient table
    alpha, beta = 2.0 - 1.0j, 0.5 + 0.25j
    det2 = series.det_power_provider(0.5, k=24)
    mixed = series.CoefficientTable(24, lambda red: alpha * 1.0 + beta * float(red.det()) ** 0.5)
    va = series.km_classic(ones, s, 4).value
    vb = series.km_classic(det2, s, 4).value
    vm = series.km_classic(mixed, s, 4).value
    lin_gap = abs(vm - (alpha * va + beta * vb)) / abs(vm)
    res.add("linearity in the table", lin_gap <= 1e-14, "gap %.3g" % lin_gap)
    return res.finish()


def criterion_12(seed=DEFAULT_SEED):
    res = CriterionResult(12, "symplectic completion and left-association")
    rng = _rng(seed)
    ok = 0
    for _ in range(500):
        m = np.array(mx.random_symplectic(rng, max_entry=12, max_factors=8))
        pair = sp.canonical_pair(m[3:, :3].tolist(), m[3:, 3:].tolist())
        m0 = sp.complete_to_symplectic(pair)
        if mx.is_symplectic(m0):
            ok += 1
    res.add("500 random pairs complete to exact symplectic matrices",
            ok == 500, "%d/500" % ok)
    ball = il.unimodular_matrices(2)
    checked = 0
    for i in range(50):
        m = np.array(mx.random_symplectic(rng, max_entry=10, max_factors=6))
        base = sp.canonical_pair(m[3:, :3].tolist(), m[3:, 3:].tolist())
        # full ball on the first pairs, a deterministic stride on the rest
        search = ball if i < 2 else ball[i % 97::97]
        ucd = search @ m[3:]
        moved = (sp.canonical_pairs(ucd[:, :, :3], ucd[:, :, 3:])
                 != np.hstack([base.c, base.d])).any(axis=(1, 2))
        # count up to and including the first translate that moved
        stable = not moved.any()
        checked += len(search) if stable else int(moved.argmax()) + 1
        if not stable:
            break
    res.add("canonical_pair constant on left orbits (entry-bound-2 search)",
            stable,
            "%d orbit translates checked (ball size %d; full ball on 2 pairs, "
            "stride-sampled on 48)" % (checked, len(ball)))
    return res.finish()


def criterion_13(seed=DEFAULT_SEED):
    res = CriterionResult(13, "per-coset kernel surrogate")
    i3 = tuple(tuple(row) for row in il.identity(3))
    z3 = tuple(tuple([0] * 3) for _ in range(3))
    mixed_c = ((1, 0, 0), (0, 0, 0), (0, 0, 0))
    mixed_d = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    pairs = [
        sp.CoprimePair(c=z3, d=i3),
        sp.CoprimePair(c=i3, d=z3),
        sp.canonical_pair(mixed_c, mixed_d),
    ]
    # evaluate each slashed coset term at the point whose image under the
    # completed matrix is a well-conditioned W (so M0 Z = W exactly); the
    # round trip through the completion exercises the coset machinery
    for pair, w_point in zip(pairs, _fixed_lipschitz_points()):
        m0 = sp.complete_to_symplectic(pair)
        m0_inv = _symplectic_inverse(m0)
        z, _ = mx.mobius(m0_inv, w_point)
        zp, jv = mx.mobius(m0, z)
        roundtrip = float(np.max(np.abs(zp - w_point)))
        rep = lip.lipschitz_report((2.0, 4.0, 5.0), zp, 8, 12, tail_correction=True)
        res.add(
            "slashed two-sided gap <= 1e-3 at pair C=%s" % (pair.c,),
            rep.relative_gap <= 1e-3 and roundtrip < 1e-10,
            "gap %.3g, coset round-trip defect %.2g, min Im eigenvalue %.3g"
            % (rep.relative_gap, roundtrip, float(np.min(np.linalg.eigvalsh(zp.imag)))),
        )
    return res.finish()


def _symplectic_inverse(m):
    """Exact inverse of a symplectic integer matrix: J^-1 t(M) J = -J t(M) J."""
    return -mx.SYMPLECTIC_J @ np.array(m, dtype=object).T @ mx.SYMPLECTIC_J


ALL_CRITERIA = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11, criterion_12, criterion_13,
]

KNOWN_DEFECT_CLAUSES = {
    (6, "reduced_classes(1) == {I3}  [known inconsistent expectation]"),
    (11, "ones, det<=1 twisted == E(I3|.)/24  [known inconsistent expectation]"),
    (11, "ones, det<=1 classic == 1/24  [known inconsistent expectation]"),
}


def run_all(seed=DEFAULT_SEED):
    return [f(seed) for f in ALL_CRITERIA]
