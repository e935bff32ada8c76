"""Seeded inputs, task lists and oracle checks of the three benchmark workloads.

Nothing from siegel3 is imported at module level: run.py makes inputs and
their digest without paying the import cost that a worker measures as set-up.
Every input comes from this file's own generators, never from
``siegel3.matrices.random_*``, so a change to the library cannot change what
the benchmark feeds it.

A task is one answer checked against its oracle. Only answers that do not
depend on the implementation are checked: counts and exact representatives,
exact symplectic identities, relative gaps within stated tolerances, and
values recorded at the commit that defined the benchmark.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

WORKLOADS = ("lattice_identity", "class_census", "coset_kernel")

# Set-up ends when these are imported (numpy and scipy come with them).
MODULES = {
    "lattice_identity": ("siegel3.branch", "siegel3.specfun", "siegel3.forms", "siegel3.lipschitz"),
    "class_census": ("siegel3.forms", "siegel3.series"),
    "coset_kernel": ("siegel3.forms", "siegel3.eisenstein", "siegel3.matrices", "siegel3.symplectic"),
}

# Truncations and tolerances are part of each workload's definition. The
# smoke size only proves that every path and metric runs.
SIZES = {
    "full": {
        "lattice_identity": {
            "int_trunc": [8, 12], "int_tol": 1e-3,
            "nonint_trunc": [6, 11], "nonint_tol": 1e-2,
            "cone_points": 10, "inversion_samples": 300,
        },
        "class_census": {"det_bound": "20", "classes": 420, "scrambles": 200, "km_s": 7.0},
        "coset_kernel": {
            "symplectic": 200, "orbit_bases": 20, "orbit_translates": 50, "pairs": 1096,
            "kernel_det": "2", "kernel_flags": 12.0, "poincare_classes": 2,
        },
    },
    "smoke": {
        "lattice_identity": {
            "int_trunc": [3, 6], "int_tol": 5e-2,
            "nonint_trunc": [3, 6], "nonint_tol": 0.2,
            "cone_points": 2, "inversion_samples": 10,
        },
        "class_census": {"det_bound": "2", "classes": 9, "scrambles": 20, "km_s": 7.0},
        "coset_kernel": {
            "symplectic": 10, "orbit_bases": 2, "orbit_translates": 5, "pairs": 1096,
            "kernel_det": "1/2", "kernel_flags": 6.0, "poincare_classes": 1,
        },
    },
}

INT_EXPONENTS = (2.0, 4.0, 5.0)
NONINT_EXPONENTS = ((2.5, 4.0, 5.5), (2.0 + 0.5j, 4.0, 5.0 - 0.5j))
CONE_EXPONENTS = ((1.5, 1.0, 2.0), (2.0, 1.5, 3.0))
CONE_TOL = 1e-8
INVERSION_TOL = 1e-10
KM_TOL = 1e-12
KERNEL_TOL = 1e-10
KERNEL_WEIGHT = 30
KERNEL_EXPONENTS = (2.0, 4.0, 5.0)

# Fixed identity point X_ref (criterion 3's second point, in sixteenths):
# the two gap metrics are read here, so they do not move with the seed.
REF_X16 = [4, 2, 0, -4, 0, 2]

# Orders of the finite subgroups of SL3(Z): every automorphism count is one.
SL3_GROUP_ORDERS = {1, 2, 3, 4, 6, 8, 12, 24}

REFERENCES = Path(__file__).with_name("references.json")


# --- exact integer helpers (the oracle side owns its arithmetic) -----------

def mat_mul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def transpose(a):
    return [list(row) for row in zip(*a)]


def det3(a):
    return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))


def inverse_unimodular(u):
    d = det3(u)
    cof = [[(u[(j + 1) % 3][(i + 1) % 3] * u[(j + 2) % 3][(i + 2) % 3]
             - u[(j + 1) % 3][(i + 2) % 3] * u[(j + 2) % 3][(i + 1) % 3]) for j in range(3)]
           for i in range(3)]
    return [[d * x for x in row] for row in cof]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def blocks6(a, b, c, d):
    return [list(a[i]) + list(b[i]) for i in range(3)] + [list(c[i]) + list(d[i]) for i in range(3)]


J6 = blocks6([[0] * 3] * 3, identity(3), [[-x for x in row] for row in identity(3)], [[0] * 3] * 3)


def is_symplectic(m):
    return mat_mul(transpose(m), mat_mul(J6, m)) == J6


def gram2(key):
    t1, t2, t3, b12, b13, b23 = key
    return [[2 * t1, b12, b13], [b12, 2 * t2, b23], [b13, b23, 2 * t3]]


def congruence_key(key, u):
    """Key of T[U] = U^T T U on the doubled Gram matrix."""
    g = mat_mul(transpose(u), mat_mul(gram2(key), u))
    return (g[0][0] // 2, g[1][1] // 2, g[2][2] // 2, g[0][1], g[0][2], g[1][2])


def form_key(f):
    return (f.t1, f.t2, f.t3, f.b12, f.b13, f.b23)


def rel_gap(a, b):
    a, b = complex(a), complex(b)
    if not (cmath.isfinite(a) and cmath.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def value_of(result):
    """The number a library call answered, whichever record shape carries it."""
    if isinstance(result, tuple):
        return result[0]
    if isinstance(result, dict):
        return result["value"]
    return getattr(result, "value", result)


# --- seeded generators ------------------------------------------------------

def _dyadic_x16(rng):
    """Upper entries of a symmetric X with entries k/16 in [-1/2, 1/2]."""
    return [int(k) for k in rng.integers(-8, 9, size=6)]


def siegel_point(x16):
    x11, x12, x13, x22, x23, x33 = (k / 16.0 for k in x16)
    x = np.array([[x11, x12, x13], [x12, x22, x23], [x13, x23, x33]])
    return x + 1j * np.eye(3)


def _general_point(rng, min_im):
    g = rng.standard_normal((3, 3))
    y = g @ g.T + min_im * np.eye(3)
    x = rng.random((3, 3)) - 0.5
    x = 0.5 * (x + x.T)
    return [[[float(x[i, j]), float(y[i, j])] for j in range(3)] for i in range(3)]


def complex_matrix(pairs):
    return np.array([[complex(re, im) for re, im in row] for row in pairs])


def _unimodular_box(rng, bound):
    """Uniform over 3x3 integer matrices with entries in [-bound, bound], det +-1."""
    while True:
        u = rng.integers(-bound, bound + 1, size=(3, 3)).tolist()
        if det3(u) in (1, -1):
            return u


def _shear_unimodular(rng):
    u = identity(3)
    for _ in range(int(rng.integers(1, 4))):
        i, j = (int(k) for k in rng.permutation(3)[:2])
        e = identity(3)
        e[i][j] = int(rng.integers(-1, 2))
        u = mat_mul(u, e)
    return u


def _symplectic(rng, max_entry, max_factors):
    """Product of translations, GL3 embeddings and the inversion, entries bounded."""
    zero = [[0] * 3 for _ in range(3)]
    i3 = identity(3)
    while True:
        m = identity(6)
        for _ in range(int(rng.integers(1, max_factors + 1))):
            kind = int(rng.integers(0, 3))
            if kind == 0:
                s = rng.integers(-1, 2, size=(3, 3))
                s = np.triu(s) + np.triu(s, 1).T
                f = blocks6(i3, s.tolist(), zero, i3)
            elif kind == 1:
                u = _shear_unimodular(rng)
                f = blocks6(u, zero, zero, transpose(inverse_unimodular(u)))
            else:
                f = blocks6(zero, [[-x for x in row] for row in i3], i3, zero)
            m = mat_mul(m, f)
        if max(abs(x) for row in m for x in row) <= max_entry:
            return m


def bottom_blocks(m):
    return [row[:3] for row in m[3:]], [row[3:] for row in m[3:]]


def make_inputs(workload, seed, size):
    """Every input of one workload, as JSON data, from the seed alone."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    sz = SIZES[size][workload]
    if workload == "lattice_identity":
        return {
            "ref_x16": REF_X16,
            "int_x16": _dyadic_x16(rng),
            "cone": [_general_point(rng, 1.0) for _ in range(sz["cone_points"])],
            "inversion": [
                {"z": _general_point(rng, 0.5),
                 "exponents": [[float(a), float(b)] for a, b in
                               zip(rng.uniform(-3, 3, 3), rng.uniform(-3, 3, 3))]}
                for _ in range(sz["inversion_samples"])
            ],
        }
    if workload == "class_census":
        return {
            "scrambles": [
                {"class_index": int(rng.integers(0, sz["classes"])), "u": _unimodular_box(rng, 3)}
                for _ in range(sz["scrambles"])
            ],
        }
    refs = load_references()
    orbits = []
    for _ in range(sz["orbit_bases"]):
        c, d = bottom_blocks(_symplectic(rng, 10, 6))
        translates = []
        for _ in range(sz["orbit_translates"]):
            u = _unimodular_box(rng, 2)
            translates.append([mat_mul(u, c), mat_mul(u, d)])
        orbits.append({"c": c, "d": d, "translates": translates})
    return {
        "symplectic": [_symplectic(rng, 12, 8) for _ in range(sz["symplectic"])],
        "orbits": orbits,
        "panel_index": int(rng.integers(0, len(refs["panel_x16"]))),
        "poincare_class_index": [
            int(k) for k in rng.permutation(len(refs["poincare"]))[: sz["poincare_classes"]]],
    }


def digest(inputs):
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)


def class_digest(pairs):
    """Digest of the sorted (key, eps) list of a class census."""
    blob = json.dumps(sorted([list(k), e] for k, e in pairs), separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# --- task bookkeeping -------------------------------------------------------

class Tally:
    """Counts tasks and failures.

    A task fails on an exception, a non-finite value or a failed check, and
    the run goes on. ``on_task`` is told each task id before the task runs.
    """

    def __init__(self, on_task=None):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.gaps = {}
        self.on_task = on_task

    def check(self, name, task):
        self.attempted += 1
        if self.on_task is not None:
            self.on_task("%s#%d" % (name, self.attempted))
        try:
            ok, detail = task()
        except Exception as exc:  # a raising library call is a failed task
            ok, detail = False, "%s: %s" % (type(exc).__name__, exc)
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append("%s: %s" % (name, detail))
        return ok

    def within(self, name, gap, tol):
        """Check a relative gap; under a ``name`` the worst gap is kept as a metric."""
        if name:
            self.gaps[name] = max(self.gaps.get(name, 0.0), min(gap, 2.0))
        return gap <= tol, "gap %.3g, tolerance %g" % (gap, tol)


# --- workloads --------------------------------------------------------------

def run_lattice_identity(inputs, sz, tally):
    from siegel3 import branch, lipschitz, specfun

    def identity(x16, exponents, trunc, tail, tol, gap_name):
        z = siegel_point(x16)
        rep = lipschitz.lipschitz_report(exponents, z, trunc[0], trunc[1], tail_correction=tail)
        return tally.within(gap_name, rel_gap(rep.lhs, rep.rhs), tol)

    ref = inputs["ref_x16"]
    tally.check("identity_int_ref", lambda: identity(
        ref, INT_EXPONENTS, sz["int_trunc"], True, sz["int_tol"], "identity_gap_int"))
    for e in NONINT_EXPONENTS:
        tally.check("identity_nonint_ref", lambda e=e: identity(
            ref, e, sz["nonint_trunc"], False, sz["nonint_tol"], "identity_gap_nonint"))
    tally.check("identity_int_seeded", lambda: identity(
        inputs["int_x16"], INT_EXPONENTS, sz["int_trunc"], True, sz["int_tol"], None))
    for z in inputs["cone"]:
        for e in CONE_EXPONENTS:
            tally.check("cone_integral", lambda z=z, e=e: tally.within(
                None, specfun.cone_integral_gap(e, complex_matrix(z)), CONE_TOL))
    for sample in inputs["inversion"]:
        e = tuple(complex(re, im) for re, im in sample["exponents"])
        tally.check("power_inversion", lambda z=sample["z"], e=e: tally.within(
            None, branch.power_inversion_gap(e, complex_matrix(z)), INVERSION_TOL))


def run_class_census(inputs, sz, tally):
    from siegel3 import forms, series

    refs = load_references()
    bound = Fraction(sz["det_bound"])
    classes = []
    eps = {}

    def census():
        classes[:] = forms.reduced_classes(bound)
        return len(classes) == sz["classes"], "%d classes, expected %d" % (len(classes), sz["classes"])

    tally.check("reduced_classes", census)
    for t in classes:
        def automorphisms(t=t):
            eps[form_key(t)] = forms.automorphism_count(t)
            return eps[form_key(t)] in SL3_GROUP_ORDERS, "eps %r" % eps[form_key(t)]
        tally.check("automorphism_count", automorphisms)
    tally.check("class_list_exact", lambda: (
        class_digest(eps.items()) == refs["class_digest"][sz["det_bound"]],
        "class list or automorphism counts differ from the recorded census"))

    def km():
        value = value_of(series.km_classic(series.ones_provider(k=24), sz["km_s"], bound))
        direct = math.fsum(
            1.0 / (eps[form_key(t)] * float(t.det()) ** sz["km_s"]) for t in classes)
        return tally.within(None, rel_gap(value, direct), KM_TOL)

    tally.check("km_classic", km)
    for s in inputs["scrambles"]:
        def reduce(s=s):
            rep = form_key(classes[s["class_index"]])
            scrambled = forms.HalfIntegralForm(*congruence_key(rep, s["u"]))
            red = forms.minkowski_reduce(scrambled)
            u = [list(row) for row in red.reducer]
            ok = (form_key(red.form) == rep
                  and abs(det3(u)) == 1
                  and congruence_key(form_key(scrambled), u) == rep
                  and forms.automorphism_count(scrambled) == eps[rep])
            return ok, "scramble of %s reduced to %s" % (rep, form_key(red.form))
        tally.check("minkowski_reduce", reduce)


def run_coset_kernel(inputs, sz, tally):
    from siegel3 import eisenstein, forms, symplectic

    refs = load_references()

    def complete(m):
        c, d = bottom_blocks(m)
        pair = symplectic.canonical_pair(c, d)
        pc, pd = [list(r) for r in pair.c], [list(r) for r in pair.d]
        m0 = symplectic.complete_to_symplectic(pair)
        # (C', D') spans the same primitive Lagrangian as (C, D) iff C' D^T = D' C^T
        same = mat_mul(pc, transpose(d)) == mat_mul(pd, transpose(c))
        ok = same and is_symplectic(m0) and bottom_blocks(m0) == (pc, pd)
        return ok, "completion of C=%s D=%s" % (c, d)

    for m in inputs["symplectic"]:
        tally.check("canonical_pair_complete", lambda m=m: complete(m))

    def orbit(o):
        base = symplectic.canonical_pair(o["c"], o["d"])
        moved = sum(symplectic.canonical_pair(uc, ud) != base for uc, ud in o["translates"])
        return moved == 0, "%d of %d translates changed the canonical pair" % (
            moved, len(o["translates"]))

    for o in inputs["orbits"]:
        tally.check("canonical_pair_orbit", lambda o=o: orbit(o))

    def pairs():
        n = len(symplectic.enumerate_pairs(1))
        return n == sz["pairs"], "%d pairs, expected %d" % (n, sz["pairs"])

    tally.check("enumerate_pairs", pairs)
    k = inputs["panel_index"]
    z = siegel_point(refs["panel_x16"][k])

    def kernel():
        spec = eisenstein.TruncationSpec(sz["kernel_flags"], sz["kernel_flags"])
        out = symplectic.kernel_trunc(KERNEL_WEIGHT, KERNEL_EXPONENTS, z,
                                      Fraction(sz["kernel_det"]), spec, 1)
        ref = complex(*refs["kernel"][sz["kernel_det"]][k])
        return tally.within(None, rel_gap(value_of(out), ref), KERNEL_TOL)

    tally.check("kernel_trunc", kernel)
    for ci in inputs["poincare_class_index"]:
        def poincare(ci=ci):
            entry = refs["poincare"][ci]
            t = forms.HalfIntegralForm(*entry["key"])
            value = value_of(symplectic.poincare_trunc(KERNEL_WEIGHT, t, z, 1))
            return tally.within(None, rel_gap(value, complex(*entry["values"][k])), KERNEL_TOL)
        tally.check("poincare_trunc", poincare)


RUNNERS = {
    "lattice_identity": run_lattice_identity,
    "class_census": run_class_census,
    "coset_kernel": run_coset_kernel,
}
