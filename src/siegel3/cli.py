"""Command-line surface: every evaluator and verification harness, JSON out.

Exit codes: 0 success, 2 verification failure (a gap above tolerance or a
failed selftest clause), 1 usage or input error.  Complex numbers serialize
as {"re": ..., "im": ...}; floats use the shortest lossless representation.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from dataclasses import asdict, is_dataclass
from fractions import Fraction

import numpy as np

from . import acceptance, eisenstein as eis, fegroup as fg, forms
from . import lipschitz as lip, series, specfun as sf, symplectic as sp
from . import branch
from .errors import Siegel3Error

USAGE_EXIT = 1
VERIFY_FAIL_EXIT = 2


class Parser(argparse.ArgumentParser):
    def error(self, message):
        print("usage error: %s" % message, file=sys.stderr)
        print(self.format_usage().strip(), file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def jsonify(obj):
    if isinstance(obj, complex):
        return {"re": jsonify(float(obj.real)), "im": jsonify(float(obj.imag))}
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return jsonify(obj.item())
    if is_dataclass(obj) and not isinstance(obj, type):
        return jsonify(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(x) for x in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def emit(payload):
    print(json.dumps(jsonify(payload), sort_keys=True, allow_nan=False))


# --- argument converters: bad input becomes a usage error at parse time ------

def _arg(convert, ok, rule):
    """argparse type that converts the text and requires ``ok`` of the value."""
    def parse(text):
        try:
            val = convert(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError("%r is not %s" % (text, rule)) from None
        if not ok(val):
            raise argparse.ArgumentTypeError("%r is not %s" % (text, rule))
        return val
    return parse


def _int_at_least(lo):
    return _arg(int, lambda x: x >= lo, "an integer >= %d" % lo)


_integer = _arg(int, lambda x: True, "an integer")
_real = _arg(float, math.isfinite, "a finite number")
_positive = _arg(float, lambda x: math.isfinite(x) and x > 0, "a finite number > 0")
_complex = _arg(lambda t: complex(t.replace(" ", "")), cmath.isfinite,
                "a finite complex number")
_det_bound = _arg(Fraction, lambda x: x > 0, "a rational number > 0")


def _entries(text, item, counts, what):
    """Comma-separated ``item`` values; their number must be one of ``counts``."""
    vals = [item(x) for x in text.split(",")]
    if len(vals) not in counts:
        raise argparse.ArgumentTypeError(
            "%s needs %s comma-separated entries" % (what, " or ".join(map(str, counts))))
    return vals


def _form(text):
    return forms.HalfIntegralForm(*_entries(text, _integer, (6,), "form t1,t2,t3,b12,b13,b23"))


def _mat3(text):
    vals = _entries(text, _integer, (9,), "a 3x3 matrix")
    return tuple(tuple(vals[3 * i:3 * i + 3]) for i in range(3))


def _z(text):
    tau1, z1, z2, tau2, z3, tau3 = _entries(text, _complex, (6,), "z tau1,z1,z2,tau2,z3,tau3")
    return np.array([[tau1, z1, z2], [z1, tau2, z3], [z2, z3, tau3]])


def _y(text):
    v = _entries(text, _real, (3, 6), "y")
    if len(v) == 3:
        return np.array([[v[0], v[1]], [v[1], v[2]]])
    return np.array([[v[0], v[1], v[2]], [v[1], v[3], v[4]], [v[2], v[4], v[5]]])


def _coeff_table(spec_text, k):
    if spec_text == "ones":
        return series.ones_provider(k=k)
    if spec_text.startswith("det_power:"):
        return series.det_power_provider(float(spec_text.split(":", 1)[1]), k=k)
    return series.load_coefficients(spec_text)


CLASS_FIELDS = ("t1", "t2", "t3", "b12", "b13", "b23", "det_num", "det_den", "eps")


def class_rows(det_bound):
    """One row of CLASS_FIELDS per reduced class with det T <= det_bound."""
    rows = []
    for f in forms.reduced_classes(det_bound):
        d = f.det()
        rows.append(dict(zip(CLASS_FIELDS, f.key() + (
            d.numerator, d.denominator, forms.automorphism_count(f)))))
    return rows


def build_parser():
    p = Parser(prog="siegel3", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        sp_ = sub.add_parser(name, **kw)
        sp_.add_argument("--threads", type=_int_at_least(1), default=1,
                         help="accepted for interface stability; results are "
                              "bitwise identical for any positive value")
        return sp_

    def exponents(c, defaults=(None, None, None)):
        for name, default in zip(("--s", "--w", "--u"), defaults):
            c.add_argument(name, type=_complex, required=default is None, default=default)

    c = add("eval-power", help="power function p_{s,w,u}(Z)")
    exponents(c)
    c.add_argument("--z", type=_z, required=True, help="tau1,z1,z2,tau2,z3,tau3 (complex each)")

    c = add("eval-gamma3", help="closed-form degree-3 gamma factor")
    exponents(c)

    c = add("verify-lemma-int", help="cone integral vs closed form on random points")
    c.add_argument("--samples", type=_int_at_least(1), default=10)
    c.add_argument("--seed", type=int, default=42)
    c.add_argument("--tol", type=_positive, default=1e-8)

    c = add("verify-claim1", help="power inversion identity on random points")
    c.add_argument("--samples", type=_int_at_least(1), default=1000)
    c.add_argument("--seed", type=int, default=42)
    c.add_argument("--tol", type=_positive, default=1e-10)

    c = add("verify-lipschitz", help="two-sided lattice summation comparison")
    c.add_argument("--tol", type=_positive, default=1e-3)
    c.add_argument("--max-abs", type=_int_at_least(0), default=8)
    c.add_argument("--trace-bound", type=_int_at_least(3), default=12)
    exponents(c, ("2", "4", "5"))
    c.add_argument("--z", type=_z, default=None)
    c.add_argument("--tail-correction", action="store_true",
                   help="exact f-direction sum (integer u, 2 <= u <= 16)")

    c = add("classical-lipschitz", help="one-variable summation formula")
    c.add_argument("--tol", type=_positive, default=1e-6)
    c.add_argument("--tau", type=_complex, required=True)
    c.add_argument("--s", type=_complex, default="2")
    c.add_argument("--bound", type=_int_at_least(1), default=4000)

    c = add("reduce", help="canonical Minkowski reduction of a form")
    c.add_argument("--form", type=_form, required=True)

    c = add("classes", help="reduced class representatives up to a determinant")
    c.add_argument("--det-bound", type=_det_bound, default="10")
    c.add_argument("--format", choices=("json", "csv"), default="json")

    c = add("eps", help="automorphism count of a form")
    c.add_argument("--form", type=_form, required=True)

    c = add("eval-eisenstein", help="truncated three-variable flag series")
    c.add_argument("--form", type=_form, required=True)
    exponents(c)
    c.add_argument("--bound", type=_positive, default=30.0)
    c.add_argument("--g-bound", type=_positive, default=None)

    c = add("eval-epstein", help="truncated Epstein zeta")
    c.add_argument("--y", type=_y, required=True,
                   help="3 entries y11,y12,y22 (2x2) or 6 entries upper triangle (3x3)")
    c.add_argument("--s", type=_complex, required=True)
    c.add_argument("--bound", type=_positive, default=250000.0)

    c = add("verify-zetastar", help="Bessel tail vs direct decomposition")
    c.add_argument("--tol", type=_positive, default=1e-8)
    c.add_argument("--s", type=_complex, default="2.3")
    c.add_argument("--tau", type=_complex, default="0.3+1.7j")
    c.add_argument("--bound", type=_positive, default=9.0e5)

    c = add("fe-group", help="closure and dihedral certification of the symmetry maps")
    c.add_argument("--dot", default=None, help="write a DOT Cayley diagram here")

    c = add("eval-km", help="classical Koecher-Maass truncation")
    c.add_argument("--k", type=int, default=24)
    c.add_argument("--coeffs", default="ones")
    c.add_argument("--s", type=_complex, required=True)
    c.add_argument("--det-bound", type=_det_bound, default="10")

    c = add("eval-km-twisted", help="twisted Koecher-Maass truncation")
    c.add_argument("--k", type=int, default=24)
    c.add_argument("--coeffs", default="ones")
    exponents(c)
    c.add_argument("--det-bound", type=_det_bound, default="4")
    c.add_argument("--bound", type=_positive, default=20.0)

    c = add("enum-pairs", help="canonical coprime symmetric pairs in a box")
    c.add_argument("--max-abs", type=_int_at_least(1), default=1)
    c.add_argument("--list", action="store_true", help="include the pairs themselves")

    c = add("complete-pair", help="complete (C, D) to a symplectic matrix")
    c.add_argument("--c", type=_mat3, required=True, help="9 integers, row major")
    c.add_argument("--d", type=_mat3, required=True, help="9 integers, row major")

    c = add("eval-poincare", help="truncated Poincare series")
    c.add_argument("--k", type=int, default=24)
    c.add_argument("--form", type=_form, required=True)
    c.add_argument("--z", type=_z, required=True)
    c.add_argument("--max-abs", type=_int_at_least(1), default=1)

    c = add("eval-kernel", help="truncated kernel via the Poincare representation")
    c.add_argument("--k", type=int, default=24)
    exponents(c)
    c.add_argument("--z", type=_z, required=True)
    c.add_argument("--det-bound", type=_det_bound, default="2")
    c.add_argument("--bound", type=_positive, default=12.0)
    c.add_argument("--max-abs", type=_int_at_least(1), default=1)

    add("selftest", help="run the acceptance criteria").add_argument("--seed", type=int, default=42)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (Siegel3Error, ValueError, OSError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return USAGE_EXIT


def _dispatch(args):
    cmd = args.command
    # commands that declare --s/--w/--u take them as one exponent triple
    e = (args.s, args.w, args.u) if "u" in vars(args) else None

    if cmd == "eval-power":
        emit({"value": branch.power_p(e, args.z)})
        return 0

    if cmd == "eval-gamma3":
        emit({"value": sf.gamma3(*e)})
        return 0

    if cmd == "verify-lemma-int":
        gaps = acceptance.cone_integral_gaps(args.samples, args.seed)
        worst = max(gaps)
        emit({"samples": len(gaps), "worst_gap": worst, "tol": args.tol,
              "pass": worst <= args.tol})
        return 0 if worst <= args.tol else VERIFY_FAIL_EXIT

    if cmd == "verify-claim1":
        worst = acceptance.inversion_worst_gap(args.samples, args.seed)
        emit({"samples": args.samples, "worst_gap": worst, "tol": args.tol,
              "pass": worst <= args.tol})
        return 0 if worst <= args.tol else VERIFY_FAIL_EXIT

    if cmd == "verify-lipschitz":
        z = args.z if args.z is not None else np.array(
            [[0.25, 0.125, 0.0], [0.125, -0.25, 0.0], [0.0, 0.0, 0.125]]
        ) + 1j * np.eye(3)
        rep = lip.lipschitz_report(e, z, args.max_abs, args.trace_bound,
                                   tail_correction=args.tail_correction)
        emit(rep)
        return 0 if rep.relative_gap <= args.tol else VERIFY_FAIL_EXIT

    if cmd == "classical-lipschitz":
        rep, closed = lip.classical_lipschitz(args.tau, args.s, args.bound)
        payload = jsonify(rep)
        payload["closed_form"] = jsonify(closed) if closed is not None else None
        emit(payload)
        return 0 if rep.relative_gap <= args.tol else VERIFY_FAIL_EXIT

    if cmd == "reduce":
        red = forms.minkowski_reduce(args.form)
        emit({"form": list(red.form.key()), "reducer": [list(r) for r in red.reducer],
              "det": red.form.det()})
        return 0

    if cmd == "classes":
        rows = class_rows(args.det_bound)
        if args.format == "json":
            emit({"count": len(rows), "classes": rows})
        else:
            print(",".join(CLASS_FIELDS))
            for row in rows:
                print(",".join(str(row[k]) for k in CLASS_FIELDS))
        return 0

    if cmd == "eps":
        emit({"eps": forms.automorphism_count(args.form)})
        return 0

    if cmd == "eval-eisenstein":
        spec0 = eis.TruncationSpec(args.bound, args.g_bound or args.bound)
        emit(eis.selberg_E(args.form, e, spec0))
        return 0

    if cmd == "eval-epstein":
        emit(eis.epstein(args.y, args.s, args.bound))
        return 0

    if cmd == "verify-zetastar":
        direct, recon, residual = eis.zeta_Z2_decomposition(args.s, args.tau, args.bound)
        emit({"direct": direct.value, "reconstructed": recon, "residual": residual,
              "terms": direct.terms_used, "tol": args.tol, "pass": residual <= args.tol})
        return 0 if residual <= args.tol else VERIFY_FAIL_EXIT

    if cmd == "fe-group":
        g = fg.generators()
        table = fg.closure([g["w"], g["a"], g["aba"]])
        ok, witness = fg.certify_dihedral(table)
        aw = g["a"].compose(g["w"])
        payload = {
            "order": len(table.elements),
            "dihedral": ok,
            "order_of_aw": table.order_of(table.index_of(aw)),
            "witness": [witness[0].label, witness[1].label] if ok else None,
            "elements": [m.label or "id" for m in table.elements],
            "cayley": table.table,
        }
        if args.dot:
            _write_dot(table, args.dot)
            payload["dot"] = args.dot
        emit(payload)
        return 0

    if cmd == "eval-km":
        table = _coeff_table(args.coeffs, args.k)
        emit(series.km_classic(table, args.s, args.det_bound))
        return 0

    if cmd == "eval-km-twisted":
        table = _coeff_table(args.coeffs, args.k)
        emit(series.km_twisted(table, e, args.det_bound,
                               eis.TruncationSpec(args.bound, args.bound)))
        return 0

    if cmd == "enum-pairs":
        pairs = sp.enumerate_pairs(args.max_abs)
        payload = {"count": len(pairs), "max_abs": args.max_abs}
        if args.list:
            payload["pairs"] = [{"c": [r[:3] for r in h], "d": [r[3:] for r in h]}
                                for h in pairs.tolist()]
        emit(payload)
        return 0

    if cmd == "complete-pair":
        pair = sp.canonical_pair(args.c, args.d)
        m = sp.complete_to_symplectic(pair)
        emit({"canonical_c": [list(r) for r in pair.c],
              "canonical_d": [list(r) for r in pair.d],
              "symplectic": [list(r) for r in m]})
        return 0

    if cmd == "eval-poincare":
        val, n = sp.poincare_trunc(args.k, args.form, args.z, args.max_abs)
        emit({"value": val, "terms_used": n})
        return 0

    if cmd == "eval-kernel":
        emit(sp.kernel_trunc(args.k, e, args.z, args.det_bound,
                             eis.TruncationSpec(args.bound, args.bound), args.max_abs))
        return 0

    if cmd == "selftest":
        results = acceptance.run_all(seed=args.seed)
        # wall-clock readings stay out of the payload: selftest output is
        # bitwise reproducible for a fixed seed, whatever the thread count
        payload = {
            "seed": args.seed,
            "criteria": [{"id": r.cid, "title": r.title, "pass": r.passed, "clauses": r.clauses}
                         for r in results],
            "all_pass": all(r.passed for r in results),
            "known_defect_clauses": sorted("criterion %d: %s" % pair
                                           for pair in acceptance.KNOWN_DEFECT_CLAUSES),
        }
        emit(payload)
        return 0 if payload["all_pass"] else VERIFY_FAIL_EXIT

    raise AssertionError("unhandled command %s" % cmd)


def _write_dot(table, path):
    lines = ["digraph cayley {"]
    for i, m in enumerate(table.elements):
        lines.append('  n%d [label="%s"];' % (i, m.label or "id"))
    gens = fg.generators()
    for gname in ("w", "a", "aba"):
        gi = table.index_of(gens[gname])
        for i in range(len(table.elements)):
            lines.append('  n%d -> n%d [label="%s"];' % (i, table.table[gi][i], gname))
    lines.append("}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    raise SystemExit(main())
