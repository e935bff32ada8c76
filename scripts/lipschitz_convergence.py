#!/usr/bin/env python3
"""Truncation study for the two-sided lattice summation identity.

Sweeps the slow-side box radius and the fast-side trace bound in lockstep and
records the relative gap, with and without the exact f-direction sum
(``tail_correction=True``: the (3,3) shift is summed over all integers).

Usage:
    python scripts/lipschitz_convergence.py --out lipschitz_gaps.csv
    python scripts/lipschitz_convergence.py --s 2+0.5j --u 5-0.5j --max-abs 3 4 --trace-bound 9 10
"""

import argparse
import csv
import sys
import time

import numpy as np

from siegel3 import lipschitz as lip


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    # complex exponents (e.g. --s 2+0.5j); a u off the integers 2..16 has no exact f-sum
    ap.add_argument("--s", type=complex, default=2.0)
    ap.add_argument("--w", type=complex, default=4.0)
    ap.add_argument("--u", type=complex, default=5.0)
    ap.add_argument("--max-abs", type=int, nargs="+", default=[3, 4, 5, 6, 7, 8])
    ap.add_argument("--trace-bound", type=int, nargs="+",
                    default=[9, 10, 10, 11, 11, 12])
    ap.add_argument("--out", default="-")
    args = ap.parse_args()

    x0 = np.array([[0.25, 0.125, 0.0], [0.125, -0.25, 0.0], [0.0, 0.0, 0.125]])
    z = x0 + 1j * np.eye(3)
    e = (args.s, args.w, args.u)

    rows = []
    for ma, tb in zip(args.max_abs, args.trace_bound):
        t0 = time.time()
        bare = lip.lipschitz_report(e, z, ma, tb)
        corrected = lip.lipschitz_report(e, z, ma, tb, tail_correction=True)
        rows.append({
            "max_abs": ma,
            "trace_bound": tb,
            "gap_bare": bare.relative_gap,
            "gap_corrected": corrected.relative_gap,
            "lhs_terms": bare.lhs_terms,
            "rhs_terms": bare.rhs_terms,
            "tail_estimate": bare.lhs_tail_estimate,
            "seconds": round(time.time() - t0, 2),
        })
        print("(%d, %d): bare %.3g, corrected %.3g" % (
            ma, tb, bare.relative_gap, corrected.relative_gap))

    out = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    writer = csv.DictWriter(out, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    if out is not sys.stdout:
        out.close()
        print("wrote", args.out)


if __name__ == "__main__":
    main()
