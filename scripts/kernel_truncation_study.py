#!/usr/bin/env python3
"""Truncated kernel values across class and flag truncation levels.

The kernel sum over classes converges slowly in the determinant bound, by
design: inside the admissible region the per-class weight decays only
polynomially in det T, and outside it (the library then prints a warning)
the sum need not converge at all.  This script tabulates the value and its
change as the class bound grows.

Usage:
    python scripts/kernel_truncation_study.py --k 24
"""

import argparse

import numpy as np

from siegel3 import eisenstein as eis, symplectic as sp


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=30)
    ap.add_argument("--s", type=float, default=2.0)
    ap.add_argument("--w", type=float, default=4.0)
    ap.add_argument("--u", type=float, default=5.0)
    ap.add_argument("--det-bounds", type=str, nargs="+", default=["1", "2", "3", "4"])
    ap.add_argument("--flag-bound", type=float, default=12.0)
    ap.add_argument("--max-abs", type=int, default=1)
    args = ap.parse_args()

    z = np.array([[0.2, 0.1, 0.0], [0.1, -0.1, 0.05], [0.0, 0.05, 0.3]]) + 1.1j * np.eye(3)
    e = (args.s, args.w, args.u)
    spec = eis.TruncationSpec(args.flag_bound, args.flag_bound)
    prev = None
    for db in args.det_bounds:
        out = sp.kernel_trunc(args.k, e, z, db, spec, args.max_abs)
        delta = "" if prev is None else "  |delta| %.3g" % abs(out["value"] - prev)
        print(
            "det <= %-4s  classes %3d  pairs %4d  value % .12e %+.12ej%s"
            % (db, out["classes_used"], out["pairs_used"],
               out["value"].real, out["value"].imag, delta)
        )
        for w in out["warnings"]:
            print("  warning:", w)
        prev = out["value"]


if __name__ == "__main__":
    main()
