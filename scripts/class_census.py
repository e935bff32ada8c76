#!/usr/bin/env python3
"""Census of reduced class representatives up to a determinant bound.

Writes one row per class: the canonical six-tuple, exact determinant,
automorphism count, and the diagonal-product/determinant ratio (whose
supremum over reduced forms is the classical constant 2, attained by the
fcc-type class).

Usage:
    python scripts/class_census.py --det-bound 20 --out classes.csv
"""

import argparse
import csv
import sys
from fractions import Fraction

from siegel3 import cli


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--det-bound", type=Fraction, default="10")
    ap.add_argument("--out", default="-")
    args = ap.parse_args()

    bound = args.det_bound
    rows = cli.class_rows(bound)
    for r in rows:
        d = Fraction(r["det_num"], r["det_den"])
        r["diag_product_over_det"] = float(Fraction(r["t1"] * r["t2"] * r["t3"]) / d)
    print("%d classes with det <= %s" % (len(rows), bound))
    if rows:
        worst = max(r["diag_product_over_det"] for r in rows)
        print("max t1 t2 t3 / det over the census: %g" % worst)

    out = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    writer = csv.DictWriter(out, fieldnames=cli.CLASS_FIELDS + ("diag_product_over_det",))
    writer.writeheader()
    writer.writerows(rows)
    if out is not sys.stdout:
        out.close()
        print("wrote", args.out)


if __name__ == "__main__":
    main()
