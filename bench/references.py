"""Write references.json: the answers the benchmark checks against.

    python3 bench/references.py

Run only at the commit that defined the benchmark. The file holds the
identity-point panel of ``coset_kernel``, the kernel and Poincare values at
each panel point, and the digest of each class census with its automorphism
counts. Later commits are checked against these values, so regenerating the
file would turn every check into a self-comparison.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import workloads  # noqa: E402
from siegel3 import eisenstein, forms, symplectic  # noqa: E402

PANEL_POINTS = 6


def main():
    rng = np.random.default_rng(20241205)
    panel = [workloads._dyadic_x16(rng) for _ in range(PANEL_POINTS)]
    zs = [workloads.siegel_point(x) for x in panel]
    kernel = {}
    for size in workloads.SIZES.values():
        sz = size["coset_kernel"]
        spec = eisenstein.TruncationSpec(sz["kernel_flags"], sz["kernel_flags"])
        kernel[sz["kernel_det"]] = [
            [v.real, v.imag] for v in (
                complex(symplectic.kernel_trunc(workloads.KERNEL_WEIGHT, workloads.KERNEL_EXPONENTS,
                                                z, Fraction(sz["kernel_det"]), spec, 1)["value"])
                for z in zs)
        ]
    pairs = symplectic.enumerate_pairs(1)
    poincare = []
    for t in forms.reduced_classes(2):
        values = [complex(symplectic.poincare_trunc(workloads.KERNEL_WEIGHT, t, z, 1, pairs=pairs)[0])
                  for z in zs]
        poincare.append({"key": list(workloads.form_key(t)),
                         "values": [[v.real, v.imag] for v in values]})
    class_digest = {}
    for size in workloads.SIZES.values():
        bound = size["class_census"]["det_bound"]
        classes = forms.reduced_classes(Fraction(bound))
        class_digest[bound] = workloads.class_digest(
            (workloads.form_key(t), forms.automorphism_count(t)) for t in classes)
    out = {"panel_x16": panel, "kernel": kernel, "poincare": poincare,
           "class_digest": class_digest}
    with open(workloads.REFERENCES, "w") as fh:
        fh.write("{\n" + ",\n".join('"%s": %s' % (k, json.dumps(v)) for k, v in out.items())
                 + "\n}\n")


if __name__ == "__main__":
    main()
