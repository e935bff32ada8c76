"""Run the benchmark once per seed and report how far its figures spread.

    python3 bench/steadiness.py --workloads lattice_identity coset_kernel \\
        --seeds 301-310 --seconds 35 [--out figures.json]

For each workload and end-to-end metric it prints the median, the first and
third quartile over the seeds (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median, next to the metric's bound in BENCHMARK.json. Runs
go one after another, never side by side. ``--out`` keeps every run's result
line and detail line.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=seed_list, default=seed_list("301-310"))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    for workload in args.workloads:
        runs[workload] = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                raise SystemExit("%s seed %d failed: %s" % (workload, seed, proc.stderr[-2000:]))
            detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
            runs[workload].append({"seed": seed, "result": result, "detail": detail})
            print("%s seed %d: %s" % (workload, seed, json.dumps(
                {k: round(v["value"], 4) for k, v in result["metrics"].items()})), flush=True)
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs[workload]]
            q1, mid, q3 = quantiles(values, n=4)
            spread = (q3 - q1) / median(values)
            print("  %-20s median %.6g  q1 %.6g  q3 %.6g  spread %.4f  bound %g%s" % (
                name, mid, q1, q3, spread, bound, "" if spread <= bound / 3 else "  (> bound/3)"))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(runs, fh, indent=1)


if __name__ == "__main__":
    main()
