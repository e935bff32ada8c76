"""siegel3 benchmark: one seeded workload, timed end to end or traced per layer.

    python3 bench/run.py --workload lattice_identity --seed 1 --seconds 35 --trace 0

Each pass runs the workload's whole task list once, in a fresh single-threaded
interpreter (BLAS pinned to one thread), as a closed loop with one caller: a
task starts when the previous one returns, and every answer is checked
against its oracle. A run first starts a few interpreters that only set up,
then repeats passes while the next one is expected to end within
``--seconds`` (at least two passes); each metric is the median over passes.

``setup_s`` is the raw time from starting an interpreter to siegel3 being
imported. ``wall_norm_s`` is a pass's time normalised to the reference host
speed by a probe that runs alongside it (see probe.py): raw pass times of the
same code drift by a third with the load others put on the host, normalised
ones by a few per cent. The raw time of every pass is in the detail line.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics, the traced spans going to
``.bench_out/``. The last line of stdout is the JSON result; the line before
it records the input digest and every pass.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
RUN_LIMIT_S = 170.0
# interpreters started only to time set-up, besides one per pass
SETUP_ONLY_RUNS = 4
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# The two gap metrics exist only where identity points are evaluated; the
# other workloads report this value, which no run of theirs can change.
NOT_MEASURED_GAP = 1.0


class PassFailed(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_ENV})
    env["PYTHONHASHSEED"] = "0"
    # set-up is timed with bytecode cached by the warm-up, whatever the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args, extra, deadline):
    """Start a worker; return (set-up seconds, its JSON result or None)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size] + extra
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline().strip()
        setup_s = perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(deadline - perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise PassFailed("worker exceeded the run's time limit")
    if proc.returncode != 0 or ready != "ready":
        raise PassFailed("worker exited with code %d" % proc.returncode)
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def machine_info():
    import platform

    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "worker_threads_env": {name: "1" for name in THREAD_ENV}}


def main(argv=None):
    sys.path.insert(0, str(BENCH))
    import spans
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "siegel3" / "__init__.py").is_file():
        print("no siegel3 sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    start = perf_counter()
    limit = start + RUN_LIMIT_S
    digest = workloads.digest(workloads.make_inputs(args.workload, args.seed, args.size))
    spans_out = ROOT / ".bench_out" / ("%s-%d.spans.jsonl" % (args.workload, args.seed))
    if args.trace:
        spans_out.parent.mkdir(exist_ok=True)

    try:
        # compiles bytecode and warms the file cache; not measured
        run_worker(args, ["--warmup"], limit)
        deadline = perf_counter() + args.seconds
        setups = [run_worker(args, ["--warmup"], limit)[0] for _ in range(SETUP_ONLY_RUNS)]
        passes = []
        longest = 0.0
        while len(passes) < 2 or perf_counter() + longest <= deadline:
            traced = bool(args.trace) and len(passes) % 2 == 1
            extra = ["--traced", "--spans-out", str(spans_out)] if traced else []
            t0 = perf_counter()
            setup_s, res = run_worker(args, extra, limit)
            longest = max(longest, perf_counter() - t0)
            if res is None or res["digest"] != digest:
                raise PassFailed("worker made other inputs than run.py")
            res.update(traced=traced, setup_s=setup_s)
            passes.append(res)
    except PassFailed as exc:
        print("benchmark run failed: %s" % exc, file=sys.stderr)
        return 1

    plain = [r for r in passes if not r["traced"]]
    traced = [r for r in passes if r["traced"]]
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    if args.trace:
        names = spans.metric_names()
        values = {name: median([r["layers"][name] for r in traced])
                  for name in names if name != "trace.overhead_frac"}
        values["trace.overhead_frac"] = (median([r["wall_norm_s"] for r in traced])
                                         / median([r["wall_norm_s"] for r in plain]) - 1.0)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in names.items()}
    else:
        gaps = {}
        for r in passes:
            for name, value in r["gaps"].items():
                gaps[name] = max(gaps.get(name, 0.0), value)
        metrics = {
            "setup_s": {"value": median(setups + [r["setup_s"] for r in plain]), "unit": "s"},
            "wall_norm_s": {"value": median([r["wall_norm_s"] for r in plain]), "unit": "s"},
            "peak_rss_mb": {"value": median([r["peak_rss_mb"] for r in plain]), "unit": "MB"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
            "identity_gap_int": {"value": gaps.get("identity_gap_int", NOT_MEASURED_GAP),
                                 "unit": "ratio"},
            "identity_gap_nonint": {"value": gaps.get("identity_gap_nonint", NOT_MEASURED_GAP),
                                    "unit": "ratio"},
        }
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "inputs_sha256": digest, "elapsed_s": perf_counter() - start, "machine": machine_info(),
        "setup_only_s": setups,
        "passes": [{k: r[k] for k in ("traced", "setup_s", "wall_s", "wall_norm_s", "speed_factor",
                                      "probe_samples", "cpu_s", "peak_rss_mb", "attempted",
                                      "failed")} for r in passes],
        "failures": sorted({f for r in passes for f in r["failures"]}),
    }))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
