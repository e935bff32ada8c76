"""One pass of one workload in a fresh interpreter.

Run by ``run.py``; not meant to be started by hand. Prints ``ready`` once
siegel3 and the workload's submodules are imported (run.py times set-up to
that line), then makes the seeded inputs, runs the task list once, and prints
one JSON line with the pass's wall time, its time normalised to the reference
host speed (see probe.py), peak RSS, task counts and, when traced, the
per-layer metrics. A traced pass samples host speed only at its start and end,
so that no probe time falls inside a span.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", required=True)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--spans-out")
    p.add_argument("--warmup", action="store_true", help="stop once set up")
    args = p.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import probe
    import workloads

    for name in workloads.MODULES[args.workload]:
        importlib.import_module(name)
    import siegel3

    if Path(siegel3.__file__).resolve().parent != src / "siegel3":
        raise SystemExit("siegel3 imported from %s, not from this checkout" % siegel3.__file__)
    print("ready", flush=True)
    if args.warmup:
        return

    inputs = workloads.make_inputs(args.workload, args.seed, args.size)
    sz = workloads.SIZES[args.size][args.workload]
    runner = workloads.RUNNERS[args.workload]
    recorder = None
    if args.traced:
        import spans

        caches_before = spans.cache_counts()
        recorder = spans.Recorder()
        recorder.install()
    tally = workloads.Tally(on_task=recorder.set_task if recorder else None)
    speed = probe.SpeedProbe(timer=not args.traced)
    speed.start()
    c0 = process_time()
    t0 = perf_counter()
    runner(inputs, sz, tally)
    t1 = perf_counter()
    cpu_s = process_time() - c0
    speed.stop()
    probe_s = speed.spent_between(t0, t1)
    wall_s = t1 - t0 - probe_s
    out = {
        "wall_s": wall_s,
        "wall_norm_s": wall_s * speed.speed_factor(),
        "speed_factor": speed.speed_factor(),
        "probe_samples": len(speed.samples),
        "cpu_s": cpu_s - probe_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "gaps": tally.gaps,
        "digest": workloads.digest(inputs),
    }
    if recorder is not None:
        recorder.uninstall()
        caches_after = spans.cache_counts()
        deltas = {k: (caches_after[k][0] - caches_before[k][0],
                      caches_after[k][1] - caches_before[k][1]) for k in caches_after}
        out["layers"] = recorder.layer_metrics(wall_s, deltas)
        if args.spans_out:
            recorder.write(args.spans_out)
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
