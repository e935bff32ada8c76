"""Tests of the benchmark itself.

    python3 -m pytest -q bench

The smoke size runs every workload end to end in a few seconds; the other
tests run single passes in process with a library function replaced by a
corrupted one, and check that the corrupted answer counts as failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import probe  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from siegel3 import forms, lipschitz, symplectic  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BASELINE = json.loads((BENCH / "baseline.json").read_text())


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def smoke_pass(workload):
    tally = workloads.Tally()
    inputs = workloads.make_inputs(workload, 5, "smoke")
    workloads.RUNNERS[workload](inputs, workloads.SIZES["smoke"][workload], tally)
    return tally


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace:
        # every layer the baseline maps to this workload was seen by the wrappers
        for layer, mapping in BASELINE["layer_to_end_to_end"].items():
            calls = result["metrics"]["%s.calls" % layer]["value"]
            assert (calls > 0) == (workload in mapping["workloads"]), layer


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS:
        a = workloads.digest(workloads.make_inputs(workload, 7, "full"))
        assert a == workloads.digest(workloads.make_inputs(workload, 7, "full"))
        assert a != workloads.digest(workloads.make_inputs(workload, 8, "full"))


def test_generated_matrices_are_exact():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = workloads._symplectic(rng, 12, 8)
        assert workloads.is_symplectic(m)
        assert max(abs(x) for row in m for x in row) <= 12
        u = workloads._unimodular_box(rng, 3)
        assert workloads.mat_mul(u, workloads.inverse_unimodular(u)) == workloads.identity(3)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_uncorrupted_smoke_pass_has_no_failures(workload):
    tally = smoke_pass(workload)
    assert tally.attempted > 0 and tally.failed == 0, tally.failures


def test_perturbed_lhs_counts_as_failed(monkeypatch):
    original = lipschitz.lattice_sum_lhs

    def perturbed(*args, **kwargs):
        value, terms, tail = original(*args, **kwargs)
        return value * 1.5, terms, tail

    monkeypatch.setattr(lipschitz, "lattice_sum_lhs", perturbed)
    tally = smoke_pass("lattice_identity")
    assert tally.failed == 4  # the three reference identities and the seeded one
    assert tally.gaps["identity_gap_int"] > 0.2


def test_wrong_class_rep_counts_as_failed(monkeypatch):
    original = forms.reduced_classes

    def wrong_first_rep(bound):
        classes = original(bound)
        t = classes[0]
        # an equivalent form that is not the canonical representative
        return [forms.congruence_form(t, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])] + classes[1:]

    monkeypatch.setattr(forms, "reduced_classes", wrong_first_rep)
    tally = smoke_pass("class_census")
    assert any(f.startswith("class_list_exact") for f in tally.failures)


def test_raising_and_nonfinite_answers_count_as_failed(monkeypatch):
    clean = smoke_pass("coset_kernel").attempted

    def raising(*args, **kwargs):
        raise ArithmeticError("corrupted")

    monkeypatch.setattr(symplectic, "kernel_trunc", raising)
    monkeypatch.setattr(symplectic, "poincare_trunc", lambda *a, **k: (complex("nan"), 1))
    tally = smoke_pass("coset_kernel")
    assert tally.attempted == clean
    assert tally.failed == 1 + workloads.SIZES["smoke"]["coset_kernel"]["poincare_classes"]


def test_wrappers_reach_every_binding_and_come_off():
    from siegel3 import branch

    original = branch.power_terms
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert lipschitz.power_terms is branch.power_terms
        assert lipschitz.power_terms.__wrapped__ is original
    finally:
        recorder.uninstall()
    assert lipschitz.power_terms is original and branch.power_terms is original


def test_probe_samples_on_its_timer_and_leaves_no_handler():
    import signal
    from time import perf_counter

    before = signal.getsignal(signal.SIGALRM)
    speed = probe.SpeedProbe()
    speed.start()
    t0 = perf_counter()
    while perf_counter() - t0 < 5 * probe.INTERVAL_S:
        sum(range(1000))
    t1 = perf_counter()
    speed.stop()
    assert len(speed.samples) >= 5  # start, stop and the timer's
    assert 0.0 < speed.spent_between(t0, t1) < t1 - t0
    assert speed.speed_factor() > 0.0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_checkout_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "class_census", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
