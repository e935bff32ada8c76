"""Span recording around the public functions of each siegel3 layer.

Wrappers are installed from the benchmark's side, at every module binding of
a layer function (``lipschitz.power_terms`` as well as ``branch.power_terms``),
so calls between modules are seen without changing the library. Spans stay in
memory and are written out when the traced pass ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

import numpy as np

# metric name prefix -> (module, function, metrics reported)
LAYERS = {
    "branch.power_terms": ("siegel3.branch", "power_terms",
                           ("calls", "busy_s", "int_terms_per_s", "log_terms_per_s")),
    "branch.power_inversion_gap": ("siegel3.branch", "power_inversion_gap", ("calls", "busy_s")),
    "specfun.cone_integral_gap": ("siegel3.specfun", "cone_integral_gap", ("calls", "busy_s")),
    "lipschitz.lattice_sum_lhs": ("siegel3.lipschitz", "lattice_sum_lhs",
                                  ("calls", "busy_s", "self_s", "terms")),
    "lipschitz.fourier_side_rhs": ("siegel3.lipschitz", "fourier_side_rhs",
                                   ("calls", "busy_s", "self_s", "terms")),
    "forms.enumerate_J": ("siegel3.forms", "enumerate_J", ("calls", "busy_s", "forms")),
    "forms.minkowski_reduce": ("siegel3.forms", "minkowski_reduce",
                               ("calls", "busy_s", "self_s", "us_per_call")),
    "forms.short_vectors_gram": ("siegel3.forms", "short_vectors_gram",
                                 ("calls", "busy_s", "vectors")),
    "forms.automorphism_count": ("siegel3.forms", "automorphism_count",
                                 ("calls", "busy_s", "cache_hits", "cache_misses")),
    "forms.reduced_classes": ("siegel3.forms", "reduced_classes",
                              ("calls", "busy_s", "self_s", "classes", "cache_hits", "cache_misses")),
    "series.km_classic": ("siegel3.series", "km_classic", ("calls", "busy_s", "self_s")),
    "eisenstein.selberg_E": ("siegel3.eisenstein", "selberg_E",
                             ("calls", "busy_s", "self_s", "terms")),
    "symplectic.canonical_pair": ("siegel3.symplectic", "canonical_pair",
                                  ("calls", "busy_s", "us_per_call")),
    "symplectic.complete_to_symplectic": ("siegel3.symplectic", "complete_to_symplectic",
                                          ("calls", "busy_s", "us_per_call")),
    "symplectic.enumerate_pairs": ("siegel3.symplectic", "enumerate_pairs",
                                   ("calls", "busy_s", "pairs")),
    "symplectic.poincare_trunc": ("siegel3.symplectic", "poincare_trunc",
                                  ("calls", "busy_s", "self_s", "terms")),
    "symplectic.kernel_trunc": ("siegel3.symplectic", "kernel_trunc", ("calls", "busy_s", "self_s")),
    "matrices.mobius": ("siegel3.matrices", "mobius", ("calls", "busy_s")),
    "intlinalg.hnf_row": ("siegel3._intlinalg", "hnf_row", ("calls", "busy_s")),
    "intlinalg.snf": ("siegel3._intlinalg", "snf", ("calls", "busy_s")),
}

# lru caches read for hit and miss counts: layer -> (module, cached function)
CACHES = {
    "forms.automorphism_count": ("siegel3.forms", "automorphism_count"),
    "forms.reduced_classes": ("siegel3.forms", "_reduced_classes_cached"),
}

RUN_METRICS = ("trace.unattributed_s", "trace.overhead_frac")

# metrics that need the work a call reports (a term count or a list length)
WORK_METRICS = {"terms", "forms", "vectors", "classes", "pairs",
                "int_terms_per_s", "log_terms_per_s"}

UNITS = {
    "calls": "count", "busy_s": "s", "self_s": "s", "us_per_call": "us",
    "int_terms_per_s": "1/s", "log_terms_per_s": "1/s",
    "terms": "count", "forms": "count", "vectors": "count", "classes": "count",
    "pairs": "count", "cache_hits": "count", "cache_misses": "count",
    "unattributed_s": "s", "overhead_frac": "ratio",
}


def metric_names():
    """Every per-layer metric with its unit, in report order."""
    names = {"%s.%s" % (layer, m): UNITS[m] for layer, (_, _, ms) in LAYERS.items() for m in ms}
    names.update({name: UNITS[name.split(".")[-1]] for name in RUN_METRICS})
    return names


def _work_count(result):
    """Work a layer call reports: a term count, or the length of a returned list."""
    for attr in ("terms_used", "n_terms", "terms"):
        value = getattr(result, attr, None)
        if isinstance(value, (int, np.integer)):
            return int(value)
    if isinstance(result, tuple) and len(result) > 1 and isinstance(result[1], (int, np.integer)):
        return int(result[1])
    if isinstance(result, np.ndarray):
        return int(result.size)
    if isinstance(result, (list, tuple)):
        return len(result)
    return 0


def _integer_exponents(exponents):
    """True when power_terms can take its algebraic path (small real integers)."""
    return all(complex(e).imag == 0.0 and complex(e).real == int(complex(e).real)
               and abs(complex(e).real) <= 64 for e in exponents)


class Recorder:
    """In-memory spans: [name, start, end, parent id, task id, work, integer path]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.task = None
        self._restore = []

    def set_task(self, task):
        self.task = task

    def _wrap(self, name, fn, counted):
        spans, stack = self.spans, self.stack
        power = name == "branch.power_terms"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.task, 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counted:
                span[5] = _work_count(result)
            if power:
                span[6] = _integer_exponents(args[0] if args else kwargs["exponents"])
            return result

        return wrapper

    def install(self):
        """Replace every binding of each layer function in the loaded siegel3 modules."""
        for module, _, _ in LAYERS.values():
            importlib.import_module(module)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "siegel3" or n.startswith("siegel3."))]
        for name, (module, attr, metrics) in LAYERS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, bool(WORK_METRICS.intersection(metrics)))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._restore.append((m, key, original))

    def uninstall(self):
        for m, key, original in reversed(self._restore):
            setattr(m, key, original)
        self._restore.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, task, work, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "task": task, "work": work}) + "\n")

    def layer_metrics(self, wall_s, cache_deltas):
        """Per-layer metrics of one traced pass of ``wall_s`` seconds.

        busy_s counts a span only when no enclosing span has the same name;
        self_s subtracts the time covered by direct child spans.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        top_level = 0.0
        for name, start, end, parent, *_ in spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                top_level += end - start
        acc = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0,
                      "int": [0, 0.0], "log": [0, 0.0]} for name in LAYERS}
        for i, (name, start, end, parent, _, work, integer) in enumerate(spans):
            a = acc[name]
            a["calls"] += 1
            a["work"] += work
            a["self_s"] += end - start - child_time[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                a["busy_s"] += end - start
            if integer is not None:
                path = a["int"] if integer else a["log"]
                path[0] += work
                path[1] += end - start
        out = {}
        for layer, (_, _, metrics) in LAYERS.items():
            a = acc[layer]
            hits, misses = cache_deltas.get(layer, (0, 0))
            values = {
                "calls": a["calls"], "busy_s": a["busy_s"], "self_s": a["self_s"],
                "us_per_call": 1e6 * a["busy_s"] / a["calls"] if a["calls"] else 0.0,
                "int_terms_per_s": a["int"][0] / a["int"][1] if a["int"][1] else 0.0,
                "log_terms_per_s": a["log"][0] / a["log"][1] if a["log"][1] else 0.0,
                "terms": a["work"], "forms": a["work"], "vectors": a["work"],
                "classes": a["work"], "pairs": a["work"],
                "cache_hits": hits, "cache_misses": misses,
            }
            for m in metrics:
                out["%s.%s" % (layer, m)] = values[m]
        out["trace.unattributed_s"] = wall_s - top_level
        return out


def cache_counts():
    """(hits, misses) of each lru cache the layers keep; (0, 0) if it is gone."""
    out = {}
    for layer, (module, attr) in CACHES.items():
        info = getattr(getattr(sys.modules.get(module), attr, None), "cache_info", None)
        out[layer] = (info().hits, info().misses) if info else (0, 0)
    return out
