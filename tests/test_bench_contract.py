"""The library names the benchmark's span recorder wraps and the library
attributes every benchmark file reads, checked from the library side: a renamed
or deleted layer function fails here, not in a benchmark pass.  bench/spans.py
is read and executed, never imported, and the other files are parsed, so no file
under bench/ is written."""

import ast
import importlib
import types
from pathlib import Path

import pytest

from siegel3 import forms

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"


@pytest.fixture(scope="module")
def spans():
    module = types.ModuleType("bench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_traced_layer_and_cache_resolves(spans):
    for module, attr, _ in spans.LAYERS.values():
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    for module, attr in spans.CACHES.values():
        assert hasattr(getattr(importlib.import_module(module), attr, None), "cache_info"), attr


def test_work_count_of_a_ball_is_its_vector_count(spans):
    ball = forms.short_vectors_gram([[2, 1, 0], [1, 2, 0], [0, 0, 4]], 30)
    assert spans._work_count(ball) == len(ball) == len(set(map(tuple, ball["v"].tolist()))) > 0


def _library_reads(path):
    """(module, attr) of each m.attr a file reads after `from siegel3 import m`."""
    tree = ast.parse(path.read_text(), str(path))
    modules = {alias.asname or alias.name: "siegel3." + alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "siegel3"
               for alias in node.names}
    return {(modules[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id in modules}


def test_every_library_read_of_the_benchmark_resolves():
    reads = set().union(*map(_library_reads, sorted(BENCH.glob("*.py"))))
    assert ("siegel3.forms", "congruence_form") in reads
    missing = [(module, attr) for module, attr in sorted(reads)
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing, missing
