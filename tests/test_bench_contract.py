"""The library names the benchmark's span recorder wraps, checked from the
library side: a renamed or deleted layer function fails here, not in a traced
benchmark pass.  bench/spans.py is read and executed, never imported, so no
file under bench/ is written."""

import importlib
import types
from pathlib import Path

import pytest

from siegel3 import forms

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
