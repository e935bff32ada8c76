"""Every module-level function and class of the library has a reader.

A reader of ``forms.f`` is a reference from ``src``, ``scripts`` or
``bench``: ``from .forms import f``, an attribute ``m.f`` where ``m`` is
bound to the module by ``from . import forms as m`` (or ``from siegel3
import ...``), a string ``"f"`` (``bench/spans.py`` wraps functions by name),
or a bare name ``f`` in ``forms`` itself outside the body of ``f``.  A reader
of a method ``C.m`` is an attribute ``x.m`` or a string ``"m"`` outside the
body of ``m``; a method that overrides one of a base class (``cli.Parser.error``)
is read through the base class.  A helper that only tests call fails here, so
none can come back unnoticed.  The scripts, readers that no other test
calls, are run end to end at a small truncation.
"""

import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _reads(tree, module):
    """Counter of (module, name) for every reference in ``tree``, a file or a
    def; ``module`` is the library module the file belongs to, or None."""
    aliases, out = {}, Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and (n.level or n.module.startswith("siegel3")):
            source = (n.module or "siegel3").rpartition(".")[2]
            for a in n.names:
                if source == "siegel3":
                    aliases[a.asname or a.name] = a.name
                else:
                    out[source, a.name] += 1
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in aliases:
            out[aliases[n.value.id], n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out[None, n.value] += 1
        elif isinstance(n, ast.Name) and module:
            out[module, n.id] += 1
    return out


def _sources():
    return sorted(p for d in ("src", "scripts", "bench") for p in (ROOT / d).rglob("*.py"))


def _attribute_reads(tree):
    """Counter of every attribute name and string constant in ``tree``."""
    return Counter(n.attr if isinstance(n, ast.Attribute) else n.value for n in ast.walk(tree)
                   if isinstance(n, ast.Attribute)
                   or isinstance(n, ast.Constant) and isinstance(n.value, str))


def test_every_module_level_name_has_a_reader():
    reads, defs = Counter(), []
    for path in _sources():
        tree = ast.parse(path.read_text())
        module = path.stem if path.parent.name == "siegel3" else None
        reads += _reads(tree, module)
        if module:
            defs += [(module, node) for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    unread = ["%s.%s" % (module, node.name) for module, node in defs
              if reads[module, node.name] + reads[None, node.name]
              - _reads(node, module)[module, node.name] <= 0]
    assert not unread, "no reader in src, scripts or bench: " + ", ".join(unread)


def test_every_method_has_a_reader():
    reads, methods = Counter(), []
    for path in _sources():
        tree = ast.parse(path.read_text())
        reads += _attribute_reads(tree)
        if path.parent.name == "siegel3":
            methods += [(path.stem, cls.name, node) for cls in tree.body
                        if isinstance(cls, ast.ClassDef) for node in cls.body
                        if isinstance(node, ast.FunctionDef)]
    unread = []
    for module, cls, node in methods:
        bases = getattr(importlib.import_module("siegel3." + module), cls).__mro__[1:]
        if (reads[node.name] - _attribute_reads(node)[node.name] <= 0
                and not any(hasattr(base, node.name) for base in bases)):
            unread.append("%s.%s.%s" % (module, cls, node.name))
    assert not unread, "no reader in src, scripts or bench: " + ", ".join(unread)


SCRIPTS = [
    (["class_census.py", "--det-bound", "2"], "9 classes with det <= 2"),
    (["kernel_truncation_study.py", "--det-bounds", "1/2", "1", "--flag-bound", "6"],
     "det <= 1/2   classes   1  pairs 1096  value "),
    (["lipschitz_convergence.py", "--max-abs", "2", "--trace-bound", "6"], "(2, 6): bare "),
]


@pytest.mark.parametrize("argv, header", SCRIPTS, ids=[argv[0] for argv, _ in SCRIPTS])
def test_script_runs_at_a_small_truncation(argv, header):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0].startswith(header)
