"""The package names the benchmark harness reaches into still exist.

``perfbench/tracer.py`` wraps package functions by module attribute, and
``perfbench/checks.py`` runs a library pass of its own; a rename in the package
would break ``--trace 1`` or the image-point checks without failing any other
test.  Both files are read here, never edited.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # stdlib imports only
    return module


@pytest.mark.parametrize("module, attr, name", load_tracer().TARGETS)
def test_tracer_targets_are_callable(module, attr, name):
    assert callable(getattr(importlib.import_module(module), attr))


def run_end_of_point_checks() -> ast.FunctionDef:
    tree = ast.parse((PERFBENCH / "checks.py").read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "PointChecks")
    return next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "run_end")


def package_names(fn: ast.FunctionDef) -> dict:
    """Local name -> object for each ``from ofdmsar... import`` in ``fn``."""
    names = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("ofdmsar"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name)
    return names


def resolve(node, names):
    """The package object a ``name.attr.attr`` chain refers to, else None."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        base = resolve(node.value, names)
        if base is not None:
            assert hasattr(base, node.attr), f"{ast.unparse(node)} does not resolve"
            return getattr(base, node.attr)
    return None


def test_point_checks_calls_resolve_and_bind():
    fn = run_end_of_point_checks()
    names = package_names(fn)
    assert {"echo", "rangeproc", "azimuth", "load_config"} <= set(names)
    calls = 0
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            target = resolve(node.func, names)
            if target is None:
                continue
            assert callable(target), ast.unparse(node.func)
            keywords = {kw.arg: None for kw in node.keywords}
            inspect.signature(target).bind(*[None] * len(node.args), **keywords)
            calls += 1
    assert calls >= 6
