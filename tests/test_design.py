"""Design guards over the package source: one encoding of the symbol law.

A symbol law is a value of its own type, ``ConstantModulus`` or the Gaussian
``TruncationPolicy``, never ``None`` standing for constant modulus.  The guard
reads the source, so it also catches a branch that no test reaches.
"""

import ast
import inspect
from pathlib import Path

import pytest

from ofdmsar import ConstantModulus, draw_symbols, form_image, synthesize_raw

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ofdmsar").glob("*.py"))
LAW_NAMES = {"law", "policy"}
LAW_TYPES = {"ConstantModulus", "TruncationPolicy", "SymbolLaw"}


def _is_none(node) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _names(node) -> set:
    """The names and attribute names a node reads."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _optional(annotation) -> bool:
    """Whether an annotation admits None: ``X | None`` or ``Optional[X]``."""
    return annotation is not None and (
        any(_is_none(n) for n in ast.walk(annotation)) or "Optional" in _names(annotation))


def _law_faults(tree) -> list:
    faults = []
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for func in (n for n in ast.walk(tree) if isinstance(n, funcs)):
        args = func.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        defaults = [None] * (len(args.posonlyargs) + len(args.args) - len(args.defaults))
        for param, default in zip(params, [*defaults, *args.defaults, *args.kw_defaults]):
            if param.arg in LAW_NAMES and (_optional(param.annotation) or
                                           (default is not None and _is_none(default))):
                faults.append(f"{func.name}: parameter {param.arg} admits None")
            if _optional(param.annotation) and LAW_TYPES & _names(param.annotation):
                faults.append(f"{func.name}: parameter {param.arg} is a law or None")
        if _optional(func.returns) and LAW_TYPES & _names(func.returns):
            faults.append(f"{func.name}: returns a law or None")
        for node in ast.walk(func):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(_is_none(o) for o in operands) and any(
                        LAW_NAMES & _names(o) for o in operands):
                    faults.append(f"{func.name}: compares a law to None, line {node.lineno}")
            elif (isinstance(node, ast.AnnAssign) and _optional(node.annotation)
                  and (LAW_NAMES & _names(node.target) or LAW_TYPES & _names(node.annotation))):
                faults.append(f"{func.name}: annotates a law as optional, line {node.lineno}")
    return faults


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_symbol_law_is_none(path):
    assert _law_faults(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("source", [
    "def f(law):\n    return 1 if law is None else 2\n",
    "def f(policy: TruncationPolicy | None = None):\n    pass\n",
    "def f(law=None):\n    pass\n",
    "def f(x):\n    return policy.A if policy != None else 1.0\n",
    "def f(self) -> TruncationPolicy | None:\n    pass\n",
    "def f(p: Optional[SymbolLaw]):\n    pass\n",
    "def f():\n    law: ConstantModulus | None = g()\n",
])
def test_the_guard_catches_each_none_encoding(source):
    assert _law_faults(ast.parse(source)) != []


def test_the_guard_passes_law_values():
    source = ("def f(spec, pulses: int | None = None, law: SymbolLaw = ConstantModulus()):\n"
              "    return law.magnitudes(spec, None) if pulses is None else law.A\n")
    assert _law_faults(ast.parse(source)) == []


@pytest.mark.parametrize("func", [draw_symbols, synthesize_raw, form_image])
def test_the_default_law_is_constant_modulus(func):
    # A caller that names no law, as the benchmark's noise-free pass calls
    # synthesize_raw, draws constant-modulus symbols.
    assert inspect.signature(func).parameters["law"].default == ConstantModulus()
