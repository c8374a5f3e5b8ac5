"""Design guards over the package source: one encoding of the symbol law, no
module reading another's private names outside a short allowlist, and None
returned beside a value only by the functions listed.

A symbol law is a value of its own type, ``ConstantModulus`` or the Gaussian
``TruncationPolicy``, never ``None`` standing for constant modulus.  A
``_``-prefixed name is its module's own decision; another module that reads it
shares that decision, so each such read is listed in ``PRIVATE_READS``.  A
function annotated ``-> X | None`` makes each caller test for None, so each one
is listed in ``OPTIONAL_RETURNS``.  The guards read the source, so they also
catch a branch that no test reaches.
"""

import ast
import inspect
from pathlib import Path

import pytest

from ofdmsar import ConstantModulus, draw_symbols, form_image, synthesize_raw

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ofdmsar").glob("*.py"))
LAW_NAMES = {"law", "policy"}
LAW_TYPES = {"ConstantModulus", "TruncationPolicy", "SymbolLaw"}
#: (reading module, owning module, name): the private names one module may read of another.
PRIVATE_READS = {
    ("output", "echo", "_BLOCK_CELLS"),  # the dB raster's text is encoded in blocks of it
    ("cli", "geometry", "_MAX_CELLS"),
    ("config", "geometry", "_MAX_CELLS"),
    ("scenes", "geometry", "_MAX_CELLS"),
}
#: (module, function): the functions whose return annotation is a union with None.
OPTIONAL_RETURNS = {
    ("echo", "draw_noise"),  # None at sigma2 = 0, drawing no noise
}


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


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _package_module(node: ast.ImportFrom) -> str | None:
    """The package module an import reads from: "" for the package itself."""
    if node.level:
        return node.module or ""
    if node.module == "ofdmsar" or (node.module or "").startswith("ofdmsar."):
        return node.module.removeprefix("ofdmsar").removeprefix(".")
    return None


def _private_reads(tree) -> set:
    """(module, name) of every private name the source imports from, or reads
    as an attribute of, another module of the package."""
    reads, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (owner := _package_module(node)) is not None:
            for alias in node.names:
                if owner == "":  # from . import echo: echo names a module
                    modules[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    reads.add((owner, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            reads.add((modules[node.value.id], node.attr))
    return reads


def test_private_names_are_read_across_modules_only_as_listed():
    # Equality, not a subset: an allowance whose read is gone is dropped with it.
    made = {(path.stem, *read) for path in SOURCES
            for read in _private_reads(ast.parse(path.read_text(encoding="utf-8")))}
    assert made == PRIVATE_READS


@pytest.mark.parametrize("source", [
    "from . import echo\nrows = echo._BLOCK_CELLS // 4\n",
    "from . import echo as e\ne._BLOCK_CELLS\n",
    "from .geometry import _MAX_CELLS\n",
    "from .echo import _BLOCK_CELLS as cells\n",
    "from ofdmsar import echo\necho._BLOCK_CELLS\n",
    "from ofdmsar.geometry import _MAX_CELLS\n",
    "def f():\n    from . import echo\n    return echo._pulse_step(3)\n",
])
def test_the_guard_catches_each_private_read(source):
    assert _private_reads(ast.parse(source)) != set()


def test_the_guard_passes_public_and_foreign_names():
    source = ("import numpy as np\nfrom . import echo\nfrom .geometry import Scene\n"
              "x = echo.pulse_blocks, echo.__name__, np._NoValue, self._cache\n")
    assert _private_reads(ast.parse(source)) == set()


def _optional_returns(tree) -> set:
    """Names of the functions, nested ones too, whose return annotation admits
    None beside another type: ``X | None`` or ``Optional[X]``, not a bare None."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    return {f.name for f in ast.walk(tree)
            if isinstance(f, funcs) and not _is_none(f.returns) and _optional(f.returns)}


def test_functions_return_none_beside_a_value_only_as_listed():
    # Equality, as for PRIVATE_READS: an allowance whose function is gone is dropped.
    made = {(path.stem, name) for path in SOURCES
            for name in _optional_returns(ast.parse(path.read_text(encoding="utf-8")))}
    assert made == OPTIONAL_RETURNS


@pytest.mark.parametrize("source", [
    "def f(r):\n    def step(mu: float) -> float | None:\n        return None\n    return step\n",
    "def f(x) -> Optional[int]:\n    pass\n",
    "def f(x) -> Union[int, None]:\n    pass\n",
], ids=["nested-union", "Optional", "Union"])
def test_the_guard_catches_each_optional_return(source):
    assert _optional_returns(ast.parse(source)) != set()


def test_the_guard_passes_bare_none_returns_and_optional_parameters():
    source = ("def f(pulses: int | None = None) -> None:\n    pass\n"
              "def g(x: Optional[int]) -> int:\n    return 0\n")
    assert _optional_returns(ast.parse(source)) == set()
