"""Package modules import each other at module top, except to break a cycle,
and no module of the package or of the tests binds an import it never reads."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "interlace"
TESTS = Path(__file__).resolve().parent

# (module, function, imported module) -> the import cycle it breaks, and the
# benchmark binding that keeps the import where it is.
ALLOWED = {
    ("matrices", "charpoly", "polynomials"):
        "polynomials imports Matrix from matrices at module top; charpoly "
        "stays a Matrix method because perfbench/tracing.py wraps "
        "Matrix.charpoly and reads .coeffs of its result",
    ("classification", "_spectrum_stage", "spectra"):
        "spectra imports the classification scans at module top for "
        "kind_two_report and verify_sign_pattern; perfbench/tracing.py looks "
        "up classification.jflip_si_certificate, spectra.kind_two_report and "
        "spectra.verify_sign_pattern, so none of the three can move",
}


class _FunctionImports(ast.NodeVisitor):
    """Collect (function, imported module) for imports inside a function."""

    def __init__(self):
        self.stack = []
        self.found = set()

    def visit_FunctionDef(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Import(self, node):
        if self.stack:
            self.found |= {(self.stack[-1], alias.name) for alias in node.names}

    def visit_ImportFrom(self, node):
        if self.stack:
            self.found.add((self.stack[-1], node.module or "."))


def _function_level_imports():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths, f"no modules under {PACKAGE}"
    found = set()
    for path in paths:
        visitor = _FunctionImports()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found |= {(path.stem, fn, mod) for fn, mod in visitor.found}
    return found


def test_function_level_imports_only_break_cycles():
    found = _function_level_imports()
    assert found - set(ALLOWED) == set(), "move these imports to module top"
    assert set(ALLOWED) - found == set(), "allowlist names imports that are gone"


def _unread_imports(tree: ast.AST) -> list[str]:
    """Every name an import binds that the module never reads. A read is a
    loaded name anywhere, under ``TYPE_CHECKING`` and in annotations
    included, or a name in a string annotation such as ``-> "Polynomial"``;
    ``from __future__`` imports bind no name."""
    bound, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.partition(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    read |= {name.id for name in ast.walk(ast.parse(part.value, mode="eval"))
                             if isinstance(name, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read]


def test_every_import_is_read():
    """The package's modules and the test modules. ``__init__`` is exempt:
    its imports are the package's re-exports."""
    paths = sorted(p for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    tests = sorted(TESTS.glob("*.py"))
    assert paths and tests, f"no modules under {PACKAGE} or {TESTS}"
    unread = {f"{path.parent.name}/{path.stem}": _unread_imports(
        ast.parse(path.read_text(encoding="utf-8"))) for path in paths + tests}
    assert {module: names for module, names in unread.items() if names} == {}


def test_the_check_sees_an_unread_import():
    unread = _unread_imports(ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from itertools import accumulate, zip_longest\n"
        "from typing import TYPE_CHECKING, Sequence\n"
        "if TYPE_CHECKING:\n    from .spectra import SpectrumReport\n"
        "def f(xs: Sequence[int]) -> 'SpectrumReport':\n"
        "    return list(accumulate(xs))\n"))
    assert unread == ["line 2: os", "line 3: zip_longest"]



def _cache_uses(tree: ast.AST) -> list[str]:
    """Every import or attribute read of ``functools.cache`` or
    ``functools.lru_cache``, so every decorator or call of them."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, f"functools.{alias.name}") for alias in node.names
                      if alias.name in ("cache", "lru_cache")]
        elif (isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache")
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            found.append((node.lineno, f"functools.{node.attr}"))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def _slot_setter_reads(tree: ast.AST) -> list[str]:
    """Every read of Fraction's slot setters: ``Fraction.__dict__``, where
    they live, and the names ``matrices`` binds them to."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in ("_set_numerator", "_set_denominator")]
        elif isinstance(node, ast.Name) and node.id in ("_set_numerator", "_set_denominator"):
            found.append((node.lineno, node.id))
        elif (isinstance(node, ast.Attribute) and node.attr == "__dict__"
              and isinstance(node.value, ast.Name) and node.value.id == "Fraction"):
            found.append((node.lineno, "Fraction.__dict__"))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_kernels_keep_no_cache_and_only_matrices_fills_fractions():
    """No module but ``cli`` caches across calls, so the kernels keep no
    process-wide state, and no module but ``matrices`` (``_ratio`` and
    ``Matrix.det``) fills a Fraction's slots past its constructor."""
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths, f"no modules under {PACKAGE}"
    found = {}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found[path.stem] = ((_cache_uses(tree) if path.stem != "cli" else [])
                            + (_slot_setter_reads(tree) if path.stem != "matrices" else []))
    assert {module: uses for module, uses in found.items() if uses} == {}


def test_the_checks_see_a_planted_cache_and_slot_setter():
    tree = ast.parse(
        "import functools\n"
        "from functools import lru_cache, reduce\n"
        "from fractions import Fraction\n"
        "from .matrices import _ratio, _set_numerator\n"
        "@functools.lru_cache(maxsize=8)\n"
        "def f(n):\n    return reduce(max, range(n))\n"
        "@lru_cache\n"
        "def g(n):\n    return _ratio(n, 1)\n"
        "h = functools.cache(g)\n"
        "setter = Fraction.__dict__['_denominator'].__set__\n")
    assert _cache_uses(tree) == ["line 2: functools.lru_cache", "line 5: functools.lru_cache",
                                 "line 11: functools.cache"]
    assert _slot_setter_reads(tree) == ["line 4: _set_numerator", "line 12: Fraction.__dict__"]
