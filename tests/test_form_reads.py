"""The analysis modules read matrices and polynomials through their integer
forms alone.

A tuple subscript ``m[i, j]`` or an ``.entries()`` call reads the Fraction
view of a matrix; outside ``matrices`` itself, only the presentation layers
(``cli``, ``documents``) may do so. Subscripts of builtin and ``typing``
generics (``tuple[int, ...]``, ``Optional[...]``) are type expressions, not
reads. A ``.coeffs`` read builds the Fraction view of a polynomial; only the
presentation layers and ``class Polynomial`` itself, whose printing reads
it, may do so.

Isolation and refinement run on integer numerators and build the Fractions
they hand out by setting their slots; neither they nor the modulus sort call
the ``Fraction`` constructor or take a ``_common_denominator`` of Fractions.
"""

import ast
import builtins
import typing
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "interlace"
ANALYSES = ("classification", "polynomials", "spectra", "constructors")
GENERICS = {name for name in dir(builtins) if isinstance(getattr(builtins, name), type)}
GENERICS |= set(typing.__all__)


def _parse(module: str) -> ast.AST:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def _view_reads(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple):
            if not (isinstance(node.value, ast.Name) and node.value.id in GENERICS):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "entries"):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def _coeffs_reads(tree: ast.AST) -> list[str]:
    """Every ``.coeffs`` attribute read outside ``class Polynomial``."""
    found, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef) and node.name == "Polynomial":
            continue
        if isinstance(node, ast.Attribute) and node.attr == "coeffs":
            found.append((node.lineno, f"line {node.lineno}: {ast.unparse(node)}"))
        stack.extend(ast.iter_child_nodes(node))
    return [text for _, text in sorted(found)]


ENCLOSURES = {"polynomials": ("isolate_real_roots", "refine_root"),
              "spectra": ("_certified_modulus_sort",)}
FRACTION_BUILDERS = ("Fraction", "_common_denominator")


def _fraction_builds(tree: ast.AST, functions) -> list[str]:
    """Every call of a name in FRACTION_BUILDERS inside the named top-level
    functions, nested functions and lambdas included."""
    found = []
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name in functions:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in FRACTION_BUILDERS):
                    found.append((node.lineno, f"{top.name} line {node.lineno}: "
                                               f"{ast.unparse(node)}"))
    return [text for _, text in sorted(found)]


def test_analyses_never_read_the_fraction_view():
    for module in ANALYSES:
        assert _view_reads(_parse(module)) == [], module


def test_kernels_never_read_polynomial_coefficients():
    reads = {module: _coeffs_reads(_parse(module)) for module in ANALYSES + ("matrices",)}
    assert {module: found for module, found in reads.items() if found} == {}


def test_the_check_sees_a_view_read():
    reads = _view_reads(ast.parse(
        "x: tuple[int, ...] = m[1, 2]\nfor i, j, v in m.entries(): pass\n"
        "y: dict[str, Optional[int]] = {}\n"))
    assert reads == ["line 1: m[1, 2]", "line 2: m.entries()"]


def test_the_check_sees_a_coeffs_read_outside_the_class():
    reads = _coeffs_reads(ast.parse(
        "class Polynomial:\n    def f(self):\n        return self.coeffs\n"
        "def g(p):\n    return p.coeffs[0], p._form, coeffs\n"
        "class Other:\n    def h(self, p):\n        return p.coeffs\n"))
    assert reads == ["line 5: p.coeffs", "line 8: p.coeffs"]


def test_the_enclosure_stage_builds_no_fraction_by_constructor():
    builds = {module: _fraction_builds(_parse(module), functions)
              for module, functions in ENCLOSURES.items()}
    assert {module: found for module, found in builds.items() if found} == {}


def test_the_check_sees_a_fraction_build():
    builds = _fraction_builds(ast.parse(
        "def refine_root(p, box):\n    key = lambda u: Fraction(u, 2)\n"
        "    return _common_denominator((box.lo, box.hi))\n"
        "def other():\n    return Fraction(1, 3)\n"), ("refine_root",))
    assert builds == ["refine_root line 2: Fraction(u, 2)",
                      "refine_root line 3: _common_denominator((box.lo, box.hi))"]
