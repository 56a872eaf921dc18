"""The analysis modules read a matrix through its integer form alone.

A tuple subscript ``m[i, j]`` or an ``.entries()`` call reads the Fraction
view of a matrix; outside ``matrices`` itself, only the presentation layers
(``cli``, ``documents``) may do so. Subscripts of builtin and ``typing``
generics (``tuple[int, ...]``, ``Optional[...]``) are type expressions, not
reads.
"""

import ast
import builtins
import typing
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "interlace"
ANALYSES = ("classification", "polynomials", "spectra", "constructors")
GENERICS = {name for name in dir(builtins) if isinstance(getattr(builtins, name), type)}
GENERICS |= set(typing.__all__)


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


def test_analyses_never_read_the_fraction_view():
    for module in ANALYSES:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        assert _view_reads(tree) == [], module


def test_the_check_sees_a_view_read():
    reads = _view_reads(ast.parse(
        "x: tuple[int, ...] = m[1, 2]\nfor i, j, v in m.entries(): pass\n"
        "y: dict[str, Optional[int]] = {}\n"))
    assert reads == ["line 1: m[1, 2]", "line 2: m.entries()"]
