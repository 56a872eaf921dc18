"""Only ``matrices`` and ``polynomials`` handle a band.

``Matrix.charpoly`` reads the band of a tridiagonal or anti-bidiagonal form
(``matrices._band``) and attaches it to the polynomial it returns when every
product is positive; ``squarefree_part`` and ``isolate_real_roots`` read it
off that polynomial. Nothing else picks the counting route: this AST walk
fails on any other module of the package, or the scale sweep, that names
``_band`` (as a name, an attribute, an import or a string), and on any call
of ``isolate_real_roots`` that passes a keyword.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "interlace").glob("*.py")) + [ROOT / "bench" / "sweep.py"]
OWNERS = {"matrices", "polynomials"}


def _band_names(tree: ast.AST) -> list[str]:
    """Each node that names ``_band``, as "line: source"."""
    found = []
    for node in ast.walk(tree):
        named = ((isinstance(node, ast.Name) and node.id == "_band")
                 or (isinstance(node, ast.Attribute) and node.attr == "_band")
                 or (isinstance(node, ast.alias) and node.name == "_band")
                 or (isinstance(node, ast.Constant) and node.value == "_band"))
        if named:
            text = node.name if isinstance(node, ast.alias) else ast.unparse(node)
            found.append((node.lineno, f"line {node.lineno}: {text}"))
    return [text for _, text in sorted(found)]


def _keyword_isolations(tree: ast.AST) -> list[str]:
    """Each call of ``isolate_real_roots`` with a keyword or ``**``, as
    "line: source"."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.keywords:
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
            if name == "isolate_real_roots":
                found.append((node.lineno, f"line {node.lineno}: {ast.unparse(node)}"))
    return [text for _, text in sorted(found)]


def _scan(check) -> dict:
    assert len(SOURCES) > 2, SOURCES
    return {path.stem: check(ast.parse(path.read_text(encoding="utf-8"))) for path in SOURCES}


def test_only_matrices_and_polynomials_name_the_band():
    found = _scan(_band_names)
    assert {module: names for module, names in found.items()
            if names and module not in OWNERS} == {}
    assert found["matrices"] and found["polynomials"]


def test_isolation_is_never_called_with_a_keyword():
    assert {module: calls for module, calls in _scan(_keyword_isolations).items() if calls} == {}


def test_the_checks_see_a_planted_band_and_keyword():
    tree = ast.parse(
        "from .matrices import Matrix, _band\n"
        "def report(m):\n"
        "    band = _band(m._form[1])\n"
        "    shim = getattr(spectra, '_band', None)\n"
        "    boxes = isolate_real_roots(p, band=band)\n"
        "    more = polynomials.isolate_real_roots(p, **route)\n"
        "    return m.charpoly()._band, isolate_real_roots(p), band\n")
    assert _band_names(tree) == ["line 1: _band", "line 3: _band", "line 4: '_band'",
                                 "line 7: m.charpoly()._band"]
    assert _keyword_isolations(tree) == [
        "line 5: isolate_real_roots(p, band=band)",
        "line 6: polynomials.isolate_real_roots(p, **route)"]
