"""Package modules import each other at module top, except to break a cycle."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "interlace"

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
