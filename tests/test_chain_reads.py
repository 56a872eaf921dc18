"""Only the squarefree part and root isolation read a polynomial's Sturm chain.

A kind verdict is Hurwitz stability of a twist, and refinement evaluates P
from the form, so neither reads the chain: the twist route and the Sturm
route share only the polynomial, and each checks the other in
``spectrum_report``. This AST walk fails on any call of ``_sturm_chain``
from a function of the package other than its readers below.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "interlace"
READERS = {"squarefree_part", "isolate_real_roots", "_sturm_chain"}


def _chain_calls(tree: ast.AST) -> list[str]:
    """Each ``_sturm_chain`` call as "function: line", by innermost function."""
    found, stack = [], [(tree, None)]
    while stack:
        node, function = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
            if name == "_sturm_chain" and function not in READERS:
                found.append((node.lineno, f"{function or '<module>'}: line {node.lineno}"))
        stack.extend((child, function) for child in ast.iter_child_nodes(node))
    return [text for _, text in sorted(found)]


def test_only_the_squarefree_part_and_isolation_read_the_chain():
    calls = {path.stem: _chain_calls(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {module: found for module, found in calls.items() if found} == {}


def test_the_check_sees_a_chain_call_outside_its_readers():
    calls = _chain_calls(ast.parse(
        "def squarefree_part(p):\n    return _sturm_chain(p)[-1]\n"
        "def is_self_interlacing(p):\n    return len(_sturm_chain(p)) > 1\n"
        "def refine_root(p):\n    ic = polynomials._sturm_chain(p)[0]\n"
        "    def inner():\n        return _sturm_chain(p)\n"
        "def isolate_real_roots(p):\n    return _sturm_chain\n"))
    assert calls == ["is_self_interlacing: line 4", "refine_root: line 6",
                     "inner: line 8"]
