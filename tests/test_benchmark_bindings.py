"""Every function the benchmark's tracer wraps still lives where it looks.

``perfbench/tracing.py`` names each traced function as (layer, owner,
attribute). The table is read from the source with ``ast`` (nothing there
runs), so a change that deletes, renames or moves a traced function fails
here in seconds rather than only in the benchmark's own self-test.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced() -> tuple:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACING}")


def test_every_traced_binding_resolves_on_the_package():
    traced = _traced()
    assert traced
    for layer, owner, attr in traced:
        module = importlib.import_module(f"interlace.{layer}")
        if owner is None:
            fn = getattr(module, attr, None)
            assert callable(fn), (layer, attr)
            assert fn.__module__ == module.__name__, (layer, attr, fn.__module__)
        else:
            cls = getattr(module, owner, None)
            assert cls is not None, (layer, owner)
            assert callable(vars(cls).get(attr)), (layer, owner, attr)
