"""The layer boundaries the benchmark tracer wraps must exist in qfiber.

perfbench/layers.py replaces each (module, attribute) of its TARGETS by a
tracing wrapper; a name that no longer resolves makes a traced benchmark
run die with AttributeError.  The table is read from the source, so this
check imports nothing from perfbench/.
"""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def targets():
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in node.targets):
            return [(entry.elts[0].value, entry.elts[1].value)
                    for entry in node.value.elts]
    raise AssertionError("perfbench/layers.py has no TARGETS table")


def test_every_target_resolves():
    found = targets()
    assert found
    missing = []
    for module, attribute in found:
        obj = importlib.import_module(module)
        for part in attribute.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attribute}")
    assert not missing, missing
