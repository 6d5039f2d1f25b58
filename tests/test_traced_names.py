"""The benchmark's span recorder patches module attributes by name; a name
the package no longer has is only reported as missing there, so this check
keeps every traced name resolvable from the tier-1 suite."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_targets():
    """The (module, name) pairs of TARGETS in perfbench/spans.py, read from
    its source without importing it."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} defines no TARGETS")


def test_every_traced_name_resolves():
    targets = traced_targets()
    assert targets
    missing = [
        f"tadgame.{module}.{name}"
        for module, name in targets
        if not callable(getattr(importlib.import_module(f"tadgame.{module}"), name, None))
    ]
    assert not missing, f"traced names missing from the package: {missing}"
