"""Every boundary the benchmark tracer wraps still names an attribute of quiverglue.

``perfbench/spans.py`` patches each ``(layer, owner, attr)`` of its
``BOUNDARIES`` by name, so a function or method that is renamed or
deleted would otherwise fail only when a traced benchmark runs.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _boundaries() -> list[tuple]:
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


def test_every_spanned_boundary_resolves():
    missing = []
    for layer, owner, attr, _ in _boundaries():
        home = importlib.import_module(f"quiverglue.{layer}")
        if owner is None:
            found = callable(getattr(home, attr, None))
        else:
            # the tracer reads the method from the class's own namespace
            found = attr in vars(getattr(home, owner, object))
        if not found:
            missing.append(f"{layer}.{owner + '.' if owner else ''}{attr}")
    assert not missing, f"spanned names missing from quiverglue: {missing}"
