"""Each demo's stdout, byte for byte against its golden file in tests/data."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    # an empty glob would leave the parametrized test below with nothing to check
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_is_the_golden_one(capsys, demo):
    runpy.run_path(str(demo), run_name="__main__")
    golden = ROOT / "tests" / "data" / f"demo_{demo.name[:2]}.txt"
    assert capsys.readouterr().out.encode() == golden.read_bytes()
