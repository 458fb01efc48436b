"""Every demo prints exactly its file under demos/expected/."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_prints_its_expected_output(demo, monkeypatch, capsys):
    expected = demo.parent / "expected" / f"{demo.stem}.txt"
    assert expected.is_file(), f"{demo.name} has no {expected}"
    monkeypatch.setattr(sys, "argv", [str(demo)])
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out == expected.read_text(encoding="utf-8")
