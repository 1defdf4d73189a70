"""Every demo script runs to completion as ``__main__``, so removing API
that a demo uses fails the suite."""

import pathlib
import runpy

import pytest

_DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent
                 / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(_DEMOS) >= 6


@pytest.mark.parametrize("path", _DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
