"""Every demo script runs to completion as ``__main__``, and README's
library quick start as written, so removing or renaming API that either
uses fails the suite."""

import pathlib
import runpy

import pytest

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_DEMOS = sorted((_ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(_DEMOS) >= 6


@pytest.mark.parametrize("path", _DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_quick_start_runs():
    # the first python block under "## Library quick start", whose own
    # assert checks the recovery
    section = (_ROOT / "README.md").read_text().split(
        "## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "subspace_pursuit(" in code
    exec(compile(code, "README.md", "exec"), {"__name__": "readme"})
