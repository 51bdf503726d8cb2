"""Every demo runs to its end; between them they call every tensor operation."""

import io
import runpy
from contextlib import redirect_stdout
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(path):
    out = io.StringIO()
    with redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue()
