"""Every narrative demo runs to completion, its own asserts included."""

import runpy
import warnings
from pathlib import Path

import pytest

from elasticmoe.hwmodel import CommOverlapWarning

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    # catch_warnings restores the filters the demos set for themselves.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CommOverlapWarning)
        runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
