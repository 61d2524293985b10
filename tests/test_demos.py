"""Every narrative demo and every python block of README.md runs to
completion, its own asserts included, and every demo prints exactly its
recorded stdout, tests/golden/demos/<stem>.txt."""

import re
import runpy
import warnings
from pathlib import Path

import pytest

from elasticmoe.hwmodel import CommOverlapWarning

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    # catch_warnings restores the filters the demos set for themselves.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CommOverlapWarning)
        runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out == (GOLDEN / f"{path.stem}.txt").read_text()


def test_every_golden_has_its_demo():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


def test_readme_code_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CommOverlapWarning)
            exec(compile(block, "README.md", "exec"), {"__name__": "__main__"})
        assert capsys.readouterr().out
