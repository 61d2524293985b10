"""Checks on the test and benchmark tooling around the package."""

import importlib
import inspect
import subprocess
import sys
from pathlib import Path

from elasticmoe import toymoe

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=20)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_property_is_reported_and_the_run_goes_on(tmp_path):
    # Reporting a hypothesis failure imports libcst, which trips a
    # DeprecationWarning; under the repo's warning filters that must not
    # abort the run.
    (tmp_path / "test_prop.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            str(tmp_path / "test_prop.py"),
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in proc.stdout, out
    assert "Falsifying example" in proc.stdout, out
    assert "INTERNALERROR" not in out


def test_perfbench_hooks_exist(monkeypatch):
    # perfbench/run.py --trace 1 wraps these attributes and reads step's
    # mode as its fourth positional argument; an API change that breaks
    # either fails here.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    for name in ("layers", "spans"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        layers = importlib.import_module("layers")
        for point in layers.ALL_POINTS:
            assert hasattr(point.owner, point.attr), point.name
    finally:
        for name in ("layers", "spans"):
            sys.modules.pop(name, None)
    assert list(inspect.signature(toymoe.step).parameters)[3] == "mode"
