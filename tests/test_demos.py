"""Every script in demos/ runs to completion with the package from src/ and
prints the bytes pinned in tests/goldens/demos/."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
GOLDENS = os.path.join(ROOT, "tests", "goldens", "demos")


def test_demos_present():
    assert DEMOS
    assert sorted(os.listdir(GOLDENS)) == [os.path.basename(d)[:-3] + ".txt" for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_exits_cleanly(demo):
    path = [os.path.join(ROOT, "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, demo], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    golden = os.path.join(GOLDENS, os.path.basename(demo)[:-3] + ".txt")
    with open(golden, "rb") as handle:
        assert proc.stdout == handle.read()
