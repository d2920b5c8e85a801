"""Each demo script runs from the checkout and prints its report."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# The realistic-device section of this demo bisects for about a minute.
FAST_FLAGS = {"two_party_schemes.py": ["--ideal-only"]}


def test_the_demos_are_found():
    names = {p.name for p in DEMOS}
    assert len(names) >= 4 and set(FAST_FLAGS) <= names


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(demo), *FAST_FLAGS.get(demo.name, [])],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip(), demo.name
