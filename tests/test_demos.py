"""Each demo script prints exactly its pinned output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demos_and_goldens_pair_up():
    goldens = {g.name for g in GOLDEN.glob("demo_*.txt")}
    assert DEMOS and {f"demo_{d.name[:2]}.txt" for d in DEMOS} == goldens


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_matches_golden(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == (GOLDEN / f"demo_{demo.name[:2]}.txt").read_text(encoding="ascii")
