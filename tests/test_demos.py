"""Each demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# ablation_and_sweep.py takes about 12 s; criterion 08 already runs its
# code path (ablate_components and sweep_rank), so it is left out here
SLOW = {"ablation_and_sweep.py"}
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py") if p.name not in SLOW)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_cleanly(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
