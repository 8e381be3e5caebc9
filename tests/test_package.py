"""What ``import lddg`` loads."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_import_loads_the_library_modules_and_not_the_cli():
    code = ("import sys, lddg; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'lddg'))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "lddg", "lddg._fields", "lddg.data", "lddg.experiments", "lddg.linalg",
        "lddg.losses", "lddg.model", "lddg.regularizers", "lddg.theory",
    ]
