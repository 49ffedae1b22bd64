"""Smoke tests of the measurement scripts under scripts/."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_linf_screen_counts_only_the_rows_linf_sweeps():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "linf_screen.py"),
                          "--count", "1", "--repeat", "1"],
                         env=env, capture_output=True, text=True, timeout=300, check=True).stdout
    summary = json.loads(out)
    assert len(summary) == 7
    for family, s in summary.items():
        assert s["identical_to_every_row"] == "1 of 1", family
        assert 1 <= s["swept_per_op"] <= s["rows_per_op"], family
