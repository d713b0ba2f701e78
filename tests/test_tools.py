"""The checked-in measurement scripts run, at a small size."""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_stage_peaks_prints_one_row_per_run():
    out = subprocess.run([sys.executable, str(TOOLS / "stage_peaks.py"), "--samples", "2000"],
                         check=True, capture_output=True, text=True, timeout=300).stdout
    rows = out.splitlines()[2:]
    assert [r.split("|")[1].strip() for r in rows] == [
        "`genus2`, L = 6, 2,000 samples",
        "`holed_torus`, L = 4, 2,000 samples",
        "`holed_torus`, L = 8, 2,000 samples",
    ]
    for r in rows:
        chain_mb, residuals_mb = (float(c.split()[0]) for c in r.split("|")[3:5])
        assert 0 < chain_mb <= residuals_mb


def test_setup_times_prints_one_row_per_model():
    out = subprocess.run([sys.executable, str(TOOLS / "setup_times.py"), "--reps", "1"],
                         check=True, capture_output=True, text=True, timeout=300).stdout
    rows = out.splitlines()[2:]
    assert [r.split("|")[1].strip() for r in rows] == ["`genus2`, L = 6", "`holed_torus`, L = 4"]
    for r in rows:
        load, ball, lines, rest, setup = (float(c.split()[0]) for c in r.split("|")[3:8])
        assert 0 < load + ball + lines + rest < setup
