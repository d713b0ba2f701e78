"""The checked-in measurement scripts run, at a small size."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def chain_times():
    """chain_times.py's table at 2,000 samples: its column names and, per
    run, the run's name and its cells by column."""
    out = subprocess.run([sys.executable, str(TOOLS / "chain_times.py"), "--samples", "2000"],
                         check=True, capture_output=True, text=True, timeout=300).stdout
    header, _, *rows = out.splitlines()
    columns = [c.strip() for c in header.split("|")[2:-1]]
    return columns, [(r.split("|")[1].strip(),
                      dict(zip(columns, (float(c) for c in r.split("|")[2:-1])))) for r in rows]


RUN_NAMES = [
    "`genus2`, L = 6, 2,000 samples",
    "`holed_torus`, L = 4, 2,000 samples",
    "`holed_torus`, L = 8, 2,000 samples",
]


def test_stage_peaks_prints_one_row_per_run(chain_times):
    columns, rows = chain_times
    assert columns[-2:] == ["chain MB", "chain + residuals MB"]
    assert [name for name, _ in rows] == RUN_NAMES
    for _, cells in rows:
        assert 0 < cells["chain MB"] <= cells["chain + residuals MB"]
        assert cells["chain s"] >= 0


def test_chain_times_prints_one_row_per_model(chain_times):
    columns, rows = chain_times
    assert columns[0] == "keys per sample"
    assert columns[-5:] == ["other", "chain s", "residuals s", "chain MB", "chain + residuals MB"]
    assert [name for name, _ in rows] == RUN_NAMES
    for _, cells in rows:
        # every layer of this checkout is a function the tool times
        cells = dict(cells)
        assert cells.pop("keys per sample") > 0
        chain_mb, residuals_mb = cells.pop("chain MB"), cells.pop("chain + residuals MB")
        assert 0 < chain_mb <= residuals_mb
        assert cells["chain s"] > 0 and cells["residuals s"] > 0
        assert all(t >= 0 for c, t in cells.items() if c != "other")
        layers = sum(t for c, t in cells.items() if c not in ("chain s", "residuals s"))
        # each printed time is rounded to 0.01
        assert layers == pytest.approx(cells["chain s"], abs=0.005 * len(cells))


def test_setup_times_prints_one_row_per_model():
    out = subprocess.run([sys.executable, str(TOOLS / "setup_times.py"), "--reps", "1"],
                         check=True, capture_output=True, text=True, timeout=300).stdout
    times, explored, torus = (t.splitlines()[2:] for t in out.split("\n\n"))
    names = ["`genus2`, L = 6", "`holed_torus`, L = 4"]
    assert [r.split("|")[1].strip() for r in times] == names
    for r in times:
        load, ball, lines, rest, setup = (float(c.split()[0]) for c in r.split("|")[3:8])
        assert 0 < load + ball + lines + rest < setup
    # explored images are deterministic: build_net's lines and ball, GammaNet's
    # ball and the chain's lines, none on a closed model's lines
    assert [r.split("|")[1:6] for r in explored] == [
        [" " + names[0] + " ", " 0 ", " 2,208 ", " 1,696 ", " 0 "],
        [" " + names[1] + " ", " 8 ", " 32 ", " 32 ", " 88 "],
    ]
    cells = {r.split("|")[1].strip(): r.split("|")[2:5] for r in torus}
    assert [c.strip() for c in cells["12"]] == ["920", "196", "1.2e-08"]
    assert [c.strip() for c in cells["14"]] == ["1,672", "356", "8.9e-08"]
    assert "refused: boundary line polars drifted" in cells["23.65"][0]
    assert "refused: orbit search explored over 200000 images" in cells["25.25"][0]


def test_quad_times_prints_one_row_per_dimension_and_spec():
    out = subprocess.run([sys.executable, str(TOOLS / "quad_times.py"), "--simplices", "2",
                          "--reps", "1"],
                         check=True, capture_output=True, text=True, timeout=300).stdout
    rows = [r.split("|")[1:5] for r in out.splitlines()[2:]]
    assert [(n.strip(), spec.split()[0]) for n, spec, _, _ in rows] == [
        (n, spec) for n in ("2", "3", "4") for spec in ("search", "final")]
    for _, _, ms, sweeps in rows:
        assert float(ms) > 0 and float(sweeps) > 0


def test_code_lines_rows_sum_to_the_total():
    out = subprocess.run([sys.executable, str(TOOLS / "code_lines.py")],
                         check=True, capture_output=True, text=True, timeout=60).stdout
    rows = [r.split("|")[1:3] for r in out.splitlines()[2:]]
    counts = {name.strip(): int(c.replace(",", "")) for name, c in rows}
    total = counts.pop("total")
    assert "hypsmear/bounds.py" in counts and all(c > 0 for c in counts.values())
    assert sum(counts.values()) == total
