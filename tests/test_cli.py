import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hypsmear
from hypsmear import cli
from hypsmear.bounds import gap_bound, tube_factor, vl_estimate
from hypsmear.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_vn_json(capsys):
    code, out, _ = run(capsys, "vn", "--dim", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 2
    assert doc["v_n"] == pytest.approx(math.pi, abs=1e-11)
    assert "3.14159265359" in out  # 12 significant digits


def test_vn_rejects_dim_1(capsys):
    code, _, err = run(capsys, "vn", "--dim", "1")
    assert code == 1
    assert "error" in err


def test_vn_above_three_is_quick_and_fails_where_it_loses_accuracy(capsys):
    for n in (4, 5, 6):
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "vn", "--dim", str(n))
        assert time.perf_counter() - t0 < 1.0
        assert code == 0 and json.loads(out)["method"] == "schlafli"
    for n in (100, 10000):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "vn", "--dim", str(n))
        assert time.perf_counter() - t0 < 2.0
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_unknown_command_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    # the gluing tower is `curve --kind glue_sequence`
    assert run(capsys, "glue", "--volm", "10", "--volb", "2", "--imax", "3")[0] == 2
    assert run(capsys, "vn")[0] == 2  # missing required --dim


def test_tube_matches_library(capsys):
    code, out, _ = run(capsys, "tube", "--dim", "3", "--t", "1.25")
    assert code == 0
    doc = json.loads(out)
    assert doc["tube_factor"] == pytest.approx(tube_factor(3, 1.25), rel=1e-11)


def test_overflow_is_an_error_line(capsys):
    # an overflowing r g(L+3) made the gap bound a NaN, printed as bare `nan`
    for argv in (("tube", "--dim", "3", "--t", "1000"),
                 ("bound", "--dim", "2", "--edge", "6", "--r", "1e308", "--restarts", "1")):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == "" and err.startswith("error:")


def test_non_finite_numbers_are_usage_errors(capsys):
    # a NaN or infinite float flag would print invalid JSON or run the whole
    # computation on it, and an infinite grid end would never stop
    for value in ("nan", "inf"):
        for argv in (("tube", "--dim", "2", "--t", value),
                     ("bound", "--dim", "2", "--edge", "6", "--r", value),
                     ("curve", "--kind", "glue_sequence", "--grid", "1:2:1",
                      "--volm", value, "--volb", "1"),
                     ("curve", "--kind", "vl_vs_L", "--grid", f"4:{value}:2")):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert "finite" in err or "bad grid" in err


def test_regvol_quadrature(capsys):
    code, out, _ = run(capsys, "regvol", "--dim", "2", "--edge", "2.0", "--tol", "1e-9")
    assert code == 0
    doc = json.loads(out)
    assert doc["volume"] == pytest.approx(1.1616934409423951, abs=1e-7)
    assert doc["converged"] is True


@pytest.mark.parametrize("tol", ["0", "-1"])
def test_regvol_rejects_nonpositive_tol(capsys, tol):
    code, out, err = run(capsys, "regvol", "--dim", "2", "--edge", "2.0", "--tol", tol)
    assert code == 1
    assert out == "" and "abs_tol" in err


def test_vl_fields_and_determinism(capsys):
    args = ("vl", "--dim", "2", "--edge", "4.0", "--restarts", "2", "--seed", "7")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    doc = json.loads(out1)
    assert doc["n"] == 2 and doc["L"] == 4.0 and doc["restarts"] == 2
    assert len(doc["best_perturbation"]) == 3
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_bound_reproduces_algebra(capsys):
    code, out, _ = run(
        capsys, "bound", "--dim", "2", "--edge", "4.0", "--r", "0.05", "--restarts", "2"
    )
    assert code == 0
    doc = json.loads(out)
    manual = doc["vl"] * (1.0 - 0.05 * tube_factor(2, 7.0)) / (1.0 + 0.05 * tube_factor(2, 4.0))
    assert doc["bound"] == pytest.approx(manual, rel=1e-9)


def test_curve_vl_vs_L_csv(capsys):
    code, out, _ = run(
        capsys,
        "curve", "--kind", "vl_vs_L", "--grid", "4:6:2", "--restarts", "2", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    comments = [l for l in lines if l.startswith("#")]
    assert any("seed=" in c for c in comments)
    data = [l for l in lines if not l.startswith("#")]
    assert data[0].split(",")[0] == "L"
    assert len(data) == 3  # header plus the two grid rows
    first = data[1].split(",")
    assert float(first[0]) == 4.0
    assert float(first[1]) == pytest.approx(vl_estimate(2, 4.0, restarts=2).value, abs=1e-9)


def test_curve_bound_vs_r_includes_vl_row(capsys):
    code, out, _ = run(
        capsys,
        "curve", "--kind", "bound_vs_r", "--grid", "0:0.1:0.1",
        "--edge-grid", "4:4:1", "--restarts", "2", "--format", "csv",
    )
    assert code == 0
    rows = [l.split(",") for l in out.strip().split("\n") if not l.startswith("#")]
    header, first = rows[0], rows[1]
    assert header == ["r", "L_best", "bound"]
    v = vl_estimate(2, 4.0, restarts=2).value
    assert float(first[0]) == 0.0
    # at r = 0 the bound degenerates to the plain infimum estimate
    assert float(first[2]) == pytest.approx(v, abs=1e-9)


def test_curve_empty_grid_is_usage_error(capsys):
    code, _, err = run(capsys, "curve", "--kind", "vl_vs_L", "--grid", "6:4:2")
    assert code == 2
    assert "usage error" in err


def test_curve_glue_requires_volumes(capsys, monkeypatch):
    code, _, _ = run(capsys, "curve", "--kind", "glue_sequence", "--grid", "1:3:1")
    assert code == 2

    def no_vl(*args, **kwargs):
        raise AssertionError("vl_estimate ran before the stages were checked")

    # stage indices are whole numbers i >= 1; others were dropped from the output
    monkeypatch.setattr("hypsmear.bounds.vl_estimate", no_vl)
    for grid, bad in (("1:3:0.5", "1.5"), ("0:2:1", "0")):
        code, out, err = run(capsys, "curve", "--kind", "glue_sequence", "--grid", grid,
                             "--volm", "10", "--volb", "2")
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and f"stage {bad} " in err


def test_oversized_grids_are_usage_errors(capsys, monkeypatch):
    # uncapped, each would fill memory before any check: 4:1e15:1 has 1e15
    # points, a step of 1 never advances past 1e16, and stage 1e12 builds
    # 1e12 rows to keep one
    def no_work(*args, **kwargs):
        raise AssertionError("the computation ran before the grid was checked")

    monkeypatch.setattr(cli, "vl_estimate", no_work)
    monkeypatch.setattr(cli, "gluing_ratio_sequence", no_work)
    glue = ("--kind", "glue_sequence", "--volm", "10", "--volb", "2")
    for argv in (("--kind", "vl_vs_L", "--grid", "4:1e15:1"),
                 ("--kind", "vl_vs_L", "--grid", "1e16:1e16:1"),
                 ("--kind", "vl_vs_L", "--grid", "4:14004:1"),
                 ("--kind", "bound_vs_r", "--grid", "0:0.1:0.1", "--edge-grid", "4:1e15:1"),
                 (*glue, "--grid", "1e12:1e12:1"),
                 (*glue, "--grid", "10001:10001:1")):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "curve", *argv)
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == "" and err.startswith("usage error:")
        assert "10000" in err
    # the caps themselves are accepted
    assert len(cli._parse_grid("4:10003:1")) == cli._MAX_POINTS
    monkeypatch.setattr(cli, "gluing_ratio_sequence",
                        lambda volm, volb, imax, n, restarts=6, seed=None: [(imax, 0.1, 0.5)])
    assert run(capsys, "curve", *glue, "--grid", "10000:10000:1")[0] == 0


def test_oversized_restarts_are_usage_errors(capsys, monkeypatch):
    # no restarts at all stays a computation error
    code, out, err = run(capsys, "vl", "--dim", "2", "--edge", "6", "--restarts", "0")
    assert code == 1 and out == "" and "restarts" in err

    # uncapped, 1e8 restarts build 1e8 start arrays before the first optimization
    def no_work(*args, **kwargs):
        raise AssertionError("the computation ran before --restarts was checked")

    monkeypatch.setattr(cli, "vl_estimate", no_work)
    for argv in (("vl", "--dim", "2", "--edge", "6"),
                 ("bound", "--dim", "2", "--edge", "6", "--r", "0.01"),
                 ("curve", "--kind", "vl_vs_L", "--grid", "4:6:2")):
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv, "--restarts", "100000000")
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == "" and err.startswith("usage error:")
        assert "10000" in err


def test_oversized_dim_is_a_usage_error(capsys):
    # 5000 dimensions once overflowed the stack of the recursive tube integral
    code, out, _ = run(capsys, "tube", "--dim", "5000", "--t", "0.001")
    assert code == 0 and json.loads(out)["tube_factor"] == pytest.approx(tube_factor(5000, 0.001))
    for argv in (("tube", "--t", "0.001"), ("vn",), ("regvol", "--edge", "2.0")):
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv, "--dim", "10001")
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == "" and err.startswith("usage error:")
        assert "10000" in err


def test_memory_exhaustion_is_an_error_line():
    # this 6-simplex quadrature needs more than 512 MB; under that address-space
    # limit, set in the child only, its cell arrays cannot be allocated
    def cap():
        limit = 512 << 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(hypsmear.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    argv = ["regvol", "--dim", "6", "--edge", "8", "--tol", "1e-7"]
    res = subprocess.run([sys.executable, "-m", "hypsmear.cli", *argv], preexec_fn=cap,
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr


def test_curve_rejects_flags_of_other_kinds(capsys, monkeypatch):
    # each of these flags is read by one kind only; elsewhere it would be ignored
    base = ("curve", "--grid", "4:4:1", "--restarts", "2")
    for kind, flag in (("vl_vs_L", ("--r", "0.1")), ("bound_vs_r", ("--r", "0.1")),
                       ("vl_vs_L", ("--edge-grid", "4:4:1")),
                       ("bound_vs_L", ("--edge-grid", "4:4:1")),
                       ("bound_vs_L", ("--volm", "10")), ("vl_vs_L", ("--volb", "2"))):
        code, _, err = run(capsys, *base, "--kind", kind, *flag)
        assert code == 2 and "usage error" in err
    # glue_sequence passes --restarts on, with the library's default of 6
    seen = []

    def sequence(volm, volb, imax, n, restarts=6, seed=None):
        seen.append(restarts)
        return [(1, volb / volm, 0.5)]

    monkeypatch.setattr(cli, "gluing_ratio_sequence", sequence)
    glue = ("curve", "--kind", "glue_sequence", "--grid", "1:1:1", "--volm", "10", "--volb", "2")
    assert run(capsys, *glue, "--restarts", "3")[0] == 0
    assert run(capsys, *glue)[0] == 0
    assert seen == [3, 6]


def test_glue_halving_ratios(capsys):
    code, out, _ = run(capsys, "curve", "--kind", "glue_sequence", "--grid", "1:3:1",
                       "--volm", "10", "--volb", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == ["i", "r", "bound"]
    rows = doc["rows"]
    assert [row[0] for row in rows] == [1, 2, 3]
    assert rows[0][1] == pytest.approx(0.2, rel=1e-15)
    assert rows[2][1] == pytest.approx(0.2 / 3.0, rel=1e-15)
    bounds = [row[2] for row in rows]
    assert bounds == sorted(bounds)


def test_format_only_on_tabular_commands(capsys):
    # a flag that would be ignored is a usage error, not silent JSON
    assert run(capsys, "vl", "--dim", "2", "--edge", "4.0", "--format", "csv")[0] == 2
    assert run(capsys, "smear", "run", "--model", "genus2", "--edge", "4.0",
               "--samples", "10", "--format", "csv")[0] == 2
    code, out, _ = run(capsys, "curve", "--kind", "glue_sequence", "--grid", "1:2:1",
                       "--volm", "10", "--volb", "2", "--format", "csv")
    assert code == 0
    assert out.split("\n")[1] == "i,r,bound"


def test_tol_only_on_regvol(capsys):
    assert run(capsys, "vn", "--dim", "2", "--tol", "1e-9")[0] == 2
    assert run(capsys, "tube", "--dim", "3", "--t", "1.25", "--tol", "1e-9")[0] == 2


def test_smear_run_summary_and_csv(capsys, tmp_path):
    csv_path = tmp_path / "cells.csv"
    code, out, _ = run(
        capsys,
        "smear", "run", "--model", "holed_torus", "--edge", "4.0",
        "--samples", "4000", "--csv", str(csv_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["model"] == "holed_torus"
    assert doc["samples"] == 4000 and doc["seed"] == 1789
    assert doc["checks"]["sandwich"] is True
    assert doc["checks"]["residuals"] is True
    assert doc["checks"]["ratio"] is True
    rows = [l for l in csv_path.read_text().split("\n") if l and not l.startswith("#")]
    assert len(rows) - 1 == doc["entry_count"]  # header row
    assert rows[0].startswith("k0,")


def test_unwritable_output_paths_fail_before_the_work(capsys, tmp_path, monkeypatch):
    missing = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "vn", "--dim", "2", "--out", str(missing))
    assert code == 1
    assert out == "" and err.startswith("error:") and "No such file" in err

    def no_chain(*args, **kwargs):
        raise AssertionError("the chain ran before the output paths were checked")

    monkeypatch.setattr("hypsmear.smear.accumulate_chain", no_chain)
    code, out, err = run(capsys, "smear", "run", "--model", "genus2", "--edge", "6.0",
                         "--samples", "1000", "--csv", str(missing))
    assert code == 1
    assert out == "" and err.startswith("error:")
    # the check leaves no file behind when the command then fails
    unused = tmp_path / "unused.json"
    assert run(capsys, "vn", "--dim", "1", "--out", str(unused))[0] == 1
    assert not unused.exists()


def test_csv_and_out_on_one_file_fail_before_the_work(capsys, tmp_path, monkeypatch):
    def no_chain(*args, **kwargs):
        raise AssertionError("the chain ran before the output paths were checked")

    monkeypatch.setattr("hypsmear.smear.accumulate_chain", no_chain)
    monkeypatch.chdir(tmp_path)
    # the JSON summary would overwrite the CSV; both spellings name one file
    for out in ("cells.txt", str(tmp_path / "cells.txt")):
        code, stdout, err = run(capsys, "smear", "run", "--model", "genus2", "--edge", "6.0",
                                "--samples", "1000", "--out", out, "--csv", "cells.txt")
        assert code == 2
        assert stdout == "" and err.startswith("usage error:")
    assert not (tmp_path / "cells.txt").exists()


def test_smear_run_rejects_unknown_model(capsys):
    code, _, err = run(
        capsys, "smear", "run", "--model", "nope", "--edge", "4.0", "--samples", "100"
    )
    assert code == 1
    assert "error" in err


def test_smear_malformed_model_is_an_error(capsys, tmp_path):
    # a model file without generators, and a directory given as the model
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "polygon": [], "base": [1, 0, 0], "chi": -1}))
    for path, why in ((bad, "generators"), (tmp_path, "not found")):
        code, out, err = run(capsys, "smear", "check", "--model", str(path),
                             "--edge", "4.0", "--samples", "100")
        assert code == 1
        assert out == "" and err.startswith("error:") and why in err


def test_smear_model_with_a_misshapen_polygon_is_an_error(capsys, tmp_path):
    from hypsmear.smear.surface import bundled_model_path

    doc = json.loads(bundled_model_path("genus2").read_text())
    path = tmp_path / "genus2.json"
    for polygon in ([], doc["polygon"][:2], [row + [0.0] for row in doc["polygon"]]):
        path.write_text(json.dumps({**doc, "polygon": polygon}))
        code, out, err = run(capsys, "smear", "check", "--model", str(path),
                             "--edge", "4.0", "--samples", "100")
        assert code == 1
        assert out == "" and err.startswith("error:") and "polygon" in err


def test_smear_model_off_the_origin_is_an_error(capsys, tmp_path):
    from hypsmear.smear.surface import bundled_model_path

    doc = json.loads(bundled_model_path("holed_torus").read_text())
    path = tmp_path / "torus.json"
    path.write_text(json.dumps({**doc, "base": [math.cosh(1.0), math.sinh(1.0), 0.0]}))
    code, out, err = run(capsys, "smear", "check", "--model", str(path),
                         "--edge", "4.0", "--samples", "100")
    assert code == 1
    assert out == "" and err.startswith("error:") and "origin" in err


def test_smear_check_zero_violations(capsys):
    code, out, _ = run(
        capsys,
        "smear", "check", "--model", "holed_torus", "--edge", "4.0", "--samples", "4000",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == 0


@pytest.mark.parametrize("flag, value", [("--samples", "0"), ("--edge", "0.5")])
def test_smear_check_rejects_input_it_cannot_honour(capsys, flag, value):
    args = {"--model": "holed_torus", "--edge": "4.0", "--samples": "100", flag: value}
    code, out, err = run(capsys, "smear", "check", *(x for kv in args.items() for x in kv))
    assert code == 1
    assert out == "" and "error" in err


def test_out_files_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(
            capsys,
            "smear", "run", "--model", "holed_torus", "--edge", "4.0",
            "--samples", "3000", "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_smear_edge_past_the_orbit_budget_is_an_error(capsys):
    # the torus lines at L = 22 drift off the orbit; the search stops at its
    # image budget instead of handing the chain spurious lines
    start = time.perf_counter()
    code, out, err = run(capsys, "smear", "run", "--model", "holed_torus", "--edge", "22",
                         "--samples", "10")
    assert code == 1
    assert out == "" and err.startswith("error:") and "orbit search" in err
    assert time.perf_counter() - start < 10.0


def test_smear_edge_12_runs_on_the_bordered_model(capsys):
    # past the flat margins' ceiling of L = 11.6; its lines match the decimal
    # oracle (test_surface.py)
    code, out, err = run(capsys, "smear", "run", "--model", "holed_torus", "--edge", "12",
                         "--samples", "10000")
    assert code == 0 and err == ""
    assert json.loads(out)["L"] == 12


def test_smear_edge_past_the_polar_drift_is_an_error(capsys):
    # from L = 20 the float lines hold a spurious lift, and their polars drift
    code, out, err = run(capsys, "smear", "run", "--model", "holed_torus", "--edge", "20",
                         "--samples", "10")
    assert code == 1
    assert out == "" and err.startswith("error:") and "drifted" in err


def test_vl_edge_past_the_supported_range_is_an_error(capsys):
    code, out, err = run(capsys, "vl", "--dim", "3", "--edge", "40")
    assert code == 1
    assert out == "" and "(0, 32]" in err


def test_commands_run_without_scipy(tmp_path):
    # scipy is a test dependency only: with it made unimportable, the bounds
    # commands and the smear commands still run
    out = str(tmp_path / "o.json")
    commands = [
        ["vn", "--dim", "3"],
        ["vn", "--dim", "5"],
        ["vl", "--dim", "2", "--edge", "6", "--restarts", "1"],
        ["vl", "--dim", "3", "--edge", "4", "--restarts", "1"],
        ["bound", "--dim", "2", "--edge", "6", "--r", "0.01", "--restarts", "1"],
        ["smear", "run", "--model", "holed_torus", "--edge", "4.0", "--samples", "2000"],
        ["smear", "check", "--model", "holed_torus", "--edge", "4.0", "--samples", "2000"],
    ]
    script = f"""
import sys
sys.modules["scipy"] = None
import hypsmear.cli
print([hypsmear.cli.main(argv + ["--out", {out!r}]) for argv in {commands!r}])
"""
    src = str(Path(hypsmear.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    res = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    assert res.stdout.strip() == str([0] * len(commands)), res.stderr
