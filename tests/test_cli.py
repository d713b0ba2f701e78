import json
import math
import os
import resource
import subprocess
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import pytest

import hypsmear
from hypsmear import cli, volume
from hypsmear.bounds import DEFAULT_L_GRID, gap_bound, tube_factor, vl_estimate
from hypsmear.cli import main
from hypsmear.smear import accumulate_chain


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


def test_negative_seed_is_a_usage_error(capsys):
    # numpy's generators take no negative seed: refused at parse time, which
    # vl at 3 restarts once echoed as seed -5
    for argv in (("vl", "--dim", "2", "--edge", "4", "--restarts", "3", "--seed", "-5"),
                 ("vl", "--dim", "2", "--edge", "4", "--restarts", "8", "--seed", "-5"),
                 ("curve", "--kind", "vl_vs_L", "--grid", "4:5:1", "--seed", "-1"),
                 ("solvek", "--dim", "2", "--eta", "0.1", "--seed", "x")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "--seed" in err and "integer >= 0" in err


def test_negative_smear_seed_is_refused_before_the_net(capsys, monkeypatch):
    import hypsmear.smear

    def no_net(*args):
        raise AssertionError("the net was built")

    monkeypatch.setattr(hypsmear.smear, "build_net", no_net)
    for command in ("run", "check"):
        code, out, err = run(capsys, "smear", command, "--model", "holed_torus", "--edge", "4",
                             "--samples", "100", "--seed", "-1")
        assert code == 2 and out == ""
        assert "--seed" in err and "integer >= 0" in err


def test_regvol_names_the_series_out_of_reach(capsys):
    code, out, err = run(capsys, "regvol", "--dim", "50", "--edge", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: the Schlaefli series at n = 50 is out of reach: ")


def test_regvol_quadrature(capsys):
    code, out, _ = run(capsys, "regvol", "--dim", "2", "--edge", "2.0")
    assert code == 0
    doc = json.loads(out)
    # the closed-form area, correctly rounded to the 12 printed digits
    assert doc["volume"] == float(f"{1.1616934409423951:.12g}")
    assert doc["err_estimate"] <= 1e-13
    assert doc["converged"] is True


def test_regvol_runs_no_quadrature(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("regvol ran a quadrature")

    monkeypatch.setattr(volume, "klein_volume", refuse)
    for n in range(2, 7):
        code, out, _ = run(capsys, "regvol", "--dim", str(n), "--edge", "3")
        assert code == 0 and json.loads(out)["converged"] is True


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
    monkeypatch.setattr(cli, "vl_estimate", no_vl)
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
    monkeypatch.setattr(cli, "vl_estimate", lambda n, L, restarts, seed: SimpleNamespace(value=1.0))
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


def _run_child(argv, preexec_fn=None):
    src = str(Path(hypsmear.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "hypsmear.cli", *argv], preexec_fn=preexec_fn,
                          env=env, capture_output=True, text=True, timeout=120)


def test_memory_exhaustion_is_an_error_line():
    # the chain store of 10^8 samples needs gigabytes: it is refused against
    # physical memory, or, on a host with more, cannot be reserved under a
    # 512 MB address-space limit, set in the child only
    def cap():
        limit = 512 << 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    res = _run_child(["smear", "run", "--model", "genus2", "--edge", "6",
                      "--samples", "100000000"], cap)
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
    assert "Traceback" not in res.stderr


def test_memory_error_is_an_error_line(capsys, monkeypatch):
    # the capped run above exits through the chain store's RuntimeError; this
    # reaches main's own MemoryError clause
    def exhausted(n, L):
        raise MemoryError("out of memory")

    monkeypatch.setattr(cli, "regular_simplex_volume", exhausted)
    assert run(capsys, "regvol", "--dim", "3", "--edge", "2") == (1, "", "error: out of memory\n")


def test_regvol_is_quick_in_a_fresh_process():
    # the adaptive Klein quadrature it used before took 23 to 24 s on a 2-core
    # x86-64 VM, BLAS on one thread, and did not converge
    t0 = time.perf_counter()
    res = _run_child(["regvol", "--dim", "5", "--edge", "3"])
    assert time.perf_counter() - t0 < 2.0
    assert res.returncode == 0 and json.loads(res.stdout)["converged"] is True


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

    def recorded(n, L, restarts, seed):
        seen.append(restarts)
        return SimpleNamespace(value=1.0)

    monkeypatch.setattr(cli, "vl_estimate", recorded)
    glue = ("curve", "--kind", "glue_sequence", "--grid", "1:1:1", "--volm", "10", "--volb", "2")
    assert run(capsys, *glue, "--restarts", "3")[0] == 0
    assert run(capsys, *glue)[0] == 0
    assert seen == [3] * len(DEFAULT_L_GRID) + [6] * len(DEFAULT_L_GRID)


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
    for i, r, _ in rows:
        assert r == pytest.approx(rows[0][1] / i, rel=1e-15)
    bounds = [row[2] for row in rows]
    assert bounds == sorted(bounds)


def test_curve_glue_sequence_invariants(capsys, monkeypatch):
    # stage i has ratio r_1 / i, and a smaller ratio never lowers the best bound
    monkeypatch.setattr(cli, "DEFAULT_L_GRID", (4.0, 6.0))
    code, out, _ = run(capsys, "curve", "--kind", "glue_sequence", "--grid", "1:3:1",
                       "--volm", "10", "--volb", "2", "--restarts", "2")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [i for i, _, _ in rows] == [1, 2, 3]
    r1 = rows[0][1]
    assert r1 == pytest.approx(0.2, rel=1e-15)
    for i, r, _ in rows:
        assert r == pytest.approx(r1 / i, rel=1e-15)
    best = [b for _, _, b in rows]
    assert all(a <= b + 1e-12 for a, b in zip(best, best[1:]))


def test_curve_glue_sequence_guards(capsys, monkeypatch):
    # volumes are checked after the stages and before any V_L estimate
    def no_vl(*args, **kwargs):
        raise AssertionError("vl_estimate ran before the volumes were checked")

    monkeypatch.setattr(cli, "vl_estimate", no_vl)
    for volm, volb in (("0", "2"), ("10", "0"), ("-1", "2")):
        assert run(capsys, "curve", "--kind", "glue_sequence", "--grid", "1:3:1",
                   "--volm", volm, "--volb", volb) == (1, "", "error: volumes must be positive\n")
    code, _, err = run(capsys, "curve", "--kind", "glue_sequence", "--grid", "0:3:1",
                       "--volm", "0", "--volb", "2")
    assert code == 2 and "stage 0 " in err


def test_curve_glue_stage_one_is_bound_vs_r_at_its_ratio(capsys):
    # both read the maximiser over the same edges; stage 1 has r = volb / volm
    glue = run(capsys, "curve", "--kind", "glue_sequence", "--grid", "1:1:1",
               "--volm", "10", "--volb", "2", "--restarts", "2", "--format", "csv")
    by_r = run(capsys, "curve", "--kind", "bound_vs_r", "--grid", "0.2:0.2:1",
               "--edge-grid", "4:16:1", "--restarts", "2", "--format", "csv")
    assert glue[0] == by_r[0] == 0
    (i, r, bound), = (row.split(",") for row in glue[1].splitlines()[2:])
    (r_best, _, bound_best), = (row.split(",") for row in by_r[1].splitlines()[2:])
    assert (i, r, bound) == ("1", r_best, bound_best)


def test_format_only_on_tabular_commands(capsys):
    # a flag that would be ignored is a usage error, not silent JSON
    assert run(capsys, "vl", "--dim", "2", "--edge", "4.0", "--format", "csv")[0] == 2
    assert run(capsys, "smear", "run", "--model", "genus2", "--edge", "4.0",
               "--samples", "10", "--format", "csv")[0] == 2
    code, out, _ = run(capsys, "curve", "--kind", "glue_sequence", "--grid", "1:2:1",
                       "--volm", "10", "--volb", "2", "--format", "csv")
    assert code == 0
    assert out.split("\n")[1] == "i,r,bound"


def test_tol_is_a_usage_error_on_every_command(capsys):
    # regvol reads the Schlaefli series, which has no tolerance to set
    for argv in (("vn", "--dim", "2"), ("regvol", "--dim", "2", "--edge", "2"),
                 ("tube", "--dim", "3", "--t", "1.25"), ("vl", "--dim", "2", "--edge", "4"),
                 ("bound", "--dim", "2", "--edge", "4", "--r", "0.1"),
                 ("solvek", "--dim", "2", "--eta", "0.1"),
                 ("curve", "--kind", "vl_vs_L", "--grid", "4:4:1"),
                 ("smear", "run", "--model", "genus2", "--edge", "4", "--samples", "10"),
                 ("smear", "check", "--model", "genus2", "--edge", "4", "--samples", "10")):
        code, out, err = run(capsys, *argv, "--tol", "1e-9")
        assert code == 2 and out == "" and "--tol" in err


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


def test_smear_run_csv_rows_match_the_chain(capsys, tmp_path, torus, torus_net):
    csv_path = tmp_path / "cells.csv"
    code, out, _ = run(capsys, "smear", "run", "--model", "holed_torus", "--edge", "4.0",
                       "--samples", "3000", "--seed", "5", "--csv", str(csv_path))
    assert code == 0 and json.loads(out)["net_radius"] == 0.4  # the fixture's net
    lines = csv_path.read_text().splitlines()
    assert lines[:2] == ["# seed=5", ",".join(
        [f"k{j}" for j in range(15)] + ["b_plus", "b_minus", "class", "area"])]
    chain = accumulate_chain(torus, torus_net[0], 4.0, 3000, seed=5)
    keys, (bp, bm, cls, area) = chain.key_array(), chain.counts()
    assert len(lines) - 2 == len(chain) > 0
    for i, line in enumerate(lines[2:]):
        fields = line.split(",")
        assert len(fields) == 19
        assert [int(v) for v in fields[:17]] == keys[i].tolist() + [bp[i], bm[i]]
        assert fields[17] == cli._CLASS_NAMES[cls[i]]
        assert float(fields[18]) == float(f"{area[i]:.12g}")


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
    # from L = 25.25 the torus lines drift off the orbit; the search stops at
    # its image budget instead of handing the chain spurious lines
    start = time.perf_counter()
    code, out, err = run(capsys, "smear", "run", "--model", "holed_torus", "--edge", "25.25",
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
    # from L = 23.65 the float lines hold a spurious lift, and their polars drift
    code, out, err = run(capsys, "smear", "run", "--model", "holed_torus", "--edge", "23.65",
                         "--samples", "10")
    assert code == 1
    assert out == "" and err.startswith("error:") and "drifted" in err


def test_smear_center_off_the_sheet_is_an_error(capsys):
    # at L = 16 the 81st frame of the default seed mirrors a cell center so far
    # that rounding leaves <x, x> positive: refused by name, not as NaN tokens
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "smear", "run", "--model", "holed_torus", "--edge", "16",
                             "--samples", "81")
    assert code == 1 and out == ""
    assert err.count("error:") == 1 and "lost its Minkowski norm" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


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
