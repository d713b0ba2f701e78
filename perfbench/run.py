"""hypsmear benchmark: one real CLI command per repetition, each in a fresh
process, with its output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end ones (set-up time, wall time, peak RSS); with ``--trace 1``
it adds one traced repetition and reports the per-layer metrics instead.
``--workload all`` runs every workload in both modes and prints a table.
See README.md in this directory for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
EXPECTED = HERE / "expected.json"

DEFAULT_SEED = 1789  # the CLI's default --seed; benchmark seed 0 maps to it
RECORDED_SEED = 0
SAMPLES = 327_680  # ten 32768-sample shards
SETUP_RUNS = 7
BLAS_THREADS = 1
DEADLINE_S = 165.0  # a run must end within 180 s
V2 = math.pi
V3 = 1.0149416064096536  # 3 Lambda(pi/3), the ideal regular tetrahedron

WORKLOADS = {
    "smear_genus2": {
        "model": "genus2",
        "args": ["smear", "run", "--model", "genus2", "--edge", "6.0", "--samples", str(SAMPLES)],
    },
    "smear_holed_torus_csv": {
        "model": "holed_torus",
        "args": ["smear", "run", "--model", "holed_torus", "--edge", "4.0", "--samples", str(SAMPLES)],
        "csv": True,
    },
    "bounds_vl3": {"args": ["vl", "--dim", "3", "--edge", "6.0", "--restarts", "6"]},
    # not listed in BENCHMARK.json, to fit its run-time budget (see README.md)
    "bounds_solvek2": {"args": ["solvek", "--dim", "2", "--eta", "0.1"]},
}


# --- environment ------------------------------------------------------------


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def environment(blas_threads: int) -> dict:
    import numpy
    import scipy

    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for i in range(8):
        d = f"{base}/index{i}"
        if not os.path.isdir(d):
            break
        caches[f"L{_read(d + '/level')} {_read(d + '/type')}"] = _read(d + "/size")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": _nproc(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
    }


def env_key(env: dict) -> str:
    """Byte-identical output is promised on one machine and library stack;
    recorded hashes are compared only where this key matches."""
    return f"{env['cpu_model']}|numpy {env['numpy']}|{env['blas']}"


# --- child processes --------------------------------------------------------


class Deadline(Exception):
    pass


def _child(argv: list, env: dict, deadline: float) -> tuple:
    """Run a shim process to completion; returns (wall seconds, stats dict)."""
    stats = OUT / "stats.json"
    stats.unlink(missing_ok=True)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise Deadline()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "shim.py"), argv[0], str(stats), *argv[1:]],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    try:
        _, err = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        raise Deadline()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    wall = time.perf_counter() - t0
    data = json.loads(stats.read_text()) if stats.exists() else {}
    data.setdefault("exit_code", proc.returncode)
    if proc.returncode != 0:
        data["exit_code"] = proc.returncode
        data["stderr"] = err.decode(errors="replace")[-2000:]
    return wall, data


# --- correctness gate -------------------------------------------------------


class Gate:
    """Integrity checks decide `correct`; self-checks are the program's own
    statistical verdicts (the `checks` block of `smear run`).  Both count in
    error_rate; a failing self-check is a finding, not a broken run."""

    def __init__(self):
        self.results: list = []  # (name, ok, kind)

    def check(self, name: str, ok, kind: str = "integrity") -> bool:
        self.results.append((name, bool(ok), kind))
        return bool(ok)

    @property
    def integrity_ok(self) -> bool:
        return all(ok for _, ok, kind in self.results if kind == "integrity")

    def error_rate(self) -> float:
        return sum(not ok for _, ok, _ in self.results) / max(1, len(self.results))

    def integrity_failures(self) -> int:
        return sum(not ok for _, ok, kind in self.results if kind == "integrity")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _check_smear(g: Gate, doc: dict, wl: dict, seed: int, csv_path):
    g.check("samples echoed", doc["samples"] == SAMPLES and doc["seed"] == seed)
    g.check("chain not empty", doc["entry_count"] > 0)
    g.check("ratio finite", math.isfinite(doc["ratio"]["ratio"]) and doc["ratio"]["ratio"] > 0)
    if wl["model"] == "genus2":
        # closed model: no boundary lines, so nothing is discarded or exterior
        g.check("closed model keeps every simplex",
                doc["discarded_plus"] == doc["discarded_minus"] == 0 and doc["ext_mass"] == 0)
    for name, ok in doc["checks"].items():
        g.check(f"checks.{name}", ok is True, "self-check")
    if csv_path is not None:
        rows = bplus = bminus = 0
        classes = set()
        with open(csv_path, newline="") as fh:
            first = fh.readline().strip()
            reader = csv.DictReader(fh)
            for row in reader:
                rows += 1
                bplus += int(row["b_plus"])
                bminus += int(row["b_minus"])
                classes.add(row["class"])
        g.check("csv seed comment", first == f"# seed={seed}")
        g.check("csv rows = entry_count", rows == doc["entry_count"])
        g.check("csv tallies = retained samples",
                bplus == SAMPLES - doc["discarded_plus"] and bminus == SAMPLES - doc["discarded_minus"])
        g.check("csv classes", classes <= {"int", "ext"})


def _check_vl(g: Gate, doc: dict, seed: int, expected: dict):
    g.check("vl fields echoed", (doc["n"], doc["L"], doc["restarts"], doc["seed"]) == (3, 6.0, 6, seed))
    v = doc["value"]
    g.check("vl value > 0", v > 0)
    g.check("vl value <= unperturbed regular volume",
            v <= expected["regular_volume_3_6"] + doc["optimizer_tol"])
    g.check("vl value < v3", v < V3)
    g.check("vl perturbation feasible",
            all(math.sqrt(sum(x * x for x in row)) <= 1.0 + 1e-9 for row in doc["best_perturbation"]))


def _check_solvek(g: Gate, doc: dict, seed: int):
    eta = 0.1
    g.check("solvek fields echoed", (doc["n"], doc["eta"], doc["seed"]) == (2, eta, seed))
    g.check("solvek bound_value >= v2 - eta", doc["bound_value"] >= V2 - eta)
    g.check("solvek k > 0", doc["k"] > 0)
    g.check("solvek L1 on the half-integer grid", doc["L1"] * 2 == round(doc["L1"] * 2))
    g.check("solvek V_L1 > v2 - eta/2", doc["vL1"]["value"] > V2 - eta / 2)


def check_output(g: Gate, name: str, wl: dict, seed: int, stats: dict, out_path: Path,
                 csv_path, expected: dict, recorded) -> dict:
    """Gate one repetition; returns the output hashes."""
    if not g.check("exit code 0", stats.get("exit_code") == 0):
        return {}
    try:
        doc = json.loads(out_path.read_text())
    except (OSError, ValueError):
        g.check("output is JSON", False)
        return {}
    hashes = {"out_sha256": _sha256(out_path)}
    if csv_path is not None:
        hashes["csv_sha256"] = _sha256(csv_path)
    try:
        if name.startswith("smear"):
            _check_smear(g, doc, wl, seed, csv_path)
        elif name == "bounds_vl3":
            _check_vl(g, doc, seed, expected)
        else:
            _check_solvek(g, doc, seed)
    except (KeyError, TypeError, ValueError) as exc:
        g.check(f"output schema ({exc!r})", False)
    if recorded is not None:
        for k, v in hashes.items():
            g.check(f"{k} matches the recorded seed-{RECORDED_SEED} output", v == recorded[k])
    return hashes


# --- one run ----------------------------------------------------------------

COUNTS = ("chain.keys", "chain.faces", "volume.klein_volume.calls",
          "bounds.objective_evals", "bounds.vl_estimate.misses")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    t_begin = time.monotonic()
    deadline = t_begin + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    # single-threaded BLAS: the CLI's matrices are small, and on a shared
    # 2-vCPU VM a second BLAS thread widened the spread for little gain
    blas_threads = min(BLAS_THREADS, _nproc())
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               OMP_NUM_THREADS=str(blas_threads), MKL_NUM_THREADS=str(blas_threads))
    environ = environment(blas_threads)
    expected = json.loads(EXPECTED.read_text())
    prog_seed = (DEFAULT_SEED + seed) % 2**31
    recorded = None
    hash_note = "held-out seed: no byte comparison"
    if seed == RECORDED_SEED:
        if expected["env_key"] == env_key(environ):
            recorded = expected["workloads"][name]
            hash_note = "compared with the recorded output"
        else:
            hash_note = "recorded on another machine or library stack: not compared"

    out_path = OUT / f"{name}.out"
    csv_path = OUT / f"{name}.csv" if wl.get("csv") else None
    cli_args = wl["args"] + ["--seed", str(prog_seed), "--out", str(out_path)]
    if csv_path is not None:
        cli_args += ["--csv", str(csv_path)]

    g = Gate()
    ops = failed_ops = 0
    setups, walls, rss, reps = [], [], [], []
    hashes = {}
    layers = None
    traced_wall = None
    try:
        if not trace:
            for _ in range(SETUP_RUNS):
                _, st = _child(["setup"] + ([wl["model"]] if "model" in wl else []), env, deadline)
                ops += 1
                if g.check("set-up exit code 0", st.get("exit_code") == 0):
                    setups.append(st["setup_s"])
                else:
                    failed_ops += 1
        t_measure = time.monotonic()
        while True:
            t_rep = time.monotonic()
            wall, st = _child(["run", "--"] + cli_args, env, deadline)
            ops += 1
            n_bad = g.integrity_failures()
            hashes = check_output(g, name, wl, prog_seed, st, out_path, csv_path, expected, recorded)
            failed_ops += g.integrity_failures() > n_bad
            reps.append(st)
            if st.get("exit_code") == 0:
                walls.append(st["wall_s"])
                rss.append(st["maxrss_mb"])
            # repetitions are whole commands: start another only if it fits
            rep_s = time.monotonic() - t_rep
            spent = time.monotonic() - t_measure
            reserve = 1.6 * rep_s if trace else 0.0
            if spent + rep_s > seconds or time.monotonic() + rep_s + reserve > deadline:
                break
        if trace:
            spans_path = OUT / f"{name}.spans.json"
            _, st = _child(["trace", str(spans_path), "--"] + cli_args, env, deadline)
            ops += 1
            n_bad = g.integrity_failures()
            hashes = check_output(g, name, wl, prog_seed, st, out_path, csv_path, expected, recorded)
            failed_ops += g.integrity_failures() > n_bad
            if st.get("exit_code") == 0:
                layers = st["layers"]
                traced_wall = st["wall_s"]
                # every distinct vl_estimate key must miss once: caches start cold
                g.check("cold caches: vl_estimate misses = distinct keys",
                        layers["bounds.vl_estimate.misses"] == st["vl_keys_distinct"])
                if recorded is not None:
                    for k in COUNTS:
                        g.check(f"{k} repeats the recorded count", layers[k] == recorded["counts"][k])
    except Deadline:
        g.check("finished within the deadline", False)
        failed_ops += 1

    correct = g.integrity_ok and failed_ops == 0 and bool(walls)
    wall_med = statistics.median(walls) if walls else float("nan")
    metrics = {}
    if not trace:
        metrics = {
            "setup_s": statistics.median(setups) if setups else float("nan"),
            "wall_s": wall_med,
            "peak_rss_mb": max(rss) if rss else float("nan"),
        }
    result = {
        "workload": name,
        "seed": seed,
        "program_seed": prog_seed,
        "cli_args": cli_args,
        "environment": environ,
        "hash_check": hash_note,
        "hashes": hashes,
        "setup_runs_s": setups,
        "wall_runs_s": walls,
        "peak_rss_runs_mb": rss,
        "untraced_reps": reps,
        "checks": g.results,
        "error_rate": g.error_rate(),
        "ops": ops,
        "failed_ops": failed_ops,
        "correct": correct,
        "elapsed_s": time.monotonic() - t_begin,
    }
    if trace and layers is not None:
        samples = SAMPLES if name.startswith("smear") else 0
        layers["error_rate"] = g.error_rate()
        layers["samples_per_s"] = samples / wall_med if samples else 0.0
        layers["trace.overhead_s"] = traced_wall - wall_med
        layers["cli.output_bytes"] = out_path.stat().st_size + (
            csv_path.stat().st_size if csv_path is not None else 0)
        result["layers"] = layers
        metrics = layers
    result["metrics"] = metrics
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


# --- reporting --------------------------------------------------------------

def _units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def _summary(res: dict) -> str:
    bad = [f"{n} ({k})" for n, ok, k in res["checks"] if not ok]
    lines = [
        f"workload {res['workload']}  seed {res['seed']} (program seed {res['program_seed']})",
        "environment " + json.dumps(res["environment"]),
        f"hash check: {res['hash_check']}",
        f"error_rate {res['error_rate']:.4g} ({sum(not ok for _, ok, _ in res['checks'])} of "
        f"{len(res['checks'])} checks failed{': ' + '; '.join(bad) if bad else ''})",
    ]
    if res["workload"].startswith("smear") and res["wall_runs_s"]:
        lines.append(f"samples_per_s {SAMPLES / statistics.median(res['wall_runs_s']):.6g} 1/s")
    return "\n".join(lines)


def _final(res_metrics: dict, units: dict, correct: bool, attempted: int, failed: int) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in res_metrics.items()},
    })


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=RECORDED_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # a terminated benchmark still kills and reaps its child (see _child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "hypsmear" / "cli.py").is_file():
        print(f"error: no hypsmear source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = _units()
    if args.workload != "all":
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(_summary(res))
        for k, v in res["metrics"].items():
            print(f"  {k:42s} {_fmt(v)} {units[k]}")
        print(_final(res["metrics"], units, res["correct"], res["ops"], res["failed_ops"]))
        return 0
    merged, correct, ops, failed = {}, True, 0, 0
    for name in WORKLOADS:
        for trace in (False, True):
            res = run_workload(name, args.seed, args.seconds, trace)
            print(_summary(res))
            for k, v in res["metrics"].items():
                print(f"  {k:42s} {_fmt(v)} {units[k]}")
            if not trace:
                merged.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
                units.update({f"{name}.{k}": units[k] for k in res["metrics"]})
            correct &= res["correct"]
            ops += res["ops"]
            failed += res["failed_ops"]
    print(_final(merged, units, correct, ops, failed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
