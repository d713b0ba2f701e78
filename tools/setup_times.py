"""Time of each set-up stage of a smear run, for both bundled models.

    python tools/setup_times.py           # median of 7 fresh processes per model
    python tools/setup_times.py --reps 1  # one process per model

Each repetition is one fresh process with BLAS on one thread, so the imports
and the search memos start cold, as they do for a CLI user.  It times, in
order: `import hypsmear.cli`, `load_model`, `build_net` at the CLI's default
radius split into its two `element_ball` calls, its `boundary_lines` call
and the rest, and last `_chain_lines` at the benchmark workload's edge.
The set-up column is import + `load_model` + `build_net`, the span that the
benchmark's `setup_s` times.  Prints a markdown table, one row per model.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUNS = (("genus2", 6.0), ("holed_torus", 4.0))  # the smear workloads' --edge
NET_RADIUS = 0.4  # the CLI's --net-radius default
STAGES = ("import", "load_model", "element_ball", "boundary_lines", "build_net_rest", "setup",
          "chain_lines")


def measure(model_name: str, L: float) -> dict:
    """One set-up in this process: seconds per stage."""
    t0 = time.perf_counter()
    import hypsmear.cli  # noqa: F401  (import cost is a stage)
    from hypsmear.smear import build_net, load_model
    from hypsmear.smear.chain import _chain_lines
    from hypsmear.smear.surface import bundled_model_path

    t1 = time.perf_counter()
    model = load_model(bundled_model_path(model_name))
    t2 = time.perf_counter()
    spent = {"element_ball": 0.0, "boundary_lines": 0.0}

    def timed(name):
        method = getattr(model, name)

        def call(radius):
            start = time.perf_counter()
            out = method(radius)
            spent[name] += time.perf_counter() - start
            return out
        return call

    # instance attributes shadow the methods for build_net's calls only
    model.element_ball, model.boundary_lines = timed("element_ball"), timed("boundary_lines")
    build_net(model, NET_RADIUS)
    t3 = time.perf_counter()
    del model.element_ball, model.boundary_lines
    _chain_lines(model, L)
    t4 = time.perf_counter()
    return {"import": t1 - t0, "load_model": t2 - t1, **spent,
            "build_net_rest": t3 - t2 - sum(spent.values()), "setup": t3 - t0,
            "chain_lines": t4 - t3}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--reps", type=int, default=7, help="fresh processes per model")
    p.add_argument("--run", nargs=2, metavar=("MODEL", "L"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.run:
        print(json.dumps(measure(args.run[0], float(args.run[1]))))
        return 0
    if args.reps < 1:
        p.error("--reps must be >= 1")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    print("| model | `import hypsmear.cli` | `load_model` | 2 × `element_ball` | `boundary_lines` "
          "| rest of `build_net` | set-up | `_chain_lines` |")
    print("|---|---|---|---|---|---|---|---|")
    for model_name, L in RUNS:
        runs = []
        for _ in range(args.reps):
            out = subprocess.run([sys.executable, __file__, "--run", model_name, str(L)],
                                 env=env, check=True, capture_output=True, text=True).stdout
            runs.append(json.loads(out.splitlines()[-1]))
        med = {s: statistics.median(r[s] for r in runs) for s in STAGES}
        cells = " | ".join(f"{med[s]:.3f} s" for s in STAGES)
        print(f"| `{model_name}`, L = {L:g} | {cells} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
