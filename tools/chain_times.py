"""Seconds each layer of one chain run takes, for the two runs of the
benchmark's smear workloads.

    python tools/chain_times.py                      # 327,680 samples per run
    python tools/chain_times.py --samples 2000       # a quick run
    python tools/chain_times.py --src OTHER/src      # another checkout's code

Each run is one fresh process with BLAS on one thread: it builds the net at
the CLI's default radius, then accumulates the chain at the CLI's default
seed and computes its boundary residuals, each timed whole.  Inside the
chain, the layer functions are wrapped from outside and each layer counts
its self time, so a layer's nested calls count for their own layers: the
sampler, the frame build, `reduce_batch`/`fold_batch`, the rest of
`GammaNet.assign`, the key build (with the new keys' face tokens), hashing
and numbering, the new-key order, the hash index (search and update), the
new keys' areas and the rest of `_absorb`.  "other" is the chain's time
outside them.  A layer the code does not have as a function prints "-",
its time counted in the layer around it.  Prints one markdown table row
per run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

RUNS = (("genus2", 6.0), ("holed_torus", 4.0))
SAMPLES = 327_680  # the benchmark's smear workloads
NET_RADIUS = 0.4  # the CLI's --net-radius default
SEED = 1789  # the CLI's --seed default
CHAIN = "hypsmear.smear.chain"
# (column, module, attribute); a dotted attribute is a method
LAYERS = (
    ("sampler", CHAIN, "_rejection_positions"),
    ("frames", CHAIN, "_frame_matrices"),
    ("reduce/fold", "hypsmear.smear.surface", "SurfaceModel.reduce_batch"),
    ("reduce/fold", "hypsmear.smear.surface", "SurfaceModel.fold_batch"),
    ("assign", "hypsmear.smear.net", "GammaNet.assign"),
    ("keys", CHAIN, "_key_rows"),
    ("keys", CHAIN, "_element_tokens"),
    ("numbering", CHAIN, "_row_hash"),
    ("numbering", CHAIN, "_number_rows"),
    ("order", CHAIN, "_lex_order"),
    ("index", CHAIN, "_HashIndex.find"),
    ("index", CHAIN, "_HashIndex.add"),
    ("areas", CHAIN, "triangle_areas"),
    ("absorb rest", CHAIN, "SmearChain._absorb"),
)
COLUMNS = list(dict.fromkeys(col for col, _, _ in LAYERS)) + ["other", "chain", "residuals"]


def install(times: Counter) -> tuple:
    """Wrap every layer function that exists; returns the columns wrapped and
    a callable that restores the originals."""
    stack, restore, found = [0.0], [], set()
    clock = time.perf_counter

    def wrap(col, fn):
        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                times[col] += dt - stack.pop()
                stack[-1] += dt

        return timed

    for col, modname, attr in LAYERS:
        owner = importlib.import_module(modname)
        *cls, name = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0], None)
        fn = vars(owner).get(name) if owner is not None else None
        if fn is None:
            continue
        found.add(col)
        setattr(owner, name, wrap(col, fn))
        restore.append((owner, name, fn))
    return found, lambda: [setattr(o, n, f) for o, n, f in restore]


def measure(model_name: str, L: float, samples: int) -> dict:
    """One run in this process: seconds per column, None for a layer the
    code does not have."""
    from hypsmear.smear import accumulate_chain, boundary_residuals, build_net, load_model
    from hypsmear.smear.surface import bundled_model_path

    model = load_model(bundled_model_path(model_name))
    net = build_net(model, NET_RADIUS)
    times = Counter()
    found, restore = install(times)
    t0 = time.perf_counter()
    chain = accumulate_chain(model, net, L, samples, seed=SEED)
    times["chain"] = time.perf_counter() - t0
    restore()
    t0 = time.perf_counter()
    boundary_residuals(chain)
    times["residuals"] = time.perf_counter() - t0
    times["other"] = times["chain"] - sum(times[c] for c in found)
    return {c: (times[c] if c in found or c in ("other", "chain", "residuals") else None)
            for c in COLUMNS}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--samples", type=int, default=SAMPLES, help="samples of every run")
    p.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                   help="source directory to time (default: this checkout's)")
    p.add_argument("--run", nargs=2, metavar=("MODEL", "L"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.samples < 1:
        p.error("--samples must be >= 1")
    if args.run:
        print(json.dumps(measure(args.run[0], float(args.run[1]), args.samples)))
        return 0
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [args.src, os.environ.get("PYTHONPATH")])))
    print("| run | " + " | ".join(COLUMNS) + " |")
    print("|---|" + "---|" * len(COLUMNS))
    for model_name, L in RUNS:
        out = subprocess.run([sys.executable, __file__, "--run", model_name, str(L),
                              "--samples", str(args.samples)],
                             env=env, check=True, capture_output=True, text=True).stdout
        r = json.loads(out.splitlines()[-1])
        cells = ["-" if r[c] is None else f"{r[c]:.2f}" for c in COLUMNS]
        print(f"| `{model_name}`, L = {L:g}, {args.samples:,} samples | " + " | ".join(cells)
              + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
