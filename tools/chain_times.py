"""Keys per sample, seconds of each layer and peak RSS of one chain run,
for the benchmark's two smear runs and README's memory table.

    python tools/chain_times.py                      # each run at its own size
    python tools/chain_times.py --samples 2000       # every run at 2,000 samples
    python tools/chain_times.py --src OTHER/src      # another checkout's code
    PYTHONPATH=src python tools/chain_times.py --run genus2 6 10000000  # one run, as JSON

Each run is one fresh process (peak RSS belongs to a process) with BLAS on
one thread: it builds the net at the CLI's default radius, then accumulates
the chain at the CLI's default seed, timed whole, reads the peak RSS,
computes the boundary residuals, timed whole, and reads the peak RSS again.
Inside the chain, the layer functions are wrapped from outside and each
layer counts its self seconds, so a layer's nested calls count for their
own layers: the sampler, the frame build, `reduce_batch`/`fold_batch`, the
rest of `GammaNet.assign`, the key build (with the new keys' face tokens),
hashing and numbering, the new-key order, the hash index (search and
update), the new keys' areas and the rest of `_absorb`.  "other" is the
chain's time outside them.  A layer the code does not have as a function
prints "-", its time counted in the layer around it.  Prints one markdown
table row per run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from collections import Counter

from _fresh import NET_RADIUS, SEED, SRC, child

# (model, L, samples): the benchmark's smear workloads, then the memory table's
RUNS = (("genus2", 6.0, 327_680), ("holed_torus", 4.0, 327_680), ("genus2", 6.0, 1_000_000),
        ("holed_torus", 8.0, 327_680))
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
TIMES = list(dict.fromkeys(col for col, _, _ in LAYERS)) + ["other", "chain s", "residuals s"]
COLUMNS = ["keys per sample", *TIMES, "chain MB", "chain + residuals MB"]


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


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
    """One run in this process: its value per column, None for a layer the
    code does not have."""
    from hypsmear.smear import accumulate_chain, boundary_residuals, build_net, load_model
    from hypsmear.smear.surface import bundled_model_path

    model = load_model(bundled_model_path(model_name))
    net = build_net(model, NET_RADIUS)
    times = Counter()
    found, restore = install(times)
    t0 = time.perf_counter()
    chain = accumulate_chain(model, net, L, samples, seed=SEED)
    times["chain s"] = time.perf_counter() - t0
    restore()
    chain_mb = _peak_mb()
    t0 = time.perf_counter()
    boundary_residuals(chain)
    times["residuals s"] = time.perf_counter() - t0
    times["other"] = times["chain s"] - sum(times[c] for c in found)
    found.update(("other", "chain s", "residuals s"))
    return {"keys per sample": len(chain) / samples,
            **{c: (times[c] if c in found else None) for c in TIMES},
            "chain MB": chain_mb, "chain + residuals MB": _peak_mb()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--samples", type=int, default=None,
                   help="samples of every run (default: each run's own)")
    p.add_argument("--src", default=SRC, help="source directory to time (default: this checkout's)")
    p.add_argument("--run", nargs=3, metavar=("MODEL", "L", "SAMPLES"),
                   help="one run in this process, printed as JSON")
    args = p.parse_args(argv)
    if args.run:
        model_name, L, samples = args.run
        print(json.dumps(measure(model_name, float(L), int(samples))))
        return 0
    if args.samples is not None and args.samples < 1:
        p.error("--samples must be >= 1")
    print("| run | " + " | ".join(COLUMNS) + " |")
    print("|---|" + "---|" * len(COLUMNS))
    # --samples can make two runs one
    for model_name, L, samples in dict.fromkeys((m, L, args.samples or n) for m, L, n in RUNS):
        r = child(__file__, "--run", model_name, L, samples, src=args.src)
        cells = ["-" if r[c] is None else f"{r[c]:.{0 if 'MB' in c else 2}f}" for c in COLUMNS]
        print(f"| `{model_name}`, L = {L:g}, {samples:,} samples | " + " | ".join(cells) + " |",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
