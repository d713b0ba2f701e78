"""Time of each set-up stage of a smear run, for both bundled models, and
the images each orbit search explores.

    python tools/setup_times.py           # median of 7 fresh processes per model
    python tools/setup_times.py --reps 1  # one process per model

Each repetition is one fresh process with BLAS on one thread, so the imports
start cold, as they do for a CLI user.  It times, in
order: `import hypsmear.cli`, `load_model`, `build_net` at the CLI's default
radius split into its two `element_ball` calls, its `boundary_lines` call
and the rest, and last `_chain_lines` at the benchmark workload's edge.
The set-up column is import + `load_model` + `build_net`, the span that the
benchmark's `setup_s` times.  Prints three markdown tables: the stage times,
one row per model; the images each of those orbit searches explores; and the
holed_torus chain's lines at edges up to where they are refused.

A search's explored images are the images its explore test passes, which it
hands to `surface._tokens`: the script counts them by wrapping
`SurfaceModel._orbit` and `_tokens` from outside.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from _fresh import NET_RADIUS, child

RUNS = (("genus2", 6.0), ("holed_torus", 4.0))  # the smear workloads' --edge
STAGES = ("import", "load_model", "element_ball", "boundary_lines", "build_net_rest", "setup",
          "chain_lines")
# build_net searches the lines first, then its ball; GammaNet then its ball
SEARCHES = ("lines_build_net", "ball_build_net", "ball_gamma_net", "chain_lines")
TORUS_EDGES = (4.0, 8.0, 12.0, 14.0, 16.0, 20.0, 23.0, 23.6, 23.65, 25.25)


def count_explored(model, log: list) -> None:
    """Shadow model._orbit so that each search appends its explored images
    to ``log``: the rows that surface._tokens sees after the seeds, which
    are the images the explore test passes."""
    from hypsmear.smear import surface

    orbit, tokens = model._orbit, surface._tokens

    def counted(seeds, *args):
        sizes = []
        surface._tokens = lambda x, grid: sizes.append(len(x)) or tokens(x, grid)
        try:
            return orbit(seeds, *args)
        finally:
            surface._tokens = tokens
            log.append(sum(sizes[1:]))
    model._orbit = counted


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
    # explored images per call, in SEARCHES order: 0 where no search ran,
    # as for a closed model's lines
    log, explored = [], []
    count_explored(model, log)

    def timed(name):
        method = getattr(model, name)

        def call(radius):
            start, searches = time.perf_counter(), len(log)
            out = method(radius)
            spent[name] += time.perf_counter() - start
            explored.append(sum(log[searches:]))
            return out
        return call

    # instance attributes shadow the methods for build_net's calls only
    model.element_ball, model.boundary_lines = timed("element_ball"), timed("boundary_lines")
    net = build_net(model, NET_RADIUS)
    t3 = time.perf_counter()
    del model.element_ball, model.boundary_lines
    searches = len(log)
    _chain_lines(model, net, L)
    t4 = time.perf_counter()
    explored.append(sum(log[searches:]))
    return {"import": t1 - t0, "load_model": t2 - t1, **spent,
            "build_net_rest": t3 - t2 - sum(spent.values()), "setup": t3 - t0,
            "chain_lines": t4 - t3, "explored": dict(zip(SEARCHES, explored))}


def torus_lines() -> list:
    """Explored images, lines and largest |<u,u> - 1| of the holed_torus
    chain's lines at each of TORUS_EDGES, or the error that refuses them."""
    import numpy as np

    from hypsmear.smear import build_net, load_model
    from hypsmear.smear.chain import _chain_lines
    from hypsmear.smear.surface import bundled_model_path

    net = build_net(load_model(bundled_model_path("holed_torus")), NET_RADIUS)
    rows = []
    for L in TORUS_EDGES:
        model, log = load_model(bundled_model_path("holed_torus")), []
        count_explored(model, log)
        try:
            u = _chain_lines(model, net, L)
        except RuntimeError as exc:
            rows.append([L, str(exc)])
            continue
        drift = np.max(np.abs(-(u[:, 0] ** 2) + u[:, 1] ** 2 + u[:, 2] ** 2 - 1.0))
        rows.append([L, log[0], len(u), float(drift)])
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--reps", type=int, default=7, help="fresh processes per model")
    p.add_argument("--run", nargs=2, metavar=("MODEL", "L"), help=argparse.SUPPRESS)
    p.add_argument("--lines", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.run:
        print(json.dumps(measure(args.run[0], float(args.run[1]))))
        return 0
    if args.lines:
        print(json.dumps(torus_lines()))
        return 0
    if args.reps < 1:
        p.error("--reps must be >= 1")
    print("| model | `import hypsmear.cli` | `load_model` | 2 × `element_ball` | `boundary_lines` "
          "| rest of `build_net` | set-up | `_chain_lines` |")
    print("|---|---|---|---|---|---|---|---|")
    explored = []
    for model_name, L in RUNS:
        runs = [child(__file__, "--run", model_name, L) for _ in range(args.reps)]
        med = {s: statistics.median(r[s] for r in runs) for s in STAGES}
        cells = " | ".join(f"{med[s]:.3f} s" for s in STAGES)
        print(f"| `{model_name}`, L = {L:g} | {cells} |", flush=True)
        explored.append((model_name, L, runs[0]["explored"]))
    print("\n| model | explored images: `build_net` lines | `build_net` ball | `GammaNet` ball "
          "| `_chain_lines` |")
    print("|---|---|---|---|---|")
    for model_name, L, n in explored:
        print(f"| `{model_name}`, L = {L:g} | " + " | ".join(f"{n[s]:,}" for s in SEARCHES) + " |")
    print("\n| `holed_torus` chain, L | explored images | lines | max \\|<u,u> - 1\\| |")
    print("|---|---|---|---|")
    for row in child(__file__, "--lines"):
        cells = (f"{row[1]:,} | {row[2]:,} | {row[3]:.2g}" if len(row) == 4
                 else "refused: " + row[1].replace("|", "\\|") + " | | ")
        print(f"| {row[0]:g} | {cells} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
