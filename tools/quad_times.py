"""Time of one `klein_volume` call at each of `vl_estimate`'s two quadrature
specs, on seeded perturbed regular simplices of edge 6 at n = 2, 3 and 4.

    python tools/quad_times.py                         # 20 simplices, 5 passes
    python tools/quad_times.py --simplices 2 --reps 1  # a quick run

Each simplex is the regular edge-6 simplex with every vertex moved by the
exponential map of a seeded tangent vector in the unit ball of its frame,
normalized twice, as `vl_estimate`'s objective hands it to `signed_volume`.
Every call runs in this one process with BLAS on one thread.  Per n and spec
it prints the median over the timed passes of the ms per call, and the mean
refinement sweeps per call, counted in a first, untimed pass that wraps
`volume._rule_values` from outside (a call evaluates its first cell, then
once per sweep) and warms the rule caches.  Prints one markdown table.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

from _fresh import ONE_THREAD, SEED, SRC

DIMS = (2, 3, 4)
EDGE = 6.0


def simplices(n: int, count: int) -> list:
    """``count`` seeded perturbed regular simplices of edge EDGE in H^n."""
    import numpy as np

    from hypsmear.bounds import _perturbed_vertices
    from hypsmear.hypgeom import renormalize_rows, transport_from_origin
    from hypsmear.volume import regular_simplex

    rng = np.random.default_rng([SEED, n])
    qs = regular_simplex(n, EDGE)
    bases = np.stack([transport_from_origin(q)[:, 1:] for q in qs])
    out = []
    for _ in range(count):
        g = rng.standard_normal((n + 1, n))
        w = g / np.linalg.norm(g, axis=1, keepdims=True) * rng.random((n + 1, 1)) ** (1.0 / n)
        out.append(renormalize_rows(_perturbed_vertices(qs, bases, w)))
    return out


def measure(n: int, spec, count: int, reps: int) -> tuple:
    """(ms per call, sweeps per call) of klein_volume on ``count`` simplices."""
    from hypsmear import volume

    rows = simplices(n, count)
    rule_values, evals = volume._rule_values, []
    volume._rule_values = lambda *a: evals.append(1) or rule_values(*a)
    try:
        for r in rows:
            volume.klein_volume(r, spec)
    finally:
        volume._rule_values = rule_values
    passes = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for r in rows:
            volume.klein_volume(r, spec)
        passes.append(1e3 * (time.perf_counter() - t0) / count)
    return statistics.median(passes), (len(evals) - count) / count


def main(argv=None) -> int:
    # before the first import of numpy loads BLAS
    os.environ.update(ONE_THREAD)
    sys.path.insert(0, SRC)
    from hypsmear.volume import QuadratureSpec

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--simplices", type=int, default=20, help="simplices per dimension")
    p.add_argument("--reps", type=int, default=5, help="timed passes over them")
    args = p.parse_args(argv)
    if args.simplices < 1 or args.reps < 1:
        p.error("--simplices and --reps must be >= 1")
    # vl_estimate's spec_search and spec_final
    specs = (("search", QuadratureSpec(abs_tol=3e-4, max_subdivisions=200)),
             ("final", QuadratureSpec(abs_tol=1e-6, max_subdivisions=1200)))
    print("| n | spec | ms per call | sweeps per call |\n|---|---|---|---|")
    for n in DIMS:
        for name, spec in specs:
            ms, sweeps = measure(n, spec, args.simplices, args.reps)
            print(f"| {n} | {name} (`abs_tol` {spec.abs_tol:g}) | {ms:.3f} | {sweeps:.2f} |",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
