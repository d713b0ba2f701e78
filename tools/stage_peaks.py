"""Peak RSS of a smear run after each stage: the chain, then the chain plus
its boundary residuals, and the chain's wall time, for the three runs of
README's memory table.

    python tools/stage_peaks.py                  # the table's sizes
    python tools/stage_peaks.py --samples 20000  # every run at 20,000 samples

Each run is one fresh process (peak RSS belongs to a process), with BLAS on
one thread: it builds the net at the CLI's default radius, accumulates the
chain at the CLI's default seed, timing it, reads the peak RSS, computes
boundary_residuals and reads it again.  Prints one markdown table row per run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

RUNS = (("genus2", 6.0, 1_000_000), ("holed_torus", 4.0, 327_680), ("holed_torus", 8.0, 327_680))
NET_RADIUS = 0.4  # the CLI's --net-radius default
SEED = 1789  # the CLI's --seed default


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(model_name: str, L: float, samples: int) -> dict:
    """One run in this process: keys per sample, the peak RSS in MB after the
    chain and after its residuals, and the chain's wall time in seconds."""
    from hypsmear.smear import accumulate_chain, boundary_residuals, build_net, load_model
    from hypsmear.smear.surface import bundled_model_path

    model = load_model(bundled_model_path(model_name))
    net = build_net(model, NET_RADIUS)
    t0 = time.perf_counter()
    chain = accumulate_chain(model, net, L, samples, seed=SEED)
    chain_s = time.perf_counter() - t0
    chain_mb = _peak_mb()
    boundary_residuals(chain)
    return {"keys_per_sample": len(chain) / samples, "chain_mb": chain_mb,
            "residuals_mb": _peak_mb(), "chain_s": chain_s}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--samples", type=int, default=None, help="samples of every run")
    p.add_argument("--run", nargs=3, metavar=("MODEL", "L", "SAMPLES"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.run:
        model_name, L, samples = args.run
        print(json.dumps(measure(model_name, float(L), int(samples))))
        return 0
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    print("| run | keys per sample | chain | chain + `boundary_residuals` | chain s |")
    print("|---|---|---|---|---|")
    for model_name, L, samples in RUNS:
        samples = args.samples or samples
        out = subprocess.run([sys.executable, __file__, "--run", model_name, str(L), str(samples)],
                             env=env, check=True, capture_output=True, text=True).stdout
        r = json.loads(out.splitlines()[-1])
        print(f"| `{model_name}`, L = {L:g}, {samples:,} samples | {r['keys_per_sample']:.2f} "
              f"| {r['chain_mb']:.0f} MB | {r['residuals_mb']:.0f} MB | {r['chain_s']:.1f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
