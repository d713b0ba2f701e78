"""Child process of the benchmark: runs one hypsmear CLI command, or only its
set-up, from the checkout's ``src`` tree and reports timings as JSON.

    python3 perfbench/shim.py setup STATS [MODEL]
    python3 perfbench/shim.py run STATS -- CLI-ARGS...
    python3 perfbench/shim.py trace STATS SPANS -- CLI-ARGS...

``setup`` imports the CLI and, given a model, loads it and builds its net;
it reports the time from interpreter start-up done to net built.
``run`` calls ``hypsmear.cli.main`` and reports the time from ready (after
``build_net`` for smear commands, after imports otherwise) to output
written.  ``trace`` does the same with every layer wrapped by the tracer,
writes the spans to SPANS and adds the per-layer metrics to STATS.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

T_START = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

NET_RADIUS = 0.4  # the CLI's default --net-radius


def _setup(model_name):
    import hypsmear.cli  # noqa: F401  (import cost is part of set-up)

    if model_name:
        from hypsmear.smear import build_net, load_model
        from hypsmear.smear.surface import bundled_model_path

        build_net(load_model(bundled_model_path(model_name)), NET_RADIUS)
    return {"setup_s": time.perf_counter() - T_START}


def _run(cli_args, spans_path=None):
    import hypsmear.cli
    import hypsmear.smear

    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    ready = [time.perf_counter()]
    build_net = hypsmear.smear.build_net

    def build_net_then_ready(*args, **kwargs):
        net = build_net(*args, **kwargs)
        ready[0] = time.perf_counter()
        return net

    # the CLI imports build_net from the package when a smear command runs
    hypsmear.smear.build_net = build_net_then_ready
    code = hypsmear.cli.main(cli_args)
    done = time.perf_counter()
    out = {"exit_code": code, "ready_s": ready[0] - T_START, "wall_s": done - ready[0]}
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["vl_keys_distinct"] = len(set(tracer.vl_keys))
        tracer.dump(spans_path)
    return out


def main(argv) -> int:
    mode, stats_path = argv[0], argv[1]
    if mode == "setup":
        out = _setup(argv[2] if len(argv) > 2 else None)
    elif mode == "run":
        out = _run(argv[argv.index("--") + 1:])
    elif mode == "trace":
        out = _run(argv[argv.index("--") + 1:], spans_path=argv[2])
    else:
        print(f"unknown mode {mode}", file=sys.stderr)
        return 2
    ru = resource.getrusage(resource.RUSAGE_SELF)
    out.update(maxrss_mb=ru.ru_maxrss / 1024.0, user_s=ru.ru_utime, sys_s=ru.ru_stime)
    with open(stats_path, "w") as fh:
        json.dump(out, fh)
    return int(out.get("exit_code", 0))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
