"""Command-line front end: constants, bounds, certificates, curve data,
and smearing experiments, emitted as JSON or CSV with 12 significant
digits.  Randomized commands embed their effective seed in the output, and
repeated runs with the same arguments produce byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from hypsmear.bounds import (
    DEFAULT_L_GRID,
    DEFAULT_SEED,
    gap_bound,
    solve_k,
    tube_factor,
    vl_estimate,
)
from hypsmear.volume import ideal_regular_volume, regular_simplex_volume

_CLASS_NAMES = {1: "int", 2: "ext"}
# most --grid points, --dim, --restarts, and the highest glue_sequence stage, a command accepts
_MAX_POINTS = 10_000
# CSV rows per block: at 8192 their Python lists (~6 MB) set the torus run's peak RSS
_CSV_BLOCK = 1024
# curve flags that only one --kind reads
_CURVE_FLAG_KIND = {"r": "bound_vs_L", "edge_grid": "bound_vs_r",
                    "volm": "glue_sequence", "volb": "glue_sequence"}


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _json(obj, level: int = 0) -> str:
    pad = "  " * level
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ",\n".join(
            f'{pad}  "{k}": {_json(v, level + 1)}' for k, v in obj.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json(v, level) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return _fmt(obj)


def _tabular(columns, rows, fmt: str, seed) -> str:
    if fmt == "csv":
        lines = [f"# seed={seed}", ",".join(columns)]
        lines += [",".join(_fmt(v) for v in r) for r in rows]
        return "\n".join(lines) + "\n"
    return _json({"seed": seed, "columns": list(columns), "rows": [list(r) for r in rows]}) + "\n"


def _emit(text: str, out):
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_writable(path: str) -> None:
    """Raise OSError now, before any computation, if ``path`` cannot be
    opened for writing; a file this check creates is removed again."""
    existed = os.path.exists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def _finite(text: str) -> float:
    """The argparse type of every float flag: a finite number, or a usage
    error (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    """The argparse type of --seed: an integer >= 0, as numpy's generators
    take it, or a usage error (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _parse_grid(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise _Usage(f"bad grid '{spec}', expected A:B:STEP")
    try:
        a, b, step = (_finite(p) for p in parts)
    except argparse.ArgumentTypeError:
        raise _Usage(f"bad grid '{spec}', expected numeric A:B:STEP")
    if step <= 0:
        raise _Usage("grid step must be positive")
    out = []
    v = a
    while v <= b + 1e-12:
        # counted as it grows: a step below the rounding unit of v never advances it
        if len(out) == _MAX_POINTS:
            raise _Usage(f"grid '{spec}' has more than {_MAX_POINTS} points")
        out.append(round(v, 12))
        v += step
    if not out:
        raise _Usage("empty grid")
    return out


class _Usage(Exception):
    pass


def _load_model(path: str):
    from hypsmear.smear.surface import BUNDLED_MODELS, bundled_model_path, load_model

    if path in BUNDLED_MODELS:
        return load_model(bundled_model_path(path))
    if not os.path.isfile(path):
        raise ValueError(f"model file not found: {path}")
    return load_model(path)


# --- sub-commands -----------------------------------------------------------


def _cmd_vn(args) -> dict:
    vc = ideal_regular_volume(args.dim)
    return {"n": vc.n, "v_n": vc.v_n, "method": vc.method}


def _cmd_regvol(args) -> dict:
    res = regular_simplex_volume(args.dim, args.edge)
    return {"n": args.dim, "edge": args.edge, "volume": res.value,
            "err_estimate": res.err_estimate, "converged": res.converged}


def _cmd_tube(args) -> dict:
    return {"n": args.dim, "t": args.t, "tube_factor": tube_factor(args.dim, args.t)}


def _vl_doc(est) -> dict:
    return {
        "n": est.n,
        "L": est.L,
        "value": est.value,
        "restarts": est.restarts,
        "optimizer_tol": est.optimizer_tol,
        "best_perturbation": [[float(v) for v in row] for row in est.best_perturbation],
    }


def _cmd_vl(args) -> dict:
    est = vl_estimate(args.dim, args.edge, args.restarts, args.seed)
    return {"seed": args.seed, **_vl_doc(est)}


def _cmd_bound(args) -> dict:
    est = vl_estimate(args.dim, args.edge, args.restarts, args.seed)
    val = gap_bound(args.dim, args.edge, args.r, est.value)
    return {
        "seed": args.seed,
        "n": args.dim,
        "L": args.edge,
        "r": args.r,
        "vl": est.value,
        "bound": val,
    }


def _cmd_solvek(args) -> dict:
    cert = solve_k(args.dim, args.eta, seed=args.seed)
    return {
        "seed": args.seed,
        "n": cert.n,
        "eta": cert.eta,
        "L1": cert.L1,
        "k": cert.k,
        "bound_value": cert.bound_value,
        "vL1": _vl_doc(cert.vL1),
    }


def _best_bounds(args, edges, ratios):
    """For each ratio r, the edge of ``edges`` that maximizes the gap bound
    at r, and that bound."""
    ests = [(L, vl_estimate(args.dim, L, args.restarts, args.seed).value) for L in edges]
    for r in ratios:
        L, vl = max(ests, key=lambda le: gap_bound(args.dim, le[0], r, le[1]))
        yield L, gap_bound(args.dim, L, r, vl)


def _cmd_curve(args) -> str:
    for name, kind in _CURVE_FLAG_KIND.items():
        if getattr(args, name) is not None and args.kind != kind:
            raise _Usage(f"--{name.replace('_', '-')} applies only to --kind {kind}")
    grid = _parse_grid(args.grid)
    if args.kind == "vl_vs_L":
        rows = [
            (L, vl_estimate(args.dim, L, args.restarts, args.seed).value) for L in grid
        ]
        return _tabular(("L", "vl"), rows, args.format, args.seed)
    if args.kind == "bound_vs_L":
        rows = []
        for L in grid:
            est = vl_estimate(args.dim, L, args.restarts, args.seed)
            rows.append((L, gap_bound(args.dim, L, args.r or 0.0, est.value)))
        return _tabular(("L", "bound"), rows, args.format, args.seed)
    if args.kind == "bound_vs_r":
        edges = _parse_grid(args.edge_grid) if args.edge_grid else DEFAULT_L_GRID
        rows = [(r, *best) for r, best in zip(grid, _best_bounds(args, edges, grid))]
        return _tabular(("r", "L_best", "bound"), rows, args.format, args.seed)
    if args.kind == "glue_sequence":
        # stage i of the doubling tower glues 2i copies of M along B0: volume
        # 2i vol(M), boundary 2 vol(B0), so ratio volb / (i volm)
        if args.volm is None or args.volb is None:
            raise _Usage("glue_sequence needs --volm and --volb")
        for i in grid:
            if not 1 <= i <= _MAX_POINTS or i != int(i):
                raise _Usage(f"glue_sequence stage {i:g} is not a whole number "
                             f"from 1 to {_MAX_POINTS}")
        if args.volm <= 0 or args.volb <= 0:
            raise ValueError("volumes must be positive")
        stages = sorted({int(i) for i in grid})
        ratios = [args.volb / (i * args.volm) for i in stages]
        rows = [(i, r, bound) for i, r, (_, bound)
                in zip(stages, ratios, _best_bounds(args, DEFAULT_L_GRID, ratios))]
        return _tabular(("i", "r", "bound"), rows, args.format, args.seed)
    raise _Usage(f"unknown curve kind '{args.kind}'")


def _residual_summary(residuals) -> dict:
    zs, tot = residuals.z_score, residuals.total
    edges = list(range(-6, 7))
    hist = np.histogram(zs, bins=edges)[0] if len(zs) else np.zeros(12, dtype=int)
    qualifying = tot >= 30
    max_q = float(np.abs(zs[qualifying]).max()) if qualifying.any() else 0.0
    return {
        "faces": int(len(zs)),
        "max_abs_z": float(np.abs(zs).max()) if len(zs) else 0.0,
        "qualifying_faces": int(qualifying.sum()),
        "max_abs_z_qualifying": max_q,
        "z_histogram_edges": edges,
        "z_histogram_counts": [int(c) for c in hist],
    }


def _smear_chain(args):
    """The chain of a smear command's --model, --net-radius, --edge,
    --samples and --seed."""
    from hypsmear.smear import accumulate_chain, build_net

    model = _load_model(args.model)
    return accumulate_chain(model, build_net(model, args.net_radius), args.edge, args.samples,
                            args.seed)


def _cmd_smear_run(args) -> dict:
    from hypsmear.smear import boundary_residuals, measure_sandwich, ratio_report
    from hypsmear.smear.chain import CLASS_EXT

    chain = _smear_chain(args)
    bp, bm, cls, _ = chain.counts()
    ext = cls == CLASS_EXT
    ext_mass = chain.scale * float(bp[ext].sum() + bm[ext].sum()) / 2.0
    sw = measure_sandwich(chain)
    lo, hi = sw["bracket"]
    sandwich_ok = all(
        lo - 3.0 * sig <= mass <= hi + 3.0 * sig
        for mass, sig in (sw["plus"], sw["minus"])
    )
    # the ratio first, and of the residuals only their summary, so the face
    # columns are freed before the ratio's and the CSV's temporaries
    rep = ratio_report(chain)
    rsum = _residual_summary(boundary_residuals(chain))
    vn = ideal_regular_volume(2).v_n
    doc = {
        "model": args.model,
        "L": args.edge,
        "samples": args.samples,
        "seed": args.seed,
        "net_radius": args.net_radius,
        "entry_count": len(chain),
        "ext_mass": ext_mass,
        "discarded_plus": chain.discarded[1],
        "discarded_minus": chain.discarded[-1],
        "sandwich": {
            "plus_mass": sw["plus"][0],
            "plus_sigma": sw["plus"][1],
            "minus_mass": sw["minus"][0],
            "minus_sigma": sw["minus"][1],
            "bracket_low": lo,
            "bracket_high": hi,
        },
        "residuals": rsum,
        "ratio": {
            "omega": rep.omega,
            "l1_norm": rep.l1_norm,
            "ratio": rep.ratio,
            "implied_norm_upper": rep.implied_norm_upper,
            "mc_sigma": rep.mc_sigma,
        },
        "checks": {
            "sandwich": sandwich_ok,
            "residuals": rsum["max_abs_z_qualifying"] <= 4.0,
            "ratio": rep.ratio <= vn + 3.0 * rep.mc_sigma,
        },
    }
    if args.csv:
        keys, area = chain.key_array(), chain.counts()[3]
        cols = [f"k{j}" for j in range(15)] + ["b_plus", "b_minus", "class", "area"]
        with open(args.csv, "w", newline="") as fh:
            fh.write(f"# seed={args.seed}\n" + ",".join(cols) + "\n")
            # one row per stored cell simplex, streamed from the columns in
            # blocks; each distinct integer of a block is formatted once
            for i in range(0, len(chain), _CSV_BLOCK):
                b = slice(i, i + _CSV_BLOCK)
                ints = np.concatenate([keys[b], bp[b, None], bm[b, None]], axis=1)
                values, inverse = np.unique(ints, return_inverse=True)
                cells = np.empty((len(ints), 18), object)
                cells[:, :17] = np.array([f"{v}," for v in values.tolist()], object)[
                    inverse.reshape(ints.shape)]
                cells[:, 17] = [f"{_CLASS_NAMES[c]},{a:.12g}\n"
                                for c, a in zip(cls[b].tolist(), area[b].tolist())]
                fh.write("".join(cells.ravel().tolist()))
    return doc


def _cmd_smear_check(args) -> dict:
    chain = _smear_chain(args)
    return {
        "model": args.model,
        "L": args.edge,
        "samples": args.samples,
        "seed": args.seed,
        "violations": chain.violations,
    }


# --- parser -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hypsmear",
        description="hyperbolic volume bounds and smearing experiments",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed=False, tabular=False):
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        if tabular:
            sp.add_argument("--format", choices=("json", "csv"), default="json")
        if seed:
            sp.add_argument("--seed", type=_seed, default=DEFAULT_SEED)

    sp = sub.add_parser("vn", help="ideal regular simplex volume")
    sp.add_argument("--dim", type=int, required=True)
    common(sp)
    sp.set_defaults(fn=_cmd_vn)

    sp = sub.add_parser("regvol", help="regular simplex volume from the Schlaefli series")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--edge", type=_finite, required=True)
    common(sp)
    sp.set_defaults(fn=_cmd_regvol)

    sp = sub.add_parser("tube", help="hypersurface tube volume factor")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--t", type=_finite, required=True)
    common(sp)
    sp.set_defaults(fn=_cmd_tube)

    sp = sub.add_parser("vl", help="perturbed regular simplex volume infimum")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--edge", type=_finite, required=True)
    sp.add_argument("--restarts", type=int, default=8)
    common(sp, seed=True)
    sp.set_defaults(fn=_cmd_vl)

    sp = sub.add_parser("bound", help="gap bound at a boundary ratio")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--edge", type=_finite, required=True)
    sp.add_argument("--r", type=_finite, required=True)
    sp.add_argument("--restarts", type=int, default=6)
    common(sp, seed=True)
    sp.set_defaults(fn=_cmd_bound)

    sp = sub.add_parser("solvek", help="certificate for the ratio threshold k(eta)")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--eta", type=_finite, required=True)
    common(sp, seed=True)
    sp.set_defaults(fn=_cmd_solvek)

    sp = sub.add_parser("curve", help="tabulated curves for plotting")
    sp.add_argument("--kind", required=True,
                    choices=("bound_vs_r", "bound_vs_L", "vl_vs_L", "glue_sequence"))
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--grid", required=True, help="A:B:STEP")
    sp.add_argument("--r", type=_finite, default=None, help="bound_vs_L only (default 0)")
    sp.add_argument("--edge-grid", default=None, help="L grid for bound_vs_r")
    sp.add_argument("--volm", type=_finite, default=None, help="glue_sequence only")
    sp.add_argument("--volb", type=_finite, default=None, help="glue_sequence only")
    sp.add_argument("--restarts", type=int, default=6)
    common(sp, seed=True, tabular=True)
    sp.set_defaults(fn=_cmd_curve)

    sp = sub.add_parser("smear", help="smearing experiments on surface models")
    ssub = sp.add_subparsers(dest="subcommand", required=True)

    def smear(name, summary, fn):
        sp2 = ssub.add_parser(name, help=summary)
        sp2.add_argument("--model", required=True, help="bundled name or JSON path")
        sp2.add_argument("--edge", type=_finite, required=True)
        sp2.add_argument("--samples", type=int, required=True)
        sp2.add_argument("--net-radius", type=_finite, default=0.4)
        common(sp2, seed=True)
        sp2.set_defaults(fn=fn)
        return sp2

    smear("run", "accumulate a chain and report statistics", _cmd_smear_run).add_argument(
        "--csv", default=None, help="also dump per-simplex CSV here")
    smear("check", "retention-logic violation count", _cmd_smear_check)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        paths = [p for p in (args.out, getattr(args, "csv", None)) if p]
        if len(paths) == 2 and os.path.realpath(paths[0]) == os.path.realpath(paths[1]):
            raise _Usage("--csv and --out name the same file")
        for flag in ("dim", "restarts"):
            if getattr(args, flag, 0) > _MAX_POINTS:
                raise _Usage(f"--{flag} above {_MAX_POINTS}")
        for path in paths:
            _check_writable(path)
        out = args.fn(args)
        # JSON commands return their document, tabular ones their text
        _emit(out if isinstance(out, str) else _json(out) + "\n", args.out)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OverflowError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
