"""In-memory span tracer that wraps hypsmear's layer functions from outside.

The program is not edited: after its modules are imported, every module
attribute or class attribute bound to a traced function is replaced by a
wrapper that records one span (name, start, end, parent) per call.  Spans
stay in memory until the run ends; ``dump`` writes them out and
``layer_metrics`` derives per-layer self times and counts from them.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from collections import Counter

import numpy as np

# (span name, module, attribute); a dotted attribute is a method
TARGETS = [
    ("hypgeom.construct", "hypsmear.hypgeom", "HPoint.__init__"),
    ("hypgeom.construct", "hypsmear.hypgeom", "IdealPoint.__init__"),
    ("hypgeom.construct", "hypsmear.hypgeom", "Isometry.__init__"),
    ("hypgeom.construct", "hypsmear.hypgeom", "Frame.__init__"),
    ("hypgeom.construct", "hypsmear.hypgeom", "GeodesicSimplex.__init__"),
    ("volume.klein_volume", "hypsmear.volume", "klein_volume"),
    ("volume.signed_volume", "hypsmear.volume", "signed_volume"),
    ("volume.triangle_signed_area", "hypsmear.volume", "triangle_signed_area"),
    ("volume.regular_simplex_volume", "hypsmear.volume", "regular_simplex_volume"),
    ("volume.ideal_regular_volume", "hypsmear.volume", "ideal_regular_volume"),
    ("bounds.vl_estimate", "hypsmear.bounds", "vl_estimate"),
    ("bounds.solve_k", "hypsmear.bounds", "solve_k"),
    ("bounds.gap_bound", "hypsmear.bounds", "gap_bound"),
    ("bounds.tube_factor", "hypsmear.bounds", "tube_factor"),
    ("surface.load_model", "hypsmear.smear.surface", "load_model"),
    ("surface.point_in_polygon", "hypsmear.smear.surface", "SurfaceModel.point_in_polygon"),
    ("surface.reduce_batch", "hypsmear.smear.surface", "SurfaceModel.reduce_batch"),
    ("surface.fold_batch", "hypsmear.smear.surface", "SurfaceModel.fold_batch"),
    ("surface.element_ball", "hypsmear.smear.surface", "SurfaceModel.element_ball"),
    ("surface.boundary_lines", "hypsmear.smear.surface", "SurfaceModel.boundary_lines"),
    ("net.build_net", "hypsmear.smear.net", "build_net"),
    ("net.assign", "hypsmear.smear.net", "GammaNet.assign"),
    ("chain.accumulate_chain", "hypsmear.smear.chain", "accumulate_chain"),
    ("chain.sampler", "hypsmear.smear.chain", "_rejection_positions"),
    ("chain.absorb", "hypsmear.smear.chain", "SmearChain._absorb"),
    ("chain.boundary_residuals", "hypsmear.smear.chain", "boundary_residuals"),
    ("chain.reports", "hypsmear.smear.chain", "ratio_report"),
    ("chain.reports", "hypsmear.smear.chain", "measure_sandwich"),
    ("cli.main", "hypsmear.cli", "main"),
]


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _moved(mats) -> int:
    """Rows whose returned element or unfold matrix is not the identity."""
    if mats is None or len(mats) == 0:
        return 0
    return int(np.any(mats != np.eye(3), axis=(1, 2)).sum())


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.spans: list = []  # [name_id, start, end, parent]
        self._stack: list = [-1]
        self.counts: Counter = Counter()
        self.vl_keys: list = []
        self.rss: dict = {}

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        spans, stack = self.spans, self._stack
        before_hook, after = self._before, self._after
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [nid, clock(), 0.0, stack[-1]]
            spans.append(span)
            stack.append(idx)
            before = before_hook(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            after(name, args, out, before)
            return out

        traced.__wrapped__ = fn
        return traced

    @staticmethod
    def _before(name):
        if name in _RSS_SPANS:
            return _maxrss_mb()
        if name == "bounds.vl_estimate":
            from hypsmear import bounds

            return len(bounds._VL_CACHE)
        return None

    def _after(self, name, args, out, before):
        """Counters taken at the span boundary, outside the span's time."""
        c = self.counts
        if name in _RSS_SPANS:
            self.rss[name] = self.rss.get(name, 0.0) + _maxrss_mb() - before
        if name == "surface.point_in_polygon":
            c["surface.point_in_polygon.rows"] += len(np.atleast_2d(args[1]))
            if self._inside("chain.sampler"):
                c["chain.sampler.drawn"] += len(np.atleast_2d(args[1]))
        elif name == "chain.sampler":
            c["chain.sampler.accepted"] += len(out[0])
        elif name == "surface.reduce_batch":
            c["surface.reduce_batch.rows"] += len(out[0])
            c["surface.reduce_batch.moved_rows"] += _moved(out[1])
        elif name == "surface.fold_batch":
            c["surface.fold_batch.folded_rows"] += _moved(out[1])
        elif name == "net.assign":
            c["net.assign.points"] += len(out[0])
        elif name == "volume.klein_volume":
            c["volume.klein_volume.nonconverged"] += int(not out.converged)
        elif name == "bounds.vl_estimate":
            from hypsmear import bounds

            self.vl_keys.append(_vl_key(*args[:4]))
            c["bounds.vl_estimate.misses"] += len(bounds._VL_CACHE) - before
        elif name == "chain.accumulate_chain":
            c["chain.keys"] += len(out)
            c["chain.samples"] += out.samples
            c["chain.discarded"] += sum(out.discarded.values())
        elif name == "chain.boundary_residuals":
            c["chain.faces"] += len(out)

    def _inside(self, name: str) -> bool:
        nid = self._name_ids[name]
        return any(self.spans[i][0] == nid for i in self._stack[1:])

    def install(self) -> None:
        """Replace every reference to each target inside hypsmear's modules."""
        import importlib

        for name, modname, attr in TARGETS:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth]))
                continue
            fn = getattr(mod, attr)
            wrapped = self.wrap(name, fn)
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").startswith("hypsmear"):
                    for k, v in list(vars(m).items()):
                        if v is fn:
                            setattr(m, k, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)

    def layer_metrics(self) -> dict:
        return layer_metrics(self.names, self.spans, self.counts, self.vl_keys, self.rss)


_RSS_SPANS = ("chain.accumulate_chain", "chain.boundary_residuals")


def _vl_key(n, L, restarts=8, seed=1789):
    # mirrors the memo key of bounds.vl_estimate
    return (n, round(float(L), 10), int(restarts), int(seed))


def self_times(names: list, spans: list) -> tuple:
    """Per-name self time (duration minus time covered by child spans) and
    per-name inclusive time of spans not nested in a span of the same name."""
    child = [0.0] * len(spans)
    for nid, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_s: Counter = Counter()
    incl_s: Counter = Counter()
    calls: Counter = Counter()
    for i, (nid, t0, t1, parent) in enumerate(spans):
        name = names[nid]
        self_s[name] += (t1 - t0) - child[i]
        calls[name] += 1
        p = parent
        while p >= 0 and spans[p][0] != nid:
            p = spans[p][3]
        if p < 0:
            incl_s[name] += t1 - t0
    return self_s, incl_s, calls


def _objective_evals(names: list, spans: list) -> int:
    """Objective evaluations of vl_estimate: area or volume calls whose
    parent span is vl_estimate itself (the objective closure is not traced)."""
    ids = {i for i, n in enumerate(names) if n in ("volume.triangle_signed_area", "volume.signed_volume")}
    vl = names.index("bounds.vl_estimate") if "bounds.vl_estimate" in names else -2
    return sum(1 for nid, _, _, parent in spans if nid in ids and parent >= 0 and spans[parent][0] == vl)


def layer_metrics(names, spans, counts, vl_keys, rss) -> dict:
    self_s, incl_s, calls = self_times(names, spans)
    c = counts
    klein_calls = calls["volume.klein_volume"]
    klein_s = incl_s["volume.klein_volume"]
    samples = c["chain.samples"]
    drawn = c["chain.sampler.drawn"]
    return {
        "chain.sampler_acceptance": c["chain.sampler.accepted"] / drawn if drawn else 0.0,
        "chain.sampler.s": incl_s["chain.sampler"],
        "surface.point_in_polygon.s": incl_s["surface.point_in_polygon"],
        "surface.point_in_polygon.rows": c["surface.point_in_polygon.rows"],
        "surface.reduce_batch.s": incl_s["surface.reduce_batch"],
        "surface.reduce_batch.rows": c["surface.reduce_batch.rows"],
        "surface.reduce_batch.moved_rows": c["surface.reduce_batch.moved_rows"],
        "surface.fold_batch.s": incl_s["surface.fold_batch"],
        "surface.fold_batch.folded_rows": c["surface.fold_batch.folded_rows"],
        "net.build_net.s": incl_s["net.build_net"],
        "net.assign.self_s": self_s["net.assign"],
        "net.assign.points": c["net.assign.points"],
        "chain.accumulate_chain.self_s": self_s["chain.accumulate_chain"],
        "chain.absorb.s": incl_s["chain.absorb"],
        "chain.keys": c["chain.keys"],
        "chain.keys_per_sample": c["chain.keys"] / samples if samples else 0.0,
        "chain.discarded": c["chain.discarded"],
        "chain.rss_growth_mb": rss.get("chain.accumulate_chain", 0.0),
        "chain.boundary_residuals.s": incl_s["chain.boundary_residuals"],
        "chain.faces": c["chain.faces"],
        "chain.boundary_residuals.rss_growth_mb": rss.get("chain.boundary_residuals", 0.0),
        "chain.reports.s": incl_s["chain.reports"],
        "volume.klein_volume.calls": klein_calls,
        "volume.klein_volume.s": klein_s,
        "volume.klein_volume.ms_per_call": 1e3 * klein_s / klein_calls if klein_calls else 0.0,
        "volume.klein_volume.nonconverged": c["volume.klein_volume.nonconverged"],
        "volume.triangle_signed_area.calls": calls["volume.triangle_signed_area"],
        "volume.triangle_signed_area.s": incl_s["volume.triangle_signed_area"],
        "bounds.vl_estimate.calls": len(vl_keys),
        "bounds.vl_estimate.misses": c["bounds.vl_estimate.misses"],
        "bounds.vl_estimate.self_s": self_s["bounds.vl_estimate"],
        "bounds.objective_evals": _objective_evals(names, spans),
        "hypgeom.construct.calls": calls["hypgeom.construct"],
        "hypgeom.construct.s": incl_s["hypgeom.construct"],
        "cli.self_s": self_s["cli.main"],
    }
