"""Group-equivariant nets of cell centers on a surface's universal cover.

A net is a finite list of center points in the fundamental polygon whose
full group orbit covers the plane with balls of radius <= 1/2.  Cells are
the Voronoi cells of the orbit, so they are equivariant by construction and
have diameter <= 1.

For models with geodesic boundary the orbit is implicitly extended by the
reflection group across every boundary-line lift: the center set is mirror
symmetric across each line, hence Voronoi walls contain the lines and no
cell crosses the boundary.  Lookups in funnel territory fold the query
point into the surface region by reflections, resolve the cell there, and
unfold; nothing in the funnels is ever enumerated.
"""

from __future__ import annotations

import math

import numpy as np

from hypsmear.hypgeom import from_klein_rows, mink_diag, renormalize_rows
from hypsmear.smear.surface import SurfaceModel, pairing_argmax

__all__ = ["GammaNet", "build_net"]

# quantization grids for canonical integer tokens; safe because the
# corresponding separations (>= 0.1 between orbit representatives,
# >= sqrt(2 cosh(systole) - 2) > 4 between orbit points) dwarf the
# float noise of reduction, measured at ~1e-8
CENTER_TOKEN_GRID = 0.025
ELEMENT_TOKEN_GRID = 1.0
_LINE_MARGIN = 0.05
_MAX_CENTERS = 4000
_COVER_SAMPLE = 10_000
_NET_SEED = 20210809
_J = mink_diag(2)


def _uniform_polygon_points(model: SurfaceModel, count: int, rng) -> np.ndarray:
    """Deterministic area-uniform points of the fundamental polygon."""
    u = np.concatenate([u[keep] for u, keep in model.area_uniform_candidates(count, rng)])
    return from_klein_rows(u[:count])


class GammaNet:
    """Net centers plus the precomputed candidate cloud used by lookups."""

    def __init__(self, model: SurfaceModel, centers: np.ndarray, covering_radius: float):
        self.centers = renormalize_rows(np.asarray(centers, dtype=float))
        self.covering_radius = float(covering_radius)
        self._ctok = np.round(self.centers / CENTER_TOKEN_GRID).astype(np.int64)

        # the dense-sample covering radius underestimates the true one by at
        # most the sample gap; allow that slack in the lookup guard and reach
        self._lookup_slack = 0.2
        r_cloud = model.domain_radius() + self.covering_radius + self._lookup_slack + 0.05
        elems = model.element_ball(r_cloud + model.domain_radius())
        pts, cids, eidx = [], [], []
        # candidate order (center index, BFS word order) implements the
        # lowest-(index, word) tie rule
        for ci, c in enumerate(self.centers):
            imgs = elems @ c
            keep = np.flatnonzero(imgs[:, 0] <= math.cosh(r_cloud))
            pts.append(imgs[keep])
            cids.append(np.full(keep.size, ci))
            eidx.append(keep)
        self._cloud_pts = np.concatenate(pts)
        self._cloud_cid = np.concatenate(cids)
        self._cloud_mats = elems[np.concatenate(eidx)]

    def __len__(self) -> int:
        return len(self.centers)

    def assign(self, model: SurfaceModel, coords: np.ndarray, lines: np.ndarray):
        """Resolve the net cell of every row of ``coords``.

        Returns (ctok, emat, pos): integer center tokens (B, 3), group
        elements E with E @ representative = center (B, 3, 3), and the
        concrete center positions in the sample frame (B, 3).
        """
        x = np.asarray(coords, dtype=float)
        # reduce first so folding only ever reflects across lines near the
        # fundamental domain; far-line reflections amplify rounding error
        # like cosh(2 dist) and would corrupt deep funnel queries
        x1, gam1 = model.reduce_batch(x)
        folded, unfold = model.fold_batch(x1, lines)
        # only folded rows can have left the domain; a second reduction
        # would hand every other row back renormalized and unmoved
        rows = np.flatnonzero(np.abs(unfold[:, 0, 0] - 1.0) > 1e-15)
        red = renormalize_rows(folded)
        red[rows], gam2 = model.reduce_batch(folded[rows])

        # <red, cloud> = -cosh(distance); nearest center maximizes the pairing
        idx, best = pairing_argmax(red * _J, self._cloud_pts.T)
        if np.any(-best > math.cosh(self.covering_radius + self._lookup_slack)):
            raise RuntimeError("cell lookup failure: nearest center beyond covering radius")

        # center position in the sample frame, one well-conditioned stage at
        # a time: eta c -> gam2 -> unfold -> gam1
        pos = self._cloud_pts[idx]
        pos[rows] = np.einsum(
            "bij,bj->bi", unfold[rows], np.einsum("bij,bj->bi", gam2, pos[rows])
        )
        pos_dom = renormalize_rows(pos)
        pos = renormalize_rows(np.einsum("bij,bj->bi", gam1, pos_dom))

        # E only feeds rounding to integer element tokens: BLAS products do
        emat = gam1 @ self._cloud_mats[idx]
        ctok = self._ctok[self._cloud_cid[idx]]

        # funnel-side centers: reduce the mirrored center position to its
        # orbit representative; snap to a stored interior center when it
        # is one, otherwise quantize the exterior representative
        rep, e2 = model.reduce_batch(pos_dom[rows])
        emat[rows] = gam1[rows] @ e2
        ci2, near = pairing_argmax(rep * _J, self.centers.T)
        is_interior = -near < 1.0 + 1e-9
        tok = np.round(rep / CENTER_TOKEN_GRID).astype(np.int64)
        tok[is_interior] = self._ctok[ci2[is_interior]]
        ctok[rows] = tok
        return ctok, emat, pos


def build_net(model: SurfaceModel, target_radius: float) -> GammaNet:
    """Greedy covering of the fundamental polygon by net centers.

    Repeatedly adds a center at the admissible sample point nearest to the
    worst-covered point until the dense-sample covering radius drops to the
    target.  Admissible points keep a small margin from boundary lines so
    mirror twins stay separated.
    """
    if not 0.0 < target_radius <= 0.5:
        raise ValueError("target_radius must lie in (0, 1/2]")
    rng = np.random.default_rng(_NET_SEED)
    sample = _uniform_polygon_points(model, _COVER_SAMPLE, rng)
    kv = model.klein_polygon()
    mids = 0.5 * (kv + np.roll(kv, -1, axis=0))
    extra = from_klein_rows(np.concatenate([kv, mids]))
    sample = np.concatenate([sample, renormalize_rows(extra)])

    lines = model.boundary_lines(model.domain_radius() + 1.0)
    cand_ok = model.distance_to_boundary(sample, lines) >= _LINE_MARGIN

    ball = model.element_ball(2.0 * model.domain_radius() + 1.0)
    sj = sample * _J
    mins = np.full(len(sample), np.inf)
    centers = []
    while len(centers) < _MAX_CENTERS:
        far = int(np.argmax(mins))
        if mins[far] <= target_radius:
            break
        if not cand_ok.any():
            raise RuntimeError("covering not achieved: admissible candidates exhausted")
        # candidate nearest to the worst-covered point
        d_far = -sj[cand_ok] @ sample[far]
        pick = np.flatnonzero(cand_ok)[int(np.argmin(d_far))]
        c = sample[pick]
        centers.append(c)
        cand_ok[pick] = False
        # arccosh(max(1, .)) is monotone, so it is taken after the row minimum
        nearest = -(sj @ (ball @ c).T).max(axis=1)
        np.minimum(mins, np.arccosh(np.maximum(1.0, nearest)), out=mins)
        # keep later centers clear of this one
        cand_ok &= np.arccosh(np.maximum(1.0, -(sj @ c))) > 1e-3
    else:
        raise RuntimeError("covering not achieved within the center budget")

    return GammaNet(model, np.array(centers), float(np.max(mins)))
