"""Explicit compact hyperbolic surfaces given by Fuchsian side-pairing data.

A SurfaceModel is a fundamental polygon in H^2 together with the
side-pairing generators of a discrete torsion-free group.  Closed surfaces
pair every side; surfaces with geodesic boundary leave free sides lying on
complete geodesics whose unit polar vectors are listed in ``boundary``, and
the quotient of the full group action extends the surface by funnels.

Two bundled models ship as package data, and their JSON files are their
only definition: a closed genus-2 surface (the regular octagon with
interior angles pi/4 and opposite sides paired) and a one-holed torus (the
right-angled regular octagon with two opposite side pairs paired and the
other four sides on the boundary).

Reduction to the fundamental domain is Dirichlet descent: apply whichever
generator most decreases the 0-coordinate of the image (monotone with
distance to the origin) until none does.
"""

from __future__ import annotations

import json
import math
import numbers
from importlib import resources
from typing import Iterator

import numpy as np

from hypsmear.hypgeom import (
    HPoint,
    Isometry,
    lorentz_inverse,
    mink_diag,
    minkowski,
    renormalize_rows,
    to_klein,
)
from hypsmear.volume import triangle_areas

__all__ = [
    "SurfaceModel",
    "save_model",
    "load_model",
    "bundled_model_path",
    "BUNDLED_MODELS",
]

REDUCE_MAX_STEPS = 200
# explored images per orbit search: the torus chain's lines explore 24,808 at
# L = 23.6 and the two genus2 balls of a smear run 2,208 and 1,696 (see
# tools/setup_times.py); a genus2 element_ball past r ~ 10 and the torus
# chain from L = 25.25, where drift breeds spurious lifts, exceed it
ORBIT_MAX_IMAGES = 200_000
_CANDIDATE_BLOCK = 8192
# rows per chunk of pairing_argmax, which bounds its (rows, columns) transient
PAIRING_BLOCK = 1024
_PAIRING_TOL = 1e-8
# largest |<u, u> - 1| of returned polars: on holed_torus the chain's lines
# equal tests/oracles.py's 50-digit ones up to L = 23.6 (drift 1.5e-3), and
# from L = 23.65 a spurious lift comes with drift 3.1e-2
_POLAR_DRIFT = 1e-2
_AREA_TOL = 1e-6
_J = mink_diag(2)
BUNDLED_MODELS = {"genus2": "genus2_octagon.json", "holed_torus": "holed_torus.json"}


class SurfaceModel:
    """Validated side-pairing data for a compact hyperbolic surface, held as
    arrays: generator matrices (g, 3, 3) and polygon vertex rows (m, 3),
    each checked by Isometry or HPoint on the way in, and boundary polars.
    Reduction, nets and orbit searches are centred on the origin (1, 0, 0),
    which must lie strictly inside every boundary line."""

    def __init__(self, generators, polygon, boundary, chi: int):
        poly = np.array(polygon, dtype=object)  # ragged rows make a 1-d array
        if poly.shape[1:] != (3,) or len(poly) < 3:
            raise ValueError("polygon must be at least 3 vertex rows of 3 coordinates")
        self.gen_mats = np.stack([Isometry(g).matrix for g in generators])
        # HPoint checks every row, but a row already on the sheet to rounding
        # keeps its bits, so that load_model(save_model(m)) is exact
        poly = poly.astype(float)
        unit = np.abs(minkowski(poly, poly) + 1.0) <= 4 * np.finfo(float).eps * poly[:, 0] ** 2
        self.poly_coords = np.where(unit[:, None], poly, [HPoint(p).coords for p in poly])
        self.boundary = tuple(np.asarray(u, dtype=float) for u in boundary)
        if not (isinstance(chi, numbers.Real) and float(chi).is_integer()):
            raise ValueError(f"chi must be an integer, got {chi!r}")
        self.chi = int(chi)
        if self.chi >= 0:
            raise ValueError("hyperbolic surfaces have negative Euler characteristic")
        self.exact_area = 2.0 * math.pi * abs(self.chi)

        self._inv_index, self._boundary_side_index = self._validate()
        kv = self.klein_polygon()
        self._klein_edges = kv, np.roll(kv, -1, axis=0) - kv

    def _validate(self) -> tuple:
        """Check inverses, polars, side pairing and area, in that order; return
        each generator's inverse index and the indices of the boundary sides."""
        # close[i, j]: generator j inverts generator i (argmax: the first listed)
        inv = lorentz_inverse(self.gen_mats)[:, None]
        close = np.max(np.abs(self.gen_mats - inv), axis=(2, 3)) < 1e-9
        if not close.any(axis=1).all():
            raise ValueError(f"generator {np.argmin(close.any(axis=1))} has no listed inverse")

        if any(u.shape != (3,) for u in self.boundary):
            raise ValueError("boundary polar vectors must have 3 components")
        polars = np.array(self.boundary).reshape(-1, 3)
        q = minkowski(polars, polars)
        off = q[~(np.abs(q - 1.0) <= 1e-9)]
        if off.size:
            raise ValueError(f"boundary polar not unit spacelike: <u,u> = {off[0]}")
        if not np.all(polars[:, 0] > 0):
            raise ValueError("the origin must lie strictly inside every boundary line")

        # side i, from a[i] to b[i], lies on a boundary line, or a generator h
        # maps a side c onto it in either orientation; gap(x, y) is (h, c, i)
        a, b = self.poly_coords, np.roll(self.poly_coords, -1, axis=0)
        near = lambda x: np.abs(minkowski(x[:, None], polars)) < _PAIRING_TOL
        on_line = (near(a) & near(b)).any(axis=1)
        ga = renormalize_rows(np.einsum("gij,mj->gmi", self.gen_mats, a))
        gb = np.roll(ga, -1, axis=1)
        gap = lambda x, y: np.max(np.abs(x[:, :, None] - y), axis=-1)
        paired = np.minimum(np.maximum(gap(ga, a), gap(gb, b)),
                            np.maximum(gap(ga, b), gap(gb, a))) < _PAIRING_TOL
        free = ~on_line & ~paired.any(axis=(0, 1))
        if free.any():
            raise ValueError(f"polygon side {np.argmax(free)} is not paired by any generator")
        if self.boundary and not on_line.any():
            raise ValueError("boundary polars listed but no polygon side lies on them")

        fan = np.stack([np.broadcast_to(a[0], a[2:].shape), a[1:-1], a[2:]], axis=1)
        total = float(triangle_areas(fan).sum())
        if total < 0:
            raise ValueError("polygon must be positively oriented")
        if abs(total - self.exact_area) > _AREA_TOL:
            raise ValueError(f"triangulated polygon area {total} does not match "
                             f"2 pi |chi| = {self.exact_area}")
        return np.argmax(close, axis=1), np.flatnonzero(on_line)

    # --- derived geometry ------------------------------------------------

    def klein_polygon(self) -> np.ndarray:
        return to_klein(self.poly_coords)

    def domain_radius(self) -> float:
        return float(np.max(np.arccosh(self.poly_coords[:, 0])))

    def boundary_length(self) -> float:
        """Total length of the polygon sides lying on boundary lines."""
        v = self.poly_coords
        return sum((math.acosh(max(-minkowski(v[i], v[(i + 1) % len(v)]), 1.0))
                    for i in self._boundary_side_index), 0.0)

    def point_in_polygon(self, u: np.ndarray) -> np.ndarray:
        """Convex-polygon membership of (m, 2) Klein-chart rows."""
        kv, edges = self._klein_edges
        rel = u[:, None, :] - kv[None, :, :]
        cross = edges[None, :, 0] * rel[..., 1] - edges[None, :, 1] * rel[..., 0]
        return np.all(cross >= -1e-12, axis=1)

    def area_uniform_candidates(self, count: int, rng) -> Iterator[tuple]:
        """Blocks of area-uniform rejection sampling in the Klein chart,
        until ``count`` candidates are kept in all.

        Each block draws _CANDIDATE_BLOCK points u uniform in the polygon's
        bounding box, then as many uniforms acc, and yields (u, keep): u is
        kept when acc < ((1 - r_max2) / (1 - |u|^2))^{3/2}, r_max2 the
        largest squared Klein radius of a polygon vertex, and u lies in the
        polygon.  A caller may draw from ``rng`` between blocks.  Fewer than
        one kept candidate in 1000 after 65536 is a RuntimeError.
        """
        kv = self.klein_polygon()
        r_box = float(np.max(np.abs(kv)))
        r_max2 = float(np.max(np.sum(kv * kv, axis=1)))
        drawn = kept = 0
        while kept < count:
            u = rng.uniform(-r_box, r_box, size=(_CANDIDATE_BLOCK, 2))
            acc = rng.random(_CANDIDATE_BLOCK)
            # the same sum as np.sum(u * u, axis=1), which is ~8x slower on 2 columns
            rho2 = u[:, 0] * u[:, 0] + u[:, 1] * u[:, 1]
            density = np.zeros(_CANDIDATE_BLOCK)
            disk = rho2 < 1.0
            density[disk] = ((1.0 - r_max2) / (1.0 - rho2[disk])) ** 1.5
            # the cheap density test first: the polygon test sees its survivors
            keep = acc < density
            keep[keep] = self.point_in_polygon(u[keep])
            drawn += _CANDIDATE_BLOCK
            kept += int(keep.sum())
            if drawn >= 65536 and kept < max(1, drawn // 1000):
                raise RuntimeError("rejection efficiency below 1e-3: bad bounding box")
            yield u, keep

    def _orbit(self, seeds: np.ndarray, grid: float, radius: float, grow) -> np.ndarray:
        """Every image within ``radius`` of the origin found by a breadth-first
        search over generator words, a frontier at a time: the seeds (a stack
        of 3-row matrices), then every image g x of a found x that passes the
        explore test and has an unseen _tokens row on ``grid``, in discovery
        order (frontier-major, generator-minor).  An image's |x[0, 0]| is
        grow(d), d its distance from the origin: cosh d for the matrix of an
        element moving the origin d, sinh d for the polar (a column) of a line
        at distance d.  Exploring more than ORBIT_MAX_IMAGES images is a
        RuntimeError: the orbit has then outgrown what float products follow.

        The explore test grow(d) <= grow(radius + rho), rho = domain_radius(),
        loses no target.  The images h D of the polygon D tile the convex
        universal cover, and each lies within rho of h o, o the origin.  Take
        a target g o with d(o, g o) <= radius.  The segment [o, g o] lies in
        the cover and runs through a chain of tiles D = h_0 D, ..., h_k D =
        g D, each meeting the segment, consecutive ones sharing a side (where
        the segment passes through a vertex, the chain takes every tile around
        it), so h_{i+1} = h_i s_i with s_i a generator and g = s_0 ... s_{k-1}.
        Multiplying on the left, the search reaches g through the suffixes
        h_i^-1 g, and d(o, h_i^-1 g o) = d(h_i o, g o) <= rho + radius, as a
        point of the segment lies in h_i D.  A line lift g l, l a listed
        boundary line, with nearest point p to o: p lies on a boundary side of
        some tile h D on that lift, whose own listed line lifts to it, and the
        chain of tiles along [o, p] bounds the distance from o of each suffix's
        line by rho + radius the same way.  Both tests carry the 1e-12 slack
        of float products."""
        explore, limit = grow(radius + self.domain_radius()) + 1e-12, grow(radius) + 1e-12
        seen = set(map(tuple, _tokens(seeds, grid).tolist()))
        found, frontier, explored = [seeds], seeds, 0
        while len(frontier):
            imgs = np.matmul(self.gen_mats[None], frontier[:, None]).reshape(-1, *seeds.shape[1:])
            imgs = imgs[np.abs(imgs[:, 0, 0]) <= explore]
            explored += len(imgs)
            if explored > ORBIT_MAX_IMAGES:
                raise RuntimeError(f"orbit search explored over {ORBIT_MAX_IMAGES} images")
            new = []
            for i, tok in enumerate(map(tuple, _tokens(imgs, grid).tolist())):
                if tok not in seen:
                    seen.add(tok)
                    new.append(i)
            frontier = imgs[new]
            found.append(frontier)
        found = np.concatenate(found)
        return found[np.abs(found[:, 0, 0]) <= limit]

    def element_ball(self, radius: float) -> np.ndarray:
        """All group elements moving the origin at most ``radius``,
        as a stack of matrices in breadth-first word order.

        Elements are deduplicated through their orbit points, which is exact
        because the group acts freely with systole well above the rounding
        noise.
        """
        return self._orbit(np.eye(3)[None], 0.5, radius, math.cosh)

    def boundary_lines(self, radius: float) -> np.ndarray:
        """Unit polar vectors of every boundary-geodesic lift whose line
        passes within ``radius`` of the origin (empty for closed models).

        Polars transform vectorially (u -> g u), and the half-plane
        {<x, u> > 0} is the funnel side.  Polars that have drifted more than
        _POLAR_DRIFT off <u, u> = 1 are a RuntimeError: past that the 1e-5
        tokens no longer tell lifts apart.
        """
        # polars as (3, 1) columns, so the search multiplies them like matrices
        lines = self._orbit(np.reshape(self.boundary, (-1, 3, 1)), 1e-5, radius, math.sinh)[..., 0]
        drift = np.max(np.abs(minkowski(lines, lines) - 1.0), initial=0.0)
        if drift > _POLAR_DRIFT:
            raise RuntimeError(f"boundary line polars drifted to |<u,u> - 1| = {drift:.2g}")
        return lines[np.lexsort(lines.T[::-1])]

    # --- reduction --------------------------------------------------------

    def reduce_batch(self, coords: np.ndarray):
        """Dirichlet-descend every row into the fundamental domain.

        Returns (reduced coords, elements) with element @ reduced = original.
        A row farther than distance 40 from the origin is an error.
        """
        x = np.array(coords, dtype=float)
        # NaN passes the comparison below, and would become a token
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite coordinates cannot be reduced")
        # guard on the raw coordinates: past the budget the renormalizer
        # itself degenerates (cosh^2 - sinh^2 underflows to 0)
        if np.any(x[:, 0] > math.cosh(40.0)):
            raise ValueError("point beyond the distance-40 reduction budget")
        x = renormalize_rows(x)
        inv_mats = self.gen_mats[self._inv_index]
        ngen = len(inv_mats)
        # each row's element is a generator word multiplied out left to
        # right; rows sharing a word share its matrix, formed once per step
        # in table[-1], whose first word id is `base`
        word = np.zeros(len(x), dtype=np.intp)
        table = [np.eye(3)[None]]
        base = 0
        active = np.arange(len(x))
        for _ in range(REDUCE_MAX_STEPS):
            xa = x[active]
            imgs0 = np.einsum("gj,bj->bg", self.gen_mats[:, 0, :], xa)
            best = np.argmin(imgs0, axis=1)
            bestval = imgs0[np.arange(active.size), best]
            improve = bestval < xa[:, 0] * (1.0 - 1e-15)
            if not improve.any():
                break
            rows = active[improve]
            b = best[improve]
            x[rows] = renormalize_rows(
                np.einsum("bij,bj->bi", self.gen_mats[b], x[rows])
            )
            pair, inv = np.unique((word[rows] - base) * ngen + b, return_inverse=True)
            prev = table[-1]
            table.append(np.einsum("bij,bjk->bik", prev[pair // ngen], inv_mats[pair % ngen]))
            base += len(prev)
            word[rows] = base + inv
            active = rows
        else:
            raise RuntimeError("reduction step budget exceeded")
        return x, np.concatenate(table)[word]

    def fold_batch(self, coords: np.ndarray, lines: np.ndarray):
        """Reflect rows across boundary-line lifts until none is in a funnel
        half-plane.  Returns (folded coords, unfold matrices U) with
        U @ folded = original.  No-op for closed models, whose U is a
        read-only identity stack."""
        x = np.array(coords, dtype=float)
        unf = np.broadcast_to(np.eye(3), (x.shape[0], 3, 3))
        if lines.shape[0] == 0:
            return x, unf
        unf = unf.copy()
        # the pairings only feed argmax and sign tests: a BLAS product will do
        jlines_t = (lines * _J).T
        active = np.arange(len(x))
        for step in range(64):
            if not active.size:
                break
            worst, val = pairing_argmax(x[active], jlines_t)
            out = val > 1e-14
            if not out.any():
                break
            rows = active[out]
            u = lines[worst[out]]
            proj = np.einsum("bj,bj->b", x[rows] * _J, u)
            x[rows] = x[rows] - 2.0 * proj[:, None] * u
            # reflection matrix R = I - 2 u (Ju)^T is an involution
            refl = np.eye(3) - 2.0 * np.einsum("bi,bj->bij", u, u * _J)
            # first step: the rows still hold I, and I @ R is R bit for bit
            # (R has no -0.0 entries, since 0.0 - 0.0 is +0.0)
            unf[rows] = refl if step == 0 else np.einsum("bij,bjk->bik", unf[rows], refl)
            active = rows
        else:
            raise RuntimeError("funnel folding did not terminate")
        return x, unf

    def distance_to_boundary(self, coords: np.ndarray, lines: np.ndarray) -> np.ndarray:
        """Signed distance to the boundary-line family: positive depth inside
        the surface, negative depth inside a funnel.  +inf for closed models."""
        s = np.einsum("bj,lj,j->bl", np.atleast_2d(coords), lines, _J)
        return -np.arcsinh(np.max(s, axis=1, initial=-np.inf))


def _tokens(x: np.ndarray, grid: float) -> np.ndarray:
    """Integer tokens of a stack of 3-row matrices: the first column on ``grid``."""
    return np.round(x[:, :, 0] / grid).astype(np.int64)


def pairing_argmax(left: np.ndarray, right: np.ndarray) -> tuple:
    """Column index and value of the largest entry in each row of
    ``left @ right``, formed PAIRING_BLOCK rows at a time.  The product is a
    BLAS one, fit only for argmax and sign tests."""
    idx = np.empty(len(left), dtype=np.intp)
    val = np.empty(len(left))
    for s in range(0, len(left), PAIRING_BLOCK):
        pairing = left[s : s + PAIRING_BLOCK] @ right
        idx[s : s + PAIRING_BLOCK] = i = np.argmax(pairing, axis=1)
        val[s : s + PAIRING_BLOCK] = pairing[np.arange(len(i)), i]
        del pairing  # freed before the next chunk is formed
    return idx, val


# --- model files -----------------------------------------------------------


def save_model(model: SurfaceModel, path):
    doc = {
        "dim": 2,
        "generators": [[float(v) for v in g.ravel()] for g in model.gen_mats],
        "polygon": [[float(v) for v in p] for p in model.poly_coords],
        "boundary": [[float(v) for v in u] for u in model.boundary],
        "base": [1.0, 0.0, 0.0],
        "chi": model.chi,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path) -> SurfaceModel:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("dim") != 2:
        raise ValueError("only dim=2 surface models are supported")
    missing = [k for k in ("generators", "polygon", "base", "chi") if k not in doc]
    if missing:
        raise ValueError(f"model file lacks the field(s) {', '.join(missing)}")
    if doc["base"] != [1, 0, 0]:
        raise ValueError(f"model base {doc['base']} is not the origin (1, 0, 0), on which "
                         "reduction, nets and orbit searches are centred")
    return SurfaceModel(np.reshape(doc["generators"], (-1, 3, 3)), doc["polygon"],
                        doc.get("boundary", []), doc["chi"])


def bundled_model_path(name: str):
    """Filesystem path of a bundled model: a key of BUNDLED_MODELS."""
    if name not in BUNDLED_MODELS:
        raise ValueError(f"unknown bundled model {name!r}; choose from {sorted(BUNDLED_MODELS)}")
    return resources.files("hypsmear.data").joinpath(BUNDLED_MODELS[name])
