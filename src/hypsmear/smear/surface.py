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
distance to the base point) until none does.
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
# explored images per orbit search: the torus chain's lines explore 37,956
# at L = 11.5, while from L = 11.65 rounding drift breeds spurious lifts and
# the search runs past 599,000
ORBIT_MAX_IMAGES = 200_000
_CANDIDATE_BLOCK = 8192
# rows per chunk of pairing_argmax, which bounds its (rows, columns) transient
PAIRING_BLOCK = 1024
_PAIRING_TOL = 1e-8
_AREA_TOL = 1e-6
_J = mink_diag(2)
BUNDLED_MODELS = {"genus2": "genus2_octagon.json", "holed_torus": "holed_torus.json"}


class SurfaceModel:
    """Validated side-pairing data for a compact hyperbolic surface, held as
    arrays: generator matrices (g, 3, 3), polygon vertex rows (m, 3) and the
    base point (3,), each checked by Isometry or HPoint on the way in."""

    def __init__(self, generators, polygon, boundary, base, chi: int):
        self.gen_mats = np.stack([Isometry(g).matrix for g in generators])
        self.poly_coords = np.array([HPoint(p).coords for p in polygon])
        self.boundary = tuple(np.asarray(u, dtype=float) for u in boundary)
        self.base = HPoint(base).coords
        if not (isinstance(chi, numbers.Real) and float(chi).is_integer()):
            raise ValueError(f"chi must be an integer, got {chi!r}")
        self.chi = int(chi)
        if self.chi >= 0:
            raise ValueError("hyperbolic surfaces have negative Euler characteristic")
        self.exact_area = 2.0 * math.pi * abs(self.chi)

        self._inv_index = self._closure_under_inverses()
        self._validate_boundary()
        self._validate_side_pairing()
        self._validate_area()
        kv = self.klein_polygon()
        self._klein_edges = kv, np.roll(kv, -1, axis=0) - kv

    # --- validation -----------------------------------------------------

    def _closure_under_inverses(self) -> np.ndarray:
        inv = np.full(len(self.gen_mats), -1, dtype=int)
        for i, gi in enumerate(lorentz_inverse(self.gen_mats)):
            for j, h in enumerate(self.gen_mats):
                if np.max(np.abs(h - gi)) < 1e-9:
                    inv[i] = j
                    break
            if inv[i] < 0:
                raise ValueError(f"generator {i} has no listed inverse")
        return inv

    def _validate_boundary(self):
        for u in self.boundary:
            if u.shape != (3,):
                raise ValueError("boundary polar vectors must have 3 components")
            q = minkowski(u, u)
            if abs(q - 1.0) > 1e-9:
                raise ValueError(f"boundary polar not unit spacelike: <u,u> = {q}")
            if float(minkowski(self.base, u)) >= 0:
                raise ValueError("base point must lie strictly inside every boundary line")

    def _side_is_boundary(self, a: np.ndarray, b: np.ndarray) -> bool:
        for u in self.boundary:
            if abs(minkowski(a, u)) < _PAIRING_TOL and abs(minkowski(b, u)) < _PAIRING_TOL:
                return True
        return False

    def _validate_side_pairing(self):
        v = self.poly_coords
        m = len(v)
        sides = [(v[i], v[(i + 1) % m]) for i in range(m)]
        self._boundary_side_index = []
        for i, (a, b) in enumerate(sides):
            if self._side_is_boundary(a, b):
                self._boundary_side_index.append(i)
                continue
            found = False
            for g in self.gen_mats:
                for c, d in sides:
                    gc, gd = renormalize_rows(g @ c), renormalize_rows(g @ d)
                    direct = max(np.max(np.abs(gc - a)), np.max(np.abs(gd - b)))
                    flipped = max(np.max(np.abs(gc - b)), np.max(np.abs(gd - a)))
                    if min(direct, flipped) < _PAIRING_TOL:
                        found = True
                        break
                if found:
                    break
            if not found:
                raise ValueError(f"polygon side {i} is not paired by any generator")
        if self.boundary and not self._boundary_side_index:
            raise ValueError("boundary polars listed but no polygon side lies on them")

    def _validate_area(self):
        v = self.poly_coords
        fan = np.stack([np.broadcast_to(v[0], v[2:].shape), v[1:-1], v[2:]], axis=1)
        total = float(triangle_areas(fan).sum())
        if total < 0:
            raise ValueError("polygon must be positively oriented")
        if abs(total - self.exact_area) > _AREA_TOL:
            raise ValueError(
                f"triangulated polygon area {total} does not match 2 pi |chi| = {self.exact_area}"
            )

    # --- derived geometry ------------------------------------------------

    def klein_polygon(self) -> np.ndarray:
        return to_klein(self.poly_coords)

    def domain_radius(self) -> float:
        return float(np.max(np.arccosh(self.poly_coords[:, 0])))

    def boundary_length(self) -> float:
        """Total length of the polygon sides lying on boundary lines."""
        v = self.poly_coords
        m = len(v)
        total = 0.0
        for i in self._boundary_side_index:
            c = -minkowski(v[i], v[(i + 1) % m])
            total += math.acosh(max(c, 1.0))
        return total

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

    def _orbit(self, seeds: np.ndarray, token, explore) -> np.ndarray:
        """Breadth-first search over generator words, a frontier at a time:
        the seeds (a stack of 3-row matrices), then every image g x of a
        found x that passes ``explore`` and has an unseen ``token`` row, in
        discovery order (frontier-major, generator-minor).  Exploring more
        than ORBIT_MAX_IMAGES images is a RuntimeError: the orbit has then
        outgrown what float products can follow."""
        seen = set(map(tuple, token(seeds).tolist()))
        found, frontier, explored = [seeds], seeds, 0
        while len(frontier):
            imgs = np.matmul(self.gen_mats[None], frontier[:, None]).reshape(-1, *seeds.shape[1:])
            imgs = imgs[explore(imgs)]
            explored += len(imgs)
            if explored > ORBIT_MAX_IMAGES:
                raise RuntimeError(f"orbit search explored over {ORBIT_MAX_IMAGES} images")
            new = []
            for i, tok in enumerate(map(tuple, token(imgs).tolist())):
                if tok not in seen:
                    seen.add(tok)
                    new.append(i)
            frontier = imgs[new]
            found.append(frontier)
        return np.concatenate(found)

    def element_ball(self, radius: float) -> np.ndarray:
        """All group elements moving the base point at most ``radius``,
        as a stack of matrices in breadth-first word order.

        Elements are deduplicated through their orbit points, which is exact
        because the group acts freely with systole well above the rounding
        noise.
        """
        limit, explore = math.cosh(radius) + 1e-12, math.cosh(radius + 3.2)
        mats = self._orbit(np.eye(3)[None], lambda m: np.round(2.0 * m[:, :, 0]).astype(np.int64),
                           lambda m: m[:, 0, 0] <= explore)
        return mats[mats[:, 0, 0] <= limit]

    def boundary_lines(self, radius: float) -> np.ndarray:
        """Unit polar vectors of every boundary-geodesic lift whose line
        passes within ``radius`` of the base point (empty for closed models).

        Polars transform vectorially (u -> g u), and the half-plane
        {<x, u> > 0} is the funnel side.
        """
        if not self.boundary:
            return np.zeros((0, 3))
        limit, explore = math.sinh(radius), math.sinh(radius + 6.5)
        # polars as (3, 1) columns, so the search multiplies them like matrices
        found = self._orbit(np.array(self.boundary)[:, :, None],
                            lambda u: np.round(u[:, :, 0] / 1e-5).astype(np.int64),
                            lambda u: np.abs(u[:, 0, 0]) <= explore)[:, :, 0]
        lines = found[np.abs(found[:, 0]) <= limit]
        return lines[np.lexsort(lines.T[::-1])]

    # --- reduction --------------------------------------------------------

    def reduce_batch(self, coords: np.ndarray):
        """Dirichlet-descend every row into the fundamental domain.

        Returns (reduced coords, elements) with element @ reduced = original.
        A row farther than distance 40 from the base point is an error.
        """
        x = np.array(coords, dtype=float)
        # guard on the raw coordinates: past the budget the renormalizer
        # itself degenerates (cosh^2 - sinh^2 underflows to 0)
        if np.any(x[:, 0] > math.cosh(40.0)):
            raise ValueError("point beyond the distance-40 reduction budget")
        x = renormalize_rows(x)
        n = x.shape[0]
        inv_mats = self.gen_mats[self._inv_index]
        ngen = len(inv_mats)
        # each row's element is a generator word multiplied out left to
        # right; rows sharing a word share its matrix, formed once per step
        # in table[-1], whose first word id is `base`
        word = np.zeros(n, dtype=np.intp)
        table = [np.eye(3)[None]]
        base = 0
        active = np.arange(n)
        steps = 0
        while active.size:
            steps += 1
            if steps > REDUCE_MAX_STEPS:
                raise RuntimeError("reduction step budget exceeded")
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
        x = np.atleast_2d(coords)
        if lines.shape[0] == 0:
            return np.full(x.shape[0], np.inf)
        s = np.einsum("bj,lj,j->bl", x, lines, _J)
        worst = np.max(s, axis=1)
        return -np.arcsinh(worst)


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
        "base": [float(v) for v in model.base],
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
    gens = [np.array(g, dtype=float).reshape(3, 3) for g in doc["generators"]]
    return SurfaceModel(
        generators=gens,
        polygon=[np.array(p, dtype=float) for p in doc["polygon"]],
        boundary=[np.array(u, dtype=float) for u in doc.get("boundary", [])],
        base=np.array(doc["base"], dtype=float),
        chi=doc["chi"],
    )


def bundled_model_path(name: str):
    """Filesystem path of a bundled model: a key of BUNDLED_MODELS."""
    if name not in BUNDLED_MODELS:
        raise ValueError(f"unknown bundled model {name!r}; choose from {sorted(BUNDLED_MODELS)}")
    return resources.files("hypsmear.data").joinpath(BUNDLED_MODELS[name])
