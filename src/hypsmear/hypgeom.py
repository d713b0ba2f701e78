"""Hyperboloid-model hyperbolic geometry.

Points live on the upper sheet of the hyperboloid

    H^n = {x in R^{n+1} : <x, x> = -1, x_0 > 0},

where <x, y> = -x_0 y_0 + sum_{i>=1} x_i y_i is the Minkowski form of
signature (-, +, ..., +).  Ideal points are light-cone rays normalized to
x_0 = 1.  Isometries are Lorentz matrices preserving the upper sheet.

The Klein model is the radial projection x -> (x_1/x_0, ..., x_n/x_0) onto
the open unit ball; geodesic segments and geodesic simplices are Euclidean
straight there, which is what makes it the right chart for integrating
volumes of straight simplices.

Orientation convention: an ordered tuple of n+1 hyperboloid points is
positively oriented when the determinant of the (n+1)x(n+1) matrix whose
rows are the point coordinates is positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

__all__ = [
    "minkowski",
    "mink_diag",
    "renormalize_rows",
    "lorentz_inverse",
    "HPoint",
    "Isometry",
    "to_klein",
    "from_klein_rows",
    "transport_from_origin",
    "log_direction",
    "origin",
]

POINT_NORM_TOL = 1e-12
LORENTZ_TOL = 1e-10


@cache
def mink_diag(n: int) -> np.ndarray:
    """Read-only diagonal (-1, 1, ..., 1) of the Minkowski form on R^{n+1}:
    <x, y> = sum(x * mink_diag(n) * y)."""
    j = np.ones(n + 1)
    j[0] = -1.0
    j.setflags(write=False)
    return j


def renormalize_rows(x: np.ndarray) -> np.ndarray:
    """Scale timelike vectors (last axis) onto the unit sheet <x, x> = -1."""
    sq = x[..., 1:] ** 2
    # two spatial columns: the explicit sum is np.sum's bits at ~1/8 the cost
    space = sq[..., 0] + sq[..., 1] if sq.shape[-1] == 2 else np.sum(sq, axis=-1)
    q = -(x[..., 0] ** 2) + space
    return x / np.sqrt(-q)[..., None]


def lorentz_inverse(m: np.ndarray) -> np.ndarray:
    """Inverse J M^T J of Lorentz matrices, batched over leading axes."""
    j = mink_diag(m.shape[-1] - 1)
    return j[:, None] * np.swapaxes(m, -1, -2) * j


def minkowski(x, y) -> float:
    """Minkowski pairing <x, y> = -x0*y0 + sum_i xi*yi of coordinate
    arrays; batched inputs broadcast over leading axes."""
    prod = np.asarray(x, dtype=float) * np.asarray(y, dtype=float)
    q = np.sum(prod[..., 1:], axis=-1) - prod[..., 0]
    return float(q) if prod.ndim == 1 else q


@dataclass(frozen=True)
class HPoint:
    """A point on the upper hyperboloid sheet, normalized so <x,x> = -1."""

    coords: np.ndarray

    def __init__(self, coords):
        c = np.array(coords, dtype=float).reshape(-1)
        if c.shape[0] < 2:
            raise ValueError("need at least 2 coordinates (n >= 1)")
        q = minkowski(c, c)
        if q >= 0:
            raise ValueError(f"not a timelike vector: <x,x> = {q}")
        c = c / np.sqrt(-q)
        if c[0] <= 0:
            raise ValueError("point is on the lower sheet (x0 <= 0)")
        q = minkowski(c, c)
        # the form itself is evaluated with absolute error ~ x0^2 * eps, so
        # the unit-norm check is relative to the point's size
        if abs(q + 1.0) > POINT_NORM_TOL * max(1.0, c[0] * c[0]):
            raise ValueError(f"normalization failed: <x,x> = {q}")
        object.__setattr__(self, "coords", c)
        self.coords.setflags(write=False)

    @property
    def n(self) -> int:
        return self.coords.shape[0] - 1


# perfbench/tracer.py wraps this constructor by name; no package code builds it
@dataclass(frozen=True)
class IdealPoint:
    """A boundary-at-infinity point, a light-cone ray normalized to x0 = 1."""

    coords: np.ndarray

    def __init__(self, coords):
        c = np.array(coords, dtype=float).reshape(-1)
        if c.shape[0] < 2:
            raise ValueError("need at least 2 coordinates (n >= 1)")
        if c[0] <= 0:
            raise ValueError("ideal point must have x0 > 0 before normalization")
        c = c / c[0]
        q = minkowski(c, c)
        if abs(q) > 1e-9:
            raise ValueError(f"not a null vector after normalization: <x,x> = {q}")
        # re-project the spatial part onto the unit sphere so <x,x> = 0 holds tightly
        spat = c[1:]
        norm = np.linalg.norm(spat)
        if norm == 0:
            raise ValueError("degenerate ideal point")
        c = np.concatenate(([1.0], spat / norm))
        object.__setattr__(self, "coords", c)
        self.coords.setflags(write=False)


def origin(n: int) -> np.ndarray:
    """The reference point (1, 0, ..., 0) of H^n."""
    c = np.zeros(n + 1)
    c[0] = 1.0
    return c


def to_klein(x: np.ndarray) -> np.ndarray:
    """Klein-ball coordinates (x1/x0, ..., xn/x0) of hyperboloid or
    light-cone coordinates along the last axis."""
    return x[..., 1:] / x[..., :1]


def from_klein_rows(u: np.ndarray) -> np.ndarray:
    """Hyperboloid rows (w, w u), w = 1/sqrt(1 - |u|^2), of Klein points
    |u| < 1 given along the last axis; the inverse of to_klein."""
    w = 1.0 / np.sqrt(1.0 - np.sum(u * u, axis=-1))[..., None]
    return np.concatenate([w, u * w], axis=-1)


@dataclass(frozen=True)
class Isometry:
    """A Lorentz matrix preserving the upper sheet (M^T J M = J, M[0,0] > 0)."""

    matrix: np.ndarray

    def __init__(self, matrix):
        m = np.array(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("isometry matrix must be square")
        j = np.diag(mink_diag(m.shape[0] - 1))
        defect = np.max(np.abs(m.T @ j @ m - j))
        # as in Frame: the products carry an absolute error ~ max|M|^2 * eps
        if not defect <= LORENTZ_TOL * max(1.0, float(np.max(np.abs(m))) ** 2):
            raise ValueError(f"not a Lorentz matrix: |M^T J M - J| = {defect}")
        if m[0, 0] <= 0:
            raise ValueError("matrix swaps hyperboloid sheets")
        object.__setattr__(self, "matrix", m)
        self.matrix.setflags(write=False)


def transport_from_origin(p) -> np.ndarray:
    """Matrix of the transvection (pure translation) carrying the origin to p.

    Built as the composition of point reflections through the origin and the
    midpoint; always orientation-preserving, and it parallel-transports the
    reference tangent basis along the geodesic.
    """
    n = p.shape[0] - 1
    o = origin(n)
    c = minkowski(p, o)
    if abs(c + 1.0) < 1e-16:
        return np.eye(n + 1)
    mid = p + o
    mid = mid / np.sqrt(2.0 * (1.0 - c))
    j = np.diag(mink_diag(n))

    def point_reflection(m):
        return -np.eye(n + 1) - 2.0 * np.outer(m, j @ m)

    return point_reflection(mid) @ point_reflection(o)


# perfbench/tracer.py wraps this constructor by name; no package code builds it
@dataclass(frozen=True)
class Frame:
    """An orthonormal tangent frame: base point plus n tangent vectors with
    <e_i, base> = 0 and <e_i, e_j> = delta_ij."""

    base: HPoint
    tangents: np.ndarray  # shape (n, n+1), rows are tangent vectors

    def __init__(self, base: HPoint, tangents):
        if not isinstance(base, HPoint):
            base = HPoint(base)
        t = np.array(tangents, dtype=float)
        n = base.n
        if t.shape != (n, n + 1):
            raise ValueError(f"tangents must have shape ({n}, {n + 1})")
        # rows <e_i, base>, <e_i, e_1..n> against (0 | identity); pairings
        # carry an absolute error ~ x0^2 * eps, so the check is relative
        gram = (t * mink_diag(n)) @ np.vstack([base.coords, t]).T
        defect = np.max(np.abs(gram - np.eye(n, n + 1, 1)))
        if not defect <= LORENTZ_TOL * max(1.0, base.coords[0] ** 2):
            raise ValueError(f"tangents are not an orthonormal frame at the base: defect {defect}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "tangents", t)
        self.tangents.setflags(write=False)


def log_direction(base, target) -> np.ndarray:
    """Unit tangent vector at ``base`` pointing toward ``target``."""
    w = target + minkowski(target, base) * base
    ww = minkowski(w, w)
    if ww <= 0:
        raise ValueError("cannot take direction toward the same point")
    return w / np.sqrt(ww)


# perfbench/tracer.py wraps this constructor by name; no package code builds it
@dataclass(frozen=True)
class GeodesicSimplex:
    """An ordered tuple of k+1 vertices (HPoint or IdealPoint) spanning a
    straight simplex.  ``ideal`` flags which vertices are at infinity."""

    vertices: np.ndarray  # (k+1, n+1) hyperboloid / light-cone coordinates
    ideal: np.ndarray  # (k+1,) bool

    def __init__(self, points):
        pts = list(points)
        if not pts:
            raise ValueError("simplex needs at least one vertex")
        rows, flags = [], []
        for p in pts:
            if isinstance(p, HPoint):
                rows.append(p.coords)
                flags.append(False)
            elif isinstance(p, IdealPoint):
                rows.append(p.coords)
                flags.append(True)
            else:
                rows.append(HPoint(p).coords)
                flags.append(False)
        v = np.array(rows, dtype=float)
        n = v.shape[1] - 1
        if v.shape[0] > n + 1:
            raise ValueError(f"too many vertices for H^{n}: {v.shape[0]}")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "ideal", np.array(flags, dtype=bool))
        self.vertices.setflags(write=False)
        self.ideal.setflags(write=False)
