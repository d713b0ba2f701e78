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
    "distance",
    "HPoint",
    "IdealPoint",
    "Isometry",
    "Frame",
    "GeodesicSimplex",
    "geodesic_point",
    "straight_eval",
    "to_klein",
    "from_klein",
    "frame_to_isometry",
    "reference_frame",
    "transport_from_origin",
    "exp_point",
    "log_direction",
    "origin",
]

POINT_NORM_TOL = 1e-12
LORENTZ_TOL = 1e-10
CLAMP_TOL = 1e-9
SHORT_GEODESIC = 1e-6


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
    """Minkowski pairing <x, y> = -x0*y0 + sum_i xi*yi.

    Accepts bare coordinate arrays or point objects with a ``coords``
    attribute.  Batched inputs broadcast over leading axes.
    """
    xa = np.asarray(getattr(x, "coords", x), dtype=float)
    ya = np.asarray(getattr(y, "coords", y), dtype=float)
    prod = xa * ya
    return float(np.sum(prod[..., 1:], axis=-1) - prod[..., 0]) if prod.ndim == 1 else (
        np.sum(prod[..., 1:], axis=-1) - prod[..., 0]
    )


def _coords(x) -> np.ndarray:
    return np.asarray(getattr(x, "coords", x), dtype=float)


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

    @property
    def n(self) -> int:
        return self.coords.shape[0] - 1


def origin(n: int) -> HPoint:
    """The reference point (1, 0, ..., 0) of H^n."""
    c = np.zeros(n + 1)
    c[0] = 1.0
    return HPoint(c)


def distance(x, y) -> float:
    """Geodesic distance arccosh(-<x, y>) between two hyperboloid points.

    Pairings in [1 - 1e-9, 1) clamp to distance 0; anything smaller is an
    invalid-point error.
    """
    c = -minkowski(x, y)
    if c < 1.0 - CLAMP_TOL:
        raise ValueError(f"invalid point pair: -<x,y> = {c} < 1")
    if c < 1.0:
        return 0.0
    return float(np.arccosh(c))


def geodesic_point(x, y, t: float) -> HPoint:
    """Constant-speed geodesic from x (t=0) to y (t=1), evaluated at t.

    Uses (sinh((1-t) l) x + sinh(t l) y) / sinh(l) with l = d(x, y); for
    l < 1e-6 falls back to normalized linear interpolation, exact to O(l^2).
    """
    xa, ya = _coords(x), _coords(y)
    ell = distance(xa, ya)
    if ell < SHORT_GEODESIC:
        c = (1.0 - t) * xa + t * ya
    else:
        c = (np.sinh((1.0 - t) * ell) * xa + np.sinh(t * ell) * ya) / np.sinh(ell)
    return HPoint(c)


def to_klein(x) -> np.ndarray:
    """Klein-ball coordinates (x1/x0, ..., xn/x0). Works for HPoint, IdealPoint
    or a batch array of hyperboloid coordinates (last axis)."""
    c = _coords(x)
    return c[..., 1:] / c[..., :1]


def from_klein(u, ideal: bool = False):
    """Inverse Klein chart.  |u| < 1 gives an HPoint, |u| = 1 with ideal=True
    gives an IdealPoint."""
    ua = np.asarray(u, dtype=float).reshape(-1)
    r2 = float(ua @ ua)
    if ideal:
        if abs(r2 - 1.0) > 1e-9:
            raise ValueError(f"ideal Klein point must satisfy |u| = 1, got |u|^2 = {r2}")
        return IdealPoint(np.concatenate(([1.0], ua)))
    if r2 >= 1.0:
        raise ValueError(f"Klein point outside the open ball: |u|^2 = {r2}")
    return HPoint(np.concatenate(([1.0], ua)) / np.sqrt(1.0 - r2))


@dataclass(frozen=True)
class Isometry:
    """A Lorentz matrix preserving the upper sheet (M^T J M = J, M[0,0] > 0)."""

    matrix: np.ndarray

    def __init__(self, matrix, validate: bool = True):
        m = np.array(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("isometry matrix must be square")
        if validate:
            j = np.diag(mink_diag(m.shape[0] - 1))
            defect = np.max(np.abs(m.T @ j @ m - j))
            if defect > LORENTZ_TOL:
                raise ValueError(f"not a Lorentz matrix: |M^T J M - J| = {defect}")
            if m[0, 0] <= 0:
                raise ValueError("matrix swaps hyperboloid sheets")
        object.__setattr__(self, "matrix", m)
        self.matrix.setflags(write=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0] - 1

    def inverse(self) -> "Isometry":
        return Isometry(lorentz_inverse(self.matrix), validate=False)

    def __matmul__(self, other: "Isometry") -> "Isometry":
        return Isometry(self.matrix @ other.matrix, validate=False)


def transport_from_origin(p) -> np.ndarray:
    """Matrix of the transvection (pure translation) carrying the origin to p.

    Built as the composition of point reflections through the origin and the
    midpoint; always orientation-preserving, and it parallel-transports the
    reference tangent basis along the geodesic.
    """
    pa = _coords(p)
    n = pa.shape[0] - 1
    o = np.zeros(n + 1)
    o[0] = 1.0
    c = minkowski(pa, o)
    if abs(c + 1.0) < 1e-16:
        return np.eye(n + 1)
    mid = pa + o
    mid = mid / np.sqrt(2.0 * (1.0 - c))
    j = np.diag(mink_diag(n))

    def point_reflection(m):
        return -np.eye(n + 1) - 2.0 * np.outer(m, j @ m)

    return point_reflection(mid) @ point_reflection(o)


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
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "tangents", t)
        self.tangents.setflags(write=False)

    @property
    def n(self) -> int:
        return self.base.n


def reference_frame(n: int) -> Frame:
    """The frame at (1, 0, ..., 0) whose tangents are the spatial basis vectors."""
    t = np.zeros((n, n + 1))
    for i in range(n):
        t[i, i + 1] = 1.0
    return Frame(origin(n), t)


def frame_to_isometry(frame: Frame) -> Isometry:
    """The unique isometry carrying the reference frame to ``frame``.

    Its matrix has the base point as column 0 and the tangent vectors as the
    remaining columns; a degenerate (non-orthonormal) frame is an error.
    """
    n = frame.n
    m = np.empty((n + 1, n + 1))
    m[:, 0] = frame.base.coords
    m[:, 1:] = frame.tangents.T
    j = np.diag(mink_diag(n))
    defect = np.max(np.abs(m.T @ j @ m - j))
    if defect > 1e-8:
        raise ValueError(f"degenerate frame: orthonormality defect {defect}")
    return Isometry(m, validate=False)


def exp_point(base, tangent) -> HPoint:
    """Riemannian exponential: follow the tangent vector (in T_base H^n) for
    its own length.  ``tangent`` must be Minkowski-orthogonal to base."""
    b = _coords(base)
    v = np.asarray(tangent, dtype=float)
    vv = minkowski(v, v)
    if vv < 0:
        raise ValueError("tangent vector is not spacelike")
    r = np.sqrt(vv)
    if r < 1e-14:
        return HPoint(b)
    return HPoint(np.cosh(r) * b + np.sinh(r) * (v / r))


def log_direction(base, target) -> np.ndarray:
    """Unit tangent vector at ``base`` pointing toward ``target``."""
    b, t = _coords(base), _coords(target)
    w = t + minkowski(t, b) * b
    ww = minkowski(w, w)
    if ww <= 0:
        raise ValueError("cannot take direction toward the same point")
    return w / np.sqrt(ww)


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

    @property
    def k(self) -> int:
        """Simplex dimension (number of vertices minus one)."""
        return self.vertices.shape[0] - 1

    @property
    def n(self) -> int:
        """Ambient dimension."""
        return self.vertices.shape[1] - 1

    def orientation(self) -> int:
        """Sign of det of the vertex-coordinate matrix (0 if not full rank)."""
        if self.k != self.n:
            raise ValueError("orientation needs a top-dimensional simplex")
        d = np.linalg.det(self.vertices)
        if d > 0:
            return 1
        if d < 0:
            return -1
        return 0


def _validate_barycentric(weights, k: int) -> np.ndarray:
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.shape[0] != k + 1:
        raise ValueError(f"expected {k + 1} barycentric weights, got {w.shape[0]}")
    if np.any(w < -1e-12):
        raise ValueError("barycentric weights must be nonnegative")
    if abs(float(np.sum(w)) - 1.0) > 1e-12:
        raise ValueError("barycentric weights must sum to 1")
    return np.clip(w, 0.0, 1.0)


def straight_eval(simplex: GeodesicSimplex, weights) -> HPoint:
    """Evaluate the straight (geodesic-coned) simplex at barycentric weights.

    Defined recursively: on the segment from a point of the front face to the
    last vertex the map is the constant-speed geodesic between their images.
    Vertices must be finite.
    """
    if bool(np.any(simplex.ideal)):
        raise ValueError("straight_eval needs finite vertices")
    w = _validate_barycentric(weights, simplex.k)
    verts = simplex.vertices

    def rec(vs: np.ndarray, wt: np.ndarray) -> np.ndarray:
        if vs.shape[0] == 1:
            return vs[0]
        t = wt[-1]
        if t >= 1.0 - 1e-15:
            return vs[-1]
        base = rec(vs[:-1], wt[:-1] / (1.0 - t))
        return geodesic_point(base, vs[-1], t).coords

    return HPoint(rec(verts, w))
