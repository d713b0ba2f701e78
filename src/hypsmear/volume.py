"""Volumes of geodesic simplices.

Numerical volumes are computed in the Klein ball, where a straight simplex
is the Euclidean simplex on the vertex images and the hyperbolic volume
element is (1 - |u|^2)^{-(n+1)/2} du.  The quadrature is adaptive
longest-edge bisection with an interior (Grundmann-Moeller) rule pair for
two-level error estimation.

Closed forms: Gauss-Bonnet angle defect (n=2) and the ideal regular volume
v_n, which is exact for n=2, a Lobachevsky evaluation for n=3, and a
geometric-sequence extrapolation of finite regular-simplex volumes for
n >= 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy.special import zeta

from hypsmear.hypgeom import (
    GeodesicSimplex,
    HPoint,
    minkowski,
    to_klein,
)

__all__ = [
    "QuadratureSpec",
    "VolumeResult",
    "VolumeConstants",
    "klein_volume",
    "signed_volume",
    "gauss_bonnet_area",
    "lobachevsky",
    "ideal_regular_volume",
    "extrapolated_regular_volume",
    "regular_simplex",
    "regular_simplex_volume",
    "triangle_signed_area",
]

_MAX_CELLS = 1_000_000


@dataclass(frozen=True)
class QuadratureSpec:
    """Settings for adaptive simplex quadrature.

    abs_tol: absolute error target for the total integral.
    max_subdivisions: refinement-sweep budget.
    rule_order: polynomial degree of the base interior rule (odd >= 3);
    the companion rule of degree rule_order + 2 drives the error estimate.
    """

    abs_tol: float = 1e-8
    max_subdivisions: int = 400
    rule_order: int = 5

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if self.rule_order < 3 or self.rule_order % 2 == 0:
            raise ValueError("rule_order must be an odd integer >= 3")


@dataclass(frozen=True)
class VolumeResult:
    value: float
    err_estimate: float
    converged: bool


@dataclass(frozen=True)
class VolumeConstants:
    """The ideal regular simplex volume v_n and how it was obtained."""

    n: int
    v_n: float
    method: str  # "exact" | "lobachevsky" | "extrapolated"
    err_estimate: float = 0.0


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


@lru_cache(maxsize=None)
def _gm_rule(k: int, s: int):
    """Grundmann-Moeller rule of degree 2s+1 on the k-simplex.

    Returns barycentric points (m, k+1) and weights (m,) normalized so that
    sum(w) = 1/k! (the volume of the standard simplex); the integral over an
    arbitrary Euclidean simplex is |det(edge matrix)| * sum(w_p f(x_p)).
    """
    d = 2 * s + 1
    pts, wts = [], []
    for i in range(s + 1):
        denom = d + k - 2 * i
        c = ((-1.0) ** i) * math.exp(
            -2 * s * math.log(2.0)
            + d * math.log(denom)
            - math.lgamma(i + 1)
            - math.lgamma(d + k - i + 1)
        )
        for beta in _compositions(s - i, k + 1):
            pts.append([(2 * b + 1) / denom for b in beta])
            wts.append(c)
    return np.array(pts), np.array(wts)


def _klein_defect(x) -> float:
    """1 - |u|^2 for the Klein image of a hyperboloid point, computed without
    cancellation: equals 1/x0^2 on the unit hyperboloid."""
    c = np.asarray(getattr(x, "coords", x), dtype=float)
    return 1.0 / (c[..., 0] ** 2)


@lru_cache(maxsize=None)
def _rule_setup(n: int, rule_order: int):
    """Both Grundmann-Moeller rules of the pair for the n-simplex, their
    points stacked (high-degree rule first), plus the edge vertex pairs."""
    s_lo = (rule_order - 1) // 2
    pts_lo, w_lo = _gm_rule(n, s_lo)
    pts_hi, w_hi = _gm_rule(n, s_lo + 1)
    pi, pj = (np.array(p) for p in zip(*combinations(range(n + 1), 2)))
    return np.concatenate([pts_hi, pts_lo]), w_hi, w_lo, pi, pj


def _rule_values(verts, hs, dets, rules, expo):
    """Integral and error estimate per simplex.

    verts: (M, k+1, k) Klein vertices; hs: (M, k+1) boundary defects
    1 - |v|^2 per vertex; dets: (M,) |det| of the edge matrices.
    The density argument 1 - |P|^2 at a barycentric point lam is evaluated as
    lam.h + (1/2) lam^T D lam with D the squared-edge-length matrix; every
    term is nonnegative, so deep near-boundary cells lose no precision.
    Both rules are evaluated in one pass over their stacked points.
    The einsum parts give each row the same bits in any batch, but the BLAS
    products `dens @ w` do not: a row's value depends on the batch size and
    its position in it, so re-batching the cells of _integrate_adaptive
    moves the last bits of every volume.
    """
    pts, w_hi, w_lo = rules
    diff = verts[:, :, None, :] - verts[:, None, :, :]
    d2 = np.einsum("mijk,mijk->mij", diff, diff)
    lin = np.einsum("mj,pj->mp", hs, pts)
    quad = 0.5 * np.einsum("pi,mij,pj->mp", pts, d2, pts)
    dens = (lin + quad) ** expo
    nh = len(w_hi)
    hi = dens[:, :nh] @ w_hi
    lo = dens[:, nh:] @ w_lo
    val = dets * hi
    err = np.abs(dets * (hi - lo))
    return val, err


def _integrate_adaptive(kverts, hs0, spec: QuadratureSpec):
    n = kverts.shape[1]
    *rules, pi, pj = _rule_setup(n, spec.rule_order)
    expo = -(n + 1) / 2.0

    det0 = abs(float(np.linalg.det(kverts[1:] - kverts[0])))
    if det0 == 0.0:
        return 0.0, 0.0, True

    verts = kverts[None, :, :].copy()
    hs = hs0[None, :].copy()
    dets = np.array([det0])
    val, err = _rule_values(verts, hs, dets, rules, expo)

    converged = False
    for _ in range(spec.max_subdivisions):
        tot_err = float(np.sum(err))
        if tot_err <= spec.abs_tol:
            converged = True
            break
        if verts.shape[0] >= _MAX_CELLS:
            break
        thr = spec.abs_tol / (2.0 * verts.shape[0])
        mask = err > thr
        if not mask.any():
            mask = err >= float(err.max())

        sv, sh = verts[mask], hs[mask]
        sd = dets[mask]
        edge = sv[:, pi, :] - sv[:, pj, :]
        lens = np.einsum("mek,mek->me", edge, edge)
        am = np.argmax(lens, axis=1)
        ii, jj = pi[am], pj[am]
        ar = np.arange(sv.shape[0])
        d = sv[ar, ii] - sv[ar, jj]
        vm = 0.5 * (sv[ar, ii] + sv[ar, jj])
        hm = 0.5 * (sh[ar, ii] + sh[ar, jj]) + 0.25 * np.einsum("mk,mk->m", d, d)

        c1, h1 = sv.copy(), sh.copy()
        c1[ar, ii] = vm
        h1[ar, ii] = hm
        c2, h2 = sv.copy(), sh.copy()
        c2[ar, jj] = vm
        h2[ar, jj] = hm

        child_v = np.concatenate([c1, c2])
        child_h = np.concatenate([h1, h2])
        child_d = np.concatenate([0.5 * sd, 0.5 * sd])
        cval, cerr = _rule_values(child_v, child_h, child_d, rules, expo)

        keep = ~mask
        verts = np.concatenate([verts[keep], child_v])
        hs = np.concatenate([hs[keep], child_h])
        dets = np.concatenate([dets[keep], child_d])
        val = np.concatenate([val[keep], cval])
        err = np.concatenate([err[keep], cerr])

    return float(np.sum(val)), float(np.sum(err)), converged


def klein_volume(s, q: QuadratureSpec | None = None) -> VolumeResult:
    """Unsigned hyperbolic volume of a top-dimensional straight simplex,
    integrated adaptively in Klein coordinates.

    ``s`` is a GeodesicSimplex or an (n+1, n+1) array of hyperboloid vertex
    rows.  Vertices must be finite: an ideal vertex is an error.
    """
    spec = q if q is not None else QuadratureSpec()
    if bool(np.any(getattr(s, "ideal", False))):
        raise ValueError("ideal vertices are not supported")
    verts = np.asarray(getattr(s, "vertices", s), dtype=float)
    k, n = verts.shape[0] - 1, verts.shape[1] - 1
    if k != n:
        raise ValueError(f"need a top-dimensional simplex: k={k}, n={n}")

    # canonical vertex order: the result is bit-identical under permutations
    order = np.lexsort(verts.T[::-1])
    v = verts[order]
    kv = to_klein(v)
    hs = _klein_defect(v)
    value, err, conv = _integrate_adaptive(kv, hs, spec)
    return VolumeResult(value, err, conv)


def signed_volume(s, q: QuadratureSpec | None = None) -> float:
    """Orientation-signed volume (sign of det of the vertex rows, 0 when
    degenerate) of a GeodesicSimplex or vertex array, as in klein_volume;
    odd vertex permutations flip the sign."""
    d = np.linalg.det(np.asarray(getattr(s, "vertices", s), dtype=float))
    if not abs(d) > 0:
        return 0.0
    return (1.0 if d > 0 else -1.0) * klein_volume(s, q).value


def _angles_from_sides(sides) -> list:
    a, b, c = (float(x) for x in sides)
    if min(a, b, c) <= 0:
        raise ValueError("side lengths must be positive")
    if a >= b + c or b >= a + c or c >= a + b:
        raise ValueError("side lengths violate the triangle inequality")
    ch = [math.cosh(a), math.cosh(b), math.cosh(c)]
    sh = [math.sinh(a), math.sinh(b), math.sinh(c)]
    out = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        cos_i = (ch[j] * ch[k] - ch[i]) / (sh[j] * sh[k])
        out.append(math.acos(min(1.0, max(-1.0, cos_i))))
    return out


def gauss_bonnet_area(angles=None, sides=None) -> float:
    """Hyperbolic triangle area pi - alpha - beta - gamma.

    Give either the three angles (zeros allowed, for ideal vertices) or the
    three side lengths; sides are converted through the law of cosines.
    """
    if (angles is None) == (sides is None):
        raise ValueError("give exactly one of angles or sides")
    if sides is not None:
        angles = _angles_from_sides(sides)
    angs = [float(x) for x in angles]
    if len(angs) != 3:
        raise ValueError("a triangle has exactly three angles")
    if min(angs) < 0:
        raise ValueError("angles must be nonnegative")
    total = sum(angs)
    if total >= math.pi:
        raise ValueError(f"angle sum {total} is not < pi")
    return math.pi - total


@lru_cache(maxsize=None)
def _zeta_even(m: int) -> float:
    return float(zeta(2 * m, 1))


def lobachevsky(theta: float) -> float:
    """The Lobachevsky function, pi-periodic and odd.

    Evaluated through the log-sine expansion
    theta - theta log(2 theta) + sum_m zeta(2m) theta^(2m+1) / (m (2m+1) pi^(2m)),
    absolutely convergent for |theta| <= pi/2 and summed to ~1e-16; the
    sine-series definition (1/2) sum sin(2k theta)/k^2 is kept in the test
    suite as an independent oracle.
    """
    t = math.remainder(float(theta), math.pi)
    if t == 0.0 or abs(t) == math.pi / 2:
        # endpoint zeros of the function, exact by symmetry
        return 0.0
    sign = 1.0
    if t < 0:
        sign, t = -1.0, -t
    acc = t - t * math.log(2.0 * t)
    ratio = (t / math.pi) ** 2
    power = t * ratio
    for m in range(1, 60):
        term = _zeta_even(m) * power / (m * (2 * m + 1))
        acc += term
        if term < 1e-17 * max(1.0, abs(acc)):
            break
        power *= ratio
    return sign * acc


def _unit_regular_directions(n: int) -> np.ndarray:
    """n+1 unit vectors in R^n with mutual dot products -1/n."""
    w = np.eye(n + 1) - np.full((n + 1, n + 1), 1.0 / (n + 1))
    helmert = np.zeros((n, n + 1))
    for k in range(1, n + 1):
        helmert[k - 1, :k] = 1.0
        helmert[k - 1, k] = -float(k)
        helmert[k - 1] /= math.sqrt(k * (k + 1.0))
    u = w @ helmert.T
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def regular_simplex(n: int, L: float) -> GeodesicSimplex:
    """The regular geodesic n-simplex with all edge lengths L, centered at
    the reference point and positively oriented."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not L > 0:
        raise ValueError("edge length must be positive")
    u = _unit_regular_directions(n)
    cosh_s = math.sqrt((n * math.cosh(L) + 1.0) / (n + 1.0))
    sinh_s = math.sqrt(cosh_s * cosh_s - 1.0)
    verts = np.column_stack([np.full(n + 1, cosh_s), sinh_s * u])
    if np.linalg.det(verts) < 0:
        u = u.copy()
        u[:, -1] *= -1.0
        verts = np.column_stack([np.full(n + 1, cosh_s), sinh_s * u])
    return GeodesicSimplex([HPoint(row) for row in verts])


def regular_simplex_volume(n: int, L: float, q: QuadratureSpec | None = None) -> VolumeResult:
    return klein_volume(regular_simplex(n, L), q)


def extrapolated_regular_volume(
    n: int,
    l_max: float = 20.0,
    spacing: float = 4.0,
    quad: QuadratureSpec | None = None,
) -> tuple:
    """Aitken extrapolation of W(L) = klein_volume(regular_simplex(n, L))
    toward L = infinity.  Returns (value, err_estimate).

    The deficit v_n - W(L) decays geometrically, so the grid
    {spacing, 2 spacing, ...} is extended only while consecutive increments
    stay resolvable above quadrature noise (up to l_max), and the last three
    resolvable values are extrapolated.  Fewer than three resolvable,
    strictly increasing values is an error: the quadrature is too coarse.
    """
    if l_max < 3 * spacing:
        raise ValueError("l_max must allow at least three grid points")
    spec = quad if quad is not None else QuadratureSpec(abs_tol=1e-7, max_subdivisions=6000)
    ws, errs = [], []
    L = spacing
    while L <= l_max + 1e-9:
        r = regular_simplex_volume(n, L, spec)
        if ws:
            inc = r.value - ws[-1]
            if inc <= 10.0 * (r.err_estimate + errs[-1]):
                break  # increment no longer resolvable against noise
        ws.append(r.value)
        errs.append(r.err_estimate)
        L += spacing
    if len(ws) < 3 or not all(a < b for a, b in zip(ws, ws[1:])):
        raise ValueError(
            "regular-simplex volumes are not resolvably increasing along the "
            "grid; quadrature too coarse for extrapolation"
        )
    w1, w2, w3 = ws[-3:]
    noise = sum(errs[-3:])
    d1, d2 = w2 - w1, w3 - w2
    rho = d2 / d1
    if 0.0 < rho < 0.95:
        corr = d2 * rho / (1.0 - rho)
        return w3 + corr, noise + rho * corr
    return w3 + d2, noise + 2.0 * d2


def ideal_regular_volume(
    n: int,
    l_max: float = 20.0,
    spacing: float = 4.0,
    quad: QuadratureSpec | None = None,
) -> VolumeConstants:
    """The volume v_n of the regular ideal n-simplex.

    n=2 is exactly pi; n=3 is 3 Lambda(pi/3); n >= 4 extrapolates finite
    regular volumes (see extrapolated_regular_volume), which is where the
    grid arguments apply.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if n == 2:
        return VolumeConstants(2, math.pi, "exact")
    if n == 3:
        return VolumeConstants(3, 3.0 * lobachevsky(math.pi / 3.0), "lobachevsky", 1e-14)
    value, err = extrapolated_regular_volume(n, l_max, spacing, quad)
    return VolumeConstants(n, value, "extrapolated", err)


def triangle_signed_area(a, b, c) -> float:
    """Signed area of the geodesic triangle (a, b, c) in H^2 by angle defect.

    Exact up to rounding; the sign follows the orientation convention (sign
    of det of the vertex matrix).  Degenerate triangles give 0.
    """
    rows = np.array([
        np.asarray(getattr(p, "coords", p), dtype=float) for p in (a, b, c)
    ])
    det = np.linalg.det(rows)
    if det == 0.0:
        return 0.0
    total = 0.0
    for i in range(3):
        p = rows[i]
        q1 = rows[(i + 1) % 3]
        q2 = rows[(i + 2) % 3]
        w1 = q1 + minkowski(q1, p) * p
        w2 = q2 + minkowski(q2, p) * p
        n1 = minkowski(w1, w1)
        n2 = minkowski(w2, w2)
        if n1 <= 0 or n2 <= 0:
            return 0.0
        cosang = minkowski(w1, w2) / math.sqrt(n1 * n2)
        total += math.acos(min(1.0, max(-1.0, cosang)))
    area = math.pi - total
    if area < 0.0:
        area = 0.0
    return math.copysign(area, det) if area > 0 else 0.0
