"""Volumes of geodesic simplices.

Numerical volumes are computed in the Klein ball, where a straight simplex
is the Euclidean simplex on the vertex images and the hyperbolic volume
element is (1 - |u|^2)^{-(n+1)/2} du.  The quadrature is adaptive
longest-edge bisection with an interior (Grundmann-Moeller) rule pair for
two-level error estimation.

Closed forms: Gauss-Bonnet angle defect (n=2) and the ideal regular volume
v_n, which is exact for n=2 and a Lobachevsky evaluation for n=3.  For
n >= 4, v_n comes from Schlaefli's differential formula along the family of
regular simplices, a one-variable recursion in the edge length that is
integrated by Chebyshev interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from hypsmear.hypgeom import POINT_NORM_TOL, HPoint, to_klein

__all__ = [
    "MAX_EDGE",
    "QuadratureSpec",
    "VolumeResult",
    "VolumeConstants",
    "klein_volume",
    "signed_volume",
    "lobachevsky",
    "ideal_regular_volume",
    "regular_simplex",
    "regular_simplex_volume",
    "triangle_areas",
    "triangle_signed_area",
]

_MAX_CELLS = 1_000_000

# Longest supported regular-simplex edge.  Above about L = 36 the squared
# circumradius cosh^2 nears 2^53 and the vertex rows lose <x,x> = -1 to
# rounding, so HPoint rejects some of them; 32 keeps a margin of e^4.
MAX_EDGE = 32.0


@dataclass(frozen=True)
class QuadratureSpec:
    """Settings for adaptive simplex quadrature.

    abs_tol: absolute error target for the total integral.
    max_subdivisions: refinement-sweep budget.
    """

    abs_tol: float = 1e-8
    max_subdivisions: int = 400

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


# Chebyshev fits of _schlafli_volume: the edge interval [0, _SCHLAFLI_END], at
# whose end V_n is v_n to rounding for n >= 3; the two degrees whose difference
# is the error estimate; and the largest relative error estimate accepted
_SCHLAFLI_END = 40.0
_SCHLAFLI_DEGREES = (400, 200)
_SCHLAFLI_RTOL = 1e-10


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
    method: str  # "exact" | "lobachevsky" | "schlafli"
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


class _Rules(NamedTuple):
    """Both Grundmann-Moeller rules of the pair for the n-simplex and the
    column layout of the cell array that _integrate_adaptive refines."""

    pts: np.ndarray  # (P, n+1) barycentric points, high-degree rule first
    w_hi: np.ndarray
    w_lo: np.ndarray
    half_i: np.ndarray  # 0.5 * pts[:, I] over the off-diagonal pairs (I, J)
    pts_j: np.ndarray  # pts[:, J]
    pair_edge: np.ndarray  # edge index of each off-diagonal pair
    pi: np.ndarray  # edge e joins vertices pi[e] < pj[e]
    pj: np.ndarray
    col_i: np.ndarray  # (E, n+1) cell columns of vertex pi[e]: coordinates, then defect
    col_j: np.ndarray
    # cell columns: vertices [0, H), defects [H, DET), then det, value,
    # error estimate, and squared edge lengths [E2, width)
    H: int
    DET: int
    VAL: int
    ERR: int
    E2: int
    width: int


@lru_cache(maxsize=None)
def _rule_setup(n: int) -> _Rules:
    # the degree-5 rule, with the degree-7 one driving the error estimate
    pts_lo, w_lo = _gm_rule(n, 2)
    pts_hi, w_hi = _gm_rule(n, 3)
    pts = np.concatenate([pts_hi, pts_lo])
    edges = list(combinations(range(n + 1), 2))
    pi, pj = (np.array(p) for p in zip(*edges))
    # i-major order: the quadratic form is summed in the order of the full
    # (n+1) x (n+1) contraction, whose diagonal terms are exact zeros
    pairs = [(i, j) for i in range(n + 1) for j in range(n + 1) if i != j]
    ii, jj = (np.array(p) for p in zip(*pairs))
    pair_edge = np.array([edges.index((min(i, j), max(i, j))) for i, j in pairs])
    H = (n + 1) * n
    DET = H + n + 1
    cols = np.column_stack([np.arange(H).reshape(n + 1, n), H + np.arange(n + 1)])
    return _Rules(pts, w_hi, w_lo, 0.5 * pts[:, ii], pts[:, jj], pair_edge, pi, pj,
                  cols[pi], cols[pj], H, DET, DET + 1, DET + 2, DET + 3, DET + 3 + len(edges))


def _rule_values(cells, r: _Rules, expo) -> None:
    """Fill the value, error-estimate and squared-edge columns of ``cells``
    from their vertex, defect and |det| columns.

    The density argument 1 - |P|^2 at a barycentric point lam is evaluated as
    lam.h + (1/2) lam^T D lam with D the squared-edge-length matrix; every
    term is nonnegative, so deep near-boundary cells lose no precision.
    Both rules are evaluated in one pass over their stacked points.
    The einsum parts give each row the same bits in any batch, but the BLAS
    products `dens @ w` do not: a row's value depends on the batch size and
    its position in it, so re-batching the cells of _integrate_adaptive
    moves the last bits of every volume.  The einsum reductions follow their
    operands' memory layout, too: the edge vectors must be C-ordered
    (cell, edge, coordinate), which np.take gives and a gather that leaves
    the cell axis innermost does not.
    """
    verts = cells[:, : r.H].reshape(len(cells), r.pts.shape[1], -1)
    edge = np.take(verts, r.pi, axis=1) - np.take(verts, r.pj, axis=1)
    e2 = np.einsum("mek,mek->me", edge, edge)
    lin = np.einsum("mj,pj->mp", cells[:, r.H : r.DET], r.pts)
    quad = np.einsum("pt,mt,pt->mp", r.half_i, e2[:, r.pair_edge], r.pts_j)
    dens = (lin + quad) ** expo
    nh = len(r.w_hi)
    hi = dens[:, :nh] @ r.w_hi
    lo = dens[:, nh:] @ r.w_lo
    dets = cells[:, r.DET]
    cells[:, r.VAL] = dets * hi
    cells[:, r.ERR] = np.abs(dets * (hi - lo))
    cells[:, r.E2 :] = e2


def _integrate_adaptive(kverts, hs0, spec: QuadratureSpec):
    n = kverts.shape[1]
    r = _rule_setup(n)
    expo = -(n + 1) / 2.0

    det0 = abs(float(np.linalg.det(kverts[1:] - kverts[0])))
    if det0 == 0.0:
        return 0.0, 0.0, True

    cells = np.empty((1, r.width))
    cells[0, : r.H] = kverts.ravel()
    cells[0, r.H : r.DET] = hs0
    cells[0, r.DET] = det0
    _rule_values(cells, r, expo)

    converged = False
    for _ in range(spec.max_subdivisions):
        err = cells[:, r.ERR]
        if float(err.sum()) <= spec.abs_tol:
            converged = True
            break
        if len(cells) >= _MAX_CELLS:
            break
        thr = spec.abs_tol / (2.0 * len(cells))
        mask = err > thr
        if not mask.any():
            mask = err >= float(err.max())

        # bisect each selected cell across its longest edge (i, j); the midpoint's
        # defect is the endpoints' mean plus |edge|^2 / 4.  First halves (i moved), then second
        sel = cells[mask]
        s = len(sel)
        ar = np.arange(s)[:, None]
        am = np.argmax(sel[:, r.E2 :], axis=1)
        ci, cj = r.col_i[am], r.col_j[am]
        mid = 0.5 * (sel[ar, ci] + sel[ar, cj])
        mid[:, -1] += 0.25 * sel[ar[:, 0], r.E2 + am]

        kids = np.concatenate([sel, sel])
        kids[ar, ci] = mid
        kids[s + ar, cj] = mid
        kids[:, r.DET] *= 0.5
        _rule_values(kids, r, expo)
        cells = kids if s == len(cells) else np.concatenate([cells[~mask], kids])

    return float(np.sum(cells[:, r.VAL])), float(np.sum(cells[:, r.ERR])), converged


def klein_volume(verts: np.ndarray, q: QuadratureSpec | None = None) -> VolumeResult:
    """Unsigned hyperbolic volume of a top-dimensional straight simplex,
    integrated adaptively in Klein coordinates.

    ``verts`` is the (n+1, n+1) array of hyperboloid vertex rows.  Vertices
    must be finite: a light-cone (ideal) row is an error.
    """
    spec = q if q is not None else QuadratureSpec()
    verts = np.asarray(verts, dtype=float)
    k, n = verts.shape[0] - 1, verts.shape[1] - 1
    if k != n:
        raise ValueError(f"need a top-dimensional simplex: k={k}, n={n}")
    # HPoint's own rule: <x,x> carries an absolute error ~ x0^2 * eps
    x0 = verts[:, 0]
    q = np.sum(verts[:, 1:] ** 2, axis=1) - x0 * x0
    if not np.all((x0 > 0) & (np.abs(q + 1.0) <= POINT_NORM_TOL * np.maximum(1.0, x0 * x0))):
        raise ValueError("vertex rows must be finite points of the upper sheet (<x,x> = -1); "
                         "ideal vertices are not supported")

    # canonical vertex order: the result is bit-identical under permutations
    order = np.lexsort(verts.T[::-1])
    v = verts[order]
    kv = to_klein(v)
    hs = 1.0 / v[:, 0] ** 2  # 1 - |u|^2 of the Klein images, without cancellation
    value, err, conv = _integrate_adaptive(kv, hs, spec)
    return VolumeResult(value, err, conv)


def signed_volume(verts: np.ndarray, q: QuadratureSpec | None = None) -> float:
    """Orientation-signed volume (sign of det of the vertex rows, 0 when
    degenerate) of a vertex array, as in klein_volume; odd vertex
    permutations flip the sign."""
    d = np.linalg.det(np.asarray(verts, dtype=float))
    if not abs(d) > 0:
        return 0.0
    return (1.0 if d > 0 else -1.0) * klein_volume(verts, q).value


# zeta(2m), m = 1..59, as scipy.special.zeta(2m, 1) gives it (1.0 from m = 27 on): v_3
# was frozen on these bits, and that zeta(2) is one ulp above the rounded pi^2/6.
_ZETA_EVEN = (
    1.6449340668482266, 1.0823232337111381, 1.0173430619844488, 1.0040773561979446,
    1.0009945751278182, 1.0002460865533078, 1.0000612481350586, 1.0000152822594084,
    1.000003817293265, 1.0000009539620338, 1.0000002384505027, 1.000000059608189,
    1.0000000149015549, 1.000000003725334, 1.0000000009313275, 1.000000000232831,
    1.0000000000582077, 1.000000000014552, 1.000000000003638, 1.0000000000009095,
    1.0000000000002274, 1.0000000000000568, 1.0000000000000142, 1.0000000000000036,
    1.0000000000000009, 1.0000000000000002,
) + (1.0,) * 33


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
    for m, zeta in enumerate(_ZETA_EVEN, 1):
        term = zeta * power / (m * (2 * m + 1))
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


def regular_simplex(n: int, L: float) -> np.ndarray:
    """Vertex rows (n+1, n+1) of the regular geodesic n-simplex with all
    edge lengths L in (0, MAX_EDGE], centered at the reference point and
    positively oriented; each row is validated and normalized by HPoint."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0 < L <= MAX_EDGE:
        raise ValueError(f"edge length must lie in (0, {MAX_EDGE:g}], got {L}")
    u = _unit_regular_directions(n)
    cosh_s = math.sqrt((n * math.cosh(L) + 1.0) / (n + 1.0))
    sinh_s = math.sqrt(cosh_s * cosh_s - 1.0)
    verts = np.column_stack([np.full(n + 1, cosh_s), sinh_s * u])
    if np.linalg.det(verts) < 0:
        u = u.copy()
        u[:, -1] *= -1.0
        verts = np.column_stack([np.full(n + 1, cosh_s), sinh_s * u])
    return np.array([HPoint(row).coords for row in verts])


def regular_simplex_volume(n: int, L: float, q: QuadratureSpec | None = None) -> VolumeResult:
    return klein_volume(regular_simplex(n, L), q)


def _schlafli_volume(n: int):
    """V_n(L), the volume of the regular n-simplex of edge L, as a Chebyshev
    series on [0, _SCHLAFLI_END], and the error estimate of its value at L = _SCHLAFLI_END.

    With h = cosh L, the dihedral angle a_n has cos a_n = h / (1 + (n-1) h),
    and the C(n+1, 2) codimension-2 faces are regular (n-2)-simplices of
    edge L.  Schlaefli's formula dV_n = -(1/(n-1)) sum_F V_{n-2}(F) da_F
    then gives, from V_0 = 1 and V_1(L) = L,

        V_n(L) = n(n+1) / (2(n-1)) int_0^L V_{n-2}(l) w_n(l) dl,
        w_n(l) = sinh l / ((1 + (n-1)h) sqrt((1 + (n-2)h)(1 + nh))).

    Every integrand is analytic in l, and w_n decays like e^(-l) for n >= 3,
    so V_n(_SCHLAFLI_END) is v_n to rounding.  The recursion runs at both
    _SCHLAFLI_DEGREES, and the difference of their values is the error
    estimate.  A level whose estimate passes _SCHLAFLI_RTOL of its value, or
    whose value underflows, is a ValueError: the estimate stays below 4e-15
    relative up to n = 10 and passes the bound in the forties.
    """
    from numpy.polynomial import Chebyshev  # here, so that `import hypsmear.cli` does not load it

    domain = [0.0, _SCHLAFLI_END]
    fits = [Chebyshev.identity(domain=domain) ** (n % 2)] * len(_SCHLAFLI_DEGREES)  # V_0 or V_1
    err = 0.0
    for k in range(n % 2 + 2, n + 1, 2):

        def integrand(x, prev):
            h = np.cosh(x)
            den = (1.0 + (k - 1) * h) * np.sqrt((1.0 + (k - 2) * h) * (1.0 + k * h))
            return prev(x) * np.sinh(x) / den

        scale = k * (k + 1) / (2.0 * (k - 1))
        fits = [scale * Chebyshev.interpolate(integrand, deg, domain, args=(prev,)).integ(lbnd=0.0)
                for prev, deg in zip(fits, _SCHLAFLI_DEGREES)]
        value, other = (float(f(_SCHLAFLI_END)) for f in fits)
        err = abs(value - other)
        if not (value > 0.0 and err <= _SCHLAFLI_RTOL * value):
            raise ValueError(f"v_{n} is out of reach: level {k} of the Schlaefli recursion is "
                             f"{value:.3g} with error estimate {err:.2g}, "
                             f"beyond {_SCHLAFLI_RTOL:g} relative")
    return fits[0], err


def ideal_regular_volume(n: int) -> VolumeConstants:
    """The volume v_n of the regular ideal n-simplex.

    n=2 is exactly pi; n=3 is 3 Lambda(pi/3); n >= 4 integrates Schlaefli's
    formula along the regular family (see _schlafli_volume).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if n == 2:
        return VolumeConstants(2, math.pi, "exact")
    if n == 3:
        return VolumeConstants(3, 3.0 * lobachevsky(math.pi / 3.0), "lobachevsky", 1e-14)
    fit, err = _schlafli_volume(n)
    return VolumeConstants(n, float(fit(_SCHLAFLI_END)), "schlafli", err)


# Gram columns of the vertex pairs (_P, _Q) = (0, 1), (0, 2), (1, 2); the angle
# at vertex v = 0, 1, 2 against its pair (p, q) reads columns G_pq, G_vp, G_vq
_P, _Q = np.array([0, 0, 1]), np.array([1, 2, 2])
_PQ, _VP, _VQ = np.array([2, 1, 0]), np.array([0, 0, 1]), np.array([1, 2, 2])


def triangle_areas(verts: np.ndarray) -> np.ndarray:
    """Signed areas (angle defect) of the (m, 3, 3) vertex triples of H^2;
    the sign is that of det of the rows, degenerate triples get zero.

    The angle at v against (p, q) has cos (G_pq + G_vp G_vq) /
    sqrt((G_vp^2-1)(G_vq^2-1)), G the Minkowski Gram matrix: no digits are
    lost to the size of the rows (rounding < 1e-15 e^(L/2) on perturbed
    edge-L regular triangles).  A row has the same bits in any batch.
    """
    xy = verts[:, _P] * verts[:, _Q]
    g = -xy[:, :, 0] + xy[:, :, 1] + xy[:, :, 2]  # summed in einsum's order
    gvp, gvq = g[:, _VP], g[:, _VQ]
    den2 = (gvp ** 2 - 1.0) * (gvq ** 2 - 1.0)
    cosang = (g[:, _PQ] + gvp * gvq) / np.sqrt(np.maximum(den2, 1e-24))
    angles = np.arccos(np.minimum(np.maximum(cosang, -1.0), 1.0))
    area = math.pi - (angles[:, 0] + angles[:, 1] + angles[:, 2])
    out = np.abs(area) * np.sign(np.linalg.det(verts))
    out[(den2 <= 1e-24).any(axis=1)] = 0.0
    return out


def triangle_signed_area(a, b, c) -> float:
    """Signed area of the triangle with vertex rows a, b, c: triangle_areas of one triple."""
    return float(triangle_areas(np.array([[a, b, c]], dtype=float))[0])
