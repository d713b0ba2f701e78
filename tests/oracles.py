"""Independent reference implementations used to freeze expected values.

Everything here deliberately avoids the package's own algorithms: plain
Monte-Carlo rejection for volumes, the half-angle formula for triangle
areas, the slowly-converging log-sine Fourier series and dense grids instead
of optimizers.  Slow but simple.

The exceptions are frozen copies of the package's own earlier code, kept so
that reworks which must not move a bit or an index can be checked against
them: the adaptive Klein quadrature before its cells became one array, the
greedy net covering before arccosh moved after the row minimum, the orbit
search before it ran a frontier at a time, the surface model's inverse and
boundary-side loops, the recursive tube-factor integral, and the retention
check's own second pass over the chain's frames.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy import integrate

from hypsmear.hypgeom import to_klein
from hypsmear.volume import QuadratureSpec, _gm_rule


def mc_klein_mass(kverts: np.ndarray, samples: int = 400_000, seed: int = 11) -> tuple:
    """Monte-Carlo hyperbolic area of a Klein-chart triangle.

    Returns (estimate, sigma).  Uniform rejection in the triangle's bounding
    box, density (1 - |u|^2)^{-3/2}.
    """
    v = np.asarray(kverts, dtype=float)
    assert v.shape == (3, 2)
    rng = np.random.default_rng(seed)
    lo, hi = v.min(axis=0), v.max(axis=0)
    box_area = float(np.prod(hi - lo))
    pts = rng.uniform(lo, hi, size=(samples, 2))
    # barycentric membership
    d = v[1:] - v[0]
    det = d[0, 0] * d[1, 1] - d[0, 1] * d[1, 0]
    rel = pts - v[0]
    a = (rel[:, 0] * d[1, 1] - rel[:, 1] * d[1, 0]) / det
    b = (rel[:, 1] * d[0, 0] - rel[:, 0] * d[0, 1]) / det
    inside = (a >= 0) & (b >= 0) & (a + b <= 1)
    rho2 = np.sum(pts * pts, axis=1)
    vals = np.where(inside & (rho2 < 1.0), (1.0 - np.minimum(rho2, 1.0 - 1e-15)) ** -1.5, 0.0)
    est = box_area * float(vals.mean())
    sig = box_area * float(vals.std()) / math.sqrt(samples)
    return est, sig


def lobachevsky_fourier(theta: float, terms: int = 2_000_000) -> float:
    """Truncated Fourier series 0.5 sum sin(2k theta)/k^2; tail < 0.5/terms."""
    k = np.arange(1, terms + 1, dtype=float)
    return 0.5 * float(np.sum(np.sin(2.0 * k * theta) / (k * k)))


def tube_factor_quadrature(n: int, t: float) -> tuple:
    """2 int_0^t cosh^{n-1}(s) ds by adaptive quadrature."""
    val, err = integrate.quad(lambda s: math.cosh(s) ** (n - 1), 0.0, t, epsrel=1e-13)
    return 2.0 * val, 2.0 * err


def equilateral_area(L: float) -> float:
    """Angle defect of the equilateral triangle with side L, closed form."""
    c = math.cosh(L) / (1.0 + math.cosh(L))
    return math.pi - 3.0 * math.acos(c)


def half_angle_area(a, b, c) -> float:
    """Signed area of the hyperbolic triangle with hyperboloid vertex rows
    a, b, c by the half-angle formula tan(A/2) = det / (1 - <a,b> - <b,c> - <c,a>),
    on plain floats: every term of the denominator is positive."""

    def mink(x, y):
        return -x[0] * y[0] + x[1] * y[1] + x[2] * y[2]

    a, b, c = ([float(t) for t in row] for row in (a, b, c))
    det = (a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
           + a[2] * (b[0] * c[1] - b[1] * c[0]))
    return 2.0 * math.atan2(det, 1.0 - mink(a, b) - mink(b, c) - mink(c, a))


def disk_mass(r: float) -> float:
    return 2.0 * math.pi * (math.cosh(r) - 1.0)


def grid_perturbed_minimum(n: int, L: float, steps: int = 5) -> float:
    """Coarse-grid upper bound for the perturbed-simplex volume infimum.

    Walks radial perturbations of each vertex over a small symmetric grid
    and evaluates signed volumes; the infimum over the grid is an upper
    bound for the true infimum, so vl_estimate must not exceed it (up to
    optimizer tolerance).  n = 2 only.
    """
    from hypsmear.hypgeom import HPoint
    from hypsmear.volume import regular_simplex

    assert n == 2
    base = regular_simplex(2, L)
    # radial unit directions at each vertex, inward/outward
    best = math.inf
    radii = np.linspace(-1.0, 1.0, steps)
    dirs = base[:, 1:] / np.linalg.norm(base[:, 1:], axis=1)[:, None]
    for da in radii:
        for db in radii:
            for dc in radii:
                verts = []
                for q, d, t in zip(base, dirs, (da, db, dc)):
                    rad = math.acosh(q[0]) + t
                    verts.append(
                        HPoint(
                            np.array(
                                [math.cosh(rad), math.sinh(rad) * d[0], math.sinh(rad) * d[1]]
                            )
                        ).coords
                    )
                best = min(best, half_angle_area(*verts))
    return best


def direction_grid_minimum(L: float, steps: int = 48) -> float:
    """Least half-angle area over a steps^3 grid of unit perturbations of the
    regular edge-L triangle: each vertex moves distance 1 in one of
    ``steps`` equally spaced directions of its tangent plane.

    Every grid point is an admissible perturbation, so this is an upper
    bound for V_L: it checks a search, it certifies nothing.
    """
    from hypsmear.volume import regular_simplex

    angles = 2.0 * math.pi * np.arange(steps) / steps
    moved = []
    for q in regular_simplex(2, L):
        r = math.hypot(q[1], q[2])  # sinh of the distance from the origin
        radial = np.array([r, q[0] * q[1] / r, q[0] * q[2] / r])
        angular = np.array([0.0, -q[2] / r, q[1] / r])
        moved.append([tuple(math.cosh(1.0) * q + math.sinh(1.0)
                            * (math.cos(t) * radial + math.sin(t) * angular))
                      for t in angles])
    return min(half_angle_area(a, b, c) for a in moved[0] for b in moved[1] for c in moved[2])


# --- the adaptive Klein quadrature before its cells became one array ---------
# Kept verbatim (rule setup, rule evaluation, bisection loop) so tests can
# assert that the production integrator reproduces it bit for bit.  The
# density argument is a parameter: density_fused is the one the production
# integrator evaluates, density_pairwise the one it evaluated before.

_MAX_CELLS = 1_000_000


@lru_cache(maxsize=None)
def _rule_setup(n: int, rule_order: int):
    """Both Grundmann-Moeller rules of the pair for the n-simplex, their
    points stacked (high-degree rule first), plus the edge vertex pairs."""
    s_lo = (rule_order - 1) // 2
    pts_lo, w_lo = _gm_rule(n, s_lo)
    pts_hi, w_hi = _gm_rule(n, s_lo + 1)
    pi, pj = (np.array(p) for p in zip(*combinations(range(n + 1), 2)))
    return np.concatenate([pts_hi, pts_lo]), w_hi, w_lo, pi, pj


def density_pairwise(hs, d2, pts):
    """The density argument 1 - |P|^2 = lam.h + (1/2) lam^T D lam as the
    quadrature summed it up to its fused form, frozen: a linear einsum plus
    the three-operand quadratic form over the full (n+1) x (n+1) matrix D.

    hs: (M, k+1) vertex defects; d2: (M, k+1, k+1) squared edge lengths;
    pts: (P, k+1) barycentric points.  Returns (M, P).
    """
    lin = np.einsum("mj,pj->mp", hs, pts)
    quad = 0.5 * np.einsum("pi,mij,pj->mp", pts, d2, pts)
    return lin + quad


def density_fused(hs, d2, pts):
    """The same argument as one two-operand contraction: [h | D_ij over the
    edges i < j] against [lam | lam_i lam_j], as `volume._rule_values`
    evaluates it."""
    i, j = np.triu_indices(pts.shape[1], 1)
    table = np.column_stack([pts, pts[:, i] * pts[:, j]])
    return np.einsum("mj,pj->mp", np.concatenate([hs, d2[:, i, j]], axis=1), table)


def _rule_values(verts, hs, dets, rules, expo, density):
    """Integral and error estimate per simplex.

    verts: (M, k+1, k) Klein vertices; hs: (M, k+1) boundary defects
    1 - |v|^2 per vertex; dets: (M,) |det| of the edge matrices.
    The density argument 1 - |P|^2 at a barycentric point lam comes from
    ``density``; every term is nonnegative, so deep near-boundary cells
    lose no precision.  Both rules are evaluated in one pass over their
    stacked points.  The einsum parts give each row the same bits in any
    batch, but the BLAS products `dens @ w` do not: a row's value depends
    on the batch size and its position in it, so re-batching the cells of
    _integrate_adaptive moves the last bits of every volume.
    """
    pts, w_hi, w_lo = rules
    diff = verts[:, :, None, :] - verts[:, None, :, :]
    d2 = np.einsum("mijk,mijk->mij", diff, diff)
    dens = density(hs, d2, pts) ** expo
    nh = len(w_hi)
    hi = dens[:, :nh] @ w_hi
    lo = dens[:, nh:] @ w_lo
    val = dets * hi
    err = np.abs(dets * (hi - lo))
    return val, err


def _integrate_adaptive(kverts, hs0, spec: QuadratureSpec, density):
    n = kverts.shape[1]
    *rules, pi, pj = _rule_setup(n, 5)
    expo = -(n + 1) / 2.0

    det0 = abs(float(np.linalg.det(kverts[1:] - kverts[0])))
    if det0 == 0.0:
        return 0.0, 0.0, True

    verts = kverts[None, :, :].copy()
    hs = hs0[None, :].copy()
    dets = np.array([det0])
    val, err = _rule_values(verts, hs, dets, rules, expo, density)

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
        cval, cerr = _rule_values(child_v, child_h, child_d, rules, expo, density)

        keep = ~mask
        verts = np.concatenate([verts[keep], child_v])
        hs = np.concatenate([hs[keep], child_h])
        dets = np.concatenate([dets[keep], child_d])
        val = np.concatenate([val[keep], cval])
        err = np.concatenate([err[keep], cerr])

    return float(np.sum(val)), float(np.sum(err)), converged


def klein_volume_reference(verts, spec, density=density_fused) -> tuple:
    """(value, err_estimate, converged) of the reference integrator on an
    (n+1, n+1) array of finite hyperboloid vertex rows."""
    verts = np.asarray(verts, dtype=float)
    v = verts[np.lexsort(verts.T[::-1])]
    return _integrate_adaptive(to_klein(v), 1.0 / (v[:, 0] ** 2), spec, density)


def build_net_reference(model, target_radius: float) -> tuple:
    """(centers, covering_radius) of the greedy net covering as it was before
    arccosh moved after the row minimum: the distance to every ball image is
    taken before the minimum."""
    from hypsmear.hypgeom import from_klein_rows, renormalize_rows
    from hypsmear.smear.net import (
        _COVER_SAMPLE,
        _J,
        _LINE_MARGIN,
        _MAX_CENTERS,
        _NET_SEED,
        _uniform_polygon_points,
    )

    rng = np.random.default_rng(_NET_SEED)
    sample = _uniform_polygon_points(model, _COVER_SAMPLE, rng)
    kv = model.klein_polygon()
    mids = 0.5 * (kv + np.roll(kv, -1, axis=0))
    extra = from_klein_rows(np.concatenate([kv, mids]))
    sample = np.concatenate([sample, renormalize_rows(extra)])

    if model.boundary:
        lines = model.boundary_lines(model.domain_radius() + 1.0)
        depth = model.distance_to_boundary(sample, lines)
        cand_ok = depth >= _LINE_MARGIN
    else:
        cand_ok = np.ones(len(sample), dtype=bool)

    ball = model.element_ball(2.0 * model.domain_radius() + 1.0)
    mins = np.full(len(sample), np.inf)
    centers = []
    while len(centers) < _MAX_CENTERS:
        far = int(np.argmax(mins))
        if mins[far] <= target_radius:
            break
        assert cand_ok.any()
        # candidate nearest to the worst-covered point
        d_far = -(sample[cand_ok] * _J) @ sample[far]
        pick = np.flatnonzero(cand_ok)[int(np.argmin(d_far))]
        c = sample[pick]
        centers.append(c)
        cand_ok[pick] = False
        imgs = ball @ c
        dist = np.arccosh(np.maximum(1.0, -(sample * _J) @ imgs.T))
        np.minimum(mins, dist.min(axis=1), out=mins)
        # keep later centers clear of this one
        cand_ok &= np.arccosh(np.maximum(1.0, -(sample * _J) @ c)) > 1e-3
    return np.array(centers), float(np.max(mins))


# --- the orbit search before it ran a frontier at a time ----------------------
# SurfaceModel._orbit, element_ball and boundary_lines kept verbatim, one
# image at a time, without the memos, so tests can assert that the production
# search returns the same arrays, order and bits included.


def _orbit(model, seeds, token, explore) -> list:
    """Breadth-first search over generator words: the seeds, then every
    image g x of a found x that passes ``explore`` and has an unseen
    ``token``, in discovery order."""
    seen = {token(x) for x in seeds}
    found, frontier = list(seeds), seeds
    while frontier:
        new = []
        for x in frontier:
            for g in model.gen_mats:
                y = g @ x
                if explore(y) and (tok := token(y)) not in seen:
                    seen.add(tok)
                    new.append(y)
        found += new
        frontier = new
    return found


def element_ball_reference(model, radius: float) -> np.ndarray:
    """SurfaceModel.element_ball by the scalar orbit search."""
    limit, explore = math.cosh(radius) + 1e-12, math.cosh(radius + 3.2)
    mats = _orbit(model, [np.eye(3)], lambda m: tuple(int(round(2.0 * x)) for x in m[:, 0]),
                  lambda m: m[0, 0] <= explore)
    return np.stack([m for m in mats if m[0, 0] <= limit])


def boundary_lines_reference(model, radius: float) -> np.ndarray:
    """SurfaceModel.boundary_lines by the scalar orbit search, for a model
    with boundary and a radius that reaches at least one line."""
    limit, explore = math.sinh(radius), math.sinh(radius + 6.5)
    found = _orbit(model, model.boundary, lambda u: tuple(int(round(x / 1e-5)) for x in u),
                   lambda u: abs(u[0]) <= explore)
    lines = np.array([u for u in found if abs(u[0]) <= limit])
    return lines[np.lexsort(lines.T[::-1])]


# --- SurfaceModel's side checks before they ran as arrays ---------------------
# the nested loops of the inverse lookup and of the boundary-side test, kept
# so tests can assert that the array checks pick the same indices.


def _mink(x, y) -> float:
    return -x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def inverse_index_reference(gen_mats) -> np.ndarray:
    """For each generator g, the index of the first listed generator within
    1e-9 of J g^T J in every entry, or -1 if there is none."""
    j = np.array([-1.0, 1.0, 1.0])
    inv = np.full(len(gen_mats), -1, dtype=int)
    for i, g in enumerate(gen_mats):
        gi = j[:, None] * g.T * j
        for k, h in enumerate(gen_mats):
            if np.max(np.abs(h - gi)) < 1e-9:
                inv[i] = k
                break
    return inv


def boundary_sides_reference(poly, polars) -> list:
    """Indices of the polygon sides (poly[i], poly[i + 1]) whose two ends
    both pair with one listed polar to less than 1e-8 in absolute value."""
    m = len(poly)
    sides = []
    for i in range(m):
        a, b = poly[i], poly[(i + 1) % m]
        for u in polars:
            if abs(_mink(a, u)) < 1e-8 and abs(_mink(b, u)) < 1e-8:
                sides.append(i)
                break
    return sides


# --- tube_factor's integral before it became a loop ---------------------------


def cosh_power_integral_recursive(m: int, t: float) -> float:
    """int_0^t cosh^m(s) ds by the reduction formula, one call per two
    powers, as bounds._cosh_power_integral computed it."""
    if m == 0:
        return t
    if m == 1:
        return math.sinh(t)
    return (math.cosh(t) ** (m - 1) * math.sinh(t)
            + (m - 1) * cosh_power_integral_recursive(m - 2, t)) / m


# --- boundary-line lifts at 50 digits ------------------------------------------
# generator words multiplied with the stdlib decimal module, so the lifts at
# large radius carry no float drift; a check on SurfaceModel.boundary_lines.


def _dec_polish(g, ctx):
    """A Lorentz matrix within rounding of a float one, to 50 digits: the
    Newton-Schulz steps X <- X (3 I - J X^T J X) / 2, whose fixed points are
    the X with X^T J X = J; each step squares the distance from the group."""
    j = [-1, 1, 1]
    x = [[ctx.create_decimal(float(v)) for v in row] for row in g]
    for _ in range(6):
        # m = J X^T J X, then x = X (3 I - m) / 2
        m = [[j[a] * sum(x[k][a] * j[k] * x[k][b] for k in range(3)) for b in range(3)]
             for a in range(3)]
        x = [[sum(x[a][k] * ((3 if k == b else 0) - m[k][b]) for k in range(3)) / 2
              for b in range(3)] for a in range(3)]
    return x


def boundary_lines_decimal(model, radius: float, margin: float) -> np.ndarray:
    """Unit polars of the boundary-line lifts within ``radius`` of the origin,
    found by a breadth-first search over generator words that explores every
    lift within radius + margin, with 50-digit decimal arithmetic throughout.

    The generators are polished onto the Lorentz group and the listed polars
    onto <u, u> = 1 at 50 digits, so every image is unit to ~1e-45, and two
    words reaching one lift give polars with <u, v> = 1 up to the float
    inputs' own 1e-16 error, while distinct lifts, bounding disjoint funnel
    half-planes, pair to <u, v> <= -1.  Lifts are deduplicated by that sign,
    among the polars in the 27 grid cells of side 1e-3 around a new one (two
    words reaching one lift agree far closer than 1e-3).
    Returns floats rounded from the decimals, sorted like boundary_lines."""
    from decimal import Context

    ctx = Context(prec=50)
    gens = [_dec_polish(g, ctx) for g in model.gen_mats]

    def pair(u, v):
        return -u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

    def cell(u):
        return tuple(int((x * 1000).to_integral_value(rounding="ROUND_FLOOR")) for x in u)

    seeds = []
    for u in model.boundary:
        u = [ctx.create_decimal(float(x)) for x in u]
        seeds.append([x / pair(u, u).sqrt(ctx) for x in u])
    explore = ctx.create_decimal(math.sinh(radius + margin))
    grid: dict = {}
    found = []

    def add(u) -> bool:
        c = cell(u)
        near = (grid.get((c[0] + a, c[1] + b, c[2] + e), ()) for a in (-1, 0, 1)
                for b in (-1, 0, 1) for e in (-1, 0, 1))
        if any(pair(u, v) > 0 for vs in near for v in vs):
            return False
        grid.setdefault(c, []).append(u)
        found.append(u)
        return True

    frontier = [u for u in seeds if add(u)]
    while frontier:
        new = []
        for u in frontier:
            for g in gens:
                v = [sum(g[a][k] * u[k] for k in range(3)) for a in range(3)]
                if abs(v[0]) <= explore and add(v):
                    new.append(v)
        frontier = new
    limit = ctx.create_decimal(math.sinh(radius))
    lines = np.array([[float(x) for x in u] for u in found if abs(u[0]) <= limit])
    return lines[np.lexsort(lines.T[::-1])]


def retention_violations_reference(model, net, L: float, samples: int, seed: int) -> int:
    """Samples breaking the chain's retention rules, counted in a pass of
    their own: the same frames and cells as accumulate_chain, each family
    classified again.  A simplex whose base vertex is deeper than L + 3 must
    be interior, and a kept one must have its base vertex within depth L."""
    from hypsmear.smear import chain as chain_mod

    q_plus, q_minus = chain_mod._mirror_pair(L)
    lines = chain_mod._chain_lines(model, net, L)
    violations = 0
    for mats in chain_mod.haar_sample(model, samples, seed):
        depth = model.distance_to_boundary(chain_mod._vertex_images(mats, q_plus[:1])[:, 0], lines)
        for _, cells in chain_mod._shard_families(model, net, lines, mats, q_plus, q_minus):
            cls = chain_mod._classify(cells[3])
            violations += int(((depth > L + 3.0) & (cls != chain_mod.CLASS_INT)).sum())
            violations += int(((cls != chain_mod.CLASS_DISCARD) & (depth < -L)).sum())
    return violations
