"""Quantitative volume bounds.

tube_factor(n, t) is twice the antiderivative of cosh^(n-1), the exact
volume factor of embedded tubes around totally geodesic hypersurfaces.
vl_estimate(n, L) estimates the infimum of signed volume over simplices
whose i-th vertex lies within distance 1 of the i-th vertex of the regular
edge-L simplex.  gap_bound combines the two into the lower bound

    (1 - r g(L+3)) / (1 + r g(L)) * V_L

on the volume/simplicial-volume ratio of a manifold with boundary-to-volume
ratio r, and solve_k inverts that bound into the constant k(eta, n): any
manifold with r <= k has ratio at least v_n - eta.

V_L values are numerical multistart minima, not certified global infima;
certificates are exact conditionally on them.  Estimates are memoized per
(n, L, restarts, seed) since the threshold searches revisit grid points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hypsmear.hypgeom import (
    log_direction,
    mink_diag,
    origin,
    renormalize_rows,
    transport_from_origin,
)
from hypsmear.volume import (
    MAX_EDGE,
    QuadratureSpec,
    ideal_regular_volume,
    regular_simplex,
    signed_volume,
    triangle_signed_area,
)

__all__ = [
    "VLEstimate",
    "GapCertificate",
    "tube_factor",
    "vl_estimate",
    "l0_estimate",
    "gap_bound",
    "solve_k",
    "gluing_ratio_sequence",
]

DEFAULT_SEED = 1789
# edge lengths over which the gap bound is maximized unless a grid is given
DEFAULT_L_GRID = tuple(4.0 + j for j in range(13))


@dataclass(frozen=True)
class VLEstimate:
    """At n = 2, optimizer_tol covers the optimizer's fatol (1e-10) plus the
    area's rounding, below 1e-15 e^(L/2) (so <= 1e-10 for L <= 24); at
    n >= 3, fatol plus the final quadrature's abs_tol."""

    n: int
    L: float
    value: float
    restarts: int
    best_perturbation: np.ndarray  # (n+1, n) frame coefficients, each row norm <= 1
    optimizer_tol: float


@dataclass(frozen=True)
class GapCertificate:
    n: int
    eta: float
    L1: float
    k: float
    vL1: VLEstimate
    bound_value: float


def _cosh_power_integral(m: int, t: float) -> float:
    # int_0^t cosh^m(s) ds by the standard reduction, from cosh^0 or cosh^1 upward
    total = math.sinh(t) if m % 2 else t
    for k in range(2 + m % 2, m + 1, 2):
        total = (math.cosh(t) ** (k - 1) * math.sinh(t) + (k - 1) * total) / k
    return total


def tube_factor(n: int, t: float) -> float:
    """2 * int_0^t cosh^(n-1)(s) ds, the two-sided tube-volume factor."""
    if n < 2:
        raise ValueError("need n >= 2")
    t = float(t)
    if t < 0:
        raise ValueError("t must be >= 0")
    return 2.0 * _cosh_power_integral(n - 1, t)


def _unit_ball_projection(w: np.ndarray) -> tuple:
    """Rows of w radially projected onto the unit ball, and their norms."""
    norms = np.linalg.norm(w, axis=1)
    scl = np.where(norms > 1.0, 1.0 / np.maximum(norms, 1e-300), 1.0)
    return w * scl[:, None], norms * scl


def _perturbed_vertices(qs: np.ndarray, bases: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Apply exponential-map perturbations with frame coefficients w.

    Rows of w with norm > 1 are radially projected onto the unit ball, which
    matches the hyperbolic radius-1 ball exactly.
    """
    ww, r = _unit_ball_projection(w)
    v = np.einsum("ick,ik->ic", bases, ww)
    out = qs.copy()
    big = r > 1e-14
    rb = r[big]
    out[big] = np.cosh(rb)[:, None] * qs[big] + (np.sinh(rb) / rb)[:, None] * v[big]
    return renormalize_rows(out)


def _frame_coefficients(direction: np.ndarray, basis: np.ndarray, n: int) -> np.ndarray:
    return (direction * mink_diag(n)) @ basis


class _BudgetSpent(Exception):
    """The evaluation budget of _nelder_mead is spent."""


def _nelder_mead(f, x0, xatol, fatol, maxiter, maxfev):
    """scipy 1.17's non-adaptive, unbounded Nelder-Mead, one numpy operation
    at a time, so every iterate has scipy's bits.  Returns (x, f(x), stop
    reason); as there, a call past maxfev abandons the iteration, f gets a
    copy of each point, and the value is NaN if the final simplex holds one."""
    N = len(x0)
    nfev = 0

    def call(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return f(np.copy(x))

    def order(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    sim = np.tile(x0, (N + 1, 1))
    sim[1:][np.diag_indices(N)] = np.where(x0 != 0, 1.05 * x0, 0.00025)
    fsim = np.full((N + 1,), np.inf)
    for k in range(min(N + 1, maxfev)):
        fsim[k] = call(sim[k])
    sim, fsim = order(*order(sim, fsim))  # scipy sorts twice here

    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / N
            xr = 2 * xbar - sim[-1]
            fxr = call(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = call(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                outside = fxr < fsim[-1]
                xc = 1.5 * xbar - 0.5 * sim[-1] if outside else 0.5 * xbar + 0.5 * sim[-1]
                fxc = call(xc)
                if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, N + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = call(sim[j])
            iterations += 1
        except _BudgetSpent:
            pass
        sim, fsim = order(sim, fsim)

    reason = (f"{maxfev} evaluations spent" if nfev >= maxfev
              else f"{maxiter} iterations spent" if iterations >= maxiter else "converged")
    return sim[0], np.min(fsim), reason


_VL_CACHE: dict = {}


def vl_estimate(n: int, L: float, restarts: int = 8, seed: int = DEFAULT_SEED) -> VLEstimate:
    """Estimated infimum of signed volume over radius-1 vertex perturbations
    of the regular edge-L simplex.

    Multistart Nelder-Mead over the (n+1) x n frame coefficients; the start
    list is zero perturbation, symmetric inward pulls, a collapse toward
    vertex 0, then seeded random ball points.  The winner is deterministic:
    smallest value, ties by restart index.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not L > 0:
        raise ValueError("edge length must be positive")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    key = (n, round(float(L), 10), int(restarts), int(seed))
    if key in _VL_CACHE:
        return _VL_CACHE[key]
    qs = regular_simplex(n, L)
    bases = np.stack([transport_from_origin(q)[:, 1:] for q in qs])
    o = origin(n)

    exact = n == 2
    spec_search = QuadratureSpec(abs_tol=3e-4, max_subdivisions=200)
    spec_final = QuadratureSpec(abs_tol=1e-6, max_subdivisions=1200)

    def objective(x: np.ndarray, spec: QuadratureSpec) -> float:
        rows = _perturbed_vertices(qs, bases, x.reshape(n + 1, n))
        if exact:
            return triangle_signed_area(rows[0], rows[1], rows[2])
        # normalized a second time: that moves the last bit of about half the
        # rows, and the frozen V_L values were computed on twice-normalized rows
        return signed_volume(renormalize_rows(rows), spec)

    inward = np.stack([
        _frame_coefficients(log_direction(q, o), b, n) for q, b in zip(qs, bases)
    ])
    collapse = np.zeros((n + 1, n))
    for i in range(1, n + 1):
        collapse[i] = _frame_coefficients(log_direction(qs[i], qs[0]), bases[i], n)

    starts = [
        np.zeros((n + 1, n)),
        inward,
        0.9 * inward,
        0.75 * inward,
        collapse,
    ]
    while len(starts) < restarts:
        rng = np.random.default_rng([seed, len(starts)])
        g = rng.standard_normal((n + 1, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        radii = rng.random(n + 1) ** (1.0 / n)
        starts.append(g * radii[:, None])
    starts = starts[:restarts]

    if exact:
        options = {"xatol": 1e-7, "fatol": 1e-10, "maxiter": 4000, "maxfev": 6000}
    else:
        options = {"xatol": 3e-4, "fatol": 3e-5, "maxiter": 300 * (n + 1), "maxfev": 500 * (n + 1)}

    best_val, best_x = math.inf, None
    for idx, st in enumerate(starts):
        x, fun, reason = _nelder_mead(lambda x: objective(x, spec_search), st.ravel(), **options)
        if not np.isfinite(fun):
            raise RuntimeError(f"optimizer diverged at restart {idx}: value {fun} ({reason})")
        if fun < best_val:
            best_val, best_x = float(fun), x

    if best_val < -ideal_regular_volume(n).v_n - 1.0:
        raise RuntimeError(
            f"optimizer diverged: value {best_val} below any attainable signed volume"
        )

    w, _ = _unit_ball_projection(best_x.reshape(n + 1, n))
    if exact:
        value = objective(w.ravel(), spec_search)
        tol = max(1e-9, 2e-15 * math.exp(0.5 * L))
    else:
        value = objective(w.ravel(), spec_final)
        tol = float(options["fatol"]) + spec_final.abs_tol
    out = VLEstimate(n, float(L), float(value), restarts, w, tol)
    _VL_CACHE[key] = out
    return out


_L0_MARGIN = 1e-3


def _scan(above, probes, lo):
    """Ask ``above`` at each probe in order; return the last probe that fails
    (``lo`` if none does) and the first that passes (None if none does)."""
    for x in probes:
        if above(x):
            return lo, x
        lo = x
    return lo, None


def _bisect(above, lo, hi, midpoint):
    """Narrow the bracket (lo, hi) of ``above`` while ``midpoint(lo, hi)``
    falls strictly between its ends."""
    while lo < (mid := midpoint(lo, hi)) < hi:
        if above(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _l0_bracket(n: int, restarts: int, seed: int):
    """Bracket [lo, hi] on the 0.25 grid with vl(lo) <= margin < vl(hi).

    Relies on monotonicity of vl_estimate in L (a spec'd invariant of the
    estimator).  Every probe is a vl_estimate call, which _VL_CACHE memoizes,
    so a repeated bracket costs only cache hits.
    """
    above = lambda L: vl_estimate(n, L, restarts, seed).value > _L0_MARGIN
    lo, hi = _scan(above, (3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, MAX_EDGE), 2.0)
    if hi is None:
        raise RuntimeError(f"no positive-volume threshold found up to L = {MAX_EDGE:g}")
    # the nearest 0.25-grid point to the middle, rounding half to even
    return _bisect(above, lo, hi, lambda lo, hi: lo + 0.25 * round((hi - lo) / 0.5))


def l0_estimate(n: int, restarts: int = 6, seed: int = DEFAULT_SEED) -> float:
    """Threshold edge length above which every radius-1 perturbation keeps
    positive signed volume, located on a 0.25 grid and bisected to 0.01.

    The returned L satisfies vl_estimate(n, L) > 1e-3.
    """
    lo, hi = _l0_bracket(n, restarts, seed)
    above = lambda L: vl_estimate(n, L, restarts, seed).value > _L0_MARGIN
    return _bisect(above, lo, hi, lambda lo, hi: 0.5 * (lo + hi) if hi - lo > 0.01 else lo)[1]


def gap_bound(n: int, L: float, r: float, vl: float) -> float:
    """(1 - r g(L+3)) / (1 + r g(L)) times the V_L value ``vl``.

    Negative values (vacuous bound) are returned unclamped; an r g(L+3)
    that overflows is an error, since the quotient would be NaN.
    """
    rv = float(r)
    if rv < 0:
        raise ValueError("boundary ratio must be >= 0")
    outer = rv * tube_factor(n, float(L) + 3.0)
    if not math.isfinite(outer):
        raise ValueError(f"r * g(L+3) overflows at r = {rv:g}, L = {float(L):g}")
    return (1.0 - outer) / (1.0 + rv * tube_factor(n, float(L))) * float(vl)


def solve_k(
    n: int,
    eta: float,
    restarts: int = 6,
    seed: int = DEFAULT_SEED,
) -> GapCertificate:
    """Constructive solver for the boundary-ratio constant k(eta, n).

    Finds the smallest half-integer L1 at or above the positivity threshold
    with vl_estimate(n, L1) > v_n - eta/2, then solves
    (1 - k g(L1+3)) / (1 + k g(L1)) = (v_n - eta)/(v_n - eta/2) for k.
    Any boundary ratio r <= k then certifies a gap bound >= v_n - eta.
    """
    vn = ideal_regular_volume(n).v_n
    if not (0.0 < eta < vn):
        raise ValueError(f"eta must lie in (0, v_n) = (0, {vn})")
    target = vn - eta / 2.0

    # the 0.25-grid threshold anchors the half-integer grid; refining it to
    # 0.01 cannot move the smallest admissible half-integer point, because
    # every grid point below the coarse threshold has vl <= 1e-3 << target
    _, l0 = _l0_bracket(n, restarts, seed)
    start = math.ceil(l0 / 0.5 - 1e-12) * 0.5
    above = lambda i: vl_estimate(n, start + 0.5 * i, restarts, seed).value > target

    # doubling scan over grid indices 0, 1, 3, 7, ... for an upper bracket,
    # its last step clamped to the last grid point within MAX_EDGE, then
    # bisection on the index (vl_estimate is monotone in L per its contract)
    last = int((MAX_EDGE - start) / 0.5)
    below, i1 = _scan(above, (min(2**j - 1, last) for j in range(last.bit_length() + 1)), -1)
    if i1 is None:
        raise RuntimeError(
            f"no half-integer L up to {MAX_EDGE:g} reaches V_L > v_n - eta/2 = {target}; "
            "optimizer or quadrature accuracy insufficient for this eta"
        )
    _, i1 = _bisect(above, below, i1, lambda lo, hi: (lo + hi) // 2)

    L1 = start + 0.5 * i1
    vl1 = vl_estimate(n, L1, restarts, seed)
    if not vl1.value > target:
        raise RuntimeError("threshold search lost monotonicity; increase restarts")
    c = (vn - eta) / target
    k = (1.0 - c) / (tube_factor(n, L1 + 3.0) + c * tube_factor(n, L1))
    bound = gap_bound(n, L1, k, vl1.value)
    if not bound >= vn - eta:
        raise RuntimeError(
            f"certificate failed self-validation: bound {bound} < v_n - eta {vn - eta}"
        )
    return GapCertificate(n, float(eta), float(L1), float(k), vl1, float(bound))


def gluing_ratio_sequence(
    volM: float,
    volB0: float,
    imax: int,
    n: int = 2,
    restarts: int = 6,
    seed: int = DEFAULT_SEED,
):
    """Boundary ratios and best gap bounds along the doubling tower whose
    i-th stage glues 2i copies of M along boundary B0.

    Stage i has volume 2i vol(M) and boundary 2 vol(B0), so the ratio is
    volB0/(i volM); the bound is maximized over DEFAULT_L_GRID.  Returns a list
    of (i, r_i, bound_i), non-decreasing in bound_i.
    """
    if volM <= 0 or volB0 <= 0:
        raise ValueError("volumes must be positive")
    if imax < 1:
        raise ValueError("imax must be >= 1")
    vls = [(L, vl_estimate(n, L, restarts, seed).value) for L in DEFAULT_L_GRID]
    rows = []
    for i in range(1, imax + 1):
        ri = volB0 / (i * volM)
        bound = max(gap_bound(n, L, ri, vl) for L, vl in vls)
        rows.append((i, ri, bound))
    return rows
