import linecache
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from hypsmear import bounds
from hypsmear.bounds import (
    gap_bound,
    gluing_ratio_sequence,
    l0_estimate,
    solve_k,
    tube_factor,
    vl_estimate,
)
from hypsmear.volume import MAX_EDGE, ideal_regular_volume

import oracles

# frozen from seeded runs, cross-checked below against independent routes
VL_2_4 = 1.2009375969073177
VL_2_6 = 2.3448187717349533


def test_tube_factor_hand_integrals():
    # 2 int_0^t cosh^{n-1}: n=2 gives 2 sinh t, n=3 gives t + sinh(2t)/2,
    # n=4 gives 2 sinh t + (2/3) sinh^3 t
    for t in (0.5, 1.0, 2.5, 4.0):
        assert tube_factor(2, t) == pytest.approx(2.0 * math.sinh(t), rel=1e-14)
        assert tube_factor(3, t) == pytest.approx(t + 0.5 * math.sinh(2.0 * t), rel=1e-14)
        assert tube_factor(4, t) == pytest.approx(
            2.0 * math.sinh(t) + 2.0 * math.sinh(t) ** 3 / 3.0, rel=1e-13
        )


def test_tube_factor_vs_quadrature_oracle():
    for n in (2, 3, 5, 8):
        for t in (0.5, 1.5, 3.0, 6.0):
            q, _ = oracles.tube_factor_quadrature(n, t)
            assert tube_factor(n, t) == pytest.approx(q, rel=1e-11)


def test_tube_factor_edge_behavior():
    assert tube_factor(2, 0.0) == 0.0
    ts = np.linspace(0.1, 5.0, 30)
    vals = [tube_factor(3, t) for t in ts]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        tube_factor(1, 1.0)
    with pytest.raises(ValueError):
        tube_factor(2, -0.5)


def test_vl_estimate_frozen_and_reproducible():
    e = vl_estimate(2, 4.0)
    assert e.value == pytest.approx(VL_2_4, abs=1e-9)
    assert e.n == 2 and e.L == 4.0 and e.restarts == 8
    again = vl_estimate(2, 4.0)
    assert again.value == e.value  # same seed, same bytes


def test_vl_perturbation_is_feasible():
    e = vl_estimate(2, 6.0)
    assert e.value == pytest.approx(VL_2_6, abs=1e-9)
    assert e.best_perturbation.shape == (3, 2)
    norms = np.linalg.norm(e.best_perturbation, axis=1)
    assert np.all(norms <= 1.0 + 1e-9)


def test_vl_below_unperturbed_and_above_grid_floor():
    e = vl_estimate(2, 4.0)
    assert e.value <= oracles.equilateral_area(4.0) + 1e-9
    # radial-only grid scan can only sit above the optimizer's infimum
    grid = oracles.grid_perturbed_minimum(2, 4.0, steps=5)
    assert e.value <= grid + 1e-9


def test_vl_argument_guards():
    with pytest.raises(ValueError):
        vl_estimate(2, 0.0)
    with pytest.raises(ValueError):
        vl_estimate(1, 4.0)
    with pytest.raises(ValueError, match=r"\(0, 32\]"):
        vl_estimate(3, 40.0)


def _recorded(f):
    """f, appending the bytes of each point it is asked for to ``points``."""
    def g(x):
        g.points.append(x.tobytes())
        return f(x)
    g.points = []
    return g


def _assert_port_matches_scipy(f, x0, **options):
    from scipy.optimize import minimize

    ours, theirs = _recorded(f), _recorded(f)
    x, fun, reason = bounds._nelder_mead(ours, x0, **options)
    res = minimize(theirs, x0, method="Nelder-Mead", options=options)
    assert x.tobytes() == res.x.tobytes()
    assert np.float64(fun).tobytes() == np.float64(res.fun).tobytes()
    assert len(ours.points) == res.nfev
    assert ours.points == theirs.points  # every evaluated point, in order
    return reason, res


@pytest.mark.parametrize("n, L", [(2, 6.0), (3, 4.0)])
def test_nelder_mead_port_matches_scipy_on_the_vl_objective(monkeypatch, n, L):
    # the first two starts: zero perturbation (every coordinate takes the
    # 0.00025 step) and the inward pull (its nonzero coordinates take the 5%
    # step); vl_estimate only collects the objective and the options here
    runs = []
    monkeypatch.setattr(bounds, "_VL_CACHE", {})
    monkeypatch.setattr(bounds, "_nelder_mead",
                        lambda f, x0, **o: runs.append((f, x0, o)) or (x0, 0.0, "converged"))
    vl_estimate(n, L, restarts=2)
    monkeypatch.undo()
    assert len(runs) == 2 and not runs[0][1].any() and runs[1][1].any()
    for f, x0, options in runs:
        _assert_port_matches_scipy(f, x0, **options)


def _rosen(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


@pytest.mark.parametrize("before, stopped", [
    ("fxr = call(xr)", "fxe = call(xe)"),  # an expansion after a better reflection
    ("fsim[j] = call(sim[j])", "fsim[j] = call(sim[j])"),  # a shrink, halfway
])
def test_nelder_mead_port_matches_scipy_when_the_budget_stops_an_iteration(before, stopped):
    x0 = np.array([-2.5, 0.5, 0.0])  # its first shrink makes evaluations 21 to 23
    options = dict(xatol=1e-8, fatol=1e-10, maxiter=10_000)
    lines = []

    def traced(x):
        caller = sys._getframe(2)  # traced <- call <- _nelder_mead
        lines.append(linecache.getline(caller.f_code.co_filename, caller.f_lineno).strip())
        return _rosen(x)

    # the port's source line behind each evaluation of an unlimited run; a
    # budget of m evaluations abandons the iteration that needs lines[m]
    bounds._nelder_mead(traced, x0, maxfev=10_000, **options)
    maxfev = next(m for m in range(1, len(lines)) if lines[m - 1:m + 1] == [before, stopped])
    reason, _ = _assert_port_matches_scipy(_rosen, x0, maxfev=maxfev, **options)
    assert reason == f"{maxfev} evaluations spent"


@pytest.mark.parametrize("f, x0, maxiter, reason", [
    (_rosen, [-1.2, 1.0, 0.0, 2.0], 150, "150 iterations spent"),
    # a staircase ties values, which exercises the sorts and the strict and
    # non-strict comparisons of the expansion and the outside contraction
    (lambda x: float(np.floor(np.sum(x * x))), [0.9, -1.5], 4000, "converged"),
    # a NaN left in the final simplex is the value, as scipy's np.min gives it
    (lambda x: math.nan if x[0] > 1.02 else _rosen(x), [1.0, 1.0], 1, "1 iterations spent"),
])
def test_nelder_mead_port_matches_scipy_to_the_end(f, x0, maxiter, reason):
    assert _assert_port_matches_scipy(f, np.array(x0), xatol=1e-7, fatol=1e-10,
                                      maxiter=maxiter, maxfev=6000)[0] == reason


def test_vl_divergence_names_the_restart_and_the_stop_reason(monkeypatch):
    monkeypatch.setattr(bounds, "_VL_CACHE", {})
    monkeypatch.setattr(bounds, "triangle_signed_area", lambda a, b, c: math.nan)
    with pytest.raises(RuntimeError, match=r"restart 0: value nan \(6000 evaluations spent\)"):
        vl_estimate(2, 5.0, restarts=1)


def _scripted_vl(monkeypatch, value_at):
    """Replace vl_estimate by value_at(L), recording the edges asked for."""
    asked = []

    def fake(n, L, restarts=8, seed=0):
        asked.append(L)
        return SimpleNamespace(value=value_at(L))

    monkeypatch.setattr(bounds, "vl_estimate", fake)
    return asked


def test_threshold_scans_stop_at_the_edge_limit(monkeypatch):
    asked = _scripted_vl(monkeypatch, lambda L: 0.0)
    with pytest.raises(RuntimeError, match="up to L = 32"):
        l0_estimate(3)
    assert max(asked) == MAX_EDGE

    # positive from L = 3 on, but never above v_n - eta/2
    asked = _scripted_vl(monkeypatch, lambda L: 0.5 if L >= 3.0 else 0.0)
    with pytest.raises(RuntimeError, match="up to 32"):
        solve_k(3, 0.1)
    assert max(asked) == MAX_EDGE


def test_solve_k_scan_reaches_the_last_grid_point(monkeypatch):
    # the doubling scan from 3.0 would step from 18.5 past the limit; its
    # clamped last step at 32 brackets the threshold, and bisection finds it
    vn = ideal_regular_volume(3).v_n
    asked = _scripted_vl(monkeypatch, lambda L: vn if L >= 25.0 else (0.5 if L >= 3.0 else 0.0))
    cert = solve_k(3, 0.1)
    assert cert.L1 == 25.0
    assert max(asked) == MAX_EDGE


def test_threshold_searches_probe_in_a_fixed_order(monkeypatch):
    # memo keys and certificates depend on which edges are asked for, in order
    asked = _scripted_vl(monkeypatch, lambda L: 0.5 if L >= 2.6 else 0.0)
    assert l0_estimate(3) == 2.6015625
    assert asked == [3.0, 2.5, 2.75, 2.625, 2.5625, 2.59375, 2.609375, 2.6015625]

    vn = ideal_regular_volume(3).v_n
    asked = _scripted_vl(monkeypatch, lambda L: vn if L >= 25.0 else (0.5 if L >= 3.0 else 0.0))
    assert solve_k(3, 0.1).L1 == 25.0
    assert asked == [3.0, 2.5, 2.75, 3.0, 3.5, 4.5, 6.5, 10.5, 18.5, 32.0,
                     25.0, 21.5, 23.0, 24.0, 24.5, 25.0]

    asked = _scripted_vl(monkeypatch, lambda L: vn if L >= 9.7 else (0.5 if L >= 2.3 else 0.0))
    assert solve_k(3, 0.1).L1 == 10.0
    assert asked == [3.0, 2.5, 2.25, 2.5, 3.0, 4.0, 6.0, 10.0, 8.0, 9.0, 9.5, 10.0]


def test_l0_estimate_frozen():
    assert l0_estimate(2) == pytest.approx(2.1875, abs=1e-6)


def test_gap_bound_is_the_stated_algebra():
    for L, r, vl in ((6.0, 0.01, VL_2_6), (4.0, 0.2, VL_2_4), (8.0, 0.0, 3.0)):
        manual = vl * (1.0 - r * tube_factor(2, L + 3.0)) / (1.0 + r * tube_factor(2, L))
        assert gap_bound(2, L, r, vl) == pytest.approx(manual, rel=1e-15)
    assert gap_bound(2, 6.0, 0.0, VL_2_6) == VL_2_6


def test_gap_bound_overflow_is_an_error():
    # r g(L+3) = inf would make the quotient (1 - inf) / (1 + inf) a NaN
    with pytest.raises(ValueError, match="overflows"):
        gap_bound(2, 6.0, 1e308, VL_2_6)
    assert math.isfinite(gap_bound(2, 6.0, 1e300, VL_2_6))


def test_gluing_sequence_invariants(monkeypatch):
    monkeypatch.setattr(bounds, "DEFAULT_L_GRID", (4.0, 6.0))
    rows = gluing_ratio_sequence(10.0, 2.0, 3, restarts=2)
    assert [i for i, _, _ in rows] == [1, 2, 3]
    r1 = rows[0][1]
    assert r1 == pytest.approx(0.2, rel=1e-15)
    for i, r, _ in rows:
        assert r == pytest.approx(r1 / i, rel=1e-15)
    best = [b for _, _, b in rows]
    assert all(a <= b + 1e-12 for a, b in zip(best, best[1:]))


def test_gluing_sequence_guards():
    with pytest.raises(ValueError):
        gluing_ratio_sequence(0.0, 2.0, 3)
    with pytest.raises(ValueError):
        gluing_ratio_sequence(10.0, 2.0, 0)
