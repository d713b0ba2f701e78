import linecache
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from hypsmear import bounds
from hypsmear.bounds import (
    gap_bound,
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


def test_tube_factor_high_dimension():
    # one recursion level per two dimensions once exceeded the recursion limit
    q, _ = oracles.tube_factor_quadrature(5000, 0.001)
    assert tube_factor(5000, 0.001) == pytest.approx(q, rel=1e-11)


def test_tube_factor_keeps_the_recursion_bits():
    from hypsmear.bounds import _cosh_power_integral

    for m in range(61):
        for t in (0.0, 0.001, 0.3, 1.0, 2.5, 5.0):
            assert _cosh_power_integral(m, t) == oracles.cosh_power_integral_recursive(m, t)


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
    # one direction per vertex: the minimum lies on the unit circles
    norms = np.linalg.norm(e.best_perturbation, axis=1)
    assert np.all(np.abs(norms - 1.0) <= 1e-9)


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
    with pytest.raises(RuntimeError, match=r"restart 0: value nan \(1500 evaluations spent\)"):
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
    # the doubling scan from 0.5 ends on the last grid point, 32, which
    # brackets the threshold, and bisection finds it
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
    assert asked == [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 24.0, 28.0, 26.0, 25.0, 24.5, 25.0]

    asked = _scripted_vl(monkeypatch, lambda L: vn if L >= 9.7 else (0.5 if L >= 2.3 else 0.0))
    assert solve_k(3, 0.1).L1 == 10.0
    assert asked == [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 12.0, 10.0, 9.0, 9.5, 10.0]


def test_l0_estimate_frozen():
    assert l0_estimate(2) == pytest.approx(2.1953125, abs=1e-6)


def test_l0_estimate_meets_its_margin_on_a_direction_grid():
    # the grid minimum bounds V_L from above, so it must clear the margin
    # the threshold claims; at the old threshold 2.1875 it does not
    assert oracles.direction_grid_minimum(l0_estimate(2)) > 1e-3
    assert oracles.direction_grid_minimum(2.1875) < 1e-3


def test_l0_estimate_spends_no_restart_on_its_budget(monkeypatch):
    # the angle search evaluated 13,633 points; the frame-coefficient search
    # it replaced drifted outward and needed 112,927, 78,000 of them in 13
    # restarts stopped by the budget
    evals, reasons = [], []

    def counted(f, x0, **options):
        def g(x):
            evals.append(1)
            return f(x)
        x, fun, reason = nelder_mead(g, x0, **options)
        reasons.append(reason)
        return x, fun, reason

    nelder_mead = bounds._nelder_mead
    monkeypatch.setattr(bounds, "_VL_CACHE", {})
    monkeypatch.setattr(bounds, "_nelder_mead", counted)
    assert l0_estimate(2) == 2.1953125
    assert len(evals) <= 112_927 // 3
    assert set(reasons) == {"converged"}


def test_n2_restarts_start_at_distinct_angles(monkeypatch):
    # a start row at n = 2 maps to its angles, so 0.9 and 0.75 times the
    # inward pull once started two restarts within 1e-15 of the inward one
    starts = []

    def recorded(f, x0, **options):
        starts.append(x0)
        return x0, 0.0, "converged"

    monkeypatch.setattr(bounds, "_VL_CACHE", {})
    monkeypatch.setattr(bounds, "_nelder_mead", recorded)
    for L in (2.1953125, 4.0, 6.0, 12.0):
        starts.clear()
        vl_estimate(2, L, restarts=6)
        assert len(starts) == 6
        assert min(np.abs(a - b).max() for j, a in enumerate(starts) for b in starts[:j]) > 1e-6


@pytest.mark.parametrize("L", [2.1875, 2.25, 4.0, 6.0])
def test_vl_estimate_reaches_the_direction_grid(L):
    e = vl_estimate(2, L)
    assert e.value <= oracles.direction_grid_minimum(L) + e.optimizer_tol


# vl_estimate(2, L) (8 restarts, seed 1789) of the frame-coefficient search
# that the angle search replaced, frozen from one run of it
VL_2_FRAME_SEARCH = {
    2.0: -0.12233077445437424,
    2.25: 0.03803168809413737,
    2.5: 0.1748265052091167,
    2.75: 0.3062877523734713,
    3.0: 0.4632363606029797,
    3.25: 0.6380878491182829,
    3.5: 0.8235271755640277,
    3.75: 1.0129825136875787,
    4.0: 1.2009375969073186,
    4.25: 1.3830728238826635,
    4.5: 1.556257477426528,
    4.75: 1.7184353159631547,
    5.0: 1.8684505508764415,
    5.25: 2.0058544706408163,
    5.5: 2.130720840635571,
    5.75: 2.243485863767189,
    6.0: 2.3448187717349764,
    6.25: 2.4355227966416026,
    6.5: 2.516462906144833,
    6.75: 2.588515402454193,
    7.0: 2.652534447766086,
    7.25: 2.709331159271566,
    7.5: 2.7596617170859257,
    7.75: 2.8042217288551488,
    8.0: 2.843644794395469,
    12.0: 3.1011668977448332,
    16.5: 3.1373316095110493,
}


def test_vl_estimate_is_no_worse_than_the_frame_coefficient_search():
    for L, before in VL_2_FRAME_SEARCH.items():
        e = vl_estimate(2, L)
        assert e.value <= before + e.optimizer_tol


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
