"""End-to-end acceptance checks, one test per shipped claim.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Each test pins its numeric tolerance and its wall-clock
budget; the statistical ones fix seeds, so they are deterministic.
"""

import json
import math
import time

import numpy as np
import pytest

from hypsmear import volume
from hypsmear.bounds import _perturbed_vertices, gap_bound, solve_k, tube_factor, vl_estimate
from hypsmear.cli import main as cli_main
from hypsmear.hypgeom import from_klein_rows, transport_from_origin
from hypsmear.smear import (
    accumulate_chain,
    boundary_residuals,
    haar_sample,
    measure_sandwich,
    ratio_report,
)
from hypsmear.volume import (
    ideal_regular_volume,
    klein_volume,
    lobachevsky,
    regular_simplex,
    triangle_signed_area,
)

import oracles


def test_criterion_01_quadrature_matches_angle_defect():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1789)
    for _ in range(100):
        ch = 1.0 + rng.uniform(0.0, 1.0, size=3) * (math.cosh(3.0) - 1.0)
        r = np.arccosh(ch)
        th = rng.uniform(0.0, 2.0 * math.pi, size=3)
        kr = np.tanh(r)
        pts = from_klein_rows(np.column_stack([kr * np.cos(th), kr * np.sin(th)]))
        quad = klein_volume(pts).value
        assert abs(quad - abs(oracles.half_angle_area(*pts))) <= 1e-6
    assert time.perf_counter() - t0 < 10.0


def test_criterion_02_v3_consistency():
    t0 = time.perf_counter()
    v3 = ideal_regular_volume(3)
    assert v3.v_n == pytest.approx(3.0 * lobachevsky(math.pi / 3.0), abs=1e-14)
    # independent slowly-converging series route
    assert v3.v_n == pytest.approx(
        3.0 * oracles.lobachevsky_fourier(math.pi / 3.0), abs=1e-6
    )
    # Schlaefli's formula integrated along the regular family
    fit, _ = volume._schlafli_volume(3)
    assert abs(float(fit(volume._SCHLAFLI_END)) - v3.v_n) <= 1e-13
    assert time.perf_counter() - t0 < 60.0


def test_criterion_03_tube_factor_vs_quadrature():
    t0 = time.perf_counter()
    for n in range(2, 9):
        for t in np.arange(0.5, 10.0 + 1e-9, 0.5):
            ref, _ = oracles.tube_factor_quadrature(n, float(t))
            assert abs(tube_factor(n, float(t)) - ref) <= 1e-10 * abs(ref)
    assert time.perf_counter() - t0 < 5.0


def test_criterion_04_vl_convergence():
    t0 = time.perf_counter()
    top = vl_estimate(2, 12.0, restarts=32)
    assert math.pi - 0.06 <= top.value <= math.pi
    seq = [vl_estimate(2, L) for L in (4.0, 6.0, 8.0, 10.0, 12.0)]
    for a, b in zip(seq, seq[1:]):
        assert b.value >= a.value - (a.optimizer_tol + b.optimizer_tol)
    assert time.perf_counter() - t0 < 300.0


def test_criterion_05_certificates(tmp_path):
    t0 = time.perf_counter()
    for n, eta in ((2, 0.1), (2, 0.01), (3, 0.1)):
        cert = solve_k(n, eta)
        v_n = ideal_regular_volume(n).v_n
        assert cert.bound_value >= v_n - eta
        lhs = (1.0 - cert.k * tube_factor(n, cert.L1 + 3.0)) / (
            1.0 + cert.k * tube_factor(n, cert.L1)
        )
        rhs = (v_n - eta) / (v_n - eta / 2.0)
        assert abs(lhs - rhs) <= 1e-10
        if n == 2:
            # the stated tolerance covers the area's rounding at the optimum
            qs = regular_simplex(2, cert.L1)
            bases = np.stack([transport_from_origin(q)[:, 1:] for q in qs])
            rows = _perturbed_vertices(qs, bases, cert.vL1.best_perturbation)
            assert abs(cert.vL1.value - oracles.half_angle_area(*rows)) <= cert.vL1.optimizer_tol
        # serialized certificates revalidate to the same bound
        doc = {
            "n": cert.n,
            "eta": cert.eta,
            "L1": cert.L1,
            "k": cert.k,
            "vL1": cert.vL1.value,
            "bound_value": cert.bound_value,
        }
        path = tmp_path / f"cert_{n}_{eta}.json"
        path.write_text(json.dumps(doc))
        back = json.loads(path.read_text())
        revalidated = gap_bound(back["n"], back["L1"], back["k"], back["vL1"])
        assert abs(revalidated - back["bound_value"]) <= 1e-12
    assert time.perf_counter() - t0 < 600.0


def test_criterion_06_haar_normalization(genus2):
    t0 = time.perf_counter()
    n = 1_000_000
    limit = math.cosh(1.0)
    hits = sum(int((m[:, :, 0][:, 0] <= limit).sum()) for m in haar_sample(genus2, n, seed=1789))
    p = hits / n
    est = genus2.exact_area * p
    sigma = genus2.exact_area * math.sqrt(p * (1.0 - p) / n)
    assert abs(est - 2.0 * math.pi * (math.cosh(1.0) - 1.0)) <= 3.0 * sigma
    v = genus2.poly_coords
    area = sum(
        triangle_signed_area(v[0], v[i], v[i + 1]) for i in range(1, len(v) - 1)
    )
    assert abs(area - 4.0 * math.pi) <= 0.01 * 4.0 * math.pi
    assert time.perf_counter() - t0 < 120.0


def test_criterion_07_cycle_property(genus2_net, bolza_run):
    _, net_t = genus2_net
    chain, chain_t = bolza_run
    t0 = time.perf_counter()
    faces = boundary_residuals(chain)
    qualifying = faces.total >= 30
    assert int(qualifying.sum()) > 1000
    worst = float(np.abs(faces.z_score[qualifying]).max())
    assert worst <= 4.0
    assert net_t + chain_t + (time.perf_counter() - t0) < 300.0


def test_criterion_08_efficiency_ratio(bolza_run):
    chain, _ = bolza_run
    rep = ratio_report(chain)
    floor = vl_estimate(2, 6.0).value - 0.15
    assert floor <= rep.ratio <= math.pi + 0.05
    assert rep.implied_norm_upper >= 3.8


def test_criterion_09_inclusion_chain(torus, torus_net):
    net, net_t = torus_net
    t0 = time.perf_counter()
    chain = accumulate_chain(torus, net, 4.0, 100_000, seed=1789)
    assert chain.violations == 0
    ms = measure_sandwich(chain)
    lo, hi = ms["bracket"]
    for name in ("plus", "minus"):
        mass, sigma = ms[name]
        assert lo - 3.0 * sigma <= mass <= hi + 3.0 * sigma
    assert net_t + (time.perf_counter() - t0) < 120.0


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    battery = [
        ("vn", "--dim", "3"),
        ("vn", "--dim", "5"),
        ("tube", "--dim", "4", "--t", "2.5"),
        ("vl", "--dim", "2", "--edge", "4.0", "--restarts", "2"),
        ("curve", "--kind", "vl_vs_L", "--grid", "4:6:2", "--restarts", "2",
         "--format", "csv"),
        ("smear", "run", "--model", "holed_torus", "--edge", "4.0",
         "--samples", "3000"),
    ]
    for idx, argv in enumerate(battery):
        a = tmp_path / f"{idx}_a.out"
        b = tmp_path / f"{idx}_b.out"
        for path in (a, b):
            assert cli_main([*argv, "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()
    assert time.perf_counter() - t0 < 120.0
