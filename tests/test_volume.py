import hashlib
import math

import numpy as np
import pytest

from hypsmear import volume
from hypsmear.bounds import _perturbed_vertices
from hypsmear.hypgeom import (
    HPoint,
    IdealPoint,
    from_klein_rows,
    origin,
    renormalize_rows,
    to_klein,
    transport_from_origin,
)
from hypsmear.volume import (
    MAX_EDGE,
    QuadratureSpec,
    ideal_regular_volume,
    klein_volume,
    lobachevsky,
    regular_simplex,
    regular_simplex_volume,
    signed_volume,
    triangle_areas,
    triangle_signed_area,
)

import oracles

# closed form pi - 3 arccos(cosh L / (1 + cosh L)), frozen from tests/oracles.py
EQUILATERAL_AREA_2 = 1.1616934409423951

# 3 Lambda(pi/3); the series oracle at 2e6 terms reproduces it to 1e-13
V3 = 1.0149416064096536


def test_klein_volume_equilateral_closed_form():
    r = klein_volume(regular_simplex(2, 2.0))
    assert r.converged
    assert r.value == pytest.approx(EQUILATERAL_AREA_2, abs=2e-8)
    assert r.err_estimate <= 1e-8


def test_klein_volume_against_mc_oracle():
    s = regular_simplex(2, 2.0)
    est, sig = oracles.mc_klein_mass(to_klein(s), samples=400_000, seed=11)
    assert abs(est - klein_volume(s).value) <= 4.0 * sig


def test_klein_volume_tightened_tolerance():
    spec = QuadratureSpec(abs_tol=1e-11, max_subdivisions=20_000)
    r = klein_volume(regular_simplex(2, 2.0), spec)
    assert r.converged
    assert r.value == pytest.approx(EQUILATERAL_AREA_2, abs=1e-10)


def test_gauss_bonnet_routes_agree():
    # the angle-defect route, the quadrature and the half-angle oracle must
    # match on a generic triangle
    rng = np.random.default_rng(7)
    for _ in range(10):
        pts = from_klein_rows(rng.uniform(-0.55, 0.55, size=(3, 2)))
        q = klein_volume(pts).value
        assert abs(triangle_areas(pts[None])[0]) == pytest.approx(q, abs=1e-7)
        assert abs(oracles.half_angle_area(*pts)) == pytest.approx(q, abs=1e-7)


def test_lobachevsky_against_series_oracle():
    for theta in (0.3, math.pi / 6.0, math.pi / 3.0, 1.2):
        assert lobachevsky(theta) == pytest.approx(
            oracles.lobachevsky_fourier(theta), abs=1e-6
        )


def test_lobachevsky_identities():
    # odd, pi-periodic, zero at multiples of pi/2, duplication law
    assert lobachevsky(0.0) == pytest.approx(0.0, abs=1e-15)
    assert lobachevsky(math.pi / 2.0) == pytest.approx(0.0, abs=1e-12)
    for t in (0.2, 0.7, 1.3):
        assert lobachevsky(-t) == pytest.approx(-lobachevsky(t), abs=1e-12)
        assert lobachevsky(t + math.pi) == pytest.approx(lobachevsky(t), abs=1e-12)
        assert lobachevsky(2.0 * t) == pytest.approx(
            2.0 * lobachevsky(t) + 2.0 * lobachevsky(t + math.pi / 2.0), abs=1e-12
        )


def test_lobachevsky_maximum():
    assert lobachevsky(math.pi / 6.0) == pytest.approx(0.5074708032048266, abs=1e-12)
    grid = np.linspace(0.01, math.pi - 0.01, 500)
    vals = [lobachevsky(t) for t in grid]
    assert max(vals) <= lobachevsky(math.pi / 6.0) + 1e-9


def test_zeta_table_is_scipys():
    # the Lobachevsky series sums at most 59 terms, and v_3 rests on these bits
    from scipy.special import zeta

    assert len(volume._ZETA_EVEN) == 59
    for m, z in enumerate(volume._ZETA_EVEN, 1):
        assert z == float(zeta(2 * m, 1)), m


def test_regular_simplex_edge_lengths():
    for n, L in ((2, 1.0), (2, 5.0), (3, 2.5)):
        v = regular_simplex(n, L)
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                c = -(-v[i, 0] * v[j, 0] + np.dot(v[i, 1:], v[j, 1:]))
                assert math.acosh(max(c, 1.0)) == pytest.approx(L, abs=1e-9)


def test_signed_volume_orientation():
    s = regular_simplex(2, 2.0)
    a = signed_volume(s)
    assert signed_volume(s[[1, 0, 2]]) == pytest.approx(-a, abs=1e-9)
    assert a == pytest.approx(EQUILATERAL_AREA_2, abs=1e-7)


def test_triangle_signed_area_matches_quadrature():
    rng = np.random.default_rng(3)
    for _ in range(5):
        pts = from_klein_rows(rng.uniform(-0.5, 0.5, size=(3, 2)))
        a = triangle_signed_area(*pts)
        q = klein_volume(pts).value
        assert abs(a) == pytest.approx(q, abs=1e-7)


@pytest.mark.parametrize("L", [2.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0])
def test_triangle_areas_match_half_angle_oracle(L):
    # vertex rows of size ~e^(L/2) must cost the area no digits: 60
    # radius-0.6 perturbations of the regular triangle against the
    # half-angle formula on the same rows
    rng = np.random.default_rng(int(L))
    qs = regular_simplex(2, L)
    bases = np.stack([transport_from_origin(q)[:, 1:] for q in qs])
    g = rng.normal(size=(60, 3, 2))
    rows = np.array([_perturbed_vertices(qs, bases, w)
                     for w in 0.6 * g / np.linalg.norm(g, axis=2, keepdims=True)])
    expected = np.array([oracles.half_angle_area(*r) for r in rows])
    assert np.max(np.abs(triangle_areas(rows) - expected)) <= 1e-10


def test_triangle_signed_area_degenerate():
    b, c = from_klein_rows(np.array([[0.3, 0.0], [0.6, 0.0]]))
    assert triangle_signed_area(origin(2), b, c) == pytest.approx(0.0, abs=1e-6)


def test_ideal_constants():
    c2 = ideal_regular_volume(2)
    assert c2.v_n == math.pi and c2.method == "exact"
    c3 = ideal_regular_volume(3)
    assert c3.v_n == pytest.approx(V3, abs=1e-14)
    assert c3.v_n == pytest.approx(3.0 * oracles.lobachevsky_fourier(math.pi / 3.0), abs=1e-6)
    assert c3.method == "lobachevsky"
    with pytest.raises(ValueError):
        ideal_regular_volume(1)


@pytest.mark.parametrize("n, L", [(3, 1.0), (3, 2.0), (3, 4.0), (4, 1.0), (4, 2.0)])
def test_schlafli_recursion_matches_quadrature_at_finite_edge(n, L):
    fit, _ = volume._schlafli_volume(n)
    quad = regular_simplex_volume(n, L, QuadratureSpec(abs_tol=1e-9, max_subdivisions=4000))
    assert quad.converged
    assert abs(float(fit(L)) - quad.value) <= 1e-11


def test_schlafli_constants_lie_within_the_extrapolated_ones():
    # value and err_estimate of the Aitken extrapolation over Klein quadratures
    # at L = 4, 8, ..., 20 that computed v_n for n >= 4 before the recursion
    for n, old, err in ((4, 0.268895542941766, 2.7e-7), (5, 0.0575646678833460, 2.3e-7)):
        c = ideal_regular_volume(n)
        assert c.method == "schlafli" and c.err_estimate <= 1e-10 * c.v_n
        assert abs(c.v_n - old) <= err


def test_regular_volume_monotone_in_L():
    vals = [regular_simplex_volume(2, L).value for L in (1.0, 2.0, 4.0, 8.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < math.pi


def _klein_rows(*points) -> np.ndarray:
    # the vertex rows the frozen values below were computed on: each Klein
    # point lifted by (1, u) / sqrt(1 - u.u), then normalized by HPoint
    return np.array([HPoint(np.concatenate(([1.0], u)) / np.sqrt(1.0 - np.dot(u, u))).coords
                     for u in map(np.array, points)])


def test_klein_volume_frozen_values():
    # exact values and error estimates of the adaptive quadrature, frozen
    # so that a rework of the integrator must keep every bit
    cases = [
        (regular_simplex(3, 2.0), QuadratureSpec(),
         (0.39933855732678025, 5.134096834934914e-09)),
        (_klein_rows([0.1, -0.2, 0.05], [0.7, 0.1, -0.3], [-0.4, 0.6, 0.2], [0.0, -0.5, 0.8]),
         QuadratureSpec(abs_tol=3e-4),
         (0.10144033777460651, 0.000205257729774096)),
    ]
    for s, spec, (value, err) in cases:
        r = klein_volume(s, spec)
        assert r.converged
        assert (r.value, r.err_estimate) == (value, err)


def _bits(*values) -> bytes:
    return np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize("n", [2, 3])
def test_vertex_arrays_match_simplex_objects_bitwise(n):
    # vl_estimate's objective hands signed_volume renormalize_rows(rows):
    # on perturbed regular simplices like its own, those are the bits HPoint
    # gives each row, which the frozen V_L values were computed on
    rng = np.random.default_rng(17 + n)
    for L in (4.0, 6.0, 9.0):
        qs = regular_simplex(n, L)
        bases = np.stack([transport_from_origin(q)[:, 1:] for q in qs])
        for _ in range(170):
            g = rng.normal(size=(n + 1, n))
            # radii past 1 exercise the projection onto the radius-1 ball
            w = g / np.linalg.norm(g, axis=1, keepdims=True) * rng.uniform(0.0, 1.3, (n + 1, 1))
            rows = _perturbed_vertices(qs, bases, w)
            points = np.array([HPoint(r).coords for r in rows])
            assert renormalize_rows(rows).tobytes() == points.tobytes()


def test_ideal_vertices_are_an_error():
    # a simplex with one ideal vertex, or with all of them ideal, is rejected
    finite = list(from_klein_rows(np.array([[0.1, 0.2], [-0.3, 0.1]])))
    ideal = IdealPoint(np.array([1.0, 0.6, -0.8]))
    for verts in (np.array(finite + [ideal.coords]),
                  np.array([p.coords for p in (ideal, IdealPoint([1.0, -1.0, 0.0]),
                                               IdealPoint([1.0, 0.0, 1.0]))])):
        with pytest.raises(ValueError, match="ideal"):
            klein_volume(verts)
        with pytest.raises(ValueError, match="ideal"):
            signed_volume(verts)


def test_light_cone_rows_are_an_error():
    # an array carries no ideal flags: the rows' own norm must reject a
    # light-cone row, by HPoint's relative rule
    finite = list(from_klein_rows(np.array([[0.1, 0.2], [-0.3, 0.1]])))
    ideal = IdealPoint([1.0, 0.6, -0.8]).coords
    for rows in (np.array(finite + [ideal]), np.array([ideal, finite[0], finite[1]]),
                 np.array([finite[0], -finite[1], ideal])):
        with pytest.raises(ValueError, match="ideal"):
            klein_volume(rows)
        with pytest.raises(ValueError, match="ideal"):
            signed_volume(rows)
    lower = np.array(finite + [-from_klein_rows(np.array([0.2, -0.5]))])
    with pytest.raises(ValueError, match="upper sheet"):
        klein_volume(lower)


def test_far_perturbed_rows_pass_the_norm_rule():
    # x0 ~ 1e6 at L = 30: <x,x> = -1 holds only up to ~x0^2 eps
    rng = np.random.default_rng(30)
    spec = QuadratureSpec(abs_tol=3e-4, max_subdivisions=200)
    qs = regular_simplex(3, 30.0)
    bases = np.stack([transport_from_origin(q)[:, 1:] for q in qs])
    for _ in range(20):
        g = rng.normal(size=(4, 3))
        w = g / np.linalg.norm(g, axis=1, keepdims=True) * rng.uniform(0.0, 1.0, (4, 1))
        rows = renormalize_rows(_perturbed_vertices(qs, bases, w))
        assert klein_volume(rows, spec).value > 0.0


@pytest.mark.parametrize("n, digest", [(2, "57d48654989e3d9d"), (3, "3e3a70f67b75f664"),
                                       (4, "6ef5bf86d46ed4c0")])
def test_regular_simplex_edge_range(n, digest):
    # every half-integer edge up to MAX_EDGE builds, with the vertex bits it
    # had before the range was enforced (frozen digest); past it, an error
    # names the range instead of HPoint's "not a timelike vector"
    h = hashlib.sha256()
    for L in np.arange(0.5, MAX_EDGE + 0.25, 0.5):
        simplex = regular_simplex(n, float(L))
        assert isinstance(simplex, np.ndarray) and simplex.shape == (n + 1, n + 1)
        h.update(simplex.tobytes())
    assert h.hexdigest()[:16] == digest
    for L in (MAX_EDGE + 0.5, 40.0, 64.0, math.inf, 0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match=r"\(0, 32\]"):
            regular_simplex(n, L)


# (n, L, spec) grid of the bit-for-bit check against the reference
# integrator in tests/oracles.py
_ORACLE_SPECS = (
    QuadratureSpec(abs_tol=3e-4, max_subdivisions=200),
    QuadratureSpec(abs_tol=1e-6, max_subdivisions=1200),
)


@pytest.mark.parametrize("n", [2, 3])
def test_klein_volume_matches_reference_integrator_bitwise(n):
    # 2 x 4 x 2 x 42 = 672 perturbed simplices; value, error estimate and
    # convergence flag must equal the reference's in every bit
    rng = np.random.default_rng(100 + n)
    for L in (2.0, 4.0, 6.0, 9.0):
        qs = regular_simplex(n, L)
        bases = np.stack([transport_from_origin(q)[:, 1:] for q in qs])
        for spec in _ORACLE_SPECS:
            for _ in range(42):
                g = rng.normal(size=(n + 1, n))
                w = g / np.linalg.norm(g, axis=1, keepdims=True) * rng.uniform(0.0, 1.3, (n + 1, 1))
                rows = renormalize_rows(_perturbed_vertices(qs, bases, w))
                r = klein_volume(rows, spec)
                ref = oracles.klein_volume_reference(rows, spec)
                assert _bits(r.value, r.err_estimate) == _bits(*ref[:2])
                assert r.converged == ref[2]
