import math

import numpy as np
import pytest

from hypsmear.hypgeom import (
    Frame,
    GeodesicSimplex,
    HPoint,
    IdealPoint,
    Isometry,
    distance,
    exp_point,
    frame_to_isometry,
    from_klein,
    geodesic_point,
    log_direction,
    minkowski,
    origin,
    reference_frame,
    renormalize_rows,
    straight_eval,
    to_klein,
    transport_from_origin,
)

RNG = np.random.default_rng(401)


def random_point(n=2, rad=2.0):
    v = RNG.normal(size=n)
    v *= RNG.uniform(0, rad) / np.linalg.norm(v)
    r = np.linalg.norm(v)
    if r < 1e-12:
        return origin(n)
    return HPoint(np.concatenate([[math.cosh(r)], math.sinh(r) * v / r]))


def test_minkowski_signature():
    x = np.array([2.0, 1.0, 0.5])
    y = np.array([1.0, 0.0, 0.0])
    assert minkowski(x, y) == -2.0
    assert minkowski(x, x) == pytest.approx(-4.0 + 1.0 + 0.25, abs=1e-15)


def test_hpoint_validation():
    o = origin(2)
    assert minkowski(o.coords, o.coords) == pytest.approx(-1.0, abs=1e-15)
    assert o.n == 2
    # timelike input is rescaled onto the sheet
    p = HPoint(np.array([2.0, 0.5, 0.3]))
    assert minkowski(p.coords, p.coords) == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(ValueError):
        HPoint(np.array([1.0, 2.0, 0.0]))  # spacelike
    with pytest.raises(ValueError):
        HPoint(np.array([-1.0, 0.0, 0.0]))  # lower sheet


def test_ideal_point_is_null():
    p = IdealPoint(np.array([1.0, 1.0, 0.0]))
    assert minkowski(p.coords, p.coords) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        IdealPoint(np.array([1.0, 0.0, 0.0]))


def test_distance_axioms():
    for _ in range(20):
        x, y, z = random_point(), random_point(), random_point()
        assert distance(x, x) == pytest.approx(0.0, abs=1e-7)
        assert distance(x, y) == pytest.approx(distance(y, x), abs=1e-12)
        assert distance(x, z) <= distance(x, y) + distance(y, z) + 1e-12


def test_distance_along_axis():
    a = HPoint(np.array([math.cosh(1.5), math.sinh(1.5), 0.0]))
    b = HPoint(np.array([math.cosh(0.4), -math.sinh(0.4), 0.0]))
    assert distance(a, b) == pytest.approx(1.9, abs=1e-12)


def test_klein_roundtrip():
    for _ in range(20):
        x = random_point(n=3)
        u = to_klein(x.coords)
        assert np.linalg.norm(u) < 1.0
        back = from_klein(u)
        assert np.allclose(back.coords, x.coords, atol=1e-12)
    ideal = from_klein(np.array([0.6, 0.8]), ideal=True)
    assert isinstance(ideal, IdealPoint)


def test_exp_log_inverse():
    for _ in range(20):
        base, target = random_point(), random_point()
        if distance(base, target) < 1e-6:
            continue
        v = log_direction(base, target)
        assert minkowski(v, base.coords) == pytest.approx(0.0, abs=1e-9)
        assert minkowski(v, v) == pytest.approx(1.0, abs=1e-9)  # unit speed
        again = exp_point(base, distance(base, target) * v)
        assert distance(again, target) < 1e-7


def test_geodesic_point_endpoints_and_additivity():
    x, y = random_point(), random_point()
    assert distance(geodesic_point(x, y, 0.0), x) < 1e-7
    assert distance(geodesic_point(x, y, 1.0), y) < 1e-7
    mid = geodesic_point(x, y, 0.5)
    assert distance(x, mid) == pytest.approx(distance(mid, y), abs=1e-9)
    assert distance(x, mid) + distance(mid, y) == pytest.approx(distance(x, y), abs=1e-9)


def test_transport_from_origin_is_lorentz_and_moves_origin():
    j = np.diag([-1.0, 1.0, 1.0])
    for _ in range(10):
        p = random_point()
        t = transport_from_origin(p)
        assert np.allclose(t.T @ j @ t, j, atol=1e-12)
        assert np.allclose(t @ origin(2).coords, p.coords, atol=1e-12)


def test_reference_frame_and_isometry():
    fr = reference_frame(2)
    assert distance(fr.base, origin(2)) == 0.0
    iso = frame_to_isometry(fr)
    assert np.allclose(iso.matrix, np.eye(3), atol=1e-15)
    # a frame at a generic point gives a Lorentz matrix sending e0 there
    p = random_point()
    t = transport_from_origin(p)
    fr2 = Frame(p, t[:, 1:].T)
    iso2 = frame_to_isometry(fr2)
    assert np.allclose(iso2.matrix[:, 0], p.coords, atol=1e-12)


def test_isometry_validation():
    with pytest.raises(ValueError):
        Isometry(np.diag([1.0, 2.0, 1.0]))
    m = np.eye(3)
    m[0, 0] = -1.0  # future cone not preserved
    with pytest.raises(ValueError):
        Isometry(m)


def test_frame_shape_and_isometry_rejection():
    p = random_point()
    with pytest.raises(ValueError):
        Frame(p, np.ones((3, 3)))
    # non-orthonormal tangents produce a non-Lorentz matrix
    with pytest.raises(ValueError):
        frame_to_isometry(Frame(p, np.ones((2, 3))))


def test_simplex_shape_guard():
    pts = [origin(2), random_point(), random_point()]
    s = GeodesicSimplex(pts)
    assert s.vertices.shape == (3, 3)
    with pytest.raises(ValueError):
        GeodesicSimplex(pts + [random_point(), random_point()])


def test_straight_eval_vertices_and_interior():
    s = GeodesicSimplex([origin(2), random_point(), random_point()])
    for i in range(3):
        w = np.zeros(3)
        w[i] = 1.0
        assert distance(straight_eval(s, w), HPoint(s.vertices[i])) < 1e-7
    c = straight_eval(s, np.array([1 / 3, 1 / 3, 1 / 3]))
    edge = max(
        distance(HPoint(s.vertices[i]), HPoint(s.vertices[j]))
        for i in range(3)
        for j in range(i + 1, 3)
    )
    assert all(distance(c, HPoint(v)) <= edge + 1e-9 for v in s.vertices)


@pytest.mark.parametrize("width", [3, 4])
def test_renormalize_rows_bits_match_sum_formula(width):
    # two spatial columns take an explicit sum; it must give np.sum's bits
    rng = np.random.default_rng(width)
    space = rng.normal(size=(4000, width - 1)) * rng.uniform(0.0, 30.0, size=(4000, 1))
    x = np.column_stack([np.sqrt(1.0 + np.sum(space**2, axis=1)), space])
    x *= rng.uniform(0.5, 2.0, size=(4000, 1))
    for rows in (x, x.reshape(1000, 4, width)):
        q = -(rows[..., 0] ** 2) + np.sum(rows[..., 1:] ** 2, axis=-1)
        expected = rows / np.sqrt(-q)[..., None]
        assert np.array_equal(renormalize_rows(rows).view(np.uint64), expected.view(np.uint64))
