import math

import numpy as np
import pytest

from hypsmear.hypgeom import (
    Frame,
    GeodesicSimplex,
    HPoint,
    IdealPoint,
    Isometry,
    from_klein_rows,
    log_direction,
    minkowski,
    origin,
    renormalize_rows,
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
    return HPoint(np.concatenate([[math.cosh(r)], math.sinh(r) * v / r])).coords


def test_minkowski_signature():
    x = np.array([2.0, 1.0, 0.5])
    y = np.array([1.0, 0.0, 0.0])
    assert minkowski(x, y) == -2.0
    assert minkowski(x, x) == pytest.approx(-4.0 + 1.0 + 0.25, abs=1e-15)


def test_hpoint_validation():
    o = HPoint(origin(2))
    assert o.coords.tobytes() == origin(2).tobytes()
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


def test_klein_roundtrip():
    for _ in range(20):
        x = random_point(n=3)
        u = to_klein(x)
        assert np.linalg.norm(u) < 1.0
        assert np.allclose(from_klein_rows(u), x, atol=1e-12)
    # the inverse chart lands on the sheet and inverts to_klein, flat and stacked
    u = RNG.uniform(-0.6, 0.6, size=(4, 5, 2))
    rows = from_klein_rows(u)
    assert rows.shape == (4, 5, 3)
    assert np.allclose(minkowski(rows, rows), -1.0, atol=1e-13)
    assert np.allclose(to_klein(rows), u, atol=1e-15)
    assert np.array_equal(from_klein_rows(u[0]), rows[0])


def test_exp_log_inverse():
    for _ in range(20):
        base, target = random_point(), random_point()
        d = math.acosh(max(1.0, -minkowski(base, target)))
        if d < 1e-6:
            continue
        v = log_direction(base, target)
        assert minkowski(v, base) == pytest.approx(0.0, abs=1e-9)
        assert minkowski(v, v) == pytest.approx(1.0, abs=1e-9)  # unit speed
        # the exponential map cosh(d) base + sinh(d) v returns to the target
        again = HPoint(math.cosh(d) * base + math.sinh(d) * v).coords
        assert math.acosh(max(1.0, -minkowski(again, target))) < 1e-7


def test_transport_from_origin_is_lorentz_and_moves_origin():
    j = np.diag([-1.0, 1.0, 1.0])
    for _ in range(10):
        p = random_point()
        t = transport_from_origin(p)
        assert np.allclose(t.T @ j @ t, j, atol=1e-12)
        assert np.allclose(t @ origin(2), p, atol=1e-12)


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
    # tangents that are not orthonormal at the base point are rejected, as
    # the Lorentz matrix they would form is
    with pytest.raises(ValueError, match="orthonormal"):
        Frame(p, np.ones((2, 3)))
    with pytest.raises(ValueError):
        Isometry(np.column_stack([p, np.ones((2, 3)).T]))
    t = transport_from_origin(p)
    with pytest.raises(ValueError, match="orthonormal"):
        Frame(p, t[:, 1:].T * 1.001)  # tangent, not unit
    with pytest.raises(ValueError, match="orthonormal"):
        Frame(p, np.eye(3)[1:])  # unit at the origin, not tangent at p
    # a transported frame passes, and far from the origin its pairings'
    # rounding (~x0^2 eps) stays inside the relative tolerance
    fr = Frame(p, t[:, 1:].T)
    Isometry(np.column_stack([fr.base.coords, fr.tangents.T]))
    far = np.array([math.cosh(12.0), math.sinh(12.0), 0.0])
    Frame(far, transport_from_origin(far)[:, 1:].T)


def test_isometry_far_from_origin_relative_tolerance():
    # [q | transported tangents] at distance 12 (x0 ~ 8e4) is a Lorentz
    # matrix up to rounding ~ x0^2 eps, far above an absolute 1e-10
    far = HPoint([math.cosh(12.0), math.sinh(12.0) * 0.6, math.sinh(12.0) * 0.8]).coords
    fr = Frame(far, transport_from_origin(far)[:, 1:].T)
    m = np.column_stack([fr.base.coords, fr.tangents.T])
    assert Isometry(m).matrix.tobytes() == m.tobytes()
    bent = m.copy()
    bent[0, 0] *= 1.0 + 1e-8  # base column off the hyperboloid
    with pytest.raises(ValueError, match="Lorentz"):
        Isometry(bent)


def test_simplex_shape_guard():
    pts = [origin(2), random_point(), random_point()]
    s = GeodesicSimplex(pts)
    assert s.vertices.shape == (3, 3)
    with pytest.raises(ValueError):
        GeodesicSimplex(pts + [random_point(), random_point()])


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
