import hashlib
import json
import math

import numpy as np
import pytest

from hypsmear.hypgeom import HPoint, minkowski, origin, renormalize_rows, to_klein
from hypsmear.smear import chain as chain_mod
from hypsmear.smear.surface import (
    ORBIT_MAX_IMAGES,
    SurfaceModel,
    bundled_model_path,
    load_model,
    save_model,
)

import oracles

J = np.array([-1.0, 1.0, 1.0])


def test_bundled_genus2_shape(genus2):
    assert genus2.chi == -2
    assert genus2.gen_mats.shape == (8, 3, 3)
    assert genus2.poly_coords.shape == (8, 3)
    assert genus2.boundary == ()
    assert genus2.exact_area == pytest.approx(4.0 * math.pi, abs=1e-14)
    assert genus2.domain_radius() == pytest.approx(2.4484524476780756, abs=1e-9)
    assert genus2.boundary_length() == 0.0


def test_bundled_torus_shape(torus):
    assert torus.chi == -1
    assert torus.gen_mats.shape == (4, 3, 3)
    assert len(torus.boundary) > 0
    assert torus.exact_area == pytest.approx(2.0 * math.pi, abs=1e-14)
    assert torus.boundary_length() == pytest.approx(6.114283677923990, abs=1e-9)


def test_unknown_bundled_name():
    with pytest.raises(ValueError):
        bundled_model_path("klein_bottle")


def test_save_load_roundtrip(genus2, tmp_path):
    p = tmp_path / "m.json"
    save_model(genus2, p)
    back = load_model(p)
    assert back.chi == genus2.chi
    assert np.array_equal(back.gen_mats, genus2.gen_mats)
    assert np.array_equal(back.poly_coords, genus2.poly_coords)


def test_load_rejects_wrong_dim(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"dim": 3}')
    with pytest.raises(ValueError):
        load_model(p)


def test_load_rejects_non_integral_chi(tmp_path):
    # int() would truncate -1.5 to a valid-looking chi of -1
    doc = json.loads(bundled_model_path("holed_torus").read_text())
    p = tmp_path / "torus.json"
    for chi in (-1.5, None, "-1"):
        p.write_text(json.dumps({**doc, "chi": chi}))
        with pytest.raises(ValueError, match="chi must be an integer"):
            load_model(p)


def test_constructor_rejects_nonnegative_chi(genus2):
    with pytest.raises(ValueError):
        SurfaceModel(genus2.gen_mats, genus2.poly_coords, (), genus2.base, 0)


def test_constructor_rejects_wrong_area(genus2):
    with pytest.raises(ValueError, match="area"):
        SurfaceModel(genus2.gen_mats, genus2.poly_coords, (), genus2.base, -3)


def test_constructor_rejects_missing_inverse(genus2):
    with pytest.raises(ValueError, match="inverse"):
        SurfaceModel(genus2.gen_mats[:7], genus2.poly_coords, (), genus2.base, -2)


def test_constructor_rejects_bad_boundary_polar(torus):
    polars = [2.0 * u for u in torus.boundary]
    with pytest.raises(ValueError, match="polar"):
        SurfaceModel(torus.gen_mats, torus.poly_coords, polars, torus.base, -1)


def test_generators_are_lorentz_and_closed_under_inverse(genus2):
    for g in genus2.gen_mats:
        assert np.allclose(g.T @ np.diag(J) @ g, np.diag(J), atol=1e-10)
    inv = genus2._inv_index
    for i, j in enumerate(inv):
        assert np.allclose(genus2.gen_mats[i] @ genus2.gen_mats[j], np.eye(3), atol=1e-9)


def test_reduce_batch_roundtrip(genus2):
    rng = np.random.default_rng(21)
    inside = origin(2)
    for _ in range(12):
        word = rng.integers(0, 8, size=rng.integers(1, 6))
        g = np.eye(3)
        for w in word:
            g = g @ genus2.gen_mats[w]
        moved = HPoint(g @ inside).coords
        red, gamma = genus2.reduce_batch(moved[None, :])
        assert math.acosh(max(1.0, -minkowski(red[0], inside))) < 1e-4
        # conditioning grows with cosh(distance); compare relative to scale
        back_err = np.max(np.abs(gamma[0] @ red[0] - moved))
        assert back_err <= 1e-4 * max(1.0, moved[0])


def test_reduce_batch_lands_in_polygon(genus2):
    rng = np.random.default_rng(5)
    # words of moderate length scatter points a few diameters out
    pts = []
    for _ in range(40):
        g = np.eye(3)
        for w in rng.integers(0, 8, size=3):
            g = g @ genus2.gen_mats[w]
        v = rng.normal(size=2) * 0.4
        r = np.linalg.norm(v)
        x = np.array([math.cosh(r), *(math.sinh(r) * v / max(r, 1e-12))])
        pts.append(g @ x)
    pts = np.array(pts)
    red, elems = genus2.reduce_batch(pts)
    assert genus2.point_in_polygon(to_klein(red) * (1 - 1e-9)).all()
    back = np.einsum("bij,bj->bi", elems, red)
    assert np.max(np.abs(back - pts)) < 1e-4


def reduce_reference(model, coords):
    """Dirichlet descent accumulating each moving row's element on its own,
    one product per row and step.  Returns (reduced, elements, steps)."""
    x = renormalize_rows(np.array(coords, dtype=float))
    elems = np.broadcast_to(np.eye(3), (len(x), 3, 3)).copy()
    steps = np.zeros(len(x), dtype=int)
    inv_mats = model.gen_mats[model._inv_index]
    active = np.arange(len(x))
    while active.size:
        xa = x[active]
        imgs0 = np.einsum("gj,bj->bg", model.gen_mats[:, 0, :], xa)
        best = np.argmin(imgs0, axis=1)
        improve = imgs0[np.arange(active.size), best] < xa[:, 0] * (1.0 - 1e-15)
        rows, b = active[improve], best[improve]
        x[rows] = renormalize_rows(np.einsum("bij,bj->bi", model.gen_mats[b], x[rows]))
        elems[rows] = np.einsum("bij,bjk->bik", elems[rows], inv_mats[b])
        steps[rows] += 1
        active = rows
    return x, elems, steps


# torus vertices need an edge of 14 before hundreds of them take >= 4 steps
@pytest.mark.parametrize("name, L", [("genus2", 6.0), ("torus", 14.0)])
def test_reduce_batch_matches_per_row_reference(request, name, L):
    """Elements shared through generator words are bit-equal to per-row ones."""
    model = request.getfixturevalue(name)
    mats = next(chain_mod.haar_sample(model, 1500, 7))
    verts = np.concatenate(
        [np.einsum("bij,vj->bvi", mats, q).reshape(-1, 3) for q in chain_mod._mirror_pair(L)]
    )
    red, elems = model.reduce_batch(verts)
    ref_red, ref_elems, steps = reduce_reference(model, verts)
    assert (steps >= 4).sum() > 100
    assert np.array_equal(red, ref_red)
    assert np.array_equal(elems, ref_elems)


def test_reduce_batch_distance_budget(genus2):
    far = np.array([[math.cosh(41.0), math.sinh(41.0), 0.0]])
    with pytest.raises(ValueError):
        genus2.reduce_batch(far)


def test_boundary_lines_are_unit_polars(torus):
    lines = torus.boundary_lines(4.0)
    assert lines.shape[0] >= len(torus.boundary)
    q = -(lines[:, 0] ** 2) + lines[:, 1] ** 2 + lines[:, 2] ** 2
    assert np.allclose(q, 1.0, atol=1e-9)
    # base point strictly on the surface side of every line
    s = (torus.base * J) @ lines.T
    assert np.all(s < 0)


def test_boundary_lines_closed_model_empty(genus2):
    assert genus2.boundary_lines(5.0).shape == (0, 3)


@pytest.mark.parametrize("radius", [0.3, 0.9, 1.0])
def test_boundary_lines_below_the_nearest_line_empty(radius):
    # a radius short of every lift once handed np.lexsort a 1-D empty array
    fresh = load_model(bundled_model_path("holed_torus"))
    assert fresh.boundary_lines(radius).shape == (0, 3)


def test_fold_batch_unfolds(torus):
    lines = torus.boundary_lines(torus.domain_radius() + 3.0)
    rng = np.random.default_rng(9)
    pts = []
    for _ in range(25):
        v = rng.normal(size=2)
        v *= rng.uniform(0.0, 2.5) / np.linalg.norm(v)
        r = np.linalg.norm(v)
        pts.append([math.cosh(r), *(math.sinh(r) * v / max(r, 1e-12))])
    pts = np.array(pts)
    folded, unf = torus.fold_batch(pts, lines)
    depth = torus.distance_to_boundary(folded, lines)
    assert np.all(depth >= -1e-9)
    back = np.einsum("bij,bj->bi", unf, folded)
    assert np.max(np.abs(back - pts)) < 1e-8


def test_distance_to_boundary_signs(torus):
    lines = torus.boundary_lines(torus.domain_radius() + 3.0)
    d0 = torus.distance_to_boundary(torus.base[None, :], lines)[0]
    assert d0 > 0
    # reflect the base across its nearest boundary line: depth flips sign
    s = (torus.base * J) @ lines.T
    u = lines[int(np.argmax(s))]
    refl = torus.base - 2.0 * minkowski(torus.base, u) * u
    d1 = torus.distance_to_boundary(refl[None, :], lines)[0]
    assert d1 == pytest.approx(-d0, abs=1e-9)


def test_element_ball_contains_identity_and_is_lorentz(genus2):
    ball = genus2.element_ball(4.0)
    ident = np.min(np.max(np.abs(ball - np.eye(3)), axis=(1, 2)))
    assert ident < 1e-12
    jm = np.diag(J)
    for g in ball[:50]:
        assert np.allclose(g.T @ jm @ g, jm, atol=1e-9)
    # every element moves the base point by at most the requested radius
    imgs = ball @ genus2.base
    cosh_d = -(imgs * J) @ genus2.base
    assert np.all(np.arccosh(np.maximum(1.0, cosh_d)) <= 4.0 + 1e-6)


def test_point_in_polygon_basics(genus2):
    assert genus2.point_in_polygon(np.array([[0.0, 0.0]]))[0]
    assert not genus2.point_in_polygon(np.array([[0.99, 0.0]]))[0]


def fold_reference(model, coords, lines):
    """fold_batch composing the unfold matrices by einsum on every step,
    plus each row's step count."""
    x = np.array(coords, dtype=float)
    unf = np.tile(np.eye(3), (len(x), 1, 1))
    steps = np.zeros(len(x), dtype=int)
    active = np.arange(len(x))
    while active.size:
        s = x[active] @ (lines * J).T
        worst = np.argmax(s, axis=1)
        out = s[np.arange(active.size), worst] > 1e-14
        rows = active[out]
        u = lines[worst[out]]
        proj = np.einsum("bj,bj->b", x[rows] * J, u)
        x[rows] = x[rows] - 2.0 * proj[:, None] * u
        refl = np.eye(3) - 2.0 * np.einsum("bi,bj->bij", u, u * J)
        unf[rows] = np.einsum("bij,bjk->bik", unf[rows], refl)
        steps[rows] += 1
        active = rows
    return x, unf, steps


def test_fold_batch_matches_always_compose_reference(torus):
    """Writing the first reflection straight into the unfold matrices gives
    the composed ones bit for bit, sign bits of zeros included."""
    lines = torus.boundary_lines(torus.domain_radius() + chain_mod._simplex_radius(2, 4.0) + 3.5)
    mats = next(chain_mod.haar_sample(torus, 3000, 5))
    verts = np.concatenate(
        [np.einsum("bij,vj->bvi", mats, q).reshape(-1, 3) for q in chain_mod._mirror_pair(4.0)]
    )
    x1, _ = torus.reduce_batch(verts)
    folded, unf = torus.fold_batch(x1, lines)
    ref_x, ref_unf, steps = fold_reference(torus, x1, lines)
    assert (steps == 1).sum() > 100 and (steps >= 2).sum() > 100
    assert np.array_equal(folded.view(np.uint64), ref_x.view(np.uint64))
    assert np.array_equal(unf.view(np.uint64), ref_unf.view(np.uint64))


# sha256 of the bytes of each orbit search result; element_ball's order is
# GammaNet's tie rule, so a reordered ball would move the chain's keys
ORBIT_DIGESTS = {
    "genus2": {
        "ball_build_net": "88a4fb0ef76b236d1e199799b6e76dedd5fee3fb40cd1895b3675c70209f11b6",
        "ball_gamma_net": "e86e0062d56d5fdf48f95269abb90e1b97d58dbda367bc0253b7c5db82cbf70c",
        "lines_build_net": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "lines_chain_4": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "lines_chain_6": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "torus": {
        "ball_build_net": "8a3f8cf905c5e81665177bc6d54aad18f78b2f15fe26247a25d574ff3c023ab7",
        "ball_gamma_net": "8a3f8cf905c5e81665177bc6d54aad18f78b2f15fe26247a25d574ff3c023ab7",
        "lines_build_net": "aec312fe59f283adb754ebaf02e53a1d411ed02bd5ec83151998036975cd36b3",
        "lines_chain_4": "485cc90eda55f7ff1eed51d2c17fc2af8ada84ddd35712b9b1935a6de1f0d010",
        "lines_chain_6": "a4b1ea0176ec5bc4e30aa535caf8363c7e257ae2e332f5d4d64bd51ce1c2c05c",
    },
}


@pytest.mark.parametrize("name", sorted(ORBIT_DIGESTS))
def test_orbit_searches_pinned(request, name):
    """element_ball and boundary_lines at the radii build_net, GammaNet and
    the chain use give the recorded arrays, order and bits included."""
    net = request.getfixturevalue(f"{name}_net")[0]
    # a fresh model, so the searches run instead of answering from the memos
    fresh = load_model(bundled_model_path({"torus": "holed_torus"}.get(name, name)))
    dr = fresh.domain_radius()
    r_cloud = dr + net.covering_radius + net._lookup_slack + 0.05
    got = {
        "ball_build_net": fresh.element_ball(2.0 * dr + 1.0),
        "ball_gamma_net": fresh.element_ball(r_cloud + dr),
        "lines_build_net": fresh.boundary_lines(dr + 1.0),
        "lines_chain_4": chain_mod._chain_lines(fresh, 4.0),
        "lines_chain_6": chain_mod._chain_lines(fresh, 6.0),
    }
    digests = {k: hashlib.sha256(v.tobytes()).hexdigest() for k, v in got.items()}
    assert digests == ORBIT_DIGESTS[name]


@pytest.mark.parametrize("name, search, radius", [
    ("genus2", "ball", 7.0), ("genus2", "ball", 8.2), ("holed_torus", "ball", 7.0),
    ("holed_torus", "lines", 8.2), ("holed_torus", "lines", 9.9),
])
def test_orbit_search_matches_scalar_oracle(name, search, radius):
    """The frontier-at-a-time search returns the frozen one-image-at-a-time
    search's arrays, order and bits included, at radii past the pinned ones."""
    fresh = load_model(bundled_model_path(name))
    if search == "ball":
        got, ref = fresh.element_ball(radius), oracles.element_ball_reference(fresh, radius)
    else:
        got, ref = fresh.boundary_lines(radius), oracles.boundary_lines_reference(fresh, radius)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_orbit_search_budget():
    # at L = 11.5 the torus lines are still unit polars; from L = 11.65
    # rounding drift breeds spurious lifts past the budget
    fresh = load_model(bundled_model_path("holed_torus"))
    lines = chain_mod._chain_lines(fresh, 11.5)
    assert len(lines) == 476
    q = -(lines[:, 0] ** 2) + lines[:, 1] ** 2 + lines[:, 2] ** 2
    assert np.max(np.abs(q - 1.0)) < 1e-6
    with pytest.raises(RuntimeError, match=f"over {ORBIT_MAX_IMAGES} images"):
        chain_mod._chain_lines(fresh, 12.0)
