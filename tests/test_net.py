import math

import numpy as np
import pytest

from hypsmear.hypgeom import renormalize_rows, to_klein
from hypsmear.smear import SmearChain, build_net
from hypsmear.smear import chain as chain_mod
from hypsmear.smear.net import CENTER_TOKEN_GRID, ELEMENT_TOKEN_GRID, GammaNet

import oracles

J = np.array([-1.0, 1.0, 1.0])


def hdist(a, b):
    return math.acosh(max(1.0, -float(np.sum(a * J * b))))


def sample_domain_points(model, count, seed, shrink=0.9):
    """Points of the open fundamental polygon, klein-uniform is fine here."""
    rng = np.random.default_rng(seed)
    kv = model.klein_polygon() * shrink
    out = []
    lo, hi = kv.min(axis=0), kv.max(axis=0)
    while len(out) < count:
        u = rng.uniform(lo, hi, size=(4 * count, 2))
        keep = model.point_in_polygon(u / shrink)
        for row in u[keep]:
            out.append(row)
            if len(out) == count:
                break
    u = np.array(out)
    w = 1.0 / np.sqrt(1.0 - np.sum(u * u, axis=1))
    return np.column_stack([w, u[:, 0] * w, u[:, 1] * w])


def test_build_net_target_guard(torus):
    with pytest.raises(ValueError):
        build_net(torus, 0.0)
    with pytest.raises(ValueError):
        build_net(torus, 0.7)


def test_net_basic_properties(genus2, genus2_net):
    net, _ = genus2_net
    assert isinstance(net, GammaNet)
    assert 0.0 < net.covering_radius <= 0.4
    assert len(net) >= 3
    coords = net.centers
    assert coords.shape == (len(net), 3)
    assert genus2.point_in_polygon(to_klein(coords)).all()
    # stored integer tokens snap back onto the stored centers
    snapped = np.round(coords / CENTER_TOKEN_GRID).astype(np.int64)
    assert np.array_equal(snapped, net._ctok)


@pytest.mark.parametrize("name", ["genus2", "torus"])
def test_build_net_matches_reference_greedy_loop(request, name):
    # arccosh after the row minimum: centers and covering radius keep every
    # bit of the loop that took arccosh of the whole pairing matrix
    model = request.getfixturevalue(name)
    net, _ = request.getfixturevalue(f"{name}_net")
    centers, radius = oracles.build_net_reference(model, 0.4)
    assert renormalize_rows(centers).tobytes() == net.centers.tobytes()
    assert np.float64(radius).tobytes() == np.float64(net.covering_radius).tobytes()


def test_net_determinism(torus, torus_net):
    net, _ = torus_net
    again = build_net(torus, 0.4)
    assert np.array_equal(net.centers, again.centers)
    assert net.covering_radius == again.covering_radius


def test_assign_returns_nearby_center(genus2, genus2_net):
    net, _ = genus2_net
    lines = genus2.boundary_lines(genus2.domain_radius() + 2.0)
    pts = sample_domain_points(genus2, 300, seed=33)
    ctok, emat, pos = net.assign(genus2, pts, lines)
    assert ctok.shape == (300, 3) and emat.shape == (300, 3, 3) and pos.shape == (300, 3)
    for q, p in zip(pts, pos):
        assert hdist(q, p) <= net.covering_radius + net._lookup_slack + 1e-9
    # E carries the orbit representative of the center to its position
    rep, _ = genus2.reduce_batch(pos)
    back = np.einsum("bij,bj->bi", emat, rep)
    assert np.max(np.abs(back - pos)) < 1e-6


def test_assign_equivariance(genus2, genus2_net):
    net, _ = genus2_net
    lines = genus2.boundary_lines(genus2.domain_radius() + 2.0)
    pts = sample_domain_points(genus2, 120, seed=34)
    ctok, _, pos = net.assign(genus2, pts, lines)
    g = genus2.gen_mats[2]
    moved = pts @ g.T
    ctok2, _, pos2 = net.assign(genus2, moved, lines)
    assert np.array_equal(ctok, ctok2)
    assert np.max(np.abs(pos2 - pos @ g.T)) < 1e-6


def test_assign_center_fixed_points(genus2, genus2_net):
    net, _ = genus2_net
    lines = genus2.boundary_lines(genus2.domain_radius() + 2.0)
    coords = net.centers
    ctok, emat, pos = net.assign(genus2, coords, lines)
    assert np.array_equal(ctok, net._ctok)
    assert np.max(np.abs(pos - coords)) < 1e-8
    ident = np.broadcast_to(np.eye(3), emat.shape)
    assert np.max(np.abs(emat - ident)) < 1e-8


def test_same_cell_diameter(genus2, genus2_net):
    # two points resolving to the same concrete cell instance lie within
    # twice the covering radius of each other
    net, _ = genus2_net
    lines = genus2.boundary_lines(genus2.domain_radius() + 2.0)
    pts = sample_domain_points(genus2, 600, seed=35)
    _, _, pos = net.assign(genus2, pts, lines)
    cell_id = np.round(pos / 1e-6).astype(np.int64)
    seen = {}
    for i, cid in enumerate(map(lambda r: r.tobytes(), cell_id)):
        if cid in seen:
            j = seen[cid]
            assert hdist(pts[i], pts[j]) <= 2.0 * net.covering_radius + 1e-9
        else:
            seen[cid] = i


def test_mirror_model_folding(torus, torus_net):
    net, _ = torus_net
    assert torus.boundary  # the net is mirrored across the boundary lines
    lines = torus.boundary_lines(torus.domain_radius() + 3.0)
    pts = sample_domain_points(torus, 150, seed=36)
    depth = torus.distance_to_boundary(pts, lines)
    pts = pts[depth > 0.05][:60]
    _, _, pos = net.assign(torus, pts, lines)
    # reflect the queries into the funnels; positions must mirror with them
    s = (pts * J) @ lines.T
    nearest = np.argmax(s, axis=1)
    u = lines[nearest]
    mp = (pts * J * u).sum(axis=1)
    refl = pts - 2.0 * mp[:, None] * u
    _, _, pos_r = net.assign(torus, refl, lines)
    mpos = (pos * J * u).sum(axis=1)
    expect = pos - 2.0 * mpos[:, None] * u
    assert np.max(np.abs(pos_r - expect)) < 1e-6


def test_net_covers_dense_sample(torus, torus_net):
    net, _ = torus_net
    lines = torus.boundary_lines(torus.domain_radius() + 3.0)
    pts = sample_domain_points(torus, 2000, seed=37, shrink=0.97)
    _, _, pos = net.assign(torus, pts, lines)
    worst = max(hdist(q, p) for q, p in zip(pts, pos))
    assert worst <= net.covering_radius + net._lookup_slack


def assign_two_reductions(net, model, coords, lines):
    """Cell lookup that reduces every row a second time after folding and
    takes the gam2 products for all rows, folded or not."""
    x1, gam1 = model.reduce_batch(coords)
    folded, unfold = model.fold_batch(x1, lines)
    red, gam2 = model.reduce_batch(folded)
    idx = np.argmax((red * J) @ net._cloud_pts.T, axis=1)
    was_folded = np.abs(unfold[:, 0, 0] - 1.0) > 1e-15
    pos = np.einsum("bij,bj->bi", gam2, net._cloud_pts[idx])
    pos[was_folded] = np.einsum("bij,bj->bi", unfold[was_folded], pos[was_folded])
    pos_dom = renormalize_rows(pos)
    pos = renormalize_rows(np.einsum("bij,bj->bi", gam1, pos_dom))
    emat = np.einsum(
        "bij,bjk->bik", gam1, np.einsum("bij,bjk->bik", gam2, net._cloud_mats[idx])
    )
    ctok = net._ctok[net._cloud_cid[idx]]
    rows = np.flatnonzero(was_folded)
    rep, e2 = model.reduce_batch(pos_dom[rows])
    emat[rows] = np.einsum("bij,bjk->bik", gam1[rows], e2)
    near = (rep * J) @ net.centers.T
    ci2 = np.argmax(near, axis=1)
    is_interior = -near[np.arange(len(rep)), ci2] < 1.0 + 1e-9
    tok = np.round(rep / CENTER_TOKEN_GRID).astype(np.int64)
    tok[is_interior] = net._ctok[ci2[is_interior]]
    ctok[rows] = tok
    return ctok, emat, pos, was_folded


def test_assign_matches_two_reduction_replay(torus, torus_net):
    """Re-reducing only the folded rows changes no center token or position,
    and no element token of the keys built from them."""
    net, _ = torus_net
    b = 1000  # 3000 vertices: a single pairing block
    mats = next(chain_mod.haar_sample(torus, b, 11))
    lines = SmearChain(torus, 4.0, b).lines
    for q in chain_mod._mirror_pair(4.0):
        verts = renormalize_rows(np.einsum("bij,vj->bvi", mats, q)).reshape(-1, 3)
        ctok, emat, pos = net.assign(torus, verts, lines)
        rctok, remat, rpos, was_folded = assign_two_reductions(net, torus, verts, lines)
        assert 0 < was_folded.sum() < len(verts)
        assert np.array_equal(ctok, rctok)
        assert np.array_equal(pos, rpos)
        tokens = np.round(emat[:, :, 0] / ELEMENT_TOKEN_GRID)
        assert np.array_equal(tokens, np.round(remat[:, :, 0] / ELEMENT_TOKEN_GRID))
        rows = chain_mod._key_rows(ctok.reshape(b, 3, 3), emat.reshape(b, 3, 3, 3))
        assert np.array_equal(rows, chain_mod._key_rows(rctok.reshape(b, 3, 3),
                                                        remat.reshape(b, 3, 3, 3)))
