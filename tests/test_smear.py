import math

import numpy as np
import pytest
from scipy import stats

from hypsmear.hypgeom import to_klein, transport_from_origin
from hypsmear.smear import (
    SmearChain,
    accumulate_chain,
    boundary_residuals,
    haar_sample,
    measure_sandwich,
    ratio_report,
)
from hypsmear.smear import chain as chain_mod
from hypsmear.smear import net as net_mod

import oracles

J = np.array([-1.0, 1.0, 1.0])


# --- haar sampling ----------------------------------------------------------


def test_haar_sample_guards(torus):
    with pytest.raises(ValueError):
        next(haar_sample(torus, 0, seed=1))


def test_haar_sample_deterministic_and_prefix_stable(torus):
    a = np.concatenate([m[:, :, 0] for m in haar_sample(torus, 40_000, seed=5)])
    b = np.concatenate([m[:, :, 0] for m in haar_sample(torus, 70_000, seed=5)])
    assert np.array_equal(a, b[:40_000])
    c = np.concatenate([m[:, :, 0] for m in haar_sample(torus, 40_000, seed=6)])
    assert not np.array_equal(a, c)


def reference_positions(model, count, rng, r_max2, angles=True):
    """Area-uniform rejection that tests polygon membership of every
    candidate; returns Klein points and (if drawn) rotation angles."""
    r_box = float(np.max(np.abs(model.klein_polygon())))
    pts, angs = [], []
    have = 0
    while have < count:
        u = rng.uniform(-r_box, r_box, size=(8192, 2))
        acc = rng.random(8192)
        theta = rng.random(8192) * (2.0 * math.pi) if angles else np.zeros(8192)
        rho2 = np.sum(u * u, axis=1)
        density = np.zeros(8192)
        disk = rho2 < 1.0
        density[disk] = ((1.0 - r_max2) / (1.0 - rho2[disk])) ** 1.5
        keep = model.point_in_polygon(u) & (acc < density)
        pts.append(u[keep])
        angs.append(theta[keep])
        have += int(keep.sum())
    return np.concatenate(pts)[:count], np.concatenate(angs)[:count]


def hyperboloid(u):
    w = 1.0 / np.sqrt(1.0 - np.sum(u * u, axis=1))
    return np.column_stack([w, u[:, 0] * w, u[:, 1] * w])


# acceptance is ~1.9% on genus2 and ~15% on the torus: both counts need
# several 8192-candidate blocks
@pytest.mark.parametrize("name, count", [("genus2", 1000), ("torus", 5000)])
def test_sampler_streams_match_full_polygon_test(request, name, count):
    model = request.getfixturevalue(name)
    kv = model.klein_polygon()
    p, theta = chain_mod._rejection_positions(model, count, np.random.default_rng(3))
    r_max2 = float(np.max(np.sum(kv * kv, axis=1)))
    ref, ref_theta = reference_positions(model, count, np.random.default_rng(3), r_max2)
    assert np.array_equal(p, hyperboloid(ref))
    assert np.array_equal(theta, ref_theta)
    # the net's sampler draws the same candidates, but no angles
    got = net_mod._uniform_polygon_points(model, count, np.random.default_rng(3))
    ref, _ = reference_positions(model, count, np.random.default_rng(3), r_max2, False)
    assert np.array_equal(got, hyperboloid(ref))


def test_haar_bases_lie_in_polygon(torus):
    pts = np.concatenate([m[:, :, 0] for m in haar_sample(torus, 2000, seed=8)])
    assert torus.point_in_polygon(to_klein(pts) * (1 - 1e-9)).all()


def test_haar_rotation_part_is_uniform(torus):
    """Frame angles against the transported base frame, chi-square at 1e-3."""
    n = 30_000
    angs = np.empty(n)
    jm = np.diag(J)
    for i, m in enumerate(np.concatenate(list(haar_sample(torus, n, seed=6)))):
        t = transport_from_origin(m[:, 0])
        r = jm @ t.T @ jm @ m
        angs[i] = math.atan2(r[2, 1], r[1, 1])
    counts, _ = np.histogram(angs, bins=36, range=(-math.pi, math.pi))
    expected = n / 36.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < stats.chi2.ppf(1.0 - 1e-3, 35)


def test_haar_normalization_disk_mass(genus2):
    # counting samples with the base inside a radius-1 disk estimates the
    # disk's hyperbolic area under the stated normalization
    n = 60_000
    limit = math.cosh(1.0)
    hits = sum(int((m[:, :, 0][:, 0] <= limit).sum()) for m in haar_sample(genus2, n, seed=1789))
    p = hits / n
    est = genus2.exact_area * p
    sigma = genus2.exact_area * math.sqrt(p * (1.0 - p) / n)
    assert abs(est - oracles.disk_mass(1.0)) <= 3.0 * sigma


# --- chain accumulation -----------------------------------------------------


def test_accumulate_guards(genus2, genus2_net):
    net, _ = genus2_net
    with pytest.raises(ValueError):
        accumulate_chain(genus2, net, 0.5, 10)
    with pytest.raises(ValueError):
        accumulate_chain(genus2, net, 6.0, 0)


def test_closed_model_retains_everything(genus2, genus2_net):
    net, _ = genus2_net
    chain = accumulate_chain(genus2, net, 4.0, 3000, seed=11)
    bp, bm, cls, area = chain.counts()
    assert chain.discarded == {1: 0, -1: 0}
    assert int(bp.sum()) == 3000 and int(bm.sum()) == 3000
    assert (cls == 1).all()  # closed model: every cell simplex is interior
    keys = chain.key_array()
    assert keys.shape == (len(chain), 15)
    assert len(np.unique(keys, axis=0)) == len(chain)  # keys are unique rows


def test_boundary_model_partitions_samples(torus, torus_net):
    net, _ = torus_net
    chain = accumulate_chain(torus, net, 4.0, 3000, seed=12)
    bp, bm, cls, _ = chain.counts()
    assert int(bp.sum()) + chain.discarded[1] == 3000
    assert int(bm.sum()) + chain.discarded[-1] == 3000
    # the reflected family hangs past the shared-face geodesic, so it is the
    # one that falls into funnels wholesale
    assert chain.discarded[-1] > 0
    assert set(np.unique(cls).tolist()) <= {1, 2}  # int or ext, never discard


def test_key_vertex_geometry(torus, torus_net):
    # snapped vertices stay within 1 of an isometric regular simplex, so
    # edges lie within [L-2, L+2]
    net, _ = torus_net
    L = 4.0
    chain = accumulate_chain(torus, net, L, 1500, seed=13)
    # replay the chain's shards: the snapped vertices of every retained
    # simplex, whose rows make up exactly the chain's keys
    verts, rows = [], []
    for mats in haar_sample(torus, 1500, seed=13):
        for q in chain_mod._mirror_pair(L):
            ctok, em, pos3, outside = chain_mod._cells(torus, net, chain.lines, mats, q, len(mats))
            kept = chain_mod._classify(outside) != chain_mod.CLASS_DISCARD
            verts.append(pos3[kept])
            rows.append(chain_mod._key_rows(ctok, em)[:, kept].T)
    assert len(np.unique(np.concatenate(rows), axis=0)) == len(chain)
    v = np.concatenate(verts)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        c = -np.einsum("kj,j,kj->k", v[:, i], J, v[:, j])
        d = np.arccosh(np.maximum(1.0, c))
        assert np.all(d <= L + 2.0 * net.covering_radius + 1e-9)
        assert np.all(d >= L - 2.0 * net.covering_radius - 1e-9)


def test_entry_count_stable_across_seeds(genus2, genus2_net):
    net, _ = genus2_net
    k = [
        len(accumulate_chain(genus2, net, 4.0, 40_000, seed=s))
        for s in (1789, 40)
    ]
    assert abs(k[0] - k[1]) <= 0.1 * max(k)


def test_chain_determinism(genus2, genus2_net):
    net, _ = genus2_net
    a = accumulate_chain(genus2, net, 4.0, 5000, seed=17)
    b = accumulate_chain(genus2, net, 4.0, 5000, seed=17)
    assert np.array_equal(a.key_array(), b.key_array())
    assert a.counts()[0].tolist() == b.counts()[0].tolist()
    assert a.u_sum == b.u_sum


# --- single-sample structure ------------------------------------------------


def test_single_sample_boundary_structure(genus2, genus2_net):
    """One frame deposits two mirror simplices; the shared face cancels
    exactly and the four remaining faces carry unit deposits."""
    net, _ = genus2_net
    chain = accumulate_chain(genus2, net, 6.0, 1, seed=4)
    assert len(chain) == 2
    res = boundary_residuals(chain)
    assert len(res) == 5
    residual, total = res.residual.tolist(), res.total.tolist()
    signed = sorted(round(r / chain.scale, 12) for r in residual)
    assert signed == [-0.5, -0.5, 0.0, 0.5, 0.5]
    assert sorted(total) == [1, 1, 1, 1, 2]
    assert sorted(round(z, 12) for z in res.z_score.tolist()) == [-1.0, -1.0, 0.0, 1.0, 1.0]
    shared = [r for r, t in zip(residual, total) if t == 2][0]
    assert shared == 0.0
    assert abs(sum(residual)) < 1e-15


def test_single_sample_ratio_near_reference_area(genus2, genus2_net):
    net, _ = genus2_net
    chain = accumulate_chain(genus2, net, 6.0, 1, seed=4)
    rep = ratio_report(chain)
    # cell snapping moves each vertex at most the covering radius
    assert rep.ratio == pytest.approx(oracles.equilateral_area(6.0), abs=0.1)
    assert rep.ratio <= math.pi
    assert rep.implied_norm_upper == pytest.approx(
        genus2.exact_area * rep.l1_norm / rep.omega, rel=1e-12
    )


def test_single_sample_sandwich_closed_exact(genus2, genus2_net):
    net, _ = genus2_net
    chain = accumulate_chain(genus2, net, 6.0, 1, seed=4)
    ms = measure_sandwich(chain)
    assert ms["plus"] == (pytest.approx(genus2.exact_area, abs=1e-12), 0.0)
    assert ms["minus"] == (pytest.approx(genus2.exact_area, abs=1e-12), 0.0)
    lo, hi = ms["bracket"]
    assert lo == hi == pytest.approx(genus2.exact_area, abs=1e-12)


def test_sandwich_closed_bitwise_at_awkward_count(genus2, genus2_net):
    # on a closed model sigma is 0 and the bracket collapses to the exact
    # area, so the retained mass must equal it bitwise even at counts N
    # where (area / N) * N rounds away from area
    net, _ = genus2_net
    n = 3000
    assert (genus2.exact_area / n) * n != genus2.exact_area
    chain = accumulate_chain(genus2, net, 6.0, n, seed=4)
    ms = measure_sandwich(chain)
    lo, hi = ms["bracket"]
    for mass, sigma in (ms["plus"], ms["minus"]):
        assert sigma == 0.0
        assert lo <= mass <= hi


# --- reports on empty or degenerate chains -----------------------------------


def test_empty_chain_reports(genus2, genus2_net):
    net, _ = genus2_net
    chain = SmearChain(genus2, net, 6.0, 10)
    assert len(boundary_residuals(chain)) == 0
    with pytest.raises(ValueError):
        ratio_report(chain)


def test_ratio_report_rejects_nonpositive_omega(genus2, genus2_net):
    net, _ = genus2_net
    chain = accumulate_chain(genus2, net, 6.0, 50, seed=3)
    chain._bp, chain._bm = chain._bm, chain._bp  # flip orientation tallies
    with pytest.raises(ValueError, match="omega"):
        ratio_report(chain)


# --- ratio statistics ---------------------------------------------------------


def test_ratio_report_moderate_run(genus2, genus2_net):
    net, _ = genus2_net
    chain = accumulate_chain(genus2, net, 6.0, 20_000, seed=19)
    rep = ratio_report(chain)
    assert rep.omega > 0
    assert rep.ratio == rep.omega / rep.l1_norm
    assert rep.ratio <= math.pi + 3.0 * rep.mc_sigma
    assert rep.mc_sigma < 0.01
    assert rep.implied_norm_upper >= 3.8


# --- inclusion and sandwich on the boundary model ----------------------------


def test_inclusion_check_torus_small(torus, torus_net):
    net, _ = torus_net
    chain = accumulate_chain(torus, net, 4.0, 20_000, seed=1789)
    assert chain.violations == 0
    assert chain.violations == oracles.retention_violations_reference(torus, net, 4.0, 20_000, 1789)


@pytest.mark.parametrize("name, L", [("genus2", 6.0), ("torus", 4.0)])
def test_violation_counter_matches_the_two_pass_count_on_a_mutant(
    request, monkeypatch, name, L
):
    # every third interior simplex classed as crossing breaks the deep rule
    # wherever base vertices lie deeper than L + 3, as on a closed model.  On
    # the torus at L = 4 they lie at depths -2.2 to 1.3, where neither rule
    # reads the class, so there the depths are also shifted by -(L + 1)
    model = request.getfixturevalue(name)
    net, _ = request.getfixturevalue(f"{name}_net")
    classify = chain_mod._classify

    def mutant(outside):
        cls = classify(outside)
        cls[np.flatnonzero(cls == chain_mod.CLASS_INT)[::3]] = chain_mod.CLASS_EXT
        return cls

    monkeypatch.setattr(chain_mod, "_classify", mutant)
    if name == "torus":
        depth = type(model).distance_to_boundary
        monkeypatch.setattr(type(model), "distance_to_boundary",
                            lambda self, coords, lines: depth(self, coords, lines) - (L + 1.0))
    chain = accumulate_chain(model, net, L, 2000, seed=1789)
    assert chain.violations > 0
    assert chain.violations == oracles.retention_violations_reference(model, net, L, 2000, 1789)


def test_sandwich_brackets_boundary_model(torus, torus_net):
    net, _ = torus_net
    chain = accumulate_chain(torus, net, 4.0, 20_000, seed=21)
    ms = measure_sandwich(chain)
    lo, hi = ms["bracket"]
    assert lo < hi
    for name in ("plus", "minus"):
        mass, sigma = ms[name]
        assert mass <= torus.exact_area + 1e-12  # retention only removes mass
        assert lo - 3.0 * sigma <= mass <= hi + 3.0 * sigma
