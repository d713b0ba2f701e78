"""The columnar chain store against a direct dict-and-sort reference."""

import math
import tracemalloc

import numpy as np
import pytest

from hypsmear.cli import _residual_summary, main
from hypsmear.hypgeom import lorentz_inverse
from hypsmear.smear import SmearChain, accumulate_chain, boundary_residuals, ratio_report
from hypsmear.smear import chain as chain_mod
from hypsmear.smear import surface as surface_mod
from hypsmear.volume import triangle_areas

J = np.array([-1.0, 1.0, 1.0])
SHARD = 500  # several shards, so keys merge across shards


def reference_chain(model, net, L, samples, seed):
    """Replays the accumulation with np.unique(axis=0) per shard and a dict
    of key tuples; new keys enter in the sorted order of each shard."""
    q_plus, q_minus = chain_mod._mirror_pair(L)
    lines = chain_mod._chain_lines(model, net, L)
    index, bp, bm, cls_of, area, verts, e1s, e2s = {}, [], [], [], [], [], [], []
    for mats in chain_mod.haar_sample(model, samples, seed):
        for sign, q in ((1, q_plus), (-1, q_minus)):
            # one net lookup of one family alone
            ctok, em, pos3, outside = chain_mod._cells(model, net, lines, mats, q, len(mats))
            cls, rows = chain_mod._classify(outside), chain_mod._key_rows(ctok, em).T
            e0inv = lorentz_inverse(em[:, 0])
            kept = np.flatnonzero(cls != chain_mod.CLASS_DISCARD)
            urows, first, counts = np.unique(
                rows[kept], axis=0, return_index=True, return_counts=True
            )
            fresh = []
            for row, f, c in zip(urows.tolist(), first, counts):
                key = tuple(row)
                if key not in index:
                    index[key] = len(index)
                    bp.append(0)
                    bm.append(0)
                    cls_of.append(int(cls[kept[f]]))
                    fresh.append(kept[f])
                (bp if sign > 0 else bm)[index[key]] += int(c)
            if fresh:
                src = np.array(fresh)
                area.extend(triangle_areas(pos3[src]).tolist())
                verts.extend(pos3[src])
                e1s.extend(np.einsum("bij,bjk->bik", e0inv[src], em[src, 1]))
                e2s.extend(np.einsum("bij,bjk->bik", e0inv[src], em[src, 2]))
    return {
        "keys": np.array(list(index), dtype=np.int64).reshape(-1, 15),
        "bp": np.array(bp), "bm": np.array(bm), "cls": np.array(cls_of), "area": np.array(area),
        "verts": verts, "e1": e1s, "e2": e2s, "lines": lines,
    }


def recount_faces(ref) -> dict:
    """Face row -> [signed, total], one key at a time; face j drops vertex j
    and carries the element token of its second center from its first."""
    faces = {}
    for i, k in enumerate(ref["keys"].tolist()):
        e1, e2, v = ref["e1"][i], ref["e2"][i], ref["verts"][i]
        e1inv = np.diag(J) @ e1.T @ np.diag(J)
        tokens = (e1inv @ e2[:, 0], e2[:, 0], e1[:, 0])
        centers = ((k[3:6], k[9:12]), (k[0:3], k[9:12]), (k[0:3], k[3:6]))
        pairs = ((1, 2), (0, 2), (0, 1))
        signed = int(ref["bp"][i] - ref["bm"][i])
        for j in range(3):
            a, b = pairs[j]
            beyond = ((v[a] * J) @ ref["lines"].T >= 0.0) & ((v[b] * J) @ ref["lines"].T >= 0.0)
            if beyond.any():
                continue
            row = tuple(centers[j][0] + centers[j][1] + np.round(tokens[j]).astype(int).tolist())
            acc = faces.setdefault(row, [0, 0])
            acc[0] += -signed if j == 1 else signed
            acc[1] += int(ref["bp"][i] + ref["bm"][i])
    return faces


@pytest.fixture(params=["genus2", "torus"])
def small_case(request, monkeypatch, genus2, genus2_net, torus, torus_net):
    monkeypatch.setattr(chain_mod, "_SHARD", SHARD)
    if request.param == "genus2":
        model, net, L = genus2, genus2_net[0], 6.0
    else:
        model, net, L = torus, torus_net[0], 4.0
    chain = accumulate_chain(model, net, L, 4 * SHARD, seed=21)
    return chain, reference_chain(model, net, L, 4 * SHARD, seed=21)


def test_columns_match_reference(small_case):
    chain, ref = small_case
    bp, bm, cls, area = chain.counts()
    assert np.array_equal(chain.key_array(), ref["keys"])  # same keys, same order
    assert np.array_equal(bp, ref["bp"]) and np.array_equal(bm, ref["bm"])
    assert np.array_equal(cls, ref["cls"])
    assert np.array_equal(area, ref["area"])
    # face j is dropped when its two vertices lie beyond one boundary line
    drop = []
    for v in ref["verts"]:
        beyond = (v * J) @ ref["lines"].T >= 0.0
        drop.append([bool((beyond[a] & beyond[b]).any()) for a, b in ((1, 2), (0, 2), (0, 1))])
    assert np.array_equal(chain._drop[: len(chain)], np.array(drop, dtype=bool).reshape(-1, 3))


def test_face_aggregates_match_recount(small_case):
    chain, ref = small_case
    faces = recount_faces(ref)
    res = boundary_residuals(chain)
    assert len(res) == len(faces)
    got = {tuple(k): (s, t) for k, s, t in zip(res.keys.tolist(), res.residual, res.total)}
    assert got == {
        k: (chain.scale * s / 2.0, t) for k, (s, t) in faces.items()
    }
    expected_z = {k: s / math.sqrt(max(t, 1)) for k, (s, t) in faces.items()}
    assert [expected_z[tuple(k)] for k in res.keys.tolist()] == res.z_score.tolist()
    # descending |z|, ties in face-key order
    order = sorted(faces, key=lambda k: (-abs(expected_z[k]), k))
    assert [tuple(k) for k in res.keys.tolist()] == order


def test_constant_hash_raises_instead_of_merging(monkeypatch, genus2, genus2_net):
    net, _ = genus2_net
    chain = accumulate_chain(genus2, net, 6.0, 200, seed=3)

    def constant(columns):
        return np.zeros(len(next(iter(columns))), dtype=np.uint64)

    monkeypatch.setattr(chain_mod, "_row_hash", constant)
    with pytest.raises(RuntimeError, match="collision"):
        boundary_residuals(chain)
    # one shard into an empty chain: the rows of the shard itself collide
    mats = next(chain_mod.haar_sample(genus2, 200, 3))
    q_plus, _ = chain_mod._mirror_pair(6.0)
    cells = chain_mod._cells(genus2, net, chain.lines, mats, q_plus, len(mats))
    with pytest.raises(RuntimeError, match="collision"):
        SmearChain(genus2, net, 6.0, 200)._absorb(1, np.zeros(len(mats)), *cells)


def test_collision_with_stored_key_raises(monkeypatch, genus2, genus2_net):
    # hashes distinct within one absorb call but reused by the next one
    # exercise the check against keys already stored
    net, _ = genus2_net
    monkeypatch.setattr(
        chain_mod, "_row_hash",
        lambda columns: np.arange(len(next(iter(columns))), dtype=np.uint64),
    )
    with pytest.raises(RuntimeError, match="collision"):
        accumulate_chain(genus2, net, 6.0, 200, seed=3)


def last_index(monkeypatch) -> dict:
    """Records under "index" the hash index as the last _absorb leaves it;
    accumulate_chain drops it before it returns."""
    seen, absorb = {}, SmearChain._absorb

    def recording_absorb(self, *args):
        areas = absorb(self, *args)
        seen["index"] = self._index
        return areas

    monkeypatch.setattr(SmearChain, "_absorb", recording_absorb)
    return seen


def test_store_bytes_per_key_within_budget(monkeypatch, genus2, genus2_net):
    # every per-key column plus the hash index (sorted hashes and key
    # indices), counted on the arrays a chain actually allocates
    net, _ = genus2_net
    seen = last_index(monkeypatch)
    chain = accumulate_chain(genus2, net, 6.0, 500, seed=3)
    assert chain._index is None
    capacity = len(chain._bp)
    per_key = sum(getattr(chain, name).nbytes for name in chain_mod._COLUMNS) / capacity
    per_key += sum(a.nbytes for run in (seen["index"].main, seen["index"].recent)
                   for a in run) / len(chain)
    assert per_key <= 120
    assert chain.key_array().dtype == np.int32


def test_store_is_reserved_once(monkeypatch, genus2, genus2_net):
    # each frame adds at most one key per family: the columns reserved at
    # construction hold the whole run, never reallocated
    net, _ = genus2_net
    reserved, init = {}, SmearChain.__init__

    def recording_init(self, *args):
        init(self, *args)
        reserved.update({name: getattr(self, name) for name in chain_mod._COLUMNS})

    monkeypatch.setattr(SmearChain, "__init__", recording_init)
    chain = accumulate_chain(genus2, net, 6.0, 500, seed=3)
    assert set(reserved) == set(chain_mod._COLUMNS)
    for name, column in reserved.items():
        assert getattr(chain, name) is column
        assert len(column) == 2 * 500


@pytest.mark.parametrize("name, L", [("genus2", 6.0), ("torus", 4.0)])
def test_hash_index_sorts_the_stored_keys(request, monkeypatch, name, L):
    # after several shards the index holds each key's hash once, each run
    # in ascending order, next to the key it hashes
    model = request.getfixturevalue(name)
    net = request.getfixturevalue(f"{name}_net")[0]
    monkeypatch.setattr(chain_mod, "_SHARD", SHARD)
    seen = last_index(monkeypatch)
    chain = accumulate_chain(model, net, L, 4 * SHARD, seed=13)
    runs = seen["index"].main, seen["index"].recent
    h, perm = (np.concatenate(col) for col in zip(*runs))
    assert len(chain) > 0 and all(np.all(hs[1:] > hs[:-1]) for hs, _ in runs)
    assert len(np.unique(h)) == len(h)
    assert np.array_equal(np.sort(perm), np.arange(len(chain)))
    assert np.array_equal(h, chain_mod._row_hash(chain._keys[perm, :15].T))
    assert len(runs[1][0]) * chain_mod._RECENT_SHARE <= len(runs[0][0])


def test_hash_index_finds_every_stored_hash():
    # batches of new hashes fill the recent run and merge into the main one
    rng = np.random.default_rng(5)
    index, stored, merges = chain_mod._HashIndex(), np.empty(0, np.uint64), 0
    for size in (40, 3, 3, 3, 3, 3, 60, 1, 2, 5, 7, 9):
        h = np.unique(rng.integers(0, 2**64, 3 * size, dtype=np.uint64, endpoint=False))
        new = np.setdiff1d(h, stored)[:size]
        before = len(index.main[0])
        index.add(new, np.arange(len(stored), len(stored) + len(new)))
        merges += len(index.main[0]) > before
        stored = np.concatenate([stored, new])
        assert len(index.recent[0]) * chain_mod._RECENT_SHARE <= len(index.main[0])
        probe = np.concatenate([stored, rng.integers(0, 2**64, 50, dtype=np.uint64)])
        order = np.argsort(probe)
        want = np.concatenate([np.arange(len(stored)), np.full(50, -1)])
        assert np.array_equal(index.find(probe[order]), want[order])
    assert merges > 1 and len(index.recent[0]) > 0


def test_refused_reservation_exits_1(monkeypatch, capsys):
    # numpy, except that every zeros() inside the chain module fails the way
    # an allocation the OS refuses does; nothing large is ever requested
    class RefusingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def zeros(*args, **kwargs):
            raise MemoryError("refused")

    monkeypatch.setattr(chain_mod, "np", RefusingNumpy())
    code = main(["smear", "run", "--model", "genus2", "--edge", "6.0", "--samples", "200"])
    assert code == 1
    assert "cannot reserve the chain store" in capsys.readouterr().err


def test_chain_beyond_physical_memory_is_refused_before_sampling(monkeypatch, capsys, tmp_path):
    # 200,000 samples may need 2 rows of _KEY_BYTES = 116 each per sample,
    # 46 MB, against a probe that reports 10 MB; nothing is allocated or drawn
    def no_sampling(*args, **kwargs):
        raise AssertionError("frames were sampled before the store was checked")

    monkeypatch.setattr(chain_mod, "_physical_memory", lambda: 10**7)
    monkeypatch.setattr(chain_mod, "_rejection_positions", no_sampling)
    out = tmp_path / "run.json"
    for command in ("run", "check"):
        code = main(["smear", command, "--model", "holed_torus", "--edge", "4.0",
                     "--samples", "200000", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and not out.exists()
        assert "200000 samples may need 46 MB, more than the 10 MB of physical memory" in err


def test_chain_beyond_int32_is_refused_before_sampling(monkeypatch, capsys, tmp_path):
    # 2**30 samples may hold 2**31 keys, one past the int32 tallies and key
    # indices; with no memory probe to refuse the run, the int32 check does,
    # before anything is allocated or drawn
    def no_sampling(*args, **kwargs):
        raise AssertionError("frames were sampled before the int32 limit was checked")

    monkeypatch.setattr(chain_mod, "_physical_memory", lambda: None)
    monkeypatch.setattr(chain_mod, "_rejection_positions", no_sampling)
    out = tmp_path / "run.json"
    for command in ("run", "check"):
        code = main(["smear", command, "--model", "genus2", "--edge", "6.0",
                     "--samples", str(2**30), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and not out.exists()
        assert f"may hold {2**31} keys, beyond the int32 limit {2**31 - 1}" in err


@pytest.mark.parametrize("name, L", [("genus2", 6.0), ("torus", 4.0)])
def test_triangle_areas_match_einsum_gram(request, name, L):
    # reference: the angles from the full einsum Gram matrix
    model = request.getfixturevalue(name)
    mats = next(chain_mod.haar_sample(model, 2000, 5))
    verts = np.concatenate([chain_mod._vertex_images(mats, q) for q in chain_mod._mirror_pair(L)])
    g = np.einsum("kvi,i,kwi->kvw", verts, J, verts)
    angles = np.zeros(len(verts))
    for v, p, q in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        den2 = (g[:, v, p] ** 2 - 1.0) * (g[:, v, q] ** 2 - 1.0)
        cosang = (g[:, p, q] + g[:, v, p] * g[:, v, q]) / np.sqrt(np.maximum(den2, 1e-24))
        angles += np.arccos(np.clip(cosang, -1.0, 1.0))
    expected = np.abs(math.pi - angles) * np.sign(np.linalg.det(verts))
    areas = triangle_areas(verts)
    assert areas.tobytes() == expected.tobytes()
    # a row's bits do not depend on the batch it comes in
    for size in (1, 3, 17):
        chunks = [triangle_areas(verts[i:i + size]) for i in range(0, len(verts), size)]
        assert np.concatenate(chunks).tobytes() == areas.tobytes()
    # an odd vertex permutation flips the sign
    assert triangle_areas(verts[:, [1, 0, 2]]).tobytes() == (-areas).tobytes()


def test_token_beyond_int32_raises_instead_of_wrapping(monkeypatch, capsys, genus2, genus2_net):
    # a finer element grid blows every element token past 2**31
    net, _ = genus2_net
    monkeypatch.setattr(chain_mod, "ELEMENT_TOKEN_GRID", 1e-12)
    with pytest.raises(RuntimeError, match="int32"):
        accumulate_chain(genus2, net, 6.0, 200, seed=3)
    code = main(["smear", "run", "--model", "genus2", "--edge", "6.0", "--samples", "200"])
    assert code == 1
    assert "int32" in capsys.readouterr().err


@pytest.mark.parametrize("L", [4.0, 6.0])
def test_mirror_pair_shares_two_vertices_bitwise(L):
    q_plus, q_minus = chain_mod._mirror_pair(L)
    assert np.array_equal(q_minus[:2].view(np.uint64), q_plus[:2].view(np.uint64))
    for v in q_plus[:2]:
        d = math.acosh(-float(np.sum(q_minus[2] * J * v)))
        assert d == pytest.approx(L, abs=1e-12)
    # the mirror copy has the opposite orientation
    assert np.linalg.det(q_plus) * np.linalg.det(q_minus) < 0.0


@pytest.mark.parametrize("name, L", [("genus2", 6.0), ("torus", 4.0)])
def test_shard_families_match_single_family_reference(request, monkeypatch, name, L):
    """Sharing the cells of vertices 0 and 1 and looking cells up a lookup
    block of frames at a time gives each family the cells of one _cells
    lookup of that family alone, bit for bit, funnel-side flags included,
    and four net lookups per frame instead of six."""
    model = request.getfixturevalue(name)
    net = request.getfixturevalue(f"{name}_net")[0]
    monkeypatch.setattr(chain_mod, "_SHARD", SHARD)
    # several lookup blocks per shard, the last one short, and several
    # pairing chunks per lookup
    monkeypatch.setattr(chain_mod, "_LOOKUP_BLOCK", 128)
    monkeypatch.setattr(surface_mod, "PAIRING_BLOCK", 32)
    lines = chain_mod._chain_lines(model, net, L)
    q_plus, q_minus = chain_mod._mirror_pair(L)
    assigned, assign = [], net.assign

    def counting_assign(m, coords, ls):
        assigned.append(len(coords))
        return assign(m, coords, ls)

    monkeypatch.setattr(net, "assign", counting_assign)
    classes = []
    for mats in chain_mod.haar_sample(model, 3 * SHARD, 31):
        del assigned[:]
        fams = list(chain_mod._shard_families(model, net, lines, mats, q_plus, q_minus))
        assert sum(assigned) == 4 * len(mats) and max(assigned) <= 3 * 128
        for (sign, fam), q in zip(fams, (q_plus, q_minus)):
            ref = chain_mod._cells(model, net, lines, mats, q, len(mats))
            assert len(fam) == len(ref) == 4
            for got, want in zip(fam, ref):
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()
            classes.append(chain_mod._classify(ref[3]))
        # the families share vertices 0 and 1, hence their key tokens
        rows = [chain_mod._key_rows(fam[0], fam[1]) for _, fam in fams]
        assert np.array_equal(rows[0][:9], rows[1][:9])
    if name == "torus":
        # the funnel paths are exercised: discards, crossings and interiors
        assert set(np.concatenate(classes).tolist()) == {0, 1, 2}


@pytest.mark.parametrize("name, L", [("genus2", 6.0), ("torus", 4.0)])
def test_faces_are_two_vertex_keys(request, name, L):
    """A face is keyed as a cell simplex of its two vertices: _key_rows of
    vertices (0, 1) and (0, 2) gives the key columns of faces 2 and 1, and of
    (1, 2), for the sample a key was stored from, its stored face 0."""
    model = request.getfixturevalue(name)
    net = request.getfixturevalue(f"{name}_net")[0]
    mats = next(chain_mod.haar_sample(model, 2000, 41))
    chain = SmearChain(model, net, L, len(mats))
    for sign, q in zip((1, -1), chain_mod._mirror_pair(L)):
        ctok, em, pos3, outside = chain_mod._cells(model, net, chain.lines, mats, q, len(mats))
        rows = chain_mod._key_rows(ctok, em)
        for j, pair in ((2, [0, 1]), (1, [0, 2])):
            face = chain_mod._key_rows(ctok[:, pair], em[:, pair])
            cols = rows[chain_mod._FACES[j]]
            assert face.dtype == cols.dtype and face.tobytes() == cols.tobytes()
        n0 = len(chain)
        chain._absorb(sign, np.zeros(len(mats)), ctok, em, pos3, outside)
        # a new key is stored from the lowest kept sample carrying it
        src = {}
        for i in np.flatnonzero(chain_mod._classify(outside) != chain_mod.CLASS_DISCARD):
            src.setdefault(tuple(rows[:, i].tolist()), i)
        new = chain._keys[n0 : len(chain)]
        s = np.array([src[tuple(k)] for k in new[:, :15].tolist()], dtype=int)
        assert s.size and np.array_equal(
            chain_mod._key_rows(ctok[s, 1:], em[s, 1:]).T, new[:, chain_mod._FACES[0]])


def traced_peak(work) -> int:
    """Peak bytes numpy and Python allocate while `work()` runs, above the
    allocations alive when it starts."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        work()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("lines", [0, 5, 8, 60])
def test_packed_flags_match_the_boolean_rule(lines):
    """_classify and _dropped_faces on flags packed along the line axis give
    what the rule gives on the boolean (b, 3, lines) flags."""
    rng = np.random.default_rng(lines)
    # sparse, even and dense rows, so every class and drop pattern occurs
    beyond = rng.random((3000, 3, lines)) < rng.choice([0.03, 0.5, 0.97], size=(3000, 1, 1))
    packed = np.packbits(beyond, axis=-1)
    assert packed.shape == (3000, 3, -(-lines // 8))
    want = np.full(3000, chain_mod.CLASS_EXT, dtype=np.int8)
    want[beyond.all(axis=1).any(axis=1)] = chain_mod.CLASS_DISCARD
    want[~beyond.any(axis=(1, 2))] = chain_mod.CLASS_INT
    got = chain_mod._classify(packed)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    drop = np.stack([(beyond[:, a] & beyond[:, b]).any(axis=1)
                     for a, b in ((1, 2), (0, 2), (0, 1))], axis=1)
    assert np.array_equal(chain_mod._dropped_faces(packed), drop)
    if lines >= 8:
        assert set(got.tolist()) == {0, 1, 2} and drop.any() and not drop.all()


@pytest.mark.parametrize("name, L", [("genus2", 6.0), ("torus", 4.0)])
def test_bucketed_residuals_match_one_pass(request, monkeypatch, name, L):
    """Numbering the faces one hash-prefix bucket at a time gives the bytes
    of one pass over all faces (a single bucket)."""
    model = request.getfixturevalue(name)
    net = request.getfixturevalue(f"{name}_net")[0]
    chain = accumulate_chain(model, net, L, 20_000, seed=7)
    results = []
    for buckets in (1, 64):
        monkeypatch.setattr(chain_mod, "_FACE_BUCKETS", buckets)
        results.append(boundary_residuals(chain))
    one, bucketed = results
    assert len(one) > 1000
    for field in ("keys", "residual", "z_score", "total"):
        a, b = getattr(one, field), getattr(bucketed, field)
        assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes()
    if name == "torus":
        assert chain._drop[: len(chain)].any()  # dropped faces go to no bucket


def test_shard_memory_within_budget(torus, torus_net):
    """One full torus shard, both families looked up and absorbed, allocates
    temporaries bounded by the lookup block: 26.5 MB traced with numpy 2.4,
    against 57.3 MB when they scaled with the shard; budget 38 MB."""
    net = torus_net[0]
    q_plus, q_minus = chain_mod._mirror_pair(4.0)
    chain = SmearChain(torus, net, 4.0, chain_mod._SHARD)  # reserved before tracing
    mats = next(chain_mod.haar_sample(torus, chain_mod._SHARD, 1789))
    assert len(mats) == chain_mod._SHARD

    def shard():
        depth = torus.distance_to_boundary(chain_mod._vertex_images(mats, q_plus[:1])[:, 0],
                                           chain.lines)
        for sign, cells in chain_mod._shard_families(torus, net, chain.lines, mats, q_plus, q_minus):
            chain._absorb(sign, depth, *cells)
            del cells

    assert traced_peak(shard) <= 38e6
    assert len(chain) > 0


def test_residuals_memory_within_budget(bolza_run):
    """boundary_residuals of the 1M-sample genus-2 chain allocates one
    bucket's temporaries plus its output: 40.9 MB traced with numpy 2.4,
    against 139.2 MB for one pass over all faces; budget 50 MB."""
    chain, _ = bolza_run
    assert traced_peak(lambda: boundary_residuals(chain)) <= 50e6


def test_smear_run_report_peaks_no_higher_than_the_residuals(bolza_run):
    """The report of the 1M-sample genus-2 chain in smear run's order, the
    ratio and then the residuals' summary, peaks no higher than
    boundary_residuals alone: the face columns and the ratio's temporaries
    are never alive together.  The residuals with their summary and then the
    ratio peak at 42.3 MB, against 40.9 MB, traced with numpy 2.4."""
    chain, _ = bolza_run

    def report():
        ratio_report(chain)
        _residual_summary(boundary_residuals(chain))

    report()  # untraced, so first-call allocations count in neither peak
    assert traced_peak(report) <= traced_peak(lambda: boundary_residuals(chain))


def test_lex_order_matches_lexsort_on_adversarial_rows():
    # extreme and negative tokens, distinct rows that differ only in the last
    # column, and repeated rows, whose ties a stable sort keeps in row order
    lo, hi = np.iinfo(np.int32).min, np.iinfo(np.int32).max
    edge = np.array([lo, lo + 1, -65536, -256, -255, -1, 0, 1, 255, 256, 65536, hi - 1, hi],
                    np.int32)
    rng = np.random.default_rng(7)
    rows = rng.choice(edge, (2000, 15))
    twins = np.repeat(rows[:50], len(edge), axis=0)
    twins[:, -1] = np.tile(edge, 50)
    rows = np.concatenate([rows, twins, rows[:20]])
    rows = rows[rng.permutation(len(rows))]
    assert rows.dtype == np.int32
    assert np.array_equal(chain_mod._lex_order(rows), np.lexsort(rows.T[::-1]))


@pytest.mark.parametrize("name, L", [("genus2", 6.0), ("torus", 4.0)])
def test_lex_order_matches_lexsort_on_a_shard(request, name, L):
    # a shard's distinct key rows, in the hash order _number_rows gives them,
    # and the order an empty chain stores them in
    model = request.getfixturevalue(name)
    net = request.getfixturevalue(f"{name}_net")[0]
    mats = next(chain_mod.haar_sample(model, 3000, 17))
    chain = SmearChain(model, net, L, len(mats))
    ctok, em, pos3, outside = chain_mod._cells(model, net, chain.lines, mats,
                                               chain_mod._mirror_pair(L)[0], len(mats))
    kept = np.flatnonzero(chain_mod._classify(outside) != chain_mod.CLASS_DISCARD)
    krows = chain_mod._key_rows(ctok, em).take(kept, axis=1)
    urows = chain_mod._number_rows(chain_mod._row_hash(krows), krows)[2]
    lex = np.lexsort(urows.T[::-1])
    assert np.array_equal(chain_mod._lex_order(urows), lex)
    chain._absorb(1, np.zeros(len(mats)), ctok, em, pos3, outside)
    assert np.array_equal(chain.key_array(), urows[lex])


@pytest.mark.parametrize("name, L", [("genus2", 6.0), ("torus", 4.0)])
def test_element_tokens_match_the_formed_inverse(request, name, L):
    # J's signs folded into the operands give the tokens of e0^-1 e_i o with
    # the inverse formed, for the key rows and for face 0's token
    model = request.getfixturevalue(name)
    net = request.getfixturevalue(f"{name}_net")[0]
    mats = next(chain_mod.haar_sample(model, 3000, 23))
    lines = chain_mod._chain_lines(model, net, L)
    for q in chain_mod._mirror_pair(L):
        em = chain_mod._cells(model, net, lines, mats, q, len(mats))[1]
        for a, b in ((0, 1), (0, 2), (1, 2)):
            t = np.einsum("bij,bj->bi", lorentz_inverse(em[:, a]), em[:, b, :, 0])
            want = np.round(t / chain_mod.ELEMENT_TOKEN_GRID).astype(np.int64)
            got = chain_mod._element_tokens(em[:, a], em[:, b, :, 0])
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
