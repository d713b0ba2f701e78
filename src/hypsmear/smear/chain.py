"""Monte-Carlo accumulation of smeared simplicial chains on a surface.

Frames are sampled from the isometry group so that the induced measure on
the quotient assigns each base region its hyperbolic area and the rotation
fiber carries total mass one.  Each sampled frame g contributes two
simplices: the image of a fixed regular triangle of side L and the image of
its mirror copy.  Vertices are snapped to net cells, the resulting cell
simplex is canonicalized to an integer key invariant under the surface
group, and per-key tallies of +/- hits build the chain

    a_sigma = scale * (b_plus - b_minus) / 2,   scale = area / samples.

The two simplices of a frame share their first two vertices bit for bit, so
each shard snaps those to cells once for both families, and the shared
face cancels by construction.

Keys pack, per vertex, the quantized orbit representative of the cell
center and the quantized orbit point of the group element carrying the
representative to the actual center, normalized so the first vertex's
element is the identity.  Quantization grids sit orders of magnitude above
the measured float noise and below the minimal separations, so equal keys
mean equal cell simplices and conversely.

The same pass counts the samples that break the retention rules near the
boundary: a simplex whose base vertex lies deeper than L + 3 must be fully
interior, and a kept simplex must have its base vertex within depth L of
the surface.

The chain is a set of numpy columns, one row per key in first-seen order
(new keys of one shard in signed-lexicographic order), reserved once at
2 * samples rows and committed page by page as keys are written.  Keys and
faces merge through an exact 64-bit row hash; every hash match is checked
against the full rows, so a collision raises instead of merging distinct keys.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from hypsmear.hypgeom import from_klein_rows, mink_diag, renormalize_rows
from hypsmear.smear.net import GammaNet
from hypsmear.smear.surface import PAIRING_BLOCK, SurfaceModel
from hypsmear.volume import regular_simplex, triangle_areas

__all__ = [
    "SmearChain",
    "RatioReport",
    "FaceResiduals",
    "haar_sample",
    "accumulate_chain",
    "boundary_residuals",
    "ratio_report",
    "measure_sandwich",
]

_SHARD = 32768
# frames per net lookup, a multiple of surface.PAIRING_BLOCK.  On a torus
# shard the absorb step then sets the traced peak (27.8 MB with numpy 2.4);
# 16384 frames lift it to 43 MB, and 1024 to 4096 frames are slower and no
# lower in RSS
_LOOKUP_BLOCK = 8192
_J = mink_diag(2)

CLASS_DISCARD = 0
CLASS_INT = 1
CLASS_EXT = 2


# --- sampling ---------------------------------------------------------------


def _rejection_positions(model: SurfaceModel, count: int, rng) -> tuple:
    """Area-uniform base points of the fundamental polygon plus uniform
    rotation angles, one angle drawn after each candidate block for every
    candidate, so the accepted stream depends only on the rng state, never
    on block sizes."""
    pts, angs = [], []
    for u, keep in model.area_uniform_candidates(count, rng):
        theta = rng.random(len(u)) * (2.0 * math.pi)
        pts.append(u[keep])
        angs.append(theta[keep])
    return from_klein_rows(np.concatenate(pts)[:count]), np.concatenate(angs)[:count]


def _frame_matrices(p: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Isometries T_p R(theta): rotate the reference frame, transport to p."""
    n = len(p)
    t = np.zeros((n, 3, 3))
    d = 1.0 + p[:, 0]
    t[:, 0, 0] = p[:, 0]
    t[:, 0, 1] = t[:, 1, 0] = p[:, 1]
    t[:, 0, 2] = t[:, 2, 0] = p[:, 2]
    t[:, 1, 1] = 1.0 + p[:, 1] ** 2 / d
    t[:, 2, 2] = 1.0 + p[:, 2] ** 2 / d
    t[:, 1, 2] = t[:, 2, 1] = p[:, 1] * p[:, 2] / d
    c, s = np.cos(theta), np.sin(theta)
    r = np.zeros((n, 3, 3))
    r[:, 0, 0] = 1.0
    r[:, 1, 1] = c
    r[:, 1, 2] = -s
    r[:, 2, 1] = s
    r[:, 2, 2] = c
    return np.einsum("bij,bjk->bik", t, r)


def haar_sample(model: SurfaceModel, samples: int, seed: int) -> Iterator[np.ndarray]:
    """Frames distributed by the group's Haar measure, normalized so
    Monte-Carlo masses scale by exact_area/samples: one (count, 3, 3) block
    of frame matrices per shard of at most _SHARD samples, base point in
    column 0 and tangents in columns 1-2.  Shard s draws from the generator
    seeded [seed, s], so a longer stream extends a shorter one."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    return (
        _frame_matrices(*_rejection_positions(
            model, min(_SHARD, samples - start), np.random.default_rng([seed, shard])))
        for shard, start in enumerate(range(0, samples, _SHARD))
    )


# --- geometry helpers -------------------------------------------------------


def _classify(outside: np.ndarray) -> np.ndarray:
    """0 = image misses the surface interior (all vertices beyond one common
    boundary line), 1 = all vertices strictly inside, 2 = crossing; from the
    vertices' funnel-side flags as _cells packs them, (b, 3, bytes)."""
    discard = np.bitwise_and.reduce(outside, axis=1).any(axis=1)
    interior = ~outside.any(axis=(1, 2))
    out = np.full(len(outside), CLASS_EXT, dtype=np.int8)
    out[discard] = CLASS_DISCARD
    out[interior] = CLASS_INT
    return out


def _dropped_faces(outside: np.ndarray) -> np.ndarray:
    """(b, 3) flags of the faces dropped from the boundary, face j dropping
    vertex j: both its vertices beyond one common boundary line; from the
    same packed flags as _classify."""
    return np.stack([(outside[:, a] & outside[:, b]).any(axis=1)
                     for a, b in ((1, 2), (0, 2), (0, 1))], axis=1)


# quantization grid of element tokens: orbit points lie >= sqrt(2 cosh(systole) - 2)
# > 4 apart, which dwarfs the float noise of reduction, measured at ~1e-8
ELEMENT_TOKEN_GRID = 1.0


def _element_tokens(e0: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(b, 3) int64 tokens round(e0^-1 v / grid) of (b, 3, 3) elements e0 and
    (b, 3) points v.  e0^-1 = J e0^T J: the signs of J go on v and on the
    result instead of into a formed inverse, which gives the same bits, since
    a sign moves exactly through a product and a sum."""
    t = np.einsum("bji,bj->bi", e0, v * _J) * _J
    return np.round(t / ELEMENT_TOKEN_GRID).astype(np.int64)


def _key_rows(ctok: np.ndarray, emat: np.ndarray) -> np.ndarray:
    """Canonical integer keys of the cell simplices with the (b, k, 3) center
    tokens and (b, k, 3, 3) elements of _cells, k >= 2, as (6k - 3, b) int32
    columns: c0, then per vertex i >= 1 its center token ci and the element
    token t_i = round(e0^-1 e_i o / grid).  A face is the key of its two
    vertices.  A token beyond int32 raises (_as_int32)."""
    out = np.empty((6 * ctok.shape[1] - 3, len(ctok)), np.int64)
    out[:3] = ctok[:, 0].T
    for i in range(1, ctok.shape[1]):
        out[6 * i - 3 : 6 * i] = ctok[:, i].T
        out[6 * i : 6 * i + 3] = _element_tokens(emat[:, 0], emat[:, i, :, 0]).T
    return _as_int32(out)


def _vertex_images(mats: np.ndarray, qverts: np.ndarray) -> np.ndarray:
    """(b, k, 3) images of k reference vertices under each frame."""
    return renormalize_rows(np.einsum("bij,vj->bvi", mats, qverts))


def _cells(model, net, lines, mats, qverts, block: int) -> list:
    """Net cells of the images of k reference vertices under (b, 3, 3)
    frames, looked up `block` frames at a time: center tokens (b, k, 3),
    elements (b, k, 3, 3), center positions (b, k, 3) and the centers'
    funnel-side flags, bit-packed along the line axis (np.packbits) into
    (b, k, ceil(lines / 8)) bytes.  The flags are signs of BLAS pairings
    with the J-folded line polars, which is exact enough for a sign test."""
    b, k = len(mats), len(qverts)
    out = [np.empty((b, k, 3), np.int64), np.empty((b, k, 3, 3)), np.empty((b, k, 3)),
           np.empty((b, k, -(-len(lines) // 8)), np.uint8)]
    for s in range(0, b, block):
        cells = net.assign(model, _vertex_images(mats[s : s + block], qverts).reshape(-1, 3), lines)
        for col, cell in zip(out, cells):
            col[s : s + block] = cell.reshape(-1, *col.shape[1:])
        del cells
    pos, flags, jlines_t = out[2].reshape(-1, 3), out[3].reshape(b * k, -1), (lines * _J).T
    for s in range(0, b * k, PAIRING_BLOCK):
        flags[s : s + PAIRING_BLOCK] = np.packbits(pos[s : s + PAIRING_BLOCK] @ jlines_t >= 0.0, axis=-1)
    return out


def _shard_families(model, net, lines, mats, q_plus, q_minus) -> Iterator[tuple]:
    """Both simplex families of one shard as (sign, _cells arrays), each
    bit-equal to one _cells lookup of that family alone.

    _mirror_pair makes vertices 0 and 1 of the two families the same bits,
    so the minus family takes their cells from the plus family and assigns
    only its vertex 2: four net lookups per frame instead of six.  A lookup
    of _LOOKUP_BLOCK frames makes whole pairing chunks of pairing_argmax,
    which pair the rows of the one-lookup reference.
    """
    cells = _cells(model, net, lines, mats, q_plus, _LOOKUP_BLOCK)
    yield 1, cells
    # only the shared-vertex slices stay alive across the families
    shared = [c[:, :2].copy() for c in cells]
    del cells
    apex = _cells(model, net, lines, mats, q_minus[2:], _LOOKUP_BLOCK)
    minus = [np.concatenate(p, axis=1) for p in zip(shared, apex)]
    # the suspended generator would keep these alive through the minus absorb
    del shared, apex
    yield -1, minus


# --- the chain --------------------------------------------------------------


_HASH_MUL = np.uint64(0x9E3779B97F4A7C15)
_INT32 = np.iinfo(np.int32)
# per-key columns, name -> (row shape, dtype); _keys holds the 15
# key tokens and, in columns 15-17, the element token of face 0, all int32;
# _drop[:, j] flags face j as dropped (both its vertices beyond one line)
_COLUMNS = {"_keys": ((18,), np.int32), "_bp": ((), np.int64), "_bm": ((), np.int64),
            "_cls": ((), np.int8), "_area": ((), float), "_drop": ((3,), bool)}
# most bytes one key costs: its columns, its hash-index entries (uint64 hash,
# int64 key index) and 16 that cover a merge of _HashIndex's runs, which
# holds one copied index column, np.insert's bool mask and the recent run
# (at most 1/_RECENT_SHARE of the main run): 8 + 1 + 2 bytes
_KEY_BYTES = sum(np.dtype(dt).itemsize * math.prod(shape) for shape, dt in _COLUMNS.values()) + 32
# _HashIndex merges its recent run into the main run once the recent one
# holds more than 1/_RECENT_SHARE as many entries
_RECENT_SHARE = 8
# hash-prefix buckets of boundary_residuals, a power of two up to 128
_FACE_BUCKETS = 64
# face j drops vertex j: the _keys columns holding _key_rows of its two
# vertices, i.e. their center tokens and the second one's element token
_FACES = np.array([[3, 4, 5, 9, 10, 11, 15, 16, 17],
                   [0, 1, 2, 9, 10, 11, 12, 13, 14],
                   [0, 1, 2, 3, 4, 5, 6, 7, 8]])


def _row_hash(columns) -> np.ndarray:
    """Exact 64-bit hash of integer rows given column by column (wrapping
    multiply-xorshift): equal rows hash equally, distinct rows rarely do.
    Each column enters as its int64 bit pattern, so an int32 copy of a row
    hashes like the int64 original."""
    h = shifted = None
    for col in columns:
        if h is None:
            h, shifted = np.zeros(len(col), np.uint64), np.empty(len(col), np.uint64)
        np.bitwise_xor(h, col, out=h, dtype=np.uint64, casting="unsafe")
        h *= _HASH_MUL
        np.right_shift(h, np.uint64(31), out=shifted)
        h ^= shifted
    return h


def _physical_memory():
    """Bytes of physical memory, or None where the system does not say."""
    try:
        size = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    return size if size > 0 else None  # sysconf gives -1 for an undefined value


def _as_int32(tokens: np.ndarray) -> np.ndarray:
    """Tokens narrowed to the store's int32; raises rather than wrap."""
    if tokens.size and not (_INT32.min <= tokens.min() and tokens.max() <= _INT32.max):
        raise RuntimeError("key token outside the int32 range of the chain store")
    return tokens.astype(np.int32)


def _check_rows(a, b) -> None:
    if not np.array_equal(a, b):
        raise RuntimeError("64-bit hash collision between distinct integer rows")


def _number_rows(h: np.ndarray, columns) -> tuple:
    """Number the distinct integer rows, given column by column, by their
    hashes h: int32 `first` (lowest row of each number, numbers in ascending
    hash order) and `inverse` (row -> number), and the distinct rows.  Every
    column is checked against its run's first row, so a collision raises."""
    order = np.argsort(h)
    h = h[order]  # frees the unsorted hashes when the caller kept no reference
    starts = np.empty(len(h), bool)
    starts[:1] = True
    np.not_equal(h[1:], h[:-1], out=starts[1:])
    del h
    first = np.minimum.reduceat(order, np.flatnonzero(starts)).astype(np.int32)
    inverse = np.empty(len(order), np.int32)
    inverse[order] = np.cumsum(starts, dtype=np.int32) - 1
    del order, starts
    rep, urows = first[inverse], []
    for col in columns:
        _check_rows(col, col[rep])
        urows.append(col[first])
    return first, inverse, np.stack(urows, axis=1)


def _lex_order(rows: np.ndarray) -> np.ndarray:
    """np.lexsort(rows.T[::-1]) of int32 rows (n, m), the permutation that
    sorts them signed-lexicographically, from one stable argsort: with the
    sign bit flipped, the rows' big-endian bytes compare in that order."""
    flipped = (rows.view(np.uint32) ^ np.uint32(1 << 31)).astype(">u4", order="C")
    return np.argsort(flipped.view(np.dtype((np.void, 4 * rows.shape[1]))).ravel(),
                      kind="stable")


def _empty_run() -> list:
    return [np.empty(0, np.uint64), np.empty(0, np.int64)]


def _merge(run: list, h: np.ndarray, idx: np.ndarray) -> None:
    """Insert the ascending hashes h, none of them in the sorted [hashes, key
    indices] run, with their key indices idx.  The old hashes are freed before
    the indices are copied, so a merge holds one column's copy at a time."""
    pos = np.searchsorted(run[0], h)
    run[0] = np.insert(run[0], pos, h)
    run[1] = np.insert(run[1], pos, idx)


class _HashIndex:
    """The key index of each stored key's hash, as two sorted [uint64 hashes,
    int64 key indices] runs: a main run, and a recent run that the new keys
    of each shard enter and that merges into the main run once it passes
    1/_RECENT_SHARE of it.  A shard's new keys then copy the recent run, not
    the whole index."""

    def __init__(self):
        self.main, self.recent = _empty_run(), _empty_run()

    def find(self, h: np.ndarray) -> np.ndarray:
        """Key index of each of the ascending hashes h, -1 where none is stored."""
        gidx = np.full(len(h), -1, np.int64)
        for hs, idx in (self.main, self.recent):
            pos = np.searchsorted(hs, h)
            hit = pos < len(hs)
            hit[hit] = hs[pos[hit]] == h[hit]
            gidx[hit] = idx[pos[hit]]
        return gidx

    def add(self, h: np.ndarray, idx: np.ndarray) -> None:
        """Store the ascending hashes h, none stored yet, with key indices idx."""
        _merge(self.recent, h, idx)
        if len(self.recent[0]) * _RECENT_SHARE > len(self.main[0]):
            recent, self.recent = self.recent, _empty_run()
            _merge(self.main, *recent)


@dataclass(frozen=True, eq=False)
class FaceResiduals:
    """Boundary faces as columns, by descending |z| (ties by face key)."""

    keys: np.ndarray
    residual: np.ndarray
    z_score: np.ndarray
    total: np.ndarray

    def __len__(self) -> int:
        return len(self.total)


@dataclass(frozen=True)
class RatioReport:
    omega: float
    l1_norm: float
    ratio: float
    implied_norm_upper: float
    mc_sigma: float


class SmearChain:
    """Accumulated tallies of cell simplices; see the module docstring."""

    def __init__(self, model: SurfaceModel, net: GammaNet, L: float, samples: int):
        self.model = model
        self.L = float(L)
        self.samples = int(samples)
        self.scale = model.exact_area / samples
        self.lines = _chain_lines(model, net, L)
        self._count = 0
        # a frame adds at most one key per family: one reservation holds them
        # all.  The system commits its pages only as keys are written, so a
        # chain that cannot fit is refused here, not once its pages fill
        need, have = 2 * self.samples * _KEY_BYTES, _physical_memory()
        if have is not None and need > have:
            raise RuntimeError(f"a chain of {samples} samples may need {need / 1e6:,.0f} MB, "
                               f"more than the {have / 1e6:,.0f} MB of physical memory")
        try:
            for name, (shape, dtype) in _COLUMNS.items():
                setattr(self, name, np.zeros((2 * self.samples,) + shape, dtype))
        except MemoryError as exc:
            raise RuntimeError(f"cannot reserve the chain store for {samples} samples") from exc
        self._index = _HashIndex()
        self.u_sum = 0.0
        self.u_sqsum = 0.0
        self.discarded = {1: 0, -1: 0}
        self.violations = 0

    def __len__(self) -> int:
        return self._count

    def key_array(self) -> np.ndarray:
        """Keys as an (K, 15) int32 array, in first-seen order."""
        return self._keys[: self._count, :15]

    def counts(self) -> tuple:
        n = self._count
        return self._bp[:n], self._bm[:n], self._cls[:n], self._area[:n]

    def _absorb(self, sign: int, depth, ctok, em, pos3, outside) -> np.ndarray:
        """Merge one family's net cells of one shard, as _cells returns them,
        and count the samples whose classes break the retention rules at
        their base vertices' `depth`; returns per-sample interior simplex
        areas."""
        cls = _classify(outside)
        self.violations += int(np.count_nonzero((depth > self.L + 3.0) & (cls != CLASS_INT))
                               + np.count_nonzero((cls != CLASS_DISCARD) & (depth < -self.L)))
        b = len(cls)
        areas = np.zeros(b)
        kept = np.flatnonzero(cls != CLASS_DISCARD)
        self.discarded[sign] += int(b - kept.size)
        if kept.size == 0:
            return areas
        krows = _key_rows(ctok, em)
        if kept.size < b:
            krows = krows.take(kept, axis=1)
        h = _row_hash(krows)
        first, inverse, urows = _number_rows(h, krows)
        del krows  # urows holds the distinct rows
        uh = h[first]
        gidx = self._index.find(uh)
        hit = gidx >= 0
        _check_rows(self._keys[gidx[hit], :15], urows[hit])

        fresh = np.flatnonzero(~hit)
        if fresh.size:
            # new keys append in signed-lexicographic row order
            lex = fresh[_lex_order(urows[fresh])]
            src = kept[first[lex]]
            # face 0's element token, of the samples new keys are stored
            # from; formed before the store changes, so an overflow leaves it intact
            face0 = _as_int32(_element_tokens(em[src, 1], em[src, 2, :, 0]))
            n0, n1 = self._count, self._count + lex.size
            gidx[lex] = np.arange(n0, n1)
            self._index.add(uh[fresh], gidx[fresh])
            self._keys[n0:n1, :15], self._keys[n0:n1, 15:] = urows[lex], face0
            self._cls[n0:n1] = cls[src]
            self._area[n0:n1] = triangle_areas(pos3[src])
            self._drop[n0:n1] = _dropped_faces(outside[src])
            self._count = n1
        tallies = self._bp if sign > 0 else self._bm
        tallies[gidx] += np.bincount(inverse)
        areas[kept] = (self._area[gidx] * (self._cls[gidx] == CLASS_INT))[inverse]
        return areas


def _chain_lines(model: SurfaceModel, net: GammaNet, L: float) -> np.ndarray:
    """Boundary-line lifts the cells of the simplices of edge L can reach: a
    frame's base point lies within domain_radius() of the origin, each vertex
    within the farthest vertex of _mirror_pair of the base, and its cell
    center within the net's snap radius of the vertex.  Folding needs no more:
    reduction and folding only bring a vertex closer to the origin, so a line
    it lies beyond is nearer still."""
    far = max(np.arccosh(q[:, 0]).max() for q in _mirror_pair(L))
    return model.boundary_lines(model.domain_radius() + far + net.snap_radius)


def _mirror_pair(L: float) -> tuple:
    """Vertex arrays of the two reference triangles.

    The negative family is the reflection of the positive one through the
    geodesic holding its first two vertices, and those two vertices are the
    same bits in both arrays.  Each frame then snaps them to the same cells
    in both families, so the shared face cancels sample by sample by
    construction, and the remaining face tallies are sums of independent
    unit deposits, which is what the binomial z-score model of
    boundary_residuals assumes.
    """
    if L < 1.0:
        raise ValueError("L must be >= 1")
    q_plus = regular_simplex(2, L)
    polar = np.cross(_J * q_plus[0], _J * q_plus[1])
    polar = polar / math.sqrt(np.dot(polar * _J, polar))
    mirror = np.eye(3) - 2.0 * np.outer(polar, _J * polar)
    q_minus = q_plus @ mirror.T
    # the reflection fixes vertices 0 and 1 up to rounding: make them the
    # same bits, so both families snap them to the same cells
    q_minus[:2] = q_plus[:2]
    return q_plus, q_minus


def accumulate_chain(
    model: SurfaceModel, net: GammaNet, L: float, samples: int, seed: int = 1789
) -> SmearChain:
    """Sample `samples` frames and tally both simplex families into a chain,
    counting the retention rules' violations as `chain.violations`."""
    q_plus, q_minus = _mirror_pair(L)
    frames = haar_sample(model, samples, seed)  # rejects samples < 1 before the chain divides by it
    chain = SmearChain(model, net, L, samples)
    for mats in frames:
        # both families share the base vertex, whose depth the retention rules read
        depth = model.distance_to_boundary(_vertex_images(mats, q_plus[:1])[:, 0], chain.lines)
        u = np.zeros(len(mats))
        for sign, cells in _shard_families(model, net, chain.lines, mats, q_plus, q_minus):
            u += sign * chain._absorb(sign, depth, *cells)
            del cells  # free the plus family before the minus one is built
        u *= 0.5
        chain.u_sum += float(u.sum())
        chain.u_sqsum += float((u * u).sum())
    return chain


def ratio_report(chain: SmearChain) -> RatioReport:
    """Volume-to-mass efficiency of the chain (interior part)."""
    if len(chain) == 0:
        raise ValueError("chain is empty")
    bp, bm, cls, area = chain.counts()
    interior = cls == CLASS_INT
    a = chain.scale * (bp - bm) / 2.0
    omega = float(np.sum(a[interior] * area[interior]))
    l1 = float(np.sum(np.abs(a[interior])))
    if omega <= 0.0:
        raise ValueError("omega <= 0: sample too small or L below the efficiency threshold")
    n = chain.samples
    mean = chain.u_sum / n
    var = max(0.0, (chain.u_sqsum - n * mean * mean) / max(1, n - 1))
    sigma_omega = chain.model.exact_area * math.sqrt(var / n)
    return RatioReport(
        omega=omega,
        l1_norm=l1,
        ratio=omega / l1,
        implied_norm_upper=chain.model.exact_area * l1 / omega,
        mc_sigma=sigma_omega / l1,
    )


def boundary_residuals(chain: SmearChain) -> FaceResiduals:
    """Per-face coefficients of the boundary of the chain, with z-scores.

    For each stored simplex the three faces enter with alternating signs; in
    exact measure the interior-face coefficients cancel.  The z-score is the
    signed count over the square root of the total count feeding the face.
    """
    n = len(chain)
    bp, bm, _, _ = chain.counts()
    x = chain._keys[:n]
    # face j of every key goes to the bucket of the top bits of its hash, and
    # a dropped one to bucket _FACE_BUCKETS, which is never read.  Equal
    # faces share a bucket, so each bucket is numbered on its own and the
    # transients of the numbering scale with one bucket.  runs[j] lists the
    # keys by bucket (a stable counting sort) and where each bucket starts
    runs = []
    for j in range(3):
        bucket = np.empty(n, np.uint8)
        for s in range(0, n, _SHARD):  # hashed a block of keys at a time
            h = _row_hash(x[s : s + _SHARD, c] for c in _FACES[j])
            bucket[s : s + _SHARD] = (h >> np.uint64(56)) // (256 // _FACE_BUCKETS)
        bucket[chain._drop[:n, j]] = _FACE_BUCKETS
        at = np.zeros(_FACE_BUCKETS + 2, np.intp)
        np.cumsum(np.bincount(bucket, minlength=_FACE_BUCKETS + 1), out=at[1:])
        runs.append((np.argsort(bucket, kind="stable").astype(np.int32), at))
    del bucket
    # the sums are of integers below 2**53, so adding them family by family
    # gives the same floats as one pass over all faces
    parts = [], [], []
    for b in range(_FACE_BUCKETS):
        srcs = [members[at[b] : at[b + 1]] for members, at in runs]
        ends = np.cumsum([0] + [len(s) for s in srcs])
        faces = np.concatenate([x[s][:, _FACES[j]] for j, s in enumerate(srcs)]).T
        first, inverse, urows = _number_rows(_row_hash(faces), faces)
        agg_s, agg_t = np.zeros(len(first)), np.zeros(len(first))
        for j, s in enumerate(srcs):
            part, sign = inverse[ends[j] : ends[j + 1]], -1 if j == 1 else 1
            agg_s += np.bincount(part, weights=sign * (bp[s] - bm[s]), minlength=len(first))
            agg_t += np.bincount(part, weights=bp[s] + bm[s], minlength=len(first))
        for p, a in zip(parts, (urows, agg_s.astype(np.int64), agg_t.astype(np.int64))):
            p.append(a)
    del runs, srcs  # srcs are views of the runs
    joined = []
    for p in parts:
        joined.append(np.concatenate(p))
        p.clear()  # freed before the next column is joined
    urows, agg_s, agg_t = joined

    z = agg_s / np.sqrt(np.maximum(agg_t, 1))
    # descending |z|, ties by face key; a tuple of keys, not one float array
    order = np.lexsort((*urows.T[::-1], -np.abs(z)))
    for c in range(urows.shape[1]):  # sorted in place, a column at a time
        urows[:, c] = urows[order, c]
    return FaceResiduals(keys=urows, residual=chain.scale * agg_s[order] / 2.0,
                         z_score=z[order], total=agg_t[order])


def measure_sandwich(chain: SmearChain) -> dict:
    """Retained +/- masses against area brackets from boundary-tube bounds."""
    from hypsmear.bounds import tube_factor

    bp, bm, _, _ = chain.counts()
    blen = chain.model.boundary_length()
    area = chain.model.exact_area
    low = area - blen * tube_factor(2, chain.L + 3.0)
    high = area + blen * tube_factor(2, chain.L)
    out = {}
    for name, b in (("plus", bp), ("minus", bm)):
        p = float(b.sum()) / chain.samples
        # area * p, not scale * count: full retention must give back the
        # area bitwise, since sigma is 0 there and the bracket is tight
        mass = area * p
        sigma = area * math.sqrt(max(p * (1.0 - p), 0.0) / chain.samples)
        out[name] = (mass, sigma)
    out["bracket"] = (low, high)
    return out
