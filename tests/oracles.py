"""Independent reference implementations used to check the sparse engine.

The dense ones operate on full every-site tables with their own site
indexing built by plain enumeration; no hash maps, no activity tracking,
no ground states.  The loop ones after them are the original one-segment,
one-face and one-site-at-a-time active-set builders, and the original
one-grid-at-a-time rulebook.  The ``addat`` ones at the end are the
original ``np.add.at`` scatters of the conv and pool backward passes.
Then the original grounds-first gather that the reference pools read,
the original max-pool argmax, one masked store per footprint position,
and the original SGD step with its temporaries; the original running max
over whole arrays, and the original pool scatter with its
mask compaction.  Then the original window rulebook, one
``searchsorted`` per dimension and a second ``np.unique`` for the
per-sample grouping.  The last ones
are original ingestion steps: the OFF decoder that converts one token per
call, polylines fitted and sampled as row-major point arrays (knots and
space-time strokes whole), space-time strokes rasterized one stroke at a
time, embedding that unpacks and packs every site, the augmentation
that sorts its keys twice, and the rotation computed on numpy scalars
that the row-major knot places its curve with.  Last, the architecture
parser that walks a whitespace-free copy of the text with a map back to
character offsets.  Slow and obviously correct.  ``plan_Q`` gives tests
the gather matrix of a convolution's tape plan whichever form it keeps.
"""

import math
import re
from functools import lru_cache

import numpy as np

from latticenet.errors import FormatError, ParseError
from latticenet.geometry import (
    COORD_BITS,
    GridShape,
    LatticeKind,
    filter_offsets,
    out_size,
    pack_sites,
    unpack_sites,
)
from latticenet.grid import DenseGrid, GridBatch, SparseGrid
from latticenet.ingest import (
    StrokeSample,
    TriangleMesh,
    _occupancy_grid,
    _ranks,
    fit_points,
    knot_curve,
    make_affine,
    rasterize_polyline,
)
from latticenet.netspec import ConvSpec, FMPSpec, LayerSpec, NetworkSpec, OutputSpec, PoolSpec
from latticenet.ops import Plan, _row_starts
from latticenet.train import AffineParams


@lru_cache(maxsize=None)
def site_index(shape: GridShape) -> dict:
    return {site: i for i, site in enumerate(shape.sites())}


@lru_cache(maxsize=None)
def gather_positions(out_shape: GridShape, in_shape: GridShape, offsets, s):
    """For each output site, the list of covered input-site ordinals."""
    in_idx = site_index(in_shape)
    rows = []
    for u in out_shape.sites():
        rows.append([in_idx[tuple(s * c + o for c, o in zip(u, off))] for off in offsets])
    return np.array(rows, dtype=np.int64)


def dense_conv(dense: DenseGrid, f: int, s: int, W: np.ndarray, B: np.ndarray) -> DenseGrid:
    lattice = dense.shape.lattice
    m_out = out_size(dense.shape.m, f, s)
    out_shape = GridShape(lattice, m_out)
    offsets = filter_offsets(lattice, f)
    pos = gather_positions(out_shape, dense.shape, offsets, s)
    n_in = dense.n
    acc = np.tile(np.asarray(B, dtype=np.float64), (out_shape.num_sites, 1))
    for k in range(len(offsets)):
        acc = acc + dense.values[pos[:, k]] @ np.asarray(W, dtype=np.float64)[k * n_in:(k + 1) * n_in]
    return DenseGrid(out_shape, acc)


def dense_pool(dense: DenseGrid, p: int, s: int) -> DenseGrid:
    lattice = dense.shape.lattice
    m_out = out_size(dense.shape.m, p, s)
    out_shape = GridShape(lattice, m_out)
    offsets = filter_offsets(lattice, p)
    pos = gather_positions(out_shape, dense.shape, offsets, s)
    acc = dense.values[pos[:, 0]].astype(np.float64)
    for k in range(1, len(offsets)):
        acc = np.maximum(acc, dense.values[pos[:, k]])
    return DenseGrid(out_shape, acc)


def dense_fmp(dense: DenseGrid, regions) -> DenseGrid:
    """Max over the product of per-dimension size-2 regions."""
    m_out = regions[0].shape[0]
    out_shape = GridShape(dense.shape.lattice, m_out)
    in_idx = site_index(dense.shape)
    vals = []
    for u in out_shape.sites():
        corner = [regions[d][u[d]] for d in range(3)]
        best = None
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    v = dense.values[in_idx[(corner[0] + dx, corner[1] + dy, corner[2] + dz)]]
                    best = v if best is None else np.maximum(best, v)
        vals.append(best)
    return DenseGrid(out_shape, np.array(vals, dtype=np.float64))


def dense_relu(dense: DenseGrid) -> DenseGrid:
    return DenseGrid(dense.shape, np.maximum(dense.values, 0))


def brute_force_active(active_in: set, in_shape: GridShape, f: int, s: int) -> set:
    """Output sites whose receptive field meets the active input set."""
    m_out = out_size(in_shape.m, f, s)
    out_shape = GridShape(in_shape.lattice, m_out)
    offsets = filter_offsets(in_shape.lattice, f)
    out = set()
    for u in out_shape.sites():
        for off in offsets:
            if tuple(s * c + o for c, o in zip(u, off)) in active_in:
                out.add(u)
                break
    return out


def dense_conv_backward(dense_in: DenseGrid, f: int, s: int, W: np.ndarray,
                        d_out: np.ndarray):
    """(dW, dB, d_in) of a dense convolution; d_out is (out_sites, n_out)."""
    lattice = dense_in.shape.lattice
    m_out = out_size(dense_in.shape.m, f, s)
    out_shape = GridShape(lattice, m_out)
    offsets = filter_offsets(lattice, f)
    pos = gather_positions(out_shape, dense_in.shape, offsets, s)
    n_in = dense_in.n
    dW = np.zeros_like(np.asarray(W, dtype=np.float64))
    d_in = np.zeros((dense_in.shape.num_sites, n_in))
    for k in range(len(offsets)):
        block = slice(k * n_in, (k + 1) * n_in)
        dW[block] = dense_in.values[pos[:, k]].T @ d_out
        np.add.at(d_in, pos[:, k], d_out @ np.asarray(W, dtype=np.float64)[block].T)
    dB = d_out.sum(axis=0)
    return dW, dB, d_in


# ---------------------------------------------------------------------------
# loop references for the vectorized ingestion and FMP active-site step
#
# These are the original per-segment, per-face and per-site loops of
# ``ingest.rasterize_polyline``, ``ingest.voxelize_mesh`` and
# ``ops.fmp_forward``, kept verbatim (apart from returning keys instead of
# grids) so the whole-array versions can be checked for identical output.


def loop_rasterize_polyline(points: np.ndarray, m: int, shape: GridShape | None = None) -> np.ndarray:
    """Sorted active keys of the rasterized polyline."""
    if shape is None:
        shape = GridShape(LatticeKind.CUBIC, m)
    points = np.asarray(points, dtype=float).reshape(-1, shape.ndim)
    if points.shape[0] < 1:
        raise ValueError("need at least one point")
    keys = set()

    def mark(pts):
        vox = np.rint(pts).astype(np.int64).reshape(-1, shape.ndim)
        bad = (vox < 0).any(axis=1) | (vox >= shape.m).any(axis=1)
        if shape.lattice.is_simplex:
            bad |= vox.sum(axis=1) > shape.m - 1
        if bad.any():
            culprit = vox[np.argmax(bad)]
            raise ValueError(f"point maps to voxel {tuple(culprit)} outside the grid")
        for k in pack_sites(vox):
            keys.add(int(k))

    mark(points[0])
    for i in range(points.shape[0] - 1):
        a, b = points[i], points[i + 1]
        steps = max(1, int(np.ceil(np.abs(b - a).max() / 0.45)))
        ts = np.linspace(0.0, 1.0, steps + 1)
        mark(a + np.outer(ts, b - a))
    return np.array(sorted(keys), dtype=np.int64)


def loop_voxelize_mesh(verts: np.ndarray, faces: np.ndarray, m: int):
    """(sorted active keys, per-face subdivision counts) of a placed mesh.

    ``verts`` are already rotated and fitted to the grid.
    """
    keys = set()
    ns = []
    for (a, b, c) in faces:
        A, B, C = verts[a], verts[b], verts[c]
        edge = max(np.linalg.norm(B - A), np.linalg.norm(C - A), np.linalg.norm(C - B))
        n = max(1, int(np.ceil(edge / 0.45)))
        ns.append(n)
        # barycentric lattice u/n, v/n with u+v <= n
        us = np.arange(n + 1)
        for u in us:
            v = np.arange(n + 1 - u)
            pts = A + np.outer(np.full(v.shape, u / n), (B - A)) + np.outer(v / n, (C - A))
            vox = np.rint(pts).astype(np.int64)
            np.clip(vox, 0, m - 1, out=vox)
            for k in pack_sites(vox):
                keys.add(int(k))
    return np.array(sorted(keys), dtype=np.int64), np.array(ns, dtype=np.int64)


def loop_fmp_active_keys(grid, regions) -> np.ndarray:
    """Sorted output keys of FMP: regions whose 2-window meets an active site."""
    out_key_set = set()
    starts = regions
    sites = grid.sites()
    cand = []
    for dim in range(3):
        c = sites[:, dim]
        lo = np.searchsorted(starts[dim], c - 1)
        hi = np.searchsorted(starts[dim], c)
        n_r = starts[dim].shape[0]
        hit_lo = (lo < n_r) & (starts[dim][np.minimum(lo, n_r - 1)] == c - 1)
        hit_hi = (hi < n_r) & (starts[dim][np.minimum(hi, n_r - 1)] == c)
        cand.append((lo, hit_lo, hi, hit_hi))
    for i in range(sites.shape[0]):
        per_dim = []
        for dim in range(3):
            lo, hit_lo, hi, hit_hi = cand[dim]
            opts = []
            if hit_lo[i]:
                opts.append(int(lo[i]))
            if hit_hi[i]:
                opts.append(int(hi[i]))
            per_dim.append(opts)
        for u0 in per_dim[0]:
            for u1 in per_dim[1]:
                for u2 in per_dim[2]:
                    out_key_set.add((u0 << 42) | (u1 << 21) | u2)
    return np.array(sorted(out_key_set), dtype=np.int64)


# ---------------------------------------------------------------------------
# per-grid rulebook references for the batched rulebook
#
# The original one-grid ``ops.conv_active_sites`` and ``ops.build_gather``
# (one ``np.unique`` and one key lookup per offset, for one grid), the
# original pooling tail, and the original key lookups of
# ``ops.fmp_forward``, kept verbatim apart from plain arguments.


def loop_conv_active_sites(grid, f: int, s: int) -> np.ndarray:
    """Sorted packed keys of the active output sites of one grid."""
    m_out = out_size(grid.shape.m, f, s)
    if grid.a == 0:
        return np.empty(0, np.int64)
    sites = grid.sites()
    found = []
    for off in filter_offsets(grid.shape.lattice, f):
        q = sites - np.asarray(off, dtype=np.int64)
        ok = (q >= 0).all(axis=1)
        if s > 1:
            ok &= (q % s == 0).all(axis=1)
        u = q // s
        ok &= (u <= m_out - 1).all(axis=1)
        if grid.shape.lattice.is_simplex:
            ok &= u.sum(axis=1) <= m_out - 1
        if ok.any():
            found.append(pack_sites(u[ok]))
    if not found:
        return np.empty(0, np.int64)
    return np.unique(np.concatenate(found))


def loop_gather(grid, out_keys: np.ndarray, f: int, s: int):
    """(src, Q) of one grid: src (a_out, F) rows or -1, Q (a_out, F * n)."""
    offsets = filter_offsets(grid.shape.lattice, f)
    a_out = out_keys.shape[0]
    base = unpack_sites(out_keys, grid.shape.ndim) * s
    src = np.empty((a_out, len(offsets)), dtype=np.int64)
    for k, off in enumerate(offsets):
        src[:, k] = grid.lookup(pack_sites(base + np.asarray(off, dtype=np.int64)))
    rows_ext = np.vstack([grid.ground[None, :].astype(grid.rows.dtype, copy=False), grid.rows])
    return src, rows_ext[src + 1].reshape(a_out, len(offsets) * grid.n)


def loop_max(grid, src: np.ndarray):
    """(rows, argmax_src) of max pooling one grid over a gather index."""
    rows_ext = np.vstack([grid.ground[None, :].astype(grid.rows.dtype, copy=False), grid.rows])
    gathered = rows_ext[src + 1]
    if src.shape[0] == 0:
        return np.empty((0, grid.n), grid.rows.dtype), np.empty((0, grid.n), np.int64)
    return gathered.max(axis=1), np.take_along_axis(src, gathered.argmax(axis=1), axis=1)


def loop_fmp_gather(grid, out_keys: np.ndarray, regions) -> np.ndarray:
    """FMP's gather index of one grid: the 8 corners of each region product."""
    out_sites = unpack_sites(out_keys, 3)
    src = np.empty((out_keys.shape[0], 8), dtype=np.int64)
    k = 0
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                pos = np.stack(
                    [regions[0][out_sites[:, 0]] + dx,
                     regions[1][out_sites[:, 1]] + dy,
                     regions[2][out_sites[:, 2]] + dz], axis=1)
                src[:, k] = grid.lookup(pack_sites(pos))
                k += 1
    return src


def plan_Q(plan: Plan) -> np.ndarray:
    """The gather matrix ``Q`` of a convolution's plan: the one it keeps, or,
    for a plan that keeps the layer's input in its place, that input
    gathered through ``src`` (a ground-filled position reads its sample's
    ground)."""
    if plan.Q is not None:
        return plan.Q
    sample = np.repeat(np.arange(len(plan)), np.diff(plan.out_start))
    ground = plan.in_grounds.astype(plan.in_rows.dtype)[sample][:, None, :]
    Q = np.where(plan.src[..., None] >= 0, plan.in_rows[np.maximum(plan.src, 0)], ground)
    return Q.reshape(plan.a_out, plan.src.shape[1] * plan.in_rows.shape[1])


# ---------------------------------------------------------------------------
# np.add.at references for the per-offset backward scatters
#
# The original bodies of ``autograd.conv_backward`` and
# ``autograd.pool_backward``, kept verbatim: each scatters every term in
# one ``np.add.at`` call, in row-major (output row, position) order.


def addat_conv_backward(d_out: np.ndarray, plan, layer):
    """Returns (dW, dB, d_in_rows) for one convolution."""
    if d_out.shape != (plan.a_out, layer.n_out):
        raise ValueError(
            f"d_out must be ({plan.a_out}, {layer.n_out}), got {d_out.shape}"
        )
    dW = plan.Q.T @ d_out
    dB = d_out.sum(axis=0)
    d_in = np.zeros((plan.a_in, layer.n_in), dtype=d_out.dtype)
    if plan.a_out:
        dQ = (d_out @ layer.W.T).reshape(plan.a_out, -1, layer.n_in)
        valid = plan.src >= 0
        np.add.at(d_in, plan.src[valid], dQ[valid])
    return dW, dB, d_in


def addat_pool_backward(d_out: np.ndarray, plan):
    """Route each output gradient component to its recorded argmax row."""
    n = d_out.shape[1]
    d_in = np.zeros((plan.a_in, n), dtype=d_out.dtype)
    if d_out.shape[0]:
        src = plan.argmax_src
        cols = np.broadcast_to(np.arange(n), src.shape)
        valid = src >= 0  # ground winners take no gradient
        np.add.at(d_in, (src[valid], cols[valid]), d_out[valid])
    return d_in


# ---------------------------------------------------------------------------
# the masked Q-form scatter
#
# The original input-gradient scatter of ``autograd.conv_backward``'s Q
# form, kept verbatim: before the gradient got one trailing row per
# sample's ground, each footprint position compacted its active rows with
# a mask.


def masked_conv_backward(d_out: np.ndarray, plan, layer) -> np.ndarray:
    """The Q form's input gradient: each footprint position, last to first,
    adds only the rows whose gather index is active."""
    d_in = np.zeros((plan.a_in, layer.n_in), dtype=d_out.dtype)
    if plan.a_out:
        dQ = (d_out @ layer.W.T).reshape(plan.a_out, -1, layer.n_in)
        for k in reversed(range(plan.src.shape[1])):
            r = plan.src[:, k]
            v = np.flatnonzero(r >= 0)
            d_in[r[v]] += dQ[v, k]
    return d_in


# ---------------------------------------------------------------------------
# the grounds-first gather of the pools below
#
# The original gather formula of ``ops``, which the reference pools keep so
# that they stay independent of the library's table layout.


def grounds_first_gather(batch: GridBatch, src: np.ndarray, out_sample: np.ndarray):
    """The ``[grounds; rows]`` table of a batch and, per gather position,
    the table row it reads: ``src + B``, or the ground of its output row's
    sample where ``src`` is negative.  ``table[idx]`` is the (a_out, F, n)
    gather."""
    table = np.concatenate([batch.grounds.astype(batch.rows.dtype, copy=False), batch.rows])
    return table, np.where(src >= 0, src + batch.B, out_sample[:, None])


# ---------------------------------------------------------------------------
# the masked-store argmax and the copying SGD step
#
# The original bodies of ``ops._max_pool`` and ``autograd.sgd_step``, kept
# verbatim: the pool moves its argmax with one ``np.putmask`` per footprint
# position, and the step builds ``grad + wd * values`` and ``lr * g`` as new
# arrays.


def putmask_max_pool(batch: GridBatch, out_keys, out_sample, out_shape, src, keep_plan: bool):
    """Shared tail of pooling ops: one running max over the footprint
    positions, plus the :class:`Plan` argmax when ``keep_plan``.

    Each step reads one position's input vectors for every output row and
    folds them in with ``np.maximum``, so the (a_out, F, n) gather is never
    built.  Positions run in ascending order and only a strictly greater
    value moves the argmax, which keeps the lowest of equal maxima.  A NaN
    never compares greater, so NaN components get their first NaN position
    after the loop.
    """
    table, idx = grounds_first_gather(batch, src, out_sample)
    F = src.shape[1]
    rows = table[idx[:, 0]]
    vals = np.empty_like(rows)
    if keep_plan:
        argmax = np.zeros(rows.shape, np.min_scalar_type(F - 1))
        better = np.empty(rows.shape, bool)
    for k in range(1, F):
        np.take(table, idx[:, k], axis=0, out=vals)
        if keep_plan:
            np.putmask(argmax, np.greater(vals, rows, out=better), k)
        np.maximum(rows, vals, out=rows)
    plan = None
    if keep_plan:
        nan = np.isnan(rows)
        if nan.any():
            i, c = np.nonzero(nan)
            argmax[i, c] = np.isnan(table[idx[i].T, c]).argmax(axis=0)
    out = GridBatch(out_shape, out_keys, np.concatenate([rows, batch.grounds]),
                    _row_starts(out_sample, batch.B))
    if keep_plan:
        plan = Plan(out_keys, src, batch.start, out.start, argmax=argmax)
    return out, plan


def copying_sgd_step(params, lr: float, momentum: float = 0.0,
                     weight_decay: float = 0.0):
    """velocity <- mu*velocity - lr*(grad + wd*values); values += velocity."""
    for p in params:
        g = p.grad + weight_decay * p.values
        p.velocity *= momentum
        p.velocity -= lr * g
        p.values += p.velocity
        p.grad[...] = 0.0


# ---------------------------------------------------------------------------
# the whole-array running max and the masked pool scatter
#
# The original bodies of ``ops._max_pool`` and ``autograd.pool_backward``,
# kept verbatim: the pool builds the whole (a_out, F) gather index and runs
# every footprint position over all output rows at once, and the backward
# pass compacts the components the ground did not win with two boolean
# masks before one ``np.add.at``.


def untiled_max_pool(batch: GridBatch, out_keys, out_sample, out_shape, src, keep_plan: bool):
    """Shared tail of pooling ops: one running max over the footprint
    positions, plus the batch's :class:`Plan` with its argmax when
    ``keep_plan`` (else None).

    Each step reads one position's input vectors for every output row and
    folds them in with ``np.maximum``, so the (a_out, F, n) gather is never
    built.  Positions run in ascending order and only a strictly greater
    value moves the argmax, which keeps the lowest of equal maxima.  The
    argmax is itself a running max: position ``k`` exceeds every position
    stored before it, so ``argmax = max(argmax, better * k)`` moves exactly
    the components where ``better`` holds, with no masked store.  A NaN
    never compares greater, so NaN components get their first NaN position
    after the loop.
    """
    table, idx = grounds_first_gather(batch, src, out_sample)
    F = src.shape[1]
    rows = table[idx[:, 0]]
    vals = np.empty_like(rows)
    if keep_plan:
        position = np.min_scalar_type(F - 1).type
        argmax = np.zeros(rows.shape, position)
        better = np.empty(rows.shape, bool)
        moved = np.empty_like(argmax)
    for k in range(1, F):
        np.take(table, idx[:, k], axis=0, out=vals)
        if keep_plan:
            np.greater(vals, rows, out=better)
            np.multiply(better, position(k), out=moved)
            np.maximum(argmax, moved, out=argmax)
        np.maximum(rows, vals, out=rows)
    out = GridBatch(out_shape, out_keys, np.concatenate([rows, batch.grounds]),
                    _row_starts(out_sample, batch.B))
    if not keep_plan:
        return out, None
    nan = np.isnan(rows)
    if nan.any():
        i, c = np.nonzero(nan)
        argmax[i, c] = np.isnan(table[idx[i].T, c]).argmax(axis=0)
    return out, Plan(out_keys, src, batch.start, out.start, argmax=argmax)


def masked_pool_backward(d_out: np.ndarray, plan: Plan):
    """Route each output gradient component to the input row its argmax
    position reads; components the ground won take no gradient."""
    if d_out.shape != plan.argmax.shape:
        raise ValueError(f"d_out must be {plan.argmax.shape}, got {d_out.shape}")
    n = d_out.shape[1]
    d_in = np.zeros(plan.a_in * n, dtype=d_out.dtype)
    target = plan.argmax_src
    valid = target >= 0
    # one flat index per component: a 2-D index tuple misses add.at's fast path
    np.add.at(d_in, (target * n + np.arange(n))[valid], d_out[valid])
    return d_in.reshape(plan.a_in, n)


# ---------------------------------------------------------------------------
# the searchsorted window rulebook
#
# The original body of ``ops._window_rulebook``, kept verbatim but for its
# ground entries, which follow the library's gather index: one
# ``searchsorted`` per dimension finds each window start, and a second
# ``np.unique`` over the tag ``sample * U + rank`` groups the candidates
# into output rows.


def searchsorted_window_rulebook(batch: GridBatch, offsets, starts, bound):
    """Active output rows of a windowed layer over a batch: (out_keys,
    out_sample, src).

    Along dimension ``j`` the window of output coordinate ``u`` starts at
    ``starts[j][u]`` (ascending), so input site ``c`` lies under footprint
    offset ``o`` of output ``u`` exactly when every ``c_j - o_j`` is a
    start, ``u_j`` being its index.  On simplex lattices ``bound`` is the
    largest coordinate sum of a valid output's window start, else None.
    Every (active input row, offset) pair that meets these tests is one
    candidate.  Output rows are ordered by sample and then by key:
    candidates are grouped by the tag ``sample * U + rank``, with ``rank``
    the key's rank among the U distinct candidate keys, so the tag fits in
    int64 whatever the coordinate range.  An inactive position of sample
    ``b`` holds ``-(B - b)``.
    """
    sites = batch.sites()
    d = sites.shape[1]
    span = np.arange(max(max(off) for off in offsets) + 1)
    # per dimension j and offset value o: the packed part of u_j, and whether
    # c_j - o is a window start (a value past the last start finds the -1
    # sentinel, which it cannot equal)
    part, fits = [], []
    for j in range(d):
        q = sites[:, j] - span[:, None]  # (len(span), a)
        u = np.searchsorted(starts[j], q)
        fits.append(np.append(starts[j], -1)[u] == q)
        part.append(u << (COORD_BITS * (d - 1 - j)))
    if bound is not None:
        site_sum = sites.sum(axis=1)
    keys, rows = [], []
    for off in offsets:
        ok = fits[0][off[0]]
        for j in range(1, d):
            ok = ok & fits[j][off[j]]
        if bound is not None:
            ok &= site_sum <= bound + sum(off)
        r = np.flatnonzero(ok)
        keys.append(sum(part[j][off[j]][r] for j in range(d)))
        rows.append(r)
    k = np.repeat(np.arange(len(offsets)), [r.shape[0] for r in rows])
    rows = np.concatenate(rows)
    union, rank = np.unique(np.concatenate(keys), return_inverse=True)
    U = max(union.shape[0], 1)  # no candidates means no tags to split
    tags, out_row = np.unique(batch.sample_ids()[rows] * U + rank, return_inverse=True)
    out_sample = tags // U
    src = np.repeat(out_sample - batch.B, len(offsets)).reshape(-1, len(offsets))
    src[out_row, k] = rows
    return union[tags % U], out_sample, src


# ---------------------------------------------------------------------------
# token-at-a-time, row-major, stroke-at-a-time and two-sort ingestion
#
# The original bodies of ``ingest.load_off``, ``ingest.fit_points``,
# ``ingest._path_keys``, ``ingest.strokes_to_spacetime``,
# ``grid.SparseGrid.embed`` and ``train.augment_grid``, kept verbatim
# apart from their names (and returning keys where noted).  The decoder
# converts and checks one token per call, with every token's line number
# at hand; polylines are fitted and sampled as row-major ``(P, d)``
# arrays, one row per point, and bounds-checked per voxel; the strokes
# are rasterized one ``rasterize_polyline`` call per stroke; embedding
# unpacks, offsets and packs every site; augmentation finds each key's
# first row with a stable ``argsort`` and then
# ``np.unique(return_index=True)``.


def token_walk_load_off(data) -> TriangleMesh:
    """Parse an ASCII OFF file; polygon faces are fan-triangulated."""
    if isinstance(data, bytes):
        data = data.decode("ascii", errors="replace")
    tokens: list[tuple[str, int]] = []  # (token, line number)
    for ln, line in enumerate(data.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for tok in body.split():
            tokens.append((tok, ln))
    if not tokens:
        raise FormatError("empty OFF file", 1)
    pos = 0
    if tokens[0][0].upper() == "OFF":
        pos = 1
    elif tokens[0][0].upper().startswith("OFF"):
        # header glued to the first count, e.g. "OFF3 3 0"
        tokens[0] = (tokens[0][0][3:], tokens[0][1])
    else:
        raise FormatError("missing OFF header", tokens[0][1])

    def take(kind, what):
        nonlocal pos
        if pos >= len(tokens):
            last = tokens[-1][1] if tokens else 1
            raise FormatError(f"unexpected end of file while reading {what}", last)
        tok, ln = tokens[pos]
        pos += 1
        try:
            return kind(tok), ln
        except ValueError:
            raise FormatError(f"expected {what}, got {tok!r}", ln) from None

    nv, _ = take(int, "vertex count")
    nf, _ = take(int, "face count")
    take(int, "edge count")
    if nv < 0 or nf < 0:
        raise FormatError("negative counts in OFF header", tokens[0][1])
    verts = np.empty((nv, 3))
    for i in range(nv):
        for j in range(3):
            x, ln = take(float, f"vertex {i} coordinate")
            if not math.isfinite(x):
                raise FormatError(f"vertex {i} has a non-finite coordinate", ln)
            verts[i, j] = x
    tris = []
    for i in range(nf):
        k, ln = take(int, f"face {i} vertex count")
        if k < 3:
            raise FormatError(f"face {i} has {k} vertices", ln)
        idx = []
        for j in range(k):
            v, ln = take(int, f"face {i} index")
            if v < 0 or v >= nv:
                raise FormatError(f"face {i} references vertex {v} of {nv}", ln)
            idx.append(v)
        for j in range(1, k - 1):  # fan triangulation
            tris.append((idx[0], idx[j], idx[j + 1]))
    return TriangleMesh(verts, np.asarray(tris, dtype=np.int64).reshape(-1, 3))


def row_major_fit_points(points: np.ndarray, shape: GridShape, margin: float = 1.0) -> np.ndarray:
    """Uniformly scale and translate points to fill the grid's valid region.

    Cubic/square grids fit the bounding box into ``[margin, m-1-margin]``;
    simplex grids solve the largest homothety that satisfies the coordinate
    and coordinate-sum constraints with the same margin.
    """
    points = np.asarray(points, dtype=float)
    span = shape.m - 1 - 2 * margin
    if span <= 0:
        raise ValueError(f"grid size {shape.m} leaves no room at margin {margin}")
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    if not shape.lattice.is_simplex:
        extent = float((hi - lo).max())
        scale = span / extent if extent > 0 else 1.0
        fitted = (points - lo) * scale
        # center the smaller extents
        pad = (span - (hi - lo) * scale) / 2.0
        return fitted + pad + margin
    d = shape.ndim
    centered = points - lo
    sum_max = float(centered.sum(axis=1).max())
    denom = sum_max if sum_max > 0 else 1.0
    s_total = shape.m - 1 - (d + 1) * margin
    if s_total <= 0:
        raise ValueError(f"grid size {shape.m} leaves no room at margin {margin}")
    scale = s_total / denom
    fitted = centered * scale + margin
    slack = (shape.m - 1 - margin) - float(fitted.sum(axis=1).max())
    return fitted + slack / (d + 1)


def row_major_path_keys(points: np.ndarray, starts: np.ndarray, shape: GridShape) -> np.ndarray:
    """Packed keys of the voxels along polylines, one key per sample.

    Path ``j`` runs through ``points[starts[j]:starts[j + 1]]``, and no
    segment joins two paths.  Segment ``a -> b`` is sampled at
    ``t = k / steps``, ``k = 0 .. steps`` (the last sample at exactly
    ``t = 1``), with ``steps`` chosen so that consecutive samples are under
    half a voxel apart; a path of one point is that point.  Samples are in
    path order, paths in turn, so a sample outside the grid's valid region
    is an error that names the first such voxel along the paths.
    """
    if not np.isfinite(points).all():
        raise ValueError("polyline has non-finite coordinates")
    # point i is sampled along segment i -> i+1 (k = 0 is the point itself);
    # a path's last point has no segment and adds no samples of its own,
    # unless it is also the path's first
    delta = np.diff(points, axis=0, append=points[-1:])
    steps = np.maximum(1, np.ceil(np.abs(delta).max(axis=1) / 0.45).astype(np.int64))
    last = np.append(starts[1:], points.shape[0]) - 1
    count = steps + 1
    count[last] = last == starts
    seg = np.repeat(np.arange(points.shape[0]), count)
    k = _ranks(count)
    n = steps[seg]
    # np.linspace(0, 1, n + 1) computes k * (1 / n), then sets the last t = 1
    t = k * (1.0 / n)
    t[k == n] = 1.0
    vox = np.rint(points[seg] + t[:, None] * delta[seg]).astype(np.int64)
    bad = shape.outside(vox)
    if bad.any():
        culprit = vox[np.argmax(bad)]
        raise ValueError(f"point maps to voxel {tuple(culprit.tolist())} outside the grid")
    return pack_sites(vox)


def numpy_scalar_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random 3D rotation via a normalized quaternion, its entries
    computed on numpy scalars."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def row_major_knot_keys(kind: str, m: int, rng: np.random.Generator,
                        lattice: LatticeKind = LatticeKind.CUBIC) -> np.ndarray:
    """Sorted active keys of ``ingest.synth_knot``'s sample, rotated by the
    function above and placed and sampled row-major by the two before it."""
    pts = knot_curve(kind)
    pts = pts @ numpy_scalar_rotation(rng).T
    pts *= rng.uniform(0.88, 1.0)  # scale jitter
    shape = GridShape(lattice, m)
    fitted = row_major_fit_points(pts, shape, margin=0.6)
    closed = np.vstack([fitted, fitted[:1]])
    return np.unique(row_major_path_keys(closed, np.zeros(1, dtype=np.int64), shape))


def row_major_spacetime_keys(sample: StrokeSample, m: int = 40) -> np.ndarray:
    """Sorted active keys of ``ingest.strokes_to_spacetime``'s grid, with
    all strokes fitted and sampled row-major by the two functions above."""
    if not sample.strokes:
        raise ValueError("sample has no strokes")
    allp = np.vstack(sample.strokes)
    xy = row_major_fit_points(allp, GridShape(LatticeKind.SQUARE, m), margin=0.0)
    times = np.arange(allp.shape[0]) * ((m - 1) / max(allp.shape[0] - 1, 1))
    pts = np.column_stack([xy, times])
    shape = GridShape(LatticeKind.CUBIC, m)
    starts = np.cumsum([0] + [len(s) for s in sample.strokes[:-1]])
    return np.unique(row_major_path_keys(pts, starts, shape))


def unpacked_embed(grid: SparseGrid, fieldshape: GridShape, offset) -> SparseGrid:
    """Translate all active sites by ``offset`` into a larger field."""
    if fieldshape.lattice is not grid.shape.lattice:
        raise ValueError(
            f"cannot embed {grid.shape.lattice.value} grid into "
            f"{fieldshape.lattice.value} field"
        )
    offset = np.asarray(offset, dtype=np.int64).reshape(-1)
    if offset.shape[0] != grid.shape.ndim:
        raise ValueError(f"offset must have {grid.shape.ndim} coordinates")
    sites = grid.sites() + offset
    bad = fieldshape.outside(sites)
    if bad.any():
        first = sites[np.argmax(bad)]
        raise ValueError(
            f"embed offset {tuple(offset.tolist())} pushes site {tuple(first.tolist())} outside "
            f"the size-{fieldshape.m} {fieldshape.lattice.value} field"
        )
    # translation preserves lexicographic order, so rows stay aligned
    return SparseGrid(fieldshape, pack_sites(sites), grid.rows, grid.ground)


def per_stroke_spacetime(sample: StrokeSample, m: int = 40) -> SparseGrid:
    """Encode ordered strokes as paths in (x, y, time) space.

    x and y are scaled/centered into the grid; the time coordinate is the
    cumulative point index across all strokes scaled to the grid, so
    redrawing the same shape later lands in a different time slab.  No
    segments are drawn across stroke boundaries.
    """
    if not sample.strokes:
        raise ValueError("sample has no strokes")
    allp = np.vstack(sample.strokes)
    xy = fit_points(allp, GridShape(LatticeKind.SQUARE, m), margin=0.0)
    times = np.arange(allp.shape[0]) * ((m - 1) / max(allp.shape[0] - 1, 1))
    pts = np.column_stack([xy, times])
    shape = GridShape(LatticeKind.CUBIC, m)
    ends = np.cumsum([len(s) for s in sample.strokes])[:-1]
    keys = [rasterize_polyline(p, m, shape).keys for p in np.split(pts, ends)]
    return _occupancy_grid(shape, np.concatenate(keys))


def two_sort_augment_grid(grid: SparseGrid, params: AffineParams, rng: np.random.Generator) -> SparseGrid:
    """Random affine jitter of the active sites; identity params are a no-op.

    Sites are transformed about the field center, rounded back to the
    lattice, and collisions keep the component-wise max.  Sites leaving
    the field are dropped (augmentation semantics, not an error).
    """
    if params.is_identity:
        return grid
    d = grid.shape.ndim
    ang = scale = 0.0
    if params.rotate_deg:
        ang = np.deg2rad(rng.uniform(-params.rotate_deg, params.rotate_deg))
    if params.scale:
        scale = rng.uniform(-params.scale, params.scale)
    A = make_affine(d, rotation=ang, scale=1.0 + scale)
    if params.shear:
        S = np.eye(d)
        for i in range(d):
            for j in range(d):
                if i != j:
                    S[i, j] = rng.uniform(-params.shear, params.shear)
        A = A @ S
    t = rng.uniform(-params.translate, params.translate, size=d) if params.translate else np.zeros(d)

    center = (grid.shape.m - 1) / 2.0
    pts = grid.sites().astype(float) - center
    pts = pts @ A.T + t + center
    sites = np.rint(pts).astype(np.int64)
    ok = ~grid.shape.outside(sites)
    sites = sites[ok]
    rows = grid.rows[ok]
    keys = pack_sites(sites)
    order = np.argsort(keys, kind="stable")
    keys, rows = keys[order], rows[order]
    uniq, first = np.unique(keys, return_index=True)
    merged = np.empty((uniq.shape[0], grid.n), dtype=rows.dtype)
    np.maximum.reduceat(rows, first, axis=0, out=merged)
    return SparseGrid(grid.shape, uniq, merged, grid.ground)


_CONV_RE = re.compile(r"^([0-9]+)C([0-9]+)(?:/([0-9]+))?$")
_POOL_RE = re.compile(r"^MP([0-9]+)(?:/([0-9]+))?$")


def compact_walk_parse(text: str, lattice: LatticeKind, n_input: int) -> NetworkSpec:
    """Parse an architecture string; errors carry the character offset."""
    stripped = []
    positions = []
    for i, ch in enumerate(text):
        if not ch.isspace():
            stripped.append(ch)
            positions.append(i)
    compact = "".join(stripped)
    if not compact:
        raise ParseError("empty architecture string", 0)

    # segment boundaries in the compacted string, mapped back to character offsets
    segments = []
    start = 0
    for i in range(len(compact) + 1):
        if i == len(compact) or compact[i] == "-":
            segments.append((compact[start:i], positions[start] if start < len(positions) else len(text)))
            start = i + 1

    layers: list[LayerSpec] = []
    saw_output = False
    for token, offset in segments:
        if saw_output:
            raise ParseError(f"unexpected token {token!r} after output", offset)
        if token == "output":
            saw_output = True
            layers.append(OutputSpec())
            continue
        if token == "FMP":
            layers.append(FMPSpec())
            continue
        m = _CONV_RE.match(token)
        if m:
            n_out, f = int(m.group(1)), int(m.group(2))
            s = int(m.group(3)) if m.group(3) else 1
            if n_out < 1 or f < 1 or s < 1:
                raise ParseError(f"nonpositive integer in {token!r}", offset)
            layers.append(ConvSpec(n_out, f, s))
            continue
        m = _POOL_RE.match(token)
        if m:
            p = int(m.group(1))
            s = int(m.group(2)) if m.group(2) else p
            if p < 1 or s < 1:
                raise ParseError(f"nonpositive integer in {token!r}", offset)
            layers.append(PoolSpec(p, s))
            continue
        raise ParseError(f"unknown token {token!r}", offset)

    if not saw_output:
        raise ParseError("architecture must end in '-output'", len(text))
    if len(layers) < 2:
        raise ParseError("architecture needs at least one layer before output", 0)
    return NetworkSpec(lattice, n_input, tuple(layers))
