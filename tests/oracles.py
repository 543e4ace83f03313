"""Independent reference implementations used to check the sparse engine.

The dense ones operate on full every-site tables with their own site
indexing built by plain enumeration; no hash maps, no activity tracking,
no ground states.  The loop ones after them are the original one-segment,
one-face and one-site-at-a-time active-set builders, and the original
one-grid-at-a-time rulebook.  The ``addat`` ones at the end are the
original ``np.add.at`` scatters of the conv and pool backward passes.
The last two are the original max-pool argmax, one masked store per
footprint position, and the original SGD step with its temporaries.
The very last is the original window rulebook, one ``searchsorted`` per
dimension and a second ``np.unique`` for the per-sample grouping.
Slow and obviously correct.  ``plan_Q`` gives tests the gather matrix of
a convolution's tape plan whichever form it keeps.
"""

from functools import lru_cache

import numpy as np

from latticenet.geometry import (
    COORD_BITS,
    GridShape,
    LatticeKind,
    filter_offsets,
    out_size,
    pack_sites,
    unpack_sites,
)
from latticenet.grid import DenseGrid, GridBatch
from latticenet.ops import Plan, _gather_index, _row_starts


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
    table, idx = _gather_index(batch, src, out_sample)
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
    out = GridBatch(out_shape, out_keys, rows, batch.grounds.copy(),
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
# the searchsorted window rulebook
#
# The original body of ``ops._window_rulebook``, kept verbatim: one
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
    int64 whatever the coordinate range.
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
    src = np.full((tags.shape[0], len(offsets)), -1, dtype=np.int64)
    src[out_row, k] = rows
    return union[tags % U], tags // U, src
