"""Independent reference implementations used to check the sparse engine.

The dense ones operate on full every-site tables with their own site
indexing built by plain enumeration; no hash maps, no activity tracking,
no ground states.  The loop ones at the end are the original one-segment,
one-face and one-site-at-a-time active-set builders.  Slow and obviously
correct.
"""

from functools import lru_cache

import numpy as np

from latticenet.geometry import GridShape, LatticeKind, filter_offsets, out_size, pack_sites
from latticenet.grid import DenseGrid


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
