"""The whole-array rasterizer, voxelizer and FMP active-site step against
the per-segment, per-face and per-site loops they replace (oracles.py).

Equality is exact: the same active keys for every seed, and for meshes the
same per-face subdivision counts, so that a different edge-length formula
cannot hide behind voxel rounding.
"""

import re

import numpy as np
import pytest

from latticenet.geometry import GridShape, LatticeKind
from latticenet.grid import DenseGrid, SparseGrid
from latticenet.ingest import (
    KNOT_KINDS,
    _subdivisions,
    fit_points,
    knot_curve,
    random_rotation,
    rasterize_polyline,
    voxelize_mesh,
)
from latticenet.ops import FMP_RATIO, FMPLayer, fmp_forward, fmp_regions

from conftest import cube_surface_mesh, sphere_mesh
from oracles import loop_fmp_active_keys, loop_rasterize_polyline, loop_voxelize_mesh

SEEDS = range(100)


def knot_polyline(seed: int, shape: GridShape) -> np.ndarray:
    """A closed knot path placed as ``synth_knot`` places it."""
    rng = np.random.default_rng(seed)
    pts = knot_curve(KNOT_KINDS[seed % 3]) @ random_rotation(rng).T
    pts *= rng.uniform(0.88, 1.0)
    fitted = fit_points(pts, shape, margin=0.6)
    return np.vstack([fitted, fitted[:1]])


@pytest.mark.parametrize("lattice", [LatticeKind.TETRAHEDRAL, LatticeKind.CUBIC])
def test_rasterize_polyline_matches_loop(lattice):
    for seed in SEEDS:
        shape = GridShape(lattice, 10 + seed % 31)
        pts = knot_polyline(seed, shape)
        got = rasterize_polyline(pts, shape.m, shape)
        assert np.array_equal(got.keys, loop_rasterize_polyline(pts, shape.m, shape)), seed


@pytest.mark.parametrize("mesh", [sphere_mesh(12, 6), cube_surface_mesh()],
                         ids=["sphere", "cube"])
def test_voxelize_mesh_matches_loop(mesh):
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        m = 8 + seed % 17
        R = random_rotation(rng)
        verts = fit_points(mesh.vertices @ R.T, GridShape(LatticeKind.CUBIC, m), margin=1.0)
        keys, ns = loop_voxelize_mesh(verts, mesh.faces, m)
        assert np.array_equal(_subdivisions(verts[mesh.faces]), ns), seed
        assert np.array_equal(voxelize_mesh(mesh, m, R).keys, keys), seed


def test_fmp_active_keys_match_loop():
    layer = FMPLayer(LatticeKind.CUBIC, FMP_RATIO)
    meshes = [sphere_mesh(), cube_surface_mesh()]
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        grid = voxelize_mesh(meshes[seed % 2], 20, random_rotation(rng))
        regions = fmp_regions(20, FMP_RATIO, seed)
        out = fmp_forward(grid, layer, regions)
        assert np.array_equal(out.keys, loop_fmp_active_keys(grid, regions)), seed


@pytest.mark.parametrize("m", [2, 5, 7, 20])
def test_fmp_empty_and_full_grids_match_loop(m):
    shape = GridShape(LatticeKind.CUBIC, m)
    ground = np.array([0.5, -1.0])
    regions = fmp_regions(m, FMP_RATIO, seed=m)
    layer = FMPLayer(LatticeKind.CUBIC, FMP_RATIO)
    empty = SparseGrid.empty(shape, ground)
    full = SparseGrid.from_dense(DenseGrid(shape, np.ones((shape.num_sites, 2))), ground)
    for grid in (empty, full):
        out = fmp_forward(grid, layer, regions)
        assert np.array_equal(out.keys, loop_fmp_active_keys(grid, regions))
    assert fmp_forward(full, layer, regions).a == regions[0].shape[0] ** 3


def culprit(excinfo) -> tuple[int, ...]:
    """The voxel named by an out-of-grid error, whatever the int repr."""
    inner = re.search(r"voxel \((.*)\) outside", str(excinfo.value)).group(1)
    inner = re.sub(r"np\.int64\((-?\d+)\)", r"\1", inner)
    return tuple(int(c) for c in inner.split(","))


@pytest.mark.parametrize("lattice, pts, voxel", [
    # cubic: the third segment runs up z past the top face
    (LatticeKind.CUBIC, [[1, 1, 1], [5, 1, 1], [5, 5, 1], [5, 5, 14], [1, 1, 1]], (5, 5, 10)),
    # tetrahedral: inside the box, but the coordinate sum passes m - 1 = 9
    (LatticeKind.TETRAHEDRAL, [[1, 1, 1], [3, 1, 1], [3, 3, 1], [3, 3, 6]], (3, 3, 4)),
])
def test_rasterize_first_out_of_grid_voxel_matches_loop(lattice, pts, voxel):
    shape = GridShape(lattice, 10)
    pts = np.asarray(pts, dtype=float)
    with pytest.raises(ValueError, match="outside") as new:
        rasterize_polyline(pts, 10, shape)
    with pytest.raises(ValueError, match="outside") as old:
        loop_rasterize_polyline(pts, 10, shape)
    assert culprit(new) == culprit(old) == voxel
