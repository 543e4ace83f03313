import re

import numpy as np
import pytest

from latticenet.geometry import GridShape, LatticeKind, pack_sites
from latticenet.grid import DenseGrid, SparseGrid

from conftest import ALL_LATTICES, random_dense, random_sparse


def test_from_dense_all_zero():
    shape = GridShape(LatticeKind.SQUARE, 5)
    dense = DenseGrid(shape, np.zeros((25, 2)))
    grid = SparseGrid.from_dense(dense, np.zeros(2))
    assert grid.a == 0
    assert grid.rows.shape == (0, 2)


def test_from_dense_three_active_sites():
    shape = GridShape(LatticeKind.SQUARE, 6)
    vals = np.zeros((36, 1))
    for x, y in [(1, 1), (2, 2), (5, 5)]:
        vals[x * 6 + y] = 1.0
    grid = SparseGrid.from_dense(DenseGrid(shape, vals), np.zeros(1))
    assert grid.a == 3
    assert sorted(map(tuple, grid.sites())) == [(1, 1), (2, 2), (5, 5)]
    # 36 - 3 sites back out as zero
    dense = grid.to_dense()
    assert (dense.values == 0).all(axis=1).sum() == 33


def test_from_dense_single_site_differs_from_nonzero_ground():
    shape = GridShape(LatticeKind.TRIANGULAR, 4)
    g = np.array([2.0, -1.0])
    vals = np.tile(g, (10, 1))
    vals[3] = [2.0, 0.5]  # differs in one component only
    grid = SparseGrid.from_dense(DenseGrid(shape, vals), g)
    assert grid.a == 1
    assert grid.rows.shape == (1, 2)


def test_from_dense_ground_length_mismatch():
    shape = GridShape(LatticeKind.SQUARE, 3)
    dense = DenseGrid(shape, np.zeros((9, 2)))
    with pytest.raises(ValueError):
        SparseGrid.from_dense(dense, np.zeros(3))


def test_to_dense_of_empty_is_constant_ground():
    g = np.array([1.5, -2.0, 0.25])
    grid = SparseGrid.empty(GridShape(LatticeKind.TETRAHEDRAL, 5), g)
    dense = grid.to_dense()
    assert np.array_equal(dense.values, np.tile(g, (35, 1)))


@pytest.mark.parametrize("lattice", ALL_LATTICES)
@pytest.mark.parametrize("sparsity", [0.0, 0.2, 0.7, 1.0])
def test_round_trip_random(lattice, sparsity, rng):
    ground = rng.normal(size=2)
    dense = random_dense(lattice, 6, 2, sparsity, rng, ground)
    grid = SparseGrid.from_dense(dense, ground)
    back = grid.to_dense()
    assert np.allclose(back.values, dense.values)
    grid.check_invariants()


@pytest.mark.parametrize("lattice", ALL_LATTICES)
def test_bijection_invariant(lattice, rng):
    grid = random_sparse(lattice, 7, 3, 0.4, rng)
    grid.check_invariants()
    assert len(set(grid.keys.tolist())) == grid.a
    assert np.array_equal(grid.lookup(pack_sites(grid.sites())), np.arange(grid.a))


def test_from_dense_never_indexes_ground_sites(rng):
    ground = np.array([0.5, 1.0])
    dense = random_dense(LatticeKind.SQUARE, 6, 2, 0.3, rng, ground)
    grid = SparseGrid.from_dense(dense, ground)
    for row in grid.rows:
        assert not np.array_equal(row, ground)


def test_embed_identity(rng):
    grid = random_sparse(LatticeKind.CUBIC, 4, 1, 0.3, rng)
    out = grid.embed(grid.shape, (0, 0, 0))
    assert np.array_equal(out.keys, grid.keys)
    assert np.array_equal(out.rows, grid.rows)


def test_embed_planner_field(rng):
    """A 32-wide image block centered in the planner's 189 field."""
    grid = random_sparse(LatticeKind.SQUARE, 32, 3, 0.9, rng)
    field = GridShape(LatticeKind.SQUARE, 189)
    out = grid.embed(field, (78, 78))
    assert out.a == grid.a
    assert out.shape.m == 189
    assert np.array_equal(out.sites().min(axis=0), grid.sites().min(axis=0) + 78)


def test_embed_out_of_bounds():
    shape = GridShape(LatticeKind.SQUARE, 4)
    grid = SparseGrid.from_sites(shape, [[3, 3]], [[1.0]], np.zeros(1))
    # the message names plain integers, not numpy scalars
    want = "embed offset (1, 0) pushes site (4, 3) outside the size-4 square field"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        grid.embed(shape, (1, 0))
    with pytest.raises(ValueError, match="cannot embed square grid into triangular field"):
        grid.embed(GridShape(LatticeKind.TRIANGULAR, 8), (0, 0))
    with pytest.raises(ValueError, match="offset must have 2 coordinates"):
        grid.embed(GridShape(LatticeKind.SQUARE, 8), (0, 0, 0))
    # simplex sum violation
    tri = SparseGrid.from_sites(GridShape(LatticeKind.TRIANGULAR, 4), [[2, 1]], [[1.0]], np.zeros(1))
    with pytest.raises(ValueError):
        tri.embed(GridShape(LatticeKind.TRIANGULAR, 4), (1, 1))


def test_active_count():
    grid = SparseGrid.empty(GridShape(LatticeKind.SQUARE, 3), np.zeros(1))
    assert grid.a == 0
    grid2 = SparseGrid.from_sites(GridShape(LatticeKind.SQUARE, 6),
                                  [[1, 1], [2, 2], [5, 5]], np.ones((3, 1)), np.zeros(1))
    assert grid2.a == 3


@pytest.mark.parametrize("lattice", ALL_LATTICES)
def test_serialization_round_trip(lattice, rng):
    grid = random_sparse(lattice, 6, 3, 0.4, rng)
    grid = SparseGrid(grid.shape, grid.keys, grid.rows.astype(np.float32),
                      grid.ground.astype(np.float32))
    blob = grid.to_bytes()
    back = SparseGrid.from_bytes(blob)
    assert back.shape == grid.shape
    assert np.array_equal(back.keys, grid.keys)
    assert np.array_equal(back.rows, grid.rows)
    assert np.array_equal(back.ground, grid.ground)
    # header: magic, lattice code, m, n, a as little-endian u32
    assert blob[:4] == b"SGRD"


def test_serialization_bad_magic():
    with pytest.raises(ValueError):
        SparseGrid.from_bytes(b"XXXX" + b"\0" * 32)


def test_lookup(rng):
    grid = random_sparse(LatticeKind.SQUARE, 5, 1, 0.5, rng)
    rows = grid.lookup(grid.keys)
    assert np.array_equal(rows, np.arange(grid.a))
    assert grid.lookup(np.array([10**9])) == -1


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_empty_rows_take_the_ground_dtype(dtype):
    grid = SparseGrid.empty(GridShape(LatticeKind.CUBIC, 4), np.zeros(3, dtype))
    assert grid.rows.shape == (0, 3) and grid.rows.dtype == dtype
    none = SparseGrid.from_sites(grid.shape, np.empty((0, 3)), np.empty((0, 3), dtype),
                                 np.zeros(3, dtype))
    assert none.rows.shape == (0, 3) and none.rows.dtype == dtype
