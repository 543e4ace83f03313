import numpy as np
import pytest

from latticenet.errors import PlanError, SizeMismatchError
from latticenet.geometry import GridShape, LatticeKind, out_size
from latticenet.grid import DenseGrid, SparseGrid
from latticenet.ops import (
    FMP_RATIO,
    ConvLayer,
    FilterGeometry,
    FMPLayer,
    PoolLayer,
    build_gather,
    classifier_forward,
    conv_active_sites,
    conv_forward,
    fmp_forward,
    fmp_regions,
    pool_forward,
    relu_forward,
)

from conftest import ALL_LATTICES, random_dense, random_sparse
from oracles import brute_force_active, dense_conv, dense_fmp, dense_pool, dense_relu


def rand_conv(lattice, f, s, n_in, n_out, rng, bias=True):
    geom = FilterGeometry(lattice, f, s)
    W = rng.normal(size=(geom.volume * n_in, n_out))
    B = rng.normal(size=n_out) if bias else np.zeros(n_out)
    return ConvLayer(geom, n_in, n_out, W, B)


# ---------------------------------------------------------------------------
# step 1: active output sites


def test_fig_style_three_site_example():
    """3 active sites on a 6x6 grid: 2x2 filter yields 8 active in a 5x5."""
    shape = GridShape(LatticeKind.SQUARE, 6)
    grid = SparseGrid.from_sites(shape, [[1, 1], [2, 2], [5, 5]], np.ones((3, 1)), np.zeros(1))
    keys, out_shape = conv_active_sites(grid, FilterGeometry(LatticeKind.SQUARE, 2, 1))
    assert out_shape.m == 5
    assert keys.shape[0] == 8
    expected = brute_force_active({(1, 1), (2, 2), (5, 5)}, shape, 2, 1)
    got = {tuple(s) for s in SparseGrid(out_shape, keys, np.zeros((8, 1)), np.zeros(1)).sites()}
    assert got == expected


def test_single_interior_site_covered_f2():
    shape = GridShape(LatticeKind.SQUARE, 6)
    grid = SparseGrid.from_sites(shape, [[2, 2]], [[1.0]], np.zeros(1))
    keys, _ = conv_active_sites(grid, FilterGeometry(LatticeKind.SQUARE, 2, 1))
    assert keys.shape[0] == 4  # covered by exactly f^2 filter positions


def test_empty_input_empty_output():
    grid = SparseGrid.empty(GridShape(LatticeKind.CUBIC, 5), np.zeros(2))
    keys, _ = conv_active_sites(grid, FilterGeometry(LatticeKind.CUBIC, 2, 1))
    assert keys.shape[0] == 0


@pytest.mark.parametrize("lattice", ALL_LATTICES)
@pytest.mark.parametrize("f,s", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_active_set_soundness_exhaustive(lattice, f, s, rng):
    """Output activity == brute-force receptive-field intersection, m <= 6."""
    for m in range(f, 7):
        if (m - f) % s:
            continue
        grid = random_sparse(lattice, m, 1, 0.3, rng)
        keys, out_shape = conv_active_sites(grid, FilterGeometry(lattice, f, s))
        got = {tuple(x) for x in
               SparseGrid(out_shape, keys, np.zeros((len(keys), 1)), np.zeros(1)).sites()}
        active_in = {tuple(x) for x in grid.sites()}
        assert got == brute_force_active(active_in, grid.shape, f, s)


@pytest.mark.parametrize("lattice", ALL_LATTICES)
def test_coverage_monotonicity(lattice, rng):
    """For f >= 2, s = 1 every active input stays covered: a_out >= a_in."""
    for _ in range(5):
        grid = random_sparse(lattice, 7, 1, 0.2, rng)
        keys, _ = conv_active_sites(grid, FilterGeometry(lattice, 2, 1))
        assert keys.shape[0] >= grid.a


# ---------------------------------------------------------------------------
# step 2: gather matrix


def test_gather_empty():
    grid = SparseGrid.empty(GridShape(LatticeKind.SQUARE, 4), np.zeros(1))
    geom = FilterGeometry(LatticeKind.SQUARE, 2, 1)
    keys, oshape = conv_active_sites(grid, geom)
    plan = build_gather(grid, keys, geom, oshape)
    assert plan.Q.shape == (0, 4)


def test_gather_single_active_site():
    """One active value 2.0: each Q row holds it at its covering offset."""
    shape = GridShape(LatticeKind.SQUARE, 4)
    grid = SparseGrid.from_sites(shape, [[2, 2]], [[2.0]], np.zeros(1))
    geom = FilterGeometry(LatticeKind.SQUARE, 2, 1)
    keys, oshape = conv_active_sites(grid, geom)
    plan = build_gather(grid, keys, geom, oshape)
    assert plan.Q.shape == (4, 4)
    for i, u in enumerate(SparseGrid(oshape, keys, np.zeros((4, 1)), np.zeros(1)).sites()):
        row = plan.Q[i]
        k = geom.offsets.index((2 - u[0], 2 - u[1]))
        expect = np.zeros(4)
        expect[k] = 2.0
        assert np.array_equal(row, expect)


def test_gather_dense_equals_im2col(rng):
    """Fully dense input: Q rows match a dense im2col built by enumeration."""
    dense = random_dense(LatticeKind.SQUARE, 5, 2, 1.0, rng)
    grid = SparseGrid.from_dense(dense, np.zeros(2))
    geom = FilterGeometry(LatticeKind.SQUARE, 2, 1)
    keys, oshape = conv_active_sites(grid, geom)
    plan = build_gather(grid, keys, geom, oshape)
    from oracles import gather_positions
    pos = gather_positions(oshape, dense.shape, geom.offsets, 1)
    expected = dense.values[pos].reshape(pos.shape[0], -1)
    assert np.allclose(plan.Q, expected)


# ---------------------------------------------------------------------------
# step 3: convolution values


def test_conv_worked_example():
    shape = GridShape(LatticeKind.SQUARE, 4)
    grid = SparseGrid.from_sites(shape, [[2, 2]], [[2.0]], np.zeros(1))
    layer = ConvLayer(FilterGeometry(LatticeKind.SQUARE, 2, 1), 1, 1,
                      np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([0.5]))
    out = conv_forward(grid, layer)
    vals = {tuple(s): v for s, v in zip(map(tuple, out.sites()), out.rows[:, 0])}
    assert vals == {(2, 2): 2.5, (2, 1): 4.5, (1, 2): 6.5, (1, 1): 8.5}
    assert out.ground[0] == 0.5
    assert out.shape.m == 3


def test_conv_zero_ground_zero_bias_gives_zero_ground(rng):
    grid = random_sparse(LatticeKind.TRIANGULAR, 5, 2, 0.5, rng)
    layer = rand_conv(LatticeKind.TRIANGULAR, 2, 1, 2, 3, rng, bias=False)
    out = conv_forward(grid, layer)
    assert np.allclose(out.ground, 0.0)


def test_conv_feature_mismatch(rng):
    grid = random_sparse(LatticeKind.SQUARE, 4, 2, 0.5, rng)
    layer = rand_conv(LatticeKind.SQUARE, 2, 1, 3, 2, rng)
    with pytest.raises(ValueError, match="features"):
        conv_forward(grid, layer)


def test_conv_size_mismatch_propagates(rng):
    grid = random_sparse(LatticeKind.SQUARE, 4, 1, 0.5, rng)
    layer = rand_conv(LatticeKind.SQUARE, 3, 2, 1, 1, rng)
    with pytest.raises(SizeMismatchError):
        conv_forward(grid, layer)


@pytest.mark.parametrize("lattice", ALL_LATTICES)
@pytest.mark.parametrize("f,s", [(2, 1), (3, 2), (2, 2), (3, 1)])
@pytest.mark.parametrize("sparsity", [0.0, 0.15, 0.6, 1.0])
def test_conv_matches_dense_oracle(lattice, f, s, sparsity, rng):
    m = f + 2 * s  # solvable by construction
    ground = rng.normal(size=2)
    dense = random_dense(lattice, m, 2, sparsity, rng, ground)
    grid = SparseGrid.from_dense(dense, ground)
    layer = rand_conv(lattice, f, s, 2, 3, rng)
    out = conv_forward(grid, layer)
    expect = dense_conv(dense, f, s, layer.W, layer.B)
    assert np.allclose(out.to_dense().values, expect.values, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# pooling


def test_pool_all_inactive_passes_ground_through(rng):
    g = rng.normal(size=3)
    grid = SparseGrid.empty(GridShape(LatticeKind.CUBIC, 5), g)
    out = pool_forward(grid, PoolLayer(LatticeKind.CUBIC, 3, 2))
    assert out.a == 0
    assert np.array_equal(out.ground, g)
    assert out.shape.m == 2


def test_pool_regions_overlap_by_one():
    """MP3/2 on m=5: adjacent pooling regions share exactly one plane."""
    assert out_size(5, 3, 2) == 2
    r0 = set(range(0, 3))      # base positions of region 0 along one axis
    r1 = set(range(2, 5))      # region 1 starts at stride 2
    assert r0 & r1 == {2}


@pytest.mark.parametrize("lattice", ALL_LATTICES)
@pytest.mark.parametrize("p,s", [(2, 1), (3, 2), (2, 2)])
@pytest.mark.parametrize("sparsity", [0.0, 0.3, 1.0])
def test_pool_matches_dense_oracle(lattice, p, s, sparsity, rng):
    m = p + 2 * s
    ground = rng.normal(size=2)
    dense = random_dense(lattice, m, 2, sparsity, rng, ground)
    grid = SparseGrid.from_dense(dense, ground)
    out = pool_forward(grid, PoolLayer(lattice, p, s))
    expect = dense_pool(dense, p, s)
    assert np.allclose(out.to_dense().values, expect.values)


def test_pool_tie_routes_to_lowest_offset(rng):
    shape = GridShape(LatticeKind.SQUARE, 2)
    grid = SparseGrid.from_sites(shape, [[0, 0], [1, 1]], [[3.0], [3.0]], np.zeros(1))
    out, plan = pool_forward(grid, PoolLayer(LatticeKind.SQUARE, 2, 2), keep_plan=True)
    assert out.rows[0, 0] == 3.0
    assert plan.argmax_src[0, 0] == 0  # row of (0,0): offset (0,0) is canonical first


# ---------------------------------------------------------------------------
# FMP


def test_fmp_regions_m2():
    regions = fmp_regions(2, 1.59, seed=0)
    assert all(np.array_equal(r, [0]) for r in regions)


def test_fmp_regions_m20():
    regions = fmp_regions(20, FMP_RATIO, seed=42)
    for starts in regions:
        assert starts.shape[0] == 12          # floor(20 / 1.5874)
        assert starts[0] == 0
        assert starts[-1] == 18               # last region [18, 19]
        steps = np.diff(starts)
        assert set(steps.tolist()) <= {1, 2}


def test_fmp_regions_deterministic_per_seed():
    a = fmp_regions(20, FMP_RATIO, seed=7)
    b = fmp_regions(20, FMP_RATIO, seed=7)
    c = fmp_regions(20, FMP_RATIO, seed=8)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_fmp_infeasible_m3():
    with pytest.raises(PlanError):
        fmp_regions(3, FMP_RATIO, seed=0)


def test_fmp_uniform_input_uniform_output(rng):
    shape = GridShape(LatticeKind.CUBIC, 7)
    dense = DenseGrid(shape, np.full((shape.num_sites, 1), 2.5))
    grid = SparseGrid.from_dense(dense, np.zeros(1))
    layer = FMPLayer(LatticeKind.CUBIC, FMP_RATIO, seed=3)
    out = fmp_forward(grid, layer)
    assert np.allclose(out.rows, 2.5)


@pytest.mark.parametrize("sparsity", [0.0, 0.3, 1.0])
def test_fmp_matches_dense_oracle(sparsity, rng):
    ground = rng.normal(size=2)
    dense = random_dense(LatticeKind.CUBIC, 8, 2, sparsity, rng, ground)
    grid = SparseGrid.from_dense(dense, ground)
    layer = FMPLayer(LatticeKind.CUBIC, FMP_RATIO, seed=11)
    regions = fmp_regions(8, FMP_RATIO, seed=11)
    out = fmp_forward(grid, layer, regions)
    expect = dense_fmp(dense, regions)
    assert np.allclose(out.to_dense().values, expect.values)


def test_fmp_empty_grid_carries_ground():
    ground = np.array([0.25, -3.0])
    grid = SparseGrid.empty(GridShape(LatticeKind.CUBIC, 20), ground)
    out, plan = fmp_forward(grid, FMPLayer(LatticeKind.CUBIC, FMP_RATIO, seed=5), keep_plan=True)
    assert out.a == 0 and plan.argmax_src.shape == (0, 2)
    assert out.shape.m == 12
    assert np.array_equal(out.ground, ground)


@pytest.mark.parametrize("m", [2, 8, 20])
def test_fmp_site_at_far_edge_hits_last_region(m):
    regions = fmp_regions(m, FMP_RATIO, seed=9)
    last = regions[0].shape[0] - 1
    shape = GridShape(LatticeKind.CUBIC, m)
    corner = SparseGrid.from_sites(shape, np.array([[m - 1, m - 1, m - 1]]), np.array([[7.0]]),
                                   np.zeros(1))
    out = fmp_forward(corner, FMPLayer(LatticeKind.CUBIC, FMP_RATIO), regions)
    assert [tuple(s) for s in out.sites()] == [(last, last, last)]
    assert np.array_equal(out.rows, [[7.0]])
    # one face only: x = m - 1 meets the last region, y and z = 0 the first
    edge = SparseGrid.from_sites(shape, np.array([[m - 1, 0, 0]]), np.array([[1.0]]), np.zeros(1))
    out = fmp_forward(edge, FMPLayer(LatticeKind.CUBIC, FMP_RATIO), regions)
    assert [tuple(s) for s in out.sites()] == [(last, 0, 0)]


def test_fmp_rejects_non_cubic(rng):
    with pytest.raises(ValueError):
        FMPLayer(LatticeKind.TETRAHEDRAL)
    grid = random_sparse(LatticeKind.SQUARE, 5, 1, 0.5, rng)
    layer = FMPLayer(LatticeKind.CUBIC)
    with pytest.raises(ValueError):
        fmp_forward(grid, layer)


def test_fmp_ladder_from_scale_20():
    """Iterating floor(m / 2^(2/3)) from 20 reaches size 1 in 5 levels."""
    from latticenet.ops import fmp_out_size
    m, levels = 20, 0
    while m > 1:
        m = fmp_out_size(m, FMP_RATIO)
        levels += 1
    assert levels == 5


# ---------------------------------------------------------------------------
# relu and classifier


def test_relu_negative_ground_zeroed(rng):
    grid = SparseGrid.empty(GridShape(LatticeKind.SQUARE, 3), np.array([-1.0, 2.0]))
    out = relu_forward(grid)
    assert np.array_equal(out.ground, [0.0, 2.0])


def test_relu_positive_identity(rng):
    grid = random_sparse(LatticeKind.CUBIC, 4, 2, 0.5, rng)
    grid = SparseGrid(grid.shape, grid.keys, np.abs(grid.rows) + 0.1, grid.ground)
    out = relu_forward(grid)
    assert np.array_equal(out.rows, grid.rows)
    assert np.array_equal(out.keys, grid.keys)


@pytest.mark.parametrize("lattice", ALL_LATTICES)
def test_relu_matches_dense_oracle(lattice, rng):
    ground = rng.normal(size=2)
    dense = random_dense(lattice, 6, 2, 0.4, rng, ground)
    grid = SparseGrid.from_dense(dense, ground)
    out = relu_forward(grid)
    assert np.allclose(out.to_dense().values, dense_relu(dense).values)


def test_classifier_inactive_site_uses_ground(rng):
    g = rng.normal(size=4)
    grid = SparseGrid.empty(GridShape(LatticeKind.SQUARE, 1), g)
    layer = rand_conv(LatticeKind.SQUARE, 1, 1, 4, 3, rng)
    logits = classifier_forward(grid, layer)
    assert np.allclose(logits, g @ layer.W + layer.B)


def test_classifier_equals_f1_conv(rng):
    shape = GridShape(LatticeKind.TETRAHEDRAL, 1)
    grid = SparseGrid.from_sites(shape, [[0, 0, 0]], rng.normal(size=(1, 4)), np.zeros(4))
    layer = rand_conv(LatticeKind.TETRAHEDRAL, 1, 1, 4, 5, rng)
    logits = classifier_forward(grid, layer)
    conv_out = conv_forward(grid, layer)
    assert np.allclose(logits, conv_out.rows[0])


def test_classifier_identity_weights(rng):
    shape = GridShape(LatticeKind.SQUARE, 1)
    grid = SparseGrid.from_sites(shape, [[0, 0]], [[0.0, 1.0, 0.0]], np.zeros(3))
    layer = ConvLayer(FilterGeometry(LatticeKind.SQUARE, 1, 1), 3, 3,
                      np.eye(3), np.array([0.1, 0.2, 0.3]))
    logits = classifier_forward(grid, layer)
    assert np.allclose(logits, [0.1, 1.2, 0.3])


def test_classifier_rejects_wide_grid(rng):
    grid = random_sparse(LatticeKind.SQUARE, 3, 2, 0.5, rng)
    layer = rand_conv(LatticeKind.SQUARE, 1, 1, 2, 2, rng)
    with pytest.raises(ValueError, match="spatial size 1"):
        classifier_forward(grid, layer)


# ---------------------------------------------------------------------------
# ground-state induction and determinism


@pytest.mark.parametrize("lattice", ALL_LATTICES)
def test_ground_state_induction(lattice, rng):
    """Empty input -> empty output whose dense view is the mapped ground."""
    g = rng.normal(size=2)
    grid = SparseGrid.empty(GridShape(lattice, 5), g)
    layer = rand_conv(lattice, 2, 1, 2, 3, rng)
    out = conv_forward(grid, layer)
    assert out.a == 0
    expected = np.tile(g, layer.geometry.volume) @ layer.W + layer.B
    assert np.allclose(out.to_dense().values, expected)


def test_forward_bit_determinism(rng):
    grid = random_sparse(LatticeKind.CUBIC, 6, 2, 0.3, rng)
    layer = rand_conv(LatticeKind.CUBIC, 2, 1, 2, 4, rng)
    a = conv_forward(grid, layer)
    b = conv_forward(grid, layer)
    assert np.array_equal(a.rows, b.rows)
    assert np.array_equal(a.keys, b.keys)
