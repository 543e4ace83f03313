"""The whole-array rasterizer, voxelizer (through its occupancy table and
through the sort past the rulebook's box caps) and FMP active-site step
against the per-segment, per-face and per-site loops they replace
(oracles.py), space-time strokes sampled in one pass against one
rasterization per stroke, coordinate-major fitting and path sampling
(knots and strokes whole, and ragged one-step paths) against
the row-major forms,
stacks of polylines and of point sets against each one alone, knots
built a stack at a time against knots built one at a time,
the knot rotation on Python floats against the one on numpy scalars,
embedding by packed offset against unpack/offset/pack, augmentation with
one sort against the two-sort form, training with the running-max pool
argmax and the in-place SGD step against training with the masked-store
argmax and the copying step, training with the pool and SGD step in small
tiles against training with the whole-array pool and the copying step,
and training with the table rulebook against training with the
searchsorted rulebook.

Equality is exact: the same active keys for every seed, and for meshes the
same per-face subdivision counts, so that a different edge-length formula
cannot hide behind voxel rounding; the same fitted values and augmented
rows, bit for bit; the same epoch rows, checkpoint bytes and evaluation
outputs, byte for byte.
"""

import re

import numpy as np
import pytest

from latticenet import autograd, ingest, ops, train
from latticenet.geometry import MAX_COORD, GridShape, LatticeKind
from latticenet.grid import DenseGrid, GridBatch, SparseGrid
from latticenet.ingest import (
    KNOT_KINDS,
    StrokeSample,
    TriangleMesh,
    _fit_coords,
    _path_keys,
    _subdivisions,
    fit_points,
    knot_curve,
    knot_dataset,
    random_rotation,
    rasterize_polyline,
    strokes_to_spacetime,
    synth_knot,
    voxelize_mesh,
)
from latticenet.netspec import parse, plan
from latticenet.network import Network
from latticenet.ops import FMPLayer, fmp_forward, fmp_regions
from latticenet.train import AffineParams, TrainConfig, augment_grid, evaluate, fit

from conftest import (
    ALL_LATTICES,
    count_calls,
    cube_surface_mesh,
    random_sparse,
    sphere_mesh,
    torus_mesh,
)
from oracles import (
    copying_sgd_step,
    loop_fmp_active_keys,
    loop_rasterize_polyline,
    loop_voxelize_mesh,
    numpy_scalar_rotation,
    per_stroke_spacetime,
    putmask_max_pool,
    row_major_fit_points,
    row_major_knot_keys,
    row_major_path_keys,
    row_major_spacetime_keys,
    searchsorted_window_rulebook,
    two_sort_augment_grid,
    unpacked_embed,
    untiled_max_pool,
)

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
        got = rasterize_polyline(pts, shape.m, lattice)
        assert np.array_equal(got.keys, loop_rasterize_polyline(pts, shape.m, lattice)), seed


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


def graded_mesh() -> TriangleMesh:
    """30 stacked triangles whose size grows from 1/25 to 1 of the mesh's,
    and one zero-area face whose corners coincide."""
    size = np.linspace(0.04, 1.0, 30)
    corner = np.stack([np.zeros(30), np.zeros(30), np.linspace(0, 0.3, 30)], axis=1)
    verts = np.concatenate([corner, corner + size[:, None] * [1, 0, 0],
                            corner + size[:, None] * [0.3, 1, 0.2], [[0, 0.5, 0]] * 3])
    faces = np.append(np.arange(90).reshape(3, 30).T, [[90, 91, 92]], axis=0)
    return TriangleMesh(verts, faces)


def check_voxelize(mesh, m, R=None, fit=True, lattice=LatticeKind.CUBIC):
    """``voxelize_mesh`` against the per-face loop; returns the counts n.
    A fitted mesh lies inside the tetrahedral simplex, where the loop's
    clip to the cube changes nothing."""
    verts = mesh.vertices if R is None else mesh.vertices @ R.T
    if fit:
        verts = fit_points(verts, GridShape(lattice, m), margin=1.0)
    keys, ns = loop_voxelize_mesh(verts, mesh.faces, m)
    assert np.array_equal(_subdivisions(verts[mesh.faces]), ns)
    assert np.array_equal(voxelize_mesh(mesh, m, R, fit=fit, lattice=lattice).keys, keys)
    return ns


@pytest.mark.parametrize("m", [12, 18, 28])
def test_voxelize_seeded_tori_match_loop(m):
    for seed in range(8):
        rng = np.random.default_rng(seed)
        check_voxelize(torus_mesh(rng.uniform(0.15, 0.6)), m, random_rotation(rng))


def corner_mesh() -> TriangleMesh:
    """Two small triangles at opposite corners of the mesh's box: a few
    dozen samples whose box, fitted, spans nearly the whole field."""
    verts = [[0, 0, 0], [0.02, 0, 0], [0, 0.02, 0], [1, 1, 1], [0.98, 1, 1], [1, 0.98, 1]]
    return TriangleMesh(verts, [[0, 1, 2], [3, 4, 5]])


@pytest.mark.parametrize("lattice", [LatticeKind.CUBIC, LatticeKind.TETRAHEDRAL])
@pytest.mark.parametrize("caps", ["rulebook", "zero"])
def test_voxelize_table_and_sort_match_loop(lattice, caps, monkeypatch):
    """Seeded tori at fields 6-64 deduplicate through the occupancy table
    under the rulebook's box caps, and through the sort with the caps at
    0; the corner mesh's box passes the caps at fields 150 and 300 and
    sorts.  The sort goes through ``_occupancy_grid``, which counts it."""
    if caps == "zero":
        monkeypatch.setattr(ops, "BOX_CELLS_PER_CANDIDATE", 0)
    sorts = count_calls(monkeypatch, ingest, "_occupancy_grid")
    fields = [6, 9, 14, 18, 27, 40, 64]
    for seed, m in enumerate(fields):
        rng = np.random.default_rng(seed)
        check_voxelize(torus_mesh(rng.uniform(0.15, 0.6)), m, random_rotation(rng), lattice=lattice)
    assert sorts[0] == (0 if caps == "rulebook" else len(fields))
    for m in (150, 300):
        check_voxelize(corner_mesh(), m, lattice=lattice)
    assert sorts[0] == (0 if caps == "rulebook" else len(fields)) + 2


@pytest.mark.parametrize("m", [18, 40])
def test_voxelize_many_subdivision_counts_match_loop(m):
    for seed in range(4):
        ns = check_voxelize(graded_mesh(), m, random_rotation(np.random.default_rng(seed)))
        assert np.unique(ns).shape[0] >= 20 and ns[-1] == 1, (seed, np.unique(ns))


def test_voxelize_without_rotation_or_fit_matches_loop():
    mesh = graded_mesh()
    check_voxelize(mesh, 24)
    # grid coordinates as given: part of the mesh lies outside the field
    # and is clipped to its faces
    placed = TriangleMesh(mesh.vertices * 30 - [8, 3, -2], mesh.faces)
    assert (placed.vertices < 0).any() and (placed.vertices > 23).any()
    ns = check_voxelize(placed, 24, fit=False)
    assert np.unique(ns).shape[0] >= 20
    torus = torus_mesh(0.4)
    placed = TriangleMesh(torus.vertices * 9 + 4, torus.faces)
    check_voxelize(placed, 16, random_rotation(np.random.default_rng(3)), fit=False)



def test_voxelize_points_on_tenths_match_loop():
    # vertices on a 0.1 grid put many points within an ulp of a voxel
    # boundary, so a sampler that adds A, (u/n)(B-A) and (v/n)(C-A) in
    # another order rounds some of them into other voxels
    for seed in range(20):
        rng = np.random.default_rng(seed)
        mesh = TriangleMesh(rng.integers(0, 120, size=(30, 3)) / 10, rng.integers(0, 30, size=(40, 3)))
        check_voxelize(mesh, 14, fit=False)

def test_fmp_active_keys_match_loop():
    layer = FMPLayer()
    meshes = [sphere_mesh(), cube_surface_mesh()]
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        grid = voxelize_mesh(meshes[seed % 2], 20, random_rotation(rng))
        regions = fmp_regions(20, seed)
        out = fmp_forward(grid, layer, regions)
        assert np.array_equal(out.keys, loop_fmp_active_keys(grid, regions)), seed


@pytest.mark.parametrize("m", [2, 5, 7, 20])
def test_fmp_empty_and_full_grids_match_loop(m):
    shape = GridShape(LatticeKind.CUBIC, m)
    ground = np.array([0.5, -1.0])
    regions = fmp_regions(m, seed=m)
    layer = FMPLayer()
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
    pts = np.asarray(pts, dtype=float)
    with pytest.raises(ValueError, match="outside") as new:
        rasterize_polyline(pts, 10, lattice)
    with pytest.raises(ValueError, match="outside") as old:
        loop_rasterize_polyline(pts, 10, lattice)
    assert culprit(new) == culprit(old) == voxel


def polyline_stack(rng, K: int, d: int, lo: float, hi: float, one_step: bool) -> np.ndarray:
    """K polylines of one random length (one point, one time in five),
    from uniform starts in ``[lo, hi)``: walks whose every step is under
    0.44 in each coordinate, or points anywhere in that range."""
    P = 1 if rng.random() < 0.2 else int(rng.integers(2, 30))
    if not one_step:
        return rng.uniform(lo, hi, size=(K, P, d))
    steps = rng.uniform(-0.44, 0.44, size=(K, P, d))
    steps[:, 0] = rng.uniform(lo, hi, size=(K, d))
    return np.cumsum(steps, axis=1)


@pytest.mark.parametrize("lattice, inside, hi", [
    (LatticeKind.CUBIC, (2.0, 9.0), 11.6), (LatticeKind.TETRAHEDRAL, (1.0, 2.2), 4.2),
    (LatticeKind.SQUARE, (2.0, 9.0), 11.6), (LatticeKind.TRIANGULAR, (1.5, 3.5), 6.2),
])
def test_stacked_rasterize_polyline_matches_loop(lattice, inside, hi):
    """A stack of K = 1 .. 6 polylines gives one batch whose grid j is
    polyline j's, through both sampler branches; a stack that leaves the
    grid (drawn up to ``hi`` one time in four) names the voxel that the
    polylines rasterized one at a time name."""
    shape = GridShape(lattice, 12)
    seen = dict.fromkeys(["one_step", "gathered", "outside"], 0)
    for seed in range(160):
        rng = np.random.default_rng(seed)
        K = 1 + seed % 6
        one_step = seed % 2 == 0
        lo, top = (-0.6, hi) if seed % 4 == 3 else inside
        stack = polyline_stack(rng, K, lattice.ndim, lo, top, one_step)
        try:
            want = [loop_rasterize_polyline(p, shape.m, lattice) for p in stack]
        except ValueError:
            with pytest.raises(ValueError, match="outside") as old:
                for p in stack:
                    loop_rasterize_polyline(p, shape.m, lattice)
            with pytest.raises(ValueError, match="outside") as new:
                rasterize_polyline(stack, shape.m, lattice)
            assert culprit(new) == culprit(old), seed
            seen["outside"] += 1
            continue
        batch = rasterize_polyline(stack, shape.m, lattice)
        assert isinstance(batch, GridBatch) and batch.B == K and batch.shape == shape, seed
        assert batch.table.dtype == np.float32 and (batch.rows == 1).all(), seed
        assert batch.table.shape == (batch.a + 1, 1) and (batch.ground == 0).all(), seed
        for j in range(K):
            assert np.array_equal(batch.grid(j).keys, want[j]), (seed, j)
        seen["one_step" if one_step or stack.shape[1] == 1 else "gathered"] += 1
    assert min(seen.values()) >= 20, seen


def test_stack_wider_than_one_key_range_matches_one_at_a_time():
    """More grids than fit end to end in a key range are rasterized one at
    a time, into the same batch."""
    m = MAX_COORD // 2
    stack = np.random.default_rng(0).uniform(m - 40.0, m - 1.0, size=(3, 5, 3))
    batch = rasterize_polyline(stack, m)
    assert batch.B == 3
    for j in range(3):
        assert np.array_equal(batch.grid(j).keys, loop_rasterize_polyline(stack[j], m))
    stack[1, 2, 0] = m + 0.5
    with pytest.raises(ValueError, match="outside") as new:
        rasterize_polyline(stack, m)
    with pytest.raises(ValueError, match="outside") as old:
        loop_rasterize_polyline(stack[1], m)
    assert culprit(new) == culprit(old)


@pytest.mark.parametrize("margin", [0.0, 0.6, 1.0])
@pytest.mark.parametrize("lattice", ALL_LATTICES)
def test_stacked_fit_matches_fitting_each_set_alone(lattice, margin):
    """A (d, K, P) stack of point sets, some of one point or flat in one
    coordinate, fits each set to the values it gets alone, bit for bit."""
    d = lattice.ndim
    for seed in range(60):
        rng = np.random.default_rng(seed)
        shape = GridShape(lattice, 6 + seed % 37)
        K, P = 1 + seed % 5, 1 if seed % 7 == 0 else int(rng.integers(2, 41))
        stack = rng.normal(size=(d, K, P)) * rng.uniform(0.01, 50.0, size=(1, K, 1))
        stack += rng.uniform(-9, 9, size=(d, K, 1))
        if seed % 3 == 1:
            stack[seed % d, seed % K] = stack[seed % d, seed % K, 0]
        got = _fit_coords(stack, shape, margin)
        assert got.shape == stack.shape, seed
        for j in range(K):
            alone = _fit_coords(np.ascontiguousarray(stack[:, j]), shape, margin)
            assert got[:, j].tobytes() == alone.tobytes(), (seed, j)
            want = row_major_fit_points(stack[:, j].T, shape, margin)
            assert got[:, j].T.tobytes() == np.ascontiguousarray(want).tobytes(), (seed, j)


@pytest.mark.parametrize("lattice", [LatticeKind.TETRAHEDRAL, LatticeKind.CUBIC])
@pytest.mark.parametrize("m", [6, 14, 60])
def test_knot_dataset_matches_sequential_synth_knot(lattice, m):
    """Knots built in stacks, with chunk boundaries inside classes, give
    the keys and labels of knots drawn one ``synth_knot`` at a time, and
    leave the generator in the same state."""
    for per_class in range(1, 10):
        rng = np.random.default_rng(per_class)
        got = knot_dataset(m, per_class, rng, lattice=lattice)
        seq = np.random.default_rng(per_class)
        want = [synth_knot(kind, m, seq, lattice) for kind in KNOT_KINDS for _ in range(per_class)]
        assert len(got) == len(want) == 3 * per_class
        for a, b in zip(got, want):
            assert a.label == b.label and a.grid.shape == b.grid.shape
            assert np.array_equal(a.grid.keys, b.grid.keys), per_class
            assert np.array_equal(a.grid.rows, b.grid.rows) and a.grid.rows.dtype == b.grid.rows.dtype
        assert rng.bit_generator.state == seq.bit_generator.state, per_class


def random_strokes(rng) -> StrokeSample:
    """One to five pen strokes of one to sixteen points, some of one point."""
    return StrokeSample([np.cumsum(rng.normal(0.0, 0.1, size=(int(rng.integers(1, 17)), 2)), axis=0)
                         + rng.uniform(0.0, 1.0, size=2)
                         for _ in range(int(rng.integers(1, 6)))])


def test_strokes_to_spacetime_matches_per_stroke():
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        sample = random_strokes(rng)
        m = 8 + seed % 41
        assert np.array_equal(strokes_to_spacetime(sample, m).keys,
                              per_stroke_spacetime(sample, m).keys), seed


@pytest.mark.parametrize("lattice, hi", [(LatticeKind.CUBIC, 11.6), (LatticeKind.TETRAHEDRAL, 4.2)])
def test_paths_match_one_rasterization_per_path(lattice, hi):
    """Several paths sampled together give each path's voxels, or the first
    out-of-grid voxel of the first path that has one."""
    shape = GridShape(lattice, 12)
    outside = 0
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        paths = [rng.uniform(-0.6, hi, size=(int(rng.integers(1, 6)), 3))
                 for _ in range(int(rng.integers(1, 5)))]
        starts = np.cumsum([0] + [len(p) for p in paths[:-1]])
        try:
            want = np.concatenate([loop_rasterize_polyline(p, shape.m, lattice) for p in paths])
        except ValueError:
            with pytest.raises(ValueError, match="outside") as old:
                for p in paths:
                    loop_rasterize_polyline(p, shape.m, lattice)
            with pytest.raises(ValueError, match="outside") as new:
                _path_keys(np.vstack(paths).T, starts, shape)
            assert culprit(new) == culprit(old), seed
            outside += 1
            continue
        got, ends = _path_keys(np.vstack(paths).T, starts, shape)
        assert np.array_equal(np.unique(got), np.unique(want)), seed
        bounds = np.concatenate([[0], ends])
        for j, p in enumerate(paths):
            own = np.unique(got[bounds[j]:bounds[j + 1]])
            assert np.array_equal(own, loop_rasterize_polyline(p, shape.m, lattice)), (seed, j)
    assert 20 <= outside <= 80, outside


@pytest.mark.parametrize("margin", [0.0, 0.6, 1.0])
@pytest.mark.parametrize("lattice", ALL_LATTICES)
def test_fit_points_matches_row_major_bit_for_bit(lattice, margin):
    """Random clouds of 1 to 40 points (one-point clouds and clouds flat in
    one coordinate included) and whole knots fit to the same values."""
    d = lattice.ndim
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        shape = GridShape(lattice, 6 + seed % 37)
        if seed % 10 == 9:
            pts = knot_curve(KNOT_KINDS[seed % 3])[:, :d] @ random_rotation(rng)[:d, :d].T
        else:
            size = 1 if seed % 5 == 0 else int(rng.integers(2, 41))
            pts = rng.normal(size=(size, d)) * rng.uniform(0.01, 50.0) + rng.uniform(-9, 9, d)
            if seed % 7 == 3:
                pts[:, seed % d] = pts[0, seed % d]
        got = fit_points(pts, shape, margin)
        want = row_major_fit_points(pts, shape, margin)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), seed


@pytest.mark.parametrize("lattice, m, margin", [
    (LatticeKind.CUBIC, 3, 1.0), (LatticeKind.TETRAHEDRAL, 3, 0.6),
    (LatticeKind.TRIANGULAR, 4, 1.0), (LatticeKind.SQUARE, 1, 0.0),
])
def test_fit_points_rejects_a_grid_without_room_like_row_major(lattice, m, margin):
    pts = np.random.default_rng(0).normal(size=(5, lattice.ndim))
    with pytest.raises(ValueError) as new:
        fit_points(pts, GridShape(lattice, m), margin)
    with pytest.raises(ValueError) as old:
        row_major_fit_points(pts, GridShape(lattice, m), margin)
    assert str(new.value) == str(old.value)


def one_step_paths(rng, d: int, hi: float) -> list:
    """One to four random walks from uniform starts in ``[-0.6, hi)``, of
    one point (three times in ten) or two to forty, whose every step is
    under 0.44 in each coordinate: no segment is sampled between its ends."""
    sizes = [1 if rng.random() < 0.3 else int(rng.integers(2, 41))
             for _ in range(int(rng.integers(1, 5)))]
    return [np.cumsum(np.vstack([rng.uniform(-0.6, hi, size=(1, d)),
                                 rng.uniform(-0.44, 0.44, size=(n - 1, d))]), axis=0)
            for n in sizes]


@pytest.mark.parametrize("lattice, hi", [
    (LatticeKind.CUBIC, 11.6), (LatticeKind.TETRAHEDRAL, 4.2),
    (LatticeKind.SQUARE, 11.6), (LatticeKind.TRIANGULAR, 6.2),
])
def test_path_keys_match_row_major(lattice, hi):
    """Several paths sampled together, of two families that both cross the
    grid's edge: one to five points anywhere in the grid, whose segments
    are gathered sample by sample (unless every path is one point), and the
    walks of :func:`one_step_paths`, whose every segment is one step, with
    one-point paths first, in the middle and last.  The same keys in the
    same order, or the same first out-of-grid voxel."""
    shape = GridShape(lattice, 12)
    seen = dict.fromkeys(["gathered", "one_step", "outside", "one_step_outside",
                          "one_point", "several", "first", "middle", "last"], 0)
    for seed in range(200):
        rng = np.random.default_rng(seed)
        spread = [rng.uniform(-0.6, hi, size=(int(rng.integers(1, 6)), lattice.ndim))
                  for _ in range(int(rng.integers(1, 5)))]
        walks = one_step_paths(rng, lattice.ndim, hi)
        single = [len(p) == 1 for p in walks]
        seen["several"] += len(walks) > 1
        seen["first"] += len(walks) > 1 and single[0]
        seen["middle"] += any(single[1:-1])
        seen["last"] += len(walks) > 1 and single[-1]
        seen["one_point"] += any(len(p) == 1 for p in spread)
        for paths in (spread, walks):
            one_step = all(np.abs(np.diff(p, axis=0)).max(initial=0.0) / 0.45 <= 1
                           for p in paths)
            assert one_step or paths is spread, seed
            seen["one_step" if one_step else "gathered"] += 1
            points = np.vstack(paths)
            starts = np.cumsum([0] + [len(p) for p in paths[:-1]])
            try:
                want = row_major_path_keys(points, starts, shape)
            except ValueError as e:
                with pytest.raises(ValueError, match="outside") as new:
                    _path_keys(np.ascontiguousarray(points.T), starts, shape)
                assert str(new.value) == str(e), seed
                seen["outside" if paths is spread else "one_step_outside"] += 1
                continue
            got, ends = _path_keys(np.ascontiguousarray(points.T), starts, shape)
            assert got.dtype == want.dtype and np.array_equal(got, want), seed
            own = [row_major_path_keys(p, np.zeros(1, np.int64), shape) for p in paths]
            assert np.array_equal(np.diff(ends, prepend=0), [len(k) for k in own]), seed
    assert 40 <= seen["outside"] <= 160 and seen["one_point"] >= 40, seen
    assert seen["gathered"] >= 150 and seen["one_step"] >= 200, seen
    assert 30 <= seen["one_step_outside"] <= 170 and seen["several"] >= 100, seen
    assert min(seen["first"], seen["middle"], seen["last"]) >= 20, seen


@pytest.mark.parametrize("lattice, m", [
    (LatticeKind.TETRAHEDRAL, 14), (LatticeKind.TETRAHEDRAL, 40),
    (LatticeKind.CUBIC, 14), (LatticeKind.CUBIC, 30),
])
def test_knot_dataset_matches_row_major(lattice, m):
    for seed in SEEDS:
        got = knot_dataset(m, 1, np.random.default_rng(seed), lattice=lattice)
        rng = np.random.default_rng(seed)
        for kind, sample in zip(KNOT_KINDS, got):
            assert sample.grid.shape == GridShape(lattice, m)
            assert np.array_equal(sample.grid.keys, row_major_knot_keys(kind, m, rng, lattice)), seed


def test_random_rotation_matches_numpy_scalar_form():
    for seed in range(10_000):
        got = random_rotation(np.random.default_rng(seed))
        want = numpy_scalar_rotation(np.random.default_rng(seed))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), seed


def test_strokes_to_spacetime_matches_row_major():
    for seed in SEEDS:
        sample = random_strokes(np.random.default_rng(seed))
        for m in (8 + seed % 41, 17, 40):
            assert np.array_equal(strokes_to_spacetime(sample, m).keys,
                                  row_major_spacetime_keys(sample, m)), (seed, m)


def check_embed(grid: SparseGrid, field: GridShape, offset, scans) -> str:
    """``grid.embed`` against ``unpacked_embed``: the same keys and rows, or
    the same error message.  Returns "fits" when the grid's shape fits in
    the field at the offset, and then ``GridShape.first_outside`` (counted
    by ``scans``) must not be called; else "inside" or "outside", after one
    such call."""
    reach = sum(offset) if field.lattice.is_simplex else max(offset)
    fits = min(offset) >= 0 and reach + grid.shape.m <= field.m
    before = scans[0]
    try:
        want = unpacked_embed(grid, field, offset)
    except ValueError as e:
        with pytest.raises(ValueError) as new:
            grid.embed(field, offset)
        assert str(new.value) == str(e) and not fits
        return "outside"
    got = grid.embed(field, offset)
    assert scans[0] == before + (not fits)
    assert got.shape == want.shape and got.keys.dtype == np.int64
    assert np.array_equal(got.keys, want.keys)
    assert got.rows.tobytes() == want.rows.tobytes()
    assert got.ground.tobytes() == want.ground.tobytes()
    return "fits" if fits else "inside"


@pytest.mark.parametrize("lattice", ALL_LATTICES)
def test_embed_matches_unpack_offset_pack(lattice, monkeypatch):
    """Offsets from one below the grid's lowest coordinates up to the
    field's spare size, and offsets along one axis up to the spare size,
    which always fit, into fields of the grid's size up to five more
    (:func:`check_embed`)."""
    d = lattice.ndim
    scans = count_calls(monkeypatch, GridShape, "first_outside")
    seen = dict.fromkeys(["fits", "inside", "outside"], 0)
    negative = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        grid = random_sparse(lattice, 3 + seed % 8, 2, rng.uniform(0.0, 0.1), rng)
        field = GridShape(lattice, grid.shape.m + int(rng.integers(0, 6)))
        spare = field.m - grid.shape.m
        low = grid.sites().min(axis=0) if grid.a else np.zeros(d, np.int64)
        offset = tuple(int(rng.integers(-c - 1, spare + 1)) for c in low)
        along = tuple(int(rng.integers(0, spare + 1)) * (i == seed % d) for i in range(d))
        assert check_embed(grid, field, along, scans) == "fits", seed
        outcome = check_embed(grid, field, offset, scans)
        seen[outcome] += 1
        negative += outcome != "outside" and min(offset) < 0 and grid.a > 0
    ok = seen["fits"] + seen["inside"]
    assert ok >= 50 and seen["outside"] >= 50 and negative >= 8, (seen, negative)
    fits = 200 + seen["fits"]  # with every offset along one axis
    assert min(fits, seen["inside"] + seen["outside"]) >= 50, seen


@pytest.mark.parametrize("lattice", ALL_LATTICES)
def test_augment_grid_matches_two_sort(lattice):
    """Shrinking, shearing jitter makes sites collide; the merged rows and
    keys equal the two-sort form's bit for bit.  That form draws each shear
    entry on its own, so this also pins the one draw of all the entries,
    which leaves the generator where the scalar draws leave it."""
    jitter = AffineParams(rotate_deg=40.0, scale=0.6, shear=0.3, translate=1.5)
    merged = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        grid = random_sparse(lattice, 9, 3, 0.4, rng, ground=rng.normal(size=3))
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = augment_grid(grid, jitter, got_rng)
        want = two_sort_augment_grid(grid, jitter, want_rng)
        assert got_rng.random() == want_rng.random(), seed
        assert np.array_equal(got.keys, want.keys), seed
        assert got.rows.dtype == want.rows.dtype and got.rows.tobytes() == want.rows.tobytes(), seed
        assert got.ground.tobytes() == want.ground.tobytes(), seed
        # a row that is no input row is the max of colliding rows
        inputs = {r.tobytes() for r in grid.rows}
        merged += sum(r.tobytes() not in inputs for r in got.rows)
    assert merged >= 20


def fit_save_load_evaluate(arch, tmp_path):
    """Epoch rows, checkpoint bytes and augmented-eval outputs of one run on
    a size-6 cubic field: two epochs with momentum and weight decay, a
    checkpoint, and a two-repeat evaluation of the loaded network."""
    from latticenet.ingest import knot_dataset

    spec = plan(parse(arch, LatticeKind.CUBIC, 1), input_size=6)
    net = Network(spec, 3, np.random.default_rng(0), fmp_eval_seed=7)
    data = knot_dataset(6, 4, np.random.default_rng(5), lattice=LatticeKind.CUBIC)
    cfg = TrainConfig(epochs=2, batch_size=4, lr=0.05, momentum=0.9, weight_decay=1e-3, seed=1)
    rows = [log.row() for log in fit(net, data, data[::2], cfg)]
    path = tmp_path / "net.lnck"
    net.save(path)
    jitter = AffineParams(rotate_deg=15.0, translate=0.5)
    report = evaluate(Network.load(path), data, repeats=2,
                      augment=lambda g, r: augment_grid(g, jitter, r),
                      rng=np.random.default_rng(2))
    return rows, path.read_bytes(), report.outputs.tobytes()


@pytest.mark.parametrize("arch", ["4C2-MP3/2-6C2-output", "6C2-FMP-8C2-FMP-output"])
def test_training_matches_masked_argmax_and_copying_sgd(arch, tmp_path, monkeypatch):
    ours = fit_save_load_evaluate(arch, tmp_path)
    monkeypatch.setattr(ops, "_max_pool", putmask_max_pool)
    monkeypatch.setattr(train, "sgd_step", copying_sgd_step)
    assert ours == fit_save_load_evaluate(arch, tmp_path)


@pytest.mark.parametrize("arch", ["4C2-MP3/2-6C2-output", "6C2-FMP-8C2-FMP-output"])
def test_training_in_small_tiles_matches_untiled_pool(arch, tmp_path, monkeypatch):
    """A 37-element tile splits every pool's rows (4 to 9 per tile) and
    every weight tensor's rows in ``sgd_step`` across many tiles."""
    with monkeypatch.context() as mp:
        mp.setattr(ops, "TILE", 37)
        mp.setattr(autograd, "TILE", 37)
        ours = fit_save_load_evaluate(arch, tmp_path)
    monkeypatch.setattr(ops, "_max_pool", untiled_max_pool)
    monkeypatch.setattr(train, "sgd_step", copying_sgd_step)
    assert ours == fit_save_load_evaluate(arch, tmp_path)


@pytest.mark.parametrize("arch", ["4C2-MP3/2-6C2-output", "6C2-FMP-8C2-FMP-output"])
def test_training_matches_searchsorted_rulebook(arch, tmp_path, monkeypatch):
    ours = fit_save_load_evaluate(arch, tmp_path)
    monkeypatch.setattr(ops, "_window_rulebook", searchsorted_window_rulebook)
    assert ours == fit_save_load_evaluate(arch, tmp_path)
