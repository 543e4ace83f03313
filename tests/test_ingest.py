import io
import json

import numpy as np
import pytest

from latticenet.errors import FormatError
from latticenet.geometry import GridShape, LatticeKind
from latticenet.grid import DenseGrid, SparseGrid
from latticenet.ingest import (
    KNOT_KINDS,
    FrameSequence,
    StrokeSample,
    TriangleMesh,
    fit_points,
    frame_difference,
    image_to_dense,
    knot_curve,
    knot_dataset,
    load_cifar_batch,
    load_off,
    random_rotation,
    rasterize_polyline,
    read_strokes_json,
    read_svid,
    square_to_triangular,
    strokes_to_spacetime,
    synth_knot,
    voxelize_mesh,
    write_strokes_json,
    write_svid,
)

from conftest import cube_surface_mesh, sphere_mesh, torus_mesh


def connected_components(grid: SparseGrid) -> int:
    """26-connected components of the active set."""
    sites = {tuple(s) for s in grid.sites()}
    seen = set()
    comps = 0
    d = grid.shape.ndim
    from itertools import product
    deltas = [dl for dl in product((-1, 0, 1), repeat=d) if any(dl)]
    for start in sites:
        if start in seen:
            continue
        comps += 1
        stack = [start]
        seen.add(start)
        while stack:
            cur = stack.pop()
            for dl in deltas:
                nb = tuple(c + e for c, e in zip(cur, dl))
                if nb in sites and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
    return comps


# ---------------------------------------------------------------------------
# OFF parsing


MINI_OFF = b"""OFF
3 1 0
0.0 0.0 0.0
1.0 0.0 0.0
0.0 1.0 0.0
3 0 1 2
"""


def test_load_off_minimal():
    mesh = load_off(MINI_OFF)
    assert len(mesh.vertices) == 3
    assert len(mesh.faces) == 1


def test_load_off_comments_and_quad():
    text = b"""# a comment
OFF
# another
4 1 0
0 0 0
1 0 0
1 1 0
0 1 0
4 0 1 2 3
"""
    mesh = load_off(text)
    assert len(mesh.faces) == 2  # fan-triangulated quad


def test_load_off_truncated_names_line():
    bad = b"OFF\n3 1 0\n0 0 0\n1 0 0\n"
    with pytest.raises(FormatError, match="line"):
        load_off(bad)


def test_load_off_bad_index():
    bad = b"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n"
    with pytest.raises(FormatError, match="vertex 7"):
        load_off(bad)


def test_load_off_missing_header():
    with pytest.raises(FormatError, match="header"):
        load_off(b"3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")


def test_load_off_non_numeric():
    bad = b"OFF\n3 1 0\n0 0 zebra\n1 0 0\n0 1 0\n3 0 1 2\n"
    with pytest.raises(FormatError):
        load_off(bad)


@pytest.mark.parametrize("tok", ["nan", "inf", "-inf"])
def test_load_off_non_finite_names_line(tok):
    bad = f"OFF\n3 1 0\n0 0 0\n1 {tok} 0\n0 1 0\n3 0 1 2\n".encode()
    with pytest.raises(FormatError, match="non-finite") as exc:
        load_off(bad)
    assert exc.value.line == 4


@pytest.mark.parametrize("text, vertex, line", [
    (b"OFF\n99999999999999 1 0\n0 0 0\n", 1, 3),
    (b"OFF\n999999999999999999999 1 0\n", 0, 2),
])
def test_load_off_count_beyond_file_is_end_of_file(text, vertex, line):
    # nothing is sized from the header count, so the file just runs out
    with pytest.raises(FormatError, match=f"end of file while reading vertex {vertex} coordinate") as exc:
        load_off(text)
    assert exc.value.line == line


def test_mesh_non_finite_vertex_rejected():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, np.nan, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="non-finite"):
        TriangleMesh(verts, np.array([[0, 1, 2]]))


# ---------------------------------------------------------------------------
# rotations


def test_random_rotation_orthonormal(rng):
    for _ in range(1000):
        R = random_rotation(rng)
        assert np.allclose(R.T @ R, np.eye(3), atol=1e-12)
        assert np.isclose(np.linalg.det(R), 1.0)


def test_random_rotation_unit_norm(rng):
    R = random_rotation(rng)
    assert np.isclose(np.linalg.norm(R @ np.array([0, 0, 1.0])), 1.0)


def test_random_rotation_uniform_axis_distribution():
    """z-axis images spread over 12 equal-area latitude bands."""
    rng = np.random.default_rng(99)
    n = 10_000
    z = np.array([random_rotation(rng)[2, 2] for _ in range(n)])
    # equal-area bins in cos(theta)
    counts, _ = np.histogram(z, bins=np.linspace(-1, 1, 13))
    expected = n / 12
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert chi2 < 31.264  # chi-square(11 dof) critical value at p = 0.001


# ---------------------------------------------------------------------------
# voxelization


def test_voxelize_single_small_triangle():
    """A triangle spanning one voxel (unscaled placement) activates it alone."""
    mesh = TriangleMesh(np.array([[3.0, 3.0, 3.0], [3.1, 3.0, 3.0], [3.0, 3.1, 3.0]]),
                        np.array([[0, 1, 2]]))
    grid = voxelize_mesh(mesh, 8, fit=False)
    assert grid.a == 1
    assert tuple(grid.sites()[0]) == (3, 3, 3)


def test_voxelize_cube_is_hollow_shell():
    grid = voxelize_mesh(cube_surface_mesh(), 10)
    sites = grid.sites()
    lo, hi = sites.min(axis=0), sites.max(axis=0)
    interior = ((sites > lo).all(axis=1) & (sites < hi).all(axis=1))
    assert not interior.any()  # no interior voxels
    assert grid.a > 6 * (hi[0] - lo[0] - 1) ** 2  # all six faces sampled


def test_voxelize_sphere_is_sparse():
    grid = voxelize_mesh(sphere_mesh(), 40)
    assert grid.a / grid.shape.num_sites < 0.2
    assert grid.a > 0


def test_voxelize_rotation_covariance(rng):
    """Voxelizing a rotated sphere overlaps rotating the voxelization.

    Both sets are one-voxel-thick shells, so the comparison happens at
    coarse scale (2-voxel cells) where rounding misregistration washes out.
    """
    mesh = sphere_mesh()
    R = random_rotation(rng)
    a = voxelize_mesh(mesh, 40, rotation=R)
    b = voxelize_mesh(mesh, 40)
    # resample b's active voxels through R about the grid center
    center = (40 - 1) / 2.0
    pts = (b.sites() - center) @ R.T + center
    rot = {tuple(v) for v in np.rint(pts).astype(int) // 2}
    got = {tuple(s) for s in a.sites() // 2}
    jac = len(got & rot) / len(got | rot)
    assert jac >= 0.8


def test_voxelize_tetrahedral_is_the_simplex_fit_sampled(rng):
    """On the tetrahedral lattice a mesh is fitted into the simplex as
    :func:`fit_points` fits it, then sampled as a mesh already in grid
    coordinates is; no fitted mesh leaves the simplex."""
    tet = GridShape(LatticeKind.TETRAHEDRAL, 20)
    for tube in (0.2, 0.5):
        for _ in range(15):
            mesh, R = torus_mesh(tube, 12, 6), random_rotation(rng)
            grid = voxelize_mesh(mesh, 20, R, lattice=LatticeKind.TETRAHEDRAL)
            placed = TriangleMesh(fit_points(mesh.vertices @ R.T, tet), mesh.faces)
            want = voxelize_mesh(placed, 20, fit=False)
            assert grid.shape == tet and grid.a > 0
            assert np.array_equal(grid.keys, want.keys)


def test_voxelize_tetrahedral_outside_the_simplex_names_the_voxel():
    mesh = TriangleMesh(np.array([[3.0, 3.0, 3.0], [3.1, 3.0, 3.0], [3.0, 3.1, 3.0]]),
                        np.array([[0, 1, 2]]))
    with pytest.raises(ValueError, match=r"voxel \(3, 3, 3\) outside the grid"):
        voxelize_mesh(mesh, 8, fit=False, lattice=LatticeKind.TETRAHEDRAL)
    assert voxelize_mesh(mesh, 10, fit=False, lattice=LatticeKind.TETRAHEDRAL).a == 1


@pytest.mark.parametrize("lattice", [LatticeKind.SQUARE, LatticeKind.TRIANGULAR])
def test_voxelize_on_a_2d_lattice_rejected(lattice):
    with pytest.raises(ValueError, match=f"lattice {lattice.value}"):
        voxelize_mesh(sphere_mesh(), 10, lattice=lattice)


def test_voxelize_empty_mesh_rejected():
    with pytest.raises(ValueError):
        voxelize_mesh(TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int)), 10)


# ---------------------------------------------------------------------------
# rasterization


def test_rasterize_axis_segment_counts_voxels():
    grid = rasterize_polyline(np.array([[1.0, 2.0, 3.0], [7.0, 2.0, 3.0]]), 10)
    assert grid.a == 7  # voxels 1..7 along x


def test_rasterize_single_point():
    grid = rasterize_polyline(np.array([[4.0, 4.0, 4.0]]), 9)
    assert grid.a == 1


def test_rasterize_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        rasterize_polyline(np.array([[0.0, 0.0, 0.0], [12.0, 0.0, 0.0]]), 10)


@pytest.mark.parametrize("lattice", [LatticeKind.CUBIC, LatticeKind.TETRAHEDRAL])
def test_rasterize_grid_has_the_size_and_lattice_asked_for(lattice):
    pts = np.array([[1.0, 1.0, 1.0], [4.0, 2.0, 1.0]])
    assert rasterize_polyline(pts, 10, lattice).shape == GridShape(lattice, 10)


@pytest.mark.parametrize("pts", [
    [[1.0, 2.0, 3.0], [np.nan, 2.0, 3.0]],
    [[1.0, 2.0, 3.0], [7.0, np.inf, 3.0]],
    [[np.nan, np.nan, np.nan]],
], ids=["nan-vertex", "inf-vertex", "lone-nan"])
def test_rasterize_non_finite_rejected(pts):
    with pytest.raises(ValueError, match="non-finite"):
        rasterize_polyline(np.array(pts), 10)


def test_rasterize_trefoil_demo():
    pts = knot_curve("trefoil")
    pts = pts * 18.0 + 19.5  # fill a 40-grid
    grid = rasterize_polyline(np.vstack([pts, pts[:1]]), 40)
    assert connected_components(grid) == 1
    assert grid.a / grid.shape.num_sites < 0.02


# ---------------------------------------------------------------------------
# space-time strokes


def test_spacetime_single_stroke_monotone_time():
    sample = StrokeSample([[[0.0, 0.0], [10.0, 0.0]]], label=0)
    grid = strokes_to_spacetime(sample, 20)
    sites = grid.sites()
    order = np.argsort(sites[:, 0])
    t = sites[order][:, 2]
    assert (np.diff(t) >= 0).all()
    assert grid.a >= 20


def test_spacetime_two_disjoint_strokes_two_components():
    sample = StrokeSample([
        [[0.0, 0.0], [10.0, 0.0]],
        [[0.0, 30.0], [10.0, 30.0]],
    ], label=0)
    grid = strokes_to_spacetime(sample, 20)
    assert connected_components(grid) == 2


def test_spacetime_redrawn_path_gets_new_time_slab():
    once = StrokeSample([[[0.0, 0.0], [10.0, 0.0]]], label=0)
    twice = StrokeSample([[[0.0, 0.0], [10.0, 0.0]], [[0.0, 0.0], [10.0, 0.0]]], label=0)
    g1 = strokes_to_spacetime(once, 20)
    g2 = strokes_to_spacetime(twice, 20)
    assert g2.a > 1.5 * g1.a


def test_spacetime_empty_rejected():
    with pytest.raises(ValueError):
        strokes_to_spacetime(StrokeSample([], label=0), 20)


# ---------------------------------------------------------------------------
# frame differencing


def test_frame_difference_static_video():
    frames = np.full((5, 8, 8), 77, dtype=np.uint8)
    grid = frame_difference(FrameSequence(frames), 12.0)
    assert grid.a == 0


def test_frame_difference_five_changed_pixels():
    f0 = np.full((8, 8), 100, dtype=np.uint8)
    f1 = f0.copy()
    for i in range(5):
        f1[i, i] += 40  # |diff| = 40 > 12% of 255 = 30.6
    grid = frame_difference(FrameSequence(np.stack([f0, f1])), 12.0)
    assert grid.a == 5
    assert np.allclose(grid.rows, 40 / 255)


def test_frame_difference_threshold_100_always_empty(rng):
    frames = rng.integers(0, 256, size=(4, 6, 6), dtype=np.uint8)
    grid = frame_difference(FrameSequence(frames), 100.0)
    assert grid.a == 0


def test_frame_difference_monotone_in_threshold(rng):
    frames = rng.integers(0, 256, size=(6, 10, 10), dtype=np.uint8)
    video = FrameSequence(frames)
    counts = [frame_difference(video, t).a for t in (0.0, 5.0, 12.0, 30.0, 60.0, 100.0)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_frame_difference_needs_two_frames():
    with pytest.raises(ValueError):
        frame_difference(FrameSequence(np.zeros((1, 4, 4), dtype=np.uint8)), 10.0)


def test_frame_difference_signed_values(rng):
    f0 = np.full((4, 4), 200, dtype=np.uint8)
    f1 = np.full((4, 4), 100, dtype=np.uint8)
    grid = frame_difference(FrameSequence(np.stack([f0, f1])), 10.0)
    assert (grid.rows < 0).all()


# ---------------------------------------------------------------------------
# square -> triangular resampling


def test_square_to_triangular_constant_image():
    img = DenseGrid(GridShape(LatticeKind.SQUARE, 16), np.full((256, 1), 0.7))
    out = square_to_triangular(img, 40)
    assert out.a > 0
    assert np.allclose(out.rows, 0.7)


def test_square_to_triangular_linear_gradient_round_trip():
    """Bilinear sampling reproduces an affine image exactly (< 1/255)."""
    m = 24
    from latticenet.geometry import sites_array
    sq = sites_array(LatticeKind.SQUARE, m).astype(float)
    vals = (0.3 * sq[:, 0] + 0.11 * sq[:, 1] + 5.0).reshape(-1, 1)
    img = DenseGrid(GridShape(LatticeKind.SQUARE, m), vals)
    m_tri = 60
    out = square_to_triangular(img, m_tri)
    # invert the placement: recover each site's image-plane coordinates
    from latticenet.ingest import triangular_plane_positions
    a, L = float(m - 1), float(m_tri - 1)
    tx = (L - a) / 2.0
    pos = triangular_plane_positions(m_tri)
    got = {tuple(s): v for s, v in zip(map(tuple, out.sites()), out.rows[:, 0])}
    from latticenet.geometry import sites_array as sa
    tri_sites = sa(LatticeKind.TRIANGULAR, m_tri)
    worst = 0.0
    for site, p in zip(map(tuple, tri_sites), pos):
        if site in got:
            expect = 0.3 * (p[0] - tx) + 0.11 * p[1] + 5.0
            worst = max(worst, abs(got[site] - expect))
    assert worst < 1.0 / 255.0


def test_square_to_triangular_area_accounting():
    w = 100
    img = DenseGrid(GridShape(LatticeKind.SQUARE, w), np.ones((w * w, 1)))
    m_tri = int(np.ceil((w - 1) * (1 + 2 / np.sqrt(3)))) + 2
    out = square_to_triangular(img, m_tri)
    cell_area = np.sqrt(3) / 2
    expected = (w - 1) ** 2 / cell_area
    assert abs(out.a - expected) / expected < 0.05


def test_square_to_triangular_too_small_triangle():
    img = DenseGrid(GridShape(LatticeKind.SQUARE, 32), np.ones((1024, 1)))
    with pytest.raises(ValueError, match="exceeds"):
        square_to_triangular(img, 40)


# ---------------------------------------------------------------------------
# knots


def test_knot_curves_have_expected_shapes():
    for kind in KNOT_KINDS:
        pts = knot_curve(kind)
        assert np.abs(pts).max() <= 1.0 + 1e-9
        assert pts.shape[1] == 3


def test_knot_curve_is_computed_once_and_copied():
    for kind in KNOT_KINDS:
        a, b = knot_curve(kind), knot_curve(kind)
        assert np.array_equal(a, b) and not np.shares_memory(a, b)
        a[...] = 0.0  # a caller's copy is its own
        assert np.array_equal(knot_curve(kind), b)


def test_synth_trefoil_connected(rng):
    sample = synth_knot("trefoil", 40, rng)
    assert sample.label == 1
    assert connected_components(sample.grid) == 1
    assert sample.grid.a / sample.grid.shape.num_sites < 0.02


def test_synth_unknot_planar_before_rotation():
    pts = knot_curve("unknot")
    assert np.allclose(pts[:, 2], 0.0)


def test_synth_knot_tetrahedral(rng):
    sample = synth_knot("figure_eight", 14, rng, lattice=LatticeKind.TETRAHEDRAL)
    sample.grid.check_invariants()
    assert sample.grid.a > 10


def test_knot_samples_pairwise_distinct(rng):
    samples = knot_dataset(20, 100, rng)
    hashes = {s.grid.to_bytes() for s in samples}
    assert len(hashes) == len(samples)


def test_unknown_knot_kind(rng):
    with pytest.raises(ValueError):
        synth_knot("granny", 20, rng)


@pytest.mark.parametrize("lattice", [LatticeKind.SQUARE, LatticeKind.TRIANGULAR])
def test_knots_refuse_a_2d_lattice_before_drawing(rng, lattice):
    state = rng.bit_generator.state
    for make in (lambda: synth_knot("trefoil", 20, rng, lattice),
                 lambda: knot_dataset(20, 2, rng, lattice=lattice)):
        with pytest.raises(ValueError, match=f"^knots are 3D; lattice {lattice.value} is 2D$"):
            make()
    assert rng.bit_generator.state == state  # no rotation or scale was drawn


# ---------------------------------------------------------------------------
# containers


def test_svid_round_trip(tmp_path, rng):
    frames = rng.integers(0, 256, size=(5, 7, 9), dtype=np.uint8)
    p = tmp_path / "clip.svid"
    write_svid(p, FrameSequence(frames))
    back = read_svid(p)
    assert np.array_equal(back.frames, frames)
    assert p.read_bytes()[:4] == b"SVID"


def test_svid_bad_magic(tmp_path):
    p = tmp_path / "bad.svid"
    p.write_bytes(b"JUNKxxxx")
    with pytest.raises(FormatError):
        read_svid(p)


def test_strokes_json_round_trip(tmp_path):
    sample = StrokeSample([[[0.0, 1.0], [2.0, 3.0]], [[4.0, 5.0]]], label=7)
    p = tmp_path / "char.json"
    write_strokes_json(p, sample)
    back = read_strokes_json(p)
    assert back.label == 7
    assert len(back.strokes) == 2
    assert np.allclose(back.strokes[0], sample.strokes[0])


def test_strokes_json_missing_field(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"label": 3}')
    with pytest.raises(FormatError):
        read_strokes_json(p)


def test_cifar_batch_loader(tmp_path, rng):
    n = 4
    recs = []
    labels = [3, 1, 4, 1]
    for lab in labels:
        rec = bytes([lab]) + rng.integers(0, 256, size=3072, dtype=np.uint8).tobytes()
        recs.append(rec)
    p = tmp_path / "data_batch_1.bin"
    p.write_bytes(b"".join(recs))
    got_labels, imgs = load_cifar_batch(p)
    assert got_labels.tolist() == labels
    assert imgs.shape == (4, 32, 32, 3)
    assert imgs.max() <= 1.0


def test_cifar_batch_bad_size(tmp_path):
    p = tmp_path / "truncated.bin"
    p.write_bytes(b"\0" * 100)
    with pytest.raises(FormatError):
        load_cifar_batch(p)


def test_cifar_batch_empty_file(tmp_path):
    p = tmp_path / "empty.bin"
    p.write_bytes(b"")
    with pytest.raises(FormatError, match="size 0"):
        load_cifar_batch(p)


@pytest.mark.parametrize("label", [10, 200, 255])
def test_cifar_batch_label_out_of_range(tmp_path, rng, label):
    recs = [bytes([lab]) + rng.integers(0, 256, size=3072, dtype=np.uint8).tobytes()
            for lab in (3, 9, label, 0)]
    p = tmp_path / "data_batch_1.bin"
    p.write_bytes(b"".join(recs))
    with pytest.raises(FormatError, match=f"record 2 has label {label}"):
        load_cifar_batch(p)


def test_image_to_dense_rejects_non_square():
    with pytest.raises(ValueError):
        image_to_dense(np.zeros((4, 5)))


def test_importing_the_package_leaves_ingest_unloaded():
    """Ingestion is a front-end that the engine, training and augmentation
    never import: a fresh ``import latticenet`` leaves it unloaded."""
    from test_heap import fresh_interpreter

    script = "import json, sys, latticenet\nprint(json.dumps('latticenet.ingest' in sys.modules))"
    assert fresh_interpreter(script) is False
