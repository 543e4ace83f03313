"""Data ingestion: everything that turns raw data into sparse grids.

Front-ends provided here:

* OFF triangle meshes -> surface-sampled cubic voxel grids, with uniform
  random rotation for pose-invariant training;
* 3D polylines -> 26-connected one-voxel-thick rasterized paths (used by
  the synthetic knot generator);
* ordered pen strokes -> 2+1 dimensional space-time paths, time being the
  cumulative point index;
* grayscale video -> thresholded successive-frame differences on a cubic
  grid with time as the leading axis;
* square images -> triangular-lattice grids via an affine placement and
  bilinear resampling;
* the rotation and scale matrix of training augmentation, and file
  formats (OFF, a trivial raw video container, stroke JSON, CIFAR-10
  binary batches).

Meshes and polylines are sampled as whole arrays: every face's
barycentric lattice, or every segment's evenly spaced points, goes into
one point array that is rounded to voxels and deduplicated with a single
``np.unique``.  Non-finite coordinates are rejected before sampling.

All randomness is drawn from explicit generators, so ingestion of a
sample is a pure function of its inputs and seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import FormatError
from .geometry import GridShape, LatticeKind, pack_sites, site_ordinal, sites_array
from .grid import DenseGrid, LabeledSample, SparseGrid

SQRT3 = np.sqrt(3.0)


# ---------------------------------------------------------------------------
# domain types


@dataclass
class TriangleMesh:
    vertices: np.ndarray  # (V, 3) float
    faces: np.ndarray     # (F, 3) int vertex indices

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.faces = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)
        if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= len(self.vertices)):
            raise ValueError("face references a vertex that does not exist")
        if not np.isfinite(self.vertices).all():
            raise ValueError("mesh has non-finite vertex coordinates")


@dataclass
class StrokeSample:
    """Ordered pen strokes; each stroke is an (P, 2) array of points."""

    strokes: list
    label: int = -1

    def __post_init__(self):
        self.strokes = [np.asarray(s, dtype=np.float64).reshape(-1, 2) for s in self.strokes]
        for s in self.strokes:
            if s.shape[0] < 1:
                raise ValueError("every stroke needs at least one point")
            if not np.isfinite(s).all():
                raise ValueError("stroke coordinates must be finite")


@dataclass
class FrameSequence:
    """8-bit grayscale frames in time order, shape (T, H, W)."""

    frames: np.ndarray

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.uint8)
        if self.frames.ndim != 3:
            raise ValueError("frames must be a (T, H, W) array")


# ---------------------------------------------------------------------------
# OFF meshes


def load_off(data) -> TriangleMesh:
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


def save_off(mesh: TriangleMesh, path):
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(mesh.vertices)} {len(mesh.faces)} 0\n")
        for v in mesh.vertices:
            fh.write(f"{v[0]} {v[1]} {v[2]}\n")
        for f in mesh.faces:
            fh.write(f"3 {f[0]} {f[1]} {f[2]}\n")


# ---------------------------------------------------------------------------
# rotations and affine helpers


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random 3D rotation via a normalized quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def make_affine(d: int, rotation: float = 0.0, scale: float = 1.0) -> np.ndarray:
    """Scaling by ``scale`` followed by a rotation of ``rotation`` radians
    in the first two axes, as a (d, d) matrix."""
    A = np.eye(d) * scale
    if rotation:
        c, s = np.cos(rotation), np.sin(rotation)
        R = np.eye(d)
        R[0, 0], R[0, 1], R[1, 0], R[1, 1] = c, -s, s, c
        A = R @ A
    return A


def _bilinear_sample(image: DenseGrid, pts: np.ndarray) -> np.ndarray:
    """Bilinear sample of an (N, 2) point list; clamps to the border."""
    m = image.shape.m
    p = np.clip(pts, 0, m - 1)
    i0 = np.floor(p).astype(np.int64)
    i0 = np.minimum(i0, m - 2) if m > 1 else i0 * 0
    frac = p - i0
    def at(di, dj):
        idx = site_ordinal(LatticeKind.SQUARE, m, i0 + [di, dj])
        return image.values[idx]
    fx = frac[:, 0:1]
    fy = frac[:, 1:2]
    return ((1 - fx) * (1 - fy) * at(0, 0) + (1 - fx) * fy * at(0, 1)
            + fx * (1 - fy) * at(1, 0) + fx * fy * at(1, 1))


# ---------------------------------------------------------------------------
# fitting point clouds into grids


def fit_points(points: np.ndarray, shape: GridShape, margin: float = 1.0) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# voxelization and rasterization


def _occupancy_grid(shape: GridShape, keys: np.ndarray) -> SparseGrid:
    """Occupancy grid of the given packed keys: value 1 at each, ground 0."""
    keys = np.unique(keys)
    rows = np.ones((keys.shape[0], 1), dtype=np.float32)
    return SparseGrid(shape, keys, rows, np.zeros(1, dtype=np.float32))


def _ranks(counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(c) for c in counts])`` without the loop."""
    starts = np.cumsum(counts) - counts
    return np.arange(int(counts.sum())) - np.repeat(starts, counts)


def _subdivisions(corners: np.ndarray) -> np.ndarray:
    """Barycentric subdivision count ``n`` of each (3 corners, 3 coords)
    face: the smallest that makes every sub-edge shorter than 0.45."""
    edges = np.stack([corners[:, 1] - corners[:, 0],
                      corners[:, 2] - corners[:, 0],
                      corners[:, 2] - corners[:, 1]], axis=1)
    # matmul's vector-vector case calls the same BLAS dot as np.linalg.norm
    # does on one vector, so lengths (and hence n) match it bit for bit
    length = np.sqrt((edges[..., None, :] @ edges[..., :, None])[..., 0, 0])
    return np.maximum(1, np.ceil(length.max(axis=1) / 0.45).astype(np.int64))


def voxelize_mesh(mesh: TriangleMesh, m: int, rotation: np.ndarray | None = None,
                  margin: float = 1.0, fit: bool = True) -> SparseGrid:
    """Surface-sample a triangle mesh into a cubic occupancy grid.

    The mesh is optionally rotated, then uniformly scaled and centered to
    fit the grid with a one-voxel margin (``fit=False`` keeps the mesh's
    own grid coordinates).  Face ``A, B, C`` is sampled at the barycentric
    lattice ``A + (u/n)(B-A) + (v/n)(C-A)``, ``u + v <= n``, where ``n`` is
    the smallest count that makes every sub-edge shorter than 0.45 voxel.
    The lattices of all faces form one point array; its rounded, clipped
    voxels become active with value 1.
    """
    if len(mesh.faces) < 1:
        raise ValueError("mesh has no faces to voxelize")
    if m < 2:
        raise ValueError(f"voxel grid must have size >= 2, got {m}")
    verts = mesh.vertices
    if rotation is not None:
        verts = verts @ np.asarray(rotation, dtype=float).T
    shape = GridShape(LatticeKind.CUBIC, m)
    if fit:
        verts = fit_points(verts, shape, margin=margin)

    corners = verts[mesh.faces]  # (F, 3 corners, 3 coords)
    n = _subdivisions(corners)
    # face f has rows u = 0 .. n_f; row u holds v = 0 .. n_f - u
    row_face = np.repeat(np.arange(n.shape[0]), n + 1)
    u = _ranks(n + 1)
    row_len = n[row_face] + 1 - u
    pt_row = np.repeat(np.arange(row_face.shape[0]), row_len)
    v = _ranks(row_len)
    face = row_face[pt_row]
    A = corners[face, 0]
    AB = (corners[:, 1] - corners[:, 0])[face]
    AC = (corners[:, 2] - corners[:, 0])[face]
    nf = n[face]
    pts = A + (u[pt_row] / nf)[:, None] * AB + (v / nf)[:, None] * AC
    vox = np.rint(pts).astype(np.int64)
    np.clip(vox, 0, m - 1, out=vox)
    return _occupancy_grid(shape, pack_sites(vox))


def rasterize_polyline(points: np.ndarray, m: int, shape: GridShape | None = None) -> SparseGrid:
    """Trace line segments through the grid; visited voxels get value 1.

    Segment ``a -> b`` is sampled at ``t = k / steps``, ``k = 0 .. steps``
    (the last sample at exactly ``t = 1``), with ``steps`` chosen so that
    consecutive samples are under half a voxel apart; the voxel path is
    therefore 26-connected.  All segments' samples form one point array.
    A sample outside the grid's valid region is an error that names the
    first such voxel along the path; non-finite points are an error too.
    """
    if shape is None:
        shape = GridShape(LatticeKind.CUBIC, m)
    points = np.asarray(points, dtype=float).reshape(-1, shape.ndim)
    if points.shape[0] < 1:
        raise ValueError("need at least one point")
    if not np.isfinite(points).all():
        raise ValueError("polyline has non-finite coordinates")

    delta = np.diff(points, axis=0)
    steps = np.maximum(1, np.ceil(np.abs(delta).max(axis=1) / 0.45).astype(np.int64))
    seg = np.repeat(np.arange(delta.shape[0]), steps + 1)
    k = _ranks(steps + 1)
    n = steps[seg]
    # np.linspace(0, 1, n + 1) computes k * (1 / n), then sets the last t = 1
    t = k * (1.0 / n)
    t[k == n] = 1.0
    pts = np.vstack([points[:1], points[seg] + t[:, None] * delta[seg]])

    vox = np.rint(pts).astype(np.int64)
    bad = shape.outside(vox)
    if bad.any():
        culprit = vox[np.argmax(bad)]
        raise ValueError(f"point maps to voxel {tuple(culprit.tolist())} outside the grid")
    return _occupancy_grid(shape, pack_sites(vox))


def strokes_to_spacetime(sample: StrokeSample, m: int = 40) -> SparseGrid:
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


def frame_difference(video: FrameSequence, threshold_pct: float) -> SparseGrid:
    """Successive-frame differences, zeroed below the threshold.

    The threshold is a percentage of the full 8-bit range (255).  The
    result is a cubic grid sized to fit (T-1, H, W) with the block
    centered; site (t, y, x) is active when ``|frame[t+1] - frame[t]|``
    at pixel (y, x) exceeds the threshold, with the signed difference
    scaled to [-1, 1] as its value.
    """
    if not 0 <= threshold_pct <= 100:
        raise ValueError(f"threshold must be in [0, 100], got {threshold_pct}")
    T, H, W = video.frames.shape
    if T < 2:
        raise FormatError(f"need at least 2 frames to difference, got {T}")
    diff = video.frames[1:].astype(np.int16) - video.frames[:-1].astype(np.int16)
    cut = threshold_pct / 100.0 * 255.0
    t, y, x = np.nonzero(np.abs(diff) > cut)
    m = max(T - 1, H, W)
    off = np.array([(m - (T - 1)) // 2, (m - H) // 2, (m - W) // 2], dtype=np.int64)
    sites = np.stack([t, y, x], axis=1) + off
    vals = (diff[t, y, x] / 255.0).astype(np.float32).reshape(-1, 1)
    return SparseGrid.from_sites(GridShape(LatticeKind.CUBIC, m), sites, vals,
                                 np.zeros(1, dtype=np.float32))


# ---------------------------------------------------------------------------
# square image -> triangular lattice


def triangular_plane_positions(m: int) -> np.ndarray:
    """Plane coordinates of all sites of a size-m triangular grid."""
    s = sites_array(LatticeKind.TRIANGULAR, m).astype(float)
    return np.stack([s[:, 0] + s[:, 1] / 2.0, s[:, 1] * SQRT3 / 2.0], axis=1)


def square_to_triangular(image: DenseGrid, m_tri: int) -> SparseGrid:
    """Resample a square-lattice image onto a triangular grid.

    The image keeps its pixel scale: its (w-1)-sized square footprint is
    placed base-centered inside the triangle spanned by the lattice, and
    every triangular site whose plane position falls inside the footprint
    bilinearly samples the image.  Sites outside stay inactive.
    """
    if image.shape.lattice is not LatticeKind.SQUARE:
        raise ValueError("source image must live on the square lattice")
    w = image.shape.m
    a = float(w - 1)
    L = float(m_tri - 1)
    # the square's top corners must stay inside the triangle
    if L < a * (1.0 + 2.0 / SQRT3) - 1e-9:
        raise ValueError(
            f"image footprint {w} exceeds what a size-{m_tri} triangular grid can hold"
        )
    tx = (L - a) / 2.0
    pos = triangular_plane_positions(m_tri)
    q = pos - np.array([tx, 0.0])
    inside = (q[:, 0] >= -1e-9) & (q[:, 0] <= a + 1e-9) & (q[:, 1] >= -1e-9) & (q[:, 1] <= a + 1e-9)
    tri_sites = sites_array(LatticeKind.TRIANGULAR, m_tri)[inside]
    vals = _bilinear_sample(image, q[inside]).astype(np.float32)
    return SparseGrid.from_sites(GridShape(LatticeKind.TRIANGULAR, m_tri), tri_sites, vals,
                                 np.zeros(image.n, dtype=np.float32))


# ---------------------------------------------------------------------------
# synthetic knots


KNOT_KINDS = ("unknot", "trefoil", "figure_eight")


def knot_curve(kind: str, samples: int = 720) -> np.ndarray:
    """Closed parametric curve for the knot class, centered, unit radius."""
    t = np.linspace(0.0, 2 * np.pi, samples, endpoint=False)
    if kind == "unknot":
        pts = np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)
    elif kind == "trefoil":
        pts = np.stack([
            np.sin(t) + 2 * np.sin(2 * t),
            np.cos(t) - 2 * np.cos(2 * t),
            -np.sin(3 * t),
        ], axis=1)
    elif kind == "figure_eight":
        pts = np.stack([
            (2 + np.cos(2 * t)) * np.cos(3 * t),
            (2 + np.cos(2 * t)) * np.sin(3 * t),
            np.sin(4 * t),
        ], axis=1)
    else:
        raise ValueError(f"unknown knot kind {kind!r}; expected one of {KNOT_KINDS}")
    pts -= pts.mean(axis=0)
    pts /= np.abs(pts).max()
    return pts


def synth_knot(kind: str, m: int, rng: np.random.Generator,
               lattice: LatticeKind = LatticeKind.CUBIC) -> LabeledSample:
    """One randomly rotated, jittered, rasterized knot sample."""
    pts = knot_curve(kind)
    pts = pts @ random_rotation(rng).T
    pts *= rng.uniform(0.88, 1.0)  # scale jitter
    shape = GridShape(lattice, m)
    fitted = fit_points(pts, shape, margin=0.6)
    closed = np.vstack([fitted, fitted[:1]])
    grid = rasterize_polyline(closed, m, shape)
    return LabeledSample(grid, KNOT_KINDS.index(kind))


def knot_dataset(m: int, per_class: int, rng: np.random.Generator,
                 lattice: LatticeKind = LatticeKind.CUBIC) -> list[LabeledSample]:
    """per_class samples of each knot kind, in class-major order."""
    out = []
    for kind in KNOT_KINDS:
        for _ in range(per_class):
            out.append(synth_knot(kind, m, rng, lattice))
    return out


# ---------------------------------------------------------------------------
# file formats: raw video container, stroke JSON, CIFAR batches


SVID_MAGIC = b"SVID"


def write_svid(path, video: FrameSequence):
    T, H, W = video.frames.shape
    with open(path, "wb") as fh:
        fh.write(SVID_MAGIC)
        fh.write(np.array([W, H, T], dtype="<u4").tobytes())
        fh.write(video.frames.tobytes())


def read_svid(path) -> FrameSequence:
    """Read a raw video container; any malformed file raises :class:`FormatError`."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != SVID_MAGIC:
        raise FormatError(f"{path} is not a raw video container (bad magic)")
    if len(data) < 16:
        raise FormatError(f"{path}: truncated header: {len(data)} bytes, need 16")
    W, H, T = (int(v) for v in np.frombuffer(data, "<u4", count=3, offset=4))
    need = 16 + T * H * W
    if len(data) != need:
        raise FormatError(f"{path}: a {T}x{H}x{W} video needs {need} bytes, got {len(data)}")
    frames = np.frombuffer(data, np.uint8, offset=16).reshape(T, H, W)
    return FrameSequence(frames.copy())


def _is_point(p) -> bool:
    """Whether a decoded JSON value is an ``[x, y]`` pair of finite numbers."""
    if not (isinstance(p, list) and len(p) == 2):
        return False
    try:
        return all(not isinstance(c, bool) and math.isfinite(c) for c in p)
    except (TypeError, OverflowError):  # not a number, or an int beyond float range
        return False


def read_strokes_json(path) -> StrokeSample:
    """Read ``{"strokes": [[[x, y], ...], ...], "label": int}``; any
    malformed document raises :class:`FormatError`."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text (byte {e.start})") from None
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: {e.msg}", e.lineno) from None
    except RecursionError:
        raise FormatError(f"{path}: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    if "strokes" not in doc:
        raise FormatError(f"{path}: missing 'strokes' field")
    strokes = doc["strokes"]
    if not isinstance(strokes, list) or not all(isinstance(st, list) for st in strokes):
        raise FormatError(f"{path}: 'strokes' must be a list of point lists")
    for i, stroke in enumerate(strokes):
        if not stroke:
            raise FormatError(f"{path}: stroke {i} is empty")
        if not all(_is_point(p) for p in stroke):
            raise FormatError(f"{path}: stroke {i} has a point that is not a finite [x, y] pair")
    label = doc.get("label", -1)
    if not isinstance(label, int) or isinstance(label, bool):
        raise FormatError(f"{path}: label must be an integer, got {label!r}")
    return StrokeSample(strokes, label)


def write_strokes_json(path, sample: StrokeSample):
    doc = {"label": sample.label, "strokes": [s.tolist() for s in sample.strokes]}
    with open(path, "w") as fh:
        json.dump(doc, fh)


CIFAR_RECORD = 3073  # label byte + 3 * 1024 channel-major pixels


def load_cifar_batch(path) -> tuple[np.ndarray, np.ndarray]:
    """Labels (N,) and images (N, 32, 32, 3) in [0, 1] from a binary batch."""
    with open(path, "rb") as fh:
        raw = np.frombuffer(fh.read(), dtype=np.uint8)
    if raw.size == 0 or raw.size % CIFAR_RECORD != 0:
        raise FormatError(
            f"{path}: size {raw.size} is not a positive multiple of the {CIFAR_RECORD}-byte record"
        )
    raw = raw.reshape(-1, CIFAR_RECORD)
    labels = raw[:, 0].astype(np.int64)
    bad = np.flatnonzero(labels > 9)
    if bad.size:
        raise FormatError(f"{path}: record {bad[0]} has label {labels[bad[0]]}, expected 0-9")
    imgs = raw[:, 1:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1).astype(np.float32) / 255.0
    return labels, imgs


def image_to_dense(img: np.ndarray) -> DenseGrid:
    """(H, W) or (H, W, C) array -> square-lattice DenseGrid."""
    img = np.asarray(img, dtype=np.float32)
    if img.ndim == 2:
        img = img[:, :, None]
    h, w, c = img.shape
    if h != w:
        raise ValueError(f"square-lattice images must be square, got {h}x{w}")
    return DenseGrid(GridShape(LatticeKind.SQUARE, h), img.reshape(h * w, c))
