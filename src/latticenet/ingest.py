"""Data ingestion: everything that turns raw data into sparse grids.

Front-ends provided here:

* OFF triangle meshes -> surface-sampled cubic or tetrahedral voxel
  grids, under a uniform random rotation that the caller draws once per
  mesh;
* 3D polylines -> 26-connected one-voxel-thick rasterized paths (used by
  the synthetic knot generator);
* ordered pen strokes -> 2+1 dimensional space-time paths, time being the
  cumulative point index;
* grayscale video -> thresholded successive-frame differences on a cubic
  grid with time as the leading axis;
* square images -> triangular-lattice grids via an affine placement and
  bilinear resampling;
* file formats (OFF, a trivial raw video container, stroke JSON, CIFAR-10
  binary batches).

Meshes and polylines are sampled as whole arrays: every face's
barycentric lattice, or every segment's evenly spaced points (of all a
sample's strokes together), goes into one point array that is rounded to
voxels.  A mesh's voxels set one flag each in a table over their box,
read back in key order, unless :func:`latticenet.ops.box_numbering`
sends them to a sort.  A polyline's keys lose their runs of equal keys,
since consecutive samples along a path mostly share a voxel, then are
sorted once and deduplicated by comparing neighbours.  When no segment
of a polyline call is long enough to be sampled between its ends, the
two ends of every segment are built directly, without the per-sample
gather.  A stack of polylines of one length (the synthetic knots,
:data:`KNOT_CHUNK` at a time) is fitted and sampled as one array too,
each polyline on its own, and its grids come back as one batch: each
polyline's keys move up the first axis by its place in the stack, so
that one sort orders every grid's keys apart.  A lone polyline is a
stack of one.  Keys are packed only by
:func:`latticenet.geometry.pack_sites`.  Points are fitted and sampled
coordinate-major, one row per coordinate, so that every repeat, gather
and product runs along a long axis; each point still gets the arithmetic
it would get as a row of a point-major array, so the voxels are
bit-identical to that form's.  Non-finite coordinates are rejected
before sampling.  An OFF file's vertex tokens are converted in one call,
and a face list of digits and whitespace is read as integers in one
more; any other file is read token by token.

All randomness is drawn from explicit generators, so ingestion of a
sample is a pure function of its inputs and seed.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import ops
from .errors import FormatError
from .geometry import (
    MAX_COORD,
    GridShape,
    LatticeKind,
    coord_sum,
    pack_sites,
    run_heads,
    site_ordinal,
    sites_array,
)
from .grid import DenseGrid, GridBatch, LabeledSample, SparseGrid

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


# a comment runs to the next line break, as ``str.splitlines`` breaks lines
_COMMENT = re.compile("#[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*")


def _token_line(text: str, index: int) -> int:
    """Line number of token ``index`` of an OFF text (error path only)."""
    seen = 0
    for ln, line in enumerate(text.splitlines(), start=1):
        seen += len(line.split("#", 1)[0].split())
        if seen > index:
            return ln
    raise IndexError(f"OFF text has no token {index}")


def load_off(data) -> TriangleMesh:
    """Parse an ASCII OFF file; polygon faces are fan-triangulated.

    ``#`` starts a comment that runs to the end of its line, and the
    header may be glued to the vertex count (``OFF3 1 0``); tokens after
    the last face are ignored.  The vertex tokens are split off and
    converted in one call each.  A face list of ASCII digits and C
    whitespace alone, which ``np.fromstring`` and ``str.split`` read
    alike, is read as int64 in one C-level parse, and its faces are found
    on those integers: by one strided comparison when all have the first's
    size, else by one step per face.  Any other text goes to
    :func:`_walk_off`.  Nothing is allocated from the counts before the
    tokens are there: a count larger than the file is an end of file.
    """
    if isinstance(data, bytes):
        data = data.decode("ascii", errors="replace")
    text = _COMMENT.sub("", data) if "#" in data else data
    tokens = text.split(None, 4)  # the header, three counts and the rest
    if not tokens:
        raise FormatError("empty OFF file", 1)
    pos = 0
    if tokens[0].upper() == "OFF":
        pos = 1
    elif tokens[0].upper().startswith("OFF"):
        # header glued to the first count, e.g. "OFF3 3 0"
        tokens[0] = tokens[0][3:]
    else:
        raise FormatError("missing OFF header", _token_line(data, 0))
    try:
        nv, nf, _ = map(int, tokens[pos:pos + 3])
        if nv < 0 or nf < 0:
            raise ValueError("negative counts")
        body = " ".join(tokens[pos + 3:]).split(None, 3 * nv)
        verts = np.array(body[:3 * nv], dtype=np.float64).reshape(nv, 3)
        faces = "".join(body[3 * nv:])  # the face list and any tokens after it
        if faces.encode("ascii").translate(None, b"0123456789 \t\n\r\x0b\x0c"):
            raise ValueError("a face list np.fromstring may read otherwise than str.split")
        # a value np.fromstring saturates is an index past the vertices or a count past the file
        ints = np.fromstring(faces, np.int64, sep=" ")
        step = int(ints[0]) + 1 if nf else 4  # no faces: any size above 2 reads none
        if step > 3 and nf * step <= ints.shape[0] and (ints[:nf * step:step] == step - 1).all():
            heads = np.arange(0, nf * step, step)
        else:
            heads, p, vals = [], 0, ints.tolist()
            for _ in range(nf):
                heads.append(p)
                p += vals[p] + 1
            if p > len(vals) or min(vals[h] for h in heads) < 3:
                raise ValueError("a face past the file, or of fewer than 3 vertices")
            heads = np.array(heads, dtype=np.int64)
        # fan triangulation: face f's triangle j is (first, j + 1, j + 2)
        tris = ints[heads] - 2
        fan = np.repeat(heads + 1, tris)
        j = fan + _ranks(tris) + 1
        return TriangleMesh(verts, np.stack([ints[fan], ints[j], ints[j + 1]], axis=1))
    except (ValueError, IndexError, OverflowError):
        pass
    tokens[1:] = text.split()[1:]  # the header token as cut above, then every token
    return _walk_off(data, tokens, pos)


def _walk_off(data: str, tokens: list[str], pos: int) -> TriangleMesh:
    """The mesh of an OFF text, or the :class:`FormatError` (with its line)
    of its first bad token, reading ``tokens`` one at a time from ``pos``."""

    def check(ok: bool, message: str, index: int | None = None):
        """Raise ``message`` at token ``index``, by default the last read."""
        if not ok:
            raise FormatError(message, _token_line(data, pos - 1 if index is None else index))

    def read(kind, what):
        nonlocal pos
        check(pos < len(tokens), f"unexpected end of file while reading {what}")
        pos += 1
        try:
            return kind(tokens[pos - 1])
        except ValueError:
            raise FormatError(f"expected {what}, got {tokens[pos - 1]!r}",
                              _token_line(data, pos - 1)) from None

    nv, nf, _ = [read(int, what) for what in ("vertex count", "face count", "edge count")]
    check(nv >= 0 and nf >= 0, "negative counts in OFF header", 0)
    coords, tris = [], []
    for i in range(3 * nv):
        coords.append(read(float, f"vertex {i // 3} coordinate"))
        check(math.isfinite(coords[-1]), f"vertex {i // 3} has a non-finite coordinate")
    for i in range(nf):
        k = read(int, f"face {i} vertex count")
        check(k >= 3, f"face {i} has {k} vertices")
        face = []
        for _ in range(k):
            face.append(read(int, f"face {i} index"))
            check(0 <= face[-1] < nv, f"face {i} references vertex {face[-1]} of {nv}")
        tris += [(face[0], face[j], face[j + 1]) for j in range(1, k - 1)]
    return TriangleMesh(np.array(coords, dtype=np.float64).reshape(nv, 3),
                        np.array(tris, dtype=np.int64).reshape(-1, 3))


def save_off(mesh: TriangleMesh, path):
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(mesh.vertices)} {len(mesh.faces)} 0\n")
        for v in mesh.vertices:
            fh.write(f"{v[0]} {v[1]} {v[2]}\n")
        for f in mesh.faces:
            fh.write(f"3 {f[0]} {f[1]} {f[2]}\n")


# ---------------------------------------------------------------------------
# random rotations and image resampling


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random 3D rotation via a normalized quaternion."""
    q = rng.normal(size=4)
    q /= np.sqrt(q.dot(q))  # np.linalg.norm(q), without its argument handling
    w, x, y, z = q.tolist()
    return np.array([
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ]).reshape(3, 3)


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
    """Uniformly scale and translate ``(P, d)`` points to fill the grid's
    valid region; returns the ``(P, d)`` fitted points.

    Cubic/square grids fit the bounding box into ``[margin, m-1-margin]``;
    simplex grids solve the largest homothety that satisfies the coordinate
    and coordinate-sum constraints with the same margin.  The work runs on
    the ``(d, P)`` transpose (:func:`_fit_coords`), bit-identical to
    fitting the rows.
    """
    return _fit_coords(np.asarray(points, dtype=float).T, shape, margin).T


def _fit_coords(xyz: np.ndarray, shape: GridShape, margin: float) -> np.ndarray:
    """:func:`fit_points` on coordinate-major ``(d, P)`` points, into a new
    ``(d, P)`` array; each point gets the arithmetic a ``(P, d)`` row would.

    A ``(d, K, P)`` stack of K point sets fits each set on its own, into a
    new ``(d, K, P)`` array, bit for bit as fitting it alone: every
    reduction runs over the last axis, and each set's scale and shift are
    an entry of a column (a set of extent 0, whose points are all 0,
    divides by 1).
    """
    span = shape.m - 1 - 2 * margin
    if span <= 0:
        raise ValueError(f"grid size {shape.m} leaves no room at margin {margin}")
    lo = xyz.min(axis=-1, keepdims=True)
    fitted = xyz - lo
    if not shape.lattice.is_simplex:
        extent = xyz.max(axis=-1, keepdims=True) - lo
        top = extent.max(axis=0)
        scale = span / np.where(top > 0, top, 1.0)
        fitted *= scale
        # center the smaller extents
        fitted += (span - extent * scale) / 2.0
        fitted += margin
        return fitted
    d = shape.ndim
    s_total = shape.m - 1 - (d + 1) * margin
    if s_total <= 0:
        raise ValueError(f"grid size {shape.m} leaves no room at margin {margin}")
    top = coord_sum(fitted).max(axis=-1, keepdims=True)
    fitted *= s_total / np.where(top > 0, top, 1.0)
    fitted += margin
    fitted += (shape.m - 1 - margin - coord_sum(fitted).max(axis=-1, keepdims=True)) / (d + 1)
    return fitted


# ---------------------------------------------------------------------------
# voxelization and rasterization


def _occupancy_grid(shape: GridShape, keys: np.ndarray) -> SparseGrid:
    """Occupancy grid of the given packed keys: value 1 at each, ground 0."""
    keys = np.sort(keys)
    keys = keys[run_heads(keys)]
    return SparseGrid(shape, keys, np.ones((keys.shape[0], 1), np.float32), np.zeros(1, np.float32))


def _ranks(counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(c) for c in counts])`` without the loop."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) - np.repeat(ends - counts, counts)


def _subdivisions(corners: np.ndarray) -> np.ndarray:
    """Barycentric subdivision count ``n`` of each (3 corners, 3 coords)
    face: the smallest that makes every sub-edge shorter than 0.45."""
    edges = np.stack([corners[:, 1] - corners[:, 0],
                      corners[:, 2] - corners[:, 0],
                      corners[:, 2] - corners[:, 1]], axis=1)
    length = np.sqrt(np.einsum("fki,fki->fk", edges, edges))
    return np.maximum(1, np.ceil(length.max(axis=1) / 0.45).astype(np.int64))


def voxelize_mesh(mesh: TriangleMesh, m: int, rotation: np.ndarray | None = None,
                  fit: bool = True, lattice: LatticeKind = LatticeKind.CUBIC) -> SparseGrid:
    """Surface-sample a triangle mesh into a cubic (or tetrahedral)
    occupancy grid.

    The mesh is optionally rotated, then uniformly scaled and placed to
    fit the grid with a one-voxel margin, as :func:`fit_points` fits
    (``fit=False`` keeps the mesh's own grid coordinates).  Face
    ``A, B, C`` is sampled at the barycentric lattice
    ``A + (u/n)(B-A) + (v/n)(C-A)``, ``u + v <= n``, where ``n`` is the
    smallest count that makes every sub-edge shorter than 0.45 voxel.  The
    lattices of all faces form one coordinate-major ``(3, P)`` point
    array, so every repeat and product runs along a long last axis; its
    rounded voxels become active with value 1.  Cubic voxels are clipped
    into the grid; on the tetrahedral lattice a voxel outside the simplex
    (which a fitted mesh never has) is an error that names it.  Voxels set
    flags in a table over their box, read in raster order, which is key
    order, unless :func:`latticenet.ops.box_numbering` rules the box too
    large for its points, as it rules for the rulebook; then they sort.
    """
    if len(mesh.faces) < 1:
        raise ValueError("mesh has no faces to voxelize")
    if m < 2:
        raise ValueError(f"voxel grid must have size >= 2, got {m}")
    if lattice.ndim != 3:
        raise ValueError(f"meshes are 3D; lattice {lattice.value} is 2D")
    verts = mesh.vertices
    if rotation is not None:
        verts = verts @ np.asarray(rotation, dtype=float).T
    shape = GridShape(lattice, m)
    xyz = np.ascontiguousarray(verts.T)
    if fit:
        xyz = _fit_coords(xyz, shape, 1.0)

    n = _subdivisions(xyz.T[mesh.faces])
    # face f has rows u = 0 .. n_f; row u holds v = 0 .. n_f - u.  Per-face
    # values are repeated to rows, and per-row values to points, in order,
    # along the last axis of (3, .) coordinate rows
    u = _ranks(n + 1)
    row_n = np.repeat(n, n + 1)
    row_len = row_n + 1 - u
    A = xyz[:, mesh.faces[:, 0]]
    AB = xyz[:, mesh.faces[:, 1]] - A
    AC = xyz[:, mesh.faces[:, 2]] - A
    # each row's base A + (u/n)(B-A), then + (v/n)(C-A) per point: the
    # same operations in the same order as evaluating the sum per point
    # (the in-place adds swap operands, which IEEE addition allows exactly)
    base = np.repeat(AB, n + 1, axis=1)
    base *= u / row_n
    base += np.repeat(A, n + 1, axis=1)
    pts = np.repeat(base, row_len, axis=1)
    across = np.repeat(AC, (n + 1) * (n + 2) // 2, axis=1)
    across *= _ranks(row_len) / np.repeat(row_n, row_len)
    pts += across
    vox = np.rint(pts, out=pts).astype(np.int64)
    lo, hi = vox.min(axis=1), vox.max(axis=1)
    if lattice.is_simplex:
        culprit = shape.first_outside(vox)
        if culprit is not None:
            raise ValueError(f"mesh point maps to voxel {tuple(culprit.tolist())} outside the grid")
    elif lo.min() < 0 or hi.max() >= m:
        lo, hi = np.clip(lo, 0, m - 1), np.clip(hi, 0, m - 1)
        np.clip(vox, 0, m - 1, out=vox)
    n = (hi - lo + 1).tolist()
    if not ops.box_numbering(math.prod(n), vox.shape[1]):
        return _occupancy_grid(shape, pack_sites(vox.T))
    origin = int((lo[0] * n[1] + lo[1]) * n[2] + lo[2])  # raster(vox - lo), x slowest
    seen = np.zeros(math.prod(n), dtype=bool)
    seen[(vox[0] * n[1] + vox[1]) * n[2] + (vox[2] - origin)] = True
    keys = pack_sites(np.array(np.unravel_index(np.flatnonzero(seen), n)).T) + pack_sites(lo)
    return SparseGrid(shape, keys, np.ones((keys.shape[0], 1), np.float32), np.zeros(1, np.float32))


def _path_keys(xyz: np.ndarray, starts: np.ndarray,
               shape: GridShape) -> tuple[np.ndarray, np.ndarray]:
    """Packed keys of the voxels along polylines, one key per sample, and
    the offset at which each path's samples end: path ``j``'s keys run
    from ``ends[j - 1]`` (0 for the first) to ``ends[j]``.

    ``xyz`` holds the points coordinate-major, as ``(d, P)`` rows.  Path
    ``j`` runs through points ``starts[j]`` to ``starts[j + 1] - 1``, and no
    segment joins two paths.  Segment ``a -> b`` is sampled at
    ``t = k / steps``, ``k = 0 .. steps`` (the last sample at exactly
    ``t = 1``), with ``steps`` chosen so that consecutive samples are under
    half a voxel apart; a path of one point is that point.  Each sample
    gets the arithmetic it would get as a row of a ``(P, d)`` array, so the
    voxels are bit-identical to that form's.  When the paths all have one
    length (a stack) and every segment is one step (``max |b - a| / 0.45
    <= 1`` over the call), each point's two samples are built densely into
    one interleaved array, from which each path drops its last point's two
    by a slice; otherwise every sample is gathered from its segment, a
    one-step segment's at ``k = 0`` and ``k = 1`` with the same arithmetic.
    The bounds are checked on the voxels' extremes; only
    a sample outside the grid's valid region looks further, to name the
    first such voxel along the paths.
    """
    if not np.isfinite(xyz).all():
        raise ValueError("polyline has non-finite coordinates")
    # point i is sampled along segment i -> i+1 (k = 0 is the point itself);
    # a path's last point has no segment (its delta, which would join two
    # paths, is zeroed) and adds no samples of its own, unless it is also
    # the path's first
    d, P = xyz.shape
    K = starts.shape[0]
    L = P // K
    even = K * L == P and starts.tolist() == list(range(0, P, L))
    width = 0  # samples per path of a stack, when a slice cuts them
    delta = np.empty_like(xyz)
    np.subtract(xyz[:, 1:], xyz[:, :-1], out=delta[:, :-1])
    if even:
        delta.reshape(d, K, L)[:, :, -1] = 0.0
    else:
        last = np.append(starts[1:], P) - 1
        delta[:, last] = 0.0
    if even and delta.max() / 0.45 <= 1 and -delta.min() / 0.45 <= 1:
        # a stack whose every segment is one step, sampled only at its ends:
        # point i (k = 0; delta * 0.0 + point rounds to the same voxel) and
        # delta_i + point_i (k = n = 1).  Both are built for every point,
        # interleaved; a path's last point keeps neither, or its k = 0
        # when it is also the path's first
        pts = np.empty((d, P, 2))
        pts[:, :, 0] = xyz
        np.add(delta, xyz, out=pts[:, :, 1])
        width = 2 * L - 2 or 1
        ends = np.arange(width, K * width + 1, width)
    else:
        if even:
            last = starts + (L - 1)
        steps = np.maximum(1, np.ceil(np.abs(delta).max(axis=0) / 0.45).astype(np.int64))
        count = steps + 1
        count[last] = last == starts
        end = np.cumsum(count)
        ends = end[last]
        seg = np.repeat(np.arange(P), count)
        k = _ranks(count)
        n = steps[seg]
        # np.linspace(0, 1, n + 1) computes k * (1 / n), then sets the last t = 1
        t = k * (1.0 / n)
        t[k == n] = 1.0
        pts = np.take(delta, seg, axis=1)
        pts *= t
        pts += np.take(xyz, seg, axis=1)
    np.rint(pts, out=pts)
    if width:  # each path of a stack drops its last point's two samples
        pts = pts.reshape(d, K, 2 * L)[:, :, :width]
    vox = pts.astype(np.int64).reshape(d, -1)
    culprit = shape.first_outside(vox)
    if culprit is not None:
        raise ValueError(f"point maps to voxel {tuple(culprit.tolist())} outside the grid")
    return pack_sites(vox.T), ends


def rasterize_polyline(points: np.ndarray, m: int,
                       lattice: LatticeKind = LatticeKind.CUBIC) -> SparseGrid | GridBatch:
    """Trace line segments through the size-``m`` grid of ``lattice``;
    visited voxels get value 1.

    ``points`` is ``(P, d)``, one polyline, whose grid is returned (it is
    rasterized as a stack of one); or a ``(K, P, d)`` stack of K
    polylines, whose K grids are returned as one :class:`GridBatch`
    (rows 1, ground 0).  Points are sampled on their coordinate-major
    transpose (see :func:`_path_keys`), which costs no copy when
    ``points`` is the transpose of a C-ordered ``(d, P)`` or ``(d, K, P)``
    array.  Segment ``a -> b`` is sampled at ``t = k / steps``,
    ``k = 0 .. steps`` (the last sample at exactly ``t = 1``), with
    ``steps`` chosen so that consecutive samples are under half a voxel
    apart; the voxel path is therefore 26-connected.  All segments'
    samples, of every polyline of a stack, form one point array, and runs
    of samples in one voxel count once before each polyline's keys are
    sorted.  A sample outside the grid's valid region is an error that
    names the first such voxel along the polylines, the voxel that
    rasterizing them one at a time would name; non-finite points are an
    error too.
    """
    shape = GridShape(lattice, m)
    points = np.asarray(points, dtype=float)
    if points.ndim != 3:
        return rasterize_polyline(points.reshape(1, -1, shape.ndim), m, lattice).grid(0)
    K, P, d = points.shape
    if d != shape.ndim:
        raise ValueError(f"a stack of {shape.ndim}D polylines must be (K, P, {shape.ndim}), "
                         f"got {points.shape}")
    if K < 1 or P < 1:
        raise ValueError("need at least one polyline of at least one point")
    if K > MAX_COORD // m:  # more grids than fit end to end in one key range
        return GridBatch.of([rasterize_polyline(p, m, lattice) for p in points])
    xyz = np.ascontiguousarray(points.transpose(2, 0, 1)).reshape(d, K * P)
    keys, ends = _path_keys(xyz, np.arange(0, K * P, P), shape)
    # polyline j's keys move j grids up the first axis, to the keys of
    # sites (x + j m, y, ...), so that one sort orders every grid's keys
    # apart and a key's remainder modulo that shift is its own; each
    # polyline's first key then starts a run of its own
    shift = int(pack_sites((m,) + (0,) * (d - 1)))
    bounds = ends.tolist()
    for j, (lo, hi) in enumerate(zip(bounds, bounds[1:]), 1):
        keys[lo:hi] += j * shift
    keys = keys[run_heads(keys)]
    keys.sort()
    keys = keys[run_heads(keys)]
    start = np.searchsorted(keys, np.arange(0, (K + 1) * shift, shift))
    keys %= shift
    table = np.zeros((keys.shape[0] + 1, 1), dtype=np.float32)
    table[:keys.shape[0]] = 1.0
    return GridBatch(shape, keys, table, start)


def strokes_to_spacetime(sample: StrokeSample, m: int) -> SparseGrid:
    """Encode ordered strokes as paths in (x, y, time) space.

    x and y are scaled/centered into the grid; the time coordinate is the
    cumulative point index across all strokes scaled to the grid, so
    redrawing the same shape later lands in a different time slab.  No
    segments are drawn across stroke boundaries.  All strokes are sampled
    as one coordinate-major ``(3, P)`` point array, stroke after stroke.
    """
    if not sample.strokes:
        raise ValueError("sample has no strokes")
    lengths = [len(s) for s in sample.strokes]
    P = sum(lengths)
    pts = np.empty((3, P))
    pts[:2] = np.concatenate(sample.strokes).T
    pts[:2] = _fit_coords(pts[:2], GridShape(LatticeKind.SQUARE, m), margin=0.0)
    np.multiply(np.arange(P), (m - 1) / max(P - 1, 1), out=pts[2])
    shape = GridShape(LatticeKind.CUBIC, m)
    keys, _ = _path_keys(pts, np.cumsum([0] + lengths[:-1]), shape)
    return _occupancy_grid(shape, keys[run_heads(keys)])


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
KNOT_SAMPLES = 720  # points per knot curve


def knot_curve(kind: str) -> np.ndarray:
    """Closed parametric curve for the knot class, centered, unit radius,
    as :data:`KNOT_SAMPLES` points; a fresh copy of the curve computed
    once per ``kind``."""
    return _knot_curve(kind).copy()


@lru_cache(maxsize=16)
def _knot_curve(kind: str) -> np.ndarray:
    t = np.linspace(0.0, 2 * np.pi, KNOT_SAMPLES, endpoint=False)
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
    pts.flags.writeable = False
    return pts


# Knots are fitted and rasterized this many at a time.  knot_dataset(m, 48)
# per knot, warm, the best of 9 interleaved runs (median in brackets) on a
# 2-vCPU Xeon with numpy 2.4: tetrahedral m = 14 takes 65 (67) us at 3,
# 53 (57) at 6, 52 (54) at 8, 55 (73) at 12 and 91 (94) at 16; cubic m = 40
# takes 78 (83) at 3, 71 (75) at 6, 70 (82) at 8 and 96 (116) at 10, larger
# stacks falling out of cache
KNOT_CHUNK = 6


def synth_knot(kind: str, m: int, rng: np.random.Generator,
               lattice: LatticeKind = LatticeKind.CUBIC) -> LabeledSample:
    """One randomly rotated, jittered, rasterized knot sample."""
    return _knots([kind], m, rng, lattice)[0]


def knot_dataset(m: int, per_class: int, rng: np.random.Generator,
                 lattice: LatticeKind = LatticeKind.CUBIC) -> list[LabeledSample]:
    """per_class samples of each knot kind, in class-major order."""
    if per_class < 0:
        raise ValueError(f"per_class must be 0 or more, got {per_class}")
    return _knots([kind for kind in KNOT_KINDS for _ in range(per_class)], m, rng, lattice)


def _knots(kinds: list[str], m: int, rng: np.random.Generator,
           lattice: LatticeKind) -> list[LabeledSample]:
    """A randomly rotated, jittered, rasterized knot of each kind in turn.

    Each knot draws its rotation, then its scale, from ``rng``, knot after
    knot; the knots are fitted and rasterized in stacks of up to
    :data:`KNOT_CHUNK`, each one :func:`_fit_coords` call and one
    :func:`rasterize_polyline` call, whose grids equal those of the knots
    built one at a time.  A 2D lattice is refused before anything is drawn.
    """
    if lattice.ndim != 3:
        raise ValueError(f"knots are 3D; lattice {lattice.value} is 2D")
    shape = GridShape(lattice, m)
    out = []
    for lo in range(0, len(kinds), KNOT_CHUNK):
        chunk = kinds[lo:lo + KNOT_CHUNK]
        # coordinate-major and closed: each curve's first point repeats at
        # its end, which changes no extreme of the fit, so the repeat is
        # fitted to the first point's values
        closed = np.empty((3, len(chunk), KNOT_SAMPLES + 1))
        for j, kind in enumerate(chunk):
            pts = _knot_curve(kind) @ random_rotation(rng).T
            np.multiply(pts.T, rng.uniform(0.88, 1.0), out=closed[:, j, :-1])  # scale jitter
        closed[:, :, -1] = closed[:, :, 0]
        batch = rasterize_polyline(_fit_coords(closed, shape, 0.6).transpose(1, 2, 0), m, lattice)
        out += [LabeledSample(batch.grid(j), KNOT_KINDS.index(kind))
                for j, kind in enumerate(chunk)]
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
