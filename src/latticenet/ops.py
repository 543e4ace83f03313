"""Sparse forward passes with ground-state propagation.

A convolution over a sparse grid runs in three steps:

1. scan the active input sites and determine the active *output* sites
   (an output site is active when any input site under its footprint is
   active), assigning each a row number;
2. gather, for every active output site, the footprint's input vectors
   into one row of a matrix ``Q``, substituting the input ground vector
   at inactive positions;
3. one dense multiply, ``M_out = Q @ W + B``.

Step 3 dominates for wide layers, so batching elsewhere concatenates the
``Q`` matrices of a whole mini-batch before multiplying.  The output
ground state is what an all-ground field would produce, so every layer
also maps the ground vector forward and inactive sites never need to be
touched.

Pooling uses the same active-site rule with a component-wise max over the
footprint; fractional max pooling (FMP) replaces the regular footprint
with randomized overlapping size-2 regions that shrink each dimension by
a factor strictly between 1 and 2.  An input site meets at most two
regions per dimension, so FMP's active output sites are the up to eight
region combinations of each active input site, enumerated for all sites
at once with one ``np.unique``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PlanError
from .geometry import (
    GridShape,
    LatticeKind,
    filter_offsets,
    filter_volume,
    out_size,
    pack_sites,
    unpack_sites,
)
from .grid import SparseGrid

FMP_RATIO = 2.0 ** (2.0 / 3.0)


@dataclass(frozen=True)
class FilterGeometry:
    """Filter footprint on a lattice: linear size ``f``, stride ``s``."""

    lattice: LatticeKind
    f: int
    s: int = 1

    def __post_init__(self):
        if self.f < 1 or self.s < 1:
            raise ValueError(f"filter size and stride must be >= 1, got f={self.f} s={self.s}")

    @property
    def volume(self) -> int:
        return filter_volume(self.lattice, self.f)

    @property
    def offsets(self) -> tuple[tuple[int, ...], ...]:
        return filter_offsets(self.lattice, self.f)

    def offsets_array(self) -> np.ndarray:
        return np.asarray(self.offsets, dtype=np.int64)


@dataclass
class ConvLayer:
    """Learnable convolution: ``W`` is (F * n_in, n_out), ``B`` is (n_out,).

    Row block ``k`` of ``W`` (rows ``k*n_in .. (k+1)*n_in - 1``) belongs to
    ``geometry.offsets[k]``; the canonical offset order makes checkpoints
    portable.
    """

    geometry: FilterGeometry
    n_in: int
    n_out: int
    W: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        self.W = np.asarray(self.W)
        self.B = np.asarray(self.B).reshape(-1)
        want = self.geometry.volume * self.n_in
        if self.W.shape != (want, self.n_out):
            raise ValueError(
                f"W must be ({want}, {self.n_out}) for footprint {self.geometry.volume}"
                f" x {self.n_in} inputs, got {self.W.shape}"
            )
        if self.B.shape[0] != self.n_out:
            raise ValueError(f"B must have {self.n_out} entries, got {self.B.shape[0]}")

    @classmethod
    def init(cls, geometry: FilterGeometry, n_in: int, n_out: int, rng: np.random.Generator,
             dtype=np.float32) -> "ConvLayer":
        fan_in = geometry.volume * n_in
        W = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, n_out)).astype(dtype)
        B = np.zeros(n_out, dtype=dtype)
        return cls(geometry, n_in, n_out, W, B)


@dataclass
class PoolLayer:
    lattice: LatticeKind
    p: int
    s: int

    def __post_init__(self):
        if self.p < 1 or self.s < 1:
            raise ValueError(f"pool size and stride must be >= 1, got p={self.p} s={self.s}")

    @property
    def geometry(self) -> FilterGeometry:
        return FilterGeometry(self.lattice, self.p, self.s)


@dataclass
class FMPLayer:
    """Fractional max pooling; cubic lattice only."""

    lattice: LatticeKind
    ratio: float = FMP_RATIO
    seed: int = 0

    def __post_init__(self):
        if self.lattice is not LatticeKind.CUBIC:
            raise ValueError("fractional max pooling is defined on the cubic lattice only")
        if not 1.0 < self.ratio < 2.0:
            raise ValueError(f"FMP ratio must lie strictly between 1 and 2, got {self.ratio}")


@dataclass
class GatherPlan:
    """Everything steps 1-2 produce, kept for the backward pass.

    ``src[i, k]`` is the input row feeding output row ``i`` at offset
    ``k``, or -1 when that position is inactive (ground-filled).
    """

    in_shape: GridShape
    out_shape: GridShape
    out_keys: np.ndarray
    src: np.ndarray
    Q: np.ndarray
    a_in: int

    @property
    def a_out(self) -> int:
        return self.out_keys.shape[0]


@dataclass
class PoolPlan:
    out_shape: GridShape
    out_keys: np.ndarray
    argmax_src: np.ndarray  # (a_out, n) input row per component, -1 = ground won
    a_in: int


def conv_active_sites(grid: SparseGrid, geometry: FilterGeometry):
    """Step 1: active output sites (sorted packed keys) and the output shape."""
    m_out = out_size(grid.shape.m, geometry.f, geometry.s)
    out_shape = GridShape(grid.shape.lattice, m_out)
    if grid.a == 0:
        return np.empty(0, np.int64), out_shape
    sites = grid.sites()
    s = geometry.s
    found = []
    for off in geometry.offsets:
        q = sites - np.asarray(off, dtype=np.int64)
        ok = (q >= 0).all(axis=1)
        if s > 1:
            ok &= (q % s == 0).all(axis=1)
        u = q // s
        ok &= (u <= m_out - 1).all(axis=1)
        if out_shape.lattice.is_simplex:
            ok &= u.sum(axis=1) <= m_out - 1
        if ok.any():
            found.append(pack_sites(u[ok]))
    if not found:
        return np.empty(0, np.int64), out_shape
    return np.unique(np.concatenate(found)), out_shape


def build_gather(grid: SparseGrid, out_keys: np.ndarray, geometry: FilterGeometry,
                 out_shape: GridShape) -> GatherPlan:
    """Step 2: build the gather matrix Q (a_out, F * n_in)."""
    a_out = out_keys.shape[0]
    F = geometry.volume
    n = grid.n
    if a_out == 0:
        return GatherPlan(grid.shape, out_shape, out_keys,
                          np.empty((0, F), np.int64),
                          np.empty((0, F * n), grid.rows.dtype), grid.a)
    base = unpack_sites(out_keys, grid.shape.ndim) * geometry.s
    src = np.empty((a_out, F), dtype=np.int64)
    for k, off in enumerate(geometry.offsets):
        src[:, k] = grid.lookup(pack_sites(base + np.asarray(off, dtype=np.int64)))
    rows_ext = np.vstack([grid.ground[None, :].astype(grid.rows.dtype, copy=False), grid.rows])
    Q = rows_ext[src + 1].reshape(a_out, F * n)
    return GatherPlan(grid.shape, out_shape, out_keys, src, Q, grid.a)


def conv_forward(grid: SparseGrid, layer: ConvLayer, *, keep_plan: bool = False):
    """Step 3: M_out = Q @ W + B, plus the ground-state map."""
    if grid.n != layer.n_in:
        raise ValueError(f"layer expects {layer.n_in} input features, grid has {grid.n}")
    if grid.shape.lattice is not layer.geometry.lattice:
        raise ValueError(
            f"layer is {layer.geometry.lattice.value}, grid is {grid.shape.lattice.value}"
        )
    out_keys, out_shape = conv_active_sites(grid, layer.geometry)
    plan = build_gather(grid, out_keys, layer.geometry, out_shape)
    rows = plan.Q @ layer.W + layer.B
    g_tile = np.tile(grid.ground.astype(layer.W.dtype, copy=False), layer.geometry.volume)
    ground = g_tile @ layer.W + layer.B
    out = SparseGrid(out_shape, out_keys, rows, ground)
    return (out, plan) if keep_plan else out


def _max_with_plan(grid: SparseGrid, out_keys, out_shape, src) -> tuple[SparseGrid, PoolPlan]:
    """Shared tail of pooling ops: component-wise max + argmax routing."""
    a_out, F = src.shape
    rows_ext = np.vstack([grid.ground[None, :].astype(grid.rows.dtype, copy=False), grid.rows])
    gathered = rows_ext[src + 1]  # (a_out, F, n)
    rows = gathered.max(axis=1) if a_out else np.empty((0, grid.n), grid.rows.dtype)
    # first-max argmax implements the lowest-offset tie rule
    if a_out:
        amax = gathered.argmax(axis=1)  # (a_out, n)
        argmax_src = np.take_along_axis(src, amax, axis=1)
    else:
        argmax_src = np.empty((0, grid.n), np.int64)
    out = SparseGrid(out_shape, out_keys, rows, grid.ground.copy())
    return out, PoolPlan(out_shape, out_keys, argmax_src, grid.a)


def pool_forward(grid: SparseGrid, layer: PoolLayer, *, keep_plan: bool = False):
    """Max pooling; active rule and gather identical to convolution."""
    if grid.shape.lattice is not layer.lattice:
        raise ValueError(
            f"pool layer is {layer.lattice.value}, grid is {grid.shape.lattice.value}"
        )
    geom = layer.geometry
    out_keys, out_shape = conv_active_sites(grid, geom)
    plan = build_gather(grid, out_keys, geom, out_shape)
    src = plan.src
    out, pplan = _max_with_plan(grid, out_keys, out_shape, src)
    return (out, pplan) if keep_plan else out


# ---------------------------------------------------------------------------
# fractional max pooling


def fmp_regions(m_in: int, ratio: float, seed: int, ndim: int = 3) -> tuple[np.ndarray, ...]:
    """Per-dimension region starts for one FMP application.

    Each dimension gets ``m_out = floor(m_in / ratio)`` overlapping size-2
    regions ``[r, r+1]``: the first starts at 0, the last at ``m_in - 2``,
    and consecutive starts differ by a pseudorandom step of 1 or 2.  The
    step sequence is a deterministic function of ``seed``.
    """
    if not 1.0 < ratio < 2.0:
        raise ValueError(f"FMP ratio must lie strictly between 1 and 2, got {ratio}")
    m_out = int(np.floor(m_in / ratio))
    if m_out < 1:
        raise ValueError(f"FMP output size would be {m_out} for input {m_in}")
    n_steps = m_out - 1
    n_twos = (m_in - 2) - n_steps
    if n_twos < 0 or n_twos > n_steps:
        raise PlanError(
            f"cannot cover size {m_in} with {m_out} overlapping size-2 regions"
        )
    rng = np.random.default_rng(seed)
    dims = []
    for _ in range(ndim):
        steps = np.ones(n_steps, dtype=np.int64)
        if n_steps:
            steps[rng.permutation(n_steps)[:n_twos]] = 2
        starts = np.concatenate([[0], np.cumsum(steps)])
        dims.append(starts)
    return tuple(dims)


def fmp_out_size(m_in: int, ratio: float) -> int:
    m_out = int(np.floor(m_in / ratio))
    if m_out < 1:
        raise PlanError(f"FMP output size would be {m_out} for input {m_in}")
    if (m_in - 2) - (m_out - 1) > max(m_out - 1, 0) or m_in < 2:
        raise PlanError(
            f"cannot cover size {m_in} with {m_out} overlapping size-2 regions"
        )
    return m_out


def fmp_forward(grid: SparseGrid, layer: FMPLayer, regions=None, *, keep_plan: bool = False):
    """Max pooling over randomized overlapping size-2 regions."""
    if grid.shape.lattice is not LatticeKind.CUBIC:
        raise ValueError("FMP requires a cubic grid")
    if regions is None:
        regions = fmp_regions(grid.shape.m, layer.ratio, layer.seed)
    m_out = regions[0].shape[0]
    out_shape = GridShape(LatticeKind.CUBIC, m_out)

    # active output sites: regions whose 2-window touches an active input
    # site.  Along each dimension a site at c meets at most two regions, the
    # one starting at c - 1 and the one starting at c, so its candidates
    # are the 2 x 2 x 2 combinations of those that exist.
    starts = regions
    sites = grid.sites()
    region, hit = [], []
    for dim, spread in enumerate((np.s_[:, None, None], np.s_[None, :, None],
                                  np.s_[None, None, :])):
        c = sites[:, dim]
        want = np.stack([c - 1, c])  # (2, a) wanted region starts
        r = np.searchsorted(starts[dim], want)
        n_r = starts[dim].shape[0]
        region.append(r[spread])  # dimension dim's choice on axis dim of (2, 2, 2, a)
        hit.append(((r < n_r) & (starts[dim][np.minimum(r, n_r - 1)] == want))[spread])
    corner = np.stack(np.broadcast_arrays(*region), axis=-1)  # (2, 2, 2, a, 3)
    ok = hit[0] & hit[1] & hit[2]
    out_keys = np.unique(pack_sites(corner[ok]))

    # gather the 8 corners of each region product
    a_out = out_keys.shape[0]
    out_sites = unpack_sites(out_keys, 3)
    src = np.empty((a_out, 8), dtype=np.int64)
    k = 0
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                pos = np.stack(
                    [starts[0][out_sites[:, 0]] + dx,
                     starts[1][out_sites[:, 1]] + dy,
                     starts[2][out_sites[:, 2]] + dz], axis=1)
                src[:, k] = grid.lookup(pack_sites(pos))
                k += 1
    out, pplan = _max_with_plan(grid, out_keys, out_shape, src)
    return (out, pplan) if keep_plan else out


# ---------------------------------------------------------------------------
# activation and classifier head


def relu_forward(grid: SparseGrid, *, keep_mask: bool = False):
    """Component-wise max(., 0) on rows and ground; activity set unchanged."""
    rows = np.maximum(grid.rows, 0)
    ground = np.maximum(grid.ground, 0)
    out = SparseGrid(grid.shape, grid.keys, rows, ground)
    if keep_mask:
        return out, grid.rows > 0
    return out


def classifier_forward(grid: SparseGrid, layer: ConvLayer, *, keep_plan: bool = False):
    """Linear head over the single site of a spatially collapsed grid.

    Equivalent to a size-1 convolution at spatial size 1; the logits come
    from the site's vector, or from the ground state when it is inactive.
    """
    if grid.shape.m != 1:
        raise ValueError(f"classifier needs spatial size 1, got {grid.shape.m}")
    if layer.geometry.f != 1:
        raise ValueError("classifier layer must have filter size 1")
    out, plan = conv_forward(grid, layer, keep_plan=True)
    logits = out.rows[0] if out.a else out.ground
    return (logits, plan) if keep_plan else logits
