"""Sparse forward passes with ground-state propagation, a batch at a time.

A convolution over a mini-batch of sparse grids runs in three steps:

1. the *rulebook*: an active input site ``c`` lies under footprint offset
   ``o`` of output site ``u`` exactly when ``c = u * s + o``, so every
   (active site, offset) pair with ``u`` inside the output grid is one
   candidate.  Candidates are tagged with their sample and grouped with
   ``np.unique``: the groups are the active output sites (an output site
   is active when any input site under its footprint is active), grouped
   by sample with keys ascending in each, and the grouping fills the
   gather index ``src`` at the same time;
2. gather, for every active output site, the footprint's input vectors
   into one row of a matrix ``Q``, substituting the sample's ground
   vector at inactive positions;
3. one dense multiply, ``M_out = Q @ W + B``.

Each step runs once per layer and batch, whatever the batch size, and
gives every sample exactly the rows, row order and gather index that a
batch of that sample alone gives.  The one-grid functions run the batch
code on a batch of one.  The output ground state is what an all-ground
field would produce, so every layer also maps the ground vector forward
and inactive sites never need to be touched.

Pooling uses the same active-site rule with a component-wise max over the
footprint.  Fractional max pooling (FMP) is max pooling over size-2 cubic
windows whose starts are randomized overlapping regions that shrink each
dimension by a factor strictly between 1 and 2.  One rulebook serves
every layer: along each dimension output coordinate ``u`` has a window
start, ``u * s`` for a convolution or pool and the region start for FMP,
and input site ``c`` lies under offset ``o`` exactly when ``c - o`` is a
start, which one ``searchsorted`` per dimension finds.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import PlanError
from .geometry import (
    COORD_BITS,
    GridShape,
    LatticeKind,
    filter_offsets,
    filter_volume,
    out_size,
)
from .grid import GridBatch, SparseGrid

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
    ``k``, or -1 when that position is inactive (ground-filled).  A plan
    covers one grid or, with batch row numbers, a whole :class:`GridBatch`.
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

    def sample(self, rows: slice, row0: int, a_in: int) -> "GatherPlan":
        """One sample's plan out of a batch plan, in the sample's own row numbers."""
        return GatherPlan(self.in_shape, self.out_shape, self.out_keys[rows],
                          _local(self.src[rows], row0), self.Q[rows], a_in)


@dataclass
class PoolPlan:
    out_shape: GridShape
    out_keys: np.ndarray
    argmax_src: np.ndarray  # (a_out, n) input row per component, -1 = ground won
    a_in: int

    def sample(self, rows: slice, row0: int, a_in: int) -> "PoolPlan":
        return PoolPlan(self.out_shape, self.out_keys[rows],
                        _local(self.argmax_src[rows], row0), a_in)


def _local(src: np.ndarray, row0: int) -> np.ndarray:
    return np.where(src >= 0, src - row0, -1)


class SamplePlans(Sequence):
    """Per-sample views of one layer's batch plan.

    ``plan`` is a :class:`GatherPlan` or :class:`PoolPlan` over the batch's
    rows; item ``b`` is sample ``b``'s own plan, built on access.
    ``in_start`` and ``out_start`` are the row offsets of the samples in
    the layer's input and output batches.
    """

    def __init__(self, plan, in_start: np.ndarray, out_start: np.ndarray):
        self.plan = plan
        self.in_start = in_start
        self.out_start = out_start

    def __len__(self) -> int:
        return self.in_start.shape[0] - 1

    def __getitem__(self, b: int):
        if not -len(self) <= b < len(self):
            raise IndexError(b)
        b %= len(self)
        row0 = int(self.in_start[b])
        return self.plan.sample(slice(self.out_start[b], self.out_start[b + 1]), row0,
                                int(self.in_start[b + 1]) - row0)


# ---------------------------------------------------------------------------
# the rulebook: active output sites and the gather index, one pass per batch


def _window_rulebook(batch: GridBatch, offsets, starts, bound):
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


def _row_starts(sample: np.ndarray, B: int) -> np.ndarray:
    """Row offsets of samples 0..B-1 in rows sorted by ``sample``."""
    return np.searchsorted(sample, np.arange(B + 1))


def conv_rulebook(batch: GridBatch, geometry: FilterGeometry):
    """Steps 1-2 for a whole batch: (out_keys, out_sample, src, out_shape).

    Output row ``i`` is site ``out_keys[i]`` of sample ``out_sample[i]``;
    rows are grouped by sample, keys ascending within each.  ``src[i, k]``
    is the batch row under footprint position ``k`` of output row ``i``,
    or -1 where that position is inactive.  The window of output site
    ``u`` starts at ``u * s``.
    """
    m_out = out_size(batch.shape.m, geometry.f, geometry.s)
    out_shape = GridShape(batch.shape.lattice, m_out)
    starts = np.arange(m_out) * geometry.s
    bound = int(starts[-1]) if out_shape.lattice.is_simplex else None
    out_keys, out_sample, src = _window_rulebook(batch, geometry.offsets,
                                                 (starts,) * out_shape.ndim, bound)
    return out_keys, out_sample, src, out_shape


def _gather_rows(batch: GridBatch, src: np.ndarray, out_sample: np.ndarray) -> np.ndarray:
    """(a_out, F, n): the input vectors under each output row's footprint,
    with the sample's ground vector at inactive positions."""
    table = np.concatenate([batch.grounds.astype(batch.rows.dtype, copy=False), batch.rows])
    return table[np.where(src >= 0, src + batch.B, out_sample[:, None])]


def conv_active_sites(grid: SparseGrid, geometry: FilterGeometry):
    """Step 1 for one grid: active output sites (sorted packed keys) and the output shape."""
    out_keys, _, _, out_shape = conv_rulebook(GridBatch.of([grid]), geometry)
    return out_keys, out_shape


def build_gather(grid: SparseGrid, out_keys: np.ndarray, geometry: FilterGeometry,
                 out_shape: GridShape) -> GatherPlan:
    """Step 2 for one grid and any sites of the output grid: the rulebook's
    gather index rows for ``out_keys`` (all -1 for a site the rulebook
    leaves inactive) and the gather matrix Q (a_out, F * n_in)."""
    batch = GridBatch.of([grid])
    keys, _, src, _ = conv_rulebook(batch, geometry)
    a_out, a_rule = out_keys.shape[0], keys.shape[0]
    pos = np.searchsorted(keys, out_keys)
    pos[np.append(keys, -1)[pos] != out_keys] = a_rule
    src = np.vstack([src, np.full((1, geometry.volume), -1, np.int64)])[pos]
    Q = _gather_rows(batch, src, np.zeros(a_out, np.int64))
    return GatherPlan(grid.shape, out_shape, out_keys, src,
                      Q.reshape(a_out, geometry.volume * grid.n), grid.a)


# ---------------------------------------------------------------------------
# batch forward ops; each single-grid op below is the batch op on one grid


def conv_forward_batch(batch: GridBatch, layer: ConvLayer):
    """Steps 1-3 for a batch: one rulebook pass and one dense multiply.

    Returns the output batch and the batch's :class:`GatherPlan`.
    """
    if batch.n != layer.n_in:
        raise ValueError(f"layer expects {layer.n_in} input features, grid has {batch.n}")
    if batch.shape.lattice is not layer.geometry.lattice:
        raise ValueError(
            f"layer is {layer.geometry.lattice.value}, grid is {batch.shape.lattice.value}"
        )
    geom = layer.geometry
    out_keys, out_sample, src, out_shape = conv_rulebook(batch, geom)
    Q = _gather_rows(batch, src, out_sample).reshape(out_keys.shape[0], geom.volume * batch.n)
    rows = Q @ layer.W + layer.B
    ground = np.tile(batch.grounds, geom.volume).astype(layer.W.dtype) @ layer.W + layer.B
    out = GridBatch(out_shape, out_keys, rows, ground, _row_starts(out_sample, batch.B))
    return out, GatherPlan(batch.shape, out_shape, out_keys, src, Q, batch.a)


def conv_forward(grid: SparseGrid, layer: ConvLayer, *, keep_plan: bool = False):
    """Steps 1-3 for one grid: M_out = Q @ W + B, plus the ground-state map."""
    out, plan = conv_forward_batch(GridBatch.of([grid]), layer)
    return (out.grid(0), plan) if keep_plan else out.grid(0)


# elements of the (rows, F, n) pooling gather built at a time; bounds the
# temporary, which for a whole batch's first pool can reach tens of MB
_POOL_CHUNK = 1 << 20


def _max_pool(batch: GridBatch, out_keys, out_sample, out_shape, src, keep_plan: bool):
    """Shared tail of pooling ops: component-wise max, plus the argmax
    routing for the backward pass when ``keep_plan``."""
    a_out, F = src.shape
    rows = np.empty((a_out, batch.n), batch.rows.dtype)
    argmax_src = np.empty((a_out, batch.n), np.int64) if keep_plan else None
    step = max(1, _POOL_CHUNK // max(F * batch.n, 1))
    for lo in range(0, a_out, step):
        part = slice(lo, lo + step)
        gathered = _gather_rows(batch, src[part], out_sample[part])  # (rows, F, n)
        rows[part] = gathered.max(axis=1)
        if keep_plan:
            # first-max argmax implements the lowest-offset tie rule
            argmax_src[part] = np.take_along_axis(src[part], gathered.argmax(axis=1), axis=1)
    out = GridBatch(out_shape, out_keys, rows, batch.grounds.copy(),
                    _row_starts(out_sample, batch.B))
    return out, PoolPlan(out_shape, out_keys, argmax_src, batch.a) if keep_plan else None


def pool_forward_batch(batch: GridBatch, layer: PoolLayer, *, keep_plan: bool = True):
    """Max pooling; active rule and gather index identical to convolution.

    Returns the output batch and, when ``keep_plan``, the batch's
    :class:`PoolPlan` (else None).
    """
    if batch.shape.lattice is not layer.lattice:
        raise ValueError(
            f"pool layer is {layer.lattice.value}, grid is {batch.shape.lattice.value}"
        )
    out_keys, out_sample, src, out_shape = conv_rulebook(batch, layer.geometry)
    return _max_pool(batch, out_keys, out_sample, out_shape, src, keep_plan)


def pool_forward(grid: SparseGrid, layer: PoolLayer, *, keep_plan: bool = False):
    """Max pooling; active rule and gather identical to convolution."""
    out, plan = pool_forward_batch(GridBatch.of([grid]), layer, keep_plan=keep_plan)
    return (out.grid(0), plan) if keep_plan else out.grid(0)


# ---------------------------------------------------------------------------
# fractional max pooling


def fmp_regions(m_in: int, ratio: float, seed: int) -> tuple[np.ndarray, ...]:
    """Region starts along each of the three (cubic) dimensions for one FMP
    application.

    Each dimension gets ``m_out = fmp_out_size(m_in, ratio)`` overlapping
    size-2 regions ``[r, r+1]``: the first starts at 0, the last at
    ``m_in - 2``, and consecutive starts differ by a pseudorandom step of 1
    or 2.  The step sequence is a deterministic function of ``seed``.
    """
    if not 1.0 < ratio < 2.0:
        raise ValueError(f"FMP ratio must lie strictly between 1 and 2, got {ratio}")
    n_steps = fmp_out_size(m_in, ratio) - 1
    n_twos = (m_in - 2) - n_steps
    rng = np.random.default_rng(seed)
    dims = []
    for _ in range(3):
        steps = np.ones(n_steps, dtype=np.int64)
        if n_steps:
            steps[rng.permutation(n_steps)[:n_twos]] = 2
        starts = np.concatenate([[0], np.cumsum(steps)])
        dims.append(starts)
    return tuple(dims)


def fmp_out_size(m_in: int, ratio: float) -> int:
    """Output size of one FMP step: ``floor(m_in / ratio)``, provided that
    many overlapping size-2 regions can cover ``m_in``."""
    m_out = int(np.floor(m_in / ratio))
    if m_out < 1:
        raise PlanError(f"FMP output size would be {m_out} for input {m_in}")
    if (m_in - 2) - (m_out - 1) > max(m_out - 1, 0) or m_in < 2:
        raise PlanError(
            f"cannot cover size {m_in} with {m_out} overlapping size-2 regions"
        )
    return m_out


def fmp_forward_batch(batch: GridBatch, layer: FMPLayer, regions, *, keep_plan: bool = True):
    """Max pooling over randomized overlapping size-2 regions, for a batch;
    returns what :func:`pool_forward_batch` returns."""
    if batch.shape.lattice is not LatticeKind.CUBIC:
        raise ValueError("FMP requires a cubic grid")
    # region u of dimension j covers regions[j][u] and the site after it:
    # a size-2 cubic window at an irregular start
    out_shape = GridShape(LatticeKind.CUBIC, regions[0].shape[0])
    out_keys, out_sample, src = _window_rulebook(batch, filter_offsets(LatticeKind.CUBIC, 2),
                                                 regions, None)
    return _max_pool(batch, out_keys, out_sample, out_shape, src, keep_plan)


def fmp_forward(grid: SparseGrid, layer: FMPLayer, regions=None, *, keep_plan: bool = False):
    """Max pooling over randomized overlapping size-2 regions."""
    if regions is None:
        regions = fmp_regions(grid.shape.m, layer.ratio, layer.seed)
    out, plan = fmp_forward_batch(GridBatch.of([grid]), layer, regions, keep_plan=keep_plan)
    return (out.grid(0), plan) if keep_plan else out.grid(0)


# ---------------------------------------------------------------------------
# activation and classifier head


def relu_forward_batch(batch: GridBatch):
    """Component-wise max(., 0) on rows and grounds, plus the backward mask."""
    out = GridBatch(batch.shape, batch.keys, np.maximum(batch.rows, 0),
                    np.maximum(batch.grounds, 0), batch.start)
    return out, batch.rows > 0


def relu_forward(grid: SparseGrid):
    """Component-wise max(., 0) on rows and ground; activity set unchanged."""
    return relu_forward_batch(GridBatch.of([grid]))[0].grid(0)


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
