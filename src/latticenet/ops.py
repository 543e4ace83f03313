"""Sparse forward passes with ground-state propagation, a batch at a time.

A convolution over a mini-batch of sparse grids runs in three steps:

1. the *rulebook*: an active input site ``c`` lies under footprint offset
   ``o`` of output site ``u`` exactly when ``c = u * s + o``, so every
   (active site, offset) pair with ``u`` inside the output grid is one
   candidate.  Each candidate marks its output site in a seen table over
   the batch's box of outputs (per sample, the output coordinates between
   the smallest and largest the batch reaches along each dimension, in
   raster order, which is key order).  The marked cells, in order, are the
   active output sites (an output site is active when any input site
   under its footprint is active), grouped by sample with keys ascending
   in each, with no sort; a row table written at them numbers the output
   rows, which fills the gather index ``src`` at the same time.  When the
   box has many cells per candidate, as a sparse batch over a large field
   has, a sort of the candidates' keys takes its place (see
   :func:`box_numbering`);
2. gather, for every active output site, the footprint's input vectors
   into one row of a matrix ``Q``, substituting the ground vector at
   inactive positions.  A batch stores its rows and then the one ground
   its samples share in one table (:class:`~latticenet.grid.GridBatch`),
   and ``src`` is the gather's own index into it: an active position
   holds its input row, an inactive one -1, the table's last row, so the
   gather is one ``take`` of the stored table;
3. one dense multiply, ``M_out = Q @ W + B``, into the first rows of the
   output's table, whose last row takes the mapped ground.

Each step runs once per layer and batch, whatever the batch size, and
gives every sample exactly the rows, row order and gather index that a
batch of that sample alone gives.  The one-grid functions run the batch
code on a batch of one.  The output ground state is what an all-ground
field would produce, so every layer also maps the ground vector forward
and inactive sites never need to be touched.

Max pooling, plain (MP) or fractional (FMP), is one op: the layer gives
its rulebook and output field, and :func:`pool_forward_batch` takes a
running max over the footprint positions, in tiles of output rows that
fit in cache (see :data:`TILE`).  An ``MPp/s`` layer is the
:class:`FilterGeometry` of its window, as a convolution's footprint is.
FMP pools size-2 cubic windows whose starts are randomized overlapping
regions that shrink each dimension by :data:`FMP_RATIO`.  One rulebook serves
every layer: along each dimension output coordinate ``u`` has a window
start, ``u * s`` for a convolution or pool and the region start for FMP,
and input site ``c`` lies under offset ``o`` exactly when ``c - o`` is a
start.  For ``u * s`` the test is arithmetic; for FMP a start table,
indexed by coordinate over the batch's extent, holds ``u`` at each start
and -1 elsewhere, so one lookup per dimension both tests ``c - o`` and
finds ``u``.

Every layer gives its rule as ``layer.rulebook(batch, rng)``: a
:class:`Plan` over the batch's rows that holds the output keys, the
gather index ``src`` and the samples' row offsets in the layer's input
and output; only an FMP layer reads ``rng``, to draw a training batch's
seed.  A rulebook reads the batch's shape, keys and sample offsets, never
its table, so a :class:`~latticenet.network.Network` gives every layer's
rule before any numbers run, from its rule cache (see
:mod:`latticenet.rulecache`) or from each layer's rulebook over the
previous rule's keys.  The batch forward ops take an optional ``rule``,
such as the network gives them, and run ``layer.rulebook`` without one.
Plans are frozen, so an op completes a copy of its rule with what its
backward pass needs (``Q``, ``argmax``) and never writes into the rule it
is given.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from math import prod
from typing import ClassVar

import numpy as np

from .errors import PlanError
from .geometry import (
    COORD_BITS,
    MAX_COORD,
    GridShape,
    LatticeKind,
    filter_offsets,
    filter_volume,
    out_size,
)
from .grid import GridBatch, SparseGrid

# Each FMP step divides the field by 2^(2/3), so two steps halve it; the
# ratio is fixed, as the FMP token takes none.
FMP_RATIO = 2.0 ** (2.0 / 3.0)

# Elements (rows x features) per tile of the pool's running max and of
# autograd.sgd_step.  A pass touches a few tile-sized arrays (float32 rows
# and values, the bool and position arrays of the argmax), about 0.7 MB at
# 64K elements: inside the 2 MB L2 of one core, where a whole-array pass
# over a casia-sized pool (110K-393K elements) runs from L3.  Measured on
# a 2-vCPU Sapphire Rapids host, min of 9 in process, over the four pools
# of one 16-sample casia-cubic training batch (untiled 62-69 ms, or
# 45-49 ms without the argmax): 28-29 ms at 32K, 27-28 ms at 64K and 31 ms
# at 128K elements (without the argmax 14-15, 13-14 and 15 ms); sgd_step
# on 3.9M parameters, 9-10 ms untiled, 5.5-6.5 ms at each of the three.
TILE = 1 << 16

# The rulebook numbers a batch's output rows through tables over the
# batch's box of outputs (see _window_rulebook) while the box has fewer
# than BOX_CELLS_PER_CANDIDATE cells per candidate (plus 1024 candidates'
# worth) and fewer than BOX_CELLS_MAX cells, and through a sort of the
# candidates' keys otherwise.  Measured on a 2-vCPU Sapphire Rapids host,
# min of 18-30 in process, on training-batch layers of the three workloads
# with one site added far out to widen the box: the table takes 0.5-0.9 of
# the sort's time up to ~30 cells per candidate, and breaks even at ~45
# (knot L0, 4K candidates), 70-100 (10-35K candidates) and ~140 (casia
# L0-L1, 54-74K).  From 4M cells on, its 32 MB row table is above the
# largest block glibc's malloc reuses, so every call maps fresh pages, and
# the table takes 1.6-3.5x the sort's time at any ratio (casia L0-L2 at
# 57-103).  Training layers stay under 24 (casia L0 at 1.2M cells), but
# casia's augmented-eval L0 (26K candidates) reads 28-35, so 4 of 8 calls sort.
BOX_CELLS_PER_CANDIDATE = 32
BOX_CELLS_MAX = 1 << 22


def box_numbering(cells: int, candidates: int) -> bool:
    """Whether ``candidates`` keys in a box of ``cells`` cells are numbered
    through a table over the box, else a sort: the rulebook's rule, which
    :func:`latticenet.ingest.voxelize_mesh` follows too."""
    return cells < min(BOX_CELLS_PER_CANDIDATE * (candidates + 1024), BOX_CELLS_MAX)


@dataclass(frozen=True)
class FilterGeometry:
    """Filter footprint on a lattice: linear size ``f``, stride ``s``; a
    convolution's footprint, and itself the layer of a max pool."""

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

    def out_shape(self, shape: GridShape) -> GridShape:
        """The output grid of a convolution or pool over ``shape``."""
        return GridShape(shape.lattice, out_size(shape.m, self.f, self.s))

    def rulebook(self, batch: GridBatch, rng=None):
        return conv_rulebook(batch, self)


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

    def rulebook(self, batch: GridBatch, rng=None):
        return self.geometry.rulebook(batch)

    @classmethod
    def init(cls, geometry: FilterGeometry, n_in: int, n_out: int,
             rng: np.random.Generator | None, dtype=np.float32) -> "ConvLayer":
        """He-normal ``W`` drawn from ``rng`` and zero ``B``; with ``rng``
        None, ``W`` is zero too, allocated without a draw (for a checkpoint
        to fill)."""
        fan_in = geometry.volume * n_in
        W = (np.zeros((fan_in, n_out), dtype) if rng is None
             else rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, n_out)).astype(dtype))
        B = np.zeros(n_out, dtype=dtype)
        return cls(geometry, n_in, n_out, W, B)


@dataclass
class FMPLayer:
    """Fractional max pooling, ``FMPLayer(seed)``; cubic lattice only, so
    ``lattice`` is a class constant, against which
    :func:`pool_forward_batch` checks a batch."""

    lattice: ClassVar[LatticeKind] = LatticeKind.CUBIC
    seed: int = 0

    def out_shape(self, shape: GridShape) -> GridShape:
        return GridShape(self.lattice, fmp_out_size(shape.m))

    def rulebook(self, batch: GridBatch, rng: np.random.Generator | None = None):
        """The rule of the regions of a seed drawn from ``rng``, else of ``self.seed``."""
        seed = self.seed if rng is None else int(rng.integers(0, 2**31))
        return fmp_rulebook(batch, fmp_regions(batch.shape.m, seed))


@dataclass(frozen=True)
class Plan:
    """A rulebook layer's rule over a batch, and what its backward pass keeps.

    The rule is the first four fields, as ``layer.rulebook`` gives them.
    Output row ``i`` is site ``out_keys[i]``; rows are grouped by sample,
    keys ascending within each.  ``src[i, k]`` is the input row under
    footprint position ``k`` of output row ``i``, or -1 where the ground
    fills that position: the last row of the input batch's table (its
    rows, then its ground), which the gather reads.  ``in_start`` and
    ``out_start`` are the row offsets of the samples in the layer's input
    and output batches.

    The forward ops complete a copy of the rule.  A convolution keeps the
    gather matrix ``Q``; a max pool kept for training keeps ``argmax``,
    where ``argmax[i, c]`` is the position whose value output component
    ``(i, c)`` took: the lowest of equal maxima, and for a NaN component
    the position of its first NaN, as ``ndarray.argmax`` picks, stored in
    the smallest unsigned dtype that holds ``F - 1``.  A convolution whose
    backward pass runs in the input frame (see :mod:`latticenet.autograd`)
    keeps its input rows ``in_rows`` and ground ``in_ground``, the two
    parts of its input's table, in place of ``Q``; ``Q`` is then the
    gather of that table through ``src``.  A rectified convolution
    also keeps ``mask``, the output components its rectifier passes.

    Item ``b`` is sample ``b``'s plan in its own row numbers, built on
    access; :meth:`cut` gives several samples' rules at once, in one pass,
    and :meth:`join` puts such plans, a chain of layers per sample, back
    together into a batch's rules.
    """

    out_keys: np.ndarray
    src: np.ndarray  # (a_out, F) input rows, -1 = ground
    in_start: np.ndarray
    out_start: np.ndarray
    Q: np.ndarray | None = None  # (a_out, F * n_in)
    argmax: np.ndarray | None = None  # (a_out, n) footprint positions
    in_rows: np.ndarray | None = None  # (a_in, n_in)
    in_ground: np.ndarray | None = None  # (n_in,)
    mask: np.ndarray | None = None  # (a_out, n_out) rectified rows > 0

    @property
    def a_in(self) -> int:
        return int(self.in_start[-1])

    @property
    def a_out(self) -> int:
        return self.out_keys.shape[0]

    @property
    def argmax_src(self) -> np.ndarray:
        """(a_out, n): the input row each component took, negative where the
        ground won; one flat ``take`` of ``src`` at each component's
        position ``argmax + F * row``."""
        F = self.src.shape[1]
        flat = np.arange(0, self.a_out * F, F)[:, None] + self.argmax
        return self.src.reshape(-1).take(flat)

    def __len__(self) -> int:
        return self.in_start.shape[0] - 1

    def __getitem__(self, b: int) -> "Plan":
        if not -len(self) <= b < len(self):
            raise IndexError(b)
        b %= len(self)
        in_start, out_start = self.in_start[b:b + 2], self.out_start[b:b + 2]
        rows, in_rows = slice(*out_start), slice(*in_start)
        src = self.src[rows]
        return Plan(self.out_keys[rows], np.where(src >= 0, src - in_start[0], -1),
                    in_start - in_start[0], out_start - out_start[0],
                    None if self.Q is None else self.Q[rows],
                    None if self.argmax is None else self.argmax[rows],
                    None if self.in_rows is None else self.in_rows[in_rows],
                    self.in_ground,
                    None if self.mask is None else self.mask[rows])

    def cut(self, samples: list[int]) -> list["Plan"]:
        """The rules of samples ``samples`` (batch positions), each as
        ``plan[b]`` gives it but with ``src`` as int32, cut in one pass:
        their keys are copied once, and their ``src`` rows moved to each
        sample's own input rows (a ground entry stays -1) and cast to int32
        once.  Every returned Plan holds read-only views of those arrays,
        which hold the samples' rows and no other."""
        sel = np.asarray(samples, np.int64)
        first_in, first_out = self.in_start[sel], self.out_start[sel]
        counts = self.out_start[sel + 1] - first_out
        bounds = np.zeros(len(sel) + 1, np.int64)
        np.cumsum(counts, out=bounds[1:])
        rows = np.arange(bounds[-1]) + np.repeat(first_out - bounds[:-1], counts)
        keys, src = self.out_keys[rows], self.src[rows]
        # a row moves to its sample's own numbers, and a ground entry, now
        # below -1, goes back to -1 (batch rows are fewer than 2**31)
        own = np.empty(src.shape, np.int32)
        np.subtract(src, np.repeat(first_in, counts)[:, None], out=own, casting="unsafe")
        np.maximum(own, -1, out=own)
        # each sample's in_start and out_start, its first row 0 in both
        in_start, out_start = (np.zeros((len(sel), 2), self.in_start.dtype) for _ in range(2))
        in_start[:, 1], out_start[:, 1] = self.in_start[sel + 1] - first_in, counts
        for a in (keys, own, in_start, out_start):
            a.flags.writeable = False
        bounds = bounds.tolist()
        return [Plan(keys[i:j], own[i:j], s, t)
                for i, j, s, t in zip(bounds, bounds[1:], in_start, out_start)]

    @classmethod
    def join(cls, chains) -> list["Plan"]:
        """The inverse of item access over a chain of layers: the rules,
        layer by layer, of a batch whose samples' plans, each in its own
        row numbers, are ``chains`` (per sample in batch order, one plan
        per layer).  The keys of every layer and sample are one
        concatenation, and their ``src`` one int64 array, in which sample
        ``b``'s input rows move by its first input row in the batch, a
        ground entry staying -1; each layer's rule is a view of the two.
        Only the rule is joined, with neither ``Q`` nor ``argmax``, and
        ``src`` comes back as int64 whatever the plans hold."""
        layers = list(zip(*chains))
        keys = [p.out_keys for layer in layers for p in layer]
        # rows per (layer, sample): the samples' input rows, then each layer's output rows
        counts = np.zeros((len(layers) + 1, len(chains)), np.int64)
        counts[0] = np.concatenate([p.in_start for p in layers[0]])[1::2]
        counts[1:].flat = list(map(len, keys))
        starts = np.zeros((len(layers) + 1, len(chains) + 1), np.int64)
        np.cumsum(counts, axis=1, out=starts[:, 1:])
        F = np.array([layer[0].src.shape[1] for layer in layers])
        rows = [0, *np.cumsum(starts[1:, -1]).tolist()]
        cells = [0, *np.cumsum(starts[1:, -1] * F).tolist()]
        # a concatenation per layer, each into its part of one array, is
        # faster than one of every plan's flattened src
        src = np.empty(cells[-1], np.int64)
        for l, layer in enumerate(layers):
            np.concatenate([p.src for p in layer], out=src[cells[l]:cells[l + 1]].reshape(-1, F[l]))
        ground = src >> 63  # -1 at a ground entry, every bit set, else 0
        src += np.repeat(starts[:-1, :-1].ravel(), (counts[1:] * F[:, None]).ravel())
        src |= ground
        keys = np.concatenate(keys)
        return [cls(keys[rows[l]:rows[l + 1]], src[cells[l]:cells[l + 1]].reshape(-1, f),
                    starts[l], starts[l + 1])
                for l, f in enumerate(F.tolist())]


# ---------------------------------------------------------------------------
# the rulebook: active output sites and the gather index, one pass per batch


def _window_rulebook(batch: GridBatch, offsets, starts, bound):
    """The rule of a windowed layer over a batch: its :class:`Plan` of
    active output rows, with neither ``Q`` nor ``argmax``.

    Along dimension ``j`` the window of output coordinate ``u`` starts at
    ``starts[j][u]`` (strictly ascending), so input site ``c`` lies under
    footprint offset ``o`` of output ``u`` exactly when every ``c_j - o_j``
    is a start, ``u_j`` being its index.  On simplex lattices ``bound`` is
    the largest coordinate sum of a valid output's window start, else None.
    Every (active input row, offset) pair that meets these tests is one
    candidate.

    A convolution's starts are one ``range``, ``u * s``, along every
    dimension, so the test is arithmetic: ``c_j - o_j`` is a start when it
    is ``o_j`` modulo ``s`` and ``u_j`` lies in the output grid.  FMP's
    irregular starts are ascending arrays, one per dimension, and each is
    tested with a table over the batch's span along ``j``: from the
    smallest coordinate of its sites minus the largest offset value
    (``reach``) to the largest, which every ``c_j - o_j`` falls in.  The
    table holds ``u`` at each start and -1 elsewhere, so its size follows
    the batch, not the field.  The ``n_j`` starts in the span, from index
    ``lo_j``, are found by bisection.

    Output rows are ordered by sample and then by key.  Each candidate's
    tag, ``sample * width + column``, marks its output row in a seen table
    of ``B * width`` flags; the marked tags, in ascending order, number the
    rows through a row table that is written only at them.  The column is
    the output site's place in the batch's box of outputs, ``raster(u -
    lo)`` over the ``n_j`` starts of each dimension, whose ``M = prod(n_j)``
    cells are the width.  Raster order is packed-key order, so no sort is
    needed, and the keys are rebuilt from the columns.  When the ``B * M``
    cells (a Python int, as a wide batch's box overflows int64) fail
    :func:`box_numbering`, the column is instead the rank of the
    candidate's key among the U distinct candidate keys, from one sort,
    and the width is U.  Each output row's
    ``src`` starts as ground entries, -1, and the candidates write their
    input rows into it through one flat index.  The rows' samples,
    ascending, give the output's sample offsets by one search.
    """
    d = batch.shape.ndim
    # c[j] holds coordinate j of every row, unpacked straight from the keys
    c = (batch.keys >> COORD_BITS * np.arange(d - 1, -1, -1)[:, None]) & (MAX_COORD - 1)
    reach = max(max(off) for off in offsets)
    # the batch's span along each dimension, and the n_j starts in it from lo_j
    low = c.min(axis=1) - reach if c.size else np.zeros(d, np.int64)
    high = c.max(axis=1) if c.size else np.zeros(d, np.int64)
    lo = [bisect_left(starts[j], int(low[j])) for j in range(d)]
    n = [bisect_right(starts[j], int(high[j])) - lo[j] for j in range(d)]
    # u[o, j, i]: u_j of the window starting at c_j - o for row i, a
    # window start where fits[o, j, i]
    span = np.arange(reach + 1)[:, None, None]
    if isinstance(starts[0], range):
        step = starts[0].step
        q, rem = np.divmod(c - starts[0].start, step)
        u = q - span // step
        fits = u.view(np.uint64) < len(starts[0])  # 0 <= u < len(starts[0])
        if step > 1:
            fits &= rem == span % step
    else:
        u = np.empty((reach + 1, d, c.shape[1]), np.int64)
        for j in range(d):
            table = np.full(int(high[j] - low[j]) + 1, -1, np.int64)  # t at index t - low
            table[starts[j][lo[j]:lo[j] + n[j]] - low[j]] = np.arange(lo[j], lo[j] + n[j])
            u[:, j] = table.take(c[j] - low[j] - span[:, 0])
        fits = u >= 0
    if bound is not None:
        site_sum = c.sum(axis=0)
    rows = []
    for off in offsets:
        ok = fits[off[0], 0]
        for j in range(1, d):
            ok = ok & fits[off[j], j]
        if bound is not None:
            ok &= site_sum <= bound + sum(off)
        rows.append(np.flatnonzero(ok))
    k = np.repeat(np.arange(len(offsets)), [r.shape[0] for r in rows])
    box = box_numbering(batch.B * prod(n), k.shape[0])
    if box:  # raster(u - lo), dimension 0 slowest
        stride = [prod(n[j + 1:]) for j in range(d)]
        part = [u[:, j] * stride[j] for j in range(d)]
        part[0] -= sum(lo[j] * stride[j] for j in range(d))
    else:
        part = [u[:, j] << (COORD_BITS * (d - 1 - j)) for j in range(d)]
    column = np.concatenate([sum(part[j][off[j]][r] for j in range(d))
                             for off, r in zip(offsets, rows)])
    if not box:
        union, column = np.unique(column, return_inverse=True)
    width = max(prod(n) if box else union.shape[0], 1)  # no candidates, no tags to mark
    rows = np.concatenate(rows)
    tag = batch.sample_ids()[rows] * width + column
    seen = np.zeros(batch.B * width, bool)
    seen[tag] = True
    tags = np.flatnonzero(seen)
    row = np.empty(seen.shape[0], np.intp)
    row[tags] = np.arange(tags.shape[0])
    out_sample, column = np.divmod(tags, width)
    src = np.full((tags.shape[0], len(offsets)), -1, np.int64)  # ground, then the active ones
    src.reshape(-1)[row[tag] * len(offsets) + k] = rows
    out_start = np.searchsorted(out_sample, np.arange(batch.B + 1))
    if not box:
        return Plan(union[column], src, batch.start, out_start)
    u = np.unravel_index(column, n)
    out_keys = sum((u[j] + lo[j]) << (COORD_BITS * (d - 1 - j)) for j in range(d))
    return Plan(out_keys, src, batch.start, out_start)


def conv_rulebook(batch: GridBatch, geometry: FilterGeometry) -> Plan:
    """Steps 1-2 for a whole batch: the rule, a :class:`Plan` of the
    active output sites and the gather index.  The window of output site
    ``u`` starts at ``u * s``."""
    out_shape = geometry.out_shape(batch.shape)
    starts = range(0, out_shape.m * geometry.s, geometry.s)
    bound = starts[-1] if out_shape.lattice.is_simplex else None
    return _window_rulebook(batch, geometry.offsets, (starts,) * out_shape.ndim, bound)


def conv_active_sites(grid: SparseGrid, geometry: FilterGeometry):
    """Step 1 for one grid: active output sites (sorted packed keys) and the output shape."""
    out_keys = conv_rulebook(GridBatch.of([grid]), geometry).out_keys
    return out_keys, geometry.out_shape(grid.shape)


def build_gather(grid: SparseGrid, out_keys: np.ndarray, geometry: FilterGeometry,
                 out_shape: GridShape) -> Plan:
    """Step 2 for one grid and any sites ``out_keys`` of its output grid
    ``out_shape``: the rulebook's gather index rows for ``out_keys`` (all -1,
    the ground, for a site the rulebook leaves inactive) and the gather matrix Q
    (a_out, F * n_in), as a one-sample :class:`Plan`."""
    batch = GridBatch.of([grid])
    rule = conv_rulebook(batch, geometry)
    pos = np.searchsorted(rule.out_keys, out_keys)
    pos[np.append(rule.out_keys, -1)[pos] != out_keys] = rule.a_out
    src = np.vstack([rule.src, np.full((1, geometry.volume), -1, np.int64)])[pos]
    Q = batch.table.take(src.reshape(-1), axis=0).reshape(len(out_keys), geometry.volume * grid.n)
    return Plan(out_keys, src, batch.start, np.array([0, len(out_keys)]), Q)


# ---------------------------------------------------------------------------
# batch forward ops; each single-grid op below is the batch op on one grid


def conv_forward_batch(batch: GridBatch, layer: ConvLayer, rule=None):
    """Steps 1-3 for a batch: one rulebook pass and one dense multiply.

    ``rule`` is the batch's rule as ``layer.rulebook`` gives it; when it is
    None, the rulebook runs here.  Returns the output batch, on the rule's
    keys and sample offsets, and a copy of the rule that keeps ``Q``.
    """
    if batch.n != layer.n_in:
        raise ValueError(f"layer expects {layer.n_in} input features, grid has {batch.n}")
    if batch.shape.lattice is not layer.geometry.lattice:
        raise ValueError(
            f"layer is {layer.geometry.lattice.value}, grid is {batch.shape.lattice.value}"
        )
    geom = layer.geometry
    rule = layer.rulebook(batch) if rule is None else rule
    a_out = rule.a_out
    Q = batch.table.take(rule.src.reshape(-1), axis=0).reshape(a_out, geom.volume * batch.n)
    table = np.empty((a_out + 1, layer.n_out), np.result_type(Q, layer.W))
    rows = np.matmul(Q, layer.W, out=table[:a_out])
    rows += layer.B
    ground = np.tile(batch.ground, (1, geom.volume)).astype(layer.W.dtype)
    table[a_out:] = ground @ layer.W + layer.B
    out = GridBatch(geom.out_shape(batch.shape), rule.out_keys, table, rule.out_start)
    return out, replace(rule, Q=Q)


def conv_forward(grid: SparseGrid, layer: ConvLayer, *, keep_plan: bool = False):
    """Steps 1-3 for one grid: M_out = Q @ W + B, plus the ground-state map."""
    out, plan = conv_forward_batch(GridBatch.of([grid]), layer)
    return (out.grid(0), plan) if keep_plan else out.grid(0)


def _max_pool(batch: GridBatch, rule: Plan, out_shape: GridShape, keep_plan: bool):
    """Shared tail of pooling ops: one running max over the footprint
    positions of ``rule``, plus a copy of the rule with its argmax when
    ``keep_plan`` (else None).

    The output rows run in tiles of about ``TILE`` elements, and each tile
    takes every footprint position before the next tile starts, so the
    running max, its argmax and the position being folded in stay in cache.
    Each step reads one position's input vectors for the tile's rows and
    folds them in with ``np.maximum``, so the (a_out, F, n) gather is never
    built.  Positions run in ascending order and only a strictly greater
    value moves the argmax, which keeps the lowest of equal maxima.  The
    argmax is itself a running max: position ``k`` exceeds every position
    stored before it, so ``argmax = max(argmax, better * k)`` moves exactly
    the components where ``better`` holds, with no masked store.  A NaN
    never compares greater, so NaN components get their first NaN position
    after a tile's loop, from a gather of the rows that hold one.  Every
    step is elementwise, so tiling changes no bit of the result.  Each step
    takes a column of ``src`` straight from the batch's table, with
    ``mode="wrap"``: the default mode copies ``out`` through a buffer, and
    ``"clip"`` would send a ground entry -1 to row 0, where ``"wrap"``
    sends it to the ground row, the table's last, as the default does.
    The running max fills the first rows of the output's table, and its
    last row takes the input's ground, which a pool keeps.
    """
    table, src = batch.table, rule.src
    a_out, F = src.shape
    out_table = np.empty((a_out + 1, batch.n), table.dtype)
    rows = out_table[:a_out]
    out_table[a_out:] = batch.ground
    step = max(1, TILE // max(batch.n, 1))
    vals = np.empty((min(step, a_out), batch.n), table.dtype)
    if keep_plan:
        position = np.min_scalar_type(F - 1).type
        argmax = np.zeros(rows.shape, position)
        better = np.empty(vals.shape, bool)
        moved = np.empty(vals.shape, position)
    for lo in range(0, a_out, step):
        tile = slice(lo, min(lo + step, a_out))
        idx = src[tile]
        r, v = rows[tile], vals[:idx.shape[0]]
        np.take(table, idx[:, 0], axis=0, out=r, mode="wrap")
        if keep_plan:
            am, b, m = argmax[tile], better[:idx.shape[0]], moved[:idx.shape[0]]
        for k in range(1, F):
            np.take(table, idx[:, k], axis=0, out=v, mode="wrap")
            if keep_plan:
                np.greater(v, r, out=b)
                np.multiply(b, position(k), out=m)
                np.maximum(am, m, out=am)
            np.maximum(r, v, out=r)
        if keep_plan:
            i, c = np.nonzero(np.isnan(r))
            if i.size:
                am[i, c] = np.isnan(table[idx[i].T, c]).argmax(axis=0)
    out = GridBatch(out_shape, rule.out_keys, out_table, rule.out_start)
    return out, replace(rule, argmax=argmax) if keep_plan else None


def pool_forward_batch(batch: GridBatch, layer: FilterGeometry | FMPLayer, *,
                       keep_plan: bool = True, rule=None):
    """Max pooling, plain (MP, whose layer is its window's
    :class:`FilterGeometry`) or fractional (FMP), for a batch.

    ``rule`` is the batch's rule as ``layer.rulebook`` gives it; when it is
    None, the rulebook runs here.  Returns the output batch and, when
    ``keep_plan``, a copy of the rule with its argmax (else None).
    """
    if batch.shape.lattice is not layer.lattice:
        raise ValueError(
            f"pool layer is {layer.lattice.value}, grid is {batch.shape.lattice.value}"
        )
    rule = layer.rulebook(batch) if rule is None else rule
    return _max_pool(batch, rule, layer.out_shape(batch.shape), keep_plan)


def pool_forward(grid: SparseGrid, layer: FilterGeometry, *, keep_plan: bool = False):
    """Max pooling; active rule and gather identical to convolution."""
    out, plan = pool_forward_batch(GridBatch.of([grid]), layer, keep_plan=keep_plan)
    return (out.grid(0), plan) if keep_plan else out.grid(0)


# ---------------------------------------------------------------------------
# fractional max pooling


def fmp_regions(m_in: int, seed: int) -> tuple[np.ndarray, ...]:
    """Region starts along each of the three (cubic) dimensions for one FMP
    application.

    Each dimension gets ``m_out = fmp_out_size(m_in)`` overlapping
    size-2 regions ``[r, r+1]``: the first starts at 0, the last at
    ``m_in - 2``, and consecutive starts differ by a pseudorandom step of 1
    or 2.  The step sequence is a deterministic function of ``seed``.
    """
    n_steps = fmp_out_size(m_in) - 1
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


def fmp_out_size(m_in: int) -> int:
    """Output size of one FMP step: ``floor(m_in / FMP_RATIO)``, provided
    that many overlapping size-2 regions can cover ``m_in``."""
    m_out = int(np.floor(m_in / FMP_RATIO))
    if m_out < 1:
        raise PlanError(f"FMP output size would be {m_out} for input {m_in}")
    if (m_in - 2) - (m_out - 1) > max(m_out - 1, 0) or m_in < 2:
        raise PlanError(
            f"cannot cover size {m_in} with {m_out} overlapping size-2 regions"
        )
    return m_out


def fmp_rulebook(batch: GridBatch, regions) -> Plan:
    """The rule of an FMP layer over a batch, as :func:`conv_rulebook` gives
    a convolution's: region ``u`` of dimension ``j`` covers ``regions[j][u]``
    and the site after it, a size-2 cubic window at an irregular start."""
    return _window_rulebook(batch, filter_offsets(LatticeKind.CUBIC, 2), regions, None)


def fmp_forward(grid: SparseGrid, layer: FMPLayer, regions=None, *, keep_plan: bool = False):
    """Max pooling over randomized overlapping size-2 regions: ``regions``
    (as :func:`fmp_regions` draws them), or those of ``layer.seed``."""
    batch = GridBatch.of([grid])
    rule = None if regions is None else fmp_rulebook(batch, regions)
    out, plan = pool_forward_batch(batch, layer, keep_plan=keep_plan, rule=rule)
    return (out.grid(0), plan) if keep_plan else out.grid(0)


# ---------------------------------------------------------------------------
# activation


def relu_forward_batch(batch: GridBatch) -> GridBatch:
    """Component-wise max(., 0) on rows and ground, one pass over the
    batch's table, in place; returns ``batch``.  The network's input is a
    convolution's fresh output, and ``GridBatch.of`` copies the grid's rows
    and ground for ``relu_forward``."""
    np.maximum(batch.table, 0, out=batch.table)
    return batch


def relu_forward(grid: SparseGrid):
    """Component-wise max(., 0) on rows and ground; activity set unchanged."""
    return relu_forward_batch(GridBatch.of([grid])).grid(0)
