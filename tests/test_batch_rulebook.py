"""The batched rulebook against the one-grid-at-a-time rulebook (oracles.py).

Every sample of a batch must get exactly what it gets alone: the same
active output keys, the same gather index in its own row numbers, the same
rows of ``Q``, and the same pooled values and argmax routing.  Batches mix
empty and non-empty grids, and one test places sparse sites at the far
corner of the largest field ``GridShape`` accepts, where packed keys come
within a few bits of the int64 range.  The backward scatters must equal
the ``np.add.at`` scatters they replaced bit for bit, which holds only if
they add each input row's terms in the same order; the input frame's
convolution gradients must equal the Q form's to rounding.  The table rulebook
must give the rule of the searchsorted rulebook it replaced bit for bit,
dtypes included, at its own caps and with either row grouping forced: the
tables over the batch's box of outputs or the sort.  The pool, run in row
tiles, must give the rows, argmax and input gradient of the whole-array
pool and masked scatter it replaced bit for bit, at a tile of one row, at
an odd tile that splits samples, and at the default tile.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from latticenet import ops
from latticenet.autograd import conv_backward, pool_backward
from latticenet.geometry import MAX_COORD, GridShape, LatticeKind, pack_sites, sites_array
from latticenet.grid import GridBatch, SparseGrid
from latticenet.netspec import parse, plan
from latticenet.network import Network
from latticenet.ops import (
    FMP_RATIO,
    ConvLayer,
    FilterGeometry,
    FMPLayer,
    PoolLayer,
    build_gather,
    conv_active_sites,
    conv_forward_batch,
    conv_rulebook,
    fmp_forward_batch,
    fmp_regions,
    fmp_rulebook,
    pool_forward_batch,
)

from conftest import ALL_LATTICES, random_sparse, relative_error
from oracles import (
    addat_conv_backward,
    addat_pool_backward,
    loop_conv_active_sites,
    loop_fmp_active_keys,
    loop_fmp_gather,
    loop_gather,
    loop_max,
    masked_pool_backward,
    plan_Q,
    putmask_max_pool,
    searchsorted_window_rulebook,
    untiled_max_pool,
)

# sparsity per sample: empty grids between sparse, dense and full ones
MIXED = (0.0, 0.3, 0.0, 1.0, 0.1, 0.6)


def batch_of(lattice, m, n, sparsities, rng):
    return [random_sparse(lattice, m, n, p, rng, ground=rng.normal(size=n))
            for p in sparsities]


def tied(grids):
    """Equal rows and a zero ground, as ingestion gives: every active
    position of a window ties, so the argmax rests on position order."""
    return [SparseGrid(g.shape, g.keys, np.ones_like(g.rows), np.zeros_like(g.ground))
            for g in grids]


def with_nans(grids, rng):
    """NaNs in ~30% of row components and in sample 1's ground."""
    out = []
    for i, g in enumerate(grids):
        rows = np.where(rng.random(g.rows.shape) < 0.3, np.nan, g.rows)
        ground = np.array([np.nan, 0.0, 1.0], g.rows.dtype) if i == 1 else g.ground
        out.append(SparseGrid(g.shape, g.keys, rows, ground))
    return out


def check_conv(grids, f, s, rng):
    lattice = grids[0].shape.lattice
    geom = FilterGeometry(lattice, f, s)
    batch = GridBatch.of(grids)
    out, plans = conv_forward_batch(batch, ConvLayer.init(geom, batch.n, 3, rng, np.float64))
    assert len(plans) == len(grids)
    for b, grid in enumerate(grids):
        keys = loop_conv_active_sites(grid, f, s)
        src, Q = loop_gather(grid, keys, f, s)
        p = plans[b]
        assert np.array_equal(p.out_keys, keys), b
        assert np.array_equal(p.src, src), b
        assert np.array_equal(p.Q, Q), b
        assert p.a_in == grid.a and p.a_out == keys.shape[0]
        assert np.array_equal(out.grid(b).keys, keys)
        # the one-grid entry points give the same
        one, out_shape = conv_active_sites(grid, geom)
        assert np.array_equal(one, keys)
        alone = build_gather(grid, keys, geom, out_shape)
        assert np.array_equal(alone.src, src) and np.array_equal(alone.Q, Q)


def check_pool(grids, p, s):
    lattice = grids[0].shape.lattice
    batch = GridBatch.of(grids)
    out, plans = pool_forward_batch(batch, PoolLayer(lattice, p, s))
    for b, grid in enumerate(grids):
        keys = loop_conv_active_sites(grid, p, s)
        src, _ = loop_gather(grid, keys, p, s)
        rows, argmax_src = loop_max(grid, src)
        pooled = out.grid(b)
        assert np.array_equal(pooled.keys, keys), b
        assert np.array_equal(pooled.rows, rows), b
        assert np.array_equal(pooled.ground, grid.ground)
        assert np.array_equal(plans[b].out_keys, keys)
        assert np.array_equal(plans[b].argmax_src, argmax_src), b
        assert plans[b].a_in == grid.a


def field(f, s, at_least=6):
    """Smallest input size >= at_least that a size-f stride-s layer divides."""
    k = max(0, -(-(at_least - f) // s))
    return f + s * k


@pytest.mark.parametrize("lattice", ALL_LATTICES)
@pytest.mark.parametrize("f", [1, 2, 3])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_conv_rulebook_matches_per_grid(lattice, f, s, rng):
    m = field(f, s)
    check_conv(batch_of(lattice, m, 2, MIXED, rng), f, s, rng)


@pytest.mark.parametrize("lattice", ALL_LATTICES)
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_pool_matches_per_grid(lattice, p, s, rng):
    m = field(p, s)
    check_pool(batch_of(lattice, m, 3, MIXED, rng), p, s)


@pytest.mark.parametrize("lattice", ALL_LATTICES)
def test_single_grid_batch(lattice, rng):
    for sparsity in (0.0, 0.4, 1.0):
        grids = batch_of(lattice, 7, 2, (sparsity,), rng)
        check_conv(grids, 2, 1, rng)
        check_pool(grids, 3, 2)


def test_all_empty_batch(rng):
    grids = batch_of(LatticeKind.CUBIC, 5, 2, (0.0, 0.0, 0.0), rng)
    assert GridBatch.of(grids).a == 0
    check_conv(grids, 2, 1, rng)
    check_pool(grids, 3, 2)


def fmp_cases():
    """(ties, field, ratio, region seed): field 2 has one region per
    dimension, field 3 two regions at ratio 1.5 (the default ratio cannot
    cover it), and every field has sites with ``c - o = -1`` and sites past
    the last region start.  The first field-12 cases keep their old ids."""
    for ties in (False, True):
        name = "ties" if ties else "random"
        yield pytest.param(ties, 12, FMP_RATIO, 7, id=name)
        for m, ratio in ((2, FMP_RATIO), (3, 1.5), (5, FMP_RATIO), (12, FMP_RATIO),
                         (31, FMP_RATIO)):
            for seed in (0, 3, 7):
                if (m, seed) != (12, 7):
                    yield pytest.param(ties, m, ratio, seed, id=f"{name}-m{m}-seed{seed}")


@pytest.mark.parametrize("ties, m, ratio, seed", fmp_cases())
def test_fmp_matches_per_grid(ties, m, ratio, seed, rng):
    grids = batch_of(LatticeKind.CUBIC, m, 2, MIXED, rng)
    if ties:
        grids = tied(grids)
    regions = fmp_regions(m, ratio, seed)
    batch = GridBatch.of(grids)
    out, plans = fmp_forward_batch(batch, FMPLayer(LatticeKind.CUBIC), regions)
    for b, grid in enumerate(grids):
        keys = loop_fmp_active_keys(grid, regions)
        rows, argmax_src = loop_max(grid, loop_fmp_gather(grid, keys, regions))
        assert np.array_equal(out.grid(b).keys, keys), b
        assert np.array_equal(out.grid(b).rows, rows), b
        assert np.array_equal(plans[b].argmax_src, argmax_src), b


def far_corner_grids(lattice, count, rng):
    """Sparse grids in the largest packable field, sites clustered at the
    origin and at the far corner, several keys shared between samples."""
    m = MAX_COORD - 1  # odd, so stride 2 with footprint 3 divides it
    shape = GridShape(lattice, m)
    d = shape.ndim
    corners = [np.zeros(d, np.int64)]
    for j in range(d):
        far = np.zeros(d, np.int64)
        far[j] = m - 1
        corners.append(far)
    if not lattice.is_simplex:
        corners.append(np.full(d, m - 1))
    grids = []
    for _ in range(count):
        sites = set()
        for c in corners:
            for delta in rng.integers(0, 4, size=(12, d)):
                site = np.where(c > 0, c - delta, c + delta)
                if shape.contains(tuple(int(v) for v in site)):
                    sites.add(tuple(int(v) for v in site))
        sites = sorted(sites)
        grids.append(SparseGrid.from_sites(shape, sites, rng.normal(size=(len(sites), 2)),
                                           rng.normal(size=2)))
    return grids


@pytest.mark.parametrize("lattice", [LatticeKind.CUBIC, LatticeKind.TETRAHEDRAL])
def test_far_corner_of_largest_field(lattice, rng):
    grids = far_corner_grids(lattice, 4, rng)
    assert max(g.keys.max() for g in grids) > 2**62
    check_conv(grids, 2, 1, rng)
    check_conv(grids, 3, 2, rng)
    check_pool(grids, 3, 2)


def test_network_tape_matches_single_sample_tapes(rng):
    """Keys and gather indices are exact at every layer; values past the
    first multiply may differ in the last bits, as BLAS blocks a
    many-row product differently from a one-sample product."""
    spec = plan(parse("4C2-MP3/2-6C2-output", LatticeKind.TETRAHEDRAL, 1))
    net = Network(spec, 3, rng, dtype=np.float64)
    shape = net.input_shape()
    grids = batch_of(shape.lattice, shape.m, 1, MIXED, rng)
    _, tape, _ = net.forward_batch(grids, keep_tape=True)
    for b, grid in enumerate(grids):
        _, alone, _ = net.forward_batch([grid], keep_tape=True)
        for i, (entry, single) in enumerate(zip(tape, alone)):
            assert entry[0] == single[0]
            if entry[0] in ("conv", "classifier"):
                got, want = entry[2][b], single[2][0]
                assert np.array_equal(got.out_keys, want.out_keys)
                assert np.array_equal(got.src, want.src)
                if i == 0:
                    assert np.array_equal(plan_Q(got), plan_Q(want))
                assert np.allclose(plan_Q(got), plan_Q(want), rtol=1e-12, atol=1e-12)
            elif entry[0] == "pool":
                got, want = entry[1][b], single[1][0]
                assert np.array_equal(got.out_keys, want.out_keys)
                assert np.array_equal(got.argmax_src, want.argmax_src)


def test_sample_plans_indexing(rng):
    grids = batch_of(LatticeKind.SQUARE, 6, 1, (0.5, 0.0, 0.5), rng)
    batch = GridBatch.of(grids)
    layer = ConvLayer.init(FilterGeometry(LatticeKind.SQUARE, 2, 2), 1, 3, rng, np.float64)
    _, pplan = pool_forward_batch(batch, PoolLayer(LatticeKind.SQUARE, 2, 2))
    _, gplan = conv_forward_batch(batch, layer)
    for plans in (pplan, gplan):
        assert [p.a_in for p in plans] == [g.a for g in grids]
        assert np.array_equal(plans[-1].out_keys, plans[2].out_keys)
        assert np.array_equal(plans[-3].src, plans[0].src)
        with pytest.raises(IndexError):
            plans[3]
        with pytest.raises(IndexError):
            plans[-4]
    for b in range(len(grids)):
        rows = slice(gplan.out_start[b], gplan.out_start[b + 1])
        assert np.array_equal(gplan[b].Q, gplan.Q[rows]), b
    # a plan that keeps the layer's input cuts it per sample
    iplan = replace(gplan, Q=None, in_rows=batch.rows, in_grounds=batch.grounds)
    for b, grid in enumerate(grids):
        assert np.array_equal(iplan[b].in_rows, grid.rows), b
        assert np.array_equal(iplan[b].in_grounds, grid.ground[None]), b
        assert np.array_equal(plan_Q(iplan[b]), gplan[b].Q), b


def test_batch_rejects_mixed_shapes(rng):
    a = random_sparse(LatticeKind.SQUARE, 5, 1, 0.5, rng)
    b = random_sparse(LatticeKind.SQUARE, 6, 1, 0.5, rng)
    with pytest.raises(ValueError):
        GridBatch.of([a, b])
    with pytest.raises(ValueError):
        GridBatch.of([])


@pytest.mark.parametrize("lattice", ALL_LATTICES)
@pytest.mark.parametrize("f, s", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
def test_build_gather_of_every_output_site(lattice, f, s, rng):
    """Active and inactive output sites mixed, in key order: the rulebook
    rows for the active ones, all -1 rows for the rest."""
    m_in = s * 3 + f
    geom = FilterGeometry(lattice, f, s)
    for sparsity in (0.0, 0.05, 0.4, 1.0):
        grid = random_sparse(lattice, m_in, 2, sparsity, rng, ground=rng.normal(size=2))
        out_shape = GridShape(lattice, 4)
        every = pack_sites(sites_array(lattice, 4))
        plan = build_gather(grid, every, geom, out_shape)
        src, Q = loop_gather(grid, every, f, s)
        assert np.array_equal(plan.src, src)
        assert np.array_equal(plan.Q, Q)
        assert np.array_equal(plan.out_keys, every) and plan.a_in == grid.a
        # a shuffled subset with repeats gives the same rows
        pick = rng.integers(0, every.shape[0], size=7)
        part = build_gather(grid, every[pick], geom, out_shape)
        assert np.array_equal(part.src, src[pick]) and np.array_equal(part.Q, Q[pick])


# ---------------------------------------------------------------------------
# backward scatters against the np.add.at scatters they replaced

DTYPES = [np.float32, np.float64]


def as_dtype(grids, dtype):
    return [SparseGrid(g.shape, g.keys, g.rows.astype(dtype), g.ground.astype(dtype))
            for g in grids]


def check_pool_backward(out, pplan, rng):
    d_out = rng.normal(size=out.rows.shape).astype(out.rows.dtype)
    got, want = pool_backward(d_out, pplan), addat_pool_backward(d_out, pplan)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("lattice", ALL_LATTICES)
@pytest.mark.parametrize("f", [1, 2, 3])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_conv_backward_matches_add_at(lattice, f, s, dtype, rng):
    grids = as_dtype(batch_of(lattice, field(f, s), 3, MIXED, rng), dtype)
    geom = FilterGeometry(lattice, f, s)
    layer = ConvLayer.init(geom, 3, 4, rng, dtype)
    layer.B[:] = rng.normal(size=4)
    out, gplan = conv_forward_batch(GridBatch.of(grids), layer)
    d_out = rng.normal(size=out.rows.shape).astype(dtype)
    got = conv_backward(d_out, gplan, layer)
    want = addat_conv_backward(d_out, gplan, layer)
    for g, w in zip(got, want):  # dW, dB, d_in
        assert g.dtype == w.dtype and np.array_equal(g, w)


@pytest.mark.parametrize("lattice", ALL_LATTICES)
@pytest.mark.parametrize("f", [2, 3])
@pytest.mark.parametrize("s", [1, 2])
def test_input_frame_matches_q_form(lattice, f, s, rng):
    """The input frame's dW, dB and input gradient equal the Q form's to
    float64 rounding.  Grounds are nonzero, one sample is empty and one
    holds a single site at the origin, so that its one output row reads
    the ground at every position but the first."""
    m = field(f, s)
    grids = batch_of(lattice, m, 3, MIXED, rng)
    origin = SparseGrid.from_sites(GridShape(lattice, m), [(0,) * lattice.ndim],
                                   rng.normal(size=(1, 3)), rng.normal(size=3))
    grids.insert(2, origin)
    batch = GridBatch.of(grids)
    layer = ConvLayer.init(FilterGeometry(lattice, f, s), 3, 4, rng, np.float64)
    layer.B[:] = rng.normal(size=4)
    out, qplan = conv_forward_batch(batch, layer)
    iplan = replace(qplan, Q=None, in_rows=batch.rows, in_grounds=batch.grounds)
    assert (qplan[2].src[:, 1:] < 0).all() and qplan[2].a_out == 1
    assert any(p.a_out == 0 for p in qplan)
    d_out = rng.normal(size=out.rows.shape)
    want = conv_backward(d_out, qplan, layer)
    got = conv_backward(d_out, iplan, layer)
    for g, w in zip(got, want):  # dW, dB, d_in
        assert g.shape == w.shape and g.dtype == w.dtype
        assert relative_error(g, w) <= 1e-12
    dW, dB, none = conv_backward(d_out, iplan, layer, input_grad=False)
    assert none is None and np.array_equal(dW, got[0]) and np.array_equal(dB, got[1])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("lattice", ALL_LATTICES)
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_pool_backward_matches_add_at(lattice, p, s, dtype, rng):
    grids = as_dtype(batch_of(lattice, field(p, s), 3, MIXED, rng), dtype)
    for gs in (grids, tied(grids)):
        out, pplan = pool_forward_batch(GridBatch.of(gs), PoolLayer(lattice, p, s))
        check_pool_backward(out, pplan, rng)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("ties, m, ratio, seed", fmp_cases())
def test_fmp_backward_matches_add_at(ties, m, ratio, seed, dtype, rng):
    grids = as_dtype(batch_of(LatticeKind.CUBIC, m, 2, MIXED, rng), dtype)
    if ties:
        grids = tied(grids)
    out, pplan = fmp_forward_batch(GridBatch.of(grids), FMPLayer(LatticeKind.CUBIC),
                                   fmp_regions(m, ratio, seed))
    check_pool_backward(out, pplan, rng)


def test_pool_footprint_past_255(rng):
    """Cubic MP7 has 343 footprint positions: the stored argmax needs
    uint16, and positions past 255 must route like the rest."""
    grids = batch_of(LatticeKind.CUBIC, 9, 2, MIXED, rng)
    check_pool(grids, 7, 2)
    out, pplan = pool_forward_batch(GridBatch.of(grids), PoolLayer(LatticeKind.CUBIC, 7, 2))
    assert pplan.src.shape[1] == 343
    assert pplan.argmax.dtype == np.uint16 and pplan.argmax.max() > 255
    check_pool_backward(out, pplan, rng)


@pytest.mark.parametrize("lattice, p, moves, want", [
    # component 0: position 2 moves the argmax and position 4 ties it;
    # component 1: the max moves twice and position 8 ties the second move
    (LatticeKind.SQUARE, 3, [{2: 5.0, 4: 5.0}, {3: 4.0, 6: 7.0, 8: 7.0}, {}], [2, 6, 0]),
    # cubic MP7: 343 positions, winners and ties past 255
    (LatticeKind.CUBIC, 7, [{300: 2.0, 310: 2.0}, {342: 3.0}, {200: 2.0, 256: 3.0, 300: 3.0}],
     [300, 342, 256]),
])
def test_pool_argmax_targeted_positions(lattice, p, moves, want):
    """One window over a fully active field: every position holds 1.0 but
    those ``moves`` names.  The argmax is the lowest position of the
    maximum, also when a later position ties a maximum that already moved."""
    geom = FilterGeometry(lattice, p)
    rows = np.ones((geom.volume, len(moves)))
    for c, move in enumerate(moves):
        rows[list(move), c] = list(move.values())
    grid = SparseGrid.from_sites(GridShape(lattice, p), geom.offsets, rows, np.zeros(len(moves)))
    batch = GridBatch.of([grid])
    out, pplan = pool_forward_batch(batch, PoolLayer(lattice, p, 1))
    assert pplan.argmax.dtype == np.min_scalar_type(geom.volume - 1)
    assert pplan.argmax.tolist() == [want]
    out_keys, out_sample, src = conv_rulebook(batch, geom)
    _, ref = putmask_max_pool(batch, out_keys, out_sample, out.shape, src, True)
    assert np.array_equal(pplan.argmax, ref.argmax)


@pytest.mark.parametrize("p, s", [(2, 2), (3, 2), (3, 1)])
def test_pool_nan_matches_loop_max(p, s, rng):
    """A NaN component stays NaN, as ``max(axis=1)`` leaves it, and its
    argmax is the first NaN position, as ``argmax(axis=1)`` picks; NaNs
    sit in rows and in one sample's ground, several per window."""
    nan_grids = with_nans(batch_of(LatticeKind.CUBIC, field(p, s), 3, MIXED, rng), rng)
    batch = GridBatch.of(nan_grids)
    out, plans = pool_forward_batch(batch, PoolLayer(LatticeKind.CUBIC, p, s))
    assert np.isnan(out.rows).any()
    for b, grid in enumerate(nan_grids):
        keys = loop_conv_active_sites(grid, p, s)
        rows, argmax_src = loop_max(grid, loop_gather(grid, keys, p, s)[0])
        assert np.array_equal(out.grid(b).rows, rows, equal_nan=True), b
        assert np.array_equal(plans[b].argmax_src, argmax_src), b
    check_pool_backward(out, plans, rng)


# ---------------------------------------------------------------------------
# the table rulebook against the searchsorted rulebook it replaced


# settings of the rulebook's caps under which the rule must not change: the
# module's own, the sort forced (no box is below a cap of 0), and the box
# tables forced
GROUPINGS = {
    "cap": {},
    "sort": {"BOX_CELLS_PER_CANDIDATE": 0},
    "box": {"BOX_CELLS_PER_CANDIDATE": 1 << 62, "BOX_CELLS_MAX": 1 << 62},
}


def unique_calls(mp):
    """A list that gains one entry per ``np.unique`` call while ``mp`` is
    active."""
    calls, unique = [], np.unique

    def counted(*args, **kwargs):
        calls.append(args)
        return unique(*args, **kwargs)

    mp.setattr(np, "unique", counted)
    return calls


def check_rule(monkeypatch, make_rule, groupings=tuple(GROUPINGS)):
    """``make_rule()`` gives the same (out_keys, out_sample, src) as with
    the searchsorted rulebook in place of the table rulebook, under each
    of ``groupings``; the sort runs one ``np.unique``, the box tables none.
    Returns the rule at the module's caps."""
    with monkeypatch.context() as mp:
        mp.setattr(ops, "_window_rulebook", searchsorted_window_rulebook)
        want = make_rule()
    rules = []
    for name in groupings:
        with monkeypatch.context() as mp:
            for cap, value in GROUPINGS[name].items():
                mp.setattr(ops, cap, value)
            sorts = unique_calls(mp)
            rules.append(make_rule())
        if name != "cap":
            assert len(sorts) == (name == "sort"), name
        for g, w in zip(rules[-1], want, strict=True):
            assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w), name
    return rules[0]


def check_window_rules(monkeypatch, grids, fs, groupings=tuple(GROUPINGS)):
    """:func:`check_rule` for the convolution (or pool) rule of each
    ``(f, s)`` over the batch of ``grids``."""
    batch = GridBatch.of(grids)
    for f, s in fs:
        geom = FilterGeometry(batch.shape.lattice, f, s)
        check_rule(monkeypatch, lambda: conv_rulebook(batch, geom), groupings)


@pytest.mark.parametrize("lattice", ALL_LATTICES)
@pytest.mark.parametrize("f", [1, 2, 3])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_table_rulebook_matches_searchsorted(lattice, f, s, rng, monkeypatch):
    """Mixed sparse, dense, full and empty samples, and each sample alone."""
    grids = batch_of(lattice, field(f, s), 2, MIXED, rng)
    check_window_rules(monkeypatch, grids, [(f, s)])
    for grid in grids:
        check_window_rules(monkeypatch, [grid], [(f, s)])


@pytest.mark.parametrize("m, ratio", [(2, FMP_RATIO), (3, 1.5), (5, FMP_RATIO),
                                      (12, FMP_RATIO), (31, FMP_RATIO)])
def test_table_rulebook_matches_searchsorted_fmp(m, ratio, rng, monkeypatch):
    """FMP regions differ per dimension, so each gets its own start table;
    sites at ``m - 1`` lie past the last region start, ``m - 2``."""
    shape = GridShape(LatticeKind.CUBIC, m)
    top = m - 1
    sites = sorted({(top, 0, 0), (0, top, 0), (0, 0, top), (top, 0, top), (top, top, top)})
    edge = SparseGrid.from_sites(shape, sites, rng.normal(size=(len(sites), 2)),
                                 rng.normal(size=2))
    grids = [edge, *batch_of(LatticeKind.CUBIC, m, 2, MIXED, rng)]
    for seed in range(6):
        regions = fmp_regions(m, ratio, seed)
        assert all(r[-1] == m - 2 for r in regions)
        for batch in (GridBatch.of(grids), GridBatch.of([edge])):
            out_keys, _, _ = check_rule(monkeypatch, lambda: fmp_rulebook(batch, regions))
            assert out_keys.shape[0] > 0


@pytest.mark.parametrize("lattice", ALL_LATTICES)
def test_table_rulebook_matches_searchsorted_all_empty(lattice, rng, monkeypatch):
    grids = batch_of(lattice, 7, 2, (0.0, 0.0, 0.0), rng)
    check_window_rules(monkeypatch, grids, [(1, 1), (2, 1), (3, 2)])
    check_window_rules(monkeypatch, grids[:1], [(3, 2)])
    if lattice is LatticeKind.CUBIC:
        batch = GridBatch.of(grids)
        regions = fmp_regions(7, FMP_RATIO, 0)
        out_keys, _, src = check_rule(monkeypatch, lambda: fmp_rulebook(batch, regions))
        assert out_keys.shape == (0,) and src.shape == (0, 8)


@pytest.mark.parametrize("lattice", [LatticeKind.CUBIC, LatticeKind.TETRAHEDRAL])
def test_table_rulebook_matches_searchsorted_far_corner(lattice, rng, monkeypatch):
    """The batch spans the largest field ``GridShape`` accepts, so its box
    of outputs, ~2^63 cells per sample, cannot be a table: the box
    grouping is left out."""
    grids = far_corner_grids(lattice, 4, rng)
    check_window_rules(monkeypatch, grids, [(1, 1), (2, 1), (3, 2)], ("cap", "sort"))
    if lattice is LatticeKind.CUBIC:
        batch = GridBatch.of(grids)
        regions = fmp_regions(batch.shape.m, FMP_RATIO, 1)
        check_rule(monkeypatch, lambda: fmp_rulebook(batch, regions), ("cap", "sort"))


@pytest.mark.parametrize("lattice", [LatticeKind.CUBIC, LatticeKind.TETRAHEDRAL])
@pytest.mark.parametrize("f, s", [(1, 1), (2, 1), (3, 2)])
def test_far_corner_rule_sorts_in_little_memory(lattice, f, s, rng, monkeypatch):
    """At the module's caps the far-corner batch's rule takes the sort, and
    a convolution's rule allocates nothing near the field's size (a start
    table over the batch's extent alone would be 8.4 MB)."""
    batch = GridBatch.of(far_corner_grids(lattice, 4, rng))
    geom = FilterGeometry(lattice, f, s)
    sorts = unique_calls(monkeypatch)
    tracemalloc.start()
    try:
        out_keys, _, src = conv_rulebook(batch, geom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sorts) == 1
    assert peak < 1 << 20, peak
    assert src.shape[0] == out_keys.shape[0] > 0


def disjoint_grids(lattice, count, m, rng):
    """``count`` sparse grids in a size-``m`` field, each in its own block,
    so that no two samples share an output key and ``B * U`` is at its
    largest (fewer on the triangular lattice, where fewer blocks fit
    inside the simplex)."""
    shape = GridShape(lattice, m)
    d = shape.ndim
    per_dim, block = 8, 4
    corners = np.stack(np.meshgrid(*[np.arange(per_dim)] * d, indexing="ij"), -1).reshape(-1, d)
    if lattice.is_simplex:  # keep every block inside the simplex
        corners = corners[corners.sum(axis=1) < per_dim - 1]
    pick = rng.permutation(corners.shape[0])[:count]
    grids = []
    for corner in corners[np.sort(pick)] * block * 2:
        sites = corner + rng.integers(0, block, size=(10, d))
        sites = sorted({tuple(int(v) for v in site) for site in sites})
        grids.append(SparseGrid.from_sites(shape, sites, rng.normal(size=(len(sites), 1)),
                                           rng.normal(size=1)))
    return grids


@pytest.mark.parametrize("lattice", ALL_LATTICES)
@pytest.mark.parametrize("f, s", [(1, 1), (3, 1), (2, 2), (3, 2), (3, 3)])
def test_table_rulebook_matches_searchsorted_disjoint_batch(lattice, f, s, rng, monkeypatch):
    grids = disjoint_grids(lattice, 64, field(f, s, at_least=64), rng)
    assert len(grids) == (28 if lattice is LatticeKind.TRIANGULAR else 64)
    assert all(g.shape.contains(tuple(site)) for g in grids for site in g.sites().tolist())
    check_window_rules(monkeypatch, grids, [(f, s)])


# ---------------------------------------------------------------------------
# the tiled pool against the whole-array pool and masked scatter it replaced

# output rows per pool tile; None keeps the default ops.TILE, which holds
# every test grid's rows in one tile
TILE_ROWS = [1, 5, None]


@pytest.fixture(params=TILE_ROWS, ids=lambda rows: f"tile{rows or 'default'}")
def tile_rows(request, monkeypatch):
    """A function of the feature count ``n`` that sets ``ops.TILE`` to hold
    the parametrized number of rows and returns that number (None for the
    default)."""
    def use(n):
        if request.param is not None:
            monkeypatch.setattr(ops, "TILE", request.param * n)
        return request.param
    return use


def check_tiled_pool(run, tile_rows, monkeypatch, rng):
    """``run(keep_plan)`` pools a batch.  The tiled pool gives the output,
    argmax, ``argmax_src`` and input gradient of the untiled pool and
    masked scatter, bit for bit and dtypes included, with and without the
    plan.  Returns the output and plan."""
    with monkeypatch.context() as mp:
        mp.setattr(ops, "_max_pool", untiled_max_pool)
        want, wplan = run(True)
        want_eval, _ = run(False)
    rows = tile_rows(want.n)
    if rows is not None and rows > 1 and want.a > rows:
        assert any(start % rows for start in want.start[1:-1])  # a tile holds two samples
    got, gplan = run(True)
    got_eval, none = run(False)
    assert none is None
    for out in (got, got_eval):
        assert np.array_equal(out.keys, want.keys) and np.array_equal(out.start, want.start)
        assert out.rows.dtype == want.rows.dtype
        assert np.array_equal(out.rows, want.rows, equal_nan=True)
        assert np.array_equal(out.grounds, want.grounds, equal_nan=True)
    assert gplan.argmax.dtype == wplan.argmax.dtype
    assert np.array_equal(gplan.argmax, wplan.argmax)
    assert np.array_equal(gplan.argmax_src, wplan.argmax_src)
    d_out = rng.normal(size=want.rows.shape).astype(want.rows.dtype)
    got_in, want_in = pool_backward(d_out, gplan), masked_pool_backward(d_out, wplan)
    assert got_in.dtype == want_in.dtype and np.array_equal(got_in, want_in)
    return got, gplan


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("lattice", ALL_LATTICES)
@pytest.mark.parametrize("p, s", [(2, 2), (3, 2), (3, 1)])
def test_tiled_pool_matches_untiled(lattice, p, s, dtype, tile_rows, rng, monkeypatch):
    """Random, tied and NaN inputs, and a batch of empty samples."""
    grids = as_dtype(batch_of(lattice, field(p, s), 3, MIXED, rng), dtype)
    empty = as_dtype(batch_of(lattice, field(p, s), 3, (0.0, 0.0), rng), dtype)
    layer = PoolLayer(lattice, p, s)
    for gs in (grids, tied(grids), with_nans(grids, rng), empty):
        batch = GridBatch.of(gs)
        check_tiled_pool(lambda keep: pool_forward_batch(batch, layer, keep_plan=keep),
                         tile_rows, monkeypatch, rng)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("ties", [False, True], ids=["random", "ties"])
@pytest.mark.parametrize("m, ratio, seed", [(12, FMP_RATIO, 7), (5, FMP_RATIO, 3),
                                            (3, 1.5, 0), (2, FMP_RATIO, 0)])
def test_tiled_fmp_matches_untiled(ties, m, ratio, seed, dtype, tile_rows, rng, monkeypatch):
    grids = as_dtype(batch_of(LatticeKind.CUBIC, m, 3, MIXED, rng), dtype)
    if ties:
        grids = tied(grids)
    regions = fmp_regions(m, ratio, seed)
    layer = FMPLayer(LatticeKind.CUBIC)
    for gs in (grids, with_nans(grids, rng)):
        batch = GridBatch.of(gs)
        check_tiled_pool(lambda keep: fmp_forward_batch(batch, layer, regions, keep_plan=keep),
                         tile_rows, monkeypatch, rng)


@pytest.mark.parametrize("dtype", DTYPES)
def test_tiled_pool_nan_in_later_tile(dtype, tile_rows, rng, monkeypatch):
    """One NaN, in the last sample's last row: at a small tile it lies past
    the first tile, where its argmax must still be its first NaN position."""
    grids = as_dtype(batch_of(LatticeKind.CUBIC, 9, 3, (0.6, 0.0, 1.0), rng), dtype)
    last = grids[-1]
    rows = last.rows.copy()
    rows[-1, 1] = np.nan
    grids[-1] = SparseGrid(last.shape, last.keys, rows, last.ground)
    batch = GridBatch.of(grids)
    layer = PoolLayer(LatticeKind.CUBIC, 3, 2)
    out, plan = check_tiled_pool(lambda keep: pool_forward_batch(batch, layer, keep_plan=keep),
                                 tile_rows, monkeypatch, rng)
    i, c = np.nonzero(np.isnan(out.rows))
    assert set(c) == {1} and i.min() >= 5  # past the first tile of one or five rows
    assert (plan.argmax_src[i, c] == batch.a - 1).all()
