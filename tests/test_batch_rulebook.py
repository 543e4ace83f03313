"""The batched rulebook against the one-grid-at-a-time rulebook (oracles.py).

Every sample of a batch must get exactly what it gets alone: the same
active output keys, the same gather index in its own row numbers, the same
rows of ``Q``, and the same pooled values and argmax routing.  A batch's
gather index reads the table of input rows and ground as it is, each
ground position reading the table's last row, the batch's one ground.
Batches mix empty and non-empty grids on one random ground, and one test
places sparse sites at the far corner of the largest field ``GridShape``
accepts, where packed keys come within a few bits of the int64 range.  The backward scatters must equal
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

from latticenet import ingest, ops
from latticenet.autograd import conv_backward, pool_backward
from latticenet.geometry import MAX_COORD, GridShape, LatticeKind, pack_sites, sites_array
from latticenet.grid import GridBatch, SparseGrid
from latticenet.ingest import random_rotation, voxelize_mesh
from latticenet.netspec import parse, plan
from latticenet.network import Network
from latticenet.ops import (
    ConvLayer,
    FilterGeometry,
    FMPLayer,
    build_gather,
    conv_active_sites,
    conv_forward_batch,
    conv_rulebook,
    fmp_regions,
    fmp_rulebook,
    pool_forward_batch,
)

from conftest import (
    ALL_LATTICES,
    count_calls,
    random_sparse,
    relative_error,
    thin_grids,
    torus_mesh,
)
from oracles import (
    addat_conv_backward,
    addat_pool_backward,
    loop_conv_active_sites,
    loop_fmp_active_keys,
    loop_fmp_gather,
    loop_gather,
    loop_max,
    masked_conv_backward,
    masked_pool_backward,
    plan_Q,
    putmask_max_pool,
    rule_samples,
    searchsorted_window_rulebook,
    untiled_max_pool,
)

# sparsity per sample: empty grids between sparse, dense and full ones
MIXED = (0.0, 0.3, 0.0, 1.0, 0.1, 0.6)


def batch_of(lattice, m, n, sparsities, rng):
    """One grid per sparsity, all on one random ground."""
    ground = rng.normal(size=n)
    return [random_sparse(lattice, m, n, p, rng, ground=ground) for p in sparsities]


def tied(grids):
    """Equal rows and a zero ground, as ingestion gives: every active
    position of a window ties, so the argmax rests on position order."""
    return [SparseGrid(g.shape, g.keys, np.ones_like(g.rows), np.zeros_like(g.ground))
            for g in grids]


def with_nans(grids, rng):
    """NaNs in ~30% of row components and in the batch's one ground."""
    ground = np.array([np.nan, 0.0, 1.0], grids[0].rows.dtype)
    out = []
    for g in grids:
        rows = np.where(rng.random(g.rows.shape) < 0.3, np.nan, g.rows)
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
    out, plans = pool_forward_batch(batch, FilterGeometry(lattice, p, s))
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
    """(ties, field, region seed): field 2 has one region per dimension,
    and every field has sites with ``c - o = -1`` and sites past the last
    region start.  The first field-12 cases keep their old ids."""
    for ties in (False, True):
        name = "ties" if ties else "random"
        yield pytest.param(ties, 12, 7, id=name)
        for m in (2, 5, 12, 31):
            for seed in (0, 3, 7):
                if (m, seed) != (12, 7):
                    yield pytest.param(ties, m, seed, id=f"{name}-m{m}-seed{seed}")


@pytest.mark.parametrize("ties, m, seed", fmp_cases())
def test_fmp_matches_per_grid(ties, m, seed, rng):
    grids = batch_of(LatticeKind.CUBIC, m, 2, MIXED, rng)
    if ties:
        grids = tied(grids)
    regions = fmp_regions(m, seed)
    batch = GridBatch.of(grids)
    out, plans = pool_forward_batch(batch, FMPLayer(seed))
    for b, grid in enumerate(grids):
        keys = loop_fmp_active_keys(grid, regions)
        rows, argmax_src = loop_max(grid, loop_fmp_gather(grid, keys, regions))
        assert np.array_equal(out.grid(b).keys, keys), b
        assert np.array_equal(out.grid(b).rows, rows), b
        assert np.array_equal(plans[b].argmax_src, argmax_src), b


def far_corner_grids(lattice, count, rng):
    """Sparse grids in the largest packable field, sites clustered at the
    origin and at the far corner, several keys shared between samples, on
    one random ground."""
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
    grids, ground = [], rng.normal(size=2)
    for _ in range(count):
        sites = set()
        for c in corners:
            for delta in rng.integers(0, 4, size=(12, d)):
                site = np.where(c > 0, c - delta, c + delta)
                if not shape.outside(site):
                    sites.add(tuple(int(v) for v in site))
        sites = sorted(sites)
        grids.append(SparseGrid.from_sites(shape, sites, rng.normal(size=(len(sites), 2)),
                                           ground))
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
    _, pplan = pool_forward_batch(batch, FilterGeometry(LatticeKind.SQUARE, 2, 2))
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
    iplan = replace(gplan, Q=None, in_rows=batch.rows, in_ground=batch.ground)
    for b, grid in enumerate(grids):
        assert np.array_equal(iplan[b].in_rows, grid.rows), b
        assert np.array_equal(iplan[b].in_ground, grid.ground), b
        assert np.array_equal(plan_Q(iplan[b]), gplan[b].Q), b


def test_batch_rejects_mixed_shapes(rng):
    a = random_sparse(LatticeKind.SQUARE, 5, 1, 0.5, rng)
    b = random_sparse(LatticeKind.SQUARE, 6, 1, 0.5, rng)
    with pytest.raises(ValueError):
        GridBatch.of([a, b])
    with pytest.raises(ValueError):
        GridBatch.of([])


def test_batch_refuses_grounds_that_differ_in_any_bit(rng):
    """A batch holds one ground: ``GridBatch.of`` and ``forward_batch``
    refuse grids whose grounds, cast to the rows' dtype, differ in any bit,
    0.0 against -0.0 included, and take equal NaN grounds.  A lone grid
    runs on any ground."""
    net = Network(plan(parse("4C2-MP3/2-6C2-output", LatticeKind.SQUARE, 1)), 3, rng,
                  dtype=np.float32)
    shape = net.input_shape()

    def grid(ground):
        g = random_sparse(shape.lattice, shape.m, 1, 0.3, rng)
        return SparseGrid(shape, g.keys, g.rows.astype(np.float32), np.array([ground]))

    for a, b in ((0.0, -0.0), (1.0, 1.0 + 2.0**-23), (np.nan, 0.0)):
        for grids in ([grid(a), grid(b)], [grid(b), grid(a), grid(b)]):
            with pytest.raises(ValueError, match="the grids of a batch must share one ground"):
                GridBatch.of(grids)
            with pytest.raises(ValueError, match="the grids of a batch must share one ground"):
                net.forward_batch(grids)
    # 1 + 2**-40 is 1 in float32, the rows' dtype
    for a, b in ((np.nan, np.nan), (1.0, 1.0 + 2.0**-40)):
        grids = [grid(a), grid(b)]
        batch = GridBatch.of(grids)
        assert batch.table.shape == (batch.a + 1, 1) and batch.table.dtype == np.float32
        assert batch.ground.tobytes() == np.float32([a]).tobytes()
        logits, _, _ = net.forward_batch(grids)
        assert logits.shape == (2, 3)
    for ground in (-0.0, np.nan, 3.5):
        lone = grid(ground)
        assert GridBatch.of([lone]).ground.tobytes() == np.float32([ground]).tobytes()
        assert net.forward_batch([lone])[0].shape == (1, 3)


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


@pytest.mark.parametrize("lattice", ALL_LATTICES)
def test_ground_entries_read_the_tables_last_row(lattice, rng):
    """A rule's ``src`` is the gather's own index into the batch's table of
    ``a + 1`` rows: every ground entry is -1, the table's last row, which
    holds the batch's one ground, and one ``take`` of the table through it
    gives every sample the gather it gets alone, ground vector included,
    on conv, pool and (cubic) FMP rules."""
    m = field(3, 2, at_least=25 if lattice.ndim == 2 else 13)
    grids = thin_grids(GridShape(lattice, m), 2, rng)
    batch = GridBatch.of(grids)
    assert batch.table.shape == (batch.a + 1, batch.n)
    assert np.array_equal(batch.table[-1], grids[0].ground)
    rules = []
    for geom in (FilterGeometry(lattice, 2, 1), FilterGeometry(lattice, 3, 2)):
        rules.append((conv_rulebook(batch, geom),
                      lambda g, keys, f=geom.f, s=geom.s: loop_gather(g, keys, f, s)[0]))
    if lattice is LatticeKind.CUBIC:
        regions = fmp_regions(m, 3)
        rules.append((fmp_rulebook(batch, regions),
                      lambda g, keys: loop_fmp_gather(g, keys, regions)))
    for rule, loop_src in rules:
        out_keys, src, out_sample = rule.out_keys, rule.src, rule_samples(rule)
        assert set(src[src < 0].tolist()) == {-1}
        gather = batch.table.take(src.reshape(-1), axis=0).reshape(*src.shape, -1)
        for b, grid in enumerate(grids):
            keys = out_keys[out_sample == b]
            alone = np.vstack([grid.ground[None], grid.rows])[loop_src(grid, keys) + 1]
            assert np.array_equal(gather[out_sample == b], alone), b


def check_table(out, want_grounds):
    """``out`` stores one (a + 1, n) table whose ``rows`` and ``ground``
    are views, every sample's ground being the last row;
    ``want_grounds[b]`` is sample ``b``'s ground, to float rounding."""
    a = out.a
    assert out.table.shape == (a + 1, out.n)
    assert np.shares_memory(out.rows, out.table) and np.shares_memory(out.ground, out.table)
    for b in range(out.B):
        assert np.array_equal(out.grid(b).ground, out.table[a])
        assert relative_error(out.table[a], want_grounds[b]) <= 1e-6, b


@pytest.mark.parametrize("lattice", ALL_LATTICES)
def test_each_op_stores_one_table_with_grounds_last(lattice, rng):
    """``GridBatch.of``, conv, pool, cubic FMP and relu outputs each keep
    one table, rows then the batch's one ground, and relu rectifies its
    input's table in place, ground included."""
    m = field(3, 2, at_least=25 if lattice.ndim == 2 else 13)
    grids = thin_grids(GridShape(lattice, m), 2, rng)
    layer = ConvLayer.init(FilterGeometry(lattice, 2, 1), 2, 3, rng, np.float64)
    layer.B[:] = rng.normal(size=3) - (50, 0, 0)  # the ground's first component negative
    batch = GridBatch.of(grids)
    check_table(batch, [g.ground for g in grids])
    out, _ = conv_forward_batch(batch, layer)
    check_table(out, [ops.conv_forward(g, layer).ground for g in grids])
    before = out.table.copy()
    assert ops.relu_forward_batch(out) is out
    assert np.array_equal(out.table, np.maximum(before, 0)) and (before[out.a:] < 0).any()
    check_table(out, [np.maximum(before[out.a], 0)] * out.B)
    pooled, _ = pool_forward_batch(batch, FilterGeometry(lattice, 3, 2))
    check_table(pooled, [g.ground for g in grids])
    if lattice is LatticeKind.CUBIC:
        fmp, _ = pool_forward_batch(batch, FMPLayer(3))
        check_table(fmp, [g.ground for g in grids])


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


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("lattice", ALL_LATTICES)
@pytest.mark.parametrize("f, s", [(2, 1), (3, 1), (3, 2)])
def test_unmasked_q_form_scatter_matches_masked(lattice, f, s, dtype, rng):
    """The Q form's input gradient, scattered with no mask through ground
    rows that are sliced off, equals the masked scatter it replaced bit for
    bit on thin samples, where most gather positions read a ground."""
    m = field(f, s, at_least=25 if lattice.ndim == 2 else 13)
    grids = as_dtype(thin_grids(GridShape(lattice, m), 3, rng), dtype)
    layer = ConvLayer.init(FilterGeometry(lattice, f, s), 3, 4, rng, dtype)
    layer.B[:] = rng.normal(size=4)
    out, qplan = conv_forward_batch(GridBatch.of(grids), layer)
    assert (qplan.src < 0).mean() > 0.5
    d_out = rng.normal(size=out.rows.shape).astype(dtype)
    got, want = conv_backward(d_out, qplan, layer)[2], masked_conv_backward(d_out, qplan, layer)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("lattice", ALL_LATTICES)
@pytest.mark.parametrize("f", [2, 3])
@pytest.mark.parametrize("s", [1, 2])
def test_input_frame_matches_q_form(lattice, f, s, rng):
    """The input frame's dW, dB and input gradient equal the Q form's to
    float64 rounding.  The ground is nonzero, one sample is empty and one
    holds a single site at the origin, so that its one output row reads
    the ground at every position but the first."""
    m = field(f, s)
    grids = batch_of(lattice, m, 3, MIXED, rng)
    origin = SparseGrid.from_sites(GridShape(lattice, m), [(0,) * lattice.ndim],
                                   rng.normal(size=(1, 3)), grids[0].ground)
    grids.insert(2, origin)
    batch = GridBatch.of(grids)
    layer = ConvLayer.init(FilterGeometry(lattice, f, s), 3, 4, rng, np.float64)
    layer.B[:] = rng.normal(size=4)
    out, qplan = conv_forward_batch(batch, layer)
    iplan = replace(qplan, Q=None, in_rows=batch.rows, in_ground=batch.ground)
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
        out, pplan = pool_forward_batch(GridBatch.of(gs), FilterGeometry(lattice, p, s))
        check_pool_backward(out, pplan, rng)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("ties, m, seed", fmp_cases())
def test_fmp_backward_matches_add_at(ties, m, seed, dtype, rng):
    grids = as_dtype(batch_of(LatticeKind.CUBIC, m, 2, MIXED, rng), dtype)
    if ties:
        grids = tied(grids)
    out, pplan = pool_forward_batch(GridBatch.of(grids), FMPLayer(seed))
    check_pool_backward(out, pplan, rng)


def test_pool_footprint_past_255(rng):
    """Cubic MP7 has 343 footprint positions: the stored argmax needs
    uint16, and positions past 255 must route like the rest."""
    grids = batch_of(LatticeKind.CUBIC, 9, 2, MIXED, rng)
    check_pool(grids, 7, 2)
    out, pplan = pool_forward_batch(GridBatch.of(grids), FilterGeometry(LatticeKind.CUBIC, 7, 2))
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
    out, pplan = pool_forward_batch(batch, geom)
    assert pplan.argmax.dtype == np.min_scalar_type(geom.volume - 1)
    assert pplan.argmax.tolist() == [want]
    _, ref = putmask_max_pool(batch, conv_rulebook(batch, geom), out.shape, True)
    assert np.array_equal(pplan.argmax, ref.argmax)


@pytest.mark.parametrize("p, s", [(2, 2), (3, 2), (3, 1)])
def test_pool_nan_matches_loop_max(p, s, rng):
    """A NaN component stays NaN, as ``max(axis=1)`` leaves it, and its
    argmax is the first NaN position, as ``argmax(axis=1)`` picks; NaNs
    sit in rows and in one sample's ground, several per window."""
    nan_grids = with_nans(batch_of(LatticeKind.CUBIC, field(p, s), 3, MIXED, rng), rng)
    batch = GridBatch.of(nan_grids)
    out, plans = pool_forward_batch(batch, FilterGeometry(LatticeKind.CUBIC, p, s))
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


# the fields of a Plan that a rulebook gives
RULE_FIELDS = ("out_keys", "src", "in_start", "out_start")


def check_rule(monkeypatch, make_rule, groupings=tuple(GROUPINGS)):
    """``make_rule()`` gives the same rule (``out_keys``, ``src``,
    ``in_start`` and ``out_start``, whose output offsets the searchsorted
    rulebook finds with ``np.searchsorted`` over its rows' samples) as with
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
        for field in RULE_FIELDS:
            g, w = getattr(rules[-1], field), getattr(want, field)
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


@pytest.mark.parametrize("m", [2, 5, 12, 31])
def test_table_rulebook_matches_searchsorted_fmp(m, rng, monkeypatch):
    """FMP regions differ per dimension, so each gets its own start table;
    sites at ``m - 1`` lie past the last region start, ``m - 2``."""
    shape = GridShape(LatticeKind.CUBIC, m)
    top = m - 1
    sites = sorted({(top, 0, 0), (0, top, 0), (0, 0, top), (top, 0, top), (top, top, top)})
    grids = batch_of(LatticeKind.CUBIC, m, 2, MIXED, rng)
    edge = SparseGrid.from_sites(shape, sites, rng.normal(size=(len(sites), 2)),
                                 grids[0].ground)
    grids.insert(0, edge)
    for seed in range(6):
        regions = fmp_regions(m, seed)
        assert all(r[-1] == m - 2 for r in regions)
        for batch in (GridBatch.of(grids), GridBatch.of([edge])):
            rule = check_rule(monkeypatch, lambda: fmp_rulebook(batch, regions))
            assert rule.a_out > 0


@pytest.mark.parametrize("lattice", ALL_LATTICES)
def test_table_rulebook_matches_searchsorted_all_empty(lattice, rng, monkeypatch):
    grids = batch_of(lattice, 7, 2, (0.0, 0.0, 0.0), rng)
    check_window_rules(monkeypatch, grids, [(1, 1), (2, 1), (3, 2)])
    check_window_rules(monkeypatch, grids[:1], [(3, 2)])
    if lattice is LatticeKind.CUBIC:
        batch = GridBatch.of(grids)
        regions = fmp_regions(7, 0)
        rule = check_rule(monkeypatch, lambda: fmp_rulebook(batch, regions))
        assert rule.out_keys.shape == (0,) and rule.src.shape == (0, 8)


@pytest.mark.parametrize("lattice", [LatticeKind.CUBIC, LatticeKind.TETRAHEDRAL])
def test_table_rulebook_matches_searchsorted_far_corner(lattice, rng, monkeypatch):
    """The batch spans the largest field ``GridShape`` accepts, so its box
    of outputs, ~2^63 cells per sample, cannot be a table: the box
    grouping is left out."""
    grids = far_corner_grids(lattice, 4, rng)
    check_window_rules(monkeypatch, grids, [(1, 1), (2, 1), (3, 2)], ("cap", "sort"))
    if lattice is LatticeKind.CUBIC:
        batch = GridBatch.of(grids)
        regions = fmp_regions(batch.shape.m, 1)
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
        rule = conv_rulebook(batch, geom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sorts) == 1
    assert peak < 1 << 20, peak
    assert rule.src.shape[0] == rule.out_keys.shape[0] > 0


def test_box_rule_boundary_is_shared_with_meshes(rng, monkeypatch):
    """``ops.box_numbering`` decides for the rulebook and for
    ``ingest.voxelize_mesh`` alike.  With ``BOX_CELLS_MAX`` at the exact
    cell count of a mesh's voxel box, or of a batch's box of outputs, both
    sort; one cell above, both take the table, with the same result.  Both
    cell counts are rebuilt here from the outputs: the mesh's box is its
    voxels' bounding box, and the batch's (size-3 windows at stride 1,
    away from the field's faces) is its sites' box widened by 2 below,
    once per sample."""
    mesh, rotation = torus_mesh(0.4), random_rotation(np.random.default_rng(3))
    sites = voxelize_mesh(mesh, 24, rotation).sites()
    mesh_cells = int(np.prod(sites.max(axis=0) - sites.min(axis=0) + 1))
    shape, ground = GridShape(LatticeKind.CUBIC, 16), rng.normal(size=2)
    grids = [SparseGrid.from_sites(shape, sites_array(LatticeKind.CUBIC, 5)[pick] + 5,
                                   rng.normal(size=(12, 2)), ground)
             for pick in (rng.permutation(125)[:12] for _ in range(2))]
    batch = GridBatch.of(grids)
    box = batch.sites().max(axis=0) - batch.sites().min(axis=0) + 3
    batch_cells = batch.B * int(np.prod(box))
    geom = FilterGeometry(LatticeKind.CUBIC, 3, 1)
    assert 32 * 1024 > max(mesh_cells, batch_cells)  # below the per-candidate cap
    meshes, rules = [], []
    for extra in (0, 1):
        with monkeypatch.context() as mp:
            mp.setattr(ops, "BOX_CELLS_MAX", mesh_cells + extra)
            mesh_sorts = count_calls(mp, ingest, "_occupancy_grid")
            meshes.append(voxelize_mesh(mesh, 24, rotation))
            mp.setattr(ops, "BOX_CELLS_MAX", batch_cells + extra)
            rule_sorts = unique_calls(mp)
            rules.append(conv_rulebook(batch, geom))
        assert mesh_sorts[0] == len(rule_sorts) == 1 - extra, extra
    assert np.array_equal(meshes[0].keys, meshes[1].keys)
    for name in RULE_FIELDS:
        assert np.array_equal(getattr(rules[0], name), getattr(rules[1], name)), name


def disjoint_grids(lattice, count, m, rng):
    """``count`` sparse grids in a size-``m`` field, each in its own block,
    so that no two samples share an output key and ``B * U`` is at its
    largest (fewer on the triangular lattice, where fewer blocks fit
    inside the simplex), on one random ground."""
    shape = GridShape(lattice, m)
    d = shape.ndim
    per_dim, block = 8, 4
    corners = np.stack(np.meshgrid(*[np.arange(per_dim)] * d, indexing="ij"), -1).reshape(-1, d)
    if lattice.is_simplex:  # keep every block inside the simplex
        corners = corners[corners.sum(axis=1) < per_dim - 1]
    pick = rng.permutation(corners.shape[0])[:count]
    grids, ground = [], rng.normal(size=1)
    for corner in corners[np.sort(pick)] * block * 2:
        sites = corner + rng.integers(0, block, size=(10, d))
        sites = sorted({tuple(int(v) for v in site) for site in sites})
        grids.append(SparseGrid.from_sites(shape, sites, rng.normal(size=(len(sites), 1)),
                                           ground))
    return grids


@pytest.mark.parametrize("lattice", ALL_LATTICES)
@pytest.mark.parametrize("f, s", [(1, 1), (3, 1), (2, 2), (3, 2), (3, 3)])
def test_table_rulebook_matches_searchsorted_disjoint_batch(lattice, f, s, rng, monkeypatch):
    grids = disjoint_grids(lattice, 64, field(f, s, at_least=64), rng)
    assert len(grids) == (28 if lattice is LatticeKind.TRIANGULAR else 64)
    assert not any(g.shape.outside(g.sites()).any() for g in grids)
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
        assert np.array_equal(out.ground, want.ground, equal_nan=True)
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
    layer = FilterGeometry(lattice, p, s)
    for gs in (grids, tied(grids), with_nans(grids, rng), empty):
        batch = GridBatch.of(gs)
        check_tiled_pool(lambda keep: pool_forward_batch(batch, layer, keep_plan=keep),
                         tile_rows, monkeypatch, rng)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("ties", [False, True], ids=["random", "ties"])
@pytest.mark.parametrize("m, seed", [(12, 7), (5, 3), (2, 0)])
def test_tiled_fmp_matches_untiled(ties, m, seed, dtype, tile_rows, rng, monkeypatch):
    grids = as_dtype(batch_of(LatticeKind.CUBIC, m, 3, MIXED, rng), dtype)
    if ties:
        grids = tied(grids)
    layer = FMPLayer(seed)
    for gs in (grids, with_nans(grids, rng)):
        batch = GridBatch.of(gs)
        check_tiled_pool(lambda keep: pool_forward_batch(batch, layer, keep_plan=keep),
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
    layer = FilterGeometry(LatticeKind.CUBIC, 3, 2)
    out, plan = check_tiled_pool(lambda keep: pool_forward_batch(batch, layer, keep_plan=keep),
                                 tile_rows, monkeypatch, rng)
    i, c = np.nonzero(np.isnan(out.rows))
    assert set(c) == {1} and i.min() >= 5  # past the first tile of one or five rows
    assert (plan.argmax_src[i, c] == batch.a - 1).all()
