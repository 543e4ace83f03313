import re

import numpy as np
import pytest

from latticenet import autograd, network
from latticenet.autograd import (
    ParamState,
    conv_backward,
    finite_diff_check,
    input_frame_cheaper,
    pool_backward,
    relu_backward,
    sgd_step,
    softmax,
    softmax_nll,
)
from latticenet.geometry import GridShape, LatticeKind
from latticenet.grid import DenseGrid, LabeledSample, SparseGrid
from latticenet.netspec import parse, plan
from latticenet.network import Network
from latticenet.ops import ConvLayer, FilterGeometry, conv_forward, pool_forward
from latticenet.train import batch_loss_and_grads

from conftest import (
    ALL_LATTICES,
    GROWING_ARCH,
    random_dense,
    random_sparse,
    relative_error,
    thin_grids,
)
from oracles import copying_sgd_step, dense_conv_backward, plan_Q


def rand_conv(lattice, f, s, n_in, n_out, rng):
    geom = FilterGeometry(lattice, f, s)
    return ConvLayer(geom, n_in, n_out,
                     rng.normal(size=(geom.volume * n_in, n_out)), rng.normal(size=n_out))


# ---------------------------------------------------------------------------
# conv backward


def test_conv_backward_zero_upstream(rng):
    grid = random_sparse(LatticeKind.SQUARE, 5, 2, 0.4, rng)
    layer = rand_conv(LatticeKind.SQUARE, 2, 1, 2, 3, rng)
    out, gplan = conv_forward(grid, layer, keep_plan=True)
    dW, dB, d_in = conv_backward(np.zeros((out.a, 3)), gplan, layer)
    assert not dW.any() and not dB.any() and not d_in.any()


def test_conv_backward_single_path_matches_fd(rng):
    """dW by central differences on the single-active-site example."""
    shape = GridShape(LatticeKind.SQUARE, 4)
    grid = SparseGrid.from_sites(shape, [[2, 2]], [[2.0]], np.zeros(1))
    layer = ConvLayer(FilterGeometry(LatticeKind.SQUARE, 2, 1), 1, 1,
                      np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([0.5]))
    out, gplan = conv_forward(grid, layer, keep_plan=True)
    # loss = sum of outputs
    d_out = np.ones((out.a, 1))
    dW, dB, _ = conv_backward(d_out, gplan, layer)
    eps = 1e-3
    for i in range(4):
        orig = layer.W[i, 0]
        layer.W[i, 0] = orig + eps
        lp = conv_forward(grid, layer).rows.sum()
        layer.W[i, 0] = orig - eps
        lm = conv_forward(grid, layer).rows.sum()
        layer.W[i, 0] = orig
        fd = (lp - lm) / (2 * eps)
        assert abs(dW[i, 0] - fd) / max(abs(fd), 1e-8) < 1e-4


@pytest.mark.parametrize("lattice", ALL_LATTICES)
def test_conv_backward_dense_matches_oracle(lattice, rng):
    """Fully dense input: sparse backward equals the dense backward oracle."""
    dense = random_dense(lattice, 5, 2, 1.0, rng)
    grid = SparseGrid.from_dense(dense, np.zeros(2))
    layer = rand_conv(lattice, 2, 1, 2, 3, rng)
    out, gplan = conv_forward(grid, layer, keep_plan=True)
    d_out_rows = rng.normal(size=(out.a, 3))
    dW, dB, d_in = conv_backward(d_out_rows, gplan, layer)
    # oracle wants d_out in dense site order = row order (all sites active)
    dW_o, dB_o, d_in_o = dense_conv_backward(dense, 2, 1, layer.W, d_out_rows)
    assert np.allclose(dW, dW_o)
    assert np.allclose(dB, dB_o)
    assert np.allclose(d_in, d_in_o)


def test_conv_backward_shape_check(rng):
    grid = random_sparse(LatticeKind.SQUARE, 4, 1, 0.5, rng)
    layer = rand_conv(LatticeKind.SQUARE, 2, 1, 1, 2, rng)
    out, gplan = conv_forward(grid, layer, keep_plan=True)
    with pytest.raises(ValueError):
        conv_backward(np.zeros((out.a + 1, 2)), gplan, layer)


def test_pool_backward_shape_check(rng):
    grid = random_sparse(LatticeKind.SQUARE, 4, 2, 0.5, rng)
    out, pplan = pool_forward(grid, FilterGeometry(LatticeKind.SQUARE, 2, 2), keep_plan=True)
    want = re.escape(f"d_out must be {(out.a, 2)}")
    for bad in ((out.a + 1, 2), (out.a, 3), (out.a, 1), (out.a,)):
        with pytest.raises(ValueError, match=want):
            pool_backward(np.zeros(bad), pplan)


def test_relu_backward_shape_check():
    """A d_out that would broadcast against the mask is refused."""
    with pytest.raises(ValueError, match=re.escape("d_out must be (3, 2)")):
        relu_backward(np.ones((1, 2)), np.ones((3, 2), bool))
    with pytest.raises(ValueError, match=re.escape("d_out must be (3, 2)")):
        relu_backward(np.ones((3, 1)), np.ones((3, 2), bool))


# ---------------------------------------------------------------------------
# pool backward


def test_pool_backward_routes_to_argmax(rng):
    shape = GridShape(LatticeKind.SQUARE, 2)
    grid = SparseGrid.from_sites(shape, [[0, 0], [1, 1]], [[5.0], [1.0]], np.zeros(1))
    out, pplan = pool_forward(grid, FilterGeometry(LatticeKind.SQUARE, 2, 2), keep_plan=True)
    d_in = pool_backward(np.array([[2.0]]), pplan)
    assert np.array_equal(d_in, [[2.0], [0.0]])


def test_pool_backward_tie_lowest_offset(rng):
    shape = GridShape(LatticeKind.SQUARE, 2)
    grid = SparseGrid.from_sites(shape, [[0, 0], [1, 1]], [[3.0], [3.0]], np.zeros(1))
    out, pplan = pool_forward(grid, FilterGeometry(LatticeKind.SQUARE, 2, 2), keep_plan=True)
    d_in = pool_backward(np.array([[1.0]]), pplan)
    assert np.array_equal(d_in, [[1.0], [0.0]])


@pytest.mark.parametrize("lattice", ALL_LATTICES)
def test_pool_backward_matches_dense(lattice, rng):
    """Dense grid with distinct values: gradient lands on the dense argmax."""
    shape = GridShape(lattice, 4)
    vals = rng.permutation(shape.num_sites).astype(float).reshape(-1, 1) + 1.0
    dense = DenseGrid(shape, vals)
    grid = SparseGrid.from_dense(dense, np.zeros(1))
    out, pplan = pool_forward(grid, FilterGeometry(lattice, 2, 2), keep_plan=True)
    d_out = rng.normal(size=(out.a, 1))
    d_in = pool_backward(d_out, pplan)
    # dense oracle: route each region's gradient to its max site by enumeration
    from oracles import gather_positions
    from latticenet.geometry import filter_offsets
    pos = gather_positions(out.shape, shape, filter_offsets(lattice, 2), 2)
    expect = np.zeros_like(vals)
    for i in range(pos.shape[0]):
        j = pos[i][np.argmax(vals[pos[i], 0])]
        expect[j, 0] += d_out[i, 0]
    assert np.allclose(d_in, expect)


def test_relu_backward_masks(rng):
    d = rng.normal(size=(4, 2))
    mask = np.array([[1, 0], [0, 1], [1, 1], [0, 0]], dtype=bool)
    assert np.array_equal(relu_backward(d, mask), d * mask)


# ---------------------------------------------------------------------------
# loss


def test_softmax_nll_uniform():
    loss, d = softmax_nll(np.zeros(7), 3)
    assert np.isclose(loss, np.log(7))
    assert np.isclose(d.sum(), 0.0)


def test_softmax_nll_peaked():
    logits = np.zeros(4)
    logits[2] = 30.0
    loss, _ = softmax_nll(logits, 2)
    assert loss < 1e-9


def test_softmax_nll_matches_fd(rng):
    logits = rng.normal(size=5)
    _, d = softmax_nll(logits, 1)
    eps = 1e-6
    for i in range(5):
        lp = softmax_nll(logits + eps * np.eye(5)[i], 1)[0]
        lm = softmax_nll(logits - eps * np.eye(5)[i], 1)[0]
        assert abs((lp - lm) / (2 * eps) - d[i]) < 1e-6


def test_softmax_nll_label_range():
    with pytest.raises(ValueError):
        softmax_nll(np.zeros(3), 3)
    with pytest.raises(ValueError, match="label -1 out of range for 3 classes"):
        softmax_nll(np.zeros((2, 3)), [0, -1])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("classes", [3, 10, 40])
def test_batched_softmax_nll_matches_each_row(classes, dtype, rng):
    """A batch gives every row the bits the one-row computation gives it."""
    logits = (rng.normal(size=(6, classes)) * 5).astype(dtype)
    labels = rng.integers(0, classes, 6)
    losses, d = softmax_nll(logits, labels)
    assert losses.shape == (6,) and d.shape == (6, classes)
    for row, label, loss, grad in zip(logits, labels, losses, d):
        p = softmax(row.astype(np.float64))
        want = p.copy()
        want[label] -= 1.0
        assert loss == -np.log(p[label])
        assert np.array_equal(grad, want)
        assert softmax_nll(row, int(label))[0] == loss


# ---------------------------------------------------------------------------
# SGD


def test_sgd_plain_step():
    p = ParamState(np.array([1.0, 2.0]))
    p.grad[...] = [0.5, -0.5]
    sgd_step([p], lr=0.1, momentum=0.0, weight_decay=0.0)
    assert np.allclose(p.values, [0.95, 2.05])
    assert not p.grad.any()  # grads zeroed


def test_sgd_zero_grad_fixed_point():
    p = ParamState(np.array([1.0, 2.0]))
    sgd_step([p], lr=0.1, momentum=0.9, weight_decay=0.0)
    assert np.array_equal(p.values, [1.0, 2.0])


def test_sgd_two_steps_equal_closed_form(rng):
    v0 = rng.normal(size=3)
    g1, g2 = rng.normal(size=3), rng.normal(size=3)
    lr, mu = 0.05, 0.9
    p = ParamState(v0.copy())
    p.grad[...] = g1
    sgd_step([p], lr, mu)
    p.grad[...] = g2
    sgd_step([p], lr, mu)
    # closed form: vel1 = -lr g1; x1 = x0 + vel1; vel2 = mu vel1 - lr g2
    vel1 = -lr * g1
    x1 = v0 + vel1
    vel2 = mu * vel1 - lr * g2
    assert np.allclose(p.values, x1 + vel2)


def test_sgd_weight_decay():
    p = ParamState(np.array([2.0]))
    sgd_step([p], lr=0.1, momentum=0.0, weight_decay=0.5)
    assert np.allclose(p.values, [2.0 - 0.1 * 0.5 * 2.0])


def check_sgd_against_copying(dtype, rng):
    """Several in-place steps agree with the copying step bit for bit."""
    shapes = [(27 * 4, 8), (8,), (64 * 3, 5), (5,)]
    ours = [ParamState(rng.normal(size=s).astype(dtype)) for s in shapes]
    ref = [ParamState(p.values.copy()) for p in ours]
    for _ in range(5):
        for a, b in zip(ours, ref):
            a.grad[...] = b.grad[...] = rng.normal(size=a.values.shape)
        sgd_step(ours, lr=0.037, momentum=0.9, weight_decay=3e-4)
        copying_sgd_step(ref, lr=0.037, momentum=0.9, weight_decay=3e-4)
        for a, b in zip(ours, ref):
            assert a.values.dtype == dtype
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.velocity, b.velocity)
            assert not a.grad.any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sgd_in_place_equals_copying_formula(dtype, rng):
    """The in-place step rounds as ``velocity = mu*velocity - lr*(grad +
    wd*values)`` does, so several steps agree bit for bit."""
    check_sgd_against_copying(dtype, rng)


def test_sgd_scalar_param_equals_copying_formula():
    ours, ref = ParamState(np.array(2.0)), ParamState(np.array(2.0))
    for g in (0.5, -0.25):
        ours.grad[...] = ref.grad[...] = g
        sgd_step([ours], lr=0.1, momentum=0.9, weight_decay=0.5)
        copying_sgd_step([ref], lr=0.1, momentum=0.9, weight_decay=0.5)
        assert ours.values.shape == () and ours.values == ref.values
        assert ours.velocity == ref.velocity and ours.grad == 0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("tile", [1, 59], ids=["tile1", "tile59"])
def test_sgd_in_tiles_equals_copying_formula(tile, dtype, rng, monkeypatch):
    """A one-element tile takes one row at a time; a 59-element tile takes 7
    rows of the (108, 8) tensor, 11 of the (192, 5) one and each bias
    whole.  The test above runs the default tile."""
    monkeypatch.setattr(autograd, "TILE", tile)
    check_sgd_against_copying(dtype, rng)


# ---------------------------------------------------------------------------
# whole-network finite differences


def _fd_net(lattice, arch, n_input, classes, rng, m_override=None):
    spec = plan(parse(arch, lattice, n_input))
    net = Network(spec, classes, rng, dtype=np.float64)
    shape = GridShape(lattice, spec.planned_sizes[0])
    # fully active input keeps every gather position parameter-free,
    # which is the exact-gradient regime for all parameters
    for _ in range(20):
        dense = DenseGrid(shape, rng.normal(size=(shape.num_sites, n_input)) + 2.0)
        grid = SparseGrid.from_dense(dense, np.zeros(n_input))
        if _preactivations_clear(net, grid):
            break
    return net, grid


def _preactivations_clear(net, grid, lo=1e-3):
    logits, tape, _ = net.forward_batch([grid], keep_tape=True)
    for entry in tape:
        if entry[0] == "conv":
            for p in entry[2]:
                vals = plan_Q(p) @ entry[1].W + entry[1].B
                if vals.size and np.abs(vals).min() < lo:
                    return False
    return True


@pytest.mark.parametrize("lattice", ALL_LATTICES)
def test_network_gradients_match_finite_differences(lattice, rng):
    net, grid = _fd_net(lattice, "3C2-MP2-4C2-output", 2, 3, rng)
    label = 0
    for p in net.params():
        p.grad[...] = 0.0
    batch_loss_and_grads(net, [LabeledSample(grid, label)])

    def loss_fn():
        return softmax_nll(net.forward(grid), label)[0]

    err = finite_diff_check(loss_fn, net.params(), eps=1e-3)
    assert err < 1e-4, f"{lattice.value}: max relative error {err}"


def test_sparse_input_weight_gradients_match_fd(rng):
    """Sparse input, zero biases and zero ground: W grads stay exact."""
    lattice = LatticeKind.TETRAHEDRAL
    spec = plan(parse("3C2-4C2-output", lattice, 1))
    net = Network(spec, 3, rng, dtype=np.float64)
    shape = GridShape(lattice, spec.planned_sizes[0])
    grid = random_sparse(lattice, shape.m, 1, 0.3, rng)
    label = 2
    for p in net.params():
        p.grad[...] = 0.0
    batch_loss_and_grads(net, [LabeledSample(grid, label)])

    def loss_fn():
        return softmax_nll(net.forward(grid), label)[0]

    weights = [p for p in net.params() if p.values.ndim == 2]
    err = finite_diff_check(loss_fn, weights, eps=1e-3)
    assert err < 1e-4


def test_loss_decreases_on_toy_batch(rng):
    spec = plan(parse("4C2-MP2-6C2-output", LatticeKind.SQUARE, 1))
    net = Network(spec, 2, rng, dtype=np.float64)
    shape = GridShape(LatticeKind.SQUARE, spec.planned_sizes[0])
    batch = []
    for i in range(8):
        g = random_sparse(LatticeKind.SQUARE, shape.m, 1, 0.4, rng)
        batch.append(LabeledSample(g, i % 2))
    losses = []
    for _ in range(20):
        for p in net.params():
            p.grad[...] = 0.0
        loss, _ = batch_loss_and_grads(net, batch)
        sgd_step(net.params(), lr=0.05, momentum=0.9)
        losses.append(loss / len(batch))
    assert losses[-1] < losses[0]


def test_finite_diff_check_refuses_huge_nets():
    params = [ParamState(np.zeros(60_000))]
    with pytest.raises(ValueError):
        finite_diff_check(lambda: 0.0, params)


@pytest.mark.parametrize("lattice", ALL_LATTICES)
def test_conv_backward_without_input_grad(lattice, rng):
    grid = random_sparse(lattice, 6, 2, 0.4, rng)
    layer = rand_conv(lattice, 2, 1, 2, 3, rng)
    out, gplan = conv_forward(grid, layer, keep_plan=True)
    d_out = rng.normal(size=(out.a, 3))
    dW, dB, d_in = conv_backward(d_out, gplan, layer)
    dW2, dB2, none = conv_backward(d_out, gplan, layer, input_grad=False)
    assert none is None and d_in.shape == (grid.a, 2)
    assert np.array_equal(dW, dW2) and np.array_equal(dB, dB2)


# ---------------------------------------------------------------------------
# the input frame


@pytest.mark.parametrize("sizes, input_grad, want", [
    # measured layers of the benchmark's workloads: (a_in, a_out, F, n_in, n_out)
    ((7904, 16314, 8, 32, 64), True, True),  # casia-cubic L3
    ((5327, 10143, 8, 64, 128), True, True),  # casia-cubic L6
    ((3038, 4149, 8, 128, 256), True, True),  # casia-cubic L9
    ((6710, 9771, 8, 32, 64), True, True),  # shrec-fmp L3
    ((1932, 21275, 27, 1, 32), False, False),  # casia-cubic L0, first block
    ((431, 16, 27, 256, 512), True, False),  # casia-cubic L12 shrinks
    ((2727, 1936, 8, 64, 96), True, False),  # shrec-fmp L6 shrinks
    ((728, 756, 4, 32, 64), True, False),  # knot-tetra L3, small
    ((1223, 2907, 4, 1, 32), False, False),  # knot-tetra L0, first block
    ((16, 16, 1, 512, 8), True, False),  # a classifier head
])
def test_input_frame_cheaper_on_measured_layers(sizes, input_grad, want):
    assert input_frame_cheaper(*sizes, input_grad) is want


def backprop(net, tape, d_logits):
    for p in net.params():
        p.grad[...] = 0.0
    d_in = net.backward_batch(tape, d_logits)
    return [p.grad.copy() for p in net.params()] + [np.concatenate(d_in)]


def test_growing_conv_keeps_its_input_on_the_tape(rng, monkeypatch):
    """A convolution whose backward pass runs in the input frame keeps the
    layer's input and no (a_out, F * n_in) array; its gradients equal those
    of an all-Q tape to float64 rounding."""
    net = Network(plan(parse(GROWING_ARCH, LatticeKind.CUBIC, 2)), 3, rng, dtype=np.float64)
    grids = thin_grids(net.input_shape(), 2, rng)
    logits, tape, _ = net.forward_batch(grids, keep_tape=True)
    framed = 0
    for i, entry in enumerate(tape):
        if entry[0] not in ("conv", "classifier"):
            continue
        _, layer, p = entry
        F, n_in = layer.geometry.volume, layer.n_in
        assert (p.Q is None) == input_frame_cheaper(p.a_in, p.a_out, F, n_in, layer.n_out,
                                                    i > 0)
        if p.Q is None:
            framed += 1
            arrays = [v for v in vars(p).values() if isinstance(v, np.ndarray)]
            assert all(a.shape != (p.a_out, F * n_in) for a in arrays)
            assert p.in_rows.shape == (p.a_in, n_in) and p.in_ground.shape == (n_in,)
    assert framed
    d_logits = rng.normal(size=logits.shape)
    got = backprop(net, tape, d_logits)
    monkeypatch.setattr(network, "input_frame_cheaper", lambda *sizes: False)
    q_logits, q_tape, _ = net.forward_batch(grids, keep_tape=True)
    assert np.array_equal(q_logits, logits)
    for entry, q_entry in zip(tape, q_tape):
        if entry[0] == "conv":
            assert np.array_equal(plan_Q(entry[2]), q_entry[2].Q)
    for g, w in zip(got, backprop(net, q_tape, d_logits), strict=True):
        assert relative_error(g, w) <= 1e-12
