import re

import numpy as np
import pytest

from latticenet.autograd import (
    ParamState,
    conv_backward,
    finite_diff_check,
    pool_backward,
    relu_backward,
    sgd_step,
    softmax_nll,
)
from latticenet.geometry import GridShape, LatticeKind
from latticenet.grid import DenseGrid, LabeledSample, SparseGrid
from latticenet.netspec import parse, plan
from latticenet.network import Network
from latticenet.ops import ConvLayer, FilterGeometry, PoolLayer, conv_forward, pool_forward
from latticenet.train import batch_loss_and_grads

from conftest import ALL_LATTICES, random_dense, random_sparse
from oracles import copying_sgd_step, dense_conv_backward


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
    out, pplan = pool_forward(grid, PoolLayer(LatticeKind.SQUARE, 2, 2), keep_plan=True)
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
    out, pplan = pool_forward(grid, PoolLayer(LatticeKind.SQUARE, 2, 2), keep_plan=True)
    d_in = pool_backward(np.array([[2.0]]), pplan)
    assert np.array_equal(d_in, [[2.0], [0.0]])


def test_pool_backward_tie_lowest_offset(rng):
    shape = GridShape(LatticeKind.SQUARE, 2)
    grid = SparseGrid.from_sites(shape, [[0, 0], [1, 1]], [[3.0], [3.0]], np.zeros(1))
    out, pplan = pool_forward(grid, PoolLayer(LatticeKind.SQUARE, 2, 2), keep_plan=True)
    d_in = pool_backward(np.array([[1.0]]), pplan)
    assert np.array_equal(d_in, [[1.0], [0.0]])


@pytest.mark.parametrize("lattice", ALL_LATTICES)
def test_pool_backward_matches_dense(lattice, rng):
    """Dense grid with distinct values: gradient lands on the dense argmax."""
    shape = GridShape(lattice, 4)
    vals = rng.permutation(shape.num_sites).astype(float).reshape(-1, 1) + 1.0
    dense = DenseGrid(shape, vals)
    grid = SparseGrid.from_dense(dense, np.zeros(1))
    out, pplan = pool_forward(grid, PoolLayer(lattice, 2, 2), keep_plan=True)
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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sgd_in_place_equals_copying_formula(dtype, rng):
    """The in-place step rounds as ``velocity = mu*velocity - lr*(grad +
    wd*values)`` does, so several steps agree bit for bit."""
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
                vals = p.Q @ entry[1].W + entry[1].B
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
