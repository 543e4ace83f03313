import hashlib
import re

import numpy as np
import pytest

from latticenet.geometry import GridShape, LatticeKind
from latticenet.grid import LabeledSample, SparseGrid
from latticenet.netspec import count_ops, parse, plan
from latticenet.network import Network
from latticenet.train import (
    AffineParams,
    TrainConfig,
    augment_grid,
    batch_loss_and_grads,
    evaluate,
    fit,
)

from conftest import ALL_LATTICES, random_sparse

TET = LatticeKind.TETRAHEDRAL


def small_net(rng, lattice=TET, arch="4C2-MP3/2-6C2-output", n_input=1, classes=3,
              dtype=np.float64):
    spec = plan(parse(arch, lattice, n_input))
    return Network(spec, classes, rng, dtype=dtype)


def inputs_for(net, rng, count, sparsity=0.4):
    shape = net.input_shape()
    return [random_sparse(shape.lattice, shape.m, net.spec.n_input, sparsity, rng)
            for _ in range(count)]


def test_batch_forward_equals_single(rng):
    net = small_net(rng)
    grids = inputs_for(net, rng, 5)
    batch_logits, _, _ = net.forward_batch(grids)
    for i, g in enumerate(grids):
        single = net.forward(g)
        assert np.allclose(batch_logits[i], single)


def test_batch_grad_equals_sum_of_singles(rng):
    net = small_net(rng)
    grids = inputs_for(net, rng, 4)
    samples = [LabeledSample(g, i % 3) for i, g in enumerate(grids)]
    for p in net.params():
        p.grad[...] = 0.0
    batch_loss_and_grads(net, samples)
    batch_grads = [p.grad.copy() for p in net.params()]
    for p in net.params():
        p.grad[...] = 0.0
    for s in samples:
        # single-sample batches accumulate; mean weight 1/1 then rescale
        logits, tape, _ = net.forward_batch([s.grid], keep_tape=True)
        from latticenet.autograd import softmax_nll
        _, d = softmax_nll(logits[0], s.label)
        net.backward_batch(tape, (d / len(samples))[None, :])
    for got, want in zip(batch_grads, [p.grad for p in net.params()]):
        assert np.allclose(got, want)


def test_batch_grad_skips_a_sample_with_an_inactive_head(rng):
    """An empty input leaves its head site inactive; its logit gradient
    must reach no other sample's head row."""
    from latticenet.autograd import softmax_nll
    net = small_net(rng)
    grids = inputs_for(net, rng, 3)
    grids.insert(1, SparseGrid.empty(net.input_shape(), np.zeros(1)))
    d_logits = np.stack([softmax_nll(net.forward(g), i % 3)[1] for i, g in enumerate(grids)])
    _, tape, _ = net.forward_batch(grids, keep_tape=True)
    d_inputs = net.backward_batch(tape, d_logits)
    batch_grads = [p.grad.copy() for p in net.params()]
    for p in net.params():
        p.grad[...] = 0.0
    for g, d, d_in in zip(grids, d_logits, d_inputs):
        _, tape, _ = net.forward_batch([g], keep_tape=True)
        (want,) = net.backward_batch(tape, d[None, :])
        assert np.allclose(d_in, want)
    for got, want in zip(batch_grads, [p.grad for p in net.params()]):
        assert np.allclose(got, want)


@pytest.mark.parametrize("lattice", ALL_LATTICES)
def test_ground_states_match_empty_forward(lattice, rng):
    net = small_net(rng, lattice=lattice)
    grounds = net.ground_states()
    g = SparseGrid.empty(net.input_shape(), np.zeros(net.spec.n_input))
    logits, _, _ = net.forward_batch([g])
    assert np.allclose(logits[0], grounds[-1])


# a pool network on every lattice and an FMP network
NETS = [
    *[(lattice, "4C2-MP3/2-6C2-output", None) for lattice in ALL_LATTICES],
    (LatticeKind.CUBIC, "6C2-FMP-8C2-FMP-output", 6),
]


@pytest.mark.parametrize("lattice, arch, field", NETS)
def test_blocks_tape_and_grounds_are_one_per_spec_layer(lattice, arch, field, rng):
    spec = plan(parse(arch, lattice, 1), input_size=field)
    net = Network(spec, 3, rng)
    _, tape, _ = net.forward_batch(inputs_for(net, rng, 2), keep_tape=True)
    assert len(net.blocks) == len(tape) == len(net.ground_states()) == len(spec.layers)


def test_conv_plans_keep_each_samples_rectifier_mask(rng):
    net = small_net(rng)
    grids = [*inputs_for(net, rng, 3), SparseGrid.empty(net.input_shape(), np.zeros(1))]
    _, tape, _ = net.forward_batch(grids, keep_tape=True)
    convs = [e[2] for e in tape if e[0] == "conv"]
    assert len(convs) == 2
    for b, g in enumerate(grids):
        _, own, _ = net.forward_batch([g], keep_tape=True)
        for got, want in zip(tape, own):
            if got[0] == "conv":
                assert got[2][b].mask.dtype == bool
                assert np.array_equal(got[2][b].mask, want[2].mask)
    # the masks pass some components and stop others
    masks = np.concatenate([p.mask.ravel() for p in convs])
    assert masks.any() and not masks.all()
    # the classifier head does not rectify
    assert tape[-1][0] == "classifier"
    assert tape[-1][2].mask is None and tape[-1][2][0].mask is None


@pytest.mark.parametrize("lattice, arch, field", NETS)
@pytest.mark.parametrize("training", [False, True])
def test_forward_macs_equal_count_ops_of_the_tape(lattice, arch, field, training, rng):
    spec = plan(parse(arch, lattice, 1), input_size=field)
    net = Network(spec, 3, rng)
    grids = inputs_for(net, rng, 3)
    train_rng = np.random.default_rng(4) if training else None
    _, tape, macs = net.forward_batch(grids, train_rng=train_rng, keep_tape=True)
    # one entry per block; FMP entries are headed "pool"
    assert [e[0] for e in tape] == [{"fmp": "pool"}.get(b.kind, b.kind) for b in net.blocks]
    activity = [e[-1].a_out for e in tape]
    assert len(activity) == len(spec.layers)
    assert macs > 0
    assert macs == count_ops(spec, activity, net.classes)["total_macs"]


def test_forward_batch_rejects_grids_off_the_planned_field(rng):
    net = small_net(rng, LatticeKind.CUBIC, "8C2-MP3/2-8C2-output")
    assert net.input_shape() == GridShape(LatticeKind.CUBIC, 6)
    logits, _, _ = net.forward_batch(inputs_for(net, rng, 2))
    assert logits.shape == (2, net.classes)
    counters = str(net.rule_cache)
    for lattice, m in ((LatticeKind.CUBIC, 8), (LatticeKind.CUBIC, 4), (TET, 6)):
        grids = [random_sparse(lattice, m, 1, 0.4, rng) for _ in range(2)]
        with pytest.raises(ValueError, match=f"network input is cubic field 6, "
                                             f"grids are {lattice.value} field {m}"):
            net.forward_batch(grids)
        with pytest.raises(ValueError, match="network input is cubic field 6"):
            net.forward_batch(grids, train_rng=rng, keep_tape=True)
    assert str(net.rule_cache) == counters


def test_empty_input_stays_empty_through_network(rng):
    net = small_net(rng)
    g = SparseGrid.empty(net.input_shape(), np.zeros(1))
    # walk the blocks manually and check activity stays zero
    from latticenet.ops import conv_forward, pool_forward, relu_forward
    state = g
    for block in net.blocks:
        if block.kind == "conv" or block.kind == "classifier":
            state = conv_forward(state, block.layer)
            if block.kind == "conv":  # a conv block rectifies its output
                assert state.a == 0
                state = relu_forward(state)
        elif block.kind == "pool":
            state = pool_forward(state, block.layer)
        assert state.a == 0


def test_checkpoint_round_trip(tmp_path, rng):
    net = small_net(rng, dtype=np.float32)
    grids = inputs_for(net, rng, 3)
    before, _, _ = net.forward_batch(grids)
    p = tmp_path / "net.lnck"
    net.save(p)
    back = Network.load(p)
    after, _, _ = back.forward_batch(grids)
    assert np.allclose(before, after, atol=1e-6)
    assert p.read_bytes()[:4] == b"LNCK"


@pytest.mark.parametrize("lattice, arch, field, fmp_seed", [
    (TET, "4C2-MP3/2-6C2-output", None, 0),
    (LatticeKind.CUBIC, "6C2-FMP-8C2-FMP-output", 6, 918_273_645),
])
def test_checkpoint_load_is_bit_exact(lattice, arch, field, fmp_seed, tmp_path):
    from latticenet.ingest import knot_dataset
    net = Network(plan(parse(arch, lattice, 1), input_size=field), 3,
                  np.random.default_rng(0), fmp_eval_seed=fmp_seed)
    data = knot_dataset(net.input_shape().m, 8, np.random.default_rng(5), lattice=lattice)
    # two epochs with momentum, so the saved network's velocities are nonzero
    fit(net, data, [], TrainConfig(epochs=2, batch_size=4, lr=0.05, weight_decay=1e-3, seed=2))
    p = tmp_path / "net.lnck"
    net.save(p)
    back = Network.load(p)
    assert len(back.params()) == len(net.params())
    for ours, theirs in zip(back.params(), net.params()):
        assert ours.values.dtype == np.float32
        assert np.array_equal(ours.values, theirs.values)
        # a loaded network starts with no gradient and no momentum
        assert np.array_equal(ours.grad, np.zeros_like(theirs.values))
        assert np.array_equal(ours.velocity, np.zeros_like(theirs.values))
    assert [b.layer.seed for b in back.blocks if b.kind == "fmp"] == [fmp_seed] * arch.count("FMP")
    grids = [s.grid for s in data]
    assert np.array_equal(back.forward_batch(grids)[0], net.forward_batch(grids)[0])
    again = tmp_path / "again.lnck"
    back.save(again)
    assert again.read_bytes() == p.read_bytes()


@pytest.mark.parametrize("lattice, arch, field, digest", [
    (TET, "32C2-MP3/2-64C2-MP3/2-96C2-output", None,
     "9d924300fa309417464e0cbfc7eebb2ab151790bdf4448bb898413b1a3163b8e"),
    (LatticeKind.CUBIC, "6C2-FMP-8C2-FMP-output", 6,
     "7e333186e2df0b45b964eb5ef7c35c710ee4b4e1121f5f89d18768f79977278e"),
], ids=["tetrahedral-mp", "cubic-fmp"])
def test_checkpoint_bytes_are_pinned(lattice, arch, field, digest, tmp_path):
    """The checkpoint format, byte for byte: every header (the pool's
    ``p, s``, the FMP ratio and seed) and the parameters' layout.  Zero
    weights make the bytes independent of the generator and of BLAS."""
    net = Network(plan(parse(arch, lattice, 1), input_size=field), 3,
                  np.random.default_rng(0), fmp_eval_seed=918_273_645)
    for p in net.params():
        p.values[...] = 0
    path = tmp_path / "net.lnck"
    net.save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_checkpoint_load_draws_no_weights(tmp_path, rng, monkeypatch):
    """``Network.load`` makes no generator and leaves numpy's global one
    alone, and the network it returns equals the saved one; a network built
    with ``rng=None`` holds zero parameters."""
    net = small_net(rng, dtype=np.float32)
    p = tmp_path / "net.lnck"
    net.save(p)

    def no_generator(*args, **kwargs):
        raise AssertionError("Network.load made a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    before = np.random.get_state()
    back = Network.load(p)
    after = np.random.get_state()
    assert np.array_equal(after[1], before[1]) and after[2:] == before[2:]
    assert (back.spec, back.classes, back.dtype) == (net.spec, net.classes, np.float32)
    for ours, theirs in zip(back.params(), net.params(), strict=True):
        assert np.array_equal(ours.values, theirs.values)
    back.save(tmp_path / "again.lnck")
    assert (tmp_path / "again.lnck").read_bytes() == p.read_bytes()
    zero = Network(net.spec, net.classes, None)
    assert all(p.values.dtype == np.float32 and not p.values.any() for p in zero.params())


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "junk.lnck"
    p.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(ValueError):
        Network.load(p)


def test_fmp_network_trains_and_checkpoints(tmp_path, rng):
    from latticenet.ingest import knot_dataset
    spec = plan(parse("6C2-FMP-8C2-FMP-output", LatticeKind.CUBIC, 1), input_size=6)
    assert spec.planned_sizes == (6, 5, 3, 2, 1)
    net = Network(spec, 3, np.random.default_rng(0))
    data = knot_dataset(6, 8, np.random.default_rng(5), lattice=LatticeKind.CUBIC)
    logs = fit(net, data, data, TrainConfig(epochs=2, batch_size=8, lr=0.02, seed=1))
    assert len(logs) == 2 and np.isfinite(logs[-1].train_loss)
    p = tmp_path / "fmp.lnck"
    net.save(p)
    back = Network.load(p)
    a, _, _ = net.forward_batch([data[0].grid])
    b, _, _ = back.forward_batch([data[0].grid])
    assert np.allclose(a, b, atol=1e-6)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_fmp_eval_seed_outside_the_u64_range_is_refused_at_construction(seed):
    """A checkpoint stores the FMP eval seed as a u64, so the network
    refuses any other when it is built, not at its first held-out pass."""
    spec = plan(parse("6C2-FMP-8C2-FMP-output", LatticeKind.CUBIC, 1), input_size=6)
    with pytest.raises(ValueError, match=rf"fmp_eval_seed must be in \[0, 2\*\*64\), got {seed}"):
        Network(spec, 3, np.random.default_rng(0), fmp_eval_seed=seed)
    net = Network(spec, 3, np.random.default_rng(0), fmp_eval_seed=2**64 - 1)
    assert [b.layer.seed for b in net.blocks if b.kind == "fmp"] == [2**64 - 1] * 2


def test_fit_reduces_loss_and_logs(rng):
    net = small_net(rng, dtype=np.float32)
    shape = net.input_shape()
    from latticenet.ingest import knot_dataset
    data = knot_dataset(shape.m, 12, rng, lattice=shape.lattice)
    cfg = TrainConfig(epochs=3, batch_size=8, lr=0.05, seed=5)
    logs = fit(net, data, data[:9], cfg)
    assert len(logs) == 3
    assert logs[-1].train_loss < logs[0].train_loss * 1.5
    for log in logs:
        row = log.row()
        assert len(row.split("\t")) == 4


@pytest.mark.parametrize("field, value", [("batch_size", 0), ("batch_size", -1), ("epochs", -2)])
def test_train_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=f"{field} must be at least"):
        TrainConfig(**{field: value})
    assert TrainConfig(epochs=0, batch_size=1).epochs == 0


def test_training_determinism_across_threads(rng):
    results = []
    for threads in (1, 3):
        net = small_net(np.random.default_rng(11), dtype=np.float32)
        data = []
        gen = np.random.default_rng(77)
        from latticenet.ingest import knot_dataset
        data = knot_dataset(net.input_shape().m, 6, gen, lattice=TET)
        cfg = TrainConfig(epochs=2, batch_size=6, lr=0.05, seed=3, threads=threads)
        logs = fit(net, data, data, cfg)
        results.append((
            [l.row() for l in logs],
            [p.values.copy() for p in net.params()],
        ))
    assert results[0][0] == results[1][0]
    for a, b in zip(results[0][1], results[1][1]):
        assert np.array_equal(a, b)


def test_evaluate_confusion_and_accuracy(rng):
    net = small_net(rng, dtype=np.float32)
    data = inputs_for(net, rng, 6)
    samples = [LabeledSample(g, i % 3) for i, g in enumerate(data)]
    rep = evaluate(net, samples)
    assert rep.confusion.sum() == 6
    recomputed = float((rep.outputs.argmax(axis=1) == rep.labels).mean())
    assert recomputed == rep.accuracy


@pytest.mark.parametrize("label", [3, 200, -1])
def test_evaluate_rejects_labels_outside_the_classes(rng, label):
    net = small_net(rng, dtype=np.float32)
    samples = [LabeledSample(g, lab) for g, lab in zip(inputs_for(net, rng, 3), (0, label, 2))]
    with pytest.raises(ValueError, match=f"sample 1 has label {label}"):
        evaluate(net, samples)


@pytest.mark.parametrize("kw", [{"repeats": 0}, {"repeats": -3}])
def test_evaluate_rejects_counts_below_one(rng, kw):
    net = small_net(rng, dtype=np.float32)
    samples = [LabeledSample(g, 0) for g in inputs_for(net, rng, 2)]
    with pytest.raises(ValueError, match=f"{next(iter(kw))} must be at least 1"):
        evaluate(net, samples, **kw)


def test_nfold_identity_augment_is_bit_exact(rng):
    """Zero-magnitude augmentation: 12-fold equals 1-fold bit for bit."""
    net = small_net(rng, dtype=np.float32)
    data = inputs_for(net, rng, 5)
    samples = [LabeledSample(g, i % 3) for i, g in enumerate(data)]
    params = AffineParams()
    aug = (lambda g, r: augment_grid(g, params, r))
    one = evaluate(net, samples, repeats=1, augment=aug, rng=np.random.default_rng(0))
    twelve = evaluate(net, samples, repeats=12, augment=aug, rng=np.random.default_rng(0))
    assert np.array_equal(one.outputs, twelve.outputs)
    assert one.accuracy == twelve.accuracy


def test_nfold_with_real_augmentation_differs(rng):
    net = small_net(rng, dtype=np.float32)
    g = random_sparse(TET, net.input_shape().m, 1, 0.3, rng)
    samples = [LabeledSample(g, 0)]
    params = AffineParams(rotate_deg=20.0, translate=1.0)
    aug = (lambda gr, r: augment_grid(gr, params, r))
    one = evaluate(net, samples, repeats=1, augment=aug, rng=np.random.default_rng(1))
    many = evaluate(net, samples, repeats=8, augment=aug, rng=np.random.default_rng(1))
    assert not np.array_equal(one.outputs, many.outputs)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -1.0])
@pytest.mark.parametrize("name", ["rotate_deg", "scale", "shear", "translate"])
def test_affine_params_refuse_a_non_finite_or_negative_magnitude(name, value):
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be finite and at least 0, got {value}")):
        AffineParams(**{name: value})


def test_affine_params_accept_zero_and_positive_magnitudes():
    assert AffineParams(0.0, 0.0, 0.0, 0.0).is_identity
    params = AffineParams(rotate_deg=8.0, scale=0.1, shear=0.1, translate=2.0)
    assert not params.is_identity


def test_augment_identity_returns_same_grid(rng):
    g = random_sparse(LatticeKind.CUBIC, 8, 2, 0.3, rng)
    out = augment_grid(g, AffineParams(), rng)
    assert out is g


def test_augment_drops_out_of_field_sites(rng):
    g = random_sparse(LatticeKind.CUBIC, 8, 1, 0.8, rng)
    out = augment_grid(g, AffineParams(translate=3.0), np.random.default_rng(2))
    out.check_invariants()
    assert out.a <= g.a


def test_augment_preserves_count_under_small_translation(rng):
    shape = GridShape(LatticeKind.CUBIC, 16)
    sites = [[7, 7, 7], [8, 8, 8], [7, 8, 7]]
    g = SparseGrid.from_sites(shape, sites, np.ones((3, 1)), np.zeros(1))
    out = augment_grid(g, AffineParams(translate=1.5), np.random.default_rng(3))
    assert out.a == 3


@pytest.mark.parametrize("lattice, m, centre, cubic", [
    (LatticeKind.TETRAHEDRAL, 13, (3, 3, 3), LatticeKind.CUBIC),
    (LatticeKind.TRIANGULAR, 13, (4, 4), LatticeKind.SQUARE),
])
def test_augment_fixes_the_centre_where_samples_are_centred(lattice, m, centre, cubic):
    """A simplex field's centre is its centroid, ``(m - 1) / (d + 1)`` in
    every coordinate, where the command line centres a sample; a lone
    site there stays put under every rotation and scale, as one at
    ``(m - 1) / 2`` does on the square or cubic field of that size."""
    params = AffineParams(rotate_deg=30.0, scale=0.2)
    for shape, site in ((GridShape(lattice, m), centre),
                        (GridShape(cubic, m), ((m - 1) // 2,) * len(centre))):
        g = SparseGrid.from_sites(shape, [site], np.ones((1, 1)), np.zeros(1))
        rng = np.random.default_rng(5)
        for draw in range(20):
            out = augment_grid(g, params, rng)
            assert np.array_equal(out.keys, g.keys), (shape, draw)


def test_empty_grid_keeps_a_float32_batch_float32(rng):
    net = small_net(rng, dtype=np.float32)
    shape = net.input_shape()
    grid = random_sparse(shape.lattice, shape.m, 1, 0.3, rng)
    grid = SparseGrid(shape, grid.keys, grid.rows.astype(np.float32),
                      grid.ground.astype(np.float32))
    empty = SparseGrid.empty(shape, np.zeros(1, np.float32))
    logits, _, _ = net.forward_batch([grid, empty])
    alone, _, _ = net.forward_batch([grid])
    assert logits.dtype == np.float32
    assert np.allclose(logits[0], alone[0], rtol=1e-5, atol=1e-6)
    assert np.allclose(logits[1], net.ground_states()[-1], rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("arch", ["4C2-MP3/2-6C2-output", "MP2-4C2-MP3/2-output"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_without_input_grad_keeps_param_grads(arch, dtype, rng):
    """Skipping the input gradient leaves dW and dB bit-identical."""
    from latticenet.autograd import softmax_nll
    net = small_net(rng, arch=arch, dtype=dtype)
    grids = inputs_for(net, rng, 4)
    grids.append(SparseGrid.empty(net.input_shape(), np.zeros(1)))
    logits, tape, _ = net.forward_batch(grids, keep_tape=True)
    d_logits = np.stack([softmax_nll(l, i % 3)[1] for i, l in enumerate(logits)]).astype(dtype)
    grads = []
    for input_grad in (True, False):
        for p in net.params():
            p.grad[...] = 0.0
        d_in = net.backward_batch(tape, d_logits, input_grad=input_grad)
        assert (d_in is None) != input_grad
        grads.append([p.grad.copy() for p in net.params()])
    for got, want in zip(*grads):
        assert np.array_equal(got, want)


def test_batch_loss_and_grads_matches_backward_with_input_grad(rng):
    from latticenet.autograd import softmax_nll
    net = small_net(rng)
    samples = [LabeledSample(g, i % 3) for i, g in enumerate(inputs_for(net, rng, 3))]
    batch_loss_and_grads(net, samples)
    got = [p.grad.copy() for p in net.params()]
    for p in net.params():
        p.grad[...] = 0.0
    logits, tape, _ = net.forward_batch([s.grid for s in samples], keep_tape=True)
    d = np.stack([softmax_nll(l, s.label)[1] / len(samples) for l, s in zip(logits, samples)])
    net.backward_batch(tape, d)
    for a, b in zip(got, [p.grad for p in net.params()]):
        assert np.array_equal(a, b)
