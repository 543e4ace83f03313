"""The per-sample rulebook cache against the batched rulebook it replaces.

A network that takes a batch's rules from its cache must give exactly what
a network that runs the rulebook gives: the same logits, tapes and
gradients, bit for bit.  The cache admits a key set on its second sighting,
holds its bytes under ``rulecache.CACHE_BYTES`` by evicting the least
recently used entry, and keys eval chains by the FMP seeds.
"""

import numpy as np
import pytest

from latticenet import rulecache
from latticenet.autograd import softmax_nll
from latticenet.geometry import LatticeKind
from latticenet.grid import LabeledSample, SparseGrid
from latticenet.ingest import knot_dataset
from latticenet.netspec import parse, plan
from latticenet.network import Network
from latticenet.train import TrainConfig, evaluate, fit

from conftest import ALL_LATTICES, GROWING_ARCH, random_sparse, thin_grids
from oracles import plan_Q

CUBIC = LatticeKind.CUBIC
FMP_ARCH, FMP_FIELD = "4C2-FMP-5C2-FMP-5C2-FMP-output", 12


def make_net(lattice, arch="4C2-MP3/2-6C2-output", dtype=np.float64, field=None, seed=5):
    spec = plan(parse(arch, lattice, 2), input_size=field)
    return Network(spec, 3, np.random.default_rng(seed), dtype=dtype)


def grids_for(net, rng, sparsities, dtype=np.float64):
    shape = net.input_shape()
    return [_cast(random_sparse(shape.lattice, shape.m, 2, p, rng, ground=rng.normal(size=2)),
                  dtype) for p in sparsities]


def _cast(g, dtype):
    return SparseGrid(g.shape, g.keys, g.rows.astype(dtype), g.ground.astype(dtype))


def warm(net, grids, **kw):
    """Run ``grids`` twice, so that the cache holds every sample's chain."""
    for _ in range(2):
        net.forward_batch(grids, **kw)


def tape_arrays(tape):
    """Every array of a tape: gather and pool plans (a convolution's ``Q``
    regathered where the plan keeps the layer's input), relu masks."""
    out = []
    for entry in tape:
        if entry[0] == "relu":
            out.append(entry[1])
            continue
        plan = entry[-1]
        out += [plan.out_keys, plan.src, plan.in_start, plan.out_start]
        out.append(plan.argmax if entry[0] == "pool" else plan_Q(plan))
    return out


def forward_backward(net, grids, **kw):
    logits, tape, macs = net.forward_batch(grids, keep_tape=True, **kw)
    d_logits = np.stack([softmax_nll(l, i % net.classes)[1] for i, l in enumerate(logits)])
    for p in net.params():
        p.grad[...] = 0.0
    d_in = net.backward_batch(tape, d_logits.astype(logits.dtype))
    return logits, tape, macs, [p.grad.copy() for p in net.params()], d_in


def assert_same_run(got, want):
    """Logits, MACs, gradients, input gradients and tapes are bit-equal."""
    (la, ta, ma, ga, da), (lb, tb, mb, gb, db) = got, want
    assert ma == mb
    xs, ys = [la, *ga, *da, *tape_arrays(ta)], [lb, *gb, *db, *tape_arrays(tb)]
    assert len(xs) == len(ys)
    for x, y in zip(xs, ys):
        assert x.dtype == y.dtype
        assert np.array_equal(x, y)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lattice", ALL_LATTICES)
def test_hit_equals_miss(lattice, dtype, rng):
    cached, fresh = make_net(lattice, dtype=dtype), make_net(lattice, dtype=dtype)
    grids = grids_for(cached, rng, (0.3, 0.1, 0.6, 0.0, 1.0), dtype)
    warm(cached, grids)
    hits = cached.rule_cache.hits
    got = forward_backward(cached, grids)
    assert cached.rule_cache.hits == hits + len(grids)
    want = forward_backward(fresh, grids)
    assert fresh.rule_cache.hits == 0
    assert_same_run(got, want)


def test_hit_equals_miss_in_the_input_frame(rng):
    cached, fresh = make_net(CUBIC, GROWING_ARCH), make_net(CUBIC, GROWING_ARCH)
    grids = thin_grids(cached.input_shape(), 2, rng)
    warm(cached, grids)
    got = forward_backward(cached, grids)
    assert any(e[0] == "conv" and e[2].Q is None for e in got[1])
    assert_same_run(got, forward_backward(fresh, grids))


@pytest.mark.parametrize("lattice", ALL_LATTICES)
def test_mixed_permuted_and_empty_batches(lattice, rng):
    cached, fresh = make_net(lattice), make_net(lattice)
    grids = grids_for(cached, rng, (0.3, 0.0, 0.5, 0.2))
    grids.append(SparseGrid.empty(cached.input_shape(), np.ones(2)))
    new = grids_for(cached, rng, (0.4,))[0]
    warm(cached, grids)
    batches = [
        [grids[2], new, grids[0], grids[4], grids[1]],  # cached and new samples
        [grids[3], grids[2], grids[0], grids[4], grids[1]],  # all cached, permuted
        [grids[4], grids[1]],  # empty grids only
        [grids[4], grids[4], grids[3]],  # a sample twice
    ]
    for batch in batches:
        assert_same_run(forward_backward(cached, batch), forward_backward(fresh, batch))
    assert cached.rule_cache.hits >= len(batches[1]) + len(batches[2]) + len(batches[3])


def test_empty_input_chain_is_assembled(rng):
    net = make_net(CUBIC)
    empty = SparseGrid.empty(net.input_shape(), np.zeros(2))
    warm(net, [empty, empty])
    logits, tape, _ = net.forward_batch([empty], keep_tape=True)
    assert net.rule_cache.hits == 3  # the second warm-up pass hits its own admission
    assert all(e[-1].out_keys.size == 0 for e in tape if e[0] != "relu")
    assert np.array_equal(logits, make_net(CUBIC).forward_batch([empty])[0])


def test_fmp_training_hit_equals_miss(rng):
    cached = make_net(CUBIC, FMP_ARCH, field=FMP_FIELD)
    fresh = make_net(CUBIC, FMP_ARCH, field=FMP_FIELD)
    grids = grids_for(cached, rng, (0.4, 0.2, 0.7))
    warm(cached, grids, train_rng=np.random.default_rng(1))
    got = forward_backward(cached, grids, train_rng=np.random.default_rng(2))
    assert cached.rule_cache.hits == len(grids)
    want = forward_backward(fresh, grids, train_rng=np.random.default_rng(2))
    assert_same_run(got, want)


def test_fmp_train_then_eval_matches_fresh_eval(rng):
    net = make_net(CUBIC, FMP_ARCH, field=FMP_FIELD)
    grids = grids_for(net, rng, (0.4, 0.2, 0.7, 0.5))
    samples = [LabeledSample(g, i % 3) for i, g in enumerate(grids)]
    fit(net, samples, [], TrainConfig(epochs=3, batch_size=2, lr=0.01, seed=3))
    assert net.rule_cache.hits == len(samples)  # the third epoch's first FMP-free layer
    fresh = make_net(CUBIC, FMP_ARCH, field=FMP_FIELD)
    for p, q in zip(fresh.params(), net.params()):
        p.values[...] = q.values
    hits = net.rule_cache.hits
    got = evaluate(net, samples, repeats=3, batch_size=2)
    assert net.rule_cache.hits == hits + len(samples)  # only the third pass hits
    want = evaluate(fresh, samples, repeats=1, batch_size=2)
    assert np.array_equal(got.outputs, want.outputs)


def test_fmp_seed_change_after_cached_eval(rng):
    net = make_net(CUBIC, FMP_ARCH, field=FMP_FIELD)
    fresh = make_net(CUBIC, FMP_ARCH, field=FMP_FIELD)
    grids = grids_for(net, rng, (0.5, 0.3, 0.8))
    warm(net, grids)
    before = net.forward_batch(grids)[0]
    for b in net.blocks + fresh.blocks:
        if b.kind == "fmp":
            b.layer.seed += 17
    hits = net.rule_cache.hits
    got = forward_backward(net, grids)
    assert net.rule_cache.hits == hits  # a new seed is a new key
    assert_same_run(got, forward_backward(fresh, grids))
    assert not np.array_equal(got[0], before)


def test_one_off_key_sets_store_no_chain(rng):
    net = make_net(CUBIC)
    grids = grids_for(net, rng, (0.3, 0.5, 0.2))
    net.forward_batch(grids)
    cache = net.rule_cache
    assert (cache.hits, cache.misses, cache.admitted) == (0, 3, 0)
    assert cache.nbytes == 3 * rulecache._PLACEHOLDER_BYTES

    def jitter(grid, r):  # a new key set on every pass
        keep = r.random(grid.a) < 0.7
        return SparseGrid(grid.shape, grid.keys[keep], grid.rows[keep], grid.ground)

    samples = [LabeledSample(g, 0) for g in grids]
    evaluate(net, samples, repeats=3, augment=jitter)
    assert cache.admitted == 0 and cache.hits == 0


def test_digest_collision_is_a_miss(rng, monkeypatch):
    monkeypatch.setattr(rulecache, "_digest", lambda data: bytes(16))
    net, fresh = make_net(CUBIC), make_net(CUBIC)
    a, b = grids_for(net, rng, (0.3, 0.5))
    warm(net, [a])
    for _ in range(3):
        assert_same_run(forward_backward(net, [b]), forward_backward(fresh, [b]))
    assert (net.rule_cache.hits, net.rule_cache.admitted) == (0, 1)
    net.forward_batch([a])
    assert net.rule_cache.hits == 1


def test_byte_bound_evicts_least_recently_used(rng, monkeypatch):
    probe = make_net(CUBIC)
    grids = grids_for(probe, rng, (0.3, 0.5, 0.4))
    sizes = []
    for g in grids:
        held = probe.rule_cache.nbytes
        warm(probe, [g])
        sizes.append(probe.rule_cache.nbytes - held)
    assert min(sizes) > rulecache._PLACEHOLDER_BYTES
    monkeypatch.setattr(rulecache, "CACHE_BYTES", sum(sizes) - 1)
    net = make_net(CUBIC)
    cache = net.rule_cache
    # training passes, which leave the eval memo and its bytes out
    train = {"train_rng": np.random.default_rng(0)}
    warm(net, [grids[0]], **train)
    warm(net, [grids[1]], **train)
    net.forward_batch([grids[0]], **train)  # grids[1] is now the least recently used
    assert cache.evicted == 0
    warm(net, [grids[2]], **train)
    assert (cache.admitted, cache.evicted) == (3, 1)
    assert cache.nbytes == sizes[0] + sizes[2] <= rulecache.CACHE_BYTES
    for g, hit in zip(grids, (True, False, True)):
        hits = cache.hits
        net.forward_batch([g], **train)
        assert cache.hits == hits + hit


def test_chain_larger_than_the_bound_is_not_admitted(rng, monkeypatch):
    net = make_net(CUBIC)
    small, large = grids_for(net, rng, (0.1, 0.9))
    warm(net, [small])
    held = net.rule_cache.nbytes
    monkeypatch.setattr(rulecache, "CACHE_BYTES", held + 2 * rulecache._PLACEHOLDER_BYTES)
    warm(net, [large])
    assert (net.rule_cache.admitted, net.rule_cache.evicted) == (1, 0)
    hits = net.rule_cache.hits
    net.forward_batch([small])
    assert net.rule_cache.hits == hits + 1


def test_zero_bound_holds_nothing(rng, monkeypatch):
    monkeypatch.setattr(rulecache, "CACHE_BYTES", 0)
    net, fresh = make_net(CUBIC), make_net(CUBIC)
    grids = grids_for(net, rng, (0.3, 0.5))
    for _ in range(3):
        got = forward_backward(net, grids)
    assert net.rule_cache.nbytes == 0 and net.rule_cache.hits == 0
    assert net.rule_cache.evicted == net.rule_cache.misses + net.rule_cache.admitted
    assert_same_run(got, forward_backward(fresh, grids))


def test_ground_states_unaffected(rng):
    net = make_net(LatticeKind.TRIANGULAR)
    want = net.ground_states()
    warm(net, grids_for(net, rng, (0.3, 0.6)))
    for a, b in zip(net.ground_states(), want):
        assert np.array_equal(a, b)


def test_knot_fit_hits_from_the_third_epoch(tmp_path):
    tet = LatticeKind.TETRAHEDRAL
    spec = plan(parse("8C2-MP3/2-8C2-MP3/2-8C2-output", tet, 1))
    samples = knot_dataset(spec.planned_sizes[0], 3, np.random.default_rng(2), lattice=tet)
    assert len({s.grid.keys.tobytes() for s in samples}) == len(samples)
    net = Network(spec, 3, np.random.default_rng(0), dtype=np.float32)
    fresh = Network(spec, 3, np.random.default_rng(0), dtype=np.float32)
    hits = []
    logs = fit(net, samples, [], TrainConfig(epochs=3, batch_size=4, seed=1),
               log_fn=lambda log: hits.append(net.rule_cache.hits))
    assert hits == [0, 0, len(samples)]
    assert net.rule_cache.admitted == len(samples)
    # the counters reach neither the epoch log nor the checkpoint
    fresh_logs = fit(fresh, samples, [], TrainConfig(epochs=3, batch_size=4, seed=1))
    assert [l.row() for l in logs] == [l.row() for l in fresh_logs]
    net.save(tmp_path / "cached.lnck")
    fresh.save(tmp_path / "fresh.lnck")
    assert (tmp_path / "cached.lnck").read_bytes() == (tmp_path / "fresh.lnck").read_bytes()
    assert Network.load(tmp_path / "cached.lnck").rule_cache.nbytes == 0


def test_hit_gives_each_sample_its_own_plans(rng):
    net = make_net(LatticeKind.SQUARE)
    grids = grids_for(net, rng, (0.3, 0.0, 0.6))
    warm(net, grids)
    _, batch_tape, _ = net.forward_batch(grids, keep_tape=True)
    assert net.rule_cache.hits == len(grids)
    for b, g in enumerate(grids):
        _, tape, _ = net.forward_batch([g], keep_tape=True)
        for got, want in zip(batch_tape, tape):
            if got[0] != "relu":
                assert np.array_equal(got[-1][b].out_keys, want[-1][0].out_keys)
                assert np.array_equal(got[-1][b].src, want[-1][0].src)


# ---------------------------------------------------------------------------
# the memo of the last eval batch that hit


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so that each call is counted; returns the count."""
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kw):
        calls[0] += 1
        return original(*args, **kw)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("arch, field", [("4C2-MP3/2-6C2-output", None), (FMP_ARCH, FMP_FIELD)])
def test_memo_serves_a_repeated_eval_batch(arch, field, rng, monkeypatch):
    net, fresh = make_net(CUBIC, arch, field=field), make_net(CUBIC, arch, field=field)
    grids = grids_for(net, rng, (0.3, 0.6, 0.0, 1.0))
    warm(net, grids)
    net.forward_batch(grids)  # the third pass assembles the rule and remembers it
    digests = count_calls(monkeypatch, rulecache, "_digest")
    assembles = count_calls(monkeypatch, rulecache, "_assemble")
    want = forward_backward(fresh, grids)
    assert (digests[0], assembles[0]) == (len(grids), 0)  # a rulebook pass, no hit
    digests[0] = 0
    for _ in range(2):
        hits = net.rule_cache.hits
        got = forward_backward(net, grids)
        assert (digests[0], assembles[0]) == (0, 0)
        assert net.rule_cache.hits == hits + len(grids)
        assert_same_run(got, want)


def test_memo_does_not_serve_another_batch(rng, monkeypatch):
    net = make_net(CUBIC, FMP_ARCH, field=FMP_FIELD)
    fresh = make_net(CUBIC, FMP_ARCH, field=FMP_FIELD)
    grids = grids_for(net, rng, (0.3, 0.6, 0.5))
    for _ in range(3):
        net.forward_batch(grids)
    memo = net.rule_cache._memo
    digests = count_calls(monkeypatch, rulecache, "_digest")
    g = grids[1]
    changed = SparseGrid(g.shape, g.keys[1:], g.rows[1:], g.ground)  # one key fewer
    for batch, hits in (([grids[2], grids[0], grids[1]], 3), ([grids[0], changed, grids[2]], 2)):
        want = forward_backward(fresh, batch)
        before, digests[0] = net.rule_cache.hits, 0
        assert_same_run(forward_backward(net, batch), want)
        assert digests[0] == len(batch)
        assert net.rule_cache.hits == before + hits
    assert net.rule_cache._memo is not memo  # the permuted batch hit and replaced it
    for b in net.blocks + fresh.blocks:
        if b.kind == "fmp":
            b.layer.seed += 1
    want = forward_backward(fresh, grids)
    before, digests[0] = net.rule_cache.hits, 0
    assert_same_run(forward_backward(net, grids), want)
    assert (digests[0], net.rule_cache.hits) == (len(grids), before)


def test_training_neither_reads_nor_replaces_the_memo(rng, monkeypatch):
    net, fresh = make_net(CUBIC), make_net(CUBIC)
    grids = grids_for(net, rng, (0.3, 0.6, 0.5))
    for _ in range(3):
        net.forward_batch(grids)
    memo, held = net.rule_cache._memo, net.rule_cache.nbytes
    digests = count_calls(monkeypatch, rulecache, "_digest")
    for batch in (grids, grids[::-1]):  # the memo's batch, then another that hits
        want = forward_backward(fresh, batch, train_rng=np.random.default_rng(4))
        digests[0] = 0
        assert_same_run(forward_backward(net, batch, train_rng=np.random.default_rng(4)), want)
        assert digests[0] == len(batch)
        assert net.rule_cache._memo is memo and net.rule_cache.nbytes == held
    want = fresh.forward_batch(grids)[0]
    digests[0] = 0
    assert np.array_equal(net.forward_batch(grids)[0], want)
    assert digests[0] == 0


def test_memo_arrays_are_read_only_and_counted(rng):
    net = make_net(CUBIC)
    grids = grids_for(net, rng, (0.3, 0.6))
    warm(net, grids)
    held = net.rule_cache.nbytes
    net.forward_batch(grids)
    context, start, keys, rules, size = net.rule_cache._memo
    assert net.rule_cache.nbytes == held + size
    assert size > len(context) + len(start) + len(keys) + sum(a.nbytes for r in rules for a in r)
    for rule in rules:
        for a in rule:
            with pytest.raises(ValueError):
                a[...] = 0


def test_memo_larger_than_the_bound_is_not_held(rng, monkeypatch):
    net, fresh = make_net(CUBIC), make_net(CUBIC)
    grids = grids_for(net, rng, (0.3, 0.6))
    warm(net, grids)
    monkeypatch.setattr(rulecache, "CACHE_BYTES", net.rule_cache.nbytes)
    for _ in range(2):
        assert_same_run(forward_backward(net, grids), forward_backward(fresh, grids))
        assert net.rule_cache._memo is None
    assert net.rule_cache.hits == 2 * len(grids) and net.rule_cache.evicted == 0


def test_fmp_regions_are_built_only_on_a_miss(rng, monkeypatch):
    from latticenet import network

    net = make_net(CUBIC, FMP_ARCH, field=FMP_FIELD)
    fmp_blocks = sum(b.kind == "fmp" for b in net.blocks)
    grids = grids_for(net, rng, (0.4, 0.2))
    regions = count_calls(monkeypatch, network, "fmp_regions")
    for calls in (fmp_blocks, fmp_blocks, 0, 0):  # miss, admit, hit, memo hit
        regions[0] = 0
        net.forward_batch(grids)
        assert regions[0] == calls
    for _ in range(3):  # a training chain stops at the first FMP layer
        regions[0] = 0
        net.forward_batch(grids, train_rng=np.random.default_rng(0))
        assert regions[0] == fmp_blocks
