"""The rulebook cache against the batched rulebook it replaces.

A network that takes a batch's rules from its cache must give exactly what
a network that runs the rulebook gives: the same logits, tapes and
gradients, bit for bit.  The cache stores a training sample's own plans
at its first sighting and an eval batch's rules at its first, keeps the
two apart, keys eval entries by the FMP seeds, and holds what fits under
``rulecache.CACHE_BYTES`` and evicts nothing.
"""

import copy
import dataclasses
import struct
import weakref

import numpy as np
import pytest

from latticenet import ops, rulecache
from latticenet.autograd import softmax_nll
from latticenet.geometry import LatticeKind
from latticenet.grid import GridBatch, LabeledSample, SparseGrid
from latticenet.ingest import knot_dataset
from latticenet.netspec import parse, plan
from latticenet.network import Network
from latticenet.train import TrainConfig, evaluate, fit

from conftest import ALL_LATTICES, GROWING_ARCH, count_calls, random_sparse, thin_grids
from oracles import plan_Q

CUBIC = LatticeKind.CUBIC
FMP_ARCH, FMP_FIELD = "4C2-FMP-5C2-FMP-5C2-FMP-output", 12


def make_net(lattice, arch="4C2-MP3/2-6C2-output", dtype=np.float64, field=None, seed=5):
    spec = plan(parse(arch, lattice, 2), input_size=field)
    return Network(spec, 3, np.random.default_rng(seed), dtype=dtype)


def grids_for(net, rng, sparsities, dtype=np.float64):
    """One grid per sparsity, all on one random ground."""
    shape, ground = net.input_shape(), rng.normal(size=2)
    return [_cast(random_sparse(shape.lattice, shape.m, 2, p, rng, ground=ground), dtype)
            for p in sparsities]


def _cast(g, dtype):
    return SparseGrid(g.shape, g.keys, g.rows.astype(dtype), g.ground.astype(dtype))


def warm(net, grids, **kw):
    """Run ``grids`` through one pass, which stores their cache entries:
    every sample's plans in training, the batch's rules in eval."""
    net.forward_batch(grids, **kw)


def kind_entries(cache, kind):
    """The entries of ``cache`` whose keys lead with ``kind``, the kind
    byte of a training or an eval key."""
    return {key: plans for key, plans in cache._entries.items() if key[:1] == kind}


def training():
    """The keywords of a training pass; a network without FMP layers draws
    nothing from the generator."""
    return {"train_rng": np.random.default_rng(0)}


def tape_arrays(tape):
    """Every array of a tape: gather and pool plans (a convolution's ``Q``
    regathered where the plan keeps the layer's input) and each conv plan's
    rectifier mask."""
    out = []
    for entry in tape:
        plan = entry[-1]
        out += [plan.out_keys, plan.src, plan.in_start, plan.out_start]
        out.append(plan.argmax if entry[0] == "pool" else plan_Q(plan))
        if entry[0] == "conv":
            out.append(plan.mask)
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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lattice", ALL_LATTICES)
def test_assembled_hit_equals_miss(lattice, dtype, rng):
    cached, fresh = make_net(lattice, dtype=dtype), make_net(lattice, dtype=dtype)
    grids = grids_for(cached, rng, (0.3, 0.1, 0.6, 0.0, 1.0), dtype)
    warm(cached, grids[::-1], **training())
    hits = cached.rule_cache.hits
    got = forward_backward(cached, grids, **training())  # another batch: joined
    assert cached.rule_cache.hits == hits + len(grids)
    assert_same_run(got, forward_backward(fresh, grids, **training()))


def test_hit_equals_miss_in_the_input_frame(rng):
    cached, fresh = make_net(CUBIC, GROWING_ARCH), make_net(CUBIC, GROWING_ARCH)
    grids = thin_grids(cached.input_shape(), 2, rng)
    warm(cached, grids, **training())
    got = forward_backward(cached, grids, **training())
    assert cached.rule_cache.hits == len(grids)
    assert any(e[0] == "conv" and e[2].Q is None for e in got[1])
    assert_same_run(got, forward_backward(fresh, grids, **training()))


@pytest.mark.parametrize("lattice", ALL_LATTICES)
def test_mixed_permuted_and_empty_batches(lattice, rng):
    cached, fresh = make_net(lattice), make_net(lattice)
    *grids, new = grids_for(cached, rng, (0.3, 0.0, 0.5, 0.2, 0.4))
    grids.append(SparseGrid.empty(cached.input_shape(), new.ground))
    warm(cached, grids, **training())
    batches = [
        [grids[2], new, grids[0], grids[4], grids[1]],  # cached and new samples
        [grids[3], grids[2], grids[0], grids[4], grids[1]],  # all cached, permuted
        [grids[4], grids[1]],  # empty grids only
        [grids[4], grids[4], grids[3]],  # a sample twice
    ]
    for batch in batches:
        assert_same_run(forward_backward(cached, batch, **training()),
                        forward_backward(fresh, batch, **training()))
    assert cached.rule_cache.hits >= len(batches[1]) + len(batches[2]) + len(batches[3])


def test_empty_input_chain_is_assembled(rng):
    net = make_net(CUBIC)
    empty = SparseGrid.empty(net.input_shape(), np.zeros(2))
    warm(net, [empty, empty], **training())
    logits, tape, _ = net.forward_batch([empty], keep_tape=True, **training())
    assert (net.rule_cache.hits, net.rule_cache.admitted) == (1, 1)  # one key set, one entry
    assert all(e[-1].out_keys.size == 0 for e in tape)
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


def test_fmp_train_then_eval_matches_fresh_eval(rng, monkeypatch):
    monkeypatch.setattr("latticenet.train.EVAL_BATCH", 2)
    net = make_net(CUBIC, FMP_ARCH, field=FMP_FIELD)
    grids = grids_for(net, rng, (0.4, 0.2, 0.7, 0.5))
    samples = [LabeledSample(g, i % 3) for i, g in enumerate(grids)]
    fit(net, samples, [], TrainConfig(epochs=3, batch_size=2, lr=0.01, seed=3))
    assert net.rule_cache.hits == 2 * len(samples)  # epochs 2-3, up to the first FMP layer
    fresh = make_net(CUBIC, FMP_ARCH, field=FMP_FIELD)
    for p, q in zip(fresh.params(), net.params()):
        p.values[...] = q.values
    hits, misses = net.rule_cache.hits, net.rule_cache.misses
    got = evaluate(net, samples, repeats=3)
    # an identity eval is one pass, and it reads no training entry: every
    # chunk misses and stores its entry
    assert (net.rule_cache.hits, net.rule_cache.misses) == (hits, misses + len(samples))
    again = evaluate(net, samples, repeats=3)
    assert net.rule_cache.hits == hits + len(samples)  # every chunk hits its entry
    want = evaluate(fresh, samples, repeats=1)
    assert np.array_equal(got.outputs, want.outputs)
    assert np.array_equal(again.outputs, want.outputs)


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


def jitter(grid, r):
    """Drop about 30% of ``grid``'s sites: a new key set on every pass."""
    keep = r.random(grid.a) < 0.7
    return SparseGrid(grid.shape, grid.keys[keep], grid.rows[keep], grid.ground)


def test_one_off_key_sets_store_no_chain(rng):
    net = make_net(CUBIC)
    grids = grids_for(net, rng, (0.3, 0.5, 0.2))
    cache = net.rule_cache
    r = np.random.default_rng(1)
    for k in range(1, 4):  # eval batches of key sets seen once
        net.forward_batch([jitter(g, r) for g in grids])
        assert (cache.hits, cache.misses, cache.admitted) == (0, 3 * k, k)
    # an entry per batch, none per sample
    assert len(kind_entries(cache, rulecache._EVAL)) == len(cache._entries) == 3


def test_augmented_evaluate_leaves_the_cache_alone(rng, monkeypatch):
    net = make_net(CUBIC)
    grids = grids_for(net, rng, (0.3, 0.5, 0.2))
    samples = [LabeledSample(g, 0) for g in grids]
    want = evaluate(net, samples)  # stores the batch's entry
    cache = net.rule_cache
    counters = (cache.hits, cache.misses, cache.admitted, cache.nbytes)
    rulebooks = count_calls(monkeypatch, ops, "conv_rulebook")
    # even an augmentation that leaves every grid as it is runs the rulebook
    got = evaluate(net, samples, repeats=3, augment=lambda grid, r: grid)
    assert rulebooks[0] == 3 * len(net.blocks)
    evaluate(net, samples, repeats=2, augment=jitter)
    assert rulebooks[0] == 5 * len(net.blocks)
    assert (cache.hits, cache.misses, cache.admitted, cache.nbytes) == counters
    assert np.array_equal(got.outputs, want.outputs)


def test_training_chains_and_eval_entries_never_meet(rng):
    net, fresh = make_net(CUBIC), make_net(CUBIC)
    shape = net.input_shape()
    sites = [[1, 0, 0], [1, 1, 1], [2, 2, 2]]
    one = SparseGrid.from_sites(shape, sites, rng.normal(size=(3, 2)), rng.normal(size=2))
    # a training sample whose keys are [0, a] followed by ``one``'s
    two = SparseGrid.from_sites(shape, [[0, 0, 0], [0, 0, len(sites)], *sites],
                                rng.normal(size=(5, 2)), rng.normal(size=2))
    eval_key = GridBatch.of([one]).start.tobytes() + one.keys.tobytes()
    assert two.keys.tobytes() == eval_key
    for first, second in (({}, training()), (training(), {})):
        net.rule_cache = rulecache.RuleCache()
        net.forward_batch([two] if first else [one], **first)
        assert net.rule_cache.admitted == 1
        batch = [two] if second else [one]
        assert_same_run(forward_backward(net, batch, **second),
                        forward_backward(fresh, batch, **second))
        assert (net.rule_cache.hits, net.rule_cache.admitted) == (0, 2)


def test_a_full_cache_refuses_a_chain_and_keeps_what_it_holds(rng, monkeypatch):
    # training passes, which store sample entries and no eval entry
    train = {"train_rng": np.random.default_rng(0)}
    probe = make_net(CUBIC)
    grids = grids_for(probe, rng, (0.3, 0.5, 0.4))
    sizes = []
    for g in grids:
        held = probe.rule_cache.nbytes
        warm(probe, [g], **train)
        sizes.append(probe.rule_cache.nbytes - held)
    assert min(sizes) > rulecache._ENTRY_BYTES
    # the bytes counted before an entry is cut are the bytes it holds
    entries = kind_entries(probe.rule_cache, rulecache._TRAIN)
    for (key, plans), size in zip(entries.items(), sizes, strict=True):
        arrays = sum(a.nbytes for p in plans for a in rule_arrays(p))
        assert size == len(key) + rulecache._ENTRY_BYTES + arrays
    monkeypatch.setattr(rulecache, "CACHE_BYTES", sum(sizes) - 1)
    net = make_net(CUBIC)
    cache = net.rule_cache
    warm(net, [grids[0]], **train)
    warm(net, [grids[1]], **train)
    net.forward_batch([grids[0]], **train)
    held = set(cache._entries)
    cuts = count_calls(monkeypatch, ops.Plan, "cut")
    warm(net, [grids[2]], **train)
    # the third entry does not fit, so it is neither cut nor stored, and nothing leaves
    assert (cache.admitted, cuts[0]) == (2, 0)
    assert set(cache._entries) == held
    assert cache.nbytes == sizes[0] + sizes[1] <= rulecache.CACHE_BYTES
    for g, hit in zip((grids[0], grids[1], grids[2]), (True, True, False)):
        hits = cache.hits
        net.forward_batch([g], **train)
        assert cache.hits == hits + hit
    # grids[2]'s miss is refused again
    assert (cache.admitted, cuts[0]) == (2, 0)
    assert set(cache._entries) == held and cache.nbytes == sizes[0] + sizes[1]


def test_chain_larger_than_the_bound_is_not_admitted(rng, monkeypatch):
    net = make_net(CUBIC)
    small, large = grids_for(net, rng, (0.1, 0.9))
    train = {"train_rng": np.random.default_rng(0)}  # sample entries, no eval entry
    warm(net, [small], **train)
    held = net.rule_cache.nbytes
    monkeypatch.setattr(rulecache, "CACHE_BYTES", held + rulecache._ENTRY_BYTES)
    warm(net, [large], **train)
    assert (net.rule_cache.admitted, net.rule_cache.nbytes) == (1, held)
    hits = net.rule_cache.hits
    net.forward_batch([small], **train)
    assert net.rule_cache.hits == hits + 1


def test_zero_bound_holds_nothing(rng, monkeypatch):
    monkeypatch.setattr(rulecache, "CACHE_BYTES", 0)
    net, fresh = make_net(CUBIC), make_net(CUBIC)
    grids = grids_for(net, rng, (0.3, 0.5))
    cuts = count_calls(monkeypatch, ops.Plan, "cut")
    for _ in range(3):
        got = forward_backward(net, grids)
    for _ in range(2):  # training offers every sample for admission at its first sighting
        got_train = forward_backward(net, grids, train_rng=np.random.default_rng(0))
    assert net.rule_cache.nbytes == 0 and net.rule_cache.hits == 0
    assert (net.rule_cache.admitted, cuts[0]) == (0, 0)  # an entry that cannot be held is not cut
    assert_same_run(got, forward_backward(fresh, grids))
    assert_same_run(got_train, forward_backward(fresh, grids, train_rng=np.random.default_rng(0)))


def test_ground_states_unaffected(rng):
    net = make_net(LatticeKind.TRIANGULAR)
    want = net.ground_states()
    warm(net, grids_for(net, rng, (0.3, 0.6)))
    for a, b in zip(net.ground_states(), want):
        assert np.array_equal(a, b)


def test_knot_fit_hits_from_the_second_epoch(tmp_path):
    tet = LatticeKind.TETRAHEDRAL
    spec = plan(parse("8C2-MP3/2-8C2-MP3/2-8C2-output", tet, 1))
    samples = knot_dataset(spec.planned_sizes[0], 3, np.random.default_rng(2), lattice=tet)
    assert len({s.grid.keys.tobytes() for s in samples}) == len(samples)
    net = Network(spec, 3, np.random.default_rng(0), dtype=np.float32)
    fresh = Network(spec, 3, np.random.default_rng(0), dtype=np.float32)
    hits = []
    logs = fit(net, samples, [], TrainConfig(epochs=3, batch_size=4, seed=1),
               log_fn=lambda log: hits.append(net.rule_cache.hits))
    assert hits == [0, len(samples), 2 * len(samples)]
    assert net.rule_cache.admitted == len(samples)
    # the counters reach neither the epoch log nor the checkpoint
    fresh_logs = fit(fresh, samples, [], TrainConfig(epochs=3, batch_size=4, seed=1))
    assert [l.row() for l in logs] == [l.row() for l in fresh_logs]
    net.save(tmp_path / "cached.lnck")
    fresh.save(tmp_path / "fresh.lnck")
    assert (tmp_path / "cached.lnck").read_bytes() == (tmp_path / "fresh.lnck").read_bytes()
    assert Network.load(tmp_path / "cached.lnck").rule_cache.nbytes == 0


def test_a_set_larger_than_the_bound_stops_admitting(tmp_path, monkeypatch):
    from latticenet import train

    tet = LatticeKind.TETRAHEDRAL
    spec = plan(parse("8C2-MP3/2-8C2-MP3/2-8C2-output", tet, 1))
    samples = knot_dataset(spec.planned_sizes[0], 40, np.random.default_rng(2), lattice=tet)
    cfg = TrainConfig(epochs=4, batch_size=16, seed=1)
    step, held, admitted = train.sgd_step, [], set()

    def run(name):
        """Fit a fresh network, noting the cache's bytes after every step."""
        net = Network(spec, 3, np.random.default_rng(0), dtype=np.float32)
        held.clear()
        monkeypatch.setattr(train, "sgd_step",
                            lambda *a: (step(*a), held.append(net.rule_cache.nbytes)))
        logs = fit(net, samples, [], cfg)
        net.save(tmp_path / f"{name}.lnck")
        return net.rule_cache, ([l.row() for l in logs], (tmp_path / f"{name}.lnck").read_bytes())

    cache, unbounded = run("unbounded")
    assert cache.admitted == len({s.grid.keys.tobytes() for s in samples})
    bound = cache.nbytes // 2
    monkeypatch.setattr(rulecache, "CACHE_BYTES", bound)
    store = rulecache.RuleCache.store

    def store_and_note(self, miss, plans):
        store(self, miss, plans)
        admitted.update(key for key in miss if key in self._entries)

    monkeypatch.setattr(rulecache.RuleCache, "store", store_and_note)
    cache, bounded = run("bounded")
    assert len(held) == cfg.epochs * -(-len(samples) // cfg.batch_size)
    assert max(held) <= bound
    # each entry is admitted once and never leaves
    assert 0 < cache.admitted == len(admitted) and admitted <= set(cache._entries)
    monkeypatch.setattr(rulecache, "CACHE_BYTES", 0)
    cache, zero = run("zero")
    assert (cache.admitted, cache.nbytes) == (0, 0)
    assert bounded == unbounded and zero == unbounded


def test_hit_gives_each_sample_its_own_plans(rng):
    net = make_net(LatticeKind.SQUARE)
    grids = grids_for(net, rng, (0.3, 0.0, 0.6))
    warm(net, grids, **training())
    hits = net.rule_cache.hits
    _, batch_tape, _ = net.forward_batch(grids, keep_tape=True, **training())
    assert net.rule_cache.hits == hits + len(grids)
    for b, g in enumerate(grids):
        _, tape, _ = net.forward_batch([g], keep_tape=True)  # eval: the rulebook runs
        for got, want in zip(batch_tape, tape):
            assert np.array_equal(got[-1][b].out_keys, want[-1][0].out_keys)
            assert np.array_equal(got[-1][b].src, want[-1][0].src)


# ---------------------------------------------------------------------------
# eval entries: each eval batch's own rules


def rulebook_calls(monkeypatch):
    """Count the calls of every rulebook, and of ``fmp_regions``, that the
    network's layers make."""
    return {name: count_calls(monkeypatch, ops, name)
            for name in ("conv_rulebook", "fmp_rulebook", "fmp_regions")}


@pytest.mark.parametrize("arch, field", [("4C2-MP3/2-6C2-output", None), (FMP_ARCH, FMP_FIELD)])
def test_an_eval_entry_serves_its_repeated_batch(arch, field, rng, monkeypatch):
    net, fresh = make_net(CUBIC, arch, field=field), make_net(CUBIC, arch, field=field)
    grids = grids_for(net, rng, (0.3, 0.6, 0.0, 1.0))
    want = forward_backward(fresh, grids)
    warm(net, grids)
    assert (net.rule_cache.misses, net.rule_cache.admitted) == (len(grids), 1)
    joins = count_calls(monkeypatch, ops.Plan, "join")
    calls = rulebook_calls(monkeypatch)
    for _ in range(2):
        hits = net.rule_cache.hits
        got = forward_backward(net, grids)
        assert net.rule_cache.hits == hits + len(grids)
        assert_same_run(got, want)
    # the batch's rules come back whole: no rulebook and no join
    assert joins[0] == 0 and all(c[0] == 0 for c in calls.values())


@pytest.mark.parametrize("arch, field", [("4C2-MP3/2-6C2-output", None), (FMP_ARCH, FMP_FIELD)])
def test_an_identity_evaluate_runs_each_chunk_once(arch, field, rng, monkeypatch):
    net = make_net(CUBIC, arch, field=field)
    grids = grids_for(net, rng, (0.3, 0.6, 0.0, 1.0, 0.5))
    samples = [LabeledSample(g, i % 3) for i, g in enumerate(grids)]
    monkeypatch.setattr("latticenet.train.EVAL_BATCH", 2)
    want = evaluate(make_net(CUBIC, arch, field=field), samples)
    passes = count_calls(monkeypatch, Network, "forward_batch")
    for repeats in (1, 2, 5):
        passes[0] = 0
        got = evaluate(net, samples, repeats=repeats)
        assert passes[0] == 3  # 5 samples in chunks of 2, each run once
        assert got.accuracy == want.accuracy
        assert np.array_equal(got.confusion, want.confusion)
        assert np.array_equal(got.outputs, want.outputs)


def test_an_eval_entry_serves_only_its_own_batch(rng):
    net = make_net(CUBIC, FMP_ARCH, field=FMP_FIELD)
    fresh = make_net(CUBIC, FMP_ARCH, field=FMP_FIELD)
    grids = grids_for(net, rng, (0.3, 0.6, 0.5))
    warm(net, grids)
    g = grids[1]
    changed = SparseGrid(g.shape, g.keys[1:], g.rows[1:], g.ground)  # one key fewer
    # the same samples permuted, then a changed sample: each another batch
    for k, batch in enumerate(([grids[2], grids[0], grids[1]], [grids[0], changed, grids[2]])):
        assert_same_run(forward_backward(net, batch), forward_backward(fresh, batch))
        assert net.rule_cache.admitted == k + 2
    for b in net.blocks + fresh.blocks:
        if b.kind == "fmp":
            b.layer.seed += 1
    assert_same_run(forward_backward(net, grids), forward_backward(fresh, grids))
    assert (net.rule_cache.hits, net.rule_cache.admitted) == (0, 4)  # new seeds, a new key


def test_training_neither_reads_nor_fills_eval_entries(rng, monkeypatch):
    net, fresh = make_net(CUBIC), make_net(CUBIC)
    grids = grids_for(net, rng, (0.3, 0.6, 0.5))
    warm(net, grids)
    cache = net.rule_cache
    entries = dict(cache._entries)
    # the entry's batch misses and admits its samples, which another batch hits
    for batch, hits in ((grids, 0), (grids[::-1], len(grids))):
        want = forward_backward(fresh, batch, **training())
        before = cache.hits
        assert_same_run(forward_backward(net, batch, **training()), want)
        assert cache.hits == before + hits
        assert kind_entries(cache, rulecache._EVAL).keys() == entries.keys()
        assert all(cache._entries[key] is rules for key, rules in entries.items())
    joins = count_calls(monkeypatch, ops.Plan, "join")
    hits = cache.hits
    assert np.array_equal(net.forward_batch(grids)[0], fresh.forward_batch(grids)[0])
    assert (cache.hits, joins[0]) == (hits + len(grids), 0)  # the batch's entry, not its samples


def test_eval_entries_are_read_only_and_counted(rng):
    net = make_net(CUBIC)
    grids = grids_for(net, rng, (0.3, 0.6))
    cache = net.rule_cache
    warm(net, grids, **training())
    samples = cache.nbytes
    batches = (grids, [grids[1]])
    for batch in batches:
        warm(net, batch)
    # an eval entry depends on the FMP seeds besides the keys
    seeds = [b.layer.seed for b in net.blocks if b.kind == "fmp"]
    context = struct.pack(f"<{len(seeds)}Q", *seeds)
    sizes = 0
    evals = kind_entries(cache, rulecache._EVAL)
    for batch, (key, rules) in zip(batches, evals.items(), strict=True):
        b = GridBatch.of(batch)
        assert key == rulecache._EVAL + context + b.start.tobytes() + b.keys.tobytes()
        assert len(rules) == len(net.blocks)
        # a layer's out_start is the next one's in_start, held and counted once
        for prev, rule in zip(rules, rules[1:]):
            assert rule.in_start is prev.out_start
        arrays = {id(a): a for rule in rules for a in rule_arrays(rule)}
        assert len(arrays) == 3 * len(rules) + 1
        sizes += len(key) + rulecache._ENTRY_BYTES + sum(a.nbytes for a in arrays.values())
        for a in arrays.values():
            with pytest.raises(ValueError):
                a[...] = 0
    assert cache.nbytes == samples + sizes
    assert cache.hits == 0  # eval reads no training entry


def test_training_entries_are_read_only_and_counted(rng):
    """A training sample's entry is its own plans, one per layer, with int32
    ``src``; every array is read-only, and the bytes counted for the entry
    are the bytes its arrays hold, besides its key and the fixed overhead."""
    net = make_net(CUBIC)
    grids = grids_for(net, rng, (0.3, 0.0, 0.6))
    warm(net, grids, **training())
    _, tape, _ = net.forward_batch(grids, keep_tape=True, cache=False)
    cache = net.rule_cache
    entries = kind_entries(cache, rulecache._TRAIN)
    assert len(entries) == len(cache._entries) == len(grids)
    size = 0
    for (key, plans), g, b in zip(entries.items(), grids, range(len(grids)), strict=True):
        assert key == rulecache._TRAIN + g.keys.tobytes()
        assert len(plans) == len(net.blocks)
        for got, entry in zip(plans, tape, strict=True):
            want = entry[-1][b]
            assert isinstance(got, ops.Plan) and got.src.dtype == np.int32
            assert np.array_equal(got.src, want.src)
            for x, y in zip(rule_arrays(got)[::2], rule_arrays(want)[::2]):
                assert x.dtype == y.dtype and np.array_equal(x, y)
        arrays = {id(a): a for p in plans for a in rule_arrays(p)}
        assert len(arrays) == 4 * len(plans)
        for a in arrays.values():
            with pytest.raises(ValueError):
                a[...] = 0
        size += len(key) + rulecache._ENTRY_BYTES + sum(a.nbytes for a in arrays.values())
    assert cache.nbytes == size


def rulebook_chain(net, grids, depth, rng=None):
    """The batched rulebook's rules of ``grids`` for the first ``depth``
    blocks, each FMP layer's seed drawn from ``rng``, else its own."""
    batch, rules = GridBatch.of(grids), []
    for block in net.blocks[:depth]:
        rules.append(block.layer.rulebook(batch, rng))
        batch = block.forward(batch, rules[-1], False)[0]
    return rules


def test_join_is_the_inverse_of_item_access(rng):
    """``Plan.join`` of the items of a batch's rules, layer by layer, gives
    the rules back, and a join of one sample's items is those items with
    their ground as a one-sample batch's, whatever their ``src`` dtype."""
    net = make_net(LatticeKind.TRIANGULAR)
    grids = grids_for(net, rng, (0.3, 0.0, 0.6, 1.0))
    rules = rulebook_chain(net, grids, len(net.blocks))
    chains = [[rule[b] for rule in rules] for b in range(len(grids))]
    for got, want in zip(ops.Plan.join(chains), rules, strict=True):
        assert_same_rule(got, want)
    one = chains[1]
    for chain in (one, [dataclasses.replace(p, src=p.src.astype(np.int32)) for p in one]):
        for got, want in zip(ops.Plan.join([chain]), one, strict=True):
            assert_same_rule(got, want)


def test_an_eval_hit_leaves_its_entry_as_stored(rng):
    """An eval entry holds the pass's Plans, which every hit hands to the
    ops: after two hits the entry holds the same Plan objects, still bare
    rules, since the ops complete a copy and a Plan's fields cannot be
    assigned."""
    net = make_net(CUBIC)
    grids = grids_for(net, rng, (0.3, 0.6))
    warm(net, grids)
    (rules,) = net.rule_cache._entries.values()
    held = list(rules)
    for _ in range(2):
        forward_backward(net, grids)
    assert net.rule_cache.hits == 2 * len(grids)
    assert all(isinstance(r, ops.Plan) for r in rules)
    assert all(r is h for r, h in zip(rules, held, strict=True))
    assert all(r.Q is None and r.argmax is None and r.mask is None for r in rules)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rules[0].Q = np.zeros((rules[0].a_out, 1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        rules[0].out_keys = rules[0].out_keys.copy()


def test_an_eval_entry_larger_than_the_space_left_is_not_held(rng, monkeypatch):
    net, fresh = make_net(CUBIC), make_net(CUBIC)
    grids = grids_for(net, rng, (0.3, 0.6))
    warm(net, grids, **training())
    samples = net.rule_cache.nbytes
    probe = make_net(CUBIC)
    warm(probe, grids)
    entry = probe.rule_cache.nbytes
    monkeypatch.setattr(rulecache, "CACHE_BYTES", samples + entry - 1)
    for _ in range(2):  # net misses and holds nothing; fresh, with room, stores and hits
        assert_same_run(forward_backward(net, grids), forward_backward(fresh, grids))
    assert not kind_entries(net.rule_cache, rulecache._EVAL)
    assert net.rule_cache.nbytes == samples
    assert (net.rule_cache.hits, fresh.rule_cache.hits) == (0, len(grids))
    monkeypatch.setattr(rulecache, "CACHE_BYTES", samples + entry)
    warm(net, grids)  # an entry that fills the space left exactly is held
    assert net.rule_cache.nbytes == rulecache.CACHE_BYTES


def test_fmp_regions_are_built_only_on_a_miss(rng, monkeypatch):
    net = make_net(CUBIC, FMP_ARCH, field=FMP_FIELD)
    fmp_blocks = sum(b.kind == "fmp" for b in net.blocks)
    grids = grids_for(net, rng, (0.4, 0.2))
    regions = count_calls(monkeypatch, ops, "fmp_regions")
    again = [*grids, grids[0]]
    # a miss, a hit, another batch's miss, and a hit on each batch's entry
    for batch, calls in ((grids, fmp_blocks), (grids, 0), (again, fmp_blocks), (grids, 0),
                         (again, 0)):
        regions[0] = 0
        net.forward_batch(batch)
        assert regions[0] == calls
    for _ in range(3):  # a training entry stops at the first FMP layer
        regions[0] = 0
        net.forward_batch(grids, train_rng=np.random.default_rng(0))
        assert regions[0] == fmp_blocks


def drawn(seed, draws):
    """The state of a generator of ``seed`` after ``draws`` FMP seed draws."""
    r = np.random.default_rng(seed)
    for _ in range(draws):
        r.integers(0, 2**31)
    return r.bit_generator.state


def test_a_training_pass_draws_one_seed_per_fmp_block(rng):
    """On a miss and on a hit of the training entries alike, a training
    pass draws exactly one seed per FMP block from its generator; a network
    without FMP draws nothing."""
    net = make_net(CUBIC, FMP_ARCH, field=FMP_FIELD)
    fmp_blocks = sum(b.kind == "fmp" for b in net.blocks)
    grids = grids_for(net, rng, (0.4, 0.2))
    for hits in (0, len(grids)):
        r = np.random.default_rng(11)
        net.forward_batch(grids, train_rng=r)
        assert net.rule_cache.hits == hits
        assert r.bit_generator.state == drawn(11, fmp_blocks)
    plain = make_net(CUBIC)
    for hits in (0, len(grids)):
        r = np.random.default_rng(11)
        plain.forward_batch(grids_for(plain, np.random.default_rng(1), (0.4, 0.2)), train_rng=r)
        assert plain.rule_cache.hits == hits
        assert r.bit_generator.state == drawn(11, 0)


@pytest.mark.parametrize("arch, field", [("4C2-MP3/2-6C2-output", None), (FMP_ARCH, FMP_FIELD)])
@pytest.mark.parametrize("train_rng", [None, 0])
def test_a_pass_holds_no_rule_past_its_block(arch, field, train_rng, rng, monkeypatch):
    """An uncached pass without a tape gets every block's rule first, and
    drops each once its block has used it: when block ``i`` yields, rules
    ``0..i`` are dead and the rules of the blocks after it live."""
    net = make_net(CUBIC, arch, field=field)
    refs = []
    rules_of = net._rules

    def recording(*args, **kw):
        rules = rules_of(*args, **kw)
        refs.extend(weakref.ref(r) for r in rules)
        return rules

    monkeypatch.setattr(net, "_rules", recording)
    batch = GridBatch.of(grids_for(net, rng, (0.4, 0.2)))
    gen = None if train_rng is None else np.random.default_rng(train_rng)
    for i, _ in enumerate(net._run(batch, gen, cache=False)):
        assert len(refs) == len(net.blocks)
        assert [ref() is None for ref in refs] == [j <= i for j in range(len(refs))]


def rule_arrays(rule):
    """The arrays of a rule, the fields of a Plan that a rulebook fills."""
    return [rule.out_keys, rule.src, rule.in_start, rule.out_start]


def assert_same_rule(got, want):
    assert isinstance(got, ops.Plan) and isinstance(want, ops.Plan)
    for a, b in zip(rule_arrays(got), rule_arrays(want), strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_each_layer_gives_its_rulebook_rule(rng):
    """A layer's ``rulebook`` is the ops rulebook of its geometry or of the
    regions of its seed: one drawn from ``rng``, else ``layer.seed``."""
    net = make_net(CUBIC, FMP_ARCH, field=FMP_FIELD)
    batch = GridBatch.of(grids_for(net, rng, (0.4, 0.2)))
    conv, fmp = net.blocks[0].layer, net.blocks[1].layer
    assert_same_rule(conv.rulebook(batch), ops.conv_rulebook(batch, conv.geometry))
    m = batch.shape.m
    r = np.random.default_rng(4)
    seed = int(copy.deepcopy(r).integers(0, 2**31))
    assert_same_rule(fmp.rulebook(batch, r),
                     ops.fmp_rulebook(batch, ops.fmp_regions(m, seed)))
    assert r.bit_generator.state == drawn(4, 1)
    assert_same_rule(fmp.rulebook(batch),
                     ops.fmp_rulebook(batch, ops.fmp_regions(m, fmp.seed)))


@pytest.mark.parametrize("arch, field", [("4C2-MP3/2-6C2-output", None), (FMP_ARCH, FMP_FIELD)])
def test_a_repeated_eval_batch_runs_each_rulebook_once(arch, field, rng, monkeypatch):
    nets = [make_net(CUBIC, arch, field=field) for _ in range(3)]
    grids = grids_for(nets[0], rng, (0.3, 0.6, 0.0, 1.0))
    want = nets.pop().forward_batch(grids)[0]
    fmp = sum(b.kind == "fmp" for b in nets[0].blocks)
    once = {"conv_rulebook": len(nets[0].blocks) - fmp, "fmp_rulebook": fmp,
            "fmp_regions": fmp}
    calls = rulebook_calls(monkeypatch)
    for net in nets:
        for _ in range(3):
            assert np.array_equal(net.forward_batch(grids)[0], want)
        assert {name: c[0] for name, c in calls.items()} == once
        for c in calls.values():
            c[0] = 0


def test_two_eval_batches_are_both_held_and_each_repeat_hits_its_own(rng, monkeypatch):
    net, fresh = make_net(CUBIC), make_net(CUBIC)
    cache = net.rule_cache
    grids = grids_for(net, rng, (0.3, 0.6, 0.5))
    batches = (grids[:2], grids[1:])
    wants = [fresh.forward_batch(batch)[0] for batch in batches]
    for batch in batches:
        warm(net, batch)
    held = cache.nbytes
    assert (cache.admitted, len(cache._entries)) == (2, 2)
    calls = rulebook_calls(monkeypatch)
    for i in (0, 1, 1, 0):
        hits = cache.hits
        assert np.array_equal(net.forward_batch(batches[i])[0], wants[i])
        assert cache.hits == hits + 2
    assert all(c[0] == 0 for c in calls.values())
    assert (cache.admitted, cache.nbytes) == (2, held)


def test_ground_states_bypass_the_cache(rng, monkeypatch):
    net = make_net(CUBIC, FMP_ARCH, field=FMP_FIELD)
    grids = grids_for(net, rng, (0.4, 0.2))
    want = net.forward_batch(grids)[0]
    cache = net.rule_cache
    counts = (cache.nbytes, cache.hits, cache.misses, cache.admitted, len(cache._entries))
    net.ground_states()
    assert (cache.nbytes, cache.hits, cache.misses, cache.admitted, len(cache._entries)) == counts
    calls = rulebook_calls(monkeypatch)
    assert np.array_equal(net.forward_batch(grids)[0], want)
    assert all(c[0] == 0 for c in calls.values())


def test_fit_hits_from_the_second_epoch_like_an_uncached_fit(tmp_path, rng, monkeypatch):
    nets = [make_net(CUBIC, FMP_ARCH, np.float32, FMP_FIELD) for _ in range(2)]
    grids = grids_for(nets[0], rng, (0.4, 0.2, 0.7, 0.5, 0.3, 0.6), np.float32)
    samples = [LabeledSample(g, i % 3) for i, g in enumerate(grids)]
    train, heldout = samples[:4], samples[4:]
    cfg = TrainConfig(epochs=3, batch_size=2, lr=0.01, seed=3)
    hits = []
    logs = fit(nets[0], train, heldout, cfg,
               log_fn=lambda log: hits.append(nets[0].rule_cache.hits))
    # training up to the first FMP layer, and the held-out pass from its entry
    assert hits == [0, len(samples), 2 * len(samples)]
    monkeypatch.setattr(rulecache, "CACHE_BYTES", 0)
    uncached = fit(nets[1], train, heldout, cfg)
    assert nets[1].rule_cache.hits == 0
    assert [l.row() for l in logs] == [l.row() for l in uncached]
    for i, net in enumerate(nets):
        net.save(tmp_path / f"{i}.lnck")
    assert (tmp_path / "0.lnck").read_bytes() == (tmp_path / "1.lnck").read_bytes()


# ---------------------------------------------------------------------------
# the one-pass cut and the chain join, fuzzed


def random_arch(r):
    """One to three stages of a convolution, strided or not, each maybe
    followed by a plain pool, then the head."""
    tokens = []
    for _ in range(r.integers(1, 4)):
        f = int(r.integers(1, 4))
        tokens.append(f"{r.integers(1, 5)}C{f}" + ("/2" if f > 1 and r.random() < 0.3 else ""))
        if r.random() < 0.5:
            tokens.append(str(r.choice(["MP2", "MP3/2"])))
    return "-".join(tokens + ["output"])


@pytest.mark.parametrize("seed", range(20))
def test_cut_and_join_equal_the_rulebook(seed, monkeypatch):
    """Random architectures on every lattice, and FMP_ARCH, whose entry
    stops at the first FMP layer.  Batches with new, cached, repeated and
    empty samples, and a batch of one, are each trained once; every entry
    they store is its sample's ``plan[b]`` with int32 ``src``, read-only,
    and shares no memory with the pass's rules.  Each is then run again as
    a permutation, whose rules, from one join, equal the batched
    rulebook's bit for bit, and so does the uncached rule chain of
    ``Network._rules`` on every layer, with or without a generator, which
    gives one seed per FMP block."""
    r = np.random.default_rng(seed)
    if seed % 5 == 4:
        net = make_net(CUBIC, FMP_ARCH, field=FMP_FIELD, seed=seed)
    else:
        net = make_net(ALL_LATTICES[seed % 4], random_arch(r), seed=seed)
    cache = net.rule_cache
    # a training entry stops before the first FMP layer, and so depends on the keys alone
    kinds = [b.kind for b in net.blocks]
    depth = kinds.index("fmp") if "fmp" in kinds else len(kinds)
    context, fmp_blocks = b"", kinds.count("fmp")
    assert depth == (1 if seed % 5 == 4 else len(net.blocks))
    grids = grids_for(net, r, r.uniform(0.05, 0.8, size=6))
    grids.append(SparseGrid.empty(net.input_shape(), grids[0].ground))
    g = [grids[i] for i in r.permutation(len(grids))]
    batches = [
        g[:3],  # every sample new
        [g[3], g[1], g[3], g[4]],  # a cached sample and a new one twice
        [g[5]],  # a batch of one
        [g[6], g[0], g[2]],  # a cached batch but for one sample
    ]
    stored = []
    store = rulecache.RuleCache.store

    def recording(self, miss, plans):
        store(self, miss, plans)
        stored.append((miss, plans))

    monkeypatch.setattr(rulecache.RuleCache, "store", recording)
    joins = count_calls(monkeypatch, ops.Plan, "join")
    for batch in batches:
        net.forward_batch(batch, train_rng=np.random.default_rng(seed))
    assert cache.admitted == len(cache._entries) == len({x.keys.tobytes() for x in grids})
    joins[0] = 0
    for miss, plans in stored:
        assert len(plans) == depth
        for key, b in miss.items():
            entry = cache._entries[key]
            for got, rule in zip(entry, plans, strict=True):
                want = rule[b]
                assert got.src.dtype == np.int32 and np.array_equal(got.src, want.src)
                for x, y in zip(rule_arrays(got)[::2], rule_arrays(want)[::2]):
                    assert x.dtype == y.dtype and np.array_equal(x, y)
                for a in rule_arrays(got):
                    with pytest.raises(ValueError):
                        a[...] = 0
                assert not any(np.shares_memory(x, y) for x in rule_arrays(got)
                               for y in rule_arrays(rule))
    for k, batch in enumerate(batches, 1):
        perm = [batch[i] for i in r.permutation(len(batch))]
        rules, miss = cache.lookup(GridBatch.of(perm), context, True)
        assert miss is None and joins[0] == k  # one join for the whole chain
        for got, want in zip(rules, rulebook_chain(net, perm, depth), strict=True):
            assert got.src.dtype == np.int64
            assert_same_rule(got, want)
        for rng in (None, np.random.default_rng(seed)):
            chain = rulebook_chain(net, perm, len(net.blocks), copy.deepcopy(rng))
            rules = net._rules(GridBatch.of(perm), rng, cache=False)
            for got, want in zip(rules, chain, strict=True):
                assert_same_rule(got, want)
            assert rng is None or rng.bit_generator.state == drawn(seed, fmp_blocks)


def test_a_partly_admitted_batch_holds_only_its_admitted_rows(rng, monkeypatch):
    """With room for only some of a batch's new samples, no held entry
    shares memory with the batch's rules, a refused sample's rows least of
    all, and the bytes counted are the bytes of every array the entries
    reach, besides their keys and the fixed overhead."""
    probe = make_net(CUBIC)
    grids = grids_for(probe, rng, (0.3, 0.6, 0.2, 0.5, 0.4))
    sizes = []
    for g in grids:
        held = probe.rule_cache.nbytes
        warm(probe, [g], **training())
        sizes.append(probe.rule_cache.nbytes - held)
    # admitted in order: room for samples 0 and 2, none for 1, 3 or 4 after them
    assert sizes[1] > sizes[2]
    monkeypatch.setattr(rulecache, "CACHE_BYTES", sizes[0] + sizes[2])
    net = make_net(CUBIC)
    cache = net.rule_cache
    _, tape, _ = net.forward_batch(grids, keep_tape=True, **training())
    held = [b for b, g in enumerate(grids) if rulecache._TRAIN + g.keys.tobytes() in cache._entries]
    assert held == [0, 2] and cache.nbytes == rulecache.CACHE_BYTES
    bases = {}
    for plans in cache._entries.values():
        for a in (a for p in plans for a in rule_arrays(p)):
            while a.base is not None:
                a = a.base
            bases[id(a)] = a
    assert cache.nbytes == sum(len(key) + rulecache._ENTRY_BYTES for key in cache._entries) \
        + sum(a.nbytes for a in bases.values())
    for entry in tape:
        plan = entry[-1]
        for b in (1, 3, 4):
            rows = slice(*plan.out_start[b:b + 2])
            assert not any(np.shares_memory(a, x) for a in bases.values()
                           for x in (plan.out_keys[rows], plan.src[rows]))
        assert not any(np.shares_memory(a, x) for a in bases.values()
                       for x in rule_arrays(plan))
