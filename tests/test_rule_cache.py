"""The per-sample rulebook cache against the batched rulebook it replaces.

A network that takes a batch's rules from its cache must give exactly what
a network that runs the rulebook gives: the same logits, tapes and
gradients, bit for bit.  The cache admits a key set at its first sighting
in training and its second in eval, holds what fits under
``rulecache.CACHE_BYTES`` and evicts nothing, keys eval chains by the FMP
seeds, and remembers the last eval batch's rules.
"""

import numpy as np
import pytest

from latticenet import rulecache
from latticenet.autograd import softmax_nll
from latticenet.geometry import LatticeKind
from latticenet.grid import GridBatch, LabeledSample, SparseGrid
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
    """Run ``grids`` through passes that admit every sample's chain.  A
    training pass admits at the first sighting, eval at the second; the
    memo would serve the same eval batch whole, so the second eval pass
    runs another batch: ``grids`` with its first sample again."""
    net.forward_batch(grids, **kw)
    if "train_rng" not in kw:
        net.forward_batch([*grids, grids[0]], **kw)


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
    assert net.rule_cache.hits == 4  # the first warm-up pass admits, the second hits
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
    assert net.rule_cache.hits == 2 * len(samples)  # epochs 2-3, up to the first FMP layer
    fresh = make_net(CUBIC, FMP_ARCH, field=FMP_FIELD)
    for p, q in zip(fresh.params(), net.params()):
        p.values[...] = q.values
    hits = net.rule_cache.hits
    got = evaluate(net, samples, repeats=3, batch_size=2)
    # two chunks interleave, so the memo serves neither: pass 2 admits, pass 3 hits
    assert net.rule_cache.hits == hits + len(samples)
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
    assert cache.nbytes == 3 * rulecache._PLACEHOLDER_BYTES + cache._memo[4]

    def jitter(grid, r):  # a new key set on every pass
        keep = r.random(grid.a) < 0.7
        return SparseGrid(grid.shape, grid.keys[keep], grid.rows[keep], grid.ground)

    samples = [LabeledSample(g, 0) for g in grids]
    evaluate(net, samples, repeats=3, augment=jitter)
    assert cache.admitted == 0 and cache.hits == 0
    # a placeholder per key set, and the last pass's rules as the one memo
    assert cache.nbytes == len(cache._entries) * rulecache._PLACEHOLDER_BYTES + cache._memo[4]


def test_digest_collision_is_a_miss(rng, monkeypatch):
    monkeypatch.setattr(rulecache, "_digest", lambda data: bytes(16))
    net, fresh = make_net(CUBIC), make_net(CUBIC)
    a, b = grids_for(net, rng, (0.3, 0.5))
    warm(net, [a])
    for batch in ([b], [b, b], [b]):  # each another batch, which the memo does not serve
        assert_same_run(forward_backward(net, batch), forward_backward(fresh, batch))
    assert (net.rule_cache.hits, net.rule_cache.admitted) == (0, 1)
    net.forward_batch([a])
    assert net.rule_cache.hits == 1


def test_a_full_cache_refuses_a_chain_and_keeps_what_it_holds(rng, monkeypatch):
    # training passes, which leave the eval memo and its bytes out
    train = {"train_rng": np.random.default_rng(0)}
    probe = make_net(CUBIC)
    grids = grids_for(probe, rng, (0.3, 0.5, 0.4))
    sizes = []
    for g in grids:
        held = probe.rule_cache.nbytes
        warm(probe, [g], **train)
        sizes.append(probe.rule_cache.nbytes - held)
    assert min(sizes) > rulecache._PLACEHOLDER_BYTES
    # the bytes counted before a chain is cut are the bytes it holds
    for data, chain, size in probe.rule_cache._entries.values():
        arrays = sum(k.nbytes + s.nbytes for k, s in chain)
        assert size == len(data) + rulecache._ENTRY_BYTES + arrays
    monkeypatch.setattr(rulecache, "CACHE_BYTES", sum(sizes) - 1)
    net = make_net(CUBIC)
    cache = net.rule_cache
    warm(net, [grids[0]], **train)
    warm(net, [grids[1]], **train)
    net.forward_batch([grids[0]], **train)
    held = set(cache._entries)
    cuts = count_calls(monkeypatch, rulecache, "own_src")
    warm(net, [grids[2]], **train)
    # the third chain does not fit, so it is neither cut nor stored, and nothing leaves
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
    train = {"train_rng": np.random.default_rng(0)}  # no memo to count
    warm(net, [small], **train)
    held = net.rule_cache.nbytes
    monkeypatch.setattr(rulecache, "CACHE_BYTES", held + 2 * rulecache._PLACEHOLDER_BYTES)
    warm(net, [large], **train)
    assert (net.rule_cache.admitted, net.rule_cache.nbytes) == (1, held)
    hits = net.rule_cache.hits
    net.forward_batch([small], **train)
    assert net.rule_cache.hits == hits + 1


def test_zero_bound_holds_nothing(rng, monkeypatch):
    monkeypatch.setattr(rulecache, "CACHE_BYTES", 0)
    net, fresh = make_net(CUBIC), make_net(CUBIC)
    grids = grids_for(net, rng, (0.3, 0.5))
    cuts = count_calls(monkeypatch, rulecache, "own_src")
    for _ in range(3):
        got = forward_backward(net, grids)
    for _ in range(2):  # training offers every chain for admission at its first sighting
        got_train = forward_backward(net, grids, train_rng=np.random.default_rng(0))
    assert net.rule_cache.nbytes == 0 and net.rule_cache.hits == 0
    assert (net.rule_cache.admitted, cuts[0]) == (0, 0)  # a chain that cannot be held is not cut
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

    def store_and_note(self, miss, layers):
        store(self, miss, layers)
        admitted.update(d for d in miss[0] if d in self._entries)

    monkeypatch.setattr(rulecache.RuleCache, "store", store_and_note)
    cache, bounded = run("bounded")
    assert len(held) == cfg.epochs * -(-len(samples) // cfg.batch_size)
    assert max(held) <= bound
    # each chain is admitted once and never leaves
    assert 0 < cache.admitted == len(admitted) and admitted <= set(cache._entries)
    monkeypatch.setattr(rulecache, "CACHE_BYTES", 0)
    cache, zero = run("zero")
    assert (cache.admitted, cache.nbytes) == (0, 0)
    assert bounded == unbounded and zero == unbounded


def test_hit_gives_each_sample_its_own_plans(rng):
    net = make_net(LatticeKind.SQUARE)
    grids = grids_for(net, rng, (0.3, 0.0, 0.6))
    warm(net, grids)
    hits = net.rule_cache.hits
    _, batch_tape, _ = net.forward_batch(grids, keep_tape=True)
    assert net.rule_cache.hits == hits + len(grids)
    for b, g in enumerate(grids):
        _, tape, _ = net.forward_batch([g], keep_tape=True)
        for got, want in zip(batch_tape, tape):
            if got[0] != "relu":
                assert np.array_equal(got[-1][b].out_keys, want[-1][0].out_keys)
                assert np.array_equal(got[-1][b].src, want[-1][0].src)


# ---------------------------------------------------------------------------
# the memo of the last eval batch


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
    warm(net, grids)
    net.forward_batch(grids)  # assembles the rule and remembers it
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
    warm(net, grids)
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
    cache = net.rule_cache
    # the rules a miss computes, then rules assembled from the chains
    for passes in ([grids], [[*grids, grids[0]], grids]):
        for batch in passes:
            net.forward_batch(batch)
        context, start, keys, rules, size = cache._memo
        assert keys == GridBatch.of(grids).keys.tobytes()
        assert cache.nbytes == sum(entry[2] for entry in cache._entries.values()) + size
        assert size > len(context) + len(start) + len(keys) + sum(a.nbytes for r in rules for a in r)
        for rule in rules:
            for a in rule:
                with pytest.raises(ValueError):
                    a[...] = 0
    assert cache.hits == len(grids)  # only the last pass hit


def test_memo_larger_than_the_bound_is_not_held(rng, monkeypatch):
    net, fresh = make_net(CUBIC), make_net(CUBIC)
    grids = grids_for(net, rng, (0.3, 0.6))
    warm(net, grids)
    chains = net.rule_cache.nbytes - net.rule_cache._memo[4]
    monkeypatch.setattr(rulecache, "CACHE_BYTES", chains)
    hits = net.rule_cache.hits
    for _ in range(2):  # a miss on fresh, then its admission; hits on net
        assert_same_run(forward_backward(net, grids), forward_backward(fresh, grids))
        assert net.rule_cache._memo is None and fresh.rule_cache._memo is None
    assert net.rule_cache.hits == hits + 2 * len(grids)
    assert net.rule_cache.nbytes == chains  # every chain is still held
    assert fresh.rule_cache.admitted == len(grids)


def test_fmp_regions_are_built_only_on_a_miss(rng, monkeypatch):
    from latticenet import network

    net = make_net(CUBIC, FMP_ARCH, field=FMP_FIELD)
    fmp_blocks = sum(b.kind == "fmp" for b in net.blocks)
    grids = grids_for(net, rng, (0.4, 0.2))
    regions = count_calls(monkeypatch, network, "fmp_regions")
    again = [*grids, grids[0]]
    # miss, memo hit, admission, hit, memo hit
    for batch, calls in ((grids, fmp_blocks), (grids, 0), (again, fmp_blocks), (grids, 0),
                         (grids, 0)):
        regions[0] = 0
        net.forward_batch(batch)
        assert regions[0] == calls
    for _ in range(3):  # a training chain stops at the first FMP layer
        regions[0] = 0
        net.forward_batch(grids, train_rng=np.random.default_rng(0))
        assert regions[0] == fmp_blocks


def rulebook_calls(monkeypatch):
    """Count the calls of every rulebook, and of ``fmp_regions``, that the
    network's blocks make."""
    from latticenet import network

    return {name: count_calls(monkeypatch, network, name)
            for name in ("conv_rulebook", "fmp_rulebook", "fmp_regions")}


@pytest.mark.parametrize("arch, field", [("4C2-MP3/2-6C2-output", None), (FMP_ARCH, FMP_FIELD)])
def test_a_repeated_eval_batch_runs_each_rulebook_once(arch, field, rng, monkeypatch):
    nets = [make_net(CUBIC, arch, field=field) for _ in range(3)]
    grids = grids_for(nets[0], rng, (0.3, 0.6, 0.0, 1.0))
    want = nets.pop().forward_batch(grids)[0]
    fmp = sum(b.kind == "fmp" for b in nets[0].blocks)
    once = {"conv_rulebook": len(nets[0]._rule_blocks) - fmp, "fmp_rulebook": fmp,
            "fmp_regions": fmp}
    calls = rulebook_calls(monkeypatch)
    for net in nets:
        for _ in range(3):
            assert np.array_equal(net.forward_batch(grids)[0], want)
        assert {name: c[0] for name, c in calls.items()} == once
        for c in calls.values():
            c[0] = 0


def test_another_eval_batch_drops_the_memo_first(rng, monkeypatch):
    from latticenet import network

    net = make_net(CUBIC)
    cache = net.rule_cache
    grids = grids_for(net, rng, (0.3, 0.6, 0.5))
    held = []  # (memo, bytes beyond the entries') at each rulebook call

    def entries():
        return sum(entry[2] for entry in cache._entries.values())

    def rulebook(*args):
        held.append((cache._memo, cache.nbytes - entries()))
        return original(*args)

    original = network.conv_rulebook
    monkeypatch.setattr(network, "conv_rulebook", rulebook)
    for batch in (grids[:2], grids[1:], grids[:2], grids, grids[1:]):  # misses, then a hit
        held.clear()
        net.forward_batch(batch)
        assert all(h == (None, 0) for h in held)
        assert cache.nbytes == entries() + cache._memo[4]
    assert held == [] and cache.admitted == 3


def test_ground_states_bypass_the_cache(rng, monkeypatch):
    net = make_net(CUBIC, FMP_ARCH, field=FMP_FIELD)
    grids = grids_for(net, rng, (0.4, 0.2))
    want = net.forward_batch(grids)[0]
    cache = net.rule_cache
    memo, counts = cache._memo, (cache.nbytes, cache.hits, cache.misses, len(cache._entries))
    net.ground_states()
    assert cache._memo is memo
    assert (cache.nbytes, cache.hits, cache.misses, len(cache._entries)) == counts
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
    # training up to the first FMP layer, and the held-out pass from the memo
    assert hits == [0, len(samples), 2 * len(samples)]
    monkeypatch.setattr(rulecache, "CACHE_BYTES", 0)
    uncached = fit(nets[1], train, heldout, cfg)
    assert nets[1].rule_cache.hits == 0
    assert [l.row() for l in logs] == [l.row() for l in uncached]
    for i, net in enumerate(nets):
        net.save(tmp_path / f"{i}.lnck")
    assert (tmp_path / "0.lnck").read_bytes() == (tmp_path / "1.lnck").read_bytes()
