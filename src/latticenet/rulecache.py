"""A bounded cache of rulebook results: chains per training sample, rules
per eval batch.

A rule is the :class:`~latticenet.ops.Plan` that a layer's rulebook gives
for a batch: its output keys, gather index ``src`` and the samples' row
offsets in the layer's input and output.  The cache stores rules and
returns rules, so a hit hands the forward ops the very record the
rulebook would have given.

A sample's *rulebook chain* holds, for each rulebook layer of a network
(convolution, pool, FMP and classifier, in order), the sample's active
output keys and its gather index ``src`` in the sample's own row numbers
(int32), as a batch of that sample alone gives it, so every ground
position reads -1.  A network runs grids of its planned input field
only, so the chain depends on nothing but the sample's input key set and
the FMP regions, and a network that sees the same key set again can
reuse it instead of running the rulebook.  Map reuse of this kind
follows TorchSparse (Tang et al. 2022, arXiv:2204.10319).

The batched rulebook groups output rows by sample, keys ascending within
each, and gives every sample the rows and gather index it gets alone.  So
a batch rule assembled from its samples' chains (keys concatenated, each
``src`` shifted by its sample's first input row and each -1 mapped to the
sample's ground entry ``-(B - b)``, see :func:`~latticenet.ops.batch_src`,
and the output offsets summed from the chains' row counts) equals the
batched pass bit for bit.

Training keeps a chain per sample, stored at the key set's first
sighting: ``fit`` never augments, so every training key set comes back the
next epoch, in a freshly permuted batch that is assembled from its
samples' chains once all of them are held.  Eval keeps an entry per batch,
the pass's own Plans with their arrays made read-only: ``fit``'s held-out
pass evaluates the same chunks in the same order every epoch, so the same
batch gets its Plans back whole, with no assembly.  Every hit hands the
ops those very objects; a Plan is frozen, so the ops complete copies of
them and the entry keeps bare rules, with no ``Q`` or ``argmax``.  The
two maps are keyed by the bytes themselves, a chain by the sample's keys
(it stops before the first FMP layer), an eval entry by the FMP seeds and
the batch's sample starts and keys, and stay apart: a training sample's
key bytes can equal a one-sample eval batch's start and key bytes.  An
entry is stored only if it fits in what is left of :data:`CACHE_BYTES`,
and nothing stored leaves.
"""

from __future__ import annotations

import numpy as np

from .grid import GridBatch
from .ops import Plan, batch_src, own_src

CACHE_BYTES = 64 << 20
"""Bound on the bytes a network's cache holds, chains and eval entries
together.  Nothing is evicted: a batch hits only if every sample hits, and
``fit`` visits each sample once an epoch, so a set that outgrows the bound
would keep cutting chains that leave before they come back."""

_ENTRY_BYTES = 512  # an entry's tuple or list, Plans and array headers, besides its data


class RuleCache:
    """Training chains and eval entries under one bound, evicting nothing.

    ``_chains`` maps the key bytes of a training sample to its chain, one
    ``(out_keys, src)`` pair per rulebook layer; ``_batches`` maps the
    context (the FMP seeds), start and key bytes of an eval batch to its
    rules, one :class:`~latticenet.ops.Plan` per rulebook layer, for
    ``fit``'s next held-out pass.  The counters count sample lookups
    (``hits``, ``misses``), entries stored (``admitted``, chains and eval
    batches) and the bytes held (``nbytes``).
    """

    def __init__(self):
        self._chains: dict = {}
        self._batches: dict = {}
        self.hits = self.misses = self.admitted = self.nbytes = 0

    def __str__(self):
        return (f"rule cache: {self.hits} hits, {self.misses} misses, {self.admitted} entries "
                f"stored, {self.nbytes} of {CACHE_BYTES} bytes held")

    def lookup(self, batch: GridBatch, context: bytes, training: bool):
        """Look ``batch`` up under ``context``, the bytes of what its rules
        depend on besides its keys: sample by sample among the chains if
        ``training``, else whole among the eval entries.

        Returns ``(rules, miss)``.  ``rules`` yields the batch's rule, a
        :class:`~latticenet.ops.Plan`, per cached layer when the batch
        hits, and ``miss`` is None; else ``rules`` yields nothing, the
        rulebook must run, and ``miss`` goes to :meth:`store` with the
        pass's rules: the batch's eval key, or the key and batch position
        of each training sample to admit.
        """
        if not training:
            key = context + batch.start.tobytes() + batch.keys.tobytes()
            rules = self._batches.get(key)
            if rules is None:
                self.misses += batch.B
                return iter(()), key
            self.hits += batch.B
            return iter(rules), None
        chains, admit = [], {}
        start = batch.start.tolist()
        for b in range(batch.B):
            key = context + batch.keys[start[b]:start[b + 1]].tobytes()
            chain = self._chains.get(key)
            if chain is None:
                admit[key] = b
            else:
                chains.append(chain)
        self.hits += len(chains)
        self.misses += batch.B - len(chains)
        if batch.B and len(chains) == batch.B:
            return _assemble(chains, batch.start), None
        return iter(()), admit

    def store(self, miss, plans):
        """After a pass that ran the rulebook, store what ``miss`` asks for,
        from ``plans``: the rule of each cached layer, as the rulebook gives
        it.  An eval batch keeps the Plans themselves, their arrays made
        read-only; each training sample to admit has its chain cut out of
        them, by its rows ``out_start[b]:out_start[b + 1]`` and its first
        input row ``in_start[b]``.  Only what fits is stored, and a sample
        whose chain does not fit is not cut."""
        if isinstance(miss, bytes):  # an eval batch's key
            # a layer's out_start is the next layer's in_start: count it once
            arrays = {id(a): a for p in plans for a in (p.out_keys, p.src, p.in_start, p.out_start)}
            size = len(miss) + _ENTRY_BYTES + sum(a.nbytes for a in arrays.values())
            if self.nbytes + size <= CACHE_BYTES:
                for a in arrays.values():
                    a.flags.writeable = False
                self._batches[miss] = plans
                self.nbytes += size
                self.admitted += 1
            return
        # each sample's chain data bytes, its src as int32, before any chain is cut
        data_bytes = sum(np.diff(p.out_start) * (p.out_keys.itemsize + 4 * p.src.shape[1])
                         for p in plans)
        for key, b in miss.items():
            size = len(key) + _ENTRY_BYTES + int(data_bytes[b])
            if self.nbytes + size > CACHE_BYTES:
                continue
            self._chains[key] = tuple(
                (p.out_keys[rows].copy(), own_src(p.src[rows], p.in_start[b]).astype(np.int32))
                for p in plans for rows in [slice(*p.out_start[b:b + 2])])
            self.nbytes += size
            self.admitted += 1


def _assemble(chains, start: np.ndarray):
    """Yield the batch rules, one :class:`~latticenet.ops.Plan` per layer,
    of samples whose chains are ``chains``; the first layer reads input
    rows ``start``."""
    B = len(chains)
    for layer in zip(*chains):
        counts = [k.shape[0] for k, _ in layer]
        out_start = np.zeros(B + 1, np.int64)
        np.cumsum(counts, out=out_start[1:])
        src = np.concatenate([s for _, s in layer], dtype=np.int64)
        src = batch_src(src, start, np.repeat(np.arange(B), counts), B)
        yield Plan(np.concatenate([k for k, _ in layer]), src, start, out_start)
        start = out_start
