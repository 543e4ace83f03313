"""A bounded per-sample cache of rulebook chains.

A sample's *rulebook chain* holds, for each rulebook layer of a network
(convolution, pool, FMP and classifier, in order), the sample's active
output keys and its gather index ``src`` in the sample's own row numbers
(int32), as a batch of that sample alone gives it, so every ground
position reads -1.  The chain depends on nothing but the sample's input
key set, the input field, the architecture and the FMP regions, so a
network that sees the same key set again (the next epoch, an identity eval
repeat) can reuse it instead of running the rulebook.  Map reuse of this
kind follows TorchSparse (Tang et al. 2022, arXiv:2204.10319).

The batched rulebook groups output rows by sample, keys ascending within
each, and gives every sample the rows and gather index it gets alone.  So
a batch rule assembled from its samples' chains (keys concatenated, rows
tagged with their sample, each ``src`` shifted by its sample's first input
row and each -1 mapped to the sample's ground entry ``-(B - b)``; see
:func:`~latticenet.ops.batch_src`) equals the batched pass bit for bit.

Training admits a key set at its first sighting: ``fit`` never augments,
so every training key set comes back the next epoch.  Eval admission
follows the TinyLFU doorkeeper (Einziger et al., ACM ToS 2017): a key
set's first sighting stores a small placeholder and only its second stores
the chain, so key sets seen once, such as affine-augmented eval passes,
cost a placeholder each.  Entries are looked up by a 128-bit digest, and a
hit also compares the stored key bytes, so two key sets can never share a
chain.  A placeholder, chain or memo is stored only if it fits in what is
left of :data:`CACHE_BYTES`, and nothing stored leaves but the memo.

An eval pass also remembers the last eval batch: its context, sample
starts and key bytes, and its rules, assembled from the chains or, on a
miss, as the pass's rulebook computed them, each array read-only.  An
eval lookup of the same batch (an identity eval repeat from its second
pass on, or ``fit``'s held-out pass from the second epoch on) takes those
rules whole, with no digest, entry walk or assembly; its bytes count in
``nbytes``.  An eval lookup of another batch drops the memo before its
pass, so two batches' rules are never held at once.  Training batches are
fresh permutations every epoch, so training lookups neither read nor fill
the memo.  It holds one batch, so repeats that interleave several batches
(an evaluation over several chunks) miss it and assemble each chunk from
its chains.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .grid import GridBatch
from .ops import batch_src, own_src

CACHE_BYTES = 64 << 20
"""Bound on the bytes a network's cache holds, placeholders and the memo
included.  Nothing is evicted: a batch hits only if every sample hits, and
``fit`` visits each sample once an epoch, so a set that outgrows the bound
would keep cutting chains that leave before they come back."""

_PLACEHOLDER_BYTES = 128  # a 16-byte digest with its dict slot, rounded up
_ENTRY_BYTES = 512  # a chain's tuple and array headers, besides its data

_PLACEHOLDER = (None, None, _PLACEHOLDER_BYTES)


class RuleCache:
    """Map from a sample's input key set to its rulebook chain, evicting nothing.

    An entry is ``(data, chain, nbytes)``: ``data`` is the context bytes
    followed by the key bytes, ``chain`` one ``(out_keys, src)`` pair per
    rulebook layer.  A placeholder has neither.  The counters count sample
    lookups (``hits``, ``misses``), chains stored (``admitted``) and the
    bytes held (``nbytes``).  The memo of the last eval batch is
    ``(context, start, keys, rules, nbytes)``, or None.
    """

    def __init__(self):
        self._entries: dict = {}
        self._memo = None
        self.hits = self.misses = self.admitted = self.nbytes = 0

    def __str__(self):
        return (f"rule cache: {self.hits} hits, {self.misses} misses, {self.admitted} chains "
                f"stored, {self.nbytes} of {CACHE_BYTES} bytes held")

    def lookup(self, batch: GridBatch, context: bytes, training: bool):
        """Look every sample of ``batch`` up under ``context``, the bytes of
        what its chain depends on besides its keys; ``training`` says the
        batch is a training batch, which leaves the memo alone and admits a
        key set at its first sighting.

        Returns ``(rules, miss)``.  ``rules`` yields the batch's rule per
        chain layer when the memo serves the batch or every sample hits,
        and ``miss`` is None; else ``rules`` yields nothing, the rulebook
        must run, and ``miss`` goes to :meth:`store` with the pass's rules.
        """
        key = None
        if not training:
            key = (context, batch.start.tobytes(), batch.keys.tobytes())
            if self._memo is not None:
                if self._memo[:3] == key:
                    self.hits += batch.B
                    return iter(self._memo[3]), None
                # dropped before the pass, so two batches' rules are never held
                self.nbytes -= self._memo[4]
                self._memo = None
        chains, admit = [], {}
        start = batch.start.tolist()
        for b in range(batch.B):
            data = context + batch.keys[start[b]:start[b + 1]].tobytes()
            digest = _digest(data)
            entry = self._entries.get(digest)
            if entry is None and not training:  # the doorkeeper
                if self.nbytes + _PLACEHOLDER_BYTES <= CACHE_BYTES:
                    self._entries[digest] = _PLACEHOLDER
                    self.nbytes += _PLACEHOLDER_BYTES
            elif entry is None or entry is _PLACEHOLDER:
                admit[digest] = (b, data)
            elif entry[0] == data:
                chains.append(entry[1])
        self.hits += len(chains)
        self.misses += batch.B - len(chains)
        if batch.B and len(chains) == batch.B:
            rules = _assemble(chains, batch.start)
            if training:
                return rules, None
            rules = list(rules)
            self._remember(key, rules)
            return iter(rules), None
        return iter(()), (admit, key)

    def store(self, miss, layers):
        """After a pass that ran the rulebook, store what ``miss`` asks for,
        from ``layers``: one ``(rule, in_start, out_start)`` per chain layer,
        the rule as the rulebook gives it and the row offsets of the samples
        in the layer's input and output.  A sample to admit whose chain fits
        has it cut out of the rules, replacing its placeholder; a full cache
        cuts no chain.  An eval batch's rules become the memo if they fit."""
        admit, key = miss
        # each sample's chain data bytes, its src as int32, before any chain is cut
        data_bytes = sum(np.diff(o) * (k.itemsize + 4 * s.shape[1]) for (k, _, s), _, o in layers)
        for digest, (b, data) in admit.items():
            size = len(data) + _ENTRY_BYTES + int(data_bytes[b])
            held = self._entries.get(digest, (None, None, 0))[2]  # its placeholder's
            if self.nbytes - held + size > CACHE_BYTES:
                continue
            chain = tuple((k[o[b]:o[b + 1]].copy(),
                           own_src(s[o[b]:o[b + 1]], i[b]).astype(np.int32))
                          for (k, _, s), i, o in layers)
            self.nbytes += size - held
            self._entries[digest] = (data, chain, size)
            self.admitted += 1
        if key is not None:
            self._remember(key, [rule for rule, _, _ in layers])

    def _remember(self, key: tuple, rules: list):
        """Hold ``rules``, the batch rules of the eval batch ``key``
        describes, as the memo, read-only, if they fit."""
        for rule in rules:
            for a in rule:
                a.flags.writeable = False
        size = sum(map(len, key)) + _ENTRY_BYTES + sum(a.nbytes for rule in rules for a in rule)
        if self.nbytes + size <= CACHE_BYTES:
            self._memo = (*key, rules, size)
            self.nbytes += size


def _digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


def _assemble(chains, start: np.ndarray):
    """Yield the batch rules, layer by layer, of samples whose chains are
    ``chains``; the first layer reads input rows ``start``."""
    B = len(chains)
    for layer in zip(*chains):
        counts = [k.shape[0] for k, _ in layer]
        out_keys = np.concatenate([k for k, _ in layer])
        out_sample = np.repeat(np.arange(B), counts)
        src = np.concatenate([s for _, s in layer], dtype=np.int64)
        yield out_keys, out_sample, batch_src(src, start, out_sample, B)
        start = np.zeros(B + 1, np.int64)
        np.cumsum(counts, out=start[1:])
