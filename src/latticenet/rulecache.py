"""A bounded cache of rulebook results, every entry a list of rules.

A rule is the :class:`~latticenet.ops.Plan` that a layer's rulebook gives
for a batch: its output keys, gather index ``src`` and the samples' row
offsets in the layer's input and output.  An entry holds one rule per
rulebook layer of a network (convolution, pool, FMP and classifier, in
order), so a hit hands the forward ops the rules the rulebook would have
given.  A network runs grids of its planned input field only, so the
rules depend on nothing but the input key sets and the FMP regions, and a
network that sees the same key sets again can reuse them instead of
running the rulebook.  Map reuse of this kind follows TorchSparse (Tang
et al. 2022, arXiv:2204.10319).

Training keeps an entry per sample, stored at the key set's first
sighting: ``fit`` never augments, so every training key set comes back
the next epoch, in a freshly permuted batch.  A sample's entry is its own
plans as ``plan[b]`` gives them, with ``src`` as int32:
:meth:`~latticenet.ops.Plan.cut` cuts all of a batch's admitted samples
out of a layer's plan in one pass, and each entry's plans are views of
those arrays, which hold the admitted samples' rows and no other.  A
batch whose samples all hit gets its whole chain of rules from one
:meth:`~latticenet.ops.Plan.join`: one concatenation of the keys and one
of ``src`` across every layer and sample, each layer's rule a view of
them.  The batched rulebook groups output rows by sample, keys ascending
within each, and gives every sample the rows and gather index it gets
alone, so the joined rules equal the batched pass bit for bit.  A
training entry stops before the first FMP layer, whose regions are
redrawn per batch.

Eval keeps an entry per batch, the pass's own Plans: ``fit``'s held-out
pass evaluates the same chunks in the same order every epoch, so the same
batch gets its Plans back whole, with no join.  Every hit hands the ops
the very objects the entry holds; a Plan is frozen and every array an
entry holds is read-only, so the ops complete copies and the entry keeps
bare rules, with no ``Q`` or ``argmax``.

An entry is keyed by the bytes themselves: a kind byte, the FMP seeds it
covers, then a training sample's keys, or an eval batch's sample starts
and keys.  The kind byte keeps the two lookups apart, since a training
sample's key bytes can equal a one-sample eval batch's start and key
bytes.  An entry is stored only if it fits in what is left of
:data:`CACHE_BYTES`, and nothing stored leaves.
"""

from __future__ import annotations

import numpy as np

from .grid import GridBatch
from .ops import Plan

CACHE_BYTES = 64 << 20
"""Bound on the bytes a network's cache holds, training and eval entries
together.  Nothing is evicted: a batch hits only if every sample hits, and
``fit`` visits each sample once an epoch, so a set that outgrows the bound
would keep cutting entries that leave before they come back."""

_ENTRY_BYTES = 512  # an entry's list, Plans and array headers, besides its data
_TRAIN, _EVAL = b"t", b"e"  # the kind byte that leads a training and an eval key


class RuleCache:
    """Training and eval entries in one map under one bound, evicting nothing.

    ``_entries`` maps a key (see the module docstring) to a list of
    :class:`~latticenet.ops.Plan`, one per cached rulebook layer: a
    training sample's own plans or an eval batch's.  The counters count
    sample lookups (``hits``, ``misses``), entries stored (``admitted``)
    and the bytes held (``nbytes``).
    """

    def __init__(self):
        self._entries: dict = {}
        self.hits = self.misses = self.admitted = self.nbytes = 0

    def __str__(self):
        return (f"rule cache: {self.hits} hits, {self.misses} misses, {self.admitted} entries "
                f"stored, {self.nbytes} of {CACHE_BYTES} bytes held")

    def lookup(self, batch: GridBatch, context: bytes, training: bool):
        """Look ``batch`` up under ``context``, the bytes of what its rules
        depend on besides its keys: sample by sample if ``training``, else
        whole.

        Returns ``(rules, miss)``.  ``rules`` yields the batch's rule, a
        :class:`~latticenet.ops.Plan`, per cached layer when the batch
        hits, and ``miss`` is None; else ``rules`` yields nothing, the
        rulebook must run, and ``miss`` goes to :meth:`store` with the
        pass's rules: it maps each key to store to the batch position of
        its training sample, or to None for the eval batch's own key.
        """
        if not training:
            key = _EVAL + context + batch.start.tobytes() + batch.keys.tobytes()
            plans = self._entries.get(key)
            if plans is None:
                self.misses += batch.B
                return iter(()), {key: None}
            self.hits += batch.B
            return iter(plans), None
        entries, admit = [], {}
        start = batch.start.tolist()
        for b in range(batch.B):
            key = _TRAIN + context + batch.keys[start[b]:start[b + 1]].tobytes()
            plans = self._entries.get(key)
            if plans is None:
                admit[key] = b
            else:
                entries.append(plans)
        self.hits += len(entries)
        self.misses += batch.B - len(entries)
        if batch.B and len(entries) == batch.B:
            return iter(Plan.join(entries)), None
        return iter(()), admit

    def store(self, miss: dict, plans: list[Plan]):
        """After a pass that ran the rulebook, store what ``miss`` asks for,
        from ``plans``: the rule of each cached layer, as the rulebook gives
        it.  An eval batch keeps ``plans`` themselves; the admitted training
        samples are cut out of each plan in one pass (:meth:`Plan.cut`),
        and sample ``b`` keeps its own plans, their keys copied and their
        ``src`` as int32.  Only what fits is stored, its arrays made
        read-only, and a sample whose entry does not fit is not cut."""
        # a layer's out_start is the next layer's in_start: count it once
        arrays = {id(a): a for p in plans for a in (p.out_keys, p.src, p.in_start, p.out_start)}
        batch_bytes = sum(a.nbytes for a in arrays.values())
        # each sample's entry bytes, its src as int32, from its row counts before any cut
        sample_bytes = sum(np.diff(p.out_start) * (p.out_keys.itemsize + 4 * p.src.shape[1])
                           + 2 * (p.in_start.itemsize + p.out_start.itemsize) for p in plans)
        admit = {}
        for key, b in miss.items():
            size = len(key) + _ENTRY_BYTES + (batch_bytes if b is None else int(sample_bytes[b]))
            if self.nbytes + size > CACHE_BYTES:
                continue
            if b is None:
                for p in plans:
                    for a in (p.out_keys, p.src, p.in_start, p.out_start):
                        a.flags.writeable = False
                self._entries[key] = plans
            else:
                admit[key] = b
            self.nbytes += size
            self.admitted += 1
        if admit:
            samples = list(admit.values())
            cuts = [p.cut(samples) for p in plans]  # per layer, a plan per admitted sample
            self._entries.update(zip(admit, map(list, zip(*cuts))))
