"""Network assembly: parameterized layer stack, batching, checkpoints.

A :class:`Network` materializes a planned :class:`~latticenet.netspec.NetworkSpec`
into one block per spec layer, one small private class per kind:

* ``_Conv``: a convolution with its rectifier (``kind`` "conv"), as
  ``nCf`` means in the architecture string, or the classifier head, the
  size-1 convolution that the ``output`` token becomes and that produces
  the class logits ("classifier"), with its ``(W, B)`` parameters;
* ``_Pool``: max pooling ("pool"), whose layer is the
  :class:`~latticenet.ops.FilterGeometry` of its window;
* ``_FMP``: fractional max pooling ("fmp"), a pool over regions drawn
  from a seed.

Every block has ``forward(batch, rule, keep_tape)``, which applies its
rule, the :class:`~latticenet.ops.Plan` that :meth:`Network._rules` gives
it, and returns its output batch, tape entry and
multiply-accumulates, ``backward(d, entry, wanted)``, which maps its
output gradient (a convolution's before its rectifier) to its input
gradient (None unless ``wanted``) and accumulates its parameters'
gradients, and ``header()``, the bytes of its checkpoint record that the
architecture fixes.  So the forward pass, the ground states, the backward
pass and the checkpoint are each one loop over the blocks.

A mini-batch travels through the blocks as one
:class:`~latticenet.grid.GridBatch`, so every convolution, pool and FMP
layer builds its rulebook (active output sites and gather index) in one
pass over the whole batch and performs a single dense multiply.  Each
sample's rows keep the order a one-sample batch gives them, and the
backward pass mirrors the forward pass over the same batch rows, so
gradient accumulation order is fixed.  A sample's rows, their order and
its gather index are the same in any batch, but its logits can differ in
the last bits, as the multiply's size picks the BLAS path (ROADMAP item 12).

A pass runs in two phases.  A layer's rule depends on its input's keys
alone, never on a feature value, so :meth:`Network._rules` first gives
every block's rule: the rule cache's on a hit, each layer's
``rulebook(batch, rng)`` over the previous rule's keys otherwise.  Then
:meth:`Network._run` runs the blocks' numbers, each over its own rule,
which it drops as soon as the block has used it.  Each network keeps a
:class:`~latticenet.rulecache.RuleCache`, which tells what it stores and
why a hit changes no bit; an FMP layer with a cached rule builds no regions.
"""

from __future__ import annotations

import os
import struct
import sys
from dataclasses import replace

import numpy as np

from .autograd import (
    ParamState,
    conv_backward,
    input_frame_cheaper,
    pool_backward,
    relu_backward,
)
from .errors import FormatError
from .geometry import GridShape
from .grid import GridBatch, SparseGrid, lattice_code, lattice_from_code
from .netspec import (
    ConvSpec,
    FMPSpec,
    NetworkSpec,
    PoolSpec,
    count_ops,
    parse,
    plan,
    render,
    window,
)
from .ops import (
    FMP_RATIO,
    ConvLayer,
    FilterGeometry,
    FMPLayer,
    conv_forward_batch,
    pool_forward_batch,
    relu_forward_batch,
)
from .rulecache import RuleCache

_CKPT_MAGIC = b"LNCK"
_CKPT_VERSION = 1
# the six u32 after the magic (see Network's checkpoint layout)
_CKPT_HEADER = struct.Struct("<IIIIII")


class _Conv:
    """A convolution and its rectifier (``kind`` "conv"), or the unrectified
    classifier head ("classifier"), with its ``(W, B)`` parameters.
    ``input_grad`` says whether training's backward pass computes this
    block's input gradient (all but the first block)."""

    CODES = {"conv": 0, "classifier": 3}

    def __init__(self, kind: str, layer: ConvLayer, input_grad: bool):
        self.kind, self.layer, self.input_grad = kind, layer, input_grad
        self.params = (ParamState(layer.W), ParamState(layer.B))

    def header(self) -> bytes:
        l = self.layer
        return struct.pack("<BIIII", self.CODES[self.kind], l.geometry.f, l.geometry.s,
                           l.n_in, l.n_out)

    def forward(self, batch: GridBatch, rule, keep_tape: bool):
        """A "conv" block rectifies its fresh output table, rows and ground,
        in place.  The tape plan keeps ``Q`` or, when
        :func:`~latticenet.autograd.input_frame_cheaper` says the backward
        pass costs less in the input frame (the layer grows activity), the
        layer's input rows and ground in its place; a "conv" plan also
        keeps the rectifier's ``mask``, ``rows > 0`` of the rectified rows,
        which has the bits of the unrectified rows' mask, NaN included."""
        l = self.layer
        out, plan = conv_forward_batch(batch, l, rule)
        if keep_tape and input_frame_cheaper(batch.a, out.a, l.geometry.volume, l.n_in,
                                             l.n_out, self.input_grad):
            plan = replace(plan, Q=None, in_rows=batch.rows, in_ground=batch.ground)
        if self.kind == "conv":
            relu_forward_batch(out)
            if keep_tape:
                plan = replace(plan, mask=out.rows > 0)
        return out, (self.kind, l, plan), out.a * l.geometry.volume * l.n_in * l.n_out

    def backward(self, d, entry, wanted: bool):
        dW, dB, d = conv_backward(d, entry[2], self.layer, input_grad=wanted)
        for p, g in zip(self.params, (dW, dB)):
            p.grad += g.astype(p.values.dtype, copy=False)
        return d


class _Pool:
    kind, params = "pool", ()

    def __init__(self, layer: FilterGeometry | FMPLayer):
        self.layer = layer

    def header(self) -> bytes:
        return struct.pack("<BII", 1, self.layer.f, self.layer.s)

    def forward(self, batch: GridBatch, rule, keep_tape: bool):
        out, plan = pool_forward_batch(batch, self.layer, keep_plan=keep_tape, rule=rule)
        return out, ("pool", plan), 0

    def backward(self, d, entry, wanted: bool):
        return pool_backward(d, entry[1]) if wanted else None


class _FMP(_Pool):
    """Fractional max pooling: the pool's ``forward(batch, rule, keep_tape)``
    over the rule ``Network._rules`` gives it.  A training entry stops
    before the first FMP layer, so in training the layer's rulebook always
    runs and draws its seed from ``train_rng``; in eval it uses ``layer.seed``."""

    kind = "fmp"

    def header(self) -> bytes:
        return struct.pack("<Bd", 2, FMP_RATIO)


class Network:
    """A sparse CNN with one classifier head, built from a planned spec.
    Its weights are drawn from ``rng``; ``rng=None`` allocates them zero,
    drawing nothing, for :meth:`load` to fill."""

    def __init__(self, spec: NetworkSpec, classes: int, rng: np.random.Generator | None,
                 dtype=np.float32, fmp_eval_seed: int = 0):
        if spec.planned_sizes is None:
            raise ValueError("network needs a planned spec (call netspec.plan first)")
        if classes < 1:
            raise ValueError(f"a network needs at least 1 class, got classes={classes}")
        if not 0 <= fmp_eval_seed < 2**64:  # a checkpoint stores it as a u64
            raise ValueError(f"fmp_eval_seed must be in [0, 2**64), got {fmp_eval_seed}")
        self.spec, self.classes, self.dtype = spec, classes, dtype
        self.blocks = []
        for ls, (n_in, n_out) in zip(spec.layers, spec.feature_counts()):
            if isinstance(ls, FMPSpec):
                self.blocks.append(_FMP(FMPLayer(fmp_eval_seed)))
                continue
            geometry = FilterGeometry(spec.lattice, *window(ls))
            if isinstance(ls, PoolSpec):
                self.blocks.append(_Pool(geometry))
            else:  # a convolution, or the head: a size-1 convolution to the classes
                conv = isinstance(ls, ConvSpec)
                layer = ConvLayer.init(geometry, n_in, n_out if conv else classes, rng, dtype)
                self.blocks.append(_Conv("conv" if conv else "classifier", layer, bool(self.blocks)))
        self._params = [p for b in self.blocks for p in b.params]
        self.rule_cache = RuleCache()

    # -- parameters -----------------------------------------------------

    def params(self) -> list[ParamState]:
        return self._params

    def input_shape(self) -> GridShape:
        return GridShape(self.spec.lattice, self.spec.planned_sizes[0])

    # -- forward / backward ----------------------------------------------

    def _rules(self, batch: GridBatch, train_rng: np.random.Generator | None = None,
               cache: bool = True) -> list:
        """Every block's rule for ``batch``, a :class:`~latticenet.ops.Plan`
        each in block order, all before any numbers run: a layer's active
        sites and gather index depend on its input's keys alone.

        On a hit the first blocks' rules are the rule cache's; each layer
        left runs its rulebook on a batch of keys only, the previous rule's
        keys and sample offsets at the block's planned size, with no table,
        which no rulebook reads.  An FMP layer draws its seed from
        ``train_rng`` in block order.  On a miss the cache stores what the
        lookup asked for.  An eval entry covers every block and depends on
        the FMP seeds besides the keys; training redraws FMP regions per
        batch, so a training entry stops before the first FMP layer and
        depends on the keys alone.  ``cache=False`` leaves the cache out."""
        training = train_rng is not None
        kinds = [b.kind for b in self.blocks]
        depth = kinds.index("fmp") if training and "fmp" in kinds else len(kinds)
        seeds = [] if training else [b.layer.seed for b in self.blocks if b.kind == "fmp"]
        rules, miss = (self.rule_cache.lookup(batch, struct.pack(f"<{len(seeds)}Q", *seeds),
                                              training) if depth and cache else ([], None))
        for block, m in zip(self.blocks[len(rules):], self.spec.planned_sizes[len(rules):]):
            if rules:
                batch = GridBatch(GridShape(self.spec.lattice, m), rules[-1].out_keys, None,
                                  rules[-1].out_start)
            rules.append(block.layer.rulebook(batch, train_rng))
        if miss:
            self.rule_cache.store(miss, rules[:depth])
        return rules

    def _run(self, batch: GridBatch, train_rng: np.random.Generator | None = None,
             keep_tape: bool = False, cache: bool = True):
        """Run ``batch`` through the blocks, yielding ``(out, entry, macs)``
        per block: its output batch, its tape entry (None unless
        ``keep_tape``) and the multiply-accumulates it performed.  The
        rules come first, from :meth:`_rules`; each block then runs the
        numbers over its own, which the pass drops once the block has used it."""
        rules = self._rules(batch, train_rng, cache)
        for block in self.blocks:
            out, entry, macs = block.forward(batch, rules.pop(0), keep_tape)
            yield out, entry if keep_tape else None, macs
            # free this block's plan, unless kept, before the next allocates
            batch, entry = out, None

    def forward_batch(self, grids: list[SparseGrid], *, train_rng: np.random.Generator | None = None,
                      keep_tape: bool = False, cache: bool = True):
        """Logits for a batch; one rulebook pass and one dense multiply per layer.

        Returns ``(logits, tape, macs)`` where ``macs`` is the total
        multiply-accumulate count actually performed on active sites.  Tape
        entries are ``(kind, layer, plan)`` for conv and classifier layers
        and ``("pool", plan)`` for pools and FMP, where ``plan`` is the
        layer's :class:`~latticenet.ops.Plan` over the batch's rows
        (``plan[b]`` is sample ``b``'s).  A conv or classifier plan holds
        either the gather matrix ``Q`` or, on a layer whose backward pass
        runs in the input frame, the layer's input rows and ground; a conv
        plan also holds its rectifier's mask (see ``_Conv.forward``).  The
        tape has one entry per block, which is one per spec layer, in
        order.  ``cache=False`` neither reads nor fills the rule cache, for
        batches that never repeat.  Every grid must have the planned
        :meth:`input_shape`, and all must share one ground state, bit for
        bit (see :meth:`GridBatch.of`), which every layer then maps once.
        """
        batch = GridBatch.of(list(grids))
        want, got = self.input_shape(), batch.shape
        if got != want:
            raise ValueError(f"network input is {want.lattice.value} field {want.m}, "
                             f"grids are {got.lattice.value} field {got.m}")
        tape, macs = [], 0
        for batch, entry, block_macs in self._run(batch, train_rng, keep_tape, cache):
            macs += block_macs
            if keep_tape:
                tape.append(entry)
        # the last block is the classifier; a sample with an inactive head
        # site takes the ground logits
        logits = np.tile(batch.ground, (batch.B, 1))
        logits[batch.sample_ids()] = batch.rows
        return logits, tape, macs

    def forward(self, grid: SparseGrid) -> np.ndarray:
        logits, _, _ = self.forward_batch([grid])
        return logits[0]

    def backward_batch(self, tape, d_logits: np.ndarray, *, input_grad: bool = True):
        """Accumulate parameter gradients from a forward tape.

        Returns the gradient with respect to each sample's input rows, or
        None unless ``input_grad``; then the first block computes none.
        """
        # each sample's logit gradient goes to its head rows (none if inactive)
        head = tape[-1][-1]
        d = d_logits[np.repeat(np.arange(len(head)), np.diff(head.out_start))]
        for i in reversed(range(len(tape))):
            if tape[i][0] == "conv":  # masked here so the unmasked d is freed before conv_backward
                d = relu_backward(d, tape[i][2].mask)
            d = self.blocks[i].backward(d, tape[i], input_grad or i > 0)
        return np.split(d, tape[0][-1].in_start[1:-1]) if input_grad else None

    # -- ground states ----------------------------------------------------

    def ground_states(self) -> list[np.ndarray]:
        """Per-block output ground vectors (an all-ground field's values),
        one per spec layer, a convolution's after its rectifier; the rule
        cache takes no part."""
        g = SparseGrid.empty(self.input_shape(), np.zeros(self.spec.n_input, self.dtype))
        return [out.ground.copy() for out, _, _ in self._run(GridBatch.of([g]), cache=False)]

    # -- checkpoints --------------------------------------------------------
    #
    # Layout (little-endian):
    #   "LNCK", then _CKPT_HEADER: u32 version, u32 lattice, u32 n_input,
    #   u32 classes, u32 input field size, u32 arch length; arch utf-8,
    #   u32 block count, then per block its header (the block's header()):
    #     u8 kind (0 conv, 1 pool, 2 fmp, 3 classifier), then
    #     conv/classifier: u32 f, u32 s, u32 n_in, u32 n_out
    #     pool:            u32 p, u32 s (its FilterGeometry's f and s)
    #     fmp:             f64 ratio, always FMP_RATIO
    #   then the FMP u64 seed, or the W (row-major) and B float32 values
    #   of a conv or classifier.  The architecture string fixes every
    #   header, so load compares them byte for byte.

    def save(self, path):
        """Write the checkpoint straight to ``path``, one parameter at a time."""
        arch = render(self.spec).encode()
        head = _CKPT_HEADER.pack(_CKPT_VERSION, lattice_code(self.spec.lattice), self.spec.n_input,
                                 self.classes, self.spec.planned_sizes[0], len(arch))
        with open(path, "wb") as fh:
            fh.write(_CKPT_MAGIC + head + arch + struct.pack("<I", len(self.blocks)))
            for b in self.blocks:
                fh.write(b.header())
                if b.kind == "fmp":
                    fh.write(struct.pack("<Q", b.layer.seed))
                for p in b.params:  # writing the array itself raised peak RSS (ROADMAP)
                    fh.write(p.values.astype("<f4").tobytes())

    @classmethod
    def load(cls, path) -> "Network":
        """Read a checkpoint; any malformed file raises :class:`FormatError`.

        The network is built by its constructor with ``rng=None``, so its
        weights are allocated, not drawn: every value comes from the file,
        so loading costs one copy of the parameters and consumes no random
        numbers.  The file's size is checked against the
        architecture's parameter count before anything is allocated."""
        with open(path, "rb") as fh:
            return cls._read(_Reader(fh, path), path)

    @classmethod
    def _read(cls, r: "_Reader", path) -> "Network":
        """:meth:`load` over the open reader ``r`` of ``path``."""
        if r.take(4) != _CKPT_MAGIC:
            raise FormatError(f"{path} is not a network checkpoint")
        version, lat, n_input, classes, field, alen = r.unpack(_CKPT_HEADER.format)
        if version != _CKPT_VERSION:
            raise FormatError(f"{path}: checkpoint version {version}, expected {_CKPT_VERSION}")
        lattice = lattice_from_code(lat)
        if n_input < 1 or classes < 1:
            raise FormatError(f"{path}: {n_input} input features and {classes} classes")
        arch = r.take(alen)
        try:
            arch = str(arch, "utf-8")
            spec = plan(parse(arch, lattice, n_input), input_size=field)
        except ValueError as e:  # also bad utf-8 and every parse or plan error
            raise FormatError(f"{path}: bad architecture in checkpoint: {e}") from None
        (nblocks,) = r.unpack("<I")
        # the file must hold every parameter before the network is allocated
        n_params = count_ops(spec, "dense", classes)["total_params"]
        if 4 * n_params > r.remaining():
            raise FormatError(f"{path}: checkpoint truncated: {n_params} parameters need "
                              f"{4 * n_params} bytes, {r.remaining()} left")
        net = cls(spec, classes, None)
        if nblocks != len(net.blocks):
            raise FormatError(f"{path}: checkpoint has {nblocks} blocks, architecture "
                              f"needs {len(net.blocks)}")
        for i, b in enumerate(net.blocks):
            head = b.header()
            got = r.take(len(head))
            if got != head:
                raise FormatError(f"{path}: block {i} header {got.hex()} does not match "
                                  f"the architecture's {b.kind} block {head.hex()}")
            if b.kind == "fmp":
                (b.layer.seed,) = r.unpack("<Q")
            for p in b.params:
                r.floats_into(p.values)
        if r.remaining():
            raise FormatError(f"{path}: {r.remaining()} unexpected bytes after the last block")
        return net


class _Reader:
    """Bounds-checked little-endian reads from an open checkpoint file; the
    parameters are read straight into their arrays, with no copy of the
    file in between."""

    def __init__(self, fh, path):
        self.fh, self.path = fh, path
        self.size = os.fstat(fh.fileno()).st_size
        self.off = 0

    def remaining(self) -> int:
        return self.size - self.off

    def _fill(self, buf):
        """Fill ``buf`` with the file's next bytes."""
        size = memoryview(buf).nbytes
        # a short read means the file shrank after it was opened
        if size > self.remaining() or self.fh.readinto(buf) < size:
            raise FormatError(f"{self.path}: checkpoint truncated at byte {self.size}, "
                              f"{size} more bytes expected at byte {self.off}")
        self.off += size

    def take(self, size: int) -> bytearray:
        data = bytearray(size)
        self._fill(data)
        return data

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def floats_into(self, out: np.ndarray):
        """Fill the contiguous float32 array ``out`` from the file's
        little-endian values."""
        self._fill(out)
        if sys.byteorder == "big":
            out.byteswap(inplace=True)
