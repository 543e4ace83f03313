"""Network assembly: parameterized layer stack, batching, checkpoints.

A :class:`Network` materializes a planned :class:`~latticenet.netspec.NetworkSpec`
into one block per spec layer, one small private class per kind:

* ``_Conv``: a convolution with its rectifier (``kind`` "conv"), as
  ``nCf`` means in the architecture string, or the classifier head, the
  size-1 convolution that the ``output`` token becomes and that produces
  the class logits ("classifier"), with its ``(W, B)`` parameters;
* ``_Pool``: max pooling ("pool");
* ``_FMP``: fractional max pooling ("fmp"), a pool over regions drawn
  from a seed.

Every block has ``forward(batch, rule, keep_tape)``, which applies the
rule that :meth:`Network._run` picks, the rule cache's or its layer's
``rulebook(batch, rng)``, and returns its output batch, tape entry and
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
gradient accumulation order is fixed and results are bit-identical
whatever the batch composition.

Each network keeps a :class:`~latticenet.rulecache.RuleCache` of the
rulebook results it has computed, as many as fit under its bound; it
evicts nothing.  Training keeps each sample's chain, from its first
sighting; when every sample of a training batch has one, each rulebook
layer takes its batch rule from the chains.  A training chain stops at the
first FMP layer, whose regions are redrawn per batch.  Eval keeps each
batch's own rules, every layer's, keyed by the batch's keys and the FMP
seeds, so ``fit``'s held-out pass, which evaluates the same chunks every
epoch, runs no rulebook from the second epoch on.  Each sample
gets the same rows in either case, so every output, tape and gradient is
bit-identical.  An FMP layer with a cached rule builds no regions.
"""

from __future__ import annotations

import io
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
    OutputSpec,
    PoolSpec,
    count_ops,
    parse,
    plan,
    render,
)
from .ops import (
    ConvLayer,
    FilterGeometry,
    FMPLayer,
    PoolLayer,
    conv_forward_batch,
    pool_forward_batch,
    relu_forward_batch,
)
from .rulecache import RuleCache

_CKPT_MAGIC = b"LNCK"
_CKPT_VERSION = 1


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
        """A "conv" block rectifies its fresh output table, rows and grounds,
        in place.  The tape plan keeps ``Q`` or, when
        :func:`~latticenet.autograd.input_frame_cheaper` says the backward
        pass costs less in the input frame (the layer grows activity), the
        layer's input rows and grounds in its place; a "conv" plan also
        keeps the rectifier's ``mask``, ``rows > 0`` of the rectified rows,
        which has the bits of the unrectified rows' mask, NaN included."""
        l = self.layer
        out, plan = conv_forward_batch(batch, l, rule)
        if keep_tape and input_frame_cheaper(batch.a, out.a, l.geometry.volume, l.n_in,
                                             l.n_out, batch.B, self.input_grad):
            plan = replace(plan, Q=None, in_rows=batch.rows, in_grounds=batch.grounds)
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

    def __init__(self, layer: PoolLayer | FMPLayer):
        self.layer = layer

    def header(self) -> bytes:
        return struct.pack("<BII", 1, self.layer.p, self.layer.s)

    def forward(self, batch: GridBatch, rule, keep_tape: bool):
        out, plan = pool_forward_batch(batch, self.layer, keep_plan=keep_tape, rule=rule)
        return out, ("pool", plan), 0

    def backward(self, d, entry, wanted: bool):
        return pool_backward(d, entry[1]) if wanted else None


class _FMP(_Pool):
    """Fractional max pooling: the pool's ``forward(batch, rule, keep_tape)``
    over the rule ``_run`` picks.  A training chain stops before the first
    FMP layer, so in training the layer's rulebook always runs and draws its
    seed from ``train_rng``; in eval it uses ``layer.seed``."""

    kind = "fmp"

    def header(self) -> bytes:
        return struct.pack("<Bd", 2, self.layer.ratio)


class Network:
    """A sparse CNN with one classifier head, built from a planned spec."""

    def __init__(self, spec: NetworkSpec, classes: int, rng: np.random.Generator,
                 dtype=np.float32, fmp_eval_seed: int = 0):
        self._assemble(spec, classes, dtype, fmp_eval_seed,
                       lambda geom, n_in, n_out: ConvLayer.init(geom, n_in, n_out, rng,
                                                                dtype=dtype))

    def _assemble(self, spec: NetworkSpec, classes: int, dtype, fmp_eval_seed: int, make_conv):
        """Build the blocks of ``spec``; ``make_conv(geometry, n_in, n_out)``
        makes each convolution and the classifier head, in block order."""
        if spec.planned_sizes is None:
            raise ValueError("network needs a planned spec (call netspec.plan first)")
        self.spec = spec
        self.classes = classes
        self.dtype = dtype
        self.blocks = []
        n = spec.n_input
        for ls in spec.layers:
            if isinstance(ls, ConvSpec):
                conv = make_conv(FilterGeometry(spec.lattice, ls.f, ls.s), n, ls.n_out)
                self.blocks.append(_Conv("conv", conv, bool(self.blocks)))
                n = ls.n_out
            elif isinstance(ls, PoolSpec):
                self.blocks.append(_Pool(PoolLayer(spec.lattice, ls.p, ls.s)))
            elif isinstance(ls, FMPSpec):
                self.blocks.append(_FMP(FMPLayer(spec.lattice, ls.ratio, fmp_eval_seed)))
            elif isinstance(ls, OutputSpec):
                head = make_conv(FilterGeometry(spec.lattice, 1, 1), n, classes)
                self.blocks.append(_Conv("classifier", head, bool(self.blocks)))
        self._params = [p for b in self.blocks for p in b.params]
        self.rule_cache = RuleCache()

    # -- parameters -----------------------------------------------------

    def params(self) -> list[ParamState]:
        return self._params

    def param_count(self) -> int:
        return sum(p.values.size for p in self._params)

    def input_shape(self) -> GridShape:
        return GridShape(self.spec.lattice, self.spec.planned_sizes[0])

    # -- forward / backward ----------------------------------------------

    def _chain_context(self, training: bool) -> tuple[int, bytes]:
        """How many rulebook layers a cache entry covers, and the bytes of
        what it depends on besides the input keys and the planned network:
        each FMP seed among those layers.  Training redraws FMP regions per
        batch, so there a chain stops at the first FMP layer and depends on
        the keys alone."""
        kinds = [b.kind for b in self.blocks]
        depth = kinds.index("fmp") if training and "fmp" in kinds else len(kinds)
        seeds = [b.layer.seed for b in self.blocks[:depth] if b.kind == "fmp"]
        return depth, struct.pack(f"<{len(seeds)}Q", *seeds)

    def _run(self, batch: GridBatch, train_rng: np.random.Generator | None = None,
             keep_tape: bool = False, cache: bool = True):
        """Run ``batch`` through the blocks, yielding ``(out, entry, macs)``
        per block: its output batch, its tape entry (None unless
        ``keep_tape``) and the multiply-accumulates it performed.

        Each block's rule is picked here: the first ``depth`` blocks take
        theirs from the cache when the batch hits; otherwise its layer's
        rulebook runs, and the cache stores what the lookup asked for: the
        chains of training samples to admit, or the eval batch's rules.
        ``cache=False`` leaves the cache out altogether."""
        training = train_rng is not None
        depth, context = self._chain_context(training)
        cached, miss = (self.rule_cache.lookup(batch, context, training) if depth and cache
                        else (iter(()), None))
        rules = []
        for block in self.blocks:
            rule = next(cached, None) or block.layer.rulebook(batch, train_rng)
            out, entry, macs = block.forward(batch, rule, keep_tape)
            if miss and len(rules) < depth:
                rules.append((rule, batch.start, out.start))
            yield out, entry if keep_tape else None, macs
            # free this block's plan and rule, unless kept, before the next allocates
            batch, entry, rule = out, None, None
        if miss:
            self.rule_cache.store(miss, rules)

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
        runs in the input frame, the layer's input rows and grounds; a conv
        plan also holds its rectifier's mask (see ``_Conv.forward``).  The
        tape has one entry per block, which is one per spec layer, in
        order.  ``cache=False`` neither reads nor fills the rule cache, for
        batches that never repeat.  Every grid must have the planned
        :meth:`input_shape`.
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
        # site takes its ground logits
        logits = batch.grounds.copy()
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
        return [out.grounds[0].copy() for out, _, _ in self._run(GridBatch.of([g]), cache=False)]

    # -- checkpoints --------------------------------------------------------
    #
    # Layout (little-endian):
    #   "LNCK" u32 version, u32 lattice, u32 n_input, u32 classes,
    #   u32 input field size, u32 arch length, arch utf-8,
    #   u32 block count, then per block its header (the block's header()):
    #     u8 kind (0 conv, 1 pool, 2 fmp, 3 classifier), then
    #     conv/classifier: u32 f, u32 s, u32 n_in, u32 n_out
    #     pool:            u32 p, u32 s
    #     fmp:             f64 ratio
    #   then the FMP u64 seed, or the W (row-major) and B float32 values
    #   of a conv or classifier.  The architecture string fixes every
    #   header, so load compares them byte for byte.

    def save(self, path):
        buf = io.BytesIO()
        arch = render(self.spec).encode()
        buf.write(_CKPT_MAGIC)
        buf.write(struct.pack("<IIIII", _CKPT_VERSION, lattice_code(self.spec.lattice),
                              self.spec.n_input, self.classes, self.spec.planned_sizes[0]))
        buf.write(struct.pack("<I", len(arch)))
        buf.write(arch)
        buf.write(struct.pack("<I", len(self.blocks)))
        for b in self.blocks:
            buf.write(b.header())
            if b.kind == "fmp":
                buf.write(struct.pack("<Q", b.layer.seed))
            for p in b.params:
                buf.write(p.values.astype("<f4").tobytes())
        with open(path, "wb") as fh:
            fh.write(buf.getvalue())

    @classmethod
    def load(cls, path) -> "Network":
        """Read a checkpoint; any malformed file raises :class:`FormatError`.

        The network is built by the same block loop as a training network,
        but its weights are allocated, not drawn: every value comes from the
        file, so loading costs one copy of the parameters and consumes no
        random numbers.  The file's size is checked against the
        architecture's parameter count before anything is allocated."""
        with open(path, "rb") as fh:
            return cls._read(_Reader(fh, path), path)

    @classmethod
    def _read(cls, r: "_Reader", path) -> "Network":
        """:meth:`load` over the open reader ``r`` of ``path``."""
        if r.take(4) != _CKPT_MAGIC:
            raise FormatError(f"{path} is not a network checkpoint")
        version, lat, n_input, classes, field, alen = r.unpack("<IIIIII")
        if version != _CKPT_VERSION:
            raise FormatError(f"{path}: checkpoint version {version}, expected {_CKPT_VERSION}")
        lattice = lattice_from_code(lat)
        if n_input < 1 or classes < 1:
            raise FormatError(f"{path}: {n_input} input features and {classes} classes")
        arch = r.take(alen)
        try:
            arch = str(arch, "utf-8")
            spec = plan(parse(arch, lattice, n_input), input_size=field)
            GridShape(lattice, field)  # an FMP plan takes any field; a grid has a maximum
        except ValueError as e:  # also bad utf-8 and every parse or plan error
            raise FormatError(f"{path}: bad architecture in checkpoint: {e}") from None
        (nblocks,) = r.unpack("<I")
        # the file must hold every parameter before the network is allocated
        n_params = count_ops(spec, "dense", classes)["total_params"]
        if 4 * n_params > r.remaining():
            raise FormatError(f"{path}: checkpoint truncated: {n_params} parameters need "
                              f"{4 * n_params} bytes, {r.remaining()} left")
        net = cls.__new__(cls)
        try:
            net._assemble(spec, classes, np.float32, 0, _zero_conv)
        except ValueError as e:  # e.g. an FMP layer on a lattice other than cubic
            raise FormatError(f"{path}: {e}") from None
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


def _zero_conv(geometry: FilterGeometry, n_in: int, n_out: int) -> ConvLayer:
    """A float32 convolution with zero ``W`` and ``B``, for
    :meth:`Network.load` to fill from the checkpoint."""
    return ConvLayer(geometry, n_in, n_out,
                     np.zeros((geometry.volume * n_in, n_out), np.float32),
                     np.zeros(n_out, np.float32))


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
