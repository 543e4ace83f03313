"""Network assembly: parameterized layer stack, batching, checkpoints.

A :class:`Network` materializes a planned :class:`~latticenet.netspec.NetworkSpec`
into parameterized layers: every convolution is followed by a rectifier,
and the ``output`` token becomes a size-1 convolution producing the class
logits.  A mini-batch travels through the layers as one
:class:`~latticenet.grid.GridBatch`, so every convolution, pool and FMP
layer builds its rulebook (active output sites and gather index) in one
pass over the whole batch and performs a single dense multiply.  One
loop over the blocks serves the forward pass and the ground states.
Each sample's rows keep the order a one-sample batch gives them, and the
backward pass mirrors the forward pass over the same batch rows, so
gradient accumulation order is fixed and results are bit-identical
whatever the batch composition.

Each network keeps a :class:`~latticenet.rulecache.RuleCache` of the
rulebook results of the samples it has seen.  When every sample of a batch
has a cached chain, each rulebook layer takes its batch rule from the
chains instead of running the rulebook.  Each sample gets the same rows
in either case, so the assembled rule, and with it every output, tape and
gradient, is bit-identical.  A training chain stops at the first FMP
layer, whose regions are redrawn per batch; an eval chain covers every
layer and is keyed by the FMP seeds.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, replace

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
    Plan,
    PoolLayer,
    conv_forward_batch,
    conv_rulebook,
    fmp_forward_batch,
    fmp_regions,
    fmp_rulebook,
    pool_forward_batch,
    relu_forward_batch,
)
from .rulecache import RuleCache

_CKPT_MAGIC = b"LNCK"
_CKPT_VERSION = 1


@dataclass
class _Block:
    kind: str  # conv | relu | pool | fmp | classifier
    layer: object = None
    params: tuple = ()  # (W, B) ParamStates of conv and classifier blocks

    def header(self) -> bytes:
        """The bytes of this block's checkpoint record that the architecture fixes."""
        l = self.layer
        if self.kind == "pool":
            return struct.pack("<BII", 1, l.p, l.s)
        if self.kind == "fmp":
            return struct.pack("<Bd", 2, l.ratio)
        code = 0 if self.kind == "conv" else 3
        return struct.pack("<BIIII", code, l.geometry.f, l.geometry.s, l.n_in, l.n_out)


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
        self.fmp_eval_seed = fmp_eval_seed
        self.blocks: list[_Block] = []
        n = spec.n_input
        for ls in spec.layers:
            if isinstance(ls, ConvSpec):
                conv = make_conv(FilterGeometry(spec.lattice, ls.f, ls.s), n, ls.n_out)
                self.blocks.append(_Block("conv", conv, (ParamState(conv.W), ParamState(conv.B))))
                self.blocks.append(_Block("relu"))
                n = ls.n_out
            elif isinstance(ls, PoolSpec):
                self.blocks.append(_Block("pool", PoolLayer(spec.lattice, ls.p, ls.s)))
            elif isinstance(ls, FMPSpec):
                self.blocks.append(_Block("fmp", FMPLayer(spec.lattice, ls.ratio, fmp_eval_seed)))
            elif isinstance(ls, OutputSpec):
                head = make_conv(FilterGeometry(spec.lattice, 1, 1), n, classes)
                self.blocks.append(_Block("classifier", head,
                                          (ParamState(head.W), ParamState(head.B))))
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

    def _chain_context(self, m: int, training: bool) -> tuple[int, bytes]:
        """How many rulebook layers a cached chain covers, and the bytes of
        what it depends on besides the input keys and the architecture: the
        input field size ``m`` and, in eval, each FMP seed.  Training redraws
        FMP regions per batch, so there the chain stops at the first FMP
        layer.  (The layers check the lattice before they use a rule.)"""
        rule_blocks = [b for b in self.blocks if b.kind != "relu"]
        kinds = [b.kind for b in rule_blocks]
        depth = kinds.index("fmp") if training and "fmp" in kinds else len(kinds)
        seeds = [b.layer.seed for b in rule_blocks[:depth] if b.kind == "fmp"]
        return depth, struct.pack(f"<2I{len(seeds)}Q", m, depth, *seeds)

    def _run(self, batch: GridBatch, train_rng: np.random.Generator | None = None,
             keep_tape: bool = False):
        """Run ``batch`` through the blocks, yielding ``(out, entry, macs)``
        per block: its output batch, its tape entry (None unless
        ``keep_tape``) and the multiply-accumulates it performed.

        A convolution's tape plan keeps ``Q`` or, when
        :func:`~latticenet.autograd.input_frame_cheaper` says its backward
        pass costs less in the input frame (the layer grows activity), the
        layer's input rows and grounds in its place.

        The first ``depth`` rulebook layers take their rules from the cache
        when every sample of the batch hits; otherwise the rulebook runs,
        and samples seen for the second time have their chains stored."""
        depth, context = self._chain_context(batch.shape.m, train_rng is not None)
        cached, admit = self.rule_cache.lookup(batch, context) if depth else (iter(()), {})
        plans = []
        for block in self.blocks:
            layer, macs = block.layer, 0
            if block.kind == "relu":
                out, mask = relu_forward_batch(batch)
                entry = ("relu", mask)
            else:
                if block.kind == "fmp":
                    seed = int(train_rng.integers(0, 2**31)) if train_rng is not None else layer.seed
                    regions = fmp_regions(batch.shape.m, layer.ratio, seed)
                rule = next(cached, None)
                if rule is None:
                    rule = (fmp_rulebook(batch, regions) if block.kind == "fmp"
                            else conv_rulebook(batch, layer.geometry))
                if block.kind in ("conv", "classifier"):
                    out, plan = conv_forward_batch(batch, layer, rule)
                    macs = plan.Q.shape[0] * plan.Q.shape[1] * layer.n_out
                    # training's backward_batch(input_grad=False) skips the first
                    # block's input gradient
                    if keep_tape and input_frame_cheaper(batch.a, out.a, layer.geometry.volume,
                                                         layer.n_in, layer.n_out, batch.B,
                                                         block is not self.blocks[0]):
                        plan = replace(plan, Q=None, in_rows=batch.rows,
                                       in_grounds=batch.grounds)
                    head = (block.kind, layer)
                elif block.kind == "pool":
                    out, plan = pool_forward_batch(batch, layer, keep_plan=keep_tape, rule=rule)
                    head = ("pool",)
                else:
                    out, plan = fmp_forward_batch(batch, layer, regions, keep_plan=keep_tape,
                                                  rule=rule)
                    head = ("pool",)
                if admit and len(plans) < depth:
                    plans.append(Plan(rule[0], rule[2], batch.start, out.start))
                entry = (*head, plan)
            yield out, entry if keep_tape else None, macs
            batch = out
        if admit:
            self.rule_cache.admit(admit, plans)

    def forward_batch(self, grids: list[SparseGrid], *, train_rng: np.random.Generator | None = None,
                      keep_tape: bool = False):
        """Logits for a batch; one rulebook pass and one dense multiply per layer.

        Returns ``(logits, tape, macs)`` where ``macs`` is the total
        multiply-accumulate count actually performed on active sites.  Tape
        entries are ``(kind, layer, plan)`` for conv and classifier layers,
        ``("pool", plan)`` for pools and FMP and ``("relu", mask)``, where
        ``plan`` is the layer's :class:`~latticenet.ops.Plan` over the
        batch's rows (``plan[b]`` is sample ``b``'s) and ``mask`` covers the
        batch's rows.  A conv or classifier plan holds either the gather
        matrix ``Q`` or, on a layer whose backward pass runs in the input
        frame, the layer's input rows and grounds (see :meth:`_run`).
        """
        batch = GridBatch.of(list(grids))
        tape, macs = [], 0
        for batch, entry, block_macs in self._run(batch, train_rng, keep_tape):
            macs += block_macs
            if keep_tape:
                tape.append(entry)
        # the last block is the classifier; a sample with an inactive head
        # site takes its ground logits
        logits = batch.grounds.astype(batch.rows.dtype)
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
            entry, wanted = tape[i], input_grad or i > 0
            kind = entry[0]
            if kind == "relu":
                d = relu_backward(d, entry[1])
            elif kind == "pool":
                d = pool_backward(d, entry[1]) if wanted else None
            else:
                _, layer, plan = entry
                dW, dB, d = conv_backward(d, plan, layer, input_grad=wanted)
                for p, g in zip(self.blocks[i].params, (dW, dB)):
                    p.grad += g.astype(p.values.dtype, copy=False)
        return np.split(d, tape[0][-1].in_start[1:-1]) if input_grad else None

    # -- ground states ----------------------------------------------------

    def ground_states(self) -> list[np.ndarray]:
        """Per-block output ground vectors (an all-ground field's values)."""
        g = SparseGrid.empty(self.input_shape(), np.zeros(self.spec.n_input, self.dtype))
        return [out.grounds[0].copy() for out, _, _ in self._run(GridBatch.of([g]))]

    # -- checkpoints --------------------------------------------------------
    #
    # Layout (little-endian):
    #   "LNCK" u32 version, u32 lattice, u32 n_input, u32 classes,
    #   u32 input field size, u32 arch length, arch utf-8,
    #   u32 block count, then per block its header (_Block.header):
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
        param_blocks = [b for b in self.blocks if b.kind != "relu"]
        buf.write(struct.pack("<I", len(param_blocks)))
        for b in param_blocks:
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
            r = _Reader(fh.read(), path)
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
        param_blocks = [b for b in net.blocks if b.kind != "relu"]
        if nblocks != len(param_blocks):
            raise FormatError(f"{path}: checkpoint has {nblocks} blocks, architecture "
                              f"needs {len(param_blocks)}")
        for i, b in enumerate(param_blocks):
            head = b.header()
            got = r.take(len(head))
            if got != head:
                raise FormatError(f"{path}: block {i} header {got.hex()} does not match "
                                  f"the architecture's {b.kind} block {head.hex()}")
            if b.kind == "fmp":
                (b.layer.seed,) = r.unpack("<Q")
            for p in b.params:
                p.values[...] = r.floats(p.values.size).reshape(p.values.shape)
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
    """Bounds-checked little-endian reads from a checkpoint's bytes, through
    a memoryview so that taking a slice copies nothing."""

    def __init__(self, data: bytes, path):
        self.data = memoryview(data)
        self.path = path
        self.off = 0

    def remaining(self) -> int:
        return len(self.data) - self.off

    def take(self, size: int) -> memoryview:
        if size > self.remaining():
            raise FormatError(f"{self.path}: checkpoint truncated at byte {len(self.data)}, "
                              f"{size} more bytes expected at byte {self.off}")
        self.off += size
        return self.data[self.off - size:self.off]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def floats(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(4 * count), "<f4")
