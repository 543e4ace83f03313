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
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass

import numpy as np

from .autograd import ParamState, conv_backward, pool_backward, relu_backward
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
    SamplePlans,
    conv_forward_batch,
    fmp_forward_batch,
    fmp_regions,
    pool_forward_batch,
    relu_forward_batch,
)

_CKPT_MAGIC = b"LNCK"
_CKPT_VERSION = 1
_BLOCK_CODES = {"conv": 0, "pool": 1, "fmp": 2, "classifier": 3}


@dataclass
class _Block:
    kind: str  # conv | relu | pool | fmp | classifier
    layer: object = None
    params: tuple = ()  # (W, B) ParamStates of conv and classifier blocks


class Network:
    """A sparse CNN with one classifier head, built from a planned spec."""

    def __init__(self, spec: NetworkSpec, classes: int, rng: np.random.Generator,
                 dtype=np.float32, fmp_eval_seed: int = 0):
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
                geom = FilterGeometry(spec.lattice, ls.f, ls.s)
                conv = ConvLayer.init(geom, n, ls.n_out, rng, dtype=dtype)
                self.blocks.append(_Block("conv", conv, (ParamState(conv.W), ParamState(conv.B))))
                self.blocks.append(_Block("relu"))
                n = ls.n_out
            elif isinstance(ls, PoolSpec):
                self.blocks.append(_Block("pool", PoolLayer(spec.lattice, ls.p, ls.s)))
            elif isinstance(ls, FMPSpec):
                self.blocks.append(_Block("fmp", FMPLayer(spec.lattice, ls.ratio, fmp_eval_seed)))
            elif isinstance(ls, OutputSpec):
                geom = FilterGeometry(spec.lattice, 1, 1)
                head = ConvLayer.init(geom, n, classes, rng, dtype=dtype)
                self.blocks.append(_Block("classifier", head,
                                          (ParamState(head.W), ParamState(head.B))))
        self._params = [p for b in self.blocks for p in b.params]

    # -- parameters -----------------------------------------------------

    def params(self) -> list[ParamState]:
        return self._params

    def param_count(self) -> int:
        return sum(p.values.size for p in self._params)

    def input_shape(self) -> GridShape:
        return GridShape(self.spec.lattice, self.spec.planned_sizes[0])

    # -- forward / backward ----------------------------------------------

    def _run(self, batch: GridBatch, train_rng: np.random.Generator | None = None,
             keep_tape: bool = False):
        """Run ``batch`` through the blocks, yielding ``(out, entry, macs)``
        per block: its output batch, its tape entry (None unless
        ``keep_tape``) and the multiply-accumulates it performed."""
        for block in self.blocks:
            layer, macs = block.layer, 0
            if block.kind == "relu":
                out, mask = relu_forward_batch(batch)
                entry = ("relu", mask)
            else:
                if block.kind in ("conv", "classifier"):
                    out, plan = conv_forward_batch(batch, layer)
                    macs = plan.Q.shape[0] * plan.Q.shape[1] * layer.n_out
                    head = (block.kind, layer)
                elif block.kind == "pool":
                    out, plan = pool_forward_batch(batch, layer, keep_plan=keep_tape)
                    head = ("pool",)
                else:
                    seed = int(train_rng.integers(0, 2**31)) if train_rng is not None else layer.seed
                    regions = fmp_regions(batch.shape.m, layer.ratio, seed)
                    out, plan = fmp_forward_batch(batch, layer, regions, keep_plan=keep_tape)
                    head = ("pool",)
                entry = (*head, SamplePlans(plan, batch.start, out.start))
            yield out, entry if keep_tape else None, macs
            batch = out

    def forward_batch(self, grids: list[SparseGrid], *, train_rng: np.random.Generator | None = None,
                      keep_tape: bool = False):
        """Logits for a batch; one rulebook pass and one dense multiply per layer.

        Returns ``(logits, tape, macs)`` where ``macs`` is the total
        multiply-accumulate count actually performed on active sites.  Tape
        entries are ``(kind, layer, plans)`` for conv and classifier layers,
        ``("pool", plans)`` for pools and FMP and ``("relu", mask)``, where
        ``plans`` is a :class:`~latticenet.ops.SamplePlans` and ``mask``
        covers the batch's rows.
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

    def backward_batch(self, tape, d_logits: np.ndarray):
        """Accumulate parameter gradients from a forward tape.

        Returns the gradient with respect to each sample's input rows.
        """
        d = None
        for block, entry in zip(reversed(self.blocks), reversed(tape)):
            kind = entry[0]
            if kind in ("conv", "classifier"):
                _, layer, plans = entry
                if kind == "classifier":
                    d = d_logits[np.repeat(np.arange(len(plans)), np.diff(plans.out_start))]
                dW, dB, d = conv_backward(d, plans.plan, layer)
                for p, g in zip(block.params, (dW, dB)):
                    p.grad += g.astype(p.values.dtype)
            elif kind == "relu":
                d = relu_backward(d, entry[1])
            elif kind == "pool":
                d = pool_backward(d, entry[1].plan)
        return np.split(d, tape[0][-1].in_start[1:-1])

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
    #   u32 block count, then per block:
    #     u8 kind (0 conv, 1 pool, 2 fmp, 3 classifier)
    #     conv/classifier: u32 f, u32 s, u32 n_in, u32 n_out,
    #                      W float32 row-major, B float32
    #     pool:            u32 p, u32 s
    #     fmp:             f64 ratio, u64 seed

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
            code = _BLOCK_CODES[b.kind]
            if b.kind in ("conv", "classifier"):
                l = b.layer
                buf.write(struct.pack("<BIIII", code, l.geometry.f, l.geometry.s, l.n_in, l.n_out))
                buf.write(l.W.astype("<f4").tobytes())
                buf.write(l.B.astype("<f4").tobytes())
            elif b.kind == "pool":
                buf.write(struct.pack("<BII", code, b.layer.p, b.layer.s))
            elif b.kind == "fmp":
                buf.write(struct.pack("<BdQ", code, b.layer.ratio, b.layer.seed))
        with open(path, "wb") as fh:
            fh.write(buf.getvalue())

    @classmethod
    def load(cls, path) -> "Network":
        """Read a checkpoint; any malformed file raises :class:`FormatError`."""
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
            arch = arch.decode()
            spec = plan(parse(arch, lattice, n_input),
                        input_size=field if "FMP" in arch else None)
            GridShape(lattice, field)
        except ValueError as e:  # also bad utf-8 and every parse or plan error
            raise FormatError(f"{path}: bad architecture in checkpoint: {e}") from None
        if spec.planned_sizes[0] != field:
            raise FormatError(f"{path}: input size {field} does not fit architecture {arch!r}")
        (nblocks,) = r.unpack("<I")
        # the file must hold every parameter before the network is allocated
        n_params = count_ops(spec, "dense", classes)["total_params"]
        if 4 * n_params > r.remaining():
            raise FormatError(f"{path}: checkpoint truncated: {n_params} parameters need "
                              f"{4 * n_params} bytes, {r.remaining()} left")
        try:
            net = cls(spec, classes, np.random.default_rng(0))
        except ValueError as e:  # e.g. an FMP layer on a lattice other than cubic
            raise FormatError(f"{path}: {e}") from None
        param_blocks = [b for b in net.blocks if b.kind != "relu"]
        if nblocks != len(param_blocks):
            raise FormatError(f"{path}: checkpoint has {nblocks} blocks, architecture "
                              f"needs {len(param_blocks)}")
        for i, b in enumerate(param_blocks):
            (code,) = r.unpack("<B")
            if code != _BLOCK_CODES[b.kind]:
                raise FormatError(f"{path}: block {i} has code {code}, architecture "
                                  f"needs a {b.kind} block")
            l = b.layer
            if b.kind in ("conv", "classifier"):
                if r.unpack("<IIII") != (l.geometry.f, l.geometry.s, l.n_in, l.n_out):
                    raise FormatError(f"{path}: checkpoint layer shape mismatch in block {i}")
                l.W[...] = r.floats(l.W.size).reshape(l.W.shape)
                l.B[...] = r.floats(l.B.size)
            elif b.kind == "pool":
                if r.unpack("<II") != (l.p, l.s):
                    raise FormatError(f"{path}: checkpoint pool shape mismatch in block {i}")
            elif b.kind == "fmp":
                ratio, seed = r.unpack("<dQ")
                if ratio != l.ratio:
                    raise FormatError(f"{path}: FMP ratio {ratio} in block {i}, "
                                      f"architecture has {l.ratio}")
                l.seed = int(seed)
        if r.remaining():
            raise FormatError(f"{path}: {r.remaining()} unexpected bytes after the last block")
        return net


class _Reader:
    """Bounds-checked little-endian reads from a checkpoint's bytes."""

    def __init__(self, data: bytes, path):
        self.data = data
        self.path = path
        self.off = 0

    def remaining(self) -> int:
        return len(self.data) - self.off

    def take(self, size: int) -> bytes:
        if size > self.remaining():
            raise FormatError(f"{self.path}: checkpoint truncated at byte {len(self.data)}, "
                              f"{size} more bytes expected at byte {self.off}")
        self.off += size
        return self.data[self.off - size:self.off]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def floats(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(4 * count), "<f4")
