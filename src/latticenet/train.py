"""Mini-batch SGD training and n-fold repetitive evaluation.

Training is deterministic for a fixed seed: shuffling, initialization and
FMP randomness all come from one generator, batches are processed in a
fixed order and gradients are reduced inside single matrix multiplies, so
epoch logs and checkpoints are bit-identical across runs on one host at
one OpenBLAS thread count; at another count the BLAS's products, and so
the checkpoints, can differ in their last bits (ROADMAP item 11).
``threads`` is accepted for configuration compatibility and changes
nothing: each mini-batch runs as one batch on the calling thread.

Repetitive testing averages the class probabilities of ``repeats``
augmented passes per test sample with a running mean.  Without
augmentation one pass runs: n identical passes would give its report.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .autograd import sgd_step, softmax, softmax_nll
from .geometry import pack_sites, run_heads
from .grid import LabeledSample, SparseGrid
from .network import Network


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    lr: float = 0.02
    lr_decay: float = 1.0  # multiplicative, per epoch
    momentum: float = 0.9
    weight_decay: float = 0.0
    seed: int = 0
    threads: int = 1  # accepted, has no effect (see the module docstring)
    target_accuracy: float | None = None  # stop early once held-out accuracy reaches it

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be at least 0, got {self.epochs}")
        for name in ("lr", "lr_decay", "momentum", "weight_decay"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name, ok, bound in (("lr", self.lr >= 0, "at least 0"),
                                ("lr_decay", self.lr_decay > 0, "above 0"),
                                ("momentum", 0 <= self.momentum < 1, "in [0, 1)"),
                                ("weight_decay", self.weight_decay >= 0, "at least 0"),
                                ("target_accuracy", self.target_accuracy is None
                                 or 0 <= self.target_accuracy <= 1, "in [0, 1]")):
            if not ok:
                raise ValueError(f"{name} must be {bound}, got {getattr(self, name)}")


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    heldout_error: float
    macs_per_sample: float
    wall_seconds: float

    def row(self) -> str:
        """Deterministic tab-separated log line (wall time excluded)."""
        return f"{self.epoch}\t{self.train_loss:.6f}\t{self.heldout_error:.6f}\t{self.macs_per_sample:.1f}"


def batch_loss_and_grads(net: Network, batch: list[LabeledSample],
                         train_rng: np.random.Generator | None = None) -> tuple[float, int]:
    """Forward+backward over one batch; grads accumulate into net params.

    Returns (total loss, total MACs).
    """
    grids = [s.grid for s in batch]
    logits, tape, macs = net.forward_batch(grids, train_rng=train_rng, keep_tape=True)
    losses, d = softmax_nll(logits, [s.label for s in batch])
    total = 0.0
    for loss in losses.tolist():  # left to right: sum() of floats compensates on 3.12
        total += loss
    net.backward_batch(tape, (d / len(batch)).astype(logits.dtype), input_grad=False)
    return total, macs


def fit(net: Network, train: list[LabeledSample], heldout: list[LabeledSample],
        cfg: TrainConfig, log_fn=None) -> list[EpochLog]:
    """SGD with momentum; returns one log entry per epoch.  An empty
    training set raises ValueError before the first epoch; an empty
    ``heldout`` means no held-out set, and every epoch's error is NaN."""
    if not train:
        raise ValueError("fit needs at least one training sample, got an empty training set")
    rng = np.random.default_rng(cfg.seed)
    logs = []
    lr = cfg.lr
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(len(train))
        total_loss = 0.0
        total_macs = 0
        for start in range(0, len(train), cfg.batch_size):
            batch = [train[i] for i in order[start:start + cfg.batch_size]]
            loss, macs = batch_loss_and_grads(net, batch, train_rng=rng)
            total_loss += loss
            total_macs += macs
            sgd_step(net.params(), lr, cfg.momentum, cfg.weight_decay)
        report = evaluate(net, heldout, repeats=1) if heldout else None
        err = 1.0 - report.accuracy if report else float("nan")
        log = EpochLog(epoch, total_loss / len(train), err, total_macs / len(train),
                       time.perf_counter() - t0)
        logs.append(log)
        if log_fn:
            log_fn(log)
        lr *= cfg.lr_decay
        if cfg.target_accuracy is not None and report and report.accuracy >= cfg.target_accuracy:
            break
    return logs


@dataclass
class EvalReport:
    accuracy: float
    confusion: np.ndarray  # (classes, classes), rows = true label
    outputs: np.ndarray    # (samples, classes) averaged probabilities
    labels: np.ndarray

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "confusion": self.confusion.tolist(),
            "outputs": self.outputs.tolist(),
            "labels": self.labels.tolist(),
        }


# evaluate runs its samples through the network this many at a time
EVAL_BATCH = 64


def evaluate(net: Network, samples: list[LabeledSample], repeats: int = 1,
             augment=None, rng: np.random.Generator | None = None) -> EvalReport:
    """Average class probabilities over ``repeats`` augmented passes, each
    in chunks of :data:`EVAL_BATCH` samples.

    ``augment`` is a callable ``(grid, rng) -> grid``; when it is None one
    pass runs, whatever ``repeats`` is, since the running mean of identical
    passes is that pass bit for bit.  Only then does the network's rule
    cache take part, as augmented batches never repeat: a later call on the
    same samples (``fit``'s next held-out pass) reuses each chunk's rules.
    An empty sample list, a label outside ``0 .. net.classes - 1``, or
    ``repeats`` below 1, raises ValueError.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    if not samples:
        raise ValueError("evaluate needs at least one sample, got an empty test set")
    labels = np.array([s.label for s in samples], dtype=np.int64)
    bad = np.flatnonzero((labels < 0) | (labels >= net.classes))
    if bad.size:
        raise ValueError(f"sample {bad[0]} has label {labels[bad[0]]}; the network has "
                         f"{net.classes} classes")
    if rng is None:
        rng = np.random.default_rng(0)
    n = len(samples)
    mean = np.zeros((n, net.classes))
    for k in range(1, (1 if augment is None else repeats) + 1):
        probs = np.empty((n, net.classes))
        for start in range(0, n, EVAL_BATCH):
            chunk = samples[start:start + EVAL_BATCH]
            grids = [augment(s.grid, rng) if augment else s.grid for s in chunk]
            logits, _, _ = net.forward_batch(grids, cache=augment is None)
            probs[start:start + len(chunk)] = softmax(logits)
        mean += (probs - mean) / k  # running mean: exact for identical passes
    pred = mean.argmax(axis=1)
    confusion = np.zeros((net.classes, net.classes), dtype=np.int64)
    for t, p in zip(labels, pred):
        confusion[t, p] += 1
    acc = float((pred == labels).mean())
    return EvalReport(acc, confusion, mean, labels)


# ---------------------------------------------------------------------------
# grid-level affine augmentation (used for repetitive testing)


@dataclass
class AffineParams:
    """Magnitudes of the random affine jitter, each finite and at least 0;
    all zero means identity."""

    rotate_deg: float = 0.0
    scale: float = 0.0
    shear: float = 0.0
    translate: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{f.name} must be finite and at least 0, got {value}")

    @property
    def is_identity(self) -> bool:
        return not (self.rotate_deg or self.scale or self.shear or self.translate)


def augment_grid(grid: SparseGrid, params: AffineParams, rng: np.random.Generator) -> SparseGrid:
    """Random affine jitter of the active sites; identity params are a no-op.

    A site moves by ``R (1 + u) S``, then by a translation: ``S`` is a
    shear, the identity with its off-diagonal entries drawn in one
    row-major call, and ``R`` a rotation in the first two axes.  The
    angle, ``u``, the shear entries and the translation are uniform within
    their magnitudes, drawn in that order, each only when its magnitude
    is nonzero.  Sites are transformed about the field's centre, where
    the command line centres a sample (``(m - 1) / (d + 1)`` in every
    coordinate on a simplex field, else ``(m - 1) / 2``), rounded back to
    the lattice, and collisions keep the component-wise max.  Sites
    leaving the field are dropped (augmentation semantics, not an error).
    """
    if params.is_identity:
        return grid
    d = grid.shape.ndim
    ang = scale = 0.0
    if params.rotate_deg:
        ang = np.deg2rad(rng.uniform(-params.rotate_deg, params.rotate_deg))
    if params.scale:
        scale = rng.uniform(-params.scale, params.scale)
    A = np.eye(d) * (1.0 + scale)
    if ang:
        R = np.eye(d)
        R[:2, :2] = [[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]]
        A = R @ A
    if params.shear:
        S = np.eye(d)
        S[~np.eye(d, dtype=bool)] = rng.uniform(-params.shear, params.shear, d * (d - 1))
        A = A @ S
    t = rng.uniform(-params.translate, params.translate, size=d) if params.translate else np.zeros(d)

    center = (grid.shape.m - 1) / (d + 1 if grid.shape.lattice.is_simplex else 2.0)
    pts = grid.sites().astype(float) - center
    pts = pts @ A.T + t + center
    sites = np.rint(pts).astype(np.int64)
    ok = ~grid.shape.outside(sites)
    sites = sites[ok]
    rows = grid.rows[ok]
    keys = pack_sites(sites)
    order = np.argsort(keys, kind="stable")
    keys, rows = keys[order], rows[order]
    first = np.flatnonzero(run_heads(keys))
    merged = np.empty((first.shape[0], grid.n), dtype=rows.dtype)
    np.maximum.reduceat(rows, first, axis=0, out=merged)
    return SparseGrid(grid.shape, keys[first], merged, grid.ground)
