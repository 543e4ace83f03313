"""Mini-batch SGD training and n-fold repetitive evaluation.

Training is deterministic for a fixed seed: shuffling, initialization and
FMP randomness all come from one generator, batches are processed in a
fixed order and gradients are reduced inside single matrix multiplies, so
epoch logs and checkpoints are bit-identical across runs.  ``threads`` is
accepted for configuration compatibility and changes nothing: each
mini-batch runs as one batch on the calling thread.

Repetitive testing runs each test sample through ``repeats`` augmented
forward passes and averages the class probabilities with a running mean,
which is exact when the passes are identical (zero-magnitude
augmentation), so 1-fold and n-fold evaluation then agree bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .autograd import sgd_step, softmax, softmax_nll
from .geometry import pack_sites
from .grid import LabeledSample, SparseGrid
from .ingest import make_affine
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
    d_logits = np.empty_like(logits)
    total = 0.0
    for i, s in enumerate(batch):
        loss, d = softmax_nll(logits[i], s.label)
        total += loss
        d_logits[i] = d / len(batch)
    net.backward_batch(tape, d_logits)
    return total, macs


def fit(net: Network, train: list[LabeledSample], heldout: list[LabeledSample],
        cfg: TrainConfig, log_fn=None) -> list[EpochLog]:
    """SGD with momentum; returns one log entry per epoch."""
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
        log = EpochLog(epoch, total_loss / max(len(train), 1), err,
                       total_macs / max(len(train), 1), time.perf_counter() - t0)
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


def evaluate(net: Network, samples: list[LabeledSample], repeats: int = 1,
             augment=None, rng: np.random.Generator | None = None,
             batch_size: int = 64) -> EvalReport:
    """Average class probabilities over ``repeats`` augmented passes.

    ``augment`` is a callable ``(grid, rng) -> grid``; when it is None the
    same grid is evaluated every time and the running mean leaves the
    probabilities bit-identical to a single pass.  A label outside
    ``0 .. net.classes - 1`` raises ValueError.
    """
    labels = np.array([s.label for s in samples], dtype=np.int64)
    bad = np.flatnonzero((labels < 0) | (labels >= net.classes))
    if bad.size:
        raise ValueError(f"sample {bad[0]} has label {labels[bad[0]]}; the network has "
                         f"{net.classes} classes")
    if rng is None:
        rng = np.random.default_rng(0)
    n = len(samples)
    mean = np.zeros((n, net.classes))
    for k in range(1, repeats + 1):
        probs = np.empty((n, net.classes))
        for start in range(0, n, batch_size):
            chunk = samples[start:start + batch_size]
            grids = [augment(s.grid, rng) if augment else s.grid for s in chunk]
            logits, _, _ = net.forward_batch(grids)
            probs[start:start + len(chunk)] = softmax(logits)
        mean += (probs - mean) / k  # running mean: exact for identical passes
    pred = mean.argmax(axis=1)
    confusion = np.zeros((net.classes, net.classes), dtype=np.int64)
    for t, p in zip(labels, pred):
        confusion[t, p] += 1
    acc = float((pred == labels).mean()) if n else 0.0
    return EvalReport(acc, confusion, mean, labels)


# ---------------------------------------------------------------------------
# grid-level affine augmentation (used for repetitive testing and training)


@dataclass
class AffineParams:
    """Magnitudes of the random affine jitter; all zero means identity."""

    rotate_deg: float = 0.0
    scale: float = 0.0
    shear: float = 0.0
    translate: float = 0.0

    @property
    def is_identity(self) -> bool:
        return not (self.rotate_deg or self.scale or self.shear or self.translate)


def augment_grid(grid: SparseGrid, params: AffineParams, rng: np.random.Generator) -> SparseGrid:
    """Random affine jitter of the active sites; identity params are a no-op.

    Sites are transformed about the field center, rounded back to the
    lattice, and collisions keep the component-wise max.  Sites leaving
    the field are dropped (augmentation semantics, not an error).
    """
    if params.is_identity:
        return grid
    d = grid.shape.ndim
    ang = scale = 0.0
    if params.rotate_deg:
        ang = np.deg2rad(rng.uniform(-params.rotate_deg, params.rotate_deg))
    if params.scale:
        scale = rng.uniform(-params.scale, params.scale)
    A = make_affine(d, rotation=ang, scale=1.0 + scale)
    if params.shear:
        S = np.eye(d)
        for i in range(d):
            for j in range(d):
                if i != j:
                    S[i, j] = rng.uniform(-params.shear, params.shear)
        A = A @ S
    t = rng.uniform(-params.translate, params.translate, size=d) if params.translate else np.zeros(d)

    center = (grid.shape.m - 1) / 2.0
    pts = grid.sites().astype(float) - center
    pts = pts @ A.T + t + center
    sites = np.rint(pts).astype(np.int64)
    ok = ~grid.shape.outside(sites)
    sites = sites[ok]
    rows = grid.rows[ok]
    keys = pack_sites(sites)
    order = np.argsort(keys, kind="stable")
    keys, rows = keys[order], rows[order]
    uniq, first = np.unique(keys, return_index=True)
    merged = np.empty((uniq.shape[0], grid.n), dtype=rows.dtype)
    np.maximum.reduceat(rows, first, axis=0, out=merged)
    return SparseGrid(grid.shape, uniq, merged, grid.ground)
