"""Reverse-mode gradients for the sparse forward ops, plus SGD.

Gradients follow the transposed data flow of the forward pass:

* conv:  dW = Q^T d_out,  dB = column sums,  dQ = d_out W^T scattered back
  to the active input rows (contributions that would land on ground-filled
  positions are discarded);
* pool:  the plan stores, per output component, the footprint position
  that won the max (ties resolved toward the lowest position); the
  component's gradient goes to the input row that position reads, or
  nowhere when the ground won, in one flat ``np.add.at``;
* relu:  gradient masked by the forward sign.

The conv scatter runs one footprint position at a time, from the last to
the first, as a plain indexed add: within one position the input rows are
distinct.  The result equals one ``np.add.at`` over the whole gather index
bit for bit, because each input row receives its terms in the same order,
ascending output row.  Input site ``c`` lies under position ``o`` of output
``u`` exactly when ``c - o`` is ``u``'s window start; starts ascend with
``u`` (``u * s``, or FMP's region starts) and positions are in
lexicographic order, so for a fixed ``c`` a later output row is an earlier
position.

Dropping the ground-path contributions makes training cheap and matches
how sparse CNNs are normally trained; gradients are exact whenever no
gather position reads a ground vector that depends on parameters (e.g.
fully active inputs, or zero biases with a zero input ground and only the
weights in question perturbed).  The finite-difference checker below is
the ground truth the test-suite holds the analytic path against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import ConvLayer, Plan


@dataclass
class ParamState:
    """One learnable tensor with its gradient and momentum buffer."""

    values: np.ndarray
    grad: np.ndarray = None
    velocity: np.ndarray = None

    def __post_init__(self):
        # np.zeros, unlike zeros_like, leaves the pages unwritten until a
        # step touches them, which an evaluation-only network never does
        if self.grad is None:
            self.grad = np.zeros(self.values.shape, self.values.dtype)
        if self.velocity is None:
            self.velocity = np.zeros(self.values.shape, self.values.dtype)
        assert self.grad.shape == self.values.shape
        assert self.velocity.shape == self.values.shape


def conv_backward(d_out: np.ndarray, plan: Plan, layer: ConvLayer, *,
                  input_grad: bool = True):
    """Returns (dW, dB, d_in_rows) for one convolution; ``d_in_rows`` is
    None unless ``input_grad``."""
    if d_out.shape != (plan.a_out, layer.n_out):
        raise ValueError(
            f"d_out must be ({plan.a_out}, {layer.n_out}), got {d_out.shape}"
        )
    dW = plan.Q.T @ d_out
    dB = d_out.sum(axis=0)
    if not input_grad:
        return dW, dB, None
    d_in = np.zeros((plan.a_in, layer.n_in), dtype=d_out.dtype)
    if plan.a_out:
        dQ = (d_out @ layer.W.T).reshape(plan.a_out, -1, layer.n_in)
        # one footprint position at a time, last to first: the order
        # argument is in the module docstring
        for k in reversed(range(plan.src.shape[1])):
            r = plan.src[:, k]
            v = np.flatnonzero(r >= 0)
            d_in[r[v]] += dQ[v, k]
    return dW, dB, d_in


def pool_backward(d_out: np.ndarray, plan: Plan):
    """Route each output gradient component to the input row its argmax
    position reads; components the ground won take no gradient."""
    if d_out.shape != plan.argmax.shape:
        raise ValueError(f"d_out must be {plan.argmax.shape}, got {d_out.shape}")
    n = d_out.shape[1]
    d_in = np.zeros(plan.a_in * n, dtype=d_out.dtype)
    target = plan.argmax_src
    valid = target >= 0
    # one flat index per component: a 2-D index tuple misses add.at's fast path
    np.add.at(d_in, (target * n + np.arange(n))[valid], d_out[valid])
    return d_in.reshape(plan.a_in, n)


def relu_backward(d_out: np.ndarray, mask: np.ndarray) -> np.ndarray:
    if d_out.shape != mask.shape:
        raise ValueError(f"d_out must be {mask.shape}, got {d_out.shape}")
    return d_out * mask


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_nll(logits: np.ndarray, label: int):
    """Negative log likelihood of ``label`` plus the logits gradient."""
    logits = np.asarray(logits, dtype=np.float64).reshape(-1)
    if not 0 <= label < logits.shape[0]:
        raise ValueError(f"label {label} out of range for {logits.shape[0]} classes")
    p = softmax(logits)
    loss = -np.log(p[label])
    d = p.copy()
    d[label] -= 1.0
    return loss, d


def sgd_step(params: list[ParamState], lr: float, momentum: float = 0.0,
             weight_decay: float = 0.0):
    """velocity <- mu*velocity - lr*(grad + wd*values); values += velocity.

    Updated in place, the gradient buffer holding ``lr*(grad + wd*values)``
    until it is zeroed; each operation rounds as the formula does."""
    for p in params:
        p.grad += weight_decay * p.values
        p.grad *= lr
        p.velocity *= momentum
        p.velocity -= p.grad
        p.values += p.velocity
        p.grad.fill(0)


def finite_diff_check(loss_fn, params: list[ParamState], eps: float = 1e-3) -> float:
    """Max relative error between analytic grads and central differences.

    ``loss_fn()`` must recompute the loss from the current parameter values
    and must already have populated ``p.grad`` (analytic) for each param.
    Relative error uses denominator ``max(|a|, |b|, 1e-8)``.
    """
    total = sum(p.values.size for p in params)
    if total > 50_000:
        raise ValueError(f"{total} parameters is too many to perturb one by one")
    worst = 0.0
    for p in params:
        flat = p.values.reshape(-1)
        gflat = p.grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = loss_fn()
            flat[i] = orig - eps
            lm = loss_fn()
            flat[i] = orig
            fd = (lp - lm) / (2 * eps)
            a, b = float(gflat[i]), float(fd)
            err = abs(a - b) / max(abs(a), abs(b), 1e-8)
            worst = max(worst, err)
    return worst
