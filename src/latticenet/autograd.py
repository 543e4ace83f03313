"""Reverse-mode gradients for the sparse forward ops, plus SGD.

Gradients follow the transposed data flow of the forward pass:

* conv:  dB = column sums of d_out, and dW and the input gradient in one
  of two forms, chosen per layer and batch when the forward pass keeps
  its tape (:func:`input_frame_cheaper`):

  - the Q form, for layers that keep or shrink activity: dW = Q^T d_out
    and dQ = d_out W^T, scattered back to the active input rows
    (contributions that would land on ground-filled positions are
    discarded);
  - the input frame, for layers that grow activity: ``srcT[c, k]`` is the
    output row that reads input row ``c`` at position ``k`` (the
    transposed gather index), G (a_in, F * n_out) gathers d_out through
    it, and dW = X^T G + grounds^T gsum, d_in = G W', where X is the
    layer's input rows, ``gsum[s, k]`` is sample ``s``'s d_out summed over
    its rows whose position ``k`` is ground, and W' is W rearranged to
    (F * n_out, n_in).  dW sees the ground exactly as Q^T d_out does,
    and no scatter runs;
* pool:  the plan stores, per output component, the footprint position
  that won the max (ties resolved toward the lowest position); the
  component's gradient goes to the input row that position reads, or
  nowhere when the ground won, in one flat ``np.add.at``;
* relu:  gradient masked by the forward sign.

The Q form's scatter runs one footprint position at a time, from the last
to the first, as a plain indexed add: within one position the input rows
are distinct.  The result equals one ``np.add.at`` over the whole gather
index bit for bit, because each input row receives its terms in the same
order, ascending output row.  Input site ``c`` lies under position ``o``
of output ``u`` exactly when ``c - o`` is ``u``'s window start; starts
ascend with ``u`` (``u * s``, or FMP's region starts) and positions are in
lexicographic order, so for a fixed ``c`` a later output row is an earlier
position.  The same fact makes ``srcT`` well defined: an input row lies
under each position of at most one output row.  The two forms sum the
same terms in different orders, so they agree to rounding, not bit for
bit; a layer's form depends only on its sizes, so a given batch always
takes the same one.

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


# the cost count of input_frame_cheaper, in multiply-accumulates: one
# element moved by an indexed gather or scatter, and one numpy call
MOVE = 64
CALL = 150_000


def input_frame_cheaper(a_in: int, a_out: int, F: int, n_in: int, n_out: int, B: int,
                        input_grad: bool) -> bool:
    """Whether a convolution from ``a_in`` to ``a_out`` rows over a batch of
    ``B`` samples, with footprint ``F`` and ``n_in`` to ``n_out`` features,
    runs its backward pass for less in the input frame than in the Q form.

    The count is in multiply-accumulates, with an element moved by an
    indexed gather or scatter counted as ``MOVE`` and a numpy call as
    ``CALL`` (on a 2-core x86 host a float32 GEMM runs at ~50 GMAC/s, an
    indexed move takes ~1 ns and a call ~3 us):

        Q form:       a_out F n_in n_out                      (dW)
                      + a_out F n_in (n_out + MOVE) + CALL 4F (dQ, its scatter)
        input frame:  a_in F n_out (n_in + MOVE) + CALL (B + 12)  (G, gsum, dW)
                      + a_in F n_out n_in                     (d_in)

    where the terms of the input gradient count only when ``input_grad``.
    The input frame wins when activity grows (``a_in < a_out``) enough to
    pay for gathering ``n_out`` wide rows in place of scattering ``n_in``
    wide ones; ties keep the Q form.  A layer that does not grow activity
    keeps the Q form whatever the count: there the count can favour the
    input frame only through its rough fixed terms, on layers so small
    that either form takes some tens of microseconds.
    """
    if a_in >= a_out:
        return False
    q_form = a_out * F * n_in * n_out
    input_frame = a_in * F * n_out * (n_in + MOVE) + CALL * (B + 12)
    if input_grad:
        q_form += a_out * F * n_in * (n_out + MOVE) + CALL * 4 * F
        input_frame += a_in * F * n_out * n_in
    return input_frame < q_form


def conv_backward(d_out: np.ndarray, plan: Plan, layer: ConvLayer, *,
                  input_grad: bool = True):
    """Returns (dW, dB, d_in_rows) for one convolution; ``d_in_rows`` is
    None unless ``input_grad``.  A plan that keeps ``Q`` runs the Q form,
    one that keeps the layer's input runs the input frame."""
    if d_out.shape != (plan.a_out, layer.n_out):
        raise ValueError(
            f"d_out must be ({plan.a_out}, {layer.n_out}), got {d_out.shape}"
        )
    dB = d_out.sum(axis=0)
    if plan.Q is None:
        dW, d_in = _input_frame_backward(d_out, plan, layer, input_grad)
        return dW, dB, d_in
    dW = plan.Q.T @ d_out
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


def _input_frame_backward(d_out: np.ndarray, plan: Plan, layer: ConvLayer, input_grad: bool):
    """(dW, d_in_rows) of a convolution from the input its plan keeps."""
    (a_out, F), B = plan.src.shape, len(plan)
    n_in, n_out = layer.n_in, layer.n_out
    # srcT[c, k], flat: the output row that reads input row c at position
    # k, or a_out, the zero row appended to d_out, where none does
    flat = plan.src.reshape(-1)
    read = np.flatnonzero(flat >= 0)
    srcT = np.full(plan.a_in * F, a_out, np.intp)
    srcT[flat[read] * F + read % F] = read // F
    G = np.vstack([d_out, np.zeros((1, n_out), d_out.dtype)]).take(srcT, axis=0)
    G = G.reshape(plan.a_in, F * n_out)
    # gsum[s, k]: sample s's d_out summed over its rows whose position k is
    # ground, one small GEMM per sample
    ground = (plan.src < 0).astype(d_out.dtype)
    gsum = np.empty((B, F, n_out), d_out.dtype)
    for s in range(B):
        rows = slice(plan.out_start[s], plan.out_start[s + 1])
        np.matmul(ground[rows].T, d_out[rows], out=gsum[s])
    x = plan.in_rows
    dW = x.T @ G
    dW += plan.in_grounds.astype(x.dtype, copy=False).T @ gsum.reshape(B, F * n_out)
    dW = dW.reshape(n_in, F, n_out).transpose(1, 0, 2).reshape(F * n_in, n_out)
    if not input_grad:
        return dW, None
    W_t = layer.W.reshape(F, n_in, n_out).transpose(0, 2, 1).reshape(F * n_out, n_in)
    return dW, G @ W_t


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
