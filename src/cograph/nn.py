"""Minimal dense neural-network substrate.

Just enough machinery for two-layer graph convolution and MLP models:
Glorot-uniform initialization, softmax cross-entropy over the loss rows
with its gradient, Adam with L2 weight decay on weight matrices over one
flat buffer per fit, and inverted dropout. Everything is seeded numpy; no
GPU, no general autodiff.

Dropout RNG contract, on which bitwise reproducible training rests: each
dropout draws its mask from the generator with one ``rng.random`` call,
one uniform per stored value of a CSR input (in CSR order) or per element
of a dense one, and a value is kept when its uniform is below 1 - rate.
Within an epoch the input layer draws first, then the hidden layer. The
uniforms may land in a reused buffer (``rng.random(out=...)``), which
draws the same stream; a training loop makes one dropout_output before
its first epoch and passes it to dropout_input in every epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError, require_int, require_real

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainHyper:
    """Training hyperparameters shared by all sub-model kinds: Adam's
    learning rate, L2 weight decay, dropout rate and full-batch epochs."""

    learning_rate: float = 0.01
    weight_decay: float = 5e-4
    dropout: float = 0.5
    epochs: int = 200

    def __post_init__(self):
        for name in ("learning_rate", "weight_decay", "dropout"):
            require_real(name, getattr(self, name))
        require_int("epochs", self.epochs, 1)
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValidationError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValidationError(
                f"weight_decay must be non-negative and finite, got {self.weight_decay}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ValidationError(f"dropout must lie in [0, 1), got {self.dropout}")


def derive_seeds(*keys: int, words: int = 1) -> tuple[int, ...]:
    """words independent 32-bit seeds derived from the key tuple.

    One SeedSequence per key tuple, so runs that differ in any key (seed,
    iteration, role) draw unrelated streams. Keys must be integers >= 0.
    """
    for k in keys:
        require_int("seed", k, 0)
    return tuple(int(w) for w in np.random.SeedSequence(keys).generate_state(words))


def init_params(layer_plan: list[tuple[int, int, bool]], seed: int) -> dict[str, np.ndarray]:
    """Glorot-uniform weights in +-sqrt(6/(fan_in+fan_out)), zero biases.

    Layer l holds the weight matrix "W{l}" (subject to weight decay) and,
    when the plan asks for one, the bias vector "b{l}".
    """
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for l, (d_in, d_out, has_bias) in enumerate(layer_plan):
        if d_in < 1 or d_out < 1:
            raise ValidationError(f"layer {l} dims must be positive, got ({d_in}, {d_out})")
        limit = np.sqrt(6.0 / (d_in + d_out))
        params[f"W{l}"] = rng.uniform(-limit, limit, size=(d_in, d_out))
        if has_bias:
            params[f"b{l}"] = np.zeros(d_out)
    return params


def _normalized(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row-max-shifted logits, their exp and its row sums (n x 1): the
    one normalization behind softmax and softmax_xent. The row max is taken
    column by column, which is exact; the row sum stays row-wise, because a
    column-wise sum adds in another order and changes bits."""
    shifted = logits - np.ascontiguousarray(logits.T).max(axis=0)[:, None]
    e = np.exp(shifted)
    return shifted, e, e.sum(axis=1, keepdims=True)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, max-shifted for stability. Rows sum to 1."""
    _, e, total = _normalized(logits)
    e /= total
    return e


def score_shape(scores: np.ndarray) -> tuple[int, int]:
    """(rows, classes) of a 2-D score array; ValidationError for any other shape."""
    if np.ndim(scores) != 2:
        raise ValidationError(
            f"scores must be a 2-D (rows, classes) array, got shape {np.shape(scores)}"
        )
    return np.shape(scores)


def check_targets(targets: np.ndarray, rows: int, n_classes: int) -> None:
    """ValidationError unless targets is a 1-D integer array of rows class
    ids, each in [0, n_classes)."""
    if targets.shape != (rows,) or targets.dtype.kind not in "iu":
        raise ValidationError(
            f"targets must be a 1-D integer array of {rows} class ids, "
            f"got {targets.dtype} of shape {targets.shape}"
        )
    if rows and (targets.min() < 0 or targets.max() >= n_classes):
        raise ValidationError(
            f"target class ids must lie in [0, {n_classes}), got [{targets.min()}, {targets.max()}]"
        )


def softmax_xent(
    logits: np.ndarray, targets: np.ndarray, mean_over: int | None = None
) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood over the rows of logits, with its logit gradient.

    Every row is a loss row and targets holds each row's class id; a
    caller with other rows gathers the loss rows first. The caller checks
    the targets (check_targets). mean_over, the count the sum of the
    row losses is divided by, defaults to the row count; a caller taking a
    larger loss one block of rows at a time passes that loss's row count.
    """
    shifted, e, total = _normalized(logits)
    rows = np.arange(logits.shape[0])
    count = mean_over or logits.shape[0]
    loss = float(-(shifted[rows, targets] - np.log(total[:, 0])).sum() / count)
    grad = np.divide(e, total, out=e)
    grad[rows, targets] -= 1.0
    grad /= count
    return loss, grad


def masked_scale(x: np.ndarray, mask: np.ndarray, keep: float, out=None) -> np.ndarray:
    """x / keep where mask is set and +0.0 elsewhere, without branching.

    mask holds booleans or 1.0/0.0, and out may be x or mask itself.
    Computed as (x * mask) / keep + 0.0: the same bits as
    np.where(mask, x / keep, 0.0) for finite x, except that a kept -0.0
    comes out as +0.0. Multiplying by the mask leaves -0.0 where a
    negative value was dropped, and adding 0.0 turns it into +0.0.
    """
    out = np.multiply(x, mask, out=out)
    out /= keep
    out += 0.0
    return out


def keep_mask(rng: np.random.Generator, keep: float, out: np.ndarray) -> np.ndarray:
    """out set to 1.0 where dropout keeps a value and 0.0 where it drops
    it, from one rng.random call filling out (the dropout RNG contract)."""
    rng.random(out=out)
    return np.less(out, keep, out=out)


def dropout_output(x):
    """An unfilled output for dropout_input on x: an array of x's shape,
    or for sparse x a CSR with fresh values on the indices and indptr of
    x's CSR form."""
    if sp.issparse(x):
        x = x.tocsr()
        return type(x)((np.empty(x.data.shape), x.indices, x.indptr), shape=x.shape)
    return np.empty(x.shape)


def dropout_input(x, rate: float, rng: np.random.Generator, out=None):
    """Inverted dropout on a layer input; x itself at rate 0.

    Sparse inputs get the stored values of their CSR form masked (other
    formats are converted once; structural zeros stay zero either way, so
    the semantics match the dense path). The CSR output shares indices and
    indptr with the input, which is left untouched. The output is out,
    overwritten, when given: a dropout_output(x) made once, which a
    training loop passes to every epoch. Without it, each call makes one.
    """
    if rate == 0.0:
        return x
    keep = 1.0 - rate
    x = x.tocsr() if sp.issparse(x) else x
    out = dropout_output(x) if out is None else out
    values, buf = (x.data, out.data) if sp.issparse(x) else (x, out)
    masked_scale(values, keep_mask(rng, keep, buf), keep, out=buf)
    return out


@dataclass
class AdamState:
    """Adam's buffers for one fit. for_params makes each entry of params a
    view into one new buffer, flat, holding the same values: every weight
    matrix first, then the biases, so weight decay covers flat[:n_decay].
    rows holds the flat gradient, the moments m and v and two scratch
    arrays; grads maps each name to its view of the gradient."""

    flat: np.ndarray
    n_decay: int
    rows: tuple[np.ndarray, ...]
    grads: dict[str, np.ndarray]

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        names = sorted(params, key=lambda k: not k.startswith("W"))  # weights first
        flat = np.concatenate([params[k].ravel() for k in names], dtype=np.float64)
        rows, grads, lo = tuple(np.zeros((5, flat.size))), {}, 0
        for k in names:  # params keeps its names and their order
            shape, hi = params[k].shape, lo + params[k].size
            params[k], grads[k] = flat[lo:hi].reshape(shape), rows[0][lo:hi].reshape(shape)
            lo = hi
        n_decay = sum(params[k].size for k in names if k.startswith("W"))
        return cls(flat, n_decay, rows, grads)


def adam_step(state: AdamState, t: int, hyper: TrainHyper) -> None:
    """One in-place Adam update of the params state was made for, from
    state.grads, in one sweep (beta1=0.9, beta2=0.999, eps=1e-8).

    Weight decay adds lambda*W to the weights' gradient before the moment
    updates. t is the 1-based step counter.
    """
    if t < 1:
        raise ValidationError(f"step counter must be >= 1, got {t}")
    g, m, v, step, work = state.rows
    if hyper.weight_decay != 0.0:
        # weights only, never biases; g + lambda*W has the bits of
        # lambda*W + g, as IEEE addition commutes
        nd = state.n_decay
        decay = np.multiply(state.flat[:nd], hyper.weight_decay, out=work[:nd])
        np.add(g[:nd], decay, out=g[:nd])
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    # the step stays (lr * m_hat) / (sqrt(v_hat) + eps): regrouping it as
    # lr * (m_hat / denom) changes the last bits of the parameters
    np.multiply(g, 1.0 - ADAM_BETA1, out=step)
    m *= ADAM_BETA1
    m += step
    np.multiply(g, 1.0 - ADAM_BETA2, out=step)
    step *= g
    v *= ADAM_BETA2
    v += step
    denom = np.divide(v, c2, out=work)  # the decay term is spent
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(m, c1, out=step)
    step *= hyper.learning_rate
    step /= denom
    state.flat -= step


def save_params_csv(params: dict[str, np.ndarray], path) -> None:
    """Checkpoint as CSV rows: name, shape ('RxC'), row-major values."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, p in params.items():
            shape = "x".join(str(d) for d in p.shape)
            values = ",".join(repr(float(v)) for v in p.reshape(-1))
            fh.write(f"{name},{shape},{values}\n")


def load_params_csv(path) -> dict[str, np.ndarray]:
    params: dict[str, np.ndarray] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            name, shape, *values = line.split(",")
            dims = tuple(int(d) for d in shape.split("x"))
            params[name] = np.array([float(v) for v in values]).reshape(dims)
    return params
