"""Minimal dense neural-network substrate.

Just enough machinery for two-layer graph convolution and MLP models:
Glorot-uniform initialization, softmax cross-entropy over the loss rows
with its gradient, Adam with L2 weight decay on weight matrices, inverted
dropout, and a central-finite-difference gradient oracle. Everything is
seeded numpy; no GPU, no general autodiff.

Dropout RNG contract, on which bitwise reproducible training rests: each
dropout draws its mask from the generator with one ``rng.random`` call,
one uniform per stored value of a CSR input (in CSR order) or per element
of a dense one, and a value is kept when its uniform is below 1 - rate.
Within an epoch the input layer draws first, then the hidden layer. The
uniforms may land in a reused buffer (``rng.random(out=...)``), which
draws the same stream; a training loop passes dropout_input the output
of its previous call, so one array, or one CSR wrapper on the input's
indices and indptr, serves every epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


LayerPlan = list[tuple[int, int, bool]]


def derive_seeds(*keys: int, words: int = 1) -> tuple[int, ...]:
    """words independent 32-bit seeds derived from the key tuple.

    One SeedSequence per key tuple, so runs that differ in any key (seed,
    iteration, role) draw unrelated streams. Keys must be non-negative.
    """
    if any(k < 0 for k in keys):
        raise ValidationError(f"seeds must be >= 0, got {keys}")
    return tuple(int(w) for w in np.random.SeedSequence(keys).generate_state(words))


def init_params(layer_plan: LayerPlan, seed: int) -> dict[str, np.ndarray]:
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


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, max-shifted for stability. Rows sum to 1."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax along the last axis, max-shifted for stability."""
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def check_targets(targets: np.ndarray, n_classes: int) -> None:
    """ValidationError unless every target is a class id in [0, n_classes)."""
    if targets.min() < 0 or targets.max() >= n_classes:
        raise ValidationError("target class out of range")


def softmax_xent(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood over the rows of logits, with its logit gradient.

    Every row is a loss row and targets holds each row's class id; a
    caller with other rows gathers the loss rows first. The caller checks
    the class range (check_targets).
    """
    # one shift, exp and row sum serve both the loss (log_softmax's
    # expression) and the gradient (softmax's expression). The row max is
    # taken column by column, which is exact; the row sum stays row-wise,
    # because a column-wise sum adds in another order and changes bits.
    shifted = logits - np.ascontiguousarray(logits.T).max(axis=0)[:, None]
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    rows = np.arange(logits.shape[0])
    loss = float(-(shifted[rows, targets] - np.log(total[:, 0])).mean())
    grad = e / total
    grad[rows, targets] -= 1.0
    grad /= logits.shape[0]
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


def dropout_input(x, rate: float, rng: np.random.Generator, out=None):
    """Inverted dropout on a layer input; x itself at rate 0.

    Sparse inputs get the stored values of their CSR form masked (other
    formats are converted once; structural zeros stay zero either way, so
    the semantics match the dense path). The CSR output shares indices and
    indptr with the input, which is left untouched. out, when given, is
    the output of an earlier call on the same x and is overwritten: a
    training loop reuses one array, or one CSR wrapper, for every epoch.
    """
    if rate == 0.0:
        return x
    keep = 1.0 - rate
    if sp.issparse(x):
        x = x.tocsr()
        if out is None:
            out = type(x)((np.empty(x.data.shape), x.indices, x.indptr), shape=x.shape)
        masked_scale(x.data, keep_mask(rng, keep, out.data), keep, out=out.data)
        return out
    if out is None:
        out = np.empty(x.shape)
    return masked_scale(x, keep_mask(rng, keep, out), keep, out=out)


@dataclass
class AdamState:
    """First/second moment buffers, one pair per parameter, and the two
    scratch arrays per parameter that each step reuses."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    scratch: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    t: int,
    hyper: TrainHyper,
) -> None:
    """One in-place Adam update of params and state (beta1=0.9, beta2=0.999, eps=1e-8).

    Weight decay enters as an additive lambda*W term in the gradient before
    the moment updates. t is the 1-based step counter.
    """
    if t < 1:
        raise ValidationError(f"step counter must be >= 1, got {t}")
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValidationError(f"gradient shape mismatch for {name}")
        scratch = state.scratch.get(name)
        if scratch is None:
            scratch = state.scratch[name] = (np.empty_like(p), np.empty_like(p))
        step, work = scratch
        # decay applies to weight matrices only, never biases
        if hyper.weight_decay != 0.0 and name.startswith("W"):
            g = np.multiply(p, hyper.weight_decay, out=work)
            g += grads[name]
        m = state.m[name]
        v = state.v[name]
        # the step stays (lr * m_hat) / (sqrt(v_hat) + eps): regrouping it as
        # lr * (m_hat / denom) changes the last bits of the parameters
        np.multiply(g, 1.0 - ADAM_BETA1, out=step)
        m *= ADAM_BETA1
        m += step
        np.multiply(g, 1.0 - ADAM_BETA2, out=step)
        step *= g
        v *= ADAM_BETA2
        v += step
        denom = np.divide(v, c2, out=work)  # the decayed gradient is spent
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        np.divide(m, c1, out=step)
        step *= hyper.learning_rate
        step /= denom
        p -= step


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
