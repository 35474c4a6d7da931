"""Minimal dense neural-network substrate.

Just enough machinery for two-layer graph convolution and MLP models:
Glorot-uniform initialization, masked softmax cross-entropy with its
gradient, Adam with L2 weight decay on weight matrices, inverted dropout,
and a central-finite-difference gradient oracle. Everything is seeded
numpy; no GPU, no general autodiff.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainHyper:
    """Training hyperparameters shared by all sub-model kinds."""

    learning_rate: float = 0.01
    weight_decay: float = 5e-4
    dropout: float = 0.5
    epochs: int = 200
    seed: int = 0
    optimizer: str = "adam"

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValidationError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValidationError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValidationError(f"optimizer must be 'adam' or 'sgd', got {self.optimizer!r}")


LayerPlan = list[tuple[int, int, bool]]


def derive_seeds(*keys: int, words: int = 1) -> tuple[int, ...]:
    """words independent 32-bit seeds derived from the key tuple.

    One SeedSequence per key tuple, so runs that differ in any key (seed,
    iteration, role) draw unrelated streams.
    """
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
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def softmax_xent(
    logits: np.ndarray, targets: np.ndarray, mask: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood over masked rows, with its logit gradient.

    targets is row-aligned with logits; mask is an index array selecting
    the rows that contribute. The gradient is zero everywhere else.
    """
    mask = np.asarray(mask)
    if mask.size == 0:
        raise ValidationError("softmax_xent needs a nonempty mask")
    targets = np.asarray(targets)
    z = logits[mask]
    y = targets[mask]
    if y.min() < 0 or y.max() >= logits.shape[1]:
        raise ValidationError("target class out of range")
    logp = log_softmax(z)
    rows = np.arange(mask.size)
    loss = float(-logp[rows, y].mean())
    grad_rows = softmax(z)
    grad_rows[rows, y] -= 1.0
    grad = np.zeros_like(logits)
    grad[mask] = grad_rows / mask.size
    return loss, grad


def dropout_input(x, rate: float, rng: np.random.Generator, training: bool):
    """Inverted dropout on a layer input; identity when evaluating.

    Sparse inputs get their stored values masked (structural zeros stay
    zero either way, so the semantics match the dense path).
    """
    if not training or rate == 0.0:
        return x
    keep = 1.0 - rate
    if sp.issparse(x):
        out = x.copy()
        mask = rng.random(out.data.shape[0]) < keep
        out.data = np.where(mask, out.data / keep, 0.0)
        return out
    mask = rng.random(x.shape) < keep
    return np.where(mask, x / keep, 0.0)


@dataclass
class AdamState:
    """First/second moment buffers, one pair per parameter."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def _decayed(name: str, grad: np.ndarray, param: np.ndarray, weight_decay: float):
    # decay applies to weight matrices only, never biases
    if weight_decay != 0.0 and name.startswith("W"):
        return grad + weight_decay * param
    return grad


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    t: int,
    hyper: TrainHyper,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One Adam update (beta1=0.9, beta2=0.999, eps=1e-8), in place.

    Weight decay enters as an additive lambda*W term in the gradient before
    the moment updates. t is the 1-based step counter.
    """
    if t < 1:
        raise ValidationError(f"step counter must be >= 1, got {t}")
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValidationError(f"gradient shape mismatch for {name}")
        g = _decayed(name, g, p, hyper.weight_decay)
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        p -= hyper.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params, state


def sgd_step(
    params: dict[str, np.ndarray], grads: dict[str, np.ndarray], hyper: TrainHyper
) -> dict[str, np.ndarray]:
    """Plain gradient descent with the same weight-decay convention."""
    for name, p in params.items():
        g = _decayed(name, grads[name], p, hyper.weight_decay)
        p -= hyper.learning_rate * g
    return params


def finite_diff_check(loss_fn, grad_fn, params: dict[str, np.ndarray], eps: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_fn maps a parameter dict to a scalar; grad_fn returns the analytic
    gradient dict. The forward must be deterministic (dropout off) and
    smooth at the probe point; ReLU models should be probed away from
    kinks. Relative error uses max(|a|, |b|, 1e-6) as denominator.
    """
    analytic = grad_fn(params)
    worst = 0.0
    work = {k: v.copy() for k, v in params.items()}
    for name, p in work.items():
        flat = p.reshape(-1)
        g_flat = analytic[name].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = loss_fn(work)
            flat[idx] = orig - eps
            down = loss_fn(work)
            flat[idx] = orig
            fd = (up - down) / (2.0 * eps)
            denom = max(abs(fd), abs(g_flat[idx]), 1e-6)
            worst = max(worst, abs(fd - g_flat[idx]) / denom)
    return worst


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
