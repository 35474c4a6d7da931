"""The four sub-model kinds and their view bindings.

Structure-dominant: a two-layer graph convolution over the original
adjacency ("gcn") and an MLP over spectral structure embeddings ("s-mlp").
Feature-dominant: an MLP over raw node features ("f-mlp") and a graph
convolution over the feature-built kNN graph ("knn-gcn"), which never sees
the original edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .errors import TrainingError, ValidationError
from .graph import Graph, adjacency, normalize_adjacency_matrix, normalized_adjacency
from .nn import (
    AdamState,
    TrainHyper,
    adam_step,
    derive_seeds,
    dropout_input,
    init_params,
    sgd_step,
    softmax_xent,
)
from .views import knn_graph, smlp_features

KIND_GCN = "gcn"
KIND_SMLP = "s-mlp"
KIND_FMLP = "f-mlp"
KIND_KNN_GCN = "knn-gcn"

STRUCTURE_KINDS = (KIND_GCN, KIND_SMLP)
FEATURE_KINDS = (KIND_FMLP, KIND_KNN_GCN)
ALL_KINDS = STRUCTURE_KINDS + FEATURE_KINDS

_DEFAULT_HIDDEN = {
    KIND_GCN: (16,),
    KIND_SMLP: (32,),
    KIND_FMLP: (32,),
    KIND_KNN_GCN: (16,),
}

# raw features switch to CSR below this density (bag-of-words matrices)
_SPARSE_DENSITY = 0.2


@dataclass(frozen=True)
class SubModelSpec:
    """Architecture choice for one sub-model.

    k is the view parameter: eigenmap dimension for s-mlp, neighbor count
    for knn-gcn; ignored by the other kinds.
    """

    kind: str
    hidden: tuple[int, ...] | None = None
    k: int = 50
    hyper: TrainHyper = field(default_factory=TrainHyper)

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValidationError(f"unknown sub-model kind {self.kind!r}")
        if self.kind in (KIND_SMLP, KIND_KNN_GCN) and self.k < 1:
            raise ValidationError(f"view parameter k must be positive, got {self.k}")
        if self.hidden is not None and any(h < 1 for h in self.hidden):
            raise ValidationError(f"hidden widths must be positive, got {self.hidden}")

    @property
    def hidden_dims(self) -> tuple[int, ...]:
        return self.hidden if self.hidden is not None else _DEFAULT_HIDDEN[self.kind]

    @property
    def is_structure_view(self) -> bool:
        return self.kind in STRUCTURE_KINDS


@dataclass(frozen=True, eq=False)
class SubModel:
    """A spec bound to its precomputed view artifacts, ready to train."""

    spec: SubModelSpec
    n: int
    n_classes: int
    inputs: object  # dense ndarray or CSR feature/embedding matrix
    prop: sp.csr_matrix | None  # normalized adjacency for convolutional kinds

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    def layer_plan(self):
        dims = [self.input_dim, *self.spec.hidden_dims, self.n_classes]
        has_bias = self.prop is None  # convolution layers carry no bias
        return [(dims[i], dims[i + 1], has_bias) for i in range(len(dims) - 1)]


@dataclass(frozen=True, eq=False)
class TrainedSubModel:
    """Fitted parameters for the sub-model they were trained on."""

    model: SubModel
    params: dict[str, np.ndarray]
    temperature: float = 1.0
    loss_history: tuple[float, ...] = ()

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValidationError(f"temperature must be positive, got {self.temperature}")

    def with_temperature(self, T: float) -> "TrainedSubModel":
        return replace(self, temperature=float(T))


def _maybe_sparse(X: np.ndarray):
    density = np.count_nonzero(X) / X.size
    if density < _SPARSE_DENSITY and X.shape[1] >= 64:
        return sp.csr_matrix(X)
    return X


def build_submodel(spec: SubModelSpec, g: Graph) -> SubModel:
    """Precompute the view artifact once and bind it to the spec."""
    if g.labels is None or g.C is None:
        raise ValidationError("sub-models require a labeled graph")
    if spec.kind == KIND_GCN:
        inputs, prop = _maybe_sparse(g.X), normalized_adjacency(g)
    elif spec.kind == KIND_FMLP:
        inputs, prop = _maybe_sparse(g.X), None
    elif spec.kind == KIND_SMLP:
        inputs, prop = smlp_features(adjacency(g), spec.k).coords, None
    else:  # knn-gcn: the feature graph replaces the original structure
        A_k = knn_graph(g.X, spec.k)
        inputs, prop = _maybe_sparse(g.X), normalize_adjacency_matrix(A_k)
    return SubModel(spec=spec, n=g.n, n_classes=g.C, inputs=inputs, prop=prop)


def _forward(inputs, prop, params: dict, n_layers: int, hyper: TrainHyper, rng, training):
    """Forward pass; returns logits and per-layer caches for backprop.

    Hidden-layer dropout masks are cached; the input-layer mask is not
    (training never needs the gradient w.r.t. the data).
    """
    h = inputs
    caches = []
    for l in range(n_layers):
        if l == 0:
            a = dropout_input(h, hyper.dropout, rng, training) if training else h
            mask = None
        elif training and hyper.dropout > 0.0:
            keep = 1.0 - hyper.dropout
            mask = rng.random(h.shape) < keep
            a = np.where(mask, h / keep, 0.0)
        else:
            a, mask = h, None
        z = a @ params[f"W{l}"]
        if f"b{l}" in params:
            z = z + params[f"b{l}"]
        if prop is not None:
            z = prop @ z
        caches.append((a, z, mask))
        h = np.maximum(z, 0.0) if l < n_layers - 1 else z
    return h, caches


def _backward(grad_logits, caches, prop, params: dict, hyper: TrainHyper, want_input_grad=False):
    """Reverse pass; returns parameter gradients (and optionally dL/dinput)."""
    n_layers = len(caches)
    grads: dict[str, np.ndarray] = {}
    g = grad_logits
    input_grad = None
    for l in reversed(range(n_layers)):
        a, z, mask = caches[l]
        if prop is not None:
            g = prop @ g  # prop is symmetric, so prop.T @ g == prop @ g
        grads[f"W{l}"] = (a.T @ g) if not sp.issparse(a) else np.asarray(a.T @ g)
        if f"b{l}" in params:
            grads[f"b{l}"] = g.sum(axis=0)
        if l > 0:
            da = g @ params[f"W{l}"].T
            if mask is not None:
                da = np.where(mask, da / (1.0 - hyper.dropout), 0.0)
            g = da * (caches[l - 1][1] > 0.0)
        elif want_input_grad:
            input_grad = g @ params[f"W{l}"].T
    return grads, input_grad


def _rows(model: SubModel, nodes: np.ndarray):
    """(forward input, its node rows, output rows) for a pass that needs nodes.

    A row-wise model maps each input row to its own output row, so only the
    rows of nodes go forward and the output rows are 0..len(nodes)-1. A
    propagated model mixes neighbours, so the whole graph goes forward and
    the output rows are the nodes themselves.
    """
    if model.prop is None:
        return model.inputs[nodes], nodes, np.arange(nodes.size)
    return model.inputs, slice(None), nodes


def train_submodel(model: SubModel, labeled, seed: int | None = None) -> TrainedSubModel:
    """Fit parameters by masked cross-entropy over the labeled nodes.

    labeled maps node index to class id; entries may mix ground-truth and
    pseudo-labels, which enter through exactly the same path. Training is
    full-batch for hyper.epochs from a fresh Glorot initialization and is
    bitwise reproducible for a fixed (seed, spec, data).
    """
    if not labeled:
        raise ValidationError("train_submodel needs at least one labeled node")
    idx = np.array(sorted(labeled), dtype=np.int64)
    if idx[0] < 0 or idx[-1] >= model.n:
        raise ValidationError("labeled node index out of range")
    hyper = model.spec.hyper
    if seed is None:
        seed = hyper.seed
    init_seed, dropout_seed = derive_seeds(seed, words=2)
    rng = np.random.default_rng(dropout_seed)

    params = init_params(model.layer_plan(), init_seed)
    n_layers = len(model.layer_plan())
    state = AdamState.for_params(params)

    inputs, _, mask = _rows(model, idx)
    targets = np.zeros(inputs.shape[0], dtype=np.int64)
    targets[mask] = [labeled[i] for i in idx]

    losses = []
    for epoch in range(1, hyper.epochs + 1):
        logits, caches = _forward(inputs, model.prop, params, n_layers, hyper, rng, True)
        loss, grad_logits = softmax_xent(logits, targets, mask)
        if not np.isfinite(loss):
            raise TrainingError(
                f"loss became non-finite at epoch {epoch} "
                f"(kind={model.spec.kind}, lr={hyper.learning_rate}); "
                "check the learning rate or the input data"
            )
        grads, _ = _backward(grad_logits, caches, model.prop, params, hyper)
        if hyper.optimizer == "adam":
            adam_step(params, grads, state, epoch, hyper)
        else:
            sgd_step(params, grads, hyper)
        losses.append(loss)

    return TrainedSubModel(model=model, params=params, loss_history=tuple(losses))


def predict_logits(trained: TrainedSubModel, nodes) -> np.ndarray:
    """Deterministic (dropout-off) logits, one row per requested node."""
    model = trained.model
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.size and (nodes.min() < 0 or nodes.max() >= model.n):
        raise ValidationError(f"node index out of range for n={model.n}")
    inputs, _, rows = _rows(model, nodes)
    n_layers = len(model.spec.hidden_dims) + 1
    logits, _ = _forward(inputs, model.prop, trained.params, n_layers, model.spec.hyper, None, False)
    return logits[rows]


def input_gradient(trained: TrainedSubModel, nodes, labels) -> np.ndarray:
    """Gradient of the masked cross-entropy w.r.t. the raw input matrix.

    Used by gradient-guided feature attacks; evaluation mode, so the
    returned array is the exact input gradient of the deterministic
    forward. Only meaningful for models consuming raw features.
    """
    model = trained.model
    nodes = np.asarray(nodes, dtype=np.int64)
    n_layers = len(model.spec.hidden_dims) + 1
    hyper = model.spec.hyper
    inputs, in_rows, rows = _rows(model, nodes)
    logits, caches = _forward(inputs, model.prop, trained.params, n_layers, hyper, None, False)
    targets = np.zeros(inputs.shape[0], dtype=np.int64)
    targets[rows] = np.asarray(labels, dtype=np.int64)
    _, grad_logits = softmax_xent(logits, targets, rows)
    _, d_in = _backward(grad_logits, caches, model.prop, trained.params, hyper, want_input_grad=True)
    full = np.zeros((model.n, model.input_dim))
    full[in_rows] = d_in
    return full


def accuracy(trained: TrainedSubModel, nodes, labels) -> float:
    """Fraction of nodes whose argmax logit matches the given labels."""
    pred = predict_logits(trained, nodes).argmax(axis=1)
    return float((pred == np.asarray(labels)).mean())
