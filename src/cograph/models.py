"""The four sub-model kinds and their view bindings.

Structure-dominant: a two-layer graph convolution over the original
adjacency ("gcn") and an MLP over spectral structure embeddings ("s-mlp").
Feature-dominant: an MLP over raw node features ("f-mlp") and a graph
convolution over the feature-built kNN graph ("knn-gcn"), which never sees
the original edges.

Training, prediction and row-wise input gradients share one forward/backward
pass (_Workspace): a propagated model's output layer propagates only the rows
its caller reads, and a fit reuses one workspace for all its epochs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import TrainingError, ValidationError, require_int, require_type
from .graph import Graph, adjacency, node_ids, normalize_adjacency_matrix, normalized_adjacency
from .nn import (
    AdamState,
    TrainHyper,
    adam_step,
    check_targets,
    derive_seeds,
    dropout_input,
    dropout_output,
    init_params,
    keep_mask,
    masked_scale,
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

    hidden holds the hidden-layer widths; None gives the kind's default
    widths, and hidden is a tuple once the spec is built. k is the view
    parameter: eigenmap dimension for s-mlp, neighbor count for knn-gcn;
    ignored by the other kinds.
    """

    kind: str
    hidden: tuple[int, ...] | None = None
    k: int = 50
    hyper: TrainHyper = field(default_factory=TrainHyper)

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValidationError(f"unknown sub-model kind {self.kind!r}")
        require_int("k", self.k)
        require_type("hyper", self.hyper, TrainHyper)
        if self.kind in (KIND_SMLP, KIND_KNN_GCN) and self.k < 1:
            raise ValidationError(f"view parameter k must be positive, got {self.k}")
        hidden = _DEFAULT_HIDDEN[self.kind] if self.hidden is None else tuple(self.hidden)
        for width in hidden:
            require_int("hidden", width, 1)
        object.__setattr__(self, "hidden", hidden)

    @property
    def is_structure_view(self) -> bool:
        return self.kind in STRUCTURE_KINDS


@dataclass(frozen=True, eq=False)
class SubModel:
    """A spec bound to its precomputed view artifacts, ready to train.

    The node count n is the row count of inputs, so swapping inputs in
    (dataclasses.replace) sets it; a propagated model's prop must stay
    (n, n).
    """

    spec: SubModelSpec
    n_classes: int
    inputs: object  # dense ndarray or CSR feature/embedding matrix
    prop: sp.csr_matrix | None  # normalized adjacency for convolutional kinds

    def __post_init__(self):
        if self.prop is not None and self.prop.shape != (self.n, self.n):
            raise ValidationError(
                f"propagation matrix is {self.prop.shape}, inputs have {self.n} rows"
            )

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    def layer_plan(self):
        dims = [self.input_dim, *self.spec.hidden, self.n_classes]
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
        if not (self.temperature > 0 and math.isfinite(self.temperature)):
            raise ValidationError(f"temperature must be positive and finite, got {self.temperature}")


def _maybe_sparse(X):
    """Raw features as the models read them: CSR when sparse enough, else
    dense. A graph's CSR X (canonical, see make_graph) is kept or
    densified by the same rule, so either form of X gives the same bits."""
    nonzero = X.nnz if sp.issparse(X) else np.count_nonzero(X)
    if nonzero / (X.shape[0] * X.shape[1]) < _SPARSE_DENSITY and X.shape[1] >= 64:
        return X if sp.issparse(X) else sp.csr_matrix(X)
    return X.toarray() if sp.issparse(X) else X


def build_submodel(spec: SubModelSpec, g: Graph) -> SubModel:
    """Precompute the view artifact once and bind it to the spec."""
    if spec.kind == KIND_GCN:
        inputs, prop = _maybe_sparse(g.X), normalized_adjacency(g)
    elif spec.kind == KIND_FMLP:
        inputs, prop = _maybe_sparse(g.X), None
    elif spec.kind == KIND_SMLP:
        inputs, prop = smlp_features(adjacency(g), spec.k).coords, None
    else:  # knn-gcn: the feature graph replaces the original structure
        inputs = _maybe_sparse(g.X)
        prop = normalize_adjacency_matrix(knn_graph(inputs, spec.k))
    return SubModel(spec=spec, n_classes=g.C, inputs=inputs, prop=prop)


def _every_row(inputs, rows) -> bool:
    """Whether inputs[rows] would copy inputs unchanged: every row, in
    order, from CSR or from a C-ordered array, the layout the copy has."""
    n = inputs.shape[0]
    return (
        len(rows) == n
        and (sp.issparse(inputs) or inputs.flags.c_contiguous)
        and np.array_equal(rows, np.arange(n))
    )


class _Workspace:
    """Forward and backward passes of one model over fixed output rows.

    A fit builds one with training=True and reuses it for every epoch;
    predict_logits and input_gradient build an evaluation one per call.
    rows are the nodes whose logits a forward returns, in that order.

    A row-wise model takes only those input rows forward; when they are
    every row in order, it takes the input itself rather than a copy. A
    propagated model takes the whole graph through its hidden layers, but
    its output layer propagates only the rows, with prop[rows], and the
    backward pass starts from their gradient with prop[:, rows], which
    serves as the transpose of prop[rows] because prop is symmetric. Both
    give the bits of a whole-graph pass: every term they skip is a zero,
    and scipy's running sums start at +0.0, so adding a zero never changes
    them.

    A training workspace builds, here and once, all that a fit's forward
    writes and its weight-gradient backward reads: first, the first
    layer's input (under dropout, the dropout_output that each forward's
    dropout_input overwrites; else the input), its transpose first_T (a
    view, CSC for CSR inputs, so it follows each overwrite), back_prop =
    prop[:, rows], and under dropout one mask buffer per hidden layer. An
    evaluation workspace builds none of them: first is the input, first_T
    and back_prop are None and no layer has a mask, so it serves forward
    and the input-gradient backward only. The mask draws follow the
    dropout RNG contract of nn.
    """

    def __init__(self, model: SubModel, rows, training=False):
        inputs, prop, widths = model.inputs, model.prop, model.spec.hidden
        if sp.issparse(inputs):
            inputs = inputs.tocsr()
        if prop is None and not _every_row(inputs, rows):
            inputs = inputs[rows]
        self.inputs, self.prop, self.hyper = inputs, prop, model.spec.hyper
        self.training, self.n_layers = training, len(widths) + 1
        self.out_prop = None if prop is None else prop[rows]
        dropout = training and self.hyper.dropout > 0.0
        self.first = dropout_output(inputs) if dropout else inputs
        self.first_T = self.first.T if training else None
        self.back_prop = prop[:, rows] if training and prop is not None else None
        # under dropout, hidden layer l draws a mask of widths[l - 1] columns
        self.masks = [None] + [np.empty((inputs.shape[0], w)) if dropout else None for w in widths]

    def forward(self, params: dict, rng=None):
        """The rows' logits and per-layer caches (input, pre-activation,
        mask) for backward; the input dropout and the masks live in reused
        buffers, valid until the next forward."""
        keep = 1.0 - self.hyper.dropout
        a = self.inputs
        if self.training:
            a = dropout_input(a, self.hyper.dropout, rng, out=self.first)
        caches = []
        for l in range(self.n_layers):
            mask = self.masks[l]
            if l:
                a = np.maximum(z, 0.0)
                if mask is not None:
                    masked_scale(a, keep_mask(rng, keep, mask), keep, out=a)
            z = a @ params[f"W{l}"]
            if f"b{l}" in params:
                z += params[f"b{l}"]
            if self.prop is not None:
                z = (self.out_prop if l == self.n_layers - 1 else self.prop) @ z
            caches.append((a, z, mask))
        return z, caches

    def backward(self, grad_rows, caches, params: dict, grads=None):
        """Reverse pass from the rows' logit gradient. Given grads, one
        array per parameter (an AdamState's views in training), it writes
        each parameter's gradient into its array; without, it skips them
        and returns dL/dinput."""
        keep = 1.0 - self.hyper.dropout
        g = grad_rows
        for l in reversed(range(self.n_layers)):
            a, _, mask = caches[l]
            if self.prop is not None:
                g = (self.back_prop if l == self.n_layers - 1 else self.prop) @ g
            if grads is not None:
                a_T = self.first_T if l == 0 else a.T
                if sp.issparse(a_T):
                    grads[f"W{l}"][...] = a_T @ g  # scipy takes no out=: one copy
                else:
                    np.matmul(a_T, g, out=grads[f"W{l}"])
                if f"b{l}" in params:
                    g.sum(axis=0, out=grads[f"b{l}"])
            if l > 0:
                da = g @ params[f"W{l}"].T
                if mask is not None:
                    masked_scale(da, mask, keep, out=da)
                g = da * (caches[l - 1][1] > 0.0)
            elif grads is None:
                return g @ params["W0"].T
        return None


def train_submodel(model: SubModel, nodes, targets, seed: int = 0) -> TrainedSubModel:
    """Fit parameters by softmax cross-entropy over the labeled rows.

    nodes holds the labeled node ids, strictly increasing, and targets the
    class id of each; labels may mix ground truth and pseudo-labels, which
    enter through exactly the same path. Training is full-batch Adam for
    hyper.epochs from a fresh Glorot initialization and is bitwise
    reproducible for a fixed (seed, spec, data); seed is the only seed
    source. One _Workspace serves every epoch, and the loss reads only the
    labeled rows' logits. The returned params are read-only.
    """
    idx = node_ids(nodes, model.n)
    targets = np.asarray(targets)
    if not idx.size:
        raise ValidationError("train_submodel needs at least one labeled node")
    if (np.diff(idx) <= 0).any():
        raise ValidationError("labeled node ids must be strictly increasing")
    check_targets(targets, idx.size, model.n_classes)
    hyper = model.spec.hyper
    init_seed, dropout_seed = derive_seeds(seed, words=2)
    rng = np.random.default_rng(dropout_seed)

    params = init_params(model.layer_plan(), init_seed)
    state = AdamState.for_params(params)
    ws = _Workspace(model, idx, training=True)

    losses = []
    for epoch in range(1, hyper.epochs + 1):
        logits, caches = ws.forward(params, rng)
        loss, grad_logits = softmax_xent(logits, targets)
        if not np.isfinite(loss):
            raise TrainingError(
                f"loss became non-finite at epoch {epoch} "
                f"(kind={model.spec.kind}, lr={hyper.learning_rate}); "
                "check the learning rate or the input data"
            )
        ws.backward(grad_logits, caches, params, state.grads)
        adam_step(state, epoch, hyper)
        losses.append(loss)

    for p in params.values():  # views of state.flat: its flag does not reach them
        p.flags.writeable = False
    return TrainedSubModel(model=model, params=params, loss_history=tuple(losses))


def predict_logits(trained: TrainedSubModel, nodes) -> np.ndarray:
    """Deterministic (dropout-off) logits, one row per requested node."""
    nodes = node_ids(nodes, trained.model.n)
    logits, _ = _Workspace(trained.model, nodes).forward(trained.params)
    return logits


def input_gradient(
    trained: TrainedSubModel, nodes, labels, mean_over: int | None = None
) -> np.ndarray:
    """Gradient of the mean cross-entropy over nodes w.r.t. their input rows,
    row i for nodes[i]; other rows' gradients are zero for the row-wise
    models (prop is None) it serves.

    Used by gradient-guided feature attacks; evaluation mode, so the result
    is the exact input gradient of the deterministic forward. nodes must be
    distinct: a repeated node would count twice in the loss. mean_over
    (default: len(nodes)) is the count the loss divides by, so that the
    rows of a loss over more nodes can be taken a block at a time.
    """
    model = trained.model
    if model.prop is not None:
        raise ValidationError(f"input_gradient needs a row-wise model, got {model.spec.kind!r}")
    nodes = node_ids(nodes, model.n)
    labels = np.asarray(labels)
    if nodes.size == 0:
        raise ValidationError("input_gradient needs a nonempty node array")
    if np.unique(nodes).size != nodes.size:
        raise ValidationError("input_gradient node ids must be distinct")
    check_targets(labels, nodes.size, model.n_classes)
    ws = _Workspace(model, nodes)
    logits, caches = ws.forward(trained.params)
    _, grad_rows = softmax_xent(logits, labels, mean_over)
    return ws.backward(grad_rows, caches, trained.params)
