"""The per-fit training workspace against a copy of the whole-graph epoch.

train_submodel propagates only the loss rows through a propagated model's
output layer and reuses one set of buffers for every epoch. The reference
below is the earlier epoch, kept verbatim in spirit: every layer
propagates all n rows, the loss gathers the labeled rows from the full
logits and scatters their gradient back into an n-row zero matrix, and
dropout and Adam allocate fresh arrays. Both must give the same bits.
"""

import importlib
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from cograph.cotrain import cotrain
from cograph.graph import generate_synthetic, make_graph, split_nodes
from cograph.models import (
    SubModelSpec,
    _Workspace,
    build_submodel,
    input_gradient,
    predict_logits,
    train_submodel,
)
from cograph.nn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    TrainHyper,
    derive_seeds,
    init_params,
    softmax_xent,
)
from helpers import truth

cotrain_mod = importlib.import_module("cograph.cotrain")
models_mod = importlib.import_module("cograph.models")


def _masked_scale(x, mask, keep):
    out = x / keep
    out *= mask
    out += 0.0
    return out


def _dropout_input(x, rate, rng):
    keep = 1.0 - rate
    if sp.issparse(x):
        x = x.tocsr()
        mask = rng.random(x.data.shape[0]) < keep
        return type(x)((_masked_scale(x.data, mask, keep), x.indices, x.indptr), shape=x.shape)
    return _masked_scale(x, rng.random(x.shape) < keep, keep)


def _xent(logits, targets, mask):
    z = logits[mask]
    y = targets[mask]
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    rows = np.arange(mask.size)
    loss = float(-(shifted[rows, y] - np.log(total[:, 0])).mean())
    grad_rows = e / total
    grad_rows[rows, y] -= 1.0
    grad_rows /= mask.size
    grad = np.zeros_like(logits)
    grad[mask] = grad_rows
    return loss, grad


def _forward(inputs, prop, params, n_layers, hyper, rng, training):
    h, caches = inputs, []
    for l in range(n_layers):
        if l == 0:
            a = _dropout_input(h, hyper.dropout, rng) if training and hyper.dropout else h
            mask = None
        elif training and hyper.dropout > 0.0:
            keep = 1.0 - hyper.dropout
            mask = rng.random(h.shape) < keep
            a = _masked_scale(h, mask, keep)
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


def _backward(grad_logits, caches, prop, params, hyper):
    grads, g = {}, grad_logits
    for l in reversed(range(len(caches))):
        a, z, mask = caches[l]
        if prop is not None:
            g = prop @ g
        grads[f"W{l}"] = np.asarray(a.T @ g)
        if f"b{l}" in params:
            grads[f"b{l}"] = g.sum(axis=0)
        if l > 0:
            da = g @ params[f"W{l}"].T
            if mask is not None:
                da = _masked_scale(da, mask, 1.0 - hyper.dropout)
            g = da * (caches[l - 1][1] > 0.0)
    return grads


def _decayed(name, grad, param, weight_decay):
    if weight_decay != 0.0 and name.startswith("W"):
        return grad + weight_decay * param
    return grad


def _adam(params, grads, m, v, t, hyper):
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    for name, p in params.items():
        g = _decayed(name, grads[name], p, hyper.weight_decay)
        step = np.multiply(g, 1.0 - ADAM_BETA1)
        m[name] *= ADAM_BETA1
        m[name] += step
        np.multiply(g, 1.0 - ADAM_BETA2, out=step)
        step *= g
        v[name] *= ADAM_BETA2
        v[name] += step
        denom = np.divide(v[name], c2)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        np.divide(m[name], c1, out=step)
        step *= hyper.learning_rate
        step /= denom
        p -= step


def _rows(model, nodes):
    if model.prop is None:
        return model.inputs[nodes], np.arange(nodes.size)
    return model.inputs, nodes


def _whole_graph_fit(model, labeled, seed):
    """(params, loss history) of the whole-graph epoch loop."""
    hyper = model.spec.hyper
    idx, y = labeled
    init_seed, dropout_seed = derive_seeds(seed, words=2)
    rng = np.random.default_rng(dropout_seed)
    params = init_params(model.layer_plan(), init_seed)
    n_layers = len(model.layer_plan())
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    inputs, mask = _rows(model, idx)
    targets = np.zeros(inputs.shape[0], dtype=np.int64)
    targets[mask] = y
    losses = []
    for epoch in range(1, hyper.epochs + 1):
        logits, caches = _forward(inputs, model.prop, params, n_layers, hyper, rng, True)
        loss, grad_logits = _xent(logits, targets, mask)
        grads = _backward(grad_logits, caches, model.prop, params, hyper)
        _adam(params, grads, m, v, epoch, hyper)
        losses.append(loss)
    return params, tuple(losses)


def _sparse_words_graph():
    """Bag-of-words features (CSR inputs) on a small random graph."""
    rng = np.random.default_rng(8)
    n = 90
    X = (rng.random((n, 80)) < 0.06).astype(float)
    edges = {(int(i), int(j)) for i, j in rng.integers(0, n, size=(220, 2)) if i < j}
    return make_graph(n, sorted(edges), X, rng.integers(0, 3, size=n), 3)


def _dense_graph():
    return generate_synthetic(n=300, C=3, p_in=0.10, p_out=0.01, m=30, feature_noise=0.2, seed=7)


CASES = {
    "knn-gcn-csr": ("knn-gcn", "words", {}),
    "knn-gcn-dense": ("knn-gcn", "dense", {}),
    "s-mlp": ("s-mlp", "dense", {}),
    "gcn-csr": ("gcn", "words", {}),
    "f-mlp-dense": ("f-mlp", "dense", {}),
    "gcn-no-dropout": ("gcn", "dense", {"dropout": 0.0}),
    "f-mlp-csr-no-dropout": ("f-mlp", "words", {"dropout": 0.0}),
    "knn-gcn-no-dropout": ("knn-gcn", "words", {"dropout": 0.0}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fit_matches_whole_graph_epoch_bitwise(case):
    kind, graph, hyper = CASES[case]
    g = _sparse_words_graph() if graph == "words" else _dense_graph()
    model = build_submodel(SubModelSpec(kind=kind, k=8, hyper=TrainHyper(epochs=12, **hyper)), g)
    assert sp.issparse(model.inputs) == (graph == "words" and kind != "s-mlp")
    labeled = truth(g, range(1, g.n, 4))
    trained = train_submodel(model, *labeled, seed=3)
    params, losses = _whole_graph_fit(model, labeled, seed=3)
    assert trained.params.keys() == params.keys()
    assert all(trained.params[k].tobytes() == params[k].tobytes() for k in params)
    assert np.array(trained.loss_history).tobytes() == np.array(losses).tobytes()


def _fit_bytes(model, labeled, seed):
    trained = train_submodel(model, *labeled, seed=seed)
    parts = [trained.params[k].tobytes() for k in sorted(trained.params)]
    return b"".join(parts) + np.array(trained.loss_history).tobytes()


def test_consecutive_fits_leave_no_state_behind():
    g = _sparse_words_graph()
    labeled = truth(g, range(0, g.n, 3))
    knn = build_submodel(SubModelSpec(kind="knn-gcn", k=8, hyper=TrainHyper(epochs=10)), g)
    fmlp = build_submodel(SubModelSpec(kind="f-mlp", hyper=TrainHyper(epochs=10)), g)
    first = _fit_bytes(knn, labeled, 4)
    other = _fit_bytes(fmlp, labeled, 4)
    assert _fit_bytes(knn, labeled, 4) == first
    assert _fit_bytes(fmlp, labeled, 4) == other
    # a fit on other labels in between changes nothing either
    _fit_bytes(knn, truth(g, range(1, g.n, 7)), 9)
    assert _fit_bytes(knn, labeled, 4) == first


def test_overlapped_fits_match_serial_fits(monkeypatch):
    g = _sparse_words_graph()
    split = split_nodes(g, 0.2, 0.1, 0)
    specs = [
        SubModelSpec(kind="gcn", hyper=TrainHyper(epochs=15)),
        SubModelSpec(kind="knn-gcn", k=8, hyper=TrainHyper(epochs=15)),
    ]

    def run():
        f_s, f_f, state = cotrain(g, split, *specs, n_add=10, max_iters=2, seed=5)
        params = [f.params[k].tobytes() for f in (f_s, f_f) for k in sorted(f.params)]
        logits = [lg.tobytes() for lg in state.final_logits]
        return params, logits, [r.to_json() for r in state.history]

    assert g.n < cotrain_mod.OVERLAP_MIN_NODES
    serial = run()
    monkeypatch.setattr(cotrain_mod, "OVERLAP_MIN_NODES", 0)
    assert run() == serial
    assert run() == serial


def test_training_keeps_the_model_inputs_untouched():
    g = _sparse_words_graph()
    model = build_submodel(SubModelSpec(kind="knn-gcn", k=8, hyper=TrainHyper(epochs=5)), g)
    before = (model.inputs.data.copy(), model.inputs.indices.copy(), model.inputs.indptr.copy())
    train_submodel(model, *truth(g, range(0, g.n, 3)), seed=0)
    after = (model.inputs.data, model.inputs.indices, model.inputs.indptr)
    assert all(np.array_equal(b, a) for b, a in zip(before, after))
    dense = replace(model, inputs=model.inputs.toarray())
    copy = dense.inputs.copy()
    train_submodel(dense, *truth(g, range(0, g.n, 3)), seed=0)
    assert dense.inputs.tobytes() == copy.tobytes()


def test_evaluation_workspaces_build_no_backward_operands(monkeypatch):
    """predict_logits and input_gradient build no CSC transpose of the
    inputs and no prop[:, rows]: only a fit's weight-gradient backward
    reads them."""
    built = []

    class Recording(_Workspace):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(models_mod, "_Workspace", Recording)
    g = _sparse_words_graph()
    labeled = truth(g, range(0, g.n, 3))
    hyper = TrainHyper(epochs=3)
    gcn, fmlp = (
        train_submodel(build_submodel(SubModelSpec(kind=kind, hyper=hyper), g), *labeled, seed=0)
        for kind in ("gcn", "f-mlp")
    )
    built.clear()
    predict_logits(gcn, np.arange(g.n))
    predict_logits(fmlp, [5, 1, 7])
    input_gradient(fmlp, [5, 1, 7], [0, 1, 2])
    assert len(built) == 3
    for ws in built:
        assert not any(sp.issparse(v) and v.format == "csc" for v in vars(ws).values())
        assert ws.first_T is None and ws.back_prop is None


def _values(m):
    return m.data if sp.issparse(m) else m


@pytest.mark.parametrize("kind, graph", [("gcn", "words"), ("knn-gcn", "words"), ("f-mlp", "dense")])
def test_training_backward_reads_what_construction_built(kind, graph):
    g = _sparse_words_graph() if graph == "words" else _dense_graph()
    model = build_submodel(SubModelSpec(kind=kind, k=8, hyper=TrainHyper(epochs=2)), g)
    idx, y = truth(g, range(1, g.n, 4))
    ws = _Workspace(model, idx, training=True)
    built = (ws.first, ws.first_T, ws.back_prop, *ws.masks)
    # the transpose is a view: it follows each forward's dropout overwrite
    assert np.shares_memory(_values(ws.first_T), _values(ws.first))
    assert (ws.back_prop is None) == (model.prop is None)
    params = init_params(model.layer_plan(), 0)
    state = AdamState.for_params(params)
    rng = np.random.default_rng(0)
    for _ in range(2):
        logits, caches = ws.forward(params, rng)
        assert caches[0][0] is ws.first
        ws.backward(softmax_xent(logits, y)[1], caches, params, state.grads)
        assert all(a is b for a, b in zip((ws.first, ws.first_T, ws.back_prop, *ws.masks), built))
