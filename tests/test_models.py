from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from cograph import SubModelSpec, TrainingError, ValidationError, build_submodel, predict_logits, train_submodel
from cograph.cotrain import PROV_FEAT, PROVENANCE, CoTrainState
from cograph.graph import make_graph, with_edges, with_features
from cograph.models import ALL_KINDS, _Workspace, input_gradient
from cograph.nn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    TrainHyper,
    derive_seeds,
    init_params,
    log_softmax,
    softmax,
    softmax_xent,
)
from helpers import accuracy, finite_diff_check, truth, with_inputs

FAST = TrainHyper(epochs=60)


def test_spec_defaults():
    assert SubModelSpec(kind="gcn").hidden_dims == (16,)
    assert SubModelSpec(kind="f-mlp").hidden_dims == (32,)
    assert SubModelSpec(kind="s-mlp").hidden_dims == (32,)
    assert SubModelSpec(kind="knn-gcn").hidden_dims == (16,)
    assert SubModelSpec(kind="gcn", hidden=(64, 32)).hidden_dims == (64, 32)


def test_spec_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        SubModelSpec(kind="gat")


def test_view_binding_shapes(easy_graph):
    m = easy_graph.m
    fmlp = build_submodel(SubModelSpec(kind="f-mlp"), easy_graph)
    assert fmlp.input_dim == m and fmlp.prop is None

    smlp = build_submodel(SubModelSpec(kind="s-mlp", k=9), easy_graph)
    assert smlp.input_dim == 18 and smlp.prop is None  # 2k concatenation

    gcn = build_submodel(SubModelSpec(kind="gcn"), easy_graph)
    assert gcn.input_dim == m and gcn.prop is not None

    knn = build_submodel(SubModelSpec(kind="knn-gcn", k=10), easy_graph)
    assert knn.input_dim == m and knn.prop is not None
    # feature graph replaces the citation graph: different sparsity pattern
    assert (knn.prop != gcn.prop).nnz > 0


def test_gcn_layers_have_no_bias_mlp_layers_do(easy_graph):
    gcn = build_submodel(SubModelSpec(kind="gcn"), easy_graph)
    assert all(not b for _, _, b in gcn.layer_plan())
    mlp = build_submodel(SubModelSpec(kind="f-mlp"), easy_graph)
    assert all(b for _, _, b in mlp.layer_plan())


def test_noiseless_fixture_fmlp_reaches_full_train_accuracy(easy_graph, easy_split):
    spec = SubModelSpec(kind="f-mlp")
    model = train_submodel(
        build_submodel(spec, easy_graph), *truth(easy_graph, easy_split.labeled), seed=0
    )
    train_acc = accuracy(model, easy_split.labeled, easy_graph.labels[easy_split.labeled])
    assert train_acc == 1.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_loss_decreases_over_first_ten_epochs(easy_graph, easy_split, kind):
    spec = SubModelSpec(kind=kind, k=10, hyper=FAST)
    model = train_submodel(
        build_submodel(spec, easy_graph), *truth(easy_graph, easy_split.labeled), seed=1
    )
    assert model.loss_history[9] < model.loss_history[0]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_training_bitwise_reproducible(easy_graph, easy_split, kind):
    spec = SubModelSpec(kind=kind, k=10, hyper=FAST)
    lab = truth(easy_graph, easy_split.labeled)
    a = train_submodel(build_submodel(spec, easy_graph), *lab, seed=3)
    b = train_submodel(build_submodel(spec, easy_graph), *lab, seed=3)
    assert a.loss_history == b.loss_history
    assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)


def test_predict_deterministic(easy_graph, easy_split):
    model = train_submodel(
        build_submodel(SubModelSpec(kind="gcn", hyper=FAST), easy_graph),
        *truth(easy_graph, easy_split.labeled),
        seed=0,
    )
    nodes = np.arange(easy_graph.n)
    assert np.array_equal(predict_logits(model, nodes), predict_logits(model, nodes))


def test_predict_rejects_out_of_range(easy_graph, easy_split):
    model = train_submodel(
        build_submodel(SubModelSpec(kind="f-mlp", hyper=FAST), easy_graph),
        *truth(easy_graph, easy_split.labeled),
        seed=0,
    )
    with pytest.raises(ValidationError):
        predict_logits(model, [easy_graph.n])


def test_gcn_logits_local_to_two_hops():
    # path 0-1-2-3-4-5: editing features of node 5 cannot reach node 0
    rng = np.random.default_rng(0)
    X = rng.random((6, 4))
    g = make_graph(6, [(i, i + 1) for i in range(5)], X, np.array([0, 1] * 3), 2)
    model = train_submodel(
        build_submodel(SubModelSpec(kind="gcn", hyper=FAST), g), [0, 1], [0, 1], seed=0
    )
    before = predict_logits(model, [0, 1, 2, 3])

    X2 = np.array(X)
    X2[5] = 99.0
    far = with_features(g, X2)
    moved = build_submodel(SubModelSpec(kind="gcn", hyper=FAST), far)
    model2 = with_inputs(model, moved.inputs)
    after = predict_logits(model2, [0, 1, 2, 3])
    # nodes 0, 1, 2 sit more than 2 hops from node 5: bitwise unchanged
    assert np.array_equal(before[:3], after[:3])
    # node 3 is exactly 2 hops away, inside the receptive field
    assert not np.array_equal(before[3], after[3])


def test_fmlp_invariant_to_any_structural_perturbation(easy_graph, easy_split):
    model = train_submodel(
        build_submodel(SubModelSpec(kind="f-mlp", hyper=FAST), easy_graph),
        *truth(easy_graph, easy_split.labeled),
        seed=0,
    )
    nodes = np.arange(easy_graph.n)
    before = predict_logits(model, nodes)
    stripped = with_edges(easy_graph, [(0, 1)])
    rebuilt = build_submodel(SubModelSpec(kind="f-mlp", hyper=FAST), stripped)
    inputs = model.model.inputs
    assert np.array_equal(
        np.asarray(inputs.todense() if hasattr(inputs, "todense") else inputs),
        np.asarray(rebuilt.inputs.todense() if hasattr(rebuilt.inputs, "todense") else rebuilt.inputs),
    )
    assert np.array_equal(before, predict_logits(with_inputs(model, rebuilt.inputs), nodes))


def test_smlp_invariant_to_any_feature_perturbation(easy_graph, easy_split):
    spec = SubModelSpec(kind="s-mlp", k=8, hyper=FAST)
    model = train_submodel(
        build_submodel(spec, easy_graph), *truth(easy_graph, easy_split.labeled), seed=0
    )
    flipped = with_features(easy_graph, 1.0 - easy_graph.X)
    rebuilt = build_submodel(spec, flipped)
    # the structure view is computed from edges only
    assert np.array_equal(np.asarray(model.model.inputs), np.asarray(rebuilt.inputs))


def test_pseudo_labels_use_same_code_path(easy_graph, easy_split):
    # the (nodes, targets) read off a co-training state's arrays train
    # exactly like the truth arrays of the same nodes, whatever the provenance
    g = easy_graph
    pseudo = easy_split.test[::4]
    label = np.full(g.n, -1, dtype=np.int64)
    label[easy_split.labeled] = g.labels[easy_split.labeled]
    label[pseudo] = g.labels[pseudo]
    provenance = np.zeros(g.n, dtype=np.int8)
    provenance[pseudo] = PROVENANCE.index(PROV_FEAT)
    state = CoTrainState(label=label, provenance=provenance, added_in=provenance.astype(np.int64))
    nodes = np.flatnonzero(state.label >= 0)
    spec = SubModelSpec(kind="gcn", hyper=FAST)
    a = train_submodel(build_submodel(spec, g), nodes, state.label[nodes], seed=5)
    b = train_submodel(
        build_submodel(spec, g), *truth(g, np.union1d(easy_split.labeled, pseudo)), seed=5
    )
    assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)


@pytest.mark.parametrize(
    "nodes, targets",
    [
        ([], []),
        ([3, 1], [0, 1]),
        ([1, 1], [0, 0]),
        ([1, 3], [0]),
        ([-1, 3], [0, 1]),
        ([1, 300], [0, 1]),
        ([1, 3], [0, 3]),
    ],
    ids=["empty", "unsorted", "repeated", "short-targets", "negative-id", "id-past-n", "class-past-C"],
)
def test_train_rejects_a_bad_labeled_set(easy_graph, nodes, targets):
    assert easy_graph.n == 300 and easy_graph.C == 3
    model = build_submodel(SubModelSpec(kind="gcn"), easy_graph)
    with pytest.raises(ValidationError):
        train_submodel(model, nodes, targets, seed=0)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_train_aborts_on_divergence(easy_graph, easy_split):
    # Adam at an absurd rate overflows within a few epochs
    crazy = TrainHyper(learning_rate=1e300, epochs=30, dropout=0.0)
    spec = SubModelSpec(kind="f-mlp", hyper=crazy)
    with pytest.raises(TrainingError):
        train_submodel(
            build_submodel(spec, easy_graph), *truth(easy_graph, easy_split.labeled), seed=0
        )


def test_relu_gradient_check_away_from_kinks():
    # probe a trained ReLU net where every preactivation is far from zero
    rng = np.random.default_rng(4)
    X = rng.normal(size=(6, 5))
    g = make_graph(6, [(0, 1), (2, 3), (4, 5), (1, 2)], X, np.array([0, 1, 0, 1, 0, 1]), 2)
    hyper = TrainHyper(dropout=0.0, weight_decay=0.0)
    sm = build_submodel(SubModelSpec(kind="gcn", hyper=hyper), g)
    ws = _Workspace.of(sm, np.arange(g.n))  # every node's logits, dropout off
    eps = 1e-5
    for seed in range(20):
        params = init_params(sm.layer_plan(), seed=seed)
        _, caches = ws.forward(params)
        if min(np.abs(c[1]).min() for c in caches[:-1]) > 10 * eps:
            break
    else:
        pytest.fail("no kink-free initialization found")

    targets = g.labels

    def loss_fn(p):
        logits, _ = ws.forward(p)
        return softmax_xent(logits, targets)[0]

    def grad_fn(p):
        logits, caches = ws.forward(p)
        _, gl = softmax_xent(logits, targets)
        grads = {k: np.empty_like(v) for k, v in p.items()}
        ws.backward(gl, caches, p, grads)  # writes each gradient into grads
        return grads

    assert finite_diff_check(loss_fn, grad_fn, params, eps=eps) < 1e-4


def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    X = (rng.random((8, 6)) < 0.5).astype(float)
    g = make_graph(8, [(0, 1), (2, 3)], X, rng.integers(0, 2, 8), 2)
    hyper = TrainHyper(dropout=0.0, epochs=40)
    model = train_submodel(
        build_submodel(SubModelSpec(kind="f-mlp", hyper=hyper), g), [0, 1], [0, 1], seed=2
    )
    nodes = np.array([4, 5, 6])
    labels = g.labels[nodes]
    grad = input_gradient(model, nodes, labels)

    eps = 1e-6
    worst = 0.0
    for row, i in enumerate(nodes[:2]):  # the gradient rows follow nodes
        for j in range(6):
            up, down = np.array(X), np.array(X)
            up[i, j] += eps
            down[i, j] -= eps
            lu = softmax_xent(predict_logits(with_inputs(model, up), nodes), labels)[0]
            ld = softmax_xent(predict_logits(with_inputs(model, down), nodes), labels)[0]
            fd = (lu - ld) / (2 * eps)
            worst = max(worst, abs(fd - grad[row, j]) / max(abs(fd), abs(grad[row, j]), 1e-6))
    assert worst < 1e-4


def _reference_params(model, labeled, seed):
    """train_submodel's parameters from the first-written epoch formulas:
    np.where dropout masks, separate log_softmax and softmax, and Adam on
    fresh arrays. The optimized epoch must reproduce them bit for bit."""
    hyper = model.spec.hyper
    init_seed, dropout_seed = derive_seeds(seed, words=2)
    rng = np.random.default_rng(dropout_seed)
    params = init_params(model.layer_plan(), init_seed)
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    idx, y = labeled
    if model.prop is None:
        inputs, rows = model.inputs[idx], np.arange(idx.size)
    else:
        inputs, rows = model.inputs, idx
    keep = 1.0 - hyper.dropout
    n_layers = len(model.layer_plan())
    for t in range(1, hyper.epochs + 1):
        caches, h = [], inputs
        for l in range(n_layers):
            mask = None
            if l == 0 and sp.issparse(h):
                a = h.copy()
                a.data = np.where(rng.random(a.data.shape[0]) < keep, a.data / keep, 0.0)
            elif l == 0:
                a = np.where(rng.random(h.shape) < keep, h / keep, 0.0)
            else:
                mask = rng.random(h.shape) < keep
                a = np.where(mask, h / keep, 0.0)
            z = a @ params[f"W{l}"]
            if f"b{l}" in params:
                z = z + params[f"b{l}"]
            if model.prop is not None:
                z = model.prop @ z
            caches.append((a, z, mask))
            h = np.maximum(z, 0.0) if l < n_layers - 1 else z
        assert np.isfinite(-log_softmax(h[rows])[np.arange(idx.size), y].mean())
        grad_rows = softmax(h[rows])
        grad_rows[np.arange(idx.size), y] -= 1.0
        g = np.zeros_like(h)
        g[rows] = grad_rows / idx.size
        grads = {}
        for l in reversed(range(n_layers)):
            a, z, mask = caches[l]
            if model.prop is not None:
                g = model.prop @ g
            grads[f"W{l}"] = np.asarray(a.T @ g)
            if f"b{l}" in params:
                grads[f"b{l}"] = g.sum(axis=0)
            if l > 0:
                da = g @ params[f"W{l}"].T
                if mask is not None:
                    da = np.where(mask, da / keep, 0.0)
                g = da * (caches[l - 1][1] > 0.0)
        for name, p in params.items():
            grad = grads[name]
            if name.startswith("W"):
                grad = grad + hyper.weight_decay * p
            m[name] = ADAM_BETA1 * m[name] + (1.0 - ADAM_BETA1) * grad
            v[name] = ADAM_BETA2 * v[name] + (1.0 - ADAM_BETA2) * grad * grad
            m_hat = m[name] / (1.0 - ADAM_BETA1**t)
            v_hat = v[name] / (1.0 - ADAM_BETA2**t)
            p -= hyper.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params


@pytest.mark.parametrize("features", ["csr", "dense"])
@pytest.mark.parametrize("kind", ["gcn", "f-mlp"])
def test_epoch_matches_reference_formulas_bitwise(kind, features):
    rng = np.random.default_rng(8)
    n = 60
    X = (rng.random((n, 80)) < 0.06).astype(float)
    edges = {(int(i), int(j)) for i, j in rng.integers(0, n, size=(150, 2)) if i < j}
    g = make_graph(n, sorted(edges), X, rng.integers(0, 3, size=n), 3)
    model = build_submodel(SubModelSpec(kind=kind, hyper=TrainHyper(epochs=5)), g)
    assert sp.issparse(model.inputs)
    if features == "dense":  # negative inputs, so dropped values start out -0.0
        model = replace(model, inputs=rng.normal(size=(n, 80)))
    labeled = truth(g, range(0, n, 3))
    trained = train_submodel(model, *labeled, seed=2)
    reference = _reference_params(model, labeled, seed=2)
    assert trained.params.keys() == reference.keys()
    assert all(trained.params[k].tobytes() == reference[k].tobytes() for k in reference)


@pytest.mark.parametrize("kind", ["f-mlp", "gcn"])
def test_fits_share_no_parameter_buffer(attack_graph, attack_split, kind):
    """Each fit's parameters live in a buffer of their own: a second fit of
    the same model, and scoring the first, leave them byte for byte."""
    model = build_submodel(SubModelSpec(kind=kind, hyper=TrainHyper(epochs=20)), attack_graph)
    labeled = truth(attack_graph, attack_split.labeled)
    first = train_submodel(model, *labeled, seed=0)
    before = {k: p.tobytes() for k, p in first.params.items()}
    second = train_submodel(model, *labeled, seed=0)
    assert all(second.params[k].tobytes() == before[k] for k in before)  # same seed, same bits
    nodes = attack_split.test
    predict_logits(first, nodes)
    if kind == "f-mlp":
        input_gradient(first, nodes, attack_graph.labels[nodes])
    train_submodel(model, *labeled, seed=1)
    assert {k: p.tobytes() for k, p in first.params.items()} == before
    assert not any(np.shares_memory(first.params[k], second.params[k]) for k in before)


@pytest.mark.parametrize("kind", ["f-mlp", "s-mlp"])
def test_input_gradient_rejects_repeated_nodes(easy_graph, easy_split, kind):
    """A repeated node would count twice in the loss but once in the
    gradient; the ids must be distinct."""
    spec = SubModelSpec(kind=kind, k=5, hyper=TrainHyper(epochs=5))
    trained = train_submodel(
        build_submodel(spec, easy_graph), *truth(easy_graph, easy_split.labeled), seed=0
    )
    nodes = np.array([5, 5, 7])
    with pytest.raises(ValidationError, match="distinct"):
        input_gradient(trained, nodes, easy_graph.labels[nodes])
    grad = input_gradient(trained, nodes[1:], easy_graph.labels[nodes[1:]])
    assert grad.shape == (2, trained.model.input_dim)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
def test_input_gradient_of_a_row_block_matches_the_whole_loss(easy_graph, easy_split, sparse):
    """With mean_over set to the whole node count, a block of the nodes
    gets the rows of the whole loss's gradient, whatever its own size."""
    trained = train_submodel(
        build_submodel(SubModelSpec(kind="f-mlp", hyper=TrainHyper(epochs=5)), easy_graph),
        *truth(easy_graph, easy_split.labeled),
        seed=0,
    )
    if sparse:
        trained = with_inputs(trained, sp.csr_matrix(trained.model.inputs))
    nodes = easy_split.test
    labels = easy_graph.labels[nodes]
    whole = input_gradient(trained, nodes, labels)
    for lo, hi in ((0, 7), (7, nodes.size)):  # blocks of unequal size
        part = input_gradient(trained, nodes[lo:hi], labels[lo:hi], mean_over=nodes.size)
        assert np.allclose(part, whole[lo:hi], rtol=1e-10, atol=1e-15)
        own = input_gradient(trained, nodes[lo:hi], labels[lo:hi])  # divided by the block's size
        assert np.allclose(own * (hi - lo) / nodes.size, whole[lo:hi], rtol=1e-10, atol=1e-15)


@pytest.mark.parametrize("kind", ["gcn", "knn-gcn"])
def test_input_gradient_refuses_propagated_model(easy_graph, easy_split, kind):
    """A propagated model's loss reads other nodes' inputs, so its input
    gradient is not row-wise; input_gradient refuses it."""
    spec = SubModelSpec(kind=kind, k=5, hyper=TrainHyper(epochs=5))
    trained = train_submodel(
        build_submodel(spec, easy_graph), *truth(easy_graph, easy_split.labeled), seed=0
    )
    nodes = np.array([5, 7])
    with pytest.raises(ValidationError, match="row-wise"):
        input_gradient(trained, nodes, easy_graph.labels[nodes])
