import numpy as np
import pytest

from cograph import SubModelSpec, TrainingError, ValidationError, build_submodel, predict_logits, train_submodel
from cograph.graph import make_graph, with_edges, with_features
from cograph.models import ALL_KINDS, _backward, _forward, accuracy, input_gradient
from cograph.nn import TrainHyper, finite_diff_check, init_params, softmax_xent
from helpers import labeled_map, with_inputs

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
        build_submodel(spec, easy_graph), labeled_map(easy_graph, easy_split.labeled), seed=0
    )
    train_acc = accuracy(model, easy_split.labeled, easy_graph.labels[easy_split.labeled])
    assert train_acc == 1.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_loss_decreases_over_first_ten_epochs(easy_graph, easy_split, kind):
    spec = SubModelSpec(kind=kind, k=10, hyper=FAST)
    model = train_submodel(
        build_submodel(spec, easy_graph), labeled_map(easy_graph, easy_split.labeled), seed=1
    )
    assert model.loss_history[9] < model.loss_history[0]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_training_bitwise_reproducible(easy_graph, easy_split, kind):
    spec = SubModelSpec(kind=kind, k=10, hyper=FAST)
    lab = labeled_map(easy_graph, easy_split.labeled)
    a = train_submodel(build_submodel(spec, easy_graph), lab, seed=3)
    b = train_submodel(build_submodel(spec, easy_graph), lab, seed=3)
    assert a.loss_history == b.loss_history
    assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)


def test_predict_deterministic(easy_graph, easy_split):
    model = train_submodel(
        build_submodel(SubModelSpec(kind="gcn", hyper=FAST), easy_graph),
        labeled_map(easy_graph, easy_split.labeled),
        seed=0,
    )
    nodes = np.arange(easy_graph.n)
    assert np.array_equal(predict_logits(model, nodes), predict_logits(model, nodes))


def test_predict_rejects_out_of_range(easy_graph, easy_split):
    model = train_submodel(
        build_submodel(SubModelSpec(kind="f-mlp", hyper=FAST), easy_graph),
        labeled_map(easy_graph, easy_split.labeled),
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
        build_submodel(SubModelSpec(kind="gcn", hyper=FAST), g), {0: 0, 1: 1}, seed=0
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
        labeled_map(easy_graph, easy_split.labeled),
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
        build_submodel(spec, easy_graph), labeled_map(easy_graph, easy_split.labeled), seed=0
    )
    flipped = with_features(easy_graph, 1.0 - easy_graph.X)
    rebuilt = build_submodel(spec, flipped)
    # the structure view is computed from edges only
    assert np.array_equal(np.asarray(model.model.inputs), np.asarray(rebuilt.inputs))


def test_pseudo_labels_use_same_code_path(easy_graph, easy_split):
    # training on {true labels} == training on a dict carrying the same
    # values regardless of their provenance
    lab = labeled_map(easy_graph, easy_split.labeled)
    spec = SubModelSpec(kind="gcn", hyper=FAST)
    a = train_submodel(build_submodel(spec, easy_graph), lab, seed=5)
    b = train_submodel(build_submodel(spec, easy_graph), dict(reversed(lab.items())), seed=5)
    assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)


def test_train_rejects_empty_labeled_set(easy_graph):
    with pytest.raises(ValidationError):
        train_submodel(build_submodel(SubModelSpec(kind="gcn"), easy_graph), {}, seed=0)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_train_aborts_on_divergence(easy_graph, easy_split):
    # plain gradient descent at an absurd rate overflows within a few epochs
    crazy = TrainHyper(learning_rate=1e12, epochs=30, dropout=0.0, optimizer="sgd")
    spec = SubModelSpec(kind="f-mlp", hyper=crazy)
    with pytest.raises(TrainingError):
        train_submodel(
            build_submodel(spec, easy_graph), labeled_map(easy_graph, easy_split.labeled), seed=0
        )


def test_relu_gradient_check_away_from_kinks():
    # probe a trained ReLU net where every preactivation is far from zero
    rng = np.random.default_rng(4)
    X = rng.normal(size=(6, 5))
    g = make_graph(6, [(0, 1), (2, 3), (4, 5), (1, 2)], X, np.array([0, 1, 0, 1, 0, 1]), 2)
    hyper = TrainHyper(dropout=0.0, weight_decay=0.0)
    sm = build_submodel(SubModelSpec(kind="gcn", hyper=hyper), g)
    plan = sm.layer_plan()
    eps = 1e-5
    for seed in range(20):
        params = init_params(plan, seed=seed)
        _, caches = _forward(sm.inputs, sm.prop, params, len(plan), hyper, None, False)
        if min(np.abs(c[1]).min() for c in caches[:-1]) > 10 * eps:
            break
    else:
        pytest.fail("no kink-free initialization found")

    targets = g.labels
    mask = np.arange(6)

    def loss_fn(p):
        logits, _ = _forward(sm.inputs, sm.prop, p, len(plan), hyper, None, False)
        return softmax_xent(logits, targets, mask)[0]

    def grad_fn(p):
        logits, caches = _forward(sm.inputs, sm.prop, p, len(plan), hyper, None, False)
        _, gl = softmax_xent(logits, targets, mask)
        grads, _ = _backward(gl, caches, sm.prop, p, hyper)
        return grads

    assert finite_diff_check(loss_fn, grad_fn, params, eps=eps) < 1e-4


def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    X = (rng.random((8, 6)) < 0.5).astype(float)
    g = make_graph(8, [(0, 1), (2, 3)], X, rng.integers(0, 2, 8), 2)
    hyper = TrainHyper(dropout=0.0, epochs=40)
    model = train_submodel(
        build_submodel(SubModelSpec(kind="f-mlp", hyper=hyper), g), {0: 0, 1: 1}, seed=2
    )
    nodes = np.array([4, 5, 6])
    labels = g.labels[nodes]
    grad = input_gradient(model, nodes, labels)

    eps = 1e-6
    worst = 0.0
    for i in (4, 5):
        for j in range(6):
            up, down = np.array(X), np.array(X)
            up[i, j] += eps
            down[i, j] -= eps
            lu = softmax_xent(predict_logits(with_inputs(model, up), nodes), labels, np.arange(3))[0]
            ld = softmax_xent(predict_logits(with_inputs(model, down), nodes), labels, np.arange(3))[0]
            fd = (lu - ld) / (2 * eps)
            worst = max(worst, abs(fd - grad[i, j]) / max(abs(fd), abs(grad[i, j]), 1e-6))
    assert worst < 1e-4
