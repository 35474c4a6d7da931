import importlib
import threading
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cograph import (
    SubModelSpec,
    TrainingError,
    ValidationError,
    class_quota,
    cotrain,
    ensemble_predict,
    generate_synthetic,
    split_nodes,
)
from cograph.calibration import calibrate
from cograph.cotrain import (
    PROV_FEAT,
    PROV_STRUCT,
    PROV_TRUTH,
    PROVENANCE,
    audit_state,
    resolve_conflicts,
    select_confident,
)
from cograph.graph import NodeSplit
from cograph.models import build_submodel, predict_logits, train_submodel
from cograph.nn import TrainHyper
from helpers import truth

FAST = TrainHyper(epochs=60)
# the package exports the cotrain function under the submodule's name
cotrain_module = importlib.import_module("cograph.cotrain")


# --- quotas ----------------------------------------------------------------


def test_quota_exact_proportions():
    assert class_quota([50, 30, 20], 10) == (5, 3, 2)


def test_quota_largest_remainder():
    # exact shares 2.8 and 1.2 -> (3, 1)
    assert class_quota([7, 3], 4) == (3, 1)


def test_quota_zero_add():
    assert class_quota([5, 5], 0) == (0, 0)


def test_quota_absent_class_gets_zero():
    assert class_quota([10, 0, 10], 8) == (4, 0, 4)


def test_quota_rejects_empty_histogram():
    with pytest.raises(ValidationError):
        class_quota([0, 0], 4)


@pytest.mark.parametrize("histogram", [[3, -1], [np.nan, 1], [np.inf, 1]], ids=["negative", "nan", "inf"])
def test_quota_refuses_an_entry_that_is_negative_or_not_finite(histogram):
    # a negative entry would hand out negative counts: [3, -1] split 4 as (6, -2)
    with pytest.raises(ValidationError, match="finite and nonnegative"):
        class_quota(histogram, 4)


@pytest.mark.parametrize("n_add", [2.5, True, -1], ids=["float", "bool", "negative"])
def test_quota_rejects_a_bad_count(n_add):
    with pytest.raises(ValidationError, match="n_add must be"):
        class_quota([3, 4], n_add)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 50), min_size=1, max_size=8).filter(lambda h: sum(h) > 0),
    st.integers(0, 200),
)
def test_quota_sums_exact_and_near_proportional(hist, n_add):
    q = class_quota(hist, n_add)
    assert sum(q) == n_add
    assert all(c >= 0 for c in q)
    total = sum(hist)
    for got, h in zip(q, hist):
        assert abs(got - h / total * n_add) < 1.0  # largest-remainder property


# --- confident selection ----------------------------------------------------


def _picks(sel):
    """A select_confident result as (node, label, confidence) triples."""
    nodes, labels, conf, _ = sel
    return list(zip(nodes.tolist(), labels.tolist(), conf.tolist()))


def test_select_confident_enumerated_example():
    nodes = np.array([10, 20, 30])
    probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.3, 0.7]])
    q = class_quota([1, 1], 2)
    sel = select_confident(nodes, probs, q)
    assert _picks(sel) == [(10, 0, 0.9), (30, 1, 0.7)]
    assert sel[3] == (0, 0)


def test_select_confident_tie_breaks_to_lower_node_index():
    nodes = np.array([7, 3])
    probs = np.array([[0.8, 0.2], [0.8, 0.2]])
    assert _picks(select_confident(nodes, probs, class_quota([1, 0], 1))) == [(3, 0, 0.8)]


def test_select_confident_shortfall_not_redistributed():
    nodes = np.array([1, 2])
    probs = np.array([[0.9, 0.1], [0.8, 0.2]])  # nobody predicts class 1
    picked, _, _, shortfall = select_confident(nodes, probs, class_quota([1, 1], 2))
    assert picked.tolist() == [1]
    assert shortfall == (0, 1)


def test_select_unbalanced_top_n():
    nodes = np.array([1, 2, 3])
    probs = np.array([[0.6, 0.4], [0.95, 0.05], [0.1, 0.9]])
    picked, _, _, shortfall = select_confident(nodes, probs, 2)
    assert picked.tolist() == [2, 3]
    assert shortfall == (0,)


def test_select_empty_pool():
    """An empty pool falls short of every class's whole quota, as a pool in
    which no node predicts the class does, and of a whole int budget."""
    empty, probs = np.array([], dtype=int), np.zeros((0, 2))
    picked, _, _, shortfall = select_confident(empty, probs, class_quota([1, 1], 2))
    assert picked.size == 0 and shortfall == (1, 1)
    assert select_confident(empty, probs, 3)[3] == (3,)


@pytest.mark.parametrize("nodes", [[0.5, 1.5], [True, False]], ids=["float", "bool"])
def test_select_confident_refuses_node_ids_that_are_not_integers(nodes):
    # a cast to int64 would pick nodes 0 and 1, or 1 and 0
    probs = np.array([[0.9, 0.1], [0.2, 0.8]])
    with pytest.raises(ValidationError, match="node ids must be integers"):
        select_confident(nodes, probs, 2)


@pytest.mark.parametrize(
    "budget, message",
    [
        (None, "budget must be an integer, got None"),
        (True, "budget must be an integer, got True"),
        (2.0, "budget must be an integer, got 2.0"),
        (-1, "budget must be >= 0, got -1"),
        ((1, -1), "budget must be >= 0, got -1"),
        # a class without a count would never be considered
        ((1,), "1 class counts for 2 classes"),
        ((1, 1, 1), "3 class counts for 2 classes"),
    ],
    ids=["none", "bool", "float", "negative", "negative-class-count", "too-few-classes", "too-many-classes"],
)
def test_select_confident_rejects_a_bad_budget(budget, message):
    nodes = np.array([1, 2])
    probs = np.array([[0.9, 0.1], [0.2, 0.8]])
    with pytest.raises(ValidationError, match=message):
        select_confident(nodes, probs, budget)


def _select_reference(nodes, probs, budget):
    """Selection by a Python sort per class, the ranking select_confident
    replaced with one lexsort."""
    conf, pred = probs.max(axis=1), probs.argmax(axis=1)

    def rank(rows):
        return sorted(rows, key=lambda r: (-conf[r], nodes[r]))

    if isinstance(budget, int):
        chosen = rank(range(nodes.size))[:budget]
        return [(int(nodes[r]), int(pred[r]), float(conf[r])) for r in chosen]
    picks = []
    for c, count in enumerate(budget):
        take = rank(np.flatnonzero(pred == c).tolist())[:count]
        picks += [(int(nodes[r]), c, float(conf[r])) for r in take]
    return picks


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.booleans())
def test_select_confident_matches_sorted_reference(seed, n, balanced):
    rng = np.random.default_rng(seed)
    nodes = rng.permutation(1000)[:n]  # unsorted, so the node tie-break matters
    probs = rng.dirichlet(np.ones(3), size=n).round(1)  # coarse values tie often
    n_add = int(rng.integers(0, n + 5))
    budget = class_quota(rng.integers(1, 5, size=3), n_add) if balanced else n_add
    assert _picks(select_confident(nodes, probs, budget)) == _select_reference(nodes, probs, budget)


# --- conflict resolution -----------------------------------------------------


def _sel(*picks):
    """A select_confident result holding the given (node, label, confidence) picks."""
    nodes, labels, conf = (np.array(col) for col in zip(*picks))
    return nodes, labels, conf, ()


def _merged(label, provenance):
    """node -> (label, provenance name) for every node a merge labeled."""
    return {int(i): (int(label[i]), PROVENANCE[provenance[i]]) for i in np.flatnonzero(label >= 0)}


def test_resolve_disjoint_union():
    label, provenance, conflicts = resolve_conflicts(_sel((1, 0, 0.9)), _sel((2, 1, 0.8)), 6)
    assert conflicts == 0
    assert _merged(label, provenance) == {1: (0, PROV_STRUCT), 2: (1, PROV_FEAT)}


def test_resolve_conflict_higher_confidence_wins():
    label, provenance, conflicts = resolve_conflicts(_sel((5, 2, 0.95)), _sel((5, 4, 0.90)), 6)
    assert conflicts == 1
    assert _merged(label, provenance) == {5: (2, PROV_STRUCT)}

    label, provenance, _ = resolve_conflicts(_sel((5, 2, 0.80)), _sel((5, 4, 0.90)), 6)
    assert _merged(label, provenance) == {5: (4, PROV_FEAT)}


def test_resolve_exact_tie_structure_wins():
    label, provenance, conflicts = resolve_conflicts(_sel((5, 2, 0.9)), _sel((5, 3, 0.9)), 6)
    assert conflicts == 1
    assert _merged(label, provenance) == {5: (2, PROV_STRUCT)}


# --- ensemble -----------------------------------------------------------------


def test_ensemble_identical_models_equal_either(easy_graph, easy_split):
    spec = SubModelSpec(kind="f-mlp", hyper=FAST)
    model = train_submodel(
        build_submodel(spec, easy_graph), *truth(easy_graph, easy_split.labeled), seed=0
    )
    nodes = easy_split.test[:20]
    labels, probs = ensemble_predict(model, model, nodes)
    solo = calibrate(predict_logits(model, nodes), model.temperature)
    assert probs == pytest.approx(solo)
    assert np.array_equal(labels, solo.argmax(axis=1))


@pytest.mark.parametrize("nodes", [[1.7, 2.2], [True, False]], ids=["float", "bool"])
def test_ensemble_refuses_node_ids_that_are_not_integers(easy_graph, easy_split, nodes):
    spec = SubModelSpec(kind="f-mlp", hyper=TrainHyper(epochs=5))
    model = train_submodel(
        build_submodel(spec, easy_graph), *truth(easy_graph, easy_split.labeled), seed=0
    )
    with pytest.raises(ValidationError, match="node ids must be integers"):
        ensemble_predict(model, model, nodes)


def test_ensemble_averaging_arithmetic():
    # struct says A at 0.9, feat says B at 0.51 -> average says A
    a = np.array([0.9, 0.1])
    b = np.array([0.49, 0.51])
    avg = (a + b) / 2
    assert avg == pytest.approx([0.695, 0.305])
    assert avg.argmax() == 0


def test_ensemble_rows_sum_to_one(attack_graph, attack_split):
    fs = train_submodel(
        build_submodel(SubModelSpec(kind="gcn", hyper=FAST), attack_graph),
        *truth(attack_graph, attack_split.labeled),
        seed=0,
    )
    ff = train_submodel(
        build_submodel(SubModelSpec(kind="f-mlp", hyper=FAST), attack_graph),
        *truth(attack_graph, attack_split.labeled),
        seed=0,
    )
    _, probs = ensemble_predict(fs, ff, attack_split.test)
    assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-9


# --- the full loop --------------------------------------------------------------


@pytest.fixture(scope="module")
def small_run(easy_graph, easy_split):
    spec_s = SubModelSpec(kind="gcn", hyper=FAST)
    spec_f = SubModelSpec(kind="f-mlp", hyper=FAST)
    return cotrain(easy_graph, easy_split, spec_s, spec_f, n_add=15, max_iters=3, seed=0)


def test_cotrain_rejects_wrong_view_pairing(easy_graph, easy_split):
    with pytest.raises(ValidationError):
        cotrain(easy_graph, easy_split, SubModelSpec(kind="f-mlp"), SubModelSpec(kind="gcn"), 5, 1, 0)


@pytest.mark.parametrize(
    "args, message",
    [
        (dict(n_add=2.5), "n_add must be an integer, got 2.5"),
        (dict(n_add=-1), "n_add must be >= 0, got -1"),
        (dict(max_iters=1.5), "max_iters must be an integer, got 1.5"),
        (dict(max_iters=-1), "max_iters must be >= 0, got -1"),
        (dict(seed=1.5), "seed must be an integer, got 1.5"),
        (dict(seed=True), "seed must be an integer, got True"),
    ],
    ids=["float-n_add", "negative-n_add", "float-max_iters", "negative-max_iters", "float-seed", "bool-seed"],
)
def test_cotrain_checks_its_counts_and_seed(easy_graph, easy_split, args, message):
    specs = SubModelSpec(kind="gcn", hyper=FAST), SubModelSpec(kind="f-mlp", hyper=FAST)
    with pytest.raises(ValidationError, match=message):
        cotrain(easy_graph, easy_split, *specs, **{"n_add": 5, "max_iters": 1, "seed": 0, **args})


def test_cotrain_refuses_a_split_with_a_node_outside_the_graph():
    # a test id of 100 on 60 nodes used to meet numpy's IndexError
    g = generate_synthetic(60, 2, 0.3, 0.05, 8, 0.1, seed=0)
    split = split_nodes(g, 0.2, 0.2, seed=0)
    split = NodeSplit(split.labeled, split.validation, np.append(split.test, 100), split.class_histogram)
    specs = SubModelSpec(kind="gcn", hyper=FAST), SubModelSpec(kind="f-mlp", hyper=FAST)
    with pytest.raises(ValidationError, match=r"split node ids must lie in \[0, 60\), got \[\d+, 100\]"):
        cotrain(g, split, *specs, n_add=4, max_iters=1, seed=0)


def test_cotrain_refuses_a_histogram_that_does_not_count_the_labeled_nodes():
    # a histogram of [12, 0] against labels [9, 3] used to co-train silently by quotas (4, 0)
    g = generate_synthetic(60, 2, 0.3, 0.05, 8, 0.1, seed=0)
    split = split_nodes(g, 0.2, 0.2, seed=0)
    assert split.class_histogram.tolist() == [9, 3]
    split = replace(split, class_histogram=np.array([12, 0]))
    specs = SubModelSpec(kind="gcn", hyper=FAST), SubModelSpec(kind="f-mlp", hyper=FAST)
    with pytest.raises(ValidationError, match=r"class_histogram \[12, 0\] is not .* label counts \[9, 3\]"):
        cotrain(g, split, *specs, n_add=4, max_iters=1, seed=0)


def test_cotrain_bookkeeping(easy_graph, easy_split, small_run):
    _, _, state = small_run
    audit_state(state, easy_graph, easy_split)
    assert len(state.history) == 4  # iterations 0..3
    n_labeled = len(easy_split.labeled)
    for prev, rec in zip(state.history, state.history[1:]):
        added = sum(rec.added_per_class_struct) + sum(rec.added_per_class_feat)
        grown = rec.s_size - prev.s_size
        assert grown <= 2 * 15  # at most n_add per model per iteration
        # nodes chosen by both models enter S once
        assert grown == added - rec.conflicts
    assert state.history[0].s_size == n_labeled
    assert state.s_size == state.history[-1].s_size


def _altered(state, node, **changes):
    """A copy of state's arrays in which node's entry takes the given values."""
    arrays = {name: getattr(state, name).copy() for name in ("label", "provenance", "added_in")}
    for name, value in changes.items():
        arrays[name][node] = value
    return replace(state, **arrays)


def test_audit_state_rejects_an_entry_on_a_validation_node(easy_graph, easy_split, small_run):
    _, _, state = small_run
    node = int(easy_split.validation[0])
    bad = _altered(state, node, label=0, provenance=PROVENANCE.index(PROV_FEAT), added_in=1)
    with pytest.raises(ValidationError, match="outside the labeled and test nodes"):
        audit_state(bad, easy_graph, easy_split)


def test_audit_state_rejects_a_changed_ground_truth_label(easy_graph, easy_split, small_run):
    _, _, state = small_run
    node = int(easy_split.labeled[3])
    bad = _altered(state, node, label=(easy_graph.labels[node] + 1) % easy_graph.C)
    with pytest.raises(ValidationError, match=f"ground-truth entry for node {node} was altered"):
        audit_state(bad, easy_graph, easy_split)


def test_audit_state_rejects_a_ground_truth_node_marked_pseudo(easy_graph, easy_split, small_run):
    _, _, state = small_run
    node = int(easy_split.labeled[3])
    bad = _altered(state, node, provenance=PROVENANCE.index(PROV_STRUCT))
    with pytest.raises(ValidationError, match=f"ground-truth entry for node {node} was altered"):
        audit_state(bad, easy_graph, easy_split)


def test_cotrain_additions_match_quota_minus_shortfall(small_run, easy_split):
    _, _, state = small_run
    from cograph.cotrain import class_quota

    quota = class_quota(easy_split.class_histogram, 15)
    for rec in state.history[1:]:
        for added, short, q in zip(rec.added_per_class_struct, rec.shortfall_struct, quota):
            assert added == q - short
        for added, short, q in zip(rec.added_per_class_feat, rec.shortfall_feat, quota):
            assert added == q - short


def test_cotrain_provenance_and_freezing(easy_graph, easy_split, small_run):
    _, _, state = small_run
    truth_code = PROVENANCE.index(PROV_TRUTH)
    assert (state.provenance[easy_split.labeled] == truth_code).all()
    assert (state.added_in[easy_split.labeled] == 0).all()
    pseudo = np.flatnonzero((state.label >= 0) & (state.provenance != truth_code))
    assert pseudo.size, "co-training must have added pseudo-labels"
    assert {PROVENANCE[p] for p in state.provenance[pseudo]} <= {PROV_STRUCT, PROV_FEAT}
    assert ((1 <= state.added_in[pseudo]) & (state.added_in[pseudo] <= 3)).all()
    # pseudo-labeled nodes come from the test pool only
    test_set = set(easy_split.test.tolist())
    assert set(pseudo.tolist()) <= test_set
    val_set = set(easy_split.validation.tolist())
    assert not (set(pseudo.tolist()) & val_set)


def test_cotrain_zero_iterations_is_plain_ensemble(easy_graph, easy_split):
    spec_s = SubModelSpec(kind="gcn", hyper=FAST)
    spec_f = SubModelSpec(kind="f-mlp", hyper=FAST)
    fs, ff, state = cotrain(easy_graph, easy_split, spec_s, spec_f, n_add=15, max_iters=0, seed=4)
    assert len(state.history) == 1
    assert state.s_size == len(easy_split.labeled)

    # oracle: train the two models directly with the same derived seeds
    from cograph.nn import derive_seeds

    lab = truth(easy_graph, easy_split.labeled)
    (seed_s,), (seed_f,) = derive_seeds(4, 0, 0), derive_seeds(4, 0, 1)
    ref_s = train_submodel(build_submodel(spec_s, easy_graph), *lab, seed=seed_s)
    ref_f = train_submodel(build_submodel(spec_f, easy_graph), *lab, seed=seed_f)
    assert all(np.array_equal(fs.params[k], ref_s.params[k]) for k in fs.params)
    assert all(np.array_equal(ff.params[k], ref_f.params[k]) for k in ff.params)


def test_cotrain_stops_when_pool_empties(easy_graph):
    from cograph import split_nodes

    split = split_nodes(easy_graph, 0.4, 0.4, seed=0)  # tiny test pool (60 nodes)
    spec_s = SubModelSpec(kind="gcn", hyper=FAST)
    spec_f = SubModelSpec(kind="f-mlp", hyper=FAST)
    fs, ff, state = cotrain(easy_graph, split, spec_s, spec_f, n_add=25, max_iters=50, seed=0)
    assert (state.label[split.test] >= 0).all()
    assert state.iteration < 50
    assert state.s_size == len(split.labeled) + len(split.test)


def test_cotrain_deterministic(easy_graph, easy_split):
    spec_s = SubModelSpec(kind="gcn", hyper=FAST)
    spec_f = SubModelSpec(kind="f-mlp", hyper=FAST)
    r1 = cotrain(easy_graph, easy_split, spec_s, spec_f, n_add=10, max_iters=2, seed=11)
    r2 = cotrain(easy_graph, easy_split, spec_s, spec_f, n_add=10, max_iters=2, seed=11)
    assert [rec.to_json() for rec in r1[2].history] == [rec.to_json() for rec in r2[2].history]
    assert r1[0].temperature == r2[0].temperature


def test_history_json_field_names(small_run):
    _, _, state = small_run
    rec = state.history[0].to_json()
    assert set(rec) == {
        "iter",
        "S_size",
        "added_per_class_struct",
        "added_per_class_feat",
        "shortfall_struct",
        "shortfall_feat",
        "conflicts",
        "acc_struct",
        "acc_feat",
        "acc_ensemble",
        "confusion_matrix",
    }


def test_confusion_matrix_sums_to_test_size(small_run, easy_split):
    _, _, state = small_run
    for rec in state.history:
        assert np.array(rec.confusion).sum() == len(easy_split.test)


def test_cotrain_scores_each_fit_once(monkeypatch, easy_graph, easy_split):
    calls = {"predict_logits": 0, "train_submodel": 0}
    for name in calls:
        original = getattr(cotrain_module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cotrain_module, name, counted)
    spec_s = SubModelSpec(kind="gcn", hyper=TrainHyper(epochs=20))
    spec_f = SubModelSpec(kind="f-mlp", hyper=TrainHyper(epochs=20))
    _, _, state = cotrain(easy_graph, easy_split, spec_s, spec_f, n_add=15, max_iters=2, seed=0)
    assert calls["train_submodel"] == 2 * len(state.history) == 6
    assert calls["predict_logits"] == calls["train_submodel"]


def test_cotrain_reads_scores_by_node_id(easy_graph, easy_split, small_run):
    """The test set need not be sorted: every score is looked up by node id."""
    shuffled = replace(easy_split, test=easy_split.test[::-1].copy())
    spec_s = SubModelSpec(kind="gcn", hyper=FAST)
    spec_f = SubModelSpec(kind="f-mlp", hyper=FAST)
    _, _, state = cotrain(easy_graph, shuffled, spec_s, spec_f, n_add=15, max_iters=3, seed=0)
    assert [r.to_json() for r in state.history] == [r.to_json() for r in small_run[2].history]


# --- overlapped fits ---------------------------------------------------------

SERIAL_ALWAYS = 10**9  # no graph reaches it
OVERLAP_ALWAYS = 0


def _fingerprint(result):
    f_struct, f_feat, state = result
    return (
        [rec.to_json() for rec in state.history],
        (f_struct.temperature, f_feat.temperature),
        [{k: v.tobytes() for k, v in f.params.items()} for f in (f_struct, f_feat)],
    )


@pytest.mark.parametrize("feat_kind", ["f-mlp", "knn-gcn"])
def test_overlapped_fits_match_serial_fits_bitwise(monkeypatch, easy_graph, easy_split, feat_kind):
    hyper = TrainHyper(epochs=20)
    spec_s = SubModelSpec(kind="gcn", hyper=hyper)
    spec_f = SubModelSpec(kind=feat_kind, hyper=hyper)
    runs = []
    for gate in (SERIAL_ALWAYS, OVERLAP_ALWAYS):
        monkeypatch.setattr(cotrain_module, "OVERLAP_MIN_NODES", gate)
        runs.append(
            _fingerprint(
                cotrain(easy_graph, easy_split, spec_s, spec_f, n_add=15, max_iters=2, seed=3)
            )
        )
    assert runs[0] == runs[1]


def _record_fit_threads(monkeypatch):
    """Spy on the co-training fits: (sub-model kind, thread ident) per call."""
    seen = []
    original = cotrain_module.train_submodel

    def spy(model, *args, **kwargs):
        seen.append((model.spec.kind, threading.get_ident()))
        return original(model, *args, **kwargs)

    monkeypatch.setattr(cotrain_module, "train_submodel", spy)
    return seen


def test_feature_fit_runs_on_a_helper_thread_from_the_size_gate(monkeypatch):
    g = generate_synthetic(n=1000, C=3, p_in=0.02, p_out=0.002, m=30, feature_noise=0.1, seed=1)
    assert g.n >= cotrain_module.OVERLAP_MIN_NODES
    seen = _record_fit_threads(monkeypatch)
    hyper = TrainHyper(epochs=3)
    cotrain(
        g, split_nodes(g, 0.1, 0.1, seed=0), SubModelSpec(kind="gcn", hyper=hyper),
        SubModelSpec(kind="f-mlp", hyper=hyper), n_add=10, max_iters=1, seed=0,
    )
    main = threading.get_ident()
    assert sorted(kind for kind, _ in seen) == ["f-mlp", "f-mlp", "gcn", "gcn"]
    assert {t for kind, t in seen if kind == "gcn"} == {main}
    assert main not in {t for kind, t in seen if kind == "f-mlp"}


def test_small_graph_fits_both_views_on_the_calling_thread(monkeypatch, easy_graph, easy_split):
    assert easy_graph.n < cotrain_module.OVERLAP_MIN_NODES
    seen = _record_fit_threads(monkeypatch)
    hyper = TrainHyper(epochs=3)
    cotrain(
        easy_graph, easy_split, SubModelSpec(kind="gcn", hyper=hyper),
        SubModelSpec(kind="f-mlp", hyper=hyper), n_add=10, max_iters=1, seed=0,
    )
    assert len(seen) == 4
    assert {t for _, t in seen} == {threading.get_ident()}


@pytest.mark.parametrize(
    "failing, surfaced",
    [({"gcn"}, "gcn"), ({"f-mlp"}, "f-mlp"), ({"gcn", "f-mlp"}, "gcn")],
    ids=["structure", "feature", "both"],
)
def test_overlapped_fit_failure_surfaces_and_leaves_no_thread(
    monkeypatch, easy_graph, easy_split, failing, surfaced
):
    monkeypatch.setattr(cotrain_module, "OVERLAP_MIN_NODES", OVERLAP_ALWAYS)
    original = cotrain_module.train_submodel

    def failing_fit(model, *args, **kwargs):
        if model.spec.kind in failing:
            raise TrainingError(f"{model.spec.kind} diverged")
        return original(model, *args, **kwargs)

    monkeypatch.setattr(cotrain_module, "train_submodel", failing_fit)
    hyper = TrainHyper(epochs=5)
    before = threading.active_count()
    with pytest.raises(TrainingError, match=f"^{surfaced} diverged$"):
        cotrain(
            easy_graph, easy_split, SubModelSpec(kind="gcn", hyper=hyper),
            SubModelSpec(kind="f-mlp", hyper=hyper), n_add=10, max_iters=1, seed=0,
        )
    assert threading.active_count() == before


def test_cotrain_state_keeps_the_final_models_scores(easy_graph, easy_split):
    spec_s = SubModelSpec(kind="gcn", hyper=TrainHyper(epochs=20))
    spec_f = SubModelSpec(kind="f-mlp", hyper=TrainHyper(epochs=20))
    f_s, f_f, state = cotrain(easy_graph, easy_split, spec_s, spec_f, n_add=15, max_iters=2, seed=0)
    every_node = np.arange(easy_graph.n)
    for trained, logits in zip((f_s, f_f), state.final_logits):
        assert logits.tobytes() == predict_logits(trained, every_node).tobytes()


# a value other than the default for every TrainHyper field
NON_DEFAULT_HYPER = {"learning_rate": 0.05, "weight_decay": 0.0, "dropout": 0.2, "epochs": 7}


@pytest.mark.parametrize("name", [f.name for f in fields(TrainHyper)])
def test_every_hyper_field_changes_a_cotrain_run(easy_graph, easy_split, name):
    """A setting that a run accepts must reach it: no knob does nothing."""
    value = NON_DEFAULT_HYPER[name]
    assert value != getattr(TrainHyper(), name)

    def run(hyper):
        specs = SubModelSpec(kind="gcn", hyper=hyper), SubModelSpec(kind="f-mlp", hyper=hyper)
        f_s, f_f, state = cotrain(easy_graph, easy_split, *specs, n_add=10, max_iters=1, seed=0)
        params = [f.params[k].tobytes() for f in (f_s, f_f) for k in sorted(f.params)]
        return params, [r.to_json() for r in state.history]

    base = TrainHyper(epochs=5)
    assert run(replace(base, **{name: value})) != run(base)
