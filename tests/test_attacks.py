import numpy as np
import pytest
import scipy.sparse as sp

from cograph import (
    SubModelSpec,
    ValidationError,
    build_submodel,
    predict_logits,
    split_nodes,
    train_submodel,
)
from cograph.attacks import (
    AttackSetting,
    dice_perturb,
    feature_flip_attack,
    flip_log_hash,
    load_perturbed_adjacency,
    mixed_budget,
    random_structure_perturb,
    write_sidecar,
)
from cograph.graph import make_graph
from cograph.io import save_edge_list
from cograph.models import input_gradient
from cograph.nn import TrainHyper
from helpers import accuracy, graphs_equal, labeled_map, with_inputs

FAST = TrainHyper(epochs=60)


# --- random flips -----------------------------------------------------------


def test_random_perturb_rate_zero_is_identity(easy_graph):
    assert graphs_equal(random_structure_perturb(easy_graph, 0.0, seed=1), easy_graph)


def test_random_perturb_flip_count_exact(attack_graph):
    rate = 0.2
    perturbed = random_structure_perturb(attack_graph, rate, seed=5)
    budget = round(rate * attack_graph.num_edges)
    flips = attack_graph.edges ^ perturbed.edges
    assert len(flips) == budget
    inserted = len(perturbed.edges - attack_graph.edges)
    deleted = len(attack_graph.edges - perturbed.edges)
    assert perturbed.num_edges == attack_graph.num_edges + inserted - deleted


def test_budget_arithmetic_on_reference_edge_count():
    # 20% of 5069 edges rounds to 1014 flips
    assert round(0.2 * 5069) == 1014


def test_random_perturb_deterministic(attack_graph):
    a = random_structure_perturb(attack_graph, 0.1, seed=9)
    b = random_structure_perturb(attack_graph, 0.1, seed=9)
    assert graphs_equal(a, b)


def test_random_perturb_preserves_everything_else(attack_graph):
    perturbed = random_structure_perturb(attack_graph, 0.1, seed=9)
    assert perturbed.n == attack_graph.n
    assert np.array_equal(perturbed.X, attack_graph.X)
    assert np.array_equal(perturbed.labels, attack_graph.labels)


# --- DICE ---------------------------------------------------------------------


def test_dice_rate_zero_is_identity(attack_graph):
    assert graphs_equal(dice_perturb(attack_graph, attack_graph.labels, 0.0, 1), attack_graph)


def test_dice_deletes_internal_inserts_cross(attack_graph):
    labels = attack_graph.labels
    perturbed = dice_perturb(attack_graph, labels, 0.2, seed=3)
    inserted = perturbed.edges - attack_graph.edges
    deleted = attack_graph.edges - perturbed.edges
    assert inserted and deleted
    assert all(labels[i] != labels[j] for i, j in inserted)
    assert all(labels[i] == labels[j] for i, j in deleted)
    assert len(inserted) + len(deleted) == round(0.2 * attack_graph.num_edges)


def test_dice_degrades_gcn(attack_graph, attack_split):
    labs = labeled_map(attack_graph, attack_split.labeled)
    clean = train_submodel(build_submodel(SubModelSpec(kind="gcn", hyper=FAST), attack_graph), labs, seed=0)
    perturbed_graph = dice_perturb(attack_graph, attack_graph.labels, 0.2, seed=7)
    hit = train_submodel(build_submodel(SubModelSpec(kind="gcn", hyper=FAST), perturbed_graph), labs, seed=0)
    test_y = attack_graph.labels[attack_split.test]
    drop = accuracy(clean, attack_split.test, test_y) - accuracy(hit, attack_split.test, test_y)
    assert drop >= 0.05


def test_dice_deterministic(attack_graph):
    a = dice_perturb(attack_graph, attack_graph.labels, 0.15, seed=4)
    b = dice_perturb(attack_graph, attack_graph.labels, 0.15, seed=4)
    assert graphs_equal(a, b)


def test_dice_exhaustion_spends_other_kind():
    # all nodes same class: no cross-class inserts exist, budget goes to deletions
    X = np.eye(6)
    g = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], X, np.zeros(6, dtype=int), 1)
    perturbed = dice_perturb(g, g.labels, 0.4, seed=0)  # budget 2
    assert len(g.edges - perturbed.edges) == 2
    assert not (perturbed.edges - g.edges)


def test_dice_keeps_inserting_on_imbalanced_labels():
    # 1980 nodes of class 0 and 20 of class 1: a random pair is cross-class
    # 2% of the time, so 200 missed draws in a row are common while 39,600
    # cross-class non-edges remain; about half the budget must still insert
    rng = np.random.default_rng(0)
    n = 2000
    labels = np.zeros(n, dtype=np.int64)
    labels[-20:] = 1
    edges = set()
    while len(edges) < 4000:
        i, j = rng.integers(1980, size=2)
        if i != j:
            edges.add((min(i, j), max(i, j)))
    g = make_graph(n, edges, np.zeros((n, 1)), labels)
    for seed in range(5):
        perturbed = dice_perturb(g, labels, 0.2, seed)  # budget 800
        inserted = perturbed.edges - g.edges
        deleted = g.edges - perturbed.edges
        assert len(inserted) + len(deleted) == 800
        assert all(labels[i] != labels[j] for i, j in inserted)
        assert 340 <= len(inserted) <= 460


# --- gradient feature flips -----------------------------------------------------


@pytest.fixture(scope="module")
def fmlp_victim(attack_graph, attack_split):
    spec = SubModelSpec(kind="f-mlp", hyper=FAST)
    return train_submodel(
        build_submodel(spec, attack_graph), labeled_map(attack_graph, attack_split.labeled), seed=0
    )


def test_feature_flip_zero_budget_identity(attack_graph, fmlp_victim, attack_split):
    g2 = feature_flip_attack(attack_graph, fmlp_victim, 0, targets=attack_split.test)
    assert graphs_equal(g2, attack_graph)


def test_feature_flip_stays_binary_and_counts(attack_graph, fmlp_victim, attack_split):
    budget = 150
    g2 = feature_flip_attack(attack_graph, fmlp_victim, budget, targets=attack_split.test)
    assert np.isin(g2.X, (0.0, 1.0)).all()
    assert int((g2.X != attack_graph.X).sum()) == budget
    assert g2.edges == attack_graph.edges


def test_feature_flip_requires_binary_features(fmlp_victim):
    g = make_graph(4, [(0, 1)], np.full((4, 3), 0.5), np.zeros(4, dtype=int), 1)
    with pytest.raises(ValidationError):
        feature_flip_attack(g, fmlp_victim, 5)


@pytest.mark.parametrize("kind", ["s-mlp", "gcn", "knn-gcn"])
def test_feature_flip_rejects_structure_victim(attack_graph, attack_split, kind):
    """Only an f-mlp victim is attacked; a propagated feature victim
    (knn-gcn) is refused like the structure kinds."""
    victim = train_submodel(
        build_submodel(SubModelSpec(kind=kind, k=8, hyper=FAST), attack_graph),
        labeled_map(attack_graph, attack_split.labeled),
        seed=0,
    )
    with pytest.raises(ValidationError, match="f-mlp"):
        feature_flip_attack(attack_graph, victim, 5)


def test_feature_flip_budget_sweep_degrades_victim(attack_graph, attack_split, fmlp_victim):
    # retrained victim accuracy is non-increasing (within noise) in budget
    labs = labeled_map(attack_graph, attack_split.labeled)
    test_y = attack_graph.labels[attack_split.test]
    accs = []
    for budget in (0, 150, 471):
        g2 = feature_flip_attack(attack_graph, fmlp_victim, budget, targets=attack_split.test)
        m = train_submodel(build_submodel(SubModelSpec(kind="f-mlp", hyper=FAST), g2), labs, seed=0)
        accs.append(accuracy(m, attack_split.test, test_y))
    assert accs[-1] <= accs[0]  # net drop over the sweep
    for a, b in zip(accs, accs[1:]):
        assert b <= a + 0.02  # monotone within noise


def test_structural_attack_never_touches_fmlp_logits(attack_graph, attack_split, fmlp_victim):
    perturbed_graph = dice_perturb(attack_graph, attack_graph.labels, 0.2, seed=1)
    # rebinding the same features over new edges is a no-op for f-mlp
    spec = SubModelSpec(kind="f-mlp", hyper=FAST)
    rebuilt = build_submodel(spec, perturbed_graph)
    moved = with_inputs(fmlp_victim, rebuilt.inputs)
    nodes = attack_split.test
    assert np.array_equal(predict_logits(fmlp_victim, nodes), predict_logits(moved, nodes))


def test_feature_attack_never_touches_smlp_logits(attack_graph, attack_split, fmlp_victim):
    spec = SubModelSpec(kind="s-mlp", k=8, hyper=FAST)
    smodel = train_submodel(
        build_submodel(spec, attack_graph), labeled_map(attack_graph, attack_split.labeled), seed=0
    )
    flipped = feature_flip_attack(attack_graph, fmlp_victim, 200, targets=attack_split.test)
    rebuilt = build_submodel(spec, flipped)
    moved = with_inputs(smodel, rebuilt.inputs)
    nodes = attack_split.test
    assert np.array_equal(predict_logits(smodel, nodes), predict_logits(moved, nodes))


def _reference_flip_attack(g, victim, budget, targets):
    """The selection rule written out over all of X: every round, sort all
    positive scores by (-score, flat index) and flip the first
    min(32, remaining). Rows outside the targets get a zero gradient."""
    X = np.array(g.X)
    flipped = np.zeros(X.size, dtype=bool)
    sparse = sp.issparse(victim.model.inputs)
    while budget > 0:
        inputs = sp.csr_matrix(X) if sparse else X.copy()
        grad = np.zeros(X.shape)
        grad[targets] = input_gradient(with_inputs(victim, inputs), targets, g.labels[targets])
        score = (grad * (1.0 - 2.0 * X)).ravel()
        idx = np.flatnonzero((score > 0.0) & ~flipped)
        picked = idx[np.lexsort((idx, -score[idx]))][: min(32, budget)]
        if not picked.size:
            break
        X.flat[picked] = 1.0 - X.flat[picked]
        flipped[picked] = True
        budget -= picked.size
    return X


def _sparse_words_graph():
    """Bag-of-words-like features (m = 120, density ~ 0.05): CSR inputs."""
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 4, 300)
    p = np.full((4, 120), 0.02)
    for c in range(4):
        p[c, 30 * c : 30 * (c + 1)] = 0.15
    X = (rng.random((300, 120)) < p[labels]).astype(float)
    edges = [tuple(rng.choice(300, 2, replace=False)) for _ in range(600)]
    return make_graph(300, edges, X, labels, 4)


def _duplicated_rows_graph():
    """Every feature row and label appears four times: scores tie in blocks."""
    rng = np.random.default_rng(1)
    X = np.repeat((rng.random((50, 12)) < 0.3).astype(float), 4, axis=0)
    labels = np.repeat(rng.integers(0, 3, 50), 4)
    return make_graph(200, [(i, i + 1) for i in range(199)], X, labels, 3)


@pytest.mark.parametrize(
    "fixture, budget, sparse",
    [
        ("words", 239, True),
        ("attack", 239, False),
        ("attack", 10**6, False),  # more than the target rows' bits: stops early
        ("ties", 97, False),
    ],
    ids=["fmlp-csr", "fmlp-dense", "early-stop", "ties-fmlp"],
)
def test_feature_flip_matches_exact_selection_oracle(attack_graph, fixture, budget, sparse):
    g = {"attack": attack_graph, "words": _sparse_words_graph(), "ties": _duplicated_rows_graph()}[fixture]
    split = split_nodes(g, 0.2, 0.1, seed=0)
    spec = SubModelSpec(kind="f-mlp", hyper=FAST)
    victim = train_submodel(build_submodel(spec, g), labeled_map(g, split.labeled), seed=0)
    assert sp.issparse(victim.model.inputs) == sparse
    attacked = feature_flip_attack(g, victim, budget, targets=split.test)
    expected = _reference_flip_attack(g, victim, budget, split.test)
    assert np.array_equal(attacked.X, expected)
    assert 0 < int((attacked.X != g.X).sum()) <= budget


def test_feature_flip_ignores_target_order(attack_graph, fmlp_victim, attack_split):
    """The targets are a set: a permuted array flips the same bits."""
    ordered = np.sort(attack_split.test)
    permuted = np.random.default_rng(3).permutation(ordered)
    assert not np.array_equal(permuted, ordered)
    expected = feature_flip_attack(attack_graph, fmlp_victim, 150, targets=ordered)
    attacked = feature_flip_attack(attack_graph, fmlp_victim, 150, targets=permuted)
    assert attacked.X.tobytes() == expected.X.tobytes()


def test_feature_flip_feeds_csr_victims_canonical_inputs(monkeypatch):
    g = _sparse_words_graph()
    split = split_nodes(g, 0.2, 0.1, seed=0)
    victim = train_submodel(
        build_submodel(SubModelSpec(kind="f-mlp", hyper=FAST), g), labeled_map(g, split.labeled), seed=0
    )
    seen = []

    def recording(trained, nodes, labels):
        seen.append(trained.model.inputs)
        return input_gradient(trained, nodes, labels)

    monkeypatch.setattr("cograph.attacks.input_gradient", recording)
    feature_flip_attack(g, victim, 100, targets=split.test)
    assert len(seen) == 4
    for inputs in seen:
        rebuilt = sp.csr_matrix(inputs.toarray())
        assert np.array_equal(inputs.indptr, rebuilt.indptr)
        assert np.array_equal(inputs.indices, rebuilt.indices)
        assert np.array_equal(inputs.data, rebuilt.data)


def _unlabeled(g):
    return make_graph(g.n, g.edges, g.X)


def _first_nodes(g, n):
    return make_graph(n, [e for e in g.edges if e[1] < n], g.X[:n], g.labels[:n], g.C)


def _wider(g):
    return make_graph(g.n, g.edges, np.hstack([g.X, np.zeros((g.n, 1))]), g.labels, g.C)


@pytest.mark.parametrize(
    "make, targets",
    [
        (lambda g: g, [-1, 5]),
        (lambda g: g, [500]),
        (lambda g: g, [[1, 2]]),
        (lambda g: g, [1.0, 2.0]),
        (lambda g: g, np.array([], dtype=np.int64)),
        (_unlabeled, None),
        (lambda g: _first_nodes(g, 200), None),
        (_wider, None),
    ],
    ids=["negative", "beyond-n", "2-d", "float", "empty", "unlabeled", "victim-n", "victim-width"],
)
def test_feature_flip_rejects_bad_inputs(attack_graph, fmlp_victim, make, targets):
    with pytest.raises(ValidationError):
        feature_flip_attack(make(attack_graph), fmlp_victim, 10, targets=targets)


# --- mixed budgets ----------------------------------------------------------------


def test_mixed_budget_endpoints():
    assert mixed_budget(0.2, 0.0, 5069) == (0, 1014)
    assert mixed_budget(0.2, 1.0, 5069) == (1014, 0)


def test_mixed_budget_even_split():
    assert mixed_budget(0.2, 0.5, 5069) == (507, 507)


def test_mixed_budget_validates():
    with pytest.raises(ValidationError):
        mixed_budget(1.5, 0.5, 100)


# --- external ingestion --------------------------------------------------------------


def test_load_perturbed_roundtrip(tmp_path, attack_graph):
    path = tmp_path / "edges.tsv"
    save_edge_list(attack_graph, path)
    again = load_perturbed_adjacency(attack_graph, path)
    assert graphs_equal(again, attack_graph)


def test_load_perturbed_replaces_edges_only(tmp_path, attack_graph):
    path = tmp_path / "p.tsv"
    path.write_text("0\t1\n1\t2\n")
    g2 = load_perturbed_adjacency(attack_graph, path)
    assert g2.edges == frozenset({(0, 1), (1, 2)})
    assert np.array_equal(g2.X, attack_graph.X)


def test_load_perturbed_rejects_out_of_range(tmp_path, attack_graph):
    path = tmp_path / "bad.tsv"
    path.write_text(f"0\t{attack_graph.n}\n")
    with pytest.raises(ValidationError):
        load_perturbed_adjacency(attack_graph, path)


def test_sidecar_written(tmp_path, attack_graph):
    perturbed = random_structure_perturb(attack_graph, 0.05, seed=2)
    setting = AttackSetting("sidecar", method="random", rate=0.05)
    write_sidecar(tmp_path / "sidecar.json", setting, 2, attack_graph, perturbed)
    import json

    record = json.loads((tmp_path / "sidecar.json").read_text())
    assert record["method"] == "random"
    assert record["flip_log_hash"] == flip_log_hash(attack_graph, perturbed)
    assert record["edges_before"] == attack_graph.num_edges


def test_plan_validation():
    with pytest.raises(ValidationError):
        AttackSetting("x", method="random", rate=2.0)
    with pytest.raises(ValidationError):
        AttackSetting("x", method="nuke", rate=0.1)


# settings whose method would ignore a value: each is refused, not accepted
IGNORED_VALUES = {
    "none-rate": dict(method="none", rate=0.3),
    "none-ratio": dict(method="none", feature_ratio=0.5),
    "none-path": dict(method="none", path="edges.tsv"),
    "external-rate": dict(method="external", rate=0.2, path="edges.tsv"),
    "external-ratio": dict(method="external", feature_ratio=0.5, path="edges.tsv"),
    "grad-feat-partial-ratio": dict(method="grad-feat", rate=0.1, feature_ratio=0.3),
    "dice-path": dict(method="dice", rate=0.1, path="edges.tsv"),
    "random-path": dict(method="random", rate=0.1, path="edges.tsv"),
}


@pytest.mark.parametrize("case", sorted(IGNORED_VALUES))
def test_setting_refuses_values_its_method_ignores(case):
    with pytest.raises(ValidationError):
        AttackSetting("x", **IGNORED_VALUES[case])


def test_setting_accepts_every_value_its_method_uses():
    for ratio in (0.0, 1.0):  # both spend the whole grad-feat budget on feature bits
        setting = AttackSetting("x", method="grad-feat", rate=0.1, feature_ratio=ratio)
        assert setting.effective_feature_ratio == 1.0
    assert AttackSetting("x", method="dice", rate=0.2, feature_ratio=0.5).feature_ratio == 0.5
    assert AttackSetting("x", method="random", rate=0.2).rate == 0.2
    assert AttackSetting("x", method="external", path="edges.tsv").path == "edges.tsv"


def test_feature_flip_rejects_repeated_targets(attack_graph, fmlp_victim):
    """A repeated target would count twice in the loss the flips climb."""
    with pytest.raises(ValidationError, match="repeat"):
        feature_flip_attack(attack_graph, fmlp_victim, 10, targets=np.array([5, 5, 7]))
