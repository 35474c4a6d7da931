import numpy as np
import pytest

from cograph import SubModelSpec, ValidationError, build_submodel, graphs_equal, predict_logits, train_submodel
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
from cograph.models import accuracy
from cograph.nn import TrainHyper
from helpers import labeled_map, with_inputs

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
    g2 = feature_flip_attack(attack_graph, fmlp_victim, 0, seed=0, targets=attack_split.test)
    assert graphs_equal(g2, attack_graph)


def test_feature_flip_stays_binary_and_counts(attack_graph, fmlp_victim, attack_split):
    budget = 150
    g2 = feature_flip_attack(attack_graph, fmlp_victim, budget, seed=0, targets=attack_split.test)
    assert np.isin(g2.X, (0.0, 1.0)).all()
    assert int((g2.X != attack_graph.X).sum()) == budget
    assert g2.edges == attack_graph.edges


def test_feature_flip_requires_binary_features(fmlp_victim):
    g = make_graph(4, [(0, 1)], np.full((4, 3), 0.5), np.zeros(4, dtype=int), 1)
    with pytest.raises(ValidationError):
        feature_flip_attack(g, fmlp_victim, 5, seed=0)


def test_feature_flip_rejects_structure_victim(attack_graph, attack_split):
    smodel = train_submodel(
        build_submodel(SubModelSpec(kind="s-mlp", k=8, hyper=FAST), attack_graph),
        labeled_map(attack_graph, attack_split.labeled),
        seed=0,
    )
    with pytest.raises(ValidationError):
        feature_flip_attack(attack_graph, smodel, 5, seed=0)


def test_feature_flip_budget_sweep_degrades_victim(attack_graph, attack_split, fmlp_victim):
    # retrained victim accuracy is non-increasing (within noise) in budget
    labs = labeled_map(attack_graph, attack_split.labeled)
    test_y = attack_graph.labels[attack_split.test]
    accs = []
    for budget in (0, 150, 471):
        g2 = feature_flip_attack(attack_graph, fmlp_victim, budget, seed=0, targets=attack_split.test)
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
    flipped = feature_flip_attack(attack_graph, fmlp_victim, 200, seed=0, targets=attack_split.test)
    rebuilt = build_submodel(spec, flipped)
    moved = with_inputs(smodel, rebuilt.inputs)
    nodes = attack_split.test
    assert np.array_equal(predict_logits(smodel, nodes), predict_logits(moved, nodes))


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
