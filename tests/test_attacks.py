import json
import tracemalloc

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
from cograph import attacks, views
from cograph.attacks import (
    AttackSetting,
    changed_features,
    dice_perturb,
    feature_flip_attack,
    flip_log_hash,
    load_perturbed_adjacency,
    random_structure_perturb,
    write_sidecar,
)
from cograph.experiment import apply_attack
from cograph.graph import make_graph, with_features
from cograph.io import save_edge_list
from cograph.models import input_gradient
from cograph.nn import TrainHyper
from helpers import accuracy, graphs_equal, truth, with_inputs

FAST = TrainHyper(epochs=60)


# --- random flips -----------------------------------------------------------


@pytest.mark.parametrize(
    "attack",
    [
        lambda g, rate, seed: random_structure_perturb(g, rate, seed),
        lambda g, rate, seed: dice_perturb(g, g.labels, rate, seed),
    ],
    ids=["random", "dice"],
)
@pytest.mark.parametrize(
    "rate, seed, message",
    [
        (float("nan"), 0, "rate must be nonnegative and finite, got nan"),
        (float("inf"), 0, "rate must be nonnegative and finite, got inf"),
        ("0.2", 0, "rate must be a real number, got '0.2'"),
        (0.2, 1.5, "seed must be an integer, got 1.5"),
        (0.2, -1, "seed must be >= 0, got -1"),
    ],
    ids=["nan-rate", "inf-rate", "str-rate", "float-seed", "negative-seed"],
)
def test_structure_attacks_check_rate_and_seed(attack_graph, attack, rate, seed, message):
    with pytest.raises(ValidationError, match=message):
        attack(attack_graph, rate, seed)


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
    labs = truth(attack_graph, attack_split.labeled)
    clean = train_submodel(build_submodel(SubModelSpec(kind="gcn", hyper=FAST), attack_graph), *labs, seed=0)
    perturbed_graph = dice_perturb(attack_graph, attack_graph.labels, 0.2, seed=7)
    hit = train_submodel(build_submodel(SubModelSpec(kind="gcn", hyper=FAST), perturbed_graph), *labs, seed=0)
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
    # 1980 nodes of class 0 and 20 of class 1: a random node pair is
    # cross-class 2% of the time, yet 39,600 cross-class non-edges remain,
    # so about half the budget must still insert
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


def test_dice_inserts_uniformly_over_cross_class_non_edges():
    # classes of 2, 3 and 4 nodes give 26 cross-class pairs; the 6 edges are
    # all cross-class, so a budget of 1 always inserts one of the other 20
    labels = np.array([0, 0, 1, 1, 1, 2, 2, 2, 2])
    edge_list = [(0, 2), (1, 5), (2, 6), (3, 8), (4, 7), (0, 8)]
    g = make_graph(9, edge_list, np.zeros((9, 1)), labels)
    free = [
        (i, j) for i in range(9) for j in range(i + 1, 9)
        if labels[i] != labels[j] and (i, j) not in g.edges
    ]
    assert len(free) == 20
    counts = dict.fromkeys(free, 0)
    for seed in range(2000):
        (pair,) = dice_perturb(g, labels, 1 / 6, seed).edges - g.edges
        counts[pair] += 1
    observed = np.array(list(counts.values()))
    expected = 2000 / len(free)
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 < 60  # 19 degrees of freedom: p < 1e-5 above 60


def test_dice_exhausts_a_dense_cross_class_block():
    # K(8, 8) minus 3 edges plus 4 same-class edges: rejection must find the
    # 3 missing cross pairs among 64, and the rest of the budget deletes
    labels = np.repeat([0, 1], 8)
    missing = {(0, 8), (3, 12), (7, 15)}
    cross = {(i, j) for i in range(8) for j in range(8, 16)} - missing
    same = {(0, 1), (2, 3), (8, 9), (10, 11)}
    g = make_graph(16, cross | same, np.zeros((16, 1)), labels)
    for seed in range(10):
        perturbed = dice_perturb(g, labels, 7 / g.num_edges, seed)  # budget 7
        assert perturbed.edges - g.edges == missing
        assert g.edges - perturbed.edges == same


def test_dice_memory_is_linear_on_imbalanced_labels():
    # 200 of 20,000 nodes form the minority class, 40k majority-only edges:
    # listing every cross-class pair would take hundreds of MB
    rng = np.random.default_rng(0)
    n = 20_000
    labels = np.zeros(n, dtype=np.int64)
    labels[-200:] = 1
    pairs = rng.integers(n - 200, size=(42_000, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    g = make_graph(n, pairs[:40_000], np.zeros((n, 1)), labels)
    tracemalloc.start()
    try:
        perturbed = dice_perturb(g, labels, 0.2, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(perturbed.edges ^ g.edges) == round(0.2 * g.num_edges)
    assert peak < 50 * 2**20


# --- gradient feature flips -----------------------------------------------------


@pytest.fixture(scope="module")
def fmlp_victim(attack_graph, attack_split):
    spec = SubModelSpec(kind="f-mlp", hyper=FAST)
    return train_submodel(
        build_submodel(spec, attack_graph), *truth(attack_graph, attack_split.labeled), seed=0
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
        *truth(attack_graph, attack_split.labeled),
        seed=0,
    )
    with pytest.raises(ValidationError, match="f-mlp"):
        feature_flip_attack(attack_graph, victim, 5)


def test_feature_flip_budget_sweep_degrades_victim(attack_graph, attack_split, fmlp_victim):
    # retrained victim accuracy is non-increasing (within noise) in budget
    labs = truth(attack_graph, attack_split.labeled)
    test_y = attack_graph.labels[attack_split.test]
    accs = []
    for budget in (0, 150, 471):
        g2 = feature_flip_attack(attack_graph, fmlp_victim, budget, targets=attack_split.test)
        m = train_submodel(build_submodel(SubModelSpec(kind="f-mlp", hyper=FAST), g2), *labs, seed=0)
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
        build_submodel(spec, attack_graph), *truth(attack_graph, attack_split.labeled), seed=0
    )
    flipped = feature_flip_attack(attack_graph, fmlp_victim, 200, targets=attack_split.test)
    rebuilt = build_submodel(spec, flipped)
    moved = with_inputs(smodel, rebuilt.inputs)
    nodes = attack_split.test
    assert np.array_equal(predict_logits(smodel, nodes), predict_logits(moved, nodes))


def _reference_flip_attack(g, victim, budget, targets, block_rows=None, batch=32):
    """The selection rule written out over all of X: every round, take the
    targets' gradient afresh, in blocks of block_rows target rows (default:
    all at once) with every block's loss divided by the target count, sort
    all positive scores by (-score, flat index) and flip the first
    min(batch, remaining). Rows outside the targets get a zero gradient."""
    X = np.array(g.X.toarray() if sp.issparse(g.X) else g.X)
    targets = np.sort(targets)
    flipped = np.zeros(X.size, dtype=bool)
    sparse = sp.issparse(victim.model.inputs)
    step = block_rows or targets.size
    while budget > 0:
        grad = np.zeros(X.shape)
        for lo in range(0, targets.size, step):
            rows = targets[lo : lo + step]
            inputs = sp.csr_matrix(X[rows]) if sparse else X[rows]
            part = with_inputs(victim, inputs)
            grad[rows] = input_gradient(part, np.arange(rows.size), g.labels[rows], mean_over=targets.size)
        score = (grad * (1.0 - 2.0 * X)).ravel()
        idx = np.flatnonzero((score > 0.0) & ~flipped)
        picked = idx[np.lexsort((idx, -score[idx]))][: min(batch, budget)]
        if not picked.size:
            break
        X.flat[picked] = 1.0 - X.flat[picked]
        flipped[picked] = True
        budget -= picked.size
    return X


def _dense(X):
    return X.toarray() if sp.issparse(X) else X


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
        ("words-csr", 239, True),  # the graph stores X as CSR
        ("attack-csr", 239, False),
    ],
    ids=["fmlp-csr", "fmlp-dense", "early-stop", "ties-fmlp", "csr-x-fmlp-csr", "csr-x-fmlp-dense"],
)
def test_feature_flip_matches_exact_selection_oracle(attack_graph, fixture, budget, sparse):
    name, _, stored = fixture.partition("-")
    g = {"attack": attack_graph, "words": _sparse_words_graph(), "ties": _duplicated_rows_graph()}[name]
    if stored == "csr":
        g = with_features(g, sp.csr_matrix(g.X))
    split = split_nodes(g, 0.2, 0.1, seed=0)
    spec = SubModelSpec(kind="f-mlp", hyper=FAST)
    victim = train_submodel(build_submodel(spec, g), *truth(g, split.labeled), seed=0)
    assert sp.issparse(victim.model.inputs) == sparse
    attacked = feature_flip_attack(g, victim, budget, targets=split.test)
    assert sp.issparse(attacked.X) == sparse  # the victim's input format
    expected = _reference_flip_attack(g, victim, budget, split.test)
    assert np.array_equal(_dense(attacked.X), expected)
    assert 0 < len(changed_features(attacked.X, g.X)) <= budget


def _tiled_rows_graph(width, density, copies=5, rows=10):
    """One block of `rows` feature rows and labels, stacked `copies` times:
    scored in blocks of `rows` rows, every bit's score ties with the same
    bit's in every other copy."""
    rng = np.random.default_rng(4)
    X = np.tile((rng.random((rows, width)) < density).astype(float), (copies, 1))
    labels = np.tile(rng.integers(0, 3, rows), copies)
    n = rows * copies
    return make_graph(n, [(i, i + 1) for i in range(n - 1)], X, labels, 3)


@pytest.mark.parametrize("width, density, sparse", [(12, 0.3, False), (80, 0.1, True)], ids=["dense", "csr"])
def test_feature_flip_blocks_match_rescoring_every_block(monkeypatch, width, density, sparse):
    """Scored in five identical 10-row blocks, four flips a round: tied
    scores in different blocks go to the smaller index, a round rescores
    only the blocks it flipped a bit in, and the flips are those of
    rescoring every block every round. Blocks of 15, 15, 15 and 5 rows
    flip those bits too, which holds only if every block's loss is
    divided by the one target count."""
    g = _tiled_rows_graph(width, density)
    victim = train_submodel(
        build_submodel(SubModelSpec(kind="f-mlp", hyper=FAST), g), *truth(g, np.arange(0, 50, 3)), seed=0
    )
    assert sp.issparse(victim.model.inputs) == sparse
    monkeypatch.setattr(views, "_ROW_BLOCK_BUDGET", 10 * width)
    monkeypatch.setattr(attacks, "_FLIP_BATCH", 4)
    calls = []

    def counting(trained, nodes, labels, mean_over=None):
        calls.append(len(nodes))
        return input_gradient(trained, nodes, labels, mean_over)

    monkeypatch.setattr("cograph.attacks.input_gradient", counting)
    # round one: the best bit ties in all five blocks, and copies 0-3 win
    first = changed_features(feature_flip_attack(g, victim, 4).X, g.X)
    assert calls == [10] * 5
    (row, col) = first[0]
    assert first.tolist() == [[row + 10 * copy, col] for copy in range(4)]
    calls.clear()
    attacked = feature_flip_attack(g, victim, 41)  # 11 rounds
    assert 5 + 10 <= len(calls) < 5 * 11  # clean blocks keep their scores
    expected = _reference_flip_attack(g, victim, 41, np.arange(g.n), block_rows=10, batch=4)
    assert np.array_equal(_dense(attacked.X), expected)
    assert len(changed_features(attacked.X, g.X)) == 41
    monkeypatch.setattr(views, "_ROW_BLOCK_BUDGET", 15 * width)
    uneven = feature_flip_attack(g, victim, 41)
    assert np.array_equal(_dense(uneven.X), _reference_flip_attack(g, victim, 41, np.arange(g.n), 15, 4))


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
        build_submodel(SubModelSpec(kind="f-mlp", hyper=FAST), g), *truth(g, split.labeled), seed=0
    )
    seen = []

    def recording(trained, nodes, labels, mean_over=None):
        seen.append(trained.model.inputs)
        return input_gradient(trained, nodes, labels, mean_over)

    monkeypatch.setattr("cograph.attacks.input_gradient", recording)
    feature_flip_attack(g, victim, 100, targets=split.test)
    assert len(seen) == 4
    for inputs in seen:
        assert inputs.shape == (split.test.size, g.X.shape[1])  # the target rows only
        rebuilt = sp.csr_matrix(inputs.toarray())
        assert np.array_equal(inputs.indptr, rebuilt.indptr)
        assert np.array_equal(inputs.indices, rebuilt.indices)
        assert np.array_equal(inputs.data, rebuilt.data)


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
        (lambda g: _first_nodes(g, 200), None),
        (_wider, None),
    ],
    ids=["negative", "beyond-n", "2-d", "float", "empty", "victim-n", "victim-width"],
)
def test_feature_flip_rejects_bad_inputs(attack_graph, fmlp_victim, make, targets):
    with pytest.raises(ValidationError):
        feature_flip_attack(make(attack_graph), fmlp_victim, 10, targets=targets)


@pytest.mark.parametrize(
    "budget, message",
    [
        (True, "budget must be an integer, got True"),
        (2.5, "budget must be an integer, got 2.5"),
        (-1, "budget must be >= 0, got -1"),
    ],
    ids=["bool", "float", "negative"],
)
def test_feature_flip_rejects_a_bad_budget(attack_graph, fmlp_victim, budget, message):
    with pytest.raises(ValidationError, match=message):
        feature_flip_attack(attack_graph, fmlp_victim, budget)


def test_mixed_budget_even_split(attack_graph):
    """An even split gives the random flips and the feature flips the same
    budget, each rounded from half the rate against the clean edge count."""
    setting = AttackSetting(name="mix", method="random", rate=0.1, feature_ratio=0.5)
    perturbed = apply_attack(attack_graph, setting, seed=3, victim_hyper=FAST)
    feature_bits = int((perturbed.X != attack_graph.X).sum())
    edge_flips = len(perturbed.edges ^ attack_graph.edges)
    assert feature_bits == edge_flips == round(0.5 * 0.1 * attack_graph.num_edges)


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
    with pytest.raises(ValidationError, match=":1:"):
        load_perturbed_adjacency(attack_graph, path)


def test_sidecar_written(tmp_path, attack_graph):
    perturbed = random_structure_perturb(attack_graph, 0.05, seed=2)
    setting = AttackSetting("sidecar", method="random", rate=0.05)
    write_sidecar(tmp_path / "sidecar.json", setting, 2, attack_graph, perturbed)
    record = json.loads((tmp_path / "sidecar.json").read_text())
    assert record["method"] == "random"
    assert record["flip_log_hash"] == flip_log_hash(attack_graph, perturbed)
    assert record["edges_before"] == attack_graph.num_edges


def test_dense_and_csr_features_log_the_same_flips(tmp_path):
    """The changed bits of a dense and of a CSR attacked graph, against a
    dense or a CSR original, give one hash and one count."""
    g = _sparse_words_graph()
    g_csr = make_graph(g.n, g.edges, sp.csr_matrix(g.X), g.labels, g.C)
    split = split_nodes(g, 0.2, 0.1, seed=0)
    victim = train_submodel(
        build_submodel(SubModelSpec(kind="f-mlp", hyper=FAST), g), *truth(g, split.labeled), seed=0
    )
    attacked = feature_flip_attack(g_csr, victim, 100, targets=split.test)
    assert sp.issparse(attacked.X)
    dense = with_features(attacked, attacked.X.toarray())
    expected = np.argwhere(g.X != dense.X)
    assert len(expected) == 100
    setting = AttackSetting("flip", method="grad-feat", rate=0.1)
    records = []
    for i, (original, perturbed) in enumerate([(g, dense), (g, attacked), (g_csr, dense), (g_csr, attacked)]):
        assert np.array_equal(changed_features(original.X, perturbed.X), expected)
        write_sidecar(tmp_path / f"{i}.json", setting, 0, original, perturbed)
        records.append((tmp_path / f"{i}.json").read_bytes())
    assert len(set(records)) == 1
    assert json.loads(records[0])["feature_bits_changed"] == 100


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
