import numpy as np
import pytest

from cograph import ValidationError, class_quota, generate_synthetic, split_nodes
from cograph.graph import adjacency, make_graph, normalized_adjacency, with_edges
from helpers import components_cover, graphs_equal


def test_make_graph_symmetrizes_and_drops_self_loops():
    g = make_graph(3, [(0, 1), (1, 0), (2, 2), (1, 2)], np.eye(3))
    assert g.edges == frozenset({(0, 1), (1, 2)})


def test_graph_rejects_out_of_range_edges():
    with pytest.raises(ValidationError):
        make_graph(2, [(0, 5)], np.eye(2))


def test_graph_rejects_bad_labels():
    with pytest.raises(ValidationError):
        make_graph(2, [], np.eye(2), labels=np.array([0, 7]), C=2)


def test_feature_matrix_shape_checked():
    with pytest.raises(ValidationError):
        make_graph(3, [], np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_graph_rejects_non_finite_features(bad):
    X = np.ones((3, 2))
    X[1, 0] = bad
    with pytest.raises(ValidationError, match="NaN or infinite"):
        make_graph(3, [(0, 1)], X, [0, 1, 0])


def test_graph_is_immutable():
    g = make_graph(2, [(0, 1)], np.eye(2))
    with pytest.raises(ValueError):
        g.X[0, 0] = 5.0


def test_normalized_adjacency_two_nodes():
    g = make_graph(2, [(0, 1)], np.eye(2))
    A_hat = normalized_adjacency(g).toarray()
    # degrees of A+I are (2, 2), so every entry is 1/2
    assert A_hat == pytest.approx(np.full((2, 2), 0.5))


def test_normalized_adjacency_isolated_node():
    g = make_graph(1, [], np.ones((1, 1)))
    assert normalized_adjacency(g).toarray() == pytest.approx(np.array([[1.0]]))


def test_normalized_adjacency_exactly_symmetric(attack_graph):
    A_hat = normalized_adjacency(attack_graph)
    diff = A_hat - A_hat.T
    assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


def test_normalized_adjacency_pattern_matches_a_plus_i(easy_graph):
    A_hat = normalized_adjacency(easy_graph)
    A_plus_i = adjacency(easy_graph)
    A_plus_i.setdiag(1.0)
    assert (A_hat != 0).nnz == (A_plus_i != 0).nnz


def test_normalized_adjacency_spectral_radius(easy_graph):
    A_hat = normalized_adjacency(easy_graph)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(easy_graph.n)
    for _ in range(200):
        v = A_hat @ v
        v /= np.linalg.norm(v)
    assert np.linalg.norm(A_hat @ v) <= 1.0 + 1e-9


def test_degree_vector_of_a_plus_i_positive(attack_graph):
    A_plus_i = adjacency(attack_graph)
    A_plus_i.setdiag(1.0)
    assert np.asarray(A_plus_i.sum(axis=1)).min() >= 1.0


def test_synthetic_determinism():
    a = generate_synthetic(100, 4, 0.2, 0.05, 20, 0.1, seed=3)
    b = generate_synthetic(100, 4, 0.2, 0.05, 20, 0.1, seed=3)
    assert graphs_equal(a, b)
    c = generate_synthetic(100, 4, 0.2, 0.05, 20, 0.1, seed=4)
    assert not graphs_equal(a, c)


def test_synthetic_round_robin_classes():
    g = generate_synthetic(10, 3, 0.5, 0.1, 6, 0.0, seed=0)
    assert g.labels.tolist() == [0, 1, 2, 0, 1, 2, 0, 1, 2, 0]


def test_synthetic_noiseless_features_are_block_indicators():
    g = generate_synthetic(9, 3, 0.5, 0.1, 9, 0.0, seed=0)
    for i in range(9):
        c = int(g.labels[i])
        expected = np.zeros(9)
        expected[c * 3 : (c + 1) * 3] = 1.0
        assert np.array_equal(g.X[i], expected)


def test_synthetic_p_out_zero_means_no_cross_edges():
    g = generate_synthetic(60, 3, 0.5, 0.0, 6, 0.0, seed=1)
    for i, j in g.edges:
        assert g.labels[i] == g.labels[j]


def test_synthetic_validates_probabilities():
    with pytest.raises(ValidationError):
        generate_synthetic(10, 2, 0.1, 0.5, 4, 0.0, seed=0)  # p_out > p_in
    with pytest.raises(ValidationError):
        generate_synthetic(10, 2, 1.5, 0.1, 4, 0.0, seed=0)
    with pytest.raises(ValidationError):
        generate_synthetic(10, 2, 0.5, 0.1, 4, -0.2, seed=0)
    with pytest.raises(ValidationError):
        generate_synthetic(2, 5, 0.5, 0.1, 4, 0.0, seed=0)  # n < C


def test_synthetic_giant_component():
    g = generate_synthetic(300, 3, 0.1, 0.01, 30, 0.0, seed=7)
    assert components_cover(g) >= 0.95


def test_split_sizes_and_disjointness():
    g = generate_synthetic(100, 4, 0.2, 0.05, 20, 0.1, seed=3)
    split = split_nodes(g, 0.1, 0.1, seed=0)
    assert len(split.labeled) == 10
    assert len(split.validation) == 10
    assert len(split.test) == 80
    all_nodes = np.concatenate([split.labeled, split.validation, split.test])
    assert np.array_equal(np.sort(all_nodes), np.arange(100))


def test_split_determinism():
    g = generate_synthetic(100, 4, 0.2, 0.05, 20, 0.1, seed=3)
    a = split_nodes(g, 0.1, 0.1, seed=5)
    b = split_nodes(g, 0.1, 0.1, seed=5)
    assert np.array_equal(a.labeled, b.labeled)
    assert np.array_equal(a.validation, b.validation)
    assert np.array_equal(a.test, b.test)


def test_split_histogram_matches_labeled_set():
    g = generate_synthetic(200, 5, 0.2, 0.05, 20, 0.1, seed=3)
    split = split_nodes(g, 0.2, 0.1, seed=1)
    expected = np.bincount(g.labels[split.labeled], minlength=g.C)
    assert np.array_equal(split.class_histogram, expected)
    assert split.class_histogram.sum() == len(split.labeled)


def test_split_histogram_within_binomial_bound():
    # class counts in a uniform split of a balanced graph concentrate
    # around L/C; allow 3 sigma of Binomial(L, 1/C)
    g = generate_synthetic(1200, 3, 0.02, 0.002, 12, 0.0, seed=2)
    split = split_nodes(g, 0.25, 0.1, seed=9)
    L = len(split.labeled)
    p = 1.0 / g.C
    sigma = np.sqrt(L * p * (1 - p))
    assert np.abs(split.class_histogram - L * p).max() <= 3 * sigma


def test_split_warns_on_absent_class():
    g = generate_synthetic(40, 4, 0.5, 0.1, 8, 0.0, seed=0)
    # tiny labeled set; find a seed that misses some class
    for seed in range(50):
        split = split_nodes(g, 0.05, 0.1, seed=seed)
        missing = np.flatnonzero(split.class_histogram == 0)
        if missing.size:
            quota = class_quota(split.class_histogram, 10)
            assert all(quota.per_class[c] == 0 for c in missing)
            assert quota.total == 10
            return
    pytest.fail("no seed produced an absent class; fixture too generous")


def test_split_rejects_bad_fractions():
    g = generate_synthetic(20, 2, 0.5, 0.1, 4, 0.0, seed=0)
    with pytest.raises(ValidationError):
        split_nodes(g, 0.0, 0.1, seed=0)
    with pytest.raises(ValidationError):
        split_nodes(g, 0.7, 0.5, seed=0)
    for train_frac, val_frac in ((0.5, 0.5), (0.3, 0.7)):
        with pytest.raises(ValidationError, match="no test node"):
            split_nodes(g, train_frac, val_frac, seed=0)
    assert split_nodes(g, 0.5, 0.45, seed=0).test.size == 1


def test_with_edges_preserves_everything_else(easy_graph):
    g2 = with_edges(easy_graph, [(0, 1)])
    assert g2.edges == frozenset({(0, 1)})
    assert np.array_equal(g2.X, easy_graph.X)
    assert np.array_equal(g2.labels, easy_graph.labels)
