import hashlib
import re

import numpy as np
import pytest
import scipy.sparse as sp

from cograph import ValidationError, class_quota, generate_synthetic, split_nodes
from cograph.graph import Graph, NodeSplit, adjacency, edge_array, make_graph, normalized_adjacency, with_edges, with_features
from helpers import components_cover, graphs_equal


def test_make_graph_symmetrizes_and_drops_self_loops():
    g = make_graph(3, [(0, 1), (1, 0), (2, 2), (1, 2)], np.eye(3), [0, 1, 0])
    assert g.edges == frozenset({(0, 1), (1, 2)})


def test_graph_rejects_out_of_range_edges():
    with pytest.raises(ValidationError):
        make_graph(2, [(0, 5)], np.eye(2), [0, 1])


@pytest.mark.parametrize(
    "edges",
    [np.array([[0.6, 1.9]]), [(True, 2)], [(0, 1, 2)], [(np.float64(0.5), 1)]],
    ids=["float-row", "bool", "triple", "float-scalar"],
)
def test_make_graph_refuses_edge_endpoints_that_are_not_integers(edges):
    # a float or bool endpoint used to be cast to a node, and a triple met a bare ValueError
    pair = list(edges)[0]
    with pytest.raises(ValidationError, match=re.escape(f"edge {pair!r} is not a pair of integer node ids")):
        make_graph(3, edges, np.eye(3), [0, 1, 0])
    g = make_graph(3, [], np.eye(3), [0, 1, 0])
    with pytest.raises(ValidationError, match="not a pair of integer node ids"):
        with_edges(g, edges)


@pytest.mark.parametrize("pair", [(0.5, 1.5), (0.0, 1), (False, 2)], ids=["float", "float-whole", "bool"])
def test_graph_refuses_edge_endpoints_that_are_not_integers(pair):
    # edge_array would truncate a stored float edge
    with pytest.raises(ValidationError, match=re.escape(f"edge {pair!r} is not a pair of integer node ids")):
        Graph(3, frozenset({pair}), np.eye(3), [0, 1, 0], 2)


@pytest.mark.parametrize(
    "build, n",
    [
        (lambda: Graph(3.0, frozenset({(0, 1)}), np.eye(3), np.array([0, 1, 0]), 2), 3.0),
        (lambda: Graph(True, frozenset(), np.eye(1), [0], 1), True),
        (lambda: make_graph(3.9, [(0, 1)], np.eye(3), [0, 1, 0]), 3.9),
    ],
    ids=["float-graph", "bool-graph", "float-make_graph"],
)
def test_graph_refuses_a_node_count_that_is_not_an_integer(build, n):
    # a float n was stored (split_nodes then met numpy's AxisError), and make_graph truncated 3.9
    with pytest.raises(ValidationError, match=re.escape(f"n must be an integer, got {n!r}")):
        build()


def test_graph_stores_a_numpy_node_count_as_an_int():
    g = Graph(np.int64(3), frozenset({(0, 1)}), np.eye(3), [0, 1, 0], 2)
    assert type(g.n) is int and g.n == 3


def test_make_graph_takes_numpy_integer_endpoints_as_ints():
    g = make_graph(3, np.array([[1, 0], [2, 1]], dtype=np.int32), np.eye(3), [0, 1, 0])
    assert g.edges == frozenset({(0, 1), (1, 2)})
    assert all(type(v) is int for e in g.edges for v in e)


def test_graph_rejects_bad_labels():
    with pytest.raises(ValidationError):
        make_graph(2, [], np.eye(2), labels=np.array([0, 7]), C=2)


NOT_CLASS_IDS = {
    "float": [0.5, 1.9, 0.2],
    "float-whole": [0.0, 1.0, 0.0],
    "nan": [np.nan, 0.0, 1.0],
    "bool": [True, False, True],
    "str": ["a", "b", "a"],
}


@pytest.mark.parametrize("labels", NOT_CLASS_IDS.values(), ids=NOT_CLASS_IDS.keys())
def test_graph_refuses_labels_that_are_not_integers(labels):
    # make_graph and Graph used to cast these: [0.5, 1.9, 0.2] was stored as classes [0, 1, 0]
    message = rf"targets must be a 1-D integer array of 3 class ids, got {np.asarray(labels).dtype}"
    with pytest.raises(ValidationError, match=message):
        make_graph(3, [(0, 1)], np.eye(3), labels)
    with pytest.raises(ValidationError, match=message):
        Graph(3, frozenset(), np.eye(3), np.array(labels), 2)


@pytest.mark.parametrize(
    "C, message",
    [(2.5, "C must be an integer, got 2.5"), (True, "C must be an integer, got True"), (0, "C must be >= 1, got 0")],
    ids=["float", "bool", "zero"],
)
def test_graph_refuses_a_class_count_that_is_not_a_positive_integer(C, message):
    # C=2.5 was stored, and cotrain then met TypeError building its class counts; C=True was stored too
    edges = [(i, i + 1) for i in range(29)]
    with pytest.raises(ValidationError, match=re.escape(message)):
        make_graph(30, edges, np.eye(30), np.arange(30) % 2, C=C)
    with pytest.raises(ValidationError, match=re.escape(message)):
        Graph(3, frozenset(), np.eye(3), np.array([0, 0, 0]), C)


def test_graph_stores_a_numpy_class_count_as_an_int():
    g = make_graph(3, [(0, 1)], np.eye(3), [0, 1, 0], np.int64(2))
    assert type(g.C) is int and g.C == 2
    assert type(make_graph(3, [(0, 1)], np.eye(3), np.array([0, 1, 0], dtype=np.int32)).C) is int


def test_feature_matrix_shape_checked():
    with pytest.raises(ValidationError):
        make_graph(3, [], np.eye(2), [0, 1, 0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_graph_rejects_non_finite_features(bad):
    X = np.ones((3, 2))
    X[1, 0] = bad
    with pytest.raises(ValidationError, match="NaN or infinite"):
        make_graph(3, [(0, 1)], X, [0, 1, 0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_graph_rejects_non_finite_csr_features(bad):
    X = sp.csr_matrix((np.array([1.0, bad]), np.array([0, 1]), np.array([0, 1, 2, 2])), shape=(3, 2))
    with pytest.raises(ValidationError, match="NaN or infinite"):
        make_graph(3, [(0, 1)], X, [0, 1, 0])


def test_make_graph_stores_csr_features_canonical_and_read_only():
    # row 0 repeats column 2 out of order, row 1 stores a zero, and row 2's
    # two entries cancel: sums, no stored zeros, sorted indices, float64
    X = sp.csr_matrix(
        (np.array([1, 2, 1, 0, 1, -1]), np.array([2, 0, 2, 1, 1, 1]), np.array([0, 3, 4, 6])), shape=(3, 3)
    )
    data_before = X.data.copy()
    g = make_graph(3, [(0, 1)], X, [0, 1, 0])
    assert sp.isspmatrix_csr(g.X) and g.X.dtype == np.float64
    assert g.X.indptr.tolist() == [0, 2, 2, 2]
    assert g.X.indices.tolist() == [0, 2]
    assert g.X.data.tolist() == [2.0, 2.0]
    assert not any(a.flags.writeable for a in (g.X.data, g.X.indices, g.X.indptr))
    with pytest.raises(ValueError):
        g.X.data[0] = 5.0
    assert X.data.flags.writeable and np.array_equal(X.data, data_before)  # the caller's
    assert with_edges(g, [(1, 2)]).X is g.X  # already canonical and frozen: kept
    # read-only values over writable index arrays: still copied and frozen
    shared = sp.csr_matrix((np.array([1.0, 2.0]), np.array([0, 2]), np.array([0, 1, 1, 2])), shape=(3, 3))
    shared.data.flags.writeable = False
    stored = make_graph(3, [], shared, [0, 1, 0]).X
    assert stored is not shared and not np.shares_memory(stored.indices, shared.indices)
    assert not any(a.flags.writeable for a in (stored.data, stored.indices, stored.indptr))
    shared.indices[0] = 1  # the caller's arrays stay theirs
    assert stored.indices.tolist() == [0, 2]


def test_graph_is_immutable():
    g = make_graph(2, [(0, 1)], np.eye(2), [0, 1])
    with pytest.raises(ValueError):
        g.X[0, 0] = 5.0


def test_graph_freezes_a_callers_edge_set():
    edges = {(0, 1)}
    g = Graph(3, edges, np.eye(3), [0, 1, 0], 2)
    edges.add((2, 5))
    assert g.edges == frozenset({(0, 1)}) and g.num_edges == 1
    frozen = frozenset({(0, 1)})
    assert Graph(3, frozen, np.eye(3), [0, 1, 0], 2).edges is frozen  # kept as is, not copied


def test_normalized_adjacency_two_nodes():
    g = make_graph(2, [(0, 1)], np.eye(2), [0, 1])
    A_hat = normalized_adjacency(g).toarray()
    # degrees of A+I are (2, 2), so every entry is 1/2
    assert A_hat == pytest.approx(np.full((2, 2), 0.5))


def test_normalized_adjacency_isolated_node():
    g = make_graph(1, [], np.ones((1, 1)), [0])
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


# parameter sets and the sha256 of their edge array and X bytes, as the
# generator gave them when it drew every pair's uniform in one call: the
# sweep workload's graph, a noiseless one and one over several row blocks
PINNED_SYNTHETIC = [
    (dict(n=400, C=4, p_in=0.06, p_out=0.02, m=40, feature_noise=0.2, seed=3),
     "2a7b7a94e38370496c3e90cfa871c0260e2ec19738132ba4bff8d5a951e6f743"),
    (dict(n=300, C=3, p_in=0.10, p_out=0.01, m=30, feature_noise=0.0, seed=7),
     "a843bf267869ef6755ab8e09e3e97c957f72d813faf26bb34d3c68f69d21bd2a"),
    (dict(n=1000, C=5, p_in=0.02, p_out=0.004, m=17, feature_noise=0.1, seed=11),
     "a049e02e0f094cf31316bacfefa6607fcb1bfdbb89d8e77dd791b69da846ce7d"),
]


@pytest.mark.parametrize("params, digest", PINNED_SYNTHETIC, ids=["sweep", "noiseless", "blocks"])
def test_synthetic_graphs_are_pinned(params, digest):
    g = generate_synthetic(**params)
    data = edge_array(g).tobytes() + np.ascontiguousarray(g.X).tobytes()
    assert hashlib.sha256(data).hexdigest() == digest


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
    histogram = np.bincount(g.labels[split.labeled], minlength=g.C)
    assert histogram.shape == (g.C,) and histogram.sum() == int(0.2 * g.n)


def test_split_histogram_within_binomial_bound():
    # class counts in a uniform split of a balanced graph concentrate
    # around L/C; allow 3 sigma of Binomial(L, 1/C)
    g = generate_synthetic(1200, 3, 0.02, 0.002, 12, 0.0, seed=2)
    split = split_nodes(g, 0.25, 0.1, seed=9)
    L = len(split.labeled)
    p = 1.0 / g.C
    sigma = np.sqrt(L * p * (1 - p))
    histogram = np.bincount(g.labels[split.labeled], minlength=g.C)
    assert np.abs(histogram - L * p).max() <= 3 * sigma


def test_split_warns_on_absent_class():
    g = generate_synthetic(40, 4, 0.5, 0.1, 8, 0.0, seed=0)
    # tiny labeled set; find a seed that misses some class
    for seed in range(50):
        split = split_nodes(g, 0.05, 0.1, seed=seed)
        histogram = np.bincount(g.labels[split.labeled], minlength=g.C)
        missing = np.flatnonzero(histogram == 0)
        if missing.size:
            quota = class_quota(histogram, 10)
            assert all(quota[c] == 0 for c in missing)
            assert sum(quota) == 10
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


def test_split_refuses_fractions_that_leave_no_labeled_node():
    # int(0.04 * 20) is 0: nothing to train on, caught before any model is built
    g = generate_synthetic(20, 2, 0.5, 0.1, 4, 0.0, seed=0)
    with pytest.raises(ValidationError, match=r"no labeled node \(labeled 0, validation 2, test 18\)"):
        split_nodes(g, 0.04, 0.1, seed=0)


@pytest.mark.parametrize("empty", ["labeled", "validation", "test"])
def test_node_split_refuses_an_empty_set(empty):
    arrays = {"labeled": np.array([0]), "validation": np.array([1]), "test": np.array([2])}
    arrays[empty] = np.array([], dtype=np.int64)
    with pytest.raises(ValidationError, match=f"split has no {empty} node"):
        NodeSplit(**arrays)


@pytest.mark.parametrize("ids", [np.array([0.0]), np.array([True])], ids=["float", "bool"])
def test_node_split_refuses_non_integer_ids(ids):
    # a float or bool id would otherwise meet numpy's IndexError at g.labels[split.labeled]
    with pytest.raises(ValidationError, match=f"node ids must be integers, got {ids.dtype}"):
        NodeSplit(ids, np.array([1]), np.array([2]))


@pytest.mark.parametrize("bad", ["labeled", "validation", "test"])
def test_node_split_refuses_a_set_that_is_not_1d(bad):
    # a 2-D set used to fail the disjointness check with TypeError: unhashable type: 'list'
    arrays = {"labeled": np.array([0]), "validation": np.array([1]), "test": np.array([2])}
    arrays[bad] = arrays[bad][None, :]
    with pytest.raises(ValidationError, match=rf"split {bad}: node ids must be 1-D, got shape \(1, 1\)"):
        NodeSplit(**arrays)


@pytest.mark.parametrize(
    "train_frac, val_frac, message",
    [
        ("0.1", 0.1, "train_frac must be a real number, got '0.1'"),
        (0.1, None, "val_frac must be a real number, got None"),
        (True, 0.1, "train_frac must be a real number, got True"),
    ],
    ids=["str-train", "none-val", "bool-train"],
)
def test_split_rejects_fractions_that_are_not_numbers(train_frac, val_frac, message):
    g = generate_synthetic(20, 2, 0.5, 0.1, 4, 0.0, seed=0)
    with pytest.raises(ValidationError, match=message):
        split_nodes(g, train_frac, val_frac, seed=0)


def test_with_edges_preserves_everything_else(easy_graph):
    g2 = with_edges(easy_graph, [(0, 1)])
    assert g2.edges == frozenset({(0, 1)})
    assert np.array_equal(g2.X, easy_graph.X)
    assert np.array_equal(g2.labels, easy_graph.labels)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_graph_constructor_rejects_non_finite_features(bad):
    X = np.ones((3, 2))
    X[2, 1] = bad
    with pytest.raises(ValidationError, match="NaN or infinite"):
        Graph(3, frozenset({(0, 1)}), X, [0, 1, 0], 2)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_with_features_rejects_a_non_finite_caller_matrix(bad, sparse):
    g = make_graph(3, [(0, 1)], np.ones((3, 2)), [0, 1, 0])
    X = np.ones((3, 2))
    X[0, 1] = bad
    with pytest.raises(ValidationError, match="NaN or infinite"):
        with_features(g, sp.csr_matrix(X) if sparse else X)


def test_a_graphs_own_features_are_shared_not_copied():
    """with_edges, and with_features given g.X, keep g's X itself; the
    new edges are still checked."""
    g = make_graph(3, [(0, 1)], np.ones((3, 2)), [0, 1, 0])
    h = with_edges(g, [(1, 2), (2, 1)])
    k = with_features(h, g.X)
    assert h.edges == frozenset({(1, 2)}) and h.X is g.X and k.X is g.X
    assert h.labels is g.labels and k.labels is g.labels
    with pytest.raises(ValidationError, match="out of range"):
        with_edges(g, [(0, 3)])


def test_graph_and_split_keep_no_caller_array():
    """A Graph or NodeSplit built directly stores read-only copies, so
    writing the caller's arrays afterwards changes neither."""
    X, labels = np.ones((3, 2)), np.array([0, 1, 0])
    g = Graph(3, frozenset({(0, 1)}), X, labels, 2)
    X[0, 0], labels[0] = np.nan, 7
    assert np.array_equal(g.X, np.ones((3, 2))) and np.array_equal(g.labels, [0, 1, 0])
    assert not g.X.flags.writeable and not g.labels.flags.writeable
    arrays = [np.array([0]), np.array([1]), np.array([2])]
    split = NodeSplit(*arrays)
    for a in arrays:
        a[0] = 9
    assert [p.tolist() for p in (split.labeled, split.validation, split.test)] == [[0], [1], [2]]
    assert not any(a.flags.writeable for a in (split.labeled, split.validation, split.test))


def test_graph_stores_a_list_X_as_read_only_float64():
    g = Graph(2, frozenset(), [[1, 0], [0, 1]], [0, 1], 2)
    assert isinstance(g.X, np.ndarray) and g.X.dtype == np.float64
    assert not g.X.flags.writeable and g.labels.dtype == np.int64


def test_graph_takes_no_flag_to_skip_its_checks():
    X = np.ones((3, 2))
    X[0, 0] = np.nan
    with pytest.raises(TypeError, match="_X_checked"):
        Graph(3, frozenset(), X, [0, 1, 0], 2, _X_checked=True)
