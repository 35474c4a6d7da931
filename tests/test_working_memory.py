"""Working-set bounds and bit-identity guards for the kNN view, the
feature-flip attack and the synthetic-graph generator.

The kNN graph is compared byte for byte with two references kept below:
a stable argsort of dense cosine rows on real-valued features, and an
exact rational oracle on binary features, whose tied cosines the
floating-point reference cannot order. Traced peaks come from
tracemalloc, which numpy reports its buffers to.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from cograph import SubModelSpec, build_submodel, generate_synthetic, split_nodes, train_submodel
from cograph import views
from cograph.attacks import changed_features, feature_flip_attack
from cograph.graph import make_graph, with_features
from cograph.nn import TrainHyper
from helpers import truth, unit_rows


def _union(top):
    """The kNN view's adjacency from each node's (n, k) picks."""
    n, k = top.shape
    src, dst = np.repeat(np.arange(n), k), top.reshape(-1)
    rows, cols = np.concatenate([src, dst]), np.concatenate([dst, src])
    A = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    A.data[:] = 1.0
    return A


def _reference_knn_graph(X, k):
    """Negated full similarity rows, a stable argsort of all n columns."""
    Xn = unit_rows(X)
    sims = Xn @ Xn.T
    np.fill_diagonal(sims, -np.inf)
    return _union(np.argsort(-sims, axis=1, kind="stable")[:, :k])


def _exact_knn_graph(X, k):
    """Exact oracle for binary X: node i ranks j by the rational C_ij^2 / q_j
    (C the co-occurrence counts, q the row lengths, 1 for zero rows), then by
    the smaller index."""
    C = (X @ X.T).astype(np.int64)  # integer sums, exact in float64
    q = np.maximum(np.diag(C), 1)
    base = int(q.max()) + 1
    pairs, inverse = np.unique((C * base + q).ravel(), return_inverse=True)
    values = [Fraction(int(c) ** 2, int(d)) for c, d in zip(*np.divmod(pairs, base))]
    rank_of = {v: r for r, v in enumerate(sorted(set(values), reverse=True))}
    rank = np.array([rank_of[v] for v in values])[inverse].reshape(C.shape)
    np.fill_diagonal(rank, len(rank_of))
    return _union(np.argsort(rank, axis=1, kind="stable")[:, :k])


def _same_csr(a, b):
    return all(
        x.dtype == y.dtype and np.array_equal(x, y)
        for x, y in [(a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)]
    ) and a.shape == b.shape


def _ties():
    rng = np.random.default_rng(1)
    return np.repeat((rng.random((40, 12)) < 0.3).astype(float), 3, axis=0)


def _zero_row():
    X = (np.random.default_rng(2).random((60, 9)) < 0.4).astype(float)
    X[[0, 17]] = 0.0
    return X


def _negative():
    return np.random.default_rng(3).standard_normal((80, 7))


def _subnormal():
    X = np.random.default_rng(4).random((50, 6))
    X[::3] *= 5e-320  # subnormal rows beside normal ones
    X[1] = 5.5368726e-159
    return X


@pytest.mark.parametrize(
    "make, k", [(_ties, 4), (_zero_row, 3), (_negative, 5), (_subnormal, 4)],
    ids=["ties", "zero-row", "negative", "subnormal"],
)
def test_knn_graph_matches_reference_bitwise(make, k):
    X = make()
    assert _same_csr(views.knn_graph(X, k), _reference_knn_graph(X, k))


def test_knn_graph_matches_reference_over_ragged_chunks_and_blocks(monkeypatch):
    rng = np.random.default_rng(6)
    X = np.repeat((rng.random((70, 15)) < 0.2).astype(float), 3, axis=0)  # n = 210
    X[5] = 0.0
    monkeypatch.setattr(views, "_ROW_BLOCK_BUDGET", 210 * 9 + 5)  # 23 9-row blocks, a 3-row last one
    assert _same_csr(views.knn_graph(X, 6), _exact_knn_graph(X, 6))


def test_knn_ties_follow_the_exact_order():
    # binary rows tie often across (count, length) pairs, such as 2/sqrt(8)
    # against 3/sqrt(18); a floating-point dot product can split such a tie
    X = (np.random.default_rng(1).random((200, 60)) < 0.1).astype(float)
    assert _same_csr(views.knn_graph(X, 5), _exact_knn_graph(X, 5))


def _traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _binary_features(n, m, density, seed):
    return (np.random.default_rng(seed).random((n, m)) < density).astype(float)


def test_knn_graph_holds_one_similarity_chunk():
    X = _binary_features(1200, 300, 0.05, seed=0)
    n, k = X.shape[0], 100
    A, peak = _traced_peak(views.knn_graph, X, k)
    assert _same_csr(A, _exact_knn_graph(X, k))
    # a few dense copies of one row block of scores, then 7 words per pick:
    # the (n, k) int64 picks, the directed CSR and its transpose (float64
    # data, int32 indices) and their union, with twice the entries; nothing
    # n x n or n x m. Large k lets the union step set the peak
    block = views._ROW_BLOCK_BUDGET * 8
    assert peak <= 4 * block + 7 * n * k * 8 + 2**20


def test_synthetic_generator_holds_one_block_of_pairs():
    """The pairs draw their uniforms one row block at a time: at n = 4000
    (8M pairs, about 64 MB for each pair-length float64 array) the peak
    stays a few row blocks of pair arrays above the small result."""
    g, peak = _traced_peak(generate_synthetic, 4000, 4, 0.002, 0.0005, 8, 0.1, seed=1)
    assert g.n == 4000 and g.num_edges > 0
    assert peak <= 32 * 2**20


def _wide_graph(density):
    """1200 x 500 binary features: CSR victim inputs at 2 %, dense at 30 %."""
    X = _binary_features(1200, 500, density, seed=1)
    labels = np.random.default_rng(2).integers(0, 4, 1200)
    return make_graph(1200, [(i, i + 1) for i in range(1199)], X, labels, 4)


def _fmlp_victim(g):
    split = split_nodes(g, 0.2, 0.1, seed=0)
    model = build_submodel(SubModelSpec(kind="f-mlp", hyper=TrainHyper(epochs=20)), g)
    return train_submodel(model, *truth(g, split.labeled), seed=0)


@pytest.mark.parametrize("density", [0.02, 0.3], ids=["csr", "dense"])
def test_feature_flip_holds_one_gradient(density, monkeypatch):
    g = _wide_graph(density)
    victim = _fmlp_victim(g)
    csr = sp.issparse(victim.model.inputs)
    assert csr == (density < 0.2)
    t, m = g.X.shape  # every node is a target
    monkeypatch.setattr(views, "_ROW_BLOCK_BUDGET", 20 * m)  # 60 blocks of 20 rows
    attacked, peak = _traced_peak(feature_flip_attack, g, victim, 200)
    assert len(changed_features(attacked.X, g.X)) == 200
    # a few copies of one block's gradient beside the target rows' set bits
    # (freed before the attacked X is made) and, for a CSR victim, X's set
    # bits and the attacked CSR, a few words per stored entry; for a dense
    # victim, the dense copy of X it returns. No t x m gradient: for the
    # CSR victim the bound is under a third of one
    block = views._ROW_BLOCK_BUDGET * 8
    held = 48 * np.count_nonzero(g.X) if csr else t * m * 8
    assert peak <= 4 * block + held + 2**20


@pytest.mark.parametrize("density", [0.02, 0.3], ids=["csr", "dense"])
def test_feature_flip_returns_read_only_features_and_touches_no_input(density, monkeypatch):
    g = _wide_graph(density)
    victim = _fmlp_victim(g)
    X_before = g.X.copy()
    inputs = victim.model.inputs
    inputs_before = inputs.copy()
    handed = []

    def recording(graph, X):
        handed.append(X)
        return with_features(graph, X)

    monkeypatch.setattr("cograph.attacks.with_features", recording)
    attacked = feature_flip_attack(g, victim, 100, targets=np.arange(300))
    assert attacked.X is handed[0]  # kept as the attack built it, not copied
    # the attacked X takes the victim's input format
    assert sp.issparse(attacked.X) == sp.issparse(inputs)
    arrays = [attacked.X.data, attacked.X.indices, attacked.X.indptr] if sp.issparse(inputs) else [attacked.X]
    assert not any(a.flags.writeable for a in arrays)
    assert len(changed_features(attacked.X, X_before)) == 100
    assert np.array_equal(g.X, X_before)
    assert victim.model.inputs is inputs
    if sp.issparse(inputs):
        assert (inputs != inputs_before).nnz == 0
    else:
        assert np.array_equal(inputs, inputs_before)
