"""Working-set bounds and bit-identity guards for the kNN view and the
feature-flip attack.

The kNN graph is compared byte for byte with the straightforward
whole-chunk implementation kept below as the reference; traced peaks come
from tracemalloc, which numpy reports its buffers to.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from cograph import SubModelSpec, build_submodel, split_nodes, train_submodel
from cograph import views
from cograph.attacks import feature_flip_attack
from cograph.graph import make_graph, with_features
from cograph.nn import TrainHyper
from helpers import labeled_map


def _reference_unit_rows(X):
    peak = np.abs(X).max(axis=1)
    Xs = X / np.where(peak > 0, peak, 1.0)[:, None]
    norms = np.linalg.norm(Xs, axis=1)
    return Xs / np.where(norms > 0, norms, 1.0)[:, None]


def _reference_knn_graph(X, k, chunk_budget=8_000_000):
    """Negated full similarity rows, a stable argsort of all n columns."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    Xn = _reference_unit_rows(X)
    srcs, dsts = [], []
    chunk = max(1, chunk_budget // n)
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        sims = Xn[start:stop] @ Xn.T
        sims[np.arange(stop - start), np.arange(start, stop)] = -np.inf
        top = np.argsort(-sims, axis=1, kind="stable")[:, :k]
        srcs.append(np.repeat(np.arange(start, stop), k))
        dsts.append(top.reshape(-1))
    src, dst = np.concatenate(srcs), np.concatenate(dsts)
    rows, cols = np.concatenate([src, dst]), np.concatenate([dst, src])
    A = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    A.data[:] = 1.0
    return A


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
    Xn = _reference_unit_rows(X)
    assert np.array_equal(views._unit_rows(X), Xn)
    assert np.array_equal(views.cosine_similarity(X), Xn @ Xn.T)  # one operand: the symmetric product


def test_knn_graph_matches_reference_over_ragged_chunks_and_blocks(monkeypatch):
    rng = np.random.default_rng(6)
    X = np.repeat((rng.random((70, 15)) < 0.2).astype(float), 3, axis=0)  # n = 210
    X[5] = 0.0
    budget = 210 * 64  # 64-row chunks: 3 full, a ragged 18-row last one
    monkeypatch.setattr(views, "_KNN_CHUNK_BUDGET", budget)
    monkeypatch.setattr(views, "_ROW_BLOCK_BUDGET", 210 * 9 + 5)  # 9-row sort blocks
    assert _same_csr(views.knn_graph(X, 6), _reference_knn_graph(X, 6, chunk_budget=budget))


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
    n, m = X.shape
    A, peak = _traced_peak(views.knn_graph, X, 10)
    assert _same_csr(A, _reference_knn_graph(X, 10))
    assert peak <= n * n * 8 + 2 * n * m * 8 + 2**20


def _wide_graph(density):
    """1200 x 300 binary features: CSR victim inputs at 5 %, dense at 30 %."""
    X = _binary_features(1200, 300, density, seed=1)
    labels = np.random.default_rng(2).integers(0, 4, 1200)
    return make_graph(1200, [(i, i + 1) for i in range(1199)], X, labels, 4)


def _fmlp_victim(g):
    split = split_nodes(g, 0.2, 0.1, seed=0)
    model = build_submodel(SubModelSpec(kind="f-mlp", hyper=TrainHyper(epochs=20)), g)
    return train_submodel(model, labeled_map(g, split.labeled), seed=0)


@pytest.mark.parametrize("density", [0.05, 0.3], ids=["csr", "dense"])
def test_feature_flip_holds_one_gradient(density):
    g = _wide_graph(density)
    victim = _fmlp_victim(g)
    assert sp.issparse(victim.model.inputs) == (density < 0.2)
    n, m = g.X.shape
    targets = np.arange(600)
    attacked, peak = _traced_peak(feature_flip_attack, g, victim, 200, seed=0, targets=targets)
    assert int((attacked.X != g.X).sum()) == 200
    # the attacked X, t x m int8 flip signs, and one t x m gradient beside
    # the victim's target-row inputs
    t = targets.size
    assert peak <= n * m * 8 + t * m + 2 * t * m * 8 + 2**20


@pytest.mark.parametrize("density", [0.05, 0.3], ids=["csr", "dense"])
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
    attacked = feature_flip_attack(g, victim, 100, seed=0, targets=np.arange(300))
    assert attacked.X is handed[0]  # kept as the attack built it, not copied
    assert not attacked.X.flags.writeable
    assert int((attacked.X != X_before).sum()) == 100
    assert np.array_equal(g.X, X_before)
    assert victim.model.inputs is inputs
    if sp.issparse(inputs):
        assert (inputs != inputs_before).nnz == 0
    else:
        assert np.array_equal(inputs, inputs_before)
