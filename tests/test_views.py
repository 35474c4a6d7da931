import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cograph import ValidationError, knn_graph, laplacian_eigenmaps, smlp_features
from cograph.graph import adjacency, make_graph
from cograph.views import squared_adjacency
from helpers import cosine_similarity


def graph_of(n, edges):
    return make_graph(n, edges, np.eye(n))


# --- kNN feature graph ---------------------------------------------------


def test_identical_rows_have_similarity_one():
    X = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    assert cosine_similarity(X)[0, 1] == pytest.approx(1.0)


def test_orthogonal_one_hot_rows_have_similarity_zero():
    S = cosine_similarity(np.eye(4))
    off_diag = S - np.diag(np.diag(S))
    assert np.abs(off_diag).max() == 0.0


def test_knn_graph_hand_example():
    # brute-force oracle over all 6 pairwise cosines picks (0,1) and (2,3)
    X = np.array([[1, 0], [1, 0.1], [0, 1], [0.1, 1]], dtype=float)
    sims = {}
    for i in range(4):
        for j in range(i + 1, 4):
            sims[(i, j)] = X[i] @ X[j] / (np.linalg.norm(X[i]) * np.linalg.norm(X[j]))
    assert max(sims, key=sims.get) in {(0, 1), (2, 3)}

    A = knn_graph(X, 1)
    got = {(min(i, j), max(i, j)) for i, j in zip(*A.nonzero())}
    assert got == {(0, 1), (2, 3)}


def test_knn_graph_symmetric_binary(attack_graph):
    A = knn_graph(attack_graph.X, 5)
    assert (A != A.T).nnz == 0
    assert set(np.unique(A.data)) == {1.0}
    assert A.diagonal().max() == 0.0


def test_knn_graph_rejects_large_k():
    with pytest.raises(ValidationError):
        knn_graph(np.eye(3), 3)
    with pytest.raises(ValidationError):
        knn_graph(np.eye(3), 0)


def test_knn_scaling_invariance(rng):
    X = rng.random((30, 8)) + 0.1
    scale = rng.uniform(0.5, 10.0, size=30)
    A1 = knn_graph(X, 4)
    A2 = knn_graph(X * scale[:, None], 4)
    assert (A1 != A2).nnz == 0


def test_knn_tie_break_prefers_smaller_index():
    # rows 1, 2, 3 identical; node 0's single neighbor must be node 1
    X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    A = knn_graph(X, 1)
    assert A[0, 1] == 1.0 and A[0, 2] == 0.0 and A[0, 3] == 0.0


def test_knn_zero_row_defined_as_zero_similarity():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    S = cosine_similarity(X)
    assert np.abs(S[0]).max() == 0.0
    knn_graph(X, 1)  # still well-defined, no NaNs


def test_cosine_of_tiny_rows_stays_unit():
    # squared norm of these rows is subnormal; identical rows must score 1
    X = np.full((3, 2), 5.5368726e-159)
    assert np.abs(cosine_similarity(X) - 1.0).max() <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(3, 8), st.integers(2, 5)),
        elements=st.floats(0.0, 5.0, allow_nan=False),
    )
)
def test_cosine_bounds(X):
    S = cosine_similarity(X)
    assert np.all(S <= 1.0 + 1e-9)
    assert np.all(S >= -1e-9)  # nonnegative features
    assert np.abs(S - S.T).max() <= 1e-12


# --- Laplacian eigenmaps -------------------------------------------------


def test_path_graph_spectrum():
    g = graph_of(3, [(0, 1), (1, 2)])
    A = adjacency(g).toarray()
    D = np.diag(A.sum(axis=1))
    # oracle: full random-walk spectrum of P3 is {0, 1, 2}
    w = np.sort(np.linalg.eigvals(np.linalg.inv(D) @ (D - A)).real)
    assert w == pytest.approx([0.0, 1.0, 2.0], abs=1e-9)

    emb = laplacian_eigenmaps(adjacency(g), 2)
    assert emb.eigenvalues == pytest.approx([1.0, 2.0], abs=1e-9)


def test_connected_graph_first_eigenvalue_zero_constant_vector(easy_graph):
    A = adjacency(easy_graph)
    from cograph.views import _smallest_eigenpairs

    w, Y = _smallest_eigenpairs(A, 3)
    assert w[0] == pytest.approx(0.0, abs=1e-9)
    v = Y[:, 0]
    assert np.abs(v - v[0]).max() <= 1e-8  # constant eigenvector


def test_two_triangles_two_zero_eigenvalues():
    g = graph_of(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    A = adjacency(g).toarray()
    D = np.diag(A.sum(axis=1))
    w = np.sort(np.linalg.eigvals(np.linalg.inv(D) @ (D - A)).real)
    assert (np.abs(w) < 1e-9).sum() == 2  # one zero per component

    emb = laplacian_eigenmaps(adjacency(g), 3)
    # the second zero (component indicator) is retained after the drop
    assert (np.abs(emb.eigenvalues) < 1e-9).sum() == 1


def test_eigen_residual_contract(attack_graph):
    A = adjacency(attack_graph)
    emb = laplacian_eigenmaps(A, 10)
    deg = np.asarray(A.sum(axis=1)).ravel()
    mass = np.where(deg > 0, deg, 1.0)
    L = np.diag(deg) - A.toarray()
    for lam, y in zip(emb.eigenvalues, emb.coords.T):
        res = np.linalg.norm(L @ y - lam * mass * y)
        assert res <= 1e-6 * np.linalg.norm(mass * y)


def test_eigenvalues_sorted_and_in_range(attack_graph):
    emb = laplacian_eigenmaps(adjacency(attack_graph), 12)
    w = emb.eigenvalues
    assert np.all(np.diff(w) >= -1e-12)
    assert w.min() >= -1e-9 and w.max() <= 2.0 + 1e-9


def test_eigenvectors_d_orthonormal(attack_graph):
    A = adjacency(attack_graph)
    deg = np.asarray(A.sum(axis=1)).ravel()
    mass = np.where(deg > 0, deg, 1.0)
    emb = laplacian_eigenmaps(A, 8)
    G = emb.coords.T @ (mass[:, None] * emb.coords)
    assert np.abs(G - np.eye(8)).max() <= 1e-8


def test_sign_canonicalization_deterministic(easy_graph):
    A = adjacency(easy_graph)
    a = laplacian_eigenmaps(A, 5)
    b = laplacian_eigenmaps(A, 5)
    assert np.array_equal(a.coords, b.coords)
    for col in a.coords.T:
        first = col[np.abs(col) > 1e-12][0]
        assert first > 0


def test_eigenmaps_rejects_bad_k():
    g = graph_of(3, [(0, 1), (1, 2)])
    with pytest.raises(ValidationError):
        laplacian_eigenmaps(adjacency(g), 3)
    with pytest.raises(ValidationError):
        laplacian_eigenmaps(adjacency(g), 0)


def test_eigenmaps_rejects_asymmetric():
    import scipy.sparse as sp

    A = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        laplacian_eigenmaps(A, 1)


def test_zero_degree_nodes_clamped_and_recorded():
    g = graph_of(4, [(0, 1)])  # nodes 2, 3 isolated
    emb = laplacian_eigenmaps(adjacency(g), 2)
    assert np.isfinite(emb.coords).all()
    # three components: the two eigenvectors kept past the first have lam = 0
    assert np.abs(emb.eigenvalues).max() <= 1e-12


# --- concatenated structure features --------------------------------------


def test_squared_adjacency_triangle_equals_original():
    g = graph_of(3, [(0, 1), (1, 2), (0, 2)])
    A = adjacency(g)
    assert (squared_adjacency(A) != A).nnz == 0


def test_smlp_width_is_2k(easy_graph):
    emb = smlp_features(adjacency(easy_graph), 7)
    assert emb.d == 14
    assert emb.eigenvalues.shape == (14,)


def test_smlp_triangle_halves_agree():
    g = graph_of(3, [(0, 1), (1, 2), (0, 2)])
    emb = smlp_features(adjacency(g), 1)
    # A^2 (diagonal zeroed) equals A, and signs are canonicalized
    assert emb.coords[:, 0] == pytest.approx(emb.coords[:, 1])


def test_smlp_edgeless_graph_degenerates_to_indicators():
    g = graph_of(4, [])
    emb = smlp_features(adjacency(g), 2)
    assert emb.d == 4
    assert np.abs(emb.eigenvalues).max() <= 1e-12


def _with(value):
    X = np.ones((30, 5))
    X[3, 2] = value
    return X


@pytest.mark.parametrize(
    "X",
    [
        np.full((30, 5), np.nan),
        _with(np.nan),
        _with(np.inf),
        _with(-np.inf),
        sp.csr_matrix(np.eye(30, 5)),
        np.ones(30),
        np.ones((30, 0)),
    ],
    ids=["all-nan", "one-nan", "inf", "minus-inf", "csr", "1-d", "zero-width"],
)
@pytest.mark.parametrize("view", [lambda X: knn_graph(X, 3), cosine_similarity], ids=["knn", "cosine"])
def test_feature_views_reject_bad_features_at_the_boundary(view, X):
    with pytest.raises(ValidationError, match="features"):
        view(X)
