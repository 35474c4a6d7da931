"""Graph data model: adjacency math, synthetic generation, node splitting.

Graphs are undirected, unweighted, with real node features (a dense array
or a CSR matrix) and optional integer class labels. Instances are immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError, require_int, require_real

Edge = tuple[int, int]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    if a.flags.writeable:
        a = a.copy()  # never flip flags on a caller's array
        a.flags.writeable = False
    return a


def _frozen_csr(X) -> sp.csr_matrix:
    """X as canonical float64 CSR (sorted indices, no duplicates, no stored
    zeros) over read-only arrays; kept as is if it already is one."""
    if (
        isinstance(X, sp.csr_matrix)
        and X.dtype == np.float64
        and not any(a.flags.writeable for a in (X.data, X.indices, X.indptr))
        and X.has_canonical_format
        and np.count_nonzero(X.data) == X.nnz
    ):
        return X
    X = sp.csr_matrix(X, dtype=np.float64, copy=True)  # never flip flags on a caller's arrays
    X.sum_duplicates()
    X.eliminate_zeros()
    for a in (X.data, X.indices, X.indptr):
        a.flags.writeable = False
    return X


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected graph with node features and optional labels.

    edges holds pairs (i, j) with i < j; the implied adjacency is symmetric
    with zero diagonal. X has one row of finite values per node, as a dense
    array or, from make_graph, a canonical CSR matrix. labels, when
    present, are class ids in [0, C).
    """

    n: int
    edges: frozenset[Edge]
    X: np.ndarray | sp.csr_matrix
    labels: np.ndarray | None = None
    C: int | None = None
    # private to this module: True when X is the X of a graph already built,
    # whose values were checked then (with_edges, with_features)
    _X_checked: InitVar[bool] = False

    def __post_init__(self, _X_checked):
        if self.n < 1:
            raise ValidationError(f"graph needs at least one node, got n={self.n}")
        if self.X.ndim != 2 or self.X.shape[0] != self.n or self.X.shape[1] < 1:
            raise ValidationError(
                f"feature matrix must be ({self.n}, m>=1), got {self.X.shape}"
            )
        if not _X_checked and not np.isfinite(self.X.data if sp.issparse(self.X) else self.X).all():
            raise ValidationError("feature matrix holds NaN or infinite values")
        for i, j in self.edges:
            if not (0 <= i < j < self.n):
                raise ValidationError(f"edge ({i}, {j}) out of range for n={self.n}")
        if self.labels is not None:
            if self.labels.shape != (self.n,):
                raise ValidationError(
                    f"labels must have shape ({self.n},), got {self.labels.shape}"
                )
            if self.C is None or self.C < 1:
                raise ValidationError("labeled graph requires a positive class count")
            if self.labels.min() < 0 or self.labels.max() >= self.C:
                raise ValidationError(
                    f"labels must lie in [0, {self.C}), got range "
                    f"[{self.labels.min()}, {self.labels.max()}]"
                )

    @property
    def m(self) -> int:
        return self.X.shape[1]

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def make_graph(n, edges, X, labels=None, C=None) -> Graph:
    """Build a Graph, normalizing the edge set.

    Input pairs are symmetrized by union (both (i,j) and (j,i) collapse to
    one undirected edge), duplicates are dropped, and self-loops are
    silently discarded. A sparse X is stored as canonical float64 CSR with
    read-only arrays, any other X as a read-only float64 array.
    """
    edges, X = _edge_set(edges), _frozen_features(X)
    if labels is not None:
        labels = _freeze(np.asarray(labels, dtype=np.int64))
        if C is None:
            C = int(labels.max()) + 1 if labels.size else 0
    return Graph(n=int(n), edges=edges, X=X, labels=labels, C=C)


def _edge_set(edges) -> frozenset[Edge]:
    norm: set[Edge] = set()
    for i, j in edges:
        i, j = int(i), int(j)
        if i == j:
            continue
        norm.add((i, j) if i < j else (j, i))
    return frozenset(norm)


def _frozen_features(X):
    return _frozen_csr(X) if sp.issparse(X) else _freeze(np.asarray(X, dtype=np.float64))


def with_edges(g: Graph, edges) -> Graph:
    """Copy of g with a replaced edge set, normalized as make_graph does
    (features and labels shared; g's X is not checked again)."""
    return Graph(g.n, _edge_set(edges), g.X, g.labels, g.C, _X_checked=True)


def with_features(g: Graph, X) -> Graph:
    """Copy of g with a replaced feature matrix, stored as make_graph
    stores it (edges and labels shared). X is checked unless it is g's."""
    X = _frozen_features(X)
    return Graph(g.n, g.edges, X, g.labels, g.C, _X_checked=X is g.X)


def edge_array(g: Graph) -> np.ndarray:
    """Edges as a sorted (|E|, 2) int array; deterministic order."""
    if not g.edges:
        return np.zeros((0, 2), dtype=np.int64)
    return np.array(sorted(g.edges), dtype=np.int64)


def adjacency(g: Graph) -> sp.csr_matrix:
    """Binary symmetric adjacency matrix A in CSR form."""
    e = edge_array(g)
    rows = np.concatenate([e[:, 0], e[:, 1]])
    cols = np.concatenate([e[:, 1], e[:, 0]])
    data = np.ones(rows.shape[0], dtype=np.float64)
    return sp.csr_matrix((data, (rows, cols)), shape=(g.n, g.n))


def normalize_adjacency_matrix(A: sp.spmatrix) -> sp.csr_matrix:
    """Self-loop-augmented symmetric normalization of an adjacency matrix.

    Returns D~^{-1/2} (A + I) D~^{-1/2} where D~ is the degree matrix of
    A + I. Entries are computed as d_i^{-1/2} * a_ij * d_j^{-1/2}, which
    keeps the result exactly symmetric. Self-loops guarantee every degree
    is at least 1, so no division by zero can occur.
    """
    n = A.shape[0]
    A_tilde = (A + sp.identity(n, format="csr", dtype=np.float64)).tocoo()
    deg = np.asarray(A_tilde.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(deg)
    data = inv_sqrt[A_tilde.row] * A_tilde.data * inv_sqrt[A_tilde.col]
    return sp.csr_matrix((data, (A_tilde.row, A_tilde.col)), shape=(n, n))


def normalized_adjacency(g: Graph) -> sp.csr_matrix:
    """Normalized adjacency with self-loops used by graph convolutions."""
    return normalize_adjacency_matrix(adjacency(g))


def generate_synthetic(
    n: int,
    C: int,
    p_in: float,
    p_out: float,
    m: int,
    feature_noise: float,
    seed: int,
) -> Graph:
    """Planted-partition graph with class-correlated binary features.

    Nodes take classes round-robin. Intra-class pairs connect with
    probability p_in, inter-class pairs with p_out. Each node's feature
    vector is the indicator of its class's m//C-wide column block, with
    every bit independently flipped with probability feature_noise.
    Deterministic for a fixed seed.
    """
    require_int("C", C, 1)
    require_int("n", n, C)
    require_int("m", m, 1)
    require_int("seed", seed, 0)
    for name, value in (("p_in", p_in), ("p_out", p_out), ("feature_noise", feature_noise)):
        require_real(name, value)
    if not (0.0 <= p_out < p_in <= 1.0):
        raise ValidationError(f"need 0 <= p_out < p_in <= 1, got p_in={p_in} p_out={p_out}")
    if not (0.0 <= feature_noise <= 1.0):
        raise ValidationError(f"feature_noise must be a probability, got {feature_noise}")

    rng = np.random.default_rng(seed)
    labels = np.arange(n, dtype=np.int64) % C

    iu, ju = np.triu_indices(n, k=1)
    p = np.where(labels[iu] == labels[ju], p_in, p_out)
    keep = rng.random(iu.shape[0]) < p
    edges = zip(iu[keep].tolist(), ju[keep].tolist())

    width = m // C
    X = np.zeros((n, m), dtype=np.float64)
    for c in range(C):
        X[labels == c, c * width : (c + 1) * width] = 1.0
    if feature_noise > 0.0:
        flips = rng.random((n, m)) < feature_noise
        X = np.where(flips, 1.0 - X, X)

    return make_graph(n, edges, X, labels, C)


@dataclass(frozen=True, eq=False)
class NodeSplit:
    """Disjoint labeled/validation/test index sets over one graph.

    class_histogram counts labels over the labeled set; a class absent
    from it counts 0 there, and its pseudo-label quotas become zero.
    """

    labeled: np.ndarray
    validation: np.ndarray
    test: np.ndarray
    class_histogram: np.ndarray

    def __post_init__(self):
        parts = [set(self.labeled.tolist()), set(self.validation.tolist()), set(self.test.tolist())]
        total = len(self.labeled) + len(self.validation) + len(self.test)
        if len(parts[0] | parts[1] | parts[2]) != total:
            raise ValidationError("split sets must be pairwise disjoint")
        if int(self.class_histogram.sum()) != len(self.labeled):
            raise ValidationError("class_histogram must sum to the labeled-set size")


def split_nodes(g: Graph, train_frac: float, val_frac: float, seed: int) -> NodeSplit:
    """Seeded uniform split into labeled/validation/test index sets.

    Sizes are floor(frac * n); all remaining nodes go to the test set,
    which must not be empty. The split is uniform random, not
    class-stratified.
    """
    if not (train_frac > 0 and val_frac > 0 and train_frac + val_frac <= 1):  # NaN fails
        raise ValidationError(
            f"fractions must be positive with sum <= 1, got {train_frac}, {val_frac}"
        )
    if g.labels is None:
        raise ValidationError("split_nodes requires a labeled graph")
    require_int("seed", seed, 0)
    n_train = int(train_frac * g.n)
    n_val = int(val_frac * g.n)
    if n_train + n_val >= g.n:
        raise ValidationError(f"fractions {train_frac}, {val_frac} leave no test node of {g.n}")

    rng = np.random.default_rng(seed)
    perm = rng.permutation(g.n)
    labeled = np.sort(perm[:n_train])
    validation = np.sort(perm[n_train : n_train + n_val])
    test = np.sort(perm[n_train + n_val :])

    hist = np.bincount(g.labels[labeled], minlength=g.C)
    return NodeSplit(
        labeled=_freeze(labeled),
        validation=_freeze(validation),
        test=_freeze(test),
        class_histogram=_freeze(hist),
    )
