"""Graph data model: adjacency math, synthetic generation, node splitting.

Graphs are undirected, unweighted, with real node features (a dense array
or a CSR matrix) and optional integer class labels. Instances are immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields, replace

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError, require_int, require_real
from .views import row_blocks

Edge = tuple[int, int]


def _freeze(a, dtype=None) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype)
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
    with zero diagonal. X has one row of finite values per node, stored as
    a read-only float64 array or, if sparse, canonical float64 CSR over
    read-only arrays. labels, when present, are class ids in [0, C), stored
    as a read-only int64 array. Either is kept as is when already so stored.
    """

    n: int
    edges: frozenset[Edge]
    X: np.ndarray | sp.csr_matrix
    labels: np.ndarray | None = None
    C: int | None = None

    def __post_init__(self):
        X = _frozen_csr(self.X) if sp.issparse(self.X) else _freeze(self.X, np.float64)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "edges", frozenset(self.edges))  # a frozenset is kept as is
        if self.n < 1:
            raise ValidationError(f"graph needs at least one node, got n={self.n}")
        if self.X.ndim != 2 or self.X.shape[0] != self.n or self.X.shape[1] < 1:
            raise ValidationError(
                f"feature matrix must be ({self.n}, m>=1), got {self.X.shape}"
            )
        if not np.isfinite(self.X.data if sp.issparse(self.X) else self.X).all():
            raise ValidationError("feature matrix holds NaN or infinite values")
        for pair in self.edges:
            i, j = _endpoints(pair)
            if not (0 <= i < j < self.n):
                raise ValidationError(f"edge ({i}, {j}) out of range for n={self.n}")
        if self.labels is not None:
            object.__setattr__(self, "labels", _freeze(self.labels, np.int64))
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
    silently discarded. X and labels are stored as Graph stores them. C
    defaults to one more than the largest label.
    """
    if labels is not None and C is None:
        labels = np.asarray(labels, dtype=np.int64)
        C = int(labels.max()) + 1 if labels.size else 0
    return Graph(n=int(n), edges=_edge_set(edges), X=X, labels=labels, C=C)


def _endpoints(pair) -> Edge:
    """pair as two int node ids. ValidationError names a pair that is not
    two integers: a float or bool endpoint would be cast to a node silently."""
    try:
        i, j = pair
        if type(i) is not bool and type(j) is not bool:
            return operator.index(i), operator.index(j)
    except (TypeError, ValueError):
        pass
    raise ValidationError(f"edge {pair!r} is not a pair of integer node ids")


def _edge_set(edges) -> frozenset[Edge]:
    norm: set[Edge] = set()
    for pair in edges:
        i, j = _endpoints(pair)
        if i == j:
            continue
        norm.add((i, j) if i < j else (j, i))
    return frozenset(norm)


def with_edges(g: Graph, edges) -> Graph:
    """Copy of g with a replaced edge set, normalized as make_graph does
    (features and labels shared)."""
    return replace(g, edges=_edge_set(edges))


def with_features(g: Graph, X) -> Graph:
    """Copy of g with a replaced feature matrix, stored as Graph stores it
    (edges and labels shared)."""
    return replace(g, X=X)


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


@dataclass(frozen=True)
class SyntheticSpec:
    """The parameters of one generate_synthetic graph, checked when built:
    integers n >= C >= 1, m >= 1 and seed >= 0, and real probabilities
    0 <= p_out < p_in <= 1 and feature_noise in [0, 1]."""

    n: int
    C: int
    p_in: float
    p_out: float
    m: int
    feature_noise: float
    seed: int

    def __post_init__(self):
        require_int("C", self.C, 1)
        require_int("n", self.n, self.C)
        require_int("m", self.m, 1)
        require_int("seed", self.seed, 0)
        for name in ("p_in", "p_out", "feature_noise"):
            require_real(name, getattr(self, name))
        if not (0.0 <= self.p_out < self.p_in <= 1.0):
            raise ValidationError(
                f"need 0 <= p_out < p_in <= 1, got p_in={self.p_in} p_out={self.p_out}"
            )
        if not (0.0 <= self.feature_noise <= 1.0):
            raise ValidationError(f"feature_noise must be a probability, got {self.feature_noise}")


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
    Deterministic for a fixed seed. The arguments are checked as
    SyntheticSpec checks them. The pairs (i < j) draw their uniforms in
    row-major order, one block of rows at a time (views.row_blocks), so no
    array over all n(n-1)/2 pairs is ever made.
    """
    SyntheticSpec(n, C, p_in, p_out, m, feature_noise, seed)

    rng = np.random.default_rng(seed)
    labels = np.arange(n, dtype=np.int64) % C

    nodes, heads, tails = np.arange(n), [], []
    for lo, hi in row_blocks(n, n):
        iu, ju = np.nonzero(nodes > nodes[lo:hi, None])
        iu += lo
        p = np.where(labels[iu] == labels[ju], p_in, p_out)
        keep = rng.random(iu.shape[0]) < p
        heads.append(iu[keep])
        tails.append(ju[keep])
    edges = zip(np.concatenate(heads).tolist(), np.concatenate(tails).tolist())

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
    """Disjoint, nonempty labeled/validation/test sets of node_ids over one graph.

    Every set must hold a node: training needs a labeled one, temperature
    fitting a validation one and evaluation a test one. class_histogram
    counts labels over the labeled set, as nonnegative integers; a class
    absent from it counts 0 there, and its pseudo-label quotas become zero.
    The four arrays are 1-D and stored read-only, a caller's writable array
    as a copy.
    """

    labeled: np.ndarray
    validation: np.ndarray
    test: np.ndarray
    class_histogram: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "class_histogram":
                value = np.asarray(value)
                if value.dtype.kind not in "iu" or (value < 0).any():
                    raise ValidationError(
                        f"class_histogram must hold nonnegative integers, got {value.tolist()!r}"
                    )
            else:
                value = node_ids(value)
            if value.ndim != 1:
                raise ValidationError(f"split {f.name} must be 1-D, got shape {value.shape}")
            object.__setattr__(self, f.name, _freeze(value))
        sets = (self.labeled, self.validation, self.test)
        sizes = dict(zip(("labeled", "validation", "test"), map(len, sets)))
        for name, size in sizes.items():
            if not size:
                shown = ", ".join(f"{k} {v}" for k, v in sizes.items())
                raise ValidationError(f"split has no {name} node ({shown})")
        if len(set().union(*(s.tolist() for s in sets))) != sum(sizes.values()):
            raise ValidationError("split sets must be pairwise disjoint")
        if int(self.class_histogram.sum()) != len(self.labeled):
            raise ValidationError("class_histogram must sum to the labeled-set size")


def node_ids(nodes) -> np.ndarray:
    """nodes as an int64 array. ValidationError unless a nonempty nodes
    holds integers: a float or bool id would be cast to a node silently."""
    nodes = np.asarray(nodes)
    if nodes.size and nodes.dtype.kind not in "iu":
        raise ValidationError(f"node ids must be integers, got {nodes.dtype}")
    return nodes.astype(np.int64, copy=False)


def split_nodes(g: Graph, train_frac: float, val_frac: float, seed: int) -> NodeSplit:
    """Seeded uniform split into labeled/validation/test index sets.

    Sizes are floor(frac * n); all remaining nodes go to the test set.
    NodeSplit refuses the split if any of the three sets is empty. The
    split is uniform random, not class-stratified.
    """
    require_real("train_frac", train_frac)
    require_real("val_frac", val_frac)
    if not (train_frac > 0 and val_frac > 0 and train_frac + val_frac <= 1):  # NaN fails
        raise ValidationError(
            f"fractions must be positive with sum <= 1, got {train_frac}, {val_frac}"
        )
    if g.labels is None:
        raise ValidationError("split_nodes requires a labeled graph")
    require_int("seed", seed, 0)
    n_train = int(train_frac * g.n)
    n_val = int(val_frac * g.n)

    rng = np.random.default_rng(seed)
    perm = rng.permutation(g.n)
    labeled = np.sort(perm[:n_train])
    validation = np.sort(perm[n_train : n_train + n_val])
    test = np.sort(perm[n_train + n_val :])

    hist = np.bincount(g.labels[labeled], minlength=g.C)
    return NodeSplit(labeled=labeled, validation=validation, test=test, class_histogram=hist)
