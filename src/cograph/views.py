"""The two orthogonal data views.

Feature view: a cosine-similarity kNN graph built from the node features.
Structure view: random-walk Laplacian eigenmaps of the adjacency matrix
(and of its squared, binarized form), concatenated into spectral node
coordinates. All functions are pure over immutable inputs. scipy's eigen
solvers are imported on first use, by the structure view's eigen solve,
so a process that builds no spectral view never maps them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import EigenSolverError, ValidationError, require_int

# above this size the shift-invert Lanczos path replaces the dense solver
DENSE_EIG_LIMIT = 1500
RESIDUAL_RTOL = 1e-6

# ~1MB of float64 scores per row block of the kNN build
_ROW_BLOCK_BUDGET = 125_000


@dataclass(frozen=True, eq=False)
class Embedding:
    """Real node coordinates derived from one view of the graph, with the
    eigenvalue of each coordinate column."""

    coords: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        if self.coords.ndim != 2 or self.coords.shape[1] < 1:
            raise ValidationError(f"embedding must be (n, d>=1), got {self.coords.shape}")
        if not np.isfinite(self.coords).all():
            raise ValidationError("embedding coordinates must be finite")

    @property
    def d(self) -> int:
        return self.coords.shape[1]


def row_blocks(n: int, width: int):
    """Consecutive (start, stop) row ranges of about _ROW_BLOCK_BUDGET entries."""
    step = max(1, _ROW_BLOCK_BUDGET // max(1, width))
    return ((start, min(n, start + step)) for start in range(0, n, step))


def knn_graph(X: np.ndarray | sp.spmatrix, k: int) -> sp.csr_matrix:
    """Binary adjacency connecting each node to its k most cosine-similar peers.

    Self-similarity is excluded; the per-node selections are symmetrized by
    union, and rows of all zeros score 0 against everything. X is a dense
    array or a sparse matrix of shape (n, m>=1) with finite values
    (ValidationError otherwise).

    Similarity ties break toward the smaller node index, exactly for rows
    whose nonzeros share one magnitude, such as binary rows: each row is
    divided by its largest magnitude, so co-occurrence counts C and squared
    lengths q are integers, and node i ranks j by the correctly rounded
    C_ij * |C_ij| / q_j, which maps equal cosines to equal floats and, for
    widths m up to 10^5, unequal ones to unequal floats.

    Working memory beyond X and the result: the scaled rows and their
    transpose as CSR, one row block of about _ROW_BLOCK_BUDGET dense scores
    with its partition and candidate arrays, and the n x k picks.
    """
    require_int("k", k, 1)
    if sp.issparse(X):
        P = sp.csr_matrix(X, dtype=np.float64, copy=True)
        P.sum_duplicates()
    else:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValidationError(f"features must be (n, m>=1), got {X.shape}")
        P = sp.csr_matrix(X)
    n, m = P.shape
    if m < 1:
        raise ValidationError(f"features must be (n, m>=1), got {P.shape}")
    if not np.isfinite(P.data).all():
        raise ValidationError("features hold NaN or infinite values")
    if k >= n:
        raise ValidationError(f"k must be < n, got k={k} n={n}")

    peak = abs(P).max(axis=1).toarray().ravel()
    P.data /= np.repeat(np.where(peak > 0, peak, 1.0), np.diff(P.indptr))
    q = np.asarray(P.power(2).sum(axis=1)).ravel()
    q[q == 0] = 1.0
    PT = P.T.tocsr()
    top = np.empty((n, k), dtype=np.int64)
    for lo, hi in row_blocks(n, n):
        # ascending key = descending cosine; the diagonal goes last
        key = (P[lo:hi] @ PT).toarray()
        key *= -np.abs(key)
        key /= q
        key[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        kth = np.partition(key, k - 1, axis=1)[:, k - 1 : k]
        # the candidates at or below each row's k-th key, by (row, key, column)
        rows, cols = np.nonzero(key <= kth)
        order = np.lexsort((cols, key[rows, cols], rows))
        counts = np.bincount(rows, minlength=hi - lo)
        top[lo:hi] = cols[order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]]
    # each row's picks, sorted, are a canonical CSR row of the directed graph
    top.sort(axis=1)
    D = sp.csr_matrix((np.ones(n * k), top.reshape(-1), np.arange(0, n * k + 1, k)), shape=(n, n))
    A = D + D.T
    A.data[:] = 1.0  # union, not sum
    return A


def _check_adjacency(A: sp.spmatrix) -> sp.csr_matrix:
    A = sp.csr_matrix(A, dtype=np.float64)
    if A.shape[0] != A.shape[1]:
        raise ValidationError(f"adjacency must be square, got {A.shape}")
    diff = A - A.T
    if diff.nnz and np.abs(diff.data).max() > 0:
        raise ValidationError("adjacency must be symmetric")
    if A.nnz and A.data.min() < 0:
        raise ValidationError("adjacency must be nonnegative")
    return A


def _canonical_signs(Y: np.ndarray) -> np.ndarray:
    """Flip each column so its first non-tiny coordinate is positive."""
    Y = Y.copy()
    for col in range(Y.shape[1]):
        v = Y[:, col]
        nz = np.flatnonzero(np.abs(v) > 1e-12)
        if nz.size and v[nz[0]] < 0:
            Y[:, col] = -v
    return Y


def _smallest_eigenpairs(A: sp.csr_matrix, num: int):
    """num smallest eigenpairs of L y = lam D y with zero degrees clamped to 1.

    Solved through the equivalent symmetric problem
    D^{-1/2} L D^{-1/2} z = lam z with y = D^{-1/2} z, which makes the
    returned vectors D-orthonormal by construction. The solvers are
    imported here, the one place that solves an eigenproblem.
    """
    import scipy.linalg
    import scipy.sparse.linalg as spla

    n = A.shape[0]
    deg = np.asarray(A.sum(axis=1)).ravel()
    mass = np.where(deg > 0, deg, 1.0)
    L = sp.diags(deg) - A
    inv_sqrt = 1.0 / np.sqrt(mass)
    C = sp.diags(inv_sqrt) @ L @ sp.diags(inv_sqrt)
    C = (C + C.T) * 0.5

    if n <= DENSE_EIG_LIMIT or num >= n - 1:
        w, Z = scipy.linalg.eigh(C.toarray())
        w, Z = w[:num], Z[:, :num]
    else:
        # deterministic start vector keeps Lanczos reproducible
        v0 = np.random.default_rng(0).standard_normal(n)
        w, Z = spla.eigsh(C.tocsc(), k=num, sigma=-1e-2, which="LM", v0=v0)
        order = np.argsort(w)
        w, Z = w[order], Z[:, order]

    w = np.where((w < 0) & (w > -1e-8), 0.0, w)
    Y = inv_sqrt[:, None] * Z

    LY = L @ Y
    MY = mass[:, None] * Y
    res = np.linalg.norm(LY - w[None, :] * MY, axis=0)
    bound = RESIDUAL_RTOL * np.linalg.norm(MY, axis=0)
    if np.any(res > bound):
        worst = float((res - bound).max())
        raise EigenSolverError(
            f"eigenpair residual exceeds {RESIDUAL_RTOL:g} * ||D y|| by {worst:g}"
        )
    return w, Y


def laplacian_eigenmaps(A: sp.spmatrix, k: int) -> Embedding:
    """Random-walk Laplacian spectral embedding of dimension k.

    Solves L y = lam D y for the k+1 smallest eigenvalues and drops the
    first eigenvector (the constant vector on a connected graph, which
    carries no discriminative signal). Further zero-eigenvalue vectors of a
    disconnected graph are retained: they encode component membership.
    Eigenvector signs are canonicalized (first nonzero coordinate positive)
    and eigenvalues are returned sorted nondecreasing.
    """
    require_int("k", k, 1)
    A = _check_adjacency(A)
    n = A.shape[0]
    if k >= n:
        raise ValidationError(f"k must be < n, got k={k} n={n}")
    w, Y = _smallest_eigenpairs(A, k + 1)
    return Embedding(
        coords=_canonical_signs(Y[:, 1:]),
        eigenvalues=w[1:],
    )


def squared_adjacency(A: sp.spmatrix) -> sp.csr_matrix:
    """A @ A with the diagonal zeroed, binarized to a plain adjacency."""
    A = _check_adjacency(A)
    A2 = (A @ A).tocsr()
    A2.setdiag(0)
    A2.eliminate_zeros()
    A2.data[:] = 1.0
    return A2


def smlp_features(A: sp.spmatrix, k: int) -> Embedding:
    """Width-2k structure embedding: eigenmaps of A alongside eigenmaps of A^2."""
    one_hop = laplacian_eigenmaps(A, k)
    two_hop = laplacian_eigenmaps(squared_adjacency(A), k)
    return Embedding(
        coords=np.hstack([one_hop.coords, two_hop.coords]),
        eigenvalues=np.concatenate([one_hop.eigenvalues, two_hop.eigenvalues]),
    )
