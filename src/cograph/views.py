"""The two orthogonal data views.

Feature view: a cosine-similarity kNN graph built from the node features.
Structure view: random-walk Laplacian eigenmaps of the adjacency matrix
(and of its squared, binarized form), concatenated into spectral node
coordinates. All functions are pure over immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import EigenSolverError, ValidationError

# above this size the shift-invert Lanczos path replaces the dense solver
DENSE_EIG_LIMIT = 1500
RESIDUAL_RTOL = 1e-6

# ~64MB of float64 similarity scores per chunk; the chunk is the kNN
# graph's whole transient, beside the n x m unit rows and the k-per-row picks
_KNN_CHUNK_BUDGET = 8_000_000
# ~1MB of temporaries per row block of the norms and the neighbour sort
_ROW_BLOCK_BUDGET = _KNN_CHUNK_BUDGET // 64


@dataclass(frozen=True, eq=False)
class Embedding:
    """Real node coordinates derived from one view of the graph.

    eigenvalues accompany spectral sources; clamped lists nodes whose zero
    degree was clamped to 1 in the mass matrix before solving.
    """

    coords: np.ndarray
    source: str
    eigenvalues: np.ndarray | None = None
    clamped: tuple[int, ...] = ()

    def __post_init__(self):
        if self.coords.ndim != 2 or self.coords.shape[1] < 1:
            raise ValidationError(f"embedding must be (n, d>=1), got {self.coords.shape}")
        if not np.isfinite(self.coords).all():
            raise ValidationError("embedding coordinates must be finite")

    @property
    def d(self) -> int:
        return self.coords.shape[1]


def _row_blocks(n: int, width: int):
    """Consecutive (start, stop) row ranges of about _ROW_BLOCK_BUDGET entries."""
    step = max(1, _ROW_BLOCK_BUDGET // max(1, width))
    return ((start, min(n, start + step)) for start in range(0, n, step))


def _unit_rows(X) -> np.ndarray:
    """Rows scaled to unit length; rows of all zeros stay zero.

    X must be a dense 2-D array of finite values with at least one column;
    anything else raises ValidationError. Each row is first divided by its
    largest magnitude so the squared norm cannot underflow into the
    subnormal range, where it loses precision and the "unit" rows come out
    longer than 1. Only the n x m result is allocated whole.
    """
    if sp.issparse(X):
        raise ValidationError("features must be a dense array, got a sparse matrix")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValidationError(f"features must be (n, m>=1), got {X.shape}")
    # NaN and +-inf propagate into the row peak, so it doubles as the check
    peak = np.maximum(X.max(axis=1), -X.min(axis=1))
    if not np.isfinite(peak).all():
        raise ValidationError("features hold NaN or infinite values")
    Xs = X / np.where(peak > 0, peak, 1.0)[:, None]
    norms = np.empty(X.shape[0])
    for start, stop in _row_blocks(*X.shape):
        norms[start:stop] = np.linalg.norm(Xs[start:stop], axis=1)
    Xs /= np.where(norms > 0, norms, 1.0)[:, None]
    return Xs


def cosine_similarity(X: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity; rows of all zeros score 0 against everything.

    X must be a dense (n, m>=1) array of finite values (ValidationError
    otherwise).
    """
    Xn = _unit_rows(X)
    return Xn @ Xn.T


def knn_graph(X: np.ndarray, k: int) -> sp.csr_matrix:
    """Binary adjacency connecting each node to its k most cosine-similar peers.

    Self-similarity is excluded; the per-node selections are symmetrized by
    union. Similarity ties break toward the smaller node index. X must be a
    dense (n, m>=1) array of finite values (ValidationError otherwise).

    Working memory beyond X and the result: the n x m unit rows, one chunk
    of about _KNN_CHUNK_BUDGET similarity scores (n x n while n^2 fits in
    it), a row block of the neighbour sort and the n x k picks.
    """
    Xn = _unit_rows(X)
    n = Xn.shape[0]
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if k >= n:
        raise ValidationError(f"k must be < n, got k={k} n={n}")

    top = np.empty((n, k), dtype=np.int64)
    chunk = max(1, _KNN_CHUNK_BUDGET // n)
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        sims = Xn[start:stop] @ Xn.T
        sims[np.arange(stop - start), np.arange(start, stop)] = -np.inf
        # stable argsort on -sims keeps ascending index order within ties
        np.negative(sims, out=sims)
        for lo, hi in _row_blocks(stop - start, n):
            top[start + lo : start + hi] = np.argsort(sims[lo:hi], axis=1, kind="stable")[:, :k]
        del sims  # free this chunk before the next product allocates its own
    src = np.repeat(np.arange(n), k)
    dst = top.reshape(-1)

    rows = np.concatenate([src, dst])
    cols = np.concatenate([dst, src])
    A = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
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
    returned vectors D-orthonormal by construction.
    """
    n = A.shape[0]
    deg = np.asarray(A.sum(axis=1)).ravel()
    clamped = tuple(int(i) for i in np.flatnonzero(deg == 0))
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
    return w, Y, clamped


def laplacian_eigenmaps(A: sp.spmatrix, k: int, source: str = "eigenmap-A") -> Embedding:
    """Random-walk Laplacian spectral embedding of dimension k.

    Solves L y = lam D y for the k+1 smallest eigenvalues and drops the
    first eigenvector (the constant vector on a connected graph, which
    carries no discriminative signal). Further zero-eigenvalue vectors of a
    disconnected graph are retained: they encode component membership.
    Eigenvector signs are canonicalized (first nonzero coordinate positive)
    and eigenvalues are returned sorted nondecreasing.
    """
    A = _check_adjacency(A)
    n = A.shape[0]
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if k >= n:
        raise ValidationError(f"k must be < n, got k={k} n={n}")
    w, Y, clamped = _smallest_eigenpairs(A, k + 1)
    return Embedding(
        coords=_canonical_signs(Y[:, 1:]),
        source=source,
        eigenvalues=w[1:],
        clamped=clamped,
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
    one_hop = laplacian_eigenmaps(A, k, source="eigenmap-A")
    two_hop = laplacian_eigenmaps(squared_adjacency(A), k, source="eigenmap-A2")
    return Embedding(
        coords=np.hstack([one_hop.coords, two_hop.coords]),
        source="eigenmap-A+eigenmap-A2",
        eigenvalues=np.concatenate([one_hop.eigenvalues, two_hop.eigenvalues]),
        clamped=tuple(sorted(set(one_hop.clamped) | set(two_hop.clamped))),
    )
