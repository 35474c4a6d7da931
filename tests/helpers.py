"""Shared test utilities."""

from dataclasses import replace

import numpy as np
import scipy.sparse as sp

from cograph.errors import ValidationError
from cograph.graph import Graph, make_graph
from cograph.models import predict_logits


def truth(g: Graph, nodes):
    """The (nodes, targets) train_submodel takes: the ids and their true labels."""
    nodes = np.asarray(nodes, dtype=np.int64)
    return nodes, g.labels[nodes]


def with_inputs(trained, inputs):
    """The trained model with its sub-model's input matrix swapped."""
    return replace(trained, model=replace(trained.model, inputs=inputs))


def accuracy(trained, nodes, labels) -> float:
    """Fraction of nodes whose argmax logit matches the given labels."""
    pred = predict_logits(trained, nodes).argmax(axis=1)
    return float((pred == np.asarray(labels)).mean())


def unit_rows(X) -> np.ndarray:
    """Rows scaled to unit length; rows of all zeros stay zero.

    X must be a dense (n, m>=1) array of finite values (ValidationError
    otherwise). Each row is first divided by its largest magnitude, so the
    squared norm of a tiny row cannot underflow into the subnormal range.
    """
    if sp.issparse(X):
        raise ValidationError("features must be a dense array, got a sparse matrix")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValidationError(f"features must be (n, m>=1), got {X.shape}")
    peak = np.abs(X).max(axis=1)  # NaN and +-inf propagate into the peak
    if not np.isfinite(peak).all():
        raise ValidationError("features hold NaN or infinite values")
    Xs = X / np.where(peak > 0, peak, 1.0)[:, None]
    norms = np.linalg.norm(Xs, axis=1)
    return Xs / np.where(norms > 0, norms, 1.0)[:, None]


def cosine_similarity(X: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity of unit_rows(X): the reference for the kNN
    view's ranking; rows of all zeros score 0 against everything."""
    Xn = unit_rows(X)
    return Xn @ Xn.T


def merge_classes(g: Graph, mapping: dict[int, int]) -> Graph:
    """Relabel classes to build imbalanced fixtures (e.g. a dominant class)."""
    new_labels = np.array([mapping[int(c)] for c in g.labels])
    return make_graph(g.n, g.edges, g.X, new_labels, max(mapping.values()) + 1)


def components_cover(g: Graph) -> float:
    """Fraction of nodes in the largest connected component (BFS oracle)."""
    adj = {i: [] for i in range(g.n)}
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = np.zeros(g.n, dtype=bool)
    best = 0
    for start in range(g.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        size = 0
        while stack:
            u = stack.pop()
            size += 1
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        best = max(best, size)
    return best / g.n


def graphs_equal(a: Graph, b: Graph) -> bool:
    """Exact (bitwise) equality of two graphs."""
    if a.n != b.n or a.edges != b.edges or a.C != b.C:
        return False
    return np.array_equal(a.X, b.X) and np.array_equal(a.labels, b.labels)


def finite_diff_check(loss_fn, grad_fn, params: dict[str, np.ndarray], eps: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_fn maps a parameter dict to a scalar; grad_fn returns the analytic
    gradient dict. The forward must be deterministic (dropout off) and
    smooth at the probe point; ReLU models should be probed away from
    kinks. Relative error uses max(|a|, |b|, 1e-6) as denominator.
    """
    analytic = grad_fn(params)
    worst = 0.0
    work = {k: v.copy() for k, v in params.items()}
    for name, p in work.items():
        flat = p.reshape(-1)
        g_flat = analytic[name].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = loss_fn(work)
            flat[idx] = orig - eps
            down = loss_fn(work)
            flat[idx] = orig
            fd = (up - down) / (2.0 * eps)
            denom = max(abs(fd), abs(g_flat[idx]), 1e-6)
            worst = max(worst, abs(fd - g_flat[idx]) / denom)
    return worst
