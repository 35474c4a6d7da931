"""Seeded benchmark inputs.

The Cora-statistics generator lives here rather than in the library so the
library under test only ever sees the arrays it would get from a loader.
It is O(E): edges are drawn pair by pair from a planted partition instead
of scoring all n(n-1)/2 pairs, so a larger scale point needs no
``triu_indices``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Cora: 2708 papers, 7 topics, 1433-word vocabulary, class sizes below.
CORA_CLASS_SIZES = (818, 426, 418, 351, 298, 217, 180)
CORA_WORDS = 1433
CORA_AVG_DEGREE = 3.9
CORA_HOMOPHILY = 0.75
CORA_WORDS_PER_NODE = 18
CORA_TOPIC_SHARE = 0.25

# the test suite's attack fixture (tests/conftest.py ATTACK_PARAMS, minus seed)
SWEEP_PARAMS = dict(n=400, C=4, p_in=0.06, p_out=0.02, m=40, feature_noise=0.2)


def derive_seed(seed: int, role: int) -> int:
    """Independent 32-bit seed for one use of the run seed."""
    return int(np.random.SeedSequence((seed, role)).generate_state(1)[0])


@dataclass(frozen=True)
class CoraLike:
    """Raw arrays for make_graph: n, (E, 2) edge pairs, dense X, labels."""

    n: int
    edges: np.ndarray
    X: np.ndarray
    labels: np.ndarray
    C: int


def _distinct_pairs(rng, want: int, draw, seen: set) -> list[tuple[int, int]]:
    """want new unordered pairs from draw(k) -> (i, j) arrays, skipping
    self-loops and pairs already in seen."""
    out: list[tuple[int, int]] = []
    while len(out) < want:
        i, j = draw(2 * (want - len(out)) + 16)
        for a, b in zip(i.tolist(), j.tolist()):
            if a == b:
                continue
            pair = (a, b) if a < b else (b, a)
            if pair in seen:
                continue
            seen.add(pair)
            out.append(pair)
            if len(out) == want:
                break
    return out


def cora_like(seed: int) -> CoraLike:
    """Planted-partition graph with Cora's size, class mix and sparsity.

    Class sizes follow Cora and are assigned to shuffled node ids. A share
    CORA_HOMOPHILY of the n * CORA_AVG_DEGREE / 2 edges join two nodes of
    one class (class chosen by its share of nodes, so every node expects
    the same degree and isolated nodes stay near n * exp(-degree)), the
    rest join two nodes of different classes. Each node draws
    CORA_WORDS_PER_NODE words with replacement: with probability
    CORA_TOPIC_SHARE from its class's block of the vocabulary, otherwise
    uniformly from the whole vocabulary.
    """
    rng = np.random.default_rng(seed)
    C = len(CORA_CLASS_SIZES)
    n = sum(CORA_CLASS_SIZES)
    labels = rng.permutation(np.repeat(np.arange(C), CORA_CLASS_SIZES)).astype(np.int64)
    by_class = np.argsort(labels, kind="stable")  # node ids grouped by class
    sizes = np.array(CORA_CLASS_SIZES, dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])

    n_edges = round(n * CORA_AVG_DEGREE / 2)
    n_intra = round(CORA_HOMOPHILY * n_edges)
    class_p = sizes / sizes.sum()  # equal expected intra-class degree in every class

    def draw_intra(k):
        cls = rng.choice(C, size=k, p=class_p)
        i = by_class[starts[cls] + rng.integers(sizes[cls])]
        j = by_class[starts[cls] + rng.integers(sizes[cls])]
        return i, j

    def draw_inter(k):
        i = rng.integers(n, size=k)
        j = rng.integers(n, size=k)
        keep = labels[i] != labels[j]
        return i[keep], j[keep]

    seen: set[tuple[int, int]] = set()
    pairs = _distinct_pairs(rng, n_intra, draw_intra, seen)
    pairs += _distinct_pairs(rng, n_edges - n_intra, draw_inter, seen)
    edges = np.array(pairs, dtype=np.int64)

    block = CORA_WORDS // C
    draws = n * CORA_WORDS_PER_NODE
    owner = np.repeat(np.arange(n), CORA_WORDS_PER_NODE)
    topical = rng.random(draws) < CORA_TOPIC_SHARE
    words = np.where(
        topical,
        labels[owner] * block + rng.integers(block, size=draws),
        rng.integers(CORA_WORDS, size=draws),
    )
    X = np.zeros((n, CORA_WORDS), dtype=np.float64)
    X[owner, words] = 1.0
    return CoraLike(n=n, edges=edges, X=X, labels=labels, C=C)


def graph_stats(g) -> dict:
    """Realized edge count, feature density, components and homophily."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    e = np.array(sorted(g.edges), dtype=np.int64).reshape(-1, 2)
    A = sp.coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])), shape=(g.n, g.n))
    n_comp, _ = connected_components(A, directed=False)
    same = g.labels[e[:, 0]] == g.labels[e[:, 1]] if len(e) else np.zeros(0, bool)
    return {
        "n": g.n,
        "classes": g.C,
        "edges": len(e),
        "avg_degree": 2 * len(e) / g.n,
        "homophily": float(same.mean()) if len(e) else 0.0,
        "components": int(n_comp),
        "features": g.m,
        "feature_density": float(np.count_nonzero(g.X) / g.X.size),
        "words_per_node": float(np.count_nonzero(g.X) / g.n),
    }
