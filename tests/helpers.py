"""Shared test utilities."""

from dataclasses import replace

import numpy as np

from cograph.graph import Graph, labeled_map, make_graph  # noqa: F401 -- re-exported for tests


def with_inputs(trained, inputs):
    """The trained model with its sub-model's input matrix swapped."""
    return replace(trained, model=replace(trained.model, inputs=inputs))


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
