"""Dataset and report file formats.

Edge lists are UTF-8 text with one "src<TAB>dst" pair per line ('#' starts
a comment). Features are a dense CSV (row i = node i) or Matrix Market
coordinate format for sparse binary features. Labels are a "node_id,label"
CSV with an optional header line.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.io

from .errors import GraphParseError, ValidationError
from .graph import Graph, edge_array, make_graph


def parse_edge_list(path, n: int) -> list[tuple[int, int]]:
    """Read raw (src, dst) pairs, each endpoint in [0, n); make_graph symmetrizes."""
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) != 2:
                raise GraphParseError(path, lineno, f"expected 'src<TAB>dst', got {body!r}")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphParseError(path, lineno, f"non-integer node id in {body!r}") from None
            if not (0 <= i < n and 0 <= j < n):
                raise GraphParseError(path, lineno, f"edge ({i}, {j}) out of range for n={n}")
            pairs.append((i, j))
    return pairs


def load_features(path) -> np.ndarray:
    path = Path(path)
    if path.suffix == ".mtx":
        return np.asarray(scipy.io.mmread(path).todense(), dtype=np.float64)
    try:
        X = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise GraphParseError(path, 0, f"feature CSV failed to parse: {exc}") from None
    return X


def load_labels(path, n: int) -> np.ndarray:
    labels = np.full(n, -1, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.strip()
            if not body:
                continue
            if lineno == 1 and body.replace(" ", "") == "node_id,label":
                continue
            parts = body.split(",")
            if len(parts) != 2:
                raise GraphParseError(path, lineno, f"expected 'node_id,label', got {body!r}")
            try:
                node, label = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphParseError(path, lineno, f"non-integer field in {body!r}") from None
            if not 0 <= node < n:
                raise GraphParseError(path, lineno, f"node id {node} out of range for n={n}")
            if seen[node]:
                raise GraphParseError(path, lineno, f"duplicate label for node {node}")
            labels[node] = label
            seen[node] = True
    if not seen.all():
        raise ValidationError(
            f"{path}: labeled {int(seen.sum())} of {n} nodes; every node needs a label"
        )
    return labels


def load_graph(edge_path, feature_path, label_path) -> Graph:
    """Assemble a Graph from its three dataset files.

    The node count is fixed by the feature matrix; edge endpoints must fall
    inside it and every node must carry a label.
    """
    X = load_features(feature_path)
    n = X.shape[0]
    pairs = parse_edge_list(edge_path, n)
    labels = load_labels(label_path, n)
    return make_graph(n, pairs, X, labels)


def load_graph_dir(dataset_dir) -> Graph:
    """Load a dataset directory holding edges.tsv, features.csv|.mtx, labels.csv."""
    d = Path(dataset_dir)
    feat = d / "features.csv"
    if not feat.exists():
        feat = d / "features.mtx"
    for p in (d / "edges.tsv", feat, d / "labels.csv"):
        if not p.exists():
            raise ValidationError(f"dataset file missing: {p}")
    return load_graph(d / "edges.tsv", feat, d / "labels.csv")


def save_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, j in edge_array(g):
            fh.write(f"{i}\t{j}\n")


def save_features_csv(X: np.ndarray, path) -> None:
    np.savetxt(path, np.asarray(X), delimiter=",", fmt="%.17g")


def save_labels_csv(labels: np.ndarray, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("node_id,label\n")
        for i, y in enumerate(labels):
            fh.write(f"{i},{int(y)}\n")


def save_dataset_dir(g: Graph, dataset_dir) -> None:
    """Write a Graph back out in the dataset-directory layout."""
    d = Path(dataset_dir)
    d.mkdir(parents=True, exist_ok=True)
    save_edge_list(g, d / "edges.tsv")
    save_features_csv(g.X, d / "features.csv")
    if g.labels is not None:
        save_labels_csv(g.labels, d / "labels.csv")


def write_json(payload: dict, path) -> None:
    """Pretty JSON with sorted keys and a final newline, so equal payloads
    give byte-identical files."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return ";".join(str(v) for v in value)
    return str(value)


def write_csv(columns, rows, path) -> None:
    """CSV of the given columns, one line per row mapping, with floats as
    repr and sequences joined by ';', so equal rows give byte-identical
    files."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(row[c]) for c in columns) + "\n")
