"""Graph perturbation generators for robustness evaluation.

Structural attacks flip edges (uniformly at random, or label-aware: delete
same-class edges / insert cross-class edges). The feature attack greedily
flips binary feature bits along an f-mlp victim's loss gradient. Externally
produced perturbed adjacencies are ingested from edge-list files. All
perturbers preserve the node count and labels; structural ones leave X
untouched and the feature attack leaves the edge set untouched.
AttackSetting is the one description of an attack run, shared by the CLI,
the experiment runner and the provenance sidecar.
"""

from __future__ import annotations

import hashlib
import math
import os
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError, require_int, require_real, require_type
from .graph import Graph, node_ids, with_edges, with_features
from .io import parse_edge_list, write_json
from .models import KIND_FMLP, TrainedSubModel, input_gradient
from .views import row_blocks

ATTACK_METHODS = ("none", "random", "dice", "grad-feat", "external")
_FLIP_BATCH = 32


@dataclass(frozen=True)
class AttackSetting:
    """One attack run: method, budget and its split, named for reports.

    method names the structural perturber; feature_ratio > 0 diverts that
    share of the budget to gradient-guided feature-bit flips (grad-feat is
    shorthand for feature_ratio = 1). rate is a fraction of the clean edge
    count. external replaces the edge set with the file at path, and only
    external takes a path. none and external take no rate or ratio, and
    grad-feat a ratio of 0 or 1 only: a value the method would ignore is
    refused.
    """

    name: str
    method: str = "none"
    rate: float = 0.0
    feature_ratio: float = 0.0
    path: str | None = None

    def __post_init__(self):
        if self.method not in ATTACK_METHODS:
            raise ValidationError(f"attack method must be one of {ATTACK_METHODS}, got {self.method!r}")
        require_real("rate", self.rate)
        require_real("feature_ratio", self.feature_ratio)
        require_type("path", self.path, str, os.PathLike, type(None))
        object.__setattr__(self, "path", self.path and os.fspath(self.path))  # a report writes a str
        if not 0.0 <= self.rate <= 1.0 or not 0.0 <= self.feature_ratio <= 1.0:
            raise ValidationError("attack rate and feature_ratio must lie in [0, 1]")
        if self.method == "external" and not self.path:
            raise ValidationError("external attack setting needs a path")
        if self.method != "external" and self.path is not None:
            raise ValidationError(f"only external takes a path, got method {self.method!r}")
        if self.method in ("none", "external") and (self.rate or self.feature_ratio):
            raise ValidationError(f"attack method {self.method!r} takes no rate or feature_ratio")
        if self.method == "grad-feat" and self.feature_ratio not in (0.0, 1.0):
            raise ValidationError(f"grad-feat takes a feature_ratio of 0 or 1, got {self.feature_ratio}")

    @property
    def effective_feature_ratio(self) -> float:
        """Share of the budget spent on feature-bit flips."""
        return 1.0 if self.method == "grad-feat" else self.feature_ratio


def _sample_pairs(rng: np.random.Generator, n: int, budget: int) -> list[tuple[int, int]]:
    """budget distinct unordered pairs (i < j), uniform over all non-self pairs."""
    total = n * (n - 1) // 2
    if budget > total:
        raise ValidationError(f"cannot flip {budget} pairs; only {total} exist")
    chosen: set[tuple[int, int]] = set()
    out: list[tuple[int, int]] = []
    while len(out) < budget:
        i = int(rng.integers(n))
        j = int(rng.integers(n))
        if i == j:
            continue
        pair = (i, j) if i < j else (j, i)
        if pair in chosen:
            continue
        chosen.add(pair)
        out.append(pair)
    return out


def _check_rate_and_seed(rate: float, seed: int) -> None:
    """ValidationError unless rate is a finite real >= 0 and seed an integer >= 0."""
    require_real("rate", rate)
    if not (rate >= 0 and math.isfinite(rate)):
        raise ValidationError(f"rate must be nonnegative and finite, got {rate}")
    require_int("seed", seed, 0)


def random_structure_perturb(g: Graph, rate: float, seed: int) -> Graph:
    """Toggle round(rate * |E|) uniformly chosen node pairs (edge <-> non-edge)."""
    _check_rate_and_seed(rate, seed)
    budget = int(round(rate * g.num_edges))
    if budget == 0:
        return g
    rng = np.random.default_rng(seed)
    edges = set(g.edges)
    for pair in _sample_pairs(rng, g.n, budget):
        if pair in edges:
            edges.remove(pair)
        else:
            edges.add(pair)
    return with_edges(g, edges)


def dice_perturb(g: Graph, labels: np.ndarray, rate: float, seed: int) -> Graph:
    """Label-aware structural attack: delete internal, insert cross-class.

    Each budget unit deletes a random same-class edge or inserts a random
    cross-class non-edge with equal probability. When one kind of candidate
    runs out the remaining budget goes to the other kind. labels holds
    each node's class id, as g.labels does.

    An insertion draws an index over the cross-class pairs, numbered one
    class pair at a time, until it names a non-edge: uniform, in O(n)
    memory, at (cross-class pairs) / (cross-class non-edges) draws on
    average, which is many where nearly every cross-class pair is an edge.
    """
    _check_rate_and_seed(rate, seed)
    labels = np.asarray(labels)
    if labels.shape != (g.n,):
        raise ValidationError("dice_perturb needs one label per node")
    budget = int(round(rate * g.num_edges))
    if budget == 0:
        return g

    rng = np.random.default_rng(seed)
    edges = set(g.edges)
    same_class = [e for e in sorted(edges) if labels[e[0]] == labels[e[1]]]
    members = [np.flatnonzero(labels == c) for c in np.unique(labels)]
    blocks = [(a, b) for k, a in enumerate(members) for b in members[k + 1 :]]
    starts = [0, *accumulate(a.size * b.size for a, b in blocks)]
    cross_free = starts[-1] - (len(edges) - len(same_class))

    def try_insert() -> bool:
        nonlocal cross_free
        if cross_free == 0:
            return False
        while True:
            index = int(rng.integers(starts[-1]))
            block = bisect_right(starts, index) - 1
            a, b = blocks[block]
            x, y = divmod(index - starts[block], b.size)
            i, j = int(a[x]), int(b[y])
            pair = (i, j) if i < j else (j, i)
            if pair not in edges:
                edges.add(pair)
                cross_free -= 1
                return True

    def try_delete() -> bool:
        if not same_class:
            return False
        idx = int(rng.integers(len(same_class)))
        pair = same_class[idx]
        same_class[idx] = same_class[-1]
        same_class.pop()
        edges.remove(pair)
        return True

    for _ in range(budget):
        if rng.random() < 0.5:
            done = try_delete() or try_insert()
        else:
            done = try_insert() or try_delete()
        if not done:
            break  # both candidate kinds exhausted
    return with_edges(g, edges)


def _top_positive(score: np.ndarray, take: int) -> np.ndarray:
    """Flat indices of the take largest positive entries of score, largest
    first, ties to the smaller row-major index; fewer if fewer are positive.

    Only a row whose maximum reaches t, the take-th largest row maximum, can
    hold one of them, and each of them is >= t, so one stable sort of those
    few entries is exact. NaN is never selected.
    """
    row_max = np.fmax.reduce(score, axis=1)
    rows = np.flatnonzero(row_max > 0.0)
    t = 0.0
    if rows.size > take:
        t = np.partition(row_max[rows], rows.size - take)[rows.size - take]
        rows = rows[row_max[rows] >= t]
    block = score[rows]
    flat = np.flatnonzero(block >= t if t > 0.0 else block > 0.0)  # row-major order
    order = flat[np.argsort(-block.reshape(-1)[flat], kind="stable")[:take]]
    r, c = np.divmod(order, score.shape[1])
    return rows[r] * score.shape[1] + c


def _is_binary(X) -> bool:
    """Whether every entry of X is 0 or 1; a dense X is read one row block
    at a time."""
    if sp.issparse(X):
        return bool(((X.data == 0.0) | (X.data == 1.0)).all())
    return all(((X[lo:hi] == 0.0) | (X[lo:hi] == 1.0)).all() for lo, hi in row_blocks(*X.shape))


def _set_bits(rows) -> np.ndarray:
    """Sorted row-major flat indices of the set bits of 0/1 rows, canonical
    CSR or dense; dense rows are read one row block at a time."""
    n, m = rows.shape
    if sp.issparse(rows):
        return np.repeat(np.arange(n), np.diff(rows.indptr)) * m + rows.indices
    # a bool mask's nonzero is several times faster than a float array's
    return np.concatenate([np.flatnonzero(rows[lo:hi] != 0.0) + lo * m for lo, hi in row_blocks(n, m)])


def _csr_rows(ones: np.ndarray, b: int, m: int) -> sp.csr_matrix:
    """The canonical CSR of b rows of m 0/1 features whose set bits are at
    the sorted row-major flat indices ones, the inverse of _set_bits."""
    rows, cols = np.divmod(ones, m)
    indptr = np.searchsorted(rows, np.arange(b + 1)).astype(np.int32)
    return sp.csr_matrix((np.ones(ones.size), cols.astype(np.int32), indptr), shape=(b, m))


def _block_best(victim, inputs, ones, labels, t: int, done: np.ndarray):
    """The _FLIP_BATCH best positive scores of one block of target rows,
    with their row-major flat indices in the block. inputs are the rows,
    ones and done the flat indices of their set and their flipped bits,
    labels their classes; the loss is divided by t, the count of all the
    target rows."""
    b = inputs.shape[0]
    part = replace(victim, model=replace(victim.model, inputs=inputs))
    score = input_gradient(part, np.arange(b), labels, mean_over=t)
    flat = score.reshape(-1)
    flat[ones] *= -1.0  # clearing a set bit scores -grad
    flat[done] = 0.0  # a flipped bit is never picked again
    top = _top_positive(score, _FLIP_BATCH)
    return flat[top], top


def feature_flip_attack(
    g: Graph,
    victim: TrainedSubModel,
    budget: int,
    targets: np.ndarray | None = None,
) -> Graph:
    """Greedy gradient-guided bit flips on binary features.

    The victim must be an f-mlp over raw node features of g's shape, so
    its loss on the target nodes (distinct ids; default: every node) reads
    only their t feature rows. Each round takes that loss's gradient w.r.t.
    those rows and scores every target bit by grad * (1 - 2x), the loss
    increase its flip promises to first order. It then flips the
    min(32, remaining budget) bits with the largest positive score, ties
    going to the smaller row-major index of X. No bit flips twice; the
    attack stops early once no score is positive. The procedure is
    deterministic, so it takes no seed.

    The gradient is taken in fixed blocks of target rows, about 1 MB of
    float64 each (views.row_blocks), and every block's loss is divided by
    the one count t, so scores compare across blocks. Each block keeps its
    32 best positive scores, which hold every bit of the block a round can
    pick, and a round picks the best of their union. The victim is
    row-wise, so a flip changes only its own row's gradient: only the
    blocks holding a flipped row are scored again. The victim sees one
    block of rows at a time, in its own input format (CSR or dense), with
    every flip so far applied.

    The attacked X is CSR when the victim reads CSR (g.X with the flipped
    bits toggled) and a dense copy of g.X otherwise. Working memory beyond
    g: the target rows' set bits as flat indices, freed before the attacked
    X is made, and one block's input and gradient with the victim's
    input_gradient temporaries.
    """
    require_int("budget", budget, 0)
    kind = victim.model.spec.kind
    if kind != KIND_FMLP:
        raise ValidationError(f"feature attack needs an f-mlp victim, got {kind!r}")
    if victim.model.inputs.shape != g.X.shape:
        raise ValidationError(f"victim inputs are {victim.model.inputs.shape}, graph features {g.X.shape}")
    targets = node_ids(targets if targets is not None else np.arange(g.n), g.n)
    if targets.size == 0:
        raise ValidationError("attack targets must be a nonempty array of node ids")
    if np.unique(targets).size != targets.size:
        raise ValidationError("attack targets must not repeat a node id")
    targets = np.sort(targets)  # ascending, so row-major order over the t rows is X's
    t, m = targets.size, g.X.shape[1]
    csr = sp.issparse(victim.model.inputs)
    if not _is_binary(g.X):
        raise ValidationError("feature attack requires binary features")
    if budget == 0:
        return g
    layout = list(row_blocks(t, m))
    starts = np.array([lo for lo, _ in layout])
    # each block's set bits as sorted flat indices over its rows; the flips toggle them
    ones = [_set_bits(g.X[targets[lo:hi]]) for lo, hi in layout]
    labels = g.labels[targets]
    best = [None] * len(layout)  # per block: its best scores and their flat indices
    dirty = range(len(layout))
    flipped = np.empty(0, dtype=np.int64)  # sorted flat indices over the t rows
    remaining = budget
    while remaining > 0:
        for k in dirty:
            lo, hi = layout[k]
            a, b = np.searchsorted(flipped, (lo * m, hi * m))
            if csr:
                rows = _csr_rows(ones[k], hi - lo, m)
            else:
                rows = np.zeros((hi - lo, m))
                rows.flat[ones[k]] = 1.0
            scores, top = _block_best(victim, rows, ones[k], labels[lo:hi], t, flipped[a:b] - lo * m)
            best[k] = (scores, top + lo * m)
        scores = np.concatenate([s for s, _ in best])
        index = np.concatenate([i for _, i in best])
        top = index[np.lexsort((index, -scores))[: min(_FLIP_BATCH, remaining)]]
        if not top.size:
            break
        owner = np.searchsorted(starts, top // m, side="right") - 1
        dirty = np.unique(owner)
        for k in dirty:
            ones[k] = np.setxor1d(ones[k], top[owner == k] - starts[k] * m, assume_unique=True)
        flipped = np.union1d(flipped, top)
        remaining -= top.size
    del ones, best  # freed before the attacked X is made
    picks, cols = np.divmod(flipped, m)
    keys = targets[picks] * m + cols  # the flipped bits as flat indices over X
    if csr:
        X = _csr_rows(np.setxor1d(_set_bits(g.X), keys, assume_unique=True), g.n, m)
        arrays = (X.data, X.indices, X.indptr)
    else:
        X = g.X.toarray() if sp.issparse(g.X) else np.array(g.X)
        X.flat[keys] = 1.0 - X.flat[keys]
        arrays = (X,)
    for a in arrays:
        a.flags.writeable = False  # lets with_features keep X without a copy
    return with_features(g, X)


def load_perturbed_adjacency(g: Graph, path) -> Graph:
    """Replace the edge set with an externally produced edge-list file."""
    return with_edges(g, parse_edge_list(path, g.n))


def changed_features(A, B) -> np.ndarray:
    """(row, column) of every entry where two feature matrices of one shape
    differ, in row-major order, as a (k, 2) array; each matrix dense or
    sparse. A sparse pair is compared as canonical CSR, never densified."""
    if not (sp.issparse(A) or sp.issparse(B)):
        return np.argwhere(A != B)
    rows, cols = (sp.csr_matrix(A) != sp.csr_matrix(B)).nonzero()
    order = np.lexsort((cols, rows))
    return np.column_stack([rows[order], cols[order]]).astype(np.int64)


def flip_log_hash(original: Graph, perturbed: Graph, changed=None) -> str:
    """SHA-256 over the symmetric edge difference and changed feature bits;
    a caller holding changed_features(original.X, perturbed.X) passes it
    as changed."""
    if changed is None:
        changed = changed_features(original.X, perturbed.X)
    h = hashlib.sha256()
    for i, j in sorted(original.edges ^ perturbed.edges):
        h.update(f"e{i},{j};".encode())
    for i, j in changed:
        h.update(f"x{i},{j};".encode())
    return h.hexdigest()


def write_sidecar(path, setting: AttackSetting, seed: int, original: Graph, perturbed: Graph) -> dict:
    """Write the provenance record emitted next to a perturbed dataset; return it."""
    changed = changed_features(original.X, perturbed.X)
    record = {
        "method": setting.method,
        "rate": setting.rate,
        "ratio": setting.effective_feature_ratio,
        "seed": seed,
        "flip_log_hash": flip_log_hash(original, perturbed, changed),
        "edges_before": original.num_edges,
        "edges_after": perturbed.num_edges,
        "feature_bits_changed": len(changed),
    }
    write_json(record, path)
    return record
