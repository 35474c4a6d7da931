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
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError, require_real
from .graph import Graph, with_edges, with_features
from .io import parse_edge_list, write_json
from .models import KIND_FMLP, TrainedSubModel, input_gradient

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


def random_structure_perturb(g: Graph, rate: float, seed: int) -> Graph:
    """Toggle round(rate * |E|) uniformly chosen node pairs (edge <-> non-edge)."""
    if rate < 0:
        raise ValidationError(f"rate must be nonnegative, got {rate}")
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


def dice_perturb(g: Graph, labels: np.ndarray | None, rate: float, seed: int) -> Graph:
    """Label-aware structural attack: delete internal, insert cross-class.

    Each budget unit deletes a random same-class edge or inserts a random
    cross-class non-edge with equal probability. When one kind of candidate
    runs out the remaining budget goes to the other kind.

    An insertion draws an index over the cross-class pairs, numbered one
    class pair at a time, until it names a non-edge: uniform, in O(n)
    memory, at (cross-class pairs) / (cross-class non-edges) draws on
    average, which is many where nearly every cross-class pair is an edge.
    """
    if rate < 0:
        raise ValidationError(f"rate must be nonnegative, got {rate}")
    labels = np.asarray(labels if labels is not None else g.labels)
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
    r, c = np.nonzero((block > 0.0) & (block >= t))  # row-major order
    order = np.argsort(-block[r, c], kind="stable")[:take]
    return rows[r[order]] * score.shape[1] + c[order]


def feature_flip_attack(
    g: Graph,
    victim: TrainedSubModel,
    budget: int,
    targets: np.ndarray | None = None,
) -> Graph:
    """Greedy gradient-guided bit flips on binary features.

    The victim must be an f-mlp over raw node features of g's shape, so
    its loss on the target nodes (distinct ids; default: every node) reads
    only their t feature rows. Each round recomputes that loss's gradient
    w.r.t. those rows and scores every target bit by grad * (1 - 2x), the
    loss increase its flip promises to first order. It then flips the
    min(32, remaining budget) bits with the largest positive score, ties
    going to the smaller row-major index of X. No bit flips twice; the
    attack stops early once no score is positive. The procedure is
    deterministic, so it takes no seed.

    Working memory beyond g: the attacked copy of X, t x m int8 flip signs
    and one round's t x m gradient, plus the victim's own input_gradient
    temporaries (and, for CSR victims, the CSR inputs).
    """
    if budget < 0:
        raise ValidationError(f"budget must be nonnegative, got {budget}")
    kind = victim.model.spec.kind
    if kind != KIND_FMLP:
        raise ValidationError(f"feature attack needs an f-mlp victim, got {kind!r}")
    if g.labels is None:
        raise ValidationError("feature attack needs a labeled graph")
    if (victim.model.n, victim.model.input_dim) != g.X.shape:
        raise ValidationError(
            f"victim inputs are ({victim.model.n}, {victim.model.input_dim}), "
            f"graph features {g.X.shape}"
        )
    targets = np.asarray(targets if targets is not None else np.arange(g.n))
    if targets.ndim != 1 or targets.size == 0 or targets.dtype.kind not in "iu":
        raise ValidationError("attack targets must be a nonempty 1-D array of node ids")
    if targets.min() < 0 or targets.max() >= g.n:
        raise ValidationError(f"attack target out of range for n={g.n}")
    if np.unique(targets).size != targets.size:
        raise ValidationError("attack targets must not repeat a node id")
    targets = np.sort(targets)  # ascending, so row-major order over the t rows is X's
    X = np.array(g.X)
    if not np.isin(X, (0.0, 1.0)).all():
        raise ValidationError("feature attack requires binary features")
    if budget == 0:
        return g
    target_labels = g.labels[targets]

    # +1 where a flip sets a bit, -1 where it clears one, 0 once flipped:
    # a flipped bit scores 0 and is never selected again. int8 holds these
    # exactly and multiplies a float64 gradient to the same bits as 1.0 - 2X
    sign = X[targets].astype(np.int8)
    sign *= -2
    sign += 1
    # CSR victims get the flips as a +-1 delta; canonical CSR addition keeps
    # indices sorted and drops entries that cancel, matching csr_matrix(X)
    inputs = sp.csr_matrix(X) if sp.issparse(victim.model.inputs) else X
    remaining = budget
    while remaining > 0:
        moved = replace(victim, model=replace(victim.model, inputs=inputs))
        score = input_gradient(moved, targets, target_labels)
        score *= sign
        top = _top_positive(score, min(_FLIP_BATCH, remaining))
        del score  # free this round's gradient before the next one is built
        if not top.size:
            break
        picks, cols = np.divmod(top, X.shape[1])
        rows = targets[picks]
        delta = sign[picks, cols].astype(np.float64)
        X[rows, cols] += delta
        sign[picks, cols] = 0
        if inputs is not X:
            inputs = inputs + sp.csr_matrix((delta, (rows, cols)), shape=X.shape)
        remaining -= top.size
    X.flags.writeable = False  # lets with_features keep X without a copy
    return with_features(g, X)


def load_perturbed_adjacency(g: Graph, path) -> Graph:
    """Replace the edge set with an externally produced edge-list file."""
    return with_edges(g, parse_edge_list(path, g.n))


def flip_log_hash(original: Graph, perturbed: Graph) -> str:
    """SHA-256 over the symmetric edge difference and changed feature bits."""
    h = hashlib.sha256()
    for i, j in sorted(original.edges ^ perturbed.edges):
        h.update(f"e{i},{j};".encode())
    diff = np.argwhere(original.X != perturbed.X)
    for i, j in diff:
        h.update(f"x{i},{j};".encode())
    return h.hexdigest()


def write_sidecar(path, setting: AttackSetting, seed: int, original: Graph, perturbed: Graph) -> None:
    """Provenance record emitted next to a perturbed dataset."""
    record = {
        "method": setting.method,
        "rate": setting.rate,
        "ratio": setting.effective_feature_ratio,
        "seed": seed,
        "flip_log_hash": flip_log_hash(original, perturbed),
        "edges_before": original.num_edges,
        "edges_after": perturbed.num_edges,
        "feature_bits_changed": int((original.X != perturbed.X).sum()),
    }
    write_json(record, path)
