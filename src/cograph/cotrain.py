"""Two-view co-training with class-balanced pseudo-labeling.

Each iteration retrains both sub-models from scratch on the current
labeled set and scores every node once with each. From that one pass it
refits their temperatures on the untouched validation rows, measures test
accuracy, ranks the unlabeled pool by calibrated confidence, and moves the
per-class most confident nodes into the labeled set under quotas derived
from the initial label distribution. Inference averages the two calibrated
probability vectors.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .calibration import calibrate, fit_temperature
from .errors import ValidationError, require_int
from .graph import Graph, NodeSplit, node_ids
from .models import (
    SubModelSpec,
    TrainedSubModel,
    build_submodel,
    predict_logits,
    train_submodel,
)
from .nn import derive_seeds

PROV_TRUTH = "ground-truth"
PROV_STRUCT = "pseudo:struct"
PROV_FEAT = "pseudo:feat"
# a state's provenance codes index this tuple
PROVENANCE = (PROV_TRUTH, PROV_STRUCT, PROV_FEAT)

# From this many nodes a round fits its two views at the same time. Below
# it a fit is made of microsecond-long numpy calls, and handing the
# interpreter lock back and forth costs more than the overlap saves.
OVERLAP_MIN_NODES = 1000


def class_quota(histogram, n_add: int) -> tuple[int, ...]:
    """Per-class pseudo-label counts: n_add split across classes
    proportionally to the labeled histogram.

    Exact proportions (N_c / N) * n_add are rounded by largest remainder so
    the counts sum to n_add exactly; remainder ties go to the smaller
    class id. Every histogram entry must be finite and nonnegative.
    """
    hist = np.asarray(histogram, dtype=np.float64)
    if not np.isfinite(hist).all() or (hist < 0).any():
        raise ValidationError(f"class histogram entries must be finite and nonnegative, got {hist}")
    total = hist.sum()
    if total <= 0:
        raise ValidationError("class histogram must have positive total")
    require_int("n_add", n_add, 0)
    exact = hist / total * n_add
    counts = np.floor(exact).astype(np.int64)
    remainder = n_add - int(counts.sum())
    order = sorted(range(hist.size), key=lambda c: (-(exact[c] - counts[c]), c))
    for c in order[:remainder]:
        counts[c] += 1
    return tuple(int(q) for q in counts)


def select_confident(
    nodes: np.ndarray, probs: np.ndarray, budget: int | tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]:
    """Pick the most confident predictions, per class or overall.

    Returns the picked nodes, their predicted labels and confidences, and
    the shortfall. A tuple budget holds per-class counts (class_quota): for
    each class, nodes whose argmax is that class compete by max
    probability, and a class with fewer candidates than its count yields a
    recorded shortfall that is never redistributed. An int budget takes
    the top that many nodes regardless of class; the shortfall tuple is
    then a single total. Confidence ties break toward the smaller node
    index. Node ids that are not integers, any other budget, a tuple
    without one count per class, or a negative count is a ValidationError.
    """
    nodes = node_ids(nodes)
    if probs.shape[0] != nodes.size:
        raise ValidationError("probability rows must align with the node list")
    per_class = isinstance(budget, tuple)
    if per_class and len(budget) != probs.shape[1]:
        raise ValidationError(f"{len(budget)} class counts for {probs.shape[1]} classes")
    for count in budget if per_class else (budget,):
        require_int("budget", count, 0)
    conf = probs.max(axis=1)
    pred = probs.argmax(axis=1)
    # one ranking serves both budgets: confidence descending, ties to the smaller node
    order = np.lexsort((nodes, -conf))

    if per_class:
        ranked_pred = pred[order]
        takes = [order[ranked_pred == c][:count] for c, count in enumerate(budget)]
        shortfall = tuple(count - t.size for count, t in zip(budget, takes))
        take = np.concatenate(takes)
    else:
        take = order[:budget]
        shortfall = (budget - take.size,)
    return nodes[take], pred[take], conf[take], shortfall


def resolve_conflicts(sel_struct, sel_feat, n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Union of two select_confident results over n nodes; conflicts keep
    the more confident label.

    Returns length-n label (-1 where neither view picked the node) and
    provenance-code arrays, and the number of nodes both views picked. On
    an exact confidence tie the structure model wins.
    """
    nodes_s, labels_s, conf_s, _ = sel_struct
    nodes_f, labels_f, conf_f, _ = sel_feat
    label = np.full(n, -1)
    provenance = np.zeros(n, dtype=np.int8)
    best = np.full(n, -np.inf)
    label[nodes_s], best[nodes_s] = labels_s, conf_s
    provenance[nodes_s] = PROVENANCE.index(PROV_STRUCT)
    wins = conf_f > best[nodes_f]
    label[nodes_f[wins]] = labels_f[wins]
    provenance[nodes_f[wins]] = PROVENANCE.index(PROV_FEAT)
    return label, provenance, int(np.intersect1d(nodes_s, nodes_f).size)


@dataclass(frozen=True)
class LabelEntry:
    """One labeled node as CoTrainState.entries shows it."""

    label: int
    provenance: str
    iteration: int


@dataclass(frozen=True)
class IterationRecord:
    """History row; the accuracies reflect models trained on this row's S."""

    iteration: int
    s_size: int
    added_per_class_struct: tuple[int, ...]
    added_per_class_feat: tuple[int, ...]
    shortfall_struct: tuple[int, ...]
    shortfall_feat: tuple[int, ...]
    conflicts: int
    acc_struct: float
    acc_feat: float
    acc_ensemble: float
    confusion: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        """Every field under its history key, tuples as lists."""
        return {
            _HISTORY_KEYS.get(f.name, f.name): _as_lists(getattr(self, f.name))
            for f in fields(self)
        }


# fields whose history key differs from the field name
_HISTORY_KEYS = {"iteration": "iter", "s_size": "S_size", "confusion": "confusion_matrix"}


def _as_lists(value):
    return [_as_lists(v) for v in value] if isinstance(value, tuple) else value


@dataclass
class CoTrainState:
    """Growing labeled set with provenance, and the per-iteration history.

    The labeled set is three length-n arrays indexed by node id: label (the
    class id, or -1 while unlabeled), provenance (an index into PROVENANCE)
    and added_in (the iteration the label was added in); provenance and
    added_in mean nothing where label is -1. Mutated only by its owning
    cotrain loop; ground-truth labels are never overwritten and
    pseudo-labels freeze once added. The unlabeled pool is every test node
    without a label. When the loop returns, final_logits holds the raw
    logits of every node (row = node id) from the last round's structure
    and feature models, the scores those returned models give.
    """

    label: np.ndarray
    provenance: np.ndarray
    added_in: np.ndarray
    iteration: int = 0
    history: list[IterationRecord] = field(default_factory=list)
    final_logits: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def s_size(self) -> int:
        return int(np.count_nonzero(self.label >= 0))

    @property
    def entries(self) -> dict[int, LabelEntry]:
        """Node -> LabelEntry for every labeled node, read off the arrays.

        A read-only view kept for the benchmark's co-training probe in
        bench/spans.py; the library never reads it. It goes when ROADMAP
        item 4 moves that probe into the library.
        """
        return {
            int(i): LabelEntry(
                int(self.label[i]), PROVENANCE[self.provenance[i]], int(self.added_in[i])
            )
            for i in np.flatnonzero(self.label >= 0)
        }


def audit_state(state: CoTrainState, g: Graph, split: NodeSplit) -> None:
    """Assert the co-training bookkeeping invariants; raises on violation."""
    labeled = np.flatnonzero(state.label >= 0)
    if np.setdiff1d(labeled, np.union1d(split.labeled, split.test)).size:
        raise ValidationError("an entry lies outside the labeled and test nodes")
    truth = split.labeled
    altered = truth[
        (state.label[truth] != g.labels[truth])
        | (state.provenance[truth] != PROVENANCE.index(PROV_TRUTH))
    ]
    if altered.size:
        raise ValidationError(f"ground-truth entry for node {altered[0]} was altered")
    sizes = [rec.s_size for rec in state.history]
    if any(b < a for a, b in zip(sizes, sizes[1:])):
        raise ValidationError("labeled-set size decreased across iterations")


def _average(probs_s: np.ndarray, probs_f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ensemble rule: mean of the two calibrated probability rows;
    argmax ties take the smaller class id."""
    probs = (probs_s + probs_f) / 2.0
    return probs.argmax(axis=1), probs


def ensemble_predict(
    f_struct: TrainedSubModel, f_feat: TrainedSubModel, nodes
) -> tuple[np.ndarray, np.ndarray]:
    """Ensemble labels and probabilities for nodes."""
    return _average(
        calibrate(predict_logits(f_struct, nodes), f_struct.temperature),
        calibrate(predict_logits(f_feat, nodes), f_feat.temperature),
    )


def _confusion(true_labels: np.ndarray, pred: np.ndarray, C: int):
    mat = np.zeros((C, C), dtype=np.int64)
    np.add.at(mat, (true_labels, pred), 1)
    return tuple(tuple(int(v) for v in row) for row in mat)


def _check_split(g: Graph, split: NodeSplit) -> None:
    """ValidationError unless split's nodes are nodes of the labeled graph g
    and its class_histogram counts g's labels over split.labeled: a split
    is not tied to the graph it was drawn from."""
    if g.labels is None:
        raise ValidationError("cotrain requires a labeled graph")
    ids = np.concatenate([split.labeled, split.validation, split.test])
    if ids.min() < 0 or ids.max() >= g.n:
        raise ValidationError(
            f"split node ids must lie in [0, {g.n}), got [{ids.min()}, {ids.max()}]"
        )
    counts = np.bincount(g.labels[split.labeled], minlength=g.C)
    if not np.array_equal(split.class_histogram, counts):
        raise ValidationError(
            f"split class_histogram {split.class_histogram.tolist()} is not the "
            f"labeled nodes' label counts {counts.tolist()}"
        )


def cotrain(
    g: Graph,
    split: NodeSplit,
    spec_struct: SubModelSpec,
    spec_feat: SubModelSpec,
    n_add: int,
    max_iters: int,
    seed: int,
    calibration: bool = True,
    class_balancing: bool = True,
) -> tuple[TrainedSubModel, TrainedSubModel, CoTrainState]:
    """Run the two-view co-training loop.

    Pseudo-label candidates are drawn from the test pool; validation nodes
    are reserved for temperature fitting, which calibration=False skips,
    keeping T = 1 for both views. Quotas derive from the initial
    labeled histogram and each model selects n_add nodes per iteration from
    the same unlabeled snapshot. Stops after max_iters iterations or when
    the pool empties; max_iters=0 degrades to the plain calibrated
    two-model ensemble. g must be labeled, and split must be a split of g:
    its ids below g.n and its class_histogram the labeled nodes' label
    counts (ValidationError otherwise). Reported accuracies always cover the original test
    set, using true labels for evaluation only.

    Within a round the two fits are independent: each trains its own
    sub-model from its own derived seed on the same labeled snapshot. From
    OVERLAP_MIN_NODES nodes up, the feature-view fit runs on one helper
    thread while the calling thread runs the structure-view fit (numpy and
    scipy release the interpreter lock in their kernels); smaller graphs fit
    the two views one after the other. Results are bit-identical either
    way, and there is no setting for it. If both fits fail, the structure
    fit's exception propagates; the helper thread ends with its round.
    """
    if not spec_struct.is_structure_view:
        raise ValidationError(f"{spec_struct.kind!r} is not a structure-view kind")
    if spec_feat.is_structure_view:
        raise ValidationError(f"{spec_feat.kind!r} is not a feature-view kind")
    require_int("n_add", n_add, 0)
    require_int("max_iters", max_iters, 0)
    require_int("seed", seed, 0)
    _check_split(g, split)

    models = (build_submodel(spec_struct, g), build_submodel(spec_feat, g))
    all_nodes = np.arange(g.n)
    val_nodes = split.validation
    val_labels = g.labels[val_nodes]
    test_nodes = split.test
    test_labels = g.labels[test_nodes]

    label = np.full(g.n, -1)
    label[split.labeled] = g.labels[split.labeled]
    # provenance code 0 is PROV_TRUTH
    state = CoTrainState(label, np.zeros(g.n, np.int8), np.zeros(g.n, np.int64))
    budget = class_quota(split.class_histogram, n_add) if class_balancing else n_add

    def fit(role: int, labeled: tuple[np.ndarray, np.ndarray], iteration: int):
        """models[role] trained, its raw logits for every node (row = node
        id) and their calibrated probabilities: its only forward pass."""
        (fit_seed,) = derive_seeds(seed, iteration, role)
        trained = train_submodel(models[role], *labeled, seed=fit_seed)
        logits = predict_logits(trained, all_nodes)
        if calibration:
            trained = replace(trained, temperature=fit_temperature(logits[val_nodes], val_labels))
        return trained, logits, calibrate(logits, trained.temperature)

    def test_accuracy(pred: np.ndarray) -> float:
        return float((pred == test_labels).mean())

    # (structure, feature) pairs
    added = shortfall = ((0,) * g.C,) * 2
    conflicts = 0

    while True:
        it = state.iteration
        nodes = np.flatnonzero(state.label >= 0)
        labeled = (nodes, state.label[nodes])
        if g.n >= OVERLAP_MIN_NODES:
            with ThreadPoolExecutor(max_workers=1) as helper:
                feat_fit = helper.submit(fit, 1, labeled, it)
                fits = (fit(0, labeled, it), feat_fit.result())
        else:
            fits = (fit(0, labeled, it), fit(1, labeled, it))
        trained, logits, probs = zip(*fits)

        pred, _ = _average(*(p[test_nodes] for p in probs))
        record = IterationRecord(
            iteration=it,
            s_size=state.s_size,
            added_per_class_struct=added[0],
            added_per_class_feat=added[1],
            shortfall_struct=shortfall[0],
            shortfall_feat=shortfall[1],
            conflicts=conflicts,
            acc_struct=test_accuracy(logits[0][test_nodes].argmax(axis=1)),
            acc_feat=test_accuracy(logits[1][test_nodes].argmax(axis=1)),
            acc_ensemble=test_accuracy(pred),
            confusion=_confusion(test_labels, pred, g.C),
        )
        state.history.append(record)
        audit_state(state, g, split)

        pool = test_nodes[state.label[test_nodes] < 0]
        if it >= max_iters or not pool.size:
            state.final_logits = logits
            return (*trained, state)

        picks = [select_confident(pool, p[pool], budget) for p in probs]
        label, provenance, conflicts = resolve_conflicts(*picks, g.n)

        state.iteration = it + 1
        new = label >= 0  # all in the pool, so no label is overwritten
        state.label[new], state.provenance[new] = label[new], provenance[new]
        state.added_in[new] = state.iteration
        added = tuple(tuple(np.bincount(p[1], minlength=g.C).tolist()) for p in picks)
        shortfall = tuple(p[3] for p in picks)
