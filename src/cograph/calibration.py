"""Temperature scaling and reliability statistics.

A single positive temperature T rescales logits before the softmax; it is
fit by minimizing negative log-likelihood on held-out validation nodes.
Dividing by a scalar never changes the argmax, so calibration never
changes any model's predicted labels.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .nn import log_softmax, softmax

LOG_T_MIN = -3.0
LOG_T_MAX = 3.0
LOG_T_TOL = 1e-3
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True, eq=False)
class ReliabilityBins:
    """Equal-width confidence bins with their empirical accuracies.

    ece is the count-weighted mean absolute gap between per-bin confidence
    and accuracy over nonempty bins.
    """

    edges: np.ndarray
    counts: np.ndarray
    mean_confidence: np.ndarray
    accuracy: np.ndarray
    ece: float


def nll(logits: np.ndarray, labels: np.ndarray, T: float = 1.0) -> float:
    """Mean negative log-likelihood of labels under softmax(logits / T)."""
    logp = log_softmax(np.asarray(logits) / T)
    rows = np.arange(logits.shape[0])
    return float(-logp[rows, np.asarray(labels)].mean())


def _nll_grid(logits: np.ndarray, labels: np.ndarray, log_ts: np.ndarray) -> list[float]:
    """nll(logits, labels, exp(t)) for each t in log_ts, bit for bit, from
    one (len(log_ts), n, C) pass. Each point's mean is taken on its own
    row: one mean over all rows at once sums in another order."""
    logp = log_softmax(logits / np.exp(log_ts)[:, None, None])
    picked = logp[:, np.arange(logits.shape[0]), labels]
    return [float(-row.mean()) for row in picked]


def fit_temperature(logits: np.ndarray, labels: np.ndarray) -> float:
    """Temperature minimizing validation NLL, by scalar search over log T.

    Coarse grid over log T in [-3, 3], then golden-section refinement to
    |delta log T| < 1e-3. T = 1 is always a candidate, so the fitted value
    never has worse NLL than the uncalibrated model. An empty validation
    set yields T = 1 with a warning.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.size == 0 or logits.shape[0] == 0:
        warnings.warn("empty validation set; temperature left at 1.0", stacklevel=2)
        return 1.0
    labels = np.asarray(labels)

    def objective(log_t: float) -> float:
        return nll(logits, labels, np.exp(log_t))

    grid = np.linspace(LOG_T_MIN, LOG_T_MAX, 121)
    values = _nll_grid(logits, labels, grid)
    best = int(np.argmin(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.size - 1)]

    # golden-section search on the bracketing interval
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > LOG_T_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = objective(d)
    log_t = (a + b) / 2.0
    T = float(np.exp(np.clip(log_t, LOG_T_MIN, LOG_T_MAX)))
    if objective(0.0) <= objective(np.log(T)):
        return 1.0
    return T


def calibrate(logits: np.ndarray, T: float) -> np.ndarray:
    """softmax(logits / T): rows sum to 1, argmax identical to the raw logits."""
    if T <= 0:
        raise ValidationError(f"temperature must be positive, got {T}")
    return softmax(np.asarray(logits, dtype=np.float64) / T)


def reliability(probs: np.ndarray, labels: np.ndarray, bins: int = 10) -> ReliabilityBins:
    """Bin predictions by confidence (max probability) and summarize each bin."""
    if bins < 2:
        raise ValidationError(f"need at least 2 bins, got {bins}")
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    confidence = probs.max(axis=1)
    correct = probs.argmax(axis=1) == labels

    edges = np.linspace(0.0, 1.0, bins + 1)
    which = np.minimum((confidence * bins).astype(np.int64), bins - 1)
    counts = np.bincount(which, minlength=bins)
    conf_sum = np.bincount(which, weights=confidence, minlength=bins)
    acc_sum = np.bincount(which, weights=correct.astype(np.float64), minlength=bins)

    nonempty = counts > 0
    mean_conf = np.where(nonempty, conf_sum / np.maximum(counts, 1), 0.0)
    acc = np.where(nonempty, acc_sum / np.maximum(counts, 1), 0.0)
    total = counts.sum()
    ece = float((counts[nonempty] / total * np.abs(acc[nonempty] - mean_conf[nonempty])).sum())
    return ReliabilityBins(
        edges=edges, counts=counts, mean_confidence=mean_conf, accuracy=acc, ece=ece
    )


# what each position of a reliability_rows tuple holds
RELIABILITY_COLUMNS = ("bin_low", "bin_high", "count", "confidence", "accuracy")


def reliability_rows(bins: ReliabilityBins) -> list[tuple[float, float, int, float, float]]:
    """CSV-ready rows, one per bin, in RELIABILITY_COLUMNS order."""
    return [
        (
            float(bins.edges[i]),
            float(bins.edges[i + 1]),
            int(bins.counts[i]),
            float(bins.mean_confidence[i]),
            float(bins.accuracy[i]),
        )
        for i in range(bins.counts.size)
    ]


def reliability_by_phase(logits: np.ndarray, labels: np.ndarray, T: float, bins: int) -> list[dict]:
    """Reliability rows before and after temperature T, each a mapping of
    "phase" ("uncalibrated" or "calibrated") and RELIABILITY_COLUMNS."""
    return [
        {"phase": phase, **dict(zip(RELIABILITY_COLUMNS, row))}
        for phase, temp in (("uncalibrated", 1.0), ("calibrated", T))
        for row in reliability_rows(reliability(calibrate(logits, temp), labels, bins))
    ]
