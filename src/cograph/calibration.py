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


def fit_temperature(logits: np.ndarray, labels: np.ndarray) -> float:
    """Temperature minimizing validation NLL, by scalar search over log T.

    One golden-section search over log T in [-3, 3], to |delta log T| <
    1e-3. NLL is convex in 1/T, so it has a single minimum over log T;
    ties keep the smaller T, so a flat NLL (all rows right, NLL 0) lands
    at the lower clamp. T = 1 is always a candidate, so the fitted value
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

    a, b = LOG_T_MIN, LOG_T_MAX
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > LOG_T_TOL:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = objective(d)
    T = float(np.exp((a + b) / 2.0))
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


# the columns of each reliability row, in CSV order
RELIABILITY_COLUMNS = ("bin_low", "bin_high", "count", "confidence", "accuracy")


def reliability_by_phase(logits: np.ndarray, labels: np.ndarray, T: float, bins: int) -> list[dict]:
    """Reliability rows before and after temperature T, one per bin and
    phase, each a mapping of "phase" ("uncalibrated" or "calibrated") and
    RELIABILITY_COLUMNS."""
    rows = []
    for phase, temp in (("uncalibrated", 1.0), ("calibrated", T)):
        b = reliability(calibrate(logits, temp), labels, bins)
        rows.extend(
            {
                "phase": phase,
                "bin_low": float(b.edges[i]),
                "bin_high": float(b.edges[i + 1]),
                "count": int(b.counts[i]),
                "confidence": float(b.mean_confidence[i]),
                "accuracy": float(b.accuracy[i]),
            }
            for i in range(b.counts.size)
        )
    return rows
