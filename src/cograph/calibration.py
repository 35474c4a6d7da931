"""Temperature scaling and reliability statistics.

A single positive temperature T rescales logits before the softmax; it is
fit by minimizing negative log-likelihood on held-out validation nodes.
Dividing by a scalar never changes the argmax, so calibration never
changes any model's predicted labels.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError, require_int
from .nn import check_targets, score_shape, softmax, softmax_xent

LOG_T_MIN = -3.0
LOG_T_MAX = 3.0
LOG_T_TOL = 1e-3
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def nll(logits: np.ndarray, labels: np.ndarray, T: float = 1.0) -> float:
    """Mean negative log-likelihood of labels under softmax(logits / T):
    the loss the models train on, so a temperature is fit on that loss.
    labels must hold one class id in [0, C) per row of logits, and there
    must be a row: the mean over none is undefined."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    check_targets(labels, *score_shape(logits))
    if not labels.size:
        raise ValidationError("nll needs at least one row")
    return softmax_xent(logits / T, labels)[0]


def fit_temperature(logits: np.ndarray, labels: np.ndarray) -> float:
    """Temperature minimizing validation NLL, by scalar search over log T.

    One golden-section search over log T in [-3, 3], to |delta log T| <
    1e-3. NLL is convex in 1/T, so it has a single minimum over log T;
    ties keep the smaller T, so a flat NLL (all rows right, NLL 0) lands
    at the lower clamp. T = 1 is always a candidate, so the fitted value
    never has worse NLL than the uncalibrated model. With no rows, nll
    raises ValidationError.
    """
    logits = np.asarray(logits, dtype=np.float64)
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
    if not (T > 0 and math.isfinite(T)):
        raise ValidationError(f"temperature must be positive and finite, got {T}")
    logits = np.asarray(logits, dtype=np.float64)
    score_shape(logits)
    return softmax(logits / T)


# the keys of each reliability row, in CSV order
RELIABILITY_COLUMNS = ("bin_low", "bin_high", "count", "confidence", "accuracy")


def reliability(probs: np.ndarray, labels: np.ndarray, bins: int = 10) -> tuple[list[dict], float]:
    """Bin predictions by confidence (max probability) into equal-width bins.

    labels must hold one class id in [0, C) per row of probs, and there
    must be a row, as for nll: over none, every bin is empty and the ECE
    would read 0, perfect calibration. Returns one row per bin, a mapping
    of RELIABILITY_COLUMNS: the bin's edges, its count, and its mean
    confidence and accuracy (0 when empty). Also returns the ECE, the
    count-weighted mean absolute gap between confidence and accuracy over
    nonempty bins.
    """
    require_int("bins", bins, 2)
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    check_targets(labels, *score_shape(probs))
    if not labels.size:
        raise ValidationError("reliability needs at least one row")
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
    columns = (edges[:-1], edges[1:], counts, mean_conf, acc)
    rows = [dict(zip(RELIABILITY_COLUMNS, row)) for row in zip(*(c.tolist() for c in columns))]
    return rows, ece


def reliability_by_phase(logits: np.ndarray, labels: np.ndarray, T: float, bins: int) -> list[dict]:
    """Reliability rows before and after temperature T, one per bin and
    phase, each a mapping of "phase" ("uncalibrated" or "calibrated") and
    RELIABILITY_COLUMNS."""
    return [
        {"phase": phase, **row}
        for phase, temp in (("uncalibrated", 1.0), ("calibrated", T))
        for row in reliability(calibrate(logits, temp), labels, bins)[0]
    ]
