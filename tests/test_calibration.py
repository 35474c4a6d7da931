import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cograph import ValidationError, calibrate, fit_temperature, reliability
from cograph.calibration import (
    LOG_T_MAX,
    LOG_T_MIN,
    LOG_T_TOL,
    RELIABILITY_COLUMNS,
    nll,
    reliability_by_phase,
)
from cograph.cotrain import select_confident
from cograph.nn import softmax


def test_fit_recovers_unit_temperature_for_calibrated_source(rng):
    # oracle: draw labels from the exact softmax posterior of the logits;
    # the NLL minimizer over T is then ~1
    z = rng.normal(0.0, 2.0, size=(20000, 4))
    posterior = softmax(z)
    u = rng.random(20000)
    cdf = np.cumsum(posterior, axis=1)
    labels = (u[:, None] > cdf).sum(axis=1)
    T = fit_temperature(z, labels)
    assert abs(T - 1.0) < 0.05


def test_fit_degenerate_all_correct_pushes_to_lower_clamp():
    z = np.zeros((50, 3))
    z[:, 0] = 10.0
    T = fit_temperature(z, np.zeros(50, dtype=int))
    assert np.exp(-3.0) - 1e-12 <= T <= 0.06  # at/near the lower clamp


def test_fit_scaling_identity(rng):
    # labels drawn from the softmax posterior keep the optimum interior,
    # where NLL depends only on z / T
    z = rng.normal(0.0, 2.0, size=(5000, 5))
    posterior = softmax(z)
    u = rng.random(5000)
    labels = (u[:, None] > np.cumsum(posterior, axis=1)).sum(axis=1)
    T1 = fit_temperature(z, labels)
    T2 = fit_temperature(2.0 * z, labels)
    assert abs(np.log(T2) - np.log(2.0 * T1)) < 5e-3


def test_fitted_nll_never_worse_than_unit(rng):
    for trial in range(20):
        z = rng.normal(0.0, rng.uniform(0.3, 5.0), size=(60, 4))
        labels = rng.integers(0, 4, size=60)
        T = fit_temperature(z, labels)
        assert nll(z, labels, T) <= nll(z, labels, 1.0) + 1e-12


def test_fit_refuses_an_empty_validation_set():
    # no split has an empty validation set (NodeSplit), so there is no T to fall back on
    with pytest.raises(ValidationError, match="at least one row"):
        fit_temperature(np.zeros((0, 3)), np.zeros(0, dtype=int))


def test_nll_refuses_zero_rows():
    # the mean over no rows is 0 / 0; it must not come back as a NaN
    with pytest.raises(ValidationError, match="at least one row"):
        nll(np.zeros((0, 3)), np.zeros(0, dtype=int))


def test_reliability_refuses_zero_rows():
    # over no rows every bin is empty and the ECE would read 0, perfect calibration
    with pytest.raises(ValidationError, match="at least one row"):
        reliability(np.zeros((0, 3)), np.zeros(0, dtype=int))


def test_calibrate_unit_temperature_is_softmax(rng):
    z = rng.normal(size=(7, 3))
    assert calibrate(z, 1.0) == pytest.approx(softmax(z))


def test_calibrate_huge_temperature_is_uniform(rng):
    z = rng.uniform(-10, 10, size=(5, 4))
    probs = calibrate(z, 1e6)
    assert np.abs(probs - 0.25).max() < 1e-4


def test_calibrate_rejects_nonpositive_temperature():
    with pytest.raises(ValidationError):
        calibrate(np.zeros((1, 2)), 0.0)


@pytest.mark.parametrize("T", [np.nan, np.inf], ids=["nan", "inf"])
def test_calibrate_refuses_a_temperature_that_is_not_finite(T):
    # NaN fails every comparison, and an infinite T gives uniform rows
    with pytest.raises(ValidationError, match="positive and finite"):
        calibrate(np.zeros((1, 2)), T)


@settings(max_examples=50, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(2, 5)),
        elements=st.floats(-30, 30, allow_nan=False),
    ),
    st.sampled_from([0.5, 2.0, 10.0]),
)
def test_calibrate_preserves_argmax_and_simplex(z, T):
    # round so logit gaps are either exactly zero (consistent first-max
    # tie-break) or large enough to survive the softmax in float64
    z = np.round(z, 3)
    probs = calibrate(z, T)
    assert np.array_equal(probs.argmax(axis=1), z.argmax(axis=1))
    assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-9


def test_reliability_perfect_confident_predictions():
    probs = np.zeros((10, 2))
    probs[:, 1] = 1.0
    _, ece = reliability(probs, np.ones(10, dtype=int), bins=10)
    assert ece == pytest.approx(0.0)


def test_reliability_matched_half_confidence():
    # two-class coin: confidence 0.5 everywhere, accuracy 0.5 -> ECE 0
    probs = np.full((20, 2), 0.5)
    labels = np.array([0, 1] * 10)  # argmax ties resolve to class 0 -> 50% right
    _, ece = reliability(probs, labels, bins=10)
    assert ece == pytest.approx(0.0)


def test_reliability_single_bin_gap():
    # all confidence 0.9, accuracy 0.6 -> ECE 0.3
    probs = np.zeros((10, 2))
    probs[:, 0] = 0.9
    probs[:, 1] = 0.1
    labels = np.array([0] * 6 + [1] * 4)
    _, ece = reliability(probs, labels, bins=10)
    assert ece == pytest.approx(0.3)


def test_reliability_counts_sum_and_csv_rows(rng):
    logits = rng.normal(size=(40, 3))
    labels = rng.integers(0, 3, size=40)
    bin_rows, bins_ece = reliability(softmax(logits), labels, bins=10)
    assert sum(r["count"] for r in bin_rows) == 40
    rows = reliability_by_phase(logits, labels, 1.0, 10)
    assert [r["phase"] for r in rows] == ["uncalibrated"] * 10 + ["calibrated"] * 10
    assert all(list(r) == ["phase", *RELIABILITY_COLUMNS] for r in rows)
    rows = rows[:10]
    assert sum(r["count"] for r in rows) == 40
    # ECE re-derivable from the rows
    ece = sum(
        r["count"] / 40 * abs(r["accuracy"] - r["confidence"]) for r in rows if r["count"] > 0
    )
    assert ece == pytest.approx(bins_ece)


def test_reliability_needs_two_bins():
    with pytest.raises(ValidationError):
        reliability(np.full((2, 2), 0.5), np.zeros(2, dtype=int), bins=1)


def test_reliability_refuses_a_fractional_bin_count():
    with pytest.raises(ValidationError, match="bins must be an integer"):
        reliability(np.full((2, 2), 0.5), np.zeros(2, dtype=int), bins=2.5)


def test_nll_takes_logits_as_a_list():
    # a list used to meet TypeError at logits / T; fit_temperature and reliability convert theirs
    logits, labels = [[0.0, 1.0], [2.0, -1.0], [0.5, 0.5]], [1, 0, 1]
    assert nll(logits, labels, 1.5) == nll(np.array(logits), np.array(labels), 1.5)


BAD_LABELS = {
    "negative": [-1, 1, 2, 0, 1, 2],  # numpy indexing would read -1 as class C - 1
    "too-large": [5, 1, 2, 0, 1, 2],
    "too-few": [0, 1],
    "float": [0.0, 1.0, 2.0, 0.0, 1.0, 2.0],
}


@pytest.mark.parametrize("labels", BAD_LABELS.values(), ids=BAD_LABELS.keys())
@pytest.mark.parametrize(
    "entry",
    [nll, fit_temperature, lambda z, y: reliability(softmax(z), y)],
    ids=["nll", "fit_temperature", "reliability"],
)
def test_calibration_refuses_labels_that_are_not_class_ids(entry, labels):
    logits = np.random.default_rng(0).normal(size=(6, 3))
    with pytest.raises(ValidationError, match="target"):
        entry(logits, np.array(labels))


SCORE_ENTRIES = {
    "nll": lambda s: nll(s, np.zeros(3, dtype=int)),
    "fit_temperature": lambda s: fit_temperature(s, np.zeros(3, dtype=int)),
    "reliability": lambda s: reliability(s, np.zeros(3, dtype=int)),
    "calibrate": lambda s: calibrate(s, 1.0),
    "select_confident-int": lambda s: select_confident(np.arange(3), s, 2),
    "select_confident-quota": lambda s: select_confident(np.arange(3), s, (1, 1)),
}


@pytest.mark.parametrize("scores", [np.full(3, 0.5), np.full((3, 2, 2), 0.5)], ids=["1-d", "3-d"])
@pytest.mark.parametrize("entry", SCORE_ENTRIES.values(), ids=SCORE_ENTRIES.keys())
def test_score_entry_points_refuse_scores_that_are_not_2d(entry, scores):
    # such scores used to meet TypeError, IndexError or AxisError past the argument checks
    with pytest.raises(ValidationError, match=r"scores must be a 2-D \(rows, classes\) array"):
        entry(scores)


def test_calibration_never_changes_accuracy(rng):
    z = rng.normal(size=(50, 4))
    labels = rng.integers(0, 4, size=50)
    T = fit_temperature(z, labels)
    raw_acc = (z.argmax(axis=1) == labels).mean()
    cal_acc = (calibrate(z, T).argmax(axis=1) == labels).mean()
    assert raw_acc == cal_acc


ORACLE_SHAPES = [(1, 2), (1, 9), (2, 8), (37, 7), (140, 8), (270, 12)]


@pytest.mark.parametrize("n_val, C", ORACLE_SHAPES)
def test_fit_lands_on_the_scan_minimum(n_val, C):
    # oracle: a 6001-point scan of log T, one nll call per point; the fit
    # lies within LOG_T_TOL of a point whose NLL is within 1e-9 of the
    # scan's minimum. The first set has all-correct labels, whose NLL goes
    # flat at 0 for small T.
    scan = np.linspace(LOG_T_MIN, LOG_T_MAX, 6001)
    rng = np.random.default_rng(1000 * n_val + C)
    for trial in range(3):
        logits = rng.normal(size=(n_val, C)) * rng.uniform(0.05, 30.0)
        if trial == 0:
            labels = logits.argmax(axis=1)
        else:
            labels = rng.integers(0, C, size=n_val)
        values = np.array([nll(logits, labels, np.exp(t)) for t in scan])
        near_min = scan[values <= values.min() + 1e-9]
        fitted = np.log(fit_temperature(logits, labels))
        assert np.abs(near_min - fitted).min() <= LOG_T_TOL


def test_fit_working_memory_is_a_few_logit_copies():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(2000, 10))
    labels = rng.integers(0, 10, size=2000)
    tracemalloc.start()
    try:
        fit_temperature(logits, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * logits.nbytes
