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


def test_fit_empty_validation_warns_and_returns_one():
    with pytest.warns(UserWarning):
        T = fit_temperature(np.zeros((0, 3)), np.zeros(0, dtype=int))
    assert T == 1.0


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
    bins = reliability(probs, np.ones(10, dtype=int), bins=10)
    assert bins.ece == pytest.approx(0.0)


def test_reliability_matched_half_confidence():
    # two-class coin: confidence 0.5 everywhere, accuracy 0.5 -> ECE 0
    probs = np.full((20, 2), 0.5)
    labels = np.array([0, 1] * 10)  # argmax ties resolve to class 0 -> 50% right
    bins = reliability(probs, labels, bins=10)
    assert bins.ece == pytest.approx(0.0)


def test_reliability_single_bin_gap():
    # all confidence 0.9, accuracy 0.6 -> ECE 0.3
    probs = np.zeros((10, 2))
    probs[:, 0] = 0.9
    probs[:, 1] = 0.1
    labels = np.array([0] * 6 + [1] * 4)
    bins = reliability(probs, labels, bins=10)
    assert bins.ece == pytest.approx(0.3)


def test_reliability_counts_sum_and_csv_rows(rng):
    logits = rng.normal(size=(40, 3))
    labels = rng.integers(0, 3, size=40)
    bins = reliability(softmax(logits), labels, bins=10)
    assert bins.counts.sum() == 40
    rows = reliability_by_phase(logits, labels, 1.0, 10)
    assert [r["phase"] for r in rows] == ["uncalibrated"] * 10 + ["calibrated"] * 10
    assert all(list(r) == ["phase", *RELIABILITY_COLUMNS] for r in rows)
    rows = rows[:10]
    assert sum(r["count"] for r in rows) == 40
    # ECE re-derivable from the rows
    ece = sum(
        r["count"] / 40 * abs(r["accuracy"] - r["confidence"]) for r in rows if r["count"] > 0
    )
    assert ece == pytest.approx(bins.ece)


def test_reliability_needs_two_bins():
    with pytest.raises(ValidationError):
        reliability(np.full((2, 2), 0.5), np.zeros(2, dtype=int), bins=1)


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
