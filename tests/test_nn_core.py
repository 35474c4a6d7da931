import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cograph import ValidationError
from cograph.nn import (
    AdamState,
    TrainHyper,
    adam_step,
    finite_diff_check,
    init_params,
    load_params_csv,
    save_params_csv,
    sgd_step,
    softmax,
    softmax_xent,
)


def test_glorot_range_bound():
    params = init_params([(2, 3, True)], seed=0)
    limit = np.sqrt(6.0 / 5.0)
    assert np.abs(params["W0"]).max() <= limit
    assert params["W0"].shape == (2, 3)


def test_init_determinism():
    a = init_params([(4, 5, True), (5, 2, True)], seed=9)
    b = init_params([(4, 5, True), (5, 2, True)], seed=9)
    assert all(np.array_equal(a[k], b[k]) for k in a)


def test_biases_init_to_zero():
    params = init_params([(3, 4, True)], seed=1)
    assert np.array_equal(params["b0"], np.zeros(4))


def test_no_bias_layers_have_no_bias():
    params = init_params([(3, 4, False)], seed=1)
    assert "b0" not in params


def test_hyper_defaults_match_reference_protocol():
    h = TrainHyper()
    assert h.learning_rate == 0.01
    assert h.weight_decay == 5e-4
    assert h.dropout == 0.5
    assert h.epochs == 200


def test_hyper_validation():
    with pytest.raises(ValidationError):
        TrainHyper(learning_rate=0.0)
    with pytest.raises(ValidationError):
        TrainHyper(dropout=1.0)
    with pytest.raises(ValidationError):
        TrainHyper(epochs=0)
    with pytest.raises(ValidationError):
        TrainHyper(optimizer="lbfgs")


def test_xent_uniform_logits_loss_is_log_c():
    logits = np.zeros((6, 4))
    loss, _ = softmax_xent(logits, np.zeros(6, dtype=int), np.arange(6))
    assert loss == pytest.approx(np.log(4.0))


def test_xent_saturated_correct_logit():
    logits = np.full((3, 5), -1000.0)
    logits[np.arange(3), [1, 2, 3]] = 1000.0
    loss, _ = softmax_xent(logits, np.array([1, 2, 3]), np.arange(3))
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_xent_gradient_matches_finite_differences(rng):
    logits = rng.normal(size=(5, 3))
    targets = rng.integers(0, 3, size=5)
    mask = np.array([0, 2, 4])
    _, grad = softmax_xent(logits, targets, mask)
    eps = 1e-6
    for i in range(5):
        for j in range(3):
            up = logits.copy()
            up[i, j] += eps
            down = logits.copy()
            down[i, j] -= eps
            fd = (
                softmax_xent(up, targets, mask)[0] - softmax_xent(down, targets, mask)[0]
            ) / (2 * eps)
            assert abs(fd - grad[i, j]) / max(abs(fd), abs(grad[i, j]), 1e-8) < 1e-5


def test_xent_gradient_zero_outside_mask(rng):
    logits = rng.normal(size=(4, 3))
    _, grad = softmax_xent(logits, np.zeros(4, dtype=int), np.array([1]))
    assert np.abs(grad[[0, 2, 3]]).max() == 0.0


def test_xent_empty_mask_rejected():
    with pytest.raises(ValidationError):
        softmax_xent(np.zeros((2, 2)), np.zeros(2, dtype=int), np.array([], dtype=int))


@settings(max_examples=50, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(2, 5)),
        elements=st.floats(-50, 50, allow_nan=False),
    )
)
def test_softmax_rows_sum_to_one(logits):
    rows = softmax(logits).sum(axis=1)
    assert np.abs(rows - 1.0).max() <= 1e-9


def test_adam_zero_grad_is_fixed_point():
    params = {"W0": np.array([[1.0, -2.0]])}
    state = AdamState.for_params(params)
    hyper = TrainHyper(weight_decay=0.0)
    adam_step(params, {k: np.zeros_like(v) for k, v in params.items()}, state, 1, hyper)
    assert np.array_equal(params["W0"], np.array([[1.0, -2.0]]))


def test_adam_first_step_is_lr_times_sign():
    hyper = TrainHyper(learning_rate=0.01, weight_decay=0.0)
    for g in (3.0, -0.25, 1e-3):
        params = {"W0": np.array([[0.0]])}
        state = AdamState.for_params(params)
        adam_step(params, {"W0": np.array([[g]])}, state, 1, hyper)
        assert params["W0"].item() == pytest.approx(-0.01 * np.sign(g), rel=1e-4)


def test_adam_quadratic_bowl_converges():
    # f(w) = w^2 from w=1: 200 steps at lr 0.01 must reach |w| < 0.1
    params = {"W0": np.array([[1.0]])}
    state = AdamState.for_params(params)
    hyper = TrainHyper(learning_rate=0.01, weight_decay=0.0)
    for t in range(1, 201):
        adam_step(params, {"W0": 2.0 * params["W0"]}, state, t, hyper)
    assert abs(params["W0"].item()) < 0.1


def test_adam_weight_decay_on_weights_not_biases():
    params = {"W0": np.array([[1.0]]), "b0": np.array([1.0])}
    state = AdamState.for_params(params)
    hyper = TrainHyper(learning_rate=0.01, weight_decay=0.1)
    adam_step(params, {k: np.zeros_like(v) for k, v in params.items()}, state, 1, hyper)
    assert params["W0"].item() < 1.0  # decayed
    assert params["b0"].item() == 1.0  # untouched


def test_adam_shape_mismatch_rejected():
    params = {"W0": np.zeros((2, 2))}
    state = AdamState.for_params(params)
    with pytest.raises(ValidationError):
        adam_step(params, {"W0": np.zeros((3, 3))}, state, 1, TrainHyper())


def test_sgd_step():
    params = {"W0": np.array([[1.0]])}
    hyper = TrainHyper(learning_rate=0.5, weight_decay=0.0)
    sgd_step(params, {"W0": np.array([[1.0]])}, hyper)
    assert params["W0"].item() == pytest.approx(0.5)


def test_finite_diff_linear_model_exact(rng):
    X = rng.normal(size=(6, 3))
    y = rng.normal(size=6)
    params = {"W0": rng.normal(size=(3, 1))}

    def loss_fn(p):
        r = X @ p["W0"].ravel() - y
        return float(r @ r) / 6.0

    def grad_fn(p):
        r = X @ p["W0"].ravel() - y
        return {"W0": (2.0 / 6.0) * (X.T @ r)[:, None]}

    assert finite_diff_check(loss_fn, grad_fn, params, eps=1e-5) < 1e-8


def test_finite_diff_two_layer_tanh(rng):
    X = rng.normal(size=(5, 4))
    y = rng.integers(0, 3, size=5)
    params = {"W0": 0.5 * rng.normal(size=(4, 6)), "W1": 0.5 * rng.normal(size=(6, 3))}

    def forward(p):
        h = np.tanh(X @ p["W0"])
        return h @ p["W1"], h

    def loss_fn(p):
        logits, _ = forward(p)
        return softmax_xent(logits, y, np.arange(5))[0]

    def grad_fn(p):
        logits, h = forward(p)
        _, gl = softmax_xent(logits, y, np.arange(5))
        gW1 = h.T @ gl
        gh = gl @ p["W1"].T
        gz = gh * (1.0 - h * h)
        return {"W0": X.T @ gz, "W1": gW1}

    assert finite_diff_check(loss_fn, grad_fn, params, eps=1e-4) < 1e-4


def test_params_csv_roundtrip(tmp_path, rng):
    params = {"W0": rng.normal(size=(3, 2)), "b0": rng.normal(size=2)}
    save_params_csv(params, tmp_path / "ckpt.csv")
    back = load_params_csv(tmp_path / "ckpt.csv")
    assert all(np.array_equal(params[k], back[k]) for k in params)
