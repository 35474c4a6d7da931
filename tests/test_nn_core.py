import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cograph import ValidationError
from cograph.nn import (
    AdamState,
    TrainHyper,
    adam_step,
    dropout_input,
    init_params,
    load_params_csv,
    save_params_csv,
    softmax,
    softmax_xent,
)
from helpers import finite_diff_check


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
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="learning_rate"):
            TrainHyper(learning_rate=bad)
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(ValidationError, match="weight_decay"):
            TrainHyper(weight_decay=bad)


def test_xent_uniform_logits_loss_is_log_c():
    logits = np.zeros((6, 4))
    loss, _ = softmax_xent(logits, np.zeros(6, dtype=int))
    assert loss == pytest.approx(np.log(4.0))


def test_xent_saturated_correct_logit():
    logits = np.full((3, 5), -1000.0)
    logits[np.arange(3), [1, 2, 3]] = 1000.0
    loss, _ = softmax_xent(logits, np.array([1, 2, 3]))
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_xent_mean_over_rescales_loss_and_gradient(rng):
    """mean_over=k divides the summed row losses by k: the default loss and
    gradient times rows / k, and the default bits when k is the row count."""
    logits = rng.normal(size=(7, 4))
    targets = rng.integers(0, 4, size=7)
    loss, grad = softmax_xent(logits, targets)
    loss_k, grad_k = softmax_xent(logits, targets, mean_over=20)
    assert loss_k == pytest.approx(loss * 7 / 20, rel=1e-12)
    assert np.allclose(grad_k, grad * 7 / 20, rtol=1e-12, atol=0.0)
    same_loss, same_grad = softmax_xent(logits, targets, mean_over=7)
    assert same_loss == loss and same_grad.tobytes() == grad.tobytes()


def test_xent_gradient_matches_finite_differences(rng):
    # the loss rows are gathered first, as train_submodel gathers the labeled rows
    rows = np.array([0, 2, 4])
    logits = rng.normal(size=(5, 3))[rows]
    targets = rng.integers(0, 3, size=5)[rows]
    _, grad = softmax_xent(logits, targets)
    eps = 1e-6
    for i in range(rows.size):
        for j in range(3):
            up = logits.copy()
            up[i, j] += eps
            down = logits.copy()
            down[i, j] -= eps
            fd = (softmax_xent(up, targets)[0] - softmax_xent(down, targets)[0]) / (2 * eps)
            assert abs(fd - grad[i, j]) / max(abs(fd), abs(grad[i, j]), 1e-8) < 1e-5


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
    adam_step(state, 1, TrainHyper(weight_decay=0.0))
    assert np.array_equal(params["W0"], np.array([[1.0, -2.0]]))


def test_adam_first_step_is_lr_times_sign():
    hyper = TrainHyper(learning_rate=0.01, weight_decay=0.0)
    for g in (3.0, -0.25, 1e-3):
        params = {"W0": np.array([[0.0]])}
        state = AdamState.for_params(params)
        state.grads["W0"][...] = g
        adam_step(state, 1, hyper)
        assert params["W0"].item() == pytest.approx(-0.01 * np.sign(g), rel=1e-4)


def test_adam_quadratic_bowl_converges():
    # f(w) = w^2 from w=1: 200 steps at lr 0.01 must reach |w| < 0.1
    params = {"W0": np.array([[1.0]])}
    state = AdamState.for_params(params)
    hyper = TrainHyper(learning_rate=0.01, weight_decay=0.0)
    for t in range(1, 201):
        np.multiply(params["W0"], 2.0, out=state.grads["W0"])
        adam_step(state, t, hyper)
    assert abs(params["W0"].item()) < 0.1


def test_adam_weight_decay_on_weights_not_biases():
    params = {"W0": np.array([[1.0]]), "b0": np.array([1.0])}
    state = AdamState.for_params(params)
    adam_step(state, 1, TrainHyper(learning_rate=0.01, weight_decay=0.1))
    assert params["W0"].item() < 1.0  # decayed
    assert params["b0"].item() == 1.0  # untouched


def test_adam_state_rehomes_params_weights_first_in_their_order():
    params = init_params([(3, 4, True), (4, 2, True)], seed=5)
    before = {k: v.copy() for k, v in params.items()}
    state = AdamState.for_params(params)
    assert list(params) == ["W0", "b0", "W1", "b1"]
    assert all(np.array_equal(params[k], before[k]) for k in before)
    # one buffer: W0, W1, then b0, b1; weight decay covers the weights' prefix
    assert all(p.base is state.flat for p in params.values())
    offsets = [params[k].ctypes.data for k in ("W0", "W1", "b0", "b1")]
    assert offsets == sorted(offsets) and state.n_decay == 3 * 4 + 4 * 2
    assert state.flat.size == sum(p.size for p in params.values())


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
        return softmax_xent(logits, y)[0]

    def grad_fn(p):
        logits, h = forward(p)
        _, gl = softmax_xent(logits, y)
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


def _dropout_input(name):
    """Negative, zero and positive values, dense or CSR (with stored zeros)."""
    rng = np.random.default_rng(4)
    dense = rng.normal(size=(12, 9))
    dense[rng.random(dense.shape) < 0.4] = 0.0
    if name == "dense":
        return dense
    csr = sp.csr_matrix(dense)
    csr.data[::7] = 0.0  # explicit zeros are stored values too
    return csr if name == "csr" else csr[[7, 2, 2, 10]]


@pytest.mark.parametrize("rate", [0.3, 0.5])
@pytest.mark.parametrize("name", ["dense", "csr", "csr-rows"])
def test_dropout_matches_where_oracle(name, rate):
    x = _dropout_input(name)
    values = x.data if sp.issparse(x) else x
    before = values.copy()
    if sp.issparse(x):
        indices, indptr = x.indices.copy(), x.indptr.copy()
    rng, oracle_rng = np.random.default_rng(11), np.random.default_rng(11)
    out = dropout_input(x, rate, rng)
    keep = 1.0 - rate
    expected = np.where(oracle_rng.random(values.shape) < keep, values / keep, 0.0)
    got = out.data if sp.issparse(out) else out
    assert (values < 0).any() and (expected == 0.0).any()
    # same bits, sign of zero included: dropped negatives come out +0.0
    assert got.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    assert values.tobytes() == before.tobytes()
    if sp.issparse(x):
        assert out.format == "csr" and out.shape == x.shape
        assert np.array_equal(x.indices, indices) and np.array_equal(x.indptr, indptr)
        assert np.shares_memory(out.indices, x.indices)
        assert np.shares_memory(out.indptr, x.indptr)


@pytest.mark.parametrize("name", ["dense", "csr"])
def test_dropout_off_is_identity(name):
    x = _dropout_input(name)
    rng = np.random.default_rng(11)
    state = rng.bit_generator.state
    assert dropout_input(x, 0.0, rng) is x
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("fmt", ["csc", "coo"])
def test_dropout_reads_other_sparse_formats_as_csr(fmt):
    rng = np.random.default_rng(4)
    dense = rng.normal(size=(12, 9)) * (rng.random((12, 9)) < 0.6)
    csr = sp.csr_matrix(dense)
    x = csr.asformat(fmt)
    out = dropout_input(x, 0.5, np.random.default_rng(11))
    expected = dropout_input(csr, 0.5, np.random.default_rng(11))
    assert out.format == "csr" and out.shape == x.shape
    assert out.toarray().tobytes() == expected.toarray().tobytes()
    assert np.array_equal(x.toarray(), dense)
