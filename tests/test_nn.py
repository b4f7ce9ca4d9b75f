"""Layer forwards against formula oracles; gradients against finite differences."""

import math

import numpy as np
import pytest

from chainviews import nn
from chainviews.datamodel import MODALITY_V, discrete_view, vector_view
from chainviews.rng import derive_rng


# --- forward oracles -----------------------------------------------------------


def test_linear_forward_formula():
    params = {}
    nn.linear_init(params, derive_rng(0, "lin"), "lin", 3, 2)
    x = np.array([[0.5, -1.0, 2.0], [1.0, 0.0, -3.0]])
    y, _ = nn.linear_forward(params, "lin", x)
    assert y.shape == (2, 2)
    for row, out in zip(x, y):
        np.testing.assert_allclose(out, params["lin.w"] @ row + params["lin.b"], atol=1e-15)


def test_mlp_forward_formula():
    params = {}
    nn.mlp_init(params, derive_rng(0, "mlp"), "enc", 3, 5, 2)
    x = np.array([[1.0, 0.0, -0.5]])
    y, _ = nn.mlp_forward(params, "enc", x)
    hidden = np.tanh(params["enc.l1.w"] @ x[0] + params["enc.l1.b"])
    np.testing.assert_allclose(y[0], params["enc.l2.w"] @ hidden + params["enc.l2.b"], atol=1e-15)


def test_cross_attention_matches_dense_reimplementation():
    # random 4-row case recomputed with explicit softmax weights
    params = {}
    rng = derive_rng(0, "attn")
    d_q, d_m, d_k, d_o = 3, 4, 5, 2
    nn.attention_init(params, rng, "ca", d_q, d_m, d_k, d_o)
    q = rng.normal(size=d_q)
    keys = rng.normal(size=(4, d_m))
    values = rng.normal(size=(4, d_m))
    (out,), _ = nn.cross_attention(params, "ca", q[None], keys[None], values[None])

    scores = (keys @ params["ca.wk"].T) @ (params["ca.wq"] @ q) / math.sqrt(d_k)
    weights = np.exp(scores - scores.max())
    weights /= weights.sum()
    expected = (values @ params["ca.wv"].T).T @ weights
    assert abs(weights.sum() - 1.0) < 1e-12
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_cross_attention_single_row():
    # softmax over one element puts all weight on the single projected value
    params = {}
    rng = derive_rng(1, "attn1")
    nn.attention_init(params, rng, "ca", 3, 4, 5, 2)
    q = rng.normal(size=3)
    row = rng.normal(size=(1, 4))
    (out,), _ = nn.cross_attention(params, "ca", q[None], row[None], row[None])
    np.testing.assert_allclose(out, params["ca.wv"] @ row[0], atol=1e-12)


def test_cross_attention_duplication_invariance():
    params = {}
    rng = derive_rng(2, "attn2")
    nn.attention_init(params, rng, "ca", 3, 4, 5, 2)
    q = rng.normal(size=3)
    keys = rng.normal(size=(3, 4))
    values = rng.normal(size=(3, 4))
    base, _ = nn.cross_attention(params, "ca", q[None], keys[None], values[None])
    doubled, _ = nn.cross_attention(
        params, "ca", q[None], np.vstack([keys, keys])[None], np.vstack([values, values])[None]
    )
    np.testing.assert_allclose(base, doubled, atol=1e-12)


def test_cross_attention_rejects_empty_set():
    params = {}
    nn.attention_init(params, derive_rng(0, "e"), "ca", 3, 4, 5, 2)
    with pytest.raises(ValueError, match="empty"):
        nn.cross_attention(params, "ca", np.zeros((1, 3)), np.zeros((1, 0, 4)), np.zeros((1, 0, 4)))


def test_cross_attention_rows_are_independent_sets():
    # each query attends over its own set only: a batch of three equals three one-set calls
    params = {}
    rng = derive_rng(4, "attn-batch")
    nn.attention_init(params, rng, "ca", 3, 4, 5, 2)
    q = rng.normal(size=(3, 3))
    keys = rng.normal(size=(3, 6, 4))
    values = rng.normal(size=(3, 6, 4))
    batched, _ = nn.cross_attention(params, "ca", q, keys, values)
    for b in range(3):
        single, _ = nn.cross_attention(params, "ca", q[b : b + 1], keys[b : b + 1], values[b : b + 1])
        np.testing.assert_allclose(batched[b], single[0], atol=1e-12)


def test_batched_cross_attention_gradients_match_finite_differences():
    params = {}
    rng = derive_rng(5, "attn-batch-grad")
    nn.attention_init(params, rng, "ca", 4, 5, 3, 4)
    params["query"] = rng.normal(size=(3, 4))
    params["keys"] = rng.normal(size=(3, 6, 5))
    params["values"] = rng.normal(size=(3, 6, 5))
    probe = rng.normal(size=(3, 4))

    def loss_fn():
        out, _ = nn.cross_attention(params, "ca", params["query"], params["keys"], params["values"])
        return float(np.sum(probe * out))

    _, cache = nn.cross_attention(params, "ca", params["query"], params["keys"], params["values"])
    grads = {}
    grads["query"], grads["keys"], grads["values"] = nn.cross_attention_backward(params, cache, probe, grads)
    assert nn.finite_difference_check(params, loss_fn, grads) < 1e-4


# --- losses ------------------------------------------------------------------------


def test_xent_uniform_logits():
    (loss,), _ = nn.softmax_xent(np.zeros((1, 4)), [2])
    assert abs(loss - math.log(4)) < 1e-12  # ln 4 ~ 1.3863


def test_xent_saturated_correct_prediction():
    logits = np.zeros((1, 4))
    logits[0, 1] = 1e6
    (loss,), _ = nn.softmax_xent(logits, [1])
    assert 0.0 <= loss < 1e-6


def test_xent_label_out_of_range():
    with pytest.raises(ValueError):
        nn.softmax_xent(np.zeros((1, 3)), [3])


def test_xent_gradient_formula_and_finite_difference():
    rng = derive_rng(3, "xent")
    logits = rng.normal(size=5)
    label = 2
    _, (grad,) = nn.softmax_xent(logits[None], [label])
    soft = np.exp(logits - logits.max())
    soft /= soft.sum()
    onehot = np.eye(5)[label]
    np.testing.assert_allclose(grad, soft - onehot, atol=1e-12)
    # central differences, worst relative error < 1e-6
    eps = 1e-5
    worst = 0.0
    for i in range(5):
        bump = np.zeros(5)
        bump[i] = eps
        (up,), _ = nn.softmax_xent((logits + bump)[None], [label])
        (down,), _ = nn.softmax_xent((logits - bump)[None], [label])
        numeric = (up - down) / (2 * eps)
        worst = max(worst, abs(numeric - grad[i]) / max(abs(numeric), abs(grad[i]), 1e-6))
    assert worst < 1e-6


def test_xent_rows_are_per_sample_losses():
    rng = derive_rng(6, "xent-batch")
    logits = rng.normal(size=(4, 5))
    labels = [0, 3, 3, 1]
    losses, grads = nn.softmax_xent(logits, labels)
    for b in range(4):
        (loss,), (grad,) = nn.softmax_xent(logits[b : b + 1], labels[b : b + 1])
        assert abs(losses[b] - loss) < 1e-12
        np.testing.assert_allclose(grads[b], grad, atol=1e-12)


def test_log_softmax_normalizes():
    logits = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]])
    np.testing.assert_allclose(np.exp(nn.log_softmax(logits)).sum(axis=1), 1.0, atol=1e-12)


# --- featurize -----------------------------------------------------------------------


def test_featurize_passes_vectors_through():
    view = vector_view([1.5, -2.0], MODALITY_V)
    np.testing.assert_array_equal(nn.featurize(view, 2), [1.5, -2.0])


def test_featurize_normalized_symbol_counts():
    view = discrete_view([0, 2, 2, 1], MODALITY_V)
    np.testing.assert_array_equal(nn.featurize(view, 4), [0.25, 0.25, 0.5, 0.0])


# --- gradient machinery ----------------------------------------------------------------


def linear_loss_setup(seed):
    params = {}
    rng = derive_rng(seed, "fd")
    nn.linear_init(params, rng, "lin", 4, 3)
    x = rng.normal(size=(1, 4))
    label = [int(rng.integers(3))]

    def loss_fn():
        y, _ = nn.linear_forward(params, "lin", x)
        (loss,), _ = nn.softmax_xent(y, label)
        return loss

    def analytic():
        y, cache = nn.linear_forward(params, "lin", x)
        _, dy = nn.softmax_xent(y, label)
        grads = {}
        nn.linear_backward(params, cache, dy, grads)
        return grads

    return params, loss_fn, analytic


def test_finite_difference_check_passes_on_correct_gradients():
    params, loss_fn, analytic = linear_loss_setup(0)
    assert nn.finite_difference_check(params, loss_fn, analytic()) < 1e-6


def test_finite_difference_check_catches_a_corrupted_gradient():
    # meta-test: a sign flip must blow past any reasonable tolerance
    params, loss_fn, analytic = linear_loss_setup(1)
    grads = analytic()
    grads["lin.w"] = -grads["lin.w"]
    assert nn.finite_difference_check(params, loss_fn, grads) > 0.1


def test_finite_difference_check_treats_missing_keys_as_zero():
    params, loss_fn, analytic = linear_loss_setup(2)
    grads = analytic()
    del grads["lin.b"]
    assert nn.finite_difference_check(params, loss_fn, grads) > 0.1
