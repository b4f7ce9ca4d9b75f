"""Numpy neural-network primitives with hand-written backward passes.

Parameters live in flat ``dict[str, np.ndarray]`` maps keyed by dotted
prefixes ("venc.l1.w", "attn.wq", ...). Activations are row-batched: axis 0
indexes samples, so a batch of one is a ``(1, d)`` array and the same code
serves training, scoring and the gradient checks. Forward functions return
an output plus an opaque cache; backward functions consume the cache and
accumulate parameter gradients, summed over the batch, into a grads dict,
which makes weight sharing (the same prefix used twice in one forward pass)
work without any extra machinery.

The only nonlinearities are tanh and softmax, both smooth, so every gradient
here can be validated against central finite differences to tight tolerance;
:func:`finite_difference_check` does exactly that and is used by the test
suite and the verification command.
"""

from __future__ import annotations

import math

import numpy as np

from .datamodel import View

Params = dict[str, np.ndarray]
Grads = dict[str, np.ndarray]


def accumulate(grads: Grads, key: str, value: np.ndarray) -> None:
    if key in grads:
        grads[key] += value
    else:
        grads[key] = np.array(value, dtype=np.float64)


def featurize(view: View, alphabet: int | None = None) -> np.ndarray:
    """Fixed featurization: vectors pass through, discrete views become
    length-normalized symbol counts (a bag of symbols; the first weight
    matrix consuming it acts as the symbol embedding table)."""
    if view.kind == "vector":
        return view.data
    if alphabet is None:
        raise ValueError("discrete views need the alphabet size to featurize")
    counts = np.bincount(view.data, minlength=alphabet).astype(np.float64)
    return counts / view.data.shape[0]


# --- linear ------------------------------------------------------------------


def linear_init(params: Params, rng: np.random.Generator, prefix: str, d_in: int, d_out: int) -> None:
    params[f"{prefix}.w"] = rng.normal(0.0, 1.0 / math.sqrt(d_in), size=(d_out, d_in))
    params[f"{prefix}.b"] = np.zeros(d_out)


def linear_forward(params: Params, prefix: str, x: np.ndarray):
    """``x`` is ``(B, d_in)``; returns ``(B, d_out)`` plus the cache."""
    y = x @ params[f"{prefix}.w"].T + params[f"{prefix}.b"]
    return y, (prefix, x)


def linear_backward(params: Params, cache, dy: np.ndarray, grads: Grads) -> np.ndarray:
    prefix, x = cache
    accumulate(grads, f"{prefix}.w", dy.T @ x)
    accumulate(grads, f"{prefix}.b", dy.sum(axis=0))
    return dy @ params[f"{prefix}.w"]


# --- one-hidden-layer encoder ------------------------------------------------


def mlp_init(
    params: Params, rng: np.random.Generator, prefix: str, d_in: int, hidden: int, d_out: int
) -> None:
    linear_init(params, rng, f"{prefix}.l1", d_in, hidden)
    linear_init(params, rng, f"{prefix}.l2", hidden, d_out)


def mlp_forward(params: Params, prefix: str, x: np.ndarray):
    a, c1 = linear_forward(params, f"{prefix}.l1", x)
    h = np.tanh(a)
    y, c2 = linear_forward(params, f"{prefix}.l2", h)
    return y, (c1, c2, h)


def mlp_backward(params: Params, cache, dy: np.ndarray, grads: Grads) -> np.ndarray:
    c1, c2, h = cache
    dh = linear_backward(params, c2, dy, grads)
    da = dh * (1.0 - h * h)
    return linear_backward(params, c1, da, grads)


# --- scaled dot-product cross-attention --------------------------------------


def attention_init(
    params: Params, rng: np.random.Generator, prefix: str, d_q: int, d_m: int, d_k: int, d_o: int
) -> None:
    params[f"{prefix}.wq"] = rng.normal(0.0, 1.0 / math.sqrt(d_q), size=(d_k, d_q))
    params[f"{prefix}.wk"] = rng.normal(0.0, 1.0 / math.sqrt(d_m), size=(d_k, d_m))
    params[f"{prefix}.wv"] = rng.normal(0.0, 1.0 / math.sqrt(d_m), size=(d_o, d_m))


def cross_attention(params: Params, prefix: str, query: np.ndarray, m_keys: np.ndarray, m_values: np.ndarray):
    """Single-query attention over a set of rows, one set per sample.

    ``query`` is ``(B, d_q)`` and ``m_keys`` / ``m_values`` are ``(B, N, d_m)``:
    sample ``b``'s query attends over its own ``N`` rows (pooling by
    attention, as in the Set Transformer). Keys and values are projected per
    row, weights are a softmax over scaled dot products against the projected
    query, and the output ``(B, d_o)`` is the weight-averaged projected value.
    No positional information enters, so each output row is invariant to
    permuting its sample's rows.
    """
    if m_keys.ndim != 3 or m_values.ndim != 3 or m_keys.shape[:2] != m_values.shape[:2]:
        raise ValueError("keys and values must be (B, N, d) with matching B and N")
    if m_keys.shape[1] == 0:
        raise ValueError("empty attention set")
    wq, wk, wv = params[f"{prefix}.wq"], params[f"{prefix}.wk"], params[f"{prefix}.wv"]
    scale = 1.0 / math.sqrt(wq.shape[0])
    q_proj = query @ wq.T
    keys = m_keys @ wk.T
    scores = np.einsum("bnk,bk->bn", keys, q_proj) * scale
    weights = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    values = m_values @ wv.T
    out = np.einsum("bn,bno->bo", weights, values)
    cache = (prefix, query, m_keys, m_values, q_proj, keys, weights, values, scale)
    return out, cache


def cross_attention_backward(params: Params, cache, dout: np.ndarray, grads: Grads):
    """Gradients of :func:`cross_attention`; returns (dquery, dm_keys, dm_values)."""
    prefix, query, m_keys, m_values, q_proj, keys, weights, values, scale = cache
    wq, wk, wv = params[f"{prefix}.wq"], params[f"{prefix}.wk"], params[f"{prefix}.wv"]

    accumulate(grads, f"{prefix}.wv", dout.T @ np.einsum("bn,bnm->bm", weights, m_values))
    dm_values = weights[:, :, None] * (dout @ wv)[:, None, :]

    dweights = np.einsum("bno,bo->bn", values, dout)
    dscores = weights * (dweights - (weights * dweights).sum(axis=1, keepdims=True))

    dkeys = dscores[:, :, None] * q_proj[:, None, :] * scale
    dq_proj = np.einsum("bn,bnk->bk", dscores, keys) * scale
    accumulate(grads, f"{prefix}.wk", np.einsum("bnk,bnm->km", dkeys, m_keys))
    dm_keys = dkeys @ wk
    accumulate(grads, f"{prefix}.wq", dq_proj.T @ query)
    dquery = dq_proj @ wq
    return dquery, dm_keys, dm_values


# --- loss ---------------------------------------------------------------------


def softmax_xent(logits: np.ndarray, labels: np.ndarray):
    """Per-row cross-entropy in nats with the max-subtraction trick.

    ``logits`` is ``(B, C)`` and ``labels`` holds ``B`` class indices;
    returns (losses ``(B,)``, d losses / d logits ``(B, C)``), where row
    ``b`` of the gradient is that of loss ``b`` alone.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != logits.shape[:1] or np.any((labels < 0) | (labels >= logits.shape[1])):
        raise ValueError(f"labels must be one class index per row, each below {logits.shape[1]}")
    rows = np.arange(logits.shape[0])
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    z = exp.sum(axis=1)
    losses = np.log(z) - shifted[rows, labels]
    dlogits = exp / z[:, None]
    dlogits[rows, labels] -= 1.0
    return losses, dlogits


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-probabilities of ``(B, C)`` logits."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


# --- finite-difference validation ---------------------------------------------


def finite_difference_check(
    params: Params,
    loss_fn,
    analytic: Grads,
    epsilon: float = 1e-5,
    denominator_floor: float = 1e-6,
) -> float:
    """Max relative error between ``analytic`` and central differences.

    ``loss_fn`` must be a zero-argument closure over ``params`` (entries are
    perturbed in place and restored). The relative error for one entry is
    ``|a - n| / max(|a|, |n|, floor)``; the floor keeps near-zero gradients
    from amplifying finite-difference round-off into false alarms.
    """
    worst = 0.0
    for key in params:
        w = params[key]
        g = analytic.get(key)
        if g is None:
            g = np.zeros_like(w)
        flat_w = w.reshape(-1)
        flat_g = np.asarray(g).reshape(-1)
        for idx in range(flat_w.shape[0]):
            original = flat_w[idx]
            flat_w[idx] = original + epsilon
            plus = loss_fn()
            flat_w[idx] = original - epsilon
            minus = loss_fn()
            flat_w[idx] = original
            numeric = (plus - minus) / (2.0 * epsilon)
            rel = abs(flat_g[idx] - numeric) / max(abs(flat_g[idx]), abs(numeric), denominator_floor)
            worst = max(worst, rel)
    return worst
