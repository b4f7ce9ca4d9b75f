"""Numpy neural-network primitives with hand-written backward passes.

Parameters live in flat ``dict[str, np.ndarray]`` maps keyed by dotted
prefixes ("venc.l1.w", "attn.wq", ...). Activations are row-batched: axis 0
indexes samples, so a batch of one is a ``(1, d)`` array and the same code
serves training, scoring and the gradient checks. Forward functions return
an output plus an opaque cache; backward functions consume the cache and
write each parameter's gradient, summed over the batch, into a grads dict.
A key already in the dict is written in place (``out=``) -- training passes
views into one flat buffer, so no gradient is copied -- and a missing key
gets a fresh array, so ``{}`` collects a backward pass's gradients. Writes
replace rather than sum: each parameter is used once per forward pass, and
a parameter read twice (the entity table, for subject and object) has its
rows summed by the caller before the one write.

The only nonlinearities are tanh and softmax, both smooth, so every gradient
here can be validated against central finite differences to tight tolerance;
:func:`finite_difference_check` does exactly that and is used by the test
suite and the verification command.
"""

from __future__ import annotations

import math

import numpy as np

Params = dict[str, np.ndarray]
Grads = dict[str, np.ndarray]


def check_labels(labels, name: str = "label", of: str = "class") -> np.ndarray:
    """``labels`` as a 1-D int64 array, or a ValueError naming the first
    entry that is not an integer (a bool or a float is not one). ``name``
    and ``of`` word the message: entity ids pass "entity id", "entity"."""
    array = np.asarray(labels)
    if array.ndim != 1:
        raise ValueError(f"{name}s must be one {of} index per row, got an array of shape {array.shape}")
    if isinstance(labels, np.ndarray) and array.dtype.kind in "iu":
        return array.astype(np.int64, copy=False)
    for row, label in enumerate(labels):
        if isinstance(label, (bool, np.bool_)) or not isinstance(label, (int, np.integer)):
            shown = label.item() if isinstance(label, np.generic) else label
            raise ValueError(f"{name} {shown!r} at row {row} is not an integer {of} index")
    try:
        return np.asarray(labels, dtype=np.int64)
    except OverflowError:  # an int beyond int64 is no index either
        raise ValueError(f"{name}s must be {of} indices, got {labels!r}") from None


def featurize_rows(kind: str, data: np.ndarray, alphabet: int) -> np.ndarray:
    """Fixed featurization of a ``(B, width)`` matrix of one kind, one view
    per row: vectors pass through, discrete views become length-normalized
    symbol counts (a bag of symbols; the first weight matrix consuming it
    acts as the symbol embedding table). Symbols must lie in ``[0, alphabet)``."""
    if kind == "vector":
        return data
    counts = (data[:, :, None] == np.arange(alphabet)).sum(axis=1).astype(np.float64)
    return counts / data.shape[1]


# --- linear ------------------------------------------------------------------


def linear_init(params: Params, rng: np.random.Generator, prefix: str, d_in: int, d_out: int) -> None:
    params[f"{prefix}.w"] = rng.normal(0.0, 1.0 / math.sqrt(d_in), size=(d_out, d_in))
    params[f"{prefix}.b"] = np.zeros(d_out)


def linear_forward(params: Params, prefix: str, x: np.ndarray):
    """``x`` is ``(B, d_in)``; returns ``(B, d_out)`` plus the cache."""
    w_key, b_key = f"{prefix}.w", f"{prefix}.b"
    y = x @ params[w_key].T + params[b_key]
    return y, (w_key, b_key, x)


def linear_backward(params: Params, cache, dy: np.ndarray, grads: Grads) -> np.ndarray:
    w_key, b_key, x = cache
    grads[w_key] = np.matmul(dy.T, x, out=grads.get(w_key))
    grads[b_key] = np.add.reduce(dy, axis=0, out=grads.get(b_key))
    return dy @ params[w_key]


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


def cross_attention(params: Params, prefix: str, query: np.ndarray, memory: np.ndarray):
    """Multi-query attention over a set of rows, one set per sample.

    ``query`` is ``(B, Q, d_q)`` and ``memory`` is ``(B, N, d_m)``: each of
    sample ``b``'s ``Q`` queries attends over its own ``N`` memory rows
    (pooling by attention, as in the Set Transformer). The rows are projected
    to keys and values once and shared by the ``Q`` queries; weights are a
    softmax over scaled dot products against each projected query, and the
    output ``(B, Q, d_o)`` is the weight-averaged projected value. No
    positional information enters, so each output row is invariant to
    permuting its sample's rows.
    """
    if query.ndim != 3 or memory.ndim != 3:
        raise ValueError("query must be (B, Q, d) and memory (B, N, d)")
    if query.shape[0] != memory.shape[0]:
        raise ValueError(f"query and memory need one batch size, got {query.shape[0]} and {memory.shape[0]}")
    if memory.shape[1] == 0:
        raise ValueError("empty attention set")
    weight_keys = (f"{prefix}.wq", f"{prefix}.wk", f"{prefix}.wv")
    wq, wk, wv = (params[key] for key in weight_keys)
    scale = 1.0 / math.sqrt(wq.shape[0])
    q_proj = query @ wq.T
    keys = memory @ wk.T
    scores = (q_proj @ keys.transpose(0, 2, 1)) * scale
    weights = np.exp(scores - scores.max(axis=2, keepdims=True))
    weights /= weights.sum(axis=2, keepdims=True)
    values = memory @ wv.T
    out = weights @ values
    cache = (weight_keys, query, memory, q_proj, keys, weights, values, scale)
    return out, cache


def cross_attention_backward(params: Params, cache, dout: np.ndarray, grads: Grads):
    """Gradients of :func:`cross_attention`; returns (dquery, dmemory), where
    ``dmemory`` is the keys path plus the values path."""
    (q_key, k_key, v_key), query, memory, q_proj, keys, weights, values, scale = cache
    wq, wk, wv = params[q_key], params[k_key], params[v_key]

    def flat(a):  # (B, R, d) -> (B * R, d)
        return a.reshape(-1, a.shape[2])

    grads[v_key] = np.matmul(flat(dout).T, flat(weights @ memory), out=grads.get(v_key))
    dm_values = weights.transpose(0, 2, 1) @ (dout @ wv)

    dweights = dout @ values.transpose(0, 2, 1)
    dscores = weights * (dweights - (weights * dweights).sum(axis=2, keepdims=True)) * scale

    dkeys = dscores.transpose(0, 2, 1) @ q_proj
    dq_proj = dscores @ keys
    grads[k_key] = np.matmul(flat(dkeys).T, flat(memory), out=grads.get(k_key))
    dm_keys = dkeys @ wk
    grads[q_key] = np.matmul(flat(dq_proj).T, flat(query), out=grads.get(q_key))
    dquery = dq_proj @ wq
    return dquery, dm_keys + dm_values


# --- loss ---------------------------------------------------------------------


def softmax_xent(logits: np.ndarray, labels: np.ndarray):
    """Per-row cross-entropy in nats with the max-subtraction trick.

    ``logits`` is ``(B, C)`` and ``labels`` holds ``B`` integer class
    indices; returns (losses ``(B,)``, d losses / d logits ``(B, C)``),
    where row ``b`` of the gradient is that of loss ``b`` alone.
    """
    labels = check_labels(labels)
    # as unsigned, a negative label exceeds every class count
    if labels.shape != logits.shape[:1] or (len(labels) and labels.view(np.uint64).max() >= logits.shape[1]):
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


def finite_difference_check(params: Params, loss_fn, analytic: Grads) -> float:
    """Max relative error between ``analytic`` and central differences.

    ``loss_fn`` must be a zero-argument closure over ``params`` (entries are
    perturbed in place by 1e-5 and restored). The relative error for one
    entry is ``|a - n| / max(|a|, |n|, 1e-6)``; the floor keeps near-zero
    gradients from amplifying finite-difference round-off into false alarms.
    """
    epsilon, floor = 1e-5, 1e-6
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
            rel = abs(flat_g[idx] - numeric) / max(abs(flat_g[idx]), abs(numeric), floor)
            worst = max(worst, rel)
    return worst
