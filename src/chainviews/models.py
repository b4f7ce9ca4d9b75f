"""Teacher and student networks plus the shared training loop.

The teacher never sees the real view: it classifies a synthetic view from
the entity pair and the view alone, so its per-sample loss measures how much
label evidence survived the generation chain. The student fuses the real
view with a *set* of synthetic views through one two-query cross-attention
call: the subject and object queries, each built from the real encoding and
one entity, attend over the synthetic encodings, which are projected to keys
and values once; the two attended vectors are concatenated, and a
feedforward stage plus linear head produce logits. The unimodal baseline is
the student with the synthetic branch removed. Every layer width follows
from one ``width`` (:func:`_widths`); the unimodal model's from ``WIDTH``.

All three expose ``params``, ``inputs(...)``, ``logits(inputs)`` and
``loss_and_grads(inputs, labels)``, which is what :func:`train` and the
gradient checker operate on. Rows are samples: ``inputs`` checks view
batches and entity ids once and featurizes them into one tuple of ``B``-row
arrays -- the teacher's ``(x_v, subj, obj)``, the student's ``(x_u, x_v,
subj, obj)`` with ``x_v`` ``(B, N, d)``, the unimodal model's ``(x_u, subj,
obj)`` -- and ``logits`` maps that tuple to ``(B, C)``. Each model has one
``_forward`` and one ``_backward``, so a batch of one takes the same path
as a training batch. :func:`train` runs Adam on the mean batch loss at a
constant learning rate: each step's backward pass writes the gradients
straight into the optimizer's flat gradient buffer, laid out like its flat
parameters, and :class:`AdamW` steps both in place. Called without that
buffer, ``loss_and_grads`` returns fresh arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import MODALITY_U, MODALITY_V, DatasetSchema, ViewBatch, check_int, check_number
from .nn import (
    Grads,
    Params,
    attention_init,
    check_labels,
    cross_attention,
    cross_attention_backward,
    featurize_rows,
    finite_difference_check,
    linear_backward,
    linear_forward,
    linear_init,
    mlp_backward,
    mlp_forward,
    mlp_init,
    softmax_xent,
)

class ModalityError(ValueError):
    """A view arrived on the wrong side of a model."""


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss. ``phase`` names the model from its
    train stream: "teacher, selection 0", "student", "unimodal"."""

    def __init__(self, step: int, rng_stream: tuple = ("train",)):
        name = str(rng_stream[0]).removesuffix("-train")
        self.phase = f"{name}, selection {rng_stream[1]}" if len(rng_stream) > 1 else name
        self.step = step
        super().__init__(f"{self.phase} training: loss became non-finite at optimizer step {step}")


def _feature_rows(batch: ViewBatch, spec, modality: str, message: str) -> np.ndarray:
    """Feature rows of a non-empty batch of views on ``modality``."""
    if batch.modality != modality:
        raise ModalityError(message)
    if not len(batch):
        raise ValueError("a batch needs at least one sample")
    return featurize_rows(batch.kind, batch.data, spec.size)


def _ids(ids, n: int, vocab: int) -> np.ndarray:
    """Entity ids as ``n`` rows; one id stands for all ``n``. An id outside
    ``[0, vocab)`` is a ValueError naming it and its row."""
    rows = np.atleast_1d(ids) if np.ndim(ids) == 0 else ids
    rows = check_labels(rows, "entity id", "entity")
    outside = np.flatnonzero((rows < 0) | (rows >= vocab))
    if len(outside):
        raise ValueError(f"entity id {rows[outside[0]]} at row {outside[0]} is outside the vocabulary [0, {vocab})")
    return np.broadcast_to(rows, (n,))


def _entity_grad(grads: Grads, table: np.ndarray, subj, obj, d_subj, d_obj) -> None:
    # the one write of the table's gradient; np.add.at sums repeated ids,
    # where fancy-index += would keep only one row
    g = grads.get("entity_emb")
    if g is None:
        g = grads["entity_emb"] = np.zeros_like(table)
    else:
        g.fill(0.0)
    np.add.at(g, subj, d_subj)
    np.add.at(g, obj, d_obj)


# The two public methods every model shares. Each class binds them in its own
# body, so every model class owns its ``logits`` and ``loss_and_grads``
# attributes (benchmarks/tracing.py wraps them per class).


def _logits(model, inputs) -> np.ndarray:
    """``(B, C)`` logits of ``B`` inputs, one row per input."""
    return model._forward(inputs)[0]


def _loss_and_grads(model, inputs, labels, grads: Grads | None = None) -> tuple[np.ndarray, Grads]:
    """Per-sample losses ``(B,)`` of ``B`` inputs against their ``B`` labels,
    plus the gradients of their mean: written into ``grads``, which must
    hold an array for every parameter key (:func:`train` passes its
    optimizer's buffer), or into fresh arrays when ``grads`` is None."""
    logits, cache = model._forward(inputs)
    losses, dlogits = softmax_xent(logits, labels)
    dlogits /= len(losses)
    grads = {} if grads is None else grads
    model._backward(cache, dlogits, grads)
    return losses, grads


WIDTH = 16  # the default width; the unimodal model has no other


def _widths(width: int) -> tuple[int, int, int]:
    """The widths of a model of ``width``: every hidden layer; the entity
    embedding, each encoder's output, the queries and the keys; the fusion
    or feed-forward output."""
    check_int("width", width, 2)
    return width, width // 2, 3 * width // 4


class TeacherModel:
    """Entity embeddings + synthetic-view encoder + fusion head; a row is a
    v-side view and an entity pair."""

    def __init__(self, rng: np.random.Generator, schema: DatasetSchema, width: int = WIDTH):
        hidden, narrow, fused = _widths(width)
        self.schema = schema
        self.params: Params = {}
        self.params["entity_emb"] = rng.normal(0.0, 0.5, size=(schema.entity_vocab, narrow))
        mlp_init(self.params, rng, "venc", schema.v_spec.size, hidden, narrow)
        mlp_init(self.params, rng, "fuse", 3 * narrow, hidden, fused)
        linear_init(self.params, rng, "head", fused, schema.class_count)

    logits = _logits
    loss_and_grads = _loss_and_grads

    def inputs(self, views: ViewBatch, subj, obj) -> tuple:
        x_v = _feature_rows(views, self.schema.v_spec, MODALITY_V, "the teacher scores v-side views only")
        return x_v, _ids(subj, len(x_v), self.schema.entity_vocab), _ids(obj, len(x_v), self.schema.entity_vocab)

    def _forward(self, inputs):
        x, subj, obj = inputs
        enc, c_enc = mlp_forward(self.params, "venc", x)
        table = self.params["entity_emb"]
        fused_in = np.concatenate([table[subj], table[obj], enc], axis=1)
        fused, c_fuse = mlp_forward(self.params, "fuse", fused_in)
        logits, c_head = linear_forward(self.params, "head", fused)
        return logits, (subj, obj, c_enc, c_fuse, c_head)

    def _backward(self, cache, dlogits: np.ndarray, grads: Grads) -> None:
        subj, obj, c_enc, c_fuse, c_head = cache
        emb = self.params["entity_emb"].shape[1]
        dfused = linear_backward(self.params, c_head, dlogits, grads)
        dfused_in = mlp_backward(self.params, c_fuse, dfused, grads)
        mlp_backward(self.params, c_enc, dfused_in[:, 2 * emb :], grads)
        _entity_grad(grads, self.params["entity_emb"], subj, obj, dfused_in[:, :emb], dfused_in[:, emb : 2 * emb])


class StudentModel:
    """Real-view plus synthetic-set fusion via cross-attention.

    A row is a u-side real view, a non-empty set of ``N`` v-side views (the
    same ``N`` in every row) and an entity pair. The subject and object
    queries are stacked into one ``(B, 2, d)`` array and attend in one
    :func:`cross_attention` call (and one backward call), so each row's
    synthetic encodings are projected to keys and values once.
    """

    def __init__(self, rng: np.random.Generator, schema: DatasetSchema, width: int = WIDTH):
        hidden, narrow, fused = _widths(width)
        self.schema = schema
        self.params: Params = {}
        self.params["entity_emb"] = rng.normal(0.0, 0.5, size=(schema.entity_vocab, narrow))
        mlp_init(self.params, rng, "uenc", schema.u_spec.size, hidden, narrow)
        mlp_init(self.params, rng, "venc", schema.v_spec.size, hidden, narrow)
        linear_init(self.params, rng, "qsub", 2 * narrow, narrow)
        linear_init(self.params, rng, "qobj", 2 * narrow, narrow)
        # the residual around the attention needs values as wide as the queries
        attention_init(self.params, rng, "attn", narrow, narrow, narrow, narrow)
        mlp_init(self.params, rng, "ff", 2 * narrow, hidden, fused)
        linear_init(self.params, rng, "head", fused, schema.class_count)

    logits = _logits
    loss_and_grads = _loss_and_grads

    def inputs(self, real: ViewBatch, synth: ViewBatch, subj, obj) -> tuple:
        """``synth`` holds the same number of v-side views for each real
        view, in real-view order."""
        x_u = _feature_rows(real, self.schema.u_spec, MODALITY_U, "the student's primary input is the u-side real view")
        if not len(synth) or len(synth) % len(x_u):
            raise ValueError(
                f"the student needs the same positive number of synthetic views per real view, "
                f"got {len(synth)} synthetic views for {len(x_u)} real views"
            )
        x_v = _feature_rows(synth, self.schema.v_spec, MODALITY_V, "synthetic inputs to the student must be v-side views")
        x_v = x_v.reshape(len(x_u), len(synth) // len(x_u), -1)
        return x_u, x_v, _ids(subj, len(x_u), self.schema.entity_vocab), _ids(obj, len(x_u), self.schema.entity_vocab)

    def _forward(self, inputs):
        x_u, x_v, subj, obj = inputs
        real_enc, c_real = mlp_forward(self.params, "uenc", x_u)
        table = self.params["entity_emb"]
        q_sub, c_qsub = linear_forward(self.params, "qsub", np.concatenate([real_enc, table[subj]], axis=1))
        q_obj, c_qobj = linear_forward(self.params, "qobj", np.concatenate([real_enc, table[obj]], axis=1))
        queries = np.concatenate([q_sub, q_obj], axis=1).reshape(len(q_sub), 2, -1)

        rows, c_rows = mlp_forward(self.params, "venc", x_v.reshape(-1, x_v.shape[2]))
        matrix = rows.reshape(x_v.shape[0], x_v.shape[1], rows.shape[1])
        att, c_att = cross_attention(self.params, "attn", queries, matrix)

        # residual around the attention: the query (real view + entity) stays
        # on the path to the head even when every synthetic view is junk;
        # the (B, 2, d) rows flatten to [subject | object]
        ff_in = (queries + att).reshape(len(queries), -1)
        fused, c_ff = mlp_forward(self.params, "ff", ff_in)
        logits, c_head = linear_forward(self.params, "head", fused)
        return logits, (subj, obj, c_real, c_qsub, c_qobj, c_rows, c_att, c_ff, c_head)

    def _backward(self, cache, dlogits: np.ndarray, grads: Grads) -> None:
        subj, obj, c_real, c_qsub, c_qobj, c_rows, c_att, c_ff, c_head = cache
        dfused = linear_backward(self.params, c_head, dlogits, grads)
        d_att = mlp_backward(self.params, c_ff, dfused, grads).reshape(len(dfused), 2, -1)

        dq, dmatrix = cross_attention_backward(self.params, c_att, d_att, grads)
        mlp_backward(self.params, c_rows, dmatrix.reshape(-1, dmatrix.shape[2]), grads)

        dq += d_att
        dq_sub_in = linear_backward(self.params, c_qsub, dq[:, 0], grads)
        dq_obj_in = linear_backward(self.params, c_qobj, dq[:, 1], grads)
        emb = self.params["entity_emb"].shape[1]
        mlp_backward(self.params, c_real, dq_sub_in[:, :-emb] + dq_obj_in[:, :-emb], grads)
        _entity_grad(grads, self.params["entity_emb"], subj, obj, dq_sub_in[:, -emb:], dq_obj_in[:, -emb:])


class UnimodalModel:
    """Real-view encoder + entity embeddings + linear head (no synthetics);
    a row is a u-side view and an entity pair."""

    def __init__(self, rng: np.random.Generator, schema: DatasetSchema):
        hidden, narrow, _ = _widths(WIDTH)
        self.schema = schema
        self.params: Params = {}
        self.params["entity_emb"] = rng.normal(0.0, 0.5, size=(schema.entity_vocab, narrow))
        mlp_init(self.params, rng, "uenc", schema.u_spec.size, hidden, narrow)
        linear_init(self.params, rng, "head", 3 * narrow, schema.class_count)

    logits = _logits
    loss_and_grads = _loss_and_grads

    def inputs(self, real: ViewBatch, subj, obj) -> tuple:
        x_u = _feature_rows(real, self.schema.u_spec, MODALITY_U, "the unimodal model consumes u-side views")
        return x_u, _ids(subj, len(x_u), self.schema.entity_vocab), _ids(obj, len(x_u), self.schema.entity_vocab)

    def _forward(self, inputs):
        x_u, subj, obj = inputs
        real_enc, c_real = mlp_forward(self.params, "uenc", x_u)
        table = self.params["entity_emb"]
        head_in = np.concatenate([real_enc, table[subj], table[obj]], axis=1)
        logits, c_head = linear_forward(self.params, "head", head_in)
        return logits, (subj, obj, c_real, c_head)

    def _backward(self, cache, dlogits: np.ndarray, grads: Grads) -> None:
        subj, obj, c_real, c_head = cache
        emb = self.params["entity_emb"].shape[1]
        dhead_in = linear_backward(self.params, c_head, dlogits, grads)
        mlp_backward(self.params, c_real, dhead_in[:, :emb], grads)
        _entity_grad(grads, self.params["entity_emb"], subj, obj, dhead_in[:, emb : 2 * emb], dhead_in[:, 2 * emb :])


# --- training -----------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    steps: int = 200
    batch_size: int = 32

    def __post_init__(self):
        check_number("learning_rate", self.learning_rate)
        check_int("steps", self.steps, 0)
        check_int("batch_size", self.batch_size, 1)


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class AdamW:
    """Adam with betas 0.9 and 0.999 and eps 1e-8 (``ADAM_BETA1``,
    ``ADAM_BETA2``, ``ADAM_EPS``) -- AdamW with no weight decay. The values
    of ``params`` become reshaped views into one flat buffer, and ``grads``
    maps each key to the same-shaped view into a second flat buffer, so a
    backward pass that writes into ``grads`` leaves a step nothing to gather.
    A step updates the moments and the parameters in place."""

    def __init__(self, params: Params):
        self.flat = np.concatenate([np.ravel(w) for w in params.values()])
        self.grad = np.zeros_like(self.flat)
        self.grads: Grads = {}
        offset = 0
        for key, w in params.items():
            params[key] = self.flat[offset : offset + w.size].reshape(w.shape)
            self.grads[key] = self.grad[offset : offset + w.size].reshape(w.shape)
            offset += w.size
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self._scratch = (np.empty_like(self.flat), np.empty_like(self.flat))
        self.t = 0

    def step(self, lr: float) -> None:
        """One update from the optimizer's own ``grads`` as they stand."""
        self.t += 1
        # m = B1 * m + (1 - B1) * g and v = B2 * v + (1 - B2) * g * g, then
        # flat -= lr * (m_hat / (sqrt(v_hat) + eps)), op for op in place
        g, m, v = self.grad, self.m, self.v
        update, v_hat = self._scratch
        m *= ADAM_BETA1
        m += np.multiply(g, 1 - ADAM_BETA1, out=update)
        v *= ADAM_BETA2
        np.multiply(g, 1 - ADAM_BETA2, out=update)
        v += np.multiply(update, g, out=update)
        np.divide(m, 1 - ADAM_BETA1**self.t, out=update)
        np.divide(v, 1 - ADAM_BETA2**self.t, out=v_hat)
        np.sqrt(v_hat, out=v_hat)
        v_hat += ADAM_EPS
        update /= v_hat
        update *= lr
        self.flat -= update


def train(model, inputs: tuple, labels, config: TrainConfig, seed: int, rng_stream=("train",)):
    """Run Adam on mean batch loss at ``config.learning_rate``; returns
    (model, per_sample_losses).

    ``inputs`` is the model's tuple of row arrays (see its ``inputs``) and
    ``labels`` one integer class index per row; nothing is featurized here.
    Batches are contiguous chunks of a per-epoch permutation, all from the
    run's ``seed`` and the model's ``rng_stream``, so identical (config,
    seed, inputs, labels) always produce identical parameters. Each epoch
    gathers its rows once, in permuted order, and each step slices its batch
    from them. Every step hands ``model.loss_and_grads`` the optimizer's
    gradient buffer (:attr:`AdamW.grads`) to write into. The returned losses
    come from one final frozen pass over all rows in input order.
    """
    from .rng import derive_rng

    labels = check_labels(labels)
    n = len(labels)
    if not n:
        raise ValueError("cannot train on an empty sample list")
    if any(len(a) != n for a in inputs):
        raise ValueError(f"every input array needs one row per label ({n})")
    rng = derive_rng(seed, *rng_stream)
    optimizer = AdamW(model.params)
    size = config.batch_size
    cursor = n  # the first step draws the first epoch
    # a diverging run overflows before its loss turns non-finite; the check
    # below reports it once, naming the phase, instead of numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(config.steps):
            if cursor >= n:
                # gather only the rows the remaining steps reach
                order = rng.permutation(n)[: (config.steps - step) * size]
                epoch, epoch_labels = tuple(a[order] for a in inputs), labels[order]
                cursor = 0
            end = cursor + size
            losses, _ = model.loss_and_grads(
                tuple(a[cursor:end] for a in epoch), epoch_labels[cursor:end], optimizer.grads
            )
            cursor = end
            if not np.isfinite(losses).all():
                raise TrainingDivergedError(step, rng_stream)
            optimizer.step(config.learning_rate)

        epoch = epoch_labels = None  # hold no gathered rows over the frozen pass, the peak of memory
        losses, _ = softmax_xent(model.logits(inputs), labels)
        if not np.isfinite(losses).all():  # the last step diverged
            raise TrainingDivergedError(config.steps, rng_stream)
    return model, losses


def grad_check(model, inputs: tuple, labels) -> float:
    """Max relative error of the model's analytic gradients of the mean loss
    of ``inputs`` (the model's row arrays) against ``labels``."""
    labels = check_labels(labels)
    _, analytic = model.loss_and_grads(inputs, labels)

    def loss_fn():
        return float(np.mean(softmax_xent(model.logits(inputs), labels)[0]))

    return finite_difference_check(model.params, loss_fn, analytic)
