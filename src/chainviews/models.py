"""Teacher and student networks plus the shared training loop.

The teacher never sees the real view: it classifies a synthetic view from
the entity pair and the view alone, so its per-sample loss measures how much
label evidence survived the generation chain. The student fuses the real
view with a *set* of synthetic views through shared single-query
cross-attention: entity-conditioned queries built from the real encoding
attend over the synthetic encodings, the two attended vectors are
concatenated, and a feedforward stage plus linear head produce logits. The
unimodal baseline is the student with the synthetic branch removed.

All three expose the same surface -- ``params``, ``logits(inputs)``,
``loss_and_grads(batch)`` -- which is what :func:`train` and the gradient
checker operate on. Rows are samples: ``logits`` maps a sequence of ``B``
input tuples to ``(B, C)`` logits, and a batch is a sequence of
``(inputs, label)`` samples. Each model has one ``_forward`` and one
``_backward`` over row-batched arrays, so a batch of one takes the same
path as a training batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .datamodel import MODALITY_U, MODALITY_V, DatasetSchema, EntityPair
from .nn import (
    Grads,
    Params,
    accumulate,
    attention_init,
    cross_attention,
    cross_attention_backward,
    featurize,
    finite_difference_check,
    linear_backward,
    linear_forward,
    linear_init,
    mlp_backward,
    mlp_forward,
    mlp_init,
    softmax_xent,
)

CHECKPOINT_VERSION = 1


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


def _spec_feature_dim(spec) -> int:
    return spec.size


def _columns(inputs) -> tuple:
    """Transpose a batch of tuples: one tuple per field, one entry per sample."""
    if len(inputs) == 0:
        raise ValueError("a batch needs at least one sample")
    return tuple(zip(*inputs))


def _features(views, spec, modality: str, message: str) -> np.ndarray:
    """``(len(views), d)`` feature rows; every view must be on ``modality``."""
    if any(view.modality != modality for view in views):
        raise ModalityError(message)
    return np.stack([featurize(view, spec.size) for view in views])


def _entity_ids(entities: Sequence[EntityPair]) -> tuple[np.ndarray, np.ndarray]:
    return np.array([e.subject for e in entities]), np.array([e.object for e in entities])


def _entity_grad(grads: Grads, table: np.ndarray, subj, obj, d_subj, d_obj) -> None:
    # np.add.at sums repeated ids; fancy-index += would keep only one row
    g = np.zeros_like(table)
    np.add.at(g, subj, d_subj)
    np.add.at(g, obj, d_obj)
    accumulate(grads, "entity_emb", g)


# The two public methods every model shares. Each class binds them in its own
# body, so every model class owns its ``logits`` and ``loss_and_grads``
# attributes (benchmarks/tracing.py wraps them per class).


def _logits(model, inputs) -> np.ndarray:
    """``(B, C)`` logits of a sequence of ``B`` inputs, one row per input."""
    return model._forward(inputs)[0]


def _loss_and_grads(model, batch) -> tuple[np.ndarray, Grads]:
    """Per-sample losses ``(B,)`` of a batch of ``(inputs, label)`` samples,
    plus the gradients of their mean."""
    inputs, labels = _columns(batch)
    logits, cache = model._forward(inputs)
    losses, dlogits = softmax_xent(logits, labels)
    grads: Grads = {}
    model._backward(cache, dlogits / len(batch), grads)
    return losses, grads


class TeacherModel:
    """Entity embeddings + synthetic-view encoder + fusion head.

    An input is ``(view, entities)`` with a v-side view.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        schema: DatasetSchema,
        emb_dim: int = 8,
        enc_hidden: int = 16,
        enc_dim: int = 8,
        fuse_hidden: int = 16,
        fuse_dim: int = 12,
    ):
        self.schema = schema
        self.params: Params = {}
        self.params["entity_emb"] = rng.normal(0.0, 0.5, size=(schema.entity_vocab, emb_dim))
        feat = _spec_feature_dim(schema.v_spec)
        mlp_init(self.params, rng, "venc", feat, enc_hidden, enc_dim)
        mlp_init(self.params, rng, "fuse", 2 * emb_dim + enc_dim, fuse_hidden, fuse_dim)
        linear_init(self.params, rng, "head", fuse_dim, schema.class_count)
        self._emb_dim = emb_dim

    logits = _logits
    loss_and_grads = _loss_and_grads

    def _forward(self, inputs):
        views, entities = _columns(inputs)
        x = _features(views, self.schema.v_spec, MODALITY_V, "the teacher scores v-side views only")
        enc, c_enc = mlp_forward(self.params, "venc", x)
        subj, obj = _entity_ids(entities)
        table = self.params["entity_emb"]
        fused_in = np.concatenate([table[subj], table[obj], enc], axis=1)
        fused, c_fuse = mlp_forward(self.params, "fuse", fused_in)
        logits, c_head = linear_forward(self.params, "head", fused)
        return logits, (subj, obj, c_enc, c_fuse, c_head)

    def _backward(self, cache, dlogits: np.ndarray, grads: Grads) -> None:
        subj, obj, c_enc, c_fuse, c_head = cache
        emb = self._emb_dim
        dfused = linear_backward(self.params, c_head, dlogits, grads)
        dfused_in = mlp_backward(self.params, c_fuse, dfused, grads)
        mlp_backward(self.params, c_enc, dfused_in[:, 2 * emb :], grads)
        _entity_grad(grads, self.params["entity_emb"], subj, obj, dfused_in[:, :emb], dfused_in[:, emb : 2 * emb])


class StudentModel:
    """Real-view plus synthetic-set fusion via shared cross-attention.

    An input is ``(real_view, synth_views, entities)``: a u-side real view
    and a non-empty tuple of v-side views. All samples in one call carry the
    same number of synthetic views, so the sets stack into ``(B, N, d)``.
    ``shared_attention=False`` gives the subject and object queries separate
    attention blocks; the default shares one block across both applications.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        schema: DatasetSchema,
        emb_dim: int = 8,
        real_hidden: int = 16,
        real_dim: int = 8,
        synth_hidden: int = 16,
        synth_dim: int = 8,
        query_dim: int = 8,
        key_dim: int = 8,
        value_dim: int = 8,
        ff_hidden: int = 16,
        ff_dim: int = 12,
        shared_attention: bool = True,
    ):
        if query_dim != value_dim:
            raise ValueError("the residual around the attention needs query_dim == value_dim")
        self.schema = schema
        self.shared_attention = shared_attention
        self.params: Params = {}
        self.params["entity_emb"] = rng.normal(0.0, 0.5, size=(schema.entity_vocab, emb_dim))
        mlp_init(self.params, rng, "uenc", _spec_feature_dim(schema.u_spec), real_hidden, real_dim)
        mlp_init(self.params, rng, "venc", _spec_feature_dim(schema.v_spec), synth_hidden, synth_dim)
        linear_init(self.params, rng, "qsub", real_dim + emb_dim, query_dim)
        linear_init(self.params, rng, "qobj", real_dim + emb_dim, query_dim)
        attention_init(self.params, rng, "attn", query_dim, synth_dim, key_dim, value_dim)
        if not shared_attention:
            attention_init(self.params, rng, "attn2", query_dim, synth_dim, key_dim, value_dim)
        mlp_init(self.params, rng, "ff", 2 * value_dim, ff_hidden, ff_dim)
        linear_init(self.params, rng, "head", ff_dim, schema.class_count)
        self._emb_dim = emb_dim

    logits = _logits
    loss_and_grads = _loss_and_grads

    def _forward(self, inputs):
        real_views, synth_sets, entities = _columns(inputs)
        x_u = _features(
            real_views, self.schema.u_spec, MODALITY_U, "the student's primary input is the u-side real view"
        )
        set_sizes = {len(views) for views in synth_sets}
        if 0 in set_sizes:
            raise ValueError("the student needs at least one synthetic view")
        if len(set_sizes) > 1:
            raise ValueError(
                f"every sample in a batch needs the same number of synthetic views, got {sorted(set_sizes)}"
            )
        x_v = _features(
            [view for views in synth_sets for view in views],
            self.schema.v_spec,
            MODALITY_V,
            "synthetic inputs to the student must be v-side views",
        )

        real_enc, c_real = mlp_forward(self.params, "uenc", x_u)
        subj, obj = _entity_ids(entities)
        table = self.params["entity_emb"]
        q_sub, c_qsub = linear_forward(self.params, "qsub", np.concatenate([real_enc, table[subj]], axis=1))
        q_obj, c_qobj = linear_forward(self.params, "qobj", np.concatenate([real_enc, table[obj]], axis=1))

        rows, c_rows = mlp_forward(self.params, "venc", x_v)
        matrix = rows.reshape(len(synth_sets), len(synth_sets[0]), rows.shape[1])

        attn2 = "attn" if self.shared_attention else "attn2"
        att_sub, c_att_sub = cross_attention(self.params, "attn", q_sub, matrix, matrix)
        att_obj, c_att_obj = cross_attention(self.params, attn2, q_obj, matrix, matrix)

        # residual around the attention: the query (real view + entity) stays
        # on the path to the head even when every synthetic view is junk
        ff_in = np.concatenate([q_sub + att_sub, q_obj + att_obj], axis=1)
        fused, c_ff = mlp_forward(self.params, "ff", ff_in)
        logits, c_head = linear_forward(self.params, "head", fused)
        return logits, (subj, obj, c_real, c_qsub, c_qobj, c_rows, c_att_sub, c_att_obj, c_ff, c_head)

    def _backward(self, cache, dlogits: np.ndarray, grads: Grads) -> None:
        subj, obj, c_real, c_qsub, c_qobj, c_rows, c_att_sub, c_att_obj, c_ff, c_head = cache
        dfused = linear_backward(self.params, c_head, dlogits, grads)
        dff_in = mlp_backward(self.params, c_ff, dfused, grads)
        value_dim = dff_in.shape[1] // 2
        d_att_sub = dff_in[:, :value_dim]
        d_att_obj = dff_in[:, value_dim:]

        dq_sub, dm_sub_k, dm_sub_v = cross_attention_backward(self.params, c_att_sub, d_att_sub, grads)
        dq_obj, dm_obj_k, dm_obj_v = cross_attention_backward(self.params, c_att_obj, d_att_obj, grads)
        dmatrix = dm_sub_k + dm_sub_v + dm_obj_k + dm_obj_v
        mlp_backward(self.params, c_rows, dmatrix.reshape(-1, dmatrix.shape[2]), grads)

        dq_sub_in = linear_backward(self.params, c_qsub, dq_sub + d_att_sub, grads)
        dq_obj_in = linear_backward(self.params, c_qobj, dq_obj + d_att_obj, grads)
        emb = self._emb_dim
        mlp_backward(self.params, c_real, dq_sub_in[:, :-emb] + dq_obj_in[:, :-emb], grads)
        _entity_grad(grads, self.params["entity_emb"], subj, obj, dq_sub_in[:, -emb:], dq_obj_in[:, -emb:])


class UnimodalModel:
    """Real-view encoder + entity embeddings + linear head (no synthetics).

    An input is ``(real_view, entities)`` with a u-side view.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        schema: DatasetSchema,
        emb_dim: int = 8,
        real_hidden: int = 16,
        real_dim: int = 8,
    ):
        self.schema = schema
        self.params: Params = {}
        self.params["entity_emb"] = rng.normal(0.0, 0.5, size=(schema.entity_vocab, emb_dim))
        mlp_init(self.params, rng, "uenc", _spec_feature_dim(schema.u_spec), real_hidden, real_dim)
        linear_init(self.params, rng, "head", real_dim + 2 * emb_dim, schema.class_count)
        self._emb_dim = emb_dim

    logits = _logits
    loss_and_grads = _loss_and_grads

    def _forward(self, inputs):
        real_views, entities = _columns(inputs)
        x_u = _features(real_views, self.schema.u_spec, MODALITY_U, "the unimodal model consumes u-side views")
        real_enc, c_real = mlp_forward(self.params, "uenc", x_u)
        subj, obj = _entity_ids(entities)
        table = self.params["entity_emb"]
        head_in = np.concatenate([real_enc, table[subj], table[obj]], axis=1)
        logits, c_head = linear_forward(self.params, "head", head_in)
        return logits, (subj, obj, c_real, c_head)

    def _backward(self, cache, dlogits: np.ndarray, grads: Grads) -> None:
        subj, obj, c_real, c_head = cache
        emb = self._emb_dim
        dhead_in = linear_backward(self.params, c_head, dlogits, grads)
        real_dim = dhead_in.shape[1] - 2 * emb
        mlp_backward(self.params, c_real, dhead_in[:, :real_dim], grads)
        d_subj = dhead_in[:, real_dim : real_dim + emb]
        d_obj = dhead_in[:, real_dim + emb :]
        _entity_grad(grads, self.params["entity_emb"], subj, obj, d_subj, d_obj)


# --- training -----------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    steps: int = 200
    batch_size: int = 32
    weight_decay: float = 0.0
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    cosine_decay: bool = False

    def __post_init__(self):
        if self.learning_rate < 0 or self.weight_decay < 0:
            raise ValueError("learning_rate and weight_decay must be non-negative")
        if self.steps < 0 or self.batch_size < 1:
            raise ValueError("steps must be >= 0 and batch_size >= 1")


class AdamW:
    """Adam with decoupled weight decay; the decay term never enters the
    moment estimates."""

    def __init__(self, params: Params, config: TrainConfig):
        self.config = config
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: Params, grads: Grads, lr: float) -> None:
        cfg = self.config
        self.t += 1
        for key, w in params.items():
            g = grads.get(key)
            if g is None:
                g = np.zeros_like(w)
            self.m[key] = cfg.beta1 * self.m[key] + (1 - cfg.beta1) * g
            self.v[key] = cfg.beta2 * self.v[key] + (1 - cfg.beta2) * g * g
            m_hat = self.m[key] / (1 - cfg.beta1**self.t)
            v_hat = self.v[key] / (1 - cfg.beta2**self.t)
            w -= lr * (m_hat / (np.sqrt(v_hat) + cfg.adam_eps) + cfg.weight_decay * w)


def _learning_rate(config: TrainConfig, step: int) -> float:
    if not config.cosine_decay or config.steps <= 1:
        return config.learning_rate
    progress = step / (config.steps - 1)
    return config.learning_rate * 0.5 * (1.0 + math.cos(math.pi * progress))


def train(model, samples, config: TrainConfig, rng_stream=("train",)):
    """Run AdamW on mean batch loss; returns (model, per_sample_losses).

    Batches are drawn as contiguous chunks of a per-epoch permutation, all
    from the model's own derived stream, so identical (config, samples)
    always produce identical parameters. The returned losses come from one
    final frozen pass in input order.
    """
    from .rng import derive_rng

    samples = list(samples)
    if not samples:
        raise ValueError("cannot train on an empty sample list")
    rng = derive_rng(config.seed, *rng_stream)
    optimizer = AdamW(model.params, config)
    order = rng.permutation(len(samples))
    cursor = 0
    # a diverging run overflows before its loss turns non-finite; the check
    # below reports it once, naming the phase, instead of numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(config.steps):
            if cursor >= len(samples):
                order = rng.permutation(len(samples))
                cursor = 0
            batch = order[cursor : cursor + config.batch_size]
            cursor += config.batch_size
            losses, grads = model.loss_and_grads([samples[i] for i in batch])
            if not np.isfinite(losses).all():
                raise TrainingDivergedError(step, rng_stream)
            optimizer.step(model.params, grads, _learning_rate(config, step))

        inputs, labels = _columns(samples)
        losses, _ = softmax_xent(model.logits(inputs), labels)
        if not np.isfinite(losses).all():  # the last step diverged
            raise TrainingDivergedError(config.steps, rng_stream)
    return model, losses


def grad_check(model, batch, epsilon: float = 1e-5) -> float:
    """Max relative error of the model's analytic gradients of the mean loss
    over ``batch``, a sequence of ``(inputs, label)`` samples."""
    _, analytic = model.loss_and_grads(batch)
    inputs, labels = _columns(batch)

    def loss_fn():
        return float(np.mean(softmax_xent(model.logits(inputs), labels)[0]))

    return finite_difference_check(model.params, loss_fn, analytic, epsilon=epsilon)


# --- checkpoints ---------------------------------------------------------------


def save_params(params: Params, path) -> None:
    """Write a flat named-tensor checkpoint (.npz with a version stamp)."""
    payload = {"__version__": np.array(CHECKPOINT_VERSION)}
    payload.update(params)
    np.savez(path, **payload)


def load_params(path) -> Params:
    with np.load(path) as data:
        version = int(data["__version__"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        return {k: data[k].copy() for k in data.files if k != "__version__"}
